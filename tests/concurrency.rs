//! Concurrency: parallel writers, dirty reads under load, and the
//! non-transactional guarantees §3 describes ("the insertion process does
//! not support transactions ... the query component adopts a 'dirty read'
//! isolation level").

use odh_core::router::DataRouter;
use odh_core::vtable::VirtualTable;
use odh_core::{Cluster, Historian, OdhWriter, ParallelWriter};
use odh_sim::ResourceMeter;
use odh_sql::provider::{ScanRequest, TableProvider};
use odh_storage::TableConfig;
use odh_types::{Datum, Record, SchemaType, SourceClass, SourceId, Timestamp};
use std::sync::Arc;

#[test]
fn parallel_writers_lose_nothing() {
    let h = Arc::new(Historian::builder().servers(2).build().unwrap());
    h.define_schema_type(
        TableConfig::new(SchemaType::new("t", ["v"])).with_batch_size(32).with_mg_group_size(4),
    )
    .unwrap();
    let threads = 4u64;
    let per_thread = 2_000i64;
    for id in 0..threads {
        h.register_source("t", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    std::thread::scope(|s| {
        for t in 0..threads {
            let h = h.clone();
            s.spawn(move || {
                let w = h.writer("t").unwrap();
                for i in 0..per_thread {
                    w.write(&Record::dense(
                        SourceId(t),
                        Timestamp(i * 1_000 + t as i64),
                        [i as f64],
                    ))
                    .unwrap();
                }
            });
        }
    });
    h.flush().unwrap();
    let r = h.sql("select COUNT(*) from t_v").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(threads as i64 * per_thread));
    for id in 0..threads {
        let r = h.sql(&format!("select COUNT(*) from t_v where id = {id}")).unwrap();
        assert_eq!(r.rows[0].get(0), &Datum::I64(per_thread));
    }
}

#[test]
fn readers_run_against_live_writers() {
    // Queries interleaved with ingest must never error and must observe a
    // monotonically growing (dirty-read) count.
    let h = Arc::new(Historian::builder().servers(2).build().unwrap());
    h.define_schema_type(TableConfig::new(SchemaType::new("live", ["v"])).with_batch_size(64))
        .unwrap();
    for id in 0..8u64 {
        h.register_source("live", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    let total = 8_000i64;
    std::thread::scope(|s| {
        let writer_h = h.clone();
        let writer = s.spawn(move || {
            let w = writer_h.writer("live").unwrap();
            for i in 0..total {
                w.write(&Record::dense(SourceId((i % 8) as u64), Timestamp(i * 100), [i as f64]))
                    .unwrap();
            }
        });
        let reader_h = h.clone();
        s.spawn(move || {
            let mut last = 0i64;
            while !writer.is_finished() {
                let r = reader_h.sql("select COUNT(*) from live_v").unwrap();
                let n = r.rows[0].get(0).as_i64().unwrap();
                assert!(n >= last, "count went backwards: {last} -> {n}");
                last = n;
            }
        });
    });
    h.flush().unwrap();
    let r = h.sql("select COUNT(*) from live_v").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(total));
}

#[test]
fn dirty_read_sees_points_before_any_batch_seals() {
    let h = Historian::builder().build().unwrap();
    // Batch size far above what we write: everything stays in buffers.
    h.define_schema_type(TableConfig::new(SchemaType::new("buf", ["v"])).with_batch_size(10_000))
        .unwrap();
    h.register_source("buf", SourceId(1), SourceClass::irregular_high()).unwrap();
    let w = h.writer("buf").unwrap();
    for i in 0..50i64 {
        w.write(&Record::dense(SourceId(1), Timestamp(i), [i as f64])).unwrap();
    }
    // No flush. The query must still see all 50 uncommitted points.
    let r = h.sql("select COUNT(*), MAX(v) from buf_v where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(50));
    assert_eq!(r.rows[0].get(1), &Datum::F64(49.0));
}

/// A 3-server cluster with 16 registered irregular sources, plus the
/// interleaved record stream the parallel-vs-serial tests ingest: 500
/// records per source (not a multiple of the batch size 32, so 20 points
/// per source stay in open shard buffers until a flush).
fn stress_setup() -> (Arc<Cluster>, Vec<Record>) {
    let c = Cluster::in_memory(3, ResourceMeter::unmetered());
    c.define_schema_type(
        TableConfig::new(SchemaType::new("t", ["v"])).with_batch_size(32).with_mg_group_size(1),
    )
    .unwrap();
    for id in 0..16u64 {
        c.register_source("t", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    let records: Vec<Record> = (0..8_000i64)
        .map(|i| {
            Record::dense(SourceId((i % 16) as u64), Timestamp(i * 100), [(i * 7 % 1000) as f64])
        })
        .collect();
    (c, records)
}

/// Per-source history as the storage engine returns it: `(ts, v)` in
/// timestamp order, open buffers included (dirty read).
fn source_history(c: &Arc<Cluster>, id: u64) -> Vec<(i64, f64)> {
    c.server_for("t", SourceId(id))
        .table("t")
        .unwrap()
        .historical_scan(SourceId(id), Timestamp::MIN, Timestamp::MAX, &[0])
        .unwrap()
        .into_iter()
        .map(|p| (p.ts.0, p.values[0].unwrap()))
        .collect()
}

#[test]
fn parallel_ingest_equals_serial() {
    let (serial, records) = stress_setup();
    let (parallel, _) = stress_setup();

    let sw = OdhWriter::new(serial.clone(), "t").unwrap();
    sw.write_batch(&records).unwrap();
    let pw = ParallelWriter::new(parallel.clone(), "t").unwrap().with_threads(4);
    pw.write_batch(&records).unwrap();
    assert_eq!(sw.written(), pw.written());

    // No flush yet: the tail of every source (500 % 32 = 20 points) sits
    // in open shard buffers and must already be visible (dirty read),
    // identically on both systems.
    let compare_all = |label: &str| {
        let mut count = 0usize;
        let mut sum = 0.0f64;
        for id in 0..16u64 {
            let s = source_history(&serial, id);
            let p = source_history(&parallel, id);
            assert_eq!(s, p, "{label}: source {id} history diverged");
            assert!(s.windows(2).all(|w| w[0].0 < w[1].0), "{label}: ts order broken");
            count += p.len();
            sum += p.iter().map(|(_, v)| v).sum::<f64>();
        }
        (count, sum)
    };
    let (count, sum) = compare_all("pre-flush");
    assert_eq!(count, records.len());
    let expected_sum: f64 = (0..8_000i64).map(|i| (i * 7 % 1000) as f64).sum();
    assert_eq!(sum, expected_sum);

    // After both flush, sealed batches must agree too.
    serial.flush().unwrap();
    parallel.flush().unwrap();
    let (count, sum) = compare_all("post-flush");
    assert_eq!(count, records.len());
    assert_eq!(sum, expected_sum);
}

#[test]
fn parallel_scan_order_matches_serial_merge() {
    let (c, records) = stress_setup();
    let pw = ParallelWriter::new(c.clone(), "t").unwrap().with_threads(4);
    pw.write_batch(&records).unwrap();
    // Deliberately no flush: the fan-out must also see open shard buffers.

    let router = Arc::new(DataRouter::new(c.clone()));
    for id in 0..16u64 {
        router.note_source("t", SourceId(id));
    }
    let v = VirtualTable::new(c.clone(), router, "t", "t_v").unwrap();
    let rows = v
        .scan(&ScanRequest { filters: vec![], needed: vec![0, 1, 2], ..Default::default() })
        .unwrap();
    let keys: Vec<(i64, i64)> = rows
        .iter()
        .map(|r| (r.get(1).as_ts().unwrap().micros(), r.get(0).as_i64().unwrap()))
        .collect();

    // Serial reference: scan every server on this thread and merge by
    // (ts, id) — with sources disjoint across servers this equals sorting
    // the concatenation.
    let mut reference: Vec<(i64, i64)> = c
        .servers()
        .iter()
        .flat_map(|s| {
            s.table("t")
                .unwrap()
                .slice_scan_filtered(Timestamp::MIN, Timestamp::MAX, &[0], None, &[])
                .unwrap()
        })
        .map(|p| (p.ts.0, p.source.0 as i64))
        .collect();
    reference.sort_unstable();
    assert_eq!(keys.len(), records.len());
    assert_eq!(keys, reference, "parallel fan-out must be order-identical to serial merge");

    // The fan-out was counted on every involved server and on the meter.
    for s in c.servers() {
        assert!(s.table("t").unwrap().concurrency().fanout_scans.get() >= 1);
    }
    assert!(c.meter().parallel_report().regions >= 1);
}

#[test]
fn reorganize_races_with_ingest_safely() {
    let h = Arc::new(Historian::builder().build().unwrap());
    h.define_schema_type(
        TableConfig::new(SchemaType::new("m", ["v"])).with_batch_size(16).with_mg_group_size(8),
    )
    .unwrap();
    for id in 0..16u64 {
        h.register_source("m", SourceId(id), SourceClass::irregular_low()).unwrap();
    }
    std::thread::scope(|s| {
        let writer_h = h.clone();
        let writer = s.spawn(move || {
            let w = writer_h.writer("m").unwrap();
            for i in 0..4_000i64 {
                w.write(&Record::dense(
                    SourceId((i % 16) as u64),
                    Timestamp(i * 1_000),
                    [i as f64],
                ))
                .unwrap();
                if i % 1000 == 0 {
                    writer_h.flush().unwrap();
                }
            }
        });
        let reorg_h = h.clone();
        s.spawn(move || {
            while !writer.is_finished() {
                reorg_h.reorganize().unwrap();
            }
        });
    });
    h.flush().unwrap();
    h.reorganize().unwrap();
    let r = h.sql("select COUNT(*) from m_v").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(4_000));
}

/// The read-path attribution counters (summary pushdown, decode cache)
/// are the engine's own statistics, never sampled or gated — so under
/// live writers they must stay *exact*, not merely monotone. Ground
/// truth: the identical query sequence over the identical sealed prefix
/// on a quiescent historian. The live writers only append at timestamps
/// strictly beyond the queried range, so every delta must match the
/// quiescent reference to the counter.
#[test]
fn read_path_counters_stay_exact_under_live_writers() {
    const SOURCES: u64 = 4;
    const PER_SOURCE: i64 = 128; // batch 16 → 8 sealed batches per source
    const PREFIX_BATCHES: i64 = SOURCES as i64 * PER_SOURCE / 16;
    let prefix_historian = || {
        let h = Arc::new(Historian::builder().servers(2).build().unwrap());
        h.define_schema_type(TableConfig::new(SchemaType::new("x", ["v"])).with_batch_size(16))
            .unwrap();
        for id in 0..SOURCES {
            h.register_source("x", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("x").unwrap();
        for i in 0..PER_SOURCE {
            for id in 0..SOURCES {
                w.write(&Record::dense(SourceId(id), Timestamp(i * 1_000), [i as f64])).unwrap();
            }
        }
        h.flush().unwrap();
        h
    };
    const COUNTERS: [&str; 4] = [
        "odh_table_summary_answered_batches_total",
        "odh_table_cache_hits_total",
        "odh_table_cache_misses_total",
        "odh_table_blob_decodes_total",
    ];
    // All queries bounded to the prefix ([0, 500_000] covers every sealed
    // batch; live writers start at ts 1_000_000), so results and counter
    // deltas are independent of the concurrent stream.
    let queries = [
        "select COUNT(*), SUM(v) from x_v where timestamp between 0 and 500000",
        "select v from x_v where timestamp between 0 and 500000",
        "select v from x_v where timestamp between 0 and 500000",
    ];
    let run_sequence = |h: &Arc<Historian>| -> Vec<(Vec<u64>, usize)> {
        queries
            .iter()
            .map(|q| {
                let before: Vec<u64> =
                    COUNTERS.iter().map(|c| h.registry().sum_counter(c)).collect();
                let rows = h.sql(q).unwrap().rows.len();
                let deltas = COUNTERS
                    .iter()
                    .zip(&before)
                    .map(|(c, b)| h.registry().sum_counter(c) - b)
                    .collect();
                (deltas, rows)
            })
            .collect()
    };

    // Quiescent reference, with sanity checks that it exercises what the
    // test claims: pushdown answers all batches without decoding, the
    // cold scan decodes them all, the warm scan decodes nothing.
    let reference = run_sequence(&prefix_historian());
    assert_eq!(reference[0].0[0], PREFIX_BATCHES as u64, "pushdown answers every prefix batch");
    assert_eq!(reference[0].0[3], 0, "pushdown decodes nothing");
    assert_eq!(reference[1].0[3], PREFIX_BATCHES as u64, "cold scan decodes every batch");
    assert_eq!(reference[2].0[3], 0, "warm scan is answered by the decode cache");
    assert!(reference[2].0[1] > 0, "warm scan hits the cache");

    let h = prefix_historian();
    std::thread::scope(|s| {
        // A bounded concurrent stream (so the scheduler can't starve the
        // reader indefinitely): each source appends 10k records, sealing
        // hundreds of batches while the query sequence runs.
        for id in 0..SOURCES {
            let writer_h = h.clone();
            s.spawn(move || {
                let w = writer_h.writer("x").unwrap();
                for i in 0..10_000i64 {
                    // Strictly beyond the queried range; seals new batches
                    // the bounded queries must prune, not decode.
                    w.write(&Record::dense(
                        SourceId(id),
                        Timestamp(1_000_000 + i * 1_000),
                        [i as f64],
                    ))
                    .unwrap();
                }
            });
        }
        let live = run_sequence(&h);
        // The whole-table aggregate walk rejects live batches at header
        // cost, and a header probe is a cache probe — so query 1's
        // hit/miss counts scale with the live stream. Everything the
        // bounded queries *attribute* must stay exact: summary-answered
        // and decode counts everywhere, and for the index-bounded scans
        // (which never touch live rids) the cache probes too.
        let attributed = |r: &[(Vec<u64>, usize)]| -> Vec<(u64, u64, usize)> {
            r.iter().map(|(d, rows)| (d[0], d[3], *rows)).collect()
        };
        assert_eq!(
            attributed(&live),
            attributed(&reference),
            "summary/decode attribution drifted under live writers"
        );
        assert_eq!(
            live[1..],
            reference[1..],
            "bounded-scan counters drifted under live writers (counter order: {COUNTERS:?})"
        );
    });
}

/// Readers hammer scans and aggregates while the reorganizer swaps MG
/// generations under them: the decode cache is invalidated per dropped
/// generation, and because container ids are process-unique a stale entry
/// can never alias a live record — every point a reader sees must carry
/// the value written for its timestamp.
#[test]
fn cache_stays_fresh_across_reorganizations() {
    let h = Arc::new(Historian::builder().build().unwrap());
    h.define_schema_type(
        TableConfig::new(SchemaType::new("c", ["v"])).with_batch_size(16).with_mg_group_size(8),
    )
    .unwrap();
    for id in 0..16u64 {
        h.register_source("c", SourceId(id), SourceClass::irregular_low()).unwrap();
    }
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        let writer_h = h.clone();
        let writer_done = done.clone();
        s.spawn(move || {
            let w = writer_h.writer("c").unwrap();
            for i in 0..4_000i64 {
                w.write(&Record::dense(
                    SourceId((i % 16) as u64),
                    Timestamp(i * 1_000),
                    [i as f64],
                ))
                .unwrap();
                if i % 1000 == 0 {
                    writer_h.flush().unwrap();
                }
            }
            writer_done.store(true, std::sync::atomic::Ordering::Release);
        });
        let reorg_h = h.clone();
        let reorg_done = done.clone();
        s.spawn(move || {
            while !reorg_done.load(std::sync::atomic::Ordering::Acquire) {
                reorg_h.reorganize().unwrap();
            }
        });
        for _ in 0..2 {
            let read_h = h.clone();
            let read_done = done.clone();
            s.spawn(move || {
                while !read_done.load(std::sync::atomic::Ordering::Acquire) {
                    // Writes encode v = ts / 1000; a stale cached column
                    // would pair some timestamp with another batch's value.
                    let r = read_h.sql("select timestamp, v from c_v").unwrap();
                    for row in &r.rows {
                        let ts = row.get(0).as_ts().unwrap().micros();
                        let v = row.get(1).as_f64().unwrap();
                        assert_eq!(v, (ts / 1_000) as f64, "stale point at ts {ts}");
                    }
                    // The summary fast path must stay within the written
                    // value domain mid-reorganization too.
                    let a = read_h.sql("select MIN(v), MAX(v) from c_v").unwrap();
                    for d in [a.rows[0].get(0), a.rows[0].get(1)] {
                        if let Some(x) = d.as_f64() {
                            assert!((0.0..=3_999.0).contains(&x), "aggregate out of domain: {x}");
                        }
                    }
                }
            });
        }
    });
    h.flush().unwrap();
    h.reorganize().unwrap();
    let r = h.sql("select COUNT(*), SUM(v) from c_v").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(4_000));
    let expect: f64 = (0..4_000i64).map(|i| i as f64).sum();
    assert_eq!(r.rows[0].get(1).as_f64().unwrap(), expect);
}

/// The off-thread seal pipeline under concurrent load: writers hand full
/// buffers to the queue while readers count — rows must be visible at
/// every instant whether they sit in an open buffer, the seal queue, or
/// a container, and the pipelined table must end byte-identical to an
/// inline (seal_workers = 0) ablation run.
#[test]
fn seal_pipeline_keeps_rows_visible_under_load() {
    let run = |workers: usize| -> Vec<(i64, f64)> {
        let h = Arc::new(Historian::builder().servers(1).build().unwrap());
        h.define_schema_type(
            TableConfig::new(SchemaType::new("q", ["v"]))
                .with_batch_size(16)
                .with_seal_workers(workers)
                .with_seal_queue_depth(8),
        )
        .unwrap();
        for id in 0..4u64 {
            h.register_source("q", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let total = 4_000i64;
        std::thread::scope(|s| {
            let writer_h = h.clone();
            let writer = s.spawn(move || {
                let w = writer_h.writer("q").unwrap();
                for i in 0..total {
                    w.write(&Record::dense(
                        SourceId((i % 4) as u64),
                        Timestamp(i * 100),
                        [i as f64],
                    ))
                    .unwrap();
                }
            });
            let reader_h = h.clone();
            s.spawn(move || {
                let mut last = 0i64;
                while !writer.is_finished() {
                    let r = reader_h.sql("select COUNT(*) from q_v").unwrap();
                    let n = r.rows[0].get(0).as_i64().unwrap();
                    assert!(n >= last, "count went backwards: {last} -> {n}");
                    last = n;
                }
            });
        });
        // flush() is the pipeline barrier: after it, nothing is queued.
        h.flush().unwrap();
        let r = h.sql("select COUNT(*), SUM(v) from q_v").unwrap();
        assert_eq!(r.rows[0].get(0), &Datum::I64(total));
        assert_eq!(r.rows[0].get(1).as_f64().unwrap(), (0..total).map(|i| i as f64).sum());
        let mut hist = Vec::new();
        for id in 0..4u64 {
            let pts = h
                .cluster()
                .server_for("q", SourceId(id))
                .table("q")
                .unwrap()
                .historical_scan(SourceId(id), Timestamp::MIN, Timestamp::MAX, &[0])
                .unwrap();
            hist.extend(pts.into_iter().map(|p| (p.ts.0, p.values[0].unwrap())));
        }
        hist.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        hist
    };
    let pipelined = run(2);
    let inline = run(0);
    assert_eq!(pipelined.len(), 4_000);
    assert_eq!(pipelined, inline, "pipelined seal must equal inline ablation");
}
