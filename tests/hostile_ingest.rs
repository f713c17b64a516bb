//! Hostile ingest: the scenario matrix for out-of-order arrival routing
//! and predicate deletes (tombstones), driven through the public
//! `Historian` API.
//!
//! The contract under test (DESIGN.md "Hostile ingest"):
//!
//! - a point older than its source's seal watermark is routed to a
//!   WAL-covered side buffer instead of corrupting sealed order; it is
//!   readable immediately (dirty-read isolation) and sealed as IRTS;
//! - ingest order never changes query results: a hostile permutation of
//!   the same rows converges to the same state as ordered ingest, before
//!   a flush, after it, and after compaction;
//! - a predicate delete masks matching rows on every read tier the
//!   moment it returns, and compaction resolves it physically and
//!   retires the tombstone once nothing unrewritten can match it.

use odh_core::Historian;
use odh_storage::{DeletePredicate, TableConfig};
use odh_types::{Record, SchemaType, SourceClass, SourceId, Timestamp};

const N: usize = 200;
const SOURCES: u64 = 3;

fn historian() -> Historian {
    let h = Historian::builder().servers(1).build().unwrap();
    h.define_schema_type(TableConfig::new(SchemaType::new("m", ["a", "b"])).with_batch_size(8))
        .unwrap();
    for id in 0..SOURCES {
        h.register_source("m", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    h
}

fn record(src: u64, i: usize) -> Record {
    Record::dense(
        SourceId(src),
        Timestamp(1_000_000 + i as i64 * 10_000),
        [i as f64 + src as f64, -(i as f64)],
    )
}

/// Deterministic hostile permutation: strides through `0..N` with a unit
/// coprime to `N`, so nearly every arrival is out of order relative to
/// the seal watermark once the first few batches seal.
fn hostile_order(n: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 37) % n).collect()
}

/// Query fingerprint across the read tiers: per-source ordered history,
/// whole-type aggregate, and a bucketed downsample.
fn fingerprint(h: &Historian) -> Vec<String> {
    let mut out = Vec::new();
    for id in 0..SOURCES {
        let q = format!("select timestamp, a, b from m_v where id = {id} order by timestamp");
        for row in h.sql(&q).unwrap().rows {
            out.push(format!("{id}: {row:?}"));
        }
    }
    for row in h.sql("select COUNT(*), SUM(a), MIN(b), MAX(a) from m_v").unwrap().rows {
        out.push(format!("agg: {row:?}"));
    }
    let q = "select time_bucket(250000, timestamp), COUNT(*), SUM(a) from m_v \
             group by time_bucket(250000, timestamp)";
    for row in h.sql(q).unwrap().rows {
        out.push(format!("bucket: {row:?}"));
    }
    out
}

fn counter(h: &Historian, name: &str) -> u64 {
    h.registry().sum_counter(name)
}

#[test]
fn hostile_permutation_converges_to_ordered_state() {
    let ordered = historian();
    let shuffled = historian();
    // Both arms take a mid-stream flush, which drains every open buffer
    // and raises each source's watermark to its newest row: everything
    // the hostile arm writes afterwards that strides behind the flush is
    // late.
    let w_o = ordered.writer("m").unwrap();
    let w_s = shuffled.writer("m").unwrap();
    for i in 0..N {
        for src in 0..SOURCES {
            w_o.write(&record(src, i)).unwrap();
        }
        if i == N / 2 {
            ordered.flush().unwrap();
        }
    }
    for (step, &i) in hostile_order(N).iter().enumerate() {
        for src in 0..SOURCES {
            w_s.write(&record(src, i)).unwrap();
        }
        if step == N / 2 {
            shuffled.flush().unwrap();
        }
    }
    // The hostile run actually exercised the side path.
    assert!(
        counter(&shuffled, "odh_ooo_side_rows_total") > 0,
        "permutation produced no late arrivals — scenario is vacuous"
    );
    assert_eq!(counter(&ordered, "odh_ooo_side_rows_total"), 0);
    // Equivalent before the final flush (open + side buffers visible)...
    assert_eq!(fingerprint(&ordered), fingerprint(&shuffled), "pre-flush");
    // ...after sealing everything...
    ordered.flush().unwrap();
    shuffled.flush().unwrap();
    assert_eq!(fingerprint(&ordered), fingerprint(&shuffled), "post-flush");
    // ...and after compaction folds the sealed side batches back into
    // time-ordered generations.
    assert!(counter(&shuffled, "odh_ooo_side_batches_total") > 0, "side buffers sealed");
    let rep = shuffled.compact().unwrap();
    assert!(rep.batches_before > 0);
    ordered.compact().unwrap();
    assert_eq!(fingerprint(&ordered), fingerprint(&shuffled), "post-compaction");
}

/// Late routing is a function of arrival order alone: a source's
/// watermark moves when its full buffer is taken, not when a seal worker
/// gets to the batch, so inline and pipelined sealing route exactly the
/// same rows to the side path.
#[test]
fn side_routing_is_independent_of_seal_workers() {
    let side_rows = |cfg: TableConfig| {
        let h = Historian::builder().servers(1).build().unwrap();
        h.define_schema_type(cfg).unwrap();
        for id in 0..SOURCES {
            h.register_source("m", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("m").unwrap();
        for &i in &hostile_order(N) {
            for src in 0..SOURCES {
                w.write(&record(src, i)).unwrap();
            }
        }
        h.flush().unwrap();
        counter(&h, "odh_ooo_side_rows_total")
    };
    let cfg = TableConfig::new(SchemaType::new("m", ["a", "b"])).with_batch_size(8);
    let inline = side_rows(cfg.clone().with_seal_workers(0));
    assert!(inline > 0, "permutation produced no late arrivals — scenario is vacuous");
    for _ in 0..3 {
        assert_eq!(side_rows(cfg.clone()), inline, "default seal workers route differently");
    }
}

#[test]
fn late_arrivals_are_immediately_queryable() {
    let h = historian();
    let w = h.writer("m").unwrap();
    for i in 0..16 {
        w.write(&record(0, i)).unwrap(); // two sealed batches at size 8
    }
    // Flush: the watermark rises to the newest drained row before the
    // late route is tested.
    h.flush().unwrap();
    w.write(&record(0, 16)).unwrap();
    // A row far behind the watermark: accepted, counted, and visible
    // without a flush.
    w.write(&Record::dense(SourceId(0), Timestamp(5), [99.0, 99.0])).unwrap();
    assert_eq!(counter(&h, "odh_ooo_side_rows_total"), 1);
    let rows = h.sql("select timestamp, a from m_v where id = 0 order by timestamp").unwrap().rows;
    assert_eq!(rows.len(), 18);
    assert!(format!("{:?}", rows[0]).contains("99"), "late row first: {:?}", rows[0]);
}

#[test]
fn delete_lifecycle_mask_resolve_retire_reinsert() {
    let h = historian();
    let w = h.writer("m").unwrap();
    for i in 0..N {
        w.write(&record(0, i)).unwrap();
    }
    h.flush().unwrap();
    let all = h.sql("select COUNT(*) from m_v").unwrap().rows;
    assert!(format!("{all:?}").contains("200"));

    // Mask: rows i ∈ [50, 59] vanish from queries the moment delete returns.
    h.delete("m", &DeletePredicate::all_sources(1_500_000, 1_590_000)).unwrap();
    let masked = fingerprint(&h);
    let count = h.sql("select COUNT(*) from m_v").unwrap().rows;
    assert!(format!("{count:?}").contains("190"), "{count:?}");
    assert!(counter(&h, "odh_tombstone_masked_rows_total") > 0);

    // Resolve + retire: compaction rewrites the overlapping batches and
    // drops the tombstone; results must not move.
    let rep = h.compact().unwrap();
    assert_eq!(rep.tombstone_rows_resolved, 10);
    assert_eq!(rep.tombstones_retired, 1);
    assert_eq!(counter(&h, "odh_tombstone_retired_total"), 1);
    assert_eq!(fingerprint(&h), masked, "resolution is invisible to queries");

    // Reinsert into the resolved range: the delete is not a time-range
    // ban once retired.
    w.write(&Record::dense(SourceId(0), Timestamp(1_550_000), [1.0, 1.0])).unwrap();
    h.flush().unwrap();
    let count = h.sql("select COUNT(*) from m_v").unwrap().rows;
    assert!(format!("{count:?}").contains("191"), "{count:?}");
}

#[test]
fn tombstoned_state_equals_never_inserted_state() {
    // Deleting [t1, t2] must be observationally identical to never
    // having written those rows — including against late arrivals into
    // the deleted range while the tombstone is active.
    let full = historian();
    let sparse = historian();
    let w_f = full.writer("m").unwrap();
    let w_s = sparse.writer("m").unwrap();
    let deleted = |i: usize| (80..100).contains(&i);
    for i in 0..N {
        for src in 0..SOURCES {
            w_f.write(&record(src, i)).unwrap();
            if !deleted(i) {
                w_s.write(&record(src, i)).unwrap();
            }
        }
    }
    full.flush().unwrap();
    sparse.flush().unwrap();
    full.delete("m", &DeletePredicate::all_sources(1_800_000, 1_990_000)).unwrap();
    assert_eq!(fingerprint(&full), fingerprint(&sparse), "masked");
    // A late arrival into the active tombstone's range is masked too
    // (timeless while active): write it to both, visible in neither.
    w_f.write(&Record::dense(SourceId(1), Timestamp(1_850_000), [5.0, 5.0])).unwrap();
    assert_eq!(fingerprint(&full), fingerprint(&sparse), "late arrival into active tombstone");
    full.compact().unwrap();
    sparse.compact().unwrap();
    assert_eq!(fingerprint(&full), fingerprint(&sparse), "post-compaction");
}

#[test]
fn summary_pushdown_stays_sound_under_tombstones() {
    let h = historian();
    let w = h.writer("m").unwrap();
    for i in 0..96 {
        w.write(&record(0, i)).unwrap(); // 12 sealed batches of 8
    }
    h.flush().unwrap();
    let q = "select COUNT(*), SUM(a), MIN(a), MAX(a) from m_v";
    let s0 = counter(&h, "odh_table_summary_answered_batches_total");
    let d0 = counter(&h, "odh_table_blob_decodes_total");
    h.sql(q).unwrap();
    let s1 = counter(&h, "odh_table_summary_answered_batches_total");
    let d1 = counter(&h, "odh_table_blob_decodes_total");
    assert_eq!(s1 - s0, 12, "clean table: fully summary-answered");
    assert_eq!(d1 - d0, 0);
    // Tombstone overlapping exactly one batch (rows 16..23): that batch
    // must fall off the summary fast path and decode; the others not.
    h.delete("m", &DeletePredicate::all_sources(1_170_000, 1_190_000)).unwrap();
    let r = h.sql(q).unwrap();
    let s2 = counter(&h, "odh_table_summary_answered_batches_total");
    let d2 = counter(&h, "odh_table_blob_decodes_total");
    assert_eq!(s2 - s1, 11, "one batch lost the fast path");
    assert_eq!(d2 - d1, 1, "exactly the overlapping batch decoded");
    assert!(format!("{:?}", r.rows).contains("93"), "3 rows masked: {:?}", r.rows);
    // EXPLAIN ANALYZE attributes the filtering.
    let report = h.explain_analyze(q).unwrap();
    assert!(report.contains("tombstone_masked_rows="), "{report}");
}

#[test]
fn source_list_deletes_hit_only_their_shards() {
    let h = Historian::builder().servers(2).build().unwrap();
    // Group size 1 → source id is the group id → sources spread across
    // both servers (partition elimination routes the delete).
    h.define_schema_type(
        TableConfig::new(SchemaType::new("m", ["a", "b"])).with_batch_size(8).with_mg_group_size(1),
    )
    .unwrap();
    for id in 0..4u64 {
        h.register_source("m", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    let w = h.writer("m").unwrap();
    for i in 0..40 {
        for id in 0..4u64 {
            w.write(&record(id, i)).unwrap();
        }
    }
    h.flush().unwrap();
    h.delete("m", &DeletePredicate::for_sources(0, i64::MAX, [SourceId(2)])).unwrap();
    // Only source 2's owning shard installed a tombstone.
    assert_eq!(counter(&h, "odh_tombstone_deletes_total"), 1);
    let gone = h.sql("select COUNT(*) from m_v where id = 2").unwrap().rows;
    assert!(format!("{gone:?}").contains("0"), "{gone:?}");
    for id in [0u64, 1, 3] {
        let kept = h.sql(&format!("select COUNT(*) from m_v where id = {id}")).unwrap().rows;
        assert!(format!("{kept:?}").contains("40"), "source {id}: {kept:?}");
    }
}
