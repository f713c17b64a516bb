//! Durability: a historian checkpointed to disk must come back with all
//! sealed data, schema types, source registry, and statistics — and keep
//! serving SQL and ingest after recovery.

use odh_core::server::DataServer;
use odh_core::Historian;
use odh_pager::disk::MemDisk;
use odh_pager::log::{LogStore, MemLogDir};
use odh_sim::ResourceMeter;
use odh_storage::{Cols, TableConfig, Wal};
use odh_types::{Datum, Duration, Record, SchemaType, SourceClass, SourceId, Timestamp};
use proptest::prelude::*;
use std::sync::Arc;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("odh-persist-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn checkpoint_and_reopen_round_trip() {
    let dir = tmpdir("rt");
    let q_hist = "select COUNT(*), AVG(kwh) from meter_v where id = 11";
    let q_slice = "select COUNT(*) from meter_v where timestamp \
                   between '1970-01-01 01:00:00' and '1970-01-01 01:59:59'";
    let (hist_before, slice_before);
    {
        let h = Historian::builder().servers(2).disk_dir(&dir).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("meter", ["kwh", "volts"]))
                .with_batch_size(32)
                .with_mg_group_size(8),
        )
        .unwrap();
        for id in 0..24u64 {
            h.register_source(
                "meter",
                SourceId(id),
                SourceClass::regular_low(Duration::from_minutes(15)),
            )
            .unwrap();
        }
        let w = h.writer("meter").unwrap();
        for sweep in 0..20i64 {
            for id in 0..24u64 {
                w.write(&Record::dense(
                    SourceId(id),
                    Timestamp(sweep * 900_000_000),
                    [0.1 * sweep as f64, 230.0],
                ))
                .unwrap();
            }
        }
        h.flush().unwrap();
        hist_before = h.sql(q_hist).unwrap();
        slice_before = h.sql(q_slice).unwrap();
        h.checkpoint().unwrap();
    } // historian dropped: memory state gone

    let h = Historian::open(&dir, 8).unwrap();
    assert_eq!(h.sql(q_hist).unwrap().rows, hist_before.rows);
    assert_eq!(h.sql(q_slice).unwrap().rows, slice_before.rows);

    // Recovered system keeps ingesting and re-checkpointing.
    let w = h.writer("meter").unwrap();
    for id in 0..24u64 {
        w.write(&Record::dense(SourceId(id), Timestamp(50 * 900_000_000), [9.9, 231.0])).unwrap();
    }
    h.flush().unwrap();
    let r = h.sql("select COUNT(*) from meter_v where id = 11").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(21));
    h.checkpoint().unwrap();

    // Second recovery sees the extra sweep.
    let h2 = Historian::open(&dir, 8).unwrap();
    let r = h2.sql("select COUNT(*) from meter_v where id = 11").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(21));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_preserves_structures_and_reorg_state() {
    let dir = tmpdir("reorg");
    {
        let h = Historian::builder().disk_dir(&dir).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("m", ["x"]))
                .with_batch_size(16)
                .with_mg_group_size(10),
        )
        .unwrap();
        for id in 0..20u64 {
            h.register_source("m", SourceId(id), SourceClass::irregular_low()).unwrap();
        }
        let w = h.writer("m").unwrap();
        for i in 0..10i64 {
            for id in 0..20u64 {
                w.write(&Record::dense(
                    SourceId(id),
                    Timestamp(i * 1_000_000 + id as i64),
                    [i as f64],
                ))
                .unwrap();
            }
        }
        h.flush().unwrap();
        h.reorganize().unwrap();
        h.checkpoint().unwrap();
    }
    let h = Historian::open(&dir, 8).unwrap();
    // Post-reorg layout survived: per-source batches answer historical
    // queries, and the slice path knows to consult them.
    let r = h.sql("select COUNT(*) from m_v where id = 13").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(10));
    let r = h
        .sql(
            "select COUNT(*) from m_v where timestamp \
             between '1970-01-01 00:00:02' and '1970-01-01 00:00:06.500000'",
        )
        .unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(100)); // sweeps 2..=6 × 20 meters
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn opening_nothing_fails_cleanly_and_strict_snapshot_refuses() {
    let dir = tmpdir("err");
    assert_eq!(Historian::open(&dir, 8).err().unwrap().kind(), "not_found");

    // `with_strict_snapshot` restores the pre-WAL refusal: a snapshot with
    // unsealed ingest buffers is an error until the table is flushed.
    let h = Historian::builder().disk_dir(&dir).build().unwrap();
    h.define_schema_type(
        TableConfig::new(SchemaType::new("m", ["x"]))
            .with_batch_size(1000)
            .with_strict_snapshot(true),
    )
    .unwrap();
    h.register_source("m", SourceId(1), SourceClass::irregular_high()).unwrap();
    let w = h.writer("m").unwrap();
    w.write(&Record::dense(SourceId(1), Timestamp(1), [1.0])).unwrap();
    let server = &h.cluster().servers()[0];
    let table = server.table("m").unwrap();
    assert_eq!(table.snapshot().err().unwrap().kind(), "config");
    h.flush().unwrap();
    h.checkpoint().unwrap();
    let h2 = Historian::open(&dir, 8).unwrap();
    let r = h2.sql("select COUNT(*) from m_v where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(1));
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn frame at the log tail (half-written during the crash) must be
/// truncated on open — recovery keeps every complete frame before it and
/// physically shortens the log so the tear can't shadow later appends.
#[test]
fn torn_wal_tail_is_truncated_on_open() {
    let dir = Arc::new(MemLogDir::new());
    let meter = ResourceMeter::unmetered();
    let wal = Wal::create(dir.clone(), meter.clone()).unwrap();
    let log = dir.segment(1).unwrap();
    let append = |i: i64| {
        wal.append_run(3, 7, false, &[i], Cols::Row(&[Some(i as f64)]), 0..1).unwrap();
    };
    for i in 0..5 {
        append(i);
    }
    wal.sync().unwrap();
    let good_len = log.len();

    // A later flush tears mid-frame: a plausible header lands but the
    // payload is cut short.
    append(99);
    wal.sync().unwrap();
    let full = log.read_all().unwrap();
    log.set_len(good_len + (full.len() as u64 - good_len) / 2).unwrap();
    drop(wal);

    let (wal, recovery) = Wal::open(dir.clone(), meter.clone()).unwrap();
    assert_eq!(recovery.frames.len(), 5, "only complete frames survive");
    assert!(recovery.warning.is_some(), "the tear is reported");
    assert!(recovery.truncated_bytes > 0);
    assert_eq!(log.len(), good_len, "log physically truncated to the last good frame");
    assert_eq!(wal.max_lsn(), 5, "LSNs resume after the survivors");

    // A bit flipped inside an earlier frame stops the scan there too.
    drop(wal);
    log.flip_bit(good_len / 2);
    let (_, recovery) = Wal::open(dir, meter).unwrap();
    assert!(recovery.frames.len() < 5, "frames behind the corruption are dropped");
    assert!(recovery.warning.is_some());
}

fn crash_server(meter: &Arc<ResourceMeter>) -> (Arc<MemDisk>, Arc<MemLogDir>, DataServer) {
    let disk = Arc::new(MemDisk::new());
    let log = Arc::new(MemLogDir::new());
    let server =
        DataServer::with_disk_wal(0, meter.clone(), disk.clone(), 512, log.clone()).unwrap();
    (disk, log, server)
}

fn prop_cfg() -> TableConfig {
    TableConfig::new(SchemaType::new("p", ["v"])).with_batch_size(4)
}

fn scan_all(server: &DataServer, sources: u64) -> Vec<(u64, i64, Option<f64>)> {
    let table = server.table("p").unwrap();
    let mut out = Vec::new();
    for s in 0..sources {
        for p in
            table.historical_scan(SourceId(s), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap()
        {
            out.push((s, p.ts.micros(), p.values[0]));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of sources (mixing the IRTS and MG ingest paths),
    /// any synced crash point, with or without a checkpoint at the crash:
    /// recover, finish the stream, and the result must be byte-identical
    /// to a server that never crashed.
    #[test]
    fn recovered_server_matches_never_crashed_reference(
        stream in prop::collection::vec((0u64..6, any::<bool>()), 1..80),
        crash_at in 0usize..1000,
        checkpoint_on_crash in any::<bool>(),
    ) {
        let meter = ResourceMeter::unmetered();
        let sources = 6u64;
        let classes = |s: u64| {
            // Even → per-source IRTS buffers; odd → the shared MG buffer.
            if s.is_multiple_of(2) {
                SourceClass::irregular_high()
            } else {
                SourceClass::irregular_low()
            }
        };
        let records: Vec<Record> = {
            let mut per_source = vec![0i64; sources as usize];
            stream.iter().map(|&(s, null)| {
                per_source[s as usize] += 1;
                let v = if null { None } else { Some(per_source[s as usize] as f64) };
                Record::new(SourceId(s), Timestamp(per_source[s as usize] * 1_000), vec![v])
            }).collect()
        };
        let crash_at = crash_at % (records.len() + 1);

        // Crashing run: ingest a prefix, sync (ack), maybe checkpoint,
        // drop the server, recover from the surviving media, finish.
        let (disk, log, server) = crash_server(&meter);
        let table = server.create_table(prop_cfg()).unwrap();
        for s in 0..sources { table.register_source(SourceId(s), classes(s)).unwrap(); }
        for r in &records[..crash_at] { table.put(r).unwrap(); }
        if checkpoint_on_crash { server.checkpoint().unwrap(); } else { server.sync().unwrap(); }
        drop(table);
        drop(server);
        let server = DataServer::open_with_wal(0, meter.clone(), disk, 512, log).unwrap();
        let table = server.table("p").unwrap();
        for r in &records[crash_at..] { table.put(r).unwrap(); }
        server.flush().unwrap();

        // Reference run: same stream, no crash.
        let (_, _, reference) = crash_server(&meter);
        let ref_table = reference.create_table(prop_cfg()).unwrap();
        for s in 0..sources { ref_table.register_source(SourceId(s), classes(s)).unwrap(); }
        for r in &records { ref_table.put(r).unwrap(); }
        reference.flush().unwrap();

        prop_assert_eq!(scan_all(&server, sources), scan_all(&reference, sources));
        prop_assert_eq!(
            table.stats().snapshot().points_ingested,
            ref_table.stats().snapshot().points_ingested,
            "replay must re-count exactly the rows a lenient checkpoint subtracted"
        );
    }
}

#[test]
fn lenient_checkpoint_keeps_buffers_open_and_wal_replays_them() {
    let dir = tmpdir("lenient");
    {
        // Default disk-backed config: WAL on, snapshots lenient.
        let h = Historian::builder().disk_dir(&dir).build().unwrap();
        h.define_schema_type(TableConfig::new(SchemaType::new("m", ["x"])).with_batch_size(1000))
            .unwrap();
        h.register_source("m", SourceId(1), SourceClass::irregular_high()).unwrap();
        let w = h.writer("m").unwrap();
        for i in 0..7i64 {
            w.write(&Record::dense(SourceId(1), Timestamp(i), [i as f64])).unwrap();
        }
        // No flush: all 7 points are still buffered. The checkpoint must
        // succeed anyway, leaving the buffered tail to the WAL.
        let server = &h.cluster().servers()[0];
        let table = server.table("m").unwrap();
        assert!(table.snapshot().is_ok(), "WAL-backed snapshot is lenient");
        h.checkpoint().unwrap();
        h.sync().unwrap();
    } // crash: in-memory buffers gone

    let h = Historian::open(&dir, 8).unwrap();
    let r = h.sql("select COUNT(*) from m_v where id = 1").unwrap();
    assert_eq!(r.rows[0].get(0), &Datum::I64(7), "buffered points replayed from the WAL");
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file under `from` (one level of subdirectories: the
/// `server<N>.wal/` segment directories), copied into `to`.
fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        let dest = to.join(path.file_name().unwrap());
        if path.is_dir() {
            copy_tree(&path, &dest);
        } else {
            std::fs::copy(&path, &dest).unwrap();
        }
    }
}

fn segment_files(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir.join("server0.wal"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// The file-backed segmented WAL across a checkpoint with open buffers:
/// a disk historian checkpoints twice (the second checkpoint drops the
/// segment the first one kept) and is dropped. Reopened as left — after
/// the segment deletion — and as a crash would leave it just before the
/// deletion (the dropped segment restored next to the new checkpoint
/// image), `Historian::open` must recover every synced row from the
/// `server<N>.wal/` segments exactly once.
#[test]
fn file_backed_segments_recover_open_buffers_across_checkpoints() {
    const SOURCES: u64 = 4;
    let dir = tmpdir("segments");
    let seed: u64 = std::env::var("DURABILITY_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    let mut rows_per_source = 0i64;
    let before_drop = dir.join("before-drop");
    let after_drop = dir.join("after-drop");
    {
        let h = Historian::builder().servers(2).disk_dir(&after_drop).build().unwrap();
        h.define_schema_type(TableConfig::new(SchemaType::new("m", ["x"])).with_batch_size(8))
            .unwrap();
        for id in 0..SOURCES {
            h.register_source("m", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("m").unwrap();
        let mut write = |n: i64| {
            for _ in 0..n {
                for id in 0..SOURCES {
                    let ts = rows_per_source * 1_000 + id as i64;
                    w.write(&Record::dense(SourceId(id), Timestamp(ts), [ts as f64])).unwrap();
                }
                rows_per_source += 1;
            }
        };
        // 8k + 3 rows per source: three per source stay buffered.
        write(19 + 8 * (seed as i64 % 3));
        h.checkpoint().unwrap();
        let kept = segment_files(&after_drop);
        // The buffered rows seal; five newer ones per source stay open.
        write(10);
        h.sync().unwrap();
        let snapshot = dir.join("snapshot");
        copy_tree(&after_drop, &snapshot);
        h.checkpoint().unwrap();
        let dropped: Vec<String> =
            kept.iter().filter(|f| !segment_files(&after_drop).contains(f)).cloned().collect();
        assert!(!dropped.is_empty(), "the second checkpoint dropped no segment");
        // The crash state just before the deletion: the new image with
        // every old segment still in place.
        copy_tree(&after_drop, &before_drop);
        for f in &dropped {
            let rel = std::path::Path::new("server0.wal").join(f);
            std::fs::copy(snapshot.join(&rel), before_drop.join(&rel)).unwrap();
        }
    } // historian dropped: memory state gone

    for (arm, path) in [("after the drop", &after_drop), ("before the drop", &before_drop)] {
        let h = Historian::open(path, 8).unwrap();
        let server = &h.cluster().servers()[0];
        assert!(server.wal().is_some(), "{arm}: the segment directory was not reopened");
        for id in 0..SOURCES {
            let rows = h.sql(&format!("select timestamp from m_v where id = {id}")).unwrap().rows;
            assert_eq!(rows.len() as i64, rows_per_source, "{arm}: source {id} rows");
            let mut ts: Vec<String> = rows.iter().map(|r| format!("{:?}", r.get(0))).collect();
            ts.sort();
            ts.dedup();
            assert_eq!(ts.len() as i64, rows_per_source, "{arm}: source {id} replayed a row twice");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
