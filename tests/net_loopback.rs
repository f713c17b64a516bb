//! Wire-vs-in-process equivalence for the network ingest front door.
//!
//! The wire protocol is a transport, not a different ingest engine: the
//! same IoT-X workload pushed through a loopback [`NetServer`] session
//! must produce byte-identical table contents and ingest counters as
//! [`OdhWriter::write_batch`] called in-process. The second half reuses
//! the crash_recovery fault harness: a server killed mid-stream (WAL
//! device dies under it) may lose unacked frames, but every frame the
//! committer acked must survive recovery.

use iotx::ld::{self, LdSpec, ObservationGen};
use odh_core::server::DataServer;
use odh_core::{Cluster, Historian};
use odh_net::{NetClient, NetServer, NetServerConfig};
use odh_pager::disk::MemDisk;
use odh_pager::log::MemLog;
use odh_pager::{FailDisk, FailWal, FaultMode, FaultPlan};
use odh_sim::ResourceMeter;
use odh_storage::TableConfig;
use odh_types::{Record, SchemaType, SourceClass, SourceId, Timestamp};
use std::sync::Arc;

/// A small LD workload: ~20 stations reporting ~26 observations each.
fn spec() -> LdSpec {
    LdSpec::scaled(1, 50_000, 600)
}

fn fresh_historian(spec: &LdSpec) -> Arc<Historian> {
    let h = Arc::new(Historian::builder().servers(2).durable(true).build().unwrap());
    h.define_schema_type(
        TableConfig::new(ld::observation_schema_type(spec.tags))
            .with_batch_size(512)
            .with_mg_group_size(1000),
    )
    .unwrap();
    for s in 0..spec.sensors {
        h.register_source("observation", SourceId(s), SourceClass::irregular_low()).unwrap();
    }
    h
}

/// Full table contents per source, plus the ingest counters — the
/// equivalence fingerprint.
type RowKey = (u64, i64, Vec<Option<f64>>);

fn fingerprint(h: &Historian, spec: &LdSpec) -> (Vec<RowKey>, u64, u64) {
    h.flush().unwrap();
    let tags: Vec<usize> = (0..spec.tags).collect();
    let mut rows = Vec::new();
    let mut points = 0u64;
    let mut records = 0u64;
    for server in h.cluster().servers() {
        let t = server.table("observation").unwrap();
        let snap = t.stats().snapshot();
        points += snap.points_ingested;
        records += snap.records_ingested;
    }
    for s in 0..spec.sensors {
        let t = h.cluster().server_for("observation", SourceId(s)).table("observation").unwrap();
        for p in t.historical_scan(SourceId(s), Timestamp(0), Timestamp(i64::MAX), &tags).unwrap() {
            rows.push((p.source.0, p.ts.micros(), p.values.clone()));
        }
    }
    (rows, points, records)
}

#[test]
fn wire_equals_in_process_single_session() {
    let spec = spec();
    let records: Vec<Record> = ObservationGen::new(&spec).collect();
    assert!(records.len() > 100, "workload too small to be meaningful");

    // Arm A: in-process write_batch.
    let direct = fresh_historian(&spec);
    let writer = direct.writer("observation").unwrap();
    writer.write_batch(&records).unwrap();
    direct.sync().unwrap();

    // Arm B: the same records over the wire.
    let wired = fresh_historian(&spec);
    let mut server = NetServer::serve(wired.cluster().clone(), NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), "observation", spec.tags).unwrap();
    for chunk in records.chunks(64) {
        client.send_batch(chunk).unwrap();
    }
    let report = client.finish().unwrap();
    server.shutdown();
    assert_eq!(report.stats.rows_sent, records.len() as u64);
    assert_eq!(report.acked_seq, records.chunks(64).count() as u64, "every frame acked");

    let (rows_a, points_a, recs_a) = fingerprint(&direct, &spec);
    let (rows_b, points_b, recs_b) = fingerprint(&wired, &spec);
    assert_eq!(rows_a.len(), rows_b.len(), "row counts diverge");
    assert_eq!(rows_a, rows_b, "table contents diverge");
    assert_eq!(points_a, points_b, "points_ingested diverges");
    assert_eq!(recs_a, recs_b, "records_ingested diverges");
    assert_eq!(recs_a, records.len() as u64);
}

#[test]
fn wire_equals_in_process_partitioned_sessions() {
    let spec = spec();
    let records: Vec<Record> = ObservationGen::new(&spec).collect();

    let direct = fresh_historian(&spec);
    let writer = direct.writer("observation").unwrap();
    writer.write_batch(&records).unwrap();
    direct.sync().unwrap();

    // Three concurrent sessions, partitioned by source so each source's
    // arrival order is preserved within its session.
    let wired = fresh_historian(&spec);
    let mut server = NetServer::serve(wired.cluster().clone(), NetServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let tags = spec.tags;
    std::thread::scope(|scope| {
        for part in 0..3u64 {
            let mine: Vec<Record> =
                records.iter().filter(|r| r.source.0 % 3 == part).cloned().collect();
            scope.spawn(move || {
                let mut client = NetClient::connect(addr, "observation", tags).unwrap();
                for chunk in mine.chunks(32) {
                    client.send_batch(chunk).unwrap();
                }
                let report = client.finish().unwrap();
                assert_eq!(report.stats.rows_sent, mine.len() as u64);
            });
        }
    });
    server.shutdown();

    let (mut rows_a, points_a, recs_a) = fingerprint(&direct, &spec);
    let (mut rows_b, points_b, recs_b) = fingerprint(&wired, &spec);
    // Scans interleave sources differently per arm only in global order;
    // per-source streams must match exactly, so sort by (source, ts).
    rows_a.sort_by_key(|x| (x.0, x.1));
    rows_b.sort_by_key(|x| (x.0, x.1));
    assert_eq!(rows_a, rows_b, "table contents diverge across sessions");
    assert_eq!((points_a, recs_a), (points_b, recs_b), "counters diverge");
}

/// Like [`fresh_historian`] but with small per-source (IRTS) batches, so
/// a permuted arrival order crosses seal watermarks and exercises the
/// out-of-order side-buffer path on both arms.
fn fresh_ooo_historian(spec: &LdSpec) -> Arc<Historian> {
    let h = Arc::new(Historian::builder().servers(2).durable(true).build().unwrap());
    h.define_schema_type(
        TableConfig::new(ld::observation_schema_type(spec.tags))
            .with_batch_size(16)
            .with_mg_group_size(1000),
    )
    .unwrap();
    for s in 0..spec.sensors {
        h.register_source("observation", SourceId(s), SourceClass::irregular_high()).unwrap();
    }
    h
}

/// Hostile arrival order is still just a transport concern: the same
/// permuted stream over the wire must be byte-identical — contents,
/// ingest counters, and side-buffer routing decisions — to the permuted
/// stream written in-process.
#[test]
fn wire_ooo_frames_equal_in_process_ooo_ingest() {
    let spec = spec();
    let records: Vec<Record> = ObservationGen::new(&spec).collect();
    let n = records.len();
    // Deterministic hostile permutation: stride coprime to n.
    let gcd = |mut a: usize, mut b: usize| {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    };
    let stride = (n / 2 + 1..).find(|&s| gcd(s, n) == 1).unwrap();
    let permuted: Vec<Record> = (0..n).map(|i| records[(i * stride) % n].clone()).collect();

    // The in-process arm writes the same 64-row chunks the wire client
    // frames. Late routing depends only on each source's arrival order,
    // which neither chunking nor the wire changes.
    let direct = fresh_ooo_historian(&spec);
    let writer = direct.writer("observation").unwrap();
    for chunk in permuted.chunks(64) {
        writer.write_batch(chunk).unwrap();
    }
    direct.sync().unwrap();

    let wired = fresh_ooo_historian(&spec);
    let mut server = NetServer::serve(wired.cluster().clone(), NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), "observation", spec.tags).unwrap();
    for chunk in permuted.chunks(64) {
        client.send_batch(chunk).unwrap();
    }
    let report = client.finish().unwrap();
    server.shutdown();
    assert_eq!(report.stats.rows_sent, n as u64);

    // Both arms actually took the side path, and took it for the same
    // rows: a source's watermark moves when its full buffer is taken, so
    // late detection depends on per-source arrival order alone — which
    // the wire preserves — never on when a seal worker runs.
    let side_direct = direct.registry().sum_counter("odh_ooo_side_rows_total");
    let side_wired = wired.registry().sum_counter("odh_ooo_side_rows_total");
    assert!(side_direct > 0, "permutation produced no late arrivals in-process — arm is vacuous");
    assert!(side_wired > 0, "permutation produced no late arrivals over the wire — arm is vacuous");
    assert_eq!(side_direct, side_wired, "wire and in-process ingest route different rows late");

    let (mut rows_a, points_a, recs_a) = fingerprint(&direct, &spec);
    let (mut rows_b, points_b, recs_b) = fingerprint(&wired, &spec);
    rows_a.sort_by_key(|x| (x.0, x.1));
    rows_b.sort_by_key(|x| (x.0, x.1));
    assert_eq!(rows_a, rows_b, "table contents diverge under hostile arrival order");
    assert_eq!((points_a, recs_a), (points_b, recs_b), "counters diverge");
    assert_eq!(recs_a, n as u64);
}

// ------------------------------------------------------------------------
// Kill mid-stream: acked frames survive, unacked frames may be lost.
// ------------------------------------------------------------------------

const POOL_FRAMES: usize = 512;
const ROWS_PER_FRAME: usize = 8;
const SOURCES: u64 = 4;

/// Record `i` of source `s` — unique ts per source, arrival index in
/// value 0 (the crash_recovery order witness).
fn fault_record(s: u64, i: usize) -> Record {
    Record::dense(SourceId(s), Timestamp(i as i64 * 1_000 + 1), [i as f64, s as f64])
}

#[test]
fn kill_mid_stream_keeps_every_acked_frame() {
    let seed: u64 = std::env::var("DURABILITY_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(1);
    let mut saw_trigger = false;
    for trial in 0..3u64 {
        // Let a few hundred log ops succeed, then the WAL device dies.
        let ops_before = 120 + trial * 180;
        let plan = FaultPlan::new(seed.wrapping_add(trial), FaultMode::Kill, ops_before);
        let mem_disk = Arc::new(MemDisk::new());
        let mem_log = Arc::new(MemLog::new());
        let disk = Arc::new(FailDisk::new(mem_disk.clone(), plan.clone()));
        let log = Arc::new(FailWal::new(mem_log.clone(), plan.clone()));
        let meter = ResourceMeter::unmetered();
        let data_server =
            DataServer::with_disk_wal(0, meter.clone(), disk, POOL_FRAMES, log).unwrap();
        let cluster = Cluster::with_servers(vec![Arc::new(data_server)], meter);
        cluster
            .define_schema_type(
                TableConfig::new(SchemaType::new("plant", ["v", "src"])).with_batch_size(8),
            )
            .unwrap();
        for s in 0..SOURCES {
            cluster.register_source("plant", SourceId(s), SourceClass::irregular_high()).unwrap();
        }

        let mut server = NetServer::serve(
            cluster.clone(),
            NetServerConfig { window: 4, ..NetServerConfig::default() },
        )
        .unwrap();
        let mut acked_frames = 0u64;
        let outcome = (|| -> odh_types::Result<u64> {
            let mut client = NetClient::connect(server.local_addr(), "plant", 2)?;
            let mut batch = Vec::with_capacity(ROWS_PER_FRAME);
            for f in 0..200usize {
                batch.clear();
                for r in 0..ROWS_PER_FRAME {
                    let i = f * ROWS_PER_FRAME + r;
                    batch.push(fault_record(i as u64 % SOURCES, i / SOURCES as usize));
                }
                client.send_batch(&batch)?;
                acked_frames = acked_frames.max(client.acked_seq());
            }
            let report = client.finish()?;
            Ok(report.acked_seq)
        })();
        if let Ok(final_acked) = outcome {
            acked_frames = acked_frames.max(final_acked);
        }
        let triggered = plan.triggered();
        server.shutdown();
        drop(cluster); // crash: drop the server, the heap media survive

        // Recover from the surviving media with faults disarmed.
        plan.disarm();
        let recovered = DataServer::open_with_wal(
            0,
            ResourceMeter::unmetered(),
            mem_disk,
            POOL_FRAMES,
            mem_log,
        )
        .unwrap();
        let table = recovered.table("plant").unwrap();
        let mut recovered_rows = 0u64;
        for s in 0..SOURCES {
            let rows: Vec<(i64, f64)> = table
                .historical_scan(SourceId(s), Timestamp(0), Timestamp(i64::MAX), &[0, 1])
                .map(|r| r.into_iter().map(|p| (p.ts.micros(), p.values[0].unwrap())).collect())
                .unwrap_or_default();
            recovered_rows += rows.len() as u64;
            // No duplicates, arrival-order prefix (unique increasing ts).
            for w in rows.windows(2) {
                assert!(w[0].0 < w[1].0, "trial {trial}: source {s} duplicated rows: {w:?}");
            }
            for (k, (ts, v)) in rows.iter().enumerate() {
                let expect = fault_record(s, k);
                assert_eq!(
                    (*ts, *v),
                    (expect.ts.micros(), k as f64),
                    "trial {trial}: source {s} row {k} not the arrival prefix"
                );
            }
        }
        let acked_rows = acked_frames * ROWS_PER_FRAME as u64;
        assert!(
            recovered_rows >= acked_rows,
            "trial {trial}: lost acked rows: {recovered_rows} recovered < {acked_rows} acked"
        );
        saw_trigger |= triggered;
    }
    assert!(saw_trigger, "no trial actually hit the injected fault — fault arm is vacuous");
}
