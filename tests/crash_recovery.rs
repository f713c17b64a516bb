//! Fault-injected crash-recovery: the WAL's durability contract.
//!
//! Each trial ingests a deterministic stream into a WAL-backed server
//! through fault-injecting device wrappers, "crashes" the process by
//! dropping the server (heap-backed media survive through their `Arc`s,
//! exactly like a disk surviving a process kill), recovers with
//! [`DataServer::open_with_wal`], and checks the contract:
//!
//! - **Nothing acknowledged is lost**: every record covered by a
//!   successful `sync()` (or checkpoint) is present after recovery.
//! - **Nothing is duplicated**: each record appears exactly once, even
//!   when replay overlaps a checkpoint.
//! - **Per-source order is preserved**: each source's recovered records
//!   are a prefix of what was sent, in arrival order.
//!
//! The `FlipBit` mode is the exception documented in the WAL design:
//! silent corruption of already-synced bytes can destroy acknowledged
//! frames (no single-copy log survives that); the contract there is that
//! recovery *detects* the corruption, truncates cleanly, and the
//! surviving data still satisfies the no-duplicates / prefix properties.
//!
//! The checkpoint arms put the fault inside a lenient checkpoint — at every
//! log operation of it in turn, segment roll, creation and removal
//! included — and require the same contract.
//!
//! Seeds: `DURABILITY_SEED=<n>` pins one seed (the CI matrix sets this);
//! unset, the default sweep covers seeds 1–4.

use odh_core::server::DataServer;
use odh_pager::disk::MemDisk;
use odh_pager::log::{LogDir, MemLogDir};
use odh_pager::{FailDisk, FailWal, FaultMode, FaultPlan};
use odh_sim::ResourceMeter;
use odh_storage::{CompactReport, DeletePredicate, TableConfig};
use odh_types::{Record, SchemaType, SourceClass, SourceId, Timestamp};
use std::collections::HashMap;
use std::sync::Arc;

const SOURCES: u64 = 8;
const RECORDS: usize = 400;
const SYNC_EVERY: usize = 25;
const POOL_FRAMES: usize = 512;

fn seeds() -> Vec<u64> {
    match std::env::var("DURABILITY_SEED") {
        Ok(s) => vec![s.parse().expect("DURABILITY_SEED must be a u64")],
        Err(_) => vec![1, 2, 3, 4],
    }
}

fn table_cfg() -> TableConfig {
    TableConfig::new(SchemaType::new("plant", ["v", "src"])).with_batch_size(8)
}

/// Record `i` of source `s`: unique timestamp per source, value column 0
/// carries the per-source sequence number (the order witness).
fn record(s: u64, i: usize) -> Record {
    Record::dense(SourceId(s), Timestamp(i as i64 * 1_000 + 1), [i as f64, s as f64])
}

struct Outcome {
    /// Records sent per source (accepted by `put` before the crash).
    sent: HashMap<u64, usize>,
    /// Records per source covered by the last successful sync/checkpoint.
    acked: HashMap<u64, usize>,
    /// Did the trial actually crash mid-stream (fault triggered)?
    triggered: bool,
}

/// Ingest until the fault kills the device (or the stream ends), then
/// drop the server mid-flight.
fn ingest_until_crash(
    disk: Arc<FailDisk>,
    log: Arc<FailWal>,
    plan: &Arc<FaultPlan>,
    checkpoint_at: Option<usize>,
) -> Outcome {
    let server =
        DataServer::with_disk_wal(0, ResourceMeter::unmetered(), disk, POOL_FRAMES, log).unwrap();
    let table = server.create_table(table_cfg()).unwrap();
    let mut sent: HashMap<u64, usize> = HashMap::new();
    let mut acked: HashMap<u64, usize> = HashMap::new();
    for s in 0..SOURCES {
        // Even sources ingest per-source (IRTS); odd ones through the
        // shared Mixed-Grouping buffer — both paths must recover.
        let class =
            if s % 2 == 0 { SourceClass::irregular_high() } else { SourceClass::irregular_low() };
        if table.register_source(SourceId(s), class).is_err() {
            return Outcome { sent, acked, triggered: plan.triggered() };
        }
    }
    for i in 0..RECORDS {
        let s = i as u64 % SOURCES;
        if table.put(&record(s, i / SOURCES as usize)).is_err() {
            return Outcome { sent, acked, triggered: plan.triggered() };
        }
        *sent.entry(s).or_insert(0) += 1;
        let barrier_ok = if Some(i) == checkpoint_at {
            server.checkpoint().is_ok()
        } else if (i + 1) % SYNC_EVERY == 0 {
            server.sync().is_ok()
        } else {
            continue;
        };
        if barrier_ok {
            acked = sent.clone();
        } else {
            return Outcome { sent, acked, triggered: plan.triggered() };
        }
    }
    // Clean end of stream: final barrier, then "crash" anyway.
    if server.sync().is_ok() {
        acked = sent.clone();
    }
    Outcome { sent, acked, triggered: plan.triggered() }
}

/// Counters the recovery path publishes to the observability registry,
/// read back per trial so each injected fault can be matched against
/// what recovery *reported* doing, not just the data it produced.
struct RecoveryMetrics {
    replayed: u64,
    truncated_events: u64,
}

/// Recover from the surviving media and check the durability contract.
/// Returns the recovery counters for fault-specific assertions.
fn verify_recovery(
    disk: Arc<MemDisk>,
    log: Arc<MemLogDir>,
    outcome: &Outcome,
    require_acked: bool,
    checkpointed: bool,
    label: &str,
) -> RecoveryMetrics {
    let meter = ResourceMeter::unmetered();
    let server = DataServer::open_with_wal(0, meter.clone(), disk, POOL_FRAMES, log)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let registry = meter.registry();
    let metrics = RecoveryMetrics {
        replayed: registry.sum_counter("odh_recovery_replayed_records_total"),
        truncated_events: registry.sum_counter("odh_recovery_truncated_tail_events_total"),
    };
    let table = match server.table("plant") {
        Ok(t) => t,
        Err(_) => {
            // The table definition frame itself was lost. Legal only if
            // nothing was ever acknowledged.
            let acked_total: usize = outcome.acked.values().sum();
            assert_eq!(acked_total, 0, "{label}: acked records lost with the table");
            return metrics;
        }
    };
    let mut recovered_total = 0u64;
    for s in 0..SOURCES {
        let sent = outcome.sent.get(&s).copied().unwrap_or(0);
        let acked = outcome.acked.get(&s).copied().unwrap_or(0);
        let rows = table
            .historical_scan(SourceId(s), Timestamp(0), Timestamp(i64::MAX), &[0, 1])
            .map(|r| r.into_iter().map(|p| (p.ts.micros(), p.values[0].unwrap())).collect())
            .unwrap_or_else(|_| Vec::<(i64, f64)>::new());
        recovered_total += rows.len() as u64;
        // No duplicates: timestamps are unique per source, so a strict
        // increase proves each record appears at most once.
        for w in rows.windows(2) {
            assert!(w[0].0 < w[1].0, "{label}: source {s} has duplicate/reordered rows: {w:?}");
        }
        // Prefix of the sent stream, in arrival order.
        assert!(rows.len() <= sent, "{label}: source {s} recovered more than was sent");
        for (k, (ts, v)) in rows.iter().enumerate() {
            let expect = record(s, k);
            assert_eq!(
                (*ts, *v),
                (expect.ts.micros(), k as f64),
                "{label}: source {s} row {k} is not the arrival-order prefix"
            );
        }
        if require_acked {
            assert!(
                rows.len() >= acked,
                "{label}: source {s} lost acknowledged records: {} recovered < {acked} acked",
                rows.len()
            );
        }
    }
    // The recovery counters must account for the data actually produced.
    // Without a checkpoint nothing was flushed to heap pages before the
    // crash, so every recovered row came from WAL replay — the reported
    // replay count is exact. With a checkpoint, the image supplies some
    // rows, so replay can only account for a subset.
    if checkpointed {
        assert!(
            metrics.replayed <= recovered_total,
            "{label}: recovery reported {} replayed records but only {recovered_total} exist",
            metrics.replayed
        );
    } else {
        assert_eq!(
            metrics.replayed, recovered_total,
            "{label}: replayed-record counter disagrees with the recovered row count"
        );
    }
    // The recovered server keeps ingesting and acknowledging.
    let next = outcome.sent.values().copied().max().unwrap_or(0);
    table.put(&record(0, next)).unwrap();
    server.sync().unwrap();
    let rows = table.historical_scan(SourceId(0), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
    assert!(!rows.is_empty(), "{label}: recovered server lost post-recovery writes");
    metrics
}

struct Trial {
    /// Did the injected fault fire before the stream ended? (Callers
    /// assert that a sweep crashed at least once — a sweep whose faults
    /// all land past the end would test nothing.)
    crashed: bool,
    metrics: RecoveryMetrics,
}

fn run_trial(
    seed: u64,
    mode: FaultMode,
    ops_before_fault: u64,
    checkpoint_at: Option<usize>,
) -> Trial {
    let label = format!(
        "seed {seed} mode {mode:?} fault-after {ops_before_fault} checkpoint {checkpoint_at:?}"
    );
    let disk_media = Arc::new(MemDisk::new());
    let log_media = Arc::new(MemLogDir::new());
    let plan = FaultPlan::new(seed, mode, ops_before_fault);
    let disk = Arc::new(FailDisk::new(disk_media.clone(), plan.clone()));
    let log = Arc::new(FailWal::new(log_media.clone(), plan.clone()));
    let outcome = ingest_until_crash(disk, log, &plan, checkpoint_at);
    // Silent corruption may destroy acknowledged bytes — recovery must
    // detect and truncate, but can't resurrect them.
    let require_acked = mode != FaultMode::FlipBit;
    let metrics = verify_recovery(
        disk_media,
        log_media,
        &outcome,
        require_acked,
        checkpoint_at.is_some(),
        &label,
    );
    Trial { crashed: outcome.triggered, metrics }
}

#[test]
fn clean_crash_without_fault_keeps_every_acked_record() {
    for seed in seeds() {
        let disk_media = Arc::new(MemDisk::new());
        let log_media = Arc::new(MemLogDir::new());
        let plan = FaultPlan::benign();
        let disk = Arc::new(FailDisk::new(disk_media.clone(), plan.clone()));
        let log = Arc::new(FailWal::new(log_media.clone(), plan.clone()));
        let outcome = ingest_until_crash(disk, log, &plan, None);
        assert_eq!(outcome.sent.values().sum::<usize>(), RECORDS);
        assert_eq!(outcome.acked, outcome.sent, "final sync acks everything");
        let metrics = verify_recovery(
            disk_media,
            log_media,
            &outcome,
            true,
            false,
            &format!("benign seed {seed}"),
        );
        // A cleanly synced log ends on a frame boundary: recovery must
        // not report a truncated tail it didn't have.
        assert_eq!(metrics.truncated_events, 0, "benign seed {seed}: phantom tail truncation");
        assert_eq!(metrics.replayed, RECORDS as u64, "benign seed {seed}: replay count");
    }
}

#[test]
fn kill_faults_lose_nothing_acknowledged() {
    for seed in seeds() {
        // Spread fault points across setup, early syncs, and the tail.
        let crashed = [3, 20, 60, 150]
            .iter()
            .filter(|&&ops| run_trial(seed, FaultMode::Kill, ops + seed % 7, None).crashed)
            .count();
        assert!(crashed >= 1, "seed {seed}: no Kill fault fired mid-stream");
    }
}

#[test]
fn torn_tail_writes_are_truncated_not_replayed() {
    for seed in seeds() {
        let trials: Vec<Trial> = [5, 25, 70, 140]
            .iter()
            .map(|&ops| run_trial(seed, FaultMode::Torn, ops + seed % 5, None))
            .collect();
        let crashed = trials.iter().filter(|t| t.crashed).count();
        assert!(crashed >= 1, "seed {seed}: no Torn fault fired mid-stream");
        // A torn append leaves a partial frame at the tail; recovery must
        // *report* truncating it, not just quietly survive. At least one
        // crashed trial in the sweep must surface the event.
        let truncations: u64 = trials.iter().map(|t| t.metrics.truncated_events).sum();
        assert!(truncations >= 1, "seed {seed}: torn tails recovered but never reported");
    }
}

#[test]
fn flipped_bits_are_detected_and_truncated() {
    for seed in seeds() {
        let trials: Vec<Trial> = [4, 30, 90]
            .iter()
            .map(|&ops| run_trial(seed, FaultMode::FlipBit, ops + seed % 11, None))
            .collect();
        let crashed = trials.iter().filter(|t| t.crashed).count();
        assert!(crashed >= 1, "seed {seed}: no FlipBit fault fired mid-stream");
        // Detected corruption is reported through the same truncation
        // counter — the sweep must surface at least one event.
        let truncations: u64 = trials.iter().map(|t| t.metrics.truncated_events).sum();
        assert!(truncations >= 1, "seed {seed}: corruption truncated but never reported");
    }
}

#[test]
fn checkpoint_mid_stream_never_duplicates_replayed_rows() {
    for seed in seeds() {
        // Faults landing before, during, and after the mid-stream
        // checkpoint; replay over the checkpoint image must skip exactly
        // the rows the image already holds.
        let mut crashed = 0;
        for ops in [40, 160, 240, 400] {
            crashed += run_trial(seed, FaultMode::Kill, ops + seed % 13, Some(RECORDS / 2)).crashed
                as usize;
            crashed += run_trial(seed, FaultMode::Torn, ops + seed % 13, Some(RECORDS / 2)).crashed
                as usize;
        }
        assert!(crashed >= 1, "seed {seed}: no fault fired around the checkpoint");
    }
}

/// Rows acknowledged by a sync while their seal job was still queued in
/// the off-thread pipeline must survive a crash: the server is dropped
/// with jobs potentially in flight, and WAL replay (guarded by the sealed
/// low-water marks) reconstructs exactly the acked stream — no losses, no
/// duplicates.
#[test]
fn acked_rows_queued_in_seal_pipeline_survive_crash() {
    for seed in seeds() {
        let disk_media = Arc::new(MemDisk::new());
        let log_media = Arc::new(MemLogDir::new());
        let plan = FaultPlan::benign();
        let disk = Arc::new(FailDisk::new(disk_media.clone(), plan.clone()));
        let log = Arc::new(FailWal::new(log_media.clone(), plan.clone()));
        {
            let server =
                DataServer::with_disk_wal(0, ResourceMeter::unmetered(), disk, POOL_FRAMES, log)
                    .unwrap();
            // Tiny batches + a deep queue: many seal jobs are enqueued in
            // quick succession, so the drop below races worker installs.
            let table = server
                .create_table(
                    TableConfig::new(SchemaType::new("plant", ["v", "src"]))
                        .with_batch_size(4)
                        .with_seal_workers(2)
                        .with_seal_queue_depth(64),
                )
                .unwrap();
            for s in 0..SOURCES {
                let class = if s % 2 == 0 {
                    SourceClass::irregular_high()
                } else {
                    SourceClass::irregular_low()
                };
                table.register_source(SourceId(s), class).unwrap();
            }
            for i in 0..(200 + seed as usize % 17) {
                let s = i as u64 % SOURCES;
                table.put(&record(s, i / SOURCES as usize)).unwrap();
            }
            server.sync().unwrap();
            // Crash: drop with seal jobs possibly still queued/in flight.
        }
        let sent = 200 + seed as usize % 17;
        let server = DataServer::open_with_wal(
            0,
            ResourceMeter::unmetered(),
            disk_media.clone(),
            POOL_FRAMES,
            log_media.clone(),
        )
        .unwrap();
        let table = server.table("plant").unwrap();
        let mut total = 0usize;
        for s in 0..SOURCES {
            let rows = table
                .historical_scan(SourceId(s), Timestamp(0), Timestamp(i64::MAX), &[0])
                .unwrap();
            for w in rows.windows(2) {
                assert!(w[0].ts < w[1].ts, "seed {seed}: source {s} duplicated rows");
            }
            total += rows.len();
        }
        assert_eq!(total, sent, "seed {seed}: acked rows lost across seal-queue crash");
    }
}

/// Compaction-heavy table: tiny sealed batches that all qualify as
/// "small" (the merge threshold sits above the batch size), so every
/// manual `compact()` call rewrites generations while faults are armed.
fn compacting_cfg() -> TableConfig {
    table_cfg().with_compact_min_batch(16).with_compact_target_batch(64)
}

/// Like [`ingest_until_crash`], but runs a generational compaction pass
/// every `compact_every` records (between barriers), so injected faults
/// land before, during, and after generation rewrites. A deliberately
/// small pool forces evictions of the fresh generations' pages, pushing
/// compaction's own writes through the fault-injecting disk. Returns the
/// outcome plus the summed reports of the passes that completed before
/// the crash.
fn ingest_with_compaction_until_crash(
    disk: Arc<FailDisk>,
    log: Arc<FailWal>,
    plan: &Arc<FaultPlan>,
    checkpoint_at: Option<usize>,
    compact_every: usize,
) -> (Outcome, CompactReport) {
    let server = DataServer::with_disk_wal(0, ResourceMeter::unmetered(), disk, 64, log).unwrap();
    let mut done = CompactReport::default();
    let mut sent: HashMap<u64, usize> = HashMap::new();
    let mut acked: HashMap<u64, usize> = HashMap::new();
    let table = match server.create_table(compacting_cfg()) {
        Ok(t) => t,
        Err(_) => return (Outcome { sent, acked, triggered: plan.triggered() }, done),
    };
    for s in 0..SOURCES {
        let class =
            if s % 2 == 0 { SourceClass::irregular_high() } else { SourceClass::irregular_low() };
        if table.register_source(SourceId(s), class).is_err() {
            return (Outcome { sent, acked, triggered: plan.triggered() }, done);
        }
    }
    for i in 0..RECORDS {
        let s = i as u64 % SOURCES;
        if table.put(&record(s, i / SOURCES as usize)).is_err() {
            return (Outcome { sent, acked, triggered: plan.triggered() }, done);
        }
        *sent.entry(s).or_insert(0) += 1;
        if (i + 1) % compact_every == 0 {
            match table.compact() {
                Ok(report) => done.absorb(&report),
                // A fault inside the rewrite: crash with the pass half done.
                Err(_) => return (Outcome { sent, acked, triggered: plan.triggered() }, done),
            }
        }
        let barrier_ok = if Some(i) == checkpoint_at {
            server.checkpoint().is_ok()
        } else if (i + 1) % SYNC_EVERY == 0 {
            server.sync().is_ok()
        } else {
            continue;
        };
        if barrier_ok {
            acked = sent.clone();
        } else {
            return (Outcome { sent, acked, triggered: plan.triggered() }, done);
        }
    }
    if server.sync().is_ok() {
        acked = sent.clone();
    }
    (Outcome { sent, acked, triggered: plan.triggered() }, done)
}

fn run_compaction_trial(
    seed: u64,
    mode: FaultMode,
    ops_before_fault: u64,
    checkpoint_at: Option<usize>,
) -> (Trial, CompactReport) {
    let label = format!(
        "seed {seed} mode {mode:?} fault-after {ops_before_fault} \
         checkpoint {checkpoint_at:?} (compacting)"
    );
    let disk_media = Arc::new(MemDisk::new());
    let log_media = Arc::new(MemLogDir::new());
    let plan = FaultPlan::new(seed, mode, ops_before_fault);
    let disk = Arc::new(FailDisk::new(disk_media.clone(), plan.clone()));
    let log = Arc::new(FailWal::new(log_media.clone(), plan.clone()));
    let (outcome, done) = ingest_with_compaction_until_crash(disk, log, &plan, checkpoint_at, 40);
    let metrics =
        verify_recovery(disk_media, log_media, &outcome, true, checkpoint_at.is_some(), &label);
    (Trial { crashed: outcome.triggered, metrics }, done)
}

/// Kill and torn-write faults landing around (and, via the small pool's
/// eviction traffic, inside) generation rewrites and MG drains:
/// compaction must never widen the durability contract. Nothing
/// acknowledged is lost, nothing is duplicated — a half-applied swap
/// would surface as both.
#[test]
fn kill_and_torn_faults_mid_compaction_lose_nothing() {
    for seed in seeds() {
        let mut crashed = 0usize;
        let mut done = CompactReport::default();
        for &ops in &[10, 45, 110, 200, 320] {
            for mode in [FaultMode::Kill, FaultMode::Torn] {
                let (trial, report) = run_compaction_trial(seed, mode, ops + seed % 9, None);
                crashed += trial.crashed as usize;
                done.absorb(&report);
            }
        }
        assert!(crashed >= 1, "seed {seed}: no fault fired mid-stream with compaction running");
        assert!(
            done.merged_batches >= 1,
            "seed {seed}: no trial compacted anything before its fault"
        );
        assert!(
            done.mg_points_moved >= 1,
            "seed {seed}: no trial drained MG rows before its fault"
        );
    }
}

/// The checkpoint interleaving: compaction passes both before and after
/// a mid-stream checkpoint, with faults landing across the whole stream.
/// Replay over the (possibly compacted) checkpoint image must still
/// produce exactly the acked stream.
#[test]
fn compaction_around_checkpoint_never_duplicates_rows() {
    for seed in seeds() {
        let mut crashed = 0usize;
        for &ops in &[60, 180, 300, 450] {
            for mode in [FaultMode::Kill, FaultMode::Torn] {
                let (trial, _) =
                    run_compaction_trial(seed, mode, ops + seed % 13, Some(RECORDS / 2));
                crashed += trial.crashed as usize;
            }
        }
        assert!(crashed >= 1, "seed {seed}: no fault fired around the compacting checkpoint");
    }
}

/// A compacted state that was never checkpointed is a half-written
/// generation from the recovery protocol's point of view: its pages are
/// unreferenced by the last durable checkpoint, so recovery must discard
/// it and rebuild the fragmented pre-compaction state from checkpoint +
/// WAL — exactly, with no trace of the abandoned rewrite.
#[test]
fn uncheckpointed_generation_is_discarded_on_recovery() {
    for seed in seeds() {
        let disk_media = Arc::new(MemDisk::new());
        let log_media = Arc::new(MemLogDir::new());
        let plan = FaultPlan::benign();
        let disk = Arc::new(FailDisk::new(disk_media.clone(), plan.clone()));
        let log = Arc::new(FailWal::new(log_media.clone(), plan.clone()));
        let batches_fragmented;
        let rows_sent = RECORDS + seed as usize % 10;
        {
            let server =
                DataServer::with_disk_wal(0, ResourceMeter::unmetered(), disk, POOL_FRAMES, log)
                    .unwrap();
            let table = server.create_table(compacting_cfg()).unwrap();
            for s in 0..SOURCES {
                table.register_source(SourceId(s), SourceClass::irregular_high()).unwrap();
            }
            for i in 0..rows_sent {
                let s = i as u64 % SOURCES;
                table.put(&record(s, i / SOURCES as usize)).unwrap();
            }
            // The fragmented state becomes the durable truth.
            server.checkpoint().unwrap();
            batches_fragmented = table.total_batches();
            // Rewrite generations in memory, then crash before any
            // checkpoint can commit the swap.
            let report = table.compact().unwrap();
            assert!(report.merged_batches > 0, "seed {seed}: compaction had nothing to merge");
            assert!(table.total_batches() < batches_fragmented);
        }
        let server = DataServer::open_with_wal(
            0,
            ResourceMeter::unmetered(),
            disk_media,
            POOL_FRAMES,
            log_media,
        )
        .unwrap();
        let table = server.table("plant").unwrap();
        assert_eq!(
            table.total_batches(),
            batches_fragmented,
            "seed {seed}: recovery resurrected the uncheckpointed generation"
        );
        let mut total = 0usize;
        for s in 0..SOURCES {
            let rows = table
                .historical_scan(SourceId(s), Timestamp(0), Timestamp(i64::MAX), &[0])
                .unwrap();
            for w in rows.windows(2) {
                assert!(w[0].ts < w[1].ts, "seed {seed}: source {s} duplicated rows");
            }
            total += rows.len();
        }
        assert_eq!(total, rows_sent, "seed {seed}: rows lost across the abandoned compaction");
        // The discarded rewrite must not poison later lifecycle work: a
        // fresh pass on the recovered server merges the same fragments.
        let report = table.compact().unwrap();
        assert!(report.merged_batches > 0, "seed {seed}: recovered table no longer compacts");
        assert!(table.total_batches() < batches_fragmented);
        let mut total_after = 0usize;
        for s in 0..SOURCES {
            total_after += table
                .historical_scan(SourceId(s), Timestamp(0), Timestamp(i64::MAX), &[0])
                .unwrap()
                .len();
        }
        assert_eq!(total_after, rows_sent, "seed {seed}: post-recovery compaction lost rows");
    }
}

/// Predicate deletes interleave with ingest every `DELETE_EVERY` records,
/// each targeting a range of already-sealed per-source indices, so the
/// injected faults land before, during, and after the `KIND_DELETE` WAL
/// appends.
const DELETE_EVERY: usize = 60;

struct DeleteOutcome {
    sent: HashMap<u64, usize>,
    acked: HashMap<u64, usize>,
    /// Time ranges deleted, in issue order.
    deletes_sent: Vec<(i64, i64)>,
    /// Prefix of `deletes_sent` covered by a successful barrier.
    deletes_acked: usize,
    triggered: bool,
}

fn ingest_with_deletes_until_crash(
    disk: Arc<FailDisk>,
    log: Arc<FailWal>,
    plan: &Arc<FaultPlan>,
) -> DeleteOutcome {
    let mut out = DeleteOutcome {
        sent: HashMap::new(),
        acked: HashMap::new(),
        deletes_sent: Vec::new(),
        deletes_acked: 0,
        triggered: false,
    };
    let crash = |mut out: DeleteOutcome, plan: &Arc<FaultPlan>| {
        out.triggered = plan.triggered();
        out
    };
    let server =
        DataServer::with_disk_wal(0, ResourceMeter::unmetered(), disk, POOL_FRAMES, log).unwrap();
    let table = match server.create_table(table_cfg()) {
        Ok(t) => t,
        Err(_) => return crash(out, plan),
    };
    for s in 0..SOURCES {
        let class =
            if s % 2 == 0 { SourceClass::irregular_high() } else { SourceClass::irregular_low() };
        if table.register_source(SourceId(s), class).is_err() {
            return crash(out, plan);
        }
    }
    for i in 0..RECORDS {
        let s = i as u64 % SOURCES;
        if table.put(&record(s, i / SOURCES as usize)).is_err() {
            return crash(out, plan);
        }
        *out.sent.entry(s).or_insert(0) += 1;
        if (i + 1) % DELETE_EVERY == 0 {
            // Delete per-source indices [hi/4, hi/2] — strictly behind the
            // write frontier, so the tombstone's "timeless while active"
            // semantics never mask rows written after it.
            let hi = i / SOURCES as usize;
            let range = (hi as i64 / 4 * 1_000, hi as i64 / 2 * 1_000 + 2);
            if table.delete(&DeletePredicate::all_sources(range.0, range.1)).is_err() {
                return crash(out, plan);
            }
            out.deletes_sent.push(range);
        }
        if (i + 1) % SYNC_EVERY == 0 {
            if server.sync().is_ok() {
                out.acked = out.sent.clone();
                out.deletes_acked = out.deletes_sent.len();
            } else {
                return crash(out, plan);
            }
        }
    }
    if server.sync().is_ok() {
        out.acked = out.sent.clone();
        out.deletes_acked = out.deletes_sent.len();
    }
    crash(out, plan)
}

/// Recover and check the hostile-ingest durability contract for deletes:
/// nothing acked is lost *outside the deleted ranges*, nothing is
/// resurrected *inside an acked deleted range*, nothing is duplicated.
/// An unacked delete may or may not have applied (its frame may not have
/// reached the media), so rows inside a merely-sent range are exempt from
/// the presence requirement but still checked for duplicates.
fn verify_delete_recovery(
    disk: Arc<MemDisk>,
    log: Arc<MemLogDir>,
    outcome: &DeleteOutcome,
    require_acked: bool,
    label: &str,
) {
    let server = DataServer::open_with_wal(0, ResourceMeter::unmetered(), disk, POOL_FRAMES, log)
        .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let table = match server.table("plant") {
        Ok(t) => t,
        Err(_) => {
            let acked_total: usize = outcome.acked.values().sum();
            assert_eq!(acked_total, 0, "{label}: acked records lost with the table");
            return;
        }
    };
    let acked_deleted = |ts: i64| {
        outcome.deletes_sent[..outcome.deletes_acked]
            .iter()
            .any(|&(t1, t2)| (t1..=t2).contains(&ts))
    };
    let sent_deleted =
        |ts: i64| outcome.deletes_sent.iter().any(|&(t1, t2)| (t1..=t2).contains(&ts));
    for s in 0..SOURCES {
        let rows: Vec<(i64, f64)> = table
            .historical_scan(SourceId(s), Timestamp(0), Timestamp(i64::MAX), &[0])
            .map(|r| r.into_iter().map(|p| (p.ts.micros(), p.values[0].unwrap())).collect())
            .unwrap_or_default();
        for w in rows.windows(2) {
            assert!(w[0].0 < w[1].0, "{label}: source {s} duplicate/reordered rows: {w:?}");
        }
        let present: std::collections::HashSet<i64> = rows.iter().map(|&(ts, _)| ts).collect();
        let sent = outcome.sent.get(&s).copied().unwrap_or(0);
        for &(ts, v) in &rows {
            // Every recovered row was actually sent...
            let k = (ts - 1) / 1_000;
            assert!(
                ts == k * 1_000 + 1 && v == k as f64 && (k as usize) < sent,
                "{label}: source {s} recovered a row never sent: ({ts}, {v})"
            );
            // ...and no acked delete is undone by recovery.
            assert!(!acked_deleted(ts), "{label}: source {s} resurrected deleted row at {ts}");
        }
        if require_acked {
            for k in 0..outcome.acked.get(&s).copied().unwrap_or(0) {
                let ts = k as i64 * 1_000 + 1;
                if !sent_deleted(ts) {
                    assert!(present.contains(&ts), "{label}: source {s} lost acked row at {ts}");
                }
            }
        }
    }
    // The recovered server still accepts deletes and writes.
    table.delete(&DeletePredicate::all_sources(0, 1)).unwrap();
    let next = outcome.sent.values().copied().max().unwrap_or(0);
    table.put(&record(0, next + 1)).unwrap();
    server.sync().unwrap();
}

fn run_delete_trial(seed: u64, mode: FaultMode, ops_before_fault: u64) -> DeleteOutcome {
    let label = format!("seed {seed} mode {mode:?} fault-after {ops_before_fault} (deleting)");
    let disk_media = Arc::new(MemDisk::new());
    let log_media = Arc::new(MemLogDir::new());
    let plan = FaultPlan::new(seed, mode, ops_before_fault);
    let disk = Arc::new(FailDisk::new(disk_media.clone(), plan.clone()));
    let log = Arc::new(FailWal::new(log_media.clone(), plan.clone()));
    let outcome = ingest_with_deletes_until_crash(disk, log, &plan);
    verify_delete_recovery(disk_media, log_media, &outcome, true, &label);
    outcome
}

/// Kill and torn-write faults landing around `KIND_DELETE` WAL appends:
/// acked tombstones survive recovery (no resurrected rows), unacked
/// tombstones are atomic (fully applied or fully absent), and the data
/// contract is unchanged.
#[test]
fn kill_and_torn_faults_mid_delete_lose_nothing() {
    for seed in seeds() {
        let mut crashed = 0usize;
        let mut deletes_acked = 0usize;
        for &ops in &[15, 55, 120, 260] {
            for mode in [FaultMode::Kill, FaultMode::Torn] {
                let o = run_delete_trial(seed, mode, ops + seed % 7);
                crashed += o.triggered as usize;
                deletes_acked += o.deletes_acked;
            }
        }
        assert!(crashed >= 1, "seed {seed}: no fault fired mid-stream with deletes running");
        assert!(deletes_acked >= 1, "seed {seed}: no trial acked a delete before its fault");
    }
}

struct SideOutcome {
    /// (ts, value) accepted per source, in arrival order.
    sent: HashMap<u64, Vec<(i64, f64)>>,
    acked: HashMap<u64, Vec<(i64, f64)>>,
    late_acked: usize,
    triggered: bool,
}

/// Ingest where every other per-source index also emits a row 16 indices
/// behind the write frontier — far below the seal watermark, so it takes
/// the side-buffer path (`KIND_LATE_POINT` WAL frames) and periodically
/// fills and seals side batches while faults are armed.
fn ingest_with_late_rows_until_crash(
    disk: Arc<FailDisk>,
    log: Arc<FailWal>,
    plan: &Arc<FaultPlan>,
) -> SideOutcome {
    let mut out = SideOutcome {
        sent: HashMap::new(),
        acked: HashMap::new(),
        late_acked: 0,
        triggered: false,
    };
    let crash = |mut out: SideOutcome, plan: &Arc<FaultPlan>| {
        out.triggered = plan.triggered();
        out
    };
    let server =
        DataServer::with_disk_wal(0, ResourceMeter::unmetered(), disk, POOL_FRAMES, log).unwrap();
    let table = match server.create_table(table_cfg()) {
        Ok(t) => t,
        Err(_) => return crash(out, plan),
    };
    for s in 0..SOURCES {
        // All per-source (IRTS): the side path exists for the ordered
        // structures; MG tolerates disorder natively.
        if table.register_source(SourceId(s), SourceClass::irregular_high()).is_err() {
            return crash(out, plan);
        }
    }
    let mut late_sent = 0usize;
    for i in 0..RECORDS {
        let s = i as u64 % SOURCES;
        let k = i / SOURCES as usize;
        if table.put(&record(s, k)).is_err() {
            return crash(out, plan);
        }
        out.sent.entry(s).or_default().push((k as i64 * 1_000 + 1, k as f64));
        if k >= 16 && k.is_multiple_of(2) {
            let lk = (k - 16) as i64;
            let (ts, v) = (lk * 1_000 + 500, lk as f64 + 0.5);
            if table.put(&Record::dense(SourceId(s), Timestamp(ts), [v, s as f64])).is_err() {
                return crash(out, plan);
            }
            out.sent.entry(s).or_default().push((ts, v));
            late_sent += 1;
        }
        if (i + 1) % SYNC_EVERY == 0 {
            if server.sync().is_ok() {
                out.acked = out.sent.clone();
                out.late_acked = late_sent;
            } else {
                return crash(out, plan);
            }
        }
    }
    if server.sync().is_ok() {
        out.acked = out.sent.clone();
        out.late_acked = late_sent;
    }
    crash(out, plan)
}

fn run_side_buffer_trial(seed: u64, mode: FaultMode, ops_before_fault: u64) -> SideOutcome {
    let label = format!("seed {seed} mode {mode:?} fault-after {ops_before_fault} (side-buffer)");
    let disk_media = Arc::new(MemDisk::new());
    let log_media = Arc::new(MemLogDir::new());
    let plan = FaultPlan::new(seed, mode, ops_before_fault);
    let disk = Arc::new(FailDisk::new(disk_media.clone(), plan.clone()));
    let log = Arc::new(FailWal::new(log_media.clone(), plan.clone()));
    let outcome = ingest_with_late_rows_until_crash(disk, log, &plan);
    // Recover and check: acked ⊆ recovered ⊆ sent, per source, no dupes.
    let server = DataServer::open_with_wal(
        0,
        ResourceMeter::unmetered(),
        disk_media,
        POOL_FRAMES,
        log_media,
    )
    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
    let table = match server.table("plant") {
        Ok(t) => t,
        Err(_) => {
            let acked_total: usize = outcome.acked.values().map(|v| v.len()).sum();
            assert_eq!(acked_total, 0, "{label}: acked records lost with the table");
            return outcome;
        }
    };
    for s in 0..SOURCES {
        let rows: Vec<(i64, f64)> = table
            .historical_scan(SourceId(s), Timestamp(0), Timestamp(i64::MAX), &[0])
            .map(|r| r.into_iter().map(|p| (p.ts.micros(), p.values[0].unwrap())).collect())
            .unwrap_or_default();
        for w in rows.windows(2) {
            assert!(w[0].0 < w[1].0, "{label}: source {s} duplicate/reordered rows: {w:?}");
        }
        let sent: HashMap<i64, f64> =
            outcome.sent.get(&s).map(|v| v.iter().copied().collect()).unwrap_or_default();
        let present: std::collections::HashSet<i64> = rows.iter().map(|&(ts, _)| ts).collect();
        for &(ts, v) in &rows {
            assert_eq!(
                sent.get(&ts),
                Some(&v),
                "{label}: source {s} recovered a row never sent: ({ts}, {v})"
            );
        }
        for &(ts, _) in outcome.acked.get(&s).map(|v| v.as_slice()).unwrap_or_default() {
            assert!(present.contains(&ts), "{label}: source {s} lost acked row at {ts}");
        }
    }
    outcome
}

/// Kill and torn-write faults landing around `KIND_LATE_POINT` appends
/// and side-buffer seals: acknowledged late arrivals survive recovery in
/// the correct time order, with no duplicates from replay re-routing.
#[test]
fn kill_and_torn_faults_mid_side_buffer_seal_lose_nothing() {
    for seed in seeds() {
        let mut crashed = 0usize;
        let mut late_acked = 0usize;
        for &ops in &[20, 70, 150, 300] {
            for mode in [FaultMode::Kill, FaultMode::Torn] {
                let o = run_side_buffer_trial(seed, mode, ops + seed % 7);
                crashed += o.triggered as usize;
                late_acked += o.late_acked;
            }
        }
        assert!(crashed >= 1, "seed {seed}: no fault fired mid-stream with late arrivals");
        assert!(late_acked >= 1, "seed {seed}: no trial acked a late arrival before its fault");
    }
}

/// A crash inside a lenient checkpoint, after its image is durable, must
/// not cost the rows still in open buffers: their frames are the only copy
/// of them. Five acked rows sit in an open buffer (batch size 8). The
/// checkpoint's log operation 0 is its leading sync (the stripes are
/// already flushed); the image is written and made durable before
/// operation 1. The log device dies on operation 1, then — one trial each
/// — on every later one until the checkpoint finishes before the fault.
/// Every trial must recover all five rows.
#[test]
fn checkpoint_keeps_open_rows_when_the_log_dies_after_the_image() {
    for seed in seeds() {
        for step in 1.. {
            let label = format!("seed {seed} log op {step}");
            let disk_media = Arc::new(MemDisk::new());
            let log_media = Arc::new(MemLogDir::new());
            let plan = FaultPlan::new(seed, FaultMode::Kill, u64::MAX);
            let log = Arc::new(FailWal::new(log_media.clone(), plan.clone()));
            {
                let server = DataServer::with_disk_wal(
                    0,
                    ResourceMeter::unmetered(),
                    disk_media.clone(),
                    POOL_FRAMES,
                    log,
                )
                .unwrap();
                let table = server.create_table(table_cfg()).unwrap();
                table.register_source(SourceId(0), SourceClass::irregular_high()).unwrap();
                for k in 0..5 {
                    table.put(&record(0, k)).unwrap();
                }
                server.sync().unwrap();
                plan.arm(step);
                let died = server.checkpoint().is_err();
                assert_eq!(died, plan.triggered(), "{label}: checkpoint result vs fault");
            }
            // The image is durable: the table comes back from the disk alone.
            let image =
                DataServer::open(0, ResourceMeter::unmetered(), disk_media.clone(), POOL_FRAMES)
                    .unwrap();
            assert!(image.table("plant").is_ok(), "{label}: the checkpoint image is missing");
            drop(image);
            let server = DataServer::open_with_wal(
                0,
                ResourceMeter::unmetered(),
                disk_media,
                POOL_FRAMES,
                log_media,
            )
            .unwrap();
            let rows = server
                .table("plant")
                .unwrap()
                .historical_scan(SourceId(0), Timestamp(0), Timestamp(i64::MAX), &[0])
                .unwrap();
            assert_eq!(rows.len(), 5, "{label}: {} of 5 acked rows recovered", rows.len());
            if !plan.triggered() {
                assert!(step > 1, "seed {seed}: the checkpoint did no log op after its image");
                break;
            }
        }
    }
}

/// Where the checkpoint sweep's target checkpoint stands in the log.
struct CheckpointRun {
    outcome: Outcome,
    /// Log operations the target checkpoint performed (or reached).
    steps: u64,
    /// Segment ids before and after the target checkpoint.
    segments: (Vec<u64>, Vec<u64>),
}

/// Two checkpoints over a stream that keeps rows in open buffers. The
/// first keeps the segment holding them; by the second (the target) they
/// have sealed, so it rolls a segment and drops the first. The target is
/// preceded by unsynced rows, so its leading sync appends too. With
/// `fault_at`, the plan is armed right before the target so that its
/// `fault_at`-th log operation fails. Sealing runs inline, so every run
/// of one seed performs the same log operations in the same order.
fn ingest_and_checkpoint(
    seed: u64,
    disk: Arc<MemDisk>,
    log_media: &Arc<MemLogDir>,
    plan: &Arc<FaultPlan>,
    fault_at: Option<u64>,
) -> CheckpointRun {
    let log = Arc::new(FailWal::new(log_media.clone(), plan.clone()));
    let server =
        DataServer::with_disk_wal(0, ResourceMeter::unmetered(), disk, POOL_FRAMES, log).unwrap();
    let table = server.create_table(table_cfg().with_seal_workers(0)).unwrap();
    for s in 0..SOURCES {
        let class =
            if s % 2 == 0 { SourceClass::irregular_high() } else { SourceClass::irregular_low() };
        table.register_source(SourceId(s), class).unwrap();
    }
    let mut sent: HashMap<u64, usize> = HashMap::new();
    let put = |from: usize, to: usize, sent: &mut HashMap<u64, usize>| {
        for i in from..to {
            let s = i as u64 % SOURCES;
            table.put(&record(s, i / SOURCES as usize)).unwrap();
            *sent.entry(s).or_insert(0) += 1;
        }
    };
    // Three rows per source stay open at the first checkpoint; they seal
    // before the target, where another five per source are open.
    let first = SOURCES as usize * (8 * (2 + seed as usize % 3) + 3);
    put(0, first, &mut sent);
    server.checkpoint().unwrap();
    let synced = first + SOURCES as usize * 6;
    put(first, synced, &mut sent);
    server.sync().unwrap();
    let mut acked = sent.clone();
    put(synced, synced + SOURCES as usize * 4, &mut sent);
    let before_ids = log_media.list().unwrap();
    let before_ops = plan.ops();
    if let Some(k) = fault_at {
        plan.arm(k);
    }
    if server.checkpoint().is_ok() {
        acked = sent.clone();
    }
    let steps = plan.ops() - before_ops;
    let after_ids = log_media.list().unwrap();
    CheckpointRun {
        outcome: Outcome { sent, acked, triggered: plan.triggered() },
        steps,
        segments: (before_ids, after_ids),
    }
}

/// A fault at every log operation of a lenient checkpoint — the stripe
/// flushes and fsync of its leading sync, the roll's fsync and segment
/// creation, and each segment removal — in `Kill` and `Torn` mode: no
/// synced row is lost and none replays twice.
#[test]
fn faults_at_every_checkpoint_log_step_lose_nothing() {
    for seed in seeds() {
        // Benign run: count the target checkpoint's log operations.
        let log_media = Arc::new(MemLogDir::new());
        let plan = FaultPlan::new(seed, FaultMode::Kill, u64::MAX);
        let clean = ingest_and_checkpoint(seed, Arc::new(MemDisk::new()), &log_media, &plan, None);
        let (before, after) = &clean.segments;
        assert!(
            after.iter().any(|id| !before.contains(id)),
            "seed {seed}: the checkpoint created no segment"
        );
        assert!(
            before.iter().any(|id| !after.contains(id)),
            "seed {seed}: the checkpoint removed no segment ({before:?} → {after:?})"
        );
        assert!(clean.steps >= 4, "seed {seed}: only {} checkpoint log ops", clean.steps);

        for step in 0..clean.steps {
            for mode in [FaultMode::Kill, FaultMode::Torn] {
                let label = format!("seed {seed} mode {mode:?} checkpoint log op {step}");
                let disk_media = Arc::new(MemDisk::new());
                let log_media = Arc::new(MemLogDir::new());
                let plan = FaultPlan::new(seed, mode, u64::MAX);
                let run =
                    ingest_and_checkpoint(seed, disk_media.clone(), &log_media, &plan, Some(step));
                assert!(run.outcome.triggered, "{label}: the fault never fired");
                assert_eq!(run.steps, step + 1, "{label}: the checkpoint went on after the fault");
                plan.disarm();
                verify_recovery(disk_media, log_media, &run.outcome, true, true, &label);
            }
        }
    }
}

/// `flush` is a deterministic pipeline barrier: once it returns, no rows
/// remain buffered or queued, and a strict snapshot succeeds immediately.
#[test]
fn flush_drains_the_seal_queue_deterministically() {
    let disk = Arc::new(MemDisk::new());
    let pool = odh_pager::pool::BufferPool::new(disk, POOL_FRAMES);
    let table = Arc::new(
        odh_storage::OdhTable::create(
            pool,
            ResourceMeter::unmetered(),
            TableConfig::new(SchemaType::new("plant", ["v", "src"]))
                .with_batch_size(4)
                .with_seal_workers(2)
                .with_seal_queue_depth(64)
                .with_strict_snapshot(true),
        )
        .unwrap(),
    );
    table.start_seal_pipeline();
    table.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
    for round in 0..20 {
        for i in 0..37 {
            table.put(&record(1, round * 37 + i)).unwrap();
        }
        table.flush().unwrap();
        assert_eq!(table.buffered_points(), 0, "round {round}: rows left buffered");
        assert_eq!(table.min_open_lsn(), None, "round {round}: rows left queued");
        table.snapshot().unwrap_or_else(|e| panic!("round {round}: strict snapshot failed: {e}"));
    }
    let rows = table.historical_scan(SourceId(1), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
    assert_eq!(rows.len(), 20 * 37);
}
