//! Generational compaction and tiered storage.
//!
//! Sealed batches are immutable, so slow sources accumulate *many small*
//! batches (a seal on flush, a trickle source that never fills
//! `batch_size`, a reorg chunk cut at a group boundary). Every one of them
//! costs a B-tree descent, a heap read, a decode-cache slot and a
//! summary-layer consult per query. The compactor fixes that the way the
//! IOx chunk lifecycle does: it periodically rewrites each generation —
//! runs of small per-source batches are merged into large batches
//! (re-running the variability-aware codec choice over the bigger window
//! and regenerating the per-tag [`crate::batch::TagSummary`] blocks, so
//! aggregate/bucket pushdown *improves*, not just survives), old batches
//! are demoted to a cold tier, and expired batches are dropped whole —
//! then atomically swaps the fresh generations in.
//!
//! ## Concurrency
//!
//! A pass runs in two phases so ingest never stalls behind re-encoding:
//!
//! * **Phase A** (no locks held): clone the generation `Arc`s, read every
//!   batch, build fully-populated replacement containers, remembering the
//!   set of rids consumed. Concurrent seals keep landing in the *old*
//!   generations (their inserts run under the generation read lock).
//! * **Phase B** (write locks, one generation at a time): copy the
//!   latecomer batches — rids present now but not consumed in phase A —
//!   raw into the replacement, then swap the `Arc`. A single
//!   [`crate::table::SealSync`] ticket is held across *all* swaps, so a
//!   composite read that overlaps the pass retries and can never see a
//!   batch in both its old and new generation, or in neither.
//!
//! Passes are serialized with each other *and with checkpoints* by
//! `compact_lock`: a table snapshot must not capture one generation
//! pre-swap and another post-swap. Decode-cache entries of the replaced
//! containers are invalidated last (container ids are process-unique, so
//! in-flight reads holding old `Arc`s stay coherent).
//!
//! ## Crash consistency
//!
//! Compaction writes only *new* pages (the pager never frees disk pages;
//! only buffer-pool frames are recycled), so the page lists captured by
//! the last checkpoint stay valid on disk throughout. A crash
//! mid-compaction recovers from that checkpoint plus the WAL tail exactly
//! as if the pass had never started; the half-written replacement
//! generation is simply unreferenced pages. The swap becomes durable at
//! the *next* checkpoint — the atomic commit point — and the WAL
//! sealed-LSN maps are untouched (compaction moves sealed data, it never
//! acknowledges new rows).
//!
//! ## Tiering and retention
//!
//! Batches whose newest point is older than [`TableConfig::with_cold_after`]
//! are demoted into a separate cold generation. Cold reads go through the
//! pager like any other batch but *bypass the decode cache entirely* (no
//! probe, no admit) — that asymmetry is the tier boundary: a scan of
//! ancient history cannot evict the working set. With
//! [`TableConfig::with_retention_ttl`], batches entirely older than
//! `max_ts − ttl` are dropped during the pass without decoding — before
//! the summary layer is ever consulted — and reads clamp their lower bound
//! to the retention floor so a query can never see a half-dropped window.
//!
//! ## Tombstone resolution
//!
//! Compaction is also where predicate deletes ([`crate::delete`]) become
//! physical. The pass snapshots the tombstone list up front; every hot
//! batch the list could touch is forced through the merge path regardless
//! of size, and masked rows are filtered out as the batch decodes (cold
//! batches are rewritten in place the same way). Afterwards — under the
//! same phase-B ticket as the swaps — a snapshot tombstone is *retired*
//! when no unrewritten copy of its rows can remain: no latecomer batch
//! copied raw overlaps it, no rows sit in open/side buffers or queued
//! seal jobs, and the MG generation (which this pass never rewrites —
//! [`OdhTable::reorganize`] owns it) provably holds none of its sources.
//! Tombstones installed mid-pass are kept verbatim.
//!
//! [`TableConfig::with_cold_after`]: crate::table::TableConfig::with_cold_after
//! [`TableConfig::with_retention_ttl`]: crate::table::TableConfig::with_retention_ttl

use crate::batch::{summarize_columns, Batch, IrtsBatch, RtsBatch};
use crate::blob::ValueBlob;
use crate::container::Container;
use crate::delete::{masks_batch, masks_row, Tombstone};
use crate::reorg::{is_regular_run, sort_by_ts};
use crate::select::Structure;
use crate::table::OdhTable;
use odh_types::{Result, SourceId};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Small input batches that were merged into larger ones.
    pub merged_batches: u64,
    /// Merged output batches produced from those inputs.
    pub produced_batches: u64,
    /// Batches copied between generations without re-encoding.
    pub copied_batches: u64,
    /// Batches dropped whole by TTL retention (never decoded).
    pub expired_batches: u64,
    /// Batches demoted to the cold tier this pass.
    pub demoted_batches: u64,
    /// Rows physically dropped while resolving tombstones.
    pub tombstone_rows_resolved: u64,
    /// Tombstones retired as fully resolved this pass.
    pub tombstones_retired: u64,
    /// Source registry records reclaimed because the source's whole
    /// history expired (see [`OdhTable::prune_expired_sources`]).
    pub pruned_sources: u64,
    /// Hot + cold batch count before / after the pass.
    pub batches_before: u64,
    pub batches_after: u64,
}

impl CompactReport {
    /// Did the pass change anything worth reporting?
    pub fn changed(&self) -> bool {
        self.merged_batches > 0
            || self.expired_batches > 0
            || self.demoted_batches > 0
            || self.tombstone_rows_resolved > 0
            || self.tombstones_retired > 0
            || self.pruned_sources > 0
    }

    /// Fold another table's (or server's) report into this one.
    pub fn absorb(&mut self, o: &CompactReport) {
        self.merged_batches += o.merged_batches;
        self.produced_batches += o.produced_batches;
        self.copied_batches += o.copied_batches;
        self.expired_batches += o.expired_batches;
        self.demoted_batches += o.demoted_batches;
        self.tombstone_rows_resolved += o.tombstone_rows_resolved;
        self.tombstones_retired += o.tombstones_retired;
        self.pruned_sources += o.pruned_sources;
        self.batches_before += o.batches_before;
        self.batches_after += o.batches_after;
    }
}

/// One source's batches staged for rewriting.
struct SourceRun {
    ts: Vec<i64>,
    cols: Vec<Vec<Option<f64>>>,
    input_batches: u64,
}

impl OdhTable {
    /// Run one full compaction pass over the per-source generations.
    ///
    /// Safe to call concurrently with ingest, scans, reorg and
    /// checkpoints; passes themselves are serialized. MG batches are not
    /// touched — [`OdhTable::reorganize`] owns that migration.
    pub fn compact(&self) -> Result<CompactReport> {
        let _serial = self.compact_lock.lock();
        let _span = self.obs.registry.span("compact", &self.obs.compact);
        let mut report = CompactReport::default();

        let floor = self.retention_floor();
        let cold_floor = self.cold_floor();
        let tag_count = self.schema().tag_count();
        let all_tags: Vec<usize> = (0..tag_count).collect();
        let policy = self.config().policy;
        let min_rows = self.config().compact_min_rows();
        let target_rows = self.config().compact_target_rows();
        // Snapshot the tombstone list: this pass resolves exactly these.
        // Deletes issued mid-pass stay installed and mask at read time;
        // the next pass resolves them.
        let tombs = self.tombstones();

        // ---- Phase A: build replacements without blocking ingest. ----
        let old_rts = self.rts.read().clone();
        let old_irts = self.irts.read().clone();
        let old_cold = self.cold.read().clone();
        report.batches_before =
            old_rts.record_count() + old_irts.record_count() + old_cold.record_count();

        let fresh_rts = Arc::new(Container::create(self.pool().clone(), Structure::Rts)?);
        let fresh_irts = Arc::new(Container::create(self.pool().clone(), Structure::Irts)?);
        // Cold holds RTS and IRTS records side by side (batches
        // self-describe); the structure tag is nominal.
        let fresh_cold = Arc::new(Container::create(self.pool().clone(), Structure::Irts)?);

        // Consume both hot generations, remembering which rids we saw so
        // phase B can find latecomers sealed during this phase.
        let mut seen_rts: HashSet<u64> = HashSet::new();
        let mut seen_irts: HashSet<u64> = HashSet::new();
        let mut per_source: BTreeMap<u64, Vec<Batch>> = BTreeMap::new();
        for (old, seen) in [(&old_rts, &mut seen_rts), (&old_irts, &mut seen_irts)] {
            for rid in old.all_rids()? {
                seen.insert(rid);
                let b = old.get_batch(rid)?;
                let Some(src) = b.source() else { continue };
                per_source.entry(src.0).or_default().push(b);
            }
        }

        // Cold batches are already compact: copy forward, dropping the
        // expired and rewriting the tombstoned without their masked rows.
        // Only the compactor writes cold (passes are serialized by
        // compact_lock), so cold has no latecomers to chase.
        for b in old_cold.scan_all()? {
            let (begin, end) = b.time_range();
            if floor.is_some_and(|f| end < f) {
                report.expired_batches += 1;
                continue;
            }
            if masks_batch(&tombs, b.source(), begin, end) {
                self.rewrite_cold(&b, &tombs, policy, &fresh_cold, &mut report)?;
                continue;
            }
            self.insert_raw(&fresh_cold, &b)?;
            report.copied_batches += 1;
        }

        for (src, mut batches) in per_source {
            batches.sort_by_key(|b| b.time_range().0);
            let interval = self.source_class(SourceId(src)).and_then(|c| c.interval());
            let mut run: Option<SourceRun> = None;
            for b in batches {
                let (begin, end) = b.time_range();
                // Retention first: an expired batch is dropped whole,
                // without decoding — the summary layer never sees it.
                if floor.is_some_and(|f| end < f) {
                    report.expired_batches += 1;
                    continue;
                }
                // A batch a tombstone could touch is forced through the
                // merge path whatever its size: decoding is the only way
                // to drop exactly the masked rows.
                let doomed = masks_batch(&tombs, b.source(), begin, end);
                if b.n_points() < min_rows || doomed {
                    // Small batch: stage it for merging.
                    let r = run.get_or_insert_with(|| SourceRun {
                        ts: Vec::new(),
                        cols: vec![Vec::new(); tag_count],
                        input_batches: 0,
                    });
                    let ts = b.timestamps();
                    let cols = b.blob().decode_tags(&ts, &all_tags)?;
                    if doomed {
                        for (row, &t) in ts.iter().enumerate() {
                            if masks_row(&tombs, SourceId(src), t) {
                                report.tombstone_rows_resolved += 1;
                                continue;
                            }
                            r.ts.push(t);
                            for (acc, col) in r.cols.iter_mut().zip(&cols) {
                                acc.push(col[row]);
                            }
                        }
                    } else {
                        r.ts.extend_from_slice(&ts);
                        for (acc, col) in r.cols.iter_mut().zip(&cols) {
                            acc.extend_from_slice(col);
                        }
                    }
                    r.input_batches += 1;
                    if r.ts.len() >= target_rows {
                        let r = run.take().unwrap();
                        self.flush_run(
                            src,
                            r,
                            interval,
                            target_rows,
                            policy,
                            cold_floor,
                            &fresh_rts,
                            &fresh_irts,
                            &fresh_cold,
                            &mut report,
                        )?;
                    }
                } else {
                    // Large batch: flush any pending run, then copy raw
                    // (possibly demoting) — no re-encode.
                    if let Some(r) = run.take() {
                        self.flush_run(
                            src,
                            r,
                            interval,
                            target_rows,
                            policy,
                            cold_floor,
                            &fresh_rts,
                            &fresh_irts,
                            &fresh_cold,
                            &mut report,
                        )?;
                    }
                    self.route_raw(
                        &b,
                        cold_floor,
                        &fresh_rts,
                        &fresh_irts,
                        &fresh_cold,
                        &mut report,
                    )?;
                }
            }
            if let Some(r) = run.take() {
                self.flush_run(
                    src,
                    r,
                    interval,
                    target_rows,
                    policy,
                    cold_floor,
                    &fresh_rts,
                    &fresh_irts,
                    &fresh_cold,
                    &mut report,
                )?;
            }
        }
        // Account the codec columns the merge re-encoded.
        self.note_codec_counts();

        // ---- Phase B: latecomer copy + atomic swaps. ----
        // One seqlock ticket across every swap: an overlapping composite
        // read retries, so it can never observe a batch in both its old
        // and new generation, or in neither.
        let mut latecomer_spans: Vec<(Option<SourceId>, i64, i64)> = Vec::new();
        {
            let _ticket = self.seals.begin();
            for (slot, fresh, seen) in
                [(&self.rts, &fresh_rts, &seen_rts), (&self.irts, &fresh_irts, &seen_irts)]
            {
                let mut g = slot.write();
                // Batches sealed since phase A: present now, not consumed
                // then. The write lock excludes further inserts (sealing
                // holds the read lock), so this diff is exact.
                for rid in g.all_rids()? {
                    if !seen.contains(&rid) {
                        let b = g.get_batch(rid)?;
                        let (begin, end) = b.time_range();
                        latecomer_spans.push((b.source(), begin, end));
                        self.insert_raw(fresh, &b)?;
                    }
                }
                *g = fresh.clone();
            }
            let mut g = self.cold.write();
            *g = fresh_cold.clone();
            drop(g);
            report.tombstones_retired = self.retire_resolved(&tombs, &latecomer_spans);
        }
        // Retired generations are unreachable; give their decode-cache
        // budget back to live batches. Done last: in-flight reads holding
        // the old `Arc`s stay coherent until they finish. Cold batches
        // are never cached, so old_cold has nothing to invalidate.
        self.decode_cache().invalidate_container(old_rts.id());
        self.decode_cache().invalidate_container(old_irts.id());

        // With expired batches gone, sources whose whole history fell
        // behind the retention floor no longer need registry records.
        report.pruned_sources = self.prune_expired_sources();
        self.refresh_memory_gauges();

        report.batches_after =
            fresh_rts.record_count() + fresh_irts.record_count() + fresh_cold.record_count();
        self.obs.cold_batches.set(fresh_cold.record_count() as i64);
        self.obs.compact_runs.inc();
        self.obs.compact_merged.add(report.merged_batches);
        self.obs.compact_expired.add(report.expired_batches);
        self.obs.compact_demoted.add(report.demoted_batches);
        self.stats.tombstone_resolved_rows.add(report.tombstone_rows_resolved);
        self.stats.tombstones_retired.add(report.tombstones_retired);
        Ok(report)
    }

    /// Rewrite one tombstone-overlapped cold batch without its masked
    /// rows (dropped whole if nothing survives). Cold is out of the
    /// summary fast path anyway, so the rewrite re-encodes as IRTS
    /// without consulting the source class.
    fn rewrite_cold(
        &self,
        b: &Batch,
        tombs: &[Tombstone],
        policy: odh_compress::column::Policy,
        fresh_cold: &Container,
        report: &mut CompactReport,
    ) -> Result<()> {
        let src = b.source().expect("cold holds only per-source batches");
        let all_tags: Vec<usize> = (0..self.schema().tag_count()).collect();
        let ts = b.timestamps();
        let cols = b.blob().decode_tags(&ts, &all_tags)?;
        let mut keep_ts: Vec<i64> = Vec::with_capacity(ts.len());
        let mut keep_cols: Vec<Vec<Option<f64>>> = vec![Vec::new(); cols.len()];
        for (row, &t) in ts.iter().enumerate() {
            if masks_row(tombs, src, t) {
                report.tombstone_rows_resolved += 1;
                continue;
            }
            keep_ts.push(t);
            for (acc, col) in keep_cols.iter_mut().zip(&cols) {
                acc.push(col[row]);
            }
        }
        if keep_ts.is_empty() {
            return Ok(());
        }
        let blob = ValueBlob::encode(&keep_ts, &keep_cols, policy);
        let batch = Batch::Irts(IrtsBatch {
            source: src,
            begin: keep_ts[0],
            end: *keep_ts.last().unwrap(),
            timestamps: keep_ts,
            blob,
            summaries: Some(summarize_columns(&keep_cols)),
        });
        self.insert_raw(fresh_cold, &batch)?;
        report.produced_batches += 1;
        report.merged_batches += 1;
        Ok(())
    }

    /// Retire the snapshot tombstones this pass fully resolved. Runs under
    /// the phase-B ticket, after the swaps: the fresh generations hold no
    /// masked rows, so a tombstone is still needed only if matching rows
    /// might survive somewhere the pass did not rewrite — a latecomer
    /// batch copied raw, an open/side ingest buffer, a queued seal job, or
    /// the MG generation (never touched here; reorganize owns it).
    fn retire_resolved(
        &self,
        tombs: &[Tombstone],
        latecomer_spans: &[(Option<SourceId>, i64, i64)],
    ) -> u64 {
        if tombs.is_empty() {
            return 0;
        }
        let mg_rows = self.mg.read().record_count();
        let buffered = self.buffered_points();
        let queued = self.seal_queue_depth();
        self.retire_tombstones(|t| {
            // Installed mid-pass: keep verbatim, next pass resolves it.
            if !tombs.contains(t) {
                return true;
            }
            let mg_safe = mg_rows == 0
                || t.pred.sources.as_ref().is_some_and(|list| {
                    list.iter().all(|s| {
                        !self.registry.meta(s.0).is_some_and(|m| m.ingest == Structure::Mg)
                    })
                });
            let latecomer_clear = !latecomer_spans
                .iter()
                .any(|&(src, begin, end)| t.pred.overlaps_batch(src, begin, end));
            let resolved = buffered == 0 && queued == 0 && mg_safe && latecomer_clear;
            !resolved
        })
    }

    /// Newest-point cutoff below which a batch is demoted to cold.
    fn cold_floor(&self) -> Option<i64> {
        let after = self.config().cold_after_us;
        if after <= 0 {
            return None;
        }
        let max = self.stats.max_ts.load(std::sync::atomic::Ordering::Relaxed);
        (max != i64::MIN).then(|| max.saturating_sub(after))
    }

    fn insert_raw(&self, dst: &Container, b: &Batch) -> Result<()> {
        let (begin, end) = b.time_range();
        self.charge_batch_write(dst);
        dst.insert(&b.key(), &b.serialize(), end - begin)
    }

    /// Copy an already-large batch into the matching fresh generation,
    /// demoting it if its newest point fell behind the cold floor.
    fn route_raw(
        &self,
        b: &Batch,
        cold_floor: Option<i64>,
        fresh_rts: &Container,
        fresh_irts: &Container,
        fresh_cold: &Container,
        report: &mut CompactReport,
    ) -> Result<()> {
        let (_, end) = b.time_range();
        let dst = if cold_floor.is_some_and(|f| end < f) {
            report.demoted_batches += 1;
            fresh_cold
        } else {
            match b {
                Batch::Rts(_) => fresh_rts,
                _ => fresh_irts,
            }
        };
        report.copied_batches += 1;
        self.insert_raw(dst, b)
    }

    /// Re-encode one source's accumulated small-batch run as large
    /// batches: sort, chunk at the target size, re-pick the codec per
    /// chunk, regenerate summaries, and route each chunk hot or cold.
    #[allow(clippy::too_many_arguments)]
    fn flush_run(
        &self,
        src: u64,
        mut run: SourceRun,
        interval: Option<odh_types::Duration>,
        target_rows: usize,
        policy: odh_compress::column::Policy,
        cold_floor: Option<i64>,
        fresh_rts: &Container,
        fresh_irts: &Container,
        fresh_cold: &Container,
        report: &mut CompactReport,
    ) -> Result<()> {
        sort_by_ts(&mut run.ts, &mut run.cols);
        let n = run.ts.len();
        let mut start = 0usize;
        while start < n {
            let end = (start + target_rows).min(n);
            let chunk_ts = &run.ts[start..end];
            let chunk_cols: Vec<Vec<Option<f64>>> =
                run.cols.iter().map(|c| c[start..end].to_vec()).collect();
            let blob = ValueBlob::encode(chunk_ts, &chunk_cols, policy);
            let summaries = Some(summarize_columns(&chunk_cols));
            // Re-run the structure choice over the merged window: a run
            // that looked irregular batch-by-batch (each seal cut at a
            // gap) may be one regular stride end to end, and vice versa.
            let batch = match interval {
                Some(iv) if is_regular_run(chunk_ts, iv.micros()) => Batch::Rts(RtsBatch {
                    source: SourceId(src),
                    begin: chunk_ts[0],
                    interval: iv.micros(),
                    count: chunk_ts.len() as u32,
                    blob,
                    summaries,
                }),
                _ => Batch::Irts(IrtsBatch {
                    source: SourceId(src),
                    begin: chunk_ts[0],
                    end: *chunk_ts.last().unwrap(),
                    timestamps: chunk_ts.to_vec(),
                    blob,
                    summaries,
                }),
            };
            self.route_raw(&batch, cold_floor, fresh_rts, fresh_irts, fresh_cold, report)?;
            // route_raw counts it as copied; it is really a merge product.
            report.copied_batches -= 1;
            report.produced_batches += 1;
            start = end;
        }
        report.merged_batches += run.input_batches;
        Ok(())
    }

    /// Start the background compaction worker, if
    /// [`crate::table::TableConfig::with_compact_interval_ms`] asked for
    /// one. Idempotent; a no-op when the interval is 0 (manual
    /// compaction via [`OdhTable::compact`] only).
    pub fn start_compactor(self: &Arc<Self>) {
        let interval = self.config().compact_interval_ms;
        if interval == 0 || self.compactor.get().is_some() {
            return;
        }
        let weak = Arc::downgrade(self);
        let stop = Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let stop2 = stop.clone();
        let thread = std::thread::Builder::new()
            .name("odh-compact".into())
            .spawn(move || loop {
                {
                    let flag = stop2.0.lock().unwrap();
                    let (flag, _timeout) = stop2
                        .1
                        .wait_timeout_while(
                            flag,
                            std::time::Duration::from_millis(interval),
                            |stop| !*stop,
                        )
                        .unwrap();
                    if *flag {
                        return;
                    }
                }
                let Some(table) = weak.upgrade() else { return };
                // Background passes swallow errors: a failed pass leaves
                // the old generations fully intact, and the next tick
                // retries.
                let _ = table.compact();
            })
            .expect("spawn compaction worker");
        let _ = self
            .compactor
            .set(CompactorHandle { thread: parking_lot::Mutex::new(Some(thread)), stop });
    }
}

/// Handle to a table's background compaction worker.
#[derive(Debug)]
pub struct CompactorHandle {
    thread: parking_lot::Mutex<Option<std::thread::JoinHandle<()>>>,
    stop: Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
}

impl CompactorHandle {
    /// Signal the worker to exit and wait for it (unless called *from*
    /// the worker itself — the final `Arc` can be dropped by the worker's
    /// own upgrade, and a thread must not join itself).
    pub fn shutdown(&self) {
        {
            let mut flag = self.stop.0.lock().unwrap();
            *flag = true;
        }
        self.stop.1.notify_all();
        let handle = self.thread.lock().take();
        if let Some(h) = handle {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TagSummary;
    use crate::table::TableConfig;
    use odh_pager::disk::MemDisk;
    use odh_pager::pool::BufferPool;
    use odh_sim::ResourceMeter;
    use odh_types::{Duration, Record, SchemaType, SourceClass, Timestamp};

    fn table(cfg: TableConfig) -> Arc<OdhTable> {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        Arc::new(OdhTable::create(pool, ResourceMeter::unmetered(), cfg).unwrap())
    }

    fn base_cfg() -> TableConfig {
        TableConfig::new(SchemaType::new("m", ["a", "b"])).with_batch_size(64)
    }

    /// Seal many tiny fragmented batches: `n` points per flush.
    fn fragment(t: &OdhTable, src: u64, points: usize, per_flush: usize, step_us: i64) {
        t.register_source(SourceId(src), SourceClass::regular_high(Duration::from_micros(step_us)))
            .unwrap();
        for i in 0..points {
            t.put(&Record::dense(
                SourceId(src),
                Timestamp(i as i64 * step_us),
                [i as f64, -(i as f64)],
            ))
            .unwrap();
            if (i + 1) % per_flush == 0 {
                t.flush().unwrap();
            }
        }
        t.flush().unwrap();
    }

    fn scan_all(t: &OdhTable, src: u64) -> Vec<crate::table::ScanPoint> {
        t.historical_scan(SourceId(src), Timestamp(i64::MIN), Timestamp(i64::MAX), &[0, 1]).unwrap()
    }

    #[test]
    fn merges_small_batches_and_preserves_rows() {
        let t = table(base_cfg());
        fragment(&t, 1, 240, 5, 1_000_000); // 48 tiny batches
        let before = scan_all(&t, 1);
        assert_eq!(before.len(), 240);
        let frag = t.total_batches();
        assert!(frag >= 48, "expected heavy fragmentation, got {frag}");
        let rep = t.compact().unwrap();
        assert!(rep.merged_batches >= 48);
        assert!(rep.produced_batches <= 2, "240 rows @ target 256 → 1 batch");
        assert!(t.total_batches() < frag / 10);
        assert_eq!(scan_all(&t, 1), before);
        // Merged regular points re-typed back to RTS.
        let (rts, irts, _) = t.record_counts();
        assert!(rts > 0);
        assert_eq!(irts, 0);
    }

    #[test]
    fn aggregates_equivalent_and_summary_answered_after_compaction() {
        let t = table(base_cfg());
        fragment(&t, 1, 200, 4, 1_000_000);
        // Source 1's rows and tag summary, folded from a summary scan.
        let agg = |tag: usize| -> (u64, TagSummary) {
            let only = [SourceId(1)].into_iter().collect();
            let grain = Some(crate::table::TimeGrain::Whole);
            let chunks = t
                .scan_columnar(Timestamp::MIN, Timestamp::MAX, &[tag], Some(&only), &[], grain)
                .unwrap();
            let mut acc = (0, TagSummary::empty());
            for ch in chunks {
                match ch.summary {
                    Some(s) => {
                        acc.0 += s.rows;
                        acc.1.merge(&s.tags[0]);
                    }
                    None => {
                        acc.0 += ch.len() as u64;
                        ch.cols[0][ch.start..ch.start + ch.len()]
                            .iter()
                            .for_each(|v| acc.1.add(*v));
                    }
                }
            }
            acc
        };
        let before = agg(0);
        t.compact().unwrap();
        assert_eq!(agg(0), before);
        // The merged batches carry regenerated summaries: a fully covered
        // aggregate still answers without decoding.
        let d0 = t.stats().blob_decodes.get();
        agg(1);
        assert_eq!(t.stats().blob_decodes.get(), d0, "summary-answered post-compaction");
    }

    #[test]
    fn irregular_fragments_merge_into_irts() {
        let t = table(base_cfg());
        t.register_source(SourceId(9), SourceClass::irregular_high()).unwrap();
        for i in 0..120i64 {
            t.put(&Record::dense(SourceId(9), Timestamp(i * 977_131 + (i % 7) * 13), [1.0, 2.0]))
                .unwrap();
            if i % 3 == 2 {
                t.flush().unwrap();
            }
        }
        t.flush().unwrap();
        let before = scan_all(&t, 9);
        let rep = t.compact().unwrap();
        assert!(rep.merged_batches > 0);
        assert_eq!(scan_all(&t, 9), before);
        let (rts, irts, _) = t.record_counts();
        assert_eq!(rts, 0);
        assert!(irts > 0);
    }

    #[test]
    fn cold_demotion_moves_old_batches_and_reads_bypass_cache() {
        // Everything older than 100s of the newest point goes cold.
        let t =
            table(base_cfg().with_compact_min_batch(1).with_cold_after(Duration::from_secs(100)));
        fragment(&t, 1, 300, 50, 1_000_000); // 6 full batches over 300s
        let before = scan_all(&t, 1);
        let rep = t.compact().unwrap();
        assert!(rep.demoted_batches > 0, "old batches demoted");
        assert!(t.cold_record_count() > 0);
        assert_eq!(scan_all(&t, 1), before, "hot+cold composite scan is lossless");
        // Cold fetches are counted and never admitted to the cache.
        assert!(t.stats().cold_batches_scanned.get() > 0);
    }

    #[test]
    fn ttl_retention_drops_expired_batches() {
        let t = table(base_cfg().with_retention_ttl(Duration::from_secs(100)));
        fragment(&t, 1, 300, 50, 1_000_000); // 300s of data, floor at 199s
        let rep = t.compact().unwrap();
        assert!(rep.expired_batches > 0);
        let pts = scan_all(&t, 1);
        assert!(pts.len() < 300);
        // Everything still visible is within the retention window.
        let floor = t.retention_floor().unwrap();
        assert!(pts.iter().all(|p| p.ts.0 >= floor));
        // And the newest rows are intact.
        assert_eq!(pts.last().unwrap().ts, Timestamp(299 * 1_000_000));
    }

    #[test]
    fn ttl_prune_reclaims_expired_source_registry_records() {
        let t = table(base_cfg().with_retention_ttl(Duration::from_secs(100)));
        // An irregular (per-source-ingest) source whose whole history
        // will fall behind the retention floor.
        t.register_source(SourceId(7), SourceClass::irregular_high()).unwrap();
        for i in 0..32i64 {
            t.put(&Record::dense(SourceId(7), Timestamp(i * 1_000_000), [1.0, 2.0])).unwrap();
        }
        t.flush().unwrap();
        // A live source far in the future pushes the floor past
        // everything source 7 ever wrote.
        fragment(&t, 1, 50, 50, 1_000_000_000);
        assert_eq!(t.source_count(), 2);
        let rep = t.compact().unwrap();
        assert!(rep.expired_batches > 0, "source 7's batches dropped whole");
        assert_eq!(rep.pruned_sources, 1, "registry record reclaimed with the data");
        assert_eq!(t.source_count(), 1);
        assert!(t.source_class(SourceId(7)).is_none());
        // A second pass finds nothing left to prune.
        assert_eq!(t.compact().unwrap().pruned_sources, 0);
        // The id can come back: re-registration starts from a clean
        // record and ingests normally.
        t.register_source(SourceId(7), SourceClass::irregular_high()).unwrap();
        t.put(&Record::dense(SourceId(7), Timestamp(49_000 * 1_000_000), [5.0, 6.0])).unwrap();
        t.flush().unwrap();
        let pts = scan_all(&t, 7);
        assert_eq!(pts.len(), 1, "old rows gone, new row visible");
        // The still-live source keeps its record.
        assert!(t.source_class(SourceId(1)).is_some());
    }

    #[test]
    fn reads_clamp_to_retention_floor_even_before_compaction() {
        let t = table(base_cfg().with_retention_ttl(Duration::from_secs(10)));
        fragment(&t, 1, 100, 100, 1_000_000);
        // No compact() yet: the floor is enforced by the read path alone.
        let pts = scan_all(&t, 1);
        let floor = t.retention_floor().unwrap();
        assert!(pts.iter().all(|p| p.ts.0 >= floor));
        assert!(pts.len() <= 11);
    }

    #[test]
    fn compaction_concurrent_with_ingest_loses_nothing() {
        let t = table(base_cfg().with_compact_min_batch(16));
        fragment(&t, 1, 200, 4, 1_000_000);
        let t2 = t.clone();
        let writer = std::thread::spawn(move || {
            for i in 200..400 {
                t2.put(&Record::dense(
                    SourceId(1),
                    Timestamp(i as i64 * 1_000_000),
                    [i as f64, -(i as f64)],
                ))
                .unwrap();
                if i % 5 == 0 {
                    t2.flush().unwrap();
                }
            }
            t2.flush().unwrap();
        });
        for _ in 0..4 {
            t.compact().unwrap();
        }
        writer.join().unwrap();
        t.compact().unwrap();
        let pts = scan_all(&t, 1);
        assert_eq!(pts.len(), 400, "no row lost or duplicated across passes");
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.ts, Timestamp(i as i64 * 1_000_000));
            assert_eq!(p.values[0], Some(i as f64));
        }
    }

    #[test]
    fn background_compactor_runs_and_shuts_down() {
        let t = table(base_cfg().with_compact_interval_ms(10));
        fragment(&t, 1, 120, 4, 1_000_000);
        t.start_compactor();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while t.obs.compact_runs.get() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(t.obs.compact_runs.get() > 0, "worker ran at least one pass");
        assert_eq!(scan_all(&t, 1).len(), 120);
        drop(t); // Drop joins the worker; must not hang or panic.
    }

    #[test]
    fn compaction_resolves_and_retires_tombstones() {
        let t = table(base_cfg());
        fragment(&t, 1, 240, 5, 1_000_000);
        t.delete(&crate::delete::DeletePredicate::all_sources(10_000_000, 19_000_000)).unwrap();
        assert_eq!(t.tombstones().len(), 1);
        let masked = scan_all(&t, 1);
        assert_eq!(masked.len(), 230, "10 rows masked pre-compaction");
        let rep = t.compact().unwrap();
        assert_eq!(rep.tombstone_rows_resolved, 10);
        assert_eq!(rep.tombstones_retired, 1);
        assert!(t.tombstones().is_empty(), "fully resolved tombstone retired");
        assert_eq!(scan_all(&t, 1), masked, "post-resolution scan identical to masked scan");
        assert_eq!(t.stats().tombstone_resolved_rows.get(), 10);
        assert_eq!(t.stats().tombstones_retired.get(), 1);
        // Re-inserting into the resolved range is visible again.
        t.put(&Record::dense(SourceId(1), Timestamp(15_000_000), [7.0, -7.0])).unwrap();
        t.flush().unwrap();
        assert_eq!(scan_all(&t, 1).len(), 231);
    }

    #[test]
    fn tombstone_overlapping_cold_batches_is_resolved_in_place() {
        let t =
            table(base_cfg().with_compact_min_batch(1).with_cold_after(Duration::from_secs(100)));
        fragment(&t, 1, 300, 50, 1_000_000);
        t.compact().unwrap();
        assert!(t.cold_record_count() > 0);
        // Delete a slice that lives entirely in the cold tier by now.
        t.delete(&crate::delete::DeletePredicate::for_sources(0, 9_000_000, [SourceId(1)]))
            .unwrap();
        let masked = scan_all(&t, 1);
        assert_eq!(masked.len(), 290);
        let rep = t.compact().unwrap();
        assert_eq!(rep.tombstone_rows_resolved, 10);
        assert_eq!(rep.tombstones_retired, 1);
        assert_eq!(scan_all(&t, 1), masked);
    }

    #[test]
    fn unsealed_rows_block_tombstone_retirement() {
        let t = table(base_cfg());
        fragment(&t, 1, 100, 5, 1_000_000);
        // One un-flushed row keeps the open buffer non-empty: the pass
        // must resolve sealed rows but keep the tombstone active.
        t.put(&Record::dense(SourceId(1), Timestamp(100_000_000), [1.0, 2.0])).unwrap();
        t.delete(&crate::delete::DeletePredicate::all_sources(0, 5_000_000)).unwrap();
        let rep = t.compact().unwrap();
        assert_eq!(rep.tombstone_rows_resolved, 6);
        assert_eq!(rep.tombstones_retired, 0, "open-buffer rows block retirement");
        assert_eq!(t.tombstones().len(), 1);
        t.flush().unwrap();
        let rep = t.compact().unwrap();
        assert_eq!(rep.tombstone_rows_resolved, 0, "already resolved");
        assert_eq!(rep.tombstones_retired, 1);
        assert!(t.tombstones().is_empty());
    }

    #[test]
    fn snapshot_excluded_mid_pass_state_round_trips() {
        // A snapshot taken right after compact() restores the compacted
        // shape, including the cold generation.
        use odh_pager::disk::FileDisk;
        let path =
            std::env::temp_dir().join(format!("odh-compact-snap-{}.pages", std::process::id()));
        let json;
        {
            let disk = Arc::new(FileDisk::create(&path).unwrap());
            let pool = BufferPool::new(disk, 512);
            let t = OdhTable::create(
                pool.clone(),
                ResourceMeter::unmetered(),
                base_cfg().with_compact_min_batch(1).with_cold_after(Duration::from_secs(100)),
            )
            .unwrap();
            let t = Arc::new(t);
            fragment(&t, 1, 300, 50, 1_000_000);
            t.compact().unwrap();
            assert!(t.cold_record_count() > 0);
            json = serde_json::to_string(&t.snapshot().unwrap()).unwrap();
            // The checkpoint's job in the full server: persist the pages
            // the snapshot's page lists point at.
            pool.flush_all().unwrap();
        }
        let disk = Arc::new(FileDisk::open(&path).unwrap());
        let pool = BufferPool::new(disk, 512);
        let snap: crate::snapshot::TableSnapshot = serde_json::from_str(&json).unwrap();
        let t = OdhTable::restore(pool, ResourceMeter::unmetered(), &snap).unwrap();
        assert!(t.cold_record_count() > 0, "cold generation restored");
        assert_eq!(scan_all(&t, 1).len(), 300);
        std::fs::remove_file(&path).ok();
    }
}
