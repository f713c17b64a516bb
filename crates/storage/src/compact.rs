//! Generational compaction, tiering, and the MG → per-source move.
//!
//! Sealed batches are immutable, so slow sources accumulate *many small*
//! batches (a seal on flush, a trickle source that never fills
//! `batch_size`, a late-arrival side batch). Every one of them costs a
//! B-tree descent, a heap read, a decode-cache slot and a summary consult
//! per query. The compactor fixes that the way the IOx chunk lifecycle
//! does: a pass merges runs of small per-source batches into large ones
//! (re-running the variability-aware codec choice over the bigger window
//! and regenerating the per-tag [`crate::batch::TagSummary`] blocks the
//! vectorized aggregates fold), demotes old batches to a cold tier, drops
//! expired batches whole, and then swaps the rebuilt generations in.
//!
//! The same pass moves sealed MG history into per-source batches. Table 1
//! prescribes MG for *ingesting* low-frequency sources but RTS/IRTS for
//! their *historical* queries, so every sealed MG batch is drained: its
//! rows are regrouped per source and join that source's run of small
//! batches, which the pass re-encodes as RTS (a regular stride) or IRTS
//! under the same expiry, tombstone and cold-tier rules as any other run.
//!
//! A pass rewrites only what it changes. A run holding one untouched batch
//! is kept, not re-encoded. A merged run writes whole target-size chunks
//! and carries its short tail on, and only a large batch that starts
//! after every staged row ends it, so each run leaves at most one small
//! batch and the next pass finds nothing to merge. A generation that
//! gains and loses no batch keeps its container: no fresh pages, no
//! decode-cache invalidation. A pass over unchanged data is therefore a
//! read-only walk.
//!
//! ## Concurrency
//!
//! A pass runs in two phases so ingest never stalls behind re-encoding:
//!
//! * **Phase A** (no locks held): clone the generation `Arc`s, read every
//!   batch, and build a replacement for each generation the pass changes,
//!   remembering the rids consumed. Concurrent seals keep landing in the
//!   *live* generations (their inserts run under the generation read lock).
//! * **Phase B** (one `crate::table::SealSync` ticket, then the write
//!   locks): first every fallible step — copy each changed generation's
//!   latecomers (rids present now but not consumed in phase A; MG
//!   included) raw into its replacement — then the swaps, plain
//!   assignments that cannot fail. A pass that errors anywhere changes
//!   nothing. A composite read that overlaps the swaps retries, so it
//!   never sees a row in both its old and new place, or in neither.
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
//! physical. The pass snapshots the tombstone list up front; every batch
//! the list could touch is forced through the merge path regardless of
//! size, and masked rows are filtered out as the batch decodes (cold
//! batches are rewritten in place the same way, drained MG rows as they
//! are regrouped). Afterwards — under the same phase-B ticket as the
//! swaps — a snapshot tombstone is *retired* when no unrewritten copy of
//! its rows can remain: no latecomer batch of any generation overlaps it
//! and no rows sit in open/side buffers or queued seal jobs. Tombstones
//! installed mid-pass are kept verbatim.
//!
//! [`TableConfig::with_cold_after`]: crate::table::TableConfig::with_cold_after
//! [`TableConfig::with_retention_ttl`]: crate::table::TableConfig::with_retention_ttl

use crate::batch::{summarize_columns, Batch, IrtsBatch, RtsBatch};
use crate::blob::ValueBlob;
use crate::container::Container;
use crate::delete::{masks_batch, masks_row, Tombstone};
use crate::select::Structure;
use crate::table::{sort_rows, OdhTable};
use odh_types::{Duration, Result, SourceId};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Small input batches that were merged into larger ones.
    pub merged_batches: u64,
    /// Merged output batches produced from those inputs.
    pub produced_batches: u64,
    /// Batches carried into the new generations without re-encoding.
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
    /// Sealed MG rows drained into per-source batches this pass.
    pub mg_points_moved: u64,
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
            || self.mg_points_moved > 0
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
        self.mg_points_moved += o.mg_points_moved;
        self.batches_before += o.batches_before;
        self.batches_after += o.batches_after;
    }
}

/// Row-major timestamps plus `cols[tag][row]`.
type Rows = (Vec<i64>, Vec<Vec<Option<f64>>>);

/// One generation through a pass. The replacement container is created
/// only once the pass adds a batch to the generation or drops one from
/// it; until then the batches it keeps are just rids.
struct Gen<'t> {
    slot: &'t RwLock<Arc<Container>>,
    structure: Structure,
    live: Arc<Container>,
    /// Rids consumed in phase A; any other rid found in phase B is a
    /// latecomer.
    seen: HashSet<u64>,
    /// Consumed batches that stay as they are.
    kept: usize,
    /// Kept rids not yet copied into `fresh`.
    pending: Vec<u64>,
    fresh: Option<Arc<Container>>,
}

impl<'t> Gen<'t> {
    fn new(slot: &'t RwLock<Arc<Container>>, structure: Structure) -> Gen<'t> {
        let live = slot.read().clone();
        Gen {
            slot,
            structure,
            live,
            seen: HashSet::new(),
            kept: 0,
            pending: Vec::new(),
            fresh: None,
        }
    }

    /// Read every batch of the live container, marking its rid consumed.
    fn consume(&mut self) -> Result<Vec<(u64, Batch)>> {
        let rids = self.live.all_rids()?;
        let mut out = Vec::with_capacity(rids.len());
        for rid in rids {
            self.seen.insert(rid);
            out.push((rid, self.live.get_batch(rid)?));
        }
        Ok(out)
    }

    /// Did the pass add a batch or drop a consumed one?
    fn changed(&self) -> bool {
        self.fresh.is_some() || self.kept < self.seen.len()
    }

    /// Keep the consumed batch `rid` as it is.
    fn keep(&mut self, t: &OdhTable, rid: u64, b: &Batch) -> Result<()> {
        self.kept += 1;
        match &self.fresh {
            Some(fresh) => t.insert_raw(fresh, b),
            None => {
                self.pending.push(rid);
                Ok(())
            }
        }
    }

    /// Add a batch the live generation does not hold.
    fn add(&mut self, t: &OdhTable, b: &Batch) -> Result<()> {
        let fresh = self.materialize(t)?;
        t.insert_raw(fresh, b)
    }

    /// The replacement container, created on first use and filled with
    /// the batches kept so far.
    fn materialize(&mut self, t: &OdhTable) -> Result<&Arc<Container>> {
        if self.fresh.is_none() {
            let fresh = Arc::new(Container::create(t.pool().clone(), self.structure)?);
            for rid in self.pending.drain(..) {
                t.insert_raw(&fresh, &self.live.get_batch(rid)?)?;
            }
            self.fresh = Some(fresh);
        }
        Ok(self.fresh.as_ref().expect("just created"))
    }
}

/// One source's small pieces staged for re-encoding. A lone untouched
/// batch stays undecoded: if nothing joins it, the pass keeps it.
struct SourceRun {
    lone: Option<(u64, Batch)>,
    ts: Vec<i64>,
    cols: Vec<Vec<Option<f64>>>,
    /// Newest staged point, lone batch included (`i64::MIN` when empty).
    end: i64,
    /// Decoded input batches not yet accounted as merged.
    input_batches: u64,
}

/// A source's input to a pass, ordered by its oldest point.
enum Piece {
    /// A sealed per-source batch and its rid.
    Sealed(u64, Batch),
    /// The source's rows drained from sealed MG batches.
    Drained(Rows),
}

impl Piece {
    fn begin(&self) -> i64 {
        match self {
            Piece::Sealed(_, b) => b.time_range().0,
            Piece::Drained((ts, _)) => ts.iter().copied().min().unwrap_or(i64::MAX),
        }
    }
}

/// Phase A of one pass: the four generations, the pass parameters and
/// the report being built.
struct Rewrite<'t> {
    table: &'t OdhTable,
    tombs: Arc<Vec<Tombstone>>,
    floor: Option<i64>,
    cold_floor: Option<i64>,
    all_tags: Vec<usize>,
    policy: odh_compress::column::Policy,
    min_rows: usize,
    target_rows: usize,
    rts: Gen<'t>,
    irts: Gen<'t>,
    mg: Gen<'t>,
    cold: Gen<'t>,
    report: CompactReport,
}

impl OdhTable {
    /// Run one full compaction pass: merge, demote and expire per-source
    /// batches, and drain the sealed MG generation into per-source ones.
    ///
    /// Safe to call concurrently with ingest, scans and checkpoints;
    /// passes themselves are serialized. A pass that returns an error
    /// leaves every generation as it was.
    pub fn compact(&self) -> Result<CompactReport> {
        let _serial = self.compact_lock.lock();
        let _span = self.obs.registry.span("compact", &self.obs.compact);
        let cfg = self.config();
        let mut rw = Rewrite {
            table: self,
            // Snapshot the tombstone list: this pass resolves exactly
            // these. Deletes issued mid-pass stay installed and mask at
            // read time; the next pass resolves them.
            tombs: self.tombstones(),
            floor: self.retention_floor(),
            cold_floor: self.cold_floor(),
            all_tags: (0..self.schema().tag_count()).collect(),
            policy: cfg.policy,
            min_rows: cfg.compact_min_rows(),
            target_rows: cfg.compact_target_rows(),
            rts: Gen::new(&self.rts, Structure::Rts),
            irts: Gen::new(&self.irts, Structure::Irts),
            mg: Gen::new(&self.mg, Structure::Mg),
            // Cold holds RTS and IRTS records side by side (batches
            // self-describe); the structure tag is nominal.
            cold: Gen::new(&self.cold, Structure::Irts),
            report: CompactReport::default(),
        };
        rw.report.batches_before =
            rw.rts.live.record_count() + rw.irts.live.record_count() + rw.cold.live.record_count();

        // ---- Phase A: build replacements without blocking ingest. ----
        let mut per_source: BTreeMap<u64, Vec<Piece>> = BTreeMap::new();
        for gen in [&mut rw.rts, &mut rw.irts] {
            for (rid, b) in gen.consume()? {
                let Some(src) = b.source() else { continue };
                per_source.entry(src.0).or_default().push(Piece::Sealed(rid, b));
            }
        }
        rw.cold_pass()?;
        let drained = rw.drain_mg()?;
        for (src, rows) in drained {
            per_source.entry(src).or_default().push(Piece::Drained(rows));
        }
        for (src, pieces) in per_source {
            rw.source_pass(SourceId(src), pieces)?;
        }
        // A generation that only lost batches still needs its replacement.
        for gen in [&mut rw.rts, &mut rw.irts, &mut rw.mg, &mut rw.cold] {
            if gen.changed() {
                gen.materialize(self)?;
            }
        }
        // Account the codec columns the merge re-encoded.
        self.note_codec_counts();
        let Rewrite { rts, irts, mg, cold, tombs, mut report, .. } = rw;
        let gens = [rts, irts, mg, cold];

        // ---- Phase B: latecomers, then swaps that cannot fail. ----
        let mut latecomer_spans: Vec<(Option<SourceId>, i64, i64)> = Vec::new();
        {
            let _ticket = self.seals.begin();
            let mut swaps = Vec::new();
            for gen in &gens {
                // An unchanged generation stays live as it is; its
                // latecomers matter only to tombstone retirement.
                if gen.fresh.is_none() && tombs.is_empty() {
                    continue;
                }
                // The write lock excludes further inserts (sealing holds
                // the read lock), so this diff is exact until the swap.
                let live = gen.slot.write();
                for rid in live.all_rids()? {
                    if gen.seen.contains(&rid) {
                        continue;
                    }
                    let b = live.get_batch(rid)?;
                    let (begin, end) = b.time_range();
                    latecomer_spans.push((b.source(), begin, end));
                    if let Some(fresh) = &gen.fresh {
                        self.insert_raw(fresh, &b)?;
                    }
                }
                swaps.push((live, gen.fresh.clone()));
            }
            // Every fallible step is behind us: from here on nothing can
            // fail, so an error above left every generation as it was.
            for (mut live, fresh) in swaps {
                if let Some(fresh) = fresh {
                    *live = fresh;
                }
            }
            if report.mg_points_moved > 0 {
                self.reorganized.store(true, std::sync::atomic::Ordering::Release);
            }
            report.tombstones_retired = self.retire_resolved(&tombs, &latecomer_spans);
        }
        // Retired generations are unreachable; give their decode-cache
        // budget back to live batches. Done last: in-flight reads holding
        // the old `Arc`s stay coherent until they finish.
        for gen in gens.iter().filter(|g| g.fresh.is_some()) {
            self.decode_cache().invalidate_container(gen.live.id());
        }

        // With expired batches gone, sources whose whole history fell
        // behind the retention floor no longer need registry records.
        report.pruned_sources = self.prune_expired_sources();
        self.refresh_memory_gauges();

        let count = |g: &Gen| g.fresh.as_ref().unwrap_or(&g.live).record_count();
        let [rts, irts, mg, cold] = &gens;
        report.batches_after = count(rts) + count(irts) + count(cold);
        self.obs.cold_batches.set(count(cold) as i64);
        self.obs.compact_runs.inc();
        self.obs.compact_merged.add(report.merged_batches);
        self.obs.compact_expired.add(report.expired_batches);
        self.obs.compact_demoted.add(report.demoted_batches);
        self.stats.batches_reorganized.add(mg.seen.len() as u64);
        self.stats.tombstone_resolved_rows.add(report.tombstone_rows_resolved);
        self.stats.tombstones_retired.add(report.tombstones_retired);
        Ok(report)
    }

    /// Retire the snapshot tombstones this pass fully resolved. Runs under
    /// the phase-B ticket, after the swaps: the rewritten generations hold
    /// no masked rows, so a tombstone is still needed only if matching
    /// rows might survive somewhere the pass did not rewrite — a latecomer
    /// batch of any generation, an open/side ingest buffer, or a queued
    /// seal job.
    fn retire_resolved(
        &self,
        tombs: &[Tombstone],
        latecomer_spans: &[(Option<SourceId>, i64, i64)],
    ) -> u64 {
        if tombs.is_empty() {
            return 0;
        }
        let quiet = self.buffered_points() == 0 && self.seal_queue_depth() == 0;
        self.retire_tombstones(|t| {
            // Installed mid-pass: keep verbatim, next pass resolves it.
            if !tombs.contains(t) {
                return true;
            }
            let latecomer_clear = !latecomer_spans
                .iter()
                .any(|&(src, begin, end)| t.pred.overlaps_batch(src, begin, end));
            !(quiet && latecomer_clear)
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
}

impl Rewrite<'_> {
    /// Cold batches are already compact: keep them, dropping the expired
    /// and rewriting the tombstoned without their masked rows. Only the
    /// compactor writes cold (passes are serialized by `compact_lock`),
    /// so cold has no latecomers.
    fn cold_pass(&mut self) -> Result<()> {
        for (rid, b) in self.cold.consume()? {
            let (begin, end) = b.time_range();
            if self.floor.is_some_and(|f| end < f) {
                self.report.expired_batches += 1;
                continue;
            }
            let src = b.source().expect("cold holds only per-source batches");
            if !masks_batch(&self.tombs, Some(src), begin, end) {
                self.cold.keep(self.table, rid, &b)?;
                self.report.copied_batches += 1;
                continue;
            }
            // Cold is out of the summary fast path anyway, so the rewrite
            // re-encodes as IRTS without consulting the source class.
            let (ts, cols) = self.decode_live(src, &b, true)?;
            if !ts.is_empty() {
                let batch = self.encode(src, None, &ts, cols);
                self.cold.add(self.table, &batch)?;
                self.report.produced_batches += 1;
            }
            self.report.merged_batches += 1;
        }
        Ok(())
    }

    /// Drain every sealed MG batch, regrouping its live rows per source.
    /// Timed as `odh_reorg_seconds`, the MG stage of a pass.
    fn drain_mg(&mut self) -> Result<HashMap<u64, Rows>> {
        let batches = self.mg.consume()?;
        let mut per_source: HashMap<u64, Rows> = HashMap::new();
        if batches.is_empty() {
            return Ok(per_source);
        }
        let obs = &self.table.obs;
        let _span = obs.registry.span("reorg", &obs.reorg);
        let tag_count = self.all_tags.len();
        for (_, b) in batches {
            let Batch::Mg(b) = b else { continue };
            if self.floor.is_some_and(|f| b.end < f) {
                self.report.expired_batches += 1;
                continue;
            }
            let doomed = masks_batch(&self.tombs, None, b.begin, b.end);
            let cols = b.blob.decode_tags(&b.timestamps, &self.all_tags)?;
            for (row, (&ts, &id)) in b.timestamps.iter().zip(&b.ids).enumerate() {
                if doomed && masks_row(&self.tombs, id, ts) {
                    self.report.tombstone_rows_resolved += 1;
                    continue;
                }
                let (acc_ts, acc_cols) = per_source
                    .entry(id.0)
                    .or_insert_with(|| (Vec::new(), vec![Vec::new(); tag_count]));
                acc_ts.push(ts);
                for (acc, col) in acc_cols.iter_mut().zip(&cols) {
                    acc.push(col[row]);
                }
                self.report.mg_points_moved += 1;
            }
        }
        Ok(per_source)
    }

    /// Rewrite one source's pieces in time order: large untouched batches
    /// stay as they are, small or tombstoned ones and drained MG rows
    /// are staged into runs that re-encode at the target size.
    fn source_pass(&mut self, src: SourceId, mut pieces: Vec<Piece>) -> Result<()> {
        pieces.sort_by_cached_key(Piece::begin);
        let interval = self.table.source_class(src).and_then(|c| c.interval());
        let mut run = SourceRun {
            lone: None,
            ts: Vec::new(),
            cols: vec![Vec::new(); self.all_tags.len()],
            end: i64::MIN,
            input_batches: 0,
        };
        for piece in pieces {
            match piece {
                Piece::Drained((ts, cols)) => {
                    self.unlone(src, &mut run)?;
                    append(&mut run, ts, cols);
                }
                Piece::Sealed(rid, b) => {
                    let (begin, end) = b.time_range();
                    // Retention first: an expired batch is dropped whole,
                    // without decoding — the summary layer never sees it.
                    if self.floor.is_some_and(|f| end < f) {
                        self.report.expired_batches += 1;
                        continue;
                    }
                    // A batch a tombstone could touch is forced through
                    // the merge path whatever its size: decoding is the
                    // only way to drop exactly the masked rows.
                    let doomed = masks_batch(&self.tombs, Some(src), begin, end);
                    if b.n_points() >= self.min_rows && !doomed {
                        // A large batch stays as it is. It ends the run
                        // only if it starts after every staged row, so a
                        // run's output sorts around it the same way next
                        // pass and the pass leaves a fixed point.
                        if begin > run.end {
                            self.close_run(src, interval, &mut run)?;
                        }
                        self.place(&b, Some(rid))?;
                        continue;
                    }
                    if !doomed && run.lone.is_none() && run.ts.is_empty() {
                        run.end = end;
                        run.lone = Some((rid, b));
                        continue;
                    }
                    self.unlone(src, &mut run)?;
                    let (ts, cols) = self.decode_live(src, &b, doomed)?;
                    append(&mut run, ts, cols);
                    run.input_batches += 1;
                }
            }
            if run.ts.len() >= self.target_rows {
                self.flush_run(src, interval, &mut run, false)?;
            }
        }
        self.close_run(src, interval, &mut run)
    }

    /// Decode the run's lone batch into its rows: a second piece joined.
    fn unlone(&mut self, src: SourceId, run: &mut SourceRun) -> Result<()> {
        if let Some((_, b)) = run.lone.take() {
            let (ts, cols) = self.decode_live(src, &b, false)?;
            append(run, ts, cols);
            run.input_batches += 1;
        }
        Ok(())
    }

    /// End a run: a lone batch is kept, staged rows are re-encoded.
    fn close_run(
        &mut self,
        src: SourceId,
        interval: Option<Duration>,
        run: &mut SourceRun,
    ) -> Result<()> {
        run.end = i64::MIN;
        match run.lone.take() {
            Some((rid, b)) => self.place(&b, Some(rid)),
            None if run.ts.is_empty() => Ok(()),
            None => self.flush_run(src, interval, run, true),
        }
    }

    /// Re-encode a run's rows in target-size chunks, routing each hot or
    /// cold. Unless `all`, a short tail stays staged for the next piece,
    /// so a merged window never ends in a fresh small batch mid-history.
    fn flush_run(
        &mut self,
        src: SourceId,
        interval: Option<Duration>,
        run: &mut SourceRun,
        all: bool,
    ) -> Result<()> {
        sort_rows(&mut run.ts, None, &mut run.cols);
        let n = run.ts.len();
        let cut = if all { n } else { n - n % self.target_rows };
        let mut start = 0;
        while start < cut {
            let end = (start + self.target_rows).min(cut);
            let cols = run.cols.iter().map(|c| c[start..end].to_vec()).collect();
            let batch = self.encode(src, interval, &run.ts[start..end], cols);
            self.place(&batch, None)?;
            self.report.produced_batches += 1;
            start = end;
        }
        run.ts.drain(..cut);
        for col in &mut run.cols {
            col.drain(..cut);
        }
        self.report.merged_batches += run.input_batches;
        run.input_batches = 0;
        Ok(())
    }

    /// Route one batch: to cold once its newest point fell behind the cold
    /// floor, else to the hot generation of its type. A consumed batch
    /// (`rid`) that stays in its own generation is kept, not copied.
    fn place(&mut self, b: &Batch, rid: Option<u64>) -> Result<()> {
        if rid.is_some() {
            self.report.copied_batches += 1;
        }
        if self.cold_floor.is_some_and(|f| b.time_range().1 < f) {
            self.report.demoted_batches += 1;
            return self.cold.add(self.table, b);
        }
        let gen = match b {
            Batch::Rts(_) => &mut self.rts,
            _ => &mut self.irts,
        };
        match rid {
            Some(rid) => gen.keep(self.table, rid, b),
            None => gen.add(self.table, b),
        }
    }

    /// Decode a batch of `src`, dropping (and counting) the rows a
    /// tombstone masks when the batch is `doomed`.
    fn decode_live(&mut self, src: SourceId, b: &Batch, doomed: bool) -> Result<Rows> {
        let mut ts = b.timestamps();
        let mut cols = b.blob().decode_tags(&ts, &self.all_tags)?;
        if doomed {
            let live: Vec<bool> = ts.iter().map(|&t| !masks_row(&self.tombs, src, t)).collect();
            self.report.tombstone_rows_resolved += live.iter().filter(|l| !**l).count() as u64;
            retain_live(&mut ts, &live);
            for col in &mut cols {
                retain_live(col, &live);
            }
        }
        Ok((ts, cols))
    }

    /// Encode sorted rows as one batch, re-running the structure choice
    /// over the window: a run that looked irregular batch by batch (each
    /// seal cut at a gap) may be one regular stride end to end.
    fn encode(
        &self,
        src: SourceId,
        interval: Option<Duration>,
        ts: &[i64],
        cols: Vec<Vec<Option<f64>>>,
    ) -> Batch {
        let blob = ValueBlob::encode(ts, &cols, self.policy);
        let summaries = Some(summarize_columns(&cols));
        match interval {
            Some(iv) if ts.windows(2).all(|w| w[1] - w[0] == iv.micros()) => Batch::Rts(RtsBatch {
                source: src,
                begin: ts[0],
                interval: iv.micros(),
                count: ts.len() as u32,
                blob,
                summaries,
            }),
            _ => Batch::Irts(IrtsBatch {
                source: src,
                begin: ts[0],
                end: *ts.last().expect("a batch holds at least one row"),
                timestamps: ts.to_vec(),
                blob,
                summaries,
            }),
        }
    }
}

/// Keep the rows whose `live` flag is set.
fn retain_live<T>(v: &mut Vec<T>, live: &[bool]) {
    let mut flags = live.iter();
    v.retain(|_| *flags.next().expect("one flag per row"));
}

/// Append decoded rows to a run.
fn append(run: &mut SourceRun, ts: Vec<i64>, cols: Vec<Vec<Option<f64>>>) {
    run.end = ts.iter().copied().fold(run.end, i64::max);
    run.ts.extend(ts);
    for (acc, col) in run.cols.iter_mut().zip(cols) {
        acc.extend(col);
    }
}

impl OdhTable {
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

    fn meter_table(b: usize, group: u64) -> OdhTable {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let schema = SchemaType::new("meters", ["kwh", "volts"]);
        OdhTable::create(
            pool,
            ResourceMeter::unmetered(),
            TableConfig::new(schema).with_batch_size(b).with_mg_group_size(group),
        )
        .unwrap()
    }

    /// Simulate `sweeps` reporting rounds of `n` 15-minute meters.
    fn fill(t: &OdhTable, n: u64, sweeps: usize) {
        for id in 0..n {
            t.register_source(SourceId(id), SourceClass::regular_low(Duration::from_minutes(15)))
                .unwrap();
        }
        for s in 0..sweeps {
            for id in 0..n {
                t.put(&Record::dense(
                    SourceId(id),
                    Timestamp(s as i64 * 900_000_000),
                    [s as f64 + id as f64, 230.0],
                ))
                .unwrap();
            }
        }
        t.flush().unwrap();
    }

    #[test]
    fn pass_moves_mg_points_to_rts() {
        let t = meter_table(50, 100);
        fill(&t, 20, 10); // 200 points in MG
        let (_, _, mg_before) = t.record_counts();
        assert!(mg_before > 0);
        let rep = t.compact().unwrap();
        assert_eq!(rep.mg_points_moved, 200);
        assert!(rep.changed());
        let (rts, irts, mg) = t.record_counts();
        assert_eq!(mg, 0, "old generation drained");
        assert!(rts > 0, "regular meters become RTS");
        assert_eq!(irts, 0);
        assert_eq!(t.stats().batches_reorganized.get(), mg_before);
    }

    #[test]
    fn historical_query_equivalent_before_and_after_drain() {
        let t = meter_table(50, 100);
        fill(&t, 20, 10);
        let before =
            t.historical_scan(SourceId(7), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        assert_eq!(before.len(), 10);
        t.compact().unwrap();
        let after =
            t.historical_scan(SourceId(7), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn slice_query_equivalent_before_and_after_drain() {
        let t = meter_table(50, 100);
        fill(&t, 20, 10);
        let w1 = Timestamp(3 * 900_000_000);
        let w2 = Timestamp(5 * 900_000_000);
        let before = t.slice_scan(w1, w2, &[0], None).unwrap();
        assert_eq!(before.len(), 60); // sweeps 3,4,5 × 20 meters
        t.compact().unwrap();
        let after = t.slice_scan(w1, w2, &[0], None).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn ingest_continues_after_drain() {
        let t = meter_table(10, 100);
        fill(&t, 5, 4);
        t.compact().unwrap();
        // New sweeps land in the fresh MG generation.
        for id in 0..5u64 {
            t.put(&Record::dense(SourceId(id), Timestamp(100 * 900_000_000), [9.0, 9.0])).unwrap();
        }
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(3), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts.last().unwrap().values[0], Some(9.0));
    }

    /// A whole-table read running beside a draining pass must see every
    /// point exactly once, however the two interleave.
    #[test]
    fn reads_during_drain_see_every_point() {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 4096);
        let cfg = TableConfig::new(SchemaType::new("meters", ["kwh", "volts"]))
            .with_batch_size(256)
            .with_mg_group_size(100);
        let t = OdhTable::create(pool, ResourceMeter::unmetered(), cfg).unwrap();
        for id in 0..100u64 {
            t.register_source(SourceId(id), SourceClass::irregular_low()).unwrap();
            let ts: Vec<i64> = (0..1_000).map(|k| k * 1_000_000 + id as i64).collect();
            let col: Vec<Option<f64>> = (0..1_000).map(|k| Some(k as f64)).collect();
            t.put_cols(SourceId(id), &ts, &[col.clone(), col]).unwrap();
        }
        t.flush().unwrap();
        assert!(t.record_counts().2 > 0, "history sealed into MG");
        let count = || -> u64 {
            let grain = Some(crate::table::TimeGrain::Whole);
            let chunks =
                t.scan_columnar(Timestamp::MIN, Timestamp::MAX, &[0], None, &[], grain).unwrap();
            chunks.iter().map(|c| c.summary.as_ref().map_or(c.len() as u64, |s| s.rows)).sum()
        };
        assert_eq!(count(), 100_000);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| loop {
                let last = done.load(std::sync::atomic::Ordering::Acquire);
                assert_eq!(count(), 100_000, "a read during the pass lost rows");
                if last {
                    break;
                }
            });
            assert_eq!(t.compact().unwrap().mg_points_moved, 100_000);
            done.store(true, std::sync::atomic::Ordering::Release);
            reader.join().unwrap();
        });
        assert_eq!(t.record_counts().2, 0, "MG drained");
    }

    #[test]
    fn irregular_low_sources_drain_to_irts() {
        let t = meter_table(10, 100);
        for id in 0..4u64 {
            t.register_source(SourceId(id), SourceClass::irregular_low()).unwrap();
        }
        for s in 0..5i64 {
            for id in 0..4u64 {
                t.put(&Record::dense(
                    SourceId(id),
                    Timestamp(s * 1_380_000_000 + id as i64 * 977),
                    [1.0, 2.0],
                ))
                .unwrap();
            }
        }
        t.flush().unwrap();
        t.compact().unwrap();
        let (rts, irts, mg) = t.record_counts();
        assert_eq!(rts, 0);
        assert!(irts > 0);
        assert_eq!(mg, 0);
        let pts = t.historical_scan(SourceId(2), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 5);
    }

    /// Every source's `(row count, last timestamp, last value)`, once
    /// through its historical scan and once through a whole-table slice
    /// scan — the two scopes that read MG sources differently before and
    /// after a drain.
    fn per_source_tally(t: &OdhTable, sources: u64) -> Vec<[(usize, i64, Option<f64>); 2]> {
        let all = t.slice_scan(Timestamp::MIN, Timestamp::MAX, &[0], None).unwrap();
        (0..sources)
            .map(|s| {
                let hist = t.historical_scan(SourceId(s), Timestamp::MIN, Timestamp::MAX, &[0]);
                let hist = hist.unwrap();
                let slice: Vec<_> = all.iter().filter(|p| p.source == SourceId(s)).collect();
                let last = |n: usize, p: Option<&crate::table::ScanPoint>| {
                    (n, p.map_or(i64::MIN, |p| p.ts.0), p.and_then(|p| p.values[0]))
                };
                [last(hist.len(), hist.last()), last(slice.len(), slice.last().copied())]
            })
            .collect()
    }

    /// A pass that fails part-way — here a no-steal pool that runs out of
    /// clean frames — must leave every row where readers find it. The
    /// frame sweep lands the pool-full error at successive page writes of
    /// one pass: the MG drain's runs, the rewritten fragments, and the
    /// replacement containers themselves.
    #[test]
    fn failed_pass_loses_no_mg_history() {
        const SOURCES: u64 = 48;
        const ROWS: i64 = 160;
        const FIRST: usize = 4;
        for frames in FIRST..200 {
            let pool = BufferPool::new(Arc::new(MemDisk::new()), frames);
            let cfg = TableConfig::new(SchemaType::new("m", ["a", "b"]))
                .with_batch_size(16)
                .with_mg_group_size(8);
            let t = OdhTable::create(pool.clone(), ResourceMeter::unmetered(), cfg).unwrap();
            for s in 0..SOURCES {
                // Even ids ingest through MG, odd ids as small per-source
                // fragments, so the pass both drains and merges.
                let class = if s % 2 == 0 {
                    SourceClass::irregular_low()
                } else {
                    SourceClass::irregular_high()
                };
                t.register_source(SourceId(s), class).unwrap();
            }
            for i in 0..ROWS {
                for s in 0..SOURCES {
                    let ts = Timestamp(i * 60_000_000 + s as i64 * 1_000);
                    // Noisy values, so the rewritten batches span pages.
                    let v = ((i as u64 * 7_919 + s * 104_729) % 1_009) as f64 * 0.37;
                    t.put(&Record::dense(SourceId(s), ts, [v, -v])).unwrap();
                }
                if i % 7 == 6 {
                    t.flush().unwrap();
                }
            }
            t.flush().unwrap();
            let expected = per_source_tally(&t, SOURCES);
            for (s, tally) in expected.iter().enumerate() {
                assert_eq!(tally[0].0, ROWS as usize, "source {s} ingested");
                assert_eq!(tally[0], tally[1], "source {s}: scopes agree before the pass");
            }
            // A checkpoint's write-back: every frame clean, so the pass's
            // own page writes are what fills the pool.
            pool.flush_all().unwrap();
            pool.set_no_steal(true);
            if t.compact().is_ok() {
                let failed = frames - FIRST;
                assert!(failed >= 12, "the sweep failed only {failed} passes");
                return;
            }
            // Write back the failed pass's pages too, so the reads below
            // find clean frames to load into.
            pool.flush_all().unwrap();
            assert_eq!(per_source_tally(&t, SOURCES), expected, "{frames} frames: rows lost");
            pool.set_no_steal(false);
            let rep = t.compact().unwrap();
            assert_eq!(rep.mg_points_moved, SOURCES / 2 * ROWS as u64);
            assert_eq!(t.record_counts().2, 0, "MG drained");
            assert_eq!(per_source_tally(&t, SOURCES), expected, "{frames} frames: pass after");
        }
        panic!("no frame count let the pass succeed under no-steal");
    }

    /// A second pass over data the first left unchanged rewrites nothing:
    /// it reports no change, allocates no page and keeps every container.
    #[test]
    fn second_pass_over_unchanged_data_is_idempotent() {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let cfg = base_cfg().with_mg_group_size(4).with_cold_after(Duration::from_secs(400));
        let t = OdhTable::create(pool.clone(), ResourceMeter::unmetered(), cfg).unwrap();
        fragment(&t, 1, 530, 5, 1_000_000); // merged into 256 + 256 + an 18-row tail
        fragment(&t, 2, 700, 70, 1_000_000); // full-size seals, some demoted cold
        t.register_source(SourceId(3), SourceClass::irregular_high()).unwrap();
        t.put(&Record::dense(SourceId(3), Timestamp(5_000_000), [1.0, 1.0])).unwrap();
        t.flush().unwrap(); // one lone small batch
        for s in 10..14u64 {
            t.register_source(SourceId(s), SourceClass::irregular_low()).unwrap();
            for i in 0..50i64 {
                t.put(&Record::dense(SourceId(s), Timestamp(i * 7_000_000 + s as i64), [1.0, 2.0]))
                    .unwrap();
            }
        }
        t.flush().unwrap();
        t.delete(&crate::delete::DeletePredicate::all_sources(100_000_000, 109_000_000)).unwrap();
        let rows = |s: u64| scan_all(&t, s);
        let before: Vec<_> = [1, 2, 3, 10, 13].map(rows).into();

        let first = t.compact().unwrap();
        assert!(first.changed());
        assert!(first.mg_points_moved > 0 && first.merged_batches > 0);
        assert!(first.demoted_batches > 0 && first.tombstones_retired == 1);
        assert_eq!(t.record_counts().2, 0, "MG drained");
        let ids = || [&t.rts, &t.irts, &t.mg, &t.cold].map(|g| g.read().id());
        let (ids_before, pages_before) = (ids(), pool.disk().num_pages());

        let second = t.compact().unwrap();
        assert!(!second.changed(), "second pass changed something: {second:?}");
        assert_eq!(second.produced_batches, 0);
        assert_eq!(second.copied_batches, second.batches_before);
        assert_eq!(pool.disk().num_pages(), pages_before, "second pass allocated pages");
        assert_eq!(ids(), ids_before, "second pass replaced a container");
        let after: Vec<_> = [1, 2, 3, 10, 13].map(rows).into();
        assert_eq!(after, before);
    }
}
