//! [`OdhTable`] — one schema type's operational store.
//!
//! The facade ties together structure selection (Table 1), ingest buffers,
//! the three containers, and the two canonical access paths the paper
//! optimizes for: **historical queries** (one source, long time window) and
//! **slice queries** (many sources, short time window). Scans merge sealed
//! batches with open ingest buffers — the "dirty read" isolation of §3.

use crate::batch::{summarize_columns, Batch, IrtsBatch, MgBatch, RtsBatch, TagSummary};
use crate::blob::ValueBlob;
use crate::buffer::{Cols, MgBuffer, SourceBuffer};
use crate::cache::{CachedBatch, DecodeCache};
use crate::container::Container;
use crate::delete::{masks_batch, masks_row, DeletePredicate, Tombstone};
use crate::seal::{JobKind, PendingSeal, SealPipeline, Wake};
use crate::select::{ingestion_structure, Structure};
use crate::stats::{MeterIoHook, ReadTally, StorageStats};
use crate::stripe::StripedBuffers;
use crate::wal::Wal;
use odh_btree::{keycodec, KeyBuf};
use odh_compress::column::Policy;
use odh_pager::pool::BufferPool;
use odh_pager::stats::ConcurrencyStats;
use odh_sim::ResourceMeter;
use odh_types::{GroupId, OdhError, Record, Result, SchemaType, SourceClass, SourceId, Timestamp};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Default byte budget of the decoded-batch cache.
pub const DEFAULT_DECODE_CACHE_BYTES: usize = 32 << 20;

/// Default bound of the off-thread seal queue (jobs, not bytes — each job
/// is one buffer's worth of rows, so memory is `depth * batch_size` rows
/// at worst).
pub const DEFAULT_SEAL_QUEUE_DEPTH: usize = 32;

/// Default seal worker count: enough to keep blob encoding off the
/// ingest path without oversubscribing small hosts.
pub(crate) fn default_seal_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4)
}

/// Configuration of one operational table.
#[derive(Debug, Clone)]
pub struct TableConfig {
    pub schema: SchemaType,
    /// `b`: points per batch ("the batch size set by the user", §2).
    pub batch_size: usize,
    /// Compression policy for tag columns.
    pub policy: Policy,
    /// Sources per Mixed-Grouping group (contiguous id blocks — meters in
    /// one feeder area report together).
    pub mg_group_size: u64,
    /// Refuse [`OdhTable::snapshot`] while ingest buffers hold unsealed
    /// points, even when a WAL could replay them. The pre-WAL behaviour,
    /// for deployments that checkpoint without a log.
    pub strict_snapshot: bool,
    /// Byte budget of the decoded-batch cache (see [`crate::cache`]);
    /// 0 disables caching.
    pub decode_cache_bytes: usize,
    /// Worker threads that encode and install sealed batches off the
    /// ingest path (see [`crate::seal`]); `0` seals inline on the
    /// ingesting thread — the pre-pipeline behaviour, kept for ablation.
    /// The pool only starts once [`OdhTable::start_seal_pipeline`] runs
    /// (tables constructed outside an `Arc` always stay inline).
    pub seal_workers: usize,
    /// Bounded seal-queue depth; a full queue falls back to inline
    /// sealing (backpressure, never unbounded memory).
    pub seal_queue_depth: usize,
    /// Sealed batches smaller than this many rows are compaction
    /// candidates; `0` means "smaller than `batch_size`" (any batch a
    /// premature flush truncated). See [`crate::compact`].
    pub compact_min_batch: usize,
    /// Row target of a merged generation; `0` means `4 * batch_size`
    /// (compaction re-encodes candidate runs into windows this big, so
    /// the codec choice and TagSummary blocks see more context).
    pub compact_target_batch: usize,
    /// Age (µs behind the table's max timestamp) after which a batch the
    /// compactor touches is demoted to the cold generation, whose reads
    /// bypass the decode cache; `0` disables the cold tier.
    pub cold_after_us: i64,
    /// Retention TTL (µs behind the table's max timestamp). Batches whose
    /// whole span has expired are dropped by the compactor, and reads
    /// clamp their range to the retention floor; `0` keeps data forever.
    pub retention_ttl_us: i64,
    /// Background compaction period (ms); `0` means no worker — callers
    /// drive [`OdhTable::compact`] explicitly.
    pub compact_interval_ms: u64,
}

impl TableConfig {
    pub fn new(schema: SchemaType) -> TableConfig {
        TableConfig {
            schema,
            batch_size: 256,
            policy: Policy::Lossless,
            mg_group_size: 1000,
            strict_snapshot: false,
            decode_cache_bytes: DEFAULT_DECODE_CACHE_BYTES,
            seal_workers: default_seal_workers(),
            seal_queue_depth: DEFAULT_SEAL_QUEUE_DEPTH,
            compact_min_batch: 0,
            compact_target_batch: 0,
            cold_after_us: 0,
            retention_ttl_us: 0,
            compact_interval_ms: 0,
        }
    }

    pub fn with_batch_size(mut self, b: usize) -> TableConfig {
        assert!(b >= 1);
        self.batch_size = b;
        self
    }

    pub fn with_policy(mut self, p: Policy) -> TableConfig {
        self.policy = p;
        self
    }

    pub fn with_mg_group_size(mut self, g: u64) -> TableConfig {
        assert!(g >= 1);
        self.mg_group_size = g;
        self
    }

    pub fn with_strict_snapshot(mut self, strict: bool) -> TableConfig {
        self.strict_snapshot = strict;
        self
    }

    pub fn with_decode_cache_bytes(mut self, bytes: usize) -> TableConfig {
        self.decode_cache_bytes = bytes;
        self
    }

    /// `0` disables the off-thread pipeline (inline sealing).
    pub fn with_seal_workers(mut self, n: usize) -> TableConfig {
        self.seal_workers = n;
        self
    }

    pub fn with_seal_queue_depth(mut self, d: usize) -> TableConfig {
        assert!(d >= 1);
        self.seal_queue_depth = d;
        self
    }

    /// `0` means "smaller than `batch_size`".
    pub fn with_compact_min_batch(mut self, rows: usize) -> TableConfig {
        self.compact_min_batch = rows;
        self
    }

    /// `0` means `4 * batch_size`.
    pub fn with_compact_target_batch(mut self, rows: usize) -> TableConfig {
        self.compact_target_batch = rows;
        self
    }

    /// Demote batches older than `age` (behind the max ingested timestamp)
    /// to the cold generation on the next compaction.
    pub fn with_cold_after(mut self, age: odh_types::Duration) -> TableConfig {
        assert!(age.micros() >= 0);
        self.cold_after_us = age.micros();
        self
    }

    /// Drop data older than `ttl` behind the max ingested timestamp.
    pub fn with_retention_ttl(mut self, ttl: odh_types::Duration) -> TableConfig {
        assert!(ttl.micros() >= 0);
        self.retention_ttl_us = ttl.micros();
        self
    }

    /// `0` disables the background compactor (manual compaction only).
    pub fn with_compact_interval_ms(mut self, ms: u64) -> TableConfig {
        self.compact_interval_ms = ms;
        self
    }

    /// Resolved small-batch threshold (see [`TableConfig::compact_min_batch`]).
    pub fn compact_min_rows(&self) -> usize {
        if self.compact_min_batch == 0 {
            self.batch_size
        } else {
            self.compact_min_batch
        }
    }

    /// Resolved merged-generation row target.
    pub fn compact_target_rows(&self) -> usize {
        if self.compact_target_batch == 0 {
            self.batch_size.saturating_mul(4)
        } else {
            self.compact_target_batch
        }
    }
}

/// One decoded operational point returned by a scan, with `values`
/// parallel to the scan's requested tag indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPoint {
    pub source: SourceId,
    pub ts: Timestamp,
    pub values: Vec<Option<f64>>,
}

/// The time grain at which [`OdhTable::scan_columnar`] may hand out a
/// sealed batch's seal-time summary in place of its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeGrain {
    /// Any batch inside the scan range.
    Whole,
    /// A batch inside the scan range and inside one time bucket
    /// `[k·width, (k+1)·width)` (µs; `width > 0`).
    Bucket(i64),
}

impl TimeGrain {
    /// Do timestamps `a` and `b` fall in one bucket?
    fn same_bucket(self, a: i64, b: i64) -> bool {
        match self {
            TimeGrain::Whole => true,
            TimeGrain::Bucket(w) => a.div_euclid(w) == b.div_euclid(w),
        }
    }
}

/// A sealed batch's seal-time summary, standing in for its rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Rows in the batch — what `COUNT(*)` sees.
    pub rows: u64,
    /// Timestamps (µs) of the batch's first and last row.
    pub time_range: (i64, i64),
    /// One [`TagSummary`] per requested tag.
    pub tags: Vec<TagSummary>,
}

/// One run of rows surfaced column-wise by [`OdhTable::scan_columnar`]:
/// a sealed batch's in-range span (tag columns shared zero-copy with the
/// decode cache), a sealed batch's summary, or an open ingest buffer
/// packed into owned columns.
#[derive(Debug, Clone)]
pub struct ColumnarChunk {
    /// Per-source batches carry their source here; MG batches and open
    /// MG/seal-queue rows leave it `None` and carry per-row `ids`.
    pub source: Option<SourceId>,
    /// Per-row source ids, parallel to `ts` (MG rows only).
    pub ids: Option<Vec<SourceId>>,
    /// Row timestamps (µs) of this chunk, already clipped to the scan
    /// range; ascending (stably sorted for buffered rows).
    pub ts: Vec<i64>,
    /// Requested tag columns. For sealed batches these are the cache's
    /// full-batch columns and this chunk's rows live at
    /// `start .. start + ts.len()`; owned buffer chunks start at 0.
    pub cols: Vec<Arc<Vec<Option<f64>>>>,
    /// Row offset of this chunk inside `cols`.
    pub start: usize,
    /// `Some` for a sealed batch answered by its summary: `ts`, `ids` and
    /// `cols` are then empty and the summary describes every row.
    pub summary: Option<BatchSummary>,
    /// The chunk's non-NULL values, when it is a whole, unmasked sealed
    /// batch and its seal-time summaries count them.
    whole_points: Option<u64>,
}

impl ColumnarChunk {
    /// Rows in this chunk.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// Timestamps (µs) of the first and last row the chunk stands for.
    pub fn ts_range(&self) -> Option<(i64, i64)> {
        match &self.summary {
            Some(sum) => Some(sum.time_range),
            None => Some((*self.ts.first()?, *self.ts.last()?)),
        }
    }

    /// Source of row `row`.
    fn source_at(&self, row: usize) -> SourceId {
        self.source.unwrap_or_else(|| self.ids.as_ref().expect("mixed chunks carry ids")[row])
    }

    /// Requested tag values of row `row`.
    fn values_at(&self, row: usize) -> impl Iterator<Item = Option<f64>> + '_ {
        self.cols.iter().map(move |c| c[self.start + row])
    }

    /// Keep only the rows `keep(source, ts)` accepts. A chunk that loses
    /// rows is rebuilt with owned columns; otherwise it stays zero-copy.
    fn retain(&mut self, mut keep: impl FnMut(SourceId, i64) -> bool) {
        let rows: Vec<usize> =
            (0..self.len()).filter(|&r| keep(self.source_at(r), self.ts[r])).collect();
        if rows.len() == self.len() {
            return;
        }
        self.ids = self.ids.as_ref().map(|ids| rows.iter().map(|&r| ids[r]).collect());
        self.cols = self
            .cols
            .iter()
            .map(|c| Arc::new(rows.iter().map(|&r| c[self.start + r]).collect()))
            .collect();
        self.ts = rows.iter().map(|&r| self.ts[r]).collect();
        self.start = 0;
        self.whole_points = None;
    }

    /// Non-NULL values in the chunk (what `points_scanned` counts): a
    /// whole batch's from its summaries, otherwise cell by cell.
    fn points(&self) -> u64 {
        let counted = || {
            self.cols
                .iter()
                .map(|c| {
                    c[self.start..self.start + self.ts.len()].iter().filter(|v| v.is_some()).count()
                        as u64
                })
                .sum()
        };
        match self.whole_points {
            Some(n) => {
                debug_assert_eq!(n, counted(), "a whole batch's summaries count its values");
                n
            }
            None => counted(),
        }
    }
}

/// What one read covers.
#[derive(Clone, Copy)]
enum Scope<'a> {
    /// One registered source (`NotFound` otherwise): historical reads.
    Source(SourceId),
    /// Every registered source, or the registered members of a set.
    Sources(Option<&'a HashSet<SourceId>>),
}

/// One unsealed row `(source, ts, projected values)`.
type BufferedRow = (SourceId, i64, Vec<Option<f64>>);

/// The fixed inputs of one read pass.
struct Pass<'a> {
    /// Inclusive time range; `t1` is already clamped to the retention floor.
    t1: i64,
    t2: i64,
    tags: &'a [usize],
    tag_ranges: &'a [(usize, f64, f64)],
    /// Source restriction; `None` reads every source.
    filter: Option<&'a HashSet<SourceId>>,
    /// Active tombstones, snapshotted once per pass.
    tombs: Arc<Vec<Tombstone>>,
    /// Whether (and at which grain) batches may be summarized.
    summaries: Option<TimeGrain>,
}

impl Pass<'_> {
    fn wants(&self, source: SourceId) -> bool {
        self.filter.is_none_or(|f| f.contains(&source))
    }

    /// Is this row deleted? Masked rows are counted into the tally.
    fn masks(&self, source: SourceId, ts: i64, tally: &mut ReadTally) -> bool {
        let masked = masks_row(&self.tombs, source, ts);
        tally.tombstone_masked_rows += masked as u64;
        masked
    }

    /// The in-memory rows the scope wants and no tombstone deletes.
    fn select<'t>(
        &'t self,
        rows: impl Iterator<Item = BufferedRow> + 't,
        tally: &'t mut ReadTally,
    ) -> impl Iterator<Item = BufferedRow> + 't {
        rows.filter(move |(id, t, _)| self.wants(*id) && !self.masks(*id, *t, tally))
    }
}

/// Where a read pass delivers what it enumerates: the three consumers.
enum Sink {
    /// Row scans: one [`ScanPoint`] per row.
    Rows(Vec<ScanPoint>),
    /// Columnar scans: one chunk per sealed batch or in-memory run.
    Chunks(Vec<ColumnarChunk>),
    /// LAST reads: chunks as for `Chunks`, plus what they have settled.
    Latest(Vec<ColumnarChunk>, Newest),
}

impl Sink {
    /// Take the selected rows of one sealed batch.
    fn chunk(&mut self, ch: ColumnarChunk) {
        match self {
            Sink::Rows(out) => out.extend((0..ch.len()).map(|row| ScanPoint {
                source: ch.source_at(row),
                ts: Timestamp(ch.ts[row]),
                values: ch.values_at(row).collect(),
            })),
            Sink::Chunks(out) => out.push(ch),
            // An MG batch comes after every per-source batch, so noting
            // its rows could settle nothing still to come.
            Sink::Latest(out, newest) => {
                if ch.source.is_some() {
                    newest.note(&ch);
                }
                out.push(ch);
            }
        }
    }

    /// Take one in-memory run: an open, side or MG buffer, or a queued
    /// seal. `source` is set for a per-source buffer.
    fn run(
        &mut self,
        source: Option<SourceId>,
        rows: impl Iterator<Item = BufferedRow>,
        tags_n: usize,
    ) {
        match self {
            Sink::Rows(out) => out.extend(rows.map(|(source, t, values)| ScanPoint {
                source,
                ts: Timestamp(t),
                values,
            })),
            Sink::Chunks(out) => out.extend(owned_chunk(tags_n, source, rows)),
            Sink::Latest(out, newest) => {
                if let Some(ch) = owned_chunk(tags_n, source, rows) {
                    newest.note(&ch);
                    out.push(ch);
                }
            }
        }
    }
}

/// What a LAST read has settled so far, per source: the newest
/// timestamp of an emitted (clipped, unmasked) row, and for each
/// requested tag the newest timestamp at which an emitted row holds a
/// value. A sealed batch of the source ending strictly before all of
/// them can change no LAST.
struct Newest {
    tags: usize,
    /// Per source: `[newest row, newest value of each requested tag]`.
    by_source: HashMap<SourceId, Vec<i64>>,
}

impl Newest {
    fn new(tags: usize) -> Newest {
        Newest { tags, by_source: HashMap::new() }
    }

    /// Record the rows of an emitted chunk, whose timestamps ascend.
    fn note(&mut self, ch: &ColumnarChunk) {
        let slots = 1 + self.tags;
        let mut raise = |source: SourceId, slot: usize, t: i64| {
            let newest = self.by_source.entry(source).or_insert_with(|| vec![i64::MIN; slots]);
            newest[slot] = newest[slot].max(t);
        };
        match (ch.source, &ch.ids) {
            (Some(source), _) => {
                if let Some(&t) = ch.ts.last() {
                    raise(source, 0, t);
                }
                for (tag, col) in ch.cols.iter().enumerate() {
                    let rows = &col[ch.start..ch.start + ch.len()];
                    if let Some(row) = rows.iter().rposition(Option::is_some) {
                        raise(source, 1 + tag, ch.ts[row]);
                    }
                }
            }
            (None, Some(ids)) => {
                for (row, &source) in ids.iter().enumerate() {
                    raise(source, 0, ch.ts[row]);
                    for (tag, col) in ch.cols.iter().enumerate() {
                        if col[ch.start + row].is_some() {
                            raise(source, 1 + tag, ch.ts[row]);
                        }
                    }
                }
            }
            (None, None) => {}
        }
    }

    /// Can a batch of `source` whose rows all lie at or before `end`
    /// change no LAST?
    fn settles(&self, source: SourceId, end: i64) -> bool {
        self.by_source.get(&source).is_some_and(|newest| newest.iter().all(|&t| t > end))
    }

    /// What a LAST read needs of a batch of `source` ending at `end`,
    /// where `holds(tag)` (the tag's position among the requested ones)
    /// says whether the batch has a value of that tag: its values while
    /// some tag unsettled past `end` has one here; otherwise its newest
    /// row, valueless, while the source's newest row is unsettled past
    /// `end` — that row may be the source's newest, which LAST over the
    /// timestamp or id and the source's group need even if every value
    /// is NULL; otherwise nothing.
    fn needs(&self, source: SourceId, end: i64, holds: impl Fn(usize) -> bool) -> Need {
        let newest = self.by_source.get(&source);
        let open = |slot: usize| newest.is_none_or(|n| n[slot] <= end);
        if (0..self.tags).any(|tag| open(1 + tag) && holds(tag)) {
            Need::Values
        } else if open(0) {
            Need::Row
        } else {
            Need::Nothing
        }
    }
}

/// See [`Newest::needs`].
enum Need {
    Nothing,
    Row,
    Values,
}

/// Seqlock-style counters bracketing every buffer→container transition.
///
/// A sealer increments `started` *before* rows leave their ingest buffer
/// and `done` once the sealed batch is queryable in its container, so
/// `started == done` means no points are mid-flight. Composite readers
/// (scans and aggregates merge containers with open buffers) snapshot the
/// epoch, run, and retry if any seal began meanwhile — without this a
/// reader can walk a container before the insert and the buffer after the
/// take, missing whole batches (counts go backwards under live writers).
#[derive(Default)]
pub(crate) struct SealSync {
    started: std::sync::atomic::AtomicU64,
    done: std::sync::atomic::AtomicU64,
}

impl SealSync {
    /// Writer side: RAII ticket held from before the buffer take until the
    /// batch is queryable (dropped on error paths too). The compactor
    /// holds one across its generation swaps (MG drain included) for the
    /// same reason: any composite read that overlaps the move retries, so
    /// a reader can never see a row in both its old and new place (or in
    /// neither).
    pub(crate) fn begin(&self) -> SealTicket<'_> {
        self.started.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        SealTicket(self)
    }

    /// Reader side: the current epoch, or `None` while a seal is in flight.
    fn stable(&self) -> Option<u64> {
        let s = self.started.load(std::sync::atomic::Ordering::SeqCst);
        (self.done.load(std::sync::atomic::Ordering::SeqCst) == s).then_some(s)
    }

    /// Reader side: true when no seal has started since `epoch`.
    fn still(&self, epoch: u64) -> bool {
        self.started.load(std::sync::atomic::Ordering::SeqCst) == epoch
    }
}

pub(crate) struct SealTicket<'a>(&'a SealSync);

impl Drop for SealTicket<'_> {
    fn drop(&mut self) {
        self.0.done.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
    }
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct SourceMeta {
    pub class: SourceClass,
    pub ingest: Structure,
    pub group: GroupId,
}

/// One fully-encoded, serialized batch ready for a container insert. The
/// expensive work (sort, blob encode, summary, serialize) happens while
/// building one of these — installing is a key/value insert, so seal
/// workers hold the reader-blocking ticket only across the install.
struct BuiltBatch {
    key: Vec<u8>,
    bytes: Vec<u8>,
    span: i64,
    structure: Structure,
}

/// Process-unique table instance id: the `inst` metric label that keeps
/// same-named tables on different servers from aliasing in the registry.
static NEXT_TABLE_INST: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// Span histograms of one table (taxonomy in DESIGN.md §Observability).
pub(crate) struct TableObs {
    pub registry: Arc<odh_obs::Registry>,
    /// Batch seal latency (encode + container insert, queue wait excluded).
    pub seal: Arc<odh_obs::Histogram>,
    /// MG-drain stage of a compaction pass (decode and per-source regroup
    /// of the sealed MG batches); observed only by passes that drain.
    pub reorg: Arc<odh_obs::Histogram>,
    /// Jobs handed to the off-thread seal pipeline.
    pub queue_enqueued: Arc<odh_obs::Counter>,
    /// Full-queue fallbacks to inline sealing (backpressure events).
    pub queue_fallback: Arc<odh_obs::Counter>,
    /// Seal jobs taken off the ingest path but not yet installed.
    pub queue_depth: Arc<odh_obs::Gauge>,
    /// Enqueue → worker-pickup latency.
    pub queue_wait: Arc<odh_obs::Histogram>,
    /// Columns sealed per codec choice, indexed by codec id.
    pub codec_cols: [Arc<odh_obs::Counter>; 4],
    /// Whole-table compaction latency (select + merge + swap).
    pub compact: Arc<odh_obs::Histogram>,
    /// Completed compaction passes.
    pub compact_runs: Arc<odh_obs::Counter>,
    /// Small batches consumed by merges.
    pub compact_merged: Arc<odh_obs::Counter>,
    /// Whole batches dropped by TTL retention (no decode, no summary).
    pub compact_expired: Arc<odh_obs::Counter>,
    /// Batches demoted to the cold generation.
    pub compact_demoted: Arc<odh_obs::Counter>,
    /// Batches currently resident in the cold generation.
    pub cold_batches: Arc<odh_obs::Gauge>,
    /// Approximate resident bytes of per-source metadata (the sharded
    /// registry) — the per-source fixed cost the scale harness tracks.
    pub source_registry_bytes: Arc<odh_obs::Gauge>,
    /// Approximate resident bytes of open ingest buffers (open + side).
    pub open_buffer_bytes: Arc<odh_obs::Gauge>,
    /// This table's last published contributions to the two memory
    /// gauges. The gauges are keyed by table *name*, so several servers'
    /// tables share one handle; each table publishes the delta against
    /// what it last reported and the shared gauge sums correctly.
    published_registry_bytes: std::sync::atomic::AtomicI64,
    published_buffer_bytes: std::sync::atomic::AtomicI64,
}

impl TableObs {
    fn new(meter: &ResourceMeter, table: &str) -> TableObs {
        let registry = meter.registry().clone();
        let labels = [("table", table)];
        let codec_cols = crate::blob::SealScratch::codec_names().map(|codec| {
            registry.counter("odh_seal_codec_columns_total", &[("table", table), ("codec", codec)])
        });
        TableObs {
            seal: registry.histogram("odh_seal_seconds", &labels),
            reorg: registry.histogram("odh_reorg_seconds", &labels),
            queue_enqueued: registry.counter("odh_seal_queue_enqueued_total", &labels),
            queue_fallback: registry.counter("odh_seal_queue_fallback_total", &labels),
            queue_depth: registry.gauge("odh_seal_queue_depth", &labels),
            queue_wait: registry.histogram("odh_seal_queue_wait_seconds", &labels),
            codec_cols,
            compact: registry.histogram("odh_compact_seconds", &labels),
            compact_runs: registry.counter("odh_compact_runs_total", &labels),
            compact_merged: registry.counter("odh_compact_merged_batches_total", &labels),
            compact_expired: registry.counter("odh_compact_expired_batches_total", &labels),
            compact_demoted: registry.counter("odh_compact_demoted_batches_total", &labels),
            cold_batches: registry.gauge("odh_compact_cold_batches", &labels),
            source_registry_bytes: registry.gauge("odh_table_source_registry_bytes", &labels),
            open_buffer_bytes: registry.gauge("odh_table_open_buffer_bytes", &labels),
            published_registry_bytes: std::sync::atomic::AtomicI64::new(0),
            published_buffer_bytes: std::sync::atomic::AtomicI64::new(0),
            registry,
        }
    }
}

/// The operational store for one schema type.
pub struct OdhTable {
    cfg: TableConfig,
    pool: Arc<BufferPool>,
    meter: Arc<ResourceMeter>,
    /// Hot per-source generations. Like `mg`, each is an immutable-batch
    /// container behind a generation lock: the compactor builds a merged
    /// replacement off to the side and swaps it in under the write lock
    /// (see [`crate::compact`]).
    pub(crate) rts: RwLock<Arc<Container>>,
    pub(crate) irts: RwLock<Arc<Container>>,
    pub(crate) mg: RwLock<Arc<Container>>,
    /// Cold generation: batches the compactor demoted for age. Reads
    /// bypass the decode cache and load lazily through the pager.
    pub(crate) cold: RwLock<Arc<Container>>,
    /// Per-source metadata — class/structure/group, sealed low-water
    /// marks, seal watermark, and late-sealed marks — packed into one
    /// record per source and striped identically to `buffers` (see
    /// [`crate::registry`]). Replaces the five global maps the table
    /// used to keep (`sources`, `sealed`, `mg_sealed`, `watermarks`,
    /// `late_sealed`), which serialized every ingest path on shared
    /// mutexes and leaked entries after TTL retention dropped a source.
    pub(crate) registry: crate::registry::SourceRegistry,
    /// Open ingest buffers, lock-striped so concurrent writers to
    /// different sources don't contend (see [`crate::stripe`]).
    buffers: StripedBuffers,
    /// Seal seqlock: keeps buffer→container moves atomic to readers.
    pub(crate) seals: SealSync,
    /// Serializes compaction passes with each other and with
    /// [`OdhTable::snapshot`] (a checkpoint must not capture one
    /// generation pre-swap and another post-swap).
    pub(crate) compact_lock: parking_lot::Mutex<()>,
    /// Background compactor, set once by [`OdhTable::start_compactor`].
    pub(crate) compactor: std::sync::OnceLock<crate::compact::CompactorHandle>,
    /// Set once a compaction pass has moved MG rows into per-source
    /// batches: slice scans must then also consult the per-source
    /// containers for MG sources.
    pub(crate) reorganized: std::sync::atomic::AtomicBool,
    pub(crate) stats: StorageStats,
    /// Span histograms + registry handle (shared via the meter).
    pub(crate) obs: TableObs,
    /// Decoded sealed-batch cache shared by every scan of this table.
    pub(crate) cache: DecodeCache,
    /// Off-thread seal pipeline, set once by
    /// [`OdhTable::start_seal_pipeline`]. `None` means inline sealing.
    seal_pipe: std::sync::OnceLock<Arc<SealPipeline>>,
    /// Write-ahead log binding, set once by [`OdhTable::attach_wal`].
    wal: std::sync::OnceLock<WalBinding>,
    /// The WAL table id recorded in the snapshot this table was restored
    /// from, if any — recovery re-attaches the log under the same id.
    pub(crate) restored_wal_table_id: std::sync::OnceLock<u16>,
    /// Side buffers for late arrivals (DESIGN.md "Hostile ingest"): rows
    /// older than their source's seal watermark accumulate here instead of
    /// polluting the in-order open buffer, and seal as small IRTS batches
    /// the compactor later merges back into time-ordered generations.
    side_buffers: StripedBuffers,
    /// Active tombstones, masking matching rows on every read tier until
    /// a compaction pass resolves them physically. Swapped under a seal
    /// ticket so optimistic read passes always see a consistent list.
    tombstones: RwLock<Arc<Vec<Tombstone>>>,
    /// Highest delete LSN ever applied — the replay-idempotence guard for
    /// `WalEntry::Delete` frames (a retired tombstone must not resurrect
    /// when its frame replays after a crash).
    pub(crate) tombstone_sealed: std::sync::atomic::AtomicU64,
}

struct WalBinding {
    wal: Arc<Wal>,
    table_id: u16,
}

/// A recovered WAL point frame being replayed: its LSN, and whether it
/// was logged as a late (side-buffer) point.
#[derive(Debug, Clone, Copy)]
struct Replay {
    lsn: u64,
    late: bool,
}

/// One source's rows on their way into the table (`cols.col(tag)[row]`).
struct Run<'a> {
    source: SourceId,
    meta: SourceMeta,
    ts: &'a [i64],
    cols: Cols<'a>,
    replay: Option<Replay>,
}

impl OdhTable {
    pub fn create(
        pool: Arc<BufferPool>,
        meter: Arc<ResourceMeter>,
        cfg: TableConfig,
    ) -> Result<OdhTable> {
        pool.set_hook(Arc::new(MeterIoHook(meter.clone())));
        let stats = StorageStats::new();
        let inst = NEXT_TABLE_INST.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        stats.register_into(meter.registry(), &cfg.schema.name, inst);
        let obs = TableObs::new(&meter, &cfg.schema.name);
        Ok(OdhTable {
            rts: RwLock::new(Arc::new(Container::create(pool.clone(), Structure::Rts)?)),
            irts: RwLock::new(Arc::new(Container::create(pool.clone(), Structure::Irts)?)),
            mg: RwLock::new(Arc::new(Container::create(pool.clone(), Structure::Mg)?)),
            // The cold generation holds demoted per-source batches of
            // either kind; batches self-describe, so the container's
            // structure tag is nominal.
            cold: RwLock::new(Arc::new(Container::create(pool.clone(), Structure::Irts)?)),
            registry: crate::registry::SourceRegistry::new(Arc::new(ConcurrencyStats::default())),
            buffers: StripedBuffers::with_obs(
                Arc::new(ConcurrencyStats::default()),
                meter.registry().clone(),
                meter.registry().histogram("odh_ingest_shard_acquire_seconds", &[]),
            ),
            seals: SealSync::default(),
            compact_lock: parking_lot::Mutex::new(()),
            compactor: std::sync::OnceLock::new(),
            reorganized: std::sync::atomic::AtomicBool::new(false),
            stats,
            obs,
            cache: DecodeCache::new(cfg.decode_cache_bytes),
            seal_pipe: std::sync::OnceLock::new(),
            wal: std::sync::OnceLock::new(),
            restored_wal_table_id: std::sync::OnceLock::new(),
            side_buffers: StripedBuffers::new(Arc::new(ConcurrencyStats::default())),
            tombstones: RwLock::new(Arc::new(Vec::new())),
            tombstone_sealed: std::sync::atomic::AtomicU64::new(0),
            cfg,
            pool,
            meter,
        })
    }

    /// Assemble a table from recovered parts (see `crate::snapshot`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cfg: TableConfig,
        pool: Arc<BufferPool>,
        meter: Arc<ResourceMeter>,
        rts: Container,
        irts: Container,
        mg: Container,
        cold: Container,
        reorganized: bool,
        stats: StorageStats,
    ) -> OdhTable {
        let inst = NEXT_TABLE_INST.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        stats.register_into(meter.registry(), &cfg.schema.name, inst);
        let obs = TableObs::new(&meter, &cfg.schema.name);
        obs.cold_batches.set(cold.record_count() as i64);
        OdhTable {
            rts: RwLock::new(Arc::new(rts)),
            irts: RwLock::new(Arc::new(irts)),
            mg: RwLock::new(Arc::new(mg)),
            cold: RwLock::new(Arc::new(cold)),
            registry: crate::registry::SourceRegistry::new(Arc::new(ConcurrencyStats::default())),
            buffers: StripedBuffers::with_obs(
                Arc::new(ConcurrencyStats::default()),
                meter.registry().clone(),
                meter.registry().histogram("odh_ingest_shard_acquire_seconds", &[]),
            ),
            seals: SealSync::default(),
            compact_lock: parking_lot::Mutex::new(()),
            compactor: std::sync::OnceLock::new(),
            reorganized: std::sync::atomic::AtomicBool::new(reorganized),
            stats,
            obs,
            cache: DecodeCache::new(cfg.decode_cache_bytes),
            seal_pipe: std::sync::OnceLock::new(),
            wal: std::sync::OnceLock::new(),
            restored_wal_table_id: std::sync::OnceLock::new(),
            side_buffers: StripedBuffers::new(Arc::new(ConcurrencyStats::default())),
            tombstones: RwLock::new(Arc::new(Vec::new())),
            tombstone_sealed: std::sync::atomic::AtomicU64::new(0),
            cfg,
            pool,
            meter,
        }
    }

    /// The WAL table id this table was checkpointed under, for re-attaching
    /// the log after a restore. `None` for fresh or WAL-less tables.
    pub fn restored_wal_table_id(&self) -> Option<u16> {
        self.restored_wal_table_id.get().copied()
    }

    /// Bind this table to the server's WAL under `table_id`. `announce`
    /// appends a table-definition frame (table creation); recovery re-binds
    /// without announcing (the definition is already in the log or the
    /// catalog). May be called at most once.
    pub fn attach_wal(&self, wal: Arc<Wal>, table_id: u16, announce: bool) -> Result<()> {
        if announce {
            wal.append_table_def(table_id, &crate::snapshot::TableConfigSnapshot::from(&self.cfg))?;
        }
        self.wal
            .set(WalBinding { wal, table_id })
            .map_err(|_| OdhError::Config("table already has a WAL attached".into()))
    }

    /// The WAL table id, when a WAL is attached.
    pub fn wal_table_id(&self) -> Option<u16> {
        self.wal.get().map(|b| b.table_id)
    }

    fn wal_binding(&self) -> Option<&WalBinding> {
        self.wal.get()
    }

    /// Points currently sitting in unsealed ingest buffers (open + side).
    pub fn buffered_points(&self) -> u64 {
        self.buffers.points() + self.side_buffers.points()
    }

    /// Shard-lock and parallelism counters for this table's ingest path.
    pub fn concurrency(&self) -> &Arc<ConcurrencyStats> {
        self.buffers.concurrency()
    }

    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    pub fn schema(&self) -> &SchemaType {
        &self.cfg.schema
    }

    pub fn stats(&self) -> &StorageStats {
        &self.stats
    }

    pub fn meter(&self) -> &Arc<ResourceMeter> {
        &self.meter
    }

    pub(crate) fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    fn meta_for(&self, id: SourceId, class: SourceClass) -> SourceMeta {
        SourceMeta {
            class,
            ingest: ingestion_structure(class),
            group: GroupId((id.0 / self.cfg.mg_group_size) as u32),
        }
    }

    /// Declare a data source (the configuration component's metadata).
    pub fn register_source(&self, id: SourceId, class: SourceClass) -> Result<()> {
        // Log before inserting, under the registry shard lock: a
        // registration is only acknowledged once its frame is in the WAL
        // stream, and every point of this source is appended after it.
        self.registry.register(id, self.meta_for(id, class), || match self.wal_binding() {
            Some(b) => b.wal.append_source(b.table_id, id, &class).map(|_| ()),
            None => Ok(()),
        })
    }

    /// Re-register a source during recovery without re-logging it (its
    /// frame is already in the WAL or the catalog). Idempotent.
    pub fn adopt_source(&self, id: SourceId, class: SourceClass) {
        self.registry.adopt(id, self.meta_for(id, class));
    }

    pub fn source_count(&self) -> usize {
        self.registry.len()
    }

    pub fn source_class(&self, id: SourceId) -> Option<SourceClass> {
        self.registry.class_of(id.0)
    }

    /// All registered source ids (ascending).
    pub fn source_ids(&self) -> Vec<SourceId> {
        self.registry.ids()
    }

    /// Shard-lock counters for the metadata registry (separate from the
    /// ingest-buffer counters returned by [`OdhTable::concurrency`]).
    pub fn registry_concurrency(&self) -> &Arc<ConcurrencyStats> {
        self.registry.concurrency()
    }

    /// Approximate resident bytes of per-source metadata.
    pub fn registry_bytes(&self) -> usize {
        self.registry.approx_bytes()
    }

    /// Approximate resident bytes of open ingest buffers (open + side).
    pub fn open_buffer_bytes(&self) -> usize {
        self.buffers.approx_bytes() + self.side_buffers.approx_bytes()
    }

    /// Refresh the memory-accounting gauges. Called from the flush and
    /// compact paths (and by callers at will) rather than per put —
    /// walking every shard is too expensive for the hot path.
    pub fn refresh_memory_gauges(&self) {
        // Delta-publish (swap + add): the gauge handle is shared between
        // every server's table of this name, so an absolute `set` would
        // be last-writer-wins. The swap keeps concurrent refreshes of
        // the same table coherent — deltas telescope to the latest value.
        let reg = self.registry.approx_bytes() as i64;
        let prev =
            self.obs.published_registry_bytes.swap(reg, std::sync::atomic::Ordering::Relaxed);
        self.obs.source_registry_bytes.add(reg - prev);
        let buf = self.open_buffer_bytes() as i64;
        let prev = self.obs.published_buffer_bytes.swap(buf, std::sync::atomic::Ordering::Relaxed);
        self.obs.open_buffer_bytes.add(buf - prev);
    }

    /// Ingest one operational record: a one-row run (see
    /// [`OdhTable::put_cols`]). With a WAL attached the record is appended
    /// to the log (write-ahead) before it enters its buffer; durability is
    /// acknowledged at the next [`Wal::sync`].
    pub fn put(&self, record: &Record) -> Result<()> {
        let ts = [record.ts.micros()];
        self.ingest(record.source, &ts, Cols::Row(&record.values), None).map(|_| ())
    }

    /// Ingest a columnar run of `ts.len()` records for one source
    /// (`cols[tag][row]`), with source lookup, metering, shard locking,
    /// and WAL stripe locking paid per chunk instead of per row. Ingested
    /// rows, WAL bytes, statistics, and late-row routing do not depend on
    /// how a source's rows are cut into runs.
    pub fn put_cols(&self, source: SourceId, ts: &[i64], cols: &[Vec<Option<f64>>]) -> Result<()> {
        self.ingest(source, ts, Cols::Run(cols), None).map(|_| ())
    }

    /// Replay one recovered WAL point frame: re-buffers the point under
    /// its original LSN without re-logging it — a late frame into the
    /// side buffer, any other into the buffer it originally came from —
    /// and skips frames whose row was sealed into a container before the
    /// checkpoint (idempotent replay, one low-water mark per buffer kind).
    /// Returns whether the point was applied.
    pub fn replay(&self, record: &Record, lsn: u64, late: bool) -> Result<bool> {
        let ts = [record.ts.micros()];
        self.ingest(record.source, &ts, Cols::Row(&record.values), Some(Replay { lsn, late }))
    }

    /// The one ingest path: every row enters a table here, as part of a
    /// run of one source's rows. A run is cut into chunks, each taken under
    /// one shard lock: up to the room left in its buffer, and at every
    /// change between rows behind the source's watermark (late, bound for
    /// the side buffer) and rows at or after it. Returns false for a
    /// replayed frame that was already sealed.
    fn ingest(
        &self,
        source: SourceId,
        ts: &[i64],
        cols: Cols<'_>,
        replay: Option<Replay>,
    ) -> Result<bool> {
        let n = ts.len();
        if n == 0 {
            return Ok(true);
        }
        self.cfg.schema.check_arity(cols.len())?;
        if cols.iter().any(|c| c.len() != n) {
            return Err(OdhError::Config("put_cols: ragged column lengths".into()));
        }
        let meta = self.registry.require(source)?;
        self.meter.cpu(self.meter.costs.point_encode * (n * cols.len()) as f64);
        if let Some(r) = replay {
            let sealed = match (r.late, meta.ingest) {
                (true, _) => self.registry.late_sealed_lsn(source.0),
                (false, Structure::Mg) => self.registry.mg_sealed_lsn(meta.group.0),
                (false, _) => self.registry.sealed_lsn(source.0),
            };
            if r.lsn <= sealed {
                return Ok(false);
            }
        }
        let run = Run { source, meta, ts, cols, replay };
        let mut off = 0;
        while off < n {
            off = match meta.ingest {
                _ if replay.is_some_and(|r| r.late) => self.ingest_side(&run, off..n)?,
                Structure::Mg => self.ingest_mg(&run, off)?,
                _ => self.ingest_source(&run, off)?,
            };
        }
        let points: u64 =
            cols.iter().map(|c| c.iter().filter(|v| v.is_some()).count() as u64).sum();
        let (lo, hi) = ts.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        self.stats.note_put_run(lo, hi, n as u64, points);
        Ok(true)
    }

    /// One chunk of an RTS/IRTS run from row `off`; returns the row the
    /// next chunk starts at. A row older than the source's watermark would
    /// sort behind rows already sealed, so a chunk of such late rows
    /// detours to the side buffer instead of skewing the open buffer's
    /// next batch. The watermark is read under the shard lock, where takes
    /// raise it, so routing depends on arrival order alone. Replayed
    /// frames never re-route: a recovered open-buffer row re-enters the
    /// open buffer it came from.
    fn ingest_source(&self, run: &Run, off: usize) -> Result<usize> {
        let (source, ts, b) = (run.source, run.ts, self.cfg.batch_size);
        let mut g = self.buffers.lock_source(source.0);
        let wm = if run.replay.is_none() { self.registry.watermark(source.0) } else { None };
        let late = |t: &&i64| wm.is_some_and(|wm| **t < wm);
        // A side chunk holds at most `b` rows, so no more are looked at.
        let late_rows = ts[off..ts.len().min(off + b)].iter().take_while(late).count();
        if late_rows > 0 {
            drop(g);
            return self.ingest_side(run, off..off + late_rows);
        }
        let buf =
            g.entry(source.0).or_insert_with(|| SourceBuffer::new(self.cfg.schema.tag_count(), b));
        let room = b.saturating_sub(buf.len()).max(1);
        let end = off + ts[off..ts.len().min(off + room)].iter().take_while(|t| !late(t)).count();
        let (first, last) = self.log_rows(run, false, off..end)?;
        buf.push_run(ts, run.cols, off..end, first, last);
        if buf.len() >= b {
            // Ticket before the take: readers must find these rows in the
            // buffer, the seal queue, or the container at every instant.
            let _seal = self.seals.begin();
            let job = buf.take(JobKind::Source { source, meta: run.meta });
            self.raise_watermark(source, &job.ts);
            // Seal outside the shard lock: blob encoding is the expensive
            // part, and other sources on this shard keep ingesting.
            drop(g);
            self.seal(job)?;
        }
        Ok(end)
    }

    /// Late rows `rows` of a run into the source's side buffer, up to its
    /// room; returns the row the next chunk starts at. Logged as late
    /// frames under the side shard lock; a full side buffer seals inline
    /// as one small IRTS batch — late runs are fragmented by nature, and
    /// the compactor, not the seal pipeline, is where they merge back
    /// into full time-ordered generations.
    fn ingest_side(&self, run: &Run, rows: std::ops::Range<usize>) -> Result<usize> {
        let source = run.source;
        let mut g = self.side_buffers.lock_source(source.0);
        let buf = g
            .entry(source.0)
            .or_insert_with(|| SourceBuffer::new(self.cfg.schema.tag_count(), self.cfg.batch_size));
        let room = self.cfg.batch_size.saturating_sub(buf.len()).max(1);
        let end = rows.end.min(rows.start + room);
        let (first, last) = self.log_rows(run, true, rows.start..end)?;
        buf.push_run(run.ts, run.cols, rows.start..end, first, last);
        self.stats.ooo_side_rows.add((end - rows.start) as u64);
        if buf.len() >= self.cfg.batch_size {
            let _seal = self.seals.begin();
            let job = buf.take(JobKind::Side { source, meta: run.meta });
            drop(g);
            self.seal_job(job, None)?;
        }
        Ok(end)
    }

    /// One chunk of an MG run from row `off`; returns the row the next
    /// chunk starts at. MG ingest needs no late routing: batch keys,
    /// `max_span` index probes, and the seal-time sort already tolerate
    /// cross-source disorder.
    fn ingest_mg(&self, run: &Run, off: usize) -> Result<usize> {
        let group = run.meta.group;
        let mut g = self.buffers.lock_mg(group.0);
        let buf = g
            .entry(group.0)
            .or_insert_with(|| MgBuffer::new(self.cfg.schema.tag_count(), self.cfg.batch_size));
        let room = self.cfg.batch_size.saturating_sub(buf.len()).max(1);
        let end = run.ts.len().min(off + room);
        let (first, last) = self.log_rows(run, false, off..end)?;
        buf.push_run(run.source, run.ts, run.cols, off..end, first, last);
        if buf.len() >= self.cfg.batch_size {
            let _seal = self.seals.begin();
            let job = buf.take(group);
            drop(g);
            self.seal(job)?;
        }
        Ok(end)
    }

    /// WAL LSN bounds of `rows` entering a buffer: a replayed frame keeps
    /// its LSN; live rows are appended now, inside the caller's shard lock,
    /// so per-source LSN order equals buffer order — which is what lets
    /// recovery reproduce arrival order exactly.
    fn log_rows(&self, run: &Run, late: bool, rows: std::ops::Range<usize>) -> Result<(u64, u64)> {
        match (run.replay, self.wal_binding()) {
            (Some(r), _) => Ok((r.lsn, r.lsn)),
            (None, Some(b)) => {
                b.wal.append_run(b.table_id, run.source.0, late, run.ts, run.cols, rows)
            }
            (None, None) => Ok((0, 0)),
        }
    }

    /// Raise `source`'s seal watermark to the newest row of a full buffer
    /// being taken for sealing (`max` — it never goes down): rows arriving
    /// below it from now on are late and detour to the side buffer.
    /// Disorder *within* the open buffer (the accepted disorder window: up
    /// to `batch_size` rows since the last seal) is not late — the
    /// seal-time sort absorbs it. Called under the source's shard lock at
    /// the take itself, not when a seal worker gets to the batch, so
    /// whether a row is late depends on arrival order and `batch_size`
    /// alone.
    fn raise_watermark(&self, source: SourceId, ts: &[i64]) {
        if let Some(&t) = ts.iter().max() {
            self.registry.note_watermark(source.0, t);
        }
    }

    /// The active tombstone list (a cheap shared snapshot).
    pub fn tombstones(&self) -> Arc<Vec<Tombstone>> {
        self.tombstones.read().clone()
    }

    /// Delete by predicate. The predicate is logged to the WAL (durable
    /// at the next [`Wal::sync`], like ingest) and installed as a
    /// [`Tombstone`] that masks matching rows — already-sealed and
    /// late-arriving alike — on every read tier until a compaction pass
    /// resolves it physically (see [`crate::delete`]).
    pub fn delete(&self, pred: &DeletePredicate) -> Result<()> {
        if pred.t2 < pred.t1 {
            return Err(OdhError::Config(format!(
                "delete range inverted: [{}, {}]",
                pred.t1, pred.t2
            )));
        }
        let lsn = match self.wal_binding() {
            Some(b) => b.wal.append_delete(b.table_id, pred)?,
            None => 0,
        };
        self.apply_tombstone(pred.clone(), lsn);
        Ok(())
    }

    /// Install a tombstone under a seal ticket, so any optimistic read
    /// pass that overlapped the install retries against the new list.
    fn apply_tombstone(&self, pred: DeletePredicate, lsn: u64) {
        let _t = self.seals.begin();
        let mut g = self.tombstones.write();
        if lsn > 0 && g.iter().any(|t| t.lsn == lsn) {
            return;
        }
        let mut list = g.as_ref().clone();
        list.push(Tombstone { pred, lsn });
        *g = Arc::new(list);
        self.tombstone_sealed.fetch_max(lsn, std::sync::atomic::Ordering::SeqCst);
        self.stats.tombstone_deletes.inc();
    }

    /// Replay one recovered delete frame. Frames at or below the
    /// checkpoint's applied-delete mark are skipped — without this, a
    /// tombstone retired by compaction would resurrect on replay and mask
    /// rows legitimately re-inserted into its range. Returns whether the
    /// tombstone was installed.
    pub fn replay_delete(&self, pred: &DeletePredicate, lsn: u64) -> bool {
        if lsn > 0 && lsn <= self.tombstone_sealed.load(std::sync::atomic::Ordering::SeqCst) {
            return false;
        }
        self.apply_tombstone(pred.clone(), lsn);
        true
    }

    /// Re-install a checkpointed tombstone during restore: no WAL append,
    /// no delete-counter bump (the stats snapshot already carries it), no
    /// seal ticket (the table has no readers yet).
    pub(crate) fn restore_tombstone(&self, t: Tombstone) {
        let mut g = self.tombstones.write();
        let mut list = g.as_ref().clone();
        list.push(t);
        *g = Arc::new(list);
    }

    /// Drop every tombstone for which `keep` returns false (compaction
    /// retirement). The caller must hold a seal ticket so any read pass
    /// overlapping the swap retries against the new list. Returns how
    /// many tombstones were retired.
    pub(crate) fn retire_tombstones(&self, keep: impl Fn(&Tombstone) -> bool) -> u64 {
        let mut g = self.tombstones.write();
        let before = g.len();
        if before == 0 {
            return 0;
        }
        let list: Vec<Tombstone> = g.iter().filter(|t| keep(t)).cloned().collect();
        let retired = (before - list.len()) as u64;
        if retired > 0 {
            *g = Arc::new(list);
        }
        retired
    }

    /// Seal every open buffer into batches (end of ingest, or checkpoints).
    /// Shards are drained one at a time; sealing happens outside any shard
    /// lock, so ingest to untouched shards proceeds during a flush.
    ///
    /// Without a WAL this also write-backs dirty pages. With one, the pool
    /// is deliberately *not* flushed: the on-disk image must keep matching
    /// the last checkpoint (see [`odh_pager::pool::BufferPool::set_no_steal`]),
    /// and sealed batches remain recoverable via the log until the next
    /// checkpoint truncates it.
    pub fn flush(&self) -> Result<()> {
        {
            // One ticket for the whole drain: `drain_sources` empties every
            // buffer before the first batch lands, so readers must wait it
            // out. Scoped so the ticket is released before the pipeline
            // barrier below — workers take their own install tickets.
            let _seal = self.seals.begin();
            let open = self.buffers.drain_sources(|id, buf| {
                let (source, meta) = (SourceId(id), self.drained_meta(id));
                let job = buf.take(JobKind::Source { source, meta });
                self.raise_watermark(source, &job.ts);
                job
            });
            let mg = self.buffers.drain_mg();
            let side = self.side_buffers.drain_sources(|id, buf| {
                buf.take(JobKind::Side { source: SourceId(id), meta: self.drained_meta(id) })
            });
            for job in open.into_iter().chain(mg).chain(side) {
                self.seal_job(job, None)?;
            }
        }
        // Barrier: every batch handed to the seal pipeline before this
        // flush is installed (or its error surfaced) before we return.
        self.drain_seals()?;
        self.refresh_memory_gauges();
        if self.wal_binding().is_some() {
            return Ok(());
        }
        self.pool.flush_all()
    }

    /// Metadata for a drained buffer's source. A source pruned between
    /// the drain and this lookup (TTL prune racing a flush) falls back to
    /// a synthesized IRTS meta: sealing any source's rows as IRTS is
    /// always valid — the side path does exactly that for every class —
    /// and the compactor re-types merged windows later.
    fn drained_meta(&self, id: u64) -> SourceMeta {
        self.registry.meta(id).unwrap_or(SourceMeta {
            class: SourceClass::irregular_high(),
            ingest: Structure::Irts,
            group: GroupId((id / self.cfg.mg_group_size) as u32),
        })
    }

    /// Wait for every queued/in-flight seal job to finish. The first
    /// worker error since the last drain is returned here (the rows of a
    /// failed job stay readable in the pending set and recoverable via
    /// the WAL).
    pub(crate) fn drain_seals(&self) -> Result<()> {
        match self.seal_pipe.get() {
            Some(p) => p.drain(),
            None => Ok(()),
        }
    }

    /// Seal jobs queued but not yet processed by the off-thread pipeline
    /// (0 when sealing inline). Exposed so admission control — the network
    /// front door's credit frames — can surface seal backlog to clients.
    pub fn seal_queue_depth(&self) -> usize {
        self.seal_pipe.get().map(|p| p.pending_len()).unwrap_or(0)
    }

    /// Smallest WAL LSN still sitting in an open ingest buffer *or* an
    /// unfinished seal job, if any — the bound on how far a checkpoint may
    /// truncate the log.
    pub fn min_open_lsn(&self) -> Option<u64> {
        let buffered = self.buffers.min_first_lsn();
        let side = self.side_buffers.min_first_lsn();
        let queued = self.seal_pipe.get().and_then(|p| p.min_first_lsn());
        [buffered, side, queued].into_iter().flatten().min()
    }

    /// Rows and non-NULL points in open buffers, side buffers included
    /// (for lenient snapshots).
    pub(crate) fn buffered_totals(&self) -> (u64, u64) {
        let (r1, p1) = self.buffers.buffered_totals();
        let (r2, p2) = self.side_buffers.buffered_totals();
        (r1 + r2, p1 + p2)
    }

    /// Hand a taken buffer to the seal pipeline, or seal it inline when
    /// there is no pipeline or its queue is full (backpressure).
    fn seal(&self, job: PendingSeal) -> Result<()> {
        let job = match self.seal_pipe.get() {
            Some(pipe) => match pipe.try_enqueue(job) {
                Ok(()) => {
                    self.obs.queue_enqueued.inc();
                    self.obs.queue_depth.set(pipe.pending_len() as i64);
                    return Ok(());
                }
                Err(job) => {
                    self.obs.queue_fallback.inc();
                    job
                }
            },
            None => job,
        };
        self.seal_job(job, None)
    }

    /// Start the off-thread seal pipeline: `seal_workers` threads that
    /// encode and install the full source and MG buffers the ingest path
    /// hands off (side buffers always seal inline). A no-op
    /// when `seal_workers == 0` (inline/ablation mode) or when the pipeline
    /// is already running. Workers hold only a `Weak` reference, so
    /// dropping the last `Arc<OdhTable>` shuts the pool down.
    pub fn start_seal_pipeline(self: &Arc<Self>) {
        if self.cfg.seal_workers == 0 || self.seal_pipe.get().is_some() {
            return;
        }
        let pipe = Arc::new(SealPipeline::new(self.cfg.seal_queue_depth.max(1)));
        if self.seal_pipe.set(pipe.clone()).is_err() {
            return;
        }
        for i in 0..self.cfg.seal_workers {
            let pipe = pipe.clone();
            let weak = Arc::downgrade(self);
            std::thread::Builder::new()
                .name(format!("odh-seal-{i}"))
                .spawn(move || loop {
                    match pipe.next_job(std::time::Duration::from_millis(50)) {
                        Wake::Shutdown => return,
                        Wake::Idle => {
                            if weak.strong_count() == 0 {
                                return;
                            }
                        }
                        Wake::Job(job) => {
                            let Some(table) = weak.upgrade() else {
                                pipe.complete(Ok(()));
                                return;
                            };
                            let wait = job.enqueued_at.elapsed();
                            table.obs.queue_wait.record(wait.as_nanos() as u64);
                            let res = table.seal_job(PendingSeal::clone(&job), Some(&pipe));
                            if res.is_ok() {
                                table.obs.queue_depth.set(pipe.pending_len() as i64);
                            }
                            pipe.complete(res);
                        }
                    }
                })
                .expect("spawn seal worker");
        }
    }

    /// Seal jobs currently queued or in flight — readers merge these rows
    /// exactly like open ingest buffers (they left their buffer but are
    /// not yet in a container).
    fn pending_seals(&self) -> Vec<Arc<PendingSeal>> {
        self.seal_pipe.get().map(|p| p.pending_snapshot()).unwrap_or_default()
    }

    /// The one seal routine, for source, MG and side jobs alike: encode
    /// the job's rows into batches, install them, and advance the replay
    /// low-water mark the rows were logged under, so recovery never
    /// replays them a second time. Inline callers (a full buffer, the
    /// queue-full fallback, `flush`) already hold the seal ticket of the
    /// take. A seal worker passes its pipeline and takes its own ticket
    /// across the install and the job's removal from the pending set, so
    /// to readers the rows move from "pending" to "sealed" atomically.
    fn seal_job(&self, job: PendingSeal, worker: Option<&SealPipeline>) -> Result<()> {
        let _span = self.obs.registry.span("seal", &self.obs.seal);
        let PendingSeal { id, kind, ts, ids, cols, last_lsn, .. } = job;
        let install = |batches: &[BuiltBatch]| -> Result<()> {
            let _ticket = worker.map(|_| self.seals.begin());
            self.install_built(batches)?;
            if let Some(pipe) = worker {
                pipe.remove_pending(id);
            }
            Ok(())
        };
        match kind {
            JobKind::Source { source, meta } => {
                install(&self.build_source_batches(source, meta, ts, cols)?)?;
                self.registry.advance_sealed(source.0, last_lsn);
            }
            JobKind::Mg { group } => {
                install(self.build_mg_batch(group, ts, ids, cols)?.as_slice())?;
                self.registry.advance_mg_sealed(group.0, last_lsn);
            }
            JobKind::Side { source, meta } => {
                // Late rows seal as IRTS even for RTS-class sources: a late
                // run rarely has exact spacing, and the compactor re-types
                // merged windows anyway.
                let irts = SourceMeta { ingest: Structure::Irts, ..meta };
                install(&self.build_source_batches(source, irts, ts, cols)?)?;
                self.registry.advance_late_sealed(source.0, last_lsn);
                self.stats.ooo_side_batches.inc();
            }
        }
        Ok(())
    }

    /// Encode one source's rows into serialized RTS batches (splitting at
    /// interval breaks) or one IRTS batch. Pure build — nothing becomes
    /// visible until [`OdhTable::install_built`].
    fn build_source_batches(
        &self,
        source: SourceId,
        meta: SourceMeta,
        mut ts: Vec<i64>,
        mut cols: Vec<Vec<Option<f64>>>,
    ) -> Result<Vec<BuiltBatch>> {
        if ts.is_empty() {
            return Ok(Vec::new());
        }
        sort_rows(&mut ts, None, &mut cols);
        let mut out = Vec::new();
        match (meta.ingest, meta.class.interval()) {
            (Structure::Rts, Some(interval)) => {
                let dt = interval.micros();
                // Split into maximal runs of exact `dt` spacing; each run is
                // one RTS batch (timestamps implicit).
                let mut run_start = 0usize;
                for i in 1..=ts.len() {
                    let breaks = i == ts.len() || ts[i] - ts[i - 1] != dt;
                    if !breaks {
                        continue;
                    }
                    let run_ts = &ts[run_start..i];
                    let run_cols: Vec<Vec<Option<f64>>> =
                        cols.iter().map(|c| c[run_start..i].to_vec()).collect();
                    let blob = ValueBlob::encode(run_ts, &run_cols, self.cfg.policy);
                    let batch = RtsBatch {
                        source,
                        begin: run_ts[0],
                        interval: dt,
                        count: run_ts.len() as u32,
                        blob,
                        summaries: Some(summarize_columns(&run_cols)),
                    };
                    self.note_batch(&batch.blob, &run_cols);
                    out.push(BuiltBatch {
                        key: batch.key(),
                        bytes: batch.serialize(),
                        span: batch.end() - batch.begin,
                        structure: Structure::Rts,
                    });
                    run_start = i;
                }
            }
            _ => {
                // Irregular (or regular source mis-declared without an
                // interval): one IRTS batch.
                let blob = ValueBlob::encode(&ts, &cols, self.cfg.policy);
                let batch = IrtsBatch {
                    source,
                    begin: ts[0],
                    end: *ts.last().unwrap(),
                    timestamps: ts,
                    blob,
                    summaries: Some(summarize_columns(&cols)),
                };
                self.note_batch(&batch.blob, &cols);
                let span = batch.end - batch.begin;
                out.push(BuiltBatch {
                    key: batch.key(),
                    bytes: batch.serialize(),
                    span,
                    structure: Structure::Irts,
                });
            }
        }
        self.note_codec_counts();
        Ok(out)
    }

    /// Encode one MG group's rows into a serialized MG batch.
    fn build_mg_batch(
        &self,
        group: GroupId,
        mut ts: Vec<i64>,
        mut ids: Vec<SourceId>,
        mut cols: Vec<Vec<Option<f64>>>,
    ) -> Result<Option<BuiltBatch>> {
        if ts.is_empty() {
            return Ok(None);
        }
        sort_rows(&mut ts, Some(&mut ids), &mut cols);
        let blob = ValueBlob::encode(&ts, &cols, self.cfg.policy);
        let batch = MgBatch {
            group,
            begin: ts[0],
            end: *ts.last().unwrap(),
            ids,
            timestamps: ts,
            blob,
            summaries: Some(summarize_columns(&cols)),
        };
        self.note_batch(&batch.blob, &cols);
        let span = batch.end - batch.begin;
        self.note_codec_counts();
        Ok(Some(BuiltBatch {
            key: batch.key(),
            bytes: batch.serialize(),
            span,
            structure: Structure::Mg,
        }))
    }

    /// Install pre-serialized batches into their containers. Fast (no
    /// encoding) — the seal pipeline calls this under a seal ticket.
    fn install_built(&self, batches: &[BuiltBatch]) -> Result<()> {
        // Hold the generation lock across each insert: the compactor swaps
        // generations (MG included) under the write lock, so an insert can
        // never land in an already-swapped container unseen — it either
        // completes before the swap (and the compactor's latecomer pass
        // carries it over) or starts after and goes to the fresh
        // generation.
        for b in batches {
            let g = match b.structure {
                Structure::Rts => self.rts.read(),
                Structure::Irts => self.irts.read(),
                Structure::Mg => self.mg.read(),
            };
            self.charge_batch_write(&g);
            g.insert(&b.key, &b.bytes, b.span)?;
        }
        Ok(())
    }

    /// Drain the thread-local codec tallies accumulated while encoding
    /// into the per-codec column counters.
    pub(crate) fn note_codec_counts(&self) {
        let counts = crate::blob::with_tls_scratch(|s| s.take_codec_counts());
        for (c, n) in self.obs.codec_cols.iter().zip(counts) {
            if n > 0 {
                c.add(n);
            }
        }
    }

    fn note_batch(&self, blob: &ValueBlob, cols: &[Vec<Option<f64>>]) {
        let raw: u64 =
            cols.iter().map(|c| c.iter().filter(|v| v.is_some()).count() as u64 * 8).sum();
        self.stats.batches_written.inc();
        self.stats.blob_bytes.add(blob.len() as u64);
        self.stats.raw_bytes.add(raw);
    }

    pub(crate) fn charge_batch_write(&self, container: &Container) {
        let c = &self.meter.costs;
        self.meter.cpu(c.btree_node_visit * container.index_height() as f64 + c.btree_leaf_insert);
    }

    /// Historical query: all points of `source` with `t1 <= ts <= t2`,
    /// projected to `tags`, in time order (Table 1's third column).
    pub fn historical_scan(
        &self,
        source: SourceId,
        t1: Timestamp,
        t2: Timestamp,
        tags: &[usize],
    ) -> Result<Vec<ScanPoint>> {
        self.scan_rows(Scope::Source(source), t1, t2, tags)
    }

    /// Slice query: points of many sources within a short window
    /// (Table 1's second column). `sources`: optional restriction.
    pub fn slice_scan(
        &self,
        t1: Timestamp,
        t2: Timestamp,
        tags: &[usize],
        sources: Option<&HashSet<SourceId>>,
    ) -> Result<Vec<ScanPoint>> {
        self.scan_rows(Scope::Sources(sources), t1, t2, tags)
    }

    /// The row consumer: every row of `scope`, sorted by `(ts, source)`.
    /// The sort is stable: rows equal on both keep read-pass order, which
    /// lists one source's rows alike whatever the scope, so a one-source
    /// scan and a scan of every source order them the same.
    fn scan_rows(
        &self,
        scope: Scope<'_>,
        t1: Timestamp,
        t2: Timestamp,
        tags: &[usize],
    ) -> Result<Vec<ScanPoint>> {
        let Sink::Rows(mut out) =
            self.read_consistent(scope, t1, t2, tags, &[], None, || Sink::Rows(vec![]))?
        else {
            unreachable!("a row read yields rows")
        };
        out.sort_by_key(|p| (p.ts, p.source));
        let points: u64 =
            out.iter().map(|p| p.values.iter().filter(|v| v.is_some()).count() as u64).sum();
        self.stats.points_scanned.add(points);
        Ok(out)
    }

    /// Columnar slice scan: the rows of [`OdhTable::slice_scan`] surfaced
    /// as [`ColumnarChunk`]s — one per sealed batch (tag columns shared
    /// zero-copy with the decode cache) plus owned chunks for open ingest
    /// buffers and queued seals. Chunks arrive in container order, not
    /// global timestamp order; rows within a chunk ascend by timestamp.
    /// Vectorized SQL execution re-applies residual filters, so no
    /// per-row filtering happens here beyond the time clip and the
    /// optional `sources` restriction — but `tag_ranges` still zone-prunes
    /// whole sealed batches whose per-tag zone bounds cannot intersect
    /// every `(tag, lo, hi)` range, without decoding their blobs (the
    /// paper's §6 future work, "proper indexing to reduce BLOB scanning
    /// for queries on attribute values"). Pruning only removes batches
    /// that can contain no match, so residual re-checks stay sound.
    ///
    /// With `summaries`, a sealed batch lying wholly inside `[t1, t2]` and
    /// inside one bucket of the grain comes back as its seal-time
    /// [`BatchSummary`] instead of its rows, without decoding — unless
    /// its rows need a per-row look: an MG batch under a `sources`
    /// restriction (it interleaves other sources) or a batch a tombstone
    /// overlaps (a summary cannot subtract deleted rows). Folding the
    /// chunks equals folding the rows of the same scan without
    /// `summaries`, except that floating-point sums may associate
    /// differently.
    pub fn scan_columnar(
        &self,
        t1: Timestamp,
        t2: Timestamp,
        tags: &[usize],
        sources: Option<&HashSet<SourceId>>,
        tag_ranges: &[(usize, f64, f64)],
        summaries: Option<TimeGrain>,
    ) -> Result<Vec<ColumnarChunk>> {
        if let Some(TimeGrain::Bucket(w)) = summaries {
            if w <= 0 {
                return Err(OdhError::Config(format!("bucket width must be positive, got {w}")));
            }
        }
        let scope = Scope::Sources(sources);
        let sink = || Sink::Chunks(vec![]);
        let Sink::Chunks(out) =
            self.read_consistent(scope, t1, t2, tags, tag_ranges, summaries, sink)?
        else {
            unreachable!("a columnar read yields chunks")
        };
        Ok(self.note_points(out))
    }

    /// Columnar historical scan: the rows of
    /// [`OdhTable::historical_scan`] as [`ColumnarChunk`]s, zone-pruned by
    /// `tag_ranges` like [`OdhTable::scan_columnar`], in
    /// read order, under the same one-source scope: `NotFound` for an
    /// unregistered source, and every per-source generation read whatever
    /// the source's class. No summaries.
    pub fn historical_columnar(
        &self,
        source: SourceId,
        t1: Timestamp,
        t2: Timestamp,
        tags: &[usize],
        tag_ranges: &[(usize, f64, f64)],
    ) -> Result<Vec<ColumnarChunk>> {
        let scope = Scope::Source(source);
        let sink = || Sink::Chunks(vec![]);
        let Sink::Chunks(out) =
            self.read_consistent(scope, t1, t2, tags, tag_ranges, None, sink)?
        else {
            unreachable!("a columnar read yields chunks")
        };
        Ok(self.note_points(out))
    }

    /// [`OdhTable::scan_columnar`] for a fold whose only aggregates are
    /// LAST: greatest `(ts, source)` per requested tag, over every source
    /// or per source. It may leave out any row of a per-source structure
    /// that, in every requested tag where it holds a value, is outdone
    /// by a returned row of its source at a strictly later timestamp
    /// (with no tag requested: any row with a returned later row). So a
    /// source's buffered rows are read first, then its sealed batches
    /// newest-first; a batch is neither fetched once the rows already
    /// returned settle it nor decoded when its unsettled tags are all
    /// NULL, and its chunk keeps only the rows no later row of it
    /// outdoes. MG batches are returned whole. Folding LAST over the
    /// chunks equals folding it over the chunks of `scan_columnar`.
    pub fn scan_columnar_last(
        &self,
        t1: Timestamp,
        t2: Timestamp,
        tags: &[usize],
        sources: Option<&HashSet<SourceId>>,
    ) -> Result<Vec<ColumnarChunk>> {
        let scope = Scope::Sources(sources);
        let sink = || Sink::Latest(vec![], Newest::new(tags.len()));
        let Sink::Latest(out, _) = self.read_consistent(scope, t1, t2, tags, &[], None, sink)?
        else {
            unreachable!("a LAST read yields chunks")
        };
        Ok(self.note_points(out))
    }

    /// Count a columnar read's non-NULL values into `points_scanned`.
    fn note_points(&self, chunks: Vec<ColumnarChunk>) -> Vec<ColumnarChunk> {
        let points: u64 = chunks.iter().map(ColumnarChunk::points).sum();
        self.stats.points_scanned.add(points);
        chunks
    }

    /// Read everything `scope` covers in `[t1, t2]` into a fresh sink:
    /// one optimistic [`OdhTable::read_pass`] under the seal seqlock,
    /// retried until no buffer→container transition overlapped it.
    /// Retries are rare (a seal must land mid-read) and each pass starts
    /// from scratch, so merged container+buffer reads observe every point
    /// exactly once.
    ///
    /// Read-path attribution (cache probes, decodes, summary answers) is
    /// tallied per pass and committed to [`StorageStats`] only for the
    /// pass whose result is returned, so discarded retries never inflate
    /// the counters — they stay exact under concurrent sealing.
    #[allow(clippy::too_many_arguments)]
    fn read_consistent(
        &self,
        scope: Scope<'_>,
        t1: Timestamp,
        t2: Timestamp,
        tags: &[usize],
        tag_ranges: &[(usize, f64, f64)],
        summaries: Option<TimeGrain>,
        sink: impl Fn() -> Sink,
    ) -> Result<Sink> {
        loop {
            let Some(epoch) = self.seals.stable() else {
                std::thread::yield_now();
                continue;
            };
            let mut tally = ReadTally::default();
            let mut out = sink();
            let res =
                self.read_pass(scope, t1, t2, tags, tag_ranges, summaries, &mut tally, &mut out);
            if res.is_err() || self.seals.still(epoch) {
                tally.commit(&self.stats);
                // Install this pass's decode-cache admissions in the
                // order the scan produced them (eviction order matters
                // when a big scan overflows the budget), then the
                // columns it decoded inside already-shared entries.
                let mut admitted: Vec<_> = tally.admissions.into_iter().collect();
                admitted.sort_unstable_by_key(|(_, (order, _))| *order);
                for (key, (_, entry)) in admitted {
                    self.cache.insert(key, entry);
                }
                for ((_, tag), (entry, col)) in tally.fills {
                    entry.install_col(tag, col);
                }
                return res.map(|()| out);
            }
        }
    }

    /// One optimistic pass over every place a row of `scope` can live,
    /// each visited once, in this order:
    ///
    /// 1. the per-source generations (hot RTS, hot IRTS, cold) — all of
    ///    them whatever a source's class, since the compactor re-types
    ///    merged windows and drains MG history there;
    /// 2. the open and side buffers of the per-source structures;
    /// 3. per MG group, its sealed batches then its open group buffer;
    /// 4. rows handed to the seal pipeline but not yet installed.
    ///
    /// A LAST read ([`Sink::Latest`]) visits 4 and 2 first, then each
    /// source's sealed batches newest-first across the generations, and
    /// leaves out a batch once what it emitted settles the batch (see
    /// [`Newest`]); MG groups are read whole.
    ///
    /// Sealed batches go through [`OdhTable::read_batch`]; in-memory rows
    /// (dirty-read isolation) are clipped, filtered and tombstone-masked
    /// here. Only valid if no seal overlapped the pass (see [`SealSync`]
    /// and [`OdhTable::read_consistent`]).
    #[allow(clippy::too_many_arguments)]
    fn read_pass(
        &self,
        scope: Scope<'_>,
        t1: Timestamp,
        t2: Timestamp,
        tags: &[usize],
        tag_ranges: &[(usize, f64, f64)],
        summaries: Option<TimeGrain>,
        tally: &mut ReadTally,
        sink: &mut Sink,
    ) -> Result<()> {
        // Partition elimination: which per-source histories and MG groups
        // the scope touches. One source always descends the per-source
        // generations, reorganized or not.
        let only: HashSet<SourceId>;
        let (filter, reorganized) = match scope {
            Scope::Source(s) => {
                self.registry.require(s)?;
                only = [s].into_iter().collect();
                (Some(&only), true)
            }
            Scope::Sources(f) => (f, self.reorganized.load(std::sync::atomic::Ordering::Acquire)),
        };
        let (per_source, groups) = self.registry.partition(filter, reorganized);
        let pass = Pass {
            t1: self.clamp_retention(t1.micros()),
            t2: t2.micros(),
            tags,
            tag_ranges,
            filter,
            tombs: self.tombstones(),
            summaries,
        };
        let latest = matches!(sink, Sink::Latest(..));
        if latest {
            self.read_pending(&pass, tally, sink);
            self.read_buffers(&pass, &per_source, tally, sink);
        }
        let gens = self.read_gens();
        let mut batches = self.per_source_batches(&pass, &gens, &per_source)?;
        if latest {
            batches.sort_unstable_by_key(|&(sid, begin, g, _)| (sid, std::cmp::Reverse(begin), g));
        }
        for (sid, begin, g, rid) in batches {
            let (container, cold) = &gens[g];
            if let Sink::Latest(_, newest) = &*sink {
                if newest.settles(sid, begin.saturating_add(container.max_span())) {
                    continue;
                }
            }
            self.read_batch(&pass, container, rid, *cold, tally, sink)?;
        }
        if !latest {
            self.read_buffers(&pass, &per_source, tally, sink);
        }
        let mg = self.mg.read().clone();
        for gid in groups {
            for (_, rid) in self.descend(&mg, KeyBuf::new().push_u32(gid), &pass)? {
                self.read_batch(&pass, &mg, rid, false, tally, sink)?;
            }
            let g = self.buffers.lock_mg(gid);
            if let Some(buf) = g.get(&gid) {
                let rows = buf.rows_in_range(pass.t1, pass.t2, tags, None);
                sink.run(None, pass.select(rows, tally), tags.len());
            }
        }
        if !latest {
            self.read_pending(&pass, tally, sink);
        }
        Ok(())
    }

    /// `(source, begin, generation, rid)` of every sealed batch of
    /// `per_source` (sorted) in `gens` whose key can overlap the pass's
    /// range, generation by generation in key order.
    ///
    /// One walk over a generation's index visits each record once, where
    /// the per-source descents pay a root-to-leaf path each; the walk is
    /// taken when a generation's records are at most
    /// [`DESCENT_COST_PER_LEVEL`] × sources × index height. The walk
    /// keeps exactly the keys the descents reach, so both fetch the same
    /// batches.
    fn per_source_batches(
        &self,
        pass: &Pass,
        gens: &[(Arc<Container>, bool)],
        per_source: &[SourceId],
    ) -> Result<Vec<(SourceId, i64, usize, u64)>> {
        let mut out = Vec::new();
        for (g, (container, _)) in gens.iter().enumerate() {
            let records = container.record_count();
            if per_source.is_empty() || records == 0 {
                continue;
            }
            let descents = per_source.len() as u64 * u64::from(container.index_height());
            if records <= DESCENT_COST_PER_LEVEL.saturating_mul(descents) {
                self.meter.cpu(self.meter.costs.buffer_hit * records as f64);
                let lo = pass.t1.saturating_sub(container.max_span());
                for (key, rid) in container.keyed_rids(None, None)? {
                    let (sid, begin) = source_key(&key);
                    if (lo..=pass.t2).contains(&begin) && per_source.binary_search(&sid).is_ok() {
                        out.push((sid, begin, g, rid));
                    }
                }
            } else {
                for &sid in per_source {
                    let prefix = KeyBuf::new().push_u64(sid.0);
                    for (key, rid) in self.descend(container, prefix, pass)? {
                        out.push((sid, source_key(&key).1, g, rid));
                    }
                }
            }
        }
        Ok(out)
    }

    /// The open and side buffers of `per_source`.
    fn read_buffers(
        &self,
        pass: &Pass,
        per_source: &[SourceId],
        tally: &mut ReadTally,
        sink: &mut Sink,
    ) {
        for sid in per_source {
            for buffers in [&self.buffers, &self.side_buffers] {
                let g = buffers.lock_source(sid.0);
                if let Some(buf) = g.get(&sid.0) {
                    let rows =
                        buf.rows_in_range(pass.t1, pass.t2, pass.tags).map(|(t, v)| (*sid, t, v));
                    sink.run(Some(*sid), pass.select(rows, tally), pass.tags.len());
                }
            }
        }
    }

    /// Rows handed to the seal pipeline but not yet installed.
    fn read_pending(&self, pass: &Pass, tally: &mut ReadTally, sink: &mut Sink) {
        for job in self.pending_seals() {
            let rows = job.rows_in_range(pass.t1, pass.t2, pass.tags, None);
            sink.run(None, pass.select(rows, tally), pass.tags.len());
        }
    }

    /// `(key, rid)` of the batches keyed under `prefix` (a source or an MG
    /// group) that can overlap the pass's range: one index descent,
    /// starting `max_span` early so a batch that began before `t1` is not
    /// missed.
    fn descend(
        &self,
        container: &Container,
        prefix: KeyBuf,
        pass: &Pass,
    ) -> Result<Vec<(Vec<u8>, u64)>> {
        let lo = prefix.clone().push_i64(pass.t1.saturating_sub(container.max_span())).build();
        let hi = prefix.push_i64(pass.t2).build();
        self.meter.cpu(self.meter.costs.btree_node_visit * container.index_height() as f64);
        container.keyed_rids(Some(&lo), Some(&hi))
    }

    /// Fetch one sealed batch and put it through the one admission check
    /// — time reject, zone pruning, source filter — then hand the sink
    /// its summary (when the pass allows and it answers the whole batch)
    /// or its in-range rows as one chunk: zero-copy with the decode cache
    /// unless the source filter or a tombstone drops some of them.
    fn read_batch(
        &self,
        pass: &Pass,
        container: &Container,
        rid: u64,
        cold: bool,
        tally: &mut ReadTally,
        sink: &mut Sink,
    ) -> Result<()> {
        let entry = self.fetch_cached(container, rid, cold, tally)?;
        let batch = &entry.batch;
        let (begin, end) = batch.time_range();
        if end < pass.t1 || begin > pass.t2 {
            return Ok(());
        }
        // Zone-map pruning: a conjunctive tag range that cannot intersect
        // this batch's bounds (or hits an all-NULL column, which no
        // comparison matches) rules the whole batch out — header-only
        // work. Applied on cache hits too, so the cached path emits
        // exactly what the uncached path would.
        for &(tag, lo, hi) in pass.tag_ranges {
            if batch.blob().tag_bounds(tag)?.is_none_or(|(bmin, bmax)| bmax < lo || bmin > hi) {
                tally.batches_zone_pruned += 1;
                return Ok(());
            }
        }
        let source = batch.source();
        if source.is_some_and(|s| !pass.wants(s)) {
            return Ok(());
        }
        // A LAST read decodes the batch only for a requested tag that it
        // has not settled past the batch's end and that the batch holds a
        // value of, by its seal-time summary (a v1 record has none and is
        // read). A source whose newest row out is not newer than the
        // batch still gets the batch's newest row, valueless.
        if let (Sink::Latest(_, newest), Some(sid)) = (&*sink, source) {
            let holds = |i: usize| batch.summaries().is_none_or(|s| s[pass.tags[i]].count > 0);
            match newest.needs(sid, end, holds) {
                Need::Values => {}
                Need::Nothing => return Ok(()),
                Need::Row => {
                    let lo = entry.ts.partition_point(|&t| t < pass.t1);
                    let hi = entry.ts.partition_point(|&t| t <= pass.t2);
                    let newest_row =
                        entry.ts[lo..hi].iter().rev().find(|&&t| !pass.masks(sid, t, tally));
                    if let Some(&t) = newest_row {
                        sink.chunk(ColumnarChunk {
                            source,
                            ids: None,
                            ts: vec![t],
                            cols: pass.tags.iter().map(|_| Arc::new(vec![None])).collect(),
                            start: 0,
                            summary: None,
                            whole_points: None,
                        });
                    }
                    return Ok(());
                }
            }
        }
        // A filtered MG batch interleaves foreign sources, and a summary
        // cannot subtract deleted rows: both need a per-row look.
        let per_row = (source.is_none() && pass.filter.is_some())
            || masks_batch(&pass.tombs, source, begin, end);
        // The summary-or-decode rule: a batch wholly inside the range and
        // inside one bucket of the grain is answered by its summary.
        let whole = begin >= pass.t1 && end <= pass.t2;
        let summarize =
            pass.summaries.is_some_and(|g| !per_row && whole && g.same_bucket(begin, end));
        if let Some(sums) = batch.summaries().filter(|_| summarize) {
            tally.summary_answered_batches += 1;
            sink.chunk(ColumnarChunk {
                source,
                ids: None,
                ts: Vec::new(),
                cols: Vec::new(),
                start: 0,
                summary: Some(BatchSummary {
                    rows: batch.n_points() as u64,
                    time_range: (begin, end),
                    tags: pass.tags.iter().map(|&t| sums[t].clone()).collect(),
                }),
                whole_points: None,
            });
            return Ok(());
        }
        let cols = self.project_cached(&entry, pass.tags, tally)?;
        // Seal sorts rows by timestamp, so the in-range span is contiguous.
        let mut lo = entry.ts.partition_point(|&t| t < pass.t1);
        let hi = entry.ts.partition_point(|&t| t <= pass.t2);
        // A LAST read hands out only the rows of a source's batch that no
        // later row outdoes.
        let latest = source.is_some() && matches!(sink, Sink::Latest(..));
        if latest && !per_row {
            lo += newest_from(&entry.ts[lo..hi], &cols, lo);
        }
        let ids = match batch {
            Batch::Mg(b) => Some(b.ids[lo..hi].to_vec()),
            _ => None,
        };
        // A whole batch that no row filter touches holds exactly the
        // values its seal-time summaries count.
        let whole_points = batch
            .summaries()
            .filter(|_| !per_row && lo == 0 && hi == entry.ts.len())
            .map(|sums| pass.tags.iter().map(|&t| sums[t].count).sum());
        let mut chunk = ColumnarChunk {
            source,
            ids,
            ts: entry.ts[lo..hi].to_vec(),
            cols,
            start: lo,
            summary: None,
            whole_points,
        };
        if per_row {
            chunk.retain(|src, t| pass.wants(src) && !pass.masks(src, t, tally));
            if latest {
                let from = newest_from(&chunk.ts, &chunk.cols, chunk.start);
                chunk.ts.drain(..from);
                chunk.start += from;
            }
        }
        if !chunk.is_empty() {
            sink.chunk(chunk);
        }
        Ok(())
    }

    /// Fetch a sealed batch through the decode cache: a hit returns the
    /// shared entry (decoded columns and all); a miss deserializes the
    /// record, admits it, and lets the caller decode lazily.
    ///
    /// `cold` fetches bypass the cache entirely — neither probed nor
    /// admitted — so demoted history is loaded lazily through the pager
    /// per query and can never evict the hot working set. That byte-for-
    /// byte asymmetry *is* the tier boundary.
    fn fetch_cached(
        &self,
        container: &Container,
        rid: u64,
        cold: bool,
        tally: &mut ReadTally,
    ) -> Result<Arc<CachedBatch>> {
        if cold {
            tally.cold_batches_scanned += 1;
            let batch = container.get_batch(rid)?;
            return Ok(Arc::new(CachedBatch::new(batch, self.cfg.schema.tag_count())));
        }
        let key = (container.id(), rid);
        if let Some(entry) = self.cache.get(key) {
            tally.cache_hits += 1;
            self.meter.cpu(self.meter.costs.buffer_hit);
            return Ok(entry);
        }
        // A batch this pass already admitted is a hit too — but the entry
        // stays in the tally until the pass validates, so a discarded
        // retry cannot warm the cache (see `ReadTally`).
        if let Some((_, entry)) = tally.admissions.get(&key) {
            tally.cache_hits += 1;
            self.meter.cpu(self.meter.costs.buffer_hit);
            return Ok(entry.clone());
        }
        tally.cache_misses += 1;
        let batch = container.get_batch(rid)?;
        let entry = Arc::new(CachedBatch::new(batch, self.cfg.schema.tag_count()));
        tally.admissions.insert(key, (tally.admissions.len(), entry.clone()));
        Ok(entry)
    }

    /// Project `tags` out of a cached batch, charging the meter for a
    /// decode only when the cache had to decode now, and counting the
    /// decode event.
    fn project_cached(
        &self,
        entry: &Arc<CachedBatch>,
        tags: &[usize],
        tally: &mut ReadTally,
    ) -> Result<Vec<Arc<Vec<Option<f64>>>>> {
        let (cols, decoded) = entry.cols_for_overlay(tags, &mut tally.fills)?;
        if decoded {
            // Charge decode proportional to the *projected* bytes — the
            // tag-oriented saving.
            let projected = entry.batch.blob().projected_bytes(tags)? as f64;
            self.meter.cpu(self.meter.costs.point_decode * projected / 8.0);
            tally.blob_decodes += 1;
        } else {
            self.meter.cpu(self.meter.costs.buffer_hit);
        }
        Ok(cols)
    }

    /// The decoded-batch cache (benchmarks clear it to measure cold runs).
    pub fn decode_cache(&self) -> &DecodeCache {
        &self.cache
    }

    /// Current hot per-source generations `(rts, irts)`.
    pub(crate) fn hot_gens(&self) -> [Arc<Container>; 2] {
        [self.rts.read().clone(), self.irts.read().clone()]
    }

    /// Current cold generation.
    pub(crate) fn cold_gen(&self) -> Arc<Container> {
        self.cold.read().clone()
    }

    /// Every per-source generation a read must consult, coldest last,
    /// with its cache-bypass flag. Each clone takes its lock briefly and
    /// independently; the seal seqlock (the compactor swaps under a
    /// ticket) makes a torn view — one generation pre-swap, another
    /// post-swap — retry instead of misreading.
    pub(crate) fn read_gens(&self) -> [(Arc<Container>, bool); 3] {
        let [rts, irts] = self.hot_gens();
        [(rts, false), (irts, false), (self.cold_gen(), true)]
    }

    /// Retention floor: rows strictly below this timestamp (µs) have
    /// expired. `None` when no TTL is configured or nothing was ingested.
    pub fn retention_floor(&self) -> Option<i64> {
        let ttl = self.cfg.retention_ttl_us;
        if ttl <= 0 {
            return None;
        }
        let max = self.stats.max_ts.load(std::sync::atomic::Ordering::Relaxed);
        (max != i64::MIN).then(|| max.saturating_sub(ttl))
    }

    /// Clamp a query's lower bound to the retention floor, so expired
    /// rows stay invisible whether or not the compactor has physically
    /// dropped their batches yet.
    fn clamp_retention(&self, t1: i64) -> i64 {
        match self.retention_floor() {
            Some(floor) => t1.max(floor),
            None => t1,
        }
    }

    /// Reclaim the registry records of sources whose entire history has
    /// expired: a watermark strictly below the retention floor means every
    /// row the source ever sealed is already invisible (and the compactor
    /// drops the batches), so the metadata can go too — the fix for the
    /// old maps growing without bound under source churn. Returns the
    /// number of records pruned.
    ///
    /// MG sources are never pruned (group seal marks are shared), and the
    /// pass backs off while seal jobs are in flight — a queued job may
    /// still advance marks for a candidate. Candidates are re-verified
    /// per source with the open and side buffer shards locked first (the
    /// ingest lock order), so a row buffered after the candidate scan
    /// keeps its source alive. A put racing the removal itself is safe:
    /// the drained buffer falls back to `OdhTable::drained_meta`, and
    /// WAL replay re-adopts the source from its registration frame.
    pub fn prune_expired_sources(&self) -> u64 {
        let Some(floor) = self.retention_floor() else { return 0 };
        if self.seal_queue_depth() > 0 {
            return 0;
        }
        let mut pruned = 0u64;
        for sid in self.registry.expired(floor) {
            let mut open = self.buffers.lock_source(sid.0);
            let mut side = self.side_buffers.lock_source(sid.0);
            let quiet = open.get(&sid.0).is_none_or(|b| b.is_empty())
                && side.get(&sid.0).is_none_or(|b| b.is_empty());
            if quiet
                && self.registry.remove_if(sid.0, |r| {
                    r.meta.ingest != Structure::Mg && r.watermark != i64::MIN && r.watermark < floor
                })
            {
                open.remove(&sid.0);
                side.remove(&sid.0);
                pruned += 1;
            }
        }
        if pruned > 0 {
            // Hand the shard tables' slack back: a churn spike must not
            // pin its high-water capacity forever.
            self.registry.shrink_idle();
        }
        pruned
    }

    /// Batches in the cold generation.
    pub fn cold_record_count(&self) -> u64 {
        self.cold_gen().record_count()
    }

    /// On-disk footprint of the live generations (hot + cold + MG).
    pub fn size_bytes(&self) -> u64 {
        let [rts, irts] = self.hot_gens();
        rts.size_bytes()
            + irts.size_bytes()
            + self.mg.read().size_bytes()
            + self.cold_gen().size_bytes()
    }

    /// Per-structure record counts `(rts, irts, mg)` of the hot
    /// generations; the cold tier is [`OdhTable::cold_record_count`].
    pub fn record_counts(&self) -> (u64, u64, u64) {
        let [rts, irts] = self.hot_gens();
        (rts.record_count(), irts.record_count(), self.mg.read().record_count())
    }

    /// Sealed batches across every generation (hot + cold + MG) — the
    /// fragmentation measure the compaction benchmark gates on.
    pub fn total_batches(&self) -> u64 {
        let (r, i, m) = self.record_counts();
        r + i + m + self.cold_record_count()
    }
}

impl Drop for OdhTable {
    fn drop(&mut self) {
        // Wake and retire the seal workers; any still-queued jobs are
        // recoverable via the WAL (acked rows were logged before enqueue).
        if let Some(pipe) = self.seal_pipe.get() {
            pipe.shutdown();
        }
        if let Some(c) = self.compactor.get() {
            c.shutdown();
        }
    }
}

/// What one level of an index descent costs, in record visits of an
/// index walk. Measured on a 2-level index of 4-tag IRTS batches: at
/// 1,024 sources over 3,072 records the walk read a LAST-only scan in
/// 1.07–1.46 ms against 1.44–2.50 ms for the descents, and a slice in
/// 0.68–0.99 against 1.11–1.71 ms; at 256 sources over 6,144 records and
/// at 64 over 3,072 the descents read the slice in 0.25 and 0.06–0.10 ms
/// against the walk's 0.57–0.59 and 0.25 ms.
const DESCENT_COST_PER_LEVEL: u64 = 2;

/// Offset of the first of one source's rows (`ts` ascending; their
/// requested tag values at `start..` of `cols`) that no later row
/// outdoes. Every earlier row, in each tag where it holds a value, is
/// followed by a value of that tag at a strictly later timestamp, and by
/// a later row, so it can be no LAST.
fn newest_from(ts: &[i64], cols: &[Arc<Vec<Option<f64>>>], start: usize) -> usize {
    let Some(&last) = ts.last() else { return 0 };
    let keep = cols
        .iter()
        .filter_map(|c| c[start..start + ts.len()].iter().rposition(Option::is_some))
        .map(|row| ts[row])
        .fold(last, i64::min);
    ts.partition_point(|&t| t < keep)
}

/// `(source, begin)` of a per-source batch key.
fn source_key(key: &[u8]) -> (SourceId, i64) {
    (SourceId(keycodec::decode_u64(key)), keycodec::decode_i64(&key[8..]))
}

/// Pack in-memory rows into one owned [`ColumnarChunk`]; `None` when no
/// rows matched. Per-source runs (`source` set) carry no id column.
fn owned_chunk(
    tags_n: usize,
    source: Option<SourceId>,
    rows: impl Iterator<Item = BufferedRow>,
) -> Option<ColumnarChunk> {
    let mut ts = Vec::new();
    let mut ids = Vec::new();
    let mut cols: Vec<Vec<Option<f64>>> = vec![Vec::new(); tags_n];
    for (id, t, values) in rows {
        ts.push(t);
        if source.is_none() {
            ids.push(id);
        }
        for (c, v) in cols.iter_mut().zip(values) {
            c.push(v);
        }
    }
    if ts.is_empty() {
        return None;
    }
    // Buffers hold rows in arrival order; every chunk ascends.
    sort_rows(&mut ts, source.is_none().then_some(&mut ids), &mut cols);
    Some(ColumnarChunk {
        source,
        ids: source.is_none().then_some(ids),
        ts,
        cols: cols.into_iter().map(Arc::new).collect(),
        start: 0,
        summary: None,
        whole_points: None,
    })
}

/// Sort rows by timestamp (stable), carrying ids and columns along.
pub(crate) fn sort_rows(
    ts: &mut [i64],
    ids: Option<&mut Vec<SourceId>>,
    cols: &mut [Vec<Option<f64>>],
) {
    let n = ts.len();
    if ts.windows(2).all(|w| w[0] <= w[1]) {
        return;
    }
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by_key(|&i| ts[i]);
    let old_ts = ts.to_vec();
    for (new, &old) in perm.iter().enumerate() {
        ts[new] = old_ts[old];
    }
    if let Some(ids) = ids {
        let old = ids.clone();
        for (new, &o) in perm.iter().enumerate() {
            ids[new] = old[o];
        }
    }
    for col in cols.iter_mut() {
        let old = col.clone();
        for (new, &o) in perm.iter().enumerate() {
            col[new] = old[o];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalEntry;
    use odh_pager::disk::MemDisk;
    use odh_types::Duration;

    fn table(b: usize) -> OdhTable {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let meter = ResourceMeter::unmetered();
        let schema = SchemaType::new("env", ["temperature", "wind"]);
        OdhTable::create(pool, meter, TableConfig::new(schema).with_batch_size(b)).unwrap()
    }

    fn put_regular(t: &OdhTable, src: u64, n: usize, period_us: i64) {
        for i in 0..n {
            t.put(&Record::dense(
                SourceId(src),
                Timestamp(1_000_000 + i as i64 * period_us),
                [i as f64, -(i as f64)],
            ))
            .unwrap();
        }
    }

    #[test]
    fn regular_high_goes_to_rts() {
        let t = table(50);
        t.register_source(SourceId(1), SourceClass::regular_high(Duration::from_hz(50.0))).unwrap();
        put_regular(&t, 1, 200, 20_000);
        let (rts, irts, mg) = t.record_counts();
        assert_eq!((rts, irts, mg), (4, 0, 0));
    }

    #[test]
    fn irregular_high_goes_to_irts() {
        let t = table(50);
        t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
        for i in 0..100i64 {
            t.put(&Record::dense(
                SourceId(1),
                Timestamp(1_000 + i * 10_000 + (i % 7) * 13),
                [1.0, 2.0],
            ))
            .unwrap();
        }
        let (rts, irts, mg) = t.record_counts();
        assert_eq!((rts, irts, mg), (0, 2, 0));
    }

    #[test]
    fn low_frequency_goes_to_mg() {
        let t = table(10);
        for id in 0..20u64 {
            t.register_source(SourceId(id), SourceClass::regular_low(Duration::from_minutes(15)))
                .unwrap();
        }
        // One sweep: each source reports once → 20 points → 2 MG batches.
        for id in 0..20u64 {
            t.put(&Record::dense(SourceId(id), Timestamp::from_secs(900), [1.0, 2.0])).unwrap();
        }
        let (rts, irts, mg) = t.record_counts();
        assert_eq!((rts, irts, mg), (0, 0, 2));
    }

    #[test]
    fn historical_scan_round_trips() {
        let t = table(32);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 100, 10_000);
        t.flush().unwrap();
        let pts =
            t.historical_scan(SourceId(5), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        assert_eq!(pts.len(), 100);
        assert_eq!(pts[3].values, vec![Some(3.0), Some(-3.0)]);
        assert!(pts.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn historical_scan_respects_time_bounds() {
        let t = table(16);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 100, 10_000);
        t.flush().unwrap();
        let t1 = Timestamp(1_000_000 + 200_000);
        let t2 = Timestamp(1_000_000 + 400_000);
        let pts = t.historical_scan(SourceId(5), t1, t2, &[0]).unwrap();
        assert_eq!(pts.len(), 21); // rows 20..=40
        assert!(pts.iter().all(|p| p.ts >= t1 && p.ts <= t2));
    }

    #[test]
    fn dirty_read_sees_unsealed_buffer() {
        let t = table(1000); // large b: nothing sealed
        t.register_source(SourceId(9), SourceClass::irregular_high()).unwrap();
        t.put(&Record::dense(SourceId(9), Timestamp::from_secs(10), [7.0, 8.0])).unwrap();
        let pts =
            t.historical_scan(SourceId(9), Timestamp(0), Timestamp::from_secs(100), &[0]).unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].values, vec![Some(7.0)]);
        // Same for MG sources.
        t.register_source(SourceId(2000), SourceClass::irregular_low()).unwrap();
        t.put(&Record::dense(SourceId(2000), Timestamp::from_secs(20), [1.0, 2.0])).unwrap();
        let pts = t
            .historical_scan(SourceId(2000), Timestamp(0), Timestamp::from_secs(100), &[1])
            .unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].values, vec![Some(2.0)]);
    }

    #[test]
    fn put_cols_matches_put_for_all_structures() {
        // Same rows through the per-row and columnar paths must yield the
        // same structure routing, scan results, and stats fingerprint.
        let rowwise = table(8);
        let colwise = table(8);
        for t in [&rowwise, &colwise] {
            t.register_source(SourceId(1), SourceClass::regular_high(Duration::from_hz(1000.0)))
                .unwrap();
            t.register_source(SourceId(2), SourceClass::irregular_high()).unwrap();
            for id in 100..104u64 {
                t.register_source(SourceId(id), SourceClass::irregular_low()).unwrap();
            }
        }
        // 21 rows per source (not a multiple of batch size 8): mixes
        // sealed batches with a dirty tail in every structure.
        let sources: Vec<u64> = [1u64, 2].into_iter().chain(100..104).collect();
        for &src in &sources {
            let run: Vec<Record> = (0..21i64)
                .map(|i| {
                    Record::new(
                        SourceId(src),
                        Timestamp(1_000 + i * 500 + src as i64),
                        vec![Some(i as f64), (i % 3 != 0).then(|| -(i as f64))],
                    )
                })
                .collect();
            for r in &run {
                rowwise.put(r).unwrap();
            }
            let ts: Vec<i64> = run.iter().map(|r| r.ts.micros()).collect();
            let cols: Vec<Vec<Option<f64>>> =
                (0..2).map(|t| run.iter().map(|r| r.values[t]).collect()).collect();
            colwise.put_cols(SourceId(src), &ts, &cols).unwrap();
        }
        assert_eq!(rowwise.record_counts(), colwise.record_counts(), "structure routing");
        for t in [&rowwise, &colwise] {
            t.flush().unwrap();
        }
        for &src in &sources {
            let a = rowwise
                .historical_scan(SourceId(src), Timestamp(0), Timestamp(i64::MAX), &[0, 1])
                .unwrap();
            let b = colwise
                .historical_scan(SourceId(src), Timestamp(0), Timestamp(i64::MAX), &[0, 1])
                .unwrap();
            assert_eq!(a, b, "scan mismatch for source {src}");
            assert_eq!(a.len(), 21);
        }
        let (sa, sb) = (rowwise.stats().snapshot(), colwise.stats().snapshot());
        assert_eq!(sa.records_ingested, sb.records_ingested);
        assert_eq!(sa.points_ingested, sb.points_ingested);
        assert_eq!(sa.min_ts, sb.min_ts);
        assert_eq!(sa.max_ts, sb.max_ts);
    }

    #[test]
    fn slice_scan_covers_all_structures() {
        let t = table(8);
        t.register_source(SourceId(1), SourceClass::regular_high(Duration::from_hz(1000.0)))
            .unwrap();
        t.register_source(SourceId(2), SourceClass::irregular_high()).unwrap();
        t.register_source(SourceId(5000), SourceClass::regular_low(Duration::from_minutes(15)))
            .unwrap();
        for i in 0..32i64 {
            t.put(&Record::dense(SourceId(1), Timestamp(i * 1_000), [1.0, 0.0])).unwrap();
            t.put(&Record::dense(SourceId(2), Timestamp(i * 1_001 + 7), [2.0, 0.0])).unwrap();
        }
        t.put(&Record::dense(SourceId(5000), Timestamp(5_000), [3.0, 0.0])).unwrap();
        t.flush().unwrap();
        let pts = t.slice_scan(Timestamp(0), Timestamp(40_000), &[0], None).unwrap();
        let by_src = |id: u64| pts.iter().filter(|p| p.source == SourceId(id)).count();
        assert_eq!(by_src(1), 32);
        assert_eq!(by_src(2), 32);
        assert_eq!(by_src(5000), 1);
        // Restriction to a subset.
        let only: HashSet<SourceId> = [SourceId(2)].into_iter().collect();
        let pts = t.slice_scan(Timestamp(0), Timestamp(40_000), &[0], Some(&only)).unwrap();
        assert!(pts.iter().all(|p| p.source == SourceId(2)));
        assert_eq!(pts.len(), 32);
    }

    #[test]
    fn projection_returns_requested_tags_only() {
        let t = table(4);
        t.register_source(SourceId(1), SourceClass::regular_high(Duration::from_hz(10.0))).unwrap();
        put_regular(&t, 1, 8, 100_000);
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(1), Timestamp(0), Timestamp(i64::MAX), &[1]).unwrap();
        assert_eq!(pts[0].values.len(), 1);
        assert_eq!(pts[2].values[0], Some(-2.0));
    }

    #[test]
    fn unregistered_source_rejected() {
        let t = table(4);
        let err = t.put(&Record::dense(SourceId(77), Timestamp(0), [0.0, 0.0])).unwrap_err();
        assert_eq!(err.kind(), "not_found");
        assert_eq!(
            t.historical_scan(SourceId(77), Timestamp(0), Timestamp(1), &[0]).unwrap_err().kind(),
            "not_found"
        );
    }

    #[test]
    fn wrong_arity_rejected() {
        let t = table(4);
        t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
        let err = t.put(&Record::dense(SourceId(1), Timestamp(0), [1.0])).unwrap_err();
        assert_eq!(err.kind(), "schema");
    }

    #[test]
    fn duplicate_registration_rejected() {
        let t = table(4);
        t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
        assert_eq!(
            t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap_err().kind(),
            "config"
        );
    }

    #[test]
    fn rts_run_splitting_on_gaps() {
        // A regular source that misses samples: runs split at the gap, and
        // every point survives.
        let t = table(100);
        t.register_source(SourceId(1), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        let mut n = 0;
        for i in 0..50i64 {
            if i % 10 == 7 {
                continue; // dropped sample
            }
            t.put(&Record::dense(SourceId(1), Timestamp(i * 10_000), [i as f64, 0.0])).unwrap();
            n += 1;
        }
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(1), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), n);
        let (rts, _, _) = t.record_counts();
        assert!(rts > 1, "gaps must split runs, got {rts} batch(es)");
    }

    #[test]
    fn out_of_order_arrival_is_sorted_at_seal() {
        let t = table(4);
        t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
        for ts in [40i64, 10, 30, 20] {
            t.put(&Record::dense(SourceId(1), Timestamp(ts), [ts as f64, 0.0])).unwrap();
        }
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(1), Timestamp(0), Timestamp(100), &[0]).unwrap();
        let times: Vec<i64> = pts.iter().map(|p| p.ts.micros()).collect();
        assert_eq!(times, vec![10, 20, 30, 40]);
        assert_eq!(pts[0].values[0], Some(10.0));
        // Disorder inside the open buffer is absorbed by the seal-time
        // sort — it never touches the late-arrival side path.
        assert_eq!(t.stats().ooo_side_rows.get(), 0);
    }

    #[test]
    fn late_rows_route_to_side_buffer_and_stay_readable() {
        let t = table(4);
        t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
        for ts in [10i64, 20, 30, 40] {
            t.put(&Record::dense(SourceId(1), Timestamp(ts), [ts as f64, 0.0])).unwrap();
        }
        // Buffer full → sealed inline; the watermark is now 40.
        assert_eq!(t.buffered_points(), 0);
        t.put(&Record::dense(SourceId(1), Timestamp(5), [5.0, 0.0])).unwrap();
        assert_eq!(t.stats().ooo_side_rows.get(), 1, "pre-watermark row took the side path");
        assert_eq!(t.buffered_points(), 1, "side rows count as buffered");
        // Unsealed side rows are already visible, in order.
        let times: Vec<i64> = t
            .historical_scan(SourceId(1), Timestamp(0), Timestamp(100), &[0])
            .unwrap()
            .iter()
            .map(|p| p.ts.micros())
            .collect();
        assert_eq!(times, vec![5, 10, 20, 30, 40]);
        // And flush seals them into a queryable batch.
        t.flush().unwrap();
        assert_eq!(t.buffered_points(), 0);
        let pts = t.historical_scan(SourceId(1), Timestamp(0), Timestamp(100), &[0, 1]).unwrap();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].ts.micros(), 5);
        assert_eq!(pts[0].values[0], Some(5.0));
    }

    #[test]
    fn full_side_buffer_seals_inline_as_irts() {
        let t = table(4);
        t.register_source(SourceId(1), SourceClass::regular_high(Duration::from_hz(10.0))).unwrap();
        // Seal one regular batch (100ms period): watermark = 1.3s.
        put_regular(&t, 1, 4, 100_000);
        // Four late rows fill and seal the side buffer without a flush.
        for ts in [1i64, 2, 3, 4] {
            t.put(&Record::dense(SourceId(1), Timestamp(ts), [ts as f64, 0.0])).unwrap();
        }
        assert_eq!(t.stats().ooo_side_rows.get(), 4);
        assert_eq!(t.stats().ooo_side_batches.get(), 1, "side buffer sealed at capacity");
        assert_eq!(t.buffered_points(), 0);
        // Late seals are forced IRTS (their timestamps are arbitrary),
        // alongside the RTS batch from the in-order run.
        let (rts, irts, _) = t.record_counts();
        assert_eq!((rts, irts), (1, 1));
        let pts = t.historical_scan(SourceId(1), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 8);
        assert!(pts.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    #[test]
    fn put_cols_run_with_late_rows_lands_all_rows() {
        let t = table(4);
        t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
        for ts in [10i64, 20, 30, 40] {
            t.put(&Record::dense(SourceId(1), Timestamp(ts), [ts as f64, 0.0])).unwrap();
        }
        // A columnar run mixing late (5, 15) and fresh (50, 60) rows:
        // the run detects disorder and falls back to per-row routing.
        let ts = [5i64, 15, 50, 60];
        let cols: Vec<Vec<Option<f64>>> =
            vec![ts.iter().map(|&x| Some(x as f64)).collect(), vec![Some(0.0); 4]];
        t.put_cols(SourceId(1), &ts, &cols).unwrap();
        assert_eq!(t.stats().ooo_side_rows.get(), 2);
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(1), Timestamp(0), Timestamp(100), &[0]).unwrap();
        let times: Vec<i64> = pts.iter().map(|p| p.ts.micros()).collect();
        assert_eq!(times, vec![5, 10, 15, 20, 30, 40, 50, 60]);
        assert_eq!(t.stats().snapshot().points_ingested, 16, "8 records × 2 tags");
    }

    /// A seal in the middle of a `put_cols` run raises the watermark for
    /// the rest of the run, exactly as it does between row-by-row puts —
    /// inline or pipelined, since the watermark moves at the buffer take.
    #[test]
    fn put_cols_routes_late_rows_like_put() {
        let ts = [10i64, 20, 30, 40, 5];
        let cols: Vec<Vec<Option<f64>>> =
            vec![ts.iter().map(|&x| Some(x as f64)).collect(), vec![Some(0.0); ts.len()]];
        let tables: [Arc<OdhTable>; 2] = [Arc::new(table(4)), pipelined_table(4, 2, 8)];
        for t in &tables {
            t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
            t.register_source(SourceId(2), SourceClass::irregular_high()).unwrap();
            for (row, &x) in ts.iter().enumerate() {
                t.put(&Record::new(SourceId(1), Timestamp(x), vec![cols[0][row], cols[1][row]]))
                    .unwrap();
            }
            let by_row = t.stats().ooo_side_rows.get();
            t.put_cols(SourceId(2), &ts, &cols).unwrap();
            assert_eq!(by_row, 1, "row 5 arrives behind the sealed [10, 40] batch");
            assert_eq!(t.stats().ooo_side_rows.get() - by_row, 1, "put_cols routes it too");
            assert_eq!(t.stats().snapshot().records_ingested, 10);
        }
    }

    #[test]
    fn mg_sources_never_take_the_side_path() {
        let t = table(4);
        t.register_source(SourceId(1), SourceClass::regular_low(Duration::from_minutes(15)))
            .unwrap();
        for ts in [900i64, 1800, 2700, 3600] {
            t.put(&Record::dense(SourceId(1), Timestamp::from_secs(ts), [1.0, 2.0])).unwrap();
        }
        t.flush().unwrap();
        // An MG row older than everything sealed: timestamp-keyed MG
        // batches tolerate disorder natively, no side buffer involved.
        t.put(&Record::dense(SourceId(1), Timestamp::from_secs(450), [1.0, 2.0])).unwrap();
        t.flush().unwrap();
        assert_eq!(t.stats().ooo_side_rows.get(), 0);
        let pts = t.historical_scan(SourceId(1), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 5);
        assert!(pts.windows(2).all(|w| w[0].ts <= w[1].ts));
    }

    /// Two writers of one RTS source, interleaving timestamps through
    /// `put_cols`: a row behind a batch the other writer just took must
    /// take the side path, so each open-path (RTS) batch begins at or
    /// after the end of the batch taken before it. Take order is read
    /// back from the WAL: per-source LSN order is buffer order, and the
    /// open buffer is taken every `B` point frames. Side rows are logged
    /// as late frames and are not checked.
    #[test]
    fn two_writers_of_one_source_never_seal_behind_each_other() {
        const B: usize = 8;
        const RUNS: i64 = 150;
        const RUN: i64 = 3;
        for _ in 0..40 {
            let t = table(B);
            let dir = Arc::new(odh_pager::log::MemLogDir::new());
            let wal = Wal::create(dir.clone(), ResourceMeter::unmetered()).unwrap();
            t.attach_wal(wal.clone(), 1, false).unwrap();
            t.register_source(SourceId(1), SourceClass::regular_high(Duration::from_micros(10)))
                .unwrap();
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for parity in 0..2i64 {
                    let (t, start) = (&t, &start);
                    s.spawn(move || {
                        start.wait();
                        for run in 0..RUNS {
                            let ts: Vec<i64> =
                                (0..RUN).map(|k| ((run * RUN + k) * 2 + parity) * 10).collect();
                            let a: Vec<Option<f64>> = ts.iter().map(|&x| Some(x as f64)).collect();
                            t.put_cols(SourceId(1), &ts, &[a, vec![None; ts.len()]]).unwrap();
                        }
                    });
                }
            });
            t.flush().unwrap();
            wal.sync().unwrap();
            let (_, rec) = Wal::open(dir, ResourceMeter::unmetered()).unwrap();
            let mut open: Vec<(u64, i64)> = rec
                .frames
                .iter()
                .filter_map(|f| match &f.entry {
                    WalEntry::Point { record, late: false, .. } => {
                        Some((f.lsn, record.ts.micros()))
                    }
                    _ => None,
                })
                .collect();
            open.sort();
            let batches: Vec<(i64, i64)> = open
                .chunks(B)
                .map(|c| {
                    c.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &(_, t)| (lo.min(t), hi.max(t)))
                })
                .collect();
            for w in batches.windows(2) {
                assert!(w[1].0 >= w[0].1, "batch {:?} begins inside {:?}", w[1], w[0]);
            }
            let rows = t.slice_scan(Timestamp::MIN, Timestamp::MAX, &[0], None).unwrap().len();
            assert_eq!(rows as i64, 2 * RUNS * RUN, "every row lands once");
        }
    }

    /// A summary-permitting columnar scan folded per bucket of `grain`
    /// (key 0 for the whole range): `(rows, one summary per tag)`.
    fn fold_scan(
        t: &OdhTable,
        source: Option<u64>,
        t1: i64,
        t2: i64,
        grain: TimeGrain,
        tags: &[usize],
    ) -> std::collections::BTreeMap<i64, (u64, Vec<TagSummary>)> {
        let only: Option<HashSet<SourceId>> = source.map(|s| [SourceId(s)].into_iter().collect());
        let chunks = t
            .scan_columnar(Timestamp(t1), Timestamp(t2), tags, only.as_ref(), &[], Some(grain))
            .unwrap();
        let key = |ts: i64| match grain {
            TimeGrain::Whole => 0,
            TimeGrain::Bucket(w) => ts.div_euclid(w) * w,
        };
        let mut out = std::collections::BTreeMap::new();
        let empty = || (0, vec![TagSummary::empty(); tags.len()]);
        for ch in chunks {
            match &ch.summary {
                Some(sum) => {
                    let slot = out.entry(key(sum.time_range.0)).or_insert_with(empty);
                    slot.0 += sum.rows;
                    slot.1.iter_mut().zip(&sum.tags).for_each(|(a, b)| a.merge(b));
                }
                None => {
                    for (row, &ts) in ch.ts.iter().enumerate() {
                        let slot = out.entry(key(ts)).or_insert_with(empty);
                        slot.0 += 1;
                        slot.1.iter_mut().zip(ch.values_at(row)).for_each(|(a, v)| a.add(v));
                    }
                }
            }
        }
        out
    }

    /// [`fold_scan`] over the whole range as one bucket.
    fn fold_all(t: &OdhTable, source: Option<u64>, tags: &[usize]) -> (u64, Vec<TagSummary>) {
        let mut b = fold_scan(t, source, 0, i64::MAX, TimeGrain::Whole, tags);
        b.remove(&0).unwrap_or((0, vec![TagSummary::empty(); tags.len()]))
    }

    #[test]
    fn delete_masks_rows_on_every_read_tier() {
        let t = table(16);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 100, 10_000); // ts = 1_000_000 + i·10_000
        t.flush().unwrap();
        // Delete rows i ∈ [20, 25].
        let pred = crate::delete::DeletePredicate::all_sources(1_200_000, 1_250_000);
        t.delete(&pred).unwrap();
        assert_eq!(t.stats().tombstone_deletes.get(), 1);
        let masked_ts = |lo: i64, hi: i64, ts: i64| ts >= lo && ts <= hi;
        // Row tier.
        let pts =
            t.historical_scan(SourceId(5), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        assert_eq!(pts.len(), 94);
        assert!(pts.iter().all(|p| !masked_ts(1_200_000, 1_250_000, p.ts.micros())));
        // Slice tier.
        let pts = t.slice_scan(Timestamp(0), Timestamp(i64::MAX), &[0], None).unwrap();
        assert_eq!(pts.len(), 94);
        // Columnar tier.
        let chunks =
            t.scan_columnar(Timestamp(0), Timestamp(i64::MAX), &[0], None, &[], None).unwrap();
        let rows: usize = chunks.iter().map(|c| c.len()).sum();
        assert_eq!(rows, 94);
        // Summary tier: count and sum exclude the masked rows.
        let (_, agg) = fold_all(&t, Some(5), &[0]);
        assert_eq!(agg[0].count, 94);
        let expect: i64 = (0..100).filter(|i| !(20..=25).contains(i)).sum();
        assert_eq!(agg[0].sum, expect as f64);
        // Bucketed: the bucket holding the deleted span shrinks.
        let buckets = fold_scan(&t, Some(5), 0, i64::MAX, TimeGrain::Bucket(1_000_000), &[0]);
        let total: u64 = buckets.values().map(|a| a.1[0].count).sum();
        assert_eq!(total, 94);
        assert!(t.stats().tombstone_masked_rows.get() > 0);
    }

    #[test]
    fn tombstone_overlap_disables_summary_fast_path() {
        let t = table(16);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 100, 10_000);
        t.flush().unwrap(); // 7 sealed batches
        let agg = |t: &OdhTable| fold_all(t, Some(5), &[0]).1;
        let base = agg(&t);
        let s0 = t.stats().summary_answered_batches.get();
        let d0 = t.stats().blob_decodes.get();
        // Tombstone inside batch 1 (rows 16..31): that batch must fall
        // off the summary fast path and decode; the other six must not.
        t.delete(&crate::delete::DeletePredicate::all_sources(1_200_000, 1_250_000)).unwrap();
        let masked = agg(&t);
        assert_eq!(masked[0].count, base[0].count - 6);
        let s1 = t.stats().summary_answered_batches.get();
        let d1 = t.stats().blob_decodes.get();
        assert_eq!(s1 - s0, 6, "six clean batches still summary-answered");
        assert_eq!(d1 - d0, 1, "exactly the overlapping batch decoded");
    }

    #[test]
    fn covered_batches_answer_from_summaries() {
        let t = table(16);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 100, 10_000); // values (i, -i), integer-exact
        t.flush().unwrap(); // 6 full batches + 1 remainder = 7 sealed
        let (rows, agg) = fold_all(&t, Some(5), &[0, 1]);
        assert_eq!(rows, 100);
        assert_eq!(agg[0].count, 100);
        assert_eq!(agg[0].sum, (0..100).sum::<i64>() as f64);
        assert_eq!(agg[0].min, 0.0);
        assert_eq!(agg[0].max, 99.0);
        assert_eq!(agg[1].min, -99.0);
        let snap = t.stats().snapshot();
        assert_eq!(snap.summary_answered_batches, Some(7), "all batches summary-answered");
        assert_eq!(snap.blob_decodes, Some(0), "no blob touched");
    }

    #[test]
    fn summaries_decode_only_boundary_batches() {
        let t = table(16);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 100, 10_000);
        t.flush().unwrap();
        // Rows 20..=70: batches 1 and 4 are boundaries, 2 and 3 covered.
        let (t1, t2) = (1_000_000 + 200_000, 1_000_000 + 700_000);
        let (rows, agg) =
            fold_scan(&t, Some(5), t1, t2, TimeGrain::Whole, &[0]).remove(&0).unwrap();
        assert_eq!(rows, 51);
        assert_eq!(agg[0].sum, (20..=70).sum::<i64>() as f64);
        let snap = t.stats().snapshot();
        assert_eq!(snap.summary_answered_batches, Some(2));
        assert_eq!(snap.blob_decodes, Some(2), "only boundary batches decode");
        // Equivalent to folding the scan.
        let pts = t.historical_scan(SourceId(5), Timestamp(t1), Timestamp(t2), &[0]).unwrap();
        let sum: f64 = pts.iter().filter_map(|p| p.values[0]).sum();
        assert_eq!(sum, agg[0].sum);
        assert_eq!(pts.len() as u64, rows);
    }

    #[test]
    fn summary_scans_see_open_buffers() {
        let t = table(1000); // nothing seals
        t.register_source(SourceId(9), SourceClass::irregular_high()).unwrap();
        for i in 0..5i64 {
            t.put(&Record::dense(SourceId(9), Timestamp(i * 100), [i as f64, 0.0])).unwrap();
        }
        let (rows, agg) = fold_all(&t, Some(9), &[0]);
        assert_eq!((rows, agg[0].sum), (5, 10.0));
        // Whole-table form folds the same buffer.
        let (rows, agg) = fold_all(&t, None, &[0]);
        assert_eq!((rows, agg[0].sum), (5, 10.0));
    }

    #[test]
    fn warm_scans_decode_nothing_new() {
        let t = table(16);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 100, 10_000);
        t.flush().unwrap();
        let cold_pts =
            t.historical_scan(SourceId(5), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        let cold = t.stats().snapshot();
        assert_eq!(cold.blob_decodes, Some(7));
        assert_eq!(cold.cache_misses, Some(7));
        let warm_pts =
            t.historical_scan(SourceId(5), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        let warm = t.stats().snapshot();
        assert_eq!(warm_pts, cold_pts, "cached scan ≡ uncached scan");
        assert_eq!(warm.blob_decodes, Some(7), "warm scan decodes nothing");
        assert_eq!(warm.cache_hits.unwrap(), cold.cache_hits.unwrap() + 7);
    }

    #[test]
    fn zero_cache_budget_disables_caching_without_changing_results() {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let schema = SchemaType::new("env", ["temperature", "wind"]);
        let t = OdhTable::create(
            pool,
            ResourceMeter::unmetered(),
            TableConfig::new(schema).with_batch_size(16).with_decode_cache_bytes(0),
        )
        .unwrap();
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 64, 10_000);
        t.flush().unwrap();
        let a = t.historical_scan(SourceId(5), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        let b = t.historical_scan(SourceId(5), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(a, b);
        assert_eq!(t.decode_cache().len(), 0);
        let snap = t.stats().snapshot();
        assert_eq!(snap.cache_hits, Some(0));
        assert_eq!(snap.cache_misses, Some(8), "every fetch misses with a zero budget");
    }

    fn pipelined_table(b: usize, workers: usize, depth: usize) -> Arc<OdhTable> {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let meter = ResourceMeter::unmetered();
        let schema = SchemaType::new("env", ["temperature", "wind"]);
        let t = Arc::new(
            OdhTable::create(
                pool,
                meter,
                TableConfig::new(schema)
                    .with_batch_size(b)
                    .with_seal_workers(workers)
                    .with_seal_queue_depth(depth),
            )
            .unwrap(),
        );
        t.start_seal_pipeline();
        t
    }

    #[test]
    fn pipelined_seal_matches_inline_results() {
        let t = pipelined_table(16, 2, 8);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 100, 10_000);
        t.flush().unwrap();
        let pts =
            t.historical_scan(SourceId(5), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        assert_eq!(pts.len(), 100);
        assert!(pts.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert_eq!(pts[3].values, vec![Some(3.0), Some(-3.0)]);
        let (rts, _, _) = t.record_counts();
        assert!(rts >= 6, "batches sealed through the pipeline, got {rts}");
    }

    #[test]
    fn queued_rows_stay_visible_before_drain() {
        // Depth 1 and 0 workers would deadlock a drain, so use a real
        // worker but a batch small enough that jobs queue up: every row
        // must be readable at every moment regardless of queue state.
        let t = pipelined_table(4, 1, 16);
        t.register_source(SourceId(9), SourceClass::irregular_high()).unwrap();
        for i in 0..64i64 {
            t.put(&Record::dense(SourceId(9), Timestamp(i * 100), [i as f64, 0.0])).unwrap();
            let pts =
                t.historical_scan(SourceId(9), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
            assert_eq!(pts.len() as i64, i + 1, "row lost at i={i}");
            assert_eq!(fold_all(&t, Some(9), &[0]).0 as i64, i + 1);
        }
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(9), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 64);
    }

    #[test]
    fn full_queue_falls_back_inline() {
        // Zero workers with a started pipeline is impossible (start is a
        // no-op), so emulate a stuck queue: enqueue directly until full,
        // then verify put() falls back inline rather than erroring.
        let t = pipelined_table(4, 1, 1);
        t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
        for i in 0..256i64 {
            t.put(&Record::dense(SourceId(1), Timestamp(i * 50), [1.0, 2.0])).unwrap();
        }
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(1), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 256, "no rows lost under backpressure");
    }

    #[test]
    fn serial_mode_never_starts_workers() {
        let t = pipelined_table(8, 0, 4);
        assert!(t.seal_pipe.get().is_none(), "seal_workers=0 must stay inline");
        t.register_source(SourceId(1), SourceClass::irregular_high()).unwrap();
        for i in 0..32i64 {
            t.put(&Record::dense(SourceId(1), Timestamp(i * 50), [1.0, 2.0])).unwrap();
        }
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(1), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 32);
    }

    #[test]
    fn mg_seals_flow_through_pipeline() {
        let t = pipelined_table(10, 2, 8);
        for id in 0..20u64 {
            t.register_source(SourceId(id), SourceClass::regular_low(Duration::from_minutes(15)))
                .unwrap();
        }
        for sweep in 0..4i64 {
            for id in 0..20u64 {
                t.put(&Record::dense(
                    SourceId(id),
                    Timestamp::from_secs(900 * (sweep + 1)),
                    [id as f64, 0.0],
                ))
                .unwrap();
            }
        }
        t.flush().unwrap();
        let (_, _, mg) = t.record_counts();
        assert_eq!(mg, 8, "80 rows / batch 10 = 8 MG batches");
        let pts = t.slice_scan(Timestamp(0), Timestamp(i64::MAX), &[0], None).unwrap();
        assert_eq!(pts.len(), 80);
    }

    /// Flatten columnar chunks back into `(source, ts, values)` rows for
    /// comparison against the row scan.
    fn chunk_rows(chunks: &[ColumnarChunk]) -> Vec<(SourceId, i64, Vec<Option<f64>>)> {
        let mut rows = Vec::new();
        for ch in chunks {
            for (i, &t) in ch.ts.iter().enumerate() {
                let src = ch.source.unwrap_or_else(|| ch.ids.as_ref().unwrap()[i]);
                let values: Vec<Option<f64>> = ch.cols.iter().map(|c| c[ch.start + i]).collect();
                rows.push((src, t, values));
            }
        }
        rows.sort_by_key(|a| (a.1, a.0));
        rows
    }

    /// A LAST read fetches each source's newest batch only; it reads one
    /// further back when a tombstone deletes the newest batch, and it
    /// fetches but does not decode a newest batch whose tag is all NULL.
    #[test]
    fn last_reads_stop_at_the_settling_batch() {
        let t = table(16);
        for src in [1, 2, 3] {
            t.register_source(SourceId(src), SourceClass::irregular_high()).unwrap();
            put_regular(&t, src, 64, 10_000); // four 16-row batches each
        }
        for i in 64..80 {
            let ts = Timestamp(1_000_000 + i * 10_000);
            t.put(&Record::new(SourceId(3), ts, vec![None, Some(1.0)])).unwrap();
        }
        t.flush().unwrap();
        t.delete(&DeletePredicate::for_sources(1_480_000, 1_630_000, [SourceId(1)])).unwrap();
        let (touched0, decodes0) = (t.stats().cache_misses.get(), t.stats().blob_decodes.get());
        let chunks = t.scan_columnar_last(Timestamp::MIN, Timestamp::MAX, &[0], None).unwrap();
        let touched = t.stats().cache_misses.get() - touched0;
        let decodes = t.stats().blob_decodes.get() - decodes0;
        // Source 1: the masked newest batch and the one before it;
        // source 2: its newest; source 3: its all-NULL newest (fetched,
        // not decoded) and the one before it.
        assert_eq!((touched, decodes), (5, 4));
        let mut last = std::collections::BTreeMap::new();
        for (src, ts, v) in chunk_rows(&chunks) {
            if v[0].is_some() {
                last.insert(src.0, (ts, v[0]));
            }
        }
        let want = |i: i64| (1_000_000 + i * 10_000, Some(i as f64));
        assert_eq!(
            last.into_iter().collect::<Vec<_>>(),
            [(1, want(47)), (2, want(63)), (3, want(63))]
        );
    }

    #[test]
    fn scan_columnar_matches_slice_scan() {
        let t = table(8);
        t.register_source(SourceId(1), SourceClass::regular_high(Duration::from_hz(1000.0)))
            .unwrap();
        t.register_source(SourceId(2), SourceClass::irregular_high()).unwrap();
        t.register_source(SourceId(5000), SourceClass::regular_low(Duration::from_minutes(15)))
            .unwrap();
        for i in 0..32i64 {
            t.put(&Record::dense(SourceId(1), Timestamp(i * 1_000), [i as f64, 0.5])).unwrap();
            t.put(&Record::dense(SourceId(2), Timestamp(i * 1_001 + 7), [2.0, -(i as f64)]))
                .unwrap();
        }
        t.put(&Record::dense(SourceId(5000), Timestamp(5_000), [3.0, 0.0])).unwrap();
        // No flush: open buffers must appear too (dirty-read isolation).
        let pts = t.slice_scan(Timestamp(3_000), Timestamp(25_000), &[0, 1], None).unwrap();
        let chunks =
            t.scan_columnar(Timestamp(3_000), Timestamp(25_000), &[0, 1], None, &[], None).unwrap();
        let rows = chunk_rows(&chunks);
        assert_eq!(rows.len(), pts.len());
        for (p, r) in pts.iter().zip(&rows) {
            assert_eq!((r.0, r.1), (p.source, p.ts.0));
            assert_eq!(r.2, p.values);
        }
        // Restriction to a subset prunes foreign rows (MG included).
        let only: HashSet<SourceId> = [SourceId(2)].into_iter().collect();
        let chunks =
            t.scan_columnar(Timestamp(0), Timestamp(40_000), &[0], Some(&only), &[], None).unwrap();
        let rows = chunk_rows(&chunks);
        assert_eq!(rows.len(), 32);
        assert!(rows.iter().all(|r| r.0 == SourceId(2)));
    }

    #[test]
    fn scan_columnar_shares_cache_columns() {
        let t = table(16);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 64, 10_000);
        t.flush().unwrap();
        // Warm the cache, then a columnar scan must decode nothing new.
        t.slice_scan(Timestamp(0), Timestamp(i64::MAX), &[0, 1], None).unwrap();
        let before = t.stats().snapshot().blob_decodes.unwrap();
        let chunks =
            t.scan_columnar(Timestamp(0), Timestamp(i64::MAX), &[0, 1], None, &[], None).unwrap();
        assert_eq!(chunks.iter().map(ColumnarChunk::len).sum::<usize>(), 64);
        assert_eq!(t.stats().snapshot().blob_decodes.unwrap(), before, "zero-copy from cache");
        // Sealed chunks carry whole-batch columns with a row offset.
        assert!(chunks.iter().all(|c| c.cols.len() == 2 && !c.is_empty()));
    }

    #[test]
    fn single_bucket_batches_answer_from_summaries() {
        let t = table(16);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        for i in 0..100i64 {
            t.put(&Record::dense(SourceId(5), Timestamp(i * 10_000), [i as f64, -(i as f64)]))
                .unwrap();
        }
        t.flush().unwrap();
        // 160ms buckets align with 16-row batches (rows start at t=0):
        // every sealed batch lands inside one bucket → pure summaries.
        let buckets = fold_scan(&t, Some(5), 0, i64::MAX, TimeGrain::Bucket(160_000), &[0]);
        let total: u64 = buckets.values().map(|a| a.0).sum();
        assert_eq!(total, 100);
        let snap = t.stats().snapshot();
        assert_eq!(snap.summary_answered_batches, Some(7), "all batches summary-answered");
        assert_eq!(snap.blob_decodes, Some(0), "no blob touched");
        // Bucket totals match per-range aggregates.
        for (&start, agg) in &buckets {
            let want = fold_scan(&t, Some(5), start, start + 160_000 - 1, TimeGrain::Whole, &[0]);
            assert_eq!(agg, &want[&0], "bucket {start}");
        }
    }

    #[test]
    fn straddling_batches_decode_and_split() {
        let t = table(16);
        t.register_source(SourceId(5), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        put_regular(&t, 5, 100, 10_000);
        t.flush().unwrap();
        // 100ms buckets split every 160ms batch across bucket edges →
        // decode path, but the per-bucket math must still agree.
        let buckets = fold_scan(&t, Some(5), 0, i64::MAX, TimeGrain::Bucket(100_000), &[0]);
        assert_eq!(buckets.len(), 10, "1s..2s at 100ms = 10 buckets");
        for (&start, agg) in &buckets {
            assert_eq!(agg.0, 10, "bucket {start}");
            let want = fold_scan(&t, Some(5), start, start + 100_000 - 1, TimeGrain::Whole, &[0]);
            assert_eq!(agg.1[0].sum, want[&0].1[0].sum, "bucket {start}");
        }
        assert!(t.stats().snapshot().blob_decodes.unwrap() > 0, "straddlers decode");
    }

    #[test]
    fn bucketed_summary_scans_see_open_buffers_and_reject_bad_widths() {
        let t = table(1000); // nothing seals
        t.register_source(SourceId(9), SourceClass::irregular_high()).unwrap();
        t.put(&Record::dense(SourceId(9), Timestamp(50_000), [7.0, 8.0])).unwrap();
        t.put(&Record::dense(SourceId(9), Timestamp(150_000), [9.0, 1.0])).unwrap();
        let buckets = fold_scan(&t, Some(9), 0, i64::MAX, TimeGrain::Bucket(100_000), &[0]);
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[&0].1[0].sum, 7.0);
        assert_eq!(buckets[&100_000].1[0].sum, 9.0);
        let zero = Some(TimeGrain::Bucket(0));
        assert!(t.scan_columnar(Timestamp(0), Timestamp(1), &[0], None, &[], zero).is_err());
    }

    #[test]
    fn compression_stats_track_ratio() {
        let t = table(64);
        t.register_source(SourceId(1), SourceClass::regular_high(Duration::from_hz(100.0)))
            .unwrap();
        // Constant values: the lossless XOR path should crush them.
        for i in 0..256i64 {
            t.put(&Record::dense(SourceId(1), Timestamp(i * 10_000), [42.0, 42.0])).unwrap();
        }
        t.flush().unwrap();
        let snap = t.stats().snapshot();
        assert!(snap.compression_ratio() > 5.0, "ratio={}", snap.compression_ratio());
        assert_eq!(snap.points_ingested, 512);
    }
}
