//! Per-server write-ahead log.
//!
//! The paper's insert path is explicitly non-transactional: points sit in
//! ingest buffers until `b` of them seal into a batch, and a crash loses
//! the open tail. The WAL closes that hole without giving up the
//! striped-parallel ingest of the previous PR:
//!
//! - **Frames.** Every entry is `len:u32 | crc32:u32 | payload`, where the
//!   payload is `lsn:u64 | kind:u8 | body`. LSNs are assigned from one
//!   atomic counter, so they are globally monotone; the CRC covers the
//!   whole payload. Five kinds exist: point appends, table definitions,
//!   source registrations, predicate deletes, and late (out-of-order)
//!   point appends — enough to rebuild a server from an empty disk image.
//!   Late points carry their own kind because they seal through the
//!   side-buffer path and are guarded by a *separate* per-source replay
//!   low-water mark (`late_sealed`): open-buffer and side-buffer LSNs of
//!   one source interleave, so a single mark could not cover both without
//!   losing whichever stream sealed later.
//! - **Group commit per stripe.** Appends encode into one of
//!   [`WAL_STRIPES`] staging buffers selected by the same multiplicative
//!   hash as the ingest shards, so the WAL adds no cross-source lock
//!   contention. A stripe flushes to the active log segment when it
//!   exceeds the group-commit threshold; [`Wal::sync`] flushes every
//!   stripe and fsyncs, advancing the *durable LSN* — the acknowledgement
//!   boundary.
//! - **Segments.** The log is a numbered sequence of [`LogStore`]
//!   segments in a [`LogDir`]. Appends go to the newest (*active*)
//!   segment; once it holds [`SEGMENT_BYTES`] it is fsynced and closed,
//!   and a fresh one is created (a *roll*). Closed segments are never
//!   written again, so only the active one can have a torn tail. Each
//!   stripe tracks the highest LSN in its staging buffer, and each segment
//!   the highest LSN flushed into it.
//! - **Ordering.** The table holds the ingest-shard lock across
//!   `append → buffer push`, and a source maps to exactly one stripe, so
//!   per-source LSN order equals buffer order equals arrival order. File
//!   order is *not* LSN order (stripes flush independently); recovery
//!   sorts frames by LSN before replay.
//! - **Recovery.** [`Wal::open`] reads the segments one at a time, in id
//!   order, and stops at the first torn or corrupt frame: that segment is
//!   cut back to its last good byte and every later segment is removed.
//!   The parsed frames go to the server for idempotent replay.
//! - **Checkpoints.** [`Wal::truncate_through`] rolls the active segment
//!   and deletes the closed segments whose highest LSN is at or below the
//!   checkpoint's low-water mark. It never reads or rewrites log bytes:
//!   frames that open buffers still need stay in the segments that hold
//!   them, and a crash at any step leaves every needed frame in place.

use crate::delete::DeletePredicate;
use crate::snapshot::TableConfigSnapshot;
use odh_pager::log::{LogDir, LogStore};
use odh_sim::ResourceMeter;
use odh_types::{OdhError, Record, Result, SourceClass, SourceId, Timestamp};
use parking_lot::{Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Staging stripes; matches `stripe::SHARD_COUNT` so a source's WAL stripe
/// is as contention-free as its ingest shard.
pub const WAL_STRIPES: usize = 16;

/// Flush a stripe to the log once its staging buffer exceeds this many
/// bytes (group commit).
pub const GROUP_COMMIT_BYTES: usize = 64 * 1024;

/// Roll the active segment once it holds this many bytes. Recovery reads
/// one segment at a time, so this also bounds its read buffer.
pub const SEGMENT_BYTES: u64 = 4 << 20;

/// Upper bound on one frame; larger length prefixes mean garbage.
const MAX_FRAME: usize = 1 << 20;

const KIND_POINT: u8 = 1;
const KIND_TABLE_DEF: u8 = 2;
const KIND_SOURCE: u8 = 3;
const KIND_DELETE: u8 = 4;
const KIND_LATE_POINT: u8 = 5;

/// One recovered WAL entry.
#[derive(Debug, Clone)]
pub enum WalEntry {
    Point {
        table: u16,
        record: Record,
    },
    TableDef {
        table: u16,
        config: TableConfigSnapshot,
    },
    Source {
        table: u16,
        source: SourceId,
        class: SourceClass,
    },
    Delete {
        table: u16,
        predicate: DeletePredicate,
    },
    /// A point that arrived below its source's seal watermark and was
    /// routed to the side buffer. Identical body to `Point`; the distinct
    /// kind routes replay back through the side buffer so the two
    /// per-source low-water marks stay independent.
    LatePoint {
        table: u16,
        record: Record,
    },
}

/// A parsed frame: the entry plus its LSN.
#[derive(Debug, Clone)]
pub struct WalFrame {
    pub lsn: u64,
    pub entry: WalEntry,
}

/// What [`Wal::open`] found.
pub struct WalRecovery {
    /// All valid frames, sorted by LSN (replay order).
    pub frames: Vec<WalFrame>,
    /// Bytes cut off at the first torn/corrupt frame, including the
    /// segments removed after it.
    pub truncated_bytes: u64,
    /// Human-readable note when the tail was truncated.
    pub warning: Option<String>,
}

/// Aggregate WAL counters (for benches and the resource model).
#[derive(Debug, Clone, Copy, Default, serde::Serialize)]
pub struct WalStats {
    pub appends: u64,
    pub bytes_appended: u64,
    pub group_commits: u64,
    pub syncs: u64,
}

/// One staging stripe: the encode buffer plus its append counters. The
/// counters live under the stripe lock (already held on every append)
/// instead of shared atomics, so hot-path appends touch no cross-stripe
/// cache line.
#[derive(Default)]
struct Stripe {
    buf: Vec<u8>,
    /// Highest LSN staged in `buf` (LSNs grow within a stripe).
    max_lsn: u64,
    appends: u64,
    bytes_appended: u64,
    /// Appends/bytes already settled into the shared registry counters —
    /// the settle happens per group commit, keeping the per-append path
    /// free of shared-cache-line traffic.
    settled_appends: u64,
    settled_bytes: u64,
}

/// Registry handles of one WAL. Counters are cluster-wide (every server
/// of a cluster shares one meter, hence one registry); they are settled
/// at group-commit/sync boundaries, so after any [`Wal::sync`] the
/// registry agrees exactly with [`Wal::stats`].
struct WalObs {
    registry: Arc<odh_obs::Registry>,
    appends: Arc<odh_obs::Counter>,
    bytes: Arc<odh_obs::Counter>,
    group_commits: Arc<odh_obs::Counter>,
    syncs: Arc<odh_obs::Counter>,
    /// Live segments across the registry's WALs.
    segments: Arc<odh_obs::Gauge>,
    /// Segments deleted by checkpoints.
    segments_dropped: Arc<odh_obs::Counter>,
    /// Append latency, sampled 1-in-[`APPEND_SAMPLE`] (per stripe) so the
    /// hot path pays no clock reads on the other appends.
    append_hist: Arc<odh_obs::Histogram>,
    fsync_hist: Arc<odh_obs::Histogram>,
}

/// Sample rate for append-latency spans (power of two; the stripe-local
/// append count selects).
const APPEND_SAMPLE: u64 = 64;

impl WalObs {
    fn new(meter: &ResourceMeter) -> WalObs {
        let registry = meter.registry().clone();
        WalObs {
            appends: registry.counter("odh_wal_appends_total", &[]),
            bytes: registry.counter("odh_wal_bytes_total", &[]),
            group_commits: registry.counter("odh_wal_group_commits_total", &[]),
            syncs: registry.counter("odh_wal_syncs_total", &[]),
            segments: registry.gauge("odh_wal_segments", &[]),
            segments_dropped: registry.counter("odh_wal_segments_dropped_total", &[]),
            append_hist: registry.histogram("odh_wal_append_seconds", &[]),
            fsync_hist: registry.histogram("odh_wal_fsync_seconds", &[]),
            registry,
        }
    }
}

/// One log segment and the highest LSN flushed into it.
struct Segment {
    id: u64,
    log: Arc<dyn LogStore>,
    max_lsn: u64,
}

/// The live segments: the closed ones (fsynced, never written again),
/// oldest first, and the active one that takes appends.
struct Segments {
    closed: VecDeque<Segment>,
    active: Segment,
}

impl Segments {
    fn count(&self) -> usize {
        self.closed.len() + 1
    }
}

/// The write-ahead log of one data server.
pub struct Wal {
    dir: Arc<dyn LogDir>,
    segments: Mutex<Segments>,
    meter: Arc<ResourceMeter>,
    /// Next LSN to assign (LSNs start at 1).
    next_lsn: AtomicU64,
    /// Highest LSN known durable (flushed + synced).
    durable_lsn: AtomicU64,
    stripes: Vec<Mutex<Stripe>>,
    group_commit_bytes: usize,
    group_commits: AtomicU64,
    syncs: AtomicU64,
    obs: WalObs,
}

#[inline]
fn stripe_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize & (WAL_STRIPES - 1)
}

impl Wal {
    /// Start a WAL over an empty (or to-be-discarded) segment directory:
    /// every existing segment is removed.
    pub fn create(dir: Arc<dyn LogDir>, meter: Arc<ResourceMeter>) -> Result<Arc<Wal>> {
        for id in dir.list()? {
            dir.remove(id)?;
        }
        let active = Segment { id: 1, log: dir.create(1)?, max_lsn: 0 };
        let segments = Segments { closed: VecDeque::new(), active };
        Ok(Arc::new(Wal::with_state(dir, segments, meter, 1, 0)))
    }

    /// Reopen an existing log: parse the segments in order, one at a time,
    /// until the first torn or corrupt frame; cut that segment there and
    /// remove every later one. Returns the surviving frames sorted by LSN.
    pub fn open(
        dir: Arc<dyn LogDir>,
        meter: Arc<ResourceMeter>,
    ) -> Result<(Arc<Wal>, WalRecovery)> {
        let mut frames = Vec::new();
        let mut live: VecDeque<Segment> = VecDeque::new();
        let mut truncated = 0u64;
        let mut warning = None;
        let mut ids = dir.list()?.into_iter();
        for id in ids.by_ref() {
            let log = dir.open(id)?;
            let bytes = log.read_all()?;
            let (seg_frames, good_len, reason) = parse_frames(&bytes);
            let max_lsn = seg_frames.iter().map(|f| f.lsn).max().unwrap_or(0);
            frames.extend(seg_frames);
            let torn = good_len < bytes.len();
            if torn {
                let cut = (bytes.len() - good_len) as u64;
                let w = format!(
                    "wal: truncated {cut} byte(s) of torn/corrupt tail at offset {good_len} of \
                     segment {id} ({})",
                    reason.unwrap_or_default()
                );
                eprintln!("warning: {w}");
                log.set_len(good_len as u64)?;
                truncated += cut;
                warning = Some(w);
            }
            live.push_back(Segment { id, log, max_lsn });
            if torn {
                break;
            }
        }
        // Segments after a tear lie past the end of the log.
        for id in ids {
            truncated += dir.open(id)?.len();
            dir.remove(id)?;
        }
        let active = match live.pop_back() {
            Some(seg) => seg,
            None => Segment { id: 1, log: dir.create(1)?, max_lsn: 0 },
        };
        frames.sort_by_key(|f| f.lsn);
        let max_lsn = frames.last().map(|f| f.lsn).unwrap_or(0);
        let segments = Segments { closed: live, active };
        let wal = Arc::new(Wal::with_state(dir, segments, meter, max_lsn + 1, max_lsn));
        Ok((wal, WalRecovery { frames, truncated_bytes: truncated, warning }))
    }

    fn with_state(
        dir: Arc<dyn LogDir>,
        segments: Segments,
        meter: Arc<ResourceMeter>,
        next_lsn: u64,
        durable: u64,
    ) -> Wal {
        let obs = WalObs::new(&meter);
        obs.segments.add(segments.count() as i64);
        Wal {
            dir,
            segments: Mutex::new(segments),
            meter,
            next_lsn: AtomicU64::new(next_lsn),
            durable_lsn: AtomicU64::new(durable),
            stripes: (0..WAL_STRIPES).map(|_| Mutex::new(Stripe::default())).collect(),
            group_commit_bytes: GROUP_COMMIT_BYTES,
            group_commits: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            obs,
        }
    }

    /// Append one point. The caller must hold the ingest-shard lock of
    /// `record.source` across this call and the buffer push, which makes
    /// per-source LSN order identical to buffer order.
    pub fn append_point(&self, table: u16, record: &Record) -> Result<u64> {
        self.append_point_kind(KIND_POINT, table, record)
    }

    /// Append one late (out-of-order) point. Same body as
    /// [`Wal::append_point`], distinct kind: replay routes it into the
    /// side buffer under the `late_sealed` low-water mark. The caller must
    /// hold the **side-buffer** shard lock of `record.source` across this
    /// call and the side-buffer push.
    pub fn append_late_point(&self, table: u16, record: &Record) -> Result<u64> {
        self.append_point_kind(KIND_LATE_POINT, table, record)
    }

    fn append_point_kind(&self, kind: u8, table: u16, record: &Record) -> Result<u64> {
        self.append(stripe_of(record.source.0), kind, |buf| {
            buf.extend_from_slice(&table.to_le_bytes());
            buf.extend_from_slice(&record.source.0.to_le_bytes());
            buf.extend_from_slice(&record.ts.micros().to_le_bytes());
            buf.extend_from_slice(&(record.values.len() as u16).to_le_bytes());
            for chunk in record.values.chunks(8) {
                let mut bm = 0u8;
                for (i, v) in chunk.iter().enumerate() {
                    if v.is_some() {
                        bm |= 1 << i;
                    }
                }
                buf.push(bm);
            }
            for v in record.values.iter().flatten() {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        })
    }

    /// Append a same-source run of points under a **single** stripe-lock
    /// acquisition — the batch-ingest counterpart of [`Wal::append_point`].
    /// Each row still becomes its own point frame with its own LSN (the
    /// log bytes are identical to appending the rows one at a time, so
    /// recovery is untouched); only the locking is amortized. `cols` is
    /// column-major: `cols[tag][row]`. Returns the `(first, last)` LSNs
    /// of the run.
    pub fn append_run(
        &self,
        table: u16,
        source: u64,
        ts: &[i64],
        cols: &[Vec<Option<f64>>],
        rows: std::ops::Range<usize>,
    ) -> Result<(u64, u64)> {
        let mut s = self.stripes[stripe_of(source)].lock();
        let _span = s
            .appends
            .is_multiple_of(APPEND_SAMPLE)
            .then(|| self.obs.registry.span("wal_append", &self.obs.append_hist));
        let mut first = None;
        let mut last = 0u64;
        for row in rows {
            // LSN assignment and encoding are atomic under the stripe
            // lock, as in `append`: within a source, file order is LSN
            // order.
            let lsn = self.next_lsn.fetch_add(1, Ordering::AcqRel);
            first.get_or_insert(lsn);
            last = lsn;
            let frame_start = s.buf.len();
            s.buf.extend_from_slice(&[0u8; 8]); // len + crc placeholders
            let payload_start = s.buf.len();
            s.buf.extend_from_slice(&lsn.to_le_bytes());
            s.buf.push(KIND_POINT);
            s.buf.extend_from_slice(&table.to_le_bytes());
            s.buf.extend_from_slice(&source.to_le_bytes());
            s.buf.extend_from_slice(&ts[row].to_le_bytes());
            s.buf.extend_from_slice(&(cols.len() as u16).to_le_bytes());
            for chunk in cols.chunks(8) {
                let mut bm = 0u8;
                for (i, col) in chunk.iter().enumerate() {
                    if col[row].is_some() {
                        bm |= 1 << i;
                    }
                }
                s.buf.push(bm);
            }
            for col in cols {
                if let Some(v) = col[row] {
                    s.buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            let payload_len = s.buf.len() - payload_start;
            if payload_len > MAX_FRAME {
                s.buf.truncate(frame_start);
                return Err(OdhError::Config(format!(
                    "wal: frame of {payload_len} bytes exceeds limit"
                )));
            }
            let crc = crc32(&s.buf[payload_start..]);
            s.buf[frame_start..frame_start + 4]
                .copy_from_slice(&(payload_len as u32).to_le_bytes());
            s.buf[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_le_bytes());
            s.appends += 1;
            s.bytes_appended += (8 + payload_len) as u64;
            s.max_lsn = lsn;
        }
        if s.buf.len() >= self.group_commit_bytes {
            self.flush_stripe(&mut s)?;
        }
        Ok((first.unwrap_or(0), last))
    }

    /// Append a table definition (so a server can be rebuilt from an
    /// empty disk image).
    pub fn append_table_def(&self, table: u16, config: &TableConfigSnapshot) -> Result<u64> {
        let json = serde_json::to_vec(config)
            .map_err(|e| OdhError::Corrupt(format!("wal: encode table def: {e}")))?;
        self.append(0, KIND_TABLE_DEF, |buf| {
            buf.extend_from_slice(&table.to_le_bytes());
            buf.extend_from_slice(&json);
        })
    }

    /// Append a predicate delete. The tombstone becomes durable (hence
    /// acknowledgeable) at the next [`Wal::sync`], like any point.
    pub fn append_delete(&self, table: u16, predicate: &DeletePredicate) -> Result<u64> {
        let json = serde_json::to_vec(predicate)
            .map_err(|e| OdhError::Corrupt(format!("wal: encode delete predicate: {e}")))?;
        self.append(0, KIND_DELETE, |buf| {
            buf.extend_from_slice(&table.to_le_bytes());
            buf.extend_from_slice(&json);
        })
    }

    /// Append a source registration.
    pub fn append_source(&self, table: u16, source: SourceId, class: &SourceClass) -> Result<u64> {
        let json = serde_json::to_vec(class)
            .map_err(|e| OdhError::Corrupt(format!("wal: encode source class: {e}")))?;
        self.append(stripe_of(source.0), KIND_SOURCE, |buf| {
            buf.extend_from_slice(&table.to_le_bytes());
            buf.extend_from_slice(&source.0.to_le_bytes());
            buf.extend_from_slice(&json);
        })
    }

    /// The shared frame writer: encodes `len | crc | lsn | kind | body`
    /// **directly into the stripe's staging buffer** — the body writer
    /// appends in place, then the length and CRC placeholders are patched.
    /// No temporary allocation happens on the append path.
    fn append(
        &self,
        stripe: usize,
        kind: u8,
        write_body: impl FnOnce(&mut Vec<u8>),
    ) -> Result<u64> {
        let mut s = self.stripes[stripe].lock();
        let _span = s
            .appends
            .is_multiple_of(APPEND_SAMPLE)
            .then(|| self.obs.registry.span("wal_append", &self.obs.append_hist));
        // LSN assignment and encoding are atomic under the stripe lock, so
        // within a stripe (hence within a source) file order is LSN order.
        let lsn = self.next_lsn.fetch_add(1, Ordering::AcqRel);
        let frame_start = s.buf.len();
        s.buf.extend_from_slice(&[0u8; 8]); // len + crc placeholders
        let payload_start = s.buf.len();
        s.buf.extend_from_slice(&lsn.to_le_bytes());
        s.buf.push(kind);
        write_body(&mut s.buf);
        let payload_len = s.buf.len() - payload_start;
        if payload_len > MAX_FRAME {
            s.buf.truncate(frame_start);
            return Err(OdhError::Config(format!(
                "wal: frame of {payload_len} bytes exceeds limit"
            )));
        }
        let crc = crc32(&s.buf[payload_start..]);
        s.buf[frame_start..frame_start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
        s.buf[frame_start + 4..frame_start + 8].copy_from_slice(&crc.to_le_bytes());
        s.appends += 1;
        s.bytes_appended += (8 + payload_len) as u64;
        s.max_lsn = lsn;
        if s.buf.len() >= self.group_commit_bytes {
            self.flush_stripe(&mut s)?;
        }
        Ok(lsn)
    }

    fn flush_stripe(&self, s: &mut MutexGuard<'_, Stripe>) -> Result<()> {
        if s.buf.is_empty() {
            return Ok(());
        }
        self.group_commits.fetch_add(1, Ordering::Relaxed);
        self.obs.group_commits.inc();
        self.obs.appends.add(s.appends - s.settled_appends);
        self.obs.bytes.add(s.bytes_appended - s.settled_bytes);
        s.settled_appends = s.appends;
        s.settled_bytes = s.bytes_appended;
        self.meter.wal_write(s.buf.len());
        let mut segs = self.segments.lock();
        let r = segs.active.log.append(&s.buf);
        // Recorded even if the append failed part-way: a higher mark only
        // keeps the segment longer.
        segs.active.max_lsn = segs.active.max_lsn.max(s.max_lsn);
        s.buf.clear();
        r?;
        if segs.active.log.len() >= SEGMENT_BYTES {
            self.roll(&mut segs)?;
        }
        Ok(())
    }

    /// Close the active segment — fsync it, so a torn tail can only ever
    /// sit in the newest segment — and start the next one.
    fn roll(&self, segs: &mut Segments) -> Result<()> {
        segs.active.log.sync()?;
        let id = segs.active.id + 1;
        let log = self.dir.create(id)?;
        let closed = std::mem::replace(&mut segs.active, Segment { id, log, max_lsn: 0 });
        segs.closed.push_back(closed);
        self.obs.segments.add(1);
        Ok(())
    }

    /// Flush every stripe and fsync the log. Returns the durable LSN: every
    /// record appended before this call is now crash-safe (the group-commit
    /// acknowledgement point).
    pub fn sync(&self) -> Result<u64> {
        let target = self.next_lsn.load(Ordering::Acquire) - 1;
        for stripe in &self.stripes {
            self.flush_stripe(&mut stripe.lock())?;
        }
        // Segments closed since the flushes were fsynced by their roll.
        let active = self.segments.lock().active.log.clone();
        {
            let _span = self.obs.registry.span("wal_fsync", &self.obs.fsync_hist);
            active.sync()?;
        }
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.obs.syncs.inc();
        self.meter.wal_sync();
        self.durable_lsn.fetch_max(target, Ordering::AcqRel);
        Ok(target)
    }

    /// Highest LSN assigned so far (0 when none).
    pub fn max_lsn(&self) -> u64 {
        self.next_lsn.load(Ordering::Acquire) - 1
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn.load(Ordering::Acquire)
    }

    /// The checkpoint's log truncation: drop every segment whose frames
    /// all have `lsn <= low_water`. Under the stripe locks it flushes the
    /// stripes and rolls the active segment, so everything appended so far
    /// sits in closed segments; then it deletes, oldest first, the closed
    /// segments whose highest LSN is at or below the mark. No log byte is
    /// read or rewritten. A segment holding any frame above the mark — a
    /// row an open buffer still needs — stays whole, and a crash at any
    /// step leaves only extra segments behind, whose frames replay skips
    /// (they are at or below the checkpoint LSN).
    pub fn truncate_through(&self, low_water: u64) -> Result<()> {
        let mut segs = {
            let mut stripes: Vec<MutexGuard<'_, Stripe>> =
                self.stripes.iter().map(|s| s.lock()).collect();
            for s in stripes.iter_mut() {
                self.flush_stripe(s)?;
            }
            let mut segs = self.segments.lock();
            if !segs.active.log.is_empty() {
                self.roll(&mut segs)?;
            }
            segs
        };
        let mut i = 0;
        while i < segs.closed.len() {
            if segs.closed[i].max_lsn <= low_water {
                self.dir.remove(segs.closed[i].id)?;
                segs.closed.remove(i);
                self.obs.segments.add(-1);
                self.obs.segments_dropped.inc();
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// Bytes in the live segments (excluding staged, unflushed entries).
    pub fn log_bytes(&self) -> u64 {
        let segs = self.segments.lock();
        segs.closed.iter().map(|s| s.log.len()).sum::<u64>() + segs.active.log.len()
    }

    pub fn stats(&self) -> WalStats {
        let (mut appends, mut bytes) = (0u64, 0u64);
        for s in &self.stripes {
            let s = s.lock();
            appends += s.appends;
            bytes += s.bytes_appended;
        }
        WalStats {
            appends,
            bytes_appended: bytes,
            group_commits: self.group_commits.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // The segments stay on their device; this WAL no longer holds them.
        self.obs.segments.add(-(self.segments.get_mut().count() as i64));
    }
}

/// Parse one segment's frames; returns `(frames, good_len, reason)` where
/// `good_len` is the offset of the first invalid byte.
fn parse_frames(bytes: &[u8]) -> (Vec<WalFrame>, usize, Option<String>) {
    let mut frames = Vec::new();
    let mut off = 0usize;
    let reason;
    loop {
        if off + 8 > bytes.len() {
            reason = if off == bytes.len() { None } else { Some("partial frame header".into()) };
            break;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
        if !(9..=MAX_FRAME).contains(&len) {
            reason = Some(format!("implausible frame length {len}"));
            break;
        }
        if off + 8 + len > bytes.len() {
            reason = Some("partial frame payload".into());
            break;
        }
        let payload = &bytes[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            reason = Some("crc mismatch".into());
            break;
        }
        let lsn = u64::from_le_bytes(payload[..8].try_into().unwrap());
        match decode_entry(payload[8], &payload[9..]) {
            Ok(entry) => frames.push(WalFrame { lsn, entry }),
            Err(e) => {
                reason = Some(format!("undecodable frame: {e}"));
                break;
            }
        }
        off += 8 + len;
    }
    (frames, off, reason)
}

/// Decode the shared `Point`/`LatePoint` frame body.
fn decode_point_body(body: &[u8]) -> Result<(u16, Record)> {
    let short = || OdhError::Corrupt("wal: truncated frame body".into());
    if body.len() < 20 {
        return Err(short());
    }
    let table = u16::from_le_bytes(body[0..2].try_into().unwrap());
    let source = u64::from_le_bytes(body[2..10].try_into().unwrap());
    let ts = i64::from_le_bytes(body[10..18].try_into().unwrap());
    let n = u16::from_le_bytes(body[18..20].try_into().unwrap()) as usize;
    let bm_len = n.div_ceil(8);
    if body.len() < 20 + bm_len {
        return Err(short());
    }
    let bitmap = &body[20..20 + bm_len];
    let mut values = Vec::with_capacity(n);
    let mut voff = 20 + bm_len;
    for i in 0..n {
        if bitmap[i / 8] & (1 << (i % 8)) != 0 {
            if body.len() < voff + 8 {
                return Err(short());
            }
            values.push(Some(f64::from_le_bytes(body[voff..voff + 8].try_into().unwrap())));
            voff += 8;
        } else {
            values.push(None);
        }
    }
    Ok((table, Record::new(SourceId(source), Timestamp(ts), values)))
}

fn decode_entry(kind: u8, body: &[u8]) -> Result<WalEntry> {
    let short = || OdhError::Corrupt("wal: truncated frame body".into());
    match kind {
        KIND_POINT => {
            let (table, record) = decode_point_body(body)?;
            Ok(WalEntry::Point { table, record })
        }
        KIND_LATE_POINT => {
            let (table, record) = decode_point_body(body)?;
            Ok(WalEntry::LatePoint { table, record })
        }
        KIND_DELETE => {
            if body.len() < 2 {
                return Err(short());
            }
            let table = u16::from_le_bytes(body[0..2].try_into().unwrap());
            let predicate: DeletePredicate = serde_json::from_slice(&body[2..])
                .map_err(|e| OdhError::Corrupt(format!("wal: delete predicate: {e}")))?;
            Ok(WalEntry::Delete { table, predicate })
        }
        KIND_TABLE_DEF => {
            if body.len() < 2 {
                return Err(short());
            }
            let table = u16::from_le_bytes(body[0..2].try_into().unwrap());
            let config: TableConfigSnapshot = serde_json::from_slice(&body[2..])
                .map_err(|e| OdhError::Corrupt(format!("wal: table def: {e}")))?;
            Ok(WalEntry::TableDef { table, config })
        }
        KIND_SOURCE => {
            if body.len() < 10 {
                return Err(short());
            }
            let table = u16::from_le_bytes(body[0..2].try_into().unwrap());
            let source = u64::from_le_bytes(body[2..10].try_into().unwrap());
            let class: SourceClass = serde_json::from_slice(&body[10..])
                .map_err(|e| OdhError::Corrupt(format!("wal: source class: {e}")))?;
            Ok(WalEntry::Source { table, source: SourceId(source), class })
        }
        k => Err(OdhError::Corrupt(format!("wal: unknown frame kind {k}"))),
    }
}

/// Slicing-by-8 lookup tables for CRC-32 (IEEE 802.3), built at compile
/// time. `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k]`
/// advances a byte through `k` further zero bytes, letting the loop fold
/// 8 input bytes per iteration with independent lookups (the
/// byte-at-a-time serial dependency is what made CRC the hottest part of
/// the WAL append path).
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3), slicing-by-8; the standard reflected polynomial.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableConfig;
    use odh_pager::log::MemLogDir;
    use odh_types::SchemaType;

    fn mem_wal() -> (Arc<MemLogDir>, Arc<Wal>) {
        let dir = Arc::new(MemLogDir::new());
        let wal = Wal::create(dir.clone(), ResourceMeter::unmetered()).unwrap();
        (dir, wal)
    }

    fn point(src: u64, ts: i64) -> Record {
        Record::new(SourceId(src), Timestamp(ts), vec![Some(ts as f64), None, Some(-1.0)])
    }

    /// A point frame of about 2 KiB, so a few thousand appends roll.
    fn wide_point(src: u64, ts: i64) -> Record {
        Record::new(SourceId(src), Timestamp(ts), vec![Some(ts as f64); 250])
    }

    fn recovered_lsns(dir: Arc<MemLogDir>) -> Vec<u64> {
        let (_, rec) = Wal::open(dir, ResourceMeter::unmetered()).unwrap();
        rec.frames.iter().map(|f| f.lsn).collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_with_monotone_lsns() {
        let (dir, wal) = mem_wal();
        let cfg = TableConfigSnapshot::from(&TableConfig::new(SchemaType::new("m", ["a"])));
        wal.append_table_def(3, &cfg).unwrap();
        wal.append_source(3, SourceId(7), &SourceClass::irregular_high()).unwrap();
        for i in 0..10i64 {
            wal.append_point(3, &point(7, i)).unwrap();
        }
        assert_eq!(wal.sync().unwrap(), 12);
        assert_eq!(wal.durable_lsn(), 12);

        let (wal2, rec) = Wal::open(dir, ResourceMeter::unmetered()).unwrap();
        assert_eq!(rec.frames.len(), 12);
        assert!(rec.warning.is_none());
        assert!(rec.frames.windows(2).all(|w| w[0].lsn < w[1].lsn));
        assert_eq!(wal2.max_lsn(), 12);
        match &rec.frames[0].entry {
            WalEntry::TableDef { table, config } => {
                assert_eq!(*table, 3);
                assert_eq!(config.schema.name, "m");
            }
            e => panic!("expected table def, got {e:?}"),
        }
        match &rec.frames[5].entry {
            WalEntry::Point { table, record } => {
                assert_eq!(*table, 3);
                assert_eq!(record.ts, Timestamp(3));
                assert_eq!(record.values, vec![Some(3.0), None, Some(-1.0)]);
            }
            e => panic!("expected point, got {e:?}"),
        }
    }

    #[test]
    fn late_point_and_delete_frames_round_trip() {
        let (dir, wal) = mem_wal();
        wal.append_late_point(3, &point(7, 41)).unwrap();
        let pred = DeletePredicate::for_sources(10, 20, [SourceId(7), SourceId(9)]);
        wal.append_delete(3, &pred).unwrap();
        wal.append_delete(4, &DeletePredicate::all_sources(i64::MIN, 0)).unwrap();
        wal.sync().unwrap();
        let (_, rec) = Wal::open(dir, ResourceMeter::unmetered()).unwrap();
        assert_eq!(rec.frames.len(), 3);
        match &rec.frames[0].entry {
            WalEntry::LatePoint { table, record } => {
                assert_eq!(*table, 3);
                assert_eq!(record.source, SourceId(7));
                assert_eq!(record.ts, Timestamp(41));
            }
            e => panic!("expected late point, got {e:?}"),
        }
        match &rec.frames[1].entry {
            WalEntry::Delete { table, predicate } => {
                assert_eq!(*table, 3);
                assert_eq!(*predicate, pred);
            }
            e => panic!("expected delete, got {e:?}"),
        }
        match &rec.frames[2].entry {
            WalEntry::Delete { predicate, .. } => assert_eq!(predicate.sources, None),
            e => panic!("expected delete, got {e:?}"),
        }
    }

    #[test]
    fn group_commit_batches_appends() {
        let (dir, wal) = mem_wal();
        for i in 0..100i64 {
            wal.append_point(0, &point(1, i)).unwrap();
        }
        // Nothing flushed yet (well under the threshold), one commit on sync.
        assert_eq!(dir.total_len(), 0);
        wal.sync().unwrap();
        let s = wal.stats();
        assert_eq!(s.appends, 100);
        assert_eq!(s.group_commits, 1);
        assert_eq!(dir.total_len(), s.bytes_appended);
        assert_eq!(wal.log_bytes(), s.bytes_appended);
    }

    #[test]
    fn torn_tail_is_truncated_and_survivors_parse() {
        let (dir, wal) = mem_wal();
        for i in 0..5i64 {
            wal.append_point(0, &point(2, i)).unwrap();
        }
        wal.sync().unwrap();
        let good = dir.total_len();
        // A torn frame: header promising more bytes than exist.
        dir.segment(1).unwrap().append(&[64, 0, 0, 0, 1, 2, 3, 4, 9, 9]).unwrap();
        let (_, rec) = Wal::open(dir.clone(), ResourceMeter::unmetered()).unwrap();
        assert_eq!(rec.frames.len(), 5);
        assert_eq!(rec.truncated_bytes, 10);
        assert!(rec.warning.is_some());
        assert_eq!(dir.total_len(), good, "log physically truncated to last good frame");
    }

    #[test]
    fn bit_flip_stops_parse_at_corrupt_frame() {
        let (dir, wal) = mem_wal();
        for i in 0..8i64 {
            wal.append_point(0, &point(3, i)).unwrap();
        }
        wal.sync().unwrap();
        // Flip a bit in the 6th frame's payload; frames 1..=5 survive.
        let frame_len = dir.total_len() / 8;
        dir.segment(1).unwrap().flip_bit(5 * frame_len + 10);
        let (_, rec) = Wal::open(dir, ResourceMeter::unmetered()).unwrap();
        assert_eq!(rec.frames.len(), 5);
        assert!(rec.warning.unwrap().contains("crc"));
    }

    #[test]
    fn truncate_through_keeps_tail_frames() {
        let (dir, wal) = mem_wal();
        for i in 0..7i64 {
            wal.append_point(0, &point(4, i)).unwrap();
        }
        // Mark 0 drops nothing but closes LSNs 1..=7 into segment 1.
        wal.truncate_through(0).unwrap();
        for i in 7..10i64 {
            wal.append_point(0, &point(4, i)).unwrap();
        }
        wal.sync().unwrap();
        wal.truncate_through(7).unwrap();
        assert_eq!(dir.list().unwrap(), vec![2, 3], "segment 1 dropped, 2 closed, 3 active");
        assert_eq!(recovered_lsns(dir), vec![8, 9, 10]);
        // New appends continue above the old maximum.
        assert_eq!(wal.append_point(0, &point(4, 99)).unwrap(), 11);
    }

    #[test]
    fn truncate_everything_empties_the_log() {
        let (dir, wal) = mem_wal();
        for i in 0..10i64 {
            wal.append_point(0, &point(4, i)).unwrap();
        }
        wal.sync().unwrap();
        wal.truncate_through(wal.max_lsn()).unwrap();
        assert_eq!(dir.total_len(), 0);
        assert_eq!(wal.log_bytes(), 0);
        assert_eq!(dir.list().unwrap(), vec![2], "only the fresh active segment is left");
    }

    #[test]
    fn roll_happens_at_segment_size() {
        let meter = ResourceMeter::unmetered();
        let dir = Arc::new(MemLogDir::new());
        let wal = Wal::create(dir.clone(), meter.clone()).unwrap();
        let mut ts = 0;
        while dir.list().unwrap().len() == 1 {
            assert!(wal.log_bytes() < SEGMENT_BYTES, "the active segment passed the size");
            wal.append_point(0, &wide_point(1, ts)).unwrap();
            ts += 1;
        }
        // The roll came with the group commit that crossed the size.
        let closed = dir.segment(1).unwrap().len();
        assert!(closed >= SEGMENT_BYTES, "rolled early at {closed} bytes");
        assert!(closed < SEGMENT_BYTES + 2 * GROUP_COMMIT_BYTES as u64, "rolled late");
        assert_eq!(dir.list().unwrap(), vec![1, 2]);
        assert_eq!(meter.registry().sum_gauge("odh_wal_segments"), 2);
        wal.sync().unwrap();
        assert_eq!(recovered_lsns(dir).len(), ts as usize, "no frame lost across the roll");
        drop(wal);
        assert_eq!(meter.registry().sum_gauge("odh_wal_segments"), 0);
    }

    #[test]
    fn checkpoint_drops_exactly_the_segments_at_or_below_the_mark() {
        let meter = ResourceMeter::unmetered();
        let dir = Arc::new(MemLogDir::new());
        let wal = Wal::create(dir.clone(), meter.clone()).unwrap();
        // Segments 1..=4 hold LSNs 1..=5, 6..=10, 11..=15 and 16..=18.
        for (seg, lsns) in [(1, 1..=5), (2, 6..=10), (3, 11..=15)] {
            for lsn in lsns {
                wal.append_point(0, &point(seg, lsn)).unwrap();
            }
            wal.truncate_through(0).unwrap();
        }
        for lsn in 16..=18 {
            wal.append_point(0, &point(4, lsn)).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(dir.list().unwrap(), vec![1, 2, 3, 4]);
        wal.truncate_through(10).unwrap();
        // 1 and 2 (max 5, 10) go; 3 (max 15) and the rolled 4 (max 18)
        // stay; 5 is the new active segment.
        assert_eq!(dir.list().unwrap(), vec![3, 4, 5]);
        let registry = meter.registry();
        assert_eq!(registry.sum_counter("odh_wal_segments_dropped_total"), 2);
        assert_eq!(registry.sum_gauge("odh_wal_segments"), 3);
        assert_eq!(wal.log_bytes(), dir.total_len());
        assert_eq!(recovered_lsns(dir.clone()), (11..=18).collect::<Vec<u64>>());
        // A mark inside a segment keeps it whole.
        wal.truncate_through(17).unwrap();
        assert_eq!(dir.list().unwrap(), vec![4, 5]);
        assert_eq!(recovered_lsns(dir), (16..=18).collect::<Vec<u64>>());
    }

    #[test]
    fn open_over_several_segments_keeps_everything_before_a_torn_tail() {
        let (dir, wal) = mem_wal();
        for lsn in 1..=12i64 {
            wal.append_point(0, &point(lsn as u64 % 3, lsn)).unwrap();
            if lsn % 4 == 0 {
                wal.truncate_through(0).unwrap();
            }
        }
        wal.append_point(0, &point(0, 13)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        assert_eq!(dir.list().unwrap(), vec![1, 2, 3, 4]);
        let newest = dir.segment(4).unwrap();
        let good = newest.len();
        newest.append(&[200, 0, 0, 0, 7, 7, 7, 7, 1]).unwrap();
        let (wal, rec) = Wal::open(dir.clone(), ResourceMeter::unmetered()).unwrap();
        assert_eq!(
            rec.frames.iter().map(|f| f.lsn).collect::<Vec<_>>(),
            (1..=13).collect::<Vec<_>>()
        );
        assert_eq!(rec.truncated_bytes, 9);
        assert!(rec.warning.unwrap().contains("segment 4"));
        assert_eq!(newest.len(), good, "the newest segment is cut at the tear");
        // Appends resume in the cut segment, above the survivors.
        assert_eq!(wal.append_point(0, &point(1, 14)).unwrap(), 14);
        wal.sync().unwrap();
        assert_eq!(dir.list().unwrap(), vec![1, 2, 3, 4]);
        drop(wal);

        // Corruption in a middle segment ends the log there: the later
        // segments are removed.
        dir.segment(2).unwrap().flip_bit(10);
        let (_, rec) = Wal::open(dir.clone(), ResourceMeter::unmetered()).unwrap();
        assert_eq!(rec.frames.iter().map(|f| f.lsn).collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(dir.list().unwrap(), vec![1, 2]);
        assert!(rec.truncated_bytes > 0);
    }

    /// Counts the bytes read through every segment it hands out.
    struct CountingDir {
        inner: MemLogDir,
        read_bytes: Arc<AtomicU64>,
    }

    struct CountingLog {
        inner: Arc<dyn LogStore>,
        read_bytes: Arc<AtomicU64>,
    }

    impl LogStore for CountingLog {
        fn append(&self, bytes: &[u8]) -> Result<()> {
            self.inner.append(bytes)
        }
        fn read_all(&self) -> Result<Vec<u8>> {
            let bytes = self.inner.read_all()?;
            self.read_bytes.fetch_add(bytes.len() as u64, Ordering::Relaxed);
            Ok(bytes)
        }
        fn set_len(&self, len: u64) -> Result<()> {
            self.inner.set_len(len)
        }
        fn len(&self) -> u64 {
            self.inner.len()
        }
        fn sync(&self) -> Result<()> {
            self.inner.sync()
        }
    }

    impl CountingDir {
        fn wrap(&self, inner: Arc<dyn LogStore>) -> Arc<dyn LogStore> {
            Arc::new(CountingLog { inner, read_bytes: self.read_bytes.clone() })
        }
    }

    impl LogDir for CountingDir {
        fn create(&self, id: u64) -> Result<Arc<dyn LogStore>> {
            Ok(self.wrap(self.inner.create(id)?))
        }
        fn open(&self, id: u64) -> Result<Arc<dyn LogStore>> {
            Ok(self.wrap(self.inner.open(id)?))
        }
        fn list(&self) -> Result<Vec<u64>> {
            self.inner.list()
        }
        fn remove(&self, id: u64) -> Result<()> {
            self.inner.remove(id)
        }
    }

    #[test]
    fn checkpoint_reads_no_log_bytes() {
        let read_bytes = Arc::new(AtomicU64::new(0));
        let dir = Arc::new(CountingDir { inner: MemLogDir::new(), read_bytes: read_bytes.clone() });
        let wal = Wal::create(dir.clone(), ResourceMeter::unmetered()).unwrap();
        for i in 0..2_000i64 {
            wal.append_point(0, &point(i as u64 % 5, i)).unwrap();
        }
        wal.sync().unwrap();
        // A mark below the tail (open buffers) and one at the top.
        wal.truncate_through(1_000).unwrap();
        wal.append_point(0, &point(1, 5_000)).unwrap();
        wal.truncate_through(wal.max_lsn()).unwrap();
        assert_eq!(read_bytes.load(Ordering::Relaxed), 0, "checkpoint read the log");
        // Control: recovery does read it.
        wal.append_point(0, &point(1, 5_001)).unwrap();
        wal.sync().unwrap();
        Wal::open(dir, ResourceMeter::unmetered()).unwrap();
        assert!(read_bytes.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn sparse_and_empty_value_vectors_round_trip() {
        let (dir, wal) = mem_wal();
        wal.append_point(0, &Record::new(SourceId(1), Timestamp(5), vec![None, None])).unwrap();
        wal.append_point(0, &Record::new(SourceId(1), Timestamp(6), vec![])).unwrap();
        wal.sync().unwrap();
        let (_, rec) = Wal::open(dir, ResourceMeter::unmetered()).unwrap();
        match &rec.frames[0].entry {
            WalEntry::Point { record, .. } => assert_eq!(record.values, vec![None, None]),
            e => panic!("{e:?}"),
        }
        match &rec.frames[1].entry {
            WalEntry::Point { record, .. } => assert!(record.values.is_empty()),
            e => panic!("{e:?}"),
        }
    }

    #[test]
    fn concurrent_appends_keep_per_source_lsn_order() {
        const PER_SOURCE: i64 = 1_000;
        let (dir, wal) = mem_wal();
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); 4];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|src| {
                    let wal = &wal;
                    s.spawn(move || {
                        (0..PER_SOURCE)
                            .map(|i| wal.append_point(0, &wide_point(src, i)).unwrap())
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            for (i, h) in handles.into_iter().enumerate() {
                seen[i] = h.join().unwrap();
            }
        });
        for lsns in &seen {
            assert!(lsns.windows(2).all(|w| w[0] < w[1]), "per-source LSNs must be monotone");
        }
        let mut all: Vec<u64> = seen.concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4 * PER_SOURCE as usize, "LSNs are globally unique");

        // Across the rolls, each source's frames sit in file order — by
        // segment id, then offset — in LSN and arrival order.
        wal.sync().unwrap();
        assert!(dir.list().unwrap().len() > 1, "the appends must roll at least once");
        let mut in_file: Vec<Vec<(u64, i64)>> = vec![Vec::new(); 4];
        for id in dir.list().unwrap() {
            let (frames, good, _) = parse_frames(&dir.segment(id).unwrap().read_all().unwrap());
            assert_eq!(good as u64, dir.segment(id).unwrap().len());
            for f in frames {
                if let WalEntry::Point { record, .. } = f.entry {
                    in_file[record.source.0 as usize].push((f.lsn, record.ts.micros()));
                }
            }
        }
        for (src, frames) in in_file.iter().enumerate() {
            let lsns: Vec<u64> = frames.iter().map(|f| f.0).collect();
            assert_eq!(lsns, seen[src], "source {src}: file order differs from LSN order");
            assert!(frames.iter().enumerate().all(|(i, f)| f.1 == i as i64));
        }
    }
}
