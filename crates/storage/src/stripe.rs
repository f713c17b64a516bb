//! Lock-striped ingest buffers.
//!
//! The single `Mutex<HashMap>` the table used to keep its open ingest
//! buffers behind made every concurrent writer serialize on one lock,
//! regardless of which source it fed. [`StripedBuffers`] splits the
//! buffer maps into [`SHARD_COUNT`] independently-locked shards keyed by
//! a multiplicative hash of the source id (or MG group id), so writers
//! to different sources almost never contend.
//!
//! **Striping invariant:** the shard of a key is a pure function of the
//! key, so one source's open buffer always lives in exactly one shard —
//! a writer sealing a batch and a reader taking a dirty read are
//! guaranteed to meet on the same mutex.
//!
//! Every acquisition goes through a `try_lock`-first fast path and is
//! counted on a [`ConcurrencyStats`], making the observed contention
//! rate (`shard_contended / shard_locks`) the tuning signal for
//! [`SHARD_COUNT`].

use crate::buffer::{MgBuffer, SourceBuffer};
use odh_pager::stats::ConcurrencyStats;
use odh_types::SourceId;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::Arc;

/// Number of stripes. A power of two (the hash selects with a mask); 16
/// keeps per-shard memory overhead trivial while exceeding the hardware
/// parallelism this reproduction targets (8 calibrated cores), so the
/// expected contention rate under uniform source traffic stays under
/// `writers / SHARD_COUNT`.
pub const SHARD_COUNT: usize = 16;

/// Rows drained from one per-source buffer:
/// `(timestamps, cols[tag][row], first_lsn, last_lsn)`.
pub type DrainedRows = (Vec<i64>, Vec<Vec<Option<f64>>>, u64, u64);
/// Rows drained from one MG buffer:
/// `(timestamps, ids, cols[tag][row], first_lsn, last_lsn)`.
pub type DrainedMgRows = (Vec<i64>, Vec<SourceId>, Vec<Vec<Option<f64>>>, u64, u64);

/// The open ingest buffers of one table, striped across independent locks.
pub struct StripedBuffers {
    source: Vec<Mutex<HashMap<u64, SourceBuffer>>>,
    mg: Vec<Mutex<HashMap<u32, MgBuffer>>>,
    stats: Arc<ConcurrencyStats>,
    /// Optional tracing: the metrics registry plus the shard-acquire
    /// latency histogram. Only the *contended* path is timed — an
    /// uncontended `try_lock` stays free of `Instant::now`.
    obs: Option<(Arc<odh_obs::Registry>, Arc<odh_obs::Histogram>)>,
}

/// Stripe selection: Fibonacci multiplicative hash, top bits. Contiguous
/// id blocks (meters numbered sequentially per feeder area) spread evenly
/// instead of landing on neighboring stripes. Shared with
/// [`crate::registry::SourceRegistry`] so a row's metadata record lives
/// in the registry shard with the same index as its buffer shard.
#[inline]
pub(crate) fn shard_of(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59) as usize & (SHARD_COUNT - 1)
}

impl StripedBuffers {
    pub fn new(stats: Arc<ConcurrencyStats>) -> StripedBuffers {
        StripedBuffers {
            source: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            mg: (0..SHARD_COUNT).map(|_| Mutex::new(HashMap::new())).collect(),
            stats,
            obs: None,
        }
    }

    /// Like [`StripedBuffers::new`], but contended shard acquisitions are
    /// additionally timed into `hist` (and the registry's slow-op log).
    pub fn with_obs(
        stats: Arc<ConcurrencyStats>,
        registry: Arc<odh_obs::Registry>,
        hist: Arc<odh_obs::Histogram>,
    ) -> StripedBuffers {
        let mut s = StripedBuffers::new(stats);
        s.obs = Some((registry, hist));
        s
    }

    fn lock_counted<'a, T>(&self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        match m.try_lock() {
            Some(g) => {
                self.stats.note_shard_lock(false);
                g
            }
            None => {
                self.stats.note_shard_lock(true);
                let _span = self
                    .obs
                    .as_ref()
                    .map(|(registry, hist)| registry.span("ingest_shard_acquire", hist));
                m.lock()
            }
        }
    }

    /// Lock the shard owning `source_id`'s per-source buffer.
    pub fn lock_source(&self, source_id: u64) -> MutexGuard<'_, HashMap<u64, SourceBuffer>> {
        self.lock_counted(&self.source[shard_of(source_id)])
    }

    /// Lock the shard owning `group_id`'s MG buffer.
    pub fn lock_mg(&self, group_id: u32) -> MutexGuard<'_, HashMap<u32, MgBuffer>> {
        self.lock_counted(&self.mg[shard_of(group_id as u64)])
    }

    /// Points currently sitting in unsealed buffers, across all shards.
    pub fn points(&self) -> u64 {
        let mut n = 0usize;
        for shard in &self.source {
            n += self.lock_counted(shard).values().map(|b| b.len()).sum::<usize>();
        }
        for shard in &self.mg {
            n += self.lock_counted(shard).values().map(|b| b.len()).sum::<usize>();
        }
        n as u64
    }

    /// Rows and non-NULL points currently sitting in unsealed buffers —
    /// what a lenient checkpoint subtracts from the persisted statistics
    /// (the WAL replay re-counts exactly these rows).
    pub fn buffered_totals(&self) -> (u64, u64) {
        let (mut records, mut points) = (0u64, 0u64);
        for shard in &self.source {
            for b in self.lock_counted(shard).values() {
                records += b.len() as u64;
                points += b.non_null() as u64;
            }
        }
        for shard in &self.mg {
            for b in self.lock_counted(shard).values() {
                records += b.len() as u64;
                points += b.non_null() as u64;
            }
        }
        (records, points)
    }

    /// Approximate heap bytes held by all open buffers plus the shard
    /// hash tables themselves — the `odh_table_open_buffer_bytes` gauge.
    pub fn approx_bytes(&self) -> usize {
        let src_slot = std::mem::size_of::<(u64, SourceBuffer)>() + 8;
        let mg_slot = std::mem::size_of::<(u32, MgBuffer)>() + 8;
        let mut n = 0usize;
        for shard in &self.source {
            let g = self.lock_counted(shard);
            n += g.capacity() * src_slot;
            n += g.values().map(SourceBuffer::approx_bytes).sum::<usize>();
        }
        for shard in &self.mg {
            let g = self.lock_counted(shard);
            n += g.capacity() * mg_slot;
            n += g.values().map(MgBuffer::approx_bytes).sum::<usize>();
        }
        n
    }

    /// Smallest `first_lsn` across all non-empty buffers — one past the
    /// checkpoint's safe truncation point. `None` when everything is
    /// sealed.
    pub fn min_first_lsn(&self) -> Option<u64> {
        let mut min: Option<u64> = None;
        let mut note = |is_empty: bool, first: u64| {
            if !is_empty && first > 0 {
                min = Some(min.map_or(first, |m| m.min(first)));
            }
        };
        for shard in &self.source {
            for b in self.lock_counted(shard).values() {
                note(b.is_empty(), b.first_lsn);
            }
        }
        for shard in &self.mg {
            for b in self.lock_counted(shard).values() {
                note(b.is_empty(), b.first_lsn);
            }
        }
        min
    }

    /// Take every non-empty per-source buffer (flush). Shards are drained
    /// one at a time; each lock is held only for the take, and `on_take`
    /// sees each source's taken timestamps while its shard is still locked.
    pub fn drain_sources(&self, mut on_take: impl FnMut(u64, &[i64])) -> Vec<(u64, DrainedRows)> {
        let mut out = Vec::new();
        for shard in &self.source {
            let mut g = self.lock_counted(shard);
            for (id, b) in g.iter_mut().filter(|(_, b)| !b.is_empty()) {
                let rows = b.take();
                on_take(*id, &rows.0);
                out.push((*id, rows));
            }
        }
        out
    }

    /// Take every non-empty MG buffer (flush).
    pub fn drain_mg(&self) -> Vec<(u32, DrainedMgRows)> {
        let mut out = Vec::new();
        for shard in &self.mg {
            let mut g = self.lock_counted(shard);
            out.extend(g.iter_mut().filter(|(_, b)| !b.is_empty()).map(|(id, b)| (*id, b.take())));
        }
        out
    }

    pub fn concurrency(&self) -> &Arc<ConcurrencyStats> {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_is_stable_per_key() {
        for id in 0..10_000u64 {
            assert_eq!(shard_of(id), shard_of(id), "stripe must be a pure function");
            assert!(shard_of(id) < SHARD_COUNT);
        }
    }

    #[test]
    fn contiguous_ids_spread_across_shards() {
        let mut hits = [0usize; SHARD_COUNT];
        for id in 0..SHARD_COUNT as u64 * 64 {
            hits[shard_of(id)] += 1;
        }
        let occupied = hits.iter().filter(|&&h| h > 0).count();
        assert!(occupied > SHARD_COUNT / 2, "hash collapsed to {occupied} shards: {hits:?}");
    }

    #[test]
    fn drain_collects_from_all_shards() {
        let s = StripedBuffers::new(Arc::new(ConcurrencyStats::default()));
        for id in 0..100u64 {
            let mut g = s.lock_source(id);
            g.entry(id).or_insert_with(|| SourceBuffer::new(1, 4)).push(
                id as i64,
                &[Some(1.0)],
                id + 1,
            );
        }
        assert_eq!(s.points(), 100);
        assert_eq!(s.buffered_totals(), (100, 100));
        assert_eq!(s.min_first_lsn(), Some(1));
        let drained = s.drain_sources(|_, _| {});
        assert_eq!(drained.len(), 100);
        assert_eq!(s.points(), 0);
        assert_eq!(s.min_first_lsn(), None);
        assert!(s.concurrency().shard_locks.get() >= 100);
    }
}
