//! Sharded, size-bounded CLOCK cache of decoded sealed batches.
//!
//! The paper's cost model prices a query at "≈ expected ValueBlob bytes
//! accessed"; dashboards and WS2 templates re-read the same hot windows,
//! so without a cache they re-pay blob decode on every refresh. This
//! cache keeps recently fetched batches — deserialized header plus
//! materialized timestamps plus *lazily* decoded tag columns — keyed by
//! `(container id, heap record id)`.
//!
//! Invariants that make the cache safe:
//!
//! - Sealed batches are immutable and heap record ids are never reused
//!   within a container, so a live `(container, rid)` key always refers
//!   to the same bytes. There is nothing to invalidate on re-seal: a new
//!   seal is always a new rid.
//! - Container ids are process-unique ([`crate::container::Container`]),
//!   so the entries of a generation a compaction pass replaced can never
//!   alias its replacement. [`DecodeCache::invalidate_container`] reclaims
//!   their bytes eagerly when the pass drops the old generation.
//! - Tag columns are decoded on first request per tag, not eagerly: a
//!   miss on a wide schema charges only the projected tags, preserving
//!   the tag-oriented projection economics of the blob layout. Each tag
//!   has a write-once slot, so handing out warm columns takes no lock.
//!
//! Eviction is second-chance (CLOCK): a hit sets the entry's reference
//! bit; the sweep takes entries in admission order, evicting an
//! unreferenced one and sending a referenced one round again with its
//! bit cleared. A hit is one map probe under the shard lock. Each
//! shard's clock queue holds exactly its live keys.
//!
//! Sharding: keys hash across `SHARDS` independently locked shards, each
//! with its own clock and byte budget, so concurrent scan fan-out does
//! not serialize on one lock.

use crate::batch::Batch;
use odh_types::{OdhError, Result};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

const SHARDS: usize = 16;

/// A decoded tag column, shared between the cache and its readers.
pub type SharedCol = Arc<Vec<Option<f64>>>;

/// A sealed batch held by the cache: the deserialized record, its
/// materialized timestamps, and whichever tag columns scans have decoded
/// so far.
pub struct CachedBatch {
    pub batch: Batch,
    /// Materialized row timestamps (µs), explicit even for RTS batches.
    pub ts: Vec<i64>,
    /// Lazily decoded tag columns, one write-once slot per schema tag.
    cols: Box<[OnceLock<SharedCol>]>,
    /// Bytes charged against the shard budget: serialized size plus the
    /// worst-case decoded footprint, fixed at admission so lazy column
    /// fills never change the accounting.
    bytes: usize,
}

impl CachedBatch {
    pub fn new(batch: Batch, tag_count: usize) -> CachedBatch {
        let ts = match &batch {
            Batch::Rts(b) => b.timestamps(),
            Batch::Irts(b) => b.timestamps.clone(),
            Batch::Mg(b) => b.timestamps.clone(),
        };
        let n = ts.len();
        let bytes = batch.blob().len() + n * 24 + n * tag_count * 16;
        let cols = (0..tag_count).map(|_| OnceLock::new()).collect();
        CachedBatch { batch, ts, cols, bytes }
    }

    /// The slot of `tag`.
    fn slot(&self, tag: usize) -> Result<&OnceLock<SharedCol>> {
        self.cols.get(tag).ok_or_else(|| {
            OdhError::Schema(format!("tag {tag} out of range ({} tags)", self.cols.len()))
        })
    }

    /// Decode one tag column of this batch.
    fn decode(&self, tag: usize, scratch: &mut crate::blob::SealScratch) -> Result<SharedCol> {
        let mut col = Vec::new();
        self.batch.blob().decode_tag_into(&self.ts, tag, scratch, &mut col)?;
        Ok(Arc::new(col))
    }

    /// Decoded columns for `tags` (parallel to it). Returns `true` in the
    /// second slot when any tag had to be decoded now — i.e. this call
    /// paid a blob decode; `false` means the request was fully warm.
    ///
    /// Misses decode straight into the entry's own column vector (one
    /// exact-sized allocation per tag, which the cache retains); all
    /// intermediate decode state lives in the thread's [`SealScratch`].
    /// Two threads missing the same tag both decode; the first to
    /// install wins and both hand out its column.
    ///
    /// [`SealScratch`]: crate::blob::SealScratch
    pub fn cols_for(&self, tags: &[usize]) -> Result<(Vec<SharedCol>, bool)> {
        let mut decoded = false;
        let mut out = Vec::with_capacity(tags.len());
        crate::blob::with_tls_scratch(|scratch| -> Result<()> {
            for &tag in tags {
                let slot = self.slot(tag)?;
                if slot.get().is_none() {
                    decoded = true;
                    let _ = slot.set(self.decode(tag, scratch)?);
                }
                out.push(slot.get().expect("slot filled above").clone());
            }
            Ok(())
        })?;
        Ok((out, decoded))
    }

    /// [`CachedBatch::cols_for`] with pass-local fills: tags already
    /// decoded in the shared entry come from it, tags this pass decoded
    /// earlier come from `overlay`, and fresh decodes go into `overlay`
    /// instead of the entry. The optimistic read pass installs the
    /// overlay only when it validates (`ReadTally`), so a discarded
    /// retry can neither warm the shared entry nor skew the attribution
    /// of the pass whose result is returned. A fully warm request reads
    /// only the entry's slots.
    pub(crate) fn cols_for_overlay(
        self: &Arc<Self>,
        tags: &[usize],
        overlay: &mut HashMap<(usize, usize), (Arc<CachedBatch>, SharedCol)>,
    ) -> Result<(Vec<SharedCol>, bool)> {
        let mut out = Vec::with_capacity(tags.len());
        for &tag in tags {
            match self.slot(tag)?.get() {
                Some(c) => out.push(c.clone()),
                None => break,
            }
        }
        if out.len() == tags.len() {
            return Ok((out, false));
        }
        let entry_key = Arc::as_ptr(self) as usize;
        let mut decoded = false;
        crate::blob::with_tls_scratch(|scratch| -> Result<()> {
            for &tag in &tags[out.len()..] {
                if let Some(c) = self.slot(tag)?.get() {
                    out.push(c.clone());
                } else if let Some((_, c)) = overlay.get(&(entry_key, tag)) {
                    out.push(c.clone());
                } else {
                    decoded = true;
                    let c = self.decode(tag, scratch)?;
                    overlay.insert((entry_key, tag), (self.clone(), c.clone()));
                    out.push(c);
                }
            }
            Ok(())
        })?;
        Ok((out, decoded))
    }

    /// Install a column decoded by a validated pass (see
    /// [`CachedBatch::cols_for_overlay`]). First writer wins so an Arc
    /// another thread already shares is never replaced.
    pub(crate) fn install_col(&self, tag: usize, col: SharedCol) {
        if let Some(slot) = self.cols.get(tag) {
            let _ = slot.set(col);
        }
    }

    /// Bytes this entry charges against its shard's budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// A cached entry and its reference bit.
struct Slot {
    entry: Arc<CachedBatch>,
    referenced: bool,
}

struct Shard {
    map: HashMap<(u64, u64), Slot>,
    /// The clock: every key of `map` once, in the order the sweep visits
    /// them.
    clock: VecDeque<(u64, u64)>,
    bytes: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard { map: HashMap::new(), clock: VecDeque::new(), bytes: 0 }
    }

    /// Evict until the shard fits `budget`: the entry under the hand goes
    /// if unreferenced, else loses its bit and goes round again.
    fn sweep(&mut self, budget: usize) {
        while self.bytes > budget {
            let Some(key) = self.clock.pop_front() else { break };
            let slot = self.map.get_mut(&key).expect("the clock holds live keys");
            if std::mem::take(&mut slot.referenced) {
                self.clock.push_back(key);
            } else {
                let slot = self.map.remove(&key).expect("present above");
                self.bytes -= slot.entry.bytes();
            }
        }
    }
}

/// The sharded CLOCK cache. One per [`crate::OdhTable`].
pub struct DecodeCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget / `SHARDS`); 0 disables caching.
    shard_budget: usize,
}

impl DecodeCache {
    /// A cache bounded at `budget_bytes` across all shards.
    pub fn new(budget_bytes: usize) -> DecodeCache {
        DecodeCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: budget_bytes / SHARDS,
        }
    }

    fn shard(&self, key: (u64, u64)) -> &Mutex<Shard> {
        // Fibonacci-hash the pair; containers are small integers, rids are
        // dense, so mixing matters.
        let h = (key.0 ^ key.1.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 48) as usize % SHARDS]
    }

    /// Look up a sealed batch, setting its reference bit on a hit.
    pub fn get(&self, key: (u64, u64)) -> Option<Arc<CachedBatch>> {
        let mut g = self.shard(key).lock();
        let slot = g.map.get_mut(&key)?;
        slot.referenced = true;
        Some(slot.entry.clone())
    }

    /// Admit a freshly fetched batch, sweeping older entries out if the
    /// shard is over budget; the new entry joins the clock behind them,
    /// unreferenced. A key already present keeps its place and has its
    /// entry replaced and referenced. Entries larger than the whole
    /// shard budget are not admitted (they would evict everything for
    /// one use).
    pub fn insert(&self, key: (u64, u64), entry: Arc<CachedBatch>) {
        if entry.bytes() > self.shard_budget {
            return;
        }
        let mut g = self.shard(key).lock();
        g.bytes += entry.bytes();
        if let Some(slot) = g.map.get_mut(&key) {
            let old = std::mem::replace(slot, Slot { entry, referenced: true });
            g.bytes -= old.entry.bytes();
            g.sweep(self.shard_budget);
            return;
        }
        g.sweep(self.shard_budget);
        g.map.insert(key, Slot { entry, referenced: false });
        g.clock.push_back(key);
    }

    /// Drop every entry of one container (a generation a compaction pass
    /// replaced).
    pub fn invalidate_container(&self, container: u64) {
        for shard in &self.shards {
            let mut g = shard.lock();
            let Shard { map, clock, bytes } = &mut *g;
            clock.retain(|key| {
                if key.0 != container {
                    return true;
                }
                *bytes -= map.remove(key).expect("the clock holds live keys").entry.bytes();
                false
            });
        }
    }

    /// Drop everything (benchmarks use this to measure cold-cache runs).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut g = shard.lock();
            g.map.clear();
            g.clock.clear();
            g.bytes = 0;
        }
    }

    /// Cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes charged across all shards.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RtsBatch;
    use crate::blob::ValueBlob;
    use odh_compress::column::Policy;
    use odh_types::SourceId;

    fn entry(n: u32) -> Arc<CachedBatch> {
        let ts: Vec<i64> = (0..n as i64).map(|i| i * 1000).collect();
        let cols = vec![ts.iter().map(|&t| Some(t as f64)).collect::<Vec<_>>()];
        let b = RtsBatch {
            source: SourceId(1),
            begin: 0,
            interval: 1000,
            count: n,
            blob: ValueBlob::encode(&ts, &cols, Policy::Lossless),
            summaries: None,
        };
        Arc::new(CachedBatch::new(Batch::Rts(b), 1))
    }

    #[test]
    fn hit_after_insert_and_lazy_decode_once() {
        let c = DecodeCache::new(1 << 20);
        c.insert((1, 1), entry(16));
        let e = c.get((1, 1)).expect("hit");
        let (cols, decoded) = e.cols_for(&[0]).unwrap();
        assert!(decoded, "first projection decodes");
        assert_eq!(cols[0][3], Some(3000.0));
        let (_, decoded) = e.cols_for(&[0]).unwrap();
        assert!(!decoded, "second projection is warm");
        assert!(c.get((1, 2)).is_none());
    }

    #[test]
    fn eviction_respects_budget() {
        // Budget fits ~2 entries per shard; force all keys into one shard
        // by using one container and probing what lands together.
        let e = entry(16);
        let per = e.bytes();
        let c = DecodeCache::new(per * 2 * SHARDS + SHARDS);
        for rid in 0..64u64 {
            c.insert((7, rid), entry(16));
        }
        assert!(c.bytes() <= per * 2 * SHARDS + SHARDS, "stays within budget");
        assert!(c.len() < 64, "something must have been evicted");
    }

    #[test]
    fn oversized_entries_are_not_admitted() {
        let c = DecodeCache::new(64); // 4 bytes/shard — everything oversized
        c.insert((1, 1), entry(16));
        assert_eq!(c.len(), 0);
    }

    /// `n` keys of container 7 that land in one shard, and that shard.
    fn same_shard_keys(c: &DecodeCache, n: usize) -> (Vec<(u64, u64)>, &Mutex<Shard>) {
        let shard = c.shard((7, 0));
        let keys: Vec<_> = (0..)
            .map(|rid| (7, rid))
            .filter(|&k| std::ptr::eq(c.shard(k), shard))
            .take(n)
            .collect();
        (keys, shard)
    }

    /// Every key of the shard's clock is live, once.
    fn clock_matches_map(shard: &Mutex<Shard>) {
        let g = shard.lock();
        let mut keys: Vec<_> = g.clock.iter().copied().collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), g.clock.len(), "no key twice on the clock");
        assert_eq!(g.clock.len(), g.map.len());
        assert!(keys.iter().all(|k| g.map.contains_key(k)));
        assert_eq!(g.bytes, g.map.values().map(|s| s.entry.bytes()).sum::<usize>());
    }

    #[test]
    fn a_hit_entry_survives_one_sweep() {
        let per = entry(16).bytes();
        // Three entries fit each shard.
        let c = DecodeCache::new(per * 3 * SHARDS);
        let (keys, shard) = same_shard_keys(&c, 6);
        for &k in &keys[..3] {
            c.insert(k, entry(16));
        }
        assert!(c.get(keys[0]).is_some(), "the oldest entry is hit");
        // The sweep passes over the referenced oldest entry and evicts
        // the next one instead.
        c.insert(keys[3], entry(16));
        assert!(shard.lock().map.contains_key(&keys[0]), "the hit entry survives");
        assert!(!shard.lock().map.contains_key(&keys[1]), "the unreferenced one goes");
        // It went round behind the next entry, which goes first; its bit
        // is then spent, so with no further hit it goes after.
        c.insert(keys[4], entry(16));
        assert!(!shard.lock().map.contains_key(&keys[2]));
        assert!(shard.lock().map.contains_key(&keys[0]));
        c.insert(keys[5], entry(16));
        assert!(!shard.lock().map.contains_key(&keys[0]));
        assert!(shard.lock().map.contains_key(&keys[3]));
        clock_matches_map(shard);
    }

    #[test]
    fn bytes_never_exceed_the_budget() {
        let budget = entry(16).bytes() * 2 * SHARDS + SHARDS;
        let c = DecodeCache::new(budget);
        for rid in 0..256u64 {
            // Varied sizes and a hit on every third key.
            c.insert((7, rid), entry(8 + (rid % 13) as u32));
            if rid % 3 == 0 {
                c.get((7, rid / 2));
            }
            assert!(c.bytes() <= budget, "over budget after rid {rid}");
            for shard in &c.shards {
                assert!(shard.lock().bytes <= c.shard_budget);
            }
        }
        assert!(c.len() < 256, "something must have been evicted");
    }

    #[test]
    fn invalidation_and_reinserts_keep_the_clock_to_live_entries() {
        let c = DecodeCache::new(1 << 20);
        let (keys, shard) = same_shard_keys(&c, 8);
        for round in 0..50 {
            for &k in &keys {
                c.insert(k, entry(8));
                c.insert((8, k.1), entry(8));
            }
            if round % 2 == 0 {
                c.invalidate_container(7);
            }
            clock_matches_map(shard);
        }
        assert!(shard.lock().clock.len() <= 2 * keys.len());
        c.invalidate_container(8);
        c.invalidate_container(7);
        clock_matches_map(shard);
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }

    #[test]
    fn a_discarded_pass_installs_no_fill() {
        let c = DecodeCache::new(1 << 20);
        c.insert((1, 1), entry(16));
        let e = c.get((1, 1)).expect("hit");
        let mut overlay = HashMap::new();
        let (cols, decoded) = e.cols_for_overlay(&[0], &mut overlay).unwrap();
        assert!(decoded);
        assert_eq!(cols[0][2], Some(2000.0));
        let (_, again) = e.cols_for_overlay(&[0], &mut overlay).unwrap();
        assert!(!again, "the pass reuses its own fill");
        // The pass is discarded: its overlay is dropped uninstalled.
        drop(overlay);
        let (_, decoded) = e.cols_for_overlay(&[0], &mut HashMap::new()).unwrap();
        assert!(decoded, "the shared entry was not warmed");
        // A validated pass installs its fill; later passes are warm.
        let mut overlay = HashMap::new();
        e.cols_for_overlay(&[0], &mut overlay).unwrap();
        for ((_, tag), (entry, col)) in overlay {
            entry.install_col(tag, col);
        }
        let (_, decoded) = e.cols_for_overlay(&[0], &mut HashMap::new()).unwrap();
        assert!(!decoded);
        assert!(e.cols_for(&[1]).is_err(), "a tag past the schema is an error");
    }

    #[test]
    fn invalidate_container_only_hits_that_container() {
        let c = DecodeCache::new(1 << 20);
        c.insert((1, 1), entry(8));
        c.insert((1, 2), entry(8));
        c.insert((2, 1), entry(8));
        c.invalidate_container(1);
        assert!(c.get((1, 1)).is_none());
        assert!(c.get((1, 2)).is_none());
        assert!(c.get((2, 1)).is_some());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.bytes(), 0);
    }
}
