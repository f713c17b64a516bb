//! Sharded, size-bounded LRU cache of decoded sealed batches.
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
//!   the tag-oriented projection economics of the blob layout.
//!
//! Sharding: keys hash across `SHARDS` independently locked shards, each
//! with its own recency order and byte budget, so concurrent scan fan-out
//! does not serialize on one LRU lock.

use crate::batch::Batch;
use odh_types::Result;
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

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
    /// Lazily decoded tag columns, by schema tag index.
    cols: Mutex<HashMap<usize, SharedCol>>,
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
        CachedBatch { batch, ts, cols: Mutex::new(HashMap::new()), bytes }
    }

    /// Decoded columns for `tags` (parallel to it). Returns `true` in the
    /// second slot when any tag had to be decoded now — i.e. this call
    /// paid a blob decode; `false` means the request was fully warm.
    ///
    /// Misses decode straight into the entry's own column vector (one
    /// exact-sized allocation per tag, which the cache retains); all
    /// intermediate decode state lives in the thread's [`SealScratch`].
    pub fn cols_for(&self, tags: &[usize]) -> Result<(Vec<SharedCol>, bool)> {
        let mut g = self.cols.lock();
        let mut decoded = false;
        crate::blob::with_tls_scratch(|scratch| -> Result<()> {
            for &tag in tags {
                if g.contains_key(&tag) {
                    continue;
                }
                decoded = true;
                let mut col = Vec::new();
                self.batch.blob().decode_tag_into(&self.ts, tag, scratch, &mut col)?;
                g.insert(tag, Arc::new(col));
            }
            Ok(())
        })?;
        Ok((tags.iter().map(|t| g[t].clone()).collect(), decoded))
    }

    /// [`CachedBatch::cols_for`] with pass-local fills: tags already
    /// decoded in the shared entry come from it, tags this pass decoded
    /// earlier come from `overlay`, and fresh decodes go into `overlay`
    /// instead of the entry. The optimistic read pass installs the
    /// overlay only when it validates (`ReadTally`), so a discarded
    /// retry can neither warm the shared entry nor skew the attribution
    /// of the pass whose result is returned.
    pub(crate) fn cols_for_overlay(
        self: &Arc<Self>,
        tags: &[usize],
        overlay: &mut HashMap<(usize, usize), (Arc<CachedBatch>, SharedCol)>,
    ) -> Result<(Vec<SharedCol>, bool)> {
        let g = self.cols.lock();
        let entry_key = Arc::as_ptr(self) as usize;
        let mut decoded = false;
        let mut out = Vec::with_capacity(tags.len());
        crate::blob::with_tls_scratch(|scratch| -> Result<()> {
            for &tag in tags {
                if let Some(c) = g.get(&tag) {
                    out.push(c.clone());
                } else if let Some((_, c)) = overlay.get(&(entry_key, tag)) {
                    out.push(c.clone());
                } else {
                    decoded = true;
                    let mut col = Vec::new();
                    self.batch.blob().decode_tag_into(&self.ts, tag, scratch, &mut col)?;
                    let c: SharedCol = Arc::new(col);
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
        self.cols.lock().entry(tag).or_insert(col);
    }

    /// Bytes this entry charges against its shard's budget.
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

struct Shard {
    map: HashMap<(u64, u64), (Arc<CachedBatch>, u64)>,
    /// Recency index: logical tick → key; smallest tick is evicted first.
    recency: BTreeMap<u64, (u64, u64)>,
    tick: u64,
    bytes: usize,
}

impl Shard {
    fn new() -> Shard {
        Shard { map: HashMap::new(), recency: BTreeMap::new(), tick: 0, bytes: 0 }
    }

    fn touch(&mut self, key: (u64, u64)) {
        self.tick += 1;
        let tick = self.tick;
        if let Some((_, old)) = self.map.get_mut(&key) {
            self.recency.remove(old);
            *old = tick;
            self.recency.insert(tick, key);
        }
    }

    fn remove(&mut self, key: &(u64, u64)) {
        if let Some((entry, tick)) = self.map.remove(key) {
            self.recency.remove(&tick);
            self.bytes -= entry.bytes();
        }
    }
}

/// The sharded LRU. One per [`crate::OdhTable`].
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

    /// Look up a sealed batch, refreshing its recency on a hit.
    pub fn get(&self, key: (u64, u64)) -> Option<Arc<CachedBatch>> {
        let mut g = self.shard(key).lock();
        let entry = g.map.get(&key).map(|(e, _)| e.clone())?;
        g.touch(key);
        Some(entry)
    }

    /// Admit a freshly fetched batch, evicting least-recently-used entries
    /// if the shard is over budget. Entries larger than the whole shard
    /// budget are not admitted (they would evict everything for one use).
    pub fn insert(&self, key: (u64, u64), entry: Arc<CachedBatch>) {
        if entry.bytes() > self.shard_budget {
            return;
        }
        let mut g = self.shard(key).lock();
        g.remove(&key);
        g.bytes += entry.bytes();
        g.tick += 1;
        let tick = g.tick;
        g.map.insert(key, (entry, tick));
        g.recency.insert(tick, key);
        while g.bytes > self.shard_budget {
            let Some((_, &victim)) = g.recency.iter().next() else { break };
            g.remove(&victim);
        }
    }

    /// Drop every entry of one container (a generation a compaction pass
    /// replaced).
    pub fn invalidate_container(&self, container: u64) {
        for shard in &self.shards {
            let mut g = shard.lock();
            let victims: Vec<(u64, u64)> =
                g.map.keys().filter(|k| k.0 == container).copied().collect();
            for key in victims {
                g.remove(&key);
            }
        }
    }

    /// Drop everything (benchmarks use this to measure cold-cache runs).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut g = shard.lock();
            g.map.clear();
            g.recency.clear();
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
    fn eviction_respects_budget_and_recency() {
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
