//! The B+tree proper.
//!
//! Duplicate keys are allowed (secondary indexes on timestamps have many);
//! [`BTree::get`] returns the first match and range scans return all.
//! Writers take the tree-level write lock; range iterators re-fetch leaves
//! without holding it, so scans interleaved with writers see a live tree
//! ("dirty read" — exactly the isolation the paper's query component runs
//! at).

use crate::keycodec::prefix_successor;
use crate::node;
use odh_pager::page::{PageId, NO_PAGE, PAGE_SIZE};
use odh_pager::pool::BufferPool;
use odh_types::{OdhError, Result};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Recovery image of a tree; see [`BTree::snapshot`] / [`BTree::restore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeSnapshot {
    pub root: u64,
    pub height: u32,
    pub entries: u64,
    pub pages: u64,
}

/// A B+tree over pages of a [`BufferPool`].
pub struct BTree {
    pool: Arc<BufferPool>,
    state: RwLock<TreeState>,
    entries: AtomicU64,
    /// Pages allocated to this tree (for per-structure footprint reports).
    pages: AtomicU64,
}

#[derive(Clone, Copy)]
struct TreeState {
    root: PageId,
    height: u32, // 1 = root is a leaf
}

impl BTree {
    /// Create an empty tree.
    pub fn create(pool: Arc<BufferPool>) -> Result<BTree> {
        let (root, _) = pool.allocate_with(|buf| node::init(buf, true))?;
        Ok(BTree {
            pool,
            state: RwLock::new(TreeState { root, height: 1 }),
            entries: AtomicU64::new(0),
            pages: AtomicU64::new(1),
        })
    }

    /// Capture the tree's recovery image (flush the pool for durability).
    pub fn snapshot(&self) -> TreeSnapshot {
        let st = self.state.read();
        TreeSnapshot {
            root: st.root.0,
            height: st.height,
            entries: self.entries.load(Ordering::Relaxed),
            pages: self.pages.load(Ordering::Relaxed),
        }
    }

    /// Re-attach a tree from its recovery image.
    pub fn restore(pool: Arc<BufferPool>, snap: &TreeSnapshot) -> BTree {
        BTree {
            pool,
            state: RwLock::new(TreeState { root: PageId(snap.root), height: snap.height }),
            entries: AtomicU64::new(snap.entries),
            pages: AtomicU64::new(snap.pages),
        }
    }

    pub fn len(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height (1 = single leaf). Callers charge `height ×
    /// node_visit` cost units per operation.
    pub fn height(&self) -> u32 {
        self.state.read().height
    }

    /// Pages owned by this tree.
    pub fn page_count(&self) -> u64 {
        self.pages.load(Ordering::Relaxed)
    }

    pub fn size_bytes(&self) -> u64 {
        self.page_count() * PAGE_SIZE as u64
    }

    /// Insert `(key, value)`. Duplicates allowed; the new entry lands before
    /// existing equal keys.
    pub fn insert(&self, key: &[u8], value: u64) -> Result<()> {
        if key.len() > node::MAX_KEY {
            return Err(OdhError::Config(format!(
                "key length {} exceeds maximum {}",
                key.len(),
                node::MAX_KEY
            )));
        }
        let mut st = self.state.write();
        if let Some((sep, right)) = self.insert_rec(st.root, key, value)? {
            // Root split: grow a new root.
            let old_root = st.root;
            let (new_root, _) = self.pool.allocate_with(|buf| {
                node::init(buf, false);
                node::set_link(buf, old_root.0);
                node::insert_at(buf, 0, &sep, right.0);
            })?;
            self.pages.fetch_add(1, Ordering::Relaxed);
            st.root = new_root;
            st.height += 1;
        }
        self.entries.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Recursive insert; returns the separator and new right sibling when
    /// `page` split.
    fn insert_rec(
        &self,
        page: PageId,
        key: &[u8],
        value: u64,
    ) -> Result<Option<(Vec<u8>, PageId)>> {
        let (is_leaf, child) = self.pool.with_page(page, |buf| {
            if node::is_leaf(buf) {
                (true, PageId(NO_PAGE))
            } else {
                let ub = node::upper_bound(buf, key);
                let child = if ub == 0 { node::link(buf) } else { node::payload_at(buf, ub - 1) };
                (false, PageId(child))
            }
        })?;

        if is_leaf {
            let inserted = self.pool.with_page_mut(page, |buf| {
                if node::fits(buf, key.len()) {
                    let pos = match node::search(buf, key) {
                        Ok(i) | Err(i) => i,
                    };
                    node::insert_at(buf, pos, key, value);
                    true
                } else {
                    false
                }
            })?;
            if inserted {
                return Ok(None);
            }
            return self.split_leaf(page, key, value).map(Some);
        }

        let split = self.insert_rec(child, key, value)?;
        let Some((sep, new_child)) = split else { return Ok(None) };
        // Insert the separator into this interior node.
        let inserted = self.pool.with_page_mut(page, |buf| {
            if node::fits(buf, sep.len()) {
                let pos = node::upper_bound(buf, &sep);
                node::insert_at(buf, pos, &sep, new_child.0);
                true
            } else {
                false
            }
        })?;
        if inserted {
            return Ok(None);
        }
        self.split_interior(page, &sep, new_child).map(Some)
    }

    fn split_leaf(&self, page: PageId, key: &[u8], value: u64) -> Result<(Vec<u8>, PageId)> {
        let (mut entries, old_link) =
            self.pool.with_page(page, |buf| (node::all_entries(buf), node::link(buf)))?;
        let pos = entries.partition_point(|(k, _)| k.as_slice() < key);
        entries.insert(pos, (key.to_vec(), value));
        let mid = entries.len() / 2;
        let right_entries = entries.split_off(mid);
        let sep = right_entries[0].0.clone();
        let (right_page, _) = self.pool.allocate_with(|buf| {
            node::rebuild(buf, true, old_link, &right_entries);
        })?;
        self.pages.fetch_add(1, Ordering::Relaxed);
        self.pool.with_page_mut(page, |buf| {
            node::rebuild(buf, true, right_page.0, &entries);
        })?;
        Ok((sep, right_page))
    }

    fn split_interior(
        &self,
        page: PageId,
        sep: &[u8],
        new_child: PageId,
    ) -> Result<(Vec<u8>, PageId)> {
        let (mut entries, leftmost) =
            self.pool.with_page(page, |buf| (node::all_entries(buf), node::link(buf)))?;
        let pos = entries.partition_point(|(k, _)| k.as_slice() <= sep);
        entries.insert(pos, (sep.to_vec(), new_child.0));
        let mid = entries.len() / 2;
        // The middle separator moves up; its child becomes the right node's
        // leftmost child.
        let (up_key, up_child) = entries[mid].clone();
        let right_entries: Vec<_> = entries[mid + 1..].to_vec();
        entries.truncate(mid);
        let (right_page, _) = self.pool.allocate_with(|buf| {
            node::rebuild(buf, false, up_child, &right_entries);
        })?;
        self.pages.fetch_add(1, Ordering::Relaxed);
        self.pool.with_page_mut(page, |buf| {
            node::rebuild(buf, false, leftmost, &entries);
        })?;
        Ok((up_key, right_page))
    }

    /// Descend to the leaf that would contain `key`.
    fn find_leaf(&self, key: &[u8]) -> Result<PageId> {
        let root = self.state.read().root;
        self.find_leaf_from(root, key)
    }

    /// Descend from an explicit root (used by callers already holding the
    /// state lock; `parking_lot` locks are not reentrant). Uses
    /// lower-bound child choice so the leftmost duplicate of `key` is
    /// always reachable (duplicates may straddle splits, making interior
    /// separators equal to the key).
    fn find_leaf_from(&self, root: PageId, key: &[u8]) -> Result<PageId> {
        let mut page = root;
        loop {
            let next = self.pool.with_page(page, |buf| {
                if node::is_leaf(buf) {
                    None
                } else {
                    let lb = node::lower_bound(buf, key);
                    Some(PageId(if lb == 0 {
                        node::link(buf)
                    } else {
                        node::payload_at(buf, lb - 1)
                    }))
                }
            })?;
            match next {
                None => return Ok(page),
                Some(child) => page = child,
            }
        }
    }

    /// First value whose key equals `key` (leftmost duplicate).
    pub fn get(&self, key: &[u8]) -> Result<Option<u64>> {
        match self.range(Some(key), Some(key), true)?.next() {
            Some(entry) => Ok(Some(entry?.1)),
            None => Ok(None),
        }
    }

    /// Delete the first entry equal to `key`. Returns whether one existed.
    /// Leaf-only: underflowing leaves are tolerated (workloads never delete;
    /// see crate docs).
    pub fn delete(&self, key: &[u8]) -> Result<bool> {
        let st = self.state.write();
        let mut leaf = self.find_leaf_from(st.root, key)?;
        loop {
            // 0 = removed, 1 = definitively absent, 2 = continue at `next`.
            let (verdict, next) = self.pool.with_page_mut(leaf, |buf| {
                match node::search(buf, key) {
                    Ok(i) => {
                        node::remove_at(buf, i);
                        (0u8, NO_PAGE)
                    }
                    // Insertion point inside the leaf: the key is nowhere.
                    Err(i) if i < node::count(buf) => (1, NO_PAGE),
                    // Past the end: equal keys may start in the next leaf.
                    Err(_) => (2, node::link(buf)),
                }
            })?;
            match verdict {
                0 => {
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                    return Ok(true);
                }
                1 => return Ok(false),
                _ => {
                    if next == NO_PAGE {
                        return Ok(false);
                    }
                    leaf = PageId(next);
                }
            }
        }
    }

    /// Iterate `(key, value)` for `start <= key < end` (or `<= end` when
    /// `inclusive_end`). `None` bounds are open.
    pub fn range(
        &self,
        start: Option<&[u8]>,
        end: Option<&[u8]>,
        inclusive_end: bool,
    ) -> Result<RangeIter> {
        let leaf = self.find_leaf(start.unwrap_or(&[]))?;
        let mut it = RangeIter {
            pool: self.pool.clone(),
            next_leaf: Some(leaf),
            buffer: Vec::new(),
            idx: 0,
            start: start.map(|s| s.to_vec()),
            end: end.map(|e| e.to_vec()),
            inclusive_end,
            done: false,
        };
        it.load_next_leaf()?;
        Ok(it)
    }

    /// All entries whose key begins with `prefix`.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<RangeIter> {
        match prefix_successor(prefix) {
            Some(end) => self.range(Some(prefix), Some(&end), false),
            None => self.range(Some(prefix), None, false),
        }
    }

    /// Build a tree from already-sorted entries, packing leaves to a fill
    /// factor. Far faster than repeated inserts for dataset preparation.
    pub fn bulk_load<'a>(
        pool: Arc<BufferPool>,
        sorted: impl Iterator<Item = (&'a [u8], u64)>,
        fill: f64,
    ) -> Result<BTree> {
        assert!((0.3..=1.0).contains(&fill));
        let budget = ((PAGE_SIZE - node::HEADER) as f64 * fill) as usize;
        let mut leaves: Vec<(Vec<u8>, PageId)> = Vec::new(); // (first key, page)
        let mut cur: Vec<(Vec<u8>, u64)> = Vec::new();
        let mut cur_bytes = 0usize;
        let mut total = 0u64;
        let pool2 = pool.clone();
        let mut flush_leaf = |cur: &mut Vec<(Vec<u8>, u64)>| -> Result<()> {
            if cur.is_empty() {
                return Ok(());
            }
            let first = cur[0].0.clone();
            let (page, _) = pool2.allocate_with(|buf| node::rebuild(buf, true, NO_PAGE, cur))?;
            // Link previous leaf to this one.
            if let Some((_, prev)) = leaves.last() {
                pool2.with_page_mut(*prev, |buf| node::set_link(buf, page.0))?;
            }
            leaves.push((first, page));
            cur.clear();
            Ok(())
        };
        for (k, v) in sorted {
            let need = k.len() + 8 + node::SLOT_SIZE;
            if cur_bytes + need > budget && !cur.is_empty() {
                flush_leaf(&mut cur)?;
                cur_bytes = 0;
            }
            cur.push((k.to_vec(), v));
            cur_bytes += need;
            total += 1;
        }
        flush_leaf(&mut cur)?;
        #[allow(clippy::drop_non_drop)] // ends the closure's &mut borrow of `leaves`
        drop(flush_leaf);

        if leaves.is_empty() {
            return BTree::create(pool);
        }
        let mut pages = leaves.len() as u64;
        // Build interior levels bottom-up.
        let mut level: Vec<(Vec<u8>, PageId)> = leaves;
        let mut height = 1u32;
        while level.len() > 1 {
            let mut next: Vec<(Vec<u8>, PageId)> = Vec::new();
            let mut i = 0usize;
            // ~200 children per interior node with short keys; reuse byte budget.
            while i < level.len() {
                let group_start = i;
                let mut bytes = 0usize;
                let mut children: Vec<(Vec<u8>, u64)> = Vec::new();
                let leftmost = level[i].1;
                i += 1;
                while i < level.len() {
                    let need = level[i].0.len() + 8 + node::SLOT_SIZE;
                    if bytes + need > budget {
                        break;
                    }
                    children.push((level[i].0.clone(), level[i].1 .0));
                    bytes += need;
                    i += 1;
                }
                let (page, _) = pool.allocate_with(|buf| {
                    node::rebuild(buf, false, leftmost.0, &children);
                })?;
                pages += 1;
                next.push((level[group_start].0.clone(), page));
            }
            level = next;
            height += 1;
        }
        Ok(BTree {
            pool,
            state: RwLock::new(TreeState { root: level[0].1, height }),
            entries: AtomicU64::new(total),
            pages: AtomicU64::new(pages),
        })
    }
}

/// Streaming range iterator. Fetches one leaf at a time; does not hold the
/// tree lock, so concurrent writers may shift entries (dirty-read
/// semantics).
pub struct RangeIter {
    pool: Arc<BufferPool>,
    next_leaf: Option<PageId>,
    buffer: Vec<(Vec<u8>, u64)>,
    idx: usize,
    start: Option<Vec<u8>>,
    end: Option<Vec<u8>>,
    inclusive_end: bool,
    done: bool,
}

impl RangeIter {
    fn load_next_leaf(&mut self) -> Result<()> {
        self.buffer.clear();
        self.idx = 0;
        let Some(page) = self.next_leaf else {
            self.done = true;
            return Ok(());
        };
        // Copy only the in-range entries out of the leaf: range scans over
        // composite keys (one source's time window) typically match a tiny
        // slice of a leaf, and wholesale materialization would dominate
        // slice-query cost.
        let (entries, link, past_end) = self.pool.with_page(page, |buf| {
            let n = node::count(buf);
            let mut v = Vec::new();
            let mut past_end = false;
            let start_pos = match &self.start {
                Some(s) => match node::search(buf, s) {
                    Ok(i) | Err(i) => i,
                },
                None => 0,
            };
            for i in start_pos..n {
                let k = node::key_at(buf, i);
                match &self.end {
                    Some(e)
                        if (self.inclusive_end && k > e.as_slice())
                            || (!self.inclusive_end && k >= e.as_slice()) =>
                    {
                        past_end = true;
                        break;
                    }
                    _ => {}
                }
                v.push((k.to_vec(), node::payload_at(buf, i)));
            }
            (v, node::link(buf), past_end)
        })?;
        self.buffer = entries;
        self.next_leaf = if past_end || link == NO_PAGE { None } else { Some(PageId(link)) };
        if past_end && self.buffer.is_empty() {
            self.done = true;
        }
        Ok(())
    }

    fn past_end(&self, key: &[u8]) -> bool {
        match &self.end {
            None => false,
            Some(e) => {
                if self.inclusive_end {
                    key > e.as_slice()
                } else {
                    key >= e.as_slice()
                }
            }
        }
    }
}

impl Iterator for RangeIter {
    type Item = Result<(Vec<u8>, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.done {
                return None;
            }
            if self.idx >= self.buffer.len() {
                if self.next_leaf.is_none() {
                    self.done = true;
                    return None;
                }
                if let Err(e) = self.load_next_leaf() {
                    self.done = true;
                    return Some(Err(e));
                }
                continue;
            }
            let at = self.idx;
            self.idx += 1;
            let k = &self.buffer[at].0;
            if let Some(s) = &self.start {
                if k.as_slice() < s.as_slice() {
                    continue;
                }
            }
            if self.past_end(k) {
                self.done = true;
                return None;
            }
            // Each buffered entry is yielded at most once: move it out.
            let (k, v) = &mut self.buffer[at];
            return Some(Ok((std::mem::take(k), *v)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keycodec::KeyBuf;
    use odh_pager::disk::MemDisk;

    fn tree() -> BTree {
        BTree::create(BufferPool::new(Arc::new(MemDisk::new()), 256)).unwrap()
    }

    fn k(v: u64) -> Vec<u8> {
        KeyBuf::new().push_u64(v).build()
    }

    #[test]
    fn insert_get_small() {
        let t = tree();
        for v in [5u64, 1, 9, 3] {
            t.insert(&k(v), v * 10).unwrap();
        }
        assert_eq!(t.get(&k(3)).unwrap(), Some(30));
        assert_eq!(t.get(&k(9)).unwrap(), Some(90));
        assert_eq!(t.get(&k(4)).unwrap(), None);
        assert_eq!(t.len(), 4);
        assert_eq!(t.height(), 1);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let t = tree();
        // Insert a deterministic permutation of 0..5000.
        let mut v: u64 = 1;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..5000 {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let key = v % 100_000;
            if seen.insert(key) {
                t.insert(&k(key), key).unwrap();
            }
        }
        assert!(t.height() >= 2, "expected splits, height={}", t.height());
        let got: Vec<u64> = t.range(None, None, false).unwrap().map(|r| r.unwrap().1).collect();
        let mut expect: Vec<u64> = seen.into_iter().collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        for &key in expect.iter().take(50) {
            assert_eq!(t.get(&k(key)).unwrap(), Some(key));
        }
    }

    #[test]
    fn sequential_inserts_like_timestamps() {
        // Right-leaning growth, the shape index maintenance takes on
        // timestamp-ordered ingest.
        let t = tree();
        for i in 0..3000u64 {
            t.insert(&k(i), i).unwrap();
        }
        assert_eq!(t.len(), 3000);
        let sum: u64 = t.range(None, None, false).unwrap().map(|r| r.unwrap().1).sum();
        assert_eq!(sum, 2999 * 3000 / 2);
    }

    #[test]
    fn range_bounds() {
        let t = tree();
        for i in 0..100u64 {
            t.insert(&k(i), i).unwrap();
        }
        let got: Vec<u64> =
            t.range(Some(&k(10)), Some(&k(20)), false).unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(got, (10..20).collect::<Vec<_>>());
        let got: Vec<u64> =
            t.range(Some(&k(10)), Some(&k(20)), true).unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(got, (10..=20).collect::<Vec<_>>());
        let got: Vec<u64> =
            t.range(Some(&k(95)), None, false).unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(got, (95..100).collect::<Vec<_>>());
    }

    #[test]
    fn duplicates_all_returned_in_scans() {
        let t = tree();
        for i in 0..500u64 {
            t.insert(&k(i % 10), i).unwrap();
        }
        let dups: Vec<u64> = t.scan_prefix(&k(3)).unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(dups.len(), 50);
        assert!(dups.iter().all(|v| v % 10 == 3));
    }

    #[test]
    fn composite_prefix_scan_selects_one_source() {
        // (id, ts) index; scanning the id prefix yields only that source,
        // in time order — the historical-query access path.
        let t = tree();
        for id in 0..20u64 {
            for ts in 0..30i64 {
                let key = KeyBuf::new().push_u64(id).push_i64(ts * 1000).build();
                t.insert(&key, id * 1000 + ts as u64).unwrap();
            }
        }
        let hits: Vec<u64> = t
            .scan_prefix(&KeyBuf::new().push_u64(7).build())
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(hits.len(), 30);
        assert_eq!(hits[0], 7000);
        assert_eq!(*hits.last().unwrap(), 7029);
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "time-ordered");
    }

    #[test]
    fn delete_first_match_only() {
        let t = tree();
        t.insert(&k(1), 10).unwrap();
        t.insert(&k(1), 11).unwrap();
        // New duplicates land before older ones, so the first delete takes 11.
        assert!(t.delete(&k(1)).unwrap());
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(&k(1)).unwrap(), Some(10));
        assert!(t.delete(&k(1)).unwrap());
        assert!(!t.delete(&k(1)).unwrap());
        assert_eq!(t.get(&k(1)).unwrap(), None);
    }

    #[test]
    fn long_keys_rejected() {
        let t = tree();
        let long = vec![0u8; node::MAX_KEY + 1];
        assert_eq!(t.insert(&long, 0).unwrap_err().kind(), "config");
    }

    #[test]
    fn bulk_load_equals_incremental() {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 256);
        let entries: Vec<(Vec<u8>, u64)> = (0..20_000u64).map(|i| (k(i), i * 3)).collect();
        let t =
            BTree::bulk_load(pool, entries.iter().map(|(k, v)| (k.as_slice(), *v)), 0.9).unwrap();
        assert_eq!(t.len(), 20_000);
        assert!(t.height() >= 2);
        assert_eq!(t.get(&k(12_345)).unwrap(), Some(12_345 * 3));
        let got: Vec<u64> =
            t.range(Some(&k(19_990)), None, false).unwrap().map(|r| r.unwrap().1).collect();
        assert_eq!(got, (19_990..20_000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn massive_duplicate_runs_survive_splits() {
        // Regression: duplicates straddling leaf splits were partially
        // invisible to descents that used upper-bound child choice.
        let t = tree();
        let dup_key = k(500);
        // Interleave unique keys with a run of duplicates big enough to
        // span several leaves.
        for i in 0..1200u64 {
            t.insert(&k(i), i).unwrap();
            if i % 2 == 0 {
                t.insert(&dup_key, 1_000_000 + i).unwrap();
            }
        }
        let dups: Vec<u64> =
            t.range(Some(&dup_key), Some(&dup_key), true).unwrap().map(|r| r.unwrap().1).collect();
        // 600 inserted duplicates + the unique k(500) entry.
        assert_eq!(dups.len(), 601);
        assert!(t.get(&dup_key).unwrap().is_some());
        // Delete all of them, one at a time, across leaf boundaries.
        let mut removed = 0;
        while t.delete(&dup_key).unwrap() {
            removed += 1;
        }
        assert_eq!(removed, 601);
        assert_eq!(t.get(&dup_key).unwrap(), None);
        assert_eq!(t.range(Some(&dup_key), Some(&dup_key), true).unwrap().count(), 0);
        // Neighbours intact.
        assert_eq!(t.get(&k(499)).unwrap(), Some(499));
        assert_eq!(t.get(&k(501)).unwrap(), Some(501));
    }

    #[test]
    fn bulk_load_empty_is_valid() {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 16);
        let t = BTree::bulk_load(pool, std::iter::empty(), 0.9).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.range(None, None, false).unwrap().count(), 0);
    }

    #[test]
    fn tree_grows_three_levels() {
        let t = tree();
        for i in 0..200_000u64 {
            t.insert(&k(i), i).unwrap();
        }
        assert!(t.height() >= 3, "height={}", t.height());
        assert_eq!(t.len(), 200_000);
        assert_eq!(t.get(&k(123_456)).unwrap(), Some(123_456));
        // Spot-check a mid-range scan after deep splits.
        let got: Vec<u64> = t
            .range(Some(&k(99_998)), Some(&k(100_002)), false)
            .unwrap()
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(got, vec![99_998, 99_999, 100_000, 100_001]);
    }
}
