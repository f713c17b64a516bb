//! Buffer pool with clock (second-chance) eviction and a sharded page
//! table.
//!
//! Design notes:
//! - The page table is split into up to `MAX_SHARDS` shards, each a
//!   mutex over its own `PageId → frame` map, clock hand, and free list.
//!   Frames are statically partitioned round-robin across shards, and a
//!   page lives only in the shard its id hashes to — so concurrent scan
//!   fan-out misses in different shards proceed in parallel instead of
//!   convoying on one global mapping mutex. Small pools (< 2 × 16 frames)
//!   collapse to one shard, which is exactly the old single-mutex pool.
//! - Page access is closure-based ([`BufferPool::with_page`] /
//!   [`BufferPool::with_page_mut`]): the frame is pinned, its `RwLock` is
//!   held for the closure, then unpinned. Closures may fetch *other* pages
//!   (B-tree descents, overflow chains) but must never re-enter the same
//!   page — the lock is not reentrant.
//! - Eviction only considers unpinned frames of the evicting shard, and
//!   pinning a frame requires that same shard's lock (pages never move
//!   between shards), so a closure's frame can never be stolen underneath
//!   it; dirty victims are written back on eviction.

use crate::disk::DiskManager;
use crate::page::{PageId, PAGE_SIZE};
use crate::stats::IoStats;
use odh_types::{OdhError, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

/// Observer of physical I/O, used by `odh-sim` to charge disk costs without
/// a dependency cycle. All methods have empty defaults.
pub trait IoHook: Send + Sync {
    fn physical_read(&self, _bytes: usize) {}
    fn physical_write(&self, _bytes: usize) {}
    fn logical_access(&self) {}
}

struct FrameState {
    page: Option<PageId>,
    dirty: bool,
    data: Box<[u8; PAGE_SIZE]>,
}

struct Frame {
    state: RwLock<FrameState>,
    pins: AtomicU32,
    referenced: AtomicBool,
}

/// Upper bound on page-table shards.
const MAX_SHARDS: usize = 8;
/// Minimum frames a shard must own before the pool splits further; keeps
/// per-shard capacity comfortably above the deepest nested pin chain
/// (B-tree descent + heap record + overflow pages).
const MIN_FRAMES_PER_SHARD: usize = 16;

/// The buffer pool.
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    frames: Vec<Frame>,
    shards: Vec<Mutex<ShardState>>,
    stats: IoStats,
    hook: RwLock<Option<Arc<dyn IoHook>>>,
    no_steal: AtomicBool,
}

struct ShardState {
    /// Pages resident in this shard's frames.
    table: HashMap<PageId, usize>,
    /// Global frame indices this shard owns (fixed at construction).
    owned: Vec<usize>,
    /// Clock hand: position within `owned`.
    hand: usize,
    /// Owned frames never used yet (cheaper than clock sweeps while
    /// warming up).
    free: Vec<usize>,
}

impl BufferPool {
    /// A pool of `capacity` frames over `disk`.
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Arc<BufferPool> {
        assert!(capacity >= 2, "buffer pool needs at least two frames");
        let frames: Vec<Frame> = (0..capacity)
            .map(|_| Frame {
                state: RwLock::new(FrameState {
                    page: None,
                    dirty: false,
                    data: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap(),
                }),
                pins: AtomicU32::new(0),
                referenced: AtomicBool::new(false),
            })
            .collect();
        let n_shards = (capacity / (2 * MIN_FRAMES_PER_SHARD)).clamp(1, MAX_SHARDS);
        let shards = (0..n_shards)
            .map(|s| {
                let owned: Vec<usize> = (s..capacity).step_by(n_shards).collect();
                Mutex::new(ShardState {
                    table: HashMap::with_capacity(owned.len()),
                    hand: 0,
                    free: owned.iter().rev().copied().collect(),
                    owned,
                })
            })
            .collect();
        Arc::new(BufferPool {
            disk,
            frames,
            shards,
            stats: IoStats::default(),
            hook: RwLock::new(None),
            no_steal: AtomicBool::new(false),
        })
    }

    /// Page-table shards in this pool (1 for small pools).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: PageId) -> &Mutex<ShardState> {
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 32) as usize % self.shards.len()]
    }

    /// Install a physical-I/O observer.
    pub fn set_hook(&self, hook: Arc<dyn IoHook>) {
        *self.hook.write() = Some(hook);
    }

    /// In no-steal mode eviction never writes back a dirty frame, so the
    /// on-disk image only changes at an explicit [`BufferPool::flush_all`]
    /// (i.e. a checkpoint). WAL-covered servers rely on this: the disk
    /// state a recovery starts from is always exactly the last checkpoint.
    pub fn set_no_steal(&self, on: bool) {
        self.no_steal.store(on, Ordering::Release);
    }

    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Allocate a fresh zeroed page and run `f` on its writable buffer.
    pub fn allocate_with<R>(
        &self,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<(PageId, R)> {
        let id = self.disk.allocate()?;
        self.stats.allocations.inc();
        let frame_idx = self.pin_frame(id, /*load=*/ false)?;
        let frame = &self.frames[frame_idx];
        let mut st = frame.state.write();
        st.data.fill(0);
        st.dirty = true;
        let r = f(&mut st.data);
        drop(st);
        self.unpin(frame_idx);
        Ok((id, r))
    }

    /// Allocate a fresh zeroed page.
    pub fn allocate(&self) -> Result<PageId> {
        Ok(self.allocate_with(|_| ())?.0)
    }

    /// Run `f` with read access to page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        let frame_idx = self.pin_frame(id, /*load=*/ true)?;
        let frame = &self.frames[frame_idx];
        let st = frame.state.read();
        let r = f(&st.data);
        drop(st);
        self.unpin(frame_idx);
        Ok(r)
    }

    /// Run `f` with write access to page `id`; the page is marked dirty.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let frame_idx = self.pin_frame(id, /*load=*/ true)?;
        let frame = &self.frames[frame_idx];
        let mut st = frame.state.write();
        st.dirty = true;
        let r = f(&mut st.data);
        drop(st);
        self.unpin(frame_idx);
        Ok(r)
    }

    /// Write back every dirty frame and sync the device.
    pub fn flush_all(&self) -> Result<()> {
        for frame in &self.frames {
            let mut st = frame.state.write();
            if let (Some(pid), true) = (st.page, st.dirty) {
                self.disk.write_page(pid, &st.data)?;
                self.note_write();
                st.dirty = false;
            }
        }
        self.disk.sync()
    }

    /// Pin the frame holding `id`, loading or allocating a frame as needed.
    /// Returns the frame index with its pin count already incremented.
    fn pin_frame(&self, id: PageId, load: bool) -> Result<usize> {
        self.stats.logical_reads.inc();
        if let Some(h) = self.hook.read().as_ref() {
            h.logical_access();
        }
        let mut shard = self.shard_of(id).lock();
        if let Some(&idx) = shard.table.get(&id) {
            self.stats.hits.inc();
            self.frames[idx].pins.fetch_add(1, Ordering::AcqRel);
            self.frames[idx].referenced.store(true, Ordering::Relaxed);
            return Ok(idx);
        }
        // Miss: find a victim frame while holding the shard lock. Other
        // shards keep serving hits and misses meanwhile.
        let idx = self.find_victim(&mut shard)?;
        // Evict whatever the victim holds (it is unpinned; nobody can pin
        // it because pinning a frame requires the lock of the shard that
        // owns it — the one we hold).
        {
            let mut st = self.frames[idx].state.write();
            if let Some(old) = st.page {
                if st.dirty {
                    self.disk.write_page(old, &st.data)?;
                    self.note_write();
                    st.dirty = false;
                }
                shard.table.remove(&old);
            }
            if load {
                self.disk.read_page(id, &mut st.data)?;
                self.stats.physical_reads.inc();
                if let Some(h) = self.hook.read().as_ref() {
                    h.physical_read(PAGE_SIZE);
                }
            } else {
                st.data.fill(0);
            }
            st.page = Some(id);
        }
        shard.table.insert(id, idx);
        self.frames[idx].pins.fetch_add(1, Ordering::AcqRel);
        self.frames[idx].referenced.store(true, Ordering::Relaxed);
        Ok(idx)
    }

    fn find_victim(&self, shard: &mut ShardState) -> Result<usize> {
        if let Some(idx) = shard.free.pop() {
            return Ok(idx);
        }
        // Clock sweep over this shard's frames: clear reference bits; give
        // up after two full laps.
        let no_steal = self.no_steal.load(Ordering::Acquire);
        let n = shard.owned.len();
        let mut saw_unpinned = false;
        for _ in 0..2 * n {
            let idx = shard.owned[shard.hand];
            shard.hand = (shard.hand + 1) % n;
            let frame = &self.frames[idx];
            if frame.pins.load(Ordering::Acquire) != 0 {
                continue;
            }
            saw_unpinned = true;
            if frame.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            // Unpinned frames cannot be write-locked (closures hold a pin),
            // so the dirty probe does not block.
            if no_steal && frame.state.read().dirty {
                continue;
            }
            return Ok(idx);
        }
        // Count the failure under its specific cause before surfacing it;
        // each cause has a distinct recovery action (find the pin leak /
        // retry / checkpoint) and used to be indistinguishable in stats.
        if !saw_unpinned {
            &self.stats.evict_fail_all_pinned
        } else if no_steal {
            &self.stats.evict_fail_no_clean
        } else {
            &self.stats.evict_fail_hot
        }
        .inc();
        Err(victim_error(saw_unpinned, no_steal))
    }

    fn unpin(&self, idx: usize) {
        self.frames[idx].pins.fetch_sub(1, Ordering::AcqRel);
    }

    fn note_write(&self) {
        self.stats.physical_writes.inc();
        if let Some(h) = self.hook.read().as_ref() {
            h.physical_write(PAGE_SIZE);
        }
    }
}

/// Why a two-lap clock sweep produced no victim. The three causes need
/// three messages: "all frames pinned" used to be reported even when
/// frames were merely referenced-hot or dirty-under-no-steal, which sent
/// operators hunting for pin leaks that did not exist.
fn victim_error(saw_unpinned: bool, no_steal: bool) -> OdhError {
    if !saw_unpinned {
        return OdhError::Full("buffer pool: all frames pinned".into());
    }
    if no_steal {
        return OdhError::Full(
            "buffer pool: no clean frame to evict (no-steal mode; checkpoint needed)".into(),
        );
    }
    OdhError::Full(
        "buffer pool: unpinned frames stayed referenced-hot across two clock laps \
         (concurrent pins keep re-setting reference bits); retry"
            .into(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::page::{get_u64, put_u64};

    fn pool(frames: usize) -> Arc<BufferPool> {
        BufferPool::new(Arc::new(MemDisk::new()), frames)
    }

    #[test]
    fn read_your_writes_through_eviction() {
        let p = pool(4);
        let mut ids = Vec::new();
        for i in 0..32u64 {
            let (id, _) = p.allocate_with(|buf| put_u64(buf, 0, i)).unwrap();
            ids.push(id);
        }
        for (i, id) in ids.iter().enumerate() {
            let v = p.with_page(*id, |buf| get_u64(buf, 0)).unwrap();
            assert_eq!(v, i as u64);
        }
        // 32 pages through 4 frames: evictions must have written back.
        assert!(p.stats().physical_writes.get() >= 28);
    }

    #[test]
    fn hits_do_no_physical_io() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        let (reads, hits) = (p.stats().physical_reads.get(), p.stats().hits.get());
        for _ in 0..10 {
            p.with_page(id, |_| ()).unwrap();
        }
        assert_eq!(p.stats().physical_reads.get() - reads, 0);
        assert_eq!(p.stats().hits.get() - hits, 10);
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let disk = Arc::new(MemDisk::new());
        let p = BufferPool::new(disk.clone(), 4);
        let (id, _) = p.allocate_with(|buf| put_u64(buf, 8, 777)).unwrap();
        p.flush_all().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        disk.read_page(id, &mut raw).unwrap();
        assert_eq!(get_u64(&raw, 8), 777);
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_frames() {
        let p = pool(3);
        let _a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let _c = p.allocate().unwrap();
        // First eviction clears every reference bit and takes frame 0 (`a`).
        let _d = p.allocate().unwrap();
        // Re-reference `b`; the next eviction must skip it and take `c`.
        p.with_page(b, |_| ()).unwrap();
        let _e = p.allocate().unwrap();
        let before = p.stats().physical_reads.get();
        p.with_page(b, |_| ()).unwrap();
        assert_eq!(p.stats().physical_reads.get(), before, "b was evicted");
    }

    #[test]
    fn nested_access_to_other_pages_is_allowed() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let v = p.with_page(a, |_| p.with_page(b, |_| 42).unwrap()).unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn concurrent_writers_do_not_corrupt() {
        let p = pool(8);
        let ids: Vec<PageId> = (0..4).map(|_| p.allocate().unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..4 {
                let p = &p;
                let ids = &ids;
                s.spawn(move || {
                    for i in 0..500u64 {
                        let id = ids[(t + i as usize) % ids.len()];
                        p.with_page_mut(id, |buf| {
                            let v = get_u64(buf, 0);
                            put_u64(buf, 0, v + 1);
                        })
                        .unwrap();
                    }
                });
            }
        });
        let total: u64 = ids.iter().map(|id| p.with_page(*id, |b| get_u64(b, 0)).unwrap()).sum();
        assert_eq!(total, 2000);
    }

    #[test]
    fn io_hook_sees_physical_traffic() {
        use std::sync::atomic::AtomicUsize;
        #[derive(Default)]
        struct Counter {
            reads: AtomicUsize,
            writes: AtomicUsize,
        }
        impl IoHook for Counter {
            fn physical_read(&self, b: usize) {
                self.reads.fetch_add(b, Ordering::Relaxed);
            }
            fn physical_write(&self, b: usize) {
                self.writes.fetch_add(b, Ordering::Relaxed);
            }
        }
        let p = pool(2);
        let hook = Arc::new(Counter::default());
        p.set_hook(hook.clone());
        // Fill beyond capacity to force evictions (writes) and re-reads.
        let ids: Vec<_> = (0..6).map(|_| p.allocate().unwrap()).collect();
        for id in &ids {
            p.with_page_mut(*id, |b| put_u64(b, 0, 1)).unwrap();
        }
        for id in &ids {
            p.with_page(*id, |_| ()).unwrap();
        }
        assert!(hook.writes.load(Ordering::Relaxed) >= PAGE_SIZE);
        assert!(hook.reads.load(Ordering::Relaxed) >= PAGE_SIZE);
    }

    #[test]
    fn all_pinned_reports_full() {
        // Pin both frames via nested closures, then ask for a third page.
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let err = p
            .with_page(a, |_| {
                p.with_page(b, |_| {
                    let c = p.disk().allocate().unwrap();
                    p.with_page(c, |_| ()).unwrap_err()
                })
                .unwrap()
            })
            .unwrap();
        assert_eq!(err.kind(), "full");
        let s = p.stats();
        assert_eq!(s.evict_fail_all_pinned.get(), 1, "pinned-cause counter: {s:?}");
        assert_eq!(s.evict_fail_hot.get() + s.evict_fail_no_clean.get(), 0, "{s:?}");
    }

    #[test]
    fn victim_error_distinguishes_pinned_hot_and_dirty() {
        // Regression: the sweep used to report "all frames pinned" for
        // referenced-hot frames, and "no clean frame" for fully-pinned
        // pools in no-steal mode. Each cause has its own message now.
        let all_pinned = victim_error(false, false);
        assert_eq!(all_pinned.kind(), "full");
        assert!(all_pinned.to_string().contains("all frames pinned"), "{all_pinned}");
        // All pinned is all pinned even in no-steal mode.
        assert!(victim_error(false, true).to_string().contains("all frames pinned"));
        let hot = victim_error(true, false);
        assert_eq!(hot.kind(), "full");
        assert!(hot.to_string().contains("referenced-hot"), "{hot}");
        assert!(!hot.to_string().contains("pinned)"), "{hot}");
        let no_clean = victim_error(true, true);
        assert_eq!(no_clean.kind(), "full");
        assert!(no_clean.to_string().contains("no clean frame"), "{no_clean}");
    }

    #[test]
    fn no_steal_all_pinned_blames_pins_not_checkpoint() {
        // End-to-end cousin of the unit test above: a fully-pinned pool in
        // no-steal mode must not tell the operator to checkpoint.
        let p = pool(2);
        p.set_no_steal(true);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        let err = p
            .with_page(a, |_| {
                p.with_page(b, |_| {
                    let c = p.disk().allocate().unwrap();
                    p.with_page(c, |_| ()).unwrap_err()
                })
                .unwrap()
            })
            .unwrap();
        assert!(err.to_string().contains("all frames pinned"), "{err}");
    }

    #[test]
    fn no_steal_dirty_frames_report_checkpoint_needed() {
        let p = pool(2);
        p.set_no_steal(true);
        // Dirty both frames (unpinned afterwards), then demand a third page.
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |buf| put_u64(buf, 0, 1)).unwrap();
        p.with_page_mut(b, |buf| put_u64(buf, 0, 2)).unwrap();
        let c = p.disk().allocate().unwrap();
        let err = p.with_page(c, |_| ()).unwrap_err();
        assert!(err.to_string().contains("no clean frame"), "{err}");
        assert_eq!(p.stats().evict_fail_no_clean.get(), 1);
        assert_eq!(p.stats().evict_fail_all_pinned.get(), 0);
        // A checkpoint clears the dirt and unblocks eviction.
        p.flush_all().unwrap();
        p.with_page(c, |_| ()).unwrap();
        // The failure counters are monotone; success adds nothing.
        assert_eq!(p.stats().evict_fail_no_clean.get(), 1);
    }

    #[test]
    fn large_pools_shard_and_small_pools_do_not() {
        assert_eq!(pool(4).shard_count(), 1);
        assert_eq!(pool(31).shard_count(), 1);
        let p = pool(256);
        assert!(p.shard_count() > 1, "256 frames must shard");
        // Correctness through sharded eviction: more pages than frames,
        // hammered from several threads.
        let ids: Vec<PageId> = (0..512).map(|_| p.allocate().unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let p = &p;
                let ids = &ids;
                s.spawn(move || {
                    for (i, id) in ids.iter().enumerate() {
                        p.with_page_mut(*id, |buf| put_u64(buf, 8, (t + i) as u64)).unwrap();
                        p.with_page(*id, |buf| assert!(get_u64(buf, 8) < 520)).unwrap();
                    }
                });
            }
        });
        for id in &ids {
            p.with_page(*id, |_| ()).unwrap();
        }
    }
}
