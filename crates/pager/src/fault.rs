//! Deterministic fault injection for crash-recovery tests.
//!
//! [`FailDisk`] and [`FailWal`] wrap a [`DiskManager`] / [`LogDir`] and
//! kill I/O after a seeded number of operations. A [`FailWal`] counts
//! segment creation and removal as operations too, and wraps the segments
//! it hands out so their appends, truncations and syncs count as well: a
//! fault can land on any step of a WAL roll or checkpoint. The failing write can
//! optionally be *torn* (a prefix of the bytes lands before the error) or
//! *silently corrupted* (one bit flips and the write "succeeds") — the two
//! tail states a recovering WAL must cope with. Every decision derives from
//! a SplitMix64 stream over the seed, so a failing CI seed reproduces
//! byte-for-byte locally.

use crate::disk::DiskManager;
use crate::log::{LogDir, LogStore};
use crate::page::{PageId, PAGE_SIZE};
use odh_types::{OdhError, Result};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What the injected fault does to the I/O op it lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The op (and every later one) fails; no bytes land.
    Kill,
    /// A seed-derived prefix of the failing write lands, then the device
    /// dies. Models a torn frame at the log tail.
    Torn,
    /// One bit of the write flips and the op reports success; later ops
    /// keep working. Models silent media corruption.
    FlipBit,
}

/// Seeded fault schedule shared by the wrappers: the `ops_before_fault`-th
/// I/O operation after arming triggers `mode`.
pub struct FaultPlan {
    seed: u64,
    mode: FaultMode,
    remaining: AtomicU64,
    dead: AtomicBool,
    triggered: AtomicBool,
    draws: AtomicU64,
    ops: AtomicU64,
}

enum Verdict {
    Pass,
    Fault,
    Dead,
}

impl FaultPlan {
    pub fn new(seed: u64, mode: FaultMode, ops_before_fault: u64) -> Arc<FaultPlan> {
        Arc::new(FaultPlan {
            seed,
            mode,
            remaining: AtomicU64::new(ops_before_fault),
            dead: AtomicBool::new(false),
            triggered: AtomicBool::new(false),
            draws: AtomicU64::new(0),
            ops: AtomicU64::new(0),
        })
    }

    /// A plan that never fires (for control runs).
    pub fn benign() -> Arc<FaultPlan> {
        FaultPlan::new(0, FaultMode::Kill, u64::MAX)
    }

    /// Did the fault fire yet?
    pub fn triggered(&self) -> bool {
        self.triggered.load(Ordering::Acquire)
    }

    /// Operations counted so far (faulted and dead ones included). A
    /// benign run of a deterministic workload reads this to find the
    /// index of the step a fault should land on.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Acquire)
    }

    /// Re-arm the plan: the `ops_before_fault`-th operation from now
    /// triggers the mode (a benign plan armed mid-run puts a fault at a
    /// chosen step of a workload).
    pub fn arm(&self, ops_before_fault: u64) {
        self.dead.store(false, Ordering::Release);
        self.remaining.store(ops_before_fault, Ordering::Release);
    }

    /// Disarm the plan — recovery reopens the same device fault-free.
    pub fn disarm(&self) {
        self.dead.store(false, Ordering::Release);
        self.remaining.store(u64::MAX, Ordering::Release);
    }

    /// Deterministic value stream: SplitMix64 over (seed, draw index).
    fn draw(&self) -> u64 {
        let i = self.draws.fetch_add(1, Ordering::Relaxed);
        let mut z = self.seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn tick(&self) -> Verdict {
        self.ops.fetch_add(1, Ordering::AcqRel);
        if self.dead.load(Ordering::Acquire) {
            return Verdict::Dead;
        }
        let prev = self.remaining.fetch_sub(1, Ordering::AcqRel);
        if prev == u64::MAX {
            self.remaining.store(u64::MAX, Ordering::Release);
            return Verdict::Pass;
        }
        if prev > 0 {
            return Verdict::Pass;
        }
        // This op is the fault. FlipBit leaves the device alive.
        self.triggered.store(true, Ordering::Release);
        if self.mode != FaultMode::FlipBit {
            self.dead.store(true, Ordering::Release);
        }
        self.remaining.store(u64::MAX, Ordering::Release);
        Verdict::Fault
    }

    fn dead_err(&self) -> OdhError {
        OdhError::Io(format!("injected fault (seed {}): device dead", self.seed))
    }
}

/// [`DiskManager`] wrapper that fails page I/O per the plan. Reads count as
/// ops too — a dead disk serves nothing.
pub struct FailDisk {
    inner: Arc<dyn DiskManager>,
    plan: Arc<FaultPlan>,
}

impl FailDisk {
    pub fn new(inner: Arc<dyn DiskManager>, plan: Arc<FaultPlan>) -> FailDisk {
        FailDisk { inner, plan }
    }
}

impl DiskManager for FailDisk {
    fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        match self.plan.tick() {
            Verdict::Pass => self.inner.read_page(id, buf),
            _ => Err(self.plan.dead_err()),
        }
    }

    fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        match self.plan.tick() {
            Verdict::Pass => self.inner.write_page(id, buf),
            Verdict::Fault if self.plan.mode == FaultMode::FlipBit => {
                let mut copy = *buf;
                let at = (self.plan.draw() as usize) % PAGE_SIZE;
                copy[at] ^= 1 << (self.plan.draw() % 8);
                self.inner.write_page(id, &copy)
            }
            _ => Err(self.plan.dead_err()),
        }
    }

    fn allocate(&self) -> Result<PageId> {
        // Allocation is metadata, not media I/O; it only fails once dead.
        if self.plan.dead.load(Ordering::Acquire) {
            return Err(self.plan.dead_err());
        }
        self.inner.allocate()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn sync(&self) -> Result<()> {
        match self.plan.tick() {
            Verdict::Pass => self.inner.sync(),
            _ => Err(self.plan.dead_err()),
        }
    }
}

/// [`LogDir`] wrapper that fails segment creation and removal per the
/// plan, and wraps every segment it hands out in a `FailLog` on the same
/// plan. Listing and opening are reads: they count no operation and only
/// fail once the device is dead.
pub struct FailWal {
    inner: Arc<dyn LogDir>,
    plan: Arc<FaultPlan>,
}

impl FailWal {
    pub fn new(inner: Arc<dyn LogDir>, plan: Arc<FaultPlan>) -> FailWal {
        FailWal { inner, plan }
    }

    fn wrap(&self, log: Arc<dyn LogStore>) -> Arc<dyn LogStore> {
        Arc::new(FailLog::new(log, self.plan.clone()))
    }

    fn alive(&self) -> Result<()> {
        match self.plan.dead.load(Ordering::Acquire) {
            true => Err(self.plan.dead_err()),
            false => Ok(()),
        }
    }
}

impl LogDir for FailWal {
    fn create(&self, id: u64) -> Result<Arc<dyn LogStore>> {
        match self.plan.tick() {
            Verdict::Pass => Ok(self.wrap(self.inner.create(id)?)),
            _ => Err(self.plan.dead_err()),
        }
    }

    fn open(&self, id: u64) -> Result<Arc<dyn LogStore>> {
        self.alive()?;
        Ok(self.wrap(self.inner.open(id)?))
    }

    fn list(&self) -> Result<Vec<u64>> {
        self.alive()?;
        self.inner.list()
    }

    fn remove(&self, id: u64) -> Result<()> {
        match self.plan.tick() {
            Verdict::Pass => self.inner.remove(id),
            _ => Err(self.plan.dead_err()),
        }
    }
}

/// [`LogStore`] wrapper that fails one segment's appends, truncations and
/// syncs per the plan.
pub(crate) struct FailLog {
    inner: Arc<dyn LogStore>,
    plan: Arc<FaultPlan>,
}

impl FailLog {
    pub(crate) fn new(inner: Arc<dyn LogStore>, plan: Arc<FaultPlan>) -> FailLog {
        FailLog { inner, plan }
    }
}

impl LogStore for FailLog {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        match self.plan.tick() {
            Verdict::Pass => self.inner.append(bytes),
            Verdict::Fault => match self.plan.mode {
                FaultMode::Kill => Err(self.plan.dead_err()),
                FaultMode::Torn => {
                    // A prefix lands, then the device dies.
                    let cut = (self.plan.draw() as usize) % bytes.len().max(1);
                    self.inner.append(&bytes[..cut]).ok();
                    Err(self.plan.dead_err())
                }
                FaultMode::FlipBit => {
                    let mut copy = bytes.to_vec();
                    if !copy.is_empty() {
                        let at = (self.plan.draw() as usize) % copy.len();
                        copy[at] ^= 1 << (self.plan.draw() % 8);
                    }
                    self.inner.append(&copy)
                }
            },
            Verdict::Dead => Err(self.plan.dead_err()),
        }
    }

    fn read_all(&self) -> Result<Vec<u8>> {
        if self.plan.dead.load(Ordering::Acquire) {
            return Err(self.plan.dead_err());
        }
        self.inner.read_all()
    }

    fn set_len(&self, len: u64) -> Result<()> {
        match self.plan.tick() {
            Verdict::Pass => self.inner.set_len(len),
            _ => Err(self.plan.dead_err()),
        }
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn sync(&self) -> Result<()> {
        match self.plan.tick() {
            Verdict::Pass => self.inner.sync(),
            _ => Err(self.plan.dead_err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use crate::log::{MemLog, MemLogDir};

    #[test]
    fn kill_fails_the_nth_op_and_stays_dead() {
        let plan = FaultPlan::new(7, FaultMode::Kill, 2);
        let log = FailLog::new(Arc::new(MemLog::new()), plan.clone());
        log.append(b"a").unwrap();
        log.append(b"b").unwrap();
        assert!(log.append(b"c").is_err());
        assert!(plan.triggered());
        assert!(log.sync().is_err());
        plan.disarm();
        log.append(b"d").unwrap();
        assert_eq!(log.read_all().unwrap(), b"abd");
    }

    #[test]
    fn torn_write_lands_a_strict_prefix() {
        let base = Arc::new(MemLog::new());
        let plan = FaultPlan::new(11, FaultMode::Torn, 0);
        let log = FailLog::new(base.clone(), plan);
        assert!(log.append(b"0123456789").is_err());
        let got = base.read_all().unwrap();
        assert!(got.len() < 10, "torn write must not land fully");
        assert_eq!(&got[..], &b"0123456789"[..got.len()]);
    }

    #[test]
    fn flip_bit_corrupts_exactly_one_bit_and_device_survives() {
        let base = Arc::new(MemLog::new());
        let plan = FaultPlan::new(3, FaultMode::FlipBit, 0);
        let log = FailLog::new(base.clone(), plan);
        log.append(&[0u8; 16]).unwrap();
        log.append(b"ok").unwrap();
        let got = base.read_all().unwrap();
        let flipped: u32 = got[..16].iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1);
        assert_eq!(&got[16..], b"ok");
    }

    #[test]
    fn same_seed_same_fault() {
        let run = |seed| {
            let base = Arc::new(MemLog::new());
            let log = FailLog::new(base.clone(), FaultPlan::new(seed, FaultMode::Torn, 1));
            log.append(b"first").unwrap();
            let _ = log.append(b"0123456789abcdef");
            base.read_all().unwrap()
        };
        assert_eq!(run(42), run(42));
        // Different seeds tear at different offsets (with these lengths).
        assert_ne!(run(1).len(), run(5).len());
    }

    #[test]
    fn fail_wal_counts_segment_create_and_remove() {
        let base = Arc::new(MemLogDir::new());
        // Ops: create(1), append, create(2), remove(1) — the fourth dies.
        let plan = FaultPlan::new(5, FaultMode::Kill, 3);
        let dir = FailWal::new(base.clone(), plan.clone());
        dir.create(1).unwrap().append(b"x").unwrap();
        dir.create(2).unwrap();
        assert_eq!(plan.ops(), 3);
        assert_eq!(dir.list().unwrap(), vec![1, 2], "listing counts no operation");
        assert!(dir.remove(1).is_err());
        assert!(plan.triggered());
        assert_eq!(base.list().unwrap(), vec![1, 2], "the failed remove deleted nothing");
        assert!(dir.list().is_err() && dir.open(1).is_err(), "a dead device serves nothing");
        assert!(dir.create(3).is_err());
        plan.disarm();
        assert_eq!(dir.open(1).unwrap().read_all().unwrap(), b"x");
        // Armed again mid-run: one op passes, the next dies.
        plan.arm(1);
        dir.open(1).unwrap().sync().unwrap();
        assert!(dir.remove(1).is_err());
        assert_eq!(base.list().unwrap(), vec![1, 2]);
    }

    #[test]
    fn fail_disk_kills_page_io() {
        let plan = FaultPlan::new(9, FaultMode::Kill, 1);
        let disk = FailDisk::new(Arc::new(MemDisk::new()), plan);
        let id = disk.allocate().unwrap();
        let page = [0u8; PAGE_SIZE];
        disk.write_page(id, &page).unwrap();
        assert!(disk.write_page(id, &page).is_err());
        let mut buf = [0u8; PAGE_SIZE];
        assert!(disk.read_page(id, &mut buf).is_err());
        assert!(disk.allocate().is_err());
    }
}
