//! The resource meter every engine component charges against.
//!
//! A [`ResourceMeter`] bundles the CPU model, the disk model, the calibrated
//! cost constants, and the workload-driven virtual clock. Engines hold an
//! `Arc<ResourceMeter>`; charging is cheap (one mutex op) and a no-op meter
//! (`ResourceMeter::unmetered`) is available for paths where modeling is not
//! wanted (pure wall-clock benchmarks).

use crate::cost::CostConstants;
use crate::cpu::{CpuModel, CpuReport};
use crate::disk::{DiskModel, DiskReport};
use odh_obs::{Counter, Gauge, Registry};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;

/// Shared resource-accounting context.
///
/// The meter also owns the process's [`Registry`]: it is the one object
/// already threaded through every engine constructor (tables, WALs,
/// servers), so it is where the unified observability layer hangs its
/// metric handles. The meter's own counters live in that registry
/// (`odh_meter_*`).
#[derive(Debug)]
pub struct ResourceMeter {
    pub costs: CostConstants,
    cpu: CpuModel,
    disk: DiskModel,
    /// Virtual "now" in microseconds, advanced by the workload driver.
    now_us: AtomicI64,
    enabled: AtomicBool,
    /// The metrics registry shared by every component this meter reaches.
    registry: Arc<Registry>,
    /// Scoped parallel regions entered (batch ingests, scan fan-outs).
    parallel_regions: Arc<Counter>,
    /// Worker tasks spawned across all parallel regions.
    parallel_tasks: Arc<Counter>,
    /// Widest single region observed (degree of parallelism actually used).
    max_parallel_width: Arc<Gauge>,
}

/// Point-in-time copy of the meter's parallelism counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ParallelReport {
    pub regions: u64,
    pub tasks: u64,
    pub max_width: u64,
}

impl ResourceMeter {
    /// A meter for a machine with `cores` calibrated cores and the paper's
    /// RAID5 array.
    pub fn new(cores: u32) -> Arc<ResourceMeter> {
        let registry = Registry::new();
        Arc::new(ResourceMeter {
            costs: CostConstants::default(),
            cpu: CpuModel::new(cores),
            disk: DiskModel::paper_raid5(),
            now_us: AtomicI64::new(0),
            enabled: AtomicBool::new(true),
            parallel_regions: registry.counter("odh_meter_parallel_regions_total", &[]),
            parallel_tasks: registry.counter("odh_meter_parallel_tasks_total", &[]),
            max_parallel_width: registry.gauge("odh_meter_max_parallel_width", &[]),
            registry,
        })
    }

    /// A disabled meter: all charges are dropped. Used by pure wall-clock
    /// benchmarks so modeling adds no overhead beyond one atomic load.
    pub fn unmetered() -> Arc<ResourceMeter> {
        let m = ResourceMeter::new(1);
        m.enabled.store(false, Ordering::Relaxed);
        m
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The metrics registry every component charging this meter shares.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Advance the virtual clock (monotone; lagging calls are ignored).
    pub fn set_now(&self, at_us: i64) {
        self.now_us.fetch_max(at_us, Ordering::Relaxed);
        if self.is_enabled() {
            self.cpu.advance_to(at_us);
        }
    }

    pub fn now_us(&self) -> i64 {
        self.now_us.load(Ordering::Relaxed)
    }

    /// Charge CPU work at the current virtual time.
    #[inline]
    pub fn cpu(&self, units: f64) {
        if self.is_enabled() {
            self.cpu.charge(self.now_us(), units);
        }
    }

    /// Charge a random disk I/O; CPU time for issuing it is charged too.
    pub fn disk_random(&self, bytes: usize) {
        if self.is_enabled() {
            self.disk.random_io(bytes);
        }
    }

    /// Charge a sequential disk I/O.
    pub fn disk_sequential(&self, bytes: usize) {
        if self.is_enabled() {
            self.disk.sequential_io(bytes);
        }
    }

    /// Charge one WAL group commit: an append-only write, which the disk
    /// model prices as sequential I/O (the log is the one component laid
    /// out for pure appends). The WAL counts its own traffic in the
    /// registry (`odh_wal_*`).
    pub fn wal_write(&self, bytes: usize) {
        self.disk_sequential(bytes);
    }

    /// Charge one WAL fsync (the commit barrier): one device round-trip
    /// with no payload, so one seek-priced random I/O of zero bytes.
    pub fn wal_sync(&self) {
        self.disk_random(0);
    }

    /// Record entry into a parallel region of `width` concurrent tasks.
    /// Tracked even when metering is disabled: parallelism observability
    /// is wanted exactly on the unmetered wall-clock benchmark paths.
    pub fn note_parallel(&self, width: usize) {
        self.parallel_regions.inc();
        self.parallel_tasks.add(width as u64);
        self.max_parallel_width.raise(width as i64);
    }

    pub fn parallel_report(&self) -> ParallelReport {
        ParallelReport {
            regions: self.parallel_regions.get(),
            tasks: self.parallel_tasks.get(),
            max_width: self.max_parallel_width.get() as u64,
        }
    }

    pub fn cpu_report(&self) -> CpuReport {
        self.cpu.report()
    }

    pub fn disk_report(&self) -> DiskReport {
        self.disk.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmetered_drops_charges() {
        let m = ResourceMeter::unmetered();
        m.set_now(1_000_000);
        m.cpu(1e9);
        m.disk_random(1 << 20);
        assert_eq!(m.cpu_report().total_units, 0.0);
        assert_eq!(m.disk_report().ops, 0);
    }

    #[test]
    fn parallel_counters_accumulate() {
        let m = ResourceMeter::unmetered();
        m.note_parallel(4);
        m.note_parallel(2);
        let r = m.parallel_report();
        assert_eq!(r.regions, 2);
        assert_eq!(r.tasks, 6);
        assert_eq!(r.max_width, 4);
    }

    #[test]
    fn wal_charges_are_sequential() {
        let m = ResourceMeter::new(1);
        m.set_now(0);
        m.wal_write(8192);
        m.wal_write(8192);
        m.wal_sync();
        let d = m.disk_report();
        assert_eq!(d.ops, 3);
        assert_eq!(d.seq_ops, 2, "group commits must be priced sequentially");
        let u = ResourceMeter::unmetered();
        u.wal_write(100);
        assert_eq!(u.disk_report().ops, 0);
    }

    #[test]
    fn clock_is_monotone() {
        let m = ResourceMeter::new(1);
        m.set_now(100);
        m.set_now(50);
        assert_eq!(m.now_us(), 100);
    }

    #[test]
    fn charges_land_at_virtual_time() {
        let m = ResourceMeter::new(1);
        m.set_now(0);
        m.cpu(100_000.0);
        m.set_now(5_000_000);
        m.cpu(100_000.0);
        let r = m.cpu_report();
        assert_eq!(r.total_units, 200_000.0);
        // Two active windows out of six → avg is one third of the window load.
        assert!(r.max_load > r.avg_load);
    }
}
