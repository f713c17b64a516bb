//! I/O and concurrency counters, as bundles of registry handles.
//!
//! Each counter is an [`odh_obs::Counter`] handle, so the owner (a data
//! server) publishes the very atomics the pool and the ingest stripes
//! increment into its metrics registry with `register_into`: one count
//! per event, read through the handle or the registry, never copied.

use odh_obs::{Counter, Registry};
use std::sync::Arc;

/// Counters for lock striping and parallel execution, shared by the
/// sharded ingest buffers and the cluster fan-out paths. All counters are
/// monotone; `shard_contended / shard_locks` is the observed contention
/// rate, the signal the stripe count is tuned against.
#[derive(Debug, Default)]
pub struct ConcurrencyStats {
    /// Shard mutex acquisitions on the ingest path.
    pub shard_locks: Arc<Counter>,
    /// Acquisitions that found the shard already locked (`try_lock`
    /// failed and the caller had to block).
    pub shard_contended: Arc<Counter>,
    /// Tasks executed on worker threads (batch-ingest slices, per-server
    /// scan fan-outs).
    pub parallel_tasks: Arc<Counter>,
    /// Multi-server scans that actually fanned out to >1 server.
    pub fanout_scans: Arc<Counter>,
}

impl ConcurrencyStats {
    /// Record one shard-lock acquisition; `contended` marks that the
    /// fast-path `try_lock` failed.
    #[inline]
    pub fn note_shard_lock(&self, contended: bool) {
        self.shard_locks.inc();
        if contended {
            self.shard_contended.inc();
        }
    }

    /// Record `n` tasks handed to worker threads.
    #[inline]
    pub fn note_parallel_tasks(&self, n: u64) {
        self.parallel_tasks.add(n);
    }

    /// Record a scan that fanned out to more than one server.
    #[inline]
    pub fn note_fanout_scan(&self) {
        self.fanout_scans.inc();
    }

    /// Publish every counter into `registry` under `odh_concurrency_*`.
    pub fn register_into(&self, registry: &Registry, labels: &[(&str, &str)]) {
        for (name, counter) in [
            ("odh_concurrency_shard_locks_total", &self.shard_locks),
            ("odh_concurrency_shard_contended_total", &self.shard_contended),
            ("odh_concurrency_parallel_tasks_total", &self.parallel_tasks),
            ("odh_concurrency_fanout_scans_total", &self.fanout_scans),
        ] {
            registry.adopt_counter(name, labels, counter);
        }
    }
}

/// Counters for logical (buffer-pool) and physical (disk) page traffic.
/// All counters are monotone.
#[derive(Debug, Default)]
pub struct IoStats {
    /// Buffer-pool fetches (logical reads).
    pub logical_reads: Arc<Counter>,
    /// Fetches satisfied without disk I/O.
    pub hits: Arc<Counter>,
    /// Pages read from the disk manager.
    pub physical_reads: Arc<Counter>,
    /// Pages written to the disk manager.
    pub physical_writes: Arc<Counter>,
    /// Pages allocated.
    pub allocations: Arc<Counter>,
    /// Eviction failures: every frame in the shard was pinned.
    pub evict_fail_all_pinned: Arc<Counter>,
    /// Eviction failures: unpinned frames stayed referenced-hot across
    /// two clock laps.
    pub evict_fail_hot: Arc<Counter>,
    /// Eviction failures: no clean frame under no-steal (checkpoint
    /// needed).
    pub evict_fail_no_clean: Arc<Counter>,
}

impl IoStats {
    /// Publish every counter into `registry` under `odh_pool_*`.
    pub fn register_into(&self, registry: &Registry, labels: &[(&str, &str)]) {
        for (name, counter) in [
            ("odh_pool_logical_reads_total", &self.logical_reads),
            ("odh_pool_hits_total", &self.hits),
            ("odh_pool_physical_reads_total", &self.physical_reads),
            ("odh_pool_physical_writes_total", &self.physical_writes),
            ("odh_pool_allocations_total", &self.allocations),
            ("odh_pool_evict_fail_all_pinned_total", &self.evict_fail_all_pinned),
            ("odh_pool_evict_fail_hot_total", &self.evict_fail_hot),
            ("odh_pool_evict_fail_no_clean_total", &self.evict_fail_no_clean),
        ] {
            registry.adopt_counter(name, labels, counter);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_into_shares_the_live_counters() {
        let reg = Registry::new();
        let io = IoStats::default();
        io.register_into(&reg, &[("server", "0")]);
        io.logical_reads.inc();
        io.hits.add(2);
        assert_eq!(reg.counter_value("odh_pool_logical_reads_total", &[("server", "0")]), Some(1));
        assert_eq!(reg.counter_value("odh_pool_hits_total", &[("server", "0")]), Some(2));
    }

    #[test]
    fn shard_locks_count_blocked_acquisitions() {
        let reg = Registry::new();
        let c = ConcurrencyStats::default();
        let labels: &[(&str, &str)] = &[("server", "1"), ("table", "t")];
        c.register_into(&reg, labels);
        c.note_shard_lock(false);
        c.note_shard_lock(true);
        c.note_shard_lock(false);
        c.note_parallel_tasks(3);
        assert_eq!(reg.counter_value("odh_concurrency_shard_locks_total", labels), Some(3));
        assert_eq!(reg.counter_value("odh_concurrency_shard_contended_total", labels), Some(1));
        assert_eq!(reg.counter_value("odh_concurrency_parallel_tasks_total", labels), Some(3));
        assert_eq!(reg.counter_value("odh_concurrency_fanout_scans_total", labels), Some(0));
    }
}
