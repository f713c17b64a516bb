//! Storage statistics and the sim-meter I/O bridge.

use crate::cache::{CachedBatch, SharedCol};
use odh_obs::{Counter, Registry};
use odh_pager::pool::IoHook;
use odh_sim::ResourceMeter;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

/// Counters an [`crate::OdhTable`] maintains.
///
/// Each counter is an [`odh_obs::Counter`] handle, so a table can publish
/// the very atomics it increments into the shared metrics registry
/// ([`StorageStats::register_into`]) — one source of truth, no shadow
/// copies. A bare `StorageStats::new()` keeps standalone counters for
/// tables built outside a registry (unit tests, scratch tools).
#[derive(Debug, Default)]
pub struct StorageStats {
    /// Operational data points accepted by `put`.
    pub points_ingested: Arc<Counter>,
    /// Operational records accepted by `put`.
    pub records_ingested: Arc<Counter>,
    /// Smallest timestamp ingested (µs; i64::MAX when empty).
    pub min_ts: AtomicI64,
    /// Largest timestamp ingested (µs; i64::MIN when empty).
    pub max_ts: AtomicI64,
    /// Batch records sealed and written.
    pub batches_written: Arc<Counter>,
    /// Sum of ValueBlob bytes written.
    pub blob_bytes: Arc<Counter>,
    /// Sum of raw (8 bytes × non-null values) payload represented.
    pub raw_bytes: Arc<Counter>,
    /// Points returned by scans.
    pub points_scanned: Arc<Counter>,
    /// Sealed MG batches a compaction pass drained into per-source
    /// batches (`odh_table_batches_reorganized_total`).
    pub batches_reorganized: Arc<Counter>,
    /// Batches skipped without blob decode thanks to tag zone bounds.
    pub batches_zone_pruned: Arc<Counter>,
    /// Batches whose aggregate contribution came entirely from sealed
    /// per-tag summaries (no blob decode).
    pub summary_answered_batches: Arc<Counter>,
    /// Sealed-batch fetches served from the decode cache.
    pub cache_hits: Arc<Counter>,
    /// Sealed-batch fetches that missed the decode cache.
    pub cache_misses: Arc<Counter>,
    /// ValueBlob tag-section decode events (one per batch whose requested
    /// tags were not already decoded in cache).
    pub blob_decodes: Arc<Counter>,
    /// Cold-tier batches read during scans/aggregates. Cold reads bypass
    /// the decode cache entirely, so this is the demotion-policy feedback
    /// signal: a hot query set touching cold batches means `cold_after`
    /// is too aggressive.
    pub cold_batches_scanned: Arc<Counter>,
    /// Out-of-order rows routed to a side buffer (arrived below the
    /// source's seal watermark).
    pub ooo_side_rows: Arc<Counter>,
    /// Side buffers sealed into late batches.
    pub ooo_side_batches: Arc<Counter>,
    /// Delete predicates applied as tombstones.
    pub tombstone_deletes: Arc<Counter>,
    /// Rows hidden by tombstone filters on the read path.
    pub tombstone_masked_rows: Arc<Counter>,
    /// Rows physically removed by compaction resolving tombstones.
    pub tombstone_resolved_rows: Arc<Counter>,
    /// Tombstones retired after compaction proved no matches remain.
    pub tombstones_retired: Arc<Counter>,
}

/// Snapshot of [`StorageStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct StatsSnapshot {
    pub points_ingested: u64,
    pub records_ingested: u64,
    pub min_ts: i64,
    pub max_ts: i64,
    pub batches_written: u64,
    pub blob_bytes: u64,
    pub raw_bytes: u64,
    pub points_scanned: u64,
    pub batches_reorganized: u64,
    pub batches_zone_pruned: u64,
    // Read-path counters added in the query overhaul; `Option` keeps old
    // snapshots deserializable (missing → `None`).
    pub summary_answered_batches: Option<u64>,
    pub cache_hits: Option<u64>,
    pub cache_misses: Option<u64>,
    pub blob_decodes: Option<u64>,
    // Added with the compaction/tiering PR; `Option` for old snapshots.
    pub cold_batches_scanned: Option<u64>,
    // Added with the hostile-ingest PR; `Option` for old snapshots.
    pub ooo_side_rows: Option<u64>,
    pub ooo_side_batches: Option<u64>,
    pub tombstone_deletes: Option<u64>,
    pub tombstone_masked_rows: Option<u64>,
    pub tombstone_resolved_rows: Option<u64>,
    pub tombstones_retired: Option<u64>,
}

impl Default for StatsSnapshot {
    fn default() -> Self {
        StatsSnapshot {
            points_ingested: 0,
            records_ingested: 0,
            min_ts: i64::MAX,
            max_ts: i64::MIN,
            batches_written: 0,
            blob_bytes: 0,
            raw_bytes: 0,
            points_scanned: 0,
            batches_reorganized: 0,
            batches_zone_pruned: 0,
            summary_answered_batches: Some(0),
            cache_hits: Some(0),
            cache_misses: Some(0),
            blob_decodes: Some(0),
            cold_batches_scanned: Some(0),
            ooo_side_rows: Some(0),
            ooo_side_batches: Some(0),
            tombstone_deletes: Some(0),
            tombstone_masked_rows: Some(0),
            tombstone_resolved_rows: Some(0),
            tombstones_retired: Some(0),
        }
    }
}

impl StorageStats {
    /// Build stats pre-loaded from a recovered snapshot.
    pub fn from_snapshot(s: &StatsSnapshot) -> StorageStats {
        let st = StorageStats::new();
        st.points_ingested.store(s.points_ingested);
        st.records_ingested.store(s.records_ingested);
        st.min_ts.store(s.min_ts, Ordering::Relaxed);
        st.max_ts.store(s.max_ts, Ordering::Relaxed);
        st.batches_written.store(s.batches_written);
        st.blob_bytes.store(s.blob_bytes);
        st.raw_bytes.store(s.raw_bytes);
        st.ooo_side_rows.store(s.ooo_side_rows.unwrap_or(0));
        st.ooo_side_batches.store(s.ooo_side_batches.unwrap_or(0));
        st.tombstone_deletes.store(s.tombstone_deletes.unwrap_or(0));
        st.tombstone_masked_rows.store(s.tombstone_masked_rows.unwrap_or(0));
        st.tombstone_resolved_rows.store(s.tombstone_resolved_rows.unwrap_or(0));
        st.tombstones_retired.store(s.tombstones_retired.unwrap_or(0));
        st
    }

    /// Empty stats with the min/max sentinels in place.
    pub fn new() -> StorageStats {
        StorageStats {
            min_ts: AtomicI64::new(i64::MAX),
            max_ts: AtomicI64::new(i64::MIN),
            ..Default::default()
        }
    }

    /// Publish every counter into `registry` under `odh_table_*`, labeled
    /// with the table name and a process-unique instance id (two servers
    /// of one cluster can host same-named tables; their counters must not
    /// alias).
    pub fn register_into(&self, registry: &Registry, table: &str, inst: u64) {
        let inst = inst.to_string();
        let labels: &[(&str, &str)] = &[("table", table), ("inst", &inst)];
        for (name, counter) in [
            ("odh_table_points_ingested_total", &self.points_ingested),
            ("odh_table_records_ingested_total", &self.records_ingested),
            ("odh_table_batches_written_total", &self.batches_written),
            ("odh_table_blob_bytes_total", &self.blob_bytes),
            ("odh_table_raw_bytes_total", &self.raw_bytes),
            ("odh_table_points_scanned_total", &self.points_scanned),
            ("odh_table_batches_reorganized_total", &self.batches_reorganized),
            ("odh_table_batches_zone_pruned_total", &self.batches_zone_pruned),
            ("odh_table_summary_answered_batches_total", &self.summary_answered_batches),
            ("odh_table_cache_hits_total", &self.cache_hits),
            ("odh_table_cache_misses_total", &self.cache_misses),
            ("odh_table_blob_decodes_total", &self.blob_decodes),
            ("odh_table_cold_batches_scanned_total", &self.cold_batches_scanned),
            // Hostile-ingest counters keep their own prefixes: they are
            // scenario counters (disorder + deletes), not table plumbing.
            ("odh_ooo_side_rows_total", &self.ooo_side_rows),
            ("odh_ooo_side_batches_total", &self.ooo_side_batches),
            ("odh_tombstone_deletes_total", &self.tombstone_deletes),
            ("odh_tombstone_masked_rows_total", &self.tombstone_masked_rows),
            ("odh_tombstone_resolved_rows_total", &self.tombstone_resolved_rows),
            ("odh_tombstone_retired_total", &self.tombstones_retired),
        ] {
            registry.adopt_counter(name, labels, counter);
        }
    }

    /// Record one accepted operational record.
    pub fn note_put(&self, ts_us: i64, points: u64) {
        self.points_ingested.add(points);
        self.records_ingested.inc();
        self.min_ts.fetch_min(ts_us, Ordering::Relaxed);
        self.max_ts.fetch_max(ts_us, Ordering::Relaxed);
    }

    /// Record a run of `records` accepted records spanning
    /// `[min_ts_us, max_ts_us]` with `points` non-null values in total —
    /// one atomic round for what [`TableStats::note_put`] would count
    /// row by row.
    pub fn note_put_run(&self, min_ts_us: i64, max_ts_us: i64, records: u64, points: u64) {
        self.points_ingested.add(points);
        self.records_ingested.add(records);
        self.min_ts.fetch_min(min_ts_us, Ordering::Relaxed);
        self.max_ts.fetch_max(max_ts_us, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            points_ingested: self.points_ingested.get(),
            records_ingested: self.records_ingested.get(),
            min_ts: self.min_ts.load(Ordering::Relaxed),
            max_ts: self.max_ts.load(Ordering::Relaxed),
            batches_written: self.batches_written.get(),
            blob_bytes: self.blob_bytes.get(),
            raw_bytes: self.raw_bytes.get(),
            points_scanned: self.points_scanned.get(),
            batches_reorganized: self.batches_reorganized.get(),
            batches_zone_pruned: self.batches_zone_pruned.get(),
            summary_answered_batches: Some(self.summary_answered_batches.get()),
            cache_hits: Some(self.cache_hits.get()),
            cache_misses: Some(self.cache_misses.get()),
            blob_decodes: Some(self.blob_decodes.get()),
            cold_batches_scanned: Some(self.cold_batches_scanned.get()),
            ooo_side_rows: Some(self.ooo_side_rows.get()),
            ooo_side_batches: Some(self.ooo_side_batches.get()),
            tombstone_deletes: Some(self.tombstone_deletes.get()),
            tombstone_masked_rows: Some(self.tombstone_masked_rows.get()),
            tombstone_resolved_rows: Some(self.tombstone_resolved_rows.get()),
            tombstones_retired: Some(self.tombstones_retired.get()),
        }
    }
}

/// Read-path attribution accumulated over one optimistic read pass and
/// committed to [`StorageStats`] only if that pass validates (see
/// `OdhTable::read_consistent`). Keeping the scratch local makes the
/// published counters exact under concurrent sealing: a discarded retry
/// contributes nothing.
///
/// Decode-cache **admissions** are buffered here too, keyed by
/// `(container id, rid)` with their admission order, and installed into
/// the shared cache only when the pass commits. A discarded pass must
/// leave no trace: if its decodes stayed in the cache, the retry would
/// hit where a quiescent run misses, and the committed hit/miss/decode
/// counts would drift from the exactness the counters promise.
#[derive(Default)]
pub(crate) struct ReadTally {
    pub summary_answered_batches: u64,
    pub batches_zone_pruned: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub blob_decodes: u64,
    pub cold_batches_scanned: u64,
    pub tombstone_masked_rows: u64,
    pub admissions: HashMap<(u64, u64), (usize, Arc<CachedBatch>)>,
    /// Columns this pass decoded inside *already-shared* cache entries,
    /// keyed by `(entry address, tag)` — installed with the admissions.
    pub fills: HashMap<(usize, usize), (Arc<CachedBatch>, SharedCol)>,
}

impl ReadTally {
    pub(crate) fn commit(&self, stats: &StorageStats) {
        stats.summary_answered_batches.add(self.summary_answered_batches);
        stats.batches_zone_pruned.add(self.batches_zone_pruned);
        stats.cache_hits.add(self.cache_hits);
        stats.cache_misses.add(self.cache_misses);
        stats.blob_decodes.add(self.blob_decodes);
        stats.cold_batches_scanned.add(self.cold_batches_scanned);
        stats.tombstone_masked_rows.add(self.tombstone_masked_rows);
    }
}

impl StatsSnapshot {
    /// Blob-level compression ratio achieved so far.
    pub fn compression_ratio(&self) -> f64 {
        if self.blob_bytes == 0 {
            return 1.0;
        }
        self.raw_bytes as f64 / self.blob_bytes as f64
    }
}

/// Tracks the largest `(end - begin)` span of any batch in a container so
/// range scans know how far left of `t1` a covering batch may begin.
#[derive(Debug, Default)]
pub struct MaxSpan(AtomicI64);

impl MaxSpan {
    pub fn note(&self, span: i64) {
        self.0.fetch_max(span, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Buffer-pool hook that forwards physical page traffic into the resource
/// meter (disk model + per-page CPU cost).
pub struct MeterIoHook(pub Arc<ResourceMeter>);

impl IoHook for MeterIoHook {
    fn physical_read(&self, bytes: usize) {
        self.0.disk_random(bytes);
        self.0.cpu(self.0.costs.page_read);
    }

    fn physical_write(&self, bytes: usize) {
        self.0.disk_random(bytes);
        self.0.cpu(self.0.costs.page_write);
    }

    fn logical_access(&self) {
        self.0.cpu(self.0.costs.buffer_hit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_ratio() {
        let s = StorageStats::default();
        s.raw_bytes.store(1000);
        s.blob_bytes.store(100);
        assert_eq!(s.snapshot().compression_ratio(), 10.0);
        assert_eq!(StatsSnapshot::default().compression_ratio(), 1.0);
    }

    #[test]
    fn register_into_shares_the_live_counters() {
        let reg = odh_obs::Registry::new();
        let s = StorageStats::new();
        s.register_into(&reg, "t", 7);
        s.note_put(1_000, 3);
        // The registry reads the same atomic the table bumps.
        assert_eq!(
            reg.counter_value("odh_table_points_ingested_total", &[("table", "t"), ("inst", "7")]),
            Some(3)
        );
        // A same-named table under a different instance does not alias.
        let other = StorageStats::new();
        other.register_into(&reg, "t", 8);
        assert_eq!(
            reg.counter_value("odh_table_points_ingested_total", &[("table", "t"), ("inst", "8")]),
            Some(0)
        );
    }

    #[test]
    fn max_span_is_monotone() {
        let m = MaxSpan::default();
        m.note(100);
        m.note(50);
        assert_eq!(m.get(), 100);
        m.note(200);
        assert_eq!(m.get(), 200);
    }

    #[test]
    fn meter_hook_charges() {
        let meter = ResourceMeter::new(4);
        meter.set_now(0);
        let hook = MeterIoHook(meter.clone());
        hook.physical_write(8192);
        hook.physical_read(8192);
        hook.logical_access();
        assert_eq!(meter.disk_report().ops, 2);
        assert!(meter.cpu_report().total_units > 0.0);
    }
}
