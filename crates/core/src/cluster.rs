//! The cluster: N data servers with group-preserving source partitioning.
//!
//! Sources are routed by their Mixed-Grouping group id (`source /
//! mg_group_size`), so a whole MG group lives on one server — the data
//! locality the MG structure depends on — and the partitioning doubles as
//! the paper's partition elimination: a query with an `id` predicate
//! resolves to exactly one server; a pure time-slice fans out to all.

use crate::server::DataServer;
use odh_sim::ResourceMeter;
use odh_storage::{OdhTable, TableConfig};
use odh_types::{Record, Result, SourceClass, SourceId, Timestamp};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Global (cluster-wide) statistics per schema type, maintained on ingest
/// and consulted by the virtual table's cost estimation.
#[derive(Debug, Default)]
pub struct TypeStats {
    pub sources: AtomicU64,
    pub points: AtomicU64,
    pub records: AtomicU64,
    pub min_ts: AtomicI64,
    pub max_ts: AtomicI64,
}

impl TypeStats {
    pub fn new() -> TypeStats {
        TypeStats {
            min_ts: AtomicI64::new(i64::MAX),
            max_ts: AtomicI64::new(i64::MIN),
            ..Default::default()
        }
    }

    pub fn note_record(&self, ts: Timestamp, points: u64) {
        self.records.fetch_add(1, Ordering::Relaxed);
        self.points.fetch_add(points, Ordering::Relaxed);
        self.min_ts.fetch_min(ts.micros(), Ordering::Relaxed);
        self.max_ts.fetch_max(ts.micros(), Ordering::Relaxed);
    }

    /// Run counterpart of [`TypeStats::note_record`]: `records` records
    /// spanning `[min_ts, max_ts]` with `points` non-null values in total.
    pub fn note_run(&self, min_ts: i64, max_ts: i64, records: u64, points: u64) {
        self.records.fetch_add(records, Ordering::Relaxed);
        self.points.fetch_add(points, Ordering::Relaxed);
        self.min_ts.fetch_min(min_ts, Ordering::Relaxed);
        self.max_ts.fetch_max(max_ts, Ordering::Relaxed);
    }

    /// Global time span covered, in microseconds (0 when empty).
    pub fn span_us(&self) -> i64 {
        let lo = self.min_ts.load(Ordering::Relaxed);
        let hi = self.max_ts.load(Ordering::Relaxed);
        if lo > hi {
            0
        } else {
            hi - lo
        }
    }
}

struct TypeEntry {
    cfg: TableConfig,
    stats: Arc<TypeStats>,
}

/// The server fleet.
pub struct Cluster {
    servers: Vec<Arc<DataServer>>,
    meter: Arc<ResourceMeter>,
    types: RwLock<HashMap<String, TypeEntry>>,
}

impl Cluster {
    pub fn in_memory(n_servers: usize, meter: Arc<ResourceMeter>) -> Arc<Cluster> {
        assert!(n_servers >= 1);
        Arc::new(Cluster {
            servers: (0..n_servers)
                .map(|i| Arc::new(DataServer::in_memory(i, meter.clone())))
                .collect(),
            meter,
            types: RwLock::new(HashMap::new()),
        })
    }

    /// In-memory cluster with per-server WALs over [`odh_pager::log::MemLogDir`]
    /// — the crash-recovery tests' and the WAL benchmarks' configuration
    /// (heap-backed media survive as long as their `Arc`s do).
    pub fn in_memory_durable(n_servers: usize, meter: Arc<ResourceMeter>) -> Result<Arc<Cluster>> {
        assert!(n_servers >= 1);
        let servers = (0..n_servers)
            .map(|i| {
                Ok(Arc::new(DataServer::with_disk_wal(
                    i,
                    meter.clone(),
                    Arc::new(odh_pager::disk::MemDisk::new()),
                    crate::server::DEFAULT_POOL_FRAMES,
                    Arc::new(odh_pager::log::MemLogDir::new()),
                )?))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Cluster::with_servers(servers, meter))
    }

    pub fn with_servers(servers: Vec<Arc<DataServer>>, meter: Arc<ResourceMeter>) -> Arc<Cluster> {
        assert!(!servers.is_empty());
        Arc::new(Cluster { servers, meter, types: RwLock::new(HashMap::new()) })
    }

    /// Group-commit barrier across the fleet (see [`DataServer::sync`]).
    pub fn sync(&self) -> Result<()> {
        for s in &self.servers {
            s.sync()?;
        }
        Ok(())
    }

    pub fn meter(&self) -> &Arc<ResourceMeter> {
        &self.meter
    }

    pub fn servers(&self) -> &[Arc<DataServer>] {
        &self.servers
    }

    /// Create a schema type on every server.
    pub fn define_schema_type(&self, cfg: TableConfig) -> Result<Arc<TypeStats>> {
        for s in &self.servers {
            s.create_table(cfg.clone())?;
        }
        let stats = Arc::new(TypeStats::new());
        self.types
            .write()
            .insert(cfg.schema.name.to_ascii_lowercase(), TypeEntry { cfg, stats: stats.clone() });
        Ok(stats)
    }

    /// Register an already-materialized schema type (recovery path): the
    /// tables exist on the servers; rebuild the cluster-level entry and
    /// statistics from their persisted counters.
    pub fn adopt_schema_type(&self, cfg: TableConfig) -> Result<Arc<TypeStats>> {
        let name = cfg.schema.name.to_ascii_lowercase();
        let stats = Arc::new(TypeStats::new());
        for s in &self.servers {
            if let Ok(t) = s.table(&name) {
                let snap = t.stats().snapshot();
                stats.sources.fetch_add(t.source_count() as u64, Ordering::Relaxed);
                stats.points.fetch_add(snap.points_ingested, Ordering::Relaxed);
                stats.records.fetch_add(snap.records_ingested, Ordering::Relaxed);
                stats.min_ts.fetch_min(snap.min_ts, Ordering::Relaxed);
                stats.max_ts.fetch_max(snap.max_ts, Ordering::Relaxed);
            }
        }
        self.types.write().insert(name, TypeEntry { cfg, stats: stats.clone() });
        Ok(stats)
    }

    pub fn type_stats(&self, schema_type: &str) -> Option<Arc<TypeStats>> {
        self.types.read().get(&schema_type.to_ascii_lowercase()).map(|e| e.stats.clone())
    }

    pub fn type_config(&self, schema_type: &str) -> Option<TableConfig> {
        self.types.read().get(&schema_type.to_ascii_lowercase()).map(|e| e.cfg.clone())
    }

    /// The server owning `source` for `schema_type` (group-preserving).
    pub fn server_for(&self, schema_type: &str, source: SourceId) -> Arc<DataServer> {
        let group_size =
            self.type_config(schema_type).map(|c| c.mg_group_size).unwrap_or(1000).max(1);
        let idx = ((source.0 / group_size) % self.servers.len() as u64) as usize;
        self.servers[idx].clone()
    }

    /// Register a source on its owning server.
    pub fn register_source(
        &self,
        schema_type: &str,
        source: SourceId,
        class: SourceClass,
    ) -> Result<()> {
        self.server_for(schema_type, source).table(schema_type)?.register_source(source, class)?;
        if let Some(stats) = self.type_stats(schema_type) {
            stats.sources.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Ingest one record (the writer API goes through here).
    pub fn put(&self, schema_type: &str, table: &OdhTable, record: &Record) -> Result<()> {
        table.put(record)?;
        if let Some(stats) = self.type_stats(schema_type) {
            stats.note_record(record.ts, record.data_points() as u64);
        }
        Ok(())
    }

    pub fn flush(&self) -> Result<()> {
        for s in &self.servers {
            s.flush()?;
        }
        Ok(())
    }

    /// Apply a predicate delete to a schema type. Source-list predicates
    /// resolve to the owning servers (partition elimination); a pure
    /// time-range delete fans out to the whole fleet. The deletes are
    /// WAL-framed per server; `sync` afterwards for a durability barrier.
    pub fn delete(&self, schema_type: &str, pred: &odh_storage::DeletePredicate) -> Result<()> {
        match &pred.sources {
            Some(list) => {
                // Dedupe by server so one shard gets one tombstone even
                // when several listed sources live on it.
                let group_size =
                    self.type_config(schema_type).map(|c| c.mg_group_size).unwrap_or(1000).max(1);
                let mut hit: Vec<usize> = Vec::new();
                for s in list {
                    let idx = ((s.0 / group_size) % self.servers.len() as u64) as usize;
                    if !hit.contains(&idx) {
                        hit.push(idx);
                    }
                }
                for idx in hit {
                    self.servers[idx].table(schema_type)?.delete(pred)?;
                }
            }
            None => {
                for s in &self.servers {
                    s.table(schema_type)?.delete(pred)?;
                }
            }
        }
        Ok(())
    }

    /// Run one generational compaction pass on every server.
    pub fn compact(&self) -> Result<odh_storage::CompactReport> {
        let mut report = odh_storage::CompactReport::default();
        for s in &self.servers {
            report.absorb(&s.compact()?);
        }
        Ok(report)
    }

    pub fn storage_bytes(&self) -> u64 {
        self.servers.iter().map(|s| s.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_types::{Duration, SchemaType};

    #[test]
    fn group_preserving_routing() {
        let c = Cluster::in_memory(4, ResourceMeter::unmetered());
        c.define_schema_type(TableConfig::new(SchemaType::new("m", ["v"])).with_mg_group_size(100))
            .unwrap();
        // All sources of one group land on the same server.
        let s0 = c.server_for("m", SourceId(0)).id;
        for id in 0..100 {
            assert_eq!(c.server_for("m", SourceId(id)).id, s0);
        }
        // Different groups spread.
        let mut distinct = std::collections::HashSet::new();
        for g in 0..8u64 {
            distinct.insert(c.server_for("m", SourceId(g * 100)).id);
        }
        assert_eq!(distinct.len(), 4);
    }

    #[test]
    fn stats_track_ingest() {
        let c = Cluster::in_memory(2, ResourceMeter::unmetered());
        let stats = c.define_schema_type(TableConfig::new(SchemaType::new("m", ["v"]))).unwrap();
        c.register_source("m", SourceId(5), SourceClass::regular_low(Duration::from_minutes(15)))
            .unwrap();
        let server = c.server_for("m", SourceId(5));
        let table = server.table("m").unwrap();
        c.put("m", &table, &Record::dense(SourceId(5), Timestamp::from_secs(900), [1.0])).unwrap();
        assert_eq!(stats.sources.load(Ordering::Relaxed), 1);
        assert_eq!(stats.points.load(Ordering::Relaxed), 1);
        assert_eq!(stats.span_us(), 0);
        c.put("m", &table, &Record::dense(SourceId(5), Timestamp::from_secs(1800), [2.0])).unwrap();
        assert_eq!(stats.span_us(), 900 * 1_000_000);
    }
}
