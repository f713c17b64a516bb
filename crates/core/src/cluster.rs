//! The cluster: N data servers with group-preserving source partitioning.
//!
//! Sources are routed by their Mixed-Grouping group id (`source /
//! mg_group_size`), so a whole MG group lives on one server — the data
//! locality the MG structure depends on — and the partitioning doubles as
//! the paper's partition elimination: a query with an `id` predicate
//! resolves to exactly one server; a pure time-slice fans out to all.

use crate::server::DataServer;
use odh_sim::ResourceMeter;
use odh_storage::TableConfig;
use odh_types::{Result, SourceClass, SourceId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// The server fleet.
pub struct Cluster {
    servers: Vec<Arc<DataServer>>,
    meter: Arc<ResourceMeter>,
    types: RwLock<HashMap<String, TableConfig>>,
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
    pub fn define_schema_type(&self, cfg: TableConfig) -> Result<()> {
        for s in &self.servers {
            s.create_table(cfg.clone())?;
        }
        self.adopt_schema_type(cfg);
        Ok(())
    }

    /// Register an already-materialized schema type (recovery path): the
    /// tables exist on the servers, and their own counters are the
    /// type's statistics.
    pub fn adopt_schema_type(&self, cfg: TableConfig) {
        self.types.write().insert(cfg.schema.name.to_ascii_lowercase(), cfg);
    }

    pub fn type_config(&self, schema_type: &str) -> Option<TableConfig> {
        self.types.read().get(&schema_type.to_ascii_lowercase()).cloned()
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
        self.server_for(schema_type, source).table(schema_type)?.register_source(source, class)
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
    use odh_types::SchemaType;

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
}
