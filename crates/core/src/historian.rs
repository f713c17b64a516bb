//! [`Historian`] — the top-level façade of the ODH system.
//!
//! One historian = configuration component (schema types, source
//! registry) plus storage component (writers) plus query component (SQL
//! engine with virtual tables, data router, relational tables). Built
//! through [`HistorianBuilder`]; see `examples/quickstart.rs` for the
//! canonical usage.

use crate::cluster::Cluster;
use crate::reltable::RelTable;
use crate::router::DataRouter;
use crate::server::DataServer;
use crate::vtable::VirtualTable;
use crate::writer::OdhWriter;
use odh_pager::disk::MemDisk;
use odh_pager::pool::BufferPool;
use odh_rdb::RdbProfile;
use odh_sim::ResourceMeter;
use odh_sql::{QueryResult, SqlEngine};
use odh_storage::TableConfig;
use odh_types::{RelSchema, Result, SourceClass, SourceId};
use std::path::PathBuf;
use std::sync::Arc;

/// Builder for a [`Historian`].
pub struct HistorianBuilder {
    servers: usize,
    cores: u32,
    metered: bool,
    disk_dir: Option<PathBuf>,
    pool_frames: usize,
    durable: Option<bool>,
}

impl HistorianBuilder {
    pub fn new() -> HistorianBuilder {
        HistorianBuilder {
            servers: 1,
            cores: 8,
            metered: false,
            disk_dir: None,
            pool_frames: crate::server::DEFAULT_POOL_FRAMES,
            durable: None,
        }
    }

    /// Number of data servers in the cluster.
    pub fn servers(mut self, n: usize) -> Self {
        self.servers = n.max(1);
        self
    }

    /// Enable the resource models with this core count (Tables 2/3 rows).
    pub fn metered_cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self.metered = true;
        self
    }

    /// Back servers with files in `dir` (storage-footprint experiments).
    pub fn disk_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }

    /// Buffer-pool frames per server.
    pub fn pool_frames(mut self, frames: usize) -> Self {
        self.pool_frames = frames.max(16);
        self
    }

    /// Force crash durability on or off. Defaults to **on** for
    /// disk-backed historians (each server gets a `server<N>.wal/` segment
    /// directory next to its `server<N>.pages`) and **off** for in-memory
    /// ones.
    pub fn durable(mut self, on: bool) -> Self {
        self.durable = Some(on);
        self
    }

    pub fn build(self) -> Result<Historian> {
        let meter =
            if self.metered { ResourceMeter::new(self.cores) } else { ResourceMeter::unmetered() };
        let durable = self.durable.unwrap_or(self.disk_dir.is_some());
        let servers: Result<Vec<Arc<DataServer>>> = (0..self.servers)
            .map(|i| {
                Ok(match &self.disk_dir {
                    None => {
                        let disk = Arc::new(MemDisk::new());
                        if durable {
                            Arc::new(DataServer::with_disk_wal(
                                i,
                                meter.clone(),
                                disk,
                                self.pool_frames,
                                Arc::new(odh_pager::log::MemLogDir::new()),
                            )?)
                        } else {
                            Arc::new(DataServer::with_disk(
                                i,
                                meter.clone(),
                                disk,
                                self.pool_frames,
                            ))
                        }
                    }
                    Some(dir) => {
                        std::fs::create_dir_all(dir)?;
                        let disk = Arc::new(odh_pager::disk::FileDisk::create(
                            dir.join(format!("server{i}.pages")),
                        )?);
                        if durable {
                            let log = Arc::new(odh_pager::log::FileLogDir::open(
                                dir.join(format!("server{i}.wal")),
                            )?);
                            Arc::new(DataServer::with_disk_wal(
                                i,
                                meter.clone(),
                                disk,
                                self.pool_frames,
                                log,
                            )?)
                        } else {
                            Arc::new(DataServer::with_disk(
                                i,
                                meter.clone(),
                                disk,
                                self.pool_frames,
                            ))
                        }
                    }
                })
            })
            .collect();
        let cluster = Cluster::with_servers(servers?, meter.clone());
        let router = Arc::new(DataRouter::new(cluster.clone()));
        Ok(Historian::assemble(SqlEngine::new(), cluster, router, meter))
    }
}

impl Default for HistorianBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl Historian {
    /// Reopen a historian from a directory of checkpointed server files
    /// (`server<N>.pages`, as written by [`HistorianBuilder::disk_dir`] +
    /// [`Historian::checkpoint`]). A server with a `server<N>.wal/` segment
    /// directory is recovered from its checkpoint plus the log. Relational
    /// tables are not persisted — only operational data is (the paper's
    /// historian owns the operational side; dimension tables live in the
    /// host RDBMS and are reloaded by the application).
    pub fn open(dir: impl Into<PathBuf>, cores: u32) -> Result<Historian> {
        let dir = dir.into();
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .map(|n| n.starts_with("server") && n.ends_with(".pages"))
                    .unwrap_or(false)
            })
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(odh_types::OdhError::NotFound(format!(
                "no server*.pages files under {}",
                dir.display()
            )));
        }
        let meter = ResourceMeter::new(cores);
        let mut servers = Vec::with_capacity(paths.len());
        for (i, p) in paths.iter().enumerate() {
            let disk = Arc::new(odh_pager::disk::FileDisk::open(p)?);
            let wal_path = p.with_extension("wal");
            servers.push(Arc::new(if wal_path.exists() {
                // Crash recovery: restore the checkpoint, replay the log.
                let log = Arc::new(odh_pager::log::FileLogDir::open(&wal_path)?);
                DataServer::open_with_wal(
                    i,
                    meter.clone(),
                    disk,
                    crate::server::DEFAULT_POOL_FRAMES,
                    log,
                )?
            } else {
                DataServer::open(i, meter.clone(), disk, crate::server::DEFAULT_POOL_FRAMES)?
            }));
        }
        let cluster = Cluster::with_servers(servers, meter.clone());
        let router = Arc::new(DataRouter::new(cluster.clone()));
        let engine = SqlEngine::new();
        // Rebuild schema types, virtual tables, and the router catalog
        // from whatever any server holds.
        let mut names: Vec<String> = Vec::new();
        for s in cluster.servers() {
            for n in s.table_names() {
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        for name in &names {
            let cfg = cluster
                .servers()
                .iter()
                .find_map(|s| s.table(name).ok())
                .map(|t| t.config().clone())
                .expect("table name came from a server");
            cluster.adopt_schema_type(cfg);
            let vtable =
                VirtualTable::new(cluster.clone(), router.clone(), name, &format!("{name}_v"))?;
            engine.register(vtable);
            for s in cluster.servers() {
                if let Ok(t) = s.table(name) {
                    for id in t.source_ids() {
                        router.note_source(name, id);
                    }
                }
            }
        }
        Ok(Historian::assemble(engine, cluster, router, meter))
    }
}

/// Cluster-wide resident metadata cost (see
/// [`Historian::memory_footprint`]). At fleet scale these two numbers
/// dominate the historian's heap: the sharded source registry holds one
/// packed record per registered source, and the open buffers hold
/// whatever rows have not been sealed into batches yet.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryFootprint {
    /// Bytes held by the sharded source registries (per-source class,
    /// seal, and watermark records).
    pub source_registry_bytes: u64,
    /// Bytes held by open (unsealed) ingest buffers, per-source and MG.
    pub open_buffer_bytes: u64,
}

/// Registry counters whose per-query movement EXPLAIN ANALYZE reports
/// (summed across all tables and servers).
const ATTRIBUTION_COUNTERS: [&str; 6] = [
    "odh_table_summary_answered_batches_total",
    "odh_table_cache_hits_total",
    "odh_table_cache_misses_total",
    "odh_table_blob_decodes_total",
    "odh_table_cold_batches_scanned_total",
    "odh_tombstone_masked_rows_total",
];

/// The ODH system.
pub struct Historian {
    cluster: Arc<Cluster>,
    router: Arc<DataRouter>,
    engine: SqlEngine,
    meter: Arc<ResourceMeter>,
    sql_plan_hist: Arc<odh_obs::Histogram>,
    sql_exec_hist: Arc<odh_obs::Histogram>,
    sql_vec_queries: Arc<odh_obs::Counter>,
    sql_vec_batches: Arc<odh_obs::Counter>,
    sql_vec_rows: Arc<odh_obs::Counter>,
    sql_vec_selected: Arc<odh_obs::Counter>,
}

impl Historian {
    pub fn builder() -> HistorianBuilder {
        HistorianBuilder::new()
    }

    fn assemble(
        engine: SqlEngine,
        cluster: Arc<Cluster>,
        router: Arc<DataRouter>,
        meter: Arc<ResourceMeter>,
    ) -> Historian {
        // Created eagerly so the metric catalog does not depend on whether
        // any SQL ran before the first scrape.
        let registry = meter.registry();
        let sql_plan_hist = registry.histogram("odh_sql_plan_seconds", &[]);
        let sql_exec_hist = registry.histogram("odh_sql_exec_seconds", &[]);
        let sql_vec_queries = registry.counter("odh_sql_vectorized_queries_total", &[]);
        let sql_vec_batches = registry.counter("odh_sql_vectorized_batches_total", &[]);
        let sql_vec_rows = registry.counter("odh_sql_vectorized_rows_total", &[]);
        let sql_vec_selected = registry.counter("odh_sql_vectorized_selected_rows_total", &[]);
        Historian {
            engine,
            cluster,
            router,
            meter,
            sql_plan_hist,
            sql_exec_hist,
            sql_vec_queries,
            sql_vec_batches,
            sql_vec_rows,
            sql_vec_selected,
        }
    }

    /// Fold one execution profile into the vectorized-execution counters.
    fn note_vectorized(&self, profile: &odh_sql::ExecProfile) {
        if !profile.used_vectorized {
            return;
        }
        self.sql_vec_queries.add(1);
        self.sql_vec_batches.add(profile.vectorized_batches);
        self.sql_vec_rows.add(profile.vectorized_rows_in);
        self.sql_vec_selected.add(profile.vectorized_rows_selected);
    }

    /// Quick single-server, unmetered historian.
    pub fn in_memory() -> Result<Historian> {
        HistorianBuilder::new().build()
    }

    pub fn meter(&self) -> &Arc<ResourceMeter> {
        &self.meter
    }

    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Define a schema type and expose it as virtual table
    /// `<schema name>_v`.
    pub fn define_schema_type(&self, cfg: TableConfig) -> Result<()> {
        let name = cfg.schema.name.clone();
        self.cluster.define_schema_type(cfg)?;
        let vtable = VirtualTable::new(
            self.cluster.clone(),
            self.router.clone(),
            &name,
            &format!("{}_v", name.to_ascii_lowercase()),
        )?;
        self.engine.register(vtable);
        Ok(())
    }

    /// Register a data source (configuration component metadata).
    pub fn register_source(
        &self,
        schema_type: &str,
        source: SourceId,
        class: SourceClass,
    ) -> Result<()> {
        self.cluster.register_source(schema_type, source, class)?;
        self.router.note_source(schema_type, source);
        Ok(())
    }

    /// Obtain the non-SQL write interface for a schema type.
    pub fn writer(&self, schema_type: &str) -> Result<OdhWriter> {
        OdhWriter::new(self.cluster.clone(), schema_type)
    }

    /// Create an ordinary relational table, registered for SQL fusion.
    /// Returns the handle for direct loading.
    pub fn create_relational_table(&self, schema: RelSchema) -> Arc<RelTable> {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 1024);
        let t = RelTable::create(pool, self.meter.clone(), schema, RdbProfile::RDB);
        self.engine.register(t.clone());
        t
    }

    /// Run a SQL query (fusion of virtual + relational tables). With the
    /// registry enabled, plan and execution time land in
    /// `odh_sql_plan_seconds` / `odh_sql_exec_seconds` and over-threshold
    /// queries hit the slow-op log.
    pub fn sql(&self, query: &str) -> Result<QueryResult> {
        let registry = self.meter.registry();
        if !registry.enabled() {
            return self.engine.query(query);
        }
        let (result, _, profile) = self.engine.query_profiled(query)?;
        self.sql_plan_hist.record(profile.plan_nanos);
        self.sql_exec_hist.record(profile.exec_nanos);
        self.note_vectorized(&profile);
        registry.note_duration("sql_exec", profile.exec_nanos);
        Ok(result)
    }

    /// Enable or disable vectorized execution for this historian's SQL
    /// (on by default; off runs every query on the row pipeline, which
    /// never reads seal-time summaries).
    pub fn set_vectorized(&self, enabled: bool) {
        self.engine.set_vectorized(enabled);
    }

    /// EXPLAIN: the optimizer's chosen plan.
    pub fn explain(&self, query: &str) -> Result<String> {
        self.engine.explain(query)
    }

    /// EXPLAIN ANALYZE: run the query and describe what actually happened
    /// — the optimized plan, one `op=` line per executed operator (rows,
    /// bytes, wall time), the plan/exec time split, and the read-path
    /// attribution the registry observed during the run (batches answered
    /// from summaries vs decode-cache traffic vs actual blob decodes).
    pub fn explain_analyze(&self, query: &str) -> Result<String> {
        let registry = self.meter.registry();
        let before: Vec<u64> =
            ATTRIBUTION_COUNTERS.iter().map(|n| registry.sum_counter(n)).collect();
        let (result, plan, profile) = self.engine.query_profiled(query)?;
        self.sql_plan_hist.record(profile.plan_nanos);
        self.sql_exec_hist.record(profile.exec_nanos);
        self.note_vectorized(&profile);
        registry.note_duration("sql_exec", profile.exec_nanos);
        let mut out = plan;
        if !out.ends_with('\n') {
            out.push('\n');
        }
        out.push_str(&profile.render());
        out.push_str(&format!(
            "rows_returned={} plan_time={}ns exec_time={}ns\n",
            result.rows.len(),
            profile.plan_nanos,
            profile.exec_nanos
        ));
        for (name, b) in ATTRIBUTION_COUNTERS.iter().zip(before) {
            let short = name
                .trim_start_matches("odh_table_")
                .trim_start_matches("odh_")
                .trim_end_matches("_total");
            out.push_str(&format!("{short}={}\n", registry.sum_counter(name).saturating_sub(b)));
        }
        Ok(out)
    }

    /// The shared metrics registry (enable/disable spans, slow-op
    /// threshold, raw handle access).
    pub fn registry(&self) -> &Arc<odh_obs::Registry> {
        self.meter.registry()
    }

    /// Full metrics exposition: the registry's rendering. Every counter
    /// (tables, WAL, buffer pools, ingest stripes) is a registry handle,
    /// so this is the only view there is.
    pub fn metrics_text(&self) -> String {
        self.meter.registry().render()
    }

    /// Seal buffers + write back.
    pub fn flush(&self) -> Result<()> {
        self.cluster.flush()
    }

    /// Group-commit barrier: make every write issued so far durable on
    /// every server's WAL. Writes are only *acknowledged* (guaranteed to
    /// survive a crash) once a sync covering them returns. No-op without
    /// durability.
    pub fn sync(&self) -> Result<()> {
        for s in self.cluster.servers() {
            s.sync()?;
        }
        Ok(())
    }

    /// Durably checkpoint every server (see [`Historian::open`]).
    pub fn checkpoint(&self) -> Result<()> {
        for s in self.cluster.servers() {
            s.checkpoint()?;
        }
        Ok(())
    }

    /// Move sealed MG history into per-source RTS/IRTS batches: one
    /// compaction pass (see [`Historian::compact`]), which drains the MG
    /// generation as part of its rewrite. Returns the MG points moved.
    pub fn reorganize(&self) -> Result<u64> {
        Ok(self.compact()?.mg_points_moved)
    }

    /// Run one generational compaction pass across the cluster (merge
    /// small sealed batches, drain sealed MG history per source, demote
    /// cold generations, drop expired ones).
    /// Background workers do this on their own when tables are configured
    /// with a compaction interval; this is the manual/administrative
    /// trigger. Returns the summed per-table reports.
    pub fn compact(&self) -> Result<odh_storage::CompactReport> {
        self.cluster.compact()
    }

    /// Delete by predicate: install a [`odh_storage::Tombstone`] on every
    /// shard of `schema_type` the predicate can reach (source-list
    /// predicates use partition elimination), then sync so the delete is
    /// durable before this returns. Matching rows vanish from every read
    /// tier immediately; the next compaction pass resolves them
    /// physically (see [`Historian::compact`]).
    pub fn delete(&self, schema_type: &str, pred: &odh_storage::DeletePredicate) -> Result<()> {
        self.cluster.delete(schema_type, pred)?;
        self.sync()
    }

    /// Total on-disk operational storage (Table 7 metric).
    pub fn storage_bytes(&self) -> u64 {
        self.cluster.storage_bytes()
    }

    /// Resident per-source metadata cost across the cluster — the two
    /// numbers that bound a fleet-scale deployment: sharded source
    /// registry bytes and open (unsealed) buffer bytes, summed over
    /// every server's tables. Refreshes the `odh_table_*_bytes` gauges
    /// so a metrics scrape right after this call agrees with it.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let mut out = MemoryFootprint::default();
        for s in self.cluster.servers() {
            let (registry, buffers) = s.memory_footprint();
            out.source_registry_bytes += registry;
            out.open_buffer_bytes += buffers;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_types::{DataType, Datum, Record, Row, SchemaType, Timestamp};

    /// The fleet-scale memory window: registration grows the registry
    /// arm, buffered rows grow the open-buffer arm, and a flush drains
    /// the latter back down (sealed batches live in the pool, not the
    /// buffers).
    #[test]
    fn memory_footprint_tracks_registration_and_buffering() {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(TableConfig::new(SchemaType::new("env", ["t"]))).unwrap();
        let empty = h.memory_footprint();
        for id in 0..256u64 {
            h.register_source("env", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let registered = h.memory_footprint();
        assert!(registered.source_registry_bytes > empty.source_registry_bytes);
        let w = h.writer("env").unwrap();
        for i in 0..64i64 {
            w.write(&Record::dense(SourceId(3), Timestamp::from_secs(i), [i as f64])).unwrap();
        }
        let buffered = h.memory_footprint();
        assert!(buffered.open_buffer_bytes > registered.open_buffer_bytes);
        w.flush().unwrap();
        let flushed = h.memory_footprint();
        assert!(flushed.open_buffer_bytes < buffered.open_buffer_bytes);
        // The gauges a scrape would see agree with the struct.
        let reg = h.registry();
        assert_eq!(
            reg.sum_gauge("odh_table_source_registry_bytes"),
            flushed.source_registry_bytes as i64
        );
        assert_eq!(reg.sum_gauge("odh_table_open_buffer_bytes"), flushed.open_buffer_bytes as i64);
    }

    /// End-to-end: the paper's §3 example query over environ_data_v +
    /// sensor_info.
    #[test]
    fn paper_fusion_query() {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("environ_data", ["temperature", "wind"]))
                .with_batch_size(16),
        )
        .unwrap();
        for id in 0..6u64 {
            h.register_source("environ_data", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let sensor_info = h.create_relational_table(RelSchema::new(
            "sensor_info",
            [("id", DataType::I64), ("area", DataType::Str)],
        ));
        sensor_info.create_index("idx_sensor_id", "id").unwrap();
        for id in 0..6i64 {
            sensor_info
                .insert(&Row::new(vec![
                    Datum::I64(id),
                    Datum::str(if id < 3 { "S1" } else { "S2" }),
                ]))
                .unwrap();
        }
        let base = Timestamp::parse_sql("2013-11-18 00:00:00").unwrap();
        let w = h.writer("environ_data").unwrap();
        for i in 0..100i64 {
            for id in 0..6u64 {
                w.write(&Record::dense(
                    SourceId(id),
                    base + odh_types::Duration::from_secs(i * 3600),
                    [20.0 + i as f64 * 0.1, id as f64],
                ))
                .unwrap();
            }
        }
        w.flush().unwrap();

        let r = h
            .sql(
                "SELECT timestamp, temperature, wind FROM environ_data_v a, sensor_info b \
                 WHERE a.id = b.id AND b.area = 'S1' \
                 AND timestamp BETWEEN '2013-11-18 00:00:00' AND '2013-11-22 23:59:59'",
            )
            .unwrap();
        // 5 days × 24 hourly samples... first 120 hours → i in 0..120
        // capped at 100 → 100 samples × 3 sensors in S1.
        assert_eq!(r.rows.len(), 300);
        assert_eq!(r.columns, vec!["timestamp", "temperature", "wind"]);
        // Wind values identify the sensors: only 0,1,2 qualify.
        assert!(r.rows.iter().all(|row| row.get(2).as_f64().unwrap() < 3.0));
    }

    #[test]
    fn explain_shows_plan() {
        let h = Historian::in_memory().unwrap();
        h.define_schema_type(TableConfig::new(SchemaType::new("m", ["v"]))).unwrap();
        let d = h.explain("select * from m_v where id = 3").unwrap();
        assert!(d.contains("scan m_v"), "{d}");
    }

    /// End-to-end summary answering: a SUM/AVG over a range covering
    /// whole batches is answered from seal-time summaries — zero blob
    /// decodes — and agrees with folding the rows of a plain SELECT.
    #[test]
    fn sql_aggregates_answer_from_summaries() {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("environ_data", ["temperature", "wind"]))
                .with_batch_size(16),
        )
        .unwrap();
        for id in 0..6u64 {
            h.register_source("environ_data", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("environ_data").unwrap();
        for i in 0..96i64 {
            for id in 0..6u64 {
                w.write(&Record::dense(
                    SourceId(id),
                    Timestamp(i * 1_000_000),
                    [20.0 + i as f64, id as f64],
                ))
                .unwrap();
            }
        }
        w.flush().unwrap();

        // `(summary-answered batches, blob decodes)` so far.
        let reads = || {
            let reg = h.registry();
            (
                reg.sum_counter("odh_table_summary_answered_batches_total"),
                reg.sum_counter("odh_table_blob_decodes_total"),
            )
        };
        let before = reads();
        let agg = h
            .sql("select COUNT(*), SUM(temperature), AVG(temperature), MAX(wind) from environ_data_v")
            .unwrap();
        let (summarized, decodes) = (reads().0 - before.0, reads().1 - before.1);
        assert!(summarized > 0, "summaries answered batches: {summarized}");
        assert_eq!(decodes, 0, "whole-table aggregate decodes nothing");

        // A range cutting batch 0 mid-way decodes only its boundary
        // batches (run before anything else warms the decode cache).
        let before = reads();
        let cut = h
            .sql(
                "select COUNT(*), SUM(temperature) from environ_data_v \
                  where timestamp between 8000000 and 79000000",
            )
            .unwrap();
        let (summarized, decodes) = (reads().0 - before.0, reads().1 - before.1);
        assert_eq!(cut.rows[0].get(0), &Datum::I64(72 * 6));
        assert_eq!(
            cut.rows[0].get(1).as_f64().unwrap(),
            (8..80).map(|i| 20.0 + i as f64).sum::<f64>() * 6.0
        );
        assert!(summarized > 0);
        assert!(
            decodes > 0 && decodes < summarized,
            "only boundary batches decode: {decodes} decodes, {summarized} summarized"
        );

        // Equivalence with the row path (temperatures are integer-valued,
        // so per-batch partial sums are exact).
        let rows = h.sql("select temperature from environ_data_v").unwrap();
        let temps: Vec<f64> = rows.rows.iter().filter_map(|r| r.get(0).as_f64()).collect();
        assert_eq!(agg.rows[0].get(0), &Datum::I64(temps.len() as i64));
        assert_eq!(agg.rows[0].get(1).as_f64().unwrap(), temps.iter().sum::<f64>());
        assert_eq!(
            agg.rows[0].get(2).as_f64().unwrap(),
            temps.iter().sum::<f64>() / temps.len() as f64
        );
        assert_eq!(agg.rows[0].get(3), &Datum::F64(5.0));

        // Fewer needed tags price below a wider row scan.
        let agg_cost = h.explain("select COUNT(*), SUM(temperature) from environ_data_v").unwrap();
        let scan_cost = h.explain("select temperature, wind from environ_data_v").unwrap();
        let est = |s: &str| -> f64 {
            let tail = s.rsplit("est. cost ").next().unwrap();
            tail.split(' ').next().unwrap().parse().unwrap()
        };
        assert!(est(&agg_cost) < est(&scan_cost), "{agg_cost} vs {scan_cost}");
    }

    #[test]
    fn explain_analyze_and_metrics_text() {
        let h = Historian::in_memory().unwrap();
        h.define_schema_type(TableConfig::new(SchemaType::new("m", ["v"])).with_batch_size(8))
            .unwrap();
        h.register_source("m", SourceId(1), SourceClass::irregular_high()).unwrap();
        let w = h.writer("m").unwrap();
        for i in 0..64i64 {
            w.write(&Record::dense(SourceId(1), Timestamp(i * 1000), [i as f64])).unwrap();
        }
        w.flush().unwrap();

        let ea = h.explain_analyze("select COUNT(*), SUM(v) from m_v").unwrap();
        assert!(ea.contains("op=vectorized_agg m_v"), "{ea}");
        assert!(ea.contains("rows_returned=1"), "{ea}");
        assert!(ea.contains("blob_decodes=0"), "summaries answer, nothing decodes: {ea}");
        assert!(ea.contains("summary_answered_batches=8"), "{ea}");

        // Row path: the same table scanned decodes blobs and reports it.
        let ea = h.explain_analyze("select v from m_v").unwrap();
        assert!(ea.contains("op=scan m_v"), "{ea}");
        assert!(ea.contains("rows_returned=64"), "{ea}");
        assert!(!ea.contains("blob_decodes=0"), "{ea}");

        let text = h.metrics_text();
        for needle in [
            "odh_table_points_ingested_total{table=\"m\",inst=",
            "odh_sql_exec_seconds_count",
            "odh_pool_logical_reads_total{server=\"0\"}",
            "odh_concurrency_shard_locks_total{server=\"0\",table=\"m\"}",
            "odh_seal_seconds_count{table=\"m\"}",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn storage_bytes_grows_with_data() {
        let h = Historian::in_memory().unwrap();
        h.define_schema_type(TableConfig::new(SchemaType::new("m", ["v"])).with_batch_size(4))
            .unwrap();
        h.register_source("m", SourceId(1), SourceClass::irregular_high()).unwrap();
        let before = h.storage_bytes();
        let w = h.writer("m").unwrap();
        for i in 0..64i64 {
            w.write(&Record::dense(SourceId(1), Timestamp(i * 1000), [i as f64])).unwrap();
        }
        w.flush().unwrap();
        assert!(h.storage_bytes() > before);
    }
}
