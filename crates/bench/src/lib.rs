//! Shared harness plumbing for the per-table/per-figure binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §4 for the index). This library holds the common
//! setup: building an ODH historian or a row-store baseline, loading a TD
//! or LD dataset into it through WS1, wiring WS2 query targets, and
//! persisting reports as JSON under `results/`.

use iotx::ld::{self, LdSpec, ObservationGen};
use iotx::sink::{JdbcSink, OdhSink};
use iotx::td::{self, TdSpec, TradeGen};
use iotx::ws1::{run_ws1, Ws1Options, Ws1Report};
use iotx::ws2::{DatasetMeta, OpNames, QueryTarget};
use odh_core::{Historian, RelTable};
use odh_pager::disk::MemDisk;
use odh_pager::pool::BufferPool;
use odh_rdb::RdbProfile;
use odh_sim::ResourceMeter;
use odh_sql::SqlEngine;
use odh_storage::TableConfig;
use odh_types::{Result, Row, SourceClass, SourceId};
use std::path::{Path, PathBuf};
use std::sync::Arc;

pub mod gate;
pub mod kernels;
pub mod netbench;
pub mod scalebench;

pub use netbench::{
    decode_alloc_bench, net_bench, net_fault_bench, print_net_report, NetBenchReport,
};
pub use scalebench::{print_scale_report, scale_bench, ScaleBenchReport};

/// Core count every benchmark system is modeled with (the paper's
/// benchmark machine: "an 8-core 4060 MHz Power PC").
pub const BENCH_CORES: u32 = 8;

/// A row-store baseline system (the paper's "RDB" or "MySQL").
pub struct Baseline {
    pub profile: RdbProfile,
    pub engine: SqlEngine,
    pub meter: Arc<ResourceMeter>,
    /// The operational table, shared with the sink that loaded it.
    pub op_table: Arc<RelTable>,
}

impl Baseline {
    pub fn target(&self, names: OpNames) -> QueryTarget<'_> {
        QueryTarget {
            system: self.profile.name.to_string(),
            names,
            exec: Box::new(move |sql| self.engine.query(sql)),
            meter: self.meter.clone(),
            cores: BENCH_CORES,
        }
    }
}

/// An ODH system wrapped for querying.
pub struct OdhSystem {
    pub historian: Arc<Historian>,
}

impl OdhSystem {
    pub fn target(&self, names: OpNames) -> QueryTarget<'_> {
        QueryTarget {
            system: "ODH".to_string(),
            names,
            exec: Box::new(move |sql| self.historian.sql(sql)),
            meter: self.historian.meter().clone(),
            cores: BENCH_CORES,
        }
    }
}

// ------------------------------------------------------------- TD setup --

/// Build an ODH historian prepared for a TD dataset (accounts registered,
/// dimension tables loaded and indexed).
pub fn odh_for_td(spec: &TdSpec, with_dims: bool) -> Result<Arc<Historian>> {
    let h = Arc::new(Historian::builder().servers(2).metered_cores(BENCH_CORES).build()?);
    h.define_schema_type(TableConfig::new(td::trade_schema_type()).with_batch_size(512))?;
    for a in 0..spec.accounts {
        h.register_source("trade", SourceId(a), SourceClass::irregular_high())?;
    }
    if with_dims {
        let account = h.create_relational_table(td::account_schema());
        account.create_index("idx_ca_id", "ca_id")?;
        account.create_index("idx_ca_name", "ca_name")?;
        for row in td::accounts(spec) {
            account.insert(&row)?;
        }
        let customer = h.create_relational_table(td::customer_schema());
        customer.create_index("idx_c_id", "c_id")?;
        for row in td::customers(spec) {
            customer.insert(&row)?;
        }
    }
    Ok(h)
}

/// WS1-load a TD dataset into ODH; returns the system and the report.
pub fn load_td_odh(spec: &TdSpec, opts: Ws1Options) -> Result<(OdhSystem, Ws1Report)> {
    let h = odh_for_td(spec, true)?;
    let mut sink = OdhSink::new(h.clone(), "trade")?;
    let report = run_ws1(&spec.name(), spec.offered_pps(), TradeGen::new(spec), &mut sink, opts)?;
    Ok((OdhSystem { historian: h }, report))
}

/// WS1-load a TD dataset into a row-store baseline with dimensions.
pub fn load_td_baseline(
    spec: &TdSpec,
    profile: RdbProfile,
    opts: Ws1Options,
) -> Result<(Baseline, Ws1Report)> {
    let meter = ResourceMeter::new(BENCH_CORES);
    let mut sink = JdbcSink::new(profile, td::trade_rel_schema(), meter.clone(), 1000)?;
    let report = run_ws1(&spec.name(), spec.offered_pps(), TradeGen::new(spec), &mut sink, opts)?;
    let engine = SqlEngine::new();
    engine.register(sink.table().clone());
    register_dim(
        &engine,
        &meter,
        td::account_schema(),
        td::accounts(spec),
        &[("idx_ca_id", "ca_id"), ("idx_ca_name", "ca_name")],
    )?;
    register_dim(
        &engine,
        &meter,
        td::customer_schema(),
        td::customers(spec),
        &[("idx_c_id", "c_id")],
    )?;
    Ok((Baseline { profile, engine, meter, op_table: sink.table().clone() }, report))
}

// ------------------------------------------------------------- LD setup --

/// Build an ODH historian prepared for an LD dataset.
pub fn odh_for_ld(spec: &LdSpec, with_dims: bool) -> Result<Arc<Historian>> {
    let h = Arc::new(Historian::builder().servers(2).metered_cores(BENCH_CORES).build()?);
    h.define_schema_type(
        TableConfig::new(ld::observation_schema_type(spec.tags))
            .with_batch_size(512)
            .with_mg_group_size(1000),
    )?;
    for s in 0..spec.sensors {
        h.register_source("observation", SourceId(s), SourceClass::irregular_low())?;
    }
    if with_dims {
        let sensors = h.create_relational_table(ld::linked_sensor_schema());
        sensors.create_index("idx_sensorid", "sensorid")?;
        sensors.create_index("idx_sensorname", "sensorname")?;
        for row in ld::linked_sensors(spec) {
            sensors.insert(&row)?;
        }
    }
    Ok(h)
}

pub fn load_ld_odh(spec: &LdSpec, opts: Ws1Options) -> Result<(OdhSystem, Ws1Report)> {
    let h = odh_for_ld(spec, true)?;
    let mut sink = OdhSink::new(h.clone(), "observation")?;
    let report =
        run_ws1(&spec.name(), spec.offered_pps(), ObservationGen::new(spec), &mut sink, opts)?;
    Ok((OdhSystem { historian: h }, report))
}

pub fn load_ld_baseline(
    spec: &LdSpec,
    profile: RdbProfile,
    opts: Ws1Options,
) -> Result<(Baseline, Ws1Report)> {
    let meter = ResourceMeter::new(BENCH_CORES);
    let mut sink =
        JdbcSink::new(profile, ld::observation_rel_schema(spec.tags), meter.clone(), 1000)?;
    let report =
        run_ws1(&spec.name(), spec.offered_pps(), ObservationGen::new(spec), &mut sink, opts)?;
    let engine = SqlEngine::new();
    engine.register(sink.table().clone());
    register_dim(
        &engine,
        &meter,
        ld::linked_sensor_schema(),
        ld::linked_sensors(spec),
        &[("idx_sensorid", "sensorid"), ("idx_sensorname", "sensorname")],
    )?;
    Ok((Baseline { profile, engine, meter, op_table: sink.table().clone() }, report))
}

fn register_dim(
    engine: &SqlEngine,
    meter: &Arc<ResourceMeter>,
    schema: odh_types::RelSchema,
    rows: Vec<Row>,
    indexes: &[(&str, &str)],
) -> Result<Arc<RelTable>> {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 2048);
    let t = RelTable::create(pool, meter.clone(), schema, RdbProfile::RDB);
    for (name, col) in indexes {
        t.create_index(name, col)?;
    }
    for row in rows {
        t.insert(&row)?;
    }
    engine.register(t.clone());
    Ok(t)
}

/// Dataset metadata for WS2 parameter generation.
pub fn td_meta(spec: &TdSpec) -> DatasetMeta {
    DatasetMeta {
        sources: spec.accounts,
        t0: td::td_epoch().micros(),
        t1: td::td_epoch().micros() + spec.duration.micros(),
    }
}

pub fn ld_meta(spec: &LdSpec) -> DatasetMeta {
    DatasetMeta {
        sources: spec.sensors,
        t0: ld::ld_epoch().micros(),
        t1: ld::ld_epoch().micros() + spec.duration.micros(),
    }
}

// ----------------------------------------------------- parallel ingest --

/// One measured point of the parallel-ingest scaling sweep.
///
/// Three measurements are combined per thread count:
///
/// 1. a **real threaded run** — the record batch partitioned by source
///    across `threads` scoped workers ingesting concurrently — yielding
///    `wall_pps` and the shard-lock contention rate. Wall throughput
///    only reflects the parallelism when the host has ≥ `threads` cores;
///    the contention rate is meaningful regardless and validates that the
///    lock-striped shards keep the slices from serializing;
/// 2. a **per-slice timing run** — the same slices ingested one at a time
///    into a fresh cluster, each timed in isolation so scheduler
///    preemption cannot inflate them. `modeled_pps` divides the point
///    count by the longest slice (the critical path): with slices
///    lock-independent (measurement 1), that is the wall time on a
///    machine with cores ≥ threads, e.g. the paper's 8-core Power PC;
/// 3. a **WAL-attached threaded run** — the same partition ingested into
///    a cluster whose servers log every point through the per-server
///    write-ahead log (group-commit stripes), ending with a full
///    group-commit `sync()` barrier inside the timed region.
///    `wal_overhead_pct` is the throughput the durable path gives up
///    versus measurement 1; the CI durability gate bounds it.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct IngestBenchPoint {
    pub threads: u64,
    pub records: u64,
    pub points: u64,
    pub host_cores: u64,
    pub wall_secs: f64,
    pub wall_pps: f64,
    /// Shard-lock acquisitions during the threaded run.
    pub shard_locks: u64,
    /// Acquisitions that found the shard lock taken.
    pub shard_contended: u64,
    /// shard_contended / shard_locks for the threaded run.
    pub contention_rate: f64,
    /// Longest single slice time from the isolation run (critical path).
    pub slice_max_secs: f64,
    /// Total slice time from the isolation run (the serialized work).
    pub slice_sum_secs: f64,
    /// points / slice_max_secs — throughput with cores ≥ threads.
    pub modeled_pps: f64,
    /// modeled_pps relative to the 1-thread run.
    pub modeled_speedup: f64,
    /// Wall seconds of the WAL-attached run (includes the final sync).
    pub wal_wall_secs: f64,
    /// points / wal_wall_secs for the WAL-attached run.
    pub wal_wall_pps: f64,
    /// The durability tax: median over repetitions of the *paired* ratio
    /// `wal_secs / plain_secs`, expressed as the percentage of throughput
    /// given up. Paired per repetition (the arms run back to back) so a
    /// noisy scheduler phase cancels out of the ratio instead of skewing
    /// one arm.
    pub wal_overhead_pct: f64,
}

/// Build the fig5 ODH topology ready to ingest the TD(1,1) stream: a
/// fresh two-server in-memory cluster with `mg_group_size = 1` so the
/// group-based partition spreads the 1000 accounts across all workers.
/// With `durable` each server also carries a write-ahead log (heap-backed
/// `MemLogDir`, so the delta versus the plain cluster is the WAL code path —
/// frame encode, stripe locking, group commit — not device latency).
fn ingest_bench_cluster(spec: &TdSpec, durable: bool) -> Result<Arc<odh_core::Cluster>> {
    let cluster = if durable {
        odh_core::Cluster::in_memory_durable(2, ResourceMeter::unmetered())?
    } else {
        odh_core::Cluster::in_memory(2, ResourceMeter::unmetered())
    };
    cluster.define_schema_type(
        TableConfig::new(td::trade_schema_type()).with_batch_size(512).with_mg_group_size(1),
    )?;
    for a in 0..spec.accounts {
        cluster.register_source("trade", SourceId(a), SourceClass::irregular_high())?;
    }
    Ok(cluster)
}

/// Median of a sample (sorts in place; midpoint average for even sizes).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One threaded ingest of `buckets` into `cluster`; returns wall seconds.
/// `sync` adds the group-commit barrier inside the timed region (the
/// durable run's acknowledgement point).
fn threaded_ingest(
    cluster: Arc<odh_core::Cluster>,
    buckets: &[Vec<&odh_types::Record>],
    sync: bool,
) -> Result<f64> {
    let writer = odh_core::OdhWriter::new(cluster, "trade")?;
    let wall_start = std::time::Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .iter()
            .map(|bucket| {
                let writer = &writer;
                scope.spawn(move || {
                    for r in bucket {
                        writer.write(r)?;
                    }
                    Ok::<(), odh_types::OdhError>(())
                })
            })
            .collect();
        for h in handles {
            h.join().expect("ingest worker panicked")?;
        }
        Ok::<(), odh_types::OdhError>(())
    })?;
    if sync {
        writer.sync()?;
    }
    writer.flush()?;
    Ok(wall_start.elapsed().as_secs_f64())
}

/// Measure parallel ingest of a TD(1,1) slice at each thread count.
///
/// Records are partitioned exactly as [`odh_core::ParallelWriter`]
/// partitions them (source group modulo thread count — per-source order
/// preserved). See [`IngestBenchPoint`] for what the two runs per thread
/// count measure.
pub fn parallel_ingest_bench(thread_counts: &[usize]) -> Result<Vec<IngestBenchPoint>> {
    let secs: i64 = std::env::var("TD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    let spec = TdSpec::scaled(1, 1, secs);
    let records: Vec<odh_types::Record> = TradeGen::new(&spec).collect();
    let points: u64 = records.iter().map(|r| r.data_points() as u64).sum();
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) as u64;

    // Warm-up: one full throwaway ingest so allocator growth and page
    // faults for the ~40 MB of ingest buffers are paid before anything is
    // timed (the first measured run would otherwise look ~2x slower than
    // the rest and skew every speedup).
    {
        let cluster = ingest_bench_cluster(&spec, false)?;
        let writer = odh_core::OdhWriter::new(cluster, "trade")?;
        writer.write_batch(&records)?;
        writer.flush()?;
    }

    let mut out = Vec::new();
    for &threads in thread_counts {
        let mut buckets: Vec<Vec<&odh_types::Record>> = vec![Vec::new(); threads];
        for r in &records {
            buckets[(r.source.0 % threads as u64) as usize].push(r);
        }

        // Runs 1 and 3 — real threaded ingest, without and with the WAL.
        // The two arms are interleaved and each reports its **median** of
        // five repetitions: interleaving lands a noisy system phase on
        // both arms, and the median (unlike a best-of) is immune to one
        // arm catching a single lucky or unlucky run — important because
        // the two arms are combined into the WAL-overhead *ratio*.
        let mut plain_secs = Vec::new();
        let mut wal_secs = Vec::new();
        let mut rep_ratios = Vec::new();
        let (mut locks, mut contended) = (0u64, 0u64);
        for _rep in 0..5 {
            let cluster = ingest_bench_cluster(&spec, false)?;
            let plain = threaded_ingest(cluster.clone(), &buckets, false)?;
            plain_secs.push(plain);
            (locks, contended) = (0, 0);
            for s in cluster.servers() {
                let snap = s.table("trade")?.concurrency().snapshot();
                locks += snap.shard_locks;
                contended += snap.shard_contended;
            }
            // The WAL arm: same partition, WAL-attached servers, closed by
            // a group-commit sync barrier — what durability costs. The
            // per-rep ratio pairs the two arms inside one noise phase.
            let durable = ingest_bench_cluster(&spec, true)?;
            let wal = threaded_ingest(durable, &buckets, true)?;
            wal_secs.push(wal);
            rep_ratios.push(wal / plain.max(1e-9));
        }
        let wall_secs = median(&mut plain_secs);
        let wal_wall_secs = median(&mut wal_secs);
        let wal_ratio = median(&mut rep_ratios).max(1e-9);

        // Run 2 — each slice timed in isolation (fresh cluster, one slice
        // at a time on the calling thread): the critical path without
        // scheduler preemption inflating individual slices. Best of three
        // repetitions per slice to shed residual noise.
        let mut slice_secs: Vec<f64> = vec![f64::INFINITY; threads];
        for _rep in 0..3 {
            let cluster = ingest_bench_cluster(&spec, false)?;
            let writer = odh_core::OdhWriter::new(cluster, "trade")?;
            for (i, bucket) in buckets.iter().enumerate() {
                let t0 = std::time::Instant::now();
                for r in bucket {
                    writer.write(r)?;
                }
                slice_secs[i] = slice_secs[i].min(t0.elapsed().as_secs_f64());
            }
            writer.flush()?;
        }

        let slice_max = slice_secs.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
        let slice_sum: f64 = slice_secs.iter().sum();
        let wall_pps = points as f64 / wall_secs.max(1e-9);
        let wal_wall_pps = points as f64 / wal_wall_secs.max(1e-9);
        out.push(IngestBenchPoint {
            threads: threads as u64,
            records: records.len() as u64,
            points,
            host_cores,
            wall_secs,
            wall_pps,
            shard_locks: locks,
            shard_contended: contended,
            contention_rate: if locks == 0 { 0.0 } else { contended as f64 / locks as f64 },
            slice_max_secs: slice_max,
            slice_sum_secs: slice_sum,
            modeled_pps: points as f64 / slice_max,
            modeled_speedup: 0.0, // filled in below, relative to the first run
            wal_wall_secs,
            wal_wall_pps,
            wal_overhead_pct: (1.0 - 1.0 / wal_ratio) * 100.0,
        });
    }
    let base = out.first().map(|p| p.modeled_pps).unwrap_or(1.0).max(1e-9);
    for p in &mut out {
        p.modeled_speedup = p.modeled_pps / base;
    }
    Ok(out)
}

/// Table printer for the ingest sweep.
pub fn print_ingest_points(reports: &[IngestBenchPoint]) {
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>9} {:>11} {:>13} {:>9}",
        "threads",
        "points",
        "wall pts/s",
        "modeled pts/s",
        "speedup",
        "contention",
        "wal pts/s",
        "wal tax"
    );
    for p in reports {
        println!(
            "{:>8} {:>12} {:>14.0} {:>14.0} {:>8.2}x {:>10.3}% {:>13.0} {:>8.1}%",
            p.threads,
            p.points,
            p.wall_pps,
            p.modeled_pps,
            p.modeled_speedup,
            p.contention_rate * 100.0,
            p.wal_wall_pps,
            p.wal_overhead_pct
        );
    }
    let cores = reports.first().map(|p| p.host_cores).unwrap_or(1);
    println!(
        "\nhost has {cores} core(s); `modeled pts/s` divides by the longest ingest\n\
         slice timed in isolation (the critical path) — the wall-clock figure on\n\
         a machine with cores >= threads, e.g. the paper's 8-core benchmark host.\n\
         `contention` is the shard-lock blocking rate of the real threaded run,\n\
         validating that the striped slices do not serialize. `wal pts/s` is the\n\
         same run against WAL-attached servers closed by a group-commit sync;\n\
         `wal tax` is the throughput given up for durability (the gate bounds it)."
    );
}

// ----------------------------------------------------------- query path --

/// One measured point of the read-path sweep: a query shape run `repeats`
/// times, with the median wall time and the read-path counter movement of
/// a single representative execution (the last repetition).
///
/// The sweep contrasts three axes:
/// - **summaries vs rows** — the same aggregate answered from seal-time
///   batch summaries (vectorized) versus by decoding every blob and
///   folding rows (row path);
/// - **cold/warm cache** — the decoded-batch cache cleared before every
///   repetition versus left warm from the previous one;
/// - **full/boundary coverage** — a whole-table range (every batch
///   summary-answered) versus one clipping batches at both ends (only the
///   boundary batches pay decode).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct QueryBenchPoint {
    pub op: String,
    pub sources: u64,
    pub points: u64,
    pub repeats: u64,
    pub wall_secs: f64,
    pub qps: f64,
    /// Batches answered from their summary block (last repetition).
    pub summary_answered_batches: u64,
    /// Decode-cache hits / misses (last repetition).
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Blob decode events (last repetition).
    pub blob_decodes: u64,
}

fn clear_decode_caches(h: &Historian, schema: &str) {
    for s in h.cluster().servers() {
        if let Ok(t) = s.table(schema) {
            t.decode_cache().clear();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_query_point(
    h: &Historian,
    schema: &str,
    op: &str,
    sql: &str,
    repeats: usize,
    cold: bool,
    sources: u64,
    points: u64,
) -> Result<QueryBenchPoint> {
    // Warm arm: one throwaway execution so the cache (and allocator) are
    // hot before anything is timed. Cold arm: the cache is cleared inside
    // the timed region's setup instead.
    if cold {
        clear_decode_caches(h, schema);
    } else {
        h.sql(sql)?;
    }
    let mut walls = Vec::with_capacity(repeats);
    let mut delta = odh_core::ExplainStats::default();
    for _ in 0..repeats {
        if cold {
            clear_decode_caches(h, schema);
        }
        let before = h.explain_stats(schema);
        let t0 = std::time::Instant::now();
        let r = h.sql(sql)?;
        walls.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(r.rows.len());
        delta = before.delta(&h.explain_stats(schema));
    }
    let wall_secs = median(&mut walls);
    Ok(QueryBenchPoint {
        op: op.to_string(),
        sources,
        points,
        repeats: repeats as u64,
        wall_secs,
        qps: 1.0 / wall_secs.max(1e-9),
        summary_answered_batches: delta.summary_answered_batches,
        cache_hits: delta.cache_hits,
        cache_misses: delta.cache_misses,
        blob_decodes: delta.blob_decodes,
    })
}

/// Rows per sealed batch in the query-bench historian.
pub const QUERY_BATCH_ROWS: u64 = 128;

/// Build the query-bench historian: `QUERY_SOURCES` irregular sources
/// (default 48) with `QUERY_POINTS` records each (default 1024) across
/// four tags, sealed into 128-point batches on a two-server cluster
/// (eight batches per source, so a clipped range leaves six interior
/// batches summary-answered for every two boundary decodes).
pub fn query_bench_historian() -> Result<(Arc<Historian>, u64, u64)> {
    let sources: u64 =
        std::env::var("QUERY_SOURCES").ok().and_then(|v| v.parse().ok()).unwrap_or(48);
    let per_source: i64 =
        std::env::var("QUERY_POINTS").ok().and_then(|v| v.parse().ok()).unwrap_or(1024);
    let h = Arc::new(Historian::builder().servers(2).metered_cores(BENCH_CORES).build()?);
    h.define_schema_type(
        TableConfig::new(odh_types::SchemaType::new("qb", ["t0", "t1", "t2", "t3"]))
            .with_batch_size(QUERY_BATCH_ROWS as usize),
    )?;
    for s in 0..sources {
        h.register_source("qb", SourceId(s), SourceClass::irregular_high())?;
    }
    let w = h.writer("qb")?;
    for i in 0..per_source {
        for s in 0..sources {
            let x = i as f64;
            w.write(&odh_types::Record::dense(
                SourceId(s),
                odh_types::Timestamp(i * 1_000_000),
                [x, x * 0.5, -x, s as f64],
            ))?;
        }
    }
    w.flush()?;
    Ok((h, sources, (per_source as u64) * sources))
}

/// The read-path sweep behind `results/BENCH_query.json`.
pub fn query_path_bench() -> Result<Vec<QueryBenchPoint>> {
    let (h, sources, points) = query_bench_historian()?;
    let repeats: usize =
        std::env::var("QUERY_REPEATS").ok().and_then(|v| v.parse().ok()).unwrap_or(15);
    let full_agg = "select COUNT(*), SUM(t0), AVG(t1), MIN(t2), MAX(t3) from qb_v";
    // Clips the first and last sealed batch of every source: only those
    // boundary batches pay decode, interior ones answer from summaries.
    let boundary_agg = "select COUNT(*), SUM(t0), AVG(t1) from qb_v \
                        where timestamp between 100000000 and 900000000";
    // A tag predicate (true of every row) keeps summaries out: each
    // batch decodes and runs the filter and aggregate kernels.
    let decoded_agg = "select COUNT(*), SUM(t0), AVG(t1), MIN(t2), MAX(t3) from qb_v \
                       where t3 >= 0";
    let scan = "select t0, t1 from qb_v";
    let run = |op: &str, sql: &str, cold: bool| {
        run_query_point(&h, "qb", op, sql, repeats, cold, sources, points)
    };
    let mut out = Vec::new();
    out.push(run("agg_full_pushdown", full_agg, true)?);
    out.push(run("agg_boundary_pushdown", boundary_agg, true)?);
    // Row-path ablation: vectorized execution (and with it every summary
    // answer) off, so the points measure the tuple-at-a-time fold.
    h.set_vectorized(false);
    out.push(run("agg_full_rowpath_cold", full_agg, true)?);
    out.push(run("agg_full_rowpath_warm", full_agg, false)?);
    h.set_vectorized(true);
    out.push(run("scan_cold", scan, true)?);
    out.push(run("scan_warm", scan, false)?);

    // Vectorized section: the gated pair (same decoded aggregate, warm
    // cache, differing only in vectorized execution) plus the four
    // time-series operator templates from WS2.
    out.push(run("vec_scan_agg", decoded_agg, false)?);
    h.set_vectorized(false);
    out.push(run("row_scan_agg", decoded_agg, false)?);
    h.set_vectorized(true);

    let per_source = (points / sources.max(1)) as i64;
    let meta = DatasetMeta { sources, t0: 0, t1: (per_source - 1).max(1) * 1_000_000 };
    let names =
        OpNames { table: "qb_v".into(), ts: "timestamp".into(), id: "id".into(), tag: "t0".into() };
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(42);
    for (op, tpl) in [
        ("vec_downsample", iotx::ws2::Template::Vq1),
        ("vec_last_point", iotx::ws2::Template::Vq2),
        ("vec_gap_fill", iotx::ws2::Template::Vq3),
        ("vec_asof_join", iotx::ws2::Template::Vq4),
    ] {
        let sql = iotx::ws2::instantiate(tpl, &names, &meta, &mut rng);
        out.push(run(op, &sql, false)?);
    }
    // Downsample whose interval matches the 128-point seal grid: every
    // bucket is covered by whole batches and answers from summaries.
    let aligned = "select time_bucket(128000000, timestamp), COUNT(*), AVG(t0) from qb_v \
                   group by time_bucket(128000000, timestamp)";
    out.push(run("bucket_pushdown_aligned", aligned, true)?);
    Ok(out)
}

/// Shared table printer for the sweep and the gate.
pub fn print_query_points(reports: &[QueryBenchPoint]) {
    println!(
        "{:>24} {:>10} {:>10} {:>9} {:>8} {:>8} {:>8}",
        "op", "wall ms", "qps", "summary", "hits", "misses", "decodes"
    );
    for p in reports {
        println!(
            "{:>24} {:>10.3} {:>10.1} {:>9} {:>8} {:>8} {:>8}",
            p.op,
            p.wall_secs * 1e3,
            p.qps,
            p.summary_answered_batches,
            p.cache_hits,
            p.cache_misses,
            p.blob_decodes
        );
    }
}

// ------------------------------------------------------------ compaction --

/// One query shape measured on the *same* table before and after one
/// compaction pass. Both arms run cold (decode caches cleared per
/// repetition), so the contrast isolates per-batch overhead — B-tree
/// descents, heap fetches, summary consults, blob decodes — which is
/// exactly what fragmentation multiplies and compaction collapses.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CompactBenchOp {
    pub op: String,
    pub frag_wall_secs: f64,
    pub frag_qps: f64,
    pub compact_wall_secs: f64,
    pub compact_qps: f64,
    /// frag_wall / compact_wall — the in-run fragmentation tax.
    pub speedup: f64,
    pub frag_summary_answered: u64,
    pub compact_summary_answered: u64,
    pub frag_blob_decodes: u64,
    pub compact_blob_decodes: u64,
}

/// The fragmentation-vs-compacted sweep behind `results/BENCH_compact.json`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CompactBenchReport {
    pub sources: u64,
    pub points: u64,
    /// Rows per sealed fragment in the fragmented phase.
    pub per_flush: u64,
    /// Sealed batches across the cluster before / after the pass. The
    /// workload is deterministic, so CI gates these exactly.
    pub batches_before: u64,
    pub batches_after: u64,
    pub reduction_factor: f64,
    pub compact_secs: f64,
    pub merged_batches: u64,
    pub produced_batches: u64,
    pub ops: Vec<CompactBenchOp>,
}

fn cluster_batches(h: &Historian, schema: &str) -> u64 {
    h.cluster()
        .servers()
        .iter()
        .filter_map(|s| s.table(schema).ok())
        .map(|t| t.total_batches())
        .sum()
}

/// Build the compaction-bench historian: `COMPACT_SOURCES` regular
/// 1 Hz sources (default 12) with `COMPACT_POINTS` rows each (default
/// 1536), sealed into tiny `COMPACT_FLUSH_EVERY`-row fragments (default 8)
/// by flushing mid-fill — the slow-source fragmentation pattern the
/// compactor exists for (each source ends up with ~192 eight-row batches
/// instead of six full ones).
pub fn compact_bench_historian() -> Result<(Arc<Historian>, u64, u64, u64)> {
    let sources: u64 =
        std::env::var("COMPACT_SOURCES").ok().and_then(|v| v.parse().ok()).unwrap_or(12);
    let per_source: i64 =
        std::env::var("COMPACT_POINTS").ok().and_then(|v| v.parse().ok()).unwrap_or(1536);
    let per_flush: i64 =
        std::env::var("COMPACT_FLUSH_EVERY").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    let h = Arc::new(Historian::builder().servers(2).metered_cores(BENCH_CORES).build()?);
    h.define_schema_type(
        TableConfig::new(odh_types::SchemaType::new("cb", ["t0", "t1"])).with_batch_size(256),
    )?;
    for s in 0..sources {
        h.register_source(
            "cb",
            SourceId(s),
            SourceClass::regular_high(odh_types::Duration::from_secs(1)),
        )?;
    }
    let w = h.writer("cb")?;
    for i in 0..per_source {
        for s in 0..sources {
            let x = i as f64;
            w.write(&odh_types::Record::dense(
                SourceId(s),
                odh_types::Timestamp(i * 1_000_000),
                [x, x * 0.25 - s as f64],
            ))?;
        }
        // The fragmenting flush: seals whatever each source buffered.
        if (i + 1) % per_flush == 0 {
            h.flush()?;
        }
    }
    h.flush()?;
    Ok((h, sources, (per_source as u64) * sources, per_flush as u64))
}

/// Run the fragmentation-vs-compacted sweep: measure each query shape on
/// the fragmented table, run one compaction pass, re-measure on the same
/// (now compacted) table.
pub fn compact_path_bench() -> Result<CompactBenchReport> {
    let (h, sources, points, per_flush) = compact_bench_historian()?;
    let repeats: usize =
        std::env::var("COMPACT_REPEATS").ok().and_then(|v| v.parse().ok()).unwrap_or(9);
    // Bucket width = 1024 s, the compacted batch span: aligned before
    // (tiny batches nest inside buckets) and after (merged batches tile
    // them), so both arms stay summary-answered and the contrast is pure
    // batch count.
    let shapes: [(&str, &str); 3] = [
        ("scan_cold", "select t0, t1 from cb_v"),
        ("agg_pushdown_cold", "select COUNT(*), SUM(t0), AVG(t1) from cb_v"),
        (
            "bucket_aligned_cold",
            "select time_bucket(1024000000, timestamp), COUNT(*), AVG(t0) from cb_v \
             group by time_bucket(1024000000, timestamp)",
        ),
    ];
    let run =
        |op: &str, sql: &str| run_query_point(&h, "cb", op, sql, repeats, true, sources, points);

    let batches_before = cluster_batches(&h, "cb");
    let mut frag = Vec::new();
    for (op, sql) in shapes {
        frag.push(run(op, sql)?);
    }

    let t0 = std::time::Instant::now();
    let pass = h.compact()?;
    let compact_secs = t0.elapsed().as_secs_f64();
    let batches_after = cluster_batches(&h, "cb");

    let mut ops = Vec::new();
    for ((op, sql), f) in shapes.iter().zip(&frag) {
        let c = run(op, sql)?;
        ops.push(CompactBenchOp {
            op: op.to_string(),
            frag_wall_secs: f.wall_secs,
            frag_qps: f.qps,
            compact_wall_secs: c.wall_secs,
            compact_qps: c.qps,
            speedup: f.wall_secs / c.wall_secs.max(1e-9),
            frag_summary_answered: f.summary_answered_batches,
            compact_summary_answered: c.summary_answered_batches,
            frag_blob_decodes: f.blob_decodes,
            compact_blob_decodes: c.blob_decodes,
        });
    }
    Ok(CompactBenchReport {
        sources,
        points,
        per_flush,
        batches_before,
        batches_after,
        reduction_factor: batches_before as f64 / batches_after.max(1) as f64,
        compact_secs,
        merged_batches: pass.merged_batches,
        produced_batches: pass.produced_batches,
        ops,
    })
}

/// Shared table printer for the compaction sweep and its gate.
pub fn print_compact_report(r: &CompactBenchReport) {
    println!(
        "batches: {} -> {} ({:.1}x reduction), pass {:.1} ms \
         ({} merged -> {} produced)",
        r.batches_before,
        r.batches_after,
        r.reduction_factor,
        r.compact_secs * 1e3,
        r.merged_batches,
        r.produced_batches
    );
    println!(
        "{:>22} {:>12} {:>12} {:>8} {:>9} {:>9} {:>8} {:>8}",
        "op", "frag ms", "compact ms", "speedup", "summ(f)", "summ(c)", "dec(f)", "dec(c)"
    );
    for o in &r.ops {
        println!(
            "{:>22} {:>12.3} {:>12.3} {:>7.2}x {:>9} {:>9} {:>8} {:>8}",
            o.op,
            o.frag_wall_secs * 1e3,
            o.compact_wall_secs * 1e3,
            o.speedup,
            o.frag_summary_answered,
            o.compact_summary_answered,
            o.frag_blob_decodes,
            o.compact_blob_decodes
        );
    }
}

// -------------------------------------------------------------- results --

/// Repo-level `results/` directory.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Persist a serializable report as pretty JSON under `results/`;
/// returns the path written.
pub fn save_json<T: serde::Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    save_json_in(&results_dir(), name, value)
}

/// [`save_json`] into `dir`, creating it if needed.
pub fn save_json_in<T: serde::Serialize>(
    dir: &Path,
    name: &str,
    value: &T,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(&path, json)?;
    Ok(path)
}

/// Load `dir/<name>.json` as a `T`. The error names the file.
pub fn load_json_in<T: serde::Deserialize>(
    dir: &Path,
    name: &str,
) -> std::result::Result<T, String> {
    let path = dir.join(format!("{name}.json"));
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&json).map_err(|e| format!("{} does not parse: {e}", path.display()))
}

/// A figure binary's last step: persist its report under `results/` and
/// say where, or exit non-zero when it cannot be written.
pub fn save_or_exit<T: serde::Serialize>(name: &str, value: &T) {
    match save_json(name, value) {
        Ok(path) => println!("saved: {}", path.display()),
        Err(e) => {
            eprintln!("FAIL: could not write results/{name}.json: {e}");
            std::process::exit(1);
        }
    }
}

/// Print a header for a harness binary.
pub fn banner(title: &str, paper_ref: &str) {
    println!("================================================================");
    println!("{title}");
    println!("reproduces: {paper_ref}");
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_types::Duration;

    #[test]
    fn td_round_trip_through_harness() {
        let spec = TdSpec {
            accounts: 30,
            hz_per_account: 20.0,
            duration: Duration::from_secs(2),
            seed: 1,
        };
        let (odh, r) = load_td_odh(&spec, Ws1Options::default()).unwrap();
        assert!(r.points > 0);
        let q = odh
            .historian
            .sql("select COUNT(*) from trade_v tr, account a where a.ca_id = tr.id and a.ca_name = 'acct_3'")
            .unwrap();
        assert!(q.rows[0].get(0).as_i64().unwrap() > 0);
    }

    #[test]
    fn baseline_round_trip_through_harness() {
        let spec = TdSpec {
            accounts: 30,
            hz_per_account: 20.0,
            duration: Duration::from_secs(2),
            seed: 1,
        };
        let (b, r) = load_td_baseline(&spec, RdbProfile::MYSQL, Ws1Options::default()).unwrap();
        assert!(r.points > 0);
        assert_eq!(b.op_table.row_count(), r.records);
        let q = b.engine.query("select COUNT(*) from trade where t_ca_id = 3").unwrap();
        assert!(q.rows[0].get(0).as_i64().unwrap() > 0);
    }

    #[test]
    fn ld_setups_work() {
        let spec = LdSpec {
            sensors: 50,
            mean_interval: Duration::from_secs(5),
            duration: Duration::from_secs(30),
            tags: 15,
            seed: 2,
        };
        let (odh, r1) = load_ld_odh(&spec, Ws1Options::default()).unwrap();
        let (b, r2) = load_ld_baseline(&spec, RdbProfile::RDB, Ws1Options::default()).unwrap();
        assert_eq!(r1.records, r2.records, "same generated stream");
        let q1 = odh.historian.sql("select COUNT(*) from observation_v").unwrap();
        let q2 = b.engine.query("select COUNT(*) from observation").unwrap();
        assert_eq!(q1.rows[0].get(0), q2.rows[0].get(0));
    }
}
