//! Million-source scale harness: registry memory and ingest at high
//! source cardinality.
//!
//! The paper's motivating deployments meter *millions* of sources (smart
//! meters, vehicle fleets) where most sources are low-frequency and the
//! per-source bookkeeping — not the row data — becomes the memory wall.
//! This harness measures what the sharded `SourceRegistry` and the
//! bitmap buffer diet buy at that scale, and feeds `results/
//! BENCH_scale.json` plus `gate scale`:
//!
//! 1. **Cardinality sweep** (`SCALE_SWEEP`, default `10000,100000,
//!    1000000`): for each size, register sources with the Table 1 class
//!    mix (~10% high-frequency, ~90% irregular low-frequency → MG),
//!    touch every source with one warm row, and read resident
//!    bytes/source off the binary's live-byte counting allocator —
//!    metadata plus open buffers, before anything seals. A concurrent
//!    phase then runs WS1-style ingest writers against WS2-style query
//!    readers and reports both throughputs and the registry shard
//!    contention rate.
//! 2. **Legacy emulation**: the same population built in the
//!    pre-registry shapes — five per-source hash maps plus eagerly
//!    allocated `Vec<Option<f64>>` buffer columns — measured with the
//!    same allocator. `diet_ratio` (legacy ÷ current bytes/source) is
//!    the gated ≥3x reduction.
//! 3. **Load shapes**: burst, ramp and diurnal offered-load curves over
//!    a fixed population, tracking peak open-buffer bytes per shape.
//! 4. **Churn**: a TTL-retained table where a block of sources ages out
//!    entirely; compaction must reclaim every registry record
//!    (`pruned_sources`), and the ids must be re-registrable.
//! 5. **Ingest regression arm**: the `BENCH_ingest` thread-1 workload
//!    (TD(1,1) stream, single writer) replayed against a cluster that
//!    also carries `SCALE_TD_SOURCES` (default 100k) registered sources
//!    — the registry must not tax the hot put path. `ingest_vs_baseline`
//!    is the ratio against the committed `BENCH_ingest.json`.

use crate::{median, results_dir, IngestBenchPoint, BENCH_CORES};
use iotx::td::{TdSpec, TradeGen};
use odh_pager::disk::MemDisk;
use odh_pager::pool::BufferPool;
use odh_sim::ResourceMeter;
use odh_storage::{OdhTable, TableConfig, TimeGrain};
use odh_types::{Duration, Result, SchemaType, SourceClass, SourceId, Timestamp};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tags in the scale schema: a station-style source reports one metric
/// per reading, so rows are NULL-dense (1 of 4 slots set).
const TAGS: usize = 4;
/// Warm rows pushed per source before the memory measurement.
const WARM_ROWS: usize = 1;
/// Rows per columnar run in the concurrent ingest phase.
const RUN_ROWS: usize = 4;

/// One cardinality point of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Sources this point was asked to register.
    pub sources: u64,
    /// Sources the registry reports after registration (exact-gated).
    pub registered: u64,
    pub register_secs: f64,
    pub registers_per_sec: f64,
    /// Live heap bytes per source right after registration (registry
    /// records + shard tables, no buffers yet).
    pub registry_bytes_per_source: f64,
    /// Live heap bytes per source after every source buffered
    /// `WARM_ROWS` row(s) — the resident cost of an *active* source.
    pub active_bytes_per_source: f64,
    /// The table's own accounting gauges at the same instant.
    pub gauge_registry_bytes: u64,
    pub gauge_open_buffer_bytes: u64,
    /// Concurrent phase: WS1-style writers…
    pub ingest_rows: u64,
    pub ingest_secs: f64,
    pub ingest_pps: f64,
    /// …against WS2-style readers.
    pub query_ops: u64,
    pub query_qps: f64,
    /// Registry shard-lock tallies across the whole point.
    pub shard_locks: u64,
    pub shard_contended: u64,
    pub contention_rate: f64,
}

/// One offered-load shape over a fixed population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShapeResult {
    pub shape: String,
    pub sources: u64,
    pub rows: u64,
    pub secs: f64,
    pub pps: f64,
    /// Largest open-buffer footprint observed at any tick boundary.
    pub peak_open_buffer_bytes: u64,
}

/// High-cardinality churn through TTL retention.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChurnResult {
    /// Sources whose entire history aged out.
    pub churn_sources: u64,
    /// Registry records compaction reclaimed (exact-gated ==
    /// `churn_sources`).
    pub pruned_sources: u64,
    pub registry_bytes_before: u64,
    pub registry_bytes_after: u64,
    /// Pruned ids successfully registered again.
    pub reregistered: u64,
}

/// `results/BENCH_scale.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBenchReport {
    pub sweep: Vec<ScalePoint>,
    /// Largest sweep cardinality (the committed baseline carries ≥1M).
    pub max_sources: u64,
    /// Resident bytes/source at `max_sources` (allocator-measured).
    pub bytes_per_source: f64,
    /// The same population in the pre-registry shapes (five maps +
    /// eager `Option<f64>` columns), bytes/source.
    pub legacy_bytes_per_source: f64,
    /// Population the legacy emulation was built at.
    pub legacy_sources: u64,
    /// `legacy_bytes_per_source / bytes_per_source` — gated ≥3x.
    pub diet_ratio: f64,
    pub shapes: Vec<ShapeResult>,
    pub churn: ChurnResult,
    /// Registered sources in the ingest regression arm's cluster.
    pub td_sources: u64,
    /// Thread-1 BENCH_ingest workload against that cluster, points/s.
    pub ingest_pps: f64,
    /// Committed `BENCH_ingest.json` thread-1 `wall_pps` (0 if absent).
    pub baseline_ingest_pps: f64,
    /// `ingest_pps / baseline_ingest_pps` — the ±10% acceptance ratio.
    pub ingest_vs_baseline: f64,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `SCALE_SWEEP=10000,100000,1000000` — the cardinality ladder.
fn sweep_sizes() -> Vec<u64> {
    let spec = std::env::var("SCALE_SWEEP").unwrap_or_else(|_| "10000,100000,1000000".into());
    let mut v: Vec<u64> =
        spec.split(',').filter_map(|s| s.trim().parse().ok()).filter(|&n| n > 0).collect();
    if v.is_empty() {
        v = vec![10_000, 100_000, 1_000_000];
    }
    v
}

/// Table 1 class mix: ~5% regular high-frequency (turbine-style), ~5%
/// irregular high-frequency (trade-style), ~90% irregular low-frequency
/// (station-style, MG-ingested).
fn class_for(id: u64) -> SourceClass {
    match id % 20 {
        0 => SourceClass::regular_high(Duration::from_secs(1)),
        1 => SourceClass::irregular_high(),
        _ => SourceClass::irregular_low(),
    }
}

fn is_high(id: u64) -> bool {
    id % 20 < 2
}

/// Which tag a source reports. Low-frequency sources in the same MG
/// group report the same metric (a feeder area meters one quantity), so
/// lazy column allocation leaves the other three columns unallocated.
fn tag_for(id: u64, group_size: u64) -> usize {
    if is_high(id) {
        (id % TAGS as u64) as usize
    } else {
        ((id / group_size) % TAGS as u64) as usize
    }
}

const GROUP_SIZE: u64 = 1000;

fn scale_table() -> Result<Arc<OdhTable>> {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 4096);
    let cfg = TableConfig::new(SchemaType::new("scale", ["t0", "t1", "t2", "t3"]))
        // Larger than one warm pass over an MG group, so the memory
        // measurement sees open buffers, not sealed batches.
        .with_batch_size(2048)
        .with_mg_group_size(GROUP_SIZE);
    Ok(Arc::new(OdhTable::create(pool, ResourceMeter::unmetered(), cfg)?))
}

/// One columnar run for `source`: `rows` readings of its tag.
fn push_run(t: &OdhTable, source: u64, ts0: i64, rows: usize) -> Result<()> {
    let ts: Vec<i64> = (0..rows as i64).map(|r| ts0 + r * 1_000).collect();
    let tag = tag_for(source, GROUP_SIZE);
    let cols: Vec<Vec<Option<f64>>> = (0..TAGS)
        .map(|c| if c == tag { vec![Some(source as f64); rows] } else { vec![None; rows] })
        .collect();
    t.put_cols(SourceId(source), &ts, &cols)
}

/// Run one cardinality point. `live` reads the binary's live-byte
/// counter (allocations minus deallocations).
fn sweep_point(n: u64, live: impl Fn() -> u64) -> Result<ScalePoint> {
    let t = scale_table()?;
    // Base *after* table creation: the buffer pool's fixed frames are
    // not a per-source cost.
    let base = live();

    let reg_start = Instant::now();
    for id in 0..n {
        t.register_source(SourceId(id), class_for(id))?;
    }
    let register_secs = reg_start.elapsed().as_secs_f64();
    let registered = t.source_count() as u64;
    let registry_bytes_per_source = live().saturating_sub(base) as f64 / n as f64;

    // Touch every source: the resident cost of an *active* population.
    for id in 0..n {
        push_run(&t, id, 0, WARM_ROWS)?;
    }
    let active_bytes_per_source = live().saturating_sub(base) as f64 / n as f64;
    t.refresh_memory_gauges();
    let gauge_registry_bytes = t.registry_bytes() as u64;
    let gauge_open_buffer_bytes = t.open_buffer_bytes() as u64;

    // Concurrent WS1 ingest + WS2 queries over the registered
    // population: writers stream columnar runs round-robin across
    // disjoint source stripes while readers aggregate single sources
    // and slice small filtered windows.
    let writers = 4u64;
    let readers = 2u64;
    let ingest_rows = n.clamp(50_000, 2_000_000) / RUN_ROWS as u64 * RUN_ROWS as u64;
    let runs_per_writer = ingest_rows / RUN_ROWS as u64 / writers;
    let stop = AtomicBool::new(false);
    let query_ops = AtomicU64::new(0);
    let ingest_start = Instant::now();
    let mut ingest_secs = 0.0;
    std::thread::scope(|s| -> Result<()> {
        let mut handles = Vec::new();
        for w in 0..writers {
            let t = Arc::clone(&t);
            handles.push(s.spawn(move || -> Result<()> {
                for r in 0..runs_per_writer {
                    // Stride by writer count: stripes stay disjoint.
                    let source = (w + r * writers) % n;
                    let ts0 = 1_000_000 + (r as i64) * RUN_ROWS as i64 * 1_000;
                    push_run(&t, source, ts0, RUN_ROWS)?;
                }
                Ok(())
            }));
        }
        let mut q_handles = Vec::new();
        for q in 0..readers {
            let t = Arc::clone(&t);
            let stop = &stop;
            let query_ops = &query_ops;
            q_handles.push(s.spawn(move || -> Result<()> {
                let mut rng = 0x9E37_79B9u64.wrapping_add(q);
                while !stop.load(Ordering::Relaxed) {
                    rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    // A high-frequency source for the point read…
                    let hi = (rng >> 16) % n / 20 * 20;
                    let one: HashSet<SourceId> = [SourceId(hi)].into_iter().collect();
                    t.scan_columnar(
                        Timestamp(0),
                        Timestamp(i64::MAX),
                        &[tag_for(hi, GROUP_SIZE)],
                        Some(&one),
                        &[],
                        Some(TimeGrain::Whole),
                    )?;
                    // …and a 16-source filtered slice for the window read.
                    let lo = (rng >> 24) % n;
                    let set: HashSet<SourceId> = (lo..lo + 16).map(|i| SourceId(i % n)).collect();
                    t.slice_scan(Timestamp(0), Timestamp(2_000_000), &[0, 1, 2, 3], Some(&set))?;
                    query_ops.fetch_add(2, Ordering::Relaxed);
                }
                Ok(())
            }));
        }
        for h in handles {
            h.join().expect("scale writer panicked")?;
        }
        ingest_secs = ingest_start.elapsed().as_secs_f64();
        stop.store(true, Ordering::Relaxed);
        for h in q_handles {
            h.join().expect("scale reader panicked")?;
        }
        Ok(())
    })?;
    let wall = ingest_start.elapsed().as_secs_f64();
    t.flush()?;

    let locks = t.registry_concurrency();
    let (shard_locks, shard_contended) = (locks.shard_locks.get(), locks.shard_contended.get());
    let query_ops = query_ops.load(Ordering::Relaxed);
    Ok(ScalePoint {
        sources: n,
        registered,
        register_secs,
        registers_per_sec: n as f64 / register_secs.max(1e-9),
        registry_bytes_per_source,
        active_bytes_per_source,
        gauge_registry_bytes,
        gauge_open_buffer_bytes,
        ingest_rows,
        ingest_secs,
        ingest_pps: ingest_rows as f64 / ingest_secs.max(1e-9),
        query_ops,
        query_qps: query_ops as f64 / wall.max(1e-9),
        shard_locks,
        shard_contended,
        contention_rate: if shard_locks == 0 {
            0.0
        } else {
            shard_contended as f64 / shard_locks as f64
        },
    })
}

// ------------------------------------------------------ legacy shapes --

/// The pre-registry `SourceMeta` footprint (class + interval + structure
/// + group), kept field-for-field so the hash-map slot size matches.
struct LegacyMeta {
    _class: u8,
    _interval_us: i64,
    _structure: u8,
    _group: u32,
}

/// The pre-diet buffer: one eagerly reserved `Vec<Option<f64>>` per tag.
struct LegacyBuffer {
    ts: Vec<i64>,
    cols: Vec<Vec<Option<f64>>>,
    _first_lsn: u64,
    _last_lsn: u64,
}

impl LegacyBuffer {
    fn new(tags: usize, capacity: usize) -> LegacyBuffer {
        let cap = capacity.min(64);
        LegacyBuffer {
            ts: Vec::with_capacity(cap),
            // NB: not `vec![Vec::with_capacity(cap); tags]` — cloning an
            // empty Vec drops its reservation, and the whole point is
            // the old layout's eager per-tag allocation.
            cols: (0..tags).map(|_| Vec::with_capacity(cap)).collect(),
            _first_lsn: 0,
            _last_lsn: 0,
        }
    }

    fn push(&mut self, ts: i64, tag: usize, v: f64) {
        self.ts.push(ts);
        for (c, col) in self.cols.iter_mut().enumerate() {
            col.push((c == tag).then_some(v));
        }
    }
}

/// Build the same population in the pre-refactor layout — five
/// per-source global maps plus eager-column buffers — and return live
/// bytes per source. Everything is steady-state populated (sealed marks
/// and watermarks present), matching a table that has been running.
fn legacy_bytes_per_source(n: u64, live: impl Fn() -> u64) -> f64 {
    let base = live();
    let mut sources: HashMap<u64, LegacyMeta> = HashMap::new();
    let mut sealed: HashMap<u64, u64> = HashMap::new();
    let mut watermarks: HashMap<u64, i64> = HashMap::new();
    let mut late_sealed: HashMap<u64, u64> = HashMap::new();
    let mut mg_sealed: HashMap<u32, u64> = HashMap::new();
    let mut buffers: HashMap<u64, LegacyBuffer> = HashMap::new();
    let mut mg_buffers: HashMap<u32, LegacyBuffer> = HashMap::new();

    for id in 0..n {
        let hi = is_high(id);
        sources.insert(
            id,
            LegacyMeta {
                _class: (id % 20) as u8,
                _interval_us: 1_000_000,
                _structure: u8::from(hi),
                _group: (id / GROUP_SIZE) as u32,
            },
        );
        sealed.insert(id, id + 1);
        watermarks.insert(id, id as i64);
        if id % 100 == 0 {
            late_sealed.insert(id, id + 1);
        }
        let tag = tag_for(id, GROUP_SIZE);
        if hi {
            let b = buffers.entry(id).or_insert_with(|| LegacyBuffer::new(TAGS, 2048));
            for r in 0..WARM_ROWS {
                b.push(r as i64 * 1_000, tag, id as f64);
            }
        } else {
            let g = (id / GROUP_SIZE) as u32;
            mg_sealed.insert(g, id + 1);
            let b = mg_buffers.entry(g).or_insert_with(|| LegacyBuffer::new(TAGS, 2048));
            for r in 0..WARM_ROWS {
                b.push(r as i64 * 1_000, tag, id as f64);
            }
        }
    }
    let per_source = live().saturating_sub(base) as f64 / n as f64;
    // Keep every structure alive through the measurement.
    std::hint::black_box((
        &sources,
        &sealed,
        &watermarks,
        &late_sealed,
        &mg_sealed,
        &buffers,
        &mg_buffers,
    ));
    per_source
}

// -------------------------------------------------------- load shapes --

/// Per-tick offered-load weights for the three shapes.
fn shape_weights(shape: &str) -> Vec<f64> {
    let ticks = 20usize;
    match shape {
        // Flat trickle with two 10x spikes.
        "burst" => (0..ticks).map(|t| if t == 6 || t == 13 { 10.0 } else { 1.0 }).collect(),
        // Linear ramp from cold start to full load.
        "ramp" => (0..ticks).map(|t| (t + 1) as f64).collect(),
        // One day-night cycle.
        _ => (0..ticks)
            .map(|t| 1.0 + (std::f64::consts::TAU * t as f64 / ticks as f64).sin().max(-0.9))
            .collect(),
    }
}

fn run_shape(shape: &str, n: u64) -> Result<ShapeResult> {
    let t = scale_table()?;
    for id in 0..n {
        t.register_source(SourceId(id), class_for(id))?;
    }
    let weights = shape_weights(shape);
    let total: f64 = weights.iter().sum();
    let rows_target = n * 2;
    let mut peak = 0u64;
    let mut rows = 0u64;
    let mut next = 0u64;
    let start = Instant::now();
    for w in &weights {
        let tick_rows = (rows_target as f64 * w / total) as u64 / RUN_ROWS as u64;
        for _ in 0..tick_rows {
            push_run(&t, next % n, rows as i64 * 1_000, RUN_ROWS)?;
            next = next.wrapping_add(1);
            rows += RUN_ROWS as u64;
        }
        peak = peak.max(t.open_buffer_bytes() as u64);
    }
    t.flush()?;
    let secs = start.elapsed().as_secs_f64();
    Ok(ShapeResult {
        shape: shape.to_string(),
        sources: n,
        rows,
        secs,
        pps: rows as f64 / secs.max(1e-9),
        peak_open_buffer_bytes: peak,
    })
}

// -------------------------------------------------------------- churn --

/// Age a block of per-source-ingested sources past the retention floor
/// and verify compaction reclaims their registry records.
fn run_churn(churn_n: u64) -> Result<ChurnResult> {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 4096);
    let cfg = TableConfig::new(SchemaType::new("churn", ["t0", "t1", "t2", "t3"]))
        .with_batch_size(256)
        .with_mg_group_size(GROUP_SIZE)
        .with_retention_ttl(Duration::from_secs(100));
    let t = Arc::new(OdhTable::create(pool, ResourceMeter::unmetered(), cfg)?);

    // The churn block: irregular high-frequency (per-source IRTS ingest,
    // prunable). Ids offset so they never collide with the anchor.
    for id in 0..churn_n {
        t.register_source(SourceId(1_000_000 + id), SourceClass::irregular_high())?;
    }
    for id in 0..churn_n {
        push_run(&t, 1_000_000 + id, 0, 2)?;
    }
    t.flush()?;
    t.refresh_memory_gauges();
    let registry_bytes_before = t.registry_bytes() as u64;

    // An anchor source far in the future drags the floor past the block.
    t.register_source(SourceId(0), SourceClass::irregular_high())?;
    push_run(&t, 0, 1_000_000 * 1_000_000, 2)?;
    t.flush()?;
    let report = t.compact()?;
    t.refresh_memory_gauges();
    let registry_bytes_after = t.registry_bytes() as u64;

    // Pruned ids are immediately reusable.
    let mut reregistered = 0u64;
    for id in 0..10.min(churn_n) {
        if t.register_source(SourceId(1_000_000 + id), SourceClass::irregular_low()).is_ok() {
            reregistered += 1;
        }
    }
    Ok(ChurnResult {
        churn_sources: churn_n,
        pruned_sources: report.pruned_sources,
        registry_bytes_before,
        registry_bytes_after,
        reregistered,
    })
}

// --------------------------------------------------------- ingest arm --

/// Thread-1 `BENCH_ingest` workload against a cluster carrying
/// `td_sources` registered sources: the TD(1,1) stream through
/// `OdhWriter::write`, median of five runs.
fn td_ingest_arm(td_sources: u64) -> Result<f64> {
    let secs: i64 = std::env::var("TD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(2);
    let spec = TdSpec::scaled(1, 1, secs);
    let records: Vec<odh_types::Record> = TradeGen::new(&spec).collect();
    let points: u64 = records.iter().map(|r| r.data_points() as u64).sum();
    let sources = td_sources.max(spec.accounts);

    let build = || -> Result<Arc<odh_core::Cluster>> {
        let cluster = odh_core::Cluster::in_memory(2, ResourceMeter::unmetered());
        cluster.define_schema_type(
            TableConfig::new(iotx::td::trade_schema_type())
                .with_batch_size(512)
                .with_mg_group_size(1),
        )?;
        for a in 0..sources {
            cluster.register_source("trade", SourceId(a), SourceClass::irregular_high())?;
        }
        Ok(cluster)
    };

    // Warm-up run pays allocator growth before anything is timed.
    {
        let writer = odh_core::OdhWriter::new(build()?, "trade")?;
        writer.write_batch(&records)?;
        writer.flush()?;
    }
    let mut samples = Vec::new();
    for _ in 0..5 {
        let writer = odh_core::OdhWriter::new(build()?, "trade")?;
        let start = Instant::now();
        for r in &records {
            writer.write(r)?;
        }
        writer.flush()?;
        samples.push(points as f64 / start.elapsed().as_secs_f64().max(1e-9));
    }
    Ok(median(&mut samples))
}

/// Committed `BENCH_ingest.json` thread-1 `wall_pps`, or 0 when absent.
fn ingest_baseline_pps() -> f64 {
    let path = results_dir().join("BENCH_ingest.json");
    let Ok(json) = std::fs::read_to_string(&path) else { return 0.0 };
    let Ok(points) = serde_json::from_str::<Vec<IngestBenchPoint>>(&json) else { return 0.0 };
    points.iter().find(|p| p.threads == 1).map(|p| p.wall_pps).unwrap_or(0.0)
}

// ------------------------------------------------------------- driver --

/// Run the full harness. `live` reads the binary's live-byte counter.
pub fn scale_bench(live: impl Fn() -> u64 + Copy) -> Result<ScaleBenchReport> {
    let sizes = sweep_sizes();
    let max_sources = *sizes.iter().max().unwrap();

    let mut sweep = Vec::new();
    for &n in &sizes {
        println!("  sweep: {n} sources…");
        sweep.push(sweep_point(n, live)?);
    }
    let bytes_per_source =
        sweep.last().map(|p: &ScalePoint| p.active_bytes_per_source).unwrap_or(0.0);

    let legacy_sources = env_u64("SCALE_LEGACY_SOURCES", 100_000).min(max_sources);
    println!("  legacy emulation: {legacy_sources} sources…");
    let legacy = legacy_bytes_per_source(legacy_sources, live);

    let shape_n = env_u64("SCALE_SHAPE_SOURCES", 100_000).min(max_sources);
    let mut shapes = Vec::new();
    for shape in ["burst", "ramp", "diurnal"] {
        println!("  load shape: {shape} over {shape_n} sources…");
        shapes.push(run_shape(shape, shape_n)?);
    }

    let churn_n = env_u64("SCALE_CHURN_SOURCES", 50_000).min(max_sources);
    println!("  churn: {churn_n} sources through TTL retention…");
    let churn = run_churn(churn_n)?;

    let td_sources = env_u64("SCALE_TD_SOURCES", 100_000);
    println!("  ingest regression arm: TD(1,1) against {td_sources} registered sources…");
    let ingest_pps = td_ingest_arm(td_sources)?;
    let baseline_ingest_pps = ingest_baseline_pps();

    Ok(ScaleBenchReport {
        sweep,
        max_sources,
        bytes_per_source,
        legacy_bytes_per_source: legacy,
        legacy_sources,
        diet_ratio: legacy / bytes_per_source.max(1e-9),
        shapes,
        churn,
        td_sources,
        ingest_pps,
        baseline_ingest_pps,
        ingest_vs_baseline: if baseline_ingest_pps > 0.0 {
            ingest_pps / baseline_ingest_pps
        } else {
            0.0
        },
    })
}

/// Pretty-print a report.
pub fn print_scale_report(r: &ScaleBenchReport) {
    println!(
        "{:>10} {:>12} {:>11} {:>11} {:>12} {:>12} {:>11}",
        "sources", "reg/s", "B/src reg", "B/src act", "ingest pps", "query qps", "contention"
    );
    for p in &r.sweep {
        println!(
            "{:>10} {:>12.0} {:>11.1} {:>11.1} {:>12.0} {:>12.1} {:>10.4}%",
            p.sources,
            p.registers_per_sec,
            p.registry_bytes_per_source,
            p.active_bytes_per_source,
            p.ingest_pps,
            p.query_qps,
            p.contention_rate * 100.0,
        );
    }
    println!(
        "\nmemory diet: {:.1} B/src now vs {:.1} B/src legacy ({} srcs) → {:.2}x",
        r.bytes_per_source, r.legacy_bytes_per_source, r.legacy_sources, r.diet_ratio
    );
    for s in &r.shapes {
        println!(
            "shape {:>8}: {} rows in {:.2}s ({:.0} pps), peak open buffers {} B",
            s.shape, s.rows, s.secs, s.pps, s.peak_open_buffer_bytes
        );
    }
    println!(
        "churn: {} aged out, {} pruned, registry {} → {} B, {} re-registered",
        r.churn.churn_sources,
        r.churn.pruned_sources,
        r.churn.registry_bytes_before,
        r.churn.registry_bytes_after,
        r.churn.reregistered
    );
    println!(
        "ingest arm: {:.0} pps with {} registered sources (baseline {:.0}, ratio {:.3}) \
         [{} modeled cores]",
        r.ingest_pps, r.td_sources, r.baseline_ingest_pps, r.ingest_vs_baseline, BENCH_CORES
    );
}
