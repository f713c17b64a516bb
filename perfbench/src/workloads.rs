//! The three workloads. Each runs setup → ingest → maintenance → query
//! (live_mixed overlaps ingest and query), reads the registry between
//! phases, and checks every answer it samples against the oracle outside
//! the timed sections.

use crate::gen::{self, History, HistorySpec, Live, LiveSpec, Rng, TableData, Tbl};
use crate::oracle::{canon, compare, Cell, Expected, World, Q, TEMPLATES};
use crate::stats::{median, peak_rss_mb, percentile, ratio, Acct, Deltas, Snap};
use crate::trace::{self_times, SpanRec, Tracer};
use odh_core::{Historian, MemoryFootprint};
use odh_net::{frame, NetClient, NetServer, NetServerConfig};
use odh_storage::{CompactReport, TableConfig};
use odh_types::{Record, Result, SchemaType, SourceClass, SourceId, Timestamp};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::time::{Duration, Instant};

pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub acct: Acct,
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    pub layers: Vec<(String, f64, &'static str)>,
    /// Time spent in measured calls (ingest, maintenance, queries; planning
    /// excluded), the base of the tracing overhead.
    pub work_s: f64,
    pub spans: Vec<SpanRec>,
    /// One EXPLAIN ANALYZE per template, from traced runs.
    pub explains: Vec<(String, String)>,
}

pub fn build_historian() -> Result<Historian> {
    let h = Historian::builder().durable(true).build()?;
    h.define_schema_type(TableConfig::new(SchemaType::new("trade", gen::TRADE_TAGS)))?;
    h.define_schema_type(TableConfig::new(SchemaType::new("observation", gen::OBS_TAGS)))?;
    Ok(h)
}

/// Register `trade` sources (the first `regular` of them regular at
/// `tick_us`) and `observation` stations (MG).
pub fn register(
    h: &Historian,
    trade: usize,
    regular: usize,
    tick_us: i64,
    obs: usize,
    tr: &mut Tracer,
) -> Result<()> {
    for a in 0..trade {
        let class = if a < regular {
            SourceClass::regular_high(odh_types::Duration::from_micros(tick_us))
        } else {
            SourceClass::irregular_high()
        };
        tr.span("register_source", "trade", || {
            h.register_source("trade", SourceId(a as u64), class)
        })?;
    }
    for s in 0..obs as u64 {
        tr.span("register_source", "observation", || {
            h.register_source("observation", SourceId(s), SourceClass::irregular_low())
        })?;
    }
    Ok(())
}

pub fn register_history(h: &Historian, hist: &History, tr: &mut Tracer) -> Result<()> {
    register(h, hist.trade.sources(), 0, 0, hist.obs.sources(), tr)
}

pub fn load_dims(h: &Historian, dims: &gen::Dims) -> Result<()> {
    let customer = h.create_relational_table(iotx::td::customer_schema());
    customer.create_index("idx_c_id", "c_id")?;
    for r in &dims.customers {
        customer.insert(r)?;
    }
    let account = h.create_relational_table(iotx::td::account_schema());
    account.create_index("idx_ca_id", "ca_id")?;
    account.create_index("idx_ca_name", "ca_name")?;
    for r in &dims.accounts {
        account.insert(r)?;
    }
    let sensors = h.create_relational_table(iotx::ld::linked_sensor_schema());
    sensors.create_index("idx_sensorid", "sensorid")?;
    sensors.create_index("idx_sensorname", "sensorname")?;
    for r in &dims.sensors {
        sensors.insert(r)?;
    }
    Ok(())
}

struct Maint {
    secs: f64,
    moved: u64,
    compact: CompactReport,
}

/// flush → reorganize (MG → RTS/IRTS) → compact → checkpoint.
fn maintenance(h: &Historian, tr: &mut Tracer, acct: &mut Acct) -> Maint {
    let t = Instant::now();
    tr.begin("maintenance", "");
    acct.op("flush", tr.span("flush", "", || h.flush()));
    let moved = acct.op("reorganize", tr.span("reorganize", "", || h.reorganize())).unwrap_or(0);
    let compact = acct.op("compact", tr.span("compact", "", || h.compact())).unwrap_or_default();
    acct.op("checkpoint", tr.span("checkpoint", "", || h.checkpoint()));
    tr.end();
    Maint { secs: t.elapsed().as_secs_f64(), moved, compact }
}

#[derive(Default)]
struct QueryStats {
    lat_ms: Vec<f64>,
    per_tpl: BTreeMap<&'static str, Vec<f64>>,
    points: u64,
    busy_s: f64,
}

impl QueryStats {
    fn absorb(&mut self, o: QueryStats) {
        self.lat_ms.extend(o.lat_ms);
        for (k, v) in o.per_tpl {
            self.per_tpl.entry(k).or_default().extend(v);
        }
        self.points += o.points;
        self.busy_s += o.busy_s;
    }

    fn note(&mut self, tpl: &'static str, secs: f64, points: u64) {
        self.busy_s += secs;
        self.lat_ms.push(secs * 1e3);
        self.per_tpl.entry(tpl).or_default().push(secs * 1e3);
        self.points += points;
    }
}

/// Closed loop over whole rounds of pre-generated queries, starting at round
/// `*round`, until `budget_s` of query time is spent. Round `r`'s query `i`
/// is checked when `check(r, i)`; the read-back aggregates repeat, so their
/// expected answers are cached in `cache`.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    h: &Historian,
    rounds: &[Vec<(Q, String)>],
    round: &mut usize,
    budget_s: f64,
    world: &World,
    check: &dyn Fn(usize, usize) -> bool,
    cache: &mut HashMap<String, Expected>,
    tr: &mut Tracer,
    acct: &mut Acct,
    qs: &mut QueryStats,
) {
    let spent = qs.busy_s;
    tr.begin("query", "");
    loop {
        let r = *round;
        for (i, (q, sql)) in rounds[r % rounds.len()].iter().enumerate() {
            let tpl = q.template();
            if tr.on() {
                let _ = tr.span("explain", tpl, || h.explain(sql));
            }
            let t = Instant::now();
            let res = tr.span("sql", tpl, || h.sql(sql));
            let secs = t.elapsed().as_secs_f64();
            let Some(res) = acct.op("queries", res) else { continue };
            qs.note(tpl, secs, res.data_points());
            if check(r, i) {
                let got = canon(&res.rows);
                let fresh;
                let exp = if matches!(q, Q::Agg { .. }) {
                    cache.entry(sql.clone()).or_insert_with(|| world.expect(q, i64::MAX))
                } else {
                    fresh = world.expect(q, i64::MAX);
                    &fresh
                };
                acct.check(sql, compare(exp, &got));
            }
        }
        *round += 1;
        if qs.busy_s - spent >= budget_s {
            break;
        }
    }
    tr.end();
}

/// Everything the per-layer report reads.
struct LayerInputs<'a> {
    /// Registry movement over the ingest (live) phases.
    ingest: &'a Deltas,
    /// Registry movement over the query phases.
    query: &'a Deltas,
    /// Registry movement from the end of set-up to the end of each load.
    run: &'a Deltas,
    /// Points ingested over the run.
    points: u64,
    writer_calls: u64,
    qs: &'a QueryStats,
    mem: MemoryFootprint,
    storage_bytes: u64,
    maint: &'a Maint,
    lag_ms_max: f64,
    spans: &'a [SpanRec],
}

fn layers(li: &LayerInputs) -> Vec<(String, f64, &'static str)> {
    let st = self_times(li.spans);
    let span_s =
        |names: &[&str]| -> f64 { names.iter().map(|n| st.get(n).map_or(0.0, |e| e.2)).sum() };
    let per_call = |n: &str| st.get(n).map_or(0.0, |e| ratio(e.2, e.0 as f64));
    let di = |n: &str| li.ingest.get(n);
    let dq = |n: &str| li.query.get(n);
    let dr = |n: &str| li.run.get(n);
    let points = li.points as f64;
    let queries = li.qs.lat_ms.len() as f64;
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_string(), v, unit));

    put("net.send_wait_s", span_s(&["send_encoded"]), "s");
    put("net.decode_s", di("odh_net_frame_decode_us_sum") / 1e6, "s");
    put(
        "net.bytes_per_row",
        ratio(di("odh_net_bytes_read_total"), di("odh_net_rows_total")),
        "B/row",
    );
    put("net.frames", di("odh_net_frames_total"), "count");
    put("net.ack_wait_s", span_s(&["wait_all_acked", "finish"]), "s");
    put("net.commit_rounds", di("odh_net_commits_total"), "count");
    put("net.rows_per_ack", ratio(di("odh_net_rows_total"), di("odh_net_acks_total")), "rows");
    put("net.backpressure_events", di("odh_net_backpressure_events_total"), "count");

    put("writer.write_cols_s", span_s(&["write_cols"]), "s");
    put("writer.sync_s", span_s(&["sync"]), "s");
    put("writer.calls", li.writer_calls as f64, "count");

    put("ingest.points", di("odh_table_points_ingested_total"), "count");
    put("ingest.shard_locks", di("odh_concurrency_shard_locks_total"), "count");
    put("ingest.shard_contended", di("odh_concurrency_shard_contended_total"), "count");
    put("ingest.shard_acquire_s", di("odh_ingest_shard_acquire_seconds_sum"), "s");

    put("wal.appends", di("odh_wal_appends_total"), "count");
    put("wal.bytes_per_point", ratio(di("odh_wal_bytes_total"), points), "B/point");
    put("wal.append_s", di("odh_wal_append_seconds_sum"), "s");
    put("wal.group_commits", di("odh_wal_group_commits_total"), "count");
    put("wal.syncs", di("odh_wal_syncs_total"), "count");

    put("seal.batches", di("odh_table_batches_written_total"), "count");
    put("seal.s", di("odh_seal_seconds_sum"), "s");
    put("seal.inline_fallbacks", di("odh_seal_queue_fallback_total"), "count");
    put("seal.queue_wait_s", di("odh_seal_queue_wait_seconds_sum"), "s");

    let (raw, blob) = (dr("odh_table_raw_bytes_total"), dr("odh_table_blob_bytes_total"));
    put("compress.raw_bytes", raw, "B");
    put("compress.blob_bytes", blob, "B");
    put("compress.ratio", ratio(raw, blob), "ratio");

    let (hits, misses) = (dq("odh_table_cache_hits_total"), dq("odh_table_cache_misses_total"));
    put("read.summary_answered_batches", dq("odh_table_summary_answered_batches_total"), "count");
    put("read.zone_pruned_batches", dq("odh_table_batches_zone_pruned_total"), "count");
    put("read.cache_hits", hits, "count");
    put("read.cache_misses", misses, "count");
    put("read.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    put("read.blob_decodes", dq("odh_table_blob_decodes_total"), "count");
    put("read.decodes_per_query", ratio(dq("odh_table_blob_decodes_total"), queries), "count");
    put(
        "read.points_scanned_per_returned",
        ratio(dq("odh_table_points_scanned_total"), li.qs.points as f64),
        "ratio",
    );

    put("sql.plan_s", span_s(&["explain"]), "s");
    put("sql.exec_s", dq("odh_sql_exec_seconds_sum"), "s");
    put("sql.vectorized_queries", dq("odh_sql_vectorized_queries_total"), "count");
    put("sql.vectorized_rows", dq("odh_sql_vectorized_rows_total"), "count");
    for tpl in TEMPLATES {
        let v = li.qs.per_tpl.get(tpl).map_or(0.0, |l| median(l));
        put(&format!("query.{tpl}.p50_ms"), v, "ms");
    }

    put("maint.flush_s", per_call("flush"), "s");
    put("maint.reorg_s", per_call("reorganize"), "s");
    put("maint.compact_s", per_call("compact"), "s");
    put("maint.checkpoint_s", per_call("checkpoint"), "s");
    put("reorg.points_moved", li.maint.moved as f64, "count");
    put("compact.merged_batches", li.maint.compact.merged_batches as f64, "count");
    put("compact.batches_after", li.maint.compact.batches_after as f64, "count");

    let (lr, hits) = (dr("odh_pool_logical_reads_total"), dr("odh_pool_hits_total"));
    put("pool.logical_reads", lr, "count");
    put("pool.physical_reads", dr("odh_pool_physical_reads_total"), "count");
    put("pool.physical_writes", dr("odh_pool_physical_writes_total"), "count");
    put("pool.hit_ratio", ratio(hits, lr), "ratio");

    put("setup.register_s", span_s(&["register_source"]), "s");
    put("setup.dims_s", span_s(&["load_dims"]), "s");
    put("mem.source_registry_bytes", li.mem.source_registry_bytes as f64, "B");
    put("mem.open_buffer_bytes", li.mem.open_buffer_bytes as f64, "B");
    put("mem.storage_bytes", li.storage_bytes as f64, "B");
    put("gen.lag_ms_max", li.lag_ms_max, "ms");
    out
}

/// Counter checks every workload makes: acked rows and points must equal
/// what was sent and what the oracle counts.
fn check_ingest_counters(acct: &mut Acct, before: &Snap, after: &Snap, tables: &[&TableData]) {
    let tot = crate::oracle::totals(tables);
    let rows = before.delta(after, "odh_table_records_ingested_total") as u64;
    let points = before.delta(after, "odh_table_points_ingested_total") as u64;
    acct.check(
        "odh_table_records_ingested_total",
        (rows == tot.rows).then_some(()).ok_or(format!("ingested {rows} rows, sent {}", tot.rows)),
    );
    acct.check(
        "odh_table_points_ingested_total",
        (points == tot.points)
            .then_some(())
            .ok_or(format!("ingested {points} points, oracle counts {}", tot.points)),
    );
    let late = after.get("odh_ooo_side_rows_total");
    acct.check(
        "odh_ooo_side_rows_total",
        (late == 0.0).then_some(()).ok_or(format!("{late} rows routed as late arrivals")),
    );
}

/// One repetition's (or live segment's) end-to-end figures. A run reports
/// the median of each over its parts, so one part disturbed by the host
/// does not move the run's figure.
#[derive(Clone, Copy, Default)]
struct Part {
    ingest_pps: f64,
    write_p50: f64,
    maint_s: f64,
    query_pps: f64,
    query_p50: f64,
    query_p90: f64,
}

impl Part {
    fn writes(&mut self, lat_ms: &[f64]) {
        self.write_p50 = percentile(lat_ms, 0.50);
    }

    fn queries(&mut self, qs: &QueryStats) {
        self.query_pps = ratio(qs.points as f64, qs.busy_s);
        self.query_p50 = percentile(&qs.lat_ms, 0.50);
        self.query_p90 = percentile(&qs.lat_ms, 0.90);
    }
}

/// The end-to-end metrics, in a fixed order. The write tail (p95, p99) is
/// logged by [`note_samples`] but not reported: on a shared two-core host
/// its run-to-run spread is too wide to gate on.
fn e2e(parts: &[Part], setups: &[f64], bpp: f64) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: fn(&Part) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
    vec![
        ("setup_s", median(setups), "s"),
        ("ingest_points_per_s", med(|p| p.ingest_pps), "points/s"),
        ("write_p50_ms", med(|p| p.write_p50), "ms"),
        ("maintenance_s", med(|p| p.maint_s), "s"),
        ("bytes_per_point", bpp, "B"),
        ("query_points_per_s", med(|p| p.query_pps), "points/s"),
        ("query_p50_ms", med(|p| p.query_p50), "ms"),
        ("query_p90_ms", med(|p| p.query_p90), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// Samples behind each part's percentiles, and the pooled write tail, for
/// the run log.
fn note_samples(parts: usize, writes: &[f64], qs: &QueryStats) {
    eprintln!(
        "perfbench: {parts} parts, {} write samples (pooled p50 {:.4} p90 {:.4} p95 {:.4} p99 {:.4} ms), \
         {} queries, {} points returned",
        writes.len(),
        percentile(writes, 0.50),
        percentile(writes, 0.90),
        percentile(writes, 0.95),
        percentile(writes, 0.99),
        qs.lat_ms.len(),
        qs.points
    );
}

/// One EXPLAIN ANALYZE per template seen, for the traced report.
fn explain_each(h: &Historian, rounds: &[Vec<(Q, String)>]) -> Vec<(String, String)> {
    let mut seen = BTreeMap::new();
    for (q, sql) in rounds.iter().flatten() {
        seen.entry(q.template()).or_insert_with(|| sql.clone());
    }
    seen.into_iter()
        .map(|(tpl, sql)| {
            let plan = h.explain_analyze(&sql).unwrap_or_else(|e| format!("error: {e}"));
            (tpl.to_string(), format!("{sql}\n{plan}"))
        })
        .collect()
}

// --------------------------------------------------------- wire_ingest --

/// Set-ups per run, and repetitions of the batch workloads' whole pipeline.
/// Each repetition sets up a fresh historian, loads the same inputs,
/// maintains it and runs its share of the query rounds, so every metric
/// samples the whole run while no more than one historian is held.
const REPS: usize = 5;

/// Set-ups per repetition. One set-up takes 45–130 ms, short enough for
/// host jitter to move a single sample by a fifth, so before each
/// repetition's own set-up the run sets up `SETUPS - 1` more historians,
/// times them and tears them down; `setup_s` is the median of all
/// `SETUPS × REPS` samples.
const SETUPS: usize = 4;

/// The spare set-ups of one repetition, untraced, each torn down at once.
fn spare_setups<S>(
    setup: &mut impl FnMut(&mut Tracer) -> Result<S>,
    teardown: fn(S),
    acct: &mut Acct,
    samples: &mut Vec<f64>,
) -> Option<()> {
    for _ in 1..SETUPS {
        let t = Instant::now();
        let r = setup(&mut Tracer::new(false, t));
        samples.push(t.elapsed().as_secs_f64());
        teardown(acct.op("setup", r)?);
    }
    Some(())
}

/// One load's measurements.
struct Load {
    secs: f64,
    lat_ms: Vec<f64>,
    writer_calls: u64,
}

/// The repetitions' measurements, pooled.
#[derive(Default)]
struct Pooled {
    parts: Vec<Part>,
    setups: Vec<f64>,
    writes: Vec<f64>,
    qs: QueryStats,
    ingest: Deltas,
    query: Deltas,
    run: Deltas,
    writer_calls: u64,
    /// Of the last repetition.
    mem: MemoryFootprint,
    storage_bytes: u64,
    maint: Option<Maint>,
    explains: Vec<(String, String)>,
}

/// The pipeline a batch workload repeats.
struct Pipeline<'a, S> {
    tables: &'a [&'a TableData],
    world: &'a World<'a>,
    rounds: &'a [Vec<(Q, String)>],
    check: &'a dyn Fn(usize, usize) -> bool,
    hist_of: fn(&S) -> &Historian,
    teardown: fn(S),
    groups: usize,
}

impl<S> Pipeline<'_, S> {
    fn run(
        &self,
        cfg: &Config,
        tr: &mut Tracer,
        acct: &mut Acct,
        mut setup: impl FnMut(&mut Tracer) -> Result<S>,
        mut ingest: impl FnMut(&mut S, &mut Tracer, &mut Acct) -> Load,
    ) -> Option<Pooled> {
        let tot = crate::oracle::totals(self.tables);
        let points = tot.points as f64;
        eprintln!(
            "perfbench: inputs per load: {} rows, {} points, {} commit groups or frames",
            tot.rows, tot.points, self.groups
        );
        let mut p = Pooled::default();
        let mut cache = HashMap::new();
        let mut round = 0;
        for rep in 0..REPS {
            let mut part = Part::default();
            spare_setups(&mut setup, self.teardown, acct, &mut p.setups)?;
            let t = Instant::now();
            tr.begin("setup", "");
            let r = setup(tr);
            tr.end();
            p.setups.push(t.elapsed().as_secs_f64());
            let mut state = acct.op("setup", r)?;
            let s_setup = Snap::take((self.hist_of)(&state));
            tr.begin("ingest", "");
            let load = ingest(&mut state, tr, acct);
            tr.end();
            let h = (self.hist_of)(&state);
            p.mem = h.memory_footprint();
            let s_ingest = Snap::take(h);
            check_ingest_counters(acct, &s_setup, &s_ingest, self.tables);
            p.ingest.add(&s_setup, &s_ingest);
            part.ingest_pps = ratio(points, load.secs);
            part.writes(&load.lat_ms);
            p.writes.extend(load.lat_ms);
            p.writer_calls += load.writer_calls;
            let maint = maintenance(h, tr, acct);
            part.maint_s = maint.secs;
            p.maint = Some(maint);
            p.storage_bytes = h.storage_bytes();
            let s_maint = Snap::take(h);
            let budget = cfg.seconds * QUERY_SHARE / REPS as f64;
            let mut qs = QueryStats::default();
            closed_loop(
                h,
                self.rounds,
                &mut round,
                budget,
                self.world,
                self.check,
                &mut cache,
                tr,
                acct,
                &mut qs,
            );
            part.queries(&qs);
            p.qs.absorb(qs);
            p.parts.push(part);
            let s_query = Snap::take(h);
            p.query.add(&s_maint, &s_query);
            p.run.add(&s_setup, &s_query);
            if rep + 1 == REPS {
                final_checks(h, self.world, acct);
                if cfg.trace {
                    p.explains = explain_each(h, self.rounds);
                }
            }
        }
        Some(p)
    }
}

/// Share of `--seconds` the batch workloads spend in queries.
const QUERY_SHARE: f64 = 0.8;

/// The end-to-end metrics, per-layer metrics and tracing base of a pooled
/// batch workload.
fn pooled_outcome(mut acct: Acct, p: Pooled, tables: &[&TableData], tr: Tracer) -> Outcome {
    let points = crate::oracle::totals(tables).points;
    let bpp = ratio(p.storage_bytes as f64, points as f64);
    note_samples(p.parts.len(), &p.writes, &p.qs);
    let e2e = e2e(&p.parts, &p.setups, bpp);
    let Some(maint) = p.maint.as_ref() else {
        acct.check("pipeline", Err("no repetition completed".into()));
        return failed_outcome(acct);
    };
    let layers = layers(&LayerInputs {
        ingest: &p.ingest,
        query: &p.query,
        run: &p.run,
        points: points * REPS as u64,
        writer_calls: p.writer_calls,
        qs: &p.qs,
        mem: p.mem,
        storage_bytes: p.storage_bytes,
        maint,
        lag_ms_max: 0.0,
        spans: &tr.spans,
    });
    let work_s: f64 =
        p.parts.iter().map(|x| ratio(points as f64, x.ingest_pps) + x.maint_s).sum::<f64>()
            + p.qs.busy_s;
    Outcome { acct, e2e, layers, work_s, spans: tr.spans, explains: p.explains }
}

/// TD and LD histories streamed over two wire sessions; per-source
/// read-back afterwards.
pub fn wire_ingest(cfg: &Config) -> Outcome {
    let mut rng = Rng::new(cfg.seed);
    let spec = HistorySpec {
        accounts: 256,
        trade_rows_per_round: 64,
        trade_interval_us: 50_000,
        trade_group_rows: 512,
        sensors: 4096,
        obs_group_rows: 512,
        rounds: 48,
    };
    let hist = gen::history(&spec, &mut rng);
    // Pre-encoded BATCH frames per session, seq 1.. in send order.
    let mut frames: [Vec<(Vec<u8>, u64)>; 2] = [Vec::new(), Vec::new()];
    for g in &hist.groups {
        let tbl = g[0].0;
        let data = match tbl {
            Tbl::Trade => &hist.trade,
            Tbl::Obs => &hist.obs,
        };
        let mut recs = Vec::new();
        for &(_, ri) in g {
            let run = &data.runs[ri];
            for i in 0..run.ts.len() {
                let vals = run.cols.iter().map(|c| c[i]).collect();
                recs.push(Record::new(SourceId(run.source), Timestamp(run.ts[i]), vals));
            }
        }
        let session = &mut frames[(tbl == Tbl::Obs) as usize];
        let mut buf = Vec::new();
        frame::encode_batch(&mut buf, session.len() as u64 + 1, tbl.tags().len(), &recs)
            .expect("generated frames encode");
        session.push((buf, recs.len() as u64));
    }
    let rounds: Vec<Vec<(Q, String)>> = (0..8)
        .map(|_| {
            let mut qs: Vec<Q> = (0..gen::TRADE_TAGS.len())
                .map(|tag| Q::Agg { t: Tbl::Trade, tag })
                .chain((0..gen::OBS_TAGS.len()).map(|tag| Q::Agg { t: Tbl::Obs, tag }))
                .collect();
            // As many LQ1 as aggregates, so the median query falls in the
            // middle of the TQ1 cluster rather than on a cluster's edge.
            for _ in 0..gen::TRADE_TAGS.len() + gen::OBS_TAGS.len() {
                qs.push(Q::Source { t: Tbl::Obs, src: rng.below(spec.sensors as u64) });
            }
            for _ in 0..62 {
                qs.push(Q::Source { t: Tbl::Trade, src: rng.below(spec.accounts as u64) });
            }
            rng.shuffle(&mut qs);
            qs.into_iter()
                .map(|q| {
                    let s = q.sql();
                    (q, s)
                })
                .collect()
        })
        .collect();
    let tables = [&hist.trade, &hist.obs];

    let base = Instant::now();
    let mut tr = Tracer::new(cfg.trace, base);
    let mut acct = Acct::default();
    type Wire = (Historian, NetServer, Vec<NetClient>);
    let setup = |tr: &mut Tracer| -> Result<Wire> {
        let h = build_historian()?;
        register_history(&h, &hist, tr)?;
        let server = NetServer::serve(h.cluster().clone(), NetServerConfig::default())?;
        let addr = server.local_addr();
        let c0 = NetClient::connect(addr, "trade", gen::TRADE_TAGS.len())?;
        let c1 = NetClient::connect(addr, "observation", gen::OBS_TAGS.len())?;
        Ok((h, server, vec![c0, c1]))
    };
    // Two closed-loop sessions, one generator thread each, sending as fast
    // as the credit window allows. A frame's latency runs from its send to
    // the ack becoming visible in `acked_seq()`.
    let ingest = |state: &mut Wire, tr: &mut Tracer, acct: &mut Acct| -> Load {
        let start = Instant::now();
        let clients = std::mem::take(&mut state.2);
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(&frames)
                .map(|(mut client, frames)| {
                    let mut tr = tr.child();
                    scope.spawn(move || {
                        let mut lat_ms = Vec::with_capacity(frames.len());
                        let mut sent_at = Vec::with_capacity(frames.len());
                        let mut failed = 0u64;
                        tr.begin("session", "");
                        let record =
                            |client: &NetClient, sent_at: &[Instant], lat: &mut Vec<f64>| {
                                let now = Instant::now();
                                while (lat.len() as u64) < client.acked_seq() {
                                    lat.push((now - sent_at[lat.len()]).as_secs_f64() * 1e3);
                                }
                            };
                        for (buf, rows) in frames {
                            sent_at.push(Instant::now());
                            if tr
                                .span("send_encoded", "", || client.send_encoded(buf, *rows))
                                .is_err()
                            {
                                failed += 1;
                                continue;
                            }
                            record(&client, &sent_at, &mut lat_ms);
                        }
                        let waited = tr.span("wait_all_acked", "", || client.wait_all_acked());
                        record(&client, &sent_at, &mut lat_ms);
                        let end = Instant::now();
                        let report = tr.span("finish", "", || client.finish());
                        tr.end();
                        (lat_ms, end, failed, waited.and(report), tr)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session thread panicked")).collect()
        });
        let mut end_all = start;
        let mut lat_all = Vec::new();
        for (i, (lat, end, failed, report, sub)) in results.into_iter().enumerate() {
            end_all = end_all.max(end);
            lat_all.extend(lat);
            tr.absorb(sub);
            acct.count("frames", frames[i].len() as u64);
            *acct.failed.entry("frames").or_default() += failed;
            if let Some(report) = acct.op("sessions", report) {
                let n = frames[i].len() as u64;
                acct.check(
                    "acked_seq",
                    (report.acked_seq == n)
                        .then_some(())
                        .ok_or(format!("session {i}: acked {} of {n} frames", report.acked_seq)),
                );
            }
        }
        Load { secs: (end_all - start).as_secs_f64(), lat_ms: lat_all, writer_calls: 0 }
    };
    let world = World { trade: &hist.trade, obs: &hist.obs, dims: None };
    let pipeline = Pipeline {
        tables: &tables,
        world: &world,
        rounds: &rounds,
        check: &|_, _| true,
        hist_of: |s: &Wire| &s.0,
        teardown: |(h, server, clients)| {
            for c in clients {
                let _ = c.finish();
            }
            drop(server);
            drop(h);
        },
        groups: hist.groups.len(),
    };
    match pipeline.run(cfg, &mut tr, &mut acct, setup, ingest) {
        Some(p) => pooled_outcome(acct, p, &tables, tr),
        None => failed_outcome(acct),
    }
}

fn failed_outcome(acct: Acct) -> Outcome {
    Outcome {
        acct,
        e2e: Vec::new(),
        layers: Vec::new(),
        work_s: 0.0,
        spans: Vec::new(),
        explains: Vec::new(),
    }
}

// ------------------------------------------------------- history_query --

/// A window covering `frac` of `[t0, t1)` at a seeded position.
fn window(rng: &mut Rng, t0: i64, t1: i64, frac: f64) -> (i64, i64) {
    let dt = (((t1 - t0) as f64 * frac) as i64).max(1_000);
    let a = t0 + rng.below((t1 - t0 - dt).max(1) as u64) as i64;
    (a, a + dt)
}

/// One instance of `tpl` with seeded parameters. Sources, windows and boxes
/// move with the seed; their sizes do not, so instances of one template cost
/// alike and a run's statistics do not hinge on a few draws. Slices cover
/// 5.5 s of an hour (the middle of WS2's 1–10 s), the per-source operators
/// 10 % of the span, TQ4 one birth year (2 % of customers) and LQ4 a 10°
/// box inside the station area (~7 % of stations). With equal counts of
/// twelve templates the median query sits between the sixth and seventh
/// cheapest; that box makes LQ4 cost about what LQ2 does, so the median
/// falls inside one dense cluster instead of on the edge between two.
fn instance(tpl: &str, k: usize, rng: &mut Rng, trade: &TableData, obs: &TableData) -> Q {
    // The VQ templates alternate tables, so every round has the same mix.
    let t = if k.is_multiple_of(2) { Tbl::Trade } else { Tbl::Obs };
    let data = |t: Tbl| if t == Tbl::Trade { trade } else { obs };
    match tpl {
        "tq1" => Q::Source { t: Tbl::Trade, src: rng.below(trade.sources() as u64) },
        "lq1" => Q::Source { t: Tbl::Obs, src: rng.below(obs.sources() as u64) },
        "tq2" | "lq2" => {
            let t = if tpl == "tq2" { Tbl::Trade } else { Tbl::Obs };
            let (a, b) = window(rng, data(t).t0, data(t).t1, 5.5 / 3600.0);
            Q::Slice { t, a, b }
        }
        "tq3" => Q::AcctName { acct: rng.below(trade.sources() as u64) },
        "tq4" => Q::DobYear { year: 1940 + rng.below(50) as i64 },
        "lq3" => Q::SensorName { sensor: rng.below(obs.sources() as u64) },
        "lq4" => {
            let lat = 250_000 + rng.below(140_000) as i64;
            let lon = -1_250_000 + rng.below(490_000) as i64;
            Q::GeoBox { lat: (lat, lat + 100_000), lon: (lon, lon + 100_000) }
        }
        "vq1" => {
            let span = data(t).t1 - data(t).t0;
            Q::Downsample { t, width: (span / (16 << rng.below(4))).max(1), from: None }
        }
        "vq2" => Q::LastPoint { t },
        "vq3" | "vq4" => {
            let src = rng.below(data(t).sources() as u64);
            let (a, b) = window(rng, data(t).t0, data(t).t1, 0.1);
            if tpl == "vq3" {
                Q::GapFill { t, src, a, b, width: ((b - a) / 32).max(1) }
            } else {
                Q::AsOf { t, src, a, b }
            }
        }
        _ => unreachable!("unknown template {tpl}"),
    }
}

/// A TD + LD history loaded in process, then the twelve WS2 templates over
/// a working set several times the decode cache.
pub fn history_query(cfg: &Config) -> Outcome {
    let mut rng = Rng::new(cfg.seed);
    let spec = HistorySpec {
        accounts: 1024,
        trade_rows_per_round: 64,
        trade_interval_us: 50_000,
        trade_group_rows: 512,
        sensors: 4096,
        obs_group_rows: 512,
        rounds: 12,
    };
    let hist = gen::history(&spec, &mut rng);
    let dims = gen::dims(spec.accounts, spec.sensors, &mut rng);
    let rounds: Vec<Vec<(Q, String)>> = (0..32)
        .map(|_| {
            let mut qs: Vec<Q> = TEMPLATES
                .iter()
                .flat_map(|tpl| (0..10).map(move |k| (*tpl, k)))
                .map(|(tpl, k)| instance(tpl, k, &mut rng, &hist.trade, &hist.obs))
                .collect();
            rng.shuffle(&mut qs);
            qs.into_iter()
                .map(|q| {
                    let s = q.sql();
                    (q, s)
                })
                .collect()
        })
        .collect();

    let tables = [&hist.trade, &hist.obs];
    let base = Instant::now();
    let mut tr = Tracer::new(cfg.trace, base);
    let mut acct = Acct::default();
    let setup = |tr: &mut Tracer| -> Result<Historian> {
        let h = build_historian()?;
        register_history(&h, &hist, tr)?;
        tr.span("load_dims", "", || load_dims(&h, &dims))?;
        Ok(h)
    };
    // One thread; each commit group is its runs' write_cols calls closed by
    // sync, timed from the first write_cols to the return of sync.
    let ingest = |h: &mut Historian, tr: &mut Tracer, acct: &mut Acct| -> Load {
        let mut load = Load { secs: 0.0, lat_ms: Vec::new(), writer_calls: 0 };
        let writers = (h.writer("trade"), h.writer("observation"));
        let (Some(wt), Some(wo)) = (acct.op("setup", writers.0), acct.op("setup", writers.1))
        else {
            return load;
        };
        let start = Instant::now();
        for g in &hist.groups {
            let t = Instant::now();
            let mut ok = true;
            for &(tbl, ri) in g {
                let (w, data) =
                    if tbl == Tbl::Trade { (&wt, &hist.trade) } else { (&wo, &hist.obs) };
                let run = &data.runs[ri];
                load.writer_calls += 1;
                let r = tr.span("write_cols", tbl.name(), || {
                    w.write_cols(SourceId(run.source), &run.ts, &run.cols)
                });
                ok &= acct.op("write_cols", r).is_some();
            }
            let synced = acct.op("commit_groups", tr.span("sync", "", || wt.sync())).is_some();
            if synced && ok {
                load.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        load.secs = start.elapsed().as_secs_f64();
        load
    };
    let world = World { trade: &hist.trade, obs: &hist.obs, dims: Some(&dims) };
    // Round 0 is checked whole, later rounds one query in four.
    let pipeline = Pipeline {
        tables: &tables,
        world: &world,
        rounds: &rounds,
        check: &|r, i| r == 0 || i % 4 == 0,
        hist_of: |h: &Historian| h,
        teardown: drop,
        groups: hist.groups.len(),
    };
    match pipeline.run(cfg, &mut tr, &mut acct, setup, ingest) {
        Some(p) => pooled_outcome(acct, p, &tables, tr),
        None => failed_outcome(acct),
    }
}

/// Untimed whole-table read-back after the measured phases.
fn final_checks(h: &Historian, world: &World, acct: &mut Acct) {
    for q in
        [Q::Agg { t: Tbl::Trade, tag: gen::TRADE_TAG }, Q::Agg { t: Tbl::Obs, tag: gen::OBS_TAG }]
    {
        let sql = q.sql();
        if let Some(res) = acct.op("checks", h.sql(&sql)) {
            acct.check(&sql, compare(&world.expect(&q, i64::MAX), &canon(&res.rows)));
        }
    }
}

// ---------------------------------------------------------- live_mixed --

/// Live query shapes; the window is placed when the query is issued,
/// relative to the newest acknowledged tick.
#[derive(Clone, Copy)]
enum LiveQ {
    Last(Tbl),
    Down(Tbl, i64, i64),
    Slice(Tbl, i64),
    Gap(u64, i64, i64),
}

impl LiveQ {
    /// `now` is the exclusive end of acknowledged data time.
    fn place(self, now: i64, tick_us: i64) -> Q {
        match self {
            LiveQ::Last(t) => Q::LastPoint { t },
            LiveQ::Down(t, win, width) => {
                Q::Downsample { t, width, from: Some((now - win).div_euclid(width) * width) }
            }
            LiveQ::Slice(t, d) => Q::Slice { t, a: now - d, b: now + 2 * tick_us },
            LiveQ::Gap(src, d, width) => {
                Q::GapFill { t: Tbl::Trade, src, a: now - d, b: now - 1, width }
            }
        }
    }
}

/// Check one live answer. Rows with ts before `acked_cut` were acknowledged
/// before the query began and must be answered exactly; rows before
/// `started_cut` may have been written while it ran and may or may not
/// show, but anything returned must have been sent.
fn check_live(
    world: &World,
    q: &Q,
    got: &[Vec<Cell>],
    acked_cut: i64,
    started_cut: i64,
) -> std::result::Result<(), String> {
    match q {
        Q::LastPoint { t } => {
            let data = world.table(*t);
            let mut seen = vec![false; data.sources()];
            for row in got {
                let (Cell::I(s), v) = (&row[0], &row[1]) else {
                    return Err(format!("bad row {row:?}"));
                };
                let s = *s as usize;
                if s >= data.sources() || seen[s] {
                    return Err(format!("unexpected or repeated source {s}"));
                }
                seen[s] = true;
                let mut newest_acked = None;
                let mut found = None;
                for &ri in &data.by_source[s] {
                    let run = &data.runs[ri];
                    for i in 0..run.ts.len() {
                        let Some(x) = run.cols[t.tag()][i] else { continue };
                        if run.ts[i] < acked_cut {
                            newest_acked = Some(run.ts[i]);
                        }
                        if run.ts[i] < started_cut
                            && matches!(v, Cell::F(y) if y.to_bits() == x.to_bits())
                        {
                            found = Some(run.ts[i]);
                        }
                    }
                }
                match (v, found, newest_acked) {
                    (Cell::Null, _, None) => {}
                    (Cell::F(_), Some(ts), acked) if acked.is_none_or(|a| ts >= a) => {}
                    _ => {
                        return Err(format!(
                            "source {s}: LAST {v:?} (sent at {found:?}) older than acked {newest_acked:?} or never sent"
                        ))
                    }
                }
            }
            let acked = world.expect(&Q::LastPoint { t: *t }, acked_cut);
            for r in &acked.rows {
                if let Cell::I(s) = r[0] {
                    if !seen[s as usize] {
                        return Err(format!("source {s} has acknowledged rows but no last point"));
                    }
                }
            }
            Ok(())
        }
        Q::Downsample { width, .. } => {
            let done = world.expect(q, acked_cut);
            let upto = world.expect(q, started_cut);
            let key = |r: &Vec<Cell>| match r[0] {
                Cell::I(k) => k,
                _ => i64::MIN,
            };
            let count = |r: &Vec<Cell>| match r[1] {
                Cell::I(n) => n,
                _ => -1,
            };
            let whole: Vec<Vec<Cell>> =
                got.iter().filter(|r| key(r) + width <= acked_cut).cloned().collect();
            let exp = Expected {
                rows: done.rows.iter().filter(|r| key(r) + width <= acked_cut).cloned().collect(),
                approx: done.approx.clone(),
            };
            compare(&exp, &whole)?;
            for r in got.iter().filter(|r| key(r) + width > acked_cut) {
                let lo = done.rows.iter().find(|e| key(e) == key(r)).map_or(0, count);
                let hi = upto.rows.iter().find(|e| key(e) == key(r)).map_or(0, count);
                if count(r) < lo || count(r) > hi {
                    return Err(format!("open bucket {r:?}: count outside [{lo}, {hi}]"));
                }
            }
            Ok(())
        }
        Q::Slice { .. } => {
            let ts_of = |r: &Vec<Cell>| {
                let col = if matches!(q, Q::Slice { t: Tbl::Trade, .. }) { 1 } else { 0 };
                match r[col] {
                    Cell::I(t) => t,
                    _ => i64::MIN,
                }
            };
            let (old, fresh): (Vec<_>, Vec<_>) =
                got.iter().cloned().partition(|r| ts_of(r) < acked_cut);
            compare(&world.expect(q, acked_cut), &old)?;
            let upto = world.expect(q, started_cut).rows;
            match fresh.iter().find(|r| !upto.contains(r)) {
                Some(r) => Err(format!("row {r:?} was never sent")),
                None => Ok(()),
            }
        }
        _ => compare(&world.expect(q, acked_cut), &got.to_vec()),
    }
}

/// What one live phase measured.
struct LivePhase {
    acct: Acct,
    write_ms: Vec<f64>,
    lag_ms_max: f64,
    /// Writer time from each tick's start to its ack, summed.
    busy_s: f64,
    /// The same, per tick.
    tick_busy_s: Vec<f64>,
    writer_calls: u64,
    qs: QueryStats,
}

/// Replay `live` into `h`: the writer on its tick schedule, the reader in a
/// closed loop over `mix` until the writer is done.
fn live_phase(
    h: &Historian,
    live: &Live,
    world: &World,
    mix: &[LiveQ],
    tr: &mut Tracer,
) -> LivePhase {
    let mut acct = Acct::default();
    let writers = (h.writer("trade"), h.writer("observation"));
    let (Some(wt), Some(wo)) = (acct.op("setup", writers.0), acct.op("setup", writers.1)) else {
        return LivePhase {
            acct,
            write_ms: Vec::new(),
            lag_ms_max: 0.0,
            busy_s: 0.0,
            tick_busy_s: Vec::new(),
            writer_calls: 0,
            qs: QueryStats::default(),
        };
    };
    let acked = AtomicI64::new(-1);
    let started = AtomicI64::new(-1);
    let done = AtomicBool::new(false);
    tr.begin("ingest", "");
    let (wr, rd) = std::thread::scope(|scope| {
        let writer = {
            let mut tr = tr.child();
            let (acked, started, done, wt, wo) = (&acked, &started, &done, &wt, &wo);
            scope.spawn(move || {
                let mut acct = Acct::default();
                let mut lat_ms = Vec::with_capacity(live.ticks.len());
                let mut tick_busy = Vec::with_capacity(live.ticks.len());
                let (mut lag_max, mut busy, mut calls) = (0.0f64, 0.0f64, 0u64);
                let t0 = Instant::now() + Duration::from_millis(20);
                for (k, due_runs) in live.ticks.iter().enumerate() {
                    let due = t0 + Duration::from_micros(k as u64 * live.tick_us as u64);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    let begin = Instant::now();
                    lag_max = lag_max.max((begin - due).as_secs_f64() * 1e3);
                    started.store(k as i64, Ordering::SeqCst);
                    let mut ok = true;
                    for &(tbl, ri) in due_runs {
                        let (w, data) =
                            if tbl == Tbl::Trade { (wt, &live.trade) } else { (wo, &live.obs) };
                        let run = &data.runs[ri];
                        calls += 1;
                        let r = tr.span("write_cols", tbl.name(), || {
                            w.write_cols(SourceId(run.source), &run.ts, &run.cols)
                        });
                        ok &= acct.op("write_cols", r).is_some();
                    }
                    let synced =
                        acct.op("commit_groups", tr.span("sync", "", || wt.sync())).is_some();
                    let last_ack = Instant::now();
                    tick_busy.push((last_ack - begin).as_secs_f64());
                    busy += (last_ack - begin).as_secs_f64();
                    if synced && ok {
                        lat_ms.push((last_ack - due).as_secs_f64() * 1e3);
                        acked.store(k as i64, Ordering::SeqCst);
                    }
                }
                done.store(true, Ordering::SeqCst);
                (acct, lat_ms, lag_max, busy, tick_busy, calls, tr)
            })
        };
        let reader = {
            let mut tr = tr.child();
            let (acked, started, done) = (&acked, &started, &done);
            scope.spawn(move || {
                let mut acct = Acct::default();
                let mut qs = QueryStats::default();
                while acked.load(Ordering::SeqCst) < 0 && !done.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_micros(500));
                }
                tr.begin("query", "");
                'outer: loop {
                    for lq in mix {
                        if done.load(Ordering::SeqCst) {
                            break 'outer;
                        }
                        let acked_cut = live.cut(acked.load(Ordering::SeqCst));
                        let q = lq.place(acked_cut, live.tick_us);
                        let sql = q.sql();
                        let tpl = q.template();
                        if tr.on() {
                            let _ = tr.span("explain", tpl, || h.explain(&sql));
                        }
                        let t = Instant::now();
                        let res = tr.span("sql", tpl, || h.sql(&sql));
                        let secs = t.elapsed().as_secs_f64();
                        let started_cut = live.cut(started.load(Ordering::SeqCst));
                        let Some(res) = acct.op("queries", res) else { continue };
                        qs.note(tpl, secs, res.data_points());
                        let got = canon(&res.rows);
                        acct.check(&sql, check_live(world, &q, &got, acked_cut, started_cut));
                    }
                }
                tr.end();
                (acct, qs, tr)
            })
        };
        (writer.join().expect("writer panicked"), reader.join().expect("reader panicked"))
    });
    tr.end();
    let (w_acct, write_ms, lag_ms_max, busy_s, tick_busy_s, writer_calls, w_tr) = wr;
    let (r_acct, qs, r_tr) = rd;
    acct.merge(w_acct);
    acct.merge(r_acct);
    tr.absorb(w_tr);
    tr.absorb(r_tr);
    LivePhase { acct, write_ms, lag_ms_max, busy_s, tick_busy_s, writer_calls, qs }
}

/// An open-loop writer on a fixed tick schedule beside a closed-loop reader
/// over the freshest data. Like the batch workloads, the run repeats set-up
/// → live phase → maintenance [`REPS`] times into fresh historians, replaying
/// the same schedule, and reports medians over the repetitions.
pub fn live_mixed(cfg: &Config) -> Outcome {
    let mut rng = Rng::new(cfg.seed);
    let tick_us = 2_000;
    let spec = LiveSpec {
        tick_us,
        ticks: ((LIVE_SHARE * cfg.seconds * 1e6 / REPS as f64) as i64 / tick_us).max(1) as usize,
        regular: 40,
        irregular: 10,
        irregular_rows: 1,
        sensors: 20_000,
        sensor_period_ticks: (5_000, 15_000),
    };
    let live: Live = gen::live(&spec, &mut rng);
    let tables = [&live.trade, &live.obs];
    let tot = crate::oracle::totals(&tables);
    eprintln!(
        "perfbench: inputs per live phase: {} rows, {} points over {} ticks",
        tot.rows,
        tot.points,
        live.ticks.len()
    );
    let trade_n = spec.regular + spec.irregular;
    let mut mix: Vec<LiveQ> = Vec::new();
    for _ in 0..10 {
        mix.push(LiveQ::Last(Tbl::Trade));
        mix.push(LiveQ::Down(Tbl::Trade, 2_000_000, 100_000));
        mix.push(LiveQ::Slice(Tbl::Trade, 100_000));
        mix.push(LiveQ::Slice(Tbl::Obs, 5_000_000));
        mix.push(LiveQ::Gap(rng.below(trade_n as u64), 1_000_000, 50_000));
    }
    for _ in 0..5 {
        mix.push(LiveQ::Last(Tbl::Obs));
        mix.push(LiveQ::Down(Tbl::Obs, 10_000_000, 1_000_000));
    }
    rng.shuffle(&mut mix);
    let world = World { trade: &live.trade, obs: &live.obs, dims: None };

    let base = Instant::now();
    let mut tr = Tracer::new(cfg.trace, base);
    let mut acct = Acct::default();
    let (mut parts, mut writes, mut qs) = (Vec::new(), Vec::new(), QueryStats::default());
    let (mut live_d, mut run_d) = (Deltas::default(), Deltas::default());
    let (mut lag_max, mut calls, mut work_s) = (0.0f64, 0u64, 0.0f64);
    let mut last = None;
    let mut setups = Vec::new();
    let mut setup = |tr: &mut Tracer| -> Result<Historian> {
        let h = build_historian()?;
        register(&h, trade_n, spec.regular, tick_us, spec.sensors, tr)?;
        Ok(h)
    };
    for _ in 0..REPS {
        let mut part = Part::default();
        if spare_setups(&mut setup, drop, &mut acct, &mut setups).is_none() {
            return failed_outcome(acct);
        }
        let t = Instant::now();
        tr.begin("setup", "");
        let r = setup(&mut tr);
        tr.end();
        setups.push(t.elapsed().as_secs_f64());
        let Some(h) = acct.op("setup", r) else { return failed_outcome(acct) };
        let s_setup = Snap::take(&h);
        let ph = live_phase(&h, &live, &world, &mix, &mut tr);
        acct.merge(ph.acct);
        let mem = h.memory_footprint();
        let s_live = Snap::take(&h);
        check_ingest_counters(&mut acct, &s_setup, &s_live, &tables);
        let maint = maintenance(&h, &mut tr, &mut acct);
        let storage_bytes = h.storage_bytes();
        let s_end = Snap::take(&h);
        final_checks(&h, &world, &mut acct);
        live_d.add(&s_setup, &s_live);
        run_d.add(&s_setup, &s_end);
        // The schedule fixes the live phase's wall time, so points over it
        // would read the offered rate. The writer's time per tick (its
        // write_cols and sync) moves with ingest cost instead; the median
        // tick stands for all, since the 2–50 ms stalls behind reader
        // queries come and go with the host.
        let tick_s = median(&ph.tick_busy_s);
        part.ingest_pps = ratio(tot.points as f64, tick_s * live.ticks.len() as f64);
        part.writes(&ph.write_ms);
        part.maint_s = maint.secs;
        part.queries(&ph.qs);
        parts.push(part);
        writes.extend(ph.write_ms);
        qs.absorb(ph.qs);
        lag_max = lag_max.max(ph.lag_ms_max);
        calls += ph.writer_calls;
        work_s += ph.busy_s + maint.secs;
        last = Some((mem, storage_bytes, maint));
    }
    let Some((mem, storage_bytes, maint)) = last else { return failed_outcome(acct) };
    eprintln!("perfbench: generator lag max {lag_max:.3} ms");
    note_samples(parts.len(), &writes, &qs);
    let e2e = e2e(&parts, &setups, ratio(storage_bytes as f64, tot.points as f64));
    let layers = layers(&LayerInputs {
        ingest: &live_d,
        query: &live_d,
        run: &run_d,
        points: tot.points * REPS as u64,
        writer_calls: calls,
        qs: &qs,
        mem,
        storage_bytes,
        maint: &maint,
        lag_ms_max: lag_max,
        spans: &tr.spans,
    });
    Outcome { acct, e2e, layers, work_s: work_s + qs.busy_s, spans: tr.spans, explains: Vec::new() }
}

/// Share of `--seconds` the live phases take.
const LIVE_SHARE: f64 = 0.7;
