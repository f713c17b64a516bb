//! One CI gate over every committed benchmark baseline.
//!
//! `gate <suite>` re-runs one suite's sweep, holds it against the
//! committed `results/BENCH_<suite>.json`, saves the fresh report as
//! `results/BENCH_<suite>_current.json`, prints one line per check and
//! fails on any failed check. `gate <suite> --record` runs the same sweep
//! and writes it as the suite's baseline instead.
//!
//! Every check is one uniform [`Check`] record of one of three kinds:
//! - `Exact`: a deterministic, hardware-independent property —
//!   counters, allocation counts, batch counts, a case being present;
//! - `InRunRatio`: a ratio of two arms measured back to back in
//!   the same process, so the host's speed cancels out;
//! - `Wall`: a rate against the committed baseline, allowed to
//!   fall by at most a tolerance. A case the baseline lacks has nothing
//!   to regress against and passes; a missing case of any other kind
//!   fails.
//!
//! Every bound is a constant below. Only the workload sizes are set from
//! the environment (`TD_SECS`, `QUERY_*`, `COMPRESS_BENCH_*`,
//! `SEAL_BENCH_*`, `NET_*`, `SCALE_*`), because CI runs smaller sweeps
//! than the committed baselines.

use crate::kernels::{compress_bench, print_compress_points, CompressBenchReport};
use crate::{
    compact_path_bench, load_json_in, median, net_bench, parallel_ingest_bench,
    print_compact_report, print_ingest_points, print_net_report, print_query_points,
    print_scale_report, query_path_bench, results_dir, save_json_in, scale_bench,
    CompactBenchReport, IngestBenchPoint, NetBenchReport, QueryBenchPoint, ScaleBenchReport,
    QUERY_BATCH_ROWS,
};
use std::path::{Path, PathBuf};

/// The suites, each named by the stem of its `results/BENCH_<suite>.json`,
/// with what it guards.
pub const SUITES: [(&str, &str); 6] = [
    ("ingest", "parallel ingest: wall throughput and WAL overhead"),
    ("query", "read path: summary pushdown, decode cache, vectorized templates"),
    ("compress", "zero-allocation codec kernels and the seal pipeline"),
    ("compact", "the generational compactor"),
    ("net", "the streaming wire front door"),
    ("scale", "million-source registry memory and throughput"),
];

/// Thread counts of the ingest sweep.
const INGEST_THREADS: [usize; 4] = [1, 2, 4, 8];
/// Ingest wall throughput may fall at most this far (%) below baseline.
const INGEST_WALL_TOLERANCE_PCT: f64 = 20.0;
/// The median WAL overhead across widths must stay below this (%).
const WAL_OVERHEAD_CAP_PCT: f64 = 25.0;
/// Every other suite's wall tolerance (%): their arms are sub-30 ms
/// shapes on shared hardware, and the exact checks carry the guarantees.
const WALL_TOLERANCE_PCT: f64 = 50.0;
/// Decoded vectorized scan+aggregate over the row path, in-run.
const VEC_SPEEDUP_FLOOR: f64 = 1.5;
/// XOR and quantize kernels over their frozen references, in-run.
const COMPRESS_MIN_SPEEDUP: f64 = 2.0;
/// Every other codec kernel over its reference: delta-of-delta decode of
/// a mostly-on-schedule stream already runs near memory speed in the
/// reference, so "not slower" would gate on scheduler noise.
const COMPRESS_OTHERS_FLOOR: f64 = 0.7;
/// Off-thread sealing over inline sealing under multi-threaded ingest.
const SEAL_MIN_RATIO: f64 = 0.9;
/// Compacted over fragmented, per query shape, in-run.
const COMPACT_SPEEDUP_FLOOR: f64 = 1.2;
/// The same for summary-answered shapes, whose cost is per batch.
const COMPACT_AGG_SPEEDUP_FLOOR: f64 = 5.0;
/// Wire ingest over in-process `write_batch`, in-run.
const NET_MIN_RATIO: f64 = 0.7;
/// Sources the committed scale sweep must reach.
const SCALE_MIN_SOURCES: f64 = 1_000_000.0;
/// Legacy over current resident bytes per source.
const SCALE_MIN_DIET: f64 = 3.0;
/// Resident bytes per active source.
const SCALE_MAX_BYTES_PER_SOURCE: f64 = 2048.0;

/// How a check is measured; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Exact,
    InRunRatio,
    Wall,
}

impl Kind {
    const ALL: [Kind; 3] = [Kind::Exact, Kind::InRunRatio, Kind::Wall];

    fn label(self) -> &'static str {
        match self {
            Kind::Exact => "exact",
            Kind::InRunRatio => "in-run",
            Kind::Wall => "wall",
        }
    }
}

/// How a check's value must compare with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl Cmp {
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::Eq => value == bound,
            Cmp::Lt => value < bound,
            Cmp::Le => value <= bound,
            Cmp::Gt => value > bound,
            Cmp::Ge => value >= bound,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            Cmp::Eq => "==",
            Cmp::Lt => "<",
            Cmp::Le => "<=",
            Cmp::Gt => ">",
            Cmp::Ge => ">=",
        }
    }
}

/// One evaluated check. A wall check's value is the percentage change
/// against the baseline and its bound the negated tolerance.
#[derive(Debug)]
pub struct Check {
    suite: String,
    case: String,
    kind: Kind,
    cmp: Cmp,
    /// `None` when the case is missing: from this run for exact and
    /// in-run checks, from the baseline for wall checks.
    value: Option<f64>,
    bound: f64,
    pass: bool,
}

/// The one check evaluator: `value cmp bound`. A missing value passes
/// only for a wall check.
fn evaluate(kind: Kind, value: Option<f64>, cmp: Cmp, bound: f64) -> bool {
    match value {
        Some(v) => cmp.holds(v, bound),
        None => kind == Kind::Wall,
    }
}

/// Collects one suite's checks.
struct Checks {
    suite: String,
    list: Vec<Check>,
}

impl Checks {
    fn push(&mut self, kind: Kind, case: String, value: Option<f64>, cmp: Cmp, bound: f64) {
        let pass = evaluate(kind, value, cmp, bound);
        self.list.push(Check { suite: self.suite.clone(), case, kind, cmp, value, bound, pass });
    }

    fn exact(&mut self, case: impl Into<String>, value: Option<f64>, cmp: Cmp, bound: f64) {
        self.push(Kind::Exact, case.into(), value, cmp, bound);
    }

    fn ratio(&mut self, case: impl Into<String>, value: Option<f64>, cmp: Cmp, bound: f64) {
        self.push(Kind::InRunRatio, case.into(), value, cmp, bound);
    }

    /// `now` may fall at most `tolerance_pct` below `base`.
    fn wall(&mut self, case: impl Into<String>, now: f64, base: Option<f64>, tolerance_pct: f64) {
        let delta = base.map(|b| (now / b.max(1e-9) - 1.0) * 100.0);
        self.push(Kind::Wall, case.into(), delta, Cmp::Ge, -tolerance_pct);
    }
}

/// Allocation counters only a binary's `#[global_allocator]` can supply.
#[derive(Clone, Copy)]
pub struct Probes {
    /// Heap allocations so far (alloc, realloc and alloc_zeroed).
    pub allocs: fn() -> u64,
    /// Bytes allocated and not yet freed.
    pub live_bytes: fn() -> u64,
}

/// Whether `suite` reads the [`Probes`]; the others run without them.
pub fn reads_allocator(suite: &str) -> bool {
    matches!(suite, "compress" | "net" | "scale")
}

/// Run `suite`. With `record`, write its sweep as the committed baseline
/// and return no checks; otherwise return its checks against that
/// baseline. An error means the suite could not run or save at all.
pub fn run(suite: &str, record: bool, probes: Probes) -> Result<Vec<Check>, String> {
    match suite {
        "ingest" => drive(
            suite,
            record,
            || parallel_ingest_bench(&INGEST_THREADS),
            |r| print_ingest_points(r),
            |c, now, base| ingest_checks(c, now, base),
        ),
        "query" => drive(
            suite,
            record,
            query_path_bench,
            |r| print_query_points(r),
            |c, now, base| query_checks(c, now, base),
        ),
        "compress" => drive(
            suite,
            record,
            || compress_bench(probes.allocs),
            print_compress_points,
            compress_checks,
        ),
        "compact" => drive(suite, record, compact_path_bench, print_compact_report, compact_checks),
        "net" => drive(suite, record, || net_bench(probes.allocs), print_net_report, net_checks),
        "scale" => drive(
            suite,
            record,
            || scale_bench(probes.live_bytes),
            print_scale_report,
            scale_checks,
        ),
        _ => Err(format!("unknown suite `{suite}`")),
    }
}

/// What every suite shares: load the baseline, run and print the sweep,
/// then either record it or save it as `_current` and check it.
fn drive<R: serde::Serialize + serde::Deserialize>(
    suite: &str,
    record: bool,
    sweep: impl FnOnce() -> odh_types::Result<R>,
    print: impl FnOnce(&R),
    checks: impl FnOnce(&mut Checks, &R, &R),
) -> Result<Vec<Check>, String> {
    let dir = results_dir();
    let name = format!("BENCH_{suite}");
    // Load first, so a missing baseline fails before a long sweep.
    let baseline: Option<R> = if record {
        None
    } else {
        Some(load_json_in(&dir, &name).map_err(|e| {
            format!(
                "no usable baseline ({e}); run `cargo run --release -p odh-bench --bin gate -- \
                 {suite} --record` and commit the file"
            )
        })?)
    };
    let report = sweep().map_err(|e| format!("{suite} sweep errored: {e}"))?;
    print(&report);
    println!();
    let Some(baseline) = baseline else {
        println!("baseline recorded: {}", save(&dir, &name, &report)?.display());
        return Ok(Vec::new());
    };
    let path = save(&dir, &format!("{name}_current"), &report)?;
    println!("current sweep saved: {}", path.display());
    let mut c = Checks { suite: suite.to_string(), list: Vec::new() };
    checks(&mut c, &report, &baseline);
    Ok(c.list)
}

fn save<T: serde::Serialize>(dir: &Path, name: &str, value: &T) -> Result<PathBuf, String> {
    save_json_in(dir, name, value).map_err(|e| format!("could not write {name}.json: {e}"))
}

/// Print one line per check and a per-kind summary; true when every
/// check passed.
pub fn report(checks: &[Check]) -> bool {
    for c in checks {
        let shown = |v: f64| match c.kind {
            Kind::Wall => format!("{v:+.1}%"),
            _ if v.fract() == 0.0 && v.abs() < 1e15 => format!("{v:.0}"),
            _ => format!("{v:.3}"),
        };
        let value = match (c.value, c.kind) {
            (Some(v), _) => shown(v),
            (None, Kind::Wall) => "no baseline".to_string(),
            (None, _) => "missing".to_string(),
        };
        println!(
            "  {:<6} {:<6} {:<8} {:<58} {value} {} {}",
            if c.pass { "ok" } else { "FAILED" },
            c.kind.label(),
            c.suite,
            c.case,
            c.cmp.symbol(),
            shown(c.bound)
        );
    }
    let summary: Vec<String> = Kind::ALL
        .iter()
        .map(|&k| {
            let total = checks.iter().filter(|c| c.kind == k).count();
            let passed = checks.iter().filter(|c| c.kind == k && c.pass).count();
            format!("{} {passed}/{total} pass", k.label())
        })
        .collect();
    let failed = checks.iter().filter(|c| !c.pass).count();
    println!("\n{}", summary.join(", "));
    if failed > 0 {
        eprintln!("FAIL: {failed} of {} checks failed", checks.len());
    } else {
        println!("PASS: all {} checks hold", checks.len());
    }
    failed == 0
}

fn count(x: u64) -> f64 {
    x as f64
}

fn ingest_checks(c: &mut Checks, now: &[IngestBenchPoint], base: &[IngestBenchPoint]) {
    for p in now {
        let b = base.iter().find(|b| b.threads == p.threads);
        let case = format!("{} threads wall_pps", p.threads);
        c.wall(case, p.wall_pps, b.map(|b| b.wall_pps), INGEST_WALL_TOLERANCE_PCT);
    }
    // The median, because the tax is per-point encoding work and so
    // width-independent: one oversubscribed width on a small runner can
    // spike its own ratio without the durable path having regressed.
    let mut taxes: Vec<f64> = now.iter().map(|p| p.wal_overhead_pct).collect();
    c.ratio("median wal_overhead_pct", Some(median(&mut taxes)), Cmp::Lt, WAL_OVERHEAD_CAP_PCT);
}

fn query_checks(c: &mut Checks, now: &[QueryBenchPoint], base: &[QueryBenchPoint]) {
    let find = |op: &str| now.iter().find(|p| p.op == op);
    let decodes = |p: &QueryBenchPoint| count(p.blob_decodes);
    let summaries = |p: &QueryBenchPoint| count(p.summary_answered_batches);
    let touched = |p: &QueryBenchPoint| count(p.cache_hits + p.cache_misses);

    let full = find("agg_full_pushdown");
    c.exact("agg_full_pushdown blob_decodes", full.map(decodes), Cmp::Eq, 0.0);
    c.exact("agg_full_pushdown summary_answered", full.map(summaries), Cmp::Gt, 0.0);
    let boundary = find("agg_boundary_pushdown");
    c.exact(
        "agg_boundary_pushdown blob_decodes < its summary_answered",
        boundary.map(decodes),
        Cmp::Lt,
        boundary.map_or(0.0, summaries),
    );
    let scans = find("scan_cold").zip(find("scan_warm"));
    c.exact(
        "scan_warm 5 x blob_decodes <= scan_cold's",
        scans.map(|(_, warm)| count(warm.blob_decodes * 5)),
        Cmp::Le,
        scans.map_or(0.0, |(cold, _)| count(cold.blob_decodes.max(1))),
    );
    c.exact("scan_warm cache_hits", scans.map(|(_, warm)| count(warm.cache_hits)), Cmp::Gt, 0.0);
    let rowpath = full.zip(find("agg_full_rowpath_cold"));
    c.exact(
        "agg_full_pushdown blob_decodes < agg_full_rowpath_cold's",
        rowpath.map(|(push, _)| decodes(push)),
        Cmp::Lt,
        rowpath.map_or(0.0, |(_, row)| decodes(row)),
    );
    // Decoded on both sides (a tag predicate keeps summaries out), so the
    // only variable is columnar versus tuple-at-a-time execution.
    let vec_row = find("vec_scan_agg").zip(find("row_scan_agg"));
    c.ratio(
        "vec_scan_agg / row_scan_agg qps",
        vec_row.map(|(v, r)| v.qps / r.qps.max(1e-9)),
        Cmp::Ge,
        VEC_SPEEDUP_FLOOR,
    );
    let aligned = find("bucket_pushdown_aligned");
    c.exact("bucket_pushdown_aligned blob_decodes", aligned.map(decodes), Cmp::Eq, 0.0);
    c.exact("bucket_pushdown_aligned summary_answered", aligned.map(summaries), Cmp::Gt, 0.0);
    for op in ["vec_downsample", "vec_last_point", "vec_gap_fill", "vec_asof_join"] {
        let points = now.iter().filter(|p| p.op == op).count();
        c.exact(format!("{op} points"), Some(points as f64), Cmp::Ge, 1.0);
    }
    // VQ2, LAST per source, reads each source newest-first and stops once
    // its newest batch settles it: one batch per source at most.
    let last = find("vec_last_point");
    c.exact(
        "vec_last_point batches touched <= sources",
        last.map(touched),
        Cmp::Le,
        last.map_or(0.0, |p| count(p.sources)),
    );
    // VQ4's left side is one source's window, so each side touches at
    // most that source's batches, not the table's.
    let asof = find("vec_asof_join");
    c.exact(
        "vec_asof_join batches touched <= 2 x one source's",
        asof.map(touched),
        Cmp::Le,
        asof.map_or(0.0, |p| count(2 * (p.points / p.sources.max(1)).div_ceil(QUERY_BATCH_ROWS))),
    );
    for p in now {
        let b = base.iter().find(|b| b.op == p.op);
        c.wall(format!("{} qps", p.op), p.qps, b.map(|b| b.qps), WALL_TOLERANCE_PCT);
    }
}

fn compress_checks(c: &mut Checks, now: &CompressBenchReport, base: &CompressBenchReport) {
    let find = |points: &'_ [crate::kernels::CompressBenchPoint], op: &str, arm: &str| {
        points.iter().find(|p| p.op == op && p.arm == arm).map(|p| p.mb_per_sec)
    };
    for p in now.kernels.iter().filter(|p| p.arm == "kernel") {
        c.exact(format!("{} kernel allocs", p.op), Some(count(p.allocs)), Cmp::Eq, 0.0);
    }
    let mut ops: Vec<&str> = Vec::new();
    for p in &now.kernels {
        if !ops.contains(&p.op.as_str()) {
            ops.push(&p.op);
        }
    }
    for op in ops {
        let floor = if op.starts_with("xor") || op.starts_with("quantize") {
            COMPRESS_MIN_SPEEDUP
        } else {
            COMPRESS_OTHERS_FLOOR
        };
        let arms = find(&now.kernels, op, "reference").zip(find(&now.kernels, op, "kernel"));
        let speedup = arms.map(|(r, k)| k / r.max(1e-9));
        c.ratio(format!("{op} kernel / reference MB/s"), speedup, Cmp::Ge, floor);
    }
    let arm = |name: &str| now.seal_queue.iter().find(|p| p.arm == name).map(|p| p.rows_per_sec);
    let seal = arm("inline").zip(arm("pipeline")).map(|(i, p)| p / i.max(1e-9));
    c.ratio("seal pipeline / inline rows/s", seal, Cmp::Ge, SEAL_MIN_RATIO);
    for p in &now.kernels {
        let b = find(&base.kernels, &p.op, &p.arm);
        c.wall(format!("{} {} MB/s", p.op, p.arm), p.mb_per_sec, b, WALL_TOLERANCE_PCT);
    }
}

fn compact_checks(c: &mut Checks, now: &CompactBenchReport, base: &CompactBenchReport) {
    // The workload and merge policy are deterministic, so the batch
    // counts hold exactly.
    let (before, after) = (count(now.batches_before), count(now.batches_after));
    c.exact("batches_before == baseline's", Some(before), Cmp::Eq, count(base.batches_before));
    c.exact("batches_after == baseline's", Some(after), Cmp::Eq, count(base.batches_after));
    c.exact("batches_after < batches_before", Some(after), Cmp::Lt, before);
    c.exact("merged_batches", Some(count(now.merged_batches)), Cmp::Gt, 0.0);
    let find = |op: &str| now.ops.iter().find(|o| o.op == op);
    let agg = find("agg_pushdown_cold");
    c.exact(
        "agg_pushdown_cold fragmented blob_decodes",
        agg.map(|o| count(o.frag_blob_decodes)),
        Cmp::Eq,
        0.0,
    );
    c.exact(
        "agg_pushdown_cold compacted blob_decodes",
        agg.map(|o| count(o.compact_blob_decodes)),
        Cmp::Eq,
        0.0,
    );
    c.exact(
        "agg_pushdown_cold compacted < fragmented summary_answered",
        agg.map(|o| count(o.compact_summary_answered)),
        Cmp::Lt,
        agg.map_or(0.0, |o| count(o.frag_summary_answered)),
    );
    c.exact(
        "bucket_aligned_cold compacted blob_decodes",
        find("bucket_aligned_cold").map(|o| count(o.compact_blob_decodes)),
        Cmp::Eq,
        0.0,
    );
    // Summary-answered shapes cost per batch, so their win tracks the
    // batch reduction and clears a much higher floor.
    for o in &now.ops {
        let floor = if o.compact_summary_answered > 0 {
            COMPACT_AGG_SPEEDUP_FLOOR
        } else {
            COMPACT_SPEEDUP_FLOOR
        };
        c.ratio(format!("{} compacted / fragmented", o.op), Some(o.speedup), Cmp::Ge, floor);
    }
    for o in &now.ops {
        let b = base.ops.iter().find(|b| b.op == o.op);
        let frag = format!("{} fragmented qps", o.op);
        c.wall(frag, o.frag_qps, b.map(|b| b.frag_qps), WALL_TOLERANCE_PCT);
        let comp = format!("{} compacted qps", o.op);
        c.wall(comp, o.compact_qps, b.map(|b| b.compact_qps), WALL_TOLERANCE_PCT);
    }
}

fn net_checks(c: &mut Checks, now: &NetBenchReport, base: &NetBenchReport) {
    c.ratio("wire / in-process rows/s", Some(now.wire_vs_inproc), Cmp::Ge, NET_MIN_RATIO);
    c.exact("decode allocs per frame", Some(now.decode_allocs_per_frame), Cmp::Eq, 0.0);
    c.exact("acked rows lost to a WAL kill", Some(count(now.fault_acked_lost)), Cmp::Eq, 0.0);
    c.exact("server acks", Some(count(now.server_acks)), Cmp::Gt, 0.0);
    let (commits, acks) = (count(now.server_commits), count(now.server_acks));
    c.exact("commit rounds <= acks", Some(commits), Cmp::Le, acks);
    let b = Some(base.wire_rows_per_sec);
    c.wall("wire rows/s", now.wire_rows_per_sec, b, WALL_TOLERANCE_PCT);
}

fn scale_checks(c: &mut Checks, now: &ScaleBenchReport, base: &ScaleBenchReport) {
    // The committed file must carry the full sweep; these hold exactly
    // for a given baseline.
    let committed = Some(count(base.max_sources));
    c.exact("baseline max_sources", committed, Cmp::Ge, SCALE_MIN_SOURCES);
    c.exact("baseline diet_ratio", Some(base.diet_ratio), Cmp::Ge, SCALE_MIN_DIET);
    let drift = if base.baseline_ingest_pps > 0.0 {
        (base.ingest_vs_baseline - 1.0).abs()
    } else {
        f64::INFINITY
    };
    c.exact("baseline |ingest_vs_baseline - 1|", Some(drift), Cmp::Le, 0.10);
    for p in &now.sweep {
        let case = format!("sweep {} registered", p.sources);
        c.exact(case, Some(count(p.registered)), Cmp::Eq, count(p.sources));
    }
    let churn = &now.churn;
    let pruned = Some(count(churn.pruned_sources));
    c.exact("churn pruned == aged-out sources", pruned, Cmp::Eq, count(churn.churn_sources));
    c.exact("churn re-registered", Some(count(churn.reregistered)), Cmp::Gt, 0.0);
    c.exact(
        "churn registry bytes after < before",
        Some(count(churn.registry_bytes_after)),
        Cmp::Lt,
        count(churn.registry_bytes_before),
    );
    let bytes = Some(now.bytes_per_source);
    c.exact("resident bytes per active source", bytes, Cmp::Le, SCALE_MAX_BYTES_PER_SOURCE);
    c.ratio("legacy / current bytes per source", Some(now.diet_ratio), Cmp::Ge, SCALE_MIN_DIET);
    let b = Some(base.ingest_pps);
    c.wall("ingest arm pps", now.ingest_pps, b, WALL_TOLERANCE_PCT);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checks() -> Checks {
        Checks { suite: "test".to_string(), list: Vec::new() }
    }

    #[test]
    fn wall_value_at_the_tolerance_passes_and_just_below_fails() {
        assert!(evaluate(Kind::Wall, Some(-50.0), Cmp::Ge, -50.0));
        assert!(!evaluate(Kind::Wall, Some(-50.000_001), Cmp::Ge, -50.0));
        let mut c = checks();
        c.wall("at", 50.0, Some(100.0), 50.0);
        c.wall("below", 49.999, Some(100.0), 50.0);
        c.wall("ingest at", 80.0, Some(100.0), INGEST_WALL_TOLERANCE_PCT);
        let pass: Vec<bool> = c.list.iter().map(|c| c.pass).collect();
        assert_eq!(pass, [true, false, true]);
        assert_eq!(c.list[0].value, Some(-50.0));
    }

    #[test]
    fn a_case_without_a_value_passes_only_for_wall() {
        for kind in Kind::ALL {
            assert_eq!(evaluate(kind, None, Cmp::Ge, 0.0), kind == Kind::Wall, "{kind:?}");
        }
        let mut c = checks();
        c.wall("new op", 1.0, None, WALL_TOLERANCE_PCT);
        c.exact("gone op", None, Cmp::Eq, 0.0);
        c.ratio("gone arm", None, Cmp::Ge, 0.0);
        let pass: Vec<bool> = c.list.iter().map(|c| c.pass).collect();
        assert_eq!(pass, [true, false, false]);
    }

    #[test]
    fn an_exact_mismatch_fails() {
        assert!(evaluate(Kind::Exact, Some(24.0), Cmp::Eq, 24.0));
        assert!(!evaluate(Kind::Exact, Some(25.0), Cmp::Eq, 24.0));
        assert!(!evaluate(Kind::Exact, Some(1.0), Cmp::Eq, 0.0));
        assert!(!evaluate(Kind::Exact, Some(3.0), Cmp::Lt, 3.0));
        assert!(!evaluate(Kind::Exact, Some(0.0), Cmp::Gt, 0.0));
        assert!(evaluate(Kind::Exact, Some(3.0), Cmp::Le, 3.0));
        assert!(!report(&[Check {
            suite: "test".to_string(),
            case: "batches_after".to_string(),
            kind: Kind::Exact,
            cmp: Cmp::Eq,
            value: Some(25.0),
            bound: 24.0,
            pass: false,
        }]));
    }

    /// What `--record` writes, the gate loads back as the same report,
    /// starting from each committed baseline.
    #[test]
    fn record_then_load_round_trips_every_suite() {
        fn round_trip<R: serde::Serialize + serde::Deserialize>(suite: &str) {
            let name = format!("BENCH_{suite}");
            let committed: R = load_json_in(&results_dir(), &name).unwrap();
            let dir = std::env::temp_dir()
                .join(format!("odh-gate-round-trip-{}-{suite}", std::process::id()));
            save_json_in(&dir, &name, &committed).unwrap();
            let loaded: R = load_json_in(&dir, &name).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            let json = |r: &R| serde_json::to_string(r).unwrap();
            assert_eq!(json(&committed), json(&loaded), "{suite}");
        }
        // In `SUITES` order; a baseline of another suite would not parse.
        let trips: [fn(&str); 6] = [
            round_trip::<Vec<IngestBenchPoint>>,
            round_trip::<Vec<QueryBenchPoint>>,
            round_trip::<CompressBenchReport>,
            round_trip::<CompactBenchReport>,
            round_trip::<NetBenchReport>,
            round_trip::<ScaleBenchReport>,
        ];
        for ((suite, _), trip) in SUITES.iter().zip(trips) {
            trip(suite);
        }
    }
}
