//! CI performance gate over the committed read-path baseline.
//!
//! Re-runs the query sweep and checks it two ways against the committed
//! `results/BENCH_query.json`:
//!
//! - **Counter gates** (deterministic, always enforced):
//!   - the fully-covered pushdown aggregate decodes **zero** blobs and
//!     answers at least one batch from summaries;
//!   - the boundary-range aggregate decodes fewer blobs than it answers
//!     from summaries (only boundary batches pay decode);
//!   - warm-cache scans decode at least 5x fewer blobs than cold scans;
//!   - the one-source ASOF self-join touches no more batches than its
//!     two sides' scans of that source hold.
//! - **Regression gate**: per matching op, current `qps` must stay within
//!   `BENCH_GATE_TOLERANCE_PCT` (default 50%) of the baseline. The loose
//!   default reflects that these are sub-30ms shapes on shared CI
//!   hardware; the counter gates above carry the hard guarantees.
//!
//! The fresh sweep is saved as `results/BENCH_query_current.json` for CI
//! artifact upload. Exits non-zero on any failure; a missing baseline is
//! an error (regenerate with `cargo run --release --bin query`).

use odh_bench::QueryBenchPoint;
use odh_bench::{
    banner, load_baseline, print_query_points, query_path_bench, save_json, QUERY_BATCH_ROWS,
};
use odh_core::Historian;
use odh_storage::{DeletePredicate, TableConfig};
use odh_types::{Record, SchemaType, SourceClass, SourceId, Timestamp};

fn env_pct(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn find<'a>(points: &'a [QueryBenchPoint], op: &str) -> Option<&'a QueryBenchPoint> {
    points.iter().find(|p| p.op == op)
}

fn main() {
    banner("Read-path performance gate", "CI guard on summary pushdown + decode cache");
    let tolerance = env_pct("BENCH_GATE_TOLERANCE_PCT", 50.0);

    let baseline: Vec<QueryBenchPoint> =
        load_baseline("BENCH_query", "cargo run --release -p odh-bench --bin query");

    let current = match query_path_bench() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("FAIL: query sweep errored: {e}");
            std::process::exit(1);
        }
    };
    let path = save_json("BENCH_query_current", &current);
    println!("current sweep saved: {}", path.display());
    print_query_points(&current);
    println!();

    let mut failures = 0u32;
    let mut check = |ok: bool, what: &str| {
        println!("  {} {what}", if ok { "ok    " } else { "FAILED" });
        if !ok {
            failures += 1;
        }
    };

    // Counter gates — deterministic properties of the read path.
    match find(&current, "agg_full_pushdown") {
        Some(p) => {
            check(p.blob_decodes == 0, "fully-covered aggregate decodes zero blobs");
            check(p.summary_answered_batches > 0, "fully-covered aggregate uses summaries");
        }
        None => check(false, "agg_full_pushdown point present"),
    }
    match find(&current, "agg_boundary_pushdown") {
        Some(p) => {
            check(
                p.blob_decodes < p.summary_answered_batches,
                "boundary aggregate decodes only boundary batches",
            );
        }
        None => check(false, "agg_boundary_pushdown point present"),
    }
    match (find(&current, "scan_cold"), find(&current, "scan_warm")) {
        (Some(cold), Some(warm)) => {
            check(
                warm.blob_decodes * 5 <= cold.blob_decodes.max(1),
                "warm scans decode >=5x fewer blobs than cold",
            );
            check(warm.cache_hits > 0, "warm scans hit the decode cache");
        }
        _ => check(false, "scan_cold and scan_warm points present"),
    }
    match (find(&current, "agg_full_pushdown"), find(&current, "agg_full_rowpath_cold")) {
        (Some(push), Some(row)) => {
            check(push.blob_decodes < row.blob_decodes, "pushdown decodes less than the row path");
        }
        _ => check(false, "pushdown and rowpath points present"),
    }

    // Hostile-ingest counter gates — deterministic, baseline-free: late
    // arrivals must be routed through the side buffer, and a tombstone
    // must knock exactly the overlapping batches off the summary fast
    // path (summary soundness under deletes).
    {
        let h = Historian::builder().build().unwrap();
        h.define_schema_type(TableConfig::new(SchemaType::new("g", ["v"])).with_batch_size(16))
            .unwrap();
        h.register_source("g", SourceId(1), SourceClass::irregular_high()).unwrap();
        let w = h.writer("g").unwrap();
        for i in 0..128i64 {
            w.write(&Record::dense(SourceId(1), Timestamp(1_000_000 + i * 10_000), [i as f64]))
                .unwrap();
        }
        // Barrier first so every seal (and its watermark advance) has
        // landed; the next row is then deterministically late.
        h.flush().unwrap();
        w.write(&Record::dense(SourceId(1), Timestamp(999), [0.0])).unwrap();
        h.flush().unwrap();
        let sum = |name: &str| h.registry().sum_counter(name);
        check(sum("odh_ooo_side_rows_total") == 1, "late arrival routed through the side buffer");
        let q = "select COUNT(*), SUM(v), MIN(v), MAX(v) from g_v";
        let (s0, d0) =
            (sum("odh_table_summary_answered_batches_total"), sum("odh_table_blob_decodes_total"));
        h.sql(q).unwrap();
        let (s1, d1) =
            (sum("odh_table_summary_answered_batches_total"), sum("odh_table_blob_decodes_total"));
        check(d1 - d0 == 0, "clean aggregate decodes zero blobs");
        check(s1 - s0 > 0, "clean aggregate answers from summaries");
        // Tombstone inside exactly one sealed batch.
        h.delete("g", &DeletePredicate::all_sources(1_170_000, 1_190_000)).unwrap();
        h.sql(q).unwrap();
        let (s2, d2) =
            (sum("odh_table_summary_answered_batches_total"), sum("odh_table_blob_decodes_total"));
        check(d2 - d1 == 1, "tombstoned aggregate decodes exactly the overlapping batch");
        check(s2 - s1 == (s1 - s0) - 1, "non-overlapping batches keep the summary fast path");
        check(sum("odh_tombstone_masked_rows_total") > 0, "tombstone masking is attributed");
        let report = h.explain_analyze(q).unwrap();
        check(
            report.contains("tombstone_masked_rows="),
            "EXPLAIN ANALYZE attributes tombstone filtering",
        );
    }

    // Vectorized-execution gates. The in-run speedup compares the same
    // warm-cache aggregate, decoded on both sides (its tag predicate keeps
    // summaries out), so the only variable is columnar versus
    // tuple-at-a-time execution — an apples-to-apples ratio that is
    // stable on shared CI hardware.
    let speedup_floor = env_pct("VEC_SPEEDUP_FLOOR", 1.5);
    match (find(&current, "vec_scan_agg"), find(&current, "row_scan_agg")) {
        (Some(v), Some(r)) => {
            let ratio = v.qps / r.qps.max(1e-9);
            check(
                ratio >= speedup_floor,
                &format!(
                    "vectorized scan+aggregate >= {speedup_floor}x row path in-run \
                     (got {ratio:.2}x)"
                ),
            );
        }
        _ => check(false, "vec_scan_agg and row_scan_agg points present"),
    }
    match find(&current, "bucket_pushdown_aligned") {
        Some(p) => {
            check(p.blob_decodes == 0, "batch-aligned time_bucket decodes zero blobs");
            check(p.summary_answered_batches > 0, "batch-aligned time_bucket uses summaries");
        }
        None => check(false, "bucket_pushdown_aligned point present"),
    }
    for op in ["vec_downsample", "vec_last_point", "vec_gap_fill", "vec_asof_join"] {
        check(find(&current, op).is_some(), &format!("{op} template point present"));
    }
    // VQ2, LAST per source, reads each source newest-first and stops
    // once its newest batch settles it: one batch per source at most,
    // not every batch of the table.
    if let Some(p) = find(&current, "vec_last_point") {
        let touched = p.cache_hits + p.cache_misses;
        check(
            touched <= p.sources,
            &format!("last-point query touches <= {} batches (got {touched})", p.sources),
        );
    }
    // VQ4's left side is one source's window, so its right scan reads
    // that source only, up to the window's end. Each side fetches its
    // batches separately and touches at most the source's batches, so
    // both together stay within twice those, not the table's.
    if let Some(p) = find(&current, "vec_asof_join") {
        let held = (p.points / p.sources.max(1)).div_ceil(QUERY_BATCH_ROWS);
        let touched = p.cache_hits + p.cache_misses;
        check(
            touched <= 2 * held,
            &format!("one-source ASOF join touches <= 2 x {held} source batches (got {touched})"),
        );
    }

    // Regression gate — wall-time tolerance per op against the baseline.
    println!("\n{:>24} {:>10} {:>10} {:>8}  gate", "op", "base qps", "now qps", "delta");
    for p in &current {
        let (delta_pct, ok, base_qps) = match find(&baseline, &p.op) {
            Some(b) => {
                let d = (p.qps / b.qps.max(1e-9) - 1.0) * 100.0;
                (d, d >= -tolerance, b.qps)
            }
            // New op with no baseline: nothing to regress against.
            None => (0.0, true, f64::NAN),
        };
        if !ok {
            failures += 1;
        }
        println!(
            "{:>24} {:>10.1} {:>10.1} {:>+7.1}%  {}",
            p.op,
            base_qps,
            p.qps,
            delta_pct,
            if ok { "ok" } else { "REGRESSED" }
        );
    }

    if failures > 0 {
        eprintln!("FAIL: {failures} gate check(s) failed");
        std::process::exit(1);
    }
    println!("PASS");
}
