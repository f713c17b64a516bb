//! End-to-end benchmark of the ODH historian.
//!
//! `odh-perfbench --workload <wire_ingest|history_query|live_mixed> --seed <n>
//! --seconds <s> [--trace 0|1] [--trace-out <path>]`
//!
//! Prints the run's operation counts and, as the last line of standard
//! output, one JSON object: the end-to-end metrics untraced, or the
//! per-layer metrics with `--trace 1`. Exits 1 when any answer disagrees
//! with the oracle or any operation failed.

mod gen;
mod oracle;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: odh-perfbench --workload <wire_ingest|history_query|live_mixed> --seed <n> \
         --seconds <s> [--trace 0|1] [--trace-out <path>]"
    );
    std::process::exit(2)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut trace_out) = (1u64, 10.0f64, false, None);
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let v = it.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(v.clone()),
            "--seed" => seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = v == "1",
            "--trace-out" => trace_out = Some(PathBuf::from(v)),
            _ => usage(),
        }
    }
    let cfg = workloads::Config { seed, seconds, trace };
    let out = match workload.as_deref() {
        Some("wire_ingest") => workloads::wire_ingest(&cfg),
        Some("history_query") => workloads::history_query(&cfg),
        Some("live_mixed") => workloads::live_mixed(&cfg),
        _ => usage(),
    };

    for (kind, n) in &out.acct.attempted {
        let failed = out.acct.failed.get(kind).copied().unwrap_or(0);
        println!("ops {kind:<14} attempted {n:>9} failed {failed:>6}");
    }
    println!("WORK {}", num(out.work_s));
    if trace {
        let st = trace::self_times(&out.spans);
        eprintln!("{:<16} {:>9} {:>10} {:>10}", "span", "calls", "total_s", "self_s");
        for (name, (calls, total, own)) in &st {
            eprintln!("{name:<16} {calls:>9} {total:>10.4} {own:>10.4}");
        }
        if let Some(path) = &trace_out {
            if let Err(e) = trace::write_spans(path, &out.spans) {
                eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
            }
            let explain: String =
                out.explains.iter().map(|(t, p)| format!("== {t}\n{p}\n")).collect();
            let _ = std::fs::write(path.with_extension("explain.txt"), explain);
        }
    }
    let correct = out.acct.mismatches.is_empty() && !out.e2e.is_empty();
    let mut metrics: Vec<(String, f64, &str)> = if trace {
        out.layers
    } else {
        out.e2e.iter().map(|(n, v, u)| (n.to_string(), *v, *u)).collect()
    };
    if trace {
        metrics.push(("trace.spans".into(), out.spans.len() as f64, "count"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.acct.attempted().max(1),
        out.acct.failed(),
        body.join(", ")
    );
    if !correct || !out.acct.passed() {
        eprintln!(
            "perfbench: run rejected: {} mismatches, {} failed operations",
            out.acct.mismatches.len(),
            out.acct.failed()
        );
        std::process::exit(1);
    }
}
