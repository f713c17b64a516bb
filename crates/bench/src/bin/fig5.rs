//! Figure 5 — "Insert throughput and CPU rate for the TD datasets".
//!
//! WS1 over the 25 TD(i, j) settings (i·1000 accounts, j·20 Hz) for ODH,
//! RDB, and MySQL. The paper's panels plot achieved data throughput
//! against the offered rate (red dashed line) and the CPU rate; the shape
//! to reproduce: ODH tracks the offered line across the whole grid (upper
//! bound ~1M points/s on their hardware) while the row stores fall off it
//! by an order of magnitude and saturate their CPU model.
//!
//! Env: `TD_SECS` dataset seconds (default 2), `WS1_WALL_LIMIT` wall cap
//! per run in seconds (default 10 — the scaled stand-in for the paper's
//! 4-hour termination), `FIG5_GRID` = `full` (25 cells) or `edges`
//! (default: i and j sweeps through the corners).

use iotx::sink::JdbcSink;
use iotx::td::{trade_rel_schema, TdSpec, TradeGen};
use iotx::ws1::{format_reports, run_ws1, Ws1Options, Ws1Report};
use odh_bench::BENCH_CORES;
use odh_core::Historian;
use odh_rdb::RdbProfile;
use odh_sim::ResourceMeter;
use odh_storage::TableConfig;
use odh_types::{SourceClass, SourceId};
use std::sync::Arc;

fn main() {
    odh_bench::banner("Figure 5: TD insert throughput and CPU rate", "§5.3, Fig. 5(a,b)");
    let secs: i64 = std::env::var("TD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(4);
    let wall: f64 =
        std::env::var("WS1_WALL_LIMIT").ok().and_then(|v| v.parse().ok()).unwrap_or(10.0);
    let full = std::env::var("FIG5_GRID").map(|v| v == "full").unwrap_or(false);
    let cells: Vec<(u32, u32)> = if full {
        (1..=5).flat_map(|i| (1..=5).map(move |j| (i, j))).collect()
    } else {
        vec![(1, 1), (1, 3), (1, 5), (3, 3), (5, 1), (5, 3), (5, 5)]
    };
    println!("dataset seconds: {secs}; wall cap: {wall}s; cells: {cells:?}\n");

    let opts = Ws1Options { wall_limit_secs: wall };
    let mut reports: Vec<Ws1Report> = Vec::new();
    for &(i, j) in &cells {
        let spec = TdSpec::scaled(i, j, secs);
        // ODH.
        let h =
            Arc::new(Historian::builder().servers(2).metered_cores(BENCH_CORES).build().unwrap());
        h.define_schema_type(TableConfig::new(iotx::td::trade_schema_type()).with_batch_size(128))
            .unwrap();
        for a in 0..spec.accounts {
            h.register_source("trade", SourceId(a), SourceClass::irregular_high()).unwrap();
        }
        let mut sink = iotx::sink::OdhSink::new(h, "trade").unwrap();
        reports.push(
            run_ws1(
                &format!("TD({i},{j})"),
                spec.offered_pps(),
                TradeGen::new(&spec),
                &mut sink,
                opts,
            )
            .unwrap(),
        );
        // Row-store baselines.
        for profile in [RdbProfile::RDB, RdbProfile::MYSQL] {
            let meter = ResourceMeter::new(BENCH_CORES);
            let mut sink = JdbcSink::new(profile, trade_rel_schema(), meter, 1000).unwrap();
            reports.push(
                run_ws1(
                    &format!("TD({i},{j})"),
                    spec.offered_pps(),
                    TradeGen::new(&spec),
                    &mut sink,
                    opts,
                )
                .unwrap(),
            );
        }
        eprintln!("  TD({i},{j}) done");
    }
    println!("{}", format_reports(&reports));
    odh_bench::save_or_exit("fig5_td_insert", &reports);

    // Shape summary: ODH capacity vs the best row store, per cell.
    println!("\nshape: ODH capacity / best-baseline capacity per cell");
    for &(i, j) in &cells {
        let name = format!("TD({i},{j})");
        let odh = reports.iter().find(|r| r.dataset == name && r.system == "ODH").unwrap();
        let best = reports
            .iter()
            .filter(|r| r.dataset == name && r.system != "ODH")
            .map(|r| r.capacity_pps)
            .fold(0.0f64, f64::max);
        println!("  {name}: {:.1}x", odh.capacity_pps / best.max(1.0));
    }
}
