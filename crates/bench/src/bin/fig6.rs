//! Figure 6 — "Insert throughput and CPU rate for the LD datasets".
//!
//! WS1 over LD(1..10) (i million weather stations at a 23 s effective
//! interval, 15 sparse tags) for ODH, RDB, and MySQL. Shapes to
//! reproduce: ODH's plateau (~1.5M points/s on the paper's hardware) above
//! both row stores; *but* RDB doing unexpectedly well because the wide
//! (~86-byte) rows amortize per-record disk work — the gap here is much
//! smaller than in Fig. 5/7.
//!
//! Env: `IOTX_SCALE` station divisor (default 100), `LD_SECS` dataset
//! seconds (default 30), `WS1_WALL_LIMIT` (default 10 s),
//! `FIG6_STEPS` which i values to run (default "1,2,4,6,8,10").

use iotx::ld::{observation_rel_schema, LdSpec, ObservationGen};
use iotx::sink::JdbcSink;
use iotx::ws1::{format_reports, run_ws1, Ws1Options, Ws1Report};
use odh_bench::{load_ld_odh, BENCH_CORES};
use odh_rdb::RdbProfile;
use odh_sim::ResourceMeter;

fn main() {
    odh_bench::banner("Figure 6: LD insert throughput and CPU rate", "§5.3, Fig. 6(a,b)");
    let scale = iotx::env_scale(100);
    let secs: i64 = std::env::var("LD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(30);
    let wall: f64 =
        std::env::var("WS1_WALL_LIMIT").ok().and_then(|v| v.parse().ok()).unwrap_or(10.0);
    let steps: Vec<u32> = std::env::var("FIG6_STEPS")
        .unwrap_or_else(|_| "1,2,4,6,8,10".into())
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .collect();
    println!("station divisor: {scale}; dataset seconds: {secs}; wall cap: {wall}s\n");

    let opts = Ws1Options { wall_limit_secs: wall };
    let mut reports: Vec<Ws1Report> = Vec::new();
    for &i in &steps {
        let spec = LdSpec::scaled(i, scale, secs);
        let (_, r) = load_ld_odh(&spec, opts).unwrap();
        let mut r = r;
        r.dataset = format!("LD({i})");
        reports.push(r);
        for profile in [RdbProfile::RDB, RdbProfile::MYSQL] {
            let meter = ResourceMeter::new(BENCH_CORES);
            let mut sink =
                JdbcSink::new(profile, observation_rel_schema(spec.tags), meter, 1000).unwrap();
            let mut r = run_ws1(
                &format!("LD({i})"),
                spec.offered_pps(),
                ObservationGen::new(&spec),
                &mut sink,
                opts,
            )
            .unwrap();
            r.dataset = format!("LD({i})");
            reports.push(r);
        }
        eprintln!("  LD({i}) done");
    }
    println!("{}", format_reports(&reports));
    odh_bench::save_or_exit("fig6_ld_insert", &reports);

    println!("\nshape: ODH capacity / RDB capacity per step (expect a modest gap —");
    println!("wide 86-byte rows are the row store's best case, §5.3)");
    for &i in &steps {
        let name = format!("LD({i})");
        let odh = reports.iter().find(|r| r.dataset == name && r.system == "ODH").unwrap();
        let rdb = reports.iter().find(|r| r.dataset == name && r.system == "RDB").unwrap();
        println!("  {name}: {:.1}x", odh.capacity_pps / rdb.capacity_pps.max(1.0));
    }
}
