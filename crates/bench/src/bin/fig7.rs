//! Figure 7 — "The number of tags vs data throughput for LD(10)".
//!
//! The record-size study: the Observation schema is truncated to 1..15
//! tags and LD(10) is replayed into ODH and RDB. The paper's shape: RDB's
//! point throughput is roughly proportional to tags-per-record (per-row
//! costs dominate, so fewer tags per row = fewer points per second), while
//! ODH stays high even at one tag ("the smaller the size of an operational
//! record ... the larger the write performance gap").
//!
//! Env: `IOTX_SCALE` station divisor (default 200), `LD_SECS` (default
//! 20), `FIG7_TAGS` comma list (default "1,2,4,8,15").

use iotx::ld::{observation_rel_schema, LdSpec, ObservationGen};
use iotx::sink::JdbcSink;
use iotx::ws1::{run_ws1, Ws1Options, Ws1Report};
use odh_bench::{load_ld_odh, BENCH_CORES};
use odh_rdb::RdbProfile;
use odh_sim::ResourceMeter;

fn main() {
    odh_bench::banner("Figure 7: tags per record vs write throughput, LD(10)", "§5.3, Fig. 7");
    let scale = iotx::env_scale(200);
    let secs: i64 = std::env::var("LD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(20);
    let tag_steps: Vec<usize> = std::env::var("FIG7_TAGS")
        .unwrap_or_else(|_| "1,2,4,8,15".into())
        .split(',')
        .filter_map(|v| v.trim().parse().ok())
        .collect();
    println!("station divisor: {scale}; dataset seconds: {secs}; tags: {tag_steps:?}\n");

    let opts = Ws1Options { wall_limit_secs: 15.0 };
    let mut reports: Vec<Ws1Report> = Vec::new();
    println!(
        "{:>5} {:>14} {:>14} {:>14} {:>10}",
        "tags", "ODH dp/s", "RDB dp/s", "ODH rec/s", "RDB rec/s"
    );
    for &tags in &tag_steps {
        let mut spec = LdSpec::scaled(10, scale, secs);
        spec.tags = tags;
        let name = format!("LD(10) tags={tags}");
        let (_, mut odh_r) = load_ld_odh(&spec, opts).unwrap();
        odh_r.dataset = name.clone();
        let meter = ResourceMeter::new(BENCH_CORES);
        let mut sink =
            JdbcSink::new(RdbProfile::RDB, observation_rel_schema(tags), meter, 1000).unwrap();
        let mut rdb_r =
            run_ws1(&name, spec.offered_pps(), ObservationGen::new(&spec), &mut sink, opts)
                .unwrap();
        rdb_r.dataset = name.clone();
        println!(
            "{:>5} {:>14.0} {:>14.0} {:>14.0} {:>10.0}",
            tags,
            odh_r.capacity_pps,
            rdb_r.capacity_pps,
            odh_r.records as f64 / odh_r.wall_secs,
            rdb_r.records as f64 / rdb_r.wall_secs,
        );
        reports.push(odh_r);
        reports.push(rdb_r);
    }
    println!();
    odh_bench::save_or_exit("fig7_tags", &reports);
    println!("shape: RDB's dp/s should grow with tag count (per-record cost amortized");
    println!("over more points) while ODH stays high even at 1 tag.");
}
