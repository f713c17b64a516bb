//! Table 8 — "Query performance for the three candidates".
//!
//! WS2: TQ1–TQ4 on TD(5,2) and LQ1–LQ4 on LD(5), 100 queries per
//! template, against ODH, RDB, and MySQL. Shapes to reproduce (§5.3):
//! the row stores beat ODH on the simple templates (TQ1/TQ2 and all of
//! LQ1–LQ3 — the data-router metadata lookup plus VTI row assembly
//! dominate, catastrophically so for LQ1's tiny result sets), while ODH is
//! competitive or ahead where the tag-oriented blob projection pays off
//! (TQ3, TQ4, LQ4).
//!
//! Env: `TD_SECS` (default 20), `LD_SECS` (default 120), `IOTX_SCALE` LD
//! divisor (default 500), `WS2_QUERIES` per template (default 100).

use iotx::ld::LdSpec;
use iotx::td::TdSpec;
use iotx::ws1::Ws1Options;
use iotx::ws2::{format_reports, run_template, OpNames, Template, Ws2Report};
use odh_bench::{ld_meta, load_ld_baseline, load_ld_odh, load_td_baseline, load_td_odh, td_meta};
use odh_rdb::RdbProfile;

fn main() {
    odh_bench::banner("Table 8: query performance (WS2)", "§5.3, Table 8");
    let td_secs: i64 = std::env::var("TD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(10);
    let ld_secs: i64 = std::env::var("LD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(120);
    let scale = iotx::env_scale(500);
    let n_queries: u64 =
        std::env::var("WS2_QUERIES").ok().and_then(|v| v.parse().ok()).unwrap_or(100);
    // Data preparation must complete for fair querying (the paper loads
    // WS1 fully before WS2); the cap only guards against runaways.
    let opts = Ws1Options { wall_limit_secs: 600.0 };
    println!("TD(5,2)@{td_secs}s, LD(5)/{scale}@{ld_secs}s, {n_queries} queries/template\n");

    let mut reports: Vec<Ws2Report> = Vec::new();

    // ---- TD(5,2) ----
    let td_spec = TdSpec::scaled(5, 2, td_secs);
    let meta = td_meta(&td_spec);
    eprintln!("loading TD(5,2) into ODH...");
    let (odh, _) = load_td_odh(&td_spec, opts).unwrap();
    let odh_target = odh.target(OpNames::odh("trade"));
    for (k, tpl) in Template::TD.into_iter().enumerate() {
        reports.push(run_template(&odh_target, tpl, &meta, n_queries, 42 + k as u64).unwrap());
        eprintln!("  ODH {} done", tpl.id());
    }
    drop(odh_target);
    for profile in [RdbProfile::RDB, RdbProfile::MYSQL] {
        eprintln!("loading TD(5,2) into {}...", profile.name);
        let (base, _) = load_td_baseline(&td_spec, profile, opts).unwrap();
        let target = base.target(OpNames::rdb_trade());
        for (k, tpl) in Template::TD.into_iter().enumerate() {
            reports.push(run_template(&target, tpl, &meta, n_queries, 42 + k as u64).unwrap());
            eprintln!("  {} {} done", profile.name, tpl.id());
        }
    }

    // ---- LD(5) ----
    let ld_spec = LdSpec::scaled(5, scale, ld_secs);
    let meta = ld_meta(&ld_spec);
    eprintln!("loading LD(5) into ODH...");
    let (odh, _) = load_ld_odh(&ld_spec, opts).unwrap();
    // The paper queried LD in its freshly ingested (MG) layout — that is
    // what produces Table 8's LD shapes (LQ1's group-amplified historical
    // reads, fast MG slices). Set TABLE8_REORG=1 to measure the
    // reorganized per-source layout instead (Table 1's historical column).
    if std::env::var("TABLE8_REORG").is_ok() {
        let moved = odh.historian.reorganize().unwrap();
        eprintln!("  reorganized {moved} MG points into per-source batches");
    }
    let odh_target = odh.target(OpNames::odh("observation"));
    for (k, tpl) in Template::LD.into_iter().enumerate() {
        reports.push(run_template(&odh_target, tpl, &meta, n_queries, 77 + k as u64).unwrap());
        eprintln!("  ODH {} done", tpl.id());
    }
    drop(odh_target);
    for profile in [RdbProfile::RDB, RdbProfile::MYSQL] {
        eprintln!("loading LD(5) into {}...", profile.name);
        let (base, _) = load_ld_baseline(&ld_spec, profile, opts).unwrap();
        let target = base.target(OpNames::rdb_observation());
        for (k, tpl) in Template::LD.into_iter().enumerate() {
            reports.push(run_template(&target, tpl, &meta, n_queries, 77 + k as u64).unwrap());
            eprintln!("  {} {} done", profile.name, tpl.id());
        }
    }

    println!("{}", format_reports(&reports));
    odh_bench::save_or_exit("table8_queries", &reports);

    println!("\nshape: ODH/RDB throughput ratio per template (paper: <1 for TQ1, TQ2,");
    println!("LQ1, LQ2, LQ3 — worst for LQ1; >1 for TQ3, TQ4, LQ4)");
    for tpl in Template::TD.into_iter().chain(Template::LD) {
        let find = |sys: &str| {
            reports
                .iter()
                .find(|r| r.template == tpl.id() && r.system == sys)
                .map(|r| r.dp_per_sec)
                .unwrap_or(0.0)
        };
        println!("  {}: {:.2}x", tpl.id(), find("ODH") / find("RDB").max(1e-9));
    }
}
