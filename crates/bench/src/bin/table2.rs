//! Table 2 — "Performance Test on WAMS under different PMU Settings".
//!
//! Three settings of Power Grid A's Wide Area Measurement System: 2000
//! PMUs @ 25 Hz on 32 cores, 3000 @ 50 Hz on 32, 5000 @ 50 Hz on 8. The
//! paper reports avg/max CPU load at the fixed arrival rate; we reproduce
//! them on the calibrated CPU model over the stream's own timeline.
//!
//! Env: `WAMS_SECS` virtual seconds per setting (default 20),
//! `IOTX_SCALE` divides PMU counts (default 10; loads are extrapolated
//! linearly, the linearity Table 2 itself demonstrates).

use iotx::cases::{wams, WamsSetting};

fn main() {
    odh_bench::banner("Table 2: WAMS PMU CPU loads", "§4.1, Table 2");
    let secs: i64 = std::env::var("WAMS_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(20);
    let scale = iotx::env_scale(10);
    println!("virtual seconds per setting: {secs}; PMU scale divisor: {scale}\n");
    println!(
        "{:<3} {:<14} {:>7} {:>12} {:>12} {:>12}   paper avg/max",
        "#", "PMU setting", "#cores", "points/s", "avg CPU", "max CPU"
    );
    let paper = [(0.6, 1.7), (2.2, 4.3), (16.8, 25.0)];
    let mut reports = Vec::new();
    for (i, setting) in WamsSetting::paper().into_iter().enumerate() {
        let r = wams(setting, secs, scale).expect("wams run");
        println!(
            "{:<3} {:<14} {:>7} {:>12.0} {:>11.2}% {:>11.2}%   {:>5}% / {:>4}%",
            i + 1,
            format!("{}@{} Hz", setting.pmus, setting.hz),
            setting.cores,
            r.offered_pps,
            r.avg_cpu * 100.0,
            r.max_cpu * 100.0,
            paper[i].0,
            paper[i].1,
        );
        reports.push(r);
    }
    println!();
    odh_bench::save_or_exit("table2_wams", &reports);
    println!("shape check: CPU load ≈ linear in points/s at fixed cores (settings 1→2),");
    println!("and inversely proportional to cores (setting 3 runs on 8 of 32).");
}
