//! Table 3 — "ODH test for connected vehicles".
//!
//! Company C's platform: 100k/200k/300k vehicles on ~10-second reporting
//! intervals, driven as a max-speed load test with an increasing number of
//! writer threads per setting (the paper attributes the superlinear CPU
//! growth to thread contention). Reports insert throughput (data
//! points/s), I/O throughput (bytes/s), CPU load over the wall clock, and
//! MB written.
//!
//! Env: `IOTX_SCALE` divides vehicle counts (default 100),
//! `VEHICLE_SECS` virtual seconds of data per setting (default 120).

use iotx::cases::vehicles;

fn main() {
    odh_bench::banner("Table 3: connected-vehicles load test", "§4.3, Table 3");
    let scale = iotx::env_scale(100);
    let secs: i64 = std::env::var("VEHICLE_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(120);
    println!("vehicle scale divisor: {scale}; virtual seconds: {secs}\n");
    println!(
        "{:<3} {:>10} {:>8} {:>14} {:>14} {:>10} {:>12}   paper dp/s | CPU",
        "#", "vehicles", "threads", "insert dp/s", "IO bytes/s", "avg CPU", "MB written"
    );
    let settings = [(100_000u64, 2usize), (200_000, 4), (300_000, 6)];
    let paper = [(2.2e6, 8.6), (4.4e6, 19.1), (5.6e6, 41.2)];
    let mut reports = Vec::new();
    for (i, (n, threads)) in settings.into_iter().enumerate() {
        let r = vehicles(n / scale, threads, secs).expect("vehicles run");
        println!(
            "{:<3} {:>10} {:>8} {:>14.0} {:>14.0} {:>9.1}% {:>12.1}   {:.1}M | {}%",
            i + 1,
            n / scale,
            r.threads,
            r.insert_pps,
            r.io_bps,
            r.avg_cpu * 100.0,
            r.mb_written,
            paper[i].0 / 1e6,
            paper[i].1,
        );
        reports.push(r);
    }
    println!();
    odh_bench::save_or_exit("table3_vehicles", &reports);
    println!("shape check: throughput grows sublinearly with vehicles/threads while CPU");
    println!("load grows superlinearly (contention), as in the paper's three rows.");
}
