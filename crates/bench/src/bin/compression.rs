//! §5.3's compression result (reported in text, not a numbered table):
//! "applying linear compression on LD(1) with a maximum deviation of 0.1
//! ... led to a storage size of 1360 MB, resulting an overall compression
//! factor of more than 35 compared to the sizes produced by the relational
//! databases."
//!
//! Also exercises the Fig. 3 selector: smooth LD columns choose the linear
//! codec, fluctuating PMU-style columns choose quantization, and the 4–16×
//! quantization band is checked.
//!
//! Env: `IOTX_SCALE` LD divisor (default 2000), `LD_SECS` (default 18400
//! — chosen so each station carries ~800 observations, the per-station
//! density of the paper's 13-day hurricane-Ike seed; compression ratios
//! collapse if batches are starved of per-source points).

use iotx::ld::{LdSpec, ObservationGen};
use iotx::sink::{JdbcSink, OdhSink, WriteSink};
use odh_bench::BENCH_CORES;
use odh_compress::column::{encode_column, Codec, Policy};
use odh_core::Historian;
use odh_rdb::RdbProfile;
use odh_sim::ResourceMeter;
use odh_storage::TableConfig;
use odh_types::{Record, SourceClass, SourceId};
use serde::Serialize;
use std::sync::Arc;

#[derive(Serialize)]
struct CompressionReport {
    records: u64,
    rdb_mb: f64,
    odh_lossless_mb: f64,
    odh_lossy_mb: f64,
    lossless_factor_vs_rdb: f64,
    lossy_factor_vs_rdb: f64,
    max_dev: f64,
}

/// Load into ODH and reorganize sealed MG history into per-source
/// RTS/IRTS batches — the state in which low-frequency history lives
/// long-term (Table 1), and the one the paper's compression numbers
/// describe. Note the MG drain re-encodes with the same policy, so a
/// lossy run compounds the bound to ≤2×max_dev; this is a storage study,
/// not an accuracy one.
fn load_odh(records: &[Record], spec: &LdSpec, policy: Policy) -> u64 {
    let h = Arc::new(Historian::builder().metered_cores(BENCH_CORES).build().unwrap());
    h.define_schema_type(
        TableConfig::new(iotx::ld::observation_schema_type(spec.tags))
            .with_batch_size(512)
            .with_mg_group_size(1000)
            .with_policy(policy),
    )
    .unwrap();
    for s in 0..spec.sensors {
        h.register_source("observation", SourceId(s), SourceClass::irregular_low()).unwrap();
    }
    let mut sink = OdhSink::new(h.clone(), "observation").unwrap();
    for r in records {
        sink.write(r).unwrap();
    }
    sink.finish().unwrap();
    h.reorganize().unwrap();
    h.flush().unwrap();
    sink.storage_bytes()
}

fn main() {
    odh_bench::banner("Compression study: lossy linear on LD(1)", "§5.3 text + Fig. 3");
    let scale = iotx::env_scale(2000);
    let secs: i64 = std::env::var("LD_SECS").ok().and_then(|v| v.parse().ok()).unwrap_or(18_400);
    let max_dev = 0.1;
    let spec = LdSpec::scaled(1, scale, secs);
    let records: Vec<Record> = ObservationGen::new(&spec).collect();
    println!("LD(1)/{scale} @ {secs}s → {} records\n", records.len());

    // Row-store footprint (the paper's comparison base).
    let mut rdb = JdbcSink::new(
        RdbProfile::RDB,
        iotx::ld::observation_rel_schema(spec.tags),
        ResourceMeter::unmetered(),
        1000,
    )
    .unwrap();
    for r in &records {
        rdb.write(r).unwrap();
    }
    rdb.finish().unwrap();
    let rdb_bytes = rdb.storage_bytes();

    let lossless = load_odh(&records, &spec, Policy::Lossless);
    let lossy = load_odh(&records, &spec, Policy::Lossy { max_dev });

    let report = CompressionReport {
        records: records.len() as u64,
        rdb_mb: rdb_bytes as f64 / 1e6,
        odh_lossless_mb: lossless as f64 / 1e6,
        odh_lossy_mb: lossy as f64 / 1e6,
        lossless_factor_vs_rdb: rdb_bytes as f64 / lossless as f64,
        lossy_factor_vs_rdb: rdb_bytes as f64 / lossy as f64,
        max_dev,
    };
    println!("RDB storage:            {:>10.2} MB", report.rdb_mb);
    println!(
        "ODH lossless:           {:>10.2} MB ({:.1}x vs RDB)",
        report.odh_lossless_mb, report.lossless_factor_vs_rdb
    );
    println!(
        "ODH lossy (dev {max_dev}):   {:>10.2} MB ({:.1}x vs RDB; paper: >35x)",
        report.odh_lossy_mb, report.lossy_factor_vs_rdb
    );

    // Fig. 3 selector sanity on representative columns.
    println!("\nFig. 3 variability-aware selection:");
    let ts: Vec<i64> = (0..4096i64).map(|i| i * 1_000_000).collect();
    let smooth: Vec<f64> = (0..4096).map(|i| 18.0 + (i as f64 * 0.003).sin() * 5.0).collect();
    let fluct: Vec<f64> = (0..4096).map(|i| (i as f64 * 2.3).sin()).collect();
    let (c1, b1) = encode_column(&ts, &smooth, Policy::Lossy { max_dev: 0.05 });
    let (c2, b2) = encode_column(&ts, &fluct, Policy::Lossy { max_dev: 0.01 });
    println!("  smooth weather column → {:?}, {:.1}x", c1, 4096.0 * 8.0 / b1.len() as f64);
    println!(
        "  PMU-style waveform    → {:?}, {:.1}x (paper band: 4–16x)",
        c2,
        4096.0 * 8.0 / b2.len() as f64
    );
    assert_eq!(c1, Codec::Linear);
    assert_eq!(c2, Codec::Quantize);

    println!();
    odh_bench::save_or_exit("compression_ld1", &report);
}
