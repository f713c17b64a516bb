//! Ablations over the design choices DESIGN.md calls out:
//!
//! 1. **batch size `b`** — §2: "the batch size set by the user". Sweeps
//!    ingest capacity, storage footprint, and historical-query latency.
//! 2. **RTS vs IRTS for regular data** — what implicit timestamps buy: the
//!    same perfectly regular stream stored via its regular class (RTS,
//!    timestamps elided) vs declared irregular (IRTS, delta-of-delta block).
//! 3. **MG group size** — grouping across sources trades slice-query cost
//!    against per-source historical cost.
//! 4. **compression policy** — lossless vs lossy error-bound sweep on
//!    weather-like data.

use odh_compress::column::Policy;
use odh_core::Historian;
use odh_storage::TableConfig;
use odh_types::{Duration, Record, SchemaType, SourceClass, SourceId, Timestamp};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize, Default)]
struct AblationReport {
    batch_size: Vec<(usize, f64, u64, f64)>,
    rts_vs_irts: [(String, u64); 2],
    group_size: Vec<(u64, f64, f64)>,
    policy: Vec<(String, u64, f64)>,
}

fn regular_stream(n_sources: u64, points_per_source: i64) -> Vec<Record> {
    let mut out = Vec::new();
    for i in 0..points_per_source {
        for s in 0..n_sources {
            out.push(Record::dense(
                SourceId(s),
                Timestamp(i * 20_000),
                [(i as f64 * 0.01).sin() * 10.0 + s as f64],
            ));
        }
    }
    out
}

fn build(
    b: usize,
    group: u64,
    policy: Policy,
    class: SourceClass,
    n_sources: u64,
) -> Arc<Historian> {
    let h = Arc::new(Historian::builder().build().unwrap());
    h.define_schema_type(
        TableConfig::new(SchemaType::new("t", ["v"]))
            .with_batch_size(b)
            .with_mg_group_size(group)
            .with_policy(policy),
    )
    .unwrap();
    for s in 0..n_sources {
        h.register_source("t", SourceId(s), class).unwrap();
    }
    h
}

fn ingest(h: &Arc<Historian>, records: &[Record]) -> f64 {
    let w = h.writer("t").unwrap();
    let t = Instant::now();
    for r in records {
        w.write(r).unwrap();
    }
    h.flush().unwrap();
    records.len() as f64 / t.elapsed().as_secs_f64()
}

fn main() {
    odh_bench::banner("Ablations: batch size, RTS vs IRTS, MG group size, policy", "DESIGN.md §5");
    let mut report = AblationReport::default();
    let class_reg = SourceClass::regular_high(Duration::from_hz(50.0));

    // 1. Batch size sweep.
    println!("batch size b (50 sources × 4000 regular points):");
    println!("{:>8} {:>14} {:>12} {:>14}", "b", "ingest rec/s", "storage KB", "hist query µs");
    let stream = regular_stream(50, 4000);
    for b in [16usize, 64, 256, 1024, 4096] {
        let h = build(b, 1000, Policy::Lossless, class_reg, 50);
        let rate = ingest(&h, &stream);
        let t = Instant::now();
        let r = h.sql("select COUNT(*), AVG(v) from t_v where id = 25").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64().unwrap(), 4000);
        let q_us = t.elapsed().as_secs_f64() * 1e6;
        let kb = h.storage_bytes() / 1024;
        println!("{b:>8} {rate:>14.0} {kb:>12} {q_us:>14.0}");
        report.batch_size.push((b, rate, kb, q_us));
    }

    // 2. RTS vs IRTS on the same regular stream.
    println!("\nRTS (implicit timestamps) vs IRTS (stored timestamps), same stream:");
    let h_rts = build(512, 1000, Policy::Lossless, class_reg, 50);
    ingest(&h_rts, &stream);
    let h_irts = build(512, 1000, Policy::Lossless, SourceClass::irregular_high(), 50);
    ingest(&h_irts, &stream);
    let (rts_b, irts_b) = (h_rts.storage_bytes(), h_irts.storage_bytes());
    println!("  RTS : {:>8} KB", rts_b / 1024);
    println!("  IRTS: {:>8} KB ({:.2}x)", irts_b / 1024, irts_b as f64 / rts_b as f64);
    report.rts_vs_irts = [("RTS".into(), rts_b), ("IRTS".into(), irts_b)];

    // 3. MG group size: slice vs historical latency for 2000 slow meters.
    println!("\nMG group size (2000 meters × 50 sweeps):");
    println!("{:>8} {:>14} {:>16}", "group", "slice ms", "historical ms");
    let meters: Vec<Record> = (0..50i64)
        .flat_map(|i| {
            (0..2000u64).map(move |s| {
                Record::dense(SourceId(s), Timestamp(i * 900_000_000), [s as f64 + i as f64])
            })
        })
        .collect();
    for group in [50u64, 200, 1000, 4000] {
        let h = build(512, group, Policy::Lossless, SourceClass::irregular_low(), 2000);
        ingest(&h, &meters);
        let t = Instant::now();
        let r = h
            .sql(
                "select COUNT(*), AVG(v) from t_v where timestamp between \
                 '1970-01-01 05:00:00' and '1970-01-01 05:14:59'",
            )
            .unwrap();
        assert_eq!(r.rows[0].get(0).as_i64().unwrap(), 2000);
        let slice_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let r = h.sql("select COUNT(*), AVG(v) from t_v where id = 777").unwrap();
        assert_eq!(r.rows[0].get(0).as_i64().unwrap(), 50);
        let hist_ms = t.elapsed().as_secs_f64() * 1e3;
        println!("{group:>8} {slice_ms:>14.2} {hist_ms:>16.2}");
        report.group_size.push((group, slice_ms, hist_ms));
    }

    // 4. Compression policy sweep on smooth data.
    println!("\ncompression policy (smooth signal):");
    println!("{:>16} {:>12} {:>10}", "policy", "storage KB", "vs lossless");
    let mut base = 0u64;
    for (name, policy) in [
        ("lossless", Policy::Lossless),
        ("lossy 0.01", Policy::Lossy { max_dev: 0.01 }),
        ("lossy 0.1", Policy::Lossy { max_dev: 0.1 }),
        ("lossy 1.0", Policy::Lossy { max_dev: 1.0 }),
    ] {
        let h = build(512, 1000, policy, class_reg, 50);
        ingest(&h, &stream);
        let kb = h.storage_bytes() / 1024;
        if base == 0 {
            base = kb.max(1);
        }
        println!("{name:>16} {kb:>12} {:>9.2}x", base as f64 / kb.max(1) as f64);
        report.policy.push((name.to_string(), kb, base as f64 / kb.max(1) as f64));
    }

    println!();
    odh_bench::save_or_exit("ablation", &report);
}
