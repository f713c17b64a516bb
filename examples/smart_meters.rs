//! Smart meters (AMI) — the paper's §4.2 scenario as an application.
//!
//! A province-scale Advanced Metering Infrastructure: hundreds of
//! thousands of meters (scaled down here) reporting every 15 minutes.
//! Regular low-frequency sources ingest through Mixed-Grouping batches;
//! after a day of sweeps a compaction pass drains sealed MG history into
//! per-meter RTS batches (timestamps become implicit — they are a fixed
//! 15-minute grid), and historical per-meter queries get fast.
//!
//! Run: `cargo run --release --example smart_meters`

use odh_core::Historian;
use odh_storage::TableConfig;
use odh_types::{
    DataType, Datum, Duration, Record, RelSchema, Row, SchemaType, SourceClass, SourceId, Timestamp,
};
use std::time::Instant;

const METERS: u64 = 20_000;
const SWEEPS: i64 = 96; // one day of 15-minute intervals

fn main() -> odh_types::Result<()> {
    let h = Historian::builder().servers(4).metered_cores(16).build()?;
    h.define_schema_type(
        TableConfig::new(SchemaType::new("meter", ["kwh", "voltage"]))
            .with_batch_size(512)
            .with_mg_group_size(1000),
    )?;
    let class = SourceClass::regular_low(Duration::from_minutes(15));
    for m in 0..METERS {
        h.register_source("meter", SourceId(m), class)?;
    }
    // Meter master data: which feeder each meter hangs off.
    let feeders = h.create_relational_table(RelSchema::new(
        "meter_info",
        [("id", DataType::I64), ("feeder", DataType::Str)],
    ));
    feeders.create_index("idx_id", "id")?;
    for m in 0..METERS as i64 {
        feeders.insert(&Row::new(vec![Datum::I64(m), Datum::str(format!("F{}", m % 8))]))?;
    }

    // One day of sweeps: every meter reports on the 15-minute grid.
    println!("ingesting {SWEEPS} sweeps of {METERS} meters...");
    let t = Instant::now();
    let w = h.writer("meter")?;
    for s in 0..SWEEPS {
        let ts = Timestamp(s * 900_000_000);
        for m in 0..METERS {
            // Daily load curve + per-meter offset.
            let phase = s as f64 / 96.0 * std::f64::consts::TAU;
            let kwh = 0.25 + 0.15 * (phase - 1.0).sin().max(0.0) + (m % 13) as f64 * 0.003;
            let volts = 229.0 + (m % 7) as f64 * 0.3;
            w.write(&Record::dense(SourceId(m), ts, [kwh, volts]))?;
        }
    }
    w.flush()?;
    let ingest = t.elapsed();
    println!(
        "  {} points in {:.2?} ({:.0} points/s)",
        METERS as i64 * SWEEPS * 2,
        ingest,
        (METERS as i64 * SWEEPS * 2) as f64 / ingest.as_secs_f64()
    );
    let (rts, irts, mg) = structure_counts(&h);
    println!("  batch records: RTS={rts} IRTS={irts} MG={mg}");

    // Real-time consumption report: the latest sweep, fused with feeders.
    let last = Timestamp((SWEEPS - 1) * 900_000_000);
    let t = Instant::now();
    let r = h.sql(&format!(
        "SELECT feeder, COUNT(*), AVG(kwh) FROM meter_v m, meter_info i \
         WHERE m.id = i.id AND timestamp BETWEEN '{}' AND '{}' \
         GROUP BY feeder ORDER BY feeder",
        last,
        last + Duration::from_minutes(15)
    ))?;
    println!("\nper-feeder slice of the latest sweep ({:.2?}):", t.elapsed());
    for row in &r.rows {
        println!("  {row}");
    }

    // Historical query on one meter, before and after reorganization.
    let hist = "SELECT timestamp, kwh FROM meter_v WHERE id = 4242";
    let t = Instant::now();
    let before = h.sql(hist)?;
    let before_t = t.elapsed();
    println!("\nhistory of meter 4242: {} readings ({before_t:.2?}) — MG path", before.rows.len());

    let t = Instant::now();
    let moved = h.reorganize()?;
    println!("reorganized {moved} points from MG into per-meter RTS batches ({:.2?})", t.elapsed());
    let (rts, irts, mg) = structure_counts(&h);
    println!("  batch records now: RTS={rts} IRTS={irts} MG={mg}");

    let t = Instant::now();
    let after = h.sql(hist)?;
    let after_t = t.elapsed();
    println!("history of meter 4242: {} readings ({after_t:.2?}) — RTS path", after.rows.len());
    assert_eq!(before.rows.len(), after.rows.len(), "reorg must not change results");
    println!(
        "speedup {:.1}x; storage {:.1} MB",
        before_t.as_secs_f64() / after_t.as_secs_f64().max(1e-9),
        h.storage_bytes() as f64 / 1e6
    );
    Ok(())
}

fn structure_counts(h: &Historian) -> (u64, u64, u64) {
    let mut totals = (0, 0, 0);
    for s in h.cluster().servers() {
        if let Ok(t) = s.table("meter") {
            let (a, b, c) = t.record_counts();
            totals = (totals.0 + a, totals.1 + b, totals.2 + c);
        }
    }
    totals
}
