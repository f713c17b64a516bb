//! EXPLAIN ANALYZE golden test over a fixed IoT-X-style query set.
//!
//! The fixture is deterministic (one server, fixed sources, fixed
//! timestamps), so every plan line, operator row/byte count, and
//! read-path attribution counter is reproducible; only wall-clock `time=`
//! tokens vary and are normalized away. Regenerate the golden file with
//! `UPDATE_GOLDEN=1 cargo test --test explain_analyze`.

use odh_core::Historian;
use odh_storage::TableConfig;
use odh_types::{Record, SchemaType, SourceClass, SourceId, Timestamp};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/explain_analyze.txt");

/// The paper's IoT-X vehicle workload in miniature: 4 high-frequency
/// sources × 96 samples, batch size 16 → 24 sealed batches.
fn vehicle_historian() -> Historian {
    let h = Historian::builder().servers(1).build().unwrap();
    h.define_schema_type(
        TableConfig::new(SchemaType::new("vehicle_data", ["speed", "rpm", "fuel"]))
            .with_batch_size(16),
    )
    .unwrap();
    for id in 0..4u64 {
        h.register_source("vehicle_data", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    let w = h.writer("vehicle_data").unwrap();
    for i in 0..96i64 {
        for id in 0..4u64 {
            w.write(&Record::dense(
                SourceId(id),
                Timestamp(i * 1_000_000),
                [60.0 + (i % 20) as f64, 2000.0 + i as f64, 50.0 - i as f64 * 0.1],
            ))
            .unwrap();
        }
    }
    w.flush().unwrap();
    h
}

const QUERIES: [&str; 9] = [
    // Whole-fleet aggregate: answered entirely from seal-time summaries.
    "select COUNT(*), AVG(speed), MAX(rpm) from vehicle_data_v",
    // Range aggregate cutting batches mid-way: boundary batches decode.
    "select COUNT(*), SUM(fuel) from vehicle_data_v where timestamp between 8000000 and 79000000",
    // Single-vehicle history: the row path with source pruning.
    "select timestamp, speed from vehicle_data_v where id = 2",
    // Projection + sort + limit over the fleet.
    "select speed, rpm from vehicle_data_v order by rpm desc limit 5",
    // Re-scan: the decode cache answers, zero fresh decodes.
    "select timestamp, speed from vehicle_data_v where id = 2",
    // Downsample aligned with the 16-row batch grid: every bucket is
    // covered by whole batches, answered from summaries without decode.
    "select time_bucket(16000000, timestamp), COUNT(*), AVG(speed) from vehicle_data_v \
     group by time_bucket(16000000, timestamp)",
    // Last-point per vehicle: storage reads each vehicle newest-first
    // and stops at its newest batch, which settles its LAST.
    "select id, LAST(speed) from vehicle_data_v group by id",
    // Gap-filled downsample of one vehicle (dense fixture: no holes,
    // but the operator pipeline is exercised end to end).
    "select time_bucket_gapfill(16000000, timestamp), AVG(fuel) from vehicle_data_v \
     where id = 0 and timestamp between 0 and 95000000 \
     group by time_bucket_gapfill(16000000, timestamp)",
    // AS-OF self-join: each sample paired with the freshest sample at
    // or before it for the same vehicle.
    "select a.timestamp, a.speed, b.rpm from vehicle_data_v a asof join vehicle_data_v b \
     on a.id = b.id and a.timestamp >= b.timestamp \
     where a.id = 1 and a.timestamp between 0 and 10000000",
];

/// Replace every wall-clock token (`time=…ns`, `plan_time=…ns`,
/// `exec_time=…ns`) with a fixed placeholder.
fn normalize(report: &str) -> String {
    report
        .split('\n')
        .map(|line| {
            line.split(' ')
                .map(|tok| {
                    let timing = ["time=", "plan_time=", "exec_time="]
                        .iter()
                        .any(|p| tok.starts_with(p) && tok.ends_with("ns"));
                    if timing {
                        let key = tok.split('=').next().unwrap();
                        format!("{key}=Xns")
                    } else {
                        tok.to_string()
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn explain_analyze_matches_golden() {
    let h = vehicle_historian();
    let mut report = String::new();
    for (i, q) in QUERIES.iter().enumerate() {
        report.push_str(&format!("== Q{} {q}\n", i + 1));
        report.push_str(&normalize(&h.explain_analyze(q).unwrap()));
        report.push('\n');
    }
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(GOLDEN, &report).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing; regenerate with UPDATE_GOLDEN=1");
    assert_eq!(
        report, golden,
        "EXPLAIN ANALYZE output drifted; regenerate with UPDATE_GOLDEN=1 if intended"
    );
}

fn attribution(report: &str, key: &str) -> u64 {
    report
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key}=")))
        .expect("attribution line present")
        .parse()
        .unwrap()
}

/// The same aggregate shape reports zero blob decodes from the registry
/// when summaries answer it; a tag predicate (true of every row) keeps
/// summaries out, so vectorized execution decodes every batch; the row
/// path decodes every batch too.
#[test]
fn pushdown_ablation_flips_registry_decode_attribution() {
    let q = "select COUNT(*), AVG(speed), MAX(rpm) from vehicle_data_v";
    let decoded = "select COUNT(*), AVG(speed), MAX(rpm) from vehicle_data_v where fuel > 0";

    let h = vehicle_historian();
    let report = h.explain_analyze(q).unwrap();
    assert!(report.contains("op=vectorized_agg vehicle_data_v"), "{report}");
    assert_eq!(attribution(&report, "summary_answered_batches"), 24, "{report}");
    assert_eq!(attribution(&report, "blob_decodes"), 0, "{report}");

    // Fresh historian (cold decode cache), summaries ruled out by the tag
    // predicate: vectorized execution decodes every one of the 24 sealed
    // batches.
    let h = vehicle_historian();
    let report = h.explain_analyze(decoded).unwrap();
    assert!(report.contains("op=vectorized_agg vehicle_data_v"), "{report}");
    assert_eq!(attribution(&report, "summary_answered_batches"), 0, "{report}");
    assert_eq!(attribution(&report, "blob_decodes"), 24, "{report}");

    // Vectorized execution off: the row path, same decode bill.
    let h = vehicle_historian();
    h.set_vectorized(false);
    let report = h.explain_analyze(q).unwrap();
    assert!(report.contains("op=scan vehicle_data_v"), "{report}");
    assert_eq!(attribution(&report, "summary_answered_batches"), 0, "{report}");
    assert_eq!(attribution(&report, "blob_decodes"), 24, "{report}");
}

/// `time_bucket` whose buckets are covered by whole batches answers from
/// seal-time summaries — zero blob decodes — and the vectorized profile
/// reports batch/selectivity attribution.
#[test]
fn time_bucket_over_covered_batches_decodes_nothing() {
    let h = vehicle_historian();
    let report = h
        .explain_analyze(
            "select time_bucket(16000000, timestamp), COUNT(*), AVG(speed) from vehicle_data_v \
             group by time_bucket(16000000, timestamp)",
        )
        .unwrap();
    assert!(report.contains("op=vectorized_agg vehicle_data_v rows=6"), "{report}");
    assert!(report.contains("batches=24"), "{report}");
    assert_eq!(attribution(&report, "summary_answered_batches"), 24, "{report}");
    assert_eq!(attribution(&report, "blob_decodes"), 0, "{report}");

    // A shape summaries cannot answer (LAST) reports batch counts and
    // selection-vector selectivity in its operator line too.
    let report = h.explain_analyze("select id, LAST(speed) from vehicle_data_v group by id");
    let report = report.unwrap();
    assert!(report.contains("op=vectorized_agg vehicle_data_v"), "{report}");
    assert!(report.contains("batches="), "{report}");
    assert!(report.contains("rows_selected="), "{report}");
}
