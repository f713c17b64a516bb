//! Dump the unified metrics exposition after a small representative
//! workload: durable ingest across two servers, a flush, a compaction
//! pass that drains MG history per source, summary-answered and row-path
//! SQL, and a decode-cache re-scan — enough to touch every pipeline stage
//! that registers metrics.
//!
//! Modes:
//! - default: print the full Prometheus-style exposition
//!   (`Historian::metrics_text`).
//! - `--names`: print just the sorted, de-duplicated metric names (labels
//!   stripped) — the surface the CI `obs-smoke` job diffs against
//!   `tests/golden/metrics_catalog.txt`.
//! - `--explain`: print `EXPLAIN ANALYZE` reports (per-operator
//!   rows/bytes/time + registry-attributed read-path deltas) for the
//!   workload's pushdown and row-scan queries instead of the exposition.

use odh_core::Historian;
use odh_net::{NetClient, NetServer, NetServerConfig};
use odh_storage::TableConfig;
use odh_types::{Record, SchemaType, SourceClass, SourceId, Timestamp};

fn run_workload() -> Historian {
    let h = Historian::builder().servers(2).durable(true).build().expect("build historian");
    h.define_schema_type(
        TableConfig::new(SchemaType::new("environ_data", ["temperature", "wind"]))
            .with_batch_size(16)
            .with_mg_group_size(4),
    )
    .expect("define schema type");
    for id in 0..8u64 {
        let class = if id < 4 {
            SourceClass::irregular_high()
        } else {
            SourceClass::regular_low(odh_types::Duration::from_minutes(15))
        };
        h.register_source("environ_data", SourceId(id), class).expect("register source");
    }
    let w = h.writer("environ_data").expect("writer");
    for i in 0..96i64 {
        for id in 0..4u64 {
            w.write(&Record::dense(
                SourceId(id),
                Timestamp(i * 1_000_000),
                [20.0 + i as f64, id as f64],
            ))
            .expect("write");
        }
    }
    for s in 0..12i64 {
        for id in 4..8u64 {
            w.write(&Record::dense(SourceId(id), Timestamp(s * 900_000_000), [5.0, id as f64]))
                .expect("write");
        }
    }
    w.flush().expect("flush");
    h.sync().expect("sync");
    h.reorganize().expect("reorganize");
    // Summary pushdown, then a row scan (cold + warm for the decode cache).
    h.sql("select COUNT(*), SUM(temperature) from environ_data_v").expect("pushdown query");
    h.sql("select temperature from environ_data_v").expect("row query");
    h.sql("select temperature from environ_data_v").expect("warm row query");
    // One loopback wire session so the odh_net_* front-door metrics show.
    let mut server =
        NetServer::serve(h.cluster().clone(), NetServerConfig::default()).expect("net server");
    let mut client =
        NetClient::connect(server.local_addr(), "environ_data", 2).expect("net client");
    let batch: Vec<Record> = (0..32i64)
        .map(|i| {
            Record::dense(SourceId(i as u64 % 4), Timestamp(200_000_000 + i * 1_000), [1.0, 2.0])
        })
        .collect();
    client.send_batch(&batch).expect("wire batch");
    client.finish().expect("wire finish");
    server.shutdown();
    h
}

/// EXPLAIN-style attribution for the wire front door: what the loopback
/// session cost, read back from the registry the server recorded into.
fn print_net_attribution(h: &Historian) {
    let reg = h.cluster().meter().registry();
    println!("== wire ingest (odh_net_*)");
    for name in [
        "odh_net_sessions_total",
        "odh_net_frames_total",
        "odh_net_rows_total",
        "odh_net_bytes_read_total",
        "odh_net_bytes_written_total",
        "odh_net_acks_total",
        "odh_net_commits_total",
        "odh_net_commit_retry_rounds_total",
        "odh_net_backpressure_events_total",
        "odh_net_errors_total",
    ] {
        println!("{name:>36} {}", reg.counter_value(name, &[]).unwrap_or(0));
    }
    let decode = reg.histogram("odh_net_frame_decode_us", &[]);
    println!(
        "{:>36} p50={}us p99={}us",
        "odh_net_frame_decode_us",
        decode.percentile(0.50),
        decode.percentile(0.99)
    );
}

/// Metric names appearing in an exposition: strip `{labels}` and the
/// value, de-duplicate, sort.
fn names_of(text: &str) -> Vec<String> {
    let mut names: Vec<String> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .map(|k| k.split('{').next().unwrap_or(k).to_string())
        .collect();
    names.sort();
    names.dedup();
    names
}

fn main() {
    let names_only = std::env::args().any(|a| a == "--names");
    let explain = std::env::args().any(|a| a == "--explain");
    let h = run_workload();
    if explain {
        for sql in [
            "select COUNT(*), AVG(temperature) from environ_data_v",
            "select temperature, wind from environ_data_v where id = 2",
        ] {
            println!("== {sql}");
            println!("{}", h.explain_analyze(sql).expect("explain analyze"));
        }
        print_net_attribution(&h);
        return;
    }
    let text = h.metrics_text();
    if names_only {
        for n in names_of(&text) {
            println!("{n}");
        }
    } else {
        print!("{text}");
    }
}
