//! The metric-name catalog is a frozen interface: dashboards and the CI
//! `obs-smoke` job key on these names. This test runs a workload touching
//! every pipeline stage and diffs the names the exposition emits against
//! the committed catalog — adding or renaming a metric must come with a
//! catalog update (regenerate with
//! `cargo run -p odh-bench --bin obs_dump -- --names`).

use odh_core::Historian;
use odh_net::{NetClient, NetServer, NetServerConfig};
use odh_storage::TableConfig;
use odh_types::{Duration, Record, SchemaType, SourceClass, SourceId, Timestamp};

fn full_workload() -> Historian {
    let h = Historian::builder().servers(2).durable(true).build().unwrap();
    h.define_schema_type(
        TableConfig::new(SchemaType::new("environ_data", ["temperature", "wind"]))
            .with_batch_size(16)
            .with_mg_group_size(4),
    )
    .unwrap();
    for id in 0..8u64 {
        let class = if id < 4 {
            SourceClass::irregular_high()
        } else {
            SourceClass::regular_low(Duration::from_minutes(15))
        };
        h.register_source("environ_data", SourceId(id), class).unwrap();
    }
    let w = h.writer("environ_data").unwrap();
    for i in 0..96i64 {
        for id in 0..4u64 {
            w.write(&Record::dense(
                SourceId(id),
                Timestamp(i * 1_000_000),
                [20.0 + i as f64, id as f64],
            ))
            .unwrap();
        }
    }
    for s in 0..12i64 {
        for id in 4..8u64 {
            w.write(&Record::dense(SourceId(id), Timestamp(s * 900_000_000), [5.0, id as f64]))
                .unwrap();
        }
    }
    w.flush().unwrap();
    h.sync().unwrap();
    h.reorganize().unwrap();
    h.sql("select COUNT(*), SUM(temperature) from environ_data_v").unwrap();
    h.sql("select temperature from environ_data_v").unwrap();
    h.sql("select temperature from environ_data_v").unwrap();
    // One loopback wire session so the odh_net_* front-door metrics show.
    let mut server = NetServer::serve(h.cluster().clone(), NetServerConfig::default()).unwrap();
    let mut client = NetClient::connect(server.local_addr(), "environ_data", 2).unwrap();
    let batch: Vec<Record> = (0..32i64)
        .map(|i| {
            Record::dense(SourceId(i as u64 % 4), Timestamp(200_000_000 + i * 1_000), [1.0, 2.0])
        })
        .collect();
    client.send_batch(&batch).unwrap();
    client.finish().unwrap();
    server.shutdown();
    h
}

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

#[test]
fn exposition_names_match_committed_catalog() {
    let h = full_workload();
    let emitted = names_of(&h.metrics_text());
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_catalog.txt"
    ))
    .expect("committed catalog (tests/golden/metrics_catalog.txt) must exist");
    let committed: Vec<String> = committed.lines().map(str::to_string).collect();

    let missing: Vec<&String> = committed.iter().filter(|n| !emitted.contains(n)).collect();
    let unexpected: Vec<&String> = emitted.iter().filter(|n| !committed.contains(n)).collect();
    assert!(
        missing.is_empty() && unexpected.is_empty(),
        "metric catalog drift.\nmissing from exposition: {missing:?}\nnot in committed catalog: \
         {unexpected:?}\nregenerate with `cargo run -p odh-bench --bin obs_dump -- --names`"
    );
}

#[test]
fn the_exposition_is_the_registry() {
    // One source: every counter is a registry handle, so the exposition
    // is the registry's rendering, and the names it shows are exactly the
    // names the registry holds.
    let h = full_workload();
    // Drain the seal queue so no background seal moves a counter
    // between the two renders.
    h.flush().unwrap();
    let text = h.metrics_text();
    assert_eq!(text, h.registry().render());
    assert_eq!(names_of(&text), h.registry().names());
}

#[test]
fn catalog_is_stable_across_a_second_historian() {
    // Metric registration is construction-time, not workload-dependent:
    // a second historian with the same shape emits the same names even
    // before any query runs.
    let h = Historian::builder().servers(1).durable(true).build().unwrap();
    h.define_schema_type(TableConfig::new(SchemaType::new(
        "environ_data",
        ["temperature", "wind"],
    )))
    .unwrap();
    let names = names_of(&h.metrics_text());
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/metrics_catalog.txt"
    ))
    .unwrap();
    for name in names {
        assert!(committed.lines().any(|l| l == name), "{name} not in committed catalog");
    }
}
