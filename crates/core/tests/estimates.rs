//! The virtual table's cost estimates against an oracle computed from the
//! records each test ingested: the row estimate under no filter, an
//! `id =` filter and a time range, the scan cost for one and for two
//! needed tags, and the probe cost — on a two-server historian, after
//! ingest, after a recovery that rebuilds the tables' counters from the
//! checkpoint and the log, and after a TTL prune.

use odh_core::router::DataRouter;
use odh_core::vtable::VirtualTable;
use odh_core::Historian;
use odh_sql::provider::{ColumnFilter, ScanRequest, TableProvider};
use odh_storage::TableConfig;
use odh_types::{Datum, Duration, Record, SchemaType, SourceClass, SourceId, Timestamp};
use std::sync::Arc;

/// Tags of schema type `m`.
const TAGS: usize = 2;

/// What the test wrote, and the sources still registered.
struct Ingested {
    records: u64,
    sources: u64,
    min_ts: i64,
    max_ts: i64,
}

impl Ingested {
    fn of(records: &[Record], sources: u64) -> Ingested {
        Ingested {
            records: records.len() as u64,
            sources,
            min_ts: records.iter().map(|r| r.ts.micros()).min().unwrap(),
            max_ts: records.iter().map(|r| r.ts.micros()).max().unwrap(),
        }
    }
}

fn schema_type() -> TableConfig {
    TableConfig::new(SchemaType::new("m", ["a", "b"])).with_batch_size(8).with_mg_group_size(1)
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= 1e-9 * want.abs().max(1.0)
}

/// Check every estimate of `m_v` on `h` against `ing`. Blob bytes are
/// storage's to decide, so the oracle reads their registry total.
fn check(h: &Historian, ing: &Ingested) {
    let cluster = h.cluster().clone();
    let v =
        VirtualTable::new(cluster.clone(), Arc::new(DataRouter::new(cluster)), "m", "m_v").unwrap();
    let rows = ing.records as f64;
    let blob = h.registry().sum_counter("odh_table_blob_bytes_total") as f64;
    let per_tag = (blob / rows / TAGS as f64).max(0.1);
    let span = ing.max_ts - ing.min_ts;
    let (t1, t2) = (ing.min_ts + span / 4, ing.min_ts + span / 2);
    let ts = |t| Some((Datum::Ts(Timestamp(t)), true));
    let cases = [
        ("none", vec![], rows),
        ("id", vec![(0, ColumnFilter::Eq(Datum::I64(1)))], rows / ing.sources as f64),
        (
            "range",
            vec![(1, ColumnFilter::Range { lo: ts(t1), hi: ts(t2) })],
            rows * (t2 - t1) as f64 / span as f64,
        ),
    ];
    for (what, filters, want) in cases {
        let want = want.max(1.0);
        let got = v.estimate_rows(&filters);
        assert!(close(got, want), "{what}: estimate_rows {got}, want {want}");
        for (needed, tags) in [(vec![0, 1, 2], 1.0), (vec![0, 1, 2, 3], 2.0)] {
            let req = ScanRequest { filters: filters.clone(), needed, ..Default::default() };
            let want_cost = 64.0 * 1024.0 + want * per_tag * tags;
            let got = v.estimate_cost(&req);
            assert!(
                close(got, want_cost),
                "{what}, {tags} tags: estimate_cost {got}, want {want_cost}"
            );
        }
    }
    let want = 8192.0 + rows / ing.sources as f64 * per_tag * TAGS as f64;
    let got = v.probe_cost(0).unwrap();
    assert!(close(got, want), "probe_cost {got}, want {want}");
}

fn register(h: &Historian, sources: u64) {
    for id in 0..sources {
        h.register_source("m", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
}

fn write(h: &Historian, records: &[Record]) {
    let w = h.writer("m").unwrap();
    for r in records {
        w.write(r).unwrap();
    }
}

/// `rounds` records of each of `sources`, source `s` of round `i` at
/// `base + i·7 s + s ms`, with some NULL cells.
fn records(sources: std::ops::Range<u64>, rounds: i64, base: i64) -> Vec<Record> {
    let mut out = Vec::new();
    for i in 0..rounds {
        for s in sources.clone() {
            let ts = Timestamp(base + i * 7_000_000 + s as i64 * 1_000);
            let b = (i % 3 != 0).then_some(s as f64);
            out.push(Record::new(SourceId(s), ts, vec![Some(i as f64), b]));
        }
    }
    out
}

#[test]
fn estimates_follow_the_ingested_records_and_survive_recovery() {
    let dir = std::env::temp_dir().join(format!("odh-estimates-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let first = records(0..6, 40, 0);
    let second = records(0..6, 25, 40 * 7_000_000);
    {
        let h = Historian::builder().servers(2).disk_dir(&dir).durable(true).build().unwrap();
        h.define_schema_type(schema_type()).unwrap();
        register(&h, 6);
        write(&h, &first);
        check(&h, &Ingested::of(&first, 6));
        // Half the rows reach the checkpoint image; the rest only the log.
        h.checkpoint().unwrap();
        write(&h, &second);
        h.sync().unwrap();
    }
    let all: Vec<Record> = first.iter().chain(&second).cloned().collect();
    let h = Historian::open(&dir, 8).unwrap();
    check(&h, &Ingested::of(&all, 6));
    drop(h);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_ttl_prune_leaves_only_live_sources_in_the_estimates() {
    let h = Historian::builder().servers(2).build().unwrap();
    h.define_schema_type(schema_type().with_retention_ttl(Duration::from_secs(100))).unwrap();
    register(&h, 6);
    // Every source writes early; sources 4 and 5 (one per server) go on
    // far past the retention window, which expires the other four.
    let early = records(0..6, 10, 0);
    let late = records(4..6, 10, 1_000_000_000);
    write(&h, &early);
    write(&h, &late);
    h.flush().unwrap();
    assert_eq!(h.compact().unwrap().pruned_sources, 4);
    let all: Vec<Record> = early.into_iter().chain(late).collect();
    check(&h, &Ingested::of(&all, 2));
}
