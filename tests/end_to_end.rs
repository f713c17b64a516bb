//! Cross-crate integration: the full historian pipeline from ingest to
//! SQL, across schema types, structures, and the MG drain.

use odh_core::Historian;
use odh_storage::TableConfig;
use odh_types::{
    DataType, Datum, Duration, Record, RelSchema, Row, SchemaType, SourceClass, SourceId, Timestamp,
};

fn historian() -> Historian {
    Historian::builder().servers(3).metered_cores(8).build().unwrap()
}

#[test]
fn two_schema_types_coexist() {
    let h = historian();
    h.define_schema_type(TableConfig::new(SchemaType::new("pmu", ["v"])).with_batch_size(32))
        .unwrap();
    h.define_schema_type(
        TableConfig::new(SchemaType::new("meter", ["kwh", "volts"])).with_batch_size(32),
    )
    .unwrap();
    h.register_source("pmu", SourceId(1), SourceClass::regular_high(Duration::from_hz(50.0)))
        .unwrap();
    h.register_source("meter", SourceId(1), SourceClass::regular_low(Duration::from_minutes(15)))
        .unwrap();

    let wp = h.writer("pmu").unwrap();
    let wm = h.writer("meter").unwrap();
    for i in 0..100i64 {
        wp.write(&Record::dense(SourceId(1), Timestamp(i * 20_000), [i as f64])).unwrap();
    }
    for i in 0..10i64 {
        wm.write(&Record::dense(SourceId(1), Timestamp(i * 900_000_000), [0.5, 230.0])).unwrap();
    }
    h.flush().unwrap();

    let p = h.sql("select COUNT(*) from pmu_v where id = 1").unwrap();
    assert_eq!(p.rows[0].get(0), &Datum::I64(100));
    let m = h.sql("select COUNT(*), AVG(volts) from meter_v where id = 1").unwrap();
    assert_eq!(m.rows[0].get(0), &Datum::I64(10));
    assert_eq!(m.rows[0].get(1), &Datum::F64(230.0));
}

#[test]
fn partition_elimination_touches_one_server() {
    let h = historian();
    h.define_schema_type(
        TableConfig::new(SchemaType::new("env", ["t"])).with_batch_size(8).with_mg_group_size(10),
    )
    .unwrap();
    for id in 0..30u64 {
        h.register_source("env", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    let w = h.writer("env").unwrap();
    for i in 0..20i64 {
        for id in 0..30u64 {
            w.write(&Record::dense(SourceId(id), Timestamp(i * 1000 + id as i64), [i as f64]))
                .unwrap();
        }
    }
    h.flush().unwrap();
    // Snapshot per-server scan counters, run an id-filtered query, then
    // check only the owning server did work.
    let before: Vec<u64> = h
        .cluster()
        .servers()
        .iter()
        .map(|s| s.table("env").unwrap().stats().snapshot().points_scanned)
        .collect();
    // Project rows so the scan actually decodes points (aggregates are
    // answered from seal-time summaries without touching any row).
    let r = h.sql("select t from env_v where id = 7").unwrap();
    assert_eq!(r.rows.len(), 20);
    let touched: Vec<usize> = h
        .cluster()
        .servers()
        .iter()
        .enumerate()
        .filter(|(i, s)| s.table("env").unwrap().stats().snapshot().points_scanned > before[*i])
        .map(|(i, _)| i)
        .collect();
    assert_eq!(touched.len(), 1, "id filter must prune to one server, touched {touched:?}");
    // The pushed-down aggregate must route to the same single server: only
    // its summary counter may move.
    let sums_before: Vec<u64> = h
        .cluster()
        .servers()
        .iter()
        .map(|s| {
            let snap = s.table("env").unwrap().stats().snapshot();
            snap.summary_answered_batches.unwrap_or(0) + snap.blob_decodes.unwrap_or(0)
        })
        .collect();
    let m = h.sql("select COUNT(*), AVG(t) from env_v where id = 7").unwrap();
    assert_eq!(m.rows[0].get(0), &Datum::I64(20));
    let agg_touched: Vec<usize> = h
        .cluster()
        .servers()
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            let snap = s.table("env").unwrap().stats().snapshot();
            snap.summary_answered_batches.unwrap_or(0) + snap.blob_decodes.unwrap_or(0)
                > sums_before[*i]
        })
        .map(|(i, _)| i)
        .collect();
    assert_eq!(agg_touched.len(), 1, "aggregate must prune to one server, {agg_touched:?}");
    assert_eq!(agg_touched, touched);
}

#[test]
fn historical_and_slice_agree_with_ground_truth() {
    let h = historian();
    h.define_schema_type(TableConfig::new(SchemaType::new("s", ["a", "b"])).with_batch_size(16))
        .unwrap();
    for id in 0..5u64 {
        h.register_source("s", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    // Ground truth kept in a plain Vec.
    let mut truth: Vec<Record> = Vec::new();
    let w = h.writer("s").unwrap();
    for i in 0..200i64 {
        let id = (i % 5) as u64;
        let r = Record::dense(SourceId(id), Timestamp(i * 1_000), [i as f64, -i as f64]);
        w.write(&r).unwrap();
        truth.push(r);
    }
    h.flush().unwrap();

    // Historical: id = 3 over a window.
    let r = h
        .sql(
            "select timestamp, a, b from s_v where id = 3 \
             and timestamp between '1970-01-01 00:00:00.050000' and '1970-01-01 00:00:00.150000'",
        )
        .unwrap();
    let expect: Vec<&Record> = truth
        .iter()
        .filter(|t| t.source == SourceId(3) && (50_000..=150_000).contains(&t.ts.micros()))
        .collect();
    assert_eq!(r.rows.len(), expect.len());
    for (row, t) in r.rows.iter().zip(&expect) {
        assert_eq!(row.get(0).as_ts().unwrap(), t.ts);
        assert_eq!(row.get(1).as_f64().unwrap(), t.values[0].unwrap());
    }

    // Slice: all ids in a window, via SQL.
    let r = h
        .sql(
            "select id, timestamp from s_v where timestamp \
             between '1970-01-01 00:00:00.100000' and '1970-01-01 00:00:00.110000'",
        )
        .unwrap();
    let expect = truth.iter().filter(|t| (100_000..=110_000).contains(&t.ts.micros())).count();
    assert_eq!(r.rows.len(), expect);
}

#[test]
fn reorganize_preserves_sql_results() {
    let h = historian();
    h.define_schema_type(
        TableConfig::new(SchemaType::new("m", ["x"])).with_batch_size(64).with_mg_group_size(20),
    )
    .unwrap();
    for id in 0..60u64 {
        h.register_source("m", SourceId(id), SourceClass::regular_low(Duration::from_minutes(15)))
            .unwrap();
    }
    let w = h.writer("m").unwrap();
    for sweep in 0..12i64 {
        for id in 0..60u64 {
            w.write(&Record::dense(
                SourceId(id),
                Timestamp(sweep * 900_000_000),
                [sweep as f64 + id as f64 * 0.01],
            ))
            .unwrap();
        }
    }
    h.flush().unwrap();
    let q1 = "select COUNT(*), AVG(x) from m_v where id = 42";
    let q2 = "select COUNT(*) from m_v where timestamp between '1970-01-01 01:00:00' and '1970-01-01 02:00:00'";
    let before = (h.sql(q1).unwrap(), h.sql(q2).unwrap());
    let moved = h.reorganize().unwrap();
    assert_eq!(moved, 720);
    let after = (h.sql(q1).unwrap(), h.sql(q2).unwrap());
    assert_eq!(before.0.rows, after.0.rows);
    assert_eq!(before.1.rows, after.1.rows);
}

#[test]
fn fusion_join_order_is_cost_based() {
    let h = historian();
    h.define_schema_type(TableConfig::new(SchemaType::new("obs", ["temp"])).with_batch_size(32))
        .unwrap();
    for id in 0..50u64 {
        h.register_source("obs", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    let dim = h.create_relational_table(RelSchema::new(
        "stations",
        [("sensorid", DataType::I64), ("name", DataType::Str)],
    ));
    dim.create_index("idx_sid", "sensorid").unwrap();
    dim.create_index("idx_name", "name").unwrap();
    for id in 0..50i64 {
        dim.insert(&Row::new(vec![Datum::I64(id), Datum::str(format!("st{id}"))])).unwrap();
    }
    let w = h.writer("obs").unwrap();
    for i in 0..2000i64 {
        w.write(&Record::dense(SourceId((i % 50) as u64), Timestamp(i * 500), [i as f64])).unwrap();
    }
    h.flush().unwrap();
    // Selective dimension predicate → dimension scanned first.
    let plan = h
        .explain("select temp from obs_v o, stations s where s.sensorid = o.id and s.name = 'st7'")
        .unwrap();
    assert!(plan.starts_with("scan s"), "expected dimension-first, got: {plan}");
    let r = h
        .sql("select temp from obs_v o, stations s where s.sensorid = o.id and s.name = 'st7'")
        .unwrap();
    assert_eq!(r.rows.len(), 40);
}

#[test]
fn virtual_table_projection_is_tag_oriented() {
    // Selecting one tag of a wide schema touches a fraction of the blob
    // bytes — observable through the query component's cost estimate.
    let h = historian();
    let tags: Vec<String> = (0..16).map(|i| format!("t{i}")).collect();
    h.define_schema_type(
        TableConfig::new(SchemaType::new("wide", tags.iter().map(|s| s.as_str())))
            .with_batch_size(32),
    )
    .unwrap();
    h.register_source("wide", SourceId(1), SourceClass::irregular_high()).unwrap();
    let w = h.writer("wide").unwrap();
    for i in 0..200i64 {
        let vals: Vec<f64> = (0..16).map(|k| (i * k) as f64).collect();
        w.write(&Record::dense(SourceId(1), Timestamp(i * 1000), vals)).unwrap();
    }
    h.flush().unwrap();
    let narrow = h.sql("select t3 from wide_v where id = 1").unwrap();
    assert_eq!(narrow.rows.len(), 200);
    assert_eq!(narrow.rows[5].get(0).as_f64().unwrap(), 15.0);
    // The plan's cost estimate for one tag must be far below all tags.
    let one = h.explain("select t3 from wide_v where id = 1").unwrap();
    let all = h.explain("select * from wide_v where id = 1").unwrap();
    let cost = |s: &str| -> f64 {
        s.split("est. cost ").nth(1).unwrap().split(' ').next().unwrap().parse().unwrap()
    };
    // Both estimates share the fixed router charge (64 KiB-equivalent);
    // the *tag-dependent* part must scale with the projection width
    // (1 of 16 tags → ~1/16 of the blob bytes).
    const ROUTER: f64 = 65536.0;
    let one_tags = cost(&one) - ROUTER;
    let all_tags = cost(&all) - ROUTER;
    assert!(one_tags > 0.0 && one_tags * 4.0 < all_tags, "one={one} all={all}");
}
