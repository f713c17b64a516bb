//! Property-based cross-checks at the system level:
//! - the storage engine vs a naive in-memory model (arbitrary record
//!   streams, arbitrary scan windows);
//! - the SQL executor vs a naive evaluator on random mini-datasets.

use odh_core::Historian;
use odh_sql::provider::MemTable;
use odh_sql::SqlEngine;
use odh_storage::{DeletePredicate, TableConfig};
use odh_types::{Datum, Record, RelSchema, Row, SchemaType, SourceClass, SourceId, Timestamp};
use proptest::prelude::*;

/// Row-set equality with a relative tolerance on floats: SUM/AVG may
/// associate differently between the row-at-a-time and vectorized paths.
fn rows_close(a: &[Row], b: &[Row]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.cells().len() == y.cells().len()
                && x.cells().iter().zip(y.cells()).all(|(p, q)| match (p, q) {
                    (Datum::F64(u), Datum::F64(v)) => {
                        (u - v).abs() <= 1e-6 * u.abs().max(v.abs()).max(1.0)
                    }
                    _ => p == q,
                })
        })
}

/// Arbitrary operational stream: (source 0..4, ts, value, maybe-null).
fn arb_stream() -> impl Strategy<Value = Vec<(u64, i64, f64, bool)>> {
    prop::collection::vec((0u64..4, 0i64..500_000, -100.0f64..100.0, any::<bool>()), 1..120)
}

/// Fisher–Yates permutation of `0..n` driven by a splitmix64 stream: the
/// vendored proptest stand-in has no shuffle combinator, so arrival
/// orders are derived from a sampled seed.
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    idx
}

/// Historian for the hostile-ingest equivalence arms: small batches so
/// shuffles cross seal boundaries, a merge threshold above the batch size
/// so compaction rewrites every sealed generation, and early cold
/// demotion so the post-compaction arm reads through the cold tier too.
fn hostile_historian() -> Historian {
    let h = Historian::builder().servers(2).build().unwrap();
    h.define_schema_type(
        TableConfig::new(SchemaType::new("p", ["v"]))
            .with_batch_size(8)
            .with_mg_group_size(2)
            .with_compact_min_batch(16)
            .with_compact_target_batch(64)
            .with_cold_after(odh_types::Duration::from_micros(100_000)),
    )
    .unwrap();
    for id in 0..4u64 {
        h.register_source("p", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    h
}

fn write_stream(h: &Historian, stream: impl IntoIterator<Item = (u64, i64, f64, bool)>) {
    let w = h.writer("p").unwrap();
    for (id, ts, v, null) in stream {
        let values = if null { vec![None] } else { vec![Some(v)] };
        w.write(&Record::new(SourceId(id), Timestamp(ts), values)).unwrap();
    }
    h.flush().unwrap();
}

/// Two historians must be observationally identical on every execution
/// tier: full scans compared as multisets (equal-timestamp rows may
/// legally reorder with batch layout), aggregates and `time_bucket` folds
/// with float tolerance. Both are left on the vectorized tier.
fn equivalence_check(a: &Historian, b: &Historian) -> Result<(), String> {
    let scan = "select id, timestamp, v from p_v";
    let agg = "select COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) from p_v";
    let bucket = "select time_bucket(16000, timestamp), COUNT(*), COUNT(v), SUM(v) from p_v \
                  group by time_bucket(16000, timestamp)";
    let sorted = |mut rows: Vec<Row>| -> Vec<String> {
        rows.sort_by_key(|r| format!("{r:?}"));
        rows.into_iter().map(|r| format!("{r:?}")).collect()
    };
    for vectorized in [false, true] {
        a.set_vectorized(vectorized);
        b.set_vectorized(vectorized);
        let tier = format!("vectorized={vectorized}");
        let (sa, sb) = (a.sql(scan).unwrap().rows, b.sql(scan).unwrap().rows);
        if sorted(sa.clone()) != sorted(sb.clone()) {
            return Err(format!("{tier}: scans differ:\n  {sa:?}\n  {sb:?}"));
        }
        let (aa, ab) = (a.sql(agg).unwrap().rows, b.sql(agg).unwrap().rows);
        if !rows_close(&aa, &ab) {
            return Err(format!("{tier}: aggregates differ: {aa:?} != {ab:?}"));
        }
        let (ba, bb) = (a.sql(bucket).unwrap().rows, b.sql(bucket).unwrap().rows);
        if !rows_close(&ba, &bb) {
            return Err(format!("{tier}: time_bucket differs: {ba:?} != {bb:?}"));
        }
    }
    Ok(())
}

/// Global LAST with sources tied on the newest timestamp: the greatest
/// `(ts, id)` wins on both tiers, so a batch that ends at the newest
/// timestamp of an already-folded lower id is still read.
#[test]
fn global_last_breaks_newest_timestamp_ties_by_id() {
    let h = Historian::builder().servers(1).build().unwrap();
    h.define_schema_type(TableConfig::new(SchemaType::new("p", ["v"])).with_batch_size(8)).unwrap();
    for id in 0..4u64 {
        h.register_source("p", SourceId(id), SourceClass::irregular_high()).unwrap();
    }
    let w = h.writer("p").unwrap();
    for i in 0..16i64 {
        for id in 0..4u64 {
            let v = (100 * id as i64 + i) as f64;
            w.write(&Record::dense(SourceId(id), Timestamp(i), [v])).unwrap();
        }
    }
    h.flush().unwrap();
    for vectorized in [true, false] {
        h.set_vectorized(vectorized);
        let rows = h.sql("select LAST(v) from p_v").unwrap().rows;
        assert_eq!(rows, vec![Row::new(vec![Datum::F64(315.0)])], "vectorized={vectorized}");
    }
}

/// LAST over the timestamp next to a tag, with a late buffered row of
/// the source read before its newest sealed batch, whose tag is all
/// NULL: that batch still holds the source's newest row, so the
/// vectorized tier must not leave it out.
#[test]
fn last_timestamp_reads_a_newest_batch_with_no_tag_values() {
    let h = Historian::builder().servers(1).build().unwrap();
    h.define_schema_type(TableConfig::new(SchemaType::new("p", ["v"])).with_batch_size(8)).unwrap();
    h.register_source("p", SourceId(1), SourceClass::irregular_high()).unwrap();
    let w = h.writer("p").unwrap();
    for i in 0..16i64 {
        let v = (i < 8).then_some(i as f64);
        w.write(&Record::new(SourceId(1), Timestamp(1_000_000 + i * 1_000), vec![v])).unwrap();
    }
    h.flush().unwrap();
    // Far behind the watermark: the row waits in a side buffer.
    w.write(&Record::new(SourceId(1), Timestamp(500_000), vec![Some(-1.0)])).unwrap();
    let newest = Datum::Ts(Timestamp(1_015_000));
    for vectorized in [true, false] {
        h.set_vectorized(vectorized);
        let rows = h.sql("select id, LAST(timestamp), LAST(v) from p_v group by id").unwrap().rows;
        let want = Row::new(vec![Datum::I64(1), newest.clone(), Datum::F64(7.0)]);
        assert_eq!(rows, vec![want], "vectorized={vectorized}");
        let rows = h.sql("select LAST(id), LAST(timestamp), LAST(v) from p_v").unwrap().rows;
        let want = Row::new(vec![Datum::I64(1), newest.clone(), Datum::F64(7.0)]);
        assert_eq!(rows, vec![want], "vectorized={vectorized}");
    }
}

/// Historian for the LAST arm: two tags, four per-source streams and
/// one MG group of two sources, 8-row batches, and early cold demotion
/// so a compaction pass leaves old history in the cold generation.
fn last_historian() -> Historian {
    let h = Historian::builder().servers(2).build().unwrap();
    h.define_schema_type(
        TableConfig::new(SchemaType::new("p", ["v", "w"]))
            .with_batch_size(8)
            .with_mg_group_size(2)
            .with_compact_min_batch(16)
            .with_compact_target_batch(64)
            .with_cold_after(odh_types::Duration::from_micros(100_000)),
    )
    .unwrap();
    for id in 0..6u64 {
        let class =
            if id < 4 { SourceClass::irregular_high() } else { SourceClass::irregular_low() };
        h.register_source("p", SourceId(id), class).unwrap();
    }
    h
}

/// The naive LAST of tag `tag` (0 = v, 1 = w) over `rows` per source:
/// `(id, ts, value)` of the greatest `ts` holding a value.
fn naive_last(rows: &[(u64, i64, [Option<f64>; 2])], tag: usize) -> Vec<(u64, i64, f64)> {
    let mut best: std::collections::BTreeMap<u64, (i64, f64)> = Default::default();
    for &(id, ts, vals) in rows {
        if let Some(v) = vals[tag] {
            if best.get(&id).is_none_or(|&(bts, _)| ts > bts) {
                best.insert(id, (ts, v));
            }
        }
    }
    best.into_iter().map(|(id, (ts, v))| (id, ts, v)).collect()
}

/// A memory table that, when the executor allows summaries at a bucket
/// grain, answers the rows of even-numbered buckets with one summary
/// batch each and the rest with the table's own row batches.
struct HalfSummarized {
    inner: std::sync::Arc<MemTable>,
    schema: RelSchema,
}

impl odh_sql::provider::TableProvider for HalfSummarized {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn schema(&self) -> &RelSchema {
        &self.schema
    }
    fn estimate_rows(&self, f: &[(usize, odh_sql::provider::ColumnFilter)]) -> f64 {
        self.inner.estimate_rows(f)
    }
    fn estimate_cost(&self, r: &odh_sql::provider::ScanRequest) -> f64 {
        self.inner.estimate_cost(r)
    }
    fn scan(&self, r: &odh_sql::provider::ScanRequest) -> odh_types::Result<Vec<Row>> {
        self.inner.scan(r)
    }
    fn scan_columnar(
        &self,
        r: &odh_sql::provider::ScanRequest,
    ) -> Option<odh_types::Result<odh_sql::provider::ColumnarScan>> {
        use odh_sql::column::{ColVec, ColumnBatch, NumAgg};
        let Some(odh_sql::provider::SummaryGrain::Bucket { column, width }) = r.summaries else {
            return self.inner.scan_columnar(r);
        };
        let ts_of = |row: &Row| row.get(column).as_ts().map(|t| t.0);
        let mut summed: std::collections::BTreeMap<i64, Vec<Row>> = Default::default();
        let plain = MemTable::new(self.schema.clone());
        for row in self.inner.scan(r).unwrap() {
            match ts_of(&row).map(|t| t.div_euclid(width)) {
                Some(k) if k % 2 == 0 => summed.entry(k).or_default().push(row),
                _ => plain.insert(row),
            }
        }
        let plain_req = odh_sql::provider::ScanRequest { summaries: None, ..r.clone() };
        let mut scan = plain.scan_columnar(&plain_req)?.unwrap();
        let dtypes: std::sync::Arc<[odh_types::DataType]> =
            self.schema.columns.iter().map(|c| c.dtype).collect();
        for rows in summed.into_values() {
            let ts: Vec<i64> = rows.iter().filter_map(ts_of).collect();
            let cols = (0..dtypes.len())
                .map(|c| {
                    if dtypes[c] != odh_types::DataType::F64 || !r.needed.contains(&c) {
                        return ColVec::Absent;
                    }
                    let vals: Vec<f64> =
                        rows.iter().filter_map(|row| row.get(c).as_f64()).collect();
                    ColVec::Summary(NumAgg {
                        count: vals.len() as i64,
                        sum: vals.iter().sum(),
                        min: vals.iter().copied().fold(f64::INFINITY, f64::min),
                        max: vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    })
                })
                .collect();
            scan.batches.push(ColumnBatch {
                len: rows.len(),
                dtypes: dtypes.clone(),
                cols,
                ts_range: Some((*ts.iter().min().unwrap(), *ts.iter().max().unwrap())),
                summary: true,
            });
        }
        Some(Ok(scan))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn scans_match_naive_model(stream in arb_stream(), win in (0i64..500_000, 1i64..250_000)) {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("p", ["v"]))
                .with_batch_size(16)
                .with_mg_group_size(2),
        )
        .unwrap();
        for id in 0..4u64 {
            h.register_source("p", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("p").unwrap();
        for &(id, ts, v, null) in &stream {
            let values = if null { vec![None] } else { vec![Some(v)] };
            w.write(&Record::new(SourceId(id), Timestamp(ts), values)).unwrap();
        }
        h.flush().unwrap();

        let (t1, t2) = (win.0, win.0 + win.1);
        // Naive model: count rows per source in window.
        for id in 0..4u64 {
            let expect = stream
                .iter()
                .filter(|(s, ts, _, _)| *s == id && (t1..=t2).contains(ts))
                .count() as i64;
            let r = h
                .sql(&format!(
                    "select COUNT(*) from p_v where id = {id} and timestamp between '{}' and '{}'",
                    Timestamp(t1),
                    Timestamp(t2)
                ))
                .unwrap();
            prop_assert_eq!(r.rows[0].get(0), &Datum::I64(expect), "id={}", id);
        }
        // Slice across all sources, non-null values only.
        let expect_sum: f64 = stream
            .iter()
            .filter(|(_, ts, _, null)| !null && (t1..=t2).contains(ts))
            .map(|(_, _, v, _)| v)
            .sum();
        let r = h
            .sql(&format!(
                "select SUM(v) from p_v where timestamp between '{}' and '{}'",
                Timestamp(t1),
                Timestamp(t2)
            ))
            .unwrap();
        match r.rows[0].get(0) {
            Datum::Null => prop_assert!(expect_sum == 0.0),
            d => prop_assert!((d.as_f64().unwrap() - expect_sum).abs() < 1e-6),
        }
    }

    /// Aggregates answered from summaries must equal a naive fold of the
    /// stream — i.e. exactly what the full-decode row path computes —
    /// over arbitrary streams and windows (covered, clipping, empty,
    /// exclusive bounds on batch edges).
    #[test]
    fn aggregate_pushdown_matches_full_decode(
        stream in arb_stream(),
        win in (0i64..500_000, 1i64..250_000),
    ) {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("p", ["v"]))
                .with_batch_size(8)
                .with_mg_group_size(2),
        )
        .unwrap();
        for id in 0..4u64 {
            h.register_source("p", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("p").unwrap();
        for &(id, ts, v, null) in &stream {
            let values = if null { vec![None] } else { vec![Some(v)] };
            w.write(&Record::new(SourceId(id), Timestamp(ts), values)).unwrap();
        }
        h.flush().unwrap();

        let (t1, t2) = (win.0, win.0 + win.1);
        // Exclusive bounds on batch edges: a source's first sealed batch
        // holds its first 8 writes, so their least and greatest
        // timestamps are where that batch begins and ends. `> begin` and
        // `< end` leave the batch one row short of covered, so only an
        // exact bound keeps its summary out.
        let first_batch = (0..4u64)
            .map(|id| stream.iter().filter(|r| r.0 == id).take(8).map(|r| r.1).collect::<Vec<_>>())
            .find(|ts| ts.len() == 8);
        let (begin, end) = first_batch
            .map_or((t1, t2), |ts| (*ts.iter().min().unwrap(), *ts.iter().max().unwrap()));
        for (clause, lo, hi) in [
            (format!("between '{}' and '{}'", Timestamp(t1), Timestamp(t2)), t1, t2),
            (format!("> '{}'", Timestamp(begin)), begin + 1, i64::MAX),
            (format!("< '{}'", Timestamp(end)), i64::MIN, end - 1),
        ] {
            let in_win: Vec<&(u64, i64, f64, bool)> =
                stream.iter().filter(|(_, ts, _, _)| (lo..=hi).contains(ts)).collect();
            let non_null: Vec<f64> =
                in_win.iter().filter(|(_, _, _, null)| !null).map(|(_, _, v, _)| *v).collect();
            let r = h
                .sql(&format!(
                    "select COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) from p_v \
                     where timestamp {clause}"
                ))
                .unwrap();
            let row = &r.rows[0];
            prop_assert_eq!(row.get(0), &Datum::I64(in_win.len() as i64), "{}", clause);
            prop_assert_eq!(row.get(1), &Datum::I64(non_null.len() as i64), "{}", clause);
            if non_null.is_empty() {
                prop_assert_eq!(row.get(2), &Datum::Null);
                prop_assert_eq!(row.get(3), &Datum::Null);
                prop_assert_eq!(row.get(4), &Datum::Null);
            } else {
                let sum: f64 = non_null.iter().sum();
                let min = non_null.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = non_null.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                prop_assert!((row.get(2).as_f64().unwrap() - sum).abs() < 1e-6, "{}", clause);
                prop_assert_eq!(row.get(3).as_f64().unwrap(), min);
                prop_assert_eq!(row.get(4).as_f64().unwrap(), max);
            }
        }
        // Per-source historical aggregates take the key-range walk.
        for id in 0..4u64 {
            let vals: Vec<f64> = stream
                .iter()
                .filter(|(s, ts, _, null)| *s == id && !null && (t1..=t2).contains(ts))
                .map(|(_, _, v, _)| *v)
                .collect();
            let r = h
                .sql(&format!(
                    "select SUM(v) from p_v where id = {id} and timestamp between '{}' and '{}'",
                    Timestamp(t1),
                    Timestamp(t2)
                ))
                .unwrap();
            match r.rows[0].get(0) {
                Datum::Null => prop_assert!(vals.is_empty()),
                d => prop_assert!(
                    (d.as_f64().unwrap() - vals.iter().sum::<f64>()).abs() < 1e-6,
                    "id={}", id
                ),
            }
        }
    }

    /// A scan against a cold decode cache and the same scan warm must be
    /// row-for-row identical — the cache may never change results.
    #[test]
    fn cached_scan_equals_uncached(
        stream in arb_stream(),
        win in (0i64..500_000, 1i64..250_000),
    ) {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("p", ["v"])).with_batch_size(8),
        )
        .unwrap();
        for id in 0..4u64 {
            h.register_source("p", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("p").unwrap();
        for &(id, ts, v, null) in &stream {
            let values = if null { vec![None] } else { vec![Some(v)] };
            w.write(&Record::new(SourceId(id), Timestamp(ts), values)).unwrap();
        }
        h.flush().unwrap();

        let (t1, t2) = (win.0, win.0 + win.1);
        let sql = format!(
            "select id, timestamp, v from p_v where timestamp between '{}' and '{}'",
            Timestamp(t1),
            Timestamp(t2)
        );
        let clear = || {
            for s in h.cluster().servers() {
                if let Ok(t) = s.table("p") {
                    t.decode_cache().clear();
                }
            }
        };
        clear();
        let cold = h.sql(&sql).unwrap();
        let warm = h.sql(&sql).unwrap();
        prop_assert_eq!(&cold.rows, &warm.rows);
        // And again after another clear: admission order must not matter.
        clear();
        let recold = h.sql(&sql).unwrap();
        prop_assert_eq!(&cold.rows, &recold.rows);
    }

    #[test]
    fn sql_filters_match_naive_evaluator(
        rows in prop::collection::vec((0i64..20, -50.0f64..50.0), 0..80),
        threshold in -50.0f64..50.0,
        key in 0i64..20,
    ) {
        let engine = SqlEngine::new();
        let t = MemTable::new(RelSchema::new(
            "data",
            [("k", odh_types::DataType::I64), ("x", odh_types::DataType::F64)],
        ));
        for &(k, x) in &rows {
            t.insert(Row::new(vec![Datum::I64(k), Datum::F64(x)]));
        }
        t.create_index("k");
        engine.register(t);

        let r = engine.query(&format!("select k, x from data where x > {threshold}")).unwrap();
        let expect = rows.iter().filter(|(_, x)| *x > threshold).count();
        prop_assert_eq!(r.rows.len(), expect);

        let r = engine.query(&format!("select COUNT(*) from data where k = {key}")).unwrap();
        let expect = rows.iter().filter(|(k, _)| *k == key).count() as i64;
        prop_assert_eq!(r.rows[0].get(0), &Datum::I64(expect));

        // Conjunction.
        let r = engine
            .query(&format!("select x from data where k = {key} and x > {threshold}"))
            .unwrap();
        let expect = rows.iter().filter(|(k, x)| *k == key && *x > threshold).count();
        prop_assert_eq!(r.rows.len(), expect);

        // GROUP BY totals must cover every row exactly once.
        let r = engine.query("select k, COUNT(*) from data group by k").unwrap();
        let total: i64 = r.rows.iter().map(|row| row.get(1).as_i64().unwrap()).sum();
        prop_assert_eq!(total, rows.len() as i64);
    }

    #[test]
    fn join_matches_naive_nested_loops(
        left in prop::collection::vec(0i64..10, 0..40),
        right in prop::collection::vec(0i64..10, 0..40),
    ) {
        let engine = SqlEngine::new();
        let a = MemTable::new(RelSchema::new("a", [("x", odh_types::DataType::I64)]));
        for &x in &left {
            a.insert(Row::new(vec![Datum::I64(x)]));
        }
        let b = MemTable::new(RelSchema::new("b", [("y", odh_types::DataType::I64)]));
        for &y in &right {
            b.insert(Row::new(vec![Datum::I64(y)]));
        }
        b.create_index("y");
        engine.register(a);
        engine.register(b);
        let r = engine.query("select x, y from a, b where a.x = b.y").unwrap();
        let expect: usize = left
            .iter()
            .map(|x| right.iter().filter(|y| *y == x).count())
            .sum();
        prop_assert_eq!(r.rows.len(), expect);
        for row in &r.rows {
            prop_assert_eq!(row.get(0), row.get(1));
        }
    }

    /// Relational tables index-joined into the historian's virtual table,
    /// in the shapes of TQ3, TQ4, LQ3 and LQ4, vs a naive nested loop over
    /// what was written, compared as multisets: account rows with a NULL
    /// key and with ids never registered, MG-class sources, rows arriving
    /// behind the seal watermark, a tombstone, a residual over both sides,
    /// an ORDER BY on columns the output leaves out, and a LIMIT. Every
    /// output row carries cells of each side, so a row built with a cell
    /// misplaced or dropped differs from the model.
    #[test]
    fn index_join_into_virtual_table_matches_naive_nested_loop(
        stream in prop::collection::vec(
            (0u64..6, 0i64..40, prop::option::of(-50.0f64..50.0)),
            1..100,
        ),
        accounts in prop::collection::vec(
            (prop::option::of(0i64..8), 0i64..3, -50.0f64..50.0),
            1..12,
        ),
        seed in any::<u64>(),
        del in (0u64..6, 0i64..40, 0i64..8),
        pick in (0i64..12, 0i64..3, -50.0f64..50.0),
    ) {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("p", ["v", "w"]))
                .with_batch_size(8)
                .with_mg_group_size(2)
                .with_seal_workers(0),
        )
        .unwrap();
        // Ids 4 and 5 are MG-class; 6 and 7 are never registered.
        for id in 0..6u64 {
            let class =
                if id < 4 { SourceClass::irregular_high() } else { SourceClass::irregular_low() };
            h.register_source("p", SourceId(id), class).unwrap();
        }
        // Each row's `w` is its index, so a joined row names its row.
        let rows: Vec<(u64, i64, Option<f64>, f64)> = stream
            .iter()
            .enumerate()
            .map(|(i, &(id, t, v))| (id, t * 1_000, v, i as f64))
            .collect();
        let w = h.writer("p").unwrap();
        let order = permutation(rows.len(), seed);
        for (n, &i) in order.iter().enumerate() {
            let (id, ts, v, wv) = rows[i];
            w.write(&Record::new(SourceId(id), Timestamp(ts), vec![v, Some(wv)])).unwrap();
            if n == order.len() / 2 {
                h.flush().unwrap();
            }
        }
        let (dsrc, t1, t2) = (del.0, del.1 * 1_000, (del.1 + del.2) * 1_000);
        h.delete("p", &DeletePredicate::for_sources(t1, t2, [SourceId(dsrc)])).unwrap();
        let live: Vec<_> = rows
            .iter()
            .copied()
            .filter(|&(id, ts, _, _)| !(id == dsrc && (t1..=t2).contains(&ts)))
            .collect();

        let acct = h.create_relational_table(RelSchema::new(
            "acct",
            [
                ("a_id", odh_types::DataType::I64),
                ("a_name", odh_types::DataType::Str),
                ("a_cust", odh_types::DataType::I64),
                ("a_lat", odh_types::DataType::F64),
            ],
        ));
        acct.create_index("acct_cust", "a_cust").unwrap();
        let accts: Vec<(Option<i64>, String, i64, f64)> = accounts
            .iter()
            .enumerate()
            .map(|(i, &(id, cust, lat))| (id, format!("n{}", i % 6), cust, lat))
            .collect();
        for (id, name, cust, lat) in &accts {
            let id = id.map_or(Datum::Null, Datum::I64);
            acct.insert(&Row::new(vec![
                id,
                Datum::str(name.clone()),
                Datum::I64(*cust),
                Datum::F64(*lat),
            ]))
            .unwrap();
        }
        let cust = h.create_relational_table(RelSchema::new(
            "cust",
            [("c_id", odh_types::DataType::I64), ("c_year", odh_types::DataType::I64)],
        ));
        for c in 0..3i64 {
            cust.insert(&Row::new(vec![Datum::I64(c), Datum::I64(1960 + c)])).unwrap();
        }

        // The naive joins: every (account, live row) pair on the id.
        let pairs = || {
            accts.iter().flat_map(|a| {
                live.iter().filter(move |r| a.0 == Some(r.0 as i64)).map(move |r| (a, r))
            })
        };
        let f = |v: Option<f64>| v.map_or(Datum::Null, Datum::F64);
        let ts = |t: i64| Datum::Ts(Timestamp(t));
        let sorted = |mut rows: Vec<Row>| -> Vec<String> {
            rows.sort_by_key(|r| format!("{r:?}"));
            rows.into_iter().map(|r| format!("{r:?}")).collect()
        };
        let name = format!("n{}", pick.0 % 6);
        let (lo_year, lat) = (1960 + pick.1, pick.2);
        // TQ3 / LQ3: one account by name.
        let tq3 = format!(
            "select timestamp, w, a_lat, v from p_v x, acct a \
             where a.a_id = x.id and a.a_name = '{name}'"
        );
        let want3: Vec<Row> = pairs()
            .filter(|(a, _)| a.1 == name)
            .map(|(a, r)| Row::new(vec![ts(r.1), Datum::F64(r.3), Datum::F64(a.3), f(r.2)]))
            .collect();
        // TQ4: accounts of customers born from a year on, three ways.
        let tq4 = format!(
            "select a_name, timestamp, x.id, w from p_v x, acct a, cust c \
             where a.a_id = x.id and a.a_cust = c.c_id and c_year >= {lo_year}"
        );
        let want4: Vec<Row> = pairs()
            .filter(|(a, _)| 1960 + a.2 >= lo_year)
            .map(|(a, r)| {
                Row::new(vec![
                    Datum::str(a.1.clone()),
                    ts(r.1),
                    Datum::I64(r.0 as i64),
                    Datum::F64(r.3),
                ])
            })
            .collect();
        // LQ4: a range over the account side, plus a residual over both.
        let lq4 = format!(
            "select timestamp, x.id, w, a_name from p_v x, acct a \
             where a.a_id = x.id and a_lat > {lat} and v < a_lat"
        );
        let want_lq4: Vec<Row> = pairs()
            .filter(|(a, r)| a.3 > lat && r.2.is_some_and(|v| v < a.3))
            .map(|(a, r)| {
                Row::new(vec![
                    ts(r.1),
                    Datum::I64(r.0 as i64),
                    Datum::F64(r.3),
                    Datum::str(a.1.clone()),
                ])
            })
            .collect();
        for (q, want) in [(&tq3, &want3), (&tq4, &want4), (&lq4, &want_lq4)] {
            let got = h.sql(q).unwrap().rows;
            prop_assert_eq!(sorted(got), sorted(want.clone()), "{}", q);
        }
        let plan = h.explain(&tq3).unwrap();
        prop_assert!(plan.starts_with("scan a") && plan.contains("-> join x"), "{}", plan);

        // ORDER BY columns the output leaves out: within each run of
        // equal sort keys the rows match as a multiset, and the runs come
        // in key order. With LIMIT, the kept rows are the first keys'.
        let ordered = "select a_name, w from p_v x, acct a where a.a_id = x.id \
                       order by timestamp desc, x.id";
        let mut keyed: Vec<((i64, u64), Row)> = pairs()
            .map(|(a, r)| {
                ((r.1, r.0), Row::new(vec![Datum::str(a.1.clone()), Datum::F64(r.3)]))
            })
            .collect();
        keyed.sort_by(|x, y| y.0 .0.cmp(&x.0 .0).then(x.0 .1.cmp(&y.0 .1)));
        let got = h.sql(ordered).unwrap().rows;
        prop_assert_eq!(got.len(), keyed.len());
        let mut at = 0;
        while at < keyed.len() {
            let end = at + keyed[at..].iter().take_while(|k| k.0 == keyed[at].0).count();
            let want: Vec<Row> = keyed[at..end].iter().map(|k| k.1.clone()).collect();
            prop_assert_eq!(sorted(got[at..end].to_vec()), sorted(want), "{}", ordered);
            at = end;
        }
        let limited = "select timestamp, x.id, w, a_name from p_v x, acct a \
                       where a.a_id = x.id order by timestamp desc, x.id limit 5";
        let got = h.sql(limited).unwrap().rows;
        prop_assert_eq!(got.len(), keyed.len().min(5));
        let all: Vec<String> = sorted(
            pairs()
                .map(|(a, r)| {
                    Row::new(vec![
                        ts(r.1),
                        Datum::I64(r.0 as i64),
                        Datum::F64(r.3),
                        Datum::str(a.1.clone()),
                    ])
                })
                .collect(),
        );
        for (row, k) in got.iter().zip(&keyed) {
            prop_assert_eq!(row.get(0), &ts(k.0 .0));
            prop_assert_eq!(row.get(1), &Datum::I64(k.0 .1 as i64));
            prop_assert!(all.contains(&format!("{row:?}")), "{:?} is no joined row", row);
        }
    }

    /// Indexes created on relational tables that already hold rows: index
    /// scans (equality and range) and index joins into the virtual table
    /// return, as multisets, what the same queries return over a twin
    /// table that has no index and so can only scan its heap.
    #[test]
    fn indexes_created_after_loading_match_heap_scans(
        stream in prop::collection::vec((0u64..4, 0i64..40, -50.0f64..50.0), 1..60),
        accounts in prop::collection::vec(
            (prop::option::of(0i64..6), 0i64..3, -50.0f64..50.0),
            1..16,
        ),
        probe in (0i64..3, -50.0f64..50.0, 1960i64..1963),
    ) {
        use odh_types::DataType::{F64, I64};
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(TableConfig::new(SchemaType::new("p", ["v"])).with_batch_size(8))
            .unwrap();
        for id in 0..4u64 {
            h.register_source("p", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("p").unwrap();
        for &(id, t, v) in &stream {
            w.write(&Record::dense(SourceId(id), Timestamp(t * 1_000), [v])).unwrap();
        }
        h.flush().unwrap();
        // `acct` gets its indexes after loading; `heap` never gets any.
        let schema =
            |name: &str| RelSchema::new(name, [("a_id", I64), ("a_cust", I64), ("a_lat", F64)]);
        let acct = h.create_relational_table(schema("acct"));
        let heap = h.create_relational_table(schema("heap"));
        for &(id, cust, lat) in &accounts {
            let id = id.map_or(Datum::Null, Datum::I64);
            let row = Row::new(vec![id, Datum::I64(cust), Datum::F64(lat)]);
            acct.insert(&row).unwrap();
            heap.insert(&row).unwrap();
        }
        acct.create_index("acct_id", "a_id").unwrap();
        acct.create_index("acct_cust", "a_cust").unwrap();
        acct.create_index("acct_lat", "a_lat").unwrap();
        let cust = h.create_relational_table(RelSchema::new("cust", [("c_id", I64), ("c_year", I64)]));
        for c in 0..3i64 {
            cust.insert(&Row::new(vec![Datum::I64(c), Datum::I64(1960 + c)])).unwrap();
        }
        let sorted = |mut rows: Vec<Row>| -> Vec<String> {
            rows.sort_by_key(|r| format!("{r:?}"));
            rows.into_iter().map(|r| format!("{r:?}")).collect()
        };
        let (c, lat, year) = probe;
        for q in [
            format!("select a_id, a_lat from {{t}} where a_cust = {c}"),
            format!("select a_id, a_cust from {{t}} where a_lat > {lat}"),
            format!(
                "select x.id, timestamp, v, a_lat from p_v x, {{t}} a \
                 where a.a_id = x.id and a.a_cust = {c}"
            ),
            format!(
                "select a_cust, timestamp, x.id, v from p_v x, {{t}} a, cust c \
                 where a.a_id = x.id and a.a_cust = c.c_id and c_year >= {year}"
            ),
        ] {
            let (indexed, scanned) = (q.replace("{t}", "acct"), q.replace("{t}", "heap"));
            let got = h.sql(&indexed).unwrap().rows;
            let want = h.sql(&scanned).unwrap().rows;
            prop_assert_eq!(sorted(got), sorted(want), "{}", indexed);
        }
    }

    /// Tentpole equivalence: every aggregate/group-by/bucket/gap-fill query
    /// must return the same rows whether it runs through the vectorized
    /// columnar path or the row-at-a-time fallback — including NULL-dense
    /// columns, empty tables, and empty buckets.
    #[test]
    fn vectorized_matches_row_path_on_random_tables(
        rows in prop::collection::vec(
            (0i64..4, 0i64..40, prop::option::of(-100.0f64..100.0)),
            0..100,
        ),
        bucket in prop_oneof![Just(1i64), Just(1_000i64), Just(7_777i64), Just(50_000i64)],
        summaries in any::<bool>(),
    ) {
        let engine = SqlEngine::new();
        let schema = RelSchema::new(
            "t",
            [
                ("g", odh_types::DataType::I64),
                ("ts", odh_types::DataType::Ts),
                ("v", odh_types::DataType::F64),
            ],
        );
        let t = MemTable::new(schema.clone());
        // Timestamps on a coarse grid tie across groups; (g, ts) stays
        // unique, so the greatest (ts, g) names one LAST on both paths.
        // The grid spans 0..97,500 µs, so every bucket width splits it.
        let mut seen = std::collections::HashSet::new();
        for &(g, slot, v) in rows.iter().filter(|&&(g, slot, _)| seen.insert((g, slot))) {
            let ts = slot * 2_500;
            t.insert(Row::new(vec![
                Datum::I64(g),
                Datum::Ts(Timestamp(ts)),
                v.map(Datum::F64).unwrap_or(Datum::Null),
            ]));
        }
        // Optionally behind a provider that answers every other bucket
        // with summary batches, the rest with row batches.
        if summaries {
            engine.register(std::sync::Arc::new(HalfSummarized { inner: t, schema }));
        } else {
            engine.register(t);
        }
        // Width 1 spans more buckets than rows, so the bucket fold uses
        // its map; the wider ones fold into dense bucket slots.
        let queries = [
            format!(
                "select time_bucket({bucket}, ts), COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), \
                 MAX(v) from t group by time_bucket({bucket}, ts)"
            ),
            format!(
                "select time_bucket({bucket}, ts), SUM(v) from t where ts >= '{}' \
                 group by time_bucket({bucket}, ts)",
                Timestamp(40_000)
            ),
            "select COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) from t".to_string(),
            "select g, COUNT(*), SUM(v), MIN(v), MAX(v) from t group by g".to_string(),
            "select g, LAST(v) from t group by g".to_string(),
            "select LAST(v) from t".to_string(),
            format!(
                "select time_bucket({bucket}, ts), COUNT(*), AVG(v) from t \
                 group by time_bucket({bucket}, ts)"
            ),
            format!(
                "select time_bucket_gapfill({bucket}, ts), COUNT(v), interpolate(AVG(v)) \
                 from t group by time_bucket_gapfill({bucket}, ts)"
            ),
        ];
        for q in &queries {
            engine.set_vectorized(true);
            let vec_r = engine.query(q);
            engine.set_vectorized(false);
            let row_r = engine.query(q);
            let (vec_r, row_r) = (vec_r.unwrap(), row_r.unwrap());
            prop_assert!(
                rows_close(&vec_r.rows, &row_r.rows),
                "query `{}`: vectorized {:?} != row {:?}",
                q, vec_r.rows, row_r.rows
            );
        }
    }

    /// `time_bucket` over the historian must agree across both execution
    /// tiers — vectorized (summaries where batches are covered, decode
    /// elsewhere) and row-at-a-time decode — and match a naive per-bucket
    /// fold of the raw stream, whether buckets are summary-covered or
    /// straddle batch boundaries.
    #[test]
    fn time_bucket_pushdown_matches_decode_paths(
        stream in arb_stream(),
        win in (0i64..500_000, 1i64..250_000),
        interval in prop_oneof![
            Just(1_000i64), Just(16_000i64), Just(80_000i64), Just(300_000i64)
        ],
    ) {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("p", ["v"]))
                .with_batch_size(8)
                .with_mg_group_size(2),
        )
        .unwrap();
        for id in 0..4u64 {
            h.register_source("p", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("p").unwrap();
        for &(id, ts, v, null) in &stream {
            let values = if null { vec![None] } else { vec![Some(v)] };
            w.write(&Record::new(SourceId(id), Timestamp(ts), values)).unwrap();
        }
        h.flush().unwrap();

        let (t1, t2) = (win.0, win.0 + win.1);
        let sql = format!(
            "select time_bucket({interval}, timestamp), COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) \
             from p_v where timestamp between '{}' and '{}' \
             group by time_bucket({interval}, timestamp)",
            Timestamp(t1),
            Timestamp(t2)
        );
        let vectorized = h.sql(&sql).unwrap();
        h.set_vectorized(false);
        let row = h.sql(&sql).unwrap();
        prop_assert!(
            rows_close(&vectorized.rows, &row.rows),
            "vectorized {:?} != row path {:?}", vectorized.rows, row.rows
        );
        // Naive model: bucket starts and COUNT(*) from the raw stream.
        let mut naive: std::collections::BTreeMap<i64, i64> = std::collections::BTreeMap::new();
        for &(_, ts, _, _) in &stream {
            if (t1..=t2).contains(&ts) {
                *naive.entry(ts.div_euclid(interval) * interval).or_default() += 1;
            }
        }
        prop_assert_eq!(vectorized.rows.len(), naive.len());
        for (r, (b, n)) in vectorized.rows.iter().zip(&naive) {
            prop_assert_eq!(r.get(0), &Datum::Ts(Timestamp(*b)));
            prop_assert_eq!(r.get(1), &Datum::I64(*n));
        }
    }

    /// Generational compaction is invisible to queries: scans, window
    /// aggregates, and time_bucket folds return the same answers before
    /// and after a compaction pass (including cold demotion of old
    /// generations), across both execution tiers — vectorized (summaries
    /// or decode) and row-at-a-time decode — on random fragmented tables.
    #[test]
    fn compaction_preserves_query_results(
        stream in arb_stream(),
        win in (0i64..500_000, 1i64..250_000),
    ) {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("p", ["v"]))
                .with_batch_size(8)
                .with_mg_group_size(2)
                // Sealed 8-row batches sit below the merge threshold, so
                // the pass rewrites every sealed generation; old batches
                // also demote to the cold tier, so the post arm reads
                // through it.
                .with_compact_min_batch(16)
                .with_compact_target_batch(64)
                .with_cold_after(odh_types::Duration::from_micros(100_000)),
        )
        .unwrap();
        for id in 0..4u64 {
            h.register_source("p", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        let w = h.writer("p").unwrap();
        for &(id, ts, v, null) in &stream {
            let values = if null { vec![None] } else { vec![Some(v)] };
            w.write(&Record::new(SourceId(id), Timestamp(ts), values)).unwrap();
        }
        h.flush().unwrap();

        let (t1, t2) = (win.0, win.0 + win.1);
        let scan_sql = format!(
            "select id, timestamp, v from p_v where timestamp between '{}' and '{}'",
            Timestamp(t1),
            Timestamp(t2)
        );
        let agg_sql = format!(
            "select COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v) from p_v \
             where timestamp between '{}' and '{}'",
            Timestamp(t1),
            Timestamp(t2)
        );
        let bucket_sql = format!(
            "select time_bucket(16000, timestamp), COUNT(*), COUNT(v), AVG(v) from p_v \
             where timestamp between '{}' and '{}' \
             group by time_bucket(16000, timestamp)",
            Timestamp(t1),
            Timestamp(t2)
        );
        let tiers = [true, false];
        let run = |sql: &str| -> Vec<Vec<Row>> {
            tiers
                .iter()
                .map(|&vectorized| {
                    h.set_vectorized(vectorized);
                    h.sql(sql).unwrap().rows
                })
                .collect()
        };
        // Scan rows may legally reorder across equal timestamps when the
        // batch layout changes; compare as multisets.
        let sorted = |mut rows: Vec<Row>| -> Vec<String> {
            rows.sort_by_key(|r| format!("{r:?}"));
            rows.into_iter().map(|r| format!("{r:?}")).collect()
        };

        let scan_before = run(&scan_sql);
        let agg_before = run(&agg_sql);
        let bucket_before = run(&bucket_sql);
        h.compact().unwrap();
        let scan_after = run(&scan_sql);
        let agg_after = run(&agg_sql);
        let bucket_after = run(&bucket_sql);

        for (i, (&vectorized, (before, after))) in
            tiers.iter().zip(scan_before.into_iter().zip(scan_after)).enumerate()
        {
            prop_assert_eq!(
                sorted(before),
                sorted(after),
                "tier {i} (vectorized={vectorized}): scan changed"
            );
        }
        for (i, (before, after)) in agg_before.iter().zip(&agg_after).enumerate() {
            prop_assert!(
                rows_close(before, after),
                "tier {}: aggregates changed: {:?} != {:?}", i, before, after
            );
        }
        for (i, (before, after)) in bucket_before.iter().zip(&bucket_after).enumerate() {
            prop_assert!(
                rows_close(before, after),
                "tier {}: time_bucket changed: {:?} != {:?}", i, before, after
            );
        }
    }

    /// Hostile-ingest equivalence (see tests/hostile_ingest.rs for the
    /// deterministic scenario matrix): an arbitrary permutation of the
    /// stream — including arrivals far behind the seal watermark, which
    /// take the side-buffer path — must converge to the same queryable
    /// state as time-ordered ingest, across both execution tiers,
    /// before and after a compaction pass (with cold demotion enabled).
    #[test]
    fn shuffled_and_late_ingest_equals_ordered_ingest(
        stream in arb_stream(),
        seed in any::<u64>(),
    ) {
        let mut in_order = stream.clone();
        in_order.sort_by_key(|&(id, ts, _, _)| (ts, id));
        let ordered = hostile_historian();
        write_stream(&ordered, in_order);
        let hostile = hostile_historian();
        write_stream(&hostile, permutation(stream.len(), seed).into_iter().map(|i| stream[i]));

        let pre = equivalence_check(&ordered, &hostile);
        ordered.compact().unwrap();
        hostile.compact().unwrap();
        let post = equivalence_check(&ordered, &hostile);
        if let Err(why) = pre {
            panic!("pre-compaction: {why}");
        }
        if let Err(why) = post {
            panic!("post-compaction: {why}");
        }
    }

    /// Tombstone equivalence: deleting `[t1, t2]` must leave the system
    /// observationally identical to never having written those rows —
    /// masked reads before compaction, physically resolved after it —
    /// across both execution tiers.
    #[test]
    fn tombstoned_rows_equal_never_inserted_rows(
        stream in arb_stream(),
        win in (0i64..500_000, 1i64..250_000),
    ) {
        let (t1, t2) = (win.0, win.0 + win.1);
        let full = hostile_historian();
        write_stream(&full, stream.iter().copied());
        full.delete("p", &DeletePredicate::all_sources(t1, t2)).unwrap();
        let sparse = hostile_historian();
        write_stream(
            &sparse,
            stream.iter().copied().filter(|&(_, ts, _, _)| !(t1..=t2).contains(&ts)),
        );

        let pre = equivalence_check(&full, &sparse);
        full.compact().unwrap();
        sparse.compact().unwrap();
        let post = equivalence_check(&full, &sparse);
        if let Err(why) = pre {
            panic!("masked (pre-compaction): {why}");
        }
        if let Err(why) = post {
            panic!("resolved (post-compaction): {why}");
        }
    }

    /// AS-OF join vs a naive nested loop: for every left row, the right
    /// row with the greatest timestamp at or before it within the same
    /// partition (later arrival wins timestamp ties), NULL when none.
    #[test]
    fn asof_join_matches_naive_nested_loop(
        left in prop::collection::vec((0i64..3, 0i64..500), 0..40),
        right in prop::collection::vec((0i64..3, 0i64..500, -50.0f64..50.0), 0..40),
    ) {
        let engine = SqlEngine::new();
        let a = MemTable::new(RelSchema::new(
            "a",
            [("k", odh_types::DataType::I64), ("ts", odh_types::DataType::Ts)],
        ));
        for &(k, ts) in &left {
            a.insert(Row::new(vec![Datum::I64(k), Datum::Ts(Timestamp(ts))]));
        }
        let b = MemTable::new(RelSchema::new(
            "b",
            [
                ("k", odh_types::DataType::I64),
                ("ts", odh_types::DataType::Ts),
                ("v", odh_types::DataType::F64),
            ],
        ));
        for &(k, ts, v) in &right {
            b.insert(Row::new(vec![Datum::I64(k), Datum::Ts(Timestamp(ts)), Datum::F64(v)]));
        }
        engine.register(a);
        engine.register(b);
        let r = engine
            .query("select a.k, a.ts, b.v from a asof join b on a.k = b.k and a.ts >= b.ts")
            .unwrap();
        prop_assert_eq!(r.rows.len(), left.len());
        for (row, &(k, lts)) in r.rows.iter().zip(&left) {
            prop_assert_eq!(row.get(0), &Datum::I64(k));
            prop_assert_eq!(row.get(1), &Datum::Ts(Timestamp(lts)));
            let expect = right
                .iter()
                .enumerate()
                .filter(|(_, (rk, rts, _))| *rk == k && *rts <= lts)
                .max_by_key(|(idx, (_, rts, _))| (*rts, *idx))
                .map(|(_, (_, _, v))| Datum::F64(*v))
                .unwrap_or(Datum::Null);
            prop_assert_eq!(row.get(2), &expect);
        }
    }

    /// The AS-OF self-join on the historian's virtual table, whose right
    /// scan the executor narrows to the left keys up to their latest left
    /// timestamp, vs a naive nested loop over what was written: several
    /// sources (two of them in one MG group), arrivals out of order and
    /// behind the seal watermark, some still unsealed, a predicate delete
    /// that leaves a tombstone, equal timestamps, left filters selecting
    /// no, one and every source, and both `>=` and `>`. A tie at equal
    /// (id, ts) goes to the row a full scan lists last. Sealing is inline:
    /// a background seal moving rows from its queue into a batch between
    /// two scans would reorder equal (id, ts) rows.
    #[test]
    fn asof_join_on_virtual_table_matches_naive_nested_loop(
        stream in prop::collection::vec((0u64..4, 0i64..24), 1..120),
        seed in any::<u64>(),
        del in (0u64..4, 0i64..24, 0i64..10),
        one in 0u64..4,
    ) {
        let h = Historian::builder().servers(2).build().unwrap();
        h.define_schema_type(
            TableConfig::new(SchemaType::new("p", ["v"]))
                .with_batch_size(8)
                .with_mg_group_size(2)
                .with_seal_workers(0),
        )
        .unwrap();
        for id in 0..4u64 {
            let class =
                if id < 2 { SourceClass::irregular_high() } else { SourceClass::irregular_low() };
            h.register_source("p", SourceId(id), class).unwrap();
        }
        // Each row's value is its index, so a match names its row.
        let rows: Vec<(u64, i64, f64)> =
            stream.iter().enumerate().map(|(i, &(id, t))| (id, t * 1_000, i as f64)).collect();
        let w = h.writer("p").unwrap();
        let order = permutation(rows.len(), seed);
        for (n, &i) in order.iter().enumerate() {
            let (id, ts, v) = rows[i];
            w.write(&Record::new(SourceId(id), Timestamp(ts), vec![Some(v)])).unwrap();
            if n == order.len() / 2 {
                h.flush().unwrap();
            }
        }
        let (dsrc, t1, t2) = (del.0, del.1 * 1_000, (del.1 + del.2) * 1_000);
        h.delete("p", &DeletePredicate::for_sources(t1, t2, [SourceId(dsrc)])).unwrap();
        let live: Vec<(u64, i64, f64)> = rows
            .iter()
            .copied()
            .filter(|&(id, ts, _)| !(id == dsrc && (t1..=t2).contains(&ts)))
            .collect();

        // The full scan holds exactly the live rows; its order breaks ties.
        let scan = h.sql("select id, timestamp, v from p_v").unwrap().rows;
        let mut scanned: Vec<f64> = scan.iter().map(|r| r.get(2).as_f64().unwrap()).collect();
        let position: std::collections::HashMap<u64, usize> =
            scanned.iter().enumerate().map(|(at, v)| (v.to_bits(), at)).collect();
        scanned.sort_by(f64::total_cmp);
        let mut want: Vec<f64> = live.iter().map(|r| r.2).collect();
        want.sort_by(f64::total_cmp);
        prop_assert_eq!(scanned, want);

        let sorted = |mut rows: Vec<Row>| -> Vec<String> {
            rows.sort_by_key(|r| format!("{r:?}"));
            rows.into_iter().map(|r| format!("{r:?}")).collect()
        };
        // The left side's one source, if any: 99 is never registered.
        let filters = [
            ("where a.id = 99".to_string(), Some(99)),
            (format!("where a.id = {one}"), Some(one)),
            (String::new(), None),
        ];
        for strict in [false, true] {
            let op = if strict { ">" } else { ">=" };
            for (filter, only) in &filters {
                let q = format!(
                    "select a.id, a.timestamp, a.v, b.v from p_v a asof join p_v b \
                     on a.id = b.id and a.timestamp {op} b.timestamp {filter}"
                );
                let got = h.sql(&q).unwrap().rows;
                let expect: Vec<Row> = live
                    .iter()
                    .filter(|&&(id, _, _)| only.is_none_or(|s| s == id))
                    .map(|&(id, ts, v)| {
                        let matched = live
                            .iter()
                            .filter(|&&(rid, rts, _)| {
                                rid == id && if strict { rts < ts } else { rts <= ts }
                            })
                            .max_by_key(|&&(_, rts, rv)| (rts, position[&rv.to_bits()]))
                            .map(|&(_, _, rv)| rv);
                        Row::new(vec![
                            Datum::I64(id as i64),
                            Datum::Ts(Timestamp(ts)),
                            Datum::F64(v),
                            matched.map_or(Datum::Null, Datum::F64),
                        ])
                    })
                    .collect();
                prop_assert_eq!(sorted(got), sorted(expect), "{}", q);
            }
        }
    }

    /// LAST over the historian, global and grouped by id: the vectorized
    /// tier, whose scan reads each source newest-first and stops once
    /// its answer is settled, must equal the row path and a naive fold.
    /// Covered: several batches per source, cold history under newer hot
    /// batches, late rows sealed into side batches overlapping the
    /// sealed ones, a tombstone over the newest rows, a tag NULL
    /// throughout a source's newest rows, ties on the newest timestamp
    /// across sources, rows still unsealed, and an MG group.
    #[test]
    fn last_reads_newest_first_and_matches_row_path(
        stream in prop::collection::vec(
            (0u64..6, 0i64..48, prop::option::of(-100.0f64..100.0), any::<bool>()),
            1..160,
        ),
        split in 8i64..40,
        late_every in 2usize..6,
        del in (0i64..12, 0i64..6),
        null in (0u64..4, 0i64..48),
        tail in 0usize..12,
        compact in any::<bool>(),
    ) {
        // Timestamps on a coarse grid tie across sources; (id, ts) stays
        // unique, so LAST has one answer.
        let mut seen = std::collections::HashSet::new();
        let rows: Vec<(u64, i64, [Option<f64>; 2])> = stream
            .iter()
            .filter(|&&(id, t, _, _)| seen.insert((id, t)))
            .map(|&(id, t, v, w_null)| {
                let v = v.filter(|_| !(id == null.0 && t >= null.1));
                let w = (!w_null).then_some(t as f64 + id as f64 / 10.0);
                (id, t * 5_000, [v, w])
            })
            .collect();
        let h = last_historian();
        let w = h.writer("p").unwrap();
        let put = |r: &(u64, i64, [Option<f64>; 2])| {
            w.write(&Record::new(SourceId(r.0), Timestamp(r.1), r.2.to_vec())).unwrap();
        };
        let mut by_time = rows.clone();
        by_time.sort_by_key(|&(id, ts, _)| (ts, id));
        let (old, new): (Vec<_>, Vec<_>) =
            by_time.iter().partition(|&&(_, ts, _)| ts < split * 5_000);
        // Old history, less every `late_every`-th row, sealed and (maybe)
        // compacted into the cold generation.
        for (i, r) in old.iter().enumerate() {
            if i % late_every != 0 {
                put(r);
            }
        }
        h.flush().unwrap();
        if compact {
            h.compact().unwrap();
        }
        // Newer history, then the withheld rows far behind the watermark
        // (side batches); the last `tail` rows stay unsealed.
        let unsealed = new.len().saturating_sub(tail);
        for r in &new[..unsealed] {
            put(r);
        }
        for (i, r) in old.iter().enumerate() {
            if i % late_every == 0 {
                put(r);
            }
        }
        h.flush().unwrap();
        // A tombstone over some of the newest rows (it masks the tail
        // too, whatever the write order).
        let (d1, d2) = ((47 - del.0) * 5_000, (47 - del.0 + del.1) * 5_000);
        h.delete("p", &DeletePredicate::all_sources(d1, d2)).unwrap();
        for r in &new[unsealed..] {
            put(r);
        }
        let live: Vec<_> =
            rows.iter().copied().filter(|&(_, ts, _)| !(d1..=d2).contains(&ts)).collect();

        let cut = split * 5_000 + 2_500;
        let queries = [
            "select LAST(v) from p_v".to_string(),
            "select id, LAST(v) from p_v group by id".to_string(),
            "select LAST(v), LAST(w) from p_v".to_string(),
            "select id, LAST(w), LAST(v) from p_v group by id".to_string(),
            "select id, LAST(timestamp) from p_v group by id".to_string(),
            "select id, LAST(timestamp), LAST(v) from p_v group by id".to_string(),
            "select LAST(id), LAST(v) from p_v".to_string(),
            format!("select id, LAST(v) from p_v where timestamp <= '{}' group by id", Timestamp(cut)),
            format!("select LAST(w) from p_v where id = {}", null.0),
        ];
        for q in &queries {
            h.set_vectorized(true);
            let vec_rows = h.sql(q).unwrap().rows;
            h.set_vectorized(false);
            let row_rows = h.sql(q).unwrap().rows;
            prop_assert_eq!(&vec_rows, &row_rows, "{}", q);
        }
        h.set_vectorized(true);
        for tag in 0..2 {
            let name = ["v", "w"][tag];
            let want = naive_last(&live, tag);
            let ids: std::collections::BTreeSet<u64> = live.iter().map(|r| r.0).collect();
            let grouped: Vec<Row> = ids
                .iter()
                .map(|&id| {
                    let v = want.iter().find(|r| r.0 == id).map_or(Datum::Null, |r| Datum::F64(r.2));
                    Row::new(vec![Datum::I64(id as i64), v])
                })
                .collect();
            let got = h.sql(&format!("select id, LAST({name}) from p_v group by id")).unwrap();
            prop_assert_eq!(got.rows, grouped, "grouped LAST({})", name);
            let global = want
                .iter()
                .max_by_key(|&&(id, ts, _)| (ts, id))
                .map_or(Datum::Null, |&(_, _, v)| Datum::F64(v));
            let got = h.sql(&format!("select LAST({name}) from p_v")).unwrap();
            prop_assert_eq!(got.rows, vec![Row::new(vec![global])], "global LAST({})", name);
        }
    }
}
