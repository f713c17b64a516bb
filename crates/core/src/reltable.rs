//! Ordinary relational tables for the SQL layer.
//!
//! ODH "stores both relational data and operational data in one database"
//! (§1). [`RelTable`] adapts the row store to the VTI trait so dimension
//! tables (sensor_info, Customer, Account, LinkedSensor) join with virtual
//! tables in one query — and the *same* adapter is what the benchmark's
//! baseline systems are built from (RDB/MySQL = a SqlEngine whose only
//! providers are RelTables, including one for the operational records).

use odh_pager::pool::BufferPool;
use odh_rdb::{RdbProfile, RowTable};
use odh_sim::ResourceMeter;
use odh_sql::provider::{ColumnFilter, ScanRequest, TableProvider};
use odh_sql::stats::ColumnStats;
use odh_types::{Datum, OdhError, RelSchema, Result, Row};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Row-store table + column stats + provider implementation.
pub struct RelTable {
    inner: RowTable,
    stats: RwLock<Vec<ColumnStats>>,
    /// column index → B-tree index name in the row store.
    indexed: RwLock<HashMap<usize, String>>,
}

impl RelTable {
    pub fn create(
        pool: Arc<BufferPool>,
        meter: Arc<ResourceMeter>,
        schema: RelSchema,
        profile: RdbProfile,
    ) -> Arc<RelTable> {
        let n = schema.arity();
        Arc::new(RelTable {
            inner: RowTable::create(pool, meter, schema, profile),
            stats: RwLock::new(vec![ColumnStats::default(); n]),
            indexed: RwLock::new(HashMap::new()),
        })
    }

    /// Create a single-column B-tree index usable for pushdown and probes.
    pub fn create_index(&self, name: &str, column: &str) -> Result<()> {
        let col = self
            .inner
            .schema
            .column_index(column)
            .ok_or_else(|| OdhError::Plan(format!("unknown column '{column}'")))?;
        self.inner.create_index(name, &[column])?;
        self.indexed.write().insert(col, name.to_string());
        Ok(())
    }

    pub fn insert(&self, row: &Row) -> Result<()> {
        {
            let mut st = self.stats.write();
            for (i, c) in row.cells().iter().enumerate() {
                st[i].observe(c);
            }
        }
        self.inner.insert(row)?;
        Ok(())
    }

    pub fn inner(&self) -> &RowTable {
        &self.inner
    }

    pub fn row_count(&self) -> u64 {
        self.inner.row_count()
    }

    pub fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    fn row_bytes(&self) -> f64 {
        (self.inner.schema.arity() * 8 + self.inner.profile.row_overhead) as f64
    }

    /// Best indexed filter to drive the scan: prefer equality, then range.
    fn pick_index_filter<'f>(
        &self,
        filters: &'f [(usize, ColumnFilter)],
    ) -> Option<(usize, String, &'f ColumnFilter)> {
        let indexed = self.indexed.read();
        let mut best: Option<(usize, String, &ColumnFilter)> = None;
        for (c, f) in filters {
            if let Some(name) = indexed.get(c) {
                let is_eq = matches!(f, ColumnFilter::Eq(_));
                match &best {
                    Some((_, _, ColumnFilter::Eq(_))) => {}
                    _ if is_eq => best = Some((*c, name.clone(), f)),
                    None => best = Some((*c, name.clone(), f)),
                    _ => {}
                }
            }
        }
        best
    }
}

/// Type-appropriate minimal/maximal datum for open range bounds.
fn bound_or_extreme(b: &Option<(Datum, bool)>, dtype: odh_types::DataType, low: bool) -> Datum {
    if let Some((d, _)) = b {
        return d.clone();
    }
    use odh_types::DataType::*;
    match (dtype, low) {
        (I64, true) | (Ts, true) => Datum::I64(i64::MIN),
        (I64, false) | (Ts, false) => Datum::I64(i64::MAX),
        (F64, true) => Datum::F64(f64::NEG_INFINITY),
        (F64, false) => Datum::F64(f64::INFINITY),
        (Str, true) => Datum::str(""),
        (Str, false) => Datum::str("\u{10FFFF}"),
    }
}

impl TableProvider for RelTable {
    fn name(&self) -> &str {
        &self.inner.schema.name
    }

    fn schema(&self) -> &RelSchema {
        &self.inner.schema
    }

    fn estimate_rows(&self, filters: &[(usize, ColumnFilter)]) -> f64 {
        let st = self.stats.read();
        let mut rows = self.row_count() as f64;
        for (c, f) in filters {
            rows *= st[*c].selectivity(f);
        }
        rows.max(1.0)
    }

    fn estimate_cost(&self, req: &ScanRequest) -> f64 {
        // Indexed filter → touch matching rows; otherwise full heap scan.
        if self.pick_index_filter(&req.filters).is_some() {
            self.estimate_rows(&req.filters) * self.row_bytes() + 8192.0
        } else {
            self.row_count() as f64 * self.row_bytes()
        }
    }

    /// Rows come in insertion order on both paths: an index-driven scan
    /// sorts its record ids, which the append-only heap hands out in
    /// insertion order, so rows equal on the filtered columns keep the
    /// relative order a full scan gives them.
    fn scan(&self, req: &ScanRequest) -> Result<Vec<Row>> {
        if let Some((col, index, filter)) = self.pick_index_filter(&req.filters) {
            let dtype = self.inner.schema.columns[col].dtype;
            let (from, to) = match filter {
                ColumnFilter::Eq(d) => (d.clone(), d.clone()),
                ColumnFilter::Range { lo, hi } => {
                    (bound_or_extreme(lo, dtype, true), bound_or_extreme(hi, dtype, false))
                }
            };
            let mut rids = self.inner.index_rids(&index, &[from], &[to])?;
            rids.sort_unstable();
            let mut out = Vec::with_capacity(rids.len());
            for rid in rids {
                let row = self.inner.get(rid)?;
                // Apply the remaining filters exactly.
                if req.filters.iter().all(|(c, f)| f.matches(row.get(*c))) {
                    out.push(row);
                }
            }
            return Ok(out);
        }
        let mut out = Vec::new();
        for r in self.inner.scan() {
            let (_, row) = r?;
            if req.filters.iter().all(|(c, f)| f.matches(row.get(*c))) {
                out.push(row);
            }
        }
        Ok(out)
    }

    fn probe_cost(&self, column: usize) -> Option<f64> {
        if !self.indexed.read().contains_key(&column) {
            return None;
        }
        let st = self.stats.read();
        Some(st[column].rows_per_key() * self.row_bytes() + 256.0)
    }

    fn index_lookup(
        &self,
        column: usize,
        key: &Datum,
        _needed: &[usize],
    ) -> Option<Result<Vec<Row>>> {
        let name = self.indexed.read().get(&column)?.clone();
        Some(self.inner.index_eq(&name, std::slice::from_ref(key)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_pager::disk::MemDisk;
    use odh_types::{DataType, Timestamp};

    fn table() -> Arc<RelTable> {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let t = RelTable::create(
            pool,
            ResourceMeter::unmetered(),
            RelSchema::new(
                "trade",
                [("t_dts", DataType::Ts), ("t_ca_id", DataType::I64), ("p", DataType::F64)],
            ),
            RdbProfile::RDB,
        );
        t.create_index("idx_dts", "t_dts").unwrap();
        t.create_index("idx_ca", "t_ca_id").unwrap();
        for i in 0..200i64 {
            t.insert(&Row::new(vec![
                Datum::Ts(Timestamp(i * 1000)),
                Datum::I64(i % 20),
                Datum::F64(i as f64),
            ]))
            .unwrap();
        }
        t
    }

    #[test]
    fn scan_uses_equality_index() {
        let t = table();
        let req = ScanRequest {
            filters: vec![(1, ColumnFilter::Eq(Datum::I64(7)))],
            needed: vec![0, 1, 2],
            ..Default::default()
        };
        let rows = t.scan(&req).unwrap();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn scan_uses_range_index_with_open_bounds() {
        let t = table();
        let req = ScanRequest {
            filters: vec![(
                0,
                ColumnFilter::Range { lo: Some((Datum::Ts(Timestamp(190_000)), true)), hi: None },
            )],
            needed: vec![0],
            ..Default::default()
        };
        let rows = t.scan(&req).unwrap();
        assert_eq!(rows.len(), 10); // 190..200
    }

    #[test]
    fn full_scan_when_no_index_applies() {
        let t = table();
        let req = ScanRequest {
            filters: vec![(2, ColumnFilter::Eq(Datum::F64(5.0)))],
            needed: vec![2],
            ..Default::default()
        };
        let rows = t.scan(&req).unwrap();
        assert_eq!(rows.len(), 1);
        // Cost model reflects the full scan.
        let idx_req = ScanRequest {
            filters: vec![(1, ColumnFilter::Eq(Datum::I64(7)))],
            needed: vec![1],
            ..Default::default()
        };
        assert!(t.estimate_cost(&req) > t.estimate_cost(&idx_req));
    }

    #[test]
    fn exclusive_range_bounds_are_exact() {
        let t = table();
        let req = ScanRequest {
            filters: vec![(
                0,
                ColumnFilter::Range {
                    lo: Some((Datum::Ts(Timestamp(1000)), false)),
                    hi: Some((Datum::Ts(Timestamp(3000)), false)),
                },
            )],
            needed: vec![0],
            ..Default::default()
        };
        let rows = t.scan(&req).unwrap();
        assert_eq!(rows.len(), 1); // only t=2000
    }

    #[test]
    fn index_scans_return_rows_in_insertion_order() {
        let t = table();
        let heap = |f: ColumnFilter, col: usize| {
            let all = t.scan(&ScanRequest::default()).unwrap();
            all.into_iter().filter(|r| f.matches(r.get(col))).collect::<Vec<_>>()
        };
        let eq = ColumnFilter::Eq(Datum::I64(7));
        let req = ScanRequest { filters: vec![(1, eq.clone())], ..Default::default() };
        assert_eq!(t.scan(&req).unwrap(), heap(eq, 1));
        let range =
            ColumnFilter::Range { lo: None, hi: Some((Datum::Ts(Timestamp(50_000)), true)) };
        let req = ScanRequest { filters: vec![(0, range.clone())], ..Default::default() };
        assert_eq!(t.scan(&req).unwrap(), heap(range, 0));
    }

    /// Quotes with two rows at each of (2, 5) and (1, 8): the later-inserted
    /// one is the ASOF match, as in a full heap scan.
    fn quotes(name: &str, indexed: bool) -> Arc<RelTable> {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let schema = RelSchema::new(
            name,
            [("q_id", DataType::I64), ("q_ts", DataType::Ts), ("q_px", DataType::F64)],
        );
        let t = RelTable::create(pool, ResourceMeter::unmetered(), schema, RdbProfile::RDB);
        if indexed {
            t.create_index(&format!("{name}_id"), "q_id").unwrap();
            t.create_index(&format!("{name}_ts"), "q_ts").unwrap();
        }
        let mut rows: Vec<(i64, i64, f64)> = Vec::new();
        for id in 1..=3 {
            rows.extend((0..10).map(|ts| (id, ts, (id * 100 + ts) as f64)));
        }
        rows.extend([(2, 5, -1.0), (1, 8, -3.0), (2, 5, -2.0), (1, 8, -4.0)]);
        for (id, ts, px) in rows {
            let row = vec![Datum::I64(id), Datum::Ts(Timestamp(ts)), Datum::F64(px)];
            t.insert(&Row::new(row)).unwrap();
        }
        t
    }

    #[test]
    fn asof_ties_on_an_indexed_right_side_match_a_heap_scan() {
        let e = odh_sql::SqlEngine::new();
        e.register(quotes("q_idx", true));
        e.register(quotes("q_heap", false));
        let trades = odh_sql::provider::MemTable::new(RelSchema::new(
            "trades",
            [("tr_id", DataType::I64), ("tr_ts", DataType::Ts)],
        ));
        for (id, ts) in [(2, 5), (2, 7), (1, 8)] {
            trades.insert(Row::new(vec![Datum::I64(id), Datum::Ts(Timestamp(ts))]));
        }
        e.register(trades);
        let px = |right: &str, filter: &str| -> Vec<Datum> {
            let sql = format!(
                "select q.q_px from trades t asof join {right} q \
                 on q.q_id = t.tr_id and q.q_ts <= t.tr_ts {filter}"
            );
            e.query(&sql).unwrap().rows.iter().map(|r| r.get(0).clone()).collect()
        };
        // One left key: the right scan is `q_id = 2`, an index lookup.
        let one = px("q_idx", "where t.tr_id = 2");
        assert_eq!(one, vec![Datum::F64(-2.0), Datum::F64(207.0)]);
        assert_eq!(one, px("q_heap", "where t.tr_id = 2"));
        // Two keys: the right scan is `q_ts <= 9`, an index range.
        let two = px("q_idx", "");
        assert_eq!(two, vec![Datum::F64(-2.0), Datum::F64(207.0), Datum::F64(-4.0)]);
        assert_eq!(two, px("q_heap", ""));
    }

    #[test]
    fn provider_probe_and_lookup() {
        let t = table();
        assert!(t.probe_cost(1).is_some());
        assert!(t.probe_cost(2).is_none());
        let rows = t.index_lookup(1, &Datum::I64(3), &[]).unwrap().unwrap();
        assert_eq!(rows.len(), 10);
    }
}
