//! The Virtual Table Interface: [`TableProvider`].
//!
//! A provider is anything that exposes a relational schema and can scan
//! itself under pushed-down per-column restrictions. The optimizer asks
//! providers two questions — *how many rows* would this scan produce and
//! *how many bytes* would it touch (for ODH virtual tables: expected
//! ValueBlob bytes, the paper's cost model) — and picks join orders
//! accordingly. Providers may additionally support point index lookups,
//! which the executor uses for index-nested-loop joins.

use crate::stats::ColumnStats;
use odh_types::{DataType, Datum, RelSchema, Result, Row};
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A pushed-down restriction on one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnFilter {
    Eq(Datum),
    /// `(bound, inclusive)` on either side; `None` = open.
    Range {
        lo: Option<(Datum, bool)>,
        hi: Option<(Datum, bool)>,
    },
}

impl ColumnFilter {
    /// Does `d` satisfy this restriction? (SQL semantics: NULL never does.)
    pub fn matches(&self, d: &Datum) -> bool {
        match self {
            ColumnFilter::Eq(k) => d.sql_eq(k),
            ColumnFilter::Range { lo, hi } => {
                if let Some((b, inc)) = lo {
                    match d.sql_cmp(b) {
                        Some(Ordering::Greater) => {}
                        Some(Ordering::Equal) if *inc => {}
                        _ => return false,
                    }
                }
                if let Some((b, inc)) = hi {
                    match d.sql_cmp(b) {
                        Some(Ordering::Less) => {}
                        Some(Ordering::Equal) if *inc => {}
                        _ => return false,
                    }
                }
                true
            }
        }
    }

    /// Merge two restrictions on the same column (conjunction).
    pub fn and(self, other: ColumnFilter) -> ColumnFilter {
        use ColumnFilter::*;
        match (self, other) {
            (Eq(a), _) => Eq(a), // equality subsumes (checked again at eval)
            (_, Eq(b)) => Eq(b),
            (Range { lo: l1, hi: h1 }, Range { lo: l2, hi: h2 }) => {
                let lo = tighter(l1, l2, true);
                let hi = tighter(h1, h2, false);
                Range { lo, hi }
            }
        }
    }
}

fn tighter(
    a: Option<(Datum, bool)>,
    b: Option<(Datum, bool)>,
    is_lower: bool,
) -> Option<(Datum, bool)> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((da, ia)), Some((db, ib))) => match da.sql_cmp(&db) {
            Some(Ordering::Greater) => Some(if is_lower { (da, ia) } else { (db, ib) }),
            Some(Ordering::Less) => Some(if is_lower { (db, ib) } else { (da, ia) }),
            _ => Some((da, ia && ib)),
        },
    }
}

/// The time grain at which a columnar scan may answer a stored batch with
/// its seal-time summary instead of its rows (see
/// [`ScanRequest::summaries`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryGrain {
    /// Any batch wholly inside the filters' range (a global aggregate).
    Whole,
    /// A batch wholly inside the filters' range and inside one
    /// `width`-wide bucket of `column` (`GROUP BY time_bucket`).
    Bucket { column: usize, width: i64 },
}

/// What a scan must produce: pushed-down filters plus the set of columns
/// the query will actually read (projection ∪ predicate ∪ join columns).
/// Providers may leave un-needed cells NULL — the tag-oriented ODH virtual
/// table relies on this to skip blob sections.
#[derive(Debug, Clone, Default)]
pub struct ScanRequest {
    pub filters: Vec<(usize, ColumnFilter)>,
    pub needed: Vec<usize>,
    /// `Some` when the executor folds summaries: a columnar provider may
    /// then hand back a whole stored batch as a summary batch
    /// ([`crate::column::ColumnBatch::summary`]) when the batch lies
    /// inside the range the filters select *exactly* and inside one
    /// bucket of the grain. The executor asks only when every residual
    /// predicate is implied by the filters and every aggregate is
    /// `COUNT(*)` or `COUNT/SUM/AVG/MIN/MAX` over an F64 column.
    pub summaries: Option<SummaryGrain>,
    /// `true` when the executor's only aggregates are LAST — global or
    /// grouped by the leading id column — and the filters imply every
    /// residual. A columnar provider may then leave out any row that, in
    /// every needed column where it holds a value, is outdone by a
    /// returned row with the same id and a strictly later timestamp:
    /// such a row can be no LAST. Providers may ignore the mark.
    pub latest: bool,
}

impl ScanRequest {
    pub fn filter_for(&self, column: usize) -> Option<&ColumnFilter> {
        self.filters.iter().find(|(c, _)| *c == column).map(|(_, f)| f)
    }
}

/// The result of a columnar scan: typed batches, no `Row` materialized.
pub struct ColumnarScan {
    pub batches: Vec<crate::column::ColumnBatch>,
}

/// The VTI contract.
#[allow(clippy::type_complexity)]
pub trait TableProvider: Send + Sync {
    fn name(&self) -> &str;
    fn schema(&self) -> &RelSchema;

    /// Expected result rows for a scan under `filters`.
    fn estimate_rows(&self, filters: &[(usize, ColumnFilter)]) -> f64;

    /// Expected bytes touched by the scan — for virtual tables this is the
    /// expected ValueBlob bytes (§3's cost model).
    fn estimate_cost(&self, req: &ScanRequest) -> f64;

    /// Produce full-arity rows matching the pushed filters. Providers may
    /// return a superset (the executor re-applies every predicate) and may
    /// leave non-`needed` cells NULL. Rows equal on every filtered column
    /// keep one relative order whatever the filters: ASOF JOIN breaks
    /// timestamp ties by scan order, and narrows its right-side scans.
    fn scan(&self, req: &ScanRequest) -> Result<Vec<Row>>;

    /// Columnar variant of [`TableProvider::scan`]: typed column vectors,
    /// no per-row materialization. Same superset contract — the vectorized
    /// executor re-applies every residual predicate through selection
    /// vectors, so providers may skip row-level filtering entirely (ODH
    /// virtual tables hand out decode-cache column slices as-is, including
    /// rows of other sources in an MG batch). `None` declines and the
    /// executor stays on the row path. Summary batches are optional: a
    /// provider may ignore [`ScanRequest::summaries`].
    fn scan_columnar(&self, _req: &ScanRequest) -> Option<Result<ColumnarScan>> {
        None
    }

    /// Cost in bytes of one indexed probe on `column`, if an index exists.
    fn probe_cost(&self, _column: usize) -> Option<f64> {
        None
    }

    /// Point lookup by `column == key`, if an index exists.
    fn index_lookup(
        &self,
        _column: usize,
        _key: &Datum,
        _needed: &[usize],
    ) -> Option<Result<Vec<Row>>> {
        None
    }
}

/// A simple in-memory provider used in tests and for small dimension
/// tables; maintains per-column stats and optional hash indexes.
pub struct MemTable {
    schema: RelSchema,
    rows: RwLock<Vec<Row>>,
    stats: RwLock<Vec<ColumnStats>>,
    indexes: RwLock<HashMap<usize, HashMap<Datum, Vec<usize>>>>,
}

impl MemTable {
    pub fn new(schema: RelSchema) -> Arc<MemTable> {
        let n = schema.arity();
        Arc::new(MemTable {
            schema,
            rows: RwLock::new(Vec::new()),
            stats: RwLock::new(vec![ColumnStats::default(); n]),
            indexes: RwLock::new(HashMap::new()),
        })
    }

    /// Declare a hash index on `column` (by name). Rows inserted earlier
    /// are back-filled.
    pub fn create_index(&self, column: &str) {
        let Some(idx) = self.schema.column_index(column) else { return };
        let rows = self.rows.read();
        let mut map: HashMap<Datum, Vec<usize>> = HashMap::new();
        for (i, r) in rows.iter().enumerate() {
            map.entry(r.get(idx).clone()).or_default().push(i);
        }
        self.indexes.write().insert(idx, map);
    }

    pub fn insert(&self, row: Row) {
        debug_assert_eq!(row.arity(), self.schema.arity());
        {
            let mut st = self.stats.write();
            for (i, c) in row.cells().iter().enumerate() {
                st[i].observe(c);
            }
        }
        let mut rows = self.rows.write();
        let pos = rows.len();
        for (col, map) in self.indexes.write().iter_mut() {
            map.entry(row.get(*col).clone()).or_default().push(pos);
        }
        rows.push(row);
    }

    pub fn len(&self) -> usize {
        self.rows.read().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observed mean row width in bytes (real string sizes, not 8/cell).
    fn row_bytes(&self) -> f64 {
        self.stats.read().iter().map(|s| s.avg_bytes()).sum::<f64>().max(1.0)
    }
}

/// Bitmap with every bit set except the listed NULL slots (`None` when
/// the column has no NULLs).
fn validity_from_nulls(nulls: &[usize], len: usize) -> Option<Vec<u64>> {
    if nulls.is_empty() {
        return None;
    }
    let mut bits = crate::column::empty_bitmap(len);
    for i in 0..len {
        crate::column::set_bit(&mut bits, i);
    }
    for &i in nulls {
        bits[i >> 6] &= !(1u64 << (i & 63));
    }
    Some(bits)
}

impl TableProvider for MemTable {
    fn name(&self) -> &str {
        &self.schema.name
    }

    fn schema(&self) -> &RelSchema {
        &self.schema
    }

    fn estimate_rows(&self, filters: &[(usize, ColumnFilter)]) -> f64 {
        let st = self.stats.read();
        let mut rows = self.len() as f64;
        for (col, f) in filters {
            rows *= st[*col].selectivity(f);
        }
        rows.max(1.0)
    }

    fn estimate_cost(&self, req: &ScanRequest) -> f64 {
        // Memory table: cost ≈ rows touched × *observed* row width (real
        // per-column byte sizes — string cells price header + payload, so
        // string-heavy scans are no longer undercounted). Filters do not
        // reduce touched rows (no ordering), only output.
        let _ = req;
        self.len() as f64 * self.row_bytes()
    }

    fn scan(&self, req: &ScanRequest) -> Result<Vec<Row>> {
        let rows = self.rows.read();
        Ok(rows
            .iter()
            .filter(|r| req.filters.iter().all(|(c, f)| f.matches(r.get(*c))))
            .cloned()
            .collect())
    }

    fn scan_columnar(&self, req: &ScanRequest) -> Option<Result<ColumnarScan>> {
        use crate::column::{ColVec, ColumnBatch, BATCH_SIZE};
        let rows = self.rows.read();
        let keep: Vec<usize> = (0..rows.len())
            .filter(|&i| req.filters.iter().all(|(c, f)| f.matches(rows[i].get(*c))))
            .collect();
        let dtypes: Arc<[DataType]> = self.schema.columns.iter().map(|c| c.dtype).collect();
        let ts_col = dtypes.iter().position(|&d| d == DataType::Ts);
        let mut batches = Vec::with_capacity(keep.len().div_ceil(BATCH_SIZE).max(1));
        for chunk in keep.chunks(BATCH_SIZE.max(1)) {
            let len = chunk.len();
            let ts = chunk.iter().filter_map(|&ri| rows[ri].get(ts_col?).as_ts().map(|t| t.0));
            let ts_range = ts.fold(None, |r: Option<(i64, i64)>, t| {
                Some(r.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))))
            });
            let mut cols = Vec::with_capacity(dtypes.len());
            for (ci, &dt) in dtypes.iter().enumerate() {
                if !req.needed.contains(&ci) {
                    cols.push(ColVec::Absent);
                    continue;
                }
                let mut nulls: Vec<usize> = Vec::new();
                let col = match dt {
                    DataType::I64 | DataType::Ts => {
                        let mut data = vec![0i64; len];
                        for (slot, &ri) in chunk.iter().enumerate() {
                            match rows[ri].get(ci) {
                                Datum::I64(v) => data[slot] = *v,
                                Datum::Ts(t) => data[slot] = t.0,
                                Datum::Null => nulls.push(slot),
                                _ => return None, // loosely-typed cell: row path
                            }
                        }
                        ColVec::I64 { data, validity: validity_from_nulls(&nulls, len) }
                    }
                    DataType::F64 => {
                        let mut data = vec![0f64; len];
                        for (slot, &ri) in chunk.iter().enumerate() {
                            match rows[ri].get(ci) {
                                Datum::F64(v) => data[slot] = *v,
                                Datum::I64(v) => data[slot] = *v as f64,
                                Datum::Null => nulls.push(slot),
                                _ => return None,
                            }
                        }
                        ColVec::F64 { data, validity: validity_from_nulls(&nulls, len) }
                    }
                    DataType::Str => {
                        let mut data: Vec<std::sync::Arc<str>> = vec!["".into(); len];
                        for (slot, &ri) in chunk.iter().enumerate() {
                            match rows[ri].get(ci) {
                                Datum::Str(s) => data[slot] = s.clone(),
                                Datum::Null => nulls.push(slot),
                                _ => return None,
                            }
                        }
                        ColVec::Str { data, validity: validity_from_nulls(&nulls, len) }
                    }
                };
                cols.push(col);
            }
            batches.push(ColumnBatch {
                len,
                dtypes: dtypes.clone(),
                cols,
                ts_range,
                summary: false,
            });
        }
        Some(Ok(ColumnarScan { batches }))
    }

    fn probe_cost(&self, column: usize) -> Option<f64> {
        if self.indexes.read().contains_key(&column) {
            let st = self.stats.read();
            Some(st[column].rows_per_key() * self.row_bytes())
        } else {
            None
        }
    }

    fn index_lookup(
        &self,
        column: usize,
        key: &Datum,
        _needed: &[usize],
    ) -> Option<Result<Vec<Row>>> {
        let idxs = self.indexes.read();
        let map = idxs.get(&column)?;
        let rows = self.rows.read();
        Some(Ok(map
            .get(key)
            .map(|positions| positions.iter().map(|&p| rows[p].clone()).collect())
            .unwrap_or_default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_types::DataType;

    fn sensors() -> Arc<MemTable> {
        let t = MemTable::new(RelSchema::new(
            "sensor_info",
            [("id", DataType::I64), ("area", DataType::Str)],
        ));
        for i in 0..100i64 {
            t.insert(Row::new(vec![Datum::I64(i), Datum::str(format!("S{}", i % 4))]));
        }
        t.create_index("id");
        t
    }

    #[test]
    fn filter_matching() {
        let f = ColumnFilter::Eq(Datum::I64(5));
        assert!(f.matches(&Datum::I64(5)));
        assert!(!f.matches(&Datum::I64(6)));
        assert!(!f.matches(&Datum::Null));
        let r = ColumnFilter::Range {
            lo: Some((Datum::F64(1.0), true)),
            hi: Some((Datum::F64(2.0), false)),
        };
        assert!(r.matches(&Datum::F64(1.0)));
        assert!(r.matches(&Datum::F64(1.5)));
        assert!(!r.matches(&Datum::F64(2.0)));
        assert!(!r.matches(&Datum::Null));
    }

    #[test]
    fn filter_conjunction_tightens() {
        let a = ColumnFilter::Range { lo: Some((Datum::I64(0), true)), hi: None };
        let b = ColumnFilter::Range {
            lo: Some((Datum::I64(5), false)),
            hi: Some((Datum::I64(10), true)),
        };
        match a.and(b) {
            ColumnFilter::Range { lo: Some((lo, inc)), hi: Some((hi, _)) } => {
                assert_eq!(lo, Datum::I64(5));
                assert!(!inc);
                assert_eq!(hi, Datum::I64(10));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn mem_table_scan_with_filters() {
        let t = sensors();
        let req = ScanRequest {
            filters: vec![(1, ColumnFilter::Eq(Datum::str("S1")))],
            needed: vec![0, 1],
            ..Default::default()
        };
        let rows = t.scan(&req).unwrap();
        assert_eq!(rows.len(), 25);
        assert!(rows.iter().all(|r| r.get(1) == &Datum::str("S1")));
    }

    #[test]
    fn mem_table_index_lookup() {
        let t = sensors();
        let rows = t.index_lookup(0, &Datum::I64(42), &[0, 1]).unwrap().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0), &Datum::I64(42));
        assert!(t.index_lookup(1, &Datum::str("S1"), &[]).is_none(), "no index on area");
        assert!(t.probe_cost(0).is_some());
        assert!(t.probe_cost(1).is_none());
    }

    #[test]
    fn estimates_respond_to_filters() {
        let t = sensors();
        let all = t.estimate_rows(&[]);
        let some = t.estimate_rows(&[(1, ColumnFilter::Eq(Datum::str("S1")))]);
        assert!(some < all);
        assert!(some >= 1.0);
    }
}
