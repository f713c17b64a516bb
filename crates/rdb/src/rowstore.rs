//! The row table: heap file + per-record index maintenance.

use crate::profile::RdbProfile;
use crate::tuple;
use odh_btree::{BTree, KeyBuf};
use odh_pager::heap::{HeapFile, RecordId};
use odh_pager::pool::BufferPool;
use odh_sim::ResourceMeter;
use odh_types::{DataType, Datum, OdhError, RelSchema, Result, Row};
use parking_lot::RwLock;
use std::sync::Arc;

/// A secondary index over one or more columns.
struct Index {
    name: String,
    columns: Vec<usize>,
    tree: BTree,
}

/// One relational table of the baseline store.
pub struct RowTable {
    pub schema: RelSchema,
    pub profile: RdbProfile,
    pool: Arc<BufferPool>,
    meter: Arc<ResourceMeter>,
    heap: HeapFile,
    indexes: RwLock<Vec<Index>>,
}

impl RowTable {
    pub fn create(
        pool: Arc<BufferPool>,
        meter: Arc<ResourceMeter>,
        schema: RelSchema,
        profile: RdbProfile,
    ) -> RowTable {
        RowTable {
            heap: HeapFile::create(pool.clone()),
            indexes: RwLock::new(Vec::new()),
            schema,
            profile,
            pool,
            meter,
        }
    }

    /// Create a B-tree index on `columns` (by name). Existing rows are not
    /// back-filled: create indexes before loading, as the benchmark does
    /// ("B-tree indices are created on T_DTS and T_CA_ID").
    pub fn create_index(&self, name: impl Into<String>, columns: &[&str]) -> Result<()> {
        let cols: Result<Vec<usize>> = columns
            .iter()
            .map(|c| {
                self.schema
                    .column_index(c)
                    .ok_or_else(|| OdhError::Plan(format!("unknown index column '{c}'")))
            })
            .collect();
        self.indexes.write().push(Index {
            name: name.into(),
            columns: cols?,
            tree: BTree::create(self.pool.clone())?,
        });
        Ok(())
    }

    /// Insert one row. Every index gets one entry — the per-record B-tree
    /// update that limits the baselines' ingest rate.
    pub fn insert(&self, row: &Row) -> Result<RecordId> {
        let payload = tuple::encode(&self.schema, row, self.profile.row_overhead)?;
        let c = &self.meter.costs;
        let f = self.profile.cpu_factor;
        self.meter.cpu(c.tuple_cell * row.arity() as f64 * f);
        let rid = self.heap.insert(&payload)?;
        for idx in self.indexes.read().iter() {
            let key = encode_index_key(&self.schema, row, &idx.columns)?;
            self.meter
                .cpu((c.btree_node_visit * idx.tree.height() as f64 + c.btree_leaf_insert) * f);
            idx.tree.insert(&key, rid.to_u64())?;
        }
        Ok(rid)
    }

    pub fn row_count(&self) -> u64 {
        self.heap.record_count()
    }

    pub fn meter(&self) -> &Arc<ResourceMeter> {
        &self.meter
    }

    /// On-disk footprint: heap + all indexes (the Table 7 metric).
    pub fn size_bytes(&self) -> u64 {
        let idx: u64 = self.indexes.read().iter().map(|i| i.tree.size_bytes()).sum();
        self.heap.size_bytes() + idx
    }

    /// Depth of the named index (fatigue indicator).
    pub fn index_height(&self, name: &str) -> Option<u32> {
        self.indexes.read().iter().find(|i| i.name == name).map(|i| i.tree.height())
    }

    /// Fetch one row.
    pub fn get(&self, rid: RecordId) -> Result<Row> {
        let payload = self.heap.get(rid)?;
        self.charge_decode();
        tuple::decode(&self.schema, &payload, self.profile.row_overhead)
    }

    /// Full scan in insertion order.
    pub fn scan(&self) -> impl Iterator<Item = Result<(RecordId, Row)>> + '_ {
        self.heap.scan().map(move |r| {
            let (rid, payload) = r?;
            self.charge_decode();
            Ok((rid, tuple::decode(&self.schema, &payload, self.profile.row_overhead)?))
        })
    }

    /// Index range lookup: rows whose key on `index` lies in
    /// `[from, to]` (datum tuples; a shorter `from`/`to` is a prefix bound).
    pub fn index_range(&self, index: &str, from: &[Datum], to: &[Datum]) -> Result<Vec<Row>> {
        self.index_rids(index, from, to)?.into_iter().map(|rid| self.get(rid)).collect()
    }

    /// Record ids of [`RowTable::index_range`]'s rows, in key order; equal
    /// keys are not in insertion order.
    pub fn index_rids(&self, index: &str, from: &[Datum], to: &[Datum]) -> Result<Vec<RecordId>> {
        let g = self.indexes.read();
        let idx = g
            .iter()
            .find(|i| i.name == index)
            .ok_or_else(|| OdhError::NotFound(format!("no index '{index}'")))?;
        let lo = encode_key_datums(from)?;
        let mut hi = encode_key_datums(to)?;
        // Inclusive upper bound over a prefix: extend to the prefix's
        // successor so all longer keys under it match.
        if to.len() < idx.columns.len() {
            match odh_btree::keycodec::prefix_successor(&hi) {
                Some(s) => hi = s,
                None => hi = vec![0xFF; 64],
            }
        } else {
            hi.push(0); // just past the exact key (duplicates included)
        }
        self.meter.cpu(
            self.meter.costs.btree_node_visit * idx.tree.height() as f64 * self.profile.cpu_factor,
        );
        idx.tree
            .range(Some(&lo), Some(&hi), false)?
            .map(|entry| Ok(RecordId::from_u64(entry?.1)))
            .collect()
    }

    /// Equality lookup on the named index.
    pub fn index_eq(&self, index: &str, key: &[Datum]) -> Result<Vec<Row>> {
        self.index_range(index, key, key)
    }

    fn charge_decode(&self) {
        self.meter.cpu(
            self.meter.costs.tuple_cell * self.schema.arity() as f64 * self.profile.cpu_factor,
        );
    }
}

/// Order-preserving key for `row` over `columns`.
fn encode_index_key(schema: &RelSchema, row: &Row, columns: &[usize]) -> Result<Vec<u8>> {
    let mut kb = KeyBuf::new();
    for &c in columns {
        kb = push_datum(kb, schema.columns[c].dtype, row.get(c))?;
    }
    Ok(kb.build())
}

/// Key for explicit datum bounds (types inferred from the datums).
fn encode_key_datums(datums: &[Datum]) -> Result<Vec<u8>> {
    let mut kb = KeyBuf::new();
    for d in datums {
        kb = match d {
            Datum::I64(v) => kb.push_i64(*v),
            Datum::F64(v) => kb.push_f64(*v),
            Datum::Ts(t) => kb.push_i64(t.micros()),
            Datum::Str(s) => kb.push_str(s),
            Datum::Null => kb.push_i64(i64::MIN), // NULLs sort first
        };
    }
    Ok(kb.build())
}

fn push_datum(kb: KeyBuf, dtype: DataType, d: &Datum) -> Result<KeyBuf> {
    Ok(match (dtype, d) {
        (_, Datum::Null) => kb.push_i64(i64::MIN),
        (DataType::I64, _) => {
            kb.push_i64(d.as_i64().ok_or_else(|| OdhError::Schema("expected int".into()))?)
        }
        (DataType::F64, _) => {
            kb.push_f64(d.as_f64().ok_or_else(|| OdhError::Schema("expected float".into()))?)
        }
        (DataType::Ts, _) => kb.push_i64(
            d.as_ts().ok_or_else(|| OdhError::Schema("expected timestamp".into()))?.micros(),
        ),
        (DataType::Str, _) => {
            kb.push_str(d.as_str().ok_or_else(|| OdhError::Schema("expected string".into()))?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_pager::disk::MemDisk;
    use odh_types::Timestamp;

    fn trade_table() -> RowTable {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 256);
        let schema = RelSchema::new(
            "trade",
            [("t_dts", DataType::Ts), ("t_ca_id", DataType::I64), ("t_trade_price", DataType::F64)],
        );
        let t = RowTable::create(pool, ResourceMeter::unmetered(), schema, RdbProfile::RDB);
        t.create_index("idx_dts", &["t_dts"]).unwrap();
        t.create_index("idx_ca", &["t_ca_id"]).unwrap();
        t
    }

    fn trade(ts: i64, ca: i64, price: f64) -> Row {
        Row::new(vec![Datum::Ts(Timestamp(ts)), Datum::I64(ca), Datum::F64(price)])
    }

    #[test]
    fn insert_scan_get() {
        let t = trade_table();
        let rid = t.insert(&trade(100, 1, 9.5)).unwrap();
        t.insert(&trade(200, 2, 8.5)).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get(rid).unwrap(), trade(100, 1, 9.5));
        let rows: Vec<Row> = t.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn index_equality_lookup() {
        let t = trade_table();
        for i in 0..500i64 {
            t.insert(&trade(i * 1000, i % 10, i as f64)).unwrap();
        }
        let rows = t.index_eq("idx_ca", &[Datum::I64(3)]).unwrap();
        assert_eq!(rows.len(), 50);
        assert!(rows.iter().all(|r| r.get(1) == &Datum::I64(3)));
    }

    #[test]
    fn index_time_range() {
        let t = trade_table();
        for i in 0..100i64 {
            t.insert(&trade(i * 1000, 1, 0.0)).unwrap();
        }
        let rows = t
            .index_range(
                "idx_dts",
                &[Datum::Ts(Timestamp(10_000))],
                &[Datum::Ts(Timestamp(20_000))],
            )
            .unwrap();
        assert_eq!(rows.len(), 11); // inclusive both ends
    }

    #[test]
    fn every_insert_touches_every_index() {
        // The fatigue mechanism: index entry count == row count per index.
        let t = trade_table();
        for i in 0..2000i64 {
            t.insert(&trade(i, i, 0.0)).unwrap();
        }
        // Both indexes must have deepened beyond a single leaf.
        assert!(t.index_height("idx_dts").unwrap() >= 2);
        assert!(t.index_height("idx_ca").unwrap() >= 2);
    }

    #[test]
    fn missing_index_is_not_found() {
        let t = trade_table();
        assert_eq!(t.index_eq("nope", &[Datum::I64(1)]).unwrap_err().kind(), "not_found");
    }

    #[test]
    fn mysql_profile_is_larger_on_disk() {
        let mk = |profile| {
            let pool = BufferPool::new(Arc::new(MemDisk::new()), 4096);
            let schema = RelSchema::new("t", [("a", DataType::I64), ("b", DataType::F64)]);
            let t = RowTable::create(pool, ResourceMeter::unmetered(), schema, profile);
            for i in 0..20_000i64 {
                t.insert(&Row::new(vec![Datum::I64(i), Datum::F64(0.5)])).unwrap();
            }
            t.size_bytes()
        };
        let rdb = mk(RdbProfile::RDB);
        let mysql = mk(RdbProfile::MYSQL);
        assert!(mysql >= rdb, "mysql={mysql} rdb={rdb}");
    }

    #[test]
    fn string_index_range() {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 128);
        let schema = RelSchema::new("acct", [("ca_id", DataType::I64), ("ca_name", DataType::Str)]);
        let t = RowTable::create(pool, ResourceMeter::unmetered(), schema, RdbProfile::RDB);
        t.create_index("idx_name", &["ca_name"]).unwrap();
        for (i, name) in ["alpha", "beta", "beta", "gamma"].iter().enumerate() {
            t.insert(&Row::new(vec![Datum::I64(i as i64), Datum::str(*name)])).unwrap();
        }
        let rows = t.index_eq("idx_name", &[Datum::str("beta")]).unwrap();
        assert_eq!(rows.len(), 2);
    }
}
