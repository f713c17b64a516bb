//! The virtual table: a schema type exposed to SQL as `(id, timestamp,
//! tags…)` — the reproduction of Informix VTI tables like the paper's
//! `environ_data_v`.
//!
//! Pushdown: an `id` equality resolves through the data router to a single
//! server and becomes a **historical scan** (partition elimination); a
//! `timestamp` range without an id becomes a **slice scan** fanned out to
//! the servers holding this type — executed *concurrently*, one scoped
//! thread per server, with the per-server column chunks assembled into
//! rows sorted in `(timestamp, id)` order so the fan-out is
//! order-indistinguishable from a serial scan. Only the *needed* tag
//! columns are decoded from the ValueBlobs (tag-oriented projection), and
//! every assembled cell pays the VTI row-assembly charge the paper
//! measures at >80% of query time.

use crate::cluster::Cluster;
use crate::router::DataRouter;
use odh_sql::column::{ColVec, ColumnBatch, NumAgg};
use odh_sql::provider::{ColumnFilter, ColumnarScan, ScanRequest, SummaryGrain, TableProvider};
use odh_storage::{ColumnarChunk, OdhTable, TimeGrain};
use odh_types::{DataType, Datum, RelSchema, Result, Row, SourceId, Timestamp};
use std::collections::HashSet;
use std::sync::Arc;

/// Byte-equivalent charged per router resolution in the cost model (a
/// metadata SQL query is roughly a page's worth of work).
const ROUTER_COST_BYTES: f64 = 64.0 * 1024.0;

/// VTI provider over one schema type of a cluster.
pub struct VirtualTable {
    cluster: Arc<Cluster>,
    router: Arc<DataRouter>,
    schema_type: String,
    rel_schema: RelSchema,
    tag_count: usize,
    mg_group_size: u64,
}

impl VirtualTable {
    /// Expose `schema_type` as virtual table `table_name`.
    pub fn new(
        cluster: Arc<Cluster>,
        router: Arc<DataRouter>,
        schema_type: &str,
        table_name: &str,
    ) -> Result<Arc<VirtualTable>> {
        let cfg = cluster
            .type_config(schema_type)
            .ok_or_else(|| odh_types::OdhError::NotFound(format!("schema type '{schema_type}'")))?;
        Ok(Arc::new(VirtualTable {
            rel_schema: cfg.schema.virtual_schema(table_name),
            tag_count: cfg.schema.tag_count(),
            mg_group_size: cfg.mg_group_size.max(1),
            schema_type: schema_type.to_ascii_lowercase(),
            cluster,
            router,
        }))
    }

    /// Columns `2..` are tags; map needed columns to tag indexes.
    fn needed_tags(&self, needed: &[usize]) -> Vec<usize> {
        needed.iter().filter(|&&c| c >= 2).map(|&c| c - 2).collect()
    }

    /// The time range `[t1, t2]` the filters select, exactly: timestamps
    /// are integer microseconds, so an open bound is the closed bound one
    /// tick in. The flag says whether these bounds and an `id =` filter
    /// honor *every* filter exactly — false for tag filters, id ranges
    /// and mistyped literals, which only the executor's re-check applies.
    fn time_bounds(filters: &[(usize, ColumnFilter)]) -> (Timestamp, Timestamp, bool) {
        let (mut t1, mut t2, mut exact) = (Timestamp::MIN, Timestamp::MAX, true);
        for (c, f) in filters {
            match (*c, f) {
                (0, ColumnFilter::Eq(d)) if d.as_i64().is_some() => {}
                (1, ColumnFilter::Eq(d)) => match d.as_ts() {
                    Some(t) => (t1, t2) = (t1.max(t), t2.min(t)),
                    None => exact = false,
                },
                (1, ColumnFilter::Range { lo, hi }) => {
                    if let Some((d, inc)) = lo {
                        match d.as_ts() {
                            Some(t) => t1 = t1.max(Timestamp(t.0.saturating_add(i64::from(!inc)))),
                            None => exact = false,
                        }
                    }
                    if let Some((d, inc)) = hi {
                        match d.as_ts() {
                            Some(t) => t2 = t2.min(Timestamp(t.0.saturating_sub(i64::from(!inc)))),
                            None => exact = false,
                        }
                    }
                }
                _ => exact = false,
            }
        }
        (t1, t2, exact)
    }

    /// Conjunctive ranges on tag columns (index ≥ 2), translated for the
    /// storage engine's zone-map pruning. Only closed semantics matter:
    /// the executor re-applies the exact predicate, so inclusive bounds
    /// are always safe.
    fn tag_ranges(&self, filters: &[(usize, ColumnFilter)]) -> Vec<(usize, f64, f64)> {
        let mut out = Vec::new();
        for (c, f) in filters {
            if *c < 2 || *c - 2 >= self.tag_count {
                continue;
            }
            let tag = *c - 2;
            match f {
                ColumnFilter::Eq(d) => {
                    if let Some(v) = d.as_f64() {
                        out.push((tag, v, v));
                    }
                }
                ColumnFilter::Range { lo, hi } => {
                    let lo_v =
                        lo.as_ref().and_then(|(d, _)| d.as_f64()).unwrap_or(f64::NEG_INFINITY);
                    let hi_v = hi.as_ref().and_then(|(d, _)| d.as_f64()).unwrap_or(f64::INFINITY);
                    out.push((tag, lo_v, hi_v));
                }
            }
        }
        out
    }

    /// Convert one storage chunk into a SQL column batch: id and
    /// timestamp materialize as integer vectors, tag columns stay
    /// zero-copy windows into the decode cache. A batch summary becomes a
    /// summary batch over its requested tags. `dtypes` is the schema's,
    /// shared by every batch of the scan.
    fn chunk_to_batch(
        &self,
        chunk: ColumnarChunk,
        tags: &[usize],
        dtypes: &Arc<[DataType]>,
    ) -> ColumnBatch {
        let ts_range = chunk.ts_range();
        let mut cols = vec![ColVec::Absent; dtypes.len()];
        cols[0] = match (chunk.source, chunk.ids) {
            (Some(sid), _) => ColVec::ConstI64(sid.0 as i64),
            (None, Some(ids)) => {
                ColVec::I64 { data: ids.into_iter().map(|s| s.0 as i64).collect(), validity: None }
            }
            (None, None) => ColVec::Absent,
        };
        let dtypes = dtypes.clone();
        if let Some(sum) = chunk.summary {
            for (s, &tag) in sum.tags.iter().zip(tags) {
                let (count, sum, min, max) = (s.count as i64, s.sum, s.min, s.max);
                cols[2 + tag] = ColVec::Summary(NumAgg { count, sum, min, max });
            }
            let len = sum.rows as usize;
            return ColumnBatch { len, dtypes, cols, ts_range, summary: true };
        }
        let len = chunk.ts.len();
        cols[1] = ColVec::I64 { data: chunk.ts, validity: None };
        for (i, &tag) in tags.iter().enumerate() {
            cols[2 + tag] = ColVec::Shared { data: chunk.cols[i].clone(), start: chunk.start };
        }
        ColumnBatch { len, dtypes, cols, ts_range, summary: false }
    }

    /// The batches of one columnar read, in chunk order.
    fn to_batches(
        &self,
        chunks: impl IntoIterator<Item = ColumnarChunk>,
        tags: &[usize],
    ) -> Vec<ColumnBatch> {
        let dtypes: Arc<[DataType]> = self.rel_schema.columns.iter().map(|c| c.dtype).collect();
        chunks.into_iter().map(|c| self.chunk_to_batch(c, tags, &dtypes)).collect()
    }

    fn id_eq(filters: &[(usize, ColumnFilter)]) -> Option<SourceId> {
        filters.iter().find_map(|(c, f)| match (c, f) {
            (0, ColumnFilter::Eq(d)) => d.as_i64().map(|v| SourceId(v as u64)),
            _ => None,
        })
    }

    /// Run `read` against this type's table on every server holding it,
    /// returning the results in server order. With more than one server
    /// the reads run concurrently on scoped threads.
    fn fan_out<T: Send>(&self, read: impl Fn(&OdhTable) -> Result<T> + Sync) -> Result<Vec<T>> {
        let servers = self.router.route_type(&self.schema_type)?;
        let tables: Vec<Arc<OdhTable>> = servers
            .iter()
            .map(|&idx| self.cluster.servers()[idx].table(&self.schema_type))
            .collect::<Result<_>>()?;
        if tables.len() <= 1 {
            return tables.iter().map(|t| read(t)).collect();
        }
        for t in &tables {
            t.concurrency().note_fanout_scan();
            t.concurrency().note_parallel_tasks(1);
        }
        self.cluster.meter().note_parallel(tables.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = tables.iter().map(|t| scope.spawn(|| read(t))).collect();
            handles.into_iter().map(|h| h.join().expect("scan worker panicked")).collect()
        })
    }

    /// Assemble relational rows from scan chunks (the VTI overhead),
    /// sorted by `(timestamp, id)`; rows equal on both keep read order.
    /// A single-source scan and the per-server fan-out both list one
    /// source's rows in one read order, so they order ties alike.
    fn rows_from_chunks(&self, chunks: &[ColumnarChunk], tags: &[usize]) -> Vec<Row> {
        let n: usize = chunks.iter().map(ColumnarChunk::len).sum();
        let meter = self.cluster.meter();
        let arity = self.rel_schema.arity();
        meter.cpu(meter.costs.vti_cell_assemble * (n * arity) as f64);
        // `(ts, id, chunk, row)`: unique, and in read order among ties.
        let mut order: Vec<(i64, u64, u32, u32)> = Vec::with_capacity(n);
        for (c, ch) in chunks.iter().enumerate() {
            match (ch.source, &ch.ids) {
                (Some(sid), _) => order
                    .extend(ch.ts.iter().enumerate().map(|(r, &t)| (t, sid.0, c as u32, r as u32))),
                (None, Some(ids)) => order.extend(
                    ch.ts
                        .iter()
                        .zip(ids)
                        .enumerate()
                        .map(|(r, (&t, s))| (t, s.0, c as u32, r as u32)),
                ),
                (None, None) => {}
            }
        }
        if !order.windows(2).all(|w| w[0] <= w[1]) {
            order.sort_unstable();
        }
        order
            .into_iter()
            .map(|(ts, id, c, r)| {
                let ch = &chunks[c as usize];
                let mut cells = vec![Datum::Null; arity];
                cells[0] = Datum::I64(id as i64);
                cells[1] = Datum::Ts(Timestamp(ts));
                for (col, &tag) in ch.cols.iter().zip(tags) {
                    cells[2 + tag] = Datum::from(col[ch.start + r as usize]);
                }
                Row::new(cells)
            })
            .collect()
    }

    /// Aggregate storage counters across servers: `(points, records,
    /// blob_bytes)`.
    fn storage_counts(&self) -> (f64, f64, f64) {
        let mut points = 0u64;
        let mut records = 0u64;
        let mut blob = 0u64;
        for s in self.cluster.servers() {
            if let Ok(t) = s.table(&self.schema_type) {
                let snap = t.stats().snapshot();
                points += snap.points_ingested;
                blob += snap.blob_bytes;
                records += snap.batches_written;
            }
        }
        (points as f64, records as f64, blob as f64)
    }

    /// Average blob bytes per operational record row, per tag.
    fn bytes_per_row_per_tag(&self) -> f64 {
        let stats = self.cluster.type_stats(&self.schema_type);
        let rows = stats
            .as_ref()
            .map(|s| s.records.load(std::sync::atomic::Ordering::Relaxed))
            .unwrap_or(0);
        let (_, _, blob) = self.storage_counts();
        if rows == 0 {
            return 8.0 / self.tag_count.max(1) as f64;
        }
        (blob / rows as f64 / self.tag_count.max(1) as f64).max(0.1)
    }
}

impl TableProvider for VirtualTable {
    fn name(&self) -> &str {
        &self.rel_schema.name
    }

    fn schema(&self) -> &RelSchema {
        &self.rel_schema
    }

    fn estimate_rows(&self, filters: &[(usize, ColumnFilter)]) -> f64 {
        let Some(stats) = self.cluster.type_stats(&self.schema_type) else {
            return 1.0;
        };
        use std::sync::atomic::Ordering::Relaxed;
        let rows = stats.records.load(Relaxed).max(1) as f64;
        let sources = stats.sources.load(Relaxed).max(1) as f64;
        let mut est = rows;
        if Self::id_eq(filters).is_some() {
            est /= sources;
        }
        let (t1, t2, _) = Self::time_bounds(filters);
        if t1 > Timestamp::MIN || t2 < Timestamp::MAX {
            let span = stats.span_us().max(1) as f64;
            let lo = t1.micros().max(stats.min_ts.load(Relaxed)) as f64;
            let hi = t2.micros().min(stats.max_ts.load(Relaxed)) as f64;
            let frac = ((hi - lo) / span).clamp(0.0, 1.0);
            est *= frac;
        }
        est.max(1.0)
    }

    fn estimate_cost(&self, req: &ScanRequest) -> f64 {
        // The paper's cost model: expected ValueBlob bytes accessed,
        // narrowed by the tag-oriented projection, plus the router charge.
        let rows = self.estimate_rows(&req.filters);
        let tags = self.needed_tags(&req.needed).len().max(1) as f64;
        ROUTER_COST_BYTES + rows * self.bytes_per_row_per_tag() * tags
    }

    fn scan(&self, req: &ScanRequest) -> Result<Vec<Row>> {
        let tags = self.needed_tags(&req.needed);
        let (t1, t2, _) = Self::time_bounds(&req.filters);
        if let Some(source) = Self::id_eq(&req.filters) {
            // Partition elimination: one source, one server. An id that
            // was never registered simply matches nothing.
            let server_idx = match self.router.route_source(source) {
                Ok(idx) => idx,
                Err(e) if e.kind() == "not_found" => return Ok(Vec::new()),
                Err(e) => return Err(e),
            };
            let table = self.cluster.servers()[server_idx].table(&self.schema_type)?;
            let ranges = self.tag_ranges(&req.filters);
            let chunks = table.historical_columnar(source, t1, t2, &tags, &ranges)?;
            return Ok(self.rows_from_chunks(&chunks, &tags));
        }
        // Fan out a slice scan to the servers holding this type. Rows are
        // sorted in (ts, id) order, so parallel and serial execution are
        // order-identical.
        let ranges = self.tag_ranges(&req.filters);
        let per_server: Vec<Vec<ColumnarChunk>> =
            self.fan_out(|t| t.scan_columnar(t1, t2, &tags, None, &ranges, None))?;
        let chunks: Vec<ColumnarChunk> = per_server.into_iter().flatten().collect();
        Ok(self.rows_from_chunks(&chunks, &tags))
    }

    fn scan_columnar(&self, req: &ScanRequest) -> Option<Result<ColumnarScan>> {
        let tags = self.needed_tags(&req.needed);
        let (t1, t2, exact) = Self::time_bounds(&req.filters);
        let ranges = self.tag_ranges(&req.filters);
        // Storage summarizes batches inside `[t1, t2]`, so only bounds
        // that honor every filter exactly allow it, and only timestamp
        // buckets map onto its time grain. The same goes for a LAST read:
        // the rows it leaves out are judged by what it returns, so every
        // returned row must pass the filters.
        let grain = req.summaries.filter(|_| exact).and_then(|g| match g {
            SummaryGrain::Whole => Some(TimeGrain::Whole),
            SummaryGrain::Bucket { column: 1, width } => Some(TimeGrain::Bucket(width)),
            SummaryGrain::Bucket { .. } => None,
        });
        let latest = req.latest && exact;
        let read = |t: &OdhTable, only: Option<&HashSet<SourceId>>| {
            if latest {
                t.scan_columnar_last(t1, t2, &tags, only)
            } else {
                t.scan_columnar(t1, t2, &tags, only, &ranges, grain)
            }
        };
        Some((|| {
            let meter = self.cluster.meter();
            if let Some(source) = Self::id_eq(&req.filters) {
                // Partition elimination, as in `scan`.
                let server_idx = match self.router.route_source(source) {
                    Ok(idx) => idx,
                    Err(e) if e.kind() == "not_found" => {
                        return Ok(ColumnarScan { batches: Vec::new() })
                    }
                    Err(e) => return Err(e),
                };
                let table = self.cluster.servers()[server_idx].table(&self.schema_type)?;
                let only: HashSet<SourceId> = [source].into_iter().collect();
                let batches = self.to_batches(read(&table, Some(&only))?, &tags);
                meter.cpu(meter.costs.vti_cell_assemble * batches.len() as f64);
                return Ok(ColumnarScan { batches });
            }
            // Fan out as in `scan`, but with no global merge: batch order
            // does not matter to vectorized aggregation, and LAST orders
            // batches itself by their time range.
            let per_server: Vec<Vec<ColumnarChunk>> = self.fan_out(|t| read(t, None))?;
            let batches = self.to_batches(per_server.into_iter().flatten(), &tags);
            // Columnar batches skip the per-cell VTI row assembly the
            // paper measures at >80% of query time — that is the point.
            // One batch-level touch stands in for the handoff.
            meter.cpu(meter.costs.vti_cell_assemble * batches.len() as f64);
            Ok(ColumnarScan { batches })
        })())
    }

    fn probe_cost(&self, column: usize) -> Option<f64> {
        if column != 0 {
            return None;
        }
        let stats = self.cluster.type_stats(&self.schema_type)?;
        use std::sync::atomic::Ordering::Relaxed;
        let rows = stats.records.load(Relaxed).max(1) as f64;
        let sources = stats.sources.load(Relaxed).max(1) as f64;
        let (_, _, blob_bytes) = self.storage_counts();
        // While low-frequency history still lives in MG batches, probing
        // one source means decoding its whole *group* — the per-source
        // amplification Table 1 avoids by preferring RTS/IRTS for
        // historical access. After reorganization (or for per-source
        // structures) a probe touches only the source's own blob bytes.
        let mut mg_records = 0u64;
        let mut per_source_records = 0u64;
        for s in self.cluster.servers() {
            if let Ok(t) = s.table(&self.schema_type) {
                let (r, i, m) = t.record_counts();
                per_source_records += r + i;
                mg_records += m;
            }
        }
        let descent = 8192.0;
        if mg_records > per_source_records {
            let groups = (sources / self.mg_group_size as f64).max(1.0);
            Some(descent + blob_bytes / groups)
        } else {
            Some(descent + rows / sources * self.bytes_per_row_per_tag() * self.tag_count as f64)
        }
    }

    fn index_lookup(
        &self,
        column: usize,
        key: &Datum,
        needed: &[usize],
    ) -> Option<Result<Vec<Row>>> {
        if column != 0 {
            return None;
        }
        let source = SourceId(key.as_i64()? as u64);
        let tags = self.needed_tags(needed);
        Some((|| {
            // Within one query the router resolves this table's
            // partitioning once; individual probes map ids to servers
            // arithmetically (group-preserving hash), with no further
            // metadata SQL.
            let server = self.cluster.server_for(&self.schema_type, source);
            let table = server.table(&self.schema_type)?;
            let chunks =
                match table.historical_columnar(source, Timestamp::MIN, Timestamp::MAX, &tags, &[])
                {
                    Ok(c) => c,
                    // Unregistered join key: no matches.
                    Err(e) if e.kind() == "not_found" => Vec::new(),
                    Err(e) => return Err(e),
                };
            Ok(self.rows_from_chunks(&chunks, &tags))
        })())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_sim::ResourceMeter;
    use odh_storage::TableConfig;
    use odh_types::{Record, SchemaType, SourceClass};

    fn setup() -> (Arc<Cluster>, Arc<VirtualTable>) {
        let c = Cluster::in_memory(2, ResourceMeter::unmetered());
        c.define_schema_type(
            TableConfig::new(SchemaType::new("environ_data", ["temperature", "wind"]))
                .with_batch_size(8)
                .with_mg_group_size(4),
        )
        .unwrap();
        let router = Arc::new(DataRouter::new(c.clone()));
        for id in 0..8u64 {
            c.register_source("environ_data", SourceId(id), SourceClass::irregular_high()).unwrap();
            router.note_source("environ_data", SourceId(id));
        }
        for i in 0..40i64 {
            for id in 0..8u64 {
                let table =
                    c.server_for("environ_data", SourceId(id)).table("environ_data").unwrap();
                c.put(
                    "environ_data",
                    &table,
                    &Record::dense(
                        SourceId(id),
                        Timestamp(i * 100_000 + id as i64),
                        [20.0 + i as f64, id as f64],
                    ),
                )
                .unwrap();
            }
        }
        c.flush().unwrap();
        let v = VirtualTable::new(c.clone(), router, "environ_data", "environ_data_v").unwrap();
        (c, v)
    }

    #[test]
    fn schema_is_id_timestamp_tags() {
        let (_, v) = setup();
        let names: Vec<&str> = v.schema().columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["id", "timestamp", "temperature", "wind"]);
    }

    #[test]
    fn id_filter_takes_historical_path() {
        let (_, v) = setup();
        let req = ScanRequest {
            filters: vec![(0, ColumnFilter::Eq(Datum::I64(3)))],
            needed: vec![0, 1, 2],
            ..Default::default()
        };
        let rows = v.scan(&req).unwrap();
        assert_eq!(rows.len(), 40);
        assert!(rows.iter().all(|r| r.get(0) == &Datum::I64(3)));
        // Only temperature was needed; wind stays NULL.
        assert!(rows.iter().all(|r| r.get(3).is_null()));
        assert!(rows.iter().all(|r| !r.get(2).is_null()));
    }

    #[test]
    fn time_slice_fans_out() {
        let (_, v) = setup();
        let req = ScanRequest {
            filters: vec![(
                1,
                ColumnFilter::Range {
                    lo: Some((Datum::Ts(Timestamp(1_000_000)), true)),
                    hi: Some((Datum::Ts(Timestamp(2_000_000)), true)),
                },
            )],
            needed: vec![0, 1, 2, 3],
            ..Default::default()
        };
        let rows = v.scan(&req).unwrap();
        // Samples land at i·100ms + id µs: i in 10..=19 for every source
        // (80 rows) plus i=20 for id 0 alone, whose offset is exactly 0.
        assert_eq!(rows.len(), 81);
        let ids: std::collections::HashSet<i64> =
            rows.iter().filter_map(|r| r.get(0).as_i64()).collect();
        assert_eq!(ids.len(), 8, "both servers contributed");
    }

    #[test]
    fn fanout_is_concurrent_and_ordered() {
        let (c, v) = setup();
        let req = ScanRequest { filters: vec![], needed: vec![0, 1, 2, 3], ..Default::default() };
        let rows = v.scan(&req).unwrap();
        assert_eq!(rows.len(), 320);
        // Globally ordered by (timestamp, id) — exactly what a serial
        // server-by-server merge would produce.
        let keys: Vec<(i64, i64)> = rows
            .iter()
            .map(|r| (r.get(1).as_ts().unwrap().micros(), r.get(0).as_i64().unwrap()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        // Both servers counted the fan-out; the meter saw one 2-wide region
        // per multi-server scan.
        for s in c.servers() {
            let snap = s.table("environ_data").unwrap().concurrency().snapshot();
            assert!(snap.fanout_scans >= 1);
        }
        let report = c.meter().parallel_report();
        assert!(report.regions >= 1);
        assert_eq!(report.max_width, 2);
    }

    #[test]
    fn estimates_shrink_with_filters() {
        let (_, v) = setup();
        let all = v.estimate_rows(&[]);
        let one = v.estimate_rows(&[(0, ColumnFilter::Eq(Datum::I64(3)))]);
        assert!(one < all);
        let req_all =
            ScanRequest { filters: vec![], needed: vec![0, 1, 2, 3], ..Default::default() };
        let req_one_tag =
            ScanRequest { filters: vec![], needed: vec![0, 1, 2], ..Default::default() };
        assert!(v.estimate_cost(&req_one_tag) < v.estimate_cost(&req_all));
    }

    /// Per-bucket `(rows, fold of column `col`)` of a columnar scan:
    /// summary batches by their summary, row batches row by row after
    /// re-checking the filters. Also returns the summary-batch count.
    fn fold_batches(
        v: &VirtualTable,
        req: &ScanRequest,
        col: usize,
        width: i64,
    ) -> (std::collections::BTreeMap<i64, (usize, NumAgg)>, usize) {
        let mut out = std::collections::BTreeMap::new();
        let mut summaries = 0;
        let empty = NumAgg { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY };
        for b in v.scan_columnar(req).unwrap().unwrap().batches {
            if b.summary {
                summaries += 1;
                let ColVec::Summary(n) = b.cols[col] else { panic!("summary column") };
                let slot = out.entry(b.ts_range.unwrap().0.div_euclid(width)).or_insert((0, empty));
                slot.0 += b.len;
                slot.1.count += n.count;
                slot.1.sum += n.sum;
                slot.1.min = slot.1.min.min(n.min);
                slot.1.max = slot.1.max.max(n.max);
                continue;
            }
            for i in 0..b.len {
                let row = b.row_datums(i);
                if !req.filters.iter().all(|(c, f)| f.matches(&row[*c])) {
                    continue;
                }
                let bucket = row[1].as_ts().unwrap().micros().div_euclid(width);
                let slot = out.entry(bucket).or_insert((0, empty));
                slot.0 += 1;
                if let Some(x) = row[col].as_f64() {
                    slot.1.count += 1;
                    slot.1.sum += x;
                    slot.1.min = slot.1.min.min(x);
                    slot.1.max = slot.1.max.max(x);
                }
            }
        }
        (out, summaries)
    }

    #[test]
    fn summary_scans_fold_like_row_scans() {
        let (_, v) = setup();
        // Exclusive upper bound on a batch edge (source 0's third batch
        // ends at 2.3 s): the bounds must be exact, since a summary leaves
        // no rows to re-check.
        let filters = vec![(
            1,
            ColumnFilter::Range {
                lo: Some((Datum::Ts(Timestamp(0)), true)),
                hi: Some((Datum::Ts(Timestamp(2_300_000)), false)),
            },
        )];
        for (grain, width) in [
            (SummaryGrain::Whole, i64::MAX),
            (SummaryGrain::Bucket { column: 1, width: 1_000_000 }, 1_000_000),
        ] {
            let req = ScanRequest {
                filters: filters.clone(),
                needed: vec![1, 2, 3],
                ..Default::default()
            };
            let (want, none) = fold_batches(&v, &req, 3, width);
            assert_eq!(none, 0, "no summaries unless requested");
            let req = ScanRequest { summaries: Some(grain), ..req };
            let (got, summarized) = fold_batches(&v, &req, 3, width);
            assert!(summarized > 0, "{grain:?}: covered batches answer from summaries");
            assert_eq!(got, want, "{grain:?}");
        }
    }

    #[test]
    fn summaries_only_where_filters_are_exact() {
        let (_, v) = setup();
        let summarized = |filters: Vec<(usize, ColumnFilter)>, grain: SummaryGrain| {
            let req = ScanRequest {
                filters,
                needed: vec![0, 1, 2],
                summaries: Some(grain),
                ..Default::default()
            };
            fold_batches(&v, &req, 2, i64::MAX).1
        };
        assert!(summarized(vec![], SummaryGrain::Whole) > 0);
        assert!(summarized(vec![(0, ColumnFilter::Eq(Datum::I64(3)))], SummaryGrain::Whole) > 0);
        // Tag filters and id ranges are not expressible over summaries.
        assert_eq!(
            summarized(vec![(2, ColumnFilter::Eq(Datum::F64(20.0)))], SummaryGrain::Whole),
            0
        );
        let id_range = ColumnFilter::Range { lo: Some((Datum::I64(1), true)), hi: None };
        assert_eq!(summarized(vec![(0, id_range)], SummaryGrain::Whole), 0);
        // Only timestamp buckets map onto storage time buckets.
        assert_eq!(summarized(vec![], SummaryGrain::Bucket { column: 0, width: 4 }), 0);
        // An unregistered id is an empty scan, not an error.
        let req = ScanRequest {
            filters: vec![(0, ColumnFilter::Eq(Datum::I64(999)))],
            needed: vec![0, 1, 2],
            summaries: Some(SummaryGrain::Whole),
            ..Default::default()
        };
        assert!(v.scan_columnar(&req).unwrap().unwrap().batches.is_empty());
    }

    #[test]
    fn scan_columnar_matches_row_scan() {
        let (_, v) = setup();
        let req = ScanRequest {
            filters: vec![(
                1,
                ColumnFilter::Range {
                    lo: Some((Datum::Ts(Timestamp(1_000_000)), true)),
                    hi: Some((Datum::Ts(Timestamp(2_000_000)), true)),
                },
            )],
            needed: vec![0, 1, 2, 3],
            ..Default::default()
        };
        let rows = v.scan(&req).unwrap();
        let scan = v.scan_columnar(&req).unwrap().unwrap();
        let mut pivoted: Vec<Vec<Datum>> =
            scan.batches.iter().flat_map(|b| (0..b.len).map(|i| b.row_datums(i))).collect();
        // Columnar batches may over-return boundary rows (residuals
        // re-check) and arrive unmerged; compare the filtered sets.
        pivoted.retain(|r| req.filters.iter().all(|(c, f)| f.matches(&r[*c])));
        let mut want: Vec<Vec<Datum>> = rows.iter().map(|r| r.cells().to_vec()).collect();
        let key = |r: &Vec<Datum>| (r[1].as_ts().unwrap().micros(), r[0].as_i64().unwrap());
        pivoted.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(pivoted, want);
        // Sealed chunks advertise their time range for LAST short-circuit.
        assert!(scan.batches.iter().all(|b| b.ts_range.is_some()));
    }

    #[test]
    fn index_lookup_probes_one_source() {
        let (_, v) = setup();
        let rows = v.index_lookup(0, &Datum::I64(5), &[0, 1, 3]).unwrap().unwrap();
        assert_eq!(rows.len(), 40);
        assert!(rows.iter().all(|r| r.get(0) == &Datum::I64(5)));
        assert!(v.index_lookup(1, &Datum::I64(5), &[]).is_none());
        assert!(v.probe_cost(0).is_some());
        assert!(v.probe_cost(2).is_none());
    }
}
