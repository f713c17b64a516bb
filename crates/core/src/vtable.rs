//! The virtual table: a schema type exposed to SQL as `(id, timestamp,
//! tags…)` — the reproduction of Informix VTI tables like the paper's
//! `environ_data_v`.
//!
//! Pushdown: an `id` equality resolves through the data router to a single
//! server and becomes a **historical scan** (partition elimination); a
//! `timestamp` range without an id becomes a **slice scan** fanned out to
//! the servers holding this type — executed *concurrently*, one scoped
//! thread per server, with the per-server results (each already sorted)
//! merged back in `(timestamp, id)` order so the fan-out is
//! order-indistinguishable from a serial scan. Only the *needed* tag
//! columns are decoded from the ValueBlobs (tag-oriented projection), and
//! every assembled cell pays the VTI row-assembly charge the paper
//! measures at >80% of query time.

use crate::cluster::Cluster;
use crate::router::DataRouter;
use odh_sql::ast::AggFunc;
use odh_sql::column::{ColVec, ColumnBatch};
use odh_sql::provider::{AggRequest, ColumnFilter, ColumnarScan, ScanRequest, TableProvider};
use odh_storage::{ColumnarChunk, OdhTable, RangeAggregate, ScanPoint};
use odh_types::{Datum, RelSchema, Result, Row, SourceId, Timestamp};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashSet};
use std::sync::Arc;

/// K-way merge of per-server scan results, each already sorted by
/// `(ts, source)`, into one globally `(ts, source)`-ordered stream. This
/// is the step that makes the concurrent fan-out return rows in exactly
/// the order a serial server-by-server merge would.
fn merge_sorted(mut runs: Vec<Vec<ScanPoint>>) -> Vec<ScanPoint> {
    runs.retain(|r| !r.is_empty());
    match runs.len() {
        0 => return Vec::new(),
        1 => return runs.pop().unwrap(),
        _ => {}
    }
    let total = runs.len();
    let mut iters: Vec<std::vec::IntoIter<ScanPoint>> =
        runs.into_iter().map(|r| r.into_iter()).collect();
    let mut heap: BinaryHeap<Reverse<(i64, SourceId, usize)>> = BinaryHeap::with_capacity(total);
    let mut heads: Vec<Option<ScanPoint>> = Vec::with_capacity(total);
    for (i, it) in iters.iter_mut().enumerate() {
        let p = it.next().expect("empty runs were filtered");
        heap.push(Reverse((p.ts.micros(), p.source, i)));
        heads.push(Some(p));
    }
    let mut out = Vec::new();
    while let Some(Reverse((_, _, i))) = heap.pop() {
        out.push(heads[i].take().expect("head present while queued"));
        if let Some(p) = iters[i].next() {
            heap.push(Reverse((p.ts.micros(), p.source, i)));
            heads[i] = Some(p);
        }
    }
    out
}

/// Byte-equivalent charged per router resolution in the cost model (a
/// metadata SQL query is roughly a page's worth of work).
const ROUTER_COST_BYTES: f64 = 64.0 * 1024.0;

/// Finalize one pushed-down aggregate with the executor's SQL semantics:
/// `COUNT` is never NULL, the rest are NULL over zero non-NULL inputs.
/// `slot` indexes the folded tag summaries; `None` is `COUNT(*)`.
fn finalize_agg(func: AggFunc, slot: Option<usize>, agg: &RangeAggregate) -> Datum {
    let Some(pos) = slot else {
        return Datum::I64(agg.rows as i64); // COUNT(*)
    };
    let s = &agg.tags[pos];
    match func {
        AggFunc::Count => Datum::I64(s.count as i64),
        AggFunc::Sum if s.count > 0 => Datum::F64(s.sum),
        AggFunc::Avg if s.count > 0 => Datum::F64(s.sum / s.count as f64),
        AggFunc::Min if s.count > 0 => Datum::F64(s.min),
        AggFunc::Max if s.count > 0 => Datum::F64(s.max),
        _ => Datum::Null,
    }
}

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

    fn time_bounds(filters: &[(usize, ColumnFilter)]) -> (Timestamp, Timestamp) {
        let mut t1 = Timestamp::MIN;
        let mut t2 = Timestamp::MAX;
        for (c, f) in filters {
            if *c != 1 {
                continue;
            }
            match f {
                ColumnFilter::Eq(d) => {
                    if let Some(t) = d.as_ts() {
                        t1 = t;
                        t2 = t;
                    }
                }
                ColumnFilter::Range { lo, hi } => {
                    if let Some((d, _)) = lo {
                        if let Some(t) = d.as_ts() {
                            t1 = t1.max(t);
                        }
                    }
                    if let Some((d, _)) = hi {
                        if let Some(t) = d.as_ts() {
                            t2 = t2.min(t);
                        }
                    }
                }
            }
        }
        (t1, t2)
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

    /// Exact `(source, t1, t2)` bounds for an aggregate pushdown, when
    /// every filter is one this provider can honor *exactly*: `id =` plus
    /// `timestamp` equality/ranges. There are no rows left for the
    /// executor to re-check, so bound inclusivity must be respected here —
    /// timestamps are integer microseconds, so an open bound is the
    /// closed bound one tick in. Anything else (tag filters, id ranges,
    /// mistyped literals) declines the pushdown.
    fn agg_bounds(
        filters: &[(usize, ColumnFilter)],
    ) -> Option<(Option<SourceId>, Timestamp, Timestamp)> {
        let mut source = None;
        let mut t1 = Timestamp::MIN;
        let mut t2 = Timestamp::MAX;
        for (c, f) in filters {
            match (*c, f) {
                (0, ColumnFilter::Eq(d)) => source = Some(SourceId(d.as_i64()? as u64)),
                (1, ColumnFilter::Eq(d)) => {
                    let t = d.as_ts()?;
                    t1 = t1.max(t);
                    t2 = t2.min(t);
                }
                (1, ColumnFilter::Range { lo, hi }) => {
                    if let Some((d, inc)) = lo {
                        let t = d.as_ts()?.micros();
                        t1 = t1.max(Timestamp(if *inc { t } else { t.saturating_add(1) }));
                    }
                    if let Some((d, inc)) = hi {
                        let t = d.as_ts()?.micros();
                        t2 = t2.min(Timestamp(if *inc { t } else { t.saturating_sub(1) }));
                    }
                }
                _ => return None,
            }
        }
        Some((source, t1, t2))
    }

    /// Map each aggregate to a slot in the folded tag summaries: `None`
    /// for COUNT(*), else the position of its tag in the returned tag
    /// list. Only COUNT(*) and tag-column aggregates are summary-
    /// answerable; anything else (aggregates over id/timestamp) declines
    /// to the row path.
    fn agg_slots(&self, aggs: &[AggRequest]) -> Option<(Vec<usize>, Vec<Option<usize>>)> {
        let mut tags: Vec<usize> = Vec::new();
        let mut slots = Vec::with_capacity(aggs.len());
        for a in aggs {
            match a.input {
                None if a.func == AggFunc::Count => slots.push(None),
                Some(c) if c >= 2 && c - 2 < self.tag_count => {
                    let tag = c - 2;
                    let pos = tags.iter().position(|&t| t == tag).unwrap_or_else(|| {
                        tags.push(tag);
                        tags.len() - 1
                    });
                    slots.push(Some(pos));
                }
                _ => return None,
            }
        }
        Some((tags, slots))
    }

    /// Fold `tags` on the server(s) holding this type and merge the
    /// per-server partials bucket by bucket: [`OdhTable::bucket_aggregate`]
    /// with an interval, [`OdhTable::aggregate_range`] (one bucket, key 0)
    /// without.
    fn fold_cluster(
        &self,
        source: Option<SourceId>,
        t1: Timestamp,
        t2: Timestamp,
        interval: Option<i64>,
        tags: &[usize],
    ) -> Result<BTreeMap<i64, RangeAggregate>> {
        let mut total = BTreeMap::new();
        if t1 > t2 {
            return Ok(total);
        }
        let servers = match source {
            // Partition elimination, as in `scan`: one source, one server.
            Some(sid) => match self.router.route_source(sid) {
                Ok(idx) => vec![idx],
                // An id that was never registered matches nothing.
                Err(e) if e.kind() == "not_found" => return Ok(total),
                Err(e) => return Err(e),
            },
            None => self.router.route_type(&self.schema_type)?,
        };
        for idx in servers {
            let table = self.cluster.servers()[idx].table(&self.schema_type)?;
            let parts = match interval {
                Some(i) => table.bucket_aggregate(source, t1, t2, i, tags)?,
                None => BTreeMap::from([(0, table.aggregate_range(source, t1, t2, tags)?)]),
            };
            for (start, part) in parts {
                let slot = total.entry(start).or_insert_with(|| RangeAggregate::empty(tags.len()));
                slot.rows += part.rows;
                for (a, b) in slot.tags.iter_mut().zip(&part.tags) {
                    a.merge(b);
                }
            }
        }
        Ok(total)
    }

    /// Convert one storage chunk into a SQL column batch: id and
    /// timestamp materialize as integer vectors, tag columns stay
    /// zero-copy windows into the decode cache.
    fn chunk_to_batch(&self, chunk: ColumnarChunk, tags: &[usize]) -> ColumnBatch {
        let len = chunk.ts.len();
        let arity = self.rel_schema.arity();
        let mut cols = vec![ColVec::Absent; arity];
        cols[0] = match (chunk.source, chunk.ids) {
            (Some(sid), _) => ColVec::ConstI64(sid.0 as i64),
            (None, Some(ids)) => {
                ColVec::I64 { data: ids.into_iter().map(|s| s.0 as i64).collect(), validity: None }
            }
            (None, None) => ColVec::Absent,
        };
        let ts_range = match (chunk.ts.iter().min(), chunk.ts.iter().max()) {
            (Some(&lo), Some(&hi)) => Some((lo, hi)),
            _ => None,
        };
        cols[1] = ColVec::I64 { data: chunk.ts, validity: None };
        for (i, &tag) in tags.iter().enumerate() {
            cols[2 + tag] = ColVec::Shared { data: chunk.cols[i].clone(), start: chunk.start };
        }
        ColumnBatch {
            len,
            dtypes: self.rel_schema.columns.iter().map(|c| c.dtype).collect(),
            cols,
            ts_range,
        }
    }

    fn id_eq(filters: &[(usize, ColumnFilter)]) -> Option<SourceId> {
        filters.iter().find_map(|(c, f)| match (c, f) {
            (0, ColumnFilter::Eq(d)) => d.as_i64().map(|v| SourceId(v as u64)),
            _ => None,
        })
    }

    /// Assemble relational rows from scan points (the VTI overhead).
    fn assemble(&self, points: Vec<ScanPoint>, tags: &[usize]) -> Vec<Row> {
        let meter = self.cluster.meter();
        let arity = self.rel_schema.arity();
        meter.cpu(meter.costs.vti_cell_assemble * (points.len() * arity) as f64);
        points
            .into_iter()
            .map(|p| {
                let mut cells = vec![Datum::Null; arity];
                cells[0] = Datum::I64(p.source.0 as i64);
                cells[1] = Datum::Ts(p.ts);
                for (i, &tag) in tags.iter().enumerate() {
                    cells[2 + tag] = Datum::from(p.values[i]);
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
        let (t1, t2) = Self::time_bounds(filters);
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
        let (t1, t2) = Self::time_bounds(&req.filters);
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
            let points = table.historical_scan_filtered(source, t1, t2, &tags, &ranges)?;
            return Ok(self.assemble(points, &tags));
        }
        // Fan out a slice scan to the servers holding this type. With more
        // than one server involved, the per-server scans run concurrently
        // on scoped threads; results are merged in (ts, id) order either
        // way, so parallel and serial execution are order-identical.
        let servers = self.router.route_type(&self.schema_type)?;
        let ranges = self.tag_ranges(&req.filters);
        let tables: Vec<Arc<OdhTable>> = servers
            .iter()
            .map(|&idx| self.cluster.servers()[idx].table(&self.schema_type))
            .collect::<Result<_>>()?;
        let per_server: Vec<Vec<ScanPoint>> = if tables.len() > 1 {
            for t in &tables {
                t.concurrency().note_fanout_scan();
                t.concurrency().note_parallel_tasks(1);
            }
            self.cluster.meter().note_parallel(tables.len());
            std::thread::scope(|scope| {
                let handles: Vec<_> = tables
                    .iter()
                    .map(|t| scope.spawn(|| t.slice_scan_filtered(t1, t2, &tags, None, &ranges)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("scan worker panicked"))
                    .collect::<Result<Vec<_>>>()
            })?
        } else {
            tables
                .iter()
                .map(|t| t.slice_scan_filtered(t1, t2, &tags, None, &ranges))
                .collect::<Result<_>>()?
        };
        Ok(self.assemble(merge_sorted(per_server), &tags))
    }

    fn scan_columnar(&self, req: &ScanRequest) -> Option<Result<ColumnarScan>> {
        let tags = self.needed_tags(&req.needed);
        let (t1, t2) = Self::time_bounds(&req.filters);
        let ranges = self.tag_ranges(&req.filters);
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
                let chunks = table.scan_columnar(t1, t2, &tags, Some(&only), &ranges)?;
                let batches: Vec<ColumnBatch> =
                    chunks.into_iter().map(|c| self.chunk_to_batch(c, &tags)).collect();
                meter.cpu(meter.costs.vti_cell_assemble * batches.len() as f64);
                return Ok(ColumnarScan { batches });
            }
            // Concurrent fan-out, as in `scan`. No global merge: batch
            // order does not matter to vectorized aggregation, and LAST
            // orders batches itself by their time range.
            let servers = self.router.route_type(&self.schema_type)?;
            let tables: Vec<Arc<OdhTable>> = servers
                .iter()
                .map(|&idx| self.cluster.servers()[idx].table(&self.schema_type))
                .collect::<Result<_>>()?;
            let per_server: Vec<Vec<ColumnarChunk>> = if tables.len() > 1 {
                for t in &tables {
                    t.concurrency().note_fanout_scan();
                    t.concurrency().note_parallel_tasks(1);
                }
                meter.note_parallel(tables.len());
                std::thread::scope(|scope| {
                    let handles: Vec<_> = tables
                        .iter()
                        .map(|t| scope.spawn(|| t.scan_columnar(t1, t2, &tags, None, &ranges)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("scan worker panicked"))
                        .collect::<Result<Vec<_>>>()
                })?
            } else {
                tables
                    .iter()
                    .map(|t| t.scan_columnar(t1, t2, &tags, None, &ranges))
                    .collect::<Result<_>>()?
            };
            let batches: Vec<ColumnBatch> =
                per_server.into_iter().flatten().map(|c| self.chunk_to_batch(c, &tags)).collect();
            // Columnar batches skip the per-cell VTI row assembly the
            // paper measures at >80% of query time — that is the point.
            // One batch-level touch stands in for the handoff.
            meter.cpu(meter.costs.vti_cell_assemble * batches.len() as f64);
            Ok(ColumnarScan { batches })
        })())
    }

    fn bucket_scan(
        &self,
        filters: &[(usize, ColumnFilter)],
        bucket_col: usize,
        interval_us: i64,
        aggs: &[AggRequest],
    ) -> Option<Result<Vec<(i64, Vec<Datum>)>>> {
        // Only timestamp bucketing maps onto storage time buckets.
        if bucket_col != 1 || interval_us <= 0 {
            return None;
        }
        let (source, t1, t2) = Self::agg_bounds(filters)?;
        let (tags, slots) = self.agg_slots(aggs)?;
        Some((|| {
            let buckets = self.fold_cluster(source, t1, t2, Some(interval_us), &tags)?;
            let meter = self.cluster.meter();
            meter.cpu(meter.costs.vti_cell_assemble * (buckets.len() * aggs.len()) as f64);
            Ok(buckets
                .into_iter()
                .map(|(start, agg)| {
                    (
                        start,
                        aggs.iter()
                            .zip(&slots)
                            .map(|(a, s)| finalize_agg(a.func, *s, &agg))
                            .collect(),
                    )
                })
                .collect())
        })())
    }

    fn aggregate_scan(
        &self,
        filters: &[(usize, ColumnFilter)],
        aggs: &[AggRequest],
    ) -> Option<Result<Vec<Datum>>> {
        let (source, t1, t2) = Self::agg_bounds(filters)?;
        let (tags, slots) = self.agg_slots(aggs)?;
        Some((|| {
            let mut buckets = self.fold_cluster(source, t1, t2, None, &tags)?;
            let agg = buckets.remove(&0).unwrap_or_else(|| RangeAggregate::empty(tags.len()));
            // One result row's worth of VTI assembly.
            let meter = self.cluster.meter();
            meter.cpu(meter.costs.vti_cell_assemble * aggs.len() as f64);
            Ok(aggs.iter().zip(&slots).map(|(a, s)| finalize_agg(a.func, *s, &agg)).collect())
        })())
    }

    fn estimate_aggregate_cost(&self, filters: &[(usize, ColumnFilter)]) -> Option<f64> {
        Self::agg_bounds(filters)?;
        // Fully-covered batches answer from their seal-time summaries
        // (tens of bytes each); only boundary batches decode blobs. Model:
        // summary bytes per covered batch plus two batch decodes.
        let rows = self.estimate_rows(filters);
        let summary_bytes = (rows / 64.0).max(1.0) * 40.0;
        let boundary = 2.0 * 64.0 * self.bytes_per_row_per_tag() * self.tag_count as f64;
        Some(ROUTER_COST_BYTES + summary_bytes + boundary)
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
            let points = match table.historical_scan(source, Timestamp::MIN, Timestamp::MAX, &tags)
            {
                Ok(p) => p,
                // Unregistered join key: no matches.
                Err(e) if e.kind() == "not_found" => Vec::new(),
                Err(e) => return Err(e),
            };
            Ok(self.assemble(points, &tags))
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
        let req = ScanRequest { filters: vec![], needed: vec![0, 1, 2, 3] };
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
    fn merge_sorted_interleaves_runs() {
        let mk = |pairs: &[(i64, u64)]| {
            pairs
                .iter()
                .map(|&(ts, id)| ScanPoint {
                    source: SourceId(id),
                    ts: Timestamp(ts),
                    values: vec![],
                })
                .collect::<Vec<_>>()
        };
        let merged = merge_sorted(vec![
            mk(&[(1, 5), (3, 0), (3, 2)]),
            mk(&[(0, 9), (3, 1)]),
            mk(&[]),
            mk(&[(2, 4)]),
        ]);
        let keys: Vec<(i64, u64)> = merged.iter().map(|p| (p.ts.0, p.source.0)).collect();
        assert_eq!(keys, [(0, 9), (1, 5), (2, 4), (3, 0), (3, 1), (3, 2)]);
    }

    #[test]
    fn estimates_shrink_with_filters() {
        let (_, v) = setup();
        let all = v.estimate_rows(&[]);
        let one = v.estimate_rows(&[(0, ColumnFilter::Eq(Datum::I64(3)))]);
        assert!(one < all);
        let req_all = ScanRequest { filters: vec![], needed: vec![0, 1, 2, 3] };
        let req_one_tag = ScanRequest { filters: vec![], needed: vec![0, 1, 2] };
        assert!(v.estimate_cost(&req_one_tag) < v.estimate_cost(&req_all));
    }

    #[test]
    fn aggregate_scan_matches_row_fold() {
        let (_, v) = setup();
        let aggs = [
            AggRequest { func: AggFunc::Count, input: None },
            AggRequest { func: AggFunc::Count, input: Some(2) },
            AggRequest { func: AggFunc::Sum, input: Some(2) },
            AggRequest { func: AggFunc::Avg, input: Some(2) },
            AggRequest { func: AggFunc::Min, input: Some(3) },
            AggRequest { func: AggFunc::Max, input: Some(3) },
        ];
        // Exclusive upper bound: the pushdown must honor it exactly (the
        // scan path over-returns and lets the executor re-check; here
        // nobody re-checks).
        let filters = vec![(
            1,
            ColumnFilter::Range {
                lo: Some((Datum::Ts(Timestamp(1_000_000)), true)),
                hi: Some((Datum::Ts(Timestamp(2_000_000)), false)),
            },
        )];
        let cells = v.aggregate_scan(&filters, &aggs).unwrap().unwrap();
        let rows = v
            .scan(&ScanRequest { filters: filters.clone(), needed: vec![0, 1, 2, 3] })
            .unwrap()
            .into_iter()
            .filter(|r| filters.iter().all(|(c, f)| f.matches(r.get(*c))))
            .collect::<Vec<_>>();
        let temps: Vec<f64> = rows.iter().filter_map(|r| r.get(2).as_f64()).collect();
        let winds: Vec<f64> = rows.iter().filter_map(|r| r.get(3).as_f64()).collect();
        assert_eq!(cells[0], Datum::I64(rows.len() as i64));
        assert_eq!(cells[1], Datum::I64(temps.len() as i64));
        assert_eq!(cells[2].as_f64().unwrap(), temps.iter().sum::<f64>());
        assert_eq!(cells[3].as_f64().unwrap(), temps.iter().sum::<f64>() / temps.len() as f64);
        assert_eq!(cells[4].as_f64().unwrap(), winds.iter().cloned().fold(f64::INFINITY, f64::min));
        assert_eq!(
            cells[5].as_f64().unwrap(),
            winds.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );
    }

    #[test]
    fn aggregate_scan_declines_what_it_cannot_answer_exactly() {
        let (_, v) = setup();
        let count = [AggRequest { func: AggFunc::Count, input: None }];
        // Tag filters and id ranges are not expressible over summaries.
        assert!(v.aggregate_scan(&[(2, ColumnFilter::Eq(Datum::F64(20.0)))], &count).is_none());
        assert!(v
            .aggregate_scan(
                &[(0, ColumnFilter::Range { lo: Some((Datum::I64(1), true)), hi: None })],
                &count,
            )
            .is_none());
        // Aggregates over id/timestamp fall back to the row path.
        assert!(v
            .aggregate_scan(&[], &[AggRequest { func: AggFunc::Min, input: Some(1) }])
            .is_none());
        // An unregistered id is the zero-row aggregate, not an error.
        let cells = v
            .aggregate_scan(
                &[(0, ColumnFilter::Eq(Datum::I64(999)))],
                &[
                    AggRequest { func: AggFunc::Count, input: None },
                    AggRequest { func: AggFunc::Sum, input: Some(2) },
                ],
            )
            .unwrap()
            .unwrap();
        assert_eq!(cells, vec![Datum::I64(0), Datum::Null]);
        // And the cost hook prices what it would accept, nothing else.
        assert!(v.estimate_aggregate_cost(&[]).is_some());
        assert!(v.estimate_aggregate_cost(&[(2, ColumnFilter::Eq(Datum::F64(20.0)))]).is_none());
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
    fn bucket_scan_matches_per_bucket_aggregates() {
        let (_, v) = setup();
        let aggs = [
            AggRequest { func: AggFunc::Count, input: None },
            AggRequest { func: AggFunc::Sum, input: Some(2) },
        ];
        let interval = 1_000_000i64; // 1s buckets over 0..4s of data
        let buckets = v.bucket_scan(&[], 1, interval, &aggs).unwrap().unwrap();
        assert_eq!(buckets.len(), 4);
        assert!(buckets.windows(2).all(|w| w[0].0 < w[1].0), "ascending bucket starts");
        for (start, cells) in &buckets {
            let filters = vec![(
                1,
                ColumnFilter::Range {
                    lo: Some((Datum::Ts(Timestamp(*start)), true)),
                    hi: Some((Datum::Ts(Timestamp(start + interval)), false)),
                },
            )];
            let want = v.aggregate_scan(&filters, &aggs).unwrap().unwrap();
            assert_eq!(cells, &want, "bucket {start}");
        }
        // Declines: non-timestamp bucket column, inexpressible filters.
        assert!(v.bucket_scan(&[], 0, interval, &aggs).is_none());
        assert!(v
            .bucket_scan(&[(2, ColumnFilter::Eq(Datum::F64(20.0)))], 1, interval, &aggs)
            .is_none());
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
