//! Physical execution.
//!
//! Left-deep pipeline over the optimizer's join order: scan the first
//! table, then for each later table either index-nested-loop (when the
//! provider exposes an index on the join column) or hash-join (build on
//! the new table). Residual predicates run as soon as their bindings are
//! bound; aggregates, ORDER BY, and LIMIT finish the pipeline.
//!
//! Single-table aggregate shapes get two faster routes, tried in order:
//! native pushdown (`bucket_scan` / `aggregate_scan`, answered from
//! seal-time summaries), then the *vectorized* path — the provider hands
//! back typed [`crate::column::ColumnBatch`]es, residual predicates run
//! as selection-vector kernels, and aggregates fold columns directly with
//! no per-row [`Row`] materialization. The row pivot happens only at the
//! final result boundary. ASOF JOIN and multi-table joins stay on the
//! row pipeline.

use crate::ast::{AggFunc, CmpOp};
use crate::column::{
    count_valid, datum_bytes, filter_cmp, numeric_agg, CmpKernel, ColVec, ColumnBatch,
};
use crate::planner::{AsofSpec, ColRef, OutputItem, Plan, ROperand, RPred};
use crate::provider::{AggRequest, ColumnFilter, ScanRequest};
use odh_types::{DataType, Datum, OdhError, Result, Row, Timestamp};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Result of a query: column names plus materialized rows.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Non-NULL cells across all rows — the paper's "data points" metric
    /// for query throughput.
    pub fn data_points(&self) -> u64 {
        self.rows.iter().map(|r| r.data_points() as u64).sum()
    }
}

/// Per-operator execution statistics (EXPLAIN ANALYZE).
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operator label, e.g. `scan trade` or `hash_join account`.
    pub op: String,
    /// Rows the operator emitted downstream.
    pub rows: u64,
    /// Real bytes of those rows (per-cell sizes including string headers
    /// and payloads — see [`crate::column::datum_bytes`]).
    pub bytes: u64,
    /// Wall-clock time inside the operator.
    pub nanos: u64,
    /// Extra operator-specific `key=value` tokens (batch counts,
    /// selection-vector selectivity, …). Empty for row-path operators.
    pub extra: String,
}

/// What one execution actually did, operator by operator.
#[derive(Debug, Clone, Default)]
pub struct ExecProfile {
    pub ops: Vec<OpStats>,
    /// Whether the aggregate fast path answered the query natively.
    pub used_aggregate_pushdown: bool,
    /// Whether the vectorized columnar path executed the query.
    pub used_vectorized: bool,
    /// Column batches the vectorized path consumed.
    pub vectorized_batches: u64,
    /// Rows entering the vectorized residual filters.
    pub vectorized_rows_in: u64,
    /// Rows surviving the selection vectors (fed to the aggregate kernels).
    pub vectorized_rows_selected: u64,
    /// Time spent in parse + plan + optimize (filled by the engine).
    pub plan_nanos: u64,
    /// Total execution time (filled by the engine).
    pub exec_nanos: u64,
}

impl ExecProfile {
    fn note(&mut self, op: impl Into<String>, rows: &[Row], started: std::time::Instant) {
        self.note_ext(op, rows, started, String::new());
    }

    fn note_ext(
        &mut self,
        op: impl Into<String>,
        rows: &[Row],
        started: std::time::Instant,
        extra: String,
    ) {
        self.ops.push(OpStats {
            op: op.into(),
            rows: rows.len() as u64,
            bytes: rows.iter().map(approx_row_bytes).sum(),
            nanos: started.elapsed().as_nanos() as u64,
            extra,
        });
    }

    /// One line per operator: `op=<name> rows=<n> bytes=<n> [extra] time=<n>ns`.
    /// Timings vary run to run; consumers comparing output (golden tests)
    /// normalize the `time=` token.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for o in &self.ops {
            let sep = if o.extra.is_empty() { "" } else { " " };
            out.push_str(&format!(
                "op={} rows={} bytes={}{sep}{} time={}ns\n",
                o.op, o.rows, o.bytes, o.extra, o.nanos
            ));
        }
        out
    }
}

fn approx_row_bytes(r: &Row) -> u64 {
    r.cells().iter().map(datum_bytes).sum()
}

/// Run an optimized plan.
pub fn execute(plan: &Plan) -> Result<QueryResult> {
    execute_profiled(plan).map(|(r, _)| r)
}

/// Run an optimized plan, recording per-operator row/byte/time stats.
pub fn execute_profiled(plan: &Plan) -> Result<(QueryResult, ExecProfile)> {
    let total = std::time::Instant::now();
    let mut prof = ExecProfile::default();
    let result = run(plan, &mut prof)?;
    prof.exec_nanos = total.elapsed().as_nanos() as u64;
    Ok((result, prof))
}

/// Output column names in SELECT order.
fn output_columns(plan: &Plan) -> Vec<String> {
    plan.output
        .iter()
        .map(|o| match o {
            OutputItem::Col { name, .. } | OutputItem::Agg { name, .. } => name.clone(),
            OutputItem::Bucket { name } => name.clone(),
        })
        .collect()
}

fn run(plan: &Plan, prof: &mut ExecProfile) -> Result<QueryResult> {
    let order = &plan.join_order;
    let first = order[0];

    // Bucket pushdown: `GROUP BY time_bucket(...)` with summary-answerable
    // aggregates goes straight to the provider, which merges seal-time
    // summaries per bucket (decoding only batches that straddle a bucket
    // boundary).
    if let Some(aggs) = bucket_pushdown_request(plan).filter(|_| aggregate_pushdown_enabled()) {
        let started = std::time::Instant::now();
        let b = plan.bucket.expect("bucket_pushdown_request requires a bucket");
        if let Some(buckets) = plan.bindings[first]
            .provider
            .bucket_scan(&plan.pushdown[first], b.col.column, b.interval_us, &aggs)
            .transpose()?
        {
            let dtype = plan.bindings[first].provider.schema().columns[b.col.column].dtype;
            let n_buckets = buckets.len();
            let mut rows = Vec::with_capacity(n_buckets);
            for (start, aggs_cells) in buckets {
                let mut cells = Vec::with_capacity(plan.output.len());
                let mut agg_i = 0usize;
                for o in &plan.output {
                    match o {
                        OutputItem::Bucket { .. } => cells.push(bucket_key_datum(start, dtype)),
                        OutputItem::Agg { .. } => {
                            cells.push(aggs_cells[agg_i].clone());
                            agg_i += 1;
                        }
                        OutputItem::Col { .. } => unreachable!("bucket pushdown excludes columns"),
                    }
                }
                rows.push(Row::new(cells));
            }
            if b.gapfill {
                rows = gap_fill_rows(plan, rows)?;
            }
            if let Some(limit) = plan.limit {
                rows.truncate(limit);
            }
            prof.used_aggregate_pushdown = true;
            prof.note_ext(
                format!("bucket_pushdown {}", plan.bindings[first].provider.name()),
                &rows,
                started,
                format!("buckets={n_buckets}"),
            );
            return Ok(QueryResult { columns: output_columns(plan), rows });
        }
    }

    // Aggregate pushdown: a single-table, aggregate-only query whose WHERE
    // clause is fully absorbed by the pushed filters can be answered by the
    // provider's native aggregate path (batch summaries for ODH virtual
    // tables) — no rows materialize, no per-cell assembly.
    if let Some(aggs) = aggregate_pushdown_request(plan).filter(|_| aggregate_pushdown_enabled()) {
        let started = std::time::Instant::now();
        if let Some(cells) = plan.bindings[first]
            .provider
            .aggregate_scan(&plan.pushdown[first], &aggs)
            .transpose()?
        {
            let columns = output_columns(plan);
            let mut rows = vec![Row::new(cells)];
            if let Some(limit) = plan.limit {
                rows.truncate(limit);
            }
            prof.used_aggregate_pushdown = true;
            prof.note(
                format!("aggregate_pushdown {}", plan.bindings[first].provider.name()),
                &rows,
                started,
            );
            return Ok(QueryResult { columns, rows });
        }
    }

    // Vectorized columnar path: single-table aggregate shapes fold typed
    // column batches directly — no Row materialization until the result.
    if vectorized_enabled() {
        if let Some(result) = try_vectorized(plan, prof)? {
            return Ok(result);
        }
    }

    // Combined-row layout: bindings in FROM order; unjoined cells NULL.
    let arity = plan.combined_arity();
    let offset_of =
        |b: usize| -> usize { (0..b).map(|i| plan.bindings[i].provider.schema().arity()).sum() };

    // Scan the first table.
    let scan_started = std::time::Instant::now();
    let req =
        ScanRequest { filters: plan.pushdown[first].clone(), needed: plan.needed[first].clone() };
    let scanned = plan.bindings[first].provider.scan(&req)?;
    let mut current: Vec<Row> = Vec::with_capacity(scanned.len());
    let base = offset_of(first);
    for r in scanned {
        let mut cells = vec![Datum::Null; arity];
        for (i, c) in r.into_cells().into_iter().enumerate() {
            cells[base + i] = c;
        }
        current.push(Row::new(cells));
    }
    let mut bound = vec![first];
    current.retain(|row| residuals_hold(plan, &bound, row));
    prof.note(format!("scan {}", plan.bindings[first].provider.name()), &current, scan_started);

    // ASOF JOIN replaces the generic join loop: match each left row with
    // the latest right row at-or-before its timestamp (per partition).
    if let Some(spec) = plan.asof {
        let asof_started = std::time::Instant::now();
        current = asof_join(plan, spec, current)?;
        bound.push(1);
        current.retain(|row| residuals_hold(plan, &bound, row));
        prof.note(
            format!("asof_join {}", plan.bindings[1].provider.name()),
            &current,
            asof_started,
        );
        return finish(plan, prof, current);
    }

    // Join the rest.
    for &b in order.iter().skip(1) {
        let join_started = std::time::Instant::now();
        let provider = &plan.bindings[b].provider;
        let b_off = offset_of(b);
        let join_col = crate::optimizer::join_column_into(plan, b, &bound);
        let mut join_op = "cartesian";
        let mut next: Vec<Row> = Vec::new();
        match join_col {
            Some(col) => {
                // Column on the already-bound side this join matches.
                let other = other_side(plan, b, col);
                let other_off = plan.combined_offset(other);
                let use_index = provider.probe_cost(col.column).is_some();
                join_op = if use_index { "index_join" } else { "hash_join" };
                if use_index {
                    for row in &current {
                        let key = row.get(other_off);
                        if key.is_null() {
                            continue;
                        }
                        let matches = provider
                            .index_lookup(col.column, key, &plan.needed[b])
                            .transpose()?
                            .unwrap_or_default();
                        for m in matches {
                            if !filters_hold(plan, b, &m) {
                                continue;
                            }
                            next.push(splice(row, &m, b_off));
                        }
                    }
                } else {
                    // Hash join: build on the new table.
                    let req = ScanRequest {
                        filters: plan.pushdown[b].clone(),
                        needed: plan.needed[b].clone(),
                    };
                    let mut table: HashMap<Datum, Vec<Row>> = HashMap::new();
                    for r in provider.scan(&req)? {
                        let k = r.get(col.column).clone();
                        if !k.is_null() {
                            table.entry(k).or_default().push(r);
                        }
                    }
                    for row in &current {
                        let key = row.get(other_off);
                        if let Some(matches) = table.get(key) {
                            for m in matches {
                                next.push(splice(row, m, b_off));
                            }
                        }
                    }
                }
            }
            None => {
                // Cartesian product (no join edge).
                let req = ScanRequest {
                    filters: plan.pushdown[b].clone(),
                    needed: plan.needed[b].clone(),
                };
                let rows_b = provider.scan(&req)?;
                for row in &current {
                    for m in &rows_b {
                        next.push(splice(row, m, b_off));
                    }
                }
            }
        }
        bound.push(b);
        next.retain(|row| residuals_hold(plan, &bound, row));
        current = next;
        prof.note(format!("{join_op} {}", provider.name()), &current, join_started);
    }

    finish(plan, prof, current)
}

/// Shared pipeline tail: aggregate or project, then ORDER BY and LIMIT.
fn finish(plan: &Plan, prof: &mut ExecProfile, mut current: Vec<Row>) -> Result<QueryResult> {
    let has_agg =
        plan.bucket.is_some() || plan.output.iter().any(|o| matches!(o, OutputItem::Agg { .. }));
    let mut columns = output_columns(plan);
    let mut rows: Vec<Row>;
    let finish_started = std::time::Instant::now();
    if has_agg {
        let groups = accumulate_rows(plan, &current)?;
        rows = finalize_groups(plan, groups)?;
        rows = order_aggregate_output(plan, rows)?;
        prof.note("aggregate", &rows, finish_started);
    } else {
        if !plan.order_by.is_empty() {
            let keys: Vec<(usize, bool)> =
                plan.order_by.iter().map(|(c, desc)| (plan.combined_offset(*c), *desc)).collect();
            current.sort_by(|a, b| compare_rows(a, b, &keys));
        }
        let proj: Vec<usize> = plan
            .output
            .iter()
            .map(|o| match o {
                OutputItem::Col { col, .. } => plan.combined_offset(*col),
                OutputItem::Agg { .. } | OutputItem::Bucket { .. } => unreachable!(),
            })
            .collect();
        rows = current.iter().map(|r| r.project(&proj)).collect();
        prof.note("project", &rows, finish_started);
    }
    if let Some(limit) = plan.limit {
        let limit_started = std::time::Instant::now();
        rows.truncate(limit);
        prof.note("limit", &rows, limit_started);
    }
    if columns.is_empty() {
        columns = vec!["?".into()];
    }
    Ok(QueryResult { columns, rows })
}

/// Gap-fill (if requested), then ORDER BY over aggregate output (sort by
/// matching group-by column position in the output list).
fn order_aggregate_output(plan: &Plan, mut rows: Vec<Row>) -> Result<Vec<Row>> {
    if plan.bucket.is_some_and(|b| b.gapfill) {
        rows = gap_fill_rows(plan, rows)?;
    }
    if !plan.order_by.is_empty() {
        let keys: Vec<(usize, bool)> = plan
            .order_by
            .iter()
            .filter_map(|(c, desc)| {
                plan.output
                    .iter()
                    .position(|o| matches!(o, OutputItem::Col { col, .. } if col == c))
                    .map(|i| (i, *desc))
            })
            .collect();
        rows.sort_by(|a, b| compare_rows(a, b, &keys));
    }
    Ok(rows)
}

/// Process-wide ablation switch for the aggregate fast path. On by
/// default; benches flip it off to measure what summary pushdown saves
/// (the row path gives identical answers, just by decoding blobs).
static AGG_PUSHDOWN_ENABLED: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(true);

/// Enable or disable aggregate pushdown process-wide (ablation knob —
/// not meant for concurrent toggling while queries run).
pub fn set_aggregate_pushdown(enabled: bool) {
    AGG_PUSHDOWN_ENABLED.store(enabled, std::sync::atomic::Ordering::SeqCst);
}

/// Whether the aggregate fast path is currently enabled.
pub fn aggregate_pushdown_enabled() -> bool {
    AGG_PUSHDOWN_ENABLED.load(std::sync::atomic::Ordering::SeqCst)
}

/// Process-wide ablation switch for the vectorized columnar path. On by
/// default; benches flip it off to measure row-at-a-time execution.
static VECTORIZED_ENABLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(true);

/// Enable or disable vectorized execution process-wide (ablation knob —
/// not meant for concurrent toggling while queries run).
pub fn set_vectorized(enabled: bool) {
    VECTORIZED_ENABLED.store(enabled, std::sync::atomic::Ordering::SeqCst);
}

/// Whether the vectorized columnar path is currently enabled.
pub fn vectorized_enabled() -> bool {
    VECTORIZED_ENABLED.load(std::sync::atomic::Ordering::SeqCst)
}

/// The aggregate-pushdown request for a plan whose *shape* allows a native
/// answer: exactly one table, no GROUP BY, aggregate-only outputs, and
/// every residual predicate already implied by a pushed filter (so no row
/// the provider aggregates was meant to be dropped). `None` otherwise.
/// Whether the provider actually accepts is its own decision.
pub(crate) fn aggregate_pushdown_request(plan: &Plan) -> Option<Vec<AggRequest>> {
    if plan.bindings.len() != 1
        || !plan.group_by.is_empty()
        || plan.output.is_empty()
        || plan.bucket.is_some()
        || plan.asof.is_some()
    {
        return None;
    }
    let aggs: Option<Vec<AggRequest>> = plan
        .output
        .iter()
        .map(|o| match o {
            // LAST needs the actual newest row, not a mergeable summary —
            // providers can't answer it from aggregates.
            OutputItem::Agg { func: AggFunc::Last, .. } => None,
            OutputItem::Agg { func, input, .. } => {
                Some(AggRequest { func: *func, input: input.map(|c| c.column) })
            }
            OutputItem::Col { .. } | OutputItem::Bucket { .. } => None,
        })
        .collect();
    let aggs = aggs?;
    if plan.residual.iter().all(|p| residual_absorbed(plan, p)) {
        Some(aggs)
    } else {
        None
    }
}

/// Like [`aggregate_pushdown_request`] but for `GROUP BY time_bucket(...)`
/// shapes: one table, no other grouping, outputs only the bucket and
/// summary-mergeable aggregates, WHERE fully absorbed by pushed filters.
pub(crate) fn bucket_pushdown_request(plan: &Plan) -> Option<Vec<AggRequest>> {
    plan.bucket?;
    if plan.bindings.len() != 1
        || !plan.group_by.is_empty()
        || plan.output.is_empty()
        || plan.asof.is_some()
    {
        return None;
    }
    let mut aggs = Vec::new();
    for o in &plan.output {
        match o {
            OutputItem::Bucket { .. } => {}
            OutputItem::Agg { func: AggFunc::Last, .. } => return None,
            OutputItem::Agg { func, input, .. } => {
                aggs.push(AggRequest { func: *func, input: input.map(|c| c.column) });
            }
            OutputItem::Col { .. } => return None,
        }
    }
    if aggs.is_empty() {
        return None;
    }
    if plan.residual.iter().all(|p| residual_absorbed(plan, p)) {
        Some(aggs)
    } else {
        None
    }
}

/// Is `p` guaranteed by the pushed filters on its column, making its
/// re-check redundant?
fn residual_absorbed(plan: &Plan, p: &RPred) -> bool {
    let (col, op, lit) = match (&p.left, &p.right) {
        (ROperand::Col(c), ROperand::Lit(v)) => (*c, p.op, v),
        (ROperand::Lit(v), ROperand::Col(c)) => (*c, flip_cmp(p.op), v),
        _ => return false,
    };
    plan.pushdown[col.binding].iter().any(|(c, f)| *c == col.column && filter_implies(f, op, lit))
}

/// `lit OP col` → `col OP' lit`.
fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// Does every non-NULL datum accepted by `f` also satisfy `d OP lit`?
/// Conservative — `false` whenever unsure.
fn filter_implies(f: &ColumnFilter, op: CmpOp, lit: &Datum) -> bool {
    match f {
        ColumnFilter::Eq(k) => matches!(
            (k.sql_cmp(lit), op),
            (Some(Ordering::Equal), CmpOp::Eq | CmpOp::Le | CmpOp::Ge)
                | (Some(Ordering::Less), CmpOp::Lt | CmpOp::Le | CmpOp::Neq)
                | (Some(Ordering::Greater), CmpOp::Gt | CmpOp::Ge | CmpOp::Neq)
        ),
        ColumnFilter::Range { lo, hi } => match op {
            CmpOp::Ge | CmpOp::Gt => {
                let Some((b, inc)) = lo else { return false };
                match b.sql_cmp(lit) {
                    Some(Ordering::Greater) => true,
                    // b == lit: `d >= b` gives `d >= lit`; only an
                    // exclusive bound (`d > b`) gives the strict `d > lit`.
                    Some(Ordering::Equal) => op == CmpOp::Ge || !*inc,
                    _ => false,
                }
            }
            CmpOp::Le | CmpOp::Lt => {
                let Some((b, inc)) = hi else { return false };
                match b.sql_cmp(lit) {
                    Some(Ordering::Less) => true,
                    Some(Ordering::Equal) => op == CmpOp::Le || !*inc,
                    _ => false,
                }
            }
            CmpOp::Eq | CmpOp::Neq => false,
        },
    }
}

/// The bound-side column of the join edge that connects `b` via `col`.
fn other_side(plan: &Plan, b: usize, col: ColRef) -> ColRef {
    for j in &plan.joins {
        if j.left == col && j.right.binding != b {
            return j.right;
        }
        if j.right == col && j.left.binding != b {
            return j.left;
        }
    }
    // join_column_into returned col, so an edge must exist.
    unreachable!("no join edge for binding {b}")
}

fn splice(base: &Row, add: &Row, at: usize) -> Row {
    let mut cells = base.cells().to_vec();
    for (i, c) in add.cells().iter().enumerate() {
        cells[at + i] = c.clone();
    }
    Row::new(cells)
}

/// Re-apply this binding's pushdown filters (providers may over-return).
fn filters_hold(plan: &Plan, b: usize, row: &Row) -> bool {
    plan.pushdown[b].iter().all(|(c, f)| f.matches(row.get(*c)))
}

/// Residual predicates whose bindings are all bound must hold.
fn residuals_hold(plan: &Plan, bound: &[usize], row: &Row) -> bool {
    plan.residual.iter().all(|p| {
        if !pred_bound(p, bound) {
            return true;
        }
        eval_pred(plan, p, row)
    })
}

fn pred_bound(p: &RPred, bound: &[usize]) -> bool {
    [&p.left, &p.right].into_iter().all(|o| match o {
        ROperand::Col(c) => bound.contains(&c.binding),
        ROperand::Lit(_) => true,
    })
}

fn eval_pred(plan: &Plan, p: &RPred, row: &Row) -> bool {
    let l = operand_value(plan, &p.left, row);
    let r = operand_value(plan, &p.right, row);
    cmp_holds(l.sql_cmp(&r), p.op)
}

fn operand_value(plan: &Plan, o: &ROperand, row: &Row) -> Datum {
    match o {
        ROperand::Col(c) => row.get(plan.combined_offset(*c)).clone(),
        ROperand::Lit(d) => d.clone(),
    }
}

fn compare_rows(a: &Row, b: &Row, keys: &[(usize, bool)]) -> Ordering {
    for (i, desc) in keys {
        let ord = total_cmp(a.get(*i), b.get(*i));
        let ord = if *desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Total order for sorting: NULLs first, then SQL comparison, with
/// incomparable type pairs ordered by a type rank (three-valued `sql_cmp`
/// alone is not transitive and would panic std's sort).
fn total_cmp(a: &Datum, b: &Datum) -> Ordering {
    match (a.is_null(), b.is_null()) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        (false, false) => {}
    }
    // Numeric family: IEEE total order (plain sql_cmp is partial under
    // NaN, which also breaks sort transitivity).
    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
        return x.total_cmp(&y);
    }
    a.sql_cmp(b).unwrap_or_else(|| type_rank(a).cmp(&type_rank(b)))
}

fn type_rank(d: &Datum) -> u8 {
    match d {
        Datum::Null => 0,
        Datum::I64(_) | Datum::F64(_) | Datum::Ts(_) => 1,
        Datum::Str(_) => 2,
    }
}

/// Running state of one aggregate in one group — shared between the row
/// and vectorized paths so both finalize identically.
struct AggState {
    count: u64,
    sum: f64,
    min: Option<Datum>,
    max: Option<Datum>,
    /// LAST: value at the greatest `(ts, id)` key observed, ties going to
    /// the later observation.
    last: Option<(i64, i64, Datum)>,
}

impl AggState {
    fn new() -> Self {
        AggState { count: 0, sum: 0.0, min: None, max: None, last: None }
    }

    /// Fold one non-NULL value. `at` carries the `(ts, id)` ordering key
    /// for LAST (`None` for the other functions).
    fn observe(&mut self, d: Datum, at: Option<(i64, i64)>) {
        self.count += 1;
        if let Some(x) = d.as_f64() {
            self.sum += x;
        }
        if self.min.as_ref().is_none_or(|m| d.sql_cmp(m) == Some(Ordering::Less)) {
            self.min = Some(d.clone());
        }
        if self.max.as_ref().is_none_or(|m| d.sql_cmp(m) == Some(Ordering::Greater)) {
            self.max = Some(d.clone());
        }
        if let Some((ts, id)) = at {
            if self.last.as_ref().is_none_or(|(lts, lid, _)| (ts, id) >= (*lts, *lid)) {
                self.last = Some((ts, id, d));
            }
        }
    }

    fn finalize(&self, func: AggFunc) -> Datum {
        match func {
            AggFunc::Count => Datum::I64(self.count as i64),
            AggFunc::Sum => {
                if self.count == 0 {
                    Datum::Null
                } else {
                    Datum::F64(self.sum)
                }
            }
            AggFunc::Avg => {
                if self.count == 0 {
                    Datum::Null
                } else {
                    Datum::F64(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Datum::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Datum::Null),
            AggFunc::Last => self.last.as_ref().map(|(_, _, d)| d.clone()).unwrap_or(Datum::Null),
        }
    }
}

/// One aggregate output, resolved to combined-row offsets (for a single
/// binding those equal plain column indices, which is what the vectorized
/// path relies on).
struct AggSpec {
    func: AggFunc,
    /// Input column offset (`None` for `COUNT(*)`).
    input: Option<usize>,
    /// For LAST: offsets of the `(ts column, id column)` ordering key of
    /// the input's binding (either may be missing).
    last_at: Option<(Option<usize>, Option<usize>)>,
}

fn agg_specs(plan: &Plan) -> Vec<AggSpec> {
    plan.output
        .iter()
        .filter_map(|o| match o {
            OutputItem::Agg { func, input, .. } => {
                let binding = input.map(|c| c.binding).unwrap_or(0);
                let last_at =
                    matches!(func, AggFunc::Last).then(|| last_key_offsets(plan, binding));
                Some(AggSpec {
                    func: *func,
                    input: input.map(|c| plan.combined_offset(c)),
                    last_at,
                })
            }
            OutputItem::Col { .. } | OutputItem::Bucket { .. } => None,
        })
        .collect()
}

/// Combined offsets of the `(ts, id)` LAST-ordering key of one binding:
/// its first Ts-typed column and its leading I64 id column (the VTI
/// layout: `[id, timestamp, tags...]`).
fn last_key_offsets(plan: &Plan, binding: usize) -> (Option<usize>, Option<usize>) {
    let schema = plan.bindings[binding].provider.schema();
    let ts = schema
        .columns
        .iter()
        .position(|c| c.dtype == DataType::Ts)
        .map(|column| plan.combined_offset(ColRef { binding, column }));
    let id = (schema.columns.first().map(|c| c.dtype) == Some(DataType::I64))
        .then(|| plan.combined_offset(ColRef { binding, column: 0 }));
    (ts, id)
}

/// Microsecond (or plain integer) view of a bucket / ordering key cell.
fn row_key_i64(d: &Datum) -> Option<i64> {
    match d {
        Datum::Ts(t) => Some(t.0),
        Datum::I64(v) => Some(*v),
        _ => None,
    }
}

/// A bucket start as a datum of the bucket column's type.
fn bucket_key_datum(start: i64, dtype: DataType) -> Datum {
    if dtype == DataType::Ts {
        Datum::Ts(Timestamp(start))
    } else {
        Datum::I64(start)
    }
}

/// Bucket a row cell: floor its value to the interval, keeping the
/// column's type. NULL timestamps land in a NULL bucket.
fn bucket_datum_of(d: &Datum, interval_us: i64, dtype: DataType) -> Datum {
    match row_key_i64(d) {
        Some(v) => bucket_key_datum(v.div_euclid(interval_us) * interval_us, dtype),
        None => Datum::Null,
    }
}

/// Row-path accumulation: fold combined rows into per-group aggregate
/// states. Group-key layout: `[bucket_start?] ++ group_by datums`.
fn accumulate_rows(plan: &Plan, rows: &[Row]) -> Result<HashMap<Vec<Datum>, Vec<AggState>>> {
    let group_offsets: Vec<usize> =
        plan.group_by.iter().map(|c| plan.combined_offset(*c)).collect();
    let bucket = plan.bucket.map(|b| {
        let dtype = plan.bindings[b.col.binding].provider.schema().columns[b.col.column].dtype;
        (plan.combined_offset(b.col), b.interval_us, dtype)
    });
    let specs = agg_specs(plan);
    let mut groups: HashMap<Vec<Datum>, Vec<AggState>> = HashMap::new();
    for row in rows {
        let mut key = Vec::with_capacity(group_offsets.len() + usize::from(bucket.is_some()));
        if let Some((off, interval, dtype)) = bucket {
            key.push(bucket_datum_of(row.get(off), interval, dtype));
        }
        key.extend(group_offsets.iter().map(|&o| row.get(o).clone()));
        let states =
            groups.entry(key).or_insert_with(|| specs.iter().map(|_| AggState::new()).collect());
        for (st, spec) in states.iter_mut().zip(&specs) {
            let d = match spec.input {
                None => Datum::I64(1), // COUNT(*)
                Some(off) => {
                    let d = row.get(off);
                    if d.is_null() {
                        continue;
                    }
                    d.clone()
                }
            };
            let at = spec.last_at.map(|(ts_off, id_off)| {
                let ts = ts_off.and_then(|o| row_key_i64(row.get(o))).unwrap_or(i64::MIN);
                let id = id_off.and_then(|o| row_key_i64(row.get(o))).unwrap_or(0);
                (ts, id)
            });
            st.observe(d, at);
        }
    }
    // A global aggregate over zero rows still yields one row.
    if groups.is_empty() && plan.group_by.is_empty() && plan.bucket.is_none() {
        groups.insert(Vec::new(), specs.iter().map(|_| AggState::new()).collect());
    }
    Ok(groups)
}

/// Turn per-group states into output rows, sorted by group key.
fn finalize_groups(plan: &Plan, groups: HashMap<Vec<Datum>, Vec<AggState>>) -> Result<Vec<Row>> {
    let key_base = usize::from(plan.bucket.is_some());
    let mut keys: Vec<Vec<Datum>> = groups.keys().cloned().collect();
    keys.sort_by(|a, b| {
        for (x, y) in a.iter().zip(b) {
            let ord = x.sql_cmp(y).unwrap_or(Ordering::Equal);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
    let mut out = Vec::with_capacity(keys.len());
    for key in keys {
        let states = &groups[&key];
        let mut cells = Vec::with_capacity(plan.output.len());
        let mut agg_i = 0usize;
        for o in &plan.output {
            match o {
                OutputItem::Bucket { .. } => cells.push(key[0].clone()),
                OutputItem::Col { col, .. } => {
                    // Must be a GROUP BY column.
                    let pos = plan.group_by.iter().position(|g| g == col).ok_or_else(|| {
                        OdhError::Plan("non-aggregated column must appear in GROUP BY".into())
                    })?;
                    cells.push(key[key_base + pos].clone());
                }
                OutputItem::Agg { func, .. } => {
                    cells.push(states[agg_i].finalize(*func));
                    agg_i += 1;
                }
            }
        }
        out.push(Row::new(cells));
    }
    Ok(out)
}

/// Cap on how many buckets gap-fill may materialize (guards a tiny
/// interval over a huge time range from allocating unboundedly).
const GAP_FILL_MAX_BUCKETS: i64 = 4 << 20;

/// Fill missing buckets between the observed min and max bucket: COUNT
/// becomes 0, other aggregates NULL. Outputs marked `interpolate(...)`
/// then get NULL cells between two non-NULL neighbours replaced by linear
/// interpolation over bucket distance.
fn gap_fill_rows(plan: &Plan, rows: Vec<Row>) -> Result<Vec<Row>> {
    let b = plan.bucket.ok_or_else(|| OdhError::Plan("gap_fill requires time_bucket".into()))?;
    let bucket_pos =
        plan.output.iter().position(|o| matches!(o, OutputItem::Bucket { .. })).ok_or_else(
            || OdhError::Plan("time_bucket_gapfill requires selecting time_bucket".into()),
        )?;
    let dtype = plan.bindings[b.col.binding].provider.schema().columns[b.col.column].dtype;
    // NULL-bucket rows (NULL timestamps) pass through ahead of the filled
    // range, matching the NULLs-first group ordering.
    let mut null_rows = Vec::new();
    let mut by_bucket: std::collections::BTreeMap<i64, Row> = std::collections::BTreeMap::new();
    for r in rows {
        match row_key_i64(r.get(bucket_pos)) {
            Some(k) => {
                by_bucket.insert(k, r);
            }
            None => null_rows.push(r),
        }
    }
    let Some((&lo, _)) = by_bucket.iter().next() else {
        return Ok(null_rows);
    };
    let (&hi, _) = by_bucket.iter().next_back().expect("non-empty map");
    if (hi - lo) / b.interval_us >= GAP_FILL_MAX_BUCKETS {
        return Err(OdhError::Plan(format!(
            "gap_fill would materialize more than {GAP_FILL_MAX_BUCKETS} buckets"
        )));
    }
    let mut filled = null_rows;
    let fill_from = filled.len();
    let mut k = lo;
    loop {
        match by_bucket.remove(&k) {
            Some(r) => filled.push(r),
            None => {
                let mut cells = vec![Datum::Null; plan.output.len()];
                cells[bucket_pos] = bucket_key_datum(k, dtype);
                for (i, o) in plan.output.iter().enumerate() {
                    if matches!(o, OutputItem::Agg { func: AggFunc::Count, .. }) {
                        cells[i] = Datum::I64(0);
                    }
                }
                filled.push(Row::new(cells));
            }
        }
        if k >= hi {
            break;
        }
        match k.checked_add(b.interval_us) {
            Some(next) => k = next,
            None => break,
        }
    }
    // Linear interpolation of requested outputs across the filled range.
    for (i, o) in plan.output.iter().enumerate() {
        if !matches!(o, OutputItem::Agg { interpolate: true, .. }) {
            continue;
        }
        let known: Vec<(usize, f64)> = filled[fill_from..]
            .iter()
            .enumerate()
            .filter_map(|(j, r)| r.get(i).as_f64().map(|v| (fill_from + j, v)))
            .collect();
        for w in known.windows(2) {
            let ((j0, v0), (j1, v1)) = (w[0], w[1]);
            for (j, row) in filled.iter_mut().enumerate().take(j1).skip(j0 + 1) {
                if row.get(i).is_null() {
                    let t = (j - j0) as f64 / (j1 - j0) as f64;
                    let mut cells = row.cells().to_vec();
                    cells[i] = Datum::F64(v0 + (v1 - v0) * t);
                    *row = Row::new(cells);
                }
            }
        }
    }
    Ok(filled)
}

/// ASOF JOIN: pair each left (binding 0) combined row with the latest
/// right (binding 1) row whose `right_ts` is at-or-before (`<` when
/// strict) the left row's `left_ts`, within the optional equality
/// partition. Unmatched left rows keep their NULL right cells.
fn asof_join(plan: &Plan, spec: AsofSpec, current: Vec<Row>) -> Result<Vec<Row>> {
    let req = ScanRequest { filters: plan.pushdown[1].clone(), needed: plan.needed[1].clone() };
    let right_rows = plan.bindings[1].provider.scan(&req)?;
    let right_off = plan.bindings[0].provider.schema().arity();
    let r_eq_col = spec.eq.map(|(_, r)| r.column);
    // Partition → (ts, arrival index), sorted so ties at equal ts resolve
    // to the later-scanned row.
    let mut parts: HashMap<Datum, Vec<(i64, usize)>> = HashMap::new();
    for (idx, r) in right_rows.iter().enumerate() {
        let Some(ts) = row_key_i64(r.get(spec.right_ts.column)) else { continue };
        let key = match r_eq_col {
            Some(c) => {
                let k = r.get(c);
                if k.is_null() {
                    continue; // NULL partitions never match
                }
                k.clone()
            }
            None => Datum::Null, // single-partition sentinel
        };
        parts.entry(key).or_default().push((ts, idx));
    }
    for v in parts.values_mut() {
        v.sort_unstable();
    }
    let l_ts_off = plan.combined_offset(spec.left_ts);
    let l_eq_off = spec.eq.map(|(l, _)| plan.combined_offset(l));
    let mut out = Vec::with_capacity(current.len());
    for row in current {
        let mut matched: Option<&Row> = None;
        if let Some(lts) = row_key_i64(row.get(l_ts_off)) {
            let key = match l_eq_off {
                Some(off) => {
                    let k = row.get(off);
                    if k.is_null() {
                        None
                    } else {
                        Some(k.clone())
                    }
                }
                None => Some(Datum::Null),
            };
            if let Some(part) = key.and_then(|k| parts.get(&k)) {
                let cut =
                    part.partition_point(|&(ts, _)| if spec.strict { ts < lts } else { ts <= lts });
                if cut > 0 {
                    matched = Some(&right_rows[part[cut - 1].1]);
                }
            }
        }
        out.push(match matched {
            Some(m) => splice(&row, m, right_off),
            None => row,
        });
    }
    Ok(out)
}

fn cmp_kernel(op: CmpOp) -> CmpKernel {
    match op {
        CmpOp::Eq => CmpKernel::Eq,
        CmpOp::Neq => CmpKernel::Neq,
        CmpOp::Lt => CmpKernel::Lt,
        CmpOp::Gt => CmpKernel::Gt,
        CmpOp::Le => CmpKernel::Le,
        CmpOp::Ge => CmpKernel::Ge,
    }
}

/// SQL three-valued comparison collapsed to a boolean (UNKNOWN → false).
#[allow(clippy::match_like_matches_macro)] // the truth table reads better spelled out
fn cmp_holds(ord: Option<Ordering>, op: CmpOp) -> bool {
    match (ord, op) {
        (Some(Ordering::Equal), CmpOp::Eq | CmpOp::Le | CmpOp::Ge) => true,
        (Some(Ordering::Less), CmpOp::Lt | CmpOp::Le | CmpOp::Neq) => true,
        (Some(Ordering::Greater), CmpOp::Gt | CmpOp::Ge | CmpOp::Neq) => true,
        _ => false,
    }
}

/// Refine `sel` by one residual predicate (single-binding plans only, so
/// combined offsets are plain column indices).
fn apply_residual_vec(p: &RPred, batch: &ColumnBatch, sel: &mut Vec<u32>) {
    match (&p.left, &p.right) {
        (ROperand::Col(c), ROperand::Lit(v)) => {
            filter_cmp(&batch.cols[c.column], cmp_kernel(p.op), v, sel, |d| {
                cmp_holds(d.sql_cmp(v), p.op)
            });
        }
        (ROperand::Lit(v), ROperand::Col(c)) => {
            let op = flip_cmp(p.op);
            filter_cmp(&batch.cols[c.column], cmp_kernel(op), v, sel, |d| {
                cmp_holds(d.sql_cmp(v), op)
            });
        }
        (ROperand::Col(a), ROperand::Col(b)) => {
            let (ca, cb) = (a.column, b.column);
            sel.retain(|&i| {
                let l = batch.cols[ca].datum(i as usize, batch.dtypes[ca]);
                let r = batch.cols[cb].datum(i as usize, batch.dtypes[cb]);
                cmp_holds(l.sql_cmp(&r), p.op)
            });
        }
        (ROperand::Lit(a), ROperand::Lit(b)) => {
            if !cmp_holds(a.sql_cmp(b), p.op) {
                sel.clear();
            }
        }
    }
}

/// The `(ts, id)` LAST-ordering key of row `i` in a batch.
fn batch_last_key(
    batch: &ColumnBatch,
    ts_c: Option<usize>,
    id_c: Option<usize>,
    i: usize,
) -> (i64, i64) {
    let ts = ts_c.and_then(|c| batch.cols[c].i64_at(i)).unwrap_or(i64::MIN);
    let id = id_c.and_then(|c| batch.cols[c].i64_at(i)).unwrap_or(0);
    (ts, id)
}

/// Generic per-datum fold for one aggregate over the selected rows (the
/// path for string columns, typed MIN/MAX, and LAST).
fn fold_datums(st: &mut AggState, spec: &AggSpec, batch: &ColumnBatch, sel: &[u32]) {
    let c = spec.input.expect("fold_datums requires an input column");
    let (col, dtype) = (&batch.cols[c], batch.dtypes[c]);
    for &i in sel {
        let i = i as usize;
        let d = col.datum(i, dtype);
        if d.is_null() {
            continue;
        }
        let at = spec.last_at.map(|(ts_c, id_c)| batch_last_key(batch, ts_c, id_c, i));
        st.observe(d, at);
    }
}

/// Vectorized global (ungrouped) aggregation over one batch.
fn update_global(states: &mut [AggState], specs: &[AggSpec], batch: &ColumnBatch, sel: &[u32]) {
    for (st, spec) in states.iter_mut().zip(specs) {
        let Some(c) = spec.input else {
            st.count += sel.len() as u64; // COUNT(*)
            continue;
        };
        let col = &batch.cols[c];
        let dtype = batch.dtypes[c];
        match spec.func {
            AggFunc::Count => st.count += count_valid(col, sel).max(0) as u64,
            AggFunc::Sum | AggFunc::Avg => match numeric_agg(col, sel) {
                Some(n) => {
                    st.count += n.count.max(0) as u64;
                    st.sum += n.sum;
                }
                None => fold_datums(st, spec, batch, sel),
            },
            // MIN/MAX keep the column's datum type, so the f64 kernel only
            // applies where the row path would also produce F64 datums.
            AggFunc::Min | AggFunc::Max
                if dtype == DataType::F64 || matches!(col, ColVec::Shared { .. }) =>
            {
                match numeric_agg(col, sel) {
                    Some(n) if n.count > 0 => {
                        st.count += n.count as u64;
                        st.sum += n.sum;
                        let lo = Datum::F64(n.min);
                        if st.min.as_ref().is_none_or(|m| lo.sql_cmp(m) == Some(Ordering::Less)) {
                            st.min = Some(lo);
                        }
                        let hi = Datum::F64(n.max);
                        if st.max.as_ref().is_none_or(|m| hi.sql_cmp(m) == Some(Ordering::Greater))
                        {
                            st.max = Some(hi);
                        }
                    }
                    Some(_) => {}
                    None => fold_datums(st, spec, batch, sel),
                }
            }
            _ => fold_datums(st, spec, batch, sel),
        }
    }
}

/// Vectorized grouped accumulation (bucket and/or GROUP BY keys) over the
/// selected rows of one batch.
fn accumulate_selected(
    groups: &mut HashMap<Vec<Datum>, Vec<AggState>>,
    specs: &[AggSpec],
    batch: &ColumnBatch,
    sel: &[u32],
    bucket: Option<(usize, i64, DataType)>,
    group_cols: &[usize],
) {
    for &i in sel {
        let i = i as usize;
        let mut key = Vec::with_capacity(group_cols.len() + usize::from(bucket.is_some()));
        if let Some((c, interval, dtype)) = bucket {
            key.push(match batch.cols[c].i64_at(i) {
                Some(v) => bucket_key_datum(v.div_euclid(interval) * interval, dtype),
                None => Datum::Null,
            });
        }
        for &g in group_cols {
            key.push(batch.cols[g].datum(i, batch.dtypes[g]));
        }
        let states =
            groups.entry(key).or_insert_with(|| specs.iter().map(|_| AggState::new()).collect());
        for (st, spec) in states.iter_mut().zip(specs) {
            let d = match spec.input {
                None => Datum::I64(1), // COUNT(*)
                Some(c) => {
                    let d = batch.cols[c].datum(i, batch.dtypes[c]);
                    if d.is_null() {
                        continue;
                    }
                    d
                }
            };
            let at = spec.last_at.map(|(ts_c, id_c)| batch_last_key(batch, ts_c, id_c, i));
            st.observe(d, at);
        }
    }
}

/// Attempt the vectorized columnar path. `Ok(None)` when the plan shape
/// doesn't qualify or the provider has no columnar scan.
fn try_vectorized(plan: &Plan, prof: &mut ExecProfile) -> Result<Option<QueryResult>> {
    if plan.bindings.len() != 1 || plan.asof.is_some() {
        return Ok(None);
    }
    let has_agg =
        plan.bucket.is_some() || plan.output.iter().any(|o| matches!(o, OutputItem::Agg { .. }));
    if !has_agg {
        return Ok(None); // pure projections stay on the row path
    }
    let provider = &plan.bindings[0].provider;
    let started = std::time::Instant::now();
    let req = ScanRequest { filters: plan.pushdown[0].clone(), needed: plan.needed[0].clone() };
    let Some(scan) = provider.scan_columnar(&req).transpose()? else {
        return Ok(None);
    };
    let schema = provider.schema();
    let specs = agg_specs(plan);
    let bucket =
        plan.bucket.map(|b| (b.col.column, b.interval_us, schema.columns[b.col.column].dtype));
    let group_cols: Vec<usize> = plan.group_by.iter().map(|c| c.column).collect();
    let global = bucket.is_none() && group_cols.is_empty();
    let any_last = specs.iter().any(|s| s.last_at.is_some());
    let all_last = !specs.is_empty() && specs.iter().all(|s| s.last_at.is_some());

    let mut batches = scan.batches;
    // LAST wants newest batches first: the global short-circuit below can
    // then stop once every state is newer than everything left.
    if any_last && batches.iter().all(|b| b.ts_range.is_some()) {
        batches.sort_by_key(|b| std::cmp::Reverse(b.ts_range.map(|(_, hi)| hi)));
    }

    let mut groups: HashMap<Vec<Datum>, Vec<AggState>> = HashMap::new();
    let mut global_states: Vec<AggState> = specs.iter().map(|_| AggState::new()).collect();
    let (mut n_batches, mut rows_in, mut rows_sel) = (0u64, 0u64, 0u64);
    for batch in &batches {
        if global && all_last {
            if let Some((_, hi)) = batch.ts_range {
                if global_states
                    .iter()
                    .all(|st| st.last.as_ref().is_some_and(|(ts, _, _)| *ts >= hi))
                {
                    break; // every LAST is already newer than anything left
                }
            }
        }
        n_batches += 1;
        rows_in += batch.len as u64;
        let mut sel = batch.full_selection();
        for p in &plan.residual {
            apply_residual_vec(p, batch, &mut sel);
            if sel.is_empty() {
                break;
            }
        }
        rows_sel += sel.len() as u64;
        if sel.is_empty() {
            continue;
        }
        if global {
            update_global(&mut global_states, &specs, batch, &sel);
        } else {
            accumulate_selected(&mut groups, &specs, batch, &sel, bucket, &group_cols);
        }
    }
    if global {
        groups.insert(Vec::new(), global_states);
    }
    let rows = finalize_groups(plan, groups)?;
    let mut rows = order_aggregate_output(plan, rows)?;
    if let Some(limit) = plan.limit {
        rows.truncate(limit);
    }
    prof.used_vectorized = true;
    prof.vectorized_batches += n_batches;
    prof.vectorized_rows_in += rows_in;
    prof.vectorized_rows_selected += rows_sel;
    prof.note_ext(
        format!("vectorized_agg {}", provider.name()),
        &rows,
        started,
        format!("batches={n_batches} rows_in={rows_in} rows_selected={rows_sel}"),
    );
    Ok(Some(QueryResult { columns: output_columns(plan), rows }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{MemTable, TableProvider};
    use crate::SqlEngine;
    use odh_types::{DataType, RelSchema, Timestamp};
    use std::sync::Arc;

    fn engine() -> SqlEngine {
        let e = SqlEngine::new();
        let trade = MemTable::new(RelSchema::new(
            "trade",
            [("t_dts", DataType::Ts), ("t_ca_id", DataType::I64), ("t_chrg", DataType::F64)],
        ));
        for i in 0..100i64 {
            trade.insert(Row::new(vec![
                Datum::Ts(Timestamp::from_secs(i)),
                Datum::I64(i % 10),
                Datum::F64(i as f64 * 0.5),
            ]));
        }
        trade.create_index("t_ca_id");
        e.register(trade);
        let account = MemTable::new(RelSchema::new(
            "account",
            [("ca_id", DataType::I64), ("ca_c_id", DataType::I64), ("ca_name", DataType::Str)],
        ));
        for i in 0..10i64 {
            account.insert(Row::new(vec![
                Datum::I64(i),
                Datum::I64(i / 5),
                Datum::str(format!("acct_{i}")),
            ]));
        }
        account.create_index("ca_id");
        e.register(account);
        let customer = MemTable::new(RelSchema::new(
            "customer",
            [("c_id", DataType::I64), ("c_dob", DataType::Ts)],
        ));
        for i in 0..2i64 {
            customer.insert(Row::new(vec![
                Datum::I64(i),
                Datum::Ts(Timestamp::parse_sql(&format!("19{}0-06-01 00:00:00", 6 + i)).unwrap()),
            ]));
        }
        customer.create_index("c_id");
        e.register(customer);
        e
    }

    #[test]
    fn tq1_point_query() {
        let e = engine();
        let r = e.query("select * from trade where t_ca_id = 3").unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.columns, vec!["t_dts", "t_ca_id", "t_chrg"]);
        assert!(r.rows.iter().all(|row| row.get(1) == &Datum::I64(3)));
    }

    #[test]
    fn tq2_time_slice() {
        let e = engine();
        let r = e
            .query(
                "select * from trade where t_dts between '1970-01-01 00:00:10' and '1970-01-01 00:00:20'",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 11);
    }

    #[test]
    fn tq3_two_way_join() {
        let e = engine();
        let r = e
            .query(
                "select t_dts, t_chrg from trade t, account a \
                 where a.ca_id = t.t_ca_id and a.ca_name = 'acct_4'",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.columns, vec!["t_dts", "t_chrg"]);
    }

    #[test]
    fn tq4_three_way_join() {
        let e = engine();
        let r = e
            .query(
                "select ca_name, t_dts, t_chrg from trade t, account a, customer c \
                 where a.ca_id = t.t_ca_id and a.ca_c_id = c.c_id \
                 and c_dob between '1960-01-01 00:00:00' and '1965-01-01 00:00:00'",
            )
            .unwrap();
        // Customer 0 (dob 1960-06-01) matches → accounts 0..5 → 50 trades.
        assert_eq!(r.rows.len(), 50);
        assert!(r.rows.iter().all(|row| {
            let name = row.get(0).as_str().unwrap();
            ["acct_0", "acct_1", "acct_2", "acct_3", "acct_4"].contains(&name)
        }));
    }

    #[test]
    fn aggregates_global() {
        let e = engine();
        let r =
            e.query("select COUNT(*), AVG(t_chrg), MIN(t_chrg), MAX(t_chrg) from trade").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), &Datum::I64(100));
        assert_eq!(r.rows[0].get(1).as_f64().unwrap(), 24.75);
        assert_eq!(r.rows[0].get(2), &Datum::F64(0.0));
        assert_eq!(r.rows[0].get(3), &Datum::F64(49.5));
    }

    #[test]
    fn aggregates_group_by() {
        let e = engine();
        let r = e
            .query("select t_ca_id, COUNT(*), SUM(t_chrg) from trade group by t_ca_id order by t_ca_id")
            .unwrap();
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.rows[0].get(0), &Datum::I64(0));
        assert_eq!(r.rows[0].get(1), &Datum::I64(10));
    }

    #[test]
    fn order_by_and_limit() {
        let e = engine();
        let r = e.query("select t_chrg from trade order by t_chrg desc limit 3").unwrap();
        let vals: Vec<f64> = r.rows.iter().map(|r| r.get(0).as_f64().unwrap()).collect();
        assert_eq!(vals, vec![49.5, 49.0, 48.5]);
    }

    #[test]
    fn empty_result_aggregates_to_one_row() {
        let e = engine();
        let r = e.query("select COUNT(*) from trade where t_ca_id = 999").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].get(0), &Datum::I64(0));
        let r = e.query("select * from trade where t_ca_id = 999").unwrap();
        assert!(r.rows.is_empty());
    }

    #[test]
    fn non_grouped_column_with_aggregate_rejected() {
        let e = engine();
        let err = e.query("select t_chrg, COUNT(*) from trade").unwrap_err();
        assert_eq!(err.kind(), "plan");
    }

    #[test]
    fn data_points_counts_non_null_cells() {
        let e = engine();
        let r = e.query("select t_dts, t_chrg from trade where t_ca_id = 1").unwrap();
        assert_eq!(r.data_points(), 20);
    }

    #[test]
    fn join_without_index_uses_hash_join() {
        let e = SqlEngine::new();
        let a = MemTable::new(RelSchema::new("ta", [("x", DataType::I64)]));
        let b = MemTable::new(RelSchema::new("tb", [("y", DataType::I64)]));
        for i in 0..50i64 {
            a.insert(Row::new(vec![Datum::I64(i)]));
            b.insert(Row::new(vec![Datum::I64(i * 2)]));
        }
        e.register(a);
        e.register(b);
        let r = e.query("select x from ta, tb where ta.x = tb.y").unwrap();
        assert_eq!(r.rows.len(), 25); // even x in 0..50
    }

    #[test]
    fn neq_predicate() {
        let e = engine();
        let r = e.query("select * from trade where t_ca_id <> 0").unwrap();
        assert_eq!(r.rows.len(), 90);
    }

    /// A MemTable wrapper with a native COUNT path, to observe when the
    /// executor takes the aggregate pushdown.
    struct NativeCount {
        inner: Arc<MemTable>,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl TableProvider for NativeCount {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn schema(&self) -> &RelSchema {
            self.inner.schema()
        }
        fn estimate_rows(&self, f: &[(usize, ColumnFilter)]) -> f64 {
            self.inner.estimate_rows(f)
        }
        fn estimate_cost(&self, r: &ScanRequest) -> f64 {
            self.inner.estimate_cost(r)
        }
        fn scan(&self, r: &ScanRequest) -> Result<Vec<Row>> {
            self.inner.scan(r)
        }
        fn aggregate_scan(
            &self,
            filters: &[(usize, ColumnFilter)],
            aggs: &[AggRequest],
        ) -> Option<Result<Vec<Datum>>> {
            if aggs.iter().any(|a| a.input.is_some() || a.func != AggFunc::Count) {
                return None;
            }
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let req = ScanRequest { filters: filters.to_vec(), needed: vec![] };
            Some(
                self.inner
                    .scan(&req)
                    .map(|rows| aggs.iter().map(|_| Datum::I64(rows.len() as i64)).collect()),
            )
        }
    }

    #[test]
    fn count_pushdown_used_only_when_where_fully_absorbed() {
        use std::sync::atomic::Ordering::Relaxed;
        let e = SqlEngine::new();
        let inner =
            MemTable::new(RelSchema::new("t", [("k", DataType::I64), ("v", DataType::F64)]));
        for i in 0..100i64 {
            inner.insert(Row::new(vec![Datum::I64(i % 10), Datum::F64(i as f64)]));
        }
        let native = Arc::new(NativeCount { inner, calls: std::sync::atomic::AtomicUsize::new(0) });
        e.register(native.clone());
        let r = e.query("select COUNT(*) from t where k = 3").unwrap();
        assert_eq!(r.rows[0].get(0), &Datum::I64(10));
        assert_eq!(r.columns, vec!["COUNT(*)"]);
        assert_eq!(native.calls.load(Relaxed), 1, "answered natively");
        // `<>` can't be expressed as a pushed filter, so its residual
        // blocks the pushdown — the row path must run.
        let r = e.query("select COUNT(*) from t where k <> 3").unwrap();
        assert_eq!(r.rows[0].get(0), &Datum::I64(90));
        assert_eq!(native.calls.load(Relaxed), 1, "fell back to the row path");
        // Range residuals are absorbed bound-exactly.
        let r = e.query("select COUNT(*) from t where k > 3 and k <= 7").unwrap();
        assert_eq!(r.rows[0].get(0), &Datum::I64(40));
        assert_eq!(native.calls.load(Relaxed), 2);
        // GROUP BY and declined functions (SUM here) use the row path,
        // and both agree with the pushdown-free engine.
        let r = e.query("select k, COUNT(*) from t group by k order by k").unwrap();
        assert_eq!(r.rows.len(), 10);
        let r = e.query("select SUM(v) from t where k = 3").unwrap();
        // v ∈ {3, 13, …, 93} where k == 3.
        assert_eq!(
            r.rows[0].get(0).as_f64().unwrap(),
            (0..10).map(|j| 3.0 + j as f64 * 10.0).sum::<f64>()
        );
        assert_eq!(native.calls.load(Relaxed), 2, "SUM declined natively");
    }

    /// Serializes tests that flip the process-wide vectorized toggle.
    static VEC_TOGGLE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn time_bucket_groups_rows() {
        let e = engine();
        // trade ts = i seconds → 10s buckets hold 10 rows each.
        let r = e
            .query(
                "select time_bucket(10000000, t_dts), COUNT(*), AVG(t_chrg) from trade \
                 group by time_bucket(10000000, t_dts)",
            )
            .unwrap();
        assert_eq!(r.columns[0], "time_bucket");
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.rows[0].get(0), &Datum::Ts(Timestamp(0)));
        assert_eq!(r.rows[0].get(1), &Datum::I64(10));
        // Bucket 0 holds charges 0.0..4.5 → avg 2.25.
        assert_eq!(r.rows[0].get(2).as_f64().unwrap(), 2.25);
        assert_eq!(r.rows[9].get(0), &Datum::Ts(Timestamp(90_000_000)));
    }

    #[test]
    fn last_aggregate_global_and_grouped() {
        let e = engine();
        let r = e.query("select LAST(t_chrg) from trade").unwrap();
        assert_eq!(r.rows[0].get(0), &Datum::F64(49.5), "newest row's charge");
        let r = e
            .query("select t_ca_id, LAST(t_chrg) from trade group by t_ca_id order by t_ca_id")
            .unwrap();
        assert_eq!(r.rows.len(), 10);
        // Group 0 holds rows 0,10,…,90; the newest (i=90) has charge 45.0.
        assert_eq!(r.rows[0].get(1), &Datum::F64(45.0));
        assert_eq!(r.rows[9].get(1), &Datum::F64(49.5));
    }

    #[test]
    fn gap_fill_and_interpolate() {
        let e = SqlEngine::new();
        let t = MemTable::new(RelSchema::new("m", [("ts", DataType::Ts), ("v", DataType::F64)]));
        t.insert(Row::new(vec![Datum::Ts(Timestamp(0)), Datum::F64(1.0)]));
        t.insert(Row::new(vec![Datum::Ts(Timestamp(30)), Datum::F64(7.0)]));
        e.register(t);
        let r = e
            .query(
                "select time_bucket_gapfill(10, ts), COUNT(v), interpolate(AVG(v)) from m \
                 group by time_bucket_gapfill(10, ts)",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 4, "buckets 0,10,20,30");
        assert_eq!(r.rows[1].get(0), &Datum::Ts(Timestamp(10)));
        assert_eq!(r.rows[1].get(1), &Datum::I64(0), "gap bucket COUNT is 0");
        assert_eq!(r.rows[1].get(2).as_f64().unwrap(), 3.0, "linear between 1 and 7");
        assert_eq!(r.rows[2].get(2).as_f64().unwrap(), 5.0);
        assert_eq!(r.rows[3].get(2).as_f64().unwrap(), 7.0);
    }

    #[test]
    fn asof_join_matches_latest_at_or_before() {
        let e = SqlEngine::new();
        let quotes = MemTable::new(RelSchema::new(
            "quotes",
            [("q_id", DataType::I64), ("q_ts", DataType::Ts), ("q_px", DataType::F64)],
        ));
        for (id, ts, px) in [(1, 10, 100.0), (1, 20, 101.0), (2, 15, 50.0)] {
            quotes.insert(Row::new(vec![Datum::I64(id), Datum::Ts(Timestamp(ts)), Datum::F64(px)]));
        }
        let trades = MemTable::new(RelSchema::new(
            "trades",
            [("tr_id", DataType::I64), ("tr_ts", DataType::Ts)],
        ));
        for (id, ts) in [(1, 12), (1, 25), (2, 14), (2, 15)] {
            trades.insert(Row::new(vec![Datum::I64(id), Datum::Ts(Timestamp(ts))]));
        }
        e.register(quotes);
        e.register(trades);
        let r = e
            .query(
                "select tr_ts, q_px from trades t asof join quotes q \
                 on q.q_id = t.tr_id and q.q_ts <= t.tr_ts",
            )
            .unwrap();
        let got: Vec<Option<f64>> = r.rows.iter().map(|row| row.get(1).as_f64()).collect();
        // (1,12)→100 at ts10; (1,25)→101 at ts20; (2,14)→no quote yet (NULL);
        // (2,15)→50 at ts15 (inclusive).
        assert_eq!(got, vec![Some(100.0), Some(101.0), None, Some(50.0)]);
        // Strict variant: (2,15) no longer matches the equal-ts quote.
        let r = e
            .query(
                "select tr_ts, q_px from trades t asof join quotes q \
                 on q.q_id = t.tr_id and q.q_ts < t.tr_ts",
            )
            .unwrap();
        let got: Vec<Option<f64>> = r.rows.iter().map(|row| row.get(1).as_f64()).collect();
        assert_eq!(got, vec![Some(100.0), Some(101.0), None, None]);
    }

    #[test]
    fn vectorized_and_row_paths_agree() {
        let _g = VEC_TOGGLE.lock().unwrap();
        let e = engine();
        let queries = [
            "select COUNT(*), SUM(t_chrg), MIN(t_chrg), MAX(t_chrg), AVG(t_chrg) from trade \
             where t_ca_id > 2 and t_chrg < 40.0",
            "select t_ca_id, COUNT(*), SUM(t_chrg) from trade group by t_ca_id order by t_ca_id",
            "select time_bucket(25000000, t_dts), COUNT(*) from trade \
             group by time_bucket(25000000, t_dts)",
            "select LAST(t_chrg) from trade where t_ca_id = 7",
        ];
        for q in queries {
            set_vectorized(true);
            let (vec_res, _, vec_prof) = e.query_profiled(q).unwrap();
            set_vectorized(false);
            let (row_res, _, row_prof) = e.query_profiled(q).unwrap();
            set_vectorized(true);
            assert!(vec_prof.used_vectorized, "vectorized path must engage for {q}");
            assert!(!row_prof.used_vectorized);
            assert_eq!(vec_res, row_res, "paths disagree on {q}");
        }
    }

    #[test]
    fn vectorized_profile_reports_batches_and_selectivity() {
        let _g = VEC_TOGGLE.lock().unwrap();
        set_vectorized(true);
        let e = engine();
        // `<>` can't be pushed down, so it runs as a selection-vector
        // kernel — the profile shows rows entering vs surviving it.
        let (_, _, prof) =
            e.query_profiled("select COUNT(*) from trade where t_ca_id <> 3").unwrap();
        assert!(prof.used_vectorized);
        assert_eq!(prof.vectorized_rows_in, 100);
        assert_eq!(prof.vectorized_rows_selected, 90);
        assert!(prof.vectorized_batches >= 1);
        let rendered = prof.render();
        assert!(rendered.contains("op=vectorized_agg trade"), "{rendered}");
        assert!(rendered.contains("rows_in=100 rows_selected=90"), "{rendered}");
    }

    #[test]
    fn filter_implication_is_bound_exact() {
        let lo_excl = ColumnFilter::Range { lo: Some((Datum::I64(5), false)), hi: None };
        assert!(filter_implies(&lo_excl, CmpOp::Gt, &Datum::I64(5)));
        assert!(filter_implies(&lo_excl, CmpOp::Ge, &Datum::I64(5)));
        assert!(!filter_implies(&lo_excl, CmpOp::Gt, &Datum::I64(6)));
        let lo_incl = ColumnFilter::Range { lo: Some((Datum::I64(5), true)), hi: None };
        assert!(!filter_implies(&lo_incl, CmpOp::Gt, &Datum::I64(5)), "d >= 5 allows d == 5");
        assert!(filter_implies(&lo_incl, CmpOp::Ge, &Datum::I64(5)));
        let eq = ColumnFilter::Eq(Datum::I64(5));
        assert!(filter_implies(&eq, CmpOp::Eq, &Datum::I64(5)));
        assert!(filter_implies(&eq, CmpOp::Le, &Datum::I64(7)));
        assert!(filter_implies(&eq, CmpOp::Neq, &Datum::I64(3)));
        assert!(!filter_implies(&eq, CmpOp::Neq, &Datum::I64(5)));
        let hi = ColumnFilter::Range { lo: None, hi: Some((Datum::I64(9), true)) };
        assert!(filter_implies(&hi, CmpOp::Le, &Datum::I64(9)));
        assert!(!filter_implies(&hi, CmpOp::Lt, &Datum::I64(9)));
        assert!(!filter_implies(&hi, CmpOp::Ge, &Datum::I64(0)), "no lower bound");
    }
}
