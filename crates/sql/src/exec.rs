//! Physical execution.
//!
//! Left-deep pipeline over the optimizer's join order: scan the first
//! table, then for each later table either index-nested-loop (when the
//! provider exposes an index on the join column) or hash-join (build on
//! the new table). Each step is compiled once against the rows it
//! receives and the provider rows it reads: residual predicates run on
//! the pair as soon as their bindings are bound, and only pairs that pass
//! build a row, holding just the cells later steps read — join keys still
//! to come, residuals not yet run, the aggregate's inputs and the output
//! (late materialization). A projection's last step emits output rows,
//! ORDER BY columns the output leaves out trailing; aggregates, ORDER BY
//! and LIMIT finish the pipeline.
//!
//! Single-table aggregate shapes take the *vectorized* path: the provider
//! hands back typed [`crate::column::ColumnBatch`]es, residual predicates
//! run as selection-vector kernels, and aggregates fold columns directly
//! with no per-row [`Row`] materialization. When the plan allows it
//! ([`ScanRequest::summaries`]), a batch may arrive as its seal-time
//! summary instead of its rows, and folds through the same kernels. A
//! `time_bucket` fold with no other key folds each run of same-bucket
//! rows into a dense slot indexed by bucket, sized from the batches'
//! time ranges, unless the range holds more buckets than rows. A
//! plan whose only aggregates are LAST marks its scan
//! ([`ScanRequest::latest`]) so the provider may leave out rows a newer
//! row of the same id outdoes; LAST folds batches newest-first with a
//! typed kernel, and a global LAST passes over every batch strictly older
//! than all of its states. The row pivot happens only at the final result
//! boundary. ASOF JOIN, multi-table joins and pure projections stay on
//! the row pipeline, which is also the reference the vectorized path is
//! tested against.

use crate::ast::{AggFunc, CmpOp};
use crate::column::{
    bit, count_valid, datum_bytes, filter_cmp, numeric_agg, CmpKernel, ColVec, ColumnBatch, NumAgg,
};
use crate::planner::{AsofSpec, ColRef, OutputItem, Plan, ROperand, RPred};
use crate::provider::{ColumnFilter, ScanRequest, SummaryGrain};
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
    /// Whether the vectorized columnar path executed the query.
    pub used_vectorized: bool,
    /// Column batches the vectorized path consumed.
    pub vectorized_batches: u64,
    /// Rows the vectorized path consumed (a summary batch counts the rows
    /// it stands for).
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

/// Run an optimized plan; `vectorized` enables the columnar path for the
/// shapes it handles (off: everything runs on the row pipeline).
pub fn execute(plan: &Plan, vectorized: bool) -> Result<QueryResult> {
    execute_profiled(plan, vectorized).map(|(r, _)| r)
}

/// Run an optimized plan, recording per-operator row/byte/time stats.
pub fn execute_profiled(plan: &Plan, vectorized: bool) -> Result<(QueryResult, ExecProfile)> {
    let total = std::time::Instant::now();
    let mut prof = ExecProfile::default();
    let result = run(plan, vectorized, &mut prof)?;
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

fn run(plan: &Plan, vectorized: bool, prof: &mut ExecProfile) -> Result<QueryResult> {
    let order = &plan.join_order;
    let first = order[0];

    // Vectorized columnar path: single-table aggregate shapes fold typed
    // column batches directly — no Row materialization until the result.
    if vectorized {
        if let Some(result) = try_vectorized(plan, prof)? {
            return Ok(result);
        }
    }

    // Each step builds its rows once, holding only what later steps read.
    let steps = compile_steps(plan);

    // Scan the first table.
    let scan_started = std::time::Instant::now();
    let scanned = plan.bindings[first].provider.scan(&scan_request(plan, first))?;
    let step = &steps[0];
    let mut current: Vec<Row> = if step.keeps_whole(plan.bindings[first].provider.schema().arity())
    {
        scanned.into_iter().filter(|r| step.holds(&[], Some(r))).collect()
    } else {
        scanned
            .iter()
            .filter(|r| step.holds(&[], Some(r)))
            .map(|r| step.build(&[], Some(r)))
            .collect()
    };
    prof.note(format!("scan {}", plan.bindings[first].provider.name()), &current, scan_started);

    // ASOF JOIN replaces the generic join loop: match each left row with
    // the latest right row at-or-before its timestamp (per partition).
    if let Some(spec) = plan.asof {
        let asof_started = std::time::Instant::now();
        current = asof_join(plan, spec, &steps[0].layout, &steps[1], current)?;
        prof.note(
            format!("asof_join {}", plan.bindings[1].provider.name()),
            &current,
            asof_started,
        );
        return finish(plan, prof, current, &steps[1].layout);
    }

    // Join the rest.
    for (i, &b) in order.iter().enumerate().skip(1) {
        let join_started = std::time::Instant::now();
        let provider = &plan.bindings[b].provider;
        let step = &steps[i];
        let mut join_op = "cartesian";
        let mut next: Vec<Row> = Vec::new();
        let mut emit = |row: &Row, m: &Row| {
            if step.holds(row.cells(), Some(m)) {
                next.push(step.build(row.cells(), Some(m)));
            }
        };
        match join_edge_into(plan, b, &order[..i]) {
            Some((col, other)) => {
                // Slot of the already-bound column this join matches.
                let key_slot = slot_of(&steps[i - 1].layout, other);
                let use_index = provider.probe_cost(col.column).is_some();
                join_op = if use_index { "index_join" } else { "hash_join" };
                if use_index {
                    for row in &current {
                        let key = row.get(key_slot);
                        if key.is_null() {
                            continue;
                        }
                        let matches = provider
                            .index_lookup(col.column, key, &plan.needed[b])
                            .transpose()?
                            .unwrap_or_default();
                        for m in matches.iter().filter(|m| filters_hold(plan, b, m)) {
                            emit(row, m);
                        }
                    }
                } else {
                    // Hash join: build on the new table.
                    let mut table: HashMap<Datum, Vec<Row>> = HashMap::new();
                    for r in provider.scan(&scan_request(plan, b))? {
                        let k = r.get(col.column).clone();
                        if !k.is_null() {
                            table.entry(k).or_default().push(r);
                        }
                    }
                    for row in &current {
                        for m in table.get(row.get(key_slot)).into_iter().flatten() {
                            emit(row, m);
                        }
                    }
                }
            }
            None => {
                // Cartesian product (no join edge).
                let rows_b = provider.scan(&scan_request(plan, b))?;
                for row in &current {
                    for m in &rows_b {
                        emit(row, m);
                    }
                }
            }
        }
        current = next;
        prof.note(format!("{join_op} {}", provider.name()), &current, join_started);
    }

    finish(plan, prof, current, &steps[order.len() - 1].layout)
}

/// Where a cell of the row a step builds comes from: a slot of the row
/// the step receives, or a column of the provider row it pairs with
/// (NULL when an ASOF row has no match).
#[derive(Clone, Copy, PartialEq)]
enum Cell {
    Left(usize),
    Right(usize),
}

/// A residual operand compiled against one step's two sides.
enum StepOperand {
    Cell(Cell),
    Lit(Datum),
}

/// One step of the row pipeline (the scan, a join, or the ASOF join),
/// compiled against the layout of the rows it receives and the schema
/// of the provider rows it reads: the residuals that become bound here,
/// evaluated on the pair before anything is built, and the cells of the
/// row it emits — only those a later step, the aggregate or the output
/// reads.
struct Step {
    preds: Vec<(StepOperand, CmpOp, StepOperand)>,
    /// Source of each cell of the emitted row, parallel to `layout`.
    emit: Vec<Cell>,
    /// The column each cell of the emitted row holds.
    layout: Vec<ColRef>,
}

static NULL: Datum = Datum::Null;

impl Step {
    fn value<'a>(c: Cell, left: &'a [Datum], right: Option<&'a Row>) -> &'a Datum {
        match c {
            Cell::Left(i) => &left[i],
            Cell::Right(i) => right.map_or(&NULL, |r| r.get(i)),
        }
    }

    fn operand<'a>(o: &'a StepOperand, left: &'a [Datum], right: Option<&'a Row>) -> &'a Datum {
        match o {
            StepOperand::Cell(c) => Self::value(*c, left, right),
            StepOperand::Lit(d) => d,
        }
    }

    /// Do this step's residuals hold on the pair?
    fn holds(&self, left: &[Datum], right: Option<&Row>) -> bool {
        self.preds.iter().all(|(l, op, r)| {
            let (l, r) = (Self::operand(l, left, right), Self::operand(r, left, right));
            cmp_holds(l.sql_cmp(r), *op)
        })
    }

    /// The row this step emits for the pair.
    fn build(&self, left: &[Datum], right: Option<&Row>) -> Row {
        Row::new(self.emit.iter().map(|&c| Self::value(c, left, right).clone()).collect())
    }

    /// Does the step emit every provider row unchanged (a first step that
    /// keeps all `arity` columns in schema order)?
    fn keeps_whole(&self, arity: usize) -> bool {
        self.emit.len() == arity && self.emit.iter().enumerate().all(|(i, &c)| c == Cell::Right(i))
    }
}

/// Slot of `col` in a step's row layout.
fn slot_of(layout: &[ColRef], col: ColRef) -> usize {
    layout.iter().position(|&c| c == col).expect("the layout holds every column read later")
}

/// The columns the pipeline's tail reads from the last step's rows. A
/// projection's come first, in output order, followed by any further
/// ORDER BY columns, so its last step emits output rows.
fn tail_columns(plan: &Plan) -> Vec<ColRef> {
    let mut cols = Vec::new();
    if has_aggregate(plan) {
        cols.extend(plan.bucket.map(|b| b.col));
        cols.extend(&plan.group_by);
        for o in &plan.output {
            if let OutputItem::Agg { func, input, .. } = o {
                cols.extend(input);
                if *func == AggFunc::Last {
                    let (ts, id) = last_key_cols(plan, input.map_or(0, |c| c.binding));
                    cols.extend(ts.into_iter().chain(id));
                }
            }
        }
        dedup_in_order(&mut cols);
    } else {
        for o in &plan.output {
            if let OutputItem::Col { col, .. } = o {
                cols.push(*col);
            }
        }
        for (c, _) in &plan.order_by {
            if !cols.contains(c) {
                cols.push(*c);
            }
        }
    }
    cols
}

fn dedup_in_order(cols: &mut Vec<ColRef>) {
    let mut seen = Vec::with_capacity(cols.len());
    cols.retain(|c| {
        let fresh = !seen.contains(c);
        seen.push(*c);
        fresh
    });
}

fn has_aggregate(plan: &Plan) -> bool {
    plan.bucket.is_some() || plan.output.iter().any(|o| matches!(o, OutputItem::Agg { .. }))
}

fn pred_cols(p: &RPred) -> impl Iterator<Item = ColRef> + '_ {
    [&p.left, &p.right].into_iter().filter_map(|o| match o {
        ROperand::Col(c) => Some(*c),
        ROperand::Lit(_) => None,
    })
}

/// Compile the row pipeline, one [`Step`] per entry of the join order.
/// A residual runs at the first step that binds all its columns. Step
/// `k` emits, of the columns bound so far, those read later: residuals
/// of later steps, the bound-side keys of later joins (the ASOF keys
/// included), and the tail's columns; the last step emits exactly the
/// tail's.
fn compile_steps(plan: &Plan) -> Vec<Step> {
    let order = &plan.join_order;
    let at_step = |p: &RPred| -> usize {
        pred_cols(p)
            .map(|c| order.iter().position(|&b| b == c.binding).unwrap_or(0))
            .max()
            .unwrap_or(0)
    };
    // Columns read after step `k`, before restricting to what is bound.
    let later = |k: usize| -> Vec<ColRef> {
        let mut cols = tail_columns(plan);
        if k + 1 == order.len() {
            return cols;
        }
        for p in plan.residual.iter().filter(|p| at_step(p) > k) {
            cols.extend(pred_cols(p));
        }
        for (j, &b) in order.iter().enumerate().skip(k + 1) {
            cols.extend(join_edge_into(plan, b, &order[..j]).map(|(_, other)| other));
        }
        if let Some(spec) = plan.asof {
            cols.push(spec.left_ts);
            cols.extend(spec.eq.map(|(l, _)| l));
        }
        let bound = &order[..=k];
        cols.retain(|c| bound.contains(&c.binding));
        dedup_in_order(&mut cols);
        cols
    };
    let mut steps: Vec<Step> = Vec::with_capacity(order.len());
    for (k, &b) in order.iter().enumerate() {
        let left: &[ColRef] = steps.last().map_or(&[], |s| &s.layout);
        let cell = |c: ColRef| {
            if c.binding == b {
                Cell::Right(c.column)
            } else {
                Cell::Left(slot_of(left, c))
            }
        };
        let operand = |o: &ROperand| match o {
            ROperand::Col(c) => StepOperand::Cell(cell(*c)),
            ROperand::Lit(d) => StepOperand::Lit(d.clone()),
        };
        let preds = plan
            .residual
            .iter()
            .filter(|p| at_step(p) == k)
            .map(|p| (operand(&p.left), p.op, operand(&p.right)))
            .collect();
        let layout = later(k);
        let emit = layout.iter().map(|&c| cell(c)).collect();
        steps.push(Step { preds, emit, layout });
    }
    steps
}

/// The scan request for binding `b`: its pushed filters and needed
/// columns, rows only.
pub(crate) fn scan_request(plan: &Plan, b: usize) -> ScanRequest {
    ScanRequest {
        filters: plan.pushdown[b].clone(),
        needed: plan.needed[b].clone(),
        summaries: None,
        latest: false,
    }
}

/// Shared pipeline tail: aggregate or sort, then LIMIT. `layout` is the
/// last step's row layout; a projection's rows already hold their
/// outputs first, so it only drops trailing ORDER BY cells.
fn finish(
    plan: &Plan,
    prof: &mut ExecProfile,
    mut current: Vec<Row>,
    layout: &[ColRef],
) -> Result<QueryResult> {
    let mut columns = output_columns(plan);
    let mut rows: Vec<Row>;
    let finish_started = std::time::Instant::now();
    if has_aggregate(plan) {
        let groups = accumulate_rows(plan, &current, &|c| slot_of(layout, c))?;
        rows = finalize_groups(plan, groups)?;
        rows = order_aggregate_output(plan, rows)?;
        prof.note("aggregate", &rows, finish_started);
    } else {
        if !plan.order_by.is_empty() {
            let keys: Vec<(usize, bool)> =
                plan.order_by.iter().map(|(c, desc)| (slot_of(layout, *c), *desc)).collect();
            current.sort_by(|a, b| compare_rows(a, b, &keys));
        }
        let width = plan.output.len();
        if layout.len() > width {
            for r in &mut current {
                let mut cells = std::mem::replace(r, Row::empty()).into_cells();
                cells.truncate(width);
                *r = Row::new(cells);
            }
        }
        rows = current;
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

/// The grain at which stored summaries may stand in for rows, when the
/// plan's shape allows it: one table, no ASOF and no GROUP BY column,
/// outputs only the bucket and mergeable aggregates (not LAST, which
/// needs the newest row) over `COUNT(*)` or F64 columns, and every
/// residual implied by a pushed filter — a summary leaves no rows to
/// re-check. Whether a batch is summarized is the provider's decision.
fn summary_grain(plan: &Plan) -> Option<SummaryGrain> {
    if plan.bindings.len() != 1 || !plan.group_by.is_empty() || plan.asof.is_some() {
        return None;
    }
    let schema = plan.bindings[0].provider.schema();
    let mergeable = plan.output.iter().all(|o| match o {
        OutputItem::Bucket { .. } => true,
        OutputItem::Agg { func: AggFunc::Last, .. } | OutputItem::Col { .. } => false,
        OutputItem::Agg { input, .. } => {
            input.is_none_or(|c| schema.columns[c.column].dtype == DataType::F64)
        }
    });
    if !mergeable || !plan.residual.iter().all(|p| residual_absorbed(plan, p)) {
        return None;
    }
    Some(match plan.bucket {
        Some(b) => SummaryGrain::Bucket { column: b.col.column, width: b.interval_us },
        None => SummaryGrain::Whole,
    })
}

/// Whether the scan may carry [`ScanRequest::latest`]: one table, no ASOF
/// or time bucket, only LAST aggregates, grouped by nothing or by the id
/// column LAST orders by, and every residual implied by a pushed filter
/// (the rule of [`summary_grain`]) — a row the provider leaves out could
/// then have won no LAST.
fn latest_only(plan: &Plan) -> bool {
    if plan.bindings.len() != 1 || plan.asof.is_some() || plan.bucket.is_some() {
        return false;
    }
    let id = last_key_cols(plan, 0).1;
    let by_id = plan.group_by.iter().all(|g| Some(*g) == id);
    let only_last = plan.output.iter().any(|o| matches!(o, OutputItem::Agg { .. }))
        && plan.output.iter().all(|o| {
            matches!(o, OutputItem::Agg { func: AggFunc::Last, .. } | OutputItem::Col { .. })
        });
    by_id && only_last && plan.residual.iter().all(|p| residual_absorbed(plan, p))
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

/// The join edge that connects binding `b` to the bound `prefix`:
/// `(b's column, the bound column it matches)`.
fn join_edge_into(plan: &Plan, b: usize, prefix: &[usize]) -> Option<(ColRef, ColRef)> {
    plan.joins.iter().find_map(|j| {
        if j.left.binding == b && prefix.contains(&j.right.binding) {
            Some((j.left, j.right))
        } else if j.right.binding == b && prefix.contains(&j.left.binding) {
            Some((j.right, j.left))
        } else {
            None
        }
    })
}

/// Re-apply this binding's pushdown filters (providers may over-return).
fn filters_hold(plan: &Plan, b: usize, row: &Row) -> bool {
    plan.pushdown[b].iter().all(|(c, f)| f.matches(row.get(*c)))
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

/// One aggregate output, with its columns resolved to slots of what is
/// folded: the last row-pipeline step's layout, or a single binding's
/// column indices on the vectorized path.
struct AggSpec {
    func: AggFunc,
    /// Input column offset (`None` for `COUNT(*)`).
    input: Option<usize>,
    /// For LAST: offsets of the `(ts column, id column)` ordering key of
    /// the input's binding (either may be missing).
    last_at: Option<(Option<usize>, Option<usize>)>,
}

/// The plan's aggregates, with each column resolved by `pos` to its
/// slot in the rows or batches being folded.
fn agg_specs(plan: &Plan, pos: &dyn Fn(ColRef) -> usize) -> Vec<AggSpec> {
    plan.output
        .iter()
        .filter_map(|o| match o {
            OutputItem::Agg { func, input, .. } => {
                let binding = input.map(|c| c.binding).unwrap_or(0);
                let last_at = matches!(func, AggFunc::Last).then(|| {
                    let (ts, id) = last_key_cols(plan, binding);
                    (ts.map(pos), id.map(pos))
                });
                Some(AggSpec { func: *func, input: input.map(pos), last_at })
            }
            OutputItem::Col { .. } | OutputItem::Bucket { .. } => None,
        })
        .collect()
}

/// The `(ts, id)` LAST-ordering key columns of one binding: its first
/// Ts-typed column and its leading I64 id column (the VTI layout:
/// `[id, timestamp, tags...]`).
fn last_key_cols(plan: &Plan, binding: usize) -> (Option<ColRef>, Option<ColRef>) {
    let schema = plan.bindings[binding].provider.schema();
    let ts = schema
        .columns
        .iter()
        .position(|c| c.dtype == DataType::Ts)
        .map(|column| ColRef { binding, column });
    let id = (schema.columns.first().map(|c| c.dtype) == Some(DataType::I64))
        .then_some(ColRef { binding, column: 0 });
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

/// An integer time key (bucket start, timestamp bound) as a datum of
/// its column's type.
fn typed_i64(v: i64, dtype: DataType) -> Datum {
    if dtype == DataType::Ts {
        Datum::Ts(Timestamp(v))
    } else {
        Datum::I64(v)
    }
}

/// Bucket a row cell: floor its value to the interval, keeping the
/// column's type. NULL timestamps land in a NULL bucket.
fn bucket_datum_of(d: &Datum, interval_us: i64, dtype: DataType) -> Datum {
    match row_key_i64(d) {
        Some(v) => typed_i64(v.div_euclid(interval_us) * interval_us, dtype),
        None => Datum::Null,
    }
}

/// Row-path accumulation: fold rows, whose columns `pos` locates, into
/// per-group aggregate states. Group-key layout: `[bucket_start?] ++
/// group_by datums`.
fn accumulate_rows(plan: &Plan, rows: &[Row], pos: &dyn Fn(ColRef) -> usize) -> Result<Groups> {
    let group_offsets: Vec<usize> = plan.group_by.iter().map(|c| pos(*c)).collect();
    let bucket = plan.bucket.map(|b| {
        let dtype = plan.bindings[b.col.binding].provider.schema().columns[b.col.column].dtype;
        (pos(b.col), b.interval_us, dtype)
    });
    let specs = agg_specs(plan, pos);
    let mut groups: Groups = HashMap::new();
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
fn finalize_groups(plan: &Plan, groups: Groups) -> Result<Vec<Row>> {
    let key_base = usize::from(plan.bucket.is_some());
    let mut groups: Vec<(Vec<Datum>, Vec<AggState>)> = groups.into_iter().collect();
    groups.sort_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.sql_cmp(y).unwrap_or(Ordering::Equal))
            .find(|&ord| ord != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    let mut out = Vec::with_capacity(groups.len());
    for (key, states) in &groups {
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
                cells[bucket_pos] = typed_i64(k, dtype);
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

/// A row's ASOF `(partition key, timestamp)`, `None` when either is NULL
/// (such a row matches nothing). Without an equality the key is a
/// single-partition sentinel.
fn asof_key(row: &Row, ts_off: usize, eq_off: Option<usize>) -> Option<(Datum, i64)> {
    let ts = row_key_i64(row.get(ts_off))?;
    let key = match eq_off {
        Some(off) => row.get(off).clone(),
        None => return Some((Datum::Null, ts)),
    };
    (!key.is_null()).then_some((key, ts))
}

/// The right-side scan request of an ASOF join: the right side's
/// projection plus the filters its left rows imply. A right row can be a
/// left row's match only if its partition key occurs on the left and its
/// timestamp is at or before the latest left timestamp, so `key` (the
/// one partition key every left row shares) gives `eq = key` and `max_ts`
/// gives `ts <= max_ts`, inclusive, which covers strict joins too.
///
/// Unlike user-written right-side filters, these drop only rows no left
/// row can match, so they never change which row is a left row's latest
/// at-or-before one.
pub(crate) fn asof_right_request(
    plan: &Plan,
    spec: AsofSpec,
    key: Option<Datum>,
    max_ts: Option<i64>,
) -> ScanRequest {
    let mut req = scan_request(plan, 1);
    if let (Some((_, r_eq)), Some(k)) = (spec.eq, key) {
        req.filters.push((r_eq.column, ColumnFilter::Eq(k)));
    }
    if let Some(ts) = max_ts {
        let dtype = plan.bindings[1].provider.schema().columns[spec.right_ts.column].dtype;
        let hi = Some((typed_i64(ts, dtype), true));
        req.filters.push((spec.right_ts.column, ColumnFilter::Range { lo: None, hi }));
    }
    req
}

/// The left rows' shared partition key and latest timestamp, from their
/// ASOF keys (`probes`); `None` when no left row can match. The key is
/// `None` unless one key covers every usable left row: several keys, no
/// equality, or a NaN key (it matches its partition but no `Eq` filter)
/// leave only the time bound.
fn asof_left_bounds(probes: &[Option<(Datum, i64)>]) -> Option<(Option<Datum>, i64)> {
    let mut live = probes.iter().flatten();
    let (first, mut max_ts) = live.next()?;
    let mut shared = first.sql_eq(first);
    for (k, ts) in live {
        max_ts = max_ts.max(*ts);
        shared &= k == first;
    }
    Some((shared.then(|| first.clone()), max_ts))
}

/// ASOF JOIN: pair each left (binding 0) row, laid out as `left`, with
/// the latest right (binding 1) row whose `right_ts` is at-or-before
/// (`<` when strict) the left row's `left_ts`, within the optional
/// equality partition, and emit through `step`. Unmatched left rows
/// pair with NULL right cells. The right side is scanned once, through
/// [`asof_right_request`].
fn asof_join(
    plan: &Plan,
    spec: AsofSpec,
    left: &[ColRef],
    step: &Step,
    current: Vec<Row>,
) -> Result<Vec<Row>> {
    let l_eq_off = spec.eq.map(|(l, _)| slot_of(left, l));
    let l_ts_off = slot_of(left, spec.left_ts);
    let probes: Vec<_> = current.iter().map(|r| asof_key(r, l_ts_off, l_eq_off)).collect();
    // A provider's superset rows land in partitions or times no left row
    // probes, so they need no filtering here.
    let right_rows = match asof_left_bounds(&probes) {
        Some((key, max_ts)) => {
            plan.bindings[1].provider.scan(&asof_right_request(plan, spec, key, Some(max_ts)))?
        }
        None => Vec::new(),
    };
    let r_eq_col = spec.eq.map(|(_, r)| r.column);
    // Partition → (ts, arrival index), sorted so ties at equal ts resolve
    // to the later-scanned row. A filtered scan lists the rows it shares
    // with an unfiltered one in the same order, so it picks the same
    // winner.
    let mut parts: HashMap<Datum, Vec<(i64, usize)>> = HashMap::new();
    for (idx, r) in right_rows.iter().enumerate() {
        if let Some((key, ts)) = asof_key(r, spec.right_ts.column, r_eq_col) {
            parts.entry(key).or_default().push((ts, idx));
        }
    }
    for v in parts.values_mut() {
        v.sort_unstable();
    }
    let mut out = Vec::with_capacity(current.len());
    for (row, probe) in current.iter().zip(probes) {
        let matched = probe.and_then(|(key, lts)| {
            let part = parts.get(&key)?;
            let cut =
                part.partition_point(|&(ts, _)| if spec.strict { ts < lts } else { ts <= lts });
            cut.checked_sub(1).map(|i| &right_rows[part[i].1])
        });
        if step.holds(row.cells(), matched) {
            out.push(step.build(row.cells(), matched));
        }
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
/// column references are plain column indices).
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

/// LAST over the selected rows of an F64 or cache-shared column: the
/// row with the greatest `(ts, id)` key that holds a value, ties going to
/// the later row, as [`AggState::observe`] orders them — compared as
/// integers, with one datum built for the winner if it beats the state.
/// Other column kinds go through [`fold_datums`].
fn fold_last(st: &mut AggState, spec: &AggSpec, batch: &ColumnBatch, sel: &[u32]) {
    let c = spec.input.expect("LAST has an input column");
    let (ts_c, id_c) = spec.last_at.expect("LAST carries its ordering key");
    let col = &batch.cols[c];
    let best = |valid: &dyn Fn(usize) -> bool| {
        let mut best: Option<((i64, i64), usize)> = None;
        for &i in sel {
            let i = i as usize;
            if valid(i) {
                let at = batch_last_key(batch, ts_c, id_c, i);
                if best.is_none_or(|(b, _)| at >= b) {
                    best = Some((at, i));
                }
            }
        }
        best
    };
    let best = match col {
        ColVec::Shared { data, start } => best(&|i| data[start + i].is_some()),
        ColVec::F64 { validity, .. } => best(&|i| bit(validity, i)),
        _ => return fold_datums(st, spec, batch, sel),
    };
    if let Some(((ts, id), i)) = best {
        if st.last.as_ref().is_none_or(|(lts, lid, _)| (ts, id) >= (*lts, *lid)) {
            st.last = Some((ts, id, col.datum(i, batch.dtypes[c])));
        }
    }
}

/// Is every LAST state strictly newer than anything `batch` holds? A
/// batch ending at or after a state's timestamp may still tie it with a
/// greater id, so only a strictly older batch is settled.
fn settled_by(states: &[AggState], batch: &ColumnBatch) -> bool {
    batch.ts_range.is_some_and(|(_, hi)| {
        states.iter().all(|st| st.last.as_ref().is_some_and(|(ts, _, _)| *ts > hi))
    })
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
            AggFunc::Sum | AggFunc::Avg => match numeric_agg(col, sel, NumAgg::after(st.sum)) {
                Some(n) => {
                    st.count += n.count.max(0) as u64;
                    st.sum = n.sum;
                }
                None => fold_datums(st, spec, batch, sel),
            },
            // MIN/MAX keep the column's datum type, so the f64 kernel only
            // applies where the row path would also produce F64 datums.
            AggFunc::Min | AggFunc::Max
                if dtype == DataType::F64 || matches!(col, ColVec::Shared { .. }) =>
            {
                match numeric_agg(col, sel, NumAgg::after(st.sum)) {
                    Some(n) if n.count > 0 => {
                        st.count += n.count as u64;
                        st.sum = n.sum;
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
            AggFunc::Last => fold_last(st, spec, batch, sel),
            _ => fold_datums(st, spec, batch, sel),
        }
    }
}

/// Per-group aggregate states of a grouped fold, by group key.
type Groups = HashMap<Vec<Datum>, Vec<AggState>>;

/// Dense aggregate states for a `time_bucket` fold with no other key:
/// slot `i` holds the states of the bucket starting at `first + i·width`,
/// so a run of same-bucket rows folds into an index instead of a key
/// build and a map probe.
struct DenseBuckets {
    first: i64,
    width: i64,
    /// Aggregates per slot.
    per: usize,
    states: Vec<AggState>,
    seen: Vec<bool>,
}

impl DenseBuckets {
    /// Slots for every bucket the batches' time ranges span, or `None`
    /// when a batch with rows has no time range or the range holds more
    /// buckets than the batches hold rows (a sparse range folds into a
    /// map).
    fn new(batches: &[ColumnBatch], width: i64, per: usize) -> Option<DenseBuckets> {
        let (mut lo, mut hi, mut rows) = (i64::MAX, i64::MIN, 0u64);
        for b in batches.iter().filter(|b| b.len > 0) {
            let (l, h) = b.ts_range?;
            (lo, hi, rows) = (lo.min(l), hi.max(h), rows + b.len as u64);
        }
        if rows == 0 {
            return None;
        }
        let (lo_k, hi_k) = (lo.div_euclid(width), hi.div_euclid(width));
        let n = u64::try_from(hi_k.checked_sub(lo_k)?).ok()?.checked_add(1)?;
        if n > rows {
            return None;
        }
        let n = n as usize;
        Some(DenseBuckets {
            first: lo_k.checked_mul(width)?,
            width,
            per,
            states: (0..n * per).map(|_| AggState::new()).collect(),
            seen: vec![false; n],
        })
    }

    /// The states of the bucket starting at `start`, if inside the range.
    fn slot(&mut self, start: i64) -> Option<&mut [AggState]> {
        let i = usize::try_from(start.checked_sub(self.first)? / self.width).ok()?;
        *self.seen.get_mut(i)? = true;
        Some(&mut self.states[i * self.per..(i + 1) * self.per])
    }

    /// Move every bucket a run reached into `groups`, keyed as the map
    /// fold keys it.
    fn drain_into(self, groups: &mut Groups, dtype: DataType) {
        let mut states = self.states.into_iter();
        for (i, seen) in self.seen.into_iter().enumerate() {
            let slot: Vec<AggState> = states.by_ref().take(self.per).collect();
            if seen {
                let start = self.first + i as i64 * self.width;
                groups.insert(vec![typed_i64(start, dtype)], slot);
            }
        }
    }
}

/// Vectorized grouped accumulation (bucket and/or GROUP BY keys) over the
/// selected rows of one batch. The selection splits into runs of rows
/// with equal keys, compared in place (the bucket as an `i64`), and each
/// run folds through [`update_global`]: into its `dense` slot when there
/// is one, otherwise into `groups`, with a key built where the run
/// starts. A summary batch is a single run, bucketed by its time range.
fn accumulate_selected(
    groups: &mut Groups,
    mut dense: Option<&mut DenseBuckets>,
    specs: &[AggSpec],
    batch: &ColumnBatch,
    sel: &[u32],
    bucket: Option<(usize, i64, DataType)>,
    group_cols: &[usize],
) {
    // Bucket start of row `i`; `None` for a NULL timestamp (or no bucket).
    let bucket_at = |i: usize| -> Option<i64> {
        let (c, interval, _) = bucket?;
        let v =
            if batch.summary { batch.ts_range.map(|(lo, _)| lo) } else { batch.cols[c].i64_at(i) };
        v.map(|v| v.div_euclid(interval) * interval)
    };
    let mut start = 0;
    while start < sel.len() {
        let first = sel[start] as usize;
        let b = bucket_at(first);
        // The run's bucket as a range, so its rows cost a compare, not a
        // division (an edge that saturates only splits a run).
        let in_bucket = |i: usize| match (bucket, b) {
            (Some((c, interval, _)), Some(lo)) => {
                batch.cols[c].i64_at(i).is_some_and(|v| v >= lo && v < lo.saturating_add(interval))
            }
            (Some((c, ..)), None) => batch.cols[c].i64_at(i).is_none(),
            (None, _) => true,
        };
        let mut end = if batch.summary { sel.len() } else { start + 1 };
        while end < sel.len() {
            let i = sel[end] as usize;
            if !in_bucket(i) || !group_cols.iter().all(|&g| batch.cols[g].same(first, i)) {
                break;
            }
            end += 1;
        }
        let run = &sel[start..end];
        start = end;
        if let Some(states) = dense.as_deref_mut().zip(b).and_then(|(d, b)| d.slot(b)) {
            update_global(states, specs, batch, run);
            continue;
        }
        let mut key = Vec::with_capacity(group_cols.len() + usize::from(bucket.is_some()));
        if let Some((.., dtype)) = bucket {
            key.push(b.map_or(Datum::Null, |lo| typed_i64(lo, dtype)));
        }
        key.extend(group_cols.iter().map(|&g| batch.cols[g].datum(first, batch.dtypes[g])));
        let states =
            groups.entry(key).or_insert_with(|| specs.iter().map(|_| AggState::new()).collect());
        update_global(states, specs, batch, run);
    }
}

/// Attempt the vectorized columnar path. `Ok(None)` when the plan shape
/// doesn't qualify or the provider has no columnar scan.
fn try_vectorized(plan: &Plan, prof: &mut ExecProfile) -> Result<Option<QueryResult>> {
    if plan.bindings.len() != 1 || plan.asof.is_some() {
        return Ok(None);
    }
    if !has_aggregate(plan) {
        return Ok(None); // pure projections stay on the row path
    }
    let provider = &plan.bindings[0].provider;
    let started = std::time::Instant::now();
    let req = ScanRequest {
        summaries: summary_grain(plan),
        latest: latest_only(plan),
        ..scan_request(plan, 0)
    };
    let Some(scan) = provider.scan_columnar(&req).transpose()? else {
        return Ok(None);
    };
    let schema = provider.schema();
    let specs = agg_specs(plan, &|c| c.column);
    let bucket =
        plan.bucket.map(|b| (b.col.column, b.interval_us, schema.columns[b.col.column].dtype));
    let group_cols: Vec<usize> = plan.group_by.iter().map(|c| c.column).collect();
    let global = bucket.is_none() && group_cols.is_empty();
    let any_last = specs.iter().any(|s| s.last_at.is_some());
    let all_last = !specs.is_empty() && specs.iter().all(|s| s.last_at.is_some());

    let mut batches = scan.batches;
    // LAST wants newest batches first: the global short-circuit below can
    // then pass over every batch older than all of its states.
    if any_last && batches.iter().all(|b| b.ts_range.is_some()) {
        batches.sort_by_key(|b| std::cmp::Reverse(b.ts_range.map(|(_, hi)| hi)));
    }

    // A bucket-only fold of mergeable aggregates over the timestamp
    // column folds into dense slots when the batches' time ranges allow.
    let mergeable = specs.iter().all(|s| {
        s.func != AggFunc::Last && s.input.is_none_or(|c| schema.columns[c].dtype == DataType::F64)
    });
    let on_ts = bucket.is_some_and(|(c, ..)| last_key_cols(plan, 0).0.map(|t| t.column) == Some(c));
    let mut dense = bucket
        .filter(|_| group_cols.is_empty() && mergeable && on_ts)
        .and_then(|(_, width, _)| DenseBuckets::new(&batches, width, specs.len()));

    let mut groups: Groups = HashMap::new();
    let mut global_states: Vec<AggState> = specs.iter().map(|_| AggState::new()).collect();
    let (mut n_batches, mut rows_in, mut rows_sel) = (0u64, 0u64, 0u64);
    let mut sel: Vec<u32> = Vec::new(); // the selection vector, reused per batch
    for batch in &batches {
        if global && all_last && settled_by(&global_states, batch) {
            continue; // every LAST is already newer than anything here
        }
        n_batches += 1;
        rows_in += batch.len as u64;
        sel.clear();
        sel.extend(0..batch.len as u32);
        // A summary batch needs no re-check: summaries are requested only
        // when the pushed filters imply every residual, and stand only
        // for batches inside the filters' exact range.
        for p in plan.residual.iter().filter(|_| !batch.summary) {
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
            accumulate_selected(
                &mut groups,
                dense.as_mut(),
                &specs,
                batch,
                &sel,
                bucket,
                &group_cols,
            );
        }
    }
    if global {
        groups.insert(Vec::new(), global_states);
    }
    if let (Some(d), Some((.., dtype))) = (dense, bucket) {
        d.drain_into(&mut groups, dtype);
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

    /// A MemTable that answers with summary batches whenever the executor
    /// allows them: one per grain bucket of its matching rows, folding
    /// every F64 column (its filters are exact, so any batch qualifies).
    /// Records the grain of each columnar request.
    struct Summarizing {
        inner: Arc<MemTable>,
        grains: std::sync::Mutex<Vec<Option<SummaryGrain>>>,
    }

    impl TableProvider for Summarizing {
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
        fn scan_columnar(&self, r: &ScanRequest) -> Option<Result<crate::ColumnarScan>> {
            self.grains.lock().unwrap().push(r.summaries);
            let Some(grain) = r.summaries else { return self.inner.scan_columnar(r) };
            let (ts_col, width) = match grain {
                SummaryGrain::Whole => (1, i64::MAX),
                SummaryGrain::Bucket { column, width } => (column, width),
            };
            let mut buckets: std::collections::BTreeMap<i64, Vec<Row>> = Default::default();
            for row in self.inner.scan(r).unwrap() {
                let t = row_key_i64(row.get(ts_col)).unwrap();
                buckets.entry(t.div_euclid(width)).or_default().push(row);
            }
            let dtypes: Arc<[DataType]> = self.schema().columns.iter().map(|c| c.dtype).collect();
            let batches = buckets
                .into_values()
                .map(|rows| {
                    let ts: Vec<i64> =
                        rows.iter().map(|row| row_key_i64(row.get(ts_col)).unwrap()).collect();
                    let cols = (0..dtypes.len())
                        .map(|c| {
                            if dtypes[c] != DataType::F64 {
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
                    ColumnBatch {
                        len: rows.len(),
                        dtypes: dtypes.clone(),
                        cols,
                        ts_range: Some((ts[0], *ts.iter().max().unwrap())),
                        summary: true,
                    }
                })
                .collect();
            Some(Ok(crate::ColumnarScan { batches }))
        }
    }

    #[test]
    fn summaries_requested_only_when_where_fully_absorbed() {
        let e = SqlEngine::new();
        let row_engine = SqlEngine::new();
        row_engine.set_vectorized(false);
        let schema =
            RelSchema::new("t", [("k", DataType::I64), ("ts", DataType::Ts), ("v", DataType::F64)]);
        let inner = MemTable::new(schema.clone());
        let plain = MemTable::new(schema);
        for i in 0..100i64 {
            let v = if i % 7 == 0 { Datum::Null } else { Datum::F64(i as f64 * 0.5) };
            let row = Row::new(vec![Datum::I64(i % 10), Datum::Ts(Timestamp(i * 1_000)), v]);
            inner.insert(row.clone());
            plain.insert(row);
        }
        let native = Arc::new(Summarizing { inner, grains: Default::default() });
        e.register(native.clone());
        row_engine.register(plain);
        let bucket = SummaryGrain::Bucket { column: 1, width: 16_000 };
        for (q, grain) in [
            ("select COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) from t where k = 3", {
                Some(SummaryGrain::Whole)
            }),
            // Range residuals are absorbed bound-exactly.
            ("select COUNT(*), SUM(v) from t where k > 3 and k <= 7", Some(SummaryGrain::Whole)),
            (
                "select time_bucket(16000, ts), COUNT(*), AVG(v) from t \
                 group by time_bucket(16000, ts)",
                Some(bucket),
            ),
            (
                "select time_bucket_gapfill(16000, ts), MAX(v) from t where k = 1 \
                 group by time_bucket_gapfill(16000, ts)",
                Some(bucket),
            ),
            // `<>` cannot be pushed, so its residual must run on rows.
            ("select COUNT(*) from t where k <> 3", None),
            // GROUP BY columns, LAST and non-F64 inputs need rows too.
            ("select k, COUNT(*) from t group by k", None),
            ("select LAST(v) from t", None),
            ("select MIN(k) from t", None),
        ] {
            native.grains.lock().unwrap().clear();
            let got = e.query(q).unwrap();
            assert_eq!(*native.grains.lock().unwrap(), vec![grain], "{q}");
            let want = row_engine.query(q).unwrap();
            assert_eq!(got.columns, want.columns, "{q}");
            assert_eq!(got.rows.len(), want.rows.len(), "{q}");
            for (g, w) in got.rows.iter().zip(&want.rows) {
                for (x, y) in g.cells().iter().zip(w.cells()) {
                    match (x.as_f64(), y.as_f64()) {
                        (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9, "{q}: {g:?} {w:?}"),
                        _ => assert_eq!(x, y, "{q}"),
                    }
                }
            }
        }
    }

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

    /// A MemTable that records every row scan's request. With `superset`
    /// it ignores the filters and returns every row, as a provider may.
    struct Recording {
        inner: Arc<MemTable>,
        superset: bool,
        requests: std::sync::Mutex<Vec<ScanRequest>>,
    }

    impl TableProvider for Recording {
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
            self.requests.lock().unwrap().push(r.clone());
            let all = ScanRequest::default();
            self.inner.scan(if self.superset { &all } else { r })
        }
    }

    const ASOF: &str = "select tr_id, tr_ts, q_px from trades t asof join quotes q \
                        on q.q_id = t.tr_id and q.q_ts <= t.tr_ts";

    /// Quotes for ids 1..=4 at ts 0..100 (`q_px = id * 1000 + ts`, plus a
    /// later duplicate of (1, 7) at -1.0 to pin the tie rule), behind a
    /// [`Recording`] provider; trades from `left`.
    fn asof_engine(left: &[(Datum, Datum)], superset: bool) -> (SqlEngine, Arc<Recording>) {
        let e = SqlEngine::new();
        let quotes = MemTable::new(RelSchema::new(
            "quotes",
            [("q_id", DataType::I64), ("q_ts", DataType::Ts), ("q_px", DataType::F64)],
        ));
        for id in 1..=4i64 {
            for t in 0..100i64 {
                let px = Datum::F64((id * 1000 + t) as f64);
                quotes.insert(Row::new(vec![Datum::I64(id), ts(t), px]));
            }
        }
        quotes.insert(Row::new(vec![Datum::I64(1), ts(7), Datum::F64(-1.0)]));
        let trades = MemTable::new(RelSchema::new(
            "trades",
            [("tr_id", DataType::I64), ("tr_ts", DataType::Ts)],
        ));
        for (id, ts) in left {
            trades.insert(Row::new(vec![id.clone(), ts.clone()]));
        }
        let rec = Arc::new(Recording { inner: quotes, superset, requests: Default::default() });
        e.register(trades);
        e.register(rec.clone());
        (e, rec)
    }

    fn ts(t: i64) -> Datum {
        Datum::Ts(Timestamp(t))
    }

    /// The filters a right-side ASOF scan should carry: `q_id = key` (when
    /// given) and `q_ts <= max_ts`.
    fn asof_request(key: Option<i64>, max_ts: i64) -> Vec<(usize, ColumnFilter)> {
        let mut f: Vec<_> = key.map(|k| (0, ColumnFilter::Eq(Datum::I64(k)))).into_iter().collect();
        f.push((1, ColumnFilter::Range { lo: None, hi: Some((ts(max_ts), true)) }));
        f
    }

    fn filters(rec: &Recording) -> Vec<Vec<(usize, ColumnFilter)>> {
        rec.requests.lock().unwrap().iter().map(|r| r.filters.clone()).collect()
    }

    #[test]
    fn asof_one_left_key_scans_its_key_up_to_the_latest_left_ts() {
        let left = [(Datum::I64(2), ts(40)), (Datum::I64(2), ts(25)), (Datum::I64(2), ts(31))];
        let (e, rec) = asof_engine(&left, false);
        let r = e.query(ASOF).unwrap();
        assert_eq!(filters(&rec), vec![asof_request(Some(2), 40)]);
        assert_eq!(rec.requests.lock().unwrap()[0].needed, vec![0, 1, 2]);
        let px: Vec<_> = r.rows.iter().map(|row| row.get(2).clone()).collect();
        assert_eq!(px, vec![Datum::F64(2040.0), Datum::F64(2025.0), Datum::F64(2031.0)]);
    }

    #[test]
    fn asof_several_left_keys_scan_once_under_the_latest_left_ts() {
        let left = [(Datum::I64(3), ts(50)), (Datum::I64(1), ts(30)), (Datum::I64(1), ts(7))];
        let (e, rec) = asof_engine(&left, false);
        let a = e.query(ASOF).unwrap();
        assert_eq!(filters(&rec), vec![asof_request(None, 50)]);
        let px: Vec<_> = a.rows.iter().map(|row| row.get(2).clone()).collect();
        // (1, 7) ties two quotes: the later-inserted -1.0 wins.
        assert_eq!(px, vec![Datum::F64(3050.0), Datum::F64(1030.0), Datum::F64(-1.0)]);
        // A provider that ignores every filter gives the same answer.
        let (superset, _) = asof_engine(&left, true);
        assert_eq!(a, superset.query(ASOF).unwrap());
        let b = superset.query(&format!("{ASOF} where t.tr_id = 1")).unwrap();
        assert_eq!(b.rows, a.rows[1..], "nor on the one-key path");
    }

    #[test]
    fn asof_null_left_keys_and_timestamps_are_skipped() {
        let left = [
            (Datum::Null, ts(10)),
            (Datum::I64(4), Datum::Null),
            (Datum::I64(2), ts(20)),
            (Datum::Null, Datum::Null),
        ];
        let (e, rec) = asof_engine(&left, false);
        let r = e.query(ASOF).unwrap();
        assert_eq!(filters(&rec), vec![asof_request(Some(2), 20)]);
        let px: Vec<_> = r.rows.iter().map(|row| row.get(2).clone()).collect();
        assert_eq!(px, vec![Datum::Null, Datum::Null, Datum::F64(2020.0), Datum::Null]);
    }

    #[test]
    fn asof_without_usable_left_rows_scans_nothing() {
        let (e, rec) = asof_engine(&[(Datum::I64(1), ts(5))], false);
        let r = e.query(&format!("{ASOF} where t.tr_id = 9")).unwrap();
        assert!(r.rows.is_empty());
        assert!(filters(&rec).is_empty(), "an empty left side makes no right scan");
        let (e, rec) = asof_engine(&[(Datum::Null, ts(5)), (Datum::I64(1), Datum::Null)], false);
        assert_eq!(e.query(ASOF).unwrap().rows.len(), 2);
        assert!(filters(&rec).is_empty(), "NULL keys and timestamps make no right scan");
    }

    #[test]
    fn asof_nan_keys_match_as_the_partition_lookup_does() {
        // `Eq(NaN)` selects nothing, but NaN keys partition together, as
        // in the hash join: one scan under the global bound keeps them.
        let e = SqlEngine::new();
        let schema = [("k", DataType::F64), ("ts", DataType::Ts), ("v", DataType::F64)];
        let (l, r) = (
            MemTable::new(RelSchema::new("l", schema)),
            MemTable::new(RelSchema::new("r", schema)),
        );
        let nan = Row::new(vec![Datum::F64(f64::NAN), ts(5), Datum::F64(1.0)]);
        l.insert(nan.clone());
        r.insert(nan);
        r.insert(Row::new(vec![Datum::F64(2.0), ts(5), Datum::F64(2.0)]));
        e.register(l);
        e.register(r);
        let got = e.query("select r.v from l asof join r on l.k = r.k and l.ts >= r.ts").unwrap();
        assert_eq!(got.rows, vec![Row::new(vec![Datum::F64(1.0)])]);
    }

    #[test]
    fn asof_strict_and_non_strict_joins_scan_alike() {
        let left = [(Datum::I64(1), ts(30)), (Datum::I64(3), ts(8))];
        let (e, rec) = asof_engine(&left, false);
        for filter in ["", " where t.tr_id = 1"] {
            e.query(&format!("{ASOF}{filter}")).unwrap();
            e.query(&format!("{}{filter}", ASOF.replace("q.q_ts <= t.tr_ts", "q.q_ts < t.tr_ts")))
                .unwrap();
        }
        let f = filters(&rec);
        assert_eq!(f.len(), 4);
        assert_eq!(f[0], asof_request(None, 30));
        assert_eq!(f[2], asof_request(Some(1), 30));
        assert_eq!((&f[0], &f[2]), (&f[1], &f[3]), "the inclusive bound serves strict joins too");
        // No equality key: one scan under the global bound.
        rec.requests.lock().unwrap().clear();
        let r = e
            .query("select tr_ts, q_px from trades t asof join quotes q on t.tr_ts > q.q_ts")
            .unwrap();
        assert_eq!(filters(&rec), vec![asof_request(None, 30)]);
        // Strict: the latest quote before ts 30 is any key's ts-29 quote;
        // the later-inserted key 4 wins the tie.
        assert_eq!(r.rows[0].get(1), &Datum::F64(4029.0));
    }

    #[test]
    fn vectorized_and_row_paths_agree() {
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
            e.set_vectorized(true);
            let (vec_res, _, vec_prof) = e.query_profiled(q).unwrap();
            e.set_vectorized(false);
            let (row_res, _, row_prof) = e.query_profiled(q).unwrap();
            assert!(vec_prof.used_vectorized, "vectorized path must engage for {q}");
            assert!(!row_prof.used_vectorized);
            assert_eq!(vec_res, row_res, "paths disagree on {q}");
        }
    }

    #[test]
    fn vectorized_profile_reports_batches_and_selectivity() {
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
