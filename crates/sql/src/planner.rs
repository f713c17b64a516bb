//! Name resolution and predicate classification: AST → [`Plan`].
//!
//! The planner binds FROM entries to providers, resolves every column
//! reference to `(binding, column)`, coerces literals to the column's type
//! (string literals against TIMESTAMP columns parse as SQL timestamps),
//! and splits the WHERE conjunction into:
//! - **pushdown** filters: single-binding comparisons against literals,
//!   merged per column and handed to the provider;
//! - **join edges**: `a.x = b.y` across bindings;
//! - **residual** predicates re-checked on joined rows (everything is
//!   re-checked anyway — providers may return supersets).

use crate::ast::{self, CmpOp, ColumnName, Literal, Operand, Select, SelectItem};
use crate::catalog::Catalog;
use crate::provider::{ColumnFilter, TableProvider};
use odh_types::{DataType, Datum, OdhError, Result, Timestamp};
use std::sync::Arc;

/// A resolved column: which FROM binding, which column within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColRef {
    pub binding: usize,
    pub column: usize,
}

/// Resolved predicate operand.
#[derive(Debug, Clone, PartialEq)]
pub enum ROperand {
    Col(ColRef),
    Lit(Datum),
}

/// A resolved comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct RPred {
    pub left: ROperand,
    pub op: CmpOp,
    pub right: ROperand,
}

/// An equi-join edge between two bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEdge {
    pub left: ColRef,
    pub right: ColRef,
}

/// Resolved output item.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputItem {
    Col {
        col: ColRef,
        name: String,
    },
    Agg {
        func: ast::AggFunc,
        input: Option<ColRef>,
        name: String,
        interpolate: bool,
    },
    /// The `time_bucket(...)` group expression.
    Bucket {
        name: String,
    },
}

/// Resolved `GROUP BY time_bucket(...)` spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanBucket {
    pub interval_us: i64,
    pub col: ColRef,
    pub gapfill: bool,
}

/// Resolved ASOF JOIN: align each binding-0 row with the latest binding-1
/// row whose `right_ts` is ≤ (`<` when `strict`) the row's `left_ts`,
/// within the optional `eq` partition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsofSpec {
    pub left_ts: ColRef,
    pub right_ts: ColRef,
    pub strict: bool,
    pub eq: Option<(ColRef, ColRef)>,
}

/// The logical plan handed to the optimizer and executor.
pub struct Plan {
    pub bindings: Vec<BoundTable>,
    /// Visit order over `bindings` (optimizer sets this; planner leaves
    /// FROM order).
    pub join_order: Vec<usize>,
    /// Per binding: pushed-down column filters.
    pub pushdown: Vec<Vec<(usize, ColumnFilter)>>,
    /// Per binding: columns the query needs.
    pub needed: Vec<Vec<usize>>,
    pub joins: Vec<JoinEdge>,
    /// Predicates re-evaluated on combined rows.
    pub residual: Vec<RPred>,
    pub output: Vec<OutputItem>,
    pub group_by: Vec<ColRef>,
    /// `GROUP BY time_bucket(...)` spec, grouped ahead of `group_by`.
    pub bucket: Option<PlanBucket>,
    /// ASOF JOIN spec (always binding 0 = left, binding 1 = right).
    pub asof: Option<AsofSpec>,
    pub order_by: Vec<(ColRef, bool)>,
    pub limit: Option<usize>,
    /// Filled by the optimizer: the estimated cost of the chosen order.
    pub estimated_cost: f64,
}

/// One bound FROM entry.
#[derive(Clone)]
pub struct BoundTable {
    pub provider: Arc<dyn TableProvider>,
    pub binding_name: String,
}

impl Plan {
    /// Column offset of `c` in the combined (concatenated) row layout.
    pub fn combined_offset(&self, c: ColRef) -> usize {
        let mut off = 0;
        for b in 0..c.binding {
            off += self.bindings[b].provider.schema().arity();
        }
        off + c.column
    }

    pub fn combined_arity(&self) -> usize {
        self.bindings.iter().map(|b| b.provider.schema().arity()).sum()
    }

    /// Human-readable plan (EXPLAIN output; the §5.3 optimizer study logs
    /// these).
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for (step, &b) in self.join_order.iter().enumerate() {
            let bt = &self.bindings[b];
            let mut filters: Vec<String> = self.pushdown[b]
                .iter()
                .map(|(c, f)| format!("{} {:?}", bt.provider.schema().columns[*c].name, f))
                .collect();
            if step == 0 {
                s.push_str(&format!("scan {}", bt.binding_name));
            } else if let Some(a) = &self.asof {
                s.push_str(&format!(" -> asof join {}", bt.binding_name));
                filters.splice(0..0, self.asof_derived_filters(a));
            } else {
                s.push_str(&format!(" -> join {}", bt.binding_name));
            }
            if !filters.is_empty() {
                s.push_str(&format!(" [{}]", filters.join(", ")));
            }
        }
        s.push_str(&format!(" (est. cost {:.0} bytes)", self.estimated_cost));
        s
    }

    /// The right-side filters an ASOF join derives from its left rows at
    /// run time, e.g. `id = a.id, timestamp <= max(a.timestamp)`. The key
    /// filter applies when every left row has the same key.
    fn asof_derived_filters(&self, a: &AsofSpec) -> Vec<String> {
        let name = |c: ColRef| &self.bindings[c.binding].provider.schema().columns[c.column].name;
        let left = &self.bindings[0].binding_name;
        let mut out: Vec<String> =
            a.eq.iter().map(|&(l, r)| format!("{} = {left}.{}", name(r), name(l))).collect();
        out.push(format!("{} <= max({left}.{})", name(a.right_ts), name(a.left_ts)));
        out
    }
}

/// Plan a parsed SELECT against the catalog.
pub fn plan(catalog: &Catalog, stmt: &Select) -> Result<Plan> {
    if stmt.from.is_empty() {
        return Err(OdhError::Plan("FROM clause is empty".into()));
    }
    if stmt.asof.is_some() && stmt.from.len() != 1 {
        return Err(OdhError::Plan("ASOF JOIN takes exactly one left table".into()));
    }
    let from: Vec<&ast::TableRef> =
        stmt.from.iter().chain(stmt.asof.iter().map(|a| &a.right)).collect();
    let bindings: Result<Vec<BoundTable>> = from
        .iter()
        .map(|tr| {
            Ok(BoundTable {
                provider: catalog.get(&tr.table)?,
                binding_name: tr.binding_name().to_string(),
            })
        })
        .collect();
    let bindings = bindings?;
    let resolver = Resolver { bindings: &bindings };

    let mut pushdown: Vec<Vec<(usize, ColumnFilter)>> = vec![Vec::new(); bindings.len()];
    let mut joins = Vec::new();
    let mut residual = Vec::new();

    // With ASOF, filters on the right side must NOT be pushed into its
    // scan: dropping right rows before alignment would change which row
    // is "most recent" for a left row. They stay residual-only. The
    // executor does narrow the right scan, but only by filters derived
    // from the left rows (their shared key, timestamp at most the latest
    // left one), which drop only rows no left row can match.
    let no_push = |b: usize| stmt.asof.is_some() && b == 1;
    for pred in &stmt.predicates {
        match pred {
            ast::Predicate::Between { col, lo, hi } => {
                let c = resolver.resolve(col)?;
                let dtype = resolver.dtype(c);
                let lo = coerce(lo, dtype)?;
                let hi = coerce(hi, dtype)?;
                if !no_push(c.binding) {
                    push_filter(
                        &mut pushdown[c.binding],
                        c.column,
                        ColumnFilter::Range {
                            lo: Some((lo.clone(), true)),
                            hi: Some((hi.clone(), true)),
                        },
                    );
                }
                residual.push(RPred {
                    left: ROperand::Col(c),
                    op: CmpOp::Ge,
                    right: ROperand::Lit(lo),
                });
                residual.push(RPred {
                    left: ROperand::Col(c),
                    op: CmpOp::Le,
                    right: ROperand::Lit(hi),
                });
            }
            ast::Predicate::Cmp { left, op, right } => {
                let l = resolver.resolve_operand(left, right)?;
                let r = resolver.resolve_operand(right, left)?;
                match (&l, &r, op) {
                    (ROperand::Col(a), ROperand::Col(b), CmpOp::Eq)
                        if a.binding != b.binding && stmt.asof.is_none() =>
                    {
                        joins.push(JoinEdge { left: *a, right: *b });
                    }
                    (ROperand::Col(c), ROperand::Lit(v), _) => {
                        if !no_push(c.binding) {
                            if let Some(f) = filter_from_cmp(*op, v, false) {
                                push_filter(&mut pushdown[c.binding], c.column, f);
                            }
                        }
                        residual.push(RPred { left: l.clone(), op: *op, right: r.clone() });
                    }
                    (ROperand::Lit(v), ROperand::Col(c), _) => {
                        if !no_push(c.binding) {
                            if let Some(f) = filter_from_cmp(*op, v, true) {
                                push_filter(&mut pushdown[c.binding], c.column, f);
                            }
                        }
                        residual.push(RPred { left: l.clone(), op: *op, right: r.clone() });
                    }
                    _ => residual.push(RPred { left: l.clone(), op: *op, right: r.clone() }),
                }
            }
        }
    }

    // Resolve the ASOF ON conjuncts: exactly one cross-binding timestamp
    // inequality, plus at most one cross-binding equality (the partition
    // key, e.g. `a.id = b.id`).
    let mut asof: Option<AsofSpec> = None;
    if let Some(clause) = &stmt.asof {
        let mut ts_cond: Option<(ColRef, ColRef, bool)> = None;
        let mut eq: Option<(ColRef, ColRef)> = None;
        for pred in &clause.on {
            let ast::Predicate::Cmp { left: Operand::Column(lc), op, right: Operand::Column(rc) } =
                pred
            else {
                return Err(OdhError::Plan(
                    "ASOF ON accepts only column-to-column comparisons".into(),
                ));
            };
            let l = resolver.resolve(lc)?;
            let r = resolver.resolve(rc)?;
            if l.binding == r.binding {
                return Err(OdhError::Plan("ASOF ON must compare across the two tables".into()));
            }
            // Normalize so the pair is (left-table col, right-table col).
            let (a, b, op) = if l.binding == 0 { (l, r, *op) } else { (r, l, flip_cmp(*op)) };
            match op {
                CmpOp::Eq => {
                    if eq.replace((a, b)).is_some() {
                        return Err(OdhError::Plan("ASOF ON allows one partition equality".into()));
                    }
                }
                CmpOp::Ge | CmpOp::Gt => {
                    if ts_cond.replace((a, b, op == CmpOp::Gt)).is_some() {
                        return Err(OdhError::Plan(
                            "ASOF ON allows one timestamp inequality".into(),
                        ));
                    }
                }
                _ => {
                    return Err(OdhError::Plan(
                        "ASOF ON timestamp condition must be `left >= right` (or >)".into(),
                    ))
                }
            }
        }
        let (left_ts, right_ts, strict) = ts_cond.ok_or_else(|| {
            OdhError::Plan("ASOF ON needs a `left.ts >= right.ts` condition".into())
        })?;
        asof = Some(AsofSpec { left_ts, right_ts, strict, eq });
    }

    // Resolve the GROUP BY time_bucket(...) spec.
    let mut bucket: Option<PlanBucket> = None;
    if let Some(spec) = &stmt.bucket {
        let col = resolver.resolve(&spec.col)?;
        let dtype = resolver.dtype(col);
        if !matches!(dtype, DataType::Ts | DataType::I64) {
            return Err(OdhError::Plan(format!(
                "time_bucket column '{}' must be a timestamp or integer",
                spec.col.column
            )));
        }
        if spec.gapfill && !stmt.group_by.is_empty() {
            return Err(OdhError::Plan("time_bucket_gapfill supports bucket-only grouping".into()));
        }
        bucket = Some(PlanBucket { interval_us: spec.interval_us, col, gapfill: spec.gapfill });
    }

    // Output items.
    let mut output = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (bi, b) in bindings.iter().enumerate() {
                    for (ci, col) in b.provider.schema().columns.iter().enumerate() {
                        output.push(OutputItem::Col {
                            col: ColRef { binding: bi, column: ci },
                            name: col.name.clone(),
                        });
                    }
                }
            }
            SelectItem::Column(c) => {
                let col = resolver.resolve(c)?;
                output.push(OutputItem::Col { col, name: c.column.clone() });
            }
            SelectItem::Aggregate { func, col, interpolate } => {
                let input = col.as_ref().map(|c| resolver.resolve(c)).transpose()?;
                if *func == ast::AggFunc::Last && input.is_none() {
                    return Err(OdhError::Plan("LAST needs a column argument".into()));
                }
                if *interpolate {
                    let ok = bucket.map(|b| b.gapfill).unwrap_or(false);
                    if !ok {
                        return Err(OdhError::Plan(
                            "interpolate() requires GROUP BY time_bucket_gapfill".into(),
                        ));
                    }
                }
                let name = match col {
                    Some(c) => format!("{}({})", func.name(), c.column),
                    None => format!("{}(*)", func.name()),
                };
                output.push(OutputItem::Agg {
                    func: *func,
                    input,
                    name,
                    interpolate: *interpolate,
                });
            }
            SelectItem::Bucket(spec) => {
                let matches_group = stmt
                    .bucket
                    .as_ref()
                    .map(|g| {
                        g.interval_us == spec.interval_us
                            && g.col == spec.col
                            && g.gapfill == spec.gapfill
                    })
                    .unwrap_or(false);
                if !matches_group {
                    return Err(OdhError::Plan(
                        "time_bucket in SELECT must match the GROUP BY spec".into(),
                    ));
                }
                output.push(OutputItem::Bucket { name: "time_bucket".into() });
            }
        }
    }

    let group_by: Result<Vec<ColRef>> = stmt.group_by.iter().map(|c| resolver.resolve(c)).collect();
    let order_by: Result<Vec<(ColRef, bool)>> =
        stmt.order_by.iter().map(|o| Ok((resolver.resolve(&o.col)?, o.desc))).collect();

    // Needed columns per binding: outputs + predicates + joins + grouping.
    let mut needed: Vec<Vec<usize>> = vec![Vec::new(); bindings.len()];
    let note = |c: ColRef, needed: &mut Vec<Vec<usize>>| {
        if !needed[c.binding].contains(&c.column) {
            needed[c.binding].push(c.column);
        }
    };
    for item in &output {
        match item {
            OutputItem::Col { col, .. } => note(*col, &mut needed),
            OutputItem::Agg { input: Some(col), .. } => note(*col, &mut needed),
            OutputItem::Agg { input: None, .. } | OutputItem::Bucket { .. } => {}
        }
    }
    if let Some(b) = &bucket {
        note(b.col, &mut needed);
    }
    if let Some(a) = &asof {
        note(a.left_ts, &mut needed);
        note(a.right_ts, &mut needed);
        if let Some((l, r)) = a.eq {
            note(l, &mut needed);
            note(r, &mut needed);
        }
    }
    // LAST orders values by the binding's timestamp column (tie-broken by
    // the id column), so both must be materialized.
    if output.iter().any(|o| matches!(o, OutputItem::Agg { func: ast::AggFunc::Last, .. })) {
        for (bi, b) in bindings.iter().enumerate() {
            let schema = b.provider.schema();
            for (ci, col) in schema.columns.iter().enumerate() {
                if col.dtype == DataType::Ts || ci == 0 {
                    note(ColRef { binding: bi, column: ci }, &mut needed);
                }
            }
        }
    }
    for p in &residual {
        for o in [&p.left, &p.right] {
            if let ROperand::Col(c) = o {
                note(*c, &mut needed);
            }
        }
    }
    for j in &joins {
        note(j.left, &mut needed);
        note(j.right, &mut needed);
    }
    for (b, filters) in pushdown.iter().enumerate() {
        for (c, _) in filters {
            note(ColRef { binding: b, column: *c }, &mut needed);
        }
    }
    let group_by = group_by?;
    let order_by = order_by?;
    for g in &group_by {
        note(*g, &mut needed);
    }
    for (c, _) in &order_by {
        note(*c, &mut needed);
    }
    for n in needed.iter_mut() {
        n.sort_unstable();
    }

    Ok(Plan {
        join_order: (0..bindings.len()).collect(),
        bindings,
        pushdown,
        needed,
        joins,
        residual,
        output,
        group_by,
        bucket,
        asof,
        order_by,
        limit: stmt.limit,
        estimated_cost: 0.0,
    })
}

fn flip_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

struct Resolver<'a> {
    bindings: &'a [BoundTable],
}

impl Resolver<'_> {
    fn resolve(&self, name: &ColumnName) -> Result<ColRef> {
        if let Some(q) = &name.qualifier {
            let binding = self
                .bindings
                .iter()
                .position(|b| b.binding_name.eq_ignore_ascii_case(q))
                .ok_or_else(|| OdhError::Plan(format!("unknown table alias '{q}'")))?;
            let column =
                self.bindings[binding].provider.schema().column_index(&name.column).ok_or_else(
                    || OdhError::Plan(format!("no column '{}' in '{q}'", name.column)),
                )?;
            return Ok(ColRef { binding, column });
        }
        // Unqualified: must be unique across bindings.
        let mut found = None;
        for (bi, b) in self.bindings.iter().enumerate() {
            if let Some(ci) = b.provider.schema().column_index(&name.column) {
                if found.is_some() {
                    return Err(OdhError::Plan(format!("ambiguous column '{}'", name.column)));
                }
                found = Some(ColRef { binding: bi, column: ci });
            }
        }
        found.ok_or_else(|| OdhError::Plan(format!("unknown column '{}'", name.column)))
    }

    fn dtype(&self, c: ColRef) -> DataType {
        self.bindings[c.binding].provider.schema().columns[c.column].dtype
    }

    /// Resolve an operand; literals are coerced to the dtype of the column
    /// on the *other* side of the comparison.
    fn resolve_operand(&self, op: &Operand, other: &Operand) -> Result<ROperand> {
        match op {
            Operand::Column(c) => Ok(ROperand::Col(self.resolve(c)?)),
            Operand::Lit(l) => {
                let dtype = match other {
                    Operand::Column(c) => Some(self.dtype(self.resolve(c)?)),
                    Operand::Lit(_) => None,
                };
                Ok(ROperand::Lit(match dtype {
                    Some(d) => coerce(l, d)?,
                    None => raw_datum(l),
                }))
            }
        }
    }
}

fn raw_datum(l: &Literal) -> Datum {
    match l {
        Literal::Number(n) => Datum::F64(*n),
        Literal::Str(s) => Datum::str(s.as_str()),
    }
}

/// Coerce a literal to a column type.
pub fn coerce(l: &Literal, dtype: DataType) -> Result<Datum> {
    Ok(match (l, dtype) {
        (Literal::Number(n), DataType::I64) if n.fract() == 0.0 => Datum::I64(*n as i64),
        (Literal::Number(n), DataType::I64) => Datum::F64(*n),
        (Literal::Number(n), DataType::F64) => Datum::F64(*n),
        (Literal::Number(n), DataType::Ts) => Datum::Ts(Timestamp(*n as i64)),
        (Literal::Str(s), DataType::Ts) => Datum::Ts(
            Timestamp::parse_sql(s)
                .ok_or_else(|| OdhError::Plan(format!("'{s}' is not a valid timestamp literal")))?,
        ),
        (Literal::Str(s), _) => Datum::str(s.as_str()),
        (Literal::Number(n), DataType::Str) => Datum::F64(*n),
    })
}

fn filter_from_cmp(op: CmpOp, v: &Datum, flipped: bool) -> Option<ColumnFilter> {
    let op = if flipped {
        // `lit OP col` → `col OP' lit`.
        match op {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Le,
            other => other,
        }
    } else {
        op
    };
    Some(match op {
        CmpOp::Eq => ColumnFilter::Eq(v.clone()),
        CmpOp::Lt => ColumnFilter::Range { lo: None, hi: Some((v.clone(), false)) },
        CmpOp::Le => ColumnFilter::Range { lo: None, hi: Some((v.clone(), true)) },
        CmpOp::Gt => ColumnFilter::Range { lo: Some((v.clone(), false)), hi: None },
        CmpOp::Ge => ColumnFilter::Range { lo: Some((v.clone(), true)), hi: None },
        CmpOp::Neq => return None,
    })
}

fn push_filter(filters: &mut Vec<(usize, ColumnFilter)>, column: usize, f: ColumnFilter) {
    if let Some((_, existing)) = filters.iter_mut().find(|(c, _)| *c == column) {
        *existing = existing.clone().and(f);
    } else {
        filters.push((column, f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::provider::MemTable;
    use odh_types::RelSchema;

    fn catalog() -> Catalog {
        let c = Catalog::new();
        c.register(MemTable::new(RelSchema::new(
            "trade",
            [("t_dts", DataType::Ts), ("t_ca_id", DataType::I64), ("t_chrg", DataType::F64)],
        )));
        c.register(MemTable::new(RelSchema::new(
            "account",
            [("ca_id", DataType::I64), ("ca_name", DataType::Str)],
        )));
        c
    }

    #[test]
    fn pushdown_of_literal_filters() {
        let c = catalog();
        let p = plan(&c, &parse("select * from trade where t_ca_id = 42").unwrap()).unwrap();
        assert_eq!(p.pushdown[0].len(), 1);
        assert_eq!(p.pushdown[0][0], (1, ColumnFilter::Eq(Datum::I64(42))));
    }

    #[test]
    fn between_becomes_range_with_timestamp_coercion() {
        let c = catalog();
        let p = plan(
            &c,
            &parse(
                "select t_dts from trade where t_dts between '2014-01-01 00:00:00' and '2014-01-02 00:00:00'",
            )
            .unwrap(),
        )
        .unwrap();
        match &p.pushdown[0][0] {
            (0, ColumnFilter::Range { lo: Some((lo, true)), hi: Some((hi, true)) }) => {
                assert_eq!(
                    lo.as_ts().unwrap(),
                    Timestamp::parse_sql("2014-01-01 00:00:00").unwrap()
                );
                assert!(hi.as_ts().unwrap() > lo.as_ts().unwrap());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_edge_detected() {
        let c = catalog();
        let p = plan(
            &c,
            &parse(
                "select t_dts from trade t, account a where a.ca_id = t.t_ca_id and a.ca_name = 'x'",
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(p.joins.len(), 1);
        let j = p.joins[0];
        assert_eq!(j.left, ColRef { binding: 1, column: 0 });
        assert_eq!(j.right, ColRef { binding: 0, column: 1 });
        // The name filter pushed to account.
        assert_eq!(p.pushdown[1].len(), 1);
    }

    #[test]
    fn conjoined_ranges_merge() {
        let c = catalog();
        let p = plan(
            &c,
            &parse("select * from trade where t_chrg > 1 and t_chrg < 5 and t_chrg > 2").unwrap(),
        )
        .unwrap();
        assert_eq!(p.pushdown[0].len(), 1, "filters on one column merge");
        match &p.pushdown[0][0].1 {
            ColumnFilter::Range { lo: Some((lo, false)), hi: Some((hi, false)) } => {
                assert_eq!(lo.as_f64().unwrap(), 2.0);
                assert_eq!(hi.as_f64().unwrap(), 5.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn needed_columns_cover_everything_referenced() {
        let c = catalog();
        let p = plan(
            &c,
            &parse("select t_chrg from trade t, account a where a.ca_id = t.t_ca_id").unwrap(),
        )
        .unwrap();
        assert_eq!(p.needed[0], vec![1, 2]); // join col + output
        assert_eq!(p.needed[1], vec![0]); // join col
    }

    #[test]
    fn ambiguous_and_unknown_columns_rejected() {
        let c = catalog();
        assert_eq!(
            plan(&c, &parse("select ca_id from trade, account where nope = 1").unwrap())
                .err()
                .unwrap()
                .kind(),
            "plan"
        );
        // ca_id exists only in account → fine unqualified; t_dts unique too.
        assert!(plan(&c, &parse("select ca_id, t_dts from trade, account").unwrap()).is_ok());
    }

    #[test]
    fn combined_offsets() {
        let c = catalog();
        let p = plan(&c, &parse("select * from trade t, account a").unwrap()).unwrap();
        assert_eq!(p.combined_arity(), 5);
        assert_eq!(p.combined_offset(ColRef { binding: 1, column: 1 }), 4);
        assert_eq!(p.output.len(), 5, "wildcard expands over both tables");
    }

    #[test]
    fn bucket_resolution_and_validation() {
        let c = catalog();
        let p = plan(
            &c,
            &parse(
                "select time_bucket(1000000, t_dts), COUNT(*) from trade \
                 group by time_bucket(1000000, t_dts)",
            )
            .unwrap(),
        )
        .unwrap();
        let b = p.bucket.unwrap();
        assert_eq!(b.interval_us, 1_000_000);
        assert_eq!(b.col, ColRef { binding: 0, column: 0 });
        assert!(p.needed[0].contains(&0), "bucket column is needed");
        assert!(matches!(p.output[0], OutputItem::Bucket { .. }));
        // SELECT bucket must match the GROUP BY spec.
        assert!(plan(
            &c,
            &parse(
                "select time_bucket(2000000, t_dts) from trade group by time_bucket(1000000, t_dts)"
            )
            .unwrap()
        )
        .is_err());
        // Bucketing a string column is rejected.
        assert!(plan(
            &c,
            &parse("select COUNT(*) from account group by time_bucket(1000000, ca_name)").unwrap()
        )
        .is_err());
        // interpolate() without gapfill is rejected.
        assert!(plan(
            &c,
            &parse(
                "select interpolate(AVG(t_chrg)) from trade group by time_bucket(1000000, t_dts)"
            )
            .unwrap()
        )
        .is_err());
    }

    #[test]
    fn asof_resolution_and_right_side_pushdown_suppression() {
        let c = catalog();
        let p = plan(
            &c,
            &parse(
                "select t.t_chrg from trade t asof join trade u \
                 on t.t_ca_id = u.t_ca_id and t.t_dts >= u.t_dts \
                 where u.t_chrg > 3 and t.t_chrg > 1",
            )
            .unwrap(),
        )
        .unwrap();
        let a = p.asof.unwrap();
        assert_eq!(a.left_ts, ColRef { binding: 0, column: 0 });
        assert_eq!(a.right_ts, ColRef { binding: 1, column: 0 });
        assert!(!a.strict);
        assert_eq!(
            a.eq,
            Some((ColRef { binding: 0, column: 1 }, ColRef { binding: 1, column: 1 }))
        );
        // Left-side filter pushes; right-side filter must stay residual.
        assert_eq!(p.pushdown[0].len(), 1);
        assert!(p.pushdown[1].is_empty(), "right-side filters never push through ASOF");
        assert_eq!(p.residual.len(), 2);
        // EXPLAIN shows the filters the executor derives from the left rows.
        assert!(
            p.describe().contains("-> asof join u [t_ca_id = t.t_ca_id, t_dts <= max(t.t_dts)]"),
            "{}",
            p.describe()
        );
        // Reversed spelling normalizes, `>` means strict.
        let p = plan(
            &c,
            &parse("select t.t_chrg from trade t asof join trade u on u.t_dts < t.t_dts").unwrap(),
        )
        .unwrap();
        assert!(p.asof.unwrap().strict);
        // Missing timestamp condition is rejected.
        assert!(plan(
            &c,
            &parse("select t.t_chrg from trade t asof join trade u on t.t_ca_id = u.t_ca_id")
                .unwrap()
        )
        .is_err());
    }

    #[test]
    fn bad_timestamp_literal_rejected() {
        let c = catalog();
        let err = plan(&c, &parse("select * from trade where t_dts > 'yesterday'").unwrap())
            .err()
            .unwrap();
        assert_eq!(err.kind(), "plan");
    }
}
