//! Join-order optimization under the paper's cost model.
//!
//! "We approximate the cost of extracting the requested operational data as
//! the expected size, in bytes, of the ValueBlobs that need to be accessed.
//! The estimated costs enable the Informix query optimizer to determine an
//! optimal query path" (§3). Each provider reports that expected byte count
//! via [`crate::provider::TableProvider::estimate_cost`]; ordinary tables
//! report their own scan bytes so the comparison is apples-to-apples.
//!
//! With the benchmark's ≤3-way joins, exhaustive permutation enumeration is
//! exact and instant. A candidate order's cost:
//!
//! ```text
//! cost(order) = scan_cost(first) +
//!   Σ over later tables T:
//!     rows_so_far × probe_cost(T, join col)   if T is joinable by index
//!     scan_cost(T)                            otherwise (hash join)
//! ```
//!
//! with `rows_so_far` tracked through provider row estimates. Disconnected
//! prefixes (cartesian products) are allowed but pay the multiplied
//! cardinality, so they lose to any connected order.

use crate::exec::asof_right_request;
use crate::planner::{AsofSpec, ColRef, Plan};
use crate::provider::{ColumnFilter, ScanRequest};

/// Pick the cheapest join order and annotate the plan with its cost.
pub fn optimize(mut plan: Plan) -> Plan {
    let n = plan.bindings.len();
    if n <= 1 {
        plan.estimated_cost = scan_cost(&plan, 0);
        return plan;
    }
    // ASOF JOIN fixes the roles: binding 0 is the probe side, binding 1
    // the build side — no order enumeration.
    if let Some(spec) = plan.asof {
        plan.join_order = vec![0, 1];
        let right = asof_planned_request(&plan, spec);
        plan.estimated_cost = scan_cost(&plan, 0) + plan.bindings[1].provider.estimate_cost(&right);
        return plan;
    }
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut order: Vec<usize> = (0..n).collect();
    permute(&mut order, 0, &mut |cand| {
        let cost = order_cost(&plan, cand);
        if best.as_ref().is_none_or(|(c, _)| cost < *c) {
            best = Some((cost, cand.to_vec()));
        }
    });
    let (cost, order) = best.expect("at least one permutation");
    plan.join_order = order;
    plan.estimated_cost = cost;
    plan
}

fn permute(items: &mut [usize], k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}

/// The ASOF right-side scan as far as the plan knows it: the executor
/// derives its filters from the left rows, and the left side's pushdown
/// pins the partition key (`eq = k`) and the latest left timestamp
/// (`ts <= hi`) wherever it filters them.
fn asof_planned_request(plan: &Plan, spec: AsofSpec) -> ScanRequest {
    let left = |col: ColRef| plan.pushdown[0].iter().filter(move |(c, _)| *c == col.column);
    let key = spec.eq.and_then(|(l, _)| {
        left(l).find_map(|(_, f)| match f {
            ColumnFilter::Eq(k) if k.sql_eq(k) => Some(k.clone()),
            _ => None,
        })
    });
    let max_ts = left(spec.left_ts)
        .filter_map(|(_, f)| match f {
            ColumnFilter::Eq(d) | ColumnFilter::Range { hi: Some((d, _)), .. } => d.as_ts(),
            _ => None,
        })
        .map(|t| t.micros())
        .min();
    asof_right_request(plan, spec, key, max_ts)
}

fn scan_cost(plan: &Plan, binding: usize) -> f64 {
    plan.bindings[binding].provider.estimate_cost(&crate::exec::scan_request(plan, binding))
}

fn est_rows(plan: &Plan, binding: usize) -> f64 {
    plan.bindings[binding].provider.estimate_rows(&plan.pushdown[binding])
}

/// Column of `binding` joined to some earlier binding in `prefix`, if any.
pub fn join_column_into(plan: &Plan, binding: usize, prefix: &[usize]) -> Option<ColRef> {
    for j in &plan.joins {
        let (a, b) = (j.left, j.right);
        if a.binding == binding && prefix.contains(&b.binding) {
            return Some(a);
        }
        if b.binding == binding && prefix.contains(&a.binding) {
            return Some(b);
        }
    }
    None
}

fn order_cost(plan: &Plan, order: &[usize]) -> f64 {
    let first = order[0];
    let mut cost = scan_cost(plan, first);
    let mut rows = est_rows(plan, first);
    for (i, &b) in order.iter().enumerate().skip(1) {
        let prefix = &order[..i];
        let provider = &plan.bindings[b].provider;
        match join_column_into(plan, b, prefix) {
            Some(col) => {
                let per_key_rows = est_rows(plan, b) / provider.estimate_rows(&[]).max(1.0)
                    * provider_rows_per_key(plan, b, col.column);
                match provider.probe_cost(col.column) {
                    Some(probe) => {
                        cost += rows * probe;
                        rows *= per_key_rows.max(0.001);
                    }
                    None => {
                        // Hash join: one full scan of T plus build/probe.
                        cost += scan_cost(plan, b);
                        rows *= per_key_rows.max(0.001);
                    }
                }
            }
            None => {
                // Cartesian: scan + exploded cardinality (as cost proxy).
                cost += scan_cost(plan, b) + rows * est_rows(plan, b) * 8.0;
                rows *= est_rows(plan, b);
            }
        }
        rows = rows.max(1.0);
    }
    cost
}

/// Average matching rows per join-key value on `binding.column`, after its
/// pushdown filters.
fn provider_rows_per_key(plan: &Plan, binding: usize, column: usize) -> f64 {
    let provider = &plan.bindings[binding].provider;
    // Distinct keys ≈ rows(no filter) / rows_per_key(col). Probe result ≈
    // rows(filtered) / distinct. Providers expose probe_cost in bytes, so
    // derive rows_per_key via an Eq-filter estimate: rows under an Eq
    // filter on `column` with an arbitrary key — providers implement this
    // through their column stats uniformly.
    let total = provider.estimate_rows(&[]).max(1.0);
    let one_key = provider
        .estimate_rows(&[(column, crate::provider::ColumnFilter::Eq(odh_types::Datum::I64(0)))])
        .max(1.0);
    (one_key / total).max(1e-9) * total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::planner::plan;
    use crate::provider::MemTable;
    use crate::Catalog;
    use odh_types::{DataType, Datum, RelSchema, Row};

    /// A big "fact" table and a small "dimension" table with an index on
    /// the dimension key: the optimizer should start from the dimension
    /// when its filter is selective.
    fn catalog() -> Catalog {
        let c = Catalog::new();
        let fact =
            MemTable::new(RelSchema::new("fact", [("k", DataType::I64), ("v", DataType::F64)]));
        for i in 0..10_000i64 {
            fact.insert(Row::new(vec![Datum::I64(i % 100), Datum::F64(i as f64)]));
        }
        fact.create_index("k");
        c.register(fact);
        let dim =
            MemTable::new(RelSchema::new("dim", [("k", DataType::I64), ("name", DataType::Str)]));
        for i in 0..100i64 {
            dim.insert(Row::new(vec![Datum::I64(i), Datum::str(format!("n{i}"))]));
        }
        dim.create_index("k");
        c.register(dim);
        c
    }

    #[test]
    fn selective_dimension_goes_first() {
        let c = catalog();
        let p = plan(
            &c,
            &parse("select v from fact f, dim d where d.k = f.k and d.name = 'n5'").unwrap(),
        )
        .unwrap();
        let p = optimize(p);
        // dim is binding 1; it should be scanned first.
        assert_eq!(p.join_order, vec![1, 0], "plan: {}", p.describe());
    }

    #[test]
    fn unfiltered_join_starts_from_cheaper_scan() {
        let c = catalog();
        let p = plan(&c, &parse("select v from fact f, dim d where d.k = f.k").unwrap()).unwrap();
        let p = optimize(p);
        // Either order works, but cost must be finite and the order
        // connected; with both indexed, starting from the small table and
        // probing the big one is cheapest.
        assert_eq!(p.join_order[0], 1, "plan: {}", p.describe());
        assert!(p.estimated_cost > 0.0);
    }

    #[test]
    fn single_table_cost_annotated() {
        let c = catalog();
        let p = optimize(plan(&c, &parse("select * from dim").unwrap()).unwrap());
        assert!(p.estimated_cost > 0.0);
        assert_eq!(p.join_order, vec![0]);
    }

    #[test]
    fn asof_right_side_is_priced_with_what_the_left_pushdown_pins() {
        let c = Catalog::new();
        c.register(MemTable::new(RelSchema::new(
            "q",
            [("k", DataType::I64), ("ts", DataType::Ts)],
        )));
        let right = |filter: &str| {
            let sql =
                format!("select a.k from q a asof join q b on a.k = b.k and a.ts >= b.ts{filter}");
            let p = plan(&c, &parse(&sql).unwrap()).unwrap();
            asof_planned_request(&p, p.asof.unwrap()).filters
        };
        let hi = |t: i64| ColumnFilter::Range {
            lo: None,
            hi: Some((Datum::Ts(odh_types::Timestamp(t)), true)),
        };
        assert_eq!(
            right(" where a.k = 5 and a.ts between 10 and 90"),
            vec![(0, ColumnFilter::Eq(Datum::I64(5))), (1, hi(90))]
        );
        assert_eq!(right(" where a.ts < 40"), vec![(1, hi(40))]);
        assert_eq!(right(""), vec![]);
    }

    #[test]
    fn describe_mentions_scan_and_join() {
        let c = catalog();
        let p = optimize(
            plan(&c, &parse("select v from fact f, dim d where d.k = f.k").unwrap()).unwrap(),
        );
        let d = p.describe();
        assert!(d.contains("scan"), "{d}");
        assert!(d.contains("join"), "{d}");
    }
}
