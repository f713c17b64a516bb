//! The SQL substrate — the reproduction's stand-in for Informix's SQL layer
//! and Virtual Table Interface (VTI).
//!
//! "The Informix Virtual Table Interface hides the details of the
//! underlying infrastructure, the data distributions, and the different
//! types of batch structures. VTI enables the operational data model to be
//! accessed through virtual tables using standard SQL interfaces, which
//! enables the fusion with other relational tables" (§3). Here the VTI is
//! the [`provider::TableProvider`] trait: anything that can report a
//! relational schema, estimate scan cost/row counts under pushed-down
//! filters, and produce rows, can be queried — ordinary row-store tables
//! and ODH virtual tables alike.
//!
//! Pipeline: [`token`] → [`parser`] ([`ast`]) → [`planner`] (name
//! resolution, predicate classification) → [`optimizer`] (filter pushdown,
//! join order chosen by the paper's cost model: *expected ValueBlob bytes
//! accessed*) → [`exec`] (index-nested-loop or hash joins, residual
//! filters, aggregates, ORDER BY/LIMIT).
//!
//! Dialect: `SELECT` lists (columns, `*`, `COUNT/SUM/AVG/MIN/MAX/LAST`,
//! `time_bucket(interval_us, col)` / `time_bucket_gapfill(...)` with
//! `interpolate(AGG(col))`), comma-separated `FROM` with aliases (implicit
//! joins, as the paper's examples are written), `ASOF JOIN ... ON`,
//! `WHERE` conjunctions of `=`, `<>`, `<`, `>`, `<=`, `>=`, `BETWEEN`,
//! `GROUP BY` (including `time_bucket`), `ORDER BY`, `LIMIT`. Identifiers
//! are case-insensitive; string literals compared to TIMESTAMP columns are
//! parsed as SQL timestamps.
//!
//! Execution is vectorized for single-table aggregate shapes: providers
//! that implement [`provider::TableProvider::scan_columnar`] hand the
//! executor [`column::ColumnBatch`]es — decoded rows, or seal-time
//! summaries where the plan allows — and the residual WHERE clause runs
//! as selection-vector kernels (see [`column`]).

pub mod ast;
pub mod catalog;
pub mod column;
pub mod exec;
pub mod optimizer;
pub mod parser;
pub mod planner;
pub mod provider;
pub mod stats;
pub mod token;

pub use catalog::Catalog;
pub use column::{ColVec, ColumnBatch};
pub use exec::{ExecProfile, OpStats, QueryResult};
pub use provider::{
    ColumnFilter, ColumnarScan, MemTable, ScanRequest, SummaryGrain, TableProvider,
};

use odh_types::Result;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The SQL engine: a catalog plus the parse→plan→optimize→execute pipeline.
pub struct SqlEngine {
    catalog: Catalog,
    /// Whether single-table aggregates run vectorized (the default) or on
    /// the row pipeline — the reference the tests and benches compare to.
    vectorized: AtomicBool,
}

impl SqlEngine {
    pub fn new() -> SqlEngine {
        SqlEngine { catalog: Catalog::new(), vectorized: AtomicBool::new(true) }
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Enable or disable vectorized execution for this engine's queries.
    pub fn set_vectorized(&self, enabled: bool) {
        self.vectorized.store(enabled, Ordering::Relaxed);
    }

    fn vectorized(&self) -> bool {
        self.vectorized.load(Ordering::Relaxed)
    }

    /// Register a table (provider) under its schema name.
    pub fn register(&self, provider: Arc<dyn TableProvider>) {
        self.catalog.register(provider);
    }

    /// Parse, plan, optimize, and run `sql`.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        let stmt = parser::parse(sql)?;
        let plan = planner::plan(&self.catalog, &stmt)?;
        let plan = optimizer::optimize(plan);
        exec::execute(&plan, self.vectorized())
    }

    /// Plan only (EXPLAIN): returns a human-readable plan description.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let stmt = parser::parse(sql)?;
        let plan = planner::plan(&self.catalog, &stmt)?;
        let plan = optimizer::optimize(plan);
        Ok(plan.describe())
    }

    /// EXPLAIN ANALYZE: run `sql` and return the result, the optimized
    /// plan description, and a per-operator execution profile (rows,
    /// bytes, wall time, plan vs exec split).
    pub fn query_profiled(&self, sql: &str) -> Result<(QueryResult, String, ExecProfile)> {
        let plan_started = std::time::Instant::now();
        let stmt = parser::parse(sql)?;
        let plan = planner::plan(&self.catalog, &stmt)?;
        let plan = optimizer::optimize(plan);
        let plan_nanos = plan_started.elapsed().as_nanos() as u64;
        let described = plan.describe();
        let (result, mut profile) = exec::execute_profiled(&plan, self.vectorized())?;
        profile.plan_nanos = plan_nanos;
        Ok((result, described, profile))
    }
}

impl Default for SqlEngine {
    fn default() -> Self {
        SqlEngine::new()
    }
}
