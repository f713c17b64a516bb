//! The ODH system (§3 of the paper) — configuration, storage, and query
//! components wired over the substrates.
//!
//! ```text
//!                 ┌───────────────────────────────┐
//!   SQL ────────► │ query component               │
//!                 │  [`router::DataRouter`]       │  metadata lookups (real
//!                 │  [`vtable::VirtualTable`] VTI │  SQL — the LQ1 overhead)
//!                 └──────────────┬────────────────┘
//!   writer API ─► [`writer::OdhWriter`]           │
//!                 ┌──────────────▼────────────────┐
//!                 │ [`cluster::Cluster`]          │  source-hash partitioning,
//!                 │   [`server::DataServer`]×N    │  partition elimination
//!                 │     `odh_storage::OdhTable`   │  RTS/IRTS/MG containers
//!                 └───────────────────────────────┘
//! ```
//!
//! [`historian::Historian`] is the façade a deployment uses: define schema
//! types, register sources, obtain writers, run SQL that fuses virtual
//! tables with ordinary relational tables ([`reltable::RelTable`]).

pub mod cluster;
pub mod historian;
pub mod reltable;
pub mod router;
pub mod server;
pub mod vtable;
pub mod writer;

pub use cluster::Cluster;
pub use historian::{Historian, HistorianBuilder, MemoryFootprint};
pub use reltable::RelTable;
pub use writer::{OdhWriter, ParallelWriter};
