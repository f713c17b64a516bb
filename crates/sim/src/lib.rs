//! Deterministic resource models for hardware the paper used and we do not
//! have (IBM P460/P750 servers, V7000/XIV storage arrays).
//!
//! The paper's case studies (Tables 2 and 3) report **CPU load under a fixed
//! arrival rate** — a property of work-per-data-point and core count, not of
//! the wall clock of whatever machine re-runs the experiment. To make those
//! rows reproducible we charge abstract *cost units* for the work the
//! engines actually perform (page I/O, index maintenance, record encoding,
//! row assembly) against a configurable capacity of `cores ×
//! units_per_core_second`, over a **virtual clock** driven by the workload's
//! own timestamps. The disk model likewise charges seek + transfer time per
//! I/O so that record-size effects (Fig. 7, the "magnetic arm movement"
//! observation for wide LD rows) are visible.
//!
//! Wall-clock throughput in Figures 5–7 is additionally *measured for real*
//! from the actual engines; the models here only produce the CPU-load and
//! I/O-rate columns.

pub mod cost;
pub mod cpu;
pub mod disk;
pub mod meter;

pub use cost::CostConstants;
pub use cpu::{CpuModel, CpuReport};
pub use disk::{DiskModel, DiskReport};
pub use meter::{ParallelReport, ResourceMeter};
