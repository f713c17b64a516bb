//! Page-based storage manager.
//!
//! This crate is the I/O substrate both engines sit on (the reproduction's
//! stand-in for Informix dbspaces):
//!
//! - [`page`]: the 8 KiB page unit and little-endian field accessors;
//! - [`disk`]: the [`disk::DiskManager`] trait with in-memory and file
//!   backends, plus atomic [`stats::IoStats`];
//! - [`pool`]: a buffer pool with clock (second-chance) eviction, pin
//!   counts, and write-back of dirty pages;
//! - [`heap`]: slotted heap pages and append-oriented heap files, with
//!   overflow chains for records larger than a page (ValueBlobs routinely
//!   are).
//!
//! Everything the paper argues about I/O ("the three batch structures reduce
//! the I/O cost by reducing the number of records and, accordingly, the
//! index size") becomes measurable here: `IoStats` counts logical and
//! physical page traffic, and an [`pool::IoHook`] lets the resource models
//! in `odh-sim` observe physical I/O without this crate depending on them.

pub mod disk;
pub mod fault;
pub mod heap;
pub mod log;
pub mod page;
pub mod pool;
pub mod stats;

pub use disk::{DiskManager, FileDisk, MemDisk};
pub use fault::{FailDisk, FailWal, FaultMode, FaultPlan};
pub use heap::{HeapFile, RecordId};
pub use log::{FileLog, FileLogDir, LogDir, LogStore, MemLog, MemLogDir};
pub use page::{Page, PageId, PAGE_SIZE};
pub use pool::{BufferPool, IoHook};
pub use stats::{ConcurrencyStats, IoStats};
