//! The ODH storage engine — §2 of the paper.
//!
//! Operational records are packed, `b` points at a time, into one of three
//! *batch structures*, each stored as heap records indexed by a B-tree on
//! the structure's first two fields (Fig. 1):
//!
//! | structure | record key          | packs                                  |
//! |-----------|---------------------|----------------------------------------|
//! | RTS       | (id, begin_time)    | `b` points of one regular source; the  |
//! |           |                     | sampling interval makes timestamps     |
//! |           |                     | implicit                               |
//! | IRTS      | (id, begin_time)    | `b` points of one irregular source with|
//! |           |                     | a delta-of-delta timestamp block       |
//! | MG        | (group, begin_time) | `b` points *by timestamp* across a     |
//! |           |                     | group of low-frequency sources         |
//!
//! Structure choice per source class follows Table 1 ([`select`]); tag
//! values live in tag-oriented [`blob::ValueBlob`]s so that projecting one
//! tag of a wide schema decodes one section, not the whole blob; in-flight
//! ingest buffers ([`buffer`]) are visible to scans (the paper's
//! "dirty-read" isolation); and each [`compact`] pass drains sealed MG
//! batches into per-source RTS/IRTS batches, which is how Table 1
//! can prescribe MG for ingestion/slice but RTS/IRTS for historical queries
//! on the same low-frequency sources.

pub mod batch;
pub mod blob;
pub mod buffer;
pub mod cache;
pub mod compact;
pub mod container;
pub mod delete;
pub mod registry;
pub mod seal;
pub mod select;
pub mod snapshot;
pub mod stats;
pub mod stripe;
pub mod table;
pub mod wal;

pub use batch::TagSummary;
pub use blob::{SealScratch, ValueBlob};
pub use buffer::Cols;
pub use cache::DecodeCache;
pub use compact::CompactReport;
pub use delete::{DeletePredicate, Tombstone};
pub use select::Structure;
pub use snapshot::{TableConfigSnapshot, TableSnapshot};
pub use stats::StorageStats;
pub use table::{BatchSummary, ColumnarChunk, OdhTable, ScanPoint, TableConfig, TimeGrain};
pub use wal::{Wal, WalEntry, WalFrame, WalRecovery};
