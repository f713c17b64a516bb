//! A data server: one storage node holding one `OdhTable` per schema type.
//!
//! # Durability
//!
//! A server can run with a per-server write-ahead log. With one attached,
//! every table mutation (table creation, source registration, point
//! ingest) is framed into the WAL *before* it touches in-memory state, the
//! buffer pool runs in no-steal mode (dirty pages only reach the disk at a
//! checkpoint), and [`DataServer::checkpoint`] becomes lenient: open
//! ingest buffers are allowed, because the log above the checkpoint LSN
//! replays them. Recovery ([`DataServer::open_with_wal`]) restores the
//! checkpoint image, then replays the WAL tail idempotently — frames at or
//! below the checkpoint LSN or a source's sealed low-water mark are
//! skipped, and a torn or corrupt tail is truncated with a warning.

use odh_pager::disk::{DiskManager, FileDisk, MemDisk};
use odh_pager::log::LogDir;
use odh_pager::page::{get_u32, get_u64, put_u32, put_u64, PageId, NO_PAGE, PAGE_SIZE};
use odh_pager::pool::BufferPool;
use odh_sim::ResourceMeter;
use odh_storage::{OdhTable, TableConfig, TableSnapshot, Wal, WalEntry};
use odh_types::{OdhError, Result};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Superblock magic ("ODHS"). Page 0 of every server device is reserved
/// for the checkpoint superblock.
const SUPER_MAGIC: u32 = 0x4F44_4853;
/// Superblock format version. v2 added the checkpoint LSN at offset 24;
/// v1 superblocks read as checkpoint LSN 0 (replay everything).
const SUPER_VERSION: u32 = 2;
/// Catalog chain page payload capacity.
const CHAIN_CAPACITY: usize = PAGE_SIZE - 16;

/// Frames per server buffer pool. 64 MiB of 8 KiB pages — a scaled-down
/// stand-in for the paper's 128 GB Informix buffer pools.
pub const DEFAULT_POOL_FRAMES: usize = 8192;

/// One Informix-like data server instance.
pub struct DataServer {
    pub id: usize,
    pool: Arc<BufferPool>,
    meter: Arc<ResourceMeter>,
    tables: RwLock<HashMap<String, Arc<OdhTable>>>,
    wal: Option<Arc<Wal>>,
}

/// Per-server crash-recovery counters, registered under
/// `odh_recovery_*{server="N"}`. Created eagerly (at zero) whenever a WAL
/// is attached, so the metric catalog is identical whether or not a crash
/// ever happened.
struct RecoveryObs {
    replayed: Arc<odh_obs::Counter>,
    skipped: Arc<odh_obs::Counter>,
    truncated_events: Arc<odh_obs::Counter>,
    truncated_bytes: Arc<odh_obs::Counter>,
}

impl RecoveryObs {
    fn new(meter: &ResourceMeter, server: usize) -> RecoveryObs {
        let registry = meter.registry();
        let server = server.to_string();
        let labels: &[(&str, &str)] = &[("server", &server)];
        RecoveryObs {
            replayed: registry.counter("odh_recovery_replayed_records_total", labels),
            skipped: registry.counter("odh_recovery_skipped_records_total", labels),
            truncated_events: registry.counter("odh_recovery_truncated_tail_events_total", labels),
            truncated_bytes: registry.counter("odh_recovery_truncated_bytes_total", labels),
        }
    }
}

impl DataServer {
    /// Memory-backed server (CPU-side experiments).
    pub fn in_memory(id: usize, meter: Arc<ResourceMeter>) -> DataServer {
        Self::with_disk(id, meter, Arc::new(MemDisk::new()), DEFAULT_POOL_FRAMES)
    }

    /// File-backed server (storage-footprint experiments, Table 7).
    pub fn on_disk(
        id: usize,
        meter: Arc<ResourceMeter>,
        path: impl AsRef<Path>,
    ) -> Result<DataServer> {
        let disk = Arc::new(FileDisk::create(path)?);
        Ok(Self::with_disk(id, meter, disk, DEFAULT_POOL_FRAMES))
    }

    pub fn with_disk(
        id: usize,
        meter: Arc<ResourceMeter>,
        disk: Arc<dyn DiskManager>,
        frames: usize,
    ) -> DataServer {
        let fresh = disk.num_pages() == 0;
        let server = Self::assemble(id, meter, BufferPool::new(disk, frames));
        if fresh {
            // Reserve page 0 for the checkpoint superblock.
            server.pool.allocate().expect("reserving the superblock page");
        }
        server
    }

    /// A server with no tables over `pool`, whose page counters it
    /// publishes as `odh_pool_*{server="N"}`.
    fn assemble(id: usize, meter: Arc<ResourceMeter>, pool: Arc<BufferPool>) -> DataServer {
        pool.stats().register_into(meter.registry(), &[("server", &id.to_string())]);
        DataServer { id, pool, meter, tables: RwLock::new(HashMap::new()), wal: None }
    }

    /// Start `table`'s background workers, publish its ingest-stripe
    /// counters as `odh_concurrency_*{server="N",table="name"}` and list
    /// it under `name`.
    fn install(
        &self,
        tables: &mut HashMap<String, Arc<OdhTable>>,
        name: String,
        table: Arc<OdhTable>,
    ) {
        table.start_seal_pipeline();
        table.start_compactor();
        let server = self.id.to_string();
        table
            .concurrency()
            .register_into(self.meter.registry(), &[("server", &server), ("table", &name)]);
        tables.insert(name, table);
    }

    /// Fresh server with a write-ahead log in the segment directory `log`:
    /// existing segments are discarded and every subsequent mutation is
    /// logged before it is applied.
    pub fn with_disk_wal(
        id: usize,
        meter: Arc<ResourceMeter>,
        disk: Arc<dyn DiskManager>,
        frames: usize,
        log: Arc<dyn LogDir>,
    ) -> Result<DataServer> {
        let mut server = Self::with_disk(id, meter.clone(), disk, frames);
        RecoveryObs::new(&meter, id); // catalog stability: counters exist at 0
        let wal = Wal::create(log, meter)?;
        server.pool.set_no_steal(true);
        server.wal = Some(wal);
        Ok(server)
    }

    /// Reopen a server from a previously checkpointed device (no WAL).
    pub fn open(
        id: usize,
        meter: Arc<ResourceMeter>,
        disk: Arc<dyn DiskManager>,
        frames: usize,
    ) -> Result<DataServer> {
        Ok(Self::open_inner(id, meter, disk, frames)?.0)
    }

    /// Crash recovery: reopen the device, restore the last checkpoint,
    /// then replay the WAL tail. Torn or corrupt log tails are truncated
    /// (with a warning) — everything past the last valid frame was never
    /// acknowledged. Returns the recovered server; the log stays attached
    /// for further writes.
    pub fn open_with_wal(
        id: usize,
        meter: Arc<ResourceMeter>,
        disk: Arc<dyn DiskManager>,
        frames: usize,
        log: Arc<dyn LogDir>,
    ) -> Result<DataServer> {
        let (mut server, checkpoint_lsn) = Self::open_inner(id, meter.clone(), disk, frames)?;
        let obs = RecoveryObs::new(&meter, id);
        // Re-bind restored tables to the log under their original ids
        // before replay, so replayed source registrations and points
        // resolve table ids to the right shards.
        let (wal, recovery) = Wal::open(log, meter)?;
        if let Some(w) = &recovery.warning {
            eprintln!(
                "server {id}: WAL tail truncated ({} bytes dropped): {w}",
                recovery.truncated_bytes
            );
            obs.truncated_events.inc();
            obs.truncated_bytes.add(recovery.truncated_bytes);
        }
        for table in server.tables.read().values() {
            if let Some(tid) = table.restored_wal_table_id() {
                table.attach_wal(wal.clone(), tid, false)?;
            }
        }
        server.replay(&wal, &recovery.frames, checkpoint_lsn, &obs)?;
        server.pool.set_no_steal(true);
        server.wal = Some(wal);
        Ok(server)
    }

    fn open_inner(
        id: usize,
        meter: Arc<ResourceMeter>,
        disk: Arc<dyn DiskManager>,
        frames: usize,
    ) -> Result<(DataServer, u64)> {
        if disk.num_pages() == 0 {
            return Ok((Self::with_disk(id, meter, disk, frames), 0));
        }
        let server = Self::assemble(id, meter, BufferPool::new(disk, frames));
        let (magic, version, head, total_len, checkpoint_lsn) =
            server.pool.with_page(PageId(0), |buf| {
                (
                    get_u32(buf, 0),
                    get_u32(buf, 4),
                    get_u64(buf, 8),
                    get_u64(buf, 16) as usize,
                    get_u64(buf, 24),
                )
            })?;
        if magic != SUPER_MAGIC {
            // Device exists but was never checkpointed: treat as fresh.
            return Ok((server, 0));
        }
        let checkpoint_lsn = if version >= 2 { checkpoint_lsn } else { 0 };
        // Read the catalog chain.
        let mut bytes = Vec::with_capacity(total_len);
        let mut page = PageId(head);
        while page.is_valid() && bytes.len() < total_len {
            server.pool.with_page(page, |buf| {
                let next = get_u64(buf, 0);
                let len = get_u32(buf, 8) as usize;
                bytes.extend_from_slice(&buf[16..16 + len]);
                page = PageId(next);
            })?;
        }
        if bytes.len() != total_len {
            return Err(OdhError::Corrupt(format!(
                "checkpoint catalog truncated: {} of {total_len} bytes",
                bytes.len()
            )));
        }
        let catalog: HashMap<String, TableSnapshot> = serde_json::from_slice(&bytes)
            .map_err(|e| OdhError::Corrupt(format!("checkpoint catalog: {e}")))?;
        {
            let mut g = server.tables.write();
            for (name, snap) in &catalog {
                let table =
                    Arc::new(OdhTable::restore(server.pool.clone(), server.meter.clone(), snap)?);
                server.install(&mut g, name.clone(), table);
            }
        }
        Ok((server, checkpoint_lsn))
    }

    /// Replay recovered WAL frames (sorted by LSN) on top of the restored
    /// checkpoint. Frames at or below `checkpoint_lsn` are already in the
    /// image; point frames are additionally guarded by the per-source
    /// sealed low-water marks inside the table (idempotent replay). Frames
    /// referencing unknown tables or sources are skipped with a warning —
    /// their prerequisite frames were lost with an unsynced stripe, which
    /// means they were never acknowledged.
    fn replay(
        &self,
        wal: &Arc<Wal>,
        frames: &[odh_storage::WalFrame],
        checkpoint_lsn: u64,
        obs: &RecoveryObs,
    ) -> Result<()> {
        let mut by_id: HashMap<u16, Arc<OdhTable>> = HashMap::new();
        for table in self.tables.read().values() {
            if let Some(tid) = table.wal_table_id() {
                by_id.insert(tid, table.clone());
            }
        }
        for frame in frames {
            if frame.lsn <= checkpoint_lsn {
                if matches!(
                    frame.entry,
                    WalEntry::Point { .. } | WalEntry::LatePoint { .. } | WalEntry::Delete { .. }
                ) {
                    obs.skipped.inc();
                }
                continue;
            }
            match &frame.entry {
                WalEntry::TableDef { table, config } => {
                    if by_id.contains_key(table) {
                        continue;
                    }
                    let cfg = TableConfig::from(config);
                    let name = cfg.schema.name.to_ascii_lowercase();
                    let mut g = self.tables.write();
                    if g.contains_key(&name) {
                        continue;
                    }
                    let t = Arc::new(OdhTable::create(self.pool.clone(), self.meter.clone(), cfg)?);
                    t.attach_wal(wal.clone(), *table, false)?;
                    self.install(&mut g, name, t.clone());
                    drop(g);
                    by_id.insert(*table, t);
                }
                WalEntry::Source { table, source, class } => match by_id.get(table) {
                    Some(t) => t.adopt_source(*source, *class),
                    None => eprintln!(
                        "server {}: WAL replay skipped source {source} for unknown table {table} \
                         (never acknowledged)",
                        self.id
                    ),
                },
                WalEntry::Point { table, record } => match by_id.get(table) {
                    Some(t) => match t.replay_put(record, frame.lsn) {
                        Ok(true) => obs.replayed.inc(),
                        Ok(false) => obs.skipped.inc(),
                        Err(e) if e.kind() == "not_found" => {
                            obs.skipped.inc();
                            eprintln!(
                                "server {}: WAL replay skipped point at LSN {} ({e}; never \
                                 acknowledged)",
                                self.id, frame.lsn
                            )
                        }
                        Err(e) => return Err(e),
                    },
                    None => {
                        obs.skipped.inc();
                        eprintln!(
                            "server {}: WAL replay skipped point for unknown table {table} (never \
                             acknowledged)",
                            self.id
                        )
                    }
                },
                WalEntry::LatePoint { table, record } => match by_id.get(table) {
                    Some(t) => match t.replay_put_late(record, frame.lsn) {
                        Ok(true) => obs.replayed.inc(),
                        Ok(false) => obs.skipped.inc(),
                        Err(e) if e.kind() == "not_found" => {
                            obs.skipped.inc();
                            eprintln!(
                                "server {}: WAL replay skipped late point at LSN {} ({e}; never \
                                 acknowledged)",
                                self.id, frame.lsn
                            )
                        }
                        Err(e) => return Err(e),
                    },
                    None => {
                        obs.skipped.inc();
                        eprintln!(
                            "server {}: WAL replay skipped late point for unknown table {table} \
                             (never acknowledged)",
                            self.id
                        )
                    }
                },
                WalEntry::Delete { table, predicate } => match by_id.get(table) {
                    Some(t) => {
                        if t.replay_delete(predicate, frame.lsn) {
                            obs.replayed.inc()
                        } else {
                            obs.skipped.inc()
                        }
                    }
                    None => {
                        obs.skipped.inc();
                        eprintln!(
                            "server {}: WAL replay skipped delete for unknown table {table} \
                             (never acknowledged)",
                            self.id
                        )
                    }
                },
            }
        }
        Ok(())
    }

    /// Durably checkpoint.
    ///
    /// Without a WAL this flushes every table (sealing all buffers) and
    /// write-backs the pool. With one, the checkpoint is *lenient*: open
    /// ingest buffers stay open, the catalog snapshot excludes them, and
    /// the WAL drops the log segments that hold nothing above the last
    /// LSN before the oldest one still buffered — the segments kept replay
    /// the buffers on recovery.
    ///
    /// Old chains are not reclaimed (the pager never frees pages); each
    /// checkpoint costs `ceil(catalog/8176)` pages, negligible next to the
    /// data.
    pub fn checkpoint(&self) -> Result<()> {
        match self.wal.clone() {
            None => {
                self.flush()?;
                self.write_catalog(0)?;
                self.pool.flush_all()
            }
            Some(wal) => {
                // Make the log durable first: every row about to enter the
                // checkpoint image has its frame on stable storage before
                // the image referencing it exists.
                wal.sync()?;
                let safe = self
                    .tables
                    .read()
                    .values()
                    .filter_map(|t| t.min_open_lsn())
                    .min()
                    .map(|oldest_open| oldest_open - 1)
                    .unwrap_or_else(|| wal.max_lsn());
                self.write_catalog(safe)?;
                self.pool.flush_all()?;
                // Only after the superblock points at the new catalog is it
                // safe to drop segments at or below `safe`. Nothing is
                // rewritten: a crash part-way leaves extra segments, whose
                // frames replay skips (they're at or below the checkpoint
                // LSN).
                wal.truncate_through(safe)
            }
        }
    }

    fn write_catalog(&self, checkpoint_lsn: u64) -> Result<()> {
        let mut catalog: HashMap<String, TableSnapshot> = HashMap::new();
        for (name, table) in self.tables.read().iter() {
            catalog.insert(name.clone(), table.snapshot()?);
        }
        let bytes = serde_json::to_vec(&catalog)
            .map_err(|e| OdhError::Io(format!("serializing checkpoint: {e}")))?;
        // Build the chain back-to-front so pages can store successor ids.
        let mut next = NO_PAGE;
        for chunk in bytes.chunks(CHAIN_CAPACITY).rev() {
            let (page, _) = self.pool.allocate_with(|buf| {
                put_u64(buf, 0, next);
                put_u32(buf, 8, chunk.len() as u32);
                buf[16..16 + chunk.len()].copy_from_slice(chunk);
            })?;
            next = page.0;
        }
        // Two-phase: make the new chain (and all data pages) durable while
        // the superblock still points at the old catalog, then repoint it
        // with a single-page write. A crash between the phases recovers
        // from the old checkpoint — the WAL is only truncated afterwards.
        self.pool.flush_all()?;
        self.pool.with_page_mut(PageId(0), |buf| {
            put_u32(buf, 0, SUPER_MAGIC);
            put_u32(buf, 4, SUPER_VERSION);
            put_u64(buf, 8, next);
            put_u64(buf, 16, bytes.len() as u64);
            put_u64(buf, 24, checkpoint_lsn);
        })
    }

    /// Force every acknowledged-pending write to stable storage: flushes
    /// all WAL stripes and syncs the log. Returns the durable LSN (0
    /// without a WAL).
    pub fn sync(&self) -> Result<u64> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(0),
        }
    }

    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Names of the schema types this server holds shards for.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Create this server's shard of a schema type.
    pub fn create_table(&self, cfg: TableConfig) -> Result<Arc<OdhTable>> {
        let name = cfg.schema.name.to_ascii_lowercase();
        let mut g = self.tables.write();
        if g.contains_key(&name) {
            return Err(OdhError::Config(format!(
                "schema type '{name}' already exists on server {}",
                self.id
            )));
        }
        let table = Arc::new(OdhTable::create(self.pool.clone(), self.meter.clone(), cfg)?);
        if let Some(wal) = &self.wal {
            // Ids are per-server and never reused (tables can't be dropped);
            // the definition frame precedes every source/point frame of the
            // table in the log.
            let tid = g.values().filter_map(|t| t.wal_table_id()).max().map_or(0, |m| m + 1);
            table.attach_wal(wal.clone(), tid, true)?;
        }
        self.install(&mut g, name, table.clone());
        Ok(table)
    }

    pub fn table(&self, schema_type: &str) -> Result<Arc<OdhTable>> {
        self.tables.read().get(&schema_type.to_ascii_lowercase()).cloned().ok_or_else(|| {
            OdhError::NotFound(format!("schema type '{schema_type}' on server {}", self.id))
        })
    }

    /// Snapshot of every table handle on this server (admission control
    /// reads seal-queue depths across all of them).
    pub fn tables(&self) -> Vec<Arc<OdhTable>> {
        self.tables.read().values().cloned().collect()
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// On-disk bytes across this server's tables.
    pub fn storage_bytes(&self) -> u64 {
        self.tables.read().values().map(|t| t.size_bytes()).sum()
    }

    pub fn flush(&self) -> Result<()> {
        for t in self.tables.read().values() {
            t.flush()?;
        }
        Ok(())
    }

    /// Run one compaction pass over every table (see
    /// [`odh_storage::compact`]); reports are summed.
    pub fn compact(&self) -> Result<odh_storage::CompactReport> {
        let tables: Vec<_> = self.tables.read().values().cloned().collect();
        let mut report = odh_storage::CompactReport::default();
        for t in tables {
            report.absorb(&t.compact()?);
        }
        Ok(report)
    }

    /// Resident metadata cost of this server, summed over its tables:
    /// `(source registry bytes, open buffer bytes)`. Refreshes the
    /// `odh_table_*_bytes` gauges as a side effect so a scrape right
    /// after this call sees the same numbers.
    pub fn memory_footprint(&self) -> (u64, u64) {
        let (mut registry, mut buffers) = (0u64, 0u64);
        for t in self.tables.read().values() {
            t.refresh_memory_gauges();
            registry += t.registry_bytes() as u64;
            buffers += t.open_buffer_bytes() as u64;
        }
        (registry, buffers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_types::SchemaType;

    #[test]
    fn create_and_lookup_tables() {
        let s = DataServer::in_memory(0, ResourceMeter::unmetered());
        let cfg = TableConfig::new(SchemaType::new("env", ["t"]));
        s.create_table(cfg.clone()).unwrap();
        assert!(s.table("ENV").is_ok());
        assert_eq!(s.table("nope").err().unwrap().kind(), "not_found");
        assert_eq!(s.create_table(cfg).err().unwrap().kind(), "config");
    }
}
