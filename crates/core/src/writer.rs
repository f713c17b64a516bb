//! The ODH write interface.
//!
//! "The ODH storage component ingests the operational data from devices
//! and sensors through a set of carefully designed writer APIs that are
//! highly efficient for the operational data model. The insertion process
//! does not support transactions" (§3). The writer bypasses SQL entirely:
//! routing is computed arithmetic (no router catalog query), records go
//! straight into the owning server's ingest buffers, and the workload's
//! own timestamps drive the virtual clock of the resource models.
//!
//! Two write paths exist:
//!
//! - [`OdhWriter`]: the per-record API. It takes `&self` and every field
//!   it touches per record is an atomic or a pre-resolved handle, so one
//!   writer can be shared across threads.
//! - [`ParallelWriter`]: the batch API. It partitions a record batch into
//!   per-source-disjoint slices and ingests each slice on a scoped
//!   thread, relying on the lock-striped ingest buffers underneath to
//!   keep the slices from serializing on one mutex.

use crate::cluster::Cluster;
use odh_sim::ResourceMeter;
use odh_storage::OdhTable;
use odh_types::{Record, Result};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Non-transactional batched writer for one schema type.
///
/// Routing state (group size, table handles, the meter) is resolved once
/// at creation so the per-record path is a handful of
/// arithmetic ops and atomics — no catalog lookups on the hot path.
pub struct OdhWriter {
    cluster: Arc<Cluster>,
    /// Hoisted off the hot path: one `Arc` clone at creation instead of a
    /// `cluster.meter()` call per record.
    meter: Arc<ResourceMeter>,
    /// Per-server table handles, resolved once at writer creation.
    tables: Vec<Arc<OdhTable>>,
    group_size: u64,
    written: AtomicU64,
}

impl OdhWriter {
    pub fn new(cluster: Arc<Cluster>, schema_type: &str) -> Result<OdhWriter> {
        let tables: Result<Vec<Arc<OdhTable>>> =
            cluster.servers().iter().map(|s| s.table(schema_type)).collect();
        let group_size =
            cluster.type_config(schema_type).map(|c| c.mg_group_size).unwrap_or(1000).max(1);
        Ok(OdhWriter {
            tables: tables?,
            group_size,
            meter: cluster.meter().clone(),
            cluster,
            written: AtomicU64::new(0),
        })
    }

    /// Index of the table (= server) owning `source_id`.
    #[inline]
    fn table_of(&self, source_id: u64) -> usize {
        ((source_id / self.group_size) % self.tables.len() as u64) as usize
    }

    /// Register a source on its owning table through the writer's
    /// pre-resolved handles. Same routing as
    /// [`Cluster::register_source`](crate::Cluster::register_source),
    /// minus the per-call catalog lookup — onboarding a million-source
    /// fleet pays the name resolution once, at writer creation.
    pub fn register_source(
        &self,
        source: odh_types::SourceId,
        class: odh_types::SourceClass,
    ) -> Result<()> {
        self.tables[self.table_of(source.0)].register_source(source, class)
    }

    /// Ingest one record; drives the virtual clock forward to its
    /// timestamp. Takes `&self`: the writer is safe to share across
    /// ingest threads.
    pub fn write(&self, record: &Record) -> Result<()> {
        self.meter.set_now(record.ts.micros());
        self.tables[self.table_of(record.source.0)].put(record)?;
        self.written.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Ingest a columnar run of same-source records (`cols[tag][row]`)
    /// without materializing `Record`s. Routing, metering, and the
    /// storage-side locks are paid once per run instead of once per row;
    /// the ingested rows and the tables' statistics are identical to a
    /// `write` loop.
    pub fn write_cols(
        &self,
        source: odh_types::SourceId,
        ts: &[i64],
        cols: &[Vec<Option<f64>>],
    ) -> Result<u64> {
        let n = ts.len();
        if n == 0 {
            return Ok(0);
        }
        // The per-row path drives the clock to each record's timestamp in
        // turn; the net effect is the run's last timestamp.
        self.meter.set_now(ts[n - 1]);
        self.tables[self.table_of(source.0)].put_cols(source, ts, cols)?;
        self.written.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n as u64)
    }

    /// Ingest a batch of records on the calling thread. Returns the
    /// number ingested.
    pub fn write_batch(&self, records: &[Record]) -> Result<u64> {
        for record in records {
            self.write(record)?;
        }
        Ok(records.len() as u64)
    }

    /// Records written through this writer.
    pub fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Seal open buffers and write back dirty pages.
    pub fn flush(&self) -> Result<()> {
        self.cluster.flush()
    }

    /// Group-commit barrier: every record written before this call is
    /// durable once it returns (WAL-backed clusters only; no-op otherwise).
    pub fn sync(&self) -> Result<()> {
        self.cluster.sync()
    }
}

/// Multi-threaded batch ingest for one schema type.
///
/// A batch is partitioned by the Mixed-Grouping group of each record's
/// source (`source / mg_group_size`) into at most `threads` buckets.
/// Because a source belongs to exactly one group and a group maps to
/// exactly one bucket, every source's records land in one bucket **in
/// their original order** — parallel ingest preserves per-source record
/// order, the property the stress tests pin down. With `threads` equal to
/// the server count the partition degenerates to the paper's natural
/// one-slice-per-owning-server split; larger values further split each
/// server's share across that server's lock-striped shards.
pub struct ParallelWriter {
    writer: OdhWriter,
    threads: usize,
}

impl ParallelWriter {
    /// One ingest thread per data server (the natural partition).
    pub fn new(cluster: Arc<Cluster>, schema_type: &str) -> Result<ParallelWriter> {
        let threads = cluster.servers().len();
        Ok(ParallelWriter { writer: OdhWriter::new(cluster, schema_type)?, threads })
    }

    /// Override the ingest width (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> ParallelWriter {
        self.threads = threads.max(1);
        self
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ingest `records` across up to `threads` scoped worker threads.
    /// Returns the number of records ingested.
    pub fn write_batch(&self, records: &[Record]) -> Result<u64> {
        if self.threads <= 1 || records.len() < 2 {
            return self.writer.write_batch(records);
        }
        let mut buckets: Vec<Vec<&Record>> = vec![Vec::new(); self.threads];
        for record in records {
            let group = record.source.0 / self.writer.group_size;
            buckets[(group % self.threads as u64) as usize].push(record);
        }
        let slices: Vec<&[&Record]> =
            buckets.iter().filter(|b| !b.is_empty()).map(|b| b.as_slice()).collect();
        if slices.len() <= 1 {
            // Everything hashed to one bucket; skip the thread machinery.
            return self.writer.write_batch(records);
        }
        self.writer.meter.note_parallel(slices.len());
        for table in &self.writer.tables {
            table.concurrency().note_parallel_tasks(1);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = slices
                .iter()
                .map(|slice| {
                    scope.spawn(move || {
                        for record in *slice {
                            self.writer.write(record)?;
                        }
                        Ok::<(), odh_types::OdhError>(())
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("ingest worker panicked")?;
            }
            Ok::<(), odh_types::OdhError>(())
        })?;
        Ok(records.len() as u64)
    }

    /// The shared per-record writer underneath.
    pub fn writer(&self) -> &OdhWriter {
        &self.writer
    }

    /// Records written (across all batches and threads).
    pub fn written(&self) -> u64 {
        self.writer.written()
    }

    /// Seal open buffers and write back dirty pages.
    pub fn flush(&self) -> Result<()> {
        self.writer.flush()
    }

    /// Group-commit barrier (see [`OdhWriter::sync`]).
    pub fn sync(&self) -> Result<()> {
        self.writer.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_sim::ResourceMeter;
    use odh_storage::TableConfig;
    use odh_types::{SchemaType, SourceClass, SourceId, Timestamp};

    fn env_cluster(servers: usize, sources: u64) -> Arc<Cluster> {
        let c = Cluster::in_memory(servers, ResourceMeter::new(8));
        c.define_schema_type(TableConfig::new(SchemaType::new("env", ["t"])).with_mg_group_size(1))
            .unwrap();
        for id in 0..sources {
            c.register_source("env", SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        c
    }

    #[test]
    fn writer_routes_and_counts() {
        let c = env_cluster(3, 9);
        let w = OdhWriter::new(c.clone(), "env").unwrap();
        for i in 0..90u64 {
            w.write(&Record::dense(SourceId(i % 9), Timestamp::from_secs(i as i64), [i as f64]))
                .unwrap();
        }
        w.flush().unwrap();
        assert_eq!(w.written(), 90);
        // Every server received its share.
        for s in c.servers() {
            let t = s.table("env").unwrap();
            assert_eq!(t.stats().snapshot().points_ingested, 30);
        }
        // Virtual clock advanced with the data.
        assert_eq!(c.meter().now_us(), 89 * 1_000_000);
    }

    #[test]
    fn writer_registers_on_the_owning_table() {
        let c = env_cluster(3, 0);
        let w = OdhWriter::new(c.clone(), "env").unwrap();
        for id in 0..9u64 {
            w.register_source(SourceId(id), SourceClass::irregular_high()).unwrap();
        }
        // Same routing as record ingest: each server owns its share, and
        // a write to a writer-registered source lands without error.
        for s in c.servers() {
            assert_eq!(s.table("env").unwrap().source_count(), 3);
        }
        w.write(&Record::dense(SourceId(7), Timestamp::from_secs(1), [1.0])).unwrap();
    }

    #[test]
    fn unknown_schema_type_fails_fast() {
        let c = Cluster::in_memory(1, ResourceMeter::unmetered());
        assert!(OdhWriter::new(c, "nope").is_err());
    }

    #[test]
    fn batch_write_matches_serial() {
        let c = env_cluster(2, 6);
        let w = OdhWriter::new(c.clone(), "env").unwrap();
        let records: Vec<Record> = (0..60u64)
            .map(|i| Record::dense(SourceId(i % 6), Timestamp::from_secs(i as i64), [i as f64]))
            .collect();
        assert_eq!(w.write_batch(&records).unwrap(), 60);
        assert_eq!(w.written(), 60);
    }

    #[test]
    fn parallel_batch_preserves_totals_and_notes_region() {
        let c = env_cluster(2, 8);
        let pw = ParallelWriter::new(c.clone(), "env").unwrap().with_threads(4);
        let records: Vec<Record> = (0..400u64)
            .map(|i| Record::dense(SourceId(i % 8), Timestamp::from_secs(i as i64), [i as f64]))
            .collect();
        assert_eq!(pw.write_batch(&records).unwrap(), 400);
        pw.flush().unwrap();
        assert_eq!(pw.written(), 400);
        let total: u64 = c
            .servers()
            .iter()
            .map(|s| s.table("env").unwrap().stats().snapshot().points_ingested)
            .sum();
        assert_eq!(total, 400);
        let report = c.meter().parallel_report();
        assert_eq!(report.regions, 1);
        assert!(report.max_width >= 2 && report.max_width <= 4);
    }

    #[test]
    fn parallel_batch_single_bucket_falls_back_to_serial() {
        let c = env_cluster(1, 1);
        let pw = ParallelWriter::new(c.clone(), "env").unwrap().with_threads(4);
        let records: Vec<Record> = (0..10u64)
            .map(|i| Record::dense(SourceId(0), Timestamp::from_secs(i as i64), [i as f64]))
            .collect();
        assert_eq!(pw.write_batch(&records).unwrap(), 10);
        // One source → one bucket → no parallel region entered.
        assert_eq!(c.meter().parallel_report().regions, 0);
    }
}
