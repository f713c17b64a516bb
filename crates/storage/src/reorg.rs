//! The MG → RTS/IRTS reorganizer.
//!
//! Table 1 prescribes MG for *ingesting* low-frequency data but RTS/IRTS
//! for *historical* queries on the same sources. The bridge is this
//! reorganization pass: sealed MG batches (many sources per record) are
//! regrouped per source and rewritten as RTS batches (regular sources —
//! timestamps become implicit) or IRTS batches (irregular sources). After
//! the pass, a historical query for one meter reads a handful of
//! per-source batches instead of scanning its whole group's history.
//!
//! The pass is destructive on the MG container: a fresh, empty MG
//! container is swapped in first, so concurrent ingest keeps appending
//! while the old generation is drained. A seal ticket spans the swap, the
//! rewrite and the switch of readers to the per-source histories, so a
//! read overlapping any of it retries: it sees each moved point exactly
//! once, in the MG generation before the pass or per source after it.

use crate::batch::{summarize_columns, Batch, IrtsBatch, RtsBatch};
use crate::blob::ValueBlob;
use crate::container::Container;
use crate::select::Structure;
use crate::table::OdhTable;
use odh_types::{Result, SourceId};
use std::collections::HashMap;

/// Per-source accumulation: `(timestamps, cols[tag][row])`.
type SourceRows = (Vec<i64>, Vec<Vec<Option<f64>>>);
use std::sync::Arc;

impl OdhTable {
    /// Rewrite every sealed MG batch into per-source RTS/IRTS batches.
    /// Returns the number of points moved.
    pub fn reorganize(&self) -> Result<u64> {
        let _span = self.obs.registry.span("reorg", &self.obs.reorg);
        let ticket = self.seals.begin();
        // Swap in a fresh MG generation; drain the old one.
        let old = {
            let fresh = Arc::new(Container::create(self.pool().clone(), Structure::Mg)?);
            let mut g = self.mg.write();
            std::mem::replace(&mut *g, fresh)
        };
        let batches = old.scan_all()?;
        // Regroup rows per source.
        let tag_count = self.schema().tag_count();
        let all_tags: Vec<usize> = (0..tag_count).collect();
        let mut per_source: HashMap<u64, SourceRows> = HashMap::new();
        let mut moved = 0u64;
        for batch in &batches {
            let Batch::Mg(b) = batch else { continue };
            let cols = b.blob.decode_tags(&b.timestamps, &all_tags)?;
            for (row, (&ts, &id)) in b.timestamps.iter().zip(&b.ids).enumerate() {
                let entry = per_source
                    .entry(id.0)
                    .or_insert_with(|| (Vec::new(), vec![Vec::new(); tag_count]));
                entry.0.push(ts);
                for (tag, col) in cols.iter().enumerate() {
                    entry.1[tag].push(col[row]);
                }
                moved += 1;
            }
        }
        // Rewrite per source, batch_size points at a time, in time order.
        let b_size = self.config().batch_size;
        let policy = self.config().policy;
        let mut source_ids: Vec<u64> = per_source.keys().copied().collect();
        source_ids.sort_unstable();
        for id in source_ids {
            let (mut ts, mut cols) = per_source.remove(&id).unwrap();
            sort_by_ts(&mut ts, &mut cols);
            let class = self.source_class(SourceId(id)).expect("MG data for unregistered source");
            let n = ts.len();
            let mut start = 0usize;
            while start < n {
                let end = (start + b_size).min(n);
                let chunk_ts = &ts[start..end];
                let chunk_cols: Vec<Vec<Option<f64>>> =
                    cols.iter().map(|c| c[start..end].to_vec()).collect();
                // Hold the generation lock across each insert so the
                // rewritten batch can never land in a generation the
                // compactor has already swapped out (see `install_built`).
                match class.interval() {
                    Some(interval) if is_regular_run(chunk_ts, interval.micros()) => {
                        let blob = ValueBlob::encode(chunk_ts, &chunk_cols, policy);
                        let batch = RtsBatch {
                            source: SourceId(id),
                            begin: chunk_ts[0],
                            interval: interval.micros(),
                            count: chunk_ts.len() as u32,
                            blob,
                            summaries: Some(summarize_columns(&chunk_cols)),
                        };
                        let span = batch.end() - batch.begin;
                        self.rts.read().insert(&batch.key(), &batch.serialize(), span)?;
                    }
                    _ => {
                        let blob = ValueBlob::encode(chunk_ts, &chunk_cols, policy);
                        let batch = IrtsBatch {
                            source: SourceId(id),
                            begin: chunk_ts[0],
                            end: *chunk_ts.last().unwrap(),
                            timestamps: chunk_ts.to_vec(),
                            blob,
                            summaries: Some(summarize_columns(&chunk_cols)),
                        };
                        let span = batch.end - batch.begin;
                        self.irts.read().insert(&batch.key(), &batch.serialize(), span)?;
                    }
                }
                self.stats.batches_reorganized.inc();
                start = end;
            }
        }
        self.reorganized.store(true, std::sync::atomic::Ordering::Release);
        drop(ticket);
        // The drained generation is unreachable (its container id is
        // retired with it); evict its decode-cache entries so the budget
        // goes back to live batches. Done last: concurrent scans that
        // started against the old generation keep their `Arc`s alive.
        self.decode_cache().invalidate_container(old.id());
        Ok(moved)
    }
}

pub(crate) fn is_regular_run(ts: &[i64], interval: i64) -> bool {
    ts.windows(2).all(|w| w[1] - w[0] == interval)
}

pub(crate) fn sort_by_ts(ts: &mut [i64], cols: &mut [Vec<Option<f64>>]) {
    if ts.windows(2).all(|w| w[0] <= w[1]) {
        return;
    }
    let mut perm: Vec<usize> = (0..ts.len()).collect();
    perm.sort_by_key(|&i| ts[i]);
    let old = ts.to_vec();
    for (new, &o) in perm.iter().enumerate() {
        ts[new] = old[o];
    }
    for col in cols.iter_mut() {
        let old = col.clone();
        for (new, &o) in perm.iter().enumerate() {
            col[new] = old[o];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableConfig;
    use odh_pager::disk::MemDisk;
    use odh_pager::pool::BufferPool;
    use odh_sim::ResourceMeter;
    use odh_types::{Duration, Record, SchemaType, SourceClass, Timestamp};

    fn meter_table(b: usize, group: u64) -> OdhTable {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 512);
        let schema = SchemaType::new("meters", ["kwh", "volts"]);
        OdhTable::create(
            pool,
            ResourceMeter::unmetered(),
            TableConfig::new(schema).with_batch_size(b).with_mg_group_size(group),
        )
        .unwrap()
    }

    /// Simulate `sweeps` reporting rounds of `n` 15-minute meters.
    fn fill(t: &OdhTable, n: u64, sweeps: usize) {
        for id in 0..n {
            t.register_source(SourceId(id), SourceClass::regular_low(Duration::from_minutes(15)))
                .unwrap();
        }
        for s in 0..sweeps {
            for id in 0..n {
                t.put(&Record::dense(
                    SourceId(id),
                    Timestamp(s as i64 * 900_000_000),
                    [s as f64 + id as f64, 230.0],
                ))
                .unwrap();
            }
        }
        t.flush().unwrap();
    }

    #[test]
    fn reorganize_moves_mg_points_to_rts() {
        let t = meter_table(50, 100);
        fill(&t, 20, 10); // 200 points in MG
        let (_, _, mg_before) = t.record_counts();
        assert!(mg_before > 0);
        let moved = t.reorganize().unwrap();
        assert_eq!(moved, 200);
        let (rts, irts, mg) = t.record_counts();
        assert_eq!(mg, 0, "old generation drained");
        assert!(rts > 0, "regular meters become RTS");
        assert_eq!(irts, 0);
    }

    #[test]
    fn historical_query_equivalent_before_and_after() {
        let t = meter_table(50, 100);
        fill(&t, 20, 10);
        let before =
            t.historical_scan(SourceId(7), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        assert_eq!(before.len(), 10);
        t.reorganize().unwrap();
        let after =
            t.historical_scan(SourceId(7), Timestamp(0), Timestamp(i64::MAX), &[0, 1]).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn slice_query_equivalent_before_and_after() {
        let t = meter_table(50, 100);
        fill(&t, 20, 10);
        let w1 = Timestamp(3 * 900_000_000);
        let w2 = Timestamp(5 * 900_000_000);
        let before = t.slice_scan(w1, w2, &[0], None).unwrap();
        assert_eq!(before.len(), 60); // sweeps 3,4,5 × 20 meters
        t.reorganize().unwrap();
        let after = t.slice_scan(w1, w2, &[0], None).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn ingest_continues_after_reorganize() {
        let t = meter_table(10, 100);
        fill(&t, 5, 4);
        t.reorganize().unwrap();
        // New sweeps land in the fresh MG generation.
        for id in 0..5u64 {
            t.put(&Record::dense(SourceId(id), Timestamp(100 * 900_000_000), [9.0, 9.0])).unwrap();
        }
        t.flush().unwrap();
        let pts = t.historical_scan(SourceId(3), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts.last().unwrap().values[0], Some(9.0));
    }

    /// A whole-table read running beside `reorganize` must see every
    /// point exactly once, however the two interleave.
    #[test]
    fn reads_during_reorganize_see_every_point() {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 4096);
        let cfg = TableConfig::new(SchemaType::new("meters", ["kwh", "volts"]))
            .with_batch_size(256)
            .with_mg_group_size(100);
        let t = OdhTable::create(pool, ResourceMeter::unmetered(), cfg).unwrap();
        for id in 0..100u64 {
            t.register_source(SourceId(id), SourceClass::irregular_low()).unwrap();
            let ts: Vec<i64> = (0..1_000).map(|k| k * 1_000_000 + id as i64).collect();
            let col: Vec<Option<f64>> = (0..1_000).map(|k| Some(k as f64)).collect();
            t.put_cols(SourceId(id), &ts, &[col.clone(), col]).unwrap();
        }
        t.flush().unwrap();
        assert!(t.record_counts().2 > 0, "history sealed into MG");
        let count = || -> u64 {
            let grain = Some(crate::table::TimeGrain::Whole);
            let chunks =
                t.scan_columnar(Timestamp::MIN, Timestamp::MAX, &[0], None, &[], grain).unwrap();
            chunks.iter().map(|c| c.summary.as_ref().map_or(c.len() as u64, |s| s.rows)).sum()
        };
        assert_eq!(count(), 100_000);
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let reader = s.spawn(|| loop {
                let last = done.load(std::sync::atomic::Ordering::Acquire);
                assert_eq!(count(), 100_000, "a read during reorganize lost rows");
                if last {
                    break;
                }
            });
            assert_eq!(t.reorganize().unwrap(), 100_000);
            done.store(true, std::sync::atomic::Ordering::Release);
            reader.join().unwrap();
        });
        assert_eq!(t.record_counts().2, 0, "MG drained");
    }

    #[test]
    fn irregular_low_sources_reorganize_to_irts() {
        let t = meter_table(10, 100);
        for id in 0..4u64 {
            t.register_source(SourceId(id), SourceClass::irregular_low()).unwrap();
        }
        for s in 0..5i64 {
            for id in 0..4u64 {
                t.put(&Record::dense(
                    SourceId(id),
                    Timestamp(s * 1_380_000_000 + id as i64 * 977),
                    [1.0, 2.0],
                ))
                .unwrap();
            }
        }
        t.flush().unwrap();
        t.reorganize().unwrap();
        let (rts, irts, mg) = t.record_counts();
        assert_eq!(rts, 0);
        assert!(irts > 0);
        assert_eq!(mg, 0);
        let pts = t.historical_scan(SourceId(2), Timestamp(0), Timestamp(i64::MAX), &[0]).unwrap();
        assert_eq!(pts.len(), 5);
    }
}
