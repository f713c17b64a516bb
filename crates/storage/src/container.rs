//! A container: the physical home of one batch structure.
//!
//! Per Fig. 1, each structure is a table of batch records with a B-tree on
//! its first two fields. Here that is a heap file (payloads, overflow
//! chains for big blobs) plus a [`BTree`] mapping the structure key to the
//! heap [`RecordId`].

use crate::batch::Batch;
use crate::select::Structure;
use crate::stats::MaxSpan;
use odh_btree::tree::TreeSnapshot;
use odh_btree::BTree;
use odh_pager::heap::HeapSnapshot;
use odh_pager::heap::{HeapFile, RecordId};
use odh_pager::pool::BufferPool;
use odh_types::Result;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-unique container ids. Every container (created or restored)
/// gets a fresh one, so decode-cache keys from a dropped generation can
/// never alias a live container's records.
static NEXT_CONTAINER_ID: AtomicU64 = AtomicU64::new(1);

/// Recovery image of a container.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ContainerSnapshot {
    pub structure: u8,
    pub heap: HeapSnapshot,
    pub index: TreeSnapshot,
    pub max_span: i64,
}

fn structure_to_u8(s: Structure) -> u8 {
    match s {
        Structure::Rts => 1,
        Structure::Irts => 2,
        Structure::Mg => 3,
    }
}

fn structure_from_u8(v: u8) -> Structure {
    match v {
        1 => Structure::Rts,
        2 => Structure::Irts,
        _ => Structure::Mg,
    }
}

/// Heap + index for one batch structure of one schema type.
pub struct Container {
    pub structure: Structure,
    id: u64,
    heap: HeapFile,
    index: BTree,
    max_span: MaxSpan,
}

impl Container {
    pub fn create(pool: Arc<BufferPool>, structure: Structure) -> Result<Container> {
        Ok(Container {
            structure,
            id: NEXT_CONTAINER_ID.fetch_add(1, Ordering::Relaxed),
            heap: HeapFile::create(pool.clone()),
            index: BTree::create(pool)?,
            max_span: MaxSpan::default(),
        })
    }

    /// Process-unique id; half of a decode-cache key. Heap record ids are
    /// never reused within a container, so `(id, rid)` identifies an
    /// immutable sealed batch for the container's lifetime.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Store one serialized batch under its structure key.
    pub fn insert(&self, key: &[u8], payload: &[u8], span: i64) -> Result<()> {
        let rid = self.heap.insert(payload)?;
        self.index.insert(key, rid.to_u64())?;
        self.max_span.note(span);
        Ok(())
    }

    /// Batches whose key lies in `[lo, hi]`.
    pub fn range(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<Batch>> {
        let keyed = self.keyed_rids(Some(lo), Some(hi))?;
        keyed.into_iter().map(|(_, rid)| self.get_batch(rid)).collect()
    }

    /// `(key, rid)` of every batch whose key lies in `[lo, hi]`, in key
    /// order; a `None` bound is open. Scans resolve the rids through the
    /// decode cache.
    pub fn keyed_rids(&self, lo: Option<&[u8]>, hi: Option<&[u8]>) -> Result<Vec<(Vec<u8>, u64)>> {
        self.index.range(lo, hi, true)?.collect()
    }

    /// Heap record ids of every batch, in key order.
    pub fn all_rids(&self) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in self.index.range(None, None, true)? {
            let (_, rid) = entry?;
            out.push(rid);
        }
        Ok(out)
    }

    /// Fetch and deserialize one batch by heap record id.
    pub fn get_batch(&self, rid: u64) -> Result<Batch> {
        let payload = self.heap.get(RecordId::from_u64(rid))?;
        Batch::deserialize(&payload)
    }

    /// Capture the container's recovery image (flush the pool first).
    pub fn snapshot(&self) -> ContainerSnapshot {
        ContainerSnapshot {
            structure: structure_to_u8(self.structure),
            heap: self.heap.snapshot(),
            index: self.index.snapshot(),
            max_span: self.max_span.get(),
        }
    }

    /// Re-attach a container from its recovery image.
    pub fn restore(pool: Arc<BufferPool>, snap: &ContainerSnapshot) -> Container {
        let max_span = MaxSpan::default();
        max_span.note(snap.max_span);
        Container {
            structure: structure_from_u8(snap.structure),
            id: NEXT_CONTAINER_ID.fetch_add(1, Ordering::Relaxed),
            heap: HeapFile::restore(pool.clone(), &snap.heap),
            index: BTree::restore(pool, &snap.index),
            max_span,
        }
    }

    /// Largest `(end - begin)` span of any stored batch; range scans start
    /// their key range this far left of the query's `t1`.
    pub fn max_span(&self) -> i64 {
        self.max_span.get()
    }

    pub fn record_count(&self) -> u64 {
        self.heap.record_count()
    }

    pub fn index_height(&self) -> u32 {
        self.index.height()
    }

    pub fn index_entries(&self) -> u64 {
        self.index.len()
    }

    /// On-disk footprint: heap pages + index pages.
    pub fn size_bytes(&self) -> u64 {
        self.heap.size_bytes() + self.index.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RtsBatch;
    use crate::blob::ValueBlob;
    use odh_compress::column::Policy;
    use odh_pager::disk::MemDisk;
    use odh_types::SourceId;

    fn container() -> Container {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 64);
        Container::create(pool, Structure::Rts).unwrap()
    }

    fn rts(src: u64, begin: i64, n: u32) -> RtsBatch {
        let ts: Vec<i64> = (0..n as i64).map(|i| begin + i * 1000).collect();
        let cols = vec![ts.iter().map(|&t| Some(t as f64)).collect::<Vec<_>>()];
        RtsBatch {
            source: SourceId(src),
            begin,
            interval: 1000,
            count: n,
            blob: ValueBlob::encode(&ts, &cols, Policy::Lossless),
            summaries: None,
        }
    }

    #[test]
    fn insert_and_range_by_source_prefix() {
        let c = container();
        for src in 0..5u64 {
            for batch_i in 0..4i64 {
                let b = rts(src, batch_i * 100_000, 100);
                c.insert(&b.key(), &b.serialize(), b.end() - b.begin).unwrap();
            }
        }
        assert_eq!(c.record_count(), 20);
        assert_eq!(c.max_span(), 99_000);
        // Range over one source's middle batches.
        let lo = rts(2, 100_000, 1).key();
        let hi = rts(2, 200_000, 1).key();
        let got = c.range(&lo, &hi).unwrap();
        assert_eq!(got.len(), 2);
        for b in &got {
            match b {
                Batch::Rts(r) => assert_eq!(r.source, SourceId(2)),
                other => panic!("wrong structure {other:?}"),
            }
        }
    }

    #[test]
    fn all_rids_sees_everything() {
        let c = container();
        for i in 0..7i64 {
            let b = rts(1, i * 1000, 3);
            c.insert(&b.key(), &b.serialize(), b.end() - b.begin).unwrap();
        }
        assert_eq!(c.all_rids().unwrap().len(), 7);
        assert!(c.size_bytes() > 0);
    }

    #[test]
    fn big_blobs_survive_via_overflow() {
        let c = container();
        let b = rts(9, 0, 3000); // ~24 KB raw → overflow chain
        c.insert(&b.key(), &b.serialize(), b.end() - b.begin).unwrap();
        let got = c.range(&b.key(), &b.key()).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].n_points(), 3000);
    }
}
