//! Off-thread seal pipeline: full ingest buffers hand their rows to a
//! bounded queue; a small worker pool encodes and installs the batches so
//! the ingesting thread never pays blob encoding.
//!
//! **Visibility contract.** Rows live in exactly one of three places at
//! every stable seal epoch — an open ingest buffer, this pipeline's
//! `pending` map, or a container. The hand-off *into* `pending`
//! (`SealPipeline::try_enqueue`) happens under the ingest path's seal
//! ticket; the hand-off *out* (container insert +
//! `SealPipeline::remove_pending`) happens under the worker's ticket.
//! Readers merge `SealPipeline::pending_snapshot` exactly like an open
//! buffer, so acknowledged rows stay queryable while queued (the paper's
//! dirty-read isolation, §3).
//!
//! **Backpressure.** The queue is bounded at `depth_limit` jobs; when it
//! is full, `SealPipeline::try_enqueue` refuses and the ingesting
//! thread seals inline. Memory stays bounded, and a stalled worker pool
//! degrades to the pre-pipeline behaviour instead of buffering without
//! limit.
//!
//! **Durability.** A queued job still counts toward
//! `SealPipeline::min_first_lsn`, so checkpoints never truncate the WAL
//! past acknowledged-but-unsealed rows; a crash with jobs in flight
//! replays them from the log. A worker error leaves its job in `pending`
//! (still readable, still WAL-covered) and surfaces at the next
//! `SealPipeline::drain`.

use crate::table::SourceMeta;
use odh_types::{GroupId, OdhError, Result, SourceId};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// What a queued seal job will become: per-source RTS/IRTS batches, or
/// one MG batch for a group.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JobKind {
    Source { source: SourceId, meta: SourceMeta },
    Mg { group: GroupId },
}

/// One buffer's worth of rows taken off the ingest path but not yet
/// installed in a container. Immutable once enqueued: workers read it to
/// encode, scans read it for dirty-read visibility.
pub(crate) struct PendingSeal {
    pub id: u64,
    pub kind: JobKind,
    pub ts: Vec<i64>,
    /// Row sources, parallel to `ts`; empty for `JobKind::Source` jobs
    /// (every row belongs to the job's source).
    pub ids: Vec<SourceId>,
    /// `cols[tag][row]`.
    pub cols: Vec<Vec<Option<f64>>>,
    /// WAL LSN bounds of the rows (0 without a WAL).
    pub first_lsn: u64,
    pub last_lsn: u64,
    pub enqueued_at: Instant,
}

impl PendingSeal {
    pub(crate) fn source(
        source: SourceId,
        meta: SourceMeta,
        ts: Vec<i64>,
        cols: Vec<Vec<Option<f64>>>,
        first_lsn: u64,
        last_lsn: u64,
    ) -> PendingSeal {
        PendingSeal {
            id: 0,
            kind: JobKind::Source { source, meta },
            ts,
            ids: Vec::new(),
            cols,
            first_lsn,
            last_lsn,
            enqueued_at: Instant::now(),
        }
    }

    pub(crate) fn mg(
        group: GroupId,
        ts: Vec<i64>,
        ids: Vec<SourceId>,
        cols: Vec<Vec<Option<f64>>>,
        first_lsn: u64,
        last_lsn: u64,
    ) -> PendingSeal {
        PendingSeal {
            id: 0,
            kind: JobKind::Mg { group },
            ts,
            ids,
            cols,
            first_lsn,
            last_lsn,
            enqueued_at: Instant::now(),
        }
    }

    /// Rows with `t1 <= ts <= t2`, projected to `tags`, optionally
    /// restricted to one source — the same dirty-read shape the ingest
    /// buffers expose.
    pub(crate) fn rows_in_range<'a>(
        &'a self,
        t1: i64,
        t2: i64,
        tags: &'a [usize],
        want: Option<SourceId>,
    ) -> impl Iterator<Item = (SourceId, i64, Vec<Option<f64>>)> + 'a {
        self.ts.iter().enumerate().filter_map(move |(row, &t)| {
            if t < t1 || t > t2 {
                return None;
            }
            let id = match self.kind {
                JobKind::Source { source, .. } => source,
                JobKind::Mg { .. } => self.ids[row],
            };
            if let Some(w) = want {
                if id != w {
                    return None;
                }
            }
            Some((id, t, tags.iter().map(|&tag| self.cols[tag][row]).collect()))
        })
    }
}

/// What [`SealPipeline::next_job`] hands a worker.
pub(crate) enum Wake {
    Job(Arc<PendingSeal>),
    /// Timed out with nothing queued — the worker checks whether its
    /// table is still alive, then waits again.
    Idle,
    Shutdown,
}

struct PipeInner {
    /// Jobs waiting for a worker, in enqueue (≈ LSN) order.
    queue: VecDeque<Arc<PendingSeal>>,
    /// Every job not yet installed — queued *and* mid-encode. This map,
    /// not the queue, is what readers and `min_first_lsn` consult.
    pending: HashMap<u64, Arc<PendingSeal>>,
    next_id: u64,
    /// Jobs popped off the queue whose `complete` hasn't run yet.
    in_flight: usize,
    shutdown: bool,
    /// First worker error since the last drain.
    error: Option<OdhError>,
}

/// The bounded seal queue plus its pending set (one per table).
pub(crate) struct SealPipeline {
    inner: Mutex<PipeInner>,
    job_ready: Condvar,
    drained: Condvar,
    depth_limit: usize,
}

impl SealPipeline {
    /// Lock the pipeline state; a poisoned lock (worker panicked) is
    /// recovered — the state transitions are all panic-safe.
    fn lock(&self) -> MutexGuard<'_, PipeInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    pub(crate) fn new(depth_limit: usize) -> SealPipeline {
        SealPipeline {
            inner: Mutex::new(PipeInner {
                queue: VecDeque::new(),
                pending: HashMap::new(),
                next_id: 0,
                in_flight: 0,
                shutdown: false,
                error: None,
            }),
            job_ready: Condvar::new(),
            drained: Condvar::new(),
            depth_limit,
        }
    }

    /// Hand a job to the worker pool. Refuses (returning the job back)
    /// when the queue is full or the pipeline is shutting down — the
    /// caller then seals inline. Must be called under a seal ticket that
    /// also covered the buffer take, so readers never observe the rows
    /// in neither place.
    // The Err variant hands the whole job back so the refused caller can
    // seal it inline; boxing it would put an allocation on the very path
    // this pipeline exists to keep allocation-free.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_enqueue(&self, mut job: PendingSeal) -> std::result::Result<(), PendingSeal> {
        let mut g = self.lock();
        if g.shutdown || g.queue.len() >= self.depth_limit {
            return Err(job);
        }
        g.next_id += 1;
        job.id = g.next_id;
        let job = Arc::new(job);
        g.pending.insert(job.id, job.clone());
        g.queue.push_back(job);
        drop(g);
        self.job_ready.notify_one();
        Ok(())
    }

    /// Worker side: block up to `timeout` for the next job.
    pub(crate) fn next_job(&self, timeout: Duration) -> Wake {
        let mut g = self.lock();
        loop {
            if g.shutdown {
                return Wake::Shutdown;
            }
            if let Some(job) = g.queue.pop_front() {
                g.in_flight += 1;
                return Wake::Job(job);
            }
            let (back, res) = self
                .job_ready
                .wait_timeout(g, timeout)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g = back;
            if res.timed_out() {
                return Wake::Idle;
            }
        }
    }

    /// Retire an installed job from the pending set. Called by the worker
    /// *inside* its install ticket, so the container-insert and the
    /// pending-removal are one atomic transition to readers.
    pub(crate) fn remove_pending(&self, id: u64) {
        self.lock().pending.remove(&id);
    }

    /// Worker side: account a finished (or failed) job. A failed job
    /// stays in `pending` — readable and WAL-covered — and its error
    /// surfaces at the next [`SealPipeline::drain`].
    pub(crate) fn complete(&self, res: Result<()>) {
        let mut g = self.lock();
        g.in_flight -= 1;
        if let Err(e) = res {
            if g.error.is_none() {
                g.error = Some(e);
            }
        }
        if g.queue.is_empty() && g.in_flight == 0 {
            self.drained.notify_all();
        }
    }

    /// Barrier: wait until every queued job is installed (flush, sync,
    /// checkpoint). Returns the first worker error since the last drain.
    pub(crate) fn drain(&self) -> Result<()> {
        let mut g = self.lock();
        while !g.queue.is_empty() || g.in_flight > 0 {
            if g.shutdown {
                break;
            }
            g = self.drained.wait(g).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        match g.error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Smallest WAL LSN across jobs not yet installed — folded into the
    /// table's checkpoint-truncation bound.
    pub(crate) fn min_first_lsn(&self) -> Option<u64> {
        let g = self.lock();
        g.pending.values().filter(|j| j.first_lsn > 0).map(|j| j.first_lsn).min()
    }

    /// Every job not yet installed, for reader merges.
    pub(crate) fn pending_snapshot(&self) -> Vec<Arc<PendingSeal>> {
        self.lock().pending.values().cloned().collect()
    }

    /// Jobs not yet installed (queued + encoding).
    pub(crate) fn pending_len(&self) -> usize {
        self.lock().pending.len()
    }

    /// Stop the worker pool; subsequent enqueues fall back inline.
    pub(crate) fn shutdown(&self) {
        self.lock().shutdown = true;
        self.job_ready.notify_all();
        self.drained.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::Structure;
    use odh_types::SourceClass;

    fn meta() -> SourceMeta {
        SourceMeta {
            class: SourceClass::irregular_high(),
            ingest: Structure::Irts,
            group: GroupId(0),
        }
    }

    fn job(ts: Vec<i64>, first_lsn: u64) -> PendingSeal {
        let cols = vec![ts.iter().map(|&t| Some(t as f64)).collect()];
        PendingSeal::source(SourceId(1), meta(), ts, cols, first_lsn, first_lsn + 1)
    }

    #[test]
    fn enqueue_take_complete_drain() {
        let p = SealPipeline::new(4);
        p.try_enqueue(job(vec![10, 20], 5)).ok().unwrap();
        assert_eq!(p.pending_len(), 1);
        assert_eq!(p.min_first_lsn(), Some(5));
        let Wake::Job(j) = p.next_job(Duration::from_millis(1)) else { panic!("expected a job") };
        assert_eq!(j.ts, vec![10, 20]);
        // Still pending while mid-encode.
        assert_eq!(p.pending_len(), 1);
        p.remove_pending(j.id);
        p.complete(Ok(()));
        assert_eq!(p.pending_len(), 0);
        assert_eq!(p.min_first_lsn(), None);
        p.drain().unwrap();
    }

    #[test]
    fn full_queue_refuses_and_returns_the_job() {
        let p = SealPipeline::new(1);
        p.try_enqueue(job(vec![1], 0)).ok().unwrap();
        let back = p.try_enqueue(job(vec![2], 0)).expect_err("queue full");
        assert_eq!(back.ts, vec![2]);
        assert_eq!(p.pending_len(), 1);
    }

    #[test]
    fn failed_job_stays_pending_and_error_surfaces_at_drain() {
        let p = SealPipeline::new(4);
        p.try_enqueue(job(vec![1], 7)).ok().unwrap();
        let Wake::Job(_j) = p.next_job(Duration::from_millis(1)) else { panic!("expected a job") };
        p.complete(Err(OdhError::Io("disk gone".into())));
        assert_eq!(p.pending_len(), 1, "failed job stays readable");
        assert_eq!(p.min_first_lsn(), Some(7), "and WAL-covered");
        assert_eq!(p.drain().unwrap_err().kind(), "io");
        p.drain().unwrap(); // error reported once
    }

    #[test]
    fn idle_and_shutdown_wakeups() {
        let p = SealPipeline::new(4);
        assert!(matches!(p.next_job(Duration::from_millis(1)), Wake::Idle));
        p.shutdown();
        assert!(matches!(p.next_job(Duration::from_millis(1)), Wake::Shutdown));
        assert!(p.try_enqueue(job(vec![1], 0)).is_err(), "shutdown refuses enqueues");
    }

    #[test]
    fn pending_rows_project_and_filter_like_a_buffer() {
        let p = SealPipeline::new(4);
        let mut j = PendingSeal::mg(
            GroupId(3),
            vec![10, 20, 30],
            vec![SourceId(1), SourceId(2), SourceId(1)],
            vec![vec![Some(1.0), Some(2.0), Some(3.0)], vec![None, None, None]],
            0,
            0,
        );
        j.id = 99;
        p.try_enqueue(j).ok().unwrap();
        let snap = p.pending_snapshot();
        assert_eq!(snap.len(), 1);
        let rows: Vec<_> = snap[0].rows_in_range(15, 35, &[0], None).collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], (SourceId(2), 20, vec![Some(2.0)]));
        let one: Vec<_> = snap[0].rows_in_range(0, 100, &[0], Some(SourceId(1))).collect();
        assert_eq!(one.len(), 2);
        assert_eq!(one[1].1, 30);
    }
}
