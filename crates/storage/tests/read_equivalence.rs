//! Read-path equivalence oracle for [`OdhTable`].
//!
//! The read entry points — `historical_scan`, `slice_scan` and
//! `scan_columnar`, with and without summaries — must describe one and
//! the same set of rows, wherever those rows live: sealed RTS/IRTS/MG
//! batches (hot or cold), open and side buffers, or the seal queue, with
//! tombstones masking on every tier. Each case builds a random table from
//! one sampled seed and checks:
//!
//! - `historical_scan(s)` equals `slice_scan(Some({s}))`, row for row;
//! - the rows of `scan_columnar` equal those of `slice_scan`;
//! - `scan_columnar` with summaries permitted, whole-range and bucketed,
//!   folded per bucket, equals a fold of the scanned rows (sums within a
//!   relative 1e-9: summaries and batch order associate floating-point
//!   additions differently), and every summary it hands out covers a
//!   batch inside the range and inside one bucket.

use odh_pager::disk::MemDisk;
use odh_pager::pool::BufferPool;
use odh_sim::ResourceMeter;
use odh_storage::{
    ColumnarChunk, DeletePredicate, OdhTable, ScanPoint, TableConfig, TagSummary, TimeGrain,
};
use odh_types::{Duration, Record, SchemaType, SourceClass, SourceId, Timestamp};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

const SOURCES: u64 = 8;
const TAGS: usize = 2;
const PERIOD_US: i64 = 10_000;

/// splitmix64: one sampled seed drives a whole scenario.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// Ids 0/4 are RTS, 1/5 IRTS, 2/3/6/7 ingest through MG (two groups of
/// four, so both MG groups hold regular and irregular members).
fn class_of(id: u64) -> SourceClass {
    match id % 4 {
        0 => SourceClass::regular_high(Duration::from_micros(PERIOD_US)),
        1 => SourceClass::irregular_high(),
        2 => SourceClass::regular_low(Duration::from_micros(PERIOD_US)),
        _ => SourceClass::irregular_low(),
    }
}

/// Scenario knobs drawn from the seed.
struct Scenario {
    batch_size: usize,
    pipelined: bool,
    /// Run a pass before `compact`'s: with both, the first pass drains MG
    /// and merges, and the second must find nothing left to change.
    precompact: bool,
    compact: bool,
    cold: bool,
    rows_per_source: usize,
}

impl Scenario {
    fn draw(rng: &mut Rng) -> Scenario {
        Scenario {
            batch_size: [4, 8, 16][rng.below(3) as usize],
            pipelined: rng.chance(50),
            precompact: rng.chance(40),
            compact: rng.chance(40),
            cold: rng.chance(50),
            rows_per_source: 24 + rng.below(72) as usize,
        }
    }

    fn table(&self) -> Arc<OdhTable> {
        let pool = BufferPool::new(Arc::new(MemDisk::new()), 1024);
        let mut cfg = TableConfig::new(SchemaType::new("eq", ["a", "b"]))
            .with_batch_size(self.batch_size)
            .with_mg_group_size(4)
            .with_seal_workers(if self.pipelined { 2 } else { 0 })
            .with_seal_queue_depth(2);
        if self.cold {
            cfg = cfg.with_cold_after(Duration::from_micros(
                self.rows_per_source as i64 * PERIOD_US / 2,
            ));
        }
        let t = Arc::new(OdhTable::create(pool, ResourceMeter::unmetered(), cfg).unwrap());
        t.start_seal_pipeline();
        for id in 0..SOURCES {
            t.register_source(SourceId(id), class_of(id)).unwrap();
        }
        t
    }
}

/// Every source's rows in arrival order: distinct timestamps on a
/// `PERIOD_US` grid (jittered for irregular sources), with a share of
/// rows delayed far enough to arrive behind already-sealed data.
fn arrivals(rng: &mut Rng, sc: &Scenario) -> Vec<Vec<Record>> {
    (0..SOURCES)
        .map(|id| {
            let regular = class_of(id).is_regular();
            let mut rows: Vec<Record> = (0..sc.rows_per_source)
                .map(|k| {
                    let jitter = if regular { 0 } else { rng.below(PERIOD_US as u64 / 2) as i64 };
                    let ts = 1_000_000 + k as i64 * PERIOD_US + id as i64 + jitter;
                    let a = Some((k as f64) * 0.25 + id as f64);
                    let b = (!rng.chance(20)).then(|| (rng.below(10_000) as f64) / 7.0 - 500.0);
                    Record::new(SourceId(id), Timestamp(ts), vec![a, b])
                })
                .collect();
            let n = rows.len();
            for i in 0..n {
                if rng.chance(12) {
                    let j = (i + 1 + rng.below(3 * sc.batch_size as u64) as usize).min(n - 1);
                    rows.swap(i, j);
                }
            }
            rows
        })
        .collect()
}

/// Interleave the sources' arrivals through `put` and `put_cols` runs,
/// with deletes and flushes sprinkled in. `upto` is the share (in
/// percent) of each source's rows to ingest in this phase.
fn ingest(
    t: &OdhTable,
    rng: &mut Rng,
    rows: &[Vec<Record>],
    cursor: &mut [usize],
    upto: usize,
    span: (i64, i64),
) {
    let stop: Vec<usize> = rows.iter().map(|r| r.len() * upto / 100).collect();
    loop {
        let open: Vec<usize> = (0..rows.len()).filter(|&s| cursor[s] < stop[s]).collect();
        if open.is_empty() {
            return;
        }
        let s = open[rng.below(open.len() as u64) as usize];
        let run = (1 + rng.below(6) as usize).min(stop[s] - cursor[s]);
        let part = &rows[s][cursor[s]..cursor[s] + run];
        cursor[s] += run;
        if rng.chance(50) {
            let ts: Vec<i64> = part.iter().map(|r| r.ts.micros()).collect();
            let cols: Vec<Vec<Option<f64>>> =
                (0..TAGS).map(|tag| part.iter().map(|r| r.values[tag]).collect()).collect();
            t.put_cols(SourceId(s as u64), &ts, &cols).unwrap();
        } else {
            for r in part {
                t.put(r).unwrap();
            }
        }
        if rng.chance(3) {
            let (lo, hi) = span;
            let t1 = lo + rng.below((hi - lo) as u64) as i64;
            let t2 = t1 + rng.below(8 * PERIOD_US as u64) as i64;
            let pred = if rng.chance(50) {
                DeletePredicate::all_sources(t1, t2)
            } else {
                let picked = (0..SOURCES).filter(|_| rng.chance(40)).map(SourceId);
                DeletePredicate::for_sources(t1, t2, picked)
            };
            t.delete(&pred).unwrap();
        }
        if rng.chance(1) {
            t.flush().unwrap();
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Rows and one summary per tag, folded over one bucket.
#[derive(Debug, Clone)]
struct Agg {
    rows: u64,
    tags: Vec<TagSummary>,
}

impl Agg {
    fn empty(ntags: usize) -> Agg {
        Agg { rows: 0, tags: vec![TagSummary::empty(); ntags] }
    }
}

fn assert_agg_eq(got: &Agg, want: &Agg, ctx: &str) {
    assert_eq!(got.rows, want.rows, "{ctx}: row count");
    assert_eq!(got.tags.len(), want.tags.len(), "{ctx}: tag count");
    for (i, (g, w)) in got.tags.iter().zip(&want.tags).enumerate() {
        assert_eq!((g.count, g.null_count), (w.count, w.null_count), "{ctx}: tag {i} counts");
        assert_eq!((g.min, g.max), (w.min, w.max), "{ctx}: tag {i} min/max");
        assert!(close(g.sum, w.sum), "{ctx}: tag {i} sum {} vs {}", g.sum, w.sum);
    }
}

fn bucket_of(ts: i64, grain: TimeGrain) -> i64 {
    match grain {
        TimeGrain::Whole => 0,
        TimeGrain::Bucket(w) => ts.div_euclid(w) * w,
    }
}

/// Fold scanned rows per bucket of `grain`.
fn fold(rows: &[ScanPoint], ntags: usize, grain: TimeGrain) -> BTreeMap<i64, Agg> {
    let mut out = BTreeMap::new();
    for p in rows {
        let slot = out.entry(bucket_of(p.ts.micros(), grain)).or_insert_with(|| Agg::empty(ntags));
        slot.rows += 1;
        for (s, v) in slot.tags.iter_mut().zip(&p.values) {
            s.add(*v);
        }
    }
    out
}

/// Fold a summary-permitting columnar scan per bucket of `grain`,
/// checking that each summary stands for a batch inside `[t1, t2]` and
/// inside one bucket.
fn fold_chunks(
    chunks: &[ColumnarChunk],
    ntags: usize,
    grain: TimeGrain,
    (t1, t2): (Timestamp, Timestamp),
    ctx: &str,
) -> BTreeMap<i64, Agg> {
    let mut out = BTreeMap::new();
    for ch in chunks {
        match &ch.summary {
            Some(sum) => {
                let (begin, end) = sum.time_range;
                assert!(begin >= t1.micros() && end <= t2.micros(), "{ctx}: summary outside range");
                let key = bucket_of(begin, grain);
                assert_eq!(key, bucket_of(end, grain), "{ctx}: summary straddles a bucket");
                let slot = out.entry(key).or_insert_with(|| Agg::empty(ntags));
                slot.rows += sum.rows;
                slot.tags.iter_mut().zip(&sum.tags).for_each(|(a, b)| a.merge(b));
            }
            None => {
                for (row, &ts) in ch.ts.iter().enumerate() {
                    let slot = out.entry(bucket_of(ts, grain)).or_insert_with(|| Agg::empty(ntags));
                    slot.rows += 1;
                    for (s, c) in slot.tags.iter_mut().zip(&ch.cols) {
                        s.add(c[ch.start + row]);
                    }
                }
            }
        }
    }
    out
}

fn assert_folds_eq(got: &BTreeMap<i64, Agg>, want: &BTreeMap<i64, Agg>, ctx: &str) {
    assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>(), "{ctx}: buckets");
    for (k, g) in got {
        assert_agg_eq(g, &want[k], &format!("{ctx}: bucket {k}"));
    }
}

fn chunk_rows(chunks: &[ColumnarChunk]) -> Vec<(SourceId, i64, Vec<Option<f64>>)> {
    let mut out = Vec::new();
    for ch in chunks {
        assert!(ch.summary.is_none(), "summary chunk from a scan that did not permit one");
        for row in 0..ch.len() {
            let src = ch.source.unwrap_or_else(|| ch.ids.as_ref().unwrap()[row]);
            let values = ch.cols.iter().map(|c| c[ch.start + row]).collect();
            out.push((src, ch.ts[row], values));
        }
    }
    out.sort_by_key(|r| (r.1, r.0));
    out
}

fn check(t: &OdhTable, rng: &mut Rng, span: (i64, i64), phase: &str) {
    let (lo, hi) = span;
    let a = lo + rng.below((hi - lo) as u64) as i64;
    let b = a + rng.below((hi - lo) as u64 / 2) as i64;
    let windows = [
        (Timestamp::MIN, Timestamp::MAX),
        (Timestamp(a), Timestamp(b)),
        (Timestamp(a), Timestamp(a)),
    ];
    let intervals = [PERIOD_US * 3, PERIOD_US * 16 + 7, (hi - lo) * 2];
    for (w, &(t1, t2)) in windows.iter().enumerate() {
        for tags in [vec![0, 1], vec![1], vec![1, 0]] {
            let ctx = format!("{phase} window {w} tags {tags:?}");
            let all = t.slice_scan(t1, t2, &tags, None).unwrap();
            let chunks = t.scan_columnar(t1, t2, &tags, None, &[], None).unwrap();
            let as_rows: Vec<_> =
                all.iter().map(|p| (p.source, p.ts.micros(), p.values.clone())).collect();
            assert_eq!(chunk_rows(&chunks), as_rows, "{ctx}: scan_columnar vs slice_scan");
            for id in 0..SOURCES {
                let sid = SourceId(id);
                let only: HashSet<SourceId> = [sid].into_iter().collect();
                let hist = t.historical_scan(sid, t1, t2, &tags).unwrap();
                let slice = t.slice_scan(t1, t2, &tags, Some(&only)).unwrap();
                assert_eq!(hist, slice, "{ctx} source {id}: historical vs slice");
                let cols = t.scan_columnar(t1, t2, &tags, Some(&only), &[], None).unwrap();
                let slice_rows: Vec<_> =
                    slice.iter().map(|p| (p.source, p.ts.micros(), p.values.clone())).collect();
                assert_eq!(chunk_rows(&cols), slice_rows, "{ctx} source {id}: columnar");
                let interval = intervals[rng.below(intervals.len() as u64) as usize];
                for grain in [TimeGrain::Whole, TimeGrain::Bucket(interval)] {
                    let ctx = format!("{ctx} source {id}: summaries {grain:?}");
                    let chunks = t.scan_columnar(t1, t2, &tags, Some(&only), &[], Some(grain));
                    let got = fold_chunks(&chunks.unwrap(), tags.len(), grain, (t1, t2), &ctx);
                    assert_folds_eq(&got, &fold(&slice, tags.len(), grain), &ctx);
                }
            }
            let grains = intervals.iter().map(|&i| TimeGrain::Bucket(i));
            for grain in std::iter::once(TimeGrain::Whole).chain(grains) {
                let ctx = format!("{ctx}: whole-table summaries {grain:?}");
                let chunks = t.scan_columnar(t1, t2, &tags, None, &[], Some(grain)).unwrap();
                let got = fold_chunks(&chunks, tags.len(), grain, (t1, t2), &ctx);
                assert_folds_eq(&got, &fold(&all, tags.len(), grain), &ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn every_read_entry_point_sees_the_same_rows(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let sc = Scenario::draw(&mut rng);
        let t = sc.table();
        let rows = arrivals(&mut rng, &sc);
        let span = (1_000_000, 1_000_000 + sc.rows_per_source as i64 * PERIOD_US);
        let mut cursor = vec![0usize; rows.len()];

        ingest(&t, &mut rng, &rows, &mut cursor, 60, span);
        check(&t, &mut rng, span, "buffered");
        t.flush().unwrap();
        if sc.precompact {
            t.compact().unwrap();
        }
        if sc.compact {
            let rep = t.compact().unwrap();
            assert!(!sc.precompact || !rep.changed(), "second pass changed: {rep:?}");
        }
        check(&t, &mut rng, span, "maintained");
        // The rest stays partly buffered: open, side and MG buffers plus
        // whatever the seal queue still holds.
        ingest(&t, &mut rng, &rows, &mut cursor, 100, span);
        check(&t, &mut rng, span, "mixed");
        if sc.compact {
            t.compact().unwrap();
            check(&t, &mut rng, span, "recompacted");
        }
    }
}
