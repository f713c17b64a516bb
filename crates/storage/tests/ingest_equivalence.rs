//! Ingest equivalence oracle for [`OdhTable`].
//!
//! `put` (one record at a time) and `put_cols` (columnar runs of one
//! source's rows) must ingest a stream identically. Each case draws a
//! stream over RTS, IRTS and MG sources, with rows delayed far enough to
//! arrive behind their source's seal watermark, and ingests it twice into
//! tables with a WAL attached: once row by row through `put`, once in
//! random-length `put_cols` runs. The two sides must agree on:
//!
//! - the decoded WAL frames in LSN order (kind, table, source, ts, values);
//! - the `slice_scan` row multiset after a flush;
//! - the late-routing counters `ooo_side_rows` and `ooo_side_batches`;
//! - `record_counts` (sealed RTS, IRTS and MG batches);
//! - a replay of the log into a fresh table, whose scan must equal the
//!   scan of the table that wrote the log.
//!
//! Every case runs twice: with inline sealing (`seal_workers` 0) and with
//! the default seal-worker pool.

use odh_pager::disk::MemDisk;
use odh_pager::log::MemLogDir;
use odh_pager::pool::BufferPool;
use odh_sim::ResourceMeter;
use odh_storage::{OdhTable, TableConfig, Wal, WalEntry, WalFrame};
use odh_types::{Duration, Record, SchemaType, SourceClass, SourceId, Timestamp};
use proptest::prelude::*;
use std::sync::Arc;

const SOURCES: u64 = 8;
const TAGS: usize = 3;
const PERIOD_US: i64 = 10_000;
const TABLE_ID: u16 = 1;

/// splitmix64: one sampled seed drives a whole case.
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
/// four, each holding regular and irregular members).
fn class_of(id: u64) -> SourceClass {
    match id % 4 {
        0 => SourceClass::regular_high(Duration::from_micros(PERIOD_US)),
        1 => SourceClass::irregular_high(),
        2 => SourceClass::regular_low(Duration::from_micros(PERIOD_US)),
        _ => SourceClass::irregular_low(),
    }
}

/// One drawn case: the batch size and the stream as bursts of one
/// source's consecutive rows, each burst with its `put_cols` run lengths.
struct Case {
    batch_size: usize,
    bursts: Vec<(Vec<Record>, Vec<usize>)>,
}

impl Case {
    fn draw(seed: u64) -> Case {
        let mut rng = Rng(seed);
        let batch_size = 4 + rng.below(29) as usize;
        let per_source = 2 * batch_size + rng.below(6 * batch_size as u64) as usize;
        let mut queues: Vec<Vec<Record>> =
            (0..SOURCES).map(|id| source_rows(&mut rng, id, per_source, batch_size)).collect();
        let mut bursts = Vec::new();
        loop {
            let open: Vec<usize> = (0..queues.len()).filter(|&s| !queues[s].is_empty()).collect();
            if open.is_empty() {
                break;
            }
            let q = &mut queues[open[rng.below(open.len() as u64) as usize]];
            let len = (1 + rng.below(3 * batch_size as u64) as usize).min(q.len());
            let rows: Vec<Record> = q.drain(..len).collect();
            let mut runs = Vec::new();
            let mut left = rows.len();
            while left > 0 {
                let run = (1 + rng.below(2 * batch_size as u64) as usize).min(left);
                runs.push(run);
                left -= run;
            }
            bursts.push((rows, runs));
        }
        Case { batch_size, bursts }
    }

    fn rows(&self) -> usize {
        self.bursts.iter().map(|(rows, _)| rows.len()).sum()
    }
}

/// One source's rows in arrival order: distinct timestamps on a
/// `PERIOD_US` grid (jittered for irregular sources), with NULL-heavy
/// tags and a share of rows delayed past later ones — some by a few
/// rows, some by several batches, so they arrive behind sealed data.
fn source_rows(rng: &mut Rng, id: u64, n: usize, batch_size: usize) -> Vec<Record> {
    let regular = class_of(id).is_regular();
    let mut rows: Vec<Record> = (0..n)
        .map(|k| {
            let jitter = if regular { 0 } else { rng.below(PERIOD_US as u64 / 2) as i64 };
            let ts = 1_000_000 + k as i64 * PERIOD_US + id as i64 + jitter;
            let a = Some(k as f64 * 0.5 + id as f64);
            let b = (!rng.chance(30)).then(|| rng.below(10_000) as f64 / 7.0 - 500.0);
            let c = rng.chance(5).then(|| -(k as f64));
            Record::new(SourceId(id), Timestamp(ts), vec![a, b, c])
        })
        .collect();
    for i in 0..n {
        let reach = if rng.chance(3) { 10 * batch_size } else { 3 * batch_size };
        if rng.chance(15) {
            let j = (i + 1 + rng.below(reach as u64) as usize).min(n - 1);
            rows.swap(i, j);
        }
    }
    rows
}

fn table(batch_size: usize, workers: Option<usize>) -> Arc<OdhTable> {
    let pool = BufferPool::new(Arc::new(MemDisk::new()), 1024);
    let mut cfg = TableConfig::new(SchemaType::new("ingest_eq", ["a", "b", "c"]))
        .with_batch_size(batch_size)
        .with_mg_group_size(4);
    if let Some(n) = workers {
        cfg = cfg.with_seal_workers(n);
    }
    let t = Arc::new(OdhTable::create(pool, ResourceMeter::unmetered(), cfg).unwrap());
    t.start_seal_pipeline();
    t
}

/// A frame as the oracle compares it: LSN, kind, table, source, ts and
/// values for points; the debug form for everything else.
type FrameKey = (u64, String, u16, u64, i64, Vec<Option<u64>>);

fn frame_key(f: &WalFrame) -> FrameKey {
    let (kind, table, r) = match &f.entry {
        WalEntry::Point { table, record, late } => {
            (if *late { "late" } else { "point" }, *table, record)
        }
        other => return (f.lsn, format!("{other:?}"), 0, 0, 0, Vec::new()),
    };
    let values = r.values.iter().map(|v| v.map(f64::to_bits)).collect();
    (f.lsn, kind.to_string(), table, r.source.0, r.ts.micros(), values)
}

/// Replay one recovered point frame into `t`.
fn replay(t: &OdhTable, f: &WalFrame) {
    if let WalEntry::Point { record, late, .. } = &f.entry {
        assert!(t.replay(record, f.lsn, *late).unwrap());
    }
}

/// A scan's rows as a sorted multiset.
fn scan(t: &OdhTable) -> Vec<(u64, i64, Vec<Option<u64>>)> {
    let mut rows: Vec<_> = t
        .slice_scan(Timestamp::MIN, Timestamp::MAX, &[0, 1, 2], None)
        .unwrap()
        .into_iter()
        .map(|p| {
            (p.source.0, p.ts.micros(), p.values.iter().map(|v| v.map(f64::to_bits)).collect())
        })
        .collect();
    rows.sort();
    rows
}

/// Everything one side of the oracle produced.
#[derive(Debug, PartialEq)]
struct Outcome {
    frames: Vec<FrameKey>,
    scan: Vec<(u64, i64, Vec<Option<u64>>)>,
    side_rows: u64,
    side_batches: u64,
    record_counts: (u64, u64, u64),
}

/// Ingest `case` row by row (`runs == false`) or in `put_cols` runs,
/// flush, and collect the outcome — replaying the log into a fresh table
/// on the way, which must reproduce the scan.
fn ingest(case: &Case, workers: Option<usize>, runs: bool) -> Outcome {
    let dir = Arc::new(MemLogDir::new());
    let wal = Wal::create(dir.clone(), ResourceMeter::unmetered()).unwrap();
    let t = table(case.batch_size, workers);
    t.attach_wal(wal.clone(), TABLE_ID, true).unwrap();
    for id in 0..SOURCES {
        t.register_source(SourceId(id), class_of(id)).unwrap();
    }
    for (rows, lens) in &case.bursts {
        if !runs {
            for r in rows {
                t.put(r).unwrap();
            }
            continue;
        }
        let mut off = 0;
        for &len in lens {
            let part = &rows[off..off + len];
            off += len;
            let ts: Vec<i64> = part.iter().map(|r| r.ts.micros()).collect();
            let cols: Vec<Vec<Option<f64>>> =
                (0..TAGS).map(|tag| part.iter().map(|r| r.values[tag]).collect()).collect();
            t.put_cols(part[0].source, &ts, &cols).unwrap();
        }
    }
    t.flush().unwrap();
    wal.sync().unwrap();
    let (_, recovery) = Wal::open(dir, ResourceMeter::unmetered()).unwrap();
    assert!(recovery.warning.is_none(), "{:?}", recovery.warning);

    let fresh = table(case.batch_size, workers);
    for id in 0..SOURCES {
        fresh.adopt_source(SourceId(id), class_of(id));
    }
    for f in &recovery.frames {
        replay(&fresh, f);
    }
    fresh.flush().unwrap();
    let scan_rows = scan(&t);
    assert_eq!(scan(&fresh), scan_rows, "replaying the log must rebuild the table");
    assert_eq!(scan_rows.len(), case.rows(), "every ingested row is scanned once");

    Outcome {
        frames: recovery.frames.iter().map(frame_key).collect(),
        scan: scan_rows,
        side_rows: t.stats().ooo_side_rows.get(),
        side_batches: t.stats().ooo_side_batches.get(),
        record_counts: t.record_counts(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn put_rows_and_put_cols_runs_ingest_identically(seed in any::<u64>()) {
        let case = Case::draw(seed);
        for workers in [Some(0), None] {
            let by_row = ingest(&case, workers, false);
            let by_run = ingest(&case, workers, true);
            prop_assert_eq!(&by_row, &by_run, "batch_size {} workers {:?}", case.batch_size, workers);
        }
    }
}

/// The oracle is not vacuous: the drawn streams do route rows to the
/// side buffer and do seal side batches.
#[test]
fn drawn_streams_route_late_rows() {
    let (mut rows, mut batches) = (0, 0);
    for seed in 0..8 {
        let out = ingest(&Case::draw(seed), Some(0), false);
        rows += out.side_rows;
        batches += out.side_batches;
    }
    assert!(rows > 0 && batches > 0, "side rows {rows}, side batches {batches}");
}
