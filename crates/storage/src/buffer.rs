//! Ingest buffers — the not-yet-sealed tail of each time series.
//!
//! Points accumulate here until `b` of them form a batch (per source for
//! RTS/IRTS, per group for MG). The paper's query component "adopts a
//! 'dirty read' isolation level to access uncommitted rows from concurrent
//! insertions": scans read these buffers directly, so freshly ingested
//! points are visible before their batch is sealed.
//!
//! ## Memory diet
//!
//! Values used to sit in `Vec<Vec<Option<f64>>>` — 16 B per slot (8 for
//! the float, 8 for the discriminant) eagerly reserved for *every* tag of
//! *every* open buffer. At a million registered sources that layout is a
//! memory wall: a two-tag schema paid ~2.5 KB per source before a single
//! batch sealed. [`TagCol`] replaces it with a dense `Vec<f64>` plus a
//! validity bitmap (1 bit/row — the same shape the sealed `ValueBlob`
//! uses downstream), and columns are allocated **lazily on the first
//! non-NULL write**: a tag a source never reports costs nothing. Rows
//! before the first non-NULL are backfilled as NULLs at allocation time,
//! so every allocated column stays row-aligned with `ts`.

use crate::seal::{JobKind, PendingSeal};
use odh_types::SourceId;

/// Column-major rows of one source's run, `col(tag)[row]`: a columnar
/// run's columns, or one record's values served as one-row columns
/// without copying them.
#[derive(Debug, Clone, Copy)]
pub enum Cols<'a> {
    Run(&'a [Vec<Option<f64>>]),
    Row(&'a [Option<f64>]),
}

impl<'a> Cols<'a> {
    /// Number of tags.
    pub fn len(&self) -> usize {
        match self {
            Cols::Run(cols) => cols.len(),
            Cols::Row(values) => values.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn col(&self, tag: usize) -> &'a [Option<f64>] {
        match *self {
            Cols::Run(cols) => &cols[tag],
            Cols::Row(values) => std::slice::from_ref(&values[tag]),
        }
    }

    pub fn iter(self) -> impl Iterator<Item = &'a [Option<f64>]> {
        (0..self.len()).map(move |tag| self.col(tag))
    }
}

/// One tag's buffered values: dense floats plus a validity bitmap (bit
/// `row % 64` of word `row / 64` set ⇔ the row holds a value; NULL rows
/// store `0.0` to keep the vector row-aligned).
#[derive(Debug, Clone, Default)]
pub struct TagCol {
    values: Vec<f64>,
    valid: Vec<u64>,
}

impl TagCol {
    /// A column allocated late: `rows` already-buffered rows are
    /// backfilled as NULLs so the column lines up with `ts`.
    fn backfilled(rows: usize) -> TagCol {
        TagCol { values: vec![0.0; rows], valid: vec![0; rows.div_ceil(64)] }
    }

    fn push(&mut self, v: Option<f64>) {
        let row = self.values.len();
        if row.is_multiple_of(64) {
            self.valid.push(0);
        }
        match v {
            Some(x) => {
                self.values.push(x);
                self.valid[row / 64] |= 1 << (row % 64);
            }
            None => self.values.push(0.0),
        }
    }

    #[inline]
    pub fn get(&self, row: usize) -> Option<f64> {
        (self.valid[row / 64] >> (row % 64) & 1 == 1).then(|| self.values[row])
    }

    pub fn non_null(&self) -> usize {
        self.valid.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Expand back to the `Option<f64>` row form the seal path consumes.
    fn into_options(self, rows: usize) -> Vec<Option<f64>> {
        debug_assert_eq!(self.values.len(), rows);
        (0..rows).map(|r| self.get(r)).collect()
    }

    fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<f64>()
            + self.valid.capacity() * std::mem::size_of::<u64>()
    }
}

/// Append `rows` of one source column into a lazily-allocated slot whose
/// buffer already holds `base` rows.
fn push_run_value(
    slot: &mut Option<TagCol>,
    base: usize,
    src: &[Option<f64>],
    rows: std::ops::Range<usize>,
) {
    if slot.is_none() && src[rows.clone()].iter().all(|v| v.is_none()) {
        return;
    }
    let col = slot.get_or_insert_with(|| TagCol::backfilled(base));
    for v in &src[rows] {
        col.push(*v);
    }
}

fn cols_into_options(cols: &mut [Option<TagCol>], rows: usize) -> Vec<Vec<Option<f64>>> {
    cols.iter_mut()
        .map(|slot| match slot.take() {
            Some(col) => col.into_options(rows),
            None => vec![None; rows],
        })
        .collect()
}

fn cols_non_null(cols: &[Option<TagCol>]) -> usize {
    cols.iter().flatten().map(TagCol::non_null).sum()
}

fn cols_heap_bytes(cols: &[Option<TagCol>]) -> usize {
    std::mem::size_of_val(cols) + cols.iter().flatten().map(TagCol::heap_bytes).sum::<usize>()
}

/// Row-accumulating buffer for one source (RTS/IRTS paths).
#[derive(Debug, Clone)]
pub struct SourceBuffer {
    pub ts: Vec<i64>,
    /// `cols[tag]`, allocated on first non-NULL write.
    cols: Vec<Option<TagCol>>,
    /// WAL LSN of the oldest / newest unsealed row (0 when empty or when
    /// the table has no WAL). Rows arrive in LSN order (the shard lock is
    /// held across append + push), so these bound every row in between.
    pub first_lsn: u64,
    pub last_lsn: u64,
}

impl SourceBuffer {
    pub fn new(tags: usize, capacity: usize) -> SourceBuffer {
        // Near-zero eager reservation: at a million open buffers even a
        // 64-row timestamp pre-reserve is half a gigabyte. Doubling
        // growth reaches a full batch in a handful of reallocs, so slow
        // sources pay only for rows they actually hold.
        let cap = capacity.min(8);
        SourceBuffer {
            ts: Vec::with_capacity(cap),
            cols: vec![None; tags],
            first_lsn: 0,
            last_lsn: 0,
        }
    }

    /// Append `rows` of a run (`cols[tag][row]`) with one extend per
    /// column. `first_lsn`/`last_lsn` bound the run's WAL records.
    pub fn push_run(
        &mut self,
        ts: &[i64],
        cols: Cols<'_>,
        rows: std::ops::Range<usize>,
        first_lsn: u64,
        last_lsn: u64,
    ) {
        debug_assert_eq!(cols.len(), self.cols.len());
        if rows.is_empty() {
            return;
        }
        if self.ts.is_empty() {
            self.first_lsn = first_lsn;
        }
        self.last_lsn = last_lsn;
        let base = self.ts.len();
        self.ts.extend_from_slice(&ts[rows.clone()]);
        for (slot, src) in self.cols.iter_mut().zip(cols.iter()) {
            push_run_value(slot, base, src, rows.clone());
        }
    }

    pub fn len(&self) -> usize {
        self.ts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    pub fn tag_count(&self) -> usize {
        self.cols.len()
    }

    /// Non-NULL points currently buffered.
    pub fn non_null(&self) -> usize {
        cols_non_null(&self.cols)
    }

    /// Heap bytes currently held (capacity, not length — this is what the
    /// memory-accounting gauges report).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<SourceBuffer>()
            + self.ts.capacity() * std::mem::size_of::<i64>()
            + cols_heap_bytes(&self.cols)
    }

    /// Take the contents as a seal job of `kind`, leaving an empty
    /// buffer with the same shape (columns drop back to unallocated — a
    /// drained buffer costs as little as a fresh one). The seal records
    /// the job's `last_lsn` as the buffer's replay low-water mark, and its
    /// `first_lsn` keeps queued-but-unsealed rows inside the WAL's
    /// checkpoint-truncation bound while they sit in the seal pipeline.
    pub(crate) fn take(&mut self, kind: JobKind) -> PendingSeal {
        let rows = self.ts.len();
        PendingSeal::new(
            kind,
            std::mem::take(&mut self.ts),
            Vec::new(),
            cols_into_options(&mut self.cols, rows),
            std::mem::take(&mut self.first_lsn),
            std::mem::take(&mut self.last_lsn),
        )
    }

    #[inline]
    fn value_at(&self, tag: usize, row: usize) -> Option<f64> {
        self.cols[tag].as_ref().and_then(|c| c.get(row))
    }

    /// Rows with `t1 <= ts <= t2`, projected to `tags`, for dirty reads.
    pub fn rows_in_range<'a>(
        &'a self,
        t1: i64,
        t2: i64,
        tags: &'a [usize],
    ) -> impl Iterator<Item = (i64, Vec<Option<f64>>)> + 'a {
        self.ts.iter().enumerate().filter_map(move |(row, &t)| {
            if t < t1 || t > t2 {
                return None;
            }
            Some((t, tags.iter().map(|&tag| self.value_at(tag, row)).collect()))
        })
    }
}

/// Row-accumulating buffer for one Mixed-Grouping group: rows from many
/// sources interleaved in arrival (≈ timestamp) order.
#[derive(Debug, Clone)]
pub struct MgBuffer {
    pub ts: Vec<i64>,
    pub ids: Vec<SourceId>,
    cols: Vec<Option<TagCol>>,
    /// See [`SourceBuffer::first_lsn`].
    pub first_lsn: u64,
    pub last_lsn: u64,
}

impl MgBuffer {
    pub fn new(tags: usize, capacity: usize) -> MgBuffer {
        // See [`SourceBuffer::new`] on the small eager reservation.
        let cap = capacity.min(8);
        MgBuffer {
            ts: Vec::with_capacity(cap),
            ids: Vec::with_capacity(cap),
            cols: vec![None; tags],
            first_lsn: 0,
            last_lsn: 0,
        }
    }

    /// Append `rows` of one source's run (`cols[tag][row]`) with one
    /// extend per column.
    pub fn push_run(
        &mut self,
        source: SourceId,
        ts: &[i64],
        cols: Cols<'_>,
        rows: std::ops::Range<usize>,
        first_lsn: u64,
        last_lsn: u64,
    ) {
        debug_assert_eq!(cols.len(), self.cols.len());
        if rows.is_empty() {
            return;
        }
        if self.ts.is_empty() {
            self.first_lsn = first_lsn;
        }
        self.last_lsn = last_lsn;
        let base = self.ts.len();
        self.ts.extend_from_slice(&ts[rows.clone()]);
        self.ids.resize(self.ids.len() + rows.len(), source);
        for (slot, src) in self.cols.iter_mut().zip(cols.iter()) {
            push_run_value(slot, base, src, rows.clone());
        }
    }

    pub fn len(&self) -> usize {
        self.ts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    pub fn tag_count(&self) -> usize {
        self.cols.len()
    }

    /// Non-NULL points currently buffered.
    pub fn non_null(&self) -> usize {
        cols_non_null(&self.cols)
    }

    /// Heap bytes currently held (capacity, not length).
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<MgBuffer>()
            + self.ts.capacity() * std::mem::size_of::<i64>()
            + self.ids.capacity() * std::mem::size_of::<SourceId>()
            + cols_heap_bytes(&self.cols)
    }

    /// Take the contents as the seal job of MG group `group` (see
    /// [`SourceBuffer::take`]).
    pub(crate) fn take(&mut self, group: odh_types::GroupId) -> PendingSeal {
        let rows = self.ts.len();
        PendingSeal::new(
            JobKind::Mg { group },
            std::mem::take(&mut self.ts),
            std::mem::take(&mut self.ids),
            cols_into_options(&mut self.cols, rows),
            std::mem::take(&mut self.first_lsn),
            std::mem::take(&mut self.last_lsn),
        )
    }

    #[inline]
    fn value_at(&self, tag: usize, row: usize) -> Option<f64> {
        self.cols[tag].as_ref().and_then(|c| c.get(row))
    }

    /// Rows with `t1 <= ts <= t2` and (optionally) a specific source.
    pub fn rows_in_range<'a>(
        &'a self,
        t1: i64,
        t2: i64,
        tags: &'a [usize],
        source: Option<SourceId>,
    ) -> impl Iterator<Item = (SourceId, i64, Vec<Option<f64>>)> + 'a {
        self.ts.iter().enumerate().filter_map(move |(row, &t)| {
            if t < t1 || t > t2 {
                return None;
            }
            let id = self.ids[row];
            if let Some(want) = source {
                if id != want {
                    return None;
                }
            }
            Some((id, t, tags.iter().map(|&tag| self.value_at(tag, row)).collect()))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odh_types::GroupId;
    use proptest::prelude::*;

    /// One row as a one-row run.
    fn push(b: &mut SourceBuffer, ts: i64, values: &[Option<f64>], lsn: u64) {
        b.push_run(&[ts], Cols::Row(values), 0..1, lsn, lsn);
    }

    fn push_mg(b: &mut MgBuffer, source: SourceId, ts: i64, values: &[Option<f64>], lsn: u64) {
        b.push_run(source, &[ts], Cols::Row(values), 0..1, lsn, lsn);
    }

    /// The buffer does not look at the kind it stamps on a taken job.
    fn kind() -> JobKind {
        JobKind::Mg { group: GroupId(0) }
    }

    #[test]
    fn source_buffer_accumulates_and_takes() {
        let mut b = SourceBuffer::new(2, 8);
        push(&mut b, 10, &[Some(1.0), None], 5);
        push(&mut b, 20, &[Some(2.0), Some(9.0)], 6);
        assert_eq!(b.len(), 2);
        assert_eq!(b.non_null(), 3);
        assert_eq!((b.first_lsn, b.last_lsn), (5, 6));
        let job = b.take(kind());
        assert_eq!((job.first_lsn, job.last_lsn), (5, 6));
        assert_eq!(job.ts, vec![10, 20]);
        assert_eq!(job.cols[0], vec![Some(1.0), Some(2.0)]);
        assert_eq!(job.cols[1], vec![None, Some(9.0)]);
        assert!(b.is_empty());
        assert_eq!(b.tag_count(), 2, "shape preserved after take");
        push(&mut b, 30, &[None, None], 7);
        assert_eq!((b.first_lsn, b.last_lsn), (7, 7));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn source_buffer_range_projection() {
        let mut b = SourceBuffer::new(3, 8);
        for i in 0..10 {
            push(&mut b, i * 10, &[Some(i as f64), Some(-(i as f64)), None], 0);
        }
        let rows: Vec<_> = b.rows_in_range(25, 55, &[1]).collect();
        assert_eq!(rows.len(), 3); // 30, 40, 50
        assert_eq!(rows[0], (30, vec![Some(-3.0)]));
    }

    #[test]
    fn late_allocated_column_backfills_nulls() {
        let mut b = SourceBuffer::new(2, 8);
        // 70 all-NULL rows on tag 1 — crosses a bitmap word boundary
        // before the column is ever allocated.
        for i in 0..70 {
            push(&mut b, i, &[Some(i as f64), None], i as u64 + 1);
        }
        assert_eq!(b.non_null(), 70);
        push(&mut b, 70, &[None, Some(7.0)], 71);
        assert_eq!(b.non_null(), 71);
        let rows: Vec<_> = b.rows_in_range(69, 70, &[0, 1]).collect();
        assert_eq!(rows[0], (69, vec![Some(69.0), None]));
        assert_eq!(rows[1], (70, vec![None, Some(7.0)]));
        let cols = b.take(kind()).cols;
        assert_eq!(cols[1][..70], vec![None; 70][..]);
        assert_eq!(cols[1][70], Some(7.0));
    }

    #[test]
    fn untouched_tags_stay_unallocated() {
        let mut b = SourceBuffer::new(4, 64);
        for i in 0..32 {
            push(&mut b, i, &[Some(1.0), None, None, None], 1);
        }
        let one_col = b.approx_bytes();
        let mut wide = SourceBuffer::new(4, 64);
        for i in 0..32 {
            push(&mut wide, i, &[Some(1.0), Some(2.0), Some(3.0), Some(4.0)], 1);
        }
        assert!(
            one_col < wide.approx_bytes(),
            "NULL-only tags must not allocate: {one_col} vs {}",
            wide.approx_bytes()
        );
        let cols = b.take(kind()).cols;
        assert_eq!(cols[3], vec![None; 32]);
    }

    #[test]
    fn mg_buffer_filters_by_source() {
        let mut b = MgBuffer::new(1, 8);
        push_mg(&mut b, SourceId(1), 10, &[Some(1.0)], 1);
        push_mg(&mut b, SourceId(2), 11, &[Some(2.0)], 2);
        push_mg(&mut b, SourceId(1), 12, &[Some(3.0)], 3);
        let all: Vec<_> = b.rows_in_range(0, 100, &[0], None).collect();
        assert_eq!(all.len(), 3);
        let one: Vec<_> = b.rows_in_range(0, 100, &[0], Some(SourceId(1))).collect();
        assert_eq!(one.len(), 2);
        assert_eq!(one[1].2, vec![Some(3.0)]);
    }

    #[test]
    fn mg_take_clears_ids_too() {
        let mut b = MgBuffer::new(1, 4);
        push_mg(&mut b, SourceId(5), 1, &[None], 9);
        let job = b.take(GroupId(0));
        assert_eq!((job.first_lsn, job.last_lsn), (9, 9));
        assert_eq!((job.ts.len(), job.ids.len(), job.cols[0].len()), (1, 1, 1));
        assert!(b.is_empty());
        assert!(b.ids.is_empty());
    }

    // --- bitmap-vs-Option<f64> equivalence proptests (NULL-dense) ---

    /// Rows of (ts, per-tag values) with NULLs weighted heavily: the
    /// bitmap representation must round-trip exactly what the old
    /// `Vec<Option<f64>>` columns stored.
    fn rows_strategy(tags: usize) -> impl Strategy<Value = Vec<(i64, Vec<Option<f64>>)>> {
        let value = prop_oneof![
            3 => Just(None),
            1 => (-1e6f64..1e6).prop_map(Some),
        ];
        proptest::collection::vec((0i64..1_000_000, proptest::collection::vec(value, tags)), 0..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn source_buffer_matches_option_columns(rows in rows_strategy(3)) {
            let tags = 3;
            let mut b = SourceBuffer::new(tags, 8);
            // Reference model: the old representation.
            let mut model: Vec<Vec<Option<f64>>> = vec![Vec::new(); tags];
            let mut ts_model = Vec::new();
            for (i, (t, vals)) in rows.iter().enumerate() {
                push(&mut b, *t, vals, i as u64 + 1);
                ts_model.push(*t);
                for (tag, v) in vals.iter().enumerate() {
                    model[tag].push(*v);
                }
            }
            let want_points: usize =
                model.iter().map(|c| c.iter().filter(|v| v.is_some()).count()).sum();
            prop_assert_eq!(b.non_null(), want_points);
            // Projection equivalence before take.
            let all: Vec<_> = b.rows_in_range(i64::MIN, i64::MAX, &[0, 1, 2]).collect();
            for (row, (t, vals)) in all.iter().enumerate() {
                prop_assert_eq!(*t, ts_model[row]);
                for tag in 0..tags {
                    prop_assert_eq!(vals[tag], model[tag][row]);
                }
            }
            // Drain equivalence.
            let job = b.take(kind());
            prop_assert_eq!(job.ts, ts_model);
            prop_assert_eq!(job.cols, model);
        }

        #[test]
        fn one_row_runs_match_a_split_run(rows in rows_strategy(2), split in 0usize..200) {
            let tags = 2;
            let split = split.min(rows.len());
            // One-row runs.
            let mut by_row = SourceBuffer::new(tags, 8);
            for (i, (t, vals)) in rows.iter().enumerate() {
                push(&mut by_row, *t, vals, i as u64 + 1);
            }
            // The same rows as two runs, split at an arbitrary point.
            let ts_all: Vec<i64> = rows.iter().map(|(t, _)| *t).collect();
            let mut cols_all: Vec<Vec<Option<f64>>> = vec![Vec::new(); tags];
            for (_, vals) in &rows {
                for (tag, v) in vals.iter().enumerate() {
                    cols_all[tag].push(*v);
                }
            }
            let mut by_run = SourceBuffer::new(tags, 8);
            by_run.push_run(&ts_all, Cols::Run(&cols_all), 0..split, 1, split as u64);
            by_run.push_run(
                &ts_all,
                Cols::Run(&cols_all),
                split..rows.len(),
                split as u64 + 1,
                rows.len() as u64,
            );
            prop_assert_eq!(by_row.non_null(), by_run.non_null());
            let a = by_row.take(kind());
            let b = by_run.take(kind());
            prop_assert_eq!(a.ts, b.ts);
            prop_assert_eq!(a.cols, b.cols);
        }

        #[test]
        fn mg_buffer_matches_option_columns(rows in rows_strategy(2)) {
            let tags = 2;
            let mut b = MgBuffer::new(tags, 8);
            let mut model: Vec<Vec<Option<f64>>> = vec![Vec::new(); tags];
            for (i, (t, vals)) in rows.iter().enumerate() {
                push_mg(&mut b, SourceId(i as u64 % 5), *t, vals, i as u64 + 1);
                for (tag, v) in vals.iter().enumerate() {
                    model[tag].push(*v);
                }
            }
            let all: Vec<_> = b.rows_in_range(i64::MIN, i64::MAX, &[0, 1], None).collect();
            prop_assert_eq!(all.len(), rows.len());
            for (row, (id, _, vals)) in all.iter().enumerate() {
                prop_assert_eq!(*id, SourceId(row as u64 % 5));
                for tag in 0..tags {
                    prop_assert_eq!(vals[tag], model[tag][row]);
                }
            }
            let job = b.take(GroupId(0));
            prop_assert_eq!(job.ids.len(), rows.len());
            prop_assert_eq!(job.cols, model);
        }
    }
}
