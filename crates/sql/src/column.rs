//! Vectorized columnar batches — the unit of work of the vectorized
//! executor.
//!
//! A [`ColumnBatch`] carries one typed vector per schema column for a run
//! of up to [`BATCH_SIZE`] rows. Storage hands decoded tag columns out as
//! [`ColVec::Shared`] slices — `Arc` clones of the decode-cache entries,
//! zero copies, no per-cell `Datum` allocation — and the executor runs
//! filter and aggregate kernels over them driven by a *selection vector*
//! (the indices of rows that survived every residual predicate so far).
//! Rows are pivoted back to [`odh_types::Row`] only at the final result
//! boundary.
//!
//! Validity: `None` means every slot is valid; otherwise bit `i` of the
//! `Vec<u64>` bitmap is set iff row `i` is non-NULL. [`ColVec::Shared`]
//! columns encode NULLs in the `Option<f64>` cells themselves.

use odh_types::{DataType, Datum, Timestamp};
use std::sync::Arc;

/// Target rows per batch for sources that chunk freely (MemTable).
/// Storage-backed scans batch at the sealed-batch granularity instead.
pub const BATCH_SIZE: usize = 4096;

/// Test whether `validity` (if any) marks slot `i` valid.
#[inline]
pub fn bit(validity: &Option<Vec<u64>>, i: usize) -> bool {
    match validity {
        None => true,
        Some(bits) => bits[i >> 6] & (1u64 << (i & 63)) != 0,
    }
}

/// Set bit `i` in a bitmap sized for `len` slots.
#[inline]
pub fn set_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1u64 << (i & 63);
}

/// An all-zero bitmap covering `len` slots.
pub fn empty_bitmap(len: usize) -> Vec<u64> {
    vec![0u64; len.div_ceil(64)]
}

/// One typed column vector of a [`ColumnBatch`].
#[derive(Clone)]
pub enum ColVec {
    /// Not materialized (the column is not in the scan's needed set).
    Absent,
    /// Every row holds the same i64 (e.g. the source id of a per-source
    /// sealed batch).
    ConstI64(i64),
    I64 {
        data: Vec<i64>,
        validity: Option<Vec<u64>>,
    },
    F64 {
        data: Vec<f64>,
        validity: Option<Vec<u64>>,
    },
    Str {
        data: Vec<Arc<str>>,
        validity: Option<Vec<u64>>,
    },
    /// Zero-copy window into a cache-resident decoded tag column:
    /// rows `start .. start + batch.len` of `data`.
    Shared {
        data: Arc<Vec<Option<f64>>>,
        start: usize,
    },
    /// A summary batch's column: the fold of all `batch.len` rows, with
    /// no per-row cells (see [`ColumnBatch::summary`]).
    Summary(NumAgg),
}

impl ColVec {
    /// The cell at `i` as a [`Datum`], typed per the column's declared
    /// `dtype` (an i64 vector under `DataType::Ts` pivots to `Datum::Ts`).
    pub fn datum(&self, i: usize, dtype: DataType) -> Datum {
        match self {
            ColVec::Absent => Datum::Null,
            ColVec::ConstI64(v) => int_datum(*v, dtype),
            ColVec::I64 { data, validity } => {
                if bit(validity, i) {
                    int_datum(data[i], dtype)
                } else {
                    Datum::Null
                }
            }
            ColVec::F64 { data, validity } => {
                if bit(validity, i) {
                    Datum::F64(data[i])
                } else {
                    Datum::Null
                }
            }
            ColVec::Str { data, validity } => {
                if bit(validity, i) {
                    Datum::Str(data[i].clone())
                } else {
                    Datum::Null
                }
            }
            ColVec::Shared { data, start } => match data[start + i] {
                Some(v) => Datum::F64(v),
                None => Datum::Null,
            },
            ColVec::Summary(_) => Datum::Null,
        }
    }

    /// Numeric view of cell `i` (`None` for NULL or non-numeric).
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match self {
            ColVec::ConstI64(v) => Some(*v as f64),
            ColVec::I64 { data, validity } => bit(validity, i).then(|| data[i] as f64),
            ColVec::F64 { data, validity } => bit(validity, i).then(|| data[i]),
            ColVec::Shared { data, start } => data[start + i],
            _ => None,
        }
    }

    /// Integer view of cell `i` (`None` for NULL or non-integer storage).
    #[inline]
    pub fn i64_at(&self, i: usize) -> Option<i64> {
        match self {
            ColVec::ConstI64(v) => Some(*v),
            ColVec::I64 { data, validity } => bit(validity, i).then(|| data[i]),
            _ => None,
        }
    }

    /// Do rows `a` and `b` hold the same cell, as a group key? Agrees
    /// with [`Datum`] equality (floats by bits, NULL equals NULL) without
    /// building either datum.
    #[inline]
    pub fn same(&self, a: usize, b: usize) -> bool {
        fn cell<T: PartialEq>(data: &[T], validity: &Option<Vec<u64>>, a: usize, b: usize) -> bool {
            match (bit(validity, a), bit(validity, b)) {
                (true, true) => data[a] == data[b],
                (va, vb) => va == vb,
            }
        }
        match self {
            ColVec::Absent | ColVec::ConstI64(_) | ColVec::Summary(_) => true,
            ColVec::I64 { data, validity } => cell(data, validity, a, b),
            ColVec::Str { data, validity } => cell(data, validity, a, b),
            ColVec::F64 { data, validity } => match (bit(validity, a), bit(validity, b)) {
                (true, true) => data[a].to_bits() == data[b].to_bits(),
                (va, vb) => va == vb,
            },
            ColVec::Shared { data, start } => {
                data[start + a].map(f64::to_bits) == data[start + b].map(f64::to_bits)
            }
        }
    }

    /// Actual bytes this column occupies for `len` rows — the real
    /// footprint (strings priced at header + payload), not the old flat
    /// 8-bytes-per-cell guess.
    pub fn bytes(&self, len: usize) -> u64 {
        match self {
            ColVec::Absent => 0,
            ColVec::ConstI64(_) => 8,
            ColVec::I64 { validity, .. } | ColVec::F64 { validity, .. } => {
                8 * len as u64 + validity.as_ref().map_or(0, |b| 8 * b.len() as u64)
            }
            ColVec::Str { data, validity } => {
                data.iter().take(len).map(|s| 16 + s.len() as u64).sum::<u64>()
                    + validity.as_ref().map_or(0, |b| 8 * b.len() as u64)
            }
            ColVec::Shared { .. } => 16 * len as u64,
            ColVec::Summary(_) => std::mem::size_of::<NumAgg>() as u64,
        }
    }
}

/// A batch of rows in columnar form: one [`ColVec`] per schema column.
#[derive(Clone)]
pub struct ColumnBatch {
    pub len: usize,
    /// Declared type of each column (drives the `Datum` pivot), shared
    /// by every batch of a scan.
    pub dtypes: Arc<[DataType]>,
    pub cols: Vec<ColVec>,
    /// `(min, max)` of the non-NULL values of the schema's first
    /// Ts-typed column, when the producer knows it — lets LAST scan
    /// batches newest-first and stop early, and sizes the dense
    /// `time_bucket` fold.
    pub ts_range: Option<(i64, i64)>,
    /// A summary batch: `len` rows, all inside one bucket of the scan's
    /// [`crate::provider::SummaryGrain`] and inside the filters' exact
    /// range (`ts_range` locates them), folded ahead of time. Its
    /// requested F64 columns are [`ColVec::Summary`]; nothing else is
    /// materialized, so only the aggregates the summary request allows
    /// may read it.
    pub summary: bool,
}

impl ColumnBatch {
    /// Pivot one row back to datums (final result boundary only).
    pub fn row_datums(&self, i: usize) -> Vec<Datum> {
        self.cols.iter().zip(self.dtypes.iter()).map(|(c, &dt)| c.datum(i, dt)).collect()
    }

    /// Real bytes across materialized columns.
    pub fn bytes(&self) -> u64 {
        self.cols.iter().map(|c| c.bytes(self.len)).sum()
    }
}

fn int_datum(v: i64, dtype: DataType) -> Datum {
    if dtype == DataType::Ts {
        Datum::Ts(Timestamp(v))
    } else {
        Datum::I64(v)
    }
}

/// Refine `sel` in place, keeping rows whose cell in `col` satisfies
/// `op rhs` (SQL semantics: NULL never matches). Branch-light fast paths
/// cover the numeric storages; everything else falls back to the datum
/// comparator supplied by the caller.
pub fn filter_cmp(
    col: &ColVec,
    op: CmpKernel,
    rhs: &Datum,
    sel: &mut Vec<u32>,
    fallback: impl Fn(&Datum) -> bool,
) {
    match (col, rhs.as_f64_lossless()) {
        (ColVec::Shared { data, start }, Some(r)) => {
            sel.retain(|&i| matches!(data[*start + i as usize], Some(v) if op.cmp_f64(v, r)));
        }
        (ColVec::F64 { data, validity }, Some(r)) => match validity {
            None => sel.retain(|&i| op.cmp_f64(data[i as usize], r)),
            Some(_) => {
                sel.retain(|&i| bit(validity, i as usize) && op.cmp_f64(data[i as usize], r))
            }
        },
        (ColVec::I64 { data, validity }, Some(r)) => match validity {
            None => sel.retain(|&i| op.cmp_f64(data[i as usize] as f64, r)),
            Some(_) => {
                sel.retain(|&i| bit(validity, i as usize) && op.cmp_f64(data[i as usize] as f64, r))
            }
        },
        (ColVec::ConstI64(v), Some(r)) => {
            if !op.cmp_f64(*v as f64, r) {
                sel.clear();
            }
        }
        _ => {
            let dtype = match col {
                ColVec::Str { .. } => DataType::Str,
                _ => DataType::I64,
            };
            sel.retain(|&i| fallback(&col.datum(i as usize, dtype)));
        }
    }
}

/// Comparison kernels, shared with the executor's predicate evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpKernel {
    Eq,
    Neq,
    Lt,
    Gt,
    Le,
    Ge,
}

impl CmpKernel {
    #[inline]
    pub fn cmp_f64(self, l: f64, r: f64) -> bool {
        match self {
            CmpKernel::Eq => l == r,
            CmpKernel::Neq => l != r,
            CmpKernel::Lt => l < r,
            CmpKernel::Gt => l > r,
            CmpKernel::Le => l <= r,
            CmpKernel::Ge => l >= r,
        }
    }
}

/// Datum helper: exact numeric value when the datum belongs to the
/// numeric family (I64 / F64 / Ts), `None` otherwise.
pub trait AsF64Lossless {
    fn as_f64_lossless(&self) -> Option<f64>;
}

impl AsF64Lossless for Datum {
    fn as_f64_lossless(&self) -> Option<f64> {
        match self {
            Datum::I64(v) => Some(*v as f64),
            Datum::F64(v) => Some(*v),
            Datum::Ts(t) => Some(t.0 as f64),
            _ => None,
        }
    }
}

/// Folded numeric statistics of the selected, non-NULL cells of one
/// column — the vectorized inner loop of COUNT / SUM / AVG / MIN / MAX.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NumAgg {
    pub count: i64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl NumAgg {
    /// The fold of no values, continuing a running `sum`.
    pub fn after(sum: f64) -> NumAgg {
        NumAgg { count: 0, sum, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

/// Fold the selected cells of `col` into `acc`, value by value, so that
/// a running sum adds in row order exactly as the row path does. Returns
/// `None` when the column is not numeric (the executor falls back to its
/// datum loop).
pub fn numeric_agg(col: &ColVec, sel: &[u32], mut acc: NumAgg) -> Option<NumAgg> {
    #[inline]
    fn fold(acc: &mut NumAgg, v: f64) {
        acc.count += 1;
        acc.sum += v;
        acc.min = acc.min.min(v);
        acc.max = acc.max.max(v);
    }
    match col {
        ColVec::Shared { data, start } => {
            for &i in sel {
                if let Some(v) = data[*start + i as usize] {
                    fold(&mut acc, v);
                }
            }
        }
        ColVec::F64 { data, validity: None } => {
            for &i in sel {
                fold(&mut acc, data[i as usize]);
            }
        }
        ColVec::F64 { data, validity } => {
            for &i in sel {
                if bit(validity, i as usize) {
                    fold(&mut acc, data[i as usize]);
                }
            }
        }
        ColVec::I64 { data, validity: None } => {
            for &i in sel {
                fold(&mut acc, data[i as usize] as f64);
            }
        }
        ColVec::I64 { data, validity } => {
            for &i in sel {
                if bit(validity, i as usize) {
                    fold(&mut acc, data[i as usize] as f64);
                }
            }
        }
        ColVec::ConstI64(v) => {
            acc.count += sel.len() as i64;
            acc.sum += *v as f64 * sel.len() as f64;
            if !sel.is_empty() {
                acc.min = acc.min.min(*v as f64);
                acc.max = acc.max.max(*v as f64);
            }
        }
        // A summary stands for every row of its batch at once.
        ColVec::Summary(n) => {
            acc.count += n.count;
            acc.sum += n.sum;
            acc.min = acc.min.min(n.min);
            acc.max = acc.max.max(n.max);
        }
        ColVec::Absent | ColVec::Str { .. } => return None,
    }
    Some(acc)
}

/// Count the selected non-NULL cells of `col` (`COUNT(col)`).
pub fn count_valid(col: &ColVec, sel: &[u32]) -> i64 {
    match col {
        ColVec::Absent => 0,
        ColVec::ConstI64(_) => sel.len() as i64,
        ColVec::Shared { data, start } => {
            sel.iter().filter(|&&i| data[*start + i as usize].is_some()).count() as i64
        }
        ColVec::Summary(n) => n.count,
        ColVec::I64 { validity, .. }
        | ColVec::F64 { validity, .. }
        | ColVec::Str { validity, .. } => match validity {
            None => sel.len() as i64,
            Some(_) => sel.iter().filter(|&&i| bit(validity, i as usize)).count() as i64,
        },
    }
}

/// Real in-memory footprint of a row-path datum — the byte accounting
/// EXPLAIN and the optimizer share (strings price header + payload, not
/// the old flat 8).
pub fn datum_bytes(d: &Datum) -> u64 {
    match d {
        Datum::Null => 1,
        Datum::Str(s) => 16 + s.len() as u64,
        _ => 8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_and_datum_pivot() {
        let mut bits = empty_bitmap(70);
        set_bit(&mut bits, 0);
        set_bit(&mut bits, 69);
        let col = ColVec::I64 { data: (0..70).collect(), validity: Some(bits) };
        assert_eq!(col.datum(0, DataType::I64), Datum::I64(0));
        assert_eq!(col.datum(1, DataType::I64), Datum::Null);
        assert_eq!(col.datum(69, DataType::Ts), Datum::Ts(Timestamp(69)));
        assert_eq!(col.i64_at(69), Some(69));
        assert_eq!(col.i64_at(1), None);
    }

    #[test]
    fn shared_column_zero_copy_semantics() {
        let data = Arc::new(vec![Some(1.0), None, Some(3.0), Some(4.0)]);
        let col = ColVec::Shared { data: data.clone(), start: 1 };
        assert_eq!(col.datum(0, DataType::F64), Datum::Null);
        assert_eq!(col.f64_at(1), Some(3.0));
        assert_eq!(Arc::strong_count(&data), 2);
    }

    #[test]
    fn filter_kernel_matches_sql_null_semantics() {
        let col = ColVec::Shared {
            data: Arc::new(vec![Some(1.0), None, Some(3.0), Some(-2.0)]),
            start: 0,
        };
        let mut sel: Vec<u32> = (0..4).collect();
        filter_cmp(&col, CmpKernel::Gt, &Datum::F64(0.0), &mut sel, |_| unreachable!());
        assert_eq!(sel, vec![0, 2], "NULL never matches");
    }

    #[test]
    fn numeric_agg_folds_selected_rows_only() {
        let col = ColVec::F64 { data: vec![1.0, 2.0, 30.0, 4.0], validity: None };
        let a = numeric_agg(&col, &[0, 1, 3], NumAgg::after(0.0)).unwrap();
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 7.0);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert_eq!(count_valid(&col, &[0, 1, 3]), 3);
    }

    #[test]
    fn string_bytes_are_real_not_flat() {
        let s: Arc<str> = "a-rather-long-sensor-name".into();
        let col = ColVec::Str { data: vec![s.clone()], validity: None };
        assert_eq!(col.bytes(1), 16 + s.len() as u64);
        assert_eq!(datum_bytes(&Datum::Str(s.clone())), 16 + s.len() as u64);
        assert_eq!(datum_bytes(&Datum::Null), 1);
        assert_eq!(datum_bytes(&Datum::I64(7)), 8);
    }
}
