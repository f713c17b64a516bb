//! The independent oracle: query templates as parameter structs, a naive
//! filter/join/bucket evaluator over the generated inputs, and a multiset
//! comparison of the program's answers against it. Nothing here reads the
//! program's state; expected answers come from the inputs alone.

use crate::gen::{account_name, Dims, Run, TableData, Tbl};
use iotx::ld::station_name;
use odh_types::{Datum, Timestamp};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One result cell, with timestamps as microseconds.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    Null,
    I(i64),
    F(f64),
    S(String),
}

impl Cell {
    fn rank(&self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::I(_) => 1,
            Cell::F(_) => 2,
            Cell::S(_) => 3,
        }
    }

    fn total_cmp(&self, o: &Cell) -> Ordering {
        match (self, o) {
            (Cell::I(a), Cell::I(b)) => a.cmp(b),
            (Cell::F(a), Cell::F(b)) => a.total_cmp(b),
            (Cell::S(a), Cell::S(b)) => a.cmp(b),
            _ => self.rank().cmp(&o.rank()),
        }
    }

    pub fn f(v: Option<f64>) -> Cell {
        v.map_or(Cell::Null, Cell::F)
    }
}

pub type Rows = Vec<Vec<Cell>>;

pub fn canon(rows: &[odh_types::Row]) -> Rows {
    rows.iter()
        .map(|r| {
            r.cells()
                .iter()
                .map(|d| match d {
                    Datum::Null => Cell::Null,
                    Datum::I64(v) => Cell::I(*v),
                    Datum::F64(v) => Cell::F(*v),
                    Datum::Str(s) => Cell::S(s.to_string()),
                    Datum::Ts(t) => Cell::I(t.micros()),
                })
                .collect()
        })
        .collect()
}

/// Expected rows plus, per column, whether floats may differ by summation
/// order (SUM, AVG and values interpolated from them).
pub struct Expected {
    pub rows: Rows,
    pub approx: Vec<bool>,
}

const REL_TOL: f64 = 1e-9;

fn cells_match(e: &Cell, a: &Cell, approx: bool) -> bool {
    match (e, a) {
        (Cell::F(x), Cell::F(y)) if approx => {
            (x - y).abs() <= REL_TOL * x.abs().max(y.abs()).max(f64::MIN_POSITIVE)
        }
        (Cell::F(x), Cell::F(y)) => x.to_bits() == y.to_bits(),
        _ => e == a,
    }
}

fn sort_rows(rows: &mut Rows) {
    rows.sort_by(|a, b| {
        a.iter().zip(b).map(|(x, y)| x.total_cmp(y)).find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
    });
}

/// Multiset comparison. COUNTs, timestamps, MIN/MAX/LAST and raw values
/// must be identical; columns flagged approximate within 1e-9 relative.
pub fn compare(expected: &Expected, actual: &Rows) -> Result<(), String> {
    let mut e = expected.rows.clone();
    let mut a = actual.clone();
    sort_rows(&mut e);
    sort_rows(&mut a);
    if e.len() != a.len() {
        let first_missing = e.iter().find(|r| !a.contains(r));
        return Err(format!(
            "expected {} rows, got {}; first expected row not returned: {:?}",
            e.len(),
            a.len(),
            first_missing
        ));
    }
    for (i, (er, ar)) in e.iter().zip(&a).enumerate() {
        if er.len() != ar.len() {
            return Err(format!("row {i}: expected {} columns, got {}", er.len(), ar.len()));
        }
        for (c, (ec, ac)) in er.iter().zip(ar).enumerate() {
            let approx = expected.approx.get(c).copied().unwrap_or(false);
            if !cells_match(ec, ac, approx) {
                return Err(format!("row {i} column {c}: expected {er:?}, got {ar:?}"));
            }
        }
    }
    Ok(())
}

/// One query instance. The template id is the paper's (TQ1–TQ4, LQ1–LQ4)
/// or the vectorized operator suite's (VQ1–VQ4); `Agg` is the per-source
/// read-back.
#[derive(Clone, Debug)]
pub enum Q {
    /// COUNT/SUM/MIN/MAX/LAST of one tag per source.
    Agg { t: Tbl, tag: usize },
    /// TQ1 / LQ1: one source's whole history.
    Source { t: Tbl, src: u64 },
    /// TQ2 / LQ2: every source over a time window (inclusive bounds).
    Slice { t: Tbl, a: i64, b: i64 },
    /// TQ3: one account's trades, found through its name.
    AcctName { acct: u64 },
    /// TQ4: trades of accounts whose customer was born in `year`.
    DobYear { year: i64 },
    /// LQ3: one station's observations, found through its name.
    SensorName { sensor: u64 },
    /// LQ4: observations of stations inside a lat/long box, in 1e-4 degrees.
    GeoBox { lat: (i64, i64), lon: (i64, i64) },
    /// VQ1: `time_bucket` downsample, optionally from a start time.
    Downsample { t: Tbl, width: i64, from: Option<i64> },
    /// VQ2: last non-NULL value per source.
    LastPoint { t: Tbl },
    /// VQ3: gap-filled, interpolated downsample of one source.
    GapFill { t: Tbl, src: u64, a: i64, b: i64, width: i64 },
    /// VQ4: AS-OF self-join of one source over a window.
    AsOf { t: Tbl, src: u64, a: i64, b: i64 },
}

pub const TEMPLATES: [&str; 12] =
    ["tq1", "tq2", "tq3", "tq4", "lq1", "lq2", "lq3", "lq4", "vq1", "vq2", "vq3", "vq4"];

fn ts(v: i64) -> String {
    Timestamp(v).to_sql()
}

fn deg(v: i64) -> f64 {
    v as f64 / 10_000.0
}

impl Q {
    pub fn template(&self) -> &'static str {
        match self {
            Q::Agg { .. } => "agg",
            Q::Source { t: Tbl::Trade, .. } => "tq1",
            Q::Source { t: Tbl::Obs, .. } => "lq1",
            Q::Slice { t: Tbl::Trade, .. } => "tq2",
            Q::Slice { t: Tbl::Obs, .. } => "lq2",
            Q::AcctName { .. } => "tq3",
            Q::DobYear { .. } => "tq4",
            Q::SensorName { .. } => "lq3",
            Q::GeoBox { .. } => "lq4",
            Q::Downsample { .. } => "vq1",
            Q::LastPoint { .. } => "vq2",
            Q::GapFill { .. } => "vq3",
            Q::AsOf { .. } => "vq4",
        }
    }

    pub fn sql(&self) -> String {
        match self {
            Q::Agg { t, tag } => {
                let g = t.tags()[*tag];
                format!(
                    "select id, COUNT(*), COUNT({g}), SUM({g}), MIN({g}), MAX({g}), LAST({g}), \
                     MAX(timestamp) from {} group by id",
                    t.view()
                )
            }
            Q::Source { t, src } => format!("select * from {} where id = {src}", t.view()),
            Q::Slice { t: Tbl::Trade, a, b } => format!(
                "select * from trade_v where timestamp between '{}' and '{}'",
                ts(*a),
                ts(*b)
            ),
            Q::Slice { t: Tbl::Obs, a, b } => format!(
                "select timestamp, id, airtemperature from observation_v \
                 where timestamp between '{}' and '{}'",
                ts(*a),
                ts(*b)
            ),
            Q::AcctName { acct } => format!(
                "select timestamp, t_chrg from trade_v tr, account a \
                 where a.ca_id = tr.id and a.ca_name = '{}'",
                account_name(*acct)
            ),
            Q::DobYear { year } => format!(
                "select ca_name, timestamp, t_chrg from trade_v tr, account a, customer c \
                 where a.ca_id = tr.id and a.ca_c_id = c.c_id \
                 and c_dob between '{year}-01-01 00:00:00' and '{year}-12-31 23:59:59'"
            ),
            Q::SensorName { sensor } => format!(
                "select timestamp, o.id, airtemperature from observation_v o, linkedsensor l \
                 where l.sensorid = o.id and sensorname = '{}'",
                station_name(*sensor)
            ),
            Q::GeoBox { lat, lon } => format!(
                "select timestamp, o.id, airtemperature from observation_v o, linkedsensor l \
                 where l.sensorid = o.id and latitude < {:.4} and latitude > {:.4} \
                 and longitude < {:.4} and longitude > {:.4}",
                deg(lat.1),
                deg(lat.0),
                deg(lon.1),
                deg(lon.0)
            ),
            Q::Downsample { t, width, from } => {
                let g = t.tags()[t.tag()];
                let filter =
                    from.map_or(String::new(), |f| format!("where timestamp >= '{}' ", ts(f)));
                format!(
                    "select time_bucket({width}, timestamp), COUNT(*), AVG({g}) from {} {filter}\
                     group by time_bucket({width}, timestamp)",
                    t.view()
                )
            }
            Q::LastPoint { t } => {
                format!("select id, LAST({}) from {} group by id", t.tags()[t.tag()], t.view())
            }
            Q::GapFill { t, src, a, b, width } => {
                let g = t.tags()[t.tag()];
                format!(
                    "select time_bucket_gapfill({width}, timestamp), interpolate(AVG({g})) \
                     from {} where id = {src} and timestamp between '{}' and '{}' \
                     group by time_bucket_gapfill({width}, timestamp)",
                    t.view(),
                    ts(*a),
                    ts(*b)
                )
            }
            Q::AsOf { t, src, a, b } => {
                let g = t.tags()[t.tag()];
                format!(
                    "select x.timestamp, x.{g}, y.{g} from {v} x asof join {v} y \
                     on x.id = y.id and x.timestamp >= y.timestamp \
                     where x.id = {src} and x.timestamp between '{}' and '{}'",
                    ts(*a),
                    ts(*b),
                    v = t.view()
                )
            }
        }
    }
}

/// The generated inputs a query is evaluated over.
pub struct World<'a> {
    pub trade: &'a TableData,
    pub obs: &'a TableData,
    pub dims: Option<&'a Dims>,
}

impl World<'_> {
    pub fn table(&self, t: Tbl) -> &TableData {
        match t {
            Tbl::Trade => self.trade,
            Tbl::Obs => self.obs,
        }
    }

    /// Rows of `src` with `lo <= ts <= hi` and `ts < before`, in time order.
    fn source_rows(
        &self,
        t: Tbl,
        src: u64,
        lo: i64,
        hi: i64,
        before: i64,
    ) -> impl Iterator<Item = (&Run, usize)> {
        let data = self.table(t);
        data.by_source[src as usize].iter().flat_map(move |&ri| {
            let run = &data.runs[ri];
            (0..run.ts.len())
                .filter(move |&i| run.ts[i] >= lo && run.ts[i] <= hi && run.ts[i] < before)
                .map(move |i| (run, i))
        })
    }

    fn all_rows(&self, t: Tbl, before: i64) -> impl Iterator<Item = (&Run, usize)> {
        (0..self.table(t).sources() as u64)
            .flat_map(move |s| self.source_rows(t, s, i64::MIN, i64::MAX, before))
    }

    /// Expected answer of `q` over the rows written strictly before
    /// `before` (pass `i64::MAX` for the whole input).
    pub fn expect(&self, q: &Q, before: i64) -> Expected {
        let exact = |rows: Rows| {
            let n = rows.first().map_or(0, Vec::len);
            Expected { rows, approx: vec![false; n] }
        };
        let full = |run: &Run, i: usize| -> Vec<Cell> {
            let mut r = vec![Cell::I(run.source as i64), Cell::I(run.ts[i])];
            r.extend(run.cols.iter().map(|c| Cell::f(c[i])));
            r
        };
        match q {
            Q::Agg { t, tag } => {
                let mut rows = Vec::new();
                for s in 0..self.table(*t).sources() as u64 {
                    let (mut n, mut nn, mut sum) = (0i64, 0i64, 0.0f64);
                    let (mut min, mut max, mut last, mut max_ts) =
                        (None::<f64>, None::<f64>, None::<f64>, i64::MIN);
                    for (run, i) in self.source_rows(*t, s, i64::MIN, i64::MAX, before) {
                        n += 1;
                        max_ts = max_ts.max(run.ts[i]);
                        if let Some(v) = run.cols[*tag][i] {
                            nn += 1;
                            sum += v;
                            min = Some(min.map_or(v, |m| m.min(v)));
                            max = Some(max.map_or(v, |m| m.max(v)));
                            last = Some(v);
                        }
                    }
                    if n > 0 {
                        rows.push(vec![
                            Cell::I(s as i64),
                            Cell::I(n),
                            Cell::I(nn),
                            Cell::f((nn > 0).then_some(sum)),
                            Cell::f(min),
                            Cell::f(max),
                            Cell::f(last),
                            Cell::I(max_ts),
                        ]);
                    }
                }
                Expected {
                    rows,
                    approx: vec![false, false, false, true, false, false, false, false],
                }
            }
            Q::Source { t, src } => exact(
                self.source_rows(*t, *src, i64::MIN, i64::MAX, before)
                    .map(|(r, i)| full(r, i))
                    .collect(),
            ),
            Q::Slice { t: Tbl::Trade, a, b } => exact(
                self.all_rows(Tbl::Trade, before)
                    .filter(|(r, i)| r.ts[*i] >= *a && r.ts[*i] <= *b)
                    .map(|(r, i)| full(r, i))
                    .collect(),
            ),
            Q::Slice { t: Tbl::Obs, a, b } => exact(
                self.all_rows(Tbl::Obs, before)
                    .filter(|(r, i)| r.ts[*i] >= *a && r.ts[*i] <= *b)
                    .map(|(r, i)| obs_row(r, i))
                    .collect(),
            ),
            Q::AcctName { acct } => exact(
                self.source_rows(Tbl::Trade, *acct, i64::MIN, i64::MAX, before)
                    .map(|(r, i)| vec![Cell::I(r.ts[i]), Cell::f(r.cols[1][i])])
                    .collect(),
            ),
            Q::DobYear { year } => {
                let dims = self.dims.expect("TQ4 needs dimension tables");
                let mut rows = Vec::new();
                for a in 0..self.trade.sources() as u64 {
                    if dims.dob_year[(a / 5) as usize] != *year {
                        continue;
                    }
                    for (r, i) in self.source_rows(Tbl::Trade, a, i64::MIN, i64::MAX, before) {
                        rows.push(vec![
                            Cell::S(account_name(a)),
                            Cell::I(r.ts[i]),
                            Cell::f(r.cols[1][i]),
                        ]);
                    }
                }
                exact(rows)
            }
            Q::SensorName { sensor } => exact(
                self.source_rows(Tbl::Obs, *sensor, i64::MIN, i64::MAX, before)
                    .map(|(r, i)| obs_row(r, i))
                    .collect(),
            ),
            Q::GeoBox { lat, lon } => {
                let dims = self.dims.expect("LQ4 needs dimension tables");
                let mut rows = Vec::new();
                for (s, &(la, lo)) in dims.coords.iter().enumerate() {
                    if la < deg(lat.1) && la > deg(lat.0) && lo < deg(lon.1) && lo > deg(lon.0) {
                        rows.extend(
                            self.source_rows(Tbl::Obs, s as u64, i64::MIN, i64::MAX, before)
                                .map(|(r, i)| obs_row(r, i)),
                        );
                    }
                }
                exact(rows)
            }
            Q::Downsample { t, width, from } => {
                let lo = from.unwrap_or(i64::MIN);
                let mut b: BTreeMap<i64, (i64, i64, f64)> = BTreeMap::new();
                for (r, i) in self.all_rows(*t, before).filter(|(r, i)| r.ts[*i] >= lo) {
                    let e = b.entry(r.ts[i].div_euclid(*width) * width).or_default();
                    e.0 += 1;
                    if let Some(v) = r.cols[t.tag()][i] {
                        e.1 += 1;
                        e.2 += v;
                    }
                }
                let rows = b
                    .into_iter()
                    .map(|(k, (n, nn, sum))| {
                        vec![Cell::I(k), Cell::I(n), Cell::f((nn > 0).then(|| sum / nn as f64))]
                    })
                    .collect();
                Expected { rows, approx: vec![false, false, true] }
            }
            Q::LastPoint { t } => {
                let mut rows = Vec::new();
                for s in 0..self.table(*t).sources() as u64 {
                    let mut seen = false;
                    let mut last = None;
                    for (r, i) in self.source_rows(*t, s, i64::MIN, i64::MAX, before) {
                        seen = true;
                        last = r.cols[t.tag()][i].or(last);
                    }
                    if seen {
                        rows.push(vec![Cell::I(s as i64), Cell::f(last)]);
                    }
                }
                exact(rows)
            }
            Q::GapFill { t, src, a, b, width } => {
                let mut buckets: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
                for (r, i) in self.source_rows(*t, *src, *a, *b, before) {
                    let e = buckets.entry(r.ts[i].div_euclid(*width) * width).or_default();
                    if let Some(v) = r.cols[t.tag()][i] {
                        e.0 += 1;
                        e.1 += v;
                    }
                }
                let (Some(&lo), Some(&hi)) = (buckets.keys().next(), buckets.keys().next_back())
                else {
                    return Expected { rows: Vec::new(), approx: vec![false, true] };
                };
                let mut vals: Vec<(i64, Option<f64>)> = Vec::new();
                let mut k = lo;
                while k <= hi {
                    let v = buckets.get(&k).and_then(|&(n, s)| (n > 0).then(|| s / n as f64));
                    vals.push((k, v));
                    k += width;
                }
                let known: Vec<(usize, f64)> =
                    vals.iter().enumerate().filter_map(|(j, (_, v))| v.map(|v| (j, v))).collect();
                let mut filled: Vec<Option<f64>> = vals.iter().map(|(_, v)| *v).collect();
                for w in known.windows(2) {
                    let ((j0, v0), (j1, v1)) = (w[0], w[1]);
                    for (j, f) in filled.iter_mut().enumerate().take(j1).skip(j0 + 1) {
                        *f = Some(v0 + (v1 - v0) * ((j - j0) as f64 / (j1 - j0) as f64));
                    }
                }
                let rows = vals
                    .iter()
                    .zip(filled)
                    .map(|((k, _), v)| vec![Cell::I(*k), Cell::f(v)])
                    .collect();
                Expected { rows, approx: vec![false, true] }
            }
            Q::AsOf { t, src, a, b } => exact(
                self.source_rows(*t, *src, *a, *b, before)
                    .map(|(r, i)| {
                        let v = Cell::f(r.cols[t.tag()][i]);
                        vec![Cell::I(r.ts[i]), v.clone(), v]
                    })
                    .collect(),
            ),
        }
    }
}

fn obs_row(r: &Run, i: usize) -> Vec<Cell> {
    vec![Cell::I(r.ts[i]), Cell::I(r.source as i64), Cell::f(r.cols[crate::gen::OBS_TAG][i])]
}

/// Totals the ingest counters must reproduce.
pub struct Totals {
    pub rows: u64,
    pub points: u64,
}

pub fn totals(tables: &[&TableData]) -> Totals {
    Totals {
        rows: tables.iter().map(|t| t.rows()).sum(),
        points: tables.iter().map(|t| t.points()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Rng};

    /// A tiny history run through the real historian: its answers must
    /// pass the checker, and each of three corruptions must be rejected.
    #[test]
    fn checker_accepts_the_program_and_rejects_corrupted_results() {
        let spec = gen::HistorySpec {
            accounts: 10,
            trade_rows_per_round: 8,
            trade_interval_us: 50_000,
            trade_group_rows: 32,
            sensors: 40,
            obs_group_rows: 32,
            rounds: 4,
        };
        let mut rng = Rng::new(7);
        let hist = gen::history(&spec, &mut rng);
        let dims = gen::dims(spec.accounts, spec.sensors, &mut rng);
        let h = crate::workloads::build_historian().unwrap();
        let mut tr = crate::trace::Tracer::new(false, std::time::Instant::now());
        crate::workloads::register_history(&h, &hist, &mut tr).unwrap();
        crate::workloads::load_dims(&h, &dims).unwrap();
        let w = h.writer("trade").unwrap();
        let wo = h.writer("observation").unwrap();
        for g in &hist.groups {
            for &(t, i) in g {
                let (writer, data) = match t {
                    Tbl::Trade => (&w, &hist.trade),
                    Tbl::Obs => (&wo, &hist.obs),
                };
                let run = &data.runs[i];
                writer.write_cols(odh_types::SourceId(run.source), &run.ts, &run.cols).unwrap();
            }
        }
        w.sync().unwrap();
        let world = World { trade: &hist.trade, obs: &hist.obs, dims: Some(&dims) };
        let t0 = hist.trade.t0;
        let queries = [
            Q::Agg { t: Tbl::Trade, tag: 1 },
            Q::Agg { t: Tbl::Obs, tag: 1 },
            Q::Source { t: Tbl::Trade, src: 3 },
            Q::Slice { t: Tbl::Trade, a: t0, b: t0 + 400_000 },
            Q::Downsample { t: Tbl::Trade, width: 200_000, from: None },
            Q::GapFill { t: Tbl::Trade, src: 2, a: t0, b: t0 + 1_000_000, width: 100_000 },
        ];
        for q in &queries {
            let got = canon(&h.sql(&q.sql()).unwrap().rows);
            let exp = world.expect(q, i64::MAX);
            compare(&exp, &got).unwrap_or_else(|e| panic!("{}: {e}", q.sql()));
        }

        let q = Q::Source { t: Tbl::Trade, src: 3 };
        let good = canon(&h.sql(&q.sql()).unwrap().rows);
        let exp = world.expect(&q, i64::MAX);
        assert!(good.len() > 4);

        let mut altered = good.clone();
        if let Cell::F(v) = &mut altered[2][3] {
            *v += 0.01;
        }
        assert!(compare(&exp, &altered).is_err(), "altered value accepted");

        let mut dropped = good.clone();
        dropped.remove(1);
        assert!(compare(&exp, &dropped).is_err(), "dropped row accepted");

        let mut shifted = good.clone();
        if let Cell::I(t) = &mut shifted[0][1] {
            *t += 1;
        }
        assert!(compare(&exp, &shifted).is_err(), "shifted timestamp accepted");

        // Aggregates: an altered SUM beyond the tolerance is caught too.
        let q = Q::Agg { t: Tbl::Trade, tag: 1 };
        let mut agg = canon(&h.sql(&q.sql()).unwrap().rows);
        if let Cell::F(v) = &mut agg[0][3] {
            *v *= 1.0 + 1e-6;
        }
        assert!(compare(&world.expect(&q, i64::MAX), &agg).is_err(), "altered SUM accepted");
    }
}
