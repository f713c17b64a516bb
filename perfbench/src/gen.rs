//! Seeded input generation. Everything a run feeds the historian — column
//! runs, dimension rows, wire frames and query parameters — is derived here
//! from the workload seed before any clock starts, so the same seed always
//! yields the same inputs and the oracle can recompute every answer from
//! them without asking the program.

use iotx::ld::{ld_epoch, LdSpec, ObservationGen};
use iotx::td::{td_epoch, TdSpec};
use odh_types::{Datum, Duration, Record, Row, Timestamp};
use std::collections::BTreeMap;
use std::iter::Peekable;

/// SplitMix64: small, fast and fully specified, so inputs do not depend on
/// any library's generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A fresh generator for an independent stream.
    pub fn fork(&mut self) -> Rng {
        Rng(self.next_u64())
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

pub use iotx::ld::OBSERVATION_TAGS as OBS_TAGS;
pub use iotx::td::TRADE_TAGS;
/// `t_chrg`: the trade tag the aggregate and time-series templates read.
pub const TRADE_TAG: usize = 1;
/// `airtemperature`.
pub const OBS_TAG: usize = 1;

/// One `write_cols` call's worth of input: same-source rows in time order.
pub struct Run {
    pub source: u64,
    pub ts: Vec<i64>,
    /// `cols[tag][row]`.
    pub cols: Vec<Vec<Option<f64>>>,
}

impl Run {
    pub fn points(&self) -> u64 {
        self.cols.iter().map(|c| c.iter().filter(|v| v.is_some()).count() as u64).sum()
    }
}

/// Which operational table a run or query belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tbl {
    Trade,
    Obs,
}

impl Tbl {
    pub fn name(self) -> &'static str {
        match self {
            Tbl::Trade => "trade",
            Tbl::Obs => "observation",
        }
    }

    pub fn view(self) -> &'static str {
        match self {
            Tbl::Trade => "trade_v",
            Tbl::Obs => "observation_v",
        }
    }

    pub fn tags(self) -> &'static [&'static str] {
        match self {
            Tbl::Trade => &TRADE_TAGS,
            Tbl::Obs => &OBS_TAGS,
        }
    }

    /// The representative tag aggregate and time-series queries read.
    pub fn tag(self) -> usize {
        match self {
            Tbl::Trade => TRADE_TAG,
            Tbl::Obs => OBS_TAG,
        }
    }
}

/// Every run ingested into one table, plus a per-source index.
pub struct TableData {
    pub runs: Vec<Run>,
    /// `by_source[s]` = indices into `runs`, in time order.
    pub by_source: Vec<Vec<usize>>,
    pub t0: i64,
    pub t1: i64,
}

impl TableData {
    fn new(sources: usize, t0: i64, t1: i64) -> TableData {
        TableData { runs: Vec::new(), by_source: vec![Vec::new(); sources], t0, t1 }
    }

    fn push(&mut self, run: Run) -> usize {
        let i = self.runs.len();
        self.by_source[run.source as usize].push(i);
        self.runs.push(run);
        i
    }

    pub fn sources(&self) -> usize {
        self.by_source.len()
    }

    pub fn rows(&self) -> u64 {
        self.runs.iter().map(|r| r.ts.len() as u64).sum()
    }

    pub fn points(&self) -> u64 {
        self.runs.iter().map(Run::points).sum()
    }
}

/// TD shape: accounts trading at irregular, jittered ~`interval_us` gaps
/// (IRTS). Prices walk in cents; the charges derive from the price.
///
/// `iotx::td::TradeGen` draws `t_chrg` at random and leaves commission and
/// tax unrounded: its histories store 8.4–8.9 B/point against 5.2 with this
/// shape, and a durable historian cannot maintain one large enough to
/// exceed the decode cache (see the README).
pub struct TradeGen {
    price: Vec<f64>,
    next_ts: Vec<i64>,
    interval_us: i64,
    rng: Rng,
}

impl TradeGen {
    pub fn new(accounts: usize, interval_us: i64, t0: i64, rng: &mut Rng) -> TradeGen {
        let mut rng = rng.fork();
        let price = (0..accounts).map(|_| 10.0 + (rng.below(9000) as f64) / 100.0).collect();
        let next_ts = (0..accounts).map(|_| t0 + rng.below(interval_us as u64) as i64).collect();
        TradeGen { price, next_ts, interval_us, rng }
    }

    /// The next `rows` trades of `account`.
    pub fn run(&mut self, account: u64, rows: usize) -> Run {
        let a = account as usize;
        let mut ts = Vec::with_capacity(rows);
        let mut cols: Vec<Vec<Option<f64>>> =
            (0..TRADE_TAGS.len()).map(|_| Vec::with_capacity(rows)).collect();
        for _ in 0..rows {
            ts.push(self.next_ts[a]);
            let gap = self.interval_us / 2 + self.rng.below(self.interval_us as u64) as i64;
            self.next_ts[a] += gap.max(1);
            let step = (self.rng.below(41) as f64 - 20.0) / 100.0;
            let p = cents(self.price[a] + step).max(1.0);
            self.price[a] = p;
            cols[0].push(Some(p));
            cols[1].push(Some(cents(p * 0.02)));
            cols[2].push(Some(cents(p * 0.015)));
            cols[3].push(Some(cents(p * 0.01)));
        }
        Run { source: account, ts, cols }
    }
}

fn cents(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// A TD + LD history: `rounds` time windows; in each, every account emits
/// `rows_per_round` trades, and every station the reports
/// `iotx::ld::ObservationGen` stamps inside the window (one run per
/// station). Groups cut each window's runs into `~group_rows`-row chunks,
/// TD then LD.
pub struct History {
    pub trade: TableData,
    pub obs: TableData,
    /// Ingest order: `groups[g]` lists `(table, run index)` pairs. One group
    /// is one wire frame or one in-process commit group (`write_cols`… +
    /// `sync`).
    pub groups: Vec<Vec<(Tbl, usize)>>,
}

pub struct HistorySpec {
    pub accounts: usize,
    pub trade_rows_per_round: usize,
    pub trade_interval_us: i64,
    pub trade_group_rows: usize,
    pub sensors: usize,
    pub obs_group_rows: usize,
    pub rounds: usize,
}

/// LD's 23-minute report interval replayed at 60×, and ~24 reports per
/// station.
const LD_INTERVAL_S: i64 = 23;
const LD_REPORTS: i64 = 24;

impl HistorySpec {
    fn ld(&self, seed: u64) -> LdSpec {
        LdSpec {
            sensors: self.sensors as u64,
            mean_interval: Duration::from_secs(LD_INTERVAL_S),
            duration: Duration::from_secs(LD_INTERVAL_S * LD_REPORTS),
            tags: OBS_TAGS.len(),
            seed,
        }
    }
}

pub fn history(spec: &HistorySpec, rng: &mut Rng) -> History {
    let ld = spec.ld(rng.next_u64());
    let (te, oe) = (td_epoch().micros(), ld_epoch().micros());
    let tspan = (spec.rounds * spec.trade_rows_per_round) as i64 * spec.trade_interval_us;
    let mut trade = TableData::new(spec.accounts, te, te + tspan);
    let mut obs = TableData::new(spec.sensors, oe, oe + ld.duration.micros());
    let mut tg = TradeGen::new(spec.accounts, spec.trade_interval_us, te, rng);
    let mut og = ObservationGen::new(&ld).peekable();
    let mut groups = Vec::new();
    for r in 1..=spec.rounds as i64 {
        let t_idx = (0..spec.accounts as u64)
            .map(|a| (trade.push(tg.run(a, spec.trade_rows_per_round)), spec.trade_rows_per_round))
            .collect();
        cut(&mut groups, Tbl::Trade, t_idx, spec.trade_group_rows);
        let until = obs.t0 + (obs.t1 - obs.t0) * r / spec.rounds as i64;
        let o_idx = drain_window(&mut og, until, &mut obs, OBS_TAGS.len());
        cut(&mut groups, Tbl::Obs, o_idx, spec.obs_group_rows);
    }
    History { trade, obs, groups }
}

/// Moves the generator's records stamped before `until` into `data`, one
/// run per source in source order; returns each run's index and rows.
fn drain_window(
    gen: &mut Peekable<impl Iterator<Item = Record>>,
    until: i64,
    data: &mut TableData,
    tags: usize,
) -> Vec<(usize, usize)> {
    let mut runs: BTreeMap<u64, Run> = BTreeMap::new();
    while let Some(rec) = gen.next_if(|r| r.ts.micros() < until) {
        let run = runs.entry(rec.source.0).or_insert_with(|| Run {
            source: rec.source.0,
            ts: Vec::new(),
            cols: vec![Vec::new(); tags],
        });
        run.ts.push(rec.ts.micros());
        for (col, v) in run.cols.iter_mut().zip(rec.values) {
            col.push(v);
        }
    }
    runs.into_values()
        .map(|run| {
            let n = run.ts.len();
            (data.push(run), n)
        })
        .collect()
}

/// Appends `idx`'s runs to `groups` in chunks of at least `group_rows` rows.
fn cut(groups: &mut Vec<Vec<(Tbl, usize)>>, tbl: Tbl, idx: Vec<(usize, usize)>, group_rows: usize) {
    let mut g = Vec::new();
    let mut rows = 0;
    for (i, n) in idx {
        g.push((tbl, i));
        rows += n;
        if rows >= group_rows {
            groups.push(std::mem::take(&mut g));
            rows = 0;
        }
    }
    if !g.is_empty() {
        groups.push(g);
    }
}

// ---------------------------------------------------------- dimensions --

/// Dimension rows the TD and LD templates join against. Five accounts per
/// customer (`ca_c_id = ca_id / 5`); birth dates spread evenly over 1940–1989.
pub struct Dims {
    /// Per customer: birth year.
    pub dob_year: Vec<i64>,
    pub customers: Vec<Row>,
    pub accounts: Vec<Row>,
    /// Per sensor: (latitude, longitude).
    pub coords: Vec<(f64, f64)>,
    pub sensors: Vec<Row>,
}

pub fn account_name(a: u64) -> String {
    format!("acct_{a}")
}

/// Customers are the benchmark's own, so that birth years spread evenly;
/// account and station rows come from the IoT-X generators.
pub fn dims(accounts: usize, sensors: usize, rng: &mut Rng) -> Dims {
    let mut rng = rng.fork();
    let customers_n = accounts.div_ceil(5);
    let mut dob_year = Vec::with_capacity(customers_n);
    let mut customers = Vec::with_capacity(customers_n);
    for c in 0..customers_n {
        // Birth years cycle through 1940–1989, so every year holds the
        // same number of customers and TQ4 instances cost alike.
        let year = 1940 + (c % 50) as i64;
        let day = rng.below(365) as i64;
        let jan1 = Timestamp::parse_sql(&format!("{year}-01-01 00:00:00")).expect("valid date");
        dob_year.push(year);
        customers.push(Row::new(vec![
            Datum::I64(c as i64),
            Datum::str(format!("LAST{}", c % 97)),
            Datum::str(format!("FIRST{}", c % 89)),
            Datum::I64(1 + (c % 3) as i64),
            Datum::Ts(Timestamp(jan1.micros() + day * 86_400_000_000)),
        ]));
    }
    // Only the counts and seeds matter to the dimension generators.
    let none = Duration::from_secs(0);
    let td = TdSpec {
        accounts: accounts as u64,
        hz_per_account: 0.0,
        duration: none,
        seed: rng.next_u64(),
    };
    let ld = LdSpec {
        sensors: sensors as u64,
        mean_interval: none,
        duration: none,
        tags: OBS_TAGS.len(),
        seed: rng.next_u64(),
    };
    let (accounts, sensors) = (iotx::td::accounts(&td), iotx::ld::linked_sensors(&ld));
    let coords = sensors
        .iter()
        .map(|r| match (r.get(2), r.get(3)) {
            (Datum::F64(lat), Datum::F64(lon)) => (*lat, *lon),
            _ => unreachable!("linkedsensor rows hold latitude and longitude"),
        })
        .collect();
    Dims { dob_year, customers, accounts, coords, sensors }
}

// ---------------------------------------------------------------- live --

/// A live stream on a fixed tick schedule: `ticks[k]` lists the runs due
/// at tick `k`. Every run's timestamps fall inside its tick's window
/// `[t0 + k·tick, t0 + (k+1)·tick)`, so "rows acknowledged by tick k" is
/// "rows with ts < t0 + (k+1)·tick". Each tag's values strictly increase
/// per source, so a returned value identifies the row it came from.
pub struct Live {
    pub trade: TableData,
    pub obs: TableData,
    pub ticks: Vec<Vec<(Tbl, usize)>>,
    pub tick_us: i64,
}

pub struct LiveSpec {
    pub tick_us: i64,
    pub ticks: usize,
    /// Trade sources `0..regular` are regular (one row per tick); the
    /// next `irregular` are not.
    pub regular: usize,
    pub irregular: usize,
    /// Mean rows per tick of one irregular source.
    pub irregular_rows: u64,
    pub sensors: usize,
    /// MG report period, in ticks.
    pub sensor_period_ticks: (u64, u64),
}

impl Live {
    pub fn cut(&self, tick: i64) -> i64 {
        self.trade.t0 + (tick + 1) * self.tick_us
    }
}

fn bump(v: &mut f64, rng: &mut Rng) -> f64 {
    *v = cents(*v + 0.01 + rng.below(100) as f64 / 100.0);
    *v
}

pub fn live(spec: &LiveSpec, rng: &mut Rng) -> Live {
    let mut rng = rng.fork();
    let t0 = td_epoch().micros();
    let t1 = t0 + spec.ticks as i64 * spec.tick_us;
    let trade_n = spec.regular + spec.irregular;
    let mut trade = TableData::new(trade_n, t0, t1);
    let mut obs = TableData::new(spec.sensors, t0, t1);
    let mut tv: Vec<Vec<f64>> =
        (0..trade_n).map(|_| (0..4).map(|_| 10.0 + rng.below(100) as f64).collect()).collect();
    let mut subset = Vec::with_capacity(spec.sensors);
    let mut ov = Vec::with_capacity(spec.sensors);
    let mut sched = Vec::with_capacity(spec.sensors);
    let (plo, phi) = spec.sensor_period_ticks;
    for _ in 0..spec.sensors {
        let k = 3 + rng.below(6) as usize;
        let mut all: Vec<usize> = (0..OBS_TAGS.len()).collect();
        rng.shuffle(&mut all);
        let mut s = all[..k].to_vec();
        s.sort_unstable();
        ov.push(vec![rng.below(30) as f64; OBS_TAGS.len()]);
        subset.push(s);
        let period = plo + rng.below(phi - plo + 1);
        sched.push((period, rng.below(period), rng.below(spec.tick_us as u64) as i64));
    }
    let mut ticks = Vec::with_capacity(spec.ticks);
    for k in 0..spec.ticks {
        let base = t0 + k as i64 * spec.tick_us;
        let mut due = Vec::new();
        for (s, vals) in tv.iter_mut().enumerate() {
            let ts: Vec<i64> = if s < spec.regular {
                vec![base]
            } else {
                let n = rng.below(2 * spec.irregular_rows + 1) as usize;
                let mut ts: Vec<i64> =
                    (0..n).map(|_| base + rng.below(spec.tick_us as u64) as i64).collect();
                ts.sort_unstable();
                ts.dedup();
                ts
            };
            if ts.is_empty() {
                continue;
            }
            let cols = (0..4)
                .map(|j| ts.iter().map(|_| Some(bump(&mut vals[j], &mut rng))).collect())
                .collect();
            due.push((Tbl::Trade, trade.push(Run { source: s as u64, ts, cols })));
        }
        for s in 0..spec.sensors {
            let (period, phase, offset) = sched[s];
            if (k as u64) % period != phase {
                continue;
            }
            let cols = (0..OBS_TAGS.len())
                .map(|j| vec![subset[s].contains(&j).then(|| bump(&mut ov[s][j], &mut rng))])
                .collect();
            let run = Run { source: s as u64, ts: vec![base + offset], cols };
            due.push((Tbl::Obs, obs.push(run)));
        }
        ticks.push(due);
    }
    Live { trade, obs, ticks, tick_us: spec.tick_us }
}
