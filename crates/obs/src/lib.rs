//! Unified observability: a lock-free metrics registry plus lightweight
//! span timing for the ODH pipeline.
//!
//! Every pipeline stage (ingest shard acquire, WAL append/fsync, batch
//! seal, compaction and its MG drain, buffer-pool traffic, decode-cache
//! hits, summary answering, SQL plan/exec) publishes into one
//! [`Registry`], which renders a Prometheus-style text exposition. The design constraints, in order:
//!
//! 1. **Hot-path cost is one relaxed `fetch_add`.** Handles
//!    ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s obtained once at
//!    construction time; recording never touches the registry map or any
//!    lock. The registry map itself is only locked at registration and
//!    render time (both cold).
//! 2. **Timing is gated.** [`Registry::span`] only calls `Instant::now`
//!    when the registry is enabled ([`Registry::set_enabled`]); disabled,
//!    a span costs one relaxed load.
//! 3. **No dependencies.** The crate sits below `odh-sim` in the
//!    dependency order so every runtime crate can reach it.
//!
//! Histograms are log-bucketed (one bucket per power of two) over `u64`
//! values — nanoseconds by convention for every `*_seconds` metric; the
//! exposition divides by 1e9. Quantiles are bucket upper bounds, so they
//! are monotone in `q` and exact merges preserve them; see the property
//! tests in `tests/invariants.rs`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Monotone event counter. Never decreases except through
/// [`Counter::store`], which exists only for snapshot restore after
/// recovery.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite the value — recovery restoring a persisted snapshot only.
    pub fn store(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// Signed instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if larger (high-water marks).
    #[inline]
    pub fn raise(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. `v == 0 → 0` and `v ∈ [2^(i-1), 2^i) → i`.
pub const HIST_BUCKETS: usize = 64;

/// Lock-free log-bucketed histogram over `u64` values (by convention
/// nanoseconds for latency metrics).
///
/// Quantile reads return the **upper bound** of the covering bucket —
/// deterministic, monotone in `q`, and stable under [`Histogram::merge_from`]
/// (merging two histograms is bucket-exact, so quantiles of a merge equal
/// quantiles of recording the union).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// Point-in-time copy of a histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
}

#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i >= HIST_BUCKETS {
        u64::MAX
    } else {
        (1u64 << i).wrapping_sub(1)
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v).min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Value at quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// holding the `ceil(q·count)`-th smallest recorded value (0 when
    /// empty).
    pub fn percentile(&self, q: f64) -> u64 {
        let snap = self.snapshot();
        snap.percentile(q)
    }

    /// Fold another histogram's contents into this one. Bucket-exact:
    /// the result is identical to having recorded the union of both
    /// histories into `self`.
    pub fn merge_from(&self, other: &Histogram) {
        let o = other.snapshot();
        for (i, n) in o.buckets.iter().enumerate() {
            if *n > 0 {
                self.buckets[i].fetch_add(*n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(o.count, Ordering::Relaxed);
        self.sum.fetch_add(o.sum, Ordering::Relaxed);
        if o.count > 0 {
            self.min.fetch_min(o.min, Ordering::Relaxed);
            self.max.fetch_max(o.max, Ordering::Relaxed);
        }
    }

    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl HistSnapshot {
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }
}

/// One over-threshold operation captured by the slow-op log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowOp {
    /// Span name (see the taxonomy in DESIGN.md).
    pub op: String,
    /// Observed duration in nanoseconds.
    pub nanos: u64,
}

const SLOW_LOG_CAP: usize = 128;

#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// The metrics registry: get-or-create handles keyed by
/// `name{label="value",...}`, Prometheus-style text rendering, the
/// timing-enabled flag, and the slow-op ring buffer.
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    enabled: AtomicBool,
    slow_threshold_ns: AtomicU64,
    slow: Mutex<Vec<SlowOp>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("enabled", &self.enabled()).finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
            enabled: AtomicBool::new(true),
            // 100 ms: far above any healthy in-memory pipeline stage, low
            // enough to catch a stalled fsync or runaway query.
            slow_threshold_ns: AtomicU64::new(100_000_000),
            slow: Mutex::new(Vec::new()),
        }
    }
}

/// Render `name{labels}` (or bare `name` when unlabeled).
pub fn key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut s = String::with_capacity(name.len() + 16 * labels.len());
    s.push_str(name);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        s.push_str(v);
        s.push('"');
    }
    s.push('}');
    s
}

impl Registry {
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry::default())
    }

    /// Get or create the counter at `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let k = key(name, labels);
        let mut m = self.metrics.lock().unwrap();
        match m.entry(k).or_insert_with(|| Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {} re-registered as a counter", describe(other)),
        }
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let k = key(name, labels);
        let mut m = self.metrics.lock().unwrap();
        match m.entry(k).or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {} re-registered as a gauge", describe(other)),
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let k = key(name, labels);
        let mut m = self.metrics.lock().unwrap();
        match m.entry(k).or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {} re-registered as a histogram", describe(other)),
        }
    }

    /// Adopt an existing counter handle under `name{labels}` — how the
    /// pre-registry stats structs publish their already-shared atomics
    /// without a second copy.
    pub fn adopt_counter(&self, name: &str, labels: &[(&str, &str)], c: &Arc<Counter>) {
        self.metrics.lock().unwrap().insert(key(name, labels), Metric::Counter(c.clone()));
    }

    /// Adopt an existing gauge handle under `name{labels}`.
    pub fn adopt_gauge(&self, name: &str, labels: &[(&str, &str)], g: &Arc<Gauge>) {
        self.metrics.lock().unwrap().insert(key(name, labels), Metric::Gauge(g.clone()));
    }

    /// Current value of the counter at `name{labels}`, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.metrics.lock().unwrap().get(&key(name, labels)) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Sum of every counter registered under base name `name`, across all
    /// label sets (0 when none exist). The cluster-wide view of a
    /// per-table or per-server counter.
    pub fn sum_counter(&self, name: &str) -> u64 {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .filter(|(k, _)| split_key(k).0 == name)
            .map(|(_, metric)| match metric {
                Metric::Counter(c) => c.get(),
                _ => 0,
            })
            .sum()
    }

    /// Sum of every gauge registered under base name `name`, across all
    /// label sets (0 when none exist) — the cluster-wide view of a
    /// per-table gauge like `odh_table_source_registry_bytes`.
    pub fn sum_gauge(&self, name: &str) -> i64 {
        let m = self.metrics.lock().unwrap();
        m.iter()
            .filter(|(k, _)| split_key(k).0 == name)
            .map(|(_, metric)| match metric {
                Metric::Gauge(g) => g.get(),
                _ => 0,
            })
            .sum()
    }

    /// Enable or disable span timing (counters are unaffected — they are
    /// the engine's own statistics and must stay exact either way).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Operations at least this long are captured in the slow-op log
    /// (0 disables capture).
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Ordering::Relaxed);
    }

    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Ordering::Relaxed)
    }

    /// Record a finished operation's duration against the slow-op log.
    pub fn note_duration(&self, op: &str, nanos: u64) {
        let thr = self.slow_threshold_ns();
        if thr == 0 || nanos < thr {
            return;
        }
        let mut log = self.slow.lock().unwrap();
        if log.len() >= SLOW_LOG_CAP {
            log.remove(0);
        }
        log.push(SlowOp { op: op.to_string(), nanos });
    }

    /// Captured slow operations, oldest first.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        self.slow.lock().unwrap().clone()
    }

    /// Start a span recording into `hist` on drop. When the registry is
    /// disabled this takes no clock reading and records nothing.
    #[inline]
    pub fn span<'a>(&'a self, op: &'static str, hist: &'a Histogram) -> Span<'a> {
        Span {
            reg: self,
            op,
            hist,
            start: if self.enabled() { Some(Instant::now()) } else { None },
        }
    }

    /// Prometheus-style text exposition: one `key value` line per metric,
    /// histograms as quantile lines plus `_count`/`_sum`. `*_seconds`
    /// histograms record nanoseconds internally; rendering divides by 1e9.
    pub fn render(&self) -> String {
        let m = self.metrics.lock().unwrap();
        let mut out = String::new();
        for (k, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{k} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{k} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let (name, labels) = split_key(k);
                    for q in ["0.5", "0.95", "0.99"] {
                        let v = snap.percentile(q.parse().unwrap());
                        let lbl = if labels.is_empty() {
                            format!("{{quantile=\"{q}\"}}")
                        } else {
                            format!("{{{labels},quantile=\"{q}\"}}")
                        };
                        out.push_str(&format!("{name}{lbl} {}\n", scaled(name, v)));
                    }
                    let lbl =
                        if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
                    out.push_str(&format!("{name}_count{lbl} {}\n", snap.count));
                    out.push_str(&format!("{name}_sum{lbl} {}\n", scaled(name, snap.sum)));
                }
            }
        }
        out
    }

    /// Sorted, de-duplicated metric names (labels stripped; histograms
    /// expand to the base name plus `_count`/`_sum`) — the surface the CI
    /// catalog diff locks down.
    pub fn names(&self) -> Vec<String> {
        let m = self.metrics.lock().unwrap();
        let mut names = std::collections::BTreeSet::new();
        for (k, metric) in m.iter() {
            let (name, _) = split_key(k);
            match metric {
                Metric::Histogram(_) => {
                    names.insert(name.to_string());
                    names.insert(format!("{name}_count"));
                    names.insert(format!("{name}_sum"));
                }
                _ => {
                    names.insert(name.to_string());
                }
            }
        }
        names.into_iter().collect()
    }
}

fn describe(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

fn split_key(k: &str) -> (&str, &str) {
    match k.split_once('{') {
        Some((name, rest)) => (name, rest.trim_end_matches('}')),
        None => (k, ""),
    }
}

/// Histograms named `*_seconds` record nanoseconds; render as seconds.
fn scaled(name: &str, v: u64) -> String {
    if name.ends_with("_seconds") {
        format!("{:.9}", v as f64 / 1e9)
    } else {
        v.to_string()
    }
}

/// RAII span: on drop, records the elapsed nanoseconds into its histogram
/// and feeds the slow-op log. Created via [`Registry::span`].
pub struct Span<'a> {
    reg: &'a Registry,
    op: &'static str,
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.start {
            let ns = t.elapsed().as_nanos() as u64;
            self.hist.record(ns);
            self.reg.note_duration(self.op, ns);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let r = Registry::new();
        let c = r.counter("odh_x_total", &[("table", "t")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Get-or-create returns the same handle.
        assert_eq!(r.counter("odh_x_total", &[("table", "t")]).get(), 5);
        assert_eq!(r.counter_value("odh_x_total", &[("table", "t")]), Some(5));
        assert_eq!(r.counter_value("odh_x_total", &[]), None);
        r.counter("odh_x_total", &[("table", "u")]).add(2);
        assert_eq!(r.sum_counter("odh_x_total"), 7, "sums across label sets");
        assert_eq!(r.sum_counter("odh_x"), 0, "prefix does not match");
        let g = r.gauge("odh_depth", &[]);
        g.set(7);
        g.add(-2);
        g.raise(3);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_buckets_and_percentiles() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1105);
        assert_eq!(h.percentile(0.0), 0);
        // p50 covers the third value (the two 1s bucket).
        assert_eq!(h.percentile(0.5), 1);
        assert!(h.percentile(0.99) >= 1000);
        let p = [h.percentile(0.5), h.percentile(0.95), h.percentile(0.99)];
        assert!(p[0] <= p[1] && p[1] <= p[2], "{p:?}");
    }

    #[test]
    fn merge_is_bucket_exact() {
        let a = Histogram::new();
        let b = Histogram::new();
        let u = Histogram::new();
        for v in [1u64, 5, 9, 200] {
            a.record(v);
            u.record(v);
        }
        for v in [2u64, 5, 7_000] {
            b.record(v);
            u.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), u.snapshot());
    }

    #[test]
    fn render_and_names() {
        let r = Registry::new();
        r.counter("odh_puts_total", &[("table", "t")]).add(3);
        r.histogram("odh_op_seconds", &[]).record(2_000_000_000);
        let text = r.render();
        assert!(text.contains("odh_puts_total{table=\"t\"} 3"), "{text}");
        assert!(text.contains("odh_op_seconds{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("odh_op_seconds_count 1"), "{text}");
        // ~2s recorded; the p50 upper bound is within one bucket (2x).
        let p50: f64 = text
            .lines()
            .find(|l| l.starts_with("odh_op_seconds{quantile=\"0.5\"}"))
            .and_then(|l| l.split_whitespace().last())
            .unwrap()
            .parse()
            .unwrap();
        assert!((2.0..=4.3).contains(&p50), "{p50}");
        assert_eq!(
            r.names(),
            vec!["odh_op_seconds", "odh_op_seconds_count", "odh_op_seconds_sum", "odh_puts_total"]
        );
    }

    #[test]
    fn spans_record_and_slow_ops_capture() {
        let r = Registry::new();
        let h = r.histogram("odh_stage_seconds", &[]);
        r.set_slow_threshold_ns(1); // everything is "slow"
        {
            let _s = r.span("stage", &h);
            std::hint::black_box(());
        }
        assert_eq!(h.count(), 1);
        let slow = r.slow_ops();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].op, "stage");

        // Disabled: no recording, no clock read.
        r.set_enabled(false);
        {
            let _s = r.span("stage", &h);
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn slow_log_is_bounded() {
        let r = Registry::new();
        r.set_slow_threshold_ns(1);
        for i in 0..(SLOW_LOG_CAP + 10) {
            r.note_duration("op", i as u64 + 1);
        }
        let ops = r.slow_ops();
        assert_eq!(ops.len(), SLOW_LOG_CAP);
        // Oldest entries were dropped.
        assert_eq!(ops[0].nanos, 11);
    }
}
