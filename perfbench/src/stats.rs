//! Percentiles, registry snapshots and the run's operation accounting.

use odh_core::Historian;
use std::collections::BTreeMap;

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Every series of the historian's exposition summed by metric name
/// (labels dropped, quantile lines skipped). Read only between phases.
#[derive(Clone, Default)]
pub struct Snap(BTreeMap<String, f64>);

impl Snap {
    pub fn take(h: &Historian) -> Snap {
        let mut m = BTreeMap::new();
        for line in h.metrics_text().lines() {
            if line.contains("quantile=") {
                continue;
            }
            let Some((key, val)) = line.rsplit_once(' ') else { continue };
            let Ok(v) = val.parse::<f64>() else { continue };
            let name = key.split('{').next().unwrap_or(key);
            *m.entry(name.to_string()).or_insert(0.0) += v;
        }
        Snap(m)
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `later - self` for one metric.
    pub fn delta(&self, later: &Snap, name: &str) -> f64 {
        later.get(name) - self.get(name)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Operations attempted and failed, by kind, plus output mismatches.
#[derive(Default)]
pub struct Acct {
    pub attempted: BTreeMap<&'static str, u64>,
    pub failed: BTreeMap<&'static str, u64>,
    pub mismatches: Vec<String>,
}

impl Acct {
    pub fn op<T, E: std::fmt::Display>(
        &mut self,
        kind: &'static str,
        r: Result<T, E>,
    ) -> Option<T> {
        *self.attempted.entry(kind).or_default() += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                *self.failed.entry(kind).or_default() += 1;
                if self.mismatches.len() < 20 {
                    eprintln!("perfbench: {kind} failed: {e}");
                }
                None
            }
        }
    }

    /// A check of the program's output against the oracle.
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        *self.attempted.entry("checks").or_default() += 1;
        if let Err(e) = r {
            if self.mismatches.len() < 20 {
                eprintln!("perfbench: MISMATCH {what}: {e}");
            }
            self.mismatches.push(format!("{what}: {e}"));
        }
    }

    pub fn count(&mut self, kind: &'static str, n: u64) {
        *self.attempted.entry(kind).or_default() += n;
    }

    pub fn merge(&mut self, o: Acct) {
        for (k, v) in o.attempted {
            *self.attempted.entry(k).or_default() += v;
        }
        for (k, v) in o.failed {
            *self.failed.entry(k).or_default() += v;
        }
        self.mismatches.extend(o.mismatches);
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.values().sum()
    }

    pub fn failed(&self) -> u64 {
        self.failed.values().sum()
    }

    /// Whether the run stands: no answer disagreed with the oracle and no
    /// operation failed. A failed compact or query would otherwise shorten
    /// the timed phase it belongs to and flatter the figures.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty() && self.failed() == 0
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Registry movement summed over one or more phases.
#[derive(Default)]
pub struct Deltas(BTreeMap<String, f64>);

impl Deltas {
    pub fn add(&mut self, before: &Snap, after: &Snap) {
        for (k, v) in &after.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v - before.get(k);
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::Acct;

    #[test]
    fn a_failed_operation_or_a_mismatch_fails_the_run() {
        let mut acct = Acct::default();
        acct.op::<(), String>("compact", Ok(()));
        acct.check("count", Ok(()));
        assert!(acct.passed());

        let mut failed = Acct::default();
        failed.op::<(), _>("compact", Err("buffer pool full"));
        assert_eq!((failed.attempted(), failed.failed()), (1, 1));
        assert!(failed.mismatches.is_empty() && !failed.passed());

        let mut wrong = Acct::default();
        wrong.check("count", Err("3 != 4".into()));
        assert!(!wrong.passed());

        acct.merge(failed);
        assert!(!acct.passed());
    }
}
