//! Metric extraction: a uniform way to flatten experiment results into
//! named numeric metrics.
//!
//! Every SPECRUN artifact — a Fig. 7 IPC comparison, a PoC outcome, a
//! window report — ultimately reduces to `name → number` pairs that the
//! campaign runner (`specrun-lab`) records, regression-checks and merges
//! into `LAB_report.json`. [`MetricSource`] is the extraction trait each
//! result type implements; [`MetricSet`] is the ordered, deterministic
//! sink they emit into (insertion order is preserved so serialized
//! artifacts are byte-stable across runs).
//!
//! ```
//! use specrun_workloads::metrics::{MetricSet, MetricSource};
//! use specrun_workloads::Summary;
//!
//! let mut set = MetricSet::new();
//! Summary::of([2.0, 4.0]).emit_metrics("ipc", &mut set);
//! assert_eq!(set.get("ipc_mean"), Some(3.0));
//! ```

use crate::harness::Summary;
use crate::ipc::{IpcComparison, IpcResult};

/// An ordered collection of named numeric metrics.
///
/// Keys are plain `snake_case` strings; insertion order is preserved and
/// duplicate keys are rejected (a sweep emitting the same key twice is a
/// labelling bug that would silently shadow data downstream).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    entries: Vec<(String, f64)>,
}

impl MetricSet {
    /// An empty set.
    pub fn new() -> MetricSet {
        MetricSet::default()
    }

    /// Records `key = value`, keeping insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `key` was already recorded or `value` is NaN — both are
    /// producer bugs that must fail loudly, not corrupt an artifact.
    pub fn push(&mut self, key: impl Into<String>, value: f64) {
        let key = key.into();
        assert!(!value.is_nan(), "metric {key} is NaN");
        assert!(self.get(&key).is_none(), "duplicate metric key {key}");
        self.entries.push((key, value));
    }

    /// Looks a metric up by exact key.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.entries.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// The recorded metrics, in insertion order.
    pub fn entries(&self) -> &[(String, f64)] {
        &self.entries
    }

    /// Number of recorded metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Flattens a result type into named metrics under a key prefix.
///
/// Implementations emit every number a regression gate could care about;
/// the caller chooses the prefix (typically the kernel, machine or trial
/// label) so one [`MetricSet`] can hold a whole sweep.
pub trait MetricSource {
    /// Emits this value's metrics into `out`, each key starting with
    /// `prefix_` (or bare when `prefix` is empty).
    fn emit_metrics(&self, prefix: &str, out: &mut MetricSet);
}

/// Joins a prefix and a key with `_`, tolerating an empty prefix.
pub fn metric_key(prefix: &str, key: &str) -> String {
    if prefix.is_empty() {
        key.to_string()
    } else {
        format!("{prefix}_{key}")
    }
}

impl MetricSource for IpcResult {
    fn emit_metrics(&self, prefix: &str, out: &mut MetricSet) {
        out.push(metric_key(prefix, "committed"), self.committed as f64);
        out.push(metric_key(prefix, "cycles"), self.cycles as f64);
        out.push(metric_key(prefix, "ipc"), self.ipc);
        out.push(metric_key(prefix, "runahead_entries"), self.runahead_entries as f64);
    }
}

impl MetricSource for IpcComparison {
    fn emit_metrics(&self, prefix: &str, out: &mut MetricSet) {
        self.baseline.emit_metrics(&metric_key(prefix, "baseline"), out);
        self.runahead.emit_metrics(&metric_key(prefix, "runahead"), out);
        out.push(metric_key(prefix, "speedup"), self.speedup());
    }
}

impl MetricSource for Summary {
    fn emit_metrics(&self, prefix: &str, out: &mut MetricSet) {
        out.push(metric_key(prefix, "n"), self.n as f64);
        out.push(metric_key(prefix, "mean"), self.mean);
        out.push(metric_key(prefix, "min"), self.min);
        out.push(metric_key(prefix, "max"), self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_preserves_order_and_looks_up() {
        let mut set = MetricSet::new();
        set.push("b", 2.0);
        set.push("a", 1.0);
        assert_eq!(set.entries()[0].0, "b");
        assert_eq!(set.get("a"), Some(1.0));
        assert_eq!(set.get("missing"), None);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate metric key")]
    fn duplicate_keys_panic() {
        let mut set = MetricSet::new();
        set.push("x", 1.0);
        set.push("x", 2.0);
    }

    #[test]
    #[should_panic(expected = "is NaN")]
    fn nan_values_panic() {
        let mut set = MetricSet::new();
        set.push("x", f64::NAN);
    }

    #[test]
    fn summary_emits_under_prefix() {
        let mut set = MetricSet::new();
        Summary::of([1.0, 3.0]).emit_metrics("lat", &mut set);
        assert_eq!(set.get("lat_n"), Some(2.0));
        assert_eq!(set.get("lat_mean"), Some(2.0));
        assert_eq!(set.get("lat_min"), Some(1.0));
        assert_eq!(set.get("lat_max"), Some(3.0));
    }

    #[test]
    fn empty_prefix_emits_bare_keys() {
        let mut set = MetricSet::new();
        Summary::of([5.0]).emit_metrics("", &mut set);
        assert_eq!(set.get("mean"), Some(5.0));
    }
}
