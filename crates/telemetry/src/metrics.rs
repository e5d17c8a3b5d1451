//! Counter/gauge registry with deterministic snapshots and JSON export.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::push_str;

/// What a metric is attributed to.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Scope {
    /// System-wide.
    Global,
    /// One simulated node.
    Node(u32),
    /// One site of the latency profile.
    Site(u32),
    /// One directed (from, to) node pair.
    Link(u32, u32),
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Global => write!(f, "global"),
            Scope::Node(n) => write!(f, "node:{n}"),
            Scope::Site(s) => write!(f, "site:{s}"),
            Scope::Link(a, b) => write!(f, "link:{a}->{b}"),
        }
    }
}

/// Monotone counters plus max-tracking gauges and sample histograms,
/// keyed by `(scope, name)`.
///
/// Backed by `BTreeMap`s so iteration (and therefore every snapshot and
/// JSON export) is deterministically ordered.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    values: BTreeMap<(Scope, &'static str), u64>,
    hists: BTreeMap<(Scope, &'static str), Vec<u64>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `(scope, name)`.
    pub fn add(&mut self, scope: Scope, name: &'static str, n: u64) {
        *self.values.entry((scope, name)).or_insert(0) += n;
    }

    /// Raises the gauge `(scope, name)` to `v` if `v` is larger (high-water
    /// mark semantics — used for e.g. service-queue backlog).
    pub fn set_max(&mut self, scope: Scope, name: &'static str, v: u64) {
        let slot = self.values.entry((scope, name)).or_insert(0);
        *slot = (*slot).max(v);
    }

    /// Appends one sample to the histogram `(scope, name)` — used for
    /// duration distributions like replica recovery times.
    pub fn observe(&mut self, scope: Scope, name: &'static str, v: u64) {
        self.hists.entry((scope, name)).or_default().push(v);
    }

    /// Current value of `(scope, name)`; zero if never touched.
    pub fn get(&self, scope: Scope, name: &'static str) -> u64 {
        self.values.get(&(scope, name)).copied().unwrap_or(0)
    }

    /// A point-in-time copy of every metric, in deterministic order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            entries: self
                .values
                .iter()
                .map(|(&(scope, name), &value)| MetricEntry { scope, name, value })
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(&(scope, name), samples)| HistEntry {
                    scope,
                    name,
                    samples: samples.clone(),
                })
                .collect(),
        }
    }
}

/// One `(scope, name, value)` row of a snapshot.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct MetricEntry {
    /// What the metric is attributed to.
    pub scope: Scope,
    /// Metric name.
    pub name: &'static str,
    /// Value at snapshot time.
    pub value: u64,
}

/// One `(scope, name, samples)` histogram row of a snapshot, in
/// observation order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistEntry {
    /// What the histogram is attributed to.
    pub scope: Scope,
    /// Histogram name.
    pub name: &'static str,
    /// Every observed sample, in observation order.
    pub samples: Vec<u64>,
}

impl HistEntry {
    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Largest sample (zero when empty).
    pub fn max(&self) -> u64 {
        self.samples.iter().copied().max().unwrap_or(0)
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> u64 {
        self.samples.iter().copied().min().unwrap_or(0)
    }
}

/// A deterministic, point-in-time view of a [`MetricsRegistry`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MetricsSnapshot {
    /// All counter/gauge rows, sorted by `(scope, name)`.
    pub entries: Vec<MetricEntry>,
    /// All histogram rows, sorted by `(scope, name)`.
    pub hists: Vec<HistEntry>,
}

impl MetricsSnapshot {
    /// Value of `(scope, name)`; zero if absent.
    pub fn get(&self, scope: Scope, name: &'static str) -> u64 {
        self.entries
            .iter()
            .find(|e| e.scope == scope && e.name == name)
            .map_or(0, |e| e.value)
    }

    /// Sum of `name` across all scopes of any kind.
    pub fn total(&self, name: &'static str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.value)
            .sum()
    }

    /// The histogram `(scope, name)`, if any samples were observed.
    pub fn histogram(&self, scope: Scope, name: &'static str) -> Option<&HistEntry> {
        self.hists
            .iter()
            .find(|h| h.scope == scope && h.name == name)
    }

    /// Whether the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.hists.is_empty()
    }

    /// One JSON object on a single line:
    /// `{"kind":"metrics","counters":{"node:0/msgs_sent":12,...}}`, plus a
    /// `"hists"` object (count/sum/min/max per histogram) when any
    /// histogram holds samples.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"kind\":\"metrics\",\"counters\":{");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_str(&mut out, &format!("{}/{}", e.scope, e.name));
            let _ = write!(out, ":{}", e.value);
        }
        out.push('}');
        if !self.hists.is_empty() {
            out.push_str(",\"hists\":{");
            for (i, h) in self.hists.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_str(&mut out, &format!("{}/{}", h.scope, h.name));
                let _ = write!(
                    out,
                    ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max()
                );
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_gauges_track_max() {
        let mut m = MetricsRegistry::new();
        m.add(Scope::Node(1), "msgs_sent", 2);
        m.add(Scope::Node(1), "msgs_sent", 3);
        m.set_max(Scope::Node(1), "backlog_us", 10);
        m.set_max(Scope::Node(1), "backlog_us", 4);
        assert_eq!(m.get(Scope::Node(1), "msgs_sent"), 5);
        assert_eq!(m.get(Scope::Node(1), "backlog_us"), 10);
        assert_eq!(m.get(Scope::Node(2), "msgs_sent"), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_json_is_stable() {
        let mut m = MetricsRegistry::new();
        m.add(Scope::Site(1), "b", 1);
        m.add(Scope::Global, "a", 2);
        m.add(Scope::Link(0, 3), "c", 3);
        let snap = m.snapshot();
        assert_eq!(snap.entries[0].scope, Scope::Global);
        assert_eq!(
            snap.to_json(),
            "{\"kind\":\"metrics\",\"counters\":{\"global/a\":2,\
             \"site:1/b\":1,\"link:0->3/c\":3}}"
        );
        assert_eq!(snap.total("a"), 2);
        assert_eq!(snap.get(Scope::Site(1), "b"), 1);
    }

    #[test]
    fn histograms_accumulate_samples_and_render_summaries() {
        let mut m = MetricsRegistry::new();
        m.observe(Scope::Node(2), "recovery_us", 30);
        m.observe(Scope::Node(2), "recovery_us", 10);
        m.observe(Scope::Node(1), "recovery_us", 7);
        let snap = m.snapshot();
        let h = snap.histogram(Scope::Node(2), "recovery_us").unwrap();
        assert_eq!(h.samples, vec![30, 10], "observation order preserved");
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (2, 40, 10, 30));
        assert_eq!(
            snap.histogram(Scope::Node(1), "recovery_us")
                .unwrap()
                .samples,
            vec![7]
        );
        assert!(snap.histogram(Scope::Global, "recovery_us").is_none());
        assert_eq!(
            snap.to_json(),
            "{\"kind\":\"metrics\",\"counters\":{},\
             \"hists\":{\"node:1/recovery_us\":{\"count\":1,\"sum\":7,\"min\":7,\"max\":7},\
             \"node:2/recovery_us\":{\"count\":2,\"sum\":40,\"min\":10,\"max\":30}}}"
        );
    }

    #[test]
    fn counter_only_json_is_unchanged_by_the_hist_field() {
        let mut m = MetricsRegistry::new();
        m.add(Scope::Global, "a", 1);
        assert_eq!(
            m.snapshot().to_json(),
            "{\"kind\":\"metrics\",\"counters\":{\"global/a\":1}}"
        );
    }
}
