//! The typed metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Metrics are keyed by `&'static str` ids and registered lazily on first
//! resolution. Resolution takes a mutex (once per id per call site, since
//! call sites cache the returned handle); updates are lock-free atomic
//! operations, cheap enough to sit on the allocation-free encode hot path.
//! Snapshots walk the id-sorted maps so exported output is deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter handle. No-op when resolved from a
/// disabled `Telemetry`.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    pub(crate) fn noop() -> Self {
        Counter(None)
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (zero for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge handle.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    pub(crate) fn noop() -> Self {
        Gauge(None)
    }

    /// Stores `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        if let Some(cell) = &self.0 {
            cell.store(v, Ordering::Relaxed);
        }
    }

    /// Current value (zero for a no-op handle).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Shared storage of one histogram: fixed upper-inclusive bucket edges
/// plus an implicit overflow bucket, a sample count, and a sample sum.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    edges: &'static [u64],
    /// `edges.len() + 1` buckets; the last catches values above every edge.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCell {
    fn new(edges: &'static [u64]) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        HistogramCell {
            edges,
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket histogram handle.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    pub(crate) fn noop() -> Self {
        Histogram(None)
    }

    /// Records one sample: a binary search over the static edges plus
    /// three relaxed atomic ops.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.0 {
            let idx = cell.edges.partition_point(|&edge| edge < v);
            cell.buckets[idx].fetch_add(1, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
            cell.sum.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// One metric's value in a registry snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's cumulative value.
    Counter {
        /// Metric id.
        id: &'static str,
        /// Cumulative value.
        value: u64,
    },
    /// A gauge's last stored value.
    Gauge {
        /// Metric id.
        id: &'static str,
        /// Last stored value.
        value: u64,
    },
    /// A histogram's buckets and aggregates.
    Histogram {
        /// Metric id.
        id: &'static str,
        /// Upper-inclusive bucket edges.
        edges: Vec<u64>,
        /// Per-bucket sample counts (`edges.len() + 1` entries; the last
        /// is the overflow bucket).
        buckets: Vec<u64>,
        /// Total samples.
        count: u64,
        /// Sum of all samples.
        sum: u64,
    },
}

impl MetricValue {
    /// The metric's id.
    #[must_use]
    pub fn id(&self) -> &'static str {
        match self {
            MetricValue::Counter { id, .. }
            | MetricValue::Gauge { id, .. }
            | MetricValue::Histogram { id, .. } => id,
        }
    }
}

/// A point-in-time copy of every registered metric, sorted by id within
/// each kind (counters, then gauges, then histograms).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// The metric values.
    pub metrics: Vec<MetricValue>,
}

impl Snapshot {
    /// Looks up a counter's value by id.
    #[must_use]
    pub fn counter(&self, id: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match m {
            MetricValue::Counter { id: i, value } if *i == id => Some(*value),
            _ => None,
        })
    }

    /// Looks up a gauge's value by id.
    #[must_use]
    pub fn gauge(&self, id: &str) -> Option<u64> {
        self.metrics.iter().find_map(|m| match m {
            MetricValue::Gauge { id: i, value } if *i == id => Some(*value),
            _ => None,
        })
    }

    /// Looks up a histogram's `(count, sum)` by id.
    #[must_use]
    pub fn histogram(&self, id: &str) -> Option<(u64, u64)> {
        self.metrics.iter().find_map(|m| match m {
            MetricValue::Histogram {
                id: i, count, sum, ..
            } if *i == id => Some((*count, *sum)),
            _ => None,
        })
    }
}

/// Interns a metric id built at runtime (hop- and latency-keyed ids) and
/// returns it as `'static`, so it resolves like a literal. Repeated calls
/// with the same key return the same pointer. The table holds one leaked
/// string per distinct id ever requested, a handful per mesh wire and
/// per `(scheme, phase)`.
pub(crate) fn intern_id(key: String) -> &'static str {
    static CACHE: OnceLock<Mutex<BTreeMap<String, &'static str>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(|| Mutex::new(BTreeMap::new()))
        .lock()
        .expect("metric id cache poisoned");
    if let Some(&id) = cache.get(&key) {
        return id;
    }
    let id: &'static str = Box::leak(key.clone().into_boxed_str());
    cache.insert(key, id);
    id
}

/// The metric store behind one enabled `Telemetry` handle.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistogramCell>>>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves (registering on first use) the counter named `id`.
    #[must_use]
    pub fn counter(&self, id: &'static str) -> Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        Counter(Some(Arc::clone(map.entry(id).or_default())))
    }

    /// Resolves (registering on first use) the gauge named `id`.
    #[must_use]
    pub fn gauge(&self, id: &'static str) -> Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        Gauge(Some(Arc::clone(map.entry(id).or_default())))
    }

    /// Resolves (registering on first use) the histogram named `id`.
    /// Every resolution of one id must pass the same `edges`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was previously registered with different edges.
    #[must_use]
    pub fn histogram(&self, id: &'static str, edges: &'static [u64]) -> Histogram {
        let mut map = self.histograms.lock().expect("registry poisoned");
        let cell = map
            .entry(id)
            .or_insert_with(|| Arc::new(HistogramCell::new(edges)));
        assert!(
            cell.edges == edges,
            "histogram `{id}` re-registered with different edges"
        );
        Histogram(Some(Arc::clone(cell)))
    }

    /// Deterministic (id-sorted) copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let mut metrics = Vec::new();
        for (id, cell) in self.counters.lock().expect("registry poisoned").iter() {
            metrics.push(MetricValue::Counter {
                id,
                value: cell.load(Ordering::Relaxed),
            });
        }
        for (id, cell) in self.gauges.lock().expect("registry poisoned").iter() {
            metrics.push(MetricValue::Gauge {
                id,
                value: cell.load(Ordering::Relaxed),
            });
        }
        for (id, cell) in self.histograms.lock().expect("registry poisoned").iter() {
            metrics.push(MetricValue::Histogram {
                id,
                edges: cell.edges.to_vec(),
                buckets: cell
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: cell.count.load(Ordering::Relaxed),
                sum: cell.sum.load(Ordering::Relaxed),
            });
        }
        Snapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_handles() {
        let r = Registry::new();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(r.snapshot().counter("hits"), Some(3));
    }

    #[test]
    fn gauges_take_the_last_value() {
        let r = Registry::new();
        let g = r.gauge("now");
        g.set(10);
        g.set(4);
        assert_eq!(r.snapshot().gauge("now"), Some(4));
    }

    #[test]
    fn histogram_buckets_are_upper_inclusive_with_overflow() {
        let r = Registry::new();
        let h = r.histogram("sizes", &[4, 16, 64]);
        for v in [0, 4, 5, 16, 64, 65, 1000] {
            h.record(v);
        }
        let snap = r.snapshot();
        let MetricValue::Histogram {
            buckets,
            count,
            sum,
            ..
        } = snap.metrics.last().unwrap().clone()
        else {
            panic!("histogram expected");
        };
        assert_eq!(buckets, vec![2, 2, 1, 2]); // <=4, <=16, <=64, overflow
        assert_eq!(count, 7);
        assert_eq!(sum, 4 + 5 + 16 + 64 + 65 + 1000);
        assert_eq!(snap.histogram("sizes"), Some((7, 1154)));
    }

    #[test]
    fn snapshot_is_sorted_by_id() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        r.gauge("m").set(1);
        let ids: Vec<&str> = r.snapshot().metrics.iter().map(MetricValue::id).collect();
        assert_eq!(ids, vec!["a", "z", "m"]);
    }

    #[test]
    #[should_panic(expected = "different edges")]
    fn histogram_edge_mismatch_panics() {
        let r = Registry::new();
        let _ = r.histogram("h", &[1, 2]);
        let _ = r.histogram("h", &[3, 4]);
    }

    #[test]
    fn noop_handles_read_zero() {
        let c = Counter::noop();
        c.add(9);
        assert_eq!(c.get(), 0);
        let g = Gauge::noop();
        g.set(9);
        assert_eq!(g.get(), 0);
        Histogram::noop().record(9);
    }
}
