//! Metrics registry: counters, gauges, and log-scale histograms.
//!
//! Metrics are cheap accumulators keyed by name. They are flushed into
//! the trace as final-value events when a recorder finishes, in sorted
//! name order (`BTreeMap`) so dumps are deterministic.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::event::TraceEvent;

/// Number of histogram buckets: bucket 0 for zero, buckets 1..=64 for
/// `[2^(b-1), 2^b - 1]`.
pub const HIST_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` observations.
///
/// Power-of-two buckets cover the full `u64` range in 65 slots, which
/// is plenty of resolution for latency-style data (the paper's solver
/// queries span nanoseconds to seconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Bucket counts; see [`bucket_of`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// The bucket index for a value: 0 for 0, else `floor(log2 v) + 1`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (63 - v.leading_zeros() as usize) + 1
    }
}

impl Hist {
    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_of(v)] += 1;
    }

    /// The sparse `(bucket, count)` representation used on the wire.
    pub fn sparse(&self) -> Vec<(u32, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (b as u32, n))
            .collect()
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Interior-mutable so recorders can take `&self` (the whole telemetry
/// layer is single-threaded by design, per DESIGN.md §5).
#[derive(Debug, Default)]
pub struct Metrics {
    counters: RefCell<BTreeMap<String, u64>>,
    gauges: RefCell<BTreeMap<String, i64>>,
    hists: RefCell<BTreeMap<String, Hist>>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `delta` to the named monotone counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut map = self.counters.borrow_mut();
        if let Some(slot) = map.get_mut(name) {
            *slot = slot.saturating_add(delta);
        } else {
            map.insert(name.to_string(), delta);
        }
    }

    /// Raises the named gauge to `v` if `v` is larger (peak tracking).
    pub fn gauge_max(&self, name: &str, v: i64) {
        let mut map = self.gauges.borrow_mut();
        match map.get_mut(name) {
            Some(slot) => *slot = (*slot).max(v),
            None => {
                map.insert(name.to_string(), v);
            }
        }
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        let mut map = self.hists.borrow_mut();
        if let Some(h) = map.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Hist::default();
            h.observe(v);
            map.insert(name.to_string(), h);
        }
    }

    /// Reads back a counter. `None` means the counter was never
    /// incremented — distinct from an observed zero, so report diffs
    /// can tell "absent" from "0".
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.borrow().get(name).copied()
    }

    /// Reads back a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.borrow().get(name).copied()
    }

    /// Reads back a histogram clone, if ever observed.
    pub fn hist(&self, name: &str) -> Option<Hist> {
        self.hists.borrow().get(name).cloned()
    }

    /// Dumps every metric as final-value trace events, counters first,
    /// then gauges, then histograms, each in sorted name order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        for (name, &value) in self.counters.borrow().iter() {
            out.push(TraceEvent::Counter {
                name: name.clone(),
                value,
            });
        }
        for (name, &value) in self.gauges.borrow().iter() {
            out.push(TraceEvent::Gauge {
                name: name.clone(),
                value,
            });
        }
        for (name, h) in self.hists.borrow().iter() {
            out.push(TraceEvent::Hist {
                name: name.clone(),
                count: h.count,
                sum: h.sum,
                buckets: h.sparse(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn hist_accumulates() {
        let mut h = Hist::default();
        h.observe(0);
        h.observe(3);
        h.observe(3);
        h.observe(1024);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1030);
        assert_eq!(h.sparse(), vec![(0, 1), (2, 2), (11, 1)]);
    }

    #[test]
    fn metrics_registry_and_snapshot_order() {
        let m = Metrics::new();
        m.counter_add("z.count", 2);
        m.counter_add("a.count", 1);
        m.counter_add("z.count", 3);
        m.gauge_max("peak", 5);
        m.gauge_max("peak", 3);
        m.observe("lat", 7);
        assert_eq!(m.counter("z.count"), Some(5));
        assert_eq!(m.counter("missing"), None);
        assert_eq!(m.gauge("peak"), Some(5));
        assert_eq!(m.hist("lat").unwrap().count, 1);

        let snap = m.snapshot();
        let names: Vec<String> = snap
            .iter()
            .map(|e| match e {
                TraceEvent::Counter { name, .. } => format!("c:{name}"),
                TraceEvent::Gauge { name, .. } => format!("g:{name}"),
                TraceEvent::Hist { name, .. } => format!("h:{name}"),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["c:a.count", "c:z.count", "g:peak", "h:lat"]);
    }
}
