//! The information store: named metric time series with window statistics.

use hdm_common::stats::Summary;
use std::collections::BTreeMap;

/// One sample: (monotonic tick, value).
pub type Sample = (u64, f64);

/// Collected performance/workload metrics.
#[derive(Debug, Default)]
pub struct InformationStore {
    series: BTreeMap<String, Vec<Sample>>,
    capacity_per_series: usize,
}

impl InformationStore {
    pub fn new() -> Self {
        Self {
            series: BTreeMap::new(),
            capacity_per_series: 65_536,
        }
    }

    /// Bound memory per metric (oldest samples dropped).
    pub fn with_capacity(mut self, cap: usize) -> Self {
        self.capacity_per_series = cap.max(1);
        self
    }

    /// Record one observation.
    pub fn record(&mut self, metric: &str, tick: u64, value: f64) {
        let s = self.series.entry(metric.to_string()).or_default();
        s.push((tick, value));
        if s.len() > self.capacity_per_series {
            let cut = s.len() - self.capacity_per_series;
            s.drain(..cut);
        }
    }

    pub fn metrics(&self) -> impl Iterator<Item = &str> {
        self.series.keys().map(String::as_str)
    }

    /// All samples of a metric with `tick >= since`.
    pub fn window(&self, metric: &str, since: u64) -> &[Sample] {
        match self.series.get(metric) {
            None => &[],
            Some(s) => {
                let start = s.partition_point(|(t, _)| *t < since);
                &s[start..]
            }
        }
    }

    /// Summary statistics over a window.
    pub fn summarize(&self, metric: &str, since: u64) -> Summary {
        let mut sum = Summary::new();
        for (_, v) in self.window(metric, since) {
            sum.record(*v);
        }
        sum
    }

    /// The latest sample of a metric.
    pub fn latest(&self, metric: &str) -> Option<Sample> {
        self.series.get(metric)?.last().copied()
    }

    /// Paired samples of two metrics joined on tick (training data for the
    /// in-DB ML component).
    pub fn joined(&self, x_metric: &str, y_metric: &str) -> Vec<(f64, f64)> {
        let (Some(xs), Some(ys)) = (self.series.get(x_metric), self.series.get(y_metric)) else {
            return vec![];
        };
        let y_by_tick: BTreeMap<u64, f64> = ys.iter().copied().collect();
        xs.iter()
            .filter_map(|(t, x)| y_by_tick.get(t).map(|y| (*x, *y)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_slice_by_tick() {
        let mut s = InformationStore::new();
        for t in 0..100 {
            s.record("latency", t, t as f64);
        }
        assert_eq!(s.window("latency", 90).len(), 10);
        assert_eq!(s.window("latency", 0).len(), 100);
        assert!(s.window("missing", 0).is_empty());
    }

    #[test]
    fn summaries_cover_window_only() {
        let mut s = InformationStore::new();
        for t in 0..10 {
            s.record("m", t, if t < 5 { 0.0 } else { 10.0 });
        }
        let w = s.summarize("m", 5);
        assert_eq!(w.count(), 5);
        assert_eq!(w.mean(), 10.0);
    }

    #[test]
    fn capacity_bounds_memory() {
        let mut s = InformationStore::new().with_capacity(10);
        for t in 0..100 {
            s.record("m", t, 1.0);
        }
        assert_eq!(s.window("m", 0).len(), 10);
        assert_eq!(s.latest("m"), Some((99, 1.0)));
    }

    #[test]
    fn joined_pairs_on_tick() {
        let mut s = InformationStore::new();
        for t in 0..10 {
            s.record("concurrency", t, t as f64);
            if t % 2 == 0 {
                s.record("latency", t, 2.0 * t as f64);
            }
        }
        let pairs = s.joined("concurrency", "latency");
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[2], (4.0, 8.0));
    }
}
