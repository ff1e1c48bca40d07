//! The time-series engine.
//!
//! §II-B requires "high ingestion rate for time-series data, and
//! computation-intensive spatial-temporal algorithms"; §IV-B adds "perform
//! data pre-aggregation for time series data at devices and edges". Points
//! live in fixed-width time segments, each maintaining incremental
//! aggregates (count/sum/min/max), so range aggregations are answered from
//! segment summaries plus the two partial edge segments — O(segments +
//! edge points) instead of O(points).

use hdm_common::{Datum, HdmError, Result, Row, Schema};
use std::collections::BTreeMap;

/// Per-segment incremental aggregate of one value column.
#[derive(Debug, Clone, Copy, Default)]
pub struct SegmentAgg {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl SegmentAgg {
    fn update(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    fn merge(&mut self, other: &SegmentAgg) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[derive(Debug, Clone, Default)]
struct Segment {
    /// (timestamp µs, tag, value) triples in arrival order.
    points: Vec<(i64, String, f64)>,
    agg: SegmentAgg,
}

/// A named time series store: (timestamp, tag, value) points.
///
/// The model matches the paper's motivating telemetry: a car/sensor id as
/// the tag and one numeric reading per point; wider rows belong in the
/// relational engine and join against this store via `gtimeseries(...)`.
#[derive(Debug)]
pub struct TimeSeriesStore {
    name: String,
    segment_width_us: i64,
    segments: BTreeMap<i64, Segment>,
    latest: i64,
    total_points: u64,
    /// Segments older than this horizon from `latest` are evicted (0 = keep
    /// everything).
    retention_us: i64,
}

impl TimeSeriesStore {
    pub fn new(name: impl Into<String>, segment_width_us: i64) -> Self {
        assert!(segment_width_us > 0, "segment width must be positive");
        Self {
            name: name.into(),
            segment_width_us,
            segments: BTreeMap::new(),
            latest: 0,
            total_points: 0,
            retention_us: 0,
        }
    }

    pub fn with_retention(mut self, retention_us: i64) -> Self {
        self.retention_us = retention_us;
        self
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Ingest one point. Out-of-order timestamps are accepted (they land in
    /// their proper segment).
    pub fn ingest(&mut self, ts_us: i64, tag: &str, value: f64) -> Result<()> {
        if !value.is_finite() {
            return Err(HdmError::Execution(format!(
                "non-finite value in series {}",
                self.name
            )));
        }
        let seg_key = ts_us.div_euclid(self.segment_width_us);
        let seg = self.segments.entry(seg_key).or_default();
        seg.points.push((ts_us, tag.to_string(), value));
        seg.agg.update(value);
        self.latest = self.latest.max(ts_us);
        self.total_points += 1;
        if self.retention_us > 0 {
            let horizon = (self.latest - self.retention_us).div_euclid(self.segment_width_us);
            while let Some((&k, _)) = self.segments.first_key_value() {
                if k < horizon {
                    self.segments.remove(&k);
                } else {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Latest ingested timestamp (the store's notion of `now()` — the
    /// simulation is free of wall clocks).
    pub fn latest(&self) -> i64 {
        self.latest
    }

    pub fn total_points(&self) -> u64 {
        self.total_points
    }

    /// All points with `t0 <= ts < t1`, time-ordered.
    pub fn range(&self, t0: i64, t1: i64) -> Vec<(i64, String, f64)> {
        let k0 = t0.div_euclid(self.segment_width_us);
        let k1 = t1.div_euclid(self.segment_width_us);
        let mut out = Vec::new();
        for (_k, seg) in self.segments.range(k0..=k1) {
            for (ts, tag, v) in &seg.points {
                if *ts >= t0 && *ts < t1 {
                    out.push((*ts, tag.clone(), *v));
                }
            }
        }
        out.sort_by_key(|(ts, _, _)| *ts);
        out
    }

    /// Aggregate `t0 <= ts < t1` using segment pre-aggregates for interior
    /// segments and point scans only at the two edges.
    pub fn aggregate_range(&self, t0: i64, t1: i64) -> SegmentAgg {
        let k0 = t0.div_euclid(self.segment_width_us);
        let k1 = (t1 - 1).div_euclid(self.segment_width_us);
        let mut acc = SegmentAgg::default();
        for (&k, seg) in self.segments.range(k0..=k1) {
            let seg_start = k * self.segment_width_us;
            let seg_end = seg_start + self.segment_width_us;
            if seg_start >= t0 && seg_end <= t1 {
                // Fully covered: use the pre-aggregate.
                acc.merge(&seg.agg);
            } else {
                // Edge segment: scan points.
                for (ts, _, v) in &seg.points {
                    if *ts >= t0 && *ts < t1 {
                        acc.update(*v);
                    }
                }
            }
        }
        acc
    }

    /// Relational projection for the SQL layer: `(time, tag, value)`.
    pub fn schema() -> Schema {
        Schema::from_pairs(&[
            ("time", hdm_common::DataType::Timestamp),
            ("tag", hdm_common::DataType::Text),
            ("value", hdm_common::DataType::Float),
        ])
    }

    /// The last `window_us` of data as relational rows — the engine behind
    /// the paper's `gtimeseries(select … where now() - time < 30 minutes)`.
    pub fn window_rows(&self, window_us: i64) -> Vec<Row> {
        let t1 = self.latest + 1;
        let t0 = t1 - window_us;
        self.range(t0, t1)
            .into_iter()
            .map(|(ts, tag, v)| {
                Row::new(vec![
                    Datum::Timestamp(ts),
                    Datum::Text(tag),
                    Datum::Float(v),
                ])
            })
            .collect()
    }

    /// Number of live segments (retention observability).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TimeSeriesStore {
        let mut s = TimeSeriesStore::new("speed", 1_000);
        // 10 segments of 10 points each: ts = 0,100,...,9900.
        for i in 0..100i64 {
            s.ingest(i * 100, &format!("car-{}", i % 4), i as f64)
                .unwrap();
        }
        s
    }

    #[test]
    fn range_is_inclusive_exclusive_and_ordered() {
        let s = store();
        let pts = s.range(1_000, 2_000);
        assert_eq!(pts.len(), 10);
        assert_eq!(pts[0].0, 1_000);
        assert_eq!(pts[9].0, 1_900);
    }

    #[test]
    fn out_of_order_ingest_lands_in_right_segment() {
        let mut s = TimeSeriesStore::new("x", 1_000);
        s.ingest(5_000, "a", 1.0).unwrap();
        s.ingest(500, "a", 2.0).unwrap(); // late point
        assert_eq!(s.range(0, 1_000).len(), 1);
        assert_eq!(s.latest(), 5_000);
    }

    #[test]
    fn aggregate_matches_point_scan() {
        let s = store();
        // Unaligned range crossing several segments.
        let agg = s.aggregate_range(1_234, 7_777);
        let pts = s.range(1_234, 7_777);
        assert_eq!(agg.count as usize, pts.len());
        let sum: f64 = pts.iter().map(|(_, _, v)| v).sum();
        assert!((agg.sum - sum).abs() < 1e-9);
        let min = pts.iter().map(|(_, _, v)| *v).fold(f64::INFINITY, f64::min);
        assert_eq!(agg.min, min);
    }

    #[test]
    fn aggregate_fully_aligned_uses_summaries() {
        let s = store();
        let agg = s.aggregate_range(0, 10_000);
        assert_eq!(agg.count, 100);
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, 99.0);
        assert!((agg.sum - (0..100).sum::<i64>() as f64).abs() < 1e-9);
    }

    #[test]
    fn window_rows_anchor_at_latest() {
        let s = store();
        let rows = s.window_rows(1_000);
        // latest = 9900; window covers (8901..=9900]: ts 9000..=9900 → 10.
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].get(0).unwrap(), &Datum::Timestamp(9_000));
    }

    #[test]
    fn retention_evicts_old_segments() {
        let mut s = TimeSeriesStore::new("x", 1_000).with_retention(3_000);
        for i in 0..100i64 {
            s.ingest(i * 100, "a", 1.0).unwrap();
        }
        assert!(s.segment_count() <= 5, "old segments evicted");
        assert!(s.range(0, 1_000).is_empty());
        assert!(!s.range(9_000, 10_000).is_empty());
    }

    #[test]
    fn rejects_nan() {
        let mut s = TimeSeriesStore::new("x", 1_000);
        assert!(s.ingest(0, "a", f64::NAN).is_err());
    }

    #[test]
    fn negative_timestamps_supported() {
        let mut s = TimeSeriesStore::new("x", 1_000);
        s.ingest(-1_500, "a", 1.0).unwrap();
        s.ingest(-500, "a", 2.0).unwrap();
        assert_eq!(s.range(-2_000, 0).len(), 2);
        let agg = s.aggregate_range(-2_000, 0);
        assert_eq!(agg.count, 2);
    }
}
