//! Lightweight statistics collectors shared by benches, the simulator, and
//! the autonomous-database information store: running summaries, histograms
//! with percentile queries, and EWMA smoothing.

/// Running summary of a stream of f64 samples (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    pub fn new() -> Self {
        Self {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            ..Default::default()
        }
    }

    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Merge another summary into this one (parallel collection).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A latency histogram with logarithmic-ish fixed buckets (µs scale) that
/// answers percentile queries. Bounded memory regardless of sample count.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Bucket upper bounds in µs; the last bucket is unbounded.
    bounds: Vec<u64>,
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new_latency_us()
    }
}

impl Histogram {
    /// Buckets tuned for latencies from 1µs to ~100s.
    pub fn new_latency_us() -> Self {
        let mut bounds = Vec::new();
        let mut b = 1u64;
        while b <= 100_000_000 {
            bounds.push(b);
            bounds.push(b * 2);
            bounds.push(b * 5);
            b *= 10;
        }
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n + 1],
            total: 0,
        }
    }

    pub fn record(&mut self, value_us: u64) {
        let idx = self.bounds.partition_point(|&bound| bound < value_us);
        self.counts[idx] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate percentile (`q` in `[0, 1]`); returns the bucket upper bound.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return self.bounds.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }

    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "histogram shape mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Exponentially-weighted moving average, used by the autonomous database's
/// anomaly detector (§IV-A) to smooth metric streams.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` in (0,1]: higher reacts faster.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of range");
        Self { alpha, value: None }
    }

    pub fn update(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        };
        self.value = Some(v);
        v
    }

    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.stddev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Summary::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = Summary::new();
        let mut b = Summary::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-6);
    }

    #[test]
    fn histogram_percentiles_bracket_values() {
        let mut h = Histogram::new_latency_us();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        assert!((500..=1000).contains(&p50), "p50={p50}");
        assert!(p99 >= 990, "p99={p99}");
        assert!(h.percentile(0.0) >= 1);
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new_latency_us();
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new_latency_us();
        let mut b = Histogram::new_latency_us();
        a.record(10);
        b.record(10_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.3);
        let mut v = 0.0;
        for _ in 0..100 {
            v = e.update(10.0);
        }
        assert!((v - 10.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "alpha out of range")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }
}
