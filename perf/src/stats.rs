//! Order statistics. Everything here is exact: samples are kept, not binned.

/// The `q`-quantile by the nearest-rank rule: the smallest sample with at
/// least `q` of the samples at or below it. Reorders `v`.
pub fn percentile<T: Ord + Copy>(v: &mut [T], q: f64) -> T {
    assert!(!v.is_empty(), "percentile of no samples");
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    *v.select_nth_unstable(rank - 1).1
}

/// Median of floats (mean of the two middle samples for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so a spread computed here reads the
/// same as one computed by whoever runs the benchmark.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(v.len() >= 2, "quartiles need two samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Inter-quartile spread as a share of the median.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q3) = quartiles(v);
    let m = median(v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Operations per second from equal-operation chunks: chunk size over the
/// median chunk wall time, so one scheduler burst does not move the figure.
pub fn chunk_throughput(ops_per_chunk: usize, chunk_ns: &[u64]) -> f64 {
    let secs: Vec<f64> = chunk_ns.iter().map(|&n| n as f64 / 1e9).collect();
    ops_per_chunk as f64 / median(&secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_known_inputs() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.50), 50);
        assert_eq!(percentile(&mut v, 0.99), 99);
        assert_eq!(percentile(&mut v, 1.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        let mut one = [7u32];
        assert_eq!(percentile(&mut one, 0.99), 7);
        // 4000 samples leave exactly 40 beyond p99.
        let mut big: Vec<u32> = (0..4000).collect();
        let p99 = percentile(&mut big, 0.99);
        assert_eq!(big.iter().filter(|&&x| x > p99).count(), 40);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
    }

    #[test]
    fn chunk_median_ignores_one_slow_chunk() {
        // 1000 ops per chunk, 1 ms each, one chunk stalled to 50 ms.
        let mut chunks = vec![1_000_000u64; 20];
        chunks[7] = 50_000_000;
        let t = chunk_throughput(1000, &chunks);
        assert!((t - 1_000_000.0).abs() < 1e-6, "{t}");
    }
}
