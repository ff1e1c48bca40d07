//! CN-side retry with capped exponential backoff and seeded jitter.
//!
//! When a request hits a crashed participant (or the GTM during an outage)
//! the coordinating CN does not fail the client: it backs off and retries.
//! Backoff doubles per attempt up to a cap, and every delay is jittered by a
//! deterministic per-policy RNG so that colliding retriers deterministically
//! de-synchronize — the chaos harness replays bit-for-bit from its seed.

use hdm_common::{SimDuration, SplitMix64};
use hdm_telemetry::{Counter, MetricsRegistry};

/// Exponential-backoff schedule for one retry loop.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    base: SimDuration,
    cap: SimDuration,
    max_attempts: u32,
    rng: SplitMix64,
    backoffs: u64,
    backoff_ctr: Option<Counter>,
}

impl RetryPolicy {
    pub fn new(base: SimDuration, cap: SimDuration, max_attempts: u32, seed: u64) -> Self {
        assert!(base.micros() > 0, "zero base backoff would busy-spin");
        assert!(cap >= base, "cap below base");
        Self {
            base,
            cap,
            max_attempts,
            rng: SplitMix64::new(seed ^ 0xB0FF_0FF5),
            backoffs: 0,
            backoff_ctr: None,
        }
    }

    /// Register the `cn.backoff` counter with `metrics`; each computed
    /// backoff delay bumps it, so chaos reports can assert how many waits
    /// the retry loop actually served.
    pub fn attach_telemetry(&mut self, metrics: &MetricsRegistry) {
        self.backoff_ctr = Some(metrics.counter("cn.backoff", &[]));
    }

    /// How many backoff delays this policy has handed out.
    pub fn backoffs_served(&self) -> u64 {
        self.backoffs
    }

    /// A schedule suited to the chaos harness: first retry after 100µs,
    /// doubling to a 2ms cap — past the longest injected outage slice, so a
    /// retrier always lands after the restart it is waiting for.
    pub fn chaos(seed: u64) -> Self {
        Self::new(
            SimDuration::from_micros(100),
            SimDuration::from_micros(2_000),
            1_000,
            seed,
        )
    }

    /// May attempt number `attempt` (0-based) still run?
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }

    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// The delay to wait before attempt `attempt` (0-based; attempt 0 is the
    /// first *retry*). Exponential with a cap, jittered into
    /// `[half, full]` of the nominal value so the expected delay stays
    /// three-quarters of nominal while retriers decorrelate.
    pub fn backoff(&mut self, attempt: u32) -> SimDuration {
        self.backoffs += 1;
        if let Some(c) = &self.backoff_ctr {
            c.inc();
        }
        let doubled = self
            .base
            .micros()
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.cap.micros());
        let jitter = 0.5 + 0.5 * self.rng.next_f64();
        SimDuration::from_micros(doubled)
            .mul_f64(jitter)
            .max(self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let mut p = RetryPolicy::new(
            SimDuration::from_micros(100),
            SimDuration::from_micros(1_000),
            10,
            7,
        );
        let delays: Vec<u64> = (0..8).map(|a| p.backoff(a).micros()).collect();
        // Within the jittered envelope: [half, full] of min(100 << a, 1000).
        for (a, d) in delays.iter().enumerate() {
            let nominal = (100u64 << a).min(1_000);
            assert!(
                *d >= nominal / 2 && *d <= nominal,
                "attempt {a}: delay {d} outside [{}, {nominal}]",
                nominal / 2
            );
        }
        assert!(delays.iter().all(|d| *d <= 1_000), "cap respected");
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = RetryPolicy::chaos(42);
        let mut b = RetryPolicy::chaos(42);
        for attempt in 0..20 {
            assert_eq!(a.backoff(attempt), b.backoff(attempt));
        }
    }

    #[test]
    fn attempt_budget_is_enforced() {
        let p = RetryPolicy::new(
            SimDuration::from_micros(10),
            SimDuration::from_micros(10),
            3,
            1,
        );
        assert!(p.allows(0) && p.allows(2));
        assert!(!p.allows(3));
    }

    #[test]
    fn backoff_counter_tracks_served_delays() {
        let reg = MetricsRegistry::new();
        let mut p = RetryPolicy::chaos(9);
        p.attach_telemetry(&reg);
        for attempt in 0..5 {
            p.backoff(attempt);
        }
        assert_eq!(p.backoffs_served(), 5);
        assert_eq!(reg.snapshot().counter("cn.backoff"), 5);
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow() {
        let mut p = RetryPolicy::chaos(3);
        let d = p.backoff(u32::MAX);
        assert!(d.micros() <= 2_000);
    }
}
