//! The workload manager: SLA-driven admission control.
//!
//! "SLAs can specify the requirements of a system's performance, such as
//! averaged transaction response time, system throughput and the system's
//! availability … it is virtually impossible for DBAs to manually adjust
//! the database configurations" (§IV-A). This manager is the self-optimizing
//! control loop: it admits queries up to a concurrency limit, measures
//! response times against the SLA, and adapts the limit with AIMD (additive
//! increase on compliance, multiplicative decrease on violation) — the
//! classic stable controller for this problem.

use hdm_common::stats::Summary;

/// The service-level agreement being enforced.
#[derive(Debug, Clone, Copy)]
pub struct SlaPolicy {
    /// Target mean response time (ms).
    pub target_response_ms: f64,
    /// Fraction of queries that must meet the target per window.
    pub compliance_target: f64,
}

impl Default for SlaPolicy {
    fn default() -> Self {
        Self {
            target_response_ms: 100.0,
            compliance_target: 0.99,
        }
    }
}

/// Outcome of one adaptation window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowReport {
    pub admitted: u64,
    pub rejected: u64,
    pub completed: u64,
    pub mean_response_ms: f64,
    pub compliance: f64,
    pub new_limit: usize,
}

/// SLA-driven admission controller.
#[derive(Debug)]
pub struct WorkloadManager {
    sla: SlaPolicy,
    limit: usize,
    min_limit: usize,
    max_limit: usize,
    running: usize,
    admitted: u64,
    rejected: u64,
    window: Summary,
    window_met: u64,
    window_total: u64,
}

impl WorkloadManager {
    pub fn new(sla: SlaPolicy, initial_limit: usize) -> Self {
        Self {
            sla,
            limit: initial_limit.max(1),
            min_limit: 1,
            max_limit: 4096,
            running: 0,
            admitted: 0,
            rejected: 0,
            window: Summary::new(),
            window_met: 0,
            window_total: 0,
        }
    }

    pub fn limit(&self) -> usize {
        self.limit
    }

    pub fn running(&self) -> usize {
        self.running
    }

    /// Try to admit one query; `false` means queue-or-reject.
    pub fn admit(&mut self) -> bool {
        if self.running < self.limit {
            self.running += 1;
            self.admitted += 1;
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// A query finished with the given response time.
    pub fn complete(&mut self, response_ms: f64) {
        debug_assert!(self.running > 0, "complete without admit");
        self.running = self.running.saturating_sub(1);
        self.window.record(response_ms);
        self.window_total += 1;
        if response_ms <= self.sla.target_response_ms {
            self.window_met += 1;
        }
    }

    /// Close the adaptation window: AIMD on the concurrency limit.
    pub fn adapt(&mut self) -> WindowReport {
        let compliance = if self.window_total == 0 {
            1.0
        } else {
            self.window_met as f64 / self.window_total as f64
        };
        let mean = self.window.mean();
        if compliance < self.sla.compliance_target {
            // Multiplicative decrease.
            self.limit = (self.limit / 2).max(self.min_limit);
        } else {
            // Additive increase.
            self.limit = (self.limit + 1).min(self.max_limit);
        }
        let report = WindowReport {
            admitted: self.admitted,
            rejected: self.rejected,
            completed: self.window_total,
            mean_response_ms: mean,
            compliance,
            new_limit: self.limit,
        };
        self.admitted = 0;
        self.rejected = 0;
        self.window = Summary::new();
        self.window_met = 0;
        self.window_total = 0;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy system where response time grows linearly with concurrency:
    /// resp = 10ms * running. SLA 100ms → AIMD oscillates in a sawtooth
    /// around the equilibrium of 10 (decrease at 11, climb back up).
    fn simulate(windows: usize, initial: usize) -> Vec<usize> {
        let mut wm = WorkloadManager::new(SlaPolicy::default(), initial);
        let mut limits = Vec::new();
        for _ in 0..windows {
            // Saturate: always try to fill to the limit.
            let mut batch = Vec::new();
            for _ in 0..wm.limit() {
                if wm.admit() {
                    batch.push(());
                }
            }
            let n = batch.len();
            for _ in batch {
                wm.complete(10.0 * n as f64);
            }
            limits.push(wm.adapt().new_limit);
        }
        limits
    }

    /// The AIMD sawtooth must stay inside the band (5..=11) once settled:
    /// it climbs to 11 (first violation at 110ms) and halves to 5.
    fn assert_settled_band(limits: &[usize]) {
        let tail = &limits[limits.len() - 20..];
        assert!(
            tail.iter().all(|&l| (5..=11).contains(&l)),
            "limits escaped the AIMD band: {tail:?}"
        );
        assert!(
            tail.contains(&10),
            "band must touch the equilibrium: {tail:?}"
        );
    }

    #[test]
    fn admission_respects_limit() {
        let mut wm = WorkloadManager::new(SlaPolicy::default(), 2);
        assert!(wm.admit());
        assert!(wm.admit());
        assert!(!wm.admit(), "third concurrent query rejected");
        wm.complete(5.0);
        assert!(wm.admit(), "slot freed");
    }

    #[test]
    fn aimd_converges_to_sla_equilibrium_from_below() {
        assert_settled_band(&simulate(100, 1));
    }

    #[test]
    fn aimd_converges_from_above() {
        assert_settled_band(&simulate(100, 64));
    }

    #[test]
    fn violation_halves_compliance_grows_by_one() {
        let mut wm = WorkloadManager::new(
            SlaPolicy {
                target_response_ms: 10.0,
                compliance_target: 0.9,
            },
            8,
        );
        // All queries blow the SLA.
        for _ in 0..4 {
            assert!(wm.admit());
        }
        for _ in 0..4 {
            wm.complete(100.0);
        }
        let r = wm.adapt();
        assert_eq!(r.new_limit, 4);
        assert!(r.compliance < 0.9);
        // All queries meet it.
        for _ in 0..4 {
            assert!(wm.admit());
        }
        for _ in 0..4 {
            wm.complete(1.0);
        }
        let r = wm.adapt();
        assert_eq!(r.new_limit, 5);
    }

    #[test]
    fn empty_window_counts_as_compliant() {
        let mut wm = WorkloadManager::new(SlaPolicy::default(), 4);
        let r = wm.adapt();
        assert_eq!(r.compliance, 1.0);
        assert_eq!(r.new_limit, 5);
    }
}
