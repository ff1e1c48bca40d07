//! The anomaly manager.
//!
//! Detects the paper's three example anomaly classes — "datanode failures,
//! slow disk or insufficient memory" — with classic online detectors:
//! heartbeat-gap tracking for node failure, EWMA + z-score spike detection
//! for disk latency, and threshold crossing for memory pressure. The
//! workload-history repository adds a fourth source: regressions the
//! trailing-baseline detector attributes to a captured window (latency p95
//! growth, 2PC-rate spike, replica-lag trend, plan-cache hit-rate collapse)
//! surface here as `WorkloadRegression` anomalies for the driver.

use hdm_common::stats::Ewma;
use hdm_telemetry::{detect_regressions, WorkloadSnapshot};
use std::collections::HashMap;

/// What kind of problem was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyClass {
    DataNodeFailure,
    SlowDisk,
    InsufficientMemory,
    /// A workload-history window regressed against its trailing baseline.
    WorkloadRegression,
}

/// One detected anomaly.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    pub class: AnomalyClass,
    /// Which node/entity (free-form label).
    pub subject: String,
    pub tick: u64,
    pub detail: String,
}

/// Per-subject latency detector state.
#[derive(Debug)]
struct LatencyState {
    ewma: Ewma,
    var_ewma: Ewma,
}

/// The anomaly manager.
#[derive(Debug)]
pub struct AnomalyManager {
    /// Heartbeat timeout in ticks.
    heartbeat_timeout: u64,
    /// z-score threshold for latency spikes.
    z_threshold: f64,
    /// Memory usage fraction considered pressure.
    memory_threshold: f64,
    last_heartbeat: HashMap<String, u64>,
    latency: HashMap<String, LatencyState>,
    /// Minimum samples before the spike detector arms.
    warmup: u64,
    samples: HashMap<String, u64>,
    events: Vec<Anomaly>,
}

impl AnomalyManager {
    pub fn new() -> Self {
        Self {
            heartbeat_timeout: 5,
            z_threshold: 4.0,
            memory_threshold: 0.9,
            last_heartbeat: HashMap::new(),
            latency: HashMap::new(),
            warmup: 16,
            samples: HashMap::new(),
            events: Vec::new(),
        }
    }

    pub fn with_heartbeat_timeout(mut self, ticks: u64) -> Self {
        self.heartbeat_timeout = ticks;
        self
    }

    pub fn with_z_threshold(mut self, z: f64) -> Self {
        self.z_threshold = z;
        self
    }

    pub fn with_memory_threshold(mut self, frac: f64) -> Self {
        self.memory_threshold = frac;
        self
    }

    /// A node reported in.
    pub fn heartbeat(&mut self, node: &str, tick: u64) {
        self.last_heartbeat.insert(node.to_string(), tick);
    }

    /// Periodic scan: emit failures for silent nodes.
    pub fn check_heartbeats(&mut self, now: u64) {
        let timeout = self.heartbeat_timeout;
        let mut dead: Vec<(String, u64)> = self
            .last_heartbeat
            .iter()
            .filter(|(_, &last)| now.saturating_sub(last) > timeout)
            .map(|(n, &last)| (n.clone(), last))
            .collect();
        dead.sort();
        for (node, last) in dead {
            self.last_heartbeat.remove(&node);
            self.events.push(Anomaly {
                class: AnomalyClass::DataNodeFailure,
                subject: node.clone(),
                tick: now,
                detail: format!("no heartbeat since tick {last}"),
            });
        }
    }

    /// Feed one disk-latency sample (ms); spikes raise `SlowDisk`.
    pub fn observe_disk_latency(&mut self, disk: &str, tick: u64, latency_ms: f64) {
        let st = self
            .latency
            .entry(disk.to_string())
            .or_insert_with(|| LatencyState {
                ewma: Ewma::new(0.2),
                var_ewma: Ewma::new(0.2),
            });
        let mean = st.ewma.value().unwrap_or(latency_ms);
        let var = st.var_ewma.value().unwrap_or(0.0);
        let sd = var.sqrt().max(mean.abs() * 0.05).max(1e-6);
        let n = self.samples.entry(disk.to_string()).or_insert(0);
        *n += 1;
        let armed = *n > self.warmup;
        let z = (latency_ms - mean) / sd;
        // Update state with this sample.
        let new_mean = st.ewma.update(latency_ms);
        st.var_ewma.update((latency_ms - new_mean).powi(2));
        if armed && z > self.z_threshold {
            self.events.push(Anomaly {
                class: AnomalyClass::SlowDisk,
                subject: disk.to_string(),
                tick,
                detail: format!("latency {latency_ms:.1}ms, z={z:.1} over mean {mean:.1}ms"),
            });
        }
    }

    /// Feed a memory-usage fraction (0..1).
    pub fn observe_memory(&mut self, node: &str, tick: u64, used_frac: f64) {
        if used_frac >= self.memory_threshold {
            self.events.push(Anomaly {
                class: AnomalyClass::InsufficientMemory,
                subject: node.to_string(),
                tick,
                detail: format!("memory at {:.0}%", used_frac * 100.0),
            });
        }
    }

    /// Feed one captured workload-history window with its trailing baseline
    /// (earlier windows, any order the history ring yields them). Runs the
    /// same deterministic detector the cluster journals from, so the
    /// driver's anomaly stream and `sys.events` agree on what regressed.
    pub fn observe_history_window(
        &mut self,
        tick: u64,
        baseline: &[&WorkloadSnapshot],
        window: &WorkloadSnapshot,
    ) {
        for r in detect_regressions(baseline, window) {
            self.events.push(Anomaly {
                class: AnomalyClass::WorkloadRegression,
                subject: match r.shard {
                    Some(s) => format!("shard{s}"),
                    None => format!("window{}", r.window),
                },
                tick,
                detail: format!("kind={} window={} {}", r.kind.as_str(), r.window, r.detail),
            });
        }
    }

    /// Drain detected anomalies.
    pub fn take_events(&mut self) -> Vec<Anomaly> {
        std::mem::take(&mut self.events)
    }
}

impl Default for AnomalyManager {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silent_node_is_reported_once() {
        let mut m = AnomalyManager::new().with_heartbeat_timeout(3);
        m.heartbeat("dn1", 0);
        m.heartbeat("dn2", 0);
        m.heartbeat("dn2", 8);
        m.check_heartbeats(10);
        let events = m.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].class, AnomalyClass::DataNodeFailure);
        assert_eq!(events[0].subject, "dn1");
        // Second scan: dn1 already removed, no duplicate.
        m.check_heartbeats(20);
        assert!(m.take_events().iter().all(|e| e.subject != "dn1"));
    }

    #[test]
    fn latency_spike_detected_after_warmup() {
        let mut m = AnomalyManager::new();
        for t in 0..50 {
            m.observe_disk_latency("disk0", t, 5.0 + (t % 3) as f64 * 0.1);
        }
        assert!(m.take_events().is_empty(), "steady state is quiet");
        m.observe_disk_latency("disk0", 50, 80.0);
        let events = m.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].class, AnomalyClass::SlowDisk);
    }

    #[test]
    fn warmup_suppresses_early_noise() {
        let mut m = AnomalyManager::new();
        m.observe_disk_latency("d", 0, 1.0);
        m.observe_disk_latency("d", 1, 100.0); // would be a huge z-score
        assert!(m.take_events().is_empty());
    }

    #[test]
    fn memory_pressure_threshold() {
        let mut m = AnomalyManager::new().with_memory_threshold(0.8);
        m.observe_memory("dn1", 5, 0.7);
        assert!(m.take_events().is_empty());
        m.observe_memory("dn1", 6, 0.85);
        let events = m.take_events();
        assert_eq!(events[0].class, AnomalyClass::InsufficientMemory);
    }

    #[test]
    fn history_window_regression_surfaces_as_anomaly() {
        use std::collections::BTreeMap;
        let mk = |window, stmts, legs| WorkloadSnapshot {
            window,
            start_us: 0,
            end_us: 0,
            stmts,
            twopc_legs: legs,
            p95_us: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_len: 0,
            plan_store_len: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histogram_counts: BTreeMap::new(),
            statements: vec![],
            coaccess: vec![],
            shards: vec![],
        };
        let mut m = AnomalyManager::new();
        let base = [mk(0, 10, 1), mk(1, 10, 1)];
        let refs: Vec<&WorkloadSnapshot> = base.iter().collect();
        m.observe_history_window(7, &refs, &mk(2, 10, 1));
        assert!(m.take_events().is_empty(), "steady workload is quiet");
        m.observe_history_window(8, &refs, &mk(3, 10, 9));
        let events = m.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].class, AnomalyClass::WorkloadRegression);
        assert_eq!(events[0].tick, 8);
        assert!(events[0].detail.contains("kind=twopc_rate"), "{events:?}");
    }

    #[test]
    fn detectors_are_per_subject() {
        let mut m = AnomalyManager::new();
        for t in 0..50 {
            m.observe_disk_latency("fast", t, 1.0);
            m.observe_disk_latency("slow", t, 50.0);
        }
        // 50ms is normal for "slow", anomalous for "fast".
        m.observe_disk_latency("fast", 50, 50.0);
        m.observe_disk_latency("slow", 50, 50.0);
        let events = m.take_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].subject, "fast");
    }
}
