//! The autonomous control loop: Fig 12's components wired together.
//!
//! "Our autonomous database system is capable of continuously monitoring the
//! database system and collecting information on system performance and
//! workloads … analyzes the current state of the database system and then
//! determines if the controls, such as the automatic configuration,
//! optimization and protection, need to be initiated" (§IV-A).
//!
//! The driver runs one tick at a time against any system exposing the
//! [`Managed`] interface: it collects metrics into the information store,
//! feeds the anomaly detectors, closes workload-manager windows, and every
//! `refit_every` ticks refits the load→latency model to recompute the
//! SLA-safe concurrency cap, applying it through the change manager (with
//! rollback if the model's r² is too weak to trust).

use crate::anomaly::{Anomaly, AnomalyManager};
use crate::change::ChangeManager;
use crate::infostore::InformationStore;
use crate::ml::LinearRegression;
use crate::workload::{SlaPolicy, WindowReport, WorkloadManager};
use hdm_common::Result;

/// What the managed system reports each tick.
#[derive(Debug, Clone)]
pub struct TickMetrics {
    /// Per-query response times completed this tick (ms).
    pub responses_ms: Vec<f64>,
    /// Concurrency level the system ran at.
    pub concurrency: f64,
    /// Disk latency sample (ms) per named disk.
    pub disk_latency_ms: Vec<(String, f64)>,
    /// Memory usage fraction per named node.
    pub memory_frac: Vec<(String, f64)>,
    /// Nodes that heartbeated this tick.
    pub heartbeats: Vec<String>,
}

/// The system under management.
pub trait Managed {
    /// Run one tick at the given admission limit; report what happened.
    fn run_tick(&mut self, tick: u64, admission_limit: usize) -> TickMetrics;
}

/// Actions the loop took in one tick (observability).
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    pub tick: u64,
    pub window: Option<WindowReport>,
    pub anomalies: Vec<Anomaly>,
    /// New concurrency cap recommended by the model, if refit happened.
    pub recommended_cap: Option<f64>,
}

/// The autonomous manager.
pub struct AutonomousDriver {
    pub info: InformationStore,
    pub workload: WorkloadManager,
    pub anomalies: AnomalyManager,
    pub changes: ChangeManager,
    refit_every: u64,
    min_r2: f64,
    sla_target: f64,
    tick: u64,
}

impl AutonomousDriver {
    pub fn new(sla: SlaPolicy, initial_limit: usize) -> Result<Self> {
        let mut changes = ChangeManager::new();
        changes.define("max_concurrency", initial_limit as f64, |v| {
            if (1.0..=4096.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("max_concurrency {v} out of [1, 4096]"))
            }
        })?;
        Ok(Self {
            info: InformationStore::new(),
            workload: WorkloadManager::new(sla, initial_limit),
            anomalies: AnomalyManager::new(),
            changes,
            refit_every: 16,
            min_r2: 0.5,
            sla_target: sla.target_response_ms,
            tick: 0,
        })
    }

    pub fn with_refit_every(mut self, ticks: u64) -> Self {
        self.refit_every = ticks.max(1);
        self
    }

    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Run one control tick against the managed system.
    pub fn step(&mut self, system: &mut impl Managed) -> Result<TickReport> {
        self.tick += 1;
        let tick = self.tick;
        let limit = self.workload.limit();
        let metrics = system.run_tick(tick, limit);

        // Information store ingestion.
        self.info.record("concurrency", tick, metrics.concurrency);
        for r in &metrics.responses_ms {
            self.info.record("response_ms", tick, *r);
        }

        // Workload manager accounting: admit/complete what actually ran.
        for r in &metrics.responses_ms {
            if self.workload.admit() {
                self.workload.complete(*r);
            }
        }
        let window = self.workload.adapt();

        // Anomaly detection.
        for node in &metrics.heartbeats {
            self.anomalies.heartbeat(node, tick);
        }
        for (disk, lat) in &metrics.disk_latency_ms {
            self.anomalies.observe_disk_latency(disk, tick, *lat);
        }
        for (node, frac) in &metrics.memory_frac {
            self.anomalies.observe_memory(node, tick, *frac);
        }
        self.anomalies.check_heartbeats(tick);
        let anomalies = self.anomalies.take_events();

        // Periodic model refit → configuration change.
        let mut recommended_cap = None;
        if tick.is_multiple_of(self.refit_every) {
            let pairs = self.info.joined("concurrency", "response_ms");
            if pairs.len() >= 8 {
                if let Ok(model) = LinearRegression::fit(&pairs) {
                    if model.r2 >= self.min_r2 && model.slope > 0.0 {
                        if let Some(cap) = model
                            .invert(self.workload_sla_target())
                            .filter(|c| c.is_finite() && *c >= 1.0)
                        {
                            let cap = cap.floor().min(4096.0);
                            self.changes.apply("max_concurrency", cap, tick)?;
                            recommended_cap = Some(cap);
                        }
                    }
                }
            }
        }

        Ok(TickReport {
            tick,
            window: Some(window),
            anomalies,
            recommended_cap,
        })
    }

    fn workload_sla_target(&self) -> f64 {
        self.sla_target
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A system whose latency is `base + slope * concurrency`, with one
    /// disk and two nodes, one of which dies at a configurable tick.
    struct FakeDb {
        slope: f64,
        die_at: Option<u64>,
        spike_at: Option<u64>,
    }

    impl Managed for FakeDb {
        fn run_tick(&mut self, tick: u64, admission_limit: usize) -> TickMetrics {
            let n = admission_limit.min(64);
            let resp = 5.0 + self.slope * n as f64;
            let mut heartbeats = vec!["dn0".to_string()];
            if self.die_at.map(|d| tick < d).unwrap_or(true) {
                heartbeats.push("dn1".to_string());
            }
            let disk = if self.spike_at == Some(tick) {
                200.0
            } else {
                4.0
            };
            TickMetrics {
                responses_ms: vec![resp; n],
                concurrency: n as f64,
                disk_latency_ms: vec![("dn0:sda".into(), disk)],
                memory_frac: vec![("dn0".into(), 0.4)],
                heartbeats,
            }
        }
    }

    #[test]
    fn loop_converges_and_recommends_a_cap() {
        let mut driver = AutonomousDriver::new(
            SlaPolicy {
                target_response_ms: 100.0,
                compliance_target: 0.95,
            },
            4,
        )
        .unwrap()
        .with_refit_every(8);
        let mut db = FakeDb {
            slope: 10.0,
            die_at: None,
            spike_at: None,
        };
        let mut last_cap = None;
        for _ in 0..64 {
            let r = driver.step(&mut db).unwrap();
            if let Some(c) = r.recommended_cap {
                last_cap = Some(c);
            }
        }
        // resp = 5 + 10n <= 100 → n <= 9.5 → cap 9.
        let cap = last_cap.expect("model refit happened");
        assert!((8.0..=10.0).contains(&cap), "cap {cap}");
        assert_eq!(driver.changes.get("max_concurrency").unwrap(), cap);
    }

    #[test]
    fn loop_detects_node_death_and_disk_spike() {
        let mut driver = AutonomousDriver::new(SlaPolicy::default(), 4).unwrap();
        let mut db = FakeDb {
            slope: 1.0,
            die_at: Some(30),
            spike_at: Some(40),
        };
        let mut classes = Vec::new();
        for _ in 0..50 {
            let r = driver.step(&mut db).unwrap();
            classes.extend(r.anomalies.into_iter().map(|a| a.class));
        }
        use crate::anomaly::AnomalyClass::*;
        assert!(classes.contains(&DataNodeFailure), "{classes:?}");
        assert!(classes.contains(&SlowDisk), "{classes:?}");
    }

    #[test]
    fn weak_models_do_not_change_configuration() {
        struct Noise;
        impl Managed for Noise {
            fn run_tick(&mut self, tick: u64, limit: usize) -> TickMetrics {
                // Latency unrelated to concurrency: alternating extremes.
                let resp = if tick.is_multiple_of(2) { 1.0 } else { 500.0 };
                TickMetrics {
                    responses_ms: vec![resp; limit.min(8)],
                    concurrency: limit.min(8) as f64,
                    disk_latency_ms: vec![],
                    memory_frac: vec![],
                    heartbeats: vec![],
                }
            }
        }
        let mut driver = AutonomousDriver::new(SlaPolicy::default(), 16)
            .unwrap()
            .with_refit_every(4);
        let before = driver.changes.get("max_concurrency").unwrap();
        for _ in 0..32 {
            driver.step(&mut Noise).unwrap();
        }
        assert_eq!(
            driver.changes.get("max_concurrency").unwrap(),
            before,
            "an r2-weak model must not reconfigure the system"
        );
    }
}
