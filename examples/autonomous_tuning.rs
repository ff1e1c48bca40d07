//! The autonomous-database control loop (§IV-A, Fig 12) in action.
//!
//! A simulated production day: the information store collects metrics, the
//! workload manager adapts admission against the SLA, the anomaly manager
//! catches a slow disk and a dead data node, the in-DB ML fits the
//! load→latency curve to recommend a concurrency cap, and the change
//! manager applies (and can roll back) the configuration change.
//!
//! Run: `cargo run --example autonomous_tuning`

use huawei_dm::autonomous::{
    AnomalyManager, ChangeManager, InformationStore, LinearRegression, SlaPolicy, WorkloadManager,
};
use huawei_dm::common::SplitMix64;

fn main() -> hdm_common::Result<()> {
    let mut info = InformationStore::new();
    let mut wm = WorkloadManager::new(
        SlaPolicy {
            target_response_ms: 100.0,
            compliance_target: 0.95,
        },
        32,
    );
    let mut anomalies = AnomalyManager::new().with_heartbeat_timeout(3);
    let mut rng = SplitMix64::new(7);

    // The "system under management": response = 12ms per concurrent query.
    println!("== self-optimizing: AIMD admission control against a 100ms SLA ==");
    for window in 0..12u64 {
        let mut admitted = 0;
        for _ in 0..wm.limit() {
            if wm.admit() {
                admitted += 1;
            }
        }
        for _ in 0..admitted {
            let resp = 12.0 * admitted as f64 * (0.9 + rng.next_f64() * 0.2);
            wm.complete(resp);
            info.record("response_ms", window, resp);
        }
        info.record("concurrency", window, admitted as f64);
        let report = wm.adapt();
        println!(
            "window {window:2}: concurrency {admitted:2} -> mean {:.0}ms, \
             compliance {:.0}%, next limit {}",
            report.mean_response_ms,
            report.compliance * 100.0,
            report.new_limit
        );
    }

    // In-DB ML: fit latency(load) from the information store, recommend the
    // SLA-safe concurrency, apply it through the change manager.
    println!("\n== in-DB ML: planning the concurrency cap from collected metrics ==");
    let pairs = info.joined("concurrency", "response_ms");
    let model = LinearRegression::fit(&pairs).unwrap();
    let cap = model.invert(100.0).unwrap().floor();
    println!(
        "fit: response = {:.1} + {:.1} * concurrency (r2 {:.3}); SLA-safe cap = {cap}",
        model.intercept, model.slope, model.r2
    );
    let mut changes = ChangeManager::new();
    changes.define("max_concurrency", 32.0, |v| {
        if (1.0..=1024.0).contains(&v) {
            Ok(())
        } else {
            Err(format!("max_concurrency {v} out of range"))
        }
    })?;
    changes.apply("max_concurrency", cap, 12)?;
    println!(
        "change manager applied max_concurrency={} (journal depth {})",
        changes.get("max_concurrency")?,
        changes.journal().len()
    );

    // Self-healing: detect a slow disk and a dead node.
    println!("\n== self-healing: anomaly detection ==");
    for t in 0..40u64 {
        anomalies.heartbeat("dn0", t);
        anomalies.heartbeat("dn1", if t < 30 { t } else { 29 }); // dn1 dies at t=30
        let latency = if t == 35 { 90.0 } else { 5.0 + rng.next_f64() };
        anomalies.observe_disk_latency("dn0:/dev/sda", t, latency);
        anomalies.observe_memory("dn0", t, 0.5 + t as f64 * 0.011);
        anomalies.check_heartbeats(t);
    }
    for a in anomalies.take_events() {
        println!(
            "  [{:?}] {} @tick {}: {}",
            a.class, a.subject, a.tick, a.detail
        );
    }

    // A bad change gets rolled back (self-configuring).
    println!("\n== self-configuring: rollback of a bad change ==");
    changes.apply("max_concurrency", 512.0, 40)?;
    println!("  applied max_concurrency=512 ... SLA violations spike ...");
    let rec = changes.rollback_last().unwrap();
    println!(
        "  rolled back {} from {} to {} (now {})",
        rec.key,
        rec.to,
        rec.from,
        changes.get("max_concurrency")?
    );
    Ok(())
}
