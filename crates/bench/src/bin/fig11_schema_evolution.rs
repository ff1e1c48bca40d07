//! Reproduces **Fig 11: GMDB online schema evolution performance**
//! (paper §III-B).
//!
//! "Figure 11 shows performance results with real MME data in virtualized
//! Linux clients and servers (3.0 GHz CPUs) connected through a 10Gbps
//! network." We substitute synthetic 5–10 KB MME sessions (DESIGN.md) and
//! measure, on the fiber runtime:
//!
//! * read throughput: same-version vs 1-hop vs 4-hop (V3→V8) conversion,
//! * write throughput: whole-object put vs delta update,
//! * sync bandwidth: delta objects vs whole objects.
//!
//! Absolute numbers are host-dependent; the paper-relevant *shape* is that
//! conversion costs a modest, hop-proportional overhead and deltas cut
//! bandwidth by an order of magnitude.
//!
//! Usage: fig11_schema_evolution [--sessions N] [--ops N] [--workers N]

use hdm_bench::{arg_value, render_table};
use hdm_common::{ClientId, SplitMix64};
use hdm_gmdb::{Delta, GmdbRuntime};
use hdm_telemetry::{Clock, WallClock};
use hdm_workloads::mme::{generate_session, mme_schema_chain, MmeConfig};
use serde_json::json;

fn kops(n: u64, elapsed_us: u64) -> String {
    format!(
        "{:.1} kops/s",
        n as f64 / (elapsed_us.max(1) as f64 / 1e6) / 1_000.0
    )
}

/// Ops per second over an interval measured in µs on the shared clock.
fn rate(n: u64, elapsed_us: u64) -> f64 {
    n as f64 / (elapsed_us.max(1) as f64 / 1e6)
}

fn main() {
    let sessions: usize = arg_value("--sessions")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000);
    let ops: u64 = arg_value("--ops")
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let workers: usize = arg_value("--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);

    println!("=== Fig 11: GMDB online schema evolution performance ===");
    println!(
        "{sessions} MME sessions (5-10KB), {ops} ops per measurement, {workers} fiber workers\n"
    );

    let mut rt = GmdbRuntime::new(workers);
    for s in mme_schema_chain() {
        rt.register(s).unwrap();
    }
    let cfg = MmeConfig::default();
    let mut rng = SplitMix64::new(11);
    // All wall measurements read one anchored clock — the same abstraction
    // the simulated harnesses drive virtually, so timing code is uniform.
    let clock = WallClock::new();

    // Load all sessions at V3.
    let mut keys = Vec::with_capacity(sessions);
    let load_t = clock.now_us();
    for _ in 0..sessions {
        let obj = generate_session(&mut rng, 3, &cfg);
        keys.push(rt.put("mme_session", 3, obj).unwrap());
    }
    let load_el = clock.now_us() - load_t;

    // Read throughput per conversion distance.
    let mut rows = vec![vec![
        "operation".to_string(),
        "conversion".to_string(),
        "throughput".to_string(),
        "vs same-version".to_string(),
    ]];
    let read_rate = |version: u32, rng: &mut SplitMix64| {
        let t = clock.now_us();
        for _ in 0..ops {
            let k = rng.pick(&keys);
            rt.get("mme_session", k, version).unwrap();
        }
        rate(ops, clock.now_us() - t)
    };
    let same = read_rate(3, &mut rng);
    let one_hop = read_rate(5, &mut rng);
    let four_hop = read_rate(8, &mut rng);
    rows.push(vec![
        "read (stored V3)".into(),
        "same version".into(),
        format!("{:.1} kops/s", same / 1e3),
        "1.00x".into(),
    ]);
    rows.push(vec![
        "read (stored V3)".into(),
        "upgrade 1 hop (V5)".into(),
        format!("{:.1} kops/s", one_hop / 1e3),
        format!("{:.2}x", one_hop / same),
    ]);
    rows.push(vec![
        "read (stored V3)".into(),
        "upgrade 4 hops (V8)".into(),
        format!("{:.1} kops/s", four_hop / 1e3),
        format!("{:.2}x", four_hop / same),
    ]);

    // Downgrade reads: store some sessions at V8.
    let mut v8_keys = Vec::new();
    for _ in 0..200 {
        let obj = generate_session(&mut rng, 8, &cfg);
        v8_keys.push(rt.put("mme_session", 8, obj).unwrap());
    }
    let t = clock.now_us();
    for _ in 0..ops {
        let k = rng.pick(&v8_keys);
        rt.get("mme_session", k, 3).unwrap();
    }
    let down = rate(ops, clock.now_us() - t);
    rows.push(vec![
        "read (stored V8)".into(),
        "downgrade 4 hops (V3)".into(),
        format!("{:.1} kops/s", down / 1e3),
        format!("{:.2}x", down / same),
    ]);

    // Write throughput: whole object vs delta.
    let whole_ops = ops / 4;
    let t = clock.now_us();
    for _ in 0..whole_ops {
        let obj = generate_session(&mut rng, 3, &cfg);
        rt.put("mme_session", 3, obj).unwrap();
    }
    let whole_write = rate(whole_ops, clock.now_us() - t);
    // Note: includes generation cost; delta path below reuses objects.

    let delta_ops = ops / 4;
    let t = clock.now_us();
    for i in 0..delta_ops {
        let k = &keys[(i as usize) % keys.len()];
        let old = rt.get("mme_session", k, 3).unwrap();
        let mut new = old.clone();
        new["tracking_area"] = json!((i % 4096) as i64);
        let d = Delta::compute(&old, &new);
        rt.update_delta("mme_session", k, 3, d).unwrap();
    }
    let delta_write = rate(delta_ops, clock.now_us() - t);
    rows.push(vec![
        "write".into(),
        "whole object (put)".into(),
        format!("{:.1} kops/s", whole_write / 1e3),
        "-".into(),
    ]);
    rows.push(vec![
        "write".into(),
        "delta update".into(),
        format!("{:.1} kops/s", delta_write / 1e3),
        "-".into(),
    ]);
    println!("{}", render_table(&rows));
    println!(
        "load: {} sessions in {}",
        sessions,
        kops(sessions as u64, load_el)
    );

    // Sync bandwidth: delta vs whole under a subscriber.
    let sub = ClientId::new(1);
    let key = keys[0].clone();
    rt.subscribe("mme_session", &key, sub, 8).unwrap();
    for i in 0..100 {
        let old = rt.get("mme_session", &key, 3).unwrap();
        let mut new = old.clone();
        new["tracking_area"] = json!(i);
        rt.update_delta("mme_session", &key, 3, Delta::compute(&old, &new))
            .unwrap();
    }
    let _ = rt.take_notifications(sub).unwrap();
    let stats = rt.stats().unwrap();
    println!(
        "\nsync bandwidth over {} notifications (subscriber at V8, writer at V3):\n\
         delta objects: {} B total | whole objects would be: {} B total | saving: {:.0}x",
        stats.notifications,
        stats.delta_bytes_sent,
        stats.whole_bytes_equivalent,
        stats.whole_bytes_equivalent as f64 / stats.delta_bytes_sent.max(1) as f64
    );
    println!(
        "\nconversion mix observed: {} same-version, {} upgraded, {} downgraded reads",
        stats.reads_same_version, stats.reads_upgraded, stats.reads_downgraded
    );
}
