//! Chaos sweep: the cluster's safety invariants under randomized fault
//! schedules, plus exact replay determinism per seed.
//!
//! Each seed drives the bank-transfer workload of `cluster::chaos` under
//! message drops, duplicates, extra delays, data-node crashes and GTM
//! crashes. A run is *safe* when the post-quiescence audit finds nothing:
//! no committed write lost, no aborted write leaked, total balance
//! conserved, and no leaked locks, undo entries, pending-commit markers or
//! in-doubt legs. A run is *replayable* when the same seed reproduces the
//! identical report — event count, protocol counters and fault stats.

use huawei_dm::cluster::{make_key, run_chaos, ChaosConfig, Cluster, ClusterConfig};
use huawei_dm::simnet::FaultConfig;
use huawei_dm::telemetry::Telemetry;

/// The acceptance sweep: 20 seeded schedules with every fault class on.
#[test]
fn twenty_seeded_fault_schedules_stay_safe() {
    for seed in 0..20u64 {
        let r = run_chaos(ChaosConfig::standard(0xBAD_5EED + seed));
        assert!(
            r.violations.is_empty(),
            "seed {seed}: safety violations: {:?}",
            r.violations
        );
        assert_eq!(r.gave_up, 0, "seed {seed}: a client livelocked");
        assert!(r.committed > 0, "seed {seed}: nothing committed");
    }
}

/// The cluster counts every abort the clients see: over the
/// `chaos_recovery` sweep, `ClusterCounters::aborts` equals the harness's
/// retried attempts, including a single-shard commit whose home node
/// crashed before its commit point.
#[test]
fn the_cluster_counts_every_abort_the_clients_see() {
    for seed in 0..20u64 {
        let r = run_chaos(ChaosConfig::standard(0xBE2C_0000 + seed));
        assert_eq!(
            r.counters.aborts,
            r.txn_aborts,
            "seed {:#x}: cluster aborts vs client retries",
            0xBE2C_0000 + seed
        );
    }
}

/// Every seed's trace replays bit-for-bit: same executed-event count, same
/// cluster counters, same message fates, same final state.
#[test]
fn every_seed_replays_bit_for_bit() {
    for seed in [3u64, 17, 0xFEED, 0xC0FFEE, u64::MAX / 7] {
        let a = run_chaos(ChaosConfig::standard(seed));
        let b = run_chaos(ChaosConfig::standard(seed));
        assert_eq!(a, b, "seed {seed:#x} diverged on replay");
        assert_eq!(a.events, b.events);
        assert_eq!(a.counters, b.counters);
    }
}

/// Telemetry rides the virtual clock, so observability is deterministic
/// too: the same seed must export a byte-identical JSONL trace — every
/// span boundary, every retry event, every counter.
#[test]
fn same_seed_yields_byte_identical_telemetry() {
    let run = |seed: u64| {
        let tel = Telemetry::simulated();
        let mut cfg = ChaosConfig::standard(seed);
        cfg.telemetry = Some(tel.clone());
        let report = run_chaos(cfg);
        (tel.export_jsonl(), report)
    };
    for seed in [5u64, 0xFEED] {
        let (jsonl_a, ra) = run(seed);
        let (jsonl_b, rb) = run(seed);
        assert!(
            jsonl_a == jsonl_b,
            "seed {seed:#x}: telemetry JSONL diverged on replay"
        );
        assert_eq!(ra.metrics, rb.metrics, "seed {seed:#x}: metrics diverged");

        // The export actually observed the chaos: fault injections and
        // retry backoffs show up as counters.
        let snap = ra.metrics.as_ref().expect("snapshot attached");
        let (_, drops, dups, delays) = ra.message_stats;
        assert_eq!(snap.counter("fault.msg{fate=drop}"), drops);
        assert_eq!(snap.counter("fault.msg{fate=duplicate}"), dups);
        assert_eq!(snap.counter("fault.msg{fate=delay}"), delays);
        assert!(
            snap.counter("cn.backoff") > 0,
            "seed {seed:#x}: no backoffs"
        );
        assert!(
            snap.counter("fault.crash{target=dn}") + snap.counter("fault.crash{target=gtm}") > 0,
            "seed {seed:#x}: no crashes injected"
        );
    }
}

/// An instrumented run takes exactly the same path as a bare one: spans and
/// counters observe the simulation without perturbing it.
#[test]
fn telemetry_does_not_perturb_the_chaos_schedule() {
    let seed = 0xC0FFEE;
    let bare = run_chaos(ChaosConfig::standard(seed));
    let mut cfg = ChaosConfig::standard(seed);
    cfg.telemetry = Some(Telemetry::simulated());
    let mut traced = run_chaos(cfg);
    assert!(traced.metrics.take().is_some());
    assert_eq!(bare, traced, "telemetry changed the simulation's behaviour");
}

/// Regression: after a GTM crash + restart, `attach_telemetry` must
/// re-resolve the recovered instance's metric handles — the `gtm.csn`
/// gauge re-seeded from the rebuilt commit log, and `gtm.batch.*` updates
/// landing in the same series as before the crash.
#[test]
fn gtm_metrics_reattach_after_crash_restart() {
    let tel = Telemetry::simulated();
    let mut c = Cluster::new(ClusterConfig::gtm_lite(2));
    c.attach_telemetry(&tel);
    for i in 0..4u32 {
        c.bump(None, make_key(i % 2, i), 1).unwrap();
    }
    c.note_gtm_batch(2);
    assert_eq!(tel.metrics.snapshot().gauge("gtm.csn"), 4);

    c.crash_gtm();
    c.restart_gtm();
    assert_eq!(
        tel.metrics.snapshot().gauge("gtm.csn"),
        4,
        "recovered GTM must re-seed the gauge from its rebuilt clog"
    );

    // Post-restart activity keeps landing in the same series.
    c.bump(None, make_key(0, 99), 1).unwrap();
    c.note_gtm_batch(3);
    let snap = tel.metrics.snapshot();
    assert_eq!(snap.gauge("gtm.csn"), 5);
    assert_eq!(snap.counter("gtm.batch.count"), 2);
    let sizes = snap.histograms.get("gtm.batch.size").expect("batch sizes");
    assert_eq!(sizes.count, 2);
}

/// Crank the fault rates well past the defaults: the protocol may commit
/// less, but it must never commit wrongly.
#[test]
fn hostile_fault_rates_still_conserve_money() {
    let mut cfg = ChaosConfig::standard(0xD15EA5E);
    cfg.faults = FaultConfig {
        drop_p: 0.10,
        duplicate_p: 0.05,
        delay_p: 0.15,
        dn_crashes_per_node: 2.0,
        gtm_crashes: 2.0,
        ..FaultConfig::chaotic()
    };
    let r = run_chaos(cfg);
    assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    assert_eq!(r.gave_up, 0);
}

/// Crashes with no message faults: isolates the recovery paths.
#[test]
fn crash_only_schedules_recover_cleanly() {
    for seed in 0..5u64 {
        let mut cfg = ChaosConfig::standard(0xCAFE + seed);
        cfg.faults = FaultConfig {
            dn_crashes_per_node: 1.5,
            gtm_crashes: 1.5,
            ..FaultConfig::none()
        };
        let r = run_chaos(cfg);
        assert!(
            r.violations.is_empty(),
            "seed {seed}: violations: {:?}",
            r.violations
        );
        // The schedule actually crashed things and recovery actually ran.
        assert!(
            r.counters.dn_crashes > 0 || r.counters.gtm_crashes > 0,
            "seed {seed}: no crash fired"
        );
        assert_eq!(r.counters.dn_crashes, r.counters.dn_restarts);
        assert_eq!(r.counters.gtm_crashes, r.counters.gtm_restarts);
    }
}

/// Message faults with no crashes: isolates the retransmission paths.
#[test]
fn lossy_network_alone_never_blocks_progress() {
    let mut cfg = ChaosConfig::standard(0xE77);
    cfg.faults = FaultConfig {
        dn_crashes_per_node: 0.0,
        gtm_crashes: 0.0,
        ..FaultConfig::chaotic()
    };
    let r = run_chaos(cfg);
    assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
    assert_eq!(r.gave_up, 0);
    assert_eq!(
        r.committed,
        (6 * 30) as u64,
        "without crashes every transfer eventually commits"
    );
    let (_, dropped, _, _) = r.message_stats;
    assert!(dropped > 0, "drops should have been injected");
    assert!(r.counters.retries >= dropped, "each drop costs a retry");
}
