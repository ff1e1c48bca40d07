//! Session-API determinism: the unified `begin(TxnOptions)` facade drives a
//! seeded workload reproducibly — identical counters, telemetry export, and
//! visible state across runs — and the snapshot-epoch cache changes GTM
//! traffic but never what a transaction reads.

use huawei_dm::cluster::{make_key, Cluster, ClusterConfig, ClusterCounters, TxnOptions};
use huawei_dm::common::SplitMix64;
use huawei_dm::telemetry::Telemetry;

/// Drive a fixed seeded mix of single- and multi-shard transactions
/// (including a sprinkle of aborts) through the session API; return the
/// final counters, the telemetry JSONL export, and the visible state.
fn drive(snapshot_cache: bool, seed: u64) -> (ClusterCounters, String, Vec<(i64, i64)>) {
    let tel = Telemetry::simulated();
    let mut cfg = ClusterConfig::gtm_lite(4);
    cfg.snapshot_cache = snapshot_cache;
    let mut c = Cluster::new(cfg);
    c.attach_telemetry(&tel);
    let mut rng = SplitMix64::new(seed);
    for step in 0..200u32 {
        let single = rng.chance(0.8);
        let prefix = rng.next_below(8) as u32;
        let mut txn = if single {
            c.begin(TxnOptions::single(prefix)).unwrap()
        } else {
            c.begin(TxnOptions::multi()).unwrap()
        };
        let k1 = make_key(prefix, rng.next_below(64) as u32);
        let _ = c.get(&mut txn, k1).unwrap();
        c.put(&mut txn, k1, step as i64).unwrap();
        if !single {
            let k2 = make_key((prefix + 1) % 8, rng.next_below(64) as u32);
            c.put(&mut txn, k2, step as i64).unwrap();
        }
        if rng.chance(0.1) {
            c.abort(txn).unwrap();
        } else {
            c.commit(txn).unwrap();
        }
    }
    let counters = c.counters();
    (counters, tel.export_jsonl(), c.snapshot_all())
}

#[test]
fn session_facade_is_deterministic() {
    for cache in [false, true] {
        let (ca, ja, sa) = drive(cache, 0xABCD_EF01);
        let (cb, jb, sb) = drive(cache, 0xABCD_EF01);
        assert_eq!(ca, cb, "cache={cache}: counters diverged across runs");
        assert_eq!(sa, sb, "cache={cache}: visible state diverged");
        assert!(
            ja == jb,
            "cache={cache}: telemetry JSONL diverged across runs"
        );
    }
}

/// The epoch cache skips GTM snapshot interactions but must be invisible
/// to every read and write: same seed, same final state, fewer
/// interactions.
#[test]
fn snapshot_cache_changes_traffic_not_results() {
    let (off, _, state_off) = drive(false, 0x5EED);
    let (on, _, state_on) = drive(true, 0x5EED);
    assert_eq!(state_off, state_on, "cache changed visible state");
    assert_eq!(off.single_shard_commits, on.single_shard_commits);
    assert_eq!(off.multi_shard_commits, on.multi_shard_commits);
    assert_eq!(off.snapshot_cache_hits + off.snapshot_cache_misses, 0);
    assert!(on.snapshot_cache_hits > 0, "cache never hit: {on:?}");
    assert_eq!(
        off.gtm_interactions,
        on.gtm_interactions + on.snapshot_cache_hits,
        "each hit must save exactly one GTM interaction"
    );
}
