//! Session-API determinism: the unified `begin(TxnOptions)` facade drives a
//! seeded workload reproducibly — identical counters, telemetry export, and
//! visible state across runs.

use huawei_dm::cluster::{make_key, Cluster, ClusterConfig, ClusterCounters, TxnOptions};
use huawei_dm::common::SplitMix64;
use huawei_dm::telemetry::Telemetry;

/// Drive a fixed seeded mix of single- and multi-shard transactions
/// (including a sprinkle of aborts) through the session API; return the
/// final counters, the telemetry JSONL export, and the visible state.
fn drive(seed: u64) -> (ClusterCounters, String, Vec<(i64, i64)>) {
    let tel = Telemetry::simulated();
    let mut c = Cluster::new(ClusterConfig::gtm_lite(4));
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
    let (ca, ja, sa) = drive(0xABCD_EF01);
    let (cb, jb, sb) = drive(0xABCD_EF01);
    assert_eq!(ca, cb, "counters diverged across runs");
    assert_eq!(sa, sb, "visible state diverged");
    assert!(ja == jb, "telemetry JSONL diverged across runs");
}
