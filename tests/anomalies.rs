//! Integration tests for the §II-A consistency anomalies, end to end
//! through the umbrella crate: the naive global/local snapshot merge
//! exhibits both anomalies; Algorithm 1's UPGRADE/DOWNGRADE repairs them.

use huawei_dm::cluster::anomaly::{run_anomaly1, run_anomaly2, run_torn_read};
use huawei_dm::cluster::{make_key, Cluster, ClusterConfig, MergePolicy};

#[test]
fn anomaly1_repaired_by_upgrade() {
    let naive = run_anomaly1(MergePolicy::Naive).unwrap();
    let full = run_anomaly1(MergePolicy::Full).unwrap();
    assert!(
        !naive.consistent,
        "naive merge must miss the committed write"
    );
    assert!(full.consistent, "UPGRADE must wait for the local commit");
    assert_eq!(full.a, Some(1));
    assert_eq!(full.b, Some(1));
}

#[test]
fn anomaly2_repaired_by_downgrade() {
    let naive = run_anomaly2(MergePolicy::Naive).unwrap();
    let full = run_anomaly2(MergePolicy::Full).unwrap();
    // The paper's tuple table: naive view exposes tuple1 AND tuple3.
    assert_eq!(naive.a_versions, vec![0, 2]);
    assert!(!naive.consistent);
    assert_eq!(
        full.a_versions,
        vec![0],
        "DOWNGRADE hides T3's dependent write"
    );
    assert!(full.consistent);
}

/// Torn multi-shard reads never happen under Algorithm 1, across many
/// interleavings of writer commit phases and reader arrivals. The commit
/// window is scripted by `run_torn_read` (the split 2PC steps are no
/// longer public API).
#[test]
fn multi_shard_reads_are_never_torn() {
    for writers_before_read in 0..4 {
        let obs = run_torn_read(writers_before_read).unwrap();
        assert!(
            !obs.torn(),
            "torn read with {writers_before_read} prior writers: {obs:?}"
        );
    }
}

/// Single-shard traffic never interacts with the GTM under GTM-lite while
/// the same engine keeps multi-shard transactions consistent.
#[test]
fn mixed_workload_protocol_accounting() {
    let mut c = Cluster::new(ClusterConfig::gtm_lite(4));
    for i in 0..50u32 {
        c.bump(Some(i % 8), make_key(i % 8, i), 1).unwrap();
    }
    assert_eq!(c.counters().gtm_interactions, 0);
    for _ in 0..10 {
        c.bump(None, make_key(0, 0), 1).unwrap();
    }
    let counters = c.counters();
    assert_eq!(counters.gtm_interactions, 30, "3 per multi-shard txn");
    assert_eq!(counters.single_shard_commits, 50);
    assert_eq!(counters.multi_shard_commits, 10);
}
