//! The local commit order (LCO) stays bounded however long a run lasts.
//!
//! Every data node cuts its LCO below the oldest global snapshot still in
//! use after each commit, so on Fig 3's MS mix (90% single-shard) the
//! longest LCO any node reaches depends on how many transactions overlap,
//! not on how many ran.

use huawei_dm::cluster::{make_key, Cluster, ClusterConfig, TxnOptions};
use huawei_dm::common::ShardId;
use huawei_dm::workloads::tpcc::run_specs;
use huawei_dm::workloads::{TpccConfig, TpccGenerator};

const SHARDS: usize = 4;

/// Run `n` MS-mix transactions one after another; when `pin_every` is
/// `Some(w)`, a multi-shard reader with a leg on every node stays open
/// across each window of `w` transactions, holding its global snapshot.
/// Returns the longest LCO each node reached, sampled after every
/// transaction.
fn max_lco_per_node(n: usize, pin_every: Option<usize>) -> Vec<usize> {
    let mut c = Cluster::new(ClusterConfig::gtm_lite(SHARDS));
    let mut gen = TpccGenerator::new(TpccConfig::ms());
    let mut max = vec![0; SHARDS];
    let mut reader = None;
    for i in 0..n {
        if let Some(w) = pin_every {
            if i % w == 0 {
                if let Some(old) = reader.take() {
                    c.commit(old).unwrap();
                }
                let mut r = c.begin(TxnOptions::multi()).unwrap();
                for s in 0..SHARDS as u64 {
                    let p = (0..)
                        .find(|&p| c.shard_map().shard_of_prefix(p) == ShardId::new(s))
                        .unwrap();
                    c.get(&mut r, make_key(p, 0)).unwrap();
                }
                reader = Some(r);
            }
        }
        let (committed, _) = run_specs(&mut c, &[gen.next_txn()]).unwrap();
        assert_eq!(committed, 1, "transaction {i} aborted");
        for (s, m) in max.iter_mut().enumerate() {
            *m = (*m).max(c.node(ShardId::new(s as u64)).mgr().lco().len());
        }
    }
    if let Some(r) = reader {
        c.commit(r).unwrap();
    }
    assert_eq!(c.live_snapshot_count(), 0);
    max
}

#[test]
fn the_ms_mix_reaches_the_same_lco_length_at_n_and_4n() {
    let n = 500;
    let short = max_lco_per_node(n, None);
    let long = max_lco_per_node(4 * n, None);
    assert_eq!(short, long, "the LCO grew with the run");
    assert!(long.iter().all(|&m| m <= 64), "{long:?}");
}

#[test]
fn a_held_snapshot_bounds_the_lco_by_its_window() {
    let window = 32;
    for n in [500, 2_000] {
        let max = max_lco_per_node(n, Some(window));
        assert!(max.iter().all(|&m| m <= 64), "n={n}: {max:?}");
        assert!(
            max.iter().all(|&m| m > 0),
            "n={n}: the reader pinned nothing: {max:?}"
        );
    }
}
