//! The public commit steps: `prepare` → `decide` → `finish_leg` /
//! `finish_all`, which `Cluster::commit` runs in order.
//!
//! The contracts pinned here:
//! * a commit whose participant is down aborts everywhere and leaves no
//!   gxid, no in-doubt leg and no write lock behind;
//! * a decided multi-shard transaction with one leg unfinished is
//!   completed by the next multi-shard reader of that leg (one UPGRADE
//!   wait), which reads the committed value;
//! * single-shard and baseline transactions run the same steps, with
//!   nothing to finish.

use huawei_dm::cluster::{make_key, Cluster, ClusterConfig, TxnOptions};

/// Two sharding prefixes on different shards, the first on the lower one.
fn lower_and_higher(c: &Cluster) -> (u32, u32) {
    let shard = |p| c.shard_map().shard_of_prefix(p);
    (0..64u32)
        .flat_map(|a| (0..64u32).map(move |b| (a, b)))
        .find(|&(a, b)| shard(a) < shard(b))
        .expect("the map has two shards")
}

#[test]
fn a_commit_with_a_down_participant_leaves_nothing_behind() {
    let mut c = Cluster::new(ClusterConfig::gtm_lite(4));
    let (lo, hi) = lower_and_higher(&c);
    let (k1, k2) = (make_key(lo, 1), make_key(hi, 1));
    let (s1, s2) = (
        c.shard_map().shard_of_key(k1),
        c.shard_map().shard_of_key(k2),
    );
    let mut t = c.begin(TxnOptions::multi()).unwrap();
    c.put(&mut t, k1, 10).unwrap();
    c.put(&mut t, k2, 20).unwrap();
    c.crash_node(s2);

    // The lower leg votes yes, the down one cannot vote: presumed abort.
    let err = c.commit(t).unwrap_err();
    assert_eq!(err.class(), "txn_aborted", "{err}");
    assert_eq!(c.counters().aborts, 1);
    assert_eq!(c.gtm().active_count(), 0, "no gxid pins gtm.xmin");
    assert_eq!(
        c.node(s1).in_doubt_legs(),
        vec![],
        "no prepared leg on {s1}"
    );
    assert_eq!(c.node(s1).mgr().active_count(), 0);
    assert_eq!(c.bump(Some(lo), k1, 1).unwrap(), 1, "k1 is writable");

    c.restart_node(s2);
    assert_eq!(c.bump(Some(lo), k1, 1).unwrap(), 2);
    assert_eq!(c.bump(None, k2, 5).unwrap(), 5, "the aborted write is gone");
    assert_eq!(c.counters().in_doubt_aborts, 0, "nothing was left in doubt");
}

#[test]
fn an_unfinished_leg_is_finished_by_the_next_reader_with_one_upgrade_wait() {
    let mut c = Cluster::new(ClusterConfig::gtm_lite(4));
    let (lo, hi) = lower_and_higher(&c);
    let (k1, k2) = (make_key(lo, 1), make_key(hi, 1));
    let (s1, s2) = (
        c.shard_map().shard_of_key(k1),
        c.shard_map().shard_of_key(k2),
    );
    let mut w = c.begin(TxnOptions::multi()).unwrap();
    c.put(&mut w, k1, 11).unwrap();
    c.put(&mut w, k2, 22).unwrap();
    let prepared = c.prepare(w).unwrap();
    let mut decided = c.decide(prepared).unwrap();
    assert_eq!(decided.unfinished().collect::<Vec<_>>(), vec![s1, s2]);
    c.finish_leg(&mut decided, s1).unwrap();
    assert_eq!(decided.unfinished().collect::<Vec<_>>(), vec![s2]);
    assert_eq!(c.node(s2).pending_commit_len(), 1, "{s2} is in the window");

    let waits = c.counters().upgrade_waits;
    let mut r = c.begin(TxnOptions::multi()).unwrap();
    assert_eq!(c.get(&mut r, k2).unwrap(), Some(22), "the committed value");
    assert_eq!(c.counters().upgrade_waits, waits + 1, "exactly one UPGRADE");
    assert_eq!(c.get(&mut r, k1).unwrap(), Some(11));
    c.commit(r).unwrap();

    // The late confirmation finds the reader already completed the leg.
    c.finish_all(decided).unwrap();
    for s in c.shard_map().all() {
        assert_eq!(c.node(s).pending_commit_len(), 0, "{s}");
        assert_eq!(c.node(s).mgr().active_count(), 0, "{s}");
    }
    assert_eq!(c.counters().upgrade_waits, waits + 1);
}

#[test]
fn single_shard_and_baseline_txns_take_the_same_steps_with_nothing_to_finish() {
    // A GTM-lite single-shard transaction, then a baseline two-shard one.
    for (cfg, single) in [
        (ClusterConfig::gtm_lite(4), true),
        (ClusterConfig::baseline(4), false),
    ] {
        let mut c = Cluster::new(cfg);
        let (lo, hi) = lower_and_higher(&c);
        let (opts, keys) = match single {
            true => (TxnOptions::single(lo), vec![make_key(lo, 1)]),
            false => (TxnOptions::multi(), vec![make_key(lo, 1), make_key(hi, 1)]),
        };
        let mut t = c.begin(opts).unwrap();
        for &k in &keys {
            c.put(&mut t, k, 7).unwrap();
        }
        let prepared = c.prepare(t).unwrap();
        let decided = c.decide(prepared).unwrap();
        assert_eq!(decided.unfinished().count(), 0, "single={single}");
        c.finish_all(decided).unwrap();
        for &k in &keys {
            assert_eq!(c.node(c.shard_map().shard_of_key(k)).undo_len(), 0);
            assert_eq!(c.bump(None, k, 0).unwrap(), 7, "single={single}");
        }
    }
}
