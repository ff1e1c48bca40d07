//! Scripted reproductions of the paper's two GTM-lite anomalies (§II-A).
//!
//! Each scenario returns what the multi-shard reader observed, so tests and
//! the Fig 3 harness's `--demo-anomalies` mode can show that the **naive**
//! merge exhibits the anomaly while **Algorithm 1** repairs it.

use crate::engine::{Cluster, ClusterConfig, MergePolicy, TxnOptions};
use crate::shard::make_key;
use hdm_common::Result;

/// What the reader saw in an anomaly scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyObservation {
    /// Value of `a` (the key written on DN1).
    pub a: Option<i64>,
    /// Value of `b` (the key written on DN2), where applicable.
    pub b: Option<i64>,
    /// Whether the observation is consistent (defined per scenario).
    pub consistent: bool,
}

/// Find two sharding prefixes living on different shards of a 2-shard map.
fn two_prefixes(c: &Cluster) -> (u32, u32) {
    let m = c.shard_map();
    let s0 = m.shard_of_prefix(0);
    for p in 1..64 {
        if m.shard_of_prefix(p) != s0 {
            return (0, p);
        }
    }
    unreachable!("64 prefixes must cover 2 shards");
}

/// **Anomaly 1**: "global snapshot tells one transaction is committed, but
/// local snapshot tells it is active (prepared but not committed)."
///
/// Writer W writes `a` on DN1 and `b` on DN2, prepares everywhere, commits
/// at the GTM — and the confirmation to the DNs is withheld. Reader R then
/// begins (its global snapshot sees W committed) and reads both keys.
///
/// Consistent means: R sees *both* of W's writes (the UPGRADE
/// wait-for-commit). Under the naive merge R sees *neither* (W's legs look
/// locally active), returning stale data that contradicts R's own global
/// snapshot — and worse, a second statement after the confirmations arrive
/// would see the writes, tearing R's view.
pub fn run_anomaly1(policy: MergePolicy) -> Result<AnomalyObservation> {
    let mut cfg = ClusterConfig::gtm_lite(2);
    cfg.merge_policy = policy;
    let mut c = Cluster::new(cfg);
    let (p1, p2) = two_prefixes(&c);
    let (ka, kb) = (make_key(p1, 1), make_key(p2, 1));

    // Baseline data so the reader can distinguish "old" from "missing".
    c.bump(Some(p1), ka, 0)?; // a = 0
    c.bump(Some(p2), kb, 0)?; // b = 0

    // Writer W: multi-shard update a=1, b=1; stop after the GTM commit.
    let mut w = c.begin(TxnOptions::multi())?;
    c.put(&mut w, ka, 1)?;
    c.put(&mut w, kb, 1)?;
    let w = c.prepare(w)?;
    let w = c.decide(w).map_err(|u| u.error)?; // <- Anomaly-1 window opens here

    // Reader R begins now: global snapshot sees W as committed.
    let mut r = c.begin(TxnOptions::multi())?;
    let a = c.get(&mut r, ka)?;
    let b = c.get(&mut r, kb)?;
    c.commit(r)?;

    // Close the window (deliver confirmations).
    c.finish_all(w)?;

    let consistent = a == Some(1) && b == Some(1);
    Ok(AnomalyObservation { a, b, consistent })
}

/// What the reader saw in the Anomaly-2 scenario. `a_versions` lists every
/// version of `a` the reader's merged snapshot exposed — the paper's tuple
/// table shows the anomalous view exposing *two* (tuple1 and tuple3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Anomaly2Observation {
    pub a_versions: Vec<i64>,
    pub b: Option<i64>,
    pub consistent: bool,
}

/// **Anomaly 2** (Fig 2): "global snapshot says a writer is active (taken
/// earlier), but local snapshot says it is committed (taken later)."
///
/// T1 (multi-shard) sets `a=1` on DN1 and `b=1` on DN2. T3 (single-shard,
/// same session, after T1) sets `a=2` on DN1. Reader T2 took its global
/// snapshot *before* T1 committed, but reads DN1 *after* both T1 and T3
/// committed there.
///
/// Consistent means: T2's global snapshot predates T1, so it must read the
/// original `a=0, b=0`. The naive merge reproduces the paper's tuple table:
/// tuple1 (pre-T1 `a`) *and* tuple3 (T3's update) are both visible — T3's
/// effect without T1's. DOWNGRADE repairs it.
pub fn run_anomaly2(policy: MergePolicy) -> Result<Anomaly2Observation> {
    let mut cfg = ClusterConfig::gtm_lite(2);
    cfg.merge_policy = policy;
    let mut c = Cluster::new(cfg);
    let (p1, p2) = two_prefixes(&c);
    let (ka, kb) = (make_key(p1, 1), make_key(p2, 1));

    c.bump(Some(p1), ka, 0)?; // a = 0
    c.bump(Some(p2), kb, 0)?; // b = 0

    // T1 multi-shard: a=1, b=1 — but hold its commit until T2 has begun.
    let mut t1 = c.begin(TxnOptions::multi())?;
    c.put(&mut t1, ka, 1)?;
    c.put(&mut t1, kb, 1)?;

    // T2 begins: its global snapshot sees T1 as active.
    let mut t2 = c.begin(TxnOptions::multi())?;

    // T1 commits fully, then T3 (single-shard, same session) sets a=2.
    c.commit(t1)?;
    let mut t3 = c.begin(TxnOptions::single(p1))?;
    c.put(&mut t3, ka, 2)?;
    c.commit(t3)?;

    // T2 now reads both keys; its local snapshot on DN1 postdates T1 and T3.
    let a_versions = c.get_versions(&mut t2, ka)?;
    let b = c.get(&mut t2, kb)?;
    c.commit(t2)?;

    let consistent = a_versions == vec![0] && b == Some(0);
    Ok(Anomaly2Observation {
        a_versions,
        b,
        consistent,
    })
}

/// What the torn-read probe observed: the two keys a frozen-in-the-commit-
/// window writer updated together, as one multi-shard reader saw them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornReadObservation {
    pub a: Option<i64>,
    pub b: Option<i64>,
}

impl TornReadObservation {
    /// A consistent multi-shard read shows both keys from the same version
    /// of history.
    pub fn torn(&self) -> bool {
        self.a != self.b
    }
}

/// Scripted torn-read probe under Algorithm 1: `writers_before_read`
/// multi-shard writers fully commit `(a, b)` in lockstep, one more writer
/// freezes inside the commit window (committed at the GTM, confirmations
/// withheld), and a multi-shard reader then reads both keys.
pub fn run_torn_read(writers_before_read: i64) -> Result<TornReadObservation> {
    let mut c = Cluster::new(ClusterConfig::gtm_lite(2));
    let (p1, p2) = two_prefixes(&c);
    let (ka, kb) = (make_key(p1, 1), make_key(p2, 1));
    c.bump(None, ka, 0)?;
    c.bump(None, kb, 0)?;

    for i in 0..writers_before_read {
        let mut w = c.begin(TxnOptions::multi())?;
        c.put(&mut w, ka, i + 1)?;
        c.put(&mut w, kb, i + 1)?;
        c.commit(w)?;
    }
    // One writer frozen inside the commit window.
    let mut w = c.begin(TxnOptions::multi())?;
    c.put(&mut w, ka, 100)?;
    c.put(&mut w, kb, 100)?;
    let w = c.prepare(w)?;
    let w = c.decide(w).map_err(|u| u.error)?;

    let mut r = c.begin(TxnOptions::multi())?;
    let a = c.get(&mut r, ka)?;
    let b = c.get(&mut r, kb)?;
    c.commit(r)?;
    c.finish_all(w)?;
    Ok(TornReadObservation { a, b })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anomaly1_full_merge_reads_both_writes() {
        let obs = run_anomaly1(MergePolicy::Full).unwrap();
        assert_eq!(obs.a, Some(1));
        assert_eq!(obs.b, Some(1));
        assert!(obs.consistent);
    }

    #[test]
    fn anomaly1_naive_merge_misses_the_committed_write() {
        let obs = run_anomaly1(MergePolicy::Naive).unwrap();
        assert!(!obs.consistent, "naive merge must exhibit Anomaly 1");
        assert_eq!(obs.a, Some(0), "stale read of W's prepared write");
        assert_eq!(obs.b, Some(0));
    }

    #[test]
    fn anomaly2_full_merge_downgrades_to_consistent_prefix() {
        let obs = run_anomaly2(MergePolicy::Full).unwrap();
        assert!(obs.consistent, "DOWNGRADE hides T1 and its dependent T3");
        assert_eq!(obs.a_versions, vec![0]);
        assert_eq!(obs.b, Some(0));
    }

    #[test]
    fn anomaly2_naive_merge_sees_tuple1_and_tuple3() {
        let obs = run_anomaly2(MergePolicy::Naive).unwrap();
        assert!(!obs.consistent, "naive merge must exhibit Anomaly 2");
        // The paper's tuple table verbatim: tuple1 (a=0, pre-T1) and tuple3
        // (a=2, T3's update) both visible; tuple2 (T1's write) is not.
        assert_eq!(obs.a_versions, vec![0, 2]);
        assert_eq!(
            obs.b,
            Some(0),
            "T1's write on DN2 invisible (global active)"
        );
    }
}
