//! **Algorithm 1: MergeSnapshot** (paper §II-A).
//!
//! A multi-shard reader under GTM-lite holds a *global* snapshot (taken at
//! the GTM when the transaction started) and a *local* snapshot (taken on
//! the DN when its statement arrived). The two were taken at different
//! times, so their views can conflict in exactly two ways:
//!
//! * **Anomaly 1** — the global snapshot says a writer committed, but the
//!   DN's local snapshot still shows it active (the commit confirmation has
//!   not reached the DN: prepared-but-not-committed). Resolution:
//!   **UPGRADE** — the reader waits for the local commit to finish and then
//!   treats the writer as committed.
//! * **Anomaly 2** — the global snapshot (taken earlier) says a writer is
//!   active, but the local snapshot (taken later) already shows it — and
//!   possibly *subsequent dependent transactions* — committed. Resolution:
//!   **DOWNGRADE** — the reader re-marks those local commits as active in
//!   its merged snapshot. No physical rollback happens; only the reader's
//!   visibility changes.
//!
//! DOWNGRADE's dependency rule follows the paper: "reader should ignore any
//! local commits that is dependent on uncommitted global writes", realized
//! by traversing the **local commit order (LCO)**: from the first local
//! commit whose global transaction is invisible in the global snapshot,
//! *every* later local commit is conservatively downgraded (a later commit
//! may depend on the earlier one; commit order is the only dependency bound
//! the DN tracks). Downgraded transactions that are in fact globally visible
//! are restored by the UPGRADE pass, which runs second — the same order as
//! Algorithm 1's lines 5 and 6.
//!
//! The LCO and xidMap hold writers only: a transaction or 2PC leg that
//! wrote nothing on a DN is forgotten there instead of committed
//! ([`crate::local::LocalTxnManager::forget`]). A reader could only ever
//! start a taint that downgrades innocent later commits, and no tuple
//! carries its XID, so dropping it changes no visibility decision except
//! to stop those spurious downgrades.
//!
//! The LCO a merge walks is cut from the front: each DN drops the prefix
//! before its first leg whose global XID is at or above the oldest `xmin`
//! among the global snapshots still held or still to be handed out
//! ([`crate::local::LocalTxnManager::prune_lco_below`]). The taint can only
//! start at a leg whose global XID `g` the reader's snapshot calls active,
//! and [`Snapshot::is_active`] implies `g >= xmin`, so a dropped commit can
//! neither start a taint nor follow one: the outcome is the full walk's.

use crate::snapshot::Snapshot;
use hdm_common::Xid;
use std::collections::{BTreeSet, HashMap};

/// Inputs to Algorithm 1, in the paper's vocabulary.
pub struct MergeInputs<'a> {
    /// Global snapshot (global-XID namespace), from the GTM.
    pub global: &'a Snapshot,
    /// Local snapshot (local-XID namespace), from this DN.
    pub local: &'a Snapshot,
    /// Local commit order on this DN, oldest commit first.
    pub lco: &'a [Xid],
    /// Global XID → local XID for multi-shard transactions on this DN.
    pub xid_map: &'a HashMap<Xid, Xid>,
    /// Local XID → global XID (reverse of `xid_map`).
    pub gxid_of: &'a dyn Fn(Xid) -> Option<Xid>,
    /// Does the GTM's commit log record this global XID as committed?
    pub globally_committed: &'a dyn Fn(Xid) -> bool,
}

/// Result of merging: the snapshot to judge visibility with, plus the two
/// repair lists for observability and for the cluster's wait logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOutcome {
    /// Merged snapshot in the *local* XID namespace.
    pub merged: Snapshot,
    /// Local XIDs the reader must wait-for-commit on before scanning
    /// (Anomaly 1 / UPGRADE): globally committed, locally still prepared.
    pub upgrade_waits: Vec<Xid>,
    /// Local XIDs whose commits were reverted to "active" in the reader's
    /// view (Anomaly 2 / DOWNGRADE).
    pub downgraded: Vec<Xid>,
}

/// Run Algorithm 1.
pub fn merge_snapshot(inputs: &MergeInputs<'_>) -> MergeOutcome {
    let MergeInputs {
        global,
        local,
        lco,
        xid_map,
        gxid_of,
        globally_committed,
    } = inputs;

    // Lines 1–2: globally-active transactions that ran on this DN become
    // active in the merged view, even if their local leg already committed.
    let mut merged_active: BTreeSet<Xid> = BTreeSet::new();
    for gxid in &global.active {
        if let Some(&local_xid) = xid_map.get(gxid) {
            merged_active.insert(local_xid);
        }
    }

    // Lines 3–4: locally-active transactions stay active.
    for &xid in &local.active {
        merged_active.insert(xid);
    }

    // Line 5: DOWNGRADE. Walk the LCO; once a commit belongs to a global
    // transaction the global snapshot cannot see, taint that commit and
    // every later one.
    let mut downgraded = Vec::new();
    let mut tainted = false;
    for &local_xid in *lco {
        if !tainted {
            if let Some(gxid) = gxid_of(local_xid) {
                if global.is_active(gxid) {
                    tainted = true;
                }
            }
        }
        if tainted {
            merged_active.insert(local_xid);
            downgraded.push(local_xid);
        }
    }

    // Line 6: UPGRADE. Any merged-active local XID whose global transaction
    // the global snapshot sees as committed must appear committed: remove it
    // from the active set. If it is still active in the *local* snapshot
    // (prepared, commit confirmation in flight) the reader must additionally
    // wait for the local commit to land — that is the paper's
    // wait-for-commit, surfaced in `upgrade_waits`.
    let mut upgrade_waits = Vec::new();
    let to_upgrade: Vec<Xid> = merged_active
        .iter()
        .copied()
        .filter(|&local_xid| {
            gxid_of(local_xid)
                .map(|g| global.sees(g) && globally_committed(g))
                .unwrap_or(false)
        })
        .collect();
    for local_xid in to_upgrade {
        merged_active.remove(&local_xid);
        downgraded.retain(|&x| x != local_xid);
        if local.is_active(local_xid) {
            upgrade_waits.push(local_xid);
        }
    }

    // Lines 7–9: assemble and normalize bounds.
    let mut merged = Snapshot {
        xmin: local.xmin,
        xmax: local.xmax,
        active: merged_active,
    };
    merged.normalize();

    MergeOutcome {
        merged,
        upgrade_waits,
        downgraded,
    }
}

/// Convenience wrapper: merge using a [`crate::local::LocalTxnManager`]'s
/// LCO/xidMap and a GTM commit-status closure.
pub fn merge_with_manager(
    global: &Snapshot,
    local: &Snapshot,
    mgr: &crate::local::LocalTxnManager,
    globally_committed: impl Fn(Xid) -> bool,
) -> MergeOutcome {
    let gxid_of = |x: Xid| mgr.gxid_of(x);
    let committed = |g: Xid| globally_committed(g);
    merge_snapshot(&MergeInputs {
        global,
        local,
        lco: mgr.lco(),
        xid_map: mgr.xid_map(),
        gxid_of: &gxid_of,
        globally_committed: &committed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gxid_map(pairs: &[(u64, u64)]) -> HashMap<Xid, Xid> {
        pairs.iter().map(|&(g, l)| (Xid(g), Xid(l))).collect()
    }

    fn reverse(map: &HashMap<Xid, Xid>) -> HashMap<Xid, Xid> {
        map.iter().map(|(&g, &l)| (l, g)).collect()
    }

    /// No conflicts: merged view = local view (plus nothing).
    #[test]
    fn trivial_merge_is_local_snapshot() {
        let global = Snapshot::capture(Xid(100), []);
        let local = Snapshot::capture(Xid(10), [Xid(7)]);
        let map = gxid_map(&[]);
        let rev = reverse(&map);
        let out = merge_snapshot(&MergeInputs {
            global: &global,
            local: &local,
            lco: &[],
            xid_map: &map,
            gxid_of: &|x| rev.get(&x).copied(),
            globally_committed: &|_| false,
        });
        assert_eq!(out.merged.active, local.active);
        assert!(out.upgrade_waits.is_empty());
        assert!(out.downgraded.is_empty());
    }

    /// Anomaly 1: writer W committed at the GTM (global snapshot sees it)
    /// but its local leg is still prepared (local snapshot says active).
    /// Expect: W removed from merged active + listed in upgrade_waits.
    #[test]
    fn anomaly1_upgrade_waits_for_local_commit() {
        let w_g = 50u64; // global xid of writer
        let w_l = 5u64; // its local leg here
        let global = Snapshot::capture(Xid(100), []); // W not active => finished
        let local = Snapshot::capture(Xid(10), [Xid(w_l)]); // locally active
        let map = gxid_map(&[(w_g, w_l)]);
        let rev = reverse(&map);
        let out = merge_snapshot(&MergeInputs {
            global: &global,
            local: &local,
            lco: &[],
            xid_map: &map,
            gxid_of: &|x| rev.get(&x).copied(),
            globally_committed: &|g| g == Xid(w_g),
        });
        assert!(out.merged.sees(Xid(w_l)), "writer upgraded to committed");
        assert_eq!(out.upgrade_waits, vec![Xid(w_l)]);
        assert!(out.downgraded.is_empty());
    }

    /// Anomaly 2 exactly as Figure 2: T1 multi-shard (global 40, local 4 on
    /// DN1), T3 single-shard (local 6 on DN1). Reader's global snapshot is
    /// old ({T1} active); local snapshot is new (both committed). Expect:
    /// both T1's local leg AND T3 downgraded.
    #[test]
    fn anomaly2_downgrades_dependent_single_shard_commit() {
        let global = Snapshot::capture(Xid(41), [Xid(40)]); // T1 globally active
        let local = Snapshot::capture(Xid(10), []); // everything locally done
        let map = gxid_map(&[(40, 4)]);
        let rev = reverse(&map);
        let lco = [Xid(4), Xid(6)]; // T1 then T3 committed locally
        let out = merge_snapshot(&MergeInputs {
            global: &global,
            local: &local,
            lco: &lco,
            xid_map: &map,
            gxid_of: &|x| rev.get(&x).copied(),
            globally_committed: &|_| false,
        });
        assert!(!out.merged.sees(Xid(4)), "T1 local leg hidden");
        assert!(!out.merged.sees(Xid(6)), "T3 downgraded (dependency)");
        assert_eq!(out.downgraded, vec![Xid(4), Xid(6)]);
        assert!(out.upgrade_waits.is_empty());
    }

    /// Commits before the first globally-invisible commit stay visible:
    /// only the suffix is downgraded.
    #[test]
    fn downgrade_taints_only_the_suffix() {
        let global = Snapshot::capture(Xid(41), [Xid(40)]);
        let local = Snapshot::capture(Xid(10), []);
        let map = gxid_map(&[(40, 5)]);
        let rev = reverse(&map);
        // Local commits: 3 (single-shard, before T1) then 5 (=T1) then 7.
        let lco = [Xid(3), Xid(5), Xid(7)];
        let out = merge_snapshot(&MergeInputs {
            global: &global,
            local: &local,
            lco: &lco,
            xid_map: &map,
            gxid_of: &|x| rev.get(&x).copied(),
            globally_committed: &|_| false,
        });
        assert!(out.merged.sees(Xid(3)), "pre-taint commit stays visible");
        assert!(!out.merged.sees(Xid(5)));
        assert!(!out.merged.sees(Xid(7)));
        assert_eq!(out.downgraded, vec![Xid(5), Xid(7)]);
    }

    /// A multi-shard commit later in the LCO that IS globally visible gets
    /// downgraded by the suffix rule but restored by UPGRADE (line-5 then
    /// line-6 ordering).
    #[test]
    fn upgrade_restores_globally_visible_commit_after_downgrade() {
        // Global: T1 (g=40) active; T4 (g=30) committed.
        let global = Snapshot::capture(Xid(41), [Xid(40)]);
        let local = Snapshot::capture(Xid(10), []);
        let map = gxid_map(&[(40, 4), (30, 6)]);
        let rev = reverse(&map);
        let lco = [Xid(4), Xid(6)]; // T1's leg then T4's leg
        let out = merge_snapshot(&MergeInputs {
            global: &global,
            local: &local,
            lco: &lco,
            xid_map: &map,
            gxid_of: &|x| rev.get(&x).copied(),
            globally_committed: &|g| g == Xid(30),
        });
        assert!(!out.merged.sees(Xid(4)), "T1 stays hidden");
        assert!(out.merged.sees(Xid(6)), "T4 restored by UPGRADE");
        assert_eq!(
            out.downgraded,
            vec![Xid(4)],
            "T4 removed from downgrade list"
        );
        assert!(
            out.upgrade_waits.is_empty(),
            "T4 already committed locally: no wait"
        );
    }

    /// A future global transaction (gxid >= global.xmax) is invisible in the
    /// global snapshot and must also trigger DOWNGRADE.
    #[test]
    fn future_gxid_counts_as_invisible() {
        let global = Snapshot::capture(Xid(41), []);
        let local = Snapshot::capture(Xid(10), []);
        let map = gxid_map(&[(90, 4)]); // gxid 90 started after global snapshot
        let rev = reverse(&map);
        let lco = [Xid(4)];
        let out = merge_snapshot(&MergeInputs {
            global: &global,
            local: &local,
            lco: &lco,
            xid_map: &map,
            gxid_of: &|x| rev.get(&x).copied(),
            globally_committed: &|g| g == Xid(90), // even committed *after*
                                                   // the snapshot it must stay invisible to this reader
        });
        assert!(!out.merged.sees(Xid(4)));
    }

    /// Lines 1–2: a globally-active multi-shard writer whose local leg
    /// already committed locally becomes active in the merged view even
    /// without LCO traversal.
    #[test]
    fn globally_active_local_commit_is_masked() {
        let global = Snapshot::capture(Xid(41), [Xid(40)]);
        // Local snapshot taken after the leg committed: not locally active.
        let local = Snapshot::capture(Xid(10), []);
        let map = gxid_map(&[(40, 4)]);
        let rev = reverse(&map);
        let out = merge_snapshot(&MergeInputs {
            global: &global,
            local: &local,
            lco: &[], // LCO intentionally empty: lines 1-2 must suffice
            xid_map: &map,
            gxid_of: &|x| rev.get(&x).copied(),
            globally_committed: &|_| false,
        });
        assert!(!out.merged.sees(Xid(4)));
    }

    /// merge_with_manager wires the manager state through.
    #[test]
    fn manager_wrapper_matches_raw_inputs() {
        use crate::local::LocalTxnManager;
        let mut mgr = LocalTxnManager::new();
        let t1 = mgr.begin_global(Xid(40));
        mgr.prepare(t1).unwrap();
        mgr.commit(t1).unwrap();
        let t3 = mgr.begin_local();
        mgr.commit(t3).unwrap();
        let global = Snapshot::capture(Xid(41), [Xid(40)]);
        let local = mgr.local_snapshot();
        let out = merge_with_manager(&global, &local, &mgr, |_| false);
        assert!(!out.merged.sees(t1));
        assert!(!out.merged.sees(t3));
        assert_eq!(out.downgraded, vec![t1, t3]);
    }
}
