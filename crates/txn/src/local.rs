//! A data node's local transaction manager.
//!
//! Under GTM-lite every transaction that touches a DN gets a *local* XID
//! from that DN ("DN uses local XID and local snapshot to execute and commit
//! transaction locally", §II-A). Multi-shard transactions additionally carry
//! a global XID; the DN records the association in the **xidMap**. Each DN
//! also maintains the **local commit order (LCO)** — the sequence in which
//! local transactions committed — which Algorithm 1's DOWNGRADE traverses.
//! The LCO is cut from the front below a global-XID horizon
//! ([`LocalTxnManager::prune_lco_below`]): DOWNGRADE's taint can only start
//! at a commit whose global XID is at or above the reader's global `xmin`,
//! so a prefix below the oldest global snapshot still in use, or still to
//! be handed out, can never be tainted.
//!
//! A transaction that wrote nothing is *forgotten* rather than committed
//! ([`LocalTxnManager::forget`]): no tuple carries its XID, so it leaves no
//! clog entry, never enters the LCO and drops its xidMap pair. The clog, LCO
//! and xidMap hold writers only.

use crate::commitlog::{CommitLog, TxnStatus};
use crate::snapshot::Snapshot;
use hdm_common::ids::FIRST_XID;
use hdm_common::{Result, Xid};
use std::collections::{BTreeSet, HashMap};

/// Local transaction state for one data node.
#[derive(Debug, Clone)]
pub struct LocalTxnManager {
    next_xid: u64,
    active: BTreeSet<Xid>,
    clog: CommitLog,
    /// Local commit order: local XIDs in the order their commits landed.
    /// `lco[lco_head..]` is live; the pruned prefix is compacted away once
    /// it outgrows the live part.
    lco: Vec<Xid>,
    lco_head: usize,
    /// Commits ever appended to the LCO; pruning never lowers it.
    lco_appends: u64,
    /// Global XID -> local XID for multi-shard transactions on this DN.
    xid_map: HashMap<Xid, Xid>,
    /// Reverse of `xid_map`.
    gxid_of: HashMap<Xid, Xid>,
    /// Highest global XID ever mapped here (0 = none). Durable: neither
    /// `forget`, `abort` nor `crash_volatile` lowers it, so a recovering
    /// GTM can allocate above every gxid a DN has seen even when the
    /// mapping itself is gone.
    max_gxid: u64,
}

impl Default for LocalTxnManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalTxnManager {
    pub fn new() -> Self {
        Self {
            next_xid: FIRST_XID,
            active: BTreeSet::new(),
            clog: CommitLog::new(),
            lco: Vec::new(),
            lco_head: 0,
            lco_appends: 0,
            xid_map: HashMap::new(),
            gxid_of: HashMap::new(),
            max_gxid: 0,
        }
    }

    /// Begin a purely local (single-shard) transaction.
    pub fn begin_local(&mut self) -> Xid {
        let xid = Xid(self.next_xid);
        self.next_xid += 1;
        self.active.insert(xid);
        self.clog.begin(xid);
        xid
    }

    /// Begin the local leg of a multi-shard transaction with global id
    /// `gxid`; records the xidMap entry.
    pub fn begin_global(&mut self, gxid: Xid) -> Xid {
        let xid = self.begin_local();
        self.xid_map.insert(gxid, xid);
        self.gxid_of.insert(xid, gxid);
        self.max_gxid = self.max_gxid.max(gxid.raw());
        xid
    }

    /// Take a local snapshot.
    pub fn local_snapshot(&self) -> Snapshot {
        Snapshot::capture(Xid(self.next_xid), self.active.iter().copied())
    }

    /// 2PC phase one on this DN: vote yes, hold locks, stay invisible.
    pub fn prepare(&mut self, xid: Xid) -> Result<()> {
        self.clog.prepare(xid)
    }

    /// Commit a local transaction: mark committed, leave the active set,
    /// append to the LCO.
    pub fn commit(&mut self, xid: Xid) -> Result<()> {
        self.clog.commit(xid)?;
        self.active.remove(&xid);
        self.lco.push(xid);
        self.lco_appends += 1;
        Ok(())
    }

    /// Abort a local transaction.
    pub fn abort(&mut self, xid: Xid) -> Result<()> {
        self.clog.abort(xid)?;
        self.active.remove(&xid);
        self.unmap(xid);
        Ok(())
    }

    /// Forget an in-progress transaction that wrote nothing: it leaves the
    /// active set, drops its clog entry and its xidMap pair, and never
    /// enters the LCO. Afterwards its XID reads as `Aborted`, which is
    /// harmless because no tuple carries it; DOWNGRADE's taint can only
    /// start at a commit that wrote.
    pub fn forget(&mut self, xid: Xid) -> Result<()> {
        self.clog.forget(xid)?;
        self.active.remove(&xid);
        self.unmap(xid);
        Ok(())
    }

    fn unmap(&mut self, xid: Xid) {
        if let Some(gxid) = self.gxid_of.remove(&xid) {
            self.xid_map.remove(&gxid);
        }
    }

    pub fn status(&self, xid: Xid) -> TxnStatus {
        self.clog.status(xid)
    }

    pub fn clog(&self) -> &CommitLog {
        &self.clog
    }

    /// The live local commit order (oldest first): every commit not yet
    /// pruned.
    pub fn lco(&self) -> &[Xid] {
        &self.lco[self.lco_head..]
    }

    /// Commits ever appended to the LCO: one per writing commit, none per
    /// forgotten or aborted transaction. Monotone, so it still counts
    /// commits that pruning has since cut.
    pub fn lco_appends(&self) -> u64 {
        self.lco_appends
    }

    /// Global→local XID associations on this DN.
    pub fn xid_map(&self) -> &HashMap<Xid, Xid> {
        &self.xid_map
    }

    /// The global XID of a local XID, if this was a multi-shard leg.
    pub fn gxid_of(&self, local: Xid) -> Option<Xid> {
        self.gxid_of.get(&local).copied()
    }

    /// Highest global XID ever mapped on this DN (0 if none), including
    /// legs since forgotten or aborted.
    pub fn max_gxid(&self) -> u64 {
        self.max_gxid
    }

    /// The local XID assigned to global transaction `gxid`, if it ran here.
    pub fn local_of(&self, gxid: Xid) -> Option<Xid> {
        self.xid_map.get(&gxid).copied()
    }

    /// Local XIDs currently prepared (vote-yes, awaiting decision). UPGRADE
    /// waits on exactly these.
    pub fn prepared_xids(&self) -> Vec<Xid> {
        self.active
            .iter()
            .copied()
            .filter(|x| self.clog.is_prepared(*x))
            .collect()
    }

    /// Drop the LCO prefix before the first commit whose global XID is at
    /// or above `horizon`; local commits and legs below `horizon` go.
    /// Amortised O(1) per dropped entry.
    ///
    /// DOWNGRADE starts its taint only at a commit whose global XID `g` is
    /// active in the reader's global snapshot, and `Snapshot::is_active(g)`
    /// implies `g >= xmin`. So when `horizon` is at most the `xmin` of
    /// every global snapshot held now or handed out later, no dropped
    /// commit can start a taint, none lies after a taint start, and every
    /// merge over the cut LCO returns exactly what the full walk would.
    pub fn prune_lco_below(&mut self, horizon: Xid) {
        let live = &self.lco[self.lco_head..];
        let cut = live
            .iter()
            .position(|l| self.gxid_of.get(l).is_some_and(|&g| g >= horizon))
            .unwrap_or(live.len());
        self.lco_head += cut;
        if self.lco_head * 2 >= self.lco.len() {
            self.lco.drain(..self.lco_head);
            self.lco_head = 0;
        }
    }

    /// Simulate this DN's process dying: every in-flight transaction that
    /// had **not** reached `Prepared` loses its volatile state and is
    /// aborted (its locks and undo die with it). Prepared transactions are
    /// durable — the prepare record survives the crash — and stay active as
    /// in-doubt until recovery resolves them against the coordinator's
    /// commit log. Returns the aborted XIDs so the storage layer can undo
    /// their writes.
    pub fn crash_volatile(&mut self) -> Vec<Xid> {
        let lost: Vec<Xid> = self
            .active
            .iter()
            .copied()
            .filter(|x| !self.clog.is_prepared(*x))
            .collect();
        for &x in &lost {
            self.abort(x).expect("in-progress abort cannot fail");
        }
        lost
    }

    /// Number of in-flight local transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    pub fn is_active(&self, xid: Xid) -> bool {
        self.active.contains(&xid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_xids_ascend_and_snapshot_tracks_active() {
        let mut m = LocalTxnManager::new();
        let a = m.begin_local();
        let b = m.begin_local();
        assert!(b > a);
        let s = m.local_snapshot();
        assert!(!s.sees(a) && !s.sees(b));
        m.commit(a).unwrap();
        let s = m.local_snapshot();
        assert!(s.sees(a));
        assert!(!s.sees(b));
    }

    #[test]
    fn lco_records_commit_order_not_begin_order() {
        let mut m = LocalTxnManager::new();
        let a = m.begin_local();
        let b = m.begin_local();
        m.commit(b).unwrap();
        m.commit(a).unwrap();
        assert_eq!(m.lco(), &[b, a]);
    }

    #[test]
    fn xid_map_round_trips() {
        let mut m = LocalTxnManager::new();
        let gxid = Xid(1000);
        let local = m.begin_global(gxid);
        assert_eq!(m.local_of(gxid), Some(local));
        assert_eq!(m.gxid_of(local), Some(gxid));
        assert_eq!(m.local_of(Xid(999)), None);
    }

    #[test]
    fn abort_clears_xid_map() {
        let mut m = LocalTxnManager::new();
        let gxid = Xid(1000);
        let local = m.begin_global(gxid);
        m.abort(local).unwrap();
        assert_eq!(m.local_of(gxid), None);
        assert!(!m.is_active(local));
        assert!(m.lco().is_empty(), "aborts never enter the LCO");
    }

    #[test]
    fn forget_leaves_no_trace_and_the_lco_holds_writers_only() {
        let mut m = LocalTxnManager::new();
        let writer = m.begin_global(Xid(900));
        let reader = m.begin_global(Xid(901));
        let local_reader = m.begin_local();
        m.forget(reader).unwrap();
        m.forget(local_reader).unwrap();
        m.prepare(writer).unwrap();
        m.commit(writer).unwrap();
        assert_eq!(m.lco(), &[writer]);
        assert_eq!(m.active_count(), 0);
        assert_eq!(m.clog().len(), 1, "only the writer keeps a clog entry");
        assert_eq!(
            m.status(reader),
            TxnStatus::Aborted,
            "unknown reads aborted"
        );
        assert_eq!(m.local_of(Xid(901)), None);
        assert_eq!(m.gxid_of(reader), None);
        assert_eq!(m.xid_map().len(), 1);
        assert_eq!(m.max_gxid(), 901, "the high-water mark survives forget");
        assert!(
            m.forget(writer).is_err(),
            "a committed txn is not forgettable"
        );
    }

    #[test]
    fn prepared_xids_lists_only_prepared() {
        let mut m = LocalTxnManager::new();
        let a = m.begin_local();
        let b = m.begin_local();
        m.prepare(a).unwrap();
        assert_eq!(m.prepared_xids(), vec![a]);
        assert!(m.is_active(a), "prepared stays active/invisible");
        let _ = b;
    }

    #[test]
    fn prune_lco_below_cuts_up_to_the_first_leg_at_the_horizon() {
        fn commit(m: &mut LocalTxnManager, gxid: Option<u64>) -> Xid {
            let x = match gxid {
                Some(g) => m.begin_global(Xid(g)),
                None => m.begin_local(),
            };
            m.commit(x).unwrap();
            x
        }
        let mut m = LocalTxnManager::new();
        let _l1 = commit(&mut m, None);
        let _g10 = commit(&mut m, Some(10));
        let _l2 = commit(&mut m, None);
        let g20 = commit(&mut m, Some(20));
        let l3 = commit(&mut m, None);
        m.prune_lco_below(Xid(11));
        assert_eq!(m.lco(), &[g20, l3], "the cut stops at the first leg >= 11");
        m.prune_lco_below(Xid(5));
        assert_eq!(m.lco(), &[g20, l3], "a lower horizon restores nothing");
        m.prune_lco_below(Xid(21));
        assert!(m.lco().is_empty());
        let l4 = commit(&mut m, None);
        assert_eq!(m.lco(), &[l4]);
        assert_eq!(m.lco_appends(), 6, "the append count survives pruning");
    }

    #[test]
    fn crash_aborts_in_progress_but_keeps_prepared_in_doubt() {
        let mut m = LocalTxnManager::new();
        let plain = m.begin_local();
        let leg = m.begin_global(Xid(700));
        m.prepare(leg).unwrap();
        let lost = m.crash_volatile();
        assert_eq!(lost, vec![plain], "only the unprepared txn dies");
        assert_eq!(m.status(plain), TxnStatus::Aborted);
        // The prepared leg survives as in-doubt: still active, still mapped.
        assert!(m.is_active(leg));
        assert_eq!(m.prepared_xids(), vec![leg]);
        assert_eq!(m.local_of(Xid(700)), Some(leg));
        // Recovery can then resolve it either way.
        m.commit(leg).unwrap();
        assert_eq!(m.lco(), &[leg]);
    }

    #[test]
    fn prepared_then_committed_enters_lco() {
        let mut m = LocalTxnManager::new();
        let a = m.begin_global(Xid(500));
        m.prepare(a).unwrap();
        m.commit(a).unwrap();
        assert_eq!(m.lco(), &[a]);
        assert_eq!(m.status(a), TxnStatus::Committed);
        // xidMap survives commit: DOWNGRADE must map historical commits.
        assert_eq!(m.local_of(Xid(500)), Some(a));
    }
}
