//! Adapts a snapshot + commit log into the storage layer's visibility judge.
//!
//! The full PostgreSQL rule: a tuple's inserter is *seen as committed* iff
//! the snapshot says it finished **and** the commit log says it committed
//! (a finished transaction may have aborted). A reader's own in-progress
//! writes are always visible to itself.

use crate::commitlog::CommitLog;
use crate::snapshot::Snapshot;
use hdm_common::Xid;
use hdm_storage::Visibility;
use std::cell::Cell;

/// Visibility judge for one reader on one DN.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotVisibility<'a> {
    snapshot: &'a Snapshot,
    clog: &'a CommitLog,
    own: Option<Xid>,
}

impl<'a> SnapshotVisibility<'a> {
    pub fn new(snapshot: &'a Snapshot, clog: &'a CommitLog, own: Option<Xid>) -> Self {
        Self {
            snapshot,
            clog,
            own,
        }
    }

    pub fn snapshot(&self) -> &Snapshot {
        self.snapshot
    }
}

impl Visibility for SnapshotVisibility<'_> {
    fn sees_committed(&self, xid: Xid) -> bool {
        self.snapshot.sees(xid) && self.clog.is_committed(xid)
    }

    fn is_own(&self, xid: Xid) -> bool {
        self.own == Some(xid)
    }
}

/// [`SnapshotVisibility`] with a one-entry memo on `sees_committed`: a scan
/// or probe judges runs of tuples that share one creating transaction (a
/// bulk load, a batch INSERT), so the commit-log probe hits the memo on
/// nearly every row. Visibility answers are snapshot-stable within a
/// statement, so memoizing cannot change results.
pub struct MemoVisibility<'a> {
    inner: SnapshotVisibility<'a>,
    last: Cell<Option<(Xid, bool)>>,
}

impl<'a> MemoVisibility<'a> {
    pub fn new(inner: SnapshotVisibility<'a>) -> Self {
        Self {
            inner,
            last: Cell::new(None),
        }
    }
}

impl Visibility for MemoVisibility<'_> {
    fn sees_committed(&self, xid: Xid) -> bool {
        if let Some((x, ans)) = self.last.get() {
            if x == xid {
                return ans;
            }
        }
        let ans = self.inner.sees_committed(xid);
        self.last.set(Some((xid, ans)));
        ans
    }

    fn is_own(&self, xid: Xid) -> bool {
        self.inner.is_own(xid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::row;
    use hdm_storage::HeapTable;

    /// End-to-end at the txn layer: begin/commit/abort with real snapshots
    /// over a real heap.
    #[test]
    fn committed_visible_aborted_not() {
        use crate::local::LocalTxnManager;
        let mut mgr = LocalTxnManager::new();
        let mut heap = HeapTable::new();

        let ok = mgr.begin_local();
        heap.insert(ok, row![1]);
        mgr.commit(ok).unwrap();

        let bad = mgr.begin_local();
        let bad_tid = heap.insert(bad, row![2]);
        heap.undo_insert(bad, bad_tid).unwrap();
        mgr.abort(bad).unwrap();

        let snap = mgr.local_snapshot();
        let judge = SnapshotVisibility::new(&snap, mgr.clog(), None);
        let rows: Vec<_> = heap.scan_visible(&judge).map(|(_, r)| r.clone()).collect();
        assert_eq!(rows, vec![row![1]]);
    }

    /// A snapshot taken before a commit keeps the commit invisible even
    /// after the clog records it (repeatable read within the snapshot).
    #[test]
    fn snapshot_isolation_freezes_the_view() {
        use crate::local::LocalTxnManager;
        let mut mgr = LocalTxnManager::new();
        let mut heap = HeapTable::new();

        let writer = mgr.begin_local();
        heap.insert(writer, row![42]);
        let early_snap = mgr.local_snapshot(); // writer still active
        mgr.commit(writer).unwrap();
        let late_snap = mgr.local_snapshot();

        let early = SnapshotVisibility::new(&early_snap, mgr.clog(), None);
        let late = SnapshotVisibility::new(&late_snap, mgr.clog(), None);
        assert_eq!(heap.scan_visible(&early).count(), 0);
        assert_eq!(heap.scan_visible(&late).count(), 1);
    }

    /// Aborted-but-finished XIDs are the reason the clog check exists:
    /// the snapshot alone would wrongly show them.
    #[test]
    fn finished_but_aborted_is_invisible() {
        use crate::local::LocalTxnManager;
        let mut mgr = LocalTxnManager::new();
        let bad = mgr.begin_local();
        mgr.abort(bad).unwrap();
        let snap = mgr.local_snapshot();
        assert!(snap.sees(bad), "snapshot says finished");
        let judge = SnapshotVisibility::new(&snap, mgr.clog(), None);
        let hdr = hdm_storage::TupleHeader::new(bad);
        assert!(!judge.tuple_visible(&hdr), "clog says aborted");
    }

    #[test]
    fn own_writes_visible_mid_transaction() {
        use crate::local::LocalTxnManager;
        let mut mgr = LocalTxnManager::new();
        let mut heap = HeapTable::new();
        let me = mgr.begin_local();
        heap.insert(me, row![7]);
        let snap = mgr.local_snapshot();
        let as_me = SnapshotVisibility::new(&snap, mgr.clog(), Some(me));
        let as_other = SnapshotVisibility::new(&snap, mgr.clog(), None);
        assert_eq!(heap.scan_visible(&as_me).count(), 1);
        assert_eq!(heap.scan_visible(&as_other).count(), 0);
    }

    /// Prepared (2PC phase 1) writes stay invisible to everyone else.
    #[test]
    fn prepared_is_invisible() {
        use crate::local::LocalTxnManager;
        let mut mgr = LocalTxnManager::new();
        let mut heap = HeapTable::new();
        let w = mgr.begin_global(Xid(500));
        heap.insert(w, row![1]);
        mgr.prepare(w).unwrap();
        let snap = mgr.local_snapshot();
        let judge = SnapshotVisibility::new(&snap, mgr.clog(), None);
        assert_eq!(heap.scan_visible(&judge).count(), 0);
    }
}
