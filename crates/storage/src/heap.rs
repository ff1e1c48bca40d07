//! The MVCC row heap.
//!
//! Tuple versions are append-only; DELETE stamps `xmax`, UPDATE stamps the
//! old version's `xmax` and appends a successor version (recording the link
//! for update-chain traversal). Aborted transactions' stamps are cleared by
//! the transaction layer calling [`HeapTable::undo_insert`] /
//! [`HeapTable::undo_delete`] — simple and sufficient for an in-memory
//! engine (no WAL/redo is needed because the heap *is* the memory image; the
//! paper's FI-MPPDB durability machinery is out of reproduction scope).

use crate::mvcc::{TupleHeader, Visibility};
use hdm_common::ids::INVALID_XID;
use hdm_common::{HdmError, Result, Row, Xid};

/// Position of a tuple version within a heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u64);

impl std::fmt::Display for TupleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tid:{}", self.0)
    }
}

#[derive(Debug, Clone)]
struct Slot {
    header: TupleHeader,
    row: Row,
    /// Successor version (set by UPDATE).
    next_version: Option<TupleId>,
}

/// An append-only MVCC heap of rows.
#[derive(Debug, Default, Clone)]
pub struct HeapTable {
    slots: Vec<Slot>,
}

impl HeapTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tuple *versions* (not live rows).
    pub fn version_count(&self) -> usize {
        self.slots.len()
    }

    /// Insert a new row version created by `xid`.
    pub fn insert(&mut self, xid: Xid, row: Row) -> TupleId {
        let tid = TupleId(self.slots.len() as u64);
        self.slots.push(Slot {
            header: TupleHeader::new(xid),
            row,
            next_version: None,
        });
        tid
    }

    /// Mark `tid` deleted by `xid`. Fails if the version is already dead
    /// (write-write conflict surfaced to the transaction layer).
    pub fn delete(&mut self, xid: Xid, tid: TupleId) -> Result<()> {
        let slot = self.slot_mut(tid)?;
        if slot.header.has_xmax() {
            return Err(HdmError::TxnAborted(format!(
                "write-write conflict on {tid}: already deleted by {}",
                slot.header.xmax
            )));
        }
        slot.header.xmax = xid;
        Ok(())
    }

    /// Update `tid`: stamp it dead and append the successor version.
    pub fn update(&mut self, xid: Xid, tid: TupleId, new_row: Row) -> Result<TupleId> {
        self.delete(xid, tid)?;
        let new_tid = self.insert(xid, new_row);
        self.slot_mut(tid)?.next_version = Some(new_tid);
        Ok(new_tid)
    }

    /// Abort path: clear an `xmax` stamped by `xid` (un-delete).
    pub fn undo_delete(&mut self, xid: Xid, tid: TupleId) -> Result<()> {
        let slot = self.slot_mut(tid)?;
        if slot.header.xmax != xid {
            return Err(HdmError::TxnState(format!(
                "undo_delete on {tid}: xmax is {} not {xid}",
                slot.header.xmax
            )));
        }
        slot.header.xmax = INVALID_XID;
        slot.next_version = None;
        Ok(())
    }

    /// Abort path: neutralize a version inserted by `xid`. The slot stays
    /// allocated (append-only heap) but becomes permanently invisible.
    pub fn undo_insert(&mut self, xid: Xid, tid: TupleId) -> Result<()> {
        let slot = self.slot_mut(tid)?;
        if slot.header.xmin != xid {
            return Err(HdmError::TxnState(format!(
                "undo_insert on {tid}: xmin is {} not {xid}",
                slot.header.xmin
            )));
        }
        // xmin == xmax == xid with xid aborted: invisible to every judge
        // because no judge sees an aborted xid as committed and a transaction
        // that aborted is no longer anyone's "own".
        slot.header.xmax = xid;
        Ok(())
    }

    /// Raw access to a version's header.
    pub fn header(&self, tid: TupleId) -> Result<&TupleHeader> {
        self.slot(tid).map(|s| &s.header)
    }

    /// Raw access to a version's row (ignores visibility).
    pub fn row(&self, tid: TupleId) -> Result<&Row> {
        self.slot(tid).map(|s| &s.row)
    }

    /// The successor version installed by an UPDATE, if any.
    pub fn next_version(&self, tid: TupleId) -> Result<Option<TupleId>> {
        self.slot(tid).map(|s| s.next_version)
    }

    /// Scan all versions visible to `judge`, yielding `(tid, row)`.
    pub fn scan_visible<'a, V: Visibility + ?Sized>(
        &'a self,
        judge: &'a V,
    ) -> impl Iterator<Item = (TupleId, &'a Row)> + 'a {
        self.slots.iter().enumerate().filter_map(move |(i, s)| {
            judge
                .tuple_visible(&s.header)
                .then_some((TupleId(i as u64), &s.row))
        })
    }

    /// Scan every version regardless of visibility, yielding
    /// `(tid, header, row)` — used by index builders and debug tooling.
    pub fn scan_all(&self) -> impl Iterator<Item = (TupleId, &TupleHeader, &Row)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (TupleId(i as u64), &s.header, &s.row))
    }

    fn slot(&self, tid: TupleId) -> Result<&Slot> {
        self.slots
            .get(tid.0 as usize)
            .ok_or_else(|| HdmError::Storage(format!("unknown tuple {tid}")))
    }

    fn slot_mut(&mut self, tid: TupleId) -> Result<&mut Slot> {
        self.slots
            .get_mut(tid.0 as usize)
            .ok_or_else(|| HdmError::Storage(format!("unknown tuple {tid}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::FixedVisibility;
    use hdm_common::row;

    const TA: Xid = Xid(100);
    const TB: Xid = Xid(200);

    #[test]
    fn insert_then_scan_with_committed_inserter() {
        let mut heap = HeapTable::new();
        heap.insert(TA, row![1, "a"]);
        let judge = FixedVisibility::new([TA], None);
        let rows: Vec<_> = heap.scan_visible(&judge).collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, &row![1, "a"]);
    }

    #[test]
    fn update_creates_version_chain() {
        let mut heap = HeapTable::new();
        let t0 = heap.insert(TA, row![1]);
        let t1 = heap.update(TB, t0, row![2]).unwrap();
        assert_eq!(heap.next_version(t0).unwrap(), Some(t1));
        assert_eq!(heap.header(t0).unwrap().xmax, TB);
        assert_eq!(heap.header(t1).unwrap().xmin, TB);

        // A reader that sees only TA committed reads the old version.
        let old_reader = FixedVisibility::new([TA], None);
        let rows: Vec<_> = heap.scan_visible(&old_reader).map(|(_, r)| r).collect();
        assert_eq!(rows, vec![&row![1]]);

        // A reader that sees both reads only the new version.
        let new_reader = FixedVisibility::new([TA, TB], None);
        let rows: Vec<_> = heap.scan_visible(&new_reader).map(|(_, r)| r).collect();
        assert_eq!(rows, vec![&row![2]]);
    }

    #[test]
    fn double_delete_is_write_write_conflict() {
        let mut heap = HeapTable::new();
        let t0 = heap.insert(TA, row![1]);
        heap.delete(TB, t0).unwrap();
        let err = heap.delete(Xid(300), t0).unwrap_err();
        assert_eq!(err.class(), "txn_aborted");
    }

    #[test]
    fn undo_delete_restores_visibility() {
        let mut heap = HeapTable::new();
        let t0 = heap.insert(TA, row![1]);
        heap.delete(TB, t0).unwrap();
        heap.undo_delete(TB, t0).unwrap();
        let judge = FixedVisibility::new([TA], None);
        assert_eq!(heap.scan_visible(&judge).count(), 1);
    }

    #[test]
    fn undo_delete_validates_owner() {
        let mut heap = HeapTable::new();
        let t0 = heap.insert(TA, row![1]);
        heap.delete(TB, t0).unwrap();
        assert!(heap.undo_delete(Xid(999), t0).is_err());
    }

    #[test]
    fn undo_insert_makes_version_permanently_invisible() {
        let mut heap = HeapTable::new();
        let t0 = heap.insert(TA, row![1]);
        heap.undo_insert(TA, t0).unwrap();
        // Even a judge that considers TA committed must not see it: the
        // version is self-stamped (xmin == xmax == TA).
        let judge = FixedVisibility::new([TA], None);
        assert_eq!(heap.scan_visible(&judge).count(), 0);
    }

    #[test]
    fn unknown_tid_is_storage_error() {
        let mut heap = HeapTable::new();
        assert_eq!(heap.delete(TA, TupleId(7)).unwrap_err().class(), "storage");
    }

    #[test]
    fn version_count_counts_versions() {
        let mut heap = HeapTable::new();
        let t0 = heap.insert(TA, row![1]);
        heap.update(TB, t0, row![2]).unwrap();
        assert_eq!(heap.version_count(), 2);
    }
}
