//! Pluggable execution backends.
//!
//! The executor ([`crate::exec::execute`]) is written against [`ExecBackend`]
//! rather than against [`crate::catalog::Catalog`] directly, so the same plan
//! tree can run over two very different storage layers:
//!
//! * [`LocalBackend`] — the embedded single-node heap (the original
//!   behaviour, bit-for-bit: one statement snapshot, autocommitted local
//!   transactions, undo-on-error);
//! * `cluster::dist::DistExec` (in `hdm-cluster`) — the CN-side scatter-
//!   gather backend, where `Exchange` leaves fan scan fragments out to data
//!   nodes under a GTM-lite or 2PC transaction.
//!
//! The trait is the paper's CN/DN seam (§II, Fig 2): everything above it —
//! joins, aggregation, set ops, limit, the canonical-step observations the
//! learning optimizer feeds on — is backend-agnostic coordinator work;
//! everything below it is shard-local storage access under some snapshot.

use crate::catalog::Catalog;
use crate::expr::SExpr;
use crate::sys::{self, SysSnapshot};
use hdm_common::{Datum, Result, Row, Xid};
use hdm_storage::heap::TupleId;
use hdm_storage::Table;
use hdm_telemetry::ShardLeg;
use hdm_txn::{LocalTxnManager, MemoVisibility, Snapshot, SnapshotVisibility};

/// Read access for the executor: scans, index probes and `Exchange`
/// fragments under the backend's statement snapshot. Writes do not cross
/// this seam: each facade applies its own DML.
///
/// Scans are visitors: [`Self::scan`] and [`Self::scan_shards`] hand each
/// surviving row to `emit` by reference, straight out of storage, and
/// return how many rows they emitted. Rows arrive in heap (tuple id) order,
/// shard by shard in the order `shards` names them. An error from `emit`
/// aborts the scan and is returned as the scan's error. A caller that needs
/// the rows owned clones them in `emit`; one that aggregates never does.
pub trait ExecBackend {
    /// Visit the rows of `table` visible under the backend's snapshot that
    /// pass `predicate` (all rows when `None`).
    fn scan(
        &mut self,
        table: &str,
        predicate: Option<&SExpr>,
        emit: &mut dyn FnMut(&Row) -> Result<()>,
    ) -> Result<u64>;

    /// Equality index probe on `index_id` with `key_values`, filtered by the
    /// `residual` predicate. A NULL key value matches no row.
    fn point_get(
        &mut self,
        table: &str,
        index_id: usize,
        key_values: &[Datum],
        residual: Option<&SExpr>,
    ) -> Result<Vec<Row>>;

    /// Ordered range walk over the single-column index `index_id` between
    /// `lo` and `hi`, filtered by the `residual` predicate. Hits come back
    /// in heap (tuple id) order so index and sequential plans for the same
    /// query produce identically ordered rows.
    fn index_range(
        &mut self,
        table: &str,
        index_id: usize,
        lo: &std::ops::Bound<Datum>,
        hi: &std::ops::Bound<Datum>,
        residual: Option<&SExpr>,
    ) -> Result<Vec<Row>> {
        let _ = (table, index_id, lo, hi, residual);
        Err(hdm_common::HdmError::Unsupported(
            "this backend does not support index range scans".into(),
        ))
    }

    /// Scan restricted to the given shard set — the `Exchange` fragment
    /// entry point, visiting rows as [`Self::scan`] does. Backends without a
    /// notion of placement run a plain scan.
    /// When the planner chose an index access path, `probe` carries the
    /// concrete equality key or range bounds so each shard leg can consult
    /// its local index instead of walking its whole slice; the full
    /// `predicate` still applies to every returned row, so a backend may
    /// ignore `probe` without affecting results.
    ///
    /// Replica-aware routing contract: `shards` names *logical* shards, not
    /// machines. A backend with replicated placement may serve a fragment
    /// from whichever replica currently acts as the shard's primary (e.g. a
    /// follower promoted after a crash), provided the rows come from a
    /// snapshot consistent with the fragment's transaction. Planners above
    /// this seam must not assume a shard id pins a physical node.
    fn scan_shards(
        &mut self,
        table: &str,
        predicate: Option<&SExpr>,
        shards: &[u64],
        probe: Option<&crate::plan::ExchangeProbe>,
        emit: &mut dyn FnMut(&Row) -> Result<()>,
    ) -> Result<u64> {
        let _ = (shards, probe);
        self.scan(table, predicate, emit)
    }

    /// Drain the per-shard breakdown of the most recent [`Self::scan_shards`]
    /// call, for the query profiler. Distributed backends fill one
    /// [`ShardLeg`] per fragment; backends without placement (or with
    /// profiling off) return an empty vector.
    fn take_exchange_profile(&mut self) -> Vec<ShardLeg> {
        Vec::new()
    }
}

/// The embedded single-node backend: the catalog's heap judged by one
/// statement snapshot taken at construction. Its inherent DML methods run
/// the embedded engine's autocommit protocol (begin local → write →
/// undo-on-error → commit).
pub struct LocalBackend<'a> {
    catalog: &'a mut Catalog,
    mgr: &'a mut LocalTxnManager,
    snap: Snapshot,
    /// Statement-start `sys.*` view state; scans of sys names serve these
    /// frozen rows instead of touching the catalog.
    sys: Option<&'a SysSnapshot>,
}

impl<'a> LocalBackend<'a> {
    /// Capture the statement snapshot now; reads through this backend do not
    /// see transactions that commit later.
    pub fn new(catalog: &'a mut Catalog, mgr: &'a mut LocalTxnManager) -> Self {
        let snap = mgr.local_snapshot();
        Self {
            catalog,
            mgr,
            snap,
            sys: None,
        }
    }

    /// Serve `sys.*` scans from `snapshot` (frozen at statement start).
    pub fn with_sys(mut self, snapshot: Option<&'a SysSnapshot>) -> Self {
        self.sys = snapshot;
        self
    }

    /// Insert pre-materialized rows as one autocommitted transaction.
    /// Returns the number of rows inserted.
    pub fn insert(&mut self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let xid = self.mgr.begin_local();
        let t = self.catalog.get_mut(table)?;
        let mut inserted = Vec::new();
        for row in rows {
            match t.insert(xid, row) {
                Ok(tid) => inserted.push(tid),
                Err(e) => {
                    for tid in inserted {
                        t.undo_insert(xid, tid)?;
                    }
                    self.mgr.abort(xid)?;
                    return Err(e);
                }
            }
        }
        self.mgr.commit(xid)?;
        Ok(inserted.len() as u64)
    }

    /// Update rows matching `predicate`, assigning each `(column, expr)` in
    /// `sets` (every expr evaluated over the old row, with `params` bound).
    /// Returns rows updated.
    pub fn update(
        &mut self,
        table: &str,
        sets: &[(usize, SExpr)],
        predicate: Option<&SExpr>,
        params: &[Datum],
    ) -> Result<u64> {
        self.rewrite(
            table,
            predicate,
            |old| crate::dml::updated_row(sets, old, params),
            |t, xid, tid, new| t.update(xid, tid, new).map(drop),
        )
    }

    /// Delete rows matching `predicate`. Returns rows deleted.
    pub fn delete(&mut self, table: &str, predicate: Option<&SExpr>) -> Result<u64> {
        self.rewrite(
            table,
            predicate,
            |_| Ok(()),
            |t, xid, tid, ()| t.delete(xid, tid),
        )
    }

    /// UPDATE's and DELETE's autocommit protocol: collect every row
    /// `predicate` matches under the transaction's snapshot with what
    /// `target` makes of it, then `write` each. An error anywhere (a
    /// predicate's, a SET expression's, a write-write conflict) aborts the
    /// lot.
    fn rewrite<T>(
        &mut self,
        table: &str,
        predicate: Option<&SExpr>,
        target: impl Fn(&Row) -> Result<T>,
        write: impl Fn(&mut Table, Xid, TupleId, T) -> Result<()>,
    ) -> Result<u64> {
        let xid = self.mgr.begin_local();
        let snap = self.mgr.local_snapshot();
        let written = (|| {
            let targets = {
                let judge = SnapshotVisibility::new(&snap, self.mgr.clog(), Some(xid));
                let mut v = Vec::new();
                for (tid, row) in self.catalog.get(table)?.scan(&judge) {
                    let hit = match predicate {
                        None => true,
                        Some(p) => p.eval_filter(row.values())?,
                    };
                    if hit {
                        v.push((tid, target(row)?));
                    }
                }
                v
            };
            let t = self.catalog.get_mut(table)?;
            let n = targets.len() as u64;
            for (tid, x) in targets {
                write(t, xid, tid, x)?;
            }
            Ok(n)
        })();
        match written {
            Ok(_) => self.mgr.commit(xid)?,
            Err(_) => self.mgr.abort(xid)?,
        }
        written
    }
}

/// Lift a datum bound to a one-column index-key bound.
pub fn bound_key(b: &std::ops::Bound<Datum>) -> std::ops::Bound<Vec<Datum>> {
    use std::ops::Bound;
    match b {
        Bound::Included(d) => Bound::Included(vec![d.clone()]),
        Bound::Excluded(d) => Bound::Excluded(vec![d.clone()]),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Borrow an owned key bound (`BTreeMap::range` wants `Bound<&K>`).
pub fn bound_ref(b: &std::ops::Bound<Vec<Datum>>) -> std::ops::Bound<&Vec<Datum>> {
    use std::ops::Bound;
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Hand each of `rows` that passes `predicate` to `emit`; returns how many
/// it emitted.
fn emit_matching<'r>(
    rows: impl IntoIterator<Item = &'r Row>,
    predicate: Option<&SExpr>,
    emit: &mut dyn FnMut(&Row) -> Result<()>,
) -> Result<u64> {
    let mut n = 0;
    for row in rows {
        let keep = match predicate {
            None => true,
            Some(p) => p.eval_filter(row.values())?,
        };
        if keep {
            emit(row)?;
            n += 1;
        }
    }
    Ok(n)
}

/// Clone each of `rows` that passes `predicate`.
fn collect_matching<'r>(
    rows: impl IntoIterator<Item = &'r Row>,
    predicate: Option<&SExpr>,
) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    emit_matching(rows, predicate, &mut |r| {
        out.push(r.clone());
        Ok(())
    })?;
    Ok(out)
}

/// Visit a sys view's frozen rows that pass the scan predicate — shared by
/// both backends so the two engines agree on sys-view semantics.
pub fn scan_sys_rows(
    snapshot: &SysSnapshot,
    table: &str,
    predicate: Option<&SExpr>,
    emit: &mut dyn FnMut(&Row) -> Result<()>,
) -> Result<u64> {
    emit_matching(snapshot.rows(table), predicate, emit)
}

impl ExecBackend for LocalBackend<'_> {
    fn scan(
        &mut self,
        table: &str,
        predicate: Option<&SExpr>,
        emit: &mut dyn FnMut(&Row) -> Result<()>,
    ) -> Result<u64> {
        if let Some(snapshot) = self.sys {
            if sys::is_sys_view(table) {
                return scan_sys_rows(snapshot, table, predicate, emit);
            }
        }
        let judge = MemoVisibility::new(SnapshotVisibility::new(&self.snap, self.mgr.clog(), None));
        let t = self.catalog.get(table)?;
        emit_matching(t.scan(&judge).map(|(_tid, row)| row), predicate, emit)
    }

    fn point_get(
        &mut self,
        table: &str,
        index_id: usize,
        key_values: &[Datum],
        residual: Option<&SExpr>,
    ) -> Result<Vec<Row>> {
        // NULL never satisfies `=`: a NULL key matches no row, not the rows
        // whose key column is NULL.
        if key_values.iter().any(Datum::is_null) {
            return Ok(Vec::new());
        }
        let judge = SnapshotVisibility::new(&self.snap, self.mgr.clog(), None);
        let t = self.catalog.get(table)?;
        let hits = t.probe(index_id, key_values, &judge)?;
        collect_matching(hits.into_iter().map(|(_tid, row)| row), residual)
    }

    fn index_range(
        &mut self,
        table: &str,
        index_id: usize,
        lo: &std::ops::Bound<Datum>,
        hi: &std::ops::Bound<Datum>,
        residual: Option<&SExpr>,
    ) -> Result<Vec<Row>> {
        let judge = SnapshotVisibility::new(&self.snap, self.mgr.clog(), None);
        let t = self.catalog.get(table)?;
        let lo_key = bound_key(lo);
        let hi_key = bound_key(hi);
        let mut hits = t.range_probe(index_id, bound_ref(&lo_key), bound_ref(&hi_key), &judge)?;
        // Index order → heap order, matching the sequential plan's output.
        hits.sort_unstable_by_key(|&(tid, _)| tid);
        collect_matching(hits.into_iter().map(|(_tid, row)| row), residual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::{row, DataType, Schema};

    fn setup() -> (Catalog, LocalTxnManager) {
        let mut catalog = Catalog::new();
        catalog
            .create_table(
                "t",
                Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)]),
            )
            .unwrap();
        (catalog, LocalTxnManager::new())
    }

    fn scan_all(be: &mut LocalBackend<'_>) -> Vec<Row> {
        let mut rows = Vec::new();
        let n = be
            .scan("t", None, &mut |r| {
                rows.push(r.clone());
                Ok(())
            })
            .unwrap();
        assert_eq!(n, rows.len() as u64, "scan returns the emitted count");
        rows
    }

    #[test]
    fn insert_then_scan_roundtrip() {
        let (mut catalog, mut mgr) = setup();
        {
            let mut be = LocalBackend::new(&mut catalog, &mut mgr);
            assert_eq!(be.insert("t", vec![row![1, 10], row![2, 20]]).unwrap(), 2);
        }
        let mut be = LocalBackend::new(&mut catalog, &mut mgr);
        assert_eq!(scan_all(&mut be).len(), 2);
    }

    #[test]
    fn emit_error_aborts_the_scan() {
        let (mut catalog, mut mgr) = setup();
        let mut be = LocalBackend::new(&mut catalog, &mut mgr);
        be.insert("t", vec![row![1, 10], row![2, 20], row![3, 30]])
            .unwrap();
        let mut be = LocalBackend::new(&mut catalog, &mut mgr);
        let mut seen = Vec::new();
        let err = be
            .scan("t", None, &mut |r| {
                seen.push(r.clone());
                match seen.len() {
                    2 => Err(hdm_common::HdmError::Execution("stop".into())),
                    _ => Ok(()),
                }
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            hdm_common::HdmError::Execution("stop".into()).to_string()
        );
        // Heap order, and nothing after the failing row.
        assert_eq!(seen, vec![row![1, 10], row![2, 20]]);
    }

    #[test]
    fn snapshot_is_fixed_at_construction() {
        let (mut catalog, mut mgr) = setup();
        {
            let mut be = LocalBackend::new(&mut catalog, &mut mgr);
            be.insert("t", vec![row![1, 10]]).unwrap();
        }
        // A backend created before a later insert must not see it.
        let early_snap = {
            let be = LocalBackend::new(&mut catalog, &mut mgr);
            be.snap.clone()
        };
        {
            let mut be = LocalBackend::new(&mut catalog, &mut mgr);
            be.insert("t", vec![row![2, 20]]).unwrap();
        }
        let mut be = LocalBackend::new(&mut catalog, &mut mgr);
        be.snap = early_snap;
        assert_eq!(scan_all(&mut be).len(), 1);
    }

    #[test]
    fn update_and_delete_autocommit() {
        let (mut catalog, mut mgr) = setup();
        let mut be = LocalBackend::new(&mut catalog, &mut mgr);
        be.insert("t", vec![row![1, 10], row![2, 20]]).unwrap();
        let sets = vec![(1usize, SExpr::Lit(Datum::Int(99)))];
        let pred = SExpr::Binary(
            crate::ast::BinOp::Eq,
            Box::new(SExpr::Col(0)),
            Box::new(SExpr::Lit(Datum::Int(1))),
        );
        assert_eq!(be.update("t", &sets, Some(&pred), &[]).unwrap(), 1);
        assert_eq!(be.delete("t", Some(&pred)).unwrap(), 1);
        let mut be = LocalBackend::new(&mut catalog, &mut mgr);
        assert_eq!(scan_all(&mut be), vec![row![2, 20]]);
    }
}
