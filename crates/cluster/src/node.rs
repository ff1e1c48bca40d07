//! A data node: one shard's storage plus its local transaction machinery.
//!
//! The node stores its tables in one vector addressed by [`TableId`]: slot 0
//! is the built-in kv table (the OLTP surface Fig 3 exercises), created by
//! [`DataNode::new`] through the same path as the shard slices of
//! distributed SQL tables that follow it. Every write goes through one
//! private insert/update/delete-by-tid path that records undo as
//! `(TableId, TupleId)` pairs, so aborts roll back every table alike. The
//! node also keeps the "pending commit" set that UPGRADE waits resolve
//! against: a multi-shard transaction that is decided-commit at the GTM but
//! whose confirmation has not yet been applied here can be *finished* on
//! demand by a reader.

use crate::replica::ReplOp;

/// Redo drained from a finished transaction for the shard's replication
/// log: the logical ops plus the statement idempotence tag
/// `(stmt_id, rowcount)`, if the statement asked for one.
pub type DrainedRedo = (Vec<ReplOp>, Option<(u64, u64)>);
use hdm_common::{row, Datum, HdmError, Result, Row, Schema, ShardId, Xid};
use hdm_storage::heap::TupleId;
use hdm_storage::mvcc::Visibility;
use hdm_storage::Table;
use hdm_txn::{LocalTxnManager, Snapshot, SnapshotVisibility};
use std::collections::{HashMap, HashSet};

/// A table's slot on its data node. Ids are assigned in creation order, and
/// the replication log binds each name to its id, so a follower's ids equal
/// its primary's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(pub u32);

impl TableId {
    /// The built-in kv table, created with the node.
    pub const KV: TableId = TableId(0);
}

/// One undoable write.
#[derive(Debug, Clone)]
enum UndoOp {
    /// We inserted this version; abort neutralizes it.
    Insert(TableId, TupleId),
    /// We stamped this version dead; abort clears the stamp.
    Delete(TableId, TupleId),
}

/// A data node holding one shard.
#[derive(Debug)]
pub struct DataNode {
    id: ShardId,
    mgr: LocalTxnManager,
    /// Every table on this shard, indexed by [`TableId`]: the kv table in
    /// slot 0, then this shard's slices of distributed SQL tables, created
    /// by the CN's `CREATE TABLE` fan-out (each holds only the rows routed
    /// to this shard).
    tables: Vec<Table>,
    /// Canonical (lowercased) table name -> slot.
    names: HashMap<String, TableId>,
    /// Undo log per writing XID (local XID under GTM-lite, global XID under
    /// the baseline protocol — the node is agnostic).
    undo: HashMap<u64, Vec<UndoOp>>,
    /// The undo list of the last transaction to finish, emptied: the next
    /// transaction to write here takes it instead of allocating its own.
    spare_undo: Vec<UndoOp>,
    /// Local XIDs prepared here whose global decision is commit, awaiting
    /// the confirmation message. Readers' UPGRADE may finish them early.
    pending_commit: HashSet<u64>,
    /// Logical redo per writing XID, recorded only while `record_redo` is on
    /// (the shard has log-shipped followers). Drained into the replication
    /// log at commit (single-shard) or prepare (2PC leg) time.
    redo: HashMap<u64, Vec<ReplOp>>,
    record_redo: bool,
    /// CN statement tag per writing XID: (statement id, statement rowcount).
    /// Moves into `applied_stmts` when the transaction commits; dropped on
    /// abort. This is the DN half of idempotent statement retry.
    stmt_tags: HashMap<u64, (u64, u64)>,
    /// Statement id -> rowcount for statements that committed here. A
    /// retried write leg that finds its id here is a duplicate and must not
    /// re-apply.
    applied_stmts: HashMap<u64, u64>,
}

impl DataNode {
    pub fn new(id: ShardId) -> Self {
        let mut node = Self {
            id,
            mgr: LocalTxnManager::new(),
            tables: Vec::new(),
            names: HashMap::new(),
            undo: HashMap::new(),
            spare_undo: Vec::new(),
            pending_commit: HashSet::new(),
            redo: HashMap::new(),
            record_redo: false,
            stmt_tags: HashMap::new(),
            applied_stmts: HashMap::new(),
        };
        let kv = Schema::from_pairs(&[
            ("k", hdm_common::DataType::Int),
            ("v", hdm_common::DataType::Int),
        ]);
        node.create_sql_table("kv", kv)
            .expect("a new node has no tables");
        node
    }

    /// Turn logical redo recording on (the shard has followers to ship to).
    /// Off by default so replication-free clusters pay nothing on the write
    /// path. Turning it off drops any undrained redo: nothing would ship it.
    pub fn set_record_redo(&mut self, on: bool) {
        self.record_redo = on;
        if !on {
            self.redo.clear();
        }
    }

    fn push_redo(&mut self, xid: Xid, op: ReplOp) {
        if self.record_redo {
            self.redo.entry(xid.raw()).or_default().push(op);
        }
    }

    /// Tag `xid`'s writes with the CN's idempotence key: statement id plus
    /// the statement's total rowcount (the same total on every leg, so any
    /// surviving leg can answer a duplicate in full).
    pub fn tag_statement(&mut self, xid: Xid, stmt_id: u64, rows: u64) {
        self.stmt_tags.insert(xid.raw(), (stmt_id, rows));
    }

    /// Rowcount of `stmt_id` if a transaction carrying it committed here.
    pub fn stmt_applied(&self, stmt_id: u64) -> Option<u64> {
        self.applied_stmts.get(&stmt_id).copied()
    }

    /// Record a committed statement directly (follower apply path).
    pub fn note_stmt_applied(&mut self, stmt_id: u64, rows: u64) {
        self.applied_stmts.insert(stmt_id, rows);
    }

    /// Publish `xid`'s statement tag into the committed-statement table.
    fn publish_stmt(&mut self, xid: Xid) {
        if let Some((sid, rows)) = self.stmt_tags.remove(&xid.raw()) {
            self.applied_stmts.insert(sid, rows);
        }
    }

    pub fn id(&self) -> ShardId {
        self.id
    }

    pub fn mgr(&self) -> &LocalTxnManager {
        &self.mgr
    }

    pub fn mgr_mut(&mut self) -> &mut LocalTxnManager {
        &mut self.mgr
    }

    /// Create this shard's slice of table `name` in the next slot and
    /// return its id. Every table is hash-distributed on its first column,
    /// so it is indexed there: point queries pinned to the shard key probe
    /// instead of scanning. Replicas replay the DDL through this method and
    /// build the identical index, so failover keeps the probe path.
    pub fn create_sql_table(&mut self, name: &str, schema: Schema) -> Result<TableId> {
        if self.names.contains_key(name) {
            return Err(HdmError::Catalog(format!(
                "table {name} already exists on {}",
                self.id
            )));
        }
        let mut table = Table::new(format!("{name}@{}", self.id), schema);
        table.create_index(vec![0])?;
        let id = TableId(self.tables.len() as u32);
        self.tables.push(table);
        self.names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Create a secondary index on table `t`. Idempotent: replica replay
    /// may re-apply the DDL after a rejoin, and the shard-key index created
    /// by [`Self::create_sql_table`] may already cover the same columns.
    pub fn create_sql_index(&mut self, t: TableId, columns: Vec<usize>) -> Result<usize> {
        let t = self.table_mut(t)?;
        if let Some(ix) = t
            .indexes()
            .iter()
            .position(|ix| ix.key_columns() == columns.as_slice())
        {
            return Ok(ix);
        }
        t.create_index(columns)
    }

    /// The id bound to table `name` here (`kv` is [`TableId::KV`]).
    pub fn table_id(&self, name: &str) -> Result<TableId> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| HdmError::Catalog(format!("no table {name} on {}", self.id)))
    }

    /// Every table here with its name, the kv table included.
    pub(crate) fn named_tables(&self) -> impl Iterator<Item = (&str, &Table)> {
        self.names
            .iter()
            .filter_map(|(name, t)| Some((name.as_str(), self.tables.get(t.0 as usize)?)))
    }

    /// This shard's slice of table `name`, the kv table included.
    pub fn sql_table(&self, name: &str) -> Result<&Table> {
        self.table(self.table_id(name)?)
    }

    fn table(&self, t: TableId) -> Result<&Table> {
        self.tables
            .get(t.0 as usize)
            .ok_or_else(|| HdmError::Catalog(format!("no table {t:?} on {}", self.id)))
    }

    fn table_mut(&mut self, t: TableId) -> Result<&mut Table> {
        self.tables
            .get_mut(t.0 as usize)
            .ok_or_else(|| HdmError::Catalog(format!("no table {t:?} on {}", self.id)))
    }

    /// `xid`'s undo list, started from the spare on its first write here.
    fn undo_list(&mut self, xid: Xid) -> &mut Vec<UndoOp> {
        let spare = &mut self.spare_undo;
        self.undo
            .entry(xid.raw())
            .or_insert_with(|| std::mem::take(spare))
    }

    /// Keep `ops`, a finished transaction's undo list, as the spare.
    fn recycle_undo(&mut self, mut ops: Vec<UndoOp>) {
        ops.clear();
        self.spare_undo = ops;
    }

    /// Insert `row` into table `t` as `xid`, with undo recorded.
    fn insert(&mut self, t: TableId, xid: Xid, row: Row) -> Result<TupleId> {
        let tid = self.table_mut(t)?.insert(xid, row)?;
        self.undo_list(xid).push(UndoOp::Insert(t, tid));
        Ok(tid)
    }

    /// Replace tuple `tid` of table `t` by `row` as `xid`, with undo
    /// recorded.
    fn update(&mut self, t: TableId, xid: Xid, tid: TupleId, row: Row) -> Result<TupleId> {
        let new_tid = self.table_mut(t)?.update(xid, tid, row)?;
        let u = self.undo_list(xid);
        u.push(UndoOp::Delete(t, tid));
        u.push(UndoOp::Insert(t, new_tid));
        Ok(new_tid)
    }

    /// Delete tuple `tid` of table `t` as `xid`, with undo recorded.
    fn delete(&mut self, t: TableId, xid: Xid, tid: TupleId) -> Result<()> {
        self.table_mut(t)?.delete(xid, tid)?;
        self.undo_list(xid).push(UndoOp::Delete(t, tid));
        Ok(())
    }

    /// The row of tuple `tid` in table `t` while redo is recorded: the old
    /// image a replicated update or delete ships.
    fn redo_image(&self, t: TableId, tid: TupleId) -> Result<Option<Row>> {
        if !self.record_redo {
            return Ok(None);
        }
        Ok(Some(self.table(t)?.heap().row(tid)?.clone()))
    }

    /// Insert `row` into SQL table `t` as `xid`.
    pub fn sql_insert(&mut self, t: TableId, xid: Xid, row: Row) -> Result<TupleId> {
        let redo = self.record_redo.then(|| row.clone());
        let tid = self.insert(t, xid, row)?;
        if let Some(row) = redo {
            self.push_redo(xid, ReplOp::SqlInsert { table: t, row });
        }
        Ok(tid)
    }

    /// Update tuple `tid` of SQL table `t` to `row` as `xid`.
    pub fn sql_update(&mut self, t: TableId, xid: Xid, tid: TupleId, row: Row) -> Result<TupleId> {
        let redo = self.redo_image(t, tid)?.map(|old| (old, row.clone()));
        let new_tid = self.update(t, xid, tid, row)?;
        if let Some((old, new)) = redo {
            self.push_redo(xid, ReplOp::SqlUpdate { table: t, old, new });
        }
        Ok(new_tid)
    }

    /// Delete tuple `tid` of SQL table `t` as `xid`.
    pub fn sql_delete(&mut self, t: TableId, xid: Xid, tid: TupleId) -> Result<()> {
        let redo = self.redo_image(t, tid)?;
        self.delete(t, xid, tid)?;
        if let Some(row) = redo {
            self.push_redo(xid, ReplOp::SqlDelete { table: t, row });
        }
        Ok(())
    }

    /// The lowest-tid tuple of table `t` visible under `snap` (plus
    /// `own`-xid visibility) whose row equals `row` — the follower's lookup
    /// for a replicated UPDATE or DELETE. Every distributed table is hashed
    /// on column 0 and indexed there by [`Self::create_sql_table`], so this
    /// is a shard-key probe filtered by row equality. The probe visits hits
    /// in ascending tid order, so the first equal row is the tuple a
    /// heap-order scan would find first, which keeps replay deterministic.
    pub fn sql_find_row(
        &self,
        t: TableId,
        snap: &Snapshot,
        own: Option<Xid>,
        row: &Row,
    ) -> Result<Option<TupleId>> {
        let judge = self.judge(snap, own);
        let table = self.table(t)?;
        let no_key = || {
            HdmError::Catalog(format!(
                "no shard-key index on {} at {}",
                table.name(),
                self.id
            ))
        };
        let ix = table
            .indexes()
            .iter()
            .position(|ix| ix.key_columns() == [0])
            .ok_or_else(no_key)?;
        let key = row.values().get(..1).ok_or_else(no_key)?;
        let mut found = None;
        table.probe_each(ix, key, &judge, |tid, r| {
            if found.is_none() && r == row {
                found = Some(tid);
            }
            Ok(())
        })?;
        Ok(found)
    }

    /// ANALYZE every table on this node under the node's current local
    /// snapshot — the per-DN half of a distributed ANALYZE.
    pub fn analyze_all(&mut self) {
        let snap = self.mgr.local_snapshot();
        let judge = SnapshotVisibility::new(&snap, self.mgr.clog(), None);
        for t in &mut self.tables {
            t.analyze(&judge);
        }
    }

    /// A judge over this node's own snapshot machinery (GTM-lite): `snap`
    /// is a local or merged snapshot in this node's XID namespace, checked
    /// against this node's commit log.
    pub fn judge<'a>(&'a self, snap: &'a Snapshot, own: Option<Xid>) -> SnapshotVisibility<'a> {
        SnapshotVisibility::new(snap, self.mgr.clog(), own)
    }

    /// Hand each version of kv `key` visible to `judge` to `visit`, in
    /// ascending tid order, without allocating.
    fn kv_probe<'a, V: Visibility + ?Sized>(
        &'a self,
        judge: &V,
        key: i64,
        visit: impl FnMut(TupleId, &'a Row) -> Result<()>,
    ) -> Result<()> {
        self.tables[0].probe_each(0, &[Datum::Int(key)], judge, visit)
    }

    /// Read kv `key` under `judge`.
    pub fn get<V: Visibility + ?Sized>(&self, judge: &V, key: i64) -> Result<Option<i64>> {
        let (mut hits, mut first) = (0usize, None);
        self.kv_probe(judge, key, |_, r| {
            hits += 1;
            first.get_or_insert(r);
            Ok(())
        })?;
        match (hits, first) {
            (1, Some(r)) => Ok(r.get(1).and_then(Datum::as_int)),
            (0, _) => Ok(None),
            _ => Err(HdmError::Execution(format!(
                "key {key} resolves to {hits} visible versions on {}",
                self.id
            ))),
        }
    }

    /// All visible values for `key` under this node's own snapshot
    /// machinery. A consistent snapshot yields at most one; an inconsistent
    /// merged view (the paper's Anomaly 2 tuple table) can yield several —
    /// this method exists so that scenario is observable.
    pub fn get_versions_local(
        &self,
        snap: &Snapshot,
        own: Option<Xid>,
        key: i64,
    ) -> Result<Vec<i64>> {
        let mut out = Vec::new();
        self.kv_probe(&self.judge(snap, own), key, |_, r| {
            out.extend(r.get(1).and_then(Datum::as_int));
            Ok(())
        })?;
        Ok(out)
    }

    /// The kv version of `key` a write judged by `judge` replaces: the
    /// first visible one, if any. Pass it to [`Self::put`] or [`Self::del`].
    pub fn kv_find<V: Visibility + ?Sized>(&self, judge: &V, key: i64) -> Result<Option<TupleId>> {
        let mut first = None;
        self.kv_probe(judge, key, |tid, _| {
            first.get_or_insert(tid);
            Ok(())
        })?;
        Ok(first)
    }

    /// Upsert `key = val` as transaction `xid`, replacing version `old`. A
    /// write-write conflict aborts.
    pub fn put(&mut self, xid: Xid, old: Option<TupleId>, key: i64, val: i64) -> Result<()> {
        let row = row![key, val];
        match old {
            Some(tid) => self.update(TableId::KV, xid, tid, row)?,
            None => self.insert(TableId::KV, xid, row)?,
        };
        self.push_redo(xid, ReplOp::Put { key, val });
        Ok(())
    }

    /// Delete version `old` of `key` as transaction `xid`. Returns whether
    /// there was a version to delete.
    pub fn del(&mut self, xid: Xid, old: Option<TupleId>, key: i64) -> Result<bool> {
        let Some(tid) = old else {
            return Ok(false);
        };
        self.delete(TableId::KV, xid, tid)?;
        self.push_redo(xid, ReplOp::Del { key });
        Ok(true)
    }

    /// Roll back every write `xid` made here.
    pub fn rollback_writes(&mut self, xid: Xid) -> Result<()> {
        self.redo.remove(&xid.raw());
        self.stmt_tags.remove(&xid.raw());
        if let Some(ops) = self.undo.remove(&xid.raw()) {
            for op in ops.iter().rev() {
                match *op {
                    UndoOp::Insert(t, tid) => self.table_mut(t)?.undo_insert(xid, tid)?,
                    UndoOp::Delete(t, tid) => self.table_mut(t)?.undo_delete(xid, tid)?,
                }
            }
            self.recycle_undo(ops);
        }
        Ok(())
    }

    /// Forget undo info after a successful commit.
    pub fn clear_undo(&mut self, xid: Xid) {
        if let Some(ops) = self.undo.remove(&xid.raw()) {
            self.recycle_undo(ops);
        }
    }

    /// Did `xid` write here: does it hold undo, redo or a statement tag?
    /// A tagged statement that matched no rows still counts — its dedup tag
    /// must be published and shipped like any write.
    fn wrote(&self, xid: Xid) -> bool {
        let x = xid.raw();
        self.undo.contains_key(&x) || self.redo.contains_key(&x) || self.stmt_tags.contains_key(&x)
    }

    /// Commit a single-shard transaction here: clog commit, undo released,
    /// logical redo drained for the shard's replication log, and the
    /// statement tag (if any) published to the dedup table. Returns the
    /// drained `(ops, stmt_tag)` for the `Commit` log record. A transaction
    /// that did not write here is forgotten instead of committed: it leaves
    /// no clog entry and never enters the LCO, which holds writers only.
    pub fn commit_local(&mut self, xid: Xid) -> Result<DrainedRedo> {
        if !self.wrote(xid) {
            self.mgr.forget(xid)?;
            return Ok((Vec::new(), None));
        }
        self.mgr.commit(xid)?;
        self.clear_undo(xid);
        let ops = self.redo.remove(&xid.raw()).unwrap_or_default();
        let stmt = self.stmt_tags.remove(&xid.raw());
        if let Some((sid, rows)) = stmt {
            self.applied_stmts.insert(sid, rows);
        }
        Ok((ops, stmt))
    }

    /// 2PC phase one on this shard: prepare the leg and drain its redo for
    /// the `Prepare` log record — the leg's ops ship to followers at
    /// prepare time, so a promoted follower holds the leg in doubt. The
    /// statement tag stays here until the decision resolves it. A leg that
    /// did not write here votes read-only: it is forgotten, drops out of
    /// phase two and returns `None`, so no `Prepare` record ships for it.
    pub fn prepare_leg(&mut self, xid: Xid) -> Result<Option<DrainedRedo>> {
        if !self.wrote(xid) {
            self.mgr.forget(xid)?;
            return Ok(None);
        }
        self.mgr.prepare(xid)?;
        let ops = self.redo.remove(&xid.raw()).unwrap_or_default();
        let stmt = self.stmt_tags.get(&xid.raw()).copied();
        Ok(Some((ops, stmt)))
    }

    /// Record that `local_xid` (prepared here) is decided-commit globally but
    /// unconfirmed locally — the Anomaly-1 window for this node.
    pub fn mark_pending_commit(&mut self, local_xid: Xid) {
        self.pending_commit.insert(local_xid.raw());
    }

    /// Apply the commit confirmation for `local_xid`. Idempotent: a reader's
    /// UPGRADE wait and the writer's own confirmation may race benignly.
    /// Returns whether this call performed the transition (so the caller
    /// appends exactly one `Resolve` record to the replication log).
    pub fn finish_commit(&mut self, local_xid: Xid) -> Result<bool> {
        if self.pending_commit.remove(&local_xid.raw()) {
            self.mgr.commit(local_xid)?;
            self.clear_undo(local_xid);
            self.publish_stmt(local_xid);
            return Ok(true);
        }
        Ok(false)
    }

    /// Is this local XID in the decided-but-unconfirmed window?
    pub fn is_pending_commit(&self, local_xid: Xid) -> bool {
        self.pending_commit.contains(&local_xid.raw())
    }

    /// Simulate this node's process dying.
    ///
    /// Durable across the crash: the MVCC heap, the clog (including
    /// `Prepared` records — 2PC logs prepare before voting yes), the xidMap
    /// and the LCO. Lost with the process: every in-progress transaction
    /// (aborted; its writes are undone as crash recovery would) and the
    /// volatile pending-commit markers (the decision messages that set them
    /// were in memory). Prepared transactions become **in-doubt**: their
    /// locks and undo are retained until [`Self::resolve_in_doubt`].
    pub fn crash(&mut self) {
        for xid in self.mgr.crash_volatile() {
            self.rollback_writes(xid)
                .expect("crash rollback of in-progress txn");
        }
        self.pending_commit.clear();
        // Undo entries for transactions the clog already shows terminal are
        // garbage from lost confirmations; drop them. In-doubt (prepared)
        // undo stays — recovery may still need to roll those writes back.
        let mgr = &self.mgr;
        self.undo.retain(|&xid, _| {
            matches!(
                mgr.status(Xid(xid)),
                hdm_txn::TxnStatus::InProgress | hdm_txn::TxnStatus::Prepared
            )
        });
        // Volatile redo dies with the process; prepared legs' redo already
        // shipped in their Prepare log records. Statement tags of prepared
        // legs are durable (they rode the prepare record); the committed-
        // statement dedup table is durable state.
        self.redo
            .retain(|&xid, _| mgr.status(Xid(xid)) == hdm_txn::TxnStatus::Prepared);
        self.stmt_tags
            .retain(|&xid, _| mgr.status(Xid(xid)) == hdm_txn::TxnStatus::Prepared);
    }

    /// The in-doubt transactions after a restart: local XIDs prepared here
    /// whose global decision this node does not know, with their gxids.
    pub fn in_doubt_legs(&self) -> Vec<(Xid, Option<Xid>)> {
        self.mgr
            .prepared_xids()
            .into_iter()
            .map(|x| (x, self.mgr.gxid_of(x)))
            .collect()
    }

    /// Resolve one in-doubt leg with the decision recovered from the
    /// coordinator's commit log: commit applies the leg and releases its
    /// undo; abort rolls its writes back. Either way the leg's locks die.
    pub fn resolve_in_doubt(&mut self, local_xid: Xid, commit: bool) -> Result<()> {
        if !self.mgr.clog().is_prepared(local_xid) {
            return Err(HdmError::TxnState(format!(
                "{local_xid} is not in doubt on {}",
                self.id
            )));
        }
        // Resolution supersedes any still-pending decision marker; clearing
        // it keeps a later finish retransmission a clean no-op.
        self.pending_commit.remove(&local_xid.raw());
        if commit {
            self.mgr.commit(local_xid)?;
            self.clear_undo(local_xid);
            self.publish_stmt(local_xid);
        } else {
            self.rollback_writes(local_xid)?;
            self.mgr.abort(local_xid)?;
        }
        Ok(())
    }

    /// Number of transactions holding undo here (leak detector for tests).
    pub fn undo_len(&self) -> usize {
        self.undo.len()
    }

    /// Number of decided-but-unconfirmed legs (leak detector for tests).
    pub fn pending_commit_len(&self) -> usize {
        self.pending_commit.len()
    }

    /// A local snapshot as of now.
    pub fn local_snapshot(&self) -> Snapshot {
        self.mgr.local_snapshot()
    }

    /// Count of all kv tuple versions (storage growth metric).
    pub fn version_count(&self) -> usize {
        self.tables[0].heap().version_count()
    }

    /// All kv `(key, value)` pairs visible to `judge` — the HTAP
    /// replica-sync read path (a consistent snapshot scan of the shard).
    pub fn snapshot_rows<V: Visibility + ?Sized>(&self, judge: &V) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = self.tables[0]
            .scan(judge)
            .filter_map(|(_, r)| Some((r.get(0)?.as_int()?, r.get(1)?.as_int()?)))
            .collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> DataNode {
        DataNode::new(ShardId::new(0))
    }

    /// Helpers: the kv operations judged by the node's own snapshot
    /// machinery, writing as `x`.
    fn put(n: &mut DataNode, snap: &Snapshot, x: Xid, key: i64, val: i64) -> Result<()> {
        let old = n.kv_find(&n.judge(snap, Some(x)), key)?;
        n.put(x, old, key, val)
    }

    fn del(n: &mut DataNode, snap: &Snapshot, x: Xid, key: i64) -> Result<bool> {
        let old = n.kv_find(&n.judge(snap, Some(x)), key)?;
        n.del(x, old, key)
    }

    fn get(n: &DataNode, snap: &Snapshot, own: Option<Xid>, key: i64) -> Result<Option<i64>> {
        n.get(&n.judge(snap, own), key)
    }

    /// Helper: run a committed single-statement write.
    fn committed_put(n: &mut DataNode, key: i64, val: i64) {
        let x = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        put(n, &snap, x, key, val).unwrap();
        n.mgr_mut().commit(x).unwrap();
    }

    fn read_latest(n: &DataNode, key: i64) -> Option<i64> {
        let snap = n.local_snapshot();
        get(n, &snap, None, key).unwrap()
    }

    #[test]
    fn put_get_within_own_transaction() {
        let mut n = node();
        let x = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        put(&mut n, &snap, x, 1, 100).unwrap();
        assert_eq!(get(&n, &snap, Some(x), 1).unwrap(), Some(100));
        // Another reader with the same snapshot sees nothing yet.
        assert_eq!(get(&n, &snap, None, 1).unwrap(), None);
        n.mgr_mut().commit(x).unwrap();
        assert_eq!(read_latest(&n, 1), Some(100));
    }

    #[test]
    fn update_in_place_and_read_back() {
        let mut n = node();
        committed_put(&mut n, 5, 1);
        committed_put(&mut n, 5, 2);
        assert_eq!(read_latest(&n, 5), Some(2));
        assert_eq!(n.version_count(), 2, "two MVCC versions exist");
    }

    #[test]
    fn rollback_restores_previous_value() {
        let mut n = node();
        committed_put(&mut n, 9, 1);
        let b = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        put(&mut n, &snap, b, 9, 2).unwrap();
        n.rollback_writes(b).unwrap();
        n.mgr_mut().abort(b).unwrap();
        assert_eq!(read_latest(&n, 9), Some(1));
    }

    #[test]
    fn rollback_of_fresh_insert_removes_it() {
        let mut n = node();
        let b = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        put(&mut n, &snap, b, 3, 30).unwrap();
        n.rollback_writes(b).unwrap();
        n.mgr_mut().abort(b).unwrap();
        assert_eq!(read_latest(&n, 3), None);
    }

    #[test]
    fn write_write_conflict_reported() {
        let mut n = node();
        committed_put(&mut n, 7, 1);
        let b = n.mgr_mut().begin_local();
        let c = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        put(&mut n, &snap, b, 7, 2).unwrap();
        let err = put(&mut n, &snap, c, 7, 3).unwrap_err();
        assert_eq!(err.class(), "txn_aborted");
    }

    #[test]
    fn pending_commit_finish_is_idempotent() {
        let mut n = node();
        let x = n.mgr_mut().begin_global(Xid(900));
        n.mgr_mut().prepare(x).unwrap();
        n.mark_pending_commit(x);
        assert!(n.is_pending_commit(x));
        n.finish_commit(x).unwrap();
        assert!(!n.is_pending_commit(x));
        n.finish_commit(x).unwrap(); // second call: no-op
        assert_eq!(n.mgr().lco(), &[x]);
    }

    #[test]
    fn a_reader_is_forgotten_not_committed() {
        let mut n = node();
        committed_put(&mut n, 1, 10);
        let before = (n.mgr().lco().len(), n.mgr().clog().len());
        let r = n.mgr_mut().begin_local();
        assert_eq!(read_latest(&n, 1), Some(10));
        assert!(!n.wrote(r));
        assert_eq!(n.commit_local(r).unwrap(), (Vec::new(), None));
        let leg = n.mgr_mut().begin_global(Xid(901));
        assert_eq!(n.prepare_leg(leg).unwrap(), None, "read-only vote");
        assert_eq!((n.mgr().lco().len(), n.mgr().clog().len()), before);
        assert_eq!(n.mgr().active_count(), 0);
        assert!(n.mgr().xid_map().is_empty());
    }

    #[test]
    fn a_tagged_statement_that_matched_nothing_still_commits() {
        let mut n = node();
        n.set_record_redo(true);
        let x = n.mgr_mut().begin_local();
        n.tag_statement(x, 42, 0);
        assert!(n.wrote(x), "the tag is the write");
        assert_eq!(n.commit_local(x).unwrap(), (Vec::new(), Some((42, 0))));
        assert_eq!(n.stmt_applied(42), Some(0), "dedup tag published");
        assert_eq!(n.mgr().lco(), &[x]);
        let leg = n.mgr_mut().begin_global(Xid(902));
        n.tag_statement(leg, 43, 0);
        assert_eq!(
            n.prepare_leg(leg).unwrap(),
            Some((Vec::new(), Some((43, 0))))
        );
        assert!(n.mgr().clog().is_prepared(leg));
    }

    #[test]
    fn crash_rolls_back_in_progress_and_keeps_in_doubt() {
        let mut n = node();
        committed_put(&mut n, 1, 10);
        // An in-progress writer and a prepared multi-shard leg.
        let plain = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        put(&mut n, &snap, plain, 1, 99).unwrap();
        let leg = n.mgr_mut().begin_global(Xid(800));
        let snap = n.local_snapshot();
        put(&mut n, &snap, leg, 2, 20).unwrap();
        n.mgr_mut().prepare(leg).unwrap();
        n.mark_pending_commit(leg);

        n.crash();

        // The in-progress write is gone; its undo is released.
        assert_eq!(read_latest(&n, 1), Some(10));
        // Volatile pending-commit markers died with the process.
        assert_eq!(n.pending_commit_len(), 0);
        // The prepared leg is in doubt, undo retained, locks held.
        assert_eq!(n.in_doubt_legs(), vec![(leg, Some(Xid(800)))]);
        assert_eq!(n.undo_len(), 1);
    }

    #[test]
    fn in_doubt_resolution_commits_or_aborts() {
        // Commit path.
        let mut n = node();
        let leg = n.mgr_mut().begin_global(Xid(801));
        let snap = n.local_snapshot();
        put(&mut n, &snap, leg, 5, 50).unwrap();
        n.mgr_mut().prepare(leg).unwrap();
        n.crash();
        n.resolve_in_doubt(leg, true).unwrap();
        assert_eq!(read_latest(&n, 5), Some(50));
        assert_eq!(n.undo_len(), 0, "undo released on commit");
        assert!(n.in_doubt_legs().is_empty());

        // Abort path (presumed abort: GTM never recorded the commit).
        let mut n = node();
        committed_put(&mut n, 6, 1);
        let leg = n.mgr_mut().begin_global(Xid(802));
        let snap = n.local_snapshot();
        put(&mut n, &snap, leg, 6, 999).unwrap();
        n.mgr_mut().prepare(leg).unwrap();
        n.crash();
        n.resolve_in_doubt(leg, false).unwrap();
        assert_eq!(read_latest(&n, 6), Some(1), "prepared write rolled back");
        assert_eq!(n.undo_len(), 0, "undo released on abort");
        // Resolution is one-shot.
        assert!(n.resolve_in_doubt(leg, false).is_err());
    }

    #[test]
    fn delete_then_read_none() {
        let mut n = node();
        committed_put(&mut n, 4, 44);
        let b = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        assert!(del(&mut n, &snap, b, 4).unwrap());
        assert!(!del(&mut n, &snap, b, 4).unwrap(), "already dead to b");
        n.mgr_mut().commit(b).unwrap();
        assert_eq!(read_latest(&n, 4), None);
    }

    #[test]
    fn kv_is_slot_zero_behind_the_generic_lookup() {
        let mut n = node();
        let schema = Schema::from_pairs(&[("a", hdm_common::DataType::Int)]);
        let err = n.create_sql_table("kv", schema.clone()).unwrap_err();
        assert_eq!(err.class(), "catalog", "slot 0 owns the name: {err}");
        assert_eq!(n.table_id("kv").unwrap(), TableId::KV);
        assert_eq!(n.create_sql_table("t", schema).unwrap(), TableId(1));

        committed_put(&mut n, 2, 20);
        let kv = n.sql_table("kv").unwrap();
        assert_eq!(kv.name(), "kv@shard:0");
        let ix = kv.indexes().iter().position(|ix| ix.key_columns() == [0]);
        let snap = n.local_snapshot();
        let judge = n.judge(&snap, None);
        let hits = kv.probe(ix.expect("column-0 index"), &[Datum::Int(2)], &judge);
        assert_eq!(hits.unwrap().len(), 1);

        let x = n.mgr_mut().begin_local();
        n.sql_insert(TableId(1), x, row![1]).unwrap();
        n.mgr_mut().commit(x).unwrap();
        assert_eq!(n.version_count(), 1, "kv versions only");
    }

    #[test]
    fn snapshot_isolation_across_statements() {
        let mut n = node();
        committed_put(&mut n, 8, 1);
        // Reader takes its snapshot, then a writer commits.
        let early = n.local_snapshot();
        committed_put(&mut n, 8, 2);
        assert_eq!(get(&n, &early, None, 8).unwrap(), Some(1));
        assert_eq!(read_latest(&n, 8), Some(2));
    }
}
