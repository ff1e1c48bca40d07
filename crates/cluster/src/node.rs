//! A data node: one shard's storage plus its local transaction machinery.
//!
//! The node stores a transactional key→value table (the OLTP surface Fig 3
//! exercises), tracks per-transaction undo information for aborts, and keeps
//! the "pending commit" set that UPGRADE waits resolve against: a multi-shard
//! transaction that is decided-commit at the GTM but whose confirmation has
//! not yet been applied here can be *finished* on demand by a reader.

use crate::replica::ReplOp;

/// Redo drained from a finished transaction for the shard's replication
/// log: the logical ops plus the statement idempotence tag
/// `(stmt_id, rowcount)`, if the statement asked for one.
pub type DrainedRedo = (Vec<ReplOp>, Option<(u64, u64)>);
use hdm_common::{row, Datum, HdmError, Result, Row, Schema, ShardId, Xid};
use hdm_storage::heap::TupleId;
use hdm_storage::mvcc::Visibility;
use hdm_storage::{Table, TableStats};
use hdm_txn::{LocalTxnManager, Snapshot, SnapshotVisibility};
use std::collections::{BTreeMap, HashMap};

/// One undoable write.
#[derive(Debug, Clone)]
enum UndoOp {
    /// We inserted this version; abort neutralizes it.
    Insert(TupleId),
    /// We stamped this version dead; abort clears the stamp.
    Delete(TupleId),
    /// Insert into a named SQL table shard.
    SqlInsert(String, TupleId),
    /// Delete stamp on a named SQL table shard.
    SqlDelete(String, TupleId),
}

/// A data node holding one shard.
#[derive(Debug)]
pub struct DataNode {
    id: ShardId,
    mgr: LocalTxnManager,
    table: Table,
    /// Shard-local slices of distributed SQL tables, keyed by canonical
    /// (lowercased) table name. Created by the CN's `CREATE TABLE` fan-out;
    /// each holds only the rows routed to this shard.
    sql: BTreeMap<String, Table>,
    /// Undo log per writing XID (local XID under GTM-lite, global XID under
    /// the baseline protocol — the node is agnostic).
    undo: HashMap<u64, Vec<UndoOp>>,
    /// Local XIDs prepared here whose global decision is commit, awaiting
    /// the confirmation message. Readers' UPGRADE may finish them early.
    pending_commit: HashMap<u64, ()>,
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
        let mut table = Table::new(
            format!("kv@{id}"),
            hdm_common::Schema::from_pairs(&[
                ("k", hdm_common::DataType::Int),
                ("v", hdm_common::DataType::Int),
            ]),
        );
        table.create_index(vec![0]).expect("static index def");
        Self {
            id,
            mgr: LocalTxnManager::new(),
            table,
            sql: BTreeMap::new(),
            undo: HashMap::new(),
            pending_commit: HashMap::new(),
            redo: HashMap::new(),
            record_redo: false,
            stmt_tags: HashMap::new(),
            applied_stmts: HashMap::new(),
        }
    }

    /// Turn logical redo recording on (the shard has followers to ship to).
    /// Off by default so replication-free clusters pay nothing on the write
    /// path.
    pub fn set_record_redo(&mut self, on: bool) {
        self.record_redo = on;
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

    pub fn stats(&self) -> Option<&TableStats> {
        self.table.stats()
    }

    /// The built-in kv table (exposed read-only for distributed scans).
    pub fn kv_table(&self) -> &Table {
        &self.table
    }

    /// Create this shard's slice of a distributed SQL table. Idempotent on
    /// name collisions only if the existing slice is empty of versions.
    pub fn create_sql_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        if self.sql.contains_key(name) {
            return Err(HdmError::Catalog(format!(
                "table {name} already exists on {}",
                self.id
            )));
        }
        let mut table = Table::new(format!("{name}@{}", self.id), schema);
        // Every distributed table is hash-distributed on its first column,
        // so index it: point queries pinned to the shard key probe instead
        // of scanning. Replicas replay the same DDL through this method and
        // build the identical index, so failover keeps the probe path.
        table.create_index(vec![0]).expect("static index def");
        self.sql.insert(name.to_string(), table);
        Ok(())
    }

    /// Create a secondary index on this shard's slice of SQL table `name`.
    /// Idempotent: replica replay may re-apply the DDL after a rejoin, and
    /// the shard-key index created by [`Self::create_sql_table`] may already
    /// cover the same columns.
    pub fn create_sql_index(&mut self, name: &str, columns: Vec<usize>) -> Result<usize> {
        let t = self
            .sql
            .get_mut(name)
            .ok_or_else(|| HdmError::Catalog(format!("no table {name} on {}", self.id)))?;
        if let Some(ix) = t
            .indexes()
            .iter()
            .position(|ix| ix.key_columns() == columns.as_slice())
        {
            return Ok(ix);
        }
        t.create_index(columns)
    }

    /// This shard's slice of SQL table `name`.
    pub fn sql_table(&self, name: &str) -> Result<&Table> {
        self.sql
            .get(name)
            .ok_or_else(|| HdmError::Catalog(format!("no table {name} on {}", self.id)))
    }

    /// Statistics for this shard's slice of SQL table `name` (last ANALYZE).
    pub fn sql_stats(&self, name: &str) -> Option<&TableStats> {
        self.sql.get(name).and_then(Table::stats)
    }

    /// Insert `row` into SQL table `name` as `xid`, with undo recorded.
    pub fn sql_insert(&mut self, name: &str, xid: Xid, row: Row) -> Result<TupleId> {
        let t = self
            .sql
            .get_mut(name)
            .ok_or_else(|| HdmError::Catalog(format!("no table {name} on {}", self.id)))?;
        let redo_row = self.record_redo.then(|| row.clone());
        let tid = t.insert(xid, row)?;
        self.undo
            .entry(xid.raw())
            .or_default()
            .push(UndoOp::SqlInsert(name.to_string(), tid));
        if let Some(row) = redo_row {
            self.push_redo(
                xid,
                ReplOp::SqlInsert {
                    table: name.to_string(),
                    row,
                },
            );
        }
        Ok(tid)
    }

    /// Update tuple `tid` of SQL table `name` as `xid`, with undo recorded.
    pub fn sql_update(&mut self, name: &str, xid: Xid, tid: TupleId, row: Row) -> Result<TupleId> {
        let t = self
            .sql
            .get_mut(name)
            .ok_or_else(|| HdmError::Catalog(format!("no table {name} on {}", self.id)))?;
        let old_row = if self.record_redo {
            Some(t.heap().row(tid)?.clone())
        } else {
            None
        };
        let new_tid = t.update(xid, tid, row.clone())?;
        let u = self.undo.entry(xid.raw()).or_default();
        u.push(UndoOp::SqlDelete(name.to_string(), tid));
        u.push(UndoOp::SqlInsert(name.to_string(), new_tid));
        if let Some(old) = old_row {
            self.push_redo(
                xid,
                ReplOp::SqlUpdate {
                    table: name.to_string(),
                    old,
                    new: row,
                },
            );
        }
        Ok(new_tid)
    }

    /// Delete tuple `tid` of SQL table `name` as `xid`, with undo recorded.
    pub fn sql_delete(&mut self, name: &str, xid: Xid, tid: TupleId) -> Result<()> {
        let t = self
            .sql
            .get_mut(name)
            .ok_or_else(|| HdmError::Catalog(format!("no table {name} on {}", self.id)))?;
        let row = if self.record_redo {
            Some(t.heap().row(tid)?.clone())
        } else {
            None
        };
        t.delete(xid, tid)?;
        self.undo
            .entry(xid.raw())
            .or_default()
            .push(UndoOp::SqlDelete(name.to_string(), tid));
        if let Some(row) = row {
            self.push_redo(
                xid,
                ReplOp::SqlDelete {
                    table: name.to_string(),
                    row,
                },
            );
        }
        Ok(())
    }

    /// The lowest-tid tuple of `name` visible under `snap` (plus `own`-xid
    /// visibility) whose row equals `row` — the follower's lookup for a
    /// replicated UPDATE or DELETE. Every distributed table is hashed on
    /// column 0 and indexed there by [`Self::create_sql_table`], so this is a
    /// shard-key probe filtered by row equality. Posting lists are not kept
    /// in tid order, so the lowest tid is taken explicitly: the tuple a
    /// heap-order scan would find first, which keeps replay deterministic.
    pub fn sql_find_row(
        &self,
        name: &str,
        snap: &Snapshot,
        own: Option<Xid>,
        row: &Row,
    ) -> Result<Option<TupleId>> {
        let judge = SnapshotVisibility::new(snap, self.mgr.clog(), own);
        let t = self.sql_table(name)?;
        let no_key = || HdmError::Catalog(format!("no shard-key index on {name} at {}", self.id));
        let ix = t
            .indexes()
            .iter()
            .position(|ix| ix.key_columns() == [0])
            .ok_or_else(no_key)?;
        let key = row.values().get(..1).ok_or_else(no_key)?.to_vec();
        Ok(t.probe(ix, &key, &judge)?
            .into_iter()
            .filter(|(_, r)| *r == row)
            .map(|(tid, _)| tid)
            .min())
    }

    /// ANALYZE every table on this node (kv + SQL slices) under the node's
    /// current local snapshot — the per-DN half of a distributed ANALYZE.
    pub fn analyze_all(&mut self) {
        let snap = self.mgr.local_snapshot();
        let judge = SnapshotVisibility::new(&snap, self.mgr.clog(), None);
        self.table.analyze(&judge);
        for t in self.sql.values_mut() {
            t.analyze(&judge);
        }
    }

    /// Read `key` under the caller's visibility judge.
    pub fn get<V: Visibility + ?Sized>(&self, judge: &V, key: i64) -> Result<Option<i64>> {
        let hits = self.table.probe(0, &vec![Datum::Int(key)], judge)?;
        match hits.len() {
            0 => Ok(None),
            1 => Ok(hits[0].1.get(1).and_then(Datum::as_int)),
            n => Err(HdmError::Execution(format!(
                "key {key} resolves to {n} visible versions on {}",
                self.id
            ))),
        }
    }

    /// Upsert `key = val` as transaction `xid`. The visible old version (if
    /// any) is judged with `judge`; a write-write conflict aborts.
    pub fn put<V: Visibility + ?Sized>(
        &mut self,
        judge: &V,
        xid: Xid,
        key: i64,
        val: i64,
    ) -> Result<()> {
        let old = {
            let hits = self.table.probe(0, &vec![Datum::Int(key)], judge)?;
            hits.first().map(|(tid, _)| *tid)
        };
        self.apply_put(xid, old, key, val)
    }

    /// Delete `key` as transaction `xid`. Returns whether a version existed.
    pub fn del<V: Visibility + ?Sized>(
        &mut self,
        judge: &V,
        xid: Xid,
        key: i64,
    ) -> Result<bool> {
        let old = {
            let hits = self.table.probe(0, &vec![Datum::Int(key)], judge)?;
            hits.first().map(|(tid, _)| *tid)
        };
        match old {
            None => Ok(false),
            Some(tid) => {
                self.table.delete(xid, tid)?;
                self.undo.entry(xid.raw()).or_default().push(UndoOp::Delete(tid));
                self.push_redo(xid, ReplOp::Del { key });
                Ok(true)
            }
        }
    }

    /// [`Self::get`] judged by this node's *own* snapshot machinery
    /// (GTM-lite path): `snap` is a local or merged snapshot in this node's
    /// XID namespace, checked against this node's commit log.
    pub fn get_local(&self, snap: &Snapshot, own: Option<Xid>, key: i64) -> Result<Option<i64>> {
        let judge = SnapshotVisibility::new(snap, self.mgr.clog(), own);
        let hits = self.table.probe(0, &vec![Datum::Int(key)], &judge)?;
        match hits.len() {
            0 => Ok(None),
            1 => Ok(hits[0].1.get(1).and_then(Datum::as_int)),
            n => Err(HdmError::Execution(format!(
                "key {key} resolves to {n} visible versions on {}",
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
        let judge = SnapshotVisibility::new(snap, self.mgr.clog(), own);
        let hits = self.table.probe(0, &vec![Datum::Int(key)], &judge)?;
        Ok(hits
            .iter()
            .filter_map(|(_, r)| r.get(1).and_then(Datum::as_int))
            .collect())
    }

    /// [`Self::put`] judged by this node's own snapshot machinery.
    pub fn put_local(
        &mut self,
        snap: &Snapshot,
        own: Option<Xid>,
        xid: Xid,
        key: i64,
        val: i64,
    ) -> Result<()> {
        let old = {
            let judge = SnapshotVisibility::new(snap, self.mgr.clog(), own);
            self.table
                .probe(0, &vec![Datum::Int(key)], &judge)?
                .first()
                .map(|(tid, _)| *tid)
        };
        self.apply_put(xid, old, key, val)
    }

    /// [`Self::del`] judged by this node's own snapshot machinery.
    pub fn del_local(
        &mut self,
        snap: &Snapshot,
        own: Option<Xid>,
        xid: Xid,
        key: i64,
    ) -> Result<bool> {
        let old = {
            let judge = SnapshotVisibility::new(snap, self.mgr.clog(), own);
            self.table
                .probe(0, &vec![Datum::Int(key)], &judge)?
                .first()
                .map(|(tid, _)| *tid)
        };
        match old {
            None => Ok(false),
            Some(tid) => {
                self.table.delete(xid, tid)?;
                self.undo.entry(xid.raw()).or_default().push(UndoOp::Delete(tid));
                self.push_redo(xid, ReplOp::Del { key });
                Ok(true)
            }
        }
    }

    fn apply_put(&mut self, xid: Xid, old: Option<TupleId>, key: i64, val: i64) -> Result<()> {
        match old {
            Some(tid) => {
                let new_tid = self.table.update(xid, tid, row![key, val])?;
                let u = self.undo.entry(xid.raw()).or_default();
                u.push(UndoOp::Delete(tid));
                u.push(UndoOp::Insert(new_tid));
            }
            None => {
                let tid = self.table.insert(xid, row![key, val])?;
                self.undo.entry(xid.raw()).or_default().push(UndoOp::Insert(tid));
            }
        }
        self.push_redo(xid, ReplOp::Put { key, val });
        Ok(())
    }

    /// Roll back every write `xid` made here.
    pub fn rollback_writes(&mut self, xid: Xid) -> Result<()> {
        self.redo.remove(&xid.raw());
        self.stmt_tags.remove(&xid.raw());
        if let Some(ops) = self.undo.remove(&xid.raw()) {
            for op in ops.into_iter().rev() {
                match op {
                    UndoOp::Insert(tid) => self.table.undo_insert(xid, tid)?,
                    UndoOp::Delete(tid) => self.table.undo_delete(xid, tid)?,
                    UndoOp::SqlInsert(name, tid) => {
                        if let Some(t) = self.sql.get_mut(&name) {
                            t.undo_insert(xid, tid)?;
                        }
                    }
                    UndoOp::SqlDelete(name, tid) => {
                        if let Some(t) = self.sql.get_mut(&name) {
                            t.undo_delete(xid, tid)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Forget undo info after a successful commit.
    pub fn clear_undo(&mut self, xid: Xid) {
        self.undo.remove(&xid.raw());
    }

    /// Commit a single-shard transaction here: clog commit, undo released,
    /// logical redo drained for the shard's replication log, and the
    /// statement tag (if any) published to the dedup table. Returns the
    /// drained `(ops, stmt_tag)` for the `Commit` log record.
    pub fn commit_local(&mut self, xid: Xid) -> Result<DrainedRedo> {
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
    /// statement tag stays here until the decision resolves it.
    pub fn prepare_leg(&mut self, xid: Xid) -> Result<DrainedRedo> {
        self.mgr.prepare(xid)?;
        let ops = self.redo.remove(&xid.raw()).unwrap_or_default();
        let stmt = self.stmt_tags.get(&xid.raw()).copied();
        Ok((ops, stmt))
    }

    /// Record that `local_xid` (prepared here) is decided-commit globally but
    /// unconfirmed locally — the Anomaly-1 window for this node.
    pub fn mark_pending_commit(&mut self, local_xid: Xid) {
        self.pending_commit.insert(local_xid.raw(), ());
    }

    /// Apply the commit confirmation for `local_xid`. Idempotent: a reader's
    /// UPGRADE wait and the writer's own confirmation may race benignly.
    /// Returns whether this call performed the transition (so the caller
    /// appends exactly one `Resolve` record to the replication log).
    pub fn finish_commit(&mut self, local_xid: Xid) -> Result<bool> {
        if self.pending_commit.remove(&local_xid.raw()).is_some() {
            self.mgr.commit(local_xid)?;
            self.clear_undo(local_xid);
            self.publish_stmt(local_xid);
            return Ok(true);
        }
        Ok(false)
    }

    /// Is this local XID in the decided-but-unconfirmed window?
    pub fn is_pending_commit(&self, local_xid: Xid) -> bool {
        self.pending_commit.contains_key(&local_xid.raw())
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
        self.redo.retain(|&xid, _| mgr.status(Xid(xid)) == hdm_txn::TxnStatus::Prepared);
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

    /// ANALYZE the node's table under `judge`.
    pub fn analyze<V: Visibility + ?Sized>(&mut self, judge: &V) {
        self.table.analyze(judge);
    }

    /// Count of all tuple versions (storage growth metric).
    pub fn version_count(&self) -> usize {
        self.table.heap().version_count()
    }

    /// All `(key, value)` pairs visible to `judge` — the HTAP replica-sync
    /// read path (a consistent snapshot scan of the shard).
    pub fn snapshot_rows<V: Visibility + ?Sized>(&self, judge: &V) -> Vec<(i64, i64)> {
        let mut out: Vec<(i64, i64)> = self
            .table
            .scan(judge)
            .filter_map(|(_, r)| {
                Some((
                    r.get(0)?.as_int()?,
                    r.get(1)?.as_int()?,
                ))
            })
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

    /// Helper: run a committed single-statement write.
    fn committed_put(n: &mut DataNode, key: i64, val: i64) {
        let x = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        n.put_local(&snap, Some(x), x, key, val).unwrap();
        n.mgr_mut().commit(x).unwrap();
    }

    fn read_latest(n: &DataNode, key: i64) -> Option<i64> {
        let snap = n.local_snapshot();
        n.get_local(&snap, None, key).unwrap()
    }

    #[test]
    fn put_get_within_own_transaction() {
        let mut n = node();
        let x = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        n.put_local(&snap, Some(x), x, 1, 100).unwrap();
        assert_eq!(n.get_local(&snap, Some(x), 1).unwrap(), Some(100));
        // Another reader with the same snapshot sees nothing yet.
        assert_eq!(n.get_local(&snap, None, 1).unwrap(), None);
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
        n.put_local(&snap, Some(b), b, 9, 2).unwrap();
        n.rollback_writes(b).unwrap();
        n.mgr_mut().abort(b).unwrap();
        assert_eq!(read_latest(&n, 9), Some(1));
    }

    #[test]
    fn rollback_of_fresh_insert_removes_it() {
        let mut n = node();
        let b = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        n.put_local(&snap, Some(b), b, 3, 30).unwrap();
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
        n.put_local(&snap, Some(b), b, 7, 2).unwrap();
        let err = n.put_local(&snap, Some(c), c, 7, 3).unwrap_err();
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
    fn crash_rolls_back_in_progress_and_keeps_in_doubt() {
        let mut n = node();
        committed_put(&mut n, 1, 10);
        // An in-progress writer and a prepared multi-shard leg.
        let plain = n.mgr_mut().begin_local();
        let snap = n.local_snapshot();
        n.put_local(&snap, Some(plain), plain, 1, 99).unwrap();
        let leg = n.mgr_mut().begin_global(Xid(800));
        let snap = n.local_snapshot();
        n.put_local(&snap, Some(leg), leg, 2, 20).unwrap();
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
        n.put_local(&snap, Some(leg), leg, 5, 50).unwrap();
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
        n.put_local(&snap, Some(leg), leg, 6, 999).unwrap();
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
        assert!(n.del_local(&snap, Some(b), b, 4).unwrap());
        assert!(!n.del_local(&snap, Some(b), b, 4).unwrap(), "already dead to b");
        n.mgr_mut().commit(b).unwrap();
        assert_eq!(read_latest(&n, 4), None);
    }

    #[test]
    fn snapshot_isolation_across_statements() {
        let mut n = node();
        committed_put(&mut n, 8, 1);
        // Reader takes its snapshot, then a writer commits.
        let early = n.local_snapshot();
        committed_put(&mut n, 8, 2);
        assert_eq!(n.get_local(&early, None, 8).unwrap(), Some(1));
        assert_eq!(read_latest(&n, 8), Some(2));
    }
}
