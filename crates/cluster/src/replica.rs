//! Per-shard DN replication: a primary plus N log-shipped followers.
//!
//! The paper's GaussDB deployments keep every shard highly available; we
//! reproduce the substrate as a **logical replication log** per shard. The
//! primary appends one record per durable transition:
//!
//! * [`LogRecord::Commit`] — a single-shard transaction's logical ops, shipped
//!   at commit time;
//! * [`LogRecord::Prepare`] — a 2PC leg's ops, shipped at *prepare* time
//!   (Raft-style: the vote-yes is only durable once replicated), so a promoted
//!   follower holds the leg **in doubt** and the existing in-doubt machinery
//!   resolves it against the GTM;
//! * [`LogRecord::Resolve`] — the 2PC decision for a prepared leg;
//! * [`LogRecord::Ddl`] — CN-side CREATE TABLE fan-out.
//!
//! A follower's **replica CSN** is the length of the log prefix it has
//! applied; applying the whole log reproduces the primary's committed state
//! exactly. Updates and deletes carry the old row, and the follower locates
//! its target by a shard-key probe (column 0, which every distributed table
//! is hashed on and indexed by) filtered by row equality, taking the
//! **lowest** matching tuple id among the visible hits — the tuple a
//! heap-order scan would find first, so replay is deterministic. Identical
//! rows are interchangeable, and followers apply serially and see only the
//! committed prefix, so follower tuple ids never need to match the
//! primary's. Promotion = replay-to-head + in-doubt reconstruction; see
//! `Cluster::try_failover`.

use crate::node::DataNode;
use hdm_common::{HdmError, Result, Row, Schema, ShardId, Xid};
use hdm_storage::heap::TupleId;
use hdm_txn::Snapshot;
use std::collections::BTreeSet;

/// One logical operation of a replicated transaction.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplOp {
    /// Upsert on the built-in kv table.
    Put { key: i64, val: i64 },
    /// Delete on the built-in kv table.
    Del { key: i64 },
    /// Insert into this shard's slice of a distributed SQL table.
    SqlInsert { table: String, row: Row },
    /// Update by old row: the follower rewrites its lowest-tid visible tuple
    /// equal to `old` (found by probing the shard key `old[0]`) into `new`.
    SqlUpdate { table: String, old: Row, new: Row },
    /// Delete by row, located the same way as [`Self::SqlUpdate`].
    SqlDelete { table: String, row: Row },
    /// Create this shard's slice of a SQL table (CN DDL fan-out).
    CreateSqlTable { table: String, schema: Schema },
    /// Create a secondary index on this shard's slice (CN DDL fan-out).
    /// Replayed before any rows on a rejoining follower, so a promoted
    /// replica serves the same probe paths as the primary it replaced.
    CreateSqlIndex { table: String, columns: Vec<usize> },
}

/// One entry of a shard's replication log. The statement tag `(id, rows)`
/// carries the CN's idempotence key so a promoted primary inherits the
/// dedup table (`DataNode::stmt_applied`) of the old one.
#[derive(Debug, Clone, PartialEq)]
pub enum LogRecord {
    /// DDL applied outside any transaction.
    Ddl { op: ReplOp },
    /// A committed single-shard transaction.
    Commit {
        ops: Vec<ReplOp>,
        stmt: Option<(u64, u64)>,
    },
    /// 2PC phase one of global transaction `gxid` on this shard.
    Prepare {
        gxid: Xid,
        ops: Vec<ReplOp>,
        stmt: Option<(u64, u64)>,
    },
    /// The 2PC decision for `gxid`'s leg here.
    Resolve { gxid: Xid, commit: bool },
}

/// The append-only replication log of one shard. CSN n addresses the
/// (n+1)-th record; [`Self::head`] is the CSN one past the newest record.
#[derive(Debug, Clone, Default)]
pub struct ShardLog {
    records: Vec<LogRecord>,
    /// Gxids with a `Prepare` record but no `Resolve` yet. Gates resolve
    /// appends: every `Resolve` in the log has a matching earlier `Prepare`,
    /// so serial application never resolves a leg it does not hold.
    in_flight: BTreeSet<Xid>,
}

impl ShardLog {
    pub fn append(&mut self, rec: LogRecord) {
        match &rec {
            LogRecord::Prepare { gxid, .. } => {
                self.in_flight.insert(*gxid);
            }
            LogRecord::Resolve { gxid, .. } => {
                self.in_flight.remove(gxid);
            }
            _ => {}
        }
        self.records.push(rec);
    }

    /// Does the log hold a `Prepare` for `gxid` with no `Resolve` yet?
    pub fn is_in_flight(&self, gxid: Xid) -> bool {
        self.in_flight.contains(&gxid)
    }

    /// The log head: one past the last record.
    pub fn head(&self) -> u64 {
        self.records.len() as u64
    }

    pub fn get(&self, csn: u64) -> Option<&LogRecord> {
        self.records.get(csn as usize)
    }
}

/// A log-shipped replica of one shard: a full [`DataNode`] plus the replica
/// CSN up to which it has applied the shard's log.
#[derive(Debug)]
pub struct Follower {
    pub node: DataNode,
    /// Replica CSN: length of the applied log prefix.
    pub applied: u64,
}

impl Follower {
    pub fn new(shard: ShardId) -> Self {
        Self {
            node: DataNode::new(shard),
            applied: 0,
        }
    }

    /// Apply the next unapplied log record, if any. Returns whether a record
    /// was applied. Divergence (an update or delete not finding its target
    /// row) is a replication bug and surfaces as an error.
    pub fn apply_next(&mut self, log: &ShardLog) -> Result<bool> {
        let Some(rec) = log.get(self.applied) else {
            return Ok(false);
        };
        match rec {
            LogRecord::Ddl { op } => match op {
                ReplOp::CreateSqlTable { table, schema } => {
                    self.node.create_sql_table(table, schema.clone())?;
                }
                ReplOp::CreateSqlIndex { table, columns } => {
                    self.node.create_sql_index(table, columns.clone())?;
                }
                _ => {
                    return Err(HdmError::TxnState(format!(
                        "non-DDL op in a Ddl record: {op:?}"
                    )));
                }
            },
            LogRecord::Commit { ops, stmt } => {
                let xid = self.node.mgr_mut().begin_local();
                apply_ops(&mut self.node, xid, ops)?;
                self.node.mgr_mut().commit(xid)?;
                self.node.clear_undo(xid);
                if let Some((sid, rows)) = stmt {
                    self.node.note_stmt_applied(*sid, *rows);
                }
            }
            LogRecord::Prepare { gxid, ops, stmt } => {
                let xid = self.node.mgr_mut().begin_global(*gxid);
                apply_ops(&mut self.node, xid, ops)?;
                self.node.mgr_mut().prepare(xid)?;
                if let Some((sid, rows)) = stmt {
                    self.node.tag_statement(xid, *sid, *rows);
                }
            }
            LogRecord::Resolve { gxid, commit } => {
                let local = self.node.mgr().local_of(*gxid).ok_or_else(|| {
                    HdmError::TxnState(format!("replica has no prepared leg for {gxid}"))
                })?;
                self.node.resolve_in_doubt(local, *commit)?;
            }
        }
        self.applied += 1;
        Ok(true)
    }
}

/// Apply a record's logical ops under one replica-local transaction, judged
/// by one snapshot taken up front. No transaction begins or commits between
/// the ops of a record, and own-xid visibility exposes the ops this very
/// transaction already applied, so a per-op snapshot would see the same.
fn apply_ops(node: &mut DataNode, xid: Xid, ops: &[ReplOp]) -> Result<()> {
    let snap = node.local_snapshot();
    for op in ops {
        match op {
            ReplOp::Put { key, val } => node.put_local(&snap, Some(xid), xid, *key, *val)?,
            ReplOp::Del { key } => {
                node.del_local(&snap, Some(xid), xid, *key)?;
            }
            ReplOp::SqlInsert { table, row } => {
                node.sql_insert(table, xid, row.clone())?;
            }
            ReplOp::SqlUpdate { table, old, new } => {
                let tid = find_target(node, &snap, xid, table, old)?;
                node.sql_update(table, xid, tid, new.clone())?;
            }
            ReplOp::SqlDelete { table, row } => {
                let tid = find_target(node, &snap, xid, table, row)?;
                node.sql_delete(table, xid, tid)?;
            }
            ReplOp::CreateSqlTable { .. } | ReplOp::CreateSqlIndex { .. } => {
                return Err(HdmError::TxnState(
                    "DDL inside a transactional record".into(),
                ));
            }
        }
    }
    Ok(())
}

/// The tuple a replicated update or delete of `row` targets; missing means
/// the replica diverged from its primary.
fn find_target(
    node: &DataNode,
    snap: &Snapshot,
    xid: Xid,
    table: &str,
    row: &Row,
) -> Result<TupleId> {
    node.sql_find_row(table, snap, Some(xid), row)?.ok_or_else(|| {
        HdmError::TxnState(format!("replica divergence: no row {row:?} in {table}"))
    })
}

/// One shard's replication group: the shared log plus its followers.
#[derive(Debug)]
pub struct ReplicaSet {
    pub log: ShardLog,
    pub followers: Vec<Follower>,
}

impl ReplicaSet {
    pub fn new(shard: ShardId, replicas: usize) -> Self {
        Self {
            log: ShardLog::default(),
            followers: (0..replicas).map(|_| Follower::new(shard)).collect(),
        }
    }

    pub fn append(&mut self, rec: LogRecord) {
        self.log.append(rec);
    }

    /// Append the 2PC decision for `gxid`'s leg, but only if the log holds
    /// an unresolved `Prepare` for it — callers on the resolution paths
    /// (finish, in-doubt recovery, UPGRADE, abort) can all report the same
    /// decision without double-logging it. Returns whether it was appended.
    pub fn resolve(&mut self, gxid: Xid, commit: bool) -> bool {
        if !self.log.is_in_flight(gxid) {
            return false;
        }
        self.log.append(LogRecord::Resolve { gxid, commit });
        true
    }

    /// Ship up to `budget` log records to each follower (the asynchronous
    /// log-shipping step; 0 = unbounded, i.e. catch every follower up to
    /// the log head). Returns the total records applied.
    pub fn pump(&mut self, budget: usize) -> Result<u64> {
        let budget = if budget == 0 { usize::MAX } else { budget };
        let mut applied = 0;
        for f in &mut self.followers {
            for _ in 0..budget {
                if !f.apply_next(&self.log)? {
                    break;
                }
                applied += 1;
            }
        }
        Ok(applied)
    }

    /// Remove the most caught-up follower and replay it to the log head —
    /// the replay-to-CSN catch-up step of promotion. Returns the promoted
    /// follower and how many records the catch-up replayed.
    pub fn take_promoted(&mut self) -> Result<Option<(Follower, u64)>> {
        let best = match (0..self.followers.len()).max_by_key(|&i| self.followers[i].applied) {
            Some(i) => i,
            None => return Ok(None),
        };
        let mut f = self.followers.remove(best);
        let behind = self.log.head() - f.applied;
        while f.apply_next(&self.log)? {}
        Ok(Some((f, behind)))
    }

    /// Replica CSNs of the followers (diagnostics / reports).
    pub fn csns(&self) -> Vec<u64> {
        self.followers.iter().map(|f| f.applied).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::{row, DataType};

    fn shard() -> ShardId {
        ShardId::new(0)
    }

    fn sql_schema() -> Schema {
        Schema::from_pairs(&[("a", DataType::Int), ("b", DataType::Int)])
    }

    fn visible_rows(node: &DataNode, table: &str) -> Vec<Row> {
        let snap = node.local_snapshot();
        let judge =
            hdm_txn::SnapshotVisibility::new(&snap, node.mgr().clog(), None);
        let mut out: Vec<Row> = node
            .sql_table(table)
            .unwrap()
            .scan(&judge)
            .map(|(_, r)| r.clone())
            .collect();
        out.sort_by_key(|r| format!("{r:?}"));
        out
    }

    /// Visible `(tid, row)` pairs of `table` in heap order.
    fn visible_tuples(node: &DataNode, table: &str) -> Vec<(TupleId, Row)> {
        let snap = node.local_snapshot();
        let judge = hdm_txn::SnapshotVisibility::new(&snap, node.mgr().clog(), None);
        node.sql_table(table)
            .unwrap()
            .scan(&judge)
            .map(|(tid, r)| (tid, r.clone()))
            .collect()
    }

    fn with_table() -> ReplicaSet {
        let mut rs = ReplicaSet::new(shard(), 1);
        rs.append(LogRecord::Ddl {
            op: ReplOp::CreateSqlTable {
                table: "t".into(),
                schema: sql_schema(),
            },
        });
        rs
    }

    fn ins(row: Row) -> ReplOp {
        ReplOp::SqlInsert {
            table: "t".into(),
            row,
        }
    }

    fn upd(old: Row, new: Row) -> ReplOp {
        ReplOp::SqlUpdate {
            table: "t".into(),
            old,
            new,
        }
    }

    fn del(row: Row) -> ReplOp {
        ReplOp::SqlDelete {
            table: "t".into(),
            row,
        }
    }

    fn commit(ops: Vec<ReplOp>) -> LogRecord {
        LogRecord::Commit { ops, stmt: None }
    }

    #[test]
    fn delete_of_identical_rows_takes_the_lowest_tid() {
        let mut rs = with_table();
        // An aborted leg's undo swap-removes tid 0 from the key-1 posting
        // list, leaving it [2, 1]: the probe's first hit is not the lowest.
        rs.append(LogRecord::Prepare {
            gxid: Xid(9100),
            ops: vec![ins(row![1, 5])],
            stmt: None,
        });
        rs.append(commit(vec![ins(row![1, 10]), ins(row![1, 10])]));
        rs.append(LogRecord::Resolve {
            gxid: Xid(9100),
            commit: false,
        });
        rs.append(commit(vec![del(row![1, 10])]));
        rs.pump(0).unwrap();
        assert_eq!(
            visible_tuples(&rs.followers[0].node, "t"),
            vec![(TupleId(2), row![1, 10])],
            "the heap-order scan's pick: tid 1 goes, tid 2 stays"
        );
    }

    #[test]
    fn update_of_the_shard_key_is_found_by_its_new_key() {
        let mut rs = with_table();
        rs.append(commit(vec![ins(row![1, 10]), ins(row![2, 20])]));
        rs.append(commit(vec![upd(row![1, 10], row![7, 10])]));
        assert_eq!(rs.pump(0).unwrap(), 3);
        assert_eq!(
            visible_rows(&rs.followers[0].node, "t"),
            vec![row![2, 20], row![7, 10]]
        );
        rs.append(commit(vec![upd(row![7, 10], row![7, 11])]));
        rs.append(commit(vec![del(row![7, 11])]));
        assert_eq!(rs.pump(0).unwrap(), 2);
        assert_eq!(visible_rows(&rs.followers[0].node, "t"), vec![row![2, 20]]);
    }

    #[test]
    fn one_record_sees_its_own_earlier_ops_under_one_snapshot() {
        let mut rs = with_table();
        rs.append(commit(vec![
            ins(row![3, 30]),
            upd(row![3, 30], row![3, 31]),
            ins(row![4, 40]),
            del(row![4, 40]),
            ReplOp::Put { key: 1, val: 10 },
            ReplOp::Put { key: 1, val: 11 },
        ]));
        rs.pump(0).unwrap();
        let node = &rs.followers[0].node;
        assert_eq!(visible_rows(node, "t"), vec![row![3, 31]]);
        let snap = node.local_snapshot();
        assert_eq!(node.get_local(&snap, None, 1).unwrap(), Some(11));
    }

    #[test]
    fn an_unresolved_prepare_is_no_match_for_a_later_record() {
        let mut rs = with_table();
        rs.append(LogRecord::Prepare {
            gxid: Xid(9200),
            ops: vec![ins(row![4, 40])],
            stmt: None,
        });
        rs.append(commit(vec![ins(row![4, 40])]));
        rs.append(commit(vec![del(row![4, 40])]));
        rs.pump(0).unwrap();
        // The prepared tid 0 is lower, but invisible: the delete took tid 1.
        rs.append(LogRecord::Resolve {
            gxid: Xid(9200),
            commit: true,
        });
        rs.pump(0).unwrap();
        assert_eq!(
            visible_tuples(&rs.followers[0].node, "t"),
            vec![(TupleId(0), row![4, 40])]
        );

        let mut rs = with_table();
        rs.append(LogRecord::Prepare {
            gxid: Xid(9201),
            ops: vec![ins(row![5, 50])],
            stmt: None,
        });
        rs.append(commit(vec![del(row![5, 50])]));
        let err = rs.pump(0).unwrap_err().to_string();
        assert!(err.contains("replica divergence"), "{err}");
    }

    #[test]
    fn commit_records_replay_to_identical_state() {
        let mut rs = ReplicaSet::new(shard(), 1);
        rs.append(LogRecord::Ddl {
            op: ReplOp::CreateSqlTable {
                table: "t".into(),
                schema: sql_schema(),
            },
        });
        rs.append(LogRecord::Commit {
            ops: vec![
                ReplOp::SqlInsert {
                    table: "t".into(),
                    row: row![1, 10],
                },
                ReplOp::SqlInsert {
                    table: "t".into(),
                    row: row![2, 20],
                },
            ],
            stmt: Some((7, 2)),
        });
        rs.append(LogRecord::Commit {
            ops: vec![ReplOp::SqlUpdate {
                table: "t".into(),
                old: row![1, 10],
                new: row![1, 11],
            }],
            stmt: None,
        });
        assert_eq!(rs.pump(100).unwrap(), 3);
        let f = &rs.followers[0];
        assert_eq!(f.applied, 3, "replica CSN tracks the applied prefix");
        assert_eq!(visible_rows(&f.node, "t"), vec![row![1, 11], row![2, 20]]);
        assert_eq!(f.node.stmt_applied(7), Some(2), "dedup table shipped");
    }

    #[test]
    fn prepare_stays_invisible_until_resolve() {
        let mut rs = ReplicaSet::new(shard(), 1);
        rs.append(LogRecord::Ddl {
            op: ReplOp::CreateSqlTable {
                table: "t".into(),
                schema: sql_schema(),
            },
        });
        rs.append(LogRecord::Prepare {
            gxid: Xid(9000),
            ops: vec![ReplOp::SqlInsert {
                table: "t".into(),
                row: row![5, 50],
            }],
            stmt: Some((3, 1)),
        });
        rs.pump(100).unwrap();
        let f = &rs.followers[0];
        assert!(visible_rows(&f.node, "t").is_empty(), "prepared is invisible");
        assert_eq!(
            f.node.in_doubt_legs(),
            vec![(f.node.mgr().local_of(Xid(9000)).unwrap(), Some(Xid(9000)))],
            "the leg is reconstructed in doubt"
        );
        rs.append(LogRecord::Resolve {
            gxid: Xid(9000),
            commit: true,
        });
        rs.pump(100).unwrap();
        let f = &rs.followers[0];
        assert_eq!(visible_rows(&f.node, "t"), vec![row![5, 50]]);
        assert_eq!(f.node.stmt_applied(3), Some(1), "tag published on resolve");
        assert_eq!(f.node.undo_len(), 0);
    }

    #[test]
    fn resolve_abort_rolls_the_leg_back() {
        let mut rs = ReplicaSet::new(shard(), 1);
        rs.append(LogRecord::Commit {
            ops: vec![ReplOp::Put { key: 1, val: 10 }],
            stmt: None,
        });
        rs.append(LogRecord::Prepare {
            gxid: Xid(9001),
            ops: vec![ReplOp::Put { key: 1, val: 99 }],
            stmt: None,
        });
        rs.append(LogRecord::Resolve {
            gxid: Xid(9001),
            commit: false,
        });
        rs.pump(100).unwrap();
        let f = &rs.followers[0];
        let snap = f.node.local_snapshot();
        assert_eq!(f.node.get_local(&snap, None, 1).unwrap(), Some(10));
        assert_eq!(f.node.undo_len(), 0, "aborted leg releases its undo");
    }

    #[test]
    fn promotion_picks_the_most_caught_up_and_replays_to_head() {
        let mut rs = ReplicaSet::new(shard(), 2);
        for i in 0..6 {
            rs.append(LogRecord::Commit {
                ops: vec![ReplOp::Put { key: i, val: i * 10 }],
                stmt: None,
            });
        }
        // Ship 4 records to follower 0 only.
        for _ in 0..4 {
            let log = &rs.log;
            rs.followers[0].apply_next(log).unwrap();
        }
        let (f, behind) = rs.take_promoted().unwrap().unwrap();
        assert_eq!(behind, 2, "catch-up replayed exactly the missing suffix");
        assert_eq!(f.applied, 6);
        let snap = f.node.local_snapshot();
        for i in 0..6 {
            assert_eq!(f.node.get_local(&snap, None, i).unwrap(), Some(i * 10));
        }
        assert_eq!(rs.followers.len(), 1, "one follower remains");
        assert_eq!(rs.followers[0].applied, 0);
    }

    #[test]
    fn value_addressed_delete_matches_one_row() {
        let mut rs = ReplicaSet::new(shard(), 1);
        rs.append(LogRecord::Ddl {
            op: ReplOp::CreateSqlTable {
                table: "t".into(),
                schema: sql_schema(),
            },
        });
        rs.append(LogRecord::Commit {
            ops: vec![
                ReplOp::SqlInsert {
                    table: "t".into(),
                    row: row![1, 10],
                },
                ReplOp::SqlInsert {
                    table: "t".into(),
                    row: row![1, 20],
                },
            ],
            stmt: None,
        });
        rs.append(LogRecord::Commit {
            ops: vec![ReplOp::SqlDelete {
                table: "t".into(),
                row: row![1, 20],
            }],
            stmt: None,
        });
        rs.pump(100).unwrap();
        assert_eq!(visible_rows(&rs.followers[0].node, "t"), vec![row![1, 10]]);
    }
}
