//! Distributed SQL execution: the CN plans, the DNs run scan fragments.
//!
//! [`DistDb`] is the coordinator-side SQL facade over a GTM-lite
//! [`Cluster`]. It keeps a **shadow catalog** — table schemas plus
//! per-shard-merged statistics — plans every query with `hdm-sql`'s planner
//! against that shadow, then *annotates* the plan for distribution: each
//! base-table scan becomes a [`PlanOp::Exchange`] leaf whose shard list is
//! computed by **pruning** the scan predicate against the cluster's
//! [`ShardMap`](crate::ShardMap) (an equality conjunct on the distribution column collapses
//! the scatter to one DN leg; a top-level OR defeats pruning).
//!
//! Transaction scope follows the annotated plan, which is the paper's
//! GTM-lite payoff carried up into SQL (§II-A): a statement whose every
//! fragment lands on one shard opens a single-shard transaction — **zero GTM
//! interactions** — while a multi-shard statement opens a global transaction
//! whose per-DN legs get Algorithm-1 merged snapshots and whose commit runs
//! 2PC. Fragments execute through `DistExec`, an [`ExecBackend`] whose
//! `scan_shards` visits each DN's MVCC storage under the leg's snapshot and
//! wraps every fragment in a `plan.fragment` telemetry span.
//!
//! The learning-optimizer loop keys on **distributed** canonical text: an
//! annotated scan renders as `EXCHANGE(SCAN(...), SHARDS(...))`, so captured
//! cardinalities feed back into exactly the shard-pruned shape that produced
//! them, never cross-contaminating single-node plans.
//!
//! The statement path (canonicalize, plan cache and drift check, bind,
//! flat program or tree, EXPLAIN, DDL/DML binding) is
//! [`hdm_sql::session::Facade`]'s, shared with the embedded engine.
//! [`DistDb`] implements its hooks: planning and annotation, routing the
//! flat programs `hdm_sql::program::lower` makes of cached linear scans,
//! running trees and programs in the transaction their shards imply, routed
//! DDL/DML, the cluster's `sys.*` rows, the history hook's journal, and the
//! retry loop behind `execute_opts`.

use crate::engine::{Cluster, Protocol, Txn, TxnOptions};
use crate::node::{DataNode, TableId};
use crate::retry::RetryPolicy;
use crate::shard::key_prefix;
use hdm_common::{Datum, HdmError, Result, Row, Schema, ShardId, Xid};
use hdm_sql::ast::{BinOp, SelectStmt};
use hdm_sql::db::{CardinalityHints, QueryResult, StepObserver};
use hdm_sql::dml::{updated_row, values_row, BoundDml, DmlOp, Values};
use hdm_sql::expr::SExpr;
use hdm_sql::plan::{ExchangeProbe, PlanNode, PlanOp};
use hdm_sql::planner::{and_all, Planner, PlanningInfo, TempRels};
use hdm_sql::prepared::ExecOptions;
use hdm_sql::profile::ChainProfiler;
use hdm_sql::program::{lower, Access, Exchange, LinearSelect};
use hdm_sql::session::{output_columns, CachedPlan, EngineState, Facade, Session, StmtProfiler};
use hdm_sql::sys::{self, PlanStoreDump, SysSnapshot};
use hdm_sql::{Catalog, ExecBackend};
use hdm_storage::heap::TupleId;
use hdm_storage::{ColumnStats, TableStats};
use hdm_telemetry::{
    Clock, Regression, ShardLeg, ShardWindowStat, SharedClock, SharedHistory, SharedRecorder,
    StatementProfile, Telemetry,
};
use hdm_txn::{MemoVisibility, SnapshotVisibility};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::Arc;

/// One scripted fault against a data node, named by its raw shard id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Crash the shard's primary.
    Crash(u64),
    /// Restart the crashed machine (when the shard already failed over to a
    /// replica, it rejoins as a follower from its own durable state,
    /// resuming at its crash CSN).
    Restart(u64),
}

/// A deterministic crash/restart script keyed by CN-side *execution ticks*.
/// A tick elapses at every fragment dispatch and every retry attempt, so
/// scripted faults land mid-statement at exactly the same point on every
/// same-seed run — no wall clock involved. Replication log shipping is
/// pumped on the same tick, giving followers a bounded, deterministic lag.
#[derive(Debug, Clone, Default)]
pub struct FaultScript {
    /// tick → operations applied when that tick is reached.
    pub schedule: BTreeMap<u64, Vec<FaultOp>>,
    /// Ticks consumed so far. A fault-free run with an empty schedule counts
    /// ticks here, calibrating where to place faults in a scripted twin.
    pub tick: u64,
}

/// Replication records shipped per execution tick while a fault script is
/// installed (kept small so followers visibly lag a busy primary).
const REPL_RECORDS_PER_TICK: usize = 4;

/// CN-side distribution metadata for one table: the distribution column
/// and the sharding prefix its value routes by — the value itself
/// (truncated to `u32`) for CN-created SQL tables, the prefix of a packed
/// `make_key(prefix, local)` key for the built-in `kv` table.
#[derive(Debug, Clone, Copy)]
struct DistMeta {
    shard_col: usize,
    prefix: fn(i64) -> u32,
}

/// The sharding prefix of a CN-created SQL table's distribution value.
fn value_prefix(v: i64) -> u32 {
    v as u32
}

/// Observable distributed-execution activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistCounters {
    /// Exchange leaves pruned to exactly one shard.
    pub pruned_scans: u64,
    /// Exchange leaves that scattered to more than one shard.
    pub scatter_scans: u64,
    /// Scan fragments shipped to data nodes.
    pub fragments_run: u64,
    /// Rows gathered from data nodes to the CN.
    pub rows_exchanged: u64,
    /// Exchange fragments answered via a DN-local index probe or range walk
    /// instead of a full shard scan.
    pub index_probes: u64,
    /// Statements that ran as single-shard (GTM-free) transactions.
    pub single_shard_stmts: u64,
    /// Statements that ran as multi-shard (GTM + 2PC) transactions.
    pub multi_shard_stmts: u64,
    /// Follower promotions driven by this CN (inline or between retries).
    pub failovers: u64,
    /// Statement attempts retried after a retryable error.
    pub stmt_retries: u64,
    /// Retried/duplicate statements answered from a DN's idempotence table
    /// without re-applying writes.
    pub dedup_hits: u64,
    /// Simulated-time backoff served across all statement retries.
    pub backoff_us: u64,
}

/// The statement's transaction scope, decided from the annotated plan (or
/// the DML rows' routing): single-shard with its sharding prefix, or multi.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Single(u32),
    Multi,
}

/// A distributed SQL database: coordinator planning over cluster storage.
pub struct DistDb {
    cluster: Cluster,
    /// CN-side schemas + merged statistics. Holds no rows.
    shadow: Catalog,
    meta: HashMap<String, DistMeta>,
    tel: Option<Telemetry>,
    counters: DistCounters,
    /// Backoff schedule for idempotent execution
    /// ([`QueryApi::execute_opts`](hdm_sql::QueryApi::execute_opts)); `None` (default) keeps the legacy
    /// fail-fast behaviour.
    retry: Option<RetryPolicy>,
    /// The statement id the currently-executing statement carries for
    /// idempotent dedup, threaded into error messages and leg tags.
    cur_stmt: Option<u64>,
    /// Next auto-assigned statement id for `ExecOptions::retrying()`.
    next_stmt_id: u64,
    /// Scripted crash/restart plan ticked at every fragment dispatch.
    faults: Option<Rc<RefCell<FaultScript>>>,
    /// Plan-store hooks, profiler wiring, the plan cache (logical plans plus
    /// routed flat programs, invalidated on DDL and ANALYZE) and history
    /// capture.
    session: Session,
}

impl DistDb {
    /// Wrap a GTM-lite cluster. The built-in per-shard `kv` table is
    /// pre-registered (read-only through SQL) so its per-DN statistics feed
    /// the distributed planner.
    pub fn new(cluster: Cluster) -> Result<Self> {
        if cluster.config().protocol != Protocol::GtmLite {
            return Err(HdmError::Unsupported(
                "DistDb requires the GTM-lite protocol".into(),
            ));
        }
        let mut shadow = Catalog::new();
        shadow.create_table(
            "kv",
            Schema::from_pairs(&[
                ("k", hdm_common::DataType::Int),
                ("v", hdm_common::DataType::Int),
            ]),
        )?;
        let mut meta = HashMap::new();
        meta.insert(
            "kv".to_string(),
            DistMeta {
                shard_col: 0,
                prefix: key_prefix,
            },
        );
        Ok(Self {
            cluster,
            shadow,
            meta,
            tel: None,
            counters: DistCounters::default(),
            retry: None,
            cur_stmt: None,
            next_stmt_id: 1,
            faults: None,
            session: Session::default(),
        })
    }

    /// Use `clock` for profiler timestamps (share the cluster telemetry's
    /// virtual clock for deterministic profiles).
    pub fn set_clock(&mut self, clock: SharedClock) {
        self.session.clock = clock;
    }

    /// Record every statement's profile into `recorder` (implies profiling).
    pub fn attach_recorder(&mut self, recorder: SharedRecorder) {
        self.session.recorder = Some(recorder);
    }

    /// Profile every SELECT even without a recorder attached, surfacing
    /// [`QueryResult::profile`] with GTM/2PC counts and per-shard legs.
    pub fn set_profiling(&mut self, on: bool) {
        self.session.profiling = on;
    }

    /// Ratio at which `EXPLAIN ANALYZE` flags a misestimate (default 2.0,
    /// the plan store's capture threshold).
    pub fn set_misestimate_ratio(&mut self, ratio: f64) {
        self.session.misestimate_ratio = ratio;
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    pub fn counters(&self) -> DistCounters {
        self.counters
    }

    /// Install the learning plan store (consumer + producer), exactly as on
    /// the embedded [`hdm_sql::Database`].
    pub fn set_plan_store(
        &mut self,
        hints: Rc<dyn CardinalityHints>,
        observer: Rc<dyn StepObserver>,
    ) {
        self.session.set_plan_store(Some((hints, observer)));
    }

    pub fn clear_plan_store(&mut self) {
        self.session.set_plan_store(None);
    }

    /// Expose a plan-store dump through the `sys.plan_store` view (usually
    /// the same shared store installed with [`Self::set_plan_store`]).
    pub fn attach_sys_plan_store(&mut self, dump: Rc<dyn PlanStoreDump>) {
        self.session.sys_plan_store = Some(dump);
    }

    /// Wire fragments (and the underlying cluster) to a telemetry bundle.
    /// An installed retry policy reports its backoffs as `cn.backoff`.
    pub fn attach_telemetry(&mut self, tel: &Telemetry) {
        self.cluster.attach_telemetry(tel);
        if let Some(p) = &mut self.retry {
            p.attach_telemetry(&tel.metrics);
        }
        self.tel = Some(tel.clone());
    }

    /// Give the coordinator a retry loop: [`QueryApi::execute_opts`](hdm_sql::QueryApi::execute_opts)
    /// retries `unavailable`/`txn_aborted` statements under this policy's
    /// backoff, failing crashed shards over to replicas between attempts.
    /// `None` (the default) preserves the legacy fail-fast behaviour.
    pub fn set_retry_policy(&mut self, policy: Option<RetryPolicy>) {
        self.retry = policy;
        if let (Some(p), Some(tel)) = (&mut self.retry, &self.tel) {
            p.attach_telemetry(&tel.metrics);
        }
    }

    /// Install (or clear) a deterministic crash/restart script. The script
    /// is shared `Rc` so the harness that built it can inspect the tick
    /// counter afterwards.
    pub fn set_fault_script(&mut self, script: Option<Rc<RefCell<FaultScript>>>) {
        self.faults = script;
    }

    /// Record AWR-style workload-history windows into `history` (which also
    /// backs `sys.history_*`). Observation-only: statements are counted at
    /// this facade, a window is cut after the statement that crosses the
    /// configured boundary, and regressions the capture detects against the
    /// trailing baseline are journaled as `history.regression` events.
    /// Statement/co-access detail appears only while a recorder is attached;
    /// without one the fast point path stays untouched.
    pub fn attach_history(&mut self, history: SharedHistory) {
        self.session.attach_history(history);
    }

    /// Stop capturing workload history. Statements executed since the last
    /// window cut are discarded rather than flushed into a partial window.
    pub fn detach_history(&mut self) {
        self.session.detach_history();
    }

    /// Force a window capture now (harnesses cut windows at deterministic
    /// points; no-op without an attached history engine).
    pub fn capture_history_now(&mut self) {
        let found = self
            .session
            .capture_history_now(|| engine_state(self.tel.as_ref(), &self.cluster));
        self.journal(found);
    }

    /// The attached workload-history handle, if any.
    pub fn history(&self) -> Option<&SharedHistory> {
        self.session.history()
    }

    /// Journal history regressions as `history.regression` events.
    fn journal(&mut self, regressions: Vec<Regression>) {
        for r in regressions {
            self.cluster.journal_event(
                "history.regression",
                r.shard,
                format!("kind={} window={} {}", r.kind.as_str(), r.window, r.detail),
            );
        }
    }

    /// Execute one SQL statement on the cluster. Cacheable SELECTs are
    /// canonicalized (literals lifted to parameters) and served through the
    /// plan cache, skipping the parser and planner on repeats.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute_sql(sql)
    }

    /// Idempotent retrying execution with an auto-assigned statement id.
    fn run_retrying(&mut self, sql: &str) -> Result<QueryResult> {
        let id = self.next_stmt_id;
        self.next_stmt_id += 1;
        self.run_idempotent(sql, id)
    }

    /// Execute one statement at-most-once under crash failover. `stmt_id`
    /// is the statement's idempotence key: a write statement tags every leg
    /// with `(stmt_id, total rowcount)` before commit, and a later attempt
    /// (or an outright duplicate submission) first asks the routed shards
    /// whether the id already committed — so a retried write is never
    /// double-applied, and a duplicate answers with the original rowcount.
    ///
    /// Retries cover the `unavailable` and `txn_aborted` error classes only
    /// (crashed/fenced shards and 2PC aborts); every attempt re-routes
    /// against the bound values so post-failover routing takes effect.
    /// Without a retry policy this is plain [`Self::execute`] with dedup
    /// tagging. Reached through `execute_opts(sql, ExecOptions::idempotent(id))`.
    fn run_idempotent(&mut self, sql: &str, stmt_id: u64) -> Result<QueryResult> {
        let run_once = |db: &mut Self| {
            db.cur_stmt = Some(stmt_id);
            let r = db.execute(sql);
            db.cur_stmt = None;
            r
        };
        let Some(mut policy) = self.retry.take() else {
            return run_once(self);
        };
        let mut attempt: u32 = 0;
        let result = loop {
            // Scripted faults and follower catch-up advance between attempts
            // too, so a retry storm can't freeze the cluster's timeline.
            if let Err(e) = tick_faults(&mut self.cluster, self.faults.as_deref())
                .and_then(|()| self.failover_down_shards())
            {
                break Err(e);
            }
            match run_once(self) {
                Ok(r) => break Ok(r),
                Err(e) if matches!(e.class(), "unavailable" | "txn_aborted") => {
                    attempt += 1;
                    if !policy.allows(attempt) {
                        break Err(HdmError::Unavailable(format!(
                            "{e}; gave up after {attempt} attempts"
                        )));
                    }
                    self.counters.stmt_retries += 1;
                    self.counters.backoff_us += policy.backoff(attempt - 1).micros();
                    self.cluster.record_retry();
                }
                Err(e) => break Err(e),
            }
        };
        self.retry = Some(policy);
        result
    }

    /// Promote a caught-up follower for every down shard. Called between
    /// retry attempts so the next attempt finds live primaries.
    fn failover_down_shards(&mut self) -> Result<()> {
        for shard in self.cluster.down_shards() {
            if self.cluster.try_failover(shard)? {
                self.counters.failovers += 1;
            }
        }
        Ok(())
    }

    /// The write protocol every DML statement follows. A statement whose id
    /// a routed shard already remembers as committed answers with that
    /// shard's rowcount — every leg carries the statement-*total* — without
    /// re-applying. Otherwise open the narrowest transaction, run `legs`
    /// (aborting every leg on error), tag the rowcount for dedup, commit.
    fn run_write(
        &mut self,
        scope: Scope,
        shards: impl IntoIterator<Item = ShardId>,
        legs: impl FnOnce(&mut DistExec<'_>) -> Result<u64>,
    ) -> Result<u64> {
        let applied = self.cur_stmt.and_then(|sid| {
            shards
                .into_iter()
                .find_map(|s| self.cluster.stmt_applied_on(s, sid))
        });
        if let Some(affected) = applied {
            self.counters.dedup_hits += 1;
            return Ok(affected);
        }
        let mut txn = self.begin_scoped(scope)?;
        let affected = match legs(&mut self.dist_exec(&mut txn, false, None)) {
            Ok(n) => n,
            Err(e) => {
                self.cluster.abort(txn)?;
                return Err(e);
            }
        };
        if let Some(sid) = self.cur_stmt {
            self.cluster.tag_statement(&txn, sid, affected);
        }
        self.cluster.commit(txn)?;
        Ok(affected)
    }

    /// The shard a distribution-column value routes to by `prefix`, with
    /// the sharding prefix that names it in [`TxnOptions::single`].
    fn route_value(&self, prefix: fn(i64) -> u32, v: i64) -> (ShardId, u32) {
        let prefix = prefix(v);
        (self.cluster.shard_map().shard_of_prefix(prefix), prefix)
    }

    /// The canonical name and distribution metadata of a table SQL may
    /// write: the built-in `kv` table is read-only (the session has already
    /// rejected `sys.` views).
    fn writable(&self, table: &str) -> Result<(String, DistMeta)> {
        let canon = table.to_ascii_lowercase();
        let meta = self
            .meta
            .get(&canon)
            .copied()
            .ok_or_else(|| HdmError::Catalog(format!("{canon} is not a distributed table")))?;
        if canon == "kv" {
            return Err(HdmError::Unsupported(
                "the built-in kv table is read-only through SQL".into(),
            ));
        }
        Ok((canon, meta))
    }

    /// Route each VALUES row by its distribution column, every row
    /// evaluated before anything is written, then write them all under
    /// [`Self::run_write`]. A one-row INSERT, the OLTP shape, routes to its
    /// shard without collecting.
    fn insert_rows(
        &mut self,
        table: &str,
        meta: DistMeta,
        values: &Values,
        params: &[Datum],
    ) -> Result<u64> {
        let route = |db: &Self, exprs: &[SExpr]| {
            let row = values_row(exprs, params)?;
            let Some(dv) = row.values()[meta.shard_col].as_int() else {
                return Err(HdmError::Execution(format!(
                    "distribution column of {table} must be a non-null INT"
                )));
            };
            let (shard, prefix) = db.route_value(meta.prefix, dv);
            Ok((shard, prefix, row))
        };
        let mut rows = values.rows();
        if let (1, Some(exprs)) = (rows.len(), rows.next()) {
            let (shard, prefix, row) = route(self, exprs)?;
            return self.run_write(Scope::Single(prefix), [shard], |be| {
                be.insert_row(table, shard, row).map(|()| 1)
            });
        }
        let routed = values
            .rows()
            .map(|r| route(self, r))
            .collect::<Result<Vec<_>>>()?;
        let shards: BTreeSet<u64> = routed.iter().map(|(s, _, _)| s.raw()).collect();
        let scope = match (shards.len(), routed.first()) {
            (1, Some((_, prefix, _))) => Scope::Single(*prefix),
            _ => Scope::Multi,
        };
        self.run_write(scope, shards.into_iter().map(ShardId::new), |be| {
            let n = routed.len() as u64;
            for (shard, _, row) in routed {
                be.insert_row(table, shard, row)?;
            }
            Ok(n)
        })
    }

    /// Shared UPDATE/DELETE driver. A statement whose key binds to an INT
    /// routes to that key's shard; any other scatters. Per shard,
    /// [`DistExec::run_leg`] collects the matching tuples, each with what
    /// `target` makes of its row (an index probe when the key or a
    /// predicate conjunct pins an indexed column), and `write` applies
    /// them, all under [`Self::run_write`]. A predicate that is the key
    /// alone is answered by the key's probe with no filter to evaluate.
    fn run_dml_scan<T>(
        &mut self,
        dml: &BoundDml,
        meta: DistMeta,
        params: &[Datum],
        target: impl Fn(&Row) -> Result<T>,
        write: impl Fn(&mut DataNode, TableId, Xid, TupleId, T) -> Result<()>,
    ) -> Result<u64> {
        let key = dml.key_value(params);
        let pred = match key {
            Some(_) if dml.key_only => None,
            _ => dml.predicate(params)?,
        };
        let eq = key.map(|v| (meta.shard_col, v));
        let (single, all): ([ShardId; 1], Vec<ShardId>);
        let (scope, shards) = match key {
            Some(Datum::Int(v)) => {
                let (shard, prefix) = self.route_value(meta.prefix, *v);
                single = [shard];
                (Scope::Single(prefix), &single[..])
            }
            _ => {
                all = self.cluster.shard_map().all().collect();
                (Scope::Multi, &all[..])
            }
        };
        let table = &dml.table;
        self.run_write(scope, shards.iter().copied(), |be| {
            let mut n = 0u64;
            for &shard in shards {
                let mut targets = Vec::new();
                let xid = be.run_leg(table, shard, None, eq, pred.as_deref(), |tid, row| {
                    targets.push((tid, target(row)?));
                    Ok(())
                })?;
                let node = be.cluster.node_mut(shard);
                let t = node.table_id(table)?;
                n += targets.len() as u64;
                for (tid, x) in targets {
                    write(node, t, xid, tid, x)?;
                }
            }
            Ok(n)
        })
    }

    /// The cluster rows that lead `sys.config`: the effective cluster knobs
    /// in a fixed order, so experiments are self-describing from SQL.
    fn cluster_config_rows(&self) -> Vec<Row> {
        let cc = self.cluster.config();
        let row =
            |name: &str, value: String, kind: &str| sys::config_row(name, value, kind, "cluster");
        let text = |v: &dyn std::fmt::Debug| format!("{v:?}").to_ascii_lowercase();
        vec![
            row("cluster.merge_policy", text(&cc.merge_policy), "text"),
            row("cluster.protocol", text(&cc.protocol), "text"),
            row("cluster.replicas", cc.replicas.to_string(), "int"),
            row("cluster.shards", cc.shards.to_string(), "int"),
            row(
                "events.capacity",
                crate::health::EVENT_JOURNAL_CAP.to_string(),
                "int",
            ),
        ]
    }

    /// `sys.shards` rows: per-shard liveness, primary epoch, replication log
    /// head, follower count, slowest-follower CSN and the derived lag.
    /// `replica_csn` is NULL with replication off (nothing ships a log).
    fn shard_rows(&self) -> Vec<Row> {
        let heads = self.cluster.log_heads();
        let csns = self.cluster.replica_csns();
        let lags = self.cluster.shard_lags();
        self.cluster
            .shard_map()
            .all()
            .map(|shard| {
                let i = shard.raw() as usize;
                let followers = csns.get(i).map_or(0, |f| f.len());
                let slowest = csns.get(i).and_then(|f| f.iter().min().copied());
                Row::new(vec![
                    Datum::Int(shard.raw() as i64),
                    Datum::Int(self.cluster.is_node_up(shard) as i64),
                    Datum::Int(self.cluster.epoch_of(shard) as i64),
                    Datum::Int(heads.get(i).copied().unwrap_or(0) as i64),
                    Datum::Int(followers as i64),
                    slowest.map_or(Datum::Null, |c| Datum::Int(c as i64)),
                    Datum::Int(lags.get(i).copied().unwrap_or(0) as i64),
                ])
            })
            .collect()
    }

    /// `sys.indexes` rows for the planner-visible indexes on the shadow
    /// catalog. Entry counts sum across the up data nodes, matched by key
    /// columns — DN-local index ids differ from shadow ids because data
    /// nodes auto-index their shard key. The backing shard set is every
    /// shard hosting the table.
    fn index_rows(&self) -> Vec<Row> {
        let shards: Vec<ShardId> = self.cluster.shard_map().all().collect();
        let shard_list: Vec<String> = shards.iter().map(|s| s.raw().to_string()).collect();
        sys::index_rows(&self.shadow, &shard_list.join(","), |name, ix| {
            let mut entries = 0i64;
            for &shard in &shards {
                if !self.cluster.is_node_up(shard) {
                    continue;
                }
                let dn = self.cluster.node(shard).sql_table(name).ok();
                if let Some(di) = dn.and_then(|dt| {
                    dt.indexes()
                        .iter()
                        .find(|di| di.key_columns() == ix.key_columns())
                }) {
                    entries += di.len() as i64;
                }
            }
            entries
        })
    }

    /// `sys.events` rows from the engine's crash/recovery journal.
    fn event_rows(&self) -> Vec<Row> {
        self.cluster
            .events()
            .map(|e| {
                Row::new(vec![
                    Datum::Int(e.seq as i64),
                    Datum::Int(e.time_us as i64),
                    Datum::Text(e.kind.clone()),
                    e.shard.map_or(Datum::Null, |s| Datum::Int(s as i64)),
                    Datum::Text(e.detail.clone()),
                ])
            })
            .collect()
    }

    fn plan_annotated(
        &mut self,
        s: &SelectStmt,
        temp: &TempRels,
        sys_snap: Option<&SysSnapshot>,
    ) -> Result<(PlanNode, PlanningInfo, Scope)> {
        let (mut plan, mut info) = self.plan_logical(s, temp, sys_snap)?;
        let scope = self.bind_tree(&mut plan, &mut info);
        Ok((plan, info, scope))
    }

    /// The un-annotated logical plan, costed against the shadow catalog
    /// with plan-store hints bridged through [`DistHints`].
    fn plan_logical(
        &self,
        s: &SelectStmt,
        temp: &TempRels,
        sys_snap: Option<&SysSnapshot>,
    ) -> Result<(PlanNode, PlanningInfo)> {
        let dh = self.dist_hints();
        // No table functions are registered on the distributed facade.
        let no_funcs = HashMap::new();
        let mut p = Planner::new(
            &self.shadow,
            dh.as_ref().map(|h| h as &dyn CardinalityHints),
            &no_funcs,
        )
        .with_sys(sys_snap);
        let plan = p.plan_select(s, temp)?;
        Ok((plan, p.info))
    }

    /// The hint view distributed planning consults: the raw store bridged
    /// through [`DistHints`] so `EXCHANGE(...)`-keyed actuals reach the
    /// planner's scan-level estimates (and thereby its access-path and
    /// join-order decisions). `None` with no plan store installed.
    fn dist_hints(&self) -> Option<DistHints<'_>> {
        let inner = self.session.hints.as_deref()?;
        Some(DistHints {
            inner,
            shard_sets: self.shard_set_strings(),
        })
    }

    /// The shard-set spellings a `SCAN(...)` key may appear under in the
    /// plan store: the full scatter set first, then each single shard.
    fn shard_set_strings(&self) -> Vec<String> {
        let all: Vec<String> = self
            .cluster
            .shard_map()
            .all()
            .map(|s| s.raw().to_string())
            .collect();
        let mut shard_sets = vec![all.join(",")];
        shard_sets.extend(all);
        shard_sets
    }

    /// Precompute the drift probes for a freshly planned statement: every
    /// planner `SCAN(...)` key is expanded to the `EXCHANGE(...)` spellings
    /// the distributed observer captures under.
    fn drift_probes_for(&self, plan: &PlanNode) -> Vec<(Vec<String>, f64)> {
        let shard_sets = self.shard_set_strings();
        hdm_sql::prepared::drift_probes(plan)
            .into_iter()
            .map(|(mut keys, est)| {
                let text = keys[0].clone();
                if text.starts_with("SCAN(") {
                    keys.extend(
                        shard_sets
                            .iter()
                            .map(|set| format!("EXCHANGE({text}, SHARDS({set}))")),
                    );
                }
                (keys, est)
            })
            .collect()
    }

    /// The annotation half of [`Facade::bind_tree`], with no hint lookup.
    fn distribute(&self, plan: &mut PlanNode) -> Scope {
        let mut single: Vec<(ShardId, u32)> = Vec::new();
        let mut scattered = false;
        annotate(
            plan,
            &|canon, predicate| {
                let meta = self.meta.get(canon)?;
                Some(match self.prune_shards(*meta, predicate) {
                    Pruned::Single(shard, prefix) => (vec![shard.raw()], Some((shard, prefix))),
                    Pruned::All => (
                        self.cluster.shard_map().all().map(|s| s.raw()).collect(),
                        None,
                    ),
                })
            },
            &|table, ix_id| {
                Some(
                    self.shadow
                        .get(table)
                        .ok()?
                        .indexes()
                        .get(ix_id)?
                        .key_columns()
                        .to_vec(),
                )
            },
            &mut single,
            &mut scattered,
        );
        match (&single[..], scattered) {
            ([], false) => Scope::Multi, // no distributed scans at all
            (all_single, false) => {
                let first = all_single[0];
                if all_single.iter().all(|(s, _)| *s == first.0) {
                    Scope::Single(first.1)
                } else {
                    Scope::Multi
                }
            }
            (_, true) => Scope::Multi,
        }
    }

    /// [`lower`]'s program, routed by its table's [`Exchange`], when it is
    /// `Project? → SeqScan` of one distributed table. Anything else (a
    /// limit, whose text names the pruned shards, an index probe, joins,
    /// aggregates) keeps the tree executor, still without re-planning.
    fn lower_routed(&self, plan: &PlanNode) -> Option<LinearSelect> {
        let unlimited = !matches!(plan.op, PlanOp::Limit { .. });
        let routed = |p: &LinearSelect| matches!(p.access, Access::Scan { .. });
        let mut prog = unlimited.then(|| lower(plan)).flatten().filter(routed)?;
        let meta = self.meta.get(&prog.table)?;
        let shards = self.cluster.shard_map().all().map(|s| s.raw()).collect();
        let ex = Exchange::new(&prog.scan, meta.shard_col, meta.prefix, shards);
        prog.exchange = Some(ex);
        Some(prog)
    }

    /// Plan (and annotate) a SELECT without executing — exposes the
    /// distributed shape to tests and the bench harness.
    pub fn plan_only(&mut self, sql: &str) -> Result<PlanNode> {
        self.plan_sql(sql)
    }

    fn begin_scoped(&mut self, scope: Scope) -> Result<Txn> {
        match scope {
            Scope::Single(prefix) => {
                self.counters.single_shard_stmts += 1;
                self.cluster.begin(TxnOptions::single(prefix))
            }
            Scope::Multi => {
                self.counters.multi_shard_stmts += 1;
                self.cluster.begin(TxnOptions::multi())
            }
        }
    }

    /// Borrow the state one statement's legs run against.
    fn dist_exec<'a>(
        &'a mut self,
        txn: &'a mut Txn,
        profiled: bool,
        sys: Option<&'a SysSnapshot>,
    ) -> DistExec<'a> {
        DistExec {
            cluster: &mut self.cluster,
            txn,
            tel: self.tel.as_ref(),
            counters: &mut self.counters,
            clock: profiled.then_some(&*self.session.clock),
            exchange_legs: Vec::new(),
            cur_stmt: self.cur_stmt,
            faults: self.faults.as_deref(),
            sys,
        }
    }

    /// A SELECT's commit: abort `txn` when its executor failed, else commit
    /// it and close the statement's profile, if any, with the cluster's
    /// footer — scope, GTM interactions since `gtm_before` (the commit's
    /// included) and the 2PC legs the commit drove.
    fn commit_select(
        &mut self,
        txn: Txn,
        rows: Result<Vec<Row>>,
        scope: Scope,
        prof: Option<StmtProfiler<'_>>,
        gtm_before: u64,
    ) -> Result<(Vec<Row>, Option<StatementProfile>)> {
        let rows = match rows {
            Ok(rows) => rows,
            Err(e) => {
                self.cluster.abort(txn)?;
                return Err(e);
            }
        };
        let twopc_legs = match &prof {
            Some(_) if !txn.is_single_shard() => txn.leg_count() as u64,
            _ => 0,
        };
        self.cluster.commit(txn)?;
        let profile = prof.map(|p| {
            let gtm = self
                .cluster
                .counters()
                .gtm_interactions
                .saturating_sub(gtm_before);
            let scope = match scope {
                Scope::Single(_) => "single",
                Scope::Multi => "multi",
            };
            self.session
                .finish_profile(p, scope, rows.len(), gtm, twopc_legs)
        });
        Ok((rows, profile))
    }

    /// Shard pruning (the tentpole rule): walk the predicate's top-level AND
    /// conjuncts; an equality between the distribution column and an INT
    /// literal pins the scan to one shard. A top-level OR — or no usable
    /// conjunct — scatters to every shard.
    fn prune_shards(&self, meta: DistMeta, predicate: Option<&SExpr>) -> Pruned {
        let Some(pred) = predicate else {
            return Pruned::All;
        };
        let mut conjuncts = Vec::new();
        collect_conjuncts(pred, &mut conjuncts);
        for c in conjuncts {
            if let SExpr::Binary(BinOp::Eq, l, r) = c {
                let col_lit = match (l.as_ref(), r.as_ref()) {
                    (SExpr::Col(c), SExpr::Lit(Datum::Int(v)))
                    | (SExpr::Lit(Datum::Int(v)), SExpr::Col(c)) => Some((*c, *v)),
                    _ => None,
                };
                if let Some((col, v)) = col_lit {
                    if col == meta.shard_col {
                        let (shard, prefix) = self.route_value(meta.prefix, v);
                        return Pruned::Single(shard, prefix);
                    }
                }
            }
        }
        Pruned::All
    }
}

/// The distributed engine's hooks: plan against the shadow catalog,
/// annotate for distribution, run cached linear scans flat with their
/// routing, and run every statement in the transaction its shards imply.
impl Facade for DistDb {
    type Scope = Scope;

    fn session(&self) -> &Session {
        &self.session
    }

    fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    fn catalog(&self) -> &Catalog {
        &self.shadow
    }

    /// Plan a SELECT and annotate it for distribution. Returns the plan,
    /// planning info (including distributed-key hint hits), and the
    /// transaction scope the fragments imply.
    fn plan_select(
        &mut self,
        s: &SelectStmt,
        sys: Option<&SysSnapshot>,
    ) -> Result<(PlanNode, PlanningInfo, Scope)> {
        // Materialize CTEs first, each as its own scoped statement.
        let mut temp: TempRels = TempRels::new();
        for (name, sub) in &s.with {
            let (plan, _, scope) = self.plan_annotated(sub, &temp, sys)?;
            let info = PlanningInfo::default();
            let rows = self.run_plan(&plan, info, scope, sys, None)?.rows;
            temp.insert(name.to_ascii_lowercase(), (plan.schema.clone(), rows));
        }
        self.plan_annotated(s, &temp, sys)
    }

    /// The cached plan is logical and **un-annotated**: canonicalizable
    /// statements reference no `sys.*` views and no CTEs, and pruning must
    /// wait for bound parameter values anyway.
    fn plan_cacheable(&mut self, s: &SelectStmt, n_params: usize) -> Result<CachedPlan> {
        let (plan, _) = self.plan_logical(s, &TempRels::new(), None)?;
        let program = self.lower_routed(&plan);
        // Drift is judged under the distributed EXCHANGE keys the probes
        // are expanded to, so a re-plan adopts the observed cardinalities.
        let drift = self.drift_probes_for(&plan);
        Ok(CachedPlan::new(plan, n_params, program, drift))
    }

    /// Annotate a logical plan for distribution — base-table scans become
    /// pruned `Exchange` leaves — re-consult hints under the *distributed*
    /// canonical keys (the plan store learns `EXCHANGE(...)` cardinalities
    /// separately from local `SCAN(...)` ones), and derive the statement's
    /// transaction scope.
    fn bind_tree(&self, plan: &mut PlanNode, info: &mut PlanningInfo) -> Scope {
        let scope = self.distribute(plan);
        if let Some(h) = &self.session.hints {
            rehint_exchanges(plan, h.as_ref(), info);
        }
        scope
    }

    /// The tree SELECT driver: run an already-planned, annotated tree inside
    /// the transaction its `scope` implies, commit, and feed the plan store.
    /// `profiled` (statement start time + SQL text) makes the operator
    /// profiler ride along — same plan, rows and observation list, plus a
    /// [`StatementProfile`] carrying per-operator actuals, per-shard
    /// Exchange legs, the statement's GTM-interaction delta (commit
    /// included) and its 2PC leg count, which `EXPLAIN ANALYZE` renders and
    /// the flight recorder keeps. Without it the clock is never read.
    fn run_plan(
        &mut self,
        plan: &PlanNode,
        planning: PlanningInfo,
        scope: Scope,
        sys: Option<&SysSnapshot>,
        profiled: Option<(u64, &str)>,
    ) -> Result<QueryResult> {
        let gtm_before = self.cluster.counters().gtm_interactions;
        let mut prof = self.session.profiler(profiled);
        let mut txn = self.begin_scoped(scope)?;
        let mut steps = Vec::new();
        let rows = {
            let mut be = self.dist_exec(&mut txn, prof.is_some(), sys);
            hdm_sql::exec::execute(plan, &mut be, &mut steps, prof.as_mut().map(|p| &mut p.ops))
        };
        let (rows, profile) = self.commit_select(txn, rows, scope, prof, gtm_before)?;
        let columns = output_columns(plan);
        Ok(self
            .session
            .finish_select(columns, rows, steps, planning, profile))
    }

    /// The flat hot path: prune from the bound predicate, open the
    /// narrowest transaction, and scatter/gather through the tree path's
    /// own `DistExec::run_leg` (same fault ticks, spans and counters), with
    /// no plan tree above it. A profile's operators are the bound and
    /// annotated plan's nodes, its legs come from the leg clock.
    fn run_program(
        &mut self,
        cached: &CachedPlan,
        prog: &LinearSelect,
        params: &[Datum],
        replans: u64,
        profiled: Option<(u64, &str)>,
    ) -> Result<QueryResult> {
        let (Access::Scan { param_eq }, Some(ex)) = (&prog.access, &prog.exchange) else {
            unreachable!("the distributed engine caches routed scans only");
        };
        // The pre-lowered `col = ?N` shape skips expression substitution
        // entirely: the bound datum is the comparison value and the shard
        // route. NULL never satisfies `=`, so a NULL binding — like every
        // other shape — substitutes and re-prunes generically.
        let eq: Option<(usize, &Datum)> = param_eq
            .map(|(col, idx)| (col, &params[idx as usize]))
            .filter(|(_, v)| !v.is_null());
        let bound = prog.bind(params, eq.is_some())?;
        let pred = bound.pred.as_deref();
        let pruned = match eq {
            Some((col, Datum::Int(v))) if col == ex.column => {
                let (shard, prefix) = self.route_value(ex.prefix, *v);
                Pruned::Single(shard, prefix)
            }
            _ if param_eq.is_some() => Pruned::All,
            _ => {
                let meta = DistMeta {
                    shard_col: ex.column,
                    prefix: ex.prefix,
                };
                self.prune_shards(meta, pred)
            }
        };
        let single;
        let (scope, shards, ex_text) = match &pruned {
            Pruned::Single(s, prefix) => {
                single = s.raw();
                let text = ex.text(Some(single));
                (Scope::Single(*prefix), std::slice::from_ref(&single), text)
            }
            Pruned::All => (Scope::Multi, &ex.shards[..], ex.text(None)),
        };
        if shards.len() <= 1 {
            self.counters.pruned_scans += 1;
        } else {
            self.counters.scatter_scans += 1;
        }
        let hints = self.session.hints.as_deref();
        let (ests, planning) = prog.rehint(hints, Some(ex_text), replans);
        let bound_plan = profiled
            .map(|_| prog.profile_plan(&cached.plan, params, ests))
            .transpose()?
            .map(|mut plan| {
                self.distribute(&mut plan);
                plan
            });
        let gtm_before = self.cluster.counters().gtm_interactions;
        let mut prof = self.session.profiler(profiled);
        let mut txn = self.begin_scoped(scope)?;
        let mut chain = prof
            .as_mut()
            .zip(bound_plan.as_ref())
            .map(|(p, b)| ChainProfiler::new(&mut p.ops, b));
        // Each leg's rows go straight into the result, projected on the way.
        let mut rows: Vec<Row> = Vec::new();
        let mut be = self.dist_exec(&mut txn, chain.is_some(), None);
        let scanned = shards.iter().try_for_each(|&raw| {
            be.run_leg(&prog.table, ShardId::new(raw), None, eq, pred, |_, row| {
                rows.push(bound.project(row)?);
                Ok(())
            })
            .map(drop)
        });
        let legs = be.take_exchange_profile();
        let mut steps = Vec::new();
        let rows = scanned.map(|()| {
            steps = prog.finish(&mut rows, ex_text, ests, chain.as_mut(), legs);
            rows
        });
        drop(chain);
        let (rows, profile) = self.commit_select(txn, rows, scope, prof, gtm_before)?;
        let columns = Arc::clone(&cached.columns);
        Ok(self
            .session
            .finish_select(columns, rows, steps, planning, profile))
    }

    fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        // Distribution column: the first column, hash-distributed by value.
        match schema.columns().first().map(|c| c.data_type) {
            Some(hdm_common::DataType::Int) => {}
            _ => {
                return Err(HdmError::Unsupported(format!(
                    "distributed table {name} needs an INT first column (the distribution key)"
                )))
            }
        }
        self.shadow.create_table(name, schema.clone())?;
        let canon = name.to_ascii_lowercase();
        for shard in self.cluster.shard_map().all().collect::<Vec<_>>() {
            // Routed through the cluster so the DDL also lands on the
            // shard's replication log (replicas replay it before any rows).
            self.cluster
                .create_sql_table_on(shard, &canon, schema.clone())?;
        }
        self.meta.insert(
            canon,
            DistMeta {
                shard_col: 0,
                prefix: value_prefix,
            },
        );
        Ok(())
    }

    /// Register the index on the CN's shadow catalog (making it
    /// planner-visible) and create the backing index on every shard's data
    /// node, routed through the cluster so the DDL also lands on each
    /// shard's replication log — a promoted replica replays it before any
    /// rows and keeps the probe path intact after failover.
    fn create_index(&mut self, table: &str, columns: Vec<usize>) -> Result<()> {
        let (canon, _) = self.writable(table)?;
        self.shadow.get_mut(&canon)?.create_index(columns.clone())?;
        for shard in self.cluster.shard_map().all().collect::<Vec<_>>() {
            self.cluster
                .create_sql_index_on(shard, &canon, columns.clone())?;
        }
        Ok(())
    }

    /// A table SQL may write is placed by its distribution column.
    fn dml_placement(&self, table: &str) -> Result<Option<usize>> {
        self.writable(table).map(|(_, meta)| Some(meta.shard_col))
    }

    /// Route and write a bound statement. Its table was writable when it
    /// was bound, so it is placed by value on the column it was bound with:
    /// no name is looked up on the coordinator.
    fn run_dml(&mut self, dml: &BoundDml, params: &[Datum]) -> Result<u64> {
        let shard_col = dml.placement.ok_or_else(|| {
            HdmError::Plan(format!(
                "{} was bound without a distribution column",
                dml.table
            ))
        })?;
        let meta = DistMeta {
            shard_col,
            prefix: value_prefix,
        };
        match &dml.op {
            DmlOp::Insert(values) => self.insert_rows(&dml.table, meta, values, params),
            DmlOp::Update(sets) => self.run_dml_scan(
                dml,
                meta,
                params,
                |old| updated_row(sets, old, params),
                |node, t, xid, tid, new| node.sql_update(t, xid, tid, new).map(drop),
            ),
            DmlOp::Delete => self.run_dml_scan(
                dml,
                meta,
                params,
                |_| Ok(()),
                |node, t, xid, tid, ()| node.sql_delete(t, xid, tid),
            ),
        }
    }

    /// Distributed ANALYZE: every up node recomputes its local statistics,
    /// then the CN merges the per-shard blocks onto its shadow catalog so
    /// the planner costs from data-node truth.
    fn analyze(&mut self, table: Option<&str>) -> Result<()> {
        let shards: Vec<ShardId> = self.cluster.shard_map().all().collect();
        for &shard in &shards {
            if self.cluster.is_node_up(shard) {
                self.cluster.node_mut(shard).analyze_all();
            }
        }
        let names: Vec<String> = match table {
            Some(t) => vec![t.to_ascii_lowercase()],
            None => self.meta.keys().cloned().collect(),
        };
        for name in names {
            let mut per_shard: Vec<&TableStats> = Vec::new();
            for &shard in &shards {
                if !self.cluster.is_node_up(shard) {
                    continue;
                }
                let node = self.cluster.node(shard);
                if let Some(s) = node.sql_table(&name).ok().and_then(|t| t.stats()) {
                    per_shard.push(s);
                }
            }
            let merged = merge_stats(&per_shard);
            self.shadow.get_mut(&name)?.set_stats(merged);
        }
        Ok(())
    }

    /// The views answered from live cluster state, frozen at statement
    /// start.
    fn sys_rows(&self, view: &str) -> Vec<Row> {
        match view {
            "sys.metrics" => {
                // The journal always exists here, so `events.dropped` always
                // rides along.
                let tel = self.tel.as_ref();
                let mut snap = tel.map(|t| t.metrics.snapshot()).unwrap_or_default();
                snap.counters
                    .insert("events.dropped".into(), self.cluster.events_dropped());
                self.session.metric_rows(snap)
            }
            "sys.shards" => self.shard_rows(),
            "sys.txns" => self
                .cluster
                .shard_map()
                .all()
                .flat_map(|s| sys::txn_rows(Datum::Int(s.raw() as i64), self.cluster.node(s).mgr()))
                .collect(),
            "sys.events" => self.event_rows(),
            "sys.indexes" => self.index_rows(),
            "sys.config" => self
                .session
                .config_rows(self.cluster_config_rows(), Some(self.retry.is_some())),
            _ => Vec::new(),
        }
    }

    /// Regressions the history hook finds are journaled as
    /// `history.regression` events.
    fn after_statement(&mut self) {
        let found = self
            .session
            .maybe_capture_history(|| engine_state(self.tel.as_ref(), &self.cluster));
        // Skipping the call when nothing was found is measurable on point reads.
        if !found.is_empty() {
            self.journal(found);
        }
    }

    fn run_opts(&mut self, sql: &str, opts: ExecOptions) -> Result<QueryResult> {
        match opts.stmt_id {
            Some(id) => self.run_idempotent(sql, id),
            None if opts.retry || opts.idempotent => self.run_retrying(sql),
            None => self.execute(sql),
        }
    }
}

/// Pruning outcome for one scan.
enum Pruned {
    Single(ShardId, u32),
    All,
}

/// The one construction site for "shard is down" errors, carrying the
/// statement's idempotence key when the coordinator has one. Without a
/// statement id the text is byte-identical to the pre-replication error —
/// regression-pinned by `tests/dist_failover.rs`.
fn shard_down(shard: ShardId, stmt: Option<u64>) -> HdmError {
    HdmError::Unavailable(match stmt {
        Some(id) => format!("{shard} is down (stmt {id})"),
        None => format!("{shard} is down"),
    })
}

/// A fragment headed for a down shard may fail over inline **iff** the
/// transaction holds no leg there yet — an open leg's XID lives in the dead
/// primary's local namespace and cannot migrate to the promoted replica, so
/// such statements abort and retry instead. Returns whether a follower was
/// promoted (with replicas disabled this is always `false`).
fn leg_failover(cluster: &mut Cluster, txn: &Txn, shard: ShardId) -> Result<bool> {
    if txn.lite_ctx(shard).is_some() {
        return Ok(false);
    }
    cluster.try_failover(shard)
}

/// Match an expression of shape `col = literal` (either operand order).
fn col_eq_value(e: &SExpr) -> Option<(usize, &Datum)> {
    let SExpr::Binary(BinOp::Eq, l, r) = e else {
        return None;
    };
    match (l.as_ref(), r.as_ref()) {
        (SExpr::Col(c), SExpr::Lit(v)) | (SExpr::Lit(v), SExpr::Col(c)) => Some((*c, v)),
        _ => None,
    }
}

/// The first top-level AND conjunct of shape `col = non-NULL literal` whose
/// column has a single-column index (`ix_on` resolves key columns to a
/// DN-local index id): that index answers the fragment with a probe, and the
/// whole predicate is still applied to the hits.
fn indexed_eq<'a>(
    e: &'a SExpr,
    ix_on: &dyn Fn(&[usize]) -> Option<usize>,
) -> Option<(usize, &'a Datum)> {
    if let SExpr::Binary(BinOp::And, l, r) = e {
        return indexed_eq(l, ix_on).or_else(|| indexed_eq(r, ix_on));
    }
    let (col, v) = col_eq_value(e)?;
    if v.is_null() {
        return None; // NULL never satisfies `=`; leave it to the evaluator.
    }
    Some((ix_on(&[col])?, v))
}

/// Advance an installed fault script by one execution tick: apply the ops
/// scheduled for this tick, then ship a bounded batch of replication
/// records so followers catch up on the same deterministic cadence.
fn tick_faults(cluster: &mut Cluster, faults: Option<&RefCell<FaultScript>>) -> Result<()> {
    let Some(script) = faults else {
        return Ok(());
    };
    let ops = {
        let mut s = script.borrow_mut();
        let t = s.tick;
        s.tick += 1;
        s.schedule.remove(&t)
    };
    if let Some(ops) = ops {
        for op in ops {
            match op {
                FaultOp::Crash(s) => cluster.crash_node(ShardId::new(s)),
                FaultOp::Restart(s) => cluster.restart_node(ShardId::new(s)),
            }
        }
    }
    cluster.pump_replication(REPL_RECORDS_PER_TICK)?;
    Ok(())
}

/// The cluster's share of a history capture: the telemetry registry's
/// snapshot and one health row per shard.
fn engine_state(tel: Option<&Telemetry>, cluster: &Cluster) -> EngineState {
    let lags = cluster.shard_lags();
    let shards = cluster
        .shard_map()
        .all()
        .map(|shard| ShardWindowStat {
            shard: shard.raw(),
            up: cluster.is_node_up(shard),
            epoch: cluster.epoch_of(shard),
            lag: lags.get(shard.raw() as usize).copied().unwrap_or(0),
        })
        .collect();
    (tel.map(|t| t.metrics.snapshot()), shards)
}

/// Pruning oracle passed to [`annotate`]: shard list plus the single-shard
/// pin (if the predicate pinned the scan), or `None` for non-distributed
/// relations (CTEs, temp rels) which stay as local scans.
type ShardsOf<'a> = dyn Fn(&str, Option<&SExpr>) -> Option<(Vec<u64>, Option<(ShardId, u32)>)> + 'a;

/// Index oracle passed to [`annotate`]: the key columns of a shadow-catalog
/// index, so the `Exchange` probe is keyed by column positions — DN-local
/// index ids differ from shadow ids (data nodes auto-index their shard key)
/// and each leg re-resolves its own index by key columns.
type KeyColsOf<'a> = dyn Fn(&str, usize) -> Option<Vec<usize>> + 'a;

/// Rewrite every base-table scan on a distributed table into an `Exchange`
/// leaf, recording the single-shard pins and whether anything scattered.
/// Index access paths become Exchanges carrying a probe, with the consumed
/// conjuncts folded back into the leg predicate — pruning, canonical text
/// and result rows stay identical to the sequential rendering, the probe
/// only changes how each DN leg fetches candidates.
fn annotate(
    node: &mut PlanNode,
    shards_of: &ShardsOf<'_>,
    key_cols: &KeyColsOf<'_>,
    single: &mut Vec<(ShardId, u32)>,
    scattered: &mut bool,
) {
    for c in &mut node.children {
        annotate(c, shards_of, key_cols, single, scattered);
    }
    let mut pin = |p: Option<(ShardId, u32)>, single: &mut Vec<(ShardId, u32)>| match p {
        Some(p) => single.push(p),
        None => *scattered = true,
    };
    let replacement = match &node.op {
        PlanOp::SeqScan { table, predicate } => {
            shards_of(table, predicate.as_ref()).map(|(shards, p)| {
                pin(p, single);
                PlanOp::Exchange {
                    table: table.clone(),
                    predicate: predicate.clone(),
                    shards,
                    probe: None,
                }
            })
        }
        PlanOp::IndexScan {
            table,
            index_id,
            key_exprs,
            key_values,
            residual,
        } => {
            let mut conj = key_exprs.clone();
            conj.extend(residual.clone());
            let predicate = and_all(conj);
            shards_of(table, predicate.as_ref()).map(|(shards, p)| {
                pin(p, single);
                PlanOp::Exchange {
                    table: table.clone(),
                    predicate,
                    shards,
                    probe: key_cols(table, *index_id).map(|columns| ExchangeProbe::Eq {
                        columns,
                        key: key_values.clone(),
                    }),
                }
            })
        }
        PlanOp::IndexRange {
            table,
            index_id,
            bound_exprs,
            lo,
            hi,
            residual,
        } => {
            let mut conj = bound_exprs.clone();
            conj.extend(residual.clone());
            let predicate = and_all(conj);
            shards_of(table, predicate.as_ref()).map(|(shards, p)| {
                pin(p, single);
                PlanOp::Exchange {
                    table: table.clone(),
                    predicate,
                    shards,
                    probe: key_cols(table, *index_id)
                        .and_then(|columns| columns.first().copied())
                        .map(|column| ExchangeProbe::Range {
                            column,
                            lo: lo.clone(),
                            hi: hi.clone(),
                        }),
                }
            })
        }
        _ => None,
    };
    if let Some(op) = replacement {
        node.op = op;
    }
}

/// Bridge the plan store's distributed keys back into scan-level planning.
///
/// The planner consults local `SCAN(...)` canonical texts, but distributed
/// executions observe under `EXCHANGE(SCAN(...), SHARDS(...))` keys. On a
/// miss of the local key, retry under each shard-set rendering this cluster
/// can produce — the full scatter set first, then each single shard — so
/// captured actuals reach the planner's access-path and join-order
/// decisions, and a drift-triggered re-plan adopts them (converging the
/// drift ratio back to 1).
struct DistHints<'a> {
    inner: &'a dyn CardinalityHints,
    /// Pre-rendered shard lists: `"0,1,2,3"`, then `"0"`, `"1"`, ...
    shard_sets: Vec<String>,
}

impl CardinalityHints for DistHints<'_> {
    fn generation(&self) -> Option<u64> {
        self.inner.generation()
    }

    fn lookup(&self, step_text: &str) -> Option<u64> {
        if let Some(v) = self.inner.lookup(step_text) {
            return Some(v);
        }
        if !step_text.starts_with("SCAN(") {
            return None;
        }
        self.shard_sets.iter().find_map(|s| {
            self.inner
                .lookup(&format!("EXCHANGE({step_text}, SHARDS({s}))"))
        })
    }
}

/// Second hint pass over the annotated plan: look each `Exchange` up under
/// its distributed canonical text and adopt the observed cardinality.
fn rehint_exchanges(node: &mut PlanNode, hints: &dyn CardinalityHints, info: &mut PlanningInfo) {
    for c in &mut node.children {
        rehint_exchanges(c, hints, info);
    }
    if matches!(node.op, PlanOp::Exchange { .. }) {
        if let Some(text) = node.canonical() {
            if let Some(actual) = hints.lookup(&text) {
                node.set_est_rows(actual as f64);
                info.hint_hits += 1;
            }
        }
    }
}

fn collect_conjuncts<'a>(e: &'a SExpr, out: &mut Vec<&'a SExpr>) {
    match e {
        SExpr::Binary(BinOp::And, l, r) => {
            collect_conjuncts(l, out);
            collect_conjuncts(r, out);
        }
        other => out.push(other),
    }
}

/// Merge per-shard statistics into one CN-side block: row and null counts
/// sum, min/max widen, distinct counts sum (an upper bound — shards hash-
/// partition rows, so a value lives on one shard and the sum is exact for
/// the distribution column, pessimistic elsewhere) capped at the row count.
fn merge_stats(per_shard: &[&TableStats]) -> TableStats {
    let mut merged = TableStats::default();
    for s in per_shard {
        merged.row_count += s.row_count;
        if merged.columns.len() < s.columns.len() {
            merged
                .columns
                .resize_with(s.columns.len(), ColumnStats::default);
        }
        for (m, c) in merged.columns.iter_mut().zip(&s.columns) {
            m.distinct += c.distinct;
            m.null_count += c.null_count;
            m.min = match (m.min.take(), c.min.clone()) {
                (Some(a), Some(b)) => Some(if b < a { b } else { a }),
                (a, b) => a.or(b),
            };
            m.max = match (m.max.take(), c.max.clone()) {
                (Some(a), Some(b)) => Some(if b > a { b } else { a }),
                (a, b) => a.or(b),
            };
        }
    }
    for m in &mut merged.columns {
        m.distinct = m.distinct.min(merged.row_count);
    }
    merged
}

/// The CN-side scatter-gather backend: `Exchange` leaves fan out to data
/// nodes, everything above them (joins, aggregation, sorts) runs on the CN;
/// an aggregate consumes each leg's rows as the leg visits them, others
/// take the gathered rows. Every statement — tree SELECT, flat program,
/// UPDATE/DELETE, INSERT — dispatches its per-shard work through
/// [`Self::run_leg`] / [`Self::open_leg`].
struct DistExec<'a> {
    cluster: &'a mut Cluster,
    txn: &'a mut Txn,
    tel: Option<&'a Telemetry>,
    counters: &'a mut DistCounters,
    /// Present when the statement is profiled: fragment times are stamped
    /// on it and per-shard legs accumulate in `exchange_legs`.
    clock: Option<&'a dyn Clock>,
    exchange_legs: Vec<ShardLeg>,
    /// The statement's idempotence key, threaded into `shard is down`
    /// errors so retried statements are traceable end to end.
    cur_stmt: Option<u64>,
    /// Fault script ticked per fragment dispatch (owned by the DistDb).
    faults: Option<&'a RefCell<FaultScript>>,
    /// The statement's frozen `sys.*` snapshot; sys scans stay CN-local
    /// (they never annotate into Exchange legs) and are served from here.
    sys: Option<&'a SysSnapshot>,
}

impl DistExec<'_> {
    /// Leg prologue: advance the fault script one tick, give a down shard
    /// its one inline failover chance, open the multi-shard leg on first
    /// touch, and return the local xid the fragment runs as. Its snapshot
    /// is the transaction's, borrowed through [`Txn::lite_ctx`].
    fn open_leg(&mut self, shard: ShardId) -> Result<Xid> {
        tick_faults(self.cluster, self.faults)?;
        if !self.cluster.is_node_up(shard) {
            if leg_failover(self.cluster, self.txn, shard)? {
                self.counters.failovers += 1;
            } else {
                return Err(shard_down(shard, self.cur_stmt));
            }
        }
        if !self.txn.is_single_shard() {
            self.cluster.ensure_leg(self.txn, shard)?;
        }
        let xid = self.txn.lite_ctx(shard).map(|(xid, _)| xid);
        xid.ok_or_else(|| {
            HdmError::TxnState(format!(
                "fragment on {shard} outside the transaction's scope"
            ))
        })
    }

    /// Insert `row` into `table` on `shard` through [`Self::open_leg`].
    fn insert_row(&mut self, table: &str, shard: ShardId, row: Row) -> Result<()> {
        let xid = self.open_leg(shard)?;
        let node = self.cluster.node_mut(shard);
        node.sql_insert(node.table_id(table)?, xid, row).map(drop)
    }

    /// Run one fragment on one shard: [`Self::open_leg`], then fetch the
    /// candidates under the leg's snapshot, keep those passing `predicate`
    /// (or, with no predicate, the pre-lowered `eq` column/value pair) and
    /// hand each to `emit` in heap order; an error from `emit` ends the leg
    /// with that error. Returns the leg's local xid.
    ///
    /// The access path is resolved against this DN's own index set — ids
    /// differ per node (data nodes auto-index their shard key), so indexes
    /// are looked up by key *columns*: the planner's `probe` if a local
    /// index serves it, else an index on the `eq` column, else an index on
    /// a top-level `col = literal` conjunct of `predicate`, else a full
    /// shard scan. A leg missing the index (e.g. a follower promoted before
    /// the DDL replayed) scans; the filter keeps results identical.
    fn run_leg(
        &mut self,
        table: &str,
        shard: ShardId,
        probe: Option<&ExchangeProbe>,
        eq: Option<(usize, &Datum)>,
        predicate: Option<&SExpr>,
        mut emit: impl FnMut(TupleId, &Row) -> Result<()>,
    ) -> Result<Xid> {
        let xid = self.open_leg(shard)?;
        let span = self.tel.map(|t| {
            let s = t.tracer.begin("plan.fragment");
            t.tracer.field(s, "shard", shard);
            t.tracer.field(s, "table", table);
            (t, s)
        });
        let leg_clock = self.clock.map(|c| (c, c.now_us()));
        let mut fragment_rows = 0u64;
        // An error (a predicate's, or `emit`'s when the consumer fails)
        // still counts the leg and closes its span before it propagates.
        let scanned = (|| -> Result<()> {
            let node = self.cluster.node(shard);
            let (_, snap) = self.txn.lite_ctx(shard).expect("open_leg checked the leg");
            let judge =
                MemoVisibility::new(SnapshotVisibility::new(snap, node.mgr().clog(), Some(xid)));
            let t = node.sql_table(table)?;
            let ix_on = |cols: &[usize]| t.indexes().iter().position(|ix| ix.key_columns() == cols);
            let mut visit = |tid: TupleId, row: &Row| -> Result<()> {
                let keep = match (predicate, eq) {
                    (Some(p), _) => p.eval_filter(row.values())?,
                    (None, Some((col, v))) => row.values().get(col) == Some(v),
                    (None, None) => true,
                };
                if keep {
                    emit(tid, row)?;
                    fragment_rows += 1;
                }
                Ok(())
            };
            // Probed legs visit their hits in ascending tid = heap-scan
            // order, so they yield byte-identical rows to scanned ones: an
            // equality probe walks its posting list in place, a range probe
            // collects and sorts its hits.
            let eq_probe = match probe {
                Some(ExchangeProbe::Eq { columns, key }) => ix_on(columns).map(|ix| (ix, &key[..])),
                Some(ExchangeProbe::Range { .. }) => None,
                None => match eq {
                    Some((col, v)) => ix_on(&[col]).map(|ix| (ix, v)),
                    None => predicate.and_then(|p| indexed_eq(p, &ix_on)),
                }
                .map(|(ix, v)| (ix, std::slice::from_ref(v))),
            };
            let range_hits = match probe {
                Some(ExchangeProbe::Range { column, lo, hi }) => ix_on(&[*column]).map(|ix| {
                    let lo_k = hdm_sql::backend::bound_key(lo);
                    let hi_k = hdm_sql::backend::bound_key(hi);
                    t.range_probe(
                        ix,
                        hdm_sql::backend::bound_ref(&lo_k),
                        hdm_sql::backend::bound_ref(&hi_k),
                        &judge,
                    )
                }),
                _ => None,
            }
            .transpose()?;
            if let Some((ix, key)) = eq_probe {
                t.probe_each(ix, key, &judge, &mut visit)?;
                self.counters.index_probes += 1;
            } else if let Some(mut hits) = range_hits {
                hits.sort_unstable_by_key(|&(tid, _)| tid);
                for (tid, row) in hits {
                    visit(tid, row)?;
                }
                self.counters.index_probes += 1;
            } else {
                for (tid, row) in t.scan(&judge) {
                    visit(tid, row)?;
                }
            }
            Ok(())
        })();
        self.counters.fragments_run += 1;
        self.counters.rows_exchanged += fragment_rows;
        if let Some((c, start)) = leg_clock {
            self.exchange_legs.push(ShardLeg {
                shard: shard.raw(),
                rows: fragment_rows,
                time_us: c.now_us().saturating_sub(start),
            });
        }
        if let Some((t, s)) = span {
            t.tracer.field(s, "rows", fragment_rows);
            t.tracer.end(s);
        }
        scanned.map(|()| xid)
    }
}

impl ExecBackend for DistExec<'_> {
    fn scan(
        &mut self,
        table: &str,
        predicate: Option<&SExpr>,
        emit: &mut dyn FnMut(&Row) -> Result<()>,
    ) -> Result<u64> {
        if let Some(snapshot) = self.sys {
            if sys::is_sys_view(table) {
                return hdm_sql::backend::scan_sys_rows(snapshot, table, predicate, emit);
            }
        }
        Err(HdmError::Plan(format!(
            "un-annotated local scan of {table} reached the distributed backend"
        )))
    }

    fn point_get(
        &mut self,
        table: &str,
        _index_id: usize,
        _key_values: &[Datum],
        _residual: Option<&SExpr>,
    ) -> Result<Vec<Row>> {
        Err(HdmError::Plan(format!(
            "index probe of {table} reached the distributed backend"
        )))
    }

    fn scan_shards(
        &mut self,
        table: &str,
        predicate: Option<&SExpr>,
        shards: &[u64],
        probe: Option<&ExchangeProbe>,
        emit: &mut dyn FnMut(&Row) -> Result<()>,
    ) -> Result<u64> {
        if shards.len() <= 1 {
            self.counters.pruned_scans += 1;
        } else {
            self.counters.scatter_scans += 1;
        }
        self.exchange_legs.clear();
        let mut n = 0;
        for &raw in shards {
            self.run_leg(
                table,
                ShardId::new(raw),
                probe,
                None,
                predicate,
                |_, row| {
                    n += 1;
                    emit(row)
                },
            )?;
        }
        Ok(n)
    }

    fn take_exchange_profile(&mut self) -> Vec<ShardLeg> {
        std::mem::take(&mut self.exchange_legs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ClusterConfig;

    fn dist(shards: usize) -> DistDb {
        DistDb::new(Cluster::new(ClusterConfig::gtm_lite(shards))).unwrap()
    }

    fn orders_stmts() -> [String; 2] {
        let values: Vec<String> = (0..200i64)
            .map(|i| format!("({}, {})", i % 16, i * 10))
            .collect();
        [
            "create table orders (cust int, amount int)".to_string(),
            format!("insert into orders values {}", values.join(", ")),
        ]
    }

    fn seed_orders(db: &mut DistDb) {
        for stmt in orders_stmts() {
            db.execute(&stmt).unwrap();
        }
    }

    #[test]
    fn baseline_cluster_rejected() {
        let c = Cluster::new(ClusterConfig::baseline(2));
        assert!(DistDb::new(c).is_err());
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut db = dist(4);
        seed_orders(&mut db);
        let total = db.execute("select count(*) from orders").unwrap().rows[0]
            .get(0)
            .and_then(Datum::as_int);
        assert_eq!(total, Some(200));
    }

    #[test]
    fn rows_actually_spread_across_shards() {
        let mut db = dist(4);
        seed_orders(&mut db);
        let populated = db
            .cluster()
            .shard_map()
            .all()
            .filter(|&s| {
                db.cluster()
                    .node(s)
                    .sql_table("orders")
                    .unwrap()
                    .heap()
                    .version_count()
                    > 0
            })
            .count();
        assert!(populated > 1, "hash routing left all rows on one shard");
    }

    #[test]
    fn shard_key_equality_prunes_to_one_leg() {
        let mut db = dist(4);
        seed_orders(&mut db);
        let plan = db
            .plan_only("select amount from orders where cust = 3")
            .unwrap();
        let text = plan.explain();
        assert!(text.contains("Exchange"), "no exchange in:\n{text}");
        let before = db.cluster().counters().gtm_interactions;
        let expected = (0..200i64).filter(|i| i % 16 == 3).count() as i64;
        let rows = db
            .execute("select count(*) from orders where cust = 3")
            .unwrap()
            .rows;
        assert_eq!(rows[0].get(0).and_then(Datum::as_int), Some(expected));
        assert_eq!(
            db.cluster().counters().gtm_interactions,
            before,
            "single-shard SELECT must not visit the GTM"
        );
        assert!(db.counters().pruned_scans >= 1);
    }

    #[test]
    fn multi_shard_aggregate_commits_via_2pc() {
        let mut db = dist(4);
        seed_orders(&mut db);
        let before = db.cluster().counters().multi_shard_commits;
        let rows = db.execute("select sum(amount) from orders").unwrap().rows;
        assert_eq!(
            rows[0].get(0).and_then(Datum::as_int),
            Some((0..200i64).map(|i| i * 10).sum())
        );
        assert!(
            db.cluster().counters().multi_shard_commits > before,
            "scatter-gather must commit through 2PC"
        );
        assert!(db.counters().scatter_scans >= 1);
    }

    #[test]
    fn update_and_delete_route_by_predicate() {
        let mut db = dist(4);
        seed_orders(&mut db);
        let expected = (0..200i64).filter(|i| i % 16 == 5).count() as u64;
        let probes = db.counters().index_probes;
        let r = db
            .execute("update orders set amount = 1 where cust = 5")
            .unwrap();
        assert_eq!(r.affected, expected);
        let rows = db
            .execute("select sum(amount) from orders where cust = 5")
            .unwrap()
            .rows;
        assert_eq!(
            rows[0].get(0).and_then(Datum::as_int),
            Some(expected as i64)
        );
        let r = db.execute("delete from orders where cust = 5").unwrap();
        assert_eq!(r.affected, expected);
        let rows = db.execute("select count(*) from orders").unwrap().rows;
        assert_eq!(
            rows[0].get(0).and_then(Datum::as_int),
            Some(200 - expected as i64)
        );
        assert_eq!(
            db.counters().index_probes,
            probes + 3,
            "key-equality UPDATE, SELECT and DELETE each probe the shard-key index"
        );

        // Predicates no index answers — a non-indexed column, an OR, and
        // `= NULL` — keep scanning, and touch the rows the embedded engine
        // touches.
        let mut local = hdm_sql::Database::new();
        let mut db = dist(4);
        seed_orders(&mut db);
        for stmt in orders_stmts() {
            local.execute(&stmt).unwrap();
        }
        let probes = db.counters().index_probes;
        for dml in [
            "update orders set amount = 7 where amount = 30",
            "update orders set amount = 8 where cust = 1 or cust = 2",
            "update orders set amount = 9 where cust = null",
            "delete from orders where amount = 7",
            "delete from orders where cust = 1 or amount = 8",
            "delete from orders where cust = null",
        ] {
            let want = local.execute(dml).unwrap().affected;
            assert_eq!(db.execute(dml).unwrap().affected, want, "{dml}");
        }
        assert_eq!(
            db.counters().index_probes,
            probes,
            "none of these may probe"
        );
        let q = "select cust, amount from orders order by cust, amount";
        assert_eq!(db.execute(q).unwrap().rows, local.execute(q).unwrap().rows);
    }

    #[test]
    fn dml_abort_rolls_back_every_leg() {
        let mut db = dist(4);
        db.execute("create table t (k int, v int not null)")
            .unwrap();
        db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
            .unwrap();
        // NULL into a NOT NULL column fails row 3 of 3 after earlier writes.
        let err = db.execute("insert into t values (4, 40), (5, null)");
        assert!(err.is_err());
        let rows = db.execute("select count(*) from t").unwrap().rows;
        assert_eq!(rows[0].get(0).and_then(Datum::as_int), Some(3));
    }

    #[test]
    fn analyze_merges_per_shard_stats_into_planner_estimates() {
        let mut db = dist(4);
        seed_orders(&mut db);
        db.execute("analyze").unwrap();
        let stats = db.shadow.get("orders").unwrap().stats().unwrap().clone();
        assert_eq!(stats.row_count, 200);
        assert_eq!(
            stats.columns[0].distinct, 16,
            "hash-partitioned NDV is exact"
        );
        let plan = db.plan_only("select * from orders").unwrap();
        assert_eq!(
            plan.est_rows(),
            200.0,
            "planner estimates from merged stats"
        );
    }

    #[test]
    fn kv_table_visible_and_read_only() {
        let mut db = dist(2);
        let mut txn = db.cluster_mut().begin(TxnOptions::multi()).unwrap();
        let key = crate::shard::make_key(7, 1);
        db.cluster_mut().put(&mut txn, key, 42).unwrap();
        db.cluster_mut().commit(txn).unwrap();
        let rows = db
            .execute(&format!("select v from kv where k = {key}"))
            .unwrap()
            .rows;
        assert_eq!(rows[0].get(0).and_then(Datum::as_int), Some(42));
        assert!(db.execute("insert into kv values (1, 1)").is_err());
    }

    #[test]
    fn exchange_canonical_text_names_the_shard_set() {
        let mut db = dist(4);
        seed_orders(&mut db);
        let plan = db.plan_only("select * from orders where cust = 3").unwrap();
        fn find_exchange(n: &PlanNode) -> Option<String> {
            if matches!(n.op, PlanOp::Exchange { .. }) {
                return n.canonical();
            }
            n.children.iter().find_map(find_exchange)
        }
        let text = find_exchange(&plan).expect("annotated plan has an exchange");
        assert!(text.starts_with("EXCHANGE(SCAN(ORDERS"), "got {text}");
        assert!(text.contains("SHARDS("), "got {text}");
    }

    #[test]
    fn or_on_shard_key_defeats_pruning() {
        let mut db = dist(4);
        seed_orders(&mut db);
        let plan = db
            .plan_only("select * from orders where cust = 3 or cust = 4")
            .unwrap();
        fn exchange_fanout(n: &PlanNode) -> Option<usize> {
            if let PlanOp::Exchange { shards, .. } = &n.op {
                return Some(shards.len());
            }
            n.children.iter().find_map(exchange_fanout)
        }
        assert_eq!(exchange_fanout(&plan), Some(4), "OR must scatter");
    }
}
