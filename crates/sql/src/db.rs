//! The embedded database facade: parse → plan → execute with autocommit
//! transactions, plus the three extension hooks the rest of the workspace
//! plugs into (plan store consumer/producer, table functions).
//!
//! The statement path itself is [`Facade`]'s, shared with the distributed
//! engine. [`Database`] supplies only its backend: planning against its
//! catalog (CTEs materialized first), running trees and the cached chains
//! [`lower`] flattens on the [`LocalBackend`], autocommitted DDL/DML, its
//! `sys.*` rows and its history hook.

use crate::ast::SelectStmt;
use crate::backend::{ExecBackend, LocalBackend};
use crate::catalog::Catalog;
use crate::dml::{values_row, BoundDml, DmlOp};
use crate::exec::execute;
use crate::plan::{PlanNode, StepObservation};
use crate::planner::{Planner, PlanningInfo, TempRels};
use crate::profile::ChainProfiler;
use crate::program::{lower, Access, LinearSelect};
use crate::session::{output_columns, CachedPlan, EngineState, Facade, Session};
use crate::sys::{self, PlanStoreDump, SysSnapshot};
use hdm_common::{Datum, Result, Row, Schema};
use hdm_telemetry::{
    MetricsRegistry, SharedClock, SharedHistory, SharedRecorder, StatementProfile,
};
use hdm_txn::{LocalTxnManager, SnapshotVisibility};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Plan-store *consumer* hook: the optimizer asks for the actual cardinality
/// of a canonical step before trusting its own estimate (§II-C).
pub trait CardinalityHints {
    fn lookup(&self, step_text: &str) -> Option<u64>;

    /// Monotone counter that advances whenever a stored actual changes
    /// (capture or update). Lets cached-plan drift checks skip the keyed
    /// lookups entirely while the store is quiescent. `None` (the default)
    /// means the store cannot report one and callers must re-check every
    /// time.
    fn generation(&self) -> Option<u64> {
        None
    }
}

/// Plan-store *producer* hook: receives every executed step with its
/// estimated and actual cardinality; the store decides what to keep.
pub trait StepObserver {
    fn observe(&self, steps: &[StepObservation]);
}

/// A table-valued function callable in FROM — the integration point the
/// multi-model engines use for `gtimeseries(...)` / `ggraph(...)` (§II-B).
pub trait TableFunction {
    fn eval(&self, args: &[Datum]) -> Result<(Schema, Vec<Row>)>;
}

/// Result of executing one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names; a cached plan's results share one list.
    pub columns: Arc<[String]>,
    pub rows: Vec<Row>,
    /// Rows touched by DML (INSERT/UPDATE/DELETE).
    pub affected: u64,
    /// Step observations from SELECT execution.
    pub steps: Vec<StepObservation>,
    /// Hint usage during planning.
    pub planning: PlanningInfo,
    /// Runtime profile of the statement (present when profiling is on or a
    /// flight recorder is attached; always present for `EXPLAIN ANALYZE`).
    pub profile: Option<Arc<StatementProfile>>,
}

impl QueryResult {
    /// First column of the first row as an integer (test convenience).
    pub fn scalar_int(&self) -> Option<i64> {
        self.rows
            .first()
            .and_then(|r| r.get(0))
            .and_then(Datum::as_int)
    }
}

/// An embedded single-node SQL database.
pub struct Database {
    catalog: Catalog,
    mgr: LocalTxnManager,
    table_funcs: HashMap<String, Box<dyn TableFunction>>,
    /// Registry backing `sys.metrics` (scans empty when none is attached).
    metrics: Option<MetricsRegistry>,
    /// Plan-store hooks, profiler wiring, the plan cache (whose entries
    /// carry the flat program of linear chains) and history capture.
    session: Session,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    pub fn new() -> Self {
        Self {
            catalog: Catalog::new(),
            mgr: LocalTxnManager::new(),
            table_funcs: HashMap::new(),
            metrics: None,
            session: Session::default(),
        }
    }

    /// Use `clock` for profiler timestamps (deterministic profiles under a
    /// shared [`hdm_telemetry::VirtualClock`]).
    pub fn set_clock(&mut self, clock: SharedClock) {
        self.session.clock = clock;
    }

    /// Record every statement's profile into `recorder` (implies profiling).
    /// The recorder also backs `sys.statements`.
    pub fn attach_recorder(&mut self, recorder: SharedRecorder) {
        self.session.recorder = Some(recorder);
    }

    /// Serve `sys.metrics` from `registry` (cheap: the registry handle is a
    /// shared `Arc`; a snapshot is only taken when a statement references
    /// the view).
    pub fn attach_metrics(&mut self, registry: MetricsRegistry) {
        self.metrics = Some(registry);
    }

    /// Serve `sys.plan_store` from `dump` (usually the same
    /// `SharedPlanStore` installed via [`Self::set_plan_store`]; kept as a
    /// separate hook so the plan-store API is unchanged).
    pub fn attach_sys_plan_store(&mut self, dump: Rc<dyn PlanStoreDump>) {
        self.session.sys_plan_store = Some(dump);
    }

    /// Record AWR-style workload-history windows into `history` (which also
    /// backs `sys.history_*`). Capture is observation-only: statements are
    /// counted at this facade and a window is cut after the statement that
    /// crosses the configured boundary. Statement/co-access detail appears
    /// only while a recorder is attached.
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
        self.session
            .capture_history_now(|| engine_state(self.metrics.as_ref()));
    }

    /// Profile every SELECT even without a recorder attached, surfacing
    /// [`QueryResult::profile`].
    pub fn set_profiling(&mut self, on: bool) {
        self.session.profiling = on;
    }

    /// Ratio at which `EXPLAIN ANALYZE` flags a misestimate. Defaults to 2.0
    /// — the plan store's capture threshold, so flags and captures agree.
    pub fn set_misestimate_ratio(&mut self, ratio: f64) {
        self.session.misestimate_ratio = ratio;
    }

    /// Install the learning plan store (usually one object serving both
    /// roles — see `hdm-learnopt`).
    pub fn set_plan_store(
        &mut self,
        hints: Rc<dyn CardinalityHints>,
        observer: Rc<dyn StepObserver>,
    ) {
        self.session.set_plan_store(Some((hints, observer)));
    }

    /// Disable the learning plan store.
    pub fn clear_plan_store(&mut self) {
        self.session.set_plan_store(None);
    }

    /// Register a table-valued function usable in FROM.
    pub fn register_table_function(&mut self, name: &str, f: Box<dyn TableFunction>) {
        self.table_funcs.insert(name.to_ascii_lowercase(), f);
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    /// Execute one SQL statement; see [`Facade::execute_sql`].
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        self.execute_sql(sql)
    }

    /// Convenience: execute and return rows.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Row>> {
        Ok(self.execute(sql)?.rows)
    }

    /// Parse + plan a SELECT and return the plan without executing —
    /// exposes estimates to tests and the Table I harness.
    pub fn plan_only(&mut self, sql: &str) -> Result<PlanNode> {
        self.plan_sql(sql)
    }
}

/// The embedded engine's share of a history capture: the attached registry's
/// snapshot and no shards.
fn engine_state(metrics: Option<&MetricsRegistry>) -> EngineState {
    (metrics.map(MetricsRegistry::snapshot), Vec::new())
}

/// The embedded engine's hooks: plan against the catalog, run cached
/// linear chains flat and everything else as a tree, all on the
/// [`LocalBackend`] under autocommit. Every statement runs in the same
/// local scope.
impl Facade for Database {
    type Scope = ();

    fn session(&self) -> &Session {
        &self.session
    }

    fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn plan_select(
        &mut self,
        s: &SelectStmt,
        sys_snap: Option<&SysSnapshot>,
    ) -> Result<(PlanNode, PlanningInfo, ())> {
        // Materialize CTEs in order; later CTEs may reference earlier ones.
        let mut temp: TempRels = TempRels::new();
        for (name, sub) in &s.with {
            let plan = Planner::new(
                &self.catalog,
                self.session.hints.as_deref(),
                &self.table_funcs,
            )
            .with_sys(sys_snap)
            .plan_select(sub, &temp)?;
            let mut obs = Vec::new();
            let rows = {
                let mut be = LocalBackend::new(&mut self.catalog, &mut self.mgr).with_sys(sys_snap);
                execute(&plan, &mut be, &mut obs, None)?
            };
            self.session.observe(&obs);
            temp.insert(name.to_ascii_lowercase(), (plan.schema.clone(), rows));
        }
        let mut p = Planner::new(
            &self.catalog,
            self.session.hints.as_deref(),
            &self.table_funcs,
        )
        .with_sys(sys_snap);
        let plan = p.plan_select(s, &temp)?;
        Ok((plan, p.info, ()))
    }

    fn plan_cacheable(&mut self, s: &SelectStmt, n_params: usize) -> Result<CachedPlan> {
        let (plan, _, ()) = self.plan_select(s, None)?;
        let program = lower(&plan);
        let drift = crate::prepared::drift_probes(&plan);
        Ok(CachedPlan::new(plan, n_params, program, drift))
    }

    /// A substituted, rehinted cached tree runs as it is.
    fn bind_tree(&self, _: &mut PlanNode, _: &mut PlanningInfo) {}

    /// The tree SELECT driver: same plan, rows and observation list whether
    /// profiled or not, plus, when profiled, a [`StatementProfile`]
    /// mirroring the plan tree that `EXPLAIN ANALYZE` renders and the
    /// flight recorder keeps.
    fn run_plan(
        &mut self,
        plan: &PlanNode,
        planning: PlanningInfo,
        _: (),
        sys: Option<&SysSnapshot>,
        profiled: Option<(u64, &str)>,
    ) -> Result<QueryResult> {
        let mut prof = self.session.profiler(profiled);
        let mut steps = Vec::new();
        let rows = {
            let mut be = LocalBackend::new(&mut self.catalog, &mut self.mgr).with_sys(sys);
            execute(plan, &mut be, &mut steps, prof.as_mut().map(|p| &mut p.ops))?
        };
        let profile = prof.map(|p| self.session.finish_profile(p, "local", rows.len(), 0, 0));
        let columns = output_columns(plan);
        Ok(self
            .session
            .finish_select(columns, rows, steps, planning, profile))
    }

    /// Rehint the program's estimates against the plan store, then scan or
    /// probe, projecting each row, and apply the limit.
    fn run_program(
        &mut self,
        cached: &CachedPlan,
        prog: &LinearSelect,
        params: &[Datum],
        replans: u64,
        profiled: Option<(u64, &str)>,
    ) -> Result<QueryResult> {
        let (ests, planning) = prog.rehint(self.session.hints.as_deref(), None, replans);
        let bound_plan = profiled
            .map(|_| prog.profile_plan(&cached.plan, params, ests))
            .transpose()?;
        let mut prof = self.session.profiler(profiled);
        let mut chain = prof
            .as_mut()
            .zip(bound_plan.as_ref())
            .map(|(p, plan)| ChainProfiler::new(&mut p.ops, plan));
        let bound = prog.bind(params, false)?;
        let pred = bound.pred.as_deref();
        let mut be = LocalBackend::new(&mut self.catalog, &mut self.mgr);
        let mut rows = match &prog.access {
            Access::Scan { .. } => {
                let mut rows = Vec::new();
                be.scan(&prog.table, pred, &mut |r| {
                    rows.push(bound.project(r)?);
                    Ok(())
                })?;
                rows
            }
            Access::Probe { index, key } => {
                let key = std::slice::from_ref(key.value(params)?);
                bound.project_all(be.point_get(&prog.table, *index, key, pred)?)?
            }
        };
        let steps = prog.finish(&mut rows, &prog.scan.text, ests, chain.as_mut(), Vec::new());
        drop(chain);
        let profile = prof.map(|p| self.session.finish_profile(p, "local", rows.len(), 0, 0));
        let columns = Arc::clone(&cached.columns);
        Ok(self
            .session
            .finish_select(columns, rows, steps, planning, profile))
    }

    fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        self.catalog.create_table(name, schema)
    }

    fn create_index(&mut self, table: &str, columns: Vec<usize>) -> Result<()> {
        self.catalog.get_mut(table)?.create_index(columns).map(drop)
    }

    /// The embedded engine does not place rows; every catalog table is
    /// writable.
    fn dml_placement(&self, _: &str) -> Result<Option<usize>> {
        Ok(None)
    }

    /// Each statement is one autocommitted local transaction; an INSERT's
    /// VALUES are evaluated before anything is written.
    fn run_dml(&mut self, dml: &BoundDml, params: &[Datum]) -> Result<u64> {
        let mut be = LocalBackend::new(&mut self.catalog, &mut self.mgr);
        let pred = dml.predicate(params)?;
        let pred = pred.as_deref();
        match &dml.op {
            DmlOp::Insert(values) => {
                let rows = values
                    .rows()
                    .map(|r| values_row(r, params))
                    .collect::<Result<_>>()?;
                be.insert(&dml.table, rows)
            }
            DmlOp::Update(sets) => be.update(&dml.table, sets, pred, params),
            DmlOp::Delete => be.delete(&dml.table, pred),
        }
    }

    fn analyze(&mut self, table: Option<&str>) -> Result<()> {
        let snap = self.mgr.local_snapshot();
        let judge = SnapshotVisibility::new(&snap, self.mgr.clog(), None);
        match table {
            Some(t) => self.catalog.get_mut(t)?.analyze(&judge),
            None => {
                for t in self.catalog.tables_mut() {
                    t.analyze(&judge);
                }
            }
        }
        Ok(())
    }

    fn sys_rows(&self, view: &str) -> Vec<Row> {
        match view {
            "sys.metrics" if self.metrics.is_some() || self.session.recorder.is_some() => {
                let snap = self.metrics.as_ref().map(MetricsRegistry::snapshot);
                self.session.metric_rows(snap.unwrap_or_default())
            }
            "sys.txns" => sys::txn_rows(Datum::Null, &self.mgr),
            // No shards here: the backing shard set renders as `-`.
            "sys.indexes" => sys::index_rows(&self.catalog, "-", |_, ix| ix.len() as i64),
            "sys.config" => self.session.config_rows(Vec::new(), None),
            // The embedded engine has no shards, replicas, or event journal:
            // those views exist (same schema as distributed) but scan empty.
            _ => Vec::new(),
        }
    }

    /// The embedded engine has no event journal to record regressions in.
    fn after_statement(&mut self) {
        self.session
            .maybe_capture_history(|| engine_state(self.metrics.as_ref()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_common::row;

    fn setup() -> Database {
        let mut db = Database::new();
        db.execute("create table olap.t1 (a1 int, b1 int)").unwrap();
        db.execute("create table olap.t2 (a2 int)").unwrap();
        // t1: 1000 rows, b1 skewed: 0..=99 repeating, a1 = i % 200.
        for chunk in (0..1000i64).collect::<Vec<_>>().chunks(100) {
            let values: Vec<String> = chunk
                .iter()
                .map(|i| format!("({}, {})", i % 200, i % 100))
                .collect();
            db.execute(&format!("insert into olap.t1 values {}", values.join(", ")))
                .unwrap();
        }
        // t2: 200 rows, a2 = i.
        let values: Vec<String> = (0..200i64).map(|i| format!("({i})")).collect();
        db.execute(&format!("insert into olap.t2 values {}", values.join(", ")))
            .unwrap();
        db.execute("analyze").unwrap();
        db
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut db = Database::new();
        db.execute("create table t (a int, b text)").unwrap();
        let r = db
            .execute("insert into t values (1, 'x'), (2, 'y')")
            .unwrap();
        assert_eq!(r.affected, 2);
        let rows = db.query("select a, b from t order by a desc").unwrap();
        assert_eq!(rows, vec![row![2, "y"], row![1, "x"]]);
    }

    #[test]
    fn where_filtering_and_projection_exprs() {
        let mut db = setup();
        let rows = db
            .query("select a1 + 1 from olap.t1 where b1 = 7 order by a1 limit 3")
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], row![8]); // a1=7 -> 8
    }

    #[test]
    fn the_table1_join_runs_and_counts() {
        let mut db = setup();
        let r = db
            .execute(
                "select * from olap.t1, olap.t2 \
                 where olap.t1.a1 = olap.t2.a2 and olap.t1.b1 > 10",
            )
            .unwrap();
        // b1 > 10: 890 of 1000 rows; all a1 values < 200 join t2 exactly once.
        assert_eq!(r.rows.len(), 890);
        // Steps observed: two scans and a join.
        let kinds: Vec<_> = r.steps.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&crate::plan::StepKind::Scan));
        assert!(kinds.contains(&crate::plan::StepKind::Join));
        let join = r
            .steps
            .iter()
            .find(|s| s.kind == crate::plan::StepKind::Join)
            .unwrap();
        assert_eq!(join.actual, 890);
    }

    #[test]
    fn group_by_aggregates() {
        let mut db = setup();
        let rows = db
            .query(
                "select b1, count(*), sum(a1) from olap.t1 \
                 where b1 < 2 group by b1 order by b1",
            )
            .unwrap();
        assert_eq!(rows.len(), 2);
        // b1 = 0: rows i in {0,100,...,900}, count 10.
        assert_eq!(rows[0].get(1).unwrap().as_int(), Some(10));
    }

    #[test]
    fn global_aggregate_without_group() {
        let mut db = setup();
        let r = db
            .execute("select count(*), min(b1), max(b1) from olap.t1")
            .unwrap();
        assert_eq!(r.rows[0], row![1000, 0, 99]);
    }

    #[test]
    fn update_and_delete() {
        let mut db = Database::new();
        db.execute("create table t (a int, b int)").unwrap();
        db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
            .unwrap();
        let r = db.execute("update t set b = b + 1 where a >= 2").unwrap();
        assert_eq!(r.affected, 2);
        let r = db.execute("delete from t where a = 1").unwrap();
        assert_eq!(r.affected, 1);
        let rows = db.query("select b from t order by b").unwrap();
        assert_eq!(rows, vec![row![21], row![31]]);
    }

    #[test]
    fn index_scan_is_chosen_for_equality() {
        let mut db = setup();
        db.execute("create index on olap.t2 (a2)").unwrap();
        let plan = db.plan_only("select * from olap.t2 where a2 = 7").unwrap();
        assert!(
            matches!(plan.op, crate::plan::PlanOp::IndexScan { .. }),
            "expected index scan, got {:?}",
            plan.op
        );
        let rows = db.query("select * from olap.t2 where a2 = 7").unwrap();
        assert_eq!(rows, vec![row![7]]);
    }

    #[test]
    fn index_and_seq_scans_share_canonical_text() {
        let mut db = setup();
        let seq = db.plan_only("select * from olap.t2 where a2 = 7").unwrap();
        let seq_text = seq.canonical().unwrap();
        db.execute("create index on olap.t2 (a2)").unwrap();
        let ix = db.plan_only("select * from olap.t2 where a2 = 7").unwrap();
        assert_eq!(ix.canonical().unwrap(), seq_text);
    }

    #[test]
    fn set_operations() {
        let mut db = Database::new();
        db.execute("create table a (x int)").unwrap();
        db.execute("create table b (x int)").unwrap();
        db.execute("insert into a values (1), (2), (2), (3)")
            .unwrap();
        db.execute("insert into b values (2), (3), (4)").unwrap();
        let rows = db
            .query("select x from a union select x from b order by x")
            .unwrap();
        assert_eq!(rows, vec![row![1], row![2], row![3], row![4]]);
        let rows = db
            .query("select x from a intersect select x from b order by x")
            .unwrap();
        assert_eq!(rows, vec![row![2], row![3]]);
        let rows = db
            .query("select x from a except select x from b order by x")
            .unwrap();
        assert_eq!(rows, vec![row![1]]);
        let rows = db
            .query("select x from a union all select x from b")
            .unwrap();
        assert_eq!(rows.len(), 7);
    }

    #[test]
    fn ctes_materialize_and_join() {
        let mut db = setup();
        let rows = db
            .query(
                "with big as (select a1 from olap.t1 where b1 > 95) \
                 select count(*) from big",
            )
            .unwrap();
        assert_eq!(rows[0], row![40]); // b1 in {96..99}: 4 * 10 rows
    }

    #[test]
    fn explain_returns_plan_text() {
        let mut db = setup();
        let r = db
            .execute("explain select * from olap.t1 where b1 > 10")
            .unwrap();
        let text: Vec<String> = r
            .rows
            .iter()
            .map(|row| row.get(0).unwrap().as_text().unwrap().to_string())
            .collect();
        assert!(text[0].contains("Seq Scan on olap.t1"));
    }

    #[test]
    fn hints_override_estimates() {
        struct Fixed;
        impl CardinalityHints for Fixed {
            fn lookup(&self, step: &str) -> Option<u64> {
                step.starts_with("SCAN(OLAP.T1").then_some(123_456)
            }
        }
        struct Nop;
        impl StepObserver for Nop {
            fn observe(&self, _: &[StepObservation]) {}
        }
        let mut db = setup();
        db.set_plan_store(Rc::new(Fixed), Rc::new(Nop));
        let plan = db.plan_only("select * from olap.t1 where b1 > 10").unwrap();
        assert_eq!(plan.est_rows(), 123_456.0);
    }

    #[test]
    fn observer_receives_steps() {
        use std::cell::RefCell;
        #[derive(Default)]
        struct Capture(RefCell<Vec<StepObservation>>);
        impl StepObserver for Capture {
            fn observe(&self, steps: &[StepObservation]) {
                self.0.borrow_mut().extend(steps.iter().cloned());
            }
        }
        struct NoHints;
        impl CardinalityHints for NoHints {
            fn lookup(&self, _: &str) -> Option<u64> {
                None
            }
        }
        let mut db = setup();
        let cap = Rc::new(Capture::default());
        db.set_plan_store(Rc::new(NoHints), cap.clone());
        db.query("select * from olap.t1 where b1 > 10").unwrap();
        assert!(!cap.0.borrow().is_empty());
    }

    #[test]
    fn table_functions_feed_from() {
        struct Doubler;
        impl TableFunction for Doubler {
            fn eval(&self, args: &[Datum]) -> Result<(Schema, Vec<Row>)> {
                let n = args[0].as_int().unwrap_or(0);
                let schema = Schema::from_pairs(&[("v", hdm_common::DataType::Int)]);
                let rows = (0..n).map(|i| row![i * 2]).collect();
                Ok((schema, rows))
            }
        }
        let mut db = Database::new();
        db.register_table_function("doubler", Box::new(Doubler));
        let rows = db
            .query("select v from doubler(3) d where v > 0 order by v")
            .unwrap();
        assert_eq!(rows, vec![row![2], row![4]]);
    }

    #[test]
    fn subquery_in_from() {
        let mut db = setup();
        let rows = db
            .query(
                "select count(*) from \
                 (select a1 from olap.t1 where b1 = 0) s where s.a1 < 100",
            )
            .unwrap();
        // b1 = 0: i in {0,100,...,900}; a1 = i % 200 < 100 keeps
        // i in {0,200,400,600,800}.
        assert_eq!(rows[0], row![5]);
    }

    #[test]
    fn select_distinct_deduplicates() {
        let mut db = Database::new();
        db.execute("create table t (a int, b int)").unwrap();
        db.execute("insert into t values (1,1), (1,1), (1,2), (2,1)")
            .unwrap();
        let rows = db.query("select distinct a from t order by a").unwrap();
        assert_eq!(rows, vec![row![1], row![2]]);
        let rows = db
            .query("select distinct a, b from t order by a, b")
            .unwrap();
        assert_eq!(rows.len(), 3);
        // Non-distinct control.
        assert_eq!(db.query("select a from t").unwrap().len(), 4);
    }

    #[test]
    fn having_filters_groups() {
        let mut db = setup();
        // Groups of b1 with at least 11 members (none: each b1 has 10).
        let rows = db
            .query("select b1, count(*) from olap.t1 group by b1 having count(*) > 10")
            .unwrap();
        assert!(rows.is_empty());
        let rows = db
            .query(
                "select b1, count(*) from olap.t1 where b1 < 5 \
                 group by b1 having sum(a1) > 400 order by b1",
            )
            .unwrap();
        // Each b1 group: a1 values five x and five x+100 → sum = 10x + 500.
        // sum > 400 always holds (x >= 0): all 5 groups pass.
        assert_eq!(rows.len(), 5);
        // Tighter: sum > 530 → 10x + 500 > 530 → x > 3 → only b1 = 4.
        let rows = db
            .query(
                "select b1 from olap.t1 where b1 < 5 \
                 group by b1 having sum(a1) > 530",
            )
            .unwrap();
        assert_eq!(rows, vec![row![4]]);
    }

    #[test]
    fn having_with_fresh_aggregate_not_in_select() {
        let mut db = setup();
        let rows = db
            .query(
                "select b1 from olap.t1 group by b1 \
                 having max(a1) >= 199 order by b1 limit 3",
            )
            .unwrap();
        // max(a1) per b1 group: values b1 and b1+100 and ... a1 = i % 200;
        // groups with i%100==b1: a1 ∈ {b1, b1+100} → max = b1 + 100.
        // max >= 199 → b1 >= 99 → only b1 = 99.
        assert_eq!(rows, vec![row![99]]);
    }

    #[test]
    fn errors_are_reported() {
        let mut db = Database::new();
        assert!(db.execute("select * from missing").is_err());
        db.execute("create table t (a int)").unwrap();
        assert!(db.execute("select b from t").is_err());
        assert!(db.execute("insert into t values (1, 2)").is_err());
        assert!(
            db.execute("select a, count(*) from t").is_err(),
            "a not grouped"
        );
    }
}
