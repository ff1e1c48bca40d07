//! The SQL session both facades share (paper §II: FI-MPPDB's coordinator is
//! one SQL front end whatever the rows' placement).
//!
//! [`Session`] holds the state the embedded [`crate::Database`] and the
//! distributed `DistDb` share above their
//! [`ExecBackend`](crate::backend::ExecBackend): the plan-store hooks, the
//! profiler clock, flight recorder and profiling switch, the
//! prepared-statement plan cache with its re-plan-on-drift check, the
//! workload-history hook, the `sys.*` views that do not depend on where rows
//! live, and the tail of the SELECT driver.
//!
//! [`Facade`] is the statement path itself, written once: canonicalize,
//! plan cache, drift check, bind, flat program or tree, EXPLAIN, DDL
//! binding, and DML bound once into a [`BoundDml`] whether it is prepared
//! or raw text. Each facade implements its hooks (planning and lowering,
//! running a tree or a flat program against its backend, applying DDL,
//! placing and running bound DML, its own `sys.*` rows, its
//! after-statement hook) and gets [`QueryApi`] from it.

use crate::ast::{ColumnDef, SelectStmt, Statement};
use crate::catalog::Catalog;
use crate::db::{CardinalityHints, QueryResult, StepObserver};
use crate::dml::{self, column_positions, writable_schema, BoundDml};
use crate::plan::{PlanNode, StepObservation};
use crate::planner::PlanningInfo;
use crate::prepared::{
    bind_slots, canonicalize, canonicalize_into, collect_param_types, count_params, drift_exceeds,
    rehint_plan, substitute_statement_params, CanonicalSql, ExecOptions, PlanCache, QueryApi,
    StmtHandle, PLAN_CACHE_CAP,
};
use crate::profile::{observations, render_analyze, Profiler};
use crate::program::LinearSelect;
use crate::sys::{self, PlanStoreDump, SysSnapshot};
use hdm_common::{Column, DataType, Datum, HdmError, Result, Row, Schema};
use hdm_telemetry::{
    CaptureInput, MetricsSnapshot, Regression, ShardWindowStat, SharedClock, SharedHistory,
    SharedRecorder, StatementProfile, WallClock,
};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// What a facade adds to a workload-history capture: its metrics-registry
/// snapshot and per-shard health rows (none on the embedded engine).
pub type EngineState = (Option<MetricsSnapshot>, Vec<ShardWindowStat>);

/// One plan-cache entry, with the shape's flat program when the facade
/// runs it flat.
pub struct CachedPlan {
    /// The parameterized logical plan (un-annotated on the distributed
    /// engine: pruning re-runs per execution once parameters are bound).
    pub plan: PlanNode,
    /// Parameter types the plan constrains, by full slot position.
    pub param_types: Vec<Option<DataType>>,
    /// The plan's output column names, shared by every result the entry
    /// serves.
    pub columns: Arc<[String]>,
    /// The flat [`LinearSelect`], when the facade runs this shape flat.
    pub program: Option<LinearSelect>,
    /// The op count `sys.prepared` reports (0 for tree-executed plans).
    ops: usize,
    /// Re-plan-on-drift probes: (store keys, planning-time estimate) per
    /// canonical node; see [`crate::prepared::max_drift`].
    drift: Vec<(Vec<String>, f64)>,
    /// Last `(store generation, drifted?)` verdict, so quiescent stores skip
    /// the keyed lookups; see [`drift_exceeds`].
    drift_state: Cell<Option<(u64, bool)>>,
}

impl CachedPlan {
    pub fn new(
        plan: PlanNode,
        n_params: usize,
        program: Option<LinearSelect>,
        drift: Vec<(Vec<String>, f64)>,
    ) -> Self {
        Self {
            param_types: collect_param_types(&plan, n_params),
            columns: output_columns(&plan),
            ops: program.as_ref().map_or(0, LinearSelect::op_count),
            program,
            drift,
            drift_state: Cell::new(None),
            plan,
        }
    }
}

/// A statement the operator profiler rides along on: the statement clock's
/// start and planning-done stamps plus the profiler the executor fills.
pub struct StmtProfiler<'a> {
    sql: &'a str,
    start_us: u64,
    planned_us: u64,
    /// Handed to the executor as its operator profiler.
    pub ops: Profiler,
}

/// Session state and code shared by both SQL facades.
pub struct Session {
    /// Plan-store consumer: cardinality hints the planner consults.
    pub hints: Option<Rc<dyn CardinalityHints>>,
    /// Plan-store producer: receives every executed step.
    pub observer: Option<Rc<dyn StepObserver>>,
    /// Clock the profiler stamps statement, operator and fragment times with
    /// (wall by default; tests install a [`hdm_telemetry::VirtualClock`]).
    pub clock: SharedClock,
    /// Flight recorder keeping every statement's profile; backs
    /// `sys.statements` and implies profiling.
    pub recorder: Option<SharedRecorder>,
    /// Profile every SELECT even without a recorder attached.
    pub profiling: bool,
    /// Ratio at which `EXPLAIN ANALYZE` flags a misestimate and a cached plan
    /// counts as drifted (2.0, the plan store's capture threshold).
    pub misestimate_ratio: f64,
    /// Learned-cardinality source backing `sys.plan_store`.
    pub sys_plan_store: Option<Rc<dyn PlanStoreDump>>,
    /// Prepared-statement plan cache keyed by canonical statement text; DDL
    /// and ANALYZE bump its epoch.
    pub cache: PlanCache<Rc<CachedPlan>>,
    /// Workload-history engine backing `sys.history_*`.
    history: Option<SharedHistory>,
    /// Cached `HistoryConfig::every_stmts` (0 = clock-driven windows). In
    /// stride mode the per-statement hook is a counter bump on
    /// `history_pending` — no clock read, no lock — flushed into the engine
    /// only when a window is cut.
    history_stride: u64,
    /// Statements completed since the last flush into the engine.
    history_pending: u64,
    /// Buffers reused by every statement: raw text's canonical form, and
    /// the bound parameters of a cached statement.
    canon: CanonicalSql,
    params: Vec<Datum>,
}

impl Default for Session {
    fn default() -> Self {
        Self {
            hints: None,
            observer: None,
            clock: Arc::new(WallClock::new()),
            recorder: None,
            profiling: false,
            misestimate_ratio: 2.0,
            sys_plan_store: None,
            cache: PlanCache::new(PLAN_CACHE_CAP),
            history: None,
            history_stride: 0,
            history_pending: 0,
            canon: CanonicalSql::default(),
            params: Vec::new(),
        }
    }
}

impl Session {
    /// Install (`Some`) or remove the learning plan store's two halves.
    pub fn set_plan_store(
        &mut self,
        store: Option<(Rc<dyn CardinalityHints>, Rc<dyn StepObserver>)>,
    ) {
        (self.hints, self.observer) = store.unzip();
    }

    pub fn profiling_enabled(&self) -> bool {
        self.profiling || self.recorder.is_some()
    }

    /// Record workload-history windows into `history`. Statements are
    /// counted here and a window is cut after the statement that crosses
    /// the configured boundary.
    pub fn attach_history(&mut self, history: SharedHistory) {
        self.history_stride = history.with(|e| e.config().every_stmts);
        self.history_pending = 0;
        self.history = Some(history);
    }

    /// Stop capturing. Statements since the last cut are discarded rather
    /// than flushed into a partial window.
    pub fn detach_history(&mut self) {
        self.history = None;
        self.history_stride = 0;
        self.history_pending = 0;
    }

    pub fn history(&self) -> Option<&SharedHistory> {
        self.history.as_ref()
    }

    /// Per-statement history hook: count the statement and cut a window
    /// when one is due, returning the regressions that capture detected. In
    /// stride mode the hot path is a single counter bump; clock-driven mode
    /// reads the clock and asks the engine. Either way the capture — and
    /// `state` — runs once per window.
    #[inline]
    pub fn maybe_capture_history(
        &mut self,
        state: impl FnOnce() -> EngineState,
    ) -> Vec<Regression> {
        let Some(h) = &self.history else {
            return Vec::new();
        };
        if self.history_stride > 0 {
            self.history_pending += 1;
            if self.history_pending < self.history_stride {
                return Vec::new();
            }
        } else if !h.with(|e| e.note_statement(self.clock.now_us())) {
            return Vec::new();
        }
        self.capture_history_now(state)
    }

    /// Cut a window now, flushing the stride's pending statements into it
    /// (no-op without an attached history engine).
    pub fn capture_history_now(&mut self, state: impl FnOnce() -> EngineState) -> Vec<Regression> {
        let pending = std::mem::take(&mut self.history_pending);
        let Some(h) = &self.history else {
            return Vec::new();
        };
        let (metrics, shards) = state();
        let (cache_hits, cache_misses) = self.cache.stats();
        let input = CaptureInput {
            now_us: self.clock.now_us(),
            metrics,
            shards,
            cache_hits,
            cache_misses,
            cache_len: self.cache.len() as u64,
            plan_store_len: self
                .sys_plan_store
                .as_ref()
                .map_or(0, |d| d.dump_entries().len() as u64),
        };
        h.with(|e| {
            if pending > 0 {
                e.note_statements(pending, input.now_us);
            }
            e.capture(input, self.recorder.as_ref())
        })
    }

    /// `sys.metrics` rows: the facade's registry snapshot plus the synthetic
    /// `recorder.dropped` ring-eviction counter when a recorder is attached
    /// (the registry itself is untouched, so telemetry exports stay
    /// byte-identical).
    pub fn metric_rows(&self, mut snap: MetricsSnapshot) -> Vec<Row> {
        if let Some(r) = &self.recorder {
            snap.counters.insert("recorder.dropped".into(), r.dropped());
        }
        sys::metrics_rows(&snap)
    }

    /// `sys.config` rows in their fixed order: the facade's `cluster` rows,
    /// the engine knobs (the distributed `retry_policy` last among them),
    /// then telemetry, then history.
    pub fn config_rows(&self, mut rows: Vec<Row>, retry_policy: Option<bool>) -> Vec<Row> {
        let engine =
            |name: &str, value: String, kind: &str| sys::config_row(name, value, kind, "engine");
        let ratio = self.misestimate_ratio;
        rows.push(engine("misestimate_ratio", ratio.to_string(), "float"));
        rows.push(engine("plan_cache.cap", PLAN_CACHE_CAP.to_string(), "int"));
        rows.push(engine("profiling", self.profiling.to_string(), "bool"));
        if let Some(on) = retry_policy {
            rows.push(engine("retry_policy", on.to_string(), "bool"));
        }
        let int =
            |name: &str, value: u64, source: &str| sys::config_row(name, value, "int", source);
        if let Some(r) = &self.recorder {
            let (cap, slow) = r.with(|r| (r.config().capacity, r.config().slow_threshold_us));
            rows.push(int("recorder.capacity", cap as u64, "telemetry"));
            rows.push(int("recorder.slow_threshold_us", slow, "telemetry"));
        }
        if let Some(h) = &self.history {
            let cfg = h.with(|e| e.config());
            rows.push(int("history.baseline", cfg.baseline as u64, "history"));
            rows.push(int("history.capacity", cfg.capacity as u64, "history"));
            rows.push(int("history.every_stmts", cfg.every_stmts, "history"));
            rows.push(int("history.top_k", cfg.top_k as u64, "history"));
            rows.push(int("history.window_us", cfg.window_us, "history"));
        }
        rows
    }

    /// `sys.prepared` rows: one per cached plan, sorted by canonical text.
    fn prepared_rows(&self) -> Vec<Row> {
        self.cache
            .snapshot()
            .into_iter()
            .map(|(text, e)| {
                Row::new(vec![
                    Datum::Text(text.to_string()),
                    Datum::Int(e.hits as i64),
                    Datum::Int(e.payload.ops as i64),
                    Datum::Int(e.last_used as i64),
                ])
            })
            .collect()
    }

    /// Re-plan on drift: when the plan store's captured actuals diverge from
    /// `cached`'s planning-time estimates past the misestimate ratio, its
    /// access-path and join-order choices are suspect, so the entry is
    /// evicted for the facade to plan afresh against current hints. Returns
    /// the [`PlanningInfo::replans`] count (0 or 1).
    pub fn evict_if_drifted(&mut self, text: &str, cached: &CachedPlan) -> u64 {
        let (probes, state) = (&cached.drift, &cached.drift_state);
        let drifted = self
            .hints
            .as_deref()
            .is_some_and(|h| drift_exceeds(probes, state, h, self.misestimate_ratio));
        if drifted {
            self.cache.remove(text);
        }
        drifted as u64
    }

    /// Start the profiler for a planned statement when `profiled` (statement
    /// start time + SQL text) is set. Without it the clock is never read.
    pub fn profiler<'a>(&self, profiled: Option<(u64, &'a str)>) -> Option<StmtProfiler<'a>> {
        profiled.map(|(start_us, sql)| {
            let ops = Profiler::new(self.clock.clone());
            StmtProfiler {
                sql,
                start_us,
                planned_us: self.clock.now_us(),
                ops,
            }
        })
    }

    /// Close a statement profile with the facade's footer: transaction
    /// scope, GTM interactions and 2PC legs.
    pub fn finish_profile(
        &self,
        p: StmtProfiler<'_>,
        scope: &str,
        rows_out: usize,
        gtm_interactions: u64,
        twopc_legs: u64,
    ) -> StatementProfile {
        let done = self.clock.now_us();
        StatementProfile {
            sql: p.sql.to_string(),
            scope: scope.to_string(),
            start_us: p.start_us,
            plan_us: p.planned_us.saturating_sub(p.start_us),
            exec_us: done.saturating_sub(p.planned_us),
            total_us: done.saturating_sub(p.start_us),
            rows_out: rows_out as u64,
            gtm_interactions,
            twopc_legs,
            root: p.ops.finish(),
        }
    }

    /// Feed the plan store the executor's observations.
    pub fn observe(&self, steps: &[StepObservation]) {
        if let Some(o) = &self.observer {
            o.observe(steps);
        }
    }

    /// The tail of every SELECT driver, tree or flat program: check a
    /// profile against the executor's own observations, feed the plan store
    /// and the flight recorder, and assemble the result with the plan's
    /// output `columns` (a cached plan's own, or [`output_columns`]).
    pub fn finish_select(
        &self,
        columns: Arc<[String]>,
        rows: Vec<Row>,
        steps: Vec<StepObservation>,
        planning: PlanningInfo,
        profile: Option<StatementProfile>,
    ) -> QueryResult {
        if let Some(p) = &profile {
            debug_assert_eq!(
                observations(p.root.as_ref()),
                steps,
                "profile must derive the executor's own observations"
            );
        }
        self.observe(&steps);
        // The recorder shares the result's profile rather than copying it.
        let profile = profile.map(Arc::new);
        if let (Some(r), Some(p)) = (&self.recorder, &profile) {
            r.record(Arc::clone(p));
        }
        QueryResult {
            columns,
            rows,
            steps,
            planning,
            profile,
            ..Default::default()
        }
    }
}

/// The statement protocol both SQL facades run, written once:
/// canonicalize (or parse and rewrite), serve a cacheable SELECT through
/// the plan cache with its re-plan-on-drift check, bind its parameters and
/// run the cached shape's flat program when it has one, else the bound
/// tree; plan a fresh SELECT, render EXPLAIN, bind DDL, bind DML once (at
/// prepare time for a prepared statement) and run it, and run the history
/// hook after every statement. [`QueryApi`] is implemented once on top of
/// it.
///
/// A facade supplies only what differs between the embedded and the
/// distributed engine: the required methods below, which say how it plans
/// and lowers, how it runs a tree or a flat program against its backend,
/// how it applies DDL, where a table's rows are placed and how it runs
/// bound DML, its own `sys.*` rows and its after-statement hook. The
/// provided methods are the protocol.
pub trait Facade {
    /// The transaction scope a planned tree runs under.
    type Scope;

    fn session(&self) -> &Session;

    fn session_mut(&mut self) -> &mut Session;

    /// The catalog DDL and DML bind against. It carries schemas and
    /// statistics; it need not hold the rows.
    fn catalog(&self) -> &Catalog;

    /// Plan a SELECT whose `sys.*` views are frozen in `sys`: the plan, its
    /// planning info and the scope it runs under.
    fn plan_select(
        &mut self,
        s: &SelectStmt,
        sys: Option<&SysSnapshot>,
    ) -> Result<(PlanNode, PlanningInfo, Self::Scope)>;

    /// Plan a cacheable SELECT with `n_params` parameters into its
    /// plan-cache entry, lowered by [`crate::program::lower`] when the
    /// facade runs the shape flat.
    fn plan_cacheable(&mut self, s: &SelectStmt, n_params: usize) -> Result<CachedPlan>;

    /// Bind a cached tree whose parameters are substituted and whose
    /// estimates are rehinted, returning the scope it runs under.
    fn bind_tree(&self, plan: &mut PlanNode, planning: &mut PlanningInfo) -> Self::Scope;

    /// Run a planned tree and finish it through [`Session::finish_select`].
    /// `profiled` (statement start time + SQL text) makes the operator
    /// profiler ride along; without it the clock is never read.
    fn run_plan(
        &mut self,
        plan: &PlanNode,
        planning: PlanningInfo,
        scope: Self::Scope,
        sys: Option<&SysSnapshot>,
        profiled: Option<(u64, &str)>,
    ) -> Result<QueryResult>;

    /// Run `program`, lowered from `cached.plan`, with `params` bound. A
    /// profiled run fills the profile the tree would, over the bound plan.
    fn run_program(
        &mut self,
        cached: &CachedPlan,
        program: &LinearSelect,
        params: &[Datum],
        replans: u64,
        profiled: Option<(u64, &str)>,
    ) -> Result<QueryResult>;

    fn create_table(&mut self, name: &str, schema: Schema) -> Result<()>;

    /// CREATE INDEX on the column positions `columns`.
    fn create_index(&mut self, table: &str, columns: Vec<usize>) -> Result<()>;

    /// The column `table`'s rows are placed by (`None` on an engine that
    /// does not place rows by column), or the error that makes the table
    /// unwritable. Asked once per statement, when DML is bound.
    fn dml_placement(&self, table: &str) -> Result<Option<usize>>;

    /// Run a bound INSERT, UPDATE or DELETE with `params`, whose count is
    /// checked; returns the rows written.
    fn run_dml(&mut self, dml: &BoundDml, params: &[Datum]) -> Result<u64>;

    /// ANALYZE one table, or every table when `None`.
    fn analyze(&mut self, table: Option<&str>) -> Result<()>;

    /// Rows of a `sys.*` view the session does not answer itself
    /// (`sys.metrics`, `sys.shards`, `sys.txns`, `sys.events`,
    /// `sys.indexes`, `sys.config`); none for a view the facade lacks.
    fn sys_rows(&self, view: &str) -> Vec<Row>;

    /// Runs after every statement `execute` or `execute_prepared` completes.
    fn after_statement(&mut self);

    /// [`QueryApi::execute_opts`]. By default options are accepted for API
    /// parity and the statement runs once.
    fn run_opts(&mut self, sql: &str, _opts: ExecOptions) -> Result<QueryResult> {
        self.execute_sql(sql)
    }

    /// Execute one SQL statement (rewritten before planning). Cacheable
    /// SELECTs are canonicalized and served through the plan cache, so
    /// repeat statements that differ only in literal values skip the parser
    /// and planner.
    fn execute_sql(&mut self, sql: &str) -> Result<QueryResult> {
        // The session's canonical-form buffer, lent out for the statement.
        let mut canon = std::mem::take(&mut self.session_mut().canon);
        let result = match canonicalize_into(sql, &mut canon) {
            Ok(true) => self.execute_canonical(&canon.text, &canon.slots, &[], sql),
            Ok(false) => parse_rewritten(sql).and_then(|stmt| self.execute_parsed(&stmt, sql)),
            Err(e) => Err(e),
        };
        self.session_mut().canon = canon;
        let result = result?;
        self.after_statement();
        Ok(result)
    }

    /// Parse and plan a SELECT without executing it.
    fn plan_sql(&mut self, sql: &str) -> Result<PlanNode> {
        let Statement::Select(s) = parse_rewritten(sql)? else {
            return Err(HdmError::Plan("plan_only expects SELECT".into()));
        };
        let sys = self.sys_snapshot_for(&s);
        Ok(self.plan_select(&s, sys.as_ref())?.0)
    }

    /// Freeze the statement-start state of every `sys.*` view `s`
    /// references. The session answers the views it owns and
    /// [`Self::sys_rows`] the rest. `None` — the common case — means the
    /// statement never touches the introspection plane and pays nothing.
    fn sys_snapshot_for(&self, s: &SelectStmt) -> Option<SysSnapshot> {
        let wanted = sys::referenced_views_in_select(s);
        if wanted.is_empty() {
            return None;
        }
        let session = self.session();
        let history = |rows: fn(&SharedHistory) -> Vec<Row>| {
            session.history.as_ref().map(rows).unwrap_or_default()
        };
        let mut snap = SysSnapshot::new();
        for view in wanted {
            let rows = match view.as_str() {
                "sys.statements" => session
                    .recorder
                    .as_ref()
                    .map(sys::statement_rows)
                    .unwrap_or_default(),
                "sys.plan_store" => session
                    .sys_plan_store
                    .as_ref()
                    .map(|d| sys::plan_store_rows(d.as_ref()))
                    .unwrap_or_default(),
                "sys.prepared" => session.prepared_rows(),
                "sys.history_windows" => history(sys::history_window_rows),
                "sys.history_metrics" => history(sys::history_metric_rows),
                "sys.history_statements" => history(sys::history_statement_rows),
                "sys.history_coaccess" => history(sys::history_coaccess_rows),
                other => self.sys_rows(other),
            };
            snap.insert(&view, rows);
        }
        Some(snap)
    }

    /// Plan a SELECT fresh and run the tree; the statement clock starts
    /// before planning when `profiled`.
    fn run_select(&mut self, s: &SelectStmt, sql: &str, profiled: bool) -> Result<QueryResult> {
        let start = profiled.then(|| self.session().clock.now_us());
        let sys = self.sys_snapshot_for(s);
        let (plan, planning, scope) = self.plan_select(s, sys.as_ref())?;
        self.run_plan(
            &plan,
            planning,
            scope,
            sys.as_ref(),
            start.map(|t| (t, sql)),
        )
    }

    /// Bind an INSERT, UPDATE or DELETE against the catalog and the
    /// facade's placement.
    fn bind_dml(&self, stmt: &Statement) -> Result<BoundDml> {
        dml::bind(stmt, self.catalog(), |table| self.dml_placement(table))
    }

    /// Run a bound DML statement: the one executor of prepared and raw
    /// INSERT, UPDATE and DELETE.
    fn execute_dml(&mut self, dml: &BoundDml, params: &[Datum]) -> Result<QueryResult> {
        dml.check_params(params)?;
        Ok(QueryResult {
            affected: self.run_dml(dml, params)?,
            ..Default::default()
        })
    }

    /// Run one parsed statement the plan cache does not serve: a SELECT or
    /// EXPLAIN is planned fresh, DDL is bound here and applied by the
    /// facade, DML is bound and run. DDL and ANALYZE change plan choices,
    /// so they drop every cached plan.
    fn execute_parsed(&mut self, stmt: &Statement, sql: &str) -> Result<QueryResult> {
        let affected = match stmt {
            Statement::Select(s) => {
                let profiled = self.session().profiling_enabled();
                return self.run_select(s, sql, profiled);
            }
            Statement::Explain { analyze, stmt } => {
                let Statement::Select(s) = stmt.as_ref() else {
                    return Err(HdmError::Unsupported("EXPLAIN supports SELECT only".into()));
                };
                if !*analyze {
                    let sys = self.sys_snapshot_for(s);
                    let (plan, planning, _) = self.plan_select(s, sys.as_ref())?;
                    let text = plan.explain();
                    return Ok(plan_rows(
                        text.lines().map(str::to_string),
                        Vec::new(),
                        planning,
                    ));
                }
                // Execute for real (observing into the plan store as usual)
                // and render the annotated tree in place of the rows:
                // per-operator actuals, per-shard Exchange legs, the GTM/2PC
                // footer and misestimate flags.
                let run = self.run_select(s, sql, true)?;
                let profile = run.profile.expect("profiled select carries a profile");
                let lines = render_analyze(&profile, self.session().misestimate_ratio);
                return Ok(QueryResult {
                    profile: Some(profile),
                    ..plan_rows(lines, run.steps, run.planning)
                });
            }
            Statement::CreateTable { name, columns } => {
                self.create_table(name, table_schema(name, columns)?)?;
                self.session_mut().cache.bump_epoch();
                0
            }
            Statement::CreateIndex { table, columns } => {
                let schema = writable_schema(self.catalog(), table)?;
                let columns = column_positions(table, schema, columns)?;
                self.create_index(table, columns)?;
                self.session_mut().cache.bump_epoch();
                0
            }
            Statement::Analyze { table } => {
                self.analyze(table.as_deref())?;
                self.session_mut().cache.bump_epoch();
                0
            }
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. } => {
                let dml = self.bind_dml(stmt)?;
                return self.execute_dml(&dml, &[]);
            }
        };
        Ok(QueryResult {
            affected,
            ..Default::default()
        })
    }

    /// Fetch the plan-cache entry for canonical statement text, planning
    /// and lowering it on a miss.
    fn ensure_cached(&mut self, canonical: &str) -> Result<Rc<CachedPlan>> {
        if let Some(e) = self.session_mut().cache.get(canonical) {
            return Ok(e);
        }
        let stmt = parse_rewritten(canonical)?;
        let n_params = count_params(&stmt);
        let Statement::Select(s) = stmt else {
            return Err(HdmError::Plan(
                "plan cache holds SELECT statements only".into(),
            ));
        };
        let entry = Rc::new(self.plan_cacheable(&s, n_params)?);
        self.session_mut()
            .cache
            .insert(canonical.to_string(), Rc::clone(&entry));
        Ok(entry)
    }

    /// Execute a canonicalized statement through the plan cache: re-plan on
    /// drift, bind the lifted and user parameters, then run the cached
    /// shape's flat program, or substitute them into the cached tree,
    /// rehint its estimates against the plan store and bind it. A profiled
    /// statement runs on the same executor as an unprofiled one.
    fn execute_canonical(
        &mut self,
        text: &str,
        slots: &[Option<Datum>],
        user_params: &[Datum],
        sql: &str,
    ) -> Result<QueryResult> {
        let mut cached = self.ensure_cached(text)?;
        let replans = self.session_mut().evict_if_drifted(text, &cached);
        if replans > 0 {
            cached = self.ensure_cached(text)?;
        }
        // The session's parameter buffer, lent out for the statement.
        let mut params = std::mem::take(&mut self.session_mut().params);
        let result = bind_slots(slots, &cached.param_types, user_params, &mut params)
            .and_then(|()| self.run_cached(&cached, &params, replans, sql));
        params.clear();
        self.session_mut().params = params;
        result
    }

    /// Run a cached entry with its parameters bound: the shape's flat
    /// program, or the tree with `params` substituted, its estimates
    /// rehinted against the plan store, and bound.
    fn run_cached(
        &mut self,
        cached: &CachedPlan,
        params: &[Datum],
        replans: u64,
        sql: &str,
    ) -> Result<QueryResult> {
        let session = self.session();
        let profiled = session
            .profiling_enabled()
            .then(|| (session.clock.now_us(), sql));
        if let Some(program) = &cached.program {
            return self.run_program(cached, program, params, replans, profiled);
        }
        let mut plan = cached.plan.substitute_params(params)?;
        let mut planning = PlanningInfo {
            replans,
            ..Default::default()
        };
        if let Some(hints) = self.session().hints.as_deref() {
            rehint_plan(&mut plan, hints, &mut planning);
        }
        let scope = self.bind_tree(&mut plan, &mut planning);
        self.run_plan(&plan, planning, scope, None, profiled)
    }
}

impl<F: Facade> QueryApi for F {
    /// A cacheable statement keeps only its canonical text and is planned
    /// once now, so unknown tables and columns surface at prepare time;
    /// DML is bound now, with the same effect; anything else keeps its
    /// rewritten AST.
    fn prepare_handle(&mut self, sql: &str) -> Result<StmtHandle> {
        if let Some(c) = canonicalize(sql)? {
            self.ensure_cached(&c.text)?;
            let n_open = c.open_params();
            return Ok(StmtHandle::Cached {
                canonical: c.text,
                slots: c.slots,
                n_open,
            });
        }
        let stmt = parse_rewritten(sql)?;
        if stmt.is_dml() {
            return Ok(StmtHandle::Dml(Box::new(self.bind_dml(&stmt)?)));
        }
        let n_params = count_params(&stmt);
        Ok(StmtHandle::Ast {
            stmt: Box::new(stmt),
            n_params,
            sql: sql.to_string(),
        })
    }

    /// A DML handle runs its bound form; an AST handle binds its
    /// parameters at the AST level, after checking their count.
    fn execute_prepared(&mut self, handle: &StmtHandle, params: &[Datum]) -> Result<QueryResult> {
        let result = match handle {
            StmtHandle::Cached {
                canonical, slots, ..
            } => self.execute_canonical(canonical, slots, params, canonical),
            StmtHandle::Dml(dml) => self.execute_dml(dml, params),
            StmtHandle::Ast {
                stmt,
                n_params,
                sql,
            } => {
                if params.len() != *n_params {
                    return Err(HdmError::Execution(format!(
                        "statement has {n_params} parameters; got {}",
                        params.len()
                    )));
                }
                self.execute_parsed(&substitute_statement_params(stmt, params)?, sql)
            }
        }?;
        self.after_statement();
        Ok(result)
    }

    fn execute_opts(&mut self, sql: &str, opts: ExecOptions) -> Result<QueryResult> {
        self.run_opts(sql, opts)
    }
}

fn plan_rows(
    lines: impl IntoIterator<Item = String>,
    steps: Vec<StepObservation>,
    planning: PlanningInfo,
) -> QueryResult {
    QueryResult {
        columns: Arc::new(["plan".to_string()]),
        rows: lines
            .into_iter()
            .map(|l| Row::new(vec![Datum::Text(l)]))
            .collect(),
        steps,
        planning,
        ..Default::default()
    }
}

/// A plan's output column names, as a result carries them.
pub fn output_columns(plan: &PlanNode) -> Arc<[String]> {
    plan.schema.cols.iter().map(|c| c.name.clone()).collect()
}

/// Parse one statement and run the rewrite engine over it.
fn parse_rewritten(sql: &str) -> Result<Statement> {
    let mut stmt = crate::parser::parse(sql)?;
    crate::rewrite::rewrite_statement(&mut stmt);
    Ok(stmt)
}

/// CREATE TABLE's schema; names in the `sys.` namespace are rejected.
fn table_schema(name: &str, columns: &[ColumnDef]) -> Result<Schema> {
    if sys::is_sys_name(name) {
        return Err(HdmError::Catalog(format!(
            "the sys. namespace is reserved for system views (cannot create {name})"
        )));
    }
    Ok(Schema::new(
        columns
            .iter()
            .map(|c| {
                let col = Column::new(c.name.clone(), c.data_type);
                if c.not_null {
                    col.not_null()
                } else {
                    col
                }
            })
            .collect(),
    ))
}
