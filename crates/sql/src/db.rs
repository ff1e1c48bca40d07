//! The embedded database facade: parse → plan → execute with autocommit
//! transactions, plus the three extension hooks the rest of the workspace
//! plugs into (plan store consumer/producer, table functions).

use crate::ast::{SelectItem, SelectStmt, Statement};
use crate::backend::LocalBackend;
use crate::catalog::Catalog;
use crate::compile::{compile, CompiledProgram, StepTemplate};
use crate::exec::execute;
use crate::expr::{bind, BoundSchema};
use crate::parser::parse;
use crate::plan::{PlanNode, StepObservation};
use crate::planner::{Planner, PlanningInfo, TempRels};
use crate::prepared::{
    bind_slots, canonicalize, collect_param_types, count_params, substitute_statement_params,
    ExecOptions, PlanCache, QueryApi, StmtHandle, PLAN_CACHE_CAP,
};
use crate::profile::{observations, render_analyze, Profiler};
use crate::sys::{self, PlanStoreDump, SysSnapshot};
use hdm_common::{DataType, Datum, HdmError, Result, Row, Schema};
use hdm_telemetry::{
    CaptureInput, MetricsRegistry, SharedClock, SharedHistory, SharedRecorder, StatementProfile,
    WallClock,
};
use hdm_txn::{LocalTxnManager, SnapshotVisibility, TxnStatus};
use std::cell::Cell;
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
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    /// Rows touched by DML (INSERT/UPDATE/DELETE).
    pub affected: u64,
    /// Step observations from SELECT execution.
    pub steps: Vec<StepObservation>,
    /// Hint usage during planning.
    pub planning: PlanningInfo,
    /// Runtime profile of the statement (present when profiling is on or a
    /// flight recorder is attached; always present for `EXPLAIN ANALYZE`).
    pub profile: Option<StatementProfile>,
}

impl QueryResult {
    fn empty() -> Self {
        Self {
            columns: vec![],
            rows: vec![],
            affected: 0,
            steps: vec![],
            planning: PlanningInfo::default(),
            profile: None,
        }
    }

    /// First column of the first row as an integer (test convenience).
    pub fn scalar_int(&self) -> Option<i64> {
        self.rows.first().and_then(|r| r.get(0)).and_then(Datum::as_int)
    }
}

/// One plan-cache payload for the embedded engine: the parameterized plan,
/// the parameter types the plan constrains, and (for linear chains) the
/// compiled flat op-array.
struct CachedStmt {
    plan: PlanNode,
    param_types: Vec<Option<DataType>>,
    program: Option<CompiledProgram>,
    /// Precomputed re-plan-on-drift probes: (store keys, planning-time
    /// estimate) per canonical node; see [`crate::prepared::max_drift`].
    drift: Vec<(Vec<String>, f64)>,
    /// Last `(store generation, drifted?)` verdict, so quiescent stores skip
    /// the keyed lookups entirely; see [`crate::prepared::drift_exceeds`].
    drift_state: Cell<Option<(u64, bool)>>,
}

/// An embedded single-node SQL database.
pub struct Database {
    catalog: Catalog,
    mgr: LocalTxnManager,
    hints: Option<Rc<dyn CardinalityHints>>,
    observer: Option<Rc<dyn StepObserver>>,
    table_funcs: HashMap<String, Box<dyn TableFunction>>,
    /// Clock the query profiler stamps operator times with (wall by
    /// default; tests install a [`hdm_telemetry::VirtualClock`]).
    clock: SharedClock,
    recorder: Option<SharedRecorder>,
    profiling: bool,
    misestimate_ratio: f64,
    /// Registry backing `sys.metrics` (scans empty when none is attached).
    metrics: Option<MetricsRegistry>,
    /// Learned-cardinality source backing `sys.plan_store`.
    sys_plan_store: Option<Rc<dyn PlanStoreDump>>,
    /// Prepared-statement plan cache, keyed by canonical statement text.
    cache: PlanCache<Rc<CachedStmt>>,
    /// Workload-history snapshot engine backing `sys.history_*` (windows are
    /// cut after the statement that crosses the window boundary).
    history: Option<SharedHistory>,
    /// Cached `HistoryConfig::every_stmts` (0 = clock-driven windows). In
    /// stride mode the per-statement hook is a plain counter bump on
    /// `history_pending`, flushed into the engine only at window cuts.
    history_stride: u64,
    /// Statements completed since the last flush into the snapshot engine.
    history_pending: u64,
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
            hints: None,
            observer: None,
            table_funcs: HashMap::new(),
            clock: Arc::new(WallClock::new()),
            profiling: false,
            recorder: None,
            misestimate_ratio: 2.0,
            metrics: None,
            sys_plan_store: None,
            cache: PlanCache::new(PLAN_CACHE_CAP),
            history: None,
            history_stride: 0,
            history_pending: 0,
        }
    }

    /// Use `clock` for profiler timestamps (deterministic profiles under a
    /// shared [`hdm_telemetry::VirtualClock`]).
    pub fn set_clock(&mut self, clock: SharedClock) {
        self.clock = clock;
    }

    /// Record every statement's profile into `recorder` (implies profiling).
    /// The recorder also backs `sys.statements`.
    pub fn attach_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = Some(recorder);
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
        self.sys_plan_store = Some(dump);
    }

    /// Record AWR-style workload-history windows into `history` (which also
    /// backs `sys.history_*`). Capture is observation-only: statements are
    /// counted at this facade and a window is cut after the statement that
    /// crosses the configured boundary. Statement/co-access detail appears
    /// only while a recorder is attached.
    pub fn attach_history(&mut self, history: SharedHistory) {
        self.history_stride = history.with(|e| e.config().every_stmts);
        self.history_pending = 0;
        self.history = Some(history);
    }

    /// Stop capturing workload history. Statements executed since the last
    /// window cut are discarded rather than flushed into a partial window.
    pub fn detach_history(&mut self) {
        self.history = None;
        self.history_stride = 0;
        self.history_pending = 0;
    }

    /// Force a window capture now (harnesses cut windows at deterministic
    /// points; no-op without an attached history engine).
    pub fn capture_history_now(&mut self) {
        if let Some(h) = self.history.clone() {
            self.capture_history(&h);
        }
    }

    fn capture_history(&mut self, h: &SharedHistory) {
        let pending = std::mem::take(&mut self.history_pending);
        let input = self.history_capture_input();
        h.with(|e| {
            if pending > 0 {
                e.note_statements(pending, input.now_us);
            }
            e.capture(input, self.recorder.as_ref())
        });
    }

    fn history_capture_input(&self) -> CaptureInput {
        let (cache_hits, cache_misses) = self.cache.stats();
        CaptureInput {
            now_us: self.clock.now_us(),
            metrics: self.metrics.as_ref().map(|m| m.snapshot()),
            shards: Vec::new(),
            cache_hits,
            cache_misses,
            cache_len: self.cache.len() as u64,
            plan_store_len: self
                .sys_plan_store
                .as_ref()
                .map(|d| d.dump_entries().len() as u64)
                .unwrap_or(0),
        }
    }

    /// Per-statement history hook: count the statement and cut a window
    /// when one is due. In stride mode the hot path is a single local
    /// counter bump; clock-driven mode reads the clock and asks the engine.
    /// Either way the capture itself runs once per window.
    fn maybe_capture_history(&mut self) {
        if self.history.is_none() {
            return;
        }
        if self.history_stride > 0 {
            self.history_pending += 1;
            if self.history_pending < self.history_stride {
                return;
            }
            let h = self.history.clone().expect("checked above");
            self.capture_history(&h);
        } else {
            let now = self.clock.now_us();
            let h = self.history.clone().expect("checked above");
            if h.with(|e| e.note_statement(now)) {
                let input = self.history_capture_input();
                h.with(|e| e.capture(input, self.recorder.as_ref()));
            }
        }
    }

    /// Profile every SELECT even without a recorder attached, surfacing
    /// [`QueryResult::profile`].
    pub fn set_profiling(&mut self, on: bool) {
        self.profiling = on;
    }

    /// Ratio at which `EXPLAIN ANALYZE` flags a misestimate. Defaults to 2.0
    /// — the plan store's capture threshold, so flags and captures agree.
    pub fn set_misestimate_ratio(&mut self, ratio: f64) {
        self.misestimate_ratio = ratio;
    }

    fn profiling_enabled(&self) -> bool {
        self.profiling || self.recorder.is_some()
    }

    /// Install the learning plan store (usually one object serving both
    /// roles — see `hdm-learnopt`).
    pub fn set_plan_store(
        &mut self,
        hints: Rc<dyn CardinalityHints>,
        observer: Rc<dyn StepObserver>,
    ) {
        self.hints = Some(hints);
        self.observer = Some(observer);
    }

    /// Disable the learning plan store.
    pub fn clear_plan_store(&mut self) {
        self.hints = None;
        self.observer = None;
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

    /// Execute one SQL statement (rewritten before planning). Cacheable
    /// SELECTs are canonicalized and served through the prepared-statement
    /// plan cache, so repeat statements that differ only in literal values
    /// skip the parser and planner entirely.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult> {
        let result = if let Some(c) = canonicalize(sql)? {
            self.execute_canonical(&c.text, &c.slots, &[], sql)
        } else {
            let mut stmt = parse(sql)?;
            crate::rewrite::rewrite_statement(&mut stmt);
            self.execute_statement_inner(&stmt, Some(sql))
        }?;
        self.maybe_capture_history();
        Ok(result)
    }

    /// Convenience: execute and return rows.
    pub fn query(&mut self, sql: &str) -> Result<Vec<Row>> {
        Ok(self.execute(sql)?.rows)
    }

    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult> {
        self.execute_statement_inner(stmt, None)
    }

    fn execute_statement_inner(&mut self, stmt: &Statement, sql: Option<&str>) -> Result<QueryResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                if sys::is_sys_name(name) {
                    return Err(HdmError::Catalog(format!(
                        "the sys. namespace is reserved for system views (cannot create {name})"
                    )));
                }
                let schema = Schema::new(
                    columns
                        .iter()
                        .map(|c| {
                            let col = hdm_common::Column::new(c.name.clone(), c.data_type);
                            if c.not_null {
                                col.not_null()
                            } else {
                                col
                            }
                        })
                        .collect(),
                );
                self.catalog.create_table(name, schema)?;
                self.cache.bump_epoch();
                Ok(QueryResult::empty())
            }
            Statement::CreateIndex { table, columns } => {
                let t = self.catalog.get_mut(table)?;
                let idxs: Vec<usize> = columns
                    .iter()
                    .map(|c| {
                        t.schema()
                            .index_of(c)
                            .ok_or_else(|| HdmError::Catalog(format!("no column {c} in {table}")))
                    })
                    .collect::<Result<_>>()?;
                t.create_index(idxs)?;
                self.cache.bump_epoch();
                Ok(QueryResult::empty())
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.run_insert(table, columns.as_deref(), rows),
            Statement::Update {
                table,
                sets,
                where_clause,
            } => self.run_update(table, sets, where_clause.as_ref()),
            Statement::Delete {
                table,
                where_clause,
            } => self.run_delete(table, where_clause.as_ref()),
            Statement::Analyze { table } => {
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
                // Fresh statistics change plan choices; cached plans are stale.
                self.cache.bump_epoch();
                Ok(QueryResult::empty())
            }
            Statement::Select(s) => self.run_select(s, sql, self.profiling_enabled()),
            Statement::Explain { analyze, stmt } => self.run_explain(*analyze, stmt, sql),
        }
    }

    /// Freeze the statement-start state of every `sys.*` view `s`
    /// references. `None` (the overwhelmingly common case) means the
    /// statement never touches the introspection plane and pays nothing.
    fn sys_snapshot_for(&self, s: &SelectStmt) -> Option<SysSnapshot> {
        let wanted = sys::referenced_views_in_select(s);
        if wanted.is_empty() {
            return None;
        }
        let mut snap = SysSnapshot::new();
        for view in wanted {
            let rows = match view.as_str() {
                "sys.metrics" => self.metric_rows(),
                "sys.statements" => self
                    .recorder
                    .as_ref()
                    .map(sys::statement_rows)
                    .unwrap_or_default(),
                "sys.txns" => self.txn_rows(),
                "sys.plan_store" => self
                    .sys_plan_store
                    .as_ref()
                    .map(|d| sys::plan_store_rows(d.as_ref()))
                    .unwrap_or_default(),
                "sys.prepared" => self.prepared_rows(),
                "sys.indexes" => self.index_rows(),
                "sys.config" => self.config_rows(),
                "sys.history_windows" => self
                    .history
                    .as_ref()
                    .map(sys::history_window_rows)
                    .unwrap_or_default(),
                "sys.history_metrics" => self
                    .history
                    .as_ref()
                    .map(sys::history_metric_rows)
                    .unwrap_or_default(),
                "sys.history_statements" => self
                    .history
                    .as_ref()
                    .map(sys::history_statement_rows)
                    .unwrap_or_default(),
                "sys.history_coaccess" => self
                    .history
                    .as_ref()
                    .map(sys::history_coaccess_rows)
                    .unwrap_or_default(),
                // The embedded engine has no shards, replicas, or event
                // journal: those views exist (same schema as distributed)
                // but scan empty.
                _ => Vec::new(),
            };
            snap.insert(&view, rows);
        }
        Some(snap)
    }

    /// `sys.metrics` rows: the attached registry's snapshot, plus the
    /// synthetic `recorder.dropped` ring-eviction counter when a recorder is
    /// attached (the registry itself is untouched, so telemetry exports stay
    /// byte-identical).
    fn metric_rows(&self) -> Vec<Row> {
        let mut snap = self
            .metrics
            .as_ref()
            .map(|m| m.snapshot())
            .unwrap_or_default();
        let mut synthetic = false;
        if let Some(r) = &self.recorder {
            snap.counters.insert("recorder.dropped".into(), r.dropped());
            synthetic = true;
        }
        if self.metrics.is_none() && !synthetic {
            return Vec::new();
        }
        sys::metrics_rows(&snap)
    }

    /// `sys.config` rows: the embedded engine's effective knobs, one row per
    /// knob in a fixed order (engine, then telemetry, then history).
    fn config_rows(&self) -> Vec<Row> {
        let mut rows = vec![
            sys::config_row("misestimate_ratio", self.misestimate_ratio, "float", "engine"),
            sys::config_row("plan_cache.cap", PLAN_CACHE_CAP, "int", "engine"),
            sys::config_row("profiling", self.profiling, "bool", "engine"),
        ];
        if let Some(r) = &self.recorder {
            let (cap, slow) = r.with(|r| (r.config().capacity, r.config().slow_threshold_us));
            rows.push(sys::config_row("recorder.capacity", cap, "int", "telemetry"));
            rows.push(sys::config_row(
                "recorder.slow_threshold_us",
                slow,
                "int",
                "telemetry",
            ));
        }
        if let Some(h) = &self.history {
            let cfg = h.with(|e| e.config());
            rows.push(sys::config_row("history.baseline", cfg.baseline, "int", "history"));
            rows.push(sys::config_row("history.capacity", cfg.capacity, "int", "history"));
            rows.push(sys::config_row(
                "history.every_stmts",
                cfg.every_stmts,
                "int",
                "history",
            ));
            rows.push(sys::config_row("history.top_k", cfg.top_k, "int", "history"));
            rows.push(sys::config_row("history.window_us", cfg.window_us, "int", "history"));
        }
        rows
    }

    /// `sys.txns` rows for the embedded engine: the local manager's active
    /// transactions (shard is NULL — there is no placement here).
    fn txn_rows(&self) -> Vec<Row> {
        let snap = self.mgr.local_snapshot();
        snap.active
            .iter()
            .map(|xid| {
                let state = match self.mgr.status(*xid) {
                    TxnStatus::InProgress => "in_progress",
                    TxnStatus::Prepared => "prepared",
                    TxnStatus::Committed => "committed",
                    TxnStatus::Aborted => "aborted",
                };
                let gxid = self
                    .mgr
                    .gxid_of(*xid)
                    .map(|g| Datum::Int(g.raw() as i64))
                    .unwrap_or(Datum::Null);
                Row::new(vec![
                    Datum::Null,
                    Datum::Int(xid.raw() as i64),
                    gxid,
                    Datum::Text(state.into()),
                ])
            })
            .collect()
    }

    fn plan_with_ctes(
        &mut self,
        s: &SelectStmt,
        sys_snap: Option<&SysSnapshot>,
    ) -> Result<(PlanNode, PlanningInfo)> {
        // Materialize CTEs in order; later CTEs may reference earlier ones.
        let mut temp: TempRels = TempRels::new();
        for (name, sub) in &s.with {
            let (plan, _) = {
                let mut p = Planner::new(
                    &self.catalog,
                    self.hints.as_deref(),
                    &self.table_funcs,
                )
                .with_sys(sys_snap);
                (p.plan_select(sub, &temp)?, p.info)
            };
            let mut obs = Vec::new();
            let rows = {
                let mut be =
                    LocalBackend::new(&mut self.catalog, &mut self.mgr).with_sys(sys_snap);
                execute(&plan, &mut be, &mut obs, None)?
            };
            if let Some(o) = &self.observer {
                o.observe(&obs);
            }
            temp.insert(name.to_ascii_lowercase(), (plan.schema.clone(), rows));
        }
        let mut p = Planner::new(&self.catalog, self.hints.as_deref(), &self.table_funcs)
            .with_sys(sys_snap);
        let plan = p.plan_select(s, &temp)?;
        Ok((plan, p.info))
    }

    /// Plan a SELECT fresh and hand the tree to [`Self::run_plan`]; the
    /// statement clock starts before planning when `profiled`.
    fn run_select(
        &mut self,
        s: &SelectStmt,
        sql: Option<&str>,
        profiled: bool,
    ) -> Result<QueryResult> {
        let start = profiled.then(|| self.clock.now_us());
        let sys_snap = self.sys_snapshot_for(s);
        let (plan, planning) = self.plan_with_ctes(s, sys_snap.as_ref())?;
        let profiled = start.map(|t| (t, sql.unwrap_or("")));
        self.run_plan(&plan, planning, sys_snap.as_ref(), profiled)
    }

    /// The one SELECT driver: run an already-planned tree and feed the plan
    /// store. `profiled` (statement start time + SQL text) makes the
    /// profiler ride along — same plan, rows and observation list, plus a
    /// [`StatementProfile`] mirroring the plan tree that `EXPLAIN ANALYZE`
    /// renders and the flight recorder keeps. Without it the clock is never
    /// read.
    fn run_plan(
        &mut self,
        plan: &PlanNode,
        planning: PlanningInfo,
        sys_snap: Option<&SysSnapshot>,
        profiled: Option<(u64, &str)>,
    ) -> Result<QueryResult> {
        // (statement start, SQL text, planning-done time, operator profiler)
        let mut prof = profiled.map(|(start, sql)| {
            let prof = Profiler::new(self.clock.clone());
            (start, sql, self.clock.now_us(), prof)
        });
        let mut steps = Vec::new();
        let rows = {
            let mut be = LocalBackend::new(&mut self.catalog, &mut self.mgr).with_sys(sys_snap);
            execute(plan, &mut be, &mut steps, prof.as_mut().map(|p| &mut p.3))?
        };
        let profile = prof.map(|(start, sql, planned, prof)| {
            let done = self.clock.now_us();
            StatementProfile {
                sql: sql.to_string(),
                scope: "local".to_string(),
                start_us: start,
                plan_us: planned.saturating_sub(start),
                exec_us: done.saturating_sub(planned),
                total_us: done.saturating_sub(start),
                rows_out: rows.len() as u64,
                gtm_interactions: 0,
                twopc_legs: 0,
                root: prof.finish(),
            }
        });
        if let Some(p) = &profile {
            debug_assert_eq!(
                observations(p.root.as_ref()),
                steps,
                "profile must derive the executor's own observations"
            );
        }
        if let Some(o) = &self.observer {
            o.observe(&steps);
        }
        if let (Some(r), Some(p)) = (&self.recorder, &profile) {
            r.record(p.clone());
        }
        Ok(QueryResult {
            columns: plan.schema.cols.iter().map(|c| c.name.clone()).collect(),
            rows,
            affected: 0,
            steps,
            planning,
            profile,
        })
    }

    /// Fetch (or build) the cache entry for canonical statement text.
    fn ensure_cached(&mut self, canonical: &str) -> Result<Rc<CachedStmt>> {
        if let Some(e) = self.cache.get(canonical) {
            return Ok(e);
        }
        let mut stmt = parse(canonical)?;
        crate::rewrite::rewrite_statement(&mut stmt);
        let n_params = count_params(&stmt);
        let Statement::Select(s) = stmt else {
            return Err(HdmError::Plan(
                "plan cache holds SELECT statements only".into(),
            ));
        };
        let (plan, _) = self.plan_with_ctes(&s, None)?;
        let entry = Rc::new(CachedStmt {
            param_types: collect_param_types(&plan, n_params),
            program: compile(&plan),
            drift: crate::prepared::drift_probes(&plan),
            drift_state: Cell::new(None),
            plan,
        });
        self.cache.insert(canonical.to_string(), Rc::clone(&entry));
        Ok(entry)
    }

    /// Execute a canonicalized statement through the plan cache: bind the
    /// lifted/user parameters, rehint estimates against the plan store, and
    /// run either the compiled op-array or — when profiling, whose profiles
    /// mirror the plan tree, or for shapes the compiler does not cover —
    /// the substituted plan tree through [`Self::run_plan`].
    fn execute_canonical(
        &mut self,
        text: &str,
        slots: &[Option<Datum>],
        user_params: &[Datum],
        sql: &str,
    ) -> Result<QueryResult> {
        let mut cached = self.ensure_cached(text)?;
        // Re-plan on drift: when the plan store's captured actuals diverge
        // from the cached plan's planning-time estimates past the
        // misestimate ratio, the cached access-path and join-order choices
        // are suspect — drop the entry and plan fresh against current hints.
        let mut replans = 0u64;
        if let Some(hints) = self.hints.as_deref() {
            if crate::prepared::drift_exceeds(
                &cached.drift,
                &cached.drift_state,
                hints,
                self.misestimate_ratio,
            ) {
                self.cache.remove(text);
                cached = self.ensure_cached(text)?;
                replans = 1;
            }
        }
        let params = bind_slots(slots, &cached.param_types, user_params)?;
        let profiled = self.profiling_enabled();
        if let (false, Some(prog)) = (profiled, &cached.program) {
            let (ests, mut planning) = self.rehint_steps(&prog.steps);
            planning.replans = replans;
            let mut steps = Vec::new();
            let rows = {
                let mut be = LocalBackend::new(&mut self.catalog, &mut self.mgr);
                prog.run(&params, &ests, &mut be, &mut steps)?
            };
            if let Some(o) = &self.observer {
                o.observe(&steps);
            }
            return Ok(QueryResult {
                columns: prog.schema.cols.iter().map(|c| c.name.clone()).collect(),
                rows,
                affected: 0,
                steps,
                planning,
                profile: None,
            });
        }
        let start = profiled.then(|| self.clock.now_us());
        let mut plan = cached.plan.substitute_params(&params)?;
        let mut planning = PlanningInfo {
            replans,
            ..Default::default()
        };
        self.rehint_plan(&mut plan, &mut planning);
        self.run_plan(&plan, planning, None, start.map(|t| (t, sql)))
    }

    /// Re-apply plan-store hints to a cached plan before execution — the
    /// cached-path counterpart of the planner's per-node hint lookup, so
    /// [`PlanningInfo`] counts match fresh planning.
    fn rehint_plan(&self, plan: &mut PlanNode, info: &mut PlanningInfo) {
        let Some(hints) = self.hints.as_deref() else {
            return;
        };
        crate::prepared::rehint_plan(plan, hints, info);
    }

    /// Rehint the step templates of a compiled program (same hit/miss
    /// accounting as [`Self::rehint_plan`] — templates mirror the plan's
    /// canonical-bearing nodes one to one).
    fn rehint_steps(&self, steps: &[StepTemplate]) -> (Vec<f64>, PlanningInfo) {
        let mut info = PlanningInfo::default();
        let mut ests: Vec<f64> = steps.iter().map(|s| s.est_rows).collect();
        if let Some(hints) = self.hints.as_deref() {
            for (i, st) in steps.iter().enumerate() {
                match hints.lookup(&st.text) {
                    Some(v) => {
                        info.hint_hits += 1;
                        ests[i] = v as f64;
                    }
                    None => info.hint_misses += 1,
                }
            }
        }
        (ests, info)
    }

    /// `sys.indexes` rows: one per secondary index, sorted by table name
    /// then index id. The embedded engine has no shards, so the backing
    /// shard set renders as `-`.
    fn index_rows(&self) -> Vec<Row> {
        let mut names: Vec<&str> = self.catalog.names().collect();
        names.sort_unstable();
        let mut rows = Vec::new();
        for name in names {
            let Ok(t) = self.catalog.get(name) else {
                continue;
            };
            for (ix_id, ix) in t.indexes().iter().enumerate() {
                let cols: Vec<&str> = ix
                    .key_columns()
                    .iter()
                    .map(|&c| t.schema().columns()[c].name.as_str())
                    .collect();
                rows.push(Row::new(vec![
                    Datum::Text(format!("{name}_ix{ix_id}")),
                    Datum::Text(name.to_string()),
                    Datum::Text(cols.join(",")),
                    Datum::Int(ix.len() as i64),
                    Datum::Text("-".into()),
                ]));
            }
        }
        rows
    }

    /// `sys.prepared` rows: one per cached plan, sorted by canonical text.
    fn prepared_rows(&self) -> Vec<Row> {
        self.cache
            .snapshot()
            .into_iter()
            .map(|(text, e)| {
                let ops = e.payload.program.as_ref().map_or(0, CompiledProgram::op_count);
                Row::new(vec![
                    Datum::Text(text.to_string()),
                    Datum::Int(e.hits as i64),
                    Datum::Int(ops as i64),
                    Datum::Int(e.last_used as i64),
                ])
            })
            .collect()
    }

    /// Split borrow of the storage halves (tests and the compiled runner).
    #[cfg(test)]
    pub(crate) fn storage_parts(&mut self) -> (&mut Catalog, &mut LocalTxnManager) {
        (&mut self.catalog, &mut self.mgr)
    }

    fn run_explain(
        &mut self,
        analyze: bool,
        inner: &Statement,
        sql: Option<&str>,
    ) -> Result<QueryResult> {
        let Statement::Select(s) = inner else {
            return Err(HdmError::Unsupported("EXPLAIN supports SELECT only".into()));
        };
        if analyze {
            // Execute for real (observing into the plan store as usual) and
            // render the annotated tree instead of the result rows.
            let r = self.run_select(s, sql, true)?;
            let profile = r.profile.expect("profiled select carries a profile");
            let rows: Vec<Row> = render_analyze(&profile, self.misestimate_ratio)
                .into_iter()
                .map(|l| Row::new(vec![Datum::Text(l)]))
                .collect();
            return Ok(QueryResult {
                columns: vec!["plan".into()],
                rows,
                affected: 0,
                steps: r.steps,
                planning: r.planning,
                profile: Some(profile),
            });
        }
        let sys_snap = self.sys_snapshot_for(s);
        let (plan, planning) = self.plan_with_ctes(s, sys_snap.as_ref())?;
        let text = plan.explain();
        let rows: Vec<Row> = text
            .lines()
            .map(|l| Row::new(vec![Datum::Text(l.to_string())]))
            .collect();
        Ok(QueryResult {
            columns: vec!["plan".into()],
            rows,
            affected: 0,
            steps: vec![],
            planning,
            profile: None,
        })
    }

    fn run_insert(
        &mut self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<crate::ast::Expr>],
    ) -> Result<QueryResult> {
        sys::check_read_only(table)?;
        // Evaluate all rows before writing anything.
        let t = self.catalog.get(table)?;
        let width = t.schema().len();
        let col_map: Vec<usize> = match columns {
            None => (0..width).collect(),
            Some(cols) => cols
                .iter()
                .map(|c| {
                    t.schema()
                        .index_of(c)
                        .ok_or_else(|| HdmError::Catalog(format!("no column {c} in {table}")))
                })
                .collect::<Result<_>>()?,
        };
        let empty = BoundSchema::default();
        let mut materialized: Vec<Row> = Vec::with_capacity(rows.len());
        for r in rows {
            if r.len() != col_map.len() {
                return Err(HdmError::Execution(format!(
                    "INSERT row has {} values, expected {}",
                    r.len(),
                    col_map.len()
                )));
            }
            let mut vals = vec![Datum::Null; width];
            for (expr, &slot) in r.iter().zip(&col_map) {
                vals[slot] = bind(expr, &empty)?.eval(&[])?;
            }
            materialized.push(Row::new(vals));
        }

        let mut be = LocalBackend::new(&mut self.catalog, &mut self.mgr);
        let affected = crate::backend::ExecBackend::insert(&mut be, table, materialized)?;
        Ok(QueryResult {
            affected,
            ..QueryResult::empty()
        })
    }

    fn run_update(
        &mut self,
        table: &str,
        sets: &[(String, crate::ast::Expr)],
        where_clause: Option<&crate::ast::Expr>,
    ) -> Result<QueryResult> {
        sys::check_read_only(table)?;
        let t = self.catalog.get(table)?;
        let schema = BoundSchema::from_table(
            &table.to_ascii_lowercase(),
            &table.to_ascii_lowercase(),
            t.schema(),
        );
        let pred = where_clause.map(|w| bind(w, &schema)).transpose()?;
        let set_bound: Vec<(usize, crate::expr::SExpr)> = sets
            .iter()
            .map(|(c, e)| {
                let idx = t
                    .schema()
                    .index_of(c)
                    .ok_or_else(|| HdmError::Catalog(format!("no column {c} in {table}")))?;
                Ok((idx, bind(e, &schema)?))
            })
            .collect::<Result<_>>()?;

        let mut be = LocalBackend::new(&mut self.catalog, &mut self.mgr);
        let affected =
            crate::backend::ExecBackend::update(&mut be, table, &set_bound, pred.as_ref())?;
        Ok(QueryResult {
            affected,
            ..QueryResult::empty()
        })
    }

    fn run_delete(
        &mut self,
        table: &str,
        where_clause: Option<&crate::ast::Expr>,
    ) -> Result<QueryResult> {
        sys::check_read_only(table)?;
        let t = self.catalog.get(table)?;
        let schema = BoundSchema::from_table(
            &table.to_ascii_lowercase(),
            &table.to_ascii_lowercase(),
            t.schema(),
        );
        let pred = where_clause.map(|w| bind(w, &schema)).transpose()?;
        let mut be = LocalBackend::new(&mut self.catalog, &mut self.mgr);
        let affected = crate::backend::ExecBackend::delete(&mut be, table, pred.as_ref())?;
        Ok(QueryResult {
            affected,
            ..QueryResult::empty()
        })
    }

    /// Parse + plan a SELECT and return the plan without executing —
    /// exposes estimates to tests and the Table I harness.
    pub fn plan_only(&mut self, sql: &str) -> Result<PlanNode> {
        let mut stmt = parse(sql)?;
        crate::rewrite::rewrite_statement(&mut stmt);
        let Statement::Select(s) = stmt else {
            return Err(HdmError::Plan("plan_only expects SELECT".into()));
        };
        let sys_snap = self.sys_snapshot_for(&s);
        Ok(self.plan_with_ctes(&s, sys_snap.as_ref())?.0)
    }
}

impl QueryApi for Database {
    fn prepare_handle(&mut self, sql: &str) -> Result<StmtHandle> {
        if let Some(c) = canonicalize(sql)? {
            // Validate (and warm the cache) by planning once up front, so
            // unknown tables/columns surface at prepare time.
            self.ensure_cached(&c.text)?;
            let n_open = c.open_params();
            return Ok(StmtHandle::Cached {
                canonical: c.text,
                slots: c.slots,
                n_open,
            });
        }
        let mut stmt = parse(sql)?;
        crate::rewrite::rewrite_statement(&mut stmt);
        let n_params = count_params(&stmt);
        Ok(StmtHandle::Ast {
            stmt: Box::new(stmt),
            n_params,
            sql: sql.to_string(),
        })
    }

    fn execute_prepared(&mut self, handle: &StmtHandle, params: &[Datum]) -> Result<QueryResult> {
        let result = match handle {
            StmtHandle::Cached {
                canonical, slots, ..
            } => self.execute_canonical(canonical, slots, params, canonical),
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
                let bound = substitute_statement_params(stmt, params)?;
                self.execute_statement_inner(&bound, Some(sql))
            }
        }?;
        self.maybe_capture_history();
        Ok(result)
    }

    /// The embedded engine has no replication to retry against; options are
    /// accepted for API parity with the distributed engine.
    fn execute_opts(&mut self, sql: &str, _opts: ExecOptions) -> Result<QueryResult> {
        self.execute(sql)
    }
}

/// Free helper: evaluate SELECT items when validating star-expansion (used
/// by tests; kept public-in-crate for the planner tests).
#[allow(dead_code)]
fn is_star(items: &[SelectItem]) -> bool {
    matches!(items, [SelectItem::Star])
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
            db.execute(&format!(
                "insert into olap.t1 values {}",
                values.join(", ")
            ))
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
        let r = db.execute("select count(*), min(b1), max(b1) from olap.t1").unwrap();
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
        db.execute("insert into a values (1), (2), (2), (3)").unwrap();
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
        let plan = db
            .plan_only("select * from olap.t1 where b1 > 10")
            .unwrap();
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
        assert_eq!(rows[0], row![5]); // i in {0,100,...,900}, a1=i%200<100: i=0,100,400,500,800,900 -> wait
    }

    #[test]
    fn select_distinct_deduplicates() {
        let mut db = Database::new();
        db.execute("create table t (a int, b int)").unwrap();
        db.execute("insert into t values (1,1), (1,1), (1,2), (2,1)")
            .unwrap();
        let rows = db.query("select distinct a from t order by a").unwrap();
        assert_eq!(rows, vec![row![1], row![2]]);
        let rows = db.query("select distinct a, b from t order by a, b").unwrap();
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
        assert!(db.execute("select a, count(*) from t").is_err(), "a not grouped");
    }
}
