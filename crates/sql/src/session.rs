//! The SQL session both facades share (paper §II: FI-MPPDB's coordinator is
//! one SQL front end whatever the rows' placement).
//!
//! [`Session`] owns what the embedded [`crate::Database`] and the
//! distributed `DistDb` do identically above their
//! [`ExecBackend`](crate::backend::ExecBackend): the plan-store hooks, the
//! profiler clock, flight recorder and profiling switch, the
//! prepared-statement plan cache with its re-plan-on-drift check, the
//! workload-history hook, the `sys.*` views that do not depend on where rows
//! live, the tail of the SELECT driver, and EXPLAIN rendering. Each facade
//! keeps a `session` field plus its backend: planning, the executor choice,
//! DDL/DML routing and the views only it can answer.
//!
//! The free functions are the statement-path and DDL/DML binding steps both
//! facades run before their backends diverge.

use crate::ast::{ColumnDef, Expr, SelectStmt, Statement};
use crate::catalog::Catalog;
use crate::db::{CardinalityHints, QueryResult, StepObserver};
use crate::expr::{bind, BoundSchema, SExpr};
use crate::plan::{PlanNode, StepObservation};
use crate::planner::PlanningInfo;
use crate::prepared::{
    canonicalize, collect_param_types, count_params, drift_exceeds, substitute_statement_params,
    PlanCache, StmtHandle, PLAN_CACHE_CAP,
};
use crate::profile::{observations, render_analyze, Profiler};
use crate::sys::{self, PlanStoreDump, SysSnapshot};
use hdm_common::{Column, DataType, Datum, HdmError, Result, Row, Schema};
use hdm_storage::index::OrderedIndex;
use hdm_telemetry::{
    CaptureInput, MetricsSnapshot, Regression, ShardWindowStat, SharedClock, SharedHistory,
    SharedRecorder, StatementProfile, WallClock,
};
use hdm_txn::{LocalTxnManager, TxnStatus};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// What a facade adds to a workload-history capture: its metrics-registry
/// snapshot and per-shard health rows (none on the embedded engine).
pub type EngineState = (Option<MetricsSnapshot>, Vec<ShardWindowStat>);

/// One plan-cache entry. `P` is the facade's flat program for the shape
/// (the embedded `CompiledProgram`, the distributed `FastSelect`).
pub struct CachedPlan<P> {
    /// The parameterized logical plan (un-annotated on the distributed
    /// engine: pruning re-runs per execution once parameters are bound).
    pub plan: PlanNode,
    /// Parameter types the plan constrains, by full slot position.
    pub param_types: Vec<Option<DataType>>,
    /// The flat program, when the facade lowers this shape.
    pub program: Option<P>,
    /// The op count `sys.prepared` reports (0 for tree-executed plans).
    ops: usize,
    /// Re-plan-on-drift probes: (store keys, planning-time estimate) per
    /// canonical node; see [`crate::prepared::max_drift`].
    drift: Vec<(Vec<String>, f64)>,
    /// Last `(store generation, drifted?)` verdict, so quiescent stores skip
    /// the keyed lookups; see [`drift_exceeds`].
    drift_state: Cell<Option<(u64, bool)>>,
}

impl<P> CachedPlan<P> {
    /// A fresh entry; `op_count` sizes `program` for `sys.prepared`.
    pub fn new(
        plan: PlanNode,
        n_params: usize,
        program: Option<P>,
        op_count: fn(&P) -> usize,
        drift: Vec<(Vec<String>, f64)>,
    ) -> Self {
        Self {
            param_types: collect_param_types(&plan, n_params),
            ops: program.as_ref().map_or(0, op_count),
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
pub struct Session<P> {
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
    pub cache: PlanCache<Rc<CachedPlan<P>>>,
    /// Workload-history engine backing `sys.history_*`.
    history: Option<SharedHistory>,
    /// Cached `HistoryConfig::every_stmts` (0 = clock-driven windows). In
    /// stride mode the per-statement hook is a counter bump on
    /// `history_pending` — no clock read, no lock — flushed into the engine
    /// only when a window is cut.
    history_stride: u64,
    /// Statements completed since the last flush into the engine.
    history_pending: u64,
}

impl<P> Default for Session<P> {
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
        }
    }
}

impl<P> Session<P> {
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

    /// Freeze the statement-start state of every `sys.*` view `s`
    /// references. The session answers the views it owns; `facade` answers
    /// the rest (`sys.metrics`, `sys.shards`, `sys.txns`, `sys.events`,
    /// `sys.indexes`, `sys.config`) and returns no rows for views it lacks.
    /// `None` — the common case — means the statement never touches the
    /// introspection plane and pays nothing.
    pub fn sys_snapshot(
        &self,
        s: &SelectStmt,
        facade: impl Fn(&str) -> Vec<Row>,
    ) -> Option<SysSnapshot> {
        let wanted = sys::referenced_views_in_select(s);
        if wanted.is_empty() {
            return None;
        }
        let history = |rows: fn(&SharedHistory) -> Vec<Row>| {
            self.history.as_ref().map(rows).unwrap_or_default()
        };
        let mut snap = SysSnapshot::new();
        for view in wanted {
            let rows = match view.as_str() {
                "sys.statements" => self
                    .recorder
                    .as_ref()
                    .map(sys::statement_rows)
                    .unwrap_or_default(),
                "sys.plan_store" => self
                    .sys_plan_store
                    .as_ref()
                    .map(|d| sys::plan_store_rows(d.as_ref()))
                    .unwrap_or_default(),
                "sys.prepared" => self.prepared_rows(),
                "sys.history_windows" => history(sys::history_window_rows),
                "sys.history_metrics" => history(sys::history_metric_rows),
                "sys.history_statements" => history(sys::history_statement_rows),
                "sys.history_coaccess" => history(sys::history_coaccess_rows),
                other => facade(other),
            };
            snap.insert(&view, rows);
        }
        Some(snap)
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

    /// Cache a freshly planned entry under its canonical text.
    pub fn cache_insert(&mut self, canonical: &str, entry: CachedPlan<P>) -> Rc<CachedPlan<P>> {
        let entry = Rc::new(entry);
        self.cache.insert(canonical.to_string(), Rc::clone(&entry));
        entry
    }

    /// Re-plan on drift: when the plan store's captured actuals diverge from
    /// `cached`'s planning-time estimates past the misestimate ratio, its
    /// access-path and join-order choices are suspect, so the entry is
    /// evicted for the facade to plan afresh against current hints. Returns
    /// the [`PlanningInfo::replans`] count (0 or 1).
    pub fn evict_if_drifted(&mut self, text: &str, cached: &CachedPlan<P>) -> u64 {
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
    /// and the flight recorder, and assemble the result with `plan`'s
    /// output columns.
    pub fn finish_select(
        &self,
        plan: &PlanNode,
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
        if let (Some(r), Some(p)) = (&self.recorder, &profile) {
            r.record(p.clone());
        }
        QueryResult {
            columns: plan.schema.cols.iter().map(|c| c.name.clone()).collect(),
            rows,
            steps,
            planning,
            profile,
            ..Default::default()
        }
    }

    /// `EXPLAIN ANALYZE`: render a profiled run's annotated tree (actuals
    /// per operator, per-shard Exchange legs, GTM/2PC footer, misestimate
    /// flags) in place of its rows.
    pub fn explain_analyze(&self, run: QueryResult) -> QueryResult {
        let profile = run.profile.expect("profiled select carries a profile");
        let lines = render_analyze(&profile, self.misestimate_ratio);
        QueryResult {
            profile: Some(profile),
            ..plan_rows(lines, run.steps, run.planning)
        }
    }
}

/// `EXPLAIN`: the plan text, one row per line.
pub fn explain_plan(plan: &PlanNode, planning: PlanningInfo) -> QueryResult {
    let text = plan.explain();
    plan_rows(text.lines().map(str::to_string), Vec::new(), planning)
}

fn plan_rows(
    lines: impl IntoIterator<Item = String>,
    steps: Vec<StepObservation>,
    planning: PlanningInfo,
) -> QueryResult {
    QueryResult {
        columns: vec!["plan".into()],
        rows: lines
            .into_iter()
            .map(|l| Row::new(vec![Datum::Text(l)]))
            .collect(),
        steps,
        planning,
        ..Default::default()
    }
}

/// The SELECT an `EXPLAIN` wraps.
pub fn explained(stmt: &Statement) -> Result<&SelectStmt> {
    match stmt {
        Statement::Select(s) => Ok(s),
        _ => Err(HdmError::Unsupported("EXPLAIN supports SELECT only".into())),
    }
}

/// Parse one statement and run the rewrite engine over it.
pub fn parse_rewritten(sql: &str) -> Result<Statement> {
    let mut stmt = crate::parser::parse(sql)?;
    crate::rewrite::rewrite_statement(&mut stmt);
    Ok(stmt)
}

/// The SELECT `plan_only` plans without executing.
pub fn plan_only_select(sql: &str) -> Result<SelectStmt> {
    match parse_rewritten(sql)? {
        Statement::Select(s) => Ok(s),
        _ => Err(HdmError::Plan("plan_only expects SELECT".into())),
    }
}

/// Parse canonical text on a plan-cache miss: the SELECT for the facade to
/// plan, and its parameter count.
pub fn parse_cacheable(canonical: &str) -> Result<(SelectStmt, usize)> {
    let stmt = parse_rewritten(canonical)?;
    let n_params = count_params(&stmt);
    match stmt {
        Statement::Select(s) => Ok((s, n_params)),
        _ => Err(HdmError::Plan(
            "plan cache holds SELECT statements only".into(),
        )),
    }
}

/// Prepare `sql`. A cacheable statement keeps only its canonical text, and
/// `warm` plans it once so unknown tables and columns surface at prepare
/// time; anything else keeps its rewritten AST.
pub fn prepare(sql: &str, warm: impl FnOnce(&str) -> Result<()>) -> Result<StmtHandle> {
    if let Some(c) = canonicalize(sql)? {
        warm(&c.text)?;
        let n_open = c.open_params();
        return Ok(StmtHandle::Cached {
            canonical: c.text,
            slots: c.slots,
            n_open,
        });
    }
    let stmt = parse_rewritten(sql)?;
    let n_params = count_params(&stmt);
    Ok(StmtHandle::Ast {
        stmt: Box::new(stmt),
        n_params,
        sql: sql.to_string(),
    })
}

/// Bind an AST handle's parameters at the AST level, after checking their
/// count.
pub fn bind_ast(stmt: &Statement, n_params: usize, params: &[Datum]) -> Result<Statement> {
    if params.len() != n_params {
        return Err(HdmError::Execution(format!(
            "statement has {n_params} parameters; got {}",
            params.len()
        )));
    }
    substitute_statement_params(stmt, params)
}

/// CREATE TABLE's schema; names in the `sys.` namespace are rejected.
pub fn table_schema(name: &str, columns: &[ColumnDef]) -> Result<Schema> {
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

/// Resolve column names to positions in `table`'s schema (CREATE INDEX
/// keys, INSERT column lists).
pub fn column_positions(table: &str, schema: &Schema, columns: &[String]) -> Result<Vec<usize>> {
    columns
        .iter()
        .map(|c| column_position(table, schema, c))
        .collect()
}

fn column_position(table: &str, schema: &Schema, column: &str) -> Result<usize> {
    schema
        .index_of(column)
        .ok_or_else(|| HdmError::Catalog(format!("no column {column} in {table}")))
}

/// Evaluate INSERT's VALUES into full-width rows (unlisted columns NULL)
/// before anything is written.
pub fn insert_rows(
    table: &str,
    schema: &Schema,
    columns: Option<&[String]>,
    rows: &[Vec<Expr>],
) -> Result<Vec<Row>> {
    let width = schema.len();
    let col_map = match columns {
        None => (0..width).collect(),
        Some(cols) => column_positions(table, schema, cols)?,
    };
    let empty = BoundSchema::default();
    rows.iter()
        .map(|r| {
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
            Ok(Row::new(vals))
        })
        .collect()
}

/// UPDATE's SET list bound to (column position, expression) pairs.
pub type BoundSets = Vec<(usize, SExpr)>;

/// Bind UPDATE/DELETE against `table`: the SET list (empty for DELETE) and
/// the WHERE predicate.
pub fn bind_dml(
    table: &str,
    schema: &Schema,
    sets: &[(String, Expr)],
    where_clause: Option<&Expr>,
) -> Result<(BoundSets, Option<SExpr>)> {
    let canon = table.to_ascii_lowercase();
    let scope = BoundSchema::from_table(&canon, &canon, schema);
    let pred = where_clause.map(|w| bind(w, &scope)).transpose()?;
    let sets = sets
        .iter()
        .map(|(c, e)| Ok((column_position(table, schema, c)?, bind(e, &scope)?)))
        .collect::<Result<_>>()?;
    Ok((sets, pred))
}

/// `sys.txns` rows for one transaction manager's active transactions, with
/// their 2PC state and global id (`shard` is NULL on the embedded engine).
pub fn txn_rows(shard: Datum, mgr: &LocalTxnManager) -> Vec<Row> {
    mgr.local_snapshot()
        .active
        .iter()
        .map(|xid| {
            let state = match mgr.status(*xid) {
                TxnStatus::InProgress => "in_progress",
                TxnStatus::Prepared => "prepared",
                TxnStatus::Committed => "committed",
                TxnStatus::Aborted => "aborted",
            };
            let gxid = mgr
                .gxid_of(*xid)
                .map_or(Datum::Null, |g| Datum::Int(g.raw() as i64));
            Row::new(vec![
                shard.clone(),
                Datum::Int(xid.raw() as i64),
                gxid,
                Datum::Text(state.into()),
            ])
        })
        .collect()
}

/// `sys.indexes` rows: one per secondary index in `catalog`, sorted by table
/// name then index id. `entries` counts an index's entries; `shards` names
/// the backing shard set.
pub fn index_rows(
    catalog: &Catalog,
    shards: &str,
    entries: impl Fn(&str, &OrderedIndex) -> i64,
) -> Vec<Row> {
    let mut names: Vec<&str> = catalog.names().collect();
    names.sort_unstable();
    let mut rows = Vec::new();
    for name in names {
        let Ok(t) = catalog.get(name) else {
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
                Datum::Int(entries(name, ix)),
                Datum::Text(shards.to_string()),
            ]));
        }
    }
    rows
}
