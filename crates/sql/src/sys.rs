//! The `sys.*` introspection plane: virtual system views served through the
//! [`ExecBackend`](crate::backend::ExecBackend) seam.
//!
//! The views are not catalog tables. At statement start the engine (embedded
//! `Db` or the distributed coordinator) materializes a [`SysSnapshot`] — a
//! name → rows map frozen on the pluggable clock — but **only** when the
//! statement's FROM trees actually reference a `sys.` name, so the hot path
//! never pays for introspection it did not ask for. The planner synthesizes
//! an ordinary `SeqScan` for a snapshotted view (no shard annotation, no
//! index probing) and the backend serves the frozen rows from the snapshot,
//! which means filters, projections, aggregates, and joins against user
//! tables all work unchanged — the executor cannot tell a system view from
//! a heap table.
//!
//! Determinism rules (golden-file pinnable output):
//! * a view's rows are computed once, at statement start, from engine state
//!   plus the pluggable clock — never lazily mid-execution;
//! * row order is fixed (metrics sorted by rendered series name, shards by
//!   shard id, statements by flight-recorder sequence, events by journal
//!   sequence, plan-store entries MRU-first as `PlanStore::dump` yields
//!   them, transactions by `(shard, xid)`);
//! * floating-point columns are derived from integer engine state, so equal
//!   inputs render equal output.
//!
//! Views are read-only: INSERT/UPDATE/DELETE against a `sys.` name and
//! CREATE TABLE of a `sys.`-prefixed name are rejected by both engines.

use crate::ast::{SelectStmt, Statement, TableRef};
use crate::catalog::Catalog;
use hdm_common::{Column, DataType, Datum, Row, Schema};
use hdm_storage::index::OrderedIndex;
use hdm_telemetry::{MetricsSnapshot, SharedHistory, SharedRecorder, StatementProfile};
use hdm_txn::{LocalTxnManager, TxnStatus};
use std::collections::{BTreeMap, BTreeSet};

/// Reserved prefix for system views (and rejected for user table names).
pub const SYS_PREFIX: &str = "sys.";

/// Every view the introspection plane serves.
pub const SYS_VIEWS: &[&str] = &[
    "sys.metrics",
    "sys.statements",
    "sys.shards",
    "sys.txns",
    "sys.events",
    "sys.plan_store",
    "sys.prepared",
    "sys.indexes",
    "sys.config",
    "sys.history_windows",
    "sys.history_metrics",
    "sys.history_statements",
    "sys.history_coaccess",
];

/// Is `name` (any case) one of the served `sys.*` views?
pub fn is_sys_view(name: &str) -> bool {
    let key = name.to_ascii_lowercase();
    SYS_VIEWS.contains(&key.as_str())
}

/// Does `name` (any case) sit in the reserved `sys.` namespace?
pub fn is_sys_name(name: &str) -> bool {
    name.to_ascii_lowercase().starts_with(SYS_PREFIX)
}

/// DML against the `sys.` namespace is rejected identically by both engines.
pub fn check_read_only(table: &str) -> hdm_common::Result<()> {
    if is_sys_name(table) {
        return Err(hdm_common::HdmError::Execution(format!(
            "{table} is a read-only system view"
        )));
    }
    Ok(())
}

/// The fixed schema of a `sys.*` view, `None` for non-sys names.
pub fn view_schema(name: &str) -> Option<Schema> {
    let cols: &[(&str, DataType)] = match name.to_ascii_lowercase().as_str() {
        "sys.metrics" => &[
            ("name", DataType::Text),
            ("kind", DataType::Text),
            ("value", DataType::Int),
            ("count", DataType::Int),
            ("mean_us", DataType::Float),
            ("p50_us", DataType::Int),
            ("p95_us", DataType::Int),
            ("p99_us", DataType::Int),
            ("max_us", DataType::Int),
        ],
        "sys.statements" => &[
            ("seq", DataType::Int),
            ("sql", DataType::Text),
            ("scope", DataType::Text),
            ("start_us", DataType::Int),
            ("plan_us", DataType::Int),
            ("exec_us", DataType::Int),
            ("total_us", DataType::Int),
            ("rows_est", DataType::Float),
            ("rows_out", DataType::Int),
            ("gtm_interactions", DataType::Int),
            ("twopc_legs", DataType::Int),
        ],
        "sys.shards" => &[
            ("shard", DataType::Int),
            ("up", DataType::Int),
            ("epoch", DataType::Int),
            ("log_head", DataType::Int),
            ("followers", DataType::Int),
            ("replica_csn", DataType::Int),
            ("lag", DataType::Int),
        ],
        "sys.txns" => &[
            ("shard", DataType::Int),
            ("xid", DataType::Int),
            ("gxid", DataType::Int),
            ("state", DataType::Text),
        ],
        "sys.events" => &[
            ("seq", DataType::Int),
            ("time_us", DataType::Int),
            ("kind", DataType::Text),
            ("shard", DataType::Int),
            ("detail", DataType::Text),
        ],
        "sys.plan_store" => &[
            ("step", DataType::Text),
            ("kind", DataType::Text),
            ("estimated", DataType::Float),
            ("actual", DataType::Int),
            ("hits", DataType::Int),
            ("misestimate", DataType::Float),
        ],
        "sys.prepared" => &[
            ("canonical", DataType::Text),
            ("hits", DataType::Int),
            ("ops", DataType::Int),
            ("last_used", DataType::Int),
        ],
        "sys.indexes" => &[
            ("name", DataType::Text),
            ("tbl", DataType::Text),
            ("col", DataType::Text),
            ("entries", DataType::Int),
            ("shards", DataType::Text),
        ],
        "sys.config" => &[
            ("name", DataType::Text),
            ("value", DataType::Text),
            ("kind", DataType::Text),
            ("source", DataType::Text),
        ],
        "sys.history_windows" => &[
            ("window", DataType::Int),
            ("start_us", DataType::Int),
            ("end_us", DataType::Int),
            ("stmts", DataType::Int),
            ("twopc_legs", DataType::Int),
            ("p95_us", DataType::Int),
            ("cache_hits", DataType::Int),
            ("cache_misses", DataType::Int),
            ("cache_len", DataType::Int),
            ("plan_store_len", DataType::Int),
        ],
        "sys.history_metrics" => &[
            ("window", DataType::Int),
            ("name", DataType::Text),
            ("kind", DataType::Text),
            ("value", DataType::Int),
        ],
        "sys.history_statements" => &[
            ("window", DataType::Int),
            ("stmt", DataType::Text),
            ("scope", DataType::Text),
            ("execs", DataType::Int),
            ("total_us", DataType::Int),
            ("rows_out", DataType::Int),
            ("twopc_legs", DataType::Int),
            ("misestimate", DataType::Float),
        ],
        "sys.history_coaccess" => &[
            ("window", DataType::Int),
            ("stmt", DataType::Text),
            ("shards", DataType::Text),
            ("count", DataType::Int),
        ],
        _ => return None,
    };
    Some(Schema::new(
        cols.iter()
            .map(|(n, t)| Column::new(*n, *t))
            .collect::<Vec<_>>(),
    ))
}

/// The frozen statement-start state of every referenced view.
///
/// A view absent from the snapshot (not referenced, or the engine has no
/// source wired for it) scans as empty rather than erroring, so
/// `SELECT * FROM sys.events` is well-defined on an engine with no journal.
#[derive(Debug, Clone, Default)]
pub struct SysSnapshot {
    views: BTreeMap<String, Vec<Row>>,
}

impl SysSnapshot {
    pub fn new() -> Self {
        Self::default()
    }

    /// Freeze `rows` as the statement-lifetime content of `view`.
    pub fn insert(&mut self, view: &str, rows: Vec<Row>) {
        self.views.insert(view.to_ascii_lowercase(), rows);
    }

    /// The frozen rows of `view` (empty slice when nothing was captured).
    pub fn rows(&self, view: &str) -> &[Row] {
        self.views
            .get(&view.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// Every `sys.*` view referenced by `stmt`'s FROM trees — through joins,
/// subqueries, set-operation branches, and CTE bodies. Empty for statements
/// that never touch the introspection plane, which is the signal to skip
/// snapshot capture entirely.
pub fn referenced_views(stmt: &Statement) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    match stmt {
        Statement::Select(s) => collect_select(s, &mut out),
        Statement::Explain { stmt, .. } => return referenced_views(stmt),
        _ => {}
    }
    out
}

/// [`referenced_views`] for a bare SELECT (the engines' inner query paths
/// hold a `SelectStmt`, not a `Statement`, by the time they plan).
pub fn referenced_views_in_select(s: &SelectStmt) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_select(s, &mut out);
    out
}

fn collect_select(s: &SelectStmt, out: &mut BTreeSet<String>) {
    for (_, body) in &s.with {
        collect_select(body, out);
    }
    for tr in &s.from {
        collect_table_ref(tr, out);
    }
    if let Some((_, _, rhs)) = &s.set_op {
        collect_select(rhs, out);
    }
}

fn collect_table_ref(tr: &TableRef, out: &mut BTreeSet<String>) {
    match tr {
        TableRef::Named { name, .. } => {
            let key = name.to_ascii_lowercase();
            if SYS_VIEWS.contains(&key.as_str()) {
                out.insert(key);
            }
        }
        TableRef::Function { .. } => {}
        TableRef::Subquery { query, .. } => collect_select(query, out),
        TableRef::Join { left, right, .. } => {
            collect_table_ref(left, out);
            collect_table_ref(right, out);
        }
    }
}

/// One learned-cardinality entry, decoupled from the `learnopt` crate so the
/// dependency keeps pointing learnopt → sql. `SharedPlanStore` implements
/// [`PlanStoreDump`] over its MRU dump.
#[derive(Debug, Clone)]
pub struct PlanStoreEntry {
    pub step: String,
    pub kind: String,
    pub estimated: f64,
    pub actual: u64,
    pub hits: u64,
}

/// A source of learned-cardinality entries for `sys.plan_store`.
pub trait PlanStoreDump {
    fn dump_entries(&self) -> Vec<PlanStoreEntry>;
}

/// `sys.metrics` rows from a registry snapshot: counters, gauges, then
/// histograms, each group sorted by rendered series name (the snapshot's
/// BTreeMap order). Histogram percentiles ride in the `p50/p95/p99/max`
/// columns; scalar series leave them NULL.
pub fn metrics_rows(snap: &MetricsSnapshot) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, v) in &snap.counters {
        rows.push(Row::new(vec![
            Datum::Text(name.clone()),
            Datum::Text("counter".into()),
            Datum::Int(*v as i64),
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
        ]));
    }
    for (name, v) in &snap.gauges {
        rows.push(Row::new(vec![
            Datum::Text(name.clone()),
            Datum::Text("gauge".into()),
            Datum::Int(*v),
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
            Datum::Null,
        ]));
    }
    for (name, h) in &snap.histograms {
        rows.push(Row::new(vec![
            Datum::Text(name.clone()),
            Datum::Text("histogram".into()),
            Datum::Null,
            Datum::Int(h.count as i64),
            Datum::Float(h.mean_us),
            Datum::Int(h.p50_us as i64),
            Datum::Int(h.p95_us as i64),
            Datum::Int(h.p99_us as i64),
            Datum::Int(h.max_us as i64),
        ]));
    }
    rows
}

fn statement_row(seq: u64, p: &StatementProfile) -> Row {
    let rows_est = p
        .root
        .as_ref()
        .map(|r| Datum::Float(r.est_rows))
        .unwrap_or(Datum::Null);
    Row::new(vec![
        Datum::Int(seq as i64),
        Datum::Text(p.sql.clone()),
        Datum::Text(p.scope.clone()),
        Datum::Int(p.start_us as i64),
        Datum::Int(p.plan_us as i64),
        Datum::Int(p.exec_us as i64),
        Datum::Int(p.total_us as i64),
        rows_est,
        Datum::Int(p.rows_out as i64),
        Datum::Int(p.gtm_interactions as i64),
        Datum::Int(p.twopc_legs as i64),
    ])
}

/// `sys.statements` rows from the flight recorder, oldest first by sequence.
pub fn statement_rows(rec: &SharedRecorder) -> Vec<Row> {
    rec.with(|r| r.iter().map(|(seq, p)| statement_row(seq, p)).collect())
}

/// `sys.plan_store` rows from any dump source, MRU-first. `misestimate` is
/// the symmetric ratio `max(est/actual, actual/est)` (1.0 = perfect, NULL
/// until an actual cardinality has been observed).
pub fn plan_store_rows(dump: &dyn PlanStoreDump) -> Vec<Row> {
    dump.dump_entries()
        .into_iter()
        .map(|e| {
            let mis = if e.actual > 0 && e.estimated > 0.0 {
                let est = e.estimated;
                let act = e.actual as f64;
                Datum::Float((est / act).max(act / est))
            } else {
                Datum::Null
            };
            Row::new(vec![
                Datum::Text(e.step),
                Datum::Text(e.kind),
                Datum::Float(e.estimated),
                Datum::Int(e.actual as i64),
                Datum::Int(e.hits as i64),
                mis,
            ])
        })
        .collect()
}

/// One `sys.config` row: a knob name, its rendered value, the value's kind
/// (`int`/`bool`/`text`), and the layer it came from (`cluster`, `engine`,
/// `telemetry`, `history`).
pub fn config_row(name: &str, value: impl ToString, kind: &str, source: &str) -> Row {
    Row::new(vec![
        Datum::Text(name.to_string()),
        Datum::Text(value.to_string()),
        Datum::Text(kind.to_string()),
        Datum::Text(source.to_string()),
    ])
}

/// `sys.history_windows` rows: one per retained window, oldest first.
pub fn history_window_rows(h: &SharedHistory) -> Vec<Row> {
    h.with(|e| {
        e.windows()
            .map(|w| {
                Row::new(vec![
                    Datum::Int(w.window as i64),
                    Datum::Int(w.start_us as i64),
                    Datum::Int(w.end_us as i64),
                    Datum::Int(w.stmts as i64),
                    Datum::Int(w.twopc_legs as i64),
                    Datum::Int(w.p95_us as i64),
                    Datum::Int(w.cache_hits as i64),
                    Datum::Int(w.cache_misses as i64),
                    Datum::Int(w.cache_len as i64),
                    Datum::Int(w.plan_store_len as i64),
                ])
            })
            .collect()
    })
}

/// `sys.history_metrics` rows: per window, counter deltas then gauge levels
/// then histogram count deltas, each group in series-name order.
pub fn history_metric_rows(h: &SharedHistory) -> Vec<Row> {
    h.with(|e| {
        let mut rows = Vec::new();
        for w in e.windows() {
            let win = Datum::Int(w.window as i64);
            for (name, v) in &w.counters {
                rows.push(Row::new(vec![
                    win.clone(),
                    Datum::Text(name.clone()),
                    Datum::Text("counter".into()),
                    Datum::Int(*v as i64),
                ]));
            }
            for (name, v) in &w.gauges {
                rows.push(Row::new(vec![
                    win.clone(),
                    Datum::Text(name.clone()),
                    Datum::Text("gauge".into()),
                    Datum::Int(*v),
                ]));
            }
            for (name, v) in &w.histogram_counts {
                rows.push(Row::new(vec![
                    win.clone(),
                    Datum::Text(name.clone()),
                    Datum::Text("histogram".into()),
                    Datum::Int(*v as i64),
                ]));
            }
        }
        rows
    })
}

/// `sys.history_statements` rows: each window's top-K statement aggregates
/// in statement-text order.
pub fn history_statement_rows(h: &SharedHistory) -> Vec<Row> {
    h.with(|e| {
        let mut rows = Vec::new();
        for w in e.windows() {
            for s in &w.statements {
                rows.push(Row::new(vec![
                    Datum::Int(w.window as i64),
                    Datum::Text(s.stmt.clone()),
                    Datum::Text(s.scope.clone()),
                    Datum::Int(s.execs as i64),
                    Datum::Int(s.total_us as i64),
                    Datum::Int(s.rows_out as i64),
                    Datum::Int(s.twopc_legs as i64),
                    Datum::Float(s.max_misestimate),
                ]));
            }
        }
        rows
    })
}

/// `sys.history_coaccess` rows: each window's `(statement, shard set)`
/// observations in (statement, shard-set) order — the placement substrate.
pub fn history_coaccess_rows(h: &SharedHistory) -> Vec<Row> {
    h.with(|e| {
        let mut rows = Vec::new();
        for w in e.windows() {
            for c in &w.coaccess {
                rows.push(Row::new(vec![
                    Datum::Int(w.window as i64),
                    Datum::Text(c.stmt.clone()),
                    Datum::Text(c.shards.clone()),
                    Datum::Int(c.count as i64),
                ]));
            }
        }
        rows
    })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn view_names_round_trip() {
        for v in SYS_VIEWS {
            assert!(is_sys_view(v), "{v}");
            assert!(is_sys_name(v), "{v}");
            let schema = view_schema(v).expect("schema");
            assert!(schema.columns().len() >= 4, "{v}");
        }
        assert!(!is_sys_view("orders"));
        assert!(!is_sys_view("sys.nope"));
        assert!(is_sys_view("SYS.SHARDS"));
        assert!(is_sys_name("sys.anything"));
    }

    #[test]
    fn referenced_views_walks_joins_subqueries_ctes_and_setops() {
        let cases: &[(&str, &[&str])] = &[
            ("select * from orders", &[]),
            ("select * from sys.shards", &["sys.shards"]),
            (
                "select * from sys.shards join sys.events on seq = shard",
                &["sys.events", "sys.shards"],
            ),
            (
                "select * from (select shard from sys.txns) t",
                &["sys.txns"],
            ),
            (
                "with m as (select name from sys.metrics) select * from m",
                &["sys.metrics"],
            ),
            (
                "select sql from sys.statements union select step from sys.plan_store",
                &["sys.plan_store", "sys.statements"],
            ),
            ("explain select lag from sys.shards", &["sys.shards"]),
        ];
        for (sql, want) in cases {
            let stmt = parse(sql).expect(sql);
            let got: Vec<String> = referenced_views(&stmt).into_iter().collect();
            assert_eq!(got, *want, "{sql}");
        }
    }

    #[test]
    fn snapshot_serves_empty_for_missing_views() {
        let mut s = SysSnapshot::new();
        s.insert("sys.shards", vec![Row::new(vec![Datum::Int(0)])]);
        assert_eq!(s.rows("SYS.SHARDS").len(), 1);
        assert!(s.rows("sys.events").is_empty());
    }
}
