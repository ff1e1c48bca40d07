//! # hdm-sql
//!
//! A single-node SQL engine in the shape of FI-MPPDB's per-node query stack
//! (paper §II, §II-C): lexer → parser → catalog-bound logical plan →
//! cost-based physical plan → executor. Built specifically to host the
//! learning-optimizer experiment (Table I): the planner produces *estimated*
//! cardinalities per step, the executor observes *actual* cardinalities, and
//! both speak the **canonical logical step form** (`SCAN(…)`, `JOIN(…)`,
//! `AGG(…)`, …) that the plan store is keyed on.
//!
//! Supported SQL subset: `CREATE TABLE`, `CREATE INDEX`, `INSERT`, `UPDATE`,
//! `DELETE`, `ANALYZE`, `EXPLAIN`, and `SELECT` with WITH (non-recursive
//! CTEs), comma/INNER joins, WHERE, GROUP BY with COUNT/SUM/AVG/MIN/MAX,
//! ORDER BY, LIMIT, UNION/INTERSECT/EXCEPT, and *table functions* in FROM
//! (the extension point the multi-model engine of §II-B plugs
//! `gtimeseries(...)`/`ggraph(...)` into).
//!
//! A query **rewrite engine** (constant folding, boolean simplification,
//! comparison de-negation) normalizes statements before planning — §II-C's
//! "establishing a query rewrite engine" — which doubles as plan-store
//! normalization: different spellings of one predicate share canonical text.
//!
//! [`session::Session`] is the SQL session both facades hold — the embedded
//! [`Database`] here and the distributed `DistDb` in `hdm-cluster`: the
//! plan cache and its drift check, the plan-store hooks, profiler and
//! flight-recorder wiring, the workload-history hook and the `sys.*` views
//! that do not depend on placement. [`session::Facade`] is the one
//! statement path both run — canonicalize, plan cache, drift check, bind,
//! flat program or tree, EXPLAIN, DDL/DML binding — and [`QueryApi`] is
//! implemented once on top of it. [`program::lower`] is the one lowering
//! of a cached linear SELECT into the flat [`program::LinearSelect`] both
//! facades run. Each facade adds only its backend: how it
//! plans, lowers and runs, how it applies DDL/DML, and the views only it
//! can answer.
//!
//! Extension hooks:
//! * [`db::CardinalityHints`] — the optimizer consults it before using its
//!   own estimate (the plan-store *consumer*).
//! * [`db::StepObserver`] — receives `(step text, estimated, actual)` after
//!   execution (the plan-store *producer*).
//! * [`db::TableFunction`] — named table-valued functions callable in FROM.

pub mod ast;
pub mod backend;
pub mod catalog;
pub mod db;
pub mod dml;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod prepared;
pub mod profile;
pub mod program;
pub mod rewrite;
pub mod session;
pub mod sys;

pub use ast::Statement;
pub use backend::{ExecBackend, LocalBackend};
pub use catalog::Catalog;
pub use db::{CardinalityHints, Database, QueryResult, StepObserver, TableFunction};
pub use plan::{PlanNode, StepKind, StepObservation};
pub use prepared::{
    canonicalize, CanonicalSql, ExecOptions, PlanCache, Prepared, QueryApi, StmtHandle,
};
pub use profile::Profiler;
pub use sys::{PlanStoreDump, PlanStoreEntry, SysSnapshot};
// Profile data types live in `hdm-telemetry` (the recorder owns the
// schema); re-exported here so SQL-layer users need no extra import.
pub use hdm_telemetry::{OpProfile, ShardLeg, StatementProfile};

/// Test helper: parse a standalone scalar expression (used by unit tests in
/// several modules; hidden from the public API surface).
#[doc(hidden)]
pub fn parser_test_expr(text: &str) -> ast::Expr {
    let stmt = parser::parse(&format!("select {text}")).expect("test expression parses");
    let Statement::Select(s) = stmt else {
        panic!("not a select");
    };
    let ast::SelectItem::Expr { expr, .. } = s.projections.into_iter().next().unwrap() else {
        panic!("star projection in test expression");
    };
    expr
}
