//! The flat program both facades run for a cached linear SELECT (paper §II:
//! one SQL front end whatever the rows' placement).
//!
//! [`lower`] turns a cached plan chain `Limit? → Project? → (SeqScan |
//! IndexScan)` into a [`LinearSelect`], with each observed step's canonical
//! text and estimate fixed once; anything else keeps the tree executor.
//! The embedded engine runs every program on its `LocalBackend`; the
//! distributed one runs the scans it routes, with an [`Exchange`] attached.
//! Both share the rehint, bind, finish and profile steps below, so a flat
//! run observes and profiles exactly as the tree would.

use crate::db::CardinalityHints;
use crate::dml::KeyArg;
use crate::expr::SExpr;
use crate::plan::{PlanNode, PlanOp, StepKind, StepObservation};
use crate::planner::PlanningInfo;
use crate::profile::ChainProfiler;
use hdm_common::{Datum, Result, Row};
use hdm_telemetry::ShardLeg;
use std::borrow::Cow;
use std::sync::Arc;

/// A step a run observes: its canonical text and planning-time estimate.
#[derive(Debug, Clone)]
pub struct Step {
    pub text: Arc<str>,
    pub est: f64,
}

/// How the program reaches its rows.
#[derive(Debug, Clone)]
pub enum Access {
    /// A sequential scan. `param_eq` is its predicate pre-lowered when that
    /// is `column = ?N` alone: a run then needs no substitution, and the
    /// bound datum can route, probe and filter directly.
    Scan { param_eq: Option<(usize, u16)> },
    /// An equality probe of catalog index `index` with `key`.
    Probe { index: usize, key: KeyArg },
}

/// A lowered `Limit? → Project? → (SeqScan | IndexScan)` chain.
#[derive(Debug, Clone)]
pub struct LinearSelect {
    /// The scanned table, as planned.
    pub table: String,
    pub access: Access,
    /// The row filter: a scan's whole predicate, a probe's residual.
    pub pred: Option<SExpr>,
    /// Projection expressions over the scanned row, if any.
    pub project: Option<Vec<SExpr>>,
    pub scan: Step,
    pub limit: Option<(u64, Step)>,
    /// The scan's routing, on an engine that places rows on shards.
    pub exchange: Option<Exchange>,
}

/// A distributed engine's routing of a program's scan: the column whose INT
/// value pins one shard and the sharding prefix it maps to, every shard's
/// raw id, and the scan's `EXCHANGE(..)` text for each single shard (by raw
/// id) and for all of them, rendered once and shared by every run.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub column: usize,
    pub prefix: fn(i64) -> u32,
    pub shards: Vec<u64>,
    single: Vec<Arc<str>>,
    all: Arc<str>,
}

impl Exchange {
    pub fn new(scan: &Step, column: usize, prefix: fn(i64) -> u32, shards: Vec<u64>) -> Self {
        let text = |shards: &[u64]| -> Arc<str> {
            let list: Vec<String> = shards.iter().map(u64::to_string).collect();
            format!("EXCHANGE({}, SHARDS({}))", scan.text, list.join(",")).into()
        };
        Self {
            single: shards.iter().map(|&s| text(&[s])).collect(),
            all: text(&shards),
            column,
            prefix,
            shards,
        }
    }

    /// The observation text of a run on `shard` alone, or on every shard.
    pub fn text(&self, shard: Option<u64>) -> &Arc<str> {
        shard.map_or(&self.all, |s| &self.single[s as usize])
    }
}

/// Lower `plan` to a flat program, or `None` when it is not a linear
/// `Limit? → Project? → (SeqScan | IndexScan)` chain.
pub fn lower(plan: &PlanNode) -> Option<LinearSelect> {
    let (limit, rest) = match &plan.op {
        PlanOp::Limit { n } => (Some((*n, step(plan)?)), &plan.children[0]),
        _ => (None, plan),
    };
    let (project, scan) = match &rest.op {
        PlanOp::Project { exprs } => (Some(exprs.clone()), &rest.children[0]),
        _ => (None, rest),
    };
    let (table, access, pred) = match &scan.op {
        PlanOp::SeqScan { table, predicate } => {
            let param_eq = match predicate.as_ref().and_then(col_eq) {
                Some((col, KeyArg::Param(i))) => Some((col, i)),
                _ => None,
            };
            (table, Access::Scan { param_eq }, predicate)
        }
        PlanOp::IndexScan {
            table,
            index_id,
            key_exprs,
            residual,
            ..
        } => {
            let [key] = &key_exprs[..] else {
                return None;
            };
            let (_, key) = col_eq(key)?;
            let access = Access::Probe {
                index: *index_id,
                key,
            };
            (table, access, residual)
        }
        _ => return None,
    };
    Some(LinearSelect {
        table: table.clone(),
        access,
        pred: pred.clone(),
        project,
        scan: step(scan)?,
        limit,
        exchange: None,
    })
}

fn step(node: &PlanNode) -> Option<Step> {
    Some(Step {
        text: node.canonical()?.into(),
        est: node.est_rows(),
    })
}

/// `column = ?N` or `column = literal`, either operand order.
fn col_eq(e: &SExpr) -> Option<(usize, KeyArg)> {
    let SExpr::Binary(crate::ast::BinOp::Eq, l, r) = e else {
        return None;
    };
    match (l.as_ref(), r.as_ref()) {
        (SExpr::Col(c), v) | (v, SExpr::Col(c)) => match v {
            SExpr::Param(i) => Some((*c, KeyArg::Param(*i))),
            SExpr::Lit(d) => Some((*c, KeyArg::Lit(d.clone()))),
            _ => None,
        },
        _ => None,
    }
}

/// A program's predicate and projection with one run's parameters bound,
/// each borrowed when it has none.
pub struct Bound<'a> {
    pub pred: Option<Cow<'a, SExpr>>,
    project: Option<Cow<'a, [SExpr]>>,
}

impl Bound<'_> {
    /// `row` through the projection (a copy when there is none).
    pub fn project(&self, row: &Row) -> Result<Row> {
        match self.project.as_deref() {
            None => Ok(row.clone()),
            Some(exprs) => exprs
                .iter()
                .map(|e| e.eval(row.values()))
                .collect::<Result<_>>()
                .map(Row::new),
        }
    }

    /// Owned `rows` through the projection (kept as they are when there is
    /// none).
    pub fn project_all(&self, rows: Vec<Row>) -> Result<Vec<Row>> {
        match self.project {
            None => Ok(rows),
            Some(_) => rows.iter().map(|r| self.project(r)).collect(),
        }
    }
}

impl LinearSelect {
    /// Op count surfaced by `sys.prepared`: the scan plus an optional
    /// projection and limit.
    pub fn op_count(&self) -> usize {
        1 + self.project.is_some() as usize + self.limit.is_some() as usize
    }

    /// The scan's and the limit's estimates rehinted with the hint
    /// accounting a tree run reports; the scan's `exchange` text, if any,
    /// is looked up after its local one and counts hits only.
    pub fn rehint(
        &self,
        hints: Option<&dyn CardinalityHints>,
        exchange: Option<&str>,
        replans: u64,
    ) -> ([f64; 2], PlanningInfo) {
        let mut info = PlanningInfo {
            replans,
            ..Default::default()
        };
        let limit = self.limit.as_ref().map(|(_, s)| s);
        let mut ests = [self.scan.est, limit.map_or(0.0, |s| s.est)];
        if let Some(h) = hints {
            let steps = std::iter::once(&self.scan).chain(limit);
            for (est, step) in ests.iter_mut().zip(steps) {
                match h.lookup(&step.text) {
                    Some(v) => {
                        info.hint_hits += 1;
                        *est = v as f64;
                    }
                    None => info.hint_misses += 1,
                }
            }
            if let Some(v) = exchange.and_then(|t| h.lookup(t)) {
                info.hint_hits += 1;
                ests[0] = v as f64;
            }
        }
        (ests, info)
    }

    /// Bind `params` into the projection and, unless `keyed` (the run
    /// filters by the pre-lowered `column = ?N` instead), the predicate.
    pub fn bind(&self, params: &[Datum], keyed: bool) -> Result<Bound<'_>> {
        let pred = match &self.pred {
            Some(p) if !keyed => Some(p.bound(params)?),
            _ => None,
        };
        let project = match &self.project {
            Some(exprs) if exprs.iter().any(SExpr::has_params) => Some(Cow::Owned(
                exprs
                    .iter()
                    .map(|e| e.substitute_params(params))
                    .collect::<Result<_>>()?,
            )),
            other => other.as_deref().map(Cow::Borrowed),
        };
        Ok(Bound { pred, project })
    }

    /// The tree a profile of one run mirrors: `plan`, the chain this
    /// program was lowered from, with `params` bound and the run's rehinted
    /// estimates `ests` set on the scan and the limit.
    pub fn profile_plan(
        &self,
        plan: &PlanNode,
        params: &[Datum],
        ests: [f64; 2],
    ) -> Result<PlanNode> {
        let mut bound = plan.substitute_params(params)?;
        if self.limit.is_some() {
            bound.set_est_rows(ests[1]);
        }
        let mut scan = &mut bound;
        for _ in 1..self.op_count() {
            scan = &mut scan.children[0];
        }
        scan.set_est_rows(ests[0]);
        Ok(bound)
    }

    /// Close a run whose scan produced `rows`, projected: apply the limit,
    /// close the profiled chain (the scan with its per-shard `legs`, then
    /// the projection and the limit), and return the run's observations in
    /// the tree's post-order, the scan's under `scan_text`.
    pub fn finish(
        &self,
        rows: &mut Vec<Row>,
        scan_text: &Arc<str>,
        ests: [f64; 2],
        chain: Option<&mut ChainProfiler<'_>>,
        legs: Vec<ShardLeg>,
    ) -> Vec<StepObservation> {
        let scanned = rows.len() as u64;
        let mut steps = Vec::with_capacity(1 + self.limit.is_some() as usize);
        steps.push(StepObservation {
            kind: StepKind::Scan,
            text: Arc::clone(scan_text),
            estimated: ests[0],
            actual: scanned,
        });
        if let Some((n, step)) = &self.limit {
            rows.truncate(*n as usize);
            steps.push(StepObservation {
                kind: StepKind::Limit,
                text: Arc::clone(&step.text),
                estimated: ests[1],
                actual: rows.len() as u64,
            });
        }
        if let Some(c) = chain {
            c.exit_next(scanned, legs);
            if self.project.is_some() {
                c.exit_next(scanned, Vec::new());
            }
            if self.limit.is_some() {
                c.exit_next(rows.len() as u64, Vec::new());
            }
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;

    fn setup() -> Database {
        let mut db = Database::new();
        db.execute("create table t (a int, b int)").unwrap();
        let rows: Vec<String> = (0..200).map(|i| format!("({i}, {})", i * 10)).collect();
        db.execute(&format!("insert into t values {}", rows.join(", ")))
            .unwrap();
        db.execute("create index on t (b)").unwrap();
        db.execute("analyze").unwrap();
        db
    }

    #[test]
    fn lowers_linear_chains_only() {
        let mut db = setup();
        let plan = db
            .plan_only("select a + 1 from t where a > 1 limit 2")
            .unwrap();
        let prog = lower(&plan).expect("a linear chain lowers");
        assert!(matches!(prog.access, Access::Scan { param_eq: None }));
        assert_eq!(prog.op_count(), 3);
        assert_eq!(prog.limit.as_ref().map(|(n, _)| *n), Some(2));

        let plan = db.plan_only("select * from t where b = 20").unwrap();
        let prog = lower(&plan).expect("an index probe lowers");
        let Access::Probe { key, .. } = &prog.access else {
            panic!("probe expected: {:?}", prog.access);
        };
        assert_eq!(key, &KeyArg::Lit(Datum::Int(20)));
        assert_eq!(prog.op_count(), 1);

        for sql in [
            "select * from t x, t y where x.a = y.a",
            "select count(*) from t",
            "select a from t order by a",
        ] {
            let plan = db.plan_only(sql).unwrap();
            assert!(lower(&plan).is_none(), "stays on the tree: {sql}");
        }
    }
}
