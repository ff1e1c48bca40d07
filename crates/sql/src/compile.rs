//! Flat op-array compilation of simple cached plans.
//!
//! The tree executor walks boxed plan nodes and re-derives canonical step
//! text on every statement; for the point-query shapes that dominate
//! prepared-statement workloads that overhead dwarfs the actual row work.
//! [`compile`] lowers a linear plan chain — `Limit? → Project? →
//! (SeqScan | IndexScan)` — into a [`CompiledProgram`]: a `Vec<Op>` over
//! explicit register slots, with per-step canonical text and estimates
//! frozen at compile time so executions still feed the plan store and the
//! `sys.prepared` view. A profiled run fills the same operator profile the
//! tree executor would, one op per chain node. Anything non-linear (joins,
//! aggregates, sorts, set ops) returns `None` and keeps using the tree
//! executor.

use crate::backend::ExecBackend;
use crate::expr::SExpr;
use crate::plan::{eq_key_value, PlanNode, PlanOp, StepKind, StepObservation};
use crate::profile::ChainProfiler;
use hdm_common::{Datum, HdmError, Result, Row};
use std::sync::Arc;

/// One instruction. Expression operands index [`CompiledProgram::exprs`];
/// `dst`/`src`/`reg` are register slots holding materialized row batches.
#[derive(Debug, Clone)]
pub enum Op {
    SeqScan {
        table: String,
        pred: Option<u16>,
        dst: u8,
    },
    IndexProbe {
        table: String,
        index_id: usize,
        /// Equality key expressions, in index column order; the probe value
        /// is extracted per execution after parameter substitution.
        keys: Vec<u16>,
        residual: Option<u16>,
        dst: u8,
    },
    Project {
        exprs: Vec<u16>,
        src: u8,
        dst: u8,
    },
    Limit {
        n: u64,
        reg: u8,
    },
}

/// Canonical step metadata for the observation an op emits, anchored to the
/// op by index. Estimates are the compile-time values; the engine rehints
/// them against the plan store before each run.
#[derive(Debug, Clone)]
pub struct StepTemplate {
    pub kind: StepKind,
    pub text: Arc<str>,
    pub est_rows: f64,
    pub op_index: usize,
}

/// A compiled statement body: one op per node of the plan chain, leaf
/// first, and the shared (possibly parameterized) expression pool.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    pub ops: Vec<Op>,
    pub exprs: Vec<SExpr>,
    pub n_regs: usize,
    pub steps: Vec<StepTemplate>,
}

/// Lower `plan` to a flat program, or `None` when the shape is not a linear
/// `Limit? → Project? → scan` chain.
pub fn compile(plan: &PlanNode) -> Option<CompiledProgram> {
    let mut exprs: Vec<SExpr> = Vec::new();
    let push = |exprs: &mut Vec<SExpr>, e: &SExpr| -> u16 {
        exprs.push(e.clone());
        (exprs.len() - 1) as u16
    };

    let (limit_node, rest) = match &plan.op {
        PlanOp::Limit { .. } => (Some(plan), &plan.children[0]),
        _ => (None, plan),
    };
    let (project_node, scan_node) = match &rest.op {
        PlanOp::Project { .. } => (Some(rest), &rest.children[0]),
        _ => (None, rest),
    };

    let mut ops = Vec::new();
    let mut steps = Vec::new();
    let scan_op = match &scan_node.op {
        PlanOp::SeqScan { table, predicate } => Op::SeqScan {
            table: table.clone(),
            pred: predicate.as_ref().map(|p| push(&mut exprs, p)),
            dst: 0,
        },
        PlanOp::IndexScan {
            table,
            index_id,
            key_exprs,
            residual,
            ..
        } => Op::IndexProbe {
            table: table.clone(),
            index_id: *index_id,
            keys: key_exprs.iter().map(|k| push(&mut exprs, k)).collect(),
            residual: residual.as_ref().map(|r| push(&mut exprs, r)),
            dst: 0,
        },
        _ => return None,
    };
    steps.push(StepTemplate {
        kind: StepKind::Scan,
        text: scan_node.canonical()?.into(),
        est_rows: scan_node.est_rows(),
        op_index: ops.len(),
    });
    ops.push(scan_op);

    let mut out_reg = 0u8;
    if let Some(p) = project_node {
        let PlanOp::Project { exprs: pes } = &p.op else {
            unreachable!()
        };
        let idxs: Vec<u16> = pes.iter().map(|e| push(&mut exprs, e)).collect();
        ops.push(Op::Project {
            exprs: idxs,
            src: out_reg,
            dst: 1,
        });
        out_reg = 1;
    }
    if let Some(l) = limit_node {
        let PlanOp::Limit { n } = &l.op else {
            unreachable!()
        };
        steps.push(StepTemplate {
            kind: StepKind::Limit,
            text: l.canonical()?.into(),
            est_rows: l.est_rows(),
            op_index: ops.len(),
        });
        ops.push(Op::Limit {
            n: *n,
            reg: out_reg,
        });
    }

    Some(CompiledProgram {
        ops,
        exprs,
        n_regs: out_reg as usize + 1,
        steps,
    })
}

impl CompiledProgram {
    /// Number of ops (surfaced by `sys.prepared`).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The tree a profile of one run mirrors: `plan`, the chain this
    /// program was compiled from, with `params` bound and each step's
    /// estimate set to its rehinted value in `ests`. That is the tree the
    /// tree executor would run, built without consulting the plan store a
    /// second time.
    pub fn profile_plan(
        &self,
        plan: &PlanNode,
        params: &[Datum],
        ests: &[f64],
    ) -> Result<PlanNode> {
        let mut bound = plan.substitute_params(params)?;
        for (st, &est) in self.steps.iter().zip(ests) {
            // Op `i` runs the node `ops.len() - 1 - i` links below the root.
            let mut node = &mut bound;
            for _ in st.op_index + 1..self.ops.len() {
                node = &mut node.children[0];
            }
            node.set_est_rows(est);
        }
        Ok(bound)
    }

    /// Execute against `backend` with `params` bound into the expression
    /// pool. `ests` carries the per-step estimates (rehinted by the caller,
    /// parallel to [`Self::steps`]); observations land in `obs` in the same
    /// post-order the tree executor produces. `prof`, opened over
    /// [`Self::profile_plan`], closes one chain node per finished op.
    pub fn run(
        &self,
        params: &[Datum],
        ests: &[f64],
        backend: &mut dyn ExecBackend,
        obs: &mut Vec<StepObservation>,
        mut prof: Option<&mut ChainProfiler<'_>>,
    ) -> Result<Vec<Row>> {
        let exprs: Vec<SExpr> = self
            .exprs
            .iter()
            .map(|e| {
                if e.has_params() {
                    e.substitute_params(params)
                } else {
                    Ok(e.clone())
                }
            })
            .collect::<Result<_>>()?;
        let mut regs: Vec<Vec<Row>> = vec![Vec::new(); self.n_regs];
        let mut out = 0usize;
        for (i, op) in self.ops.iter().enumerate() {
            match op {
                Op::SeqScan { table, pred, dst } => {
                    let p = pred.map(|x| &exprs[x as usize]);
                    let rows = &mut regs[*dst as usize];
                    backend.scan(table, p, &mut |r| {
                        rows.push(r.clone());
                        Ok(())
                    })?;
                    out = *dst as usize;
                }
                Op::IndexProbe {
                    table,
                    index_id,
                    keys,
                    residual,
                    dst,
                } => {
                    let key_values: Vec<Datum> = keys
                        .iter()
                        .map(|&k| {
                            eq_key_value(&exprs[k as usize]).ok_or_else(|| {
                                HdmError::Execution(
                                    "index probe key is not a column = value equality".into(),
                                )
                            })
                        })
                        .collect::<Result<_>>()?;
                    let r = residual.map(|x| &exprs[x as usize]);
                    regs[*dst as usize] = backend.point_get(table, *index_id, &key_values, r)?;
                    out = *dst as usize;
                }
                Op::Project {
                    exprs: pes,
                    src,
                    dst,
                } => {
                    let input = std::mem::take(&mut regs[*src as usize]);
                    let mut rows = Vec::with_capacity(input.len());
                    for row in &input {
                        let vals: Vec<Datum> = pes
                            .iter()
                            .map(|&e| exprs[e as usize].eval(row.values()))
                            .collect::<Result<_>>()?;
                        rows.push(Row::new(vals));
                    }
                    regs[*dst as usize] = rows;
                    out = *dst as usize;
                }
                Op::Limit { n, reg } => {
                    let r = &mut regs[*reg as usize];
                    if (r.len() as u64) > *n {
                        r.truncate(*n as usize);
                    }
                    out = *reg as usize;
                }
            }
            if let Some(p) = prof.as_deref_mut() {
                p.exit_next(regs[out].len() as u64, Vec::new());
            }
            for (si, st) in self.steps.iter().enumerate() {
                if st.op_index == i {
                    obs.push(StepObservation {
                        kind: st.kind,
                        text: st.text.clone(),
                        estimated: ests.get(si).copied().unwrap_or(st.est_rows),
                        actual: regs[out].len() as u64,
                    });
                }
            }
        }
        Ok(std::mem::take(&mut regs[out]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;

    fn setup() -> Database {
        let mut db = Database::new();
        db.execute("create table t (a int, b int)").unwrap();
        db.execute("insert into t values (1, 10), (2, 20), (3, 30)")
            .unwrap();
        db.execute("analyze").unwrap();
        db
    }

    #[test]
    fn compiles_linear_chains_only() {
        let mut db = setup();
        let plan = db
            .plan_only("select a + 1 from t where b > 10 limit 2")
            .unwrap();
        let prog = compile(&plan).expect("linear chain compiles");
        assert!(prog.op_count() >= 2);
        assert_eq!(prog.steps.len(), 2); // scan + limit
        let join = db
            .plan_only("select * from t x, t y where x.a = y.a")
            .unwrap();
        assert!(compile(&join).is_none(), "joins stay on the tree executor");
    }

    #[test]
    fn compiled_run_matches_tree_execution() {
        let mut db = setup();
        let sql = "select a + 1 from t where b > 10 limit 2";
        let plan = db.plan_only(sql).unwrap();
        let prog = compile(&plan).expect("compiles");
        let expected = db.execute(sql).unwrap();
        let ests: Vec<f64> = prog.steps.iter().map(|s| s.est_rows).collect();
        let mut obs = Vec::new();
        let rows = {
            let (catalog, mgr) = db.storage_parts();
            let mut be = crate::backend::LocalBackend::new(catalog, mgr);
            prog.run(&[], &ests, &mut be, &mut obs, None).unwrap()
        };
        assert_eq!(rows, expected.rows);
        assert_eq!(obs.len(), expected.steps.len());
        for (a, b) in obs.iter().zip(&expected.steps) {
            assert_eq!(a.text, b.text);
            assert_eq!(a.actual, b.actual);
        }
    }
}
