//! Plan execution.
//!
//! Executors materialize child results (sufficient at this scale and keeps
//! actual-cardinality accounting trivial). After each cardinality-bearing
//! node runs, an observation `(canonical step text, estimated, actual)` is
//! recorded — the plan-store *producer*'s raw material ("the executor
//! captures only those steps that have a big differential between actual and
//! estimated row counts" — that differential policy lives in the store, not
//! here; we record everything and let the store filter, §II-C).

use crate::ast::SetOpKind;
use crate::backend::ExecBackend;
use crate::plan::{AggCall, AggFunc, PlanNode, PlanOp, StepObservation};
use crate::profile::Profiler;
use hdm_common::{Datum, HdmError, Result, Row};
use std::collections::HashMap;

/// Execute a plan against a storage backend, appending step observations.
/// With a profiler riding along, rows, observations and plan choice are
/// unchanged; the tree is *additionally* mirrored into an
/// [`hdm_telemetry::OpProfile`] (take it with [`Profiler::finish`]).
pub fn execute(
    plan: &PlanNode,
    backend: &mut dyn ExecBackend,
    obs: &mut Vec<StepObservation>,
    mut prof: Option<&mut Profiler>,
) -> Result<Vec<Row>> {
    if let Some(p) = prof.as_deref_mut() {
        p.enter();
    }
    let rows = match &plan.op {
        PlanOp::SeqScan { table, predicate } => backend.scan(table, predicate.as_ref())?,
        PlanOp::IndexScan {
            table,
            index_id,
            key_values,
            residual,
            ..
        } => backend.point_get(table, *index_id, key_values, residual.as_ref())?,
        PlanOp::IndexRange {
            table,
            index_id,
            lo,
            hi,
            residual,
            ..
        } => backend.index_range(table, *index_id, lo, hi, residual.as_ref())?,
        PlanOp::Exchange {
            table,
            predicate,
            shards,
            probe,
        } => backend.scan_shards(table, predicate.as_ref(), shards, probe.as_ref())?,
        PlanOp::Values { rows, .. } => rows.clone(),
        PlanOp::Filter { predicate } => {
            let input = execute(&plan.children[0], backend, obs, prof.as_deref_mut())?;
            let mut out = Vec::new();
            for r in input {
                if predicate.eval_filter(r.values())? {
                    out.push(r);
                }
            }
            out
        }
        PlanOp::NestedLoopJoin { on } => {
            let left = execute(&plan.children[0], backend, obs, prof.as_deref_mut())?;
            let right = execute(&plan.children[1], backend, obs, prof.as_deref_mut())?;
            let mut out = Vec::new();
            for l in &left {
                for r in &right {
                    let joined = l.concat(r);
                    let keep = match on {
                        None => true,
                        Some(p) => p.eval_filter(joined.values())?,
                    };
                    if keep {
                        out.push(joined);
                    }
                }
            }
            out
        }
        PlanOp::HashJoin {
            left_keys,
            right_keys,
            residual,
        } => {
            let left = execute(&plan.children[0], backend, obs, prof.as_deref_mut())?;
            let right = execute(&plan.children[1], backend, obs, prof.as_deref_mut())?;
            // Build on the right input.
            let mut table: HashMap<Vec<Datum>, Vec<&Row>> = HashMap::new();
            for r in &right {
                let key: Vec<Datum> = right_keys
                    .iter()
                    .map(|&k| r.values()[k].clone())
                    .collect();
                if key.iter().any(Datum::is_null) {
                    continue; // NULL never equi-joins.
                }
                table.entry(key).or_default().push(r);
            }
            let mut out = Vec::new();
            for l in &left {
                let key: Vec<Datum> =
                    left_keys.iter().map(|&k| l.values()[k].clone()).collect();
                if key.iter().any(Datum::is_null) {
                    continue;
                }
                if let Some(matches) = table.get(&key) {
                    for r in matches {
                        let joined = l.concat(r);
                        let keep = match residual {
                            None => true,
                            Some(p) => p.eval_filter(joined.values())?,
                        };
                        if keep {
                            out.push(joined);
                        }
                    }
                }
            }
            out
        }
        PlanOp::Project { exprs } => {
            let input = execute(&plan.children[0], backend, obs, prof.as_deref_mut())?;
            let mut out = Vec::with_capacity(input.len());
            for r in input {
                let vals: Vec<Datum> = exprs
                    .iter()
                    .map(|e| e.eval(r.values()))
                    .collect::<Result<_>>()?;
                out.push(Row::new(vals));
            }
            out
        }
        PlanOp::HashAgg { group, aggs } => {
            let input = execute(&plan.children[0], backend, obs, prof.as_deref_mut())?;
            run_hash_agg(group, aggs, &input)?
        }
        PlanOp::Sort { keys } => {
            let mut input = execute(&plan.children[0], backend, obs, prof.as_deref_mut())?;
            // Precompute sort keys to keep comparator infallible.
            let mut keyed: Vec<(Vec<Datum>, Row)> = Vec::with_capacity(input.len());
            for r in input.drain(..) {
                let k: Vec<Datum> = keys
                    .iter()
                    .map(|(e, _)| e.eval(r.values()))
                    .collect::<Result<_>>()?;
                keyed.push((k, r));
            }
            keyed.sort_by(|(a, _), (b, _)| {
                for (i, (_, desc)) in keys.iter().enumerate() {
                    let ord = a[i].total_cmp(&b[i]);
                    let ord = if *desc { ord.reverse() } else { ord };
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            keyed.into_iter().map(|(_, r)| r).collect()
        }
        PlanOp::Limit { n } => {
            let mut input = execute(&plan.children[0], backend, obs, prof.as_deref_mut())?;
            input.truncate(*n as usize);
            input
        }
        PlanOp::Distinct => {
            let input = execute(&plan.children[0], backend, obs, prof.as_deref_mut())?;
            let mut seen = std::collections::HashSet::new();
            input
                .into_iter()
                .filter(|r| seen.insert(r.clone()))
                .collect()
        }
        PlanOp::SetOp { kind, all } => {
            let left = execute(&plan.children[0], backend, obs, prof.as_deref_mut())?;
            let right = execute(&plan.children[1], backend, obs, prof.as_deref_mut())?;
            run_set_op(*kind, *all, left, right)
        }
    };

    if let Some(p) = prof {
        // Exchange nodes carry the per-shard legs the backend just ran.
        let shards = if matches!(plan.op, PlanOp::Exchange { .. }) {
            backend.take_exchange_profile()
        } else {
            Vec::new()
        };
        p.exit(plan, rows.len() as u64, shards);
    }
    if let Some(text) = plan.canonical() {
        obs.push(StepObservation {
            kind: plan.step_kind(),
            text,
            estimated: plan.est_rows(),
            actual: rows.len() as u64,
        });
    }
    Ok(rows)
}

enum Acc {
    Count(i64),
    SumI(Option<i64>),
    SumF(Option<f64>),
    Avg { sum: f64, n: i64 },
    Min(Option<Datum>),
    Max(Option<Datum>),
}

impl Acc {
    fn new(call: &AggCall) -> Acc {
        match call.func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::SumI(None), // upgraded to SumF on first float
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
        }
    }

    fn update(&mut self, call: &AggCall, row: &Row) -> Result<()> {
        let arg = match (&call.func, &call.arg) {
            (AggFunc::CountStar, _) => None,
            (_, Some(e)) => Some(e.eval(row.values())?),
            (_, None) => {
                return Err(HdmError::Execution(format!(
                    "{} without argument",
                    call.func.name()
                )))
            }
        };
        match self {
            Acc::Count(n) => match (&call.func, &arg) {
                (AggFunc::CountStar, _) => *n += 1,
                (_, Some(v)) if !v.is_null() => *n += 1,
                _ => {}
            },
            Acc::SumI(cur) => {
                if let Some(v) = &arg {
                    match v {
                        Datum::Null => {}
                        Datum::Int(x) => *cur = Some(cur.unwrap_or(0) + x),
                        Datum::Float(x) => {
                            // Upgrade to float accumulation.
                            let so_far = cur.unwrap_or(0) as f64;
                            *self = Acc::SumF(Some(so_far + x));
                        }
                        other => {
                            return Err(HdmError::Execution(format!(
                                "SUM over non-numeric {other}"
                            )))
                        }
                    }
                }
            }
            Acc::SumF(cur) => {
                if let Some(v) = &arg {
                    if let Some(x) = v.as_float() {
                        *cur = Some(cur.unwrap_or(0.0) + x);
                    } else if !v.is_null() {
                        return Err(HdmError::Execution(format!("SUM over non-numeric {v}")));
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(v) = &arg {
                    if let Some(x) = v.as_float() {
                        *sum += x;
                        *n += 1;
                    }
                }
            }
            Acc::Min(cur) => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        let better = cur.as_ref().map(|c| v < *c).unwrap_or(true);
                        if better {
                            *cur = Some(v);
                        }
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(v) = arg {
                    if !v.is_null() {
                        let better = cur.as_ref().map(|c| v > *c).unwrap_or(true);
                        if better {
                            *cur = Some(v);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Datum {
        match self {
            Acc::Count(n) => Datum::Int(n),
            Acc::SumI(v) => v.map(Datum::Int).unwrap_or(Datum::Null),
            Acc::SumF(v) => v.map(Datum::Float).unwrap_or(Datum::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Datum::Null
                } else {
                    Datum::Float(sum / n as f64)
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Datum::Null),
        }
    }
}

fn run_hash_agg(
    group: &[crate::expr::SExpr],
    aggs: &[AggCall],
    input: &[Row],
) -> Result<Vec<Row>> {
    let mut groups: HashMap<Vec<Datum>, Vec<Acc>> = HashMap::new();
    let mut order: Vec<Vec<Datum>> = Vec::new(); // deterministic output order
    for r in input {
        let key: Vec<Datum> = group
            .iter()
            .map(|g| g.eval(r.values()))
            .collect::<Result<_>>()?;
        let accs = match groups.get_mut(&key) {
            Some(a) => a,
            None => {
                order.push(key.clone());
                groups
                    .entry(key.clone())
                    .or_insert_with(|| aggs.iter().map(Acc::new).collect())
            }
        };
        for (acc, call) in accs.iter_mut().zip(aggs) {
            acc.update(call, r)?;
        }
    }
    // Global aggregate over empty input still yields one row.
    if group.is_empty() && groups.is_empty() {
        let accs: Vec<Acc> = aggs.iter().map(Acc::new).collect();
        let vals: Vec<Datum> = accs.into_iter().map(Acc::finish).collect();
        return Ok(vec![Row::new(vals)]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for key in order {
        let accs = groups.remove(&key).expect("key recorded");
        let mut vals = key;
        vals.extend(accs.into_iter().map(Acc::finish));
        out.push(Row::new(vals));
    }
    Ok(out)
}

fn run_set_op(kind: SetOpKind, all: bool, left: Vec<Row>, right: Vec<Row>) -> Vec<Row> {
    use std::collections::HashSet;
    match (kind, all) {
        (SetOpKind::Union, true) => {
            let mut out = left;
            out.extend(right);
            out
        }
        (SetOpKind::Union, false) => {
            let mut seen: HashSet<Row> = HashSet::new();
            let mut out = Vec::new();
            for r in left.into_iter().chain(right) {
                if seen.insert(r.clone()) {
                    out.push(r);
                }
            }
            out
        }
        (SetOpKind::Intersect, _) => {
            let rset: HashSet<Row> = right.into_iter().collect();
            let mut seen: HashSet<Row> = HashSet::new();
            left.into_iter()
                .filter(|r| rset.contains(r) && seen.insert(r.clone()))
                .collect()
        }
        (SetOpKind::Except, _) => {
            let rset: HashSet<Row> = right.into_iter().collect();
            let mut seen: HashSet<Row> = HashSet::new();
            left.into_iter()
                .filter(|r| !rset.contains(r) && seen.insert(r.clone()))
                .collect()
        }
    }
}
