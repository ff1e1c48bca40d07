//! Plan execution.
//!
//! Scans stream: `drive` runs `SeqScan`, `Exchange` and any `Filter` over
//! them by handing each row to a sink by reference, straight from the
//! backend's scan visitor, so `HashAgg` and `Project` consume rows where
//! they are read and never copy them. Because the consumer runs inside the
//! scan, a streamed node's profiled time (and each Exchange leg's) includes
//! its consumer's per-row work. Every other operator materializes its
//! result (sufficient at this scale and keeps actual-cardinality accounting
//! trivial); [`execute`] gathers a streamed node's rows by cloning them.
//! After each cardinality-bearing node runs, an observation `(canonical
//! step text, estimated, actual)` is recorded — the plan-store *producer*'s
//! raw material ("the executor captures only those steps that have a big
//! differential between actual and estimated row counts" — that
//! differential policy lives in the store, not here; we record everything
//! and let the store filter, §II-C). Streamed or not, nodes enter and leave
//! the profiler and push their observations in the same post-order.

use crate::ast::SetOpKind;
use crate::backend::ExecBackend;
use crate::expr::SExpr;
use crate::plan::{AggCall, AggFunc, PlanNode, PlanOp, StepObservation};
use crate::profile::Profiler;
use hdm_common::{BuildDatumHasher, Datum, HdmError, Result, Row};
use std::collections::{HashMap, HashSet};

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
    if streams(plan) {
        let mut rows = Vec::new();
        drive(plan, backend, obs, prof, &mut |r| {
            rows.push(r.clone());
            Ok(())
        })?;
        return Ok(rows);
    }
    enter(&mut prof);
    let rows = match &plan.op {
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
        PlanOp::Values { rows, .. } => rows.clone(),
        // A filter over a materialized child keeps its rows by move.
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
            // Build on the right input: number its distinct keys, and chain
            // each key's rows in input order (built back to front). A key is
            // allocated only when first seen; every lookup is by slice from
            // one reused buffer.
            let mut keys: HashMap<Vec<Datum>, usize, BuildDatumHasher> = HashMap::default();
            let mut first = Vec::new();
            let mut next = vec![usize::MAX; right.len()];
            let mut key = Vec::with_capacity(right_keys.len());
            for (i, r) in right.iter().enumerate().rev() {
                if !join_key(&mut key, right_keys, r.values()) {
                    continue;
                }
                let k = match keys.get(key.as_slice()) {
                    Some(&k) => k,
                    None => {
                        keys.insert(key.clone(), first.len());
                        first.push(usize::MAX);
                        first.len() - 1
                    }
                };
                next[i] = std::mem::replace(&mut first[k], i);
            }
            let mut out = Vec::new();
            for l in &left {
                if !join_key(&mut key, left_keys, l.values()) {
                    continue;
                }
                let Some(&k) = keys.get(key.as_slice()) else {
                    continue;
                };
                let mut i = first[k];
                while i != usize::MAX {
                    let joined = l.concat(&right[i]);
                    i = next[i];
                    let keep = match residual {
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
        PlanOp::Project { exprs } => {
            let mut out = Vec::new();
            let mut project = |r: &Row| -> Result<()> {
                let vals: Vec<Datum> = exprs
                    .iter()
                    .map(|e| e.eval(r.values()))
                    .collect::<Result<_>>()?;
                out.push(Row::new(vals));
                Ok(())
            };
            drive(
                &plan.children[0],
                backend,
                obs,
                prof.as_deref_mut(),
                &mut project,
            )?;
            out
        }
        PlanOp::HashAgg { group, aggs } => {
            let mut agg = Aggregate::new(group, aggs);
            let mut consume = |r: &Row| agg.push(r.values());
            drive(
                &plan.children[0],
                backend,
                obs,
                prof.as_deref_mut(),
                &mut consume,
            )?;
            agg.finish()
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
            let mut seen = HashSet::with_hasher(BuildDatumHasher::default());
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
        PlanOp::SeqScan { .. } | PlanOp::Exchange { .. } => unreachable!("streamed above"),
    };
    leave(plan, backend, obs, prof, rows.len() as u64);
    Ok(rows)
}

/// Nodes [`drive`] streams rather than materializes: scans, and filters
/// over a streamed child.
fn streams(plan: &PlanNode) -> bool {
    match plan.op {
        PlanOp::SeqScan { .. } | PlanOp::Exchange { .. } => true,
        PlanOp::Filter { .. } => streams(&plan.children[0]),
        _ => false,
    }
}

/// Run `plan`, handing each output row to `sink` by reference; returns the
/// number of rows. `SeqScan` and `Exchange` pass the backend's scan visitor
/// through, `Filter` streams its streamed child; any other node is
/// materialized by [`execute`] and its rows visited. An error from `sink`
/// aborts the run.
fn drive(
    plan: &PlanNode,
    backend: &mut dyn ExecBackend,
    obs: &mut Vec<StepObservation>,
    mut prof: Option<&mut Profiler>,
    sink: &mut dyn FnMut(&Row) -> Result<()>,
) -> Result<u64> {
    if !streams(plan) {
        let rows = execute(plan, backend, obs, prof)?;
        for r in &rows {
            sink(r)?;
        }
        return Ok(rows.len() as u64);
    }
    enter(&mut prof);
    let n = match &plan.op {
        PlanOp::SeqScan { table, predicate } => backend.scan(table, predicate.as_ref(), sink)?,
        PlanOp::Exchange {
            table,
            predicate,
            shards,
            probe,
        } => backend.scan_shards(table, predicate.as_ref(), shards, probe.as_ref(), sink)?,
        PlanOp::Filter { predicate } => {
            let mut n = 0;
            let mut filter = |r: &Row| -> Result<()> {
                if predicate.eval_filter(r.values())? {
                    n += 1;
                    sink(r)?;
                }
                Ok(())
            };
            drive(
                &plan.children[0],
                backend,
                obs,
                prof.as_deref_mut(),
                &mut filter,
            )?;
            n
        }
        _ => unreachable!("streams() admits only scans and filters over them"),
    };
    leave(plan, backend, obs, prof, n);
    Ok(n)
}

fn enter(prof: &mut Option<&mut Profiler>) {
    if let Some(p) = prof.as_deref_mut() {
        p.enter();
    }
}

/// Close `plan`'s profiler frame and record its step observation, with
/// `actual` rows out.
fn leave(
    plan: &PlanNode,
    backend: &mut dyn ExecBackend,
    obs: &mut Vec<StepObservation>,
    prof: Option<&mut Profiler>,
    actual: u64,
) {
    if let Some(p) = prof {
        // Exchange nodes carry the per-shard legs the backend just ran.
        let shards = if matches!(plan.op, PlanOp::Exchange { .. }) {
            backend.take_exchange_profile()
        } else {
            Vec::new()
        };
        p.exit(plan, actual, shards);
    }
    if let Some(text) = plan.canonical() {
        obs.push(StepObservation {
            kind: plan.step_kind(),
            text: text.into(),
            estimated: plan.est_rows(),
            actual,
        });
    }
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

    fn update(&mut self, call: &AggCall, row: &[Datum]) -> Result<()> {
        // A bare-column argument is read in place, not cloned.
        let arg = match (&call.func, &call.arg) {
            (AggFunc::CountStar, _) => None,
            (_, Some(e)) => Some(e.eval_ref(row)?),
            (_, None) => {
                return Err(HdmError::Execution(format!(
                    "{} without argument",
                    call.func.name()
                )))
            }
        };
        let arg = arg.as_deref();
        match self {
            Acc::Count(n) => match (&call.func, arg) {
                (AggFunc::CountStar, _) => *n += 1,
                (_, Some(v)) if !v.is_null() => *n += 1,
                _ => {}
            },
            Acc::SumI(cur) => {
                if let Some(v) = arg {
                    match v {
                        Datum::Null => {}
                        Datum::Int(x) => {
                            let sum = cur
                                .unwrap_or(0)
                                .checked_add(*x)
                                .ok_or_else(|| HdmError::Execution("integer overflow".into()))?;
                            *cur = Some(sum);
                        }
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
                if let Some(v) = arg {
                    if let Some(x) = v.as_float() {
                        *cur = Some(cur.unwrap_or(0.0) + x);
                    } else if !v.is_null() {
                        return Err(HdmError::Execution(format!("SUM over non-numeric {v}")));
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(v) = arg {
                    if let Some(x) = v.as_float() {
                        *sum += x;
                        *n += 1;
                    } else if !v.is_null() {
                        return Err(HdmError::Execution(format!("AVG over non-numeric {v}")));
                    }
                }
            }
            Acc::Min(cur) => {
                if let Some(v) = arg {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v < c) {
                        *cur = Some(v.clone());
                    }
                }
            }
            Acc::Max(cur) => {
                if let Some(v) = arg {
                    if !v.is_null() && cur.as_ref().is_none_or(|c| v > c) {
                        *cur = Some(v.clone());
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

/// A `HashAgg` fed one input row at a time. A global aggregate (no group
/// keys) keeps one accumulator set and always yields one row. A grouped one
/// evaluates each row's key into a reused buffer and looks it up by slice,
/// allocating only for a group it has not seen; groups come out in
/// first-seen order.
struct Aggregate<'p> {
    group: &'p [SExpr],
    aggs: &'p [AggCall],
    /// Group key → group number, numbered in first-seen order.
    groups: HashMap<Vec<Datum>, usize, BuildDatumHasher>,
    /// `aggs.len()` accumulators per group, by group number.
    accs: Vec<Acc>,
    key: Vec<Datum>,
}

impl<'p> Aggregate<'p> {
    fn new(group: &'p [SExpr], aggs: &'p [AggCall]) -> Self {
        let accs = if group.is_empty() {
            aggs.iter().map(Acc::new).collect()
        } else {
            Vec::new()
        };
        Self {
            group,
            aggs,
            groups: HashMap::default(),
            accs,
            key: Vec::with_capacity(group.len()),
        }
    }

    fn push(&mut self, row: &[Datum]) -> Result<()> {
        let g = if self.group.is_empty() {
            0
        } else {
            self.key.clear();
            for e in self.group {
                self.key.push(e.eval(row)?);
            }
            match self.groups.get(self.key.as_slice()) {
                Some(&g) => g,
                None => {
                    let g = self.groups.len();
                    self.groups.insert(self.key.clone(), g);
                    self.accs.extend(self.aggs.iter().map(Acc::new));
                    g
                }
            }
        };
        let n = self.aggs.len();
        for (acc, call) in self.accs[g * n..(g + 1) * n].iter_mut().zip(self.aggs) {
            acc.update(call, row)?;
        }
        Ok(())
    }

    fn finish(self) -> Vec<Row> {
        // A global aggregate has one, empty, key: one row even over no input.
        let n_groups = if self.group.is_empty() {
            1
        } else {
            self.groups.len()
        };
        let mut keys = vec![Vec::new(); n_groups];
        for (key, g) in self.groups {
            keys[g] = key;
        }
        let mut accs = self.accs.into_iter().map(Acc::finish);
        keys.into_iter()
            .map(|mut vals| {
                vals.extend(accs.by_ref().take(self.aggs.len()));
                Row::new(vals)
            })
            .collect()
    }
}

/// Copy a join key's columns of `row` into `key`; false when one is NULL,
/// which never equi-joins.
fn join_key(key: &mut Vec<Datum>, cols: &[usize], row: &[Datum]) -> bool {
    key.clear();
    for &c in cols {
        if row[c].is_null() {
            return false;
        }
        key.push(row[c].clone());
    }
    true
}

fn run_set_op(kind: SetOpKind, all: bool, left: Vec<Row>, right: Vec<Row>) -> Vec<Row> {
    type RowSet = HashSet<Row, BuildDatumHasher>;
    match (kind, all) {
        (SetOpKind::Union, true) => {
            let mut out = left;
            out.extend(right);
            out
        }
        (SetOpKind::Union, false) => {
            let mut seen: RowSet = RowSet::default();
            let mut out = Vec::new();
            for r in left.into_iter().chain(right) {
                if seen.insert(r.clone()) {
                    out.push(r);
                }
            }
            out
        }
        (SetOpKind::Intersect, _) => {
            let rset: RowSet = right.into_iter().collect();
            let mut seen: RowSet = RowSet::default();
            left.into_iter()
                .filter(|r| rset.contains(r) && seen.insert(r.clone()))
                .collect()
        }
        (SetOpKind::Except, _) => {
            let rset: RowSet = right.into_iter().collect();
            let mut seen: RowSet = RowSet::default();
            left.into_iter()
                .filter(|r| !rset.contains(r) && seen.insert(r.clone()))
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;

    fn run(db: &mut Database, sql: &str) -> (Vec<Row>, Vec<StepObservation>) {
        let r = db.execute(sql).unwrap();
        (r.rows, r.steps)
    }

    /// Groups come out in the order their first row was scanned, whatever
    /// the hash map's order; a grouped aggregate over no rows yields none and
    /// a global one yields exactly one.
    #[test]
    fn grouped_aggregate_emits_groups_in_first_seen_order() {
        let mut db = Database::new();
        db.execute("create table t (g int, v int)").unwrap();
        db.execute("insert into t values (30, 1), (10, 2), (30, 3), (20, 4), (10, 5), (40, 6)")
            .unwrap();
        let (rows, obs) = run(&mut db, "select g, count(*), sum(v) from t group by g");
        let want = [[30, 2, 4], [10, 2, 7], [20, 1, 4], [40, 1, 6]];
        let want: Vec<Row> = want
            .iter()
            .map(|r| Row::new(r.iter().map(|&x| Datum::Int(x)).collect()))
            .collect();
        assert_eq!(rows, want);
        // The streamed scan still observes its full row count, before the
        // aggregate observes its groups.
        let actuals: Vec<(crate::plan::StepKind, u64)> =
            obs.iter().map(|o| (o.kind, o.actual)).collect();
        assert_eq!(
            actuals,
            [
                (crate::plan::StepKind::Scan, 6),
                (crate::plan::StepKind::Agg, 4)
            ]
        );

        let (rows, _) = run(&mut db, "select g, count(*) from t where v > 99 group by g");
        assert!(rows.is_empty(), "no input rows, no groups: {rows:?}");
        let (rows, _) = run(&mut db, "select count(*), sum(v) from t where v > 99");
        assert_eq!(rows, vec![Row::new(vec![Datum::Int(0), Datum::Null])]);
    }
}
