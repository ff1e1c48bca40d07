//! The cost-based planner.
//!
//! AST → physical [`PlanNode`] with per-step multi-objective costs
//! ([`CostEstimate`]): predicate pushdown, cost-gated index access paths
//! (equality probes and range walks, falling back to SeqScan when the
//! weighted total says the probe is dearer), exhaustive bottom-up
//! join-order search for ≤ `EXHAUSTIVE_JOIN_LIMIT` relations (greedy
//! beyond), hash joins for equi-predicates, and hash aggregation. Before
//! trusting its own estimate for a SCAN/JOIN/AGG step the planner consults
//! the [`crate::db::CardinalityHints`] hook — the plan store's *consumer*
//! side ("The optimizer gets statistics information from the plan store and
//! uses it instead of its own estimates … The use of steps statistics is
//! done opportunistically", §II-C).

use crate::ast::{BinOp, Expr, SelectItem, SelectStmt, SetOpKind, Statement, TableRef};
use crate::catalog::Catalog;
use crate::db::{CardinalityHints, TableFunction};
use crate::expr::{bind, BoundColumn, BoundSchema, Resolve, SExpr};
use crate::plan::{
    range_bound_parts, range_bounds_from_exprs, AggCall, AggFunc, CostEstimate, PlanNode, PlanOp,
};
use crate::rewrite::pick_cheapest;
use crate::sys::SysSnapshot;
use hdm_common::{DataType, Datum, HdmError, Result, Row};
use std::collections::HashMap;
use std::ops::Bound;

/// Default row count for tables without statistics.
const DEFAULT_ROWS: f64 = 1000.0;
/// Default number of distinct values for columns without statistics.
const DEFAULT_NDV: f64 = 10.0;
/// Default selectivity for opaque predicates.
const DEFAULT_SEL: f64 = 1.0 / 3.0;
/// Up to this many base relations, join order is searched exhaustively
/// (Selinger-style bitmask DP); beyond it the greedy smallest-first fold
/// keeps planning linear.
const EXHAUSTIVE_JOIN_LIMIT: usize = 4;

/// Hint usage accounting for one planning pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanningInfo {
    pub hint_hits: u64,
    pub hint_misses: u64,
    /// Times a cached plan was discarded and re-planned because captured
    /// actuals drifted past the misestimate threshold.
    pub replans: u64,
}

/// Materialized temporary relations (CTE results), by lowercase name.
pub type TempRels = HashMap<String, (BoundSchema, Vec<Row>)>;

pub struct Planner<'a> {
    pub catalog: &'a Catalog,
    pub hints: Option<&'a dyn CardinalityHints>,
    pub table_funcs: &'a HashMap<String, Box<dyn TableFunction>>,
    pub info: PlanningInfo,
    /// Statement-start `sys.*` view state. When set, a FROM reference to a
    /// served view plans as an ordinary `SeqScan` of the frozen rows (no
    /// catalog entry, no index probing, no shard annotation).
    pub sys: Option<&'a SysSnapshot>,
}

/// One base relation during join planning.
struct Rel {
    node: PlanNode,
}

impl<'a> Planner<'a> {
    pub fn new(
        catalog: &'a Catalog,
        hints: Option<&'a dyn CardinalityHints>,
        table_funcs: &'a HashMap<String, Box<dyn TableFunction>>,
    ) -> Self {
        Self {
            catalog,
            hints,
            table_funcs,
            info: PlanningInfo::default(),
            sys: None,
        }
    }

    /// Plan `sys.*` references against `snapshot` (frozen at statement
    /// start). Without this, sys names resolve like any other missing table.
    pub fn with_sys(mut self, snapshot: Option<&'a SysSnapshot>) -> Self {
        self.sys = snapshot;
        self
    }

    /// Plan a SELECT (CTEs must already be materialized into `temp`).
    pub fn plan_select(&mut self, stmt: &SelectStmt, temp: &TempRels) -> Result<PlanNode> {
        // Fold the set-operation chain left-to-right.
        let mut node = self.plan_core(stmt, temp)?;
        let mut chain = &stmt.set_op;
        while let Some((kind, all, rhs)) = chain {
            let right = self.plan_core(rhs, temp)?;
            if right.schema.len() != node.schema.len() {
                return Err(HdmError::Plan(format!(
                    "{} arms have different arity ({} vs {})",
                    kind.name(),
                    node.schema.len(),
                    right.schema.len()
                )));
            }
            let (lrows, rrows) = (node.cost.rows, right.cost.rows);
            let est = match kind {
                SetOpKind::Union => {
                    if *all {
                        lrows + rrows
                    } else {
                        (lrows + rrows) * 0.9
                    }
                }
                SetOpKind::Intersect => lrows.min(rrows) * 0.5,
                SetOpKind::Except => lrows * 0.5,
            };
            let schema = node.schema.clone();
            node = self.hinted(cpu_node(
                PlanOp::SetOp {
                    kind: *kind,
                    all: *all,
                },
                vec![node, right],
                est,
                lrows + rrows,
                schema,
            ));
            chain = &rhs.set_op;
        }

        // ORDER BY / LIMIT over the whole result. Keys bind against the
        // output schema; if that fails and the top is a projection, SQL also
        // allows ordering by pre-projection columns — sort below the project.
        if !stmt.order_by.is_empty() {
            let bind_keys = |schema: &BoundSchema| -> Result<Vec<(SExpr, bool)>> {
                stmt.order_by
                    .iter()
                    .map(|(e, desc)| Ok((bind(e, schema)?, *desc)))
                    .collect()
            };
            match bind_keys(&node.schema) {
                Ok(keys) => {
                    let (est, schema) = (node.cost.rows, node.schema.clone());
                    node = cpu_node(
                        PlanOp::Sort { keys },
                        vec![node],
                        est,
                        sort_cpu(est),
                        schema,
                    );
                }
                Err(outer_err) => {
                    if !matches!(node.op, PlanOp::Project { .. }) {
                        return Err(outer_err);
                    }
                    let mut project = node;
                    let child = project.children.remove(0);
                    let keys = bind_keys(&child.schema).map_err(|_| outer_err)?;
                    let (est, schema) = (child.cost.rows, child.schema.clone());
                    let sorted = cpu_node(
                        PlanOp::Sort { keys },
                        vec![child],
                        est,
                        sort_cpu(est),
                        schema,
                    );
                    project.children.push(sorted);
                    node = project;
                }
            }
        }
        if let Some(n) = stmt.limit {
            let est = node.cost.rows.min(n as f64);
            let schema = node.schema.clone();
            node = self.hinted(cpu_node(PlanOp::Limit { n }, vec![node], est, 0.0, schema));
        }
        Ok(node)
    }

    /// Plan one SELECT core (no set ops / order / limit).
    fn plan_core(&mut self, stmt: &SelectStmt, temp: &TempRels) -> Result<PlanNode> {
        // 1. Base relations.
        let mut rels: Vec<Rel> = Vec::new();
        let mut join_on_pool: Vec<Expr> = Vec::new();
        for tref in &stmt.from {
            self.collect_rels(tref, temp, &mut rels, &mut join_on_pool)?;
        }
        if rels.is_empty() {
            // SELECT without FROM: one synthetic row.
            rels.push(Rel {
                node: PlanNode {
                    op: PlanOp::Values {
                        label: "dual".into(),
                        rows: vec![Row::new(vec![])],
                    },
                    children: vec![],
                    cost: CostEstimate::rows_only(1.0),
                    schema: BoundSchema::default(),
                },
            });
        }

        // 2. Predicate pool.
        let mut pool: Vec<Expr> = join_on_pool;
        if let Some(w) = &stmt.where_clause {
            pool.extend(w.clone().conjuncts());
        }

        // 3. Classify conjuncts.
        let mut pushdowns: Vec<Vec<Expr>> = vec![Vec::new(); rels.len()];
        let mut edges: Vec<(usize, usize, Expr)> = Vec::new();
        let mut residual: Vec<Expr> = Vec::new();
        for conj in pool {
            match self.classify(&conj, &rels)? {
                Classified::Single(i) => pushdowns[i].push(conj),
                Classified::EquiJoin(i, j) => edges.push((i, j, conj)),
                Classified::Residual => residual.push(conj),
            }
        }

        // 4. Finalize scans with pushdowns.
        let mut nodes: Vec<PlanNode> = Vec::new();
        for (rel, push) in rels.into_iter().zip(pushdowns) {
            nodes.push(self.finalize_scan(rel.node, push)?);
        }

        // 5. Join ordering: exhaustive cost search for small joins, greedy
        // beyond the DP limit.
        let mut node = self.order_joins(nodes, edges)?;

        // 6. Residual filters.
        if !residual.is_empty() {
            let pred = residual
                .into_iter()
                .reduce(|a, b| Expr::bin(BinOp::And, a, b))
                .expect("nonempty");
            let bound = bind(&pred, &node.schema)?;
            let input_rows = node.cost.rows;
            let est = input_rows * DEFAULT_SEL;
            let schema = node.schema.clone();
            node = cpu_node(
                PlanOp::Filter { predicate: bound },
                vec![node],
                est,
                input_rows,
                schema,
            );
        }

        // 7. Aggregation or plain projection.
        let has_agg = !stmt.group_by.is_empty()
            || stmt.projections.iter().any(|p| match p {
                SelectItem::Expr { expr, .. } => expr.has_aggregate(),
                SelectItem::Star => false,
            });
        if has_agg {
            node = self.plan_aggregate(stmt, node)?;
        } else {
            node = self.plan_projection(stmt, node)?;
        }

        // 8. SELECT DISTINCT.
        if stmt.distinct {
            let input_rows = node.cost.rows;
            let est = (input_rows * 0.9).max(1.0);
            let schema = node.schema.clone();
            node = cpu_node(PlanOp::Distinct, vec![node], est, input_rows, schema);
        }
        Ok(node)
    }

    fn collect_rels(
        &mut self,
        tref: &TableRef,
        temp: &TempRels,
        rels: &mut Vec<Rel>,
        join_on: &mut Vec<Expr>,
    ) -> Result<()> {
        match tref {
            TableRef::Named { name, alias } => {
                let refq = alias.clone().unwrap_or_else(|| name.clone());
                let key = name.to_ascii_lowercase();
                if let Some((schema, rows)) = temp.get(&key) {
                    let mut schema = schema.clone();
                    for c in &mut schema.cols {
                        c.refq = refq.clone();
                        c.canonq = key.clone();
                    }
                    rels.push(Rel {
                        node: PlanNode {
                            op: PlanOp::Values {
                                label: key,
                                rows: rows.clone(),
                            },
                            children: vec![],
                            cost: CostEstimate::rows_only(rows.len() as f64),
                            schema,
                        },
                    });
                    return Ok(());
                }
                if let Some(snapshot) = self.sys {
                    if let Some(vschema) = crate::sys::view_schema(&key) {
                        // A system view scans its statement-start snapshot:
                        // est_rows is the frozen count (exact, the snapshot
                        // cannot change mid-statement).
                        let schema = BoundSchema::from_table(&key, &refq, &vschema);
                        let n = snapshot.rows(&key).len() as f64;
                        rels.push(Rel {
                            node: PlanNode {
                                op: PlanOp::SeqScan {
                                    table: key.clone(),
                                    predicate: None,
                                },
                                children: vec![],
                                // Frozen CN-local rows: CPU to walk them, no
                                // storage IO.
                                cost: CostEstimate::default().with(n, n, 0.0, 0.0),
                                schema,
                            },
                        });
                        return Ok(());
                    }
                }
                let table = self.catalog.get(name)?;
                let schema = BoundSchema::from_table(&key, &refq, table.schema());
                let est = table
                    .stats()
                    .map(|s| s.row_count as f64)
                    .unwrap_or(DEFAULT_ROWS);
                rels.push(Rel {
                    node: PlanNode {
                        op: PlanOp::SeqScan {
                            table: key,
                            predicate: None,
                        },
                        children: vec![],
                        // Full scan: every stored tuple is both fetched and
                        // inspected.
                        cost: CostEstimate::default().with(est, est, est, 0.0),
                        schema,
                    },
                });
                Ok(())
            }
            TableRef::Function { name, args, alias } => {
                let f = self
                    .table_funcs
                    .get(name.as_str())
                    .ok_or_else(|| HdmError::Catalog(format!("unknown table function {name}")))?;
                // Arguments must be constants.
                let empty = BoundSchema::default();
                let mut argv = Vec::new();
                for a in args {
                    let bound = bind(a, &empty)?;
                    argv.push(bound.eval(&[])?);
                }
                let (schema, rows) = f.eval(&argv)?;
                let refq = alias.clone().unwrap_or_else(|| name.clone());
                let bschema = BoundSchema::from_table(name, &refq, &schema);
                rels.push(Rel {
                    node: PlanNode {
                        op: PlanOp::Values {
                            label: name.clone(),
                            rows: rows.clone(),
                        },
                        children: vec![],
                        cost: CostEstimate::rows_only(rows.len() as f64),
                        schema: bschema,
                    },
                });
                Ok(())
            }
            TableRef::Subquery { query, alias } => {
                let mut sub = self.plan_select(query, temp)?;
                for c in &mut sub.schema.cols {
                    c.refq = alias.clone();
                    c.canonq = alias.clone();
                }
                rels.push(Rel { node: sub });
                Ok(())
            }
            TableRef::Join { left, right, on } => {
                self.collect_rels(left, temp, rels, join_on)?;
                self.collect_rels(right, temp, rels, join_on)?;
                join_on.extend(on.clone().conjuncts());
                Ok(())
            }
        }
    }

    fn classify(&self, conj: &Expr, rels: &[Rel]) -> Result<Classified> {
        // Which relations does each column belong to?
        let mut touched: Vec<usize> = Vec::new();
        for (q, n) in conj.columns() {
            let mut found = None;
            for (i, rel) in rels.iter().enumerate() {
                if rel.node.schema.resolve(q.as_deref(), n).is_ok() {
                    if found.is_some() && q.is_none() {
                        return Err(HdmError::Plan(format!("ambiguous column {n}")));
                    }
                    found = Some(i);
                    if q.is_some() {
                        break;
                    }
                }
            }
            let Some(i) = found else {
                return Err(HdmError::Plan(format!(
                    "unknown column {}{n}",
                    q.as_deref().map(|s| format!("{s}.")).unwrap_or_default()
                )));
            };
            if !touched.contains(&i) {
                touched.push(i);
            }
        }
        match touched.len() {
            0 | 1 => Ok(Classified::Single(*touched.first().unwrap_or(&0))),
            2 => {
                // Equi-join shape: Col = Col across the two relations.
                if let Expr::Binary {
                    op: BinOp::Eq,
                    left,
                    right,
                } = conj
                {
                    if matches!(**left, Expr::Column(..)) && matches!(**right, Expr::Column(..)) {
                        return Ok(Classified::EquiJoin(touched[0], touched[1]));
                    }
                }
                Ok(Classified::Residual)
            }
            _ => Ok(Classified::Residual),
        }
    }

    /// Attach pushed-down predicates to a scan. For base tables this builds
    /// the full access-path candidate set — sequential scan, equality index
    /// probes, index range walks — costs each one, and keeps the cheapest
    /// weighted total. The sequential candidate comes first, so cost ties
    /// fall back to SeqScan.
    fn finalize_scan(&mut self, node: PlanNode, push: Vec<Expr>) -> Result<PlanNode> {
        if push.is_empty() {
            return Ok(self.hinted(node));
        }
        let schema = node.schema.clone();
        let bound: Vec<SExpr> = push
            .iter()
            .map(|e| bind(e, &schema))
            .collect::<Result<_>>()?;

        let base = node.cost.rows.max(1.0);
        let mut est = base;
        for b in &bound {
            est *= self.selectivity(b, &schema);
        }
        let est = est.max(1.0);

        // Sequential candidate: always available, always first.
        let pred = and_all(bound.clone()).expect("nonempty pushdowns");
        let mut candidates: Vec<PlanNode> = Vec::new();
        let seq_table = match &node.op {
            PlanOp::SeqScan { table, .. } => Some(table.clone()),
            _ => None,
        };
        match &seq_table {
            Some(table) => candidates.push(PlanNode {
                op: PlanOp::SeqScan {
                    table: table.clone(),
                    predicate: Some(pred.clone()),
                },
                children: vec![],
                cost: node.cost.with(est, 0.0, 0.0, 0.0),
                schema: schema.clone(),
            }),
            // Filter over a Values/subplan node: no alternatives to weigh.
            None => {
                let input_rows = node.cost.rows;
                return Ok(self.hinted(cpu_node(
                    PlanOp::Filter { predicate: pred },
                    vec![node],
                    est,
                    input_rows,
                    schema,
                )));
            }
        }

        // Index candidates: base table + single-column index + equality or
        // range conjuncts on the indexed column.
        let table = seq_table.expect("base table checked above");
        if let Ok(t) = self.catalog.get(&table) {
            for (ix_id, ix) in t.indexes().iter().enumerate() {
                if ix.key_columns().len() != 1 {
                    continue;
                }
                let key_col = ix.key_columns()[0];

                // Equality probe on the first matching conjunct. An unbound
                // parameter still qualifies: the placeholder key value is
                // recomputed by `PlanNode::substitute_params` at bind time.
                let eq_hit = bound.iter().enumerate().find_map(|(ci, b)| {
                    let SExpr::Binary(BinOp::Eq, l, r) = b else {
                        return None;
                    };
                    let (col, lit) = match (&**l, &**r) {
                        (SExpr::Col(c), SExpr::Lit(d)) => (*c, d.clone()),
                        (SExpr::Lit(d), SExpr::Col(c)) => (*c, d.clone()),
                        (SExpr::Col(c), SExpr::Param(_)) => (*c, Datum::Null),
                        (SExpr::Param(_), SExpr::Col(c)) => (*c, Datum::Null),
                        _ => return None,
                    };
                    (col == key_col).then(|| (ci, b.clone(), lit))
                });
                if let Some((ci, key_expr, lit)) = eq_hit {
                    let residual_exprs: Vec<SExpr> = bound
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != ci)
                        .map(|(_, e)| e.clone())
                        .collect();
                    // Rows the probe fetches before residual filtering.
                    let fetched = (base / self.ndv(&schema.cols[key_col]).max(1.0)).max(1.0);
                    let mut ix_est = fetched;
                    for e in &residual_exprs {
                        ix_est *= self.selectivity(e, &schema);
                    }
                    candidates.push(PlanNode {
                        op: PlanOp::IndexScan {
                            table: table.clone(),
                            index_id: ix_id,
                            key_exprs: vec![key_expr],
                            key_values: vec![lit],
                            residual: and_all(residual_exprs),
                        },
                        children: vec![],
                        cost: index_cost(ix_est.max(1.0), base, fetched),
                        schema: schema.clone(),
                    });
                }

                // Range walk over every range conjunct on the indexed column.
                let range_idx: Vec<usize> = bound
                    .iter()
                    .enumerate()
                    .filter(
                        |(_, b)| matches!(range_bound_parts(b), Some((c, _, _)) if c == key_col),
                    )
                    .map(|(i, _)| i)
                    .collect();
                if !range_idx.is_empty() {
                    let bound_exprs: Vec<SExpr> =
                        range_idx.iter().map(|&i| bound[i].clone()).collect();
                    let residual_exprs: Vec<SExpr> = bound
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| !range_idx.contains(i))
                        .map(|(_, e)| e.clone())
                        .collect();
                    // Parameter bounds stay Unbounded at plan time; they are
                    // recomputed from the substituted bound expressions.
                    let (lo, hi) = range_bounds_from_exprs(&bound_exprs)
                        .unwrap_or((Bound::Unbounded, Bound::Unbounded));
                    let mut walk_sel = 1.0;
                    for e in &bound_exprs {
                        walk_sel *= self.selectivity(e, &schema);
                    }
                    let fetched = (base * walk_sel).max(1.0);
                    let mut ix_est = fetched;
                    for e in &residual_exprs {
                        ix_est *= self.selectivity(e, &schema);
                    }
                    candidates.push(PlanNode {
                        op: PlanOp::IndexRange {
                            table: table.clone(),
                            index_id: ix_id,
                            bound_exprs,
                            lo,
                            hi,
                            residual: and_all(residual_exprs),
                        },
                        children: vec![],
                        cost: index_cost(ix_est.max(1.0), base, fetched),
                        schema: schema.clone(),
                    });
                }
            }
        }

        Ok(self.hinted(pick_cheapest(candidates)))
    }

    /// Join-order search. Exhaustive bitmask DP over the weighted cost total
    /// up to [`EXHAUSTIVE_JOIN_LIMIT`] relations; greedy smallest-first
    /// beyond that.
    fn order_joins(
        &mut self,
        mut nodes: Vec<PlanNode>,
        edges: Vec<(usize, usize, Expr)>,
    ) -> Result<PlanNode> {
        if nodes.len() == 1 {
            return Ok(nodes.pop().expect("one node"));
        }
        if nodes.len() <= EXHAUSTIVE_JOIN_LIMIT {
            self.order_joins_exhaustive(nodes, edges)
        } else {
            self.order_joins_greedy(nodes, edges)
        }
    }

    /// Selinger-style bottom-up DP: for every subset of relations keep the
    /// cheapest plan (by [`CostEstimate::total`]), built by merging the best
    /// plans of two disjoint covering subsets. Cross products are permitted —
    /// their quadratic NestedLoopJoin CPU term prices them out unless the
    /// join graph is disconnected. Deterministic: subsets are enumerated in
    /// ascending mask order and only a strictly cheaper candidate replaces
    /// the incumbent.
    fn order_joins_exhaustive(
        &mut self,
        nodes: Vec<PlanNode>,
        edges: Vec<(usize, usize, Expr)>,
    ) -> Result<PlanNode> {
        let n = nodes.len();
        let full: usize = (1 << n) - 1;
        let mut best: Vec<Option<PlanNode>> = vec![None; 1 << n];
        for (i, nd) in nodes.into_iter().enumerate() {
            best[1 << i] = Some(nd);
        }
        for mask in 1..=full {
            if mask.count_ones() < 2 {
                continue;
            }
            // Enumerate splits; anchoring the lowest relation on the left
            // side visits each unordered split exactly once.
            let lsb = mask & mask.wrapping_neg();
            let mut s = (mask - 1) & mask;
            while s > 0 {
                if s & lsb != 0 {
                    let t = mask ^ s;
                    if let (Some(l), Some(r)) = (&best[s], &best[t]) {
                        // Every edge crossing the split joins here.
                        let on: Vec<Expr> = edges
                            .iter()
                            .filter(|(a, b, _)| {
                                (s >> a & 1 == 1 && t >> b & 1 == 1)
                                    || (s >> b & 1 == 1 && t >> a & 1 == 1)
                            })
                            .map(|(_, _, e)| e.clone())
                            .collect();
                        let cand = self.build_join(l.clone(), r.clone(), on)?;
                        let better = match &best[mask] {
                            None => true,
                            Some(cur) => cand.cost.total() < cur.cost.total(),
                        };
                        if better {
                            best[mask] = Some(cand);
                        }
                    }
                }
                s = (s - 1) & mask;
            }
        }
        Ok(best[full].take().expect("full join set planned"))
    }

    /// Greedy join ordering: start from the smallest relation, repeatedly
    /// join the connected relation minimizing the estimated output.
    fn order_joins_greedy(
        &mut self,
        mut nodes: Vec<PlanNode>,
        mut edges: Vec<(usize, usize, Expr)>,
    ) -> Result<PlanNode> {
        // Track original indices through the fold.
        let mut remaining: Vec<(usize, PlanNode)> = nodes.drain(..).enumerate().collect();
        // Start with the smallest estimate.
        remaining.sort_by(|a, b| a.1.cost.rows.total_cmp(&b.1.cost.rows));
        let (first_idx, first) = remaining.remove(0);
        let mut joined_ids = vec![first_idx];
        let mut acc = first;

        while !remaining.is_empty() {
            // Prefer a relation connected by an edge.
            let mut best: Option<(usize, f64)> = None; // (remaining position, est)
            for (pos, (rid, rnode)) in remaining.iter().enumerate() {
                let connected = edges.iter().any(|(a, b, _)| {
                    (joined_ids.contains(a) && b == rid) || (joined_ids.contains(b) && a == rid)
                });
                let est = if connected {
                    self.join_estimate(&acc, rnode, true)
                } else {
                    acc.cost.rows * rnode.cost.rows
                };
                // Heavily prefer connected joins.
                let score = if connected { est } else { est * 1e6 };
                if best.map(|(_, s)| score < s).unwrap_or(true) {
                    best = Some((pos, score));
                }
            }
            let (pos, _) = best.expect("nonempty remaining");
            let (rid, rnode) = remaining.remove(pos);

            // Pull out the edges between the joined set and this relation.
            let mut these: Vec<Expr> = Vec::new();
            edges.retain(|(a, b, e)| {
                let hit =
                    (joined_ids.contains(a) && *b == rid) || (joined_ids.contains(b) && *a == rid);
                if hit {
                    these.push(e.clone());
                }
                !hit
            });
            joined_ids.push(rid);
            acc = self.build_join(acc, rnode, these)?;
        }

        // Any leftover edges reference relations now inside the fold; apply
        // them as filters (can happen with cyclic join graphs).
        if !edges.is_empty() {
            let pred = edges
                .into_iter()
                .map(|(_, _, e)| e)
                .reduce(|a, b| Expr::bin(BinOp::And, a, b))
                .expect("nonempty");
            let bound = bind(&pred, &acc.schema)?;
            let input_rows = acc.cost.rows;
            let est = (input_rows * DEFAULT_SEL).max(1.0);
            let schema = acc.schema.clone();
            acc = cpu_node(
                PlanOp::Filter { predicate: bound },
                vec![acc],
                est,
                input_rows,
                schema,
            );
        }
        Ok(acc)
    }

    fn join_estimate(&self, l: &PlanNode, r: &PlanNode, connected: bool) -> f64 {
        if !connected {
            return l.cost.rows * r.cost.rows;
        }
        // Classic equi-join estimate with a generic key NDV.
        (l.cost.rows * r.cost.rows / DEFAULT_NDV).max(1.0)
    }

    fn build_join(&mut self, left: PlanNode, right: PlanNode, on: Vec<Expr>) -> Result<PlanNode> {
        // Canonical operand order: the larger input probes (left), the
        // smaller builds (right). All joins here are inner, so the swap is
        // always legal; it collapses equal-cost mirror plans to one shape,
        // making the chosen join tree a function of the query rather than
        // of how the FROM list was written. Exact-tie inputs fall back to
        // the canonical text so the order is still deterministic.
        let swap = right.cost.rows > left.cost.rows
            || (right.cost.rows == left.cost.rows && right.canonical() < left.canonical());
        let (left, right) = if swap { (right, left) } else { (left, right) };
        let schema = left.schema.join(&right.schema);
        if on.is_empty() {
            let est = (left.cost.rows * right.cost.rows).max(1.0);
            // Cross product: the inner side is rescanned for every outer row.
            let cpu = left.cost.rows * right.cost.rows;
            let node = cpu_node(
                PlanOp::NestedLoopJoin { on: None },
                vec![left, right],
                est,
                cpu,
                schema,
            );
            return Ok(self.hinted(node));
        }

        // Split equi keys from residual conditions.
        let nl = left.schema.len();
        let mut left_keys = Vec::new();
        let mut right_keys = Vec::new();
        let mut residual = Vec::new();
        let mut ndv_div: f64 = 1.0;
        for e in &on {
            let bound = bind(e, &schema)?;
            if let SExpr::Binary(BinOp::Eq, a, b) = &bound {
                if let (SExpr::Col(x), SExpr::Col(y)) = (&**a, &**b) {
                    let (lk, rk) = if *x < nl && *y >= nl {
                        (*x, *y - nl)
                    } else if *y < nl && *x >= nl {
                        (*y, *x - nl)
                    } else {
                        residual.push(bound);
                        continue;
                    };
                    let ndv_l = self.ndv(&left.schema.cols[lk]);
                    let ndv_r = self.ndv(&right.schema.cols[rk]);
                    ndv_div = ndv_div.max(ndv_l.max(ndv_r));
                    left_keys.push(lk);
                    right_keys.push(rk);
                    continue;
                }
            }
            residual.push(bound);
        }

        let (lrows, rrows) = (left.cost.rows, right.cost.rows);
        let mut est = lrows * rrows;
        if !left_keys.is_empty() {
            est /= ndv_div.max(1.0);
        }
        for _ in &residual {
            est *= DEFAULT_SEL;
        }
        let est = est.max(1.0);

        let node = if left_keys.is_empty() {
            // Non-equi join: nested loop compares every pair.
            cpu_node(
                PlanOp::NestedLoopJoin {
                    on: and_all(residual),
                },
                vec![left, right],
                est,
                lrows * rrows,
                schema,
            )
        } else {
            // Hash join: build + probe each input once, emit the output.
            cpu_node(
                PlanOp::HashJoin {
                    left_keys,
                    right_keys,
                    residual: and_all(residual),
                },
                vec![left, right],
                est,
                lrows + rrows + est,
                schema,
            )
        };
        Ok(self.hinted(node))
    }

    fn plan_aggregate(&mut self, stmt: &SelectStmt, input: PlanNode) -> Result<PlanNode> {
        let ischema = input.schema.clone();
        // Bind group expressions.
        let mut group_bound = Vec::new();
        for g in &stmt.group_by {
            group_bound.push(bind(g, &ischema)?);
        }

        // Walk projections: rewrite over the agg output schema.
        let mut aggs: Vec<AggCall> = Vec::new();
        let mut out_exprs: Vec<SExpr> = Vec::new();
        let mut out_cols: Vec<BoundColumn> = Vec::new();
        for item in &stmt.projections {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(HdmError::Plan(
                    "SELECT * is not valid with GROUP BY/aggregates".into(),
                ));
            };
            let rewritten =
                rewrite_agg_expr(expr, &stmt.group_by, &group_bound, &ischema, &mut aggs)?;
            let name = alias.clone().unwrap_or_else(|| default_name(expr));
            let ngroups = group_bound.len();
            // Agg output row layout: [groups..., agg results...].
            let agg_out_schema = agg_output_schema(&group_bound, &aggs, &ischema);
            let ty = crate::expr::infer_type(&rewritten, &agg_out_schema);
            let _ = ngroups;
            out_exprs.push(rewritten);
            out_cols.push(BoundColumn {
                refq: String::new(),
                canonq: String::new(),
                name,
                ty,
            });
        }

        let group_ndv: f64 = group_bound
            .iter()
            .map(|g| match g {
                SExpr::Col(i) => self.ndv(&ischema.cols[*i]),
                _ => DEFAULT_NDV,
            })
            .product();
        let est = if group_bound.is_empty() {
            1.0
        } else {
            group_ndv.min(input.cost.rows).max(1.0)
        };
        // HAVING binds over the aggregate output row, and may introduce
        // additional aggregate calls of its own (HAVING count(*) > 3).
        let having_bound = match &stmt.having {
            None => None,
            Some(h) => Some(rewrite_agg_expr(
                h,
                &stmt.group_by,
                &group_bound,
                &ischema,
                &mut aggs,
            )?),
        };
        let agg_schema = agg_output_schema(&group_bound, &aggs, &ischema);

        let input_rows = input.cost.rows;
        let mut node = self.hinted(cpu_node(
            PlanOp::HashAgg {
                group: group_bound,
                aggs,
            },
            vec![input],
            est,
            input_rows,
            agg_schema,
        ));

        if let Some(pred) = having_bound {
            let input_rows = node.cost.rows;
            let est = (input_rows * DEFAULT_SEL).max(1.0);
            let schema = node.schema.clone();
            node = cpu_node(
                PlanOp::Filter { predicate: pred },
                vec![node],
                est,
                input_rows,
                schema,
            );
        }

        let est = node.cost.rows;
        Ok(cpu_node(
            PlanOp::Project { exprs: out_exprs },
            vec![node],
            est,
            0.0,
            BoundSchema { cols: out_cols },
        ))
    }

    fn plan_projection(&mut self, stmt: &SelectStmt, input: PlanNode) -> Result<PlanNode> {
        // Pure star: no projection node needed.
        if stmt.projections.len() == 1 && matches!(stmt.projections[0], SelectItem::Star) {
            return Ok(input);
        }
        let mut exprs = Vec::new();
        let mut cols = Vec::new();
        for item in &stmt.projections {
            match item {
                SelectItem::Star => {
                    for (i, c) in input.schema.cols.iter().enumerate() {
                        exprs.push(SExpr::Col(i));
                        cols.push(c.clone());
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let bound = bind(expr, &input.schema)?;
                    let ty = crate::expr::infer_type(&bound, &input.schema);
                    let name = alias.clone().unwrap_or_else(|| default_name(expr));
                    // Preserve provenance for bare columns so canonical text
                    // and later resolution still work.
                    let col = match &bound {
                        SExpr::Col(i) => {
                            let mut c = input.schema.cols[*i].clone();
                            if alias.is_some() {
                                c.name = name.clone();
                            }
                            c
                        }
                        _ => BoundColumn {
                            refq: String::new(),
                            canonq: String::new(),
                            name,
                            ty,
                        },
                    };
                    exprs.push(bound);
                    cols.push(col);
                }
            }
        }
        let est = input.cost.rows;
        Ok(cpu_node(
            PlanOp::Project { exprs },
            vec![input],
            est,
            0.0,
            BoundSchema { cols },
        ))
    }

    /// Consult the plan store for this node's canonical step; use the actual
    /// cardinality when present. Only the cardinality is corrected — the
    /// work terms keep their planning-time values, so the drift check can
    /// compare a cached plan's estimates against fresh actuals.
    fn hinted(&mut self, mut node: PlanNode) -> PlanNode {
        let Some(hints) = self.hints else {
            return node;
        };
        let Some(text) = node.canonical() else {
            return node;
        };
        match hints.lookup(&text) {
            Some(actual) => {
                self.info.hint_hits += 1;
                node.cost.rows = actual as f64;
            }
            None => self.info.hint_misses += 1,
        }
        node
    }

    fn ndv(&self, col: &BoundColumn) -> f64 {
        if let Ok(t) = self.catalog.get(&col.canonq) {
            if let (Some(stats), Some(idx)) = (t.stats(), t.schema().index_of(&col.name)) {
                let d = stats.columns[idx].distinct;
                if d > 0 {
                    return d as f64;
                }
            }
        }
        DEFAULT_NDV
    }

    fn selectivity(&self, pred: &SExpr, schema: &BoundSchema) -> f64 {
        match pred {
            SExpr::Binary(op, l, r) => {
                let (col, lit) = match (&**l, &**r) {
                    (SExpr::Col(c), SExpr::Lit(d)) => (Some(*c), Some(d.clone())),
                    (SExpr::Lit(d), SExpr::Col(c)) => (Some(*c), Some(d.clone())),
                    // Unbound parameter: the column is known but the value is
                    // not, so equality still uses 1/NDV while ranges fall
                    // back to the default selectivity (lit stays None).
                    (SExpr::Col(c), SExpr::Param(_)) => (Some(*c), None),
                    (SExpr::Param(_), SExpr::Col(c)) => (Some(*c), None),
                    _ => (None, None),
                };
                match op {
                    BinOp::Eq => col
                        .map(|c| 1.0 / self.ndv(&schema.cols[c]).max(1.0))
                        .unwrap_or(DEFAULT_SEL),
                    BinOp::Ne => col
                        .map(|c| 1.0 - 1.0 / self.ndv(&schema.cols[c]).max(1.0))
                        .unwrap_or(DEFAULT_SEL),
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if let (Some(c), Some(d)) = (col, lit) {
                            self.range_selectivity(&schema.cols[c], op, &d)
                        } else {
                            DEFAULT_SEL
                        }
                    }
                    BinOp::And => self.selectivity(l, schema) * self.selectivity(r, schema),
                    BinOp::Or => {
                        (self.selectivity(l, schema) + self.selectivity(r, schema)).min(1.0)
                    }
                    _ => DEFAULT_SEL,
                }
            }
            _ => DEFAULT_SEL,
        }
    }

    /// Uniform-distribution range selectivity from column min/max.
    fn range_selectivity(&self, col: &BoundColumn, op: &BinOp, lit: &Datum) -> f64 {
        let Some(stats) = self.catalog.get(&col.canonq).ok().and_then(|t| {
            t.schema()
                .index_of(&col.name)
                .and_then(|i| t.stats().map(|s| s.columns[i].clone()))
        }) else {
            return DEFAULT_SEL;
        };
        let (Some(min), Some(max), Some(v)) = (
            stats.min.as_ref().and_then(Datum::as_float),
            stats.max.as_ref().and_then(Datum::as_float),
            lit.as_float(),
        ) else {
            return DEFAULT_SEL;
        };
        if max <= min {
            return DEFAULT_SEL;
        }
        let frac = ((v - min) / (max - min)).clamp(0.0, 1.0);
        match op {
            BinOp::Lt | BinOp::Le => frac.max(0.001),
            BinOp::Gt | BinOp::Ge => (1.0 - frac).max(0.001),
            _ => DEFAULT_SEL,
        }
    }
}

enum Classified {
    Single(usize),
    EquiJoin(usize, usize),
    Residual,
}

/// Conjoin `exprs` with AND, `None` when empty. Public so the distributed
/// annotator can rebuild a scan predicate from an index path's consumed
/// conjuncts.
pub fn and_all(exprs: Vec<SExpr>) -> Option<SExpr> {
    exprs
        .into_iter()
        .reduce(|a, b| SExpr::Binary(BinOp::And, Box::new(a), Box::new(b)))
}

/// Build a node whose operator adds `cpu` work on top of its children's
/// accumulated cost (the common case for CN-side operators, which touch no
/// storage or network).
fn cpu_node(
    op: PlanOp,
    children: Vec<PlanNode>,
    rows: f64,
    cpu: f64,
    schema: BoundSchema,
) -> PlanNode {
    let cost = CostEstimate::of_children(&children).with(rows, cpu, 0.0, 0.0);
    PlanNode {
        op,
        children,
        cost,
        schema,
    }
}

/// Comparison work for sorting `n` rows.
fn sort_cpu(n: f64) -> f64 {
    let n = n.max(1.0);
    n * n.max(2.0).log2()
}

/// Cost of an index access path that descends a B-tree over a table of
/// `base` rows and then randomly fetches `fetched` matching tuples (`rows`
/// survive the residual filter). The [`CostEstimate::RANDOM_IO`] multiplier
/// is what lets a full scan win once the probe stops being selective.
fn index_cost(rows: f64, base: f64, fetched: f64) -> CostEstimate {
    CostEstimate::default().with(
        rows,
        fetched,
        base.max(2.0).log2() + fetched * CostEstimate::RANDOM_IO,
        0.0,
    )
}

/// Output schema of a HashAgg: group columns then aggregate results.
fn agg_output_schema(group: &[SExpr], aggs: &[AggCall], ischema: &BoundSchema) -> BoundSchema {
    let mut cols = Vec::new();
    for (i, g) in group.iter().enumerate() {
        let col = match g {
            SExpr::Col(c) => ischema.cols[*c].clone(),
            _ => BoundColumn {
                refq: String::new(),
                canonq: String::new(),
                name: format!("group{i}"),
                ty: crate::expr::infer_type(g, ischema),
            },
        };
        cols.push(col);
    }
    for (i, a) in aggs.iter().enumerate() {
        let ty = match a.func {
            AggFunc::Count | AggFunc::CountStar => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => a
                .arg
                .as_ref()
                .map(|e| crate::expr::infer_type(e, ischema))
                .unwrap_or(DataType::Int),
        };
        cols.push(BoundColumn {
            refq: String::new(),
            canonq: String::new(),
            name: format!("agg{i}"),
            ty,
        });
    }
    BoundSchema { cols }
}

/// Rewrite a projection expression over the aggregate output row
/// `[groups..., agg results...]`, registering aggregate calls as needed.
fn rewrite_agg_expr(
    e: &Expr,
    group_ast: &[Expr],
    group_bound: &[SExpr],
    ischema: &BoundSchema,
    aggs: &mut Vec<AggCall>,
) -> Result<SExpr> {
    // Exact group-by expression match → group column reference.
    if let Some(i) = group_ast.iter().position(|g| g == e) {
        return Ok(SExpr::Col(i));
    }
    match e {
        Expr::Func { name, args, star } => {
            let func = match name.as_str() {
                "count" if *star => AggFunc::CountStar,
                "count" => AggFunc::Count,
                "sum" => AggFunc::Sum,
                "avg" => AggFunc::Avg,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                _ => {
                    return Err(HdmError::Plan(format!(
                        "non-aggregate function {name} over aggregated input"
                    )))
                }
            };
            let arg = if *star {
                None
            } else {
                let a = args
                    .first()
                    .ok_or_else(|| HdmError::Plan(format!("{name} needs an argument")))?;
                Some(bind(a, ischema)?)
            };
            let slot = group_bound.len() + aggs.len();
            aggs.push(AggCall { func, arg });
            Ok(SExpr::Col(slot))
        }
        Expr::Binary { op, left, right } => Ok(SExpr::Binary(
            *op,
            Box::new(rewrite_agg_expr(
                left,
                group_ast,
                group_bound,
                ischema,
                aggs,
            )?),
            Box::new(rewrite_agg_expr(
                right,
                group_ast,
                group_bound,
                ischema,
                aggs,
            )?),
        )),
        Expr::Unary { op, expr } => Ok(SExpr::Unary(
            *op,
            Box::new(rewrite_agg_expr(
                expr,
                group_ast,
                group_bound,
                ischema,
                aggs,
            )?),
        )),
        Expr::Literal(l) => Ok(SExpr::Lit(crate::expr::lit_to_datum(l))),
        Expr::Param(i) => Ok(SExpr::Param(*i)),
        Expr::Column(q, n) => Err(HdmError::Plan(format!(
            "column {}{n} must appear in GROUP BY or an aggregate",
            q.as_deref().map(|s| format!("{s}.")).unwrap_or_default()
        ))),
    }
}

fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column(_, n) => n.clone(),
        Expr::Func { name, .. } => name.clone(),
        _ => "?column?".to_string(),
    }
}

/// Plan a full statement that is a SELECT (helper used by `Database`).
pub fn plan_statement(
    stmt: &Statement,
    catalog: &Catalog,
    hints: Option<&dyn CardinalityHints>,
    table_funcs: &HashMap<String, Box<dyn TableFunction>>,
    temp: &TempRels,
) -> Result<(PlanNode, PlanningInfo)> {
    let Statement::Select(s) = stmt else {
        return Err(HdmError::Plan("plan_statement expects SELECT".into()));
    };
    let mut p = Planner::new(catalog, hints, table_funcs);
    let node = p.plan_select(s, temp)?;
    Ok((node, p.info))
}
