//! Physical plans with canonical logical step text.
//!
//! Each cardinality-bearing node renders a **canonical step definition**:
//! "a prefix expression representing the logical operator and its
//! operand(s). Only the logical operator (join instead of hash join or scan
//! instead of index scan) is needed … The step definition for an execution
//! operator captures the whole query tree underneath the operator"
//! (paper §II-C, Table I). Operand and predicate ordering is normalized so
//! equivalent queries produce byte-identical step text.

use crate::ast::SetOpKind;
use crate::expr::{BoundSchema, SExpr};
use hdm_common::{Datum, Row};
use std::ops::Bound;
use std::sync::Arc;

/// Which logical operator class a step belongs to. The paper captures
/// exactly the cardinality-affecting classes: "scans, joins, aggregation
/// steps, set operations and limit operator steps".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    Scan,
    Join,
    Agg,
    SetOp,
    Limit,
    /// Non-cardinality-bearing plumbing (project, sort, filter-on-top).
    Other,
}

/// One `(step, estimated, actual)` record produced by executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct StepObservation {
    pub kind: StepKind,
    /// Canonical step text (the plan-store key material), shared with the
    /// cached program that pre-rendered it.
    pub text: Arc<str>,
    pub estimated: f64,
    pub actual: u64,
}

/// Multi-objective plan cost. Every [`PlanNode`] carries one; the planner
/// builds it bottom-up (each operator adds its own increment to the summed
/// work of its children) and alternatives are compared on the weighted
/// [`CostEstimate::total`]. `rows` is the node's estimated output
/// cardinality — the quantity the learned plan store corrects with captured
/// actuals; the work terms are what access-path and join-order choices are
/// gated on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostEstimate {
    /// Estimated output cardinality of this subtree.
    pub rows: f64,
    /// Tuples touched / hashed / compared (CN- or DN-local compute).
    pub cpu: f64,
    /// Tuples fetched from storage; random fetches are pre-multiplied by
    /// [`CostEstimate::RANDOM_IO`] at the access path that incurs them.
    pub io: f64,
    /// Tuples shipped between CN and DN legs, plus per-leg fan-out setup.
    pub net: f64,
}

impl CostEstimate {
    /// Weight vector collapsing the objective terms into one comparable
    /// scalar. IO is pricier than CPU, network pricier than IO — the same
    /// ordering Greenplum's motion-aware cost model uses.
    pub const W_CPU: f64 = 1.0;
    pub const W_IO: f64 = 2.0;
    pub const W_NET: f64 = 4.0;
    /// Penalty multiplier for a random (index-probe) fetch vs one sequential
    /// scan step. Makes a non-selective index lose to a full scan: the
    /// break-even is roughly one third of the table.
    pub const RANDOM_IO: f64 = 4.0;
    /// Per-shard fan-out setup charge for an Exchange leg.
    pub const NET_FANOUT: f64 = 8.0;

    /// A cost that only carries a cardinality (no work terms). Used for
    /// synthetic nodes (Values, test literals) where work is negligible.
    pub fn rows_only(rows: f64) -> CostEstimate {
        CostEstimate {
            rows,
            ..CostEstimate::default()
        }
    }

    /// Sum of the work terms accumulated in `children` (rows = 0): the
    /// starting point for a parent operator's own cost.
    pub fn of_children(children: &[PlanNode]) -> CostEstimate {
        let mut c = CostEstimate::default();
        for ch in children {
            c.cpu += ch.cost.cpu;
            c.io += ch.cost.io;
            c.net += ch.cost.net;
        }
        c
    }

    /// This operator's increment on top of the already-summed child work:
    /// sets the output cardinality and adds the work deltas.
    pub fn with(mut self, rows: f64, cpu: f64, io: f64, net: f64) -> CostEstimate {
        self.rows = rows;
        self.cpu += cpu;
        self.io += io;
        self.net += net;
        self
    }

    /// Weighted scalar total used to compare alternative plans. Output
    /// cardinality is deliberately excluded: rows are what downstream
    /// operators pay for, not work this subtree performs.
    pub fn total(&self) -> f64 {
        self.cpu * Self::W_CPU + self.io * Self::W_IO + self.net * Self::W_NET
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "COUNT(*)",
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// One aggregate call in a HashAgg node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    pub func: AggFunc,
    /// Argument expression over the input schema (None for COUNT(*)).
    pub arg: Option<SExpr>,
}

/// Physical operators.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Full scan with an optional pushed-down predicate.
    SeqScan {
        table: String,
        predicate: Option<SExpr>,
    },
    /// Equality index probe plus residual predicate. Logically still a SCAN.
    IndexScan {
        table: String,
        index_id: usize,
        /// The full equality conjuncts consumed by the probe (for canonical
        /// text, so index and sequential plans render identically).
        key_exprs: Vec<SExpr>,
        /// The literal probe values, in index column order.
        key_values: Vec<hdm_common::Datum>,
        residual: Option<SExpr>,
    },
    /// Ordered range walk over a single-column index plus residual
    /// predicate. Logically still a SCAN (same canonical text as the
    /// equivalent SeqScan), chosen over it only when the weighted cost says
    /// the bounded walk is cheaper.
    IndexRange {
        table: String,
        index_id: usize,
        /// The range conjuncts consumed by the walk (for canonical text).
        bound_exprs: Vec<SExpr>,
        /// Concrete lower/upper bounds on the indexed column, recomputed
        /// from `bound_exprs` after parameter substitution.
        lo: Bound<Datum>,
        hi: Bound<Datum>,
        residual: Option<SExpr>,
    },
    /// Materialized rows (CTE results, table functions, VALUES).
    Values {
        label: String,
        rows: Vec<Row>,
    },
    /// A scatter-gather scan fragment: the CN ships `SCAN(table, predicate)`
    /// to every shard in `shards` and gathers the union of their results.
    /// Produced only by distributed planners (the shard list comes from
    /// pruning the predicate against the cluster's shard map); logically
    /// still a SCAN, but its canonical text names the shard set so the plan
    /// store keys distributed cardinalities separately from local ones.
    Exchange {
        table: String,
        predicate: Option<SExpr>,
        shards: Vec<u64>,
        /// When the CN-side plan chose an index access path, the DN legs
        /// probe their local index instead of scanning the shard slice. The
        /// probe never appears in canonical text (access paths must not
        /// leak into step definitions) and is always concrete: Exchange
        /// nodes are produced per-execution after parameter substitution.
        probe: Option<ExchangeProbe>,
    },
    Filter {
        predicate: SExpr,
    },
    NestedLoopJoin {
        on: Option<SExpr>,
    },
    HashJoin {
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Option<SExpr>,
    },
    Project {
        exprs: Vec<SExpr>,
    },
    HashAgg {
        group: Vec<SExpr>,
        aggs: Vec<AggCall>,
    },
    Sort {
        keys: Vec<(SExpr, bool)>,
    },
    Limit {
        n: u64,
    },
    SetOp {
        kind: SetOpKind,
        all: bool,
    },
    /// SELECT DISTINCT deduplication.
    Distinct,
}

/// How an Exchange leg reads its shard slice when an index access path was
/// chosen: an equality probe or a bounded range walk over a DN-local index.
#[derive(Debug, Clone, PartialEq)]
pub enum ExchangeProbe {
    /// Probe the DN-local index whose key columns match `columns` with the
    /// concrete `key`.
    Eq {
        columns: Vec<usize>,
        key: Vec<Datum>,
    },
    /// Walk the DN-local single-column index on `column` between the
    /// concrete bounds.
    Range {
        column: usize,
        lo: Bound<Datum>,
        hi: Bound<Datum>,
    },
}

/// A plan tree node annotated with its multi-objective cost (including the
/// estimated output cardinality) and bound output schema.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    pub op: PlanOp,
    pub children: Vec<PlanNode>,
    pub cost: CostEstimate,
    pub schema: BoundSchema,
}

impl PlanNode {
    /// Estimated output cardinality of this subtree — the scalar the plan
    /// store corrects with captured actuals.
    pub fn est_rows(&self) -> f64 {
        self.cost.rows
    }

    /// Overwrite the cardinality estimate (hint substitution / rehinting);
    /// the work terms keep their planning-time values.
    pub fn set_est_rows(&mut self, rows: f64) {
        self.cost.rows = rows;
    }

    /// The logical step class of this operator.
    pub fn step_kind(&self) -> StepKind {
        match &self.op {
            PlanOp::SeqScan { .. }
            | PlanOp::IndexScan { .. }
            | PlanOp::IndexRange { .. }
            | PlanOp::Exchange { .. } => StepKind::Scan,
            PlanOp::NestedLoopJoin { .. } | PlanOp::HashJoin { .. } => StepKind::Join,
            PlanOp::HashAgg { .. } => StepKind::Agg,
            PlanOp::SetOp { .. } => StepKind::SetOp,
            PlanOp::Limit { .. } => StepKind::Limit,
            _ => StepKind::Other,
        }
    }

    /// Canonical logical step text for this subtree (Table I's notation), or
    /// `None` for operators the plan store does not capture.
    pub fn canonical(&self) -> Option<String> {
        match self.step_kind() {
            StepKind::Other => None,
            _ => Some(self.canonical_inner()),
        }
    }

    fn canonical_inner(&self) -> String {
        match &self.op {
            PlanOp::SeqScan { table, predicate } => {
                canon_scan(table, predicate.as_ref(), &self.schema)
            }
            PlanOp::IndexScan {
                table,
                key_exprs,
                residual,
                ..
            } => {
                // Logically a SCAN: merge the probe's equality conjuncts and
                // the residual into one ordered predicate list so index and
                // sequential plans for the same query render identically.
                let mut preds: Vec<String> = key_exprs
                    .iter()
                    .map(|k| k.canonical(&self.schema))
                    .collect();
                if let Some(r) = residual {
                    preds.extend(conjunct_texts(r, &self.schema));
                }
                preds.sort();
                render_scan(table, &preds)
            }
            PlanOp::IndexRange {
                table,
                bound_exprs,
                residual,
                ..
            } => {
                // Same treatment as IndexScan: the range conjuncts and the
                // residual merge into one ordered predicate list, so the
                // range walk renders identically to the sequential plan.
                let mut preds: Vec<String> = bound_exprs
                    .iter()
                    .map(|k| k.canonical(&self.schema))
                    .collect();
                if let Some(r) = residual {
                    preds.extend(conjunct_texts(r, &self.schema));
                }
                preds.sort();
                render_scan(table, &preds)
            }
            PlanOp::Values { label, rows } => {
                format!("VALUES({},{})", label.to_ascii_uppercase(), rows.len())
            }
            PlanOp::Exchange {
                table,
                predicate,
                shards,
                ..
            } => {
                let shard_list: Vec<String> = shards.iter().map(u64::to_string).collect();
                format!(
                    "EXCHANGE({}, SHARDS({}))",
                    canon_scan(table, predicate.as_ref(), &self.schema),
                    shard_list.join(",")
                )
            }
            PlanOp::Filter { predicate } => {
                // A filter directly above X is canonicalized as part of X's
                // enclosing step only when X is a scan; standalone it wraps.
                format!(
                    "FILTER({}, PREDICATE({}))",
                    self.children[0].canonical_inner(),
                    ordered_predicate(predicate, &self.children[0].schema)
                )
            }
            PlanOp::NestedLoopJoin { on } => canon_join(&self.children, on.as_ref(), &self.schema),
            PlanOp::HashJoin {
                left_keys,
                right_keys,
                residual,
            } => {
                // Reconstruct the equi-join predicate text from key columns.
                let l = &self.children[0].schema;
                let r = &self.children[1].schema;
                let mut preds: Vec<String> = left_keys
                    .iter()
                    .zip(right_keys)
                    .map(|(&lk, &rk)| {
                        let mut a = l.cols[lk].canonical();
                        let mut b = r.cols[rk].canonical();
                        if a > b {
                            std::mem::swap(&mut a, &mut b);
                        }
                        format!("{a}={b}")
                    })
                    .collect();
                if let Some(res) = residual {
                    preds.extend(conjunct_texts(res, &self.schema));
                }
                preds.sort();
                let mut kids: Vec<String> =
                    self.children.iter().map(|c| c.canonical_inner()).collect();
                kids.sort();
                format!(
                    "JOIN({}, PREDICATE({}))",
                    kids.join(", "),
                    preds.join(" AND ")
                )
            }
            PlanOp::Project { .. } | PlanOp::Sort { .. } => self.children[0].canonical_inner(),
            PlanOp::Distinct => format!("DISTINCT({})", self.children[0].canonical_inner()),
            PlanOp::HashAgg { group, aggs } => {
                let input = self.children[0].canonical_inner();
                let ischema = &self.children[0].schema;
                let mut groups: Vec<String> = group.iter().map(|g| g.canonical(ischema)).collect();
                groups.sort();
                let mut fns: Vec<String> = aggs
                    .iter()
                    .map(|a| match (&a.func, &a.arg) {
                        (AggFunc::CountStar, _) => "COUNT(*)".to_string(),
                        (f, Some(e)) => format!("{}({})", f.name(), e.canonical(ischema)),
                        (f, None) => format!("{}()", f.name()),
                    })
                    .collect();
                fns.sort();
                format!(
                    "AGG({input}, GROUP({}), FUNCS({}))",
                    groups.join(","),
                    fns.join(",")
                )
            }
            PlanOp::Limit { n } => {
                format!("LIMIT({}, {n})", self.children[0].canonical_inner())
            }
            PlanOp::SetOp { kind, all } => {
                let mut kids: Vec<String> =
                    self.children.iter().map(|c| c.canonical_inner()).collect();
                // UNION and INTERSECT are commutative; EXCEPT is not.
                if !matches!(kind, SetOpKind::Except) {
                    kids.sort();
                }
                let tag = if *all {
                    format!("{} ALL", kind.name())
                } else {
                    kind.name().to_string()
                };
                format!("{}({})", tag, kids.join(", "))
            }
        }
    }

    /// Pretty tree rendering (EXPLAIN output, paper Fig 6).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    /// One-line human label for this operator (the EXPLAIN line without
    /// indentation or cardinality annotations). Shared by [`Self::explain`]
    /// and the runtime profiler, so EXPLAIN and EXPLAIN ANALYZE name
    /// operators identically.
    pub fn describe(&self) -> String {
        match &self.op {
            PlanOp::SeqScan { table, predicate } => match predicate {
                Some(p) => format!("Seq Scan on {table} (filter: {})", p.display(&self.schema)),
                None => format!("Seq Scan on {table}"),
            },
            PlanOp::IndexScan { table, .. } => format!("Index Scan on {table}"),
            PlanOp::IndexRange { table, .. } => format!("Index Range Scan on {table}"),
            PlanOp::Values { label, rows } => format!("Values {label} ({} rows)", rows.len()),
            PlanOp::Exchange {
                table,
                predicate,
                shards,
                probe,
            } => {
                let pred = match predicate {
                    Some(p) => format!(" (filter: {})", p.display(&self.schema)),
                    None => String::new(),
                };
                let access = match probe {
                    Some(ExchangeProbe::Eq { .. }) => "Exchange Index Scan",
                    Some(ExchangeProbe::Range { .. }) => "Exchange Index Range Scan",
                    None => "Exchange Scan",
                };
                format!("{access} on {table}{pred} (shards: {shards:?})")
            }
            PlanOp::Filter { predicate } => {
                format!("Filter ({})", predicate.display(&self.children[0].schema))
            }
            PlanOp::NestedLoopJoin { .. } => "Nested Loop Join".to_string(),
            PlanOp::HashJoin { .. } => "Hash Join".to_string(),
            PlanOp::Project { .. } => "Project".to_string(),
            PlanOp::HashAgg { group, .. } => format!("HashAggregate (groups: {})", group.len()),
            PlanOp::Sort { .. } => "Sort".to_string(),
            PlanOp::Limit { n } => format!("Limit {n}"),
            PlanOp::SetOp { kind, all } => {
                format!("{}{}", kind.name(), if *all { " ALL" } else { "" })
            }
            PlanOp::Distinct => "Distinct".to_string(),
        }
    }

    /// Does any expression in this subtree reference an unbound parameter?
    pub fn has_params(&self) -> bool {
        let op_has = match &self.op {
            PlanOp::SeqScan { predicate, .. } | PlanOp::Exchange { predicate, .. } => {
                predicate.as_ref().is_some_and(SExpr::has_params)
            }
            PlanOp::IndexScan {
                key_exprs,
                residual,
                ..
            } => {
                key_exprs.iter().any(SExpr::has_params)
                    || residual.as_ref().is_some_and(SExpr::has_params)
            }
            PlanOp::IndexRange {
                bound_exprs,
                residual,
                ..
            } => {
                bound_exprs.iter().any(SExpr::has_params)
                    || residual.as_ref().is_some_and(SExpr::has_params)
            }
            PlanOp::Filter { predicate } => predicate.has_params(),
            PlanOp::NestedLoopJoin { on } => on.as_ref().is_some_and(SExpr::has_params),
            PlanOp::HashJoin { residual, .. } => residual.as_ref().is_some_and(SExpr::has_params),
            PlanOp::Project { exprs } => exprs.iter().any(SExpr::has_params),
            PlanOp::HashAgg { group, aggs } => {
                group.iter().any(SExpr::has_params)
                    || aggs
                        .iter()
                        .any(|a| a.arg.as_ref().is_some_and(SExpr::has_params))
            }
            PlanOp::Sort { keys } => keys.iter().any(|(k, _)| k.has_params()),
            PlanOp::Values { .. }
            | PlanOp::Limit { .. }
            | PlanOp::SetOp { .. }
            | PlanOp::Distinct => false,
        };
        op_has || self.children.iter().any(PlanNode::has_params)
    }

    /// Rebuild this plan with every `Param(i)` replaced by `Lit(params[i])`.
    /// Index-probe key values deferred at plan time are recomputed from the
    /// now-concrete key expressions.
    pub fn substitute_params(&self, params: &[hdm_common::Datum]) -> hdm_common::Result<PlanNode> {
        let sub_opt = |e: &Option<SExpr>| -> hdm_common::Result<Option<SExpr>> {
            e.as_ref().map(|p| p.substitute_params(params)).transpose()
        };
        let op = match &self.op {
            PlanOp::SeqScan { table, predicate } => PlanOp::SeqScan {
                table: table.clone(),
                predicate: sub_opt(predicate)?,
            },
            PlanOp::IndexScan {
                table,
                index_id,
                key_exprs,
                residual,
                ..
            } => {
                let key_exprs: Vec<SExpr> = key_exprs
                    .iter()
                    .map(|k| k.substitute_params(params))
                    .collect::<hdm_common::Result<_>>()?;
                let key_values = key_exprs
                    .iter()
                    .map(|k| {
                        eq_key_value(k).ok_or_else(|| {
                            hdm_common::HdmError::Execution(
                                "index probe key is not a column = value equality".into(),
                            )
                        })
                    })
                    .collect::<hdm_common::Result<_>>()?;
                PlanOp::IndexScan {
                    table: table.clone(),
                    index_id: *index_id,
                    key_exprs,
                    key_values,
                    residual: sub_opt(residual)?,
                }
            }
            PlanOp::IndexRange {
                table,
                index_id,
                bound_exprs,
                residual,
                ..
            } => {
                let bound_exprs: Vec<SExpr> = bound_exprs
                    .iter()
                    .map(|k| k.substitute_params(params))
                    .collect::<hdm_common::Result<_>>()?;
                let (lo, hi) = range_bounds_from_exprs(&bound_exprs)?;
                PlanOp::IndexRange {
                    table: table.clone(),
                    index_id: *index_id,
                    bound_exprs,
                    lo,
                    hi,
                    residual: sub_opt(residual)?,
                }
            }
            PlanOp::Exchange {
                table,
                predicate,
                shards,
                probe,
            } => PlanOp::Exchange {
                table: table.clone(),
                predicate: sub_opt(predicate)?,
                shards: shards.clone(),
                probe: probe.clone(),
            },
            PlanOp::Filter { predicate } => PlanOp::Filter {
                predicate: predicate.substitute_params(params)?,
            },
            PlanOp::NestedLoopJoin { on } => PlanOp::NestedLoopJoin { on: sub_opt(on)? },
            PlanOp::HashJoin {
                left_keys,
                right_keys,
                residual,
            } => PlanOp::HashJoin {
                left_keys: left_keys.clone(),
                right_keys: right_keys.clone(),
                residual: sub_opt(residual)?,
            },
            PlanOp::Project { exprs } => PlanOp::Project {
                exprs: exprs
                    .iter()
                    .map(|e| e.substitute_params(params))
                    .collect::<hdm_common::Result<_>>()?,
            },
            PlanOp::HashAgg { group, aggs } => PlanOp::HashAgg {
                group: group
                    .iter()
                    .map(|g| g.substitute_params(params))
                    .collect::<hdm_common::Result<_>>()?,
                aggs: aggs
                    .iter()
                    .map(|a| {
                        Ok(AggCall {
                            func: a.func,
                            arg: sub_opt(&a.arg)?,
                        })
                    })
                    .collect::<hdm_common::Result<_>>()?,
            },
            PlanOp::Sort { keys } => PlanOp::Sort {
                keys: keys
                    .iter()
                    .map(|(k, desc)| Ok((k.substitute_params(params)?, *desc)))
                    .collect::<hdm_common::Result<_>>()?,
            },
            PlanOp::Values { .. }
            | PlanOp::Limit { .. }
            | PlanOp::SetOp { .. }
            | PlanOp::Distinct => self.op.clone(),
        };
        let children = self
            .children
            .iter()
            .map(|c| c.substitute_params(params))
            .collect::<hdm_common::Result<_>>()?;
        Ok(PlanNode {
            op,
            children,
            cost: self.cost,
            schema: self.schema.clone(),
        })
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        out.push_str(&format!(
            "{pad}{}  (rows={:.0} cost={:.1})\n",
            self.describe(),
            self.cost.rows,
            self.cost.total()
        ));
        for c in &self.children {
            c.explain_into(out, depth + 1);
        }
    }
}

/// Extract the probe value from a `col = value` (or `value = col`) equality
/// whose value side is already concrete.
pub(crate) fn eq_key_value(e: &SExpr) -> Option<hdm_common::Datum> {
    if let SExpr::Binary(crate::ast::BinOp::Eq, l, r) = e {
        match (&**l, &**r) {
            (SExpr::Col(_), SExpr::Lit(d)) | (SExpr::Lit(d), SExpr::Col(_)) => {
                return Some(d.clone())
            }
            _ => {}
        }
    }
    None
}

/// Decompose a range comparison into `(column, op-with-column-on-the-left,
/// value side)`. `10 < col` normalizes to `col > 10`. The value side may
/// still be a parameter at plan time.
pub(crate) fn range_bound_parts(e: &SExpr) -> Option<(usize, crate::ast::BinOp, &SExpr)> {
    use crate::ast::BinOp;
    let SExpr::Binary(op, l, r) = e else {
        return None;
    };
    let flipped = |op: BinOp| match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    };
    match (op, &**l, &**r) {
        (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, SExpr::Col(c), v)
            if matches!(v, SExpr::Lit(_) | SExpr::Param(_)) =>
        {
            Some((*c, *op, v))
        }
        (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, v, SExpr::Col(c))
            if matches!(v, SExpr::Lit(_) | SExpr::Param(_)) =>
        {
            Some((*c, flipped(*op), v))
        }
        _ => None,
    }
}

/// Fold concrete range conjuncts (all on the same column) into the tightest
/// `(lo, hi)` bound pair for an ordered-index walk. Errors if any value is
/// still unbound.
pub(crate) fn range_bounds_from_exprs(
    exprs: &[SExpr],
) -> hdm_common::Result<(Bound<Datum>, Bound<Datum>)> {
    use crate::ast::BinOp;
    let mut lo: Bound<Datum> = Bound::Unbounded;
    let mut hi: Bound<Datum> = Bound::Unbounded;
    for e in exprs {
        let Some((_, op, v)) = range_bound_parts(e) else {
            return Err(hdm_common::HdmError::Execution(
                "index range bound is not a column/value comparison".into(),
            ));
        };
        let SExpr::Lit(d) = v else {
            return Err(hdm_common::HdmError::Execution(
                "index range bound is not concrete".into(),
            ));
        };
        match op {
            BinOp::Gt => lo = tighter_lo(lo, Bound::Excluded(d.clone())),
            BinOp::Ge => lo = tighter_lo(lo, Bound::Included(d.clone())),
            BinOp::Lt => hi = tighter_hi(hi, Bound::Excluded(d.clone())),
            BinOp::Le => hi = tighter_hi(hi, Bound::Included(d.clone())),
            _ => unreachable!("range_bound_parts only yields comparisons"),
        }
    }
    Ok((lo, hi))
}

fn tighter_lo(a: Bound<Datum>, b: Bound<Datum>) -> Bound<Datum> {
    use std::cmp::Ordering;
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.cmp(y) {
                Ordering::Greater => a,
                Ordering::Less => b,
                // Same value: Excluded is the tighter lower bound.
                Ordering::Equal => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

fn tighter_hi(a: Bound<Datum>, b: Bound<Datum>) -> Bound<Datum> {
    use std::cmp::Ordering;
    match (&a, &b) {
        (Bound::Unbounded, _) => b,
        (_, Bound::Unbounded) => a,
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            match x.cmp(y) {
                Ordering::Less => a,
                Ordering::Greater => b,
                // Same value: Excluded is the tighter upper bound.
                Ordering::Equal => {
                    if matches!(a, Bound::Excluded(_)) {
                        a
                    } else {
                        b
                    }
                }
            }
        }
    }
}

fn conjunct_texts(e: &SExpr, schema: &BoundSchema) -> Vec<String> {
    // Split bound AND chains into canonical conjunct strings.
    match e {
        SExpr::Binary(crate::ast::BinOp::And, l, r) => {
            let mut v = conjunct_texts(l, schema);
            v.extend(conjunct_texts(r, schema));
            v
        }
        other => vec![other.canonical(schema)],
    }
}

fn ordered_predicate(e: &SExpr, schema: &BoundSchema) -> String {
    let mut parts = conjunct_texts(e, schema);
    parts.sort();
    parts.join(" AND ")
}

fn canon_scan(table: &str, predicate: Option<&SExpr>, schema: &BoundSchema) -> String {
    let preds = match predicate {
        None => vec![],
        Some(p) => {
            let mut v = conjunct_texts(p, schema);
            v.sort();
            v
        }
    };
    render_scan(table, &preds)
}

fn render_scan(table: &str, preds: &[String]) -> String {
    if preds.is_empty() {
        format!("SCAN({})", table.to_ascii_uppercase())
    } else {
        format!(
            "SCAN({}, PREDICATE({}))",
            table.to_ascii_uppercase(),
            preds.join(" AND ")
        )
    }
}

fn canon_join(children: &[PlanNode], on: Option<&SExpr>, schema: &BoundSchema) -> String {
    let mut kids: Vec<String> = children.iter().map(|c| c.canonical_inner()).collect();
    kids.sort();
    match on {
        Some(p) => format!(
            "JOIN({}, PREDICATE({}))",
            kids.join(", "),
            ordered_predicate(p, schema)
        ),
        None => format!("JOIN({})", kids.join(", ")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{bind, BoundSchema};
    use hdm_common::{DataType, Schema};

    fn t1_schema() -> BoundSchema {
        BoundSchema::from_table(
            "olap.t1",
            "olap.t1",
            &Schema::from_pairs(&[("a1", DataType::Int), ("b1", DataType::Int)]),
        )
    }

    fn t2_schema() -> BoundSchema {
        BoundSchema::from_table(
            "olap.t2",
            "olap.t2",
            &Schema::from_pairs(&[("a2", DataType::Int)]),
        )
    }

    fn scan_t1() -> PlanNode {
        let schema = t1_schema();
        let pred = bind(&crate::parser_test_expr("b1 > 10"), &schema).unwrap();
        PlanNode {
            op: PlanOp::SeqScan {
                table: "olap.t1".into(),
                predicate: Some(pred),
            },
            children: vec![],
            cost: CostEstimate::rows_only(50.0),
            schema,
        }
    }

    fn scan_t2() -> PlanNode {
        PlanNode {
            op: PlanOp::SeqScan {
                table: "olap.t2".into(),
                predicate: None,
            },
            children: vec![],
            cost: CostEstimate::rows_only(100.0),
            schema: t2_schema(),
        }
    }

    /// Table I row 1, with literal values masked to `?` so every binding of
    /// the same statement shape shares one plan-store entry.
    #[test]
    fn scan_step_matches_table1() {
        assert_eq!(
            scan_t1().canonical().unwrap(),
            "SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1>?))"
        );
    }

    /// Table I row 2: the join step embeds the full child definitions.
    #[test]
    fn join_step_matches_table1() {
        let left = scan_t1();
        let right = scan_t2();
        let schema = left.schema.join(&right.schema);
        let on = bind(&crate::parser_test_expr("olap.t1.a1 = olap.t2.a2"), &schema).unwrap();
        let join = PlanNode {
            op: PlanOp::NestedLoopJoin { on: Some(on) },
            children: vec![left, right],
            cost: CostEstimate::rows_only(50.0),
            schema,
        };
        assert_eq!(
            join.canonical().unwrap(),
            "JOIN(SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1>?)), SCAN(OLAP.T2), \
             PREDICATE(OLAP.T1.A1=OLAP.T2.A2))"
        );
    }

    /// Join children and commutative predicates are order-normalized: the
    /// same join written both ways produces identical text.
    #[test]
    fn join_children_order_insensitive() {
        let mk = |flip: bool| {
            let (l, r) = if flip {
                (scan_t2(), scan_t1())
            } else {
                (scan_t1(), scan_t2())
            };
            let schema = l.schema.join(&r.schema);
            let on_text = if flip {
                "olap.t2.a2 = olap.t1.a1"
            } else {
                "olap.t1.a1 = olap.t2.a2"
            };
            let on = bind(&crate::parser_test_expr(on_text), &schema).unwrap();
            PlanNode {
                op: PlanOp::NestedLoopJoin { on: Some(on) },
                children: vec![l, r],
                cost: CostEstimate::rows_only(1.0),
                schema,
            }
            .canonical()
            .unwrap()
        };
        assert_eq!(mk(false), mk(true));
    }

    /// Hash join and nested loop render the same logical JOIN text.
    #[test]
    fn physical_operator_does_not_leak_into_step_text() {
        let left = scan_t1();
        let right = scan_t2();
        let schema = left.schema.join(&right.schema);
        let nl_on = bind(&crate::parser_test_expr("olap.t1.a1 = olap.t2.a2"), &schema).unwrap();
        let nl = PlanNode {
            op: PlanOp::NestedLoopJoin { on: Some(nl_on) },
            children: vec![left.clone(), right.clone()],
            cost: CostEstimate::rows_only(1.0),
            schema: schema.clone(),
        };
        let hj = PlanNode {
            op: PlanOp::HashJoin {
                left_keys: vec![0],
                right_keys: vec![0],
                residual: None,
            },
            children: vec![left, right],
            cost: CostEstimate::rows_only(1.0),
            schema,
        };
        assert_eq!(nl.canonical(), hj.canonical());
    }

    #[test]
    fn limit_and_agg_steps() {
        let scan = scan_t2();
        let ischema = scan.schema.clone();
        let g = bind(&crate::parser_test_expr("a2"), &ischema).unwrap();
        let agg = PlanNode {
            op: PlanOp::HashAgg {
                group: vec![g],
                aggs: vec![AggCall {
                    func: AggFunc::CountStar,
                    arg: None,
                }],
            },
            children: vec![scan],
            cost: CostEstimate::rows_only(10.0),
            schema: ischema,
        };
        assert_eq!(
            agg.canonical().unwrap(),
            "AGG(SCAN(OLAP.T2), GROUP(OLAP.T2.A2), FUNCS(COUNT(*)))"
        );
        let limit = PlanNode {
            op: PlanOp::Limit { n: 5 },
            children: vec![agg],
            cost: CostEstimate::rows_only(5.0),
            schema: BoundSchema::default(),
        };
        assert!(limit.canonical().unwrap().starts_with("LIMIT(AGG("));
    }

    #[test]
    fn project_and_sort_are_transparent() {
        let scan = scan_t1();
        let text = scan.canonical().unwrap();
        let sorted = PlanNode {
            op: PlanOp::Sort { keys: vec![] },
            children: vec![scan],
            cost: CostEstimate::rows_only(50.0),
            schema: t1_schema(),
        };
        // Sort itself isn't captured, but its canonical_inner passes through.
        assert_eq!(sorted.canonical(), None);
        assert_eq!(sorted.canonical_inner(), text);
    }

    #[test]
    fn explain_renders_a_tree() {
        let left = scan_t1();
        let right = scan_t2();
        let schema = left.schema.join(&right.schema);
        let join = PlanNode {
            op: PlanOp::NestedLoopJoin { on: None },
            children: vec![left, right],
            cost: CostEstimate::rows_only(5000.0),
            schema,
        };
        let text = join.explain();
        assert!(text.contains("Nested Loop Join"));
        assert!(text.contains("Seq Scan on olap.t1"));
        assert!(text.lines().count() >= 3);
    }
}
