//! The operator-level query profiler and its bridges.
//!
//! [`Profiler`] rides along with [`crate::exec::execute`] — and, through
//! [`ChainProfiler`], with the flat programs that run cached linear chains —
//! mirroring the plan tree into an [`OpProfile`] tree: per operator it
//! records actual rows, inclusive time on a pluggable [`SharedClock`]
//! (virtual in simulations, wall in real runs), and — for `Exchange`
//! operators — the per-shard rows/time legs the backend drained via
//! [`crate::backend::ExecBackend::take_exchange_profile`]. A streamed scan
//! hands each row to its consumer inside the scan, so its time (and each
//! Exchange leg's) includes the consumer's per-row work: a `HashAgg` or
//! `Project` over a scan shows a self time near 0.
//!
//! Two bridges make the profile more than a pretty tree:
//!
//! * [`observations`] derives the plan store's [`StepObservation`]s from a
//!   profile, post-order — **provably the same list** the executor pushes
//!   directly (both walk the same tree, children before parents), so the
//!   Fig 6 capture loop can feed on the exact artifact users inspect with
//!   `EXPLAIN ANALYZE`;
//! * [`render_analyze`] renders the annotated tree (estimates vs. actuals,
//!   per-shard Exchange breakdown, misestimate flags at the plan store's
//!   capture threshold).

use crate::plan::{PlanNode, StepKind, StepObservation};
use hdm_telemetry::{OpProfile, ShardLeg, SharedClock, StatementProfile};
use std::fmt::Write as _;

/// The profile schema carries step kinds as strings so `hdm-telemetry`
/// needs no SQL dependency; this is the canonical mapping.
pub fn kind_str(kind: StepKind) -> &'static str {
    match kind {
        StepKind::Scan => "scan",
        StepKind::Join => "join",
        StepKind::Agg => "agg",
        StepKind::SetOp => "setop",
        StepKind::Limit => "limit",
        StepKind::Other => "other",
    }
}

fn kind_from_str(s: &str) -> StepKind {
    match s {
        "scan" => StepKind::Scan,
        "join" => StepKind::Join,
        "agg" => StepKind::Agg,
        "setop" => StepKind::SetOp,
        "limit" => StepKind::Limit,
        _ => StepKind::Other,
    }
}

/// An open operator frame on the profiler's stack.
#[derive(Debug)]
struct Frame {
    start_us: u64,
    children: Vec<OpProfile>,
}

/// Builds an [`OpProfile`] tree while the executor recurses. The executor
/// calls [`Profiler::enter`] before evaluating a node's children and
/// [`Profiler::exit`] once the node's rows are materialized; frames nest on
/// a stack exactly like the recursion does.
#[derive(Debug)]
pub struct Profiler {
    clock: SharedClock,
    stack: Vec<Frame>,
    /// Completed top-level operator profiles (one per root the executor ran).
    roots: Vec<OpProfile>,
}

impl Profiler {
    pub fn new(clock: SharedClock) -> Self {
        Self {
            clock,
            stack: Vec::new(),
            roots: Vec::new(),
        }
    }

    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Open a frame for the node about to execute.
    pub fn enter(&mut self) {
        self.stack.push(Frame {
            start_us: self.clock.now_us(),
            children: Vec::new(),
        });
    }

    /// Close the current frame with the node's results. `shards` is the
    /// per-shard breakdown for Exchange nodes (empty otherwise).
    pub fn exit(&mut self, plan: &PlanNode, rows_out: u64, shards: Vec<ShardLeg>) {
        let frame = self.stack.pop().expect("profiler exit without enter");
        let loops = if shards.is_empty() {
            1
        } else {
            shards.len() as u64
        };
        let profile = OpProfile {
            label: plan.describe(),
            kind: kind_str(plan.step_kind()).to_string(),
            canonical: plan.canonical(),
            est_rows: plan.est_rows(),
            rows_out,
            loops,
            time_us: self.clock.now_us().saturating_sub(frame.start_us),
            shards,
            children: frame.children,
        };
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(profile),
            None => self.roots.push(profile),
        }
    }

    /// Take the completed root profile. Returns `None` when nothing ran; if
    /// several roots completed (CTE materialization), the **last** is the
    /// main statement tree.
    pub fn finish(mut self) -> Option<OpProfile> {
        debug_assert!(self.stack.is_empty(), "unbalanced profiler frames");
        self.roots.pop()
    }
}

/// The profiler a flat program carries: it mirrors a linear plan chain
/// (each node's first child is the next link) into the same frames the
/// tree executor would open. [`Self::new`] enters every node, root first,
/// as the tree's recursion does; the program then closes them leaf first,
/// one per finished op, with [`Self::exit_next`].
pub struct ChainProfiler<'a> {
    ops: &'a mut Profiler,
    /// The chain's nodes still open, root first.
    open: Vec<&'a PlanNode>,
}

impl<'a> ChainProfiler<'a> {
    pub fn new(ops: &'a mut Profiler, plan: &'a PlanNode) -> Self {
        let mut open = vec![plan];
        while let Some(child) = open[open.len() - 1].children.first() {
            open.push(child);
        }
        for _ in &open {
            ops.enter();
        }
        Self { ops, open }
    }

    /// Close the innermost open node with its rows out and, for an
    /// `Exchange`, its per-shard legs.
    pub fn exit_next(&mut self, rows_out: u64, shards: Vec<ShardLeg>) {
        let node = self.open.pop().expect("chain profiler exit past the root");
        self.ops.exit(node, rows_out, shards);
    }
}

/// Derive the plan store's step observations from a profile tree,
/// post-order — the same order (and the same `(kind, text, estimated,
/// actual)` contents) the executor observes directly, which the
/// profiler-equivalence test pins.
pub fn observations(root: Option<&OpProfile>) -> Vec<StepObservation> {
    let mut out = Vec::new();
    if let Some(root) = root {
        root.visit_post(&mut |op| {
            if let Some(text) = &op.canonical {
                out.push(StepObservation {
                    kind: kind_from_str(&op.kind),
                    text: text.as_str().into(),
                    estimated: op.est_rows,
                    actual: op.rows_out,
                });
            }
        });
    }
    out
}

/// Render the `EXPLAIN ANALYZE` tree: each operator's estimate vs. actual
/// rows and inclusive time, per-shard legs under Exchange operators, and a
/// `MISESTIMATE` flag wherever the estimate is off by at least
/// `misestimate_ratio` — the same differential ratio the plan store uses to
/// decide capture, so every flagged line is a line the feedback loop will
/// learn from.
pub fn render_analyze(profile: &StatementProfile, misestimate_ratio: f64) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(root) = &profile.root {
        render_op(&mut out, root, 0, misestimate_ratio);
    }
    out.push(format!(
        "Planning: {}us  Execution: {}us  Total: {}us",
        profile.plan_us, profile.exec_us, profile.total_us
    ));
    out.push(format!(
        "Scope: {}  GTM interactions: {}  2PC legs: {}",
        profile.scope, profile.gtm_interactions, profile.twopc_legs
    ));
    out
}

fn render_op(out: &mut Vec<String>, op: &OpProfile, depth: usize, ratio: f64) {
    let pad = "  ".repeat(depth);
    let mut line = format!(
        "{pad}{}  (est={:.0} actual rows={} loops={} time={}us)",
        op.label, op.est_rows, op.rows_out, op.loops, op.time_us
    );
    if op.canonical.is_some() && op.misestimate_ratio() >= ratio {
        let _ = write!(line, "  [MISESTIMATE x{:.1}]", op.misestimate_ratio());
    }
    out.push(line);
    for leg in &op.shards {
        out.push(format!(
            "{pad}  [shard {}] rows={} time={}us",
            leg.shard, leg.rows, leg.time_us
        ));
    }
    for c in &op.children {
        render_op(out, c, depth + 1, ratio);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(canonical: Option<&str>, est: f64, rows: u64, children: Vec<OpProfile>) -> OpProfile {
        OpProfile {
            label: "x".into(),
            kind: "scan".into(),
            canonical: canonical.map(str::to_string),
            est_rows: est,
            rows_out: rows,
            loops: 1,
            time_us: 5,
            shards: vec![],
            children,
        }
    }

    #[test]
    fn observations_walk_post_order_and_skip_uncaptured_nodes() {
        let tree = OpProfile {
            kind: "join".into(),
            ..op(
                Some("JOIN(A, B)"),
                10.0,
                4,
                vec![
                    op(Some("SCAN(A)"), 5.0, 2, vec![]),
                    op(None, 0.0, 0, vec![op(Some("SCAN(B)"), 6.0, 2, vec![])]),
                ],
            )
        };
        let obs = observations(Some(&tree));
        let texts: Vec<&str> = obs.iter().map(|o| &*o.text).collect();
        assert_eq!(texts, vec!["SCAN(A)", "SCAN(B)", "JOIN(A, B)"]);
        assert_eq!(obs[0].actual, 2);
        assert_eq!(obs[2].kind, StepKind::Join);
        assert!(observations(None).is_empty());
    }

    #[test]
    fn render_flags_misestimates_at_the_threshold() {
        let profile = StatementProfile {
            sql: String::new(),
            scope: "local".into(),
            start_us: 0,
            plan_us: 1,
            exec_us: 2,
            total_us: 3,
            rows_out: 30,
            gtm_interactions: 0,
            twopc_legs: 0,
            root: Some(op(
                Some("SCAN(T)"),
                10.0,
                30,
                vec![op(Some("SCAN(U)"), 10.0, 11, vec![])],
            )),
        };
        let lines = render_analyze(&profile, 2.0);
        assert!(lines[0].contains("[MISESTIMATE x3.0]"), "{}", lines[0]);
        assert!(!lines[1].contains("MISESTIMATE"), "1.1x is under threshold");
        assert!(lines.last().unwrap().contains("GTM interactions: 0"));
    }

    #[test]
    fn render_includes_shard_legs() {
        let mut root = op(Some("EXCHANGE(SCAN(T), SHARDS(0,1))"), 4.0, 4, vec![]);
        root.shards = vec![
            ShardLeg {
                shard: 0,
                rows: 3,
                time_us: 7,
            },
            ShardLeg {
                shard: 1,
                rows: 1,
                time_us: 9,
            },
        ];
        root.loops = 2;
        let profile = StatementProfile {
            sql: String::new(),
            scope: "single".into(),
            start_us: 0,
            plan_us: 0,
            exec_us: 0,
            total_us: 0,
            rows_out: 4,
            gtm_interactions: 0,
            twopc_legs: 0,
            root: Some(root),
        };
        let lines = render_analyze(&profile, 2.0);
        assert!(
            lines[1].contains("[shard 0] rows=3 time=7us"),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].contains("[shard 1] rows=1 time=9us"),
            "{}",
            lines[2]
        );
    }
}
