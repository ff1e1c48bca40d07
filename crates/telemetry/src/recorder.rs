//! The statement flight recorder: per-operator runtime profiles and a
//! bounded, deterministic ring buffer of recent statement profiles.
//!
//! A [`StatementProfile`] mirrors one executed plan tree: every operator
//! carries its estimated and actual cardinality, wall/virtual time (read
//! from the same pluggable [`crate::Clock`] the tracer uses), and — for
//! distributed Exchange operators — a per-shard rows/time breakdown plus
//! statement-level GTM-interaction and 2PC-leg counts. The SQL layer builds
//! these trees; this module only owns the data model, the recorder, and the
//! JSONL export, so the profile schema stays engine-agnostic.
//!
//! Like every exporter in this crate, [`FlightRecorder::to_jsonl`] is
//! hand-rendered with a fixed field order: one simulation seed produces one
//! byte sequence, and a golden-file test pins the schema.

use crate::export::esc;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// One shard's contribution to an Exchange operator: the fragment's row
/// count and the time the CN spent gathering it. When the Exchange streams
/// into its consumer, that time includes the consumer's work on the rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLeg {
    pub shard: u64,
    pub rows: u64,
    pub time_us: u64,
}

/// Runtime profile of one plan operator (a `ProfileNode` mirroring the plan
/// tree node that produced it).
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Human-readable operator label (the EXPLAIN line).
    pub label: String,
    /// Logical step class (`scan`/`join`/`agg`/`setop`/`limit`/`other`),
    /// kept as a string so the profile schema has no SQL-crate dependency.
    pub kind: String,
    /// Canonical step text (the plan-store key), when the operator has one.
    pub canonical: Option<String>,
    /// The optimizer's estimated output cardinality.
    pub est_rows: f64,
    /// Actual rows produced.
    pub rows_out: u64,
    /// Fragment executions under this operator (shard fan-out for Exchange,
    /// 1 for everything else in the materializing executor).
    pub loops: u64,
    /// Inclusive elapsed time (children included), in clock microseconds.
    pub time_us: u64,
    /// Per-shard breakdown (Exchange operators only).
    pub shards: Vec<ShardLeg>,
    pub children: Vec<OpProfile>,
}

impl OpProfile {
    /// Time spent in this operator alone (children subtracted, floored at 0).
    pub fn self_time_us(&self) -> u64 {
        let child: u64 = self.children.iter().map(|c| c.time_us).sum();
        self.time_us.saturating_sub(child)
    }

    /// `max(est, actual) / max(min(est, actual), 1)` — the same differential
    /// ratio the plan store's capture policy uses, so "misestimate" means the
    /// same thing in EXPLAIN ANALYZE output and in capture decisions.
    pub fn misestimate_ratio(&self) -> f64 {
        let hi = self.est_rows.max(self.rows_out as f64).max(1.0);
        let lo = self.est_rows.min(self.rows_out as f64).max(1.0);
        hi / lo
    }

    /// Visit the tree post-order (children before parents) — the same order
    /// the executor observes steps in.
    pub fn visit_post<'a>(&'a self, f: &mut impl FnMut(&'a OpProfile)) {
        for c in &self.children {
            c.visit_post(f);
        }
        f(self);
    }
}

/// Runtime profile of one executed statement.
#[derive(Debug, Clone, PartialEq)]
pub struct StatementProfile {
    /// The statement text ("" when executed from a pre-parsed AST).
    pub sql: String,
    /// Statement scope: `local` (embedded engine), `single` (one-shard
    /// GTM-free transaction) or `multi` (global snapshot + 2PC).
    pub scope: String,
    /// Clock reading when the statement started.
    pub start_us: u64,
    /// Planning time (parse + rewrite + plan), microseconds.
    pub plan_us: u64,
    /// Execution time, microseconds.
    pub exec_us: u64,
    /// End-to-end statement time, microseconds.
    pub total_us: u64,
    /// Rows returned to the client.
    pub rows_out: u64,
    /// GTM interactions this statement caused (0 on the single-shard path).
    pub gtm_interactions: u64,
    /// 2PC legs the statement's commit drove (0 for single-shard/local).
    pub twopc_legs: u64,
    /// The operator tree (None for statements without a plan tree).
    pub root: Option<OpProfile>,
}

/// Recorder policy knobs.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Ring capacity: how many recent statement profiles are retained.
    pub capacity: usize,
    /// Statements at or above this total time are flagged `slow` in the
    /// export and returned by [`FlightRecorder::slow`].
    pub slow_threshold_us: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            capacity: 64,
            slow_threshold_us: 1_000,
        }
    }
}

/// A bounded ring buffer of recent statement profiles — the retrospection
/// tool: when a statement was slow, its full operator profile is still here.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    cfg: RecorderConfig,
    /// Profiles are shared with the statement results that carry them, so
    /// recording one is a reference-count bump, not a copy.
    ring: VecDeque<(u64, Arc<StatementProfile>)>,
    /// Statements ever recorded (monotonic; entries keep their seq after
    /// older ones are evicted).
    next_seq: u64,
    /// Profiles evicted from (or rejected by) the bounded ring — the
    /// `recorder.dropped` counter `sys.metrics` exposes, so ring overflow is
    /// visible instead of silent.
    dropped: u64,
}

impl FlightRecorder {
    pub fn new(cfg: RecorderConfig) -> Self {
        Self {
            cfg,
            ring: VecDeque::new(),
            next_seq: 0,
            dropped: 0,
        }
    }

    pub fn config(&self) -> &RecorderConfig {
        &self.cfg
    }

    /// Record one statement profile, evicting the oldest beyond capacity.
    pub fn record(&mut self, profile: impl Into<Arc<StatementProfile>>) {
        if self.cfg.capacity == 0 {
            self.next_seq += 1;
            self.dropped += 1;
            return;
        }
        while self.ring.len() >= self.cfg.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back((self.next_seq, profile.into()));
        self.next_seq += 1;
    }

    /// Profiles that fell off the bounded ring (evictions plus records into
    /// a zero-capacity recorder).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total statements ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// Retained profiles, oldest first, with their sequence numbers.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &StatementProfile)> {
        self.ring.iter().map(|(seq, p)| (*seq, &**p))
    }

    /// Retained profiles at or above the slow-statement threshold.
    pub fn slow(&self) -> impl Iterator<Item = (u64, &StatementProfile)> {
        let t = self.cfg.slow_threshold_us;
        self.iter().filter(move |(_, p)| p.total_us >= t)
    }

    /// Deterministic JSONL dump: one `{"type":"stmt",...}` object per
    /// retained statement, oldest first, fixed field order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (seq, p) in self.iter() {
            let _ = write!(
                out,
                "{{\"type\":\"stmt\",\"seq\":{seq},\"scope\":\"{}\",\"sql\":\"{}\",\"start_us\":{},\"plan_us\":{},\"exec_us\":{},\"total_us\":{},\"rows_out\":{},\"gtm\":{},\"twopc_legs\":{},\"slow\":{},\"root\":",
                esc(&p.scope),
                esc(&p.sql),
                p.start_us,
                p.plan_us,
                p.exec_us,
                p.total_us,
                p.rows_out,
                p.gtm_interactions,
                p.twopc_legs,
                p.total_us >= self.cfg.slow_threshold_us,
            );
            match &p.root {
                Some(root) => write_op(&mut out, root),
                None => out.push_str("null"),
            }
            out.push_str("}\n");
        }
        out
    }
}

fn write_op(out: &mut String, op: &OpProfile) {
    let _ = write!(
        out,
        "{{\"label\":\"{}\",\"kind\":\"{}\",\"canonical\":",
        esc(&op.label),
        esc(&op.kind)
    );
    match &op.canonical {
        Some(c) => {
            let _ = write!(out, "\"{}\"", esc(c));
        }
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"est_rows\":{:.1},\"rows\":{},\"loops\":{},\"time_us\":{},\"shards\":[",
        op.est_rows, op.rows_out, op.loops, op.time_us
    );
    for (i, s) in op.shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"shard\":{},\"rows\":{},\"time_us\":{}}}",
            s.shard, s.rows, s.time_us
        );
    }
    out.push_str("],\"children\":[");
    for (i, c) in op.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_op(out, c);
    }
    out.push_str("]}");
}

/// A shareable, thread-safe recorder handle. Clones share the ring.
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder(Arc<Mutex<FlightRecorder>>);

impl SharedRecorder {
    pub fn new(cfg: RecorderConfig) -> Self {
        Self(Arc::new(Mutex::new(FlightRecorder::new(cfg))))
    }

    pub fn record(&self, profile: impl Into<Arc<StatementProfile>>) {
        self.0.lock().expect("recorder lock").record(profile);
    }

    pub fn len(&self) -> usize {
        self.0.lock().expect("recorder lock").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn to_jsonl(&self) -> String {
        self.0.lock().expect("recorder lock").to_jsonl()
    }

    /// Profiles evicted from the bounded ring so far.
    pub fn dropped(&self) -> u64 {
        self.0.lock().expect("recorder lock").dropped()
    }

    /// Run `f` against the recorder under its lock.
    pub fn with<R>(&self, f: impl FnOnce(&FlightRecorder) -> R) -> R {
        f(&self.0.lock().expect("recorder lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stmt(sql: &str, total_us: u64) -> StatementProfile {
        StatementProfile {
            sql: sql.to_string(),
            scope: "local".to_string(),
            start_us: 0,
            plan_us: 1,
            exec_us: total_us.saturating_sub(1),
            total_us,
            rows_out: 3,
            gtm_interactions: 0,
            twopc_legs: 0,
            root: Some(OpProfile {
                label: "Seq Scan on t".to_string(),
                kind: "scan".to_string(),
                canonical: Some("SCAN(T)".to_string()),
                est_rows: 10.0,
                rows_out: 3,
                loops: 1,
                time_us: total_us,
                shards: vec![],
                children: vec![],
            }),
        }
    }

    #[test]
    fn ring_is_bounded_and_keeps_sequence_numbers() {
        let mut r = FlightRecorder::new(RecorderConfig {
            capacity: 2,
            slow_threshold_us: 100,
        });
        for i in 0..5 {
            r.record(stmt(&format!("q{i}"), 10));
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.recorded(), 5);
        assert_eq!(r.dropped(), 3, "evictions are counted, not silent");
        let seqs: Vec<u64> = r.iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![3, 4], "oldest evicted, seq preserved");
    }

    #[test]
    fn slow_filter_uses_the_threshold() {
        let mut r = FlightRecorder::new(RecorderConfig {
            capacity: 8,
            slow_threshold_us: 50,
        });
        r.record(stmt("fast", 10));
        r.record(stmt("slow", 90));
        let slow: Vec<&str> = r.slow().map(|(_, p)| p.sql.as_str()).collect();
        assert_eq!(slow, vec!["slow"]);
        let text = r.to_jsonl();
        assert!(text.contains("\"sql\":\"fast\",") && text.contains("\"slow\":false"));
        assert!(text.contains("\"sql\":\"slow\",") && text.contains("\"slow\":true"));
    }

    #[test]
    fn jsonl_is_deterministic_and_valid() {
        let build = || {
            let mut r = FlightRecorder::new(RecorderConfig::default());
            r.record(stmt("select \"x\"\n", 7));
            r.record(stmt("select 2", 2_000));
            r.to_jsonl()
        };
        let a = build();
        assert_eq!(a, build(), "same input, same bytes");
        for line in a.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
            assert_eq!(v["type"].as_str(), Some("stmt"));
            assert!(v["root"]["label"].as_str().is_some());
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let child = OpProfile {
            label: "child".into(),
            kind: "scan".into(),
            canonical: None,
            est_rows: 1.0,
            rows_out: 1,
            loops: 1,
            time_us: 30,
            shards: vec![],
            children: vec![],
        };
        let parent = OpProfile {
            label: "parent".into(),
            kind: "agg".into(),
            canonical: None,
            est_rows: 1.0,
            rows_out: 1,
            loops: 1,
            time_us: 50,
            shards: vec![],
            children: vec![child],
        };
        assert_eq!(parent.self_time_us(), 20);
        let mut order = Vec::new();
        parent.visit_post(&mut |op| order.push(op.label.clone()));
        assert_eq!(order, vec!["child".to_string(), "parent".to_string()]);
    }

    #[test]
    fn misestimate_ratio_matches_store_policy() {
        let mut op = stmt("q", 1).root.unwrap();
        op.est_rows = 10.0;
        op.rows_out = 100;
        assert!((op.misestimate_ratio() - 10.0).abs() < 1e-9);
        op.rows_out = 10;
        assert!((op.misestimate_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shared_recorder_clones_share_the_ring() {
        let a = SharedRecorder::new(RecorderConfig::default());
        let b = a.clone();
        a.record(stmt("q", 1));
        assert_eq!(b.len(), 1);
        assert!(b.to_jsonl().contains("\"sql\":\"q\""));
    }
}
