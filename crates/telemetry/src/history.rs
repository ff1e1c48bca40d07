//! The workload-history repository: AWR-style snapshot windows over the
//! observability plane.
//!
//! Everything else in this crate is point-in-time — the metrics registry
//! holds *current* counters, the flight recorder the *last N* statement
//! profiles. The [`SnapshotEngine`] turns that into history: every window
//! (a clock interval, or a statement-count stride for discrete-event
//! harnesses) it captures a [`WorkloadSnapshot`] **delta** — counter and
//! histogram-count deltas since the previous window, gauge levels, the
//! window's statements aggregated per canonical text (top-K by total time
//! and by misestimate ratio, drained from the recorder via its monotonic
//! sequence cursor), a per-statement **shard co-access matrix** (which shard
//! sets each statement's legs touched, counted per window — the substrate
//! affinity-driven placement mines), per-shard health/lag/epoch rows the
//! engine feeds in, and plan-cache hit/size stats.
//!
//! Snapshots live in a bounded ring with monotonic window ids and serialize
//! to the same hand-rendered deterministic JSONL discipline as the recorder:
//! one seed, one byte sequence. [`WorkloadSnapshot`]'s `PartialEq` excludes
//! every clock-valued field (the `ChaosDistReport` pattern), so faulted
//! replays compare bit-identical on the deterministic fields even under a
//! wall clock.
//!
//! On top of the ring sit [`diff`] (a two-window comparison report) and
//! [`detect_regressions`] — the trailing-baseline detector (latency p95
//! growth, 2PC-per-statement rate spike, replica-lag trend, plan-cache
//! hit-rate collapse) whose findings the cluster journals as
//! `history.regression` events and the autonomous anomaly plane surfaces.

use crate::export::esc;
use crate::metrics::MetricsSnapshot;
use crate::recorder::SharedRecorder;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Snapshot-engine policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct HistoryConfig {
    /// Window length in clock microseconds (clock-driven capture). Ignored
    /// when `every_stmts` is non-zero.
    pub window_us: u64,
    /// Capture every N completed statements instead of on the clock —
    /// the discrete-event mode chaos harnesses use (0 = clock-driven).
    pub every_stmts: u64,
    /// Retained windows (bounded ring; older windows are evicted).
    pub capacity: usize,
    /// Statements kept per window: the top K by total time plus the top K
    /// by misestimate ratio.
    pub top_k: usize,
    /// Trailing windows the regression detector baselines against.
    pub baseline: usize,
}

impl Default for HistoryConfig {
    fn default() -> Self {
        Self {
            window_us: 1_000_000,
            every_stmts: 0,
            capacity: 64,
            top_k: 8,
            baseline: 4,
        }
    }
}

/// One statement's aggregate within a window, keyed by its recorded text
/// (canonical for cached statements).
#[derive(Debug, Clone)]
pub struct StatementWindowStat {
    pub stmt: String,
    /// `local` / `single` / `multi` (the scope of the last execution).
    pub scope: String,
    pub execs: u64,
    pub total_us: u64,
    pub rows_out: u64,
    pub twopc_legs: u64,
    /// Worst per-operator misestimate ratio seen across executions.
    pub max_misestimate: f64,
}

/// One `(statement, shard set)` co-access observation: how often the
/// statement's legs touched exactly this set of shards in the window.
/// Multi-shard sets are the 2PC co-access matrix placement will mine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoAccess {
    pub stmt: String,
    /// Sorted comma-joined shard ids, e.g. `"0,2"`.
    pub shards: String,
    pub count: u64,
}

/// One shard's health row at capture time, fed in by the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardWindowStat {
    pub shard: u64,
    pub up: bool,
    pub epoch: u64,
    /// Replication lag (log head minus slowest follower CSN).
    pub lag: u64,
}

/// Everything the engine feeds the capture beyond what the recorder and
/// metrics registry already know. Kept a plain struct so this crate never
/// depends on the cluster.
#[derive(Debug, Clone, Default)]
pub struct CaptureInput {
    /// Clock reading at capture.
    pub now_us: u64,
    /// Current metrics-registry snapshot (None when no registry is
    /// attached; deltas then stay empty).
    pub metrics: Option<MetricsSnapshot>,
    /// Per-shard health rows (empty on the embedded engine).
    pub shards: Vec<ShardWindowStat>,
    /// Cumulative plan-cache hits/misses (the engine's running totals;
    /// the snapshot stores the delta).
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Current plan-cache entry count.
    pub cache_len: u64,
    /// Current learned-plan-store entry count.
    pub plan_store_len: u64,
}

/// One captured window. `PartialEq` deliberately excludes every
/// clock-valued field (`start_us`/`end_us`/`p95_us` and per-statement
/// `total_us`) so same-seed faulted replays under a wall clock still
/// compare equal on the deterministic fields.
#[derive(Debug, Clone)]
pub struct WorkloadSnapshot {
    /// Monotonic window id (survives ring eviction).
    pub window: u64,
    pub start_us: u64,
    pub end_us: u64,
    /// Statements completed in the window (counted at the engine facade,
    /// so present even without a recorder).
    pub stmts: u64,
    /// 2PC legs driven in the window (from recorded profiles).
    pub twopc_legs: u64,
    /// p95 of recorded statement total times in the window.
    pub p95_us: u64,
    /// Plan-cache hit/miss deltas and current size.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_len: u64,
    pub plan_store_len: u64,
    /// Counter deltas since the previous window (non-zero only).
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels at capture.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram count deltas since the previous window (non-zero only).
    pub histogram_counts: BTreeMap<String, u64>,
    /// Top-K statements, sorted by statement text.
    pub statements: Vec<StatementWindowStat>,
    /// Co-access observations, sorted by (statement, shard set).
    pub coaccess: Vec<CoAccess>,
    /// Per-shard health rows at capture.
    pub shards: Vec<ShardWindowStat>,
}

impl PartialEq for WorkloadSnapshot {
    fn eq(&self, other: &Self) -> bool {
        let stmts_eq = self.statements.len() == other.statements.len()
            && self
                .statements
                .iter()
                .zip(other.statements.iter())
                .all(|(a, b)| {
                    a.stmt == b.stmt
                        && a.scope == b.scope
                        && a.execs == b.execs
                        && a.rows_out == b.rows_out
                        && a.twopc_legs == b.twopc_legs
                        && a.max_misestimate == b.max_misestimate
                });
        self.window == other.window
            && self.stmts == other.stmts
            && self.twopc_legs == other.twopc_legs
            && self.cache_hits == other.cache_hits
            && self.cache_misses == other.cache_misses
            && self.cache_len == other.cache_len
            && self.plan_store_len == other.plan_store_len
            && self.counters == other.counters
            && self.gauges == other.gauges
            && self.histogram_counts == other.histogram_counts
            && stmts_eq
            && self.coaccess == other.coaccess
            && self.shards == other.shards
    }
}

/// A workload regression the detector attributes to the latest window.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    pub kind: RegressionKind,
    /// The window the regression was detected in.
    pub window: u64,
    /// The shard involved, when shard-scoped (replica-lag trend).
    pub shard: Option<u64>,
    /// Rendered `cur=... baseline=...` evidence.
    pub detail: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegressionKind {
    /// Statement latency p95 grew ≥2x over the trailing baseline.
    LatencyP95,
    /// 2PC legs per statement spiked ≥2x (+0.25 absolute) over baseline.
    TwoPcRate,
    /// A shard's replication lag is ≥8 and ≥2x its baseline trend.
    ReplicaLag,
    /// Plan-cache hit rate collapsed below half its baseline.
    PlanCacheHitRate,
}

impl RegressionKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            RegressionKind::LatencyP95 => "latency_p95",
            RegressionKind::TwoPcRate => "twopc_rate",
            RegressionKind::ReplicaLag => "replica_lag",
            RegressionKind::PlanCacheHitRate => "plan_cache_hit_rate",
        }
    }
}

/// Replication lag at or above which the lag-trend rule may fire — aligned
/// with the cluster health monitor's degraded threshold.
const LAG_FLOOR: u64 = 8;
/// Minimum recorded statements before the p95 rule is trusted.
const P95_MIN_STMTS: u64 = 4;
/// Minimum plan-cache lookups before the hit-rate rule is trusted.
const HIT_RATE_MIN_LOOKUPS: u64 = 4;

/// Compare `cur` against a trailing baseline of earlier windows. Pure and
/// deterministic; callers decide where findings go (the cluster journals
/// them as `history.regression` events, the autonomous anomaly manager
/// surfaces them to the driver).
pub fn detect_regressions(
    baseline: &[&WorkloadSnapshot],
    cur: &WorkloadSnapshot,
) -> Vec<Regression> {
    let mut out = Vec::new();
    if baseline.is_empty() {
        return out;
    }
    let n = baseline.len() as f64;

    // Latency p95 growth (clock-valued: meaningful under a driven clock).
    let base_p95 = baseline.iter().map(|w| w.p95_us as f64).sum::<f64>() / n;
    if cur.stmts >= P95_MIN_STMTS && base_p95 > 0.0 && cur.p95_us as f64 >= 2.0 * base_p95 {
        out.push(Regression {
            kind: RegressionKind::LatencyP95,
            window: cur.window,
            shard: None,
            detail: format!("p95_us={} baseline_p95_us={:.0}", cur.p95_us, base_p95),
        });
    }

    // 2PC-per-statement rate spike.
    let rate = |w: &WorkloadSnapshot| {
        if w.stmts == 0 {
            0.0
        } else {
            w.twopc_legs as f64 / w.stmts as f64
        }
    };
    let base_rate = baseline.iter().map(|w| rate(w)).sum::<f64>() / n;
    let cur_rate = rate(cur);
    if cur.stmts > 0 && cur_rate >= 2.0 * base_rate + 0.25 {
        out.push(Regression {
            kind: RegressionKind::TwoPcRate,
            window: cur.window,
            shard: None,
            detail: format!(
                "legs_per_stmt={cur_rate:.2} baseline={base_rate:.2} legs={} stmts={}",
                cur.twopc_legs, cur.stmts
            ),
        });
    }

    // Replica-lag trend, per shard.
    for s in &cur.shards {
        let base_lag = baseline
            .iter()
            .filter_map(|w| w.shards.iter().find(|b| b.shard == s.shard))
            .map(|b| b.lag as f64)
            .sum::<f64>()
            / n;
        if s.lag >= LAG_FLOOR && s.lag as f64 >= 2.0 * base_lag {
            out.push(Regression {
                kind: RegressionKind::ReplicaLag,
                window: cur.window,
                shard: Some(s.shard),
                detail: format!("lag={} baseline_lag={:.1}", s.lag, base_lag),
            });
        }
    }

    // Plan-cache hit-rate collapse.
    let hit_rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        if total == 0 {
            None
        } else {
            Some((hits as f64 / total as f64, total))
        }
    };
    let base_hr: Vec<f64> = baseline
        .iter()
        .filter_map(|w| hit_rate(w.cache_hits, w.cache_misses).map(|(r, _)| r))
        .collect();
    if let (Some((cur_hr, lookups)), false) = (
        hit_rate(cur.cache_hits, cur.cache_misses),
        base_hr.is_empty(),
    ) {
        let base = base_hr.iter().sum::<f64>() / base_hr.len() as f64;
        if lookups >= HIT_RATE_MIN_LOOKUPS && base >= 0.5 && cur_hr < 0.5 * base {
            out.push(Regression {
                kind: RegressionKind::PlanCacheHitRate,
                window: cur.window,
                shard: None,
                detail: format!("hit_rate={cur_hr:.2} baseline={base:.2} lookups={lookups}"),
            });
        }
    }
    out
}

/// The AWR-style snapshot engine: a bounded ring of [`WorkloadSnapshot`]s
/// plus the capture cursors (previous metrics snapshot, recorder sequence,
/// cumulative cache stats) delta capture needs.
#[derive(Debug)]
pub struct SnapshotEngine {
    cfg: HistoryConfig,
    ring: VecDeque<WorkloadSnapshot>,
    next_window: u64,
    /// Clock reading the current window opened at.
    window_start_us: u64,
    /// Whether the first capture has anchored `window_start_us`.
    started: bool,
    /// Statements completed since the last capture.
    stmts_since: u64,
    last_metrics: Option<MetricsSnapshot>,
    /// Recorder drain cursor: profiles with `seq >= last_seq` belong to the
    /// current window.
    last_seq: u64,
    last_cache_hits: u64,
    last_cache_misses: u64,
    /// Windows evicted from the bounded ring.
    dropped: u64,
}

impl SnapshotEngine {
    pub fn new(cfg: HistoryConfig) -> Self {
        Self {
            cfg: HistoryConfig {
                capacity: cfg.capacity.max(1),
                ..cfg
            },
            ring: VecDeque::new(),
            next_window: 0,
            window_start_us: 0,
            started: false,
            stmts_since: 0,
            last_metrics: None,
            last_seq: 0,
            last_cache_hits: 0,
            last_cache_misses: 0,
            dropped: 0,
        }
    }

    pub fn config(&self) -> HistoryConfig {
        self.cfg
    }

    /// Bulk-count `n` completed statements with no due check. Facades in
    /// statement-stride mode keep the stride compare on a plain local
    /// counter (no clock read, no lock on the hot path) and flush it here
    /// just before cutting a window.
    pub fn note_statements(&mut self, n: u64, now_us: u64) {
        if !self.started {
            self.started = true;
            self.window_start_us = now_us;
        }
        self.stmts_since += n;
    }

    /// Count one completed statement and report whether a capture is due —
    /// the only per-statement work on the hot path (an increment and a
    /// compare).
    pub fn note_statement(&mut self, now_us: u64) -> bool {
        if !self.started {
            self.started = true;
            self.window_start_us = now_us;
        }
        self.stmts_since += 1;
        if self.cfg.every_stmts > 0 {
            self.stmts_since >= self.cfg.every_stmts
        } else {
            now_us.saturating_sub(self.window_start_us) >= self.cfg.window_us
        }
    }

    /// Capture the current window: drain the recorder since the last
    /// cursor, delta the metrics, aggregate statements and co-access, and
    /// push the snapshot. Returns regressions of the new window against the
    /// trailing baseline.
    pub fn capture(
        &mut self,
        input: CaptureInput,
        recorder: Option<&SharedRecorder>,
    ) -> Vec<Regression> {
        let start_us = if self.started {
            self.window_start_us
        } else {
            input.now_us
        };
        let mut stats: BTreeMap<String, StatementWindowStat> = BTreeMap::new();
        let mut coaccess: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut totals: Vec<u64> = Vec::new();
        let mut twopc_legs = 0u64;
        if let Some(rec) = recorder {
            let from = self.last_seq;
            self.last_seq = rec.with(|r| {
                for (seq, p) in r.iter() {
                    if seq < from {
                        continue;
                    }
                    totals.push(p.total_us);
                    twopc_legs += p.twopc_legs;
                    let e = stats
                        .entry(p.sql.clone())
                        .or_insert_with(|| StatementWindowStat {
                            stmt: p.sql.clone(),
                            scope: p.scope.clone(),
                            execs: 0,
                            total_us: 0,
                            rows_out: 0,
                            twopc_legs: 0,
                            max_misestimate: 1.0,
                        });
                    e.scope = p.scope.clone();
                    e.execs += 1;
                    e.total_us += p.total_us;
                    e.rows_out += p.rows_out;
                    e.twopc_legs += p.twopc_legs;
                    if let Some(root) = &p.root {
                        let mut shards: BTreeSet<u64> = BTreeSet::new();
                        root.visit_post(&mut |op| {
                            let r = op.misestimate_ratio();
                            if r > e.max_misestimate {
                                e.max_misestimate = r;
                            }
                            for leg in &op.shards {
                                shards.insert(leg.shard);
                            }
                        });
                        if !shards.is_empty() {
                            let key = shards
                                .iter()
                                .map(|s| s.to_string())
                                .collect::<Vec<_>>()
                                .join(",");
                            *coaccess.entry((p.sql.clone(), key)).or_insert(0) += 1;
                        }
                    }
                }
                r.recorded()
            });
        }

        // Top-K selection: K by total time plus K by misestimate, then a
        // stable text sort so renders and replays are deterministic.
        let mut keep: BTreeSet<String> = BTreeSet::new();
        let mut by_time: Vec<&StatementWindowStat> = stats.values().collect();
        by_time.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.stmt.cmp(&b.stmt)));
        for s in by_time.iter().take(self.cfg.top_k) {
            keep.insert(s.stmt.clone());
        }
        let mut by_mis: Vec<&StatementWindowStat> = stats.values().collect();
        by_mis.sort_by(|a, b| {
            b.max_misestimate
                .partial_cmp(&a.max_misestimate)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.stmt.cmp(&b.stmt))
        });
        for s in by_mis.iter().take(self.cfg.top_k) {
            keep.insert(s.stmt.clone());
        }
        let statements: Vec<StatementWindowStat> = stats
            .into_values()
            .filter(|s| keep.contains(&s.stmt))
            .collect();
        let coaccess: Vec<CoAccess> = coaccess
            .into_iter()
            .filter(|((stmt, _), _)| keep.contains(stmt))
            .map(|((stmt, shards), count)| CoAccess {
                stmt,
                shards,
                count,
            })
            .collect();

        let p95_us = if totals.is_empty() {
            0
        } else {
            totals.sort_unstable();
            totals[(totals.len() - 1) * 95 / 100]
        };

        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histogram_counts = BTreeMap::new();
        if let Some(cur) = &input.metrics {
            for (k, v) in &cur.counters {
                let prev = self
                    .last_metrics
                    .as_ref()
                    .and_then(|m| m.counters.get(k))
                    .copied()
                    .unwrap_or(0);
                if *v > prev {
                    counters.insert(k.clone(), v - prev);
                }
            }
            gauges = cur.gauges.clone();
            for (k, h) in &cur.histograms {
                let prev = self
                    .last_metrics
                    .as_ref()
                    .and_then(|m| m.histograms.get(k))
                    .map(|h| h.count)
                    .unwrap_or(0);
                if h.count > prev {
                    histogram_counts.insert(k.clone(), h.count - prev);
                }
            }
        }

        let snap = WorkloadSnapshot {
            window: self.next_window,
            start_us,
            end_us: input.now_us,
            stmts: self.stmts_since,
            twopc_legs,
            p95_us,
            cache_hits: input.cache_hits.saturating_sub(self.last_cache_hits),
            cache_misses: input.cache_misses.saturating_sub(self.last_cache_misses),
            cache_len: input.cache_len,
            plan_store_len: input.plan_store_len,
            counters,
            gauges,
            histogram_counts,
            statements,
            coaccess,
            shards: input.shards,
        };

        let regressions = {
            let base: Vec<&WorkloadSnapshot> =
                self.ring.iter().rev().take(self.cfg.baseline).collect();
            detect_regressions(&base, &snap)
        };

        self.next_window += 1;
        self.window_start_us = input.now_us;
        self.started = true;
        self.stmts_since = 0;
        self.last_metrics = input.metrics;
        self.last_cache_hits = input.cache_hits;
        self.last_cache_misses = input.cache_misses;
        while self.ring.len() >= self.cfg.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(snap);
        regressions
    }

    /// Retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &WorkloadSnapshot> {
        self.ring.iter()
    }

    pub fn window(&self, id: u64) -> Option<&WorkloadSnapshot> {
        self.ring.iter().find(|w| w.window == id)
    }

    pub fn latest(&self) -> Option<&WorkloadSnapshot> {
        self.ring.back()
    }

    pub fn len(&self) -> usize {
        self.ring.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Windows evicted from the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Deterministic JSONL dump: one `{"type":"window",...}` object per
    /// retained window, oldest first, fixed field order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in self.windows() {
            let _ = write!(
                out,
                "{{\"type\":\"window\",\"window\":{},\"start_us\":{},\"end_us\":{},\"stmts\":{},\"twopc_legs\":{},\"p95_us\":{},\"cache_hits\":{},\"cache_misses\":{},\"cache_len\":{},\"plan_store_len\":{},\"counters\":{{",
                w.window,
                w.start_us,
                w.end_us,
                w.stmts,
                w.twopc_legs,
                w.p95_us,
                w.cache_hits,
                w.cache_misses,
                w.cache_len,
                w.plan_store_len,
            );
            for (i, (k, v)) in w.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", esc(k));
            }
            out.push_str("},\"gauges\":{");
            for (i, (k, v)) in w.gauges.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", esc(k));
            }
            out.push_str("},\"histogram_counts\":{");
            for (i, (k, v)) in w.histogram_counts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", esc(k));
            }
            out.push_str("},\"statements\":[");
            for (i, s) in w.statements.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"stmt\":\"{}\",\"scope\":\"{}\",\"execs\":{},\"total_us\":{},\"rows_out\":{},\"twopc_legs\":{},\"max_misestimate\":{:.3}}}",
                    esc(&s.stmt),
                    esc(&s.scope),
                    s.execs,
                    s.total_us,
                    s.rows_out,
                    s.twopc_legs,
                    s.max_misestimate,
                );
            }
            out.push_str("],\"coaccess\":[");
            for (i, c) in w.coaccess.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"stmt\":\"{}\",\"shards\":\"{}\",\"count\":{}}}",
                    esc(&c.stmt),
                    esc(&c.shards),
                    c.count,
                );
            }
            out.push_str("],\"shards\":[");
            for (i, s) in w.shards.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"shard\":{},\"up\":{},\"epoch\":{},\"lag\":{}}}",
                    s.shard, s.up, s.epoch, s.lag,
                );
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// A two-window comparison — what got worse (or better) between `a` and a
/// later window `b`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryDiff {
    pub window_a: u64,
    pub window_b: u64,
    pub stmts: (u64, u64),
    pub twopc_legs: (u64, u64),
    pub p95_us: (u64, u64),
    pub cache_hit_rate: (f64, f64),
    /// Counter deltas that changed between the windows: (key, a, b).
    pub counters: Vec<(String, u64, u64)>,
    /// Shards whose lag/up/epoch changed: (shard, a, b).
    pub shards: Vec<(u64, Option<ShardWindowStat>, Option<ShardWindowStat>)>,
}

/// Compare two windows field by field.
pub fn diff(a: &WorkloadSnapshot, b: &WorkloadSnapshot) -> HistoryDiff {
    let hr = |w: &WorkloadSnapshot| {
        let total = w.cache_hits + w.cache_misses;
        if total == 0 {
            0.0
        } else {
            w.cache_hits as f64 / total as f64
        }
    };
    let mut keys: BTreeSet<&String> = a.counters.keys().collect();
    keys.extend(b.counters.keys());
    let counters = keys
        .into_iter()
        .filter_map(|k| {
            let va = a.counters.get(k).copied().unwrap_or(0);
            let vb = b.counters.get(k).copied().unwrap_or(0);
            (va != vb).then(|| (k.clone(), va, vb))
        })
        .collect();
    let mut shard_ids: BTreeSet<u64> = a.shards.iter().map(|s| s.shard).collect();
    shard_ids.extend(b.shards.iter().map(|s| s.shard));
    let shards = shard_ids
        .into_iter()
        .filter_map(|id| {
            let sa = a.shards.iter().find(|s| s.shard == id).cloned();
            let sb = b.shards.iter().find(|s| s.shard == id).cloned();
            (sa != sb).then_some((id, sa, sb))
        })
        .collect();
    HistoryDiff {
        window_a: a.window,
        window_b: b.window,
        stmts: (a.stmts, b.stmts),
        twopc_legs: (a.twopc_legs, b.twopc_legs),
        p95_us: (a.p95_us, b.p95_us),
        cache_hit_rate: (hr(a), hr(b)),
        counters,
        shards,
    }
}

impl HistoryDiff {
    /// Human-readable report, deterministic line order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "history diff: window {} -> {}",
            self.window_a, self.window_b
        );
        let _ = writeln!(out, "  stmts        {} -> {}", self.stmts.0, self.stmts.1);
        let _ = writeln!(
            out,
            "  twopc_legs   {} -> {}",
            self.twopc_legs.0, self.twopc_legs.1
        );
        let _ = writeln!(out, "  p95_us       {} -> {}", self.p95_us.0, self.p95_us.1);
        let _ = writeln!(
            out,
            "  cache_hit_rate {:.2} -> {:.2}",
            self.cache_hit_rate.0, self.cache_hit_rate.1
        );
        for (k, va, vb) in &self.counters {
            let _ = writeln!(out, "  counter {k}: {va} -> {vb}");
        }
        for (id, sa, sb) in &self.shards {
            let f = |s: &Option<ShardWindowStat>| match s {
                Some(s) => format!("up={} epoch={} lag={}", s.up, s.epoch, s.lag),
                None => "absent".to_string(),
            };
            let _ = writeln!(out, "  shard {id}: {} -> {}", f(sa), f(sb));
        }
        out
    }
}

/// A shareable, thread-safe snapshot-engine handle. Clones share the ring.
#[derive(Debug, Clone)]
pub struct SharedHistory(Arc<Mutex<SnapshotEngine>>);

impl SharedHistory {
    pub fn new(cfg: HistoryConfig) -> Self {
        Self(Arc::new(Mutex::new(SnapshotEngine::new(cfg))))
    }

    /// Run `f` against the engine under its lock.
    pub fn with<R>(&self, f: impl FnOnce(&mut SnapshotEngine) -> R) -> R {
        f(&mut self.0.lock().expect("history lock"))
    }

    pub fn to_jsonl(&self) -> String {
        self.with(|e| e.to_jsonl())
    }

    pub fn len(&self) -> usize {
        self.with(|e| e.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{OpProfile, RecorderConfig, ShardLeg, StatementProfile};

    fn profile(sql: &str, total_us: u64, legs: u64, shards: &[u64]) -> StatementProfile {
        StatementProfile {
            sql: sql.to_string(),
            scope: if legs > 0 { "multi" } else { "single" }.to_string(),
            start_us: 0,
            plan_us: 1,
            exec_us: total_us.saturating_sub(1),
            total_us,
            rows_out: 2,
            gtm_interactions: 0,
            twopc_legs: legs,
            root: Some(OpProfile {
                label: "Exchange".into(),
                kind: "other".into(),
                canonical: None,
                est_rows: 2.0,
                rows_out: 2,
                loops: shards.len().max(1) as u64,
                time_us: total_us,
                shards: shards
                    .iter()
                    .map(|&s| ShardLeg {
                        shard: s,
                        rows: 1,
                        time_us: 1,
                    })
                    .collect(),
                children: vec![],
            }),
        }
    }

    fn capture_basic(
        engine: &mut SnapshotEngine,
        rec: &SharedRecorder,
        now: u64,
    ) -> Vec<Regression> {
        engine.capture(
            CaptureInput {
                now_us: now,
                ..CaptureInput::default()
            },
            Some(rec),
        )
    }

    #[test]
    fn windows_delta_statements_and_coaccess() {
        let rec = SharedRecorder::new(RecorderConfig::default());
        let mut e = SnapshotEngine::new(HistoryConfig {
            every_stmts: 2,
            ..HistoryConfig::default()
        });
        rec.record(profile("select a", 10, 0, &[0]));
        assert!(!e.note_statement(0));
        rec.record(profile("select b", 50, 2, &[0, 2]));
        assert!(e.note_statement(0));
        capture_basic(&mut e, &rec, 100);
        rec.record(profile("select b", 60, 2, &[0, 2]));
        e.note_statement(100);
        e.note_statement(100);
        capture_basic(&mut e, &rec, 200);

        let w: Vec<&WorkloadSnapshot> = e.windows().collect();
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].window, 0);
        assert_eq!(w[0].stmts, 2);
        assert_eq!(w[0].twopc_legs, 2);
        assert_eq!(w[0].statements.len(), 2);
        assert_eq!(
            w[0].coaccess,
            vec![
                CoAccess {
                    stmt: "select a".into(),
                    shards: "0".into(),
                    count: 1
                },
                CoAccess {
                    stmt: "select b".into(),
                    shards: "0,2".into(),
                    count: 1
                },
            ]
        );
        // Second window only sees the profiles recorded after the first
        // capture's cursor.
        assert_eq!(w[1].statements.len(), 1);
        assert_eq!(w[1].statements[0].stmt, "select b");
        assert_eq!(w[1].statements[0].execs, 1);
    }

    #[test]
    fn metric_deltas_are_per_window() {
        let reg = crate::MetricsRegistry::new();
        let c = reg.counter("txn.commit", &[]);
        let mut e = SnapshotEngine::new(HistoryConfig::default());
        c.add(3);
        e.capture(
            CaptureInput {
                now_us: 10,
                metrics: Some(reg.snapshot()),
                ..CaptureInput::default()
            },
            None,
        );
        c.add(2);
        e.capture(
            CaptureInput {
                now_us: 20,
                metrics: Some(reg.snapshot()),
                ..CaptureInput::default()
            },
            None,
        );
        let w: Vec<&WorkloadSnapshot> = e.windows().collect();
        assert_eq!(w[0].counters.get("txn.commit"), Some(&3));
        assert_eq!(w[1].counters.get("txn.commit"), Some(&2));
    }

    #[test]
    fn ring_is_bounded_with_monotonic_window_ids() {
        let mut e = SnapshotEngine::new(HistoryConfig {
            capacity: 2,
            ..HistoryConfig::default()
        });
        for i in 0..5 {
            e.capture(
                CaptureInput {
                    now_us: i * 10,
                    ..CaptureInput::default()
                },
                None,
            );
        }
        assert_eq!(e.len(), 2);
        assert_eq!(e.dropped(), 3);
        let ids: Vec<u64> = e.windows().map(|w| w.window).collect();
        assert_eq!(ids, vec![3, 4]);
    }

    #[test]
    fn jsonl_is_deterministic_and_valid() {
        let build = || {
            let rec = SharedRecorder::new(RecorderConfig::default());
            rec.record(profile("select \"x\"\n", 7, 2, &[1, 3]));
            let mut e = SnapshotEngine::new(HistoryConfig::default());
            e.note_statement(5);
            e.capture(
                CaptureInput {
                    now_us: 40,
                    shards: vec![ShardWindowStat {
                        shard: 0,
                        up: true,
                        epoch: 0,
                        lag: 2,
                    }],
                    cache_hits: 3,
                    cache_misses: 1,
                    cache_len: 2,
                    plan_store_len: 7,
                    ..CaptureInput::default()
                },
                Some(&rec),
            );
            e.to_jsonl()
        };
        let a = build();
        assert_eq!(a, build(), "same input, same bytes");
        for line in a.lines() {
            let v: serde_json::Value = serde_json::from_str(line).expect("valid JSON");
            assert_eq!(v["type"].as_str(), Some("window"));
            assert_eq!(v["coaccess"][0]["shards"].as_str(), Some("1,3"));
        }
    }

    #[test]
    fn partial_eq_excludes_clock_valued_fields() {
        let rec = SharedRecorder::new(RecorderConfig::default());
        rec.record(profile("q", 10, 0, &[0]));
        let mut e1 = SnapshotEngine::new(HistoryConfig::default());
        e1.note_statement(0);
        capture_basic(&mut e1, &rec, 100);

        let rec2 = SharedRecorder::new(RecorderConfig::default());
        rec2.record(profile("q", 9_999, 0, &[0]));
        let mut e2 = SnapshotEngine::new(HistoryConfig::default());
        e2.note_statement(77);
        capture_basic(&mut e2, &rec2, 5_000_000);

        assert_eq!(e1.latest().unwrap(), e2.latest().unwrap());
    }

    #[test]
    fn detector_flags_twopc_spike_and_lag_trend() {
        let mk = |window, stmts, legs, lag| WorkloadSnapshot {
            window,
            start_us: 0,
            end_us: 0,
            stmts,
            twopc_legs: legs,
            p95_us: 0,
            cache_hits: 0,
            cache_misses: 0,
            cache_len: 0,
            plan_store_len: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histogram_counts: BTreeMap::new(),
            statements: vec![],
            coaccess: vec![],
            shards: vec![ShardWindowStat {
                shard: 1,
                up: true,
                epoch: 0,
                lag,
            }],
        };
        let base = [mk(0, 10, 1, 0), mk(1, 10, 1, 1)];
        let refs: Vec<&WorkloadSnapshot> = base.iter().collect();
        let cur = mk(2, 10, 8, 12);
        let regs = detect_regressions(&refs, &cur);
        let kinds: Vec<RegressionKind> = regs.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RegressionKind::TwoPcRate), "{regs:?}");
        assert!(kinds.contains(&RegressionKind::ReplicaLag), "{regs:?}");
        assert_eq!(
            regs.iter()
                .find(|r| r.kind == RegressionKind::ReplicaLag)
                .unwrap()
                .shard,
            Some(1)
        );
        // A quiet window against the same baseline is clean.
        assert!(detect_regressions(&refs, &mk(3, 10, 1, 1)).is_empty());
    }

    #[test]
    fn detector_flags_p95_growth_and_hit_rate_collapse() {
        let mk = |window, p95, hits, misses| WorkloadSnapshot {
            window,
            start_us: 0,
            end_us: 0,
            stmts: 10,
            twopc_legs: 0,
            p95_us: p95,
            cache_hits: hits,
            cache_misses: misses,
            cache_len: 0,
            plan_store_len: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histogram_counts: BTreeMap::new(),
            statements: vec![],
            coaccess: vec![],
            shards: vec![],
        };
        let base = [mk(0, 100, 9, 1), mk(1, 110, 8, 2)];
        let refs: Vec<&WorkloadSnapshot> = base.iter().collect();
        let regs = detect_regressions(&refs, &mk(2, 400, 1, 9));
        let kinds: Vec<RegressionKind> = regs.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&RegressionKind::LatencyP95), "{regs:?}");
        assert!(
            kinds.contains(&RegressionKind::PlanCacheHitRate),
            "{regs:?}"
        );
    }

    #[test]
    fn diff_reports_what_changed() {
        let mut a = WorkloadSnapshot {
            window: 3,
            start_us: 0,
            end_us: 10,
            stmts: 5,
            twopc_legs: 0,
            p95_us: 50,
            cache_hits: 4,
            cache_misses: 1,
            cache_len: 2,
            plan_store_len: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histogram_counts: BTreeMap::new(),
            statements: vec![],
            coaccess: vec![],
            shards: vec![ShardWindowStat {
                shard: 0,
                up: true,
                epoch: 0,
                lag: 0,
            }],
        };
        a.counters.insert("txn.commit".into(), 5);
        let mut b = a.clone();
        b.window = 4;
        b.twopc_legs = 9;
        b.counters.insert("txn.commit".into(), 2);
        b.shards[0] = ShardWindowStat {
            shard: 0,
            up: false,
            epoch: 1,
            lag: 12,
        };
        let d = diff(&a, &b);
        assert_eq!(d.twopc_legs, (0, 9));
        assert_eq!(d.counters, vec![("txn.commit".to_string(), 5, 2)]);
        assert_eq!(d.shards.len(), 1);
        let r = d.render();
        assert!(r.contains("window 3 -> 4"));
        assert!(r.contains("twopc_legs   0 -> 9"));
        assert!(r.contains("shard 0"));
    }
}
