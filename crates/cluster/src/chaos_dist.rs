//! The chaos-dist sweep: distributed SQL under DN crash/restart chaos.
//!
//! [`run_chaos_dist`] drives a seeded statement corpus (the
//! dist_equivalence shape: shard-key-pruned SELECTs, scattered aggregates,
//! cross-shard joins, plus a seeded DML mix) through a replicated
//! [`DistDb`] **twice**:
//!
//! 1. A **fault-free twin** with an empty [`FaultScript`] installed. Its
//!    per-statement results become the shadow ledger, and the ticks it
//!    consumes calibrate where scripted faults land in tick space.
//! 2. The **faulted run**: the same statements under the same seed, with
//!    the shared [`FaultPlanBuilder`]'s DN crash/restart schedule mapped
//!    proportionally from its time horizon into the twin's tick range, so
//!    crashes land *mid-statement*. Statements go through
//!    `execute_opts(sql, ExecOptions::idempotent(id))`; a seeded ~10% of
//!    write statements are submitted twice (same statement id) to exercise
//!    DN-side dedup — in both runs, so the ledger stays comparable.
//!
//! The audit asserts zero lost and zero double-applied rows: every
//! statement's result (rows as a multiset, or the affected-count) must
//! match the twin's, and after healing the cluster the full table contents
//! must match row for row, and every primary and follower must equal a
//! replay of its shard's log from record 0. [`ChaosDistReport`] compares
//! equal across same-seed runs (wall-clock timing fields are excluded from
//! `PartialEq`), which is what the replay-determinism test pins.

use crate::chaos::FaultPlanBuilder;
use crate::dist::{DistDb, FaultOp, FaultScript};
use crate::engine::{Cluster, ClusterConfig};
use crate::retry::RetryPolicy;
use hdm_common::{Result, Row, SplitMix64};
use hdm_simnet::CrashTarget;
use hdm_sql::prepared::{ExecOptions, QueryApi};
use hdm_telemetry::{
    HistoryConfig, RecorderConfig, SharedHistory, SharedRecorder, Telemetry, WorkloadSnapshot,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Configuration for one chaos-dist run.
#[derive(Debug, Clone)]
pub struct ChaosDistConfig {
    pub seed: u64,
    pub shards: usize,
    /// Log-shipped followers per shard. With 0 the faulted run degrades to
    /// the legacy fail-fast `Unavailable` behaviour (statements error once
    /// the retry policy exhausts).
    pub replicas: usize,
    /// Seeded `orders` rows loaded fault-free before the corpus runs.
    pub orders: usize,
    /// Seeded `custs` rows.
    pub custs: usize,
    /// Corpus statements in the faulted phase (SELECT/DML mix).
    pub statements: usize,
    /// Fraction of write statements submitted twice under one statement id.
    pub duplicate_fraction: f64,
    pub telemetry: Option<Telemetry>,
    /// Capture AWR-style workload-history windows on both runs. The chaos
    /// shape uses the statement-count stride (clock-free cadence) and a
    /// top_k large enough to keep every statement, so the wall-time top-K
    /// ordering never picks winners and same-seed replays agree. History is
    /// observation-only: the deterministic report fields must compare equal
    /// with it on or off — pinned by the perturbation test.
    pub history: bool,
}

impl ChaosDistConfig {
    /// The standard sweep shape: 4 shards, 1 follower each, dist_equivalence
    /// data sizes, 60 statements, 10% duplicate submissions.
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            shards: 4,
            replicas: 1,
            orders: 400,
            custs: 40,
            statements: 60,
            duplicate_fraction: 0.1,
            telemetry: None,
            history: false,
        }
    }
}

/// What one chaos-dist run did and found. Two same-seed runs compare equal
/// (`PartialEq` skips the wall-clock `*_wall_us` fields) — the replay
/// determinism contract.
#[derive(Debug, Clone, Default)]
pub struct ChaosDistReport {
    pub seed: u64,
    /// Corpus statements executed (duplicate submissions not double-counted).
    pub statements: u64,
    /// Write statements submitted a second time under the same id.
    pub duplicates: u64,
    /// DN crash / restart faults actually applied from the script.
    pub crashes: u64,
    pub restarts: u64,
    /// Followers promoted to primary (engine counter).
    pub promotions: u64,
    /// Crashed ex-primaries rejoined as followers at their crash CSN.
    pub rejoins: u64,
    /// CN-driven failovers (inline at a fragment + between retry attempts).
    pub failovers: u64,
    /// Statement attempts retried after a retryable error.
    pub stmt_retries: u64,
    /// Statements answered from the DN idempotence table without
    /// re-applying writes (duplicates + post-crash retries of committed
    /// statements).
    pub dedup_hits: u64,
    /// Simulated backoff served across all retries.
    pub backoff_us: u64,
    /// Statements whose outcome diverged from the fault-free twin
    /// (client-visible errors count as divergence).
    pub mismatches: u64,
    /// Rows differing in the final table audit after healing (lost or
    /// double-applied rows — the headline invariant is 0).
    pub audit_diffs: u64,
    /// Execution ticks the faulted run consumed.
    pub ticks: u64,
    /// Global snapshots still counted live after both runs healed: a
    /// statement path that never released its transaction's snapshot
    /// (0 in a correct run; a leak pins the LCO horizon).
    pub leaked_snapshots: u64,
    /// Transactions still open after both runs healed: gxids active at
    /// the GTM plus DN xids in progress or prepared. A statement path that
    /// dropped a transaction without finishing or aborting it leaves one
    /// (0 in a correct run; a leaked gxid pins `gtm.xmin`).
    pub leaked_txns: u64,
    /// After healing, every way a primary or follower differs from a
    /// replay of its shard's log from record 0 (empty in a correct run;
    /// always empty without replicas, as there is no log).
    pub replica_divergences: Vec<String>,
    // ---- wall-clock latency decomposition (excluded from PartialEq) ----
    /// Wall time of the fault-free twin phase.
    pub twin_wall_us: u64,
    /// Wall time of the faulted phase.
    pub fault_wall_us: u64,
    /// Wall time of statements whose execution drove >= 1 promotion — the
    /// measured failover cost, isolatable from plain statement latency.
    pub failover_wall_us: u64,
    /// Statements that drove >= 1 promotion.
    pub failover_stmts: u64,
    /// Workload-history windows the faulted run captured (empty unless
    /// `history` is on). Compared via [`WorkloadSnapshot`]'s `PartialEq`,
    /// which excludes the clock-valued fields — so same-seed replays must
    /// agree on every window's statements, co-access sets, 2PC legs and
    /// shard states.
    pub history_windows: Vec<WorkloadSnapshot>,
}

impl PartialEq for ChaosDistReport {
    fn eq(&self, other: &Self) -> bool {
        self.seed == other.seed
            && self.statements == other.statements
            && self.duplicates == other.duplicates
            && self.crashes == other.crashes
            && self.restarts == other.restarts
            && self.promotions == other.promotions
            && self.rejoins == other.rejoins
            && self.failovers == other.failovers
            && self.stmt_retries == other.stmt_retries
            && self.dedup_hits == other.dedup_hits
            && self.backoff_us == other.backoff_us
            && self.mismatches == other.mismatches
            && self.audit_diffs == other.audit_diffs
            && self.ticks == other.ticks
            && self.leaked_snapshots == other.leaked_snapshots
            && self.leaked_txns == other.leaked_txns
            && self.replica_divergences == other.replica_divergences
            && self.history_windows == other.history_windows
    }
}

/// One scripted corpus statement.
#[derive(Debug, Clone)]
struct Stmt {
    sql: String,
    id: u64,
    /// Submitted twice under the same id.
    duplicate: bool,
}

/// One statement's outcome, comparable across runs. Rows compare as
/// multisets (gather order differs between plans).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Rows(Vec<String>),
    Affected(u64),
    Error(&'static str),
}

fn sorted(rows: Vec<Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// The seeded statement script: dist_equivalence-shaped SELECTs interleaved
/// with single- and multi-shard DML.
fn build_script(cfg: &ChaosDistConfig) -> Vec<Stmt> {
    let mut rng = SplitMix64::new(cfg.seed ^ 0xC0A5_D157);
    let custs = cfg.custs as u64;
    let mut out = Vec::with_capacity(cfg.statements);
    for i in 0..cfg.statements {
        let id = i as u64 + 1;
        let (sql, write) = match rng.next_below(10) {
            0 | 1 => {
                let k = rng.next_below(custs);
                (format!("select * from orders where cust = {k}"), false)
            }
            2 => {
                let k = rng.next_below(custs);
                (
                    format!("select count(*), sum(amount) from orders where cust = {k}"),
                    false,
                )
            }
            3 => {
                let t = rng.range_i64(100, 900);
                (
                    format!(
                        "select region, count(*) from orders where amount > {t} group by region"
                    ),
                    false,
                )
            }
            4 => (
                "select o.amount, c.tier from orders o, custs c \
                 where o.cust = c.cust and o.amount > 500"
                    .to_string(),
                false,
            ),
            5 => {
                let a = rng.next_below(custs);
                let b = rng.next_below(custs);
                (
                    format!("select * from orders where cust = {a} or cust = {b}"),
                    false,
                )
            }
            6 | 7 => {
                // Small insert; spans 1–3 shards.
                let n = 1 + rng.next_below(3);
                let vals: Vec<String> = (0..n)
                    .map(|_| {
                        format!(
                            "({}, {}, {})",
                            rng.next_below(custs),
                            rng.next_below(8),
                            rng.range_i64(1, 1_000)
                        )
                    })
                    .collect();
                (
                    format!("insert into orders values {}", vals.join(",")),
                    true,
                )
            }
            8 => {
                let k = rng.next_below(custs);
                let d = rng.range_i64(1, 50);
                (
                    format!("update orders set amount = amount + {d} where cust = {k}"),
                    true,
                )
            }
            _ => {
                let t = rng.range_i64(900, 990);
                (format!("delete from orders where amount > {t}"), true)
            }
        };
        let duplicate = write && rng.chance(cfg.duplicate_fraction);
        out.push(Stmt { sql, id, duplicate });
    }
    out
}

/// Build a replicated DistDb, load the seeded data fault-free, and install
/// the retry policy + fault script.
fn build_db(cfg: &ChaosDistConfig, script: Rc<RefCell<FaultScript>>) -> Result<DistDb> {
    let mut cc = ClusterConfig::gtm_lite(cfg.shards);
    cc.replicas = cfg.replicas;
    let mut db = DistDb::new(Cluster::new(cc))?;
    if let Some(tel) = &cfg.telemetry {
        db.attach_telemetry(tel);
    }
    if cfg.history {
        // A recorder big enough that nothing is evicted between window
        // captures, and a top_k that keeps every statement: both keep the
        // wall-clock out of window *content* so replays compare equal.
        db.attach_recorder(SharedRecorder::new(RecorderConfig {
            capacity: 256,
            ..RecorderConfig::default()
        }));
        db.attach_history(SharedHistory::new(HistoryConfig {
            every_stmts: 16,
            top_k: 1024,
            ..HistoryConfig::default()
        }));
    }
    db.execute("create table orders (cust int, region int, amount int)")?;
    db.execute("create table custs (cust int, tier int)")?;
    let mut rng = SplitMix64::new(cfg.seed ^ 0x10AD);
    let mut batch: Vec<String> = Vec::new();
    for _ in 0..cfg.orders {
        batch.push(format!(
            "({}, {}, {})",
            rng.next_below(cfg.custs as u64),
            rng.next_below(8),
            rng.range_i64(1, 1_000)
        ));
        if batch.len() == 200 {
            db.execute(&format!("insert into orders values {}", batch.join(",")))?;
            batch.clear();
        }
    }
    if !batch.is_empty() {
        db.execute(&format!("insert into orders values {}", batch.join(",")))?;
    }
    let custs: Vec<String> = (0..cfg.custs)
        .map(|i| format!("({i}, {})", i % 3))
        .collect();
    db.execute(&format!("insert into custs values {}", custs.join(",")))?;
    db.execute("analyze")?;
    // Catch followers fully up before the corpus phase: the fault window
    // stresses steady-state lag, not the bulk load.
    db.cluster_mut().pump_replication(0)?;
    db.set_retry_policy(Some(RetryPolicy::chaos(cfg.seed)));
    db.set_fault_script(Some(script));
    Ok(db)
}

/// Run the scripted corpus, recording one [`Outcome`] per statement.
/// Duplicate-marked writes are submitted a second time under the same id;
/// the second submission must answer with the first's rowcount.
fn run_script(
    db: &mut DistDb,
    script: &[Stmt],
    report: &mut ChaosDistReport,
    timed: bool,
) -> Vec<Outcome> {
    let mut outcomes = Vec::with_capacity(script.len());
    for s in script {
        let promos_before = db.cluster().counters().promotions;
        let start = timed.then(Instant::now);
        let mut res = db.execute_opts(&s.sql, ExecOptions::idempotent(s.id));
        if s.duplicate {
            let dup = db.execute_opts(&s.sql, ExecOptions::idempotent(s.id));
            // The duplicate's answer must agree with the original's; keep
            // whichever succeeded so a crash between the two submissions
            // still records the committed outcome.
            if res.is_err() {
                res = dup;
            }
        }
        if let Some(t) = start {
            let us = t.elapsed().as_micros() as u64;
            if db.cluster().counters().promotions > promos_before {
                report.failover_wall_us += us;
                report.failover_stmts += 1;
            }
        }
        outcomes.push(match res {
            Ok(r) if r.columns.is_empty() => Outcome::Affected(r.affected),
            Ok(r) => Outcome::Rows(sorted(r.rows)),
            Err(e) => Outcome::Error(e.class()),
        });
    }
    outcomes
}

/// Map the crash schedule from its time horizon into the twin's tick range:
/// an event at time `t` of horizon `h` fires at tick `t/h * ticks`.
fn schedule_in_ticks(
    builder: &FaultPlanBuilder,
    shards: usize,
    ticks: u64,
) -> (BTreeMap<u64, Vec<FaultOp>>, u64, u64) {
    let mut plan = builder.plan();
    let events = builder.schedule(&mut plan, shards);
    let horizon = builder.horizon.micros().max(1);
    let to_tick = |us: u64| (us.saturating_mul(ticks) / horizon).min(ticks.saturating_sub(1));
    let mut schedule: BTreeMap<u64, Vec<FaultOp>> = BTreeMap::new();
    let (mut crashes, mut restarts) = (0u64, 0u64);
    for ev in events {
        let CrashTarget::DataNode(n) = ev.target else {
            continue; // the dn-only fault mix schedules no GTM loss
        };
        let at = to_tick(ev.at.micros());
        // A restart strictly after its crash, even when both round to the
        // same tick.
        let back = to_tick(ev.restart_at.micros()).max(at + 1);
        schedule
            .entry(at)
            .or_default()
            .push(FaultOp::Crash(n as u64));
        schedule
            .entry(back)
            .or_default()
            .push(FaultOp::Restart(n as u64));
        crashes += 1;
        restarts += 1;
    }
    (schedule, crashes, restarts)
}

/// Run the chaos-dist sweep for one seed. Returns the audit report; the
/// caller asserts `mismatches == 0 && audit_diffs == 0` and no
/// `replica_divergences` (with replicas) and `report == same-seed rerun`
/// for replay determinism.
pub fn run_chaos_dist(cfg: &ChaosDistConfig) -> Result<ChaosDistReport> {
    let stmts = build_script(cfg);
    let mut report = ChaosDistReport {
        seed: cfg.seed,
        statements: stmts.len() as u64,
        duplicates: stmts.iter().filter(|s| s.duplicate).count() as u64,
        ..ChaosDistReport::default()
    };

    // Phase 1: the fault-free twin. Empty script counts ticks; outcomes
    // become the shadow ledger.
    let twin_script = Rc::new(RefCell::new(FaultScript::default()));
    let mut twin = build_db(cfg, twin_script.clone())?;
    let twin_start = Instant::now();
    let expected = run_script(&mut twin, &stmts, &mut report, false);
    report.twin_wall_us = twin_start.elapsed().as_micros() as u64;
    let ticks = twin_script.borrow().tick.max(1);
    let twin_tables = audit_tables(&mut twin)?;

    // Phase 2: the faulted run under the shared fault-plan builder's DN
    // crash schedule, mapped into tick space.
    let builder = FaultPlanBuilder::dn_crashes_only(cfg.seed);
    let (schedule, crashes, restarts) = schedule_in_ticks(&builder, cfg.shards, ticks);
    report.crashes = crashes;
    report.restarts = restarts;
    let fault_script = Rc::new(RefCell::new(FaultScript { schedule, tick: 0 }));
    let mut db = build_db(cfg, fault_script.clone())?;
    let fault_start = Instant::now();
    let actual = run_script(&mut db, &stmts, &mut report, true);
    report.fault_wall_us = fault_start.elapsed().as_micros() as u64;
    report.ticks = fault_script.borrow().tick;

    // Per-statement ledger audit.
    for (e, a) in expected.iter().zip(&actual) {
        if e != a {
            report.mismatches += 1;
        }
    }

    // Heal: promote or restart whatever the script left down, then compare
    // final table contents row for row (lost or double-applied rows shows
    // up here even if every per-statement answer matched).
    for shard in db.cluster().down_shards() {
        if !db.cluster_mut().try_failover(shard)? {
            db.cluster_mut().restart_node(shard);
        }
    }
    db.cluster_mut().pump_replication(0)?;
    db.set_fault_script(None);
    report.replica_divergences = db.cluster().replica_divergences();
    let final_tables = audit_tables(&mut db)?;
    for (t, f) in twin_tables.iter().zip(&final_tables) {
        if t != f {
            report.audit_diffs += t.len().abs_diff(f.len()).max(1) as u64;
        }
    }

    report.leaked_snapshots =
        (twin.cluster().live_snapshot_count() + db.cluster().live_snapshot_count()) as u64;
    report.leaked_txns = open_txns(twin.cluster()) + open_txns(db.cluster());
    let c = db.cluster().counters();
    report.promotions = c.promotions;
    report.rejoins = c.rejoins;
    let d = db.counters();
    report.failovers = d.failovers;
    report.stmt_retries = d.stmt_retries;
    report.dedup_hits = d.dedup_hits;
    report.backoff_us = d.backoff_us;

    // Flush the partial window so the trailing statements (including the
    // heal-phase audit SELECTs) land in the report too.
    db.capture_history_now();
    if let Some(h) = db.history() {
        report.history_windows = h.with(|e| e.windows().cloned().collect());
    }
    Ok(report)
}

/// Gxids active at `c`'s GTM plus xids in progress or prepared on its
/// data nodes.
fn open_txns(c: &Cluster) -> u64 {
    let dn: usize = (c.shard_map().all())
        .map(|s| c.node(s).mgr().active_count())
        .sum();
    (c.gtm().active_count() + dn) as u64
}

/// Full contents of both corpus tables as sorted multisets.
fn audit_tables(db: &mut DistDb) -> Result<Vec<Vec<String>>> {
    Ok(vec![
        sorted(db.execute("select * from orders")?.rows),
        sorted(db.execute("select * from custs")?.rows),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_twin_matches_itself() {
        // replicas=0 and no crashes: the sweep machinery itself must be
        // invariant (every statement matches the twin trivially).
        let mut cfg = ChaosDistConfig::standard(7);
        cfg.replicas = 0;
        cfg.statements = 12;
        cfg.orders = 80;
        // With no replicas the faulted run degrades to fail-fast errors on
        // down shards; mismatches count them. Crashes still fire.
        let r = run_chaos_dist(&cfg).unwrap();
        assert_eq!(r.statements, 12);
        assert!(r.crashes > 0, "dn-only plan must schedule crashes");
    }

    #[test]
    fn history_is_a_pure_observer() {
        // Perturbation test: the snapshot engine counts statements and cuts
        // windows but touches no control flow, so a faulted sweep replays
        // identically with it enabled. The captured windows themselves are
        // cleared before comparing — they only exist on the history-on run.
        let mut on = ChaosDistConfig::standard(0xBEEF);
        on.statements = 24;
        on.orders = 120;
        let off = on.clone();
        on.history = true;
        let mut r_on = run_chaos_dist(&on).unwrap();
        let r_off = run_chaos_dist(&off).unwrap();
        assert!(
            !r_on.history_windows.is_empty(),
            "history-on run captured nothing"
        );
        r_on.history_windows.clear();
        assert_eq!(r_on, r_off, "history capture perturbed the sweep");
    }

    #[test]
    fn history_windows_replay_bit_identical() {
        let mut cfg = ChaosDistConfig::standard(0xA11CE);
        cfg.statements = 24;
        cfg.orders = 120;
        cfg.history = true;
        let r1 = run_chaos_dist(&cfg).unwrap();
        let r2 = run_chaos_dist(&cfg).unwrap();
        assert!(!r1.history_windows.is_empty());
        assert!(r1.history_windows.iter().any(|w| !w.statements.is_empty()));
        assert_eq!(r1, r2, "same-seed replay diverged with history on");
    }

    #[test]
    fn replicated_sweep_loses_nothing() {
        let r = run_chaos_dist(&ChaosDistConfig::standard(0xD157_0E55)).unwrap();
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.audit_diffs, 0);
        assert_eq!(r.leaked_snapshots, 0);
        assert_eq!(r.leaked_txns, 0);
        assert_eq!(r.replica_divergences, Vec::<String>::new());
    }
}
