//! The chaos harness: a bank-transfer workload under deterministic faults.
//!
//! Clients move money between accounts through the functional cluster while
//! a seeded [`FaultPlan`] injects message drops, duplicates and delays and
//! crashes data nodes and the GTM on a precomputed schedule. Every client
//! request is one "message": its fate is sampled at the delivery point, a
//! dropped request is retransmitted after capped-exponential backoff, and a
//! duplicated finish is actually delivered twice (exercising receiver-side
//! idempotence). The whole run executes on the discrete-event kernel, so a
//! seed replays bit-for-bit — [`ChaosReport`] is `PartialEq` precisely so
//! tests can assert two runs of one seed are identical.
//!
//! Safety is checked against a shadow ledger: a transfer is applied to the
//! ledger only when the client *confirms* the commit (all legs finished and
//! the GTM's final verdict is commit — the coordinator's linearization
//! point). At quiescence the cluster's visible state must equal the ledger
//! exactly: no committed write lost, no aborted write leaked, total balance
//! conserved, and every lock, undo entry and pending-commit marker released.

use crate::engine::{
    Cluster, ClusterConfig, ClusterCounters, Decided, Prepared, Txn, TxnOptions, Undecided,
};
use crate::retry::RetryPolicy;
use crate::shard::make_key;
use hdm_common::{Result, ShardId, SimDuration, SimInstant, SplitMix64};
use hdm_simnet::{CrashEvent, FaultConfig, FaultPlan, MsgFate, Sim};
use hdm_telemetry::{MetricsSnapshot, SpanId, Telemetry};
use std::collections::BTreeMap;

/// Fixed service gap between a transaction's protocol steps.
const STEP_GAP: SimDuration = SimDuration::from_micros(20);

/// The one construction site for fault plans and crash schedules, shared by
/// the bank-transfer harness ([`ChaosConfig`]) and the chaos-dist sweep
/// (`chaos_dist`) — so the crash-window constants (fault mix, horizon) are
/// never duplicated between harnesses.
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    pub seed: u64,
    pub faults: FaultConfig,
    /// Horizon the crash schedule is spread over.
    pub horizon: SimDuration,
}

impl FaultPlanBuilder {
    /// The standard chaotic window: every fault class on, 8ms horizon.
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            faults: FaultConfig::chaotic(),
            horizon: SimDuration::from_millis(8),
        }
    }

    /// Same window, data-node crash/restart cycles only — the chaos-dist
    /// sweep's diet (its statement transport is reliable; node loss is the
    /// fault under test).
    pub fn dn_crashes_only(seed: u64) -> Self {
        Self {
            faults: FaultConfig::dn_crashes_only(),
            ..Self::standard(seed)
        }
    }

    /// The seeded fault plan. Attach telemetry *before* drawing schedules —
    /// injection counters fire at sampling points.
    pub fn plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed, self.faults.clone())
    }

    /// The crash/restart schedule for `nodes` data nodes over the window.
    pub fn schedule(&self, plan: &mut FaultPlan, nodes: usize) -> Vec<CrashEvent> {
        plan.crash_schedule(nodes, self.horizon)
    }
}

/// Chaos run parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    pub seed: u64,
    pub shards: usize,
    /// Accounts per prefix group (one group per shard index).
    pub accounts_per_group: u32,
    pub initial_balance: i64,
    pub clients: usize,
    pub transfers_per_client: usize,
    /// Fraction of transfers that cross prefix groups (multi-shard path).
    pub cross_fraction: f64,
    pub faults: FaultConfig,
    /// Horizon the crash schedule is spread over.
    pub fault_horizon: SimDuration,
    /// Attach a virtual-clock [`Telemetry`] bundle: one `transfer` root span
    /// per transfer (fields `cid`, `kind`, retry/abort events) plus the
    /// engine, GTM, fault-plan and retry-policy counters. The attach happens
    /// *after* the fault-free seeding preamble so metrics cover only the
    /// chaotic phase. `None` = zero-overhead run.
    pub telemetry: Option<Telemetry>,
}

impl ChaosConfig {
    /// The standard chaotic run: every fault class enabled, crash window
    /// from the shared [`FaultPlanBuilder`].
    pub fn standard(seed: u64) -> Self {
        let plan = FaultPlanBuilder::standard(seed);
        Self {
            seed,
            shards: 4,
            accounts_per_group: 8,
            initial_balance: 1_000,
            clients: 6,
            transfers_per_client: 30,
            cross_fraction: 0.6,
            faults: plan.faults,
            fault_horizon: plan.horizon,
            telemetry: None,
        }
    }

    /// The fault-plan builder this configuration implies (tests may have
    /// overridden `faults`/`fault_horizon` after construction).
    pub fn fault_plan(&self) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed: self.seed,
            faults: self.faults.clone(),
            horizon: self.fault_horizon,
        }
    }

    /// Same workload, no faults — the control run.
    pub fn fault_free(seed: u64) -> Self {
        Self {
            faults: FaultConfig::none(),
            ..Self::standard(seed)
        }
    }

    fn total_accounts(&self) -> i64 {
        self.shards as i64 * self.accounts_per_group as i64
    }
}

/// Everything a chaos run observed. `PartialEq` so replay tests can assert
/// bit-identical traces (event counts, protocol counters, fault stats).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    pub committed: u64,
    /// Transaction attempts that ended aborted and were retried.
    pub txn_aborts: u64,
    /// Clients that exhausted their retry budget (livelock detector; 0 in
    /// any healthy run).
    pub gave_up: u64,
    /// Events the simulator executed — the replay-determinism fingerprint.
    pub events: u64,
    pub counters: ClusterCounters,
    /// (messages, dropped, duplicated, delayed) at the fault plan.
    pub message_stats: (u64, u64, u64, u64),
    pub final_total: i64,
    /// Safety violations detected at quiescence (empty in a correct run).
    pub violations: Vec<String>,
    /// Point-in-time metrics at quiescence (telemetry runs only). Part of
    /// the `PartialEq` fingerprint: same seed ⇒ identical counters.
    pub metrics: Option<MetricsSnapshot>,
}

/// Where a client currently is in its transaction's protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Begin,
    Exec,
    CommitSingle,
    Prepare,
    Decide,
    Finish,
    Confirm,
}

/// The transfer a client is currently pushing through.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    from: i64,
    to: i64,
    amount: i64,
    /// `Some(prefix)` when both accounts share a prefix group (single-shard
    /// fast path); `None` for cross-group transfers.
    single_prefix: Option<u32>,
}

/// A client's transaction, by how far its commit has got.
enum Handle {
    Open(Txn),
    Prepared(Prepared),
    Decided(Decided),
}

struct ClientState {
    remaining: usize,
    attempt: u32,
    policy: RetryPolicy,
    rng: SplitMix64,
    transfer: Transfer,
    txn: Option<Handle>,
    /// Open `transfer` root span (telemetry runs only).
    span: Option<SpanId>,
}

struct World {
    cfg: ChaosConfig,
    cluster: Cluster,
    plan: FaultPlan,
    clients: Vec<ClientState>,
    /// Confirmed-commit shadow state: key -> balance.
    ledger: BTreeMap<i64, i64>,
    committed: u64,
    txn_aborts: u64,
    gave_up: u64,
    violations: Vec<String>,
    tel: Option<Telemetry>,
}

type S = Sim<World>;

fn exec_transfer(cluster: &mut Cluster, txn: &mut Txn, t: Transfer) -> Result<()> {
    let from_val = cluster.get(txn, t.from)?.unwrap_or(0);
    let to_val = cluster.get(txn, t.to)?.unwrap_or(0);
    cluster.put(txn, t.from, from_val - t.amount)?;
    cluster.put(txn, t.to, to_val + t.amount)?;
    Ok(())
}

impl World {
    fn pick_transfer(&mut self, cid: usize) -> Transfer {
        let groups = self.cfg.shards as u64;
        let per = self.cfg.accounts_per_group as u64;
        let cross_fraction = self.cfg.cross_fraction;
        let rng = &mut self.clients[cid].rng;
        let cross = rng.chance(cross_fraction);
        let p1 = rng.next_below(groups) as u32;
        let p2 = if cross && groups > 1 {
            let mut p = rng.next_below(groups) as u32;
            if p == p1 {
                p = (p + 1) % groups as u32;
            }
            p
        } else {
            p1
        };
        let from = make_key(p1, rng.next_below(per) as u32);
        let to = loop {
            let k = make_key(p2, rng.next_below(per) as u32);
            if k != from {
                break k;
            }
        };
        Transfer {
            from,
            to,
            amount: 1 + rng.next_below(10) as i64,
            single_prefix: (p1 == p2).then_some(p1),
        }
    }

    /// Note `name` on client `cid`'s open transfer span. No-op without
    /// telemetry.
    fn trace_event(&self, cid: usize, now: SimInstant, name: &str, fields: &[(&str, &str)]) {
        if let (Some(tel), Some(span)) = (&self.tel, self.clients[cid].span) {
            tel.set_time_us(now.micros());
            tel.tracer.event(span, name, fields);
        }
    }
}

/// A client picks its next transfer and sends the first request.
fn txn_start(sim: &mut S, w: &mut World, cid: usize) {
    if w.clients[cid].remaining == 0 {
        return;
    }
    let t = w.pick_transfer(cid);
    let span = w.tel.as_ref().map(|tel| {
        tel.set_time_us(sim.now().micros());
        let span = tel.tracer.begin("transfer");
        tel.tracer.field(span, "cid", cid);
        tel.tracer.field(
            span,
            "kind",
            if t.single_prefix.is_some() {
                "single"
            } else {
                "cross"
            },
        );
        span
    });
    let c = &mut w.clients[cid];
    c.transfer = t;
    c.attempt = 0;
    c.txn = None;
    c.span = span;
    sim.schedule_in(STEP_GAP, move |sim, w| deliver(sim, w, cid, Step::Begin));
}

/// A request hits the wire: sample its fate, then (maybe) execute it.
fn deliver(sim: &mut S, w: &mut World, cid: usize, step: Step) {
    match w.plan.message_fate() {
        MsgFate::Drop => {
            // The request is lost; the client times out and retransmits.
            backoff(sim, w, cid, step);
        }
        MsgFate::Delay(extra) => {
            sim.schedule_in(extra, move |sim, w| execute(sim, w, cid, step, false));
        }
        MsgFate::Duplicate => {
            // Transport-level dedup protects the non-idempotent steps (CN
            // session sequence numbers); the finish confirmation really is
            // delivered twice to exercise receiver idempotence.
            let dup = step == Step::Finish;
            execute(sim, w, cid, step, dup);
        }
        MsgFate::Deliver => execute(sim, w, cid, step, false),
    }
}

/// Schedule the next protocol step after the per-step service gap.
fn next(sim: &mut S, cid: usize, step: Step) {
    sim.schedule_in(STEP_GAP, move |sim, w| deliver(sim, w, cid, step));
}

/// Back off (charging a retry) and retransmit `step`.
fn backoff(sim: &mut S, w: &mut World, cid: usize, step: Step) {
    let c = &mut w.clients[cid];
    if !c.policy.allows(c.attempt) {
        // Retry budget exhausted: clean up and move on. This is a liveness
        // failure, surfaced by the report, never a safety one.
        give_up_txn(w, cid);
        w.gave_up += 1;
        w.trace_event(cid, sim.now(), "gave_up", &[]);
        finish_transfer(sim, w, cid);
        return;
    }
    let delay = c.policy.backoff(c.attempt);
    c.attempt += 1;
    w.cluster.record_retry();
    let attempt = (w.clients[cid].attempt - 1).to_string();
    w.trace_event(cid, sim.now(), "backoff", &[("attempt", &attempt)]);
    sim.schedule_in(delay, move |sim, w| deliver(sim, w, cid, step));
}

/// Drop client `cid`'s transaction, leaving nothing behind: an open or
/// prepared one aborts, a decided one finishes wherever its legs are up.
fn give_up_txn(w: &mut World, cid: usize) {
    let _ = match w.clients[cid].txn.take() {
        Some(Handle::Open(txn)) => w.cluster.abort(txn),
        Some(Handle::Prepared(p)) => w.cluster.abort_prepared(p),
        Some(Handle::Decided(d)) => w.cluster.finish_all(d),
        None => Ok(()),
    };
}

/// Give up the in-flight attempt (if any) and retry the transfer from Begin.
fn abort_and_retry(sim: &mut S, w: &mut World, cid: usize) {
    give_up_txn(w, cid);
    w.txn_aborts += 1;
    w.trace_event(cid, sim.now(), "abort_retry", &[]);
    backoff(sim, w, cid, Step::Begin);
}

/// The transfer confirmed: apply it to the shadow ledger.
fn confirm_commit(sim: &mut S, w: &mut World, cid: usize) {
    let t = w.clients[cid].transfer;
    *w.ledger.entry(t.from).or_insert(0) -= t.amount;
    *w.ledger.entry(t.to).or_insert(0) += t.amount;
    w.committed += 1;
    finish_transfer(sim, w, cid);
}

fn finish_transfer(sim: &mut S, w: &mut World, cid: usize) {
    if let (Some(tel), Some(span)) = (&w.tel, w.clients[cid].span.take()) {
        tel.set_time_us(sim.now().micros());
        tel.tracer.end(span);
    }
    let c = &mut w.clients[cid];
    c.remaining -= 1;
    c.txn = None;
    if c.remaining > 0 {
        sim.schedule_in(STEP_GAP, move |sim, w| txn_start(sim, w, cid));
    }
}

/// Execute one delivered request against the cluster.
fn execute(sim: &mut S, w: &mut World, cid: usize, step: Step, dup: bool) {
    match step {
        Step::Begin => {
            let res = match w.clients[cid].transfer.single_prefix {
                Some(p) => w.cluster.begin(TxnOptions::single(p)),
                None => w.cluster.begin(TxnOptions::multi()),
            };
            match res {
                Ok(txn) => {
                    w.clients[cid].txn = Some(Handle::Open(txn));
                    next(sim, cid, Step::Exec);
                }
                // Home node or GTM down: wait out the outage.
                Err(_) => backoff(sim, w, cid, Step::Begin),
            }
        }
        Step::Exec => {
            let t = w.clients[cid].transfer;
            let Some(Handle::Open(txn)) = &mut w.clients[cid].txn else {
                return; // stale event after a give-up
            };
            match exec_transfer(&mut w.cluster, txn, t) {
                Ok(()) if txn.is_single_shard() => next(sim, cid, Step::CommitSingle),
                Ok(()) => next(sim, cid, Step::Prepare),
                // Conflict or mid-statement outage: roll everything back and
                // start over.
                Err(_) => abort_and_retry(sim, w, cid),
            }
        }
        Step::CommitSingle => {
            let Some(Handle::Open(txn)) = w.clients[cid].txn.take() else {
                return;
            };
            match w.cluster.commit(txn) {
                Ok(()) => confirm_commit(sim, w, cid),
                // The home node crashed since exec: the in-progress state
                // died with it (writes already undone), so just retry.
                Err(_) => {
                    w.txn_aborts += 1;
                    backoff(sim, w, cid, Step::Begin);
                }
            }
        }
        Step::Prepare => {
            let Some(Handle::Open(txn)) = w.clients[cid].txn.take() else {
                return;
            };
            match w.cluster.prepare(txn) {
                Ok(p) => {
                    w.clients[cid].txn = Some(Handle::Prepared(p));
                    next(sim, cid, Step::Decide);
                }
                // A no vote (conflict or crashed participant): the step has
                // aborted the transaction.
                Err(_) => abort_and_retry(sim, w, cid),
            }
        }
        Step::Decide => {
            let Some(Handle::Prepared(p)) = w.clients[cid].txn.take() else {
                return;
            };
            match w.cluster.decide(p) {
                Ok(d) => {
                    w.clients[cid].txn = Some(Handle::Decided(d));
                    next(sim, cid, Step::Finish);
                }
                // GTM outage mid-2PC: locks stay held, keep asking.
                Err(Undecided { retry: Some(p), .. }) => {
                    w.clients[cid].txn = Some(Handle::Prepared(p));
                    backoff(sim, w, cid, Step::Decide);
                }
                // The gxid was presumed-aborted by recovery before we could
                // commit it — the 2PC race the GTM's forced-abort rule
                // closes. The step has aborted our side: retry.
                Err(_) => abort_and_retry(sim, w, cid),
            }
        }
        Step::Finish => {
            let Some(Handle::Decided(mut d)) = w.clients[cid].txn.take() else {
                return;
            };
            // Confirm follows the last leg, so one is always left here.
            let shard = d.unfinished().next().expect("a leg to finish");
            let res = w.cluster.finish_leg(&mut d, shard);
            if res.is_ok() && dup {
                // Second delivery of the same confirmation must be a clean
                // no-op.
                if let Err(e) = w.cluster.finish_leg(&mut d, shard) {
                    w.violations
                        .push(format!("duplicate finish on {shard} errored: {e}"));
                }
            }
            let following = match d.unfinished().next() {
                Some(_) => Step::Finish,
                None => Step::Confirm,
            };
            w.clients[cid].txn = Some(Handle::Decided(d));
            match res {
                Ok(()) => next(sim, cid, following),
                Err(e) if e.class() == "unavailable" => backoff(sim, w, cid, Step::Finish),
                Err(e) => {
                    w.violations
                        .push(format!("finish_leg({shard}) failed: {e}"));
                    abort_and_retry(sim, w, cid);
                }
            }
        }
        Step::Confirm => {
            let Some(Handle::Decided(d)) = &w.clients[cid].txn else {
                return;
            };
            let gxid = d.gxid().expect("multi txn has a gxid");
            match w.cluster.gtm_commit_status(gxid) {
                Ok(true) => {
                    w.clients[cid].txn = None;
                    confirm_commit(sim, w, cid);
                }
                // Recovery presumed the abort before any leg committed; the
                // client never confirmed, so retrying is safe.
                Ok(false) => abort_and_retry(sim, w, cid),
                Err(_) => backoff(sim, w, cid, Step::Confirm),
            }
        }
    }
}

/// Run one chaos configuration to quiescence and audit the final state.
pub fn run_chaos(cfg: ChaosConfig) -> ChaosReport {
    let mut cluster = Cluster::new(ClusterConfig::gtm_lite(cfg.shards));
    let mut ledger = BTreeMap::new();

    // Seed every account with its initial balance (fault-free preamble).
    for p in 0..cfg.shards as u32 {
        for a in 0..cfg.accounts_per_group {
            let key = make_key(p, a);
            cluster
                .bump(Some(p), key, cfg.initial_balance)
                .expect("seeding cannot fail on a healthy cluster");
            ledger.insert(key, cfg.initial_balance);
        }
    }

    // Telemetry attaches *after* the seeding preamble: metrics cover only
    // the chaotic phase, never the deterministic account setup.
    if let Some(tel) = &cfg.telemetry {
        cluster.attach_telemetry(tel);
    }

    let builder = cfg.fault_plan();
    let mut plan = builder.plan();
    if let Some(tel) = &cfg.telemetry {
        plan.attach_telemetry(&tel.metrics);
    }
    let schedule = builder.schedule(&mut plan, cfg.shards);

    let clients = (0..cfg.clients)
        .map(|cid| {
            let mut policy = RetryPolicy::chaos(cfg.seed ^ (cid as u64).wrapping_mul(0x9E37_79B9));
            if let Some(tel) = &cfg.telemetry {
                policy.attach_telemetry(&tel.metrics);
            }
            ClientState {
                remaining: cfg.transfers_per_client,
                attempt: 0,
                policy,
                rng: SplitMix64::new(cfg.seed ^ (0xC11E_0000 + cid as u64)),
                transfer: Transfer {
                    from: 0,
                    to: 0,
                    amount: 0,
                    single_prefix: None,
                },
                txn: None,
                span: None,
            }
        })
        .collect();

    let mut world = World {
        cluster,
        plan,
        clients,
        ledger,
        committed: 0,
        txn_aborts: 0,
        gave_up: 0,
        violations: Vec::new(),
        tel: cfg.telemetry.clone(),
        cfg: cfg.clone(),
    };
    let mut sim: S = Sim::new();
    if let Some(tel) = &world.tel {
        sim.attach_telemetry(&tel.metrics);
    }

    for ev in schedule {
        use hdm_simnet::CrashTarget;
        match ev.target {
            CrashTarget::DataNode(n) => {
                let shard = ShardId::new(n as u64);
                sim.schedule_at(ev.at, move |_, w| w.cluster.crash_node(shard));
                sim.schedule_at(ev.restart_at, move |_, w| w.cluster.restart_node(shard));
            }
            CrashTarget::Gtm => {
                sim.schedule_at(ev.at, |_, w| w.cluster.crash_gtm());
                sim.schedule_at(ev.restart_at, |_, w| w.cluster.restart_gtm());
            }
        }
    }
    for cid in 0..cfg.clients {
        sim.schedule_at(SimInstant(1 + 13 * cid as u64), move |sim, w| {
            txn_start(sim, w, cid)
        });
    }

    sim.run(&mut world);
    audit(&mut world);

    ChaosReport {
        committed: world.committed,
        txn_aborts: world.txn_aborts,
        gave_up: world.gave_up,
        events: sim.executed(),
        counters: world.cluster.counters(),
        message_stats: world.plan.message_stats(),
        final_total: world.cluster.snapshot_all().iter().map(|(_, v)| *v).sum(),
        violations: world.violations,
        metrics: world.tel.as_ref().map(|tel| tel.metrics.snapshot()),
    }
}

/// Post-quiescence safety audit; failures land in `world.violations`.
fn audit(w: &mut World) {
    let cfg = &w.cfg;
    if !w.cluster.is_gtm_up() {
        w.violations.push("GTM still down at quiescence".into());
    }
    if w.cluster.gtm().active_count() != 0 {
        w.violations.push(format!(
            "{} gxids leaked in the GTM active list",
            w.cluster.gtm().active_count()
        ));
    }
    if w.cluster.live_snapshot_count() != 0 {
        // Not a safety failure by itself, but it pins the LCO horizon and
        // so silently stops pruning.
        w.violations.push(format!(
            "{} global snapshots leaked live",
            w.cluster.live_snapshot_count()
        ));
    }
    for s in 0..cfg.shards as u64 {
        let shard = ShardId::new(s);
        if !w.cluster.is_node_up(shard) {
            w.violations
                .push(format!("{shard} still down at quiescence"));
        }
        let node = w.cluster.node(shard);
        if node.mgr().active_count() != 0 {
            w.violations.push(format!(
                "{shard}: {} local txns leaked active (locks held)",
                node.mgr().active_count()
            ));
        }
        if !node.in_doubt_legs().is_empty() {
            w.violations
                .push(format!("{shard}: unresolved in-doubt legs remain"));
        }
        if node.undo_len() != 0 {
            w.violations
                .push(format!("{shard}: {} undo entries leaked", node.undo_len()));
        }
        if node.pending_commit_len() != 0 {
            w.violations.push(format!(
                "{shard}: {} pending-commit markers leaked",
                node.pending_commit_len()
            ));
        }
    }
    // The visible state must be exactly the confirmed ledger: any divergence
    // is a lost committed write or a leaked aborted write.
    let visible = w.cluster.snapshot_all();
    let expect: Vec<(i64, i64)> = w.ledger.iter().map(|(&k, &v)| (k, v)).collect();
    if visible != expect {
        let diffs: Vec<String> = expect
            .iter()
            .zip(visible.iter())
            .filter(|(e, v)| e != v)
            .take(5)
            .map(|(e, v)| format!("key {}: expected {}, visible {}", e.0, e.1, v.1))
            .collect();
        w.violations.push(format!(
            "visible state diverges from confirmed ledger ({} vs {} rows): {}",
            visible.len(),
            expect.len(),
            diffs.join("; ")
        ));
    }
    let total: i64 = visible.iter().map(|(_, v)| *v).sum();
    let expected_total = cfg.total_accounts() * cfg.initial_balance;
    if total != expected_total {
        w.violations.push(format!(
            "total balance not conserved: {total} != {expected_total}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_run_commits_everything() {
        let r = run_chaos(ChaosConfig::fault_free(1));
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
        assert_eq!(r.gave_up, 0);
        // Conflicts may force retries, but every transfer eventually lands.
        assert_eq!(r.committed, 6 * 30);
        assert_eq!(r.message_stats.1, 0, "no drops without faults");
        assert_eq!(r.counters.dn_crashes, 0);
    }

    #[test]
    fn chaotic_run_stays_safe() {
        let r = run_chaos(ChaosConfig::standard(0xC0FFEE));
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);
        assert_eq!(r.gave_up, 0, "no client exhausted its retry budget");
        assert!(r.committed > 0);
    }

    #[test]
    fn chaotic_replay_is_bit_identical() {
        let a = run_chaos(ChaosConfig::standard(7));
        let b = run_chaos(ChaosConfig::standard(7));
        assert_eq!(a, b);
    }

    #[test]
    fn telemetry_counters_mirror_the_report() {
        let tel = Telemetry::simulated();
        let mut cfg = ChaosConfig::standard(0xBEEF);
        cfg.telemetry = Some(tel.clone());
        let r = run_chaos(cfg);
        assert!(r.violations.is_empty(), "violations: {:?}", r.violations);

        // Every transfer span was closed.
        assert_eq!(tel.tracer.open_count(), 0);
        let spans = tel.tracer.finished();
        let transfers = spans.iter().filter(|s| s.name == "transfer").count() as u64;
        assert_eq!(transfers, r.committed + r.gave_up);

        // Counters agree with the report's own bookkeeping.
        let snap = r.metrics.as_ref().expect("snapshot attached");
        let (_, drops, dups, delays) = r.message_stats;
        assert_eq!(snap.counter("fault.msg{fate=drop}"), drops);
        assert_eq!(snap.counter("fault.msg{fate=duplicate}"), dups);
        assert_eq!(snap.counter("fault.msg{fate=delay}"), delays);
        assert_eq!(snap.counter("cn.retry"), r.counters.retries);
        assert!(snap.counter("cn.backoff") >= r.counters.retries);
        assert!(snap.counter_total("txn.begin") >= r.committed);
        assert!(snap.counter("sim.events.executed") > 0);
    }

    #[test]
    fn telemetry_replay_is_bit_identical() {
        let run = || {
            let mut cfg = ChaosConfig::standard(77);
            cfg.telemetry = Some(Telemetry::simulated());
            run_chaos(cfg)
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.metrics, b.metrics,
            "same seed must yield identical metrics"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_take_different_paths() {
        let a = run_chaos(ChaosConfig::standard(100));
        let b = run_chaos(ChaosConfig::standard(101));
        // Both safe, but the traces differ.
        assert!(a.violations.is_empty() && b.violations.is_empty());
        assert_ne!(
            (a.events, a.message_stats),
            (b.events, b.message_stats),
            "two seeds produced identical traces"
        );
    }
}
