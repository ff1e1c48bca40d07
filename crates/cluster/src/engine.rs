//! The functional (untimed) sharded OLTP engine.
//!
//! Implements both transaction-management protocols of §II-A over the same
//! storage nodes:
//!
//! * **Baseline** — "applications interact with a sharded OLTP system by
//!   sending queries … A global transaction manager (GTM) generates
//!   ascending global transaction ID (XID) for transactions and dispatches
//!   snapshots". *Every* transaction — single- or multi-shard — takes a
//!   global XID and a global snapshot, and reports its commit to the GTM.
//!   Tuples are stamped with global XIDs; DNs judge visibility against the
//!   GTM's commit log.
//! * **GTM-lite** — single-shard transactions never talk to the GTM: "CN
//!   sends transaction to DN, then DN uses local XID and local snapshot to
//!   execute and commit transaction locally." Multi-shard transactions take
//!   a GXID + global snapshot, obtain a local XID + local snapshot per DN,
//!   and judge visibility through the merged snapshot of Algorithm 1,
//!   committing via 2PC (GTM first, then DNs — the Anomaly-1 ordering).
//!
//! One transaction API serves both protocols. [`Cluster::begin`] with a
//! [`TxnOptions`] builder opens a [`Txn`]; its commit runs as explicit steps
//! whose handle types fix their order: [`Cluster::prepare`] → [`Prepared`],
//! [`Cluster::decide`] → [`Decided`], then [`Cluster::finish_leg`] or
//! [`Cluster::finish_all`]. A step the protocol lacks does nothing, and a
//! failed step leaves nothing half-done. [`Cluster::commit`] is the steps in
//! order; `anomaly` and `chaos` stop between them to stand inside the commit
//! window. [`MergePolicy::Naive`] disables UPGRADE/DOWNGRADE to *exhibit*
//! the anomalies; [`MergePolicy::Full`] is Algorithm 1.
//!
//! Every begin checks the liveness of the coordinator it needs, and every
//! multi-shard or baseline begin takes a fresh global snapshot from the
//! GTM: one interaction, never a reused one. (The timed model in
//! [`crate::sim`] may reuse a snapshot within a commit epoch; see
//! `SimConfig::snapshot_cache`.)

use crate::health::{EventJournal, HealthMonitor, SysEvent};
use crate::node::DataNode;
use crate::replica::{Follower, LogRecord, ReplOp, ReplicaSet};
use crate::shard::ShardMap;
use hdm_common::{HdmError, Result, Schema, ShardId, Xid};
use hdm_telemetry::{Counter, Gauge, Telemetry};
use hdm_txn::{merge_with_manager, Decision, Gtm, Snapshot, SnapshotVisibility, TxnStatus};
use std::collections::{BTreeMap, BTreeSet};

/// Which transaction-management protocol the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Centralized: every transaction interacts with the GTM.
    Baseline,
    /// GTM-lite: only multi-shard transactions interact with the GTM.
    GtmLite,
}

/// How multi-shard readers combine global and local snapshots (GTM-lite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Algorithm 1 with UPGRADE and DOWNGRADE.
    Full,
    /// Union of active sets only (lines 1–4). Exhibits Anomalies 1 and 2;
    /// exists for tests and the merge-overhead ablation.
    Naive,
}

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    pub shards: usize,
    pub protocol: Protocol,
    pub merge_policy: MergePolicy,
    /// Log-shipped followers per shard (0 = replication off, the legacy
    /// single-copy behaviour: a crashed DN stays `Unavailable` until its
    /// scheduled restart). With replicas, a crashed primary can be failed
    /// over via [`Cluster::try_failover`].
    pub replicas: usize,
}

impl ClusterConfig {
    pub fn baseline(shards: usize) -> Self {
        Self {
            shards,
            protocol: Protocol::Baseline,
            merge_policy: MergePolicy::Full,
            replicas: 0,
        }
    }

    pub fn gtm_lite(shards: usize) -> Self {
        Self {
            shards,
            protocol: Protocol::GtmLite,
            merge_policy: MergePolicy::Full,
            replicas: 0,
        }
    }
}

/// How a transaction should be opened — the builder consumed by
/// [`Cluster::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnOptions {
    scope: TxnScope,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnScope {
    /// All keys share this sharding prefix (the GTM-lite fast path).
    Single(u32),
    /// May touch several shards.
    Multi,
}

impl TxnOptions {
    /// A transaction the application knows is single-sharded (every key
    /// shares the sharding prefix `prefix`).
    pub fn single(prefix: u32) -> Self {
        Self {
            scope: TxnScope::Single(prefix),
        }
    }

    /// A transaction that may touch several shards.
    pub fn multi() -> Self {
        Self {
            scope: TxnScope::Multi,
        }
    }
}

/// Observable protocol activity, reported by Fig 3's harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Messages that had to visit the GTM (the baseline's bottleneck).
    pub gtm_interactions: u64,
    pub single_shard_commits: u64,
    pub multi_shard_commits: u64,
    pub aborts: u64,
    /// Snapshot merges performed (multi-shard statements under GTM-lite).
    pub merges: u64,
    /// UPGRADE wait-for-commit events (Anomaly-1 repairs).
    pub upgrade_waits: u64,
    /// Local commits DOWNGRADEd in some reader's merged view.
    pub downgrades: u64,
    /// CN-side transaction retries after faults (backoff applied per retry).
    pub retries: u64,
    /// Data-node crash / restart events injected.
    pub dn_crashes: u64,
    pub dn_restarts: u64,
    /// GTM crash / restart events injected.
    pub gtm_crashes: u64,
    pub gtm_restarts: u64,
    /// In-doubt legs resolved at recovery, by outcome.
    pub in_doubt_commits: u64,
    pub in_doubt_aborts: u64,
    /// Followers promoted to primary after a crash / crashed ex-primaries
    /// rejoined as followers, resuming from their own durable state at
    /// their crash CSN. Both zero unless [`ClusterConfig::replicas`] > 0.
    pub promotions: u64,
    pub rejoins: u64,
}

/// Pre-resolved metric handles + the tracer, attached once via
/// [`Cluster::attach_telemetry`] so hot paths bump atomics without registry
/// lookups. Crash/restart/in-doubt moments additionally land in the trace as
/// instantaneous spans.
#[derive(Debug, Clone)]
struct EngineTelemetry {
    tel: Telemetry,
    begin_single: Counter,
    begin_distributed: Counter,
    commit_single: Counter,
    commit_distributed: Counter,
    aborts: Counter,
    prepare_yes: Counter,
    prepare_no: Counter,
    prepare_read_only: Counter,
    leg_finish: Counter,
    restart_dn: Counter,
    restart_gtm: Counter,
    retries: Counter,
    /// Registered only when replication is on, so legacy configurations
    /// export a byte-identical metric set.
    promote: Option<Counter>,
    rejoin: Option<Counter>,
    replica_apply: Option<Counter>,
    /// Worst-shard replication lag (log head − slowest follower CSN),
    /// refreshed on every `pump_replication` tick. Registered only when
    /// replication is on.
    replica_lag: Option<Gauge>,
    /// Per-shard lag and health (1 = healthy) gauges, refreshed by the
    /// health monitor. Registered only when replication is on.
    shard_lag: Option<Vec<Gauge>>,
    shard_health: Option<Vec<Gauge>>,
}

/// One leg of a multi-shard GTM-lite transaction on a particular DN.
#[derive(Debug, Clone)]
struct Leg {
    xid: Xid,
    merged: Snapshot,
    /// The shard's primary epoch when the leg opened. A promotion bumps the
    /// epoch, fencing the leg: its local XID belongs to the dead primary's
    /// namespace and must never be replayed against the promoted node.
    epoch: u64,
    /// The commit decision has been delivered ([`Cluster::finish_leg`]).
    finished: bool,
}

#[derive(Debug, Clone)]
enum TxnKind {
    Baseline {
        gxid: Xid,
        gsnap: Snapshot,
        touched: BTreeSet<u64>,
    },
    LiteSingle {
        shard: ShardId,
        xid: Xid,
        snap: Snapshot,
        /// Primary epoch at begin — same fencing rule as [`Leg::epoch`].
        epoch: u64,
    },
    LiteMulti {
        gxid: Xid,
        gsnap: Snapshot,
        legs: BTreeMap<u64, Leg>,
    },
}

/// An open transaction handle.
#[derive(Debug, Clone)]
pub struct Txn {
    kind: TxnKind,
}

impl Txn {
    /// The global XID, if this transaction has one.
    pub fn gxid(&self) -> Option<Xid> {
        match &self.kind {
            TxnKind::Baseline { gxid, .. } | TxnKind::LiteMulti { gxid, .. } => Some(*gxid),
            TxnKind::LiteSingle { .. } => None,
        }
    }

    /// Is this a single-shard fast-path transaction?
    pub fn is_single_shard(&self) -> bool {
        matches!(self.kind, TxnKind::LiteSingle { .. })
    }

    /// The legs a GTM-lite multi-shard transaction has opened (0 for other
    /// kinds): the participants of its two-phase commit.
    pub fn leg_count(&self) -> usize {
        match &self.kind {
            TxnKind::LiteMulti { legs, .. } => legs.len(),
            _ => 0,
        }
    }

    fn legs(&self) -> impl Iterator<Item = (&u64, &Leg)> {
        match &self.kind {
            TxnKind::LiteMulti { legs, .. } => Some(legs),
            _ => None,
        }
        .into_iter()
        .flatten()
    }

    fn leg(&self, shard: ShardId) -> Option<&Leg> {
        self.legs()
            .find_map(|(&s, leg)| (s == shard.raw()).then_some(leg))
    }

    /// The `(local xid, snapshot)` a GTM-lite fragment on `shard` must run
    /// under: the single-shard txn's own context, or the opened leg's merged
    /// view. `None` when the leg is not open (call `ensure_leg` first) or
    /// the transaction is baseline-protocol.
    pub(crate) fn lite_ctx(&self, shard: ShardId) -> Option<(Xid, &Snapshot)> {
        match &self.kind {
            TxnKind::LiteSingle {
                shard: own,
                xid,
                snap,
                ..
            } => (*own == shard).then_some((*xid, snap)),
            _ => self.leg(shard).map(|leg| (leg.xid, &leg.merged)),
        }
    }
}

/// A transaction past [`Cluster::prepare`]: every leg voted yes or
/// read-only, and no statement can run in it again. Next comes
/// [`Cluster::decide`], or [`Cluster::abort_prepared`] to give it up.
#[derive(Debug)]
#[must_use = "a prepared transaction holds its locks until decided or aborted"]
pub struct Prepared {
    txn: Txn,
}

/// A transaction that [`Cluster::decide`] committed. The legs in
/// [`Self::unfinished`] have not yet applied the decision; deliver it
/// with [`Cluster::finish_leg`] or [`Cluster::finish_all`].
///
/// Only a decided transaction can be finished:
///
/// ```compile_fail,E0308
/// use hdm_cluster::{Cluster, ClusterConfig, TxnOptions};
/// let mut c = Cluster::new(ClusterConfig::gtm_lite(2));
/// let txn = c.begin(TxnOptions::multi()).unwrap();
/// let prepared = c.prepare(txn).unwrap();
/// c.finish_all(prepared).unwrap(); // never decided
/// ```
#[derive(Debug)]
#[must_use = "a decided transaction's legs hold their locks until finished"]
pub struct Decided {
    txn: Txn,
}

impl Decided {
    /// The global XID, if the transaction has one.
    pub fn gxid(&self) -> Option<Xid> {
        self.txn.gxid()
    }

    /// The legs still owed the decision, in shard order.
    pub fn unfinished(&self) -> impl Iterator<Item = ShardId> + '_ {
        (self.txn.legs())
            .filter(|(_, leg)| !leg.finished)
            .map(|(&s, _)| ShardId::new(s))
    }
}

/// Why [`Cluster::decide`] did not commit.
#[derive(Debug)]
pub struct Undecided {
    pub error: HdmError,
    /// The handle, given back when the GTM was down: nothing was decided
    /// and the legs stay prepared, so the caller may back off and decide
    /// again. `None` when the transaction is already aborted everywhere.
    pub retry: Option<Prepared>,
}

/// The sharded OLTP cluster: one GTM, N data nodes.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    map: ShardMap,
    gtm: Gtm,
    nodes: Vec<DataNode>,
    /// Per-node liveness: a down node rejects every request until restarted.
    down: Vec<bool>,
    gtm_up: bool,
    /// `(gsnap.xmin, gxid)` of every GTM-lite multi-shard transaction
    /// between `begin` and its prepare or abort: the global snapshots still
    /// read by merges. Keyed by the unique gxid as well, so a release is
    /// idempotent; its first entry bounds [`Self::lco_horizon`].
    live_gsnaps: BTreeSet<(Xid, Xid)>,
    counters: ClusterCounters,
    tel: Option<EngineTelemetry>,
    /// Per-shard replication state: the commit log + log-shipped followers.
    /// Present but empty-followed when [`ClusterConfig::replicas`] is 0.
    replicas: Vec<ReplicaSet>,
    /// Per-shard primary epoch, bumped by each promotion. Stays 0 for every
    /// shard when replication is off, so legacy behaviour is bit-identical.
    epochs: Vec<u64>,
    /// Per shard, the replaced ex-primary parked as a follower at its crash
    /// CSN until its scheduled restart adds it to the shard's follower set.
    /// A second promotion before that restart parks the newer ex-primary
    /// in its place.
    rejoining: Vec<Option<Follower>>,
    /// Bounded crash/recovery/promotion journal — the `sys.events` source.
    journal: EventJournal,
    /// Per-shard health classifier, driven from `pump_replication` while
    /// replication is on.
    health: HealthMonitor,
}

impl Cluster {
    pub fn new(cfg: ClusterConfig) -> Self {
        let map = ShardMap::new(cfg.shards);
        let mut nodes: Vec<DataNode> = map.all().map(DataNode::new).collect();
        if cfg.replicas > 0 {
            for node in &mut nodes {
                node.set_record_redo(true);
            }
        }
        let replicas = map
            .all()
            .map(|s| ReplicaSet::new(s, cfg.replicas))
            .collect();
        let down = vec![false; nodes.len()];
        let epochs = vec![0; nodes.len()];
        let rejoining = (0..nodes.len()).map(|_| None).collect();
        let health = HealthMonitor::new(nodes.len());
        Self {
            cfg,
            map,
            gtm: Gtm::new(),
            nodes,
            down,
            gtm_up: true,
            live_gsnaps: BTreeSet::new(),
            counters: ClusterCounters::default(),
            tel: None,
            replicas,
            epochs,
            rejoining,
            journal: EventJournal::default(),
            health,
        }
    }

    /// The telemetry clock's current reading, for journal timestamps (0
    /// without telemetry — deterministic either way).
    fn journal_now_us(&self) -> u64 {
        self.tel.as_ref().map(|t| t.tel.now_us()).unwrap_or(0)
    }

    /// Wire this cluster (and its GTM) to a [`Telemetry`] bundle. Metric
    /// handles are resolved once here; protocol activity lands as `txn.*`,
    /// `twopc.*`, `recovery.*` and `cn.retry` series, and crash/restart and
    /// in-doubt moments appear in the trace as instantaneous spans. The
    /// timed harnesses attach before driving load.
    pub fn attach_telemetry(&mut self, tel: &Telemetry) {
        let m = &tel.metrics;
        self.tel = Some(EngineTelemetry {
            tel: tel.clone(),
            begin_single: m.counter("txn.begin", &[("path", "single")]),
            begin_distributed: m.counter("txn.begin", &[("path", "distributed")]),
            commit_single: m.counter("txn.commit", &[("path", "single")]),
            commit_distributed: m.counter("txn.commit", &[("path", "distributed")]),
            aborts: m.counter("txn.abort", &[]),
            prepare_yes: m.counter("twopc.leg.prepare", &[("vote", "yes")]),
            prepare_no: m.counter("twopc.leg.prepare", &[("vote", "no")]),
            prepare_read_only: m.counter("twopc.leg.prepare", &[("vote", "read_only")]),
            leg_finish: m.counter("twopc.leg.finish", &[]),
            restart_dn: m.counter("recovery.restart", &[("target", "dn")]),
            restart_gtm: m.counter("recovery.restart", &[("target", "gtm")]),
            retries: m.counter("cn.retry", &[]),
            promote: (self.cfg.replicas > 0).then(|| m.counter("replica.promote", &[])),
            rejoin: (self.cfg.replicas > 0).then(|| m.counter("replica.rejoin", &[])),
            replica_apply: (self.cfg.replicas > 0).then(|| m.counter("replica.apply", &[])),
            replica_lag: (self.cfg.replicas > 0).then(|| m.gauge("replica.lag", &[])),
            shard_lag: (self.cfg.replicas > 0).then(|| {
                self.map
                    .all()
                    .map(|s| m.gauge("replica.lag", &[("shard", &s.raw().to_string())]))
                    .collect()
            }),
            shard_health: (self.cfg.replicas > 0).then(|| {
                self.map
                    .all()
                    .map(|s| m.gauge("shard.health", &[("shard", &s.raw().to_string())]))
                    .collect()
            }),
        });
        self.gtm.attach_telemetry(m);
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    pub fn shard_map(&self) -> &ShardMap {
        &self.map
    }

    pub fn counters(&self) -> ClusterCounters {
        self.counters
    }

    pub fn gtm(&self) -> &Gtm {
        &self.gtm
    }

    pub fn node(&self, shard: ShardId) -> &DataNode {
        &self.nodes[shard.raw() as usize]
    }

    /// Mutable node access for the in-crate distributed SQL layer (fragment
    /// execution writes through the node's SQL tables).
    pub(crate) fn node_mut(&mut self, shard: ShardId) -> &mut DataNode {
        &mut self.nodes[shard.raw() as usize]
    }

    pub fn is_node_up(&self, shard: ShardId) -> bool {
        !self.down[shard.raw() as usize]
    }

    pub fn is_gtm_up(&self) -> bool {
        self.gtm_up
    }

    fn check_node(&self, shard: ShardId) -> Result<()> {
        if self.down[shard.raw() as usize] {
            return Err(HdmError::Unavailable(format!("{shard} is down")));
        }
        Ok(())
    }

    fn check_gtm(&self) -> Result<()> {
        if !self.gtm_up {
            return Err(HdmError::Unavailable("GTM is down".into()));
        }
        Ok(())
    }

    /// Fencing: a local XID minted by a since-replaced primary must never be
    /// replayed against the promoted node (it would alias a fresh XID in the
    /// new primary's namespace). Stale transactions fail over by retrying
    /// from `begin`. No-op while replication is off (epochs never move).
    fn check_epoch(&self, shard: ShardId, epoch: u64) -> Result<()> {
        if self.cfg.replicas > 0 && self.epochs[shard.raw() as usize] != epoch {
            return Err(HdmError::Unavailable(format!(
                "{shard} failed over (epoch {} fences leg epoch {epoch})",
                self.epochs[shard.raw() as usize]
            )));
        }
        Ok(())
    }

    /// Kill a data node's process. In-progress transactions there die with
    /// their volatile state (writes undone, locks released); prepared legs
    /// survive durably as in-doubt. The node rejects requests until
    /// [`Self::restart_node`].
    pub fn crash_node(&mut self, shard: ShardId) {
        let i = shard.raw() as usize;
        if self.down[i] {
            return;
        }
        self.down[i] = true;
        self.counters.dn_crashes += 1;
        self.nodes[i].crash();
        let now = self.journal_now_us();
        self.journal
            .append(now, "crash", Some(i as u64), "dn process killed".into());
        if let Some(t) = &self.tel {
            t.tel
                .tracer
                .instant("crash", &[("target", "dn"), ("shard", &i.to_string())]);
        }
    }

    /// Restart a crashed data node. Its in-doubt (prepared) legs are
    /// resolved against the coordinator's commit log — presumed abort unless
    /// the GTM positively recorded the commit — releasing their locks and
    /// undo. If the GTM is itself down, the legs stay in doubt (still
    /// holding locks, as 2PC requires) until [`Self::restart_gtm`] resolves
    /// them.
    pub fn restart_node(&mut self, shard: ShardId) {
        let i = shard.raw() as usize;
        if let Some(follower) = self.rejoining[i].take() {
            // A promotion already replaced this machine as primary; the
            // returning process keeps its durable state and rejoins as a
            // follower at its crash CSN, catching up on the records the
            // new primary appended since.
            let csn = follower.applied;
            self.replicas[i].followers.push(follower);
            self.counters.dn_restarts += 1;
            self.counters.rejoins += 1;
            let now = self.journal_now_us();
            self.journal.append(
                now,
                "rejoin",
                Some(i as u64),
                format!("ex-primary rejoined from its own state at csn={csn}"),
            );
            if let Some(t) = &self.tel {
                t.restart_dn.inc();
                if let Some(c) = &t.rejoin {
                    c.inc();
                }
                t.tel
                    .tracer
                    .instant("replica.rejoin", &[("shard", &i.to_string())]);
            }
            return;
        }
        if !self.down[i] {
            return;
        }
        self.down[i] = false;
        self.counters.dn_restarts += 1;
        let now = self.journal_now_us();
        self.journal
            .append(now, "restart", Some(i as u64), "dn restarted".into());
        if let Some(t) = &self.tel {
            t.restart_dn.inc();
            t.tel
                .tracer
                .instant("restart", &[("target", "dn"), ("shard", &i.to_string())]);
        }
        if self.gtm_up {
            self.resolve_in_doubt_on(i);
        }
    }

    /// Resolve every in-doubt leg on node `i` against the GTM's commit log.
    fn resolve_in_doubt_on(&mut self, i: usize) {
        for (local, gxid) in self.nodes[i].in_doubt_legs() {
            // A prepared leg with no gxid mapping cannot be vouched for by
            // any coordinator: presumed abort.
            let commit = gxid
                .map(|g| self.gtm.resolve_in_doubt(g) == Decision::Commit)
                .unwrap_or(false);
            self.counters.gtm_interactions += 1;
            self.nodes[i]
                .resolve_in_doubt(local, commit)
                .expect("in-doubt leg is resolvable");
            if self.cfg.replicas > 0 {
                if let Some(g) = gxid {
                    self.replicas[i].resolve(g, commit);
                }
            }
            if commit {
                self.counters.in_doubt_commits += 1;
            } else {
                self.counters.in_doubt_aborts += 1;
            }
            let now = self.journal_now_us();
            self.journal.append(
                now,
                "in_doubt.resolved",
                Some(i as u64),
                format!("outcome={}", if commit { "commit" } else { "abort" }),
            );
            if let Some(t) = &self.tel {
                t.tel.tracer.instant(
                    "in_doubt.resolved",
                    &[
                        ("shard", &i.to_string()),
                        ("outcome", if commit { "commit" } else { "abort" }),
                    ],
                );
            }
        }
    }

    /// Kill the GTM. Multi-shard begins/commits fail until
    /// [`Self::restart_gtm`]; GTM-lite single-shard traffic is unaffected —
    /// the availability half of the GTM-lite argument.
    pub fn crash_gtm(&mut self) {
        if !self.gtm_up {
            return;
        }
        self.gtm_up = false;
        self.counters.gtm_crashes += 1;
        let now = self.journal_now_us();
        self.journal
            .append(now, "crash", None, "gtm process killed".into());
        if let Some(t) = &self.tel {
            t.tel.tracer.instant("crash", &[("target", "gtm")]);
        }
    }

    /// Restart the GTM, rebuilding its commit log from the data nodes'
    /// durable clogs (commit-at-GTM-first makes a locally-committed leg
    /// proof of a GTM commit; everything else is presumed abort). Once
    /// rebuilt, in-doubt legs on every *running* node are resolved; nodes
    /// that are themselves down resolve on their own restart.
    pub fn restart_gtm(&mut self) {
        if self.gtm_up {
            return;
        }
        let mut observations = Vec::new();
        let mut max_gxid = 0;
        for node in &self.nodes {
            max_gxid = max_gxid.max(node.mgr().max_gxid());
            // Durable per-DN state (clog + xidMap) survives even if the
            // node's process is currently down — recovery reads the logs.
            // A *live* node additionally reports its received-but-unapplied
            // commit decisions (pending markers): it heard the lost GTM
            // decide commit, and that knowledge must not be recovered away.
            for (&gxid, &local) in node.mgr().xid_map() {
                let committed =
                    node.mgr().clog().is_committed(local) || node.is_pending_commit(local);
                observations.push((gxid, committed));
            }
        }
        self.gtm = Gtm::recover_from_observations(observations, max_gxid);
        self.gtm_up = true;
        self.counters.gtm_restarts += 1;
        let now = self.journal_now_us();
        self.journal
            .append(now, "restart", None, "gtm recovered from dn clogs".into());
        if let Some(t) = &self.tel {
            // The recovered instance is a fresh `Gtm`: re-resolve its metric
            // handles so its interactions keep landing in the same series.
            self.gtm.attach_telemetry(&t.tel.metrics);
            t.restart_gtm.inc();
            t.tel.tracer.instant("restart", &[("target", "gtm")]);
        }
        for i in 0..self.nodes.len() {
            if !self.down[i] {
                self.resolve_in_doubt_on(i);
            }
        }
    }

    /// Promote the most caught-up follower of a down shard to primary:
    /// replay the shard log to its head (so no committed write is lost),
    /// reconstruct in-doubt 2PC legs from the shipped `Prepare` records,
    /// bump the shard's epoch (fencing every leg opened against the dead
    /// primary), and resolve the reconstructed in-doubt legs against the
    /// GTM. The dead node keeps its durable state, which is the log prefix
    /// at its crash, and is parked as a follower at that CSN
    /// ([`Follower::rejoin`]); its scheduled restart adds it to the
    /// follower set. Returns `true` if a promotion happened; `false` when
    /// the shard is up, replication is off, or no follower exists.
    pub fn try_failover(&mut self, shard: ShardId) -> Result<bool> {
        let i = shard.raw() as usize;
        if self.cfg.replicas == 0 || !self.down[i] {
            return Ok(false);
        }
        let Some((follower, replayed)) = self.replicas[i].take_promoted()? else {
            return Ok(false);
        };
        let mut node = follower.node;
        node.set_record_redo(true);
        let in_doubt = node.in_doubt_legs().len();
        let dead = std::mem::replace(&mut self.nodes[i], node);
        // Parked before the promoted node resolves its in-doubt legs: those
        // `Resolve` records are the first the rejoined follower applies.
        self.rejoining[i] = Some(Follower::rejoin(dead, &self.replicas[i].log)?);
        self.down[i] = false;
        self.epochs[i] += 1;
        self.counters.promotions += 1;
        let now = self.journal_now_us();
        self.journal.append(
            now,
            "promote",
            Some(i as u64),
            format!(
                "replayed={replayed} in_doubt={in_doubt} epoch={}",
                self.epochs[i]
            ),
        );
        if let Some(t) = &self.tel {
            if let Some(c) = &t.promote {
                c.inc();
            }
            t.tel.tracer.instant(
                "replica.promote",
                &[
                    ("shard", &i.to_string()),
                    ("replayed", &replayed.to_string()),
                    ("in_doubt", &in_doubt.to_string()),
                ],
            );
        }
        if self.gtm_up {
            self.resolve_in_doubt_on(i);
        }
        Ok(true)
    }

    /// Ship up to `budget` log records to each follower of every shard —
    /// the asynchronous log-shipping step, driven by harnesses at
    /// deterministic points (0 = unbounded, i.e. catch every follower up to
    /// the log head). Returns the number of records applied.
    pub fn pump_replication(&mut self, budget: usize) -> Result<u64> {
        let mut applied = 0;
        for rs in &mut self.replicas {
            applied += rs.pump(budget)?;
        }
        if applied > 0 {
            if let Some(t) = &self.tel {
                if let Some(c) = &t.replica_apply {
                    c.add(applied);
                }
            }
        }
        if self.cfg.replicas > 0 {
            self.health_tick();
        }
        Ok(applied)
    }

    /// The per-tick health plane: refresh the worst-shard `replica.lag`
    /// gauge and the per-shard lag/health gauges, and journal health
    /// transitions. Observation-only by construction — nothing here feeds
    /// back into routing or recovery.
    fn health_tick(&mut self) {
        let lags = self.shard_lags();
        if let Some(t) = &self.tel {
            if let Some(g) = &t.replica_lag {
                g.set(lags.iter().copied().max().unwrap_or(0) as i64);
            }
        }
        for (i, &lag) in lags.iter().enumerate() {
            let up = !self.down[i];
            let transition = self.health.observe(i, up, lag);
            if let Some(t) = &self.tel {
                if let Some(gs) = &t.shard_lag {
                    gs[i].set(lag as i64);
                }
                if let Some(gs) = &t.shard_health {
                    gs[i].set(self.health.is_healthy(i) as i64);
                }
            }
            if let Some(now_ok) = transition {
                let now = self.journal_now_us();
                self.journal.append(
                    now,
                    if now_ok {
                        "health.recovered"
                    } else {
                        "health.degraded"
                    },
                    Some(i as u64),
                    format!("lag={lag} up={up}"),
                );
            }
        }
    }

    /// Per-shard replication lag: log head minus the slowest follower's
    /// CSN (0 with no followers — nothing is waiting on replication).
    pub fn shard_lags(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| {
                let head = r.log.head();
                let slowest = r.csns().into_iter().min().unwrap_or(head);
                head.saturating_sub(slowest)
            })
            .collect()
    }

    /// The crash/recovery/promotion journal (the `sys.events` source).
    pub fn events(&self) -> impl Iterator<Item = &SysEvent> {
        self.journal.iter()
    }

    /// Events evicted from the bounded journal ring (the `events.dropped`
    /// counter `sys.metrics` exposes).
    pub fn events_dropped(&self) -> u64 {
        self.journal.dropped()
    }

    /// Append an observation-only event from an outer layer (the SQL facade
    /// journals `history.regression` findings here). Timestamped from the
    /// telemetry clock like every other journal entry; never feeds back
    /// into routing or recovery.
    pub fn journal_event(&mut self, kind: &str, shard: Option<u64>, detail: String) {
        let now = self.journal_now_us();
        self.journal.append(now, kind, shard, detail);
    }

    /// Per-shard follower CSNs (applied log-prefix lengths) — outer index
    /// is the shard, inner the follower. Empty inner vecs when replication
    /// is off.
    pub fn replica_csns(&self) -> Vec<Vec<u64>> {
        self.replicas.iter().map(|r| r.csns()).collect()
    }

    /// Compare every shard's primary (while it is up) and followers with a
    /// follower replayed from record 0 of the shard's log: table rows,
    /// dedup entries, in-doubt gxids and followers' applied CSNs. Returns
    /// one line per divergence; empty when replication is off, as there is
    /// no log to replay.
    pub(crate) fn replica_divergences(&self) -> Vec<String> {
        if self.cfg.replicas == 0 {
            return Vec::new();
        }
        let primary = |i: usize| (!self.down[i]).then(|| &self.nodes[i]);
        (self.map.all().zip(&self.replicas))
            .flat_map(|(s, rs)| rs.divergences(s, primary(s.raw() as usize)))
            .collect()
    }

    /// Per-shard commit-log heads.
    pub fn log_heads(&self) -> Vec<u64> {
        self.replicas.iter().map(|r| r.log.head()).collect()
    }

    /// Every shard currently rejecting requests.
    pub fn down_shards(&self) -> Vec<ShardId> {
        self.map
            .all()
            .filter(|s| self.down[s.raw() as usize])
            .collect()
    }

    /// The current primary epoch of `shard` (0 until a promotion).
    pub fn epoch_of(&self, shard: ShardId) -> u64 {
        self.epochs[shard.raw() as usize]
    }

    /// Tag every open leg of `txn` with the statement identity `(stmt_id,
    /// rows)` — the idempotence key published to the DN's dedup table at
    /// commit, and shipped to followers so a promoted primary still answers
    /// duplicates. `rows` is the statement-*total* rowcount: any single
    /// surviving leg can answer a duplicate in full.
    pub(crate) fn tag_statement(&mut self, txn: &Txn, stmt_id: u64, rows: u64) {
        match &txn.kind {
            TxnKind::LiteSingle {
                shard, xid, epoch, ..
            } => {
                let i = shard.raw() as usize;
                if !self.down[i] && self.epochs[i] == *epoch {
                    self.nodes[i].tag_statement(*xid, stmt_id, rows);
                }
            }
            TxnKind::LiteMulti { legs, .. } => {
                for (&s, leg) in legs {
                    if self.leg_reachable(s, leg) {
                        self.nodes[s as usize].tag_statement(leg.xid, stmt_id, rows);
                    }
                }
            }
            TxnKind::Baseline { .. } => {}
        }
    }

    /// Did a previously-committed statement with this ID land on `shard`?
    /// Returns the statement-total rowcount it reported. `None` while the
    /// shard is down (the retry loop fails over first, then re-asks).
    pub(crate) fn stmt_applied_on(&self, shard: ShardId, stmt_id: u64) -> Option<u64> {
        let i = shard.raw() as usize;
        if self.down[i] {
            return None;
        }
        self.nodes[i].stmt_applied(stmt_id)
    }

    /// Create a SQL table on `shard`'s primary and replicate the DDL so
    /// followers (and future rejoiners) converge on the same schema.
    pub(crate) fn create_sql_table_on(
        &mut self,
        shard: ShardId,
        name: &str,
        schema: Schema,
    ) -> Result<()> {
        self.check_node(shard)?;
        let table = self.nodes[shard.raw() as usize].create_sql_table(name, schema.clone())?;
        if self.cfg.replicas > 0 {
            self.replicas[shard.raw() as usize].append(LogRecord::Ddl {
                op: ReplOp::CreateSqlTable {
                    name: name.to_string(),
                    table,
                    schema,
                },
            });
        }
        Ok(())
    }

    /// Create a secondary index on `shard`'s slice of SQL table `name` and
    /// replicate the DDL so followers (and future rejoiners) build the same
    /// probe path before any rows arrive.
    pub(crate) fn create_sql_index_on(
        &mut self,
        shard: ShardId,
        name: &str,
        columns: Vec<usize>,
    ) -> Result<()> {
        self.check_node(shard)?;
        let node = &mut self.nodes[shard.raw() as usize];
        let table = node.table_id(name)?;
        node.create_sql_index(table, columns.clone())?;
        if self.cfg.replicas > 0 {
            self.replicas[shard.raw() as usize].append(LogRecord::Ddl {
                op: ReplOp::CreateSqlIndex { table, columns },
            });
        }
        Ok(())
    }

    /// Begin a transaction. This is the single entry point of the session
    /// API: [`TxnOptions`] selects the scope (single- vs multi-shard). The
    /// begin first checks that the coordinator it needs is up (the home
    /// node of a GTM-lite single-shard transaction, the GTM otherwise) and
    /// fails fast with `Unavailable` so a retrying CN can back off. A
    /// multi-shard or baseline begin then takes a fresh global snapshot.
    pub fn begin(&mut self, opts: TxnOptions) -> Result<Txn> {
        let lite_single = match (opts.scope, self.cfg.protocol) {
            (TxnScope::Single(p), Protocol::GtmLite) => Some(self.map.shard_of_prefix(p)),
            _ => None,
        };
        match lite_single {
            Some(shard) => self.check_node(shard)?,
            None => self.check_gtm()?,
        }
        if let Some(t) = &self.tel {
            match opts.scope {
                TxnScope::Single(_) => t.begin_single.inc(),
                TxnScope::Multi => t.begin_distributed.inc(),
            }
        }
        let kind = if let Some(shard) = lite_single {
            let epoch = self.epochs[shard.raw() as usize];
            let node = &mut self.nodes[shard.raw() as usize];
            let xid = node.mgr_mut().begin_local();
            let snap = node.local_snapshot();
            TxnKind::LiteSingle {
                shard,
                xid,
                snap,
                epoch,
            }
        } else {
            // Two GTM interactions: the gxid, then a fresh global snapshot.
            let gxid = self.gtm.begin();
            let gsnap = self.gtm.snapshot();
            self.counters.gtm_interactions += 2;
            match self.cfg.protocol {
                Protocol::Baseline => TxnKind::Baseline {
                    gxid,
                    gsnap,
                    touched: BTreeSet::new(),
                },
                Protocol::GtmLite => {
                    self.live_gsnaps.insert((gsnap.xmin, gxid));
                    let legs = BTreeMap::new();
                    TxnKind::LiteMulti { gxid, gsnap, legs }
                }
            }
        };
        Ok(Txn { kind })
    }

    /// Stop counting `txn`'s global snapshot as live (a no-op for other
    /// kinds and for a snapshot already released).
    fn release_gsnap(&mut self, txn: &Txn) {
        if let TxnKind::LiteMulti { gxid, gsnap, .. } = &txn.kind {
            self.live_gsnaps.remove(&(gsnap.xmin, *gxid));
        }
    }

    /// The global-XID horizon below which no LCO entry can start a
    /// DOWNGRADE taint: the lower of the lowest `xmin` among the global
    /// snapshots that live multi-shard transactions hold and the `xmin` of
    /// any snapshot the GTM hands out from now on.
    fn lco_horizon(&self) -> Xid {
        match self.live_gsnaps.first() {
            Some(&(xmin, _)) => self.gtm.xmin().min(xmin),
            None => self.gtm.xmin(),
        }
    }

    /// Global snapshots held by open multi-shard transactions: `prepare`
    /// (which aborts on a no vote) or `abort` releases one. A [`Txn`]
    /// dropped before either holds the LCO pruning horizon down for good:
    /// correct, but nothing is cut below it again.
    pub fn live_snapshot_count(&self) -> usize {
        self.live_gsnaps.len()
    }

    /// Cut `shard`'s LCO below [`Self::lco_horizon`]. Every merge over the
    /// cut LCO returns what the full walk would
    /// ([`hdm_txn::LocalTxnManager::prune_lco_below`]).
    fn prune_lco(&mut self, shard: ShardId) {
        let horizon = self.lco_horizon();
        self.nodes[shard.raw() as usize]
            .mgr_mut()
            .prune_lco_below(horizon);
    }

    /// Route `key` to its shard and make `txn` ready to touch it there: a
    /// baseline transaction records the shard, a single-shard one checks
    /// its scope and fence, a multi-shard one opens its leg.
    fn kv_shard(&mut self, txn: &mut Txn, key: i64) -> Result<ShardId> {
        let shard = self.map.shard_of_key(key);
        self.check_node(shard)?;
        match &mut txn.kind {
            TxnKind::Baseline { touched, .. } => {
                touched.insert(shard.raw());
            }
            TxnKind::LiteSingle {
                shard: own_shard,
                epoch,
                ..
            } => {
                if shard != *own_shard {
                    return Err(HdmError::TxnState(format!(
                        "single-shard transaction on {own_shard} touched key {key} on {shard}"
                    )));
                }
                let epoch = *epoch;
                self.check_epoch(shard, epoch)?;
            }
            TxnKind::LiteMulti { .. } => self.ensure_leg(txn, shard)?,
        }
        Ok(shard)
    }

    /// The xid `txn` writes `shard` as, and the judge it reads `shard`'s
    /// rows by: the GTM's snapshot and clog under the baseline protocol,
    /// the shard's own (the leg's merged snapshot for a multi-shard
    /// transaction) under GTM-lite. The leg must be open ([`Self::kv_shard`]).
    fn kv_view<'a>(&'a self, txn: &'a Txn, shard: ShardId) -> (Xid, SnapshotVisibility<'a>) {
        let node = &self.nodes[shard.raw() as usize];
        let (xid, snap, clog) = match &txn.kind {
            TxnKind::Baseline { gxid, gsnap, .. } => (*gxid, gsnap, self.gtm.clog()),
            TxnKind::LiteSingle { xid, snap, .. } => (*xid, snap, node.mgr().clog()),
            TxnKind::LiteMulti { legs, .. } => {
                let leg = &legs[&shard.raw()];
                (leg.xid, &leg.merged, node.mgr().clog())
            }
        };
        (xid, SnapshotVisibility::new(snap, clog, Some(xid)))
    }

    /// Read `key` in `txn`.
    pub fn get(&mut self, txn: &mut Txn, key: i64) -> Result<Option<i64>> {
        let shard = self.kv_shard(txn, key)?;
        let (_, judge) = self.kv_view(txn, shard);
        self.nodes[shard.raw() as usize].get(&judge, key)
    }

    /// All visible values for `key` in a GTM-lite multi-shard `txn` — the
    /// anomaly-observable read: a consistent view returns at most one value,
    /// the naive merge can return several (paper Fig 2's tuple table).
    pub fn get_versions(&mut self, txn: &mut Txn, key: i64) -> Result<Vec<i64>> {
        let shard = self.kv_shard(txn, key)?;
        let Some(leg) = txn.leg(shard) else {
            return self.get(txn, key).map(|v| v.into_iter().collect());
        };
        self.nodes[shard.raw() as usize].get_versions_local(&leg.merged, Some(leg.xid), key)
    }

    /// Upsert `key = val` in `txn`.
    pub fn put(&mut self, txn: &mut Txn, key: i64, val: i64) -> Result<()> {
        let shard = self.kv_shard(txn, key)?;
        let (xid, judge) = self.kv_view(txn, shard);
        let old = self.nodes[shard.raw() as usize].kv_find(&judge, key)?;
        self.nodes[shard.raw() as usize].put(xid, old, key, val)
    }

    /// First touch of `shard` by a multi-shard GTM-lite transaction: begin
    /// the local leg, take the local snapshot, and run Algorithm 1 (or the
    /// naive union under [`MergePolicy::Naive`]). UPGRADE waits are resolved
    /// by finishing the pending commits and re-merging.
    pub(crate) fn ensure_leg(&mut self, txn: &mut Txn, shard: ShardId) -> Result<()> {
        let TxnKind::LiteMulti { gxid, gsnap, legs } = &mut txn.kind else {
            return Err(HdmError::TxnState("ensure_leg on non-multi txn".into()));
        };
        if let Some(leg) = legs.get(&shard.raw()) {
            // A leg that predates a promotion is fenced: its XID belongs to
            // the dead primary's namespace.
            return self.check_epoch(shard, leg.epoch);
        }
        // Opening a leg consults the GTM (UPGRADE classifies pending commits
        // against its clog); during a GTM outage the statement fails fast and
        // the CN backs off rather than reading a dead coordinator's memory.
        if !self.gtm_up {
            return Err(HdmError::Unavailable("GTM is down".into()));
        }
        let epoch = self.epochs[shard.raw() as usize];
        let node = &mut self.nodes[shard.raw() as usize];
        let replicas = &mut self.replicas[shard.raw() as usize];
        let xid = node.mgr_mut().begin_global(*gxid);

        let merged = match self.cfg.merge_policy {
            MergePolicy::Naive => {
                // Lines 1–4 only: union the active sets, skip both repairs.
                let mut s = node.local_snapshot();
                let globals = gsnap.active.iter().filter_map(|&g| node.mgr().local_of(g));
                s.active.extend(globals);
                s.normalize();
                self.counters.merges += 1;
                s
            }
            MergePolicy::Full => {
                let mut rounds = 0;
                loop {
                    rounds += 1;
                    if rounds > 10 {
                        return Err(HdmError::TxnState(
                            "UPGRADE did not quiesce after 10 rounds".into(),
                        ));
                    }
                    let local = node.local_snapshot();
                    let out =
                        merge_with_manager(gsnap, &local, node.mgr(), |g| self.gtm.is_committed(g));
                    self.counters.merges += 1;
                    self.counters.downgrades += out.downgraded.len() as u64;
                    if out.upgrade_waits.is_empty() {
                        break out.merged;
                    }
                    // The paper's wait-for-commit: the decision is already
                    // durable at the GTM, so the reader completes the local
                    // commits instead of blocking. Each flip closes some
                    // other transaction's commit window and is logged at
                    // once, so an error later in the merge cannot leave the
                    // log behind the primary.
                    self.counters.upgrade_waits += out.upgrade_waits.len() as u64;
                    for w in out.upgrade_waits {
                        if !node.is_pending_commit(w) {
                            return Err(HdmError::TxnState(format!(
                                "UPGRADE wait on {w} which is not pending-commit"
                            )));
                        }
                        if node.finish_commit(w)? && self.cfg.replicas > 0 {
                            if let Some(g) = node.mgr().gxid_of(w) {
                                replicas.resolve(g, true);
                            }
                        }
                    }
                }
            }
        };
        let leg = Leg {
            xid,
            merged,
            epoch,
            finished: false,
        };
        legs.insert(shard.raw(), leg);
        Ok(())
    }

    /// Commit `txn`: [`Self::prepare`], [`Self::decide`] and
    /// [`Self::finish_all`] in order. A commit that fails leaves nothing
    /// behind: one call cannot wait out a GTM outage, so a handle that
    /// `decide` gives back is aborted here.
    pub fn commit(&mut self, txn: Txn) -> Result<()> {
        let prepared = self.prepare(txn)?;
        match self.decide(prepared) {
            Ok(decided) => self.finish_all(decided),
            Err(Undecided { error, retry }) => {
                retry.map_or(Ok(()), |p| self.abort(p.txn))?;
                Err(error)
            }
        }
    }

    /// Can the decision reach `leg` on shard `s`? Not while the node is
    /// down, nor once a promotion has fenced the leg's epoch.
    fn leg_reachable(&self, s: u64, leg: &Leg) -> bool {
        !self.down[s as usize] && (self.cfg.replicas == 0 || self.epochs[s as usize] == leg.epoch)
    }

    /// 2PC phase 1: prepare every leg of a GTM-lite multi-shard `txn` (a
    /// no-op for the other kinds). A leg that wrote nothing votes read-only:
    /// its DN forgets it, no `Prepare` record ships, and its finish is a no-op.
    /// A leg that cannot vote (down, fenced or refused) votes no: this step
    /// then aborts `txn` everywhere before it returns `TxnAborted`.
    pub fn prepare(&mut self, txn: Txn) -> Result<Prepared> {
        let TxnKind::LiteMulti { gxid, legs, .. } = &txn.kind else {
            return Ok(Prepared { txn });
        };
        // The read phase is over: no merge reads this snapshot again.
        self.release_gsnap(&txn);
        let mut refused = None;
        for (&s, leg) in legs {
            let vote = if self.leg_reachable(s, leg) {
                self.nodes[s as usize].prepare_leg(leg.xid).ok()
            } else {
                None
            };
            if let Some(t) = &self.tel {
                match &vote {
                    Some(Some(_)) => t.prepare_yes.inc(),
                    Some(None) => t.prepare_read_only.inc(),
                    None => t.prepare_no.inc(),
                }
            }
            match vote {
                // Prepares ship their ops Raft-style: a promoted follower
                // reconstructs the in-doubt leg from the log.
                Some(Some((ops, stmt))) if self.cfg.replicas > 0 => {
                    self.replicas[s as usize].append(LogRecord::Prepare {
                        gxid: *gxid,
                        ops,
                        stmt,
                    });
                }
                Some(_) => {}
                None => {
                    refused = Some(s);
                    break;
                }
            }
        }
        if let Some(s) = refused {
            self.abort(txn)?;
            return Err(HdmError::TxnAborted(format!("prepare failed on shard {s}")));
        }
        Ok(Prepared { txn })
    }

    /// Decide commit, the commit point: a single-shard transaction commits
    /// on its node, any other at the GTM ("marked committed in GTM first and
    /// then on all nodes"); prepared legs turn pending, the Anomaly-1 window
    /// open until they finish. While the GTM is down the handle comes back
    /// in [`Undecided::retry`]. A gxid recovery presumed aborted cannot
    /// commit: this step aborts the transaction before it returns.
    pub fn decide(&mut self, p: Prepared) -> std::result::Result<Decided, Undecided> {
        let aborted = |error| Undecided { error, retry: None };
        let gxid = match &p.txn.kind {
            TxnKind::LiteSingle {
                shard, xid, epoch, ..
            } => {
                // A down or fenced home node took the transaction with it;
                // `abort` counts it and skips the unreachable node.
                let (shard, i) = (*shard, shard.raw() as usize);
                let reachable = self.check_node(shard);
                if let Err(e) = reachable.and_then(|()| self.check_epoch(shard, *epoch)) {
                    self.abort(p.txn).map_err(aborted)?;
                    return Err(aborted(e));
                }
                let (ops, stmt) = self.nodes[i].commit_local(*xid).map_err(aborted)?;
                self.prune_lco(shard);
                if self.cfg.replicas > 0 && (!ops.is_empty() || stmt.is_some()) {
                    self.replicas[i].append(LogRecord::Commit { ops, stmt });
                }
                self.count_commit(false);
                return Ok(Decided { txn: p.txn });
            }
            TxnKind::Baseline { gxid, .. } | TxnKind::LiteMulti { gxid, .. } => *gxid,
        };
        if let Err(error) = self.check_gtm() {
            let retry = Some(p);
            return Err(Undecided { error, retry });
        }
        if let Err(e) = self.gtm.commit(gxid) {
            self.abort(p.txn).map_err(aborted)?;
            return Err(aborted(e));
        }
        self.counters.gtm_interactions += 1;
        match &p.txn.kind {
            // Visibility flipped at the GTM: every DN consults its clog.
            TxnKind::Baseline { touched, .. } => {
                for &s in touched {
                    self.nodes[s as usize].clear_undo(gxid);
                }
                self.count_commit(touched.len() > 1);
            }
            TxnKind::LiteMulti { legs, .. } => {
                for (&s, leg) in legs {
                    // A down or fenced leg resolves from its durable
                    // prepare record at restart or on the promoted primary.
                    let reachable = self.leg_reachable(s, leg);
                    let node = &mut self.nodes[s as usize];
                    if reachable && node.mgr().clog().is_prepared(leg.xid) {
                        node.mark_pending_commit(leg.xid);
                    }
                }
                self.count_commit(true);
            }
            TxnKind::LiteSingle { .. } => unreachable!(),
        }
        Ok(Decided { txn: p.txn })
    }

    fn count_commit(&mut self, multi: bool) {
        if multi {
            self.counters.multi_shard_commits += 1;
        } else {
            self.counters.single_shard_commits += 1;
        }
        if let Some(t) = &self.tel {
            let c = if multi {
                &t.commit_distributed
            } else {
                &t.commit_single
            };
            c.inc();
        }
    }

    /// Deliver the decision to the leg of `decided` on `shard`: the
    /// retransmission unit of 2PC phase two. Fails with `Unavailable` while
    /// the node is down (back off and retry). Delivering it again, or to a
    /// leg that voted read-only, a reader's UPGRADE completed, recovery
    /// resolved or a promotion fenced, is a no-op.
    pub fn finish_leg(&mut self, decided: &mut Decided, shard: ShardId) -> Result<()> {
        let Some(leg) = decided.txn.leg(shard) else {
            return Err(HdmError::TxnState(format!("{shard} is not a leg")));
        };
        self.check_node(shard)?;
        let (i, xid) = (shard.raw() as usize, leg.xid);
        // A forgotten read-only xid reads aborted; a prepared leg cannot
        // abort once the GTM committed.
        if self.leg_reachable(shard.raw(), leg)
            && self.nodes[i].mgr().status(xid) != TxnStatus::Aborted
        {
            let flipped = self.nodes[i].finish_commit(xid)?;
            self.prune_lco(shard);
            if let Some(t) = &self.tel {
                t.leg_finish.inc();
            }
            if flipped && self.cfg.replicas > 0 {
                if let Some(g) = self.nodes[i].mgr().gxid_of(xid) {
                    self.replicas[i].resolve(g, true);
                }
            }
        }
        if let TxnKind::LiteMulti { legs, .. } = &mut decided.txn.kind {
            legs.get_mut(&shard.raw()).expect("a leg").finished = true;
        }
        Ok(())
    }

    /// Deliver the decision to every unfinished leg whose node is up. A
    /// down leg completes through in-doubt recovery when it restarts, so
    /// skipping it cannot lose the commit.
    pub fn finish_all(&mut self, mut decided: Decided) -> Result<()> {
        loop {
            let up = decided.unfinished().find(|&s| self.is_node_up(s));
            let Some(shard) = up else { return Ok(()) };
            self.finish_leg(&mut decided, shard)?;
        }
    }

    /// Give up a prepared transaction: [`Self::abort`] for a handle that
    /// [`Self::decide`] gave back.
    pub fn abort_prepared(&mut self, prepared: Prepared) -> Result<()> {
        self.abort(prepared.txn)
    }

    /// Abort `txn`, rolling back its writes everywhere.
    ///
    /// Fault-tolerant: legs on down nodes are skipped (their in-progress
    /// state died with the crash; prepared ones resolve presumed-abort from
    /// the clog at restart), legs crash recovery already terminated are left
    /// alone, and a down GTM is skipped (its recovered clog presumes the
    /// abort anyway). The happy path is unchanged.
    pub fn abort(&mut self, txn: Txn) -> Result<()> {
        self.release_gsnap(&txn);
        self.counters.aborts += 1;
        if let Some(t) = &self.tel {
            t.aborts.inc();
        }
        match txn.kind {
            TxnKind::Baseline { gxid, touched, .. } => {
                for s in &touched {
                    self.nodes[*s as usize].rollback_writes(gxid)?;
                }
                self.gtm.abort(gxid)?;
                self.counters.gtm_interactions += 1;
                Ok(())
            }
            TxnKind::LiteSingle {
                shard, xid, epoch, ..
            } => {
                // A down or fenced node took the transaction with it (a
                // fenced xid never reached the promoted primary).
                let live = self.is_node_up(shard) && self.check_epoch(shard, epoch).is_ok();
                let node = &mut self.nodes[shard.raw() as usize];
                if live && node.mgr().is_active(xid) {
                    node.rollback_writes(xid)?;
                    node.mgr_mut().abort(xid)?;
                }
                Ok(())
            }
            TxnKind::LiteMulti { gxid, legs, .. } => {
                for (&s, leg) in &legs {
                    if !self.leg_reachable(s, leg) {
                        continue;
                    }
                    let node = &mut self.nodes[s as usize];
                    let status = node.mgr().status(leg.xid);
                    if matches!(status, TxnStatus::InProgress | TxnStatus::Prepared) {
                        node.rollback_writes(leg.xid)?;
                        node.mgr_mut().abort(leg.xid)?;
                        // A prepared leg shipped a Prepare record; followers
                        // must learn the abort or the leg stays in doubt on
                        // a future promoted primary.
                        if status == TxnStatus::Prepared && self.cfg.replicas > 0 {
                            self.replicas[s as usize].resolve(gxid, false);
                        }
                    }
                }
                if self.gtm_up {
                    // Tolerate gxids a recovered GTM already resolved (or
                    // never observed).
                    let _ = self.gtm.abort(gxid);
                    self.counters.gtm_interactions += 1;
                }
                Ok(())
            }
        }
    }

    /// Ask the GTM for the final verdict on `gxid` — the coordinator's last
    /// step before confirming a commit to the client. `false` means the
    /// transaction was (or will be, everywhere) resolved aborted; after a
    /// GTM crash this is exactly the presumed-abort rule applied to the
    /// recovered clog.
    pub fn gtm_commit_status(&mut self, gxid: Xid) -> Result<bool> {
        self.check_gtm()?;
        self.counters.gtm_interactions += 1;
        Ok(self.gtm.is_committed(gxid))
    }

    /// Report one coalesced GTM service event of `size` requests — the
    /// timed harness's group-commit window feeding the functional GTM's
    /// batch counters and `gtm.batch.*` series (the timing itself is the
    /// harness's job).
    pub fn note_gtm_batch(&mut self, size: u64) {
        self.gtm.note_batch(size);
    }

    /// Record one CN-side retry (the timed harnesses charge backoff latency
    /// themselves; the engine just keeps the count observable).
    pub fn record_retry(&mut self) {
        self.counters.retries += 1;
        if let Some(t) = &self.tel {
            t.retries.inc();
        }
    }

    /// A consistent snapshot of every shard's visible `(key, value)` pairs
    /// — the HTAP replica-sync read path ("eliminating the analytic latency
    /// and data movement across OLAP and OLTP database management systems",
    /// §II-A: the analytical side reads the transactional state directly).
    pub fn snapshot_all(&self) -> Vec<(i64, i64)> {
        let mut out = Vec::new();
        for node in &self.nodes {
            let (snap, clog) = match self.cfg.protocol {
                Protocol::Baseline => (self.gtm.peek_snapshot(), self.gtm.clog()),
                Protocol::GtmLite => (node.local_snapshot(), node.mgr().clog()),
            };
            out.extend(node.snapshot_rows(&SnapshotVisibility::new(&snap, clog, None)));
        }
        out.sort_unstable();
        out
    }

    /// Convenience for benches/tests: run a read-your-writes transaction
    /// that bumps `key` by `delta`, committing it. Returns the new value.
    pub fn bump(&mut self, single_prefix: Option<u32>, key: i64, delta: i64) -> Result<i64> {
        let mut txn = self.begin(match single_prefix {
            Some(p) => TxnOptions::single(p),
            None => TxnOptions::multi(),
        })?;
        let bumped = self.get(&mut txn, key).and_then(|old| {
            let new = old.unwrap_or(0) + delta;
            self.put(&mut txn, key, new).map(|()| new)
        });
        match bumped {
            Ok(new) => self.commit(txn).map(|()| new),
            Err(e) => self.abort(txn).and(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::make_key;

    fn lite(shards: usize) -> Cluster {
        Cluster::new(ClusterConfig::gtm_lite(shards))
    }

    fn baseline(shards: usize) -> Cluster {
        Cluster::new(ClusterConfig::baseline(shards))
    }

    #[test]
    fn lite_single_shard_never_touches_gtm() {
        let mut c = lite(4);
        for w in 0..8u32 {
            c.bump(Some(w), make_key(w, 1), 5).unwrap();
        }
        assert_eq!(c.counters().gtm_interactions, 0);
        assert_eq!(c.counters().single_shard_commits, 8);
        assert_eq!(c.gtm().counters().total(), 0);
    }

    #[test]
    fn baseline_always_touches_gtm() {
        let mut c = baseline(4);
        for w in 0..8u32 {
            c.bump(Some(w), make_key(w, 1), 5).unwrap();
        }
        // 2 interactions at begin (+1 at commit) per transaction.
        assert_eq!(c.counters().gtm_interactions, 8 * 3);
    }

    #[test]
    fn lite_multi_shard_reads_own_writes_and_commits() {
        let mut c = lite(4);
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        let (k1, k2) = (make_key(0, 1), make_key(1, 1));
        c.put(&mut t, k1, 10).unwrap();
        c.put(&mut t, k2, 20).unwrap();
        assert_eq!(c.get(&mut t, k1).unwrap(), Some(10));
        c.commit(t).unwrap();

        let mut r = c.begin(TxnOptions::multi()).unwrap();
        assert_eq!(c.get(&mut r, k1).unwrap(), Some(10));
        assert_eq!(c.get(&mut r, k2).unwrap(), Some(20));
        c.commit(r).unwrap();
        // Both the writer and the reader committed as multi-shard.
        assert_eq!(c.counters().multi_shard_commits, 2);
    }

    #[test]
    fn values_survive_protocol_mix_of_readers_and_writers() {
        let mut c = lite(2);
        let k = make_key(3, 9);
        c.bump(Some(3), k, 7).unwrap();
        c.bump(None, k, 3).unwrap(); // multi-shard writer on same key
        assert_eq!(c.bump(Some(3), k, 0).unwrap(), 10);
    }

    #[test]
    fn abort_rolls_back_across_shards() {
        let mut c = lite(4);
        let (k1, k2) = (make_key(0, 1), make_key(1, 1));
        c.bump(None, k1, 1).unwrap();
        c.bump(None, k2, 2).unwrap();

        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, k1, 100).unwrap();
        c.put(&mut t, k2, 200).unwrap();
        c.abort(t).unwrap();

        let mut r = c.begin(TxnOptions::multi()).unwrap();
        assert_eq!(c.get(&mut r, k1).unwrap(), Some(1));
        assert_eq!(c.get(&mut r, k2).unwrap(), Some(2));
        c.commit(r).unwrap();
    }

    #[test]
    fn single_shard_txn_rejects_foreign_keys() {
        let mut c = lite(4);
        // Find two prefixes on different shards.
        let (a, b) = {
            let m = c.shard_map();
            let mut found = (0u32, 0u32);
            'outer: for x in 0..16 {
                for y in 0..16 {
                    if m.shard_of_prefix(x) != m.shard_of_prefix(y) {
                        found = (x, y);
                        break 'outer;
                    }
                }
            }
            found
        };
        let mut t = c.begin(TxnOptions::single(a)).unwrap();
        let err = c.get(&mut t, make_key(b, 0)).unwrap_err();
        assert_eq!(err.class(), "txn_state");
    }

    #[test]
    fn baseline_multi_shard_is_atomic() {
        let mut c = baseline(4);
        let (k1, k2) = (make_key(0, 1), make_key(1, 1));
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, k1, 5).unwrap();
        c.put(&mut t, k2, 6).unwrap();
        c.commit(t).unwrap();
        let mut r = c.begin(TxnOptions::multi()).unwrap();
        assert_eq!(c.get(&mut r, k1).unwrap(), Some(5));
        assert_eq!(c.get(&mut r, k2).unwrap(), Some(6));
        c.commit(r).unwrap();
    }

    #[test]
    fn write_write_conflict_aborts_loser() {
        let mut c = lite(1);
        let k = make_key(0, 1);
        c.bump(Some(0), k, 1).unwrap();
        let mut t1 = c.begin(TxnOptions::single(0)).unwrap();
        let mut t2 = c.begin(TxnOptions::single(0)).unwrap();
        c.put(&mut t1, k, 10).unwrap();
        let err = c.put(&mut t2, k, 20).unwrap_err();
        assert_eq!(err.class(), "txn_aborted");
        c.abort(t2).unwrap();
        c.commit(t1).unwrap();
        assert_eq!(c.bump(Some(0), k, 0).unwrap(), 10);
    }

    /// Two prefixes guaranteed to live on different shards.
    fn two_shards(c: &Cluster) -> (u32, u32) {
        let m = c.shard_map();
        for x in 0..16u32 {
            for y in 0..16u32 {
                if m.shard_of_prefix(x) != m.shard_of_prefix(y) {
                    return (x, y);
                }
            }
        }
        panic!("cluster has one shard");
    }

    #[test]
    fn crash_releases_in_progress_locks_and_rolls_back() {
        let mut c = lite(4);
        let (p1, p2) = two_shards(&c);
        let (k1, k2) = (make_key(p1, 1), make_key(p2, 1));
        c.bump(None, k1, 5).unwrap();

        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, k1, 100).unwrap();
        c.put(&mut t, k2, 200).unwrap();
        let s1 = c.shard_map().shard_of_prefix(p1);
        c.crash_node(s1);
        assert!(!c.is_node_up(s1));
        assert_eq!(c.get(&mut t, k1).unwrap_err().class(), "unavailable");
        c.restart_node(s1);

        // The crashed leg's write is gone and its lock released: a fresh
        // writer takes the key without conflict.
        assert_eq!(c.bump(Some(p1), k1, 1).unwrap(), 6);
        assert_eq!(c.node(s1).undo_len(), 0);
        // The surviving leg is still in progress; abort the handle cleanly.
        c.abort(t).unwrap();
        assert_eq!(c.counters().dn_crashes, 1);
        assert_eq!(c.counters().dn_restarts, 1);
    }

    #[test]
    fn dn_crash_between_prepare_and_decision_recovers_the_commit() {
        // The scripted scenario: a participant votes yes, crashes before the
        // decision arrives, and must learn the commit from the coordinator's
        // log at restart — releasing its locks and undo, losing nothing.
        let mut c = lite(4);
        let (p1, p2) = two_shards(&c);
        let (k1, k2) = (make_key(p1, 1), make_key(p2, 1));

        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, k1, 11).unwrap();
        c.put(&mut t, k2, 22).unwrap();
        let p = c.prepare(t).unwrap();

        let s1 = c.shard_map().shard_of_prefix(p1);
        c.crash_node(s1); // crash in the in-doubt window
        assert_eq!(c.node(s1).in_doubt_legs().len(), 1, "leg survives in doubt");

        // The decision still lands at the GTM; the down leg's confirmation
        // is skipped (it will resolve from the clog instead).
        let mut d = c.decide(p).unwrap();
        assert_eq!(c.finish_leg(&mut d, s1).unwrap_err().class(), "unavailable");
        c.finish_all(d).unwrap();

        c.restart_node(s1);
        // In-doubt resolution committed the leg: value visible, no leaks.
        assert_eq!(c.bump(Some(p1), k1, 0).unwrap(), 11);
        assert_eq!(c.bump(Some(p2), k2, 0).unwrap(), 22);
        assert!(c.node(s1).in_doubt_legs().is_empty());
        assert_eq!(c.node(s1).undo_len(), 0);
        assert_eq!(c.node(s1).mgr().active_count(), 0);
        assert_eq!(c.counters().in_doubt_commits, 1);
    }

    #[test]
    fn dn_crash_with_no_decision_presumes_abort() {
        let mut c = lite(4);
        let (p1, p2) = two_shards(&c);
        let (k1, k2) = (make_key(p1, 1), make_key(p2, 1));
        c.bump(None, k1, 5).unwrap();

        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, k1, 100).unwrap();
        c.put(&mut t, k2, 200).unwrap();
        let p = c.prepare(t).unwrap();
        let s1 = c.shard_map().shard_of_prefix(p1);
        c.crash_node(s1);

        // The coordinator gives up and aborts instead of deciding commit.
        c.abort_prepared(p).unwrap();
        c.restart_node(s1);

        // Presumed abort resolved the in-doubt leg: old value restored.
        assert_eq!(c.bump(Some(p1), k1, 0).unwrap(), 5);
        assert!(c.node(s1).in_doubt_legs().is_empty());
        assert_eq!(c.node(s1).undo_len(), 0);
        assert_eq!(c.counters().in_doubt_aborts, 1);
    }

    #[test]
    fn down_participant_makes_prepare_vote_no_and_abort() {
        let mut c = lite(4);
        let (p1, p2) = two_shards(&c);
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, make_key(p1, 1), 1).unwrap();
        c.put(&mut t, make_key(p2, 1), 2).unwrap();
        c.crash_node(c.shard_map().shard_of_prefix(p2));
        let err = c.prepare(t).unwrap_err();
        assert_eq!(err.class(), "txn_aborted");
        // Presumed abort ran inside the step: nothing is left open.
        assert_eq!(c.counters().aborts, 1);
        assert_eq!(c.gtm().active_count(), 0);
        assert_eq!(c.node(c.shard_map().shard_of_prefix(p1)).undo_len(), 0);
    }

    #[test]
    fn gtm_restart_rebuilds_decisions_from_dn_clogs() {
        let mut c = lite(4);
        let (p1, p2) = two_shards(&c);
        let (k1, k2) = (make_key(p1, 1), make_key(p2, 1));

        // A fully finished multi-shard commit: evidence in every DN clog.
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, k1, 7).unwrap();
        c.put(&mut t, k2, 8).unwrap();
        let gxid = t.gxid().unwrap();
        c.commit(t).unwrap();

        c.crash_gtm();
        assert!(!c.is_gtm_up());
        assert_eq!(
            c.begin(TxnOptions::multi()).unwrap_err().class(),
            "unavailable"
        );
        c.restart_gtm();

        // The recovered GTM remembers the commit and never reuses the gxid.
        assert!(c.gtm_commit_status(gxid).unwrap());
        let t2 = c.begin(TxnOptions::multi()).unwrap();
        assert!(t2.gxid().unwrap() > gxid);
        c.abort(t2).unwrap();
        assert_eq!(c.counters().gtm_restarts, 1);
    }

    #[test]
    fn pending_marker_on_live_node_survives_gtm_crash_as_commit_evidence() {
        // Decision reached the DNs (markers set) but no leg has applied it
        // when the GTM dies. The live nodes' markers are the only evidence
        // of the commit — recovery must honour them.
        let mut c = lite(4);
        let (p1, p2) = two_shards(&c);
        let (k1, k2) = (make_key(p1, 1), make_key(p2, 1));

        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, k1, 31).unwrap();
        c.put(&mut t, k2, 32).unwrap();
        let p = c.prepare(t).unwrap();
        let d = c.decide(p).unwrap();
        let gxid = d.gxid().unwrap();

        c.crash_gtm();
        c.restart_gtm();

        // Recovery turned the markers into commits on every live node.
        assert!(c.gtm_commit_status(gxid).unwrap());
        assert_eq!(c.bump(Some(p1), k1, 0).unwrap(), 31);
        assert_eq!(c.bump(Some(p2), k2, 0).unwrap(), 32);
        // The client's finish retransmissions are clean no-ops.
        c.finish_all(d).unwrap();
        for s in 0..4 {
            assert_eq!(c.node(ShardId::new(s)).pending_commit_len(), 0);
        }
    }

    #[test]
    fn undecided_txn_dies_with_the_gtm() {
        // Prepared everywhere but never decided: a GTM crash erases the
        // in-flight transaction, and recovery presumes the abort.
        let mut c = lite(4);
        let (p1, p2) = two_shards(&c);
        let (k1, k2) = (make_key(p1, 1), make_key(p2, 1));
        c.bump(None, k1, 5).unwrap();

        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, k1, 100).unwrap();
        c.put(&mut t, k2, 200).unwrap();
        let gxid = t.gxid().unwrap();
        let p = c.prepare(t).unwrap();

        c.crash_gtm();
        let undecided = c.decide(p).unwrap_err();
        assert_eq!(undecided.error.class(), "unavailable");
        let p = undecided.retry.expect("a GTM outage gives the handle back");
        c.restart_gtm();

        // The recovered GTM observed only prepared legs: presumed abort.
        assert!(!c.gtm_commit_status(gxid).unwrap());
        // Its in-doubt legs were resolved aborted at recovery, so the
        // coordinator's late commit attempt fails and aborts what is left.
        assert!(c.decide(p).unwrap_err().retry.is_none());
        assert_eq!(c.bump(Some(p1), k1, 0).unwrap(), 5);
        for s in 0..4 {
            let node = c.node(ShardId::new(s));
            assert!(node.in_doubt_legs().is_empty());
            assert_eq!(node.undo_len(), 0);
        }
    }

    #[test]
    fn node_restart_inquiry_forces_abort_of_undecided_gxid() {
        // The 2PC race: a participant recovers mid-protocol, before the
        // coordinator decided. Its inquiry must force the global abort so
        // the coordinator cannot commit afterwards.
        let mut c = lite(4);
        let (p1, p2) = two_shards(&c);
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, make_key(p1, 1), 1).unwrap();
        c.put(&mut t, make_key(p2, 1), 2).unwrap();
        let p = c.prepare(t).unwrap();

        let s1 = c.shard_map().shard_of_prefix(p1);
        c.crash_node(s1);
        c.restart_node(s1); // inquiry resolves presumed-abort at the GTM

        let err = c.decide(p).unwrap_err();
        assert_eq!(err.error.class(), "txn_state", "late commit rejected");
        assert!(err.retry.is_none(), "and the step aborted the rest");
        assert_eq!(c.counters().in_doubt_aborts, 1);
        assert_eq!(c.counters().aborts, 1);
        assert_eq!(c.gtm().active_count(), 0);
        for s in c.shard_map().all() {
            assert_eq!(c.node(s).mgr().active_count(), 0, "{s}");
        }
    }

    #[test]
    fn single_shard_traffic_survives_a_gtm_outage() {
        let mut c = lite(4);
        let (p1, _) = two_shards(&c);
        let k = make_key(p1, 1);
        c.crash_gtm();
        // The GTM-lite availability argument: single-shard work proceeds.
        for _ in 0..10 {
            c.bump(Some(p1), k, 1).unwrap();
        }
        assert!(c.begin(TxnOptions::multi()).is_err());
        c.restart_gtm();
        assert_eq!(c.bump(Some(p1), k, 0).unwrap(), 10);
    }

    #[test]
    fn crash_and_restart_are_idempotent() {
        let mut c = lite(2);
        let s = ShardId::new(0);
        c.crash_node(s);
        c.crash_node(s);
        c.restart_node(s);
        c.restart_node(s);
        c.crash_gtm();
        c.crash_gtm();
        c.restart_gtm();
        c.restart_gtm();
        let n = c.counters();
        assert_eq!((n.dn_crashes, n.dn_restarts), (1, 1));
        assert_eq!((n.gtm_crashes, n.gtm_restarts), (1, 1));
    }

    #[test]
    fn telemetry_labels_paths_and_survives_gtm_recovery() {
        let tel = Telemetry::simulated();
        let mut c = lite(4);
        c.attach_telemetry(&tel);
        let (p1, p2) = two_shards(&c);
        let (k1, k2) = (make_key(p1, 1), make_key(p2, 1));

        c.bump(Some(p1), k1, 5).unwrap(); // single-shard fast path
        c.bump(None, k2, 7).unwrap(); // distributed 2PC
        let t = c.begin(TxnOptions::multi()).unwrap();
        c.abort(t).unwrap();

        // Crash/restart: the recovered GTM must keep feeding the series.
        c.crash_gtm();
        c.restart_gtm();
        c.bump(None, k2, 1).unwrap();

        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("txn.begin{path=single}"), 1);
        assert_eq!(snap.counter("txn.begin{path=distributed}"), 3);
        assert_eq!(snap.counter("txn.commit{path=single}"), 1);
        assert_eq!(snap.counter("txn.commit{path=distributed}"), 2);
        assert_eq!(snap.counter("txn.abort"), 1);
        assert_eq!(snap.counter("twopc.leg.prepare{vote=yes}"), 2);
        assert_eq!(snap.counter("twopc.leg.finish"), 2);
        assert_eq!(snap.counter("recovery.restart{target=gtm}"), 1);
        assert!(
            snap.counter("gtm.begin") >= 3,
            "recovered GTM keeps counting begins: {snap:?}"
        );
        // Crash + restart landed in the trace as instantaneous spans.
        let spans = tel.tracer.finished();
        assert!(spans
            .iter()
            .any(|s| s.name == "crash" && s.field("target") == Some("gtm")));
        assert!(spans
            .iter()
            .any(|s| s.name == "restart" && s.field("target") == Some("gtm")));
    }

    /// `(lco appends, clog, xid_map, log head)` of shard `s`: what a
    /// transaction leaves behind there.
    fn trace(c: &Cluster, s: ShardId) -> (u64, usize, usize, u64) {
        let m = c.node(s).mgr();
        (
            m.lco_appends(),
            m.clog().len(),
            m.xid_map().len(),
            c.log_heads()[s.raw() as usize],
        )
    }

    #[test]
    fn a_read_only_leg_votes_read_only_and_drops_out_of_phase_two() {
        let tel = Telemetry::simulated();
        let mut cfg = ClusterConfig::gtm_lite(4);
        cfg.replicas = 1;
        let mut c = Cluster::new(cfg);
        c.attach_telemetry(&tel);
        let (p1, p2) = two_shards(&c);
        let (w, r) = (make_key(p1, 1), make_key(p2, 1));
        let (sw, sr) = (c.shard_map().shard_of_key(w), c.shard_map().shard_of_key(r));
        c.bump(Some(p2), r, 5).unwrap();
        let reader_before = trace(&c, sr);
        let (lco, clog, map, head) = trace(&c, sw);

        // Only the writing leg prepares, ships Prepare + Resolve, and finishes.
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, w, 10).unwrap();
        assert_eq!(c.get(&mut t, r).unwrap(), Some(5));
        c.commit(t).unwrap();
        assert_eq!(
            trace(&c, sr),
            reader_before,
            "the reading leg left no trace"
        );
        assert_eq!(trace(&c, sw), (lco + 1, clog + 1, map + 1, head + 2));
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("twopc.leg.prepare{vote=yes}"), 1);
        assert_eq!(snap.counter("twopc.leg.prepare{vote=read_only}"), 1);
        assert_eq!(snap.counter("twopc.leg.finish"), 1);
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        assert_eq!(c.get(&mut t, w).unwrap(), Some(10), "the commit is visible");
        c.commit(t).unwrap();

        // Aborting after the read-only vote is clean on both legs.
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, w, 11).unwrap();
        c.get(&mut t, r).unwrap();
        let p = c.prepare(t).unwrap();
        c.abort_prepared(p).unwrap();
        for s in [sw, sr] {
            let n = c.node(s);
            assert_eq!((n.undo_len(), n.pending_commit_len()), (0, 0));
            assert_eq!(n.mgr().active_count(), 0);
        }
        assert_eq!(trace(&c, sr), reader_before);
        assert_eq!(
            trace(&c, sw),
            (lco + 1, clog + 2, map + 1, head + 4),
            "Prepare + abort"
        );
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        assert_eq!(c.get(&mut t, w).unwrap(), Some(10));
        c.commit(t).unwrap();
    }

    fn gsnap_xmin(t: &Txn) -> Xid {
        let TxnKind::LiteMulti { gsnap, .. } = &t.kind else {
            unreachable!()
        };
        gsnap.xmin
    }

    fn assert_horizon_below_live(c: &Cluster, live: &[&Txn]) {
        let h = c.lco_horizon();
        for t in live {
            let xmin = gsnap_xmin(t);
            assert!(h <= xmin, "horizon {h} above a live xmin {xmin}");
        }
    }

    #[test]
    fn the_lco_horizon_never_passes_a_live_snapshot() {
        let mut c = lite(2);
        let (k0, k1) = (make_key(0, 1), make_key(1, 1));
        let mut w = c.begin(TxnOptions::multi()).unwrap();
        // `old` begins while `w` is active, so its xmin is `w`'s gxid.
        let old = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut w, k0, 1).unwrap();
        c.put(&mut w, k1, 1).unwrap();
        assert_horizon_below_live(&c, &[&old, &w]);
        c.commit(w).unwrap();
        // The GTM's oldest active gxid is now `old`'s own, above the
        // xmin `old` still reads by.
        assert!(c.gtm().xmin() > gsnap_xmin(&old));
        assert_horizon_below_live(&c, &[&old]);
        for i in 0..8 {
            c.bump(Some(0), make_key(0, 10 + i), 1).unwrap();
            c.bump(None, make_key(1, 10 + i), 1).unwrap();
            assert_horizon_below_live(&c, &[&old]);
        }
        let mut late = c.begin(TxnOptions::multi()).unwrap();
        c.get(&mut late, k0).unwrap();
        assert_horizon_below_live(&c, &[&old, &late]);
        assert_eq!(c.live_snapshot_count(), 2);
        c.abort(old).unwrap();
        c.commit(late).unwrap();
        assert_eq!(c.live_snapshot_count(), 0);
    }

    #[test]
    fn an_old_reader_keeps_the_commit_that_starts_its_taint() {
        let mut c = lite(2);
        let (k0, k1) = (make_key(0, 1), make_key(1, 1));
        c.bump(None, k0, 1).unwrap();
        // `r` begins while `w` is active: `w`'s leg must start r's taint.
        let mut w = c.begin(TxnOptions::multi()).unwrap();
        let mut r = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut w, k0, 2).unwrap();
        c.put(&mut w, k1, 2).unwrap();
        c.commit(w).unwrap();
        for i in 0..16 {
            c.bump(Some(0), make_key(0, 100 + i), 1).unwrap();
        }
        let s0 = c.shard_map().shard_of_key(k0);
        assert!(c.node(s0).mgr().lco().len() >= 17, "w's leg and later stay");
        assert_eq!(c.get(&mut r, k0).unwrap(), Some(1), "w stays downgraded");
        c.commit(r).unwrap();
        c.bump(Some(0), make_key(0, 999), 1).unwrap();
        assert!(c.node(s0).mgr().lco().is_empty(), "no reader holds it now");
    }

    fn replicated(shards: usize) -> Cluster {
        let mut cfg = ClusterConfig::gtm_lite(shards);
        cfg.replicas = 1;
        Cluster::new(cfg)
    }

    /// A sharding prefix that routes to `shard`.
    fn prefix_on(c: &Cluster, shard: ShardId) -> u32 {
        (0..)
            .find(|&p| c.shard_map().shard_of_prefix(p) == shard)
            .unwrap()
    }

    #[test]
    fn a_rejoin_resumes_at_the_crash_csn_whatever_the_history() {
        let s0 = ShardId::new(0);
        for n in [100u32, 5_000] {
            let mut c = replicated(4);
            let p = prefix_on(&c, s0);
            for j in 0..n {
                c.bump(Some(p), make_key(p, j), 1).unwrap();
            }
            c.pump_replication(0).unwrap();
            c.crash_node(s0);
            let crash_head = c.log_heads()[0];
            assert!(crash_head >= u64::from(n), "one record per load commit");
            assert!(c.try_failover(s0).unwrap());
            let k = 7;
            for j in 0..k {
                c.bump(Some(p), make_key(p, n + j), 1).unwrap();
            }
            c.restart_node(s0);
            assert_eq!(c.replica_csns()[0], vec![crash_head], "n={n}");
            assert_eq!(
                c.pump_replication(0).unwrap(),
                u64::from(k),
                "n={n}: the rejoin applies only the records appended since the crash"
            );
            assert_eq!(c.replica_csns()[0], vec![c.log_heads()[0]]);
            assert_eq!(c.counters().rejoins, 1);
            let rejoin = c.events().find(|e| e.kind == "rejoin").unwrap();
            assert!(
                rejoin.detail.ends_with(&format!("csn={crash_head}")),
                "{rejoin:?}"
            );
        }
    }

    /// In-doubt legs across every shard's primary.
    fn in_doubt_total(c: &Cluster) -> usize {
        c.shard_map()
            .all()
            .map(|s| c.node(s).in_doubt_legs().len())
            .sum()
    }

    #[test]
    fn rejoined_ex_primaries_match_a_replay_from_record_zero() {
        use crate::dist::DistDb;
        use hdm_common::SplitMix64;
        use hdm_sql::prepared::{ExecOptions, QueryApi};

        const SHARDS: u64 = 4;
        let mut db = DistDb::new(replicated(SHARDS as usize)).unwrap();
        db.execute("create table dup (k int, v int)").unwrap();
        let load: Vec<String> = (0..48)
            .flat_map(|k| std::iter::repeat_n(format!("({k},{})", k % 5), 3))
            .collect();
        db.execute(&format!("insert into dup values {}", load.join(",")))
            .unwrap();
        db.cluster_mut().pump_replication(0).unwrap();

        let mut rng = SplitMix64::new(36);
        let mut stmt_id = 0u64;
        // Keyed DML over duplicate rows, tagged for dedup, with partial
        // shipping so followers trail the primary.
        let mut dml = |db: &mut DistDb, count: usize| {
            for i in 0..count {
                let k = rng.next_below(56);
                let v = rng.next_below(5);
                let stmt = match rng.next_below(5) {
                    0 => format!("delete from dup where k = {k}"),
                    1 => format!("delete from dup where k = {k} and v = {v}"),
                    2 => format!("update dup set v = v + 1 where k = {k}"),
                    3 => format!("update dup set v = {v} where k = {k} and v > {v}"),
                    _ => format!("insert into dup values ({k},{v}),({k},{v})"),
                };
                stmt_id += 1;
                db.execute_opts(&stmt, ExecOptions::idempotent(stmt_id))
                    .unwrap();
                if i % 6 == 5 {
                    db.cluster_mut().pump_replication(2).unwrap();
                }
            }
        };

        for round in 0..2u32 {
            for s in 0..SHARDS {
                dml(&mut db, 18);
                let c = db.cluster_mut();
                let shard = ShardId::new(s);
                let other = ShardId::new((s + 1) % SHARDS);
                let (ps, po) = (prefix_on(c, shard), prefix_on(c, other));
                // A 2PC leg in doubt on the shard at its crash, decided
                // commit or abort at the GTM.
                let mut t = c.begin(TxnOptions::multi()).unwrap();
                c.put(&mut t, make_key(ps, round), i64::from(round) + 10)
                    .unwrap();
                c.put(&mut t, make_key(po, 100 + round), 1).unwrap();
                let p = c.prepare(t).unwrap();
                let decided = match (u64::from(round) + s) % 2 {
                    0 => Ok(c.decide(p).unwrap()),
                    _ => Err(p),
                };
                c.crash_node(shard);
                assert!(c.try_failover(shard).unwrap());
                match decided {
                    Ok(d) => c.finish_all(d).unwrap(),
                    Err(p) => c.abort_prepared(p).unwrap(),
                }
                // The promoted primary takes writes before the old one returns.
                dml(&mut db, 6);
                db.cluster_mut().restart_node(shard);
            }
        }
        assert_eq!(db.cluster().counters().rejoins, 2 * SHARDS);

        // One more crash with the GTM down: the leg stays in doubt on the
        // promoted primary and on the rejoined ex-primary alike.
        let c = db.cluster_mut();
        let (s0, s1) = (ShardId::new(0), ShardId::new(1));
        let (p0, p1) = (prefix_on(c, s0), prefix_on(c, s1));
        let mut t = c.begin(TxnOptions::multi()).unwrap();
        c.put(&mut t, make_key(p0, 7), 70).unwrap();
        c.put(&mut t, make_key(p1, 7), 71).unwrap();
        let _in_doubt = c.prepare(t).unwrap();
        c.crash_gtm();
        c.crash_node(s0);
        assert!(c.try_failover(s0).unwrap());
        c.restart_node(s0);
        c.pump_replication(0).unwrap();
        assert_eq!(c.replica_divergences(), Vec::<String>::new());
        assert_eq!(in_doubt_total(c), 2, "one leg per shard");

        c.restart_gtm();
        c.pump_replication(0).unwrap();
        assert_eq!(c.replica_divergences(), Vec::<String>::new());
        assert_eq!(in_doubt_total(c), 0);
    }
}
