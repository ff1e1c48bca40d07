//! The timed Fig 3 experiment.
//!
//! "We deployed the database on various cluster sizes from 1 node, 2 nodes,
//! 4 nodes up to 8 nodes. We modified the TPC-C benchmark to issue 100%
//! single-shard (SS) or 90% single-shard transactions (MS)" (§II-A).
//!
//! We reproduce the deployment as a closed-loop discrete-event simulation:
//! clients pinned to home warehouses issue short read-write transactions
//! against the *functional* cluster engine, while CPU, network and GTM time
//! are charged on virtual-time resources. Execution is fully event-staged —
//! every resource request is issued by an event scheduled at its arrival
//! instant, so FCFS queues see arrivals in order and queueing behaviour is
//! exact. Because the GTM is a single-server resource charged per
//! interaction, the baseline protocol saturates at
//! `1 / (interactions_per_txn × gtm_service)` regardless of cluster size —
//! the flattening curve of Fig 3 — while GTM-lite's single-shard fast path
//! scales with node count.
//!
//! Cost-model defaults are calibrated to a commodity 10 GbE cluster (25 µs
//! one-way LAN latency, ~50 µs of DN CPU per short transaction) and are all
//! configurable; EXPERIMENTS.md records the values each figure used.
//!
//! One modelling simplification: a transaction's *functional* reads/writes
//! execute against the cluster engine when the transaction starts, while
//! its *timing* plays out over the event chain. Fig 3 measures throughput
//! and protocol traffic, which are unaffected; the anomaly interleavings
//! are exercised by the untimed scripted scenarios instead.

use crate::engine::{Cluster, ClusterConfig, Protocol, TxnOptions};
use crate::shard::make_key;
use hdm_common::stats::Histogram;
use hdm_common::{SimDuration, SimInstant, SplitMix64, Xid};
use hdm_simnet::{Batcher, FaultConfig, FaultPlan, MsgFate, NetLink, Resource, Sim};
use hdm_telemetry::{HistogramHandle, SpanId, Telemetry};

/// Transaction mix parameters.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadMix {
    /// Fraction of transactions that are single-shard (1.0 = "SS", 0.9 = "MS").
    pub single_shard_fraction: f64,
    /// Key reads per transaction.
    pub reads_per_txn: u32,
    /// Key writes per transaction.
    pub writes_per_txn: u32,
    /// Shards a multi-shard transaction spreads its keys over.
    pub multi_shard_legs: u32,
}

impl WorkloadMix {
    /// The paper's "SS" workload: 100% single-shard.
    pub fn ss() -> Self {
        Self {
            single_shard_fraction: 1.0,
            reads_per_txn: 2,
            writes_per_txn: 2,
            multi_shard_legs: 2,
        }
    }

    /// The paper's "MS" workload: 90% single-shard.
    pub fn ms() -> Self {
        Self {
            single_shard_fraction: 0.9,
            ..Self::ss()
        }
    }

    /// A custom single-shard fraction (ablation sweeps).
    pub fn with_fraction(f: f64) -> Self {
        Self {
            single_shard_fraction: f,
            ..Self::ss()
        }
    }
}

/// Full experiment configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub nodes: usize,
    pub protocol: Protocol,
    pub mix: WorkloadMix,
    pub clients_per_node: usize,
    pub warehouses_per_node: usize,
    pub keys_per_warehouse: u32,
    /// Virtual experiment duration.
    pub horizon: SimDuration,
    pub seed: u64,
    // --- cost model (virtual time) ---
    pub cn_service: SimDuration,
    pub cn_cores_per_node: usize,
    pub dn_service_per_op: SimDuration,
    pub dn_commit_service: SimDuration,
    pub dn_prepare_service: SimDuration,
    pub dn_finish_service: SimDuration,
    /// Extra DN time to run Algorithm 1 on a multi-shard leg.
    pub merge_service: SimDuration,
    pub dn_cores_per_node: usize,
    /// GTM service time per interaction (XID, snapshot, or commit).
    pub gtm_service: SimDuration,
    /// Group-commit window for GTM requests. Zero (the default) disables
    /// batching — every request pays its own FCFS visit, bit-identical to
    /// the pre-batching model. Nonzero: the first request to reach an idle
    /// batcher opens a window; everything arriving within it rides one
    /// coalesced service event costing `gtm_service` (paid once per batch)
    /// plus `gtm_batch_per_item` per batched interaction.
    pub gtm_batch_window: SimDuration,
    /// Marginal GTM service per batched interaction (see `gtm_batch_window`).
    pub gtm_batch_per_item: SimDuration,
    /// CN-side snapshot-epoch cache: a multi-shard begin whose cached
    /// snapshot epoch still equals the latest published CSN skips the
    /// snapshot interaction (1× instead of 2× `gtm_service`). The timed
    /// layer tracks its own CSN, bumped when a commit/decide request
    /// *enters* the GTM queue — a conservative publication point, so the
    /// cache never over-hits. Only the timing is modelled: the functional
    /// cluster always takes a fresh snapshot. Why a snapshot reused within
    /// one epoch would judge visibility the same is argued, and pinned, by
    /// `hdm_txn::gtm`'s `stale_epoch_snapshot_is_visibility_equivalent`
    /// test (DESIGN.md §4d).
    pub snapshot_cache: bool,
    pub net_one_way: SimDuration,
    pub net_jitter: f64,
    /// Message-fault injection on every network hop (`None` = pristine
    /// network, bit-identical to the pre-fault model). Crash faults are the
    /// chaos harness's job; here only the latency cost of drops, duplicates
    /// and delays is charged.
    pub faults: Option<FaultConfig>,
    /// Attach a [`Telemetry`] bundle (virtual-clock) to trace every
    /// transaction as a root `txn` span with contiguous child segments
    /// (`cn.parse` → `gtm.begin` → `leg.exec` → `leg.prepare` →
    /// `gtm.decide` → `leg.finish`; the single-shard path is `cn.parse` →
    /// `dn.exec`), labelled `path=single|distributed`, plus `txn.latency`
    /// and GTM wait/service histograms. `None` = zero-overhead run.
    pub telemetry: Option<Telemetry>,
}

impl SimConfig {
    /// Calibrated defaults for `nodes` nodes under `protocol` and `mix`.
    pub fn new(nodes: usize, protocol: Protocol, mix: WorkloadMix) -> Self {
        Self {
            nodes,
            protocol,
            mix,
            clients_per_node: 48,
            warehouses_per_node: 16,
            keys_per_warehouse: 1 << 10,
            horizon: SimDuration::from_millis(250),
            seed: 0xF163,
            cn_service: SimDuration::from_micros(8),
            cn_cores_per_node: 4,
            dn_service_per_op: SimDuration::from_micros(12),
            dn_commit_service: SimDuration::from_micros(8),
            dn_prepare_service: SimDuration::from_micros(10),
            dn_finish_service: SimDuration::from_micros(5),
            merge_service: SimDuration::from_micros(3),
            dn_cores_per_node: 4,
            gtm_service: SimDuration::from_micros(2),
            gtm_batch_window: SimDuration::ZERO,
            gtm_batch_per_item: SimDuration::from_micros(1),
            snapshot_cache: false,
            net_one_way: SimDuration::from_micros(25),
            net_jitter: 0.2,
            faults: None,
            telemetry: None,
        }
    }
}

/// Results of one simulated run.
#[derive(Debug, Clone)]
pub struct SimReport {
    pub committed: u64,
    pub aborted: u64,
    /// Committed transactions per virtual second.
    pub throughput_tps: f64,
    pub p50_latency_us: u64,
    pub p99_latency_us: u64,
    /// Total GTM interactions (protocol traffic).
    pub gtm_interactions: u64,
    /// GTM busy fraction over the horizon (1.0 = the bottleneck).
    pub gtm_utilization: f64,
    /// Mean queueing delay at the GTM in µs.
    pub gtm_mean_wait_us: f64,
    /// Snapshot merges / upgrades / downgrades observed (GTM-lite only).
    pub merges: u64,
    pub upgrade_waits: u64,
    pub downgrades: u64,
    /// (messages, dropped, duplicated, delayed) on the simulated network.
    pub net_fault_stats: (u64, u64, u64, u64),
    /// GTM group-commit batches served (0 when `gtm_batch_window` is zero).
    pub gtm_batches: u64,
    /// Requests that rode those batches.
    pub gtm_batched_requests: u64,
    /// Mean members per batch (0.0 when batching never ran).
    pub gtm_mean_batch_size: f64,
    /// Timed-layer snapshot-epoch cache hits (0 when the cache is off).
    pub snapshot_cache_hits: u64,
    /// Timed-layer snapshot-epoch cache misses.
    pub snapshot_cache_misses: u64,
}

/// In-flight timing state of one transaction.
struct InFlight {
    home_wh: u32,
    start: SimInstant,
    ok: bool,
    single: bool,
    /// DN indexes of multi-shard legs (empty for single-shard).
    shards: Vec<usize>,
    /// Fan-out bookkeeping: legs not yet joined, and the join high-water.
    pending: usize,
    join_at: SimInstant,
    /// Root `txn` span and the currently-open segment (telemetry runs only).
    span: Option<SpanId>,
    seg: Option<SpanId>,
}

/// Pre-resolved telemetry handles for the timed harness.
struct SimTel {
    tel: Telemetry,
    lat_single: HistogramHandle,
    lat_distributed: HistogramHandle,
    gtm_wait: HistogramHandle,
    gtm_service: HistogramHandle,
}

struct World {
    cfg: SimConfig,
    cluster: Cluster,
    cn: Resource,
    dns: Vec<Resource>,
    gtm: Resource,
    net: NetLink,
    faults: Option<FaultPlan>,
    rng: SplitMix64,
    horizon: SimInstant,
    committed: u64,
    aborted: u64,
    latency: Histogram,
    txns: Vec<Option<InFlight>>,
    free: Vec<usize>,
    tel: Option<SimTel>,
    /// Group-commit coalescer for GTM requests (unused when the window is
    /// zero); members carry their op and marginal service weight.
    batcher: Batcher<(GtmOp, SimDuration)>,
    /// Timed-layer CSN: bumped when a commit/decide request enters the GTM
    /// queue. Drives the snapshot-epoch cache below.
    timed_csn: u64,
    /// CSN epoch of the snapshot the CNs currently hold, if any.
    cached_epoch: Option<u64>,
    cache_hits: u64,
    cache_misses: u64,
}

impl World {
    fn new(cfg: SimConfig) -> Self {
        let mut cluster = Cluster::new(match cfg.protocol {
            Protocol::Baseline => ClusterConfig::baseline(cfg.nodes),
            Protocol::GtmLite => ClusterConfig::gtm_lite(cfg.nodes),
        });
        let tel = cfg.telemetry.clone().map(|tel| SimTel {
            lat_single: tel.metrics.histogram("txn.latency", &[("path", "single")]),
            lat_distributed: tel
                .metrics
                .histogram("txn.latency", &[("path", "distributed")]),
            gtm_wait: tel.metrics.histogram("gtm.wait_us", &[]),
            gtm_service: tel.metrics.histogram("gtm.service_us", &[]),
            tel,
        });
        if let Some(st) = &tel {
            cluster.attach_telemetry(&st.tel);
        }
        let dns = (0..cfg.nodes)
            .map(|i| Resource::new(format!("dn{i}"), cfg.dn_cores_per_node))
            .collect();
        Self {
            cn: Resource::new("cn-pool", cfg.cn_cores_per_node * cfg.nodes),
            dns,
            gtm: Resource::new("gtm", 1),
            net: NetLink::new(cfg.net_one_way, cfg.net_jitter, cfg.seed ^ 0x9e37),
            faults: cfg.faults.clone().map(|f| {
                let mut plan = FaultPlan::new(cfg.seed ^ 0xFA17, f);
                if let Some(st) = &tel {
                    plan.attach_telemetry(&st.tel.metrics);
                }
                plan
            }),
            tel,
            rng: SplitMix64::new(cfg.seed),
            horizon: SimInstant::ZERO + cfg.horizon,
            committed: 0,
            aborted: 0,
            latency: Histogram::new_latency_us(),
            txns: Vec::new(),
            free: Vec::new(),
            batcher: Batcher::new(cfg.gtm_batch_window, cfg.gtm_service),
            timed_csn: 0,
            cached_epoch: None,
            cache_hits: 0,
            cache_misses: 0,
            cluster,
            cfg,
        }
    }

    fn alloc(&mut self, t: InFlight) -> usize {
        match self.free.pop() {
            Some(i) => {
                self.txns[i] = Some(t);
                i
            }
            None => {
                self.txns.push(Some(t));
                self.txns.len() - 1
            }
        }
    }

    fn release(&mut self, id: usize) -> InFlight {
        self.free.push(id);
        self.txns[id].take().expect("in-flight txn")
    }

    /// Close transaction `id`'s current trace segment and open `next` as a
    /// sibling — segments stay contiguous, so the txn timeline decomposes
    /// ~100% of end-to-end latency. No-op without telemetry.
    fn advance_seg(&mut self, id: usize, now: SimInstant, next: Option<&str>) {
        let Some(st) = &self.tel else {
            return;
        };
        st.tel.set_time_us(now.micros());
        let t = self.txns[id].as_mut().expect("in-flight");
        if let Some(seg) = t.seg.take() {
            st.tel.tracer.end(seg);
        }
        if let (Some(root), Some(name)) = (t.span, next) {
            t.seg = Some(st.tel.tracer.begin_child(root, name));
        }
    }

    /// Record one GTM visit's queueing and service time.
    fn record_gtm_visit(&self, arrival: SimInstant, wait: SimDuration, svc: SimDuration) {
        if let Some(st) = &self.tel {
            st.tel.set_time_us(arrival.micros());
            st.gtm_wait.record(wait.micros());
            st.gtm_service.record(svc.micros());
        }
    }

    /// How many GTM interactions this begin pays: 2 (gxid + snapshot), or 1
    /// when the CN-side epoch cache still holds a snapshot for the latest
    /// published CSN. A miss refreshes the cache to the current epoch.
    fn begin_interactions(&mut self) -> u64 {
        if !self.cfg.snapshot_cache {
            return 2;
        }
        if self.cached_epoch == Some(self.timed_csn) {
            self.cache_hits += 1;
            1
        } else {
            self.cache_misses += 1;
            self.cached_epoch = Some(self.timed_csn);
            2
        }
    }

    /// One network hop's latency, with fault injection when configured.
    /// Drops cost a sender timeout (4× nominal one-way) plus the
    /// retransmission's own flight time; delays add the sampled extra;
    /// duplicates are suppressed at the transport (dedup by sequence
    /// number) and cost nothing beyond the count.
    fn hop(&mut self) -> SimDuration {
        let flight = self.net.one_way();
        let Some(plan) = self.faults.as_mut() else {
            return flight;
        };
        match plan.message_fate() {
            MsgFate::Deliver | MsgFate::Duplicate => flight,
            MsgFate::Delay(extra) => flight + extra,
            MsgFate::Drop => flight + self.cfg.net_one_way.mul_f64(4.0) + self.net.one_way(),
        }
    }

    fn pick_key(&mut self, wh: u32) -> i64 {
        let local = self.rng.next_below(self.cfg.keys_per_warehouse as u64) as u32;
        make_key(wh, local)
    }

    /// Run the functional transaction now; returns (ok, leg shard indexes,
    /// global xid if the protocol allocated one).
    fn run_functional(&mut self, home_wh: u32, single: bool) -> (bool, Vec<usize>, Option<Xid>) {
        let mix = self.cfg.mix;
        if single {
            let mut txn = self
                .cluster
                .begin(TxnOptions::single(home_wh))
                .expect("the timed model never crashes a node or the GTM");
            let mut ok = true;
            for _ in 0..mix.reads_per_txn {
                let k = self.pick_key(home_wh);
                if self.cluster.get(&mut txn, k).is_err() {
                    ok = false;
                    break;
                }
            }
            if ok {
                for _ in 0..mix.writes_per_txn {
                    let k = self.pick_key(home_wh);
                    let v = (self.rng.next_u64() & 0xffff) as i64;
                    if self.cluster.put(&mut txn, k, v).is_err() {
                        ok = false;
                        break;
                    }
                }
            }
            let gxid = txn.gxid();
            let ok = if ok {
                self.cluster.commit(txn).is_ok()
            } else {
                let _ = self.cluster.abort(txn);
                false
            };
            let shard = self.cluster.shard_map().shard_of_prefix(home_wh).raw() as usize;
            (ok, vec![shard], gxid)
        } else {
            let total_whs = (self.cfg.warehouses_per_node * self.cfg.nodes) as u32;
            let mut whs = vec![home_wh];
            let mut guard = 0;
            while whs.len() < mix.multi_shard_legs as usize && guard < 64 {
                guard += 1;
                let w = self.rng.next_below(total_whs as u64) as u32;
                if !whs.contains(&w) {
                    whs.push(w);
                }
            }
            let mut txn = self
                .cluster
                .begin(TxnOptions::multi())
                .expect("the timed model never crashes a node or the GTM");
            let mut ok = true;
            'work: for (i, &w) in whs.iter().enumerate() {
                let reads = if i == 0 { mix.reads_per_txn } else { 0 };
                for _ in 0..reads {
                    let k = self.pick_key(w);
                    if self.cluster.get(&mut txn, k).is_err() {
                        ok = false;
                        break 'work;
                    }
                }
                let k = self.pick_key(w);
                let v = (self.rng.next_u64() & 0xffff) as i64;
                if self.cluster.put(&mut txn, k, v).is_err() {
                    ok = false;
                    break 'work;
                }
            }
            let gxid = txn.gxid();
            let ok = if ok {
                self.cluster.commit(txn).is_ok()
            } else {
                let _ = self.cluster.abort(txn);
                false
            };
            let shards: Vec<usize> = whs
                .iter()
                .map(|&w| self.cluster.shard_map().shard_of_prefix(w).raw() as usize)
                .collect();
            (ok, shards, gxid)
        }
    }
}

type S = Sim<World>;

/// A client becomes ready to issue its next transaction.
fn client_start(sim: &mut S, w: &mut World, home_wh: u32) {
    let now = sim.now();
    if now >= w.horizon {
        return;
    }
    let single = w.rng.chance(w.cfg.mix.single_shard_fraction);
    if let Some(st) = &w.tel {
        st.tel.set_time_us(now.micros());
    }
    let (ok, shards, gxid) = w.run_functional(home_wh, single);
    let id = w.alloc(InFlight {
        home_wh,
        start: now,
        ok,
        single,
        shards,
        pending: 0,
        join_at: now,
        span: None,
        seg: None,
    });
    if let Some(st) = &w.tel {
        let root = st.tel.tracer.begin("txn");
        st.tel
            .tracer
            .field(root, "path", if single { "single" } else { "distributed" });
        if let Some(g) = gxid {
            st.tel.tracer.field(root, "gxid", g.raw());
        }
        st.tel.tracer.field(root, "ok", ok);
        let seg = st.tel.tracer.begin_child(root, "cn.parse");
        let t = w.txns[id].as_mut().expect("in-flight");
        t.span = Some(root);
        t.seg = Some(seg);
    }
    // CN parse/route, at the CN pool.
    let grant = w.cn.request(now, w.cfg.cn_service);
    let single2 = single;
    sim.schedule_at(grant.end, move |sim, w| after_cn(sim, w, id, single2));
}

/// CN work done: route by protocol.
fn after_cn(sim: &mut S, w: &mut World, id: usize, single: bool) {
    match (w.cfg.protocol, single) {
        // GTM-lite single-shard: straight to the DN.
        (Protocol::GtmLite, true) => {
            w.advance_seg(id, sim.now(), Some("dn.exec"));
            let hop = w.hop();
            sim.schedule_in(hop, move |sim, w| single_dn_arrive(sim, w, id));
        }
        // Everything else starts with GTM begin+snapshot (2 interactions,
        // 1 on a snapshot-epoch cache hit).
        _ => {
            w.advance_seg(id, sim.now(), Some("gtm.begin"));
            let hop = w.hop();
            sim.schedule_in(hop, move |sim, w| {
                gtm_arrive(sim, w, GtmOp::Begin { id, single })
            });
        }
    }
}

/// One request headed for the GTM, resumed by [`gtm_reply`] once served.
#[derive(Clone, Copy)]
enum GtmOp {
    /// Begin + snapshot (2 interactions; 1 on an epoch-cache hit).
    Begin { id: usize, single: bool },
    /// Baseline single-shard commit report (1 interaction).
    CommitSingle { id: usize },
    /// Multi-shard 2PC decision (1 interaction).
    Decide { id: usize },
}

/// A request arrives at the GTM. With a zero batch window this is the
/// legacy path — one FCFS visit per request, bit-identical to the
/// pre-batching model. With a nonzero window the request boards the
/// group-commit batcher and is resumed when its batch is served.
fn gtm_arrive(sim: &mut S, w: &mut World, op: GtmOp) {
    let arrival = sim.now();
    let interactions = match op {
        GtmOp::Begin { .. } => w.begin_interactions(),
        GtmOp::CommitSingle { .. } | GtmOp::Decide { .. } => {
            // The commit is published here: a conservative CSN bump at
            // enqueue time, so no later begin over-trusts the cache.
            w.timed_csn += 1;
            1
        }
    };
    if w.cfg.gtm_batch_window.micros() == 0 {
        let svc = SimDuration::from_micros(w.cfg.gtm_service.micros() * interactions);
        let grant = w.gtm.request(arrival, svc);
        w.record_gtm_visit(arrival, grant.queue_wait(arrival), svc);
        let back = w.hop();
        sim.schedule_at(grant.end + back, move |sim, w| gtm_reply(sim, w, op));
    } else {
        let weight = SimDuration::from_micros(w.cfg.gtm_batch_per_item.micros() * interactions);
        if let Some(close_at) = w.batcher.join(arrival, weight, (op, weight)) {
            sim.schedule_at(close_at, close_gtm_batch);
        }
    }
}

/// A GTM reply reaches the CN: resume the transaction's next stage.
fn gtm_reply(sim: &mut S, w: &mut World, op: GtmOp) {
    match op {
        GtmOp::Begin { id, single } => {
            if single {
                w.advance_seg(id, sim.now(), Some("dn.exec"));
                let hop = w.hop();
                sim.schedule_in(hop, move |sim, w| single_dn_arrive(sim, w, id));
            } else {
                fan_out(sim, w, id, Phase::Exec);
            }
        }
        GtmOp::CommitSingle { id } => txn_done(sim, w, id),
        GtmOp::Decide { id } => fan_out(sim, w, id, Phase::Finish),
    }
}

/// The open group-commit window elapsed: serve the whole batch as one
/// coalesced GTM event and resume every member when it completes.
fn close_gtm_batch(sim: &mut S, w: &mut World) {
    let now = sim.now();
    let batch = w.batcher.close(now, &mut w.gtm);
    let size = batch.size();
    w.cluster.note_gtm_batch(size);
    if let Some(st) = &w.tel {
        st.tel.set_time_us(now.micros());
        let span = st.tel.tracer.begin("gtm.batch");
        st.tel.tracer.field(span, "size", size);
        st.tel.set_time_us(batch.grant.end.micros());
        st.tel.tracer.end(span);
    }
    for (arrival, (op, weight)) in batch.members {
        w.record_gtm_visit(arrival, batch.grant.start - arrival, weight);
        let back = w.hop();
        sim.schedule_at(batch.grant.end + back, move |sim, w| gtm_reply(sim, w, op));
    }
}

/// Single-shard execution at the home DN (execute + commit in one visit).
fn single_dn_arrive(sim: &mut S, w: &mut World, id: usize) {
    let txn = w.txns[id].as_ref().expect("in-flight");
    let shard = txn.shards[0];
    let ops = (w.cfg.mix.reads_per_txn + w.cfg.mix.writes_per_txn) as u64;
    let svc =
        SimDuration::from_micros(w.cfg.dn_service_per_op.micros() * ops) + w.cfg.dn_commit_service;
    let grant = w.dns[shard].request(sim.now(), svc);
    let back = w.hop();
    sim.schedule_at(grant.end + back, move |sim, w| match w.cfg.protocol {
        // Reply to client directly.
        Protocol::GtmLite => txn_done(sim, w, id),
        // Baseline reports the commit to the GTM first (1 interaction).
        Protocol::Baseline => {
            w.advance_seg(id, sim.now(), Some("gtm.commit"));
            let hop = w.hop();
            sim.schedule_in(hop, move |sim, w| {
                gtm_arrive(sim, w, GtmOp::CommitSingle { id })
            });
        }
    });
}

/// Multi-shard phases.
#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Exec,
    Prepare,
    Finish,
}

/// Fan a round of per-leg DN visits out from the CN.
fn fan_out(sim: &mut S, w: &mut World, id: usize, phase: Phase) {
    let seg_name = match phase {
        Phase::Exec => "leg.exec",
        Phase::Prepare => "leg.prepare",
        Phase::Finish => "leg.finish",
    };
    w.advance_seg(id, sim.now(), Some(seg_name));
    let shards = w.txns[id].as_ref().expect("in-flight").shards.clone();
    {
        let t = w.txns[id].as_mut().expect("in-flight");
        t.pending = shards.len();
        t.join_at = sim.now();
    }
    for (i, &shard) in shards.iter().enumerate() {
        let hop = w.hop();
        let first_leg = i == 0;
        sim.schedule_in(hop, move |sim, w| {
            let svc = match phase {
                Phase::Exec => {
                    let mix = w.cfg.mix;
                    let ops = if first_leg {
                        (mix.reads_per_txn + 1) as u64
                    } else {
                        1
                    };
                    let mut svc = SimDuration::from_micros(w.cfg.dn_service_per_op.micros() * ops);
                    if matches!(w.cfg.protocol, Protocol::GtmLite) {
                        svc += w.cfg.merge_service;
                    }
                    svc
                }
                Phase::Prepare => w.cfg.dn_prepare_service,
                Phase::Finish => w.cfg.dn_finish_service,
            };
            let grant = w.dns[shard].request(sim.now(), svc);
            let back = w.hop();
            sim.schedule_at(grant.end + back, move |sim, w| {
                leg_joined(sim, w, id, phase)
            });
        });
    }
}

/// One leg's reply reached the CN.
fn leg_joined(sim: &mut S, w: &mut World, id: usize, phase: Phase) {
    let done = {
        let t = w.txns[id].as_mut().expect("in-flight");
        t.pending -= 1;
        t.join_at = t.join_at.max(sim.now());
        t.pending == 0
    };
    if !done {
        return;
    }
    match phase {
        Phase::Exec => fan_out(sim, w, id, Phase::Prepare),
        Phase::Prepare => {
            // Decision at the GTM (1 interaction), then confirm to legs.
            w.advance_seg(id, sim.now(), Some("gtm.decide"));
            let hop = w.hop();
            sim.schedule_in(hop, move |sim, w| gtm_arrive(sim, w, GtmOp::Decide { id }));
        }
        Phase::Finish => txn_done(sim, w, id),
    }
}

/// The transaction's reply reached the client.
fn txn_done(sim: &mut S, w: &mut World, id: usize) {
    let now = sim.now();
    w.advance_seg(id, now, None);
    let t = w.release(id);
    w.latency.record((now - t.start).micros());
    if let Some(st) = &w.tel {
        if let Some(root) = t.span {
            st.tel.tracer.end(root);
        }
        let h = if t.single {
            &st.lat_single
        } else {
            &st.lat_distributed
        };
        h.record((now - t.start).micros());
    }
    if t.ok {
        w.committed += 1;
    } else {
        w.aborted += 1;
    }
    if now < w.horizon {
        let home = t.home_wh;
        sim.schedule_at(now, move |sim, w| client_start(sim, w, home));
    }
}

/// Run the Fig 3 experiment for one configuration.
pub fn run_sim(cfg: SimConfig) -> SimReport {
    let mut world = World::new(cfg.clone());
    let mut sim: S = Sim::new();
    if let Some(st) = &world.tel {
        sim.attach_telemetry(&st.tel.metrics);
    }
    let clients = cfg.clients_per_node * cfg.nodes;
    let total_whs = (cfg.warehouses_per_node * cfg.nodes) as u32;
    for c in 0..clients {
        let home_wh = (c as u32) % total_whs;
        // Stagger starts over the first 500µs to avoid a thundering herd.
        let start = SimInstant((c as u64 * 7) % 500);
        sim.schedule_at(start, move |sim, w| client_start(sim, w, home_wh));
    }
    let horizon = world.horizon;
    // Run past the horizon so in-flight transactions drain (they stop
    // rescheduling once now >= horizon); only horizon-time completions count
    // toward throughput because client_start stops issuing there.
    sim.run(&mut world);
    let _ = horizon;

    let horizon_s = cfg.horizon.as_secs_f64();
    let counters = world.cluster.counters();
    let batch_stats = world.batcher.stats();
    SimReport {
        committed: world.committed,
        aborted: world.aborted,
        throughput_tps: world.committed as f64 / horizon_s,
        p50_latency_us: world.latency.percentile(0.5),
        p99_latency_us: world.latency.percentile(0.99),
        gtm_interactions: counters.gtm_interactions,
        gtm_utilization: world.gtm.utilization(horizon),
        gtm_mean_wait_us: world.gtm.mean_wait_us(),
        merges: counters.merges,
        upgrade_waits: counters.upgrade_waits,
        downgrades: counters.downgrades,
        net_fault_stats: world
            .faults
            .as_ref()
            .map(FaultPlan::message_stats)
            .unwrap_or_default(),
        gtm_batches: batch_stats.batches,
        gtm_batched_requests: batch_stats.requests,
        gtm_mean_batch_size: batch_stats.mean_batch_size(),
        snapshot_cache_hits: world.cache_hits,
        snapshot_cache_misses: world.cache_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tps(nodes: usize, protocol: Protocol, mix: WorkloadMix) -> f64 {
        let mut cfg = SimConfig::new(nodes, protocol, mix);
        cfg.horizon = SimDuration::from_millis(100);
        run_sim(cfg).throughput_tps
    }

    #[test]
    fn gtm_lite_ss_scales_nearly_linearly() {
        let t1 = tps(1, Protocol::GtmLite, WorkloadMix::ss());
        let t4 = tps(4, Protocol::GtmLite, WorkloadMix::ss());
        assert!(
            t4 > 3.0 * t1,
            "expected near-linear scaling: 1 node {t1:.0}, 4 nodes {t4:.0}"
        );
    }

    #[test]
    fn baseline_saturates_at_the_gtm() {
        let t4 = tps(4, Protocol::Baseline, WorkloadMix::ss());
        let t8 = tps(8, Protocol::Baseline, WorkloadMix::ss());
        assert!(
            t8 < 1.3 * t4,
            "baseline should flatten: 4 nodes {t4:.0}, 8 nodes {t8:.0}"
        );
    }

    #[test]
    fn gtm_lite_beats_baseline_at_scale() {
        let lite = tps(8, Protocol::GtmLite, WorkloadMix::ss());
        let base = tps(8, Protocol::Baseline, WorkloadMix::ss());
        assert!(
            lite > 1.5 * base,
            "GTM-lite {lite:.0} vs baseline {base:.0} at 8 nodes"
        );
    }

    #[test]
    fn ss_beats_ms_under_gtm_lite() {
        let ss = tps(4, Protocol::GtmLite, WorkloadMix::ss());
        let ms = tps(4, Protocol::GtmLite, WorkloadMix::ms());
        assert!(ss > ms, "SS {ss:.0} should beat MS {ms:.0}");
    }

    #[test]
    fn lite_ss_produces_zero_gtm_traffic() {
        let cfg = {
            let mut c = SimConfig::new(2, Protocol::GtmLite, WorkloadMix::ss());
            c.horizon = SimDuration::from_millis(20);
            c
        };
        let r = run_sim(cfg);
        assert_eq!(r.gtm_interactions, 0);
        assert!(r.committed > 0);
    }

    #[test]
    fn baseline_gtm_is_busy_at_scale() {
        let mut cfg = SimConfig::new(8, Protocol::Baseline, WorkloadMix::ss());
        cfg.horizon = SimDuration::from_millis(50);
        let r = run_sim(cfg);
        assert!(
            r.gtm_utilization > 0.7,
            "baseline at 8 nodes should saturate the GTM: {:.2}",
            r.gtm_utilization
        );
    }

    #[test]
    fn reports_are_deterministic_per_seed() {
        let mk = || {
            let mut c = SimConfig::new(2, Protocol::GtmLite, WorkloadMix::ms());
            c.horizon = SimDuration::from_millis(20);
            c
        };
        let a = run_sim(mk());
        let b = run_sim(mk());
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.gtm_interactions, b.gtm_interactions);
    }

    #[test]
    fn network_faults_cost_latency_but_not_correctness() {
        let mut cfg = SimConfig::new(2, Protocol::GtmLite, WorkloadMix::ms());
        cfg.horizon = SimDuration::from_millis(20);
        let clean = run_sim(cfg.clone());
        cfg.faults = Some(FaultConfig {
            drop_p: 0.05,
            delay_p: 0.10,
            ..FaultConfig::chaotic()
        });
        let faulty = run_sim(cfg);
        let (msgs, drops, _, delays) = faulty.net_fault_stats;
        assert!(
            msgs > 0 && drops > 0 && delays > 0,
            "faults fired: {msgs} msgs"
        );
        assert!(faulty.committed > 0);
        // Lossy hops slow the closed loop down, they don't break it.
        assert!(faulty.p99_latency_us >= clean.p99_latency_us);
        assert_eq!(clean.net_fault_stats, (0, 0, 0, 0));
    }

    #[test]
    fn faulty_runs_replay_deterministically() {
        let mk = || {
            let mut c = SimConfig::new(2, Protocol::GtmLite, WorkloadMix::ms());
            c.horizon = SimDuration::from_millis(10);
            c.faults = Some(FaultConfig::chaotic());
            c
        };
        let a = run_sim(mk());
        let b = run_sim(mk());
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.net_fault_stats, b.net_fault_stats);
        assert_eq!(a.p99_latency_us, b.p99_latency_us);
    }

    #[test]
    fn telemetry_decomposes_latency_into_contiguous_segments() {
        let tel = Telemetry::simulated();
        let mut cfg = SimConfig::new(2, Protocol::GtmLite, WorkloadMix::ms());
        cfg.horizon = SimDuration::from_millis(10);
        cfg.telemetry = Some(tel.clone());
        let r = run_sim(cfg);
        assert!(r.committed > 0);

        // Every span closed: no transaction left a dangling segment.
        assert_eq!(tel.tracer.open_count(), 0, "all spans must be closed");

        let spans = tel.tracer.finished();
        let report = hdm_telemetry::timeline::decompose(&spans, "txn");
        let single = report
            .paths
            .get("single")
            .expect("single-shard path traced");
        let multi = report
            .paths
            .get("distributed")
            .expect("distributed path traced");
        // Contiguous segments decompose essentially all of the latency.
        assert!(
            single.coverage >= 0.95,
            "single coverage {:.3} < 0.95",
            single.coverage
        );
        assert!(
            multi.coverage >= 0.95,
            "distributed coverage {:.3} < 0.95",
            multi.coverage
        );
        // The distributed path shows the 2PC legs; the lite single path
        // never touches the GTM.
        let multi_segs: Vec<&str> = multi.segments.iter().map(|(n, _)| n.as_str()).collect();
        assert!(multi_segs.contains(&"leg.prepare"), "segs: {multi_segs:?}");
        assert!(multi_segs.contains(&"gtm.decide"), "segs: {multi_segs:?}");
        let single_segs: Vec<&str> = single.segments.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(single_segs, ["cn.parse", "dn.exec"]);

        // Histograms and event-loop counters populated.
        let snap = tel.metrics.snapshot();
        let lat = snap
            .histograms
            .get("txn.latency{path=single}")
            .expect("single latency histogram");
        assert!(lat.count > 0);
        assert!(snap.counter("sim.events.executed") > 0);
    }

    #[test]
    fn telemetry_runs_match_untelemetered_results() {
        let mk = |tel: Option<Telemetry>| {
            let mut c = SimConfig::new(2, Protocol::Baseline, WorkloadMix::ms());
            c.horizon = SimDuration::from_millis(10);
            c.telemetry = tel;
            c
        };
        let plain = run_sim(mk(None));
        let traced = run_sim(mk(Some(Telemetry::simulated())));
        // Observation must not perturb the simulation.
        assert_eq!(plain.committed, traced.committed);
        assert_eq!(plain.p99_latency_us, traced.p99_latency_us);
        assert_eq!(plain.gtm_interactions, traced.gtm_interactions);
    }

    #[test]
    fn batching_coalesces_and_lifts_a_saturated_gtm() {
        let mut cfg = SimConfig::new(8, Protocol::Baseline, WorkloadMix::ss());
        cfg.horizon = SimDuration::from_millis(50);
        let plain = run_sim(cfg.clone());
        cfg.gtm_batch_window = SimDuration::from_micros(10);
        let batched = run_sim(cfg);
        assert_eq!(plain.gtm_batches, 0, "zero window must never batch");
        assert_eq!(plain.snapshot_cache_hits + plain.snapshot_cache_misses, 0);
        assert!(batched.gtm_batches > 0);
        assert!(
            batched.gtm_mean_batch_size > 1.5,
            "a saturated GTM should coalesce: mean {:.2}",
            batched.gtm_mean_batch_size
        );
        // Baseline SS at 8 nodes is GTM-bound (see baseline_gtm_is_busy_at_
        // scale); amortizing the per-visit cost must move the ceiling.
        assert!(
            batched.throughput_tps > 1.2 * plain.throughput_tps,
            "batched {:.0} vs plain {:.0} tps",
            batched.throughput_tps,
            plain.throughput_tps
        );
    }

    #[test]
    fn batched_runs_are_deterministic() {
        let mk = || {
            let mut c = SimConfig::new(4, Protocol::Baseline, WorkloadMix::ms());
            c.horizon = SimDuration::from_millis(20);
            c.gtm_batch_window = SimDuration::from_micros(8);
            c.snapshot_cache = true;
            c
        };
        let a = run_sim(mk());
        let b = run_sim(mk());
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.gtm_batches, b.gtm_batches);
        assert_eq!(a.gtm_batched_requests, b.gtm_batched_requests);
        assert_eq!(a.snapshot_cache_hits, b.snapshot_cache_hits);
        assert_eq!(a.p99_latency_us, b.p99_latency_us);
    }

    #[test]
    fn snapshot_cache_skips_snapshot_interactions() {
        let mut cfg = SimConfig::new(4, Protocol::GtmLite, WorkloadMix::ms());
        cfg.horizon = SimDuration::from_millis(50);
        cfg.snapshot_cache = true;
        let r = run_sim(cfg);
        assert!(r.snapshot_cache_misses > 0, "first begin must miss");
        assert!(
            r.snapshot_cache_hits > 0,
            "concurrent multi-shard begins between commits should reuse the epoch"
        );
    }

    #[test]
    fn batching_and_cache_do_not_perturb_telemetry_runs() {
        let mk = |tel: Option<Telemetry>| {
            let mut c = SimConfig::new(2, Protocol::Baseline, WorkloadMix::ms());
            c.horizon = SimDuration::from_millis(10);
            c.gtm_batch_window = SimDuration::from_micros(8);
            c.snapshot_cache = true;
            c.telemetry = tel;
            c
        };
        let plain = run_sim(mk(None));
        let tel = Telemetry::simulated();
        let traced = run_sim(mk(Some(tel.clone())));
        assert!(plain.gtm_batches > 0);
        assert_eq!(plain.committed, traced.committed);
        assert_eq!(plain.gtm_batches, traced.gtm_batches);
        assert_eq!(plain.p99_latency_us, traced.p99_latency_us);
        // Every gtm.batch span closed, and the functional GTM's batch
        // series saw every coalesced service event.
        assert_eq!(tel.tracer.open_count(), 0);
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("gtm.batch.count"), traced.gtm_batches);
        let sizes = snap
            .histograms
            .get("gtm.batch.size")
            .expect("batch size histogram");
        assert_eq!(sizes.count, traced.gtm_batches);
    }

    #[test]
    fn latencies_are_plausible() {
        let mut cfg = SimConfig::new(2, Protocol::GtmLite, WorkloadMix::ss());
        cfg.horizon = SimDuration::from_millis(50);
        let r = run_sim(cfg);
        // One CN visit + one DN round trip ≈ 100-300µs unloaded; allow for
        // queueing but reject pathological serialization.
        assert!(
            r.p50_latency_us < 2_000,
            "p50 {}us suggests a modelling bug",
            r.p50_latency_us
        );
    }
}
