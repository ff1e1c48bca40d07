//! The Global Transaction Manager.
//!
//! "A global transaction manager (GTM) generates ascending global
//! transaction ID (XID) for transactions and dispatches snapshots consisting
//! of a list of current active transactions" (§II-A). The GTM is the
//! serialization point whose interaction count GTM-lite exists to shrink:
//! the struct therefore counts every interaction so the cluster simulator
//! can charge queueing time per interaction and the benches can report
//! interaction totals per workload.

use crate::commitlog::CommitLog;
use crate::snapshot::Snapshot;
use crate::twopc::Decision;
use hdm_common::ids::FIRST_XID;
use hdm_common::{Result, Xid};
use hdm_telemetry::{Counter, Gauge, HistogramHandle, MetricsRegistry};
use std::collections::{BTreeMap, BTreeSet};

/// Which GTM interactions occurred (for the Fig 3 cost model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GtmCounters {
    pub begins: u64,
    pub snapshots: u64,
    pub commits: u64,
    pub aborts: u64,
    /// Group-commit batches served (timed harnesses report coalesced
    /// service events here via [`Gtm::note_batch`]).
    pub batches: u64,
    /// Requests that travelled inside those batches.
    pub batched_requests: u64,
}

impl GtmCounters {
    pub fn total(&self) -> u64 {
        self.begins + self.snapshots + self.commits + self.aborts
    }
}

/// Live metric handles bumped per GTM interaction (series named
/// `gtm.*` plus the `gtm.active_txns` queue-depth gauge, the `gtm.csn`
/// epoch gauge and the `gtm.batch.*` group-commit series).
#[derive(Debug, Clone)]
struct GtmMetrics {
    begins: Counter,
    snapshots: Counter,
    commits: Counter,
    aborts: Counter,
    in_doubt_commit: Counter,
    in_doubt_abort: Counter,
    active_txns: Gauge,
    csn: Gauge,
    batch_count: Counter,
    batch_size: HistogramHandle,
}

/// The centralized global transaction manager.
#[derive(Debug, Clone)]
pub struct Gtm {
    next_gxid: u64,
    active: BTreeSet<Xid>,
    clog: CommitLog,
    /// Commit sequence number: the visibility epoch. Bumped on every commit
    /// (the only event that changes which tuples a fresh snapshot would
    /// expose) and *published* to CNs — the epoch-cache validity check reads
    /// it without charging a protocol interaction, modelling the broadcast
    /// piggybacked on every GTM reply.
    csn: u64,
    counters: GtmCounters,
    metrics: Option<GtmMetrics>,
}

impl Default for Gtm {
    fn default() -> Self {
        Self::new()
    }
}

impl Gtm {
    pub fn new() -> Self {
        Self {
            next_gxid: FIRST_XID,
            active: BTreeSet::new(),
            clog: CommitLog::new(),
            csn: 0,
            counters: GtmCounters::default(),
            metrics: None,
        }
    }

    /// Register this GTM's service counters, the `gtm.active_txns`
    /// queue-depth gauge, the `gtm.csn` epoch gauge and the `gtm.batch.*`
    /// group-commit series with `metrics`. Handles are resolved once here,
    /// so the per-interaction cost is an atomic bump. Call again after
    /// [`Gtm::recover_from_observations`] replaces a crashed GTM — the
    /// recovered instance aggregates into the same series, and the epoch
    /// gauge is re-seeded from the recovered CSN so the series never
    /// reports the dead instance's last value.
    pub fn attach_telemetry(&mut self, metrics: &MetricsRegistry) {
        let m = GtmMetrics {
            begins: metrics.counter("gtm.begin", &[]),
            snapshots: metrics.counter("gtm.snapshot", &[]),
            commits: metrics.counter("gtm.commit", &[]),
            aborts: metrics.counter("gtm.abort", &[]),
            in_doubt_commit: metrics.counter("recovery.in_doubt", &[("outcome", "commit")]),
            in_doubt_abort: metrics.counter("recovery.in_doubt", &[("outcome", "abort")]),
            active_txns: metrics.gauge("gtm.active_txns", &[]),
            csn: metrics.gauge("gtm.csn", &[]),
            batch_count: metrics.counter("gtm.batch.count", &[]),
            batch_size: metrics.histogram("gtm.batch.size", &[]),
        };
        m.active_txns.set(self.active.len() as i64);
        m.csn.set(self.csn as i64);
        self.metrics = Some(m);
    }

    fn sync_active_gauge(&self) {
        if let Some(m) = &self.metrics {
            m.active_txns.set(self.active.len() as i64);
        }
    }

    /// Allocate an ascending global XID and enqueue it in the active list.
    pub fn begin(&mut self) -> Xid {
        let gxid = Xid(self.next_gxid);
        self.next_gxid += 1;
        self.active.insert(gxid);
        self.clog.begin(gxid);
        self.counters.begins += 1;
        if let Some(m) = &self.metrics {
            m.begins.inc();
        }
        self.sync_active_gauge();
        gxid
    }

    /// Dispatch a global snapshot (current active list).
    pub fn snapshot(&mut self) -> Snapshot {
        self.counters.snapshots += 1;
        if let Some(m) = &self.metrics {
            m.snapshots.inc();
        }
        self.peek_snapshot()
    }

    /// A snapshot without charging a protocol interaction — for
    /// administrative readers (HTAP replica sync, debug dumps) that do not
    /// model client traffic.
    pub fn peek_snapshot(&self) -> Snapshot {
        Snapshot::capture(Xid(self.next_gxid), self.active.iter().copied())
    }

    /// The `xmin` of a snapshot taken now: the oldest active gxid, or the
    /// next gxid when none is active. Begins only add gxids above it, so
    /// every snapshot dispatched later carries an `xmin` at least as high.
    pub fn xmin(&self) -> Xid {
        self.active.first().copied().unwrap_or(Xid(self.next_gxid))
    }

    /// Mark a global transaction committed and dequeue it.
    ///
    /// In the paper's protocol "transactions are marked committed in GTM
    /// first and then on all nodes" — the window between this call and the
    /// DN-side commits is precisely Anomaly 1's window.
    pub fn commit(&mut self, gxid: Xid) -> Result<()> {
        self.clog.commit(gxid)?;
        self.active.remove(&gxid);
        self.csn += 1;
        self.counters.commits += 1;
        if let Some(m) = &self.metrics {
            m.commits.inc();
            m.csn.set(self.csn as i64);
        }
        self.sync_active_gauge();
        Ok(())
    }

    /// The current commit sequence number (visibility epoch), published
    /// as the `gtm.csn` gauge. Reading it is free: it models the CSN
    /// broadcast the GTM piggybacks on every reply. A snapshot taken at
    /// epoch `e` remains equivalent to a fresh one for visibility purposes
    /// while `csn() == e`: commits are the only events that change which
    /// tuples a snapshot exposes (aborted and still-active gxids are
    /// filtered by the commit-log check either way). The timed model's
    /// snapshot-epoch cache (`SimConfig::snapshot_cache` in `hdm-cluster`)
    /// rests on this; the functional cluster never reuses a snapshot.
    pub fn csn(&self) -> u64 {
        self.csn
    }

    /// Record one served group-commit batch of `size` coalesced requests.
    /// Timed harnesses (the fig3 simulator's batching window) call this so
    /// the functional GTM's counters and `gtm.batch.*` metrics reflect the
    /// amortized service events.
    pub fn note_batch(&mut self, size: u64) {
        self.counters.batches += 1;
        self.counters.batched_requests += size;
        if let Some(m) = &self.metrics {
            m.batch_count.inc();
            m.batch_size.record(size);
        }
    }

    /// Mark a global transaction aborted and dequeue it.
    pub fn abort(&mut self, gxid: Xid) -> Result<()> {
        self.clog.abort(gxid)?;
        self.active.remove(&gxid);
        self.counters.aborts += 1;
        if let Some(m) = &self.metrics {
            m.aborts.inc();
        }
        self.sync_active_gauge();
        Ok(())
    }

    /// Is `gxid` committed at the GTM?
    pub fn is_committed(&self, gxid: Xid) -> bool {
        self.clog.is_committed(gxid)
    }

    pub fn counters(&self) -> GtmCounters {
        self.counters
    }

    /// The GTM's commit log. Under the baseline protocol every DN judges
    /// visibility directly against this log (global XIDs stamp the tuples).
    pub fn clog(&self) -> &CommitLog {
        &self.clog
    }

    /// Number of currently-active global transactions.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Resolve a participant's in-doubt (prepared, decision unknown) global
    /// transaction against this GTM's commit log: **presumed abort** — only
    /// a transaction positively recorded committed commits; everything else,
    /// including gxids this GTM has never heard of (allocated before a GTM
    /// crash and observed nowhere), aborts.
    ///
    /// If the inquiry arrives while `gxid` is still *undecided* (a
    /// participant crashed mid-2PC and recovered before the coordinator
    /// decided), the inquiry itself forces the decision: the gxid is aborted
    /// here and now, so a slow coordinator can never commit a transaction
    /// some participant already presumed aborted.
    pub fn resolve_in_doubt(&mut self, gxid: Xid) -> Decision {
        if self.clog.is_committed(gxid) {
            if let Some(m) = &self.metrics {
                m.in_doubt_commit.inc();
            }
            return Decision::Commit;
        }
        if self.active.contains(&gxid) {
            self.abort(gxid).expect("active gxid aborts cleanly");
        }
        if let Some(m) = &self.metrics {
            m.in_doubt_abort.inc();
        }
        Decision::Abort
    }

    /// Rebuild a GTM after a crash from the surviving data nodes' commit
    /// logs. `observations` is every `(gxid, leg committed?)` pair the DNs
    /// can report from their xidMaps.
    ///
    /// The protocol commits **at the GTM first** ("transactions are marked
    /// committed in GTM first and then on all nodes"), so a locally
    /// committed leg *implies* the lost GTM state had that gxid committed —
    /// it is recovered as committed. Every other observed gxid was at best
    /// prepared somewhere, meaning no client can have seen a commit
    /// confirmation, so presumed abort recovers it as aborted. `next_gxid`
    /// restarts above every observed gxid and above `max_gxid`, the highest
    /// gxid any DN ever mapped: a gxid whose legs were all forgotten (read
    /// only) or aborted left no observation, yet must never be reissued.
    pub fn recover_from_observations(
        observations: impl IntoIterator<Item = (Xid, bool)>,
        max_gxid: u64,
    ) -> Self {
        // Fold multi-DN observations: any committed leg wins.
        let mut seen: BTreeMap<Xid, bool> = BTreeMap::new();
        for (gxid, committed) in observations {
            *seen.entry(gxid).or_insert(false) |= committed;
        }
        let mut gtm = Self::new();
        for (&gxid, &committed) in &seen {
            gtm.clog.begin(gxid);
            if committed {
                gtm.clog.commit(gxid).expect("fresh clog entry");
            } else {
                gtm.clog.abort(gxid).expect("fresh clog entry");
            }
            gtm.next_gxid = gtm.next_gxid.max(gxid.raw() + 1);
        }
        gtm.next_gxid = gtm.next_gxid.max(max_gxid + 1);
        // Seed the recovered epoch from the number of recovered commits:
        // monotone across the crash boundary is not required (CN caches are
        // invalidated on crash), but a recovered GTM must publish *some*
        // epoch so post-recovery commits keep advancing it.
        gtm.csn = gtm.clog.committed_count() as u64;
        gtm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commitlog::TxnStatus;

    #[test]
    fn gxids_ascend() {
        let mut gtm = Gtm::new();
        let a = gtm.begin();
        let b = gtm.begin();
        assert!(b > a);
    }

    #[test]
    fn snapshot_contains_active_transactions() {
        let mut gtm = Gtm::new();
        let a = gtm.begin();
        let b = gtm.begin();
        gtm.commit(a).unwrap();
        let s = gtm.snapshot();
        assert!(s.sees(a), "committed gxid is finished");
        assert!(!s.sees(b), "active gxid is not");
    }

    #[test]
    fn xmin_is_the_oldest_active_gxid_else_the_next() {
        let mut gtm = Gtm::new();
        assert_eq!(gtm.xmin(), gtm.peek_snapshot().xmin);
        let a = gtm.begin();
        let b = gtm.begin();
        assert_eq!(gtm.xmin(), a);
        gtm.commit(a).unwrap();
        assert_eq!(gtm.xmin(), b);
        gtm.abort(b).unwrap();
        assert_eq!(gtm.xmin(), Xid(b.raw() + 1));
        assert_eq!(gtm.xmin(), gtm.peek_snapshot().xmin);
    }

    #[test]
    fn commit_window_is_observable() {
        // Anomaly 1's premise: after GTM commit, a fresh global snapshot
        // already sees the writer as finished even though DNs may lag.
        let mut gtm = Gtm::new();
        let w = gtm.begin();
        let before = gtm.snapshot();
        gtm.commit(w).unwrap();
        let after = gtm.snapshot();
        assert!(!before.sees(w));
        assert!(after.sees(w) && gtm.is_committed(w));
    }

    #[test]
    fn counters_track_interactions() {
        let mut gtm = Gtm::new();
        let a = gtm.begin();
        gtm.snapshot();
        gtm.commit(a).unwrap();
        let b = gtm.begin();
        gtm.abort(b).unwrap();
        let c = gtm.counters();
        assert_eq!(c.begins, 2);
        assert_eq!(c.snapshots, 1);
        assert_eq!(c.commits, 1);
        assert_eq!(c.aborts, 1);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn recovery_honours_commit_at_gtm_first_ordering() {
        // DN observations: gxid 100 has a committed leg somewhere (so the
        // lost GTM must have committed it); gxid 101 was only ever prepared;
        // gxid 102 was in progress.
        let mut g = Gtm::recover_from_observations(
            vec![
                (Xid(100), true),
                (Xid(100), false), // another DN's leg still prepared
                (Xid(101), false),
                (Xid(102), false),
            ],
            102,
        );
        assert!(g.is_committed(Xid(100)));
        assert_eq!(g.resolve_in_doubt(Xid(100)), Decision::Commit);
        assert_eq!(g.resolve_in_doubt(Xid(101)), Decision::Abort);
        assert_eq!(g.resolve_in_doubt(Xid(102)), Decision::Abort);
        // Unknown gxids (lost entirely with the crash): presumed abort.
        assert_eq!(g.resolve_in_doubt(Xid(999)), Decision::Abort);
        assert_eq!(g.active_count(), 0, "no in-flight state survives");
    }

    #[test]
    fn recovery_from_sparse_gxids_leaves_the_gaps_aborted() {
        let mut g = Gtm::recover_from_observations(
            vec![(Xid(100), true), (Xid(5_000), false), (Xid(4_000), true)],
            5_000,
        );
        assert_eq!(g.clog().status(Xid(100)), TxnStatus::Committed);
        assert_eq!(g.clog().status(Xid(4_000)), TxnStatus::Committed);
        assert_eq!(g.clog().status(Xid(5_000)), TxnStatus::Aborted);
        for gap in [Xid(3), Xid(101), Xid(4_999), Xid(5_001)] {
            assert_eq!(g.clog().status(gap), TxnStatus::Aborted, "{gap}");
        }
        assert_eq!(g.next_gxid, 5_001);
        assert_eq!((g.clog().len(), g.clog().committed_count()), (3, 2));
        assert_eq!(g.csn(), g.clog().committed_count() as u64);
        // Fresh gxids land above every observation and commit normally.
        let fresh = g.begin();
        assert_eq!(fresh, Xid(5_001));
        g.commit(fresh).unwrap();
        assert_eq!(g.csn(), 3);
        assert_eq!(g.clog().committed_count(), 3);
    }

    #[test]
    fn in_doubt_inquiry_on_undecided_gxid_forces_the_abort() {
        let mut gtm = Gtm::new();
        let g = gtm.begin();
        // A recovered participant asks before the coordinator decided.
        assert_eq!(gtm.resolve_in_doubt(g), Decision::Abort);
        // The decision is now durable: the coordinator cannot commit.
        assert!(gtm.commit(g).is_err());
        assert_eq!(gtm.active_count(), 0);
    }

    #[test]
    fn recovered_gxids_never_collide() {
        let mut g = Gtm::recover_from_observations(vec![(Xid(500), true)], 500);
        let fresh = g.begin();
        assert!(fresh > Xid(500), "fresh gxid {fresh} collides with history");
        // A gxid no DN still maps (its legs were forgotten) is above every
        // observation but not above the DNs' high-water mark.
        let mut g = Gtm::recover_from_observations(vec![(Xid(500), true)], 700);
        assert_eq!(g.begin(), Xid(701));
    }

    #[test]
    fn recovery_from_nothing_is_a_fresh_gtm() {
        let mut g = Gtm::recover_from_observations(vec![], 0);
        let first = g.begin();
        assert_eq!(first, Xid(hdm_common::ids::FIRST_XID));
    }

    #[test]
    fn telemetry_tracks_interactions_and_queue_depth() {
        let reg = MetricsRegistry::new();
        let mut gtm = Gtm::new();
        gtm.attach_telemetry(&reg);
        let a = gtm.begin();
        let b = gtm.begin();
        assert_eq!(reg.snapshot().gauge("gtm.active_txns"), 2);
        gtm.snapshot();
        gtm.commit(a).unwrap();
        gtm.resolve_in_doubt(a); // committed → commit outcome
        gtm.resolve_in_doubt(b); // still active → inquiry forces the abort
        let snap = reg.snapshot();
        assert_eq!(snap.counter("gtm.begin"), 2);
        assert_eq!(snap.counter("gtm.snapshot"), 1);
        assert_eq!(snap.counter("gtm.commit"), 1);
        assert_eq!(snap.counter("gtm.abort"), 1);
        assert_eq!(snap.counter("recovery.in_doubt{outcome=commit}"), 1);
        assert_eq!(snap.counter("recovery.in_doubt{outcome=abort}"), 1);
        assert_eq!(snap.gauge("gtm.active_txns"), 0);
    }

    #[test]
    fn csn_bumps_on_commit_only() {
        let mut gtm = Gtm::new();
        assert_eq!(gtm.csn(), 0);
        let a = gtm.begin();
        let b = gtm.begin();
        gtm.snapshot();
        assert_eq!(gtm.csn(), 0, "begin/snapshot leave the epoch alone");
        gtm.commit(a).unwrap();
        assert_eq!(gtm.csn(), 1);
        gtm.abort(b).unwrap();
        assert_eq!(gtm.csn(), 1, "aborts change no committed-visible state");
    }

    #[test]
    fn stale_epoch_snapshot_is_visibility_equivalent() {
        // The cache-correctness contract: while csn() is unchanged, a cached
        // snapshot and a fresh one agree on every *committed* gxid, so SI
        // visibility (snapshot.sees ∧ clog.is_committed) is identical.
        let mut gtm = Gtm::new();
        let w = gtm.begin();
        gtm.commit(w).unwrap();
        let cached = gtm.snapshot();
        let epoch = gtm.csn();
        // New activity that does NOT commit: begins and an abort.
        let x = gtm.begin();
        let y = gtm.begin();
        gtm.abort(y).unwrap();
        assert_eq!(gtm.csn(), epoch, "no commit, epoch unchanged");
        let fresh = gtm.snapshot();
        for gxid in [w, x, y] {
            assert_eq!(
                cached.sees(gxid) && gtm.is_committed(gxid),
                fresh.sees(gxid) && gtm.is_committed(gxid),
                "visibility of {gxid} diverged between cached and fresh"
            );
        }
    }

    #[test]
    fn csn_gauge_publishes_and_reattach_reseeds() {
        let reg = MetricsRegistry::new();
        let mut gtm = Gtm::new();
        gtm.attach_telemetry(&reg);
        let a = gtm.begin();
        gtm.commit(a).unwrap();
        assert_eq!(reg.snapshot().gauge("gtm.csn"), 1);
        // A recovered GTM re-attaching to the same registry re-seeds the
        // gauge from its own epoch, not the dead instance's last value.
        let mut recovered = Gtm::recover_from_observations(vec![(a, true), (Xid(50), false)], 50);
        recovered.attach_telemetry(&reg);
        assert_eq!(recovered.csn(), 1, "one recovered commit seeds the epoch");
        assert_eq!(reg.snapshot().gauge("gtm.csn"), 1);
        let b = recovered.begin();
        recovered.commit(b).unwrap();
        assert_eq!(reg.snapshot().gauge("gtm.csn"), 2);
    }

    #[test]
    fn note_batch_feeds_counters_and_metrics() {
        let reg = MetricsRegistry::new();
        let mut gtm = Gtm::new();
        gtm.attach_telemetry(&reg);
        gtm.note_batch(3);
        gtm.note_batch(1);
        let c = gtm.counters();
        assert_eq!(c.batches, 2);
        assert_eq!(c.batched_requests, 4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("gtm.batch.count"), 2);
        assert_eq!(snap.histograms["gtm.batch.size"].count, 2);
        assert_eq!(snap.histograms["gtm.batch.size"].max_us, 3);
    }

    #[test]
    fn abort_dequeues_from_active() {
        let mut gtm = Gtm::new();
        let a = gtm.begin();
        assert_eq!(gtm.active_count(), 1);
        gtm.abort(a).unwrap();
        assert_eq!(gtm.active_count(), 0);
        assert!(!gtm.is_committed(a));
    }
}
