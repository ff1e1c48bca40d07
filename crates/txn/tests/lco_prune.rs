//! Differential test for the LCO cut rule.
//!
//! A data node's local commit order (LCO), pruned after every commit below
//! the horizon `H` — the lowest `xmin` among the global snapshots still
//! held and the GTM's own `xmin` — must merge every snapshot exactly as the
//! full, never-pruned LCO does: same merged snapshot, same `upgrade_waits`,
//! same `downgraded`.
//!
//! Random interleavings drive one `LocalTxnManager` beside a `Gtm`: local
//! and global begins, prepares, GTM decisions, local commits in random
//! order, aborts, and global snapshots taken at random times and held.
//! After each local commit the manager is pruned, then merged against every
//! held snapshot and a fresh one, once over its own LCO and once over a
//! test-kept copy of every commit. The same histories pruned with a
//! horizon that ignores held snapshots must diverge, so the test can tell
//! the rule from that mistake.

use hdm_common::{SplitMix64, Xid};
use hdm_txn::{merge_snapshot, merge_with_manager, Gtm, LocalTxnManager, MergeInputs, Snapshot};

/// How the horizon is computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rule {
    /// The lowest `xmin` of the held snapshots and the GTM's.
    Held,
    /// The GTM's `xmin` alone: forgets snapshots already handed out.
    IgnoreHeld,
}

/// Where a global transaction stands on this data node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Reading and writing; its global snapshot is held.
    Running,
    /// Its leg voted yes; the snapshot is released.
    Prepared,
    /// Committed at the GTM; the local commit is still in flight.
    Decided,
}

#[derive(Debug)]
struct Global {
    gxid: Xid,
    /// Its leg here, if it opened one.
    leg: Option<Xid>,
    phase: Phase,
}

struct Node {
    rule: Rule,
    gtm: Gtm,
    mgr: LocalTxnManager,
    /// Every LCO append, never pruned.
    full: Vec<Xid>,
    locals: Vec<Xid>,
    globals: Vec<Global>,
    /// Held global snapshots, with the gxid of the transaction that holds
    /// it (`None` for a bare reader, as a cached snapshot handed out again).
    held: Vec<(Option<Xid>, Snapshot)>,
    merges: u64,
    mismatches: u64,
    downgrades: u64,
}

impl Node {
    fn new(rule: Rule) -> Self {
        Self {
            rule,
            gtm: Gtm::new(),
            mgr: LocalTxnManager::new(),
            full: Vec::new(),
            locals: Vec::new(),
            globals: Vec::new(),
            held: Vec::new(),
            merges: 0,
            mismatches: 0,
            downgrades: 0,
        }
    }

    fn horizon(&self) -> Xid {
        let gtm = self.gtm.xmin();
        match self.rule {
            Rule::Held => self.held.iter().map(|(_, s)| s.xmin).fold(gtm, Xid::min),
            Rule::IgnoreHeld => gtm,
        }
    }

    /// A global begin: a gxid and its snapshot, held until prepare or abort.
    fn begin_global(&mut self) -> Xid {
        let gxid = self.gtm.begin();
        self.held.push((Some(gxid), self.gtm.snapshot()));
        self.globals.push(Global {
            gxid,
            leg: None,
            phase: Phase::Running,
        });
        gxid
    }

    fn open_leg(&mut self, i: usize) -> Xid {
        let g = &mut self.globals[i];
        let leg = self.mgr.begin_global(g.gxid);
        g.leg = Some(leg);
        leg
    }

    fn release(&mut self, gxid: Xid) {
        self.held.retain(|(owner, _)| *owner != Some(gxid));
    }

    fn prepare(&mut self, i: usize) {
        let g = &mut self.globals[i];
        if let Some(leg) = g.leg {
            self.mgr.prepare(leg).unwrap();
        }
        g.phase = Phase::Prepared;
        let gxid = g.gxid;
        self.release(gxid);
    }

    /// The GTM decides commit. A global with no leg here is done.
    fn decide(&mut self, i: usize) {
        self.gtm.commit(self.globals[i].gxid).unwrap();
        if self.globals[i].leg.is_none() {
            self.globals.swap_remove(i);
        } else {
            self.globals[i].phase = Phase::Decided;
        }
    }

    fn finish(&mut self, i: usize) {
        let g = self.globals.swap_remove(i);
        self.commit_local_xid(g.leg.expect("a decided global with a leg"));
    }

    fn abort_global(&mut self, i: usize) {
        let g = self.globals.swap_remove(i);
        if let Some(leg) = g.leg {
            self.mgr.abort(leg).unwrap();
        }
        self.gtm.abort(g.gxid).unwrap();
        self.release(g.gxid);
    }

    /// Commit on this node, prune, and compare every merge.
    fn commit_local_xid(&mut self, xid: Xid) {
        self.mgr.commit(xid).unwrap();
        self.full.push(xid);
        let h = self.horizon();
        self.mgr.prune_lco_below(h);
        self.check();
    }

    fn check(&mut self) {
        let fresh = self.gtm.peek_snapshot();
        let local = self.mgr.local_snapshot();
        let snaps: Vec<&Snapshot> = self
            .held
            .iter()
            .map(|(_, s)| s)
            .chain(std::iter::once(&fresh))
            .collect();
        for global in snaps {
            let committed = |g: Xid| self.gtm.is_committed(g);
            let pruned = merge_with_manager(global, &local, &self.mgr, committed);
            let full = merge_snapshot(&MergeInputs {
                global,
                local: &local,
                lco: &self.full,
                xid_map: self.mgr.xid_map(),
                gxid_of: &|x| self.mgr.gxid_of(x),
                globally_committed: &committed,
            });
            self.merges += 1;
            self.downgrades += full.downgraded.len() as u64;
            if pruned != full {
                self.mismatches += 1;
            }
        }
    }

    /// One random step; steps whose precondition fails do nothing.
    fn step(&mut self, rng: &mut SplitMix64) {
        match rng.next_below(11) {
            0 | 1 => self.locals.push(self.mgr.begin_local()),
            2 | 3 if !self.locals.is_empty() => {
                let x = self
                    .locals
                    .swap_remove(rng.next_below(self.locals.len() as u64) as usize);
                self.commit_local_xid(x);
            }
            4 if !self.locals.is_empty() => {
                let x = self
                    .locals
                    .swap_remove(rng.next_below(self.locals.len() as u64) as usize);
                self.mgr.abort(x).unwrap();
            }
            5 => {
                self.begin_global();
            }
            6 => {
                // Open a leg, prepare, decide or finish one global.
                if self.globals.is_empty() {
                    return;
                }
                let i = rng.next_below(self.globals.len() as u64) as usize;
                match (self.globals[i].phase, self.globals[i].leg) {
                    (Phase::Running, None) if rng.chance(0.8) => {
                        self.open_leg(i);
                    }
                    (Phase::Running, _) => self.prepare(i),
                    (Phase::Prepared, _) => self.decide(i),
                    (Phase::Decided, _) => self.finish(i),
                }
            }
            7 if !self.globals.is_empty() => {
                let i = rng.next_below(self.globals.len() as u64) as usize;
                if self.globals[i].phase != Phase::Decided {
                    self.abort_global(i);
                }
            }
            8 => {
                let snap = self.gtm.snapshot();
                self.held.push((None, snap));
            }
            9 | 10 => {
                let readers: Vec<usize> = (0..self.held.len())
                    .filter(|&i| self.held[i].0.is_none())
                    .collect();
                if !readers.is_empty() {
                    self.held
                        .remove(readers[rng.next_below(readers.len() as u64) as usize]);
                }
            }
            _ => {}
        }
    }
}

/// Run `seeds` random histories of `steps` steps under `rule`; returns the
/// nodes at the end.
fn sweep(rule: Rule, seeds: u64, steps: usize) -> Vec<Node> {
    (0..seeds)
        .map(|seed| {
            let mut rng = SplitMix64::new(0x1C0_5EED ^ seed);
            let mut n = Node::new(rule);
            for _ in 0..steps {
                n.step(&mut rng);
            }
            n
        })
        .collect()
}

#[test]
fn pruning_below_the_held_horizon_changes_no_merge() {
    let nodes = sweep(Rule::Held, 64, 400);
    let merges: u64 = nodes.iter().map(|n| n.merges).sum();
    let downgrades: u64 = nodes.iter().map(|n| n.downgrades).sum();
    let cut: usize = nodes.iter().map(|n| n.full.len() - n.mgr.lco().len()).sum();
    let kept: usize = nodes.iter().map(|n| n.mgr.lco().len()).sum();
    for (seed, n) in nodes.iter().enumerate() {
        assert_eq!(n.mismatches, 0, "seed {seed}: a pruned merge differs");
        assert_eq!(n.mgr.lco_appends(), n.full.len() as u64);
    }
    assert!(merges > 10_000, "too few merges compared: {merges}");
    assert!(downgrades > 0, "no history downgraded anything");
    assert!(cut > 5 * kept, "pruning barely cut: {cut} cut, {kept} kept");
}

#[test]
fn a_horizon_that_ignores_held_snapshots_is_caught() {
    let mismatches: u64 = sweep(Rule::IgnoreHeld, 64, 400)
        .iter()
        .map(|n| n.mismatches)
        .sum();
    assert!(mismatches > 0, "the sweep cannot tell the wrong rule");
}

/// An old snapshot sees a global writer as active; the writer's leg, and
/// every commit after it, must stay in the LCO for as long as the snapshot
/// is held.
#[test]
fn an_old_held_snapshot_keeps_its_taint_starting_commit() {
    for rule in [Rule::Held, Rule::IgnoreHeld] {
        let mut n = Node::new(rule);
        let before = n.mgr.begin_local();
        n.commit_local_xid(before);
        n.begin_global();
        let leg = n.open_leg(0);
        n.prepare(0);
        // A reader's snapshot taken in the commit window: the writer is
        // active in it.
        let reader = n.gtm.snapshot();
        n.held.push((None, reader.clone()));
        n.decide(0);
        n.finish(0);
        let mut later = Vec::new();
        for _ in 0..4 {
            let x = n.mgr.begin_local();
            n.commit_local_xid(x);
            later.push(x);
        }
        let local = n.mgr.local_snapshot();
        let out = merge_with_manager(&reader, &local, &n.mgr, |g| n.gtm.is_committed(g));
        let mut tainted = vec![leg];
        tainted.extend(&later);
        match rule {
            Rule::Held => {
                assert_eq!(n.mismatches, 0);
                assert_eq!(n.mgr.lco(), &tainted[..], "the cut stops at the leg");
                assert_eq!(out.downgraded, tainted);
            }
            Rule::IgnoreHeld => {
                assert!(n.mismatches > 0, "the wrong rule must diverge");
                assert!(out.downgraded.is_empty(), "the taint start was cut");
            }
        }
        // Dropping the reader frees the whole LCO at the next commit.
        n.held.clear();
        let x = n.mgr.begin_local();
        n.commit_local_xid(x);
        assert!(n.mgr.lco().is_empty());
    }
}
