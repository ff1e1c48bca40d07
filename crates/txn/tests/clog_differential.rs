//! Differential test for the dense commit log.
//!
//! Seeded random histories of `begin` / `prepare` / `commit` / `abort` /
//! `forget` / `status` run over one `CommitLog` beside a reference model
//! kept here: a `HashMap` from XID to status with the same rules (a missing
//! key reads `Aborted`; a transition on a missing key fails). The histories
//! mostly begin XIDs densely, as a namespace allocates them, but also skip
//! ahead, begin an XID a second time, and aim transitions and probes at
//! XIDs never begun, XIDs past the end of the array and forgotten XIDs.
//! After every step the two agree on that XID's status, on whether the
//! transition failed, on `len()`, on `committed_count()` and on
//! `is_empty()`; every few steps they agree on the status of every XID up
//! to past the end.

use hdm_common::{SplitMix64, Xid};
use hdm_txn::{CommitLog, TxnStatus};
use std::collections::HashMap;

/// The rules of the commit log, over a hash map.
#[derive(Default)]
struct Model {
    statuses: HashMap<u64, TxnStatus>,
}

impl Model {
    fn begin(&mut self, xid: u64) {
        self.statuses.insert(xid, TxnStatus::InProgress);
    }

    fn status(&self, xid: u64) -> TxnStatus {
        self.statuses
            .get(&xid)
            .copied()
            .unwrap_or(TxnStatus::Aborted)
    }

    fn transition(&mut self, xid: u64, to: TxnStatus, from: &[TxnStatus]) -> bool {
        match self.statuses.get_mut(&xid) {
            Some(cur) if from.contains(cur) => {
                *cur = to;
                true
            }
            _ => false,
        }
    }

    fn forget(&mut self, xid: u64) -> bool {
        self.transition(xid, TxnStatus::InProgress, &[TxnStatus::InProgress])
            && self.statuses.remove(&xid).is_some()
    }

    fn committed_count(&self) -> usize {
        self.statuses
            .values()
            .filter(|s| **s == TxnStatus::Committed)
            .count()
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Begin,
    Prepare,
    Commit,
    Abort,
    Forget,
    Status,
}

const OPS: [Op; 6] = [
    Op::Begin,
    Op::Prepare,
    Op::Commit,
    Op::Abort,
    Op::Forget,
    Op::Status,
];

/// Run one seeded history of `steps` operations; returns how many
/// transitions were accepted and how many rejected, so the caller can
/// check that both outcomes ran.
fn run(seed: u64, steps: usize) -> (usize, usize) {
    let mut rng = SplitMix64::new(seed);
    let mut log = CommitLog::new();
    let mut model = Model::default();
    // The next XID a dense allocator would hand out.
    let mut next = 3u64;
    let mut begun = Vec::new();
    let (mut accepted, mut rejected) = (0, 0);
    for step in 0..steps {
        let op = OPS[rng.next_below(OPS.len() as u64) as usize];
        let xid = match (op, rng.next_below(10)) {
            // Mostly dense: the next XID, sometimes after a gap.
            (Op::Begin, 0..=6) => {
                next += 1 + u64::from(rng.chance(0.1)) * rng.next_below(200);
                next - 1
            }
            // Any XID so far, begun again, or just past the end.
            (Op::Begin, _) => rng.next_below(next + 4),
            // One this history began, whatever it holds now.
            (_, 0..=5) if !begun.is_empty() => begun[rng.next_below(begun.len() as u64) as usize],
            // Far past the end of the array.
            (_, 9) => next + 1 + rng.next_below(5_000),
            // Any XID so far, or just past the end.
            _ => rng.next_below(next + 4),
        };
        let ctx = format!("seed {seed} step {step}: {op:?} {xid}");
        let x = Xid(xid);
        let outcome = match op {
            Op::Begin => {
                log.begin(x);
                model.begin(xid);
                begun.push(xid);
                next = next.max(xid + 1);
                None
            }
            Op::Prepare => Some((
                log.prepare(x).is_err(),
                !model.transition(xid, TxnStatus::Prepared, &[TxnStatus::InProgress]),
            )),
            Op::Commit => Some((
                log.commit(x).is_err(),
                !model.transition(
                    xid,
                    TxnStatus::Committed,
                    &[TxnStatus::InProgress, TxnStatus::Prepared],
                ),
            )),
            Op::Abort => Some((
                log.abort(x).is_err(),
                !model.transition(
                    xid,
                    TxnStatus::Aborted,
                    &[TxnStatus::InProgress, TxnStatus::Prepared],
                ),
            )),
            Op::Forget => Some((log.forget(x).is_err(), !model.forget(xid))),
            Op::Status => None,
        };
        if let Some((got, want)) = outcome {
            assert_eq!(got, want, "{ctx}: is_err");
            if got {
                rejected += 1;
            } else {
                accepted += 1;
            }
        }
        assert_eq!(log.status(x), model.status(xid), "{ctx}: status");
        assert_eq!(log.len(), model.statuses.len(), "{ctx}: len");
        assert_eq!(
            log.committed_count(),
            model.committed_count(),
            "{ctx}: committed_count"
        );
        assert_eq!(log.is_empty(), model.statuses.is_empty(), "{ctx}: is_empty");
        if step % 16 == 0 {
            for y in 0..next + 8 {
                assert_eq!(log.status(Xid(y)), model.status(y), "{ctx}: sweep {y}");
            }
        }
    }
    (accepted, rejected)
}

#[test]
fn dense_clog_matches_the_hash_map_model() {
    let (mut accepted, mut rejected) = (0, 0);
    for seed in 0..64 {
        let (a, r) = run(seed, 400);
        accepted += a;
        rejected += r;
    }
    assert!(
        accepted > 1_000 && rejected > 1_000,
        "both outcomes exercised: {accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn forgotten_and_never_begun_xids_read_aborted_and_reject_transitions() {
    let mut log = CommitLog::new();
    log.begin(Xid(10));
    log.begin(Xid(12));
    log.forget(Xid(10)).unwrap();
    for x in [Xid(0), Xid(10), Xid(11), Xid(13), Xid(u64::MAX)] {
        assert_eq!(log.status(x), TxnStatus::Aborted, "{x}");
        assert!(log.commit(x).is_err(), "{x}");
        assert!(log.abort(x).is_err(), "{x}");
        assert!(log.prepare(x).is_err(), "{x}");
        assert!(log.forget(x).is_err(), "{x}");
    }
    assert_eq!((log.len(), log.committed_count()), (1, 0));
    log.commit(Xid(12)).unwrap();
    assert_eq!((log.len(), log.committed_count()), (1, 1));
}
