//! The two-phase-commit coordinator state machine.
//!
//! "Two-phase commit (2PC) is used to support atomic write operation across
//! nodes" (§II-A). The CN acts as coordinator for multi-shard writes: it
//! collects PREPARE votes from every participant DN, decides, reports the
//! decision to the GTM (committed-at-GTM-first — Anomaly 1's ordering), and
//! then confirms to the participants. This module is the pure state machine;
//! the cluster crate supplies timing and message delivery.

use hdm_common::{HdmError, Result, ShardId};
use std::collections::HashMap;

/// Coordinator lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoPcState {
    /// Phase 1: waiting for votes.
    Collecting,
    /// The decision is unknown here (coordinator restarted without a durable
    /// decision record, or a participant holds a prepared transaction whose
    /// coordinator is unreachable). Must be resolved against the GTM's
    /// commit log before the protocol can proceed.
    InDoubt,
    /// Decision made: commit; waiting for participant acks.
    Committing,
    /// Decision made: abort; waiting for participant acks.
    Aborting,
    /// All participants acknowledged commit.
    Committed,
    /// All participants acknowledged abort.
    Aborted,
}

/// The coordinator's decision after phase 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    Commit,
    Abort,
}

/// A 2PC coordinator for one multi-shard transaction.
#[derive(Debug, Clone)]
pub struct TwoPcCoordinator {
    participants: Vec<ShardId>,
    votes: HashMap<u64, bool>,
    acks: HashMap<u64, ()>,
    state: TwoPcState,
}

impl TwoPcCoordinator {
    /// Start phase 1 for the given participants.
    ///
    /// # Panics
    /// If `participants` is empty (a zero-participant write is not a
    /// distributed transaction).
    pub fn new(participants: Vec<ShardId>) -> Self {
        assert!(!participants.is_empty(), "2PC needs participants");
        Self {
            participants,
            votes: HashMap::new(),
            acks: HashMap::new(),
            state: TwoPcState::Collecting,
        }
    }

    /// Reconstruct a coordinator whose decision record did not survive a
    /// restart. Votes and acks are unknown; the caller must [`Self::resolve`]
    /// against the authoritative decision source (the GTM's commit log)
    /// before the protocol can continue.
    pub fn recover_in_doubt(participants: Vec<ShardId>) -> Self {
        assert!(!participants.is_empty(), "2PC needs participants");
        Self {
            participants,
            votes: HashMap::new(),
            acks: HashMap::new(),
            state: TwoPcState::InDoubt,
        }
    }

    pub fn state(&self) -> TwoPcState {
        self.state
    }

    pub fn participants(&self) -> &[ShardId] {
        &self.participants
    }

    /// Is the decision unknown pending consultation of the commit log?
    pub fn is_in_doubt(&self) -> bool {
        self.state == TwoPcState::InDoubt
    }

    /// Record a participant's phase-1 vote. Returns the decision once it is
    /// determined: `Abort` as soon as any participant votes no, `Commit`
    /// once every participant voted yes.
    pub fn vote(&mut self, shard: ShardId, yes: bool) -> Result<Option<Decision>> {
        if self.state != TwoPcState::Collecting {
            return Err(HdmError::TxnState(format!(
                "vote from {shard} after decision ({:?})",
                self.state
            )));
        }
        if !self.participants.contains(&shard) {
            return Err(HdmError::TxnState(format!("{shard} is not a participant")));
        }
        if self.votes.insert(shard.raw(), yes).is_some() {
            return Err(HdmError::TxnState(format!("{shard} voted twice")));
        }
        if !yes {
            self.state = TwoPcState::Aborting;
            return Ok(Some(Decision::Abort));
        }
        if self.votes.len() == self.participants.len() {
            self.state = TwoPcState::Committing;
            return Ok(Some(Decision::Commit));
        }
        Ok(None)
    }

    /// The vote-collection timer fired with votes still outstanding. The
    /// decision is **presumed abort**: a missing vote is counted as a no, so
    /// a crashed or partitioned participant can never block the coordinator
    /// forever, and the eventual recovery answer (commit log says not
    /// committed → abort) agrees with the decision taken here.
    pub fn timeout_votes(&mut self) -> Result<Decision> {
        if self.state != TwoPcState::Collecting {
            return Err(HdmError::TxnState(format!(
                "vote timeout in state {:?}",
                self.state
            )));
        }
        if self.votes.len() == self.participants.len() {
            return Err(HdmError::TxnState("vote timeout with all votes in".into()));
        }
        self.state = TwoPcState::Aborting;
        Ok(Decision::Abort)
    }

    /// Resolve an in-doubt coordinator from the authoritative decision
    /// source. Moves to the ack-collection phase for that decision.
    pub fn resolve(&mut self, decision: Decision) -> Result<()> {
        if self.state != TwoPcState::InDoubt {
            return Err(HdmError::TxnState(format!(
                "resolve in state {:?}",
                self.state
            )));
        }
        self.state = match decision {
            Decision::Commit => TwoPcState::Committing,
            Decision::Abort => TwoPcState::Aborting,
        };
        Ok(())
    }

    /// Record a participant's phase-2 acknowledgement. Returns `true` when
    /// the protocol completed (all acks in). A duplicate ack is a protocol
    /// error: acks are counted, so accepting the same participant twice
    /// could complete 2PC while another participant never confirmed —
    /// transports that retransmit must dedupe via [`Self::has_acked`].
    pub fn ack(&mut self, shard: ShardId) -> Result<bool> {
        match self.state {
            TwoPcState::Committing | TwoPcState::Aborting => {}
            s => {
                return Err(HdmError::TxnState(format!(
                    "ack from {shard} in state {s:?}"
                )))
            }
        }
        if !self.participants.contains(&shard) {
            return Err(HdmError::TxnState(format!("{shard} is not a participant")));
        }
        if self.acks.insert(shard.raw(), ()).is_some() {
            return Err(HdmError::TxnState(format!("{shard} acked twice")));
        }
        if self.acks.len() == self.participants.len() {
            self.state = match self.state {
                TwoPcState::Committing => TwoPcState::Committed,
                _ => TwoPcState::Aborted,
            };
            return Ok(true);
        }
        Ok(false)
    }

    /// Has `shard` already acknowledged phase 2?
    pub fn has_acked(&self, shard: ShardId) -> bool {
        self.acks.contains_key(&shard.raw())
    }

    /// Participants whose phase-1 vote is still outstanding.
    pub fn missing_votes(&self) -> Vec<ShardId> {
        self.participants
            .iter()
            .copied()
            .filter(|s| !self.votes.contains_key(&s.raw()))
            .collect()
    }

    /// Participants whose phase-2 ack is still outstanding — the set the
    /// coordinator retransmits the decision to after an ack timeout.
    pub fn missing_acks(&self) -> Vec<ShardId> {
        self.participants
            .iter()
            .copied()
            .filter(|s| !self.acks.contains_key(&s.raw()))
            .collect()
    }

    pub fn is_done(&self) -> bool {
        matches!(self.state, TwoPcState::Committed | TwoPcState::Aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards(n: u64) -> Vec<ShardId> {
        (0..n).map(ShardId::new).collect()
    }

    #[test]
    fn unanimous_yes_commits() {
        let mut c = TwoPcCoordinator::new(shards(3));
        assert_eq!(c.vote(ShardId(0), true).unwrap(), None);
        assert_eq!(c.vote(ShardId(1), true).unwrap(), None);
        assert_eq!(c.vote(ShardId(2), true).unwrap(), Some(Decision::Commit));
        assert_eq!(c.state(), TwoPcState::Committing);
        assert!(!c.ack(ShardId(0)).unwrap());
        assert!(!c.ack(ShardId(1)).unwrap());
        assert!(c.ack(ShardId(2)).unwrap());
        assert_eq!(c.state(), TwoPcState::Committed);
        assert!(c.is_done());
    }

    #[test]
    fn any_no_aborts_immediately() {
        let mut c = TwoPcCoordinator::new(shards(3));
        assert_eq!(c.vote(ShardId(0), true).unwrap(), None);
        assert_eq!(c.vote(ShardId(1), false).unwrap(), Some(Decision::Abort));
        assert_eq!(c.state(), TwoPcState::Aborting);
        // Remaining vote is an error (decision already made).
        assert!(c.vote(ShardId(2), true).is_err());
    }

    #[test]
    fn abort_path_completes_with_acks() {
        let mut c = TwoPcCoordinator::new(shards(2));
        c.vote(ShardId(0), false).unwrap();
        c.ack(ShardId(0)).unwrap();
        assert!(c.ack(ShardId(1)).unwrap());
        assert_eq!(c.state(), TwoPcState::Aborted);
    }

    #[test]
    fn double_vote_and_stranger_vote_rejected() {
        let mut c = TwoPcCoordinator::new(shards(2));
        c.vote(ShardId(0), true).unwrap();
        assert!(c.vote(ShardId(0), true).is_err());
        assert!(c.vote(ShardId(9), true).is_err());
    }

    #[test]
    fn ack_before_decision_rejected() {
        let mut c = TwoPcCoordinator::new(shards(2));
        assert!(c.ack(ShardId(0)).is_err());
    }

    #[test]
    fn single_participant_commits_on_one_vote() {
        let mut c = TwoPcCoordinator::new(shards(1));
        assert_eq!(c.vote(ShardId(0), true).unwrap(), Some(Decision::Commit));
        assert!(c.ack(ShardId(0)).unwrap());
        assert_eq!(c.state(), TwoPcState::Committed);
    }

    #[test]
    #[should_panic(expected = "2PC needs participants")]
    fn empty_participants_rejected() {
        let _ = TwoPcCoordinator::new(vec![]);
    }

    #[test]
    fn duplicate_ack_rejected() {
        // Regression: a duplicate ack used to be silently absorbed, letting a
        // retransmitting participant stand in for one that never confirmed.
        let mut c = TwoPcCoordinator::new(shards(2));
        c.vote(ShardId(0), true).unwrap();
        c.vote(ShardId(1), true).unwrap();
        assert!(!c.ack(ShardId(0)).unwrap());
        let err = c.ack(ShardId(0)).unwrap_err();
        assert_eq!(err.class(), "txn_state");
        // The protocol is still waiting on shard 1 — NOT completed.
        assert_eq!(c.state(), TwoPcState::Committing);
        assert_eq!(c.missing_acks(), vec![ShardId(1)]);
        assert!(c.has_acked(ShardId(0)));
        assert!(c.ack(ShardId(1)).unwrap());
        assert_eq!(c.state(), TwoPcState::Committed);
    }

    #[test]
    fn vote_timeout_presumes_abort() {
        let mut c = TwoPcCoordinator::new(shards(3));
        c.vote(ShardId(0), true).unwrap();
        assert_eq!(c.missing_votes(), vec![ShardId(1), ShardId(2)]);
        assert_eq!(c.timeout_votes().unwrap(), Decision::Abort);
        assert_eq!(c.state(), TwoPcState::Aborting);
        // Late vote after the timeout decision is rejected.
        assert!(c.vote(ShardId(1), true).is_err());
        // A second timeout is an error (decision already made).
        assert!(c.timeout_votes().is_err());
    }

    #[test]
    fn vote_timeout_with_all_votes_in_is_an_error() {
        let mut c = TwoPcCoordinator::new(shards(1));
        c.vote(ShardId(0), true).unwrap();
        assert!(c.timeout_votes().is_err());
    }

    #[test]
    fn in_doubt_resolves_to_either_decision() {
        let mut c = TwoPcCoordinator::recover_in_doubt(shards(2));
        assert!(c.is_in_doubt());
        // Votes and acks are rejected while in doubt.
        assert!(c.vote(ShardId(0), true).is_err());
        assert!(c.ack(ShardId(0)).is_err());
        c.resolve(Decision::Commit).unwrap();
        assert_eq!(c.state(), TwoPcState::Committing);
        assert!(c.resolve(Decision::Commit).is_err(), "resolve is one-shot");
        c.ack(ShardId(0)).unwrap();
        assert!(c.ack(ShardId(1)).unwrap());
        assert_eq!(c.state(), TwoPcState::Committed);

        let mut a = TwoPcCoordinator::recover_in_doubt(shards(1));
        a.resolve(Decision::Abort).unwrap();
        assert!(a.ack(ShardId(0)).unwrap());
        assert_eq!(a.state(), TwoPcState::Aborted);
    }
}
