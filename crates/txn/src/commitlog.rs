//! The transaction status log ("clog").
//!
//! Every XID namespace (each DN, and the GTM) keeps the final status of its
//! transactions. Visibility = snapshot says *finished* ∧ clog says
//! *committed*; the split matters because a snapshot alone cannot
//! distinguish a committed from an aborted transaction.

use hdm_common::{HdmError, Result, Xid};
use std::collections::HashMap;

/// Lifecycle status of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnStatus {
    InProgress,
    /// 2PC: voted yes, waiting for the coordinator's decision. Still
    /// invisible to other transactions.
    Prepared,
    Committed,
    Aborted,
}

/// Status store for one XID namespace.
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    statuses: HashMap<u64, TxnStatus>,
}

impl CommitLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a freshly-allocated XID as in-progress.
    pub fn begin(&mut self, xid: Xid) {
        self.statuses.insert(xid.raw(), TxnStatus::InProgress);
    }

    pub fn status(&self, xid: Xid) -> TxnStatus {
        // Unknown XIDs are treated as aborted: the namespace never assigned
        // them, so no tuple legitimately carries them (crash-consistent
        // default in PostgreSQL as well).
        self.statuses
            .get(&xid.raw())
            .copied()
            .unwrap_or(TxnStatus::Aborted)
    }

    pub fn is_committed(&self, xid: Xid) -> bool {
        self.status(xid) == TxnStatus::Committed
    }

    pub fn is_prepared(&self, xid: Xid) -> bool {
        self.status(xid) == TxnStatus::Prepared
    }

    /// Transition to `Prepared`. Only valid from `InProgress`.
    pub fn prepare(&mut self, xid: Xid) -> Result<()> {
        self.transition(xid, TxnStatus::Prepared, &[TxnStatus::InProgress])
    }

    /// Transition to `Committed`. Valid from `InProgress` (one-phase) or
    /// `Prepared` (2PC second phase).
    pub fn commit(&mut self, xid: Xid) -> Result<()> {
        self.transition(
            xid,
            TxnStatus::Committed,
            &[TxnStatus::InProgress, TxnStatus::Prepared],
        )
    }

    /// Transition to `Aborted`. Valid from `InProgress` or `Prepared`.
    pub fn abort(&mut self, xid: Xid) -> Result<()> {
        self.transition(
            xid,
            TxnStatus::Aborted,
            &[TxnStatus::InProgress, TxnStatus::Prepared],
        )
    }

    /// Drop an in-progress transaction that wrote nothing. Only valid from
    /// `InProgress`: no tuple carries the XID, so afterwards it reads as
    /// `Aborted` like any XID this namespace never assigned.
    pub fn forget(&mut self, xid: Xid) -> Result<()> {
        self.transition(xid, TxnStatus::InProgress, &[TxnStatus::InProgress])?;
        self.statuses.remove(&xid.raw());
        Ok(())
    }

    fn transition(&mut self, xid: Xid, to: TxnStatus, from: &[TxnStatus]) -> Result<()> {
        let cur = self
            .statuses
            .get_mut(&xid.raw())
            .ok_or_else(|| HdmError::TxnState(format!("{xid} was never begun here")))?;
        if !from.contains(cur) {
            return Err(HdmError::TxnState(format!(
                "{xid}: illegal transition {cur:?} -> {to:?}"
            )));
        }
        *cur = to;
        Ok(())
    }

    /// Number of transactions tracked.
    pub fn len(&self) -> usize {
        self.statuses.len()
    }

    /// Number of transactions recorded committed. The GTM seeds its
    /// recovered commit-sequence-number epoch from this.
    pub fn committed_count(&self) -> usize {
        self.statuses
            .values()
            .filter(|s| **s == TxnStatus::Committed)
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.statuses.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_one_phase() {
        let mut log = CommitLog::new();
        log.begin(Xid(1));
        assert_eq!(log.status(Xid(1)), TxnStatus::InProgress);
        log.commit(Xid(1)).unwrap();
        assert!(log.is_committed(Xid(1)));
    }

    #[test]
    fn lifecycle_two_phase() {
        let mut log = CommitLog::new();
        log.begin(Xid(2));
        log.prepare(Xid(2)).unwrap();
        assert!(log.is_prepared(Xid(2)));
        assert!(!log.is_committed(Xid(2)), "prepared is not visible");
        log.commit(Xid(2)).unwrap();
        assert!(log.is_committed(Xid(2)));
    }

    #[test]
    fn prepared_can_abort() {
        let mut log = CommitLog::new();
        log.begin(Xid(3));
        log.prepare(Xid(3)).unwrap();
        log.abort(Xid(3)).unwrap();
        assert_eq!(log.status(Xid(3)), TxnStatus::Aborted);
    }

    #[test]
    fn committed_is_terminal() {
        let mut log = CommitLog::new();
        log.begin(Xid(4));
        log.commit(Xid(4)).unwrap();
        assert!(log.abort(Xid(4)).is_err());
        assert!(log.prepare(Xid(4)).is_err());
        assert!(log.commit(Xid(4)).is_err(), "double commit rejected");
    }

    #[test]
    fn forget_drops_an_in_progress_entry_only() {
        let mut log = CommitLog::new();
        log.begin(Xid(5));
        log.begin(Xid(6));
        log.prepare(Xid(6)).unwrap();
        log.forget(Xid(5)).unwrap();
        assert!(
            log.forget(Xid(6)).is_err(),
            "a prepared txn is never forgotten"
        );
        assert_eq!(log.status(Xid(5)), TxnStatus::Aborted);
        assert_eq!(log.len(), 1);
        assert!(log.forget(Xid(5)).is_err(), "forgotten is gone");
    }

    #[test]
    fn unknown_xid_reads_aborted_and_rejects_transitions() {
        let mut log = CommitLog::new();
        assert_eq!(log.status(Xid(99)), TxnStatus::Aborted);
        assert!(log.commit(Xid(99)).is_err());
    }
}
