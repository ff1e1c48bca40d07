//! The transaction status log ("clog").
//!
//! Every XID namespace (each DN, and the GTM) keeps the final status of its
//! transactions. Visibility = snapshot says *finished* ∧ clog says
//! *committed*; the split matters because a snapshot alone cannot
//! distinguish a committed from an aborted transaction.

use hdm_common::{HdmError, Result, Xid};

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

/// Status store for one XID namespace: a dense array indexed by
/// `xid - base`, one byte per XID (PostgreSQL's `pg_xact` is a dense status
/// array too). A namespace allocates its XIDs densely, so a status probe is
/// an index, not a hash lookup.
///
/// A `None` slot is an XID never begun here or since forgotten; it reads as
/// `Aborted`. The array is never cut yet, so `base` stays 0.
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    /// The XID of `statuses[0]`.
    base: u64,
    statuses: Vec<Option<TxnStatus>>,
    /// `Some` slots: the transactions tracked.
    tracked: usize,
    /// Slots holding `Committed`.
    committed: usize,
}

impl CommitLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a freshly-allocated XID as in-progress.
    pub fn begin(&mut self, xid: Xid) {
        let i = self.index(xid).expect("xid below the clog's base");
        if i >= self.statuses.len() {
            self.statuses.resize(i + 1, None);
        }
        self.set(i, Some(TxnStatus::InProgress));
    }

    pub fn status(&self, xid: Xid) -> TxnStatus {
        // Unknown XIDs are treated as aborted: the namespace never assigned
        // them, so no tuple legitimately carries them (crash-consistent
        // default in PostgreSQL as well).
        self.slot(xid)
            .map_or(TxnStatus::Aborted, |(_, status)| status)
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
            .map(drop)
    }

    /// Transition to `Committed`. Valid from `InProgress` (one-phase) or
    /// `Prepared` (2PC second phase).
    pub fn commit(&mut self, xid: Xid) -> Result<()> {
        self.transition(
            xid,
            TxnStatus::Committed,
            &[TxnStatus::InProgress, TxnStatus::Prepared],
        )
        .map(drop)
    }

    /// Transition to `Aborted`. Valid from `InProgress` or `Prepared`.
    pub fn abort(&mut self, xid: Xid) -> Result<()> {
        self.transition(
            xid,
            TxnStatus::Aborted,
            &[TxnStatus::InProgress, TxnStatus::Prepared],
        )
        .map(drop)
    }

    /// Drop an in-progress transaction that wrote nothing. Only valid from
    /// `InProgress`: no tuple carries the XID, so afterwards it reads as
    /// `Aborted` like any XID this namespace never assigned.
    pub fn forget(&mut self, xid: Xid) -> Result<()> {
        let i = self.transition(xid, TxnStatus::InProgress, &[TxnStatus::InProgress])?;
        self.set(i, None);
        Ok(())
    }

    /// Apply a legal transition and return the XID's slot index.
    fn transition(&mut self, xid: Xid, to: TxnStatus, from: &[TxnStatus]) -> Result<usize> {
        let (i, cur) = self
            .slot(xid)
            .ok_or_else(|| HdmError::TxnState(format!("{xid} was never begun here")))?;
        if !from.contains(&cur) {
            return Err(HdmError::TxnState(format!(
                "{xid}: illegal transition {cur:?} -> {to:?}"
            )));
        }
        self.set(i, Some(to));
        Ok(i)
    }

    fn index(&self, xid: Xid) -> Option<usize> {
        usize::try_from(xid.raw().checked_sub(self.base)?).ok()
    }

    /// The slot index and status of a tracked XID.
    fn slot(&self, xid: Xid) -> Option<(usize, TxnStatus)> {
        let i = self.index(xid)?;
        Some((i, (*self.statuses.get(i)?)?))
    }

    /// Overwrite slot `i`, keeping the counters in step.
    fn set(&mut self, i: usize, to: Option<TxnStatus>) {
        let from = std::mem::replace(&mut self.statuses[i], to);
        let committed = |s: Option<TxnStatus>| usize::from(s == Some(TxnStatus::Committed));
        self.tracked = self.tracked + usize::from(to.is_some()) - usize::from(from.is_some());
        self.committed = self.committed + committed(to) - committed(from);
    }

    /// Number of transactions tracked.
    pub fn len(&self) -> usize {
        self.tracked
    }

    /// Number of transactions recorded committed. The GTM seeds its
    /// recovered commit-sequence-number epoch from this.
    pub fn committed_count(&self) -> usize {
        self.committed
    }

    pub fn is_empty(&self) -> bool {
        self.tracked == 0
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
