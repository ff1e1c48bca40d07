//! MVCC snapshots.
//!
//! A snapshot is the classic PostgreSQL triple: `xmin` (every transaction
//! below it is finished), `xmax` (the next XID at snapshot time — this and
//! everything above is invisible), and the set of transactions that were
//! active in between. "To provide data consistency, PostgreSQL makes use of
//! snapshots … For Postgres-XC, Postgres-XL, and MPPDB, this is extended
//! cluster-wide via a Global Transaction Manager" (§II-A related work) —
//! the same struct serves as both the *local* and the *global* snapshot.

use hdm_common::Xid;
use std::collections::BTreeSet;

/// An MVCC snapshot over one XID namespace (one DN's local XIDs, or the
/// GTM's global XIDs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// All XIDs `< xmin` are finished (committed or aborted).
    pub xmin: Xid,
    /// First XID unassigned at snapshot time; `>= xmax` is invisible.
    pub xmax: Xid,
    /// XIDs in `[xmin, xmax)` that were in progress at snapshot time.
    pub active: BTreeSet<Xid>,
}

impl Snapshot {
    /// Construct from the allocator's next XID and the active set. The set
    /// is built by insertion: `collect` would stage the XIDs in a `Vec`
    /// first, a second allocation for the common one-node set.
    pub fn capture(next_xid: Xid, active: impl IntoIterator<Item = Xid>) -> Self {
        let mut set = BTreeSet::new();
        set.extend(active);
        Self {
            xmin: set.first().copied().unwrap_or(next_xid),
            xmax: next_xid,
            active: set,
        }
    }

    /// An empty snapshot that sees nothing (used before bootstrap).
    pub fn empty() -> Self {
        Self {
            xmin: Xid(0),
            xmax: Xid(0),
            active: BTreeSet::new(),
        }
    }

    /// Does this snapshot consider `xid` *finished* (not in-flight and not
    /// in the future)? A finished XID is visible iff the commit log also
    /// says it committed — that second check lives in the visibility judge.
    pub fn sees(&self, xid: Xid) -> bool {
        if xid >= self.xmax {
            return false;
        }
        if xid < self.xmin {
            return true;
        }
        !self.active.contains(&xid)
    }

    /// Is `xid` one of the in-progress transactions this snapshot saw?
    pub fn is_active(&self, xid: Xid) -> bool {
        xid >= self.xmax || self.active.contains(&xid)
    }

    /// Re-derive `xmin`/`xmax` after editing the active set (merge code
    /// mutates the set, then normalizes — Algorithm 1 line 7, "adjust
    /// mergedXmin and mergedXmax").
    pub fn normalize(&mut self) {
        if let Some(&lo) = self.active.iter().next() {
            self.xmin = self.xmin.min(lo);
            if let Some(&hi) = self.active.iter().next_back() {
                self.xmax = self.xmax.max(Xid(hi.raw() + 1));
            }
        }
    }
}

impl std::fmt::Display for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snap[{}..{}, active={{{}}}]",
            self.xmin.raw(),
            self.xmax.raw(),
            self.active
                .iter()
                .map(|x| x.raw().to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_and_see() {
        let s = Snapshot::capture(Xid(10), [Xid(5), Xid(7)]);
        assert_eq!(s.xmin, Xid(5));
        assert_eq!(s.xmax, Xid(10));
        assert!(s.sees(Xid(3)), "below xmin");
        assert!(!s.sees(Xid(5)), "active");
        assert!(s.sees(Xid(6)), "finished between actives");
        assert!(!s.sees(Xid(7)), "active");
        assert!(!s.sees(Xid(10)), "future");
        assert!(!s.sees(Xid(42)), "far future");
    }

    #[test]
    fn no_active_means_xmin_is_xmax() {
        let s = Snapshot::capture(Xid(10), []);
        assert_eq!(s.xmin, Xid(10));
        assert!(s.sees(Xid(9)));
        assert!(!s.sees(Xid(10)));
    }

    #[test]
    fn is_active_counts_future_as_active() {
        let s = Snapshot::capture(Xid(10), [Xid(5)]);
        assert!(s.is_active(Xid(5)));
        assert!(s.is_active(Xid(11)));
        assert!(!s.is_active(Xid(6)));
    }

    #[test]
    fn normalize_extends_bounds_to_cover_active() {
        let mut s = Snapshot::capture(Xid(10), [Xid(5)]);
        // Merge logic injects an XID beyond xmax (a downgraded local commit).
        s.active.insert(Xid(15));
        s.active.insert(Xid(2));
        s.normalize();
        assert!(s.xmin <= Xid(2));
        assert!(s.xmax > Xid(15));
        assert!(!s.sees(Xid(15)));
        assert!(!s.sees(Xid(2)));
    }

    #[test]
    fn empty_snapshot_sees_nothing() {
        let s = Snapshot::empty();
        assert!(!s.sees(Xid(0)));
        assert!(!s.sees(Xid(1)));
    }
}
