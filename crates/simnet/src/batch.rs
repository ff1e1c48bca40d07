//! Deterministic group-commit batching for a serialized resource.
//!
//! The GTM is a single-server queue: every snapshot/CSN request pays the
//! full `gtm_service` cost, so the queue saturates at the per-request rate.
//! A [`Batcher`] coalesces requests arriving within a virtual-time *window*
//! into one service event whose cost is `base + Σ per-member weight`,
//! amortizing the fixed per-visit overhead across the batch — the classic
//! group-commit lever. Because windows open and close at exact virtual
//! instants and members are kept in join order, batching is bit-for-bit
//! deterministic: the same event schedule produces the same batches.
//!
//! Protocol between a batcher and its event loop:
//!
//! 1. A request calls [`Batcher::join`]. If no window is open, one opens
//!    and `join` returns `Some(close_at)` — the caller must schedule a
//!    close event at that instant. If a window is already open, the
//!    request boards it and `join` returns `None`.
//! 2. At `close_at` the caller invokes [`Batcher::close`], which issues
//!    one [`Resource::request`] for the whole batch and hands back the
//!    members (in join order) with the shared [`Grant`] so the caller can
//!    resume each member at `grant.end`.
//!
//! A zero window degenerates to a batch of exactly one request *only if
//! no other request joins at the identical instant*; callers that want
//! exact legacy (unbatched) behaviour should bypass the batcher entirely
//! when the window is zero rather than rely on that.

use crate::resource::{Grant, Resource};
use hdm_common::{SimDuration, SimInstant};

/// Running totals for reporting (`gtm.batch.*` series).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Batches served (windows closed with at least one member).
    pub batches: u64,
    /// Requests that travelled inside those batches.
    pub requests: u64,
    /// Largest batch seen.
    pub max_batch: u64,
}

impl BatchStats {
    /// Mean members per batch (1.0 when batching never coalesced anything).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// One closed batch: the shared service grant plus the members that rode it.
#[derive(Debug)]
pub struct ClosedBatch<M> {
    /// The single coalesced service span granted by the resource.
    pub grant: Grant,
    /// Members in join order (deterministic).
    pub members: Vec<(SimInstant, M)>,
}

impl<M> ClosedBatch<M> {
    pub fn size(&self) -> u64 {
        self.members.len() as u64
    }
}

/// A window-based request coalescer for one serialized [`Resource`].
#[derive(Debug)]
pub struct Batcher<M> {
    window: SimDuration,
    base_service: SimDuration,
    /// `(join instant, per-member service weight, member)` in join order.
    pending: Vec<(SimInstant, SimDuration, M)>,
    /// When the open window closes, if one is open.
    open_until: Option<SimInstant>,
    stats: BatchStats,
}

impl<M> Batcher<M> {
    /// `window`: how long a freshly-opened batch collects joiners.
    /// `base_service`: the fixed per-batch service cost paid once, on top
    /// of which each member adds its own weight.
    pub fn new(window: SimDuration, base_service: SimDuration) -> Self {
        Self {
            window,
            base_service,
            pending: Vec::new(),
            open_until: None,
            stats: BatchStats::default(),
        }
    }

    /// Board the open batch, or open a new one.
    ///
    /// Returns `Some(close_at)` when this join opened a window — the caller
    /// must schedule a [`Batcher::close`] at that instant. Returns `None`
    /// when the request boarded an already-open window.
    ///
    /// `weight` is this member's marginal service cost (e.g. one
    /// `gtm_batch_per_item` per GTM interaction the request replaces).
    pub fn join(&mut self, now: SimInstant, weight: SimDuration, member: M) -> Option<SimInstant> {
        self.pending.push((now, weight, member));
        match self.open_until {
            Some(_) => None,
            None => {
                let close_at = now + self.window;
                self.open_until = Some(close_at);
                Some(close_at)
            }
        }
    }

    /// Close the open window: issue one coalesced request against
    /// `resource` at `now` and return the members with the shared grant.
    ///
    /// # Panics
    /// If no window is open (a close event fired without a matching join).
    pub fn close(&mut self, now: SimInstant, resource: &mut Resource) -> ClosedBatch<M> {
        assert!(
            self.open_until.take().is_some(),
            "batch close with no open window"
        );
        let pending = std::mem::take(&mut self.pending);
        let service = pending
            .iter()
            .fold(self.base_service, |acc, (_, w, _)| acc + *w);
        let grant = resource.request(now, service);
        let size = pending.len() as u64;
        self.stats.batches += 1;
        self.stats.requests += size;
        self.stats.max_batch = self.stats.max_batch.max(size);
        ClosedBatch {
            grant,
            members: pending.into_iter().map(|(at, _, m)| (at, m)).collect(),
        }
    }

    /// Is a window currently collecting joiners?
    pub fn is_open(&self) -> bool {
        self.open_until.is_some()
    }

    /// Members waiting in the open window.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    pub fn stats(&self) -> BatchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_join_opens_later_joins_board() {
        let mut b: Batcher<u32> =
            Batcher::new(SimDuration::from_micros(10), SimDuration::from_micros(2));
        assert_eq!(
            b.join(SimInstant(100), SimDuration::from_micros(1), 1),
            Some(SimInstant(110)),
            "first join opens the window"
        );
        assert_eq!(
            b.join(SimInstant(104), SimDuration::from_micros(1), 2),
            None
        );
        assert_eq!(
            b.join(SimInstant(109), SimDuration::from_micros(1), 3),
            None
        );
        assert!(b.is_open());
        assert_eq!(b.pending(), 3);
    }

    #[test]
    fn close_amortizes_service_and_preserves_join_order() {
        let mut b: Batcher<&str> =
            Batcher::new(SimDuration::from_micros(10), SimDuration::from_micros(4));
        let mut gtm = Resource::new("gtm", 1);
        b.join(SimInstant(0), SimDuration::from_micros(1), "a");
        b.join(SimInstant(3), SimDuration::from_micros(2), "b");
        b.join(SimInstant(7), SimDuration::from_micros(1), "c");
        let batch = b.close(SimInstant(10), &mut gtm);
        // service = base 4 + weights 1+2+1 = 8, on an idle server.
        assert_eq!(batch.grant.start, SimInstant(10));
        assert_eq!(batch.grant.end, SimInstant(18));
        assert_eq!(batch.size(), 3);
        let names: Vec<&str> = batch.members.iter().map(|(_, m)| *m).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert!(!b.is_open());
        assert_eq!(b.pending(), 0);
        // Three requests cost one grant of 8us instead of three visits.
        assert_eq!(gtm.grants(), 1);
        assert_eq!(gtm.busy_time().micros(), 8);
    }

    #[test]
    fn next_join_after_close_opens_a_fresh_window() {
        let mut b: Batcher<u32> =
            Batcher::new(SimDuration::from_micros(5), SimDuration::from_micros(2));
        let mut gtm = Resource::new("gtm", 1);
        b.join(SimInstant(0), SimDuration::ZERO, 1);
        b.close(SimInstant(5), &mut gtm);
        assert_eq!(
            b.join(SimInstant(20), SimDuration::ZERO, 2),
            Some(SimInstant(25)),
            "post-close join opens again"
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut b: Batcher<u32> =
            Batcher::new(SimDuration::from_micros(5), SimDuration::from_micros(2));
        let mut gtm = Resource::new("gtm", 1);
        b.join(SimInstant(0), SimDuration::ZERO, 1);
        b.join(SimInstant(1), SimDuration::ZERO, 2);
        b.join(SimInstant(2), SimDuration::ZERO, 3);
        b.close(SimInstant(5), &mut gtm);
        b.join(SimInstant(10), SimDuration::ZERO, 4);
        b.close(SimInstant(15), &mut gtm);
        let s = b.stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.requests, 4);
        assert_eq!(s.max_batch, 3);
        assert!((s.mean_batch_size() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no open window")]
    fn close_without_join_panics() {
        let mut b: Batcher<u32> = Batcher::new(SimDuration::ZERO, SimDuration::ZERO);
        let mut gtm = Resource::new("gtm", 1);
        b.close(SimInstant(0), &mut gtm);
    }
}
