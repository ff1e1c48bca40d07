//! The event loop: schedule callbacks at virtual instants, run to quiescence.

use hdm_common::{SimDuration, SimInstant};
use hdm_telemetry::{Counter, MetricsRegistry};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type EventFn<W> = Box<dyn FnOnce(&mut Sim<W>, &mut W)>;

/// A discrete-event simulator over a world state `W`.
///
/// Events are `FnOnce(&mut Sim<W>, &mut W)` callbacks; an event may schedule
/// further events (at or after the current instant). Ties are broken by
/// insertion order, so the simulation is fully deterministic.
pub struct Sim<W> {
    now: SimInstant,
    seq: u64,
    // The heap stores (time, seq) keys; callbacks live in a slab so the heap
    // entries stay `Ord` without requiring the callbacks to be comparable.
    heap: BinaryHeap<Reverse<(SimInstant, u64)>>,
    slots: Vec<Option<EventFn<W>>>,
    free: Vec<usize>,
    keys: std::collections::HashMap<(u64,), usize>,
    executed: u64,
    scheduled_ctr: Option<Counter>,
    executed_ctr: Option<Counter>,
}

impl<W> Default for Sim<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Sim<W> {
    pub fn new() -> Self {
        Self {
            now: SimInstant::ZERO,
            seq: 0,
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            keys: std::collections::HashMap::new(),
            executed: 0,
            scheduled_ctr: None,
            executed_ctr: None,
        }
    }

    /// Register the `sim.events.scheduled` / `sim.events.executed` counters
    /// with `metrics`; subsequent scheduling and execution bump them.
    pub fn attach_telemetry(&mut self, metrics: &MetricsRegistry) {
        self.scheduled_ctr = Some(metrics.counter("sim.events.scheduled", &[]));
        self.executed_ctr = Some(metrics.counter("sim.events.executed", &[]));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Schedule `f` to run at absolute virtual instant `at`.
    ///
    /// # Panics
    /// If `at` is in the past.
    pub fn schedule_at(&mut self, at: SimInstant, f: impl FnOnce(&mut Sim<W>, &mut W) + 'static) {
        assert!(at >= self.now, "cannot schedule into the past");
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(Box::new(f));
                i
            }
            None => {
                self.slots.push(Some(Box::new(f)));
                self.slots.len() - 1
            }
        };
        let seq = self.seq;
        self.seq += 1;
        self.keys.insert((seq,), slot);
        self.heap.push(Reverse((at, seq)));
        if let Some(c) = &self.scheduled_ctr {
            c.inc();
        }
    }

    /// Schedule `f` to run `delay` after now.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Sim<W>, &mut W) + 'static,
    ) {
        let at = self.now + delay;
        self.schedule_at(at, f);
    }

    /// Run events until the queue is empty or virtual time would exceed
    /// `until`. Returns the number of events executed by this call.
    pub fn run_until(&mut self, world: &mut W, until: SimInstant) -> u64 {
        let mut n = 0;
        while let Some(Reverse((at, seq))) = self.heap.peek().copied() {
            if at > until {
                break;
            }
            self.heap.pop();
            let slot = self.keys.remove(&(seq,)).expect("event key must exist");
            let f = self.slots[slot].take().expect("event must be present");
            self.free.push(slot);
            self.now = at;
            f(self, world);
            self.executed += 1;
            if let Some(c) = &self.executed_ctr {
                c.inc();
            }
            n += 1;
        }
        // Advance the clock to the horizon so repeated calls are monotonic.
        if self.now < until {
            self.now = until;
        }
        n
    }

    /// Run all events to quiescence.
    pub fn run(&mut self, world: &mut W) -> u64 {
        let mut n = 0;
        while let Some(Reverse((at, seq))) = self.heap.pop() {
            let slot = self.keys.remove(&(seq,)).expect("event key must exist");
            let f = self.slots[slot].take().expect("event must be present");
            self.free.push(slot);
            self.now = at;
            f(self, world);
            self.executed += 1;
            if let Some(c) = &self.executed_ctr {
                c.inc();
            }
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        sim.schedule_at(SimInstant(30), |_, w: &mut Vec<u32>| w.push(3));
        sim.schedule_at(SimInstant(10), |_, w: &mut Vec<u32>| w.push(1));
        sim.schedule_at(SimInstant(20), |_, w: &mut Vec<u32>| w.push(2));
        sim.run(&mut world);
        assert_eq!(world, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimInstant(30));
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        for i in 0..10 {
            sim.schedule_at(SimInstant(5), move |_, w: &mut Vec<u32>| w.push(i));
        }
        sim.run(&mut world);
        assert_eq!(world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        // A chain: each event schedules the next, 100 deep.
        struct W {
            count: u32,
        }
        fn step(sim: &mut Sim<W>, w: &mut W) {
            w.count += 1;
            if w.count < 100 {
                sim.schedule_in(SimDuration::from_micros(10), step);
            }
        }
        let mut sim = Sim::new();
        let mut world = W { count: 0 };
        sim.schedule_at(SimInstant::ZERO, step);
        sim.run(&mut world);
        assert_eq!(world.count, 100);
        assert_eq!(sim.now(), SimInstant(990));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut sim: Sim<Vec<u32>> = Sim::new();
        let mut world = Vec::new();
        sim.schedule_at(SimInstant(10), |_, w: &mut Vec<u32>| w.push(1));
        sim.schedule_at(SimInstant(1_000), |_, w: &mut Vec<u32>| w.push(2));
        let n = sim.run_until(&mut world, SimInstant(500));
        assert_eq!(n, 1);
        assert_eq!(world, vec![1]);
        assert_eq!(sim.now(), SimInstant(500));
        // The later event still fires on the next call.
        sim.run_until(&mut world, SimInstant(2_000));
        assert_eq!(world, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim: Sim<()> = Sim::new();
        let mut world = ();
        sim.schedule_at(SimInstant(100), |sim, _| {
            sim.schedule_at(SimInstant(50), |_, _| {});
        });
        sim.run(&mut world);
    }

    #[test]
    fn telemetry_counts_scheduled_and_executed_events() {
        let reg = MetricsRegistry::new();
        let mut sim: Sim<Vec<u32>> = Sim::new();
        sim.attach_telemetry(&reg);
        let mut world = Vec::new();
        sim.schedule_at(SimInstant(10), |sim, w: &mut Vec<u32>| {
            w.push(1);
            sim.schedule_in(SimDuration::from_micros(5), |_, w: &mut Vec<u32>| w.push(2));
        });
        sim.schedule_at(SimInstant(1_000), |_, w: &mut Vec<u32>| w.push(3));
        sim.run_until(&mut world, SimInstant(100));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("sim.events.scheduled"), 3);
        assert_eq!(
            snap.counter("sim.events.executed"),
            2,
            "horizon event pending"
        );
        sim.run(&mut world);
        assert_eq!(reg.snapshot().counter("sim.events.executed"), 3);
        assert_eq!(sim.executed(), 3);
    }

    #[test]
    fn slot_reuse_does_not_confuse_events() {
        // Interleave scheduling and running so slots are recycled.
        let mut sim: Sim<Vec<u64>> = Sim::new();
        let mut world = Vec::new();
        for round in 0u64..5 {
            sim.schedule_in(SimDuration::from_micros(1), move |_, w: &mut Vec<u64>| {
                w.push(round)
            });
            sim.run(&mut world);
        }
        assert_eq!(world, vec![0, 1, 2, 3, 4]);
    }
}
