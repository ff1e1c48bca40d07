//! Deterministic fault injection for the discrete-event simulations.
//!
//! A [`FaultPlan`] is a seeded source of faults: per-message fates (drop,
//! duplicate, extra delay) sampled at delivery points, and a crash/restart
//! schedule for data nodes and the GTM generated up front from the same
//! seed. Two plans built from the same seed and [`FaultConfig`] produce
//! bit-identical fault sequences, so a chaotic run replays exactly — the
//! property the chaos harness's trace assertions rely on.

use hdm_common::{SimDuration, SimInstant, SplitMix64};
use hdm_telemetry::{Counter, MetricsRegistry};

/// Fault-injection parameters. All probabilities are per message; crash
/// rates are expected crash counts per target over the horizon.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// P(message is dropped and must be retransmitted).
    pub drop_p: f64,
    /// P(message is delivered twice).
    pub duplicate_p: f64,
    /// P(message is delayed by extra latency).
    pub delay_p: f64,
    /// Maximum extra delay for delayed messages (uniform in (0, max]).
    pub max_extra_delay: SimDuration,
    /// Expected crashes per data node over the horizon.
    pub dn_crashes_per_node: f64,
    /// Expected GTM crashes over the horizon.
    pub gtm_crashes: f64,
    /// Downtime is uniform in [min_downtime, max_downtime].
    pub min_downtime: SimDuration,
    pub max_downtime: SimDuration,
}

impl FaultConfig {
    /// No faults at all — a plan under this config is a no-op.
    pub fn none() -> Self {
        Self {
            drop_p: 0.0,
            duplicate_p: 0.0,
            delay_p: 0.0,
            max_extra_delay: SimDuration::from_micros(0),
            dn_crashes_per_node: 0.0,
            gtm_crashes: 0.0,
            min_downtime: SimDuration::from_micros(100),
            max_downtime: SimDuration::from_micros(100),
        }
    }

    /// A moderately hostile default: a few percent message faults, about one
    /// crash per target per run.
    pub fn chaotic() -> Self {
        Self {
            drop_p: 0.02,
            duplicate_p: 0.02,
            delay_p: 0.05,
            max_extra_delay: SimDuration::from_micros(500),
            dn_crashes_per_node: 1.0,
            gtm_crashes: 1.0,
            min_downtime: SimDuration::from_micros(200),
            max_downtime: SimDuration::from_micros(2_000),
        }
    }

    /// Data-node crash/restart cycles only: [`Self::chaotic`]'s crash rate
    /// and downtimes with every message fault and GTM loss switched off.
    /// Isolates node loss from transport loss — the failover sweeps' diet.
    pub fn dn_crashes_only() -> Self {
        Self {
            drop_p: 0.0,
            duplicate_p: 0.0,
            delay_p: 0.0,
            gtm_crashes: 0.0,
            ..Self::chaotic()
        }
    }

    fn validate(&self) {
        for (name, p) in [
            ("drop_p", self.drop_p),
            ("duplicate_p", self.duplicate_p),
            ("delay_p", self.delay_p),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1]");
        }
        assert!(
            self.min_downtime <= self.max_downtime,
            "min_downtime must be <= max_downtime"
        );
    }
}

/// What happens to one message at its delivery point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgFate {
    /// Delivered normally.
    Deliver,
    /// Lost; the sender times out and retransmits.
    Drop,
    /// Delivered twice (receiver-side idempotence is exercised).
    Duplicate,
    /// Delivered after extra latency.
    Delay(SimDuration),
}

/// Which component a crash event targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTarget {
    DataNode(usize),
    Gtm,
}

/// One scheduled crash: the target goes down at `at` and restarts at
/// `restart_at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    pub at: SimInstant,
    pub restart_at: SimInstant,
    pub target: CrashTarget,
}

/// Injection counters (`fault.msg{fate=…}`, `fault.crash{target=…}`) so a
/// chaos report can assert how many faults actually fired.
#[derive(Debug, Clone)]
struct FaultMetrics {
    drop: Counter,
    duplicate: Counter,
    delay: Counter,
    crash_dn: Counter,
    crash_gtm: Counter,
}

/// A seeded, replayable fault schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    cfg: FaultConfig,
    rng: SplitMix64,
    messages: u64,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
    metrics: Option<FaultMetrics>,
}

impl FaultPlan {
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            rng: SplitMix64::new(seed ^ 0xFA07_5EED),
            messages: 0,
            dropped: 0,
            duplicated: 0,
            delayed: 0,
            metrics: None,
        }
    }

    /// Register the injection counters with `metrics`. Counting happens at
    /// sampling points, so attach before drawing fates or schedules.
    pub fn attach_telemetry(&mut self, metrics: &MetricsRegistry) {
        self.metrics = Some(FaultMetrics {
            drop: metrics.counter("fault.msg", &[("fate", "drop")]),
            duplicate: metrics.counter("fault.msg", &[("fate", "duplicate")]),
            delay: metrics.counter("fault.msg", &[("fate", "delay")]),
            crash_dn: metrics.counter("fault.crash", &[("target", "dn")]),
            crash_gtm: metrics.counter("fault.crash", &[("target", "gtm")]),
        });
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Sample the fate of the next message. Exactly one `next_f64` draw per
    /// deliverable outcome keeps the stream cheap and replayable.
    pub fn message_fate(&mut self) -> MsgFate {
        self.messages += 1;
        let roll = self.rng.next_f64();
        let c = &self.cfg;
        if roll < c.drop_p {
            self.dropped += 1;
            if let Some(m) = &self.metrics {
                m.drop.inc();
            }
            return MsgFate::Drop;
        }
        if roll < c.drop_p + c.duplicate_p {
            self.duplicated += 1;
            if let Some(m) = &self.metrics {
                m.duplicate.inc();
            }
            return MsgFate::Duplicate;
        }
        if roll < c.drop_p + c.duplicate_p + c.delay_p {
            self.delayed += 1;
            if let Some(m) = &self.metrics {
                m.delay.inc();
            }
            let max = c.max_extra_delay.micros().max(1);
            let extra = 1 + self.rng.next_below(max);
            return MsgFate::Delay(SimDuration::from_micros(extra));
        }
        MsgFate::Deliver
    }

    /// Generate the crash/restart schedule for `nodes` data nodes plus the
    /// GTM over `horizon`. Events are sorted by crash instant; a target's
    /// crashes never overlap (each restart precedes its next crash).
    pub fn crash_schedule(&mut self, nodes: usize, horizon: SimDuration) -> Vec<CrashEvent> {
        let mut events = Vec::new();
        let h = horizon.micros();
        for n in 0..nodes {
            self.schedule_target(
                CrashTarget::DataNode(n),
                self.cfg.dn_crashes_per_node,
                h,
                &mut events,
            );
        }
        self.schedule_target(CrashTarget::Gtm, self.cfg.gtm_crashes, h, &mut events);
        events.sort_by_key(|e| (e.at, e.restart_at));
        events
    }

    fn schedule_target(
        &mut self,
        target: CrashTarget,
        expected: f64,
        horizon_us: u64,
        out: &mut Vec<CrashEvent>,
    ) {
        if expected <= 0.0 || horizon_us == 0 {
            return;
        }
        // Poisson-ish: round `expected` up or down stochastically, then
        // spread crashes over disjoint slices of the horizon so downtimes
        // cannot overlap for one target.
        let count = expected.floor() as u64 + u64::from(self.rng.chance(expected.fract()));
        if count == 0 {
            return;
        }
        let slice = horizon_us / count;
        if slice < 2 {
            return;
        }
        for i in 0..count {
            let lo = i * slice;
            let at = lo + self.rng.next_below(slice / 2).max(1);
            let span = self.cfg.max_downtime.micros() - self.cfg.min_downtime.micros();
            let down = self.cfg.min_downtime.micros()
                + if span == 0 {
                    0
                } else {
                    self.rng.next_below(span + 1)
                };
            // Clamp the restart inside this target's slice so crashes stay
            // disjoint even with generous downtimes.
            let restart = (at + down.max(1)).min(lo + slice - 1);
            if let Some(m) = &self.metrics {
                match target {
                    CrashTarget::DataNode(_) => m.crash_dn.inc(),
                    CrashTarget::Gtm => m.crash_gtm.inc(),
                }
            }
            out.push(CrashEvent {
                at: SimInstant(at),
                restart_at: SimInstant(restart.max(at + 1)),
                target,
            });
        }
    }

    /// (messages seen, dropped, duplicated, delayed) — for reports.
    pub fn message_stats(&self) -> (u64, u64, u64, u64) {
        (self.messages, self.dropped, self.duplicated, self.delayed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FaultConfig {
        FaultConfig::chaotic()
    }

    #[test]
    fn same_seed_same_fates() {
        let mut a = FaultPlan::new(42, cfg());
        let mut b = FaultPlan::new(42, cfg());
        for _ in 0..1_000 {
            assert_eq!(a.message_fate(), b.message_fate());
        }
        let h = SimDuration::from_millis(50);
        assert_eq!(a.crash_schedule(4, h), b.crash_schedule(4, h));
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultPlan::new(1, cfg());
        let mut b = FaultPlan::new(2, cfg());
        let fates_a: Vec<_> = (0..100).map(|_| a.message_fate()).collect();
        let fates_b: Vec<_> = (0..100).map(|_| b.message_fate()).collect();
        assert_ne!(fates_a, fates_b);
    }

    #[test]
    fn none_config_is_a_noop() {
        let mut p = FaultPlan::new(7, FaultConfig::none());
        for _ in 0..500 {
            assert_eq!(p.message_fate(), MsgFate::Deliver);
        }
        assert!(p
            .crash_schedule(8, SimDuration::from_millis(100))
            .is_empty());
    }

    #[test]
    fn fault_rates_are_roughly_honoured() {
        let mut p = FaultPlan::new(3, cfg());
        for _ in 0..20_000 {
            p.message_fate();
        }
        let (n, drops, dups, delays) = p.message_stats();
        assert_eq!(n, 20_000);
        let frac = |x: u64| x as f64 / n as f64;
        assert!(
            (frac(drops) - 0.02).abs() < 0.01,
            "drop rate {}",
            frac(drops)
        );
        assert!((frac(dups) - 0.02).abs() < 0.01, "dup rate {}", frac(dups));
        assert!(
            (frac(delays) - 0.05).abs() < 0.02,
            "delay rate {}",
            frac(delays)
        );
    }

    #[test]
    fn crash_schedule_is_sorted_and_restarts_follow_crashes() {
        let mut p = FaultPlan::new(11, cfg());
        let h = SimDuration::from_millis(100);
        let events = p.crash_schedule(6, h);
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        for e in &events {
            assert!(e.restart_at > e.at, "{e:?} restarts before crashing");
            assert!(e.at < SimInstant::ZERO + h);
        }
    }

    #[test]
    fn per_target_crashes_do_not_overlap() {
        let mut c = cfg();
        c.dn_crashes_per_node = 3.0;
        let mut p = FaultPlan::new(13, c);
        let mut events = p.crash_schedule(2, SimDuration::from_millis(100));
        events.sort_by_key(|e| (format!("{:?}", e.target), e.at));
        for w in events.windows(2) {
            if w[0].target == w[1].target {
                assert!(
                    w[0].restart_at < w[1].at,
                    "overlapping downtime for {:?}",
                    w[0].target
                );
            }
        }
    }

    #[test]
    fn telemetry_counters_match_message_stats() {
        let reg = MetricsRegistry::new();
        let mut p = FaultPlan::new(5, cfg());
        p.attach_telemetry(&reg);
        for _ in 0..5_000 {
            p.message_fate();
        }
        let crashes = p.crash_schedule(3, SimDuration::from_millis(50));
        let (_, drops, dups, delays) = p.message_stats();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("fault.msg{fate=drop}"), drops);
        assert_eq!(snap.counter("fault.msg{fate=duplicate}"), dups);
        assert_eq!(snap.counter("fault.msg{fate=delay}"), delays);
        assert!(
            drops > 0 && dups > 0 && delays > 0,
            "chaotic cfg fires faults"
        );
        let dn = crashes
            .iter()
            .filter(|e| matches!(e.target, CrashTarget::DataNode(_)))
            .count() as u64;
        let gtm = crashes.len() as u64 - dn;
        assert_eq!(snap.counter("fault.crash{target=dn}"), dn);
        assert_eq!(snap.counter("fault.crash{target=gtm}"), gtm);
        assert_eq!(snap.counter_total("fault.crash"), crashes.len() as u64);
    }

    #[test]
    fn delays_respect_the_cap() {
        let mut c = cfg();
        c.drop_p = 0.0;
        c.duplicate_p = 0.0;
        c.delay_p = 1.0;
        let mut p = FaultPlan::new(17, c.clone());
        for _ in 0..1_000 {
            match p.message_fate() {
                MsgFate::Delay(d) => {
                    assert!(d.micros() >= 1 && d <= c.max_extra_delay);
                }
                other => panic!("expected delay, got {other:?}"),
            }
        }
    }
}
