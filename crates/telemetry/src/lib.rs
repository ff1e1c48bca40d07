//! Workspace-wide telemetry: a metrics registry, a virtual-clock-aware span
//! tracer, and exporters (JSONL, console tree, per-transaction timelines).
//!
//! The design constraint that shapes everything here is **simulation
//! determinism**: the same instrumentation call sites must produce
//! byte-identical output across replays of one seed when driven by the
//! discrete-event harnesses, yet report wall time in real runs. Hence
//! timestamps come from a pluggable [`Clock`], span ids are sequential, and
//! every export iterates in a deterministic order.
//!
//! Typical wiring:
//!
//! ```
//! use hdm_telemetry::Telemetry;
//!
//! let tel = Telemetry::simulated(); // or Telemetry::wall()
//! let commits = tel.metrics.counter("txn.commit", &[("path", "single")]);
//! tel.set_time_us(10);
//! let span = tel.tracer.begin("txn");
//! tel.set_time_us(250);
//! tel.tracer.end(span);
//! commits.inc();
//! assert_eq!(tel.metrics.snapshot().counter("txn.commit{path=single}"), 1);
//! assert_eq!(tel.tracer.finished()[0].duration_us(), 240);
//! ```

pub mod clock;
pub mod export;
pub mod history;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod timeline;

pub use clock::{Clock, SharedClock, VirtualClock, WallClock};
pub use history::{
    detect_regressions, diff, CaptureInput, CoAccess, HistoryConfig, HistoryDiff, Regression,
    RegressionKind, ShardWindowStat, SharedHistory, SnapshotEngine, StatementWindowStat,
    WorkloadSnapshot,
};
pub use metrics::{
    Counter, Gauge, HistogramHandle, HistogramSnapshot, MetricKey, MetricsRegistry, MetricsSnapshot,
};
pub use recorder::{
    FlightRecorder, OpProfile, RecorderConfig, ShardLeg, SharedRecorder, StatementProfile,
};
pub use span::{SpanEvent, SpanId, SpanRecord, Tracer};

use std::fmt;
use std::sync::Arc;

/// The bundle a harness threads through the stack: one metrics registry and
/// one tracer sharing one clock. Cloning is cheap and clones share state.
#[derive(Clone)]
pub struct Telemetry {
    pub metrics: MetricsRegistry,
    pub tracer: Tracer,
    /// Present when driven by a virtual clock; lets the owning harness
    /// advance time via [`Telemetry::set_time_us`].
    virt: Option<VirtualClock>,
}

impl Telemetry {
    /// Telemetry on wall time (real runs).
    pub fn wall() -> Self {
        Self::with_clock(Arc::new(WallClock::new()))
    }

    /// Telemetry on a fresh virtual clock (simulation runs). The harness
    /// advances it with [`Telemetry::set_time_us`].
    pub fn simulated() -> Self {
        let clock = VirtualClock::new();
        let mut t = Self::with_clock(Arc::new(clock.clone()));
        t.virt = Some(clock);
        t
    }

    /// Telemetry reading from an arbitrary clock.
    pub fn with_clock(clock: SharedClock) -> Self {
        Self {
            metrics: MetricsRegistry::new(),
            tracer: Tracer::new(clock),
            virt: None,
        }
    }

    /// Advance the virtual clock to `us`. No-op on wall-clock telemetry, so
    /// harnesses may call it unconditionally.
    pub fn set_time_us(&self, us: u64) {
        if let Some(v) = &self.virt {
            v.set(us);
        }
    }

    /// Current time on the bundle's clock.
    pub fn now_us(&self) -> u64 {
        self.tracer.now_us()
    }

    /// Full JSONL export: every finished span, then the metrics snapshot.
    pub fn export_jsonl(&self) -> String {
        let mut out = export::spans_to_jsonl(&self.tracer.finished());
        out.push_str(&export::metrics_to_jsonl(&self.metrics.snapshot()));
        out
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Telemetry({:?}, {:?}, clock={})",
            self.metrics,
            self.tracer,
            if self.virt.is_some() {
                "virtual"
            } else {
                "wall"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_bundle_tracks_virtual_time() {
        let tel = Telemetry::simulated();
        assert_eq!(tel.now_us(), 0);
        tel.set_time_us(123);
        assert_eq!(tel.now_us(), 123);
        let clone = tel.clone();
        clone.set_time_us(456);
        assert_eq!(tel.now_us(), 456, "clones share the clock");
    }

    #[test]
    fn wall_bundle_ignores_set_time() {
        let tel = Telemetry::wall();
        tel.set_time_us(1_000_000_000);
        assert!(tel.now_us() < 1_000_000, "wall clock unaffected");
    }

    #[test]
    fn export_contains_spans_and_metrics() {
        let tel = Telemetry::simulated();
        let s = tel.tracer.begin("txn");
        tel.set_time_us(40);
        tel.tracer.end(s);
        tel.metrics.counter("txn.commit", &[]).inc();
        let out = tel.export_jsonl();
        assert!(out.contains("\"type\":\"span\""));
        assert!(out.contains("\"type\":\"counter\""));
        // Two identically-driven bundles export identical bytes.
        let tel2 = Telemetry::simulated();
        let s2 = tel2.tracer.begin("txn");
        tel2.set_time_us(40);
        tel2.tracer.end(s2);
        tel2.metrics.counter("txn.commit", &[]).inc();
        assert_eq!(out, tel2.export_jsonl());
    }
}
