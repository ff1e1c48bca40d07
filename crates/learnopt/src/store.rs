//! The plan store: an MD5-keyed cardinality cache with selective capture.

use hdm_common::md5::{md5_str, Md5Digest};
use hdm_sql::{
    CardinalityHints, PlanStoreDump, PlanStoreEntry, StepKind, StepObservation, StepObserver,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Store policy knobs.
#[derive(Debug, Clone)]
pub struct PlanStoreConfig {
    /// Capture a step only when `max(actual,est)/max(min(actual,est),1)`
    /// exceeds this ratio — the paper's "big differential" filter. `1.0`
    /// captures everything (the ablation baseline).
    pub differential_ratio: f64,
    /// Maximum entries; least-recently-used entries are evicted beyond it.
    pub capacity: usize,
    /// Which step kinds to capture (paper: scans, joins, aggregations, set
    /// operations and limit steps — i.e. all of them).
    pub capture_kinds: Vec<StepKind>,
}

impl Default for PlanStoreConfig {
    fn default() -> Self {
        Self {
            differential_ratio: 2.0,
            capacity: 4096,
            capture_kinds: vec![
                StepKind::Scan,
                StepKind::Join,
                StepKind::Agg,
                StepKind::SetOp,
                StepKind::Limit,
            ],
        }
    }
}

/// One stored step.
#[derive(Debug, Clone)]
pub struct StoredStep {
    /// The canonical step text (kept for introspection/reporting; lookups
    /// go through the MD5 key).
    pub text: String,
    pub kind: StepKind,
    /// Actual row count observed at last capture.
    pub actual: u64,
    /// The optimizer's estimate at capture time (for reporting, Table I).
    pub estimated: f64,
    /// Consumer hits since capture.
    pub hits: u64,
    /// LRU clock at last touch.
    last_used: u64,
}

/// Aggregate counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStoreStats {
    pub lookups: u64,
    pub hits: u64,
    pub captures: u64,
    pub updates: u64,
    pub evictions: u64,
    /// Steps seen by the producer but skipped by the differential filter.
    pub skipped_small_differential: u64,
}

/// The MD5-keyed plan store.
#[derive(Debug)]
pub struct PlanStore {
    cfg: PlanStoreConfig,
    entries: HashMap<Md5Digest, StoredStep>,
    clock: u64,
    stats: PlanStoreStats,
}

impl Default for PlanStore {
    fn default() -> Self {
        Self::new(PlanStoreConfig::default())
    }
}

impl PlanStore {
    pub fn new(cfg: PlanStoreConfig) -> Self {
        Self {
            cfg,
            entries: HashMap::new(),
            clock: 0,
            stats: PlanStoreStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn stats(&self) -> PlanStoreStats {
        self.stats
    }

    pub fn config(&self) -> &PlanStoreConfig {
        &self.cfg
    }

    /// Mutation counter for the stored actuals: bumps on every capture and
    /// every refresh that changed a value. Re-executions that merely touch
    /// LRU state do not count, so the counter is quiescent under a steady
    /// workload.
    pub fn generation(&self) -> u64 {
        self.stats.captures + self.stats.updates + self.stats.evictions
    }

    /// Consumer: actual cardinality for a canonical step text, if stored.
    pub fn lookup(&mut self, step_text: &str) -> Option<u64> {
        self.stats.lookups += 1;
        self.clock += 1;
        let key = md5_str(step_text);
        match self.entries.get_mut(&key) {
            Some(e) => {
                e.hits += 1;
                e.last_used = self.clock;
                self.stats.hits += 1;
                Some(e.actual)
            }
            None => None,
        }
    }

    /// Producer: offer executed steps; the differential policy decides what
    /// is kept. Re-executions of stored steps refresh their actuals.
    pub fn capture(&mut self, steps: &[StepObservation]) {
        for s in steps {
            if !self.cfg.capture_kinds.contains(&s.kind) {
                continue;
            }
            self.clock += 1;
            let key = md5_str(&s.text);
            if let Some(e) = self.entries.get_mut(&key) {
                // Refresh: data may have changed since capture.
                if e.actual != s.actual {
                    e.actual = s.actual;
                    self.stats.updates += 1;
                }
                e.last_used = self.clock;
                continue;
            }
            let hi = s.estimated.max(s.actual as f64).max(1.0);
            let lo = s.estimated.min(s.actual as f64).max(1.0);
            if hi / lo < self.cfg.differential_ratio {
                self.stats.skipped_small_differential += 1;
                continue;
            }
            if self.entries.len() >= self.cfg.capacity {
                self.evict_lru();
            }
            self.entries.insert(
                key,
                StoredStep {
                    text: s.text.to_string(),
                    kind: s.kind,
                    actual: s.actual,
                    estimated: s.estimated,
                    hits: 0,
                    last_used: self.clock,
                },
            );
            self.stats.captures += 1;
        }
    }

    fn evict_lru(&mut self) {
        if let Some((&key, _)) = self.entries.iter().min_by_key(|(_, e)| e.last_used) {
            self.entries.remove(&key);
            self.stats.evictions += 1;
        }
    }

    /// All stored steps, most-recently-used first (Table I reporting).
    pub fn dump(&self) -> Vec<StoredStep> {
        let mut v: Vec<StoredStep> = self.entries.values().cloned().collect();
        v.sort_by_key(|e| std::cmp::Reverse(e.last_used));
        v
    }
}

/// A shareable plan store implementing both `hdm-sql` hooks.
///
/// `Rc<RefCell<..>>` suffices because `hdm_sql::Database` is single-threaded
/// by design (one session per engine instance, as in the per-backend
/// PostgreSQL process model FI-MPPDB inherits).
#[derive(Debug, Clone, Default)]
pub struct SharedPlanStore {
    inner: Rc<RefCell<PlanStore>>,
}

impl SharedPlanStore {
    pub fn new(cfg: PlanStoreConfig) -> Self {
        Self {
            inner: Rc::new(RefCell::new(PlanStore::new(cfg))),
        }
    }

    pub fn inner(&self) -> &Rc<RefCell<PlanStore>> {
        &self.inner
    }

    /// The consumer-side handle for `Database::set_plan_store`.
    pub fn hints(&self) -> Rc<dyn CardinalityHints> {
        Rc::new(self.clone())
    }

    /// The producer-side handle for `Database::set_plan_store`.
    pub fn observer(&self) -> Rc<dyn StepObserver> {
        Rc::new(self.clone())
    }

    /// The introspection handle for `attach_sys_plan_store`: the same store
    /// dumped (MRU-first) through the `sys.plan_store` view.
    pub fn sys_dump(&self) -> Rc<dyn PlanStoreDump> {
        Rc::new(self.clone())
    }

    /// Feed the store from a statement profile: derives the post-order
    /// [`StepObservation`]s from the profile's operator tree (the same list
    /// the executor pushes directly — distributed `EXCHANGE(...)` keys
    /// included) and runs the usual selective capture over them. This lets
    /// flight-recorder consumers replay captures from the exact artifact
    /// users inspect with `EXPLAIN ANALYZE`.
    pub fn capture_profile(&self, profile: &hdm_sql::StatementProfile) {
        let steps = hdm_sql::profile::observations(profile.root.as_ref());
        self.inner.borrow_mut().capture(&steps);
    }
}

impl CardinalityHints for SharedPlanStore {
    fn lookup(&self, step_text: &str) -> Option<u64> {
        self.inner.borrow_mut().lookup(step_text)
    }

    fn generation(&self) -> Option<u64> {
        Some(self.inner.borrow().generation())
    }
}

impl StepObserver for SharedPlanStore {
    fn observe(&self, steps: &[StepObservation]) {
        self.inner.borrow_mut().capture(steps);
    }
}

/// Stable lowercase step-kind name for the `sys.plan_store` view.
fn step_kind_name(kind: StepKind) -> &'static str {
    match kind {
        StepKind::Scan => "scan",
        StepKind::Join => "join",
        StepKind::Agg => "agg",
        StepKind::SetOp => "setop",
        StepKind::Limit => "limit",
        StepKind::Other => "other",
    }
}

impl PlanStoreDump for SharedPlanStore {
    fn dump_entries(&self) -> Vec<PlanStoreEntry> {
        self.inner
            .borrow()
            .dump()
            .into_iter()
            .map(|s| PlanStoreEntry {
                step: s.text,
                kind: step_kind_name(s.kind).to_string(),
                estimated: s.estimated,
                actual: s.actual,
                hits: s.hits,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(text: &str, estimated: f64, actual: u64) -> StepObservation {
        StepObservation {
            kind: StepKind::Scan,
            text: text.into(),
            estimated,
            actual,
        }
    }

    #[test]
    fn distributed_and_local_step_texts_key_separately() {
        // The CN's annotated plans render scans as EXCHANGE(SCAN(...),
        // SHARDS(...)); a distributed cardinality must never be served for
        // the single-node SCAN(...) key (or vice versa), and different
        // shard sets are themselves distinct keys.
        let mut s = PlanStore::default();
        let local = "SCAN(ORDERS, PREDICATE(ORDERS.CUST = 3))";
        let dist = "EXCHANGE(SCAN(ORDERS, PREDICATE(ORDERS.CUST = 3)), SHARDS(2))";
        let scatter = "EXCHANGE(SCAN(ORDERS, PREDICATE(ORDERS.CUST = 3)), SHARDS(0,1,2,3))";
        s.capture(&[
            obs(local, 1.0, 100),
            obs(dist, 1.0, 25),
            obs(scatter, 1.0, 40),
        ]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.lookup(local), Some(100));
        assert_eq!(s.lookup(dist), Some(25));
        assert_eq!(s.lookup(scatter), Some(40));
    }

    #[test]
    fn big_differential_is_captured_small_is_not() {
        let mut s = PlanStore::default();
        s.capture(&[obs("SCAN(A)", 50.0, 100.0 as u64)]);
        s.capture(&[obs("SCAN(B)", 95.0, 100)]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.lookup("SCAN(A)"), Some(100));
        assert_eq!(s.lookup("SCAN(B)"), None);
        assert_eq!(s.stats().skipped_small_differential, 1);
    }

    #[test]
    fn capture_everything_at_ratio_one() {
        let mut s = PlanStore::new(PlanStoreConfig {
            differential_ratio: 1.0,
            ..Default::default()
        });
        s.capture(&[obs("SCAN(B)", 100.0, 100)]);
        assert_eq!(s.lookup("SCAN(B)"), Some(100));
    }

    #[test]
    fn reexecution_refreshes_actuals() {
        let mut s = PlanStore::default();
        s.capture(&[obs("SCAN(A)", 10.0, 100)]);
        // Data changed; same step now returns 250 rows.
        s.capture(&[obs("SCAN(A)", 10.0, 250)]);
        assert_eq!(s.lookup("SCAN(A)"), Some(250));
        assert_eq!(s.stats().updates, 1);
        assert_eq!(s.stats().captures, 1, "no duplicate entry");
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut s = PlanStore::new(PlanStoreConfig {
            capacity: 2,
            ..Default::default()
        });
        s.capture(&[obs("SCAN(A)", 1.0, 100)]);
        s.capture(&[obs("SCAN(B)", 1.0, 100)]);
        // Touch A so B is the LRU.
        s.lookup("SCAN(A)");
        s.capture(&[obs("SCAN(C)", 1.0, 100)]);
        assert_eq!(s.len(), 2);
        assert!(s.lookup("SCAN(A)").is_some());
        assert!(s.lookup("SCAN(B)").is_none(), "B evicted");
        assert!(s.lookup("SCAN(C)").is_some());
        assert_eq!(s.stats().evictions, 1);
    }

    #[test]
    fn kind_filter_respected() {
        let mut s = PlanStore::new(PlanStoreConfig {
            capture_kinds: vec![StepKind::Join],
            ..Default::default()
        });
        s.capture(&[obs("SCAN(A)", 1.0, 100)]);
        assert!(s.is_empty());
    }

    #[test]
    fn dump_reports_text_estimate_actual() {
        let mut s = PlanStore::default();
        s.capture(&[obs("SCAN(OLAP.T1, PREDICATE(OLAP.T1.B1>10))", 50.0, 100)]);
        let d = s.dump();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].estimated, 50.0);
        assert_eq!(d[0].actual, 100);
        assert!(d[0].text.contains("OLAP.T1"));
    }

    #[test]
    fn capture_profile_feeds_the_store_with_exchange_keys() {
        use hdm_sql::{OpProfile, StatementProfile};
        let exchange = "EXCHANGE(SCAN(ORDERS), SHARDS(0,1,2,3))";
        let profile = StatementProfile {
            sql: "select * from orders".into(),
            scope: "multi".into(),
            start_us: 0,
            plan_us: 1,
            exec_us: 2,
            total_us: 3,
            rows_out: 96,
            gtm_interactions: 2,
            twopc_legs: 4,
            root: Some(OpProfile {
                label: "Exchange Scan on orders".into(),
                kind: "scan".into(),
                canonical: Some(exchange.into()),
                est_rows: 10.0,
                rows_out: 96,
                loops: 4,
                time_us: 2,
                shards: vec![],
                children: vec![],
            }),
        };
        let s = SharedPlanStore::default();
        s.capture_profile(&profile);
        assert_eq!(
            s.inner().borrow_mut().lookup(exchange),
            Some(96),
            "misestimated distributed step captured from the profile"
        );
    }

    #[test]
    fn md5_keys_distinguish_texts() {
        // Sanity: two different canonical texts must not collide in practice.
        let mut s = PlanStore::default();
        s.capture(&[obs("SCAN(A)", 1.0, 10), obs("SCAN(B)", 1.0, 20)]);
        assert_eq!(s.lookup("SCAN(A)"), Some(10));
        assert_eq!(s.lookup("SCAN(B)"), Some(20));
    }
}
