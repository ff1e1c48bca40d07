//! # hdm-core
//!
//! The composed **FI-MPPDB** public API — the paper's flagship product
//! surface assembled from the subsystem crates:
//!
//! * an analytical SQL engine with the **multi-model** extensions of §II-B
//!   (`gtimeseries`/`ggraph`/`gbox`/`gknn` table functions),
//! * the **learning-based optimizer** of §II-C (plan store capturing actual
//!   cardinalities and feeding them back into planning), toggleable,
//! * an **HTAP** transactional surface (§II-A): a sharded OLTP cluster
//!   running either the baseline GTM protocol or **GTM-lite**,
//! * the **autonomous** monitoring loop of §IV-A wired to the OLTP side
//!   (information store + workload manager + anomaly manager).
//!
//! ```
//! use hdm_core::{FiConfig, FiMppDb};
//!
//! let mut db = FiMppDb::new(FiConfig::default());
//! db.sql("create table t (a int, b int)").unwrap();
//! db.sql("insert into t values (1, 10), (2, 20)").unwrap();
//! let rows = db.sql("select b from t where a = 2").unwrap().rows;
//! assert_eq!(rows[0].get(0).unwrap().as_int(), Some(20));
//! ```

use hdm_cluster::{Cluster, ClusterConfig, Protocol};
use hdm_common::Result;
use hdm_learnopt::{PlanStoreStats, SharedPlanStore};
use hdm_mmdb::MultiModelDb;
use hdm_sql::QueryResult;

pub use hdm_cluster::{make_key, MergePolicy, TxnOptions};
pub use hdm_learnopt::PlanStoreConfig;

/// Configuration of an embedded FI-MPPDB instance.
#[derive(Debug, Clone)]
pub struct FiConfig {
    /// Shards (data nodes) of the HTAP OLTP cluster.
    pub shards: usize,
    /// Transaction-management protocol for the OLTP side.
    pub protocol: Protocol,
    /// Enable the learning optimizer's plan store.
    pub learning_optimizer: bool,
    /// Plan-store policy when enabled.
    pub plan_store: PlanStoreConfig,
}

impl Default for FiConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            protocol: Protocol::GtmLite,
            learning_optimizer: true,
            plan_store: PlanStoreConfig::default(),
        }
    }
}

/// An embedded FI-MPPDB instance.
pub struct FiMppDb {
    mm: MultiModelDb,
    plan_store: Option<SharedPlanStore>,
    oltp: Cluster,
}

impl FiMppDb {
    pub fn new(cfg: FiConfig) -> Self {
        let mut mm = MultiModelDb::new();
        let plan_store = if cfg.learning_optimizer {
            let store = SharedPlanStore::new(cfg.plan_store.clone());
            mm.relational()
                .set_plan_store(store.hints(), store.observer());
            Some(store)
        } else {
            None
        };
        let ccfg = match cfg.protocol {
            Protocol::Baseline => ClusterConfig::baseline(cfg.shards),
            Protocol::GtmLite => ClusterConfig::gtm_lite(cfg.shards),
        };
        Self {
            mm,
            plan_store,
            oltp: Cluster::new(ccfg),
        }
    }

    /// Run SQL against the analytical/multi-model surface.
    pub fn sql(&mut self, text: &str) -> Result<QueryResult> {
        self.mm.sql(text)
    }

    /// EXPLAIN a SELECT, returning the plan text.
    pub fn explain(&mut self, select: &str) -> Result<String> {
        let r = self.mm.sql(&format!("explain {select}"))?;
        Ok(r.rows
            .iter()
            .filter_map(|row| row.get(0).and_then(|d| d.as_text()).map(str::to_string))
            .collect::<Vec<_>>()
            .join("\n"))
    }

    /// The multi-model engines (graphs, time series, spatial grids).
    pub fn models(&mut self) -> &mut MultiModelDb {
        &mut self.mm
    }

    /// The transactional (HTAP) surface: a sharded key-value cluster under
    /// the configured transaction protocol.
    pub fn oltp(&mut self) -> &mut Cluster {
        &mut self.oltp
    }

    /// HTAP: snapshot the OLTP cluster's current state into a relational
    /// table on the analytical side, so reporting SQL runs over fresh
    /// transactional data — "eliminating the analytic latency and data
    /// movement across OLAP and OLTP database management systems" (§II-A).
    /// The table `(shard int, k int, v int)` is replaced on every sync.
    /// Returns the number of rows synced.
    pub fn sync_htap_replica(&mut self, table: &str) -> Result<u64> {
        let rows = self.oltp.snapshot_all();
        let db = self.mm.relational();
        if db.catalog().exists(table) {
            db.catalog_mut().drop_table(table)?;
        }
        db.execute(&format!("create table {table} (shard int, k int, v int)"))?;
        let map = *self.oltp.shard_map();
        let mut n = 0u64;
        for chunk in rows.chunks(500) {
            let values: Vec<String> = chunk
                .iter()
                .map(|(k, v)| format!("({}, {k}, {v})", map.shard_of_key(*k).raw()))
                .collect();
            if !values.is_empty() {
                n += db
                    .execute(&format!("insert into {table} values {}", values.join(",")))?
                    .affected;
            }
        }
        db.execute(&format!("analyze {table}"))?;
        Ok(n)
    }

    /// Plan-store statistics, when the learning optimizer is on.
    pub fn plan_store_stats(&self) -> Option<PlanStoreStats> {
        self.plan_store.as_ref().map(|s| s.inner().borrow().stats())
    }

    /// Stored plan-store steps (Table I reporting).
    pub fn plan_store_dump(&self) -> Vec<hdm_learnopt::StoredStep> {
        self.plan_store
            .as_ref()
            .map(|s| s.inner().borrow().dump())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relational_quickstart() {
        let mut db = FiMppDb::new(FiConfig::default());
        db.sql("create table t (a int, b int)").unwrap();
        db.sql("insert into t values (1, 10), (2, 20), (3, 30)")
            .unwrap();
        let r = db.sql("select sum(b) from t where a >= 2").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap().as_int(), Some(50));
    }

    #[test]
    fn learning_optimizer_feedback_visible_via_stats() {
        let mut db = FiMppDb::new(FiConfig::default());
        db.sql("create table t (a int)").unwrap();
        let vals: Vec<String> = (0..500).map(|_| "(1)".to_string()).collect();
        db.sql(&format!("insert into t values {}", vals.join(",")))
            .unwrap();
        // No ANALYZE: the default estimate (1000 rows / NDV 10 = 100) is 5x
        // off the actual 500, so the step is captured.
        db.sql("select * from t where a = 1").unwrap();
        let s1 = db.plan_store_stats().unwrap();
        assert!(s1.captures >= 1);
        db.sql("select * from t where a = 1").unwrap();
        let s2 = db.plan_store_stats().unwrap();
        assert!(s2.hits > s1.hits);
        assert!(!db.plan_store_dump().is_empty());
    }

    #[test]
    fn learning_optimizer_can_be_disabled() {
        let mut db = FiMppDb::new(FiConfig {
            learning_optimizer: false,
            ..Default::default()
        });
        db.sql("create table t (a int)").unwrap();
        db.sql("select * from t").unwrap();
        assert!(db.plan_store_stats().is_none());
        assert!(db.plan_store_dump().is_empty());
    }

    #[test]
    fn htap_oltp_surface_works_alongside_sql() {
        let mut db = FiMppDb::new(FiConfig::default());
        let k = make_key(3, 7);
        db.oltp().bump(Some(3), k, 42).unwrap();
        assert_eq!(db.oltp().bump(Some(3), k, 0).unwrap(), 42);
        assert_eq!(
            db.oltp().counters().gtm_interactions,
            0,
            "GTM-lite fast path"
        );
        // The analytical side is unaffected.
        db.sql("create table r (x int)").unwrap();
        db.sql("insert into r values (1)").unwrap();
        assert_eq!(
            db.sql("select count(*) from r").unwrap().rows[0]
                .get(0)
                .unwrap()
                .as_int(),
            Some(1)
        );
    }

    #[test]
    fn htap_replica_sync_runs_analytics_over_oltp_state() {
        let mut db = FiMppDb::new(FiConfig::default());
        // Transactional writes across warehouses.
        for w in 0..4u32 {
            for i in 0..10u32 {
                db.oltp()
                    .bump(Some(w), make_key(w, i), (w * 10 + i) as i64)
                    .unwrap();
            }
        }
        let n = db.sync_htap_replica("oltp_snapshot").unwrap();
        assert_eq!(n, 40);
        let r = db
            .sql("select count(*), sum(v) from oltp_snapshot")
            .unwrap();
        let expected_sum: i64 = (0..4)
            .flat_map(|w| (0..10).map(move |i| (w * 10 + i) as i64))
            .sum();
        assert_eq!(r.rows[0].get(0).unwrap().as_int(), Some(40));
        assert_eq!(r.rows[0].get(1).unwrap().as_int(), Some(expected_sum));
        // Fresh writes appear after the next sync (no ETL pipeline).
        db.oltp().bump(Some(0), make_key(0, 99), 1000).unwrap();
        db.sync_htap_replica("oltp_snapshot").unwrap();
        let r = db.sql("select count(*) from oltp_snapshot").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap().as_int(), Some(41));
        // In-flight (uncommitted) writes stay invisible to the replica.
        let mut t = db.oltp().begin(TxnOptions::multi()).unwrap();
        let k = make_key(1, 99);
        db.oltp().put(&mut t, k, 7).unwrap();
        db.sync_htap_replica("oltp_snapshot").unwrap();
        let r = db.sql("select count(*) from oltp_snapshot").unwrap();
        assert_eq!(r.rows[0].get(0).unwrap().as_int(), Some(41));
        db.oltp().abort(t).unwrap();
    }

    #[test]
    fn multi_model_passthrough() {
        let mut db = FiMppDb::new(FiConfig::default());
        db.models().create_grid("cars", 1.0);
        db.models().place("cars", 1, 2.0, 3.0).unwrap();
        let r = db
            .sql("select id from gknn('cars', 0.0, 0.0, 1) k")
            .unwrap();
        assert_eq!(r.rows[0].get(0).unwrap().as_int(), Some(1));
    }

    #[test]
    fn explain_renders() {
        let mut db = FiMppDb::new(FiConfig::default());
        db.sql("create table t (a int)").unwrap();
        let plan = db.explain("select * from t where a > 5").unwrap();
        assert!(plan.contains("Seq Scan on t"));
    }

    #[test]
    fn baseline_protocol_selectable() {
        let mut db = FiMppDb::new(FiConfig {
            protocol: Protocol::Baseline,
            ..Default::default()
        });
        db.oltp().bump(Some(0), make_key(0, 0), 1).unwrap();
        assert!(db.oltp().counters().gtm_interactions >= 3);
    }
}
