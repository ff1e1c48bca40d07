//! # hdm-learnopt
//!
//! The learning-based optimizer's **plan store** (paper §II-C, Fig 5,
//! Table I).
//!
//! Architecture per the paper: a *producer* ("the executor captures only
//! those steps that have a big differential between actual and estimated
//! row counts" — selective capture into the plan store) and a *consumer*
//! ("the optimizer gets statistics information from the plan store and uses
//! it instead of its own estimates … modeled as a cache. The key of the
//! cache is an encoding of the step definition"). The encoding is the
//! canonical logical step text produced by `hdm-sql`, keyed here by its MD5
//! hash ("we avoid the potential overhead of saving and retrieving of such
//! complex text by using the MD5 hash value (32 bytes) of the step text").
//!
//! [`SharedPlanStore`] adapts one store into both of `hdm-sql`'s hooks so a
//! single `Database::set_plan_store` call closes the feedback loop.

pub mod store;

pub use store::{PlanStore, PlanStoreConfig, PlanStoreStats, SharedPlanStore, StoredStep};

#[cfg(test)]
mod integration_tests {
    use crate::SharedPlanStore;
    use hdm_sql::Database;

    /// End-to-end feedback loop on the paper's own query (Table I): first
    /// execution captures big-differential steps; a repeat of the same query
    /// plans with actual cardinalities.
    #[test]
    fn table1_feedback_loop() {
        let mut db = Database::new();
        db.execute("create table olap.t1 (a1 int, b1 int)").unwrap();
        db.execute("create table olap.t2 (a2 int)").unwrap();
        // Skewed b1 so the uniform min/max estimator is badly wrong: 90% of
        // rows sit at b1 = 5 (below the predicate threshold), the rest
        // spread over 0..100 — the estimator predicts ~900 rows for
        // `b1 > 10`, the executor observes ~80.
        let mut vals = Vec::new();
        for i in 0..1000i64 {
            let b1 = if i % 10 == 0 { i % 100 } else { 5 };
            vals.push(format!("({}, {})", i % 200, b1));
        }
        for chunk in vals.chunks(200) {
            db.execute(&format!("insert into olap.t1 values {}", chunk.join(",")))
                .unwrap();
        }
        let t2: Vec<String> = (0..200i64).map(|i| format!("({i})")).collect();
        db.execute(&format!("insert into olap.t2 values {}", t2.join(",")))
            .unwrap();
        db.execute("analyze").unwrap();

        let store = SharedPlanStore::default();
        db.set_plan_store(store.hints(), store.observer());

        let q = "select * from olap.t1, olap.t2 \
                 where olap.t1.a1 = olap.t2.a2 and olap.t1.b1 > 10";

        // Cold: estimates are off, steps get captured.
        let r1 = db.execute(q).unwrap();
        assert_eq!(r1.planning.hint_hits, 0);
        assert!(
            !store.inner().borrow().is_empty(),
            "differential steps stored"
        );

        // Warm: the same canonical steps now plan with actual counts.
        let r2 = db.execute(q).unwrap();
        assert!(r2.planning.hint_hits >= 2, "scan and join hinted");
        let plan = db.plan_only(q).unwrap();
        assert_eq!(
            plan.est_rows(),
            r1.rows.len() as f64,
            "join estimate = actual"
        );
    }

    /// The rewrite engine normalizes spellings, so a *differently written*
    /// but semantically identical query hits the same plan-store entries:
    /// `b1 > 5 + 5` and `not b1 <= 10` both match the stored `b1 > 10` step.
    #[test]
    fn rewrites_normalize_plan_store_keys() {
        let mut db = Database::new();
        db.execute("create table t (a int)").unwrap();
        let vals: Vec<String> = (0..400).map(|_| "(20)".to_string()).collect();
        db.execute(&format!("insert into t values {}", vals.join(",")))
            .unwrap();
        let store = SharedPlanStore::default();
        db.set_plan_store(store.hints(), store.observer());

        // Capture under the plain spelling (no ANALYZE: the default
        // equality estimate of 100 is 4x off the actual 400).
        db.execute("select * from t where a = 20").unwrap();
        let captures = store.inner().borrow().stats().captures;
        assert!(captures >= 1);

        // Every spelling of the same predicate hits the same stored step.
        for spelling in [
            "select * from t where a = 10 + 10",
            "select * from t where not a <> 20",
            "select * from t where a = 20 and 1 = 1",
        ] {
            let r = db.execute(spelling).unwrap();
            assert!(
                r.planning.hint_hits >= 1,
                "{spelling:?} missed the plan store"
            );
        }
        // No new entries were created for the alternate spellings.
        assert_eq!(store.inner().borrow().stats().captures, captures);
    }
}
