//! The OLAP reporting workload for the learning-optimizer experiments.
//!
//! §II-C's argument is that "reporting workloads (canned queries) are the
//! most common in real life OLAP workloads" — the same step definitions
//! recur, so exact-match cardinality reuse pays off. This module builds a
//! small star-ish schema with *skewed* columns (where the uniform estimator
//! is reliably wrong) and a set of canned reporting queries covering every
//! captured step class: scans, joins, aggregations, set operations, limits.

use hdm_common::{Result, SplitMix64};
use hdm_sql::Database;

/// Builder for the skewed reporting dataset.
#[derive(Debug, Clone)]
pub struct OlapWorkload {
    pub fact_rows: usize,
    pub dim_rows: usize,
    pub seed: u64,
}

impl Default for OlapWorkload {
    fn default() -> Self {
        Self {
            fact_rows: 5_000,
            dim_rows: 200,
            seed: 0x01a9,
        }
    }
}

impl OlapWorkload {
    /// Create tables, load data, ANALYZE.
    pub fn load(&self, db: &mut Database) -> Result<()> {
        db.execute(
            "create table olap.sales (sale_id int, cust_id int, region int, \
             amount int, status int)",
        )?;
        db.execute("create table olap.customers (cust_id int, segment int)")?;

        let mut rng = SplitMix64::new(self.seed);
        let mut batch: Vec<String> = Vec::new();
        for i in 0..self.fact_rows {
            // Skew: 90% of sales sit in region 0 with small amounts; the
            // tail spreads across regions with large amounts. A uniform
            // min/max estimator misjudges region & amount predicates badly.
            let (region, amount) = if rng.chance(0.9) {
                (0, rng.range_i64(1, 50))
            } else {
                (rng.range_i64(1, 9), rng.range_i64(1_000, 10_000))
            };
            let status = if rng.chance(0.97) { 1 } else { 0 };
            batch.push(format!(
                "({i}, {}, {region}, {amount}, {status})",
                rng.next_below(self.dim_rows as u64)
            ));
            if batch.len() == 500 {
                db.execute(&format!(
                    "insert into olap.sales values {}",
                    batch.join(",")
                ))?;
                batch.clear();
            }
        }
        if !batch.is_empty() {
            db.execute(&format!(
                "insert into olap.sales values {}",
                batch.join(",")
            ))?;
        }
        let dims: Vec<String> = (0..self.dim_rows)
            .map(|i| format!("({i}, {})", i % 5))
            .collect();
        db.execute(&format!(
            "insert into olap.customers values {}",
            dims.join(",")
        ))?;
        db.execute("analyze")?;
        Ok(())
    }

    /// The canned reporting queries (each exercises a captured step class).
    pub fn canned_queries() -> Vec<&'static str> {
        vec![
            // Scan with a selective predicate the estimator misjudges.
            "select * from olap.sales where amount > 500",
            // Two-way join with a skewed filter (the Table I shape).
            "select * from olap.sales s, olap.customers c \
             where s.cust_id = c.cust_id and s.amount > 500",
            // Aggregation over a skewed group.
            "select region, count(*), sum(amount) from olap.sales \
             where status = 1 group by region",
            // Set operation.
            "select cust_id from olap.sales where amount > 500 \
             union select cust_id from olap.sales where status = 0",
            // Limit over a big scan.
            "select * from olap.sales where region = 0 limit 100",
            // Join + aggregation (report query).
            "select c.segment, count(*) from olap.sales s, olap.customers c \
             where s.cust_id = c.cust_id and s.amount > 500 group by c.segment",
        ]
    }
}

/// A shardable schema + seeded statement corpus for local-vs-distributed
/// equivalence testing: the same DDL, loads, and queries drive both the
/// embedded [`Database`] and the cluster's `DistDb`, and every query must
/// return the same rows (compared as multisets — gather order differs).
///
/// The first column of each table is the distribution key, so the corpus
/// exercises the whole pruning spectrum: equality pins (one DN leg), ORs on
/// the key (scatter), key-free predicates (scatter), aggregates over the
/// fan-out, and a CN-side join over two gathered tables.
#[derive(Debug, Clone)]
pub struct DistCorpus {
    pub orders: usize,
    pub custs: usize,
    pub seed: u64,
}

impl Default for DistCorpus {
    fn default() -> Self {
        Self {
            orders: 600,
            custs: 40,
            seed: 0xd157,
        }
    }
}

impl DistCorpus {
    /// CREATE TABLE statements (distribution key first).
    pub fn ddl() -> Vec<&'static str> {
        vec![
            "create table orders (cust int, region int, amount int)",
            "create table custs (cust int, tier int)",
        ]
    }

    /// Seeded INSERT statements, batched.
    pub fn load_stmts(&self) -> Vec<String> {
        let mut rng = SplitMix64::new(self.seed);
        let mut out = Vec::new();
        let mut batch: Vec<String> = Vec::new();
        for _ in 0..self.orders {
            batch.push(format!(
                "({}, {}, {})",
                rng.next_below(self.custs as u64),
                rng.next_below(8),
                rng.range_i64(1, 1_000)
            ));
            if batch.len() == 200 {
                out.push(format!("insert into orders values {}", batch.join(",")));
                batch.clear();
            }
        }
        if !batch.is_empty() {
            out.push(format!("insert into orders values {}", batch.join(",")));
        }
        let custs: Vec<String> = (0..self.custs)
            .map(|i| format!("({i}, {})", i % 3))
            .collect();
        out.push(format!("insert into custs values {}", custs.join(",")));
        out
    }

    /// ~30 seeded equivalence queries. Every query is deterministic up to
    /// row order (LIMIT always rides on a total-order ORDER BY).
    pub fn queries(&self) -> Vec<String> {
        let mut rng = SplitMix64::new(self.seed ^ 0x9E37);
        let mut q = Vec::new();
        for _ in 0..6 {
            // Shard-key equality: prunes to one DN leg.
            let k = rng.next_below(self.custs as u64);
            q.push(format!("select * from orders where cust = {k}"));
            q.push(format!(
                "select count(*), sum(amount) from orders where cust = {k}"
            ));
        }
        for _ in 0..3 {
            // OR on the shard key: scatters.
            let a = rng.next_below(self.custs as u64);
            let b = rng.next_below(self.custs as u64);
            q.push(format!(
                "select * from orders where cust = {a} or cust = {b}"
            ));
        }
        for _ in 0..3 {
            // Key-free predicates: scatter + CN-side filter/aggregate.
            let t = rng.range_i64(100, 900);
            q.push(format!("select amount from orders where amount > {t}"));
            q.push(format!(
                "select region, count(*) from orders where amount > {t} group by region"
            ));
        }
        // Cross-shard join: both sides gathered to the CN.
        q.push(
            "select o.amount, c.tier from orders o, custs c \
             where o.cust = c.cust and o.amount > 500"
                .to_string(),
        );
        // Set op across scattered scans.
        q.push(
            "select cust from orders where region = 0 \
             union select cust from custs where tier = 1"
                .to_string(),
        );
        // Total-order LIMIT (deterministic across backends).
        q.push("select * from orders order by amount, cust, region limit 25".to_string());
        // Pruned scan with a residual predicate.
        let k = rng.next_below(self.custs as u64);
        q.push(format!(
            "select region from orders where cust = {k} and amount > 200"
        ));
        // Aggregate shapes over the scatter. They draw nothing from the RNG,
        // so every query above stays what it was for every seed.
        q.push("select min(amount), max(amount), avg(amount) from orders where region = 3".into());
        q.push("select count(amount), count(*) from orders where amount > 900".into());
        // A global aggregate over no rows is one row (0, NULL); a grouped
        // one is no rows.
        q.push("select count(*), sum(amount) from orders where amount < 0".into());
        q.push("select region, count(*) from orders where amount < 0 group by region".into());
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdm_learnopt::SharedPlanStore;

    #[test]
    fn loads_and_all_canned_queries_run() {
        let mut db = Database::new();
        OlapWorkload {
            fact_rows: 2_000,
            ..Default::default()
        }
        .load(&mut db)
        .unwrap();
        for q in OlapWorkload::canned_queries() {
            let r = db.execute(q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert!(!r.steps.is_empty(), "{q} produced no steps");
        }
    }

    #[test]
    fn estimates_are_wrong_cold_and_right_warm() {
        let mut db = Database::new();
        OlapWorkload::default().load(&mut db).unwrap();
        let store = SharedPlanStore::default();
        db.set_plan_store(store.hints(), store.observer());

        let q = "select * from olap.sales where amount > 500";
        let cold = db.execute(q).unwrap();
        let scan = &cold.steps[0];
        let err_cold = (scan.estimated - scan.actual as f64).abs() / scan.actual.max(1) as f64;
        assert!(err_cold > 1.0, "estimator should be badly off: {err_cold}");

        let warm = db.execute(q).unwrap();
        let scan = &warm.steps[0];
        let err_warm = (scan.estimated - scan.actual as f64).abs() / scan.actual.max(1) as f64;
        assert!(
            err_warm < 0.01,
            "warm estimate should match actual: {err_warm}"
        );
    }

    #[test]
    fn hit_rate_grows_over_the_canned_set() {
        let mut db = Database::new();
        OlapWorkload {
            fact_rows: 2_000,
            ..Default::default()
        }
        .load(&mut db)
        .unwrap();
        let store = SharedPlanStore::default();
        db.set_plan_store(store.hints(), store.observer());
        let queries = OlapWorkload::canned_queries();
        let mut cold_hits = 0;
        let mut warm_hits = 0;
        for q in &queries {
            cold_hits += db.execute(q).unwrap().planning.hint_hits;
        }
        for q in &queries {
            warm_hits += db.execute(q).unwrap().planning.hint_hits;
        }
        assert!(
            warm_hits > cold_hits + 3,
            "cold={cold_hits} warm={warm_hits}"
        );
    }
}
