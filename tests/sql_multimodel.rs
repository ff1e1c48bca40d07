//! Cross-crate integration: the SQL engine, the learning optimizer and the
//! multi-model engines working together through the `FiMppDb` facade.

use huawei_dm::common::Datum;
use huawei_dm::core::{FiConfig, FiMppDb};
use huawei_dm::workloads::OlapWorkload;

fn int(r: &hdm_common::Row, i: usize) -> i64 {
    r.get(i).and_then(Datum::as_int).unwrap()
}

/// The full learning loop over the canned reporting workload: estimates
/// wrong cold, corrected warm, hit rate growing, stored steps inspectable.
#[test]
fn learning_loop_over_reporting_workload() {
    let mut db = FiMppDb::new(FiConfig::default());
    OlapWorkload {
        fact_rows: 3_000,
        ..Default::default()
    }
    .load(db.models().relational())
    .unwrap();

    let queries = OlapWorkload::canned_queries();
    for q in &queries {
        db.sql(q).unwrap();
    }
    let cold = db.plan_store_stats().unwrap();
    assert!(cold.captures >= 4, "several misestimated steps captured");

    let mut warm_hits = 0;
    for q in &queries {
        warm_hits += db.sql(q).unwrap().planning.hint_hits;
    }
    assert!(warm_hits >= 6, "warm runs hit the store, got {warm_hits}");

    // Table I shape: each stored step knows its text, estimate, actual.
    for step in db.plan_store_dump() {
        assert!(!step.text.is_empty());
        assert!(step.actual > 0 || step.estimated > 0.0);
    }
}

/// Data modified through SQL invalidates nothing silently: re-executed
/// steps refresh the stored actuals.
#[test]
fn plan_store_refreshes_after_dml() {
    let mut db = FiMppDb::new(FiConfig::default());
    db.sql("create table t (a int)").unwrap();
    let vals: Vec<String> = (0..1000).map(|_| "(1)".to_string()).collect();
    db.sql(&format!("insert into t values {}", vals.join(",")))
        .unwrap();
    let q = "select * from t where a = 1";
    let r = db.sql(q).unwrap();
    assert_eq!(r.rows.len(), 1000);
    db.sql(q).unwrap(); // warm

    db.sql("delete from t where a = 1").unwrap();
    db.sql(q).unwrap(); // actual now 0; store refreshes
    let plan = db.models().relational().plan_only(q).unwrap();
    assert_eq!(
        plan.est_rows(),
        0.0,
        "estimate follows the refreshed actual"
    );
}

/// Graph + relational + spatial in one query through the facade.
#[test]
fn cross_model_join_through_facade() {
    let mut db = FiMppDb::new(FiConfig::default());
    db.models().create_graph("social");
    db.models()
        .with_graph_mut("social", |g| {
            for id in 1..=4i64 {
                g.add_vertex(id, [("uid".to_string(), Datum::Int(id * 100))]);
            }
            g.add_edge(1, 2, "follows", []).unwrap();
            g.add_edge(1, 3, "follows", []).unwrap();
        })
        .unwrap();
    db.models().create_grid("positions", 1.0);
    for id in 1..=4 {
        db.models().place("positions", id, id as f64, 0.0).unwrap();
    }
    db.sql("create table users (uid int, name text)").unwrap();
    db.sql("insert into users values (100,'ann'),(200,'bob'),(300,'cee'),(400,'dan')")
        .unwrap();

    // Who does user 1 follow, where are they, and what are their names?
    let r = db
        .sql(
            "select u.name, p.x from \
             ggraph('social', 'g.V(1).out(''follows'')') f, users u, \
             gbox('positions', 0.0, -1.0, 10.0, 1.0) p \
             where u.uid = f.v * 100 and p.id = f.v order by u.name",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0].get(0).unwrap().as_text(), Some("bob"));
    assert_eq!(r.rows[1].get(0).unwrap().as_text(), Some("cee"));
}

/// SQL aggregation results agree with hand computation over generated data.
#[test]
fn aggregation_correctness_spot_check() {
    let mut db = FiMppDb::new(FiConfig::default());
    db.sql("create table n (g int, v int)").unwrap();
    let mut expect: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
    let mut vals = Vec::new();
    for i in 0..500i64 {
        let g = i % 7;
        let v = (i * 13) % 101;
        let e = expect.entry(g).or_insert((0, 0));
        e.0 += 1;
        e.1 += v;
        vals.push(format!("({g}, {v})"));
    }
    db.sql(&format!("insert into n values {}", vals.join(",")))
        .unwrap();
    let r = db
        .sql("select g, count(*), sum(v) from n group by g order by g")
        .unwrap();
    assert_eq!(r.rows.len(), 7);
    for row in &r.rows {
        let (cnt, sum) = expect[&int(row, 0)];
        assert_eq!(int(row, 1), cnt);
        assert_eq!(int(row, 2), sum);
    }
}

/// EXPLAIN reflects optimizer decisions end to end (Fig 6's artifact).
#[test]
fn explain_shows_physical_choices() {
    let mut db = FiMppDb::new(FiConfig {
        learning_optimizer: false,
        ..Default::default()
    });
    db.sql("create table big (k int, v int)").unwrap();
    let vals: Vec<String> = (0..2000).map(|i| format!("({i},{i})")).collect();
    for c in vals.chunks(500) {
        db.sql(&format!("insert into big values {}", c.join(",")))
            .unwrap();
    }
    db.sql("create index on big (k)").unwrap();
    db.sql("analyze").unwrap();
    let plan = db.explain("select * from big where k = 42").unwrap();
    assert!(plan.contains("Index Scan"), "{plan}");
    let plan = db.explain("select * from big where v > 100").unwrap();
    assert!(plan.contains("Seq Scan"), "{plan}");
}
