//! Reproduces **Table I: logical canonical form** and the Fig 6 plan
//! (paper §II-C).
//!
//! Runs the paper's own query
//! `select * from OLAP.t1, OLAP.t2 where OLAP.t1.a1=OLAP.t2.a2 and
//! OLAP.t1.b1 > 10` over data skewed so the optimizer's estimate is badly
//! off, then prints the captured plan-store rows: step description,
//! estimated cardinality, actual cardinality — the exact three columns of
//! Table I. `--sweep-threshold` adds the differential-capture threshold
//! ablation.
//!
//! Performance numbers for the distributed engine come from the `perf`
//! harness (`perf/README.md`), not from this binary.
//!
//! Usage: table1_canonical_form [--sweep-threshold]

use hdm_bench::{arg_flag, render_table};
use hdm_learnopt::{PlanStoreConfig, SharedPlanStore};
use hdm_sql::Database;

/// Build the OLAP.t1/OLAP.t2 world. b1 is skewed: 90% of rows sit below the
/// predicate threshold, so the uniform min/max estimator overshoots.
fn build_db() -> Database {
    let mut db = Database::new();
    db.execute("create table olap.t1 (a1 int, b1 int)").unwrap();
    db.execute("create table olap.t2 (a2 int)").unwrap();
    let mut rows = Vec::new();
    for i in 0..1000i64 {
        let b1 = if i % 10 == 0 { i % 100 } else { 5 };
        rows.push(format!("({}, {b1})", i % 200));
    }
    for chunk in rows.chunks(250) {
        db.execute(&format!("insert into olap.t1 values {}", chunk.join(",")))
            .unwrap();
    }
    let t2: Vec<String> = (0..200i64).map(|i| format!("({i})")).collect();
    db.execute(&format!("insert into olap.t2 values {}", t2.join(",")))
        .unwrap();
    db.execute("analyze").unwrap();
    db
}

const QUERY: &str = "select * from OLAP.t1, OLAP.t2 \
                     where OLAP.t1.a1=OLAP.t2.a2 and OLAP.t1.b1 > 10";

fn main() {
    println!("=== Table I: logical canonical form (plan store contents) ===\n");
    println!("query: {QUERY}\n");

    let mut db = build_db();
    let store = SharedPlanStore::default();
    db.set_plan_store(store.hints(), store.observer());

    // Fig 6: the two-way join execution plan (cold estimates).
    let plan = db.plan_only(QUERY).unwrap();
    println!("--- Fig 6: execution plan (cold estimates) ---");
    println!("{}", plan.explain());

    // Producer pass: execute, capture big-differential steps.
    let r1 = db.execute(QUERY).unwrap();
    println!(
        "cold run: {} rows, hint hits {}\n",
        r1.rows.len(),
        r1.planning.hint_hits
    );

    println!("--- Table I: captured steps ---");
    let mut rows = vec![vec![
        "Step Description".to_string(),
        "Estimate".to_string(),
        "Actual".to_string(),
        "MD5 key".to_string(),
    ]];
    let mut dump = store.inner().borrow().dump();
    dump.sort_by_key(|s| s.text.len());
    for step in &dump {
        rows.push(vec![
            step.text.clone(),
            format!("{:.0}", step.estimated),
            step.actual.to_string(),
            hdm_common::md5::md5_str(&step.text).to_hex()[..8].to_string() + "…",
        ]);
    }
    println!("{}", render_table(&rows));

    // Consumer pass: the optimizer reuses the actuals.
    let r2 = db.execute(QUERY).unwrap();
    let plan2 = db.plan_only(QUERY).unwrap();
    println!(
        "warm run: hint hits {}, top-level join estimate now {:.0} (actual {})",
        r2.planning.hint_hits,
        plan2.est_rows(),
        r2.rows.len()
    );
    let stats = store.inner().borrow().stats();
    println!(
        "plan store: {} captures, {} lookups, {} hits, {} skipped (small differential)\n",
        stats.captures, stats.lookups, stats.hits, stats.skipped_small_differential
    );

    if arg_flag("--sweep-threshold") {
        println!("=== Ablation: differential-capture threshold ===");
        let mut rows = vec![vec![
            "threshold ratio".to_string(),
            "steps captured".to_string(),
            "warm hint hits".to_string(),
        ]];
        for ratio in [1.0f64, 1.5, 2.0, 5.0, 20.0] {
            let mut db = build_db();
            let store = SharedPlanStore::new(PlanStoreConfig {
                differential_ratio: ratio,
                ..Default::default()
            });
            db.set_plan_store(store.hints(), store.observer());
            db.execute(QUERY).unwrap();
            let captured = store.inner().borrow().len();
            let warm = db.execute(QUERY).unwrap();
            rows.push(vec![
                format!("{ratio}"),
                captured.to_string(),
                warm.planning.hint_hits.to_string(),
            ]);
        }
        println!("{}", render_table(&rows));
        println!(
            "Capture-everything (1.0) stores steps whose estimates were already\n\
             fine; the paper's big-differential policy stores only the valuable ones."
        );
    }
}
