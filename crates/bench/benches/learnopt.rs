//! Criterion benches for the learning optimizer (§II-C ablations):
//! MD5-keyed lookups vs full-text keys, capture policies, and end-to-end
//! planning with/without hints.

use criterion::{criterion_group, criterion_main, Criterion};
use hdm_learnopt::{PlanStore, PlanStoreConfig, SharedPlanStore};
use hdm_sql::{Database, StepKind, StepObservation};
use hdm_workloads::OlapWorkload;
use std::collections::HashMap;
use std::hint::black_box;

fn long_step_text(i: usize) -> String {
    // Step text of a realistic 4-way join: several hundred bytes.
    format!(
        "JOIN(JOIN(JOIN(SCAN(OLAP.SALES, PREDICATE(OLAP.SALES.AMOUNT>{i} AND \
         OLAP.SALES.STATUS=1)), SCAN(OLAP.CUSTOMERS), \
         PREDICATE(OLAP.CUSTOMERS.CUST_ID=OLAP.SALES.CUST_ID)), \
         SCAN(OLAP.REGIONS, PREDICATE(OLAP.REGIONS.R{i}>10)), \
         PREDICATE(OLAP.REGIONS.REGION_ID=OLAP.SALES.REGION)), \
         SCAN(OLAP.DATES), PREDICATE(OLAP.DATES.D=OLAP.SALES.SALE_ID))"
    )
}

/// The paper's MD5 rationale: hash keys beat storing/comparing huge texts.
fn bench_store_keys(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_store_keying");
    let texts: Vec<String> = (0..1000).map(long_step_text).collect();

    // MD5-keyed store (the shipped design).
    let mut store = PlanStore::new(PlanStoreConfig {
        differential_ratio: 1.0,
        ..Default::default()
    });
    let obs: Vec<StepObservation> = texts
        .iter()
        .map(|t| StepObservation {
            kind: StepKind::Join,
            text: t.as_str().into(),
            estimated: 1.0,
            actual: 100,
        })
        .collect();
    store.capture(&obs);
    g.bench_function("md5_keyed_lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % texts.len();
            black_box(store.lookup(&texts[i]))
        })
    });

    // Strawman: full-text HashMap keys (what MD5 keying avoids).
    let full: HashMap<String, u64> = texts.iter().map(|t| (t.clone(), 100u64)).collect();
    g.bench_function("full_text_keyed_lookup", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % texts.len();
            black_box(full.get(&texts[i]))
        })
    });
    g.finish();
}

fn bench_capture_policies(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan_store_capture");
    let obs: Vec<StepObservation> = (0..100)
        .map(|i| StepObservation {
            kind: StepKind::Scan,
            text: long_step_text(i).into(),
            estimated: if i % 2 == 0 { 100.0 } else { 99.0 },
            actual: 100,
        })
        .collect();
    for (name, ratio) in [("capture_everything", 1.0f64), ("big_differential", 2.0)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut store = PlanStore::new(PlanStoreConfig {
                    differential_ratio: ratio,
                    ..Default::default()
                });
                store.capture(black_box(&obs));
                black_box(store.len())
            })
        });
    }
    g.finish();
}

/// End-to-end canned-query planning+execution, cold vs warm store.
fn bench_canned_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("canned_reporting");
    g.sample_size(10);

    g.bench_function("without_plan_store", |b| {
        let mut db = Database::new();
        OlapWorkload {
            fact_rows: 2000,
            ..Default::default()
        }
        .load(&mut db)
        .unwrap();
        let queries = OlapWorkload::canned_queries();
        b.iter(|| {
            for q in &queries {
                black_box(db.execute(q).unwrap());
            }
        })
    });

    g.bench_function("with_warm_plan_store", |b| {
        let mut db = Database::new();
        OlapWorkload {
            fact_rows: 2000,
            ..Default::default()
        }
        .load(&mut db)
        .unwrap();
        let store = SharedPlanStore::default();
        db.set_plan_store(store.hints(), store.observer());
        let queries = OlapWorkload::canned_queries();
        for q in &queries {
            db.execute(q).unwrap(); // warm it
        }
        b.iter(|| {
            for q in &queries {
                black_box(db.execute(q).unwrap());
            }
        })
    });
    g.finish();
}

/// Shorter measurement windows: the full suite covers many benchmarks and
/// must finish within CI budgets; 2s windows are plenty for these scales.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}

criterion_group!(
    name = benches;
    config = quick_config();
    targets =
    bench_store_keys,
    bench_capture_policies,
    bench_canned_queries
);
criterion_main!(benches);
