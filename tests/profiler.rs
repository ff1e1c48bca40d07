//! End-to-end checks on the operator-level profiler (ISSUE 5 tentpole):
//! distributed `EXPLAIN ANALYZE` must show per-shard Exchange legs and flag
//! misestimates that the plan store demonstrably captures; the flight
//! recorder must dump byte-identical JSONL across same-seed runs; and
//! turning the profiler on must not change what a statement returns or what
//! the feedback loop learns.

use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb};
use huawei_dm::common::{Datum, Row};
use huawei_dm::learnopt::SharedPlanStore;
use huawei_dm::sql::{Database, ExecOptions, QueryApi};
use huawei_dm::telemetry::{RecorderConfig, SharedRecorder, VirtualClock};
use huawei_dm::workloads::DistCorpus;
use std::sync::Arc;

const SHARDS: usize = 4;

/// Seeded cluster engine with DDL + loads applied. `analyzed` controls
/// whether table stats are collected — skipping it leaves the optimizer on
/// default estimates, guaranteeing misestimates for the capture tests.
fn build_dist(corpus: &DistCorpus, analyzed: bool) -> DistDb {
    let mut dist = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(SHARDS))).unwrap();
    for ddl in DistCorpus::ddl() {
        dist.execute(ddl).unwrap();
    }
    for stmt in corpus.load_stmts() {
        dist.execute(&stmt).unwrap();
    }
    if analyzed {
        dist.execute("analyze").unwrap();
    }
    dist
}

fn plan_lines(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| match &r.values()[0] {
            Datum::Text(s) => s.clone(),
            other => panic!("plan column must be text, got {other:?}"),
        })
        .collect()
}

#[test]
fn distributed_explain_analyze_shows_shard_legs_and_feeds_the_plan_store() {
    let corpus = DistCorpus::default();
    let mut dist = build_dist(&corpus, false);
    let store = SharedPlanStore::default();
    dist.set_plan_store(store.hints(), store.observer());

    let res = dist
        .execute(
            "explain analyze select region, sum(amount) from orders \
             where amount > 900 group by region",
        )
        .unwrap();
    let lines = plan_lines(&res.rows);
    let text = lines.join("\n");

    // Per-operator actuals on every plan line.
    assert!(
        text.contains("actual rows="),
        "annotated tree must report actuals:\n{text}"
    );
    // The scatter-gather Exchange breaks down into one leg per shard.
    for shard in 0..SHARDS {
        assert!(
            lines
                .iter()
                .any(|l| l.contains(&format!("[shard {shard}]"))),
            "missing shard {shard} leg:\n{text}"
        );
    }
    // Footer: scope + GTM/2PC attribution for this one statement.
    assert!(text.contains("Scope: multi"), "{text}");
    assert!(text.contains("2PC legs: 4"), "{text}");

    // Un-analyzed stats mean default estimates: the scan is a misestimate,
    // flagged in the output at the store's own capture threshold...
    assert!(
        text.contains("[MISESTIMATE"),
        "default estimates must be flagged:\n{text}"
    );
    // ...and the very same execution captured it into the plan store under
    // its distributed EXCHANGE key.
    let dump = store.inner().borrow().dump();
    let exchange = dump
        .iter()
        .find(|e| e.text.starts_with("EXCHANGE("))
        .expect("misestimated distributed step captured into the plan store");
    assert!(
        exchange.text.contains("SHARDS(0,1,2,3)"),
        "{}",
        exchange.text
    );
    let profile = res
        .profile
        .as_ref()
        .expect("EXPLAIN ANALYZE keeps the profile");
    assert_eq!(profile.twopc_legs, SHARDS as u64);
}

/// One seeded run against the flight recorder on a virtual clock: the dump
/// is a pure function of (seed, statement sequence, clock schedule).
fn recorded_jsonl() -> String {
    let corpus = DistCorpus::default();
    let clock = Arc::new(VirtualClock::new());
    let mut dist = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(SHARDS))).unwrap();
    dist.set_clock(clock.clone());
    dist.attach_recorder(SharedRecorder::new(RecorderConfig {
        capacity: 16,
        slow_threshold_us: 50,
    }));
    for ddl in DistCorpus::ddl() {
        dist.execute(ddl).unwrap();
    }
    for stmt in corpus.load_stmts() {
        dist.execute(&stmt).unwrap();
    }
    dist.execute("analyze").unwrap();
    let recorder = SharedRecorder::new(RecorderConfig {
        capacity: 16,
        slow_threshold_us: 50,
    });
    dist.attach_recorder(recorder.clone());
    for (i, q) in corpus.queries().iter().enumerate() {
        // Deterministic clock schedule: each statement starts on its own
        // tick, so recorded timestamps are reproducible by construction.
        clock.set((i as u64 + 1) * 1_000);
        dist.execute(q).unwrap();
    }
    recorder.to_jsonl()
}

#[test]
fn flight_recorder_jsonl_is_byte_identical_across_same_seed_runs() {
    let a = recorded_jsonl();
    let b = recorded_jsonl();
    assert!(!a.is_empty(), "recorder saw the corpus");
    assert!(a.contains("\"type\":\"stmt\""));
    assert!(a.contains("\"scope\":\"single\"") || a.contains("\"scope\":\"multi\""));
    assert_eq!(
        a, b,
        "same seed + same clock schedule must dump identically"
    );
}

/// The embedded twin of [`build_dist`], analyzed.
fn build_local(corpus: &DistCorpus) -> Database {
    let mut db = Database::new();
    for ddl in DistCorpus::ddl() {
        db.execute(ddl).unwrap();
    }
    for stmt in corpus.load_stmts() {
        db.execute(&stmt).unwrap();
    }
    db.execute("analyze").unwrap();
    db
}

/// Run `q` (and its plain `EXPLAIN`) on an unprofiled and a profiled
/// engine: only the profile may differ.
fn same_work<E: QueryApi>(plain: &mut E, profiled: &mut E, q: &str) {
    let run = |db: &mut E, sql: &str| db.execute_opts(sql, ExecOptions::default()).unwrap();
    let (a, b) = (run(plain, q), run(profiled, q));
    assert!(a.profile.is_none() && b.profile.is_some());
    let key = |rows: &[Row]| {
        let mut v: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
        v.sort();
        v
    };
    assert_eq!(key(&a.rows), key(&b.rows), "rows diverged for: {q}");
    assert_eq!(a.steps, b.steps, "observations diverged for: {q}");
    assert_eq!(a.planning, b.planning, "hint accounting diverged for: {q}");
    // Plain EXPLAIN output is also untouched by the profiler.
    let explain = format!("explain {q}");
    let (ea, eb) = (run(plain, &explain), run(profiled, &explain));
    assert_eq!(plan_lines(&ea.rows), plan_lines(&eb.rows));
}

#[test]
fn profiling_on_changes_no_results_and_no_plan_store_contents() {
    let corpus = DistCorpus::default();
    let (mut plain, mut profiled) = (build_dist(&corpus, true), build_dist(&corpus, true));
    let (mut plain_l, mut profiled_l) = (build_local(&corpus), build_local(&corpus));
    profiled.set_profiling(true);
    profiled_l.set_profiling(true);
    let stores: Vec<SharedPlanStore> = (0..4).map(|_| SharedPlanStore::default()).collect();
    plain.set_plan_store(stores[0].hints(), stores[0].observer());
    profiled.set_plan_store(stores[1].hints(), stores[1].observer());
    plain_l.set_plan_store(stores[2].hints(), stores[2].observer());
    profiled_l.set_plan_store(stores[3].hints(), stores[3].observer());

    for q in &corpus.queries() {
        same_work(&mut plain, &mut profiled, q);
        same_work(&mut plain_l, &mut profiled_l, q);
    }

    // Both feedback loops learned exactly the same store contents.
    let summarize = |s: &SharedPlanStore| {
        let mut v: Vec<(String, f64, u64)> = s
            .inner()
            .borrow()
            .dump()
            .into_iter()
            .map(|e| (e.text, e.estimated, e.actual))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    };
    assert_eq!(summarize(&stores[0]), summarize(&stores[1]));
    assert_eq!(summarize(&stores[2]), summarize(&stores[3]));
    // The cluster did the same work: fragments, rows exchanged, probes,
    // statement scopes and GTM round trips.
    assert_eq!(plain.counters(), profiled.counters());
    assert_eq!(
        plain.cluster().counters().gtm_interactions,
        profiled.cluster().counters().gtm_interactions
    );
}
