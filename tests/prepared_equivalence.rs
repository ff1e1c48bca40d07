//! Prepared-vs-raw equivalence (ISSUE 8): the seeded corpus driven through
//! `prepare`/`execute(params)` must be indistinguishable from raw text
//! execution on both engines — identical rows, identical step observations,
//! identical plan-store contents — plus DDL/ANALYZE cache invalidation, the
//! parameter-binding error pins, and bound INSERT/UPDATE/DELETE agreeing
//! with the same statements as raw text.

use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb};
use huawei_dm::common::{Datum, Row};
use huawei_dm::learnopt::SharedPlanStore;
use huawei_dm::sql::{Database, ExecOptions, QueryApi, QueryResult};
use huawei_dm::telemetry::{RecorderConfig, SharedRecorder, VirtualClock};
use huawei_dm::workloads::DistCorpus;
use std::sync::Arc;

const SHARDS: usize = 4;

fn build_pair(corpus: &DistCorpus) -> (Database, DistDb) {
    let mut local = Database::new();
    let mut dist = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(SHARDS))).unwrap();
    for ddl in DistCorpus::ddl() {
        local.execute(ddl).unwrap();
        dist.execute(ddl).unwrap();
    }
    for stmt in corpus.load_stmts() {
        local.execute(&stmt).unwrap();
        dist.execute(&stmt).unwrap();
    }
    local.execute("analyze").unwrap();
    dist.execute("analyze").unwrap();
    (local, dist)
}

/// Multiset comparison: sort by debug rendering (Datum has no total Ord).
fn sorted(mut rows: Vec<Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// Everything observable about a result except wall-clock times.
fn fingerprint(r: &QueryResult) -> String {
    let mut steps: Vec<String> = r
        .steps
        .iter()
        .map(|s| format!("{:?}|{}|{}|{}", s.kind, s.text, s.estimated, s.actual))
        .collect();
    steps.sort();
    format!(
        "rows={:?} cols={:?} steps={:?} hints={}/{}",
        sorted(r.rows.clone()),
        r.columns,
        steps,
        r.planning.hint_hits,
        r.planning.hint_misses
    )
}

fn prepared_run<E: QueryApi>(engine: &mut E, sql: &str) -> QueryResult {
    let h = engine.prepare_handle(sql).unwrap();
    engine.execute_prepared(&h, &[]).unwrap()
}

#[test]
fn corpus_prepared_matches_raw_on_both_engines() {
    let corpus = DistCorpus::default();
    let (mut raw_l, mut raw_d) = build_pair(&corpus);
    let (mut prep_l, mut prep_d) = build_pair(&corpus);
    let stores: Vec<SharedPlanStore> = (0..4).map(|_| SharedPlanStore::default()).collect();
    raw_l.set_plan_store(stores[0].hints(), stores[0].observer());
    raw_d.set_plan_store(stores[1].hints(), stores[1].observer());
    prep_l.set_plan_store(stores[2].hints(), stores[2].observer());
    prep_d.set_plan_store(stores[3].hints(), stores[3].observer());

    // Two passes: the first is all cache misses, the second all hits, and
    // on the second pass plan-store hints feed back into both paths.
    for pass in 0..2 {
        for q in &corpus.queries() {
            let rl = raw_l
                .execute(q)
                .unwrap_or_else(|e| panic!("raw local {q}: {e}"));
            let pl = prepared_run(&mut prep_l, q);
            assert_eq!(
                fingerprint(&rl),
                fingerprint(&pl),
                "local prepared diverged on pass {pass}: {q}"
            );
            let rd = raw_d
                .execute(q)
                .unwrap_or_else(|e| panic!("raw dist {q}: {e}"));
            let pd = prepared_run(&mut prep_d, q);
            assert_eq!(
                fingerprint(&rd),
                fingerprint(&pd),
                "dist prepared diverged on pass {pass}: {q}"
            );
            assert_eq!(
                sorted(rl.rows),
                sorted(rd.rows),
                "local and distributed diverged on pass {pass}: {q}"
            );
        }
    }

    // Identical executions must have trained identical plan stores.
    let dumps: Vec<Vec<String>> = stores
        .iter()
        .map(|s| {
            let mut d: Vec<String> = s
                .inner()
                .borrow()
                .dump()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect();
            d.sort();
            d
        })
        .collect();
    assert_eq!(dumps[0], dumps[2], "local plan stores diverged");
    assert_eq!(dumps[1], dumps[3], "dist plan stores diverged");
    assert!(!dumps[0].is_empty() && !dumps[1].is_empty());
}

#[test]
fn profiled_prepared_matches_raw() {
    let corpus = DistCorpus::default();
    let (mut raw_l, mut raw_d) = build_pair(&corpus);
    let (mut prep_l, mut prep_d) = build_pair(&corpus);
    for db in [&mut raw_l, &mut prep_l] {
        db.set_profiling(true);
    }
    for db in [&mut raw_d, &mut prep_d] {
        db.set_profiling(true);
    }
    for q in &corpus.queries() {
        let rl = raw_l.execute(q).unwrap();
        let pl = prepared_run(&mut prep_l, q);
        let rd = raw_d.execute(q).unwrap();
        let pd = prepared_run(&mut prep_d, q);
        for (raw, prep, engine) in [(&rl, &pl, "local"), (&rd, &pd, "dist")] {
            assert_eq!(fingerprint(raw), fingerprint(prep), "{engine}: {q}");
            let (r, p) = (
                raw.profile
                    .as_ref()
                    .unwrap_or_else(|| panic!("{engine} raw profile: {q}")),
                prep.profile
                    .as_ref()
                    .unwrap_or_else(|| panic!("{engine} prep profile: {q}")),
            );
            assert_eq!(r.scope, p.scope, "{engine}: {q}");
            assert_eq!(r.rows_out, p.rows_out, "{engine}: {q}");
            assert_eq!(r.gtm_interactions, p.gtm_interactions, "{engine}: {q}");
            assert_eq!(r.twopc_legs, p.twopc_legs, "{engine}: {q}");
            let ops = |n: &huawei_dm::sql::OpProfile| {
                let mut v = Vec::new();
                let mut stack = vec![n];
                while let Some(x) = stack.pop() {
                    v.push((x.label.clone(), x.rows_out));
                    stack.extend(x.children.iter());
                }
                v
            };
            match (&r.root, &p.root) {
                (Some(a), Some(b)) => assert_eq!(ops(a), ops(b), "{engine}: {q}"),
                (a, b) => assert_eq!(a.is_some(), b.is_some(), "{engine}: {q}"),
            }
        }
    }
}

const PROFILES_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/profiles.jsonl");

/// Every corpus statement's recorded profile, raw and prepared, is pinned
/// byte for byte on both engines: labels, step kinds, canonical texts,
/// estimates, rows, loops, shard legs and the scope/GTM/2PC footer. Two
/// passes, so the second takes its estimates from the plan-store hints. A
/// profile is the same whichever executor ran the statement: the tree
/// walker or the flat `LinearSelect` program.
///
/// Regenerate after an intentional change with
/// `BLESS=1 cargo test --test prepared_equivalence`.
#[test]
fn recorded_profiles_match_the_golden_on_both_engines() {
    let corpus = DistCorpus::default();
    let (mut local, mut dist) = build_pair(&corpus);
    let clock = Arc::new(VirtualClock::new());
    let recorder = || {
        SharedRecorder::new(RecorderConfig {
            capacity: 1024,
            slow_threshold_us: 50,
        })
    };
    let (rec_l, rec_d) = (recorder(), recorder());
    let (store_l, store_d) = (SharedPlanStore::default(), SharedPlanStore::default());
    local.set_clock(clock.clone());
    local.attach_recorder(rec_l.clone());
    local.set_plan_store(store_l.hints(), store_l.observer());
    dist.set_clock(clock.clone());
    dist.attach_recorder(rec_d.clone());
    dist.set_plan_store(store_d.hints(), store_d.observer());

    let mut tick = 0;
    for _pass in 0..2 {
        for q in &corpus.queries() {
            for prepared in [false, true] {
                tick += 1;
                clock.set(tick * 1_000);
                if prepared {
                    prepared_run(&mut local, q);
                    prepared_run(&mut dist, q);
                } else {
                    local
                        .execute(q)
                        .unwrap_or_else(|e| panic!("local {q}: {e}"));
                    dist.execute(q).unwrap_or_else(|e| panic!("dist {q}: {e}"));
                }
            }
        }
    }
    assert_eq!(
        rec_l.dropped() + rec_d.dropped(),
        0,
        "the recorders keep every statement"
    );
    let out = rec_l.to_jsonl() + &rec_d.to_jsonl();
    if std::env::var("BLESS").is_ok() {
        std::fs::write(PROFILES_GOLDEN, &out).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(PROFILES_GOLDEN)
        .expect("tests/golden/profiles.jsonl missing; run with BLESS=1");
    for (i, (got, want)) in out.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "profile line {} drifted from the golden", i + 1);
    }
    assert_eq!(out, golden, "profile count drifted from the golden");
}

#[test]
fn ddl_and_analyze_invalidate_the_cache_on_both_engines() {
    let corpus = DistCorpus::default();
    let (mut local, mut dist) = build_pair(&corpus);

    let cached_count = |r: QueryResult| r.rows.len();
    let point = "select * from orders where cust = 3";
    let agg = "select count(*), sum(amount) from orders where cust = 3";

    let want_point = sorted(local.execute(point).unwrap().rows);
    let want_agg = sorted(local.execute(agg).unwrap().rows);
    dist.execute(point).unwrap();
    dist.execute(agg).unwrap();
    assert_eq!(
        cached_count(local.execute("select * from sys.prepared").unwrap()),
        2
    );
    assert_eq!(
        cached_count(dist.execute("select * from sys.prepared").unwrap()),
        2
    );

    // DDL drops every cached plan...
    local.execute("create table zzz (a int)").unwrap();
    dist.execute("create table zzz (a int)").unwrap();
    assert_eq!(
        cached_count(local.execute("select * from sys.prepared").unwrap()),
        0,
        "DDL must invalidate the local plan cache"
    );
    assert_eq!(
        cached_count(dist.execute("select * from sys.prepared").unwrap()),
        0,
        "DDL must invalidate the dist plan cache"
    );

    // ...and stale statements replan transparently with identical results.
    assert_eq!(sorted(local.execute(point).unwrap().rows), want_point);
    assert_eq!(sorted(dist.execute(point).unwrap().rows), want_point);
    assert_eq!(sorted(local.execute(agg).unwrap().rows), want_agg);
    assert_eq!(sorted(dist.execute(agg).unwrap().rows), want_agg);

    // ANALYZE invalidates too (fresh statistics change plan choices).
    local.execute("analyze").unwrap();
    dist.execute("analyze").unwrap();
    assert_eq!(
        cached_count(local.execute("select * from sys.prepared").unwrap()),
        0,
        "ANALYZE must invalidate the local plan cache"
    );
    assert_eq!(
        cached_count(dist.execute("select * from sys.prepared").unwrap()),
        0,
        "ANALYZE must invalidate the dist plan cache"
    );
    assert_eq!(sorted(local.execute(point).unwrap().rows), want_point);
    assert_eq!(sorted(dist.execute(point).unwrap().rows), want_point);

    // CREATE INDEX is DDL too (ISSUE 9): a new access path must drop every
    // cached plan, or cached statements would keep their pre-index scans.
    let region = "select * from orders where region = 5";
    let want_region = sorted(local.execute(region).unwrap().rows);
    dist.execute(region).unwrap();
    assert!(cached_count(local.execute("select * from sys.prepared").unwrap()) > 0);
    assert!(cached_count(dist.execute("select * from sys.prepared").unwrap()) > 0);
    local.execute("create index on orders (region)").unwrap();
    dist.execute("create index on orders (region)").unwrap();
    assert_eq!(
        cached_count(local.execute("select * from sys.prepared").unwrap()),
        0,
        "CREATE INDEX must invalidate the local plan cache"
    );
    assert_eq!(
        cached_count(dist.execute("select * from sys.prepared").unwrap()),
        0,
        "CREATE INDEX must invalidate the dist plan cache"
    );
    // Replans adopt the index without changing results.
    local.execute("analyze").unwrap();
    dist.execute("analyze").unwrap();
    assert_eq!(sorted(local.execute(region).unwrap().rows), want_region);
    assert_eq!(sorted(dist.execute(region).unwrap().rows), want_region);
}

#[test]
fn parameter_binding_errors_are_pinned() {
    let corpus = DistCorpus::default();
    let (mut local, mut dist) = build_pair(&corpus);
    let q = "select * from orders where cust = ?";

    // Local engine.
    let h = local.prepare_handle(q).unwrap();
    let err = local.execute_prepared(&h, &[]).unwrap_err().to_string();
    assert!(err.contains("statement has 1 parameters; got 0"), "{err}");
    let err = local
        .execute_prepared(&h, &[Datum::Text("three".into())])
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("parameter ?1 type mismatch: expected INT, got TEXT"),
        "{err}"
    );
    let ok = local.execute_prepared(&h, &[Datum::Int(3)]).unwrap();

    // Distributed engine: same errors, same rows.
    let h = dist.prepare_handle(q).unwrap();
    let err = dist.execute_prepared(&h, &[]).unwrap_err().to_string();
    assert!(err.contains("statement has 1 parameters; got 0"), "{err}");
    let err = dist
        .execute_prepared(&h, &[Datum::Text("three".into())])
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("parameter ?1 type mismatch: expected INT, got TEXT"),
        "{err}"
    );
    let okd = dist.execute_prepared(&h, &[Datum::Int(3)]).unwrap();
    assert_eq!(sorted(ok.rows), sorted(okd.rows));

    // Rebinding the same handle with different values re-prunes: two
    // different keys must land on (generally) different shard sets but
    // always the right rows.
    let mut all = Vec::new();
    let h = dist.prepare_handle(q).unwrap();
    for k in 0..8 {
        let r = dist.execute_prepared(&h, &[Datum::Int(k)]).unwrap();
        let raw = dist
            .execute(&format!("select * from orders where cust = {k}"))
            .unwrap();
        assert_eq!(sorted(r.rows.clone()), sorted(raw.rows), "cust = {k}");
        all.extend(r.rows);
    }
    assert!(!all.is_empty());
}

/// Re-plan on drift, pinned on both engines. Without ANALYZE the planner
/// guesses 100 of the 1 000 rows that match `b = 1`. The first run captures
/// the actual into the plan store; the second finds its cached plan drifted,
/// evicts it and re-plans against the captured cardinality; later runs keep
/// the new plan. A prepared handle runs the same sequence.
#[test]
fn drift_replans_once_on_both_engines() {
    const ROWS: i64 = 1_000;
    let setup = || {
        let mut local = Database::new();
        let mut dist = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(SHARDS))).unwrap();
        let stores = [SharedPlanStore::default(), SharedPlanStore::default()];
        local.set_plan_store(stores[0].hints(), stores[0].observer());
        dist.set_plan_store(stores[1].hints(), stores[1].observer());
        let values: Vec<String> = (0..ROWS).map(|i| format!("({i}, 1)")).collect();
        let insert = format!("insert into t values {}", values.join(", "));
        for sql in ["create table t (a int, b int)", insert.as_str()] {
            local.execute(sql).unwrap();
            dist.execute(sql).unwrap();
        }
        (local, dist)
    };
    // (replans, scan estimate, rows) of one run.
    let run = |r: QueryResult| {
        let scan = r.steps.first().expect("a scan step");
        (r.planning.replans, scan.estimated, sorted(r.rows))
    };
    let q = "select * from t where b = 1";
    let want = [(0, 100.0), (1, 1_000.0), (0, 1_000.0), (0, 1_000.0)];

    let (mut local, mut dist) = setup();
    for (i, &(replans, est)) in want.iter().enumerate() {
        let (l, d) = (
            run(local.execute(q).unwrap()),
            run(dist.execute(q).unwrap()),
        );
        assert_eq!((l.0, l.1), (replans, est), "local run {i}");
        assert_eq!((d.0, d.1), (replans, est), "dist run {i}");
        assert_eq!(l.2.len(), ROWS as usize, "local run {i}");
        assert_eq!(l.2, d.2, "run {i}: both engines return the same rows");
    }

    let (mut local, mut dist) = setup();
    let (hl, hd) = (
        local.prepare_handle(q).unwrap(),
        dist.prepare_handle(q).unwrap(),
    );
    for (i, &(replans, est)) in want.iter().enumerate() {
        let l = run(local.execute_prepared(&hl, &[]).unwrap());
        let d = run(dist.execute_prepared(&hd, &[]).unwrap());
        assert_eq!((l.0, l.1), (replans, est), "local prepared run {i}");
        assert_eq!((d.0, d.1), (replans, est), "dist prepared run {i}");
        assert_eq!(
            l.2, d.2,
            "prepared run {i}: both engines return the same rows"
        );
    }
}

fn new_dist() -> DistDb {
    DistDb::new(Cluster::new(ClusterConfig::gtm_lite(SHARDS))).unwrap()
}

/// Raw text on any engine.
fn raw<E: QueryApi>(db: &mut E, sql: &str) -> Result<QueryResult, String> {
    db.execute_opts(sql, ExecOptions::default())
        .map_err(|e| e.to_string())
}

/// Prepare `sql` and execute it once with `params`.
fn prepared<E: QueryApi>(db: &mut E, sql: &str, params: &[Datum]) -> Result<u64, String> {
    let h = db.prepare_handle(sql).map_err(|e| e.to_string())?;
    db.execute_prepared(&h, params)
        .map(|r| r.affected)
        .map_err(|e| e.to_string())
}

/// Run `text` as raw text on `raw_db` and `sql` prepared with `params` on
/// its twin `prep_db`: the rows written, or the error text, must agree.
fn both_ways<E: QueryApi>(
    raw_db: &mut E,
    prep_db: &mut E,
    text: &str,
    sql: &str,
    params: &[Datum],
) -> Result<u64, String> {
    let r = raw(raw_db, text).map(|r| r.affected);
    assert_eq!(
        r,
        prepared(prep_db, sql, params),
        "{text} / {sql} {params:?}"
    );
    r
}

/// Table `t`'s rows as a sorted multiset.
fn contents<E: QueryApi>(db: &mut E) -> Vec<String> {
    sorted(raw(db, "select * from t").unwrap().rows)
}

/// Twin engines holding the same five rows of `t (k, a, b)`.
fn dml_twins<E: QueryApi>(new: impl Fn() -> E) -> (E, E) {
    let (mut a, mut b) = (new(), new());
    for db in [&mut a, &mut b] {
        raw(db, "create table t (k int, a int, b int)").unwrap();
        raw(
            db,
            "insert into t values (1, 1, 10), (2, 1, 20), (3, 2, 30), (4, 2, 40), (5, 3, 50)",
        )
        .unwrap();
    }
    (a, b)
}

/// Every bound-DML case on one engine; returns the final contents of `t`,
/// which the raw and the prepared twin share. `dist` says whether the
/// engine places rows by a distribution column.
fn bound_dml_cases<E: QueryApi>(new: impl Fn() -> E, dist: bool) -> Vec<String> {
    let (mut r, mut p) = dml_twins(new);
    let int = Datum::Int;

    // A column list that leaves `a` out (it becomes NULL), and a literal
    // beside a parameter.
    let ins = "insert into t (b, k) values (?, 6)";
    let got = both_ways(
        &mut r,
        &mut p,
        "insert into t (b, k) values (60, 6)",
        ins,
        &[int(60)],
    );
    assert_eq!(got, Ok(1));

    // A wrong parameter count fails as raw text whose `?` has no value.
    let sql = "insert into t values (?, ?, ?)";
    let err = both_ways(&mut r, &mut p, sql, sql, &[]).unwrap_err();
    assert!(err.contains("statement has 3 parameters; got 0"), "{err}");
    let err = prepared(&mut p, sql, &[int(7), int(1)]).unwrap_err();
    assert!(err.contains("statement has 3 parameters; got 2"), "{err}");

    // A NULL distribution key.
    let ins = "insert into t values (?, 9, 90)";
    let got = both_ways(
        &mut r,
        &mut p,
        "insert into t values (null, 9, 90)",
        ins,
        &[Datum::Null],
    );
    match dist {
        true => assert!(got.unwrap_err().contains("must be a non-null INT")),
        false => assert_eq!(got, Ok(1)),
    }

    // An UPDATE of the distribution column: a prepared one fails when it
    // is prepared.
    let upd = "update t set k = ? where a = 3";
    let got = both_ways(
        &mut r,
        &mut p,
        "update t set k = 7 where a = 3",
        upd,
        &[int(7)],
    );
    match dist {
        true => {
            assert!(got
                .unwrap_err()
                .contains("updating the distribution column of t"));
            assert!(p.prepare_handle(upd).is_err());
        }
        false => assert_eq!(got, Ok(1)),
    }

    // Predicates off the key scatter.
    let upd = "update t set b = ? where a = ?";
    let got = both_ways(
        &mut r,
        &mut p,
        "update t set b = 11 where a = 1",
        upd,
        &[int(11), int(1)],
    );
    assert_eq!(got, Ok(2));
    let del = "delete from t where a = ?";
    assert_eq!(
        both_ways(&mut r, &mut p, "delete from t where a = 2", del, &[int(2)]),
        Ok(2)
    );

    // A handle prepared before CREATE INDEX and ANALYZE on its table runs
    // after them.
    let h = p.prepare_handle(upd).unwrap();
    for db in [&mut r, &mut p] {
        raw(db, "create index on t (a)").unwrap();
        raw(db, "analyze").unwrap();
    }
    let got = raw(&mut r, "update t set b = 12 where a = 1").map(|r| r.affected);
    assert_eq!(got, Ok(2));
    assert_eq!(
        p.execute_prepared(&h, &[int(12), int(1)]).unwrap().affected,
        2
    );

    // An idempotent statement applies once; on the distributed engine its
    // retry is answered from the statement's tag without re-applying.
    let ins = "insert into t values (8, 4, 80)";
    let retries = if dist { 2 } else { 1 };
    for _ in 0..retries {
        let got = r.execute_opts(ins, ExecOptions::idempotent(42)).unwrap();
        assert_eq!(got.affected, 1);
    }
    assert_eq!(
        prepared(&mut p, "insert into t values (?, ?, 80)", &[int(8), int(4)]),
        Ok(1)
    );

    let want = contents(&mut r);
    assert_eq!(want, contents(&mut p), "raw and prepared twins diverged");
    want
}

#[test]
fn bound_dml_matches_raw_text_on_both_engines() {
    let row = |k: Option<i64>, a: Option<i64>, b: i64| {
        let d = |v: Option<i64>| v.map_or(Datum::Null, Datum::Int);
        Row::new(vec![d(k), d(a), Datum::Int(b)])
    };
    let shared = [
        row(Some(1), Some(1), 12),
        row(Some(2), Some(1), 12),
        row(Some(6), None, 60),
        row(Some(8), Some(4), 80),
    ];
    // The embedded engine has no distribution column: it also wrote the
    // NULL-key row and moved row 5 to key 7.
    let mut local = shared.to_vec();
    local.extend([row(None, Some(9), 90), row(Some(7), Some(3), 50)]);
    let mut dist = shared.to_vec();
    dist.push(row(Some(5), Some(3), 50));
    assert_eq!(bound_dml_cases(Database::new, false), sorted(local));
    assert_eq!(bound_dml_cases(new_dist, true), sorted(dist));
}

/// The distributed engine routes a key-fixed prepared write to one shard,
/// scatters one whose predicate is off the key, and probes a secondary
/// index once it exists.
#[test]
fn bound_dml_routes_by_key_and_probes_new_indexes() {
    let (mut db, _) = dml_twins(new_dist);
    let int = Datum::Int;
    let by_key = db.prepare_handle("update t set b = ? where k = ?").unwrap();
    let off_key = db.prepare_handle("update t set b = ? where a = ?").unwrap();

    let before = db.counters();
    assert_eq!(
        db.execute_prepared(&by_key, &[int(0), int(3)])
            .unwrap()
            .affected,
        1
    );
    let after = db.counters();
    assert_eq!(after.single_shard_stmts - before.single_shard_stmts, 1);
    assert_eq!(after.multi_shard_stmts, before.multi_shard_stmts);
    assert_eq!(
        after.index_probes - before.index_probes,
        1,
        "shard-key probe"
    );

    let before = db.counters();
    assert_eq!(
        db.execute_prepared(&off_key, &[int(0), int(1)])
            .unwrap()
            .affected,
        2
    );
    let after = db.counters();
    assert_eq!(after.multi_shard_stmts - before.multi_shard_stmts, 1);
    assert_eq!(after.index_probes, before.index_probes, "no index on a yet");

    db.execute("create index on t (a)").unwrap();
    let before = db.counters();
    assert_eq!(
        db.execute_prepared(&off_key, &[int(1), int(1)])
            .unwrap()
            .affected,
        2
    );
    let after = db.counters();
    assert_eq!(after.index_probes - before.index_probes, SHARDS as u64);
}

/// Every right-hand side of a SET list reads the row as it was before the
/// statement, so `set a = b, b = a` swaps the two columns.
#[test]
fn update_set_list_reads_the_old_row_on_both_engines() {
    fn swapped<E: QueryApi>(new: impl Fn() -> E) -> Vec<String> {
        let (mut r, mut p) = dml_twins(new);
        let swap = "update t set a = b, b = a where k = ?";
        let got = both_ways(
            &mut r,
            &mut p,
            "update t set a = b, b = a where k = 2",
            swap,
            &[Datum::Int(2)],
        );
        assert_eq!(got, Ok(1));
        let row = raw(&mut r, "select a, b from t where k = 2").unwrap().rows;
        assert_eq!(
            sorted(row),
            sorted(vec![Row::new(vec![Datum::Int(20), Datum::Int(1)])])
        );
        let want = contents(&mut r);
        assert_eq!(want, contents(&mut p));
        want
    }
    assert_eq!(swapped(Database::new), swapped(new_dist));
}

/// A statement that names one target column twice fails when it is bound,
/// with one error text on both engines, and writes nothing.
#[test]
fn a_target_column_named_twice_is_rejected_on_both_engines() {
    fn rejected<E: QueryApi>(new: impl Fn() -> E) -> Vec<String> {
        let (mut db, _) = dml_twins(new);
        let before = contents(&mut db);
        for sql in [
            "insert into t (k, a, a) values (9, 10, 20)",
            "update t set a = 1, a = 2 where k = 1",
        ] {
            let want = "column a of t is assigned more than once";
            let err = raw(&mut db, sql).unwrap_err();
            assert!(err.contains(want), "{sql}: {err}");
            let err = db.prepare_handle(sql).unwrap_err().to_string();
            assert!(err.contains(want), "prepared {sql}: {err}");
        }
        assert_eq!(contents(&mut db), before);
        before
    }
    assert_eq!(rejected(Database::new), rejected(new_dist));
}

/// Table `t (a, b)` of 2 000 rows with an index on `b`; every third `b` is
/// NULL, the rest cycle through 0..50.
fn null_keyed<E: QueryApi>(db: &mut E) {
    raw(db, "create table t (a int, b int)").unwrap();
    let rows: Vec<String> = (0..2_000)
        .map(|i| match i % 3 {
            0 => format!("({i}, null)"),
            _ => format!("({i}, {})", i % 50),
        })
        .collect();
    for chunk in rows.chunks(500) {
        raw(db, &format!("insert into t values {}", chunk.join(", "))).unwrap();
    }
    raw(db, "create index on t (b)").unwrap();
    raw(db, "analyze").unwrap();
}

/// NULL never satisfies `=`: an index probe with a NULL key matches no row,
/// not the rows whose key is NULL, on both engines — as raw text, with a
/// prepared NULL binding and under an aggregate run on the tree.
#[test]
fn a_null_index_key_matches_nothing_on_both_engines() {
    fn check<E: QueryApi>(db: &mut E, engine: &str) {
        null_keyed(db);
        let count = raw(db, "select count(*) from t where b = null").unwrap();
        assert_eq!(count.scalar_int(), Some(0), "{engine}: aggregate");
        let rows = raw(db, "select * from t where b = null").unwrap().rows;
        assert!(rows.is_empty(), "{engine}: raw text matched {}", rows.len());
        let h = db.prepare_handle("select * from t where b = ?").unwrap();
        let rows = db.execute_prepared(&h, &[Datum::Null]).unwrap().rows;
        assert!(
            rows.is_empty(),
            "{engine}: NULL binding matched {}",
            rows.len()
        );
        let rows = db.execute_prepared(&h, &[Datum::Int(7)]).unwrap().rows;
        assert_eq!(rows.len(), 27, "{engine}: a non-NULL key still probes");
    }
    check(&mut Database::new(), "embedded");
    check(&mut new_dist(), "dist");
}

/// Everything a differential run compares: rows in order, step texts and
/// actuals, and the profile's operators with their rows, loops and shard
/// legs (estimates are left out: a cached plan estimates a range against
/// `?`, the tree against its literal).
fn run_shape(r: &QueryResult) -> String {
    let steps: Vec<(String, u64)> = r
        .steps
        .iter()
        .map(|s| (s.text.to_string(), s.actual))
        .collect();
    let mut ops = Vec::new();
    let mut stack: Vec<&huawei_dm::sql::OpProfile> =
        r.profile.iter().filter_map(|p| p.root.as_ref()).collect();
    while let Some(op) = stack.pop() {
        let legs: Vec<(u64, u64)> = op.shards.iter().map(|l| (l.shard, l.rows)).collect();
        ops.push(format!(
            "{}|{}|{}|{legs:?}",
            op.label, op.rows_out, op.loops
        ));
        stack.extend(op.children.iter());
    }
    format!("rows={:?}\nsteps={steps:?}\nops={ops:?}", r.rows)
}

/// Every shape the flat lowering accepts — `Limit? → Project? → (SeqScan |
/// IndexScan)`, and the `col = ?` route on the shard key — runs from the
/// plan cache, raw and prepared, exactly as its tree twin runs: the same
/// text with ` and 1 = 1` appended to the WHERE clause, which the
/// canonicalizer does not cache and the rewriter folds away before planning.
#[test]
fn flat_programs_match_the_tree_on_both_engines() {
    fn check<E: QueryApi>(db: &mut E, engine: &str) {
        null_keyed(db);
        for proj in ["*", "b, a + 1"] {
            for (pred, v) in [("a > ", 1_990), ("b = ", 7), ("a = ", 5)] {
                for limit in ["", " limit 3"] {
                    let flat = format!("select {proj} from t where {pred}{v}{limit}");
                    let prep = format!("select {proj} from t where {pred}?{limit}");
                    let tree = format!("select {proj} from t where {pred}{v} and 1 = 1{limit}");
                    let want = run_shape(&raw(db, &tree).unwrap());
                    for pass in 0..2 {
                        let got = run_shape(&raw(db, &flat).unwrap());
                        assert_eq!(got, want, "{engine} raw pass {pass}: {flat}");
                        let h = db.prepare_handle(&prep).unwrap();
                        let got = run_shape(&db.execute_prepared(&h, &[Datum::Int(v)]).unwrap());
                        assert_eq!(got, want, "{engine} prepared pass {pass}: {prep}");
                    }
                }
            }
        }
    }
    let clock = Arc::new(VirtualClock::new());
    let mut local = Database::new();
    local.set_clock(clock.clone());
    local.set_profiling(true);
    check(&mut local, "embedded");
    let mut dist = new_dist();
    dist.set_clock(clock);
    dist.set_profiling(true);
    check(&mut dist, "dist");
}
