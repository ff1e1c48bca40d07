//! Local-vs-distributed SQL equivalence: the same seeded DDL, loads, and
//! query corpus driven through the embedded single-node engine and through
//! the CN/DN cluster must return the same rows (as multisets — gather order
//! differs), while the cluster side demonstrates the GTM-lite contract:
//! shard-key-pruned statements never visit the GTM, scattered statements
//! commit through 2PC.

use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb, FaultScript};
use huawei_dm::common::{Datum, Row};
use huawei_dm::sql::plan::{PlanNode, PlanOp};
use huawei_dm::sql::{Database, QueryApi};
use huawei_dm::telemetry::Telemetry;
use huawei_dm::workloads::DistCorpus;
use std::cell::RefCell;
use std::rc::Rc;

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

fn exchange_fanouts(plan: &PlanNode) -> Vec<usize> {
    let mut out = Vec::new();
    fn walk(n: &PlanNode, out: &mut Vec<usize>) {
        if let PlanOp::Exchange { shards, .. } = &n.op {
            out.push(shards.len());
        }
        for c in &n.children {
            walk(c, out);
        }
    }
    walk(plan, &mut out);
    out
}

#[test]
fn seeded_corpus_matches_local_engine() {
    let corpus = DistCorpus::default();
    let (mut local, mut dist) = build_pair(&corpus);
    let queries = corpus.queries();
    assert!(queries.len() >= 20, "corpus too small: {}", queries.len());
    for q in &queries {
        let l = local.query(q).unwrap_or_else(|e| panic!("local {q}: {e}"));
        let d = dist
            .execute(q)
            .unwrap_or_else(|e| panic!("dist {q}: {e}"))
            .rows;
        assert_eq!(
            sorted(l),
            sorted(d),
            "local and distributed results diverged for: {q}"
        );
    }
}

/// Aggregate errors are errors on both engines, never a panic or a wrong
/// value: `SUM` past `i64::MAX` is an integer overflow, and `AVG`, like
/// `SUM`, rejects non-numeric input. The consumer fails inside a shard leg,
/// and the leg still closes its trace span.
#[test]
fn aggregate_overflow_and_non_numeric_input_error_on_both_engines() {
    let mut local = Database::new();
    let mut dist = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(SHARDS))).unwrap();
    let tel = Telemetry::simulated();
    dist.attach_telemetry(&tel);
    for stmt in [
        "create table big (k int, v int, s text)",
        "insert into big values (1, 9223372036854775807, 'x'), (2, 9223372036854775807, 'y')",
    ] {
        local.execute(stmt).unwrap();
        dist.execute(stmt).unwrap();
    }
    for (q, want) in [
        ("select sum(v) from big", "integer overflow"),
        ("select sum(s) from big", "SUM over non-numeric"),
        ("select avg(s) from big", "AVG over non-numeric"),
        ("select v / 0 from big", "division by zero"),
    ] {
        let l = local.execute(q).map(|r| r.rows);
        let d = dist.execute(q).map(|r| r.rows);
        for (engine, res) in [("local", l), ("dist", d)] {
            match res {
                Err(e) => assert!(e.to_string().contains(want), "{engine} {q}: {e}"),
                Ok(rows) => panic!("{engine} {q}: expected `{want}`, got {rows:?}"),
            }
        }
        assert_eq!(tel.tracer.open_count(), 0, "{q} left a span open");
    }
    // The scatter really visited more than one shard, and a failed
    // statement leaves both engines serving the next one.
    let plan = dist.plan_only("select sum(v) from big").unwrap();
    assert_eq!(exchange_fanouts(&plan), vec![SHARDS]);
    let q = "select count(*), max(v) from big";
    assert_eq!(
        sorted(local.query(q).unwrap()),
        sorted(dist.execute(q).unwrap().rows)
    );
}

/// Observing must not change the executor: a bare `DistDb`, one with
/// telemetry attached and one under a (fault-free) `FaultScript` run the
/// same statements through the same code — identical results *and*
/// identical `DistCounters`, shard-key point statements answered by the
/// DN-local index probe on all three.
#[test]
fn telemetry_and_fault_scripts_do_not_change_the_executor() {
    let corpus = DistCorpus::default();
    let mut twins: Vec<(&str, DistDb)> = vec![
        ("bare", build_pair(&corpus).1),
        ("telemetry", build_pair(&corpus).1),
        ("fault script", build_pair(&corpus).1),
    ];
    let tel = Telemetry::simulated();
    twins[1].1.attach_telemetry(&tel);
    let script = Rc::new(RefCell::new(FaultScript::default()));
    twins[2].1.set_fault_script(Some(script.clone()));

    let mut stmts = corpus.queries();
    stmts.extend([
        "update orders set amount = amount + 1 where cust = 7".to_string(),
        "select * from orders where cust = 7".to_string(),
        "delete from orders where cust = 7".to_string(),
        "select count(*) from orders".to_string(),
    ]);
    for (name, db) in &mut twins {
        let before = db.counters().index_probes;
        db.execute("select * from orders where cust = 3").unwrap();
        assert_eq!(
            db.counters().index_probes,
            before + 1,
            "{name}: a shard-key point SELECT is one index probe"
        );
    }
    for q in &stmts {
        let results: Vec<_> = twins
            .iter_mut()
            .map(|(name, db)| db.execute(q).unwrap_or_else(|e| panic!("{name} {q}: {e}")))
            .collect();
        for ((name, db), r) in twins.iter().zip(&results).skip(1) {
            let bare = &results[0];
            assert_eq!(r.rows, bare.rows, "{name}: rows diverged for {q}");
            assert_eq!(r.columns, bare.columns, "{name}: columns diverged for {q}");
            assert_eq!(r.steps, bare.steps, "{name}: steps diverged for {q}");
            assert_eq!(
                r.planning, bare.planning,
                "{name}: planning diverged for {q}"
            );
            assert_eq!(
                r.affected, bare.affected,
                "{name}: affected diverged for {q}"
            );
            assert_eq!(
                db.counters(),
                twins[0].1.counters(),
                "{name}: DistCounters diverged after {q}"
            );
        }
    }
    assert!(
        script.borrow().tick > 0,
        "the script twin ticked per fragment"
    );
}

#[test]
fn pruned_point_query_skips_the_gtm() {
    let corpus = DistCorpus::default();
    let (mut local, mut dist) = build_pair(&corpus);
    dist.set_profiling(true);
    let q = "select * from orders where cust = 7";
    let before = dist.cluster().counters();
    let res = dist.execute(q).unwrap();
    let after = dist.cluster().counters();
    // The per-statement profile attributes GTM traffic and 2PC legs to this
    // statement alone — no global-counter delta arithmetic needed.
    let profile = res.profile.as_ref().expect("profiling enabled");
    assert_eq!(profile.scope, "single", "pruned to one shard");
    assert_eq!(
        profile.gtm_interactions, 0,
        "shard-key-pruned statement must not interact with the GTM"
    );
    assert_eq!(
        profile.twopc_legs, 0,
        "single-shard fast path commits without 2PC"
    );
    assert_eq!(
        after.single_shard_commits,
        before.single_shard_commits + 1,
        "pruned statement commits on the single-shard fast path"
    );
    let want = sorted(local.query(q).unwrap());
    assert_eq!(sorted(res.rows), want);

    // Profiling swaps in the tree walker. The production paths — raw text
    // and prepared with profiling off — run the flat program, and must stay off
    // the GTM just the same.
    dist.set_profiling(false);
    let handle = dist
        .prepare_handle("select * from orders where cust = ?")
        .unwrap();
    for path in ["raw", "prepared"] {
        let before = (dist.cluster().counters(), dist.counters());
        let res = match path {
            "raw" => dist.execute(q),
            _ => dist.execute_prepared(&handle, &[Datum::Int(7)]),
        }
        .unwrap();
        let after = (dist.cluster().counters(), dist.counters());
        assert_eq!(
            after.0.gtm_interactions, before.0.gtm_interactions,
            "{path}: shard-key-pruned statement must not interact with the GTM"
        );
        assert_eq!(
            after.0.single_shard_commits,
            before.0.single_shard_commits + 1,
            "{path}: pruned statement commits on the single-shard fast path"
        );
        assert_eq!(
            after.1.pruned_scans,
            before.1.pruned_scans + 1,
            "{path}: the scan is pruned to one shard"
        );
        assert_eq!(sorted(res.rows), want, "{path}: rows diverged");
    }
}

#[test]
fn scattered_aggregate_commits_via_2pc() {
    let corpus = DistCorpus::default();
    let (mut local, mut dist) = build_pair(&corpus);
    dist.set_profiling(true);
    let q = "select region, sum(amount) from orders group by region";
    let before = dist.cluster().counters();
    let res = dist.execute(q).unwrap();
    let after = dist.cluster().counters();
    let profile = res.profile.as_ref().expect("profiling enabled");
    assert_eq!(profile.scope, "multi", "scatter-gather spans shards");
    assert_eq!(
        profile.twopc_legs, SHARDS as u64,
        "scatter-gather aggregate holds a 2PC leg on every shard"
    );
    assert!(
        profile.gtm_interactions > 0,
        "a global transaction visits the GTM"
    );
    assert!(
        after.multi_shard_commits > before.multi_shard_commits,
        "scatter-gather aggregate must commit through 2PC"
    );
    assert_eq!(sorted(local.query(q).unwrap()), sorted(res.rows));
}

#[test]
fn or_on_shard_key_scatters_to_every_shard() {
    let corpus = DistCorpus::default();
    let (_, mut dist) = build_pair(&corpus);
    let plan = dist
        .plan_only("select * from orders where cust = 1 or cust = 2")
        .unwrap();
    assert_eq!(
        exchange_fanouts(&plan),
        vec![SHARDS],
        "top-level OR must defeat pruning"
    );
    // Contrast: plain equality pins the scan to one leg.
    let plan = dist
        .plan_only("select * from orders where cust = 1")
        .unwrap();
    assert_eq!(exchange_fanouts(&plan), vec![1]);
}

#[test]
fn cross_shard_join_gathers_both_sides() {
    let corpus = DistCorpus::default();
    let (mut local, mut dist) = build_pair(&corpus);
    let q = "select o.cust, c.tier from orders o, custs c where o.cust = c.cust";
    let plan = dist.plan_only(q).unwrap();
    let fanouts = exchange_fanouts(&plan);
    assert_eq!(
        fanouts,
        vec![SHARDS, SHARDS],
        "join with no key pin gathers both tables"
    );
    assert_eq!(
        sorted(local.query(q).unwrap()),
        sorted(dist.execute(q).unwrap().rows)
    );
}

fn explain_text(r: &huawei_dm::sql::QueryResult) -> String {
    r.rows
        .iter()
        .map(|row| match &row.values()[0] {
            huawei_dm::common::Datum::Text(s) => s.clone(),
            other => format!("{other:?}"),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// ISSUE 9: secondary indexes are planner-visible access paths with a
/// cost-gated fallback, on both engines, and never change results.
#[test]
fn secondary_index_access_paths_are_cost_gated_and_equivalent() {
    let corpus = DistCorpus::default();
    let (mut local, mut dist) = build_pair(&corpus);
    for ddl in [
        "create index on orders (region)",
        "create index on orders (amount)",
    ] {
        local.execute(ddl).unwrap();
        dist.execute(ddl).unwrap();
    }
    // Fresh statistics (per-column NDV + min/max) drive the access-path gate.
    local.execute("analyze").unwrap();
    dist.execute("analyze").unwrap();

    // Selective equality on a non-shard-key column: index probe on both
    // engines (the distributed side pushes the probe into each Exchange leg).
    let l = explain_text(
        &local
            .execute("explain select * from orders where region = 5")
            .unwrap(),
    );
    assert!(l.contains("Index Scan on orders"), "local eq plan:\n{l}");
    let d = explain_text(
        &dist
            .execute("explain select * from orders where region = 5")
            .unwrap(),
    );
    assert!(d.contains("Exchange Index Scan"), "dist eq plan:\n{d}");

    // Selective range: index range walk on both engines.
    let l = explain_text(
        &local
            .execute("explain select * from orders where amount > 950")
            .unwrap(),
    );
    assert!(
        l.contains("Index Range Scan on orders"),
        "local range plan:\n{l}"
    );
    let d = explain_text(
        &dist
            .execute("explain select * from orders where amount > 950")
            .unwrap(),
    );
    assert!(
        d.contains("Exchange Index Range Scan"),
        "dist range plan:\n{d}"
    );

    // Non-selective range: the cost gate falls back to the sequential scan
    // even though a covering index exists.
    let l = explain_text(
        &local
            .execute("explain select * from orders where amount > 100")
            .unwrap(),
    );
    assert!(
        l.contains("Seq Scan on orders") && !l.contains("Index"),
        "local wide-range plan must stay sequential:\n{l}"
    );
    let d = explain_text(
        &dist
            .execute("explain select * from orders where amount > 100")
            .unwrap(),
    );
    assert!(
        d.contains("Exchange Scan") && !d.contains("Index"),
        "dist wide-range plan must stay sequential:\n{d}"
    );

    // Whatever the access path, results are the local engine's, bit for bit
    // (as multisets — gather order differs).
    let before = dist.counters().index_probes;
    for q in [
        "select * from orders where region = 5",
        "select * from orders where amount > 950",
        "select * from orders where amount > 100",
        "select region, count(*) from orders where region = 2 group by region",
        "select * from orders where region = 3 and amount > 800",
    ] {
        let lr = local.query(q).unwrap_or_else(|e| panic!("local {q}: {e}"));
        let dr = dist
            .execute(q)
            .unwrap_or_else(|e| panic!("dist {q}: {e}"))
            .rows;
        assert_eq!(sorted(lr), sorted(dr), "indexed query diverged: {q}");
    }
    assert!(
        dist.counters().index_probes > before,
        "probed Exchange legs must answer via the DN-local index"
    );
}

/// ISSUE 9: bottom-up join-order search makes the plan a function of the
/// query, not of how the FROM list happens to be written.
#[test]
fn join_order_search_normalizes_written_order() {
    let corpus = DistCorpus::default();
    let (mut local, mut dist) = build_pair(&corpus);
    for stmt in [
        "create table regions (region int, pop int)",
        &format!(
            "insert into regions values {}",
            (0..8)
                .map(|i| format!("({i}, {})", (i + 1) * 1000))
                .collect::<Vec<_>>()
                .join(",")
        ),
        "analyze",
    ] {
        local.execute(stmt).unwrap();
        dist.execute(stmt).unwrap();
    }
    let q1 = "select o.amount, c.tier, r.pop from orders o, custs c, regions r \
              where o.cust = c.cust and o.region = r.region and o.amount > 900";
    let q2 = "select o.amount, c.tier, r.pop from regions r, custs c, orders o \
              where o.cust = c.cust and o.region = r.region and o.amount > 900";

    // Same relations, same predicates => the cost-based search must pick the
    // same join tree regardless of the written order.
    let p1 = explain_text(&local.execute(&format!("explain {q1}")).unwrap());
    let p2 = explain_text(&local.execute(&format!("explain {q2}")).unwrap());
    assert_eq!(p1, p2, "local join order must not follow the FROM list");
    let d1 = explain_text(&dist.execute(&format!("explain {q1}")).unwrap());
    let d2 = explain_text(&dist.execute(&format!("explain {q2}")).unwrap());
    assert_eq!(d1, d2, "dist join order must not follow the FROM list");

    // And both spellings return bit-equal rows on both engines.
    let want = sorted(local.query(q1).unwrap());
    assert_eq!(want, sorted(local.query(q2).unwrap()));
    assert_eq!(want, sorted(dist.execute(q1).unwrap().rows));
    assert_eq!(want, sorted(dist.execute(q2).unwrap().rows));
    assert!(!want.is_empty(), "the join corpus must select something");
}

#[test]
fn empty_shard_scan_contributes_nothing() {
    let mut dist = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(SHARDS))).unwrap();
    dist.execute("create table sparse (k int, v int)").unwrap();
    // One row: three of four shards stay empty; the scatter must still
    // visit them all and gather exactly the one row.
    dist.execute("insert into sparse values (1, 10)").unwrap();
    let before = dist.counters();
    let rows = dist.execute("select * from sparse").unwrap().rows;
    assert_eq!(rows.len(), 1);
    let after = dist.counters();
    assert_eq!(
        after.fragments_run - before.fragments_run,
        SHARDS as u64,
        "empty shards still run their fragments"
    );
    assert_eq!(after.rows_exchanged - before.rows_exchanged, 1);
}

/// The per-statement hash tables key by SQL equality on both engines:
/// `7` and `7.0` fall in one group and join each other, NULL keys form one
/// group and join nothing, and groups come out in first-seen order (every
/// row sits on one shard, so the cluster scans them in insertion order).
#[test]
fn hash_tables_key_by_sql_equality_on_both_engines() {
    let mut local = Database::new();
    let mut dist = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(SHARDS))).unwrap();
    let stmts = [
        "create table g (s int, k float, v int)",
        "create table n (s int, k int)",
        "insert into g values (1, 7.0, 1), (1, null, 2), (1, 3, 4), (1, 7, 8), (1, null, 16), (1, 3.5, 32)",
        "insert into n values (1, 7), (1, 3), (1, null), (1, 7)",
        "analyze",
    ];
    for sql in stmts {
        local.execute(sql).unwrap();
        dist.execute(sql).unwrap();
    }
    let groups = "select k, count(*), sum(v) from g group by k";
    let join = "select g.v, n.k from g, n where g.k = n.k";
    use Datum::{Float, Int, Null};
    // 7.0 and 7 sum 1 + 8 under the first-seen key; the two NULLs 2 + 16.
    let want_groups = [
        [Float(7.0), Int(2), Int(9)],
        [Null, Int(2), Int(18)],
        [Int(3), Int(1), Int(4)],
        [Float(3.5), Int(1), Int(32)],
    ]
    .map(|r| Row::new(r.to_vec()));
    for (name, db) in [
        ("embedded", &mut local as &mut dyn QueryApi),
        ("distributed", &mut dist as &mut dyn QueryApi),
    ] {
        let r = db.execute_opts(groups, Default::default()).unwrap();
        assert_eq!(r.rows, want_groups, "{name} groups");
        let debug: Vec<String> = r
            .rows
            .iter()
            .map(|r| format!("{:?}", r.values()[0]))
            .collect();
        assert_eq!(
            debug,
            ["Float(7.0)", "Null", "Int(3)", "Float(3.5)"],
            "{name}"
        );

        let plan = explain_text(
            &db.execute_opts(&format!("explain {join}"), Default::default())
                .unwrap(),
        );
        assert!(plan.contains("Hash Join"), "{name}: {plan}");
        // Left-major: each `g` row in order, with its `n` matches in order.
        let r = db.execute_opts(join, Default::default()).unwrap();
        let want = [[1, 7], [1, 7], [4, 3], [8, 7], [8, 7]].map(|r| Row::new(r.map(Int).to_vec()));
        assert_eq!(r.rows, want, "{name} join");
    }
}
