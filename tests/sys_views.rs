//! The `sys.*` introspection plane end to end (ISSUE 7 tentpole).
//!
//! Contracts pinned here:
//! * every view's schema **and** fixed-seed content dump is golden-pinned on
//!   both engines (embedded `Database` and distributed `DistDb`), under a
//!   `VirtualClock` so timestamps are part of the pin;
//! * a replicated cluster mid-failover shows non-zero `sys.shards.lag` and a
//!   crash/promote trail in `sys.events` — golden-pinned too;
//! * sys views behave like ordinary relations: filters, projections,
//!   aggregates, and joins against (distributed) user tables all work;
//! * the namespace is read-only and reserved on both engines.
//!
//! Regenerate the golden file after an intentional change with:
//! `BLESS=1 cargo test --test sys_views`.

use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb};
use huawei_dm::common::{Datum, ShardId};
use huawei_dm::learnopt::SharedPlanStore;
use huawei_dm::sql::{Database, QueryResult};
use huawei_dm::telemetry::{
    MetricsRegistry, RecorderConfig, SharedRecorder, Telemetry, VirtualClock,
};
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sys_views.txt");

const VIEWS: &[&str] = &[
    "sys.metrics",
    "sys.statements",
    "sys.shards",
    "sys.txns",
    "sys.events",
    "sys.plan_store",
    "sys.prepared",
    "sys.indexes",
];

fn cell(d: &Datum) -> String {
    match d {
        Datum::Null => "NULL".to_string(),
        Datum::Int(i) => i.to_string(),
        Datum::Float(f) => format!("{f}"),
        Datum::Text(s) => s.clone(),
        other => format!("{other:?}"),
    }
}

/// Render one result as a pipe-separated block: header row, then data rows.
fn dump(title: &str, r: &QueryResult, out: &mut String) {
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&r.columns.join("|"));
    out.push('\n');
    for row in &r.rows {
        let cells: Vec<String> = row.values().iter().map(cell).collect();
        out.push_str(&cells.join("|"));
        out.push('\n');
    }
}

fn recorder() -> SharedRecorder {
    SharedRecorder::new(RecorderConfig {
        capacity: 32,
        slow_threshold_us: 50,
    })
}

/// The embedded engine with every sys source wired: a seeded metrics
/// registry, the flight recorder, and a learning plan store, all on a
/// virtual clock.
fn embedded_scenario() -> (Database, Arc<VirtualClock>) {
    let clock = Arc::new(VirtualClock::new());
    let mut db = Database::new();
    db.set_clock(clock.clone());
    db.attach_recorder(recorder());
    let metrics = MetricsRegistry::new();
    metrics.counter("app.requests", &[("kind", "read")]).add(7);
    metrics.gauge("app.inflight", &[]).set(3);
    let lat = metrics.histogram("app.latency_us", &[]);
    for v in [100u64, 200, 300, 400, 1_000] {
        lat.record(v);
    }
    db.attach_metrics(metrics);
    let store = SharedPlanStore::default();
    db.set_plan_store(store.hints(), store.observer());
    db.attach_sys_plan_store(store.sys_dump());

    clock.set(1_000);
    db.execute("create table orders (cust int, amount int)")
        .unwrap();
    db.execute("create index on orders (amount)").unwrap();
    let vals: Vec<String> = (0..16i64)
        .map(|i| format!("({}, {})", i % 8, (i + 1) * 100))
        .collect();
    clock.set(2_000);
    db.execute(&format!("insert into orders values {}", vals.join(",")))
        .unwrap();
    // No ANALYZE: default estimates guarantee plan-store captures.
    for (i, q) in [
        "select * from orders where cust = 3",
        "select count(*), sum(amount) from orders",
        "select cust, count(*) from orders where amount > 500 group by cust",
    ]
    .iter()
    .enumerate()
    {
        clock.set(10_000 + i as u64 * 1_000);
        db.query(q).unwrap();
    }
    (db, clock)
}

/// The distributed engine: 2 shards, 1 follower each, health monitor on,
/// telemetry + recorder + plan store on one shared virtual clock.
fn dist_scenario() -> (DistDb, Arc<VirtualClock>) {
    let clock = Arc::new(VirtualClock::new());
    let tel = Telemetry::with_clock(clock.clone());
    let mut cfg = ClusterConfig::gtm_lite(2);
    cfg.replicas = 1;
    let mut db = DistDb::new(Cluster::new(cfg)).unwrap();
    db.set_clock(clock.clone());
    db.attach_telemetry(&tel);
    db.attach_recorder(recorder());
    let store = SharedPlanStore::default();
    db.set_plan_store(store.hints(), store.observer());
    db.attach_sys_plan_store(store.sys_dump());

    clock.set(1_000);
    db.execute("create table orders (cust int, amount int)")
        .unwrap();
    db.execute("create index on orders (amount)").unwrap();
    let vals: Vec<String> = (0..16i64)
        .map(|i| format!("({}, {})", i % 8, (i + 1) * 100))
        .collect();
    clock.set(2_000);
    db.execute(&format!("insert into orders values {}", vals.join(",")))
        .unwrap();
    // Catch followers fully up (fires a health tick) before the queries.
    db.cluster_mut().pump_replication(0).unwrap();
    for (i, q) in [
        "select * from orders where cust = 3",
        "select count(*), sum(amount) from orders",
        "select cust, count(*) from orders where amount > 500 group by cust",
    ]
    .iter()
    .enumerate()
    {
        clock.set(10_000 + i as u64 * 1_000);
        db.execute(q).unwrap();
    }
    (db, clock)
}

fn int_at(r: &QueryResult, row: usize, col: usize) -> i64 {
    r.rows[row].values()[col].as_int().expect("int cell")
}

/// One golden transcript covering both engines, all seven views, and the
/// deterministic failover scenario. Compares byte-for-byte against
/// tests/golden/sys_views.txt; run with BLESS=1 to regenerate.
#[test]
fn golden_pinned_schema_and_content_on_both_engines() {
    let mut out = String::new();

    // ---- embedded engine ----
    let (mut db, clock) = embedded_scenario();
    clock.set(50_000);
    for view in VIEWS {
        let r = db.execute(&format!("select * from {view}")).unwrap();
        dump(&format!("embedded: select * from {view}"), &r, &mut out);
    }

    // ---- distributed engine, healthy ----
    let (mut db, clock) = dist_scenario();
    clock.set(50_000);
    for view in VIEWS {
        let r = db.execute(&format!("select * from {view}")).unwrap();
        dump(&format!("dist: select * from {view}"), &r, &mut out);
    }

    // ---- mid-failover: lag accrues, shard 0's primary dies ----
    clock.set(60_000);
    db.execute("insert into orders values (0, 900), (1, 901), (2, 902), (3, 903)")
        .unwrap();
    db.cluster_mut().crash_node(ShardId::new(0));
    clock.set(61_000);
    let mid = db
        .execute("select shard, up, epoch, lag from sys.shards")
        .unwrap();
    dump(
        "dist mid-failover: select shard, up, epoch, lag from sys.shards",
        &mid,
        &mut out,
    );
    assert!(
        (0..mid.rows.len()).any(|i| int_at(&mid, i, 3) > 0),
        "replication lag must be visible mid-failover: {mid:?}"
    );
    assert_eq!(int_at(&mid, 0, 1), 0, "shard 0 must report down");

    // A partial pump while degraded: the health monitor journals the
    // transition without changing anything the replay depends on.
    db.cluster_mut().pump_replication(1).unwrap();
    assert!(db.cluster_mut().try_failover(ShardId::new(0)).unwrap());
    db.cluster_mut().pump_replication(0).unwrap();
    clock.set(62_000);
    let after = db.execute("select * from sys.shards").unwrap();
    dump(
        "dist post-failover: select * from sys.shards",
        &after,
        &mut out,
    );
    assert_eq!(int_at(&after, 0, 2), 1, "promotion bumps shard 0's epoch");
    let events = db
        .execute("select seq, kind, shard, detail from sys.events")
        .unwrap();
    dump(
        "dist post-failover: select seq, kind, shard, detail from sys.events",
        &events,
        &mut out,
    );
    let kinds: Vec<String> = events.rows.iter().map(|r| cell(&r.values()[1])).collect();
    for want in ["crash", "health.degraded", "promote", "health.recovered"] {
        assert!(
            kinds.iter().any(|k| k == want),
            "missing {want} in {kinds:?}"
        );
    }

    if std::env::var("BLESS").is_ok() {
        std::fs::write(GOLDEN, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    assert_eq!(
        want, out,
        "sys.* golden drift — if intentional, regenerate with BLESS=1 cargo test --test sys_views"
    );
}

#[test]
fn sys_views_filter_aggregate_and_join_like_user_tables() {
    let (mut db, clock) = dist_scenario();
    clock.set(90_000);

    // Aggregate over a sys view.
    let r = db
        .execute("select max(lag), count(*) from sys.shards")
        .unwrap()
        .rows;
    assert_eq!(r[0].values()[1].as_int(), Some(2));

    // Filter + projection.
    let r = db
        .execute("select shard from sys.shards where up = 1")
        .unwrap()
        .rows;
    assert_eq!(r.len(), 2);

    // Join a sys view against a distributed user table: the sys leg stays a
    // CN-local scan while orders scatters to the shards.
    let r = db
        .execute(
            "select s.shard, count(*) from sys.shards s, orders o \
             where o.cust = s.shard group by s.shard",
        )
        .unwrap()
        .rows;
    assert_eq!(r.len(), 2, "one group per shard-id-matching cust: {r:?}");

    // The ISSUE's example: top-5 slowest statements from the recorder.
    let r = db
        .execute("select sql, total_us from sys.statements order by total_us desc limit 5")
        .unwrap()
        .rows;
    assert!(!r.is_empty() && r.len() <= 5);

    // Histogram percentile columns on the embedded engine.
    let (mut db, _clock) = embedded_scenario();
    let r = db
        .query("select name, p50_us, p99_us, max_us from sys.metrics where kind = 'histogram'")
        .unwrap();
    assert_eq!(r.len(), 1);
    let (p50, p99, max) = (
        r[0].values()[1].as_int().unwrap(),
        r[0].values()[2].as_int().unwrap(),
        r[0].values()[3].as_int().unwrap(),
    );
    assert!(
        p50 > 0 && p50 <= p99 && p99 <= max + 1,
        "p50={p50} p99={p99} max={max}"
    );
}

#[test]
fn sys_namespace_is_read_only_and_reserved_on_both_engines() {
    let (mut emb, _c) = embedded_scenario();
    let (mut dist, _c) = dist_scenario();

    for dml in [
        "insert into sys.shards values (9, 1, 0, 0, 0, 0, 0)",
        "update sys.metrics set value = 0",
        "delete from sys.events",
    ] {
        let e = emb.execute(dml).unwrap_err().to_string();
        assert!(e.contains("read-only system view"), "embedded {dml}: {e}");
        let e = dist.execute(dml).unwrap_err().to_string();
        assert!(e.contains("read-only system view"), "dist {dml}: {e}");
    }
    for ddl in [
        "create table sys.mine (a int)",
        "create table SYS.other (a int)",
    ] {
        let e = emb.execute(ddl).unwrap_err().to_string();
        assert!(
            e.contains("reserved for system views"),
            "embedded {ddl}: {e}"
        );
        let e = dist.execute(ddl).unwrap_err().to_string();
        assert!(e.contains("reserved for system views"), "dist {ddl}: {e}");
    }
    // An unserved sys.* name stays an unknown relation, not a silent empty.
    assert!(emb.execute("select * from sys.nope").is_err());
    assert!(dist.execute("select * from sys.nope").is_err());
}

/// Same scenario, two runs: every view's full dump must render identically
/// (the content side of determinism, independent of the pinned file).
#[test]
fn sys_view_dumps_are_deterministic_across_same_seed_runs() {
    let render = || {
        let (mut db, clock) = dist_scenario();
        clock.set(50_000);
        let mut out = String::new();
        for view in VIEWS {
            let r = db.execute(&format!("select * from {view}")).unwrap();
            dump(view, &r, &mut out);
        }
        out
    };
    assert_eq!(render(), render());
}
