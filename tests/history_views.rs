//! The workload-history repository end to end (ISSUE 10 tentpole).
//!
//! Contracts pinned here:
//! * the four `sys.history_*` views plus `sys.config` are golden-pinned —
//!   schema **and** fixed-seed content — on both engines (embedded
//!   `Database` on clock-driven windows, distributed `DistDb` on the
//!   statement-count stride), under a `VirtualClock` so window timestamps
//!   are part of the pin;
//! * a mid-failover window shows the 2PC-per-statement rate spiking against
//!   its trailing baseline, and the capture journals a `history.regression`
//!   event into `sys.events` — golden-pinned too;
//! * the per-statement history hook both engines share counts every
//!   statement into exactly one window and cuts windows after the same
//!   statements on both engines, on both cadences;
//! * `SharedHistory::to_jsonl` is byte-identical across same-seed runs;
//! * history is observation-only: the telemetry JSONL export of a run with
//!   history attached is byte-identical to the same run without it.
//!
//! Regenerate the golden file after an intentional change with:
//! `BLESS=1 cargo test --test history_views`.

use huawei_dm::cluster::{Cluster, ClusterConfig, DistDb};
use huawei_dm::common::{Datum, ShardId};
use huawei_dm::sql::{Database, ExecOptions, QueryApi, QueryResult};
use huawei_dm::telemetry::{
    HistoryConfig, MetricsRegistry, RecorderConfig, SharedHistory, SharedRecorder, Telemetry,
    VirtualClock,
};
use std::sync::Arc;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/history_views.txt"
);

const VIEWS: &[&str] = &[
    "sys.config",
    "sys.history_windows",
    "sys.history_metrics",
    "sys.history_statements",
    "sys.history_coaccess",
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
        capacity: 64,
        slow_threshold_us: 50,
    })
}

/// Embedded engine on **clock-driven** windows: the boundary-crossing
/// statement lands in the window it closes, the remainder is flushed with
/// an explicit capture.
fn embedded_scenario() -> (Database, Arc<VirtualClock>, SharedHistory) {
    let clock = Arc::new(VirtualClock::new());
    let mut db = Database::new();
    db.set_clock(clock.clone());
    db.attach_recorder(recorder());
    let metrics = MetricsRegistry::new();
    metrics.counter("app.requests", &[("kind", "read")]).add(7);
    db.attach_metrics(metrics);
    let history = SharedHistory::new(HistoryConfig {
        window_us: 10_000,
        every_stmts: 0,
        capacity: 8,
        top_k: 4,
        baseline: 2,
    });
    db.attach_history(history.clone());

    clock.set(1_000);
    db.execute("create table orders (cust int, amount int)")
        .unwrap();
    let vals: Vec<String> = (0..16i64)
        .map(|i| format!("({}, {})", i % 8, (i + 1) * 100))
        .collect();
    db.execute(&format!("insert into orders values {}", vals.join(",")))
        .unwrap();
    clock.set(5_000);
    db.execute("select * from orders where cust = 3").unwrap();
    db.execute("select * from orders where cust = 3").unwrap();
    // Crosses the 10 ms boundary: window 0 closes with this statement in it.
    clock.set(12_000);
    db.execute("select count(*), sum(amount) from orders")
        .unwrap();
    // A short second window, flushed explicitly.
    clock.set(15_000);
    db.execute("select cust, count(*) from orders where amount > 500 group by cust")
        .unwrap();
    db.capture_history_now();
    (db, clock, history)
}

/// Distributed engine on the **statement-count** stride (4 per window):
/// two quiet point-select windows baseline the detector, then a window of
/// multi-shard writes spikes the 2PC rate, and the final explicit capture
/// lands mid-failover with shard 0 down and lag accrued.
fn dist_scenario() -> (DistDb, Arc<VirtualClock>, SharedHistory) {
    let clock = Arc::new(VirtualClock::new());
    let tel = Telemetry::with_clock(clock.clone());
    let mut cfg = ClusterConfig::gtm_lite(2);
    cfg.replicas = 1;
    let mut db = DistDb::new(Cluster::new(cfg)).unwrap();
    db.set_clock(clock.clone());
    db.attach_telemetry(&tel);
    db.attach_recorder(recorder());
    let history = SharedHistory::new(HistoryConfig {
        window_us: 0,
        every_stmts: 4,
        capacity: 8,
        top_k: 8,
        baseline: 2,
    });
    db.attach_history(history.clone());

    // Window 0: DDL + the (multi-shard) bulk load + two point selects.
    clock.set(1_000);
    db.execute("create table orders (cust int, amount int)")
        .unwrap();
    let vals: Vec<String> = (0..16i64)
        .map(|i| format!("({}, {})", i % 8, (i + 1) * 100))
        .collect();
    db.execute(&format!("insert into orders values {}", vals.join(",")))
        .unwrap();
    db.cluster_mut().pump_replication(0).unwrap();
    clock.set(2_000);
    db.execute("select * from orders where cust = 3").unwrap();
    db.execute("select * from orders where cust = 5").unwrap();
    // Window 1: four single-shard point selects — the quiet baseline
    // (pruned to one shard, zero 2PC legs).
    clock.set(3_000);
    for k in [1i64, 2, 4, 6] {
        db.execute(&format!("select * from orders where cust = {k}"))
            .unwrap();
    }
    // Window 2: four scattered aggregates — 2 2PC legs per statement
    // against a zero-leg baseline. The capture after the 4th journals the
    // twopc_rate history.regression.
    clock.set(4_000);
    for _ in 0..2 {
        db.execute("select count(*), sum(amount) from orders")
            .unwrap();
        db.execute("select cust, count(*) from orders where amount > 500 group by cust")
            .unwrap();
    }
    // Mid-failover window: one 16-row write left unpumped puts every
    // shard's lag at the health threshold, then shard 0's primary dies;
    // the explicit capture freezes that state into window 3 and journals
    // per-shard replica_lag regressions.
    clock.set(5_000);
    let more: Vec<String> = (0..16i64)
        .map(|i| format!("({}, {})", i % 8, 900 + i))
        .collect();
    db.execute(&format!("insert into orders values {}", more.join(",")))
        .unwrap();
    db.cluster_mut().crash_node(ShardId::new(0));
    clock.set(6_000);
    db.capture_history_now();
    (db, clock, history)
}

/// One golden transcript covering both engines, all four history views,
/// `sys.config`, and the mid-failover regression trail. Compares
/// byte-for-byte against tests/golden/history_views.txt; run with BLESS=1
/// to regenerate.
#[test]
fn golden_pinned_history_views_on_both_engines() {
    let mut out = String::new();

    // ---- embedded engine, clock-driven windows ----
    let (mut db, clock, _h) = embedded_scenario();
    clock.set(50_000);
    for view in VIEWS {
        let r = db.execute(&format!("select * from {view}")).unwrap();
        dump(&format!("embedded: select * from {view}"), &r, &mut out);
    }

    // ---- distributed engine, statement-stride windows ----
    let (mut db, clock, _h) = dist_scenario();
    clock.set(50_000);
    for view in VIEWS {
        let r = db.execute(&format!("select * from {view}")).unwrap();
        dump(&format!("dist: select * from {view}"), &r, &mut out);
    }

    // The 2PC spike must be visible in the windows view: window 2 carries
    // the multi-shard writes' legs against a quiet window-1 baseline.
    let w = db
        .execute("select window, stmts, twopc_legs from sys.history_windows")
        .unwrap();
    let legs_of = |win: i64| {
        w.rows
            .iter()
            .find(|r| r.values()[0].as_int() == Some(win))
            .map(|r| r.values()[2].as_int().unwrap())
            .unwrap()
    };
    assert_eq!(legs_of(1), 0, "baseline window must be 2PC-quiet: {w:?}");
    assert!(legs_of(2) >= 8, "write window must spike 2PC legs: {w:?}");

    // ... and the capture must have journaled it for the driver.
    let ev = db
        .execute("select kind, shard, detail from sys.events where kind = 'history.regression'")
        .unwrap();
    dump(
        "dist: select kind, shard, detail from sys.events where kind = 'history.regression'",
        &ev,
        &mut out,
    );
    assert!(
        !ev.rows.is_empty(),
        "the 2PC spike must journal a history.regression event"
    );
    assert!(
        ev.rows
            .iter()
            .any(|r| cell(&r.values()[2]).contains("twopc_rate")),
        "regression detail must name the detector: {ev:?}"
    );

    // The mid-failover window froze shard 0 down with lag accrued.
    let shards = db
        .execute("select up, lag from sys.shards where shard = 0")
        .unwrap();
    assert_eq!(
        shards.rows[0].values()[0].as_int(),
        Some(0),
        "shard 0 must be down"
    );
    assert!(
        shards.rows[0].values()[1].as_int().unwrap() > 0,
        "lag must be visible"
    );

    if std::env::var("BLESS").is_ok() {
        std::fs::write(GOLDEN, &out).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).unwrap_or_default();
    assert_eq!(
        want, out,
        "sys.history_* golden drift — if intentional, regenerate with BLESS=1 cargo test --test history_views"
    );
}

/// Same seed, two runs: the hand-rendered JSONL export must be
/// byte-identical — the serialization side of replay determinism.
#[test]
fn history_jsonl_is_byte_identical_across_same_seed_runs() {
    let render = || {
        let (_db, _clock, history) = dist_scenario();
        history.to_jsonl()
    };
    let (a, b) = (render(), render());
    assert!(!a.is_empty(), "scenario must capture at least one window");
    assert!(
        a.lines().all(|l| l.starts_with("{\"type\":\"window\"")),
        "{a}"
    );
    assert_eq!(a, b, "same-seed history JSONL diverged");
}

/// Perturbation pin: attaching history changes nothing the telemetry plane
/// exports — the metrics/span JSONL is byte-identical with history on or
/// off (windows observe; they never feed back).
#[test]
fn telemetry_export_is_byte_identical_with_history_on_or_off() {
    let run = |with_history: bool| {
        let clock = Arc::new(VirtualClock::new());
        let tel = Telemetry::with_clock(clock.clone());
        let mut cfg = ClusterConfig::gtm_lite(2);
        cfg.replicas = 1;
        let mut db = DistDb::new(Cluster::new(cfg)).unwrap();
        db.set_clock(clock.clone());
        db.attach_telemetry(&tel);
        if with_history {
            db.attach_history(SharedHistory::new(HistoryConfig {
                every_stmts: 2,
                ..HistoryConfig::default()
            }));
        }
        clock.set(1_000);
        db.execute("create table t (k int, v int)").unwrap();
        db.execute("insert into t values (0,0),(1,1),(2,2),(3,3)")
            .unwrap();
        clock.set(2_000);
        db.execute("select * from t where k = 1").unwrap();
        db.execute("select count(*) from t").unwrap();
        db.capture_history_now();
        tel.export_jsonl()
    };
    assert_eq!(
        run(true),
        run(false),
        "history capture leaked into telemetry"
    );
}

/// One mixed statement stream: DDL, a bulk load, point and scatter reads,
/// and key DML.
fn cadence_stream() -> Vec<String> {
    let vals: Vec<String> = (0..16i64)
        .map(|i| format!("({}, {})", i % 8, (i + 1) * 100))
        .collect();
    let mut stream = vec![
        "create table orders (cust int, amount int)".to_string(),
        format!("insert into orders values {}", vals.join(",")),
    ];
    stream.extend((0..8).map(|k| format!("select * from orders where cust = {k}")));
    stream.extend([
        "select count(*), sum(amount) from orders".to_string(),
        "update orders set amount = 1 where cust = 2".to_string(),
        "select cust, count(*) from orders group by cust".to_string(),
        "delete from orders where cust = 3".to_string(),
    ]);
    stream
}

/// Run [`cadence_stream`] with statement `i` at virtual time 1 ms + 2.5 ms·i,
/// then flush the open window. Returns the retained window count after each
/// statement, and the sum of `sys.history_windows.stmts`.
fn cadence_trace<E: QueryApi>(
    db: &mut E,
    clock: &VirtualClock,
    history: &SharedHistory,
    flush: fn(&mut E),
) -> (Vec<usize>, i64) {
    let mut cuts = Vec::new();
    for (i, sql) in cadence_stream().iter().enumerate() {
        clock.set(1_000 + 2_500 * i as u64);
        db.execute_opts(sql, ExecOptions::default()).unwrap();
        cuts.push(history.len());
    }
    flush(db);
    let w = db
        .execute_opts(
            "select stmts from sys.history_windows",
            ExecOptions::default(),
        )
        .unwrap();
    let stmts = w.rows.iter().map(|r| r.values()[0].as_int().unwrap()).sum();
    (cuts, stmts)
}

/// The history hook on all four engine × cadence pairs: clock-driven
/// (`window_us`) and statement-stride (`every_stmts`) windows, each on the
/// embedded and the distributed engine.
#[test]
fn history_hook_cuts_identically_on_both_engines_and_cadences() {
    let n = cadence_stream().len() as i64;
    for (cadence, window_us, every_stmts) in [("window_us", 10_000, 0), ("every_stmts", 0, 3)] {
        let cfg = HistoryConfig {
            window_us,
            every_stmts,
            capacity: 64,
            ..HistoryConfig::default()
        };

        let clock = Arc::new(VirtualClock::new());
        let history = SharedHistory::new(cfg);
        let mut db = Database::new();
        db.set_clock(clock.clone());
        db.attach_history(history.clone());
        let embedded = cadence_trace(&mut db, &clock, &history, Database::capture_history_now);

        let clock = Arc::new(VirtualClock::new());
        let history = SharedHistory::new(cfg);
        let mut db = DistDb::new(Cluster::new(ClusterConfig::gtm_lite(2))).unwrap();
        db.set_clock(clock.clone());
        db.attach_history(history.clone());
        let dist = cadence_trace(&mut db, &clock, &history, DistDb::capture_history_now);

        assert_eq!(
            embedded.1, n,
            "{cadence}: embedded windows must hold every statement"
        );
        assert_eq!(
            dist.1, n,
            "{cadence}: dist windows must hold every statement"
        );
        if every_stmts > 0 {
            let want: Vec<usize> = (1..=n as usize).map(|i| i / every_stmts as usize).collect();
            assert_eq!(
                embedded.0, want,
                "{cadence}: one window per {every_stmts} statements"
            );
        }
        assert!(
            embedded.0.last() > Some(&2),
            "{cadence}: the stream must span several windows: {embedded:?}"
        );
        assert_eq!(
            embedded.0, dist.0,
            "{cadence}: both engines must cut windows after the same statements"
        );
    }
}
