//! DN replication + automatic leg failover under chaos.
//!
//! The contracts pinned here:
//! * a single-DN crash mid-sweep is invisible to a retrying client — every
//!   corpus query returns the same multiset as a fault-free twin;
//! * when retries exhaust, the client-visible error names the shard and the
//!   attempt count;
//! * the 20-seed chaos-dist sweep (≥1 replica per shard) sees zero
//!   client-visible failures, zero lost or double-applied rows, and replays
//!   byte-identically under the same seed;
//! * with replication disabled the cluster degrades to the legacy fail-fast
//!   `Unavailable` behaviour, error text included (regression pin).

use huawei_dm::cluster::{
    run_chaos_dist, ChaosDistConfig, Cluster, ClusterConfig, DistDb, FaultOp, FaultScript,
    RetryPolicy,
};
use huawei_dm::common::{Row, ShardId, SimDuration, SplitMix64};
use huawei_dm::sql::{ExecOptions, QueryApi};
use huawei_dm::workloads::DistCorpus;
use std::cell::RefCell;
use std::rc::Rc;

const SHARDS: usize = 4;

fn replicated_db(replicas: usize) -> DistDb {
    let mut cfg = ClusterConfig::gtm_lite(SHARDS);
    cfg.replicas = replicas;
    DistDb::new(Cluster::new(cfg)).unwrap()
}

fn load_corpus(db: &mut DistDb, corpus: &DistCorpus) {
    for ddl in DistCorpus::ddl() {
        db.execute(ddl).unwrap();
    }
    for stmt in corpus.load_stmts() {
        db.execute(&stmt).unwrap();
    }
    db.execute("analyze").unwrap();
    db.cluster_mut().pump_replication(0).unwrap();
}

/// Multiset comparison: sort by debug rendering (Datum has no total Ord).
fn sorted(rows: Vec<Row>) -> Vec<String> {
    let mut out: Vec<String> = rows.into_iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

#[test]
fn single_dn_crash_mid_sweep_is_invisible_to_a_retrying_client() {
    let corpus = DistCorpus::default();
    let mut clean = replicated_db(1);
    let mut faulted = replicated_db(1);
    load_corpus(&mut clean, &corpus);
    load_corpus(&mut faulted, &corpus);
    faulted.set_retry_policy(Some(RetryPolicy::chaos(0x0FF_5EED)));
    // Crash shard 1's primary a few fragment dispatches into the sweep and
    // bring the machine back much later — several scattered queries must
    // cross the dead shard and fail over to its follower mid-statement.
    let script = Rc::new(RefCell::new(FaultScript::default()));
    script
        .borrow_mut()
        .schedule
        .insert(3, vec![FaultOp::Crash(1)]);
    script
        .borrow_mut()
        .schedule
        .insert(60, vec![FaultOp::Restart(1)]);
    faulted.set_fault_script(Some(script.clone()));
    for (i, q) in corpus.queries().iter().enumerate() {
        let want = sorted(clean.execute(q).unwrap().rows);
        let got = faulted
            .execute_opts(q, ExecOptions::idempotent(i as u64 + 1))
            .unwrap_or_else(|e| panic!("faulted run failed on {q}: {e}"));
        assert_eq!(want, sorted(got.rows), "results diverged for: {q}");
    }
    assert!(
        faulted.cluster().counters().promotions >= 1,
        "the crash window must have driven a follower promotion"
    );
    assert_eq!(
        faulted.cluster().epoch_of(ShardId::new(1)),
        1,
        "promotion bumps the shard's fencing epoch"
    );
    // The script does not swap the executor: under it a shard-key point
    // SELECT is still one DN-local index probe, and every fragment — one
    // here, one per shard for a scatter — advances the script one tick.
    for (q, fragments) in [
        ("select * from orders where cust = 7", 1),
        ("select * from orders", SHARDS as u64),
    ] {
        let (tick, probes) = (script.borrow().tick, faulted.counters().index_probes);
        let want = sorted(clean.execute(q).unwrap().rows);
        assert_eq!(want, sorted(faulted.execute(q).unwrap().rows));
        assert_eq!(script.borrow().tick, tick + fragments, "one tick per fragment: {q}");
        assert_eq!(
            faulted.counters().index_probes,
            probes + u64::from(fragments == 1),
            "only the point SELECT probes: {q}"
        );
    }
}

#[test]
fn retry_exhaustion_names_the_shard_and_attempt_count() {
    // No replicas: a crashed shard cannot fail over, so retries must
    // exhaust and surface a diagnosable error.
    let mut db = replicated_db(0);
    db.execute("create table t (k int, v int)").unwrap();
    db.execute("insert into t values (0,0),(1,1),(2,2),(3,3),(4,4),(5,5),(6,6),(7,7)")
        .unwrap();
    db.set_retry_policy(Some(RetryPolicy::new(
        SimDuration::from_micros(10),
        SimDuration::from_micros(100),
        3,
        1,
    )));
    db.cluster_mut().crash_node(ShardId::new(0));
    let err = db
        .execute_opts("select count(*) from t", ExecOptions::idempotent(9))
        .unwrap_err()
        .to_string();
    assert!(err.contains("shard:0 is down"), "no shard in: {err}");
    assert!(err.contains("(stmt 9)"), "no statement id in: {err}");
    assert!(
        err.contains("gave up after 3 attempts"),
        "no attempt count in: {err}"
    );
}

#[test]
fn twenty_seed_chaos_dist_sweep_loses_nothing_and_replays_bit_identical() {
    for seed in 0..20u64 {
        let mut cfg = ChaosDistConfig::standard(0xBAD_5EED + seed);
        // Trimmed sizes keep the 20×2 runs debug-friendly. The health
        // monitor (always on with replicas) and the workload-history engine
        // ride along on every seed: both must observe without perturbing the
        // replay, and the captured windows themselves must replay
        // bit-identically (they are part of the report's `PartialEq`).
        cfg.orders = 160;
        cfg.statements = 36;
        cfg.history = true;
        let r1 = run_chaos_dist(&cfg).unwrap();
        assert_eq!(
            r1.mismatches, 0,
            "seed {seed}: client-visible divergence under chaos: {r1:?}"
        );
        assert_eq!(
            r1.audit_diffs, 0,
            "seed {seed}: lost or double-applied rows: {r1:?}"
        );
        assert!(r1.crashes > 0, "seed {seed}: no crashes scheduled");
        assert!(
            !r1.history_windows.is_empty(),
            "seed {seed}: history-on sweep captured no windows"
        );
        let r2 = run_chaos_dist(&cfg).unwrap();
        assert_eq!(r1, r2, "seed {seed}: same-seed replay diverged");
    }
}

#[test]
fn replication_disabled_degrades_to_legacy_unavailable() {
    // No replicas, no retry policy: exactly the pre-replication behaviour,
    // error text included.
    let mut db = replicated_db(0);
    db.execute("create table t (k int, v int)").unwrap();
    db.execute("insert into t values (0,0),(1,1),(2,2),(3,3),(4,4),(5,5),(6,6),(7,7)")
        .unwrap();
    db.cluster_mut().crash_node(ShardId::new(2));
    let err = db.execute("select count(*) from t").unwrap_err();
    assert_eq!(err.to_string(), "unavailable: shard:2 is down");
    assert_eq!(
        db.cluster().epoch_of(ShardId::new(2)),
        0,
        "no replication, no promotion, no epoch movement"
    );
    // try_failover is an explicit no-op without followers.
    assert!(!db.cluster_mut().try_failover(ShardId::new(2)).unwrap());
}

/// ISSUE 9: CREATE INDEX rides the replication log, so a promoted follower
/// rebuilds the same secondary index and keeps answering probed Exchange
/// fragments — the access path survives failover, not just the rows.
#[test]
fn secondary_index_probe_path_survives_failover() {
    let corpus = DistCorpus::default();
    let mut db = replicated_db(1);
    load_corpus(&mut db, &corpus);
    db.execute("create index on orders (region)").unwrap();
    db.execute("analyze").unwrap();
    let q = "select * from orders where region = 5";
    let want = sorted(db.execute(q).unwrap().rows);
    assert!(!want.is_empty());

    // Ship the index DDL (appended after the loads) to the followers, then
    // lose every primary in turn.
    db.cluster_mut().pump_replication(0).unwrap();
    for s in 0..SHARDS {
        db.cluster_mut().crash_node(ShardId::new(s as u64));
        assert!(db.cluster_mut().try_failover(ShardId::new(s as u64)).unwrap());
    }

    let before = db.counters().index_probes;
    let got = db.execute(q).unwrap();
    assert_eq!(sorted(got.rows), want, "promoted replicas serve the same rows");
    assert!(
        db.counters().index_probes > before,
        "the probe path must survive promotion (not fall back to full scans)"
    );

    // The planner still advertises the probed access path post-failover.
    let plan = db.execute("explain select * from orders where region = 5").unwrap();
    let text: Vec<String> = plan.rows.iter().map(|r| format!("{:?}", r.values()[0])).collect();
    assert!(
        text.iter().any(|l| l.contains("Exchange Index Scan")),
        "explain must keep the probed Exchange: {text:?}"
    );
}

/// Followers locate each replicated UPDATE and DELETE by its old row. With
/// duplicate rows in the table, a seeded stream of keyed DML must still
/// leave every promoted replica holding exactly the primary's multiset.
#[test]
fn keyed_dml_over_duplicate_rows_survives_promoting_every_shard() {
    let mut db = replicated_db(1);
    db.execute("create table dup (k int, v int)").unwrap();
    let load: Vec<String> = (0..64)
        .flat_map(|k| std::iter::repeat_n(format!("({k},{})", k % 5), 3))
        .collect();
    db.execute(&format!("insert into dup values {}", load.join(",")))
        .unwrap();
    db.cluster_mut().pump_replication(0).unwrap();

    let mut rng = SplitMix64::new(31);
    for i in 0..240 {
        let k = rng.next_below(72);
        let v = rng.next_below(5);
        let stmt = match rng.next_below(5) {
            0 => format!("delete from dup where k = {k}"),
            1 => format!("delete from dup where k = {k} and v = {v}"),
            2 => format!("update dup set v = v + 1 where k = {k}"),
            3 => format!("update dup set v = {v} where k = {k} and v > {v}"),
            _ => format!("insert into dup values ({k},{v}),({k},{v})"),
        };
        db.execute(&stmt).unwrap();
        if i % 16 == 15 {
            // Partial shipping: followers trail the primary mid-stream.
            db.cluster_mut().pump_replication(4).unwrap();
        }
    }
    db.cluster_mut().pump_replication(0).unwrap();
    let want = sorted(db.execute("select * from dup").unwrap().rows);
    assert!(want.len() > 64, "the stream keeps plenty of duplicates");

    for s in 0..SHARDS {
        db.cluster_mut().crash_node(ShardId::new(s as u64));
        assert!(db.cluster_mut().try_failover(ShardId::new(s as u64)).unwrap());
    }
    let got = sorted(db.execute("select * from dup").unwrap().rows);
    assert_eq!(got, want, "promoted replicas hold the primary's multiset");
}
