//! Read-only transactions leave no trace.
//!
//! A transaction, or a 2PC leg, that wrote nothing is forgotten rather than
//! committed: no clog entry, no LCO entry, no xidMap pair and no replication
//! log record. The contracts pinned here:
//! * on a replicated `DistDb`, point reads and scatter SELECTs leave every
//!   node's LCO, clog and xidMap and every shard log exactly as they were,
//!   while the GTM interaction counts per statement stay 0 and 3;
//! * a multi-shard transaction that writes one shard and reads another
//!   commits visibly and logs only the writing leg;
//! * a tagged UPDATE that matched no row is still a write: it commits, its
//!   dedup tag is published and ships in the shard log;
//! * a recovered GTM never reissues the gxid of a read-only scatter, even
//!   though no data node still maps it.

use huawei_dm::cluster::{make_key, Cluster, ClusterConfig, DistDb, TxnOptions};
use huawei_dm::common::{Datum, ShardId};
use huawei_dm::sql::{ExecOptions, QueryApi};

const SHARDS: usize = 4;

/// Per node the LCO append count and the clog and xidMap lengths, plus
/// the shard log heads.
fn traces(c: &Cluster) -> (Vec<(u64, usize, usize)>, Vec<u64>) {
    let per_node = (0..SHARDS)
        .map(|s| {
            let m = c.node(ShardId::new(s as u64)).mgr();
            (m.lco_appends(), m.clog().len(), m.xid_map().len())
        })
        .collect();
    (per_node, c.log_heads())
}

fn loaded_db() -> DistDb {
    let mut cfg = ClusterConfig::gtm_lite(SHARDS);
    cfg.replicas = 1;
    let mut db = DistDb::new(Cluster::new(cfg)).unwrap();
    db.execute("create table acct (id int, bal int)").unwrap();
    db.execute("create index on acct (bal)").unwrap();
    let vals: Vec<String> = (0..200).map(|i| format!("({i}, {})", i * 10)).collect();
    db.execute(&format!("insert into acct values {}", vals.join(",")))
        .unwrap();
    db.execute("analyze").unwrap();
    db.cluster_mut().pump_replication(0).unwrap();
    db
}

#[test]
fn point_reads_and_scatter_selects_leave_no_trace() {
    let mut db = loaded_db();
    let before = traces(db.cluster());
    let gtm_before = db.cluster().counters().gtm_interactions;
    let point = db
        .prepare_handle("select bal from acct where id = ?")
        .unwrap();
    for i in 0..100i64 {
        let rows = if i % 4 == 0 {
            db.execute(&format!("select bal from acct where id = {i}"))
                .unwrap()
        } else {
            db.execute_prepared(&point, &[Datum::Int(i)]).unwrap()
        };
        assert_eq!(rows.rows.len(), 1);
    }
    assert_eq!(
        db.cluster().counters().gtm_interactions,
        gtm_before,
        "point reads never reach the GTM"
    );
    for i in 0..100 {
        let sql = match i % 3 {
            0 => "select count(*), sum(bal) from acct".to_string(),
            1 => format!(
                "select id from acct where bal >= {} and bal < {}",
                i * 10,
                i * 10 + 50
            ),
            _ => "select bal, count(*) from acct group by bal".to_string(),
        };
        db.execute(&sql).unwrap();
    }
    assert_eq!(
        db.cluster().counters().gtm_interactions - gtm_before,
        300,
        "begin + snapshot + commit per scatter statement"
    );
    db.cluster_mut().pump_replication(0).unwrap();
    assert_eq!(traces(db.cluster()), before);
}

#[test]
fn a_writing_leg_beside_a_reading_leg_commits_and_logs_alone() {
    let mut db = loaded_db();
    let c = db.cluster_mut();
    // Two kv keys on different shards.
    let keys: Vec<i64> = (0..64).map(|p| make_key(p, 1)).collect();
    let w = keys[0];
    let r = *keys
        .iter()
        .find(|&&k| c.shard_map().shard_of_key(k) != c.shard_map().shard_of_key(w))
        .unwrap();
    let (sw, sr) = (c.shard_map().shard_of_key(w), c.shard_map().shard_of_key(r));
    let (nodes, heads) = traces(c);

    let mut t = c.begin(TxnOptions::multi()).unwrap();
    c.put(&mut t, w, 7).unwrap();
    assert_eq!(c.get(&mut t, r).unwrap(), None);
    c.commit(t).unwrap();

    let (after_nodes, after_heads) = traces(c);
    let (wi, ri) = (sw.raw() as usize, sr.raw() as usize);
    assert_eq!(after_nodes[ri], nodes[ri], "the reading leg left no trace");
    assert_eq!(
        after_heads[ri], heads[ri],
        "no Prepare or Resolve for the reader"
    );
    let (lco, clog, map) = nodes[wi];
    assert_eq!(after_nodes[wi], (lco + 1, clog + 1, map + 1));
    assert_eq!(
        after_heads[wi],
        heads[wi] + 2,
        "Prepare + Resolve for the writer"
    );

    let mut t = c.begin(TxnOptions::multi()).unwrap();
    assert_eq!(c.get(&mut t, w).unwrap(), Some(7), "the commit is visible");
    c.commit(t).unwrap();
}

#[test]
fn a_tagged_update_that_matched_nothing_still_commits() {
    let mut db = loaded_db();
    let applied = |db: &DistDb, sid: u64| {
        (0..SHARDS)
            .filter(|&s| db.cluster().node(ShardId::new(s as u64)).stmt_applied(sid) == Some(0))
            .count()
    };
    let log_len = |db: &DistDb| db.cluster().log_heads().iter().sum::<u64>();
    // Single shard: one Commit record carrying the tag.
    let before = log_len(&db);
    let r = db
        .execute_opts(
            "update acct set bal = 5 where id = 999",
            ExecOptions::idempotent(77),
        )
        .unwrap();
    assert_eq!(r.affected, 0);
    assert_eq!(applied(&db, 77), 1, "the dedup tag is published");
    assert_eq!(log_len(&db), before + 1, "Commit{{stmt}} ships");
    // Every shard: each leg prepares with the tag and resolves.
    let before = log_len(&db);
    db.execute_opts(
        "update acct set bal = 5 where bal < 0",
        ExecOptions::idempotent(78),
    )
    .unwrap();
    assert_eq!(applied(&db, 78), SHARDS);
    assert_eq!(
        log_len(&db),
        before + 2 * SHARDS as u64,
        "Prepare + Resolve per leg"
    );
    // A duplicate submission is answered from the tag, not re-run.
    let hits = db.counters().dedup_hits;
    db.execute_opts(
        "update acct set bal = 5 where bal < 0",
        ExecOptions::idempotent(78),
    )
    .unwrap();
    assert_eq!(db.counters().dedup_hits, hits + 1);
}

#[test]
fn gtm_recovery_never_reissues_a_read_only_gxid() {
    let mut db = loaded_db();
    db.execute("update acct set bal = 1 where id < 8").unwrap();
    let c = db.cluster_mut();
    // The last multi-shard transaction reads every shard and writes none.
    let mut t = c.begin(TxnOptions::multi()).unwrap();
    let last = t.gxid().unwrap();
    for p in 0..16 {
        c.get(&mut t, make_key(p, 1)).unwrap();
    }
    assert_eq!(t.leg_count(), SHARDS);
    c.commit(t).unwrap();
    for s in 0..SHARDS {
        let m = c.node(ShardId::new(s as u64)).mgr();
        assert_eq!(m.local_of(last), None, "no DN maps the read-only gxid");
    }

    c.crash_gtm();
    c.restart_gtm();
    let t = c.begin(TxnOptions::multi()).unwrap();
    let next = t.gxid().unwrap();
    assert!(
        next > last,
        "recovered GTM reissued {next} (last was {last})"
    );
    c.abort(t).unwrap();
}
