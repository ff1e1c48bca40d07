//! Seeded table contents and the small helpers every workload shares.
//!
//! A row of `events(id, dev, ts, val)` is a pure function of `(seed, id)`, so
//! the shadow model needs no copy of the table to know what a point read
//! must return.

use hdm_cluster::{Cluster, ClusterConfig, DistDb};
use hdm_common::{Datum, Row};
use hdm_sql::prepared::QueryApi;
use hdm_sql::{Database, QueryResult};

/// Data nodes in every workload's cluster.
pub const SHARDS: usize = 4;
/// Distinct `dev` values; `devs` holds one row per value.
pub const DEVS: i64 = 2_000;
/// `ts` is uniform in `[0, TS_SPACE)`.
pub const TS_SPACE: i64 = 1_000_000;
/// `val` is uniform in `[0, VAL_SPACE)`.
pub const VAL_SPACE: i64 = 1_000;
/// Rows per bulk-load INSERT statement.
const LOAD_BATCH: usize = 500;

/// SplitMix64's finalizer: a stateless hash of `(seed, id, column)`.
fn mix(seed: u64, id: i64, col: u64) -> u64 {
    let mut z = seed
        .wrapping_add((id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(col.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `(dev, ts, val)` of the events row `id` as loaded at set-up.
pub fn event(seed: u64, id: i64) -> [i64; 3] {
    [
        (mix(seed, id, 1) % DEVS as u64) as i64,
        (mix(seed, id, 2) % TS_SPACE as u64) as i64,
        (mix(seed, id, 3) % VAL_SPACE as u64) as i64,
    ]
}

/// `vendor` of the devs row `dev`.
pub fn vendor(dev: i64) -> i64 {
    dev % 50
}

/// The deployment every workload runs on: 4-shard GTM-lite with one
/// log-shipped follower per shard.
pub fn cluster_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::gtm_lite(SHARDS);
    cfg.replicas = 1;
    cfg
}

pub fn new_dist() -> DistDb {
    DistDb::new(Cluster::new(cluster_config())).expect("gtm-lite cluster")
}

/// The statements that create and fill `events` (and `devs` when asked),
/// in load order. Shared by the cluster under test and its sidecar twins.
pub fn load_statements(seed: u64, rows: i64, with_devs: bool) -> Vec<String> {
    let mut out = vec!["create table events (id int, dev int, ts int, val int)".to_string()];
    let ids: Vec<i64> = (0..rows).collect();
    for chunk in ids.chunks(LOAD_BATCH) {
        let vals: Vec<String> = chunk
            .iter()
            .map(|&id| {
                let [dev, ts, val] = event(seed, id);
                format!("({id}, {dev}, {ts}, {val})")
            })
            .collect();
        out.push(format!("insert into events values {}", vals.join(",")));
    }
    if with_devs {
        out.push("create table devs (dev int, vendor int)".to_string());
        let vals: Vec<String> = (0..DEVS).map(|d| format!("({d}, {})", vendor(d))).collect();
        for chunk in vals.chunks(LOAD_BATCH) {
            out.push(format!("insert into devs values {}", chunk.join(",")));
        }
    }
    out
}

/// The surface the loaders and result checks need from both engines.
pub trait Sql {
    fn run(&mut self, sql: &str) -> hdm_common::Result<QueryResult>;
}

impl Sql for DistDb {
    fn run(&mut self, sql: &str) -> hdm_common::Result<QueryResult> {
        self.execute(sql)
    }
}

impl Sql for Database {
    fn run(&mut self, sql: &str) -> hdm_common::Result<QueryResult> {
        self.execute(sql)
    }
}

pub fn run_all(db: &mut impl Sql, stmts: &[String]) {
    for s in stmts {
        db.run(s)
            .unwrap_or_else(|e| panic!("set-up statement failed: {e}: {:.80}", s));
    }
}

/// An embedded single-node twin holding the same rows: the reference for
/// aggregate and join results and the executor-without-coordinator layer.
pub fn embedded_twin(seed: u64, rows: i64, with_devs: bool, index_ts: bool) -> Database {
    let mut db = Database::new();
    run_all(&mut db, &load_statements(seed, rows, with_devs));
    // The cluster probes its shard key through a built-in index; give the
    // single node the same access path.
    db.execute("create index on events (id)").expect("index");
    if index_ts {
        db.execute("create index on events (ts)").expect("index");
    }
    db.execute("analyze").expect("analyze");
    db
}

/// The prepared point read every SQL workload and sidecar shares.
pub const POINT_SQL: &str = "select * from events where id = ?";

pub fn prepare(db: &mut DistDb, sql: &str) -> hdm_sql::StmtHandle {
    db.prepare_handle(sql).expect("prepare")
}

/// Does `row` hold exactly these integers?
pub fn row_is(row: &Row, want: &[i64]) -> bool {
    let v = row.values();
    v.len() == want.len()
        && v.iter()
            .zip(want)
            .all(|(d, w)| matches!(d, Datum::Int(x) if x == w))
}

/// Rows as a sorted multiset, for engine-vs-twin comparison.
pub fn sorted_rows(rows: &[Row]) -> Vec<Vec<Datum>> {
    let mut v: Vec<Vec<Datum>> = rows.iter().map(|r| r.values().to_vec()).collect();
    v.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or_else(|| a.len().cmp(&b.len()))
    });
    v
}

pub fn same_rows(a: &[Row], b: &[Row]) -> bool {
    let (a, b) = (sorted_rows(a), sorted_rows(b));
    a.len() == b.len()
        && a.iter().zip(&b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.total_cmp(q).is_eq())
        })
}

/// FNV-1a over the generated operation stream: two runs of one seed must
/// feed the program byte-identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamHash(pub u64);

impl Default for StreamHash {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl StreamHash {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.word(s.len() as u64);
    }
}

/// Shadow model of a mutable `events`: rows are `event(seed, id)` for every
/// id below `next_id`, except where an update or delete says otherwise.
pub struct EventsModel {
    seed: u64,
    pub next_id: i64,
    /// `Some(val)` after an UPDATE, `None` after a DELETE.
    changed: std::collections::HashMap<i64, Option<i64>>,
    count: i64,
    sum: i64,
}

impl EventsModel {
    pub fn new(seed: u64, rows: i64) -> Self {
        Self {
            seed,
            next_id: rows,
            changed: Default::default(),
            count: rows,
            sum: (0..rows).map(|id| event(seed, id)[2]).sum(),
        }
    }

    pub fn get(&self, id: i64) -> Option<[i64; 3]> {
        if id >= self.next_id {
            return None;
        }
        let [dev, ts, val] = event(self.seed, id);
        match self.changed.get(&id) {
            None => Some([dev, ts, val]),
            Some(Some(v)) => Some([dev, ts, *v]),
            Some(None) => None,
        }
    }

    /// A uniformly drawn id that is live now.
    pub fn pick_live(&self, rng: &mut hdm_common::SplitMix64) -> i64 {
        loop {
            let id = rng.next_below(self.next_id as u64) as i64;
            if self.get(id).is_some() {
                return id;
            }
        }
    }

    pub fn insert(&mut self) -> (i64, [i64; 3]) {
        let id = self.next_id;
        self.next_id += 1;
        let row = event(self.seed, id);
        self.count += 1;
        self.sum += row[2];
        (id, row)
    }

    pub fn update(&mut self, id: i64, val: i64) {
        let old = self.get(id).expect("update of a live row")[2];
        self.sum += val - old;
        self.changed.insert(id, Some(val));
    }

    pub fn delete(&mut self, id: i64) {
        let old = self.get(id).expect("delete of a live row")[2];
        self.sum -= old;
        self.count -= 1;
        self.changed.insert(id, None);
    }

    /// `(count(*), sum(val))` the table must end with.
    pub fn totals(&self) -> (i64, i64) {
        (self.count, self.sum)
    }
}

/// Compare the table's `count(*)`/`sum(val)` with the model's.
pub fn check_totals(db: &mut impl Sql, model: &EventsModel) -> Vec<String> {
    let want = model.totals();
    match db.run("select count(*), sum(val) from events") {
        Ok(r) if r.rows.len() == 1 && row_is(&r.rows[0], &[want.0, want.1]) => Vec::new(),
        Ok(r) => vec![format!(
            "events ends with {:?}, the model with count {} sum {}",
            r.rows.first().map(|x| x.values().to_vec()),
            want.0,
            want.1
        )],
        Err(e) => vec![format!("final count(*)/sum(val) failed: {e}")],
    }
}

/// A stratified operation mix: every block of `counts.sum()` draws holds
/// exactly `counts[k]` of kind `k`, in seeded order. Two seeds then differ
/// in keys and order but never in how many operations of each kind a chunk
/// holds, so a metric's seed-to-seed spread is the machine's, not the
/// binomial's.
pub struct Mix {
    bag: Vec<u8>,
    at: usize,
}

impl Mix {
    pub fn new(counts: &[usize]) -> Self {
        let bag: Vec<u8> = counts
            .iter()
            .enumerate()
            .flat_map(|(k, &n)| std::iter::repeat_n(k as u8, n))
            .collect();
        let at = bag.len();
        Self { bag, at }
    }

    pub fn next(&mut self, rng: &mut hdm_common::SplitMix64) -> u8 {
        if self.at == self.bag.len() {
            rng.shuffle(&mut self.bag);
            self.at = 0;
        }
        self.at += 1;
        self.bag[self.at - 1]
    }
}
