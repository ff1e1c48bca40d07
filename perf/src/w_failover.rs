//! `failover_rw`: raw statements through `execute_opts` while data nodes
//! crash and rejoin — 50% retrying point reads, 40% idempotent INSERT, 10%
//! idempotent UPDATE. Every [`CRASH_EVERY`] operations one shard's primary
//! is killed (round-robin); [`RESTART_AFTER`] operations later the machine
//! restarts and rejoins as an empty follower replaying the whole log.
//!
//! Why: the only workload where operations can fail, and where promote,
//! replay-to-head and rejoin are on the blocking path. It must end with no
//! lost or double-applied row and every follower at its log head.

use crate::data::{self, EventsModel, StreamHash, SHARDS, VAL_SPACE};
use crate::w_point::check_point;
use crate::workload::{Class, Generator, NoProbe, Probe, ReplayInput, Sizes, Workload};
use hdm_cluster::{Cluster, DistDb, RetryPolicy};
use hdm_common::{ShardId, SplitMix64};
use hdm_sql::prepared::{ExecOptions, QueryApi};

pub const CRASH_EVERY: usize = 250;
pub const RESTART_AFTER: usize = 125;
/// Write idempotence keys start here, clear of the ids the coordinator
/// assigns by itself to retrying reads (1, 2, 3, …).
const STMT_ID_BASE: u64 = 1 << 40;

#[derive(Clone)]
pub enum Fault {
    Crash(u64),
    Restart(u64),
}

#[derive(Clone)]
pub struct Op {
    pub class: Class,
    pub sql: String,
    /// Idempotence key of a write.
    pub stmt_id: Option<u64>,
    /// Read: the id and the row it must return.
    pub expect: Option<(i64, [i64; 3])>,
    /// Fault the harness injects just before this operation.
    pub fault: Option<Fault>,
}

pub struct Gen {
    rng: SplitMix64,
    /// 5 reads, 4 inserts, 1 update per ten.
    mix: data::Mix,
    pub model: EventsModel,
    at: usize,
}

impl Generator for Gen {
    type Op = Op;

    fn new(seed: u64, sizes: Sizes) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0x6661_696c),
            mix: data::Mix::new(&[5, 4, 1]),
            model: EventsModel::new(seed, sizes.rows),
            at: 0,
        }
    }

    fn next_op(&mut self) -> Op {
        let at = self.at;
        self.at += 1;
        let round = (at / CRASH_EVERY) as u64;
        let fault = match at % CRASH_EVERY {
            0 if at > 0 => Some(Fault::Crash(round % SHARDS as u64)),
            RESTART_AFTER if round > 0 => Some(Fault::Restart(round % SHARDS as u64)),
            _ => None,
        };
        let kind = self.mix.next(&mut self.rng);
        let (class, sql, stmt_id, expect) = if kind == 0 {
            let id = self.model.pick_live(&mut self.rng);
            let row = self.model.get(id).expect("picked live");
            (
                Class::RawPoint,
                format!("select * from events where id = {id}"),
                None,
                Some((id, row)),
            )
        } else if kind == 1 {
            let (id, [dev, ts, val]) = self.model.insert();
            (
                Class::Insert,
                format!("insert into events values ({id}, {dev}, {ts}, {val})"),
                Some(STMT_ID_BASE + at as u64),
                None,
            )
        } else {
            let id = self.model.pick_live(&mut self.rng);
            let val = self.rng.next_below(VAL_SPACE as u64) as i64;
            self.model.update(id, val);
            (
                Class::Update,
                format!("update events set val = {val} where id = {id}"),
                Some(STMT_ID_BASE + at as u64),
                None,
            )
        };
        Op {
            class,
            sql,
            stmt_id,
            expect,
            fault,
        }
    }
}

pub struct FailoverRw {
    db: DistDb,
}

impl Workload for FailoverRw {
    type Op = Op;
    type Gen = Gen;

    const NAME: &'static str = "failover_rw";
    const ROWS: i64 = 20_000;
    const OPS_PER_SECOND: usize = 3_500;
    /// A crash/restart cycle, itself a whole number of mix blocks.
    const BLOCK: usize = CRASH_EVERY;

    fn setup(seed: u64, sizes: Sizes) -> Self {
        let mut db = data::new_dist();
        data::run_all(&mut db, &data::load_statements(seed, sizes.rows, false));
        db.execute("analyze").expect("analyze");
        db.cluster_mut().pump_replication(0).expect("initial pump");
        db.set_retry_policy(Some(RetryPolicy::chaos(seed)));
        let mut w = Self { db };
        for id in 0..256.min(sizes.rows) {
            let op = Op {
                class: Class::RawPoint,
                sql: format!("select * from events where id = {id}"),
                stmt_id: None,
                expect: Some((id, data::event(seed, id))),
                fault: None,
            };
            assert!(w.run(&op, &mut NoProbe), "warm-up read");
        }
        w
    }

    fn class(op: &Op) -> Class {
        op.class
    }

    fn digest(op: &Op, h: &mut StreamHash) {
        h.text(&op.sql);
        h.word(match op.fault {
            None => 0,
            Some(Fault::Crash(s)) => 1 + s,
            Some(Fault::Restart(s)) => 101 + s,
        });
    }

    fn run<P: Probe>(&mut self, op: &Op, probe: &mut P) -> bool {
        match op.fault {
            Some(Fault::Crash(s)) => probe.span(Class::CrashNode, || {
                self.db.cluster_mut().crash_node(ShardId::new(s))
            }),
            Some(Fault::Restart(s)) => probe.span(Class::RestartNode, || {
                self.db.cluster_mut().restart_node(ShardId::new(s))
            }),
            None => {}
        }
        let opts = match op.stmt_id {
            Some(id) => ExecOptions::idempotent(id),
            None => ExecOptions::retrying(),
        };
        let r = self.db.execute_opts(&op.sql, opts);
        match &op.expect {
            Some((id, row)) => check_point(r, *id, row),
            None => matches!(r, Ok(r) if r.affected == 1),
        }
    }

    fn cluster(&self) -> &Cluster {
        self.db.cluster()
    }

    fn cluster_mut(&mut self) -> &mut Cluster {
        self.db.cluster_mut()
    }

    fn dist(&self) -> Option<&DistDb> {
        Some(&self.db)
    }

    fn live_rows(&self, gen: &Gen) -> u64 {
        gen.model.totals().0 as u64
    }

    fn replay_input(op: &Op) -> ReplayInput<'_> {
        ReplayInput {
            sql: Some(&op.sql),
            select: op.expect.is_some(),
            point: op.expect.as_ref().map(|(id, _)| *id),
            ..Default::default()
        }
    }

    fn finish(&mut self, gen: &Gen) -> Vec<String> {
        let mut bad = Vec::new();
        // A stream may end between a crash and its restart: finish the
        // cycle, then drain the logs.
        for s in self.db.cluster().down_shards() {
            if let Err(e) = self.db.cluster_mut().try_failover(s) {
                bad.push(format!("final failover of {s} failed: {e}"));
            }
        }
        for s in 0..SHARDS as u64 {
            self.db.cluster_mut().restart_node(ShardId::new(s));
        }
        if let Err(e) = self.db.cluster_mut().pump_replication(0) {
            bad.push(format!("final pump failed: {e}"));
        }
        let heads = self.db.cluster().log_heads();
        for (shard, csns) in self.db.cluster().replica_csns().iter().enumerate() {
            if csns.is_empty() || csns.iter().any(|&c| c != heads[shard]) {
                bad.push(format!(
                    "shard {shard}: follower CSNs {csns:?}, log head {}",
                    heads[shard]
                ));
            }
        }
        bad.extend(data::check_totals(&mut self.db, &gen.model));
        bad
    }
}
