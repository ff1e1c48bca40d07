//! `write_mix`: 70% prepared single-row INSERT, 10% prepared UPDATE by shard
//! key, 5% raw DELETE by shard key, 15% prepared point read of a recently
//! inserted id.
//!
//! Why: the route/txn/storage layers of `point_read`, used for writes beside
//! reads, so a read-path gain that taxes writes (or an apply-side gain that
//! stalls readers) shows. Throughput splits between the UPDATE/DELETE scans
//! and replication apply; the median is the INSERT path, the tail the pump.

use crate::data::{self, EventsModel, StreamHash, VAL_SPACE};
use crate::w_point::check_point;
use crate::workload::{Class, Generator, NoProbe, Probe, ReplayInput, Sizes, Workload};
use hdm_cluster::{Cluster, DistDb};
use hdm_common::{Datum, SplitMix64};
use hdm_sql::prepared::QueryApi;
use hdm_sql::StmtHandle;
use std::collections::VecDeque;

/// Point reads draw from this many most recently inserted ids.
const RECENT: usize = 1_024;

#[derive(Clone)]
pub enum Op {
    Insert {
        id: i64,
        row: [i64; 3],
    },
    Update {
        id: i64,
        val: i64,
    },
    Delete {
        id: i64,
        sql: String,
    },
    /// `expect` is `None` when the row has been deleted since its insert.
    Read {
        id: i64,
        expect: Option<[i64; 3]>,
    },
}

pub struct Gen {
    rng: SplitMix64,
    /// 14 inserts, 2 updates, 1 delete, 3 reads per twenty.
    mix: data::Mix,
    pub model: EventsModel,
    recent: VecDeque<i64>,
}

impl Generator for Gen {
    type Op = Op;

    fn new(seed: u64, sizes: Sizes) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0x0077_7269_7465),
            mix: data::Mix::new(&[14, 2, 1, 3]),
            model: EventsModel::new(seed, sizes.rows),
            recent: VecDeque::with_capacity(RECENT),
        }
    }

    fn next_op(&mut self) -> Op {
        let kind = self.mix.next(&mut self.rng);
        // Nothing to read back before the first insert.
        if kind == 0 || (kind == 3 && self.recent.is_empty()) {
            let (id, row) = self.model.insert();
            if self.recent.len() == RECENT {
                self.recent.pop_front();
            }
            self.recent.push_back(id);
            Op::Insert { id, row }
        } else if kind == 1 {
            let id = self.model.pick_live(&mut self.rng);
            let val = self.rng.next_below(VAL_SPACE as u64) as i64;
            self.model.update(id, val);
            Op::Update { id, val }
        } else if kind == 2 {
            let id = self.model.pick_live(&mut self.rng);
            self.model.delete(id);
            Op::Delete {
                id,
                sql: format!("delete from events where id = {id}"),
            }
        } else {
            let id = self.recent[self.rng.next_below(self.recent.len() as u64) as usize];
            Op::Read {
                id,
                expect: self.model.get(id),
            }
        }
    }
}

pub struct WriteMix {
    db: DistDb,
    insert: StmtHandle,
    update: StmtHandle,
    read: StmtHandle,
}

fn affected_one(r: hdm_common::Result<hdm_sql::QueryResult>) -> bool {
    matches!(r, Ok(r) if r.affected == 1)
}

impl Workload for WriteMix {
    type Op = Op;
    type Gen = Gen;

    const NAME: &'static str = "write_mix";
    const ROWS: i64 = 40_000;
    const OPS_PER_SECOND: usize = 4_800;
    const BLOCK: usize = 20;

    fn setup(seed: u64, sizes: Sizes) -> Self {
        let mut db = data::new_dist();
        data::run_all(&mut db, &data::load_statements(seed, sizes.rows, false));
        db.execute("analyze").expect("analyze");
        db.cluster_mut().pump_replication(0).expect("initial pump");
        let insert = data::prepare(&mut db, "insert into events values (?, ?, ?, ?)");
        let update = data::prepare(&mut db, "update events set val = ? where id = ?");
        let read = data::prepare(&mut db, data::POINT_SQL);
        let mut w = Self {
            db,
            insert,
            update,
            read,
        };
        // Warm the read shape only: a warm-up write would move the table
        // away from the state the shadow model starts from.
        for id in 0..256.min(sizes.rows) {
            let op = Op::Read {
                id,
                expect: Some(data::event(seed, id)),
            };
            assert!(w.run(&op, &mut NoProbe), "warm-up read");
        }
        w
    }

    fn class(op: &Op) -> Class {
        match op {
            Op::Insert { .. } => Class::Insert,
            Op::Update { .. } => Class::Update,
            Op::Delete { .. } => Class::Delete,
            Op::Read { .. } => Class::PreparedPoint,
        }
    }

    fn digest(op: &Op, h: &mut StreamHash) {
        match op {
            Op::Insert { id, row } => {
                h.word(1);
                h.word(*id as u64);
                h.word(row[2] as u64);
            }
            Op::Update { id, val } => {
                h.word(2);
                h.word(*id as u64);
                h.word(*val as u64);
            }
            Op::Delete { id, .. } => {
                h.word(3);
                h.word(*id as u64);
            }
            Op::Read { id, expect } => {
                h.word(4);
                h.word(*id as u64);
                h.word(expect.is_some() as u64);
            }
        }
    }

    fn run<P: Probe>(&mut self, op: &Op, _probe: &mut P) -> bool {
        match op {
            Op::Insert { id, row } => affected_one(self.db.execute_prepared(
                &self.insert,
                &[
                    Datum::Int(*id),
                    Datum::Int(row[0]),
                    Datum::Int(row[1]),
                    Datum::Int(row[2]),
                ],
            )),
            Op::Update { id, val } => affected_one(
                self.db
                    .execute_prepared(&self.update, &[Datum::Int(*val), Datum::Int(*id)]),
            ),
            Op::Delete { sql, .. } => affected_one(self.db.execute(sql)),
            Op::Read { id, expect } => {
                let r = self.db.execute_prepared(&self.read, &[Datum::Int(*id)]);
                match expect {
                    Some(e) => check_point(r, *id, e),
                    None => matches!(r, Ok(r) if r.rows.is_empty()),
                }
            }
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
        match op {
            Op::Delete { id, sql } => ReplayInput {
                sql: Some(sql),
                point: Some(*id),
                ..Default::default()
            },
            Op::Read { id, .. } => ReplayInput {
                select: true,
                point: Some(*id),
                ..Default::default()
            },
            Op::Insert { .. } | Op::Update { .. } => ReplayInput::default(),
        }
    }

    fn finish(&mut self, gen: &Gen) -> Vec<String> {
        data::check_totals(&mut self.db, &gen.model)
    }
}
