//! `point_read`: uniform-key point SELECTs on the shard key, 3 in 4 through
//! `execute_prepared`, 1 in 4 as raw text with an inline literal.
//!
//! Why: the path every earlier BENCH file quotes. All time is canonicalize →
//! plan-cache hit → bind → route → shard-key probe; zero GTM, zero writes,
//! and both statement shapes fit the plan cache.

use crate::data::{self, StreamHash};
use crate::workload::{Class, Generator, Probe, ReplayInput, Sizes, Workload};
use hdm_cluster::{Cluster, DistDb};
use hdm_common::{Datum, SplitMix64};
use hdm_sql::prepared::QueryApi;
use hdm_sql::StmtHandle;

#[derive(Clone)]
pub struct Op {
    pub id: i64,
    /// Raw statement text for the unprepared quarter.
    pub raw: Option<String>,
    pub expect: [i64; 3],
}

pub struct Gen {
    seed: u64,
    rows: i64,
    rng: SplitMix64,
    /// 3 prepared to 1 raw.
    mix: data::Mix,
}

impl Generator for Gen {
    type Op = Op;

    fn new(seed: u64, sizes: Sizes) -> Self {
        Self {
            seed,
            rows: sizes.rows,
            rng: SplitMix64::new(seed ^ 0x0070_6f69_6e74),
            mix: data::Mix::new(&[3, 1]),
        }
    }

    fn next_op(&mut self) -> Op {
        let id = self.rng.next_below(self.rows as u64) as i64;
        let raw = (self.mix.next(&mut self.rng) == 1)
            .then(|| format!("select * from events where id = {id}"));
        Op {
            id,
            raw,
            expect: data::event(self.seed, id),
        }
    }
}

pub struct PointRead {
    db: DistDb,
    handle: StmtHandle,
    /// GTM interactions spent by set-up; the reads must add none.
    gtm_at_setup: u64,
}

pub fn check_point(r: hdm_common::Result<hdm_sql::QueryResult>, id: i64, e: &[i64; 3]) -> bool {
    match r {
        Ok(r) => r.rows.len() == 1 && data::row_is(&r.rows[0], &[id, e[0], e[1], e[2]]),
        Err(_) => false,
    }
}

impl Workload for PointRead {
    type Op = Op;
    type Gen = Gen;

    const NAME: &'static str = "point_read";
    const ROWS: i64 = 200_000;
    const OPS_PER_SECOND: usize = 400_000;
    const BLOCK: usize = 4;

    fn setup(seed: u64, sizes: Sizes) -> Self {
        let mut db = data::new_dist();
        data::run_all(&mut db, &data::load_statements(seed, sizes.rows, false));
        db.execute("analyze").expect("analyze");
        db.cluster_mut().pump_replication(0).expect("initial pump");
        let handle = data::prepare(&mut db, data::POINT_SQL);
        let mut w = Self {
            db,
            handle,
            gtm_at_setup: 0,
        };
        // Same table, another draw of keys than the timed stream's.
        let mut warm = Gen::new(seed, sizes);
        warm.rng = SplitMix64::new(seed ^ 0x7761_726d);
        for _ in 0..2_000 {
            let op = warm.next_op();
            assert!(w.run(&op, &mut crate::workload::NoProbe), "warm-up read");
        }
        w.gtm_at_setup = w.db.cluster().counters().gtm_interactions;
        w
    }

    fn class(op: &Op) -> Class {
        if op.raw.is_some() {
            Class::RawPoint
        } else {
            Class::PreparedPoint
        }
    }

    fn digest(op: &Op, h: &mut StreamHash) {
        h.word(op.id as u64);
        h.word(op.raw.is_some() as u64);
    }

    #[inline]
    fn run<P: Probe>(&mut self, op: &Op, _probe: &mut P) -> bool {
        let r = match &op.raw {
            None => self.db.execute_prepared(&self.handle, &[Datum::Int(op.id)]),
            Some(sql) => self.db.execute(sql),
        };
        check_point(r, op.id, &op.expect)
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
        gen.rows as u64
    }

    fn replay_input(op: &Op) -> ReplayInput<'_> {
        ReplayInput {
            sql: op.raw.as_deref(),
            select: true,
            point: Some(op.id),
            ..Default::default()
        }
    }

    fn finish(&mut self, _gen: &Gen) -> Vec<String> {
        let gtm = self.db.cluster().counters().gtm_interactions - self.gtm_at_setup;
        if gtm == 0 {
            Vec::new()
        } else {
            vec![format!("shard-key point reads made {gtm} GTM interactions")]
        }
    }
}
