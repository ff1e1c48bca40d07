//! `analytic_scatter`: raw analytic statements over a static `events` ⋈ `devs`.
//!
//! 90% narrow indexed ranges drawn uniformly from [`SHAPES`] distinct
//! canonical shapes (four times the plan cache, so about 3 in 4 miss and
//! re-parse and re-plan), 4% scatter `sum`, 3% `GROUP BY` count (never
//! cacheable), 3% join.
//!
//! Why: the median sits in the planner-dominated class and the tail in the
//! Exchange + global-snapshot + 2PC class; `point_read` touches neither.

use crate::data::{self, StreamHash, TS_SPACE, VAL_SPACE};
use crate::workload::{
    Class, Generator, NoProbe, Probe, ReplayInput, Sizes, Workload, REPLAY_EVERY,
};
use hdm_cluster::{Cluster, DistDb};
use hdm_common::{Datum, Row, SplitMix64};
use hdm_sql::prepared::PLAN_CACHE_CAP;

/// Distinct canonical range shapes: four times what the plan cache holds.
pub const SHAPES: usize = 4 * PLAN_CACHE_CAP;

const COLS: [&str; 4] = ["id", "dev", "ts", "val"];

#[derive(Clone)]
pub struct Op {
    pub class: Class,
    pub sql: String,
    /// Rows the statement must return.
    pub rows: usize,
    /// Class-specific checksum the result must reproduce (see `check`).
    pub sum: i64,
    /// Range only: the `ts` interval `[lo, hi)`.
    pub range: Option<(i64, i64)>,
    /// Range only: the shape was not among the last [`PLAN_CACHE_CAP`]
    /// distinct shapes, so no cache of that size can hold its plan.
    pub cold: bool,
}

/// Ordered non-empty projections of the four columns, 64 in all.
fn projections() -> Vec<String> {
    let mut out = Vec::new();
    fn rec(prefix: &mut Vec<usize>, out: &mut Vec<String>) {
        if !prefix.is_empty() {
            out.push(
                prefix
                    .iter()
                    .map(|&c| COLS[c])
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
        for c in 0..COLS.len() {
            if !prefix.contains(&c) {
                prefix.push(c);
                rec(prefix, out);
                prefix.pop();
            }
        }
    }
    rec(&mut Vec::new(), &mut out);
    out
}

pub struct Gen {
    rng: SplitMix64,
    /// 90 ranges, 4 scatter sums, 3 GROUP BYs, 3 joins per hundred.
    mix: data::Mix,
    /// `(ts, dev)` of every events row, by ts.
    by_ts: Vec<(i64, i64)>,
    /// Prefix sums of `vendor(dev)` in ts order.
    vendor_prefix: Vec<i64>,
    /// Sum and count of rows with `val >= k`.
    val_ge: Vec<(i64, i64)>,
    projections: Vec<String>,
    /// Draw number at which each shape was last used (0 = never).
    last_use: Vec<u64>,
    draws: u64,
    range_width: i64,
}

impl Gen {
    /// Rows with `lo <= ts < hi`, as positions in `by_ts`.
    fn span(&self, lo: i64, hi: i64) -> (usize, usize) {
        (
            self.by_ts.partition_point(|&(ts, _)| ts < lo),
            self.by_ts.partition_point(|&(ts, _)| ts < hi),
        )
    }

    fn range(&mut self) -> Op {
        let shape = self.rng.next_below(SHAPES as u64) as usize;
        // From 1, so that `ts > lo - 1` never spells a negative literal (a
        // sign next to a literal makes the statement uncacheable).
        let lo = 1 + self
            .rng
            .next_below((TS_SPACE - self.range_width - 1) as u64) as i64;
        let hi = lo + self.range_width;
        // Strict and inclusive spellings of the same half-open interval.
        let (lo_pred, hi_pred) = match (shape / 64) % 4 {
            0 => (format!("ts >= {lo}"), format!("ts < {hi}")),
            1 => (format!("ts > {}", lo - 1), format!("ts < {hi}")),
            2 => (format!("ts >= {lo}"), format!("ts <= {}", hi - 1)),
            _ => (format!("ts > {}", lo - 1), format!("ts <= {}", hi - 1)),
        };
        // LIMIT literals stay in the canonical text; none of these binds.
        let limit = 1_000 + shape / 256;
        let sql = format!(
            "select {} from events where {lo_pred} and {hi_pred} limit {limit}",
            self.projections[shape % 64]
        );
        self.draws += 1;
        let last = self.last_use[shape];
        let newer = self.last_use.iter().filter(|&&u| u > last).count();
        let cold = last == 0 || newer >= PLAN_CACHE_CAP;
        self.last_use[shape] = self.draws;
        let (a, b) = self.span(lo, hi);
        Op {
            class: Class::Range,
            sql,
            rows: b - a,
            sum: 0,
            range: Some((lo, hi)),
            cold,
        }
    }

    fn scatter_agg(&mut self) -> Op {
        let k = self.rng.next_below((VAL_SPACE / 2) as u64) as usize;
        let (sum, count) = self.val_ge[k];
        Op {
            class: Class::ScatterAgg,
            sql: format!("select sum(val), count(*) from events where val >= {k}"),
            rows: 1,
            sum: sum ^ (count << 40),
            range: None,
            cold: false,
        }
    }

    fn group_by(&mut self) -> Op {
        let k = TS_SPACE / 2 + self.rng.next_below((TS_SPACE / 2) as u64) as i64;
        let (_, b) = self.span(0, k);
        let mut seen = vec![false; data::DEVS as usize];
        let mut groups = 0;
        for &(_, dev) in &self.by_ts[..b] {
            if !std::mem::replace(&mut seen[dev as usize], true) {
                groups += 1;
            }
        }
        Op {
            class: Class::GroupBy,
            sql: format!("select dev, count(*) from events where ts < {k} group by dev"),
            rows: groups,
            sum: b as i64,
            range: None,
            cold: true,
        }
    }

    fn join(&mut self) -> Op {
        let width = TS_SPACE / 20;
        let lo = self.rng.next_below((TS_SPACE - width) as u64) as i64;
        let (a, b) = self.span(lo, lo + width);
        Op {
            class: Class::Join,
            sql: format!(
                "select e.id, d.vendor from events e, devs d \
                 where e.dev = d.dev and e.ts >= {lo} and e.ts < {}",
                lo + width
            ),
            rows: b - a,
            sum: self.vendor_prefix[b] - self.vendor_prefix[a],
            range: None,
            cold: false,
        }
    }
}

impl Generator for Gen {
    type Op = Op;

    fn new(seed: u64, sizes: Sizes) -> Self {
        let mut by_ts = Vec::with_capacity(sizes.rows as usize);
        let mut hist = vec![(0i64, 0i64); VAL_SPACE as usize + 1];
        for id in 0..sizes.rows {
            let [dev, ts, val] = data::event(seed, id);
            by_ts.push((ts, dev));
            hist[val as usize].0 += val;
            hist[val as usize].1 += 1;
        }
        by_ts.sort_unstable();
        for k in (0..VAL_SPACE as usize).rev() {
            hist[k].0 += hist[k + 1].0;
            hist[k].1 += hist[k + 1].1;
        }
        let mut vendor_prefix = Vec::with_capacity(by_ts.len() + 1);
        vendor_prefix.push(0);
        for &(_, dev) in &by_ts {
            vendor_prefix.push(vendor_prefix.last().unwrap() + data::vendor(dev));
        }
        Self {
            rng: SplitMix64::new(seed ^ 0x616e_616c_7974),
            mix: data::Mix::new(&[90, 4, 3, 3]),
            by_ts,
            vendor_prefix,
            val_ge: hist,
            projections: projections(),
            last_use: vec![0; SHAPES],
            draws: 0,
            // About 16 rows per range whatever the table size.
            range_width: (TS_SPACE * 16 / sizes.rows).max(1),
        }
    }

    fn next_op(&mut self) -> Op {
        match self.mix.next(&mut self.rng) {
            0 => self.range(),
            1 => self.scatter_agg(),
            2 => self.group_by(),
            _ => self.join(),
        }
    }
}

pub struct AnalyticScatter {
    db: DistDb,
    seed: u64,
    rows: i64,
    ran: usize,
    /// Every [`REPLAY_EVERY`]th statement with the rows it returned, for the
    /// end-of-run comparison against the embedded twin.
    sampled: Vec<(String, Vec<Row>)>,
}

fn int_at(row: &Row, i: usize) -> i64 {
    match row.get(i) {
        Some(Datum::Int(v)) => *v,
        _ => i64::MIN,
    }
}

fn check(op: &Op, rows: &[Row]) -> bool {
    if rows.len() != op.rows {
        return false;
    }
    match op.class {
        Class::ScatterAgg => int_at(&rows[0], 0) ^ (int_at(&rows[0], 1) << 40) == op.sum,
        Class::GroupBy => rows.iter().map(|r| int_at(r, 1)).sum::<i64>() == op.sum,
        Class::Join => rows.iter().map(|r| int_at(r, 1)).sum::<i64>() == op.sum,
        _ => true,
    }
}

impl Workload for AnalyticScatter {
    type Op = Op;
    type Gen = Gen;

    const NAME: &'static str = "analytic_scatter";
    const ANALYTIC_SCHEMA: bool = true;
    const ROWS: i64 = 40_000;
    const OPS_PER_SECOND: usize = 1_000;
    const BLOCK: usize = 100;

    fn setup(seed: u64, sizes: Sizes) -> Self {
        let mut db = data::new_dist();
        data::run_all(&mut db, &data::load_statements(seed, sizes.rows, true));
        db.execute("create index on events (ts)").expect("index");
        db.execute("analyze").expect("analyze");
        db.cluster_mut().pump_replication(0).expect("initial pump");
        let mut w = Self {
            db,
            seed,
            rows: sizes.rows,
            ran: 0,
            sampled: Vec::new(),
        };
        // Same tables, another draw of statements than the timed stream's.
        let mut warm = Gen::new(seed, sizes);
        warm.rng = SplitMix64::new(seed ^ 0x7761_726d);
        for _ in 0..64 {
            let op = warm.next_op();
            assert!(w.run(&op, &mut NoProbe), "warm-up statement: {}", op.sql);
        }
        w.ran = 0;
        w.sampled.clear();
        w
    }

    fn class(op: &Op) -> Class {
        op.class
    }

    fn digest(op: &Op, h: &mut StreamHash) {
        h.text(&op.sql);
    }

    fn run<P: Probe>(&mut self, op: &Op, _probe: &mut P) -> bool {
        let keep = self.ran.is_multiple_of(REPLAY_EVERY);
        self.ran += 1;
        match self.db.execute(&op.sql) {
            Ok(r) => {
                let ok = check(op, &r.rows);
                if keep {
                    self.sampled.push((op.sql.clone(), r.rows));
                }
                ok
            }
            Err(_) => false,
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

    fn live_rows(&self, _gen: &Gen) -> u64 {
        (self.rows + data::DEVS) as u64
    }

    fn rows_expected(op: &Op) -> u64 {
        op.rows as u64
    }

    fn replay_input(op: &Op) -> ReplayInput<'_> {
        ReplayInput {
            sql: Some(&op.sql),
            select: true,
            point: None,
            range: op.range,
            cold: op.cold,
        }
    }

    fn finish(&mut self, _gen: &Gen) -> Vec<String> {
        let mut twin = data::embedded_twin(self.seed, self.rows, true, true);
        let mut bad = Vec::new();
        for (sql, rows) in &self.sampled {
            match twin.execute(sql) {
                Ok(r) if data::same_rows(&r.rows, rows) => {}
                Ok(r) => bad.push(format!(
                    "cluster returned {} rows, embedded twin {}: {sql}",
                    rows.len(),
                    r.rows.len()
                )),
                Err(e) => bad.push(format!("embedded twin failed ({e}): {sql}")),
            }
        }
        bad
    }
}
