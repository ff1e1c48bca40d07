//! The workload contract and the closed-loop driver.
//!
//! The engine is a single-threaded in-process library, so the load is one
//! client on one thread: the next operation is sent when the previous one has
//! returned. Nobody else ticks replication, so the driver is the deployment's
//! ticker too: every [`PUMP_EVERY`]th operation is followed by
//! `pump_replication(PUMP_BUDGET)` inside the timed loop, and that stall
//! belongs to the operation it follows, as its caller would see it.

use crate::data::StreamHash;
use hdm_cluster::{Cluster, DistDb};
use std::time::Instant;

pub const PUMP_EVERY: usize = 16;
pub const PUMP_BUDGET: usize = 64;
/// The timed phase is cut into this many equal-operation chunks; inputs for
/// a chunk are generated just before it, outside the timed region.
pub const CHUNKS: usize = 20;
/// Every n-th operation is kept for the traced run's layer replay.
pub const REPLAY_EVERY: usize = 64;

/// One span class per kind of call the harness makes into the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Class {
    PreparedPoint,
    RawPoint,
    Range,
    ScatterAgg,
    GroupBy,
    Join,
    Insert,
    Update,
    Delete,
    TxnSingle,
    TxnMulti,
    BeginSingle,
    BeginMulti,
    Get,
    Put,
    CommitSingle,
    CommitMulti,
    Pump,
    CrashNode,
    RestartNode,
}

impl Class {
    pub const ALL: [Class; 20] = [
        Class::PreparedPoint,
        Class::RawPoint,
        Class::Range,
        Class::ScatterAgg,
        Class::GroupBy,
        Class::Join,
        Class::Insert,
        Class::Update,
        Class::Delete,
        Class::TxnSingle,
        Class::TxnMulti,
        Class::BeginSingle,
        Class::BeginMulti,
        Class::Get,
        Class::Put,
        Class::CommitSingle,
        Class::CommitMulti,
        Class::Pump,
        Class::CrashNode,
        Class::RestartNode,
    ];

    /// Layer-qualified span name: the crate, the module, the call.
    pub fn name(self) -> &'static str {
        match self {
            Class::PreparedPoint => "cluster.dist.prepared_point",
            Class::RawPoint => "cluster.dist.raw_point",
            Class::Range => "cluster.dist.range",
            Class::ScatterAgg => "cluster.dist.scatter_agg",
            Class::GroupBy => "cluster.dist.groupby",
            Class::Join => "cluster.dist.join",
            Class::Insert => "cluster.dist.insert",
            Class::Update => "cluster.dist.update",
            Class::Delete => "cluster.dist.delete",
            Class::TxnSingle => "bench.txn_single",
            Class::TxnMulti => "bench.txn_multi",
            Class::BeginSingle => "cluster.engine.begin_single",
            Class::BeginMulti => "cluster.engine.begin_multi",
            Class::Get => "cluster.engine.get",
            Class::Put => "cluster.engine.put",
            Class::CommitSingle => "cluster.engine.commit_single",
            Class::CommitMulti => "cluster.engine.commit_multi",
            Class::Pump => "cluster.replica.pump",
            Class::CrashNode => "cluster.engine.crash_node",
            Class::RestartNode => "cluster.engine.restart_node",
        }
    }
}

/// Where a workload reports the calls it makes below the operation level.
/// The measured run uses [`NoProbe`], which compiles to the bare call.
pub trait Probe {
    fn span<R>(&mut self, class: Class, f: impl FnOnce() -> R) -> R;
}

pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn span<R>(&mut self, _class: Class, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Table and operation counts of one run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub rows: i64,
    pub ops: usize,
}

/// Seeded input stream with the shadow model folded in: every operation
/// carries the result the program must produce for it.
pub trait Generator {
    type Op;
    fn new(seed: u64, sizes: Sizes) -> Self;
    fn next_op(&mut self) -> Self::Op;
}

/// What the traced run's layer replay may feed to the lower layers' public
/// functions on sidecar state, taken from one operation's own inputs.
#[derive(Default)]
pub struct ReplayInput<'a> {
    /// The statement text, when the operation is sent as text.
    pub sql: Option<&'a str>,
    /// The statement only reads, so twins may execute it.
    pub select: bool,
    /// Shard-key value a point statement probes.
    pub point: Option<i64>,
    /// `[lo, hi)` of `ts` an indexed range walks.
    pub range: Option<(i64, i64)>,
    /// No plan cache can hold this statement's plan: it is parsed and
    /// planned on every execution.
    pub cold: bool,
}

pub trait Workload: Sized {
    type Op;
    type Gen: Generator<Op = Self::Op>;

    const NAME: &'static str;
    /// The workload loads `devs` and indexes `events(ts)`.
    const ANALYTIC_SCHEMA: bool = false;
    /// Operations after which the stream's composition repeats (a block of
    /// the stratified mix, a crash/restart cycle). A chunk is a whole number
    /// of them, so every chunk holds the same work.
    const BLOCK: usize;
    /// Table rows at `--seconds 1` do not scale: the table is fixed.
    const ROWS: i64;
    /// Operations per second of `--seconds`, from a probe on the reference
    /// host, so that the timed phase lasts about `--seconds` there.
    const OPS_PER_SECOND: usize;

    /// Create, bulk load, index, ANALYZE, pump followers to the log head and
    /// warm the statement cache. Everything `setup_s` covers.
    fn setup(seed: u64, sizes: Sizes) -> Self;
    fn class(op: &Self::Op) -> Class;
    fn digest(op: &Self::Op, h: &mut StreamHash);
    /// Run one operation and check its result against the shadow model.
    fn run<P: Probe>(&mut self, op: &Self::Op, probe: &mut P) -> bool;
    fn cluster(&self) -> &Cluster;
    fn cluster_mut(&mut self) -> &mut Cluster;
    fn dist(&self) -> Option<&DistDb>;
    /// End-of-run checks against the model's final state; one line per
    /// mismatch.
    fn finish(&mut self, gen: &Self::Gen) -> Vec<String>;
    /// Rows (or keys) the model holds live at the end of the stream.
    fn live_rows(&self, gen: &Self::Gen) -> u64;
    fn replay_input(_op: &Self::Op) -> ReplayInput<'_> {
        ReplayInput::default()
    }
    /// Rows the operation returns or changes, by the shadow model.
    fn rows_expected(_op: &Self::Op) -> u64 {
        1
    }
}

/// Operation count for `seconds`, a whole number of blocks per chunk.
pub fn sizes_for<W: Workload>(seconds: u64, smoke: bool) -> Sizes {
    let quantum = CHUNKS * W::BLOCK;
    let mut ops = W::OPS_PER_SECOND * seconds as usize;
    let mut rows = W::ROWS;
    if smoke {
        ops /= 100;
        rows = (rows / 10).max(2_000);
    } else {
        // p99 needs at least 40 samples beyond it.
        ops = ops.max(4_000);
    }
    let ops = ops.div_ceil(quantum).max(1) * quantum;
    Sizes { rows, ops }
}

/// What the measured timed phase yields.
pub struct Timed {
    /// Per-operation latency, boundary to boundary, in nanoseconds.
    pub lat_ns: Vec<u32>,
    /// Wall time of each chunk, nanoseconds.
    pub chunk_ns: Vec<u64>,
    pub failed: u64,
    pub hash: StreamHash,
    /// Time spent generating inputs (outside the timed region).
    pub gen_ns: u64,
}

fn next_chunk<W: Workload>(
    gen: &mut W::Gen,
    n: usize,
    base: usize,
    hash: &mut StreamHash,
    mut keep: Option<&mut Vec<W::Op>>,
) -> Vec<W::Op>
where
    W::Op: Clone,
{
    let mut ops = Vec::with_capacity(n);
    for i in 0..n {
        let op = gen.next_op();
        W::digest(&op, hash);
        if let Some(k) = keep.as_deref_mut() {
            if (base + i).is_multiple_of(REPLAY_EVERY) {
                k.push(op.clone());
            }
        }
        ops.push(op);
    }
    ops
}

/// The measured run: one clock read per operation boundary, nothing else.
/// `chunks` below [`CHUNKS`] runs only a prefix of the stream (the traced
/// run's untraced reference).
pub fn drive_measured<W: Workload>(
    w: &mut W,
    gen: &mut W::Gen,
    sizes: Sizes,
    chunks: usize,
) -> Timed
where
    W::Op: Clone,
{
    let per = sizes.ops / CHUNKS;
    // Written once before timing so the timed loop touches no fresh page.
    let mut lat_ns = vec![1u32; per * chunks];
    let mut chunk_ns = Vec::with_capacity(chunks);
    let mut hash = StreamHash::default();
    let (mut failed, mut gen_ns, mut at) = (0u64, 0u64, 0usize);
    for _ in 0..chunks {
        let g0 = Instant::now();
        let ops = next_chunk::<W>(gen, per, at, &mut hash, None);
        gen_ns += g0.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let mut prev = start;
        for op in &ops {
            if !w.run(op, &mut NoProbe) {
                failed += 1;
            }
            at += 1;
            if at.is_multiple_of(PUMP_EVERY) {
                w.cluster_mut()
                    .pump_replication(PUMP_BUDGET)
                    .expect("replication pump");
            }
            let now = Instant::now();
            lat_ns[at - 1] = (now - prev).as_nanos().min(u32::MAX as u128) as u32;
            prev = now;
        }
        chunk_ns.push((prev - start).as_nanos() as u64);
    }
    Timed {
        lat_ns,
        chunk_ns,
        failed,
        hash,
        gen_ns,
    }
}

/// What the traced timed phase yields beyond the spans themselves.
pub struct Traced<Op> {
    pub chunk_ns: Vec<u64>,
    pub failed: u64,
    pub hash: StreamHash,
    pub gen_ns: u64,
    /// Every [`REPLAY_EVERY`]th operation, for layer replay.
    pub kept: Vec<Op>,
    /// Records applied by each pump call, in call order.
    pub pump_applied: Vec<u64>,
    /// Operation spans during which a follower was promoted.
    pub promoting_ops: Vec<u32>,
    /// Rows the stream's statements return or change, by the shadow model.
    pub rows_expected: u64,
}

/// The traced run: same stream, same pump cadence, a span around every
/// harness→program call.
pub fn drive_traced<W: Workload>(
    w: &mut W,
    gen: &mut W::Gen,
    sizes: Sizes,
    tracer: &mut crate::trace::Tracer,
) -> Traced<W::Op>
where
    W::Op: Clone,
{
    let per = sizes.ops / CHUNKS;
    let mut out = Traced {
        chunk_ns: Vec::with_capacity(CHUNKS),
        failed: 0,
        hash: StreamHash::default(),
        gen_ns: 0,
        kept: Vec::with_capacity(sizes.ops / REPLAY_EVERY + 1),
        pump_applied: Vec::with_capacity(sizes.ops / PUMP_EVERY),
        promoting_ops: Vec::new(),
        rows_expected: 0,
    };
    let mut at = 0usize;
    let mut promotions = w.cluster().counters().promotions;
    for _ in 0..CHUNKS {
        let g0 = Instant::now();
        let ops = next_chunk::<W>(gen, per, at, &mut out.hash, Some(&mut out.kept));
        out.rows_expected += ops.iter().map(W::rows_expected).sum::<u64>();
        out.gen_ns += g0.elapsed().as_nanos() as u64;
        let start = Instant::now();
        for op in &ops {
            tracer.set_op(at as u32);
            let root = tracer.open(W::class(op));
            let ok = w.run(op, tracer);
            tracer.close(root);
            if !ok {
                out.failed += 1;
            }
            let p = w.cluster().counters().promotions;
            if p != promotions {
                promotions = p;
                out.promoting_ops.push(root);
            }
            at += 1;
            if at.is_multiple_of(PUMP_EVERY) {
                let applied = tracer.span(Class::Pump, || {
                    w.cluster_mut()
                        .pump_replication(PUMP_BUDGET)
                        .expect("replication pump")
                });
                out.pump_applied.push(applied);
            }
        }
        out.chunk_ns.push(start.elapsed().as_nanos() as u64);
    }
    out
}

/// The generator alone: the hash of the stream a seed yields.
#[cfg(test)]
pub fn stream_hash<W: Workload>(seed: u64, sizes: Sizes) -> StreamHash {
    let mut gen = W::Gen::new(seed, sizes);
    let mut hash = StreamHash::default();
    for _ in 0..sizes.ops {
        W::digest(&gen.next_op(), &mut hash);
    }
    hash
}
