//! The traced run: per-layer metrics measured from outside the program.
//!
//! Three sources, none of them inside a program crate: spans around every
//! harness→program call, deltas of the public counter structs, and — for
//! every [`workload::REPLAY_EVERY`]th operation — a *layer replay* that feeds that
//! operation's own inputs to the lower layers' public functions on sidecar
//! state (a twin cluster, an embedded `Database`, a bare storage `Table`, a
//! bare `Gtm`).

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::workload::{self, Class, Generator, Sizes, Workload, CHUNKS};
use crate::{alloc, data, stats, Args};
use hdm_cluster::{Cluster, ClusterCounters, DistCounters, DistDb};
use hdm_common::{Datum, Row, Schema, Xid};
use hdm_sql::prepared::QueryApi;
use hdm_storage::{Table, Visibility};
use hdm_txn::{merge_snapshot, Gtm, MergeInputs, Snapshot};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Every per-layer metric: name, unit, which way is better. Layers are named
/// after the crates and modules; README.md says which end-to-end metric each
/// should move, on which workload.
pub const PER_LAYER: [(&str, &str, &str); 64] = [
    ("sql.prepared.canonicalize_us", "us", "lower"),
    ("sql.parser.parse_us", "us", "lower"),
    ("sql.planner.plan_us", "us", "lower"),
    ("sql.prepared.raw_minus_prepared_us", "us", "lower"),
    ("sql.db.embedded_point_us", "us", "lower"),
    ("sql.db.embedded_agg_us", "us", "lower"),
    ("cluster.dist.prepared_point_us", "us", "lower"),
    ("cluster.dist.raw_point_us", "us", "lower"),
    ("cluster.dist.range_us", "us", "lower"),
    ("cluster.dist.scatter_agg_us", "us", "lower"),
    ("cluster.dist.groupby_us", "us", "lower"),
    ("cluster.dist.join_us", "us", "lower"),
    ("cluster.dist.insert_us", "us", "lower"),
    ("cluster.dist.update_us", "us", "lower"),
    ("cluster.dist.delete_us", "us", "lower"),
    (
        "cluster.dist.rows_exchanged_per_row_returned",
        "ratio",
        "lower",
    ),
    ("cluster.dist.fragments_per_stmt", "ratio", "lower"),
    ("cluster.dist.pruned_ratio", "ratio", "higher"),
    ("cluster.dist.index_probes_per_stmt", "ratio", "higher"),
    ("cluster.dist.multi_shard_ratio", "ratio", "lower"),
    ("cluster.dist.stmt_retries", "count", "lower"),
    ("cluster.dist.dedup_hits", "count", "lower"),
    ("cluster.dist.failovers", "count", "lower"),
    ("cluster.engine.begin_single_us", "us", "lower"),
    ("cluster.engine.begin_multi_us", "us", "lower"),
    ("cluster.engine.get_us", "us", "lower"),
    ("cluster.engine.put_us", "us", "lower"),
    ("cluster.engine.commit_single_us", "us", "lower"),
    ("cluster.engine.commit_multi_us", "us", "lower"),
    ("cluster.engine.gtm_interactions_per_txn", "ratio", "lower"),
    ("cluster.engine.merges_per_txn", "ratio", "lower"),
    ("cluster.engine.upgrade_waits", "count", "lower"),
    ("cluster.engine.downgrades", "count", "lower"),
    ("cluster.engine.aborts", "count", "lower"),
    ("cluster.engine.try_failover_us", "us", "lower"),
    ("cluster.engine.restart_node_us", "us", "lower"),
    ("cluster.engine.promotions", "count", "lower"),
    ("cluster.engine.rejoins", "count", "lower"),
    ("cluster.replica.pump_us_per_record", "us", "lower"),
    ("cluster.replica.pump_stall_p99_us", "us", "lower"),
    ("cluster.replica.records_applied", "count", "lower"),
    ("cluster.replica.max_lag", "count", "lower"),
    ("cluster.replica.log_records_end", "count", "lower"),
    ("txn.gtm.snapshot_us", "us", "lower"),
    ("txn.gtm.begin_commit_us", "us", "lower"),
    ("txn.merge.merge_snapshot_us", "us", "lower"),
    ("txn.local.lco_len_end", "count", "lower"),
    ("storage.table.probe_us", "us", "lower"),
    ("storage.table.range_probe_us", "us", "lower"),
    ("storage.table.scan_us_per_krow", "us", "lower"),
    ("storage.heap.versions_per_live_row", "ratio", "lower"),
    ("telemetry.history.attached_overhead_pct", "%", "lower"),
    ("telemetry.all_attached_overhead_pct", "%", "lower"),
    ("alloc.count_per_op", "ratio", "lower"),
    ("alloc.bytes_per_op", "ratio", "lower"),
    ("alloc.live_mb_end", "MiB", "lower"),
    ("bench.gen_us_per_op", "us", "lower"),
    ("bench.timer_ns", "ns", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("share.sql_planner_pct", "%", "lower"),
    ("share.dist_scatter_pct", "%", "lower"),
    ("share.replica_pump_pct", "%", "lower"),
    ("share.engine_commit_multi_pct", "%", "lower"),
    ("share.unattributed_pct", "%", "lower"),
];

/// Chunks of the untraced reference pass `trace.overhead_pct` compares the
/// traced run's first chunks against.
const REFERENCE_CHUNKS: usize = 4;
/// Replay at most this many kept operations (evenly thinned beyond it).
const MAX_REPLAYS: usize = 4_096;

struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    fn new() -> Self {
        Self(PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, v: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name} is not declared in PER_LAYER"));
        // An empty float sum is -0.0; print one zero.
        *slot = if v.is_finite() && v != 0.0 { v } else { 0.0 };
    }
}

/// A reader that sees every version: sidecar tables hold one committed
/// version per row.
struct SeesAll;

impl Visibility for SeesAll {
    fn sees_committed(&self, _xid: Xid) -> bool {
        true
    }

    fn is_own(&self, _xid: Xid) -> bool {
        false
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        stats::median(v)
    }
}

/// Sidecar state for the SQL workloads' layer replay.
struct Sidecars {
    twin: DistDb,
    embedded: hdm_sql::Database,
    table: Table,
    ix_id: usize,
    ix_ts: usize,
    rows: i64,
}

impl Sidecars {
    fn build(seed: u64, rows: i64, analytic: bool) -> Self {
        let mut twin = data::new_dist();
        data::run_all(&mut twin, &data::load_statements(seed, rows, analytic));
        if analytic {
            twin.execute("create index on events (ts)").expect("index");
        }
        twin.execute("analyze").expect("analyze");
        twin.cluster_mut().pump_replication(0).expect("pump");
        let embedded = data::embedded_twin(seed, rows, analytic, analytic);
        let int = hdm_common::DataType::Int;
        let mut table = Table::new(
            "events",
            Schema::from_pairs(&[("id", int), ("dev", int), ("ts", int), ("val", int)]),
        );
        let ix_id = table.create_index(vec![0]).expect("index on id");
        let ix_ts = table.create_index(vec![2]).expect("index on ts");
        for id in 0..rows {
            let [dev, ts, val] = data::event(seed, id);
            let row = Row::new(vec![
                Datum::Int(id),
                Datum::Int(dev),
                Datum::Int(ts),
                Datum::Int(val),
            ]);
            table.insert(Xid(1), row).expect("sidecar insert");
        }
        Self {
            twin,
            embedded,
            table,
            ix_id,
            ix_ts,
            rows,
        }
    }
}

/// Samples the replay collects, one vector per layer metric.
#[derive(Default)]
struct ReplaySamples {
    canonicalize: Vec<f64>,
    parse: Vec<f64>,
    plan: Vec<f64>,
    /// Planner time of the statements that pay it on every execution.
    plan_paid_us: f64,
    replayed: usize,
    raw: Vec<f64>,
    prepared: Vec<f64>,
    embedded_point: Vec<f64>,
    embedded_agg: Vec<f64>,
    probe: Vec<f64>,
    range_probe: Vec<f64>,
}

fn replay<W: Workload>(side: &mut Sidecars, kept: &[W::Op]) -> ReplaySamples {
    let mut s = ReplaySamples::default();
    let step = kept.len().div_ceil(MAX_REPLAYS).max(1);
    let point = data::prepare(&mut side.twin, data::POINT_SQL);
    let emb_point = side
        .embedded
        .prepare_handle(data::POINT_SQL)
        .expect("prepare");
    for op in kept.iter().step_by(step) {
        let class = W::class(op);
        let input = W::replay_input(op);
        s.replayed += 1;
        if let Some(sql) = input.sql {
            let t = Instant::now();
            let canon = hdm_sql::canonicalize(sql);
            s.canonicalize.push(us(t));
            std::hint::black_box(&canon);
            let t = Instant::now();
            let parsed = hdm_sql::parser::parse(sql).map(|mut stmt| {
                hdm_sql::rewrite::rewrite_statement(&mut stmt);
                stmt
            });
            let parse_us = us(t);
            std::hint::black_box(&parsed);
            s.parse.push(parse_us);
            if input.select {
                let t = Instant::now();
                let plan = side.twin.plan_only(sql);
                let plan_us = (us(t) - parse_us).max(0.0);
                std::hint::black_box(&plan);
                s.plan.push(plan_us);
                if input.cold {
                    s.plan_paid_us += plan_us;
                }
            }
        }
        if let (Some(id), true) = (input.point, input.select) {
            // Rows inserted by the stream itself are not in the sidecars.
            let id = id % side.rows;
            let sql = format!("select * from events where id = {id}");
            let t = Instant::now();
            std::hint::black_box(side.twin.execute(&sql).expect("twin raw point"));
            s.raw.push(us(t));
            let t = Instant::now();
            std::hint::black_box(
                side.twin
                    .execute_prepared(&point, &[Datum::Int(id)])
                    .expect("twin prepared point"),
            );
            s.prepared.push(us(t));
            let t = Instant::now();
            std::hint::black_box(
                side.embedded
                    .execute_prepared(&emb_point, &[Datum::Int(id)])
                    .expect("embedded point"),
            );
            s.embedded_point.push(us(t));
        }
        if let Some(id) = input.point {
            let key = vec![Datum::Int(id % side.rows)];
            let t = Instant::now();
            std::hint::black_box(side.table.probe(side.ix_id, &key, &SeesAll).expect("probe"));
            s.probe.push(us(t));
        }
        if let Some((lo, hi)) = input.range {
            let (lo, hi) = (vec![Datum::Int(lo)], vec![Datum::Int(hi)]);
            let t = Instant::now();
            std::hint::black_box(
                side.table
                    .range_probe(
                        side.ix_ts,
                        std::ops::Bound::Included(&lo),
                        std::ops::Bound::Excluded(&hi),
                        &SeesAll,
                    )
                    .expect("range probe"),
            );
            s.range_probe.push(us(t));
        }
        if class == Class::ScatterAgg {
            if let Some(sql) = input.sql {
                let t = Instant::now();
                std::hint::black_box(side.embedded.execute(sql).expect("embedded aggregate"));
                s.embedded_agg.push(us(t));
            }
        }
    }
    s
}

/// Wall time of `n` prepared point reads, nanoseconds.
fn time_points(db: &mut DistDb, handle: &hdm_sql::StmtHandle, n: i64, salt: i64, rows: i64) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        let id = (i * 7_919 + salt * 104_729) % rows;
        std::hint::black_box(
            db.execute_prepared(handle, &[Datum::Int(id)])
                .expect("point"),
        );
    }
    t.elapsed().as_nanos() as f64
}

/// BENCH_10's method: both states measured in adjacent same-size chunks, so
/// clock drift cancels, and the median pair ratio shrugs off a burst that
/// hits one chunk. `chunk_ns(on, salt)` times one chunk in the given state.
/// Which state goes first alternates, so whatever the first chunk of a pair
/// leaves warm favours each state equally often.
fn paired_overhead_pct(pairs: i64, mut chunk_ns: impl FnMut(bool, i64) -> f64) -> f64 {
    let ratios: Vec<f64> = (0..pairs)
        .map(|pair| {
            let on_first = pair % 2 == 1;
            let first = chunk_ns(on_first, 2 * pair);
            let second = chunk_ns(!on_first, 2 * pair + 1);
            if on_first {
                first / second
            } else {
                second / first
            }
        })
        .collect();
    (stats::median(&ratios) - 1.0) * 100.0
}

/// The two telemetry gates, on prepared point reads against sidecars:
/// history alone (aim 4's ≤5% gate), toggled on one database; and telemetry,
/// recorder, history and profiling together, which cannot all be detached
/// again, on one database against a plain twin.
fn telemetry_overheads(seed: u64, rows: i64, m: &mut Metrics) {
    use hdm_telemetry::{HistoryConfig, RecorderConfig, SharedHistory, SharedRecorder, Telemetry};
    let build = || {
        let mut db = data::new_dist();
        data::run_all(&mut db, &data::load_statements(seed, rows, false));
        db.execute("analyze").expect("analyze");
        let handle = data::prepare(&mut db, data::POINT_SQL);
        (db, handle)
    };
    let history = || {
        SharedHistory::new(HistoryConfig {
            every_stmts: 256,
            ..HistoryConfig::default()
        })
    };
    let (mut plain, handle) = build();
    let h = history();
    let pct = paired_overhead_pct(30, |on, salt| {
        if on {
            plain.attach_history(h.clone());
        } else {
            plain.detach_history();
        }
        time_points(&mut plain, &handle, 2_000, salt, rows)
    });
    m.set("telemetry.history.attached_overhead_pct", pct);
    plain.detach_history();

    let (mut all, handle_all) = build();
    all.attach_telemetry(&Telemetry::wall());
    all.attach_recorder(SharedRecorder::new(RecorderConfig::default()));
    all.attach_history(history());
    all.set_profiling(true);
    // Far off the fast path, so few short chunks resolve it.
    let pct = paired_overhead_pct(10, |on, salt| {
        if on {
            time_points(&mut all, &handle_all, 500, salt, rows)
        } else {
            time_points(&mut plain, &handle, 500, salt, rows)
        }
    });
    m.set("telemetry.all_attached_overhead_pct", pct);
}

/// `txn.*`: replay on a bare `Gtm` and on `merge_snapshot` with inputs as
/// large as the busiest data node's own.
fn txn_layers(cluster: &Cluster, m: &mut Metrics) {
    let mut lco_len = 0usize;
    let mut map_len = 0usize;
    for shard in cluster.shard_map().all() {
        let mgr = cluster.node(shard).mgr();
        lco_len = lco_len.max(mgr.lco().len());
        map_len = map_len.max(mgr.xid_map().len());
    }
    m.set("txn.local.lco_len_end", lco_len as f64);

    let mut gtm = Gtm::new();
    // A few transactions in flight, as a multi-shard begin finds them.
    let open: Vec<Xid> = (0..4).map(|_| gtm.begin()).collect();
    let mut snap_us = Vec::new();
    let mut begin_commit_us = Vec::new();
    for _ in 0..2_000 {
        let t = Instant::now();
        std::hint::black_box(gtm.snapshot());
        snap_us.push(us(t));
        let t = Instant::now();
        let g = gtm.begin();
        gtm.commit(g).expect("sidecar gtm commit");
        begin_commit_us.push(us(t));
    }
    std::hint::black_box(&open);
    m.set("txn.gtm.snapshot_us", stats::median(&snap_us));
    m.set("txn.gtm.begin_commit_us", stats::median(&begin_commit_us));

    // Local commits 1..=lco_len in commit order; the last `map_len` of them
    // are legs of global transactions, all committed and visible.
    let lco: Vec<Xid> = (1..=lco_len as u64).map(Xid).collect();
    let first_global = lco_len.saturating_sub(map_len) as u64;
    let xid_map: HashMap<Xid, Xid> = (first_global..lco_len as u64)
        .map(|l| (Xid(1_000_000 + l), Xid(l + 1)))
        .collect();
    let next = Xid(lco_len as u64 + 1);
    let global = Snapshot::capture(Xid(2_000_000 + lco_len as u64), []);
    let local = Snapshot::capture(next, []);
    let gxid_of = |l: Xid| (l.0 > first_global).then(|| Xid(1_000_000 + l.0 - 1));
    let committed = |_g: Xid| true;
    let mut merge_us = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        std::hint::black_box(merge_snapshot(&MergeInputs {
            global: &global,
            local: &local,
            lco: &lco,
            xid_map: &xid_map,
            gxid_of: &gxid_of,
            globally_committed: &committed,
        }));
        merge_us.push(us(t));
    }
    m.set("txn.merge.merge_snapshot_us", stats::median(&merge_us));
}

fn versions_of(cluster: &Cluster) -> u64 {
    cluster
        .shard_map()
        .all()
        .map(|s| {
            let node = cluster.node(s);
            let sql: usize = ["events", "devs"]
                .iter()
                .filter_map(|t| node.sql_table(t).ok())
                .map(|t| t.heap().version_count())
                .sum();
            (node.version_count() + sql) as u64
        })
        .sum()
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn counter_metrics(
    m: &mut Metrics,
    ops: u64,
    rows_returned: u64,
    d0: DistCounters,
    d1: DistCounters,
    c0: ClusterCounters,
    c1: ClusterCounters,
) {
    let stmts = (d1.single_shard_stmts + d1.multi_shard_stmts)
        - (d0.single_shard_stmts + d0.multi_shard_stmts);
    let scans = (d1.pruned_scans + d1.scatter_scans) - (d0.pruned_scans + d0.scatter_scans);
    m.set(
        "cluster.dist.rows_exchanged_per_row_returned",
        ratio(d1.rows_exchanged - d0.rows_exchanged, rows_returned),
    );
    m.set(
        "cluster.dist.fragments_per_stmt",
        ratio(d1.fragments_run - d0.fragments_run, stmts),
    );
    m.set(
        "cluster.dist.pruned_ratio",
        ratio(d1.pruned_scans - d0.pruned_scans, scans),
    );
    m.set(
        "cluster.dist.index_probes_per_stmt",
        ratio(d1.index_probes - d0.index_probes, stmts),
    );
    m.set(
        "cluster.dist.multi_shard_ratio",
        ratio(d1.multi_shard_stmts - d0.multi_shard_stmts, stmts),
    );
    m.set(
        "cluster.dist.stmt_retries",
        (d1.stmt_retries - d0.stmt_retries) as f64,
    );
    m.set(
        "cluster.dist.dedup_hits",
        (d1.dedup_hits - d0.dedup_hits) as f64,
    );
    m.set(
        "cluster.dist.failovers",
        (d1.failovers - d0.failovers) as f64,
    );
    m.set(
        "cluster.engine.gtm_interactions_per_txn",
        ratio(c1.gtm_interactions - c0.gtm_interactions, ops),
    );
    m.set(
        "cluster.engine.merges_per_txn",
        ratio(c1.merges - c0.merges, ops),
    );
    m.set(
        "cluster.engine.upgrade_waits",
        (c1.upgrade_waits - c0.upgrade_waits) as f64,
    );
    m.set(
        "cluster.engine.downgrades",
        (c1.downgrades - c0.downgrades) as f64,
    );
    m.set("cluster.engine.aborts", (c1.aborts - c0.aborts) as f64);
    m.set(
        "cluster.engine.promotions",
        (c1.promotions - c0.promotions) as f64,
    );
    m.set("cluster.engine.rejoins", (c1.rejoins - c0.rejoins) as f64);
}

/// Share of the timed wall time inside each span class (self time), plus the
/// planner's share as the replay estimates it.
fn share_table(out: &mut Outcome, m: &mut Metrics, tracer: &Tracer, wall_ns: u64, planner_ns: f64) {
    let pct = |ns: f64| ns / wall_ns as f64 * 100.0;
    let selfs = tracer.self_time_ns();
    let of = |classes: &[Class]| -> f64 {
        selfs
            .iter()
            .filter(|(c, _, _)| classes.contains(c))
            .map(|&(_, ns, _)| ns as f64)
            .sum()
    };
    out.note("share of timed wall time by span class (self time):".into());
    let mut attributed = 0.0;
    for &(class, ns, n) in &selfs {
        attributed += ns as f64;
        out.note(format!(
            "  {:<34} {:>6.2}%  {n} spans",
            class.name(),
            pct(ns as f64)
        ));
    }
    out.note(format!(
        "  {:<34} {:>6.2}%  (replayed plan_only on statements no cache can hold; inside the classes above)",
        "sql.planner",
        pct(planner_ns)
    ));
    out.note(format!(
        "  {:<34} {:>6.2}%  (loop, clock reads, result checks)",
        "unattributed",
        pct(wall_ns as f64 - attributed)
    ));
    m.set("share.sql_planner_pct", pct(planner_ns));
    m.set(
        "share.dist_scatter_pct",
        pct(of(&[Class::ScatterAgg, Class::GroupBy, Class::Join])),
    );
    m.set("share.replica_pump_pct", pct(of(&[Class::Pump])));
    m.set(
        "share.engine_commit_multi_pct",
        pct(of(&[Class::CommitMulti])),
    );
    m.set("share.unattributed_pct", pct(wall_ns as f64 - attributed));
}

fn timer_ns() -> f64 {
    const N: u32 = 200_000;
    let t = Instant::now();
    for _ in 0..N {
        std::hint::black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / N as f64
}

pub fn run_traced<W: Workload>(args: &Args) -> Outcome
where
    W::Op: Clone,
{
    let sizes: Sizes = workload::sizes_for::<W>(args.seconds, args.smoke);
    let per_chunk = sizes.ops / CHUNKS;
    let mut m = Metrics::new();

    // Untraced reference over the first chunks of the same stream, on a
    // database of its own: what the traced run's first chunks are held to.
    let reference = {
        let mut w = W::setup(args.seed, sizes);
        let mut gen = W::Gen::new(args.seed, sizes);
        workload::drive_measured(&mut w, &mut gen, sizes, REFERENCE_CHUNKS)
    };

    let mut w = W::setup(args.seed, sizes);
    let mut gen = W::Gen::new(args.seed, sizes);
    // Operation span + pump spans + (for the KV workload) one per engine call.
    let mut tracer = Tracer::with_capacity(sizes.ops * if w.dist().is_some() { 2 } else { 9 });
    let d0 = w.dist().map(DistDb::counters).unwrap_or_default();
    let c0 = w.cluster().counters();
    alloc::enable();
    let a0 = alloc::snapshot();
    let traced = workload::drive_traced(&mut w, &mut gen, sizes, &mut tracer);
    let a1 = alloc::snapshot();
    let d1 = w.dist().map(DistDb::counters).unwrap_or_default();
    let c1 = w.cluster().counters();
    let max_lag = w.cluster().shard_lags().into_iter().max().unwrap_or(0);
    let log_end: u64 = w.cluster().log_heads().iter().sum();
    let versions = versions_of(w.cluster());
    let live = w.live_rows(&gen);
    txn_layers(w.cluster(), &mut m);
    let problems = w.finish(&gen);
    let failed = traced.failed + problems.len() as u64;
    let ops = sizes.ops as u64;
    let wall_ns: u64 = traced.chunk_ns.iter().sum();

    // Spans: the median of each class of call.
    let p50_us = tracer.p50_us_by_class();
    for (name, class) in [
        ("cluster.dist.prepared_point_us", Class::PreparedPoint),
        ("cluster.dist.raw_point_us", Class::RawPoint),
        ("cluster.dist.range_us", Class::Range),
        ("cluster.dist.scatter_agg_us", Class::ScatterAgg),
        ("cluster.dist.groupby_us", Class::GroupBy),
        ("cluster.dist.join_us", Class::Join),
        ("cluster.dist.insert_us", Class::Insert),
        ("cluster.dist.update_us", Class::Update),
        ("cluster.dist.delete_us", Class::Delete),
        ("cluster.engine.begin_single_us", Class::BeginSingle),
        ("cluster.engine.begin_multi_us", Class::BeginMulti),
        ("cluster.engine.get_us", Class::Get),
        ("cluster.engine.put_us", Class::Put),
        ("cluster.engine.commit_single_us", Class::CommitSingle),
        ("cluster.engine.commit_multi_us", Class::CommitMulti),
        ("cluster.engine.restart_node_us", Class::RestartNode),
    ] {
        m.set(name, p50_us[class as usize]);
    }
    // A promotion happens inside the statement that finds its shard down:
    // what that statement took beyond an ordinary one of its class.
    let promoting: Vec<f64> = traced
        .promoting_ops
        .iter()
        .map(|&i| {
            let s = tracer.spans()[i as usize];
            (s.dur_ns() as f64 / 1e3 - p50_us[s.class as usize]).max(0.0)
        })
        .collect();
    m.set("cluster.engine.try_failover_us", median_or_zero(&promoting));

    let mut pump_ns = tracer.durations(Class::Pump);
    let applied: u64 = traced.pump_applied.iter().sum();
    m.set(
        "cluster.replica.pump_us_per_record",
        ratio(pump_ns.iter().sum::<u64>(), applied) / 1e3,
    );
    if !pump_ns.is_empty() {
        m.set(
            "cluster.replica.pump_stall_p99_us",
            stats::percentile(&mut pump_ns, 0.99) as f64 / 1e3,
        );
    }
    m.set("cluster.replica.records_applied", applied as f64);
    m.set("cluster.replica.max_lag", max_lag as f64);
    m.set("cluster.replica.log_records_end", log_end as f64);
    m.set("storage.heap.versions_per_live_row", ratio(versions, live));

    counter_metrics(&mut m, ops, traced.rows_expected, d0, d1, c0, c1);

    m.set("alloc.count_per_op", ratio(a1.count - a0.count, ops));
    m.set("alloc.bytes_per_op", ratio(a1.bytes - a0.bytes, ops));
    m.set(
        "alloc.live_mb_end",
        (a1.live - a0.live) as f64 / (1024.0 * 1024.0),
    );
    m.set(
        "bench.gen_us_per_op",
        traced.gen_ns as f64 / 1e3 / ops as f64,
    );
    m.set("bench.timer_ns", timer_ns());
    let traced_first = stats::chunk_throughput(per_chunk, &traced.chunk_ns[..REFERENCE_CHUNKS]);
    let untraced_first = stats::chunk_throughput(per_chunk, &reference.chunk_ns);
    m.set(
        "trace.overhead_pct",
        (untraced_first / traced_first - 1.0) * 100.0,
    );

    // Layer replay on sidecar state, after the timed phase.
    let mut planner_ns = 0.0;
    let mut replayed = 0;
    if w.dist().is_some() {
        let mut side = Sidecars::build(args.seed, sizes.rows, W::ANALYTIC_SCHEMA);
        let s = replay::<W>(&mut side, &traced.kept);
        replayed = s.replayed;
        m.set(
            "sql.prepared.canonicalize_us",
            median_or_zero(&s.canonicalize),
        );
        m.set("sql.parser.parse_us", median_or_zero(&s.parse));
        m.set("sql.planner.plan_us", median_or_zero(&s.plan));
        m.set(
            "sql.prepared.raw_minus_prepared_us",
            median_or_zero(&s.raw) - median_or_zero(&s.prepared),
        );
        m.set(
            "sql.db.embedded_point_us",
            median_or_zero(&s.embedded_point),
        );
        m.set("sql.db.embedded_agg_us", median_or_zero(&s.embedded_agg));
        m.set("storage.table.probe_us", median_or_zero(&s.probe));
        m.set(
            "storage.table.range_probe_us",
            median_or_zero(&s.range_probe),
        );
        let scans: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(side.table.scan(&SeesAll).count());
                us(t) / (sizes.rows as f64 / 1e3)
            })
            .collect();
        m.set("storage.table.scan_us_per_krow", stats::median(&scans));
        // Each replayed statement stands for the operations it was drawn from.
        if s.replayed > 0 {
            planner_ns = s.plan_paid_us * 1e3 * (sizes.ops as f64 / s.replayed as f64);
        }
        if W::NAME == "point_read" {
            telemetry_overheads(args.seed, sizes.rows.min(20_000), &mut m);
        }
    }

    let mut out = Outcome::new(W::NAME, ops, failed);
    out.note(format!(
        "traced: rows {} ops {} timed {:.2}s spans {} stream {:016x} replayed {replayed} of {} kept",
        sizes.rows,
        sizes.ops,
        wall_ns as f64 / 1e9,
        tracer.spans().len(),
        traced.hash.0,
        traced.kept.len(),
    ));
    out.note(format!(
        "traced throughput {:.1} ops/s; over the first {REFERENCE_CHUNKS} chunks {traced_first:.1} ops/s traced, {untraced_first:.1} ops/s untraced",
        stats::chunk_throughput(per_chunk, &traced.chunk_ns),
    ));
    share_table(&mut out, &mut m, &tracer, wall_ns, planner_ns);
    if let Some(path) = &args.spans {
        match tracer.write_jsonl(path) {
            Ok(()) => out.note(format!("{} spans written to {path}", tracer.spans().len())),
            Err(e) => eprintln!("perf: cannot write spans to {path}: {e}"),
        }
    }
    for &(name, _, _) in &PER_LAYER {
        out.metric(name, m.0[name]);
    }
    out.problems.extend(problems);
    out
}
