//! Criterion benches for the GTM-lite transaction machinery (Fig 3's
//! engine-level ablations): MergeSnapshot cost as the LCO grows, protocol
//! throughput in the functional engine, and the simulated-cluster sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdm_cluster::{make_key, Cluster, ClusterConfig, Protocol, SimConfig, WorkloadMix};
use hdm_common::{SimDuration, Xid};
use hdm_txn::{merge_with_manager, LocalTxnManager, Snapshot};
use std::hint::black_box;

/// MergeSnapshot (Algorithm 1) cost against LCO depth — the bookkeeping
/// overhead a multi-shard read pays.
fn bench_merge_snapshot(c: &mut Criterion) {
    let mut g = c.benchmark_group("merge_snapshot");
    for lco_len in [16usize, 256, 4096] {
        // A manager with `lco_len` committed transactions, 10% of them
        // multi-shard legs.
        let mut mgr = LocalTxnManager::new();
        for i in 0..lco_len {
            let x = if i % 10 == 0 {
                mgr.begin_global(Xid(10_000 + i as u64))
            } else {
                mgr.begin_local()
            };
            mgr.commit(x).unwrap();
        }
        let global = Snapshot::capture(Xid(20_000), [Xid(10_000)]);
        let local = mgr.local_snapshot();
        g.bench_with_input(BenchmarkId::from_parameter(lco_len), &lco_len, |b, _| {
            b.iter(|| {
                let out =
                    merge_with_manager(black_box(&global), black_box(&local), &mgr, |_| false);
                black_box(out)
            })
        });
    }
    g.finish();
}

/// Functional-engine transaction throughput per protocol (no virtual time:
/// pure engine cost of the two protocols).
fn bench_engine_protocols(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_txn");
    for (name, protocol, single) in [
        ("gtm_lite_single_shard", Protocol::GtmLite, true),
        ("gtm_lite_multi_shard", Protocol::GtmLite, false),
        ("baseline_single_shard", Protocol::Baseline, true),
    ] {
        g.bench_function(name, |b| {
            let mut cluster = Cluster::new(match protocol {
                Protocol::Baseline => ClusterConfig::baseline(4),
                Protocol::GtmLite => ClusterConfig::gtm_lite(4),
            });
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(1);
                let w = i % 16;
                let key = make_key(w, i % 1024);
                let r = if single {
                    cluster.bump(Some(w), key, 1)
                } else {
                    cluster.bump(None, key, 1)
                };
                black_box(r).unwrap()
            })
        });
    }
    g.finish();
}

/// One full simulated Fig 3 cell (short horizon) — wall cost of the DES.
fn bench_simulated_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig3_sim_cell");
    g.sample_size(10);
    for (name, protocol) in [
        ("lite_4nodes_ms", Protocol::GtmLite),
        ("baseline_4nodes_ms", Protocol::Baseline),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = SimConfig::new(4, protocol, WorkloadMix::ms());
                cfg.horizon = SimDuration::from_millis(20);
                black_box(hdm_cluster::sim::run_sim(cfg))
            })
        });
    }
    g.finish();
}

/// Shorter measurement windows: the full suite covers many benchmarks and
/// must finish within CI budgets; 2s windows are plenty for these scales.
fn quick_config() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(20)
}

criterion_group!(
    name = benches;
    config = quick_config();
    targets =
    bench_merge_snapshot,
    bench_engine_protocols,
    bench_simulated_cell
);
criterion_main!(benches);
