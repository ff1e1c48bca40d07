//! Criterion benches for the edge-sync platform (§IV-B): anti-entropy
//! session cost per backlog size, and the Bluetooth-vs-Internet transfer
//! time comparison behind the paper's "at least 10X faster" claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdm_common::{DeviceId, SimDuration};
use hdm_edgesync::replica::{sync_pair, Role};
use hdm_edgesync::Replica;
use hdm_simnet::NetLink;
use std::hint::black_box;

/// Cost of one sync session as a function of backlog size.
fn bench_sync_backlog(c: &mut Criterion) {
    let mut g = c.benchmark_group("sync_session");
    for backlog in [10usize, 100, 1000] {
        g.bench_with_input(BenchmarkId::from_parameter(backlog), &backlog, |b, &n| {
            b.iter_batched(
                || {
                    let mut a = Replica::new(DeviceId::new(1), Role::Device);
                    let b = Replica::new(DeviceId::new(2), Role::Device);
                    for i in 0..n {
                        a.write(100 + i as u64, &format!("k{i}"), Some("v"))
                            .unwrap();
                    }
                    (a, b)
                },
                |(mut a, mut b)| black_box(sync_pair(&mut a, &mut b, 10_000).unwrap()),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

/// Modeled transfer latency of a 100-op sync over Bluetooth vs the cloud
/// path (per-message RTT dominated), reported as virtual time.
fn bench_link_model(c: &mut Criterion) {
    let mut g = c.benchmark_group("link_transfer_model");
    type MkLink = fn(u64) -> NetLink;
    let links: [(&str, MkLink); 2] = [
        ("bluetooth_direct", NetLink::bluetooth),
        ("internet_via_cloud", NetLink::internet),
    ];
    for (name, mk) in links {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut link = mk(7);
                let mut total = SimDuration::ZERO;
                // A sync session: vector exchange (1 RTT) + 4 batches.
                for _ in 0..5 {
                    total += link.round_trip();
                }
                black_box(total)
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
    targets = bench_sync_backlog, bench_link_model);
criterion_main!(benches);
