//! Criterion benches for GMDB schema evolution (Fig 11 ablations):
//! conversion cost per hop count, delta computation/application, and
//! delta-vs-whole write paths on the store.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdm_common::SplitMix64;
use hdm_gmdb::{Delta, GmdbStore, SchemaRegistry};
use hdm_workloads::mme::{generate_session, mme_schema_chain, MmeConfig};
use serde_json::json;
use std::hint::black_box;

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    for s in mme_schema_chain() {
        reg.register(s).unwrap();
    }
    reg
}

/// Conversion cost scales with hop count (V3→V5 vs V3→V8).
fn bench_conversion_hops(c: &mut Criterion) {
    let reg = registry();
    let mut rng = SplitMix64::new(1);
    let obj = generate_session(&mut rng, 3, &MmeConfig::default());
    let mut g = c.benchmark_group("conversion");
    for (label, to) in [
        ("1_hop_v3_to_v5", 5u32),
        ("2_hops_v3_to_v6", 6),
        ("4_hops_v3_to_v8", 8),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| black_box(reg.convert("mme_session", black_box(&obj), 3, to).unwrap()))
        });
    }
    g.finish();
}

/// Delta compute+apply on 5–10 KB sessions with one field changed.
fn bench_delta(c: &mut Criterion) {
    let mut rng = SplitMix64::new(2);
    let old = generate_session(&mut rng, 3, &MmeConfig::default());
    let mut new = old.clone();
    new["tracking_area"] = json!(42);
    let delta = Delta::compute(&old, &new);
    let mut g = c.benchmark_group("delta");
    g.bench_function("compute_small_change", |b| {
        b.iter(|| black_box(Delta::compute(black_box(&old), black_box(&new))))
    });
    g.bench_function("apply_small_change", |b| {
        b.iter(|| {
            let mut t = old.clone();
            delta.apply(&mut t).unwrap();
            black_box(t)
        })
    });
    g.bench_function("wire_encode", |b| b.iter(|| black_box(delta.wire_format())));
    g.finish();
}

/// Store write paths: whole-object put vs delta update.
fn bench_store_writes(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_write");
    g.sample_size(20);
    let cfg = MmeConfig::default();

    for (label, use_delta) in [("whole_object_put", false), ("delta_update", true)] {
        g.bench_with_input(BenchmarkId::from_parameter(label), &use_delta, |b, &ud| {
            let mut store = GmdbStore::new(registry());
            let mut rng = SplitMix64::new(3);
            let obj = generate_session(&mut rng, 3, &cfg);
            let key = store.put("mme_session", 3, obj.clone()).unwrap();
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                if ud {
                    let old = store.get("mme_session", &key, 3).unwrap();
                    let mut new = old.clone();
                    new["tracking_area"] = json!(i % 4096);
                    let d = Delta::compute(&old, &new);
                    black_box(store.update_delta("mme_session", &key, 3, &d).unwrap());
                } else {
                    let mut new = obj.clone();
                    new["tracking_area"] = json!(i % 4096);
                    black_box(store.put("mme_session", 3, new).unwrap());
                }
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
    targets = bench_conversion_hops, bench_delta, bench_store_writes);
criterion_main!(benches);
