//! Criterion benches for the storage engine (FI-MPPDB's "hybrid row-column
//! storage, data compression, vectorized execution" claims): row-heap scan
//! vs columnar scan, compression codecs, and index probes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hdm_common::{row, DataType, Datum, Row, Schema, Xid};
use hdm_storage::column::ColumnStore;
use hdm_storage::compress::{encode_as, Encoding};
use hdm_storage::mvcc::FixedVisibility;
use hdm_storage::Table;
use std::hint::black_box;

const N: i64 = 50_000;

fn loaded_table() -> Table {
    let mut t = Table::new(
        "sales",
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("region", DataType::Int),
            ("amount", DataType::Int),
        ]),
    );
    t.create_index(vec![0]).unwrap();
    let x = Xid(1);
    for i in 0..N {
        t.insert(x, row![i, i % 8, (i * 37) % 10_000]).unwrap();
    }
    t
}

fn rows() -> Vec<Row> {
    (0..N).map(|i| row![i, i % 8, (i * 37) % 10_000]).collect()
}

/// Row-store scan vs columnar single-column scan (the hybrid claim).
fn bench_scan_paths(c: &mut Criterion) {
    let table = loaded_table();
    let judge = FixedVisibility::new([Xid(1)], None);
    let col = ColumnStore::from_rows(
        Schema::from_pairs(&[
            ("id", DataType::Int),
            ("region", DataType::Int),
            ("amount", DataType::Int),
        ]),
        &rows(),
    )
    .unwrap();

    let mut g = c.benchmark_group("scan_sum_amount");
    g.bench_function("row_heap", |b| {
        b.iter(|| {
            let mut sum = 0i64;
            for (_, r) in table.scan(&judge) {
                sum += r.values()[2].as_int().unwrap();
            }
            black_box(sum)
        })
    });
    g.bench_function("column_store", |b| {
        b.iter(|| {
            let mut sum = 0i64;
            col.scan_column(2, |_, v| sum += v.as_int().unwrap())
                .unwrap();
            black_box(sum)
        })
    });
    g.finish();
}

/// Codec encode/decode throughput per data shape.
fn bench_codecs(c: &mut Criterion) {
    let sequential: Vec<Datum> = (0..10_000).map(Datum::Int).collect();
    let low_card: Vec<Datum> = (0..10_000).map(|i| Datum::Int(i % 4)).collect();
    let mut g = c.benchmark_group("codec");
    for (name, data, enc) in [
        ("delta_sequential", &sequential, Encoding::DeltaI64),
        ("rle_low_cardinality", &low_card, Encoding::Rle),
        ("dict_low_cardinality", &low_card, Encoding::Dict),
        ("plain", &sequential, Encoding::Plain),
    ] {
        g.bench_with_input(BenchmarkId::new("encode", name), &enc, |b, &enc| {
            b.iter(|| black_box(encode_as(black_box(data), enc).unwrap()))
        });
        let chunk = encode_as(data, enc).unwrap();
        g.bench_with_input(BenchmarkId::new("decode", name), &chunk, |b, chunk| {
            b.iter(|| black_box(chunk.decode()))
        });
    }
    g.finish();
}

/// Index probe vs full scan for point lookups.
fn bench_point_lookup(c: &mut Criterion) {
    let table = loaded_table();
    let judge = FixedVisibility::new([Xid(1)], None);
    let mut g = c.benchmark_group("point_lookup");
    g.bench_function("index_probe", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % N;
            black_box(table.probe(0, &[Datum::Int(k)], &judge).unwrap())
        })
    });
    g.bench_function("seq_scan_filter", |b| {
        let mut k = 0i64;
        b.iter(|| {
            k = (k + 7919) % N;
            let hit = table
                .scan(&judge)
                .find(|(_, r)| r.values()[0].as_int() == Some(k));
            black_box(hit)
        })
    });
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
    targets = bench_scan_paths, bench_codecs, bench_point_lookup);
criterion_main!(benches);
