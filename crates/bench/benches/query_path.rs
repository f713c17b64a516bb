//! Criterion micro-benchmarks for the read path: the same aggregate
//! answered from seal-time batch summaries (vectorized) versus by
//! decoding every blob and folding rows (row path), and row scans against
//! a cold versus warm decoded-batch cache.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use odh_bench::query_bench_historian;

fn bench_query_path(c: &mut Criterion) {
    let (h, _, _) = query_bench_historian().unwrap();
    let full_agg = "select COUNT(*), SUM(t0), AVG(t1), MIN(t2), MAX(t3) from qb_v";
    let boundary_agg = "select COUNT(*), SUM(t0) from qb_v \
                        where timestamp between 100000000 and 900000000";
    let scan = "select t0, t1 from qb_v";
    let clear = || {
        for s in h.cluster().servers() {
            if let Ok(t) = s.table("qb") {
                t.decode_cache().clear();
            }
        }
    };

    let mut g = c.benchmark_group("query_path");
    g.sample_size(20);
    g.bench_function("agg_full_pushdown", |b| {
        b.iter(|| black_box(h.sql(full_agg).unwrap().rows.len()))
    });
    g.bench_function("agg_boundary_pushdown", |b| {
        b.iter(|| black_box(h.sql(boundary_agg).unwrap().rows.len()))
    });
    g.bench_function("agg_full_rowpath", |b| {
        h.set_vectorized(false);
        b.iter(|| black_box(h.sql(full_agg).unwrap().rows.len()));
        h.set_vectorized(true);
    });
    g.bench_function("scan_warm_cache", |b| {
        h.sql(scan).unwrap();
        b.iter(|| black_box(h.sql(scan).unwrap().rows.len()))
    });
    g.bench_function("scan_cold_cache", |b| {
        b.iter(|| {
            clear();
            black_box(h.sql(scan).unwrap().rows.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_query_path);
criterion_main!(benches);
