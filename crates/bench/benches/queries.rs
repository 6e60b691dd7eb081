//! Criterion end-to-end benchmarks: representative TPC-H queries under
//! the stepped OLA engine (the per-figure sweeps live in the `fig*`
//! binaries; these give stable regression numbers for CI).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use wake_engine::EngineConfig;
use wake_tpch::{query_by_name, synthetic, TpchData, TpchDb};

fn bench_tpch(c: &mut Criterion) {
    // Small but non-trivial: ~12k lineitem rows, 8 partitions.
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 8);
    let mut group = c.benchmark_group("tpch_sf0.002");
    group.sample_size(20);
    for name in ["q1", "q3", "q6", "q13", "q14", "q18"] {
        let spec = query_by_name(name).unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let g = (spec.build)(&db);
                black_box(
                    EngineConfig::stepped()
                        .start(g)
                        .unwrap()
                        .collect_series()
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

fn bench_deep(c: &mut Criterion) {
    let frame = synthetic::generate(50_000, 42);
    let mut group = c.benchmark_group("synthetic_deep_50k");
    group.sample_size(10);
    for depth in [0usize, 2, 4] {
        group.bench_function(format!("depth_{depth}"), |b| {
            b.iter(|| {
                let g = synthetic::deep_query(synthetic::source(&frame, 20), depth);
                black_box(
                    EngineConfig::stepped()
                        .start(g)
                        .unwrap()
                        .collect_series()
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tpch, bench_deep);
criterion_main!(benches);
