//! Criterion benchmarks for the aggregate-inference layer (§5): the
//! streaming growth fit, the aggregate estimators (including the
//! Newton-solved count-distinct), and intrinsic-state merging — the paper
//! claims O(1)-per-observation fitting and small inference overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use wake_core::agg::{AggSpec, ScaleContext};
use wake_core::growth::GrowthModel;
use wake_core::update::UpdateKind;
use wake_data::{Column, DataType};
use wake_expr::col;
use wake_stats::distinct::estimate_distinct;

fn bench_growth_fit(c: &mut Criterion) {
    c.bench_function("growth/observe_1000", |b| {
        b.iter(|| {
            let mut g = GrowthModel::for_input(UpdateKind::Delta);
            for i in 1..=1000 {
                let t = i as f64 / 1000.0;
                g.observe(t, 100.0 * t.powf(0.7));
            }
            black_box(g.w())
        })
    });
    let mut g = GrowthModel::for_input(UpdateKind::Delta);
    for i in 1..=100 {
        g.observe(i as f64 / 100.0, 50.0 * (i as f64 / 100.0));
    }
    c.bench_function("growth/extrapolate", |b| {
        b.iter(|| black_box(g.estimate_final_cardinality(black_box(42.0), 0.37)))
    });
}

fn bench_estimators(c: &mut Criterion) {
    c.bench_function("estimators/count_distinct_newton", |b| {
        b.iter(|| black_box(estimate_distinct(black_box(730.0), 1000.0, 10_000.0)))
    });
    // Finalize 1000 sum states with CI variance, as one snapshot does.
    let mut store = AggSpec::sum(col("x"), "s").new_store(DataType::Float64);
    (0..1000).for_each(|_| store.push_group());
    let slots: Vec<u32> = (0..100_000).map(|i| i % 1000).collect();
    let x = Column::from_f64((0..100_000).map(|i| (i % 37) as f64).collect());
    store.fold_column(&slots, &x, None).unwrap();
    let order: Vec<u32> = (0..1000).collect();
    let ctx = ScaleContext {
        scale: 2.5,
        t: 0.4,
        w_variance: 0.003,
    };
    c.bench_function("estimators/finalize_sum_with_variance", |b| {
        b.iter(|| black_box(store.finalize_column(&order, &ctx).unwrap()))
    });
}

fn bench_state_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge");
    for spec in [
        AggSpec::sum(col("x"), "a"),
        AggSpec::avg(col("x"), "a"),
        AggSpec::count_distinct(col("x"), "a"),
    ] {
        let build = |n: usize| {
            let mut st = spec.new_store(DataType::Int64);
            st.push_group();
            let x = Column::from_i64((0..n).map(|i| (i % 251) as i64).collect());
            st.fold_column(&vec![0; n], &x, None).unwrap();
            st
        };
        let a = build(10_000);
        let bs = build(10_000);
        group.bench_function(format!("{:?}_10k", spec.func), |bch| {
            bch.iter(|| {
                let mut x = a.clone();
                x.merge_group(0, black_box(&bs), 0).unwrap();
                black_box(x)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_growth_fit,
    bench_estimators,
    bench_state_merge
);
criterion_main!(benches);
