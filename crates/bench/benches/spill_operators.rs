//! Spill-path overhead at n=1M: the memory-governed (out-of-core) join
//! and group-by against their unbounded resident twins.
//!
//! Three configurations per operator:
//! - `unbounded`  — no budget: the resident pre-spill code path,
//! - `budget-25%` — a budget around a quarter of the resident footprint:
//!   a few partition evictions, single-pass resolution,
//! - `budget-5%`  — a deep cut: most partitions spill and the join
//!   resolution re-partitions recursively (multi-pass grace hash).
//!
//! The interesting number is the ratio to `unbounded`: that is the price
//! of finishing a query that would otherwise OOM.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
use wake_core::agg::AggSpec;
use wake_core::ops::{AggOp, JoinOp, Operator};
use wake_core::{EdfMeta, JoinKind, Progress, Update, UpdateKind};
use wake_data::{Column, DataFrame, DataType, Field, Schema};
use wake_expr::col;
use wake_store::SpillConfig;

fn kv_schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]))
}

/// Budget -> spill plan (None = unbounded).
fn plan_for(budget: Option<usize>) -> Option<wake_store::SpillPlan> {
    plan_with_ratio(budget, None)
}

/// Budget + delta-log compaction ratio -> spill plan.
fn plan_with_ratio(budget: Option<usize>, ratio: Option<f64>) -> Option<wake_store::SpillPlan> {
    budget.and_then(|b| {
        let mut cfg = SpillConfig::with_budget(b);
        cfg.delta_ratio = ratio;
        cfg.build_plan(1).expect("spill dir")
    })
}

fn bench_spill_operators(c: &mut Criterion) {
    let mut group = c.benchmark_group("spill_operators");
    group.sample_size(10);
    let n: usize = if criterion::smoke_mode() {
        100_000
    } else {
        1_000_000
    };

    // High-cardinality group-by: n/10 distinct keys over n rows.
    let gb_frame = Arc::new(
        DataFrame::new(
            kv_schema(),
            vec![
                Column::from_i64((0..n as i64).map(|i| (i * 11) % (n as i64 / 10)).collect()),
                Column::from_f64((0..n).map(|i| (i % 1013) as f64 * 0.5).collect()),
            ],
        )
        .unwrap(),
    );
    let gb_meta = EdfMeta::new(kv_schema(), vec![], UpdateKind::Delta);
    let gb_update = Update {
        frame: gb_frame,
        progress: Progress::single(0, n as u64, n as u64),
        kind: UpdateKind::Delta,
    };
    // Resident group-by state at n=1M is ~10 MB; 25% and 5% of that.
    let agg_budgets: [(&str, Option<usize>); 3] = [
        ("unbounded", None),
        ("budget-25pct", Some(5 * n / 2)),
        ("budget-5pct", Some(n / 2)),
    ];
    for (label, budget) in agg_budgets {
        group.bench_with_input(
            BenchmarkId::new("group_by_1m", label),
            &gb_update,
            |b, upd| {
                b.iter(|| {
                    let mut op = AggOp::new(
                        &gb_meta,
                        vec!["k".into()],
                        vec![AggSpec::sum(col("v"), "s"), AggSpec::count_star("n")],
                        false,
                    )
                    .unwrap()
                    .with_spill(plan_for(budget));
                    black_box(op.on_update(0, upd).unwrap())
                })
            },
        );
    }

    // Streamed group-by at a 5% budget: the shape where the write-behind
    // delta log matters. The input arrives as a sequence of updates, so
    // spilled partitions are folded into again and again — the
    // compact-on-every-fold baseline (ratio 0) rewrites each touched
    // partition per update, the delta log (default ratio) appends only
    // the touched groups and compacts periodically.
    let steps = 20;
    let per = n / steps;
    let stream_updates: Vec<Update> = (0..steps)
        .map(|s| {
            let frame = Arc::new(
                DataFrame::new(
                    kv_schema(),
                    vec![
                        Column::from_i64(
                            (0..per as i64)
                                .map(|i| ((s as i64 * per as i64 + i) * 11) % (n as i64 / 10))
                                .collect(),
                        ),
                        Column::from_f64((0..per).map(|i| (i % 1013) as f64 * 0.5).collect()),
                    ],
                )
                .unwrap(),
            );
            Update {
                frame,
                progress: Progress::single(0, ((s + 1) * per) as u64, n as u64),
                kind: UpdateKind::Delta,
            }
        })
        .collect();
    let run_stream = |ratio: Option<f64>| -> wake_store::SpillMetrics {
        let plan = plan_with_ratio(Some(n / 2), ratio).unwrap();
        let governor = plan.governor.clone();
        let mut op = AggOp::new(
            &gb_meta,
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s"), AggSpec::count_star("n")],
            false,
        )
        .unwrap()
        .with_spill(Some(plan));
        for upd in &stream_updates {
            black_box(op.on_update(0, upd).unwrap());
        }
        governor.metrics()
    };
    // The acceptance check this bench exists for: at a 5% budget the
    // delta log must rewrite fewer bytes per fold than compacting on
    // every fold (runs in `--test` smoke mode too, so it cannot rot).
    let legacy = run_stream(Some(0.0));
    let delta = run_stream(None);
    println!(
        "group_by_stream_5pct bytes written: compact-every-fold {} ({} chunks), \
         delta-log {} ({} chunks, {} delta appends / {} bytes, {} compactions)",
        legacy.spilled_bytes,
        legacy.chunks_written,
        delta.spilled_bytes,
        delta.chunks_written,
        delta.delta_chunks,
        delta.delta_bytes,
        delta.compactions
    );
    assert!(
        delta.spilled_bytes < legacy.spilled_bytes,
        "delta log must rewrite fewer bytes than compact-on-every-fold \
         ({} vs {})",
        delta.spilled_bytes,
        legacy.spilled_bytes
    );
    assert!(delta.compactions > 0 && delta.delta_bytes > 0);
    for (label, ratio) in [("compact-every-fold", Some(0.0)), ("delta-log", None)] {
        group.bench_with_input(
            BenchmarkId::new("group_by_stream_5pct", label),
            &ratio,
            |b, ratio| b.iter(|| black_box(run_stream(*ratio))),
        );
    }

    // FK-style join: n unique build keys, ~50% probe hit rate.
    let mk_side = |offset: i64| {
        Arc::new(
            DataFrame::new(
                kv_schema(),
                vec![
                    Column::from_i64((0..n as i64).map(|i| i * 2 + offset).collect()),
                    Column::from_f64((0..n).map(|i| i as f64).collect()),
                ],
            )
            .unwrap(),
        )
    };
    let j_meta = EdfMeta::new(kv_schema(), vec![], UpdateKind::Delta);
    let left_upd = Update {
        frame: mk_side(0),
        progress: Progress::single(0, n as u64, n as u64),
        kind: UpdateKind::Delta,
    };
    let right_upd = Update {
        frame: mk_side(n as i64 / 2),
        progress: Progress::single(1, n as u64, n as u64),
        kind: UpdateKind::Delta,
    };
    // Resident two-sided join state at n=1M is ~50 MB.
    let join_budgets: [(&str, Option<usize>); 3] = [
        ("unbounded", None),
        ("budget-25pct", Some(12 * n)),
        ("budget-5pct", Some(5 * n / 2)),
    ];
    for (label, budget) in join_budgets {
        group.bench_with_input(
            BenchmarkId::new("join_1m", label),
            &(&left_upd, &right_upd),
            |b, (l, r)| {
                b.iter(|| {
                    let mut op = JoinOp::new(
                        &j_meta,
                        &j_meta,
                        vec!["k".into()],
                        vec!["k".into()],
                        JoinKind::Inner,
                    )
                    .unwrap()
                    .with_spill(plan_for(budget));
                    op.on_update(0, l).unwrap(); // build
                    let probed = op.on_update(1, r).unwrap(); // probe
                    let flush = op.on_eof(1).unwrap(); // resolve spilled parts
                    let _ = op.on_eof(0).unwrap();
                    black_box((probed, flush))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_spill_operators);
criterion_main!(benches);
