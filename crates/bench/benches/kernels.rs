//! Criterion micro-benchmarks for the data-frame kernels that dominate
//! Wake's per-partition cost: filter masks, gathers, sorts, expression
//! evaluation, CSV decode — and the hash-key kernels behind join and
//! group-by, benchmarked against the per-row `Row`-materialisation
//! strategy they replaced.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use std::sync::Arc;
use wake_core::ops::key_index::{GroupIndex, KeyIndex};
use wake_data::hash::{hash_keys, keys_equal, KeyStore};
use wake_data::{Column, DataFrame, DataType, Field, Row, Schema};
use wake_expr::{col, eval, eval_mask, lit_f64};

fn frame(n: usize) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
        Field::new("s", DataType::Utf8),
    ]));
    DataFrame::new(
        schema,
        vec![
            Column::from_i64((0..n as i64).map(|i| i % 97).collect()),
            Column::from_f64((0..n).map(|i| (i % 1013) as f64 * 0.5).collect()),
            Column::from_str_iter((0..n).map(|i| format!("string-{}", i % 31))),
        ],
    )
    .unwrap()
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    for &n in &[10_000usize, 100_000] {
        let df = frame(n);
        let mask: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        group.bench_with_input(BenchmarkId::new("filter", n), &df, |b, df| {
            b.iter(|| black_box(df.filter(&mask).unwrap()))
        });
        let idx: Vec<usize> = (0..n).step_by(7).collect();
        group.bench_with_input(BenchmarkId::new("take", n), &df, |b, df| {
            b.iter(|| black_box(df.take(&idx)))
        });
        group.bench_with_input(BenchmarkId::new("sort_two_keys", n), &df, |b, df| {
            b.iter(|| black_box(df.sort_by(&["k", "v"], &[false, true]).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("concat_self", n), &df, |b, df| {
            b.iter(|| black_box(DataFrame::concat(&[df, df]).unwrap()))
        });
    }
    group.finish();
}

fn bench_expressions(c: &mut Criterion) {
    let mut group = c.benchmark_group("expressions");
    group.sample_size(30);
    let df = frame(100_000);
    let arith = col("v").mul(lit_f64(2.0)).add(col("k").mul(lit_f64(0.1)));
    group.bench_function("arith_fast_path", |b| {
        b.iter(|| black_box(eval(&arith, &df).unwrap()))
    });
    let pred = col("v")
        .gt(lit_f64(100.0))
        .and(col("k").lt(wake_expr::lit_i64(50)));
    group.bench_function("predicate_mask", |b| {
        b.iter(|| black_box(eval_mask(&pred, &df).unwrap()))
    });
    let like = col("s").like("string-1%");
    group.bench_function("like_scan", |b| {
        b.iter(|| black_box(eval_mask(&like, &df).unwrap()))
    });
    group.finish();
}

fn bench_csv(c: &mut Criterion) {
    let df = frame(20_000);
    let mut buf = Vec::new();
    wake_data::csv::write_csv(&df, &mut buf).unwrap();
    let schema = df.schema().clone();
    c.bench_function("csv/read_20k_rows", |b| {
        b.iter(|| black_box(wake_data::csv::read_csv(schema.clone(), &buf[..]).unwrap()))
    });
}

/// Row-hash kernel vs per-row `Row` extraction (the old key path).
fn bench_hash_keys(c: &mut Criterion) {
    let mut group = c.benchmark_group("hash_keys");
    group.sample_size(20);
    for &n in &[10_000usize, 100_000] {
        let df = frame(n);
        let keys = [0usize, 2]; // Int64 + Utf8 multi-column key
        group.bench_with_input(BenchmarkId::new("vectorized", n), &df, |b, df| {
            b.iter(|| black_box(hash_keys(df, &keys)))
        });
        group.bench_with_input(BenchmarkId::new("row_materialize", n), &df, |b, df| {
            b.iter(|| {
                let rows: Vec<Row> = (0..df.num_rows()).map(|i| df.key_at(i, &keys)).collect();
                black_box(rows)
            })
        });
    }
    group.finish();
}

/// Hash-join build+probe: vectorized hash index vs `HashMap<Row, _>`.
fn bench_join_build_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_build_probe");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        let build_df = frame(n);
        let probe_df = frame(n);
        let keys = [0usize];
        group.bench_with_input(
            BenchmarkId::new("vectorized", n),
            &(&build_df, &probe_df),
            |b, (build_df, probe_df)| {
                b.iter(|| {
                    let bh = hash_keys(build_df, &keys);
                    let mut index = KeyIndex::new();
                    for ri in 0..build_df.num_rows() {
                        if !bh.is_null(ri) {
                            index.insert(bh.hashes[ri], (0, ri as u32), |(_, oi)| {
                                keys_equal(build_df, ri, &keys, build_df, oi as usize, &keys)
                            });
                        }
                    }
                    let ph = hash_keys(probe_df, &keys);
                    let mut matches = 0usize;
                    for ri in 0..probe_df.num_rows() {
                        if ph.is_null(ri) {
                            continue;
                        }
                        matches += index
                            .matches(ph.hashes[ri], |(_, bi)| {
                                keys_equal(probe_df, ri, &keys, build_df, bi as usize, &keys)
                            })
                            .len();
                    }
                    black_box(matches)
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("row_keyed", n),
            &(&build_df, &probe_df),
            |b, (build_df, probe_df)| {
                b.iter(|| {
                    let mut index: HashMap<Row, Vec<u32>> = HashMap::new();
                    for ri in 0..build_df.num_rows() {
                        let key = build_df.key_at(ri, &keys);
                        if !key.has_null() {
                            index.entry(key).or_default().push(ri as u32);
                        }
                    }
                    let mut matches = 0usize;
                    for ri in 0..probe_df.num_rows() {
                        let key = probe_df.key_at(ri, &keys);
                        if !key.has_null() {
                            if let Some(ms) = index.get(&key) {
                                matches += ms.len();
                            }
                        }
                    }
                    black_box(matches)
                })
            },
        );
    }
    group.finish();
}

/// Group-by accumulation: hash index + typed key store vs `HashMap<Row, _>`.
fn bench_group_by(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_by");
    group.sample_size(10);
    for &n in &[10_000usize, 100_000] {
        let df = frame(n);
        let keys = [0usize, 2]; // 97 × 31 distinct groups
        let values: Vec<f64> = df.column_at(1).as_f64_slice().unwrap().to_vec();
        group.bench_with_input(BenchmarkId::new("vectorized", n), &df, |b, df| {
            b.iter(|| {
                let kh = hash_keys(df, &keys);
                let mut index = GroupIndex::new();
                let mut store = KeyStore::for_types(&[DataType::Int64, DataType::Utf8]);
                let mut sums: Vec<f64> = Vec::new();
                for (row, &value) in values.iter().enumerate() {
                    let h = kh.hashes[row];
                    let slot = index
                        .candidates(h)
                        .iter()
                        .copied()
                        .find(|&g| store.eq_row(g, df, &keys, row))
                        .unwrap_or_else(|| {
                            let g = store.push_row(df, &keys, row).unwrap();
                            index.insert(h, g);
                            sums.push(0.0);
                            g
                        });
                    sums[slot as usize] += value;
                }
                black_box(sums)
            })
        });
        group.bench_with_input(BenchmarkId::new("row_keyed", n), &df, |b, df| {
            b.iter(|| {
                let mut groups: HashMap<Row, f64> = HashMap::new();
                for (row, &value) in values.iter().enumerate() {
                    let key = df.key_at(row, &keys);
                    *groups.entry(key).or_default() += value;
                }
                black_box(groups)
            })
        });
    }
    group.finish();
}

/// Hash-range sharded operators at n=1M: the partition-parallel `AggOp`
/// fold+snapshot and symmetric-hash-join build+probe, S=1 (the serial
/// plan, byte-identical to the unsharded path) vs S=4 worker shards in
/// pool mode. On a multi-core host the S=4 rows should scale with cores;
/// on a single-core host they measure the sharding overhead.
fn bench_sharded_operators(c: &mut Criterion) {
    use wake_core::agg::AggSpec;
    use wake_core::ops::{AggOp, JoinOp, Operator};
    use wake_core::{EdfMeta, JoinKind, Progress, Update, UpdateKind};
    use wake_expr::col;

    let mut group = c.benchmark_group("sharded_operators");
    group.sample_size(10);
    let n: usize = if criterion::smoke_mode() {
        100_000
    } else {
        1_000_000
    };

    // TPC-H-shaped group-by: ~100k distinct keys over 1M rows (Q18-style
    // high cardinality), sum + count + min per group.
    let gb_schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]));
    let gb_frame = Arc::new(
        DataFrame::new(
            gb_schema.clone(),
            vec![
                Column::from_i64((0..n as i64).map(|i| (i * 11) % (n as i64 / 10)).collect()),
                Column::from_f64((0..n).map(|i| (i % 1013) as f64 * 0.5).collect()),
            ],
        )
        .unwrap(),
    );
    let gb_meta = EdfMeta::new(gb_schema, vec![], UpdateKind::Delta);
    let gb_update = Update {
        frame: gb_frame,
        progress: Progress::single(0, n as u64, n as u64),
        kind: UpdateKind::Delta,
    };
    for shards in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("group_by_1m", format!("S{shards}")),
            &gb_update,
            |b, upd| {
                b.iter(|| {
                    let mut op = AggOp::new(
                        &gb_meta,
                        vec!["k".into()],
                        vec![
                            AggSpec::sum(col("v"), "s"),
                            AggSpec::count_star("n"),
                            AggSpec::min(col("v"), "mn"),
                        ],
                        false,
                        None,
                        shards,
                        None,
                    )
                    .unwrap();
                    black_box(op.on_update(0, upd).unwrap())
                })
            },
        );
    }

    // Global (zero-key) aggregate: every row folds into the one group, as
    // in TPC-H Q6/Q14/Q17/Q19.
    group.bench_with_input(
        BenchmarkId::new("global_agg_1m", "S1"),
        &gb_update,
        |b, upd| {
            b.iter(|| {
                let mut op = AggOp::new(
                    &gb_meta,
                    vec![],
                    vec![
                        AggSpec::sum(col("v"), "s"),
                        AggSpec::count_star("n"),
                        AggSpec::min(col("v"), "mn"),
                        AggSpec::avg(col("v"), "a"),
                        AggSpec::count_distinct(col("v"), "cd"),
                    ],
                    false,
                    None,
                    1,
                    None,
                )
                .unwrap();
                black_box(op.on_update(0, upd).unwrap())
            })
        },
    );

    // Symmetric hash join: 1M unique build keys, 1M probes with ~50% hit
    // rate (FK-style), matched pairs gathered into output frames.
    let j_schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]));
    let mk_side = |offset: i64| {
        Arc::new(
            DataFrame::new(
                j_schema.clone(),
                vec![
                    Column::from_i64((0..n as i64).map(|i| i * 2 + offset).collect()),
                    Column::from_f64((0..n).map(|i| i as f64).collect()),
                ],
            )
            .unwrap(),
        )
    };
    let left = mk_side(0); // even keys
    let right = mk_side(n as i64 / 2); // half overlap with left
    let j_meta = EdfMeta::new(j_schema, vec![], UpdateKind::Delta);
    let left_upd = Update {
        frame: left,
        progress: Progress::single(0, n as u64, n as u64),
        kind: UpdateKind::Delta,
    };
    let right_upd = Update {
        frame: right,
        progress: Progress::single(1, n as u64, n as u64),
        kind: UpdateKind::Delta,
    };
    for shards in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("join_build_probe_1m", format!("S{shards}")),
            &(&left_upd, &right_upd),
            |b, (l, r)| {
                b.iter(|| {
                    let mut op = JoinOp::new(
                        &j_meta,
                        &j_meta,
                        vec!["k".into()],
                        vec!["k".into()],
                        JoinKind::Inner,
                        shards,
                        None,
                    )
                    .unwrap();
                    op.on_update(0, l).unwrap(); // build
                    black_box(op.on_update(1, r).unwrap()) // probe + gather
                })
            },
        );
    }
    group.finish();
}

/// Order-by refresh on a growing buffer: `SortOp` keeps its state as one
/// sorted run and binary-merges each delta (O(n + d) typed comparisons),
/// against the replaced strategy — concat everything seen and re-sort
/// with the `Value` comparator on every update. Same output frames
/// (asserted by the operator's equivalence tests); the interesting
/// number is the per-refresh cost once the buffer is large.
fn bench_sort_refresh(c: &mut Criterion) {
    use wake_core::ops::{Operator, SortOp};
    use wake_core::{EdfMeta, Progress, Update, UpdateKind};
    let mut group = c.benchmark_group("sort_refresh");
    group.sample_size(10);
    let n: usize = if criterion::smoke_mode() {
        100_000
    } else {
        1_000_000
    };
    let steps = 10;
    let per = n / steps;
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]));
    let updates: Vec<Update> = (0..steps)
        .map(|s| {
            let frame = Arc::new(
                DataFrame::new(
                    schema.clone(),
                    vec![
                        Column::from_i64(
                            (0..per as i64)
                                .map(|i| (i * 17 + s as i64) % 4093)
                                .collect(),
                        ),
                        Column::from_f64(
                            (0..per)
                                .map(|i| ((i * 7 + s) % 9973) as f64 * 0.25)
                                .collect(),
                        ),
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
    let meta = EdfMeta::new(schema.clone(), vec![], UpdateKind::Delta);
    group.bench_with_input(
        BenchmarkId::new("order_by_1m", "merge_sorted_run"),
        &updates,
        |b, updates| {
            b.iter(|| {
                let mut op =
                    SortOp::new(&meta, vec!["v".into(), "k".into()], vec![true, false], None)
                        .unwrap();
                let mut rows = 0;
                for u in updates {
                    rows = op.on_update(0, u).unwrap()[0].frame.num_rows();
                }
                black_box(rows)
            })
        },
    );
    // The replaced strategy: buffer the frames, concat + full re-sort on
    // every refresh.
    group.bench_with_input(
        BenchmarkId::new("order_by_1m", "full_resort"),
        &updates,
        |b, updates| {
            b.iter(|| {
                let mut seen: Vec<Arc<DataFrame>> = Vec::new();
                let mut rows = 0;
                for u in updates {
                    seen.push(u.frame.clone());
                    let refs: Vec<&DataFrame> = seen.iter().map(|f| f.as_ref()).collect();
                    let all = DataFrame::concat(&refs).unwrap();
                    rows = black_box(all.sort_by(&["v", "k"], &[true, false]).unwrap()).num_rows();
                }
                black_box(rows)
            })
        },
    );
    // Tie-break sanity so the comparison stays honest if either path is
    // edited: both strategies must order one small refresh identically.
    {
        let mut op =
            SortOp::new(&meta, vec!["v".into(), "k".into()], vec![true, false], None).unwrap();
        let mut out = None;
        for u in updates.iter().take(2) {
            out = Some(op.on_update(0, u).unwrap().remove(0).frame);
        }
        let refs: Vec<&DataFrame> = updates[..2].iter().map(|u| u.frame.as_ref()).collect();
        let all = DataFrame::concat(&refs).unwrap();
        let expect = all.sort_by(&["v", "k"], &[true, false]).unwrap();
        assert_eq!(out.unwrap().as_ref(), &expect);
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_expressions,
    bench_csv,
    bench_hash_keys,
    bench_join_build_probe,
    bench_group_by,
    bench_sharded_operators,
    bench_sort_refresh,
);
criterion_main!(benches);
