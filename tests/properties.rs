//! Property-based tests of the edf model's core guarantees:
//!
//! - convergence: the final state equals a one-shot exact computation for
//!   arbitrary data and partitionings,
//! - partition-order invariance (the CI experiment's premise, §8.5),
//! - merge `⊕` associativity for aggregate intrinsic states,
//! - kernel invariants (filter/sort/take) on random frames,
//! - growth-model recovery of monomial powers.

use proptest::prelude::*;
use std::sync::Arc;
use wake::core::agg::{AggSpec, AggStore, ScaleContext};
use wake::core::graph::QueryGraph;
use wake::core::growth::GrowthModel;
use wake::core::update::UpdateKind;
use wake::data::{Column, DataFrame, DataType, Field, MemorySource, Schema, Value};
use wake::engine::EngineConfig;
use wake::expr::col;
use wake_engine::SeriesExt;

fn kv_frame(rows: &[(i64, f64)]) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]));
    DataFrame::new(
        schema,
        vec![
            Column::from_i64(rows.iter().map(|r| r.0).collect()),
            Column::from_f64(rows.iter().map(|r| r.1).collect()),
        ],
    )
    .unwrap()
}

fn run_sum_by_key(rows: &[(i64, f64)], per_part: usize) -> DataFrame {
    let frame = kv_frame(rows);
    let src = MemorySource::from_frame("t", &frame, per_part, vec![], None).unwrap();
    let mut g = QueryGraph::new();
    let r = g.read(src);
    let a = g.agg(
        r,
        vec!["k"],
        vec![
            AggSpec::sum(col("v"), "s"),
            AggSpec::count_star("n"),
            AggSpec::min(col("v"), "mn"),
            AggSpec::max(col("v"), "mx"),
            AggSpec::count_distinct(col("v"), "d"),
        ],
    );
    g.sink(a);
    EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap()
        .final_frame()
        .as_ref()
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn convergence_to_exact_for_any_partitioning(
        rows in prop::collection::vec((0i64..8, -100.0f64..100.0), 1..200),
        per_part in 1usize..40,
    ) {
        let partitioned = run_sum_by_key(&rows, per_part);
        let oneshot = run_sum_by_key(&rows, rows.len().max(1));
        prop_assert_eq!(&partitioned, &oneshot);
        // And both match a direct computation.
        let mut sums: std::collections::BTreeMap<i64, f64> = Default::default();
        for (k, v) in &rows {
            *sums.entry(*k).or_default() += v;
        }
        prop_assert_eq!(partitioned.num_rows(), sums.len());
        for (i, (k, s)) in sums.iter().enumerate() {
            prop_assert_eq!(partitioned.value(i, "k").unwrap(), Value::Int(*k));
            let got = partitioned.value(i, "s").unwrap().as_f64().unwrap();
            prop_assert!((got - s).abs() < 1e-6);
        }
    }

    #[test]
    fn partition_order_invariance(
        rows in prop::collection::vec((0i64..5, 0.0f64..50.0), 8..120),
        seed in 0u64..1000,
    ) {
        let frame = kv_frame(&rows);
        let src = MemorySource::from_frame("t", &frame, 7, vec![], None).unwrap();
        let n = wake::data::TableSource::meta(&src).num_partitions();
        // Deterministic pseudo-shuffle of partition order.
        let mut order: Vec<usize> = (0..n).collect();
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        for i in (1..n).rev() {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            order.swap(i, (s as usize) % (i + 1));
        }
        let shuffled = src.shuffled_partitions(&order).unwrap();
        let run = |src: MemorySource| {
            let mut g = QueryGraph::new();
            let r = g.read(src);
            let a = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
            g.sink(a);
            let series = EngineConfig::stepped().start(g).unwrap().collect_series().unwrap();
            series.final_frame().as_ref().clone()
        };
        let a = run(src);
        let b = run(shuffled);
        // Equal up to floating-point summation order (within a few ulps).
        prop_assert_eq!(a.num_rows(), b.num_rows());
        for i in 0..a.num_rows() {
            prop_assert_eq!(a.value(i, "k").unwrap(), b.value(i, "k").unwrap());
            let (x, y) = (
                a.value(i, "s").unwrap().as_f64().unwrap(),
                b.value(i, "s").unwrap().as_f64().unwrap(),
            );
            prop_assert!((x - y).abs() <= 1e-9 * (1.0 + x.abs()), "{} vs {}", x, y);
        }
    }

    #[test]
    fn merge_is_associative_and_commutative_in_value(
        xs in prop::collection::vec(-50.0f64..50.0, 1..40),
        split in 1usize..39,
    ) {
        // The engine's own kernels: fold through `fold_column`, read
        // through `finalize_column`, for every aggregate kind.
        let split = split.min(xs.len() - 1).max(1);
        let ws: Vec<f64> = xs.iter().map(|x| x.abs() % 3.0 + 0.5).collect();
        let (x, w) = (Column::from_f64(xs.clone()), Column::from_f64(ws));
        for (spec, exact) in [
            (AggSpec::count_star("a"), true),
            (AggSpec::count(col("x"), "a"), true),
            (AggSpec::min(col("x"), "a"), true),
            (AggSpec::max(col("x"), "a"), true),
            (AggSpec::count_distinct(col("x"), "a"), true),
            (AggSpec::median(col("x"), "a"), true),
            // Float sums: merging reassociates them.
            (AggSpec::sum(col("x"), "a"), false),
            (AggSpec::avg(col("x"), "a"), false),
            (AggSpec::weighted_avg(col("x"), col("w"), "a"), false),
            (AggSpec::var(col("x"), "a"), false),
            (AggSpec::stddev(col("x"), "a"), false),
        ] {
            let fold = |start: usize, end: usize| {
                let mut st = spec.new_store(DataType::Float64);
                st.push_group();
                let rows = vec![0; end - start];
                let (xc, wc) = (x.slice(start, end), w.slice(start, end));
                st.fold_column(&rows, &xc, Some(&wc)).unwrap();
                st
            };
            let estimate = |st: &AggStore| {
                let (col, _) = st.finalize_column(&[0], &ScaleContext::exact()).unwrap();
                col.value(0)
            };
            let whole = estimate(&fold(0, xs.len()));
            // left ⊕ right
            let mut ab = fold(0, split);
            ab.merge_group(0, &fold(split, xs.len()), 0).unwrap();
            // right ⊕ left
            let mut ba = fold(split, xs.len());
            ba.merge_group(0, &fold(0, split), 0).unwrap();
            let (vab, vba) = (estimate(&ab), estimate(&ba));
            let close = |a: &Value, b: &Value| match (exact, a.as_f64(), b.as_f64()) {
                (false, Some(a), Some(b)) => (a - b).abs() < 1e-9 * (1.0 + a.abs()),
                _ => a == b,
            };
            prop_assert!(close(&vab, &whole), "{:?}: {:?} vs {:?}", spec.func, vab, whole);
            prop_assert!(close(&vba, &whole), "{:?}: {:?} vs {:?}", spec.func, vba, whole);
        }
    }

    #[test]
    fn growth_model_recovers_monomials(
        w in 0.0f64..2.5,
        c in 1.0f64..500.0,
    ) {
        let mut m = GrowthModel::for_input(UpdateKind::Delta);
        for i in 1..=12 {
            let t = i as f64 / 12.0;
            m.observe(t, c * t.powf(w));
        }
        prop_assert!((m.w() - w).abs() < 1e-6, "fit {} vs true {}", m.w(), w);
        // Extrapolation from any mid-point lands on the final value c·1^w.
        let t: f64 = 0.5;
        let x = c * t.powf(w);
        prop_assert!((m.estimate_final_cardinality(x, t) - c).abs() / c < 1e-6);
    }

    #[test]
    fn filter_sort_take_kernel_invariants(
        rows in prop::collection::vec((0i64..20, -1e6f64..1e6), 0..120),
    ) {
        let frame = kv_frame(&rows);
        // filter + complement partition the rows.
        let mask: Vec<bool> = rows.iter().map(|(k, _)| k % 2 == 0).collect();
        let inv: Vec<bool> = mask.iter().map(|b| !b).collect();
        let a = frame.filter(&mask).unwrap();
        let b = frame.filter(&inv).unwrap();
        prop_assert_eq!(a.num_rows() + b.num_rows(), frame.num_rows());
        // sort is a permutation and is ordered.
        let sorted = frame.sort_by(&["v"], &[false]).unwrap();
        prop_assert_eq!(sorted.num_rows(), frame.num_rows());
        let vs: Vec<f64> = sorted.column("v").unwrap().as_f64_slice().unwrap().to_vec();
        prop_assert!(vs.windows(2).all(|w| w[0] <= w[1]));
        let mut orig: Vec<f64> = frame.column("v").unwrap().as_f64_slice().unwrap().to_vec();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(vs, orig);
        // head truncates.
        prop_assert_eq!(frame.head(5).num_rows(), frame.num_rows().min(5));
    }
}

#[test]
fn estimates_are_unbiased_for_uniform_streams() {
    // A stream whose per-partition distribution matches the whole (the
    // paper's core assumption): every scaled estimate should be near-exact.
    let rows: Vec<(i64, f64)> = (0..400).map(|i| (i % 4, 2.5)).collect();
    let frame = kv_frame(&rows);
    let src = MemorySource::from_frame("t", &frame, 40, vec![], None).unwrap();
    let mut g = QueryGraph::new();
    let r = g.read(src);
    let a = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
    g.sink(a);
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    for est in &series {
        for row in 0..est.frame.num_rows() {
            let v = est.frame.value(row, "s").unwrap().as_f64().unwrap();
            assert!((v - 250.0).abs() < 1e-6, "estimate {v} at t={}", est.t);
        }
    }
}
