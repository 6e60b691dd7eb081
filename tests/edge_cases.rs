//! Failure injection and degenerate inputs: empty tables, single rows,
//! all-null aggregation inputs, empty partitions mid-stream, zero-match
//! joins, and deeply chained snapshots. None of these may panic, and all
//! must satisfy convergence (final = exact).

use std::sync::Arc;
use wake::core::agg::AggSpec;
use wake::core::graph::{JoinKind, QueryGraph};
use wake::data::{Column, DataFrame, DataType, Field, MemorySource, Schema, Value};
use wake::engine::EngineConfig;
use wake::expr::{col, lit_f64};
use wake_engine::SeriesExt;

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]))
}

fn frame(ks: Vec<i64>, vs: Vec<f64>) -> DataFrame {
    DataFrame::new(schema(), vec![Column::from_i64(ks), Column::from_f64(vs)]).unwrap()
}

#[test]
fn empty_table_through_full_pipeline() {
    let src = MemorySource::from_frame("t", &frame(vec![], vec![]), 4, vec![], None).unwrap();
    let mut g = QueryGraph::new();
    let r = g.read(src);
    let f = g.filter(r, col("v").gt(lit_f64(0.0)));
    let a = g.agg(f, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
    let s = g.sort(a, vec!["s"], vec![true], Some(5));
    g.sink(s);
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    assert!(series.last().unwrap().is_final);
    assert_eq!(series.final_frame().num_rows(), 0);
}

#[test]
fn single_row_table() {
    let src = MemorySource::from_frame("t", &frame(vec![7], vec![3.5]), 10, vec![], None).unwrap();
    let mut g = QueryGraph::new();
    let r = g.read(src);
    let a = g.agg(
        r,
        vec![],
        vec![
            AggSpec::avg(col("v"), "a"),
            AggSpec::var(col("v"), "var"),
            AggSpec::stddev(col("v"), "sd"),
        ],
    );
    g.sink(a);
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    let f = series.final_frame();
    assert_eq!(f.value(0, "a").unwrap(), Value::Float(3.5));
    // Variance of a single observation is undefined -> NULL, not a panic.
    assert!(f.value(0, "var").unwrap().is_null());
    assert!(f.value(0, "sd").unwrap().is_null());
}

#[test]
fn all_null_aggregation_input() {
    let s = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]));
    let df = DataFrame::from_rows(
        s,
        &[
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(1), Value::Null],
            vec![Value::Int(2), Value::Null],
        ],
    )
    .unwrap();
    let src = MemorySource::from_frame("t", &df, 2, vec![], None).unwrap();
    let mut g = QueryGraph::new();
    let r = g.read(src);
    let a = g.agg(
        r,
        vec!["k"],
        vec![
            AggSpec::count(col("v"), "c"),
            AggSpec::sum(col("v"), "s"),
            AggSpec::min(col("v"), "mn"),
            AggSpec::count_distinct(col("v"), "d"),
        ],
    );
    g.sink(a);
    let f = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap()
        .final_frame()
        .clone();
    assert_eq!(f.num_rows(), 2);
    assert_eq!(f.value(0, "c").unwrap(), Value::Float(0.0));
    assert_eq!(f.value(0, "s").unwrap(), Value::Float(0.0));
    assert!(f.value(0, "mn").unwrap().is_null());
    assert_eq!(f.value(0, "d").unwrap(), Value::Float(0.0));
}

#[test]
fn empty_partitions_mid_stream() {
    // Partitions: [2 rows][0 rows][1 row] — zero-row partitions must not
    // break progress accounting or scaling.
    let parts = vec![
        frame(vec![1, 2], vec![1.0, 2.0]),
        frame(vec![], vec![]),
        frame(vec![3], vec![3.0]),
    ];
    let src = MemorySource::new("t", parts, vec![], None).unwrap();
    let mut g = QueryGraph::new();
    let r = g.read(src);
    let a = g.agg(r, vec![], vec![AggSpec::sum(col("v"), "s")]);
    g.sink(a);
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    assert_eq!(
        series.final_frame().value(0, "s").unwrap(),
        Value::Float(6.0)
    );
}

#[test]
fn zero_match_joins_of_all_kinds() {
    let left =
        MemorySource::from_frame("l", &frame(vec![1, 2], vec![1.0, 2.0]), 1, vec![], None).unwrap();
    let right =
        MemorySource::from_frame("r", &frame(vec![8, 9], vec![0.0, 0.0]), 1, vec![], None).unwrap();
    for (kind, expected_rows) in [
        (JoinKind::Inner, 0usize),
        (JoinKind::Left, 2),
        (JoinKind::Semi, 0),
        (JoinKind::Anti, 2),
    ] {
        let mut g = QueryGraph::new();
        let l = g.read(left.clone());
        let r = g.read(right.clone());
        let j = g.join_kind(l, r, vec!["k"], vec!["k"], kind);
        g.sink(j);
        let series = EngineConfig::stepped()
            .start(g)
            .unwrap()
            .collect_series()
            .unwrap();
        assert_eq!(
            series.final_frame().num_rows(),
            expected_rows,
            "join kind {kind:?}"
        );
    }
}

#[test]
fn deep_snapshot_chain_converges() {
    // agg -> filter -> agg -> filter -> agg over random-ish data.
    let rows: Vec<(i64, f64)> = (0..300).map(|i| (i % 30, ((i * 7) % 13) as f64)).collect();
    let df = frame(
        rows.iter().map(|r| r.0).collect(),
        rows.iter().map(|r| r.1).collect(),
    );
    let build = |parts: usize| {
        let src = MemorySource::from_frame("t", &df, df.num_rows().div_ceil(parts), vec![], None)
            .unwrap();
        let mut g = QueryGraph::new();
        let r = g.read(src);
        let a1 = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "s1")]);
        let f1 = g.filter(a1, col("s1").gt(lit_f64(10.0)));
        let a2 = g.agg(
            f1,
            vec![],
            vec![AggSpec::avg(col("s1"), "m"), AggSpec::count_star("n")],
        );
        g.sink(a2);
        g
    };
    let multi = EngineConfig::stepped()
        .start(build(15))
        .unwrap()
        .collect_series()
        .unwrap();
    let single = EngineConfig::stepped()
        .start(build(1))
        .unwrap()
        .collect_series()
        .unwrap();
    assert_eq!(multi.final_frame().as_ref(), single.final_frame().as_ref());
}

#[test]
fn threaded_engine_handles_empty_everything() {
    let src = MemorySource::from_frame("t", &frame(vec![], vec![]), 4, vec![], None).unwrap();
    let mut g = QueryGraph::new();
    let r = g.read(src);
    let a = g.agg(r, vec!["k"], vec![AggSpec::count_star("n")]);
    g.sink(a);
    let series = EngineConfig::threaded()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    assert!(series.last().unwrap().is_final);
    assert_eq!(series.final_frame().num_rows(), 0);
}

#[test]
fn filter_dropping_everything_then_aggregating() {
    let src = MemorySource::from_frame(
        "t",
        &frame(vec![1, 2, 3], vec![1.0, 2.0, 3.0]),
        1,
        vec![],
        None,
    )
    .unwrap();
    let mut g = QueryGraph::new();
    let r = g.read(src);
    let f = g.filter(r, col("v").gt(lit_f64(1e9)));
    let a = g.agg(f, vec![], vec![AggSpec::count_star("n")]);
    g.sink(a);
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    // Global aggregate of an empty stream: zero rows (SQL would give one
    // row; edf reports the empty group set, which downstream ops accept).
    assert_eq!(series.final_frame().num_rows(), 0);
}

#[test]
fn median_over_a_nan_orders_it_last_on_both_drivers() {
    // A NaN in a quantile's input sorts after every number (PostgreSQL's
    // order) instead of panicking the node mid-stream: the median of
    // {1, NaN, 3} is 3, and every estimate before it is an answer too.
    use wake::engine::ExecutorKind;
    let src = MemorySource::from_frame(
        "t",
        &frame(vec![0, 0, 0], vec![1.0, f64::NAN, 3.0]),
        1,
        vec![],
        None,
    )
    .unwrap();
    for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
        let mut g = QueryGraph::new();
        let r = g.read(src.clone());
        let a = g.agg(r, vec![], vec![AggSpec::median(col("v"), "m")]);
        g.sink(a);
        let series = EngineConfig::new()
            .with_executor(kind)
            .start(g)
            .unwrap()
            .collect_series()
            .unwrap();
        assert!(series.last().unwrap().is_final, "{kind:?}");
        assert_eq!(
            series.final_frame().value(0, "m").unwrap(),
            Value::Float(3.0),
            "{kind:?}"
        );
    }
}
