//! Quickstart: Deep Online Aggregation in a dozen lines.
//!
//! Builds a small base table, runs a *nested* aggregation (sum per key,
//! then the average of those sums), and prints every online estimate as it
//! refines toward the exact answer.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;
use wake::prelude::*;

fn main() {
    // A toy "lineitem": (orderkey, qty), clustered on orderkey, 1000 rows.
    let schema = Arc::new(Schema::new(vec![
        Field::new("orderkey", DataType::Int64),
        Field::new("qty", DataType::Float64),
    ]));
    let n = 1000i64;
    let frame = DataFrame::new(
        schema,
        vec![
            Column::from_i64((0..n).map(|i| i / 4).collect()),
            Column::from_f64((0..n).map(|i| (i % 50) as f64 + 1.0).collect()),
        ],
    )
    .unwrap();
    // Ten partitions: Wake reads them one at a time and publishes an
    // estimate after each.
    let source = MemorySource::from_frame(
        "lineitem",
        &frame,
        100,
        vec!["orderkey".into()],
        Some(vec!["orderkey".into()]),
    )
    .unwrap();

    // Deep OLA: an aggregation OVER an aggregation — the thing classic
    // online aggregation cannot do.
    let mut q = QueryGraph::new();
    let li = q.read(source);
    let per_order = q.agg(
        li,
        vec!["orderkey"],
        vec![AggSpec::sum(col("qty"), "sum_qty")],
    );
    let stats = q.agg(
        per_order,
        vec![],
        vec![
            AggSpec::avg(col("sum_qty"), "avg_order_qty"),
            AggSpec::max(col("sum_qty"), "max_order_qty"),
            AggSpec::count_star("orders_seen"),
        ],
    );
    q.sink(stats);

    println!("progress   avg_order_qty   max_order_qty   orders_estimated");
    let estimates = EngineConfig::stepped()
        .start(q)
        .unwrap()
        .collect_series()
        .unwrap();
    for est in &estimates {
        let avg = est.frame.value(0, "avg_order_qty").unwrap();
        let max = est.frame.value(0, "max_order_qty").unwrap();
        let cnt = est.frame.value(0, "orders_seen").unwrap();
        println!(
            "  {:>5.1}%   {:>13}   {:>13}   {:>16}{}",
            est.t * 100.0,
            format!("{avg}"),
            format!("{max}"),
            format!("{cnt}"),
            if est.is_final { "   <- exact" } else { "" }
        );
    }
    let last = estimates.last().unwrap();
    assert!(last.is_final);
    println!(
        "\nfirst estimate after {:?}, exact answer after {:?}",
        estimates[0].elapsed, last.elapsed
    );
}
