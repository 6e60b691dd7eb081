//! Deep nested aggregations (§8.6): run the paper's synthetic query at
//! depths 0..=10 — e.g. depth 2 is
//! `df.max(x, by=(c1,c2)).sum(max_x, by=c1).sum(sum_max_x)` —
//! and report first/last-estimate latency per depth, demonstrating that
//! Wake executes cascades of aggregations at a regular output pace.
//!
//! ```sh
//! cargo run --release --example deep_query
//! ```

use wake::engine::EngineConfig;
use wake::tpch::synthetic;
use wake_engine::SeriesExt;

fn main() {
    let rows = 200_000;
    let partitions = 50;
    println!("synthetic table: {rows} rows, 10 group columns, {partitions} partitions\n");
    let frame = synthetic::generate(rows, 42);
    println!("depth   estimates   first-estimate   final-result   answer(v0)");
    for depth in 0..=10usize {
        let g = synthetic::deep_query(synthetic::source(&frame, partitions), depth);
        let series = EngineConfig::stepped()
            .start(g)
            .unwrap()
            .collect_series()
            .unwrap();
        let answer = series
            .final_frame()
            .value(0, "v0")
            .unwrap()
            .as_f64()
            .unwrap_or(f64::NAN);
        println!(
            "{depth:>5}   {:>9}   {:>14?}   {:>12?}   {answer:>12.0}",
            series.len(),
            series.first_latency().unwrap(),
            series.final_latency().unwrap(),
        );
    }
    println!("\nEach extra nesting level adds a snapshot-mode aggregation;");
    println!("the cost grows with the deepest group cardinality (O(4^d) groups),");
    println!("matching the paper's O(4^d·n/B + n) analysis.");
}
