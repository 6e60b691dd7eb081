//! Fig 11: deep-query performance (§8.6).
//!
//! Synthetic dataset (100 partitions, 10 group columns of 4 values each);
//! queries of depth d = 0..=10 alternate max/sum aggregations. We report
//! Wake's latency to the 1st, 10th, and final (100th) result next to the
//! exact engine's one-shot time — the paper's claim is that Wake's output
//! pace stays regular and the cost scales with the deepest group
//! cardinality O(4^d), i.e. O(4^d · n/B + n) total.

use wake_bench::{fmt_dur, run_wake};
use wake_engine::SeriesExt;
use wake_tpch::synthetic;

fn main() {
    let rows: usize = std::env::var("WAKE_SYNTH_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    let partitions = 100;
    println!("Fig 11 — synthetic deep queries: {rows} rows, {partitions} partitions\n");
    let frame = synthetic::generate(rows, 42);
    println!(
        "{:>5}  {:>10}  {:>10}  {:>10}  {:>10}  {:>9}",
        "depth", "exact", "wake-1st", "wake-10th", "wake-final", "estimates"
    );
    for depth in 0..=10usize {
        // Exact: single partition, one-shot.
        let exact = {
            let g = synthetic::deep_query(synthetic::source(&frame, 1), depth);
            let series = run_wake(g).series;
            series.final_latency().unwrap()
        };
        let g = synthetic::deep_query(synthetic::source(&frame, partitions), depth);
        let series = run_wake(g).series;
        let tenth = series
            .get(9)
            .map(|e| e.elapsed)
            .unwrap_or_else(|| series.final_latency().unwrap());
        println!(
            "{depth:>5}  {:>10}  {:>10}  {:>10}  {:>10}  {:>9}",
            fmt_dur(exact),
            fmt_dur(series.first_latency().unwrap()),
            fmt_dur(tenth),
            fmt_dur(series.final_latency().unwrap()),
            series.len()
        );
    }
    println!("\nExpected shape: wake-1st stays roughly flat (per-partition work),");
    println!("wake-final grows with 4^d merge cost, exact grows only mildly — the");
    println!("paper's O(4^d·n/B + n) vs O(n) comparison.");
}
