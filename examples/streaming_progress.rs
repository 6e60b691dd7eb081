//! The paper's §3.1 loop, end to end: stream a TPC-H-scale query's
//! converging estimates, print each one with its 95 % Chebyshev interval,
//! and stop the moment the interval is tighter than a target half-width —
//! the engine cancels the rest of the scan the instant the condition
//! fires.
//!
//! ```sh
//! cargo run --release --example streaming_progress
//! # or bound the query's memory while you watch it converge:
//! WAKE_MEM_BUDGET=8m cargo run --release --example streaming_progress
//! ```

use std::sync::Arc;
use wake::prelude::*;
use wake::tpch::{TpchData, TpchDb};

fn main() {
    // Global average of l_extendedprice over lineitem with §6 variance
    // propagation, over many small partitions so the stream has a fine
    // cadence. Chebyshev CIs are distribution-free and conservative:
    // ±2 % at 95 % confidence is reached about a quarter of the way
    // through the scan.
    let data = Arc::new(TpchData::generate(0.01, 42));
    let db = TpchDb::new(data, 96);
    let mut g = QueryGraph::new();
    let li = db.read(&mut g, "lineitem");
    let a = g.agg_with_ci(
        li,
        vec![],
        vec![AggSpec::avg(col("l_extendedprice"), "avg_price")],
    );
    g.sink(a);

    println!("avg(l_extendedprice) over lineitem, streaming until the 95% CI is within ±2%\n");
    println!("progress      rows     estimate     ± half-width   (rel)");

    let mut stream = EngineConfig::stepped()
        .with_obs(ObsLevel::Stats)
        .start(g)
        .expect("valid query graph")
        .until_confidence("avg_price", 0.02);
    let mut last = None;
    for estimate in &mut stream {
        let estimate = estimate.expect("query step");
        if estimate.frame.num_rows() == 0 {
            continue;
        }
        let ci = estimate
            .interval_at(0, "avg_price", 0.95)
            .expect("CI-enabled aggregate");
        println!(
            "  {:>5.1}%  {:>8}   {:>9.2}    ± {:>7.2}   ({:.2}%)",
            estimate.t * 100.0,
            estimate.rows_processed,
            ci.estimate,
            ci.half_width(),
            100.0 * ci.half_width() / ci.estimate.abs().max(f64::MIN_POSITIVE),
        );
        last = Some(estimate);
    }

    let last = last.expect("at least one estimate");
    let stats = stream.stats();
    if stream.stopped_early() {
        println!(
            "\nstopped early at t = {:.1}% — the remaining {:.1}% of the scan was cancelled.",
            last.t * 100.0,
            (1.0 - last.t) * 100.0
        );
    } else {
        println!("\nscan completed before the interval reached the target (exact answer).");
    }
    println!(
        "run stats: peak operator state {} KiB, spilled {} bytes ({} evictions).",
        stats.peak_state_bytes / 1024,
        stats.spill.spilled_bytes,
        stats.spill.evictions
    );

    // The per-node profile survives the cancellation: EXPLAIN ANALYZE
    // shows exactly how much work each operator did before the stop.
    println!(
        "\nexplain analyze (after cancellation):\n{}",
        stream.explain_analyze()
    );
}
