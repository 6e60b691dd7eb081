//! Observability overhead on the hot group-by path.
//!
//! The wake-obs contract is "lock-cheap when on, free when off": `Stats`
//! level adds a handful of relaxed atomic adds per *frame* (not per
//! row), so on a realistic group-by its wall-clock cost must disappear
//! into noise. This binary runs the same group-by query (sum/count/min
//! over 1 024 keys) at `ObsLevel::Off` and `Stats` and ASSERTS that
//! `Stats` wall clock stays within 5 % of `Off`: the median, over 201
//! interleaved rounds, of each round's `Stats`/`Off` ratio. It exits
//! non-zero when the bar is missed.
//!
//! Run with `cargo run --release -p wake-bench --bin obs_overhead`
//! (~5 s). Nothing is written: the repo's benchmark record is
//! `wake-e2e/records/` (its `obs.trace_overhead_pct`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use wake_core::agg::AggSpec;
use wake_core::graph::QueryGraph;
use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema};
use wake_engine::{EngineConfig, ObsLevel};
use wake_expr::col;

const ROWS: usize = 200_000;
const GROUPS: u64 = 1024;
const PARTITIONS: usize = 32;
const ROUNDS: usize = 201;

fn build_frame(n: usize) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]));
    let mix = |i: usize| wake_data::hash::mix64(i as u64);
    DataFrame::new(
        schema,
        vec![
            Column::from_i64((0..n).map(|i| (mix(i) % GROUPS) as i64).collect()),
            Column::from_f64((0..n).map(|i| (mix(i) % 10_000) as f64 * 0.01).collect()),
        ],
    )
    .unwrap()
}

/// Group-by sum/count/min per key.
fn group_by_graph(frame: &DataFrame) -> QueryGraph {
    let src =
        MemorySource::from_frame("t", frame, frame.num_rows() / PARTITIONS, vec![], None).unwrap();
    let mut g = QueryGraph::new();
    let r = g.read(src);
    let a = g.agg(
        r,
        vec!["k"],
        vec![
            AggSpec::sum(col("v"), "s"),
            AggSpec::count_star("n"),
            AggSpec::min(col("v"), "lo"),
        ],
    );
    g.sink(a);
    g
}

/// One full stepped run at the given level: wall-clock ms.
fn run(frame: &DataFrame, level: ObsLevel) -> f64 {
    let started = Instant::now();
    let stream = EngineConfig::stepped()
        .with_obs(level)
        .start(group_by_graph(frame))
        .unwrap();
    for est in stream {
        black_box(est.unwrap());
    }
    started.elapsed().as_secs_f64() * 1e3
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let frame = build_frame(ROWS);

    // Each round runs Off and Stats back to back, in an order that
    // alternates per round, and contributes its own Stats/Off ratio.
    // Load on a shared host moves single runs by far more than 5 %; the
    // ratio within a round cancels slow drift, and the median over many
    // rounds discards the rounds a burst of load split.
    let (mut off, mut ratios) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let (off_ms, stats_ms) = if round % 2 == 0 {
            let off_ms = run(&frame, ObsLevel::Off);
            (off_ms, run(&frame, ObsLevel::Stats))
        } else {
            let stats_ms = run(&frame, ObsLevel::Stats);
            (run(&frame, ObsLevel::Off), stats_ms)
        };
        off.push(off_ms);
        ratios.push(stats_ms / off_ms);
    }
    let ratio = median(ratios);
    println!(
        "obs_overhead n={ROWS}: off median {:.2} ms, stats {:+.2}% \
         (median over {ROUNDS} rounds of the per-round Stats/Off ratio)",
        median(off),
        100.0 * (ratio - 1.0),
    );

    // The acceptance bar: Stats-level observability costs < 5 % wall
    // clock on the group-by.
    assert!(
        ratio < 1.05,
        "Stats observability overhead exceeds 5%: median Stats/Off ratio {ratio:.4}"
    );
}
