//! Observability overhead on the hot group-by path.
//!
//! The wake-obs contract is "lock-cheap when on, free when off": `Stats`
//! level adds a handful of relaxed atomic adds per *frame* (not per
//! row), so on a realistic group-by kernel its wall-clock cost must
//! disappear into noise. This bench measures the same group-by query —
//! the shape of the kernels suite's `group_by_1m` case — at
//! `ObsLevel::Off`, `Stats`, and `Profile`, and ASSERTS (in `--test`
//! smoke mode too, so regressions fail loudly) that the best-of-N wall
//! clock at `Stats` stays within 5 % of `Off`.
//!
//! It also checks that the `Profile`-level run's `RunStats::to_json()`
//! export is well-formed. Nothing is written: the repo's benchmark record
//! is `wake-e2e/records/` (its `obs.trace_overhead_pct`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Instant;
use wake_core::agg::AggSpec;
use wake_core::graph::QueryGraph;
use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema};
use wake_engine::{EngineConfig, ObsLevel, RunStats};
use wake_expr::col;

const GROUPS: u64 = 1024;
const PARTITIONS: usize = 32;

fn build_frame(n: usize) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("v", DataType::Float64),
    ]));
    let mix = |i: usize| {
        let mut z = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
        z ^= z >> 29;
        z = z.wrapping_mul(0xbf58476d1ce4e5b9);
        z ^ (z >> 32)
    };
    DataFrame::new(
        schema,
        vec![
            Column::from_i64((0..n).map(|i| (mix(i) % GROUPS) as i64).collect()),
            Column::from_f64((0..n).map(|i| (mix(i) % 10_000) as f64 * 0.01).collect()),
        ],
    )
    .unwrap()
}

/// The kernels-suite group-by shape: sum/count/min per key.
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

/// One full stepped run at the given level: wall-clock ms + the profile.
fn run(frame: &DataFrame, level: ObsLevel) -> (f64, Option<RunStats>) {
    let started = Instant::now();
    let mut stream = EngineConfig::stepped()
        .with_obs(level)
        .start(group_by_graph(frame))
        .unwrap();
    for est in &mut stream {
        black_box(est.unwrap());
    }
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    (elapsed, stream.profile())
}

fn best(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn bench_obs_overhead(c: &mut Criterion) {
    let smoke = criterion::smoke_mode();
    let n: usize = if smoke { 200_000 } else { 1_000_000 };
    let frame = build_frame(n);

    // Interleave the levels so cache/thermal drift hits them evenly;
    // best-of-N is the stable statistic for an overhead bound.
    let iters = if smoke { 7 } else { 11 };
    let (mut off, mut stats, mut profile) = (Vec::new(), Vec::new(), Vec::new());
    let mut profile_export = None;
    for _ in 0..iters {
        off.push(run(&frame, ObsLevel::Off).0);
        stats.push(run(&frame, ObsLevel::Stats).0);
        let (ms, p) = run(&frame, ObsLevel::Profile);
        profile.push(ms);
        profile_export = p;
    }
    let (off_ms, stats_ms, profile_ms) = (best(&off), best(&stats), best(&profile));
    println!(
        "obs_overhead n={n}: off {off_ms:.2} ms, stats {stats_ms:.2} ms ({:+.2}%), \
         profile {profile_ms:.2} ms ({:+.2}%)",
        100.0 * (stats_ms / off_ms - 1.0),
        100.0 * (profile_ms / off_ms - 1.0),
    );

    // The acceptance bar this bench exists for: Stats-level observability
    // costs < 5 % wall clock on the group-by kernel case.
    assert!(
        stats_ms < off_ms * 1.05,
        "Stats observability overhead exceeds 5%: off {off_ms:.3} ms vs stats {stats_ms:.3} ms"
    );

    // Sanity checks on the profile JSON export keep it well-formed.
    let export = profile_export.expect("Profile-level run has a profile");
    let json = export.to_json();
    assert!(json.contains("\"nodes\""));
    assert!(
        json.matches('{').count() == json.matches('}').count(),
        "unbalanced profile JSON: {json}"
    );

    let mut group = c.benchmark_group("obs_overhead");
    group.sample_size(10);
    for level in [ObsLevel::Off, ObsLevel::Stats, ObsLevel::Profile] {
        group.bench_function(level.name(), |b| b.iter(|| black_box(run(&frame, level).0)));
    }
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
