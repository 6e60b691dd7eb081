//! Persistent-table scan: projection pushdown and zone pruning on a
//! Q6-style selective filter.
//!
//! Fixture: lineitem's sixteen columns in a segment clustered by ship date
//! (7 years of rows in date order, 64 zones). Q6 reads four of the
//! sixteen, so the scan should decode a fraction of each zone; its
//! predicate — one year of ship dates, a discount band, a quantity cap —
//! disqualifies ~6/7 of the zones by their date min/max alone, so the
//! pruned scan should decode a fraction of that again.
//!
//! Three cases:
//! - `full_scan`   — pruning disabled: Q6's columns of every zone decoded
//!   and filtered,
//! - `pruned_scan` — zone-map pruning on: surviving zones only,
//! - `decode_zones` — raw decode of every column of every zone (no query
//!   machinery): what a scan cost before projection.
//!
//! Besides the criterion timings this bench prints the medians and
//! bytes-scanned counters, and ASSERTS — in `--test` smoke mode too, so
//! regressions fail loudly — by count that projection alone decodes ≤ ¼ of
//! `decode_zones`' bytes and that pruning cuts what is left by ≥2×.
//! Nothing is written: the repo's benchmark record is `wake-e2e/records/`
//! (its `tpch.wseg` workload).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Instant;
use wake_core::agg::AggSpec;
use wake_core::graph::QueryGraph;
use wake_data::value::date_to_days;
use wake_data::{Column, DataFrame};
use wake_engine::{EngineConfig, RunStats};
use wake_expr::{col, lit_date, lit_f64};
use wake_store::{write_segment, SegmentReader, SegmentSource, StdIo};

const ZONES: usize = 64;

/// lineitem's sixteen columns, rows clustered by ship date: 7 years,
/// date-ascending.
fn build_table(n: usize) -> DataFrame {
    let start = date_to_days(1992, 1, 1);
    let span = date_to_days(1998, 12, 31) - start;
    let mix = |i: usize| {
        let mut z = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
        z ^= z >> 29;
        z = z.wrapping_mul(0xbf58476d1ce4e5b9);
        z ^ (z >> 32)
    };
    let ship = |i: usize| start + (i as i64 * span) / n as i64;
    let ints = |f: &dyn Fn(usize) -> i64| Column::from_i64((0..n).map(f).collect());
    let floats = |f: &dyn Fn(usize) -> f64| Column::from_f64((0..n).map(f).collect());
    let dates = |f: &dyn Fn(usize) -> i64| Column::from_dates((0..n).map(f).collect());
    let pick = |pool: &'static [&'static str], salt: usize| {
        Column::from_str_iter((0..n).map(move |i| pool[mix(i + salt) as usize % pool.len()]))
    };
    DataFrame::new(
        wake_tpch::schema::lineitem(),
        vec![
            ints(&|i| (i / 4) as i64),
            ints(&|i| (mix(i) % 4_000) as i64),
            ints(&|i| (mix(i + 1) % 200) as i64),
            ints(&|i| (i % 4) as i64 + 1),
            floats(&|i| (mix(i) % 50) as f64 + 1.0),
            floats(&|i| (mix(i) % 100_000) as f64 * 0.01 + 900.0),
            floats(&|i| (mix(i) % 11) as f64 * 0.01),
            floats(&|i| (mix(i + 2) % 9) as f64 * 0.01),
            pick(&["A", "N", "R"], 3),
            pick(&["F", "O"], 4),
            dates(&ship),
            dates(&|i| ship(i) + (mix(i + 5) % 60) as i64 - 30),
            dates(&|i| ship(i) + (mix(i + 6) % 30) as i64 + 1),
            pick(
                &[
                    "DELIVER IN PERSON",
                    "COLLECT COD",
                    "NONE",
                    "TAKE BACK RETURN",
                ],
                7,
            ),
            pick(
                &["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"],
                8,
            ),
            Column::from_str_iter(
                (0..n).map(|i| format!("carefully final packages {:x}", mix(i + 9))),
            ),
        ],
    )
    .unwrap()
}

/// The Q6 shape over the segment.
fn q6_graph(reader: &Arc<SegmentReader>) -> QueryGraph {
    let mut g = QueryGraph::new();
    let src = SegmentSource::from_reader(reader.clone()).unwrap();
    let li = g.read(src);
    let f = g.filter(
        li,
        col("l_shipdate")
            .ge(lit_date(1994, 1, 1))
            .and(col("l_shipdate").lt(lit_date(1995, 1, 1)))
            .and(col("l_discount").between(lit_f64(0.05), lit_f64(0.07)))
            .and(col("l_quantity").lt(lit_f64(24.0))),
    );
    let m = g.map(
        f,
        vec![(col("l_extendedprice").mul(col("l_discount")), "rev")],
    );
    let a = g.agg(m, vec![], vec![AggSpec::sum(col("rev"), "revenue")]);
    g.sink(a);
    g
}

fn run_scan(reader: &Arc<SegmentReader>, pruning: bool) -> (f64, RunStats) {
    let started = Instant::now();
    let (series, stats) = EngineConfig::stepped()
        .with_zone_pruning(pruning)
        .start(q6_graph(reader))
        .unwrap()
        .collect_with_stats()
        .unwrap();
    let elapsed = started.elapsed().as_secs_f64() * 1e3;
    black_box(series);
    (elapsed, stats)
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn bench_segment_scan(c: &mut Criterion) {
    let smoke = criterion::smoke_mode();
    let n: usize = if smoke { 60_000 } else { 600_000 };
    let frame = build_table(n);
    let dir = std::env::temp_dir().join(format!("wake-bench-segment-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("lineitem.wseg");
    write_segment(
        "lineitem",
        &frame,
        n.div_ceil(ZONES),
        &[],
        Some(&["l_shipdate".to_string()]),
        &path,
        &StdIo,
    )
    .unwrap();
    let reader = SegmentReader::open(&path, Arc::new(StdIo)).unwrap();

    // The acceptance checks this bench exists for, both on exact counts.
    // Projection alone: with pruning off the Q6 scan visits every zone but
    // decodes its four columns, at most a quarter of what decoding every
    // column costs. Then pruning must cut that by at least 2× again (here
    // ~7×: one ship-date year out of seven survives).
    let (_, full) = run_scan(&reader, false);
    let (_, pruned) = run_scan(&reader, true);
    let all_columns_bytes: u64 = (0..reader.zone_count())
        .map(|z| reader.read_zone(z).unwrap().byte_size() as u64)
        .sum();
    assert!(pruned.scan.zones_pruned > 0, "nothing pruned");
    assert_eq!(
        full.scan.zones_scanned, ZONES as u64,
        "full scan must decode every zone"
    );
    assert_eq!((full.scan.columns_read, full.scan.columns_total), (4, 16));
    assert!(
        4 * full.scan.decompressed_bytes <= all_columns_bytes,
        "the projected scan decoded {} bytes vs {all_columns_bytes} for every column — \
         more than the allowed ¼",
        full.scan.decompressed_bytes
    );
    assert!(
        2 * pruned.scan.decompressed_bytes <= full.scan.decompressed_bytes,
        "pruning decoded {} bytes vs {} full — less than the required 2× cut",
        pruned.scan.decompressed_bytes,
        full.scan.decompressed_bytes
    );

    let iters = if smoke { 5 } else { 9 };
    let full_ms = median((0..iters).map(|_| run_scan(&reader, false).0).collect());
    let pruned_ms = median((0..iters).map(|_| run_scan(&reader, true).0).collect());
    let decode_ms = median(
        (0..iters)
            .map(|_| {
                let started = Instant::now();
                for z in 0..reader.zone_count() {
                    black_box(reader.read_zone(z).unwrap());
                }
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect(),
    );
    println!(
        "segment_scan n={n}: full {full_ms:.2} ms ({}/{} cols, {} B decoded), pruned \
         {pruned_ms:.2} ms ({} B decoded, {}/{} zones pruned), decode-only {decode_ms:.2} ms \
         ({all_columns_bytes} B)",
        full.scan.columns_read,
        full.scan.columns_total,
        full.scan.decompressed_bytes,
        pruned.scan.decompressed_bytes,
        pruned.scan.zones_pruned,
        pruned.scan.zones_total,
    );

    let mut group = c.benchmark_group("segment_scan");
    group.sample_size(10);
    group.bench_function("full_scan", |b| {
        b.iter(|| black_box(run_scan(&reader, false)))
    });
    group.bench_function("pruned_scan", |b| {
        b.iter(|| black_box(run_scan(&reader, true)))
    });
    group.bench_function("decode_zones", |b| {
        b.iter(|| {
            for z in 0..reader.zone_count() {
                black_box(reader.read_zone(z).unwrap());
            }
        })
    });
    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_segment_scan);
criterion_main!(benches);
