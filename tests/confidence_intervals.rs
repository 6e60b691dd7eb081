//! Confidence-interval behaviour (§6, validated as in §8.5 / Fig 10):
//! running Q14 with shuffled input partitions, the 95 % Chebyshev CIs must
//! (a) converge toward the point estimate and (b) bound the true answer
//! for (at least) the nominal fraction of estimates.

use std::sync::Arc;
use wake::core::ci;
use wake::engine::EngineConfig;
use wake::tpch::{queries, TpchData, TpchDb};
use wake_engine::SeriesExt;

#[test]
fn q14_cis_bound_truth_and_shrink() {
    let data = Arc::new(TpchData::generate(0.004, 42));
    let db = TpchDb::new(data, 16);
    let g = queries::q14_with_ci(&db);
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    assert!(series.len() >= 10);
    let truth = series
        .final_frame()
        .value(0, "promo_revenue")
        .unwrap()
        .as_f64()
        .unwrap();
    assert!(truth.is_finite() && truth > 0.0);

    let mut widths = Vec::new();
    let mut covered = 0usize;
    let mut checked = 0usize;
    for est in &series {
        if est.frame.num_rows() == 0 {
            continue;
        }
        let interval = ci::interval_at(&est.frame, 0, "promo_revenue", 0.95).unwrap();
        widths.push(interval.width());
        checked += 1;
        if interval.contains(truth) {
            covered += 1;
        }
    }
    assert!(checked >= 10);
    // Chebyshev at 95% must over-cover by a wide margin in practice.
    let coverage = covered as f64 / checked as f64;
    assert!(coverage >= 0.9, "coverage {coverage} below nominal");
    // CI width collapses to 0 at completion and shrinks broadly over time.
    assert!(*widths.last().unwrap() < 1e-9, "final CI must be exact");
    let first_half: f64 =
        widths[..widths.len() / 2].iter().sum::<f64>() / (widths.len() / 2) as f64;
    let second_half: f64 =
        widths[widths.len() / 2..].iter().sum::<f64>() / (widths.len() - widths.len() / 2) as f64;
    assert!(
        second_half <= first_half,
        "widths should shrink: {first_half} -> {second_half}"
    );
}

#[test]
fn shuffled_partitions_still_bound_truth() {
    // §8.5 shuffles input partitions to simulate unexpected input orders.
    let data = Arc::new(TpchData::generate(0.004, 7));
    let frame = &data.lineitem;
    let rows_per = frame.num_rows().div_ceil(16).max(1);
    let src = wake::data::MemorySource::from_frame(
        "lineitem",
        frame,
        rows_per,
        vec!["l_orderkey".into(), "l_linenumber".into()],
        Some(vec!["l_orderkey".into()]),
    )
    .unwrap();
    // Reverse the partition read order — a deterministic "shuffle".
    let n = wake::data::TableSource::meta(&src).num_partitions();
    let order: Vec<usize> = (0..n).rev().collect();
    let shuffled = src.shuffled_partitions(&order).unwrap();

    // sum(l_quantity) with CI over the shuffled read.
    let mut g = wake::core::graph::QueryGraph::new();
    let r = g.read(shuffled);
    let a = g.agg_with_ci(
        r,
        vec![],
        vec![wake::core::agg::AggSpec::sum(
            wake::expr::col("l_quantity"),
            "q",
        )],
    );
    g.sink(a);
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    let truth = series
        .final_frame()
        .value(0, "q")
        .unwrap()
        .as_f64()
        .unwrap();
    let mut covered = 0usize;
    for est in &series {
        let interval = ci::interval_at(&est.frame, 0, "q", 0.95).unwrap();
        if interval.contains(truth) {
            covered += 1;
        }
    }
    let coverage = covered as f64 / series.len() as f64;
    assert!(coverage >= 0.9, "coverage {coverage}");
}

#[test]
fn variance_survives_projections() {
    // agg_with_ci -> map (ratio) : the map output carries a propagated
    // `{alias}__var` column (§6 / Appendix B) whose CI still bounds the
    // truth and collapses at completion.
    let data = Arc::new(TpchData::generate(0.004, 5));
    let db = TpchDb::new(data.clone(), 12);
    let mut g = wake::core::graph::QueryGraph::new();
    let li = db.read(&mut g, "lineitem");
    let a = g.agg_with_ci(
        li,
        vec![],
        vec![
            wake::core::agg::AggSpec::sum(wake::expr::col("l_quantity"), "q"),
            wake::core::agg::AggSpec::count_star("n"),
        ],
    );
    let m = g.map(
        a,
        vec![(wake::expr::col("q").div(wake::expr::lit_f64(1000.0)), "kq")],
    );
    g.sink(m);
    let metas = g.resolve_metas().unwrap();
    assert!(metas.last().unwrap().schema.contains("kq__var"));
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    let truth = series
        .final_frame()
        .value(0, "kq")
        .unwrap()
        .as_f64()
        .unwrap();
    let mut covered = 0;
    for est in &series {
        let interval = ci::interval_at(&est.frame, 0, "kq", 0.95).unwrap();
        if interval.contains(truth) {
            covered += 1;
        }
        // Var scales by (1/1000)²: sanity that it is tiny but positive
        // before completion.
        if est.t < 1.0 {
            assert!(interval.width() >= 0.0);
        }
    }
    assert!(covered as f64 / series.len() as f64 >= 0.9);
    let last = ci::interval_at(series.final_frame(), 0, "kq", 0.95).unwrap();
    assert!(last.width() < 1e-12, "exact at completion");
}

#[test]
fn variance_columns_only_when_requested() {
    let data = Arc::new(TpchData::generate(0.002, 1));
    let db = TpchDb::new(data, 4);
    let plain = queries::q14(&db);
    let with_ci = queries::q14_with_ci(&db);
    let plain_schema = plain
        .resolve_metas()
        .unwrap()
        .last()
        .unwrap()
        .schema
        .clone();
    let ci_schema = with_ci
        .resolve_metas()
        .unwrap()
        .last()
        .unwrap()
        .schema
        .clone();
    assert!(!plain_schema.contains("promo_revenue__var"));
    assert!(ci_schema.contains("promo_revenue__var"));
}
