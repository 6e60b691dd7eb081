//! Fig 10: confidence-interval convergence (10a) and correctness (10b) on
//! TPC-H Q14 with shuffled input partitions (§8.5). 10a prints the CI
//! bounds per partition; 10b the relative CI range |ŷ−y|/(kσ) — its max,
//! P95, and average over the estimates seen so far. P95 must stay below 1.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use wake_bench::{dataset, partitions, run_wake};
use wake_core::ci;
use wake_engine::SeriesExt;
use wake_stats::summary;
use wake_tpch::TpchDb;

fn main() {
    let data = dataset();
    // Shuffle the lineitem partition order to simulate unexpected input
    // order, as in §8.5.
    let parts = partitions();
    let rows_per = data.lineitem.num_rows().div_ceil(parts).max(1);
    let src = wake_data::MemorySource::from_frame(
        "lineitem",
        &data.lineitem,
        rows_per,
        vec!["l_orderkey".into(), "l_linenumber".into()],
        Some(vec!["l_orderkey".into()]),
    )
    .unwrap();
    let n = wake_data::TableSource::meta(&src).num_partitions();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(7));
    let shuffled = src.shuffled_partitions(&order).unwrap();

    // Build Q14-with-CI against the shuffled reader.
    let db = TpchDb::new(data.clone(), parts);
    let mut g = wake_core::graph::QueryGraph::new();
    let li = g.read(shuffled);
    let lf = g.filter(
        li,
        wake_expr::col("l_shipdate")
            .ge(wake_expr::lit_date(1995, 9, 1))
            .and(wake_expr::col("l_shipdate").lt(wake_expr::lit_date(1995, 10, 1))),
    );
    let lm = g.map(
        lf,
        vec![
            (wake_expr::col("l_partkey"), "l_partkey"),
            (
                wake_expr::col("l_extendedprice")
                    .mul(wake_expr::lit_f64(1.0).sub(wake_expr::col("l_discount"))),
                "rev",
            ),
        ],
    );
    let part = db.read(&mut g, "part");
    let pm = g.map(
        part,
        vec![
            (wake_expr::col("p_partkey"), "p_partkey"),
            (wake_expr::col("p_type"), "p_type"),
        ],
    );
    let j = g.join(lm, pm, vec!["l_partkey"], vec!["p_partkey"]);
    let a = g.agg_with_ci(
        j,
        vec![],
        vec![wake_core::agg::AggSpec::weighted_avg(
            wake_expr::case_when(
                vec![(
                    wake_expr::col("p_type").like("PROMO%"),
                    wake_expr::lit_f64(100.0),
                )],
                wake_expr::lit_f64(0.0),
            ),
            wake_expr::col("rev"),
            "promo_revenue",
        )],
    );
    g.sink(a);

    let series = run_wake(g).series;
    let truth = series
        .final_frame()
        .value(0, "promo_revenue")
        .unwrap()
        .as_f64()
        .unwrap();
    println!("Fig 10 — Q14 with 95% Chebyshev CIs, shuffled partitions (truth {truth:.4})\n");
    println!("-- 10a: CI convergence --");
    println!(
        "{:>5}  {:>10}  {:>10}  {:>10}",
        "#", "estimate", "ci-lower", "ci-upper"
    );
    let mut rel_ranges: Vec<f64> = Vec::new();
    let mut rows_10b: Vec<(usize, f64, f64, f64)> = Vec::new();
    for (i, est) in series.iter().enumerate() {
        if est.frame.num_rows() == 0 {
            continue;
        }
        let interval = ci::interval_at(&est.frame, 0, "promo_revenue", 0.95).unwrap();
        println!(
            "{:>5}  {:>10.4}  {:>10.4}  {:>10.4}",
            i, interval.estimate, interval.lower, interval.upper
        );
        let rr = interval.relative_range(truth);
        if rr.is_finite() {
            rel_ranges.push(rr);
            rows_10b.push((
                i,
                summary::max(&rel_ranges).unwrap(),
                summary::percentile(&rel_ranges, 95.0).unwrap(),
                summary::mean(&rel_ranges).unwrap(),
            ));
        }
    }
    println!("\n-- 10b: CI correctness (relative CI range; P95 must not cross 1.0) --");
    println!("{:>5}  {:>8}  {:>8}  {:>8}", "#", "max", "P95", "avg");
    for (i, mx, p95, avg) in &rows_10b {
        println!("{i:>5}  {mx:>8.4}  {p95:>8.4}  {avg:>8.4}");
    }
    let final_p95 = rows_10b.last().map(|r| r.2).unwrap_or(f64::NAN);
    println!(
        "\nP95 relative CI range at completion: {final_p95:.4} ({})",
        if final_p95 <= 1.0 {
            "CIs safely bound the truth, as in the paper"
        } else {
            "VIOLATION"
        }
    );
}
