//! Ablation of the growth-based inference (§5.2 vs the §5.5 alternative of
//! assuming a fixed growth law): compare the error trajectory of the
//! fitted monomial model against pinned `w = 1` (linear scaling — what
//! ProgressiveDB-style middleware assumes) and pinned `w = 0` (no scaling)
//! on two workloads where the truth differs:
//!
//! - a *clustered* group-by (per-order sums): true `w = 0`, so linear
//!   scaling massively over-estimates early;
//! - a *low-cardinality* group-by (Q1-style): true `w = 1`, so no-scaling
//!   under-estimates until the end.
//!
//! The fitted model should track the better of the two on both.

use wake_bench::{dataset, partitions, run_wake};
use wake_core::agg::AggSpec;
use wake_core::graph::QueryGraph;
use wake_core::metrics;
use wake_engine::SeriesExt;
use wake_expr::col;
use wake_tpch::TpchDb;

fn error_curve(g: QueryGraph, keys: &[&str], values: &[&str]) -> Vec<(f64, f64)> {
    let series = run_wake(g).series;
    let truth = series.final_frame().clone();
    series
        .iter()
        .map(|e| {
            let r = metrics::compare(&e.frame, &truth, keys, values).unwrap();
            (e.t, r.mape)
        })
        .collect()
}

fn main() {
    let data = dataset();
    let db = TpchDb::new(data, partitions());

    println!("=== Ablation: growth model (fitted monomial vs pinned powers) ===\n");

    // Workload A: sum(l_quantity) by l_orderkey (clustered; true w = 0).
    let build_a = |mode: Option<f64>| {
        let mut g = QueryGraph::new();
        let li = db.read(&mut g, "lineitem");
        let spec = vec![AggSpec::sum(col("l_quantity"), "sq")];
        let a = match mode {
            None => g.agg(li, vec!["l_orderkey"], spec),
            Some(w) => g.agg_fixed_growth(li, vec!["l_orderkey"], spec, w),
        };
        g.sink(a);
        g
    };
    // Workload B: sum(l_quantity) by l_returnflag (low-card; true w = 1).
    let build_b = |mode: Option<f64>| {
        let mut g = QueryGraph::new();
        let li = db.read(&mut g, "lineitem");
        let spec = vec![AggSpec::sum(col("l_quantity"), "sq")];
        let a = match mode {
            None => g.agg(li, vec!["l_returnflag"], spec),
            Some(w) => g.agg_fixed_growth(li, vec!["l_returnflag"], spec, w),
        };
        g.sink(a);
        g
    };

    for (label, build, keys) in [
        (
            "A: clustered group-by (true w=0)",
            &build_a as &dyn Fn(Option<f64>) -> QueryGraph,
            ["l_orderkey"],
        ),
        (
            "B: low-cardinality group-by (true w=1)",
            &build_b,
            ["l_returnflag"],
        ),
    ] {
        println!("-- workload {label} --");
        println!(
            "{:>8}  {:>12}  {:>12}  {:>12}",
            "t", "fitted", "w=1 (linear)", "w=0 (none)"
        );
        let fitted = error_curve(build(None), &keys, &["sq"]);
        let linear = error_curve(build(Some(1.0)), &keys, &["sq"]);
        let none = error_curve(build(Some(0.0)), &keys, &["sq"]);
        for i in 0..fitted.len().min(linear.len()).min(none.len()) {
            println!(
                "{:>7.1}%  {:>11.3}%  {:>11.3}%  {:>11.3}%",
                fitted[i].0 * 100.0,
                fitted[i].1,
                linear[i].1,
                none[i].1
            );
        }
        let mean = |xs: &[(f64, f64)]| xs.iter().map(|x| x.1).sum::<f64>() / xs.len() as f64;
        println!(
            "   mean MAPE: fitted {:.3}%, linear {:.3}%, none {:.3}%\n",
            mean(&fitted),
            mean(&linear),
            mean(&none)
        );
    }
    println!("Expected: the fitted model matches the correct pinned power on each");
    println!("workload; each pinned power is badly wrong on the other workload —");
    println!("this is why Wake fits w instead of assuming it (§5.2, §5.5).");
}
