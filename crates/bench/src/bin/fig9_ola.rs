//! Fig 9: error-over-time against the two OLA baselines.
//!
//! - 9a: ProgressiveDB-style middleware on the single-table Q1 and Q6
//!   (its supported subset).
//! - 9b: WanderJoin-style random walks on the join queries it supports,
//!   in the modified (simplified, single-aggregate) forms of the
//!   WanderJoin paper: Q3, Q7, Q10 reduced to `SUM(revenue)` over their
//!   join+filter cores.
//!
//! The shapes to reproduce: comparable first estimates, Wake converging to
//! <1 % error faster, and WanderJoin plateauing above zero error while
//! Wake reaches the exact answer.

use std::sync::Arc;
use wake_baseline::naive::NaiveAgg;
use wake_baseline::progressive::{exact_answer, relative_error, ProgressiveAgg};
use wake_baseline::wanderjoin::{WalkStep, WanderJoin};
use wake_bench::{dataset, fmt_dur, partitions, run_wake};
use wake_core::agg::AggSpec;
use wake_core::graph::QueryGraph;
use wake_engine::SeriesExt;
use wake_expr::{col, lit_date, lit_f64, lit_str, Expr};
use wake_tpch::TpchDb;

fn rev() -> Expr {
    col("l_extendedprice").mul(lit_f64(1.0).sub(col("l_discount")))
}

/// Wake error trajectory for a single-sum query graph.
fn wake_curve(g: QueryGraph, value_col: &str) -> Vec<(std::time::Duration, f64)> {
    let series = run_wake(g).series;
    let truth = series
        .final_frame()
        .value(0, value_col)
        .unwrap()
        .as_f64()
        .unwrap();
    series
        .iter()
        .filter(|e| e.frame.num_rows() > 0)
        .map(|e| {
            let v = e
                .frame
                .value(0, value_col)
                .unwrap()
                .as_f64()
                .unwrap_or(f64::NAN);
            (e.elapsed, ((v - truth) / truth).abs() * 100.0)
        })
        .collect()
}

fn print_curve(label: &str, curve: &[(std::time::Duration, f64)]) {
    println!("  {label}:");
    for (elapsed, err) in curve {
        println!("    {:>9}  {:>12.6}%", fmt_dur(*elapsed), err);
    }
}

fn main() {
    let data = dataset();
    let db = TpchDb::new(data.clone(), partitions());

    println!("=== Fig 9a: vs ProgressiveDB (modified single-table Q1, Q6) ===\n");
    // Modified Q1: sum(qty) over the shipdate filter (single aggregate).
    {
        println!("-- modified Q1: sum(l_quantity) where l_shipdate <= 1998-09-02 --");
        let src = data.source("lineitem", partitions());
        let pred = col("l_shipdate").le(lit_date(1998, 9, 2));
        let pg = ProgressiveAgg {
            source: &src,
            predicate: Some(pred.clone()),
            projections: vec![],
            group_keys: vec![],
            aggs: vec![(NaiveAgg::Sum, col("l_quantity"), "s")],
        };
        let series = pg.run().unwrap();
        let truth = exact_answer(
            &src,
            Some(&pred),
            &[],
            &[],
            &[(NaiveAgg::Sum, col("l_quantity"), "s")],
        )
        .unwrap();
        println!("  ProgressiveDB:");
        for est in &series {
            println!(
                "    {:>9}  {:>12.6}%",
                fmt_dur(est.elapsed),
                relative_error(&est.frame, &truth, "s") * 100.0
            );
        }
        let mut g = QueryGraph::new();
        let r = db.read(&mut g, "lineitem");
        let f = g.filter(r, pred);
        let a = g.agg(f, vec![], vec![AggSpec::sum(col("l_quantity"), "s")]);
        g.sink(a);
        print_curve("Wake", &wake_curve(g, "s"));
        println!();
    }
    // Modified Q6 (already a single scalar aggregate).
    {
        println!("-- modified Q6: revenue sum --");
        let src = data.source("lineitem", partitions());
        let pred = col("l_shipdate")
            .ge(lit_date(1994, 1, 1))
            .and(col("l_shipdate").lt(lit_date(1995, 1, 1)))
            .and(col("l_discount").between(lit_f64(0.05), lit_f64(0.07)))
            .and(col("l_quantity").lt(lit_f64(24.0)));
        let proj = vec![(col("l_extendedprice").mul(col("l_discount")), "r")];
        let pg = ProgressiveAgg {
            source: &src,
            predicate: Some(pred.clone()),
            projections: proj.clone(),
            group_keys: vec![],
            aggs: vec![(NaiveAgg::Sum, col("r"), "s")],
        };
        let series = pg.run().unwrap();
        let truth = exact_answer(
            &src,
            Some(&pred),
            &proj,
            &[],
            &[(NaiveAgg::Sum, col("r"), "s")],
        )
        .unwrap();
        println!("  ProgressiveDB:");
        for est in &series {
            println!(
                "    {:>9}  {:>12.6}%",
                fmt_dur(est.elapsed),
                relative_error(&est.frame, &truth, "s") * 100.0
            );
        }
        let mut g = QueryGraph::new();
        let r = db.read(&mut g, "lineitem");
        let f = g.filter(r, pred);
        let m = g.map(
            f,
            vec![(col("l_extendedprice").mul(col("l_discount")), "r")],
        );
        let a = g.agg(m, vec![], vec![AggSpec::sum(col("r"), "s")]);
        g.sink(a);
        print_curve("Wake", &wake_curve(g, "s"));
        println!();
    }

    println!("=== Fig 9b: vs WanderJoin (modified Q3, Q7, Q10) ===\n");
    let walks: u64 = 60_000;
    let snapshots: u64 = 10;
    let cases: Vec<(&str, Option<Expr>, Vec<WalkStep>, Expr)> = vec![
        (
            "modified Q3: lineitem x orders(BUILDING-customer, date<1995-03-15)",
            Some(col("l_shipdate").gt(lit_date(1995, 3, 15))),
            vec![
                WalkStep {
                    from_col: "l_orderkey",
                    table: data.orders.clone(),
                    key: "o_orderkey",
                    predicate: Some(col("o_orderdate").lt(lit_date(1995, 3, 15))),
                },
                WalkStep {
                    from_col: "o_custkey",
                    table: data.customer.clone(),
                    key: "c_custkey",
                    predicate: Some(col("c_mktsegment").eq(lit_str("BUILDING"))),
                },
            ],
            rev(),
        ),
        (
            "modified Q7: lineitem x orders x customer, 1995-1996 shipdates",
            Some(
                col("l_shipdate")
                    .ge(lit_date(1995, 1, 1))
                    .and(col("l_shipdate").le(lit_date(1996, 12, 31))),
            ),
            vec![
                WalkStep {
                    from_col: "l_orderkey",
                    table: data.orders.clone(),
                    key: "o_orderkey",
                    predicate: None,
                },
                WalkStep {
                    from_col: "o_custkey",
                    table: data.customer.clone(),
                    key: "c_custkey",
                    predicate: None,
                },
            ],
            rev(),
        ),
        (
            "modified Q10: returned lineitems x orders(1993Q4) x customer",
            Some(col("l_returnflag").eq(lit_str("R"))),
            vec![
                WalkStep {
                    from_col: "l_orderkey",
                    table: data.orders.clone(),
                    key: "o_orderkey",
                    predicate: Some(
                        col("o_orderdate")
                            .ge(lit_date(1993, 10, 1))
                            .and(col("o_orderdate").lt(lit_date(1994, 1, 1))),
                    ),
                },
                WalkStep {
                    from_col: "o_custkey",
                    table: data.customer.clone(),
                    key: "c_custkey",
                    predicate: None,
                },
            ],
            rev(),
        ),
    ];

    for (label, li_pred, steps, value) in cases {
        println!("-- {label} --");
        // Exact truth via the naive engine through the same join chain.
        let mut truth_tab = wake_baseline::naive::Table::new(data.lineitem.clone());
        if let Some(p) = &li_pred {
            truth_tab = truth_tab.filter(p).unwrap();
        }
        for step in &steps {
            let mut right = wake_baseline::naive::Table::new(step.table.clone());
            if let Some(p) = &step.predicate {
                right = right.filter(p).unwrap();
            }
            truth_tab = truth_tab
                .join(
                    &right,
                    &[step.from_col],
                    &[step.key],
                    wake_baseline::naive::NaiveJoin::Inner,
                )
                .unwrap();
        }
        let truth_tab = truth_tab
            .map(&[(value.clone(), "v")])
            .unwrap()
            .group_by(&[], &[(NaiveAgg::Sum, col("v"), "s")])
            .unwrap();
        let truth = truth_tab
            .frame()
            .value(0, "s")
            .unwrap()
            .as_f64()
            .unwrap_or(0.0);
        if truth == 0.0 {
            println!("  (no qualifying rows at this scale factor; skipping)\n");
            continue;
        }
        let mut wj =
            WanderJoin::new(data.lineitem.clone(), li_pred, steps, None, value, 42).unwrap();
        println!("  WanderJoin ({} walks):", walks);
        for est in wj.run(walks, walks / snapshots).unwrap() {
            println!(
                "    {:>9}  {:>12.6}%   ({} samples)",
                fmt_dur(est.elapsed),
                ((est.global - truth) / truth).abs() * 100.0,
                est.samples
            );
        }
        // The equivalent Wake pipeline (converges to exact).
        let mut g = QueryGraph::new();
        let li = db.read(&mut g, "lineitem");
        let node = match label {
            l if l.starts_with("modified Q3") => {
                let lf = g.filter(li, col("l_shipdate").gt(lit_date(1995, 3, 15)));
                let lm = g.map(lf, vec![(col("l_orderkey"), "l_orderkey"), (rev(), "v")]);
                let o = db.read(&mut g, "orders");
                let of = g.filter(o, col("o_orderdate").lt(lit_date(1995, 3, 15)));
                let j1 = g.join(lm, of, vec!["l_orderkey"], vec!["o_orderkey"]);
                let c = db.read(&mut g, "customer");
                let cf = g.filter(c, col("c_mktsegment").eq(lit_str("BUILDING")));
                g.join(j1, cf, vec!["o_custkey"], vec!["c_custkey"])
            }
            l if l.starts_with("modified Q7") => {
                let lf = g.filter(
                    li,
                    col("l_shipdate")
                        .ge(lit_date(1995, 1, 1))
                        .and(col("l_shipdate").le(lit_date(1996, 12, 31))),
                );
                let lm = g.map(lf, vec![(col("l_orderkey"), "l_orderkey"), (rev(), "v")]);
                let o = db.read(&mut g, "orders");
                let j1 = g.join(lm, o, vec!["l_orderkey"], vec!["o_orderkey"]);
                let c = db.read(&mut g, "customer");
                g.join(j1, c, vec!["o_custkey"], vec!["c_custkey"])
            }
            _ => {
                let lf = g.filter(li, col("l_returnflag").eq(lit_str("R")));
                let lm = g.map(lf, vec![(col("l_orderkey"), "l_orderkey"), (rev(), "v")]);
                let o = db.read(&mut g, "orders");
                let of = g.filter(
                    o,
                    col("o_orderdate")
                        .ge(lit_date(1993, 10, 1))
                        .and(col("o_orderdate").lt(lit_date(1994, 1, 1))),
                );
                let j1 = g.join(lm, of, vec!["l_orderkey"], vec!["o_orderkey"]);
                let c = db.read(&mut g, "customer");
                g.join(j1, c, vec!["o_custkey"], vec!["c_custkey"])
            }
        };
        let a = g.agg(node, vec![], vec![AggSpec::sum(col("v"), "s")]);
        g.sink(a);
        print_curve("Wake", &wake_curve(g, "s"));
        println!();
    }
    let _ = Arc::strong_count(&data);
}
