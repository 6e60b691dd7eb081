//! The paper's §1 motivating session — "find the customers with the
//! biggest order sizes" (a rewrite of TPC-H Q18) — run as Deep OLA over a
//! freshly generated TPC-H dataset:
//!
//! ```text
//! lineitem  = read(...)
//! order_qty = lineitem.sum(qty, by=orderkey)      # agg on clustering key
//! lg_orders = order_qty.filter(sum_qty > 300)     # filter on MUTABLE attr
//! lg_order_cust = lg_orders.join(orders).join(customer)
//! qty_per_cust  = lg_order_cust.sum(sum_qty, by=name)
//! top_cust      = qty_per_cust.sort(sum_qty, desc).limit(10)
//! ```
//!
//! ```sh
//! cargo run --release --example top_customers
//! ```

use std::sync::Arc;
use wake::core::agg::AggSpec;
use wake::core::graph::QueryGraph;
use wake::engine::EngineConfig;
use wake::expr::{col, lit_f64};
use wake::tpch::{TpchData, TpchDb};

fn main() {
    println!("generating TPC-H data (scale factor 0.01)...");
    let data = Arc::new(TpchData::generate(0.01, 42));
    println!(
        "  lineitem: {} rows, orders: {} rows, customer: {} rows",
        data.lineitem.num_rows(),
        data.orders.num_rows(),
        data.customer.num_rows()
    );
    let db = TpchDb::new(data, 16);

    // Build the session exactly as in the paper's listing.
    let mut g = QueryGraph::new();
    let lineitem = db.read(&mut g, "lineitem");
    let order_qty = g.agg(
        lineitem,
        vec!["l_orderkey"],
        vec![AggSpec::sum(col("l_quantity"), "sum_qty")],
    );
    let lg_orders = g.filter(order_qty, col("sum_qty").gt(lit_f64(300.0)));
    let orders = db.read(&mut g, "orders");
    let oo = g.join(lg_orders, orders, vec!["l_orderkey"], vec!["o_orderkey"]);
    let customer = db.read(&mut g, "customer");
    let oc = g.join(oo, customer, vec!["o_custkey"], vec!["c_custkey"]);
    let qty_per_cust = g.agg(
        oc,
        vec!["c_name"],
        vec![AggSpec::sum(col("sum_qty"), "total_qty")],
    );
    let top = g.sort(qty_per_cust, vec!["total_qty"], vec![true], Some(10));
    g.sink(top);

    // Run pipelined (one thread per operator, as in the paper's Fig 6).
    let estimates = EngineConfig::threaded()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    println!(
        "\n{} online estimates produced; a few snapshots:\n",
        estimates.len()
    );
    let picks: Vec<usize> = {
        let n = estimates.len();
        vec![0, n / 4, n / 2, n - 1]
    };
    for &i in picks.iter().filter(|&&i| i < estimates.len()) {
        let est = &estimates[i];
        println!(
            "--- estimate #{i} at t = {:.0}% ({:?}){}",
            est.t * 100.0,
            est.elapsed,
            if est.is_final { "  [exact]" } else { "" }
        );
        println!("{}", est.frame.pretty(5));
    }
}
