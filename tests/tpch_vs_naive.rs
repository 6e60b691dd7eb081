//! Cross-validation of Wake's final answers against the *independent*
//! naive engine (`wake-baseline::naive`) — different algorithms, different
//! code — for a representative subset of TPC-H queries covering every
//! operator: filter/map (Q1, Q6), semi join (Q4), left join + deep agg
//! (Q13), join + weighted avg (Q14), clustered agg + filter-on-mutable +
//! joins (Q18), anti join + scalar sub-query (Q22).

use std::sync::Arc;
use wake::baseline::naive::{NaiveAgg, NaiveJoin, Table};
use wake::core::metrics;
use wake::data::DataFrame;
use wake::engine::EngineConfig;
use wake::expr::{case_when, col, lit_date, lit_f64, lit_str};
use wake::tpch::{query_by_name, TpchData, TpchDb};
use wake_engine::SeriesExt;

fn wake_final(db: &TpchDb, name: &str) -> Arc<DataFrame> {
    let spec = query_by_name(name).unwrap();
    EngineConfig::stepped()
        .start((spec.build)(db))
        .unwrap()
        .collect_series()
        .unwrap()
        .final_frame()
        .clone()
}

fn check(name: &str, wake: &DataFrame, naive: &DataFrame, keys: &[&str], values: &[&str]) {
    assert_eq!(
        wake.num_rows(),
        naive.num_rows(),
        "{name} row count\nwake:\n{}\nnaive:\n{}",
        wake.pretty(15),
        naive.pretty(15)
    );
    if naive.num_rows() == 0 {
        return;
    }
    let r = metrics::compare(wake, naive, keys, values).unwrap();
    assert!(r.recall > 0.999 && r.precision > 0.999, "{name}: {r:?}");
    assert!(
        r.mape < 1e-6,
        "{name}: MAPE {}\nwake:\n{}\nnaive:\n{}",
        r.mape,
        wake.pretty(15),
        naive.pretty(15)
    );
}

fn data() -> Arc<TpchData> {
    Arc::new(TpchData::generate(0.002, 42))
}

fn rev() -> wake::expr::Expr {
    col("l_extendedprice").mul(lit_f64(1.0).sub(col("l_discount")))
}

#[test]
fn q1_matches_naive() {
    let d = data();
    let db = TpchDb::new(d.clone(), 6);
    let w = wake_final(&db, "q1");
    let naive = Table::new(d.lineitem.clone())
        .filter(&col("l_shipdate").le(lit_date(1998, 9, 2)))
        .unwrap()
        .map(&[
            (col("l_returnflag"), "l_returnflag"),
            (col("l_linestatus"), "l_linestatus"),
            (col("l_quantity"), "l_quantity"),
            (col("l_extendedprice"), "l_extendedprice"),
            (col("l_discount"), "l_discount"),
            (rev(), "disc_price"),
            (rev().mul(lit_f64(1.0).add(col("l_tax"))), "charge"),
        ])
        .unwrap()
        .group_by(
            &["l_returnflag", "l_linestatus"],
            &[
                (NaiveAgg::Sum, col("l_quantity"), "sum_qty"),
                (NaiveAgg::Sum, col("l_extendedprice"), "sum_base_price"),
                (NaiveAgg::Sum, col("disc_price"), "sum_disc_price"),
                (NaiveAgg::Sum, col("charge"), "sum_charge"),
                (NaiveAgg::Avg, col("l_quantity"), "avg_qty"),
                (NaiveAgg::Avg, col("l_extendedprice"), "avg_price"),
                (NaiveAgg::Avg, col("l_discount"), "avg_disc"),
                (NaiveAgg::CountStar, col("l_quantity"), "count_order"),
            ],
        )
        .unwrap();
    check(
        "q1",
        &w,
        naive.frame(),
        &["l_returnflag", "l_linestatus"],
        &[
            "sum_qty",
            "sum_base_price",
            "sum_disc_price",
            "sum_charge",
            "avg_qty",
            "avg_price",
            "avg_disc",
            "count_order",
        ],
    );
}

#[test]
fn q4_matches_naive() {
    let d = data();
    let db = TpchDb::new(d.clone(), 6);
    let w = wake_final(&db, "q4");
    let orders = Table::new(d.orders.clone())
        .filter(
            &col("o_orderdate")
                .ge(lit_date(1993, 7, 1))
                .and(col("o_orderdate").lt(lit_date(1993, 10, 1))),
        )
        .unwrap();
    let lineitem = Table::new(d.lineitem.clone())
        .filter(&col("l_commitdate").lt(col("l_receiptdate")))
        .unwrap();
    let naive = orders
        .join(&lineitem, &["o_orderkey"], &["l_orderkey"], NaiveJoin::Semi)
        .unwrap()
        .group_by(
            &["o_orderpriority"],
            &[(NaiveAgg::CountStar, col("o_orderkey"), "order_count")],
        )
        .unwrap();
    check(
        "q4",
        &w,
        naive.frame(),
        &["o_orderpriority"],
        &["order_count"],
    );
}

#[test]
fn q6_matches_naive() {
    let d = data();
    let db = TpchDb::new(d.clone(), 6);
    let w = wake_final(&db, "q6");
    let naive = Table::new(d.lineitem.clone())
        .filter(
            &col("l_shipdate")
                .ge(lit_date(1994, 1, 1))
                .and(col("l_shipdate").lt(lit_date(1995, 1, 1)))
                .and(col("l_discount").between(lit_f64(0.05), lit_f64(0.07)))
                .and(col("l_quantity").lt(lit_f64(24.0))),
        )
        .unwrap()
        .map(&[(col("l_extendedprice").mul(col("l_discount")), "r")])
        .unwrap()
        .group_by(&[], &[(NaiveAgg::Sum, col("r"), "revenue")])
        .unwrap();
    check("q6", &w, naive.frame(), &[], &["revenue"]);
}

#[test]
fn q13_matches_naive() {
    let d = data();
    let db = TpchDb::new(d.clone(), 6);
    let w = wake_final(&db, "q13");
    let orders = Table::new(d.orders.clone())
        .filter(&col("o_comment").not_like("%special%requests%"))
        .unwrap();
    let naive = Table::new(d.customer.clone())
        .map(&[(col("c_custkey"), "c_custkey")])
        .unwrap()
        .join(&orders, &["c_custkey"], &["o_custkey"], NaiveJoin::Left)
        .unwrap()
        .group_by(
            &["c_custkey"],
            &[(NaiveAgg::Count, col("o_orderkey"), "c_count")],
        )
        .unwrap()
        .group_by(
            &["c_count"],
            &[(NaiveAgg::CountStar, col("c_count"), "custdist")],
        )
        .unwrap();
    check("q13", &w, naive.frame(), &["c_count"], &["custdist"]);
}

#[test]
fn q14_matches_naive() {
    let d = data();
    let db = TpchDb::new(d.clone(), 6);
    let w = wake_final(&db, "q14");
    let li = Table::new(d.lineitem.clone())
        .filter(
            &col("l_shipdate")
                .ge(lit_date(1995, 9, 1))
                .and(col("l_shipdate").lt(lit_date(1995, 10, 1))),
        )
        .unwrap()
        .map(&[(col("l_partkey"), "l_partkey"), (rev(), "r")])
        .unwrap();
    let joined = li
        .join(
            &Table::new(d.part.clone()),
            &["l_partkey"],
            &["p_partkey"],
            NaiveJoin::Inner,
        )
        .unwrap()
        .map(&[
            (
                case_when(vec![(col("p_type").like("PROMO%"), col("r"))], lit_f64(0.0))
                    .mul(lit_f64(100.0)),
                "promo",
            ),
            (col("r"), "r"),
        ])
        .unwrap()
        .group_by(
            &[],
            &[
                (NaiveAgg::Sum, col("promo"), "p"),
                (NaiveAgg::Sum, col("r"), "t"),
            ],
        )
        .unwrap()
        .map(&[(col("p").div(col("t")), "promo_revenue")])
        .unwrap();
    check("q14", &w, joined.frame(), &[], &["promo_revenue"]);
}

#[test]
fn q18_matches_naive() {
    let d = data();
    let db = TpchDb::new(d.clone(), 6);
    let w = wake_final(&db, "q18");
    let oq = Table::new(d.lineitem.clone())
        .group_by(
            &["l_orderkey"],
            &[(NaiveAgg::Sum, col("l_quantity"), "sum_qty")],
        )
        .unwrap()
        // Mirror q18's scale-aware threshold (200 below SF 0.5).
        .filter(&col("sum_qty").gt(lit_f64(200.0)))
        .unwrap();
    let naive = oq
        .join(
            &Table::new(d.orders.clone()),
            &["l_orderkey"],
            &["o_orderkey"],
            NaiveJoin::Inner,
        )
        .unwrap()
        .join(
            &Table::new(d.customer.clone()),
            &["o_custkey"],
            &["c_custkey"],
            NaiveJoin::Inner,
        )
        .unwrap()
        .group_by(
            &[
                "c_name",
                "c_custkey",
                "o_orderkey",
                "o_orderdate",
                "o_totalprice",
            ],
            &[(NaiveAgg::Sum, col("sum_qty"), "total_qty")],
        )
        .unwrap()
        // Mirror the query's ORDER BY ... LIMIT 100 (o_totalprice floats
        // make cutoff ties vanishingly unlikely).
        .sort(&["o_totalprice", "o_orderdate"], &[true, false])
        .unwrap()
        .head(100);
    check("q18", &w, naive.frame(), &["o_orderkey"], &["total_qty"]);
}

#[test]
fn q22_matches_naive() {
    let d = data();
    let db = TpchDb::new(d.clone(), 6);
    let w = wake_final(&db, "q22");
    let codes: Vec<wake::data::Value> = ["13", "31", "23", "29", "30", "18", "17"]
        .iter()
        .map(|c| wake::data::Value::str(*c))
        .collect();
    let cust = Table::new(d.customer.clone())
        .map(&[
            (col("c_custkey"), "c_custkey"),
            (col("c_acctbal"), "c_acctbal"),
            (col("c_phone").substr(1, 2), "cntrycode"),
        ])
        .unwrap()
        .filter(&col("cntrycode").in_list(codes))
        .unwrap();
    let avg_bal = cust
        .filter(&col("c_acctbal").gt(lit_f64(0.0)))
        .unwrap()
        .group_by(&[], &[(NaiveAgg::Avg, col("c_acctbal"), "avg_bal")])
        .unwrap()
        .frame()
        .value(0, "avg_bal")
        .unwrap()
        .as_f64()
        .unwrap();
    let naive = cust
        .join(
            &Table::new(d.orders.clone()),
            &["c_custkey"],
            &["o_custkey"],
            NaiveJoin::Anti,
        )
        .unwrap()
        .filter(&col("c_acctbal").gt(lit_f64(avg_bal)))
        .unwrap()
        .group_by(
            &["cntrycode"],
            &[
                (NaiveAgg::CountStar, col("c_acctbal"), "numcust"),
                (NaiveAgg::Sum, col("c_acctbal"), "totacctbal"),
            ],
        )
        .unwrap();
    check(
        "q22",
        &w,
        naive.frame(),
        &["cntrycode"],
        &["numcust", "totacctbal"],
    );
}

#[test]
fn q19_matches_naive() {
    let d = data();
    let db = TpchDb::new(d.clone(), 6);
    let w = wake_final(&db, "q19");
    use wake::data::Value;
    let li = Table::new(d.lineitem.clone())
        .filter(
            &col("l_shipmode")
                .in_list(vec![Value::str("AIR"), Value::str("REG AIR")])
                .and(col("l_shipinstruct").eq(lit_str("DELIVER IN PERSON"))),
        )
        .unwrap();
    let joined = li
        .join(
            &Table::new(d.part.clone()),
            &["l_partkey"],
            &["p_partkey"],
            NaiveJoin::Inner,
        )
        .unwrap();
    let branch = |brand: &str, pre: &str, qlo: f64, qhi: f64, smax: i64| {
        col("p_brand")
            .eq(lit_str(brand))
            .and(col("p_container").like(&format!("{pre}%")))
            .and(
                col("p_container").in_list(
                    match pre {
                        "SM" => ["SM CASE", "SM BOX", "SM PACK", "SM PKG"],
                        "MED" => ["MED BAG", "MED BOX", "MED PKG", "MED PACK"],
                        _ => ["LG CASE", "LG BOX", "LG PACK", "LG PKG"],
                    }
                    .iter()
                    .map(|s| Value::str(*s))
                    .collect(),
                ),
            )
            .and(col("l_quantity").between(lit_f64(qlo), lit_f64(qhi)))
            .and(col("p_size").between(wake::expr::lit_i64(1), wake::expr::lit_i64(smax)))
    };
    let naive = joined
        .filter(
            &branch("Brand#12", "SM", 1.0, 11.0, 5)
                .or(branch("Brand#23", "MED", 10.0, 20.0, 10))
                .or(branch("Brand#34", "LG", 20.0, 30.0, 15)),
        )
        .unwrap()
        .map(&[(rev(), "r")])
        .unwrap()
        .group_by(&[], &[(NaiveAgg::Sum, col("r"), "revenue")])
        .unwrap();
    check("q19", &w, naive.frame(), &[], &["revenue"]);
}
