//! Semantic sanity of each TPC-H query's final answer at a small scale
//! factor: output domains, cardinality bounds, and cross-query
//! consistency. These catch wrong decompositions (e.g. a semi join that
//! duplicates, an anti join that inverts) that pure equality tests between
//! engines could both get wrong.

use std::sync::Arc;
use wake_data::{DataFrame, Value};
use wake_engine::{EngineConfig, SeriesExt};
use wake_tpch::{query_by_name, TpchData, TpchDb};

fn run(db: &TpchDb, name: &str) -> Arc<DataFrame> {
    let spec = query_by_name(name).unwrap();
    EngineConfig::stepped()
        .start((spec.build)(db))
        .unwrap()
        .collect_series()
        .unwrap()
        .final_frame()
        .clone()
}

fn db() -> TpchDb {
    TpchDb::new(Arc::new(TpchData::generate(0.004, 42)), 8)
}

#[test]
fn q1_group_domain_and_totals() {
    let d = db();
    let f = run(&d, "q1");
    // Return flags in {A, N, R}, statuses in {F, O}; at most 4 valid
    // combinations exist by construction (R/A only with F).
    assert!(
        f.num_rows() >= 3 && f.num_rows() <= 4,
        "{} groups",
        f.num_rows()
    );
    let mut total_count = 0.0;
    for i in 0..f.num_rows() {
        let flag = f.value(i, "l_returnflag").unwrap();
        let status = f.value(i, "l_linestatus").unwrap();
        assert!(["A", "N", "R"].contains(&flag.as_str().unwrap()));
        assert!(["F", "O"].contains(&status.as_str().unwrap()));
        // avg * count == sum (within fp tolerance).
        let avg = f.value(i, "avg_qty").unwrap().as_f64().unwrap();
        let cnt = f.value(i, "count_order").unwrap().as_f64().unwrap();
        let sum = f.value(i, "sum_qty").unwrap().as_f64().unwrap();
        assert!((avg * cnt - sum).abs() < 1e-6 * sum.max(1.0));
        total_count += cnt;
    }
    // The shipdate filter keeps the vast majority of lineitems.
    let li = d.data().lineitem.num_rows() as f64;
    assert!(total_count > 0.9 * li && total_count <= li);
}

#[test]
fn q4_priorities_bounded_by_order_count() {
    let d = db();
    let f = run(&d, "q4");
    assert!(f.num_rows() <= 5);
    let mut total = 0.0;
    for i in 0..f.num_rows() {
        total += f.value(i, "order_count").unwrap().as_f64().unwrap();
    }
    assert!(total > 0.0);
    assert!(total <= d.data().orders.num_rows() as f64);
}

#[test]
fn q5_nations_are_asian() {
    let d = db();
    let f = run(&d, "q5");
    let asia = ["INDIA", "INDONESIA", "JAPAN", "CHINA", "VIETNAM"];
    for i in 0..f.num_rows() {
        let n = f.value(i, "n_name").unwrap();
        assert!(asia.contains(&n.as_str().unwrap()), "{n} is not Asian");
        assert!(f.value(i, "revenue").unwrap().as_f64().unwrap() > 0.0);
    }
    // Sorted by revenue descending.
    let revs: Vec<f64> = (0..f.num_rows())
        .map(|i| f.value(i, "revenue").unwrap().as_f64().unwrap())
        .collect();
    assert!(revs.windows(2).all(|w| w[0] >= w[1]));
}

#[test]
fn q6_revenue_subset_of_total() {
    let d = db();
    let f = run(&d, "q6");
    assert_eq!(f.num_rows(), 1);
    let rev = f.value(0, "revenue").unwrap().as_f64().unwrap();
    assert!(rev > 0.0);
    // Must be below 10% of gross lineitem revenue (selective filter).
    let gross: f64 = d
        .data()
        .lineitem
        .column("l_extendedprice")
        .unwrap()
        .as_f64_slice()
        .unwrap()
        .iter()
        .sum();
    assert!(rev < 0.1 * gross);
}

#[test]
fn q8_market_share_is_a_fraction() {
    let d = db();
    let f = run(&d, "q8");
    for i in 0..f.num_rows() {
        let year = f.value(i, "o_year").unwrap().as_i64().unwrap();
        assert!((1995..=1996).contains(&year));
        let share = f.value(i, "mkt_share").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&share), "share {share}");
    }
}

#[test]
fn q13_histogram_covers_all_customers() {
    let d = db();
    let f = run(&d, "q13");
    let total: f64 = (0..f.num_rows())
        .map(|i| f.value(i, "custdist").unwrap().as_f64().unwrap())
        .sum();
    assert_eq!(total as usize, d.data().customer.num_rows());
    // The zero-orders bucket exists (custkey % 3 == 0 never order) and
    // holds at least a third of customers.
    let zero = (0..f.num_rows())
        .find(|&i| f.value(i, "c_count").unwrap() == Value::Float(0.0))
        .expect("zero-order bucket");
    let zero_cnt = f.value(zero, "custdist").unwrap().as_f64().unwrap();
    assert!(zero_cnt >= d.data().customer.num_rows() as f64 / 3.0 - 1.0);
}

#[test]
fn q14_promo_fraction_bounds() {
    let d = db();
    let f = run(&d, "q14");
    let v = f.value(0, "promo_revenue").unwrap().as_f64().unwrap();
    // Percentage in [0, 100]; PROMO is 1 of 6 type prefixes, so ~16%.
    assert!(v > 1.0 && v < 60.0, "promo_revenue {v}");
}

#[test]
fn q15_top_supplier_really_is_max() {
    let d = db();
    let f = run(&d, "q15");
    assert!(f.num_rows() >= 1);
    // All rows (ties) share the same revenue, and it's positive.
    let top = f.value(0, "total_revenue").unwrap().as_f64().unwrap();
    assert!(top > 0.0);
    for i in 1..f.num_rows() {
        assert_eq!(f.value(i, "total_revenue").unwrap().as_f64().unwrap(), top);
    }
}

#[test]
fn q16_distinct_supplier_counts_bounded() {
    let d = db();
    let f = run(&d, "q16");
    assert!(f.num_rows() > 0);
    for i in 0..f.num_rows() {
        let cnt = f.value(i, "supplier_cnt").unwrap().as_f64().unwrap();
        // Each part has exactly 4 suppliers; groups pool several parts but
        // a single (brand,type,size) rarely exceeds a few parts at SF 0.004.
        assert!((1.0..=4.0 * 50.0).contains(&cnt));
        let size = f.value(i, "p_size").unwrap().as_i64().unwrap();
        assert!([49, 14, 23, 45, 19, 3, 36, 9].contains(&size));
    }
}

#[test]
fn q18_all_orders_exceed_threshold() {
    let d = db();
    let f = run(&d, "q18");
    for i in 0..f.num_rows() {
        let qty = f.value(i, "total_qty").unwrap().as_f64().unwrap();
        assert!(qty > 200.0, "qty {qty} must exceed the scaled threshold");
    }
    assert!(f.num_rows() <= 100, "LIMIT 100");
}

#[test]
fn q21_waiting_suppliers_are_saudi() {
    let d = db();
    let f = run(&d, "q21");
    // Every reported supplier must be from SAUDI ARABIA: check against the
    // generated supplier/nation tables.
    let data = d.data();
    let saudi_key = 20i64; // fixed nation order
    let mut saudi_suppliers = std::collections::HashSet::new();
    for i in 0..data.supplier.num_rows() {
        if data
            .supplier
            .value(i, "s_nationkey")
            .unwrap()
            .as_i64()
            .unwrap()
            == saudi_key
        {
            saudi_suppliers.insert(data.supplier.value(i, "s_name").unwrap());
        }
    }
    for i in 0..f.num_rows() {
        let name = f.value(i, "s_name").unwrap();
        assert!(saudi_suppliers.contains(&name), "{name} not Saudi");
        assert!(f.value(i, "numwait").unwrap().as_f64().unwrap() >= 1.0);
    }
}

#[test]
fn q22_customers_have_no_orders() {
    let d = db();
    let f = run(&d, "q22");
    let valid_codes = ["13", "31", "23", "29", "30", "18", "17"];
    let mut numcust_total = 0.0;
    for i in 0..f.num_rows() {
        let code = f.value(i, "cntrycode").unwrap();
        assert!(valid_codes.contains(&code.as_str().unwrap()));
        let n = f.value(i, "numcust").unwrap().as_f64().unwrap();
        let bal = f.value(i, "totacctbal").unwrap().as_f64().unwrap();
        assert!(n >= 1.0);
        // Selected customers all have above-average (positive) balances.
        assert!(bal > 0.0);
        numcust_total += n;
    }
    assert!(numcust_total <= d.data().customer.num_rows() as f64);
}

#[test]
fn q17_small_order_revenue_positive_when_any() {
    let d = db();
    let f = run(&d, "q17");
    if f.num_rows() == 1 {
        let v = f.value(0, "avg_yearly").unwrap();
        if let Some(x) = v.as_f64() {
            assert!(x >= 0.0);
        }
    }
}

#[test]
fn q2_suppliers_are_european_min_cost() {
    let d = db();
    let f = run(&d, "q2");
    let data = d.data();
    // Build partkey -> min EU supply cost directly from base tables.
    let europe_nations: Vec<i64> = (0..data.nation.num_rows())
        .filter(|&i| data.nation.value(i, "n_regionkey").unwrap() == Value::Int(3))
        .map(|i| {
            data.nation
                .value(i, "n_nationkey")
                .unwrap()
                .as_i64()
                .unwrap()
        })
        .collect();
    let eu_suppliers: std::collections::HashSet<i64> = (0..data.supplier.num_rows())
        .filter(|&i| {
            europe_nations.contains(
                &data
                    .supplier
                    .value(i, "s_nationkey")
                    .unwrap()
                    .as_i64()
                    .unwrap(),
            )
        })
        .map(|i| {
            data.supplier
                .value(i, "s_suppkey")
                .unwrap()
                .as_i64()
                .unwrap()
        })
        .collect();
    use std::collections::HashMap;
    let mut min_cost: HashMap<i64, f64> = HashMap::new();
    for i in 0..data.partsupp.num_rows() {
        let sk = data
            .partsupp
            .value(i, "ps_suppkey")
            .unwrap()
            .as_i64()
            .unwrap();
        if !eu_suppliers.contains(&sk) {
            continue;
        }
        let pk = data
            .partsupp
            .value(i, "ps_partkey")
            .unwrap()
            .as_i64()
            .unwrap();
        let cost = data
            .partsupp
            .value(i, "ps_supplycost")
            .unwrap()
            .as_f64()
            .unwrap();
        let e = min_cost.entry(pk).or_insert(f64::INFINITY);
        *e = e.min(cost);
    }
    for i in 0..f.num_rows() {
        let pk = f.value(i, "p_partkey").unwrap().as_i64().unwrap();
        assert!(min_cost.contains_key(&pk), "part {pk} has no EU supplier");
    }
}
