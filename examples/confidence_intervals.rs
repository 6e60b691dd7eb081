//! Confidence intervals for Deep OLA (§6): run TPC-H Q14 (promotion
//! revenue — a weighted average over a join) with variance propagation
//! enabled and watch the 95 % Chebyshev interval tighten around the final
//! answer, as in the paper's Fig 10.
//!
//! ```sh
//! cargo run --release --example confidence_intervals
//! ```

use std::sync::Arc;
use wake::core::ci;
use wake::engine::EngineConfig;
use wake::tpch::{queries, TpchData, TpchDb};
use wake_engine::SeriesExt;

fn main() {
    let data = Arc::new(TpchData::generate(0.01, 42));
    let db = TpchDb::new(data, 24);
    let g = queries::q14_with_ci(&db);
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap();
    let truth = series
        .final_frame()
        .value(0, "promo_revenue")
        .unwrap()
        .as_f64()
        .unwrap();

    println!("TPC-H Q14 promo_revenue with 95% Chebyshev CIs (truth = {truth:.4})\n");
    println!("progress    estimate      95% CI                    covers truth?");
    let mut covered = 0;
    let mut total = 0;
    for est in &series {
        if est.frame.num_rows() == 0 {
            continue;
        }
        let interval = ci::interval_at(&est.frame, 0, "promo_revenue", 0.95).unwrap();
        let hit = interval.contains(truth);
        total += 1;
        covered += hit as i32;
        println!(
            "  {:>5.1}%   {:>9.4}   [{:>9.4}, {:>9.4}]   {}",
            est.t * 100.0,
            interval.estimate,
            interval.lower,
            interval.upper,
            if hit { "yes" } else { "NO" }
        );
    }
    println!(
        "\nempirical coverage: {covered}/{total} — Chebyshev bounds are conservative
(the paper observes the same in §8.5: safe but wide early, collapsing to the
exact answer at completion)."
    );
}
