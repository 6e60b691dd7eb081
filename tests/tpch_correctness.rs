//! End-to-end correctness of all 22 TPC-H queries.
//!
//! The central closure property (§3.1 "Convergence") says the final edf
//! state equals the answer a conventional system computes. We check it two
//! ways: (a) running each query with many partitions (full incremental
//! merge machinery) must produce the same final frame as running with a
//! single partition per table (one-shot path), and (b) recall/precision
//! of the final state are exactly 1 under the query's output keys.

use std::sync::Arc;
use wake::core::metrics;
use wake::engine::EngineConfig;
use wake::tpch::{all_queries, TpchData, TpchDb};
use wake_engine::SeriesExt;

fn run_final(db: &TpchDb, name: &str) -> Arc<wake::data::DataFrame> {
    let spec = wake::tpch::query_by_name(name).unwrap();
    let g = (spec.build)(db);
    let series = EngineConfig::stepped()
        .start(g)
        .unwrap_or_else(|e| panic!("{name}: build failed: {e}"))
        .collect_series()
        .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
    assert!(!series.is_empty(), "{name}: no estimates produced");
    assert!(series.last().unwrap().is_final);
    series.final_frame().clone()
}

#[test]
fn all_queries_partitioned_equals_single_shot() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let incremental = TpchDb::ambient(data.clone(), 8).unwrap();
    let oneshot = TpchDb::ambient(data, 1).unwrap();
    for spec in all_queries() {
        let inc = run_final(&incremental, spec.name);
        let one = run_final(&oneshot, spec.name);
        assert_eq!(
            inc.num_rows(),
            one.num_rows(),
            "{}: row count {} (incremental) vs {} (one-shot)\ninc:\n{}\none:\n{}",
            spec.name,
            inc.num_rows(),
            one.num_rows(),
            inc.pretty(12),
            one.pretty(12)
        );
        if inc.num_rows() == 0 {
            continue;
        }
        // Key-matched numeric comparison (order-insensitive, fp-tolerant).
        let report = metrics::compare(&inc, &one, spec.keys, spec.values)
            .unwrap_or_else(|e| panic!("{}: compare failed: {e}", spec.name));
        assert!(
            report.recall > 0.999 && report.precision > 0.999,
            "{}: recall {} precision {}",
            spec.name,
            report.recall,
            report.precision
        );
        assert!(
            report.mape < 1e-6,
            "{}: final MAPE {} should be ~0\ninc:\n{}\none:\n{}",
            spec.name,
            report.mape,
            inc.pretty(12),
            one.pretty(12)
        );
    }
}

#[test]
fn estimates_converge_monotonically_in_progress() {
    let data = Arc::new(TpchData::generate(0.002, 7));
    let db = TpchDb::ambient(data, 10).unwrap();
    // Q1 is the canonical OLA query: check error decreases broadly.
    let spec = wake::tpch::query_by_name("q1").unwrap();
    let series = EngineConfig::stepped()
        .start((spec.build)(&db))
        .unwrap()
        .collect_series()
        .unwrap();
    let truth = series.final_frame().clone();
    let mut errors = Vec::new();
    for est in &series {
        let r = metrics::compare(&est.frame, &truth, spec.keys, spec.values).unwrap();
        errors.push(r.mape);
    }
    assert_eq!(*errors.last().unwrap(), 0.0);
    // First-half mean error should exceed second-half mean error.
    let mid = errors.len() / 2;
    let first: f64 = errors[..mid].iter().sum::<f64>() / mid.max(1) as f64;
    let second: f64 = errors[mid..].iter().sum::<f64>() / (errors.len() - mid) as f64;
    assert!(
        second <= first + 1e-9,
        "error should shrink: first half {first}, second half {second} ({errors:?})"
    );
}

#[test]
fn first_estimates_arrive_before_final() {
    let data = Arc::new(TpchData::generate(0.002, 11));
    let db = TpchDb::ambient(data, 10).unwrap();
    for name in ["q1", "q6", "q18"] {
        let spec = wake::tpch::query_by_name(name).unwrap();
        // Every zone read: on persisted tables pruning would cut q6's scan.
        let series = EngineConfig::stepped()
            .with_zone_pruning(false)
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        assert!(
            series.len() >= 5,
            "{name}: expected a stream of estimates, got {}",
            series.len()
        );
        assert!(series.first_latency().unwrap() <= series.final_latency().unwrap());
        // Progress is monotone and finishes complete.
        assert!(series.windows(2).all(|w| w[0].t <= w[1].t + 1e-12));
        assert!((series.last().unwrap().t - 1.0).abs() < 1e-9);
    }
}
