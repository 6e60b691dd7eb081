//! Spill-vs-in-memory equivalence: out-of-core execution is an
//! implementation detail, never a semantics change.
//!
//! Every TPC-H query runs twice on the deterministic stepper — once
//! unbounded (resident state, the pre-spill code path byte for byte) and
//! once under a memory budget small enough to force partition evictions
//! and multi-pass (recursive) grace-hash resolution — and the final
//! states must agree. Aggregation-only pipelines must agree **bit for
//! bit** (spilled group folds preserve accumulation order exactly); join
//! pipelines agree up to the float reassociation that deferred match
//! emission induces in downstream aggregates (the same tolerance the
//! sharding suite uses, `mape < 1e-9`).

use std::sync::Arc;
use wake::core::metrics;
use wake::engine::{EngineConfig, SpillConfig};
use wake::tpch::{all_queries, TpchData, TpchDb};
use wake_engine::SeriesExt;

/// Small enough to evict at SF 0.002 (per-operator slices land around a
/// few KiB against hundreds of KiB of join/agg state), large enough to
/// keep the suite fast.
const BUDGET: usize = 64 << 10;

#[test]
fn all_queries_spill_to_the_same_final_answer() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 6);
    let mut total_evictions = 0usize;
    let mut total_spilled = 0usize;
    for spec in all_queries() {
        let reference = EngineConfig::new()
            .unbounded_memory()
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let (bounded, stats) = EngineConfig::new()
            .with_memory_budget(BUDGET)
            .start((spec.build)(&db))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        total_evictions += stats.spill.evictions;
        total_spilled += stats.spill.spilled_bytes;
        let sf = reference.final_frame();
        let tf = bounded.final_frame();
        assert_eq!(
            sf.num_rows(),
            tf.num_rows(),
            "{}: resident {} rows vs spilled {} rows",
            spec.name,
            sf.num_rows(),
            tf.num_rows()
        );
        if sf.num_rows() == 0 {
            continue;
        }
        let r = metrics::compare(tf, sf, spec.keys, spec.values).unwrap();
        assert!(
            r.recall > 0.999 && r.precision > 0.999 && r.mape < 1e-9,
            "{}: {r:?}",
            spec.name
        );
    }
    // The budget must actually have bitten — this suite is worthless if
    // the workload fits in memory.
    assert!(
        total_evictions > 20,
        "only {total_evictions} evictions across 22 queries"
    );
    assert!(
        total_spilled > BUDGET,
        "spilled {total_spilled} bytes — less than one budget"
    );
}

#[test]
fn aggregation_pipelines_spill_bit_identically() {
    // No joins => no emission reordering: the whole estimate stream,
    // not just the final state, must be bit-equal under the budget.
    // q1/q6 pin the low-cardinality shapes; the custom high-cardinality
    // group-by (one group per orderkey) is the one that actually evicts.
    let data = Arc::new(TpchData::generate(0.002, 7));
    let db = TpchDb::new(data, 8);
    let high_card = || {
        use wake::core::agg::AggSpec;
        use wake::core::graph::QueryGraph;
        use wake::expr::col;
        let mut g = QueryGraph::new();
        let li = db.read(&mut g, "lineitem");
        let a = g.agg(
            li,
            vec!["l_orderkey"],
            vec![
                AggSpec::sum(col("l_extendedprice"), "revenue"),
                AggSpec::count_star("items"),
                AggSpec::count_distinct(col("l_suppkey"), "supps"),
                AggSpec::median(col("l_quantity"), "med_qty"),
            ],
        );
        g.sink(a);
        g
    };
    let mut ran_high_card = false;
    for name in ["q1", "q6", "group-by-orderkey"] {
        let build = |db: &TpchDb| -> wake::core::graph::QueryGraph {
            if name == "group-by-orderkey" {
                high_card()
            } else {
                (wake::tpch::query_by_name(name).unwrap().build)(db)
            }
        };
        let reference = EngineConfig::new()
            .unbounded_memory()
            .start(build(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let (bounded, stats) = EngineConfig::new()
            .with_memory_budget(16 << 10)
            .start(build(&db))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        assert_eq!(reference.len(), bounded.len(), "{name}: estimate cadence");
        for (a, b) in reference.iter().zip(bounded.iter()) {
            assert_eq!(a.frame.as_ref(), b.frame.as_ref(), "{name} @ t={}", a.t);
        }
        if name == "group-by-orderkey" {
            assert!(
                stats.spill.evictions > 0 && stats.spill.rehydrations > 0,
                "{name}: high-cardinality group-by must spill at 16 KiB ({:?})",
                stats.spill
            );
            ran_high_card = true;
        }
    }
    assert!(ran_high_card);
}

#[test]
fn delta_log_is_estimate_invariant_across_the_tpch_suite() {
    // The write-behind delta log under stress: a 64 KiB budget plus a
    // small compaction ratio forces both sides of the policy — delta
    // appends whenever a fold touches a small slice of a spilled
    // partition, compactions whenever the delta run outgrows its share
    // of the base. The log must be invisible in the estimates:
    //
    // - per-estimate bit-equality with the compact-on-every-fold spill
    //   path (ratio 0, the pre-delta-log behavior) for EVERY query —
    //   same budget ⇒ same evictions, and replaying base + deltas must
    //   reconstruct each partition bit for bit;
    // - per-estimate bit-equality with UNBOUNDED execution for the
    //   aggregation-only pipelines (join spilling defers match emission,
    //   so mid-query join estimates legitimately differ from resident
    //   execution — the same caveat as the rest of this suite);
    // - final-state agreement with unbounded for every query.
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 6);
    let agg_only = ["q1", "q6"];
    let mut total_compactions = 0usize;
    let mut total_delta_bytes = 0usize;
    let mut total_delta_chunks = 0usize;
    for spec in all_queries() {
        let reference = EngineConfig::new()
            .unbounded_memory()
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let (legacy, legacy_stats) = EngineConfig::new()
            .with_memory_budget(BUDGET)
            .with_spill_delta_ratio(0.0)
            .start((spec.build)(&db))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        let (delta, stats) = EngineConfig::new()
            .with_memory_budget(BUDGET)
            .with_spill_delta_ratio(0.25)
            .start((spec.build)(&db))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        assert_eq!(legacy_stats.spill.delta_bytes, 0, "{}", spec.name);
        total_compactions += stats.spill.compactions;
        total_delta_bytes += stats.spill.delta_bytes;
        total_delta_chunks += stats.spill.delta_chunks;
        assert_eq!(legacy.len(), delta.len(), "{}: estimate cadence", spec.name);
        for (a, b) in legacy.iter().zip(delta.iter()) {
            assert_eq!(
                a.frame.as_ref(),
                b.frame.as_ref(),
                "{}: delta log changed an estimate at t={}",
                spec.name,
                a.t
            );
        }
        if agg_only.contains(&spec.name) {
            assert_eq!(reference.len(), delta.len(), "{}", spec.name);
            for (a, b) in reference.iter().zip(delta.iter()) {
                assert_eq!(
                    a.frame.as_ref(),
                    b.frame.as_ref(),
                    "{}: not bit-equal to resident at t={}",
                    spec.name,
                    a.t
                );
            }
        }
        let sf = reference.final_frame();
        let tf = delta.final_frame();
        assert_eq!(sf.num_rows(), tf.num_rows(), "{}", spec.name);
        if sf.num_rows() == 0 {
            continue;
        }
        let r = metrics::compare(tf, sf, spec.keys, spec.values).unwrap();
        assert!(
            r.recall > 0.999 && r.precision > 0.999 && r.mape < 1e-9,
            "{}: {r:?}",
            spec.name
        );
    }
    // The policy must actually have exercised both paths across the
    // suite: folds that appended deltas and folds that compacted.
    assert!(
        total_compactions >= 1,
        "no compactions across 22 queries at ratio 0.25"
    );
    assert!(
        total_delta_bytes > 0 && total_delta_chunks > 0,
        "no delta appends across 22 queries at ratio 0.25"
    );
}

#[test]
fn threaded_executor_honours_the_budget_knob() {
    let data = Arc::new(TpchData::generate(0.002, 5));
    let db = TpchDb::new(data, 6);
    for name in ["q3", "q13", "q18"] {
        let spec = wake::tpch::query_by_name(name).unwrap();
        let reference = EngineConfig::new()
            .unbounded_memory()
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let bounded = EngineConfig::threaded()
            .with_memory_budget(BUDGET)
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let sf = reference.final_frame();
        let tf = bounded.final_frame();
        assert_eq!(sf.num_rows(), tf.num_rows(), "{name}");
        if sf.num_rows() == 0 {
            continue;
        }
        let r = metrics::compare(tf, sf, spec.keys, spec.values).unwrap();
        assert!(
            r.recall > 0.999 && r.precision > 0.999 && r.mape < 1e-9,
            "{name}: {r:?}"
        );
    }
}

#[test]
fn unbounded_default_is_byte_identical_to_explicit_unbounded() {
    // The default `EngineConfig` (what every other suite uses) and an
    // explicit budget must be the same machine for the same
    // budget. Guards the "budget = ∞ is pre-PR behavior" acceptance
    // criterion.
    // Mutating the process environment from a test would race with
    // concurrent `getenv`s in sibling tests (UB on glibc), so instead
    // read the ambient value once and compare the default against an explicit
    // config reproducing it — ambient unset means both are unbounded.
    let ambient = SpillConfig::from_env();
    let data = Arc::new(TpchData::generate(0.002, 3));
    let db = TpchDb::new(data, 4);
    let spec = wake::tpch::query_by_name("q18").unwrap();
    let a = EngineConfig::stepped()
        .start((spec.build)(&db))
        .unwrap()
        .collect_series()
        .unwrap();
    let explicit = match ambient.budget_bytes {
        Some(bytes) => EngineConfig::stepped().with_memory_budget(bytes),
        None => EngineConfig::stepped().unbounded_memory(),
    };
    let b = explicit
        .start((spec.build)(&db))
        .unwrap()
        .collect_series()
        .unwrap();
    assert_eq!(a.len(), b.len());
    if ambient.budget_bytes.is_none() {
        // Truly unbounded: the resident path must be reproduced bit for
        // bit, estimate by estimate.
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.frame.as_ref(), y.frame.as_ref());
        }
    } else {
        // Ambient budget set (the CI low-memory lane): both runs spill
        // identically under the deterministic stepper; final frames
        // agree up to deferred-emission reassociation.
        let sf = a.final_frame();
        let tf = b.final_frame();
        assert_eq!(sf.num_rows(), tf.num_rows());
        let r = metrics::compare(tf, sf, spec.keys, spec.values).unwrap();
        assert!(
            r.recall > 0.999 && r.precision > 0.999 && r.mape < 1e-9,
            "{r:?}"
        );
    }
}
