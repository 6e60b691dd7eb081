//! The streaming-first execution surface: lazy estimate streams must be
//! exactly the batch path, cancellation must be clean (no hangs, no
//! leaked node threads, no leftover spill directories), and the OLA
//! stopping conditions must end TPC-H-scale queries before EOF.

use std::sync::{Arc, Mutex};
use wake::core::graph::QueryGraph;
use wake::data::DataError;
use wake::prelude::*;
use wake::tpch::{all_queries, queries, TpchData, TpchDb};

/// Serialises the tests that count OS threads or spawn pipelines, so one
/// test's node threads never show up in another's `/proc` snapshot.
static THREADS: Mutex<()> = Mutex::new(());

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("linux /proc")
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

/// Wait (briefly) for the process thread count to drop back to at most
/// `baseline`; returns the final count.
fn settled_thread_count(baseline: usize) -> usize {
    let mut count = thread_count();
    for _ in 0..200 {
        if count <= baseline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
        count = thread_count();
    }
    count
}

/// A high-cardinality group-by over lineitem — the shape that provably
/// spills under a small budget.
fn high_card_graph(db: &TpchDb) -> QueryGraph {
    let mut g = QueryGraph::new();
    let li = db.read(&mut g, "lineitem");
    let a = g.agg(
        li,
        vec!["l_orderkey"],
        vec![AggSpec::sum(col("l_extendedprice"), "rev")],
    );
    g.sink(a);
    g
}

#[test]
fn stepped_stream_is_bit_identical_to_run_collect_on_all_tpch_queries() {
    // The satellite acceptance: lazily polling the stream must reproduce
    // the materialised series exactly — frames bit for bit, progress,
    // sequence numbers, row counts, finality — on every TPC-H query.
    let data = Arc::new(TpchData::generate(0.002, 7));
    let db = TpchDb::new(data, 6);
    for spec in all_queries() {
        let collected = EngineConfig::stepped()
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let mut stream = EngineConfig::stepped().start((spec.build)(&db)).unwrap();
        let mut streamed = Vec::new();
        for est in &mut stream {
            streamed.push(est.unwrap());
        }
        assert_eq!(
            collected.len(),
            streamed.len(),
            "{}: series length",
            spec.name
        );
        for (a, b) in collected.iter().zip(&streamed) {
            assert_eq!(
                a.frame.as_ref(),
                b.frame.as_ref(),
                "{} @ seq {}",
                spec.name,
                a.seq
            );
            assert_eq!(a.t, b.t, "{}", spec.name);
            assert_eq!(a.seq, b.seq, "{}", spec.name);
            assert_eq!(a.is_final, b.is_final, "{}", spec.name);
            assert_eq!(a.rows_processed, b.rows_processed, "{}", spec.name);
        }
        assert!(stream.next().is_none(), "{}: stream must fuse", spec.name);
    }
}

/// The configurations that own OS threads while a query runs: one thread
/// per node, and the stepped engine once a hash-keyed node has more than
/// one shard (persistent shard workers).
fn thread_owning_configs() -> [EngineConfig; 2] {
    [
        EngineConfig::threaded(),
        EngineConfig::stepped().with_parallelism(Parallelism::Fixed(4)),
    ]
}

#[test]
fn dropping_threaded_stream_mid_query_leaks_nothing() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let data = Arc::new(TpchData::generate(0.01, 21));
    let db = TpchDb::new(data, 32);
    for config in thread_owning_configs() {
        let baseline = thread_count();
        let mut stream = config.start(high_card_graph(&db)).unwrap();
        // Mid-query: at least one estimate in, query far from done.
        let first = stream.next().unwrap().unwrap();
        assert!(!first.is_final);
        assert!(first.t < 1.0);
        assert!(thread_count() > baseline, "pipeline threads are running");
        drop(stream); // must not hang (drop joins every node thread)
        let after = settled_thread_count(baseline);
        assert!(
            after <= baseline,
            "leaked node threads: {baseline} before, {after} after cancel"
        );
    }
}

#[test]
fn dropping_threaded_stream_with_spill_budget_cleans_spill_dir() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let data = Arc::new(TpchData::generate(0.01, 22));
    let db = TpchDb::new(data, 32);
    for config in thread_owning_configs() {
        let baseline = thread_count();
        let mut stream = config
            .with_memory_budget(16 << 10)
            .start(high_card_graph(&db))
            .unwrap();
        let spill_dir = stream.spill_dir().expect("budgeted query has a spill dir");
        assert!(spill_dir.exists(), "spill dir allocated up front");
        // Poll until the query demonstrably spilled, then abandon it.
        let mut spilled = false;
        while let Some(est) = stream.next() {
            est.unwrap();
            if stream.stats().spill.evictions > 0 {
                spilled = true;
                break;
            }
        }
        assert!(spilled, "16 KiB budget must evict on a high-card group-by");
        drop(stream);
        let after = settled_thread_count(baseline);
        assert!(
            after <= baseline,
            "leaked node threads: {baseline} before, {after} after cancel"
        );
        assert!(
            !spill_dir.exists(),
            "per-query spill temp dir must be removed on cancellation: {spill_dir:?}"
        );
    }
}

#[test]
fn threaded_stream_exhaustion_also_cleans_spill_dir() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let data = Arc::new(TpchData::generate(0.002, 23));
    let db = TpchDb::new(data, 6);
    let stream = EngineConfig::threaded()
        .with_memory_budget(16 << 10)
        .start(high_card_graph(&db))
        .unwrap();
    let spill_dir = stream.spill_dir().unwrap();
    let (series, stats) = stream.collect_with_stats().unwrap();
    assert!(series.last().unwrap().is_final);
    assert!(stats.spill.evictions > 0);
    assert!(
        !spill_dir.exists(),
        "spill temp dir must be removed after normal completion"
    );
}

/// TPC-H-scale CI-enabled aggregation: global average of
/// `l_extendedprice` over lineitem with §6 variance propagation. The
/// Chebyshev interval demonstrably tightens with progress (≈11 % relative
/// half-width at t = 0.01, ≈1.2 % at t = 0.93 at SF 0.01).
fn ci_avg_graph(db: &TpchDb) -> QueryGraph {
    let mut g = QueryGraph::new();
    let li = db.read(&mut g, "lineitem");
    let a = g.agg_with_ci(
        li,
        vec![],
        vec![AggSpec::avg(col("l_extendedprice"), "avg_price")],
    );
    g.sink(a);
    g
}

#[test]
fn until_confidence_stops_a_tpch_query_before_eof() {
    // The paper's §3.1 loop: stop as soon as the 95 % Chebyshev interval
    // is tighter than ±2 % — long before the scan completes (the probe
    // above crosses 2 % around a quarter of the way through the scan).
    let data = Arc::new(TpchData::generate(0.01, 31));
    let db = TpchDb::new(data, 48);
    let stream = EngineConfig::stepped().start(ci_avg_graph(&db)).unwrap();
    let mut stop = stream.until_confidence("avg_price", 0.02);
    let mut last = None;
    for est in &mut stop {
        last = Some(est.unwrap());
    }
    let last = last.expect("at least one estimate");
    assert!(
        stop.stopped_early(),
        "CI never tightened below 2% before EOF (final t = {})",
        last.t
    );
    assert!(!last.is_final, "stopped estimate is not the exact answer");
    assert!(
        last.t < 0.9,
        "expected an early stop well before EOF: t = {}",
        last.t
    );
    assert!(last.max_rel_half_width("avg_price", 0.95).unwrap() <= 0.02);
    assert!(stop.next().is_none(), "stopped stream must fuse");

    // A degenerate-but-plausible trap: Q14's early snapshots contain a
    // zero estimate with zero variance (the join has not produced rows
    // yet). That must never read as converged.
    let q14 = EngineConfig::stepped()
        .start(queries::q14_with_ci(&db))
        .unwrap();
    let mut q14_stop = q14.until_confidence("promo_revenue", 0.5);
    let first = q14_stop.next().unwrap().unwrap();
    if let Some(v) = first
        .frame
        .value(0, "promo_revenue")
        .ok()
        .and_then(|v| v.as_f64())
    {
        if v == 0.0 {
            assert!(
                !q14_stop.stopped_early(),
                "zero/zero row must not stop the stream"
            );
        }
    }

    // And the final-on-completion answer (no stopping condition) stays
    // bit-identical to the batch collect() path.
    let via_stream = EngineConfig::stepped()
        .start(ci_avg_graph(&db))
        .unwrap()
        .final_frame()
        .unwrap();
    let via_collect = EngineConfig::stepped()
        .start(ci_avg_graph(&db))
        .unwrap()
        .collect_series()
        .unwrap();
    assert_eq!(via_stream.as_ref(), via_collect.final_frame().as_ref());
}

#[test]
fn until_confidence_rejects_a_level_outside_zero_one_on_both_engines() {
    // A level the Chebyshev bound cannot take is the caller's mistake: a
    // typed error on the first poll, then the end of the stream — not a
    // panic on the polling thread with node threads left running.
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let data = Arc::new(TpchData::generate(0.002, 31));
    let db = TpchDb::new(data, 8);
    for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
        for level in [1.0, 95.0, f64::NAN] {
            let baseline = thread_count();
            let config = EngineConfig::new().with_executor(kind);
            let mut stop = config
                .start(ci_avg_graph(&db))
                .unwrap()
                .until_confidence_at("avg_price", 0.5, level);
            let first = stop.next().expect("the error is yielded");
            assert!(
                matches!(first, Err(DataError::Invalid(_))),
                "{kind:?} @ {level}: {first:?}"
            );
            assert!(stop.next().is_none(), "{kind:?} @ {level}: fused");
            let after = settled_thread_count(baseline);
            assert!(after <= baseline, "{kind:?} @ {level}: {after} threads");
            // The same level through the per-row interval.
            let est = config.start(ci_avg_graph(&db)).unwrap().next().unwrap();
            let err = est.unwrap().interval_at(0, "avg_price", level);
            assert!(matches!(err, Err(DataError::Invalid(_))), "{level}");
        }
    }
}

#[test]
fn until_rows_processed_stops_both_engines_at_tpch_scale() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let data = Arc::new(TpchData::generate(0.01, 33));
    let db = TpchDb::new(data, 32);
    for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
        let stream = EngineConfig::new()
            .with_executor(kind)
            .start(high_card_graph(&db))
            .unwrap();
        let mut stop = stream.until_rows_processed(5_000);
        let mut last = None;
        for est in &mut stop {
            last = Some(est.unwrap());
        }
        let last = last.expect("at least one estimate");
        assert!(stop.stopped_early(), "{kind:?}");
        assert!(
            last.rows_processed >= 5_000,
            "{kind:?}: {}",
            last.rows_processed
        );
        assert!(!last.is_final, "{kind:?}");
    }
}

#[test]
fn stats_are_retrievable_from_exhausted_streams_of_both_engines() {
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let data = Arc::new(TpchData::generate(0.002, 35));
    let db = TpchDb::new(data, 6);
    for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
        let mut stream = EngineConfig::new()
            .with_executor(kind)
            .with_memory_budget(16 << 10)
            .start(high_card_graph(&db))
            .unwrap();
        for est in &mut stream {
            est.unwrap();
        }
        let stats = stream.stats();
        assert!(stats.peak_state_bytes > 0, "{kind:?}");
        assert!(stats.spill.evictions > 0, "{kind:?}: {:?}", stats.spill);
        // `finish` on an exhausted stream is a no-op that keeps the
        // telemetry readable.
        let final_stats = stream.finish();
        assert_eq!(
            final_stats.spill.evictions, stats.spill.evictions,
            "{kind:?}"
        );
    }
}

#[test]
fn session_streaming_loop_matches_batch_answers() {
    // The §1 session listing as a streaming loop, TPC-H flavoured: the
    // answer assembled by watching the stream equals the batch adapters.
    let data = Arc::new(TpchData::generate(0.002, 37));
    let mut s = Session::new();
    let li = s.read(data.source("lineitem", 8));
    let q = li
        .sum("l_quantity", &["l_orderkey"], "sum_qty")
        .filter(col("sum_qty").gt(lit(150.0)))
        .sort(&["sum_qty"], &[true])
        .limit(10);
    let mut final_from_stream = None;
    for est in q.stream().unwrap() {
        let est = est.unwrap();
        if est.is_final {
            final_from_stream = Some(est.frame.clone());
        }
    }
    let batch = q.get_final().unwrap();
    assert_eq!(final_from_stream.unwrap().as_ref(), batch.as_ref());
}
