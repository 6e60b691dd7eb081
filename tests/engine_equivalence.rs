//! The pipelined multi-threaded engine (§7.2) must agree with the
//! deterministic stepper on the final (exact) state of every TPC-H query,
//! and estimate streams must be well-formed under concurrency.

use std::sync::Arc;
use wake::core::graph::Parallelism;
use wake::core::metrics;
use wake::engine::EngineConfig;
use wake::tpch::{all_queries, TpchData, TpchDb};
use wake_engine::SeriesExt;

#[test]
fn threaded_and_stepped_agree_on_all_queries() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 6);
    for spec in all_queries() {
        let stepped = EngineConfig::stepped()
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let threaded = EngineConfig::threaded()
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let sf = stepped.final_frame();
        let tf = threaded.final_frame();
        assert_eq!(
            sf.num_rows(),
            tf.num_rows(),
            "{}: stepped {} rows vs threaded {} rows",
            spec.name,
            sf.num_rows(),
            tf.num_rows()
        );
        if sf.num_rows() == 0 {
            continue;
        }
        let r = metrics::compare(tf, sf, spec.keys, spec.values).unwrap();
        assert!(
            r.recall > 0.999 && r.precision > 0.999 && r.mape < 1e-6,
            "{}: {r:?}",
            spec.name
        );
    }
}

#[test]
fn threaded_estimate_streams_are_well_formed() {
    let data = Arc::new(TpchData::generate(0.002, 9));
    let db = TpchDb::new(data, 8);
    for name in ["q1", "q3", "q6", "q13", "q18"] {
        let spec = wake::tpch::query_by_name(name).unwrap();
        let series = EngineConfig::threaded()
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        assert!(!series.is_empty(), "{name}");
        assert!(series.last().unwrap().is_final, "{name}");
        assert!(
            series.windows(2).all(|w| w[0].elapsed <= w[1].elapsed),
            "{name}: timestamps must be monotone"
        );
        assert!(
            series.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
            "{name}: sequence numbers must be dense"
        );
    }
}

#[test]
fn sharded_stepped_agrees_with_serial_on_all_queries() {
    // Partition parallelism must not change answers: every TPC-H query at
    // Parallelism::Fixed(4) (scoped shard workers under the deterministic
    // stepper) against Fixed(1) (the exact pre-sharding code path). The
    // estimate cadence is deterministic either way, so series lengths
    // match; values agree up to the float reassociation a sharded join's
    // row reordering induces in downstream aggregates.
    let data = Arc::new(TpchData::generate(0.002, 11));
    let db = TpchDb::new(data, 6);
    for spec in all_queries() {
        let serial = EngineConfig::stepped()
            .with_parallelism(Parallelism::Fixed(1))
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let sharded = EngineConfig::stepped()
            .with_parallelism(Parallelism::Fixed(4))
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        assert_eq!(
            serial.len(),
            sharded.len(),
            "{}: estimate cadence changed under sharding",
            spec.name
        );
        let sf = serial.final_frame();
        let tf = sharded.final_frame();
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
}

#[test]
fn threaded_sharded_pool_matches_serial_reference() {
    // The pool-mode fan-out (persistent per-shard workers behind bounded
    // channels) under the pipelined executor must still produce the serial
    // answer — including non-power-of-two shard counts.
    let data = Arc::new(TpchData::generate(0.002, 5));
    let db = TpchDb::new(data, 8);
    for name in ["q3", "q13", "q18"] {
        let spec = wake::tpch::query_by_name(name).unwrap();
        let reference = EngineConfig::stepped()
            .with_parallelism(Parallelism::Fixed(1))
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let pooled = EngineConfig::threaded()
            .with_parallelism(Parallelism::Fixed(3))
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let sf = reference.final_frame();
        let tf = pooled.final_frame();
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
fn threaded_runs_are_reproducible_in_value() {
    // Thread scheduling may change the estimate cadence but never the
    // final answer. Bit-identity is a per-shard-count contract, so the
    // shard count is pinned: at `Auto` it would follow the host's cores.
    let data = Arc::new(TpchData::generate(0.002, 3));
    let db = TpchDb::new(data, 8);
    let spec = wake::tpch::query_by_name("q5").unwrap();
    let run = |shards: usize| {
        let series = EngineConfig::threaded()
            .with_parallelism(Parallelism::Fixed(shards))
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        series.final_frame().clone()
    };
    // One shard per node: every fold sees its rows in source order, and
    // two runs end bit-equal.
    assert_eq!(run(1).as_ref(), run(1).as_ref());
    // Two shards: arrival order at a sharded join reassociates the
    // downstream float sums, so what thread-per-actor can promise is the
    // same groups and values equal to rounding.
    let (a, b) = (run(2), run(2));
    assert_eq!(a.num_rows(), b.num_rows());
    let r = metrics::compare(&a, &b, spec.keys, spec.values).unwrap();
    assert!(
        r.recall == 1.0 && r.precision == 1.0 && r.mape < 1e-9 * 100.0,
        "{r:?}"
    );
}

#[test]
fn parallelism_resolves_to_the_same_shard_counts_on_both_drivers() {
    // `Fixed(n)` is used as given; `Auto` is every core on the inline
    // driver and cores ÷ hash-keyed nodes (at least 1) on thread-per-actor.
    use wake::core::agg::AggSpec;
    use wake::data::{Column, DataFrame, DataType, Field, MemorySource, Schema};
    use wake::engine::{EngineConfig, ExecutorKind, ObsLevel};
    use wake::expr::col;
    let source = |n: i64| {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let columns = vec![
            Column::from_i64((0..n).map(|i| i % 7).collect()),
            Column::from_f64((0..n).map(|i| i as f64).collect()),
        ];
        let df = DataFrame::new(schema, columns).unwrap();
        MemorySource::from_frame("t", &df, 10, vec![], None).unwrap()
    };
    let plan = || {
        let mut g = wake::core::graph::QueryGraph::new();
        let (l, r) = (g.read(source(60)), g.read(source(30)));
        let j = g.join(l, r, vec!["k"], vec!["k"]);
        let by_k = g.agg(j, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
        let by_s = g.agg(by_k, vec!["s"], vec![AggSpec::count_star("n")]);
        g.sink(by_s);
        g
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
        let auto = match kind {
            ExecutorKind::Stepped => cores,
            ExecutorKind::Threaded => (cores / 3).max(1),
        };
        for (parallelism, shards) in [
            (Parallelism::Fixed(1), 1),
            (Parallelism::Fixed(3), 3),
            (Parallelism::Auto, auto),
        ] {
            let stats = EngineConfig::new()
                .with_executor(kind)
                .with_parallelism(parallelism)
                .with_obs(ObsLevel::Profile)
                .start(plan())
                .unwrap()
                .collect_with_stats()
                .unwrap()
                .1;
            let keyed: Vec<usize> = (stats.nodes.iter())
                .filter(|n| n.label.starts_with("Join") || n.label.starts_with("Agg"))
                .map(|n| n.shard_state_bytes.len())
                .collect();
            assert_eq!(keyed, vec![shards; 3], "{kind:?} {parallelism:?}");
        }
    }
}
