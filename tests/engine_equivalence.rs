//! The pipelined multi-threaded engine (§7.2) must agree with the
//! deterministic stepper on the final (exact) state of every TPC-H query,
//! and estimate streams must be well-formed under concurrency.

use std::sync::Arc;
use wake::core::graph::Parallelism;
use wake::core::metrics;
use wake::engine::{SteppedExecutor, ThreadedExecutor};
use wake::tpch::{all_queries, TpchData, TpchDb};
use wake_engine::SeriesExt;

#[test]
fn threaded_and_stepped_agree_on_all_queries() {
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 6);
    for spec in all_queries() {
        let stepped = SteppedExecutor::new((spec.build)(&db))
            .unwrap()
            .run_collect()
            .unwrap();
        let threaded = ThreadedExecutor::new((spec.build)(&db))
            .run_collect()
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
        let series = ThreadedExecutor::new((spec.build)(&db))
            .run_collect()
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
        let serial =
            SteppedExecutor::new((spec.build)(&db).with_parallelism(Parallelism::Fixed(1)))
                .unwrap()
                .run_collect()
                .unwrap();
        let sharded =
            SteppedExecutor::new((spec.build)(&db).with_parallelism(Parallelism::Fixed(4)))
                .unwrap()
                .run_collect()
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
        let reference =
            SteppedExecutor::new((spec.build)(&db).with_parallelism(Parallelism::Fixed(1)))
                .unwrap()
                .run_collect()
                .unwrap();
        let pooled =
            ThreadedExecutor::new((spec.build)(&db).with_parallelism(Parallelism::Fixed(3)))
                .run_collect()
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
        let graph = (spec.build)(&db).with_parallelism(Parallelism::Fixed(shards));
        let series = ThreadedExecutor::new(graph).run_collect().unwrap();
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
