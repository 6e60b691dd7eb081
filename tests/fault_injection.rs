//! Fault-injected spill I/O: the recovery ladder end to end.
//!
//! Every test runs real TPC-H queries under a memory budget small enough
//! to force spilling, with a deterministic [`FaultIo`] device injected
//! between the engine and the filesystem. The contract under test:
//!
//! - **Transient** device errors are invisible: bounded-backoff retries
//!   absorb them and the estimate stream is bit-identical to a fault-free
//!   run (telemetry aside).
//! - A **persistently failing** device poisons the governor: queries fall
//!   back to memory-resident execution and still produce exact answers
//!   (`RunStats::degraded`), or — when spilled state cannot be read back —
//!   fail with a typed error. Never a panic, never a hang, never a leaked
//!   thread or spill directory.

use std::sync::{Arc, Mutex};
use wake::core::metrics;
use wake::data::DataError;
use wake::engine::{EngineConfig, FaultIo, FaultSchedule, SpillIo};
use wake::prelude::*;
use wake::tpch::{all_queries, TpchData, TpchDb};

/// Small enough to evict at SF 0.002 (same constant as the spill
/// equivalence suite), so the fault schedules actually see I/O traffic.
const BUDGET: usize = 64 << 10;

/// Serialises the tests that count OS threads (threaded pipelines from a
/// concurrently running test would pollute the `/proc` snapshot).
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

/// A high-cardinality group-by over lineitem — guaranteed to spill (and
/// therefore to read spilled state back) under a small budget.
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

/// The base of every config in this file, references included. One shard
/// is pinned because bit-identity is a per-shard-count contract and
/// `FaultIo` keeps a single op counter per device: at `Auto` ≥ 2 the shard
/// workers interleave on it, so which operation trips a fault — and
/// whether a worker waking from backoff lands on a fresh `every`-multiple
/// and exhausts its retries — would depend on scheduling.
fn one_shard() -> EngineConfig {
    EngineConfig::stepped().with_parallelism(Parallelism::Fixed(1))
}

fn faulted_config(io: &Arc<FaultIo>, budget: usize, retries: u32) -> EngineConfig {
    one_shard()
        .with_memory_budget(budget)
        .with_spill_io(io.clone() as Arc<dyn SpillIo>)
        .with_spill_retries(retries)
        .with_spill_retry_delay(std::time::Duration::from_micros(50))
}

#[test]
fn transient_faults_retry_to_bit_identical_estimates() {
    // Every TPC-H query, stepped (deterministic): a device that fails
    // every few operations — but recovers on retry — must not change a
    // single byte of a single estimate. Only the telemetry may differ.
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 6);
    let mut total_retries = 0usize;
    for spec in all_queries() {
        let reference = one_shard()
            .with_memory_budget(BUDGET)
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let io = Arc::new(FaultIo::new(FaultSchedule {
            transient_write_every: Some(3),
            transient_read_every: Some(5),
            ..FaultSchedule::default()
        }));
        let (faulted, stats) = faulted_config(&io, BUDGET, 2)
            .start((spec.build)(&db))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        assert!(
            !stats.degraded,
            "{}: transient faults must not poison",
            spec.name
        );
        total_retries += stats.spill.io_retries;
        assert_eq!(reference.len(), faulted.len(), "{}", spec.name);
        for (a, b) in reference.iter().zip(faulted.iter()) {
            assert_eq!(
                a.frame.as_ref(),
                b.frame.as_ref(),
                "{} @ seq {}: estimates diverged under retried transient faults",
                spec.name,
                a.seq
            );
            assert_eq!(a.t, b.t, "{}", spec.name);
            assert_eq!(a.is_final, b.is_final, "{}", spec.name);
        }
    }
    assert!(
        total_retries > 0,
        "the schedule never fired — the suite is not exercising retries"
    );
}

#[test]
fn enospc_degrades_to_resident_execution_with_exact_answers() {
    // A spill device that fills up mid-query: writes start failing
    // permanently, the governor is poisoned, and every query must still
    // run to completion — resident from the point of failure on — with
    // answers equal to the unbounded reference.
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 6);
    let mut degraded_runs = 0usize;
    for spec in all_queries() {
        let reference = one_shard()
            .unbounded_memory()
            .start((spec.build)(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        let io = Arc::new(FaultIo::new(FaultSchedule {
            enospc_after_bytes: Some(16 << 10),
            ..FaultSchedule::default()
        }));
        let (bounded, stats) = faulted_config(&io, BUDGET, 1)
            .start((spec.build)(&db))
            .unwrap()
            .collect_with_stats()
            .unwrap();
        if stats.degraded {
            degraded_runs += 1;
        }
        let sf = reference.final_frame();
        let tf = bounded.final_frame();
        assert_eq!(sf.num_rows(), tf.num_rows(), "{}", spec.name);
        if sf.num_rows() == 0 {
            continue;
        }
        let r = metrics::compare(tf, sf, spec.keys, spec.values).unwrap();
        assert!(
            r.recall > 0.999 && r.precision > 0.999 && r.mape < 1e-9,
            "{}: degraded run diverged: {r:?}",
            spec.name
        );
    }
    assert!(
        degraded_runs > 0,
        "no query wrote 16 KiB before finishing — ENOSPC never triggered"
    );
}

#[test]
fn persistent_read_failure_is_a_typed_error_and_the_stream_fuses() {
    // Spilled state that can never be read back cannot be recovered by
    // degrading — the query must fail with the typed `SpillUnavailable`
    // error (not a panic), fuse the stream, and keep stats readable.
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 6);
    let io = Arc::new(FaultIo::new(FaultSchedule {
        persistent_read_from: Some(0),
        ..FaultSchedule::default()
    }));
    let mut stream = faulted_config(&io, 16 << 10, 1)
        .start(high_card_graph(&db))
        .unwrap();
    let spill_root = stream.spill_dir().expect("budgeted query has a spill dir");
    let mut saw_error = false;
    for est in &mut stream {
        match est {
            Ok(_) => {}
            Err(DataError::SpillUnavailable(msg)) => {
                assert!(msg.contains("failed after"), "retry context in: {msg}");
                saw_error = true;
                break;
            }
            Err(other) => panic!("expected SpillUnavailable, got {other:?}"),
        }
    }
    assert!(
        saw_error,
        "an unreadable spill device must surface an error"
    );
    assert!(stream.next().is_none(), "errored stream must fuse");
    let stats = stream.stats();
    assert!(stats.degraded, "read exhaustion poisons the governor");
    assert!(stats.spill.evictions > 0, "the query did spill first");
    drop(stream);
    assert!(
        !spill_root.exists(),
        "spill temp dir must be removed after an errored query: {spill_root:?}"
    );
}

#[test]
fn threaded_error_termination_joins_threads_and_cleans_spill_dir() {
    // The same unreadable device on the pipelined engine: the node error
    // must cascade through the shutdown protocol — every thread joined,
    // the typed error surfaced exactly once, the spill directory gone.
    let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 6);
    let baseline = thread_count();
    let io = Arc::new(FaultIo::new(FaultSchedule {
        persistent_read_from: Some(0),
        ..FaultSchedule::default()
    }));
    let mut stream = faulted_config(&io, 16 << 10, 1)
        .with_executor(ExecutorKind::Threaded)
        .start(high_card_graph(&db))
        .unwrap();
    let spill_root = stream.spill_dir().expect("budgeted query has a spill dir");
    let mut saw_error = false;
    for est in &mut stream {
        match est {
            Ok(_) => {}
            Err(DataError::SpillUnavailable(_)) => {
                saw_error = true;
                break;
            }
            Err(other) => panic!("expected SpillUnavailable, got {other:?}"),
        }
    }
    assert!(saw_error, "the node error must reach the estimate stream");
    assert!(
        stream.stats().degraded,
        "stats stay readable after the error"
    );
    drop(stream);
    let after = settled_thread_count(baseline);
    assert!(
        after <= baseline,
        "leaked node threads after error termination: {baseline} before, {after} after"
    );
    assert!(
        !spill_root.exists(),
        "spill temp dir must be removed after error termination: {spill_root:?}"
    );
}

#[test]
fn seeded_fault_sweep_never_panics_hangs_or_leaks() {
    // The fuzz-flavoured acceptance sweep: seeded schedules mixing
    // transient, ENOSPC, and persistent-read faults over real queries.
    // Every run must either complete (degraded or not) or fail with a
    // typed error — and always release its spill directory. Transient-only
    // seeds must additionally reproduce the fault-free run bit for bit.
    // The CI fault lane varies the base seed via WAKE_FAULT_SEED.
    let base: u64 = std::env::var("WAKE_FAULT_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0);
    let data = Arc::new(TpchData::generate(0.002, 42));
    let db = TpchDb::new(data, 6);
    let specs: Vec<_> = all_queries().into_iter().take(3).collect();
    for seed in base..base + 6 {
        let schedule = FaultSchedule::from_seed(seed);
        for spec in &specs {
            let reference = one_shard()
                .with_memory_budget(16 << 10)
                .start((spec.build)(&db))
                .unwrap()
                .collect_series()
                .unwrap();
            let io = Arc::new(FaultIo::new(schedule.clone()));
            let mut stream = faulted_config(&io, 16 << 10, 2)
                .start((spec.build)(&db))
                .unwrap();
            let spill_root = stream.spill_dir().unwrap();
            let mut estimates = Vec::new();
            let mut error = None;
            for est in &mut stream {
                match est {
                    Ok(e) => estimates.push(e),
                    Err(e) => {
                        error = Some(e);
                        break;
                    }
                }
            }
            match (&error, schedule.transient_only()) {
                (Some(e), true) => {
                    panic!(
                        "seed {seed} {}: transient-only schedule errored: {e:?}",
                        spec.name
                    )
                }
                (Some(_), false) => {
                    // Typed failure is an accepted outcome for persistent
                    // faults; the stream must be fused.
                    assert!(stream.next().is_none(), "seed {seed} {}", spec.name);
                }
                (None, _) => {
                    assert!(
                        estimates.last().is_some_and(|e| e.is_final),
                        "seed {seed} {}: completed run must end final",
                        spec.name
                    );
                }
            }
            if error.is_none() && schedule.transient_only() {
                assert_eq!(
                    reference.len(),
                    estimates.len(),
                    "seed {seed} {}",
                    spec.name
                );
                for (a, b) in reference.iter().zip(&estimates) {
                    assert_eq!(
                        a.frame.as_ref(),
                        b.frame.as_ref(),
                        "seed {seed} {} @ seq {}",
                        spec.name,
                        a.seq
                    );
                }
            }
            // Stats must be readable whatever happened.
            let _ = stream.stats();
            drop(stream);
            assert!(
                !spill_root.exists(),
                "seed {seed} {}: leaked spill dir {spill_root:?}",
                spec.name
            );
        }
    }
}
