//! Observability contract (wake-obs): instrumentation must never change
//! answers, per-node profiles must sum to the `RunStats` rollups, and
//! profiles must stay readable at every point of a stream's life — live,
//! exhausted, cancelled, and error-terminated — on both engines.

use std::sync::Arc;
use wake::data::DataError;
use wake::engine::{EngineConfig, FaultIo, FaultSchedule, SpillIo};
use wake::prelude::*;
use wake::tpch::{all_queries, TpchData, TpchDb};

/// Small enough to evict at SF 0.002 (same constant as the spill and
/// fault suites), so spill attribution sees real traffic.
const BUDGET: usize = 64 << 10;

fn db() -> TpchDb {
    TpchDb::new(Arc::new(TpchData::generate(0.002, 42)), 6)
}

/// A high-cardinality group-by over lineitem — guaranteed to spill under
/// a small budget.
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
fn obs_off_is_bit_identical_per_estimate_on_all_queries() {
    // The acceptance bar for zero-cost-when-off: every TPC-H query on
    // the deterministic stepper, under a budget small enough to spill,
    // produces the same estimate sequence — frame bytes, progress,
    // numbering, finality — at ObsLevel::Off and at full Profile. (The
    // explicit Off reference also pins the pre-observability execution
    // path: with obs off no per-node child spill plans, instruments, or
    // telemetry hooks exist at all.) Only the estimate's own telemetry
    // fields `spill_bytes` / `scan_bytes` may differ: they are stamped
    // when obs is on and zero when off, by design.
    let db = db();
    for spec in all_queries() {
        let run = |level: ObsLevel| {
            EngineConfig::stepped()
                .with_memory_budget(BUDGET)
                .with_obs(level)
                .start((spec.build)(&db))
                .unwrap()
                .collect_series()
                .unwrap()
        };
        let off = run(ObsLevel::Off);
        let profile = run(ObsLevel::Profile);
        assert_eq!(off.len(), profile.len(), "{}", spec.name);
        for (a, b) in off.iter().zip(profile.iter()) {
            assert_eq!(
                a.frame.as_ref(),
                b.frame.as_ref(),
                "{} @ seq {}: estimates diverged under observability",
                spec.name,
                a.seq
            );
            assert_eq!(a.t, b.t, "{}", spec.name);
            assert_eq!(a.seq, b.seq, "{}", spec.name);
            assert_eq!(a.rows_processed, b.rows_processed, "{}", spec.name);
            assert_eq!(a.is_final, b.is_final, "{}", spec.name);
            assert_eq!(a.spill_bytes, 0, "{}: off stamps no telemetry", spec.name);
            assert_eq!(a.scan_bytes, 0, "{}: off stamps no telemetry", spec.name);
        }
    }
}

#[test]
fn obs_off_reports_no_profile() {
    // Off really is off: no nodes in RunStats, no profile surface.
    let db = db();
    let mut stream = EngineConfig::stepped()
        .with_obs(ObsLevel::Off)
        .start(high_card_graph(&db))
        .unwrap();
    stream.next().unwrap().unwrap();
    let stats = stream.stats();
    assert!(!stats.level.enabled());
    assert!(stats.nodes.is_empty());
    assert!(stream.explain_analyze().contains("observability is off"));
}

/// The TPC-H queries the repo's benchmark runs under a spilling budget
/// (`wake-e2e`'s `tpch.spill`).
const SPILL_QUERIES: [&str; 8] = ["q3", "q5", "q7", "q8", "q9", "q10", "q18", "q20"];

#[test]
fn per_node_profiles_sum_to_rollups_on_both_engines() {
    // The per-node attribution must reconcile with the query-wide
    // ledgers on a settled stream: scan exactly (every source is
    // somebody's read node), spill exactly (every operator that spills
    // has a child ledger, and children forward to the parent), and the
    // node peaks must bound the rollup — and be it, thread-per-actor.
    let db = db();
    let mut inputs = vec![("high_card", high_card_graph(&db))];
    let spilling = all_queries()
        .into_iter()
        .filter(|q| SPILL_QUERIES.contains(&q.name));
    inputs.extend(spilling.map(|q| (q.name, (q.build)(&db))));
    assert_eq!(inputs.len(), 1 + SPILL_QUERIES.len());
    for (name, graph) in &inputs {
        for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
            let mut stream = EngineConfig::new()
                .with_executor(kind)
                .with_memory_budget(BUDGET)
                .with_obs(ObsLevel::Profile)
                .start(graph.clone())
                .unwrap();
            for est in &mut stream {
                est.unwrap();
            }
            let stats = stream.stats();
            assert_eq!(stats.total_scan(), stats.scan, "{name} {kind:?}");
            assert_eq!(stats.total_spill(), stats.spill, "{name} {kind:?}");
            let peaks = stats.peak_state_upper_bound();
            match kind {
                ExecutorKind::Stepped => assert!(
                    peaks >= stats.peak_state_bytes,
                    "{name}: {peaks} < {}",
                    stats.peak_state_bytes
                ),
                ExecutorKind::Threaded => assert_eq!(peaks, stats.peak_state_bytes, "{name}"),
            }
            assert!(
                stats.spill.evictions > 0,
                "{name} {kind:?}: the budget never bit — suite is not testing attribution"
            );
            if *name != "high_card" {
                continue;
            }

            assert_eq!(stats.nodes.len(), 2, "{kind:?}: read, agg");
            // Work actually got recorded on every node.
            for node in &stats.nodes {
                assert!(
                    node.rows_out > 0,
                    "{kind:?}: node {} [{}] recorded no output",
                    node.id,
                    node.label
                );
                assert!(node.frames_out > 0, "{kind:?}: node {}", node.id);
            }
            // Profile level extras: per-update histograms on worked nodes,
            // per-shard state detail on the sharded aggregate.
            let agg = stats
                .nodes
                .iter()
                .find(|n| n.label.starts_with("Agg"))
                .expect("agg node");
            assert!(agg.rows_in > 0 && agg.busy.as_nanos() > 0, "{kind:?}");
            assert!(
                agg.batch_nanos.as_ref().is_some_and(|h| !h.is_empty()),
                "{kind:?}: Profile level must fill histograms"
            );
            assert!(
                !agg.shard_state_bytes.is_empty(),
                "{kind:?}: sharded agg must report per-shard state"
            );
        }
    }
}

#[test]
fn estimates_carry_monotone_telemetry_deltas() {
    // With obs on, every estimate is stamped with the cumulative spill
    // and scan bytes at publish time — monotone, and reconciling with
    // the final rollup on the deterministic engine. A persisted segment
    // table gives the scan path real decode work (memory sources carry
    // no scan telemetry); the budget forces spilling.
    let data = TpchData::generate(0.002, 42);
    let dir = std::env::temp_dir().join("wake-obs-telemetry-test");
    let mut s = Session::new();
    s.configure(|c| c.with_table_dir(&dir).with_zone_rows(256));
    s.configure(|c| c.with_memory_budget(BUDGET).with_obs(ObsLevel::Stats));
    let li = s
        .persist_table(
            "obs_lineitem",
            data.table("lineitem"),
            vec!["l_orderkey".into()],
            None,
        )
        .unwrap();
    let q = li.sum("l_extendedprice", &["l_orderkey"], "rev");
    let mut stream = q.stream().unwrap();
    let mut series = Vec::new();
    for est in &mut stream {
        series.push(est.unwrap());
    }
    let stats = stream.stats();
    assert!(series
        .windows(2)
        .all(|w| w[0].spill_bytes <= w[1].spill_bytes));
    assert!(series
        .windows(2)
        .all(|w| w[0].scan_bytes <= w[1].scan_bytes));
    let last = series.last().unwrap();
    assert!(last.scan_bytes > 0, "scan telemetry must be stamped");
    assert_eq!(last.scan_bytes, stats.scan.decompressed_bytes as u64);
    assert_eq!(last.spill_bytes, stats.spill.spilled_bytes as u64);
    // Per-node attribution over a real segment scan: the read node owns
    // every decompressed byte of the rollup.
    let read = stats
        .nodes
        .iter()
        .find(|n| n.label.starts_with("Read"))
        .expect("read node");
    assert!(read.scan.decompressed_bytes > 0);
    assert_eq!(read.scan.decompressed_bytes, stats.scan.decompressed_bytes);
    assert!(read.scan.zones_scanned > 0);
}

#[test]
fn stats_survive_cancellation_on_both_engines() {
    // Cancel mid-query (the paper's stop-early loop) and read the full
    // profile afterwards: the work done before the stop must be there.
    let db = db();
    for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
        let stream = EngineConfig::new()
            .with_executor(kind)
            .with_obs(ObsLevel::Profile)
            .start(high_card_graph(&db))
            .unwrap();
        let mut stream = stream.until_rows_processed(1_000);
        for est in &mut stream {
            est.unwrap();
        }
        assert!(stream.stopped_early(), "{kind:?}");
        let profile = stream.stats();
        let read = profile
            .nodes
            .iter()
            .find(|n| n.label.starts_with("Read"))
            .expect("read node");
        assert!(
            read.rows_out >= 1_000,
            "{kind:?}: pre-cancel work missing from the profile"
        );
        let rendered = stream.explain_analyze();
        assert!(rendered.contains("Agg"), "{kind:?}: {rendered}");
        assert!(rendered.contains("rows"), "{kind:?}: {rendered}");
    }
}

#[test]
fn stats_survive_error_termination_on_both_engines() {
    // An unreadable spill device kills the query with a typed error; the
    // profile must stay readable (and populated) afterwards, with no
    // leaked threads — the drop path already enforced by the fault
    // suite.
    let db = db();
    for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
        let io = Arc::new(FaultIo::new(FaultSchedule {
            persistent_read_from: Some(0),
            ..FaultSchedule::default()
        }));
        let mut stream = EngineConfig::new()
            .with_executor(kind)
            .with_memory_budget(16 << 10)
            .with_spill_io(io.clone() as Arc<dyn SpillIo>)
            .with_spill_retries(1)
            .with_spill_retry_delay(std::time::Duration::from_micros(50))
            .with_obs(ObsLevel::Profile)
            .start(high_card_graph(&db))
            .unwrap();
        let mut saw_error = false;
        for est in &mut stream {
            match est {
                Ok(_) => {}
                Err(DataError::SpillUnavailable(_)) => {
                    saw_error = true;
                    break;
                }
                Err(other) => panic!("{kind:?}: expected SpillUnavailable, got {other:?}"),
            }
        }
        assert!(saw_error, "{kind:?}: the fault must surface");
        let profile = stream.stats();
        assert!(
            profile.nodes.iter().any(|n| n.rows_out > 0),
            "{kind:?}: pre-error work missing"
        );
        assert!(stream.stats().degraded, "{kind:?}");
        assert!(!stream.explain_analyze().is_empty(), "{kind:?}");
    }
}

#[test]
fn explain_analyze_annotates_the_plan_tree() {
    // The rendered tree names every operator with its observed work, and
    // the JSON export round-trips the same nodes.
    let db = db();
    let mut stream = EngineConfig::stepped()
        .with_obs(ObsLevel::Stats)
        .start(high_card_graph(&db))
        .unwrap();
    for est in &mut stream {
        est.unwrap();
    }
    let rendered = stream.explain_analyze();
    for label in ["Read", "Agg", "rows"] {
        assert!(rendered.contains(label), "missing {label} in:\n{rendered}");
    }
    let json = stream.stats().to_json();
    assert!(json.contains("\"nodes\""), "{json}");
    assert!(json.contains("\"rows_out\""), "{json}");
    assert_eq!(
        json.matches("\"label\"").count(),
        2,
        "one label per plan node: {json}"
    );
}
