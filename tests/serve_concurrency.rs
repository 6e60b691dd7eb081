//! The wake-serve service contract under concurrency and pressure:
//!
//! - N clients share one server under a **global memory budget smaller
//!   than any single query's resident footprint** — every query spills
//!   (instead of OOMing) and still answers exactly, and the global
//!   ledger returns to idle afterwards.
//! - Disconnecting mid-stream cancels through the drop-cancel contract:
//!   no leaked OS threads, no leaked spill temp directories.
//! - Connection threads are reaped as the listener accepts: a long run
//!   of one-connection HTTP requests leaves no threads or handles behind.
//! - An over-admission burst gets *typed* overload refusals, never a
//!   hang; a query cancelled while still queued stays readable in the
//!   registry and reports zero work.
//! - With an ambient `WAKE_SPILL_ENOSPC_AFTER` (the CI serve lane's
//!   fault-injection variant) the degraded server still answers exactly
//!   and says so: `degraded=true` in the wire telemetry.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wake::prelude::*;
use wake::serve::{http_get, serve, QueryCatalog, QueryStatus, ServeClient};
use wake::tpch::{TpchData, TpchDb};

/// A global budget far below the high-card query's resident footprint
/// (asserted against the serial run's `peak_state_bytes` in the
/// concurrency test), so three resident queries must all spill.
const GLOBAL_BUDGET: usize = 64 << 10;

/// Serialises every test: they all spawn server/pipeline threads and two
/// of them read process-wide state (`/proc` thread counts, the spill
/// temp directory), so overlap would cross-contaminate snapshots.
static SERVER: Mutex<()> = Mutex::new(());

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
        std::thread::sleep(Duration::from_millis(10));
        count = thread_count();
    }
    count
}

/// This process's spill temp directories (`wake-spill-<pid>-<nonce>`).
/// Scoped to the pid so concurrently running test binaries are invisible.
fn spill_dirs() -> BTreeSet<String> {
    let prefix = format!("wake-spill-{}-", std::process::id());
    std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|name| name.starts_with(&prefix))
        .collect()
}

/// Wait (briefly) for the process's spill dir set to return to
/// `baseline`; returns the final set.
fn settled_spill_dirs(baseline: &BTreeSet<String>) -> BTreeSet<String> {
    let mut dirs = spill_dirs();
    for _ in 0..200 {
        if &dirs == baseline {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        dirs = spill_dirs();
    }
    dirs
}

/// A high-cardinality group-by over lineitem — the shape that provably
/// spills under a small budget (same as the spill-equivalence suites).
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

/// The serve-side `value` telemetry for a watch column: the sum over the
/// frame's rows (order-independent, so serial and concurrent runs agree).
fn frame_sum(frame: &DataFrame, column: &str) -> f64 {
    let col = frame.column(column).expect("watch column");
    (0..col.len())
        .map(|i| col.f64_at(i).expect("numeric"))
        .sum()
}

fn tpch_db(sf: f64, partitions: usize) -> TpchDb {
    TpchDb::new(Arc::new(TpchData::generate(sf, 77)), partitions)
}

fn catalog_for(db: &TpchDb) -> QueryCatalog {
    let mut catalog = QueryCatalog::new();
    catalog.register_watch("rev_by_order", high_card_graph(db), "rev");
    catalog
}

/// Poll the registry until `id`'s record reaches a terminal status.
fn wait_terminal(server: &wake::serve::ServerHandle, id: u64) -> wake::serve::QueryRecord {
    for _ in 0..2000 {
        if let Some(rec) = server.registry().get(id) {
            if !matches!(rec.status, QueryStatus::Queued | QueryStatus::Running) {
                return rec;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("query {id} never reached a terminal status");
}

/// Wait until a worker has taken query `id` off the admission queue, so
/// the next admission sees the queue slot free.
fn wait_dequeued(server: &wake::serve::ServerHandle, id: u64) {
    for _ in 0..2000 {
        if server
            .registry()
            .get(id)
            .is_some_and(|r| r.status != QueryStatus::Queued)
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("query {id} never left the queue");
}

#[test]
fn three_concurrent_clients_under_one_tight_global_budget_answer_exactly() {
    let _guard = SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let db = tpch_db(0.005, 24);

    // Serial reference: the unbudgeted run's exact answer and resident
    // footprint. The global budget must be smaller than ONE query's
    // footprint — three concurrent queries then all execute under
    // leases that force out-of-core state.
    let (series, stats) = EngineConfig::stepped()
        .with_obs(ObsLevel::Stats)
        .start(high_card_graph(&db))
        .unwrap()
        .collect_with_stats()
        .unwrap();
    let reference = frame_sum(&series.last().unwrap().frame, "rev");
    assert!(
        stats.peak_state_bytes > GLOBAL_BUDGET,
        "budget {GLOBAL_BUDGET} must be under the serial footprint {}",
        stats.peak_state_bytes
    );

    let server = serve(
        EngineConfig::stepped()
            .with_serve_global_budget(GLOBAL_BUDGET)
            .with_serve_max_concurrent(3),
        catalog_for(&db),
    )
    .unwrap();
    let global = server.global_governor().expect("global budget configured");
    assert!(global.is_idle());

    let addr = server.addr();
    let clients: Vec<_> = (0..3)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("serve-test-client-{i}"))
                .spawn(move || {
                    let mut client = ServeClient::connect(addr)?;
                    client.query("rev_by_order")
                })
                .unwrap()
        })
        .collect();

    for handle in clients {
        let outcome = handle.join().expect("client thread").expect("query io");
        assert!(outcome.error.is_none(), "{:?}", outcome.error);
        let done = outcome.done.expect("terminal event");
        assert_eq!(done.status, "completed");
        assert!(
            done.spill_bytes > 0,
            "a lease under the footprint must spill, not OOM"
        );
        let last = outcome.estimates.last().expect("estimates");
        assert!(last.is_final);
        let value = last.value.expect("watch value");
        assert!(
            ((value - reference) / reference).abs() < 1e-9,
            "concurrent answer {value} diverged from serial {reference}"
        );
        // Estimates stream in order with monotone progress.
        for pair in outcome.estimates.windows(2) {
            assert!(pair[1].seq > pair[0].seq, "stream order");
            assert!(
                pair[1].rows_processed >= pair[0].rows_processed,
                "monotone progress"
            );
        }
    }

    assert!(
        global.is_idle(),
        "global ledger must return to idle: {} bytes still leased",
        global.leased_bytes()
    );
    server.shutdown();
}

#[test]
fn disconnect_mid_stream_leaks_no_threads_and_no_spill_dirs() {
    let _guard = SERVER.lock().unwrap_or_else(|e| e.into_inner());
    // Big and slow: 96 partitions of SF 0.01 spilling under a tiny
    // lease, so the disconnect lands well before completion.
    let db = tpch_db(0.01, 96);
    let baseline_threads = thread_count();
    let baseline_dirs = spill_dirs();

    let server = serve(
        EngineConfig::stepped().with_serve_global_budget(GLOBAL_BUDGET),
        catalog_for(&db),
    )
    .unwrap();
    let global = server.global_governor().unwrap();

    let mut client = ServeClient::connect(server.addr()).unwrap();
    let id = client
        .query_no_wait("rev_by_order")
        .unwrap()
        .expect("admitted");
    drop(client); // hang up mid-stream

    let rec = wait_terminal(&server, id);
    assert_eq!(
        rec.status,
        QueryStatus::Cancelled,
        "disconnect must cancel the in-flight query"
    );
    let dirs = settled_spill_dirs(&baseline_dirs);
    assert_eq!(
        dirs, baseline_dirs,
        "cancelled query left spill temp directories behind"
    );
    assert!(global.is_idle(), "lease returned after cancellation");

    server.shutdown();
    let after = settled_thread_count(baseline_threads);
    assert!(
        after <= baseline_threads,
        "leaked threads: {baseline_threads} before, {after} after shutdown"
    );
}

#[test]
fn sequential_http_requests_leave_no_threads_and_no_handles_behind() {
    let _guard = SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let db = tpch_db(0.001, 2);
    let server = serve(EngineConfig::stepped(), catalog_for(&db)).unwrap();
    let baseline_threads = thread_count();
    for _ in 0..50 {
        let (status, _) = http_get(server.addr(), "/queries").unwrap();
        assert_eq!(status, 200);
    }
    // HTTP is one connection per request: each accept reaps the
    // connection threads that finished before it.
    let after = settled_thread_count(baseline_threads);
    assert!(
        after <= baseline_threads,
        "connection threads outlive their requests: {baseline_threads} before, {after} after"
    );
    // The newest handle, plus any thread still exiting at the last accept.
    let held = server.connection_handles();
    assert!(held <= 4, "listener holds {held} handles after 50 requests");
    server.shutdown();
}

#[test]
fn over_admission_burst_gets_typed_overload_not_hangs() {
    let _guard = SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let db = tpch_db(0.005, 48);
    let server = serve(
        EngineConfig::stepped()
            .with_serve_global_budget(GLOBAL_BUDGET)
            .with_serve_max_concurrent(1)
            .with_serve_max_queued(1),
        catalog_for(&db),
    )
    .unwrap();

    // Fill the single execution slot and the single queue slot with
    // clients that hold their streams open...
    let mut running = ServeClient::connect(server.addr()).unwrap();
    let running_id = running.query_no_wait("rev_by_order").unwrap().unwrap();
    wait_dequeued(&server, running_id);
    let mut queued = ServeClient::connect(server.addr()).unwrap();
    let queued_id = queued.query_no_wait("rev_by_order").unwrap().unwrap();

    // ...so the burst beyond capacity is refused with typed errors on
    // both protocols, immediately.
    let mut burst = ServeClient::connect(server.addr()).unwrap();
    let outcome = burst.query("rev_by_order").unwrap();
    assert_eq!(
        outcome.error.as_ref().map(|e| e.0.as_str()),
        Some("overloaded"),
        "TCP burst must get the typed overload error"
    );
    let (status, body) = http_get(server.addr(), "/query/rev_by_order").unwrap();
    assert_eq!(status, 429, "HTTP burst must get 429: {body}");
    assert!(body.contains("\"overloaded\""));

    // Releasing the slots drains everything; nothing hangs.
    drop(running);
    drop(queued);
    assert_ne!(
        wait_terminal(&server, running_id).status,
        QueryStatus::Running
    );
    assert_ne!(
        wait_terminal(&server, queued_id).status,
        QueryStatus::Running
    );
    server.shutdown();
}

#[test]
fn query_cancelled_while_queued_is_readable_and_reports_zero_work() {
    let _guard = SERVER.lock().unwrap_or_else(|e| e.into_inner());
    let db = tpch_db(0.005, 48);
    let server = serve(
        EngineConfig::stepped()
            .with_serve_global_budget(GLOBAL_BUDGET)
            .with_serve_max_concurrent(1)
            .with_serve_max_queued(1),
        catalog_for(&db),
    )
    .unwrap();
    let global = server.global_governor().unwrap();

    let mut running = ServeClient::connect(server.addr()).unwrap();
    let running_id = running.query_no_wait("rev_by_order").unwrap().unwrap();
    wait_dequeued(&server, running_id);
    let mut queued = ServeClient::connect(server.addr()).unwrap();
    let queued_id = queued.query_no_wait("rev_by_order").unwrap().unwrap();

    // The queued client hangs up before its query ever runs; give its
    // connection thread a moment to notice, then free the worker.
    drop(queued);
    std::thread::sleep(Duration::from_millis(200));
    drop(running);

    let rec = wait_terminal(&server, queued_id);
    assert_eq!(rec.status, QueryStatus::Cancelled);
    // Zero work: no stream was ever built, so no phantom governor lease
    // and no statistics.
    assert_eq!(rec.stats.peak_state_bytes, 0);
    assert_eq!(rec.stats.spill.spilled_bytes, 0);
    assert_eq!(rec.stats.spill.evictions, 0);
    assert!(rec.stats.nodes.is_empty());
    assert!(
        global.is_idle(),
        "global budget must be back to idle after every query"
    );
    server.shutdown();
}

#[test]
fn fault_injected_server_still_answers_exactly_and_reports_degraded() {
    let _guard = SERVER.lock().unwrap_or_else(|e| e.into_inner());
    // The CI serve lane runs this binary with an ambient
    // WAKE_SPILL_ENOSPC_AFTER: the spill device fills mid-query, the
    // engine degrades to memory-resident execution, and the server must
    // surface that in its telemetry while the answer stays exact. The
    // env var is only read here — never set — so the test composes with
    // the in-process test harness.
    let injected = std::env::var("WAKE_SPILL_ENOSPC_AFTER").is_ok();
    let db = tpch_db(0.01, 24);

    let reference = {
        let series = EngineConfig::stepped()
            .start(high_card_graph(&db))
            .unwrap()
            .collect_series()
            .unwrap();
        frame_sum(&series.last().unwrap().frame, "rev")
    };

    let server = serve(
        EngineConfig::stepped().with_serve_global_budget(GLOBAL_BUDGET),
        catalog_for(&db),
    )
    .unwrap();
    let mut client = ServeClient::connect(server.addr()).unwrap();
    let outcome = client.query("rev_by_order").unwrap();
    let done = outcome.done.expect("terminal event");
    assert_eq!(done.status, "completed");
    let value = outcome.estimates.last().unwrap().value.unwrap();
    assert!(
        ((value - reference) / reference).abs() < 1e-9,
        "answer must stay exact under spill-device faults: {value} vs {reference}"
    );
    assert_eq!(
        done.degraded, injected,
        "degraded telemetry must reflect the (possibly faulted) spill device"
    );
    assert!(server.global_governor().unwrap().is_idle());
    server.shutdown();
}
