//! # wake-serve
//!
//! The OLA **service layer**: many concurrent clients, one engine, one
//! memory budget. The paper's pitch is *interactive* online aggregation —
//! analysts watching estimates tighten live — and this crate is the
//! network front-end that makes the repo's single-query library calls
//! into that service: a session-oriented server multiplexing many
//! concurrent [`wake_engine::EstimateStream`]s, pushing every converging
//! estimate to its client as it lands.
//!
//! Built on `std::net` and a bounded worker pool only (the environment
//! has no registry access, so no tokio/hyper — the vendored-deps rule),
//! speaking two protocols over the same port, sniffed per connection:
//!
//! - **Line-delimited JSON over TCP** — requests like
//!   `{"op":"query","name":"q1","deadline_ms":500}` answered with a
//!   stream of `{"type":"estimate",...}` lines and a terminal
//!   `{"type":"done",...}`; plus `{"op":"explain","id":N}` (EXPLAIN
//!   ANALYZE: the finished query's recorded [`wake_engine::RunStats`] —
//!   rollups and per-node profiles — rendered as JSON when asked) and
//!   `{"op":"list"}`.
//! - **Minimal HTTP/1.1 with chunked transfer encoding** — `GET
//!   /query/<name>[?deadline_ms=N]` streams the same ndjson lines one
//!   chunk each (curl-able), `GET /explain/<id>`, `GET /queries`.
//!
//! Three service-level guarantees, all tested:
//!
//! - **Admission control**: at most `serve_max_concurrent` queries
//!   execute, `serve_max_queued` more wait; past that, clients get a
//!   *typed* overload response (HTTP `429`) immediately — never a hang.
//! - **Global memory governance**: with `serve_global_budget` set, every
//!   executing query leases an equal slice of one
//!   [`wake_engine::GlobalGovernor`] total, re-apportioned as queries
//!   enter and leave. A burst of heavy queries spills to disk (largest
//!   resident query first) instead of OOMing the host, and every answer
//!   stays exact.
//! - **Disconnect = cancel**: a client hanging up mid-stream cancels its
//!   query through the engine's drop-cancel contract — node threads
//!   joined, spill temp directories removed, the governor lease returned.
//!
//! The wire contract: **one frame is one write, and `TCP_NODELAY` is set
//! on both ends** — a frame split over two writes waits out the peer's
//! ~40 ms delayed ACK behind Nagle. The `wire` module owns every socket write.
//!
//! Estimates carry `value` / `ci_rel_half_width` telemetry for the
//! catalog entry's *watch column*, plus `rows_processed`, cumulative
//! `spill_bytes` / `scan_bytes`, and a `degraded` flag (spill device
//! failed; answer still exact).
//!
//! ```no_run
//! use wake_serve::{serve, QueryCatalog, ServeClient};
//! use wake_engine::EngineConfig;
//! # fn demo(graph: wake_core::graph::QueryGraph) -> std::io::Result<()> {
//! let mut catalog = QueryCatalog::new();
//! catalog.register_watch("revenue", graph, "revenue");
//! let server = serve(
//!     EngineConfig::threaded().with_serve_global_budget(64 << 20),
//!     catalog,
//! )?;
//! let mut client = ServeClient::connect(server.addr())?;
//! let outcome = client.query("revenue")?;
//! for est in &outcome.estimates {
//!     println!("t={:.2} value={:?}", est.t, est.value);
//! }
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod catalog;
pub mod client;
pub mod json;
pub mod registry;
pub mod server;
mod wire;

pub use catalog::{CatalogEntry, QueryCatalog};
pub use client::{http_get, QueryOutcome, ServeClient, WireDone, WireEstimate};
pub use registry::{QueryRecord, QueryRegistry, QueryStatus};
pub use server::{serve, ServerHandle, DEFAULT_DEADLINE};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wake_core::agg::AggSpec;
    use wake_core::graph::QueryGraph;
    use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema};
    use wake_engine::EngineConfig;
    use wake_expr::col;

    fn sum_graph(n: i64, per_part: usize) -> QueryGraph {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let df = DataFrame::new(
            schema,
            vec![
                Column::from_i64((0..n).map(|i| i % 4).collect()),
                Column::from_f64((0..n).map(|i| (i % 13) as f64).collect()),
            ],
        )
        .unwrap();
        let src = MemorySource::from_frame("t", &df, per_part, vec![], None).unwrap();
        let mut g = QueryGraph::new();
        let r = g.read(src);
        let a = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
        g.sink(a);
        g
    }

    fn expected_sum(n: i64) -> f64 {
        (0..n).map(|i| (i % 13) as f64).sum()
    }

    fn test_catalog() -> QueryCatalog {
        let mut catalog = QueryCatalog::new();
        catalog.register_watch("sum_v", sum_graph(4000, 40), "s");
        catalog
    }

    #[test]
    fn tcp_query_streams_exact_final_value() {
        let server = serve(EngineConfig::new(), test_catalog()).unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let outcome = client.query("sum_v").unwrap();
        assert!(outcome.error.is_none(), "{:?}", outcome.error);
        let done = outcome.done.expect("terminal event");
        assert_eq!(done.status, "completed");
        let last = outcome.estimates.last().expect("estimates");
        assert!(last.is_final);
        assert_eq!(last.value, Some(expected_sum(4000)));
        // Estimates arrive in stream order with monotone progress.
        for pair in outcome.estimates.windows(2) {
            assert!(pair[1].seq > pair[0].seq);
            assert!(pair[1].rows_processed >= pair[0].rows_processed);
        }
        server.shutdown();
    }

    #[test]
    fn tcp_unknown_query_and_bad_request_are_typed() {
        let server = serve(EngineConfig::new(), test_catalog()).unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let outcome = client.query("nope").unwrap();
        assert_eq!(
            outcome.error.as_ref().map(|e| e.0.as_str()),
            Some("unknown_query")
        );
        client.send_line("{\"op\":\"frobnicate\"}").unwrap();
        let line = client.read_line().unwrap().unwrap();
        assert_eq!(
            json::field_str(&line, "code").as_deref(),
            Some("bad_request")
        );
        server.shutdown();
    }

    #[test]
    fn tcp_explain_returns_profile_after_completion() {
        let server = serve(EngineConfig::new(), test_catalog()).unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let outcome = client.query("sum_v").unwrap();
        let id = outcome.id;
        assert!(id > 0);
        let line = client.explain(id).unwrap().unwrap();
        assert_eq!(json::field_str(&line, "type").as_deref(), Some("profile"));
        assert!(line.contains("\"nodes\""), "profile JSON embedded: {line}");
        // Unknown id is a typed error, not a hang or close.
        let missing = client.explain(999_999).unwrap().unwrap();
        assert_eq!(
            json::field_str(&missing, "code").as_deref(),
            Some("not_found")
        );
        // The listing shows the completed record and the catalog.
        let list = client.list().unwrap().unwrap();
        assert!(list.contains("\"sum_v\""));
        assert!(list.contains("\"completed\""));
        server.shutdown();
    }

    #[test]
    fn http_chunked_stream_and_endpoints() {
        let server = serve(EngineConfig::new(), test_catalog()).unwrap();
        let (status, body) = http_get(server.addr(), "/query/sum_v").unwrap();
        assert_eq!(status, 200);
        let lines: Vec<&str> = body.lines().collect();
        let done = lines
            .iter()
            .find(|l| json::field_str(l, "type").as_deref() == Some("done"))
            .expect("done event in chunked body");
        assert_eq!(
            json::field_str(done, "status").as_deref(),
            Some("completed")
        );
        let final_est = lines
            .iter()
            .rev()
            .find(|l| json::field_str(l, "type").as_deref() == Some("estimate"))
            .expect("estimates in chunked body");
        assert_eq!(
            json::field_f64(final_est, "value"),
            Some(expected_sum(4000))
        );

        let id = json::field_u64(done, "id").unwrap();
        let (status, body) = http_get(server.addr(), &format!("/explain/{id}")).unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"profile\""));
        // Both protocols answer from one place: the body is the TCP line.
        assert_eq!(json::field_str(&body, "type").as_deref(), Some("profile"));

        let (status, body) = http_get(server.addr(), "/queries").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"sum_v\""));
        assert_eq!(json::field_str(&body, "type").as_deref(), Some("queries"));

        let (status, _) = http_get(server.addr(), "/query/nope").unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(server.addr(), "/nonsense").unwrap();
        assert_eq!(status, 404);
        server.shutdown();
    }

    /// Send `request` (the server may close before it is all written),
    /// then read until the server closes the connection.
    fn send_and_drain(addr: std::net::SocketAddr, request: &[u8]) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        // A server that never answers fails the test instead of hanging it.
        let timeout = Some(std::time::Duration::from_secs(10));
        stream.set_read_timeout(timeout).unwrap();
        stream.set_write_timeout(timeout).unwrap();
        let _ = stream.write_all(request);
        let mut reply = Vec::new();
        let closed = match stream.read_to_end(&mut reply) {
            Ok(_) => true,
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        };
        assert!(closed, "the server must close the connection");
        String::from_utf8_lossy(&reply).into_owned()
    }

    #[test]
    fn oversized_request_is_refused_typed_then_closed() {
        let server = serve(EngineConfig::new(), test_catalog()).unwrap();
        // TCP: 1 MiB that never reaches a newline.
        let reply = send_and_drain(server.addr(), &vec![b'x'; 1 << 20]);
        assert_eq!(reply.lines().count(), 1, "answered once: {reply}");
        assert_eq!(json::field_str(&reply, "type").as_deref(), Some("error"));
        assert_eq!(
            json::field_str(&reply, "code").as_deref(),
            Some("bad_request")
        );
        // HTTP: an endless request line, an endless header, too many headers.
        let mut long_target = b"GET /".to_vec();
        long_target.resize(1 << 20, b'a');
        let mut long_header = b"GET /queries HTTP/1.1\r\nX-Pad: ".to_vec();
        long_header.resize(1 << 20, b'a');
        let many_headers = format!(
            "GET /queries HTTP/1.1\r\n{}\r\n",
            "X-Pad: a\r\n".repeat(500)
        );
        for request in [long_target, long_header, many_headers.into_bytes()] {
            let reply = send_and_drain(server.addr(), &request);
            assert!(reply.starts_with("HTTP/1.1 431 "), "{reply}");
            assert!(reply.contains("\"code\":\"bad_request\""), "{reply}");
        }
        // The server is unharmed: a fresh connection still answers.
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let outcome = client.query("sum_v").unwrap();
        assert_eq!(
            outcome.estimates.last().unwrap().value,
            Some(expected_sum(4000))
        );
        server.shutdown();
    }

    /// A frame split over two writes, or a socket left on Nagle, stalls
    /// for the peer's delayed ACK: ≥ 40 ms per round trip on Linux. The
    /// unstalled loopback path is well under 1 ms, so 10 ms tells the two
    /// apart on any host. CI's `serve` lane runs this with `--nocapture`.
    #[test]
    fn wire_round_trips_do_not_stall() {
        use std::time::{Duration, Instant};
        const ROUNDS: usize = 20;
        fn median_of(mut timed: impl FnMut() -> Duration) -> Duration {
            let mut samples: Vec<Duration> = (0..ROUNDS).map(|_| timed()).collect();
            samples.sort();
            samples[ROUNDS / 2]
        }
        let server = serve(EngineConfig::new(), test_catalog()).unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();

        let list = median_of(|| {
            let t0 = Instant::now();
            let line = client.list().unwrap().unwrap();
            let took = t0.elapsed();
            assert_eq!(json::field_str(&line, "type").as_deref(), Some("queries"));
            took
        });
        let admit = median_of(|| {
            let t0 = Instant::now();
            client
                .send_line(r#"{"op":"query","name":"sum_v"}"#)
                .unwrap();
            let line = client.read_line().unwrap().unwrap();
            let took = t0.elapsed();
            assert_eq!(json::field_str(&line, "type").as_deref(), Some("admitted"));
            // Drain the stream so the next request starts from idle.
            while let Some(line) = client.read_line().unwrap() {
                if json::field_str(&line, "type").as_deref() == Some("done") {
                    break;
                }
            }
            took
        });
        let http = median_of(|| {
            let t0 = Instant::now();
            let (status, _) = http_get(server.addr(), "/queries").unwrap();
            let took = t0.elapsed();
            assert_eq!(status, 200);
            took
        });
        println!(
            "wire round trips, median of {ROUNDS}: list {list:?}, \
             query -> admitted {admit:?}, http GET /queries {http:?}"
        );
        let limit = Duration::from_millis(10);
        assert!(list < limit, "list round trip stalled: {list:?}");
        assert!(admit < limit, "admission stalled: {admit:?}");
        assert!(http < limit, "http round trip stalled: {http:?}");
        server.shutdown();
    }

    #[test]
    fn deadline_stops_with_best_estimate() {
        let mut catalog = QueryCatalog::new();
        // Big enough that a zero deadline always fires before completion.
        catalog.register_watch("slow", sum_graph(20_000, 10), "s");
        let server = serve(EngineConfig::new(), catalog).unwrap();
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let outcome = client
            .query_with("slow", Some(std::time::Duration::ZERO))
            .unwrap();
        let done = outcome.done.expect("terminal event");
        assert_eq!(done.status, "completed");
        assert!(done.stopped_early, "deadline stop is surfaced");
        let last = outcome.estimates.last().expect("triggering estimate");
        assert!(!last.is_final);
        server.shutdown();
    }

    #[test]
    fn global_ledger_leases_and_returns_to_idle() {
        let server = serve(
            EngineConfig::new().with_serve_global_budget(1 << 20),
            test_catalog(),
        )
        .unwrap();
        let global = server.global_governor().expect("global budget configured");
        assert!(global.is_idle());
        let mut client = ServeClient::connect(server.addr()).unwrap();
        let outcome = client.query("sum_v").unwrap();
        assert_eq!(
            outcome.estimates.last().unwrap().value,
            Some(expected_sum(4000))
        );
        // The lease is returned once the query's stream is dropped.
        assert!(
            global.is_idle(),
            "ledger must return to idle after the query"
        );
        server.shutdown();
    }
}
