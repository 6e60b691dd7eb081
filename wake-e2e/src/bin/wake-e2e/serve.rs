//! `serve.closed2`: the same engine and the same tables behind an
//! in-process `wake_serve` server, driven over line-JSON TCP by closed-
//! loop clients — each sends its next request when the `done` line of
//! the previous one has arrived. Everything is timed at the client.

use crate::report::Metrics;
use crate::setup::{engine_config, Fixture, Result, Sizing, Workload};
use crate::stats::{settle_index, SplitMix64};
use crate::trace::Tracer;
use std::net::SocketAddr;
use std::time::Instant;
use wake_engine::{ObsLevel, RunStats};
use wake_serve::json::{field_bool, field_f64, field_str, field_u64, Obj};
use wake_serve::{serve, QueryCatalog, QueryRegistry, ServeClient, ServerHandle};

/// What the client checks a request's final estimate against.
pub struct Expected {
    /// Sum of the watch column over the reference rows (`None` when the
    /// query has no numeric output column, or the column holds a null —
    /// the server then sends no `value`).
    pub watch_sum: Option<f64>,
    pub rows: u64,
}

/// Start the server with every query of the fixture in its catalog,
/// planned once, each watching its first value column.
pub fn start_server(fx: &Fixture, sizing: &Sizing, seed: u64) -> Result<ServerHandle> {
    let mut catalog = QueryCatalog::new();
    for spec in &fx.specs {
        let graph = (spec.build)(&fx.db);
        match spec.values.first() {
            Some(watch) => catalog.register_watch(spec.name, graph, *watch),
            None => catalog.register(spec.name, graph),
        }
    }
    // The server raises observability to `Stats` itself, traced or not.
    let cfg = engine_config(Workload::Serve, sizing, seed, ObsLevel::Stats);
    Ok(serve(cfg, catalog)?)
}

pub fn expectations(fx: &Fixture) -> Vec<Expected> {
    fx.specs
        .iter()
        .zip(&fx.refs)
        .map(|(spec, reference)| {
            let watch_sum = spec.values.first().and_then(|watch| {
                let col = reference.frame.column(watch).ok()?;
                (0..col.len()).map(|i| col.f64_at(i)).sum::<Option<f64>>()
            });
            Expected {
                watch_sum,
                rows: reference.frame.num_rows() as u64,
            }
        })
        .collect()
}

/// One request as the client saw it. Times are seconds from `t0`, the
/// instant before `send_line`.
pub struct RequestRun {
    pub qi: usize,
    /// Server-side query id from the `admitted` line (0 if refused).
    pub id: u64,
    pub first_s: f64,
    pub pct1_s: f64,
    /// `t0` → the `is_final` estimate line: the exact answer is there.
    pub final_s: f64,
    pub admit_wait_s: f64,
    /// From the `done` line (0 when that line was lost).
    pub peak_state_bytes: u64,
    pub wire_bytes: u64,
    pub lines: u64,
    pub estimates: u64,
    pub refused: bool,
    pub degraded: bool,
    /// The request was admitted and no `done` line ever came for it.
    pub done_lost: bool,
    pub correct: bool,
    pub error: Option<String>,
    /// Thread count of the process, sampled when the first estimate
    /// arrived (traced runs only).
    pub threads: u64,
    /// The server's own record of the query (traced runs only).
    pub stats: Option<RunStats>,
    done_seen: bool,
    t0: Instant,
    sent: Instant,
    reads: Vec<(Instant, Instant)>,
}

fn close_to(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * b.abs()
}

/// One connection and the requests made on it so far.
///
/// A request ends at its `is_final` estimate — the final answer has
/// arrived — and the next one is sent right away; the `done` line of the
/// previous request is picked up on the way to the next `admitted`. The
/// client does not block on `done` because the server can lose it: the
/// worker hands it to a bounded per-query channel with `try_send`, and
/// when the connection thread is 32 lines behind the line is dropped
/// (seen once in some 15 000 requests on two cores). A client waiting
/// for it would hang; this one counts it as `serve.done_lost`.
struct Client<'a> {
    conn: ServeClient,
    registry: Option<&'a QueryRegistry>,
    runs: Vec<RequestRun>,
}

impl Client<'_> {
    /// Read one line, timing the call for the span file.
    fn read(
        &mut self,
        reads: &mut Vec<(Instant, Instant)>,
    ) -> (Instant, std::io::Result<Option<String>>) {
        let read_start = Instant::now();
        let line = self.conn.read_line();
        let arrived = Instant::now();
        reads.push((read_start, arrived));
        (arrived, line)
    }

    /// The `done` line of the latest finished request.
    fn on_done(&mut self, line: &str) {
        let Some(prev) = self.runs.last_mut() else {
            return;
        };
        prev.done_seen = true;
        prev.lines += 1;
        prev.wire_bytes += line.len() as u64 + 1;
        prev.peak_state_bytes = field_u64(line, "peak_state_bytes").unwrap_or(0);
        prev.degraded |= field_bool(line, "degraded").unwrap_or(false);
        let completed = field_str(line, "status").as_deref() == Some("completed")
            && field_bool(line, "stopped_early") == Some(false);
        prev.correct &= completed;
    }

    /// Nothing more can arrive for the latest finished request: the
    /// connection thread has moved on to the next one.
    fn close_previous(&mut self) {
        let Some(prev) = self.runs.last_mut() else {
            return;
        };
        prev.done_lost = prev.id != 0 && !prev.done_seen;
        // By now the worker has written the query's final statistics.
        prev.stats = self
            .registry
            .and_then(|r| r.get(prev.id))
            .map(|record| record.stats);
    }

    fn request(&mut self, qi: usize, name: &str, expected: &Expected) {
        let line = Obj::new().str("op", "query").str("name", name).build();
        let t0 = Instant::now();
        let mut run = RequestRun {
            qi,
            id: 0,
            first_s: 0.0,
            pct1_s: 0.0,
            final_s: 0.0,
            admit_wait_s: 0.0,
            peak_state_bytes: 0,
            wire_bytes: 0,
            lines: 0,
            estimates: 0,
            refused: false,
            degraded: false,
            done_lost: false,
            correct: false,
            error: None,
            threads: 0,
            stats: None,
            done_seen: false,
            t0,
            sent: t0,
            reads: Vec::new(),
        };
        if let Err(e) = self.conn.send_line(&line) {
            run.error = Some(format!("send: {e}"));
            self.runs.push(run);
            return;
        }
        run.sent = Instant::now();
        let since = |t: Instant| t.duration_since(t0).as_secs_f64();
        // (arrival, value or row count, rows) per estimate line
        let mut estimates: Vec<(f64, f64, u64)> = Vec::new();
        let mut admitted = false;
        loop {
            let (arrived, line) = self.read(&mut run.reads);
            let line = match line {
                Ok(Some(line)) => line,
                Ok(None) => {
                    run.error = Some("connection closed before the final estimate".into());
                    break;
                }
                Err(e) => {
                    run.error = Some(format!("read: {e}"));
                    break;
                }
            };
            let kind = field_str(&line, "type");
            if kind.as_deref() == Some("done") && !admitted {
                self.on_done(&line);
                continue;
            }
            run.lines += 1;
            run.wire_bytes += line.len() as u64 + 1;
            match kind.as_deref() {
                Some("admitted") => {
                    self.close_previous();
                    admitted = true;
                    run.id = field_u64(&line, "id").unwrap_or(0);
                    run.admit_wait_s = since(arrived);
                }
                Some("estimate") => {
                    let rows = field_u64(&line, "rows").unwrap_or(0);
                    let value = field_f64(&line, "value").unwrap_or(rows as f64);
                    run.degraded |= field_bool(&line, "degraded").unwrap_or(false);
                    if self.registry.is_some() && estimates.is_empty() {
                        run.threads = crate::probes::thread_count();
                    }
                    estimates.push((since(arrived), value, rows));
                    if field_bool(&line, "is_final") == Some(true) {
                        break;
                    }
                }
                Some("done") => {
                    run.done_seen = true;
                    run.error = Some("`done` before a final estimate".into());
                    break;
                }
                Some("error") => {
                    let code = field_str(&line, "code").unwrap_or_default();
                    run.refused = code == "overloaded";
                    run.error = Some(code);
                    break;
                }
                _ => {}
            }
        }
        if !admitted {
            self.close_previous();
        }
        run.estimates = estimates.len() as u64;
        if let (None, Some(&(arrival, value, rows))) = (&run.error, estimates.last()) {
            let settled = settle_index(estimates.len(), |i| close_to(estimates[i].1, value, 0.01));
            run.first_s = estimates[0].0;
            run.pct1_s = estimates[settled].0;
            run.final_s = arrival;
            run.correct = rows == expected.rows
                && expected
                    .watch_sum
                    .is_none_or(|sum| close_to(value, sum, 1e-9));
        }
        self.runs.push(run);
    }

    /// Collect the last request's `done`: a `list` request answers with
    /// one `queries` line, and the connection thread gets to it only
    /// after the last query's events have ended.
    fn finish(mut self) -> Vec<RequestRun> {
        let mut reads = Vec::new();
        if self
            .conn
            .send_line(&Obj::new().str("op", "list").build())
            .is_ok()
        {
            while let (_, Ok(Some(line))) = self.read(&mut reads) {
                match field_str(&line, "type").as_deref() {
                    Some("done") => self.on_done(&line),
                    _ => break,
                }
            }
        }
        self.close_previous();
        self.runs
    }
}

/// Run the closed-loop clients: each connection sends whole rounds — a
/// seeded permutation of the catalog — until `seconds` have passed (at
/// least one round). Returns every request, client by client, and the
/// wall clock from the first send to the last answer. With `registry`
/// (traced runs) each request also picks up the server's `RunStats`.
pub fn run_clients(
    addr: SocketAddr,
    fx: &Fixture,
    expected: &[Expected],
    sizing: &Sizing,
    seed: u64,
    seconds: f64,
    registry: Option<&QueryRegistry>,
) -> Result<(Vec<Vec<RequestRun>>, f64)> {
    let mut clients = Vec::new();
    for _ in 0..sizing.clients {
        clients.push(Client {
            conn: ServeClient::connect(addr)?,
            registry,
            runs: Vec::new(),
        });
    }
    let started = Instant::now();
    let runs: Vec<Vec<RequestRun>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                scope.spawn(move || {
                    let mut rng = SplitMix64(seed ^ ((c as u64 + 1) << 32));
                    loop {
                        for qi in rng.permutation(fx.specs.len()) {
                            client.request(qi, fx.specs[qi].name, &expected[qi]);
                        }
                        if started.elapsed().as_secs_f64() >= seconds {
                            return client.finish();
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    Ok((runs, started.elapsed().as_secs_f64()))
}

impl RequestRun {
    pub fn failed(&self) -> bool {
        self.error.is_some() || !self.correct
    }

    pub fn record_spans(&self, tracer: &mut Tracer, pass: usize) {
        let id = self.id as u32;
        let end = self.reads.last().map_or(self.sent, |r| r.1);
        let q = tracer.record("request", self.t0, end, Some(pass), id);
        tracer.record("serve.send_line", self.t0, self.sent, Some(q), id);
        for &(a, b) in &self.reads {
            tracer.record("serve.read_line", a, b, Some(q), id);
        }
    }

    /// The client-side share of a traced pass's `serve.*` totals.
    pub fn add_layers(&self, layers: &mut Metrics) {
        layers.add("serve.admit_wait_s", self.admit_wait_s);
        layers.add("serve.wire_bytes", self.wire_bytes as f64);
        layers.add("serve.lines", self.lines as f64);
        layers.add("serve.refused", self.refused as u64 as f64);
        layers.add("serve.degraded", self.degraded as u64 as f64);
        layers.add("serve.done_lost", self.done_lost as u64 as f64);
        layers.add("engine.estimates", self.estimates as f64);
        layers.raise("engine.threads_peak", self.threads as f64);
    }
}
