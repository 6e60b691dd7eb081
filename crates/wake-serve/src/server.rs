//! The server: admission control, the worker pool, and both protocols.
//!
//! One listener thread accepts connections and hands each to its own
//! connection thread; a pool of `serve_max_concurrent` worker threads
//! executes admitted queries from a bounded job queue of depth
//! `serve_max_queued`. Admission is a non-blocking `try_send` into that
//! queue: a full queue is answered with a **typed overload** response
//! (HTTP `429`, TCP `{"type":"error","code":"overloaded"}`) instead of
//! blocking the client — bursts degrade to fast refusals, never hangs.
//!
//! Memory is governed process-wide: when `serve_global_budget` (or
//! `WAKE_SERVE_GLOBAL_BUDGET`) is set, every executed query leases an
//! equal share of one [`GlobalGovernor`] total, re-apportioned as queries
//! enter and leave; the largest resident query is the first pushed over
//! its shrunken slice and therefore the first to spill — admission
//! fairness mirroring the per-shard largest-partition eviction rule.
//!
//! Client disconnect cancels the running query through the engine's
//! drop-cancel contract: the connection thread drops its event receiver
//! and raises the job's cancel flag, the worker's next event send fails,
//! and it stops the stream — joining node threads and removing spill
//! temp directories — before recording final statistics.

use crate::catalog::QueryCatalog;
use crate::json::{self, Obj};
use crate::registry::{lock_recover, QueryRecord, QueryRegistry, QueryStatus};
use crate::wire::WireWriter;
use crossbeam::channel::{self, RecvTimeoutError, TrySendError};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use wake_core::graph::QueryGraph;
use wake_engine::{EngineConfig, GlobalGovernor, RunStats};
use wake_obs::ObsLevel;

/// Default per-request deadline when the client does not send
/// `deadline_ms`: generous enough to be "no timeout" for interactive
/// use, finite so an abandoned query can never run forever.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(3600);

/// Socket read poll interval: how often blocked connection threads check
/// the shutdown flag and client liveness.
const POLL: Duration = Duration::from_millis(25);

/// One admitted query travelling from a connection thread to a worker.
struct Job {
    id: u64,
    graph: QueryGraph,
    watch: Option<String>,
    deadline: Duration,
    /// Pre-rendered JSON event lines flow back through this; the bound
    /// gives slow clients backpressure, and a dropped receiver (client
    /// gone) turns the worker's next send into the stop signal.
    events: channel::Sender<String>,
    /// Raised by the connection thread on disconnect; checked by the
    /// worker before execution so a query cancelled while still queued
    /// never builds a stream (and never takes a governor lease).
    cancelled: Arc<AtomicBool>,
}

struct Shared {
    engine: EngineConfig,
    catalog: QueryCatalog,
    registry: Arc<QueryRegistry>,
    /// `None` once shutdown has begun (no further admissions).
    jobs: Mutex<Option<channel::Sender<Job>>>,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    global: Option<Arc<GlobalGovernor>>,
}

/// A running server; dropping (or calling [`ServerHandle::shutdown`])
/// stops the listener, connection threads, and workers, joining them all.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    workers: Vec<JoinHandle<()>>,
}

/// Start a server on the config's [`EngineConfig::serve_addr`]. The
/// returned handle owns every thread the server spawns; queries execute
/// with `config`'s engine settings (observability is raised to at least
/// `Stats` so wire telemetry and profiles are populated), under one
/// process-wide memory ledger when a global budget is configured.
pub fn serve(config: EngineConfig, catalog: QueryCatalog) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.serve_addr())?;
    let addr = listener.local_addr()?;
    let max_concurrent = config.serve_max_concurrent();
    let max_queued = config.serve_max_queued();

    let global = config.serve_global_budget().map(GlobalGovernor::new);
    let mut engine = config;
    if let Some(global) = &global {
        engine = engine.with_global_governor(global);
    }
    if engine.obs_level() == ObsLevel::Off {
        engine = engine.with_obs(ObsLevel::Stats);
    }

    let (jobs_tx, jobs_rx) = channel::bounded::<Job>(max_queued);
    let registry = Arc::new(QueryRegistry::new());
    let shared = Arc::new(Shared {
        engine,
        catalog,
        registry: registry.clone(),
        jobs: Mutex::new(Some(jobs_tx)),
        shutdown: AtomicBool::new(false),
        next_id: AtomicU64::new(1),
        global,
    });

    // Worker pool: the receiver is single-consumer, so workers take
    // turns holding it; a worker blocked in recv under the lock releases
    // it as soon as a job (or disconnect) arrives.
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let workers = (0..max_concurrent)
        .map(|i| {
            let rx = jobs_rx.clone();
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("wake-serve-worker-{i}"))
                .spawn(move || worker_loop(rx, shared))
        })
        .collect::<io::Result<Vec<_>>>()?;

    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let listener_handle = {
        let shared = shared.clone();
        let conns = conns.clone();
        std::thread::Builder::new()
            .name("wake-serve-listener".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = shared.clone();
                    // A failed spawn (thread exhaustion) drops the
                    // stream, refusing the connection instead of
                    // killing the accept loop.
                    let spawned = std::thread::Builder::new()
                        .name("wake-serve-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(stream, &shared);
                        });
                    if let Ok(handle) = spawned {
                        // Reap as we go: HTTP is one connection per
                        // request, so the list would otherwise grow by
                        // one handle per request ever served.
                        let mut conns = lock_recover(&conns);
                        conns.retain(|h| !h.is_finished());
                        conns.push(handle);
                    }
                }
            })?
    };

    Ok(ServerHandle {
        addr,
        shared,
        listener: Some(listener_handle),
        conns,
        workers,
    })
}

impl ServerHandle {
    /// The bound address (resolves the `:0` ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served-query registry (ids, statuses, stats, profiles).
    pub fn registry(&self) -> Arc<QueryRegistry> {
        self.shared.registry.clone()
    }

    /// The process-wide memory ledger, when a global budget is set.
    /// Tests assert [`GlobalGovernor::is_idle`] here between requests.
    pub fn global_governor(&self) -> Option<Arc<GlobalGovernor>> {
        self.shared.global.clone()
    }

    /// Connection threads the listener still holds a handle to: the live
    /// connections plus any that ended since the last accept.
    pub fn connection_handles(&self) -> usize {
        lock_recover(&self.conns).len()
    }

    /// Stop accepting, cancel in-flight work, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // No further admissions, and workers see EOF once the last
        // connection thread drops its sender clone.
        *lock_recover(&self.shared.jobs) = None;
        // Unblock the accept loop.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.listener.take() {
            let _ = h.join();
        }
        // Connection threads observe the flag within one poll interval.
        let conns: Vec<_> = lock_recover(&self.conns).drain(..).collect();
        for h in conns {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

// ---------------------------------------------------------------------
// Worker side: execute admitted queries, stream events back.
// ---------------------------------------------------------------------

fn worker_loop(rx: Arc<Mutex<channel::Receiver<Job>>>, shared: Arc<Shared>) {
    loop {
        let job = {
            let rx = lock_recover(&rx);
            match rx.recv() {
                Ok(job) => job,
                Err(_) => break, // all senders gone: shutdown
            }
        };
        run_job(job, &shared);
    }
}

fn run_job(job: Job, shared: &Shared) {
    if job.cancelled.load(Ordering::Acquire) {
        // Cancelled while queued: the record stays readable and reports
        // zero work — no stream, no governor lease.
        shared
            .registry
            .update(job.id, |r| r.status = QueryStatus::Cancelled);
        let _ = job.events.send(done_line(
            job.id,
            QueryStatus::Cancelled,
            &RunStats::default(),
            false,
        ));
        return;
    }
    shared
        .registry
        .update(job.id, |r| r.status = QueryStatus::Running);

    let mut stream = match shared.engine.start(job.graph) {
        Ok(stream) => stream.until_deadline(job.deadline),
        Err(e) => {
            let msg = e.to_string();
            shared.registry.update(job.id, |r| {
                r.status = QueryStatus::Failed;
                r.error = Some(msg.clone());
            });
            let _ = job
                .events
                .send(error_line(Some(job.id), "query_failed", &msg));
            return;
        }
    };
    let cancel = stream.cancel_handle();

    let mut error: Option<String> = None;
    let mut client_gone = false;
    while let Some(item) = stream.next() {
        if job.cancelled.load(Ordering::Acquire) {
            client_gone = true;
            cancel.cancel();
            stream.stop();
            break;
        }
        match item {
            Ok(est) => {
                let line = estimate_line(job.id, &est, job.watch.as_deref(), stream.degraded());
                if job.events.send(line).is_err() {
                    // Client disconnected mid-stream: cancel through the
                    // drop-cancel contract (the flag unblocks a
                    // backpressured pipeline before the join).
                    client_gone = true;
                    cancel.cancel();
                    stream.stop();
                    break;
                }
            }
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    stream.stop(); // idempotent; the one snapshot below is final

    let stats = stream.stats();
    let stopped_early = stream.stopped_early();
    // The ledger holds the query's memory lease: return it before the
    // client hears `done`.
    drop(stream);
    let status = if error.is_some() {
        QueryStatus::Failed
    } else if client_gone {
        QueryStatus::Cancelled
    } else {
        QueryStatus::Completed
    };
    let done = done_line(job.id, status, &stats, stopped_early);
    shared.registry.update(job.id, |r| {
        r.status = status;
        r.stats = stats;
        r.stopped_early = stopped_early;
        r.error.clone_from(&error);
    });
    // Terminal lines take the same blocking send as estimates: the event
    // channel is bounded, and a line dropped because the connection thread
    // is a channel's worth behind would leave the client waiting for
    // `done` forever. A client that is gone has dropped its receiver, so
    // the send returns at once and cannot hang the worker.
    if let Some(msg) = error {
        let _ = job
            .events
            .send(error_line(Some(job.id), "query_failed", &msg));
    }
    let _ = job.events.send(done);
}

fn estimate_line(
    id: u64,
    est: &wake_engine::Estimate,
    watch: Option<&str>,
    degraded: bool,
) -> String {
    let mut obj = Obj::new()
        .str("type", "estimate")
        .u64("id", id)
        .u64("seq", est.seq as u64)
        .f64("t", est.t)
        .bool("is_final", est.is_final)
        .u64("rows", est.frame.num_rows() as u64)
        .u64("rows_processed", est.rows_processed)
        .f64("elapsed_ms", est.elapsed.as_secs_f64() * 1e3)
        .u64("spill_bytes", est.spill_bytes)
        .u64("scan_bytes", est.scan_bytes)
        .bool("degraded", degraded);
    if let Some(watch) = watch {
        if let Some(value) = watch_sum(est, watch) {
            obj = obj.f64("value", value);
        }
        if let Ok(hw) = est.max_rel_half_width(watch, wake_engine::DEFAULT_CONFIDENCE) {
            if hw.is_finite() {
                obj = obj.f64("ci_rel_half_width", hw);
            }
        }
    }
    obj.build()
}

/// Sum of the watch column over the estimate's output rows — an
/// order-independent scalar summary (exact for single-group aggregates,
/// a stable roll-up for grouped ones).
fn watch_sum(est: &wake_engine::Estimate, watch: &str) -> Option<f64> {
    let col = est.frame.column(watch).ok()?;
    let mut sum = 0.0;
    for i in 0..col.len() {
        sum += col.f64_at(i)?;
    }
    Some(sum)
}

/// How a query ended and what it cost: the fields a `done` event and a
/// `list` entry share, written once.
fn outcome(obj: Obj, status: QueryStatus, stats: &RunStats, stopped_early: bool) -> Obj {
    obj.str("status", status.as_str())
        .bool("stopped_early", stopped_early)
        .bool("degraded", stats.degraded)
        .u64("peak_state_bytes", stats.peak_state_bytes as u64)
        .u64("spill_bytes", stats.spill.spilled_bytes as u64)
}

fn done_line(id: u64, status: QueryStatus, stats: &RunStats, stopped_early: bool) -> String {
    let head = Obj::new().str("type", "done").u64("id", id);
    outcome(head, status, stats, stopped_early)
        .u64("evictions", stats.spill.evictions as u64)
        .u64("scan_bytes", stats.scan.decompressed_bytes)
        .build()
}

fn error_line(id: Option<u64>, code: &str, message: &str) -> String {
    let mut obj = Obj::new().str("type", "error").str("code", code);
    if let Some(id) = id {
        obj = obj.u64("id", id);
    }
    obj.str("message", message).build()
}

fn record_line(rec: &QueryRecord) -> String {
    let head = Obj::new().u64("id", rec.id).str("name", &rec.name);
    let mut obj = outcome(head, rec.status, &rec.stats, rec.stopped_early);
    if let Some(err) = &rec.error {
        obj = obj.str("error", err);
    }
    obj.build()
}

// ---------------------------------------------------------------------
// Connection side: protocol sniffing, request handling, event pumping.
// ---------------------------------------------------------------------

/// Longest request line (TCP) or header line (HTTP) the server buffers:
/// ample for `{"op":"query",…}` and a GET line, small enough that a
/// client which never sends `\n` cannot grow server memory.
const MAX_LINE: usize = 64 << 10;

/// Most header lines an HTTP request may carry.
const MAX_HEADERS: usize = 100;

/// What a reply means apart from its body. Both protocols answer from
/// the same (code, body) pair: TCP writes the body as a line, HTTP maps
/// the code to a status.
#[derive(Clone, Copy, PartialEq)]
enum Code {
    Ok,
    BadRequest,
    TooLarge,
    NotFound,
    UnknownQuery,
    MethodNotAllowed,
    NoProfile,
    Overloaded,
    ShuttingDown,
}

impl Code {
    /// (`code` field of the error line, HTTP status, reason phrase).
    fn wire(self) -> (&'static str, u16, &'static str) {
        match self {
            Code::Ok => ("ok", 200, "OK"),
            Code::BadRequest => ("bad_request", 400, "Bad Request"),
            Code::TooLarge => ("bad_request", 431, "Request Header Fields Too Large"),
            Code::NotFound => ("not_found", 404, "Not Found"),
            Code::UnknownQuery => ("unknown_query", 404, "Not Found"),
            Code::MethodNotAllowed => ("method_not_allowed", 405, "Method Not Allowed"),
            Code::NoProfile => ("no_profile", 409, "Conflict"),
            Code::Overloaded => ("overloaded", 429, "Too Many Requests"),
            Code::ShuttingDown => ("shutting_down", 503, "Service Unavailable"),
        }
    }
}

/// One complete (non-streaming) answer.
struct Reply(Code, String);

impl Reply {
    fn error(code: Code, id: Option<u64>, message: &str) -> Reply {
        Reply(code, error_line(id, code.wire().0, message))
    }

    fn too_large() -> Reply {
        Reply::error(Code::TooLarge, None, "request line or headers too long")
    }

    /// Answer over HTTP: the code picks the status, the body is the line.
    fn http(&self, out: &mut WireWriter) -> io::Result<()> {
        let (_, status, reason) = self.0.wire();
        out.http_reply(status, reason, &self.1)
    }
}

/// EXPLAIN ANALYZE of a finished query: its recorded statistics, rendered
/// on request. A record without nodes has not finished, or never ran.
fn explain_reply(shared: &Shared, id: Option<u64>) -> Reply {
    let Some(rec) = id.and_then(|id| shared.registry.get(id)) else {
        return Reply::error(Code::NotFound, None, "no such query id");
    };
    if rec.stats.nodes.is_empty() {
        let message = "query has not finished executing (or never ran)";
        return Reply::error(Code::NoProfile, Some(rec.id), message);
    }
    let reply = Obj::new()
        .str("type", "profile")
        .u64("id", rec.id)
        .str("status", rec.status.as_str())
        .raw("profile", &rec.stats.to_json());
    Reply(Code::Ok, reply.build())
}

/// The catalog's names and every retained query record.
fn list_reply(shared: &Shared) -> Reply {
    let names = shared.catalog.names();
    let catalog = names.iter().map(|n| format!("\"{}\"", json::escape(n)));
    Reply(
        Code::Ok,
        Obj::new()
            .str("type", "queries")
            .array("catalog", catalog)
            .array("queries", shared.registry.list().iter().map(record_line))
            .build(),
    )
}

/// An admitted query, as its connection thread sees it. `events` opens
/// with the `admitted` line; the worker's lines follow.
struct Admitted {
    events: channel::Receiver<String>,
    cancelled: Arc<AtomicBool>,
}

/// Submit one query request for admission; a refusal is a typed reply.
fn admit(shared: &Shared, name: &str, deadline: Duration) -> Result<Admitted, Reply> {
    let Some(entry) = shared.catalog.get(name) else {
        let message = format!("no query named {name:?}");
        return Err(Reply::error(Code::UnknownQuery, None, &message));
    };
    let shutting_down = || Reply::error(Code::ShuttingDown, None, "server stopping");
    let tx = match lock_recover(&shared.jobs).as_ref() {
        Some(tx) => tx.clone(),
        None => return Err(shutting_down()),
    };
    // relaxed: ID allocation needs only the RMW's atomicity, not ordering
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let (events_tx, events_rx) = channel::bounded::<String>(32);
    let admitted = Obj::new()
        .str("type", "admitted")
        .u64("id", id)
        .str("name", name);
    // Cannot fail: the channel is new and this thread holds the receiver.
    let _ = events_tx.try_send(admitted.build());
    let cancelled = Arc::new(AtomicBool::new(false));
    // Admit into the registry first so an immediately-scheduled job finds
    // its record; roll back if the queue refuses it.
    shared.registry.admit(id, name);
    let job = Job {
        id,
        graph: entry.graph.clone(),
        watch: entry.watch.clone(),
        deadline,
        events: events_tx,
        cancelled: cancelled.clone(),
    };
    let (error, reply) = match tx.try_send(job) {
        Ok(()) => {
            return Ok(Admitted {
                events: events_rx,
                cancelled,
            })
        }
        Err(TrySendError::Full(_)) => (
            "rejected: admission queue full",
            Reply::error(Code::Overloaded, None, "server at capacity; retry later"),
        ),
        Err(TrySendError::Disconnected(_)) => ("rejected: server shutting down", shutting_down()),
    };
    shared.registry.update(id, |r| {
        r.status = QueryStatus::Failed;
        r.error = Some(error.into());
    });
    Err(reply)
}

fn is_http(request_line: &str) -> bool {
    ["GET ", "POST ", "HEAD "]
        .iter()
        .any(|method| request_line.starts_with(method))
}

fn handle_connection(stream: TcpStream, shared: &Shared) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(Duration::from_secs(5)))?;
    let mut out = WireWriter::tcp(&stream)?;
    let mut reader = BufReader::new(stream);
    match read_line_polled(&mut reader, shared)? {
        Request::Closed => Ok(()),
        Request::Line(first) if is_http(&first) => handle_http(out, reader, first, shared),
        Request::Line(first) => handle_tcp_line(out, reader, first, shared),
        Request::TooLong(start) if is_http(&start) => Reply::too_large().http(&mut out),
        Request::TooLong(_) => out.line(&Reply::too_large().1),
    }
}

/// What [`read_line_polled`] found on the socket.
enum Request {
    /// One line, its terminator trimmed.
    Line(String),
    /// No newline within [`MAX_LINE`] bytes; carries how the line began.
    /// The connection answers once, typed, and closes.
    TooLong(String),
    /// Clean EOF, or the server is shutting down.
    Closed,
}

/// Read one line of at most [`MAX_LINE`] bytes, polling the shutdown
/// flag across read timeouts.
fn read_line_polled(reader: &mut BufReader<TcpStream>, shared: &Shared) -> io::Result<Request> {
    let text = |line: &[u8]| {
        let text = String::from_utf8_lossy(line);
        text.trim_end_matches(['\r', '\n']).to_string()
    };
    let mut line = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return Ok(Request::Closed);
        }
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            // A partial line stays in `line`; keep polling.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            return Ok(match line.is_empty() {
                true => Request::Closed,
                false => Request::Line(text(&line)),
            });
        }
        let newline = buf.iter().position(|&b| b == b'\n');
        let take = newline.map_or(buf.len(), |i| i + 1);
        line.extend_from_slice(buf.get(..take).unwrap_or(buf));
        reader.consume(take);
        if line.len() > MAX_LINE {
            return Ok(Request::TooLong(text(&line)));
        }
        if newline.is_some() {
            return Ok(Request::Line(text(&line)));
        }
    }
}

/// Pump event lines from a worker to the client via `write`. Returns
/// `Ok(true)` if the query ran to its done event, `Ok(false)` if the
/// client vanished or the server shut down (the job is cancelled either
/// way).
fn pump_events(
    admitted: &Admitted,
    peek: &TcpStream,
    shared: &Shared,
    mut write: impl FnMut(&str) -> io::Result<()>,
) -> io::Result<bool> {
    let cancel = || admitted.cancelled.store(true, Ordering::Release);
    let mut buf = [0u8; 1];
    loop {
        match admitted.events.recv_timeout(POLL) {
            Ok(line) => {
                if write(&line).is_err() {
                    cancel();
                    return Ok(false);
                }
                if json::field_str(&line, "type").as_deref() == Some("done") {
                    return Ok(true);
                }
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(true),
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    cancel();
                    return Ok(false);
                }
                // Liveness probe: EOF from peek means the client hung up
                // (e.g. while the query is still queued and no events
                // flow that would surface the broken pipe).
                match peek.peek(&mut buf) {
                    Ok(0) => {
                        cancel();
                        return Ok(false);
                    }
                    _ => continue,
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Line-JSON TCP protocol.
// ---------------------------------------------------------------------

fn handle_tcp_line(
    mut out: WireWriter,
    mut reader: BufReader<TcpStream>,
    first: String,
    shared: &Shared,
) -> io::Result<()> {
    let mut request = Request::Line(first);
    loop {
        let line = match request {
            Request::Line(line) => line,
            Request::TooLong(_) => return out.line(&Reply::too_large().1),
            Request::Closed => return Ok(()),
        };
        let reply = match json::field_str(&line, "op").as_deref() {
            Some("query") => match json::field_str(&line, "name") {
                None => Some(Reply::error(Code::BadRequest, None, "missing name")),
                Some(name) => {
                    let deadline = json::field_u64(&line, "deadline_ms")
                        .map(Duration::from_millis)
                        .unwrap_or(DEFAULT_DEADLINE);
                    match admit(shared, &name, deadline) {
                        Ok(admitted) => {
                            let write = |l: &str| out.line(l);
                            if !pump_events(&admitted, reader.get_ref(), shared, write)? {
                                return Ok(());
                            }
                            None
                        }
                        Err(refusal) => Some(refusal),
                    }
                }
            },
            Some("explain") => Some(explain_reply(shared, json::field_u64(&line, "id"))),
            Some("list") => Some(list_reply(shared)),
            None if line.trim().is_empty() => None,
            _ => Some(Reply::error(
                Code::BadRequest,
                None,
                "unknown or missing op",
            )),
        };
        if let Some(Reply(code, body)) = reply {
            out.line(&body)?;
            if code == Code::ShuttingDown {
                return Ok(());
            }
        }
        request = read_line_polled(&mut reader, shared)?;
    }
}

// ---------------------------------------------------------------------
// Minimal HTTP/1.1 with chunked transfer encoding.
// ---------------------------------------------------------------------

fn handle_http(
    mut out: WireWriter,
    mut reader: BufReader<TcpStream>,
    request_line: String,
    shared: &Shared,
) -> io::Result<()> {
    // Drain headers (ignored; the protocol needs only the request line).
    let mut headers = 0;
    loop {
        match read_line_polled(&mut reader, shared)? {
            Request::Line(line) if line.is_empty() => break,
            Request::Line(_) if headers < MAX_HEADERS => headers += 1,
            Request::Line(_) | Request::TooLong(_) => return Reply::too_large().http(&mut out),
            Request::Closed => break,
        }
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("/");
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };

    let reply = if method != "GET" {
        Reply::error(Code::MethodNotAllowed, None, "only GET is supported")
    } else if let Some(name) = path.strip_prefix("/query/") {
        let deadline = query
            .and_then(|q| {
                q.split('&')
                    .find_map(|kv| kv.strip_prefix("deadline_ms="))
                    .and_then(|v| v.parse::<u64>().ok())
            })
            .map(Duration::from_millis)
            .unwrap_or(DEFAULT_DEADLINE);
        match admit(shared, name, deadline) {
            Ok(admitted) => {
                out.http_stream_head()?;
                let write = |l: &str| out.http_chunk(l);
                if pump_events(&admitted, reader.get_ref(), shared, write)? {
                    let _ = out.http_last_chunk();
                }
                return Ok(());
            }
            Err(refusal) => refusal,
        }
    } else if let Some(id) = path.strip_prefix("/explain/") {
        explain_reply(shared, id.parse().ok())
    } else if path == "/queries" {
        list_reply(shared)
    } else {
        Reply::error(Code::NotFound, None, "unknown path")
    };
    reply.http(&mut out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wake_core::agg::AggSpec;
    use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema};

    /// A count(*) over `partitions` one-row partitions: one estimate each.
    fn counting_graph(partitions: i64) -> QueryGraph {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int64)]));
        let df = DataFrame::new(schema, vec![Column::from_i64((0..partitions).collect())]).unwrap();
        let src = MemorySource::from_frame("t", &df, 1, vec![], None).unwrap();
        let mut g = QueryGraph::new();
        let r = g.read(src);
        let a = g.agg(r, vec![], vec![AggSpec::count_star("n")]);
        g.sink(a);
        g
    }

    /// A server's shared state with no listener, workers or catalog.
    fn shared() -> Shared {
        Shared {
            engine: EngineConfig::stepped().with_obs(ObsLevel::Stats),
            catalog: QueryCatalog::new(),
            registry: Arc::new(QueryRegistry::new()),
            jobs: Mutex::new(None),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            global: None,
        }
    }

    /// Admit `graph` under `id`, as the connection thread would.
    fn job(shared: &Shared, id: u64, graph: QueryGraph, events: channel::Sender<String>) -> Job {
        shared.registry.admit(id, "count");
        Job {
            id,
            graph,
            watch: None,
            deadline: DEFAULT_DEADLINE,
            events,
            cancelled: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn explain_renders_the_stored_record_and_a_never_run_query_has_none() {
        let shared = shared();
        let (events, client) = channel::bounded::<String>(64);
        run_job(job(&shared, 1, counting_graph(4), events), &shared);
        let done = client.iter().last().unwrap();
        assert_eq!(json::field_str(&done, "type").as_deref(), Some("done"));
        let rec = shared.registry.get(1).unwrap();
        assert_eq!(rec.stats.nodes.len(), 2, "read, agg");
        let Reply(code, body) = explain_reply(&shared, Some(1));
        assert!(code == Code::Ok);
        let expected = Obj::new()
            .str("type", "profile")
            .u64("id", 1)
            .str("status", "completed")
            .raw("profile", &rec.stats.to_json());
        assert_eq!(body, expected.build());

        // Cancelled while queued: zero work on record, nothing to explain.
        let (events, _client) = channel::bounded::<String>(1);
        let queued = job(&shared, 2, counting_graph(4), events);
        queued.cancelled.store(true, Ordering::Release);
        run_job(queued, &shared);
        let rec = shared.registry.get(2).unwrap();
        assert_eq!(rec.status, QueryStatus::Cancelled);
        assert_eq!(rec.stats, RunStats::default());
        let Reply(code, body) = explain_reply(&shared, Some(2));
        assert!(code == Code::NoProfile);
        assert_eq!(
            json::field_str(&body, "code").as_deref(),
            Some("no_profile")
        );
    }

    #[test]
    fn done_line_reaches_a_client_a_full_event_channel_behind() {
        const CAPACITY: usize = 32;
        const ESTIMATES: usize = 40;
        let shared = shared();
        let (events, client) = channel::bounded::<String>(CAPACITY);
        let job = job(&shared, 1, counting_graph(ESTIMATES as i64), events);
        let lines = std::thread::scope(|scope| {
            scope.spawn(|| run_job(job, &shared));
            // The client reads just enough for the worker to queue every
            // remaining estimate, then stops reading until the query has
            // completed: the channel is full when `done` is due.
            for _ in 0..ESTIMATES - CAPACITY {
                client.recv().unwrap();
            }
            while shared.registry.get(1).map(|r| r.status) != Some(QueryStatus::Completed) {
                std::thread::yield_now();
            }
            let mut lines = Vec::new();
            while let Ok(line) = client.recv() {
                lines.push(line);
            }
            lines
        });
        assert_eq!(lines.len(), CAPACITY + 1, "queued estimates, then done");
        let done = lines.last().unwrap();
        assert_eq!(json::field_str(done, "type").as_deref(), Some("done"));
        assert_eq!(
            json::field_str(done, "status").as_deref(),
            Some("completed")
        );
    }
}
