//! The four `tpch.*` workloads: one query at a time through the engine's
//! streaming surface, closed loop — the next query starts when the
//! previous one's final answer has arrived.

use crate::report::Metrics;
use crate::setup::{matches_reference, Fixture};
use crate::stats::settle_index;
use crate::trace::Tracer;
use std::sync::Arc;
use std::time::Instant;
use wake_core::metrics::compare;
use wake_data::DataFrame;
use wake_engine::{EngineConfig, RunStats};

/// What one run of one query showed. Times are seconds from `t0`, the
/// instant before the plan is built.
pub struct QueryRun {
    pub first_s: f64,
    pub pct1_s: f64,
    pub final_s: f64,
    /// `t0` → `finish()` returned: the closed loop's time per query.
    pub wall_s: f64,
    pub stats: RunStats,
    /// Final answer equals the reference.
    pub correct: bool,
    pub error: Option<String>,
    /// Thread count of the process after the first poll (traced runs
    /// only): the threaded engine's node and shard threads are alive
    /// then.
    pub threads: u64,
    timeline: Timeline,
}

/// When each call the benchmark made began and ended.
struct Timeline {
    t0: Instant,
    build_end: Instant,
    start_end: Instant,
    /// One entry per `stream.next()`, the exhausted one included.
    polls: Vec<(Instant, Instant)>,
    estimates: usize,
    finish: (Instant, Instant),
    /// Scoring `time_to_1pct_s` and checking the answer; after `wall_s`.
    scored: Instant,
}

pub fn run_query(fx: &Fixture, cfg: &EngineConfig, qi: usize, traced: bool) -> QueryRun {
    let spec = &fx.specs[qi];
    let t0 = Instant::now();
    let graph = (spec.build)(&fx.db);
    let build_end = Instant::now();
    let mut error = None;
    let mut arrivals: Vec<(Instant, Arc<DataFrame>)> = Vec::new();
    let mut polls = Vec::new();
    let mut saw_final = false;
    let mut threads = 0;
    let (start_end, stats, finish) = match cfg.start(graph) {
        Ok(mut stream) => {
            let start_end = Instant::now();
            loop {
                let poll_start = Instant::now();
                let item = stream.next();
                let poll_end = Instant::now();
                if traced && polls.is_empty() {
                    threads = crate::probes::thread_count();
                }
                polls.push((poll_start, poll_end));
                match item {
                    Some(Ok(est)) => {
                        saw_final |= est.is_final;
                        arrivals.push((poll_end, est.frame));
                    }
                    Some(Err(e)) => {
                        error = Some(e.to_string());
                        break;
                    }
                    None => break,
                }
            }
            let finish_start = Instant::now();
            let stats = stream.finish();
            (start_end, stats, (finish_start, Instant::now()))
        }
        Err(e) => {
            error = Some(e.to_string());
            let now = Instant::now();
            (now, RunStats::default(), (now, now))
        }
    };
    if error.is_none() && !saw_final {
        error = Some("stream ended without a final estimate".into());
    }

    let since = |t: Instant| t.duration_since(t0).as_secs_f64();
    let wall_s = since(finish.1);
    let (mut first_s, mut pct1_s, mut final_s, mut correct) = (wall_s, wall_s, wall_s, false);
    if error.is_none() {
        let truth = &arrivals[arrivals.len() - 1].1;
        // Scored against the query's own final frame; an estimate counts
        // once it shares a group with it (an empty early frame has no
        // error to measure).
        let settled = settle_index(arrivals.len(), |i| {
            compare(&arrivals[i].1, truth, spec.keys, spec.values)
                .is_ok_and(|r| r.mape <= 1.0 && r.recall > 0.0)
        });
        first_s = since(arrivals[0].0);
        pct1_s = since(arrivals[settled].0);
        final_s = since(arrivals[arrivals.len() - 1].0);
        correct = matches_reference(truth, &fx.refs[qi].frame, spec);
    }
    QueryRun {
        first_s,
        pct1_s,
        final_s,
        wall_s,
        stats,
        correct,
        error,
        threads,
        timeline: Timeline {
            t0,
            build_end,
            start_end,
            estimates: arrivals.len(),
            polls,
            finish,
            scored: Instant::now(),
        },
    }
}

/// One pass: every query of the workload, in registry order.
pub fn run_pass(fx: &Fixture, cfg: &EngineConfig, traced: bool) -> Vec<QueryRun> {
    (0..fx.specs.len())
        .map(|qi| run_query(fx, cfg, qi, traced))
        .collect()
}

impl QueryRun {
    pub fn failed(&self) -> bool {
        self.error.is_some() || !self.correct
    }

    /// Turn the recorded timeline into spans under `pass`.
    pub fn record_spans(&self, tracer: &mut Tracer, pass: usize, query_id: u32) {
        let t = &self.timeline;
        let q = tracer.record("query", t.t0, t.scored, Some(pass), query_id);
        tracer.record("plan.build", t.t0, t.build_end, Some(q), query_id);
        tracer.record("engine.start", t.build_end, t.start_end, Some(q), query_id);
        for &(a, b) in &t.polls {
            tracer.record("engine.poll", a, b, Some(q), query_id);
        }
        tracer.record("engine.finish", t.finish.0, t.finish.1, Some(q), query_id);
        tracer.record("bench.score", t.finish.1, t.scored, Some(q), query_id);
    }

    /// Add this query's share to a traced pass's per-layer totals: the
    /// benchmark's own spans plus what the engine publishes in
    /// `RunStats` (per-node profiles, spill and scan counters).
    pub fn add_layers(&self, layers: &mut Metrics, budget: Option<usize>) {
        let t = &self.timeline;
        let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        let poll_s: f64 = t.polls.iter().map(|&(a, b)| secs(a, b)).sum();
        layers.add("plan.build_s", secs(t.t0, t.build_end));
        layers.add("engine.start_s", secs(t.build_end, t.start_end));
        layers.add("engine.poll_s", poll_s);
        layers.add("engine.polls", t.polls.len() as f64);
        layers.add("engine.estimates", t.estimates as f64);
        layers.add("engine.finish_s", secs(t.finish.0, t.finish.1));
        layers.raise("engine.threads_peak", self.threads as f64);
        add_run_stats(layers, &self.stats, budget);
        let busy: f64 = self.stats.nodes.iter().map(|n| n.busy.as_secs_f64()).sum();
        layers.add("engine.unattributed_s", poll_s - busy);
    }
}

/// The operator kinds with a `core.<kind>_busy_s` line.
const OPERATOR_KINDS: [&str; 6] = ["read", "filter", "map", "join", "agg", "sort"];

/// Fold one query's `RunStats` into per-layer totals. Operator time is
/// grouped by the operator kind that heads each node's label
/// (`Read(lineitem)` → `core.read_busy_s`). A kind a later engine adds has
/// no line of its own here; its time still counts as attributed in
/// `engine.unattributed_s`.
pub fn add_run_stats(layers: &mut Metrics, stats: &RunStats, budget: Option<usize>) {
    for node in &stats.nodes {
        let kind = node.label.split('(').next().unwrap_or("").to_lowercase();
        if OPERATOR_KINDS.contains(&kind.as_str()) {
            layers.add(&format!("core.{kind}_busy_s"), node.busy.as_secs_f64());
        }
        layers.add("core.rows_in", node.rows_in as f64);
        layers.add("core.rows_out", node.rows_out as f64);
    }
    layers.add("store.spilled_bytes", stats.spill.spilled_bytes as f64);
    layers.add("store.evictions", stats.spill.evictions as f64);
    layers.add("store.rehydrations", stats.spill.rehydrations as f64);
    layers.add("store.io_retries", stats.spill.io_retries as f64);
    if let Some(budget) = budget {
        let overshoot = stats.peak_state_bytes as f64 / budget as f64;
        layers.raise("store.budget_overshoot", overshoot);
    }
    layers.add("store.decode_s", stats.scan.decode_nanos as f64 * 1e-9);
    layers.add("store.bytes_decoded", stats.scan.decompressed_bytes as f64);
    layers.add("store.bytes_compressed", stats.scan.compressed_bytes as f64);
    layers.add("store.zones_scanned", stats.scan.zones_scanned as f64);
    layers.add("store.zones_pruned", stats.scan.zones_pruned as f64);
}

/// `engine.unattributed_s` as a share of `engine.poll_s`, once a pass's
/// totals are in.
pub fn close_budget(layers: &mut Metrics) {
    let poll = layers.get("engine.poll_s");
    if poll > 0.0 {
        let share = layers.get("engine.unattributed_s") / poll * 100.0;
        layers.set("engine.unattributed_pct", share);
    }
}
