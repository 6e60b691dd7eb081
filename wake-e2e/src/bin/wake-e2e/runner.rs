//! One workload, one run: set-up (repeated, so that `setup_s` is a
//! median), a checked warm-up pass, timed passes until the time is up,
//! and — in the traced run — the per-layer totals, the probes and the
//! span file.

use crate::library::{self, QueryRun};
use crate::probes;
use crate::report::{json_array, Metrics, Outcome};
use crate::serve::{self, RequestRun};
use crate::setup::{build_fixture, engine_config, Fixture, Result, Sizing, WorkDir, Workload};
use crate::stats::{median, median_then_sum, min_median_max};
use crate::trace::Tracer;
use std::time::Instant;
use wake_engine::ObsLevel;
use wake_serve::json::Obj;

pub struct RunOpts {
    pub seed: u64,
    /// How long the timed passes run (the run stops at the first pass
    /// boundary past it).
    pub seconds: f64,
    pub sizing: Sizing,
    /// Set-ups per untraced run; `setup_s` is their median.
    pub setup_rounds: usize,
    /// Timed passes a run makes even when `seconds` is already over.
    pub min_passes: usize,
}

/// One query's timed samples across passes (or serve requests).
#[derive(Default, Clone)]
struct Samples {
    first: Vec<f64>,
    pct1: Vec<f64>,
    fin: Vec<f64>,
    peak: u64,
}

/// What the end-to-end figures are computed from, for either kind of
/// workload.
struct Timed {
    per_query: Vec<Samples>,
    /// Per pass (serve: per client round): Σ first, Σ 1 %, Σ final.
    pass_sums: Vec<[f64; 3]>,
    queries_per_s: f64,
}

impl Timed {
    fn sum(&self, pick: impl Fn(&Samples) -> &Vec<f64>) -> f64 {
        median_then_sum(self.per_query.iter().map(|s| pick(s).as_slice()))
    }

    fn final_s(&self) -> f64 {
        self.sum(|s| &s.fin)
    }

    fn fill(&self, m: &mut Metrics) {
        m.set("first_estimate_s", self.sum(|s| &s.first));
        m.set("time_to_1pct_s", self.sum(|s| &s.pct1));
        m.set("final_s", self.final_s());
        let peak: u64 = self.per_query.iter().map(|s| s.peak).sum();
        m.set("peak_state_bytes", peak as f64);
        m.set("queries_per_s", self.queries_per_s);
    }
}

fn timed_from_passes(n_queries: usize, passes: &[Vec<QueryRun>]) -> Timed {
    let mut per_query = vec![Samples::default(); n_queries];
    let mut pass_sums = Vec::new();
    let mut wall = 0.0;
    for pass in passes {
        let mut sums = [0.0; 3];
        for (s, run) in per_query.iter_mut().zip(pass) {
            s.first.push(run.first_s);
            s.pct1.push(run.pct1_s);
            s.fin.push(run.final_s);
            s.peak = s.peak.max(run.stats.peak_state_bytes as u64);
            sums[0] += run.first_s;
            sums[1] += run.pct1_s;
            sums[2] += run.final_s;
            wall += run.wall_s;
        }
        pass_sums.push(sums);
    }
    Timed {
        per_query,
        pass_sums,
        queries_per_s: (n_queries * passes.len()) as f64 / wall,
    }
}

fn timed_from_requests(n_queries: usize, clients: &[Vec<RequestRun>], wall_s: f64) -> Timed {
    let mut per_query = vec![Samples::default(); n_queries];
    let mut pass_sums = Vec::new();
    for round in clients.iter().flat_map(|c| c.chunks(n_queries)) {
        let mut sums = [0.0; 3];
        for run in round {
            let s = &mut per_query[run.qi];
            s.first.push(run.first_s);
            s.pct1.push(run.pct1_s);
            s.fin.push(run.final_s);
            s.peak = s.peak.max(run.peak_state_bytes);
            sums[0] += run.first_s;
            sums[1] += run.pct1_s;
            sums[2] += run.final_s;
        }
        pass_sums.push(sums);
    }
    let requests: usize = clients.iter().map(Vec::len).sum();
    Timed {
        per_query,
        pass_sums,
        queries_per_s: requests as f64 / wall_s,
    }
}

/// Failures counted over everything a run checked.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn count(&mut self, name: &str, failed: bool, error: &Option<String>) {
        self.attempted += 1;
        if failed {
            self.failed += 1;
            let why = error.as_deref().unwrap_or("final answer differs");
            self.messages.push(format!("FAILED {name}: {why}"));
        }
    }

    fn library(&mut self, fx: &Fixture, pass: &[QueryRun]) {
        for (spec, run) in fx.specs.iter().zip(pass) {
            self.count(spec.name, run.failed(), &run.error);
        }
    }

    fn serve(&mut self, fx: &Fixture, clients: &[Vec<RequestRun>]) {
        for run in clients.iter().flatten() {
            let name = fx.specs[run.qi].name;
            self.count(name, run.failed(), &run.error);
            // Not a failed query — every estimate and the exact answer
            // arrived — but a protocol line the server dropped.
            if run.done_lost {
                self.messages
                    .push(format!("LOST the `done` line of {name} (id {})", run.id));
            }
        }
    }
}

/// The informational lines printed under the metrics.
fn notes(fx: &Fixture, timed: &Timed, setups: &[f64], tally: &Tally) -> Vec<String> {
    let mut out = Vec::new();
    let samples = timed.per_query.first().map_or(0, |s| s.fin.len());
    out.push(format!(
        "passes {} · samples per query {samples} (no tail percentile: fewer than ten lie beyond any)",
        timed.pass_sums.len()
    ));
    for (i, name) in ["first_estimate_s", "time_to_1pct_s", "final_s"]
        .iter()
        .enumerate()
    {
        let column: Vec<f64> = timed.pass_sums.iter().map(|p| p[i]).collect();
        let (lo, mid, hi) = min_median_max(&column);
        out.push(format!(
            "per-pass Σ {name}: min {lo:.4} median {mid:.4} max {hi:.4} s"
        ));
    }
    if !setups.is_empty() {
        let list: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
        out.push(format!("set-ups: {} s", list.join(" ")));
    }
    // The paper's two ratios (§8), as information: how much sooner the
    // first estimate arrives than an exact engine's answer, and what the
    // exact answer costs through the OLA path.
    let mut sooner = Vec::new();
    let mut slowdown = Vec::new();
    for (s, reference) in timed.per_query.iter().zip(&fx.refs) {
        let (first, fin) = (median(&s.first), median(&s.fin));
        if first > 0.0 && reference.exact_s > 0.0 {
            sooner.push(reference.exact_s / first);
            slowdown.push(fin / reference.exact_s);
        }
    }
    out.push(format!(
        "exact_s / first_estimate_s: median over queries {:.2}× · final_s / exact_s: {:.2}× \
         (exact = one stepped run on single-partition tables)",
        median(&sooner),
        median(&slowdown)
    ));
    out.extend(tally.messages.iter().cloned());
    out
}

fn per_query_json(fx: &Fixture, timed: &Timed) -> String {
    let rows: Vec<String> = fx
        .specs
        .iter()
        .zip(&fx.refs)
        .zip(&timed.per_query)
        .map(|((spec, reference), s)| {
            Obj::new()
                .str("query", spec.name)
                .u64("samples", s.fin.len() as u64)
                .f64("first_estimate_s", median(&s.first))
                .f64("time_to_1pct_s", median(&s.pct1))
                .f64("final_s", median(&s.fin))
                .u64("peak_state_bytes", s.peak)
                .f64("exact_s", reference.exact_s)
                .build()
        })
        .collect();
    json_array(&rows)
}

/// Assemble a run's record. `setups` is empty for a traced run.
fn outcome(
    w: Workload,
    fx: &Fixture,
    timed: &Timed,
    setups: &[f64],
    tally: &Tally,
    metrics: Metrics,
    extra_notes: Vec<String>,
) -> Outcome {
    let mut notes = notes(fx, timed, setups, tally);
    notes.extend(extra_notes);
    Outcome {
        workload: w.name(),
        traced: setups.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        notes,
        per_query_json: per_query_json(fx, timed),
        metrics,
    }
}

/// The end-to-end record of an untraced run.
fn untraced_outcome(
    w: Workload,
    fx: &Fixture,
    timed: &Timed,
    setups: &[f64],
    tally: &Tally,
) -> Outcome {
    let mut metrics = Metrics::end_to_end();
    timed.fill(&mut metrics);
    metrics.set("setup_s", median(setups));
    outcome(w, fx, timed, setups, tally, metrics, Vec::new())
}

/// What both kinds of traced run end with: the overhead figure, the
/// layer-load check, the probes and the span file.
#[allow(clippy::too_many_arguments)]
fn traced_outcome(
    w: Workload,
    fx: &Fixture,
    opts: &RunOpts,
    work: &WorkDir,
    tracer: &Tracer,
    mut layers: Metrics,
    plain: &Timed,
    timed: &Timed,
    tally: &Tally,
) -> Result<Outcome> {
    layers.set(
        "obs.trace_overhead_pct",
        (timed.final_s() / plain.final_s() - 1.0) * 100.0,
    );
    check_layer_load(w, &layers)?;
    probes::run_probes(fx, &opts.sizing, opts.seconds, &work.scratch, &mut layers)?;
    let trace_path = work.out.join(format!("trace-{}.json", w.name()));
    tracer.write_json(&trace_path)?;
    let own: Vec<String> = tracer
        .self_seconds_by_name()
        .iter()
        .map(|(name, s)| format!("{name} {s:.4}"))
        .collect();
    let extra = vec![
        format!("{} spans → {}", tracer.spans.len(), trace_path.display()),
        format!(
            "span self time over all traced passes, s: {}",
            own.join(" · ")
        ),
    ];
    Ok(outcome(w, fx, timed, &[], tally, layers, extra))
}

/// Run timed passes until `seconds` are over (and at least `min`).
fn timed_passes(
    fx: &Fixture,
    w: Workload,
    opts: &RunOpts,
    obs: ObsLevel,
    seconds: f64,
    tally: &mut Tally,
) -> Vec<Vec<QueryRun>> {
    let cfg = engine_config(w, &opts.sizing, opts.seed, obs);
    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < opts.min_passes || started.elapsed().as_secs_f64() < seconds {
        let pass = library::run_pass(fx, &cfg, obs != ObsLevel::Off);
        tally.library(fx, &pass);
        passes.push(pass);
    }
    passes
}

/// The budget a query's state is held to, if the workload sets one.
fn state_budget(w: Workload, sizing: &Sizing) -> Option<usize> {
    match w {
        Workload::Spill => Some(sizing.spill_budget),
        Workload::Serve => Some(sizing.serve_budget / sizing.clients),
        _ => None,
    }
}

/// Each workload must load its own layer and leave the others idle;
/// otherwise its numbers do not mean what its name says.
fn check_layer_load(w: Workload, layers: &Metrics) -> Result<()> {
    let spilled = layers.get("store.spilled_bytes");
    let decoded = layers.get("store.bytes_decoded");
    let lines = layers.get("serve.lines");
    let ok = match w {
        Workload::Resident | Workload::Threaded => spilled == 0.0 && decoded == 0.0 && lines == 0.0,
        Workload::Spill => spilled > 0.0 && decoded == 0.0 && lines == 0.0,
        Workload::Wseg => spilled == 0.0 && decoded > 0.0 && lines == 0.0,
        Workload::Serve => decoded == 0.0 && lines > 0.0,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{} does not load its layer: spilled_bytes {spilled}, bytes_decoded {decoded}, \
             serve.lines {lines}",
            w.name()
        )
        .into())
    }
}

/// Warm-up pass of a library workload: untimed, checked, and for
/// `tpch.spill` the proof that every query really spills.
fn library_warm_up(fx: &Fixture, w: Workload, opts: &RunOpts, tally: &mut Tally) -> Result<()> {
    let cfg = engine_config(w, &opts.sizing, opts.seed, ObsLevel::Off);
    let pass = library::run_pass(fx, &cfg, false);
    tally.library(fx, &pass);
    for (spec, run) in fx.specs.iter().zip(&pass) {
        let spilled = run.stats.spill.spilled_bytes;
        if w == Workload::Spill && spilled == 0 && run.error.is_none() {
            return Err(format!("tpch.spill: {} spilled nothing", spec.name).into());
        }
        if matches!(w, Workload::Resident | Workload::Threaded) && spilled != 0 {
            return Err(format!("{}: {} spilled {spilled} bytes", w.name(), spec.name).into());
        }
    }
    Ok(())
}

fn run_library(
    w: Workload,
    traced: bool,
    opts: &RunOpts,
    work: &WorkDir,
    started: Instant,
) -> Result<Outcome> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut fixture = None;
    let rounds = if traced { 1 } else { opts.setup_rounds };
    for round in 0..rounds {
        drop(fixture.take());
        let t = if round == 0 { started } else { Instant::now() };
        let fx = build_fixture(w, &opts.sizing, opts.seed, &work.table_dir(round))?;
        library_warm_up(&fx, w, opts, &mut tally)?;
        setups.push(t.elapsed().as_secs_f64());
        fixture = Some(fx);
    }
    let fx = fixture.ok_or("no set-up round ran")?;

    if !traced {
        let passes = timed_passes(&fx, w, opts, ObsLevel::Off, opts.seconds, &mut tally);
        let timed = timed_from_passes(fx.specs.len(), &passes);
        return Ok(untraced_outcome(w, &fx, &timed, &setups, &tally));
    }

    // Traced run: untraced passes first (the base of the overhead
    // figure), then the same passes with `ObsLevel::Stats` and spans.
    let share = opts.seconds * 0.4;
    let plain = timed_passes(&fx, w, opts, ObsLevel::Off, share, &mut tally);
    let plain = timed_from_passes(fx.specs.len(), &plain);
    let origin = Instant::now();
    let passes = timed_passes(&fx, w, opts, ObsLevel::Stats, share, &mut tally);
    let ended = Instant::now();
    let timed = timed_from_passes(fx.specs.len(), &passes);

    let mut tracer = Tracer::new(origin);
    let run_span = tracer.record("run", origin, ended, None, 0);
    let mut per_pass = Vec::new();
    let mut query_id = 0;
    for pass in &passes {
        let mut layers = Metrics::per_layer();
        for run in pass {
            query_id += 1;
            run.record_spans(&mut tracer, run_span, query_id);
            run.add_layers(&mut layers, state_budget(w, &opts.sizing));
        }
        library::close_budget(&mut layers);
        per_pass.push(layers);
    }
    let mut layers = Metrics::median_of(&per_pass);
    layers.set("store.segment_write_s", fx.segment_write_s);
    traced_outcome(w, &fx, opts, work, &tracer, layers, &plain, &timed, &tally)
}

fn run_serve(traced: bool, opts: &RunOpts, work: &WorkDir, started: Instant) -> Result<Outcome> {
    let w = Workload::Serve;
    let sizing = &opts.sizing;
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let mut live: Option<(Fixture, wake_serve::ServerHandle, Vec<serve::Expected>)> = None;
    let rounds = if traced { 1 } else { opts.setup_rounds };
    for round in 0..rounds {
        if let Some((_, server, _)) = live.take() {
            server.shutdown();
        }
        let t = if round == 0 { started } else { Instant::now() };
        let fx = build_fixture(w, &opts.sizing, opts.seed, &work.table_dir(round))?;
        let server = serve::start_server(&fx, sizing, opts.seed)?;
        let expected = serve::expectations(&fx);
        // Warm-up: one round per client, untimed, checked.
        let (warm, _) =
            serve::run_clients(server.addr(), &fx, &expected, sizing, opts.seed, 0.0, None)?;
        tally.serve(&fx, &warm);
        setups.push(t.elapsed().as_secs_f64());
        live = Some((fx, server, expected));
    }
    let (fx, server, expected) = live.ok_or("no set-up round ran")?;
    let n = fx.specs.len();
    // Timed rounds draw other permutations than the warm-up's.
    let seed = opts.seed.wrapping_add(1);
    let seconds = if traced {
        opts.seconds * 0.4
    } else {
        opts.seconds
    };

    let (runs, wall_s) =
        serve::run_clients(server.addr(), &fx, &expected, sizing, seed, seconds, None)?;
    tally.serve(&fx, &runs);
    let plain = timed_from_requests(n, &runs, wall_s);
    if !traced {
        server.shutdown();
        return Ok(untraced_outcome(w, &fx, &plain, &setups, &tally));
    }

    let registry = server.registry();
    let origin = Instant::now();
    let (runs, wall_s) = serve::run_clients(
        server.addr(),
        &fx,
        &expected,
        sizing,
        seed.wrapping_add(1),
        seconds,
        Some(&registry),
    )?;
    let ended = Instant::now();
    server.shutdown();
    tally.serve(&fx, &runs);
    let timed = timed_from_requests(n, &runs, wall_s);

    let mut tracer = Tracer::new(origin);
    let run_span = tracer.record("run", origin, ended, None, 0);
    let mut per_round = Vec::new();
    for round in runs.iter().flat_map(|c| c.chunks(n)) {
        let mut layers = Metrics::per_layer();
        for run in round {
            run.record_spans(&mut tracer, run_span);
            run.add_layers(&mut layers);
            if let Some(stats) = &run.stats {
                library::add_run_stats(&mut layers, stats, state_budget(w, sizing));
            }
        }
        per_round.push(layers);
    }
    let mut layers = Metrics::median_of(&per_round);
    // The wire's share of the wait for a first estimate: the same
    // queries on the same tables through the library, two passes.
    let resident = engine_config(Workload::Resident, sizing, opts.seed, ObsLevel::Off);
    let direct: Vec<_> = (0..2)
        .map(|_| library::run_pass(&fx, &resident, false))
        .collect();
    for pass in &direct {
        tally.library(&fx, pass);
    }
    let direct = timed_from_passes(n, &direct);
    layers.set(
        "serve.wire_gap_s",
        timed.sum(|s| &s.first) - direct.sum(|s| &s.first),
    );
    traced_outcome(w, &fx, opts, work, &tracer, layers, &plain, &timed, &tally)
}

/// Run `w` once. `started` is when its set-up clock began: process start
/// for the driver's one-workload runs.
pub fn run_workload(
    w: Workload,
    traced: bool,
    opts: &RunOpts,
    work: &WorkDir,
    started: Instant,
) -> Result<Outcome> {
    match w {
        Workload::Serve => run_serve(traced, opts, work, started),
        _ => run_library(w, traced, opts, work, started),
    }
}
