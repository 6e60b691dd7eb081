//! The streaming-first execution surface: [`EstimateStream`] and OLA
//! stopping conditions.
//!
//! Wake's value proposition (§3.1) is that a query yields a *stream* of
//! converging estimates the analyst can watch and stop early. This module
//! is that surface: both drivers stream through one lazy type, and
//! [`crate::EngineConfig::start`] is the one way to get one,
//!
//! ```no_run
//! use wake_engine::EngineConfig;
//! # fn demo(graph: wake_core::graph::QueryGraph) -> wake_engine::Result<()> {
//! let mut stream = EngineConfig::stepped().start(graph)?;
//! for estimate in &mut stream {
//!     let estimate = estimate?;
//!     println!("t = {:.0}%  rows = {}", estimate.t * 100.0, estimate.frame.num_rows());
//!     if estimate.t > 0.5 {
//!         break; // dropping the stream cancels the query
//!     }
//! }
//! let stats = stream.finish(); // cancel + final statistics
//! # let _ = stats; Ok(())
//! # }
//! ```
//!
//! the batch forms are drains of it ([`EstimateStream::collect_series`],
//! [`EstimateStream::collect_with_stats`], [`EstimateStream::final_frame`]),
//! and the paper's "stop when the estimate is good enough" loop is a
//! combinator away: [`EstimateStream::until_confidence`] ends the stream
//! once every row's Chebyshev interval is tighter than a target relative
//! half-width, [`EstimateStream::until_rows_processed`] after a base-table
//! row budget. Both cancel the underlying query the moment the condition
//! fires.

use crate::estimate::{Estimate, EstimateSeries, SinkState};
use crate::query::QueryLedger;
use crate::Result;
use std::path::PathBuf;
use std::sync::Arc;
use wake_data::{DataError, DataFrame};
use wake_obs::RunStats;

/// Default confidence level for [`EstimateStream::until_confidence`]
/// (the paper's §6 examples use 95 %: Chebyshev `k ≈ 4.5`).
pub const DEFAULT_CONFIDENCE: f64 = 0.95;

/// What differs between the two engines: how the actors of
/// [`crate::query`] get to run.
pub(crate) trait Driver: Send {
    /// Make progress: push zero or more sink updates into `sink`, or call
    /// [`SinkState::end`] once no further update can arrive.
    fn advance(&mut self, sink: &mut SinkState) -> Result<()>;

    /// Stop running (idempotent). After a *deliberate* stop every actor
    /// exits with `Ok`, so an `Err` is a genuine query failure.
    fn shutdown(&mut self) -> Result<()> {
        Ok(())
    }
}

/// A lazy, cancellable stream of converging estimates — the unified
/// execution surface over both engines.
///
/// - **Lazy**: the stepped engine performs one driver step per poll; the
///   threaded engine yields sink updates as the pipeline produces them.
/// - **Cancellable**: dropping the stream stops the query. For the
///   threaded engine that signals every node thread, wakes blocked
///   channel operations, joins all threads and removes per-query spill
///   temp directories before `drop` returns.
/// - **Accountable**: [`EstimateStream::stats`] reads the run statistics
///   (peak operator state, spill telemetry) at any point — mid-flight,
///   exhausted, or after [`EstimateStream::finish`].
pub struct EstimateStream {
    pub(crate) ledger: Arc<QueryLedger>,
    pub(crate) sink: SinkState,
    pub(crate) driver: Box<dyn Driver>,
}

impl EstimateStream {
    /// Execution statistics so far (complete once the stream ended).
    pub fn stats(&self) -> RunStats {
        self.ledger.snapshot()
    }

    /// The directory spill files are written to, when a memory budget is
    /// in force (`None` when the query runs unbounded). Per-query temp
    /// directories are removed when the stream ends or is dropped.
    pub fn spill_dir(&self) -> Option<PathBuf> {
        self.ledger.spill_dir()
    }

    /// [`Self::stats`] when it carries per-node profiles (rows/frames in
    /// and out, busy time, state peaks, attributed spill and scan work) —
    /// readable at any point in the stream's life: mid-flight, exhausted,
    /// after cancellation, or after an error. `None` when the query runs
    /// at [`wake_obs::ObsLevel::Off`].
    pub fn profile(&self) -> Option<RunStats> {
        profiled(self.stats())
    }

    /// EXPLAIN ANALYZE: what the whole query cost, then the plan tree
    /// annotated with observed per-node rows, time, state, spill, and
    /// scan work ([`RunStats::render`]). With observability off, returns
    /// a note explaining how to enable it.
    pub fn explain_analyze(&self) -> String {
        render_profile(self.profile())
    }

    /// Stop the query now (if still running) and return the final run
    /// statistics. Equivalent to dropping the stream, but keeps the
    /// telemetry. Any error a node thread hit before the stop is
    /// discarded here — poll the stream to exhaustion (or use
    /// [`StopStream`], which re-surfaces it) when failure reporting
    /// matters.
    pub fn finish(mut self) -> RunStats {
        // Stop the driver before reading the ledger so the stats are
        // final, not a mid-flight snapshot.
        let _ = self.driver.shutdown();
        self.ledger.snapshot()
    }

    /// Drain the stream into a materialised [`EstimateSeries`].
    pub fn collect_series(self) -> Result<EstimateSeries> {
        Ok(self.collect_with_stats()?.0)
    }

    /// Drain the stream, returning the series and the run statistics.
    pub fn collect_with_stats(mut self) -> Result<(EstimateSeries, RunStats)> {
        let mut estimates = Vec::new();
        for est in &mut self {
            estimates.push(est?);
        }
        Ok((estimates, self.stats()))
    }

    /// Run to completion and return only the exact final frame.
    pub fn final_frame(self) -> Result<Arc<DataFrame>> {
        let series = self.collect_series()?;
        series
            .last()
            .map(|e| e.frame.clone())
            .ok_or_else(|| DataError::Invalid("query produced no output".into()))
    }

    /// OLA stopping condition (§3.1): end the stream — cancelling the
    /// query — once every row's 95 % Chebyshev interval for aggregate
    /// `column` is tighter than `rel_half_width` relative to its point
    /// estimate (e.g. `0.01` = ±1 %). The triggering estimate is still
    /// yielded, flagged via [`StopStream::stopped_early`]; if the query
    /// completes first, the exact final estimate ends the stream as
    /// usual. Requires a CI-enabled aggregation (`agg_with_ci`) so the
    /// frame carries `{column}__var`; polling a stream without it yields
    /// a typed error.
    pub fn until_confidence(self, column: impl Into<String>, rel_half_width: f64) -> StopStream {
        self.until_confidence_at(column, rel_half_width, DEFAULT_CONFIDENCE)
    }

    /// [`Self::until_confidence`] at an explicit confidence level.
    pub fn until_confidence_at(
        self,
        column: impl Into<String>,
        rel_half_width: f64,
        confidence: f64,
    ) -> StopStream {
        StopStream::new(
            self,
            StopCondition::Confidence {
                column: column.into(),
                rel_half_width,
                confidence,
            },
        )
    }

    /// OLA stopping condition: end the stream — cancelling the query —
    /// once at least `rows` base-table rows have been processed (summed
    /// across all sources; [`Estimate::rows_processed`]).
    pub fn until_rows_processed(self, rows: u64) -> StopStream {
        StopStream::new(self, StopCondition::Rows(rows))
    }

    /// OLA stopping condition: end the stream — cancelling the query —
    /// at the first estimate observed on or after `deadline` from now.
    /// The triggering estimate is still yielded (it is the best answer
    /// available at the deadline), then the query is cancelled; if the
    /// query completes sooner, the exact final estimate ends the stream
    /// as usual. The wake-serve server wraps every request in this as
    /// its default per-request timeout.
    ///
    /// The check runs when an estimate arrives, so on the threaded
    /// engine a deadline that expires *between* estimates fires at the
    /// next one — estimates flow continuously, making the overshoot one
    /// inter-estimate gap at most.
    pub fn until_deadline(self, deadline: std::time::Duration) -> StopStream {
        StopStream::new(
            self,
            StopCondition::Deadline(std::time::Instant::now() + deadline),
        )
    }

    /// A clonable, thread-safe handle that cancels this query from
    /// another thread. Setting it makes the next poll return `None` (on
    /// the threaded engine the node threads observe the same flag and
    /// the pipeline winds down). The serving layer uses this to cancel a
    /// running query when its client disconnects.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.ledger.cancel.clone()
    }
}

/// The view behind both streams' `profile()`: the record, if observability is on.
fn profiled(stats: RunStats) -> Option<RunStats> {
    stats.level.enabled().then_some(stats)
}

fn render_profile(profile: Option<RunStats>) -> String {
    match profile {
        Some(p) => p.render(),
        None => String::from(
            "observability is off: enable with EngineConfig::with_obs(ObsLevel::Stats) \
             or WAKE_OBS=stats\n",
        ),
    }
}

/// A thread-safe cancellation handle for a running query; see
/// [`EstimateStream::cancel_handle`]. Cheap to clone; outliving the
/// stream is fine (cancelling a finished query is a no-op).
#[derive(Clone, Default)]
pub struct CancelHandle {
    flag: Arc<std::sync::atomic::AtomicBool>,
}

impl CancelHandle {
    /// Request cancellation. Idempotent. Release pairs with the Acquire
    /// load in [`Self::is_cancelled`]: work done before the request is
    /// visible to the threads that observe it.
    pub fn cancel(&self) {
        self.flag.store(true, std::sync::atomic::Ordering::Release);
    }

    /// True once cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(std::sync::atomic::Ordering::Acquire)
    }
}

impl Iterator for EstimateStream {
    type Item = Result<Estimate>;

    fn next(&mut self) -> Option<Result<Estimate>> {
        if !self.sink.ended() && self.ledger.cancel.is_cancelled() {
            self.sink.fuse();
        }
        loop {
            // Everything but the newest estimate may go out; the newest
            // is held back until the driver reports the end of input.
            if let Some(est) = self.sink.pop() {
                return Some(Ok(est));
            }
            if self.sink.ended() {
                return None;
            }
            if let Err(e) = self.driver.advance(&mut self.sink) {
                self.sink.fuse();
                let _ = self.driver.shutdown();
                return Some(Err(e));
            }
        }
    }
}

/// What ends a [`StopStream`] besides query completion.
enum StopCondition {
    Confidence {
        column: String,
        rel_half_width: f64,
        confidence: f64,
    },
    Rows(u64),
    Deadline(std::time::Instant),
}

impl StopCondition {
    fn satisfied(&self, est: &Estimate) -> Result<bool> {
        match self {
            StopCondition::Confidence {
                column,
                rel_half_width,
                confidence,
            } => Ok(est.max_rel_half_width(column, *confidence)? <= *rel_half_width),
            StopCondition::Rows(rows) => Ok(est.rows_processed >= *rows),
            StopCondition::Deadline(deadline) => Ok(std::time::Instant::now() >= *deadline),
        }
    }
}

/// An [`EstimateStream`] with an early-stopping condition attached. Yields
/// estimates until the condition fires (that estimate is still yielded,
/// then the underlying query is cancelled immediately) or the query
/// completes. Statistics remain readable after the stop. If the pipeline
/// shutdown surfaces a genuine node failure (an operator error or panic
/// that raced the stop — never mere cancellation noise), the error is
/// yielded after the triggering estimate instead of being swallowed.
pub struct StopStream {
    inner: Option<EstimateStream>,
    /// The query's ledger, which outlives `inner`: statistics and profile
    /// are read from it before and after the stop alike.
    ledger: Arc<QueryLedger>,
    cond: StopCondition,
    /// A node failure observed while stopping, to surface on next poll.
    pending_err: Option<wake_data::DataError>,
    stopped_early: bool,
}

impl StopStream {
    fn new(stream: EstimateStream, cond: StopCondition) -> Self {
        StopStream {
            ledger: stream.ledger.clone(),
            inner: Some(stream),
            cond,
            pending_err: None,
            stopped_early: false,
        }
    }

    /// True once the condition ended the stream before query completion.
    pub fn stopped_early(&self) -> bool {
        self.stopped_early
    }

    /// Run statistics (live while streaming; final after the stop).
    pub fn stats(&self) -> RunStats {
        self.ledger.snapshot()
    }

    /// [`RunStats::degraded`] alone — the spill device's poison flag,
    /// without snapshotting the per-node profiles [`Self::stats`] builds.
    pub fn degraded(&self) -> bool {
        self.ledger.degraded()
    }

    /// [`Self::stats`] when it carries per-node profiles; `None` at
    /// [`wake_obs::ObsLevel::Off`].
    pub fn profile(&self) -> Option<RunStats> {
        profiled(self.stats())
    }

    /// EXPLAIN ANALYZE over the stopped (or still-running) query; see
    /// [`EstimateStream::explain_analyze`].
    pub fn explain_analyze(&self) -> String {
        render_profile(self.profile())
    }

    /// Stop the query now (if still running), keeping final statistics
    /// and profile readable. The stream is fused afterwards, except that
    /// a genuine node failure observed during shutdown is yielded on the
    /// next poll rather than swallowed. Idempotent. The serving layer
    /// calls this when a client disconnects mid-stream. Threads are
    /// joined and spill files removed here; the ledger — and with it a
    /// [`wake_store::GlobalGovernor`] lease — goes when `self` is dropped.
    pub fn stop(&mut self) {
        if let Some(mut stream) = self.inner.take() {
            self.pending_err = stream.driver.shutdown().err();
        }
    }

    /// Thread-safe cancellation handle for the underlying query; `None`
    /// once the stream has stopped. See [`EstimateStream::cancel_handle`].
    pub fn cancel_handle(&self) -> Option<CancelHandle> {
        self.inner.as_ref().map(|s| s.cancel_handle())
    }
}

impl Iterator for StopStream {
    type Item = Result<Estimate>;

    fn next(&mut self) -> Option<Result<Estimate>> {
        if let Some(e) = self.pending_err.take() {
            return Some(Err(e));
        }
        // `inner` is gone once the stream has stopped: fused.
        match self.inner.as_mut()?.next() {
            None => {
                self.stop();
                self.pending_err.take().map(Err)
            }
            Some(Err(e)) => {
                self.stop();
                Some(Err(e))
            }
            Some(Ok(est)) => {
                let hit = match self.cond.satisfied(&est) {
                    Ok(hit) => hit,
                    Err(e) => {
                        self.stop();
                        return Some(Err(e));
                    }
                };
                if est.is_final {
                    self.stop();
                } else if hit {
                    self.stopped_early = true;
                    self.stop();
                }
                Some(Ok(est))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EngineConfig, ExecutorKind};
    use wake_core::agg::AggSpec;
    use wake_core::graph::QueryGraph;
    use wake_data::{Column, DataType, Field, MemorySource, Schema};
    use wake_expr::col;

    fn graph(n: i64, per_part: usize, ci: bool) -> QueryGraph {
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
        let spec = vec![AggSpec::sum(col("v"), "s")];
        let a = if ci {
            g.agg_with_ci(r, vec!["k"], spec)
        } else {
            g.agg(r, vec!["k"], spec)
        };
        g.sink(a);
        g
    }

    #[test]
    fn drains_agree_with_each_other() {
        let start = || EngineConfig::stepped().start(graph(60, 6, false)).unwrap();
        let series = start().collect_series().unwrap();
        let (with_stats, _) = start().collect_with_stats().unwrap();
        assert_eq!(series.len(), with_stats.len());
        for (a, b) in series.iter().zip(&with_stats) {
            assert_eq!(a.frame.as_ref(), b.frame.as_ref());
        }
        let last = &series.last().unwrap().frame;
        assert_eq!(start().final_frame().unwrap().as_ref(), last.as_ref());
    }

    #[test]
    fn until_rows_processed_stops_early_and_cancels() {
        for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
            let stream = EngineConfig::new()
                .with_executor(kind)
                .start(graph(1000, 10, false))
                .unwrap();
            let mut stop = stream.until_rows_processed(300);
            let mut last = None;
            for est in &mut stop {
                last = Some(est.unwrap());
            }
            let last = last.expect("at least one estimate");
            assert!(
                last.rows_processed >= 300,
                "{kind:?}: stopped at {} rows",
                last.rows_processed
            );
            assert!(stop.stopped_early(), "{kind:?}");
            assert!(!last.is_final, "{kind:?}: stopped before completion");
            assert!(stop.next().is_none(), "stopped stream must fuse");
        }
    }

    #[test]
    fn until_rows_runs_to_completion_when_budget_not_reached() {
        let stream = EngineConfig::new().start(graph(100, 10, false)).unwrap();
        let mut stop = stream.until_rows_processed(1_000_000);
        let series: Result<Vec<_>> = (&mut stop).collect();
        let series = series.unwrap();
        assert!(series.last().unwrap().is_final);
        assert!(!stop.stopped_early());
    }

    #[test]
    fn until_deadline_stops_at_the_next_estimate() {
        for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
            let stream = EngineConfig::new()
                .with_executor(kind)
                .start(graph(2000, 5, false))
                .unwrap();
            // An already-expired deadline: the very first estimate is the
            // triggering one, yielded then the query cancels.
            let mut stop = stream.until_deadline(std::time::Duration::ZERO);
            let first = stop.next().expect("triggering estimate").unwrap();
            assert!(!first.is_final, "{kind:?}: stopped at the first estimate");
            assert!(stop.stopped_early(), "{kind:?}");
            assert!(stop.next().is_none(), "{kind:?}: deadline stream fuses");
        }
    }

    #[test]
    fn until_deadline_completes_when_generous() {
        let stream = EngineConfig::new().start(graph(100, 10, false)).unwrap();
        let mut stop = stream.until_deadline(std::time::Duration::from_secs(3600));
        let series: Result<Vec<_>> = (&mut stop).collect();
        assert!(series.unwrap().last().unwrap().is_final);
        assert!(!stop.stopped_early());
    }

    #[test]
    fn cancel_handle_ends_both_engines() {
        for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
            let mut stream = EngineConfig::new()
                .with_executor(kind)
                .start(graph(2000, 5, false))
                .unwrap();
            let first = stream.next().expect("one estimate").unwrap();
            assert!(!first.is_final);
            let handle = stream.cancel_handle();
            assert!(!handle.is_cancelled());
            handle.cancel();
            assert!(handle.is_cancelled());
            // The stream winds down instead of hanging. The stepped
            // engine stops on the very next poll; the threaded one may
            // still drain estimates already queued in the sink channel
            // (possibly the final, if the pipeline outran the cancel),
            // but must terminate.
            let rest: Vec<_> = stream.by_ref().collect();
            if kind == ExecutorKind::Stepped {
                assert!(rest.is_empty(), "stepped cancel fuses on the next poll");
            }
            // Stats stay readable after the cancel.
            let _ = stream.finish();
        }
    }

    #[test]
    fn stop_stream_public_stop_keeps_stats_readable() {
        let mut stop = EngineConfig::new()
            .start(graph(1000, 10, false))
            .unwrap()
            .until_rows_processed(u64::MAX);
        let _ = stop.next().unwrap().unwrap();
        assert!(stop.cancel_handle().is_some());
        stop.stop();
        stop.stop(); // idempotent
        assert!(stop.cancel_handle().is_none());
        let _ = stop.stats();
        assert!(stop.next().is_none());
    }

    #[test]
    fn until_confidence_needs_variance_column() {
        let stream = EngineConfig::new().start(graph(100, 10, false)).unwrap();
        let mut stop = stream.until_confidence("s", 0.5);
        let first = stop.next().unwrap();
        assert!(first.is_err(), "missing __var column must surface");
        assert!(stop.next().is_none());
    }

    #[test]
    fn until_confidence_stops_when_interval_tightens() {
        // A generous target (50 % relative half-width at 75 % confidence)
        // is reached well before EOF on a uniform aggregate.
        let stream = EngineConfig::new().start(graph(4000, 25, true)).unwrap();
        let mut stop = stream.until_confidence_at("s", 0.5, 0.75);
        let mut last = None;
        for est in &mut stop {
            last = Some(est.unwrap());
        }
        let last = last.unwrap();
        assert!(
            stop.stopped_early(),
            "expected early stop, got t={}",
            last.t
        );
        assert!(last.max_rel_half_width("s", 0.75).unwrap() <= 0.5);
        assert!(!last.is_final);
    }
}
