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
//! and the paper's "stop when the estimate is good enough" loop is stream
//! state: [`EstimateStream::until_confidence`] ends the stream once every
//! row's Chebyshev interval is tighter than a target relative half-width,
//! [`EstimateStream::until_rows_processed`] after a base-table row budget,
//! [`EstimateStream::until_deadline`] at a wall-clock deadline. Each
//! returns the same stream, which stops the query the moment the
//! condition fires.

use crate::estimate::{Estimate, EstimateSeries, SinkState};
use crate::query::QueryLedger;
use crate::Result;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
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

/// A lazy, cancellable stream of converging estimates — the one handle on
/// a running query, whichever engine drives it.
///
/// - **Lazy**: the stepped engine performs one driver step per poll; the
///   threaded engine yields sink updates as the pipeline produces them.
/// - **Cancellable**: [`Self::stop`], or dropping the stream, stops the
///   query. For the threaded engine that signals every node thread, wakes
///   blocked channel operations, joins all threads and removes per-query
///   spill temp directories before the call returns.
/// - **Stoppable by condition**: `until_*` attach an OLA stopping
///   condition; the triggering estimate is yielded, then the query stops.
/// - **Accountable**: [`Self::stats`] reads the run statistics (peak
///   operator state, spill telemetry, per-node profiles when observability
///   is on) at any point — mid-flight, exhausted, stopped, or after an
///   error.
pub struct EstimateStream {
    ledger: Arc<QueryLedger>,
    sink: SinkState,
    /// `None` once [`Self::stop`] has shut the driver down and released
    /// the actors.
    driver: Option<Box<dyn Driver>>,
    /// What ends the stream besides query completion.
    cond: Option<StopCondition>,
    stopped_early: bool,
    /// A node failure observed while stopping, yielded on the next poll.
    pending_err: Option<DataError>,
}

impl EstimateStream {
    pub(crate) fn new(ledger: Arc<QueryLedger>, sink: SinkState, driver: Box<dyn Driver>) -> Self {
        EstimateStream {
            ledger,
            sink,
            driver: Some(driver),
            cond: None,
            stopped_early: false,
            pending_err: None,
        }
    }

    /// Execution statistics so far (complete once the stream ended). The
    /// per-node profiles in [`RunStats::nodes`] are empty when the query
    /// runs at [`wake_obs::ObsLevel::Off`].
    pub fn stats(&self) -> RunStats {
        self.ledger.snapshot()
    }

    /// [`RunStats::degraded`] alone — the spill device's poison flag,
    /// without snapshotting the per-node profiles [`Self::stats`] builds.
    pub fn degraded(&self) -> bool {
        self.ledger.degraded()
    }

    /// The directory spill files are written to, when a memory budget is
    /// in force (`None` when the query runs unbounded). Per-query temp
    /// directories are removed when the query stops or the stream is
    /// dropped.
    pub fn spill_dir(&self) -> Option<PathBuf> {
        self.ledger.spill_dir()
    }

    /// EXPLAIN ANALYZE: what the whole query cost, then the plan tree
    /// annotated with observed per-node rows, time, state, spill, and
    /// scan work ([`RunStats::render`]). With observability off, returns
    /// a note explaining how to enable it.
    pub fn explain_analyze(&self) -> String {
        let stats = self.stats();
        if stats.level.enabled() {
            stats.render()
        } else {
            String::from(
                "observability is off: enable with EngineConfig::with_obs(ObsLevel::Stats) \
                 or WAKE_OBS=stats\n",
            )
        }
    }

    /// Fig 13 (the paper's appendix C): the pipelined-execution timeline,
    /// `width` columns wide — a lane per plan node, a `#` wherever the
    /// node was busy ([`wake_obs::render_timeline`]). Busy spans are kept
    /// at [`wake_obs::ObsLevel::Profile`] only; below it, returns a note
    /// explaining how to enable them.
    pub fn timeline(&self, width: usize) -> String {
        self.ledger.timeline(width).unwrap_or_else(|| {
            String::from(
                "no timeline: busy spans are kept at ObsLevel::Profile; enable with \
                 EngineConfig::with_obs(ObsLevel::Profile) or WAKE_OBS=profile\n",
            )
        })
    }

    /// A clonable, thread-safe handle that cancels this query from
    /// another thread. Setting it makes the next poll return `None` (on
    /// the threaded engine the node threads observe the same flag and
    /// the pipeline winds down). The serving layer uses this to cancel a
    /// running query when its client disconnects.
    pub fn cancel_handle(&self) -> CancelHandle {
        self.ledger.cancel.clone()
    }

    /// True once a stopping condition ended the stream before query
    /// completion.
    pub fn stopped_early(&self) -> bool {
        self.stopped_early
    }

    /// Stop the query now (if still running), keeping the statistics
    /// readable. Threads are joined, shard workers and operator state
    /// released, and a per-query spill directory removed here; the
    /// ledger — and with it a [`wake_store::GlobalGovernor`] lease — goes
    /// when the stream is dropped. The stream is fused afterwards, except
    /// that a genuine node failure observed during shutdown is yielded on
    /// the next poll rather than swallowed. Idempotent.
    pub fn stop(&mut self) {
        self.sink.fuse();
        if let Some(mut driver) = self.driver.take() {
            self.pending_err = driver.shutdown().err();
        }
    }

    /// [`Self::stop`], then the final run statistics. Any error a node
    /// hit before the stop is discarded here — poll the stream to
    /// exhaustion when failure reporting matters.
    pub fn finish(mut self) -> RunStats {
        self.stop();
        self.stats()
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

    /// OLA stopping condition (§3.1): end the stream — stopping the
    /// query — once every row's 95 % Chebyshev interval for aggregate
    /// `column` is tighter than `rel_half_width` relative to its point
    /// estimate (e.g. `0.01` = ±1 %). The triggering estimate is still
    /// yielded, flagged via [`Self::stopped_early`]; if the query
    /// completes first, the exact final estimate ends the stream as
    /// usual. Requires a CI-enabled aggregation (`agg_with_ci`) so the
    /// frame carries `{column}__var`; polling a stream without it yields
    /// a typed error. Replaces any condition set before.
    pub fn until_confidence(self, column: impl Into<String>, rel_half_width: f64) -> Self {
        self.until_confidence_at(column, rel_half_width, DEFAULT_CONFIDENCE)
    }

    /// [`Self::until_confidence`] at an explicit confidence level.
    pub fn until_confidence_at(
        self,
        column: impl Into<String>,
        rel_half_width: f64,
        confidence: f64,
    ) -> Self {
        self.until(StopCondition::Confidence {
            column: column.into(),
            rel_half_width,
            confidence,
        })
    }

    /// OLA stopping condition: end the stream — stopping the query —
    /// once at least `rows` base-table rows have been processed (summed
    /// across all sources; [`Estimate::rows_processed`]).
    pub fn until_rows_processed(self, rows: u64) -> Self {
        self.until(StopCondition::Rows(rows))
    }

    /// OLA stopping condition: end the stream — stopping the query — at
    /// the first estimate observed on or after `deadline` from now. The
    /// triggering estimate is still yielded (it is the best answer
    /// available at the deadline); if the query completes sooner, the
    /// exact final estimate ends the stream as usual. The wake-serve
    /// server sets this on every request as its default per-request
    /// timeout.
    ///
    /// The check runs when an estimate arrives, so on the threaded
    /// engine a deadline that expires *between* estimates fires at the
    /// next one — estimates flow continuously, making the overshoot one
    /// inter-estimate gap at most.
    pub fn until_deadline(self, deadline: Duration) -> Self {
        self.until(StopCondition::Deadline(Instant::now() + deadline))
    }

    fn until(mut self, cond: StopCondition) -> Self {
        self.cond = Some(cond);
        self
    }

    /// The next estimate as the driver and the sink produce it, before
    /// any stopping condition is consulted.
    fn poll(&mut self) -> Option<Result<Estimate>> {
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
            // A stopped stream has a fused sink, so the driver is here.
            let driver = self.driver.as_mut()?;
            if let Err(e) = driver.advance(&mut self.sink) {
                self.sink.fuse();
                let _ = driver.shutdown();
                return Some(Err(e));
            }
        }
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

/// Without a condition the stream is the sink's sequence as is: the query
/// is not stopped at the final estimate (the driver winds down at
/// exhaustion or drop). With one, the stream stops the query as soon as
/// it has nothing more to yield — after the triggering estimate, the
/// final one, an error, or exhaustion — and surfaces a shutdown failure.
impl Iterator for EstimateStream {
    type Item = Result<Estimate>;

    fn next(&mut self) -> Option<Result<Estimate>> {
        if let Some(e) = self.pending_err.take() {
            return Some(Err(e));
        }
        let item = self.poll();
        let Some(cond) = &self.cond else {
            return item;
        };
        let stop_here = match &item {
            Some(Ok(est)) => match cond.satisfied(est) {
                Ok(hit) => {
                    self.stopped_early = hit && !est.is_final;
                    hit || est.is_final
                }
                Err(e) => {
                    self.stop();
                    return Some(Err(e));
                }
            },
            // An error, or the end of the stream.
            _ => true,
        };
        if stop_here {
            self.stop();
        }
        match item {
            None => self.pending_err.take().map(Err),
            item => item,
        }
    }
}

/// What ends an [`EstimateStream`] besides query completion.
enum StopCondition {
    Confidence {
        column: String,
        rel_half_width: f64,
        confidence: f64,
    },
    Rows(u64),
    Deadline(Instant),
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
            StopCondition::Deadline(deadline) => Ok(Instant::now() >= *deadline),
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
    fn public_stop_keeps_stats_readable() {
        for kind in [ExecutorKind::Stepped, ExecutorKind::Threaded] {
            let mut stop = EngineConfig::new()
                .with_executor(kind)
                .start(graph(1000, 10, false))
                .unwrap()
                .until_rows_processed(u64::MAX);
            let _ = stop.next().unwrap().unwrap();
            assert!(!stop.cancel_handle().is_cancelled());
            stop.stop();
            stop.stop(); // idempotent
            assert!(stop.stats().peak_state_bytes > 0, "{kind:?}");
            assert!(stop.next().is_none(), "{kind:?}");
            assert!(!stop.stopped_early(), "{kind:?}: stopped by hand");
        }
    }

    #[test]
    fn unconditioned_stream_keeps_its_driver_through_the_final_estimate() {
        // Without a condition the final estimate is yielded by a running
        // driver, and the stream ends the ordinary way; `finish` stops it.
        let mut stream = EngineConfig::stepped()
            .start(graph(100, 10, false))
            .unwrap();
        let series: Result<Vec<_>> = (&mut stream).collect();
        assert!(series.unwrap().last().unwrap().is_final);
        assert!(stream.driver.is_some());
        assert!(stream.next().is_none());
        assert!(!stream.stopped_early());
        assert!(stream.finish().peak_state_bytes > 0);
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
