//! Estimates collected at the query sink.

use crate::query::QueryLedger;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;
use wake_core::ci::variance_column;
use wake_data::{DataError, DataFrame};
use wake_stats::{chebyshev_k, ConfidenceInterval};

/// One OLA output: the sink's *materialised current state* at some point in
/// the query, with the progress and wall-clock time at which it was
/// produced. For delta-mode sinks the engine accumulates deltas so `frame`
/// is always the full current result.
#[derive(Debug, Clone)]
pub struct Estimate {
    pub frame: Arc<DataFrame>,
    /// Progress `t` of the underlying inputs when this state was published.
    pub t: f64,
    /// Base-table rows processed across all sources when this state was
    /// published (the numerator of `t`).
    pub rows_processed: u64,
    /// Wall-clock time since query start.
    pub elapsed: Duration,
    /// Cumulative bytes written to spill files when this state was
    /// published (0 when observability is off or nothing spilled). With
    /// `elapsed` and `rows_processed`, lets a dashboard plot the cost of
    /// convergence live.
    pub spill_bytes: u64,
    /// Cumulative decompressed bytes scanned from segment sources when
    /// this state was published (0 when observability is off or no
    /// source tracks scan work).
    pub scan_bytes: u64,
    /// 0-based position in the estimate stream.
    pub seq: usize,
    /// True for the last state (the exact answer).
    pub is_final: bool,
}

impl Estimate {
    /// Chebyshev confidence interval for aggregate `column` at `row`
    /// (requires the aggregation to have been built with CI enabled, so
    /// the frame carries a `{column}__var` companion; §6).
    pub fn interval_at(
        &self,
        row: usize,
        column: &str,
        confidence: f64,
    ) -> crate::Result<ConfidenceInterval> {
        wake_core::ci::interval_at(&self.frame, row, column, confidence)
    }

    /// The worst (largest) *relative half-width* of `column`'s Chebyshev
    /// interval across all rows of this estimate: `max_i k·σ_i / |est_i|`.
    /// This is the quantity the `until_confidence` stopping condition
    /// ([`crate::EstimateStream`]) drives to a target.
    ///
    /// Strictly conservative: `f64::INFINITY` — never converged — while
    /// the estimate has no rows, and for any row that cannot be
    /// *certified* tight: a null or non-finite value or variance, or a
    /// zero point estimate. A zero (or null) with zero variance is
    /// indistinguishable from "no data observed yet" — the degenerate
    /// snapshot an aggregation emits before its inputs arrive — so it
    /// must not read as converged; a genuinely zero/null final answer
    /// still terminates the stream via [`Estimate::is_final`].
    ///
    /// A `confidence` outside `[0, 1)` (or NaN) is a typed error, whatever
    /// the estimate holds.
    pub fn max_rel_half_width(&self, column: &str, confidence: f64) -> crate::Result<f64> {
        if !(0.0..1.0).contains(&confidence) {
            return Err(DataError::Invalid(format!(
                "confidence must be in [0, 1), got {confidence}"
            )));
        }
        let vals = self.frame.column(column)?;
        let vars = self.frame.column(&variance_column(column)).map_err(|_| {
            DataError::Invalid(format!(
                "column {column} carries no {} companion — build the aggregation \
                 with CI enabled (agg_with_ci / Edf::agg_ci)",
                variance_column(column)
            ))
        })?;
        if self.frame.num_rows() == 0 {
            return Ok(f64::INFINITY);
        }
        let k = chebyshev_k(confidence);
        let mut worst = 0.0f64;
        for i in 0..self.frame.num_rows() {
            let (Some(v), Some(var)) = (vals.f64_at(i), vars.f64_at(i)) else {
                return Ok(f64::INFINITY); // null value or variance: no data
            };
            if !v.is_finite() || !var.is_finite() || v == 0.0 {
                return Ok(f64::INFINITY); // cannot certify this row
            }
            worst = worst.max(k * var.max(0.0).sqrt() / v.abs());
        }
        Ok(worst)
    }
}

/// The full estimate stream of one query run.
pub type EstimateSeries = Vec<Estimate>;

/// The sink side of a query, shared by both drivers: turns sink updates
/// into [`Estimate`]s (accumulating delta-mode frames), numbers them, and
/// decides finality. While the query runs the newest estimate is **held
/// back** — it is the candidate final — and handed out only once a newer
/// one arrives or the driver reports the end of input, when it is flagged
/// [`Estimate::is_final`]. A pipeline that ends without ever publishing a
/// state (degenerate graph) answers with the empty frame. One place, so
/// the drivers cannot diverge in estimate semantics.
pub(crate) struct SinkState {
    kind: wake_core::update::UpdateKind,
    schema: Arc<wake_data::Schema>,
    buffer: wake_core::ops::RowStore,
    seq: usize,
    start: std::time::Instant,
    /// Read to stamp cumulative spill/scan bytes onto each estimate. Only
    /// attached when observability is enabled, so the `Off` path publishes
    /// estimates without touching a single extra atomic.
    telemetry: Option<Arc<QueryLedger>>,
    /// Materialised but not yet handed out; the back is the candidate
    /// final.
    held: VecDeque<Estimate>,
    /// No further update will arrive.
    ended: bool,
}

impl SinkState {
    pub(crate) fn new(
        kind: wake_core::update::UpdateKind,
        schema: Arc<wake_data::Schema>,
        start: std::time::Instant,
        telemetry: Option<Arc<QueryLedger>>,
    ) -> Self {
        SinkState {
            kind,
            schema,
            buffer: wake_core::ops::RowStore::new(),
            seq: 0,
            start,
            telemetry,
            held: VecDeque::new(),
            ended: false,
        }
    }

    fn estimate(&mut self, frame: Arc<DataFrame>, t: f64, rows_processed: u64) -> Estimate {
        let est = Estimate {
            frame,
            t,
            rows_processed,
            elapsed: self.start.elapsed(),
            spill_bytes: self.telemetry.as_ref().map_or(0, |l| l.spilled_bytes()),
            scan_bytes: self
                .telemetry
                .as_ref()
                .map_or(0, |l| l.scan().decompressed_bytes),
            seq: self.seq,
            is_final: false,
        };
        self.seq += 1;
        est
    }

    /// Materialise one sink update as the next (held-back) estimate.
    pub(crate) fn push(&mut self, update: &wake_core::update::Update) -> crate::Result<()> {
        let frame: Arc<DataFrame> = match self.kind {
            wake_core::update::UpdateKind::Snapshot => update.frame.clone(),
            wake_core::update::UpdateKind::Delta => {
                // Materialise the accumulated state for the user.
                self.buffer.push(update.frame.clone());
                Arc::new(self.buffer.concat(&self.schema)?)
            }
        };
        let rows = update.progress.sources().iter().map(|s| s.processed).sum();
        let est = self.estimate(frame, update.t(), rows);
        self.held.push_back(est);
        Ok(())
    }

    /// The input is exhausted: the newest estimate is the exact answer —
    /// or, when nothing was ever published, the empty frame at full
    /// progress is.
    pub(crate) fn end(&mut self) {
        if self.seq == 0 {
            let empty = Arc::new(DataFrame::empty(self.schema.clone()));
            let est = self.estimate(empty, 1.0, 0);
            self.held.push_back(est);
        }
        if let Some(last) = self.held.back_mut() {
            last.is_final = true;
        }
        self.ended = true;
    }

    /// End the stream without an answer (cancellation or failure): held
    /// estimates are discarded, none is flagged final.
    pub(crate) fn fuse(&mut self) {
        self.held.clear();
        self.ended = true;
    }

    pub(crate) fn ended(&self) -> bool {
        self.ended
    }

    /// The next estimate that may be handed out: everything but the
    /// candidate final while the query runs, everything once it ended.
    pub(crate) fn pop(&mut self) -> Option<Estimate> {
        if self.ended || self.held.len() >= 2 {
            self.held.pop_front()
        } else {
            None
        }
    }
}

/// Convenience accessors over an estimate stream.
pub trait SeriesExt {
    /// The exact final frame (panics on an empty series).
    fn final_frame(&self) -> &Arc<DataFrame>;
    /// Time to first estimate.
    fn first_latency(&self) -> Option<Duration>;
    /// Time to final (exact) result.
    fn final_latency(&self) -> Option<Duration>;
}

impl SeriesExt for EstimateSeries {
    fn final_frame(&self) -> &Arc<DataFrame> {
        &self.last().expect("empty estimate series").frame
    }

    fn first_latency(&self) -> Option<Duration> {
        self.first().map(|e| e.elapsed)
    }

    fn final_latency(&self) -> Option<Duration> {
        self.last().map(|e| e.elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wake_data::{Column, DataType, Field, Schema};

    #[test]
    fn series_accessors() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let frame = Arc::new(DataFrame::new(schema, vec![Column::from_i64(vec![1])]).unwrap());
        let series: EstimateSeries = vec![
            Estimate {
                frame: frame.clone(),
                t: 0.5,
                rows_processed: 1,
                elapsed: Duration::from_millis(5),
                spill_bytes: 0,
                scan_bytes: 0,
                seq: 0,
                is_final: false,
            },
            Estimate {
                frame: frame.clone(),
                t: 1.0,
                rows_processed: 2,
                elapsed: Duration::from_millis(20),
                spill_bytes: 0,
                scan_bytes: 0,
                seq: 1,
                is_final: true,
            },
        ];
        assert_eq!(series.first_latency(), Some(Duration::from_millis(5)));
        assert_eq!(series.final_latency(), Some(Duration::from_millis(20)));
        assert!(Arc::ptr_eq(series.final_frame(), &frame));
    }

    fn ci_estimate(vals: Vec<f64>, vars: Vec<f64>) -> Estimate {
        let schema = Arc::new(Schema::new(vec![
            Field::mutable("s", DataType::Float64),
            Field::mutable("s__var", DataType::Float64),
        ]));
        let frame =
            DataFrame::new(schema, vec![Column::from_f64(vals), Column::from_f64(vars)]).unwrap();
        Estimate {
            frame: Arc::new(frame),
            t: 0.5,
            rows_processed: 10,
            elapsed: Duration::ZERO,
            spill_bytes: 0,
            scan_bytes: 0,
            seq: 0,
            is_final: false,
        }
    }

    #[test]
    fn rel_half_width_takes_worst_row() {
        // k = 2 at 75% confidence: half-widths 2·1=2 over |10| and
        // 2·2=4 over |8| -> worst 0.5.
        let est = ci_estimate(vec![10.0, -8.0], vec![1.0, 4.0]);
        let w = est.max_rel_half_width("s", 0.75).unwrap();
        assert!((w - 0.5).abs() < 1e-12, "{w}");
        // Exact rows (zero variance) are satisfied at any target.
        let exact = ci_estimate(vec![10.0], vec![0.0]);
        assert_eq!(exact.max_rel_half_width("s", 0.95).unwrap(), 0.0);
        // No variance column -> typed error.
        let schema = Arc::new(Schema::new(vec![Field::mutable("s", DataType::Float64)]));
        let frame = DataFrame::new(schema, vec![Column::from_f64(vec![1.0])]).unwrap();
        let est = Estimate {
            frame: Arc::new(frame),
            ..ci_estimate(vec![], vec![])
        };
        assert!(est.max_rel_half_width("s", 0.95).is_err());
    }

    #[test]
    fn rel_half_width_empty_frame_never_satisfies() {
        let est = ci_estimate(vec![], vec![]);
        assert_eq!(est.max_rel_half_width("s", 0.95).unwrap(), f64::INFINITY);
    }

    #[test]
    fn rel_half_width_uncertifiable_rows_never_satisfy() {
        // Zero point estimates, NaN values, and NaN variances are all
        // "no data / cannot certify" — none may read as converged, even
        // next to perfectly tight rows.
        for (vals, vars) in [
            (vec![10.0, 0.0], vec![0.01, 0.0]),       // zero estimate
            (vec![10.0, f64::NAN], vec![0.01, 0.01]), // NaN estimate
            (vec![10.0, 5.0], vec![0.01, f64::NAN]),  // NaN variance
        ] {
            let est = ci_estimate(vals, vars);
            assert_eq!(est.max_rel_half_width("s", 0.95).unwrap(), f64::INFINITY);
        }
        // Null value or null variance rows likewise.
        let schema = Arc::new(Schema::new(vec![
            Field::mutable("s", DataType::Float64),
            Field::mutable("s__var", DataType::Float64),
        ]));
        let frame = DataFrame::from_rows(
            schema,
            &[
                vec![wake_data::Value::Float(10.0), wake_data::Value::Float(0.01)],
                vec![wake_data::Value::Null, wake_data::Value::Float(0.01)],
            ],
        )
        .unwrap();
        let est = Estimate {
            frame: Arc::new(frame),
            ..ci_estimate(vec![], vec![])
        };
        assert_eq!(est.max_rel_half_width("s", 0.95).unwrap(), f64::INFINITY);
    }
}
