//! Shared measurement utilities for the figure harnesses.

use std::sync::Arc;
use std::time::Duration;
use wake_core::graph::QueryGraph;
use wake_core::metrics::{self, ErrorReport};
use wake_data::DataFrame;
use wake_engine::{EngineConfig, EstimateSeries, RunStats, SeriesExt};
use wake_tpch::{QuerySpec, TpchData, TpchDb};

/// Scale factor for the harnesses (`WAKE_SF`, default 0.01 ≈ 60 k lineitem
/// rows — the paper used SF 100 on a 16-vCPU server; shapes, not absolute
/// numbers, are the reproduction target).
pub fn scale_factor() -> f64 {
    std::env::var("WAKE_SF")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.01)
}

/// Partitions the fact table spans (`WAKE_PARTS`, default 24 — the stand-in
/// for the paper's 512 MB chunking of 100 GB).
pub fn partitions() -> usize {
    std::env::var("WAKE_PARTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// Generate the shared dataset once per process.
pub fn dataset() -> Arc<TpchData> {
    Arc::new(TpchData::generate(scale_factor(), 42))
}

/// One timed Wake run of a TPC-H query.
pub struct WakeRun {
    pub series: EstimateSeries,
    pub stats: RunStats,
}

impl WakeRun {
    pub fn first_latency(&self) -> Duration {
        self.series.first_latency().unwrap_or_default()
    }

    pub fn final_latency(&self) -> Duration {
        self.series.final_latency().unwrap_or_default()
    }

    pub fn final_frame(&self) -> &Arc<DataFrame> {
        self.series.final_frame()
    }
}

/// Run a query graph under Wake's stepped driver (OLA, many partitions).
pub fn run_wake(g: QueryGraph) -> WakeRun {
    let (series, stats) = EngineConfig::stepped()
        .start(g)
        .expect("graph builds")
        .collect_with_stats()
        .expect("query runs");
    WakeRun { series, stats }
}

/// Run a query as a conventional exact engine would: one partition per
/// table, a single all-at-once pass, no online estimates (the Fig 7
/// baseline; see DESIGN.md substitutions).
pub fn run_exact(data: &Arc<TpchData>, spec: &QuerySpec) -> WakeRun {
    run_wake((spec.build)(&TpchDb::new(data.clone(), 1)))
}

/// Per-estimate error trajectory against the exact final frame.
pub fn error_series(run: &WakeRun, spec: &QuerySpec) -> Vec<(f64, Duration, ErrorReport)> {
    let truth = run.final_frame().clone();
    run.series
        .iter()
        .map(|est| {
            let report = metrics::compare(&est.frame, &truth, spec.keys, spec.values).unwrap_or(
                ErrorReport {
                    mape: f64::NAN,
                    recall: 0.0,
                    precision: 0.0,
                    cells: 0,
                },
            );
            (est.t, est.elapsed, report)
        })
        .collect()
}

/// Time (since query start) at which MAPE first drops below `pct` percent
/// **and stays there**; `None` if it never does before the final state.
pub fn time_to_error_below(errors: &[(f64, Duration, ErrorReport)], pct: f64) -> Option<Duration> {
    let mut candidate: Option<Duration> = None;
    for (_, elapsed, report) in errors {
        if report.mape <= pct && report.recall > 0.0 {
            if candidate.is_none() {
                candidate = Some(*elapsed);
            }
        } else {
            candidate = None;
        }
    }
    candidate
}

/// Format a duration in adaptive units (the paper's axes span ms..1000 s).
pub fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 1e-3 {
        format!("{:.0}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Format bytes in MiB.
pub fn fmt_bytes(b: usize) -> String {
    format!("{:.1}MiB", b as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wake_core::metrics::ErrorReport;

    #[test]
    fn env_defaults() {
        assert!(scale_factor() > 0.0);
        assert!(partitions() >= 1);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_micros(50)), "50us");
        assert_eq!(fmt_dur(Duration::from_millis(250)), "250.0ms");
        assert_eq!(fmt_dur(Duration::from_secs(3)), "3.00s");
        assert!(fmt_bytes(2 * 1024 * 1024).starts_with("2.0"));
    }

    #[test]
    fn time_to_error_requires_stability() {
        let ok = ErrorReport {
            mape: 0.5,
            recall: 1.0,
            precision: 1.0,
            cells: 1,
        };
        let bad = ErrorReport {
            mape: 5.0,
            recall: 1.0,
            precision: 1.0,
            cells: 1,
        };
        let errs = vec![
            (0.2, Duration::from_millis(1), ok),
            (0.5, Duration::from_millis(2), bad),
            (0.8, Duration::from_millis(3), ok),
            (1.0, Duration::from_millis(4), ok),
        ];
        // The early dip doesn't count: error went back up.
        assert_eq!(
            time_to_error_below(&errs, 1.0),
            Some(Duration::from_millis(3))
        );
        assert_eq!(time_to_error_below(&errs, 0.1), None);
    }

    #[test]
    fn smoke_run_q6() {
        let data = Arc::new(TpchData::generate(0.001, 1));
        let db = TpchDb::new(data.clone(), 4);
        let spec = wake_tpch::query_by_name("q6").unwrap();
        let run = run_wake((spec.build)(&db));
        assert!(run.series.len() >= 2);
        let errors = error_series(&run, &spec);
        assert_eq!(errors.last().unwrap().2.mape, 0.0);
        let exact = run_exact(&data, &spec);
        assert_eq!(exact.series.len(), 1);
    }
}
