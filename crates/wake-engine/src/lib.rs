//! # wake-engine
//!
//! The execution engine for Wake query graphs (§7.2 "Execution Engine"),
//! behind a **streaming-first** surface with one door: the graph says
//! what to compute, an [`EngineConfig`] says how, and
//! [`EngineConfig::start`] runs it as a lazy, cancellable
//! [`EstimateStream`] of converging estimates (§3.1). The batch forms
//! ([`EstimateStream::collect_series`], [`EstimateStream::final_frame`])
//! drain that stream.
//!
//! There is **one query core and two drivers**. The core (`query.rs`) is
//! the paper's graph of nodes exchanging update and EOF messages (Fig 6):
//! one constructor builds the operators, one *node actor* holds the only
//! copy of the message protocol (what a node does with an update or an
//! EOF, when it forwards EOF, what it records), one *ledger* — an entry
//! per node — is what `stats()` snapshots, and one sink decides which
//! estimate is final. A driver only decides how emitted messages travel:
//!
//! - `EngineConfig::stepped()` — the **inline** driver: a run queue
//!   drained on the polling thread, one source partition per poll,
//!   sources interleaved by progress. Deterministic, first estimate
//!   soonest; the reference semantics.
//! - `EngineConfig::threaded()` — the **thread-per-actor** driver, the
//!   paper's pipelined design: every node on its own thread, edges are
//!   bounded channels carrying shared frame pointers, so reading, joining
//!   and aggregating overlap and the exact answer arrives sooner. Dropping
//!   the stream cancels the query (threads joined, spill dirs removed).
//!
//! Both stay because each wins a workload of the repo's benchmark
//! (`wake-e2e`: `tpch.resident` first estimate and determinism,
//! `tpch.threaded` final latency); [`ExecutorKind`] selects. Sharded
//! operators (`wake_core::ops::sharded`, sized by
//! [`EngineConfig::with_parallelism`]) and span tracing ([`TraceLog`],
//! Fig 13) work the same under either. Both produce the same final
//! state; intermediate estimates may differ in granularity/interleaving
//! (inherent to pipelined execution).
//!
//! [`EngineConfig`] resolves the ambient `WAKE_*` environment in exactly
//! one place and runs the planner passes (scan reordering, zone pruning,
//! projection) on every start. OLA stopping conditions
//! ([`EstimateStream::until_confidence`],
//! [`EstimateStream::until_rows_processed`]) end a stream — and cancel
//! its query — the moment the estimate is good enough.

mod config;
mod estimate;
mod query;
mod stepped;
mod stream;
mod threaded;
mod trace;

pub use config::{EngineConfig, ExecutorKind};
pub use estimate::{Estimate, EstimateSeries, SeriesExt};
pub use stream::{CancelHandle, EstimateStream, StopStream, DEFAULT_CONFIDENCE};
pub use threaded::DEFAULT_CHANNEL_CAPACITY;
pub use trace::{TraceEvent, TraceLog, DEFAULT_TRACE_CAPACITY};
// Memory-governance configuration (the per-query budget knob on both
// drivers and the process-wide ledger wake-serve leases from) plus the
// spill-device boundary: the `SpillIo` trait, the real filesystem device,
// and the deterministic fault injector for tests.
pub use wake_store::{
    FaultIo, FaultSchedule, GlobalGovernor, SpillConfig, SpillIo, SpillMetrics, StdIo, TornWrite,
};
// Observability: the level knob on `EngineConfig` and the one statistics
// record (`EstimateStream::stats()`; `profile()` is the same record when
// the level is on).
pub use wake_obs::{HistogramSnapshot, NodeProfile, ObsLevel, RunStats};

pub type Result<T> = std::result::Result<T, wake_data::DataError>;
