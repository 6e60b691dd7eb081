//! # wake-core
//!
//! The evolving-data-frame (**edf**) model from *"A Step Toward Deep Online
//! Aggregation"* (SIGMOD 2023): a data/processing model **closed under
//! map / filter / join / agg**, so operations can be applied to the outputs
//! of previous OLA operations and every intermediate result is itself a
//! stream of converging estimates.
//!
//! ## Model summary
//!
//! - An edf is a function `t -> DataFrame` for progress `0 ≤ t ≤ 1` (§3.1);
//!   concretely, a stream of [`update::Update`] messages, each carrying a
//!   frame and [`progress::Progress`] metadata.
//! - Updates are either **deltas** (append-only, the paper's Case 1) or
//!   **snapshots** (complete refresh, Cases 2–3); see [`update::UpdateKind`].
//! - Operators ([`ops`]) transform the *extrinsic* states of their inputs
//!   into their own *intrinsic* states and publish new extrinsic states,
//!   applying **growth-based inference** ([`growth`], [`agg`]) to turn raw
//!   partial aggregates into unbiased estimates (§4, §5).
//! - The two closure properties (§3.1 "2Cs") hold by construction:
//!   *consistency* (fixed output schema per operator) and *convergence*
//!   (at `t = 1` every operator has consumed all input and emits the exact
//!   answer with no scaling).
//! - Optional confidence intervals ([`ci`]) propagate variances through
//!   aggregate estimators and derive Chebyshev intervals (§6).
//!
//! Queries are assembled as operator DAGs with [`graph::QueryGraph`] and run
//! by `wake-engine`'s `EngineConfig::start`.

pub mod agg;
pub mod ci;
pub mod graph;
pub mod growth;
pub mod meta;
pub mod metrics;
pub mod ops;
pub mod plan;
pub mod progress;
pub mod update;

pub use agg::{AggFunc, AggSpec};
pub use graph::{JoinKind, NodeId, QueryGraph};
pub use meta::EdfMeta;
pub use progress::Progress;
pub use update::{Update, UpdateKind};

/// Crate-wide result type (errors reuse `wake_data::DataError`).
pub type Result<T> = std::result::Result<T, wake_data::DataError>;
