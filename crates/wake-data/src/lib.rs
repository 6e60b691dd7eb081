//! # wake-data
//!
//! The structured-data substrate for Wake, a Deep Online Aggregation (OLA)
//! system. This crate provides the *non-evolving* building blocks that the
//! `wake-core` evolving-data-frame (edf) model is layered on:
//!
//! - [`Value`] / [`DataType`]: dynamically-typed scalar cells,
//! - [`Column`]: typed columnar vectors with an optional validity mask,
//! - [`Schema`] / [`Field`]: named, typed, mutability-annotated attributes,
//! - [`DataFrame`]: an immutable 2-D batch of rows (one *partition* of an
//!   edf in the paper's terminology, §3.1 "Data Organization"),
//! - kernels: `take`, `filter`, `concat`, `sort`, row extraction, hashing,
//! - CSV reading/writing and partitioned [`source::TableSource`]s that expose
//!   the base-table statistics Wake needs (§4.4: file list, per-file tuple
//!   counts, primary/clustering keys).
//!
//! Everything here is deterministic and side-effect free so that the OLA
//! layers above can replay, merge, and re-compute partitions freely.

pub mod colfile;
pub mod column;
pub mod csv;
pub mod error;
pub mod frame;
pub mod hash;
pub mod partition;
pub mod row;
pub mod scan;
pub mod schema;
pub mod source;
pub mod value;

pub use column::Column;
pub use error::DataError;
pub use frame::DataFrame;
pub use row::Row;
pub use scan::{ColPredicate, PredOp, ScanMetrics, ZoneDecision, ZoneStats};
pub use schema::{Field, Schema};
pub use source::{MemorySource, ScanRequest, TableMeta, TableSource};
pub use value::{DataType, Value};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, DataError>;
