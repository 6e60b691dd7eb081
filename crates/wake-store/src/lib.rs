//! # wake-store
//!
//! Memory-governed, spill-to-disk operator state — the storage layer that
//! turns the engine's in-memory hash operators into out-of-core ones.
//!
//! Before this crate, every byte of operator state lived in RAM: a join
//! buffered both sides and a group-by held every group, so a fat build
//! side or a high-cardinality key simply OOMed. `wake-store` adds the
//! third level of the execution hierarchy — **pipeline × partition ×
//! spill**:
//!
//! - *pipeline*: one thread per graph node (`wake-engine`),
//! - *partition*: hash-range sharded operator state (`wake_core::ops::
//!   sharded`), `S` shards folding independently,
//! - *spill*: within each shard, state is further split into `F`
//!   hash-subrange **partitions**; when the shard exceeds its byte budget
//!   the largest partition is evicted to a checksummed columnar spill
//!   file and processed out-of-core later (grace-hash style), recursing
//!   into sub-partitions when a single partition still exceeds the
//!   budget.
//!
//! Because a spilled partition is just a *subrange of the shard's hash
//! range*, spilled state keeps the key-disjointness the shard merge logic
//! already relies on: rehydrated results concatenate (joins) or k-way
//! merge by key (group-by snapshots) exactly like shard partials.
//!
//! ## Pieces
//!
//! - [`MemoryGovernor`] / [`SpillConfig`] / [`SpillEnv`]: a per-query
//!   byte budget apportioned to operators and then shards, fed by the
//!   operators' `state_bytes()` accounting, plus shared spill telemetry
//!   (bytes written, chunks, evictions, rehydrations, I/O retries).
//!   `SpillEnv` is the one handle an operator and its shards spill
//!   through. Which spill partition a row belongs to is decided by
//!   `wake_data::partition`'s routing kernel, and the fan-out and
//!   recursion depth by `wake_core::ops::partitions`.
//! - [`SpillDir`]: lifecycle of the temp directory the spill files live
//!   in (unique names, eager deletion, recursive cleanup on drop).
//! - [`colfile`]: the on-disk format — runs of checksummed **chunks**,
//!   each holding a WCF-serialized `DataFrame` plus optional `KeyHashes`,
//!   per-row flags, and an opaque operator-state section. Typed on both
//!   paths: no `Value` boxing on write or read.
//! - [`merge`]: typed k-way merge of key-sorted frames (the join-point
//!   for group-by partials from shards *and* spill partitions).
//! - [`io`] / [`fault`]: the spill-device boundary ([`SpillIo`]; real
//!   filesystem by default, deterministic fault injection in tests) and
//!   the recovery ladder on top of it — bounded-backoff retries for
//!   transient errors, governor **poisoning** + degradation to resident
//!   execution for persistent device failure; a torn or corrupt run is
//!   a typed error.

pub mod colfile;
pub mod compress;
pub mod dir;
pub mod fault;
pub mod global;
pub mod governor;
pub mod io;
pub mod merge;
pub mod segment;

pub use colfile::{Chunk, RunWriter};
pub use dir::SpillDir;
pub use fault::{FaultIo, FaultSchedule, TornWrite};
pub use global::GlobalGovernor;
pub use governor::{parse_bytes, MemoryGovernor, SpillConfig, SpillEnv, SpillMetrics};
pub use io::{SpillIo, StdIo};
pub use segment::{write_segment, SegmentReader, SegmentSource, DEFAULT_ZONE_ROWS};

/// Crate-wide result type (shared with the data substrate).
pub type Result<T> = std::result::Result<T, wake_data::DataError>;
