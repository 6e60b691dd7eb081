//! # wake-bench
//!
//! Harnesses reproducing every table and figure of the paper's evaluation
//! (§8). Each artifact has its own binary printing the same rows/series
//! the paper reports:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 capability matrix (demonstrated, not claimed) |
//! | `fig7_latency` | Fig 7 + §8.2 medians (first/final latency, memory) |
//! | `fig8_error` | Fig 8 MAPE/recall over time + §8.3 medians |
//! | `fig9_ola` | Fig 9a/9b error-vs-time against ProgressiveDB/WanderJoin |
//! | `fig10_ci` | Fig 10 CI convergence & correctness on Q14 |
//! | `fig11_depth` | Fig 11 synthetic deep-query latency vs depth |
//! | `fig12_partition` | Fig 12 partition-size sweep |
//! | `fig13_pipeline` | Fig 13 pipelined execution timeline (Q6) |
//!
//! Every binary runs its queries through `EngineConfig::start` (stepped:
//! [`harness::run_wake`]).
//!
//! Run with `cargo run --release -p wake-bench --bin <name>`. Scale factor
//! and partition counts default to laptop-friendly values and can be
//! overridden via env vars `WAKE_SF` / `WAKE_PARTS` (`fig11_depth`, which
//! reads no TPC-H data, sizes its synthetic table with `WAKE_SYNTH_ROWS`).

pub mod harness;

pub use harness::*;
