//! # Wake — Deep Online Aggregation
//!
//! Facade crate re-exporting the full Wake workspace: an implementation of
//! *"A Step Toward Deep Online Aggregation"* (SIGMOD 2023). Wake evaluates
//! cascades of map / filter / join / agg operations in an online fashion:
//! every operator emits a stream of **evolving data frames (edf)** whose
//! estimates converge to the exact answer once all input is processed.
//!
//! The API is **streaming-first**: a query is not a call that blocks until
//! the exact answer, but a lazy [`EstimateStream`](prelude::EstimateStream)
//! of converging estimates you watch, stop early, or run to completion —
//! the paper's §3.1 loop. Everything needed for the §1 session listing is
//! in the [`prelude`]:
//!
//! ```
//! use wake::prelude::*;
//!
//! // Tiny base table: (orderkey, qty), clustered on orderkey.
//! let schema = std::sync::Arc::new(Schema::new(vec![
//!     Field::new("orderkey", DataType::Int64),
//!     Field::new("qty", DataType::Float64),
//! ]));
//! let frame = DataFrame::new(
//!     schema,
//!     vec![
//!         Column::from_i64(vec![1, 1, 2, 2, 3, 3]),
//!         Column::from_f64(vec![10., 5., 7., 1., 2., 2.]),
//!     ],
//! )
//! .unwrap();
//! let source = MemorySource::from_frame(
//!     "lineitem", &frame, 2, vec!["orderkey".into()],
//!     Some(vec!["orderkey".into()]),
//! )
//! .unwrap();
//!
//! // Deep OLA, fluent session style: sum per order, then the average of
//! // those sums.
//! let mut s = Session::new();
//! let li = s.read(source);
//! let avg = li
//!     .sum("qty", &["orderkey"], "sum_qty")
//!     .avg("sum_qty", &[], "avg_order");
//!
//! // Watch the estimate converge; stop whenever it is good enough.
//! let mut last = None;
//! for estimate in avg.stream().unwrap() {
//!     let estimate = estimate.unwrap();
//!     // ... inspect estimate.frame, estimate.t, estimate.rows_processed ...
//!     last = Some(estimate);
//! }
//! let v = last.unwrap().frame.value(0, "avg_order").unwrap().as_f64().unwrap();
//! assert!((v - 9.0).abs() < 1e-9); // (15 + 8 + 4) / 3
//! ```
//!
//! Execution is configured through one builder — [`EngineConfig`](prelude::EngineConfig),
//! whose `start(graph)` is the one way to run a graph — covering driver
//! choice (deterministic stepped vs pipelined threaded), partition parallelism,
//! memory budget + spill directory (out-of-core execution), channel
//! capacity and tracing; `WAKE_MEM_BUDGET` / `WAKE_SPILL_DIR` environment
//! fallbacks resolve there, per knob, and a session takes the same
//! builders through [`Session::configure`](session::Session::configure).
//! OLA stopping conditions make the "stop when good enough" loop
//! declarative:
//!
//! ```no_run
//! # use wake::prelude::*;
//! # fn demo(edf: &wake::session::Edf) -> Result<(), wake::data::DataError> {
//! // Stop once every group's 95% Chebyshev CI is within ±1%, or the
//! // query finishes — whichever comes first. Dropping the stream
//! // cancels the rest of the query (threads joined, spill files gone).
//! for estimate in edf.stream()?.until_confidence("revenue", 0.01) {
//!     let estimate = estimate?;
//!     println!("t={:.0}%  {} rows", estimate.t * 100.0, estimate.frame.num_rows());
//! }
//! # Ok(())
//! # }
//! ```
//!
//! ## Observability
//!
//! Turn on per-node profiling with
//! [`EngineConfig::with_obs`](prelude::EngineConfig::with_obs) (or
//! `WAKE_OBS=stats|profile`) and read the live per-node profiles — rows,
//! busy time, state peaks, attributed spill and scan work — from the
//! stream's one statistics record, [`stats()`](prelude::EstimateStream::stats),
//! at any point, including mid-flight and after a stop. Estimates are
//! bit-identical at every level:
//!
//! ```no_run
//! # use wake::prelude::*;
//! # fn demo(mut s: Session, edf: &wake::session::Edf) -> Result<(), wake::data::DataError> {
//! s.configure(|c| c.with_obs(ObsLevel::Stats));
//! let mut stream = edf.stream()?;
//! while let Some(estimate) = stream.next() {
//!     let estimate = estimate?;
//!     for node in &stream.stats().nodes {
//!         println!(
//!             "node {} [{}]: {} rows out, busy {:?}",
//!             node.id, node.label, node.rows_out, node.busy
//!         );
//!     }
//!     if estimate.rows_processed > 1_000 {
//!         stream.stop(); // stops the query; the statistics stay readable
//!         break;
//!     }
//! }
//! println!("{}", stream.explain_analyze()); // annotated plan tree
//! # Ok(())
//! # }
//! ```
//!
//! One-shot: [`Edf::explain_analyze`](session::Edf::explain_analyze) runs
//! the query to completion and returns the annotated plan tree directly.
//!
//! ## OLA as a service
//!
//! [`serve`](mod@serve) turns the library into a multi-query server:
//! register named queries in a [`QueryCatalog`](serve::QueryCatalog)
//! (fluent pipelines register via
//! [`Edf::register`](session::Edf::register)), start it with
//! [`serve::serve`], and any TCP or HTTP client watches estimates
//! converge live. Admission control bounds concurrency (typed `429`
//! overload past the queue), and a **global memory governor** leases one
//! server-wide byte budget across all resident queries — a burst of
//! heavy queries spills to disk instead of OOMing the host, and every
//! answer stays exact.
//!
//! ```no_run
//! use wake::prelude::*;
//! # fn demo(li: &wake::session::Edf) -> std::io::Result<()> {
//! let mut catalog = wake::serve::QueryCatalog::new();
//! li.sum("qty", &[], "total_qty").register(&mut catalog, "total_qty");
//! let server = wake::serve::serve(
//!     EngineConfig::threaded()
//!         .with_serve_addr("127.0.0.1:7878")
//!         .with_serve_global_budget(64 << 20) // WAKE_SERVE_GLOBAL_BUDGET=64M
//!         .with_serve_max_concurrent(4),
//!     catalog,
//! )?;
//! # server.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Then, from any shell — each line of the chunked HTTP response is one
//! converging estimate, ending with the exact answer:
//!
//! ```text
//! $ curl -N http://127.0.0.1:7878/query/total_qty
//! {"type":"admitted","id":1,"name":"total_qty"}
//! {"type":"estimate","id":1,"seq":0,"t":0.25,...,"value":10635.0,...}
//! {"type":"estimate","id":1,"seq":3,"t":1,"is_final":true,"value":10210.5,...}
//! {"type":"done","id":1,"status":"completed","degraded":false,...}
//! $ curl http://127.0.0.1:7878/explain/1     # EXPLAIN ANALYZE profile
//! $ curl http://127.0.0.1:7878/queries       # catalog + served queries
//! ```

pub mod session;

pub use wake_baseline as baseline;
pub use wake_core as core;
pub use wake_data as data;
pub use wake_engine as engine;
pub use wake_expr as expr;
pub use wake_serve as serve;
pub use wake_stats as stats;
pub use wake_store as store;
pub use wake_tpch as tpch;

/// Everything the §1 session listing (and the examples) need: the fluent
/// session API, the streaming execution surface — one
/// [`EstimateStream`](wake_engine::EstimateStream) per query, stopping
/// conditions and statistics included — and the data substrate.
pub mod prelude {
    pub use crate::session::{Edf, Session};
    pub use wake_core::agg::AggSpec;
    pub use wake_core::graph::{NodeId, Parallelism, QueryGraph};
    pub use wake_data::{
        Column, DataFrame, DataType, Field, MemorySource, Row, Schema, TableSource, Value,
    };
    pub use wake_engine::{
        EngineConfig, Estimate, EstimateSeries, EstimateStream, ExecutorKind, NodeProfile,
        ObsLevel, RunStats, SeriesExt,
    };
    pub use wake_expr::{col, lit, Expr};
}
