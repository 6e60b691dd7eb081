//! The pandas-like session API from the paper's §1 listing, rebuilt
//! around **streaming**.
//!
//! [`Session`] owns a growing query graph plus one [`EngineConfig`]; each
//! [`Edf`] handle is a node in the graph. [`Edf::stream`] is the execution
//! primitive: it starts the session's configured engine and returns a
//! lazy, cancellable [`EstimateStream`] of converging estimates (§3.1).
//! Everything batch-shaped — [`Edf::collect`], [`Edf::collect_threaded`],
//! [`Edf::get_final`], [`Edf::collect_stats`] — is an adapter that drains
//! that stream.
//!
//! The paper's "watch the estimate, stop when it is good enough" loop:
//!
//! ```
//! use std::sync::Arc;
//! use wake::prelude::*;
//!
//! // lineitem-like toy table.
//! let schema = Arc::new(Schema::new(vec![
//!     Field::new("orderkey", DataType::Int64),
//!     Field::new("qty", DataType::Float64),
//! ]));
//! let frame = DataFrame::new(
//!     schema,
//!     vec![
//!         Column::from_i64(vec![1, 1, 2, 3, 3, 3]),
//!         Column::from_f64(vec![200.0, 150.0, 10.0, 120.0, 140.0, 80.0]),
//!     ],
//! )
//! .unwrap();
//! let source = MemorySource::from_frame(
//!     "lineitem", &frame, 2, vec!["orderkey".into()], Some(vec!["orderkey".into()]),
//! )
//! .unwrap();
//!
//! let mut s = Session::new();
//! let lineitem = s.read(source);
//! let order_qty = lineitem.sum("qty", &["orderkey"], "sum_qty");
//! let lg_orders = order_qty.filter(col("sum_qty").gt(lit(300.0)));
//! let top = lg_orders.sort(&["sum_qty"], &[true]).limit(10);
//!
//! // Streaming loop: every estimate is the query's current best answer;
//! // break whenever it is good enough (dropping the stream cancels the
//! // rest of the query).
//! let mut rows_seen = 0;
//! for estimate in top.stream().unwrap() {
//!     let estimate = estimate.unwrap();
//!     rows_seen = estimate.frame.num_rows();
//!     if estimate.is_final {
//!         break;
//!     }
//! }
//! assert_eq!(rows_seen, 2); // orders 1 (350) and 3 (340)
//!
//! // Batch adapters over the same stream:
//! let estimates = top.collect().unwrap();
//! assert_eq!(estimates.last().unwrap().frame.num_rows(), 2);
//! ```
//!
//! Execution knobs live on the session's [`EngineConfig`] and are set one
//! way — [`Session::configure`] with the config's own `with_*` builders,
//! which is also where each knob is documented. Environment fallbacks
//! (`WAKE_MEM_BUDGET`, `WAKE_SPILL_DIR`, …) resolve through that single
//! path, per knob — setting a spill directory does not hide an ambient
//! memory budget.

use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use wake_core::agg::AggSpec;
use wake_core::graph::{JoinKind, NodeId, QueryGraph};
use wake_data::{DataFrame, TableSource};
use wake_engine::{EngineConfig, EstimateSeries, EstimateStream, ExecutorKind, ObsLevel, RunStats};
use wake_expr::{col, Expr};

type Result<T> = std::result::Result<T, wake_data::DataError>;

/// An interactive query-building session (the paper's Query Service from a
/// user's point of view).
#[derive(Default)]
pub struct Session {
    graph: Rc<RefCell<QueryGraph>>,
    /// Execution configuration applied to every query this session runs.
    config: Rc<RefCell<EngineConfig>>,
}

impl Session {
    pub fn new() -> Self {
        Self::default()
    }

    /// Change the execution configuration of every query this session
    /// runs from here on, with [`EngineConfig`]'s own builders:
    /// `s.configure(|c| c.with_memory_budget(64 << 20).with_obs(ObsLevel::Stats))`.
    pub fn configure(&mut self, f: impl FnOnce(EngineConfig) -> EngineConfig) {
        let mut config = self.config.borrow_mut();
        *config = f(std::mem::take(&mut *config));
    }

    /// Snapshot of the session's execution configuration.
    pub fn engine_config(&self) -> EngineConfig {
        self.config.borrow().clone()
    }

    /// Register a base table and get its edf handle (`read_csv` in §1).
    pub fn read(&mut self, source: impl TableSource + 'static) -> Edf {
        let node = self.graph.borrow_mut().read(source);
        Edf {
            graph: self.graph.clone(),
            config: self.config.clone(),
            node,
        }
    }

    /// Persist `frame` as a multi-zone compressed segment table named
    /// `name` under the session's table directory
    /// ([`EngineConfig::with_table_dir`] / `WAKE_TABLE_DIR`), then register
    /// the on-disk table and return its edf handle. Each zone holds
    /// [`EngineConfig::with_zone_rows`] rows with per-column min/max
    /// statistics, so filters over the returned edf can skip zones
    /// entirely (zone pruning). Overwrites any previous segment of the
    /// same name.
    pub fn persist_table(
        &mut self,
        name: &str,
        frame: &DataFrame,
        primary_key: Vec<String>,
        clustering_key: Option<Vec<String>>,
    ) -> Result<Edf> {
        let path = self.table_path(name)?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let zone_rows = self.config.borrow().zone_rows();
        let io: std::sync::Arc<dyn wake_store::SpillIo> = std::sync::Arc::new(wake_store::StdIo);
        wake_store::write_segment(
            name,
            frame,
            zone_rows,
            &primary_key,
            clustering_key.as_deref(),
            &path,
            io.as_ref(),
        )?;
        Ok(self.read(wake_store::SegmentSource::open(path, io)?))
    }

    /// Open a previously persisted segment table by name and register it.
    pub fn open_table(&mut self, name: &str) -> Result<Edf> {
        let path = self.table_path(name)?;
        let io: std::sync::Arc<dyn wake_store::SpillIo> = std::sync::Arc::new(wake_store::StdIo);
        Ok(self.read(wake_store::SegmentSource::open(path, io)?))
    }

    fn table_path(&self, name: &str) -> Result<PathBuf> {
        let dir = self.config.borrow().table_dir().ok_or_else(|| {
            wake_data::DataError::Invalid(
                "no table directory: configure with_table_dir or set WAKE_TABLE_DIR".into(),
            )
        })?;
        Ok(dir.join(format!("{name}.wseg")))
    }
}

/// A handle to one evolving data frame inside a session.
#[derive(Clone)]
pub struct Edf {
    graph: Rc<RefCell<QueryGraph>>,
    config: Rc<RefCell<EngineConfig>>,
    node: NodeId,
}

impl Edf {
    fn wrap(&self, node: NodeId) -> Edf {
        Edf {
            graph: self.graph.clone(),
            config: self.config.clone(),
            node,
        }
    }

    /// The underlying graph node (for mixing with the low-level API).
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// `edf.filter(predicate)` (§3.2).
    pub fn filter(&self, predicate: Expr) -> Edf {
        let node = self.graph.borrow_mut().filter(self.node, predicate);
        self.wrap(node)
    }

    /// `edf.map(...)`: projection with named expressions (§3.2).
    pub fn map(&self, exprs: Vec<(Expr, &str)>) -> Edf {
        let node = self.graph.borrow_mut().map(self.node, exprs);
        self.wrap(node)
    }

    /// Keep only the named columns.
    pub fn select(&self, names: &[&str]) -> Edf {
        self.map(names.iter().map(|n| (col(n), *n)).collect())
    }

    /// Inner join (§3.2).
    pub fn join(&self, right: &Edf, left_on: &[&str], right_on: &[&str]) -> Edf {
        self.join_kind(right, left_on, right_on, JoinKind::Inner)
    }

    /// Left outer join.
    pub fn left_join(&self, right: &Edf, left_on: &[&str], right_on: &[&str]) -> Edf {
        self.join_kind(right, left_on, right_on, JoinKind::Left)
    }

    /// Semi join (`EXISTS`).
    pub fn semi_join(&self, right: &Edf, left_on: &[&str], right_on: &[&str]) -> Edf {
        self.join_kind(right, left_on, right_on, JoinKind::Semi)
    }

    /// Anti join (`NOT EXISTS`).
    pub fn anti_join(&self, right: &Edf, left_on: &[&str], right_on: &[&str]) -> Edf {
        self.join_kind(right, left_on, right_on, JoinKind::Anti)
    }

    fn join_kind(&self, right: &Edf, left_on: &[&str], right_on: &[&str], kind: JoinKind) -> Edf {
        assert!(
            Rc::ptr_eq(&self.graph, &right.graph),
            "edfs must belong to the same session"
        );
        let node = self.graph.borrow_mut().join_kind(
            self.node,
            right.node,
            left_on.to_vec(),
            right_on.to_vec(),
            kind,
        );
        self.wrap(node)
    }

    /// General aggregation with explicit specs.
    pub fn agg(&self, by: &[&str], specs: Vec<AggSpec>) -> Edf {
        let node = self.graph.borrow_mut().agg(self.node, by.to_vec(), specs);
        self.wrap(node)
    }

    /// Aggregation with confidence intervals (§6): output frames carry a
    /// `{alias}__var` variance column per aggregate, which
    /// [`EstimateStream::until_confidence`] and
    /// [`wake_core::ci::interval_at`] consume.
    pub fn agg_ci(&self, by: &[&str], specs: Vec<AggSpec>) -> Edf {
        let node = self
            .graph
            .borrow_mut()
            .agg_with_ci(self.node, by.to_vec(), specs);
        self.wrap(node)
    }

    /// `edf.sum(col, by=...)` — the §1 shorthand.
    pub fn sum(&self, column: &str, by: &[&str], alias: &str) -> Edf {
        self.agg(by, vec![AggSpec::sum(col(column), alias)])
    }

    /// `edf.count(by=...)`.
    pub fn count(&self, by: &[&str], alias: &str) -> Edf {
        self.agg(by, vec![AggSpec::count_star(alias)])
    }

    /// `edf.avg(col, by=...)`.
    pub fn avg(&self, column: &str, by: &[&str], alias: &str) -> Edf {
        self.agg(by, vec![AggSpec::avg(col(column), alias)])
    }

    /// `edf.min(col, by=...)` / `edf.max(col, by=...)`.
    pub fn min(&self, column: &str, by: &[&str], alias: &str) -> Edf {
        self.agg(by, vec![AggSpec::min(col(column), alias)])
    }

    pub fn max(&self, column: &str, by: &[&str], alias: &str) -> Edf {
        self.agg(by, vec![AggSpec::max(col(column), alias)])
    }

    /// `edf.sort(keys, desc)` (§1 line 9); Case-3 snapshot operator.
    pub fn sort(&self, by: &[&str], descending: &[bool]) -> Edf {
        let node = self
            .graph
            .borrow_mut()
            .sort(self.node, by.to_vec(), descending.to_vec(), None);
        self.wrap(node)
    }

    /// `edf.limit(n)`.
    pub fn limit(&self, n: usize) -> Edf {
        let node = self.graph.borrow_mut().limit(self.node, n);
        self.wrap(node)
    }

    /// Snapshot of the graph with this edf as sink, restricted to the
    /// sink's ancestors — other edfs registered on the session (including
    /// the read nodes [`Session::persist_table`] / [`Session::open_table`]
    /// return) are not part of this query and must not be scanned by it.
    pub fn to_graph(&self) -> QueryGraph {
        let mut g = self.graph.borrow().clone();
        g.sink(self.node);
        g.retain_reachable();
        g
    }

    /// Register this pipeline in a wake-serve [`QueryCatalog`] under
    /// `name`: the graph snapshot ([`Self::to_graph`]) becomes the named
    /// template the server clones per request, so one fluent session can
    /// define the whole catalog before [`wake_serve::serve`] starts.
    pub fn register(&self, catalog: &mut wake_serve::QueryCatalog, name: impl Into<String>) {
        catalog.register(name, self.to_graph());
    }

    /// [`Self::register`] with a watch column: the aggregate output
    /// column the server summarises into each wire estimate's `value`
    /// and CI fields.
    pub fn register_watch(
        &self,
        catalog: &mut wake_serve::QueryCatalog,
        name: impl Into<String>,
        watch: impl Into<String>,
    ) {
        catalog.register_watch(name, self.to_graph(), watch);
    }

    /// **The execution primitive** (§3.1): start the session's configured
    /// engine and stream this edf's converging estimates lazily. Stop any
    /// time by dropping the stream (the query is cancelled, node threads
    /// joined, spill files removed); attach an OLA stopping condition
    /// with [`EstimateStream::until_confidence`] /
    /// [`EstimateStream::until_rows_processed`]; read spill and memory
    /// telemetry from [`EstimateStream::stats`].
    pub fn stream(&self) -> Result<EstimateStream> {
        self.config.borrow().start(self.to_graph())
    }

    /// [`Self::stream`] on an explicit engine, keeping every other
    /// session knob.
    pub fn stream_on(&self, kind: ExecutorKind) -> Result<EstimateStream> {
        self.config
            .borrow()
            .clone()
            .with_executor(kind)
            .start(self.to_graph())
    }

    /// Run on the deterministic stepper, returning the materialised
    /// estimate series (an adapter over [`Self::stream`]).
    pub fn collect(&self) -> Result<EstimateSeries> {
        self.stream_on(ExecutorKind::Stepped)?.collect_series()
    }

    /// Run on the pipelined multi-threaded engine (§7.2).
    pub fn collect_threaded(&self) -> Result<EstimateSeries> {
        self.stream_on(ExecutorKind::Threaded)?.collect_series()
    }

    /// Run on the session's configured engine, returning the estimate
    /// series plus run statistics (peak operator state, spill telemetry).
    pub fn collect_stats(&self) -> Result<(EstimateSeries, RunStats)> {
        self.stream()?.collect_with_stats()
    }

    /// `edf.get_final()` (§3.1): block until the exact answer.
    pub fn get_final(&self) -> Result<std::sync::Arc<DataFrame>> {
        self.stream_on(ExecutorKind::Stepped)?.final_frame()
    }

    /// EXPLAIN ANALYZE: run this query to completion on the session's
    /// configured engine and return the plan tree annotated with the
    /// observed per-node rows, busy time, state peaks, and attributed
    /// spill/scan work. Runs at the session's observability level when
    /// one is enabled ([`EngineConfig::with_obs`]), else at
    /// `ObsLevel::Stats`. For a profile of a *partial* run, drive
    /// [`Self::stream`] yourself and call
    /// [`EstimateStream::explain_analyze`] at any point.
    pub fn explain_analyze(&self) -> Result<String> {
        let mut config = self.config.borrow().clone();
        if !config.obs_level().enabled() {
            config = config.with_obs(ObsLevel::Stats);
        }
        let mut stream = config.start(self.to_graph())?;
        for est in &mut stream {
            est?;
        }
        Ok(stream.explain_analyze())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wake_data::{Column, DataType, Field, MemorySource, Schema, Value};
    use wake_expr::lit_f64;

    fn source() -> MemorySource {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let frame = DataFrame::new(
            schema,
            vec![
                Column::from_i64((0..40).map(|i| i % 4).collect()),
                Column::from_f64((0..40).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        MemorySource::from_frame("t", &frame, 10, vec![], None).unwrap()
    }

    #[test]
    fn fluent_deep_query_runs() {
        let mut s = Session::new();
        let t = s.read(source());
        let per_k = t.sum("v", &["k"], "sv");
        let big = per_k.filter(col("sv").gt(lit_f64(100.0)));
        let out = big.avg("sv", &[], "avg_big");
        let series = out.collect().unwrap();
        assert!(series.last().unwrap().is_final);
        // Group sums: k=0:180, k=1:190, k=2:200, k=3:210 -> all > 100.
        let avg = series
            .last()
            .unwrap()
            .frame
            .value(0, "avg_big")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((avg - 195.0).abs() < 1e-9);
    }

    #[test]
    fn reusing_an_edf_fans_out() {
        let mut s = Session::new();
        let t = s.read(source());
        let sums = t.sum("v", &["k"], "sv");
        // Two independent consumers of the same OLA output.
        let top = sums.sort(&["sv"], &[true]).limit(1);
        let stats = sums.avg("sv", &[], "m");
        let a = top.get_final().unwrap();
        let b = stats.get_final().unwrap();
        assert_eq!(a.value(0, "k").unwrap(), Value::Int(3));
        assert_eq!(b.value(0, "m").unwrap(), Value::Float(195.0));
    }

    #[test]
    fn select_and_joins() {
        let mut s = Session::new();
        let t = s.read(source());
        let l = t.select(&["k", "v"]);
        let sums = t.sum("v", &["k"], "sv");
        let joined = l.join(&sums, &["k"], &["k"]);
        let f = joined.get_final().unwrap();
        assert_eq!(f.num_rows(), 40);
        assert!(f.schema().contains("sv"));
        // Semi/anti shapes.
        let some = sums.filter(col("sv").gt(lit_f64(195.0)));
        let semi = l.semi_join(&some, &["k"], &["k"]).get_final().unwrap();
        let anti = l.anti_join(&some, &["k"], &["k"]).get_final().unwrap();
        assert_eq!(semi.num_rows() + anti.num_rows(), 40);
    }

    #[test]
    fn threaded_collect_agrees() {
        let mut s = Session::new();
        let t = s.read(source());
        let q = t.count(&["k"], "n").sort(&["k"], &[false]);
        let a = q.collect().unwrap();
        let b = q.collect_threaded().unwrap();
        assert_eq!(
            a.last().unwrap().frame.as_ref(),
            b.last().unwrap().frame.as_ref()
        );
    }

    #[test]
    fn stream_is_the_primitive_collect_adapts_it() {
        let mut s = Session::new();
        let t = s.read(source());
        let q = t.sum("v", &["k"], "sv").sort(&["k"], &[false]);
        let collected = q.collect().unwrap();
        let streamed: Result<Vec<_>> = q.stream().unwrap().collect();
        let streamed = streamed.unwrap();
        assert_eq!(collected.len(), streamed.len());
        for (a, b) in collected.iter().zip(&streamed) {
            assert_eq!(a.frame.as_ref(), b.frame.as_ref());
            assert_eq!(a.is_final, b.is_final);
        }
        // Early-stop loop: break after the first estimate; the dropped
        // stream cancels the rest of the query.
        let mut stream = q.stream().unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(!first.is_final);
        drop(stream);
    }

    #[test]
    fn session_executor_choice_drives_stream() {
        let mut s = Session::new();
        s.configure(|c| c.with_executor(ExecutorKind::Threaded));
        let t = s.read(source());
        let q = t.count(&["k"], "n").sort(&["k"], &[false]);
        let (series, _) = q.collect_stats().unwrap();
        assert!(series.last().unwrap().is_final);
        s.configure(|c| c.with_executor(ExecutorKind::Stepped));
        let (series2, _) = q.collect_stats().unwrap();
        assert_eq!(
            series.last().unwrap().frame.as_ref(),
            series2.last().unwrap().frame.as_ref()
        );
    }

    #[test]
    fn collect_stats_surfaces_spill_telemetry() {
        // High-cardinality group-by so a tiny budget provably evicts.
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let frame = DataFrame::new(
            schema,
            vec![
                Column::from_i64((0..4000).collect()),
                Column::from_f64((0..4000).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let big = MemorySource::from_frame("big", &frame, 500, vec![], None).unwrap();
        let mut s = Session::new();
        s.configure(|c| c.with_memory_budget(512));
        let t = s.read(big);
        let q = t.sum("v", &["k"], "sv").sort(&["k"], &[false]);
        let (series, stats) = q.collect_stats().unwrap();
        assert!(series.last().unwrap().is_final);
        assert!(stats.peak_state_bytes > 0);
        assert!(
            stats.spill.evictions > 0,
            "512-byte budget must force evictions: {:?}",
            stats.spill
        );
    }

    #[test]
    fn delta_ratio_knob_spills_identically() {
        // The session-level delta-log knob must not change answers, and
        // its two extremes must show up in the spill telemetry: ratio 0
        // compacts every fold (no delta appends), a huge ratio only
        // appends deltas (no compactions after eviction).
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let frame = DataFrame::new(
            schema,
            vec![
                Column::from_i64((0..3000).collect()),
                Column::from_f64((0..3000).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let source = || MemorySource::from_frame("big", &frame, 300, vec![], None).unwrap();
        let run = |ratio: Option<f64>| {
            let mut s = Session::new();
            s.configure(|c| c.with_memory_budget(2048));
            if let Some(r) = ratio {
                s.configure(|c| c.with_spill_delta_ratio(r));
            }
            let t = s.read(source());
            let q = t.sum("v", &["k"], "sv").sort(&["k"], &[false]);
            q.collect_stats().unwrap()
        };
        let (legacy, legacy_stats) = run(Some(0.0));
        let (delta, delta_stats) = run(Some(1e12));
        let (default, _) = run(None);
        assert_eq!(legacy.len(), delta.len());
        for (a, b) in legacy.iter().zip(delta.iter()) {
            assert_eq!(a.frame.as_ref(), b.frame.as_ref());
        }
        assert_eq!(
            legacy.last().unwrap().frame.as_ref(),
            default.last().unwrap().frame.as_ref()
        );
        assert_eq!(legacy_stats.spill.delta_bytes, 0);
        assert!(legacy_stats.spill.compactions > 0);
        assert!(delta_stats.spill.delta_bytes > 0);
        assert_eq!(delta_stats.spill.compactions, 0);
    }

    #[test]
    fn bounded_memory_session_matches_unbounded() {
        // A session-wide budget small enough to spill must not change
        // answers, on either executor.
        let mut unbounded = Session::new();
        let t = unbounded.read(source());
        let reference = t.sum("v", &["k"], "sv").sort(&["k"], &[false]);
        let want = reference.get_final().unwrap();

        let mut bounded = Session::new();
        bounded.configure(|c| c.with_memory_budget(512));
        let t = bounded.read(source());
        let q = t.sum("v", &["k"], "sv").sort(&["k"], &[false]);
        let got = q.get_final().unwrap();
        assert_eq!(want.as_ref(), got.as_ref());
        let threaded = q.collect_threaded().unwrap();
        assert_eq!(threaded.last().unwrap().frame.as_ref(), want.as_ref());
    }

    #[test]
    fn spill_dir_only_session_keeps_ambient_budget() {
        // The historical bug this API redesign fixes: a session with only
        // a spill directory set used to silently drop WAKE_MEM_BUDGET.
        // All knobs now resolve through EngineConfig, per knob.
        let ambient = wake_engine::SpillConfig::from_env();
        let mut s = Session::new();
        s.configure(|c| c.with_spill_dir("/tmp/wake-session-env-test"));
        let resolved = s.engine_config().spill_config();
        assert_eq!(resolved.budget_bytes, ambient.budget_bytes);
        assert_eq!(
            resolved.spill_dir,
            Some(PathBuf::from("/tmp/wake-session-env-test"))
        );
        // And an explicit unbounded override wins over the environment.
        s.configure(|c| c.unbounded_memory());
        assert_eq!(s.engine_config().spill_config().budget_bytes, None);
    }

    #[test]
    fn persisted_table_round_trip_with_pruning() {
        let dir = std::env::temp_dir().join("wake-session-persist-test");
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let frame = DataFrame::new(
            schema,
            vec![
                Column::from_i64((0..40).collect()),
                Column::from_f64((0..40).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        let mut s = Session::new();
        s.configure(|c| c.with_table_dir(&dir).with_zone_rows(10));
        let t = s
            .persist_table("session_t", &frame, vec!["k".into()], None)
            .unwrap();
        let q = t.filter(col("v").lt(lit_f64(10.0))).sum("v", &[], "sv");
        let (series, stats) = q.collect_stats().unwrap();
        let last = series.last().unwrap();
        assert!(last.is_final);
        assert_eq!(last.frame.value(0, "sv").unwrap(), Value::Float(45.0));
        // Rows 10..39 live in zones whose min >= 10: pruned, not decoded.
        assert_eq!(stats.scan.zones_total, 4);
        assert_eq!(stats.scan.zones_pruned, 3);
        assert!(stats.scan.decompressed_bytes > 0);
        // Pruning off: same answer, every zone decoded.
        s.configure(|c| c.with_zone_pruning(false));
        let (series2, stats2) = q.collect_stats().unwrap();
        assert_eq!(
            series2.last().unwrap().frame.value(0, "sv").unwrap(),
            Value::Float(45.0)
        );
        assert_eq!(stats2.scan.zones_pruned, 0);
        // A fresh session reopens the persisted table by name.
        let mut s2 = Session::new();
        s2.configure(|c| c.with_table_dir(&dir));
        let t2 = s2.open_table("session_t").unwrap();
        assert_eq!(t2.get_final().unwrap().num_rows(), 40);
    }

    #[test]
    fn explain_analyze_reports_every_node() {
        let mut s = Session::new();
        let t = s.read(source());
        let q = t.sum("v", &["k"], "sv").sort(&["k"], &[false]);
        // Works without any session-level obs opt-in (defaults to Stats).
        let text = q.explain_analyze().unwrap();
        assert!(text.contains("Sort"), "{text}");
        assert!(text.contains("Agg"), "{text}");
        assert!(text.contains("read") || text.contains("Read"), "{text}");
        assert!(text.contains("rows"), "{text}");
        // A session-level Profile opt-in flows through the same surface.
        s.configure(|c| c.with_obs(ObsLevel::Profile));
        let profiled = q.explain_analyze().unwrap();
        assert!(profiled.contains("profile"), "{profiled}");
    }

    #[test]
    #[should_panic(expected = "same session")]
    fn cross_session_join_panics() {
        let mut s1 = Session::new();
        let mut s2 = Session::new();
        let a = s1.read(source());
        let b = s2.read(source());
        a.join(&b, &["k"], &["k"]);
    }
}
