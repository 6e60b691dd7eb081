//! The query core both drivers run (§7.2, Fig 6): a graph of **actors**
//! exchanging [`Message`]s, plus the [`QueryLedger`] every statistic is
//! read from.
//!
//! The node message protocol lives here, once: [`ReaderActor::read_next`]
//! reads a partition and emits it as a delta update, then EOF after the
//! last; [`NodeActor::handle`] feeds a message to the node's operator,
//! records the work, emits what the operator publishes, and forwards EOF
//! once *all* of its input ports have closed.
//!
//! Actors do not know how messages travel. A driver hands each an
//! `emit(target, message)` callback: the inline driver
//! ([`crate::stepped`]) appends to a run queue it drains on the polling
//! thread, the thread-per-actor driver ([`crate::threaded`]) sends into
//! the target's bounded mailbox. `emit` returning `false` means the
//! target is gone (the query is being torn down) and the actor stops.

use crate::estimate::SinkState;
use crate::stream::{CancelHandle, Driver, EstimateStream};
use crate::trace::{TraceEvent, TraceLog};
use crate::{EngineConfig, ExecutorKind, Result};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wake_core::graph::{build_operator_spilling, NodeId, NodeKind, Parallelism, QueryGraph};
use wake_core::ops::Operator;
use wake_core::progress::Progress;
use wake_core::update::Update;
use wake_data::{DataError, ScanMetrics, TableSource};
use wake_obs::{NodeObs, NodeProfile, QueryObs, QueryProfile};
use wake_store::{MemoryGovernor, SpillMetrics};

/// What travels along an edge of the query graph.
pub(crate) enum Message {
    /// A state transition for the target's input `port`.
    Update(usize, Update),
    /// The producer feeding input `port` is exhausted.
    Eof(usize),
}

/// Addressee of a message: a node index, or `graph.len()` for the sink
/// collector that turns the sink node's output into estimates.
pub(crate) type Target = usize;

/// How an actor hands a message to its driver; `false` = target gone.
pub(crate) type Emit<'a> = &'a mut dyn FnMut(Target, Message) -> bool;

/// Execution statistics for one query run, readable from a live,
/// exhausted, or cancelled stream.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Maximum bytes buffered inside operators (join stores, sort
    /// buffers, aggregate tables). Stepped: a true simultaneous sample
    /// taken at every partition boundary. Threaded: the sum of per-node
    /// peaks — an upper bound, since nodes peak at different moments.
    pub peak_state_bytes: usize,
    /// Spill telemetry (all zeroes when the query ran unbounded).
    pub spill: SpillMetrics,
    /// The spill device failed persistently mid-query and the engine fell
    /// back to memory-resident execution: the answer is still exact, but
    /// the memory budget was suspended from the point of failure on.
    pub degraded: bool,
    /// Scan telemetry summed over every segment-backed source: zones
    /// pruned and decoded, compressed bytes read versus decompressed
    /// bytes produced, decode time. All zeroes when no source tracks any
    /// (in-memory/CSV/WCF).
    pub scan: ScanMetrics,
    /// Per-node profiles (rows/frames/busy/state plus attributed spill
    /// and scan work) at [`wake_obs::ObsLevel::Stats`] or above; empty at
    /// `Off`. On a settled stream the per-node spill/scan attributions
    /// sum exactly to the rollups above (live reads race benignly); the
    /// per-node state peaks sum to an upper bound of `peak_state_bytes`
    /// (stepped) or to it exactly (threaded).
    pub nodes: Vec<NodeProfile>,
}

/// Everything a query's statistics are read from: the stream reads, the
/// actors write. It outlives the actors, so `stats()` and `profile()`
/// stay readable after exhaustion, cancellation, and a failed run.
pub(crate) struct QueryLedger {
    /// The query-wide spill ledger (`None` = unbounded memory).
    governor: Option<Arc<MemoryGovernor>>,
    /// Per-node child spill ledgers (observability only): each forwards
    /// to `governor`, so attribution costs nothing in rollup accuracy.
    node_governors: Vec<Option<Arc<MemoryGovernor>>>,
    obs: Option<Arc<QueryObs>>,
    /// Base-table handles by read-node id, for scan telemetry.
    sources: Vec<(usize, Arc<dyn TableSource>)>,
    /// Per-node peak state, folded by each actor after every message.
    node_peaks: Vec<AtomicUsize>,
    /// The query-wide peak when the driver can sample every node at one
    /// instant (inline: after each step). Thread-per-actor cannot; it
    /// leaves this `None` and reports the sum of `node_peaks`.
    step_peak: Option<AtomicUsize>,
    /// Latest per-shard state published by each actor (`Profile` only).
    shard_reports: Option<Vec<Mutex<Vec<usize>>>>,
    /// Checked by the stream on every poll and by every actor thread at
    /// every message.
    pub(crate) cancel: CancelHandle,
    spill_root: Option<PathBuf>,
}

impl QueryLedger {
    /// Execution statistics so far (complete once the query ended).
    pub(crate) fn stats(&self) -> RunStats {
        RunStats {
            peak_state_bytes: match &self.step_peak {
                // relaxed: telemetry peak written by the one polling thread
                Some(peak) => peak.load(Ordering::Relaxed),
                None => self
                    .node_peaks
                    .iter()
                    // relaxed: telemetry peaks; exact after join, approximate mid-run by design
                    .map(|p| p.load(Ordering::Relaxed))
                    .sum(),
            },
            spill: self
                .governor
                .as_ref()
                .map(|g| g.metrics())
                .unwrap_or_default(),
            degraded: self.degraded(),
            scan: self.scan(),
            nodes: self.node_profiles(),
        }
    }

    /// Has the spill device failed persistently ([`RunStats::degraded`])?
    pub(crate) fn degraded(&self) -> bool {
        self.governor.as_ref().is_some_and(|g| g.is_poisoned())
    }

    /// Scan work so far, summed over every source that tracks any.
    pub(crate) fn scan(&self) -> ScanMetrics {
        wake_core::plan::scan_metrics_of(&self.sources)
    }

    /// Bytes written to spill files so far.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        let governor = self.governor.as_ref();
        governor.map_or(0, |g| g.metrics().spilled_bytes as u64)
    }

    /// Per-node snapshots (empty at `Off`): counters and state peaks from
    /// the shared instruments, spill from the child ledgers, scan from
    /// each read node's own source, per-shard detail from the actors.
    fn node_profiles(&self) -> Vec<NodeProfile> {
        let Some(obs) = &self.obs else {
            return Vec::new();
        };
        let mut nodes = obs.snapshot_nodes();
        for (idx, profile) in nodes.iter_mut().enumerate() {
            if let Some(gov) = &self.node_governors[idx] {
                profile.spill = gov.metrics();
            }
            if let Some(reports) = &self.shard_reports {
                profile.shard_state_bytes = reports[idx].lock().clone();
            }
        }
        for (idx, source) in &self.sources {
            nodes[*idx].scan = source.scan_metrics().unwrap_or_default();
        }
        nodes
    }

    /// The per-node query profile; `None` at `ObsLevel::Off`.
    pub(crate) fn profile(&self) -> Option<QueryProfile> {
        self.obs
            .as_ref()
            .map(|obs| obs.profile_from(self.node_profiles()))
    }

    /// Where spill files go when a budget is set (a per-query temp
    /// directory is removed once every operator is gone).
    pub(crate) fn spill_dir(&self) -> Option<PathBuf> {
        self.spill_root.clone()
    }

    /// Fold one simultaneous sample of the total buffered state.
    pub(crate) fn observe_step(&self, total: usize) {
        if let Some(peak) = &self.step_peak {
            // relaxed: telemetry peak written by the one polling thread
            peak.fetch_max(total, Ordering::Relaxed);
        }
    }
}

/// What an actor records around one unit of work: the node's profile
/// counters (`Stats` and above) and a [`TraceEvent`] (when tracing).
/// With both off no clock is read at all.
struct Recorder {
    node: usize,
    obs: Option<Arc<NodeObs>>,
    /// `ObsLevel::Profile`: also feed the per-update histograms.
    histograms: bool,
    trace: Option<(TraceLog, String)>,
    query_start: Instant,
}

impl Recorder {
    fn begin(&self) -> Option<Instant> {
        (self.obs.is_some() || self.trace.is_some()).then(Instant::now)
    }

    /// `consumed` = (rows, frames) taken in; `traced_rows` = what a trace
    /// event reports (`None` = no event).
    fn finish(
        &self,
        begun: Option<Instant>,
        consumed: (u64, u64),
        outs: &[Update],
        traced_rows: Option<usize>,
    ) {
        let Some(begun) = begun else { return };
        let end = Instant::now();
        if let Some(obs) = &self.obs {
            obs.record_work(
                consumed.0,
                consumed.1,
                outs.iter().map(|u| u.frame.num_rows() as u64).sum(),
                outs.len() as u64,
                end.duration_since(begun).as_nanos() as u64,
                self.histograms,
            );
        }
        if let (Some((log, label)), Some(rows)) = (&self.trace, traced_rows) {
            log.record(TraceEvent {
                node: self.node,
                label: label.clone(),
                start: begun.duration_since(self.query_start),
                end: end.duration_since(self.query_start),
                rows,
            });
        }
    }
}

/// Emit every update in `outs` to every route; `false` = a target is gone.
fn publish(routes: &[(Target, usize)], outs: Vec<Update>, emit: Emit) -> bool {
    for out in outs {
        for &(target, port) in routes {
            if !emit(target, Message::Update(port, out.clone())) {
                return false;
            }
        }
    }
    true
}

fn forward_eof(routes: &[(Target, usize)], emit: Emit) {
    for &(target, port) in routes {
        emit(target, Message::Eof(port));
    }
}

/// A base-table reader: emits its partitions in read order, then EOF.
pub(crate) struct ReaderActor {
    source: Arc<dyn TableSource>,
    next_partition: usize,
    partitions: usize,
    rows_emitted: u64,
    total_rows: u64,
    /// EOF has been emitted (or a consumer is gone).
    pub(crate) done: bool,
    pub(crate) routes: Vec<(Target, usize)>,
    recorder: Recorder,
}

impl ReaderActor {
    /// Fraction of this source's partitions already read.
    pub(crate) fn progress(&self) -> f64 {
        self.next_partition as f64 / self.partitions.max(1) as f64
    }

    /// Read and emit the next partition; after the last one, emit EOF.
    /// Returns whether the reader has more to do (`false` also when a
    /// consumer is gone).
    pub(crate) fn read_next(&mut self, emit: Emit) -> Result<bool> {
        if self.next_partition < self.partitions {
            let begun = self.recorder.begin();
            let frame = self.source.partition(self.next_partition)?;
            self.next_partition += 1;
            let rows = frame.num_rows();
            self.rows_emitted += rows as u64;
            let source_id = self.recorder.node as u32;
            let progress = Progress::single(source_id, self.rows_emitted, self.total_rows);
            let outs = vec![Update::delta(frame, progress)];
            self.recorder.finish(begun, (0, 0), &outs, Some(rows));
            if !publish(&self.routes, outs, emit) {
                self.done = true;
                return Ok(false);
            }
        }
        if self.next_partition >= self.partitions {
            forward_eof(&self.routes, emit);
            self.done = true;
        }
        Ok(!self.done)
    }
}

/// An operator node: one operator, its input ports, its consumers.
pub(crate) struct NodeActor {
    op: Box<dyn Operator>,
    n_ports: usize,
    /// Input ports that have seen EOF.
    closed: usize,
    /// Buffered operator state after the last handled message.
    pub(crate) state_bytes: usize,
    pub(crate) routes: Vec<(Target, usize)>,
    recorder: Recorder,
    ledger: Arc<QueryLedger>,
}

impl NodeActor {
    /// Handle one message. Returns whether the node stays open: `false`
    /// once it has forwarded EOF (all ports closed) or a consumer is gone.
    pub(crate) fn handle(&mut self, msg: Message, emit: Emit) -> Result<bool> {
        let begun = self.recorder.begin();
        let (outs, rows_in) = match &msg {
            Message::Update(port, update) => {
                let rows = update.frame.num_rows();
                (self.op.on_update(*port, update)?, Some(rows))
            }
            Message::Eof(port) => {
                self.closed += 1;
                (self.op.on_eof(*port)?, None)
            }
        };
        let consumed = rows_in.map_or((0, 0), |rows| (rows as u64, 1));
        self.recorder.finish(begun, consumed, &outs, rows_in);
        self.sample_state();
        if !publish(&self.routes, outs, emit) {
            return Ok(false);
        }
        if matches!(msg, Message::Eof(_)) && self.closed == self.n_ports {
            forward_eof(&self.routes, emit);
            return Ok(false);
        }
        Ok(true)
    }

    /// Fold this node's buffered state into its peak cell, its profile
    /// gauge, and (at `Profile`) its per-shard report.
    fn sample_state(&mut self) {
        let node = self.recorder.node;
        self.state_bytes = self.op.state_bytes();
        // relaxed: single-writer peak cell; readers tolerate a stale mid-run sample
        self.ledger.node_peaks[node].fetch_max(self.state_bytes, Ordering::Relaxed);
        if let Some(obs) = &self.recorder.obs {
            obs.observe_state(self.state_bytes);
        }
        if let Some(reports) = &self.ledger.shard_reports {
            *reports[node].lock() = self.op.report().shard_state_bytes;
        }
    }
}

/// A built query: actors wired to their consumers, the sink, the ledger.
pub(crate) struct Query {
    kind: ExecutorKind,
    readers: Vec<ReaderActor>,
    /// Operator actors by node id (`None` at read nodes).
    nodes: Vec<Option<NodeActor>>,
    sink: SinkState,
    ledger: Arc<QueryLedger>,
    channel_capacity: usize,
}

impl Query {
    /// The single constructor: validate `graph`, resolve `config`'s
    /// memory governance and observability, build one actor per node.
    /// `kind` names the driver [`Self::start`] hands the actors to (the
    /// config's own executor kind is ignored, so `SteppedExecutor` stays
    /// stepped). `EngineConfig::apply_to_graph` is the caller's to run.
    pub(crate) fn build(
        graph: QueryGraph,
        config: &EngineConfig,
        kind: ExecutorKind,
    ) -> Result<Query> {
        let sink = graph
            .sink_id()
            .ok_or_else(|| DataError::Invalid("query graph has no sink".into()))?;
        let metas = graph.resolve_metas()?;
        let sources = wake_core::plan::source_handles_by_node(&graph);
        if sources.is_empty() {
            return Err(DataError::Invalid("query graph has no sources".into()));
        }
        let query_start = Instant::now();
        let spill = config
            .spill_config()
            .build_plan(graph.shardable_node_count())?;
        let obs_level = config.obs_level();
        let obs = obs_level.enabled().then(|| {
            let (labels, inputs) = graph.plan_skeleton();
            QueryObs::new(obs_level, labels, inputs)
        });
        // With observability on, each spillable operator gets a child
        // spill plan whose ledger records locally *and* forwards to the
        // query-wide parent, so the rollup is unchanged. Off: operators
        // share the parent plan directly (no forwarding).
        let node_plans: Vec<_> = (0..graph.len())
            .map(|idx| match (&obs, &spill) {
                (Some(_), Some(p)) if graph.is_shardable(NodeId(idx)) => Some(p.for_node()),
                _ => None,
            })
            .collect();
        let ledger = Arc::new(QueryLedger {
            governor: spill.as_ref().map(|p| p.governor.clone()),
            node_governors: node_plans
                .iter()
                .map(|p| p.as_ref().map(|p| p.governor.clone()))
                .collect(),
            obs: obs.clone(),
            sources,
            node_peaks: (0..graph.len()).map(|_| AtomicUsize::new(0)).collect(),
            step_peak: (kind == ExecutorKind::Stepped).then(|| AtomicUsize::new(0)),
            shard_reports: obs_level
                .is_profile()
                .then(|| (0..graph.len()).map(|_| Mutex::new(Vec::new())).collect()),
            cancel: CancelHandle::default(),
            spill_root: spill.as_ref().map(|p| p.dir.root().to_path_buf()),
        });

        // Downstream routing table: (target, port) per consumer edge; the
        // sink node additionally feeds the collector.
        let mut routes: Vec<Vec<(Target, usize)>> = graph
            .consumers()
            .into_iter()
            .map(|cs| cs.into_iter().map(|(c, port)| (c.0, port)).collect())
            .collect();
        routes[sink.0].insert(0, (graph.len(), 0));

        // `Parallelism::Auto` means "use the machine". Inline, one node
        // works at a time and gets every core; thread-per-actor, all work
        // at once and share them (five hash-keyed nodes on 16 cores must
        // not mean 5 × 16 barrier-synchronized shard workers). `Fixed`
        // requests are honoured verbatim.
        let auto_share = match kind {
            ExecutorKind::Stepped => 1,
            ExecutorKind::Threaded => graph.shardable_node_count().max(1),
        };
        let shards_for = |node: NodeId| match graph.parallelism_of(node) {
            Parallelism::Auto => (graph.shards_for(node) / auto_share).max(1),
            Parallelism::Fixed(_) => graph.shards_for(node),
        };

        let trace = config.trace();
        let mut readers = Vec::new();
        let mut nodes = Vec::with_capacity(graph.len());
        for (idx, (node, routes)) in graph.nodes().iter().zip(routes).enumerate() {
            let recorder = |label: String| Recorder {
                node: idx,
                obs: obs.as_ref().map(|o| o.node(idx)),
                histograms: obs_level.is_profile(),
                trace: trace.clone().map(|log| (log, label)),
                query_start,
            };
            match &node.kind {
                NodeKind::Read { source } => {
                    let meta = source.meta();
                    readers.push(ReaderActor {
                        source: source.clone(),
                        next_partition: 0,
                        partitions: meta.num_partitions(),
                        rows_emitted: 0,
                        total_rows: meta.total_rows() as u64,
                        done: false,
                        routes,
                        recorder: recorder(format!("read({})", meta.name)),
                    });
                    nodes.push(None);
                }
                op_kind => {
                    let inputs: Vec<&wake_core::EdfMeta> =
                        node.inputs.iter().map(|i| &metas[i.0]).collect();
                    let op = build_operator_spilling(
                        op_kind,
                        &inputs,
                        shards_for(NodeId(idx)),
                        node_plans[idx].as_ref().or(spill.as_ref()),
                    )?;
                    nodes.push(Some(NodeActor {
                        op,
                        n_ports: node.inputs.len(),
                        closed: 0,
                        state_bytes: 0,
                        routes,
                        recorder: recorder(format!("{op_kind:?}")),
                        ledger: ledger.clone(),
                    }));
                }
            }
        }

        let telemetry = obs.is_some().then(|| ledger.clone());
        // `spill` drops here: the operators hold the only spill-dir
        // references now, so a per-query temp dir goes when they do.
        Ok(Query {
            kind,
            readers,
            nodes,
            sink: SinkState::new(
                metas[sink.0].kind,
                metas[sink.0].schema.clone(),
                query_start,
                telemetry,
            ),
            ledger,
            channel_capacity: config.channel_capacity(),
        })
    }

    /// Hand the actors to the driver and return the lazy estimate
    /// stream. Inline: nothing runs until the stream is polled.
    /// Thread-per-actor: the actor threads are spawned here.
    pub(crate) fn start(self) -> EstimateStream {
        let driver: Box<dyn Driver> = match self.kind {
            ExecutorKind::Stepped => Box::new(crate::stepped::InlineDriver {
                readers: self.readers,
                nodes: self.nodes,
                queue: Default::default(),
                ledger: self.ledger.clone(),
            }),
            ExecutorKind::Threaded => Box::new(crate::threaded::ThreadDriver::spawn(
                self.readers,
                self.nodes,
                self.channel_capacity,
                self.ledger.clone(),
            )),
        };
        EstimateStream {
            ledger: self.ledger,
            sink: self.sink,
            driver,
        }
    }
}
