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
use wake_obs::{NodeObs, NodeProfile, ObsLevel, RunStats};
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

/// One node's entry in the [`QueryLedger`]: everything a statistic about
/// the node is read from. The node's actor is the only writer.
#[derive(Default)]
struct NodeEntry {
    /// Plan label and input edges (`Stats` and above).
    label: String,
    inputs: Vec<usize>,
    /// High-water mark of the node's buffered state — the one peak cell,
    /// folded by the actor after every message, at every level.
    peak: AtomicUsize,
    /// Work counters (`Stats` and above).
    obs: Option<NodeObs>,
    /// Child spill ledger of a spillable operator (`Stats` and above): it
    /// forwards to the query-wide governor, so attribution costs nothing
    /// in rollup accuracy.
    governor: Option<Arc<MemoryGovernor>>,
    /// The base table a read node scans, for its scan counters.
    source: Option<Arc<dyn TableSource>>,
    /// Latest per-shard state published by the actor (`Profile` only).
    shards: Option<Mutex<Vec<usize>>>,
}

impl NodeEntry {
    fn peak(&self) -> usize {
        // relaxed: telemetry peak; exact after join, approximate mid-run by design
        self.peak.load(Ordering::Relaxed)
    }

    fn scan(&self) -> ScanMetrics {
        let source = self.source.as_ref();
        source.and_then(|s| s.scan_metrics()).unwrap_or_default()
    }

    /// The node's profile (`None` at `Off`): counters from `obs`, spill
    /// from the child ledger, scan from a read node's own source,
    /// per-shard detail as the actor last published it.
    fn profile(&self, id: usize) -> Option<NodeProfile> {
        let shards = self.shards.as_ref().map(|s| s.lock().clone());
        Some(NodeProfile {
            id,
            label: self.label.clone(),
            inputs: self.inputs.clone(),
            peak_state_bytes: self.peak(),
            spill: spill_of(&self.governor),
            scan: self.scan(),
            shard_state_bytes: shards.unwrap_or_default(),
            ..self.obs.as_ref()?.snapshot()
        })
    }
}

fn spill_of(governor: &Option<Arc<MemoryGovernor>>) -> SpillMetrics {
    governor.as_ref().map(|g| g.metrics()).unwrap_or_default()
}

/// Everything a query's statistics are read from: the stream reads, the
/// actors write. It outlives the actors, so [`Self::snapshot`] stays
/// readable after exhaustion, cancellation, and a failed run.
pub(crate) struct QueryLedger {
    level: ObsLevel,
    start: Instant,
    /// The query-wide spill ledger (`None` = unbounded memory).
    governor: Option<Arc<MemoryGovernor>>,
    /// One entry per plan node, by node id.
    nodes: Vec<NodeEntry>,
    /// The query-wide peak when the driver can sample every node at one
    /// instant (inline: after each step). Thread-per-actor cannot; it
    /// leaves this `None` and reports the sum of the node peaks.
    step_peak: Option<AtomicUsize>,
    /// Checked by the stream on every poll and by every actor thread at
    /// every message.
    pub(crate) cancel: CancelHandle,
    spill_root: Option<PathBuf>,
}

impl QueryLedger {
    /// Execution statistics so far (complete once the query ended): the
    /// one place live state becomes a [`RunStats`].
    pub(crate) fn snapshot(&self) -> RunStats {
        let nodes = self.nodes.iter().enumerate();
        RunStats {
            level: self.level,
            elapsed: self.start.elapsed(),
            peak_state_bytes: match &self.step_peak {
                // relaxed: telemetry peak written by the one polling thread
                Some(peak) => peak.load(Ordering::Relaxed),
                None => self.nodes.iter().map(NodeEntry::peak).sum(),
            },
            spill: spill_of(&self.governor),
            degraded: self.degraded(),
            scan: self.scan(),
            nodes: nodes.filter_map(|(id, n)| n.profile(id)).collect(),
        }
    }

    /// Has the spill device failed persistently ([`RunStats::degraded`])?
    pub(crate) fn degraded(&self) -> bool {
        self.governor.as_ref().is_some_and(|g| g.is_poisoned())
    }

    /// Scan work so far, summed over every source that tracks any.
    pub(crate) fn scan(&self) -> ScanMetrics {
        let mut total = ScanMetrics::default();
        for node in &self.nodes {
            total.merge(&node.scan());
        }
        total
    }

    /// Bytes written to spill files so far.
    pub(crate) fn spilled_bytes(&self) -> u64 {
        spill_of(&self.governor).spilled_bytes as u64
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
    ledger: Arc<QueryLedger>,
    trace: Option<(TraceLog, String)>,
}

impl Recorder {
    fn entry(&self) -> &NodeEntry {
        &self.ledger.nodes[self.node]
    }

    fn begin(&self) -> Option<Instant> {
        (self.entry().obs.is_some() || self.trace.is_some()).then(Instant::now)
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
        if let Some(obs) = &self.entry().obs {
            obs.record_work(
                consumed.0,
                consumed.1,
                outs.iter().map(|u| u.frame.num_rows() as u64).sum(),
                outs.len() as u64,
                end.duration_since(begun).as_nanos() as u64,
            );
        }
        if let (Some((log, label)), Some(rows)) = (&self.trace, traced_rows) {
            log.record(TraceEvent {
                node: self.node,
                label: label.clone(),
                start: begun.duration_since(self.ledger.start),
                end: end.duration_since(self.ledger.start),
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

    /// Fold this node's buffered state into its ledger entry: the peak
    /// cell, the profile gauge, and (at `Profile`) the per-shard report.
    fn sample_state(&mut self) {
        self.state_bytes = self.op.state_bytes();
        let entry = self.recorder.entry();
        // relaxed: single-writer peak cell; readers tolerate a stale mid-run sample
        entry.peak.fetch_max(self.state_bytes, Ordering::Relaxed);
        if let Some(obs) = &entry.obs {
            obs.observe_state(self.state_bytes);
        }
        if let Some(shards) = &entry.shards {
            *shards.lock() = self.op.report().shard_state_bytes;
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
    /// driver, parallelism, memory governance and observability, build
    /// one actor per node. [`EngineConfig::start`] runs the planner
    /// passes first.
    pub(crate) fn build(graph: QueryGraph, config: &EngineConfig) -> Result<Query> {
        let kind = config.executor();
        let sink = graph
            .sink_id()
            .ok_or_else(|| DataError::Invalid("query graph has no sink".into()))?;
        let metas = graph.resolve_metas()?;
        if graph.sources().is_empty() {
            return Err(DataError::Invalid("query graph has no sources".into()));
        }
        let start = Instant::now();
        let spill = config
            .spill_config()
            .build_plan(graph.shardable_node_count())?;
        let level = config.obs_level();
        let on = level.enabled();
        // With observability on, each spillable operator gets a child
        // spill plan whose ledger records locally *and* forwards to the
        // query-wide parent, so the rollup is unchanged. Off: operators
        // share the parent plan directly (no forwarding).
        let node_plans: Vec<_> = (0..graph.len())
            .map(|idx| match &spill {
                Some(p) if on && graph.is_shardable(NodeId(idx)) => Some(p.for_node()),
                _ => None,
            })
            .collect();
        let entry = |(idx, node): (usize, &wake_core::graph::Node)| {
            // What the rollups need, at every level.
            let entry = NodeEntry {
                source: match &node.kind {
                    NodeKind::Read { source } => Some(source.clone()),
                    _ => None,
                },
                ..NodeEntry::default()
            };
            if !on {
                return entry;
            }
            NodeEntry {
                label: graph.node_label(NodeId(idx)),
                inputs: node.inputs.iter().map(|i| i.0).collect(),
                obs: Some(NodeObs::new(level)),
                governor: node_plans[idx].as_ref().map(|p| p.governor.clone()),
                shards: level.is_profile().then(Mutex::default),
                ..entry
            }
        };
        let ledger = Arc::new(QueryLedger {
            level,
            start,
            governor: spill.as_ref().map(|p| p.governor.clone()),
            nodes: graph.nodes().iter().enumerate().map(entry).collect(),
            step_peak: (kind == ExecutorKind::Stepped).then(|| AtomicUsize::new(0)),
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
        // requests are honoured verbatim. Only hash-keyed operators read
        // the count.
        let parallelism = config.parallelism().unwrap_or_default();
        let share = match (parallelism, kind) {
            (Parallelism::Auto, ExecutorKind::Threaded) => graph.shardable_node_count().max(1),
            _ => 1,
        };
        let shards = (parallelism.shards() / share).max(1);

        let trace = config.trace();
        let mut readers = Vec::new();
        let mut nodes = Vec::with_capacity(graph.len());
        for (idx, (node, routes)) in graph.nodes().iter().zip(routes).enumerate() {
            let recorder = |label: String| Recorder {
                node: idx,
                ledger: ledger.clone(),
                trace: trace.clone().map(|log| (log, label)),
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
                        shards,
                        node_plans[idx].as_ref().or(spill.as_ref()),
                    )?;
                    nodes.push(Some(NodeActor {
                        op,
                        n_ports: node.inputs.len(),
                        closed: 0,
                        state_bytes: 0,
                        routes,
                        recorder: recorder(format!("{op_kind:?}")),
                    }));
                }
            }
        }

        let telemetry = level.enabled().then(|| ledger.clone());
        // `spill` drops here: the operators hold the only spill-dir
        // references now, so a per-query temp dir goes when they do.
        Ok(Query {
            kind,
            readers,
            nodes,
            sink: SinkState::new(
                metas[sink.0].kind,
                metas[sink.0].schema.clone(),
                start,
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
