//! Per-node query profiles: the live recording side ([`QueryObs`] /
//! [`NodeObs`], shared atomics written by the executors) and the
//! snapshot side ([`QueryProfile`] / [`NodeProfile`], plain values with
//! an annotated-plan-tree rendering and a JSON export).

use crate::json::Obj;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
use crate::ObsLevel;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wake_data::ScanMetrics;
use wake_store::SpillMetrics;

/// Live per-node instruments. One per plan node, pre-registered at
/// build time; executors record through relaxed atomic adds only.
#[derive(Debug)]
pub struct NodeObs {
    pub rows_in: Arc<Counter>,
    pub rows_out: Arc<Counter>,
    pub frames_in: Arc<Counter>,
    pub frames_out: Arc<Counter>,
    /// Wall-clock nanoseconds this node spent processing updates.
    pub busy_nanos: Arc<Counter>,
    /// Current / peak buffered state bytes for this node.
    pub state_bytes: Arc<Gauge>,
    /// Per-update latency histogram (recorded at `Profile` only).
    pub batch_nanos: Arc<Histogram>,
    /// Per-update output-row histogram (recorded at `Profile` only).
    pub batch_rows: Arc<Histogram>,
}

impl NodeObs {
    fn registered(registry: &MetricsRegistry, id: usize) -> Self {
        NodeObs {
            rows_in: registry.counter(&format!("node{id}.rows_in")),
            rows_out: registry.counter(&format!("node{id}.rows_out")),
            frames_in: registry.counter(&format!("node{id}.frames_in")),
            frames_out: registry.counter(&format!("node{id}.frames_out")),
            busy_nanos: registry.counter(&format!("node{id}.busy_nanos")),
            state_bytes: registry.gauge(&format!("node{id}.state_bytes")),
            batch_nanos: registry
                .histogram(&format!("node{id}.batch_nanos"), crate::LATENCY_BOUNDS_NS),
            batch_rows: registry.histogram(&format!("node{id}.batch_rows"), crate::ROWS_BOUNDS),
        }
    }

    /// Record one processed unit of work (an update, an EOF flush, or a
    /// source partition read). `profile` additionally feeds the
    /// histograms (the `ObsLevel::Profile` extra).
    #[inline]
    pub fn record_work(
        &self,
        rows_in: u64,
        frames_in: u64,
        rows_out: u64,
        frames_out: u64,
        nanos: u64,
        profile: bool,
    ) {
        self.rows_in.add(rows_in);
        self.frames_in.add(frames_in);
        self.rows_out.add(rows_out);
        self.frames_out.add(frames_out);
        self.busy_nanos.add(nanos);
        if profile {
            self.batch_nanos.record(nanos);
            self.batch_rows.record(rows_out);
        }
    }

    /// Sample this node's current buffered state (folds into its peak).
    #[inline]
    pub fn observe_state(&self, bytes: usize) {
        self.state_bytes.set(bytes);
    }
}

/// Live observability for one query: per-node instruments plus the plan
/// skeleton (stable labels and input edges) captured before execution
/// starts — the threaded engine consumes its graph at spawn time, so
/// this is the only place the topology survives.
#[derive(Debug)]
pub struct QueryObs {
    pub level: ObsLevel,
    labels: Vec<String>,
    inputs: Vec<Vec<usize>>,
    nodes: Vec<Arc<NodeObs>>,
    registry: Arc<MetricsRegistry>,
    start: Instant,
}

impl QueryObs {
    /// Pre-register instruments for a plan with the given per-node
    /// labels and input edges (`inputs[i]` = ids feeding node `i`).
    pub fn new(level: ObsLevel, labels: Vec<String>, inputs: Vec<Vec<usize>>) -> Arc<QueryObs> {
        debug_assert_eq!(labels.len(), inputs.len());
        let registry = Arc::new(MetricsRegistry::new());
        let nodes = (0..labels.len())
            .map(|id| Arc::new(NodeObs::registered(&registry, id)))
            .collect();
        Arc::new(QueryObs {
            level,
            labels,
            inputs,
            nodes,
            registry,
            start: Instant::now(),
        })
    }

    /// The live instrument handle for node `id`.
    pub fn node(&self, id: usize) -> Arc<NodeObs> {
        self.nodes[id].clone()
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The underlying registry (named access to every instrument).
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        self.registry.clone()
    }

    /// Time since the query started.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Snapshot every node into plain [`NodeProfile`]s. Spill and scan
    /// attribution are executor-owned (child spill ledgers, per-source
    /// scan telemetry) and start zeroed here; the executor fills them in
    /// before exposing the profile.
    pub fn snapshot_nodes(&self) -> Vec<NodeProfile> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(id, obs)| NodeProfile {
                id,
                label: self.labels[id].clone(),
                inputs: self.inputs[id].clone(),
                rows_in: obs.rows_in.get(),
                rows_out: obs.rows_out.get(),
                frames_in: obs.frames_in.get(),
                frames_out: obs.frames_out.get(),
                busy: Duration::from_nanos(obs.busy_nanos.get()),
                state_bytes: obs.state_bytes.get(),
                peak_state_bytes: obs.state_bytes.peak(),
                spill: SpillMetrics::default(),
                scan: ScanMetrics::default(),
                shard_state_bytes: Vec::new(),
                batch_nanos: self.level.is_profile().then(|| obs.batch_nanos.snapshot()),
                batch_rows: self.level.is_profile().then(|| obs.batch_rows.snapshot()),
            })
            .collect()
    }

    /// Assemble a full [`QueryProfile`] from snapshot nodes (after the
    /// executor has filled in spill/scan attribution).
    pub fn profile_from(&self, nodes: Vec<NodeProfile>) -> QueryProfile {
        QueryProfile {
            level: self.level,
            elapsed: self.elapsed(),
            nodes,
        }
    }
}

/// Point-in-time profile of one plan node: plain values, safe to hold
/// after the query is gone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeProfile {
    /// Plan node id (index into the query graph).
    pub id: usize,
    /// Stable human-readable label, e.g. `Agg(by ["k"], 2 specs)`.
    pub label: String,
    /// Ids of the nodes feeding this one.
    pub inputs: Vec<usize>,
    pub rows_in: u64,
    pub rows_out: u64,
    pub frames_in: u64,
    pub frames_out: u64,
    /// Wall-clock time spent processing updates in this node.
    pub busy: Duration,
    /// Buffered state bytes at the last sample.
    pub state_bytes: usize,
    /// High-water mark of buffered state bytes.
    pub peak_state_bytes: usize,
    /// Spill I/O attributed to this node (child ledger counts).
    pub spill: SpillMetrics,
    /// Segment-scan work attributed to this node (read nodes only).
    pub scan: ScanMetrics,
    /// Per-shard buffered state at the last sample (`Profile` level on
    /// sharded operators; empty otherwise).
    pub shard_state_bytes: Vec<usize>,
    /// Per-update latency histogram (`Profile` level only).
    pub batch_nanos: Option<HistogramSnapshot>,
    /// Per-update output-row histogram (`Profile` level only).
    pub batch_rows: Option<HistogramSnapshot>,
}

/// A whole query's profile: one [`NodeProfile`] per plan node plus the
/// query's elapsed wall clock. Produced by `RunStats.nodes` /
/// `EstimateStream::profile()`; rendered by [`render`] and exported by
/// [`to_json`].
///
/// [`render`]: QueryProfile::render
/// [`to_json`]: QueryProfile::to_json
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryProfile {
    pub level: ObsLevel,
    /// Wall clock from query start to this snapshot.
    pub elapsed: Duration,
    pub nodes: Vec<NodeProfile>,
}

impl QueryProfile {
    /// Component-wise sum of per-node spill attribution. Equals the
    /// query-wide `RunStats.spill` rollup exactly (the parent ledger is
    /// the sum of its children by construction) when snapshotted at the
    /// same instant; on a live stream the two reads race benignly.
    pub fn total_spill(&self) -> SpillMetrics {
        let mut total = SpillMetrics::default();
        for n in &self.nodes {
            total.spilled_bytes += n.spill.spilled_bytes;
            total.chunks_written += n.spill.chunks_written;
            total.evictions += n.spill.evictions;
            total.rehydrations += n.spill.rehydrations;
            total.delta_bytes += n.spill.delta_bytes;
            total.delta_chunks += n.spill.delta_chunks;
            total.compactions += n.spill.compactions;
            total.io_retries += n.spill.io_retries;
        }
        total
    }

    /// Component-wise sum of per-node scan attribution (= the
    /// `RunStats.scan` rollup, which sums the same per-source counters).
    pub fn total_scan(&self) -> ScanMetrics {
        let mut total = ScanMetrics::default();
        for n in &self.nodes {
            total.merge(&n.scan);
        }
        total
    }

    /// Sum of per-node busy time (exceeds elapsed wall clock under the
    /// threaded engine: nodes run concurrently).
    pub fn total_busy(&self) -> Duration {
        self.nodes.iter().map(|n| n.busy).sum()
    }

    /// Sum of per-node peak state bytes: an upper bound on the true
    /// simultaneous peak (each node may peak at a different moment).
    pub fn peak_state_upper_bound(&self) -> usize {
        self.nodes.iter().map(|n| n.peak_state_bytes).sum()
    }

    /// The sink: the node no other node consumes (falls back to the
    /// highest id under multi-root degenerate plans).
    fn root(&self) -> Option<usize> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut consumed = vec![false; self.nodes.len()];
        for n in &self.nodes {
            for &i in &n.inputs {
                if i < consumed.len() {
                    consumed[i] = true;
                }
            }
        }
        self.nodes
            .iter()
            .rev()
            .find(|n| !consumed[n.id])
            .map(|n| n.id)
            .or(Some(self.nodes.len() - 1))
    }

    /// The annotated plan tree: one line per node, sink at the top,
    /// inputs indented beneath their consumer.
    pub fn render(&self) -> String {
        let mut out = format!(
            "QueryProfile [{}] elapsed {}\n",
            self.level.name(),
            fmt_duration(self.elapsed)
        );
        if let Some(root) = self.root() {
            self.render_node(root, "", "", &mut out);
        } else {
            out.push_str("(no nodes)\n");
        }
        out
    }

    fn render_node(&self, id: usize, pad: &str, child_pad: &str, out: &mut String) {
        let Some(n) = self.nodes.iter().find(|n| n.id == id) else {
            return;
        };
        out.push_str(pad);
        out.push_str(&n.summary_line());
        out.push('\n');
        let k = n.inputs.len();
        for (i, &input) in n.inputs.iter().enumerate() {
            let last = i == k - 1;
            let branch = if last { "└─ " } else { "├─ " };
            let cont = if last { "   " } else { "│  " };
            self.render_node(
                input,
                &format!("{child_pad}{branch}"),
                &format!("{child_pad}{cont}"),
                out,
            );
        }
    }

    /// Machine-readable export (the workspace has no serde; see
    /// [`crate::json`]). Shape:
    /// `{"level":…,"elapsed_ns":…,"nodes":[{…}, …]}`.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("level", self.level.name())
            .u64("elapsed_ns", self.elapsed.as_nanos() as u64)
            .array("nodes", self.nodes.iter().map(NodeProfile::to_json))
            .build()
    }
}

impl NodeProfile {
    /// One human-readable line for the annotated plan tree.
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "{}  rows {}→{} frames {}→{} busy {} peak {}",
            self.label,
            self.rows_in,
            self.rows_out,
            self.frames_in,
            self.frames_out,
            fmt_duration(self.busy),
            fmt_bytes(self.peak_state_bytes),
        );
        if self.spill != SpillMetrics::default() {
            line.push_str(&format!(
                " spill {} ({} evictions, {} delta, {} compactions, {} retries)",
                fmt_bytes(self.spill.spilled_bytes),
                self.spill.evictions,
                fmt_bytes(self.spill.delta_bytes),
                self.spill.compactions,
                self.spill.io_retries,
            ));
        }
        if self.scan != ScanMetrics::default() {
            line.push_str(&format!(
                " scan {}/{} cols, {}/{} zones pruned, {} decoded in {}",
                self.scan.columns_read,
                self.scan.columns_total,
                self.scan.zones_pruned,
                self.scan.zones_total,
                fmt_bytes(self.scan.decompressed_bytes as usize),
                fmt_duration(Duration::from_nanos(self.scan.decode_nanos)),
            ));
        }
        line
    }

    fn to_json(&self) -> String {
        let (spill, scan) = (&self.spill, &self.scan);
        let mut obj = Obj::new()
            .u64("id", self.id as u64)
            .str("label", &self.label)
            .array("inputs", &self.inputs)
            .u64("rows_in", self.rows_in)
            .u64("rows_out", self.rows_out)
            .u64("frames_in", self.frames_in)
            .u64("frames_out", self.frames_out)
            .u64("busy_ns", self.busy.as_nanos() as u64)
            .u64("state_bytes", self.state_bytes as u64)
            .u64("peak_state_bytes", self.peak_state_bytes as u64)
            .raw(
                "spill",
                &Obj::new()
                    .u64("spilled_bytes", spill.spilled_bytes as u64)
                    .u64("chunks_written", spill.chunks_written as u64)
                    .u64("evictions", spill.evictions as u64)
                    .u64("rehydrations", spill.rehydrations as u64)
                    .u64("delta_bytes", spill.delta_bytes as u64)
                    .u64("delta_chunks", spill.delta_chunks as u64)
                    .u64("compactions", spill.compactions as u64)
                    .u64("io_retries", spill.io_retries as u64)
                    .build(),
            )
            .raw(
                "scan",
                &Obj::new()
                    .u64("zones_total", scan.zones_total)
                    .u64("zones_pruned", scan.zones_pruned)
                    .u64("zones_scanned", scan.zones_scanned)
                    .u64("compressed_bytes", scan.compressed_bytes)
                    .u64("decompressed_bytes", scan.decompressed_bytes)
                    .u64("decode_nanos", scan.decode_nanos)
                    .u64("columns_read", scan.columns_read)
                    .u64("columns_total", scan.columns_total)
                    .build(),
            );
        if !self.shard_state_bytes.is_empty() {
            obj = obj.array("shard_state_bytes", &self.shard_state_bytes);
        }
        if let Some(h) = &self.batch_nanos {
            obj = obj.raw("batch_nanos", &histogram_json(h));
        }
        if let Some(h) = &self.batch_rows {
            obj = obj.raw("batch_rows", &histogram_json(h));
        }
        obj.build()
    }
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    Obj::new()
        .array("bounds", &h.bounds)
        .array("counts", &h.counts)
        .u64("sum", h.sum)
        .u64("total", h.total)
        .build()
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

fn fmt_bytes(b: usize) -> String {
    if b < 1024 {
        format!("{b}B")
    } else if b < 1024 * 1024 {
        format!("{:.1}KB", b as f64 / 1024.0)
    } else if b < 1024 * 1024 * 1024 {
        format!("{:.1}MB", b as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.2}GB", b as f64 / (1024.0 * 1024.0 * 1024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_obs(level: ObsLevel) -> Arc<QueryObs> {
        // 0: Read, 1: Filter(0), 2: Agg(1) — a little linear plan.
        QueryObs::new(
            level,
            vec![
                "Read(t)".into(),
                "Filter(x > 1)".into(),
                "Agg(by [\"k\"], 1 specs)".into(),
            ],
            vec![vec![], vec![0], vec![1]],
        )
    }

    #[test]
    fn records_and_snapshots_per_node() {
        let obs = sample_obs(ObsLevel::Stats);
        obs.node(1).record_work(100, 1, 40, 1, 5_000, false);
        obs.node(1).record_work(50, 1, 10, 1, 3_000, false);
        obs.node(2).observe_state(4096);
        obs.node(2).observe_state(1024);
        let nodes = obs.snapshot_nodes();
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[1].rows_in, 150);
        assert_eq!(nodes[1].rows_out, 50);
        assert_eq!(nodes[1].frames_in, 2);
        assert_eq!(nodes[1].busy, Duration::from_nanos(8_000));
        assert_eq!(nodes[2].state_bytes, 1024);
        assert_eq!(nodes[2].peak_state_bytes, 4096);
        // Stats level: no histograms captured.
        assert!(nodes[1].batch_nanos.is_none());
        let profile = obs.profile_from(nodes);
        assert_eq!(profile.level, ObsLevel::Stats);
        assert!(profile.elapsed >= Duration::ZERO);
    }

    #[test]
    fn profile_level_captures_histograms() {
        let obs = sample_obs(ObsLevel::Profile);
        obs.node(1).record_work(100, 1, 40, 1, 5_000, true);
        let nodes = obs.snapshot_nodes();
        let h = nodes[1].batch_nanos.as_ref().unwrap();
        assert_eq!(h.total, 1);
        assert_eq!(h.sum, 5_000);
        assert_eq!(nodes[1].batch_rows.as_ref().unwrap().sum, 40);
    }

    #[test]
    fn render_walks_tree_from_sink() {
        let obs = sample_obs(ObsLevel::Stats);
        let profile = obs.profile_from(obs.snapshot_nodes());
        let text = profile.render();
        let agg_at = text.find("Agg").unwrap();
        let filter_at = text.find("Filter").unwrap();
        let read_at = text.find("Read").unwrap();
        assert!(agg_at < filter_at && filter_at < read_at, "{text}");
        assert!(text.contains("└─ "), "{text}");
    }

    #[test]
    fn totals_sum_over_nodes() {
        let obs = sample_obs(ObsLevel::Stats);
        let mut nodes = obs.snapshot_nodes();
        nodes[0].scan.zones_total = 10;
        nodes[0].scan.zones_pruned = 4;
        nodes[2].spill.spilled_bytes = 100;
        nodes[2].spill.evictions = 2;
        nodes[1].peak_state_bytes = 10;
        nodes[2].peak_state_bytes = 30;
        let profile = obs.profile_from(nodes);
        assert_eq!(profile.total_scan().zones_pruned, 4);
        assert_eq!(profile.total_spill().spilled_bytes, 100);
        assert_eq!(profile.total_spill().evictions, 2);
        assert_eq!(profile.peak_state_upper_bound(), 40);
    }

    #[test]
    fn json_export_is_well_formed() {
        let obs = QueryObs::new(
            ObsLevel::Profile,
            vec!["Read(\"quoted\\path\")".into(), "Agg".into()],
            vec![vec![], vec![0]],
        );
        obs.node(1).record_work(10, 1, 5, 1, 100, true);
        let profile = obs.profile_from(obs.snapshot_nodes());
        let json = profile.to_json();
        assert!(json.starts_with("{\"level\":\"profile\""), "{json}");
        assert!(json.contains("\\\"quoted\\\\path\\\""), "{json}");
        assert!(json.contains("\"batch_nanos\":{\"bounds\":["), "{json}");
        assert!(json.contains("\"spill\":{"), "{json}");
        assert!(json.contains("\"scan\":{"), "{json}");
        // Balanced braces/brackets (cheap well-formedness check given no
        // JSON parser in the workspace).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }

    #[test]
    fn registry_names_are_stable() {
        let obs = sample_obs(ObsLevel::Stats);
        obs.node(0).rows_in.add(7);
        let snap = obs.registry().snapshot();
        let entry = snap
            .iter()
            .find(|(n, _)| n == "node0.rows_in")
            .expect("pre-registered name");
        assert_eq!(entry.1, crate::MetricValue::Counter(7));
        // Per-node pre-registration covers every node.
        assert!(snap.iter().any(|(n, _)| n == "node2.batch_nanos"));
    }
}
