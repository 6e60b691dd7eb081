//! A query's statistics: the live recording side ([`NodeObs`], atomics
//! written by the node's actor) and the snapshot side ([`RunStats`] with
//! one [`NodeProfile`] per plan node — plain values, an annotated
//! plan-tree rendering and a JSON export).

use crate::json::Obj;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::ObsLevel;
use std::time::Duration;
use wake_data::ScanMetrics;
use wake_store::SpillMetrics;

/// Live counters of one plan node, written by its actor through relaxed
/// atomic adds only. The engine keeps one per node in its query ledger
/// at `Stats` and above, none at `Off`.
#[derive(Debug, Default)]
pub struct NodeObs {
    rows_in: Counter,
    rows_out: Counter,
    frames_in: Counter,
    frames_out: Counter,
    /// Wall-clock nanoseconds this node spent processing updates.
    busy_nanos: Counter,
    /// Buffered state bytes at the last sample.
    state_bytes: Gauge,
    /// Per-update latency and output-row histograms: allocated, and
    /// recorded into, at `Profile` only.
    batches: Option<(Histogram, Histogram)>,
}

impl NodeObs {
    pub fn new(level: ObsLevel) -> Self {
        let batches = || (Histogram::latency(), Histogram::rows());
        NodeObs {
            batches: level.is_profile().then(batches),
            ..NodeObs::default()
        }
    }

    /// Record one processed unit of work (an update, an EOF flush, or a
    /// source partition read).
    #[inline]
    pub fn record_work(
        &self,
        rows_in: u64,
        frames_in: u64,
        rows_out: u64,
        frames_out: u64,
        nanos: u64,
    ) {
        self.rows_in.add(rows_in);
        self.frames_in.add(frames_in);
        self.rows_out.add(rows_out);
        self.frames_out.add(frames_out);
        self.busy_nanos.add(nanos);
        if let Some((batch_nanos, batch_rows)) = &self.batches {
            batch_nanos.record(nanos);
            batch_rows.record(rows_out);
        }
    }

    /// Sample this node's current buffered state.
    #[inline]
    pub fn observe_state(&self, bytes: usize) {
        self.state_bytes.set(bytes);
    }

    /// The counters as plain values. What the node *is* (id, label,
    /// inputs) and what other ledgers hold about it (state peak, spill,
    /// scan, shard detail) is the caller's to fill in.
    pub fn snapshot(&self) -> NodeProfile {
        let batches = self.batches.as_ref();
        NodeProfile {
            rows_in: self.rows_in.get(),
            rows_out: self.rows_out.get(),
            frames_in: self.frames_in.get(),
            frames_out: self.frames_out.get(),
            busy: Duration::from_nanos(self.busy_nanos.get()),
            state_bytes: self.state_bytes.get(),
            batch_nanos: batches.map(|(nanos, _)| nanos.snapshot()),
            batch_rows: batches.map(|(_, rows)| rows.snapshot()),
            ..NodeProfile::default()
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

/// Execution statistics of one query run — the one record every reader
/// gets: the query-wide rollups plus one [`NodeProfile`] per plan node.
/// Readable from a live, exhausted, cancelled or failed stream; rendered
/// by [`render`] (EXPLAIN ANALYZE) and exported by [`to_json`].
///
/// [`render`]: RunStats::render
/// [`to_json`]: RunStats::to_json
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// The level the query recorded at.
    pub level: ObsLevel,
    /// Wall clock from query start to this snapshot.
    pub elapsed: Duration,
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
    /// Per-node profiles at [`ObsLevel::Stats`] or above; empty at `Off`.
    /// On a settled stream the per-node spill/scan attributions sum
    /// exactly to the rollups above (live reads race benignly); the
    /// per-node state peaks sum to an upper bound of `peak_state_bytes`
    /// (stepped) or to it exactly (threaded).
    pub nodes: Vec<NodeProfile>,
}

impl RunStats {
    /// Component-wise sum of per-node spill attribution.
    pub fn total_spill(&self) -> SpillMetrics {
        let mut total = SpillMetrics::default();
        for n in &self.nodes {
            total.merge(&n.spill);
        }
        total
    }

    /// Component-wise sum of per-node scan attribution.
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
        let mut consumed = vec![false; self.nodes.len()];
        for &i in self.nodes.iter().flat_map(|n| &n.inputs) {
            if let Some(seen) = consumed.get_mut(i) {
                *seen = true;
            }
        }
        let unconsumed = |n: &&NodeProfile| consumed.get(n.id) == Some(&false);
        self.nodes
            .iter()
            .rev()
            .find(unconsumed)
            .or(self.nodes.last())
            .map(|n| n.id)
    }

    /// EXPLAIN ANALYZE: a header with what the whole query cost — busy
    /// time over elapsed shows how much wall clock no node accounts for —
    /// then the annotated plan tree, one line per node, sink at the top,
    /// inputs indented beneath their consumer.
    pub fn render(&self) -> String {
        let (busy, elapsed) = (self.total_busy(), self.elapsed);
        let mut out = format!(
            "RunStats [{}] elapsed {} busy Σ {} ({:.0}% of elapsed) peak {}",
            self.level.name(),
            fmt_duration(elapsed),
            fmt_duration(busy),
            100.0 * busy.as_secs_f64() / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
            fmt_bytes(self.peak_state_bytes as u64),
        );
        push_counters(&mut out, "spill", self.spill.fields());
        push_counters(&mut out, "scan", self.scan.fields());
        if self.degraded {
            out.push_str(" degraded");
        }
        out.push('\n');
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
    /// [`crate::json`]). Shape: `{"level":…,"elapsed_ns":…,` the rollups
    /// `,"nodes":[{…}, …]}`.
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("level", self.level.name())
            .u64("elapsed_ns", self.elapsed.as_nanos() as u64)
            .u64("busy_ns", self.total_busy().as_nanos() as u64)
            .u64("peak_state_bytes", self.peak_state_bytes as u64)
            .raw("spill", &counters_json(self.spill.fields()))
            .raw("scan", &counters_json(self.scan.fields()))
            .bool("degraded", self.degraded)
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
            fmt_bytes(self.peak_state_bytes as u64),
        );
        push_counters(&mut line, "spill", self.spill.fields());
        push_counters(&mut line, "scan", self.scan.fields());
        line
    }

    fn to_json(&self) -> String {
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
            .raw("spill", &counters_json(self.spill.fields()))
            .raw("scan", &counters_json(self.scan.fields()));
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

/// One JSON object of a counter set, a key per counter.
fn counters_json(fields: impl Iterator<Item = (&'static str, u64)>) -> String {
    fields
        .fold(Obj::new(), |obj, (name, value)| obj.u64(name, value))
        .build()
}

/// Append ` {tag} [name value, …]` listing a counter set's non-zero
/// counters — nothing when all are zero. A `_bytes` / `_nanos` suffix
/// picks the unit the value is shown in.
fn push_counters(line: &mut String, tag: &str, fields: impl Iterator<Item = (&'static str, u64)>) {
    let shown: Vec<String> = fields
        .filter(|&(_, value)| value != 0)
        .map(|(name, value)| match name.rsplit_once('_') {
            Some((what, "bytes")) => format!("{what} {}", fmt_bytes(value)),
            Some((what, "nanos")) => {
                format!("{what} {}", fmt_duration(Duration::from_nanos(value)))
            }
            _ => format!("{name} {value}"),
        })
        .collect();
    if !shown.is_empty() {
        line.push_str(&format!(" {tag} [{}]", shown.join(", ")));
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

fn fmt_bytes(b: u64) -> String {
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

    /// 0: Read, 1: Filter(0), 2: Agg(1) — a little linear plan, as the
    /// engine's ledger would snapshot it.
    fn sample_stats(level: ObsLevel, obs: &[NodeObs]) -> RunStats {
        let labels = ["Read(t)", "Filter(x > 1)", "Agg(by [\"k\"], 1 specs)"];
        let nodes = obs.iter().zip(labels).enumerate();
        RunStats {
            level,
            nodes: nodes
                .map(|(id, (obs, label))| NodeProfile {
                    id,
                    label: label.into(),
                    inputs: id.checked_sub(1).into_iter().collect(),
                    ..obs.snapshot()
                })
                .collect(),
            ..RunStats::default()
        }
    }

    fn sample_obs(level: ObsLevel) -> [NodeObs; 3] {
        [(); 3].map(|()| NodeObs::new(level))
    }

    #[test]
    fn records_and_snapshots_per_node() {
        let obs = sample_obs(ObsLevel::Stats);
        obs[1].record_work(100, 1, 40, 1, 5_000);
        obs[1].record_work(50, 1, 10, 1, 3_000);
        obs[2].observe_state(4096);
        obs[2].observe_state(1024);
        let stats = sample_stats(ObsLevel::Stats, &obs);
        let nodes = &stats.nodes;
        assert_eq!(nodes.len(), 3);
        assert_eq!(nodes[1].rows_in, 150);
        assert_eq!(nodes[1].rows_out, 50);
        assert_eq!(nodes[1].frames_in, 2);
        assert_eq!(nodes[1].busy, Duration::from_nanos(8_000));
        assert_eq!(nodes[2].state_bytes, 1024);
        // The peak is the ledger's cell, not a second tracker in here.
        assert_eq!(nodes[2].peak_state_bytes, 0);
        // Stats level: no histograms allocated, none captured.
        assert!(obs[1].batches.is_none());
        assert!(nodes[1].batch_nanos.is_none());
        assert_eq!(stats.level, ObsLevel::Stats);
    }

    #[test]
    fn profile_level_captures_histograms() {
        let obs = sample_obs(ObsLevel::Profile);
        obs[1].record_work(100, 1, 40, 1, 5_000);
        let nodes = sample_stats(ObsLevel::Profile, &obs).nodes;
        let h = nodes[1].batch_nanos.as_ref().unwrap();
        assert_eq!(h.total, 1);
        assert_eq!(h.sum, 5_000);
        assert_eq!(nodes[1].batch_rows.as_ref().unwrap().sum, 40);
    }

    #[test]
    fn render_walks_tree_from_sink() {
        let mut stats = sample_stats(ObsLevel::Stats, &sample_obs(ObsLevel::Stats));
        let text = stats.render();
        let agg_at = text.find("Agg").unwrap();
        let filter_at = text.find("Filter").unwrap();
        let read_at = text.find("Read").unwrap();
        assert!(agg_at < filter_at && filter_at < read_at, "{text}");
        assert!(text.contains("└─ "), "{text}");
        // The header says what the whole query cost; a counter set shows
        // its non-zero counters, each in its unit.
        stats.elapsed = Duration::from_millis(10);
        stats.nodes[2].busy = Duration::from_millis(4);
        stats.peak_state_bytes = 2048;
        stats.spill.spilled_bytes = 4096;
        stats.spill.evictions = 2;
        stats.scan.decode_nanos = 1_500;
        stats.degraded = true;
        let header = stats.render().lines().next().unwrap().to_string();
        assert_eq!(
            header,
            "RunStats [stats] elapsed 10.0ms busy Σ 4.0ms (40% of elapsed) peak 2.0KB \
             spill [spilled 4.0KB, evictions 2] scan [decode 1.5µs] degraded"
        );
    }

    #[test]
    fn totals_sum_over_nodes() {
        let mut stats = sample_stats(ObsLevel::Stats, &sample_obs(ObsLevel::Stats));
        let nodes = &mut stats.nodes;
        nodes[0].scan.zones_total = 10;
        nodes[0].scan.zones_pruned = 4;
        nodes[2].spill.spilled_bytes = 100;
        nodes[2].spill.evictions = 2;
        nodes[1].spill.evictions = 1;
        nodes[1].peak_state_bytes = 10;
        nodes[2].peak_state_bytes = 30;
        assert_eq!(stats.total_scan().zones_pruned, 4);
        assert_eq!(stats.total_spill().spilled_bytes, 100);
        assert_eq!(stats.total_spill().evictions, 3);
        assert_eq!(stats.peak_state_upper_bound(), 40);
    }

    #[test]
    fn json_export_is_well_formed() {
        let obs = [
            NodeObs::new(ObsLevel::Profile),
            NodeObs::new(ObsLevel::Profile),
        ];
        obs[1].record_work(10, 1, 5, 1, 100);
        let mut stats = sample_stats(ObsLevel::Profile, &obs);
        stats.nodes[0].label = "Read(\"quoted\\path\")".into();
        let json = stats.to_json();
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

    /// The wire does not move: a node renders byte for byte what
    /// `NodeProfile::to_json` rendered before the counter sets were
    /// written by loop (captured at d28d3de), and the record puts its
    /// rollups between `elapsed_ns` and `nodes`.
    #[test]
    fn json_export_is_pinned_byte_for_byte() {
        let hist = |sum: u64| HistogramSnapshot {
            bounds: vec![1024, 4096],
            counts: vec![1, 2, 0],
            sum,
            total: 3,
        };
        let node = NodeProfile {
            id: 3,
            label: "Agg(by [\"k\"], 1 specs)\\path\n\u{1}".into(),
            inputs: vec![1, 2],
            rows_in: 1000,
            rows_out: 10,
            frames_in: 4,
            frames_out: 5,
            busy: Duration::from_nanos(1_234_567),
            state_bytes: 2048,
            peak_state_bytes: 4096,
            spill: SpillMetrics {
                spilled_bytes: 11,
                chunks_written: 12,
                evictions: 13,
                rehydrations: 14,
                delta_bytes: 15,
                delta_chunks: 16,
                compactions: 17,
                io_retries: 18,
            },
            scan: ScanMetrics {
                zones_total: 21,
                zones_pruned: 22,
                zones_scanned: 23,
                compressed_bytes: 24,
                decompressed_bytes: 25,
                decode_nanos: 26,
                columns_read: 27,
                columns_total: 28,
            },
            shard_state_bytes: vec![1024, 1024],
            batch_nanos: Some(hist(5000)),
            batch_rows: Some(hist(7)),
        };
        let plain = NodeProfile {
            label: "Read(t)".into(),
            ..NodeProfile::default()
        };
        const SPILL: &str = concat!(
            r#""spill":{"spilled_bytes":11,"chunks_written":12,"evictions":13,"rehydrations":14,"#,
            r#""delta_bytes":15,"delta_chunks":16,"compactions":17,"io_retries":18}"#,
        );
        const SCAN: &str = concat!(
            r#""scan":{"zones_total":21,"zones_pruned":22,"zones_scanned":23,"#,
            r#""compressed_bytes":24,"decompressed_bytes":25,"decode_nanos":26,"#,
            r#""columns_read":27,"columns_total":28}"#,
        );
        let node_json = [
            r#"{"id":3,"label":"Agg(by [\"k\"], 1 specs)\\path\n\u0001","inputs":[1,2],"#,
            r#""rows_in":1000,"rows_out":10,"frames_in":4,"frames_out":5,"busy_ns":1234567,"#,
            r#""state_bytes":2048,"peak_state_bytes":4096,"#,
            SPILL,
            ",",
            SCAN,
            r#","shard_state_bytes":[1024,1024],"#,
            r#""batch_nanos":{"bounds":[1024,4096],"counts":[1,2,0],"sum":5000,"total":3},"#,
            r#""batch_rows":{"bounds":[1024,4096],"counts":[1,2,0],"sum":7,"total":3}}"#,
        ]
        .concat();
        const PLAIN: &str = concat!(
            r#"{"id":0,"label":"Read(t)","inputs":[],"rows_in":0,"rows_out":0,"frames_in":0,"#,
            r#""frames_out":0,"busy_ns":0,"state_bytes":0,"peak_state_bytes":0,"#,
            r#""spill":{"spilled_bytes":0,"chunks_written":0,"evictions":0,"rehydrations":0,"#,
            r#""delta_bytes":0,"delta_chunks":0,"compactions":0,"io_retries":0},"#,
            r#""scan":{"zones_total":0,"zones_pruned":0,"zones_scanned":0,"compressed_bytes":0,"#,
            r#""decompressed_bytes":0,"decode_nanos":0,"columns_read":0,"columns_total":0}}"#,
        );
        assert_eq!(node.to_json(), node_json);
        assert_eq!(plain.to_json(), PLAIN);
        let stats = RunStats {
            level: ObsLevel::Profile,
            elapsed: Duration::from_nanos(9_000_000),
            peak_state_bytes: 4096,
            spill: node.spill,
            degraded: true,
            scan: node.scan,
            nodes: vec![plain, node],
        };
        let stats_json = [
            r#"{"level":"profile","elapsed_ns":9000000,"busy_ns":1234567,"#,
            r#""peak_state_bytes":4096,"#,
            SPILL,
            ",",
            SCAN,
            r#","degraded":true,"nodes":["#,
            PLAIN,
            ",",
            &node_json,
            "]}",
        ]
        .concat();
        assert_eq!(stats.to_json(), stats_json);
    }
}
