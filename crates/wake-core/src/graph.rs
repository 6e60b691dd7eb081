//! Logical query graphs — the paper's *Query Service* (§7.1).
//!
//! Users express a query as a DAG of nodes (reader, map, filter, join,
//! aggregate, sort/limit) connected by edges carrying edf streams; Fig 6
//! shows the graph for the running TPC-H Q18 example. Graphs are built
//! incrementally (`read`/`map`/.../`sink`) and say only *what* to compute:
//! `wake-engine`'s `EngineConfig::start` decides how (driver, shards,
//! memory) and instantiates one [`crate::ops::Operator`] per node.

use crate::agg::AggSpec;
use crate::meta::EdfMeta;
pub use crate::ops::join::JoinKind;
use crate::ops::{AggOp, FilterOp, JoinOp, MapOp, Operator, SortOp};
use crate::update::UpdateKind;
use crate::Result;
use std::collections::HashSet;
use std::sync::Arc;
use wake_data::{DataError, TableSource};
use wake_expr::Expr;
use wake_store::SpillEnv;

/// Intra-operator partition parallelism: how many hash-range shards a
/// hash-keyed node (join, group-by) splits its state into. A query sets
/// it through wake-engine's `EngineConfig::with_parallelism`; see
/// [`crate::ops::sharded`] for the execution model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Use the machine: [`Self::shards`] is the available core count,
    /// which the thread-per-actor driver divides among hash-keyed nodes.
    #[default]
    Auto,
    /// Exactly `n` shards; `Fixed(1)` reproduces the unsharded
    /// single-threaded operator code path byte for byte.
    Fixed(usize),
}

impl Parallelism {
    /// Resolve to a concrete shard count (≥ 1).
    pub fn shards(self) -> usize {
        match self {
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Parallelism::Fixed(n) => n.max(1),
        }
    }
}

/// Node handle within a [`QueryGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// The operation a node performs.
#[derive(Clone)]
pub enum NodeKind {
    /// Base-table reader (source node, no inputs).
    Read { source: Arc<dyn TableSource> },
    /// Projection with named expressions.
    Map { exprs: Vec<(Expr, String)> },
    /// Selection by predicate.
    Filter { predicate: Expr },
    /// Binary join (inputs: [left, right]).
    Join {
        left_on: Vec<String>,
        right_on: Vec<String>,
        kind: JoinKind,
    },
    /// Group-by aggregation; `with_variance` adds `{alias}__var` columns;
    /// `fixed_growth` pins the growth power (ablation of §5.2's fit).
    Agg {
        keys: Vec<String>,
        specs: Vec<AggSpec>,
        with_variance: bool,
        fixed_growth: Option<f64>,
    },
    /// Order-by / limit (Case 3).
    Sort {
        by: Vec<String>,
        descending: Vec<bool>,
        limit: Option<usize>,
    },
}

impl std::fmt::Debug for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeKind::Read { source } => write!(f, "Read({})", source.meta().name),
            NodeKind::Map { exprs } => write!(f, "Map({} exprs)", exprs.len()),
            NodeKind::Filter { predicate } => write!(f, "Filter({predicate})"),
            NodeKind::Join {
                left_on,
                right_on,
                kind,
            } => {
                write!(f, "Join({kind:?} on {left_on:?}={right_on:?})")
            }
            NodeKind::Agg { keys, specs, .. } => {
                write!(f, "Agg(by {keys:?}, {} specs)", specs.len())
            }
            NodeKind::Sort { by, limit, .. } => write!(f, "Sort(by {by:?}, limit {limit:?})"),
        }
    }
}

/// One node: an operation plus its input edges.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub inputs: Vec<NodeId>,
}

/// A DAG of edf operations with one designated sink.
#[derive(Debug, Default, Clone)]
pub struct QueryGraph {
    nodes: Vec<Node>,
    sink: Option<NodeId>,
}

impl QueryGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `node`'s operator honours partition parallelism.
    pub fn is_shardable(&self, node: NodeId) -> bool {
        matches!(
            self.nodes[node.0].kind,
            NodeKind::Join { .. } | NodeKind::Agg { .. }
        )
    }

    /// Number of hash-keyed (shardable) nodes — the memory budget is
    /// apportioned over these.
    pub fn shardable_node_count(&self) -> usize {
        (0..self.nodes.len())
            .filter(|&i| self.is_shardable(NodeId(i)))
            .count()
    }

    fn push(&mut self, kind: NodeKind, inputs: Vec<NodeId>) -> NodeId {
        for i in &inputs {
            assert!(i.0 < self.nodes.len(), "input node {} does not exist", i.0);
        }
        self.nodes.push(Node { kind, inputs });
        NodeId(self.nodes.len() - 1)
    }

    /// Add a base-table reader.
    pub fn read(&mut self, source: impl TableSource + 'static) -> NodeId {
        self.push(
            NodeKind::Read {
                source: Arc::new(source),
            },
            Vec::new(),
        )
    }

    /// Add a reader from a shared source.
    pub fn read_arc(&mut self, source: Arc<dyn TableSource>) -> NodeId {
        self.push(NodeKind::Read { source }, Vec::new())
    }

    /// Projection.
    pub fn map(&mut self, input: NodeId, exprs: Vec<(Expr, &str)>) -> NodeId {
        let exprs = exprs.into_iter().map(|(e, n)| (e, n.to_string())).collect();
        self.push(NodeKind::Map { exprs }, vec![input])
    }

    /// Selection.
    pub fn filter(&mut self, input: NodeId, predicate: Expr) -> NodeId {
        self.push(NodeKind::Filter { predicate }, vec![input])
    }

    /// Inner join on equal column lists.
    pub fn join(
        &mut self,
        left: NodeId,
        right: NodeId,
        left_on: Vec<&str>,
        right_on: Vec<&str>,
    ) -> NodeId {
        self.join_kind(left, right, left_on, right_on, JoinKind::Inner)
    }

    /// Join with an explicit kind (inner/left/semi/anti).
    pub fn join_kind(
        &mut self,
        left: NodeId,
        right: NodeId,
        left_on: Vec<&str>,
        right_on: Vec<&str>,
        kind: JoinKind,
    ) -> NodeId {
        self.push(
            NodeKind::Join {
                left_on: left_on.into_iter().map(String::from).collect(),
                right_on: right_on.into_iter().map(String::from).collect(),
                kind,
            },
            vec![left, right],
        )
    }

    /// Group-by aggregation.
    pub fn agg(&mut self, input: NodeId, keys: Vec<&str>, specs: Vec<AggSpec>) -> NodeId {
        self.push(
            NodeKind::Agg {
                keys: keys.into_iter().map(String::from).collect(),
                specs,
                with_variance: false,
                fixed_growth: None,
            },
            vec![input],
        )
    }

    /// Aggregation that also emits `{alias}__var` variance columns (§6).
    pub fn agg_with_ci(&mut self, input: NodeId, keys: Vec<&str>, specs: Vec<AggSpec>) -> NodeId {
        self.push(
            NodeKind::Agg {
                keys: keys.into_iter().map(String::from).collect(),
                specs,
                with_variance: true,
                fixed_growth: None,
            },
            vec![input],
        )
    }

    /// Aggregation with the growth power pinned to `w` instead of fitted
    /// (ablation: `w = 1.0` reproduces linear-only scaling, §5.5).
    pub fn agg_fixed_growth(
        &mut self,
        input: NodeId,
        keys: Vec<&str>,
        specs: Vec<AggSpec>,
        w: f64,
    ) -> NodeId {
        self.push(
            NodeKind::Agg {
                keys: keys.into_iter().map(String::from).collect(),
                specs,
                with_variance: false,
                fixed_growth: Some(w),
            },
            vec![input],
        )
    }

    /// Order-by with per-key direction and optional limit.
    pub fn sort(
        &mut self,
        input: NodeId,
        by: Vec<&str>,
        descending: Vec<bool>,
        limit: Option<usize>,
    ) -> NodeId {
        self.push(
            NodeKind::Sort {
                by: by.into_iter().map(String::from).collect(),
                descending,
                limit,
            },
            vec![input],
        )
    }

    /// First `n` rows in arrival order.
    pub fn limit(&mut self, input: NodeId, n: usize) -> NodeId {
        self.push(
            NodeKind::Sort {
                by: Vec::new(),
                descending: Vec::new(),
                limit: Some(n),
            },
            vec![input],
        )
    }

    /// Swap the source of a reader node (the planner installs scan views
    /// with it). Panics if `node` is not a `Read` — the planner only
    /// rewrites what [`Self::sources`] lists.
    pub fn replace_source(&mut self, node: NodeId, source: Arc<dyn TableSource>) {
        match &mut self.nodes[node.0].kind {
            NodeKind::Read { source: slot } => *slot = source,
            other => panic!("replace_source on non-read node {other:?}"),
        }
    }

    /// Mark the query output node.
    pub fn sink(&mut self, node: NodeId) {
        assert!(node.0 < self.nodes.len());
        self.sink = Some(node);
    }

    /// Drop every node that is not an ancestor of the sink, remapping
    /// node ids. A session's graph accumulates all edfs ever built on it,
    /// and executors instantiate — and sources scan for — every node in
    /// the graph they are handed; pruning unreachable chains keeps a
    /// query from paying I/O for tables other edfs read. No-op without a
    /// sink.
    pub fn retain_reachable(&mut self) {
        let Some(sink) = self.sink else { return };
        let mut keep = vec![false; self.nodes.len()];
        let mut stack = vec![sink.0];
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut keep[i], true) {
                continue;
            }
            stack.extend(self.nodes[i].inputs.iter().map(|n| n.0));
        }
        if keep.iter().all(|&k| k) {
            return;
        }
        let mut remap = vec![usize::MAX; self.nodes.len()];
        let mut next = 0;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = next;
                next += 1;
            }
        }
        self.nodes = std::mem::take(&mut self.nodes)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| keep[*i])
            .map(|(_, mut n)| {
                for input in &mut n.inputs {
                    *input = NodeId(remap[input.0]);
                }
                n
            })
            .collect();
        self.sink = Some(NodeId(remap[sink.0]));
    }

    pub fn sink_id(&self) -> Option<NodeId> {
        self.sink
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// A stable human-readable label for `id` — the `NodeKind` Debug
    /// rendering (e.g. `Read(lineitem)`, `Agg(by ["k"], 2 specs)`).
    /// Observability keys per-node profiles by these; they depend only
    /// on the node's own definition, never on scheduling.
    pub fn node_label(&self, id: NodeId) -> String {
        format!("{:?}", self.nodes[id.0].kind)
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of all reader nodes.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Read { .. }))
            .map(|(i, _)| NodeId(i))
            .collect()
    }

    /// Downstream consumers of each node (node -> (consumer, port)).
    pub fn consumers(&self) -> Vec<Vec<(NodeId, usize)>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for (port, input) in n.inputs.iter().enumerate() {
                out[input.0].push((NodeId(i), port));
            }
        }
        out
    }

    /// The one build loop: walk the nodes in order (every input comes
    /// before its consumers), take a reader's meta from `read` and build
    /// every other node's operator from its inputs' metas, on `shards`
    /// shards under `spill(id)`. A node that emits two columns of one
    /// name is an error — the second would be unreachable by name — so
    /// this validates the whole graph.
    pub fn build<'a>(
        &self,
        read: impl Fn(&dyn TableSource) -> EdfMeta,
        shards: usize,
        spill: impl Fn(NodeId) -> Option<&'a SpillEnv>,
    ) -> Result<Built> {
        let (mut ops, mut metas) = (Vec::new(), Vec::<EdfMeta>::new());
        for (i, node) in self.nodes.iter().enumerate() {
            let (op, meta) = match &node.kind {
                NodeKind::Read { source } => (None, read(source.as_ref())),
                kind => {
                    let inputs: Vec<&EdfMeta> = node.inputs.iter().map(|i| &metas[i.0]).collect();
                    let op = build_operator(kind, &inputs, shards, spill(NodeId(i)))?;
                    let meta = op.meta().clone();
                    (Some(op), meta)
                }
            };
            let mut seen = HashSet::new();
            let fields = meta.schema.fields();
            if let Some(f) = fields.iter().find(|f| !seen.insert(f.name.as_str())) {
                return Err(DataError::Invalid(format!(
                    "{} emits two columns named {}",
                    self.node_label(NodeId(i)),
                    f.name
                )));
            }
            ops.push(op);
            metas.push(meta);
        }
        Ok(Built { ops, metas })
    }

    /// Resolve the edf metadata of every node (validating the whole graph).
    pub fn resolve_metas(&self) -> Result<Vec<EdfMeta>> {
        Ok(self.build(read_meta, 1, |_| None)?.metas)
    }
}

/// A graph's operators, built once, and every node's edf metadata —
/// what [`QueryGraph::build`] returns.
pub struct Built {
    /// One operator per node; `None` at reads, which the executor drives.
    pub ops: Vec<Option<Box<dyn Operator>>>,
    /// Every node's output metadata, by node id.
    pub metas: Vec<EdfMeta>,
}

/// Metadata of the edf a reader produces: constant attributes, delta mode,
/// keys from table metadata (§4.4).
pub fn read_meta(source: &dyn TableSource) -> EdfMeta {
    let m = source.meta();
    EdfMeta::new(m.schema.clone(), m.primary_key.clone(), UpdateKind::Delta)
        .with_clustering(m.clustering_key.clone())
}

/// Instantiate the operator for a non-source node with a shard count and
/// (optionally) its operator-level spill env. Only hash-keyed operators
/// (join, group-by) honour `shards > 1` and the spill env; one shard +
/// `None` is the unsharded, unbounded code path exactly.
fn build_operator(
    kind: &NodeKind,
    inputs: &[&EdfMeta],
    shards: usize,
    spill: Option<&SpillEnv>,
) -> Result<Box<dyn Operator>> {
    let need = |n: usize| -> Result<()> {
        if inputs.len() != n {
            return Err(DataError::Invalid(format!(
                "operator expects {n} inputs, got {}",
                inputs.len()
            )));
        }
        Ok(())
    };
    Ok(match kind {
        NodeKind::Read { .. } => {
            return Err(DataError::Invalid(
                "read nodes are driven by the executor".into(),
            ))
        }
        NodeKind::Map { exprs } => {
            need(1)?;
            Box::new(MapOp::new(inputs[0], exprs.clone())?)
        }
        NodeKind::Filter { predicate } => {
            need(1)?;
            Box::new(FilterOp::new(inputs[0], predicate.clone())?)
        }
        NodeKind::Join {
            left_on,
            right_on,
            kind,
        } => {
            need(2)?;
            Box::new(JoinOp::new(
                inputs[0],
                inputs[1],
                left_on.clone(),
                right_on.clone(),
                *kind,
                shards,
                spill,
            )?)
        }
        NodeKind::Agg {
            keys,
            specs,
            with_variance,
            fixed_growth,
        } => {
            need(1)?;
            Box::new(AggOp::new(
                inputs[0],
                keys.clone(),
                specs.clone(),
                *with_variance,
                *fixed_growth,
                shards,
                spill,
            )?)
        }
        NodeKind::Sort {
            by,
            descending,
            limit,
        } => {
            need(1)?;
            Box::new(SortOp::new(
                inputs[0],
                by.clone(),
                descending.clone(),
                *limit,
            )?)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema, Value};
    use wake_expr::{col, lit_f64};

    fn source() -> MemorySource {
        let schema = StdArc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let df = DataFrame::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2, 3]),
                Column::from_f64(vec![1.0, 2.0, 3.0]),
            ],
        )
        .unwrap();
        MemorySource::from_frame("t", &df, 2, vec!["k".into()], Some(vec!["k".into()])).unwrap()
    }

    #[test]
    fn retain_reachable_drops_orphan_chains_and_remaps() {
        let mut g = QueryGraph::new();
        let orphan = g.read(source()); // another edf's reader — not this query
        let _orphan_filter = g.filter(orphan, col("v").gt(lit_f64(0.0)));
        let r = g.read(source());
        let f = g.filter(r, col("v").gt(lit_f64(1.0)));
        let a = g.agg(f, vec![], vec![AggSpec::sum(col("v"), "s")]);
        g.sink(a);
        g.retain_reachable();
        assert_eq!(g.len(), 3, "only the sink's ancestors survive");
        assert_eq!(g.sources().len(), 1, "the orphan reader is gone");
        assert_eq!(g.node(g.sink_id().unwrap()).inputs, vec![NodeId(1)]);
        // Remapped input edges still resolve end to end.
        g.resolve_metas().unwrap();
        // Idempotent on an already-minimal graph.
        let before = g.len();
        g.retain_reachable();
        assert_eq!(g.len(), before);
    }

    #[test]
    fn builds_and_resolves_pipeline() {
        let mut g = QueryGraph::new();
        let r = g.read(source());
        let f = g.filter(r, col("v").gt(lit_f64(1.0)));
        let a = g.agg(f, vec![], vec![AggSpec::sum(col("v"), "s")]);
        let s = g.sort(a, vec!["s"], vec![true], Some(10));
        g.sink(s);
        assert_eq!(g.len(), 4);
        assert_eq!(g.sources(), vec![r]);
        let metas = g.resolve_metas().unwrap();
        assert_eq!(metas[r.0].kind, UpdateKind::Delta);
        assert!(metas[r.0].clustered_on(&["k".into()]));
        assert_eq!(metas[f.0].kind, UpdateKind::Delta);
        assert_eq!(metas[a.0].kind, UpdateKind::Snapshot);
        assert!(metas[a.0].schema.contains("s"));
        assert_eq!(metas[s.0].kind, UpdateKind::Snapshot);
        let consumers = g.consumers();
        assert_eq!(consumers[r.0], vec![(f, 0)]);
        assert_eq!(consumers[a.0], vec![(s, 0)]);
    }

    #[test]
    fn deep_graph_is_closed_under_ops() {
        // agg -> filter -> agg: the closure property in action.
        let mut g = QueryGraph::new();
        let r = g.read(source());
        let a1 = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "sv")]);
        let f = g.filter(a1, col("sv").gt(lit_f64(0.0)));
        let a2 = g.agg(f, vec![], vec![AggSpec::avg(col("sv"), "avg_sv")]);
        g.sink(a2);
        let metas = g.resolve_metas().unwrap();
        // Mutable attribute from the first agg propagates to the filter...
        assert!(metas[f.0].schema.field("sv").unwrap().mutable);
        // ...and the second agg consumes a snapshot-mode edf.
        assert_eq!(metas[a2.0].kind, UpdateKind::Snapshot);
    }

    #[test]
    fn invalid_graphs_error_at_resolve() {
        let mut g = QueryGraph::new();
        let r = g.read(source());
        g.filter(r, col("missing").gt(lit_f64(0.0)));
        assert!(g.resolve_metas().is_err());
    }

    #[test]
    fn join_validation_happens_at_resolve() {
        let mut g = QueryGraph::new();
        let a = g.read(source());
        let b = g.read(source());
        g.join(a, b, vec!["k"], vec!["k"]);
        let metas = g.resolve_metas().unwrap();
        assert_eq!(
            metas[2].schema.names(),
            vec!["k", "v", "k_right", "v_right"]
        );
        let _ = Value::Int(0);
    }

    #[test]
    fn a_repeated_output_name_is_rejected_at_build() {
        let agg = |keys: Vec<&str>, specs: Vec<AggSpec>, with_variance: bool| {
            let mut g = QueryGraph::new();
            let r = g.read(source());
            let a = if with_variance {
                g.agg_with_ci(r, keys, specs)
            } else {
                g.agg(r, keys, specs)
            };
            g.sink(a);
            g
        };
        let sum = |alias: &str| AggSpec::sum(col("v"), alias);
        let count = |alias: &str| AggSpec::count_star(alias);
        // Left `k, c, c_right` joined to right `k2, c`: the right `c` is
        // suffixed into a second `c_right`.
        let suffixed = {
            let mut g = QueryGraph::new();
            let r = g.read(source());
            let l = g.map(
                r,
                vec![(col("k"), "k"), (col("v"), "c"), (col("v"), "c_right")],
            );
            let rr = g.map(r, vec![(col("k"), "k2"), (col("v"), "c")]);
            let j = g.join(l, rr, vec!["k"], vec!["k2"]);
            g.sink(j);
            g
        };
        let mapped = {
            let mut g = QueryGraph::new();
            let r = g.read(source());
            let m = g.map(r, vec![(col("k"), "x"), (col("v"), "x")]);
            g.sink(m);
            g
        };
        let rejected = [
            (
                "a key and an alias",
                agg(vec!["k"], vec![sum("k"), count("n")], false),
            ),
            (
                "two aliases",
                agg(vec!["k"], vec![sum("s"), count("s")], false),
            ),
            (
                "an alias and a variance column",
                agg(vec!["k"], vec![sum("s"), count("s__var")], true),
            ),
            ("two keys", agg(vec!["k", "k"], vec![count("n")], false)),
            ("two map aliases", mapped),
            ("a join suffix", suffixed),
        ];
        for (case, g) in rejected {
            let err = g.resolve_metas().err();
            assert!(
                matches!(err, Some(DataError::Invalid(_))),
                "{case}: {err:?}"
            );
        }
        // Without the variance columns, `s__var` is just a name.
        agg(vec!["k"], vec![sum("s"), count("s__var")], false)
            .resolve_metas()
            .unwrap();
    }

    #[test]
    #[should_panic]
    fn bad_input_id_panics_at_build() {
        let mut g = QueryGraph::new();
        g.filter(NodeId(5), col("x").gt(lit_f64(0.0)));
    }
}
