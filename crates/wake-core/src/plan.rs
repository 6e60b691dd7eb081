//! The planner: one pass over a [`QueryGraph`], run by the engine just
//! before execution, that asks every scan for the one view this query
//! reads it through (`TableSource::view`). Per `Read`, the
//! [`ScanRequest`] holds:
//!
//! - `seed`: the query's scan seed with the node id mixed in
//!   ([`node_seed`]), so two scans of one table get distinct but
//!   deterministic orders — the paper's shuffled-input regime, which
//!   keeps early estimates representative when on-disk order is
//!   correlated with values.
//! - `predicates`: the conjunctive range/equality predicates the zone
//!   pruner can decide (`wake_expr::extract_predicates`), lifted from a
//!   `Filter` that is the scan's *sole* consumer (a shared scan must
//!   serve every consumer the full table). The `FilterOp` **always stays
//!   in the plan**: pruning only skips zones that provably hold no
//!   qualifying row, and the filter handles the rest.
//! - `columns`: what the plan can observe of the scan. The pass builds
//!   the plan's operators (one shard, no spill) and walks back from the
//!   sink, asking each operator what it reads of its inputs when its
//!   consumers observe a given set (`Operator::reads`). A sink, or a node
//!   nothing consumes, is observed in full. A scan nothing reads keeps
//!   its first column, since a frame carries its row count in its
//!   columns. The engine builds the plan again against the views'
//!   narrowed schemas, so a column wrongly dropped is a typed build
//!   error, never a wrong answer.
//!
//! Every scan moves to a view of its own, even with nothing to shuffle,
//! prune or narrow, so what it reads and counts belongs to this query.
//! A plan that does not resolve keeps its scans: reporting that is the
//! engine's build step's job.

use crate::graph::{read_meta, Built, NodeId, NodeKind, QueryGraph};
use std::collections::BTreeSet;
use wake_data::{ScanRequest, TableSource};
use wake_expr::extract_predicates;

/// The scan seed of node `id` in a query seeded with `seed`.
pub fn node_seed(seed: u64, id: NodeId) -> u64 {
    seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Per node, the output columns its consumers can observe, from one
/// build of the plan's operators. The build sees each scan as its view
/// will be: a shuffled one (`seed` set) has no clustering key. `None` if
/// the plan does not resolve.
fn required_columns(graph: &QueryGraph, seed: Option<u64>) -> Option<Vec<BTreeSet<String>>> {
    let read = |source: &dyn TableSource| {
        let meta = source.meta();
        let view = ScanRequest::full(meta, seed).view_meta(meta, meta.partition_rows.clone());
        read_meta(source).with_clustering(view.and_then(|v| v.clustering_key))
    };
    let Built { ops, metas } = graph.build(read, 1, |_| None).ok()?;
    let consumers = graph.consumers();
    let mut needs: Vec<BTreeSet<String>> = vec![BTreeSet::new(); graph.len()];
    // Nodes are appended after their inputs, so descending ids visit every
    // consumer before the node it reads.
    for i in (0..graph.len()).rev() {
        if consumers[i].is_empty() || graph.sink_id() == Some(NodeId(i)) {
            needs[i].extend(metas[i].schema.fields().iter().map(|f| f.name.clone()));
        }
        let Some(op) = &ops[i] else {
            continue;
        };
        let inputs = &graph.node(NodeId(i)).inputs;
        for (input, read) in inputs.iter().zip(op.reads(&needs[i])) {
            needs[input.0].extend(read);
        }
    }
    Some(needs)
}

/// Ask every scan for its view — shuffled by `seed` when one is set,
/// pruned by its sole consumer's filter when `pruning` is on, narrowed
/// to the columns the plan reads — and install the views the sources
/// return. Returns the number of sources replaced.
pub fn view_scans(graph: &mut QueryGraph, seed: Option<u64>, pruning: bool) -> usize {
    let Some(needs) = required_columns(graph, seed) else {
        return 0;
    };
    let consumers = graph.consumers();
    let mut views = Vec::new();
    for id in graph.sources() {
        let NodeKind::Read { source } = &graph.node(id).kind else {
            continue;
        };
        let predicates = match consumers[id.0][..] {
            [(consumer, _)] if pruning => match &graph.node(consumer).kind {
                NodeKind::Filter { predicate } => extract_predicates(predicate),
                _ => Vec::new(),
            },
            _ => Vec::new(),
        };
        let fields = source.meta().schema.fields();
        let mut columns: Vec<String> = fields
            .iter()
            .map(|f| f.name.clone())
            .filter(|name| needs[id.0].contains(name))
            .collect();
        if columns.is_empty() {
            columns.extend(fields.first().map(|f| f.name.clone()));
        }
        let request = ScanRequest {
            seed: seed.map(|s| node_seed(s, id)),
            predicates,
            columns,
        };
        views.extend(source.view(&request).map(|view| (id, view)));
    }
    let n = views.len();
    for (id, view) in views {
        graph.replace_source(id, view);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use crate::graph::JoinKind;
    use std::sync::Arc;
    use wake_data::scan::ScanMetrics;
    use wake_data::source::TableMeta;
    use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema, Value};
    use wake_expr::{col, lit_i64};

    fn mem_source() -> MemorySource {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let df = DataFrame::new(schema, vec![Column::from_i64((0..10).collect())]).unwrap();
        MemorySource::from_frame("t", &df, 5, vec!["k".into()], None).unwrap()
    }

    /// A source that records the views asked of it and serves each as
    /// its `MemorySource` does.
    #[derive(Debug)]
    struct Recording {
        inner: MemorySource,
        requests: std::sync::Mutex<Vec<ScanRequest>>,
    }

    impl Recording {
        fn over(inner: MemorySource) -> Arc<Self> {
            Arc::new(Recording {
                inner,
                requests: Default::default(),
            })
        }

        fn requests(&self) -> Vec<ScanRequest> {
            self.requests.lock().unwrap().clone()
        }
    }

    impl TableSource for Recording {
        fn meta(&self) -> &TableMeta {
            self.inner.meta()
        }
        fn partition(&self, i: usize) -> wake_data::Result<DataFrame> {
            self.inner.partition(i)
        }
        fn view(&self, request: &ScanRequest) -> Option<Arc<dyn TableSource>> {
            self.requests.lock().unwrap().push(request.clone());
            self.inner.view(request)
        }
        fn scan_metrics(&self) -> Option<ScanMetrics> {
            Some(ScanMetrics {
                zones_total: 2,
                ..Default::default()
            })
        }
    }

    /// The source read node `id` holds.
    fn source_at(g: &QueryGraph, id: NodeId) -> &Arc<dyn TableSource> {
        match &g.node(id).kind {
            NodeKind::Read { source } => source,
            other => panic!("{other:?} is not a read"),
        }
    }

    fn pushed(request: &ScanRequest) -> Vec<String> {
        request.predicates.iter().map(|p| p.to_string()).collect()
    }

    #[test]
    fn pushdown_rewrites_filter_over_read_only() {
        let rec = Recording::over(mem_source());
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let f = g.filter(r, col("k").lt(lit_i64(5)));
        g.sink(f);
        assert_eq!(view_scans(&mut g, None, true), 1);
        let requests = rec.requests();
        assert_eq!(requests.len(), 1);
        assert_eq!(pushed(&requests[0]), vec!["k < 5"]);
        // The installed view is a MemorySource, which answers a second
        // pass with a view of its own.
        assert_eq!(view_scans(&mut g, None, true), 1);
        // Pruning off: the same scan is asked for no predicate.
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let f = g.filter(r, col("k").lt(lit_i64(5)));
        g.sink(f);
        assert_eq!(view_scans(&mut g, None, false), 1);
        assert!(rec.requests()[1].predicates.is_empty());
    }

    #[test]
    fn pushdown_skips_shared_scans_and_bare_reads() {
        let rec = Recording::over(mem_source());
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        // Two consumers: filter + map. Pruning would starve the map.
        let f = g.filter(r, col("k").lt(lit_i64(5)));
        let m = g.map(r, vec![(col("k"), "k2")]);
        let j = g.join(f, m, vec!["k"], vec!["k2"]);
        g.sink(j);
        assert_eq!(view_scans(&mut g, None, true), 1);
        assert!(rec.requests()[0].predicates.is_empty());
        // Non-extractable predicate: none pushed either.
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let f = g.filter(r, col("k").ne(lit_i64(5)));
        g.sink(f);
        assert_eq!(view_scans(&mut g, None, true), 1);
        assert!(rec.requests()[1].predicates.is_empty());
    }

    #[test]
    fn memory_scans_are_narrowed_and_shuffled_when_seeded() {
        let int = |n: &str| Field::new(n, DataType::Int64);
        let schema = Arc::new(Schema::new(vec![int("k"), int("v")]));
        let ints = || Column::from_i64((0..8).collect());
        let df = DataFrame::new(schema, vec![ints(), ints()]).unwrap();
        let key = vec!["k".to_string()];
        let src = Arc::new(
            MemorySource::from_frame("t", &df, 1, key.clone(), Some(key.clone())).unwrap(),
        );
        for seed in [None, Some(42)] {
            let mut g = QueryGraph::new();
            let r = g.read_arc(src.clone());
            let f = g.filter(r, col("k").lt(lit_i64(5)));
            let a = g.agg(f, vec![], vec![AggSpec::count_star("n")]);
            g.sink(a);
            assert_eq!(view_scans(&mut g, seed, true), 1);
            let view = source_at(&g, r);
            assert_eq!(view.meta().schema.names(), vec!["k"]);
            assert_eq!(view.meta().primary_key, key);
            assert_eq!(view.meta().clustering_key.is_some(), seed.is_none());
            // Nothing to prune by: every partition, in the seeded order.
            let order = wake_data::source::shuffle((0..8).collect(), seed.map(|s| node_seed(s, r)));
            let keys: Vec<Value> = (0..8)
                .map(|i| view.partition(i).unwrap().value(0, "k").unwrap())
                .collect();
            let want: Vec<Value> = order.into_iter().map(|i| Value::Int(i as i64)).collect();
            assert_eq!(keys, want, "{seed:?}");
            assert_eq!(view.scan_metrics(), None);
        }
    }

    #[test]
    fn seeds_mix_the_node_id_and_views_carry_the_metrics() {
        let rec = Recording::over(mem_source());
        let mut g = QueryGraph::new();
        let r1 = g.read_arc(rec.clone());
        let r2 = g.read_arc(rec.clone());
        let j = g.join(r1, r2, vec!["k"], vec!["k"]);
        g.sink(j);
        assert_eq!(source_at(&g, r1).scan_metrics().unwrap().zones_total, 2);
        assert_eq!(view_scans(&mut g, Some(42), false), 2);
        let seeds: Vec<_> = rec.requests().iter().map(|r| r.seed).collect();
        assert_eq!(seeds, vec![Some(42), Some(42 ^ 0x9E37_79B9_7F4A_7C15)]);
        assert_eq!(g.sources(), vec![r1, r2]);
        // The views are MemorySources: no metrics.
        assert_eq!(source_at(&g, r1).scan_metrics(), None);
    }

    /// `t(k, a, b, c, x, x__var)`, clustered on `(k, a)`.
    fn wide_source(name: &str) -> MemorySource {
        let int = |n: &str| Field::new(n, DataType::Int64);
        let float = |n: &str| Field::new(n, DataType::Float64);
        let schema = Arc::new(Schema::new(vec![
            int("k"),
            int("a"),
            int("b"),
            float("c"),
            float("x"),
            float("x__var"),
        ]));
        let ints = || Column::from_i64((0..6).collect());
        let floats = || Column::from_f64((0..6).map(|i| i as f64).collect());
        let df = DataFrame::new(
            schema,
            vec![ints(), ints(), ints(), floats(), floats(), floats()],
        )
        .unwrap();
        let ck = Some(vec!["k".into(), "a".into()]);
        MemorySource::from_frame(name, &df, 3, vec!["k".into()], ck).unwrap()
    }

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|n| n.to_string()).collect()
    }

    /// The columns required of `node` in `g`.
    fn required(g: &QueryGraph, node: NodeId) -> BTreeSet<String> {
        required_columns(g, None).unwrap()[node.0].clone()
    }

    /// A view of a fresh `wide_source` reading only `columns`.
    fn narrowed(columns: &[&str]) -> Arc<dyn TableSource> {
        let request = ScanRequest {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            ..ScanRequest::default()
        };
        Recording::over(wide_source("t")).view(&request).unwrap()
    }

    #[test]
    fn map_is_a_barrier_and_reads_variance_companions() {
        let mut g = QueryGraph::new();
        let r = g.read(wide_source("t"));
        // The sink observes only `y`, but the map reads what it names —
        // and `x`'s variance companion, which it propagates.
        let m = g.map(r, vec![(col("x").add(col("c")), "y"), (col("b"), "b")]);
        let m2 = g.map(m, vec![(col("y"), "y")]);
        g.sink(m2);
        assert_eq!(required(&g, r), set(&["b", "c", "x", "x__var"]));
        // The first map made `y__var` from `x__var`; the second reads it.
        assert_eq!(required(&g, m), set(&["y", "y__var"]));
    }

    #[test]
    fn filter_and_sort_pass_through_and_add_their_own() {
        let mut g = QueryGraph::new();
        let r = g.read(wide_source("t"));
        let f = g.filter(r, col("a").lt(lit_i64(3)));
        let s = g.sort(f, vec!["b"], vec![false], None);
        let m = g.map(s, vec![(col("c"), "c")]);
        g.sink(m);
        assert_eq!(required(&g, s), set(&["c"]));
        assert_eq!(required(&g, f), set(&["b", "c"]));
        assert_eq!(required(&g, r), set(&["a", "b", "c"]));
    }

    #[test]
    fn agg_reads_keys_and_spec_expressions() {
        let mut g = QueryGraph::new();
        let r = g.read(wide_source("t"));
        let specs = vec![
            AggSpec::sum(col("x"), "sx"),
            AggSpec::weighted_avg(col("c"), col("b"), "wc"),
            AggSpec::count_star("n"),
        ];
        // `b` is no prefix of the clustering key: nothing but keys, spec
        // and weight expressions, and the carried `x__var`.
        let a = g.agg(r, vec!["b"], specs);
        g.sink(a);
        assert_eq!(required(&g, r), set(&["b", "c", "x", "x__var"]));
        // Grouping on a prefix of the clustering key keeps the key whole,
        // so `AggOp` still sees it is clustered.
        let mut g = QueryGraph::new();
        let r = g.read(wide_source("t"));
        let a = g.agg(r, vec!["k"], vec![AggSpec::count_star("n")]);
        g.sink(a);
        assert_eq!(required(&g, r), set(&["a", "k"]));
        assert!(g.resolve_metas().unwrap()[r.0].clustered_on(&["k".into(), "a".into()]));
        // A shuffled view has no clustering key to keep whole.
        assert_eq!(required_columns(&g, Some(7)).unwrap()[r.0], set(&["k"]));
    }

    #[test]
    fn join_maps_requests_back_by_position_and_keeps_collisions() {
        let mut g = QueryGraph::new();
        let l = g.read(wide_source("l"));
        let r = g.read(wide_source("r"));
        // Output: k a b c x x__var | k_right a_right b_right c_right …
        let j = g.join(l, r, vec!["k"], vec!["a"]);
        let m = g.map(j, vec![(col("b"), "b"), (col("c_right"), "c_right")]);
        g.sink(m);
        // `c_right` is the right side's `c`; it keeps that name only while
        // the left `c` it collided with survives.
        assert_eq!(required(&g, l), set(&["b", "c", "k"]));
        assert_eq!(required(&g, r), set(&["a", "c"]));
        let before = g.resolve_metas().unwrap()[m.0].schema.clone();
        // Narrow both sides by hand and resolve again: same output.
        for id in [l, r] {
            let need = required(&g, id);
            let cols: Vec<&str> = need.iter().map(String::as_str).collect();
            g.replace_source(id, narrowed(&cols));
        }
        assert_eq!(g.resolve_metas().unwrap()[m.0].schema, before);
    }

    #[test]
    fn semi_and_anti_joins_need_only_keys_from_the_right() {
        for kind in [JoinKind::Semi, JoinKind::Anti] {
            let mut g = QueryGraph::new();
            let l = g.read(wide_source("l"));
            let r = g.read(wide_source("r"));
            let j = g.join_kind(l, r, vec!["k"], vec!["b"], kind);
            let m = g.map(j, vec![(col("c"), "c")]);
            g.sink(m);
            assert_eq!(required(&g, l), set(&["c", "k"]), "{kind:?}");
            assert_eq!(required(&g, r), set(&["b"]), "{kind:?}");
        }
    }

    #[test]
    fn a_reader_with_two_consumers_gets_the_union() {
        let mut g = QueryGraph::new();
        let r = g.read(wide_source("t"));
        let m1 = g.map(r, vec![(col("k"), "k"), (col("a"), "a")]);
        let m2 = g.map(r, vec![(col("k"), "k2"), (col("c"), "c")]);
        let j = g.join(m1, m2, vec!["k"], vec!["k2"]);
        g.sink(j);
        assert_eq!(required(&g, r), set(&["a", "c", "k"]));
    }

    #[test]
    fn a_sink_on_a_read_filter_join_chain_gets_full_width_views() {
        let rec_l = Recording::over(wide_source("l"));
        let rec_r = Recording::over(wide_source("r"));
        let mut g = QueryGraph::new();
        let l = g.read_arc(rec_l.clone());
        let r = g.read_arc(rec_r.clone());
        let f = g.filter(l, col("a").lt(lit_i64(3)));
        let j = g.join(f, r, vec!["k"], vec!["k"]);
        g.sink(j);
        let all = wide_source("t").meta().schema.names().len();
        assert_eq!(required(&g, l).len(), all);
        assert_eq!(required(&g, r).len(), all);
        // Nothing to narrow, but each scan still moves to a view of this
        // query's own, so its counters start at zero.
        assert_eq!(view_scans(&mut g, None, false), 2);
        for rec in [rec_l, rec_r] {
            let requests = rec.requests();
            assert_eq!(requests.len(), 1);
            assert_eq!(requests[0].columns.len(), all);
        }
    }

    #[test]
    fn projection_asks_each_source_once_in_schema_order() {
        let rec = Recording::over(wide_source("t"));
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let f = g.filter(r, col("c").gt(wake_expr::lit_f64(0.0)));
        let a = g.agg(f, vec!["b"], vec![AggSpec::sum(col("a"), "sa")]);
        g.sink(a);
        let sink_before = g.resolve_metas().unwrap()[a.0].clone();
        assert_eq!(view_scans(&mut g, None, true), 1);
        let requests = rec.requests();
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].columns, vec!["a", "b", "c"]);
        assert_eq!(pushed(&requests[0]), vec!["c > 0"]);
        // The plan resolves against the narrowed source to the same sink.
        let metas = g.resolve_metas().unwrap();
        assert_eq!(metas[r.0].schema.names(), vec!["a", "b", "c"]);
        assert_eq!(metas[a.0].schema, sink_before.schema);
        assert_eq!(metas[a.0].primary_key, sink_before.primary_key);
        // The narrowed source is a MemorySource: a second pass views it
        // again, to the same columns.
        assert_eq!(view_scans(&mut g, None, true), 1);
        assert_eq!(
            g.resolve_metas().unwrap()[r.0].schema.names(),
            vec!["a", "b", "c"]
        );
        // A scan nothing is read from keeps one column for its row count.
        let rec = Recording::over(wide_source("t"));
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let a = g.agg(r, vec![], vec![AggSpec::count_star("n")]);
        g.sink(a);
        assert!(required(&g, r).is_empty());
        assert_eq!(view_scans(&mut g, None, false), 1);
        assert_eq!(rec.requests()[0].columns, vec!["k"]);
    }

    #[test]
    fn an_unresolvable_plan_is_left_for_the_build_to_report() {
        let rec = Recording::over(wide_source("t"));
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let f = g.filter(r, col("missing").lt(lit_i64(3)));
        g.sink(f);
        assert!(required_columns(&g, None).is_none());
        assert_eq!(view_scans(&mut g, Some(7), true), 0);
        assert!(rec.requests().is_empty());
    }
}
