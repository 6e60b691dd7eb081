//! Planner passes over a [`QueryGraph`] — run by the engine just before
//! execution.
//!
//! Three source-rewriting passes support the persistent-table scan path:
//!
//! - [`push_down_predicates`]: for each `Filter` sitting directly on a
//!   `Read`, lift the conjunctive range/equality predicates the zone
//!   pruner can decide (via `wake_expr::extract_predicates`) and ask the
//!   source for a pruned view (`TableSource::pruned`). The `FilterOp`
//!   **always stays in the plan** — pruning only skips I/O for zones that
//!   provably contain no qualifying row, so results are unchanged and the
//!   residual filter handles straddling zones.
//! - [`reorder_scans`]: replace each source with a seeded random-order
//!   view (`TableSource::reordered`) — the paper's shuffled-input regime,
//!   which keeps early estimates representative when on-disk order is
//!   correlated with values.
//!
//! - [`project_scans`]: walk back from the sink collecting, per `Read`, the
//!   columns its consumers can observe, and ask the source for a view that
//!   returns only those (`TableSource::projected`) — a columnar source then
//!   never fetches, verifies or decodes the rest. The engine resolves the
//!   plan against the narrowed schemas afterwards, so a column this pass
//!   wrongly dropped is a typed build error, never a wrong answer.
//!
//! All three are no-ops on sources that do not implement the hooks
//! (in-memory, CSV, single-file WCF), so plans over non-segment tables are
//! untouched byte for byte.

use crate::ci::variance_column;
use crate::graph::{JoinKind, NodeId, NodeKind, QueryGraph};
use std::collections::BTreeSet;
use std::sync::Arc;
use wake_data::{Schema, TableSource};
use wake_expr::{extract_predicates, Expr};

/// Swap in the views a pass collected; returns how many.
fn install(graph: &mut QueryGraph, views: Vec<(NodeId, Arc<dyn TableSource>)>) -> usize {
    let n = views.len();
    for (id, source) in views {
        graph.replace_source(id, source);
    }
    n
}

/// Lift prunable predicates from filters into their scans. Only rewrites a
/// `Read` whose *sole* consumer is the filter (a shared scan must serve
/// every consumer the full table). Returns the number of sources replaced.
pub fn push_down_predicates(graph: &mut QueryGraph) -> usize {
    let consumers = graph.consumers();
    let mut replacements = Vec::new();
    for node in graph.nodes() {
        let NodeKind::Filter { predicate } = &node.kind else {
            continue;
        };
        let input = node.inputs[0];
        let NodeKind::Read { source } = &graph.node(input).kind else {
            continue;
        };
        if consumers[input.0].len() != 1 {
            continue;
        }
        let preds = extract_predicates(predicate);
        if preds.is_empty() {
            continue;
        }
        if let Some(pruned) = source.pruned(&preds) {
            replacements.push((input, pruned));
        }
    }
    install(graph, replacements)
}

/// Replace every reorder-capable source with a seeded random zone order.
/// Each source mixes its node id into the seed so two scans of the same
/// table in one plan get distinct (but still deterministic) orders.
/// Returns the number of sources replaced.
pub fn reorder_scans(graph: &mut QueryGraph, seed: u64) -> usize {
    let mut replacements = Vec::new();
    for id in graph.sources() {
        let NodeKind::Read { source } = &graph.node(id).kind else {
            continue;
        };
        let mixed = seed ^ (id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if let Some(reordered) = source.reordered(mixed) {
            replacements.push((id, reordered));
        }
    }
    install(graph, replacements)
}

/// The columns evaluating `exprs` over `schema` reads: the ones they name
/// and, beside each, its `{col}__var` companion where the schema has one
/// (`MapOp` propagates it, `AggOp` folds it into a sum's variance).
fn columns_read<'a>(
    exprs: impl IntoIterator<Item = &'a Expr>,
    schema: &'a Schema,
) -> impl Iterator<Item = String> + 'a {
    let named: BTreeSet<&str> = exprs
        .into_iter()
        .flat_map(|e| e.referenced_columns())
        .collect();
    named.into_iter().flat_map(|c| {
        let companion = Some(variance_column(c)).filter(|vc| schema.contains(vc));
        std::iter::once(c.to_string()).chain(companion)
    })
}

/// Per node, the output columns its consumers can observe — the backward
/// walk behind [`project_scans`]. A node nothing consumes, and the sink,
/// are observed in full. Map and Agg are barriers: what they read is what
/// their expressions name, whatever is asked of them. Filter, Sort and
/// Join hand the request through and add the columns they look at
/// themselves. `None` if the plan does not resolve (reporting that is the
/// engine's build step's job).
fn required_columns(graph: &QueryGraph) -> Option<Vec<BTreeSet<String>>> {
    let metas = graph.resolve_metas().ok()?;
    let consumers = graph.consumers();
    let mut needs: Vec<BTreeSet<String>> = vec![BTreeSet::new(); graph.len()];
    // Nodes are appended after their inputs, so descending ids visit every
    // consumer before the node it reads.
    for i in (0..graph.len()).rev() {
        if consumers[i].is_empty() || graph.sink_id() == Some(NodeId(i)) {
            needs[i].extend(metas[i].schema.fields().iter().map(|f| f.name.clone()));
        }
        let node = graph.node(NodeId(i));
        let need = needs[i].clone();
        let input = |port: usize| node.inputs[port].0;
        match &node.kind {
            NodeKind::Read { .. } => {}
            NodeKind::Filter { predicate } => {
                let own = predicate.referenced_columns();
                needs[input(0)].extend(need.into_iter().chain(own.into_iter().map(String::from)));
            }
            NodeKind::Sort { by, .. } => {
                needs[input(0)].extend(need.into_iter().chain(by.iter().cloned()));
            }
            NodeKind::Map { exprs } => {
                let read = columns_read(exprs.iter().map(|(e, _)| e), &metas[input(0)].schema);
                needs[input(0)].extend(read);
            }
            NodeKind::Agg { keys, specs, .. } => {
                let meta = &metas[input(0)];
                let exprs = specs
                    .iter()
                    .flat_map(|s| std::iter::once(&s.expr).chain(&s.weight));
                let read: Vec<String> = columns_read(exprs, &meta.schema).collect();
                // Grouping on a prefix of the clustering key changes the
                // growth prior (`AggOp::new`); the key must stay whole for
                // the operator to see that.
                let clustering = meta
                    .clustering_key
                    .iter()
                    .filter(|ck| !keys.is_empty() && ck.starts_with(keys))
                    .flatten();
                needs[input(0)].extend(keys.iter().chain(clustering).cloned().chain(read));
            }
            NodeKind::Join {
                left_on,
                right_on,
                kind,
            } => {
                let (left_schema, right_schema) =
                    (&metas[input(0)].schema, &metas[input(1)].schema);
                let mut left: BTreeSet<String> = left_on.iter().cloned().collect();
                let mut right: BTreeSet<String> = right_on.iter().cloned().collect();
                match kind {
                    // The output is the left schema; the right side only
                    // answers "is there a match".
                    JoinKind::Semi | JoinKind::Anti => left.extend(need),
                    // The output is the left fields then the right fields,
                    // a right name the left also has suffixed `_right`:
                    // map each requested output column back by position.
                    JoinKind::Inner | JoinKind::Left => {
                        for name in need {
                            let Ok(at) = metas[i].schema.index_of(&name) else {
                                continue;
                            };
                            match at.checked_sub(left_schema.len()) {
                                None => {
                                    left.insert(name);
                                }
                                Some(j) => {
                                    let own = &right_schema.fields()[j].name;
                                    // A suffixed column keeps its name only
                                    // while the left column it collided
                                    // with is still there.
                                    if *own != name {
                                        left.insert(own.clone());
                                    }
                                    right.insert(own.clone());
                                }
                            }
                        }
                    }
                }
                needs[input(0)].extend(left);
                needs[input(1)].extend(right);
            }
        }
    }
    Some(needs)
}

/// Narrow every scan to the columns the plan can observe
/// (`required_columns`), for sources that can skip the cost of the rest
/// (`TableSource::projected`). A scan observed in full is asked for a
/// full-width view all the same: this pass runs last and always, so every
/// scan of a view-capable source ends up on a view of this query's own and
/// its scan counters never include another query's work. A scan nothing is
/// read from keeps its first column, since a frame carries its row count
/// in its columns. Returns the number of sources replaced.
pub fn project_scans(graph: &mut QueryGraph) -> usize {
    let Some(needs) = required_columns(graph) else {
        return 0;
    };
    let mut replacements = Vec::new();
    for id in graph.sources() {
        let NodeKind::Read { source } = &graph.node(id).kind else {
            continue;
        };
        let fields = source.meta().schema.fields();
        let mut columns: Vec<&str> = fields
            .iter()
            .map(|f| f.name.as_str())
            .filter(|name| needs[id.0].contains(*name))
            .collect();
        if columns.is_empty() {
            columns.extend(fields.first().map(|f| f.name.as_str()));
        }
        if let Some(projected) = source.projected(&columns) {
            replacements.push((id, projected));
        }
    }
    install(graph, replacements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggSpec;
    use std::sync::Arc;
    use wake_data::scan::{ColPredicate, ScanMetrics};
    use wake_data::source::{TableMeta, TableSource};
    use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema};
    use wake_expr::{col, lit_i64};

    fn mem_source() -> MemorySource {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let df = DataFrame::new(schema, vec![Column::from_i64((0..10).collect())]).unwrap();
        MemorySource::from_frame("t", &df, 5, vec!["k".into()], None).unwrap()
    }

    /// A source that records the predicates and projections pushed into it.
    #[derive(Debug)]
    struct Recording {
        inner: MemorySource,
        pruned_calls: std::sync::Mutex<Vec<Vec<ColPredicate>>>,
        projected_calls: std::sync::Mutex<Vec<Vec<String>>>,
    }

    impl Recording {
        fn over(inner: MemorySource) -> Arc<Self> {
            Arc::new(Recording {
                inner,
                pruned_calls: Default::default(),
                projected_calls: Default::default(),
            })
        }
    }

    impl TableSource for Recording {
        fn meta(&self) -> &TableMeta {
            self.inner.meta()
        }
        fn partition(&self, i: usize) -> wake_data::Result<DataFrame> {
            self.inner.partition(i)
        }
        fn pruned(&self, preds: &[ColPredicate]) -> Option<Arc<dyn TableSource>> {
            self.pruned_calls.lock().unwrap().push(preds.to_vec());
            Some(Arc::new(self.inner.clone()))
        }
        fn reordered(&self, _seed: u64) -> Option<Arc<dyn TableSource>> {
            Some(Arc::new(self.inner.clone()))
        }
        fn projected(&self, columns: &[&str]) -> Option<Arc<dyn TableSource>> {
            let names = columns.iter().map(|c| c.to_string()).collect();
            self.projected_calls.lock().unwrap().push(names);
            let meta = self.inner.meta();
            let parts = (0..meta.num_partitions())
                .map(|i| self.inner.partition(i)?.project(columns))
                .collect::<wake_data::Result<Vec<_>>>()
                .unwrap();
            let narrowed = MemorySource::new(meta.name.clone(), parts, vec![], None).unwrap();
            Some(Arc::new(narrowed))
        }
        fn scan_metrics(&self) -> Option<ScanMetrics> {
            Some(ScanMetrics {
                zones_total: 2,
                ..Default::default()
            })
        }
    }

    /// The scan counters of the source read node `id` holds.
    fn scan_metrics_at(g: &QueryGraph, id: NodeId) -> Option<ScanMetrics> {
        match &g.node(id).kind {
            NodeKind::Read { source } => source.scan_metrics(),
            other => panic!("{other:?} is not a read"),
        }
    }

    #[test]
    fn pushdown_rewrites_filter_over_read_only() {
        let rec = Recording::over(mem_source());
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let f = g.filter(r, col("k").lt(lit_i64(5)));
        g.sink(f);
        assert_eq!(push_down_predicates(&mut g), 1);
        let calls = rec.pruned_calls.lock().unwrap();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0][0].to_string(), "k < 5");
        drop(calls);
        // The replaced source is the plain MemorySource now; a second pass
        // finds nothing to push (MemorySource has no pruning hook).
        assert_eq!(push_down_predicates(&mut g), 0);
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
        assert_eq!(push_down_predicates(&mut g), 0);
        assert!(rec.pruned_calls.lock().unwrap().is_empty());
        // Non-extractable predicate: no call either.
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let f = g.filter(r, col("k").ne(lit_i64(5)));
        g.sink(f);
        assert_eq!(push_down_predicates(&mut g), 0);
    }

    #[test]
    fn memory_sources_are_untouched() {
        let mut g = QueryGraph::new();
        let r = g.read(mem_source());
        let f = g.filter(r, col("k").lt(lit_i64(5)));
        g.sink(f);
        assert_eq!(push_down_predicates(&mut g), 0);
        assert_eq!(reorder_scans(&mut g, 42), 0);
        assert_eq!(project_scans(&mut g), 0);
        assert_eq!(scan_metrics_at(&g, r), None);
    }

    #[test]
    fn reorder_and_metrics_cover_capable_sources() {
        let rec = Recording::over(mem_source());
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        g.sink(r);
        assert_eq!(scan_metrics_at(&g, r).unwrap().zones_total, 2);
        assert_eq!(reorder_scans(&mut g, 42), 1);
        assert_eq!(g.sources(), vec![r]);
        // After reorder the source is a plain MemorySource: no metrics.
        assert_eq!(scan_metrics_at(&g, r), None);
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
        required_columns(g).unwrap()[node.0].clone()
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
            let NodeKind::Read { source } = &g.node(id).kind else {
                unreachable!()
            };
            let need = required(&g, id);
            let names = source.meta().schema.names();
            let cols: Vec<&str> = names.into_iter().filter(|n| need.contains(*n)).collect();
            let narrowed = Recording::over(wide_source("t")).projected(&cols).unwrap();
            g.replace_source(id, narrowed);
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
        assert_eq!(project_scans(&mut g), 2);
        for rec in [rec_l, rec_r] {
            let calls = rec.projected_calls.lock().unwrap();
            assert_eq!(calls.len(), 1);
            assert_eq!(calls[0].len(), all);
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
        assert_eq!(project_scans(&mut g), 1);
        assert_eq!(
            *rec.projected_calls.lock().unwrap(),
            vec![vec!["a".to_string(), "b".into(), "c".into()]]
        );
        // The plan resolves against the narrowed source to the same sink.
        let metas = g.resolve_metas().unwrap();
        assert_eq!(metas[r.0].schema.names(), vec!["a", "b", "c"]);
        assert_eq!(metas[a.0].schema, sink_before.schema);
        assert_eq!(metas[a.0].primary_key, sink_before.primary_key);
        // The narrowed source is a plain MemorySource: nothing more to ask.
        assert_eq!(project_scans(&mut g), 0);
        // A scan nothing is read from keeps one column for its row count.
        let rec = Recording::over(wide_source("t"));
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let a = g.agg(r, vec![], vec![AggSpec::count_star("n")]);
        g.sink(a);
        assert!(required(&g, r).is_empty());
        assert_eq!(project_scans(&mut g), 1);
        assert_eq!(
            *rec.projected_calls.lock().unwrap(),
            vec![vec!["k".to_string()]]
        );
    }

    #[test]
    fn an_unresolvable_plan_is_left_for_the_build_to_report() {
        let rec = Recording::over(wide_source("t"));
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        let f = g.filter(r, col("missing").lt(lit_i64(3)));
        g.sink(f);
        assert!(required_columns(&g).is_none());
        assert_eq!(project_scans(&mut g), 0);
        assert!(rec.projected_calls.lock().unwrap().is_empty());
    }
}
