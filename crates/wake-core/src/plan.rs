//! Planner passes over a [`QueryGraph`] — run by the engine just before
//! execution.
//!
//! Two source-rewriting passes support the persistent-table scan path:
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
//! Both passes are no-ops on sources that do not implement the hooks
//! (in-memory, CSV, single-file WCF), so plans over non-segment tables are
//! untouched byte for byte.

use crate::graph::{NodeKind, QueryGraph};
use wake_expr::extract_predicates;

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
    let n = replacements.len();
    for (id, source) in replacements {
        graph.replace_source(id, source);
    }
    n
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
    let n = replacements.len();
    for (id, source) in replacements {
        graph.replace_source(id, source);
    }
    n
}

/// The sources of a graph as shared handles keyed by their read node's
/// id, for reading scan metrics (query-wide and per node) after the graph
/// itself is gone.
pub fn source_handles_by_node(
    graph: &QueryGraph,
) -> Vec<(usize, std::sync::Arc<dyn wake_data::TableSource>)> {
    graph
        .sources()
        .iter()
        .filter_map(|&id| match &graph.node(id).kind {
            NodeKind::Read { source } => Some((id.0, source.clone())),
            _ => None,
        })
        .collect()
}

/// Sum scan metrics over the handles captured by
/// [`source_handles_by_node`] (zeros when no source tracks any).
pub fn scan_metrics_of(
    sources: &[(usize, std::sync::Arc<dyn wake_data::TableSource>)],
) -> wake_data::ScanMetrics {
    let mut total = wake_data::ScanMetrics::default();
    for (_, s) in sources {
        if let Some(m) = s.scan_metrics() {
            total.merge(&m);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// A source that records the predicates pushed into it.
    #[derive(Debug)]
    struct Recording {
        inner: MemorySource,
        pruned_calls: std::sync::Mutex<Vec<Vec<ColPredicate>>>,
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
        fn scan_metrics(&self) -> Option<ScanMetrics> {
            Some(ScanMetrics {
                zones_total: 2,
                ..Default::default()
            })
        }
    }

    #[test]
    fn pushdown_rewrites_filter_over_read_only() {
        let rec = Arc::new(Recording {
            inner: mem_source(),
            pruned_calls: Default::default(),
        });
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
        let rec = Arc::new(Recording {
            inner: mem_source(),
            pruned_calls: Default::default(),
        });
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
        assert_eq!(
            scan_metrics_of(&source_handles_by_node(&g)),
            wake_data::ScanMetrics::default()
        );
    }

    #[test]
    fn reorder_and_metrics_cover_capable_sources() {
        let rec = Arc::new(Recording {
            inner: mem_source(),
            pruned_calls: Default::default(),
        });
        let mut g = QueryGraph::new();
        let r = g.read_arc(rec.clone());
        g.sink(r);
        assert_eq!(scan_metrics_of(&source_handles_by_node(&g)).zones_total, 2);
        assert_eq!(reorder_scans(&mut g, 42), 1);
        let handles = source_handles_by_node(&g);
        assert_eq!(handles.len(), 1);
        // After reorder the source is a plain MemorySource: no metrics.
        assert_eq!(scan_metrics_of(&handles), wake_data::ScanMetrics::default());
    }
}
