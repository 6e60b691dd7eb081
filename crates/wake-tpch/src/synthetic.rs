//! Synthetic deep-query workload (§8.6).
//!
//! The paper generates a 100-partition dataset of 100 M rows with 11
//! integer columns — ten group-by columns with 4 unique values each
//! (4^10 combinations) and one value column — and runs queries of depth
//! `d = 0..=10` alternating maximum and summation aggregations, e.g.
//! `df.max(x, by=(ci,cii)).sum(max_x, by=ci).sum(sum_max_x)` for `d = 2`.
//! Row count is a parameter here (laptop scale), everything else matches.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use wake_core::agg::AggSpec;
use wake_core::graph::QueryGraph;
use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema};
use wake_expr::col;

/// The ten group-by columns.
pub const GROUP_COLS: [&str; 10] = ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "c10"];

/// Unique values per group column (4, as in the paper: 4^10 combos).
pub const GROUP_CARDINALITY: i64 = 4;

/// Generate the synthetic table: `rows` rows, 11 integer columns.
pub fn generate(rows: usize, seed: u64) -> DataFrame {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fields = vec![Field::new("x", DataType::Int64)];
    for c in GROUP_COLS {
        fields.push(Field::new(c, DataType::Int64));
    }
    let schema = Arc::new(Schema::new(fields));
    let mut columns = Vec::with_capacity(11);
    columns.push(Column::from_i64(
        (0..rows).map(|_| rng.gen_range(0..1_000_000i64)).collect(),
    ));
    for _ in GROUP_COLS {
        columns.push(Column::from_i64(
            (0..rows)
                .map(|_| rng.gen_range(0..GROUP_CARDINALITY))
                .collect(),
        ));
    }
    DataFrame::new(schema, columns).expect("synthetic frame")
}

/// Partitioned source over the synthetic table (`partitions` chunks, like
/// the paper's 100).
pub fn source(frame: &DataFrame, partitions: usize) -> MemorySource {
    let rows_per = frame.num_rows().div_ceil(partitions.max(1)).max(1);
    MemorySource::from_frame("synthetic", frame, rows_per, vec![], None).expect("synthetic source")
}

/// Name of the value column produced at nesting level `level`.
fn alias(level: usize) -> &'static str {
    // Levels are bounded by 10; leak tiny static names once.
    const NAMES: [&str; 11] = [
        "v0", "v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8", "v9", "v10",
    ];
    NAMES[level]
}

/// Build the depth-`d` query: the deepest aggregation groups by the first
/// `d` group columns and takes a max; each subsequent level drops one
/// group column and alternates sum/max, ending in a global sum. The final
/// output column is `v0`.
pub fn deep_query(src: MemorySource, depth: usize) -> QueryGraph {
    assert!(
        depth <= GROUP_COLS.len(),
        "depth at most {}",
        GROUP_COLS.len()
    );
    let mut g = QueryGraph::new();
    let mut node = g.read(src);
    let mut value = "x";
    for level in (0..=depth).rev() {
        let step = depth - level;
        let is_max = depth > 0 && step.is_multiple_of(2) && level > 0 || (step == 0 && depth > 0);
        let keys: Vec<&str> = GROUP_COLS[..level].to_vec();
        let out = alias(level);
        let spec = if is_max {
            AggSpec::max(col(value), out)
        } else {
            AggSpec::sum(col(value), out)
        };
        node = g.agg(node, keys, vec![spec]);
        value = out;
    }
    g.sink(node);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use wake_data::TableSource;

    #[test]
    fn generate_shape_and_cardinality() {
        let f = generate(1000, 3);
        assert_eq!(f.num_columns(), 11);
        assert_eq!(f.num_rows(), 1000);
        for c in GROUP_COLS {
            let vals: std::collections::HashSet<i64> = f
                .column(c)
                .unwrap()
                .as_i64_slice()
                .unwrap()
                .iter()
                .copied()
                .collect();
            assert!(vals.len() as i64 <= GROUP_CARDINALITY);
            assert!(vals.iter().all(|v| (0..GROUP_CARDINALITY).contains(v)));
        }
    }

    #[test]
    fn source_partitions_evenly() {
        let f = generate(1000, 3);
        let s = source(&f, 10);
        assert_eq!(s.meta().num_partitions(), 10);
        assert_eq!(s.meta().total_rows(), 1000);
    }

    #[test]
    fn queries_resolve_for_all_depths() {
        let f = generate(200, 3);
        for d in 0..=10 {
            let g = deep_query(source(&f, 4), d);
            let metas = g.resolve_metas().expect("valid graph");
            let sink = g.sink_id().unwrap();
            // Final output is the global value column v0.
            assert!(metas[sink.0].schema.contains("v0"), "depth {d}");
            // Depth d ⇒ d+1 aggregations ⇒ 1 read + d+1 nodes.
            assert_eq!(g.len(), d + 2);
        }
    }

    #[test]
    fn depth_zero_is_global_sum() {
        let f = generate(100, 3);
        let g = deep_query(source(&f, 2), 0);
        let series = wake_engine::EngineConfig::stepped()
            .start(g)
            .unwrap()
            .collect_series()
            .unwrap();
        let expect: f64 = f
            .column("x")
            .unwrap()
            .as_i64_slice()
            .unwrap()
            .iter()
            .map(|&v| v as f64)
            .sum();
        let got = series
            .last()
            .unwrap()
            .frame
            .value(0, "v0")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((got - expect).abs() < 1e-6);
    }

    #[test]
    fn depth_two_matches_manual_computation() {
        let f = generate(500, 9);
        let g = deep_query(source(&f, 5), 2);
        let series = wake_engine::EngineConfig::stepped()
            .start(g)
            .unwrap()
            .collect_series()
            .unwrap();
        let got = series
            .last()
            .unwrap()
            .frame
            .value(0, "v0")
            .unwrap()
            .as_f64()
            .unwrap();
        // Manual: max x by (c1,c2), sum by c1, global sum.
        use std::collections::HashMap;
        let xs = f.column("x").unwrap().as_i64_slice().unwrap();
        let c1 = f.column("c1").unwrap().as_i64_slice().unwrap();
        let c2 = f.column("c2").unwrap().as_i64_slice().unwrap();
        let mut maxes: HashMap<(i64, i64), i64> = HashMap::new();
        for i in 0..f.num_rows() {
            let e = maxes.entry((c1[i], c2[i])).or_insert(i64::MIN);
            *e = (*e).max(xs[i]);
        }
        let expect: f64 = maxes.values().map(|&v| v as f64).sum();
        assert!((got - expect).abs() < 1e-6, "got {got}, expect {expect}");
    }
}
