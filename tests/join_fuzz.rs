//! Property-based equivalence of Wake's streaming/recompute joins against
//! the naive build-probe join on random tables, across all join kinds,
//! partitionings, duplicate-key densities, null keys, and hash-hostile key
//! distributions. The wake side runs the vectorized hash-key path; the
//! naive side materialises `Row` keys — agreement means the hashed
//! implementation preserves the reference semantics.

use proptest::prelude::*;
use std::sync::Arc;
use wake::baseline::naive::{NaiveJoin, Table};
use wake::core::graph::{JoinKind, Parallelism, QueryGraph};
use wake::data::{Column, DataFrame, DataType, Field, MemorySource, Schema, Value};
use wake::engine::EngineConfig;
use wake_engine::SeriesExt;

/// Keys drawn from a hash-hostile palette: clustered small values, extreme
/// magnitudes, and values differing only in high bits.
const NASTY_KEYS: [i64; 12] = [
    0,
    1,
    -1,
    2,
    1 << 32,
    (1 << 32) + 1,
    1 << 62,
    i64::MAX,
    i64::MIN,
    i64::MAX - 1,
    7,
    -7,
];

fn left_frame(rows: &[(i64, i64)]) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![
        Field::new("k", DataType::Int64),
        Field::new("lv", DataType::Int64),
    ]));
    DataFrame::new(
        schema,
        vec![
            Column::from_i64(rows.iter().map(|r| r.0).collect()),
            Column::from_i64(rows.iter().map(|r| r.1).collect()),
        ],
    )
    .unwrap()
}

fn right_frame(rows: &[(i64, i64)]) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![
        Field::new("rk", DataType::Int64),
        Field::new("rv", DataType::Int64),
    ]));
    DataFrame::new(
        schema,
        vec![
            Column::from_i64(rows.iter().map(|r| r.0).collect()),
            Column::from_i64(rows.iter().map(|r| r.1).collect()),
        ],
    )
    .unwrap()
}

/// Multiset of output rows (order-insensitive comparison).
fn row_multiset(f: &DataFrame) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = (0..f.num_rows()).map(|i| f.row(i)).collect();
    rows.sort();
    rows
}

fn wake_join(
    left: &DataFrame,
    right: &DataFrame,
    kind: JoinKind,
    lparts: usize,
    rparts: usize,
) -> DataFrame {
    let lsrc = MemorySource::from_frame(
        "l",
        left,
        left.num_rows().div_ceil(lparts).max(1),
        vec![],
        None,
    )
    .unwrap();
    let rsrc = MemorySource::from_frame(
        "r",
        right,
        right.num_rows().div_ceil(rparts).max(1),
        vec![],
        None,
    )
    .unwrap();
    let mut g = QueryGraph::new();
    let l = g.read(lsrc);
    let r = g.read(rsrc);
    let j = g.join_kind(l, r, vec!["k"], vec!["rk"], kind);
    g.sink(j);
    EngineConfig::stepped()
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap()
        .final_frame()
        .as_ref()
        .clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn streaming_joins_match_naive(
        lrows in prop::collection::vec((0i64..12, 0i64..100), 0..60),
        rrows in prop::collection::vec((0i64..12, 0i64..100), 0..60),
        lparts in 1usize..5,
        rparts in 1usize..5,
    ) {
        let lf = left_frame(&lrows);
        let rf = right_frame(&rrows);
        let naive_l = Table::new(lf.clone());
        let naive_r = Table::new(rf.clone());
        for (kind, nkind) in [
            (JoinKind::Inner, NaiveJoin::Inner),
            (JoinKind::Left, NaiveJoin::Left),
            (JoinKind::Semi, NaiveJoin::Semi),
            (JoinKind::Anti, NaiveJoin::Anti),
        ] {
            // Skip empty-left sources only when frame construction allows.
            if lf.num_rows() == 0 && rf.num_rows() == 0 {
                continue;
            }
            let wake = wake_join(&lf, &rf, kind, lparts, rparts);
            let naive = naive_l.join(&naive_r, &["k"], &["rk"], nkind).unwrap();
            prop_assert_eq!(
                row_multiset(&wake),
                row_multiset(naive.frame()),
                "kind {:?} lparts {} rparts {}",
                kind,
                lparts,
                rparts
            );
        }
    }

    #[test]
    fn multi_key_join_matches_naive(
        rows in prop::collection::vec((0i64..4, 0i64..4, 0i64..50), 0..50),
    ) {
        // Join a table with itself on a two-column key.
        let schema = Arc::new(Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]));
        let frame = DataFrame::new(
            schema,
            vec![
                Column::from_i64(rows.iter().map(|r| r.0).collect()),
                Column::from_i64(rows.iter().map(|r| r.1).collect()),
                Column::from_i64(rows.iter().map(|r| r.2).collect()),
            ],
        )
        .unwrap();
        if frame.num_rows() == 0 {
            return Ok(());
        }
        let src = || MemorySource::from_frame("t", &frame, 10, vec![], None).unwrap();
        let mut g = QueryGraph::new();
        let l = g.read(src());
        let r = g.read(src());
        let j = g.join(l, r, vec!["a", "b"], vec!["a", "b"]);
        g.sink(j);
        let wake = EngineConfig::stepped().start(g).unwrap().collect_series().unwrap();
        let naive = Table::new(frame.clone())
            .join(&Table::new(frame.clone()), &["a", "b"], &["a", "b"], NaiveJoin::Inner)
            .unwrap();
        prop_assert_eq!(
            row_multiset(wake.final_frame()).len(),
            row_multiset(naive.frame()).len()
        );
    }

    #[test]
    fn null_key_joins_match_naive(
        lrows in prop::collection::vec((0u8..4, 0i64..6, 0i64..100), 0..50),
        rrows in prop::collection::vec((0u8..4, 0i64..6, 0i64..100), 0..50),
        lparts in 1usize..4,
        rparts in 1usize..4,
    ) {
        // First tuple component 0 => null key (~25% nulls).
        let lvals: Vec<(Option<i64>, i64)> =
            lrows.iter().map(|&(n, k, v)| ((n != 0).then_some(k), v)).collect();
        let rvals: Vec<(Option<i64>, i64)> =
            rrows.iter().map(|&(n, k, v)| ((n != 0).then_some(k), v)).collect();
        if lvals.is_empty() && rvals.is_empty() {
            return Ok(());
        }
        let lf = nullable_frame("k", "lv", &lvals);
        let rf = nullable_frame("rk", "rv", &rvals);
        let naive_l = Table::new(lf.clone());
        let naive_r = Table::new(rf.clone());
        for (kind, nkind) in [
            (JoinKind::Inner, NaiveJoin::Inner),
            (JoinKind::Left, NaiveJoin::Left),
            (JoinKind::Semi, NaiveJoin::Semi),
            (JoinKind::Anti, NaiveJoin::Anti),
        ] {
            let wake = wake_join(&lf, &rf, kind, lparts, rparts);
            let naive = naive_l.join(&naive_r, &["k"], &["rk"], nkind).unwrap();
            prop_assert_eq!(
                row_multiset(&wake),
                row_multiset(naive.frame()),
                "kind {:?} with null keys",
                kind
            );
        }
    }

    #[test]
    fn hash_hostile_keys_match_naive(
        lpicks in prop::collection::vec((0usize..12, 0i64..100), 0..40),
        rpicks in prop::collection::vec((0usize..12, 0i64..100), 0..40),
        parts in 1usize..4,
    ) {
        let lrows: Vec<(i64, i64)> =
            lpicks.iter().map(|&(i, v)| (NASTY_KEYS[i], v)).collect();
        let rrows: Vec<(i64, i64)> =
            rpicks.iter().map(|&(i, v)| (NASTY_KEYS[i], v)).collect();
        if lrows.is_empty() && rrows.is_empty() {
            return Ok(());
        }
        let lf = left_frame(&lrows);
        let rf = right_frame(&rrows);
        let naive_l = Table::new(lf.clone());
        let naive_r = Table::new(rf.clone());
        for (kind, nkind) in [
            (JoinKind::Inner, NaiveJoin::Inner),
            (JoinKind::Left, NaiveJoin::Left),
            (JoinKind::Semi, NaiveJoin::Semi),
            (JoinKind::Anti, NaiveJoin::Anti),
        ] {
            let wake = wake_join(&lf, &rf, kind, parts, parts);
            let naive = naive_l.join(&naive_r, &["k"], &["rk"], nkind).unwrap();
            prop_assert_eq!(
                row_multiset(&wake),
                row_multiset(naive.frame()),
                "kind {:?} with extreme keys",
                kind
            );
        }
    }

    #[test]
    fn group_by_with_null_keys_matches_reference(
        rows in prop::collection::vec((0u8..4, 0i64..6, -50i64..50), 1..80),
        per_part in 1usize..20,
    ) {
        // Hashed group-by (nulls form their own group) vs a BTreeMap
        // reference; Option<i64>'s None-first ordering matches Wake's
        // nulls-first output order.
        let vals: Vec<(Option<i64>, i64)> =
            rows.iter().map(|&(n, k, v)| ((n != 0).then_some(k), v)).collect();
        let frame = nullable_frame("k", "v", &vals);
        let src = MemorySource::from_frame("t", &frame, per_part, vec![], None).unwrap();
        let mut g = QueryGraph::new();
        let r = g.read(src);
        let a = g.agg(
            r,
            vec!["k"],
            vec![
                wake::core::agg::AggSpec::sum(wake::expr::col("v"), "s"),
                wake::core::agg::AggSpec::count_star("n"),
            ],
        );
        g.sink(a);
        let out = EngineConfig::stepped()
            .start(g)
            .unwrap()
            .collect_series()
            .unwrap()
            .final_frame()
            .as_ref()
            .clone();
        let mut expect: std::collections::BTreeMap<Option<i64>, (f64, u64)> =
            Default::default();
        for (k, v) in &vals {
            let e = expect.entry(*k).or_default();
            e.0 += *v as f64;
            e.1 += 1;
        }
        prop_assert_eq!(out.num_rows(), expect.len());
        for (i, (k, (s, n))) in expect.iter().enumerate() {
            let got_k = out.value(i, "k").unwrap();
            match k {
                None => prop_assert!(got_k.is_null(), "row {} key {:?}", i, got_k),
                Some(k) => prop_assert_eq!(&got_k, &Value::Int(*k)),
            }
            prop_assert_eq!(
                out.value(i, "s").unwrap().as_f64().unwrap(),
                *s
            );
            prop_assert_eq!(
                out.value(i, "n").unwrap().as_f64().unwrap(),
                *n as f64
            );
        }
    }
}

/// Stepped estimate series for a join graph at an explicit shard count.
fn join_series(
    left: &DataFrame,
    right: &DataFrame,
    kind: JoinKind,
    parts: usize,
    shards: usize,
) -> wake_engine::EstimateSeries {
    let lsrc = MemorySource::from_frame(
        "l",
        left,
        left.num_rows().div_ceil(parts).max(1),
        vec![],
        None,
    )
    .unwrap();
    let rsrc = MemorySource::from_frame(
        "r",
        right,
        right.num_rows().div_ceil(parts).max(1),
        vec![],
        None,
    )
    .unwrap();
    let mut g = QueryGraph::new();
    let l = g.read(lsrc);
    let r = g.read(rsrc);
    let j = g.join_kind(l, r, vec!["k"], vec!["rk"], kind);
    g.sink(j);
    EngineConfig::stepped()
        .with_parallelism(Parallelism::Fixed(shards))
        .start(g)
        .unwrap()
        .collect_series()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Sharded-vs-unsharded equivalence: random S ∈ {1, 2, 3, 8}, null
    // keys and hash-hostile keys mixed in. Frame arrival order is
    // deterministic under the stepped executor, so the estimate series
    // must match one-to-one — same length, same progress, and
    // multiset-identical frames (shard concat may permute rows within an
    // emission). Group-by snapshots are key-sorted with global fold
    // order preserved, so they must be *bit*-identical.
    #[test]
    fn sharded_execution_matches_unsharded(
        lrows in prop::collection::vec((0u8..6, 0usize..12, 0i64..100), 0..60),
        rrows in prop::collection::vec((0u8..6, 0usize..12, 0i64..100), 0..60),
        shard_sel in 0usize..4,
        parts in 1usize..4,
    ) {
        let shards = [1usize, 2, 3, 8][shard_sel];
        // tag 0 → null key, tag 1 → hash-hostile palette, else small dense.
        let key = |tag: u8, idx: usize| match tag {
            0 => None,
            1 => Some(NASTY_KEYS[idx]),
            _ => Some(idx as i64 % 6),
        };
        let lvals: Vec<(Option<i64>, i64)> =
            lrows.iter().map(|&(t, i, v)| (key(t, i), v)).collect();
        let rvals: Vec<(Option<i64>, i64)> =
            rrows.iter().map(|&(t, i, v)| (key(t, i), v)).collect();
        if lvals.is_empty() && rvals.is_empty() {
            return Ok(());
        }
        let lf = nullable_frame("k", "lv", &lvals);
        let rf = nullable_frame("rk", "rv", &rvals);
        for kind in [JoinKind::Inner, JoinKind::Left, JoinKind::Semi, JoinKind::Anti] {
            let serial = join_series(&lf, &rf, kind, parts, 1);
            let sharded = join_series(&lf, &rf, kind, parts, shards);
            prop_assert_eq!(serial.len(), sharded.len(), "kind {:?} S={}", kind, shards);
            for (a, b) in serial.iter().zip(&sharded) {
                prop_assert_eq!(a.t, b.t);
                prop_assert_eq!(
                    row_multiset(&a.frame),
                    row_multiset(&b.frame),
                    "kind {:?} S={} seq {}",
                    kind,
                    shards,
                    a.seq
                );
            }
        }
        // Group-by over the same data: snapshots must be identical frames.
        if !lvals.is_empty() {
            let agg_series = |shards: usize| {
                let src = MemorySource::from_frame(
                    "t",
                    &lf,
                    lf.num_rows().div_ceil(parts).max(1),
                    vec![],
                    None,
                )
                .unwrap();
                let mut g = QueryGraph::new();
                let r = g.read(src);
                let a = g.agg(
                    r,
                    vec!["k"],
                    vec![
                        wake::core::agg::AggSpec::sum(wake::expr::col("lv"), "s"),
                        wake::core::agg::AggSpec::count_star("n"),
                        wake::core::agg::AggSpec::max(wake::expr::col("lv"), "mx"),
                    ],
                );
                g.sink(a);
                EngineConfig::stepped()
                    .with_parallelism(Parallelism::Fixed(shards))
                    .start(g)
                    .unwrap()
                    .collect_series()
                    .unwrap()
            };
            let serial = agg_series(1);
            let sharded = agg_series(shards);
            prop_assert_eq!(serial.len(), sharded.len());
            for (a, b) in serial.iter().zip(&sharded) {
                prop_assert_eq!(a.t, b.t);
                prop_assert_eq!(a.frame.as_ref(), b.frame.as_ref(), "S={} seq {}", shards, a.seq);
            }
        }
    }
}

/// Two-column frame `(key: Int64 nullable, val: Int64)`.
fn nullable_frame(kname: &str, vname: &str, rows: &[(Option<i64>, i64)]) -> DataFrame {
    let schema = Arc::new(Schema::new(vec![
        Field::new(kname, DataType::Int64),
        Field::new(vname, DataType::Int64),
    ]));
    let keys: Vec<Value> = rows
        .iter()
        .map(|(k, _)| k.map_or(Value::Null, Value::Int))
        .collect();
    DataFrame::new(
        schema,
        vec![
            Column::from_values(DataType::Int64, &keys).unwrap(),
            Column::from_i64(rows.iter().map(|r| r.1).collect()),
        ],
    )
    .unwrap()
}
