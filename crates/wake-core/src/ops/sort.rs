//! Sort / limit operator — the paper's Case 3 "shuffle without inference"
//! (§2.2): order-by and limit must consume their whole input and the
//! output is a snapshot.
//!
//! The buffered input is maintained as **one sorted run** instead of
//! being fully re-sorted on every refresh: a delta is sorted on its own
//! (O(d log d)) and then binary-merged into the run (O(n + d) typed
//! comparisons), so an order-by refresh costs linear gather work instead
//! of an O(n log n) comparator sort over the whole buffer. Snapshot
//! inputs (upstream state replacement — the retraction-shaped case) fall
//! back to a full sort of the refresh, which is the whole state anyway.
//! The merge is stable with ties preferring the existing run, so every
//! emitted frame is bit-identical to `concat(all updates)` + stable sort
//! — asserted by the equivalence tests below. Both the delta sort
//! (`DataFrame::sort_by`) and the merge compare rows with the one directed
//! row order, [`wake_data::hash::cmp_rows_by`].

use crate::meta::EdfMeta;
use crate::ops::{Operator, RowStore};
use crate::progress::Progress;
use crate::update::{Update, UpdateKind};
use crate::Result;
use std::collections::BTreeSet;
use std::sync::Arc;
use wake_data::hash::cmp_rows_by;
use wake_data::DataFrame;

/// Order-by (optionally descending per key) with an optional limit.
pub struct SortOp {
    by: Vec<String>,
    descending: Vec<bool>,
    /// Sort-key column positions in the (fixed) input schema.
    key_idx: Vec<usize>,
    limit: Option<usize>,
    input_kind: UpdateKind,
    /// The buffered input as one run, sorted by `by`/`descending`.
    sorted: Option<Arc<DataFrame>>,
    progress: Progress,
    emitted: bool,
    meta: EdfMeta,
}

impl SortOp {
    pub fn new(
        input: &EdfMeta,
        by: Vec<String>,
        descending: Vec<bool>,
        limit: Option<usize>,
    ) -> Result<Self> {
        if by.len() != descending.len() {
            return Err(wake_data::DataError::Invalid(
                "sort keys and directions must align".into(),
            ));
        }
        let key_idx = by
            .iter()
            .map(|k| input.schema.index_of(k))
            .collect::<Result<Vec<_>>>()?;
        // Output is snapshot-mode; the sort keys define the physical order.
        let clustering = if by.is_empty() {
            None
        } else {
            Some(by.clone())
        };
        let meta = EdfMeta::new(
            input.schema.clone(),
            input.primary_key.clone(),
            UpdateKind::Snapshot,
        )
        .with_clustering(clustering);
        Ok(SortOp {
            by,
            descending,
            key_idx,
            limit,
            input_kind: input.kind,
            sorted: None,
            progress: Progress::new(),
            emitted: false,
            meta,
        })
    }

    /// Sort one frame on its own (stable, like the full re-sort did).
    fn sort_frame(&self, frame: &Arc<DataFrame>) -> Result<Arc<DataFrame>> {
        if self.by.is_empty() {
            return Ok(frame.clone());
        }
        let keys: Vec<&str> = self.by.iter().map(|s| s.as_str()).collect();
        Ok(Arc::new(frame.sort_by(&keys, &self.descending)?))
    }

    /// Binary-merge a sorted delta into the sorted run. Ties take from
    /// the run first — exactly the order a stable sort of
    /// `concat(run-inputs…, delta)` produces, since the run itself is the
    /// stable-sorted prefix by induction.
    fn merge_sorted(&self, run: &Arc<DataFrame>, delta: &Arc<DataFrame>) -> Result<Arc<DataFrame>> {
        if run.num_rows() == 0 {
            return Ok(delta.clone());
        }
        if delta.num_rows() == 0 {
            return Ok(run.clone());
        }
        let (n, d) = (run.num_rows(), delta.num_rows());
        let mut refs: Vec<(u32, u32)> = Vec::with_capacity(n + d);
        let (mut i, mut j) = (0usize, 0usize);
        while i < n && j < d {
            if cmp_rows_by(run, i, delta, j, &self.key_idx, &self.descending).is_le() {
                refs.push((0, i as u32));
                i += 1;
            } else {
                refs.push((1, j as u32));
                j += 1;
            }
        }
        refs.extend((i..n).map(|r| (0u32, r as u32)));
        refs.extend((j..d).map(|r| (1u32, r as u32)));
        let mut store = RowStore::new();
        store.push(run.clone());
        store.push(delta.clone());
        Ok(Arc::new(store.gather(&refs)?))
    }

    fn emit(&self) -> Result<Vec<Update>> {
        let all = match &self.sorted {
            Some(f) => f.clone(),
            None => Arc::new(DataFrame::empty(self.meta.schema.clone())),
        };
        let cut = match self.limit {
            Some(n) if n < all.num_rows() => Arc::new(all.head(n)),
            _ => all,
        };
        Ok(vec![Update::snapshot_from_arc(cut, self.progress.clone())])
    }
}

impl Update {
    fn snapshot_from_arc(frame: Arc<DataFrame>, progress: Progress) -> Update {
        Update {
            frame,
            progress,
            kind: UpdateKind::Snapshot,
        }
    }
}

impl Operator for SortOp {
    fn on_update(&mut self, port: usize, update: &Update) -> Result<Vec<Update>> {
        debug_assert_eq!(port, 0);
        self.progress.merge(&update.progress);
        let addition = self.sort_frame(&update.frame)?;
        self.sorted = match (&self.sorted, self.input_kind) {
            // Snapshot input replaces the whole state: full re-sort of
            // the refresh (there is no prior run to merge into).
            (_, UpdateKind::Snapshot) | (None, _) => Some(addition),
            // Delta input: merge the sorted delta into the sorted run.
            (Some(run), UpdateKind::Delta) => Some(self.merge_sorted(run, &addition)?),
        };
        self.emitted = true;
        self.emit()
    }

    fn on_eof(&mut self, _port: usize) -> Result<Vec<Update>> {
        // A query whose upstream produced nothing still has an answer: the
        // empty frame. Guarantee at least one (final) emission.
        if !self.emitted {
            self.emitted = true;
            return self.emit();
        }
        Ok(Vec::new())
    }

    fn meta(&self) -> &EdfMeta {
        &self.meta
    }

    /// What is observed, and the sort keys.
    fn reads(&self, observed: &BTreeSet<String>) -> Vec<BTreeSet<String>> {
        vec![observed.iter().chain(&self.by).cloned().collect()]
    }

    fn state_bytes(&self) -> usize {
        self.sorted.as_ref().map_or(0, |f| f.byte_size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{delta, kv_frame, snapshot};
    use wake_data::Value;

    fn meta(kind: UpdateKind) -> EdfMeta {
        EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            kind,
        )
    }

    #[test]
    fn accumulates_deltas_and_resorts() {
        let mut op = SortOp::new(
            &meta(UpdateKind::Delta),
            vec!["v".into()],
            vec![true],
            Some(2),
        )
        .unwrap();
        let out = op
            .on_update(0, &delta(kv_frame(vec![1, 2], vec![5.0, 9.0]), 2, 4))
            .unwrap();
        assert_eq!(out[0].frame.num_rows(), 2);
        assert_eq!(out[0].frame.value(0, "v").unwrap(), Value::Float(9.0));
        // New delta displaces one of the current top-2.
        let out = op
            .on_update(0, &delta(kv_frame(vec![3], vec![7.0]), 3, 4))
            .unwrap();
        let f = &out[0].frame;
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(0, "v").unwrap(), Value::Float(9.0));
        assert_eq!(f.value(1, "v").unwrap(), Value::Float(7.0));
        assert_eq!(out[0].kind, UpdateKind::Snapshot);
    }

    #[test]
    fn snapshot_input_replaces_state() {
        let mut op = SortOp::new(
            &meta(UpdateKind::Snapshot),
            vec!["v".into()],
            vec![false],
            None,
        )
        .unwrap();
        op.on_update(0, &snapshot(kv_frame(vec![1, 2], vec![5.0, 1.0]), 1, 2))
            .unwrap();
        let out = op
            .on_update(0, &snapshot(kv_frame(vec![9], vec![3.0]), 2, 2))
            .unwrap();
        assert_eq!(out[0].frame.num_rows(), 1);
        assert_eq!(out[0].frame.value(0, "k").unwrap(), Value::Int(9));
    }

    #[test]
    fn pure_limit_without_sort() {
        let mut op = SortOp::new(&meta(UpdateKind::Delta), vec![], vec![], Some(3)).unwrap();
        let out = op
            .on_update(0, &delta(kv_frame(vec![1, 2, 3, 4, 5], vec![0.0; 5]), 5, 5))
            .unwrap();
        assert_eq!(out[0].frame.num_rows(), 3);
    }

    #[test]
    fn eof_without_input_emits_empty_final_state() {
        let mut op = SortOp::new(
            &meta(UpdateKind::Delta),
            vec!["v".into()],
            vec![false],
            Some(3),
        )
        .unwrap();
        let out = op.on_eof(0).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].frame.num_rows(), 0);
        assert_eq!(out[0].kind, UpdateKind::Snapshot);
        // Only once.
        assert!(op.on_eof(0).unwrap().is_empty());
    }

    #[test]
    fn incremental_merge_matches_full_resort() {
        // The sorted-run maintenance is an optimisation, never a
        // semantics change: after every delta, the emitted snapshot must
        // be bit-identical to concat(all deltas) + stable full sort —
        // including desc keys, null keys, heavy ties, and a limit cut.
        // (No NaN cells here: frame equality is derived from `f64` ==,
        // under which a NaN never equals itself; NaN ordering agreement
        // between `cmp_rows_by` and `Value::cmp` is pinned by
        // `typed_comparators_match_value` in wake-data.)
        use crate::ops::testutil::delta;
        use wake_data::{DataType, Field, Schema};
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let frame = |step: i64| {
            let rows: Vec<Vec<Value>> = (0..17)
                .map(|i| {
                    let k = (i * 5 + step) % 7;
                    vec![
                        if k == 0 { Value::Null } else { Value::Int(k) },
                        Value::Float(((i * step) % 5) as f64 * 0.5 - 1.0),
                    ]
                })
                .collect();
            DataFrame::from_rows(schema.clone(), &rows).unwrap()
        };
        let input = EdfMeta::new(schema.clone(), vec![], UpdateKind::Delta);
        for (by, desc, limit) in [
            (vec!["v".to_string()], vec![true], None),
            (
                vec!["k".to_string(), "v".to_string()],
                vec![false, true],
                Some(9),
            ),
            (vec!["k".to_string()], vec![true], Some(5)),
            (vec![], vec![], Some(30)), // pure limit: concat order
        ] {
            let mut op = SortOp::new(&input, by.clone(), desc.clone(), limit).unwrap();
            let mut seen: Vec<DataFrame> = Vec::new();
            for step in 1..=5i64 {
                let f = frame(step);
                seen.push(f.clone());
                let out = op
                    .on_update(0, &delta(f.clone(), step as u64 * 17, 85))
                    .unwrap();
                // Reference: the old operator — concat everything seen,
                // stable sort, cut.
                let refs: Vec<&DataFrame> = seen.iter().collect();
                let all = DataFrame::concat(&refs).unwrap();
                let sorted = if by.is_empty() {
                    all
                } else {
                    let keys: Vec<&str> = by.iter().map(|s| s.as_str()).collect();
                    all.sort_by(&keys, &desc).unwrap()
                };
                let expect = match limit {
                    Some(n) => sorted.head(n),
                    None => sorted,
                };
                assert_eq!(
                    out[0].frame.as_ref(),
                    &expect,
                    "by={by:?} desc={desc:?} limit={limit:?} step {step}"
                );
            }
        }
    }

    #[test]
    fn validation() {
        assert!(SortOp::new(&meta(UpdateKind::Delta), vec!["v".into()], vec![], None).is_err());
        assert!(SortOp::new(
            &meta(UpdateKind::Delta),
            vec!["nope".into()],
            vec![false],
            None
        )
        .is_err());
    }
}
