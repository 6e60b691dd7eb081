//! Filter (selection) operator — paper §3.2 "Filter".
//!
//! An alias of map that may produce empty outputs (Case 1 for predicates on
//! constant attributes). For snapshot inputs — e.g. filtering an evolving
//! aggregate on a mutable attribute like `sum_qty > 300` — each arriving
//! snapshot is re-filtered in full, which is exactly the paper's Case 3
//! recompute semantics, obtained here for free from the snapshot protocol.

use crate::meta::EdfMeta;
use crate::ops::Operator;
use crate::update::Update;
use crate::Result;
use std::collections::BTreeSet;
use std::sync::Arc;
use wake_expr::{eval_selection, infer_type, Expr};

/// Selection: keep rows satisfying `predicate`.
pub struct FilterOp {
    predicate: Expr,
    meta: EdfMeta,
}

impl FilterOp {
    pub fn new(input: &EdfMeta, predicate: Expr) -> Result<Self> {
        // Validate the predicate against the schema now (consistency).
        let dtype = infer_type(&predicate, &input.schema)?;
        if dtype != wake_data::DataType::Bool {
            return Err(wake_data::DataError::TypeMismatch {
                expected: "Bool predicate".into(),
                found: dtype.to_string(),
            });
        }
        // Schema, keys, clustering, and stream kind all pass through.
        Ok(FilterOp {
            predicate,
            meta: input.clone(),
        })
    }
}

impl Operator for FilterOp {
    fn on_update(&mut self, port: usize, update: &Update) -> Result<Vec<Update>> {
        debug_assert_eq!(port, 0);
        // Predicate → selection vector; the gather consumes the same
        // `u32` representation as the partition scatter.
        let sel = eval_selection(&self.predicate, &update.frame)?;
        let filtered = update.frame.select(&sel);
        Ok(vec![Update {
            frame: Arc::new(filtered),
            progress: update.progress.clone(),
            kind: update.kind,
        }])
    }

    fn on_eof(&mut self, _port: usize) -> Result<Vec<Update>> {
        Ok(Vec::new())
    }

    fn meta(&self) -> &EdfMeta {
        &self.meta
    }

    /// What is observed, and the predicate's columns.
    fn reads(&self, observed: &BTreeSet<String>) -> Vec<BTreeSet<String>> {
        let own = self.predicate.referenced_columns().into_iter();
        vec![observed
            .iter()
            .cloned()
            .chain(own.map(String::from))
            .collect()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{delta, kv_frame, snapshot};
    use crate::update::UpdateKind;
    use wake_data::Value;
    use wake_expr::{col, lit_f64};

    fn meta(kind: UpdateKind) -> EdfMeta {
        EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            kind,
        )
    }

    #[test]
    fn filters_deltas() {
        let mut op = FilterOp::new(&meta(UpdateKind::Delta), col("v").gt(lit_f64(1.0))).unwrap();
        let out = op
            .on_update(
                0,
                &delta(kv_frame(vec![1, 2, 3], vec![0.5, 1.5, 2.5]), 3, 3),
            )
            .unwrap();
        assert_eq!(out[0].frame.num_rows(), 2);
        assert_eq!(out[0].frame.value(0, "k").unwrap(), Value::Int(2));
        assert_eq!(out[0].kind, UpdateKind::Delta);
    }

    #[test]
    fn empty_result_is_fine() {
        let mut op = FilterOp::new(&meta(UpdateKind::Delta), col("v").gt(lit_f64(99.0))).unwrap();
        let out = op
            .on_update(0, &delta(kv_frame(vec![1], vec![1.0]), 1, 1))
            .unwrap();
        assert_eq!(out[0].frame.num_rows(), 0);
    }

    #[test]
    fn snapshot_refiltered_in_full() {
        let mut op = FilterOp::new(&meta(UpdateKind::Snapshot), col("v").gt(lit_f64(1.0))).unwrap();
        // First snapshot: both rows above threshold.
        let out = op
            .on_update(0, &snapshot(kv_frame(vec![1, 2], vec![2.0, 3.0]), 1, 2))
            .unwrap();
        assert_eq!(out[0].frame.num_rows(), 2);
        // Refined snapshot: row 1's value dropped below the threshold — the
        // new output no longer contains it (Case 3 recompute).
        let out = op
            .on_update(0, &snapshot(kv_frame(vec![1, 2], vec![0.5, 3.0]), 2, 2))
            .unwrap();
        assert_eq!(out[0].frame.num_rows(), 1);
        assert_eq!(out[0].frame.value(0, "k").unwrap(), Value::Int(2));
    }

    #[test]
    fn non_boolean_predicate_rejected() {
        assert!(FilterOp::new(&meta(UpdateKind::Delta), col("v").add(lit_f64(1.0))).is_err());
    }

    #[test]
    fn cross_class_comparison_rejected_when_built() {
        let p = col("k").gt(wake_expr::lit_str("1"));
        assert!(FilterOp::new(&meta(UpdateKind::Delta), p).is_err());
    }
}
