//! Map (projection) operator — paper §3.2 "Map".
//!
//! Applies a list of named expressions to each arriving state. The function
//! is applied to whole partitions (not rows), an order-preserving local
//! operation (Case 1): `op([p1, p2]) = [op(p1), op(p2)]`, so delta inputs
//! yield delta outputs and clustering is preserved.

use crate::ci::variance_column;
use crate::meta::EdfMeta;
use crate::ops::map_ci::{detect_var_inputs, propagate_variance, VarInputs};
use crate::ops::Operator;
use crate::update::Update;
use crate::Result;
use std::collections::BTreeSet;
use std::sync::Arc;
use wake_data::{DataFrame, Field, Schema};
use wake_expr::{eval, infer_type, Expr};

/// Projection: compute `exprs` (with output names) over every state.
///
/// When an input column carries a `{col}__var` variance companion (from a
/// CI-enabled aggregation upstream), each output expression referencing it
/// gains its own `{alias}__var` column computed by first-order variance
/// propagation (§6, Appendix B) — so confidence intervals survive
/// projections like Q14's final `100 * promo / total` ratio.
pub struct MapOp {
    exprs: Vec<(Expr, String)>,
    /// Per-expr variance-propagation plan (None = no variance output).
    var_plans: Vec<Option<VarInputs>>,
    meta: EdfMeta,
}

impl MapOp {
    /// Build against the input's metadata; the output schema is inferred.
    /// An output attribute is mutable iff it references a mutable input
    /// attribute (§2.3). The primary key survives when every key column is
    /// projected through (by name).
    pub fn new(input: &EdfMeta, exprs: Vec<(Expr, String)>) -> Result<Self> {
        let mut fields = Vec::with_capacity(exprs.len());
        for (expr, alias) in &exprs {
            let dtype = infer_type(expr, &input.schema)?;
            let mutable = expr
                .referenced_columns()
                .iter()
                .any(|c| input.schema.field(c).map(|f| f.mutable).unwrap_or(false));
            fields.push(Field {
                name: alias.clone(),
                dtype,
                mutable,
            });
        }
        // Variance propagation: outputs referencing CI-carrying inputs get
        // their own variance column (unless the user already projects one
        // with that name explicitly).
        let var_plans = detect_var_inputs(&exprs, &input.schema);
        for ((_, alias), plan) in exprs.iter().zip(&var_plans) {
            if plan.is_some() {
                let vc = variance_column(alias);
                if !fields.iter().any(|f| f.name == vc) {
                    fields.push(Field::mutable(vc, wake_data::DataType::Float64));
                }
            }
        }
        let schema = Arc::new(Schema::new(fields));
        let key_survives = !input.primary_key.is_empty()
            && input.primary_key.iter().all(|k| {
                exprs.iter().any(|(e, alias)| {
                    alias == k && matches!(e, Expr::Col(c) if c.as_ref() == k.as_str())
                })
            });
        let primary_key = if key_survives {
            input.primary_key.clone()
        } else {
            Vec::new()
        };
        let clustering = input.clustering_key.clone().filter(|ck| {
            ck.iter().all(|k| {
                exprs.iter().any(|(e, alias)| {
                    alias == k && matches!(e, Expr::Col(c) if c.as_ref() == k.as_str())
                })
            })
        });
        let meta = EdfMeta::new(schema, primary_key, input.kind).with_clustering(clustering);
        Ok(MapOp {
            exprs,
            var_plans,
            meta,
        })
    }

    fn apply(&self, frame: &DataFrame) -> Result<DataFrame> {
        let mut columns = self
            .exprs
            .iter()
            .map(|(e, _)| eval(e, frame))
            .collect::<Result<Vec<_>>>()?;
        // Append propagated variance columns in schema order.
        for (i, plan) in self.var_plans.iter().enumerate() {
            if let Some(plan) = plan {
                let vc = variance_column(&self.exprs[i].1);
                // Skip if the user's own projection already supplies a
                // column with this name (it occupies a slot among the
                // first `exprs.len()` schema fields).
                if self.meta.schema.index_of(&vc)? < self.exprs.len() {
                    continue;
                }
                columns.push(propagate_variance(
                    &self.exprs[i].0,
                    frame,
                    plan,
                    &columns[i],
                )?);
            }
        }
        DataFrame::new(self.meta.schema.clone(), columns)
    }
}

impl Operator for MapOp {
    fn on_update(&mut self, port: usize, update: &Update) -> Result<Vec<Update>> {
        debug_assert_eq!(port, 0);
        let mapped = self.apply(&update.frame)?;
        Ok(vec![Update {
            frame: Arc::new(mapped),
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

    /// A barrier: what the expressions name, and the `{col}__var`
    /// companions whose variance they propagate — whatever is observed.
    fn reads(&self, _observed: &BTreeSet<String>) -> Vec<BTreeSet<String>> {
        let named = self.exprs.iter().flat_map(|(e, _)| e.referenced_columns());
        let companions = self.var_plans.iter().flatten().flat_map(|p| &p.inputs);
        vec![named
            .map(String::from)
            .chain(companions.map(|(_, vc)| vc.clone()))
            .collect()]
    }
}

/// Convenience: identity projections for the named columns.
pub fn passthrough(names: &[&str]) -> Vec<(Expr, String)> {
    names
        .iter()
        .map(|n| (wake_expr::col(n), n.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{delta, kv_frame, snapshot};
    use crate::update::UpdateKind;
    use wake_data::{DataType, Value};
    use wake_expr::{col, lit_f64};

    fn input_meta(kind: UpdateKind) -> EdfMeta {
        let frame = kv_frame(vec![], vec![]);
        EdfMeta::new(frame.schema().clone(), vec!["k".into()], kind)
            .with_clustering(Some(vec!["k".into()]))
    }

    #[test]
    fn projects_and_preserves_kind() {
        let mut op = MapOp::new(
            &input_meta(UpdateKind::Delta),
            vec![
                (col("k"), "k".into()),
                (col("v").mul(lit_f64(2.0)), "v2".into()),
            ],
        )
        .unwrap();
        assert_eq!(op.meta().kind, UpdateKind::Delta);
        assert_eq!(op.meta().primary_key, vec!["k".to_string()]);
        assert!(op.meta().clustered_on(&["k".into()]));
        let out = op
            .on_update(0, &delta(kv_frame(vec![1, 2], vec![1.5, 2.5]), 2, 4))
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, UpdateKind::Delta);
        assert_eq!(out[0].frame.value(1, "v2").unwrap(), Value::Float(5.0));
        assert!((out[0].t() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dropping_key_clears_it() {
        let op = MapOp::new(&input_meta(UpdateKind::Delta), vec![(col("v"), "v".into())]).unwrap();
        assert!(op.meta().primary_key.is_empty());
        assert!(op.meta().clustering_key.is_none());
    }

    #[test]
    fn renaming_key_clears_it() {
        let op = MapOp::new(
            &input_meta(UpdateKind::Delta),
            vec![(col("k"), "key_renamed".into()), (col("v"), "v".into())],
        )
        .unwrap();
        assert!(op.meta().primary_key.is_empty());
    }

    #[test]
    fn snapshot_passes_through() {
        let mut op = MapOp::new(
            &input_meta(UpdateKind::Snapshot),
            vec![(col("k"), "k".into())],
        )
        .unwrap();
        let out = op
            .on_update(0, &snapshot(kv_frame(vec![7], vec![0.0]), 1, 2))
            .unwrap();
        assert_eq!(out[0].kind, UpdateKind::Snapshot);
    }

    #[test]
    fn mutability_propagates_from_inputs() {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::mutable("sum_v", DataType::Float64),
        ]));
        let input = EdfMeta::new(schema, vec!["k".into()], UpdateKind::Snapshot);
        let op = MapOp::new(
            &input,
            vec![
                (col("k"), "k".into()),
                (col("sum_v").mul(lit_f64(0.5)), "half".into()),
            ],
        )
        .unwrap();
        assert!(!op.meta().schema.field("k").unwrap().mutable);
        assert!(op.meta().schema.field("half").unwrap().mutable);
    }

    #[test]
    fn type_errors_surface_at_build_time() {
        let err = MapOp::new(
            &input_meta(UpdateKind::Delta),
            vec![(col("missing"), "m".into())],
        );
        assert!(err.is_err());
    }

    #[test]
    fn variance_propagation_through_map() {
        // Input carries s__var: mapped output s/2 must carry its own var.
        let schema = Arc::new(Schema::new(vec![
            Field::mutable("s", DataType::Float64),
            Field::mutable("s__var", DataType::Float64),
        ]));
        let input = EdfMeta::new(schema.clone(), vec![], UpdateKind::Snapshot);
        let mut op = MapOp::new(&input, vec![(col("s").mul(lit_f64(0.5)), "half".into())]).unwrap();
        assert!(op.meta().schema.contains("half__var"));
        let frame = wake_data::DataFrame::new(
            schema,
            vec![
                wake_data::Column::from_f64(vec![10.0]),
                wake_data::Column::from_f64(vec![4.0]),
            ],
        )
        .unwrap();
        let out = op
            .on_update(
                0,
                &crate::update::Update::snapshot(frame, crate::progress::Progress::single(0, 1, 2)),
            )
            .unwrap();
        // Var(0.5·s) = 0.25·Var(s) = 1.0.
        let v = out[0]
            .frame
            .value(0, "half__var")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!((v - 1.0).abs() < 1e-3, "propagated var {v}");
    }

    #[test]
    fn explicit_var_projection_is_not_duplicated() {
        let schema = Arc::new(Schema::new(vec![
            Field::mutable("s", DataType::Float64),
            Field::mutable("s__var", DataType::Float64),
        ]));
        let input = EdfMeta::new(schema.clone(), vec![], UpdateKind::Snapshot);
        // The user projects the variance themselves under the output name.
        let mut op = MapOp::new(
            &input,
            vec![(col("s"), "s".into()), (col("s__var"), "s__var".into())],
        )
        .unwrap();
        assert_eq!(op.meta().schema.len(), 2, "no duplicate var column");
        let frame = wake_data::DataFrame::new(
            schema,
            vec![
                wake_data::Column::from_f64(vec![1.0]),
                wake_data::Column::from_f64(vec![2.0]),
            ],
        )
        .unwrap();
        let out = op
            .on_update(
                0,
                &crate::update::Update::snapshot(frame, crate::progress::Progress::single(0, 1, 1)),
            )
            .unwrap();
        assert_eq!(out[0].frame.num_columns(), 2);
    }

    #[test]
    fn passthrough_builder() {
        let exprs = passthrough(&["a", "b"]);
        assert_eq!(exprs.len(), 2);
        assert_eq!(exprs[0].1, "a");
    }
}
