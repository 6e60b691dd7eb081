//! Variance propagation through projections (paper §6 "Variance
//! Propagation", Appendix B "Mapping and Projection").
//!
//! For a differentiable mapping `v = f(u)` with known input variances, the
//! first-order rule `Var(v) ≈ Σ_k (∂f/∂u_k)² · Var(u_k)` (the diagonal of
//! Eq. 9, inputs treated as independent) propagates uncertainty from a
//! CI-enabled aggregation through subsequent maps. The paper evaluates
//! partials by automatic differentiation; we use forward finite
//! differences on the vectorized evaluator, which handles every
//! expression the engine can run and degrades gracefully on
//! non-differentiable points (the paper marks those "unstable" — here the
//! derivative is simply taken just off the kink).

use crate::ci::variance_column;
use crate::Result;
use std::sync::Arc;
use wake_data::column::ColumnData;
use wake_data::{Column, DataFrame, DataType, Schema};
use wake_expr::{eval, Expr};

/// For one projected expression: the input columns that carry variance.
#[derive(Debug, Clone)]
pub struct VarInputs {
    /// (value column, its `{col}__var` column) pairs.
    pub inputs: Vec<(String, String)>,
}

/// Detect which projected expressions need an output variance column:
/// those referencing a numeric input column that has a `{col}__var`
/// companion in `input_schema`.
pub fn detect_var_inputs(
    exprs: &[(Expr, String)],
    input_schema: &Schema,
) -> Vec<Option<VarInputs>> {
    exprs
        .iter()
        .map(|(e, alias)| {
            // Never chain variances of variances.
            if crate::ci::is_variance_column(alias) {
                return None;
            }
            let inputs: Vec<(String, String)> = e
                .referenced_columns()
                .into_iter()
                .filter_map(|c| {
                    let vc = variance_column(c);
                    let numeric = input_schema
                        .field(c)
                        .map(|f| f.dtype.is_numeric())
                        .unwrap_or(false);
                    (numeric && input_schema.contains(&vc)).then(|| (c.to_string(), vc))
                })
                .collect();
            if inputs.is_empty() {
                None
            } else {
                Some(VarInputs { inputs })
            }
        })
        .collect()
}

/// Propagate variance for one expression over one frame: returns the
/// per-row output variance column (Float64).
pub fn propagate_variance(
    expr: &Expr,
    frame: &DataFrame,
    var_inputs: &VarInputs,
    base: &Column,
) -> Result<Column> {
    let n = frame.num_rows();
    let mut out = vec![0.0f64; n];
    for (col_name, var_name) in &var_inputs.inputs {
        let u = frame.column(col_name)?;
        let var_u = frame.column(var_name)?;
        // Forward difference with per-row relative step, in the float
        // domain even for an Int64 column (a +h bump needs it). A null row
        // stays null, with step 0.
        let mut perturbed = Vec::with_capacity(n);
        let mut steps = Vec::with_capacity(n);
        for i in 0..n {
            let (x, h) = match u.f64_at(i) {
                Some(x) => (x, (x.abs() * 1e-6).max(1e-9)),
                None => (0.0, 0.0),
            };
            perturbed.push(x + h);
            steps.push(h);
        }
        let validity = u.validity().map(<[bool]>::to_vec);
        let pert_col = Column::with_validity_opt(ColumnData::Float64(perturbed), validity)?;
        let pert_frame = with_replaced_frame_for(frame, col_name, pert_col)?;
        let f_pert = eval(expr, &pert_frame)?;
        for i in 0..n {
            if steps[i] == 0.0 {
                continue;
            }
            let (Some(f1), Some(f0)) = (f_pert.f64_at(i), base.f64_at(i)) else {
                continue;
            };
            let d = (f1 - f0) / steps[i];
            let v = var_u.f64_at(i).unwrap_or(0.0);
            out[i] += d * d * v;
        }
    }
    Ok(Column::from_f64(out))
}

/// Replace column `name` with the Float64 column `values`, widening its
/// schema field to Float64 when needed so the perturbed values type-check.
fn with_replaced_frame_for(frame: &DataFrame, name: &str, values: Column) -> Result<DataFrame> {
    let idx = frame.schema().index_of(name)?;
    let mut columns = frame.columns().to_vec();
    columns[idx] = values;
    let schema = if frame.schema().fields()[idx].dtype == DataType::Float64 {
        frame.schema().clone()
    } else {
        let mut fields = frame.schema().fields().to_vec();
        fields[idx].dtype = DataType::Float64;
        Arc::new(Schema::new(fields))
    };
    DataFrame::new(schema, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wake_data::{Field, Value};
    use wake_expr::{col, lit_f64};

    fn frame_with_var(xs: Vec<f64>, vars: Vec<f64>) -> DataFrame {
        let schema = Arc::new(Schema::new(vec![
            Field::mutable("x", DataType::Float64),
            Field::mutable("x__var", DataType::Float64),
        ]));
        DataFrame::new(schema, vec![Column::from_f64(xs), Column::from_f64(vars)]).unwrap()
    }

    #[test]
    fn detection_requires_numeric_and_var_column() {
        let f = frame_with_var(vec![1.0], vec![0.1]);
        let exprs = vec![
            (col("x").mul(lit_f64(2.0)), "y".to_string()),
            (lit_f64(1.0), "c".to_string()),
            (col("x__var"), "x__var".to_string()),
        ];
        let det = detect_var_inputs(&exprs, f.schema());
        assert!(det[0].is_some());
        assert!(det[1].is_none());
        assert!(det[2].is_none(), "variance columns are never re-propagated");
    }

    #[test]
    fn linear_map_scales_variance_quadratically() {
        // y = 3x  =>  Var(y) = 9 Var(x).
        let f = frame_with_var(vec![2.0, -5.0], vec![0.5, 2.0]);
        let expr = col("x").mul(lit_f64(3.0));
        let base = eval(&expr, &f).unwrap();
        let det = detect_var_inputs(&[(expr.clone(), "y".into())], f.schema());
        let v = propagate_variance(&expr, &f, det[0].as_ref().unwrap(), &base).unwrap();
        assert!((v.f64_at(0).unwrap() - 4.5).abs() < 1e-3);
        assert!((v.f64_at(1).unwrap() - 18.0).abs() < 1e-3);
    }

    #[test]
    fn nonlinear_map_uses_local_derivative() {
        // y = x²  =>  Var(y) ≈ (2x)² Var(x).
        let f = frame_with_var(vec![3.0], vec![0.25]);
        let expr = col("x").mul(col("x"));
        let base = eval(&expr, &f).unwrap();
        let det = detect_var_inputs(&[(expr.clone(), "y".into())], f.schema());
        let v = propagate_variance(&expr, &f, det[0].as_ref().unwrap(), &base).unwrap();
        // (2·3)²·0.25 = 9.
        assert!((v.f64_at(0).unwrap() - 9.0).abs() < 1e-2);
    }

    #[test]
    fn ratio_map_matches_eq14_shape() {
        // y = a/b with independent variances.
        let schema = Arc::new(Schema::new(vec![
            Field::mutable("a", DataType::Float64),
            Field::mutable("a__var", DataType::Float64),
            Field::mutable("b", DataType::Float64),
            Field::mutable("b__var", DataType::Float64),
        ]));
        let f = DataFrame::new(
            schema,
            vec![
                Column::from_f64(vec![10.0]),
                Column::from_f64(vec![1.0]),
                Column::from_f64(vec![4.0]),
                Column::from_f64(vec![0.16]),
            ],
        )
        .unwrap();
        let expr = col("a").div(col("b"));
        let base = eval(&expr, &f).unwrap();
        let det = detect_var_inputs(&[(expr.clone(), "y".into())], f.schema());
        let v = propagate_variance(&expr, &f, det[0].as_ref().unwrap(), &base).unwrap();
        // Analytic: Var = Var(a)/b² + a²Var(b)/b⁴ = 1/16 + 100·0.16/256.
        let expect = 1.0 / 16.0 + 100.0 * 0.16 / 256.0;
        assert!((v.f64_at(0).unwrap() - expect).abs() < 1e-3);
    }

    #[test]
    fn null_inputs_contribute_zero() {
        let schema = Arc::new(Schema::new(vec![
            Field::mutable("x", DataType::Float64),
            Field::mutable("x__var", DataType::Float64),
        ]));
        let f = DataFrame::from_rows(schema, &[vec![Value::Null, Value::Float(1.0)]]).unwrap();
        let expr = col("x").mul(lit_f64(2.0));
        let base = eval(&expr, &f).unwrap();
        let det = detect_var_inputs(&[(expr.clone(), "y".into())], f.schema());
        let v = propagate_variance(&expr, &f, det[0].as_ref().unwrap(), &base).unwrap();
        assert_eq!(v.f64_at(0), Some(0.0));
    }
}
