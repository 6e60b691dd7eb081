//! Confidence-interval support for Deep OLA (§6).
//!
//! When an aggregation operator is built with `with_ci(confidence)`, its
//! output frames carry one extra `Float64` column per aggregate named
//! `{alias}__var` holding the estimator's variance. Downstream consumers
//! (or the user) derive distribution-free Chebyshev intervals from it.
//!
//! Variance propagation (Eq. 9) is applied inside the aggregate
//! finalizers (`agg.rs`: Eqs. 10, 11, 14, 19); a deep aggregation whose
//! *input* already carries `{col}__var` columns folds those variances into
//! its own sums (variance of a sum of independent estimates is the sum of
//! the variances — the diagonal of Eq. 9 for a linear map).

use wake_data::{DataError, DataFrame};
use wake_stats::ConfidenceInterval;

/// Name of the variance column that accompanies aggregate `alias`.
pub fn variance_column(alias: &str) -> String {
    format!("{alias}__var")
}

/// True if `name` is a variance column produced by [`variance_column`].
pub fn is_variance_column(name: &str) -> bool {
    name.ends_with("__var")
}

/// The aggregate alias a variance column belongs to.
pub fn variance_target(name: &str) -> Option<&str> {
    name.strip_suffix("__var")
}

/// Extract the Chebyshev CI for `alias` at `row` of a CI-enabled frame;
/// a `confidence` outside `[0, 1)` (or NaN) is a typed error.
pub fn interval_at(
    frame: &DataFrame,
    row: usize,
    alias: &str,
    confidence: f64,
) -> crate::Result<ConfidenceInterval> {
    if !(0.0..1.0).contains(&confidence) {
        return Err(DataError::Invalid(format!(
            "confidence must be in [0, 1), got {confidence}"
        )));
    }
    let est = frame
        .value(row, alias)?
        .as_f64()
        .ok_or_else(|| DataError::Invalid(format!("{alias} is not numeric")))?;
    let var = frame
        .value(row, &variance_column(alias))?
        .as_f64()
        .unwrap_or(0.0);
    Ok(ConfidenceInterval::from_variance(est, var, confidence))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wake_data::{Column, DataType, Field, Schema};

    #[test]
    fn naming_roundtrip() {
        assert_eq!(variance_column("revenue"), "revenue__var");
        assert!(is_variance_column("revenue__var"));
        assert!(!is_variance_column("revenue"));
        assert_eq!(variance_target("revenue__var"), Some("revenue"));
        assert_eq!(variance_target("revenue"), None);
    }

    #[test]
    fn interval_extraction() {
        let schema = Arc::new(Schema::new(vec![
            Field::mutable("s", DataType::Float64),
            Field::mutable("s__var", DataType::Float64),
        ]));
        let df = DataFrame::new(
            schema,
            vec![Column::from_f64(vec![10.0]), Column::from_f64(vec![4.0])],
        )
        .unwrap();
        let ci = interval_at(&df, 0, "s", 0.75).unwrap();
        assert!((ci.lower - 6.0).abs() < 1e-12);
        assert!((ci.upper - 14.0).abs() < 1e-12);
        assert!(interval_at(&df, 0, "missing", 0.75).is_err());
    }
}
