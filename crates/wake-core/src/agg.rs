//! Aggregate specifications and mergeable intrinsic states (§4.2–§4.3,
//! Table 2) plus the aggregate estimators of §5.3.
//!
//! Each aggregate keeps an **intrinsic representation** that merges with a
//! key-based `⊕` (count/sum: addition; min/max: extremum; count-distinct:
//! the exact value set, per the paper's footnote 3; avg/var: `(count, sum,
//! sum-of-squares)`), and a **finalizer** that turns raw partials into
//! unbiased extrinsic estimates via growth-based scaling.
//!
//! Each kind's fold rule and finalize rule live here once, in two kernels.
//! [`AggState::fold_column`] is the one that observes input: it folds a
//! typed column into a slice of states, row `i` into `states[slots[i]]`,
//! for every kind and column type. [`AggState::finalize_column`] is the one
//! that reads states out: it turns the states in a given order into one
//! typed estimate column plus each estimate's variance, for every kind.

use crate::Result;
use std::collections::HashSet;
use std::sync::Arc;
use wake_data::column::ColumnData;
use wake_data::hash::{canonical_f64_bits, cmp_f64};
use wake_data::{Column, DataError, DataType, Value};
use wake_expr::{lit_i64, Expr};
use wake_stats::distinct::{distinct_variance, estimate_distinct};
use wake_stats::Moments;

/// Supported aggregation functions (§3.1 `agg := sum | count | avg | ...`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(*)` — rows per group.
    CountStar,
    /// `count(expr)` — non-null values per group.
    Count,
    Sum,
    Avg,
    /// `sum(value·weight)/sum(weight)` — the paper's weighted average
    /// (Eq. 5); covers ratio-of-sums queries like TPC-H Q14.
    WeightedAvg,
    Min,
    Max,
    CountDistinct,
    Var,
    Stddev,
    /// `quantile(expr, q)` — k-th order statistic (§5.3 "Order Statistics:
    /// min, max, median, quantiles"); `q` lives in [`AggSpec::quantile`].
    Quantile,
}

/// One aggregate column: function, input expression(s), output name.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Input expression (ignored for `CountStar`).
    pub expr: Expr,
    /// Weight expression for `WeightedAvg`.
    pub weight: Option<Expr>,
    /// Quantile rank in [0, 1] for `Quantile` (0.5 = median). An
    /// aggregation rejects a `Quantile` spec without one; a bare
    /// [`AggSpec::new_state`] reads a missing rank as the median.
    pub quantile: Option<f64>,
    pub alias: String,
}

impl AggSpec {
    pub fn count_star(alias: &str) -> Self {
        AggSpec {
            func: AggFunc::CountStar,
            expr: lit_i64(1),
            weight: None,
            quantile: None,
            alias: alias.into(),
        }
    }

    pub fn count(expr: Expr, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::Count,
            expr,
            weight: None,
            quantile: None,
            alias: alias.into(),
        }
    }

    pub fn sum(expr: Expr, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::Sum,
            expr,
            weight: None,
            quantile: None,
            alias: alias.into(),
        }
    }

    pub fn avg(expr: Expr, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::Avg,
            expr,
            weight: None,
            quantile: None,
            alias: alias.into(),
        }
    }

    pub fn weighted_avg(value: Expr, weight: Expr, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::WeightedAvg,
            expr: value,
            weight: Some(weight),
            quantile: None,
            alias: alias.into(),
        }
    }

    pub fn min(expr: Expr, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::Min,
            expr,
            weight: None,
            quantile: None,
            alias: alias.into(),
        }
    }

    pub fn max(expr: Expr, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::Max,
            expr,
            weight: None,
            quantile: None,
            alias: alias.into(),
        }
    }

    pub fn count_distinct(expr: Expr, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::CountDistinct,
            expr,
            weight: None,
            quantile: None,
            alias: alias.into(),
        }
    }

    pub fn var(expr: Expr, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::Var,
            expr,
            weight: None,
            quantile: None,
            alias: alias.into(),
        }
    }

    pub fn stddev(expr: Expr, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::Stddev,
            expr,
            weight: None,
            quantile: None,
            alias: alias.into(),
        }
    }

    /// `q`-th sample quantile, `q` in [0, 1]; an aggregation rejects a
    /// rank outside that range as `DataError::Invalid`.
    pub fn quantile(expr: Expr, q: f64, alias: &str) -> Self {
        AggSpec {
            func: AggFunc::Quantile,
            expr,
            weight: None,
            quantile: Some(q),
            alias: alias.into(),
        }
    }

    /// Median (the 0.5 quantile).
    pub fn median(expr: Expr, alias: &str) -> Self {
        Self::quantile(expr, 0.5, alias)
    }

    /// Output type of the aggregate column. Estimates of counts/sums can be
    /// fractional mid-query, so everything numeric is `Float64`; min/max
    /// keep the input type.
    pub fn output_type(&self, input_type: DataType) -> DataType {
        match self.func {
            AggFunc::Min | AggFunc::Max => input_type,
            _ => DataType::Float64,
        }
    }

    /// Build the empty intrinsic state for this aggregate.
    pub fn new_state(&self) -> AggState {
        match self.func {
            AggFunc::CountStar | AggFunc::Count => AggState::Count { n: 0.0 },
            AggFunc::Sum => AggState::Sum { m: Moments::new() },
            AggFunc::Avg => AggState::Avg { m: Moments::new() },
            AggFunc::WeightedAvg => AggState::WeightedAvg {
                m_wv: Moments::new(),
                m_w: Moments::new(),
            },
            AggFunc::Min => AggState::Extreme {
                best: None,
                second: None,
                is_min: true,
            },
            AggFunc::Max => AggState::Extreme {
                best: None,
                second: None,
                is_min: false,
            },
            AggFunc::CountDistinct => AggState::Distinct {
                set: DistinctSet::default(),
                n: 0.0,
            },
            AggFunc::Var => AggState::Dispersion {
                m: Moments::new(),
                stddev: false,
            },
            AggFunc::Stddev => AggState::Dispersion {
                m: Moments::new(),
                stddev: true,
            },
            AggFunc::Quantile => AggState::Sample {
                values: Vec::new(),
                q: self.quantile.unwrap_or(0.5),
            },
        }
    }
}

/// Growth context passed to finalizers: the shared scale `t^{-w}` plus the
/// terms needed for variance propagation (§6).
#[derive(Debug, Clone, Copy)]
pub struct ScaleContext {
    /// `t^{-w}`; 1.0 once the input is complete.
    pub scale: f64,
    /// Current progress `t`.
    pub t: f64,
    /// Variance of the fitted growth power `w`.
    pub w_variance: f64,
}

impl ScaleContext {
    /// No-scaling context (complete inputs / exact mode).
    pub fn exact() -> Self {
        ScaleContext {
            scale: 1.0,
            t: 1.0,
            w_variance: 0.0,
        }
    }

    /// `Var(x̂)` for a group with extrapolated cardinality `xhat` (Eq. 10's
    /// inner term): `(x̂ · ln(1/t))² · Var(w)`.
    pub fn cardinality_variance(&self, xhat: f64) -> f64 {
        if self.t >= 1.0 || self.t <= 0.0 {
            return 0.0;
        }
        let ln_inv_t = (1.0 / self.t).ln();
        (xhat * ln_inv_t).powi(2) * self.w_variance
    }
}

/// Typed storage for count-distinct's exact value set.
///
/// The set stores the *equivalence class* each `Value` hashes to:
/// numerics by their canonical `f64` bit pattern (so `Int(3)`,
/// `Float(3.0)`, and `Date(3)` coalesce exactly as `Value` equality
/// does), strings by their `Arc<str>`, booleans as two bits. One set holds
/// one class of cell, fixed by its first insert: a spec's input type is
/// fixed when the plan is built, so a cell of another class can only come
/// from a mistyped spilled state, and is a `DataError::TypeMismatch`.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum DistinctSet {
    #[default]
    Empty,
    /// Canonical f64 bit patterns (`-0.0` → `0.0`, all NaNs unify).
    Num(HashSet<u64>),
    Str(HashSet<Arc<str>>),
    Bool {
        seen_true: bool,
        seen_false: bool,
    },
}

impl DistinctSet {
    pub fn len(&self) -> usize {
        match self {
            DistinctSet::Empty => 0,
            DistinctSet::Num(s) => s.len(),
            DistinctSet::Str(s) => s.len(),
            DistinctSet::Bool {
                seen_true,
                seen_false,
            } => *seen_true as usize + *seen_false as usize,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert a numeric observation (already widened to f64).
    #[inline]
    pub fn insert_num(&mut self, x: f64) -> Result<()> {
        match self {
            DistinctSet::Empty => *self = DistinctSet::Num(HashSet::from([canonical_f64_bits(x)])),
            DistinctSet::Num(s) => {
                s.insert(canonical_f64_bits(x));
            }
            _ => return Err(self.mismatch("a numeric cell")),
        }
        Ok(())
    }

    #[inline]
    pub fn insert_str(&mut self, s: &Arc<str>) -> Result<()> {
        match self {
            DistinctSet::Empty => *self = DistinctSet::Str(HashSet::from([s.clone()])),
            DistinctSet::Str(set) => {
                set.insert(s.clone());
            }
            _ => return Err(self.mismatch("a Utf8 cell")),
        }
        Ok(())
    }

    #[inline]
    pub fn insert_bool(&mut self, b: bool) -> Result<()> {
        match self {
            DistinctSet::Empty => {
                *self = DistinctSet::Bool {
                    seen_true: b,
                    seen_false: !b,
                }
            }
            DistinctSet::Bool {
                seen_true,
                seen_false,
            } => {
                *seen_true |= b;
                *seen_false |= !b;
            }
            _ => return Err(self.mismatch("a Bool cell")),
        }
        Ok(())
    }

    /// The error for inserting a cell of another class than the set's.
    fn mismatch(&self, found: &str) -> DataError {
        let expected = match self {
            DistinctSet::Num(_) => "numeric",
            DistinctSet::Str(_) => "Utf8",
            _ => "Bool",
        };
        DataError::TypeMismatch {
            expected: format!("a cell of a {expected} count-distinct set"),
            found: found.into(),
        }
    }

    /// Set union (the `⊕` merge of count-distinct partials). Sets of two
    /// classes do not merge.
    pub fn merge(&mut self, other: &DistinctSet) -> Result<()> {
        match (&mut *self, other) {
            (_, DistinctSet::Empty) => {}
            (DistinctSet::Empty, o) => *self = o.clone(),
            (DistinctSet::Num(a), DistinctSet::Num(b)) => a.extend(b.iter().copied()),
            (DistinctSet::Str(a), DistinctSet::Str(b)) => a.extend(b.iter().cloned()),
            (
                DistinctSet::Bool {
                    seen_true,
                    seen_false,
                },
                DistinctSet::Bool {
                    seen_true: ot,
                    seen_false: of,
                },
            ) => {
                *seen_true |= ot;
                *seen_false |= of;
            }
            (a, b) => return Err(mismatched("merge", a, b)),
        }
        Ok(())
    }

    /// Approximate heap bytes (peak-memory accounting).
    pub fn byte_size(&self) -> usize {
        match self {
            DistinctSet::Empty => 0,
            DistinctSet::Num(s) => s.len() * 16,
            DistinctSet::Str(s) => s.iter().map(|v| v.len() + 32).sum(),
            DistinctSet::Bool { .. } => 2,
        }
    }
}

/// The error for merging, or finalizing together, two states that do not
/// belong to one spec.
fn mismatched(op: &str, a: &impl std::fmt::Debug, b: &impl std::fmt::Debug) -> DataError {
    DataError::Invalid(format!(
        "cannot {op} mismatched aggregate states {a:?} vs {b:?}"
    ))
}

/// Mergeable per-group intrinsic state (Table 2 "intrinsic repr.").
#[derive(Debug, Clone)]
pub enum AggState {
    /// count / count(*): a scalar count, merged by addition.
    Count { n: f64 },
    /// sum: `(count, sum, sum-of-squares)` so CIs get a CLT variance.
    Sum { m: Moments },
    /// avg: sum/count by key (Table 2), stored as moments.
    Avg { m: Moments },
    /// weighted avg: moments of `w·v` and of `w`.
    WeightedAvg { m_wv: Moments, m_w: Moments },
    /// min/max: the current extremum plus runner-up (runner-up feeds a
    /// spacing-based variance heuristic; the paper fits a GEV — we use the
    /// extreme-value spacing as a cheap stand-in and document it).
    Extreme {
        best: Option<Value>,
        second: Option<Value>,
        is_min: bool,
    },
    /// count-distinct: the exact value set (paper §2.3 footnote 3: exact
    /// sets, not sketches) plus the non-null observation count. The set is
    /// typed ([`DistinctSet`]), so observation is columnar and the state
    /// is spillable like every other aggregate.
    Distinct { set: DistinctSet, n: f64 },
    /// var/stddev: `(count, sum, sum-of-squares)`.
    Dispersion { m: Moments, stddev: bool },
    /// quantiles/median: the exact sample, merged by concatenation (the
    /// same exact-state policy as count-distinct; §5.5 explains why
    /// KDE/eCDF reconstructions are rejected as too costly — holding the
    /// sample and reading one order statistic is the cheap alternative).
    Sample { values: Vec<f64>, q: f64 },
}

/// Min/max update shared by the kernel, the per-`Value` reference and the
/// merge: track the extremum plus the runner-up (the runner-up feeds the
/// spacing variance heuristic).
#[inline]
fn observe_extreme(
    best: &mut Option<Value>,
    second: &mut Option<Value>,
    is_min: bool,
    value: &Value,
) {
    if value.is_null() {
        return;
    }
    let better = |a: &Value, b: &Value| if is_min { a < b } else { a > b };
    match best {
        None => *best = Some(value.clone()),
        Some(b) if better(value, b) => {
            *second = best.take();
            *best = Some(value.clone());
        }
        Some(_) => match second {
            None => *second = Some(value.clone()),
            Some(s) if better(value, s) => *second = Some(value.clone()),
            _ => {}
        },
    }
}

/// A numeric column's cells widened to `f64`, as [`Value::as_f64`] widens
/// them; `Int64` and `Date` share storage. Bool and Utf8 cells have no
/// `f64`, so they have no view.
#[derive(Clone, Copy)]
enum NumView<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
}

impl<'a> NumView<'a> {
    fn of(col: &'a Column) -> Option<NumView<'a>> {
        match col.data() {
            ColumnData::Int64(v) | ColumnData::Date(v) => Some(NumView::Int(v)),
            ColumnData::Float64(v) => Some(NumView::Float(v)),
            ColumnData::Bool(_) | ColumnData::Utf8(_) => None,
        }
    }

    #[inline]
    fn get(self, i: usize) -> f64 {
        match self {
            NumView::Int(v) => v[i] as f64,
            NumView::Float(v) => v[i],
        }
    }
}

/// Call `f(&mut states[slots[row]], row)` for every row `mask` marks valid
/// (every row when there is no mask), in row order.
#[inline]
fn scatter(
    states: &mut [AggState],
    slots: &[u32],
    mask: Option<&[bool]>,
    mut f: impl FnMut(&mut AggState, usize),
) {
    for (row, &slot) in slots.iter().enumerate() {
        if mask.is_none_or(|m| m[row]) {
            f(&mut states[slot as usize], row);
        }
    }
}

/// [`scatter`] for count-distinct: `insert` puts a row's cell into its
/// group's set, which also counts the observation. A cell of another class
/// than its set's stops the fold with the insert's error.
#[inline]
fn scatter_distinct(
    states: &mut [AggState],
    slots: &[u32],
    mask: Option<&[bool]>,
    insert: impl Fn(&mut DistinctSet, usize) -> Result<()>,
) -> Result<()> {
    let mut res = Ok(());
    scatter(states, slots, mask, |st, row| match st {
        AggState::Distinct { set, n } if res.is_ok() => {
            res = insert(set, row);
            *n += 1.0;
        }
        _ => {}
    });
    res
}

impl AggState {
    /// Fold one input cell into the state. `value` is the evaluated
    /// aggregate expression; `weight` only applies to `WeightedAvg`.
    ///
    /// The per-value reference: the engine folds through
    /// [`fold_column`](Self::fold_column), and the tests hold that kernel
    /// to this, bit for bit.
    #[cfg(test)]
    pub(crate) fn observe(&mut self, value: &Value, weight: Option<&Value>) {
        match self {
            AggState::Count { n } => {
                if !value.is_null() {
                    *n += 1.0;
                }
            }
            AggState::Sum { m } | AggState::Avg { m } | AggState::Dispersion { m, .. } => {
                if let Some(x) = value.as_f64() {
                    m.observe(x);
                }
            }
            AggState::WeightedAvg { m_wv, m_w } => {
                let w = weight.and_then(Value::as_f64);
                if let (Some(v), Some(w)) = (value.as_f64(), w) {
                    m_wv.observe(w * v);
                    m_w.observe(w);
                }
            }
            AggState::Extreme {
                best,
                second,
                is_min,
            } => observe_extreme(best, second, *is_min, value),
            AggState::Distinct { set, n } => {
                let inserted = match value {
                    Value::Null => return,
                    Value::Int(x) | Value::Date(x) => set.insert_num(*x as f64),
                    Value::Float(x) => set.insert_num(*x),
                    Value::Bool(b) => set.insert_bool(*b),
                    Value::Str(s) => set.insert_str(s),
                };
                inserted.expect("a test observes one class of cell per set");
                *n += 1.0;
            }
            AggState::Sample { values, .. } => {
                if let Some(x) = value.as_f64() {
                    values.push(x);
                }
            }
        }
    }

    /// The fold kernel: observe row `i` of `col` — and of `weight`, which
    /// only `WeightedAvg` reads — into `states[slots[i]]`, for every row in
    /// row order. All of `states` come from one spec. Each kind reads the
    /// typed column buffer and its validity mask; only min/max build a
    /// `Value` per cell. For every state this is the test-only per-cell
    /// `observe` over the same cells in the same order, bit for bit: nulls
    /// are skipped, Bool/Utf8 cells feed no moment or sample, and a count
    /// adds 1.0 per row, which stays exact. A count-distinct cell of
    /// another class than its group's set (a mistyped spilled state) is a
    /// `TypeMismatch`.
    pub fn fold_column(
        states: &mut [AggState],
        slots: &[u32],
        col: &Column,
        weight: Option<&Column>,
    ) -> Result<()> {
        let Some(first) = slots.first().and_then(|&s| states.get(s as usize)) else {
            return Ok(());
        };
        let valid = col.validity();
        let num = NumView::of(col);
        match first {
            AggState::Count { .. } => scatter(states, slots, valid, |st, _| {
                if let AggState::Count { n } = st {
                    *n += 1.0;
                }
            }),
            AggState::Sum { .. } | AggState::Avg { .. } | AggState::Dispersion { .. } => {
                let Some(num) = num else { return Ok(()) };
                scatter(states, slots, valid, |st, row| {
                    if let AggState::Sum { m }
                    | AggState::Avg { m }
                    | AggState::Dispersion { m, .. } = st
                    {
                        m.observe(num.get(row));
                    }
                })
            }
            AggState::Sample { .. } => {
                let Some(num) = num else { return Ok(()) };
                scatter(states, slots, valid, |st, row| {
                    if let AggState::Sample { values, .. } = st {
                        values.push(num.get(row));
                    }
                })
            }
            AggState::WeightedAvg { .. } => {
                let Some((num, weight)) = num.zip(weight) else {
                    return Ok(());
                };
                let Some(wnum) = NumView::of(weight) else {
                    return Ok(());
                };
                let wvalid = weight.validity();
                scatter(states, slots, valid, |st, row| {
                    if let (true, AggState::WeightedAvg { m_wv, m_w }) =
                        (wvalid.is_none_or(|m| m[row]), st)
                    {
                        let w = wnum.get(row);
                        m_wv.observe(w * num.get(row));
                        m_w.observe(w);
                    }
                })
            }
            AggState::Extreme { .. } => scatter(states, slots, valid, |st, row| {
                if let AggState::Extreme {
                    best,
                    second,
                    is_min,
                } = st
                {
                    observe_extreme(best, second, *is_min, &col.value(row));
                }
            }),
            AggState::Distinct { .. } => match col.data() {
                ColumnData::Int64(v) | ColumnData::Date(v) => {
                    scatter_distinct(states, slots, valid, |s, row| s.insert_num(v[row] as f64))?
                }
                ColumnData::Float64(v) => {
                    scatter_distinct(states, slots, valid, |s, row| s.insert_num(v[row]))?
                }
                ColumnData::Bool(v) => {
                    scatter_distinct(states, slots, valid, |s, row| s.insert_bool(v[row]))?
                }
                ColumnData::Utf8(v) => {
                    scatter_distinct(states, slots, valid, |s, row| s.insert_str(&v[row]))?
                }
            },
        }
        Ok(())
    }

    /// Approximate bytes (peak-memory accounting): a per-state constant
    /// plus the variable-size contents of a set or sample.
    pub fn byte_size(&self) -> usize {
        32 + match self {
            AggState::Distinct { set, .. } => set.byte_size(),
            AggState::Sample { values, .. } => values.len() * 8,
            _ => 0,
        }
    }

    /// Key-based merge `⊕` (§2.2): combine another partial for the same key.
    pub fn merge(&mut self, other: &AggState) -> Result<()> {
        match (self, other) {
            (AggState::Count { n }, AggState::Count { n: o }) => *n += o,
            (AggState::Sum { m }, AggState::Sum { m: o })
            | (AggState::Avg { m }, AggState::Avg { m: o })
            | (AggState::Dispersion { m, .. }, AggState::Dispersion { m: o, .. }) => m.merge(o),
            (AggState::WeightedAvg { m_wv, m_w }, AggState::WeightedAvg { m_wv: owv, m_w: ow }) => {
                m_wv.merge(owv);
                m_w.merge(ow);
            }
            (
                AggState::Extreme {
                    best,
                    second,
                    is_min,
                },
                AggState::Extreme {
                    best: ob,
                    second: os,
                    ..
                },
            ) => {
                // Re-observe the other side's extremes.
                for v in [ob, os].into_iter().flatten() {
                    observe_extreme(best, second, *is_min, v);
                }
            }
            (AggState::Distinct { set, n }, AggState::Distinct { set: os, n: on }) => {
                set.merge(os)?;
                *n += on;
            }
            (AggState::Sample { values, .. }, AggState::Sample { values: ov, .. }) => {
                values.extend_from_slice(ov);
            }
            (a, b) => return Err(mismatched("merge", a, b)),
        }
        Ok(())
    }

    /// The finalize kernel (§5.3): the extrinsic estimates of
    /// `states[order[0]]`, `states[order[1]]`, … as one column of `dtype`
    /// (the spec's [`AggSpec::output_type`]), plus each estimate's
    /// variance. All of `states` come from one spec, and `ctx` carries the
    /// shared growth scale. Min/max gather their extremum in the input
    /// type; every other kind writes `Float64`, with a null estimate (an
    /// empty avg, a var over fewer than two rows) as an invalid 0.0.
    ///
    /// A null estimate, or a min/max over non-numeric cells, has variance
    /// 0. Once the input is complete (`t = 1`) every estimate is the exact
    /// finite-population answer, so every variance is 0 — the convergence
    /// property extends to the uncertainty itself.
    pub fn finalize_column(
        states: &[AggState],
        order: &[u32],
        ctx: &ScaleContext,
        dtype: DataType,
    ) -> Result<(Column, Vec<f64>)> {
        let picked = order.iter().map(|&g| &states[g as usize]);
        let mut variance = Vec::with_capacity(order.len());
        let first = states.first();
        let column = if let Some(AggState::Extreme { .. }) = first {
            let mut cells = Vec::with_capacity(order.len());
            let num = |v: &Option<Value>| v.as_ref().and_then(Value::as_f64);
            for st in picked {
                let AggState::Extreme { best, second, .. } = st else {
                    return Err(mismatched("finalize", &first, st));
                };
                // f_order: latest extremum (§5.3 "Order Statistics").
                cells.push(best.clone().unwrap_or(Value::Null));
                // Spacing heuristic: squared gap between the two most
                // extreme observations, shrinking as the group fills in.
                let gap = num(best).zip(num(second)).map(|(b, s)| b - s);
                variance.push(gap.map_or(0.0, |d| d * d));
            }
            Column::from_values(dtype, &cells)?
        } else {
            let mut est = Vec::with_capacity(order.len());
            let mut valid = Vec::with_capacity(order.len());
            for st in picked {
                let (value, var) = match st {
                    AggState::Count { n } => {
                        // f_count: scale the raw count by t^{-w} (x̂ = x / t^w).
                        let est = n * ctx.scale;
                        (Some(est), ctx.cardinality_variance(est))
                    }
                    AggState::Sum { m } => {
                        // f_sum = (y / x) · x̂ = y · t^{-w}  (Eq. against §5.3).
                        let est = m.sum * ctx.scale;
                        // Eq. 11: Var = (Var(y)·x̂² + Var(x̂)·y²) / x².
                        let var = if m.count > 0.0 {
                            let xhat = m.count * ctx.scale;
                            let var_y = m.variance_of_sum();
                            let var_xhat = ctx.cardinality_variance(xhat);
                            (var_y * xhat * xhat + var_xhat * m.sum * m.sum) / (m.count * m.count)
                        } else {
                            0.0
                        };
                        (Some(est), var)
                    }
                    // Eq. 5: scaling cancels; the estimator is the identity.
                    AggState::Avg { m } if m.count == 0.0 => (None, 0.0),
                    AggState::Avg { m } => (Some(m.mean()), m.variance_of_mean()),
                    AggState::WeightedAvg { m_w, .. } if m_w.sum == 0.0 => (None, 0.0),
                    AggState::WeightedAvg { m_wv, m_w } => {
                        let est = m_wv.sum / m_w.sum;
                        // Eq. 14: relative variances of numerator and denominator.
                        let rel_num = if m_wv.sum != 0.0 {
                            m_wv.variance_of_sum() / (m_wv.sum * m_wv.sum)
                        } else {
                            0.0
                        };
                        let rel_den = m_w.variance_of_sum() / (m_w.sum * m_w.sum);
                        (Some(est), est * est * (rel_num + rel_den))
                    }
                    AggState::Distinct { set, n } => {
                        let y = set.len() as f64;
                        let x = *n;
                        let xhat = x * ctx.scale;
                        let est = estimate_distinct(y, x, xhat);
                        let var_xhat = ctx.cardinality_variance(xhat);
                        // Var(y) of the seen-distinct count: crude binomial bound.
                        let var_y = y.max(1.0) * (1.0 - ctx.t);
                        (Some(est), distinct_variance(var_y, var_xhat, x, xhat, est))
                    }
                    AggState::Sample { values, .. } if values.is_empty() => (None, 0.0),
                    AggState::Sample { values, q } => {
                        // `Value`'s order: every NaN last; a stable sort keeps
                        // `-0.0` and `0.0` (which tie) in input order.
                        let mut sorted = values.clone();
                        sorted.sort_by(|a, b| cmp_f64(*a, *b));
                        let n = sorted.len();
                        let rank = (q * (n - 1) as f64).round() as usize;
                        let est = sorted[rank.min(n - 1)];
                        // Rank-based CI half-width: the q-th sample quantile lies
                        // within ±sqrt(q(1-q)n) ranks of the population quantile
                        // w.h.p. (van der Vaart §21.2); map that rank band to value
                        // space and report its squared half-width as the variance.
                        let h = ((q * (1.0 - q) * n as f64).sqrt().ceil() as usize).max(1);
                        let lo = sorted[rank.saturating_sub(h)];
                        let hi = sorted[(rank + h).min(n - 1)];
                        let half = (hi - lo) / 2.0;
                        (Some(est), half * half)
                    }
                    AggState::Dispersion { m, .. } if m.count < 2.0 => (None, 0.0),
                    AggState::Dispersion { m, stddev } => {
                        let s2 = m.sample_variance();
                        // Asymptotic Var(s²) ≈ 2σ⁴ / (n − 1) (normal approximation).
                        let var_s2 = 2.0 * s2 * s2 / (m.count - 1.0);
                        match (*stddev, s2 > 0.0) {
                            // Delta method: Var(s) ≈ Var(s²) / (4 s²).
                            (true, true) => (Some(s2.sqrt()), var_s2 / (4.0 * s2)),
                            (true, false) => (Some(s2.sqrt()), 0.0),
                            (false, _) => (Some(s2), var_s2),
                        }
                    }
                    AggState::Extreme { .. } => return Err(mismatched("finalize", &first, st)),
                };
                est.push(value.unwrap_or(0.0));
                valid.push(value.is_some());
                variance.push(var);
            }
            Column::with_validity(ColumnData::Float64(est), valid)?
        };
        if ctx.t >= 1.0 {
            variance.fill(0.0);
        }
        Ok((column, variance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wake_expr::col;

    fn obs(state: &mut AggState, xs: &[f64]) {
        for &x in xs {
            state.observe(&Value::Float(x), None);
        }
    }

    /// One state through the finalize kernel: its estimate and variance.
    fn finalize_one(st: &AggState, ctx: &ScaleContext) -> (Value, f64) {
        let dtype = match st {
            AggState::Extreme { best: Some(v), .. } => v.data_type().unwrap(),
            _ => DataType::Float64,
        };
        let (col, var) =
            AggState::finalize_column(std::slice::from_ref(st), &[0], ctx, dtype).unwrap();
        (col.value(0), var[0])
    }

    #[test]
    fn sum_scaling_and_convergence() {
        let spec = AggSpec::sum(col("x"), "s");
        let mut st = spec.new_state();
        obs(&mut st, &[1.0, 2.0, 3.0]);
        // Halfway through a linear scan (w = 1): scale = 2.
        let ctx = ScaleContext {
            scale: 2.0,
            t: 0.5,
            w_variance: 0.0,
        };
        let out = finalize_one(&st, &ctx);
        assert_eq!(out.0, Value::Float(12.0));
        // At completion the raw value is exact.
        let out = finalize_one(&st, &ScaleContext::exact());
        assert_eq!(out.0, Value::Float(6.0));
    }

    #[test]
    fn merge_equals_single_stream_for_all_funcs() {
        let specs = [
            AggSpec::count_star("c"),
            AggSpec::count(col("x"), "c2"),
            AggSpec::sum(col("x"), "s"),
            AggSpec::avg(col("x"), "a"),
            AggSpec::min(col("x"), "mn"),
            AggSpec::max(col("x"), "mx"),
            AggSpec::count_distinct(col("x"), "cd"),
            AggSpec::var(col("x"), "v"),
            AggSpec::stddev(col("x"), "sd"),
        ];
        let xs = [5.0, 3.0, 3.0, 8.0, 1.0, 9.0, 9.0];
        for spec in specs {
            let mut whole = spec.new_state();
            obs(&mut whole, &xs);
            let mut left = spec.new_state();
            obs(&mut left, &xs[..3]);
            let mut right = spec.new_state();
            obs(&mut right, &xs[3..]);
            left.merge(&right).unwrap();
            let ctx = ScaleContext::exact();
            assert_eq!(
                finalize_one(&left, &ctx).0,
                finalize_one(&whole, &ctx).0,
                "func {:?}",
                spec.func
            );
        }
    }

    #[test]
    fn avg_is_scale_free() {
        let spec = AggSpec::avg(col("x"), "a");
        let mut st = spec.new_state();
        obs(&mut st, &[2.0, 4.0]);
        let scaled = finalize_one(
            &st,
            &ScaleContext {
                scale: 4.0,
                t: 0.25,
                w_variance: 0.1,
            },
        );
        assert_eq!(scaled.0, Value::Float(3.0));
    }

    #[test]
    fn weighted_avg_matches_ratio_of_sums() {
        let spec = AggSpec::weighted_avg(col("v"), col("w"), "wa");
        let mut st = spec.new_state();
        st.observe(&Value::Float(10.0), Some(&Value::Float(1.0)));
        st.observe(&Value::Float(20.0), Some(&Value::Float(3.0)));
        let out = finalize_one(&st, &ScaleContext::exact());
        // (10·1 + 20·3) / (1 + 3) = 17.5
        assert_eq!(out.0, Value::Float(17.5));
    }

    #[test]
    fn count_distinct_extrapolates_and_converges() {
        let spec = AggSpec::count_distinct(col("x"), "cd");
        let mut st = spec.new_state();
        // 50 observations, 10 distinct values (5 copies each seen).
        for i in 0..50 {
            st.observe(&Value::Int(i % 10), None);
        }
        // Group expected to double: estimate should be >= seen distinct.
        let ctx = ScaleContext {
            scale: 2.0,
            t: 0.5,
            w_variance: 0.0,
        };
        let est = finalize_one(&st, &ctx);
        let v = est.0.as_f64().unwrap();
        assert!((10.0..=100.0).contains(&v));
        // Complete: exact distinct count.
        let exact = finalize_one(&st, &ScaleContext::exact());
        assert_eq!(exact.0, Value::Float(10.0));
    }

    #[test]
    fn extreme_tracks_best_and_second() {
        let spec = AggSpec::max(col("x"), "mx");
        let mut st = spec.new_state();
        obs(&mut st, &[3.0, 9.0, 7.0]);
        let out = finalize_one(
            &st,
            &ScaleContext {
                scale: 2.0,
                t: 0.5,
                w_variance: 0.0,
            },
        );
        assert_eq!(out.0, Value::Float(9.0));
        // Spacing heuristic: (9 − 7)².
        assert_eq!(out.1, 4.0);
        // Min over strings works and reports no numeric variance.
        let mut st = AggSpec::min(col("s"), "mn").new_state();
        st.observe(&Value::str("pear"), None);
        st.observe(&Value::str("apple"), None);
        let out = finalize_one(
            &st,
            &ScaleContext {
                scale: 2.0,
                t: 0.5,
                w_variance: 0.0,
            },
        );
        assert_eq!(out, (Value::str("apple"), 0.0));
    }

    #[test]
    fn finalize_column_follows_order_and_writes_nulls_typed() {
        // Rows come out in `order`; a null estimate is an invalid 0.0 with
        // variance 0; min/max keep the input type.
        let ctx = ScaleContext {
            scale: 2.0,
            t: 0.5,
            w_variance: 0.0,
        };
        let spec = AggSpec::avg(col("x"), "a");
        let mut avgs = vec![spec.new_state(); 3];
        obs(&mut avgs[0], &[2.0, 4.0]);
        obs(&mut avgs[2], &[10.0]);
        let (c, var) =
            AggState::finalize_column(&avgs, &[2, 1, 0], &ctx, DataType::Float64).unwrap();
        assert_eq!(c.as_f64_slice().unwrap(), &[10.0, 0.0, 3.0]);
        assert_eq!(c.validity(), Some(&[true, false, true][..]));
        assert_eq!(var[1], 0.0);
        let spec = AggSpec::min(col("x"), "mn");
        let mut mins = vec![spec.new_state(); 2];
        mins[1].observe(&Value::Int(i64::MAX), None);
        let (c, _) = AggState::finalize_column(&mins, &[1, 0], &ctx, DataType::Int64).unwrap();
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            [Value::Int(i64::MAX), Value::Null]
        );
    }

    #[test]
    fn nulls_are_skipped() {
        let mut st = AggSpec::count(col("x"), "c").new_state();
        st.observe(&Value::Null, None);
        st.observe(&Value::Int(1), None);
        let out = finalize_one(&st, &ScaleContext::exact());
        assert_eq!(out.0, Value::Float(1.0));
        let mut st = AggSpec::avg(col("x"), "a").new_state();
        st.observe(&Value::Null, None);
        assert_eq!(finalize_one(&st, &ScaleContext::exact()).0, Value::Null);
    }

    #[test]
    fn dispersion_values() {
        let mut st = AggSpec::var(col("x"), "v").new_state();
        obs(&mut st, &[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        let v = finalize_one(&st, &ScaleContext::exact())
            .0
            .as_f64()
            .unwrap();
        assert!((v - 32.0 / 7.0).abs() < 1e-9);
        let mut st = AggSpec::stddev(col("x"), "sd").new_state();
        obs(&mut st, &[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        let sd = finalize_one(&st, &ScaleContext::exact())
            .0
            .as_f64()
            .unwrap();
        assert!((sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-9);
        // Single observation: undefined.
        let mut st = AggSpec::var(col("x"), "v").new_state();
        obs(&mut st, &[1.0]);
        assert_eq!(finalize_one(&st, &ScaleContext::exact()).0, Value::Null);
    }

    /// Same state, bit for bit: equal `put_agg_state` bytes. A count-distinct
    /// set compares by content instead, since its hash order differs from
    /// one set to the next.
    fn same_state(a: &AggState, b: &AggState) -> bool {
        match (a, b) {
            (AggState::Distinct { set, n }, AggState::Distinct { set: os, n: on }) => {
                set == os && n.to_bits() == on.to_bits()
            }
            _ => {
                let (mut x, mut y) = (Vec::new(), Vec::new());
                crate::ops::spill::put_agg_state(&mut x, a);
                crate::ops::spill::put_agg_state(&mut y, b);
                x == y
            }
        }
    }

    #[test]
    fn fold_column_matches_per_value_observe() {
        // The one kernel against the per-value reference, for every kind,
        // every column type with nulls, every kind of weight, and one group
        // or three groups under pseudo-random slots: each group's state
        // must be what `observe` makes of that group's rows.
        let rows = 40;
        let column = |dtype, cell: &dyn Fn(usize) -> Value| {
            Column::from_values(dtype, &(0..rows).map(cell).collect::<Vec<_>>()).unwrap()
        };
        let data = [
            column(DataType::Int64, &|i| match (i % 7, i % 5) {
                (3, _) => Value::Null,
                // Exact i64 extremes: an f64 round trip would tie these.
                (_, 0) => Value::Int(i64::MAX),
                (_, 1) => Value::Int(i64::MAX - 1),
                _ => Value::Int((i * 37 % 11) as i64 - 5),
            }),
            column(DataType::Float64, &|i| match (i % 6, i % 9) {
                (1, _) => Value::Null,
                (_, 0) => Value::Float(-0.0),
                (_, 4) => Value::Float(f64::NAN),
                _ => Value::Float((i * 13 % 17) as f64 * 0.375 - 2.0),
            }),
            column(DataType::Date, &|i| match i % 8 {
                5 => Value::Null,
                _ => Value::Date((i * 29 % 13) as i64),
            }),
            column(DataType::Bool, &|i| match i % 5 {
                2 => Value::Null,
                _ => Value::Bool(i % 3 == 0),
            }),
            column(DataType::Utf8, &|i| match i % 4 {
                1 => Value::Null,
                _ => Value::str(format!("s{}", i * 7 % 5)),
            }),
        ];
        let float_w = column(DataType::Float64, &|i| match i % 5 {
            4 => Value::Null,
            _ => Value::Float((i % 4) as f64 * 0.5 + 0.25),
        });
        let int_w = column(DataType::Int64, &|i| Value::Int(i as i64 % 3));
        let str_w = column(DataType::Utf8, &|_| Value::str("w"));
        let weights = [None, Some(&float_w), Some(&int_w), Some(&str_w)];
        let specs = [
            AggSpec::count_star("c"),
            AggSpec::count(col("x"), "c2"),
            AggSpec::sum(col("x"), "s"),
            AggSpec::avg(col("x"), "a"),
            AggSpec::weighted_avg(col("x"), col("w"), "wa"),
            AggSpec::min(col("x"), "mn"),
            AggSpec::max(col("x"), "mx"),
            AggSpec::count_distinct(col("x"), "cd"),
            AggSpec::var(col("x"), "v"),
            AggSpec::stddev(col("x"), "sd"),
            AggSpec::quantile(col("x"), 0.9, "p90"),
        ];
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let random: Vec<u32> = (0..rows)
            .map(|_| {
                lcg = lcg
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (lcg >> 33) as u32 % 3
            })
            .collect();
        for (groups, slots) in [(1, vec![0; rows]), (3, random)] {
            for input in &data {
                for w in weights {
                    for spec in &specs {
                        let fresh = || (0..groups).map(|_| spec.new_state()).collect::<Vec<_>>();
                        let (mut fast, mut slow) = (fresh(), fresh());
                        AggState::fold_column(&mut fast, &slots, input, w).unwrap();
                        for (row, &slot) in slots.iter().enumerate() {
                            let wv = w.map(|c| c.value(row));
                            slow[slot as usize].observe(&input.value(row), wv.as_ref());
                        }
                        for (a, b) in fast.iter().zip(&slow) {
                            assert!(
                                same_state(a, b),
                                "{:?} over {:?}, weight {:?}, {groups} groups: {a:?} vs {b:?}",
                                spec.func,
                                input.data_type(),
                                w.map(Column::data_type),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_set_semantics_match_value_equality() {
        // Int(3), Float(3.0), Date(3) are one Value-equivalence class.
        let mut st = [AggSpec::count_distinct(col("x"), "cd").new_state()];
        for c in [
            Column::from_i64(vec![3]),
            Column::from_f64(vec![3.0, -0.0, 0.0, f64::NAN, -f64::NAN]),
            Column::from_dates(vec![3]),
        ] {
            AggState::fold_column(&mut st, &vec![0; c.len()], &c, None).unwrap();
        }
        let AggState::Distinct { set, n } = &st[0] else {
            unreachable!()
        };
        // -0.0 == 0.0, NaN unifies.
        assert_eq!((set.len(), *n), (3, 7.0));
        // A cell of another class is a typed error that leaves the set as
        // it was; so is merging sets of two classes.
        let mut s = set.clone();
        let err = s.insert_str(&Arc::from("x")).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }), "{err}");
        assert_eq!(&s, set);
        assert!(s.insert_bool(true).is_err() && s.len() == 3);
        let mut b = DistinctSet::default();
        b.insert_str(&Arc::from("p")).unwrap();
        assert!(matches!(s.merge(&b), Err(DataError::Invalid(_))));
        assert!(matches!(
            b.insert_num(1.0),
            Err(DataError::TypeMismatch { .. })
        ));
        // Merge = set union.
        let mut a = DistinctSet::default();
        a.insert_str(&Arc::from("p")).unwrap();
        b.insert_str(&Arc::from("q")).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.len(), 2);
        let mut bools = DistinctSet::default();
        bools.insert_bool(true).unwrap();
        bools.insert_bool(true).unwrap();
        assert_eq!(bools.len(), 1);
        bools.insert_bool(false).unwrap();
        assert_eq!(bools.len(), 2);
        assert!(bools.byte_size() > 0 && a.byte_size() > 0);
    }

    #[test]
    fn merge_type_mismatch_errors() {
        let mut a = AggSpec::sum(col("x"), "s").new_state();
        let b = AggSpec::count_star("c").new_state();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn quantiles_and_median() {
        let spec = AggSpec::median(col("x"), "med");
        let mut st = spec.new_state();
        obs(&mut st, &[5.0, 1.0, 9.0, 3.0, 7.0]);
        let out = finalize_one(&st, &ScaleContext::exact());
        assert_eq!(out.0, Value::Float(5.0));
        // p90 of 1..=10.
        let spec = AggSpec::quantile(col("x"), 0.9, "p90");
        let mut st = spec.new_state();
        obs(&mut st, &(1..=10).map(f64::from).collect::<Vec<_>>());
        let out = finalize_one(
            &st,
            &ScaleContext {
                scale: 2.0,
                t: 0.5,
                w_variance: 0.0,
            },
        );
        let v = out.0.as_f64().unwrap();
        assert!((9.0..=10.0).contains(&v), "p90 {v}");
        assert!(out.1 >= 0.0);
        // Merge = concatenation: split/merge equals single stream.
        let xs: Vec<f64> = (0..21).map(|i| (i * 7 % 13) as f64).collect();
        let mut whole = AggSpec::median(col("x"), "m").new_state();
        obs(&mut whole, &xs);
        let mut a = AggSpec::median(col("x"), "m").new_state();
        obs(&mut a, &xs[..8]);
        let mut b = AggSpec::median(col("x"), "m").new_state();
        obs(&mut b, &xs[8..]);
        a.merge(&b).unwrap();
        let ctx = ScaleContext::exact();
        assert_eq!(finalize_one(&a, &ctx).0, finalize_one(&whole, &ctx).0);
        // Empty sample -> NULL.
        let st = AggSpec::median(col("x"), "m").new_state();
        assert_eq!(finalize_one(&st, &ctx).0, Value::Null);
    }

    #[test]
    fn quantile_rank_validated() {
        // The rank is checked once, where an aggregation is built.
        use crate::meta::EdfMeta;
        use crate::ops::agg_op::AggOp;
        use crate::update::UpdateKind;
        use wake_data::{Field, Schema};
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Float64)]));
        let meta = EdfMeta::new(schema, vec![], UpdateKind::Delta);
        for q in [-0.1, 1.5, f64::NAN] {
            let spec = AggSpec::quantile(col("x"), q, "bad");
            let op = AggOp::new(&meta, vec![], vec![spec], false);
            assert!(matches!(op, Err(DataError::Invalid(_))), "{q}");
        }
    }

    #[test]
    fn count_variance_grows_with_w_uncertainty() {
        let mut st = AggSpec::count_star("c").new_state();
        for _ in 0..10 {
            st.observe(&Value::Int(1), None);
        }
        let lo = finalize_one(
            &st,
            &ScaleContext {
                scale: 2.0,
                t: 0.5,
                w_variance: 0.01,
            },
        )
        .1;
        let hi = finalize_one(
            &st,
            &ScaleContext {
                scale: 2.0,
                t: 0.5,
                w_variance: 0.09,
            },
        )
        .1;
        assert!(hi > lo && lo > 0.0);
        // Complete input: zero variance.
        let done = finalize_one(&st, &ScaleContext::exact()).1;
        assert_eq!(done, 0.0);
    }
}
