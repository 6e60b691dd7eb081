//! Aggregate specifications and mergeable intrinsic states (§4.2–§4.3,
//! Table 2) plus the aggregate estimators of §5.3.
//!
//! Each aggregate keeps an **intrinsic representation** that merges with a
//! key-based `⊕` (count/sum: addition; min/max: extremum; count-distinct:
//! the exact value set, per the paper's footnote 3; avg/var: `(count, sum,
//! sum-of-squares)`), and a **finalizer** that turns raw partials into
//! unbiased extrinsic estimates via growth-based scaling.
//!
//! One spec's states for every group live in one [`AggStore`], which
//! [`AggSpec::new_store`] builds from the spec and its input type — both
//! fixed when the plan is built, so the kind is decided once per spec,
//! never per group or row. The store is the only code that knows the
//! state layout, and it does five jobs: grow by one group
//! ([`AggStore::push_group`]), fold a typed column, row `i` into group
//! `slots[i]` ([`AggStore::fold_column`]), read groups out in a given
//! order as one typed estimate column plus each estimate's variance
//! ([`AggStore::finalize_column`]), account its bytes (`byte_size`), and
//! encode/decode itself for spill (`encode` / `decode`).
//! [`AggStore::merge_group`] is the per-group `⊕`.

use crate::ops::spill::{get_f64s, get_moments, put_f64s, put_moments, put_u64};
use crate::Result;
use std::collections::HashSet;
use std::sync::Arc;
use wake_data::colfile::{read_column, write_column, ByteCursor};
use wake_data::column::ColumnData;
use wake_data::hash::{canonical_f64_bits, cells_cmp, cmp_f64};
use wake_data::{Column, DataError, DataType};
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
    /// [`AggSpec::new_store`] reads a missing rank as the median.
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

    /// The empty state store of this aggregate over input of
    /// `input_type` (what the aggregation infers for [`expr`](Self::expr)).
    pub fn new_store(&self, input_type: DataType) -> AggStore {
        AggStore(match self.func {
            AggFunc::CountStar | AggFunc::Count => Store::Count(Vec::new()),
            AggFunc::Sum => Store::Sum(Vec::new()),
            AggFunc::Avg => Store::Avg(Vec::new()),
            AggFunc::WeightedAvg => Store::WeightedAvg {
                wv: Vec::new(),
                w: Vec::new(),
            },
            AggFunc::Min | AggFunc::Max => Store::Extreme {
                best: Column::empty(input_type),
                second: Column::empty(input_type),
                is_min: self.func == AggFunc::Min,
            },
            AggFunc::CountDistinct => Store::Distinct {
                sets: DistinctSets::of(input_type),
                n: Vec::new(),
            },
            AggFunc::Var | AggFunc::Stddev => Store::Dispersion {
                m: Vec::new(),
                stddev: self.func == AggFunc::Stddev,
            },
            AggFunc::Quantile => Store::Sample {
                values: Vec::new(),
                q: self.quantile.unwrap_or(0.5),
            },
        })
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

/// One aggregate's intrinsic states (Table 2 "intrinsic repr.") for every
/// group, slot-indexed: group `g`'s state sits at index `g` of each
/// vector. Built by [`AggSpec::new_store`]; the kind, the input type and
/// the per-spec constants are fixed there, once.
#[derive(Debug, Clone)]
pub struct AggStore(Store);

#[derive(Debug, Clone)]
enum Store {
    /// count / count(*): a scalar count, merged by addition.
    Count(Vec<f64>),
    /// sum: `(count, sum, sum-of-squares)` so CIs get a CLT variance.
    Sum(Vec<Moments>),
    /// avg: sum/count by key (Table 2), stored as moments.
    Avg(Vec<Moments>),
    /// weighted avg: moments of `w·v` and of `w`.
    WeightedAvg { wv: Vec<Moments>, w: Vec<Moments> },
    /// min/max: the current extremum plus runner-up, as two columns of
    /// the input type; an invalid cell is "no value yet". The runner-up
    /// feeds a spacing-based variance heuristic (the paper fits a GEV —
    /// we use the extreme-value spacing as a cheap stand-in).
    Extreme {
        best: Column,
        second: Column,
        is_min: bool,
    },
    /// count-distinct: the exact value set (paper §2.3 footnote 3: exact
    /// sets, not sketches) plus the non-null observation count.
    Distinct { sets: DistinctSets, n: Vec<f64> },
    /// var/stddev: `(count, sum, sum-of-squares)`.
    Dispersion { m: Vec<Moments>, stddev: bool },
    /// quantiles/median: the exact sample, merged by concatenation (the
    /// same exact-state policy as count-distinct; §5.5 explains why
    /// KDE/eCDF reconstructions are rejected as too costly — holding the
    /// sample and reading one order statistic is the cheap alternative).
    Sample { values: Vec<Vec<f64>>, q: f64 },
}

/// Count-distinct's value sets, one per group, of the one cell class the
/// input type fixes. A set stores each cell's *equivalence class* under
/// `wake_data::hash`'s cell equality: numerics by their canonical `f64`
/// bit pattern (so Int64 3, Float64 3.0 and Date 3 coalesce), strings by
/// their `Arc<str>`, booleans as two bits.
#[derive(Debug, Clone, PartialEq)]
enum DistinctSets {
    /// Canonical f64 bit patterns (`-0.0` → `0.0`, all NaNs unify).
    Num(Vec<HashSet<u64>>),
    Str(Vec<HashSet<Arc<str>>>),
    /// [`SEEN_TRUE`] | [`SEEN_FALSE`] bits.
    Bool(Vec<u8>),
}

const SEEN_TRUE: u8 = 1;
const SEEN_FALSE: u8 = 2;

impl DistinctSets {
    fn of(input_type: DataType) -> DistinctSets {
        match input_type {
            DataType::Int64 | DataType::Float64 | DataType::Date => DistinctSets::Num(Vec::new()),
            DataType::Utf8 => DistinctSets::Str(Vec::new()),
            DataType::Bool => DistinctSets::Bool(Vec::new()),
        }
    }

    fn push(&mut self) {
        match self {
            DistinctSets::Num(s) => s.push(HashSet::new()),
            DistinctSets::Str(s) => s.push(HashSet::new()),
            DistinctSets::Bool(s) => s.push(0),
        }
    }

    /// Distinct values in group `g`'s set.
    fn len_of(&self, g: usize) -> usize {
        match self {
            DistinctSets::Num(s) => s[g].len(),
            DistinctSets::Str(s) => s[g].len(),
            DistinctSets::Bool(s) => usize::from((s[g] & SEEN_TRUE) + (s[g] >> 1)),
        }
    }

    /// Insert each `(group, row)` cell of `col`. A column of another class
    /// than the sets' is a `TypeMismatch` that leaves every set as it was.
    fn insert(&mut self, rows: impl Iterator<Item = (usize, usize)>, col: &Column) -> Result<()> {
        match (self, col.data()) {
            (DistinctSets::Num(s), ColumnData::Int64(v) | ColumnData::Date(v)) => {
                for (g, row) in rows {
                    s[g].insert(canonical_f64_bits(v[row] as f64));
                }
            }
            (DistinctSets::Num(s), ColumnData::Float64(v)) => {
                for (g, row) in rows {
                    s[g].insert(canonical_f64_bits(v[row]));
                }
            }
            (DistinctSets::Str(s), ColumnData::Utf8(v)) => {
                for (g, row) in rows {
                    s[g].insert(v[row].clone());
                }
            }
            (DistinctSets::Bool(s), ColumnData::Bool(v)) => {
                for (g, row) in rows {
                    s[g] |= if v[row] { SEEN_TRUE } else { SEEN_FALSE };
                }
            }
            (sets, data) => {
                return Err(DataError::TypeMismatch {
                    expected: format!("a cell of a {} count-distinct set", sets.class()),
                    found: data.data_type().to_string(),
                })
            }
        }
        Ok(())
    }

    fn class(&self) -> &'static str {
        match self {
            DistinctSets::Num(_) => "numeric",
            DistinctSets::Str(_) => "Utf8",
            DistinctSets::Bool(_) => "Bool",
        }
    }

    /// Set union of `other`'s group `h` into group `g` (the `⊕` merge).
    fn merge(&mut self, g: usize, other: &DistinctSets, h: usize) -> Result<()> {
        match (self, other) {
            (DistinctSets::Num(a), DistinctSets::Num(b)) => a[g].extend(b[h].iter().copied()),
            (DistinctSets::Str(a), DistinctSets::Str(b)) => a[g].extend(b[h].iter().cloned()),
            (DistinctSets::Bool(a), DistinctSets::Bool(b)) => a[g] |= b[h],
            (a, b) => {
                return Err(DataError::Invalid(format!(
                    "cannot merge a {} count-distinct set into a {} one",
                    b.class(),
                    a.class()
                )))
            }
        }
        Ok(())
    }

    /// Approximate heap bytes of the set contents (peak-memory accounting).
    fn byte_size(&self) -> usize {
        match self {
            DistinctSets::Num(s) => s.iter().map(|s| s.len() * 16).sum(),
            DistinctSets::Str(s) => s.iter().flatten().map(|v| v.len() + 32).sum(),
            DistinctSets::Bool(s) => s.iter().filter(|&&b| b != 0).count() * 2,
        }
    }

    /// Per group: a `u64` element count, then the elements (a string as
    /// its `u64` byte length and bytes). Bool sets are one byte a group.
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            DistinctSets::Num(sets) => encode_sets(out, sets, |out, &b| put_u64(out, b)),
            DistinctSets::Str(sets) => encode_sets(out, sets, |out, v| {
                put_u64(out, v.len() as u64);
                out.extend_from_slice(v.as_bytes());
            }),
            DistinctSets::Bool(bits) => out.extend_from_slice(bits),
        }
    }

    /// Inverse of [`encode`](Self::encode) for `groups` groups, in place
    /// of this value's sets.
    fn decode(&mut self, groups: usize, c: &mut ByteCursor<'_>) -> Result<()> {
        match self {
            DistinctSets::Num(sets) => *sets = decode_sets(groups, c, |c| c.u64())?,
            DistinctSets::Str(sets) => {
                *sets = decode_sets(groups, c, |c| {
                    let len = c.count_u64(1)?;
                    let v = std::str::from_utf8(c.take(len)?)
                        .map_err(|_| DataError::Parse("bad utf8 in spilled set".into()))?;
                    Ok(Arc::from(v))
                })?
            }
            DistinctSets::Bool(bits) => {
                *bits = c
                    .take(groups)?
                    .iter()
                    .map(|b| b & (SEEN_TRUE | SEEN_FALSE))
                    .collect()
            }
        }
        Ok(())
    }
}

/// Per set: a `u64` element count, then each element through `put`.
fn encode_sets<T>(out: &mut Vec<u8>, sets: &[HashSet<T>], put: impl Fn(&mut Vec<u8>, &T)) {
    for s in sets {
        put_u64(out, s.len() as u64);
        s.iter().for_each(|item| put(out, item));
    }
}

/// `groups` sets written by [`encode_sets`], each item read by `item`.
fn decode_sets<T: Eq + std::hash::Hash>(
    groups: usize,
    c: &mut ByteCursor<'_>,
    mut item: impl FnMut(&mut ByteCursor<'_>) -> Result<T>,
) -> Result<Vec<HashSet<T>>> {
    let mut sets = Vec::new();
    for _ in 0..groups {
        // Every item costs at least 8 bytes: a `u64`, or a string's
        // length header.
        let k = c.count_u64(8)?;
        let mut s = HashSet::with_capacity(k);
        for _ in 0..k {
            s.insert(item(c)?);
        }
        sets.push(s);
    }
    Ok(sets)
}

/// A group slot as an index.
#[inline]
fn ix(slot: u32) -> usize {
    // tidy-allow: hostile-len: a slot is an in-memory u32 group id the key store handed out, never a decoded header
    slot as usize
}

/// `(group, row)` for every row `mask` marks valid (every row when there
/// is no mask), in row order: row `i` belongs to group `slots[i]`.
#[inline]
fn valid_rows<'a>(
    slots: &'a [u32],
    mask: Option<&'a [bool]>,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    slots
        .iter()
        .enumerate()
        .filter(move |&(row, _)| mask.is_none_or(|m| m[row]))
        .map(|(row, &g)| (ix(g), row))
}

/// A numeric column's cells widened to `f64`, as `Column::f64_at` widens
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

/// Min/max update of group `g` by the valid cell at `row` of `src`: track
/// the extremum plus the runner-up. Cells compare in the engine's one
/// cell order ([`cells_cmp`]), so Int64 cells compare through their `f64`
/// image; a cell that ties the extremum competes for the runner-up.
fn offer(
    best: &mut Column,
    second: &mut Column,
    is_min: bool,
    g: usize,
    src: &Column,
    row: usize,
) -> Result<()> {
    let beats = |held: &Column| {
        let ord = cells_cmp(src, row, held, g);
        if is_min {
            ord.is_lt()
        } else {
            ord.is_gt()
        }
    };
    if !best.is_valid(g) {
        best.set_from(g, src, row)
    } else if beats(best) {
        second.set_from(g, best, g)?;
        best.set_from(g, src, row)
    } else if !second.is_valid(g) || beats(second) {
        second.set_from(g, src, row)
    } else {
        Ok(())
    }
}

/// A float rank or width as an index (the cast saturates).
fn rank_index(x: f64) -> usize {
    // tidy-allow: hostile-len: computed from an in-memory sample's length, never a decoded header
    x as usize
}

/// The `Float64` estimate column of `estimate(g)` for each group `g` in
/// `order`, plus each estimate's variance: a `None` estimate is an invalid
/// 0.0 with variance 0.
fn estimate_column(
    order: &[u32],
    estimate: impl Fn(usize) -> Option<(f64, f64)>,
) -> Result<(Column, Vec<f64>)> {
    let mut est = Vec::with_capacity(order.len());
    let mut valid = Vec::with_capacity(order.len());
    let mut variance = Vec::with_capacity(order.len());
    for &g in order {
        let e = estimate(ix(g));
        est.push(e.map_or(0.0, |(v, _)| v));
        valid.push(e.is_some());
        variance.push(e.map_or(0.0, |(_, var)| var));
    }
    Ok((
        Column::with_validity(ColumnData::Float64(est), valid)?,
        variance,
    ))
}

impl AggStore {
    /// Number of groups.
    pub(crate) fn len(&self) -> usize {
        match &self.0 {
            Store::Count(n) => n.len(),
            Store::Sum(m) | Store::Avg(m) | Store::Dispersion { m, .. } => m.len(),
            Store::WeightedAvg { w, .. } => w.len(),
            Store::Extreme { best, .. } => best.len(),
            Store::Distinct { n, .. } => n.len(),
            Store::Sample { values, .. } => values.len(),
        }
    }

    /// Append one empty group.
    pub fn push_group(&mut self) {
        match &mut self.0 {
            Store::Count(n) => n.push(0.0),
            Store::Sum(m) | Store::Avg(m) | Store::Dispersion { m, .. } => m.push(Moments::new()),
            Store::WeightedAvg { wv, w } => {
                wv.push(Moments::new());
                w.push(Moments::new());
            }
            Store::Extreme { best, second, .. } => {
                best.push_null();
                second.push_null();
            }
            Store::Distinct { sets, n } => {
                sets.push();
                n.push(0.0);
            }
            Store::Sample { values, .. } => values.push(Vec::new()),
        }
    }

    /// The fold kernel: observe row `i` of `col` — and of `weight`, which
    /// only weighted avg reads — into group `slots[i]`, for every row in
    /// row order. Each kind reads the typed column buffer and its validity
    /// mask: nulls are skipped, Bool/Utf8 cells feed no moment or sample,
    /// and a count adds 1.0 per row, which stays exact. A min/max or
    /// count-distinct column of another storage class than the store's is
    /// a `TypeMismatch`.
    pub fn fold_column(
        &mut self,
        slots: &[u32],
        col: &Column,
        weight: Option<&Column>,
    ) -> Result<()> {
        let rows = valid_rows(slots, col.validity());
        let num = NumView::of(col);
        match &mut self.0 {
            Store::Count(n) => rows.for_each(|(g, _)| n[g] += 1.0),
            Store::Sum(m) | Store::Avg(m) | Store::Dispersion { m, .. } => {
                if let Some(num) = num {
                    rows.for_each(|(g, row)| m[g].observe(num.get(row)));
                }
            }
            Store::Sample { values, .. } => {
                if let Some(num) = num {
                    rows.for_each(|(g, row)| values[g].push(num.get(row)));
                }
            }
            Store::WeightedAvg { wv, w } => {
                let Some((num, weight)) = num.zip(weight) else {
                    return Ok(());
                };
                let Some(wnum) = NumView::of(weight) else {
                    return Ok(());
                };
                let wvalid = weight.validity();
                for (g, row) in rows.filter(|&(_, row)| wvalid.is_none_or(|m| m[row])) {
                    let x = wnum.get(row);
                    wv[g].observe(x * num.get(row));
                    w[g].observe(x);
                }
            }
            Store::Extreme {
                best,
                second,
                is_min,
            } => {
                for (g, row) in rows {
                    offer(best, second, *is_min, g, col, row)?;
                }
            }
            Store::Distinct { sets, n } => {
                sets.insert(rows, col)?;
                valid_rows(slots, col.validity()).for_each(|(g, _)| n[g] += 1.0);
            }
        }
        Ok(())
    }

    /// Key-based merge `⊕` (§2.2): fold group `h` of `other`, another
    /// partial of the same spec, into group `g`.
    pub fn merge_group(&mut self, g: usize, other: &AggStore, h: usize) -> Result<()> {
        match (&mut self.0, &other.0) {
            (Store::Count(n), Store::Count(o)) => n[g] += o[h],
            (Store::Sum(m), Store::Sum(o))
            | (Store::Avg(m), Store::Avg(o))
            | (Store::Dispersion { m, .. }, Store::Dispersion { m: o, .. }) => m[g].merge(&o[h]),
            (Store::WeightedAvg { wv, w }, Store::WeightedAvg { wv: owv, w: ow }) => {
                wv[g].merge(&owv[h]);
                w[g].merge(&ow[h]);
            }
            (
                Store::Extreme {
                    best,
                    second,
                    is_min,
                },
                Store::Extreme {
                    best: ob,
                    second: os,
                    ..
                },
            ) => {
                // Re-offer the other side's extremes.
                for src in [ob, os] {
                    if src.is_valid(h) {
                        offer(best, second, *is_min, g, src, h)?;
                    }
                }
            }
            (Store::Distinct { sets, n }, Store::Distinct { sets: os, n: on }) => {
                sets.merge(g, os, h)?;
                n[g] += on[h];
            }
            (Store::Sample { values, .. }, Store::Sample { values: ov, .. }) => {
                values[g].extend_from_slice(&ov[h]);
            }
            _ => {
                return Err(DataError::Invalid(
                    "cannot merge the states of two different aggregates".into(),
                ))
            }
        }
        Ok(())
    }

    /// The finalize kernel (§5.3): the extrinsic estimates of the groups
    /// in `order` as one column, plus each estimate's variance; `ctx`
    /// carries the shared growth scale. Min/max gather their extremum in
    /// the input type; every other kind writes `Float64`, with a null
    /// estimate (an empty avg, a var over fewer than two rows) as an
    /// invalid 0.0.
    ///
    /// A null estimate, or a min/max over non-numeric cells, has variance
    /// 0. Once the input is complete (`t = 1`) every estimate is the exact
    /// finite-population answer, so every variance is 0 — the convergence
    /// property extends to the uncertainty itself.
    pub fn finalize_column(&self, order: &[u32], ctx: &ScaleContext) -> Result<(Column, Vec<f64>)> {
        let (column, mut variance) = match &self.0 {
            // f_count: scale the raw count by t^{-w} (x̂ = x / t^w).
            Store::Count(n) => estimate_column(order, |g| {
                let est = n[g] * ctx.scale;
                Some((est, ctx.cardinality_variance(est)))
            })?,
            // f_sum = (y / x) · x̂ = y · t^{-w}  (Eq. against §5.3).
            Store::Sum(m) => estimate_column(order, |g| {
                let (x, y) = (m[g].count, m[g].sum);
                // Eq. 11: Var = (Var(y)·x̂² + Var(x̂)·y²) / x².
                let var = if x > 0.0 {
                    let xhat = x * ctx.scale;
                    let var_y = m[g].variance_of_sum();
                    let var_xhat = ctx.cardinality_variance(xhat);
                    (var_y * xhat * xhat + var_xhat * y * y) / (x * x)
                } else {
                    0.0
                };
                Some((y * ctx.scale, var))
            })?,
            // Eq. 5: scaling cancels; the estimator is the identity.
            Store::Avg(m) => estimate_column(order, |g| {
                (m[g].count != 0.0).then(|| (m[g].mean(), m[g].variance_of_mean()))
            })?,
            Store::WeightedAvg { wv, w } => estimate_column(order, |g| {
                let (wv, w) = (&wv[g], &w[g]);
                if w.sum == 0.0 {
                    return None;
                }
                let est = wv.sum / w.sum;
                // Eq. 14: relative variances of numerator and denominator.
                let rel_num = if wv.sum != 0.0 {
                    wv.variance_of_sum() / (wv.sum * wv.sum)
                } else {
                    0.0
                };
                let rel_den = w.variance_of_sum() / (w.sum * w.sum);
                Some((est, est * est * (rel_num + rel_den)))
            })?,
            Store::Distinct { sets, n } => estimate_column(order, |g| {
                let y = sets.len_of(g) as f64;
                let x = n[g];
                let xhat = x * ctx.scale;
                let est = estimate_distinct(y, x, xhat);
                let var_xhat = ctx.cardinality_variance(xhat);
                // Var(y) of the seen-distinct count: crude binomial bound.
                let var_y = y.max(1.0) * (1.0 - ctx.t);
                Some((est, distinct_variance(var_y, var_xhat, x, xhat, est)))
            })?,
            Store::Sample { values, q } => estimate_column(order, |g| {
                if values[g].is_empty() {
                    return None;
                }
                // The one cell order: every NaN last; a stable sort keeps
                // `-0.0` and `0.0` (which tie) in input order.
                let mut sorted = values[g].clone();
                sorted.sort_by(|a, b| cmp_f64(*a, *b));
                let n = sorted.len();
                let rank = rank_index((q * (n - 1) as f64).round());
                let est = sorted[rank.min(n - 1)];
                // Rank-based CI half-width: the q-th sample quantile lies
                // within ±sqrt(q(1-q)n) ranks of the population quantile
                // w.h.p. (van der Vaart §21.2); map that rank band to value
                // space and report its squared half-width as the variance.
                let h = rank_index((q * (1.0 - q) * n as f64).sqrt().ceil()).max(1);
                let lo = sorted[rank.saturating_sub(h)];
                let hi = sorted[(rank + h).min(n - 1)];
                let half = (hi - lo) / 2.0;
                Some((est, half * half))
            })?,
            Store::Dispersion { m, stddev } => estimate_column(order, |g| {
                let m = &m[g];
                if m.count < 2.0 {
                    return None;
                }
                let s2 = m.sample_variance();
                // Asymptotic Var(s²) ≈ 2σ⁴ / (n − 1) (normal approximation).
                let var_s2 = 2.0 * s2 * s2 / (m.count - 1.0);
                Some(match (*stddev, s2 > 0.0) {
                    // Delta method: Var(s) ≈ Var(s²) / (4 s²).
                    (true, true) => (s2.sqrt(), var_s2 / (4.0 * s2)),
                    (true, false) => (s2.sqrt(), 0.0),
                    (false, _) => (s2, var_s2),
                })
            })?,
            // f_order: latest extremum (§5.3 "Order Statistics"). Spacing
            // heuristic: squared gap between the two most extreme
            // observations, shrinking as the group fills in.
            Store::Extreme { best, second, .. } => {
                let gaps = order.iter().map(|&g| {
                    let g = ix(g);
                    let gap = best.f64_at(g).zip(second.f64_at(g)).map(|(b, s)| b - s);
                    gap.map_or(0.0, |d| d * d)
                });
                (best.take_u32(order), gaps.collect())
            }
        };
        if ctx.t >= 1.0 {
            variance.fill(0.0);
        }
        Ok((column, variance))
    }

    /// Approximate bytes (peak-memory accounting): 32 per group plus the
    /// variable-size contents of the sets or samples.
    pub(crate) fn byte_size(&self) -> usize {
        32 * self.len()
            + match &self.0 {
                Store::Distinct { sets, .. } => sets.byte_size(),
                Store::Sample { values, .. } => values.iter().map(|v| v.len() * 8).sum(),
                _ => 0,
            }
    }

    /// Append every group's state to `out`, bit-exact: `f64`s as raw
    /// bits, min/max as two WCF columns of the input type, and only sets
    /// and samples with per-group lengths.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) -> Result<()> {
        match &self.0 {
            Store::Count(n) => put_f64s(out, n),
            Store::Sum(m) | Store::Avg(m) | Store::Dispersion { m, .. } => put_moments(out, m),
            Store::WeightedAvg { wv, w } => {
                put_moments(out, wv);
                put_moments(out, w);
            }
            Store::Extreme { best, second, .. } => {
                write_column(best, out)?;
                write_column(second, out)?;
            }
            Store::Distinct { sets, n } => {
                put_f64s(out, n);
                sets.encode(out);
            }
            Store::Sample { values, .. } => {
                for v in values {
                    put_u64(out, v.len() as u64);
                    put_f64s(out, v);
                }
            }
        }
        Ok(())
    }

    /// Inverse of [`encode`](Self::encode): replace this store's groups
    /// with the `groups` groups read from `c`. The spec-side constants
    /// (`is_min`, `stddev`, `q`, the input type) are this store's. A
    /// hostile or truncated payload is a typed `Parse` error.
    pub(crate) fn decode(&mut self, groups: usize, c: &mut ByteCursor<'_>) -> Result<()> {
        match &mut self.0 {
            Store::Count(n) => *n = get_f64s(c, groups)?,
            Store::Sum(m) | Store::Avg(m) | Store::Dispersion { m, .. } => {
                *m = get_moments(c, groups)?
            }
            Store::WeightedAvg { wv, w } => {
                *wv = get_moments(c, groups)?;
                *w = get_moments(c, groups)?;
            }
            Store::Extreme { best, second, .. } => {
                let dtype = best.data_type();
                *best = read_column(dtype, groups, c)?;
                *second = read_column(dtype, groups, c)?;
            }
            Store::Distinct { sets, n } => {
                *n = get_f64s(c, groups)?;
                sets.decode(groups, c)?;
            }
            Store::Sample { values, .. } => {
                *values = Vec::new();
                for _ in 0..groups {
                    let k = c.count_u64(8)?;
                    values.push(get_f64s(c, k)?);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wake_data::Value;
    use wake_expr::col;

    const MID: ScaleContext = ScaleContext {
        scale: 2.0,
        t: 0.5,
        w_variance: 0.0,
    };

    /// A one-group store of `spec` over `dtype` with `cells` folded in
    /// through the kernel.
    fn fold_cells(spec: &AggSpec, dtype: DataType, cells: &[Value]) -> AggStore {
        let mut st = spec.new_store(dtype);
        st.push_group();
        let c = Column::from_values(dtype, cells).unwrap();
        st.fold_column(&vec![0; c.len()], &c, None).unwrap();
        st
    }

    fn obs(spec: &AggSpec, xs: &[f64]) -> AggStore {
        let cells: Vec<Value> = xs.iter().map(|&x| Value::Float(x)).collect();
        fold_cells(spec, DataType::Float64, &cells)
    }

    /// Group 0 through the finalize kernel: its estimate and variance.
    fn finalize_one(st: &AggStore, ctx: &ScaleContext) -> (Value, f64) {
        let (col, var) = st.finalize_column(&[0], ctx).unwrap();
        (col.value(0), var[0])
    }

    fn encoded(st: &AggStore) -> Vec<u8> {
        let mut bytes = Vec::new();
        st.encode(&mut bytes).unwrap();
        bytes
    }

    /// Same states, bit for bit: equal encodings. Count-distinct sets
    /// compare by content instead, since their hash order differs from
    /// one set to the next.
    fn same_store(a: &AggStore, b: &AggStore) -> bool {
        match (&a.0, &b.0) {
            (Store::Distinct { sets, n }, Store::Distinct { sets: os, n: on }) => {
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                sets == os && bits(n) == bits(on)
            }
            _ => encoded(a) == encoded(b),
        }
    }

    /// The per-value reference the fold kernel is held to: observe one
    /// cell (and its weight) into group `g`, by `Value`'s own equality and
    /// order. `weight` only applies to weighted avg.
    fn observe(st: &mut AggStore, g: usize, value: &Value, weight: Option<&Value>) {
        match &mut st.0 {
            Store::Count(n) => {
                if !value.is_null() {
                    n[g] += 1.0;
                }
            }
            Store::Sum(m) | Store::Avg(m) | Store::Dispersion { m, .. } => {
                if let Some(x) = value.as_f64() {
                    m[g].observe(x);
                }
            }
            Store::WeightedAvg { wv, w } => {
                let wt = weight.and_then(Value::as_f64);
                if let (Some(v), Some(wt)) = (value.as_f64(), wt) {
                    wv[g].observe(wt * v);
                    w[g].observe(wt);
                }
            }
            Store::Extreme {
                best,
                second,
                is_min,
            } => {
                if value.is_null() {
                    return;
                }
                let better = |a: &Value, b: &Value| if *is_min { a < b } else { a > b };
                let cell =
                    Column::from_values(best.data_type(), std::slice::from_ref(value)).unwrap();
                let (b, s) = (best.value(g), second.value(g));
                if b.is_null() {
                    best.set_from(g, &cell, 0).unwrap();
                } else if better(value, &b) {
                    second.set_from(g, best, g).unwrap();
                    best.set_from(g, &cell, 0).unwrap();
                } else if s.is_null() || better(value, &s) {
                    second.set_from(g, &cell, 0).unwrap();
                }
            }
            Store::Distinct { sets, n } => {
                match (sets, value) {
                    (_, Value::Null) => return,
                    (DistinctSets::Num(s), Value::Int(x) | Value::Date(x)) => {
                        s[g].insert(canonical_f64_bits(*x as f64));
                    }
                    (DistinctSets::Num(s), Value::Float(x)) => {
                        s[g].insert(canonical_f64_bits(*x));
                    }
                    (DistinctSets::Str(s), Value::Str(x)) => {
                        s[g].insert(x.clone());
                    }
                    (DistinctSets::Bool(s), Value::Bool(b)) => {
                        s[g] |= if *b { SEEN_TRUE } else { SEEN_FALSE };
                    }
                    (sets, v) => panic!("a test feeds a {} set {v:?}", sets.class()),
                }
                n[g] += 1.0;
            }
            Store::Sample { values, .. } => {
                if let Some(x) = value.as_f64() {
                    values[g].push(x);
                }
            }
        }
    }

    fn all_specs() -> [AggSpec; 11] {
        [
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
        ]
    }

    #[test]
    fn sum_scaling_and_convergence() {
        let st = obs(&AggSpec::sum(col("x"), "s"), &[1.0, 2.0, 3.0]);
        // Halfway through a linear scan (w = 1): scale = 2.
        assert_eq!(finalize_one(&st, &MID).0, Value::Float(12.0));
        // At completion the raw value is exact.
        let out = finalize_one(&st, &ScaleContext::exact());
        assert_eq!(out.0, Value::Float(6.0));
    }

    #[test]
    fn merge_equals_single_stream_for_all_funcs() {
        let xs = [5.0, 3.0, 3.0, 8.0, 1.0, 9.0, 9.0];
        for spec in all_specs() {
            let whole = obs(&spec, &xs);
            let mut left = obs(&spec, &xs[..3]);
            left.merge_group(0, &obs(&spec, &xs[3..]), 0).unwrap();
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
        let st = obs(&AggSpec::avg(col("x"), "a"), &[2.0, 4.0]);
        let ctx = ScaleContext {
            scale: 4.0,
            t: 0.25,
            w_variance: 0.1,
        };
        assert_eq!(finalize_one(&st, &ctx).0, Value::Float(3.0));
    }

    #[test]
    fn weighted_avg_matches_ratio_of_sums() {
        let mut st = AggSpec::weighted_avg(col("v"), col("w"), "wa").new_store(DataType::Float64);
        st.push_group();
        let v = Column::from_f64(vec![10.0, 20.0]);
        let w = Column::from_f64(vec![1.0, 3.0]);
        st.fold_column(&[0, 0], &v, Some(&w)).unwrap();
        // (10·1 + 20·3) / (1 + 3) = 17.5
        assert_eq!(
            finalize_one(&st, &ScaleContext::exact()).0,
            Value::Float(17.5)
        );
    }

    #[test]
    fn count_distinct_extrapolates_and_converges() {
        // 50 observations, 10 distinct values (5 copies each seen).
        let cells: Vec<Value> = (0..50).map(|i| Value::Int(i % 10)).collect();
        let st = fold_cells(
            &AggSpec::count_distinct(col("x"), "cd"),
            DataType::Int64,
            &cells,
        );
        // Group expected to double: estimate should be >= seen distinct.
        let v = finalize_one(&st, &MID).0.as_f64().unwrap();
        assert!((10.0..=100.0).contains(&v));
        // Complete: exact distinct count.
        let exact = finalize_one(&st, &ScaleContext::exact());
        assert_eq!(exact.0, Value::Float(10.0));
    }

    #[test]
    fn extreme_tracks_best_and_second() {
        let st = obs(&AggSpec::max(col("x"), "mx"), &[3.0, 9.0, 7.0]);
        let out = finalize_one(&st, &MID);
        assert_eq!(out.0, Value::Float(9.0));
        // Spacing heuristic: (9 − 7)².
        assert_eq!(out.1, 4.0);
        // Min over strings works and reports no numeric variance.
        let cells = [Value::str("pear"), Value::str("apple")];
        let st = fold_cells(&AggSpec::min(col("s"), "mn"), DataType::Utf8, &cells);
        assert_eq!(finalize_one(&st, &MID), (Value::str("apple"), 0.0));
    }

    #[test]
    fn finalize_column_follows_order_and_writes_nulls_typed() {
        // Rows come out in `order`; a null estimate is an invalid 0.0 with
        // variance 0; min/max keep the input type.
        let mut avgs = AggSpec::avg(col("x"), "a").new_store(DataType::Float64);
        for _ in 0..3 {
            avgs.push_group();
        }
        let x = Column::from_f64(vec![2.0, 10.0, 4.0]);
        avgs.fold_column(&[0, 2, 0], &x, None).unwrap();
        let (c, var) = avgs.finalize_column(&[2, 1, 0], &MID).unwrap();
        assert_eq!(c.as_f64_slice().unwrap(), &[10.0, 0.0, 3.0]);
        assert_eq!(c.validity(), Some(&[true, false, true][..]));
        assert_eq!(var[1], 0.0);
        let mut mins = AggSpec::min(col("x"), "mn").new_store(DataType::Int64);
        mins.push_group();
        mins.push_group();
        mins.fold_column(&[1], &Column::from_i64(vec![i64::MAX]), None)
            .unwrap();
        let (c, _) = mins.finalize_column(&[1, 0], &MID).unwrap();
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            [Value::Int(i64::MAX), Value::Null]
        );
    }

    #[test]
    fn nulls_are_skipped() {
        let cells = [Value::Null, Value::Int(1)];
        let st = fold_cells(&AggSpec::count(col("x"), "c"), DataType::Int64, &cells);
        assert_eq!(
            finalize_one(&st, &ScaleContext::exact()).0,
            Value::Float(1.0)
        );
        let st = fold_cells(
            &AggSpec::avg(col("x"), "a"),
            DataType::Int64,
            &[Value::Null],
        );
        assert_eq!(finalize_one(&st, &ScaleContext::exact()).0, Value::Null);
    }

    #[test]
    fn dispersion_values() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let exact = ScaleContext::exact();
        let st = obs(&AggSpec::var(col("x"), "v"), &xs);
        let v = finalize_one(&st, &exact).0.as_f64().unwrap();
        assert!((v - 32.0 / 7.0).abs() < 1e-9);
        let st = obs(&AggSpec::stddev(col("x"), "sd"), &xs);
        let sd = finalize_one(&st, &exact).0.as_f64().unwrap();
        assert!((sd - (32.0f64 / 7.0).sqrt()).abs() < 1e-9);
        // Single observation: undefined.
        let st = obs(&AggSpec::var(col("x"), "v"), &[1.0]);
        assert_eq!(finalize_one(&st, &exact).0, Value::Null);
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
                    for spec in &all_specs() {
                        let fresh = || {
                            let mut st = spec.new_store(input.data_type());
                            (0..groups).for_each(|_| st.push_group());
                            st
                        };
                        let (mut fast, mut slow) = (fresh(), fresh());
                        fast.fold_column(&slots, input, w).unwrap();
                        for (row, &slot) in slots.iter().enumerate() {
                            let wv = w.map(|c| c.value(row));
                            observe(&mut slow, slot as usize, &input.value(row), wv.as_ref());
                        }
                        assert!(
                            same_store(&fast, &slow),
                            "{:?} over {:?}, weight {:?}, {groups} groups: {fast:?} vs {slow:?}",
                            spec.func,
                            input.data_type(),
                            w.map(Column::data_type),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_sets_follow_value_equality_and_their_input_class() {
        // Int(3), Float(3.0), Date(3) are one Value-equivalence class.
        let spec = AggSpec::count_distinct(col("x"), "cd");
        let mut st = spec.new_store(DataType::Float64);
        st.push_group();
        for c in [
            Column::from_i64(vec![3]),
            Column::from_f64(vec![3.0, -0.0, 0.0, f64::NAN, -f64::NAN]),
            Column::from_dates(vec![3]),
        ] {
            st.fold_column(&vec![0; c.len()], &c, None).unwrap();
        }
        // -0.0 == 0.0, NaN unifies.
        let Store::Distinct { sets, n } = &st.0 else {
            unreachable!()
        };
        assert_eq!((sets.len_of(0), n[0]), (3, 7.0));
        // A column of another class is a typed error that leaves the store
        // as it was; so is merging sets of two classes.
        let before = encoded(&st);
        let err = st
            .fold_column(&[0], &Column::from_str_iter(["x"]), None)
            .unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }), "{err}");
        assert_eq!(encoded(&st), before);
        let strs = fold_cells(&spec, DataType::Utf8, &[Value::str("p"), Value::str("q")]);
        assert!(matches!(
            st.merge_group(0, &strs, 0),
            Err(DataError::Invalid(_))
        ));
        assert_eq!(encoded(&st), before);
        // Merge = set union.
        let mut a = fold_cells(&spec, DataType::Utf8, &[Value::str("p")]);
        a.merge_group(0, &strs, 0).unwrap();
        assert_eq!(
            finalize_one(&a, &ScaleContext::exact()).0,
            Value::Float(2.0)
        );
        let bools = [Value::Bool(true), Value::Bool(true)];
        let mut b = fold_cells(&spec, DataType::Bool, &bools);
        assert_eq!(
            finalize_one(&b, &ScaleContext::exact()).0,
            Value::Float(1.0)
        );
        b.fold_column(&[0], &Column::from_bool(vec![false]), None)
            .unwrap();
        assert_eq!(
            finalize_one(&b, &ScaleContext::exact()).0,
            Value::Float(2.0)
        );
        // Set contents count toward the state bytes; an empty set does not.
        assert_eq!(b.byte_size(), 32 + 2);
        assert!(a.byte_size() > 32);
        let mut empty = spec.new_store(DataType::Bool);
        empty.push_group();
        assert_eq!(empty.byte_size(), 32);
    }

    #[test]
    fn merge_of_two_kinds_errors() {
        let mut a = obs(&AggSpec::sum(col("x"), "s"), &[1.0]);
        let b = obs(&AggSpec::count_star("c"), &[1.0]);
        assert!(matches!(
            a.merge_group(0, &b, 0),
            Err(DataError::Invalid(_))
        ));
    }

    #[test]
    fn quantiles_and_median() {
        let st = obs(
            &AggSpec::median(col("x"), "med"),
            &[5.0, 1.0, 9.0, 3.0, 7.0],
        );
        let out = finalize_one(&st, &ScaleContext::exact());
        assert_eq!(out.0, Value::Float(5.0));
        // p90 of 1..=10.
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let out = finalize_one(&obs(&AggSpec::quantile(col("x"), 0.9, "p90"), &xs), &MID);
        let v = out.0.as_f64().unwrap();
        assert!((9.0..=10.0).contains(&v), "p90 {v}");
        assert!(out.1 >= 0.0);
        // Merge = concatenation: split/merge equals single stream.
        let spec = AggSpec::median(col("x"), "m");
        let xs: Vec<f64> = (0..21).map(|i| (i * 7 % 13) as f64).collect();
        let whole = obs(&spec, &xs);
        let mut a = obs(&spec, &xs[..8]);
        a.merge_group(0, &obs(&spec, &xs[8..]), 0).unwrap();
        let ctx = ScaleContext::exact();
        assert_eq!(finalize_one(&a, &ctx).0, finalize_one(&whole, &ctx).0);
        // Empty sample -> NULL.
        assert_eq!(finalize_one(&obs(&spec, &[]), &ctx).0, Value::Null);
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
            let op = AggOp::new(&meta, vec![], vec![spec], false, None, 1, None);
            assert!(matches!(op, Err(DataError::Invalid(_))), "{q}");
        }
    }

    #[test]
    fn count_variance_grows_with_w_uncertainty() {
        let st = obs(&AggSpec::count_star("c"), &[1.0; 10]);
        let at = |w_variance| {
            let ctx = ScaleContext { w_variance, ..MID };
            finalize_one(&st, &ctx).1
        };
        let (lo, hi) = (at(0.01), at(0.09));
        assert!(hi > lo && lo > 0.0);
        // Complete input: zero variance.
        assert_eq!(finalize_one(&st, &ScaleContext::exact()).1, 0.0);
    }

    /// Every estimate and variance of `a` and `b`, mid-query, bit for bit
    /// (so NaN matches NaN).
    fn assert_same_estimates(a: &AggStore, b: &AggStore) {
        let ctx = ScaleContext {
            w_variance: 0.01,
            ..MID
        };
        let order: Vec<u32> = (0..a.len() as u32).collect();
        let (ca, va) = a.finalize_column(&order, &ctx).unwrap();
        let (cb, vb) = b.finalize_column(&order, &ctx).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        match (ca.as_f64_slice(), cb.as_f64_slice()) {
            (Some(x), Some(y)) => assert_eq!(bits(x), bits(y), "{a:?} vs {b:?}"),
            _ => assert_eq!(ca, cb),
        }
        assert_eq!(ca.validity(), cb.validity());
        assert_eq!(bits(&va), bits(&vb), "{a:?} vs {b:?}");
    }

    /// `st` through its encoding into a fresh store of the same spec.
    fn roundtrip(spec: &AggSpec, dtype: DataType, st: &AggStore) -> AggStore {
        let bytes = encoded(st);
        let mut back = spec.new_store(dtype);
        let mut c = ByteCursor::new(&bytes);
        back.decode(st.len(), &mut c).unwrap();
        assert_eq!(c.remaining(), 0);
        back
    }

    #[test]
    fn every_store_roundtrips_bit_exactly() {
        // Hostile payloads: -0.0, NaN, huge ints, groups left empty; then
        // both copies keep folding and must finalize identically.
        let floats = Column::from_values(
            DataType::Float64,
            &[
                Value::Float(-0.0),
                Value::Float(0.5),
                Value::Float(f64::NAN),
                Value::Null,
                Value::Float(0.25),
            ],
        )
        .unwrap();
        let ints = Column::from_i64(vec![i64::MAX, -3, 7, i64::MIN, 0]);
        let strs = Column::from_str_iter(["pear", "apple", "", "fig", "apple"]);
        let bools = Column::from_bool(vec![true, false, true, true, false]);
        let w = Column::from_f64(vec![2.0; 5]);
        let slots = [0, 2, 0, 2, 3];
        for input in [&floats, &ints, &strs, &bools] {
            let dtype = input.data_type();
            for spec in &all_specs() {
                let mut st = spec.new_store(dtype);
                (0..4).for_each(|_| st.push_group());
                st.fold_column(&slots, input, Some(&w)).unwrap();
                let mut back = roundtrip(spec, dtype, &st);
                assert!(same_store(&st, &back), "{:?} over {dtype:?}", spec.func);
                let more = input.take_u32(&[4, 1]);
                let w = w.slice(0, 2);
                st.fold_column(&[1, 2], &more, Some(&w)).unwrap();
                back.fold_column(&[1, 2], &more, Some(&w)).unwrap();
                assert_same_estimates(&st, &back);
            }
        }
    }

    #[test]
    fn hostile_store_bytes_fail_typed_before_allocating() {
        // A count header larger than the bytes behind it used to reach
        // `with_capacity` (an allocation-failure abort, not even a
        // panic). Every counted state must reject it as a parse error.
        let hostile = (u64::MAX / 16).to_le_bytes();
        let decode = |spec: &AggSpec, dtype, bytes: &[u8]| {
            let mut st = spec.new_store(dtype);
            st.decode(1, &mut ByteCursor::new(bytes)).unwrap_err()
        };
        let median = AggSpec::median(col("x"), "m");
        let err = decode(&median, DataType::Float64, &hostile);
        assert!(matches!(err, DataError::Parse(_)), "{err}");
        // A count-distinct group: its observation count, then its set.
        let cd = AggSpec::count_distinct(col("x"), "cd");
        let mut bytes = 1f64.to_bits().to_le_bytes().to_vec();
        bytes.extend_from_slice(&hostile);
        for dtype in [DataType::Int64, DataType::Utf8] {
            let err = decode(&cd, dtype, &bytes);
            assert!(matches!(err, DataError::Parse(_)), "{dtype:?}: {err}");
        }
        // A string whose length header overruns the buffer, in a set and
        // as a spilled extreme.
        let mut bytes = 1f64.to_bits().to_le_bytes().to_vec();
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&hostile);
        let err = decode(&cd, DataType::Utf8, &bytes);
        assert!(matches!(err, DataError::Parse(_)), "{err}");
        let min = AggSpec::min(col("x"), "mn");
        let mut st = min.new_store(DataType::Utf8);
        st.push_group();
        st.fold_column(&[0], &Column::from_str_iter(["pear"]), None)
            .unwrap();
        let mut bytes = encoded(&st);
        bytes.truncate(bytes.len() - 1);
        let err = decode(&min, DataType::Utf8, &bytes);
        assert!(matches!(err, DataError::Parse(_)), "{err}");
    }
}
