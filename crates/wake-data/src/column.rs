//! Typed columnar storage with an optional validity mask.
//!
//! A [`Column`] owns a contiguous vector of one physical type plus an
//! optional `Vec<bool>` validity mask (`true` = present). Kernels are
//! implemented once per operation and dispatch over the type enum; the mask
//! is only materialised when nulls actually occur, keeping the common
//! null-free TPC-H path allocation-light.

use crate::error::DataError;
use crate::value::{DataType, Value};
use crate::Result;
use std::sync::Arc;

/// Physical storage for one attribute of a frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Bool(Vec<bool>),
    Utf8(Vec<Arc<str>>),
    Date(Vec<i64>),
}

impl ColumnData {
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
            ColumnData::Date(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Bool(_) => DataType::Bool,
            ColumnData::Utf8(_) => DataType::Utf8,
            ColumnData::Date(_) => DataType::Date,
        }
    }

    fn value_unchecked(&self, i: usize) -> Value {
        match self {
            ColumnData::Int64(v) => Value::Int(v[i]),
            ColumnData::Float64(v) => Value::Float(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
            ColumnData::Utf8(v) => Value::Str(v[i].clone()),
            ColumnData::Date(v) => Value::Date(v[i]),
        }
    }

    fn empty_of(dtype: DataType) -> ColumnData {
        match dtype {
            DataType::Int64 => ColumnData::Int64(Vec::new()),
            DataType::Float64 => ColumnData::Float64(Vec::new()),
            DataType::Bool => ColumnData::Bool(Vec::new()),
            DataType::Utf8 => ColumnData::Utf8(Vec::new()),
            DataType::Date => ColumnData::Date(Vec::new()),
        }
    }
}

/// A column: typed data plus optional validity.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    data: ColumnData,
    /// `None` means all rows valid. `Some(mask)` has `mask.len() == len()`.
    validity: Option<Vec<bool>>,
}

impl Column {
    pub fn new(data: ColumnData) -> Self {
        Column {
            data,
            validity: None,
        }
    }

    /// Build a column with explicit validity; drops the mask if fully valid.
    pub fn with_validity(data: ColumnData, validity: Vec<bool>) -> Result<Self> {
        if validity.len() != data.len() {
            return Err(DataError::ShapeMismatch(format!(
                "validity length {} != data length {}",
                validity.len(),
                data.len()
            )));
        }
        if validity.iter().all(|&v| v) {
            Ok(Column {
                data,
                validity: None,
            })
        } else {
            Ok(Column {
                data,
                validity: Some(validity),
            })
        }
    }

    /// [`with_validity`](Self::with_validity) with an optional mask
    /// (`None` = all valid).
    pub fn with_validity_opt(data: ColumnData, validity: Option<Vec<bool>>) -> Result<Self> {
        match validity {
            Some(mask) => Column::with_validity(data, mask),
            None => Ok(Column::new(data)),
        }
    }

    pub fn from_i64(values: Vec<i64>) -> Self {
        Column::new(ColumnData::Int64(values))
    }

    pub fn from_f64(values: Vec<f64>) -> Self {
        Column::new(ColumnData::Float64(values))
    }

    pub fn from_bool(values: Vec<bool>) -> Self {
        Column::new(ColumnData::Bool(values))
    }

    pub fn from_str_iter<I: IntoIterator<Item = S>, S: AsRef<str>>(values: I) -> Self {
        Column::new(ColumnData::Utf8(
            values.into_iter().map(|s| Arc::from(s.as_ref())).collect(),
        ))
    }

    pub fn from_dates(values: Vec<i64>) -> Self {
        Column::new(ColumnData::Date(values))
    }

    /// Build a column of `dtype` from dynamic values. `Null`s set validity.
    pub fn from_values(dtype: DataType, values: &[Value]) -> Result<Self> {
        let mut validity = vec![true; values.len()];
        let mut any_null = false;
        macro_rules! collect {
            ($variant:ident, $default:expr, $extract:expr) => {{
                let mut out = Vec::with_capacity(values.len());
                for (i, v) in values.iter().enumerate() {
                    match v {
                        Value::Null => {
                            validity[i] = false;
                            any_null = true;
                            out.push($default);
                        }
                        other => match $extract(other) {
                            Some(x) => out.push(x),
                            None => {
                                return Err(DataError::TypeMismatch {
                                    expected: dtype.to_string(),
                                    found: format!("{other:?}"),
                                })
                            }
                        },
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        let data = match dtype {
            DataType::Int64 => collect!(Int64, 0i64, |v: &Value| v.as_i64()),
            DataType::Float64 => collect!(Float64, 0.0f64, |v: &Value| v.as_f64()),
            DataType::Bool => collect!(Bool, false, |v: &Value| v.as_bool()),
            DataType::Date => collect!(Date, 0i64, |v: &Value| v.as_i64()),
            DataType::Utf8 => collect!(Utf8, Arc::from(""), |v: &Value| v
                .as_str()
                .map(Arc::<str>::from)),
        };
        if any_null {
            Column::with_validity(data, validity)
        } else {
            Ok(Column::new(data))
        }
    }

    /// An empty column of the given type.
    pub fn empty(dtype: DataType) -> Self {
        Column::new(ColumnData::empty_of(dtype))
    }

    /// A column of `n` nulls of the given type (used by outer joins).
    pub fn nulls(dtype: DataType, n: usize) -> Self {
        let data = match dtype {
            DataType::Int64 => ColumnData::Int64(vec![0; n]),
            DataType::Float64 => ColumnData::Float64(vec![0.0; n]),
            DataType::Bool => ColumnData::Bool(vec![false; n]),
            DataType::Utf8 => ColumnData::Utf8(vec![Arc::from(""); n]),
            DataType::Date => ColumnData::Date(vec![0; n]),
        };
        Column {
            data,
            validity: Some(vec![false; n]),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data_type(&self) -> DataType {
        self.data.data_type()
    }

    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    pub fn validity(&self) -> Option<&[bool]> {
        self.validity.as_deref()
    }

    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|m| m[i])
    }

    pub fn null_count(&self) -> usize {
        self.validity
            .as_ref()
            .map_or(0, |m| m.iter().filter(|&&v| !v).count())
    }

    /// Dynamic cell access (returns `Null` where invalid).
    pub fn value(&self, i: usize) -> Value {
        assert!(i < self.len(), "row {i} out of bounds (len {})", self.len());
        if !self.is_valid(i) {
            return Value::Null;
        }
        self.data.value_unchecked(i)
    }

    /// Iterate all cells as dynamic values.
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Typed accessors used by hot kernels; `None` on type mismatch.
    pub fn as_i64_slice(&self) -> Option<&[i64]> {
        match &self.data {
            ColumnData::Int64(v) | ColumnData::Date(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match &self.data {
            ColumnData::Float64(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool_slice(&self) -> Option<&[bool]> {
        match &self.data {
            ColumnData::Bool(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str_slice(&self) -> Option<&[Arc<str>]> {
        match &self.data {
            ColumnData::Utf8(v) => Some(v),
            _ => None,
        }
    }

    /// Numeric view of cell `i` as f64 (nulls and non-numerics -> None).
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        match &self.data {
            ColumnData::Int64(v) => Some(v[i] as f64),
            ColumnData::Float64(v) => Some(v[i]),
            ColumnData::Date(v) => Some(v[i] as f64),
            _ => None,
        }
    }

    /// Gather rows at `indices` into a new column.
    pub fn take(&self, indices: &[usize]) -> Column {
        self.gather(indices.len(), |i| indices[i])
    }

    /// Rows `start..end` as a new column: what [`take`](Self::take) of that
    /// range returns (same canonical mask), by one slice copy per buffer.
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, end: usize) -> Column {
        let data = match &self.data {
            ColumnData::Int64(v) => ColumnData::Int64(v[start..end].to_vec()),
            ColumnData::Float64(v) => ColumnData::Float64(v[start..end].to_vec()),
            ColumnData::Bool(v) => ColumnData::Bool(v[start..end].to_vec()),
            ColumnData::Utf8(v) => ColumnData::Utf8(v[start..end].to_vec()),
            ColumnData::Date(v) => ColumnData::Date(v[start..end].to_vec()),
        };
        let validity = self
            .validity
            .as_ref()
            .map(|m| m[start..end].to_vec())
            .filter(|m| !m.iter().all(|&v| v));
        Column { data, validity }
    }

    /// Gather rows at a `u32` selection vector — the shared representation
    /// produced by predicate evaluation ([`filter`](Self::filter)) and the
    /// hash-range partition scatter (`wake_data::partition`). One typed pass
    /// per column; no `Value` cells are materialised.
    pub fn take_u32(&self, sel: &[u32]) -> Column {
        self.gather(sel.len(), |i| sel[i] as usize)
    }

    /// Shared typed gather behind [`take`](Self::take) /
    /// [`take_u32`](Self::take_u32): `src(i)` names the source row of
    /// output row `i`, for `i` in `0..n`.
    fn gather(&self, n: usize, src: impl Fn(usize) -> usize) -> Column {
        macro_rules! gather {
            ($variant:ident, $v:expr) => {
                ColumnData::$variant((0..n).map(|i| $v[src(i)].clone()).collect())
            };
        }
        let data = match &self.data {
            ColumnData::Int64(v) => gather!(Int64, v),
            ColumnData::Float64(v) => gather!(Float64, v),
            ColumnData::Bool(v) => gather!(Bool, v),
            ColumnData::Utf8(v) => gather!(Utf8, v),
            ColumnData::Date(v) => gather!(Date, v),
        };
        // Canonical form (as in `with_validity`): a mask with no nulls
        // left after the gather is dropped, so sliced columns compare
        // equal to freshly built ones.
        let validity = self
            .validity
            .as_ref()
            .map(|m| (0..n).map(|i| m[src(i)]).collect::<Vec<bool>>())
            .filter(|m| !m.iter().all(|&v| v));
        Column { data, validity }
    }

    /// Append row `row` of `src` (a null appends the type's placeholder).
    /// Int64 and Date share storage, so either feeds the other; any other
    /// storage-class difference is a [`DataError::TypeMismatch`]. The mask
    /// stays canonical: it appears with the first null.
    pub(crate) fn push_from(&mut self, src: &Column, row: usize) -> Result<()> {
        let valid = src.is_valid(row);
        match (&mut self.data, &src.data) {
            (
                ColumnData::Int64(v) | ColumnData::Date(v),
                ColumnData::Int64(s) | ColumnData::Date(s),
            ) => v.push(if valid { s[row] } else { 0 }),
            (ColumnData::Float64(v), ColumnData::Float64(s)) => {
                v.push(if valid { s[row] } else { 0.0 })
            }
            (ColumnData::Bool(v), ColumnData::Bool(s)) => v.push(valid && s[row]),
            (ColumnData::Utf8(v), ColumnData::Utf8(s)) => {
                v.push(if valid { s[row].clone() } else { Arc::from("") })
            }
            (data, s) => {
                return Err(DataError::TypeMismatch {
                    expected: data.data_type().to_string(),
                    found: s.data_type().to_string(),
                })
            }
        }
        match &mut self.validity {
            Some(mask) => mask.push(valid),
            None if !valid => {
                let mut mask = vec![true; self.data.len() - 1];
                mask.push(false);
                self.validity = Some(mask);
            }
            None => {}
        }
        Ok(())
    }

    /// Overwrite row `row` with row `src_row` of `src`, by
    /// [`push_from`](Self::push_from)'s storage rule: Int64 and Date share
    /// storage, any other class difference is a
    /// [`DataError::TypeMismatch`]. A null writes the type's placeholder
    /// and clears the row's validity. Panics if `row` is out of bounds.
    pub fn set_from(&mut self, row: usize, src: &Column, src_row: usize) -> Result<()> {
        let valid = src.is_valid(src_row);
        match (&mut self.data, &src.data) {
            (
                ColumnData::Int64(v) | ColumnData::Date(v),
                ColumnData::Int64(s) | ColumnData::Date(s),
            ) => v[row] = if valid { s[src_row] } else { 0 },
            (ColumnData::Float64(v), ColumnData::Float64(s)) => {
                v[row] = if valid { s[src_row] } else { 0.0 }
            }
            (ColumnData::Bool(v), ColumnData::Bool(s)) => v[row] = valid && s[src_row],
            (ColumnData::Utf8(v), ColumnData::Utf8(s)) => {
                v[row] = if valid {
                    s[src_row].clone()
                } else {
                    Arc::from("")
                }
            }
            (data, s) => {
                return Err(DataError::TypeMismatch {
                    expected: data.data_type().to_string(),
                    found: s.data_type().to_string(),
                })
            }
        }
        match &mut self.validity {
            Some(mask) => mask[row] = valid,
            None if !valid => {
                let mut mask = vec![true; self.data.len()];
                mask[row] = false;
                self.validity = Some(mask);
            }
            None => {}
        }
        Ok(())
    }

    /// Append a null: the type's placeholder, marked invalid.
    pub fn push_null(&mut self) {
        let n = self.data.len();
        match &mut self.data {
            ColumnData::Int64(v) | ColumnData::Date(v) => v.push(0),
            ColumnData::Float64(v) => v.push(0.0),
            ColumnData::Bool(v) => v.push(false),
            ColumnData::Utf8(v) => v.push(Arc::from("")),
        }
        self.validity
            .get_or_insert_with(|| vec![true; n])
            .push(false);
    }

    /// Keep rows where `mask[i]` is true. `mask.len()` must equal `len()`.
    /// Internally converts the mask to a `u32` selection vector and gathers,
    /// so filtering and partition scatter share one representation.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(DataError::ShapeMismatch(format!(
                "mask length {} != column length {}",
                mask.len(),
                self.len()
            )));
        }
        Ok(self.take_u32(&mask_to_selection(mask)))
    }

    /// Concatenate columns of the same type.
    pub fn concat(parts: &[&Column]) -> Result<Column> {
        let Some(first) = parts.first() else {
            return Err(DataError::Invalid("concat of zero columns".into()));
        };
        let dtype = first.data_type();
        let total: usize = parts.iter().map(|c| c.len()).sum();
        let any_null = parts.iter().any(|c| c.validity.is_some());
        let mut validity = if any_null {
            Some(Vec::with_capacity(total))
        } else {
            None
        };
        macro_rules! cat {
            ($variant:ident, $ty:ty) => {{
                let mut out: Vec<$ty> = Vec::with_capacity(total);
                for c in parts {
                    match &c.data {
                        ColumnData::$variant(v) => out.extend(v.iter().cloned()),
                        _ => {
                            return Err(DataError::TypeMismatch {
                                expected: dtype.to_string(),
                                found: c.data_type().to_string(),
                            })
                        }
                    }
                    if let Some(val) = &mut validity {
                        match &c.validity {
                            Some(m) => val.extend(m.iter().copied()),
                            None => val.extend(std::iter::repeat(true).take(c.len())),
                        }
                    }
                }
                ColumnData::$variant(out)
            }};
        }
        // Int64 and Date share storage but are distinct types; dispatch on
        // the first column's declared type and insist the rest match.
        let data = match dtype {
            DataType::Int64 => cat!(Int64, i64),
            DataType::Float64 => cat!(Float64, f64),
            DataType::Bool => cat!(Bool, bool),
            DataType::Utf8 => cat!(Utf8, Arc<str>),
            DataType::Date => cat!(Date, i64),
        };
        match validity {
            Some(v) => Column::with_validity(data, v),
            None => Ok(Column::new(data)),
        }
    }

    /// Approximate heap footprint in bytes (for the peak-memory metric).
    pub fn byte_size(&self) -> usize {
        let data = match &self.data {
            ColumnData::Int64(v) | ColumnData::Date(v) => v.len() * 8,
            ColumnData::Float64(v) => v.len() * 8,
            ColumnData::Bool(v) => v.len(),
            ColumnData::Utf8(v) => v.iter().map(|s| s.len() + 16).sum(),
        };
        data + self.validity.as_ref().map_or(0, |m| m.len())
    }
}

/// Convert a keep-mask to a `u32` selection vector. Unrolled over chunks of
/// eight so the per-lane tests compile to straight-line code; the tail is
/// handled scalar.
pub fn mask_to_selection(mask: &[bool]) -> Vec<u32> {
    let mut sel = Vec::with_capacity(mask.len());
    let mut chunks = mask.chunks_exact(8);
    let mut base = 0u32;
    for c in &mut chunks {
        for (lane, &keep) in c.iter().enumerate() {
            if keep {
                sel.push(base + lane as u32);
            }
        }
        base += 8;
    }
    for (lane, &keep) in chunks.remainder().iter().enumerate() {
        if keep {
            sel.push(base + lane as u32);
        }
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_and_filter_preserve_values_and_validity() {
        let col = Column::from_values(
            DataType::Int64,
            &[Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)],
        )
        .unwrap();
        assert_eq!(col.null_count(), 1);
        let taken = col.take(&[3, 1, 0]);
        assert_eq!(taken.value(0), Value::Int(40));
        assert_eq!(taken.value(1), Value::Null);
        assert_eq!(taken.value(2), Value::Int(10));

        let filtered = col.filter(&[true, true, false, true]).unwrap();
        assert_eq!(filtered.len(), 3);
        assert_eq!(filtered.value(1), Value::Null);
        assert!(col.filter(&[true]).is_err());
    }

    #[test]
    fn take_u32_matches_take_and_mask_round_trips() {
        let col = Column::from_values(
            DataType::Utf8,
            &[Value::str("a"), Value::Null, Value::str("c")],
        )
        .unwrap();
        let a = col.take(&[2, 0, 1]);
        let b = col.take_u32(&[2, 0, 1]);
        assert_eq!(a, b);
        // mask_to_selection covers the unrolled body and the tail.
        let mask: Vec<bool> = (0..19).map(|i| i % 3 == 0).collect();
        let sel = mask_to_selection(&mask);
        assert_eq!(sel, vec![0, 3, 6, 9, 12, 15, 18]);
    }

    #[test]
    fn slice_matches_take_of_the_range() {
        let col = Column::from_values(
            DataType::Utf8,
            &[
                Value::str("a"),
                Value::Null,
                Value::str("c"),
                Value::str("d"),
            ],
        )
        .unwrap();
        for (start, end) in [(0, 4), (0, 2), (2, 4), (1, 1), (4, 4)] {
            let idx: Vec<usize> = (start..end).collect();
            assert_eq!(col.slice(start, end), col.take(&idx), "{start}..{end}");
        }
        // A range without nulls drops the mask, as `take` does.
        assert!(col.slice(2, 4).validity().is_none());
    }

    #[test]
    fn concat_merges_masks() {
        let a = Column::from_i64(vec![1, 2]);
        let b = Column::from_values(DataType::Int64, &[Value::Null, Value::Int(4)]).unwrap();
        let c = Column::concat(&[&a, &b]).unwrap();
        assert_eq!(c.len(), 4);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.value(2), Value::Null);
        assert_eq!(c.value(3), Value::Int(4));
    }

    #[test]
    fn concat_rejects_type_mismatch() {
        let a = Column::from_i64(vec![1]);
        let b = Column::from_f64(vec![1.0]);
        assert!(Column::concat(&[&a, &b]).is_err());
    }

    #[test]
    fn with_validity_drops_all_true_mask() {
        let c = Column::with_validity(ColumnData::Int64(vec![1, 2]), vec![true, true]).unwrap();
        assert!(c.validity().is_none());
    }

    #[test]
    fn nulls_column_is_fully_null() {
        let c = Column::nulls(DataType::Utf8, 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.null_count(), 3);
        assert!(c.value(1).is_null());
    }

    #[test]
    fn from_values_rejects_mixed_types() {
        let err = Column::from_values(DataType::Int64, &[Value::str("x")]);
        assert!(err.is_err());
    }

    #[test]
    fn byte_size_reflects_payload() {
        let c = Column::from_i64(vec![0; 100]);
        assert_eq!(c.byte_size(), 800);
        assert!(Column::from_str_iter(["hello"]).byte_size() >= 5);
    }

    #[test]
    fn set_from_overwrites_in_place_like_push_from() {
        // Grow by nulls, then overwrite: cells, validity and the storage
        // rule match a column built by `push_from`.
        let src = Column::from_values(DataType::Date, &[Value::Date(7), Value::Null]).unwrap();
        let mut c = Column::empty(DataType::Int64);
        c.push_null();
        c.push_null();
        c.set_from(1, &src, 0).unwrap();
        assert_eq!(c.iter().collect::<Vec<_>>(), [Value::Null, Value::Int(7)]);
        c.set_from(0, &src, 0).unwrap();
        c.set_from(1, &src, 1).unwrap();
        assert_eq!(c.iter().collect::<Vec<_>>(), [Value::Int(7), Value::Null]);
        let mut pushed = Column::empty(DataType::Int64);
        pushed.push_from(&src, 0).unwrap();
        pushed.push_from(&src, 1).unwrap();
        assert_eq!(c, pushed);
        // A null into a mask-free column creates the mask.
        let mut s = Column::from_str_iter(["a", "b"]);
        s.set_from(0, &Column::nulls(DataType::Utf8, 1), 0).unwrap();
        assert_eq!(s.validity(), Some(&[false, true][..]));
        let err = s.set_from(1, &Column::from_f64(vec![1.0]), 0).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }), "{err}");
        assert_eq!(s.value(1), Value::str("b"));
    }
}
