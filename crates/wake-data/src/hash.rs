//! Key hashing, and the one typed equality and order of `Value` cells.
//!
//! The hot loops of hash join and group-by need, per input row, (a) a
//! well-mixed 64-bit hash of the key columns and (b) a way to confirm a
//! candidate match exactly. [`hash_keys`] produces one `Vec<u64>` of row
//! hashes per frame with a single typed pass per key column; no `Value` is
//! ever created.
//!
//! ## One equality, one order
//!
//! Every key comparison in the engine goes through two cell functions
//! here, which follow [`Value`](crate::value::Value)'s `Eq` and `Ord`
//! exactly:
//!
//! - the private `cells_equal` (= `Value::eq`) behind [`keys_equal`]
//!   (join probes, group-by fold) and [`KeyStore::eq_row`] (group lookup);
//! - [`cells_cmp`] (= `Value::cmp`) behind [`cmp_rows`] (the k-way merge
//!   of key-sorted partials), [`cmp_rows_by`] (`DataFrame::sort_by` and
//!   `SortOp`'s run merge), [`KeyStore::cmp_slots`] (the group-by
//!   snapshot order) and the min/max aggregate state. Its numeric order
//!   is [`cmp_f64`], which `Value::cmp` and the quantile sort call too.
//!
//! ## Semantics (bit-compatible with `Value` keys)
//!
//! - **Numerics unify**: `Int64`, `Float64`, and `Date` cells hash and
//!   compare through their `f64` image (canonical bits: `-0.0` → `0.0`,
//!   all NaNs → one pattern, ordered last), so an `Int64(3)` key matches a
//!   `Float64(3.0)` key across the two sides of a join.
//! - **Null-aware**: invalid cells hash to a fixed sentinel and
//!   [`KeyHashes::any_null`] records which rows contain at least one null
//!   key. Joins use that mask to enforce "null keys never match"; group-by
//!   instead treats null as an ordinary key value (nulls group together
//!   and sort first).
//! - **Deterministic**: hashes depend only on cell contents, never on frame
//!   identity or insertion order, so hashes computed for different frames
//!   (or the two sides of a join) are directly comparable.
//!
//! Collisions are possible by construction (64-bit hashes); callers must
//! confirm candidates with [`keys_equal`] / [`KeyStore::eq_row`].

use crate::column::{Column, ColumnData};
use crate::frame::DataFrame;
use crate::value::DataType;
use crate::Result;
use std::cmp::Ordering;
use std::sync::Arc;

/// Hash of a null cell (any type). Mixed like every other payload so that
/// multi-column combining keeps its avalanche behaviour.
const NULL_PAYLOAD: u64 = 0x6e75_6c6c_6b65_795f; // "nullkey_"

/// Type tags folded into each cell hash so values of *incompatible* types
/// (e.g. `Bool(true)` vs `Int64(1)`) cannot collide by payload alone.
/// Numeric types deliberately share one tag (cross-type numeric equality).
const TAG_BOOL: u64 = 0x9ae1_6a3b_2f90_404f;
const TAG_NUM: u64 = 0x3243_f6a8_885a_308d;
const TAG_STR: u64 = 0x1319_8a2e_0370_7344;

/// Multiplier for combining successive key columns (odd, random-looking).
const COMBINE_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// Finalizing mixer (splitmix64 / murmur3-style avalanche).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Canonical bit pattern used for hashing and equality of numeric cells:
/// `-0.0` and `0.0` unify, every NaN maps to one pattern. This mirrors
/// `Value::num_bits`, including the (documented) consequence that integers
/// beyond 2^53 compare through their `f64` image.
#[inline]
pub fn canonical_f64_bits(f: f64) -> u64 {
    if f.is_nan() {
        f64::NAN.to_bits()
    } else if f == 0.0 {
        0u64 // covers -0.0
    } else {
        f.to_bits()
    }
}

#[inline]
fn hash_str(s: &str) -> u64 {
    // FNV-1a over the bytes; cheap and stable.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[inline]
fn cell_num(f: f64) -> u64 {
    mix64(canonical_f64_bits(f) ^ TAG_NUM)
}

#[inline]
fn cell_bool(b: bool) -> u64 {
    mix64(b as u64 ^ TAG_BOOL)
}

#[inline]
fn cell_str(s: &str) -> u64 {
    mix64(hash_str(s) ^ TAG_STR)
}

#[inline]
fn cell_null() -> u64 {
    mix64(NULL_PAYLOAD)
}

/// Row hashes for one frame's key columns, plus the per-row null indicator.
#[derive(Debug, Clone, Default)]
pub struct KeyHashes {
    /// One combined hash per row.
    pub hashes: Vec<u64>,
    /// `Some(mask)` iff at least one key cell in the frame is null;
    /// `mask[i]` is true when row `i` has a null in *any* key column.
    pub any_null: Option<Vec<bool>>,
}

impl KeyHashes {
    /// Whether row `i` has a null key component.
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        self.any_null.as_ref().is_some_and(|m| m[i])
    }

    /// Approximate heap bytes held by the hashes plus the null-indicator
    /// side table (peak-memory accounting; the mask was previously
    /// uncounted, under-reporting operators that buffer hashes).
    pub fn byte_size(&self) -> usize {
        self.hashes.len() * 8 + self.any_null.as_ref().map_or(0, |m| m.len())
    }

    /// Gather the hashes (and null indicators) at a selection vector —
    /// valid because hashes are row-local: the result equals recomputing
    /// [`hash_keys`] on the selected sub-frame.
    pub fn take(&self, sel: &[u32]) -> KeyHashes {
        let hashes = sel.iter().map(|&i| self.hashes[i as usize]).collect();
        let any_null = self.any_null.as_ref().and_then(|m| {
            let sub: Vec<bool> = sel.iter().map(|&i| m[i as usize]).collect();
            sub.iter().any(|&b| b).then_some(sub)
        });
        KeyHashes { hashes, any_null }
    }
}

/// Fold one column's cell hashes into `acc` (one slot per row).
///
/// `first` selects initialisation (`acc[i] = cell`) versus combination
/// (`acc[i] = mix(acc[i] * M + cell)`), so a multi-column key needs no
/// scratch allocation beyond the output vector itself.
fn fold_column(col: &Column, acc: &mut [u64], nulls: &mut Option<Vec<bool>>, first: bool) {
    #[inline]
    fn write(acc: &mut u64, cell: u64, first: bool) {
        *acc = if first {
            cell
        } else {
            mix64(acc.wrapping_mul(COMBINE_MUL).wrapping_add(cell))
        };
    }

    macro_rules! kernel {
        ($values:expr, $cell:expr) => {{
            match col.validity() {
                None => {
                    for (a, v) in acc.iter_mut().zip($values) {
                        write(a, $cell(v), first);
                    }
                }
                Some(mask) => {
                    let nulls = nulls.get_or_insert_with(|| vec![false; acc.len()]);
                    for (i, (a, v)) in acc.iter_mut().zip($values).enumerate() {
                        if mask[i] {
                            write(a, $cell(v), first);
                        } else {
                            nulls[i] = true;
                            write(a, cell_null(), first);
                        }
                    }
                }
            }
        }};
    }

    match col.data() {
        ColumnData::Int64(v) | ColumnData::Date(v) => {
            kernel!(v.iter(), |x: &i64| cell_num(*x as f64))
        }
        ColumnData::Float64(v) => kernel!(v.iter(), |x: &f64| cell_num(*x)),
        ColumnData::Bool(v) => kernel!(v.iter(), |x: &bool| cell_bool(*x)),
        ColumnData::Utf8(v) => kernel!(v.iter(), |x: &Arc<str>| cell_str(x)),
    }
}

/// Hash the key columns of `frame` into one `u64` per row.
///
/// Zero key columns yield a constant hash per row (the global-aggregate
/// "single group" case). The result is independent of which frame the rows
/// live in, so build- and probe-side hashes are directly comparable.
pub fn hash_keys(frame: &DataFrame, key_indices: &[usize]) -> KeyHashes {
    let n = frame.num_rows();
    let mut hashes = vec![mix64(0); n];
    let mut any_null: Option<Vec<bool>> = None;
    for (kc, &c) in key_indices.iter().enumerate() {
        fold_column(frame.column_at(c), &mut hashes, &mut any_null, kc == 0);
    }
    KeyHashes { hashes, any_null }
}

/// Typed equality of two key tuples living in (possibly different) frames:
/// `cells_equal` per key column. Join callers that need "null keys never
/// match" must filter null rows via [`KeyHashes::any_null`] *before*
/// probing; group-by callers rely on `null == null` to keep one group per
/// null key.
pub fn keys_equal(
    left: &DataFrame,
    lrow: usize,
    left_keys: &[usize],
    right: &DataFrame,
    rrow: usize,
    right_keys: &[usize],
) -> bool {
    debug_assert_eq!(left_keys.len(), right_keys.len());
    left_keys
        .iter()
        .zip(right_keys)
        .all(|(&lc, &rc)| cells_equal(left.column_at(lc), lrow, right.column_at(rc), rrow))
}

/// `Value::eq` over two typed cells: `null == null`, numerics through
/// their canonical `f64` bits (cross-type included), other type mismatches
/// unequal. The same-class arms come first — they are the hot ones.
#[inline]
fn cells_equal(a: &Column, ia: usize, b: &Column, ib: usize) -> bool {
    match (a.is_valid(ia), b.is_valid(ib)) {
        (false, false) => return true,
        (true, true) => {}
        _ => return false,
    }
    match (a.data(), b.data()) {
        // An `i64` never converts to -0.0 or NaN, so plain `f64` equality
        // is canonical-bits equality here.
        (
            ColumnData::Int64(x) | ColumnData::Date(x),
            ColumnData::Int64(y) | ColumnData::Date(y),
        ) => x[ia] as f64 == y[ib] as f64,
        (ColumnData::Float64(x), ColumnData::Float64(y)) => {
            canonical_f64_bits(x[ia]) == canonical_f64_bits(y[ib])
        }
        (ColumnData::Bool(x), ColumnData::Bool(y)) => x[ia] == y[ib],
        (ColumnData::Utf8(x), ColumnData::Utf8(y)) => x[ia] == y[ib],
        (x, y) => match (numeric_at(x, ia), numeric_at(y, ib)) {
            (Some(fx), Some(fy)) => canonical_f64_bits(fx) == canonical_f64_bits(fy),
            _ => false,
        },
    }
}

#[inline]
fn numeric_at(data: &ColumnData, i: usize) -> Option<f64> {
    match data {
        ColumnData::Int64(v) | ColumnData::Date(v) => Some(v[i] as f64),
        ColumnData::Float64(v) => Some(v[i]),
        _ => None,
    }
}

/// `Value`-order comparison of two key tuples living in (possibly
/// different) frames: `cells_cmp` per key column, lexicographic. This is
/// the comparator behind the typed k-way merge of key-sorted aggregate
/// partials — it orders exactly like `Vec<Value>` comparison, so a merge
/// of sorted runs is bit-identical to concat + stable `Value` sort.
pub fn cmp_rows(
    left: &DataFrame,
    lrow: usize,
    left_keys: &[usize],
    right: &DataFrame,
    rrow: usize,
    right_keys: &[usize],
) -> Ordering {
    debug_assert_eq!(left_keys.len(), right_keys.len());
    for (&lc, &rc) in left_keys.iter().zip(right_keys) {
        let ord = cells_cmp(left.column_at(lc), lrow, right.column_at(rc), rrow);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// [`cmp_rows`] over the same key columns of two like-schema frames, with
/// key `i` reversed where `descending[i]` (so its nulls sort last): the
/// order-by comparator of `DataFrame::sort_by` and `SortOp`'s run merge.
pub fn cmp_rows_by(
    left: &DataFrame,
    lrow: usize,
    right: &DataFrame,
    rrow: usize,
    keys: &[usize],
    descending: &[bool],
) -> Ordering {
    debug_assert_eq!(keys.len(), descending.len());
    for (&c, &desc) in keys.iter().zip(descending) {
        let ord = cells_cmp(left.column_at(c), lrow, right.column_at(c), rrow);
        if ord != Ordering::Equal {
            return if desc { ord.reverse() } else { ord };
        }
    }
    Ordering::Equal
}

/// `Value::cmp` over two typed cells: nulls first, numerics through their
/// `f64` image by [`cmp_f64`], bools `false < true`, strings by bytes, and
/// mixed classes by `Value`'s type rank (bool < numeric < string).
#[inline]
pub fn cells_cmp(a: &Column, ia: usize, b: &Column, ib: usize) -> Ordering {
    match (a.is_valid(ia), b.is_valid(ib)) {
        (false, false) => return Ordering::Equal,
        (false, true) => return Ordering::Less,
        (true, false) => return Ordering::Greater,
        (true, true) => {}
    }
    match (a.data(), b.data()) {
        (
            ColumnData::Int64(x) | ColumnData::Date(x),
            ColumnData::Int64(y) | ColumnData::Date(y),
        ) => cmp_f64(x[ia] as f64, y[ib] as f64),
        (ColumnData::Float64(x), ColumnData::Float64(y)) => cmp_f64(x[ia], y[ib]),
        (ColumnData::Bool(x), ColumnData::Bool(y)) => x[ia].cmp(&y[ib]),
        (ColumnData::Utf8(x), ColumnData::Utf8(y)) => x[ia].cmp(&y[ib]),
        (x, y) => match (numeric_at(x, ia), numeric_at(y, ib)) {
            (Some(fx), Some(fy)) => cmp_f64(fx, fy),
            _ => type_rank(x).cmp(&type_rank(y)),
        },
    }
}

/// `Value`'s rank of a non-null cell's type: bool < numeric < string.
fn type_rank(data: &ColumnData) -> u8 {
    match data {
        ColumnData::Bool(_) => 1,
        ColumnData::Int64(_) | ColumnData::Float64(_) | ColumnData::Date(_) => 2,
        ColumnData::Utf8(_) => 3,
    }
}

/// The one total order on `f64` (`Value::cmp`'s numeric order): numeric
/// order with `-0.0 == 0.0`, every NaN last whatever its sign bit, and
/// NaNs equal to each other.
#[inline]
pub fn cmp_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

// ---------------------------------------------------------------------------
// KeyStore: typed, growable storage of distinct key tuples.
// ---------------------------------------------------------------------------

/// Columnar storage of the distinct key tuples seen by a hash aggregate:
/// one [`Column`] per key, group `g`'s key at row `g`. A stored tuple is
/// matched against a frame row by `cells_equal` and ordered against
/// another by `cells_cmp` — the same rules as every other key
/// comparison, with no `Value` materialised.
#[derive(Debug, Clone, Default)]
pub struct KeyStore {
    cols: Vec<Column>,
    len: u32,
}

impl KeyStore {
    /// Empty store for keys of the given types (frame-column order).
    pub fn for_types(dtypes: &[DataType]) -> KeyStore {
        KeyStore {
            cols: dtypes.iter().map(|&t| Column::empty(t)).collect(),
            len: 0,
        }
    }

    /// Number of stored tuples.
    pub fn len(&self) -> u32 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn clear(&mut self) {
        for c in &mut self.cols {
            *c = Column::empty(c.data_type());
        }
        self.len = 0;
    }

    /// Append the key tuple at `row` of `frame`; returns the new slot id.
    /// A key cell whose storage class differs from the store's (Int64 and
    /// Date interchange) is a [`DataError::TypeMismatch`](crate::DataError).
    pub fn push_row(
        &mut self,
        frame: &DataFrame,
        key_indices: &[usize],
        row: usize,
    ) -> Result<u32> {
        debug_assert_eq!(key_indices.len(), self.cols.len());
        for (store, &c) in self.cols.iter_mut().zip(key_indices) {
            store.push_from(frame.column_at(c), row)?;
        }
        self.len += 1;
        Ok(self.len - 1)
    }

    /// Does stored tuple `slot` equal the key tuple at `row` of `frame`?
    pub fn eq_row(&self, slot: u32, frame: &DataFrame, key_indices: &[usize], row: usize) -> bool {
        self.cols
            .iter()
            .zip(key_indices)
            .all(|(store, &c)| cells_equal(store, slot as usize, frame.column_at(c), row))
    }

    /// `Value`-order comparison of two stored tuples (lexicographic).
    pub fn cmp_slots(&self, a: u32, b: u32) -> Ordering {
        for store in &self.cols {
            let ord = cells_cmp(store, a as usize, store, b as usize);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Export the stored tuples, reordered by `order`, as output columns.
    pub fn to_columns(&self, order: &[u32]) -> Vec<Column> {
        self.cols.iter().map(|c| c.take_u32(order)).collect()
    }

    /// Approximate heap bytes (peak-memory metric).
    pub fn byte_size(&self) -> usize {
        self.cols.iter().map(Column::byte_size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::value::Value;

    fn frame(cols: Vec<(&str, Column)>) -> DataFrame {
        let fields = cols
            .iter()
            .map(|(n, c)| Field::new(*n, c.data_type()))
            .collect();
        DataFrame::new(
            Arc::new(Schema::new(fields)),
            cols.into_iter().map(|(_, c)| c).collect(),
        )
        .unwrap()
    }

    #[test]
    fn hashes_are_frame_independent_and_row_local() {
        let a = frame(vec![("k", Column::from_i64(vec![1, 2, 3]))]);
        let b = frame(vec![("x", Column::from_i64(vec![3, 1]))]);
        let ha = hash_keys(&a, &[0]);
        let hb = hash_keys(&b, &[0]);
        assert_eq!(ha.hashes[0], hb.hashes[1]);
        assert_eq!(ha.hashes[2], hb.hashes[0]);
        assert_ne!(ha.hashes[0], ha.hashes[1]);
        assert!(ha.any_null.is_none());
    }

    #[test]
    fn cross_type_numeric_hash_and_equality() {
        let ints = frame(vec![("k", Column::from_i64(vec![3, 0]))]);
        let floats = frame(vec![("k", Column::from_f64(vec![3.0, -0.0]))]);
        let dates = frame(vec![("k", Column::from_dates(vec![3, 0]))]);
        let hi = hash_keys(&ints, &[0]);
        let hf = hash_keys(&floats, &[0]);
        let hd = hash_keys(&dates, &[0]);
        assert_eq!(hi.hashes, hf.hashes, "Int64 and Float64 must hash alike");
        assert_eq!(hi.hashes, hd.hashes, "Int64 and Date must hash alike");
        assert!(keys_equal(&ints, 0, &[0], &floats, 0, &[0]));
        assert!(keys_equal(&ints, 1, &[0], &floats, 1, &[0]), "-0.0 == 0");
        assert!(!keys_equal(&ints, 0, &[0], &floats, 1, &[0]));
    }

    #[test]
    fn nan_normalised_in_hash_and_equality() {
        let a = frame(vec![("k", Column::from_f64(vec![f64::NAN]))]);
        let b = frame(vec![("k", Column::from_f64(vec![-f64::NAN]))]);
        assert_eq!(hash_keys(&a, &[0]).hashes, hash_keys(&b, &[0]).hashes);
        assert!(keys_equal(&a, 0, &[0], &b, 0, &[0]));
    }

    #[test]
    fn null_cells_set_mask_and_compare_null_eq_null() {
        let col = Column::from_values(DataType::Int64, &[Value::Int(1), Value::Null]).unwrap();
        let f = frame(vec![("k", col)]);
        let kh = hash_keys(&f, &[0]);
        assert!(!kh.is_null(0));
        assert!(kh.is_null(1));
        // null == null (group-by semantics); null != value.
        assert!(keys_equal(&f, 1, &[0], &f, 1, &[0]));
        assert!(!keys_equal(&f, 0, &[0], &f, 1, &[0]));
    }

    #[test]
    fn multi_column_keys_combine_order_sensitively() {
        let f = frame(vec![
            ("a", Column::from_i64(vec![1, 2])),
            ("b", Column::from_i64(vec![2, 1])),
        ]);
        let ab = hash_keys(&f, &[0, 1]);
        let ba = hash_keys(&f, &[1, 0]);
        // (1,2) as (a,b) equals (2,1) as (b,a):
        assert_eq!(ab.hashes[0], ba.hashes[1]);
        // ...but (1,2) != (2,1) under the same column order.
        assert_ne!(ab.hashes[0], ab.hashes[1]);
    }

    #[test]
    fn incompatible_types_never_equal() {
        let b = frame(vec![("k", Column::from_bool(vec![true]))]);
        let i = frame(vec![("k", Column::from_i64(vec![1]))]);
        let s = frame(vec![("k", Column::from_str_iter(["1"]))]);
        assert!(!keys_equal(&b, 0, &[0], &i, 0, &[0]));
        assert!(!keys_equal(&s, 0, &[0], &i, 0, &[0]));
    }

    #[test]
    fn zero_key_columns_hash_constant() {
        let f = frame(vec![("k", Column::from_i64(vec![5, 6]))]);
        let kh = hash_keys(&f, &[]);
        assert_eq!(kh.hashes[0], kh.hashes[1]);
        assert!(kh.any_null.is_none());
    }

    #[test]
    fn key_store_accepts_date_int_interchange() {
        // Join-compatible numeric columns may feed the same store.
        let d = frame(vec![("k", Column::from_dates(vec![7]))]);
        let mut store = KeyStore::for_types(&[DataType::Int64]);
        let slot = store.push_row(&d, &[0], 0).unwrap();
        let i = frame(vec![("k", Column::from_i64(vec![7]))]);
        assert!(store.eq_row(slot, &i, &[0], 0));
        // Any other storage class is a typed error, not a panic.
        let s = frame(vec![("k", Column::from_str_iter(["7"]))]);
        assert!(matches!(
            store.push_row(&s, &[0], 0),
            Err(crate::DataError::TypeMismatch { .. })
        ));
    }

    /// One column per storage class: null plus that class's edge cells.
    fn matrix() -> Vec<(DataType, Vec<Value>)> {
        let p53 = 1i64 << 53;
        vec![
            (
                DataType::Int64,
                [0, -1, p53, p53 + 1, i64::MAX].map(Value::Int).to_vec(),
            ),
            (
                DataType::Float64,
                [-0.0, 0.0, 0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
                    .map(Value::Float)
                    .to_vec(),
            ),
            (DataType::Date, [0, -1, 19_000].map(Value::Date).to_vec()),
            (DataType::Bool, [false, true].map(Value::Bool).to_vec()),
            (DataType::Utf8, ["", "a", "é"].map(Value::str).to_vec()),
        ]
        .into_iter()
        .map(|(t, mut cells)| {
            cells.insert(0, Value::Null);
            (t, cells)
        })
        .collect()
    }

    #[test]
    fn typed_comparators_match_value() {
        let cols = matrix();
        let single = |(t, cells): &(DataType, Vec<Value>)| {
            frame(vec![("k", Column::from_values(*t, cells).unwrap())])
        };
        // Across every pair of columns: keys_equal ≡ Value::eq, cmp_rows ≡
        // Value::cmp, and cmp_rows_by ascending/descending ≡ it/its reverse.
        for a in &cols {
            for b in &cols {
                let (fa, fb) = (single(a), single(b));
                for (i, va) in a.1.iter().enumerate() {
                    for (j, vb) in b.1.iter().enumerate() {
                        let at = format!("{va:?} vs {vb:?}");
                        assert_eq!(keys_equal(&fa, i, &[0], &fb, j, &[0]), va == vb, "{at}");
                        let ord = va.cmp(vb);
                        assert_eq!(cmp_rows(&fa, i, &[0], &fb, j, &[0]), ord, "{at}");
                        assert_eq!(cmp_rows_by(&fa, i, &fb, j, &[0], &[false]), ord, "{at}");
                        let desc = cmp_rows_by(&fa, i, &fb, j, &[0], &[true]);
                        assert_eq!(desc, ord.reverse(), "{at}");
                    }
                }
            }
        }

        // A wide frame: every class side by side (each column holds all
        // its cells, in staggered order so ties fall differently per
        // column), plus a row id.
        let n = 14;
        let mut named: Vec<(String, Column)> = cols
            .iter()
            .enumerate()
            .map(|(k, (t, cells))| {
                let vals: Vec<Value> = (0..n)
                    .map(|i| cells[(i * 5 + k) % cells.len()].clone())
                    .collect();
                (format!("c{k}"), Column::from_values(*t, &vals).unwrap())
            })
            .collect();
        named.push(("id".into(), Column::from_i64((0..n as i64).collect())));
        let f = frame(named.iter().map(|(s, c)| (s.as_str(), c.clone())).collect());
        let keys: Vec<usize> = (0..cols.len()).collect();
        let row =
            |r: usize| -> Vec<Value> { keys.iter().map(|&c| f.column_at(c).value(r)).collect() };

        // Within the columns: KeyStore::eq_row ≡ Value::eq, cmp_slots ≡
        // Value::cmp, and to_columns exports in the requested order.
        let types: Vec<DataType> = cols.iter().map(|(t, _)| *t).collect();
        let mut store = KeyStore::for_types(&types);
        for r in 0..n {
            assert_eq!(store.push_row(&f, &keys, r).unwrap() as usize, r);
        }
        for a in 0..n {
            for b in 0..n {
                assert_eq!(
                    store.eq_row(a as u32, &f, &keys, b),
                    row(a) == row(b),
                    "{a} {b}"
                );
                assert_eq!(
                    store.cmp_slots(a as u32, b as u32),
                    row(a).cmp(&row(b)),
                    "{a} {b}"
                );
            }
        }
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| store.cmp_slots(a, b));
        let exported = store.to_columns(&order);
        for (pos, &slot) in order.iter().enumerate() {
            let got: Vec<Value> = exported.iter().map(|c| c.value(pos)).collect();
            assert_eq!(got, row(slot as usize));
        }
        let frame_bytes: usize = keys.iter().map(|&c| f.column_at(c).byte_size()).sum();
        assert_eq!(store.byte_size(), frame_bytes);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.push_row(&f, &keys, 3).unwrap(), 0);

        // DataFrame::sort_by ≡ a stable Value sort with per-key direction.
        for by in [vec![3, 4], vec![1, 0], vec![2, 1, 4], vec![4, 3, 2, 1, 0]] {
            let names: Vec<&str> = by.iter().map(|&c| named[c].0.as_str()).collect();
            for mask in 0..1u32 << by.len() {
                let desc: Vec<bool> = (0..by.len()).map(|k| mask >> k & 1 == 1).collect();
                let mut expect: Vec<usize> = (0..n).collect();
                expect.sort_by(|&a, &b| {
                    by.iter()
                        .zip(&desc)
                        .map(|(&c, &d)| {
                            let ord = f.column_at(c).value(a).cmp(&f.column_at(c).value(b));
                            if d {
                                ord.reverse()
                            } else {
                                ord
                            }
                        })
                        .find(|o| o.is_ne())
                        .unwrap_or(Ordering::Equal)
                });
                let sorted = f.sort_by(&names, &desc).unwrap();
                let ids: Vec<usize> = (0..n)
                    .map(|r| sorted.value(r, "id").unwrap().as_i64().unwrap() as usize)
                    .collect();
                assert_eq!(ids, expect, "by {names:?} desc {desc:?}");
            }
        }
    }

    #[test]
    fn hash_matches_rowmap_grouping_on_random_data() {
        // The vectorized path must induce exactly the same partition of rows
        // into groups as Row-keyed hashing (collisions resolved by eq).
        use std::collections::HashMap;
        let n = 500;
        let ks: Vec<i64> = (0..n).map(|i| (i * 7 + 3) % 23).collect();
        let vs: Vec<f64> = (0..n).map(|i| ((i * 13) % 5) as f64).collect();
        let f = frame(vec![
            ("a", Column::from_i64(ks)),
            ("b", Column::from_f64(vs)),
        ]);
        let keys = [0usize, 1];
        let mut by_row: HashMap<crate::row::Row, Vec<usize>> = HashMap::new();
        for i in 0..n as usize {
            by_row.entry(f.key_at(i, &keys)).or_default().push(i);
        }
        let kh = hash_keys(&f, &keys);
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        for i in 0..n as usize {
            let bucket = by_hash.entry(kh.hashes[i]).or_default();
            bucket.push(i);
        }
        // Every Row-group must be wholly contained in one hash bucket, and
        // rows in one bucket with equal typed keys must share a Row-group.
        for rows in by_row.values() {
            let h = kh.hashes[rows[0]];
            assert!(rows.iter().all(|&r| kh.hashes[r] == h));
        }
        for rows in by_hash.values() {
            for w in rows.windows(2) {
                let same_typed = keys_equal(&f, w[0], &keys, &f, w[1], &keys);
                let same_row = f.key_at(w[0], &keys) == f.key_at(w[1], &keys);
                assert_eq!(same_typed, same_row);
            }
        }
    }
}
