//! Scalar cell values and their types.
//!
//! [`Value`] is the dynamically-typed unit exchanged between expression
//! evaluation, group keys, and join keys. Group-by and join hash maps key on
//! `Value`, so it implements a *total* order and hash even for floats
//! (via IEEE-754 bit patterns, NaN-normalised).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The physical type of a column or scalar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int64,
    Float64,
    Bool,
    Utf8,
    /// Calendar date stored as days since 1970-01-01.
    Date,
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int64 => "Int64",
            DataType::Float64 => "Float64",
            DataType::Bool => "Bool",
            DataType::Utf8 => "Utf8",
            DataType::Date => "Date",
        };
        f.write_str(s)
    }
}

impl DataType {
    /// Whether the type supports arithmetic (`+ - * /`).
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }
}

/// A single dynamically-typed cell.
///
/// `Null` is a member of every type; a frame's schema carries the static
/// type while `Null` marks missing cells (e.g. the unmatched side of a left
/// join).
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(Arc<str>),
    /// Days since the Unix epoch.
    Date(i64),
}

impl Value {
    /// Construct a string value (interns into an `Arc<str>`).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The dynamic type of this value, `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int64),
            Value::Float(_) => Some(DataType::Float64),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Str(_) => Some(DataType::Utf8),
            Value::Date(_) => Some(DataType::Date),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64 (ints and dates widen; `None` otherwise).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Date(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Date(v) => Some(*v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Rank used to totally order values of mixed types: nulls first, then by
    /// type, then by payload. Within Int/Float/Date comparisons are numeric.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Date(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Canonical f64 bits for hashing/equality of numeric values. Shares
    /// the canonicalization with the vectorized key kernels so the hashed
    /// and `Row`-keyed paths can never disagree.
    fn num_bits(&self) -> Option<u64> {
        Some(crate::hash::canonical_f64_bits(self.as_f64()?))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => match (self.num_bits(), other.num_bits()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Str(s) => s.hash(state),
            _ => self.num_bits().unwrap().hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => crate::hash::cmp_f64(
                self.as_f64().unwrap_or(f64::NAN),
                other.as_f64().unwrap_or(f64::NAN),
            ),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str(""),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
            Value::Date(v) => f.write_str(&format_date(*v)),
        }
    }
}

/// Convert a calendar date into days since 1970-01-01 (proleptic Gregorian).
///
/// Months are 1-based. Panics on out-of-range months to surface programming
/// errors in query constants early.
pub fn date_to_days(year: i64, month: u32, day: u32) -> i64 {
    assert!((1..=12).contains(&month), "month out of range: {month}");
    // Howard Hinnant's `days_from_civil` algorithm.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let mp = ((month + 9) % 12) as i64; // [0, 11], Mar = 0
    let doy = (153 * mp + 2) / 5 + day as i64 - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Inverse of [`date_to_days`]: `(year, month, day)`.
pub fn days_to_date(days: i64) -> (i64, u32, u32) {
    let z = days + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Format days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(days: i64) -> String {
    let (y, m, d) = days_to_date(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Parse `YYYY-MM-DD` into days since epoch.
pub fn parse_date(s: &str) -> Option<i64> {
    let mut parts = s.splitn(3, '-');
    let y: i64 = parts.next()?.parse().ok()?;
    let m: u32 = parts.next()?.parse().ok()?;
    let d: u32 = parts.next()?.parse().ok()?;
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return None;
    }
    Some(date_to_days(y, m, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn numeric_cross_type_equality() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn negative_zero_and_nan_normalised() {
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn ordering_nulls_first_nan_last() {
        let mut vals = [
            Value::Float(f64::NAN),
            Value::Int(2),
            Value::Null,
            Value::Float(1.5),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Float(1.5));
        assert_eq!(vals[2], Value::Int(2));
        assert!(matches!(vals[3], Value::Float(v) if v.is_nan()));
    }

    #[test]
    fn string_ordering_and_display() {
        assert!(Value::str("apple") < Value::str("banana"));
        assert_eq!(Value::str("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "");
    }

    #[test]
    fn date_roundtrip_known_values() {
        assert_eq!(date_to_days(1970, 1, 1), 0);
        assert_eq!(date_to_days(1970, 1, 2), 1);
        assert_eq!(date_to_days(1969, 12, 31), -1);
        // TPC-H boundary dates.
        for (y, m, d) in [
            (1992, 1, 1),
            (1994, 1, 1),
            (1995, 3, 15),
            (1998, 12, 31),
            (2000, 2, 29),
        ] {
            let days = date_to_days(y, m, d);
            assert_eq!(days_to_date(days), (y, m, d));
        }
        assert_eq!(format_date(date_to_days(1995, 3, 15)), "1995-03-15");
        assert_eq!(parse_date("1995-03-15"), Some(date_to_days(1995, 3, 15)));
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("1995-13-01"), None);
    }

    #[test]
    fn leap_year_arithmetic() {
        // 1996 is a leap year; 1900 is not a leap year; 2000 is.
        assert_eq!(date_to_days(1996, 3, 1) - date_to_days(1996, 2, 28), 2);
        assert_eq!(date_to_days(1900, 3, 1) - date_to_days(1900, 2, 28), 1);
        assert_eq!(date_to_days(2000, 3, 1) - date_to_days(2000, 2, 28), 2);
    }

    #[test]
    fn date_compares_numerically_with_ints() {
        assert_eq!(Value::Date(5), Value::Int(5));
        assert!(Value::Date(5) < Value::Int(6));
    }
}
