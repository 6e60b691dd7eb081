//! Vectorized expression evaluation over a [`DataFrame`].
//!
//! Every node computes from its operands' typed [`ColumnData`] buffers
//! and validity masks; no per-cell [`Value`] is built.
//!
//! **Null rule.** A result row is valid where every operand row is valid.
//! Under a null the payload is a placeholder that no kernel may fail on.
//! Three-valued AND/OR, IS NULL and CASE are the only nodes that set
//! validity themselves.
//!
//! **`Value` order.** Answers agree with [`Value`]'s order and equality.
//! Int64, Float64 and Date compare through `f64`, where NaN sorts after
//! everything and equals itself; Utf8 compares by `str` and Bool as
//! `bool`. IN matches as `Value::eq` does. Comparing across those classes
//! is a `TypeMismatch`, which [`infer_type`] reports when a plan is built.
//! Int64/Date `+ - *`, negation and `abs` are exact `i64`: overflow on a
//! valid row is an error. Other arithmetic runs in `f64`, widening ints
//! and dates as `Value::as_f64` does.

use crate::like::like_match;
use crate::{BinOp, Expr, Func};
use std::borrow::Cow;
use std::sync::Arc;
use wake_data::column::ColumnData;
use wake_data::hash::canonical_f64_bits;
use wake_data::value::{days_to_date, format_date};
use wake_data::{Column, DataError, DataFrame, DataType, Schema, Value};

type Result<T> = std::result::Result<T, DataError>;

/// Static result type of `expr` against `schema`: the type [`eval`]
/// returns, rejected where `eval` would reject it.
pub fn infer_type(expr: &Expr, schema: &Schema) -> Result<DataType> {
    let ty = |e: &Expr| infer_type(e, schema);
    match expr {
        Expr::Col(name) => Ok(schema.field(name)?.dtype),
        Expr::Lit(v) => v.data_type().ok_or_else(untyped_null),
        Expr::Binary { op, left, right } => binary_type(*op, ty(left)?, ty(right)?),
        Expr::Not(e) => expect(ty(e)?, DataType::Bool, "NOT"),
        Expr::Neg(e) => numeric(ty(e)?, "negation"),
        Expr::IsNull(e) | Expr::InList { expr: e, .. } => ty(e).map(|_| DataType::Bool),
        Expr::Like { expr, .. } => {
            expect(ty(expr)?, DataType::Utf8, "LIKE").map(|_| DataType::Bool)
        }
        Expr::Between { expr, low, high } => {
            let t = ty(expr)?;
            binary_type(BinOp::Ge, t, ty(low)?)?;
            binary_type(BinOp::Le, t, ty(high)?)
        }
        Expr::Case {
            branches,
            otherwise,
        } => branches.iter().try_fold(ty(otherwise)?, |out, (c, v)| {
            expect(ty(c)?, DataType::Bool, "a CASE condition")?;
            case_type(out, ty(v)?)
        }),
        Expr::Func { func, args } => func_type(*func, ty(func_arg(*func, args)?.0)?),
        Expr::Cast { expr, to } => ty(expr).map(|_| *to),
    }
}

fn binary_type(op: BinOp, l: DataType, r: DataType) -> Result<DataType> {
    use DataType::*;
    match op {
        BinOp::And | BinOp::Or if (l, r) == (Bool, Bool) => Ok(Bool),
        _ if op.is_comparison() && class(l) == class(r) => Ok(Bool),
        BinOp::Add | BinOp::Sub if matches!((l, r), (Date, Int64) | (Int64, Date)) => Ok(Date),
        BinOp::Sub if (l, r) == (Date, Date) => Ok(Int64),
        BinOp::Add | BinOp::Sub | BinOp::Mul if (l, r) == (Int64, Int64) => Ok(Int64),
        _ if op.is_arithmetic() && l.is_numeric() && r.is_numeric() => Ok(Float64),
        _ => Err(mismatch(
            "operands the operator accepts",
            format!("{l} {op} {r}"),
        )),
    }
}

/// The [`Value`] order a type compares in: numbers and dates share one.
fn class(t: DataType) -> u8 {
    match t {
        DataType::Bool => 1,
        DataType::Utf8 => 2,
        DataType::Int64 | DataType::Float64 | DataType::Date => 0,
    }
}

/// CASE's output type: the arms' common type, Int64 widening to Float64.
fn case_type(a: DataType, b: DataType) -> Result<DataType> {
    if a == b {
        Ok(a)
    } else if a.is_numeric() && b.is_numeric() {
        Ok(DataType::Float64)
    } else {
        Err(mismatch("CASE arms of one type", format!("{a} and {b}")))
    }
}

fn func_type(func: Func, t: DataType) -> Result<DataType> {
    match func {
        Func::Year => expect(t, DataType::Date, "year()").map(|_| DataType::Int64),
        Func::Substr => expect(t, DataType::Utf8, "substr()"),
        Func::Abs => numeric(t, "abs()"),
    }
}

/// `func`'s operand, plus substr's 0-based start and length. `Expr::Func`
/// is public, so a malformed call is an error here, not an index panic.
fn func_arg(func: Func, args: &[Expr]) -> Result<(&Expr, usize, usize)> {
    match (func, args) {
        (Func::Year | Func::Abs, [x]) => Ok((x, 0, 0)),
        (Func::Substr, [x, Expr::Lit(Value::Int(start)), Expr::Lit(Value::Int(len))])
            if *start >= 1 && *len >= 0 =>
        {
            Ok((x, (*start - 1) as usize, *len as usize))
        }
        _ => Err(DataError::Invalid(format!(
            "malformed {func:?} call: {args:?}"
        ))),
    }
}

fn expect(t: DataType, want: DataType, what: &str) -> Result<DataType> {
    if t == want {
        Ok(t)
    } else {
        Err(mismatch(format!("{want} for {what}"), t))
    }
}

fn numeric(t: DataType, what: &str) -> Result<DataType> {
    if t.is_numeric() {
        Ok(t)
    } else {
        Err(not_numeric(t, what))
    }
}

fn not_numeric(t: DataType, what: &str) -> DataError {
    mismatch(format!("Int64 or Float64 for {what}"), t)
}

fn mismatch(expected: impl Into<String>, found: impl ToString) -> DataError {
    DataError::TypeMismatch {
        expected: expected.into(),
        found: found.to_string(),
    }
}

fn untyped_null() -> DataError {
    DataError::Invalid("untyped NULL literal".into())
}

/// Evaluate `expr` over `df` without copying when the expression is a bare
/// column reference — the common case for aggregate inputs and key
/// extraction, where [`eval`]'s `Column` clone would deep-copy the payload
/// on every partition. Operands inside an expression are read this way too.
pub fn eval_cow<'a>(expr: &Expr, df: &'a DataFrame) -> Result<Cow<'a, Column>> {
    match expr {
        Expr::Col(name) => Ok(Cow::Borrowed(df.column(name)?)),
        other => eval_node(other, df).map(Cow::Owned),
    }
}

/// Evaluate `expr` over every row of `df`, producing one column.
pub fn eval(expr: &Expr, df: &DataFrame) -> Result<Column> {
    eval_cow(expr, df).map(Cow::into_owned)
}

/// Evaluate a predicate into a keep-mask: [`eval`], then NULL → `false`.
pub fn eval_mask(expr: &Expr, df: &DataFrame) -> Result<Vec<bool>> {
    let c = eval_cow(expr, df)?;
    let keep = bools(&c, "a predicate")?;
    Ok(match c.validity() {
        None => keep.to_vec(),
        Some(valid) => keep.iter().zip(valid).map(|(k, v)| k & v).collect(),
    })
}

/// Evaluate a predicate into a `u32` selection vector of the kept rows —
/// the representation [`wake_data::DataFrame::select`] and the partition
/// scatter consume.
pub fn eval_selection(expr: &Expr, df: &DataFrame) -> Result<Vec<u32>> {
    let mask = eval_mask(expr, df)?;
    Ok(wake_data::column::mask_to_selection(&mask))
}

fn eval_node(expr: &Expr, df: &DataFrame) -> Result<Column> {
    let n = df.num_rows();
    let arg = |e: &Expr| eval_cow(e, df);
    match expr {
        Expr::Col(name) => Ok(df.column(name)?.clone()),
        Expr::Lit(v) => literal(v, n),
        Expr::Binary { op, left, right } => binary(*op, &*arg(left)?, &*arg(right)?),
        Expr::Not(e) => {
            let c = arg(e)?;
            let data = bools(&c, "NOT")?.iter().map(|b| !b).collect();
            keep_valid(&c, ColumnData::Bool(data))
        }
        Expr::Neg(e) => signed(&*arg(e)?, "negation", i64::checked_neg, |x| -x),
        Expr::IsNull(e) => Ok(Column::from_bool(match arg(e)?.validity() {
            Some(valid) => valid.iter().map(|v| !v).collect(),
            None => vec![false; n],
        })),
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let c = arg(expr)?;
            let strs = c.as_str_slice();
            let data = (strs.ok_or_else(|| mismatch("Utf8 for LIKE", c.data_type()))?)
                .iter()
                .map(|s| like_match(s, pattern) != *negated)
                .collect();
            keep_valid(&c, ColumnData::Bool(data))
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let c = arg(expr)?;
            let nums: Vec<u64> = (list.iter().filter_map(Value::as_f64))
                .map(canonical_f64_bits)
                .collect();
            let num = |x: f64| nums.contains(&canonical_f64_bits(x)) != *negated;
            let hit = match c.data() {
                ColumnData::Int64(v) | ColumnData::Date(v) => {
                    v.iter().map(|&x| num(x as f64)).collect()
                }
                ColumnData::Float64(v) => v.iter().map(|&x| num(x)).collect(),
                ColumnData::Utf8(v) => {
                    let keys: Vec<&str> = list.iter().filter_map(Value::as_str).collect();
                    v.iter().map(|s| keys.contains(&&**s) != *negated).collect()
                }
                ColumnData::Bool(v) => {
                    let keys: Vec<bool> = list.iter().filter_map(Value::as_bool).collect();
                    v.iter().map(|b| keys.contains(b) != *negated).collect()
                }
            };
            keep_valid(&c, ColumnData::Bool(hit))
        }
        Expr::Between { expr, low, high } => {
            let x = arg(expr)?;
            let ge = binary(BinOp::Ge, &x, &*arg(low)?)?;
            binary(BinOp::And, &ge, &binary(BinOp::Le, &x, &*arg(high)?)?)
        }
        Expr::Case {
            branches,
            otherwise,
        } => {
            // Each row's arm: the first branch whose condition is true
            // (conditions are read last to first so the first one wins),
            // else `otherwise`, the arm after the branches.
            let mut pick = vec![branches.len(); n];
            for (k, (cond, _)) in branches.iter().enumerate().rev() {
                let c = arg(cond)?;
                for (i, &b) in bools(&c, "a CASE condition")?.iter().enumerate() {
                    if b && c.is_valid(i) {
                        pick[i] = k;
                    }
                }
            }
            let out = infer_type(expr, df.schema())?;
            let arms = (branches.iter().map(|(_, then)| then))
                .chain([&**otherwise])
                .map(|e| cast(arg(e)?, out))
                .collect::<Result<Vec<_>>>()?;
            let stacked = Column::concat(&arms.iter().map(|a| a.as_ref()).collect::<Vec<_>>())?;
            let rows: Vec<usize> = pick.iter().enumerate().map(|(i, &k)| k * n + i).collect();
            Ok(stacked.take(&rows))
        }
        Expr::Func { func, args } => {
            let (x, start, len) = func_arg(*func, args)?;
            let c = arg(x)?;
            func_type(*func, c.data_type())?;
            let data = match (func, c.data()) {
                (Func::Year, ColumnData::Date(days)) => ColumnData::Int64(
                    (days.iter().enumerate())
                        .map(|(i, &d)| if c.is_valid(i) { days_to_date(d).0 } else { 0 })
                        .collect(),
                ),
                (Func::Substr, ColumnData::Utf8(v)) => ColumnData::Utf8(
                    v.iter()
                        .map(|s| Arc::from(s.chars().skip(start).take(len).collect::<String>()))
                        .collect(),
                ),
                _ => return signed(&c, "abs()", i64::checked_abs, f64::abs),
            };
            keep_valid(&c, data)
        }
        Expr::Cast { expr, to } => cast(arg(expr)?, *to).map(Cow::into_owned),
    }
}

/// A literal as a typed column of `n` equal cells.
fn literal(v: &Value, n: usize) -> Result<Column> {
    let data = match v {
        Value::Int(x) => ColumnData::Int64(vec![*x; n]),
        Value::Float(x) => ColumnData::Float64(vec![*x; n]),
        Value::Bool(x) => ColumnData::Bool(vec![*x; n]),
        Value::Date(x) => ColumnData::Date(vec![*x; n]),
        // A fresh `Arc` per frame: cloning the plan's own would have every
        // shard's thread bump one shared refcount per row.
        Value::Str(s) => ColumnData::Utf8(vec![Arc::from(&**s); n]),
        Value::Null => return Err(untyped_null()),
    };
    Ok(Column::new(data))
}

fn binary(op: BinOp, l: &Column, r: &Column) -> Result<Column> {
    let out = binary_type(op, l.data_type(), r.data_type())?;
    if matches!(op, BinOp::And | BinOp::Or) {
        return logic(op == BinOp::And, l, r);
    }
    let valid = both_valid(l, r);
    let data = if op.is_comparison() {
        ColumnData::Bool(compare(op, l, r)?)
    } else if let (Some(a), Some(b), DataType::Int64 | DataType::Date) =
        (l.as_i64_slice(), r.as_i64_slice(), out)
    {
        let v = valid.as_deref();
        let exact = match op {
            BinOp::Add => checked(a, b, v, i64::checked_add)?,
            BinOp::Sub => checked(a, b, v, i64::checked_sub)?,
            _ => checked(a, b, v, i64::checked_mul)?,
        };
        match out {
            DataType::Date => ColumnData::Date(exact),
            _ => ColumnData::Int64(exact),
        }
    } else {
        ColumnData::Float64(match op {
            BinOp::Add => zip_f64(l, r, |x, y| x + y)?,
            BinOp::Sub => zip_f64(l, r, |x, y| x - y)?,
            BinOp::Mul => zip_f64(l, r, |x, y| x * y)?,
            _ => zip_f64(l, r, |x, y| x / y)?,
        })
    };
    Column::with_validity_opt(data, valid)
}

/// One comparison kernel per order class, in [`Value::cmp`]'s order.
fn compare(op: BinOp, l: &Column, r: &Column) -> Result<Vec<bool>> {
    // The orderings `op` accepts, as bits for Less, Equal and Greater.
    let accept: u8 = match op {
        BinOp::Lt => 0b001,
        BinOp::Le => 0b011,
        BinOp::Eq => 0b010,
        BinOp::Ge => 0b110,
        BinOp::Gt => 0b100,
        _ => 0b101,
    };
    let test = |ord: i8| (accept >> (ord + 1)) & 1 == 1;
    Ok(match (l.data(), r.data()) {
        (ColumnData::Utf8(a), ColumnData::Utf8(b)) => {
            a.iter().zip(b).map(|(x, y)| test(x.cmp(y) as i8)).collect()
        }
        (ColumnData::Bool(a), ColumnData::Bool(b)) => {
            a.iter().zip(b).map(|(x, y)| test(x.cmp(y) as i8)).collect()
        }
        _ => zip_f64(l, r, |x, y| test(order_f64(x, y)))?,
    })
}

/// `Value::cmp` of two numbers as -1, 0 or 1: NaN sorts after everything
/// and equals itself. Branch-free, so the comparison loops vectorize.
fn order_f64(x: f64, y: f64) -> i8 {
    let (xn, yn) = (x.is_nan(), y.is_nan());
    ((x > y) | (xn & !yn)) as i8 - ((x < y) | (yn & !xn)) as i8
}

/// Three-valued AND/OR. A valid `false` decides AND and a valid `true`
/// decides OR whatever the other side holds, so the payload is a plain
/// `&` or `|`; only validity needs the three-valued table.
fn logic(and: bool, l: &Column, r: &Column) -> Result<Column> {
    let (a, b) = (bools(l, "AND/OR")?, bools(r, "AND/OR")?);
    let data = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| if and { x & y } else { x | y })
        .collect();
    let valid = (l.validity().is_some() || r.validity().is_some()).then(|| {
        (0..a.len())
            .map(|i| {
                let (vl, vr) = (l.is_valid(i), r.is_valid(i));
                (vl && (vr || a[i] != and)) || (vr && b[i] != and)
            })
            .collect()
    });
    Column::with_validity_opt(ColumnData::Bool(data), valid)
}

/// Negation and `abs`: exact on Int64, plain on Float64.
fn signed(
    c: &Column,
    what: &str,
    int: impl Fn(i64) -> Option<i64>,
    float: impl Fn(f64) -> f64,
) -> Result<Column> {
    let data = match c.data() {
        ColumnData::Int64(v) => ColumnData::Int64(checked(v, v, c.validity(), |x, _| int(x))?),
        ColumnData::Float64(v) => ColumnData::Float64(v.iter().map(|&x| float(x)).collect()),
        _ => return Err(not_numeric(c.data_type(), what)),
    };
    keep_valid(c, data)
}

/// Exact `i64` arithmetic row by row. Overflow on a valid row is an
/// error; on a null row it only leaves a placeholder.
fn checked(
    a: &[i64],
    b: &[i64],
    valid: Option<&[bool]>,
    f: impl Fn(i64, i64) -> Option<i64>,
) -> Result<Vec<i64>> {
    let mut overflow = false;
    let out = (a.iter().zip(b).enumerate())
        .map(|(i, (&x, &y))| {
            f(x, y).unwrap_or_else(|| {
                overflow |= valid.is_none_or(|m| m[i]);
                0
            })
        })
        .collect();
    if overflow {
        return Err(DataError::Invalid("Int64 overflow".into()));
    }
    Ok(out)
}

/// CAST, and CASE's widening of an arm to the output type.
fn cast(c: Cow<'_, Column>, to: DataType) -> Result<Cow<'_, Column>> {
    // Text skips nulls: a placeholder need not be a date `format_date` takes.
    fn text<T>(c: &Column, v: &[T], f: impl Fn(&T) -> String) -> ColumnData {
        let cell = |(i, x)| Arc::from(if c.is_valid(i) { f(x) } else { String::new() });
        ColumnData::Utf8(v.iter().enumerate().map(cell).collect())
    }
    let from = c.data_type();
    let data = match (c.data(), to) {
        _ if from == to => return Ok(c),
        (ColumnData::Int64(v) | ColumnData::Date(v), DataType::Float64) => {
            ColumnData::Float64(v.iter().map(|&x| x as f64).collect())
        }
        (ColumnData::Float64(v), DataType::Int64) => {
            ColumnData::Int64(v.iter().map(|&x| x as i64).collect())
        }
        (ColumnData::Date(v), DataType::Int64) => ColumnData::Int64(v.clone()),
        (ColumnData::Int64(v), DataType::Date) => ColumnData::Date(v.clone()),
        (ColumnData::Int64(v), DataType::Utf8) => text(&c, v, i64::to_string),
        (ColumnData::Float64(v), DataType::Utf8) => text(&c, v, f64::to_string),
        (ColumnData::Bool(v), DataType::Utf8) => text(&c, v, bool::to_string),
        (ColumnData::Date(v), DataType::Utf8) => text(&c, v, |&d| format_date(d)),
        _ => return Err(DataError::Invalid(format!("cannot cast {from} to {to}"))),
    };
    keep_valid(&c, data).map(Cow::Owned)
}

/// The null rule for one operand: the result keeps `c`'s validity.
fn keep_valid(c: &Column, data: ColumnData) -> Result<Column> {
    Column::with_validity_opt(data, c.validity().map(<[bool]>::to_vec))
}

/// The null rule for two operands: valid where both are.
fn both_valid(l: &Column, r: &Column) -> Option<Vec<bool>> {
    match (l.validity(), r.validity()) {
        (None, None) => None,
        (Some(m), None) | (None, Some(m)) => Some(m.to_vec()),
        (Some(a), Some(b)) => Some(a.iter().zip(b).map(|(x, y)| x & y).collect()),
    }
}

fn bools<'c>(c: &'c Column, what: &str) -> Result<&'c [bool]> {
    c.as_bool_slice()
        .ok_or_else(|| mismatch(format!("Bool for {what}"), c.data_type()))
}

/// Read as `f64` the way `Value::as_f64` widens ints and dates.
trait Widen: Copy {
    fn widen(self) -> f64;
}

impl Widen for i64 {
    fn widen(self) -> f64 {
        self as f64
    }
}

impl Widen for f64 {
    fn widen(self) -> f64 {
        self
    }
}

/// `f` over the row pairs of two number or date columns in `f64`, one
/// monomorphic loop per storage pair.
fn zip_f64<R>(l: &Column, r: &Column, f: impl Fn(f64, f64) -> R) -> Result<Vec<R>> {
    fn go<A: Widen, B: Widen, R>(a: &[A], b: &[B], f: impl Fn(f64, f64) -> R) -> Vec<R> {
        a.iter()
            .zip(b)
            .map(|(x, y)| f(x.widen(), y.widen()))
            .collect()
    }
    use ColumnData::{Date, Float64, Int64};
    Ok(match (l.data(), r.data()) {
        (Int64(a) | Date(a), Int64(b) | Date(b)) => go(a, b, f),
        (Int64(a) | Date(a), Float64(b)) => go(a, b, f),
        (Float64(a), Int64(b) | Date(b)) => go(a, b, f),
        (Float64(a), Float64(b)) => go(a, b, f),
        _ => {
            let found = format!("{} and {}", l.data_type(), r.data_type());
            return Err(mismatch("numbers or dates", found));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{case_when, col, lit_date, lit_f64, lit_i64, lit_str};
    use std::sync::Arc;
    use wake_data::{Field, Schema};

    fn df() -> DataFrame {
        let schema = Arc::new(Schema::new(vec![
            Field::new("i", DataType::Int64),
            Field::new("f", DataType::Float64),
            Field::new("s", DataType::Utf8),
            Field::new("d", DataType::Date),
        ]));
        DataFrame::new(
            schema,
            vec![
                Column::from_i64(vec![1, 2, 3, 4]),
                Column::from_f64(vec![0.5, 1.5, 2.5, 3.5]),
                Column::from_str_iter(["alpha", "beta", "PROMO X", "gamma"]),
                Column::from_dates(vec![0, 100, 200, 10_000]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn arithmetic_types_and_values() {
        let d = df();
        let c = eval(&col("i").add(lit_i64(10)), &d).unwrap();
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.value(2), Value::Int(13));

        let c = eval(&col("i").mul(col("f")), &d).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.value(1), Value::Float(3.0));

        // Integer division widens to float.
        let c = eval(&col("i").div(lit_i64(2)), &d).unwrap();
        assert_eq!(c.data_type(), DataType::Float64);
        assert_eq!(c.value(0), Value::Float(0.5));
    }

    #[test]
    fn date_arithmetic() {
        let d = df();
        let c = eval(&col("d").add(lit_i64(5)), &d).unwrap();
        assert_eq!(c.data_type(), DataType::Date);
        assert_eq!(c.value(0), Value::Date(5));
        let c = eval(&col("d").sub(col("d")), &d).unwrap();
        assert_eq!(c.data_type(), DataType::Int64);
        assert_eq!(c.value(3), Value::Int(0));
    }

    #[test]
    fn comparisons_and_mask() {
        let d = df();
        let mask = eval_mask(&col("f").gt(lit_f64(1.0)).and(col("i").lt(lit_i64(4))), &d).unwrap();
        assert_eq!(mask, vec![false, true, true, false]);
        let mask = eval_mask(&col("s").like("PROMO%"), &d).unwrap();
        assert_eq!(mask, vec![false, false, true, false]);
        let mask = eval_mask(
            &col("s").in_list(vec![Value::str("alpha"), Value::str("gamma")]),
            &d,
        )
        .unwrap();
        assert_eq!(mask, vec![true, false, false, true]);
        let mask = eval_mask(&col("i").between(lit_i64(2), lit_i64(3)), &d).unwrap();
        assert_eq!(mask, vec![false, true, true, false]);
    }

    #[test]
    fn null_propagation() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int64)]));
        let d = DataFrame::from_rows(
            schema,
            &[vec![Value::Int(1)], vec![Value::Null], vec![Value::Int(3)]],
        )
        .unwrap();
        let c = eval(&col("x").add(lit_i64(1)), &d).unwrap();
        assert_eq!(c.value(1), Value::Null);
        // NULL comparison excludes the row in a mask.
        let mask = eval_mask(&col("x").gt(lit_i64(0)), &d).unwrap();
        assert_eq!(mask, vec![true, false, true]);
        // IS NULL
        let mask = eval_mask(&col("x").is_null(), &d).unwrap();
        assert_eq!(mask, vec![false, true, false]);
        // three-valued OR: NULL OR TRUE = TRUE
        let mask = eval_mask(&col("x").gt(lit_i64(0)).or(col("x").is_null()), &d).unwrap();
        assert_eq!(mask, vec![true, true, true]);
    }

    #[test]
    fn case_year_substr() {
        let d = df();
        let e = case_when(vec![(col("s").like("PROMO%"), col("f"))], lit_f64(0.0));
        let c = eval(&e, &d).unwrap();
        assert_eq!(c.value(2), Value::Float(2.5));
        assert_eq!(c.value(0), Value::Float(0.0));

        let y = eval(&col("d").year(), &d).unwrap();
        assert_eq!(y.value(0), Value::Int(1970));
        assert_eq!(y.value(3), Value::Int(1997));

        let s = eval(&col("s").substr(1, 4), &d).unwrap();
        assert_eq!(s.value(1), Value::str("beta"));
        assert_eq!(s.value(2), Value::str("PROM"));
    }

    #[test]
    fn cast_and_errors() {
        let d = df();
        let c = eval(&col("i").cast(DataType::Float64), &d).unwrap();
        assert_eq!(c.value(0), Value::Float(1.0));
        let c = eval(&col("f").cast(DataType::Int64), &d).unwrap();
        assert_eq!(c.value(3), Value::Int(3));
        assert!(eval(&col("s").add(lit_i64(1)), &d).is_err());
        assert!(eval(&col("missing"), &d).is_err());
        assert!(eval(&col("i").like("%x"), &d).is_err());
    }

    /// One nullable column named `x` of `data`, null where `valid` is false.
    fn nullable(data: ColumnData, valid: Vec<bool>) -> DataFrame {
        let c = Column::with_validity(data, valid).unwrap();
        let schema = Arc::new(Schema::new(vec![Field::new("x", c.data_type())]));
        DataFrame::new(schema, vec![c]).unwrap()
    }

    #[test]
    fn int_arithmetic_is_exact_with_or_without_nulls() {
        let big = (1i64 << 53) + 1;
        for valid in [vec![true, true], vec![true, false]] {
            let d = nullable(ColumnData::Int64(vec![big, 0]), valid);
            let c = eval(&col("x").add(lit_i64(1)), &d).unwrap();
            assert_eq!(c.value(0), Value::Int(9_007_199_254_740_994));
        }
    }

    #[test]
    fn int_overflow_on_a_valid_row_is_an_error() {
        let d = nullable(
            ColumnData::Int64(vec![i64::MAX, i64::MIN]),
            vec![true, true],
        );
        assert!(eval(&col("x").mul(lit_i64(2)), &d).is_err());
        assert!(eval(&col("x").neg(), &d).is_err());
        assert!(eval(&col("x").abs(), &d).is_err());
        // The same placeholders under nulls overflow nothing.
        let d = nullable(
            ColumnData::Int64(vec![i64::MAX, i64::MIN]),
            vec![false, false],
        );
        for e in [col("x").mul(lit_i64(2)), col("x").neg(), col("x").abs()] {
            assert_eq!(eval(&e, &d).unwrap().null_count(), 2, "expr: {e}");
        }
    }

    /// `infer_type` and `eval` both reject `e` as a type mismatch.
    fn assert_type_mismatch(e: Expr) {
        let d = df();
        let is_mismatch = |r: Result<_>| matches!(r, Err(DataError::TypeMismatch { .. }));
        assert!(
            is_mismatch(infer_type(&e, d.schema()).map(|_| ())),
            "infer_type: {e}"
        );
        assert!(is_mismatch(eval(&e, &d).map(|_| ())), "eval: {e}");
    }

    #[test]
    fn cross_class_comparison_is_a_type_mismatch() {
        assert_type_mismatch(col("s").gt(lit_i64(1)));
        assert_type_mismatch(col("s").lt(lit_f64(1.0)));
    }

    #[test]
    fn non_bool_case_condition_is_a_type_mismatch() {
        assert_type_mismatch(case_when(vec![(col("i"), lit_i64(1))], lit_i64(0)));
    }

    #[test]
    fn negating_a_string_is_a_type_mismatch() {
        assert_type_mismatch(col("s").neg());
    }

    #[test]
    fn abs_of_a_date_is_a_type_mismatch() {
        assert_type_mismatch(col("d").abs());
    }

    #[test]
    fn malformed_func_is_an_error_not_a_panic() {
        let d = df();
        for args in [vec![], vec![col("s")], vec![col("s"), col("i"), lit_i64(1)]] {
            let e = Expr::Func {
                func: Func::Substr,
                args,
            };
            assert!(matches!(
                infer_type(&e, d.schema()),
                Err(DataError::Invalid(_))
            ));
            assert!(matches!(eval(&e, &d), Err(DataError::Invalid(_))));
        }
        let e = Expr::Func {
            func: Func::Abs,
            args: vec![],
        };
        assert!(matches!(eval(&e, &d), Err(DataError::Invalid(_))));
    }

    #[test]
    fn comparisons_follow_value_order() {
        let valid = vec![true, true, true, true, false, true, true];
        let d = DataFrame::new(
            Arc::new(Schema::new(vec![
                Field::new("i", DataType::Int64),
                Field::new("f", DataType::Float64),
                Field::new("d", DataType::Date),
            ])),
            vec![
                Column::with_validity(
                    ColumnData::Int64(vec![i64::MAX, 1 << 60, 0, -5, 3, 2, i64::MAX - 1]),
                    valid.clone(),
                )
                .unwrap(),
                Column::with_validity(
                    ColumnData::Float64(vec![
                        (1u64 << 63) as f64,
                        f64::NAN,
                        -0.0,
                        f64::NEG_INFINITY,
                        1.0,
                        f64::NAN,
                        2.0,
                    ]),
                    vec![true, true, true, true, true, false, true],
                )
                .unwrap(),
                Column::with_validity(
                    ColumnData::Date(vec![0, 1 << 60, 0, -5, 3, 2, 10_000]),
                    vec![true, false, true, true, true, true, true],
                )
                .unwrap(),
            ],
        )
        .unwrap();
        let operands = [
            col("i"),
            col("f"),
            col("d"),
            lit_i64(0),
            lit_i64(2),
            lit_i64(1 << 60),
            lit_i64(i64::MAX),
            lit_f64(0.0),
            lit_f64(2.0),
            lit_f64(f64::NAN),
            lit_date(1970, 1, 1),
        ];
        let ops = [
            BinOp::Eq,
            BinOp::Ne,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
        ];
        for l in &operands {
            for r in &operands {
                let (lc, rc) = (eval(l, &d).unwrap(), eval(r, &d).unwrap());
                for op in ops {
                    let e = Expr::Binary {
                        op,
                        left: Box::new(l.clone()),
                        right: Box::new(r.clone()),
                    };
                    let expect: Vec<bool> = (0..d.num_rows())
                        .map(|i| {
                            let (a, b) = (lc.value(i), rc.value(i));
                            let ord = a.cmp(&b);
                            !a.is_null()
                                && !b.is_null()
                                && match op {
                                    BinOp::Eq => ord.is_eq(),
                                    BinOp::Ne => ord.is_ne(),
                                    BinOp::Lt => ord.is_lt(),
                                    BinOp::Le => ord.is_le(),
                                    BinOp::Gt => ord.is_gt(),
                                    _ => ord.is_ge(),
                                }
                        })
                        .collect();
                    assert_eq!(eval_mask(&e, &d).unwrap(), expect, "expr: {e}");
                    assert_eq!(
                        eval_selection(&e, &d).unwrap(),
                        wake_data::column::mask_to_selection(&expect),
                        "expr: {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn in_list_matches_as_value_eq() {
        let cases = [
            (
                ColumnData::Float64(vec![-0.0, f64::NAN, 1.0, 0.0]),
                vec![Value::Float(0.0), Value::Float(f64::NAN)],
            ),
            (
                ColumnData::Int64(vec![1, 2, 3, 2]),
                vec![Value::Float(2.0), Value::str("2"), Value::Null],
            ),
            (
                ColumnData::Utf8(vec!["a".into(), "b".into(), "".into(), "a".into()]),
                vec![Value::str("a"), Value::Int(0)],
            ),
        ];
        for (data, list) in cases {
            let d = nullable(data, vec![true, true, true, false]);
            let c = d.column("x").unwrap().clone();
            for negated in [false, true] {
                let e = Expr::InList {
                    expr: Box::new(col("x")),
                    list: list.clone(),
                    negated,
                };
                let expect: Vec<bool> = (0..4)
                    .map(|i| c.is_valid(i) && list.contains(&c.value(i)) != negated)
                    .collect();
                assert_eq!(eval_mask(&e, &d).unwrap(), expect, "expr: {e}");
            }
        }
    }

    #[test]
    fn case_widens_an_int_arm_to_float() {
        let d = df();
        let e = case_when(vec![(col("i").gt(lit_i64(2)), col("i"))], lit_f64(0.5));
        assert_eq!(infer_type(&e, d.schema()).unwrap(), DataType::Float64);
        let c = eval(&e, &d).unwrap();
        let got: Vec<Value> = c.iter().collect();
        assert_eq!(got, [0.5, 0.5, 3.0, 4.0].map(Value::Float));
    }

    #[test]
    fn infer_type_matches_eval() {
        let d = df();
        let schema = d.schema();
        for e in [
            col("i").add(col("i")),
            col("i").div(col("i")),
            col("f").mul(lit_i64(2)),
            col("d").sub(col("d")),
            col("s").like("%"),
            col("d").year(),
            col("s").substr(1, 1),
            lit_str("k"),
            lit_date(1995, 1, 1),
        ] {
            let t = infer_type(&e, schema).unwrap();
            let c = eval(&e, &d).unwrap();
            assert_eq!(t, c.data_type(), "expr: {e}");
        }
    }
}
