//! Bit-exact serialization of aggregate intrinsic states for spilling.
//!
//! An evicted aggregate partition is one spill chunk: the partition's
//! distinct key tuples as a typed WCF frame (exported straight from the
//! [`KeyStore`](wake_data::hash::KeyStore)), and this module's encoding
//! of the per-group states in the chunk's opaque `extra` section. The
//! contract is **bit-exactness**: rehydrating a state and continuing to
//! fold must produce the same float accumulation sequence as never having
//! spilled, so every `f64` travels as its raw IEEE bits (no canonical-
//! ization — `-0.0` and NaN payloads survive) and min/max `Value`s keep
//! their exact variant.

use crate::agg::{AggState, DistinctSet};
use crate::Result;
use std::collections::HashSet;
use std::sync::Arc;
use wake_data::colfile::{read_value_tagged, write_value, ByteCursor};
use wake_data::{DataError, Value};
use wake_stats::Moments;

// ---------------------------------------------------------------------------
// primitives
// ---------------------------------------------------------------------------

pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

pub fn put_f64(out: &mut Vec<u8>, x: f64) {
    put_u64(out, x.to_bits());
}

fn put_moments(out: &mut Vec<u8>, m: &Moments) {
    put_f64(out, m.count);
    put_f64(out, m.sum);
    put_f64(out, m.sum_sq);
}

fn get_moments(c: &mut ByteCursor<'_>) -> Result<Moments> {
    Ok(Moments {
        count: c.f64()?,
        sum: c.f64()?,
        sum_sq: c.f64()?,
    })
}

/// `Option<Value>` on top of the shared [`Value`] codec: `None` is the one
/// tag [`write_value`] never writes.
const VAL_NONE: u8 = 0;

pub fn put_opt_value(out: &mut Vec<u8>, v: &Option<Value>) {
    match v {
        None => out.push(VAL_NONE),
        Some(v) => write_value(v, out),
    }
}

pub fn get_opt_value(c: &mut ByteCursor<'_>) -> Result<Option<Value>> {
    Ok(match c.u8()? {
        VAL_NONE => None,
        tag => Some(read_value_tagged(tag, c)?),
    })
}

// ---------------------------------------------------------------------------
// DistinctSet
// ---------------------------------------------------------------------------

const SET_EMPTY: u8 = 0;
const SET_NUM: u8 = 1;
const SET_STR: u8 = 2;
const SET_BOOL: u8 = 3;

fn put_distinct(out: &mut Vec<u8>, set: &DistinctSet) {
    match set {
        DistinctSet::Empty => out.push(SET_EMPTY),
        DistinctSet::Num(s) => {
            out.push(SET_NUM);
            put_u64(out, s.len() as u64);
            for &b in s {
                put_u64(out, b);
            }
        }
        DistinctSet::Str(s) => {
            out.push(SET_STR);
            put_u64(out, s.len() as u64);
            for v in s {
                put_u64(out, v.len() as u64);
                out.extend_from_slice(v.as_bytes());
            }
        }
        DistinctSet::Bool {
            seen_true,
            seen_false,
        } => {
            out.push(SET_BOOL);
            out.push((*seen_true as u8) | ((*seen_false as u8) << 1));
        }
    }
}

fn get_distinct(c: &mut ByteCursor<'_>) -> Result<DistinctSet> {
    Ok(match c.u8()? {
        SET_EMPTY => DistinctSet::Empty,
        SET_NUM => {
            let n = c.count_u64(8)?;
            let mut s = HashSet::with_capacity(n);
            for _ in 0..n {
                s.insert(c.u64()?);
            }
            DistinctSet::Num(s)
        }
        SET_STR => {
            // Every string costs at least its own 8-byte length header.
            let n = c.count_u64(8)?;
            let mut s: HashSet<Arc<str>> = HashSet::with_capacity(n);
            for _ in 0..n {
                let len = c.count_u64(1)?;
                let v = std::str::from_utf8(c.take(len)?)
                    .map_err(|_| DataError::Parse("bad utf8 in spilled set".into()))?;
                s.insert(Arc::from(v));
            }
            DistinctSet::Str(s)
        }
        SET_BOOL => {
            let bits = c.u8()?;
            DistinctSet::Bool {
                seen_true: bits & 1 != 0,
                seen_false: bits & 2 != 0,
            }
        }
        t => return Err(DataError::Parse(format!("bad distinct-set tag {t}"))),
    })
}

// ---------------------------------------------------------------------------
// AggState
// ---------------------------------------------------------------------------

const ST_COUNT: u8 = 1;
const ST_SUM: u8 = 2;
const ST_AVG: u8 = 3;
const ST_WAVG: u8 = 4;
const ST_EXTREME: u8 = 5;
const ST_DISTINCT: u8 = 6;
const ST_DISPERSION: u8 = 7;
const ST_SAMPLE: u8 = 8;

/// Encode one aggregate state (tagged; the tag is validated on decode
/// against the spec-derived template).
pub fn put_agg_state(out: &mut Vec<u8>, st: &AggState) {
    match st {
        AggState::Count { n } => {
            out.push(ST_COUNT);
            put_f64(out, *n);
        }
        AggState::Sum { m } => {
            out.push(ST_SUM);
            put_moments(out, m);
        }
        AggState::Avg { m } => {
            out.push(ST_AVG);
            put_moments(out, m);
        }
        AggState::WeightedAvg { m_wv, m_w } => {
            out.push(ST_WAVG);
            put_moments(out, m_wv);
            put_moments(out, m_w);
        }
        AggState::Extreme { best, second, .. } => {
            out.push(ST_EXTREME);
            put_opt_value(out, best);
            put_opt_value(out, second);
        }
        AggState::Distinct { set, n } => {
            out.push(ST_DISTINCT);
            put_distinct(out, set);
            put_f64(out, *n);
        }
        AggState::Dispersion { m, .. } => {
            out.push(ST_DISPERSION);
            put_moments(out, m);
        }
        AggState::Sample { values, .. } => {
            out.push(ST_SAMPLE);
            put_u64(out, values.len() as u64);
            for &v in values {
                put_f64(out, v);
            }
        }
    }
}

/// Decode one state into `template` (a fresh `spec.new_state()`), which
/// supplies the spec-side fields (`is_min`, `stddev`, `q`) the encoding
/// deliberately omits.
pub fn get_agg_state(template: &mut AggState, c: &mut ByteCursor<'_>) -> Result<()> {
    let tag = c.u8()?;
    match (template, tag) {
        (AggState::Count { n }, ST_COUNT) => *n = c.f64()?,
        (AggState::Sum { m }, ST_SUM)
        | (AggState::Avg { m }, ST_AVG)
        | (AggState::Dispersion { m, .. }, ST_DISPERSION) => *m = get_moments(c)?,
        (AggState::WeightedAvg { m_wv, m_w }, ST_WAVG) => {
            *m_wv = get_moments(c)?;
            *m_w = get_moments(c)?;
        }
        (AggState::Extreme { best, second, .. }, ST_EXTREME) => {
            *best = get_opt_value(c)?;
            *second = get_opt_value(c)?;
        }
        (AggState::Distinct { set, n }, ST_DISTINCT) => {
            *set = get_distinct(c)?;
            *n = c.f64()?;
        }
        (AggState::Sample { values, .. }, ST_SAMPLE) => {
            let n = c.count_u64(8)?;
            let mut vs = Vec::with_capacity(n);
            for _ in 0..n {
                vs.push(c.f64()?);
            }
            *values = vs;
        }
        (t, tag) => {
            return Err(DataError::Parse(format!(
                "spilled state tag {tag} does not match spec state {t:?}"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{AggSpec, ScaleContext};
    use wake_data::DataType;
    use wake_expr::col;

    /// `a` and `b` finalize side by side, mid-query, to the same estimate
    /// and variance, bit for bit (so NaN matches NaN).
    fn assert_same_estimate(a: &AggState, b: &AggState) {
        let dtype = match a {
            AggState::Extreme { best: Some(v), .. } => v.data_type().unwrap(),
            _ => DataType::Float64,
        };
        let ctx = ScaleContext {
            scale: 2.0,
            t: 0.5,
            w_variance: 0.01,
        };
        let pair = [a.clone(), b.clone()];
        let (col, var) = AggState::finalize_column(&pair, &[0, 1], &ctx, dtype).unwrap();
        let cell = |i| {
            let mut bytes = Vec::new();
            write_value(&col.value(i), &mut bytes);
            bytes
        };
        assert_eq!(cell(0), cell(1), "{a:?} vs {b:?}");
        assert_eq!(var[0].to_bits(), var[1].to_bits(), "{a:?} vs {b:?}");
    }

    #[test]
    fn every_state_roundtrips_bit_exactly() {
        let specs = [
            AggSpec::count_star("c"),
            AggSpec::sum(col("x"), "s"),
            AggSpec::avg(col("x"), "a"),
            AggSpec::weighted_avg(col("x"), col("w"), "wa"),
            AggSpec::min(col("x"), "mn"),
            AggSpec::max(col("x"), "mx"),
            AggSpec::count_distinct(col("x"), "cd"),
            AggSpec::var(col("x"), "v"),
            AggSpec::stddev(col("x"), "sd"),
            AggSpec::median(col("x"), "med"),
        ];
        // Hostile payloads: -0.0, huge ints (NaN is checked separately —
        // the quantile finalizer rejects NaN inputs by contract).
        let values = [
            Value::Float(-0.0),
            Value::Float(0.5),
            Value::Int(i64::MAX),
            Value::Float(0.25),
            Value::Int(-3),
        ];
        for spec in &specs {
            let mut st = spec.new_state();
            for v in &values {
                let w = Value::Float(2.0);
                st.observe(v, Some(&w));
            }
            let mut bytes = Vec::new();
            put_agg_state(&mut bytes, &st);
            let mut back = spec.new_state();
            get_agg_state(&mut back, &mut ByteCursor::new(&bytes)).unwrap();
            // Continue folding on both and require identical finalization
            // (bit-exact accumulators).
            st.observe(&Value::Float(0.1), Some(&Value::Float(1.0)));
            back.observe(&Value::Float(0.1), Some(&Value::Float(1.0)));
            assert_same_estimate(&st, &back);
        }
    }

    #[test]
    fn nan_payloads_survive_raw_bits() {
        // Sum accumulators and count-distinct sets may legitimately hold
        // NaN; serialization must keep the exact bit pattern.
        for spec in [
            AggSpec::sum(col("x"), "s"),
            AggSpec::count_distinct(col("x"), "cd"),
            AggSpec::max(col("x"), "mx"),
        ] {
            let mut st = spec.new_state();
            st.observe(&Value::Float(f64::NAN), None);
            st.observe(&Value::Float(1.0), None);
            let mut bytes = Vec::new();
            put_agg_state(&mut bytes, &st);
            let mut back = spec.new_state();
            get_agg_state(&mut back, &mut ByteCursor::new(&bytes)).unwrap();
            assert_same_estimate(&st, &back);
        }
    }

    #[test]
    fn string_and_bool_states_roundtrip() {
        let spec = AggSpec::min(col("x"), "mn");
        let mut st = spec.new_state();
        st.observe(&Value::str("pear"), None);
        st.observe(&Value::str("apple"), None);
        let mut bytes = Vec::new();
        put_agg_state(&mut bytes, &st);
        let mut back = spec.new_state();
        get_agg_state(&mut back, &mut ByteCursor::new(&bytes)).unwrap();
        let (min, _) =
            AggState::finalize_column(&[back], &[0], &ScaleContext::exact(), DataType::Utf8)
                .unwrap();
        assert_eq!(min.value(0), Value::str("apple"));

        let spec = AggSpec::count_distinct(col("x"), "cd");
        for vals in [
            vec![Value::Bool(true), Value::Bool(false)],
            vec![Value::str("a"), Value::str("b"), Value::str("a")],
        ] {
            let mut st = spec.new_state();
            for v in &vals {
                st.observe(v, None);
            }
            let mut bytes = Vec::new();
            put_agg_state(&mut bytes, &st);
            let mut back = spec.new_state();
            get_agg_state(&mut back, &mut ByteCursor::new(&bytes)).unwrap();
            assert_same_estimate(&st, &back);
        }
    }

    #[test]
    fn mismatched_tag_rejected() {
        let mut bytes = Vec::new();
        put_agg_state(&mut bytes, &AggSpec::count_star("c").new_state());
        let mut wrong = AggSpec::sum(col("x"), "s").new_state();
        assert!(get_agg_state(&mut wrong, &mut ByteCursor::new(&bytes)).is_err());
    }

    #[test]
    fn hostile_counts_fail_typed_before_allocating() {
        // A count header larger than the bytes behind it used to reach
        // `with_capacity` (an allocation-failure abort, not even a
        // panic). Every counted state must reject it as a parse error.
        let hostile = (u64::MAX / 16).to_le_bytes();
        let mut sample = vec![ST_SAMPLE];
        sample.extend_from_slice(&hostile);
        let mut st = AggSpec::median(col("x"), "m").new_state();
        let err = get_agg_state(&mut st, &mut ByteCursor::new(&sample)).unwrap_err();
        assert!(matches!(err, DataError::Parse(_)), "{err}");
        // Tag 4 was a set of mixed `Value`s, which no state holds any
        // more: it must fail as an unknown tag.
        for set_tag in [SET_NUM, SET_STR, 4] {
            let mut bytes = vec![ST_DISTINCT, set_tag];
            bytes.extend_from_slice(&hostile);
            let mut st = AggSpec::count_distinct(col("x"), "cd").new_state();
            let err = get_agg_state(&mut st, &mut ByteCursor::new(&bytes)).unwrap_err();
            assert!(matches!(err, DataError::Parse(_)), "set {set_tag}: {err}");
        }
        // A string whose length header overruns the buffer, in a set and
        // as a spilled extreme.
        let mut bytes = vec![ST_DISTINCT, SET_STR];
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&hostile);
        let mut st = AggSpec::count_distinct(col("x"), "cd").new_state();
        assert!(get_agg_state(&mut st, &mut ByteCursor::new(&bytes)).is_err());
        let mut bytes = Vec::new();
        put_opt_value(&mut bytes, &Some(Value::str("pear")));
        bytes.truncate(bytes.len() - 1);
        assert!(get_opt_value(&mut ByteCursor::new(&bytes)).is_err());
    }
}
