//! Byte primitives for spilled aggregate state.
//!
//! An evicted aggregate partition is one spill chunk: the partition's
//! distinct key tuples as a typed WCF frame (exported straight from the
//! [`KeyStore`](wake_data::hash::KeyStore)), and its per-group state in
//! the chunk's opaque `extra` section. `agg_op.rs` writes the group count,
//! row counts and carried variances there, then each spec's
//! [`AggStore`](crate::agg::AggStore) encodes itself: the state layout is
//! `agg.rs`'s alone. This module holds the runs of numbers both write.
//! The contract is **bit-exactness**: rehydrating a state and continuing
//! to fold must produce the same float accumulation sequence as never
//! having spilled, so every `f64` travels as its raw IEEE bits (no
//! canonicalization — `-0.0` and NaN payloads survive).

use crate::Result;
use wake_data::colfile::ByteCursor;
use wake_data::DataError;
use wake_stats::Moments;

pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// A run of `f64`s as raw bits, without a length header.
pub fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    for x in xs {
        put_u64(out, x.to_bits());
    }
}

/// A run of moments, each as its `(count, sum, sum_sq)` bits.
pub fn put_moments(out: &mut Vec<u8>, ms: &[Moments]) {
    for m in ms {
        put_f64s(out, &[m.count, m.sum, m.sum_sq]);
    }
}

/// The bytes of `n` items of `width` bytes each, bounds-checked before
/// anything is allocated for them.
fn take_items<'a>(c: &mut ByteCursor<'a>, n: usize, width: usize) -> Result<ByteCursor<'a>> {
    let total = n
        .checked_mul(width)
        .ok_or_else(|| DataError::Parse(format!("{n} spilled items overflow a length")))?;
    Ok(ByteCursor::new(c.take(total)?))
}

/// Inverse of [`put_f64s`] for a run of `n`.
pub fn get_f64s(c: &mut ByteCursor<'_>, n: usize) -> Result<Vec<f64>> {
    let mut items = take_items(c, n, 8)?;
    (0..n).map(|_| items.f64()).collect()
}

/// Inverse of [`put_moments`] for a run of `n`.
pub fn get_moments(c: &mut ByteCursor<'_>, n: usize) -> Result<Vec<Moments>> {
    let mut items = take_items(c, n, 24)?;
    (0..n)
        .map(|_| {
            Ok(Moments {
                count: items.f64()?,
                sum: items.f64()?,
                sum_sq: items.f64()?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_roundtrip_raw_bits() {
        let xs = [-0.0, f64::from_bits(0x7ff8_0000_dead_beef), 1.5, f64::MAX];
        let ms = [
            Moments {
                count: 2.0,
                sum: -0.0,
                sum_sq: f64::NAN,
            },
            Moments::new(),
        ];
        let mut bytes = Vec::new();
        put_f64s(&mut bytes, &xs);
        put_moments(&mut bytes, &ms);
        let mut c = ByteCursor::new(&bytes);
        let back = get_f64s(&mut c, xs.len()).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&xs));
        let back = get_moments(&mut c, ms.len()).unwrap();
        let flat = |ms: &[Moments]| {
            bits(
                &ms.iter()
                    .flat_map(|m| [m.count, m.sum, m.sum_sq])
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(flat(&back), flat(&ms));
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn hostile_counts_fail_typed_before_allocating() {
        // A count larger than the bytes behind it, or one whose byte
        // length overflows, is a parse error, not an allocation.
        let bytes = [0u8; 16];
        for n in [3, usize::MAX / 8, usize::MAX] {
            let err = get_f64s(&mut ByteCursor::new(&bytes), n).unwrap_err();
            assert!(matches!(err, DataError::Parse(_)), "{n}: {err}");
            let err = get_moments(&mut ByteCursor::new(&bytes), n).unwrap_err();
            assert!(matches!(err, DataError::Parse(_)), "{n}: {err}");
        }
    }
}
