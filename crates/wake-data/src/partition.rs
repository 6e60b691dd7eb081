//! Hash-range routing of frames into per-target selection vectors.
//!
//! A hash-keyed operator splits its state by key hash into `S` shards and,
//! under a memory budget, each shard into `F` spill partitions, recursively
//! while a spilled partition stays too large. Both splits read **digits**
//! of one number, so this module owns both: from a frame's
//! [`KeyHashes`](crate::hash::KeyHashes) it produces one `u32` selection
//! vector per target (what [`DataFrame::select`](crate::DataFrame::select)
//! consumes), so a frame is scattered with one typed columnar gather per
//! target and no `Value` materialisation.
//!
//! ## Routing rule
//!
//! Read the hash `h` as the fraction `h / 2^64` of the key space, scale it
//! by `S` and by `F` per level, and keep the integer part:
//!
//! - `shard(h) = (h·S) >> 64`, and
//! - `spill partition at depth d = ((h·S·F^(d+1)) >> 64) mod F`,
//!
//! both through [`digit`], the one kernel. Consequences:
//!
//! - The digits come from the hash's **high** bits. The low bits must be
//!   left alone: the shard-local `KeyIndex`/`GroupIndex` maps are keyed by
//!   the same hash through a pass-through hasher, and their bucket index is
//!   `hash & (capacity - 1)` — low bits. Routing by `hash % S` would make
//!   the low bits constant within a shard at power-of-two `S` and collapse
//!   every shard table to `1/S` of its buckets. The high-bit reduction
//!   keeps shard balance (hashes are avalanche-mixed) and supports
//!   non-power-of-two shard counts.
//! - No level re-uses a digit an outer level consumed, so recursive splits
//!   of a skewed partition keep dividing it instead of mapping everything
//!   to one child; equal keys land in the same target at every level.
//! - **Rows with a null key component route to shard 0** and keep their
//!   spill digits. Joins drop null keys from index/probe anyway but must
//!   still buffer the rows (left/anti flushes); pinning them to one shard
//!   keeps that bookkeeping local. Group-by treats a null as an ordinary
//!   key value; the null-key group is simply owned by shard 0.
//! - `S = 1` yields one selection covering every row, and callers are
//!   expected to skip the scatter entirely in that case so the
//!   single-shard path stays byte-identical to unsharded execution.
//!
//! Determinism: routing depends only on cell contents (the hashes are
//! frame-independent), so the two sides of a join agree on every target,
//! and re-running a query re-creates the same shards and partitions.

use crate::hash::KeyHashes;

/// The integer part of `hash / 2^64 × scale`: the routing kernel. A
/// shard is `digit(h, S)`; a spill partition at depth `d` is
/// `digit(h, S·F^(d+1)) mod F`. `scale` stays far below `2^64` (at most
/// `S·F^MAX_DEPTH`), so the product fits `u128` and the digit fits `u64`.
#[inline]
fn digit(hash: u64, scale: u128) -> u64 {
    ((hash as u128 * scale) >> 64) as u64
}

/// Shard index for one row hash under `shards` shards (callers handle the
/// null-row override).
#[inline]
pub fn shard_of(hash: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    digit(hash, shards as u128) as usize
}

/// `targets` selection vectors from each row's target, in row order:
/// vector `t` lists, ascending, the rows routed to `t`.
fn selections(targets: usize, ids: impl ExactSizeIterator<Item = usize>) -> Vec<Vec<u32>> {
    // Pass 1: target per row + per-target counts (exact allocations).
    let mut counts = vec![0usize; targets];
    let ids: Vec<u32> = ids
        .map(|t| {
            counts[t] += 1;
            t as u32
        })
        .collect();
    // Pass 2: scatter row indices.
    let mut sel: Vec<Vec<u32>> = counts.into_iter().map(Vec::with_capacity).collect();
    for (row, &t) in ids.iter().enumerate() {
        sel[t as usize].push(row as u32);
    }
    sel
}

/// Split the rows behind `hashes` into per-shard selection vectors.
///
/// Returns `shards` vectors; vector `s` lists (in ascending row order) the
/// rows owned by shard `s`. Row order within a shard preserves frame order,
/// so per-group fold order — and therefore floating-point accumulation —
/// is identical to unsharded execution.
pub fn shard_selections(hashes: &KeyHashes, shards: usize) -> Vec<Vec<u32>> {
    assert!(shards > 0, "shard count must be positive");
    let n = hashes.hashes.len();
    if shards == 1 {
        return vec![(0..n as u32).collect()];
    }
    let ids = hashes.hashes.iter().enumerate().map(|(row, &h)| {
        if hashes.is_null(row) {
            0
        } else {
            shard_of(h, shards)
        }
    });
    selections(shards, ids)
}

/// Split the rows of one of `shards` shards (their `hashes`) over its
/// `fanout` spill partitions at `depth` (0 = the first split below the
/// shard). Row order within a partition preserves frame order, like
/// [`shard_selections`].
// Inline, so a caller's constant fan-out turns the modulo into a mask.
#[inline]
pub fn spill_selections(
    hashes: &[u64],
    shards: usize,
    fanout: usize,
    depth: usize,
) -> Vec<Vec<u32>> {
    debug_assert!(shards > 0 && fanout > 1);
    let scale = shards as u128 * (fanout as u128).pow(depth as u32 + 1);
    let ids = hashes
        .iter()
        .map(|&h| (digit(h, scale) % fanout as u64) as usize);
    selections(fanout, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::hash_keys;
    use crate::schema::{Field, Schema};
    use crate::value::{DataType, Value};
    use crate::{Column, DataFrame};
    use std::sync::Arc;

    fn keyed_frame(keys: &[Value]) -> DataFrame {
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        DataFrame::new(
            schema,
            vec![Column::from_values(DataType::Int64, keys).unwrap()],
        )
        .unwrap()
    }

    #[test]
    fn selections_cover_all_rows_disjointly_and_in_order() {
        let keys: Vec<Value> = (0..100).map(|i| Value::Int(i % 17)).collect();
        let f = keyed_frame(&keys);
        let kh = hash_keys(&f, &[0]);
        for shards in [1usize, 2, 3, 8] {
            let sel = shard_selections(&kh, shards);
            assert_eq!(sel.len(), shards);
            let mut all: Vec<u32> = sel.iter().flatten().copied().collect();
            assert!(sel.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn equal_keys_share_a_shard_across_frames() {
        let a = keyed_frame(&[Value::Int(7), Value::Int(13), Value::Int(7)]);
        let b = keyed_frame(&[Value::Int(13), Value::Int(7)]);
        let (ha, hb) = (hash_keys(&a, &[0]), hash_keys(&b, &[0]));
        for shards in [2usize, 3, 8] {
            let of = |kh: &crate::hash::KeyHashes, row: usize| shard_of(kh.hashes[row], shards);
            assert_eq!(of(&ha, 0), of(&ha, 2));
            assert_eq!(of(&ha, 0), of(&hb, 1));
            assert_eq!(of(&ha, 1), of(&hb, 0));
        }
    }

    #[test]
    fn routing_leaves_low_hash_bits_free() {
        // The shard-local hash maps bucket by the LOW hash bits; routing
        // must therefore not fix them. At S=4, every shard must still see
        // diverse low-bit patterns (a `hash % 4` router would pin them).
        let keys: Vec<Value> = (0..512).map(Value::Int).collect();
        let f = keyed_frame(&keys);
        let kh = hash_keys(&f, &[0]);
        let sel = shard_selections(&kh, 4);
        for (s, rows) in sel.iter().enumerate() {
            if rows.len() < 8 {
                continue;
            }
            let distinct_low: std::collections::HashSet<u64> =
                rows.iter().map(|&r| kh.hashes[r as usize] & 0b11).collect();
            assert!(
                distinct_low.len() > 1,
                "shard {s}: low bits pinned to {distinct_low:?}"
            );
        }
    }

    #[test]
    fn null_keys_route_to_shard_zero() {
        let f = keyed_frame(&[Value::Null, Value::Int(5), Value::Null]);
        let kh = hash_keys(&f, &[0]);
        let sel = shard_selections(&kh, 8);
        assert!(sel[0].contains(&0) && sel[0].contains(&2));
    }

    /// splitmix-style avalanche, so test hashes look like real ones.
    fn mix(i: u64) -> u64 {
        let mut z = i.wrapping_add(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// The reference the kernel must equal: after shard routing, keep the
    /// low 64 bits of `h·S` (the hash's place inside its shard's range),
    /// then pull one fan-out digit off that remainder per level.
    fn remainder_chain(hash: u64, shards: usize, fanout: usize, depth: usize) -> usize {
        let mut r = hash.wrapping_mul(shards as u64);
        for _ in 0..depth {
            r = r.wrapping_mul(fanout as u64);
        }
        ((r as u128 * fanout as u128) >> 64) as usize
    }

    /// Depths a spill split is taken at: 0 below the shard, then one per
    /// recursion level while a partition stays too large (`wake-core`'s
    /// `MAX_DEPTH` is 4).
    const DEPTHS: std::ops::Range<usize> = 0..4;

    #[test]
    fn spill_digits_equal_the_remainder_chain() {
        let edges = [0, 1, u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1];
        let hashes: Vec<u64> = edges.into_iter().chain((0..20_000).map(mix)).collect();
        for shards in [1usize, 2, 3, 8] {
            for fanout in [2usize, 3, 8] {
                for depth in DEPTHS {
                    let sel = spill_selections(&hashes, shards, fanout, depth);
                    for (p, rows) in sel.iter().enumerate() {
                        for &row in rows {
                            let h = hashes[row as usize];
                            assert_eq!(
                                p,
                                remainder_chain(h, shards, fanout, depth),
                                "h={h:#x} S={shards} F={fanout} d={depth}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn null_key_rows_go_to_shard_zero_and_keep_their_digit() {
        let keys: Vec<Value> = (0..300)
            .map(|i| {
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }
            })
            .collect();
        let kh = hash_keys(&keyed_frame(&keys), &[0]);
        for shards in [2usize, 3, 8] {
            let zero = &shard_selections(&kh, shards)[0];
            let zero_hashes: Vec<u64> = zero.iter().map(|&r| kh.hashes[r as usize]).collect();
            for depth in DEPTHS {
                let sel = spill_selections(&zero_hashes, shards, 8, depth);
                for (p, rows) in sel.iter().enumerate() {
                    for &i in rows {
                        let row = zero[i as usize] as usize;
                        let h = kh.hashes[row];
                        assert_eq!(p, remainder_chain(h, shards, 8, depth));
                    }
                }
            }
            let nulls = (0..300).filter(|&r| kh.is_null(r));
            assert!(nulls.clone().count() == 100);
            assert!(nulls.into_iter().all(|r| zero.contains(&(r as u32))));
        }
    }

    #[test]
    fn spill_partitions_cover_rows_disjointly_in_order() {
        let hashes: Vec<u64> = (0..500).map(mix).collect();
        for depth in DEPTHS {
            let sel = spill_selections(&hashes, 3, 8, depth);
            assert_eq!(sel.len(), 8);
            let mut all: Vec<u32> = sel.iter().flatten().copied().collect();
            assert!(sel.iter().all(|s| s.windows(2).all(|w| w[0] < w[1])));
            all.sort_unstable();
            assert_eq!(all, (0..500).collect::<Vec<u32>>());
        }
    }

    #[test]
    fn deeper_spill_levels_keep_splitting_one_partition() {
        // All hashes in one depth-0 partition must still spread out at
        // depth 1 — the recursion consumes fresh digits.
        let hashes: Vec<u64> = (0..50_000u64).map(mix).collect();
        let s0 = spill_selections(&hashes, 2, 8, 0);
        let bucket: Vec<u64> = s0[0].iter().map(|&r| hashes[r as usize]).collect();
        assert!(bucket.len() > 100);
        let s1 = spill_selections(&bucket, 2, 8, 1);
        let nonempty = s1.iter().filter(|s| !s.is_empty()).count();
        assert!(nonempty >= 6, "depth-1 split collapsed: {nonempty} parts");
    }

    #[test]
    fn spill_partition_is_stable_across_frames() {
        // Same hash -> same partition, regardless of which frame/row the
        // key appeared in (routing is content-deterministic).
        let a: Vec<u64> = [mix(1), mix(99), u64::MAX, 0, 1].to_vec();
        let b: Vec<u64> = a.iter().rev().copied().collect();
        for depth in DEPTHS {
            let of = |hashes: &[u64], h: u64| {
                let sel = spill_selections(hashes, 4, 8, depth);
                let row = hashes.iter().position(|&x| x == h).unwrap() as u32;
                sel.iter().position(|s| s.contains(&row)).unwrap()
            };
            for &h in &a {
                assert_eq!(of(&a, h), of(&b, h));
            }
        }
    }

    #[test]
    fn spill_balance_is_reasonable_for_mixed_hashes() {
        let hashes: Vec<u64> = (0..80_000u64).map(mix).collect();
        let sel = spill_selections(&hashes, 1, 8, 0);
        let expect = 80_000 / 8;
        for (p, s) in sel.iter().enumerate() {
            assert!(
                (s.len() as i64 - expect as i64).unsigned_abs() < expect as u64 / 2,
                "partition {p} badly skewed: {}",
                s.len()
            );
        }
    }

    #[test]
    fn scatter_then_select_reassembles_the_frame() {
        let keys: Vec<Value> = (0..40)
            .map(|i| {
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 7)
                }
            })
            .collect();
        let f = keyed_frame(&keys);
        let kh = hash_keys(&f, &[0]);
        let sel = shard_selections(&kh, 3);
        let total: usize = sel
            .iter()
            .map(|s| {
                let sub = f.select(s);
                let sub_h = kh.take(s);
                assert_eq!(sub.num_rows(), s.len());
                // Gathered hashes match hashes recomputed on the sub-frame.
                assert_eq!(sub_h.hashes, hash_keys(&sub, &[0]).hashes);
                sub.num_rows()
            })
            .sum();
        assert_eq!(total, 40);
    }
}
