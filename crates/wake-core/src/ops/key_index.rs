//! Shared hash-index machinery for hash-keyed operators (join, group-by).
//!
//! Both `JoinOp` and `AggOp` used to key `std::collections::HashMap` with a
//! [`wake_data::Row`] — one `Vec<Value>` allocation per input row. The
//! replacements here are keyed by the precomputed `u64` row hashes from
//! [`wake_data::hash::hash_keys`]; since those hashes are already avalanche-
//! mixed, the maps use a no-op pass-through hasher. Distinct keys can share
//! a 64-bit hash, so a bucket holds *candidates*: callers confirm every
//! candidate with a typed key comparison ([`wake_data::hash::keys_equal`] /
//! [`wake_data::hash::KeyStore::eq_row`]) before treating it as a match.

use crate::ops::RowRef;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Pass-through hasher for already-mixed `u64` keys.
#[derive(Debug, Default, Clone)]
pub struct IdentityHasher(u64);

impl Hasher for IdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("IdentityHasher is only for u64 keys");
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

pub type BuildIdentity = BuildHasherDefault<IdentityHasher>;

/// One distinct key's rows within a bucket. `rows[0]` is the
/// representative: every later insert and every probe compares against it
/// exactly once, so duplicate keys cost O(1) comparisons regardless of how
/// many rows share them (the property `HashMap<Row, Vec<_>>` had, without
/// its per-row key allocation).
#[derive(Debug, Default, Clone)]
struct KeyGroup {
    rows: Vec<RowRef>,
}

/// Map from key hash to the buffered rows bearing that hash — the
/// build-side state of a hash join. Equal hash does **not** imply equal
/// key, so each bucket partitions its rows into [`KeyGroup`]s of typed-equal
/// keys; callers supply the typed comparison as a closure over their frame
/// stores.
#[derive(Debug, Default, Clone)]
pub struct KeyIndex {
    map: HashMap<u64, Vec<KeyGroup>, BuildIdentity>,
}

impl KeyIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `row` under `hash`; `same_key(other)` must report whether
    /// `row`'s key equals the key of the already-indexed `other` row.
    pub fn insert(&mut self, hash: u64, row: RowRef, same_key: impl Fn(RowRef) -> bool) {
        let groups = self.map.entry(hash).or_default();
        match groups.iter_mut().find(|g| same_key(g.rows[0])) {
            Some(g) => g.rows.push(row),
            None => groups.push(KeyGroup { rows: vec![row] }),
        }
    }

    /// All rows whose key equals the probe key, given the probe's `hash`
    /// and a typed comparison against a candidate row. At most one group
    /// per bucket can match, and only group representatives are compared.
    pub fn matches(&self, hash: u64, same_key: impl Fn(RowRef) -> bool) -> &[RowRef] {
        self.map
            .get(&hash)
            .and_then(|groups| groups.iter().find(|g| same_key(g.rows[0])))
            .map_or(&[], |g| g.rows.as_slice())
    }

    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Approximate heap bytes.
    pub fn byte_size(&self) -> usize {
        self.map.len() * 16
            + self
                .map
                .values()
                .flat_map(|gs| gs.iter())
                .map(|g| 24 + g.rows.len() * 8)
                .sum::<usize>()
    }
}

/// Map from key hash to the group slots bearing that hash — the state of a
/// hash aggregate. Group keys themselves live in a typed
/// [`wake_data::hash::KeyStore`] owned by the operator.
#[derive(Debug, Default, Clone)]
pub struct GroupIndex {
    map: HashMap<u64, Vec<u32>, BuildIdentity>,
}

impl GroupIndex {
    pub fn new() -> Self {
        Self::default()
    }

    /// Candidate group slots for `hash` (confirm via `KeyStore::eq_row`).
    pub fn candidates(&self, hash: u64) -> &[u32] {
        self.map.get(&hash).map_or(&[], Vec::as_slice)
    }

    pub fn insert(&mut self, hash: u64, slot: u32) {
        self.map.entry(hash).or_default().push(slot);
    }

    pub fn byte_size(&self) -> usize {
        self.map.len() * 16 + self.map.values().map(|v| v.len() * 4).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_index_groups_duplicates_and_separates_keys() {
        // Key identity for this test: RowRef.1 parity (even/odd).
        let same = |a: RowRef, b: RowRef| a.1 % 2 == b.1 % 2;
        let mut idx = KeyIndex::new();
        idx.insert(7, (0, 0), |o| same((0, 0), o));
        idx.insert(7, (0, 2), |o| same((0, 2), o)); // duplicate key
        idx.insert(9, (1, 0), |o| same((1, 0), o));
        assert_eq!(idx.matches(7, |o| same((0, 4), o)), &[(0, 0), (0, 2)]);
        assert_eq!(idx.matches(9, |o| same((1, 2), o)), &[(1, 0)]);
        assert!(idx.matches(8, |_| true).is_empty());
        assert!(idx.byte_size() > 0);
        idx.clear();
        assert!(idx.matches(7, |_| true).is_empty());
    }

    #[test]
    fn forced_collision_resolved_by_typed_comparison() {
        // Simulate a 64-bit hash collision: two rows with DIFFERENT keys
        // inserted under the SAME hash. They must land in different groups
        // and a probe must return only the typed-equal group — the exact
        // filter JoinOp applies via `keys_equal`.
        use std::sync::Arc;
        use wake_data::hash::keys_equal;
        use wake_data::{Column, DataFrame, DataType, Field, Schema};

        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Int64)]));
        let build = DataFrame::new(schema.clone(), vec![Column::from_i64(vec![1, 2])]).unwrap();
        let probe = DataFrame::new(schema, vec![Column::from_i64(vec![2])]).unwrap();

        let mut idx = KeyIndex::new();
        let fake_hash = 0xdead_beef;
        let eq_build = |a: RowRef, b: RowRef| {
            keys_equal(&build, a.1 as usize, &[0], &build, b.1 as usize, &[0])
        };
        idx.insert(fake_hash, (0, 0), |o| eq_build((0, 0), o)); // key 1
        idx.insert(fake_hash, (0, 1), |o| eq_build((0, 1), o)); // key 2 — collides
        let matches = idx.matches(fake_hash, |(_, ri)| {
            keys_equal(&probe, 0, &[0], &build, ri as usize, &[0])
        });
        assert_eq!(
            matches,
            &[(0, 1)],
            "only the truly-equal key's group survives"
        );
    }

    #[test]
    fn group_index_buckets_by_hash() {
        let mut idx = GroupIndex::new();
        idx.insert(1, 0);
        idx.insert(1, 1); // hash collision: two groups, one bucket
        assert_eq!(idx.candidates(1), &[0, 1]);
        assert!(idx.candidates(2).is_empty());
    }
}
