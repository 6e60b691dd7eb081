//! The benchmark's arithmetic: medians, the per-query "median, then sum"
//! aggregation every end-to-end timing uses, and the "within 1 % and
//! stays so" rule behind `time_to_1pct_s`.

/// Median of `values` (mean of the two middle values for an even count).
/// Empty input is 0, so a workload that ran nothing reports 0 and fails
/// the "attempted ≥ 1" check rather than panicking.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `(min, median, max)` of `values`.
pub fn min_median_max(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (min, median(values), max)
}

/// The end-to-end aggregation: `samples[q]` holds query `q`'s timed
/// samples; each query contributes its median, and the workload's figure
/// is the sum. One slow pass therefore moves a query's median by at most
/// one rank instead of shifting the whole sum.
pub fn median_then_sum<'a>(samples: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    samples.into_iter().map(median).sum()
}

/// Index of the first estimate from which `ok` holds for every later
/// estimate too — the "≤ 1 % and stays so" rule. `ok` is asked from the
/// back and no further than the last violation, so a long stream costs
/// one comparison per estimate of its settled tail. The final estimate
/// is the query's own answer and is taken as within bound: with no
/// earlier estimate in bound the result is `n - 1`, the final's index.
pub fn settle_index(n: usize, mut ok: impl FnMut(usize) -> bool) -> usize {
    let mut first = n.saturating_sub(1);
    while first > 0 && ok(first - 1) {
        first -= 1;
    }
    first
}

/// Relative change from `a` to `b` as a share of `a`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (b - a).abs() / a.abs()
}

/// Deterministic 64-bit generator (splitmix64) for the serve request
/// order — the benchmark's only randomness besides the data generator's
/// own, and both derive from `--seed`.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min_median_max(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
    }

    #[test]
    fn median_then_sum_ignores_one_slow_pass() {
        // Two queries, three passes; the third pass stalled on query 0.
        let samples = [[1.0, 1.1, 9.0], [2.0, 2.2, 2.1]];
        let total = || median_then_sum(samples.iter().map(|s| s.as_slice()));
        assert!((total() - (1.1 + 2.1)).abs() < 1e-12);
        // Summing first and taking the median of pass totals would not
        // separate the queries: passes total 3.0, 3.3, 11.1 → 3.3.
        assert!(total() < 3.3);
        assert_eq!(median_then_sum(std::iter::empty()), 0.0);
    }

    #[test]
    fn settle_requires_staying_within_bound() {
        // errors per estimate, final last; bound 1.0
        let settled = |errs: &[f64]| settle_index(errs.len(), |i| errs[i] <= 1.0);
        // An early dip that goes back up does not count.
        assert_eq!(settled(&[0.5, 5.0, 0.8, 0.2, 0.0]), 2);
        // Never within bound before the final: the final's index.
        assert_eq!(settled(&[9.0, 8.0, 7.0, 0.0]), 3);
        // Within bound from the first estimate.
        assert_eq!(settled(&[0.9, 0.5, 0.0]), 0);
        // A single (final-only) estimate.
        assert_eq!(settled(&[0.0]), 0);
        assert_eq!(settle_index(0, |_| true), 0);
    }

    #[test]
    fn settle_stops_asking_at_the_last_violation() {
        let errs = [0.1, 0.1, 7.0, 0.3, 0.0];
        let mut asked = Vec::new();
        let idx = settle_index(errs.len(), |i| {
            asked.push(i);
            errs[i] <= 1.0
        });
        assert_eq!(idx, 3);
        assert_eq!(asked, vec![3, 2]);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = SplitMix64(7).permutation(22);
        let b = SplitMix64(7).permutation(22);
        let c = SplitMix64(8).permutation(22);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..22).collect::<Vec<_>>());
    }

    #[test]
    fn rel_diff_is_a_share_of_the_first() {
        assert!((rel_diff(2.0, 2.2) - 0.1).abs() < 1e-12);
        assert!((rel_diff(2.0, 1.8) - 0.1).abs() < 1e-12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
    }
}
