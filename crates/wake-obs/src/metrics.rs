//! The instruments: atomic counters, gauges, and fixed-bucket
//! histograms. Recording is a plain relaxed atomic add — no allocation,
//! no locking, no bucket search beyond a linear scan over a small fixed
//! bound table.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicUsize);

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: usize) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn get(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// Power-of-4 latency bucket upper bounds in nanoseconds: 1µs, 4µs,
/// 16µs, …, ~4.4s; values above the last bound land in the overflow
/// bucket. Power-of-4 keeps the table small (12 bounds) while spanning
/// sub-microsecond operator updates to multi-second stalls.
pub const LATENCY_BOUNDS_NS: &[u64] = &[
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    1 << 32,
];

/// Power-of-4 row-count bucket upper bounds: 1, 4, 16, …, ~16.7M rows
/// per update.
pub const ROWS_BOUNDS: &[u64] = &[
    1,
    1 << 2,
    1 << 4,
    1 << 6,
    1 << 8,
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
];

/// A fixed-bucket histogram: static bound table, atomic counts, atomic
/// sum. Bounds are upper-inclusive; one extra overflow bucket catches
/// everything above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Histogram {
    pub fn new(bounds: &'static [u64]) -> Self {
        let counts = (0..bounds.len() + 1)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Histogram {
            bounds,
            counts,
            sum: AtomicU64::new(0),
        }
    }

    /// Per-update latency histogram ([`LATENCY_BOUNDS_NS`]).
    pub fn latency() -> Self {
        Histogram::new(LATENCY_BOUNDS_NS)
    }

    /// Per-update row-count histogram ([`ROWS_BOUNDS`]).
    pub fn rows() -> Self {
        Histogram::new(ROWS_BOUNDS)
    }

    #[inline]
    pub fn record(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            bounds: self.bounds.to_vec(),
            total: counts.iter().sum(),
            counts,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper-inclusive bucket bounds; `counts` has one extra overflow
    /// entry.
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Number of recorded values.
    pub total: u64,
}

impl HistogramSnapshot {
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (the overflow bucket reports the last bound).
    pub fn quantile_bound(&self, q: f64) -> u64 {
        let target = (q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target.max(1) {
                return self
                    .bounds
                    .get(i)
                    .copied()
                    .unwrap_or_else(|| self.bounds.last().copied().unwrap_or(0));
            }
        }
        self.bounds.last().copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let c = Counter::new();
        c.add(5);
        c.inc();
        assert_eq!(c.get(), 6);
        let g = Gauge::new();
        g.set(10);
        g.set(40);
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::rows();
        for v in [0, 1, 4, 5, 100, 1 << 25] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.total, 6);
        assert_eq!(s.sum, 1 + 4 + 5 + 100 + (1u64 << 25));
        // 0 and 1 land in the first bucket (bound 1), 4 in the second,
        // 5 in the third (bound 16), the giant value in overflow.
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.counts[2], 1);
        assert_eq!(*s.counts.last().unwrap(), 1);
        assert!(s.mean() > 0.0);
        assert_eq!(s.quantile_bound(0.0), 1);
        // Overflow quantile reports the last finite bound.
        assert_eq!(s.quantile_bound(1.0), *ROWS_BOUNDS.last().unwrap());
        assert!(HistogramSnapshot::default().is_empty());
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
        assert_eq!(HistogramSnapshot::default().quantile_bound(0.5), 0);
    }
}
