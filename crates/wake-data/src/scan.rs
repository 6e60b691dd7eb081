//! Zone-map pruning primitives shared by the planner and segment sources.
//!
//! A persisted table is stored as fixed-row *zones*, each carrying per-column
//! min/max/null-count statistics. A conjunctive range/equality predicate
//! pushed down from a `FilterOp` is evaluated against those statistics to
//! decide, per zone, whether the zone can be skipped entirely without
//! decoding it ([`ZoneDecision::Prune`]), must be read ([`ZoneDecision::Keep`]
//! or [`ZoneDecision::KeepFilter`]). Pruning never replaces the filter — the
//! `FilterOp` stays in the plan — so a decision can only skip I/O, never
//! change results: a pruned zone is one where *no* row can satisfy the
//! conjunction.
//!
//! Pruning interacts with online aggregation through the population the
//! progress ratio `t` ranges over: a pruned source reports only surviving
//! zones in `TableMeta::partition_rows`, so the growth model estimates over
//! the retained population and `until_confidence` stays unbiased (the rows
//! skipped are exactly rows the filter would drop anyway).

use crate::value::Value;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Comparison operator of a pushed-down predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
}

impl fmt::Display for PredOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PredOp::Lt => "<",
            PredOp::Le => "<=",
            PredOp::Gt => ">",
            PredOp::Ge => ">=",
            PredOp::Eq => "=",
        };
        f.write_str(s)
    }
}

/// One conjunct of a pushed-down filter: `column op literal`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColPredicate {
    pub column: String,
    pub op: PredOp,
    pub value: Value,
}

impl fmt::Display for ColPredicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.value)
    }
}

/// Per-zone, per-column statistics recorded in a segment footer.
///
/// `min`/`max` cover only non-null values; for float columns NaN values are
/// additionally excluded (NaN compares greater than everything in `Value`'s
/// total order, which would make max bounds vacuous). `has_nan` records that
/// exclusion so the pruner knows the bounds are incomplete. A zone whose
/// values are all null (or all NaN) stores `Value::Null` bounds, meaning
/// "no usable bounds".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ZoneStats {
    pub min: Value,
    pub max: Value,
    pub null_count: usize,
    pub row_count: usize,
    /// True if the column holds NaN values not reflected in `min`/`max`.
    pub has_nan: bool,
}

impl ZoneStats {
    /// Stats for an empty zone (no rows, no bounds).
    pub fn empty() -> Self {
        ZoneStats {
            min: Value::Null,
            max: Value::Null,
            null_count: 0,
            row_count: 0,
            has_nan: false,
        }
    }

    fn has_bounds(&self) -> bool {
        !self.min.is_null() && !self.max.is_null()
    }
}

/// The tri-state outcome of evaluating predicates against a zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZoneDecision {
    /// No row in the zone can satisfy the conjunction: skip without decoding.
    Prune,
    /// Every row in the zone satisfies the conjunction; the residual filter
    /// is a no-op on this zone (still applied — decisions never remove it).
    Keep,
    /// Some rows may satisfy: decode and let the filter decide per row.
    KeepFilter,
}

/// Evaluate one predicate against one column's zone stats.
///
/// Conservative by construction: anything outside the provable cases
/// degrades to [`ZoneDecision::KeepFilter`]. Null cells never satisfy a
/// comparison, so "all rows match" additionally requires a zero null count.
pub fn decide_zone(pred: &ColPredicate, stats: &ZoneStats) -> ZoneDecision {
    if stats.row_count == 0 {
        // An empty zone trivially has no matching rows.
        return ZoneDecision::Prune;
    }
    if stats.null_count == stats.row_count {
        // All nulls: no comparison can hold.
        return ZoneDecision::Prune;
    }
    if !stats.has_bounds() {
        return ZoneDecision::KeepFilter;
    }
    let lit = &pred.value;
    if lit.is_null() {
        // `col op NULL` matches nothing; the residual filter handles it.
        return ZoneDecision::KeepFilter;
    }
    if let Some(f) = lit.as_f64() {
        if f.is_nan() {
            // NaN comparisons are all-false; leave it to the filter.
            return ZoneDecision::KeepFilter;
        }
    }
    // Bounds and literal must be type-compatible (same type_rank bucket) for
    // the total order to mean what the filter's comparison means.
    if !comparable(&stats.min, lit) || !comparable(&stats.max, lit) {
        return ZoneDecision::KeepFilter;
    }
    let (min, max) = (&stats.min, &stats.max);
    // Filters compare with `Value` total-order semantics: NaN sorts after
    // everything, so NaN cells *satisfy* `>`/`>=` against any non-NaN
    // literal. Hidden NaNs are excluded from `max`, so those ops cannot
    // prune on it.
    let nan_blocks_upper = stats.has_nan;
    let prunable = match pred.op {
        PredOp::Lt => min >= lit,
        PredOp::Le => min > lit,
        PredOp::Gt => max <= lit && !nan_blocks_upper,
        PredOp::Ge => max < lit && !nan_blocks_upper,
        PredOp::Eq => lit < min || lit > max,
    };
    if prunable {
        return ZoneDecision::Prune;
    }
    // "All rows match" requires no nulls and no hidden NaNs in the zone.
    if stats.null_count > 0 || stats.has_nan {
        return ZoneDecision::KeepFilter;
    }
    let all_match = match pred.op {
        PredOp::Lt => max < lit,
        PredOp::Le => max <= lit,
        PredOp::Gt => min > lit,
        PredOp::Ge => min >= lit,
        PredOp::Eq => min == lit && max == lit,
    };
    if all_match {
        ZoneDecision::Keep
    } else {
        ZoneDecision::KeepFilter
    }
}

/// Evaluate a conjunction, given each predicate with its column's zone
/// stats (`None` = no stats for that column, which cannot prune): prune if
/// *any* predicate prunes, keep only if *all* predicates keep outright.
pub fn decide_zone_all<'a>(
    preds: impl IntoIterator<Item = (&'a ColPredicate, Option<&'a ZoneStats>)>,
) -> ZoneDecision {
    let mut decision = ZoneDecision::Keep;
    for (pred, stats) in preds {
        match stats.map_or(ZoneDecision::KeepFilter, |s| decide_zone(pred, s)) {
            ZoneDecision::Prune => return ZoneDecision::Prune,
            ZoneDecision::KeepFilter => decision = ZoneDecision::KeepFilter,
            ZoneDecision::Keep => {}
        }
    }
    decision
}

fn comparable(bound: &Value, lit: &Value) -> bool {
    match (bound.data_type(), lit.data_type()) {
        (Some(a), Some(b)) => {
            a == b
                || (a.is_numeric() || a == crate::value::DataType::Date)
                    && (b.is_numeric() || b == crate::value::DataType::Date)
        }
        _ => false,
    }
}

/// Declare a snapshot struct of additive counters. The field list is
/// written once, in the declaration; `merge` and `fields` are derived
/// from it, so whatever sums, exports or renders a counter set picks up
/// a new counter without being told.
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* pub struct $name:ident: $ty:ty { $($(#[$doc:meta])* $field:ident,)* }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        impl $name {
            /// Component-wise sum.
            pub fn merge(&mut self, other: &$name) {
                $(self.$field += other.$field;)*
            }

            /// Every counter as `(name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($field), self.$field as u64)),*].into_iter()
            }
        }
    };
}

counters! {
    /// A snapshot of scan-side counters for one run.
    pub struct ScanMetrics: u64 {
        /// Zones in the table(s) before pruning.
        zones_total,
        /// Zones skipped by the zone pruner (never decoded).
        zones_pruned,
        /// Zones actually read and decoded.
        zones_scanned,
        /// Compressed bytes read from segment files.
        compressed_bytes,
        /// Bytes after decompression (logical column payload size).
        decompressed_bytes,
        /// Wall-clock nanoseconds spent decoding zones.
        decode_nanos,
        /// Columns the scan returns (after projection pushdown).
        columns_read,
        /// Columns the table(s) store.
        columns_total,
    }
}

/// Thread-safe scan counters, one ledger per segment source *view*: the
/// shape counters (zones total/pruned, columns read/total) describe the
/// view and are fixed when it is made; the work counters (zones scanned,
/// bytes, decode time) start at zero.
#[derive(Debug, Default)]
pub struct ScanTelemetry {
    zones_total: AtomicU64,
    zones_pruned: AtomicU64,
    zones_scanned: AtomicU64,
    compressed_bytes: AtomicU64,
    decompressed_bytes: AtomicU64,
    decode_nanos: AtomicU64,
    columns_read: AtomicU64,
    columns_total: AtomicU64,
}

// Every `ScanTelemetry` cell is an independent monotone counter read
// only by `snapshot`, which tolerates a torn cross-counter view —
// eventual visibility is the whole contract, so all accesses funnel
// through these helpers.

// relaxed: independent telemetry counter; snapshot tolerates staleness
fn tel_add(cell: &AtomicU64, n: u64) {
    cell.fetch_add(n, Ordering::Relaxed);
}

// relaxed: independent telemetry counter; snapshot tolerates staleness
fn tel_get(cell: &AtomicU64) -> u64 {
    cell.load(Ordering::Relaxed)
}

impl ScanTelemetry {
    /// The ledger of a view of this shape, with no work yet: a fresh one
    /// per view, so run stats never leak across queries sharing a base
    /// source.
    pub fn new(
        zones_total: u64,
        zones_pruned: u64,
        columns_read: u64,
        columns_total: u64,
    ) -> Arc<Self> {
        Arc::new(ScanTelemetry {
            zones_total: zones_total.into(),
            zones_pruned: zones_pruned.into(),
            columns_read: columns_read.into(),
            columns_total: columns_total.into(),
            ..ScanTelemetry::default()
        })
    }

    pub fn record_zone_scan(&self, compressed: u64, decompressed: u64, nanos: u64) {
        tel_add(&self.zones_scanned, 1);
        tel_add(&self.compressed_bytes, compressed);
        tel_add(&self.decompressed_bytes, decompressed);
        tel_add(&self.decode_nanos, nanos);
    }

    pub fn snapshot(&self) -> ScanMetrics {
        ScanMetrics {
            zones_total: tel_get(&self.zones_total),
            zones_pruned: tel_get(&self.zones_pruned),
            zones_scanned: tel_get(&self.zones_scanned),
            compressed_bytes: tel_get(&self.compressed_bytes),
            decompressed_bytes: tel_get(&self.decompressed_bytes),
            decode_nanos: tel_get(&self.decode_nanos),
            columns_read: tel_get(&self.columns_read),
            columns_total: tel_get(&self.columns_total),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(min: Value, max: Value, nulls: usize, rows: usize) -> ZoneStats {
        ZoneStats {
            min,
            max,
            null_count: nulls,
            row_count: rows,
            has_nan: false,
        }
    }

    fn pred(col: &str, op: PredOp, value: Value) -> ColPredicate {
        ColPredicate {
            column: col.into(),
            op,
            value,
        }
    }

    #[test]
    fn range_pruning_tri_state() {
        let s = stats(Value::Int(10), Value::Int(20), 0, 100);
        // Entirely below the zone: prune.
        assert_eq!(
            decide_zone(&pred("x", PredOp::Lt, Value::Int(10)), &s),
            ZoneDecision::Prune
        );
        // Entirely covers the zone: keep outright.
        assert_eq!(
            decide_zone(&pred("x", PredOp::Le, Value::Int(20)), &s),
            ZoneDecision::Keep
        );
        // Straddles: keep and filter.
        assert_eq!(
            decide_zone(&pred("x", PredOp::Lt, Value::Int(15)), &s),
            ZoneDecision::KeepFilter
        );
        // Equality outside bounds: prune; inside: filter.
        assert_eq!(
            decide_zone(&pred("x", PredOp::Eq, Value::Int(5)), &s),
            ZoneDecision::Prune
        );
        assert_eq!(
            decide_zone(&pred("x", PredOp::Eq, Value::Int(15)), &s),
            ZoneDecision::KeepFilter
        );
    }

    #[test]
    fn nulls_block_keep_but_not_prune() {
        let s = stats(Value::Int(10), Value::Int(20), 5, 100);
        assert_eq!(
            decide_zone(&pred("x", PredOp::Le, Value::Int(20)), &s),
            ZoneDecision::KeepFilter
        );
        assert_eq!(
            decide_zone(&pred("x", PredOp::Gt, Value::Int(20)), &s),
            ZoneDecision::Prune
        );
        // All-null zone prunes any comparison.
        let all_null = stats(Value::Null, Value::Null, 7, 7);
        assert_eq!(
            decide_zone(&pred("x", PredOp::Ge, Value::Int(0)), &all_null),
            ZoneDecision::Prune
        );
    }

    #[test]
    fn nan_literal_and_hidden_nan_degrade() {
        let s = stats(Value::Float(1.0), Value::Float(2.0), 0, 10);
        assert_eq!(
            decide_zone(&pred("x", PredOp::Lt, Value::Float(f64::NAN)), &s),
            ZoneDecision::KeepFilter
        );
        let mut with_nan = stats(Value::Float(1.0), Value::Float(2.0), 0, 10);
        with_nan.has_nan = true;
        // Hidden NaN blocks "all match" but not pruning of the known range.
        assert_eq!(
            decide_zone(&pred("x", PredOp::Le, Value::Float(2.0)), &with_nan),
            ZoneDecision::KeepFilter
        );
        assert_eq!(
            decide_zone(&pred("x", PredOp::Gt, Value::Float(5.0)), &with_nan),
            ZoneDecision::KeepFilter,
            "NaN rows are not bounded by max, so > 5.0 cannot prune"
        );
    }

    #[test]
    fn conjunction_prune_dominates() {
        let a = stats(Value::Int(0), Value::Int(9), 0, 10);
        let b = stats(Value::Int(100), Value::Int(200), 0, 10);
        let decide = |preds: &[ColPredicate]| {
            decide_zone_all(preds.iter().map(|p| {
                let stats = match p.column.as_str() {
                    "a" => Some(&a),
                    "b" => Some(&b),
                    _ => None,
                };
                (p, stats)
            }))
        };
        // `a >= 0` keeps all, `b < 50` prunes: conjunction prunes.
        let preds = vec![
            pred("a", PredOp::Ge, Value::Int(0)),
            pred("b", PredOp::Lt, Value::Int(50)),
        ];
        assert_eq!(decide(&preds), ZoneDecision::Prune);
        // Both keep outright.
        let preds = vec![
            pred("a", PredOp::Ge, Value::Int(0)),
            pred("b", PredOp::Le, Value::Int(200)),
        ];
        assert_eq!(decide(&preds), ZoneDecision::Keep);
        // Unknown column degrades to KeepFilter.
        let preds = vec![pred("zzz", PredOp::Eq, Value::Int(1))];
        assert_eq!(decide(&preds), ZoneDecision::KeepFilter);
    }

    #[test]
    fn mixed_numeric_types_compare() {
        let s = stats(Value::Date(8766), Value::Date(9131), 0, 10);
        assert_eq!(
            decide_zone(&pred("d", PredOp::Lt, Value::Date(8766)), &s),
            ZoneDecision::Prune
        );
        // Int literal against date bounds compares numerically.
        assert_eq!(
            decide_zone(&pred("d", PredOp::Ge, Value::Int(10000)), &s),
            ZoneDecision::Prune
        );
        // String literal against numeric bounds: incomparable, filter.
        assert_eq!(
            decide_zone(&pred("d", PredOp::Eq, Value::str("x")), &s),
            ZoneDecision::KeepFilter
        );
    }

    #[test]
    fn telemetry_accumulates_and_snapshots() {
        let t = ScanTelemetry::new(10, 4, 4, 16);
        t.record_zone_scan(100, 400, 50);
        t.record_zone_scan(200, 800, 70);
        let m = t.snapshot();
        assert_eq!(m.zones_total, 10);
        assert_eq!(m.zones_pruned, 4);
        assert_eq!(m.zones_scanned, 2);
        assert_eq!(m.compressed_bytes, 300);
        assert_eq!(m.decompressed_bytes, 1200);
        assert_eq!(m.decode_nanos, 120);
        assert_eq!((m.columns_read, m.columns_total), (4, 16));
        let mut sum = ScanMetrics::default();
        sum.merge(&m);
        sum.merge(&m);
        assert_eq!(sum.zones_scanned, 4);
        assert_eq!((sum.columns_read, sum.columns_total), (8, 32));
    }
}
