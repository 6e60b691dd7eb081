//! # wake-obs
//!
//! Observability for Wake query execution: the instruments (atomic
//! counters, gauges, fixed-bucket histograms), the one statistics record
//! both drivers produce ([`RunStats`], one [`NodeProfile`] per plan
//! node), its `EXPLAIN ANALYZE` rendering (annotated plan tree +
//! machine-readable JSON), and at `Profile` the pipelined-execution
//! timeline ([`render_timeline`]).
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when off.** Instrumentation is gated by [`ObsLevel`];
//!    at `Off` the engine builds no [`NodeObs`], so an actor reads no
//!    clock and touches no counter (one `Option` check per message).
//! 2. **Lock-free at `Stats`.** A node's counters are a plain struct
//!    built with the plan — five counters and a gauge at `Stats`, two
//!    histograms and a ring of busy spans more at `Profile`, nothing
//!    looked up by name; the `Stats` hot path is relaxed atomic adds — no
//!    allocation, no locks, no branches beyond the level check. `Profile`
//!    adds one lock per unit of work, on the node's own span ring, which
//!    only that node's actor writes.
//! 3. **One record, readable at any point in the query's life.** The
//!    engine's ledger keeps one entry per node and snapshots it into one
//!    [`RunStats`]; snapshots read shared atomics, so they can be taken
//!    from live, exhausted, cancelled, and error-terminated streams
//!    alike. A counter set ([`wake_store::SpillMetrics`],
//!    [`wake_data::ScanMetrics`]) lists its fields once, in its own
//!    crate; sums, JSON and rendering here loop over that list.

pub mod json;
mod metrics;
mod profile;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, LATENCY_BOUNDS_NS, ROWS_BOUNDS};
pub use profile::{render_timeline, NodeObs, NodeProfile, RunStats};

/// How much the engines record while a query runs.
///
/// Resolved on `EngineConfig` with a `WAKE_OBS` environment fallback
/// (`off` / `stats` / `profile`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum ObsLevel {
    /// No instrumentation at all: the executors run the exact
    /// pre-observability hot path. `RunStats.nodes` is empty.
    #[default]
    Off,
    /// Per-node counters only: rows/frames in and out, busy time, state
    /// bytes, attributed spill and scan work. A handful of relaxed
    /// atomic adds per frame.
    Stats,
    /// Everything in `Stats` plus per-update latency/row histograms,
    /// per-shard state detail, and each node's newest busy spans (the
    /// pipelined-execution timeline of the paper's Fig 13).
    Profile,
}

impl ObsLevel {
    /// Parse a level name as used by the `WAKE_OBS` environment knob.
    /// Unrecognised values yield `None` (callers fall back to `Off`).
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(ObsLevel::Off),
            "stats" | "1" => Some(ObsLevel::Stats),
            "profile" | "full" | "2" => Some(ObsLevel::Profile),
            _ => None,
        }
    }

    /// Is any recording enabled?
    pub fn enabled(self) -> bool {
        self != ObsLevel::Off
    }

    /// Are histograms and per-shard detail enabled?
    pub fn is_profile(self) -> bool {
        self == ObsLevel::Profile
    }

    /// The level's canonical name (round-trips through [`parse`]).
    ///
    /// [`parse`]: ObsLevel::parse
    pub fn name(self) -> &'static str {
        match self {
            ObsLevel::Off => "off",
            ObsLevel::Stats => "stats",
            ObsLevel::Profile => "profile",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing_round_trips() {
        for lvl in [ObsLevel::Off, ObsLevel::Stats, ObsLevel::Profile] {
            assert_eq!(ObsLevel::parse(lvl.name()), Some(lvl));
        }
        assert_eq!(ObsLevel::parse(" Profile "), Some(ObsLevel::Profile));
        assert_eq!(ObsLevel::parse("1"), Some(ObsLevel::Stats));
        assert_eq!(ObsLevel::parse("zap"), None);
        assert!(!ObsLevel::Off.enabled());
        assert!(ObsLevel::Stats.enabled() && !ObsLevel::Stats.is_profile());
        assert!(ObsLevel::Profile.is_profile());
        assert!(ObsLevel::Off < ObsLevel::Stats && ObsLevel::Stats < ObsLevel::Profile);
    }
}
