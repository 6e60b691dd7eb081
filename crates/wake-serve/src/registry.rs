//! The served-query registry: per-query lifecycle records.
//!
//! Every admitted query gets a record tracking its status and (once
//! finished) its final [`RunStats`] — the backing store for the
//! protocols' `EXPLAIN ANALYZE` (which renders `stats.to_json()` when
//! asked) and `list` requests. Records survive the query (the whole
//! point: profiles are for *completed/cancelled* queries), bounded by a
//! ring of [`MAX_RECORDS`] so a long-lived server doesn't grow without
//! limit.
//!
//! A query cancelled while still queued never executes, but its record
//! stays readable and reports **zero work** (`RunStats::default()`, no
//! nodes): no stream was built, so no governor lease ever existed for it.

use std::collections::{HashMap, VecDeque};
use std::sync::{Mutex, MutexGuard};
use wake_engine::RunStats;

/// Lock a mutex, recovering the data if a previous holder panicked.
/// Every critical section in this crate leaves the shared state
/// consistent before any fallible operation — a registry update either
/// ran its closure to the end or left the record as the closure left it,
/// every field on its own valid — so a poisoned lock means a dead thread,
/// not corrupt data, and the server stays available.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Retained records; the oldest finished record is evicted past this.
pub const MAX_RECORDS: usize = 256;

/// Where a served query is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStatus {
    /// Admitted, waiting for a worker.
    Queued,
    /// Executing on a worker.
    Running,
    /// Ran to its exact final estimate, or stopped at its deadline with
    /// the best available estimate (`stopped_early` distinguishes).
    Completed,
    /// Cancelled — client disconnect, or cancelled while still queued.
    Cancelled,
    /// The query surfaced an execution error.
    Failed,
}

impl QueryStatus {
    pub fn as_str(self) -> &'static str {
        match self {
            QueryStatus::Queued => "queued",
            QueryStatus::Running => "running",
            QueryStatus::Completed => "completed",
            QueryStatus::Cancelled => "cancelled",
            QueryStatus::Failed => "failed",
        }
    }
}

/// One served query's lifecycle record.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    pub id: u64,
    pub name: String,
    pub status: QueryStatus,
    /// Final run statistics, per-node profiles included; the default —
    /// zero work, no nodes — while queued/running and when the query
    /// never built a stream.
    pub stats: RunStats,
    /// The query stopped at its deadline rather than completing.
    pub stopped_early: bool,
    pub error: Option<String>,
}

/// Thread-safe id → record map with FIFO eviction of finished records.
#[derive(Default)]
pub struct QueryRegistry {
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    records: HashMap<u64, QueryRecord>,
    order: VecDeque<u64>,
}

impl QueryRegistry {
    pub fn new() -> QueryRegistry {
        QueryRegistry::default()
    }

    /// Record an admitted query (status [`QueryStatus::Queued`]).
    pub fn admit(&self, id: u64, name: &str) {
        let mut inner = lock_recover(&self.inner);
        inner.records.insert(
            id,
            QueryRecord {
                id,
                name: name.to_string(),
                status: QueryStatus::Queued,
                stats: RunStats::default(),
                stopped_early: false,
                error: None,
            },
        );
        inner.order.push_back(id);
        while inner.order.len() > MAX_RECORDS {
            // Evict the oldest *finished* record; never a live query.
            let Some(pos) = inner.order.iter().position(|id| {
                !matches!(
                    inner.records.get(id).map(|r| r.status),
                    Some(QueryStatus::Queued) | Some(QueryStatus::Running)
                )
            }) else {
                break;
            };
            if let Some(evicted) = inner.order.remove(pos) {
                inner.records.remove(&evicted);
            }
        }
    }

    /// Mutate the record for `id`, if present.
    pub fn update(&self, id: u64, f: impl FnOnce(&mut QueryRecord)) {
        let mut inner = lock_recover(&self.inner);
        if let Some(rec) = inner.records.get_mut(&id) {
            f(rec);
        }
    }

    pub fn get(&self, id: u64) -> Option<QueryRecord> {
        lock_recover(&self.inner).records.get(&id).cloned()
    }

    /// All retained records in admission order.
    pub fn list(&self) -> Vec<QueryRecord> {
        let inner = lock_recover(&self.inner);
        inner
            .order
            .iter()
            .filter_map(|id| inner.records.get(id).cloned())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_eviction() {
        let reg = QueryRegistry::new();
        reg.admit(1, "q");
        assert_eq!(reg.get(1).unwrap().status, QueryStatus::Queued);
        reg.update(1, |r| r.status = QueryStatus::Running);
        reg.update(1, |r| {
            r.status = QueryStatus::Completed;
            r.stats.peak_state_bytes = 9;
        });
        let rec = reg.get(1).unwrap();
        assert_eq!(rec.status, QueryStatus::Completed);
        assert_eq!(rec.stats.peak_state_bytes, 9);

        // Ring eviction removes finished records oldest-first, never live
        // ones.
        for id in 2..(MAX_RECORDS as u64 + 3) {
            reg.admit(id, "q");
            reg.update(id, |r| r.status = QueryStatus::Completed);
        }
        assert!(reg.get(1).is_none(), "oldest finished record evicted");
        assert_eq!(reg.list().len(), MAX_RECORDS);
    }

    #[test]
    fn queued_then_cancelled_reports_zero_work() {
        let reg = QueryRegistry::new();
        reg.admit(7, "never-ran");
        reg.update(7, |r| r.status = QueryStatus::Cancelled);
        let rec = reg.get(7).unwrap();
        assert_eq!(rec.status, QueryStatus::Cancelled);
        assert_eq!(rec.stats.peak_state_bytes, 0);
        assert_eq!(rec.stats.spill.spilled_bytes, 0);
        assert!(rec.stats.nodes.is_empty());
    }

    #[test]
    fn a_panic_under_the_lock_leaves_the_registry_serving() {
        let reg = QueryRegistry::new();
        reg.admit(1, "q");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.update(1, |r| {
                r.status = QueryStatus::Running;
                panic!("caller's closure dies holding the registry lock");
            })
        }));
        assert!(panicked.is_err());
        assert!(reg.inner.is_poisoned());
        // Every entry point still answers, from what the closure left.
        assert_eq!(reg.get(1).unwrap().status, QueryStatus::Running);
        reg.update(1, |r| r.status = QueryStatus::Failed);
        reg.admit(2, "q");
        let statuses: Vec<_> = reg.list().iter().map(|r| r.status).collect();
        assert_eq!(statuses, [QueryStatus::Failed, QueryStatus::Queued]);
    }
}
