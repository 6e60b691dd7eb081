//! The server-wide memory ledger: one byte budget shared by every
//! resident query.
//!
//! A [`GlobalGovernor`] owns a **total** byte budget for a whole process
//! (the wake-serve server), and leases a slice of it to each running
//! query's [`MemoryGovernor`]. Leases are *dynamic*: whenever a query
//! enters or leaves, every resident query's budget is re-apportioned to
//! an equal share of the total, so admitting a new query shrinks the
//! slices of the queries already running and finishing one grows them.
//! Operators read their budget through the governor on every enforcement
//! check, so a shrunken lease takes effect at the very next fold.
//!
//! Equal shares are also the fairness policy the ISSUE asks for: when the
//! total tightens, the query holding the **largest** resident state is
//! the one furthest over its (now equal) slice, so it evicts first —
//! the query-level mirror of the per-shard largest-partition eviction
//! rule.
//!
//! Detach is automatic: the lease holds only a [`Weak`] reference, and
//! [`MemoryGovernor`]'s `Drop` pokes the global ledger, which prunes dead
//! leases and rebalances. A cancelled or completed query therefore
//! returns its slice without any cooperation from the caller, and an
//! idle ledger ([`GlobalGovernor::is_idle`]) is the steady-state
//! invariant servers assert between requests.

use crate::governor::MemoryGovernor;
use std::sync::{Arc, Mutex, Weak};

/// One per-query lease: the leased governor plus an optional per-query
/// cap (an explicit `WAKE_MEM_BUDGET`-style budget that should never be
/// *raised* by the global share).
#[derive(Debug)]
struct Lease {
    governor: Weak<MemoryGovernor>,
    cap: Option<usize>,
}

/// A process-wide byte budget leased out in equal shares to per-query
/// [`MemoryGovernor`]s. See the module docs for the policy.
#[derive(Debug)]
pub struct GlobalGovernor {
    total: usize,
    leases: Mutex<Vec<Lease>>,
}

impl GlobalGovernor {
    /// A global ledger owning `total_bytes` (clamped to at least 1).
    pub fn new(total_bytes: usize) -> Arc<GlobalGovernor> {
        Arc::new(GlobalGovernor {
            total: total_bytes.max(1),
            leases: Mutex::new(Vec::new()),
        })
    }

    /// The fixed total this ledger apportions.
    pub fn total_bytes(&self) -> usize {
        self.total
    }

    /// Lease a slice of the total to `governor` and rebalance every
    /// resident lease to the new equal share. `cap` bounds this query's
    /// share from above (an explicit per-query budget keeps meaning "at
    /// most this many bytes" even when the global share would be larger).
    pub fn attach(self: &Arc<Self>, governor: &Arc<MemoryGovernor>, cap: Option<usize>) {
        self.leases.lock().expect("global lease lock").push(Lease {
            governor: Arc::downgrade(governor),
            cap,
        });
        self.rebalance();
    }

    /// Prune dead leases and set every live governor's budget to
    /// `min(total / live_leases, cap)`. Called on attach and (via
    /// [`MemoryGovernor`]'s `Drop`) on detach; callers may also invoke it
    /// directly after bulk changes.
    pub fn rebalance(&self) {
        let mut leases = self.leases.lock().expect("global lease lock");
        leases.retain(|l| l.governor.strong_count() > 0);
        if leases.is_empty() {
            return;
        }
        let share = (self.total / leases.len()).max(1);
        for lease in leases.iter() {
            if let Some(g) = lease.governor.upgrade() {
                let slice = match lease.cap {
                    Some(cap) => share.min(cap),
                    None => share,
                };
                g.set_budget(Some(slice.max(1)));
            }
        }
    }

    /// Number of live leases (queries currently holding a slice).
    pub fn active_leases(&self) -> usize {
        let mut leases = self.leases.lock().expect("global lease lock");
        leases.retain(|l| l.governor.strong_count() > 0);
        leases.len()
    }

    /// Sum of the budgets currently granted to live leases.
    pub fn leased_bytes(&self) -> usize {
        let mut leases = self.leases.lock().expect("global lease lock");
        leases.retain(|l| l.governor.strong_count() > 0);
        leases
            .iter()
            .filter_map(|l| l.governor.upgrade())
            .filter_map(|g| g.budget())
            .sum()
    }

    /// True when no query holds a lease — the whole total is available.
    /// Servers assert this between requests: a query that ends without
    /// returning the ledger to idle has leaked a governor.
    pub fn is_idle(&self) -> bool {
        self.active_leases() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::SpillConfig;

    #[test]
    fn attach_rebalances_to_equal_shares_and_detach_returns_them() {
        let global = GlobalGovernor::new(9000);
        assert!(global.is_idle());
        let a = Arc::new(MemoryGovernor::new(None).with_global(&global));
        global.attach(&a, None);
        assert_eq!(a.budget(), Some(9000));
        let b = Arc::new(MemoryGovernor::new(None).with_global(&global));
        global.attach(&b, None);
        let c = Arc::new(MemoryGovernor::new(None).with_global(&global));
        global.attach(&c, None);
        // Three residents: equal thirds, and the earlier leases shrank.
        assert_eq!(a.budget(), Some(3000));
        assert_eq!(b.budget(), Some(3000));
        assert_eq!(c.budget(), Some(3000));
        assert_eq!(global.active_leases(), 3);
        assert_eq!(global.leased_bytes(), 9000);
        // A query leaving re-apportions to the survivors automatically.
        drop(c);
        assert_eq!(global.active_leases(), 2);
        assert_eq!(a.budget(), Some(4500));
        assert_eq!(b.budget(), Some(4500));
        drop(a);
        drop(b);
        assert!(global.is_idle());
        assert_eq!(global.leased_bytes(), 0);
    }

    #[test]
    fn per_query_cap_bounds_the_share_from_above() {
        let global = GlobalGovernor::new(100_000);
        let capped = Arc::new(MemoryGovernor::new(Some(2048)).with_global(&global));
        global.attach(&capped, Some(2048));
        let open = Arc::new(MemoryGovernor::new(None).with_global(&global));
        global.attach(&open, None);
        // Equal share would be 50_000; the cap wins for the capped query
        // and the open one keeps the full share.
        assert_eq!(capped.budget(), Some(2048));
        assert_eq!(open.budget(), Some(50_000));
    }

    #[test]
    fn child_ledgers_see_the_live_lease() {
        let global = GlobalGovernor::new(8000);
        let parent = Arc::new(MemoryGovernor::new(None).with_global(&global));
        global.attach(&parent, None);
        let child = MemoryGovernor::child_of(&parent);
        assert_eq!(child.budget(), Some(8000));
        // A second query halves the lease; the child observes it through
        // its parent without any re-wiring.
        let other = Arc::new(MemoryGovernor::new(None).with_global(&global));
        global.attach(&other, None);
        assert_eq!(child.budget(), Some(4000));
    }

    #[test]
    fn build_env_attaches_and_shard_budgets_track_the_lease() {
        let global = GlobalGovernor::new(1 << 20);
        let cfg = SpillConfig {
            global: Some(global.clone()),
            ..SpillConfig::default()
        };
        // No per-query budget: the env still exists (the global ledger
        // bounds the query), and its slice is the whole total while the
        // query runs alone.
        let op = cfg.build_env(2).unwrap().expect("global implies an env");
        assert_eq!(global.active_leases(), 1);
        assert_eq!(op.shard_budget(), (1 << 20) / 2);
        let env = op.shard_env(2);
        assert_eq!(env.shard_budget(), (1 << 20) / 4);
        // A second resident query halves the first one's slice — and the
        // already-built shard envs see it on their next check.
        let op2 = cfg.build_env(2).unwrap().unwrap();
        assert_eq!(env.shard_budget(), (1 << 20) / 8);
        assert_eq!(op2.shard_budget(), (1 << 20) / 4);
        drop(op2);
        assert_eq!(env.shard_budget(), (1 << 20) / 4);
        // The shard env shares the operator env's governor; the lease
        // lives until the last holder is gone.
        drop(env);
        drop(op);
        assert!(global.is_idle(), "dropping the envs releases the lease");
    }
}
