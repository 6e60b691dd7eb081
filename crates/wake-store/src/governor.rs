//! The memory governor: per-query byte budgets and spill telemetry.
//!
//! A query gets one **total** budget (bytes of buffered operator state).
//! The executor apportions it over the spillable (hash-keyed) operators
//! of the plan, each operator divides its slice over its `S` shards, and
//! every shard enforces its slice locally: after folding an update it
//! compares its `state_bytes()` against the slice and, while over budget,
//! **evicts the largest spillable partition** to disk. Keeping the
//! enforcement shard-local makes spilling deterministic under the stepped
//! executor (eviction depends only on state sizes, never on scheduling)
//! and lock-free under the pooled one.
//!
//! The [`MemoryGovernor`] itself is the shared ledger: every shard holds
//! an `Arc` to it and records spill writes, evictions, and rehydrations
//! through atomics; executors surface the totals as run statistics.
//!
//! [`SpillEnv`] is the one handle an operator is built with: the ledger,
//! the spill directory, and the two divisors of the budget (operators,
//! shards). The executor builds it at the operator level (one shard);
//! the operator derives one per shard with [`SpillEnv::shard_env`]. Which
//! rows go to which spill partition is not this crate's business: the
//! routing kernel is `wake_data::partition`, and the fan-out and depth
//! policy live with the operators (`wake_core::ops::partitions`).

use crate::dir::SpillDir;
use crate::fault::{FaultIo, FaultSchedule};
use crate::global::GlobalGovernor;
use crate::io::{SpillIo, StdIo};
use crate::Result;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// Default bounded-backoff retry policy for spill I/O: one initial
/// attempt plus this many retries...
pub const DEFAULT_RETRY_ATTEMPTS: u32 = 2;
/// ...spaced by this base delay, doubled per retry. Small enough that an
/// actually-dead device fails a query in milliseconds, large enough to
/// ride out a transient `EINTR`/`EAGAIN`-class hiccup.
pub const DEFAULT_RETRY_BASE_DELAY: Duration = Duration::from_millis(1);

/// Sentinel stored in the budget atomic for "unbounded".
const UNBOUNDED: usize = usize::MAX;

/// Shared spill ledger for one query execution.
#[derive(Debug)]
pub struct MemoryGovernor {
    /// Total byte budget (`UNBOUNDED` = no limit: spilling disabled).
    /// Atomic because a [`GlobalGovernor`] lease may shrink or grow it
    /// while the query runs; operators re-read it on every enforcement
    /// check through [`SpillEnv::shard_budget`]. Only a root ledger's is
    /// read: a child reaches its root for the budget.
    budget: AtomicUsize,
    spilled_bytes: AtomicUsize,
    chunks_written: AtomicUsize,
    evictions: AtomicUsize,
    rehydrations: AtomicUsize,
    io_retries: AtomicUsize,
    /// Set when spill I/O failed persistently (retries exhausted). Shards
    /// that see a poisoned governor rehydrate what they can, stop
    /// evicting, and continue resident ("degraded" execution).
    poisoned: AtomicBool,
    retry_attempts: u32,
    retry_base_delay: Duration,
    /// Query-wide ledger this one forwards to. Per-operator child ledgers
    /// (see [`SpillEnv::for_node`]) record locally *and* into the parent,
    /// so the parent's totals stay the exact sum of its children and
    /// existing rollup consumers are unaffected.
    parent: Option<Arc<MemoryGovernor>>,
    /// The process-wide ledger this governor leases its budget from, if
    /// any. Set only on the query-wide root governor; `Drop` pokes it so
    /// the lease is returned (and the survivors rebalanced) the moment
    /// the query's last handle goes away.
    global: Option<Weak<GlobalGovernor>>,
}

impl Default for MemoryGovernor {
    fn default() -> Self {
        MemoryGovernor::new(None)
    }
}

impl MemoryGovernor {
    pub fn new(budget: Option<usize>) -> Self {
        MemoryGovernor {
            budget: AtomicUsize::new(budget.unwrap_or(UNBOUNDED)),
            spilled_bytes: AtomicUsize::new(0),
            chunks_written: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            rehydrations: AtomicUsize::new(0),
            io_retries: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            retry_attempts: DEFAULT_RETRY_ATTEMPTS,
            retry_base_delay: DEFAULT_RETRY_BASE_DELAY,
            parent: None,
            global: None,
        }
    }

    /// A per-operator child of `parent`: same retry policy, its own
    /// zeroed counters, and every `record_*` forwarded upstream so the
    /// parent remains the exact query-wide sum. It has no budget of its
    /// own: reading or setting one reaches the root, so a lease change
    /// is visible through every child immediately.
    pub fn child_of(parent: &Arc<MemoryGovernor>) -> Self {
        let mut child = MemoryGovernor::new(None);
        child.retry_attempts = parent.retry_attempts;
        child.retry_base_delay = parent.retry_base_delay;
        child.parent = Some(parent.clone());
        child
    }

    /// Replace the default I/O retry policy (`attempts` retries after the
    /// first try, exponential backoff from `base_delay`).
    pub fn with_retry_policy(mut self, attempts: u32, base_delay: Duration) -> Self {
        self.retry_attempts = attempts;
        self.retry_base_delay = base_delay;
        self
    }

    /// Tie this (root) governor's lifetime to a process-wide ledger:
    /// `Drop` will prune the lease and rebalance the survivors. The
    /// budget itself is granted separately via [`GlobalGovernor::attach`].
    pub fn with_global(mut self, global: &Arc<GlobalGovernor>) -> Self {
        self.global = Some(Arc::downgrade(global));
        self
    }

    /// The query-wide budget, if any, read from the root ledger.
    pub fn budget(&self) -> Option<usize> {
        if let Some(p) = &self.parent {
            return p.budget();
        }
        let b = self.budget.load(Ordering::Acquire);
        (b != UNBOUNDED).then_some(b)
    }

    /// Replace the query-wide budget (`None` = unbounded) on the root
    /// ledger. Used by [`GlobalGovernor::rebalance`] to grow or shrink a
    /// lease while the query runs; takes effect at the operators' next
    /// enforcement check.
    pub fn set_budget(&self, budget: Option<usize>) {
        if let Some(p) = &self.parent {
            return p.set_budget(budget);
        }
        self.budget
            .store(budget.unwrap_or(UNBOUNDED), Ordering::Release);
    }

    /// Retries allowed per spill I/O operation (beyond the first try).
    pub fn retry_attempts(&self) -> u32 {
        self.retry_attempts
    }

    /// Backoff before the first retry (doubled for each further one).
    pub fn retry_base_delay(&self) -> Duration {
        self.retry_base_delay
    }

    /// Mark the spill device persistently failed. Idempotent; never
    /// unset for the lifetime of the query. Poisoning a per-operator
    /// child poisons the query-wide parent too (the device is shared).
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        if let Some(p) = &self.parent {
            p.poison();
        }
    }

    /// Has the spill device failed persistently? (Either here or on the
    /// shared parent ledger — the device is query-wide.)
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
            || self.parent.as_ref().is_some_and(|p| p.is_poisoned())
    }

    /// One spill I/O retry happened (the op failed and will be retried).
    pub fn record_io_retry(&self) {
        stat_add(&self.io_retries, 1);
        if let Some(p) = &self.parent {
            p.record_io_retry();
        }
    }

    pub fn record_spill(&self, bytes: usize, chunks: usize) {
        stat_add(&self.spilled_bytes, bytes);
        stat_add(&self.chunks_written, chunks);
        if let Some(p) = &self.parent {
            p.record_spill(bytes, chunks);
        }
    }

    pub fn record_eviction(&self) {
        stat_add(&self.evictions, 1);
        if let Some(p) = &self.parent {
            p.record_eviction();
        }
    }

    pub fn record_rehydration(&self) {
        stat_add(&self.rehydrations, 1);
        if let Some(p) = &self.parent {
            p.record_rehydration();
        }
    }

    /// Snapshot of the ledger.
    pub fn metrics(&self) -> SpillMetrics {
        SpillMetrics {
            spilled_bytes: stat_get(&self.spilled_bytes),
            chunks_written: stat_get(&self.chunks_written),
            evictions: stat_get(&self.evictions),
            rehydrations: stat_get(&self.rehydrations),
            io_retries: stat_get(&self.io_retries),
        }
    }
}

// The spill-ledger statistics are monotone telemetry counters: nothing
// branches on them for correctness (admission control reads the
// reservation ledger, and device failure rides the Acquire/Release
// `poisoned` flag), and `metrics` snapshots tolerate a torn
// cross-counter view — so every access funnels through these helpers.

// relaxed: monotone spill telemetry; snapshots tolerate staleness
fn stat_add(cell: &AtomicUsize, n: usize) {
    cell.fetch_add(n, Ordering::Relaxed);
}

// relaxed: monotone spill telemetry; snapshots tolerate staleness
fn stat_get(cell: &AtomicUsize) -> usize {
    cell.load(Ordering::Relaxed)
}

impl Drop for MemoryGovernor {
    fn drop(&mut self) {
        // Return a global lease: the Weak this ledger holds on us is
        // already dead here (Drop runs after the strong count reaches 0),
        // so one rebalance both prunes it and re-apportions the total
        // over the surviving queries.
        if let Some(global) = self.global.as_ref().and_then(Weak::upgrade) {
            global.rebalance();
        }
    }
}

wake_data::counters! {
    /// Point-in-time spill counters (surfaced in executor run statistics).
    pub struct SpillMetrics: usize {
        /// Bytes written to spill files.
        spilled_bytes,
        /// Chunks (frame envelopes) written.
        chunks_written,
        /// Partition evictions performed.
        evictions,
        /// Spilled-partition loads back into memory.
        rehydrations,
        /// Spill I/O operations that failed transiently and were retried.
        io_retries,
    }
}

/// User-facing spill configuration: the budget knob on the executors.
///
/// `budget_bytes = None` (the default) disables spilling entirely — the
/// operators run the exact pre-spill code path, byte for byte.
#[derive(Debug, Clone, Default)]
pub struct SpillConfig {
    /// Total bytes of buffered operator state allowed for the query.
    pub budget_bytes: Option<usize>,
    /// Directory for spill files (None = fresh temp dir per query).
    pub spill_dir: Option<PathBuf>,
    /// The spill device (None = the real filesystem, [`StdIo`]). Tests
    /// and benches inject [`FaultIo`] here.
    pub io: Option<Arc<dyn SpillIo>>,
    /// I/O retries per spill operation beyond the first attempt
    /// (`None` = [`DEFAULT_RETRY_ATTEMPTS`]; `Some(0)` fails fast).
    pub retry_attempts: Option<u32>,
    /// Backoff before the first retry, doubled per further retry
    /// (`None` = [`DEFAULT_RETRY_BASE_DELAY`]).
    pub retry_base_delay: Option<Duration>,
    /// Process-wide ledger to lease this query's budget from (the
    /// wake-serve server hands every query the same ledger). When set, a
    /// spill env is built even with `budget_bytes = None` — the query is
    /// bounded by its leased slice, which shrinks and grows as other
    /// queries enter and leave. An explicit `budget_bytes` additionally
    /// caps the slice from above.
    pub global: Option<Arc<GlobalGovernor>>,
}

impl SpillConfig {
    /// Unbounded memory: spilling off.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// Bounded memory with the default spill dir.
    pub fn with_budget(bytes: usize) -> Self {
        SpillConfig {
            budget_bytes: Some(bytes),
            ..Self::default()
        }
    }

    /// The ambient configuration alone: [`Self::or_env`] over the default.
    pub fn from_env() -> Self {
        Self::default().or_env()
    }

    /// Fill every knob still unset from its ambient variable — the
    /// **per-knob** fallback: `WAKE_MEM_BUDGET` (bytes, with optional
    /// `k`/`m`/`g` suffix; unset, empty, or `0` = unbounded),
    /// `WAKE_SPILL_DIR`, and
    /// `WAKE_SPILL_ENOSPC_AFTER` (bytes; simulate a full spill device
    /// after that many bytes written — the CI fault lane). This is what
    /// the executors resolve through, so a whole test suite can be driven
    /// through the spill path by exporting one variable (the CI
    /// low-memory lanes), and setting one knob explicitly never hides
    /// another's ambient value.
    pub fn or_env(mut self) -> Self {
        let var = |name: &str| std::env::var(name).ok();
        self.budget_bytes = self
            .budget_bytes
            .or_else(|| var("WAKE_MEM_BUDGET").and_then(|s| parse_bytes(&s)));
        self.spill_dir = self
            .spill_dir
            .or_else(|| var("WAKE_SPILL_DIR").map(PathBuf::from));
        self.io = self.io.or_else(|| {
            let limit = var("WAKE_SPILL_ENOSPC_AFTER").and_then(|s| parse_bytes(&s))?;
            Some(Arc::new(FaultIo::new(FaultSchedule {
                enospc_after_bytes: Some(limit),
                ..FaultSchedule::default()
            })) as Arc<dyn SpillIo>)
        });
        self
    }

    /// Build the operator-level spill environment: `spillable_ops` is the
    /// number of hash-keyed operators in the graph sharing the budget.
    /// Returns `None` when the config is unbounded (operators then skip
    /// all spill machinery).
    pub fn build_env(&self, spillable_ops: usize) -> Result<Option<SpillEnv>> {
        if self.budget_bytes.is_none() && self.global.is_none() {
            return Ok(None);
        }
        let io: Arc<dyn SpillIo> = self.io.clone().unwrap_or_else(|| Arc::new(StdIo));
        let dir = match &self.spill_dir {
            Some(p) => SpillDir::at_with(p, io)?,
            None => SpillDir::new_temp_with(io)?,
        };
        let mut governor = MemoryGovernor::new(self.budget_bytes).with_retry_policy(
            self.retry_attempts.unwrap_or(DEFAULT_RETRY_ATTEMPTS),
            self.retry_base_delay.unwrap_or(DEFAULT_RETRY_BASE_DELAY),
        );
        if let Some(global) = &self.global {
            governor = governor.with_global(global);
        }
        let governor = Arc::new(governor);
        if let Some(global) = &self.global {
            // Lease a slice of the server-wide budget (capped by an
            // explicit per-query budget when both are set); every other
            // resident query's slice is re-apportioned here.
            global.attach(&governor, self.budget_bytes);
        }
        Ok(Some(SpillEnv {
            governor,
            dir: Arc::new(dir),
            ops: spillable_ops.max(1),
            shards: 1,
        }))
    }
}

/// Parse `"512"`, `"64k"`, `"8m"`, `"1g"` into bytes; `0`/garbage = None.
/// Public because every byte-sized knob (`WAKE_MEM_BUDGET`,
/// `WAKE_SERVE_GLOBAL_BUDGET`, …) shares this grammar.
pub fn parse_bytes(s: &str) -> Option<usize> {
    let s = s.trim().to_ascii_lowercase();
    if s.is_empty() {
        return None;
    }
    let (digits, mult) = match s.as_bytes().last() {
        Some(b'k') => (&s[..s.len() - 1], 1usize << 10),
        Some(b'm') => (&s[..s.len() - 1], 1 << 20),
        Some(b'g') => (&s[..s.len() - 1], 1 << 30),
        _ => (s.as_str(), 1),
    };
    let n: usize = digits.trim().parse().ok()?;
    (n > 0).then(|| n.saturating_mul(mult))
}

/// Everything an operator — or one of its shards — needs to govern and
/// spill its own state: the ledger, the spill dir, and how many ways the
/// query budget is divided. The executor builds the operator-level env
/// (one shard, [`SpillConfig::build_env`]); an operator hands each shard
/// [`Self::shard_env`].
#[derive(Debug, Clone)]
pub struct SpillEnv {
    pub governor: Arc<MemoryGovernor>,
    pub dir: Arc<SpillDir>,
    /// Spillable operators sharing the query budget (never 0).
    ops: usize,
    /// Shards this operator splits its slice over (never 0).
    shards: usize,
}

impl SpillEnv {
    /// A per-operator view: the same spill dir and divisors, but a child
    /// [`MemoryGovernor`] that records this operator's I/O locally while
    /// forwarding every count to the query-wide parent. Executors hand
    /// one of these to each spillable operator and keep the child handle
    /// to read per-node spill attribution; the parent's `metrics()` stays
    /// the exact sum over children.
    pub fn for_node(&self) -> SpillEnv {
        SpillEnv {
            governor: Arc::new(MemoryGovernor::child_of(&self.governor)),
            ..self.clone()
        }
    }

    /// The environment for one of `shards` shards: an equal slice of the
    /// operator's budget, the same ledger and dir.
    pub fn shard_env(&self, shards: usize) -> SpillEnv {
        SpillEnv {
            shards: shards.max(1),
            ..self.clone()
        }
    }

    /// Shards the operator's slice is divided over — the `S` shard
    /// routing scaled the hash by (see `wake_data::partition`).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Bytes of buffered state this shard may hold **right now**: the
    /// governor's live budget divided over operators then shards
    /// (`((total / ops).max(1) / shards).max(1)`). Under a
    /// [`GlobalGovernor`] lease it tracks re-apportioning live, so a
    /// query whose slice just shrank starts evicting at its very next
    /// enforcement check.
    pub fn shard_budget(&self) -> usize {
        let total = self.governor.budget().unwrap_or(usize::MAX);
        ((total / self.ops).max(1) / self.shards).max(1)
    }

    /// An empty spill run in this query's spill dir, charged to this
    /// shard's ledger; `tag` names its file.
    pub fn new_run(&self, tag: &str) -> crate::colfile::RunWriter {
        crate::colfile::RunWriter::new(self.dir.clone(), self.governor.clone(), tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_accumulates() {
        let g = MemoryGovernor::new(Some(1024));
        g.record_spill(100, 2);
        g.record_spill(50, 1);
        g.record_eviction();
        g.record_rehydration();
        let m = g.metrics();
        assert_eq!(m.spilled_bytes, 150);
        assert_eq!(m.chunks_written, 3);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.rehydrations, 1);
        assert_eq!(g.budget(), Some(1024));
    }

    #[test]
    fn poison_is_sticky_and_retry_policy_resolves() {
        let g = MemoryGovernor::new(Some(1024));
        assert!(!g.is_poisoned());
        assert_eq!(g.retry_attempts(), DEFAULT_RETRY_ATTEMPTS);
        assert_eq!(g.retry_base_delay(), DEFAULT_RETRY_BASE_DELAY);
        g.poison();
        g.poison();
        assert!(g.is_poisoned());
        g.record_io_retry();
        assert_eq!(g.metrics().io_retries, 1);
        // Config-level overrides reach the env's governor.
        let mut cfg = SpillConfig::with_budget(1 << 20);
        cfg.retry_attempts = Some(7);
        cfg.retry_base_delay = Some(Duration::from_micros(3));
        let env = cfg.build_env(1).unwrap().unwrap();
        assert_eq!(env.governor.retry_attempts(), 7);
        assert_eq!(env.governor.retry_base_delay(), Duration::from_micros(3));
    }

    #[test]
    fn parse_bytes_suffixes() {
        assert_eq!(parse_bytes("512"), Some(512));
        assert_eq!(parse_bytes("64k"), Some(64 << 10));
        assert_eq!(parse_bytes("8M"), Some(8 << 20));
        assert_eq!(parse_bytes("1g"), Some(1 << 30));
        assert_eq!(parse_bytes("0"), None);
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("zap"), None);
    }

    #[test]
    fn child_ledger_forwards_to_parent() {
        let parent = Arc::new(MemoryGovernor::new(Some(1024)));
        let a = MemoryGovernor::child_of(&parent);
        let b = MemoryGovernor::child_of(&parent);
        a.record_spill(100, 1);
        b.record_spill(50, 2);
        b.record_eviction();
        a.record_io_retry();
        assert_eq!(a.metrics().spilled_bytes, 100);
        assert_eq!(b.metrics().spilled_bytes, 50);
        let p = parent.metrics();
        assert_eq!(p.spilled_bytes, 150);
        assert_eq!(p.chunks_written, 3);
        assert_eq!(p.evictions, 1);
        assert_eq!(p.io_retries, 1);
        // Budget and retry policy are inherited; poisoning a child
        // reaches the parent and is visible to its siblings.
        assert_eq!(a.budget(), Some(1024));
        a.poison();
        assert!(parent.is_poisoned());
        assert!(b.is_poisoned());
    }

    #[test]
    fn a_child_budget_is_the_root_budget() {
        let root = Arc::new(MemoryGovernor::new(Some(1024)));
        let child = Arc::new(MemoryGovernor::child_of(&root));
        let grandchild = MemoryGovernor::child_of(&child);
        let sibling = MemoryGovernor::child_of(&root);
        // Set through a child: the root, and every other child, see it.
        grandchild.set_budget(Some(512));
        assert_eq!(root.budget(), Some(512));
        assert_eq!(sibling.budget(), Some(512));
        child.set_budget(None);
        assert_eq!(root.budget(), None);
        assert_eq!(grandchild.budget(), None);
        // Set on the root: every child sees it.
        root.set_budget(Some(64));
        assert_eq!(child.budget(), Some(64));
        assert_eq!(grandchild.budget(), Some(64));
    }

    #[test]
    fn env_for_node_shares_dir_and_sums_into_parent() {
        let cfg = SpillConfig::with_budget(1 << 20);
        let env = cfg.build_env(2).unwrap().unwrap();
        let node = env.for_node();
        assert_eq!(node.shard_budget(), env.shard_budget());
        assert!(Arc::ptr_eq(&node.dir, &env.dir));
        assert!(!Arc::ptr_eq(&node.governor, &env.governor));
        node.governor.record_spill(64, 1);
        assert_eq!(env.governor.metrics().spilled_bytes, 64);
        assert_eq!(node.governor.metrics().spilled_bytes, 64);
    }

    #[test]
    fn env_apportions_budget_over_ops_and_shards() {
        let cfg = SpillConfig::with_budget(1 << 20);
        let op = cfg.build_env(4).unwrap().unwrap();
        assert_eq!((op.shards(), op.shard_budget()), (1, (1 << 20) / 4));
        let shard = op.shard_env(2);
        assert_eq!((shard.shards(), shard.shard_budget()), (2, (1 << 20) / 8));
        // Unbounded config yields no env.
        assert!(SpillConfig::unbounded().build_env(4).unwrap().is_none());
    }

    #[test]
    fn dynamic_budget_flows_through_every_env() {
        let cfg = SpillConfig::with_budget(1 << 20);
        let op = cfg.build_env(4).unwrap().unwrap();
        let shard = op.shard_env(2);
        assert_eq!(shard.shard_budget(), (1 << 20) / 8);
        // Shrinking the governor's budget (a lease re-apportioning)
        // reaches already-built envs — and per-node child envs — live.
        op.governor.set_budget(Some(1 << 16));
        assert_eq!(shard.shard_budget(), (1 << 16) / 8);
        assert_eq!(op.shard_budget(), (1 << 16) / 4);
        let node = op.for_node();
        assert_eq!(node.shard_env(2).shard_budget(), (1 << 16) / 8);
        op.governor.set_budget(Some(1 << 20));
        assert_eq!(node.shard_env(2).shard_budget(), (1 << 20) / 8);
    }
}
