//! Unified execution configuration — every knob in one place.
//!
//! [`EngineConfig`] says how a query runs — driver, partition parallelism,
//! memory governance, scan passes, observability, serving — and
//! [`EngineConfig::start`] is the one way to run one. A knob is set one
//! way, through its `with_*` builder; the deployment settings and CI-lane
//! switches among them fall back to the ambient `WAKE_*` environment,
//! resolved in exactly one place ([`EngineConfig::spill_config`] for
//! memory governance) and **per knob**: an explicitly set spill directory
//! does not hide an ambient memory budget.
//!
//! ```no_run
//! use wake_engine::{EngineConfig, ExecutorKind};
//! use wake_core::graph::{Parallelism, QueryGraph};
//! # fn demo(graph: QueryGraph) -> wake_engine::Result<()> {
//! let mut stream = EngineConfig::threaded()
//!     .with_parallelism(Parallelism::Fixed(4))
//!     .with_memory_budget(64 << 20)
//!     .with_channel_capacity(4)
//!     .start(graph)?; // lazy: nothing runs until the stream is polled
//! for estimate in &mut stream {
//!     println!("t = {:.2}", estimate?.t);
//! }
//! # Ok(())
//! # }
//! ```

use crate::query::Query;
use crate::stream::EstimateStream;
use crate::Result;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;
use wake_core::graph::{Parallelism, QueryGraph};
use wake_obs::ObsLevel;
use wake_store::{GlobalGovernor, SpillConfig, SpillIo};

/// Which execution engine drives the query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Deterministic single-stepped driver: reproducible estimate
    /// sequences, the reference semantics.
    #[default]
    Stepped,
    /// Pipelined engine: one thread per graph node, bounded channels on
    /// the edges (§7.2).
    Threaded,
}

/// Builder-style configuration consumed by both drivers.
///
/// Defaults: stepped driver, [`Parallelism::Auto`], memory budget and
/// spill directory from the ambient environment (`WAKE_MEM_BUDGET` /
/// `WAKE_SPILL_DIR`; unset = unbounded), channel capacity
/// [`crate::DEFAULT_CHANNEL_CAPACITY`], observability from `WAKE_OBS`
/// (unset = off).
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    executor: ExecutorKind,
    parallelism: Option<Parallelism>,
    /// The spill knobs as set explicitly (`None` = not set); the ambient
    /// fallback is applied at [`Self::spill_config`].
    spill: SpillConfig,
    /// Explicitly unbounded: an ambient `WAKE_MEM_BUDGET` does not apply.
    unbounded: bool,
    channel_capacity: Option<usize>,
    table_dir: Option<PathBuf>,
    zone_rows: Option<usize>,
    zone_pruning: Option<bool>,
    scan_seed: Option<u64>,
    obs: Option<ObsLevel>,
    serve_addr: Option<String>,
    serve_max_concurrent: Option<usize>,
    serve_max_queued: Option<usize>,
    serve_global_budget: Option<usize>,
}

impl EngineConfig {
    pub fn new() -> Self {
        Self::default()
    }

    /// Shorthand for a config targeting the stepped engine.
    pub fn stepped() -> Self {
        Self::new().with_executor(ExecutorKind::Stepped)
    }

    /// Shorthand for a config targeting the threaded engine.
    pub fn threaded() -> Self {
        Self::new().with_executor(ExecutorKind::Threaded)
    }

    /// Choose the engine [`Self::start`] builds.
    pub fn with_executor(mut self, executor: ExecutorKind) -> Self {
        self.executor = executor;
        self
    }

    /// Hash-range shards per hash-keyed node (join, group-by). `Fixed(n)`
    /// is used as given; `Auto` (the default) resolves at start to every
    /// core on the inline driver and to cores ÷ hash-keyed nodes (at
    /// least 1) on thread-per-actor, where all nodes work at once.
    pub fn with_parallelism(mut self, p: Parallelism) -> Self {
        self.parallelism = Some(p);
        self
    }

    /// Bound buffered operator state: joins and group-bys spill their
    /// largest partitions to disk once `bytes` is exceeded.
    pub fn with_memory_budget(mut self, bytes: usize) -> Self {
        self.spill.budget_bytes = Some(bytes);
        self.unbounded = false;
        self
    }

    /// Explicitly unbounded memory — overrides an ambient
    /// `WAKE_MEM_BUDGET` (unlike the default, which falls back to it).
    pub fn unbounded_memory(mut self) -> Self {
        self.spill.budget_bytes = None;
        self.unbounded = true;
        self
    }

    /// Directory for spill files (default: `WAKE_SPILL_DIR`, else a fresh
    /// temp dir per query, removed when the query finishes or is
    /// cancelled).
    pub fn with_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spill.spill_dir = Some(dir.into());
        self
    }

    /// The spill device behind all spill file I/O (default: the real
    /// filesystem, [`wake_store::StdIo`]; the ambient
    /// `WAKE_SPILL_ENOSPC_AFTER` injects an ENOSPC-after-N-bytes
    /// [`wake_store::FaultIo`]). Tests and benches inject deterministic
    /// fault schedules here.
    pub fn with_spill_io(mut self, io: Arc<dyn SpillIo>) -> Self {
        self.spill.io = Some(io);
        self
    }

    /// Retries per spill I/O operation beyond the first attempt, with
    /// exponentially doubling backoff. `0` fails fast: the first error
    /// poisons the governor and the query degrades to memory-resident
    /// execution. Default:
    /// [`wake_store::governor::DEFAULT_RETRY_ATTEMPTS`].
    pub fn with_spill_retries(mut self, attempts: u32) -> Self {
        self.spill.retry_attempts = Some(attempts);
        self
    }

    /// Backoff before the first spill I/O retry (doubled per further
    /// retry). Default:
    /// [`wake_store::governor::DEFAULT_RETRY_BASE_DELAY`].
    pub fn with_spill_retry_delay(mut self, delay: Duration) -> Self {
        self.spill.retry_base_delay = Some(delay);
        self
    }

    /// Per-edge mailbox capacity of the threaded engine (minimum 1).
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        self.channel_capacity = Some(capacity.max(1));
        self
    }

    /// Directory persisted segment tables are written to and opened from
    /// (default: `WAKE_TABLE_DIR`; unset = no persistent-table root, the
    /// session keeps tables in memory).
    pub fn with_table_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.table_dir = Some(dir.into());
        self
    }

    /// Rows per zone when persisting segment tables — the pruning
    /// granularity: smaller zones prune more precisely but carry more
    /// per-zone metadata and smaller compression runs. Values below 1
    /// resolve to the default ([`wake_store::DEFAULT_ZONE_ROWS`]).
    pub fn with_zone_rows(mut self, rows: usize) -> Self {
        self.zone_rows = Some(rows);
        self
    }

    /// Enable or disable zone pruning — pushing the conjunctive
    /// range/equality predicates of a `Filter` directly over a scan into
    /// the source, so zones whose min/max statistics prove no row can
    /// qualify are never read or decoded. Results are unchanged either
    /// way (the filter always stays in the plan); this knob exists to
    /// measure the win and to disable the pass when debugging. **On**
    /// by default.
    pub fn with_zone_pruning(mut self, enabled: bool) -> Self {
        self.zone_pruning = Some(enabled);
        self
    }

    /// Visit the partitions (zones, files) of every source in a seeded
    /// random order — the paper's shuffled-input regime, which keeps
    /// early estimates representative when stored order is correlated
    /// with values. Each scan mixes its node id into the seed, so runs
    /// are reproducible, and one seed visits an in-memory table and its
    /// persisted copy in the same order. Default: no reordering (sources
    /// are scanned in stored order).
    pub fn with_scan_seed(mut self, seed: u64) -> Self {
        self.scan_seed = Some(seed);
        self
    }

    /// How much the engines record while the query runs: `Off` (default;
    /// the exact pre-observability hot path), `Stats` (per-node counters
    /// — rows, frames, busy time, state, attributed spill/scan), or
    /// `Profile` (counters plus per-update histograms and per-shard
    /// detail). Default: `WAKE_OBS` (`off`/`stats`/`profile`), else off.
    pub fn with_obs(mut self, level: ObsLevel) -> Self {
        self.obs = Some(level);
        self
    }

    /// Lease this query's memory budget from a process-wide
    /// [`GlobalGovernor`] instead of owning it outright. The per-query
    /// budget (explicit or ambient) becomes a *cap* on the leased share;
    /// with no per-query budget the share alone bounds the query. Every
    /// query started from a config carrying the same governor re-divides
    /// the total as it enters and leaves — the wake-serve server hands
    /// every admitted query a config built this way.
    pub fn with_global_governor(mut self, global: &Arc<GlobalGovernor>) -> Self {
        self.spill.global = Some(global.clone());
        self
    }

    /// Address the wake-serve server binds (default: `WAKE_SERVE_ADDR`,
    /// else `127.0.0.1:0` — an ephemeral localhost port).
    pub fn with_serve_addr(mut self, addr: impl Into<String>) -> Self {
        self.serve_addr = Some(addr.into());
        self
    }

    /// Queries executing at once in the server's worker pool; admitted
    /// queries beyond this wait in the bounded queue. Minimum 1,
    /// default 4.
    pub fn with_serve_max_concurrent(mut self, n: usize) -> Self {
        self.serve_max_concurrent = Some(n.max(1));
        self
    }

    /// Queries allowed to wait beyond the executing ones before the
    /// server answers with a typed overload response. Minimum 1,
    /// default 16.
    pub fn with_serve_max_queued(mut self, n: usize) -> Self {
        self.serve_max_queued = Some(n.max(1));
        self
    }

    /// Total byte budget the server's [`GlobalGovernor`] leases out
    /// across all resident queries. Default: `WAKE_SERVE_GLOBAL_BUDGET`
    /// (accepts `64M`-style suffixes like `WAKE_MEM_BUDGET`), else
    /// unbounded (no global governor is created).
    pub fn with_serve_global_budget(mut self, bytes: usize) -> Self {
        self.serve_global_budget = Some(bytes);
        self
    }

    /// Resolved server bind address (explicit, else `WAKE_SERVE_ADDR`,
    /// else ephemeral localhost).
    pub fn serve_addr(&self) -> String {
        self.serve_addr.clone().unwrap_or_else(|| {
            std::env::var("WAKE_SERVE_ADDR")
                .ok()
                .filter(|s| !s.trim().is_empty())
                .unwrap_or_else(|| "127.0.0.1:0".to_string())
        })
    }

    /// Resolved worker-pool width (explicit, else 4; never 0).
    pub fn serve_max_concurrent(&self) -> usize {
        self.serve_max_concurrent.unwrap_or(4)
    }

    /// Resolved admission-queue depth (explicit, else 16; never 0).
    pub fn serve_max_queued(&self) -> usize {
        self.serve_max_queued.unwrap_or(16)
    }

    /// Resolved server-wide byte budget (explicit, else
    /// `WAKE_SERVE_GLOBAL_BUDGET` with `K`/`M`/`G` suffixes; `None` =
    /// no global governance).
    pub fn serve_global_budget(&self) -> Option<usize> {
        self.serve_global_budget.or_else(|| {
            std::env::var("WAKE_SERVE_GLOBAL_BUDGET")
                .ok()
                .and_then(|s| wake_store::parse_bytes(&s))
        })
    }

    /// Resolved observability level (explicit, else `WAKE_OBS`, else
    /// [`ObsLevel::Off`]; unrecognised values fall back to off).
    pub fn obs_level(&self) -> ObsLevel {
        self.obs.unwrap_or_else(|| {
            std::env::var("WAKE_OBS")
                .ok()
                .and_then(|s| ObsLevel::parse(&s))
                .unwrap_or_default()
        })
    }

    /// The configured engine kind.
    pub fn executor(&self) -> ExecutorKind {
        self.executor
    }

    /// The configured parallelism (`None` = `Auto`).
    pub fn parallelism(&self) -> Option<Parallelism> {
        self.parallelism
    }

    /// Resolved per-edge mailbox capacity.
    pub fn channel_capacity(&self) -> usize {
        self.channel_capacity
            .unwrap_or(crate::DEFAULT_CHANNEL_CAPACITY)
    }

    /// Resolved persistent-table root (explicit, else `WAKE_TABLE_DIR`).
    pub fn table_dir(&self) -> Option<PathBuf> {
        self.table_dir.clone().or_else(|| {
            std::env::var("WAKE_TABLE_DIR")
                .ok()
                .filter(|s| !s.trim().is_empty())
                .map(PathBuf::from)
        })
    }

    /// Resolved rows-per-zone for table persistence (explicit, else
    /// [`wake_store::DEFAULT_ZONE_ROWS`]; never 0).
    pub fn zone_rows(&self) -> usize {
        self.zone_rows
            .filter(|&r| r >= 1)
            .unwrap_or(wake_store::DEFAULT_ZONE_ROWS)
    }

    /// Resolved zone-pruning switch (explicit, else on).
    pub fn zone_pruning(&self) -> bool {
        self.zone_pruning.unwrap_or(true)
    }

    /// Resolved scan-order seed (`None` = stored zone order).
    pub fn scan_seed(&self) -> Option<u64> {
        self.scan_seed
    }

    /// Resolve the memory-governance configuration. **This is the single
    /// place the ambient environment is consulted**, and the fallback
    /// ([`SpillConfig::or_env`]) is per knob: an unset budget falls back
    /// to `WAKE_MEM_BUDGET` even when a spill directory was set
    /// explicitly (and vice versa).
    pub fn spill_config(&self) -> SpillConfig {
        let mut resolved = self.spill.clone().or_env();
        if self.unbounded {
            resolved.budget_bytes = None;
        }
        resolved
    }

    /// Plan, build the query and start streaming estimates on the
    /// configured driver. Planning is one pass (`plan::view_scans`) that
    /// asks every scan for one view: shuffled by the scan seed when one
    /// is set, pruned by its filter's predicates unless pruning is off,
    /// narrowed to the columns the plan reads. Every source answers it;
    /// only segments have zone statistics to prune by. It builds each
    /// operator once to learn what it reads, and the query builds it
    /// once more to run. The stepped engine is fully lazy (one driver
    /// step per poll); the threaded engine spawns its node threads here
    /// and yields from the sink channel. Dropping the returned stream
    /// cancels the query.
    pub fn start(&self, mut graph: QueryGraph) -> Result<EstimateStream> {
        wake_core::plan::view_scans(&mut graph, self.scan_seed(), self.zone_pruning());
        Ok(Query::build(graph, self)?.start())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_fallback_is_per_knob() {
        // The historical bug: configuring *any* spill knob dropped the
        // ambient budget. Each knob must now fall back independently,
        // whatever the ambient environment happens to be (the CI
        // low-memory lane runs this suite with WAKE_MEM_BUDGET set).
        let ambient = SpillConfig::from_env();
        let cfg = EngineConfig::new().with_spill_dir("/tmp/wake-cfg-test");
        let resolved = cfg.spill_config();
        assert_eq!(resolved.budget_bytes, ambient.budget_bytes);
        assert_eq!(
            resolved.spill_dir,
            Some(PathBuf::from("/tmp/wake-cfg-test"))
        );

        let cfg = EngineConfig::new().with_memory_budget(1 << 20);
        let resolved = cfg.spill_config();
        assert_eq!(resolved.budget_bytes, Some(1 << 20));
        assert_eq!(resolved.spill_dir, ambient.spill_dir);
    }

    #[test]
    fn retry_knobs_resolve_per_knob() {
        let ambient = SpillConfig::from_env();
        // Unset: defer to the ambient WAKE_SPILL_RETRIES / default device.
        let resolved = EngineConfig::new().spill_config();
        assert_eq!(resolved.retry_attempts, ambient.retry_attempts);
        // Explicit knobs win without disturbing their neighbours.
        let resolved = EngineConfig::new()
            .with_spill_retries(5)
            .with_spill_retry_delay(Duration::from_micros(10))
            .with_spill_io(Arc::new(wake_store::StdIo))
            .spill_config();
        assert_eq!(resolved.retry_attempts, Some(5));
        assert_eq!(resolved.retry_base_delay, Some(Duration::from_micros(10)));
        assert!(resolved.io.is_some());
        assert_eq!(resolved.budget_bytes, ambient.budget_bytes);
    }

    #[test]
    fn scan_knobs_resolve_explicitly() {
        let cfg = EngineConfig::new()
            .with_table_dir("/tmp/wake-tables-cfg-test")
            .with_zone_rows(128)
            .with_zone_pruning(false)
            .with_scan_seed(7);
        assert_eq!(
            cfg.table_dir(),
            Some(PathBuf::from("/tmp/wake-tables-cfg-test"))
        );
        assert_eq!(cfg.zone_rows(), 128);
        assert!(!cfg.zone_pruning());
        assert_eq!(cfg.scan_seed(), Some(7));
        // Degenerate zone sizing resolves to the default, never 0.
        assert_eq!(
            EngineConfig::new().with_zone_rows(0).zone_rows(),
            wake_store::DEFAULT_ZONE_ROWS
        );
        // Explicit on wins regardless of the ambient environment.
        assert!(EngineConfig::new().with_zone_pruning(true).zone_pruning());
    }

    #[test]
    fn obs_level_resolves_explicitly() {
        // Explicit levels win regardless of the ambient WAKE_OBS (the
        // observability CI lane runs this suite with it set).
        assert_eq!(
            EngineConfig::new().with_obs(ObsLevel::Off).obs_level(),
            ObsLevel::Off
        );
        assert_eq!(
            EngineConfig::new().with_obs(ObsLevel::Profile).obs_level(),
            ObsLevel::Profile
        );
        // Unset: ambient fallback (off when the env var is absent or
        // unparseable).
        let ambient = std::env::var("WAKE_OBS")
            .ok()
            .and_then(|s| ObsLevel::parse(&s))
            .unwrap_or_default();
        assert_eq!(EngineConfig::new().obs_level(), ambient);
    }

    #[test]
    fn serve_knobs_resolve_explicitly() {
        let cfg = EngineConfig::new()
            .with_serve_addr("127.0.0.1:7878")
            .with_serve_max_concurrent(2)
            .with_serve_max_queued(3)
            .with_serve_global_budget(1 << 20);
        assert_eq!(cfg.serve_addr(), "127.0.0.1:7878");
        assert_eq!(cfg.serve_max_concurrent(), 2);
        assert_eq!(cfg.serve_max_queued(), 3);
        assert_eq!(cfg.serve_global_budget(), Some(1 << 20));
        // Degenerate values clamp to at least one worker / queue slot.
        assert_eq!(
            EngineConfig::new()
                .with_serve_max_concurrent(0)
                .serve_max_concurrent(),
            1
        );
        assert_eq!(
            EngineConfig::new()
                .with_serve_max_queued(0)
                .serve_max_queued(),
            1
        );
    }

    #[test]
    fn global_governor_flows_into_spill_config() {
        let global = wake_store::GlobalGovernor::new(1 << 20);
        let cfg = EngineConfig::new().with_global_governor(&global);
        let resolved = cfg.spill_config();
        assert!(resolved.global.is_some());
        // Without a per-query budget the spill env still exists: the
        // lease is the budget.
        let env = resolved
            .build_env(1)
            .unwrap()
            .expect("lease implies an env");
        assert_eq!(env.governor.budget(), Some(1 << 20));
        drop(env);
        assert!(global.is_idle());
    }

    #[test]
    fn unbounded_overrides_ambient() {
        let cfg = EngineConfig::new().unbounded_memory();
        assert_eq!(cfg.spill_config().budget_bytes, None);
    }

    #[test]
    fn builder_defaults() {
        let cfg = EngineConfig::new();
        assert_eq!(cfg.executor(), ExecutorKind::Stepped);
        assert_eq!(cfg.channel_capacity(), crate::DEFAULT_CHANNEL_CAPACITY);
        assert_eq!(cfg.parallelism(), None);
        let cfg = EngineConfig::threaded().with_channel_capacity(0);
        assert_eq!(cfg.executor(), ExecutorKind::Threaded);
        assert_eq!(cfg.channel_capacity(), 1, "capacity clamps to >= 1");
    }
}
