//! Workloads, sizing, and the set-up every workload pays before its
//! first timed pass: data generation, tables (in memory or as segments),
//! and one reference answer per query.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use wake_core::graph::Parallelism;
use wake_data::DataFrame;
use wake_engine::{EngineConfig, ObsLevel, DEFAULT_CHANNEL_CAPACITY};
use wake_tpch::{all_queries, QuerySpec, TpchData, TpchDb};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Resident,
    Threaded,
    Spill,
    Wseg,
    Serve,
}

/// The queries of `tpch.spill`: the ones whose resident state is well
/// above the budget at any seed, so that spill I/O, eviction and
/// rehydration set their time. q21 is left out only because it alone
/// doubles the pass; q17 because its state hangs on how many parts pass
/// its brand/container filter (about four at SF 0.02, none at the smoke
/// size), so it cannot be held to "always spills".
const SPILL_QUERIES: [&str; 8] = ["q3", "q5", "q7", "q8", "q9", "q10", "q18", "q20"];

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Resident,
        Workload::Threaded,
        Workload::Spill,
        Workload::Wseg,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Resident => "tpch.resident",
            Workload::Threaded => "tpch.threaded",
            Workload::Spill => "tpch.spill",
            Workload::Wseg => "tpch.wseg",
            Workload::Serve => "serve.closed2",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn specs(self) -> Vec<QuerySpec> {
        let all = all_queries();
        match self {
            Workload::Spill => all
                .into_iter()
                .filter(|q| SPILL_QUERIES.contains(&q.name))
                .collect(),
            _ => all,
        }
    }
}

/// Everything that scales a run. The memory budgets follow the scale
/// factor, so that the smoke size spills and leases like the full size.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub sf: f64,
    /// Partitions the lineitem table spans.
    pub partitions: usize,
    /// Per-query budget of `tpch.spill`.
    pub spill_budget: usize,
    /// Server-wide budget of `serve.closed2`, leased across live queries.
    pub serve_budget: usize,
    /// Client connections (and executing-query cap) of `serve.closed2`.
    pub clients: usize,
}

impl Sizing {
    /// SF 0.02 (≈120 k lineitem rows) is what fits the driver's schedule
    /// on a 2-core host: three set-ups and ten seconds of timed passes
    /// per run, 114 runs inside 57 minutes.
    pub const FULL_SF: f64 = 0.02;
    /// The `--check` smoke size.
    pub const CHECK_SF: f64 = 0.005;

    pub fn for_sf(sf: f64) -> Sizing {
        Sizing {
            sf,
            partitions: 24,
            // 128 KiB at SF 0.02. Around 512 KiB (the issue's 1 MiB at
            // SF 0.04) q5 and q8 sit on the edge: whether they evict
            // before their first estimate depends on the generated data,
            // and Σ first_estimate_s is bimodal across seeds (0.18 s or
            // 0.27 s). At 128 KiB all nine spill early on nearly every
            // seed.
            spill_budget: (sf * 6.25 * (1 << 20) as f64) as usize,
            // 32 MiB at SF 0.04, as the issue sized it.
            serve_budget: (sf * 25.0 * (32 << 20) as f64) as usize,
            clients: 2,
        }
    }
}

/// The engine configuration of a library workload, every knob that has
/// an ambient `WAKE_*` fallback set explicitly (`main` also refuses to
/// run with any `WAKE_*` variable set).
pub fn engine_config(w: Workload, sizing: &Sizing, seed: u64, obs: ObsLevel) -> EngineConfig {
    let base = match w {
        Workload::Threaded => EngineConfig::threaded()
            .with_parallelism(Parallelism::Fixed(2))
            .with_channel_capacity(DEFAULT_CHANNEL_CAPACITY),
        _ => EngineConfig::stepped().with_parallelism(Parallelism::Fixed(1)),
    };
    let base = base.with_obs(obs).with_zone_pruning(true);
    match w {
        Workload::Spill => base.with_memory_budget(sizing.spill_budget),
        Workload::Wseg => base.unbounded_memory().with_scan_seed(seed),
        Workload::Serve => base
            .unbounded_memory()
            .with_serve_addr("127.0.0.1:0")
            .with_serve_max_concurrent(sizing.clients)
            .with_serve_max_queued(16)
            .with_serve_global_budget(sizing.serve_budget),
        Workload::Resident | Workload::Threaded => base.unbounded_memory(),
    }
}

/// One-line description of the resolved configuration, for the report.
pub fn describe_config(w: Workload, sizing: &Sizing, seed: u64) -> String {
    let cfg = engine_config(w, sizing, seed, ObsLevel::Off);
    format!(
        "executor={:?} parallelism={:?} memory_budget={:?} scan_seed={:?} zone_pruning={} \
         channel_capacity={} serve_max_concurrent={} serve_max_queued={} serve_global_budget={:?}",
        cfg.executor(),
        cfg.parallelism(),
        cfg.spill_config().budget_bytes,
        cfg.scan_seed(),
        cfg.zone_pruning(),
        cfg.channel_capacity(),
        cfg.serve_max_concurrent(),
        cfg.serve_max_queued(),
        cfg.serve_global_budget(),
    )
}

/// The exact answer of one query and how long the exact engine took.
pub struct Reference {
    pub frame: Arc<DataFrame>,
    /// Wall clock of the single-partition run (the Fig 7 "exact engine"
    /// stand-in), plan build included.
    pub exact_s: f64,
}

pub struct Fixture {
    pub data: Arc<TpchData>,
    pub db: TpchDb,
    pub specs: Vec<QuerySpec>,
    pub refs: Vec<Reference>,
    /// Time `TpchDb::persisted` took (`tpch.wseg` only, else 0).
    pub segment_write_s: f64,
}

/// Generate the data, lay out the tables and compute the references.
/// `table_dir` receives the segment files of `tpch.wseg`.
pub fn build_fixture(w: Workload, sizing: &Sizing, seed: u64, table_dir: &Path) -> Result<Fixture> {
    let data = Arc::new(TpchData::generate(sizing.sf, seed));
    let mut segment_write_s = 0.0;
    let db = if w == Workload::Wseg {
        let t = Instant::now();
        let db = TpchDb::persisted(data.clone(), sizing.partitions, table_dir)?;
        segment_write_s = t.elapsed().as_secs_f64();
        db
    } else {
        TpchDb::new(data.clone(), sizing.partitions)
    };
    let specs = w.specs();
    let exact_db = TpchDb::new(data.clone(), 1);
    let exact_cfg = engine_config(Workload::Resident, sizing, seed, ObsLevel::Off);
    let mut refs = Vec::with_capacity(specs.len());
    for spec in &specs {
        let t = Instant::now();
        let frame = exact_cfg.start((spec.build)(&exact_db))?.final_frame()?;
        refs.push(Reference {
            frame,
            exact_s: t.elapsed().as_secs_f64(),
        });
    }
    Ok(Fixture {
        data,
        db,
        specs,
        refs,
        segment_write_s,
    })
}

/// Does `frame` equal the reference answer? MAPE ≤ 1e-9 % over the
/// query's value columns, every reference key present, no extra key, and
/// the same number of rows.
pub fn matches_reference(frame: &DataFrame, reference: &DataFrame, spec: &QuerySpec) -> bool {
    match wake_core::metrics::compare(frame, reference, spec.keys, spec.values) {
        Ok(r) => {
            r.mape <= 1e-9
                && r.recall == 1.0
                && r.precision == 1.0
                && frame.num_rows() == reference.num_rows()
        }
        Err(_) => false,
    }
}

/// A directory of this process's own under the build output, holding
/// everything a run writes: segment files, spill temp dirs, traces and
/// reports. The scratch part is removed when the guard drops.
pub struct WorkDir {
    /// `<target>/wake-e2e` — traces and reports stay here.
    pub out: PathBuf,
    /// `<target>/wake-e2e/work-<pid>` — removed on drop.
    pub scratch: PathBuf,
}

impl WorkDir {
    pub fn create() -> Result<WorkDir> {
        // <target>/<profile>/wake-e2e → <target>/wake-e2e
        let exe = std::env::current_exe()?;
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("the executable has no grandparent directory")?;
        let out = target.join("wake-e2e");
        let scratch = out.join(format!("work-{}", std::process::id()));
        std::fs::create_dir_all(scratch.join("tmp"))?;
        Ok(WorkDir { out, scratch })
    }

    /// Where spill temp dirs go (`main` points `TMPDIR` here).
    pub fn tmp(&self) -> PathBuf {
        self.scratch.join("tmp")
    }

    /// A fresh directory for one set-up's segment files.
    pub fn table_dir(&self, round: usize) -> PathBuf {
        self.scratch.join(format!("tables-{round}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip_and_spill_is_a_subset() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("tpch"), None);
        assert_eq!(Workload::Resident.specs().len(), 22);
        let spill: Vec<_> = Workload::Spill.specs().iter().map(|q| q.name).collect();
        assert_eq!(spill, SPILL_QUERIES);
    }

    #[test]
    fn budgets_follow_the_scale_factor() {
        let s = Sizing::for_sf(0.04);
        assert_eq!(s.spill_budget, 256 << 10);
        assert_eq!(s.serve_budget, 32 << 20);
        assert_eq!(Sizing::for_sf(0.02).spill_budget, 128 << 10);
    }

    #[test]
    fn every_knob_is_explicit() {
        let sizing = Sizing::for_sf(0.02);
        let spill = engine_config(Workload::Spill, &sizing, 7, ObsLevel::Off);
        assert_eq!(spill.spill_config().budget_bytes, Some(128 << 10));
        let wseg = engine_config(Workload::Wseg, &sizing, 7, ObsLevel::Stats);
        assert_eq!(wseg.scan_seed(), Some(7));
        assert_eq!(wseg.obs_level(), ObsLevel::Stats);
        assert_eq!(wseg.spill_config().budget_bytes, None);
        let serve = engine_config(Workload::Serve, &sizing, 7, ObsLevel::Off);
        assert_eq!(serve.serve_max_concurrent(), 2);
        assert_eq!(serve.serve_global_budget(), Some(16 << 20));
    }
}
