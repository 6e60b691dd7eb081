//! Aggregation operator — paper §3.2 "Aggregate", §4.2–§4.3, §5.
//!
//! The operator keeps per-group intrinsic states (mergeable accumulators,
//! Table 2) and publishes extrinsic snapshots after every consumed update:
//!
//! - **Delta input** (Case 2 "shuffle with inference"): each delta is
//!   folded into the group states with the key-based merge `⊕` — no
//!   recomputation of previously seen data.
//! - **Snapshot input** (aggregation over aggregation): every refresh
//!   replaces the intrinsic states entirely, i.e. a new *version* in the
//!   paper's versions×partials state organisation.
//!
//! Extrinsic estimates apply growth-based scaling: a streaming log-log fit
//! of average group cardinality against progress gives the power `w`, and
//! sum-like aggregates scale by `t^{-w}` (§5.2–§5.3). At `t = 1` the scale
//! is exactly 1, so the final answer is exact (convergence property).
//!
//! ## Hot path and partition parallelism
//!
//! Grouping is hash-keyed without per-row `Row` materialisation: each frame
//! gets one vectorized [`hash_keys`] pass over the key columns, a
//! [`GroupIndex`] maps hash → candidate group slots, and candidates are
//! confirmed against the typed [`KeyStore`] holding each group's key tuple.
//! Once a frame's rows are resolved to slots, the aggregate inputs are
//! folded **column-at-a-time** (`AggState::observe_column` and the typed
//! scatter kernels below) instead of `Value`-per-row.
//!
//! The keyed state (`KeyStore` + `GroupIndex` + per-group `AggState`s)
//! lives in `S` hash-range [`AggShard`]s (see [`crate::ops::sharded`]);
//! frames are routed to shards by key hash, per-shard folds run
//! independently (on worker threads for `S > 1`), and snapshot emission
//! merges the per-shard partials: shards are key-disjoint, so the paper's
//! key-based `⊕` merge of partials reduces to concatenating the per-shard
//! group lists and restoring the global key order. One shared
//! [`GrowthModel`] is fit on the *global* group statistics, so estimates
//! are identical at every shard count. `S = 1` (the `Parallelism(1)` plan)
//! skips the scatter and is byte-identical to the unsharded operator.

use crate::agg::{AggSpec, AggState, NumView, ScaleContext};
use crate::ci::variance_column;
use crate::growth::GrowthModel;
use crate::meta::EdfMeta;
use crate::ops::key_index::GroupIndex;
use crate::ops::sharded::{ShardWork, ShardedState};
use crate::ops::spill as spill_codec;
use crate::ops::Operator;
use crate::progress::Progress;
use crate::update::{Update, UpdateKind};
use crate::Result;
use std::sync::Arc;
use wake_data::hash::{hash_keys, KeyStore};
use wake_data::partition::shard_selections;
use wake_data::{Column, DataError, DataFrame, DataType, Field, Schema, Value};
use wake_expr::{eval_cow, infer_type, Expr};
use wake_store::colfile::{Chunk, RunWriter};
use wake_store::governor::{SpillEnv, SpillPlan};
use wake_store::merge::kway_merge_refs;
use wake_store::partition::sub_selections;

struct GroupData {
    states: Vec<AggState>,
    rows: f64,
    /// Extra variance carried in from CI-enabled upstream aggregates
    /// (summed per spec; see `ci` module docs).
    carried_var: Vec<f64>,
}

/// Immutable aggregation configuration shared by the operator shell and
/// every shard (so shard workers can run on their own threads).
struct AggConfig {
    keys: Vec<String>,
    /// Key column positions in the input schema (fixed per edf).
    key_idx: Vec<usize>,
    specs: Vec<AggSpec>,
    /// Emit `{alias}__var` columns when set (confidence handled by caller).
    with_variance: bool,
    input_schema: Arc<Schema>,
    /// For each spec: the input variance column to fold in (CI chaining).
    carried_var_cols: Vec<Option<String>>,
    out_schema: Arc<Schema>,
    /// Just the key fields (the schema of a spilled partition's key
    /// frame; prefix of `out_schema`).
    key_schema: Arc<Schema>,
}

/// The in-memory group-by state of one spill partition (the whole shard
/// when spilling is off — then `AggShard` holds exactly one of these and
/// every code path is byte-identical to the pre-spill operator).
struct AggCore {
    cfg: Arc<AggConfig>,
    index: GroupIndex,
    key_store: KeyStore,
    groups: Vec<GroupData>,
}

/// One spill partition of a shard: resident, or evicted to a state file.
enum AggPart {
    Mem(AggCore),
    /// Evicted: the partition's state lives in a **base** run (one chunk
    /// holding the full partition at its last compaction) plus a
    /// write-behind **delta** run (chunks holding only the groups each
    /// subsequent fold touched, in fold order). The authoritative state
    /// is base ⊕ deltas replayed in append order; folding appends O(delta)
    /// bytes instead of rewriting the whole partition, and the runs are
    /// compacted (replay → rewrite base → truncate delta) once the delta
    /// outgrows `SpillEnv::delta_ratio` × base. Every fold still resolves
    /// the exact post-fold group count, so the growth model — which feeds
    /// mid-query estimates — stays bit-identical to resident execution.
    Spilled {
        base: RunWriter,
        delta: RunWriter,
        groups: usize,
    },
}

impl AggPart {
    fn groups(&self) -> usize {
        match self {
            AggPart::Mem(core) => core.groups.len(),
            AggPart::Spilled { groups, .. } => *groups,
        }
    }
}

/// One hash range's worth of group-by state: a single resident core, or
/// (under a memory budget) `fanout` hash-subrange partitions of which the
/// largest are evicted to disk when the shard exceeds its byte budget.
struct AggShard {
    cfg: Arc<AggConfig>,
    /// Total shard count of the operator (the partition chain must know
    /// how many high bits shard routing consumed).
    op_shards: usize,
    spill: Option<SpillEnv>,
    parts: Vec<AggPart>,
    /// Σ group cardinalities (equals rows folded since the last clear).
    rows_total: f64,
    /// The governor was poisoned (spill device persistently failed) and
    /// this shard has rehydrated its spilled partitions and suspended the
    /// budget: execution continues resident.
    degraded: bool,
}

/// Work dispatched to one shard. Frames are the shard-local sub-frames
/// (the full frame when `S = 1`); `hashes` are the matching row hashes.
enum AggTask {
    /// Delta input: fold into the group states (`⊕` with the key's state).
    Fold {
        frame: Arc<DataFrame>,
        hashes: Vec<u64>,
    },
    /// Snapshot input: new version — clear, then fold the refresh.
    Replace {
        frame: Arc<DataFrame>,
        hashes: Vec<u64>,
    },
    /// Finalize this shard's groups under the shared growth context.
    Snapshot { ctx: ScaleContext },
}

/// One shard's reply: fold statistics or a finalized partial snapshot.
enum AggPartial {
    Folded {
        groups: usize,
        rows: f64,
        state_bytes: usize,
    },
    Snapshot(DataFrame),
}

impl AggCore {
    fn new(cfg: Arc<AggConfig>) -> Self {
        let key_types: Vec<DataType> = cfg
            .key_idx
            .iter()
            .map(|&c| cfg.input_schema.fields()[c].dtype)
            .collect();
        AggCore {
            key_store: KeyStore::for_types(&key_types),
            cfg,
            index: GroupIndex::new(),
            groups: Vec::new(),
        }
    }

    fn fold_frame(&mut self, frame: &DataFrame, hashes: &[u64]) -> Result<()> {
        self.fold_frame_slots(frame, hashes).map(|_| ())
    }

    /// [`Self::fold_frame`], also returning each row's resolved group
    /// slot (the spill delta log derives the touched-group set from it).
    fn fold_frame_slots(&mut self, frame: &DataFrame, hashes: &[u64]) -> Result<Vec<u32>> {
        let n = frame.num_rows();
        if n == 0 {
            return Ok(Vec::new());
        }
        let cfg = self.cfg.clone();
        // Evaluate aggregate input expressions once per frame; bare column
        // references borrow instead of cloning the payload.
        let value_cols: Vec<std::borrow::Cow<'_, Column>> = cfg
            .specs
            .iter()
            .map(|s| eval_cow(&s.expr, frame))
            .collect::<Result<_>>()?;
        let weight_cols: Vec<Option<std::borrow::Cow<'_, Column>>> = cfg
            .specs
            .iter()
            .map(|s| s.weight.as_ref().map(|w| eval_cow(w, frame)).transpose())
            .collect::<Result<_>>()?;
        let carried_cols: Vec<Option<&Column>> = cfg
            .carried_var_cols
            .iter()
            .map(|c| c.as_ref().and_then(|name| frame.column(name).ok()))
            .collect();
        // Resolve every row to its group slot first (hash → candidate
        // slots → typed key confirmation), so the aggregate inputs can
        // then be folded column-at-a-time.
        let mut slots: Vec<u32> = Vec::with_capacity(n);
        for (row, &h) in hashes.iter().enumerate().take(n) {
            let slot = self
                .index
                .candidates(h)
                .iter()
                .copied()
                .find(|&g| self.key_store.eq_row(g, frame, &cfg.key_idx, row));
            let slot = match slot {
                Some(g) => g,
                None => {
                    let g = self.key_store.push_row(frame, &cfg.key_idx, row);
                    self.index.insert(h, g);
                    self.groups.push(GroupData {
                        states: cfg.specs.iter().map(|s| s.new_state()).collect(),
                        rows: 0.0,
                        carried_var: vec![0.0; cfg.specs.len()],
                    });
                    g
                }
            };
            self.groups[slot as usize].rows += 1.0;
            slots.push(slot);
        }
        for (si, _spec) in cfg.specs.iter().enumerate() {
            let col: &Column = &value_cols[si];
            let weight = weight_cols[si].as_deref();
            let vectorized = if self.groups.len() == 1 {
                // Single group in this shard (global aggregates, or one
                // key per hash range): whole-column kernel.
                self.groups[0].states[si].observe_column(col, weight)
            } else {
                observe_column_grouped(&mut self.groups, si, &slots, col, weight)
            };
            if !vectorized {
                // Per-row Value path: non-numeric inputs without a kernel
                // (e.g. min/max over strings).
                for (row, &slot) in slots.iter().enumerate() {
                    let v = col.value(row);
                    let w = weight.map(|c| c.value(row));
                    self.groups[slot as usize].states[si].observe(&v, w.as_ref());
                }
            }
            if let Some(vc) = carried_cols[si] {
                for (row, &slot) in slots.iter().enumerate() {
                    if let Some(var) = vc.f64_at(row) {
                        self.groups[slot as usize].carried_var[si] += var;
                    }
                }
            }
        }
        Ok(slots)
    }

    /// Finalize this core's groups into a key-sorted partial snapshot.
    fn snapshot(&self, ctx: &ScaleContext) -> Result<DataFrame> {
        let cfg = &self.cfg;
        // Deterministic output order: sort group slots by key (typed
        // comparison against the key store; no Value materialisation).
        let mut order: Vec<u32> = (0..self.key_store.len()).collect();
        order.sort_by(|&a, &b| self.key_store.cmp_slots(a, b));
        let nkeys = cfg.keys.len();
        let nspecs = cfg.specs.len();
        let nagg = cfg.out_schema.len() - nkeys;
        let mut agg_cols: Vec<Vec<Value>> = vec![Vec::with_capacity(order.len()); nagg];
        for &slot in &order {
            let g = &self.groups[slot as usize];
            for (si, state) in g.states.iter().enumerate() {
                let out = state.finalize(g.rows, ctx);
                agg_cols[si].push(out.value);
                if cfg.with_variance {
                    let var = out.variance.unwrap_or(0.0) + g.carried_var[si];
                    agg_cols[nspecs + si].push(Value::Float(var));
                }
            }
        }
        let mut columns = self.key_store.to_columns(&order);
        for (f, vals) in cfg.out_schema.fields()[nkeys..].iter().zip(agg_cols) {
            columns.push(Column::from_values(f.dtype, &vals)?);
        }
        DataFrame::new(cfg.out_schema.clone(), columns)
    }

    fn state_bytes(&self) -> usize {
        // Coarse: per-group constant plus variable-size state contents,
        // plus the hash-index and key-store footprints.
        self.groups.len() * 64
            + self.index.byte_size()
            + self.key_store.byte_size()
            + self
                .groups
                .iter()
                .flat_map(|g| g.states.iter())
                .map(|s| match s {
                    AggState::Distinct { set, .. } => 32 + set.byte_size(),
                    AggState::Sample { values, .. } => 32 + values.len() * 8,
                    _ => 32,
                })
                .sum::<usize>()
    }

    /// Serialize the whole core as one spill chunk: the key tuples as a
    /// typed frame, the per-group states in the extra section. Bit-exact:
    /// rehydrating and continuing to fold reproduces the un-spilled float
    /// accumulation sequence.
    fn to_chunk(&self) -> Result<Chunk> {
        let order: Vec<u32> = (0..self.key_store.len()).collect();
        self.to_chunk_for(&order)
    }

    /// Serialize a subset of this core's groups (the write-behind delta:
    /// the slots one fold touched, each carried as its full updated
    /// state so replay is assignment, not a float merge).
    fn to_chunk_for(&self, slots: &[u32]) -> Result<Chunk> {
        let columns = self.key_store.to_columns(slots);
        let frame = Arc::new(DataFrame::new(self.cfg.key_schema.clone(), columns)?);
        let nspecs = self.cfg.specs.len();
        let mut extra = Vec::with_capacity(slots.len() * (16 + nspecs * 32));
        spill_codec::put_u64(&mut extra, slots.len() as u64);
        for &slot in slots {
            let g = &self.groups[slot as usize];
            spill_codec::put_f64(&mut extra, g.rows);
            for &v in &g.carried_var {
                spill_codec::put_f64(&mut extra, v);
            }
            for st in &g.states {
                spill_codec::put_agg_state(&mut extra, st);
            }
        }
        Ok(Chunk {
            frame,
            hashes: None,
            flags: None,
            extra,
        })
    }

    /// Inverse of [`to_chunk`]. The group index is rebuilt by re-hashing
    /// the key frame — hashes are content-deterministic, so the rebuilt
    /// index candidates match the original insertion order slot for slot.
    fn from_chunk(cfg: Arc<AggConfig>, chunk: &Chunk) -> Result<AggCore> {
        let mut core = AggCore::new(cfg);
        core.apply_chunk(chunk)?;
        Ok(core)
    }

    /// Replay one base or delta chunk onto this core: a group already
    /// present (matched by key) is **overwritten** with the chunk's state
    /// — delta entries carry full updated states, so replay in append
    /// order reconstructs the partition bit for bit — and an unseen key
    /// is appended in chunk order, preserving the resident insertion
    /// order (and with it the index candidate order).
    fn apply_chunk(&mut self, chunk: &Chunk) -> Result<()> {
        let cfg = self.cfg.clone();
        let nkeys = cfg.key_idx.len();
        let key_cols: Vec<usize> = (0..nkeys).collect();
        let mut c = wake_data::colfile::ByteCursor::new(&chunk.extra);
        let n_groups = c.u64()? as usize;
        if nkeys > 0 && chunk.frame.num_rows() != n_groups {
            return Err(wake_data::DataError::ShapeMismatch(format!(
                "spilled agg partition: {} key rows vs {} groups",
                chunk.frame.num_rows(),
                n_groups
            )));
        }
        let hashes = hash_keys(&chunk.frame, &key_cols);
        for row in 0..n_groups {
            let h = if nkeys > 0 {
                hashes.hashes[row]
            } else {
                // Zero-key partitions are never spilled, but stay safe.
                hash_keys(&chunk.frame, &[])
                    .hashes
                    .first()
                    .copied()
                    .unwrap_or(0)
            };
            let rows = c.f64()?;
            let mut carried_var = Vec::with_capacity(cfg.specs.len());
            for _ in 0..cfg.specs.len() {
                carried_var.push(c.f64()?);
            }
            let mut states = Vec::with_capacity(cfg.specs.len());
            for spec in &cfg.specs {
                let mut st = spec.new_state();
                spill_codec::get_agg_state(&mut st, &mut c)?;
                states.push(st);
            }
            let existing = self
                .index
                .candidates(h)
                .iter()
                .copied()
                .find(|&g| self.key_store.eq_row(g, &chunk.frame, &key_cols, row));
            match existing {
                Some(g) => {
                    self.groups[g as usize] = GroupData {
                        states,
                        rows,
                        carried_var,
                    };
                }
                None => {
                    let g = self.key_store.push_row(&chunk.frame, &key_cols, row);
                    self.index.insert(h, g);
                    self.groups.push(GroupData {
                        states,
                        rows,
                        carried_var,
                    });
                }
            }
        }
        Ok(())
    }
}

impl AggShard {
    fn new(cfg: Arc<AggConfig>, op_shards: usize, spill: Option<SpillEnv>) -> Self {
        // Zero-key (global) aggregates hold O(specs) state — partitioning
        // and spilling them is pure overhead; keep them resident.
        let spill = if cfg.key_idx.is_empty() { None } else { spill };
        let parts = match &spill {
            None => vec![AggPart::Mem(AggCore::new(cfg.clone()))],
            Some(env) => (0..env.fanout)
                .map(|_| AggPart::Mem(AggCore::new(cfg.clone())))
                .collect(),
        };
        AggShard {
            cfg,
            op_shards: op_shards.max(1),
            spill,
            parts,
            rows_total: 0.0,
            degraded: false,
        }
    }

    fn clear(&mut self) {
        for part in &mut self.parts {
            match part {
                AggPart::Mem(core) => *core = AggCore::new(self.cfg.clone()),
                AggPart::Spilled { base, delta, .. } => {
                    base.clear();
                    delta.clear();
                    *part = AggPart::Mem(AggCore::new(self.cfg.clone()));
                }
            }
        }
        self.rows_total = 0.0;
    }

    /// Reconstruct a spilled partition's current state: the base chunk,
    /// then every delta chunk replayed in append order.
    ///
    /// The delta read recovers from a torn tail (a crash mid-append
    /// leaves every acked chunk intact, then garbage): replay stops at
    /// the last intact chunk and the returned flag is `true`, telling the
    /// caller to compact — durably truncating the loss to the un-acked
    /// delta. The base run is read strictly: it is rewritten whole at
    /// every compaction, so a torn base means the partition itself is
    /// gone (typed error, no silent data loss).
    fn rehydrate(
        cfg: &Arc<AggConfig>,
        base: &RunWriter,
        delta: &RunWriter,
    ) -> Result<(AggCore, bool)> {
        let chunks = base.read_all()?;
        let mut core = match chunks.first() {
            Some(chunk) => AggCore::from_chunk(cfg.clone(), chunk)?,
            None => AggCore::new(cfg.clone()),
        };
        let mut torn = false;
        if !delta.is_empty() {
            // Untracked: the base read above already counted this
            // logical partition load.
            let (chunks, dropped) = delta.read_all_recovering()?;
            torn = dropped > 0;
            for chunk in chunks {
                core.apply_chunk(&chunk)?;
            }
        }
        Ok((core, torn))
    }

    /// Rewrite `base` as one chunk holding `core`'s full state and
    /// truncate the delta run.
    fn compact(
        env: &SpillEnv,
        core: &AggCore,
        base: &mut RunWriter,
        delta: &mut RunWriter,
    ) -> Result<()> {
        base.clear();
        base.push(&core.to_chunk()?)?;
        base.flush()?;
        delta.clear();
        env.governor.record_compaction();
        Ok(())
    }

    fn fold_frame(&mut self, frame: &DataFrame, hashes: &[u64]) -> Result<()> {
        self.rows_total += frame.num_rows() as f64;
        let Some(env) = self.spill.clone() else {
            let AggPart::Mem(core) = &mut self.parts[0] else {
                unreachable!("unspilled shard is always resident");
            };
            return core.fold_frame(frame, hashes);
        };
        if env.governor.is_poisoned() && !self.degraded {
            self.degrade()?;
        }
        // Scatter rows to spill partitions by the next hash digits below
        // shard routing; fold each sub-frame into its partition.
        let sels = sub_selections(hashes, self.op_shards, env.fanout, 0);
        for (p, sel) in sels.into_iter().enumerate() {
            if sel.is_empty() {
                continue;
            }
            // Borrow the originals when every row routes to this
            // partition (skewed keys) — `DataFrame` owns its buffers, so
            // a clone here would deep-copy the whole update.
            let scattered: Option<(DataFrame, Vec<u64>)> =
                (sel.len() != frame.num_rows()).then(|| {
                    (
                        frame.select(&sel),
                        sel.iter().map(|&i| hashes[i as usize]).collect(),
                    )
                });
            let (sub, sub_hashes): (&DataFrame, &[u64]) = match &scattered {
                Some((f, h)) => (f, h),
                None => (frame, hashes),
            };
            match &mut self.parts[p] {
                AggPart::Mem(core) => core.fold_frame(sub, sub_hashes)?,
                AggPart::Spilled {
                    base,
                    delta,
                    groups,
                } => {
                    // Write-behind fold: rehydrate (base + replayed
                    // deltas), fold — the per-group accumulation order is
                    // identical to the resident path and the group count
                    // exact (the growth model reads it every update) —
                    // then append ONLY the touched groups' updated states
                    // to the delta run. The full rewrite happens at
                    // compaction, once the delta outgrows its ratio.
                    let (mut core, torn) = Self::rehydrate(&self.cfg, base, delta)?;
                    let slots = core.fold_frame_slots(sub, sub_hashes)?;
                    *groups = core.groups.len();
                    // Ratio 0 compacts unconditionally: skip building the
                    // delta chunk it would immediately discard (this is
                    // the legacy rehydrate-fold-rewrite I/O pattern). A
                    // torn delta tail also forces a compact — the rewrite
                    // durably truncates the run to its recovered state.
                    if torn || env.delta_ratio <= 0.0 {
                        Self::compact(&env, &core, base, delta)?;
                        continue;
                    }
                    let mut touched = slots;
                    touched.sort_unstable();
                    touched.dedup();
                    let chunk = core.to_chunk_for(&touched)?;
                    let projected = (delta.total_bytes() + chunk.byte_size()) as f64;
                    if projected > env.delta_ratio * base.total_bytes() as f64 {
                        Self::compact(&env, &core, base, delta)?;
                    } else {
                        let before = delta.total_bytes();
                        delta.push(&chunk)?;
                        delta.flush()?;
                        env.governor.record_delta(delta.total_bytes() - before);
                    }
                }
            }
        }
        self.enforce_budget()?;
        Ok(())
    }

    /// Rehydrate every spilled partition back into memory and suspend the
    /// budget: the spill device has failed persistently, and the query
    /// finishes resident (the "degraded" half of the recovery ladder).
    /// Fails typed if a spilled partition is no longer readable.
    fn degrade(&mut self) -> Result<()> {
        // Flag first: even if a rehydration read fails below, this shard
        // must never try to evict to the dead device again.
        self.degraded = true;
        for part in &mut self.parts {
            if let AggPart::Spilled { base, delta, .. } = part {
                // Torn tails just truncate here — there is no device left
                // to compact to, and the recovered state is authoritative.
                let (core, _torn) = Self::rehydrate(&self.cfg, base, delta)?;
                base.clear();
                delta.clear();
                *part = AggPart::Mem(core);
            }
        }
        Ok(())
    }

    /// While over the shard budget, evict the largest resident partition
    /// (the governor's eviction policy) to its own spill run.
    fn enforce_budget(&mut self) -> Result<()> {
        let Some(env) = self.spill.clone() else {
            return Ok(());
        };
        if self.degraded {
            return Ok(());
        }
        while self.state_bytes() > env.shard_budget() {
            if env.governor.is_poisoned() {
                // The device died under this very loop (an eviction's
                // flush soft-failed): stop evicting — the "spilled" parts
                // are memory-resident pending buffers, so the loop could
                // never shed bytes — and go resident for good.
                return self.degrade();
            }
            let victim = self
                .parts
                .iter()
                .enumerate()
                .filter_map(|(i, p)| match p {
                    AggPart::Mem(core) if !core.groups.is_empty() => Some((i, core.state_bytes())),
                    _ => None,
                })
                .max_by_key(|&(_, bytes)| bytes);
            let Some((i, _)) = victim else {
                break; // everything spillable is already on disk
            };
            let AggPart::Mem(core) = &self.parts[i] else {
                unreachable!()
            };
            let chunk = core.to_chunk()?;
            let groups = core.groups.len();
            let mut base = RunWriter::new(env.dir.clone(), env.governor.clone(), "agg");
            base.push(&chunk)?;
            base.flush()?;
            let delta = RunWriter::new(env.dir.clone(), env.governor.clone(), "aggd");
            env.governor.record_eviction();
            self.parts[i] = AggPart::Spilled {
                base,
                delta,
                groups,
            };
        }
        Ok(())
    }

    /// Key-sorted partial snapshot across all partitions: resident cores
    /// snapshot directly, spilled ones rehydrate (base + replayed
    /// deltas), and the per-partition partials k-way merge by key.
    /// Partitions are key-disjoint, so the merge is exactly the
    /// shard-level ⊕ story one level down. Snapshot boundaries are also
    /// compaction opportunities: the full state is in hand, so an
    /// over-ratio delta run (the fold-time check estimates chunk sizes
    /// and can undershoot) is folded back into its base here.
    fn snapshot(&mut self, ctx: &ScaleContext) -> Result<DataFrame> {
        let Some(env) = self.spill.clone() else {
            let AggPart::Mem(core) = &self.parts[0] else {
                unreachable!()
            };
            return core.snapshot(ctx);
        };
        if env.governor.is_poisoned() && !self.degraded {
            self.degrade()?;
        }
        let mut partials: Vec<DataFrame> = Vec::new();
        for part in &mut self.parts {
            match part {
                AggPart::Mem(core) => {
                    if !core.groups.is_empty() {
                        partials.push(core.snapshot(ctx)?);
                    }
                }
                AggPart::Spilled {
                    base,
                    delta,
                    groups,
                } => {
                    if *groups > 0 {
                        let (core, torn) = Self::rehydrate(&self.cfg, base, delta)?;
                        if torn
                            || delta.total_bytes() as f64
                                > env.delta_ratio * base.total_bytes() as f64
                        {
                            Self::compact(&env, &core, base, delta)?;
                        }
                        partials.push(core.snapshot(ctx)?);
                    }
                }
            }
        }
        merge_key_sorted(&self.cfg, partials)
    }

    fn state_bytes(&self) -> usize {
        self.parts
            .iter()
            .map(|p| match p {
                AggPart::Mem(core) => core.state_bytes(),
                // Spilled partitions cost their pending write-behind
                // buffers plus bookkeeping.
                AggPart::Spilled { base, delta, .. } => {
                    base.pending_bytes() + delta.pending_bytes() + 64
                }
            })
            .sum()
    }

    fn num_groups(&self) -> usize {
        self.parts.iter().map(|p| p.groups()).sum()
    }

    fn folded_stats(&self) -> AggPartial {
        AggPartial::Folded {
            groups: self.num_groups(),
            rows: self.rows_total,
            state_bytes: self.state_bytes(),
        }
    }
}

/// Merge key-sorted, key-disjoint partials into one key-sorted frame —
/// the typed replacement for "concat + global `Value` re-sort". Shared by
/// the in-shard spill-partition merge and the operator-level shard merge.
fn merge_key_sorted(cfg: &AggConfig, mut partials: Vec<DataFrame>) -> Result<DataFrame> {
    match partials.len() {
        0 => Ok(DataFrame::empty(cfg.out_schema.clone())),
        1 => Ok(partials.pop().expect("one partial")),
        _ => {
            if cfg.keys.is_empty() {
                let refs: Vec<&DataFrame> = partials.iter().collect();
                return DataFrame::concat(&refs);
            }
            let key_idx: Vec<usize> = (0..cfg.keys.len()).collect();
            let order = {
                let refs: Vec<&DataFrame> = partials.iter().collect();
                kway_merge_refs(&refs, &key_idx)
            };
            let mut store = crate::ops::RowStore::new();
            for p in partials {
                store.push(Arc::new(p));
            }
            store.gather(&order)
        }
    }
}

impl ShardWork for AggShard {
    type Task = AggTask;
    type Out = Result<AggPartial>;

    fn run(&mut self, task: AggTask) -> Result<AggPartial> {
        match task {
            AggTask::Fold { frame, hashes } => {
                self.fold_frame(&frame, &hashes)?;
                Ok(self.folded_stats())
            }
            AggTask::Replace { frame, hashes } => {
                self.clear();
                self.fold_frame(&frame, &hashes)?;
                Ok(self.folded_stats())
            }
            AggTask::Snapshot { ctx } => Ok(AggPartial::Snapshot(self.snapshot(&ctx)?)),
        }
    }
}

/// Typed scatter kernel: fold `col` into the per-row group states for spec
/// `si` without materialising a `Value` per cell. All states for one spec
/// share a variant, so the inner `if let` is perfectly predicted. Returns
/// `false` (fall back to the row path) for non-numeric inputs and
/// count-distinct.
fn observe_column_grouped(
    groups: &mut [GroupData],
    si: usize,
    slots: &[u32],
    col: &Column,
    weight: Option<&Column>,
) -> bool {
    // Count-distinct scatters through the typed set — the one kernel that
    // must dispatch on the column type itself (Bool/Utf8 included).
    if matches!(
        groups[slots[0] as usize].states[si],
        AggState::Distinct { .. }
    ) {
        observe_distinct_grouped(groups, si, slots, col);
        return true;
    }
    let Some((view, dtype)) = NumView::of(col) else {
        return false;
    };
    let valid = col.validity();
    macro_rules! scatter {
        (|$row:ident, $st:ident| $body:expr) => {
            match valid {
                None => {
                    for ($row, &slot) in slots.iter().enumerate() {
                        let $st = &mut groups[slot as usize].states[si];
                        $body
                    }
                }
                Some(mask) => {
                    for ($row, &slot) in slots.iter().enumerate() {
                        if mask[$row] {
                            let $st = &mut groups[slot as usize].states[si];
                            $body
                        }
                    }
                }
            }
        };
    }
    match &groups[slots[0] as usize].states[si] {
        AggState::Count { .. } => scatter!(|_row, st| {
            if let AggState::Count { n } = st {
                *n += 1.0;
            }
        }),
        AggState::Sum { .. } | AggState::Avg { .. } | AggState::Dispersion { .. } => {
            scatter!(|row, st| {
                if let AggState::Sum { m } | AggState::Avg { m } | AggState::Dispersion { m, .. } =
                    st
                {
                    m.observe(view.get(row));
                }
            })
        }
        AggState::Sample { .. } => scatter!(|row, st| {
            if let AggState::Sample { values, .. } = st {
                values.push(view.get(row));
            }
        }),
        AggState::Extreme { .. } => scatter!(|row, st| {
            if let AggState::Extreme {
                best,
                second,
                is_min,
            } = st
            {
                crate::agg::observe_extreme(best, second, *is_min, &view.value(row, dtype));
            }
        }),
        AggState::WeightedAvg { .. } => {
            let Some((wview, _)) = weight.and_then(NumView::of) else {
                return false;
            };
            let wvalid = weight.expect("checked above").validity();
            for (row, &slot) in slots.iter().enumerate() {
                let ok = valid.is_none_or(|m| m[row]) && wvalid.is_none_or(|m| m[row]);
                if ok {
                    if let AggState::WeightedAvg { m_wv, m_w } =
                        &mut groups[slot as usize].states[si]
                    {
                        let w = wview.get(row);
                        m_wv.observe(w * view.get(row));
                        m_w.observe(w);
                    }
                }
            }
        }
        AggState::Distinct { .. } => unreachable!("handled above"),
    }
    true
}

/// Typed scatter for count-distinct: insert each row's cell into its
/// group's [`DistinctSet`](crate::agg::DistinctSet) with one pass over
/// the raw column buffer — no `Value` per cell.
fn observe_distinct_grouped(groups: &mut [GroupData], si: usize, slots: &[u32], col: &Column) {
    use wake_data::column::ColumnData;
    macro_rules! scatter {
        ($values:expr, $insert:expr) => {
            match col.validity() {
                None => {
                    for (row, &slot) in slots.iter().enumerate() {
                        if let AggState::Distinct { set, n } = &mut groups[slot as usize].states[si]
                        {
                            $insert(set, &$values[row]);
                            *n += 1.0;
                        }
                    }
                }
                Some(mask) => {
                    for (row, &slot) in slots.iter().enumerate() {
                        if mask[row] {
                            if let AggState::Distinct { set, n } =
                                &mut groups[slot as usize].states[si]
                            {
                                $insert(set, &$values[row]);
                                *n += 1.0;
                            }
                        }
                    }
                }
            }
        };
    }
    match col.data() {
        ColumnData::Int64(v) | ColumnData::Date(v) => {
            scatter!(v, |s: &mut crate::agg::DistinctSet, x: &i64| s
                .insert_num(*x as f64))
        }
        ColumnData::Float64(v) => {
            scatter!(v, |s: &mut crate::agg::DistinctSet, x: &f64| s
                .insert_num(*x))
        }
        ColumnData::Bool(v) => {
            scatter!(v, |s: &mut crate::agg::DistinctSet, x: &bool| s
                .insert_bool(*x))
        }
        ColumnData::Utf8(v) => {
            scatter!(v, |s: &mut crate::agg::DistinctSet,
                         x: &std::sync::Arc<str>| s
                .insert_str(x))
        }
    }
}

/// Group-by aggregation with growth-based inference over hash-range
/// sharded state; see the module docs.
pub struct AggOp {
    cfg: Arc<AggConfig>,
    state: ShardedState<AggShard>,
    /// Per-shard statistics from the last fold (shard state may live on
    /// worker threads, so footprint and group counts travel via results).
    shard_groups: Vec<usize>,
    shard_rows: Vec<f64>,
    shard_bytes: Vec<usize>,
    input_kind: UpdateKind,
    growth: GrowthModel,
    /// Memory-governance plan (None = unbounded, the resident-only path).
    spill: Option<SpillPlan>,
    /// The current shard count (so `with_spill` and `with_shards` compose
    /// in either order).
    shards: usize,
    progress: Progress,
    emitted_complete: bool,
    meta: EdfMeta,
}

impl AggOp {
    pub fn new(
        input: &EdfMeta,
        keys: Vec<String>,
        specs: Vec<AggSpec>,
        with_variance: bool,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(DataError::Invalid(
                "aggregation needs at least one spec".into(),
            ));
        }
        let mut fields = Vec::with_capacity(keys.len() + specs.len());
        for k in &keys {
            let f = input.schema.field(k)?;
            fields.push(Field::new(f.name.clone(), f.dtype));
        }
        let mut seen = std::collections::HashSet::new();
        for k in &keys {
            if !seen.insert(k.clone()) {
                return Err(DataError::Invalid(format!("duplicate group key {k}")));
            }
        }
        for s in &specs {
            let in_type = infer_type(&s.expr, &input.schema)?;
            if let Some(w) = &s.weight {
                infer_type(w, &input.schema)?;
            }
            fields.push(Field::mutable(s.alias.clone(), s.output_type(in_type)));
        }
        if with_variance {
            for s in &specs {
                fields.push(Field::mutable(variance_column(&s.alias), DataType::Float64));
            }
        }
        // CI chaining: a Sum over a plain column that has an accompanying
        // `{col}__var` column folds the upstream variance in.
        let carried_var_cols = specs
            .iter()
            .map(|s| match (&s.func, &s.expr) {
                (crate::agg::AggFunc::Sum, Expr::Col(c)) => {
                    let vc = variance_column(c);
                    input.schema.contains(&vc).then_some(vc)
                }
                _ => None,
            })
            .collect();
        // Grouping on (a prefix of) the clustering key means group
        // cardinalities do not grow once seen: prior w = 0 (§2.2 Case 1,
        // Fig 4 "agg by clustering key").
        let clustered = match &input.clustering_key {
            Some(ck) => !keys.is_empty() && keys.len() <= ck.len() && ck[..keys.len()] == keys[..],
            None => false,
        };
        let mut growth = GrowthModel::for_input(input.kind);
        if clustered {
            growth = GrowthModel::for_input(UpdateKind::Snapshot); // prior w = 0
        }
        let key_schema = Arc::new(Schema::new(fields[..keys.len()].to_vec()));
        let schema = Arc::new(Schema::new(fields));
        let meta =
            EdfMeta::new(schema.clone(), keys.clone(), UpdateKind::Snapshot).with_clustering(None);
        let key_idx = keys
            .iter()
            .map(|k| input.schema.index_of(k))
            .collect::<Result<Vec<_>>>()?;
        let cfg = Arc::new(AggConfig {
            keys,
            key_idx,
            specs,
            with_variance,
            input_schema: input.schema.clone(),
            carried_var_cols,
            out_schema: schema,
            key_schema,
        });
        Ok(AggOp {
            state: ShardedState::new(vec![AggShard::new(cfg.clone(), 1, None)]),
            shard_groups: vec![0],
            shard_rows: vec![0.0],
            shard_bytes: vec![0],
            cfg,
            input_kind: input.kind,
            growth,
            spill: None,
            shards: 1,
            progress: Progress::new(),
            emitted_complete: false,
            meta,
        })
    }

    /// Govern this operator's memory: when the per-shard slice of
    /// `plan.op_budget()` is exceeded, the largest spill partition is
    /// evicted to disk. Composes with [`Self::with_shards`] in either
    /// order; must precede execution. `None` keeps the unbounded
    /// resident path.
    pub fn with_spill(mut self, spill: Option<SpillPlan>) -> Self {
        debug_assert!(
            !self.emitted_complete && self.progress.t() == 0.0,
            "with_spill must precede execution"
        );
        self.spill = spill;
        self.rebuild_shards()
    }

    /// Re-plan the operator onto `shards` hash-range shards (one runs on
    /// the caller's thread, more on persistent workers — see
    /// [`crate::ops::sharded`]). Must be called before any update is
    /// consumed.
    pub fn with_shards(mut self, shards: usize) -> Self {
        debug_assert!(
            !self.emitted_complete && self.progress.t() == 0.0,
            "with_shards must precede execution"
        );
        self.shards = shards.max(1);
        self.rebuild_shards()
    }

    fn rebuild_shards(mut self) -> Self {
        let shards = self.shards;
        let env = self.spill.as_ref().map(|p| p.shard_env(shards));
        self.state = ShardedState::new(
            (0..shards)
                .map(|_| AggShard::new(self.cfg.clone(), shards, env.clone()))
                .collect(),
        );
        self.shard_groups = vec![0; shards];
        self.shard_rows = vec![0.0; shards];
        self.shard_bytes = vec![0; shards];
        self
    }

    /// Route one input frame to per-shard fold/replace tasks by key hash.
    fn fold_tasks(&self, frame: &Arc<DataFrame>, replace: bool) -> Vec<Option<AggTask>> {
        let make = |frame: Arc<DataFrame>, hashes: Vec<u64>| {
            if replace {
                AggTask::Replace { frame, hashes }
            } else {
                AggTask::Fold { frame, hashes }
            }
        };
        let hashes = hash_keys(frame, &self.cfg.key_idx);
        let shards = self.state.num_shards();
        if shards == 1 {
            return vec![Some(make(frame.clone(), hashes.hashes))];
        }
        shard_selections(&hashes, shards)
            .into_iter()
            .map(|sel| {
                if sel.is_empty() && !replace {
                    // No rows for this shard; skipping keeps its state (and
                    // the fold statistics we already hold) untouched. A
                    // Replace must reach every shard to clear stale state.
                    None
                } else {
                    let sub = Arc::new(frame.select(&sel));
                    let sub_hashes = hashes.take(&sel).hashes;
                    Some(make(sub, sub_hashes))
                }
            })
            .collect()
    }

    fn emit(&mut self, force_exact: bool) -> Result<Update> {
        let t = self.progress.t();
        let complete = self.progress.is_complete() || force_exact;
        let ctx = if complete {
            ScaleContext::exact()
        } else {
            ScaleContext {
                scale: self.growth.scale_factor(t),
                t,
                w_variance: self.growth.w_variance(),
            }
        };
        let shards = self.state.num_shards();
        let tasks: Vec<Option<AggTask>> = if shards == 1 {
            vec![Some(AggTask::Snapshot { ctx })]
        } else {
            // Empty shards contribute no groups; skip their round-trip.
            self.shard_groups
                .iter()
                .map(|&g| (g > 0).then_some(AggTask::Snapshot { ctx }))
                .collect()
        };
        let outs = self.state.run(tasks)?;
        let mut partials: Vec<DataFrame> = Vec::new();
        for out in outs.into_iter().flatten() {
            if let AggPartial::Snapshot(frame) = out? {
                partials.push(frame);
            }
        }
        // ⊕-merge across shards: keys are disjoint and every partial is
        // key-sorted, so restoring global key order is a typed k-way
        // merge — no `Value` comparisons, no global re-sort.
        let frame = merge_key_sorted(&self.cfg, partials)?;
        if complete {
            self.emitted_complete = true;
        }
        Ok(Update::snapshot(frame, self.progress.clone()))
    }

    fn observe_growth(&mut self) {
        let groups: usize = self.shard_groups.iter().sum();
        if groups == 0 {
            return;
        }
        let total: f64 = self.shard_rows.iter().sum();
        let avg = total / groups as f64;
        self.growth.observe(self.progress.t(), avg);
    }
}

impl Operator for AggOp {
    fn on_update(&mut self, port: usize, update: &Update) -> Result<Vec<Update>> {
        debug_assert_eq!(port, 0);
        self.progress.merge(&update.progress);
        let replace = self.input_kind == UpdateKind::Snapshot;
        let tasks = self.fold_tasks(&update.frame, replace);
        let outs = self.state.run(tasks)?;
        for (s, out) in outs.into_iter().enumerate() {
            if let Some(out) = out {
                if let AggPartial::Folded {
                    groups,
                    rows,
                    state_bytes,
                } = out?
                {
                    self.shard_groups[s] = groups;
                    self.shard_rows[s] = rows;
                    self.shard_bytes[s] = state_bytes;
                }
            }
        }
        self.observe_growth();
        Ok(vec![self.emit(false)?])
    }

    fn on_eof(&mut self, _port: usize) -> Result<Vec<Update>> {
        // Guarantee one complete (exact) emission even if the last update
        // arrived before progress reached 1 (or no update arrived at all —
        // an empty result is still a valid exact answer): EOF means the
        // intrinsic state covers all data, so no scaling.
        if !self.emitted_complete {
            return Ok(vec![self.emit(true)?]);
        }
        Ok(Vec::new())
    }

    fn meta(&self) -> &EdfMeta {
        &self.meta
    }

    fn state_bytes(&self) -> usize {
        self.shard_bytes.iter().sum()
    }

    fn report(&self) -> crate::ops::OpReport {
        crate::ops::OpReport {
            shard_state_bytes: self.shard_bytes.clone(),
        }
    }
}

// Expose input schema for debugging/tests.
impl AggOp {
    pub fn input_schema(&self) -> &Arc<Schema> {
        &self.cfg.input_schema
    }

    /// Pin the growth power instead of fitting it (ablation mode; no-op
    /// when `fixed` is `None`).
    pub fn with_fixed_growth(mut self, fixed: Option<f64>) -> Self {
        if let Some(w) = fixed {
            self.growth = GrowthModel::fixed(w);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::kv_frame;
    use wake_expr::col;

    fn delta_meta() -> EdfMeta {
        EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            UpdateKind::Delta,
        )
    }

    fn clustered_meta() -> EdfMeta {
        delta_meta().with_clustering(Some(vec!["k".into()]))
    }

    fn upd(ks: Vec<i64>, vs: Vec<f64>, processed: u64, total: u64) -> Update {
        Update::delta(kv_frame(ks, vs), Progress::single(0, processed, total))
    }

    #[test]
    fn incremental_sum_with_linear_scaling() {
        let mut op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s")],
            false,
        )
        .unwrap();
        // Half the data: raw per-group sums are 10 and 20; at t=0.5 with
        // prior w=1 estimates double.
        let out = op
            .on_update(0, &upd(vec![1, 2], vec![10.0, 20.0], 2, 4))
            .unwrap();
        let f = &out[0].frame;
        assert_eq!(out[0].kind, UpdateKind::Snapshot);
        assert_eq!(f.value(0, "s").unwrap(), Value::Float(20.0));
        assert_eq!(f.value(1, "s").unwrap(), Value::Float(40.0));
        // Remaining data arrives: exact, unscaled.
        let out = op
            .on_update(0, &upd(vec![1, 2], vec![1.0, 2.0], 4, 4))
            .unwrap();
        let f = &out[0].frame;
        assert_eq!(f.value(0, "s").unwrap(), Value::Float(11.0));
        assert_eq!(f.value(1, "s").unwrap(), Value::Float(22.0));
        assert!(out[0].progress.is_complete());
    }

    #[test]
    fn group_on_clustering_key_is_unscaled() {
        let mut op = AggOp::new(
            &clustered_meta(),
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s")],
            false,
        )
        .unwrap();
        // Prior w=0: raw values are already the right estimates.
        let out = op
            .on_update(0, &upd(vec![1, 1], vec![3.0, 4.0], 2, 8))
            .unwrap();
        assert_eq!(out[0].frame.value(0, "s").unwrap(), Value::Float(7.0));
    }

    #[test]
    fn snapshot_input_is_recomputed_per_version() {
        let meta = EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            UpdateKind::Snapshot,
        );
        let mut op =
            AggOp::new(&meta, vec![], vec![AggSpec::sum(col("v"), "total")], false).unwrap();
        let s1 = Update::snapshot(
            kv_frame(vec![1, 2], vec![10.0, 10.0]),
            Progress::single(0, 1, 2),
        );
        let out = op.on_update(0, &s1).unwrap();
        assert_eq!(out[0].frame.value(0, "total").unwrap(), Value::Float(20.0));
        // Refreshed snapshot REPLACES, it does not accumulate.
        let s2 = Update::snapshot(
            kv_frame(vec![1, 2], vec![7.0, 8.0]),
            Progress::single(0, 2, 2),
        );
        let out = op.on_update(0, &s2).unwrap();
        assert_eq!(out[0].frame.value(0, "total").unwrap(), Value::Float(15.0));
    }

    #[test]
    fn growth_fit_corrects_flat_groups() {
        // Low-cardinality group-by where all groups appear immediately and
        // keep growing linearly: w should stay near 1 and estimates track
        // the final sums.
        let mut op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s")],
            false,
        )
        .unwrap();
        let mut last = None;
        for p in 1..=10u64 {
            let out = op
                .on_update(0, &upd(vec![1, 2], vec![5.0, 5.0], p * 2, 20))
                .unwrap();
            last = Some(out[0].frame.clone());
        }
        let f = last.unwrap();
        // Exact final sums: 50 per group.
        assert_eq!(f.as_ref().value(0, "s").unwrap(), Value::Float(50.0));
    }

    #[test]
    fn estimates_improve_monotonically_for_uniform_data() {
        let mut op =
            AggOp::new(&delta_meta(), vec![], vec![AggSpec::count_star("n")], false).unwrap();
        let mut errs = Vec::new();
        for p in 1..=5u64 {
            let out = op
                .on_update(0, &upd(vec![1, 2, 3, 4], vec![0.0; 4], p * 4, 20))
                .unwrap();
            let est = out[0].frame.value(0, "n").unwrap().as_f64().unwrap();
            errs.push((est - 20.0).abs());
        }
        // Uniform stream: every estimate is exact under linear growth.
        for e in errs {
            assert!(e < 1e-9);
        }
    }

    #[test]
    fn variance_columns_emitted_when_enabled() {
        let mut op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s")],
            true,
        )
        .unwrap();
        assert!(op.meta().schema.contains("s__var"));
        let out = op
            .on_update(0, &upd(vec![1, 1], vec![1.0, 5.0], 2, 4))
            .unwrap();
        let var = out[0].frame.value(0, "s__var").unwrap().as_f64().unwrap();
        assert!(var >= 0.0);
    }

    #[test]
    fn eof_guarantees_complete_emission() {
        let mut op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s")],
            false,
        )
        .unwrap();
        // Updates stop at t < 1 (source lied about totals / trailing empty
        // partition); EOF must still flush an exact state.
        op.on_update(0, &upd(vec![1], vec![2.0], 1, 2)).unwrap();
        let out = op.on_eof(0).unwrap();
        assert_eq!(out.len(), 1);
        // After EOF flush the raw (unscaled) value is reported.
        assert_eq!(out[0].frame.value(0, "s").unwrap(), Value::Float(2.0));
        // Second EOF is a no-op.
        assert!(op.on_eof(0).unwrap().is_empty());
    }

    #[test]
    fn empty_global_aggregate_emits_zero_rows() {
        let mut op = AggOp::new(
            &delta_meta(),
            vec![],
            vec![AggSpec::sum(col("v"), "s")],
            false,
        )
        .unwrap();
        let out = op.on_update(0, &upd(vec![], vec![], 0, 0)).unwrap();
        assert_eq!(out[0].frame.num_rows(), 0);
    }

    #[test]
    fn null_keys_form_one_group_sorted_first() {
        let mut op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::count_star("n")],
            false,
        )
        .unwrap();
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let frame = DataFrame::from_rows(
            schema,
            &[
                vec![Value::Null, Value::Float(1.0)],
                vec![Value::Int(3), Value::Float(2.0)],
                vec![Value::Null, Value::Float(3.0)],
            ],
        )
        .unwrap();
        let out = op
            .on_update(0, &Update::delta(frame, Progress::single(0, 3, 3)))
            .unwrap();
        let f = &out[0].frame;
        assert_eq!(f.num_rows(), 2, "nulls must coalesce into one group");
        assert!(f.value(0, "k").unwrap().is_null(), "null group sorts first");
        assert_eq!(f.value(0, "n").unwrap(), Value::Float(2.0));
        assert_eq!(f.value(1, "k").unwrap(), Value::Int(3));
        assert_eq!(f.value(1, "n").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let err = AggOp::new(
            &delta_meta(),
            vec!["k".into(), "k".into()],
            vec![AggSpec::count_star("n")],
            false,
        );
        assert!(err.is_err());
    }

    #[test]
    fn output_sorted_by_key() {
        let mut op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::count_star("n")],
            false,
        )
        .unwrap();
        let out = op
            .on_update(0, &upd(vec![5, 1, 3, 1], vec![0.0; 4], 4, 4))
            .unwrap();
        let f = &out[0].frame;
        let ks: Vec<Value> = f.column("k").unwrap().iter().collect();
        assert_eq!(ks, vec![Value::Int(1), Value::Int(3), Value::Int(5)]);
    }

    #[test]
    fn budget_spilled_group_by_is_bit_identical_to_resident() {
        // A budget small enough to evict on every update: snapshots (all
        // of them, not just the final one) must be bit-equal to the
        // unbounded operator — fold order, growth stats, and key order
        // are all preserved across evict/rehydrate cycles.
        use wake_store::governor::SpillConfig;
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let frame = |step: i64| {
            let rows: Vec<Vec<Value>> = (0..40)
                .map(|i| {
                    let k = (i * 11 + step) % 17;
                    vec![
                        if k == 0 { Value::Null } else { Value::Int(k) },
                        Value::Float((i * step) as f64 * 0.125),
                    ]
                })
                .collect();
            DataFrame::from_rows(schema.clone(), &rows).unwrap()
        };
        let specs = || {
            vec![
                AggSpec::sum(col("v"), "s"),
                AggSpec::count_star("n"),
                AggSpec::min(col("v"), "mn"),
                AggSpec::avg(col("v"), "a"),
                AggSpec::count_distinct(col("v"), "cd"),
                AggSpec::median(col("v"), "med"),
            ]
        };
        for shards in [1usize, 3] {
            let plan = SpillConfig::with_budget(2048)
                .build_plan(1)
                .unwrap()
                .unwrap();
            let governor = plan.governor.clone();
            let mut reference = AggOp::new(&delta_meta(), vec!["k".into()], specs(), true)
                .unwrap()
                .with_shards(shards);
            let mut spilled = AggOp::new(&delta_meta(), vec!["k".into()], specs(), true)
                .unwrap()
                .with_spill(Some(plan))
                .with_shards(shards);
            for step in 1..=4i64 {
                let u = Update::delta(frame(step), Progress::single(0, step as u64 * 40, 160));
                let a = reference.on_update(0, &u).unwrap();
                let b = spilled.on_update(0, &u).unwrap();
                assert_eq!(
                    a[0].frame.as_ref(),
                    b[0].frame.as_ref(),
                    "S={shards} step {step}"
                );
            }
            assert_eq!(
                reference.on_eof(0).unwrap().len(),
                spilled.on_eof(0).unwrap().len()
            );
            let m = governor.metrics();
            assert!(m.evictions > 0, "S={shards}: budget never triggered");
            assert!(m.spilled_bytes > 0 && m.rehydrations > 0);
        }
    }

    #[test]
    fn delta_log_is_bit_identical_at_every_compaction_ratio() {
        // The write-behind delta log is an I/O policy, never a semantics
        // change: whatever the compaction ratio — 0 (compact every fold,
        // the legacy path), tiny (compact almost every fold), default,
        // or effectively-never — every estimate must be bit-equal to the
        // resident operator, and the policy must show up in the ledger.
        use wake_store::governor::SpillConfig;
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let frame = |step: i64| {
            let rows: Vec<Vec<Value>> = (0..60)
                .map(|i| {
                    let k = (i * 13 + step) % 23;
                    vec![Value::Int(k), Value::Float((i * step) as f64 * 0.125)]
                })
                .collect();
            DataFrame::from_rows(schema.clone(), &rows).unwrap()
        };
        let specs = || {
            vec![
                AggSpec::sum(col("v"), "s"),
                AggSpec::count_star("n"),
                AggSpec::count_distinct(col("v"), "cd"),
            ]
        };
        for ratio in [0.0, 0.05, 0.5, 1e12] {
            let mut cfg = SpillConfig::with_budget(1024);
            cfg.delta_ratio = Some(ratio);
            let plan = cfg.build_plan(1).unwrap().unwrap();
            let governor = plan.governor.clone();
            let mut reference = AggOp::new(&delta_meta(), vec!["k".into()], specs(), true).unwrap();
            let mut spilled = AggOp::new(&delta_meta(), vec!["k".into()], specs(), true)
                .unwrap()
                .with_spill(Some(plan));
            for step in 1..=6i64 {
                let u = Update::delta(frame(step), Progress::single(0, step as u64 * 60, 360));
                let a = reference.on_update(0, &u).unwrap();
                let b = spilled.on_update(0, &u).unwrap();
                assert_eq!(
                    a[0].frame.as_ref(),
                    b[0].frame.as_ref(),
                    "ratio {ratio} step {step}"
                );
            }
            let m = governor.metrics();
            assert!(m.evictions > 0, "ratio {ratio}: budget never triggered");
            if ratio == 0.0 {
                // Legacy compact-on-every-fold: no delta appends at all.
                assert_eq!(m.delta_bytes, 0, "ratio 0 must never append deltas");
                assert!(m.compactions > 0);
            } else if ratio == 0.05 {
                // Tiny ratio: both sides of the policy fire.
                assert!(m.compactions > 0, "tiny ratio must compact: {m:?}");
            } else if ratio == 1e12 {
                // Effectively-never compaction: pure delta appends.
                assert!(m.delta_bytes > 0, "huge ratio must append deltas: {m:?}");
                assert_eq!(m.compactions, 0, "huge ratio must not compact: {m:?}");
            }
        }
    }

    #[test]
    fn enospc_poisons_then_degrades_bit_identically() {
        // The spill device fills up mid-query: the governor is poisoned,
        // the shard rehydrates its spilled partitions (disk reads still
        // work on a full disk) and finishes resident — and because agg
        // folds are bit-identical resident or spilled, every estimate
        // still matches the unbounded reference exactly.
        use wake_store::governor::SpillConfig;
        use wake_store::{FaultIo, FaultSchedule};
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let frame = |step: i64| {
            let rows: Vec<Vec<Value>> = (0..60)
                .map(|i| {
                    let k = (i * 13 + step) % 23;
                    vec![Value::Int(k), Value::Float((i * step) as f64 * 0.125)]
                })
                .collect();
            DataFrame::from_rows(schema.clone(), &rows).unwrap()
        };
        let specs = || {
            vec![
                AggSpec::sum(col("v"), "s"),
                AggSpec::count_star("n"),
                AggSpec::count_distinct(col("v"), "cd"),
            ]
        };
        let mut cfg = SpillConfig::with_budget(1024);
        cfg.io = Some(Arc::new(FaultIo::new(FaultSchedule {
            enospc_after_bytes: Some(8 << 10),
            ..FaultSchedule::default()
        })));
        cfg.retry_attempts = Some(1);
        cfg.retry_base_delay = Some(std::time::Duration::from_micros(10));
        let plan = cfg.build_plan(1).unwrap().unwrap();
        let governor = plan.governor.clone();
        let mut reference = AggOp::new(&delta_meta(), vec!["k".into()], specs(), true).unwrap();
        let mut spilled = AggOp::new(&delta_meta(), vec!["k".into()], specs(), true)
            .unwrap()
            .with_spill(Some(plan));
        for step in 1..=8i64 {
            let u = Update::delta(frame(step), Progress::single(0, step as u64 * 60, 480));
            let a = reference.on_update(0, &u).unwrap();
            let b = spilled.on_update(0, &u).unwrap();
            assert_eq!(a[0].frame.as_ref(), b[0].frame.as_ref(), "step {step}");
        }
        let m = governor.metrics();
        assert!(m.evictions > 0, "budget never triggered: {m:?}");
        assert!(
            governor.is_poisoned(),
            "8 KiB of device never filled up: {m:?}"
        );
        assert!(m.io_retries > 0, "retries must precede poisoning");
    }

    #[test]
    fn torn_final_delta_chunk_recovers_to_last_acked_state() {
        // Crash consistency of the write-behind log: the final delta
        // append is torn mid-chunk (the crash case — every acked chunk
        // intact, then garbage). Rehydration must recover base + all
        // intact deltas bit for bit and report the tear so the caller
        // compacts the truncation durably.
        use wake_store::colfile::encode_chunk;
        use wake_store::{FaultIo, FaultSchedule, MemoryGovernor, SpillDir, TornWrite};
        let op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s"), AggSpec::count_star("n")],
            false,
        )
        .unwrap();
        let cfg = op.cfg.clone();
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let frame = |step: i64| {
            let rows: Vec<Vec<Value>> = (0..20)
                .map(|i| {
                    let k = (i * 7 + step) % 13;
                    vec![Value::Int(k), Value::Float((i * step) as f64 * 0.5)]
                })
                .collect();
            DataFrame::from_rows(schema.clone(), &rows).unwrap()
        };
        let io = Arc::new(FaultIo::new(FaultSchedule {
            torn_write: Some(TornWrite {
                tag: "aggd".to_string(),
                nth: 2, // the third delta append (after steps 2 and 3 land)
                keep_bytes: 9,
            }),
            ..FaultSchedule::default()
        }));
        let dir = Arc::new(SpillDir::new_temp_with(io).unwrap());
        let gov = Arc::new(MemoryGovernor::new(Some(1 << 20)));
        let mut base = RunWriter::new(dir.clone(), gov.clone(), "agg").with_flush_threshold(1);
        let mut delta = RunWriter::new(dir, gov, "aggd").with_flush_threshold(1);
        // Base: full state after step 1; deltas: touched groups per step.
        let mut core = AggCore::new(cfg.clone());
        let mut reference = AggCore::new(cfg.clone());
        for step in 1..=4i64 {
            let f = frame(step);
            let hashes = hash_keys(&f, &cfg.key_idx).hashes;
            let mut touched = core.fold_frame_slots(&f, &hashes).unwrap();
            if step <= 3 {
                reference.fold_frame(&f, &hashes).unwrap();
            }
            if step == 1 {
                base.push(&core.to_chunk().unwrap()).unwrap();
                base.flush().unwrap();
            } else {
                touched.sort_unstable();
                touched.dedup();
                delta.push(&core.to_chunk_for(&touched).unwrap()).unwrap();
                delta.flush().unwrap(); // step 4's append is the torn one
            }
        }
        let (recovered, torn) = AggShard::rehydrate(&cfg, &base, &delta).unwrap();
        assert!(torn, "the torn tail must be reported");
        // Recovered = state after step 3 (base ⊕ intact deltas), bit for
        // bit — compare full encoded states.
        let mut a = Vec::new();
        encode_chunk(&recovered.to_chunk().unwrap(), &mut a).unwrap();
        let mut b = Vec::new();
        encode_chunk(&reference.to_chunk().unwrap(), &mut b).unwrap();
        assert_eq!(a, b, "recovered state != last acked state");
        // The strict read path must keep rejecting the torn run.
        assert!(delta.read_all_untracked().is_err());
    }

    #[test]
    fn snapshot_input_replace_clears_spilled_state() {
        // A snapshot-kind input replaces state wholesale; spilled
        // partitions must be dropped too, not merged into the refresh.
        use wake_store::governor::SpillConfig;
        let meta = EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            UpdateKind::Snapshot,
        );
        let plan = SpillConfig::with_budget(512)
            .build_plan(1)
            .unwrap()
            .unwrap();
        let mut op = AggOp::new(
            &meta,
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s")],
            false,
        )
        .unwrap()
        .with_spill(Some(plan));
        let big: Vec<i64> = (0..200).collect();
        let vals: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let s1 = Update::snapshot(kv_frame(big, vals), Progress::single(0, 1, 2));
        op.on_update(0, &s1).unwrap();
        // Refresh shrinks to two groups: result must reflect only them.
        let s2 = Update::snapshot(
            kv_frame(vec![1, 2], vec![5.0, 6.0]),
            Progress::single(0, 2, 2),
        );
        let out = op.on_update(0, &s2).unwrap();
        let f = &out[0].frame;
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(0, "s").unwrap(), Value::Float(5.0));
        assert_eq!(f.value(1, "s").unwrap(), Value::Float(6.0));
    }

    #[test]
    fn sharded_group_by_is_identical_to_unsharded() {
        // Every shard count, every shard mode, every estimate: bit-equal
        // output frames (group fold order is preserved within a shard, the
        // growth model is global, and the merged emission restores the
        // global key order). Null keys ride in shard 0.
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let frame = |step: i64| {
            let rows: Vec<Vec<Value>> = (0..25)
                .map(|i| {
                    let k = (i * 7 + step) % 11;
                    vec![
                        if k == 0 { Value::Null } else { Value::Int(k) },
                        Value::Float((i * step) as f64 * 0.25),
                    ]
                })
                .collect();
            DataFrame::from_rows(schema.clone(), &rows).unwrap()
        };
        let specs = || {
            vec![
                AggSpec::sum(col("v"), "s"),
                AggSpec::count_star("n"),
                AggSpec::min(col("v"), "mn"),
                AggSpec::avg(col("v"), "a"),
                AggSpec::count_distinct(col("v"), "cd"),
            ]
        };
        for shards in [2usize, 3, 8] {
            let mut reference = AggOp::new(&delta_meta(), vec!["k".into()], specs(), true).unwrap();
            let mut sharded = AggOp::new(&delta_meta(), vec!["k".into()], specs(), true)
                .unwrap()
                .with_shards(shards);
            for step in 1..=4i64 {
                let u = Update::delta(frame(step), Progress::single(0, step as u64 * 25, 100));
                let a = reference.on_update(0, &u).unwrap();
                let b = sharded.on_update(0, &u).unwrap();
                assert_eq!(a.len(), b.len());
                assert_eq!(
                    a[0].frame.as_ref(),
                    b[0].frame.as_ref(),
                    "S={shards} step {step}"
                );
            }
            let a = reference.on_eof(0).unwrap();
            let b = sharded.on_eof(0).unwrap();
            assert_eq!(a.len(), b.len());
            assert!(sharded.state_bytes() > 0);
        }
    }
}
