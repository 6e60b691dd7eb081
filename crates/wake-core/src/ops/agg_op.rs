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
//! lives in a [`KeyedState`] of `S` hash-range shards, each `F` spill
//! partitions of [`AggPart`] (see [`crate::ops::partitions`], which owns
//! the routing, the eviction policy and the degrade ladder); frames are
//! routed by key hash, per-shard folds run independently (on worker
//! threads for `S > 1`), and snapshot emission merges the per-shard
//! partials: shards are key-disjoint, so the paper's
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
use crate::ops::partitions::{concat_partials, KeyedState, Partition, Partitions};
use crate::ops::spill as spill_codec;
use crate::ops::Operator;
use crate::progress::Progress;
use crate::update::{Update, UpdateKind};
use crate::Result;
use std::sync::Arc;
use wake_data::hash::{hash_keys, KeyHashes, KeyStore};
use wake_data::{Column, DataError, DataFrame, DataType, Field, Schema, Value};
use wake_expr::{eval_cow, infer_type, Expr};
use wake_store::colfile::{Chunk, RunWriter};
use wake_store::governor::{SpillEnv, SpillPlan};
use wake_store::merge::kway_merge_refs;

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
/// when spilling is off).
struct AggCore {
    cfg: Arc<AggConfig>,
    index: GroupIndex,
    key_store: KeyStore,
    groups: Vec<GroupData>,
}

/// One spill partition of a shard — the payload the shared
/// [`Partitions`] layer routes to, evicts and rehydrates: resident, or
/// evicted to a state file.
// A shard holds at most `fanout` (≤ 8 by default) of these: boxing the
// run handles would buy a few hundred bytes per shard for an allocation
// per eviction.
#[allow(clippy::large_enum_variant)]
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
        env: SpillEnv,
        base: RunWriter,
        delta: RunWriter,
        groups: usize,
    },
}

/// One hash range's worth of group-by state: the shared partition layer
/// over [`AggPart`] (a single resident core without a budget — then every
/// code path is byte-identical to the pre-spill operator; under one,
/// `fanout` hash-subrange partitions of which the largest are evicted).
type AggShard = Partitions<AggPart>;

/// Work dispatched to one shard. Frames are the shard-local sub-frames
/// (the full frame when `S = 1`); `hashes` are the matching row hashes.
enum AggTask {
    /// Fold a frame into the group states (`⊕` with the key's state).
    /// `replace` marks a snapshot input: a new version — clear, then fold
    /// the refresh.
    Fold {
        frame: Arc<DataFrame>,
        hashes: KeyHashes,
        replace: bool,
    },
    /// Finalize this shard's groups under the shared growth context.
    Snapshot { ctx: ScaleContext },
}

/// One shard's reply: its group count after a fold, or a finalized
/// partial snapshot.
enum AggPartial {
    Folded { groups: usize },
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
            let vectorized = if let [only] = self.groups.as_mut_slice() {
                // Single group in this shard (global aggregates, or one
                // key per hash range): whole-column kernel.
                only.states[si].observe_column(col, weight)
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

    /// Replay one base or delta chunk onto this core (onto an empty one,
    /// the inverse of [`to_chunk`](Self::to_chunk)): a group already
    /// present (matched by key) is **overwritten** with the chunk's state
    /// — delta entries carry full updated states, so replay in append
    /// order reconstructs the partition bit for bit — and an unseen key
    /// is appended in chunk order, preserving the resident insertion
    /// order. The group index is rebuilt by re-hashing the key frame —
    /// hashes are content-deterministic, so its candidates match the
    /// original insertion order slot for slot.
    fn apply_chunk(&mut self, chunk: &Chunk) -> Result<()> {
        let cfg = self.cfg.clone();
        let nkeys = cfg.key_idx.len();
        let key_cols: Vec<usize> = (0..nkeys).collect();
        let mut c = wake_data::colfile::ByteCursor::new(&chunk.extra);
        // Every group costs at least its 8-byte row count. Zero-key
        // (global) aggregates never spill, so every group has a key row.
        let n_groups = c.count_u64(8)?;
        if chunk.frame.num_rows() != n_groups {
            return Err(wake_data::DataError::ShapeMismatch(format!(
                "spilled agg partition: {} key rows vs {} groups",
                chunk.frame.num_rows(),
                n_groups
            )));
        }
        let hashes = hash_keys(&chunk.frame, &key_cols).hashes;
        for (row, &h) in hashes.iter().enumerate() {
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

/// Rewrite `base` as one chunk holding `core`'s full state and truncate
/// the delta run.
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

impl AggPart {
    fn groups(&self) -> usize {
        match self {
            AggPart::Mem(core) => core.groups.len(),
            AggPart::Spilled { groups, .. } => *groups,
        }
    }

    fn fold(&mut self, cfg: &Arc<AggConfig>, frame: &DataFrame, hashes: &[u64]) -> Result<()> {
        match self {
            AggPart::Mem(core) => core.fold_frame(frame, hashes),
            AggPart::Spilled {
                env,
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
                let (mut core, torn) = AggShard::rehydrate(cfg, base, delta)?;
                let slots = core.fold_frame_slots(frame, hashes)?;
                *groups = core.groups.len();
                // Ratio 0 compacts unconditionally: skip building the
                // delta chunk it would immediately discard (this is
                // the legacy rehydrate-fold-rewrite I/O pattern). A
                // torn delta tail also forces a compact — the rewrite
                // durably truncates the run to its recovered state.
                if torn || env.delta_ratio <= 0.0 {
                    return compact(env, &core, base, delta);
                }
                let mut touched = slots;
                touched.sort_unstable();
                touched.dedup();
                let chunk = core.to_chunk_for(&touched)?;
                let projected = (delta.total_bytes() + chunk.byte_size()) as f64;
                if projected > env.delta_ratio * base.total_bytes() as f64 {
                    compact(env, &core, base, delta)
                } else {
                    let before = delta.total_bytes();
                    delta.push(&chunk)?;
                    delta.flush()?;
                    env.governor.record_delta(delta.total_bytes() - before);
                    Ok(())
                }
            }
        }
    }

    /// This partition's key-sorted partial snapshot, `None` when it holds
    /// no group. A spilled partition rehydrates (base + replayed deltas).
    /// Snapshot boundaries are also compaction opportunities: the full
    /// state is in hand, so an over-ratio delta run (the fold-time check
    /// estimates chunk sizes and can undershoot) is folded back into its
    /// base here.
    fn snapshot(&mut self, cfg: &Arc<AggConfig>, ctx: &ScaleContext) -> Result<Option<DataFrame>> {
        if self.groups() == 0 {
            return Ok(None);
        }
        match self {
            AggPart::Mem(core) => core.snapshot(ctx).map(Some),
            AggPart::Spilled {
                env, base, delta, ..
            } => {
                let (core, torn) = AggShard::rehydrate(cfg, base, delta)?;
                if torn || delta.total_bytes() as f64 > env.delta_ratio * base.total_bytes() as f64
                {
                    compact(env, &core, base, delta)?;
                }
                core.snapshot(ctx).map(Some)
            }
        }
    }
}

impl AggShard {
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
        let mut core = AggCore::new(cfg.clone());
        if let Some(chunk) = base.read_all()?.first() {
            core.apply_chunk(chunk)?;
        }
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
}

impl Partition for AggPart {
    type Cfg = AggConfig;
    type Task = AggTask;
    type Out = AggPartial;

    fn new(cfg: &Arc<AggConfig>) -> Self {
        AggPart::Mem(AggCore::new(cfg.clone()))
    }

    fn resident_bytes(&self) -> Option<usize> {
        match self {
            AggPart::Mem(core) if !core.groups.is_empty() => Some(core.state_bytes()),
            _ => None,
        }
    }

    fn evict(&mut self, env: &SpillEnv) -> Result<()> {
        let AggPart::Mem(core) = self else {
            return Err(DataError::Invalid(
                "only a resident group-by partition can be evicted".into(),
            ));
        };
        let mut base = env.new_run("agg");
        base.push(&core.to_chunk()?)?;
        base.flush()?;
        *self = AggPart::Spilled {
            delta: env.new_run("aggd"),
            groups: core.groups.len(),
            env: env.clone(),
            base,
        };
        Ok(())
    }

    fn rehydrate(&mut self, cfg: &Arc<AggConfig>) -> Result<()> {
        if let AggPart::Spilled { base, delta, .. } = self {
            // Torn tails just truncate here — there is no device left
            // to compact to, and the recovered state is authoritative.
            let (core, _torn) = AggShard::rehydrate(cfg, base, delta)?;
            *self = AggPart::Mem(core);
        }
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        match self {
            AggPart::Mem(core) => core.state_bytes(),
            // Spilled partitions cost their pending write-behind
            // buffers plus bookkeeping.
            AggPart::Spilled { base, delta, .. } => {
                base.pending_bytes() + delta.pending_bytes() + 64
            }
        }
    }

    fn run(shard: &mut AggShard, task: AggTask) -> Result<(AggPartial, Option<usize>)> {
        let cfg = shard.cfg().clone();
        match task {
            AggTask::Fold {
                frame,
                hashes,
                replace,
            } => {
                if replace {
                    // Spilled partitions are dropped too, not merged into
                    // the refresh (their run files delete on drop).
                    for part in shard.parts_mut() {
                        *part = AggPart::new(&cfg);
                    }
                }
                shard.scatter(&frame, hashes, false, |part, sub, sub_hashes| {
                    part.fold(&cfg, sub, &sub_hashes.hashes)
                })?;
                let groups = shard.parts().iter().map(AggPart::groups).sum();
                Ok((AggPartial::Folded { groups }, Some(shard.state_bytes())))
            }
            AggTask::Snapshot { ctx } => {
                // Partitions are key-disjoint, so the k-way merge of their
                // partials is the shard-level ⊕ story one level down.
                let mut partials: Vec<DataFrame> = Vec::new();
                shard.each(|part| {
                    partials.extend(part.snapshot(&cfg, &ctx)?);
                    Ok(())
                })?;
                let frame = merge_key_sorted(&cfg, partials)?;
                Ok((AggPartial::Snapshot(frame), None))
            }
        }
    }
}

/// Merge key-sorted, key-disjoint partials into one key-sorted frame —
/// the typed replacement for "concat + global `Value` re-sort". Shared by
/// the in-shard spill-partition merge and the operator-level shard merge.
fn merge_key_sorted(cfg: &AggConfig, partials: Vec<DataFrame>) -> Result<DataFrame> {
    if partials.len() < 2 || cfg.keys.is_empty() {
        return concat_partials(&cfg.out_schema, partials);
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
    let Some(&first) = slots.first() else {
        return true; // no rows, nothing to fold
    };
    // Count-distinct scatters through the typed set — the one kernel that
    // must dispatch on the column type itself (Bool/Utf8 included).
    if matches!(groups[first as usize].states[si], AggState::Distinct { .. }) {
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
    match &groups[first as usize].states[si] {
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
            let Some((weight, (wview, _))) = weight.and_then(|w| Some((w, NumView::of(w)?))) else {
                return false;
            };
            let wvalid = weight.validity();
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
        AggState::Distinct { .. } => {} // scattered above
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
    keyed: KeyedState<AggPart>,
    /// Per-shard group counts from the last fold (shard state may live on
    /// worker threads, so they travel via task results).
    shard_groups: Vec<usize>,
    /// Σ group cardinalities: rows folded since the last replace.
    rows_total: f64,
    input_kind: UpdateKind,
    growth: GrowthModel,
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
            keyed: KeyedState::new(cfg.clone()),
            shard_groups: vec![0],
            rows_total: 0.0,
            cfg,
            input_kind: input.kind,
            growth,
            progress: Progress::new(),
            emitted_complete: false,
            meta,
        })
    }

    /// Govern this operator's memory: when the per-shard slice of
    /// `plan.op_budget()` is exceeded, the largest spill partition is
    /// evicted to disk. Composes with [`Self::with_shards`] in either
    /// order; must precede execution. `None` keeps the unbounded
    /// resident path — as does a zero-key (global) aggregate, whose
    /// O(specs) state would only pay for partitioning.
    pub fn with_spill(mut self, spill: Option<SpillPlan>) -> Self {
        let spill = spill.filter(|_| !self.cfg.key_idx.is_empty());
        self.keyed = self.keyed.with_spill(spill);
        self
    }

    /// Re-plan the operator onto `shards` hash-range shards (one runs on
    /// the caller's thread, more on persistent workers — see
    /// [`crate::ops::sharded`]). Must be called before any update is
    /// consumed.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.keyed = self.keyed.with_shards(shards);
        self.shard_groups = vec![0; self.keyed.num_shards()];
        self
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
        // Above one shard, empty shards contribute no groups; skip their
        // round-trip.
        let one = self.keyed.num_shards() == 1;
        let tasks = self
            .shard_groups
            .iter()
            .map(|&g| (one || g > 0).then_some(AggTask::Snapshot { ctx }))
            .collect();
        let mut partials: Vec<DataFrame> = Vec::new();
        for out in self.keyed.run(tasks)?.into_iter().flatten() {
            if let AggPartial::Snapshot(frame) = out {
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
        let avg = self.rows_total / groups as f64;
        self.growth.observe(self.progress.t(), avg);
    }
}

impl Operator for AggOp {
    fn on_update(&mut self, port: usize, update: &Update) -> Result<Vec<Update>> {
        debug_assert_eq!(port, 0);
        self.progress.merge(&update.progress);
        // A snapshot input is a new version: it must reach every shard
        // to clear stale state, rows or not.
        let replace = self.input_kind == UpdateKind::Snapshot;
        let rows = update.frame.num_rows() as f64;
        self.rows_total = if replace {
            rows
        } else {
            self.rows_total + rows
        };
        let hashes = hash_keys(&update.frame, &self.cfg.key_idx);
        let tasks = self
            .keyed
            .scatter(&update.frame, hashes, replace, |frame, hashes| {
                AggTask::Fold {
                    frame,
                    hashes,
                    replace,
                }
            });
        for (s, out) in self.keyed.run(tasks)?.into_iter().enumerate() {
            if let Some(AggPartial::Folded { groups }) = out {
                self.shard_groups[s] = groups;
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
        self.keyed.state_bytes()
    }

    fn report(&self) -> crate::ops::OpReport {
        self.keyed.report()
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
