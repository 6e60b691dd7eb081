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
//! [`GroupIndex`] maps hash → candidate group slots, and one find-or-insert
//! (`AggCore::slot_of`) confirms candidates against the [`KeyStore`] — one
//! typed `Column` per key — under `wake_data::hash`'s one cell equality;
//! the snapshot orders groups by its one cell order. Once a frame's rows
//! are resolved to slots, each aggregate input is folded
//! **column-at-a-time** into that spec's one [`AggStore`] through its fold
//! kernel, [`AggStore::fold_column`]. A snapshot sorts the slots by key
//! once and reads each store out in that order through its finalize
//! kernel, [`AggStore::finalize_column`], as a typed estimate column plus
//! the variances the `__var` columns carry. This module only holds the
//! stores: how each aggregate kind lays out, folds, finalizes and spills
//! its state lives in [`crate::agg`] alone.
//!
//! The keyed state (`KeyStore` + `GroupIndex` + one `AggStore` per spec)
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
//!
//! An evicted partition is one spill run holding one chunk: its full
//! state, the key tuples as a frame and, in the chunk's `extra` bytes, the
//! group count, row counts and carried variances followed by each store's
//! own encoding. A fold into it rehydrates the run, folds exactly as the
//! resident path does, and rewrites the run; a snapshot rehydrates and
//! finalizes. Spilled execution is therefore bit-identical to resident
//! execution.

use crate::agg::{AggSpec, AggStore, ScaleContext};
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
use std::collections::BTreeSet;
use std::sync::Arc;
use wake_data::hash::{hash_keys, KeyHashes, KeyStore};
use wake_data::{Column, DataError, DataFrame, DataType, Field, Schema};
use wake_expr::{eval_cow, infer_type, Expr};
use wake_store::colfile::{Chunk, RunWriter};
use wake_store::governor::SpillEnv;
use wake_store::merge::kway_merge_refs;

/// Immutable aggregation configuration shared by the operator shell and
/// every shard (so shard workers can run on their own threads).
struct AggConfig {
    keys: Vec<String>,
    /// Key column positions in the input schema (fixed per edf).
    key_idx: Vec<usize>,
    specs: Vec<AggSpec>,
    /// Each spec's empty state store, typed by its inferred input.
    stores: Vec<AggStore>,
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
/// when spilling is off). Every per-group vector is indexed by group slot.
struct AggCore {
    cfg: Arc<AggConfig>,
    index: GroupIndex,
    key_store: KeyStore,
    /// Rows folded into each group.
    rows: Vec<f64>,
    /// Per spec, every group's state.
    stores: Vec<AggStore>,
    /// Per spec, each group's extra variance carried in from CI-enabled
    /// upstream aggregates (summed; see `ci` module docs).
    carried_var: Vec<Vec<f64>>,
}

/// One spill partition of a shard — the payload the shared
/// [`Partitions`] layer routes to, evicts and rehydrates: resident, or
/// evicted to a state file.
// A shard holds at most `FANOUT` (8) of these: boxing the
// run handle would buy a few hundred bytes per shard for an allocation
// per eviction.
#[allow(clippy::large_enum_variant)]
enum AggPart {
    Mem(AggCore),
    /// Evicted: the partition's full state is one chunk in one run. A
    /// fold rehydrates it, folds, and rewrites the run, so the exact
    /// post-fold group count — which the growth model reads for every
    /// mid-query estimate — stays bit-identical to resident execution.
    Spilled {
        run: RunWriter,
        groups: usize,
    },
}

/// One hash range's worth of group-by state: the shared partition layer
/// over [`AggPart`] (a single resident core without a budget — then every
/// code path is byte-identical to the pre-spill operator; under one,
/// `FANOUT` hash-subrange partitions of which the largest are evicted).
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
            index: GroupIndex::new(),
            rows: Vec::new(),
            stores: cfg.stores.clone(),
            carried_var: vec![Vec::new(); cfg.specs.len()],
            cfg,
        }
    }

    /// Number of groups.
    fn len(&self) -> usize {
        self.rows.len()
    }

    /// Append an empty group (its key already pushed to the key store).
    fn push_group(&mut self) {
        self.rows.push(0.0);
        for (store, carried) in self.stores.iter_mut().zip(&mut self.carried_var) {
            store.push_group();
            carried.push(0.0);
        }
    }

    /// Find-or-insert the group of the key tuple at `row` of `frame`
    /// (`hash` is its row hash): the first candidate slot whose stored key
    /// equals it, else a new empty group. A key cell of the wrong storage
    /// class is a `TypeMismatch`.
    #[inline]
    fn slot_of(
        &mut self,
        frame: &DataFrame,
        key_idx: &[usize],
        row: usize,
        hash: u64,
    ) -> Result<u32> {
        let found = self
            .index
            .candidates(hash)
            .iter()
            .copied()
            .find(|&g| self.key_store.eq_row(g, frame, key_idx, row));
        if let Some(g) = found {
            return Ok(g);
        }
        let g = self.key_store.push_row(frame, key_idx, row)?;
        self.index.insert(hash, g);
        self.push_group();
        Ok(g)
    }

    /// Fold a frame into the group states (`⊕` with each key's state).
    fn fold_frame(&mut self, frame: &DataFrame, hashes: &[u64]) -> Result<()> {
        let n = frame.num_rows();
        if n == 0 {
            return Ok(());
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
            let slot = self.slot_of(frame, &cfg.key_idx, row, h)?;
            self.rows[slot as usize] += 1.0;
            slots.push(slot);
        }
        for si in 0..cfg.specs.len() {
            let weight = weight_cols[si].as_deref();
            self.stores[si].fold_column(&slots, &value_cols[si], weight)?;
            if let Some(vc) = carried_cols[si] {
                let carried = &mut self.carried_var[si];
                for (row, &slot) in slots.iter().enumerate() {
                    if let Some(var) = vc.f64_at(row) {
                        carried[slot as usize] += var;
                    }
                }
            }
        }
        Ok(())
    }

    /// Finalize this core's groups into a key-sorted partial snapshot:
    /// the key columns, then one estimate column per spec through the
    /// finalize kernel, then (with variance) each spec's variance plus the
    /// variance carried in from upstream.
    fn snapshot(&self, ctx: &ScaleContext) -> Result<DataFrame> {
        let cfg = &self.cfg;
        // Deterministic output order: sort group slots by key (typed
        // comparison against the key store).
        let mut order: Vec<u32> = (0..self.key_store.len()).collect();
        order.sort_by(|&a, &b| self.key_store.cmp_slots(a, b));
        let mut columns = self.key_store.to_columns(&order);
        let mut var_columns = Vec::new();
        for (si, store) in self.stores.iter().enumerate() {
            let (column, mut var) = store.finalize_column(&order, ctx)?;
            columns.push(column);
            if cfg.with_variance {
                for (v, &slot) in var.iter_mut().zip(&order) {
                    *v += self.carried_var[si][slot as usize];
                }
                var_columns.push(Column::from_f64(var));
            }
        }
        columns.extend(var_columns);
        DataFrame::new(cfg.out_schema.clone(), columns)
    }

    fn state_bytes(&self) -> usize {
        // Coarse: per-group constant plus variable-size state contents,
        // plus the hash-index and key-store footprints.
        self.len() * 64
            + self.index.byte_size()
            + self.key_store.byte_size()
            + self.stores.iter().map(AggStore::byte_size).sum::<usize>()
    }

    /// Serialize the whole core as one spill chunk: the key tuples as a
    /// typed frame; in the extra section the group count, the row counts,
    /// the carried variances, then each store's encoding. Bit-exact:
    /// rehydrating and continuing to fold reproduces the un-spilled float
    /// accumulation sequence.
    fn to_chunk(&self) -> Result<Chunk> {
        let order: Vec<u32> = (0..self.key_store.len()).collect();
        let columns = self.key_store.to_columns(&order);
        let frame = Arc::new(DataFrame::new(self.cfg.key_schema.clone(), columns)?);
        let mut extra = Vec::new();
        spill_codec::put_u64(&mut extra, order.len() as u64);
        spill_codec::put_f64s(&mut extra, &self.rows);
        for carried in &self.carried_var {
            spill_codec::put_f64s(&mut extra, carried);
        }
        for store in &self.stores {
            store.encode(&mut extra)?;
        }
        Ok(Chunk {
            frame,
            hashes: None,
            flags: None,
            extra,
        })
    }

    /// Load a spilled partition chunk into this fresh core, the inverse
    /// of [`to_chunk`](Self::to_chunk): groups are appended in chunk
    /// order, which is the resident insertion order. The group index is
    /// rebuilt by re-hashing the key frame — hashes are
    /// content-deterministic, so its candidates match the original
    /// insertion order slot for slot. Bytes left over after the last
    /// store are a `Parse` error: the chunk was not written for this
    /// aggregation's specs.
    fn apply_chunk(&mut self, chunk: &Chunk) -> Result<()> {
        let key_cols: Vec<usize> = (0..self.cfg.key_idx.len()).collect();
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
            let g = self.key_store.push_row(&chunk.frame, &key_cols, row)?;
            self.index.insert(h, g);
        }
        self.rows = spill_codec::get_f64s(&mut c, n_groups)?;
        for carried in &mut self.carried_var {
            *carried = spill_codec::get_f64s(&mut c, n_groups)?;
        }
        for store in &mut self.stores {
            store.decode(n_groups, &mut c)?;
        }
        match c.remaining() {
            0 => Ok(()),
            left => Err(DataError::Parse(format!(
                "spilled agg partition: {left} bytes after the last state"
            ))),
        }
    }
}

impl AggPart {
    fn groups(&self) -> usize {
        match self {
            AggPart::Mem(core) => core.len(),
            AggPart::Spilled { groups, .. } => *groups,
        }
    }

    fn fold(&mut self, cfg: &Arc<AggConfig>, frame: &DataFrame, hashes: &[u64]) -> Result<()> {
        match self {
            AggPart::Mem(core) => core.fold_frame(frame, hashes),
            AggPart::Spilled { run, groups } => {
                // Rehydrate, fold — the per-group accumulation order is
                // the resident path's — and rewrite the one run.
                let mut core = load(cfg, run)?;
                core.fold_frame(frame, hashes)?;
                *groups = core.len();
                run.clear();
                run.push(&core.to_chunk()?)?;
                run.flush()
            }
        }
    }

    /// This partition's key-sorted partial snapshot, `None` when it holds
    /// no group. A spilled partition rehydrates its run.
    fn snapshot(&self, cfg: &Arc<AggConfig>, ctx: &ScaleContext) -> Result<Option<DataFrame>> {
        if self.groups() == 0 {
            return Ok(None);
        }
        match self {
            AggPart::Mem(core) => core.snapshot(ctx).map(Some),
            AggPart::Spilled { run, .. } => load(cfg, run)?.snapshot(ctx).map(Some),
        }
    }
}

/// Reconstruct a spilled partition's state from its run. A torn or
/// corrupt run is a typed error: there is no older copy to fall back to.
fn load(cfg: &Arc<AggConfig>, run: &RunWriter) -> Result<AggCore> {
    let mut core = AggCore::new(cfg.clone());
    if let Some(chunk) = run.read_all()?.first() {
        core.apply_chunk(chunk)?;
    }
    Ok(core)
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
            AggPart::Mem(core) if core.len() > 0 => Some(core.state_bytes()),
            _ => None,
        }
    }

    fn evict(&mut self, env: &SpillEnv) -> Result<()> {
        let AggPart::Mem(core) = self else {
            return Err(DataError::Invalid(
                "only a resident group-by partition can be evicted".into(),
            ));
        };
        let mut run = env.new_run("agg");
        run.push(&core.to_chunk()?)?;
        run.flush()?;
        *self = AggPart::Spilled {
            run,
            groups: core.len(),
        };
        Ok(())
    }

    fn rehydrate(&mut self, cfg: &Arc<AggConfig>) -> Result<()> {
        if let AggPart::Spilled { run, .. } = self {
            *self = AggPart::Mem(load(cfg, run)?);
        }
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        match self {
            AggPart::Mem(core) => core.state_bytes(),
            // A spilled partition costs its pending (unflushed) buffer
            // plus bookkeeping.
            AggPart::Spilled { run, .. } => run.pending_bytes() + 64,
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
/// the typed replacement for a concat and a global re-sort. Shared by
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
    /// The input's clustering key when the group keys are a prefix of
    /// it (empty otherwise): the growth prior rests on it, so it is read
    /// whole.
    clustering_key: Vec<String>,
    meta: EdfMeta,
}

impl AggOp {
    /// The group-by on `shards` hash-range shards (one runs on the
    /// caller's thread, more on persistent workers — see
    /// [`crate::ops::sharded`]). Under a `spill` env, when a shard
    /// exceeds its slice of the operator's budget the largest spill
    /// partition is evicted to disk. `None` keeps the unbounded resident
    /// path — as does a zero-key (global) aggregate, whose O(specs) state
    /// would only pay for partitioning. `fixed_growth` pins the growth
    /// power instead of fitting it (ablation mode).
    pub fn new(
        input: &EdfMeta,
        keys: Vec<String>,
        specs: Vec<AggSpec>,
        with_variance: bool,
        fixed_growth: Option<f64>,
        shards: usize,
        spill: Option<&SpillEnv>,
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
        let mut stores = Vec::with_capacity(specs.len());
        for s in &specs {
            let ranked = s.quantile.is_some_and(|q| (0.0..=1.0).contains(&q));
            if s.func == crate::agg::AggFunc::Quantile && !ranked {
                return Err(DataError::Invalid(format!(
                    "quantile {} needs a rank in [0, 1], got {:?}",
                    s.alias, s.quantile
                )));
            }
            let in_type = infer_type(&s.expr, &input.schema)?;
            if let Some(w) = &s.weight {
                infer_type(w, &input.schema)?;
            }
            fields.push(Field::mutable(s.alias.clone(), s.output_type(in_type)));
            stores.push(s.new_store(in_type));
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
        let clustering_key = input
            .clustering_key
            .clone()
            .filter(|ck| !keys.is_empty() && ck.starts_with(&keys))
            .unwrap_or_default();
        let growth = match fixed_growth {
            Some(w) => GrowthModel::fixed(w),
            None if !clustering_key.is_empty() => GrowthModel::for_input(UpdateKind::Snapshot),
            None => GrowthModel::for_input(input.kind),
        };
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
            stores,
            with_variance,
            input_schema: input.schema.clone(),
            carried_var_cols,
            out_schema: schema,
            key_schema,
        });
        let spill = spill.filter(|_| !cfg.key_idx.is_empty());
        let keyed = KeyedState::new(cfg.clone(), shards, spill);
        Ok(AggOp {
            shard_groups: vec![0; keyed.num_shards()],
            keyed,
            rows_total: 0.0,
            cfg,
            input_kind: input.kind,
            growth,
            progress: Progress::new(),
            emitted_complete: false,
            clustering_key,
            meta,
        })
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
        // merge, not a global re-sort.
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

    /// A barrier: the keys, every spec's expression and weight, the
    /// `{col}__var` columns a sum carries, and the clustering key the
    /// growth prior rests on — whatever is observed of the output.
    fn reads(&self, _observed: &BTreeSet<String>) -> Vec<BTreeSet<String>> {
        let cfg = &self.cfg;
        let exprs = cfg
            .specs
            .iter()
            .flat_map(|s| std::iter::once(&s.expr).chain(&s.weight));
        let named = exprs.flat_map(|e| e.referenced_columns()).map(String::from);
        let carried = cfg.carried_var_cols.iter().flatten();
        vec![cfg
            .keys
            .iter()
            .chain(&self.clustering_key)
            .chain(carried)
            .cloned()
            .chain(named)
            .collect()]
    }

    fn state_bytes(&self) -> usize {
        self.keyed.state_bytes()
    }

    fn report(&self) -> crate::ops::OpReport {
        self.keyed.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{kv_frame, op_env};
    use wake_data::Value;
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
            None,
            1,
            None,
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
            None,
            1,
            None,
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
        let mut op = AggOp::new(
            &meta,
            vec![],
            vec![AggSpec::sum(col("v"), "total")],
            false,
            None,
            1,
            None,
        )
        .unwrap();
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
            None,
            1,
            None,
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
        let mut op = AggOp::new(
            &delta_meta(),
            vec![],
            vec![AggSpec::count_star("n")],
            false,
            None,
            1,
            None,
        )
        .unwrap();
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
            None,
            1,
            None,
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
            None,
            1,
            None,
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
            None,
            1,
            None,
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
            None,
            1,
            None,
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
    fn output_sorted_by_key() {
        let mut op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::count_star("n")],
            false,
            None,
            1,
            None,
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
                AggSpec::max(col("v"), "mx"),
                AggSpec::weighted_avg(col("v"), col("v"), "wa"),
                AggSpec::var(col("v"), "var"),
                AggSpec::stddev(col("v"), "sd"),
            ]
        };
        for shards in [1usize, 3] {
            let env = op_env(2048);
            let governor = env.governor.clone();
            let build = |spill| {
                AggOp::new(
                    &delta_meta(),
                    vec!["k".into()],
                    specs(),
                    true,
                    None,
                    shards,
                    spill,
                )
                .unwrap()
            };
            let mut reference = build(None);
            let mut spilled = build(Some(&env));
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
    fn quantile_without_a_rank_is_a_typed_error() {
        let mut spec = AggSpec::median(col("v"), "m");
        for q in [None, Some(1.5), Some(f64::NAN)] {
            spec.quantile = q;
            let op = AggOp::new(
                &delta_meta(),
                vec!["k".into()],
                vec![spec.clone()],
                false,
                None,
                1,
                None,
            );
            assert!(matches!(op, Err(DataError::Invalid(_))), "{q:?}");
        }
    }

    #[test]
    fn refolded_spilled_partitions_are_bit_identical_to_resident() {
        // Every update folds into partitions that are already on disk:
        // each such fold rehydrates the partition's one run, folds, and
        // rewrites it, and every estimate must stay bit-equal to the
        // resident operator.
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
        let env = op_env(1024);
        let governor = env.governor.clone();
        let build = |spill| {
            AggOp::new(
                &delta_meta(),
                vec!["k".into()],
                specs(),
                true,
                None,
                1,
                spill,
            )
            .unwrap()
        };
        let mut reference = build(None);
        let mut spilled = build(Some(&env));
        for step in 1..=6i64 {
            let u = Update::delta(frame(step), Progress::single(0, step as u64 * 60, 360));
            let a = reference.on_update(0, &u).unwrap();
            let b = spilled.on_update(0, &u).unwrap();
            assert_eq!(a[0].frame.as_ref(), b[0].frame.as_ref(), "step {step}");
        }
        let m = governor.metrics();
        assert!(m.evictions > 0, "budget never triggered: {m:?}");
        // More runs written than evictions: spilled partitions were
        // folded into and rewritten.
        assert!(m.chunks_written > m.evictions, "{m:?}");
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
        let env = cfg.build_env(1).unwrap().unwrap();
        let governor = env.governor.clone();
        let build = |spill| {
            AggOp::new(
                &delta_meta(),
                vec!["k".into()],
                specs(),
                true,
                None,
                1,
                spill,
            )
            .unwrap()
        };
        let mut reference = build(None);
        let mut spilled = build(Some(&env));
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
    fn torn_spilled_partition_run_is_a_typed_error() {
        // A crash tears one group-by partition's run mid-write. The run
        // holds the partition's only copy, so the next fold or snapshot
        // that reads it must fail typed — never panic, never publish an
        // estimate from a partial state — and keep failing after.
        use wake_store::governor::SpillConfig;
        use wake_store::{FaultIo, FaultSchedule, TornWrite};
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
        let io = Arc::new(FaultIo::new(FaultSchedule {
            torn_write: Some(TornWrite {
                tag: "agg".to_string(),
                nth: 3,
                keep_bytes: 9,
            }),
            ..FaultSchedule::default()
        }));
        let mut cfg = SpillConfig::with_budget(1024);
        cfg.io = Some(io.clone());
        let mut op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s"), AggSpec::count_star("n")],
            false,
            None,
            1,
            cfg.build_env(1).unwrap().as_ref(),
        )
        .unwrap();
        let mut failed = 0;
        for step in 1..=6i64 {
            let u = Update::delta(frame(step), Progress::single(0, step as u64 * 60, 360));
            match op.on_update(0, &u) {
                Ok(out) => assert_eq!(failed, 0, "estimate {out:?} after a failed read"),
                Err(e) => {
                    assert!(matches!(e, DataError::Parse(_)), "{e:?}");
                    failed += 1;
                }
            }
        }
        assert_eq!(io.faults_injected(), 1, "the run was never torn");
        assert!(failed > 0, "no read of the torn run failed");
        let err = op.on_eof(0).unwrap_err();
        assert!(matches!(err, DataError::Parse(_)), "{err:?}");
    }

    #[test]
    fn spilled_key_frame_of_the_wrong_type_is_an_error() {
        // A decoded key frame whose key column is Utf8 under an
        // Int64-keyed aggregate must fail the replay, not panic the
        // polling thread.
        let op = AggOp::new(
            &delta_meta(),
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s")],
            false,
            None,
            1,
            None,
        )
        .unwrap();
        let mut core = AggCore::new(op.cfg.clone());
        let f = kv_frame(vec![1], vec![2.0]);
        core.fold_frame(&f, &hash_keys(&f, &op.cfg.key_idx).hashes)
            .unwrap();
        let good = core.to_chunk().unwrap();
        let schema = Arc::new(Schema::new(vec![Field::new("k", DataType::Utf8)]));
        let keys = vec![Column::from_str_iter(["1"])];
        let bad = Chunk {
            frame: Arc::new(DataFrame::new(schema, keys).unwrap()),
            ..good
        };
        let err = AggCore::new(op.cfg.clone()).apply_chunk(&bad).unwrap_err();
        assert!(matches!(err, DataError::TypeMismatch { .. }), "{err:?}");
    }

    #[test]
    fn spilled_state_of_other_specs_is_an_error() {
        // A chunk replayed under an aggregation whose specs lay their
        // state out differently must fail typed: no panic, no estimate
        // from misread bytes.
        let core_of = |spec: AggSpec| {
            let op = AggOp::new(
                &delta_meta(),
                vec!["k".into()],
                vec![spec],
                false,
                None,
                1,
                None,
            )
            .unwrap();
            AggCore::new(op.cfg.clone())
        };
        let f = kv_frame(vec![1, 2], vec![2.0, 3.0]);
        let hashes = hash_keys(&f, &[0]).hashes;
        let mut sum = core_of(AggSpec::sum(col("v"), "x"));
        sum.fold_frame(&f, &hashes).unwrap();
        let chunk = sum.to_chunk().unwrap();
        core_of(AggSpec::sum(col("v"), "x"))
            .apply_chunk(&chunk)
            .unwrap();
        for other in [
            AggSpec::count_distinct(col("v"), "x"),
            AggSpec::count_star("x"),
            AggSpec::max(col("v"), "x"),
        ] {
            let err = core_of(other).apply_chunk(&chunk).unwrap_err();
            assert!(matches!(err, DataError::Parse(_)), "{err:?}");
        }
    }

    #[test]
    fn snapshot_input_replace_clears_spilled_state() {
        // A snapshot-kind input replaces state wholesale; spilled
        // partitions must be dropped too, not merged into the refresh.
        let meta = EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            UpdateKind::Snapshot,
        );
        let env = op_env(512);
        let mut op = AggOp::new(
            &meta,
            vec!["k".into()],
            vec![AggSpec::sum(col("v"), "s")],
            false,
            None,
            1,
            Some(&env),
        )
        .unwrap();
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
            let mut reference = AggOp::new(
                &delta_meta(),
                vec!["k".into()],
                specs(),
                true,
                None,
                1,
                None,
            )
            .unwrap();
            let mut sharded = AggOp::new(
                &delta_meta(),
                vec!["k".into()],
                specs(),
                true,
                None,
                shards,
                None,
            )
            .unwrap();
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
