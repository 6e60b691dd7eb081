//! Join operator — paper §3.2 "Join".
//!
//! Two physical strategies, selected from the inputs' stream kinds:
//!
//! - **Streaming** (both inputs delta-mode): a *symmetric hash join* — each
//!   side is indexed as it arrives and probes the other side's index, so
//!   matches are emitted as deltas without blocking on either input. This
//!   plays the role of the paper's non-blocking progressive joins (its
//!   merge-join for co-clustered tables and pipelined hash joins, §3.2/§7.3),
//!   trading memory for early output exactly as Table 1 concedes ("may need
//!   more memory").
//! - **Recompute** (either input snapshot-mode): the operator buffers the
//!   latest state of both sides and re-joins in full on every refresh
//!   (Case 2/3 semantics); output is snapshot-mode.
//!
//! Inner, left, semi, and anti joins are supported; semi/anti give the
//! relational decomposition of `EXISTS` / `NOT EXISTS` sub-queries (TPC-H
//! Q4, Q21, Q22). SQL null semantics: null keys never match.
//!
//! ## Hot path and partition parallelism
//!
//! Keys are never materialised as `Row`s. Each arriving frame gets one
//! vectorized [`hash_keys`] pass over its key columns (a `Vec<u64>` of row
//! hashes plus a null mask); the per-side [`KeyIndex`] maps hash →
//! candidate rows and candidates are confirmed by typed column comparison
//! ([`keys_equal`]), so hash collisions cannot produce false matches.
//! Output frames are assembled with typed columnar gathers over the
//! buffered frames.
//!
//! The whole keyed state (`RowStore` sides, `KeyIndex`es, matched flags)
//! lives in a [`KeyedState`] of `S` hash-range shards, each `F` spill
//! partitions of [`JoinPart`] (see [`crate::ops::partitions`], which owns
//! the routing, the eviction policy and the degrade ladder). The
//! already-computed row hashes route each frame's rows; build and probe
//! run per partition over its sub-frame, and emission concatenates the
//! outputs — partitions and shards are disjoint by key, so no dedup is
//! needed. Rows with null key components ride in shard 0. `S = 1` (the
//! `Parallelism(1)` plan) skips the scatter and is byte-identical to the
//! unsharded operator.

use crate::meta::EdfMeta;
use crate::ops::key_index::KeyIndex;
use crate::ops::partitions::{
    concat_partials, spill_split, KeyedState, Partition, Partitions, FANOUT, MAX_DEPTH,
};
use crate::ops::{Operator, RowRef, RowStore};
use crate::progress::Progress;
use crate::update::{Update, UpdateKind};
use crate::Result;
use std::collections::BTreeSet;
use std::sync::Arc;
use wake_data::hash::{hash_keys, keys_equal, KeyHashes};
use wake_data::{DataError, DataFrame, Schema};
use wake_store::colfile::{Chunk, RunWriter};
use wake_store::governor::SpillEnv;

/// Join flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    /// All left rows; unmatched get nulls on the right.
    Left,
    /// Left rows with at least one match (left columns only).
    Semi,
    /// Left rows with no match (left columns only).
    Anti,
}

/// Immutable join configuration shared by the operator shell and every
/// shard (so shard workers can run on their own threads).
struct JoinConfig {
    kind: JoinKind,
    /// Both inputs are delta-mode: the symmetric streaming join. Otherwise
    /// the recompute strategy (see the module docs).
    streaming: bool,
    left_on: Vec<usize>,
    right_on: Vec<usize>,
    left_kind: UpdateKind,
    right_kind: UpdateKind,
    left_schema: Arc<Schema>,
    right_schema: Arc<Schema>,
    out_schema: Arc<Schema>,
}

impl JoinConfig {
    /// Key columns and stream kind of the input on `port`.
    fn side(&self, port: usize) -> (&[usize], UpdateKind) {
        if port == 0 {
            (&self.left_on, self.left_kind)
        } else {
            (&self.right_on, self.right_kind)
        }
    }
}

/// The in-memory join state of one spill partition (the whole shard when
/// spilling is off): both sides' buffered rows and indexes, plus the
/// per-left-row bookkeeping for left/semi/anti kinds.
struct JoinCore {
    cfg: Arc<JoinConfig>,
    left: RowStore,
    right: RowStore,
    left_index: KeyIndex,
    right_index: KeyIndex,
    /// Streaming only: per-left-frame key hashes (aligned with `left`).
    left_hashes: Vec<KeyHashes>,
    /// Streaming only: per-left-frame matched flags (Left/Semi/Anti).
    matched: Vec<Vec<bool>>,
    right_eof: bool,
}

/// Work dispatched to one shard. Frames are the shard-local sub-frames
/// (the full frame when `S = 1`); hashes are the matching sub-hashes.
enum JoinTask {
    /// One input (sub-)frame: streamed against the other side, or — in
    /// recompute mode — buffered. Buffered frames are hashed only to
    /// route them, so `hashes` is empty when nothing below the operator
    /// routes.
    Frame {
        port: usize,
        frame: Arc<DataFrame>,
        hashes: KeyHashes,
    },
    /// Right input exhausted: flush left-join nulls / resolve anti rows.
    RightEof,
    /// Both inputs exhausted (spill mode only): resolve the deferred
    /// matches of spilled partitions that buffered post-EOF left rows.
    FinalFlush,
    /// Recompute mode: re-join the buffered state in full.
    Recompute,
}

impl JoinCore {
    fn new(cfg: Arc<JoinConfig>) -> Self {
        JoinCore {
            cfg,
            left: RowStore::new(),
            right: RowStore::new(),
            left_index: KeyIndex::new(),
            right_index: KeyIndex::new(),
            left_hashes: Vec::new(),
            matched: Vec::new(),
            right_eof: false,
        }
    }

    /// Rows from the right index whose keys truly equal the key at
    /// `probe[ri]` of a left-side frame; copied into `out` (cleared first).
    /// One typed comparison per distinct key in the bucket.
    fn right_matches(&self, probe: &DataFrame, ri: usize, hash: u64, out: &mut Vec<RowRef>) {
        out.clear();
        out.extend_from_slice(self.right_index.matches(hash, |(fi, rri)| {
            keys_equal(
                probe,
                ri,
                &self.cfg.left_on,
                self.right.frame(fi),
                rri as usize,
                &self.cfg.right_on,
            )
        }));
    }

    /// Rows from the left index whose keys truly equal the key at
    /// `probe[ri]` of a right-side frame; copied into `out` (cleared first).
    fn left_matches(&self, probe: &DataFrame, ri: usize, hash: u64, out: &mut Vec<RowRef>) {
        out.clear();
        out.extend_from_slice(self.left_index.matches(hash, |(fi, lri)| {
            keys_equal(
                probe,
                ri,
                &self.cfg.right_on,
                self.left.frame(fi),
                lri as usize,
                &self.cfg.left_on,
            )
        }));
    }

    /// Build an output frame from matched row pairs (`None` right = nulls)
    /// using typed columnar gathers.
    fn build_pairs(&self, pairs: &[(RowRef, Option<RowRef>)]) -> Result<DataFrame> {
        let schema = self.cfg.out_schema.clone();
        if pairs.is_empty() {
            return Ok(DataFrame::empty(schema));
        }
        let lrefs: Vec<RowRef> = pairs.iter().map(|&(l, _)| l).collect();
        let mut columns = self.left.gather_columns(&lrefs)?;
        if schema.len() > self.cfg.left_schema.len() {
            let rrefs: Vec<Option<RowRef>> = pairs.iter().map(|&(_, r)| r).collect();
            columns.extend(
                self.right
                    .gather_opt_columns(&rrefs, &self.cfg.right_schema)?,
            );
        }
        DataFrame::new(schema, columns)
    }

    /// Build a left-columns-only frame (semi/anti output).
    fn build_left_only(&self, refs: &[RowRef]) -> Result<DataFrame> {
        if refs.is_empty() {
            return Ok(DataFrame::empty(self.cfg.out_schema.clone()));
        }
        self.left.gather(refs)
    }

    /// The output frame of one step: matched pairs for inner/left joins,
    /// qualifying left rows for semi/anti.
    fn build(&self, pairs: &[(RowRef, Option<RowRef>)], left_only: &[RowRef]) -> Result<DataFrame> {
        match self.cfg.kind {
            JoinKind::Inner | JoinKind::Left => self.build_pairs(pairs),
            JoinKind::Semi | JoinKind::Anti => self.build_left_only(left_only),
        }
    }

    // ----- streaming mode -----

    fn stream_left(&mut self, frame: &Arc<DataFrame>, hashes: KeyHashes) -> Result<DataFrame> {
        self.stream_left_ext(frame, hashes, None, true)
    }

    /// [`stream_left`](Self::stream_left) with the two extra controls the
    /// spill-resolution replay needs: `prior` seeds the frame's matched
    /// flags (rows whose emission already happened in an earlier epoch —
    /// semi joins must not re-emit them, left joins must not null-flush
    /// them), and `index_left = false` skips left-index maintenance (the
    /// replay feeds rights before lefts, so the left index is never
    /// probed and indexing epoch-0 lefts would fabricate already-emitted
    /// pairs when epoch-0 rights stream in). The live path passes
    /// `(None, true)` and is byte-identical to the pre-spill operator.
    fn stream_left_ext(
        &mut self,
        frame: &Arc<DataFrame>,
        hashes: KeyHashes,
        prior: Option<Vec<bool>>,
        index_left: bool,
    ) -> Result<DataFrame> {
        let kind = self.cfg.kind;
        let fi = self.left.push(frame.clone());
        match prior {
            Some(flags) => {
                debug_assert_eq!(flags.len(), frame.num_rows());
                self.matched.push(flags);
            }
            None => self.matched.push(vec![false; frame.num_rows()]),
        }
        let mut pairs: Vec<(RowRef, Option<RowRef>)> = Vec::new();
        let mut left_only: Vec<RowRef> = Vec::new();
        let mut eq: Vec<RowRef> = Vec::new();
        for ri in 0..frame.num_rows() {
            let lref = (fi, ri as u32);
            let has_null = hashes.is_null(ri);
            let h = hashes.hashes[ri];
            if !has_null {
                // Anti joins never probe the left index (their EOF flush
                // re-probes the right index), and after right-side EOF no
                // future right row can probe it either — skip maintaining
                // it in both cases.
                if kind != JoinKind::Anti && !self.right_eof && index_left {
                    let (store, left_on) = (&self.left, &self.cfg.left_on);
                    self.left_index.insert(h, lref, |(ofi, ori)| {
                        keys_equal(frame, ri, left_on, store.frame(ofi), ori as usize, left_on)
                    });
                }
                self.right_matches(frame, ri, h, &mut eq);
            } else {
                eq.clear();
            }
            match kind {
                JoinKind::Inner | JoinKind::Left => {
                    if !eq.is_empty() {
                        self.matched[fi as usize][ri] = true;
                        for &r in &eq {
                            pairs.push((lref, Some(r)));
                        }
                    } else if kind == JoinKind::Left
                        && self.right_eof
                        && !self.matched[fi as usize][ri]
                    {
                        self.matched[fi as usize][ri] = true;
                        pairs.push((lref, None));
                    }
                }
                JoinKind::Semi => {
                    // The matched gate only bites during spill replay
                    // (prior-epoch emissions); live rows start unmatched.
                    if !eq.is_empty() && !self.matched[fi as usize][ri] {
                        self.matched[fi as usize][ri] = true;
                        left_only.push(lref);
                    }
                }
                JoinKind::Anti => {
                    if self.right_eof && eq.is_empty() {
                        self.matched[fi as usize][ri] = true; // "handled"
                        left_only.push(lref);
                    }
                }
            }
        }
        // Per-frame hashes are only re-read by the Anti EOF flush; don't
        // retain them for the other kinds.
        if kind == JoinKind::Anti {
            self.left_hashes.push(hashes);
        }
        self.build(&pairs, &left_only)
    }

    fn stream_right(&mut self, frame: &Arc<DataFrame>, hashes: KeyHashes) -> Result<DataFrame> {
        let kind = self.cfg.kind;
        let fi = self.right.push(frame.clone());
        let mut pairs: Vec<(RowRef, Option<RowRef>)> = Vec::new();
        let mut left_only: Vec<RowRef> = Vec::new();
        let mut eq: Vec<RowRef> = Vec::new();
        for ri in 0..frame.num_rows() {
            if hashes.is_null(ri) {
                continue;
            }
            let h = hashes.hashes[ri];
            let rref = (fi, ri as u32);
            let (store, right_on) = (&self.right, &self.cfg.right_on);
            self.right_index.insert(h, rref, |(ofi, ori)| {
                keys_equal(
                    frame,
                    ri,
                    right_on,
                    store.frame(ofi),
                    ori as usize,
                    right_on,
                )
            });
            // Anti joins resolve purely against the right index at EOF;
            // probing the (empty) left index per right row is wasted work.
            if kind != JoinKind::Anti {
                self.left_matches(frame, ri, h, &mut eq);
            }
            match kind {
                JoinKind::Inner | JoinKind::Left => {
                    for &l in &eq {
                        self.matched[l.0 as usize][l.1 as usize] = true;
                        pairs.push((l, Some(rref)));
                    }
                }
                JoinKind::Semi => {
                    for &l in &eq {
                        let seen = &mut self.matched[l.0 as usize][l.1 as usize];
                        if !*seen {
                            *seen = true;
                            left_only.push(l);
                        }
                    }
                }
                JoinKind::Anti => {}
            }
        }
        self.build(&pairs, &left_only)
    }

    fn stream_right_eof(&mut self) -> Result<DataFrame> {
        self.right_eof = true;
        // Left join: flush accumulated unmatched rows with null right side;
        // anti join: flush rows that now provably have no match.
        let mut flush: Vec<RowRef> = Vec::new();
        for (fi, flags) in self.matched.iter().enumerate() {
            for (ri, &m) in flags.iter().enumerate() {
                if !m {
                    flush.push((fi as u32, ri as u32));
                }
            }
        }
        match self.cfg.kind {
            JoinKind::Left => {
                for &(fi, ri) in &flush {
                    self.matched[fi as usize][ri as usize] = true;
                }
                let pairs: Vec<(RowRef, Option<RowRef>)> =
                    flush.into_iter().map(|l| (l, None)).collect();
                self.build_pairs(&pairs)
            }
            JoinKind::Anti => {
                // A pending row is anti iff its key misses the right index.
                let mut anti: Vec<RowRef> = Vec::new();
                let mut eq: Vec<RowRef> = Vec::new();
                for &(fi, ri) in &flush {
                    let frame = self.left.frame(fi).clone();
                    let hashes = &self.left_hashes[fi as usize];
                    if hashes.is_null(ri as usize) {
                        anti.push((fi, ri));
                    } else {
                        self.right_matches(
                            &frame,
                            ri as usize,
                            hashes.hashes[ri as usize],
                            &mut eq,
                        );
                        if eq.is_empty() {
                            anti.push((fi, ri));
                        }
                    }
                }
                for (fi, ri) in flush {
                    self.matched[fi as usize][ri as usize] = true;
                }
                self.build_left_only(&anti)
            }
            _ => Ok(DataFrame::empty(self.cfg.out_schema.clone())),
        }
    }

    // ----- recompute mode -----

    fn buffer(&mut self, port: usize, frame: Arc<DataFrame>) {
        let snapshot = self.cfg.side(port).1 == UpdateKind::Snapshot;
        let store = if port == 0 {
            &mut self.left
        } else {
            &mut self.right
        };
        if snapshot {
            store.clear();
        }
        store.push(frame);
    }

    fn recompute(&mut self) -> Result<DataFrame> {
        // Index the right side, scan the left side.
        self.right_index.clear();
        for (fi, frame) in self.right.frames().iter().enumerate() {
            let hashes = hash_keys(frame, &self.cfg.right_on);
            let (store, right_on) = (&self.right, &self.cfg.right_on);
            for ri in 0..frame.num_rows() {
                if !hashes.is_null(ri) {
                    self.right_index.insert(
                        hashes.hashes[ri],
                        (fi as u32, ri as u32),
                        |(ofi, ori)| {
                            keys_equal(
                                frame,
                                ri,
                                right_on,
                                store.frame(ofi),
                                ori as usize,
                                right_on,
                            )
                        },
                    );
                }
            }
        }
        let mut pairs: Vec<(RowRef, Option<RowRef>)> = Vec::new();
        let mut left_only: Vec<RowRef> = Vec::new();
        let mut eq: Vec<RowRef> = Vec::new();
        let left_frames: Vec<Arc<DataFrame>> = self.left.frames().to_vec();
        for (fi, frame) in left_frames.iter().enumerate() {
            let hashes = hash_keys(frame, &self.cfg.left_on);
            for ri in 0..frame.num_rows() {
                let lref = (fi as u32, ri as u32);
                if hashes.is_null(ri) {
                    eq.clear();
                } else {
                    self.right_matches(frame, ri, hashes.hashes[ri], &mut eq);
                }
                match (self.cfg.kind, eq.is_empty()) {
                    (JoinKind::Inner, false) | (JoinKind::Left, false) => {
                        pairs.extend(eq.iter().map(|&r| (lref, Some(r))))
                    }
                    (JoinKind::Inner, true) => {}
                    (JoinKind::Left, true) => pairs.push((lref, None)),
                    (JoinKind::Semi, false) => left_only.push(lref),
                    (JoinKind::Semi, true) => {}
                    (JoinKind::Anti, true) => left_only.push(lref),
                    (JoinKind::Anti, false) => {}
                }
            }
        }
        let out = self.build(&pairs, &left_only)?;
        // Recompute rebuilds the index from scratch each refresh; drop it
        // so buffered state stays proportional to the inputs.
        self.right_index.clear();
        Ok(out)
    }

    fn state_bytes(&self) -> usize {
        // Full accounting: buffered frames, both hash indexes, retained
        // key hashes *including their null-mask side tables*, and the
        // per-left-row matched flags (the last two were previously
        // uncounted, so the governor's budget math under-reported
        // anti-join and left-join state).
        self.left.byte_size()
            + self.right.byte_size()
            + self.left_index.byte_size()
            + self.right_index.byte_size()
            + self
                .left_hashes
                .iter()
                .map(|h| h.byte_size())
                .sum::<usize>()
            + self.matched.iter().map(|m| m.len()).sum::<usize>()
    }

    /// Serialize the streaming state for eviction: one chunk per buffered
    /// left frame (with its hashes and matched flags — the epoch boundary
    /// the resolution replay needs) and one per right frame (with
    /// hashes). Hashes not retained in memory are recomputed; they are
    /// content-deterministic, so the replay sees the original values.
    fn eviction_chunks_streaming(&self) -> (Vec<Chunk>, Vec<Chunk>) {
        let lefts = self
            .left
            .frames()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.num_rows() > 0)
            .map(|(fi, frame)| {
                let hashes = if self.cfg.kind == JoinKind::Anti {
                    self.left_hashes[fi].clone()
                } else {
                    hash_keys(frame, &self.cfg.left_on)
                };
                Chunk {
                    frame: frame.clone(),
                    hashes: Some(hashes),
                    flags: Some(self.matched[fi].clone()),
                    extra: Vec::new(),
                }
            })
            .collect();
        let rights = self
            .right
            .frames()
            .iter()
            .filter(|f| f.num_rows() > 0)
            .map(|frame| Chunk::with_hashes(frame.clone(), hash_keys(frame, &self.cfg.right_on)))
            .collect();
        (lefts, rights)
    }

    /// Serialize the recompute-mode buffered sides (no flags or hashes —
    /// `recompute` rehashes from scratch every refresh anyway).
    fn eviction_chunks_buffered(&self) -> (Vec<Chunk>, Vec<Chunk>) {
        let side = |store: &RowStore| {
            store
                .frames()
                .iter()
                .filter(|f| f.num_rows() > 0)
                .map(|f| Chunk::frame_only(f.clone()))
                .collect::<Vec<_>>()
        };
        (side(&self.left), side(&self.right))
    }
}

// ---------------------------------------------------------------------------
// Spill partitions (grace-hash join below the shard level)
// ---------------------------------------------------------------------------

/// One spill partition of a join shard — the payload the shared
/// [`Partitions`] layer routes to, evicts and rehydrates.
// A shard holds at most `FANOUT` (8) of these, so the
// StreamSpill variant's four inline run handles (~450 B) cost a few KB
// per shard — not worth an extra allocation per run access.
#[allow(clippy::large_enum_variant)]
enum JoinPart {
    /// Resident: the live symmetric-hash (or recompute) core (boxed —
    /// the core is much larger than the spilled variants' run handles).
    Mem(Box<JoinCore>),
    /// Streaming-mode eviction. The epoch split is the heart of spilled
    /// symmetric-hash correctness: `l0`/`r0` hold the rows that were
    /// resident together — every `L0×R0` match was already emitted (and
    /// `l0` carries the matched flags saying which rows those were) —
    /// while `l1`/`r1` collect post-eviction arrivals whose matches were
    /// never emitted. The resolution replay at right EOF emits exactly
    /// `L0×R1 ∪ L1×R0 ∪ L1×R1`: all pairs minus the pre-spill emissions.
    /// After it every left row is resolved, so `l0`/`l1` are emptied and
    /// `r0 ++ r1` is the complete right side; later left rows collect in
    /// `l1` again and probe it at the final flush. A core evicted after
    /// right EOF holds its rights in `r0` and nothing else.
    StreamSpill {
        env: SpillEnv,
        l0: RunWriter,
        r0: RunWriter,
        l1: RunWriter,
        r1: RunWriter,
    },
    /// Recompute-mode eviction: both buffered sides on disk; every
    /// refresh rehydrates and re-joins this hash subrange.
    BufSpill { left: RunWriter, right: RunWriter },
}

/// A stream-spill chunk's key hashes. Every chunk on the streaming spill
/// path is written with hashes; one read back without them means the run
/// bytes are not what this query wrote — surface it typed, not a panic.
fn chunk_hashes(c: &Chunk) -> Result<KeyHashes> {
    c.hashes.clone().ok_or_else(|| {
        DataError::Invalid("stream-spill chunk is missing its key hashes".to_string())
    })
}

/// A partition in the other mode's state. The mode is fixed when the
/// operator is built, so this is a bug in this file — but the paths that
/// could meet it run under spill I/O, at `S = 1` on the polling thread
/// with no `catch_unwind` above them, so it surfaces typed.
fn wrong_mode() -> DataError {
    DataError::Invalid("join partition state does not match the join's mode".into())
}

fn run_from_chunks(env: &SpillEnv, tag: &str, chunks: &[Chunk]) -> Result<RunWriter> {
    let mut run = env.new_run(tag);
    for c in chunks {
        run.push(c)?;
    }
    run.flush()?;
    Ok(run)
}

/// A scratch core over recompute-mode runs (plain buffered rows).
fn load_buffered(cfg: &Arc<JoinConfig>, left: &RunWriter, right: &RunWriter) -> Result<JoinCore> {
    let mut core = JoinCore::new(cfg.clone());
    for c in left.read_all()? {
        core.left.push(c.frame);
    }
    for c in right.read_all()? {
        core.right.push(c.frame);
    }
    Ok(core)
}

/// Scatter chunks into [`FANOUT`] sub-partitions by the hash digit at
/// `depth` (recursive grace-hash split). Flags scatter with their rows.
fn scatter_chunks(chunks: Vec<Chunk>, env: &SpillEnv, depth: usize) -> Result<Vec<Vec<Chunk>>> {
    let mut out: Vec<Vec<Chunk>> = (0..FANOUT).map(|_| Vec::new()).collect();
    for c in chunks {
        let hashes = chunk_hashes(&c)?;
        let sels = spill_split(env, &hashes.hashes, depth);
        for (p, sel) in sels.iter().enumerate() {
            if sel.is_empty() {
                continue;
            }
            if sel.len() == c.frame.num_rows() {
                out[p].push(c);
                break; // all rows in one partition; other sels are empty
            }
            out[p].push(Chunk {
                frame: Arc::new(c.frame.select(sel)),
                hashes: Some(hashes.take(sel)),
                flags: c
                    .flags
                    .as_ref()
                    .map(|f| sel.iter().map(|&i| f[i as usize]).collect()),
                extra: Vec::new(),
            });
        }
    }
    Ok(out)
}

/// Resolve one spilled streaming partition from its runs `[l0, r0, l1,
/// r1]`: emit exactly the matches not already emitted before eviction
/// (see [`JoinPart::StreamSpill`]), plus the right-EOF flush (left-join
/// nulls, anti rows). Recurses into [`FANOUT`] sub-partitions while the
/// runs exceed the shard budget — the multi-pass half of grace hash.
fn resolve_stream(
    cfg: &Arc<JoinConfig>,
    env: &SpillEnv,
    depth: usize,
    runs: [Vec<Chunk>; 4],
    out: &mut Vec<DataFrame>,
) -> Result<()> {
    let total: usize = runs.iter().flatten().map(|c| c.byte_size()).sum();
    if total > env.shard_budget() && depth < MAX_DEPTH {
        let [l0s, r0s, l1s, r1s] = runs.map(|run| scatter_chunks(run, env, depth));
        for (((l0, r0), l1), r1) in l0s?.into_iter().zip(r0s?).zip(l1s?).zip(r1s?) {
            resolve_stream(cfg, env, depth + 1, [l0, r0, l1, r1], out)?;
        }
        return Ok(());
    }
    // In-memory epoch replay. Feed order is load-bearing:
    //   R1 first (builds the post-eviction right index; probes nothing),
    //   L0 with prior flags, *without* left indexing → pairs L0×R1 only,
    //   R0 (probes the — deliberately empty — left index; no pairs),
    //   L1 → pairs L1×(R0 ∪ R1),
    //   right EOF → null-flush / anti resolution over all lefts.
    let [l0, r0, l1, r1] = &runs;
    let mut core = JoinCore::new(cfg.clone());
    for c in r1 {
        out.push(core.stream_right(&c.frame, chunk_hashes(c)?)?);
    }
    for c in l0 {
        out.push(core.stream_left_ext(&c.frame, chunk_hashes(c)?, c.flags.clone(), false)?);
    }
    for c in r0 {
        out.push(core.stream_right(&c.frame, chunk_hashes(c)?)?);
    }
    for c in l1 {
        out.push(core.stream_left_ext(&c.frame, chunk_hashes(c)?, None, false)?);
    }
    out.push(core.stream_right_eof()?);
    Ok(())
}

impl JoinPart {
    /// One streaming (sub-)frame: a resident core emits its matches now,
    /// a spilled partition keeps the rows for its EOF replay.
    fn stream(
        &mut self,
        frame: &Arc<DataFrame>,
        hashes: KeyHashes,
        is_left: bool,
        outs: &mut Vec<DataFrame>,
    ) -> Result<()> {
        match self {
            JoinPart::Mem(core) => outs.push(if is_left {
                core.stream_left(frame, hashes)?
            } else {
                core.stream_right(frame, hashes)?
            }),
            JoinPart::StreamSpill { l1, r1, .. } => {
                let run = if is_left { l1 } else { r1 };
                run.push(&Chunk::with_hashes(frame.clone(), hashes))?;
            }
            JoinPart::BufSpill { .. } => return Err(wrong_mode()),
        }
        Ok(())
    }

    /// Right EOF: a resident core flushes; a spilled partition resolves
    /// its deferred matches (recursively if oversized) and keeps only its
    /// right side.
    fn right_eof(&mut self, cfg: &Arc<JoinConfig>, outs: &mut Vec<DataFrame>) -> Result<()> {
        match self {
            JoinPart::Mem(core) => outs.push(core.stream_right_eof()?),
            JoinPart::StreamSpill {
                env,
                l0,
                r0,
                l1,
                r1,
            } => {
                let runs = [
                    l0.read_all()?,
                    r0.read_all()?,
                    l1.read_all()?,
                    r1.read_all()?,
                ];
                resolve_stream(cfg, env, 1, runs, outs)?;
                // Every left row is resolved; the complete right side
                // stays on disk for left rows that may still arrive.
                l0.clear();
                l1.clear();
            }
            JoinPart::BufSpill { .. } => return Err(wrong_mode()),
        }
        Ok(())
    }

    /// Both EOFs: the left rows a spilled partition took after right EOF
    /// probe its complete on-disk right side, then take the right-EOF
    /// flush.
    fn final_flush(&mut self, cfg: &Arc<JoinConfig>, outs: &mut Vec<DataFrame>) -> Result<()> {
        let JoinPart::StreamSpill {
            env, r0, l1, r1, ..
        } = self
        else {
            return Ok(());
        };
        if l1.is_empty() {
            return Ok(());
        }
        let mut rights = r0.read_all()?;
        rights.extend(r1.read_all()?);
        let lefts = l1.read_all()?;
        l1.clear();
        resolve_stream(cfg, env, 1, [Vec::new(), rights, lefts, Vec::new()], outs)
    }

    /// Recompute-mode buffering. A snapshot-kind side replaces what this
    /// partition held (a refresh invalidates stale state even where the
    /// new version has no rows); a delta side appends.
    fn buffer(&mut self, port: usize, frame: &Arc<DataFrame>, snapshot: bool) -> Result<()> {
        match self {
            JoinPart::Mem(core) => core.buffer(port, frame.clone()),
            JoinPart::BufSpill { left, right } => {
                let run = if port == 0 { left } else { right };
                if snapshot {
                    run.clear();
                }
                if frame.num_rows() > 0 {
                    run.push(&Chunk::frame_only(frame.clone()))?;
                }
            }
            _ => return Err(wrong_mode()),
        }
        Ok(())
    }

    /// Re-join this partition in full: a resident core in place, a
    /// spilled one through a scratch core (memory stays ~one partition).
    fn recompute(&mut self, cfg: &Arc<JoinConfig>) -> Result<DataFrame> {
        match self {
            JoinPart::Mem(core) => core.recompute(),
            JoinPart::BufSpill { left, right } => load_buffered(cfg, left, right)?.recompute(),
            _ => Err(wrong_mode()),
        }
    }
}

impl Partition for JoinPart {
    type Cfg = JoinConfig;
    type Task = JoinTask;
    /// The rows this shard contributes to the operator's next output.
    type Out = DataFrame;

    fn new(cfg: &Arc<JoinConfig>) -> Self {
        JoinPart::Mem(Box::new(JoinCore::new(cfg.clone())))
    }

    fn resident_bytes(&self) -> Option<usize> {
        match self {
            JoinPart::Mem(core) => Some(core.state_bytes()).filter(|&b| b > 0),
            _ => None,
        }
    }

    fn evict(&mut self, env: &SpillEnv) -> Result<()> {
        let JoinPart::Mem(core) = self else {
            return Err(DataError::Invalid(
                "only a resident join partition can be evicted".into(),
            ));
        };
        let spilled = if !core.cfg.streaming {
            let (lefts, rights) = core.eviction_chunks_buffered();
            JoinPart::BufSpill {
                left: run_from_chunks(env, "join-bl", &lefts)?,
                right: run_from_chunks(env, "join-br", &rights)?,
            }
        } else {
            let (lefts, rights) = core.eviction_chunks_streaming();
            // After right EOF every left row is resolved: only the
            // rights matter for future left rows.
            let lefts: &[Chunk] = if core.right_eof { &[] } else { &lefts };
            JoinPart::StreamSpill {
                env: env.clone(),
                l0: run_from_chunks(env, "join-l0", lefts)?,
                r0: run_from_chunks(env, "join-r0", &rights)?,
                l1: env.new_run("join-l1"),
                r1: env.new_run("join-r1"),
            }
        };
        *self = spilled;
        Ok(())
    }

    /// Recompute-mode partitions come back — their runs are plain
    /// buffered rows. Streaming partitions stay on their runs: the epoch
    /// split exists precisely because a mid-stream partition cannot be
    /// reconstructed resident without re-emitting already-emitted
    /// matches, and their resolution path only *reads* — which a full
    /// device (`ENOSPC`) still serves, and a persistently unreadable one
    /// fails typed. New arrivals to those partitions accumulate in the
    /// runs' pending buffers (writes soft-fail into memory), so no data
    /// is lost either way.
    fn rehydrate(&mut self, cfg: &Arc<JoinConfig>) -> Result<()> {
        if let JoinPart::BufSpill { left, right } = self {
            *self = JoinPart::Mem(Box::new(load_buffered(cfg, left, right)?));
        }
        Ok(())
    }

    fn state_bytes(&self) -> usize {
        let pending = |runs: &[&RunWriter]| runs.iter().map(|r| r.pending_bytes()).sum::<usize>();
        match self {
            JoinPart::Mem(core) => core.state_bytes(),
            JoinPart::StreamSpill { l0, r0, l1, r1, .. } => pending(&[l0, r0, l1, r1]) + 64,
            JoinPart::BufSpill { left, right } => pending(&[left, right]) + 64,
        }
    }

    fn run(shard: &mut Partitions<Self>, task: JoinTask) -> Result<(DataFrame, Option<usize>)> {
        let cfg = shard.cfg().clone();
        let mut outs = Vec::new();
        match task {
            JoinTask::Frame {
                port,
                frame,
                hashes,
            } if cfg.streaming => {
                shard.scatter(&frame, hashes, false, |part, sub, sub_hashes| {
                    part.stream(sub, sub_hashes, port == 0, &mut outs)
                })?
            }
            JoinTask::Frame {
                port,
                frame,
                hashes,
            } => {
                let snapshot = cfg.side(port).1 == UpdateKind::Snapshot;
                shard.scatter(&frame, hashes, snapshot, |part, sub, _| {
                    part.buffer(port, sub, snapshot)
                })?
            }
            JoinTask::RightEof => shard.each(|part| part.right_eof(&cfg, &mut outs))?,
            JoinTask::FinalFlush => shard.each(|part| part.final_flush(&cfg, &mut outs))?,
            JoinTask::Recompute => shard.each(|part| {
                outs.push(part.recompute(&cfg)?);
                Ok(())
            })?,
        }
        // Partitions are key-disjoint, like shards one level up.
        let frame = concat_partials(&cfg.out_schema, outs)?;
        Ok((frame, Some(shard.state_bytes())))
    }
}

/// Hash-based join over two edf inputs (port 0 = left, port 1 = right).
/// The keyed state is hash-range sharded; see the module docs.
pub struct JoinOp {
    cfg: Arc<JoinConfig>,
    keyed: KeyedState<JoinPart>,
    left_eof: bool,
    right_eof: bool,
    emitted_any: bool,
    progress: Progress,
    meta: EdfMeta,
}

impl JoinOp {
    /// The join on `shards` hash-range shards (one runs on the caller's
    /// thread, more on persistent workers — see [`crate::ops::sharded`]).
    /// Under a `spill` env, when a shard exceeds its slice of the
    /// operator's budget the largest spill partition is evicted to disk
    /// and its matches resolve out-of-core; `None` keeps the unbounded
    /// resident path.
    pub fn new(
        left: &EdfMeta,
        right: &EdfMeta,
        left_on: Vec<String>,
        right_on: Vec<String>,
        kind: JoinKind,
        shards: usize,
        spill: Option<&SpillEnv>,
    ) -> Result<Self> {
        if left_on.len() != right_on.len() || left_on.is_empty() {
            return Err(DataError::Invalid(
                "join keys must be non-empty and pairwise aligned".into(),
            ));
        }
        let left_idx = left_on
            .iter()
            .map(|k| left.schema.index_of(k))
            .collect::<Result<Vec<_>>>()?;
        let right_idx = right_on
            .iter()
            .map(|k| right.schema.index_of(k))
            .collect::<Result<Vec<_>>>()?;
        for (l, r) in left_idx.iter().zip(&right_idx) {
            let (lf, rf) = (&left.schema.fields()[*l], &right.schema.fields()[*r]);
            let compatible =
                lf.dtype == rf.dtype || (lf.dtype.is_numeric() && rf.dtype.is_numeric());
            if !compatible {
                return Err(DataError::TypeMismatch {
                    expected: format!("join key {} : {}", lf.name, lf.dtype),
                    found: format!("{} : {}", rf.name, rf.dtype),
                });
            }
        }
        let out_schema = match kind {
            JoinKind::Inner | JoinKind::Left => Arc::new(left.schema.join(&right.schema)),
            JoinKind::Semi | JoinKind::Anti => left.schema.clone(),
        };
        let streaming = left.kind == UpdateKind::Delta && right.kind == UpdateKind::Delta;
        let out_kind = if streaming {
            UpdateKind::Delta
        } else {
            UpdateKind::Snapshot
        };
        // Probe-side (left) primary key survives FK-style joins (§4.3 /
        // Fig 6 note: "The key is still orderkey").
        let meta = EdfMeta::new(out_schema.clone(), left.primary_key.clone(), out_kind);
        let cfg = Arc::new(JoinConfig {
            kind,
            streaming,
            left_on: left_idx,
            right_on: right_idx,
            left_kind: left.kind,
            right_kind: right.kind,
            left_schema: left.schema.clone(),
            right_schema: right.schema.clone(),
            out_schema,
        });
        Ok(JoinOp {
            keyed: KeyedState::new(cfg.clone(), shards, spill),
            cfg,
            left_eof: false,
            right_eof: false,
            emitted_any: false,
            progress: Progress::new(),
            meta,
        })
    }

    /// Join the shards' partials: key-disjoint, so plain concat.
    fn merged(&self, partials: Vec<Option<DataFrame>>) -> Result<DataFrame> {
        concat_partials(
            &self.cfg.out_schema,
            partials.into_iter().flatten().collect(),
        )
    }

    fn broadcast(&mut self, task: impl Fn() -> JoinTask) -> Result<DataFrame> {
        let partials = self.keyed.broadcast(task)?;
        self.merged(partials)
    }

    fn emit(&mut self, frame: DataFrame) -> Vec<Update> {
        if frame.num_rows() == 0 && self.meta.kind == UpdateKind::Delta {
            return Vec::new();
        }
        self.emitted_any = true;
        vec![Update {
            frame: Arc::new(frame),
            progress: self.progress.clone(),
            kind: self.meta.kind,
        }]
    }
}

impl Operator for JoinOp {
    fn on_update(&mut self, port: usize, update: &Update) -> Result<Vec<Update>> {
        if port > 1 {
            return Err(DataError::Invalid(format!("join has 2 ports, got {port}")));
        }
        self.progress.merge(&update.progress);
        let (key_cols, side_kind) = self.cfg.side(port);
        let streaming = self.cfg.streaming;
        // Buffered frames are hashed to route them, not to join them
        // (`recompute` rehashes every refresh).
        let hashes = if streaming || self.keyed.routes() {
            hash_keys(&update.frame, key_cols)
        } else {
            KeyHashes::default()
        };
        // A snapshot-kind side must reach every shard: the refresh clears
        // stale state even where the new version has no rows.
        let every = !streaming && side_kind == UpdateKind::Snapshot;
        let tasks = self
            .keyed
            .scatter(&update.frame, hashes, every, |frame, hashes| {
                JoinTask::Frame {
                    port,
                    frame,
                    hashes,
                }
            });
        let partials = self.keyed.run(tasks)?;
        let out = if streaming {
            self.merged(partials)?
        } else {
            self.broadcast(|| JoinTask::Recompute)?
        };
        Ok(self.emit(out))
    }

    fn on_eof(&mut self, port: usize) -> Result<Vec<Update>> {
        let streaming = self.cfg.streaming;
        let mut out = Vec::new();
        match port {
            0 => self.left_eof = true,
            1 => {
                self.right_eof = true;
                // Recompute mode already reflects the final right state.
                if streaming {
                    let flush = self.broadcast(|| JoinTask::RightEof)?;
                    out = self.emit(flush);
                }
            }
            _ => return Err(DataError::Invalid(format!("join has 2 ports, got {port}"))),
        }
        if self.left_eof && self.right_eof {
            // Spilled streaming joins may hold deferred matches for left
            // rows that arrived after right EOF (their partition was
            // spilled to disk): resolve them once both inputs are
            // exhausted.
            if streaming && self.keyed.spills() {
                let flush = self.broadcast(|| JoinTask::FinalFlush)?;
                out.extend(self.emit(flush));
            }
            // Snapshot-mode joins must publish at least one (possibly
            // empty) state so downstream consumers learn the final answer
            // even when no input ever arrived.
            if !streaming && !self.emitted_any {
                let full = self.broadcast(|| JoinTask::Recompute)?;
                out.extend(self.emit(full));
            }
        }
        Ok(out)
    }

    fn meta(&self) -> &EdfMeta {
        &self.meta
    }

    /// Each side's keys, and the observed columns mapped back to the side
    /// they come from **by position** (the output is the left fields then
    /// the right ones, renamed by `Schema::join`). A renamed right column
    /// keeps its name only while the left column it collided with is
    /// there, so that one is read too. A semi or anti join's output is
    /// the left side: its right side only answers "is there a match".
    fn reads(&self, observed: &BTreeSet<String>) -> Vec<BTreeSet<String>> {
        let cfg = &self.cfg;
        let keys = |schema: &Schema, idx: &[usize]| -> BTreeSet<String> {
            idx.iter()
                .map(|&i| schema.fields()[i].name.clone())
                .collect()
        };
        let mut left = keys(&cfg.left_schema, &cfg.left_on);
        let mut right = keys(&cfg.right_schema, &cfg.right_on);
        for name in observed {
            let Ok(at) = cfg.out_schema.index_of(name) else {
                continue;
            };
            match at.checked_sub(cfg.left_schema.len()) {
                None => left.insert(name.clone()),
                Some(j) => {
                    let own = &cfg.right_schema.fields()[j].name;
                    if own != name {
                        left.insert(own.clone());
                    }
                    right.insert(own.clone())
                }
            };
        }
        vec![left, right]
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
    use std::sync::Arc;
    use wake_data::{Column, DataType, Field, Value};

    fn left_meta() -> EdfMeta {
        EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            UpdateKind::Delta,
        )
    }

    fn right_frame(ks: Vec<i64>, names: Vec<&str>) -> DataFrame {
        let schema = Arc::new(Schema::new(vec![
            Field::new("rk", DataType::Int64),
            Field::new("name", DataType::Utf8),
        ]));
        DataFrame::new(
            schema,
            vec![Column::from_i64(ks), Column::from_str_iter(names)],
        )
        .unwrap()
    }

    fn right_meta() -> EdfMeta {
        EdfMeta::new(
            right_frame(vec![], vec![]).schema().clone(),
            vec!["rk".into()],
            UpdateKind::Delta,
        )
    }

    fn upd_l(ks: Vec<i64>, vs: Vec<f64>, p: u64, tot: u64) -> Update {
        Update::delta(kv_frame(ks, vs), Progress::single(0, p, tot))
    }

    fn upd_r(ks: Vec<i64>, names: Vec<&str>, p: u64, tot: u64) -> Update {
        Update::delta(right_frame(ks, names), Progress::single(1, p, tot))
    }

    fn join(kind: JoinKind) -> JoinOp {
        join_on(kind, 1, None)
    }

    fn join_on(kind: JoinKind, shards: usize, spill: Option<&SpillEnv>) -> JoinOp {
        JoinOp::new(
            &left_meta(),
            &right_meta(),
            vec!["k".into()],
            vec!["rk".into()],
            kind,
            shards,
            spill,
        )
        .unwrap()
    }

    #[test]
    fn symmetric_streaming_inner_join() {
        let mut op = join(JoinKind::Inner);
        assert_eq!(op.meta().kind, UpdateKind::Delta);
        // Left arrives first: no matches yet, no emission.
        let out = op
            .on_update(0, &upd_l(vec![1, 2], vec![10.0, 20.0], 2, 4))
            .unwrap();
        assert!(out.is_empty());
        // Right delta matches one left row.
        let out = op
            .on_update(1, &upd_r(vec![2, 9], vec!["b", "z"], 2, 4))
            .unwrap();
        assert_eq!(out.len(), 1);
        let f = &out[0].frame;
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.value(0, "k").unwrap(), Value::Int(2));
        assert_eq!(f.value(0, "name").unwrap(), Value::str("b"));
        // Later left delta joins against buffered right.
        let out = op.on_update(0, &upd_l(vec![9], vec![90.0], 3, 4)).unwrap();
        assert_eq!(out[0].frame.value(0, "name").unwrap(), Value::str("z"));
        // Combined progress covers both sources.
        assert!((out[0].t() - 5.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_keys_produce_cross_matches() {
        let mut op = join(JoinKind::Inner);
        op.on_update(0, &upd_l(vec![1, 1], vec![1.0, 2.0], 2, 2))
            .unwrap();
        let out = op
            .on_update(1, &upd_r(vec![1, 1], vec!["x", "y"], 2, 2))
            .unwrap();
        assert_eq!(out[0].frame.num_rows(), 4); // 2 × 2
    }

    #[test]
    fn left_join_flushes_unmatched_at_right_eof() {
        let mut op = join(JoinKind::Left);
        op.on_update(0, &upd_l(vec![1, 2], vec![1.0, 2.0], 2, 3))
            .unwrap();
        op.on_update(1, &upd_r(vec![1], vec!["a"], 1, 1)).unwrap();
        let out = op.on_eof(1).unwrap();
        assert_eq!(out.len(), 1);
        let f = &out[0].frame;
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.value(0, "k").unwrap(), Value::Int(2));
        assert!(f.value(0, "name").unwrap().is_null());
        // Left rows arriving after right EOF resolve immediately.
        let out = op.on_update(0, &upd_l(vec![3], vec![3.0], 3, 3)).unwrap();
        assert!(out[0].frame.value(0, "name").unwrap().is_null());
    }

    #[test]
    fn semi_join_emits_each_left_row_once() {
        let mut op = join(JoinKind::Semi);
        op.on_update(0, &upd_l(vec![1, 2], vec![1.0, 2.0], 2, 2))
            .unwrap();
        let out = op.on_update(1, &upd_r(vec![1], vec!["a"], 1, 2)).unwrap();
        assert_eq!(out[0].frame.num_rows(), 1);
        assert_eq!(out[0].frame.schema().names(), vec!["k", "v"]);
        // A second matching right row must NOT re-emit the left row.
        let out = op.on_update(1, &upd_r(vec![1], vec!["dup"], 2, 2)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn anti_join_waits_for_right_eof() {
        let mut op = join(JoinKind::Anti);
        op.on_update(0, &upd_l(vec![1, 2, 3], vec![0.0; 3], 3, 5))
            .unwrap();
        let out = op.on_update(1, &upd_r(vec![2], vec!["b"], 1, 1)).unwrap();
        assert!(out.is_empty()); // cannot prove non-existence yet
        let out = op.on_eof(1).unwrap();
        let f = &out[0].frame;
        assert_eq!(f.num_rows(), 2);
        assert_eq!(f.value(0, "k").unwrap(), Value::Int(1));
        assert_eq!(f.value(1, "k").unwrap(), Value::Int(3));
        // Post-EOF left rows resolve instantly.
        let out = op.on_update(0, &upd_l(vec![2], vec![0.0], 4, 5)).unwrap();
        assert!(out.is_empty()); // matched -> dropped
        let out = op.on_update(0, &upd_l(vec![7], vec![0.0], 5, 5)).unwrap();
        assert_eq!(out[0].frame.num_rows(), 1);
    }

    #[test]
    fn recompute_mode_for_snapshot_inputs() {
        let snap_left = EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            UpdateKind::Snapshot,
        );
        let mut op = JoinOp::new(
            &snap_left,
            &right_meta(),
            vec!["k".into()],
            vec!["rk".into()],
            JoinKind::Inner,
            1,
            None,
        )
        .unwrap();
        assert_eq!(op.meta().kind, UpdateKind::Snapshot);
        // Snapshot left state v1.
        let s1 = Update::snapshot(
            kv_frame(vec![1, 2], vec![1.0, 2.0]),
            Progress::single(0, 1, 2),
        );
        let out = op.on_update(0, &s1).unwrap();
        assert_eq!(out[0].frame.num_rows(), 0); // right empty so far
        op.on_update(1, &upd_r(vec![1, 2], vec!["a", "b"], 2, 2))
            .unwrap();
        // Refreshed snapshot drops key 1: the re-join must too.
        let s2 = Update::snapshot(kv_frame(vec![2], vec![2.5]), Progress::single(0, 2, 2));
        let out = op.on_update(0, &s2).unwrap();
        let f = &out[0].frame;
        assert_eq!(f.num_rows(), 1);
        assert_eq!(f.value(0, "name").unwrap(), Value::str("b"));
        assert_eq!(out[0].kind, UpdateKind::Snapshot);
    }

    #[test]
    fn null_keys_never_match() {
        let mut op = join(JoinKind::Inner);
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let left = DataFrame::from_rows(
            schema,
            &[
                vec![Value::Null, Value::Float(1.0)],
                vec![Value::Int(1), Value::Float(2.0)],
            ],
        )
        .unwrap();
        op.on_update(0, &Update::delta(left, Progress::single(0, 2, 2)))
            .unwrap();
        let out = op.on_update(1, &upd_r(vec![1], vec!["a"], 1, 1)).unwrap();
        assert_eq!(out[0].frame.num_rows(), 1);
    }

    #[test]
    fn schema_collision_renames_right() {
        let meta_dup = EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            UpdateKind::Delta,
        );
        let op = JoinOp::new(
            &meta_dup.clone(),
            &meta_dup,
            vec!["k".into()],
            vec!["k".into()],
            JoinKind::Inner,
            1,
            None,
        )
        .unwrap();
        assert_eq!(
            op.meta().schema.names(),
            vec!["k", "v", "k_right", "v_right"]
        );
    }

    #[test]
    fn key_validation() {
        assert!(JoinOp::new(
            &left_meta(),
            &right_meta(),
            vec![],
            vec![],
            JoinKind::Inner,
            1,
            None
        )
        .is_err());
        assert!(JoinOp::new(
            &left_meta(),
            &right_meta(),
            vec!["missing".into()],
            vec!["rk".into()],
            JoinKind::Inner,
            1,
            None
        )
        .is_err());
        // v (Float64) vs name (Utf8) is incompatible.
        assert!(JoinOp::new(
            &left_meta(),
            &right_meta(),
            vec!["v".into()],
            vec!["name".into()],
            JoinKind::Inner,
            1,
            None
        )
        .is_err());
    }

    #[test]
    fn cross_type_numeric_keys_match() {
        // Int64 left key joins Float64 right key: 2 == 2.0.
        let lmeta = left_meta();
        let rschema = Arc::new(Schema::new(vec![
            Field::new("rk", DataType::Float64),
            Field::new("name", DataType::Utf8),
        ]));
        let rmeta = EdfMeta::new(rschema.clone(), vec!["rk".into()], UpdateKind::Delta);
        let mut op = JoinOp::new(
            &lmeta,
            &rmeta,
            vec!["k".into()],
            vec!["rk".into()],
            JoinKind::Inner,
            1,
            None,
        )
        .unwrap();
        op.on_update(0, &upd_l(vec![1, 2], vec![0.0, 0.0], 2, 2))
            .unwrap();
        let rf = DataFrame::new(
            rschema,
            vec![
                Column::from_f64(vec![2.0, 3.5]),
                Column::from_str_iter(["two", "x"]),
            ],
        )
        .unwrap();
        let out = op
            .on_update(1, &Update::delta(rf, Progress::single(1, 2, 2)))
            .unwrap();
        assert_eq!(out[0].frame.num_rows(), 1);
        assert_eq!(out[0].frame.value(0, "name").unwrap(), Value::str("two"));
    }

    #[test]
    fn state_bytes_accounts_for_every_component() {
        // Exact accounting on a known workload. An anti join retains,
        // per buffered left frame: the frame payload, its key hashes
        // (8 B/row) *plus the null mask* (1 B/row when any key is null),
        // and the matched flags (1 B/row). The right side adds its frame
        // payload and index. The mask and flags were previously
        // uncounted; this pins the full formula so the governor's budget
        // math matches allocation.
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let lf = DataFrame::from_rows(
            schema.clone(),
            &(0..50)
                .map(|i| {
                    vec![
                        if i % 7 == 0 {
                            Value::Null
                        } else {
                            Value::Int(i)
                        },
                        Value::Float(i as f64),
                    ]
                })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let rf = right_frame((0..40).collect(), (0..40).map(|_| "x").collect::<Vec<_>>());
        let cfg_op = join(JoinKind::Anti);
        let cfg = cfg_op.cfg.clone();
        let mut core = JoinCore::new(cfg);
        let lh = hash_keys(&lf, &[0]);
        let rh = hash_keys(&rf, &[0]);
        let lframe = Arc::new(lf.clone());
        let rframe = Arc::new(rf.clone());
        core.stream_left(&lframe, lh.clone()).unwrap();
        core.stream_right(&rframe, rh.clone()).unwrap();
        let expected = lf.byte_size()                   // buffered left payload
            + rf.byte_size()                            // buffered right payload
            + core.left_index.byte_size()               // 0: anti never indexes left
            + core.right_index.byte_size()              // 40 unique keys
            + lh.byte_size()                            // 50×8 hashes + 50 mask bytes
            + lf.num_rows(); // matched flags, 1 B/row
        assert_eq!(core.state_bytes(), expected);
        assert_eq!(core.left_index.byte_size(), 0);
        // The null mask really is part of the sum (hashes alone is 400).
        assert_eq!(lh.byte_size(), 50 * 8 + 50);
        // 40 distinct single-row keys: bucket (16) + group (24) + ref (8).
        assert_eq!(core.right_index.byte_size(), 40 * (16 + 24 + 8));
    }

    #[test]
    fn state_bytes_includes_spill_pending_buffers() {
        // A spilled partition's write-behind buffer counts against the
        // budget until it is flushed to disk.
        let env = op_env(256);
        let mut shard = Partitions::new(join(JoinKind::Inner).cfg.clone(), Some(env.clone()));
        let stream_left = |shard: &mut Partitions<JoinPart>, frame: &Arc<DataFrame>| {
            let task = JoinTask::Frame {
                port: 0,
                frame: frame.clone(),
                hashes: hash_keys(frame, &[0]),
            };
            JoinPart::run(shard, task).unwrap();
        };
        let lf = Arc::new(kv_frame((0..200).collect(), vec![1.0; 200]));
        stream_left(&mut shard, &lf);
        // Over budget => evicted; stream more lefts into the spilled
        // partitions and confirm their pending bytes are charged.
        let before = shard.state_bytes();
        let lf2 = Arc::new(kv_frame((200..260).collect(), vec![2.0; 60]));
        stream_left(&mut shard, &lf2);
        let pending: usize = shard
            .parts()
            .iter()
            .map(|p| match p {
                JoinPart::StreamSpill { l1, .. } => l1.pending_bytes(),
                _ => 0,
            })
            .sum();
        assert!(env.governor.metrics().evictions > 0, "never spilled");
        assert!(pending > 0, "expected unflushed spill-pending bytes");
        assert!(shard.state_bytes() >= before.min(pending));
        let accounted: usize = shard.state_bytes();
        assert!(
            accounted >= pending,
            "pending buffers must be part of state_bytes ({accounted} < {pending})"
        );
    }

    /// Multiset of rows for order-insensitive comparison.
    fn rows_sorted(f: &DataFrame) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = (0..f.num_rows()).map(|i| f.row(i)).collect();
        rows.sort();
        rows
    }

    /// Cumulative multiset of all rows emitted by a sequence of updates.
    fn all_rows(outs: &[Vec<Update>]) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = outs
            .iter()
            .flat_map(|us| us.iter())
            .flat_map(|u| (0..u.frame.num_rows()).map(|i| u.frame.row(i)))
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn budget_spilled_join_matches_resident_for_all_kinds() {
        // A budget small enough to evict partitions mid-stream: the
        // spilled operator defers match emission (epoch replay at EOF),
        // so equivalence is on the cumulative emitted multiset — which
        // must be exactly the resident operator's. Covers every join
        // kind, null keys, duplicate keys, post-right-EOF left arrivals,
        // and both S=1 and sharded execution.
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let lframe = |ks: &[Option<i64>]| {
            DataFrame::from_rows(
                schema.clone(),
                &ks.iter()
                    .enumerate()
                    .map(|(i, k)| vec![k.map_or(Value::Null, Value::Int), Value::Float(i as f64)])
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        let left_seq = [
            lframe(&[Some(1), Some(2), None, Some(3), Some(4), Some(2)]),
            lframe(&[Some(2), None, Some(9), Some(5), Some(11), Some(13)]),
        ];
        let right_seq = [
            right_frame(vec![2, 3, 3, 5, 7], vec!["a", "b", "c", "e", "f"]),
            right_frame(vec![9, 100, 2, 11], vec!["z", "q", "a2", "k"]),
        ];
        let post_eof_left = lframe(&[Some(2), Some(77), None]);
        for kind in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            for shards in [1usize, 2] {
                let env = op_env(256);
                let governor = env.governor.clone();
                let mut reference = join(kind);
                let mut spilled = join_on(kind, shards, Some(&env));
                let mut ref_outs = Vec::new();
                let mut sp_outs = Vec::new();
                let mut step = 0u64;
                let mut feed = |op: &mut JoinOp, port: usize, f: &DataFrame| {
                    step += 1;
                    let u = Update::delta(f.clone(), Progress::single(port as u32, step, 40));
                    op.on_update(port, &u).unwrap()
                };
                for (lf, rf) in left_seq.iter().zip(&right_seq) {
                    ref_outs.push(feed(&mut reference, 0, lf));
                    sp_outs.push(feed(&mut spilled, 0, lf));
                    ref_outs.push(feed(&mut reference, 1, rf));
                    sp_outs.push(feed(&mut spilled, 1, rf));
                }
                ref_outs.push(reference.on_eof(1).unwrap());
                sp_outs.push(spilled.on_eof(1).unwrap());
                // Left rows arriving after right EOF: the resident path
                // resolves them instantly; a spilled partition defers
                // them to the final flush.
                ref_outs.push(feed(&mut reference, 0, &post_eof_left));
                sp_outs.push(feed(&mut spilled, 0, &post_eof_left));
                ref_outs.push(reference.on_eof(0).unwrap());
                sp_outs.push(spilled.on_eof(0).unwrap());
                assert_eq!(
                    all_rows(&ref_outs),
                    all_rows(&sp_outs),
                    "{kind:?} S={shards}"
                );
                let m = governor.metrics();
                assert!(m.evictions > 0, "{kind:?} S={shards}: never spilled");
                assert!(m.spilled_bytes > 0);
            }
        }
    }

    #[test]
    fn oversized_partition_recurses_into_subpartitions() {
        // Evicted partitions whose runs together hold more than FANOUT
        // shard slices: at least one partition's runs exceed the slice,
        // so its resolution must recursively re-partition (multi-pass
        // grace hash) — and still produce the resident operator's
        // multiset.
        let n = 1200i64;
        let lf = Arc::new(kv_frame(
            (0..n).map(|i| i % 97).collect(),
            vec![0.5; n as usize],
        ));
        let rf = Arc::new(right_frame(
            (0..n / 2).map(|i| i % 101).collect(),
            (0..n / 2).map(|_| "r").collect(),
        ));
        for kind in [JoinKind::Inner, JoinKind::Left] {
            let mut reference = join(kind);
            let mut ref_outs = Vec::new();
            let ul = Update::delta((*lf).clone(), Progress::single(0, 1, 2));
            let ur = Update::delta((*rf).clone(), Progress::single(1, 1, 1));
            ref_outs.push(reference.on_update(0, &ul).unwrap());
            ref_outs.push(reference.on_update(1, &ur).unwrap());
            ref_outs.push(reference.on_eof(1).unwrap());
            ref_outs.push(reference.on_eof(0).unwrap());

            // One shard of the spilling operator, driven task by task so
            // its runs can be weighed before right EOF resolves them.
            let env = op_env(2048);
            let mut shard = Partitions::new(reference.cfg.clone(), Some(env.clone()));
            let mut outs = Vec::new();
            for (port, frame) in [(0, &lf), (1, &rf)] {
                let hashes = hash_keys(frame, &[0]);
                let task = JoinTask::Frame {
                    port,
                    frame: frame.clone(),
                    hashes,
                };
                outs.push(JoinPart::run(&mut shard, task).unwrap().0);
            }
            let mut run_bytes = 0;
            for part in shard.parts() {
                if let JoinPart::StreamSpill { l0, r0, l1, r1, .. } = part {
                    for run in [l0, r0, l1, r1] {
                        run_bytes += run
                            .read_all()
                            .unwrap()
                            .iter()
                            .map(Chunk::byte_size)
                            .sum::<usize>();
                    }
                }
            }
            assert!(
                run_bytes > FANOUT * env.shard_budget(),
                "{kind:?}: {run_bytes} run bytes cannot force a recursion"
            );
            for task in [JoinTask::RightEof, JoinTask::FinalFlush] {
                outs.push(JoinPart::run(&mut shard, task).unwrap().0);
            }
            let mut rows: Vec<Vec<Value>> = outs.iter().flat_map(rows_sorted).collect();
            rows.sort();
            assert_eq!(all_rows(&ref_outs), rows, "{kind:?}");
            assert!(
                env.governor.metrics().evictions > 0,
                "{kind:?}: never spilled"
            );
        }
    }

    #[test]
    fn budget_spilled_recompute_join_matches_resident() {
        // Snapshot-input (recompute-mode) joins spill their buffered
        // sides; every refresh must re-join to the same multiset, and a
        // snapshot refresh must clear spilled buffers too.
        let snap_left = EdfMeta::new(
            kv_frame(vec![], vec![]).schema().clone(),
            vec!["k".into()],
            UpdateKind::Snapshot,
        );
        let build = |spill: Option<&SpillEnv>| {
            JoinOp::new(
                &snap_left,
                &right_meta(),
                vec!["k".into()],
                vec!["rk".into()],
                JoinKind::Inner,
                1,
                spill,
            )
            .unwrap()
        };
        let env = op_env(512);
        let governor = env.governor.clone();
        let mut reference = build(None);
        let mut spilled = build(Some(&env));
        let big: Vec<i64> = (0..120).collect();
        let vals: Vec<f64> = (0..120).map(|i| i as f64).collect();
        let s1 = Update::snapshot(kv_frame(big, vals), Progress::single(0, 1, 3));
        let r1 = upd_r((0..120).step_by(2).collect(), vec!["x"; 60], 1, 2);
        for (port, u) in [(0usize, &s1), (1usize, &r1)] {
            let a = reference.on_update(port, u).unwrap();
            let b = spilled.on_update(port, u).unwrap();
            assert_eq!(all_rows(&[a]), all_rows(&[b]), "refresh at port {port}");
        }
        // Shrinking snapshot refresh: stale spilled state must vanish.
        let s2 = Update::snapshot(
            kv_frame(vec![2, 4], vec![2.0, 4.0]),
            Progress::single(0, 3, 3),
        );
        let a = reference.on_update(0, &s2).unwrap();
        let b = spilled.on_update(0, &s2).unwrap();
        assert_eq!(all_rows(std::slice::from_ref(&a)), all_rows(&[b]));
        assert_eq!(a.last().unwrap().frame.num_rows(), 2);
        assert!(governor.metrics().evictions > 0, "never spilled");
    }

    #[test]
    fn sharded_join_matches_unsharded_for_all_kinds_and_modes() {
        // Streaming: feed the same update sequence (null keys included)
        // into S=1 and S∈{2,3,8} operators under every shard mode and
        // require multiset-identical emissions step by step.
        let schema = kv_frame(vec![], vec![]).schema().clone();
        let lframe = |ks: &[Option<i64>]| {
            DataFrame::from_rows(
                schema.clone(),
                &ks.iter()
                    .enumerate()
                    .map(|(i, k)| vec![k.map_or(Value::Null, Value::Int), Value::Float(i as f64)])
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        let left_seq = [
            lframe(&[Some(1), Some(2), None, Some(3), Some(4)]),
            lframe(&[Some(2), None, Some(9)]),
        ];
        let right_seq = [
            right_frame(vec![2, 3, 3], vec!["a", "b", "c"]),
            right_frame(vec![9, 100], vec!["z", "q"]),
        ];
        for kind in [
            JoinKind::Inner,
            JoinKind::Left,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            for shards in [2usize, 3, 8] {
                let mut reference = join(kind);
                let mut sharded = join_on(kind, shards, None);
                let mut step = 0u64;
                let mut feed = |op: &mut JoinOp, port: usize, f: &DataFrame| {
                    step += 1;
                    let u = Update::delta(f.clone(), Progress::single(port as u32, step, 10));
                    op.on_update(port, &u).unwrap()
                };
                for (lf, rf) in left_seq.iter().zip(&right_seq) {
                    let a = feed(&mut reference, 0, lf);
                    let b = feed(&mut sharded, 0, lf);
                    let concat = |outs: Vec<Update>| {
                        outs.iter()
                            .flat_map(|u| rows_sorted(&u.frame))
                            .collect::<Vec<_>>()
                    };
                    let (mut am, mut bm) = (concat(a), concat(b));
                    am.sort();
                    bm.sort();
                    assert_eq!(am, bm, "{kind:?} S={shards} left step");
                    let a = feed(&mut reference, 1, rf);
                    let b = feed(&mut sharded, 1, rf);
                    let (mut am, mut bm) = (concat(a), concat(b));
                    am.sort();
                    bm.sort();
                    assert_eq!(am, bm, "{kind:?} S={shards} right step");
                }
                let a = reference.on_eof(1).unwrap();
                let b = sharded.on_eof(1).unwrap();
                let flat = |outs: Vec<Update>| {
                    let mut rows: Vec<Vec<Value>> =
                        outs.iter().flat_map(|u| rows_sorted(&u.frame)).collect();
                    rows.sort();
                    rows
                };
                assert_eq!(flat(a), flat(b), "{kind:?} S={shards} eof flush");
                assert!(sharded.state_bytes() > 0);
            }
        }
    }
}
