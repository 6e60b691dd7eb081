//! Keyed operator state: one routing rule and one memory policy under
//! every hash-keyed operator.
//!
//! A hash-keyed operator (join, group-by) keeps its state three levels
//! deep, each level picked by the next digits of a row's key hash — one
//! kernel, `wake_data::partition`, reads them all:
//!
//! ```text
//! operator ─ S shards              shard = (h·S) >> 64
//!            └ F spill partitions  part at depth d = ((h·S·F^(d+1)) >> 64) mod F
//!              └ payload `P`       (a join core, a group table — the operator's own)
//! ```
//!
//! `F` is [`FANOUT`]. A spilled join partition that is still too large
//! splits again, one digit deeper, while its depth is below [`MAX_DEPTH`].
//! Two decisions are the same whatever the payload, and this module is the
//! only place that knows either:
//!
//! - **How a frame reaches keyed state.** [`KeyedState::scatter`] splits a
//!   frame over shards, [`Partitions::scatter`] splits a shard's sub-frame
//!   over its spill partitions. A level with one target hands the caller's
//!   `Arc<DataFrame>` through untouched, so `S = 1` without a budget is
//!   the unsharded, unspilled operator byte for byte.
//! - **What happens to that state under a byte budget.** After every
//!   routed frame [`Partitions`] evicts the largest resident partition
//!   until the shard fits its slice; once the spill device is condemned
//!   (the governor is poisoned) it sets `degraded` — before any read, so a
//!   failed read cannot leave the shard evicting to a dead device —
//!   rehydrates what can come back, and never evicts again.
//!
//! The payload supplies [`Partition`]: how to evict and rehydrate itself,
//! what it weighs, and how one task runs against a shard's partitions.

use crate::ops::sharded::{ShardWork, ShardedState};
use crate::ops::OpReport;
use crate::Result;
use std::sync::Arc;
use wake_data::hash::KeyHashes;
use wake_data::partition::{shard_selections, spill_selections};
use wake_data::{DataFrame, Schema};
use wake_store::governor::SpillEnv;

/// Spill partitions per shard under a memory budget, and the fan-out of
/// every recursive split of an oversized partition.
pub(crate) const FANOUT: usize = 8;

/// Recursion limit of the split: `FANOUT^MAX_DEPTH` leaf partitions per
/// shard. It only matters under pathological key skew, where the leaf is
/// processed in memory regardless of budget.
pub(crate) const MAX_DEPTH: usize = 4;

/// Split a shard's rows (their `hashes`) over its [`FANOUT`] spill
/// partitions at `depth` (0 = the first split below shard routing).
pub(crate) fn spill_split(env: &SpillEnv, hashes: &[u64], depth: usize) -> Vec<Vec<u32>> {
    spill_selections(hashes, env.shards(), FANOUT, depth)
}

/// One spill partition's worth of an operator's keyed state.
pub trait Partition: Sized + Send + 'static {
    /// Immutable operator configuration shared by every partition.
    type Cfg: Send + Sync + 'static;
    type Task: Send + 'static;
    type Out: Send + 'static;

    /// A fresh, empty, resident partition.
    fn new(cfg: &Arc<Self::Cfg>) -> Self;

    /// Bytes an eviction would free; `None` when there is nothing to
    /// evict (already on disk, or empty).
    fn resident_bytes(&self) -> Option<usize>;

    /// Move this partition's state to spill runs. Only called when
    /// [`resident_bytes`](Self::resident_bytes) is `Some`.
    fn evict(&mut self, env: &SpillEnv) -> Result<()>;

    /// The spill device is dead: come back resident if that is possible
    /// without changing the operator's output (a partition that must stay
    /// on its runs does nothing — its reads still fail typed).
    fn rehydrate(&mut self, cfg: &Arc<Self::Cfg>) -> Result<()>;

    /// Bytes charged to the shard's budget: resident state, or a spilled
    /// partition's unflushed write buffers.
    fn state_bytes(&self) -> usize;

    /// Run one task against a shard. The second value is the shard's
    /// footprint after a task that changed its state, `None` after one
    /// that only read it.
    fn run(shard: &mut Partitions<Self>, task: Self::Task) -> Result<(Self::Out, Option<usize>)>;
}

/// The rows of `frame` at `sel`, with their hashes. A selection that keeps
/// every row shares the frame instead of copying it.
fn sub_frame(
    frame: &Arc<DataFrame>,
    hashes: &KeyHashes,
    sel: &[u32],
) -> (Arc<DataFrame>, KeyHashes) {
    if sel.len() == frame.num_rows() {
        (frame.clone(), hashes.clone())
    } else {
        (Arc::new(frame.select(sel)), hashes.take(sel))
    }
}

/// One frame from key-disjoint partial results: the empty ones dropped,
/// then nothing → the empty frame, one → that frame, more → one concat.
pub fn concat_partials(schema: &Arc<Schema>, mut frames: Vec<DataFrame>) -> Result<DataFrame> {
    frames.retain(|f| f.num_rows() > 0);
    if frames.len() > 1 {
        return DataFrame::concat(&frames.iter().collect::<Vec<_>>());
    }
    Ok(frames
        .pop()
        .unwrap_or_else(|| DataFrame::empty(schema.clone())))
}

/// One shard: `F` spill partitions of payload `P` (one, without a memory
/// budget) and the policy that keeps them inside the shard's byte slice.
pub struct Partitions<P: Partition> {
    cfg: Arc<P::Cfg>,
    parts: Vec<P>,
    spill: Option<SpillEnv>,
    /// The spill device failed persistently and this shard has suspended
    /// its budget.
    degraded: bool,
}

impl<P: Partition> Partitions<P> {
    pub fn new(cfg: Arc<P::Cfg>, spill: Option<SpillEnv>) -> Self {
        let fanout = if spill.is_some() { FANOUT } else { 1 };
        Partitions {
            parts: (0..fanout).map(|_| P::new(&cfg)).collect(),
            cfg,
            spill,
            degraded: false,
        }
    }

    pub fn cfg(&self) -> &Arc<P::Cfg> {
        &self.cfg
    }

    pub fn parts(&self) -> &[P] {
        &self.parts
    }

    /// Direct access for work that needs no device: resetting state.
    pub fn parts_mut(&mut self) -> &mut [P] {
        &mut self.parts
    }

    pub fn state_bytes(&self) -> usize {
        self.parts.iter().map(P::state_bytes).sum()
    }

    /// Route `frame`'s rows to their partitions, then bring the shard back
    /// under its budget. `f` runs once per partition that received rows —
    /// with `every`, once per partition whatever it received (a snapshot
    /// refresh must clear stale state even where it has no rows).
    pub fn scatter(
        &mut self,
        frame: &Arc<DataFrame>,
        hashes: KeyHashes,
        every: bool,
        mut f: impl FnMut(&mut P, &Arc<DataFrame>, KeyHashes) -> Result<()>,
    ) -> Result<()> {
        self.check_device()?;
        if let [only] = self.parts.as_mut_slice() {
            f(only, frame, hashes)?;
        } else if let Some(env) = &self.spill {
            let sels = spill_split(env, &hashes.hashes, 0);
            for (part, sel) in self.parts.iter_mut().zip(&sels) {
                if every || !sel.is_empty() {
                    let (sub, sub_hashes) = sub_frame(frame, &hashes, sel);
                    f(part, &sub, sub_hashes)?;
                }
            }
        }
        self.enforce_budget()
    }

    /// Visit every partition (EOF flushes, snapshots, recomputes).
    pub fn each(&mut self, f: impl FnMut(&mut P) -> Result<()>) -> Result<()> {
        self.check_device()?;
        self.parts.iter_mut().try_for_each(f)
    }

    /// First rung of the degrade ladder: a poisoned governor is noticed
    /// before the partitions are touched.
    fn check_device(&mut self) -> Result<()> {
        let poisoned = self
            .spill
            .as_ref()
            .is_some_and(|env| env.governor.is_poisoned());
        if poisoned && !self.degraded {
            self.degrade()?;
        }
        Ok(())
    }

    /// Suspend the budget and bring back what can come back; the query
    /// finishes resident. Fails typed if a spilled partition is no longer
    /// readable.
    fn degrade(&mut self) -> Result<()> {
        // Flag first: even if a rehydration read fails below, this shard
        // must never try to evict to the dead device again.
        self.degraded = true;
        let cfg = &self.cfg;
        self.parts.iter_mut().try_for_each(|p| p.rehydrate(cfg))
    }

    /// While over the shard's slice, evict the largest resident partition
    /// (the governor's eviction policy, one level down).
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
                // flush soft-failed into its pending buffer): the loop can
                // never shed bytes, so stop evicting for good.
                return self.degrade();
            }
            let victim = self
                .parts
                .iter_mut()
                .filter_map(|p| p.resident_bytes().map(|bytes| (bytes, p)))
                .max_by_key(|&(bytes, _)| bytes);
            let Some((_, part)) = victim else {
                break; // everything evictable is already on disk
            };
            part.evict(&env)?;
            env.governor.record_eviction();
        }
        Ok(())
    }
}

impl<P: Partition> ShardWork for Partitions<P> {
    type Task = P::Task;
    type Out = Result<(P::Out, Option<usize>)>;

    fn run(&mut self, task: P::Task) -> Self::Out {
        P::run(self, task)
    }
}

/// What a hash-keyed operator holds: its `S` shards (on the caller's
/// thread at `S = 1`, on persistent workers above — see
/// [`crate::ops::sharded`]), whether a memory budget governs them, and
/// the per-shard footprint last reported.
pub struct KeyedState<P: Partition> {
    shards: ShardedState<Partitions<P>>,
    /// `false` = unbounded, the resident-only path.
    spills: bool,
    /// Shard state may live on worker threads, so the footprint travels
    /// with task results.
    shard_bytes: Vec<usize>,
}

impl<P: Partition> KeyedState<P> {
    /// `shards` hash-range shards (at least one), each governing its slice
    /// of the operator-level `spill` env (`None` = unbounded).
    pub fn new(cfg: Arc<P::Cfg>, shards: usize, spill: Option<&SpillEnv>) -> Self {
        let shards = shards.max(1);
        let env = spill.map(|op| op.shard_env(shards));
        KeyedState {
            shards: ShardedState::new(
                (0..shards)
                    .map(|_| Partitions::new(cfg.clone(), env.clone()))
                    .collect(),
            ),
            spills: env.is_some(),
            shard_bytes: vec![0; shards],
        }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.num_shards()
    }

    /// Whether a memory budget governs this state.
    pub fn spills(&self) -> bool {
        self.spills
    }

    /// Whether any level routes rows by key hash. When nothing does, a
    /// task that needs hashes for routing only may carry none.
    pub fn routes(&self) -> bool {
        self.num_shards() > 1 || self.spills()
    }

    /// Split `frame` into one task per shard by key hash. A shard that
    /// receives no rows gets no task — unless `every` (see
    /// [`Partitions::scatter`]).
    pub fn scatter(
        &self,
        frame: &Arc<DataFrame>,
        hashes: KeyHashes,
        every: bool,
        make: impl Fn(Arc<DataFrame>, KeyHashes) -> P::Task,
    ) -> Vec<Option<P::Task>> {
        let shards = self.num_shards();
        if shards == 1 {
            return vec![Some(make(frame.clone(), hashes))];
        }
        shard_selections(&hashes, shards)
            .iter()
            .map(|sel| {
                (every || !sel.is_empty()).then(|| {
                    let (sub, sub_hashes) = sub_frame(frame, &hashes, sel);
                    make(sub, sub_hashes)
                })
            })
            .collect()
    }

    /// Scatter `tasks` (one optional task per shard), join, and return the
    /// outputs in shard order with the reported footprints recorded.
    pub fn run(&mut self, tasks: Vec<Option<P::Task>>) -> Result<Vec<Option<P::Out>>> {
        let replies = self.shards.run(tasks)?;
        let mut outs = Vec::with_capacity(replies.len());
        for (reply, shard_bytes) in replies.into_iter().zip(&mut self.shard_bytes) {
            let (out, bytes) = reply.transpose()?.unzip();
            *shard_bytes = bytes.flatten().unwrap_or(*shard_bytes);
            outs.push(out);
        }
        Ok(outs)
    }

    /// Run the task built by `task` on every shard.
    pub fn broadcast(&mut self, task: impl Fn() -> P::Task) -> Result<Vec<Option<P::Out>>> {
        let tasks = (0..self.num_shards()).map(|_| Some(task())).collect();
        self.run(tasks)
    }

    pub fn state_bytes(&self) -> usize {
        self.shard_bytes.iter().sum()
    }

    pub fn report(&self) -> OpReport {
        OpReport {
            shard_state_bytes: self.shard_bytes.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{kv_frame, op_env};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;
    use wake_data::hash::hash_keys;
    use wake_data::DataError;

    /// What the toy payload is told, and what it tells back.
    #[derive(Default)]
    struct ToyCfg {
        /// Rehydration "reads" fail while set.
        fail_reads: AtomicBool,
        /// Resident bytes of each victim, in eviction order.
        victims: Mutex<Vec<usize>>,
    }

    /// A partition that keeps the hashes routed to it. "Evicting" it only
    /// raises a flag and, like a real spilled partition, leaves some
    /// bookkeeping bytes behind.
    struct Toy {
        cfg: Arc<ToyCfg>,
        hashes: Vec<u64>,
        evicted: bool,
        /// Every frame this partition was handed, rows or not.
        seen: Vec<Arc<DataFrame>>,
    }

    impl Partition for Toy {
        type Cfg = ToyCfg;
        /// A frame to route, and whether it is snapshot-kind.
        type Task = (Arc<DataFrame>, KeyHashes, bool);
        /// Per partition: the frames it has been handed so far.
        type Out = Vec<Vec<Arc<DataFrame>>>;

        fn new(cfg: &Arc<ToyCfg>) -> Self {
            Toy {
                cfg: cfg.clone(),
                hashes: Vec::new(),
                evicted: false,
                seen: Vec::new(),
            }
        }

        fn resident_bytes(&self) -> Option<usize> {
            (!self.evicted && !self.hashes.is_empty()).then(|| self.state_bytes())
        }

        fn evict(&mut self, _: &SpillEnv) -> Result<()> {
            assert!(!self.evicted, "evicted twice");
            self.cfg.victims.lock().unwrap().push(self.state_bytes());
            self.evicted = true;
            Ok(())
        }

        fn rehydrate(&mut self, cfg: &Arc<ToyCfg>) -> Result<()> {
            if self.evicted && cfg.fail_reads.load(Ordering::SeqCst) {
                return Err(DataError::SpillUnavailable("toy read failed".into()));
            }
            self.evicted = false;
            Ok(())
        }

        fn state_bytes(&self) -> usize {
            if self.evicted {
                64
            } else {
                self.hashes.len() * 8
            }
        }

        fn run(
            shard: &mut Partitions<Self>,
            (frame, hashes, every): Self::Task,
        ) -> Result<(Self::Out, Option<usize>)> {
            shard.scatter(&frame, hashes, every, |part, sub, sub_hashes| {
                part.hashes.extend(sub_hashes.hashes);
                part.seen.push(sub.clone());
                Ok(())
            })?;
            let seen = shard.parts().iter().map(|p| p.seen.clone()).collect();
            Ok((seen, Some(shard.state_bytes())))
        }
    }

    fn keyed_frame(keys: std::ops::Range<i64>) -> (Arc<DataFrame>, KeyHashes) {
        let keys: Vec<i64> = keys.collect();
        let n = keys.len();
        let frame = Arc::new(kv_frame(keys, vec![0.0; n]));
        let hashes = hash_keys(&frame, &[0]);
        (frame, hashes)
    }

    /// One shard of [`FANOUT`] toy partitions holding keys `0..400`, with
    /// nothing evicted yet (the budget is generous until a test lowers it).
    fn loaded_shard() -> (Partitions<Toy>, SpillEnv) {
        let env = op_env(1 << 20);
        let mut shard = Partitions::new(Arc::new(ToyCfg::default()), Some(env.clone()));
        let (frame, hashes) = keyed_frame(0..400);
        Toy::run(&mut shard, (frame, hashes, false)).unwrap();
        assert!(shard.parts().iter().all(|p| !p.hashes.is_empty()));
        (shard, env)
    }

    /// Route nothing: the budget check is all that runs.
    fn enforce(shard: &mut Partitions<Toy>) -> Result<()> {
        let (frame, hashes) = keyed_frame(0..0);
        Toy::run(shard, (frame, hashes, false)).map(|_| ())
    }

    #[test]
    fn evicts_largest_resident_first_and_stops_when_it_fits_or_nothing_is_left() {
        let (mut shard, env) = loaded_shard();
        let mut sizes: Vec<usize> = shard.parts().iter().map(Toy::state_bytes).collect();
        let total: usize = sizes.iter().sum();
        sizes.sort_unstable_by(|a, b| b.cmp(a));

        // Just under the total: one eviction suffices, and it is the
        // largest partition.
        env.governor.set_budget(Some(total - 1));
        enforce(&mut shard).unwrap();
        assert_eq!(*shard.cfg().victims.lock().unwrap(), sizes[..1]);
        assert_eq!(env.governor.metrics().evictions, 1);

        // A budget nothing can meet (evicted partitions still weigh their
        // bookkeeping): the rest go in descending size, then the loop
        // ends with nothing resident instead of spinning.
        env.governor.set_budget(Some(1));
        enforce(&mut shard).unwrap();
        assert_eq!(*shard.cfg().victims.lock().unwrap(), sizes);
        assert!(shard.parts().iter().all(|p| p.evicted));
        assert!(shard.state_bytes() > env.shard_budget());
        assert_eq!(env.governor.metrics().evictions, FANOUT);
        assert!(!shard.degraded);
    }

    #[test]
    fn poisoned_governor_degrades_flag_first_and_never_evicts_again() {
        // Reads work: everything comes back and the budget is suspended.
        let (mut shard, env) = loaded_shard();
        env.governor.set_budget(Some(1));
        enforce(&mut shard).unwrap();
        env.governor.poison();
        shard.each(|_| Ok(())).unwrap();
        assert!(shard.degraded);
        assert!(shard.parts().iter().all(|p| !p.evicted));
        enforce(&mut shard).unwrap();
        assert!(shard.parts().iter().all(|p| !p.evicted), "evicted again");
        assert_eq!(env.governor.metrics().evictions, FANOUT);

        // The first rehydration read fails: the error is typed, and the
        // flag is already up — so the shard does not go back to evicting
        // to the dead device on the next frame.
        let (mut shard, env) = loaded_shard();
        env.governor.set_budget(Some(2000));
        enforce(&mut shard).unwrap();
        let evictions = env.governor.metrics().evictions;
        assert!(
            (1..FANOUT).contains(&evictions),
            "some evicted, some resident"
        );
        env.governor.poison();
        shard.cfg().fail_reads.store(true, Ordering::SeqCst);
        let err = shard.each(|_| Ok(())).unwrap_err();
        assert!(matches!(err, DataError::SpillUnavailable(_)), "{err}");
        assert!(shard.degraded, "flag must precede the read");
        env.governor.set_budget(Some(1));
        enforce(&mut shard).unwrap();
        assert_eq!(env.governor.metrics().evictions, evictions);
    }

    #[test]
    fn poison_noticed_inside_the_eviction_loop_stops_it() {
        // The device dies after the pre-route check: the loop, not the
        // next frame, must notice.
        let (mut shard, env) = loaded_shard();
        env.governor.set_budget(Some(1));
        let (frame, hashes) = keyed_frame(0..0);
        shard
            .scatter(&frame, hashes, true, |_, _, _| {
                env.governor.poison();
                Ok(())
            })
            .unwrap();
        assert!(shard.degraded);
        assert_eq!(env.governor.metrics().evictions, 0);
    }

    #[test]
    fn snapshot_kind_frames_reach_every_shard_and_partition() {
        let (frame, hashes) = keyed_frame(7..8); // one row: one shard, one partition
        let new_state =
            || KeyedState::<Toy>::new(Arc::new(ToyCfg::default()), 3, Some(&op_env(1 << 20)));
        // Delta-kind: only the owning shard gets a task, only the owning
        // partition sees the frame.
        let mut delta = new_state();
        let tasks = delta.scatter(&frame, hashes.clone(), false, |f, h| (f, h, false));
        assert_eq!(tasks.iter().flatten().count(), 1);
        let visits: usize = delta
            .run(tasks)
            .unwrap()
            .into_iter()
            .flatten()
            .flatten()
            .map(|seen| seen.len())
            .sum();
        assert_eq!(visits, 1);
        // Snapshot-kind: all 3 shards × FANOUT partitions are visited
        // once, all but one of them with an empty sub-frame.
        let mut snap = new_state();
        let tasks = snap.scatter(&frame, hashes, true, |f, h| (f, h, true));
        assert_eq!(tasks.iter().flatten().count(), 3);
        let seen: Vec<Vec<Arc<DataFrame>>> = snap
            .run(tasks)
            .unwrap()
            .into_iter()
            .flatten()
            .flatten()
            .collect();
        assert_eq!(seen.len(), 3 * FANOUT);
        assert!(seen.iter().all(|frames| frames.len() == 1));
        let rows: Vec<usize> = seen.iter().map(|f| f[0].num_rows()).collect();
        assert_eq!(rows.iter().sum::<usize>(), 1);
        assert_eq!(snap.report().shard_state_bytes.iter().sum::<usize>(), 8);
        assert_eq!(snap.state_bytes(), 8);
    }

    #[test]
    fn one_shard_one_partition_is_a_pass_through() {
        // S = 1 without a budget: the payload is handed the caller's own
        // `Arc<DataFrame>` — no select, no copy — even for an empty frame.
        let mut state = KeyedState::<Toy>::new(Arc::new(ToyCfg::default()), 1, None);
        assert!(!state.routes() && !state.spills());
        for keys in [0..50, 0..0] {
            let (frame, hashes) = keyed_frame(keys);
            let tasks = state.scatter(&frame, hashes, false, |f, h| (f, h, false));
            let seen = state.run(tasks).unwrap().remove(0).unwrap().remove(0);
            assert!(Arc::ptr_eq(seen.last().unwrap(), &frame));
        }
        assert_eq!(state.state_bytes(), 50 * 8);
    }
}
