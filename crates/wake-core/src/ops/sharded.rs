//! Intra-operator partition parallelism: hash-range sharded operator state.
//!
//! A hash-keyed operator (join, group-by) splits its keyed state into `S`
//! independent **shards**; every input frame is routed row-wise to shards
//! by key hash (`wake_data::partition`), so equal keys always meet in the
//! same shard and shards never need to coordinate while folding. The
//! operator then runs as a three-stage fork-join per consumed update:
//!
//! 1. **split** — one vectorized `hash_keys` pass plus per-shard selection
//!    vectors; sub-frames are materialised with a typed columnar gather,
//! 2. **apply** — each shard folds its sub-frame into its private state
//!    ([`ShardWork::run`]),
//! 3. **merge** — a join-point collects per-shard partials in shard order
//!    and the operator emits one merged update downstream (group states
//!    combine with the `⊕` merge family; join outputs concatenate, since
//!    shards are key-disjoint).
//!
//! [`ShardedState`] owns stage 2, and the shard count alone decides where
//! it runs:
//!
//! - **`S = 1`**: the single shard runs on the caller's thread; no
//!   scatter, no threads — byte-identical to the pre-sharding operators.
//! - **`S > 1`**: `S` persistent worker threads, each owning its shard's
//!   state for the lifetime of the operator, fed by per-shard **bounded**
//!   channels (capacity [`POOL_TASK_CAPACITY`]) so a slow shard
//!   backpressures the splitter. Worker panics are caught and reported as
//!   a typed query error — never a hang. Dropping the operator joins the
//!   workers.
//!
//! Results are identical for identical inputs either way: the fork-join
//! barrier plus shard-ordered merge keeps sharded execution deterministic
//! in value regardless of scheduling.

use crate::Result;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread::JoinHandle;
use wake_data::DataError;

/// Per-shard bounded task-channel capacity. [`ShardedState::run`] is a
/// strict fork-join barrier — it collects every dispatched result before
/// returning — so at most one task per shard is ever in flight and
/// capacity 1 suffices; the bound exists so any future split-ahead
/// pipelining inherits blocking-send backpressure rather than an unbounded
/// queue.
pub const POOL_TASK_CAPACITY: usize = 1;

/// One shard's private state: receives owned tasks, returns owned partial
/// results. Implementations must not share mutable state across shards —
/// that independence is what makes the fan-out safe.
pub trait ShardWork: Send + 'static {
    type Task: Send + 'static;
    type Out: Send + 'static;

    fn run(&mut self, task: Self::Task) -> Self::Out;
}

enum Inner<W: ShardWork> {
    /// The single shard lives on the operator and runs on its thread.
    Local(W),
    /// Shards live on persistent worker threads.
    Pool(Pool<W>),
}

/// `S` shards of operator state plus the machinery to run tasks against
/// them. See the module docs for where the shards run.
pub struct ShardedState<W: ShardWork> {
    inner: Inner<W>,
    num_shards: usize,
}

impl<W: ShardWork> ShardedState<W> {
    /// Build from per-shard states (`shards.len()` = S ≥ 1). A single
    /// shard gains nothing from a worker, so it stays on the caller's
    /// thread and `Parallelism::Fixed(1)` cannot diverge from the serial
    /// path.
    pub fn new(mut shards: Vec<W>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let num_shards = shards.len();
        let inner = if num_shards == 1 {
            Inner::Local(shards.remove(0))
        } else {
            Inner::Pool(Pool::spawn(shards))
        };
        ShardedState { inner, num_shards }
    }

    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// Scatter `tasks` (one optional task per shard; `None` skips the
    /// shard) and gather the outputs in shard order. This is the fork-join
    /// barrier: it returns only when every dispatched shard has finished.
    ///
    /// A panicking shard worker surfaces as a typed [`DataError`] so a
    /// malformed frame can fail the query instead of hanging or poisoning
    /// the process.
    pub fn run(&mut self, tasks: Vec<Option<W::Task>>) -> Result<Vec<Option<W::Out>>> {
        debug_assert_eq!(tasks.len(), self.num_shards);
        match &mut self.inner {
            Inner::Local(shard) => Ok(tasks
                .into_iter()
                .map(|task| task.map(|t| shard.run(t)))
                .collect()),
            Inner::Pool(pool) => pool.run(tasks),
        }
    }
}

fn shard_panic_error() -> DataError {
    DataError::Invalid("shard worker panicked; query aborted".into())
}

struct Pool<W: ShardWork> {
    txs: Vec<mpsc::SyncSender<W::Task>>,
    results: mpsc::Receiver<(usize, std::thread::Result<W::Out>)>,
    handles: Vec<JoinHandle<()>>,
    /// Set after a worker panic or disconnect: the shard states may be
    /// inconsistent, so every further call fails fast.
    poisoned: bool,
}

impl<W: ShardWork> Pool<W> {
    fn spawn(shards: Vec<W>) -> Self {
        let (result_tx, results) = mpsc::channel();
        let mut txs = Vec::with_capacity(shards.len());
        let mut handles = Vec::with_capacity(shards.len());
        for (idx, mut shard) in shards.into_iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<W::Task>(POOL_TASK_CAPACITY);
            let result_tx = result_tx.clone();
            txs.push(tx);
            handles.push(std::thread::spawn(move || {
                while let Ok(task) = rx.recv() {
                    let out = catch_unwind(AssertUnwindSafe(|| shard.run(task)));
                    let died = out.is_err();
                    if result_tx.send((idx, out)).is_err() || died {
                        break; // operator dropped, or state is poisoned
                    }
                }
            }));
        }
        Pool {
            txs,
            results,
            handles,
            poisoned: false,
        }
    }

    fn run(&mut self, tasks: Vec<Option<W::Task>>) -> Result<Vec<Option<W::Out>>> {
        if self.poisoned {
            return Err(shard_panic_error());
        }
        let mut outs: Vec<Option<W::Out>> =
            std::iter::repeat_with(|| None).take(tasks.len()).collect();
        let mut pending = 0usize;
        for (tx, task) in self.txs.iter().zip(tasks) {
            if let Some(task) = task {
                // Bounded send: blocks (backpressure) while the shard is
                // still chewing on earlier tasks.
                if tx.send(task).is_err() {
                    self.poisoned = true;
                    return Err(shard_panic_error());
                }
                pending += 1;
            }
        }
        // Join-point: collect exactly the dispatched shards' results.
        for _ in 0..pending {
            match self.results.recv() {
                Ok((idx, Ok(out))) => outs[idx] = Some(out),
                Ok((_, Err(_))) | Err(_) => {
                    self.poisoned = true;
                    return Err(shard_panic_error());
                }
            }
        }
        Ok(outs)
    }
}

impl<W: ShardWork> Drop for Pool<W> {
    fn drop(&mut self) {
        self.txs.clear(); // disconnect: workers exit their recv loop
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler {
        total: i64,
    }

    impl ShardWork for Doubler {
        type Task = i64;
        type Out = i64;

        fn run(&mut self, task: i64) -> i64 {
            if task == i64::MIN {
                panic!("poison task");
            }
            self.total += task;
            self.total
        }
    }

    #[test]
    fn pool_scatter_gathers_in_shard_order() {
        let mut st = ShardedState::new(vec![Doubler { total: 0 }, Doubler { total: 100 }]);
        assert_eq!(st.num_shards(), 2);
        let outs = st.run(vec![Some(1), Some(2)]).unwrap();
        assert_eq!(outs, vec![Some(1), Some(102)]);
        // Skipped shards keep their state untouched.
        let outs = st.run(vec![None, Some(3)]).unwrap();
        assert_eq!(outs, vec![None, Some(105)]);
        let outs = st.run(vec![Some(0), Some(1)]).unwrap();
        assert_eq!(outs, vec![Some(1), Some(106)]);
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_hang() {
        let mut st = ShardedState::new(vec![Doubler { total: 0 }, Doubler { total: 0 }]);
        assert!(st.run(vec![Some(i64::MIN), Some(1)]).is_err());
        // Poisoned pool fails fast afterwards.
        assert!(st.run(vec![Some(1), None]).is_err());
    }

    struct SpilledPanicker {
        run: wake_store::RunWriter,
    }

    impl ShardWork for SpilledPanicker {
        type Task = bool;
        type Out = usize;

        fn run(&mut self, panic_now: bool) -> usize {
            if panic_now {
                panic!("mid-fold panic while holding spilled state");
            }
            self.run.chunk_count()
        }
    }

    #[test]
    fn mid_fold_panic_with_spilled_state_is_typed_and_leak_free() {
        // A worker that panics while its shard owns a *flushed* spill run
        // (the mid-fold-while-spilled case): the panic must surface as a
        // typed error, and dropping the state must delete the spill files
        // the panicking shard held.
        use std::sync::Arc;
        use wake_data::{DataFrame, Field, Schema};
        use wake_store::colfile::Chunk;
        use wake_store::{MemoryGovernor, RunWriter, SpillDir};
        let dir = Arc::new(SpillDir::new_temp().unwrap());
        let gov = Arc::new(MemoryGovernor::new(Some(1 << 20)));
        let root = dir.root().to_path_buf();
        let shard = |tag: &str| {
            let mut run = RunWriter::new(dir.clone(), gov.clone(), tag).with_flush_threshold(1);
            let schema = Arc::new(Schema::new(vec![Field::new(
                "x",
                wake_data::DataType::Int64,
            )]));
            run.push(&Chunk::frame_only(Arc::new(DataFrame::empty(schema))))
                .unwrap();
            SpilledPanicker { run }
        };
        let mut st = ShardedState::new(vec![shard("a"), shard("b")]);
        assert_eq!(root.read_dir().unwrap().count(), 2, "flushed");
        let err = st.run(vec![Some(true), Some(false)]).unwrap_err();
        assert!(matches!(err, DataError::Invalid(_)), "{err}");
        // Dropping the sharded state (workers join on drop) must release
        // every shard's run and delete its files.
        drop(st);
        assert_eq!(
            root.read_dir().unwrap().count(),
            0,
            "spill files leaked past a worker panic"
        );
    }

    #[test]
    fn single_shard_runs_on_the_caller() {
        let mut st = ShardedState::new(vec![Doubler { total: 0 }]);
        assert!(
            matches!(st.inner, Inner::Local(_)),
            "S=1 must not spawn workers"
        );
        assert_eq!(st.run(vec![Some(5)]).unwrap(), vec![Some(5)]);
    }
}
