//! The pipelined thread-per-actor driver of the query core
//! ([`crate::query`], §7.2, Fig 6), chosen by `EngineConfig::threaded()`.
//!
//! ## Pipeline parallelism (across nodes)
//!
//! Each actor runs on its own OS thread. Edges are **bounded** crossbeam
//! channels carrying [`Message`]s whose frames are shared pointers (no
//! payload copies across threads, §7.3). A reader thread fetches its
//! partitions — so I/O, decoding, joins, and aggregation all overlap — and
//! finishes with EOF; every operator node forwards EOF once all of its
//! input ports have closed, then terminates.
//!
//! Bounded edges give backpressure: a fast reader feeding a slow aggregate
//! blocks once `EngineConfig::with_channel_capacity` updates are in
//! flight instead of buffering the whole table in mailboxes. The graph is a
//! DAG and every node drains its mailbox continuously, so blocking sends
//! cannot deadlock.
//!
//! ## Cancellation
//!
//! **Dropping the stream cancels the query**: a shared cancel flag plus
//! the collapse of the sink channel make every node exit at its next
//! message — a send to a disconnected mailbox fails, the failure cascades
//! producer-ward as each exiting node drops its own receiver, and blocked
//! (backpressured) senders are woken by the disconnect. The drop handler
//! then joins every actor thread, so no threads leak and all operator
//! state — shard workers, spill files and their temp directory — is
//! released before `drop` returns.
//!
//! ## Partition parallelism (within a node)
//!
//! Hash-keyed nodes split their state into `S` hash-range shards on
//! persistent workers; the node thread is a cheap splitter and a
//! join-point barrier collects per-shard partials in shard order, so the
//! emission and EOF protocol are those of the unsharded operators. See
//! [`wake_core::ops::sharded`]; it is the same under either driver.

use crate::estimate::SinkState;
use crate::query::{Message, NodeActor, QueryLedger, ReaderActor, Target};
use crate::stream::Driver;
use crate::Result;
use crossbeam::channel::{bounded, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use wake_data::DataError;

/// Default per-edge mailbox capacity (in-flight updates, not rows): small
/// enough that a stalled consumer stops its producers quickly, large enough
/// to keep the pipeline busy across scheduling jitter.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 8;

/// The thread-per-actor driver: one OS thread per actor, one bounded
/// mailbox per operator node plus one for the sink collector, which
/// [`Driver::advance`] receives from.
pub(crate) struct ThreadDriver {
    sink_rx: Option<Receiver<Message>>,
    handles: Vec<JoinHandle<Result<()>>>,
    ledger: Arc<QueryLedger>,
}

impl ThreadDriver {
    pub(crate) fn spawn(
        readers: Vec<ReaderActor>,
        nodes: Vec<Option<NodeActor>>,
        channel_capacity: usize,
        ledger: Arc<QueryLedger>,
    ) -> Self {
        // One mailbox per target; the last is the sink collector's.
        let (txs, rxs): (Vec<Sender<Message>>, Vec<Receiver<Message>>) =
            (0..=nodes.len()).map(|_| bounded(channel_capacity)).unzip();
        // An actor holds senders to its own consumers only: that is what
        // lets a consumer's exit disconnect its mailbox and cascade the
        // shutdown producer-ward.
        let emitter = |routes: &[(Target, usize)]| {
            let outbox: Vec<(Target, Sender<Message>)> = routes
                .iter()
                .filter_map(|&(target, _)| Some((target, txs.get(target)?.clone())))
                .collect();
            move |target: Target, msg: Message| {
                let tx = outbox.iter().find(|(t, _)| *t == target);
                tx.is_some_and(|(_, tx)| tx.send(msg).is_ok())
            }
        };
        let mut handles = Vec::new();
        for mut reader in readers {
            let (mut emit, ledger) = (emitter(&reader.routes), ledger.clone());
            handles.push(std::thread::spawn(move || -> Result<()> {
                while !ledger.cancel.is_cancelled() && reader.read_next(&mut emit)? {}
                Ok(())
            }));
        }
        let mut rxs = rxs.into_iter();
        for (actor, rx) in nodes.into_iter().zip(&mut rxs) {
            let Some(mut actor) = actor else { continue }; // a reader: no mailbox
            let (mut emit, ledger) = (emitter(&actor.routes), ledger.clone());
            handles.push(std::thread::spawn(move || -> Result<()> {
                while let Ok(msg) = rx.recv() {
                    if ledger.cancel.is_cancelled() || !actor.handle(msg, &mut emit)? {
                        break;
                    }
                }
                Ok(())
            }));
        }
        ThreadDriver {
            sink_rx: rxs.next(),
            handles,
            ledger,
        }
    }
}

impl Driver for ThreadDriver {
    fn advance(&mut self, sink: &mut SinkState) -> Result<()> {
        match self.sink_rx.as_ref().map(|rx| rx.recv()) {
            Some(Ok(Message::Update(_, update))) => sink.push(&update),
            // EOF from the sink node, or every sender gone (a node
            // failed): either way the pipeline is winding down. Join it;
            // a node error outranks any held-back estimate.
            _ => {
                self.shutdown()?;
                sink.end();
                Ok(())
            }
        }
    }

    /// Stop the query now: signal cancellation, unblock the pipeline and
    /// join every actor thread. Idempotent; called by `Drop` as well.
    fn shutdown(&mut self) -> Result<()> {
        self.ledger.cancel.cancel();
        // Disconnecting the collector makes the sink node's next send
        // fail; the failure cascades producer-ward and wakes blocked
        // (backpressured) senders.
        self.sink_rx = None;
        let mut first_err: Option<DataError> = None;
        for h in self.handles.drain(..) {
            match h.join() {
                Err(_) => {
                    first_err
                        .get_or_insert_with(|| DataError::Invalid("node thread panicked".into()));
                }
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Ok(Ok(())) => {}
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

impl Drop for ThreadDriver {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineConfig, EstimateSeries};
    use std::sync::Arc;
    use wake_core::agg::AggSpec;
    use wake_core::graph::QueryGraph;
    use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema, Value};
    use wake_expr::col;

    fn source(n: i64, per_part: usize) -> MemorySource {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let df = DataFrame::new(
            schema,
            vec![
                Column::from_i64((0..n).map(|i| i % 5).collect()),
                Column::from_f64((0..n).map(|i| (i * 3 % 17) as f64).collect()),
            ],
        )
        .unwrap();
        MemorySource::from_frame("t", &df, per_part, vec![], None).unwrap()
    }

    fn agg_graph(n: i64, per_part: usize) -> QueryGraph {
        let mut g = QueryGraph::new();
        let r = g.read(source(n, per_part));
        let a = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
        let s = g.sort(a, vec!["k"], vec![false], None);
        g.sink(s);
        g
    }

    fn run(config: EngineConfig, g: QueryGraph) -> EstimateSeries {
        config.start(g).unwrap().collect_series().unwrap()
    }

    #[test]
    fn threaded_final_state_matches_stepped() {
        let threaded = run(EngineConfig::threaded(), agg_graph(200, 16));
        let stepped = run(EngineConfig::stepped(), agg_graph(200, 16));
        let tf = &threaded.last().unwrap().frame;
        let sf = &stepped.last().unwrap().frame;
        assert_eq!(tf.as_ref(), sf.as_ref());
        assert!(threaded.last().unwrap().is_final);
    }

    #[test]
    fn produces_multiple_estimates() {
        let series = run(EngineConfig::threaded(), agg_graph(100, 10));
        assert!(
            series.len() >= 2,
            "expected pipelined intermediate estimates"
        );
        assert!(series.windows(2).all(|w| w[0].elapsed <= w[1].elapsed));
    }

    #[test]
    fn trace_captures_pipeline_activity() {
        let log = crate::TraceLog::new();
        let series = run(
            EngineConfig::threaded().with_trace(log.clone()),
            agg_graph(100, 10),
        );
        assert!(!series.is_empty());
        let events = log.events();
        assert!(events.iter().any(|e| e.label.starts_with("read")));
        assert!(events.iter().any(|e| e.label.starts_with("Agg")));
    }

    #[test]
    fn join_pipeline_multi_threaded() {
        // Two sources joined then aggregated — exercises per-port EOF.
        let build = || {
            let mut g = QueryGraph::new();
            let l = g.read(source(120, 30));
            let r = g.read(source(60, 20));
            let j = g.join(l, r, vec!["k"], vec!["k"]);
            let a = g.agg(j, vec![], vec![AggSpec::count_star("n")]);
            g.sink(a);
            g
        };
        let threaded = run(EngineConfig::threaded(), build());
        let stepped = run(EngineConfig::stepped(), build());
        let t_last = threaded.last().unwrap().frame.value(0, "n").unwrap();
        let s_last = stepped.last().unwrap().frame.value(0, "n").unwrap();
        assert_eq!(t_last, s_last);
        assert!(matches!(t_last, Value::Float(f) if f > 0.0));
    }

    #[test]
    fn empty_graph_errors() {
        let g = QueryGraph::new();
        assert!(EngineConfig::threaded().start(g).is_err());
    }

    #[test]
    fn tiny_channel_capacity_applies_backpressure_without_deadlock() {
        // Capacity 1 forces producers to block on every in-flight update;
        // the run must still complete with the reference answer.
        let constrained = run(
            EngineConfig::threaded().with_channel_capacity(1),
            agg_graph(200, 4),
        );
        let stepped = run(EngineConfig::stepped(), agg_graph(200, 4));
        assert_eq!(
            constrained.last().unwrap().frame.as_ref(),
            stepped.last().unwrap().frame.as_ref()
        );
        // Join pipelines (two racing producers) must also drain cleanly.
        let build = || {
            let mut g = QueryGraph::new();
            let l = g.read(source(120, 10));
            let r = g.read(source(60, 5));
            let j = g.join(l, r, vec!["k"], vec!["k"]);
            let a = g.agg(j, vec![], vec![AggSpec::count_star("n")]);
            g.sink(a);
            g
        };
        let tight = run(EngineConfig::threaded().with_channel_capacity(1), build());
        let reference = run(EngineConfig::stepped(), build());
        assert_eq!(
            tight.last().unwrap().frame.value(0, "n").unwrap(),
            reference.last().unwrap().frame.value(0, "n").unwrap()
        );
    }

    #[test]
    fn dropping_stream_mid_query_joins_all_threads() {
        // Take one estimate, then drop: the shutdown cascade must reach
        // every node (drop joins the handles, so a hang here is a test
        // timeout, not a silent leak).
        let mut stream = EngineConfig::threaded().start(agg_graph(5_000, 8)).unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(!first.is_final);
        drop(stream);
    }

    #[test]
    fn exhausted_stream_reports_stats_and_fuses() {
        let mut stream = EngineConfig::threaded().start(agg_graph(200, 16)).unwrap();
        let mut count = 0;
        let mut last_final = false;
        for est in &mut stream {
            let est = est.unwrap();
            last_final = est.is_final;
            count += 1;
        }
        assert!(count >= 1);
        assert!(last_final);
        assert!(stream.next().is_none(), "exhausted stream must fuse");
        assert!(stream.stats().peak_state_bytes > 0);
    }
}
