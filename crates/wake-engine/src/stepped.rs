//! The deterministic inline driver of the query core ([`crate::query`]),
//! chosen by `EngineConfig::stepped()`.
//!
//! Sources are read one partition at a time, always advancing the source
//! with the lowest progress fraction (balanced interleaving, mimicking the
//! paper's concurrent readers deterministically). Every message the read
//! sets off is delivered on the polling thread before the step returns,
//! so the estimate stream is exactly reproducible — the property the
//! integration and property tests rely on.
//!
//! The driver is **pull-based**: its [`crate::EstimateStream`] performs one
//! driver step per poll. Nothing runs between polls, so an analyst loop
//! can stop after any estimate and pay for exactly the input consumed so
//! far; `collect_series` and friends drain the stream. Dropping the
//! stream abandons the query: operator state (and any spill files) is
//! released immediately.
//!
//! ## The run queue
//!
//! A step delivers messages in two FIFO classes: every pending `Update`
//! before the next `Eof`. Updates alone are a breadth-first walk of the
//! DAG from the reader; an EOF wave therefore sees each node's flush reach
//! all of its descendants before the next node in the wave is told its
//! input closed. The order in which a multi-input node (a join) meets its
//! two sides is part of the estimate stream, so it is fixed here rather
//! than left to queue position (one FIFO for both classes changes q21's
//! stream under a spilling budget).
//!
//! ## Reproducibility
//!
//! A run is fully reproducible *for a given shard count* regardless of
//! scheduling: hash-keyed nodes fold their shards behind a fork-join
//! barrier and merge partials in shard order ([`wake_core::ops::sharded`]).
//! The shard count itself changes observable-but-insignificant detail — a
//! sharded join emits its matches in shard-concat order, so a float
//! aggregate downstream may reassociate its sums — and
//! `Parallelism::Auto` resolves to the host's core count, so golden-value
//! tests and cross-machine reproductions should pin
//! `EngineConfig::with_parallelism(Parallelism::Fixed(n))` (`Fixed(1)`
//! runs everything on the polling thread, byte-identical to the
//! pre-sharding engine).

use crate::estimate::SinkState;
use crate::query::{Message, NodeActor, QueryLedger, ReaderActor, Target};
use crate::stream::Driver;
use crate::Result;
use std::collections::VecDeque;
use std::sync::Arc;

/// Messages emitted but not yet delivered, in the two classes the module
/// docs describe.
#[derive(Default)]
pub(crate) struct RunQueue {
    updates: VecDeque<(Target, Message)>,
    eofs: VecDeque<(Target, Message)>,
}

impl RunQueue {
    fn push(&mut self, target: Target, msg: Message) -> bool {
        match msg {
            Message::Update(..) => self.updates.push_back((target, msg)),
            Message::Eof(_) => self.eofs.push_back((target, msg)),
        }
        true
    }

    fn pop(&mut self) -> Option<(Target, Message)> {
        self.updates.pop_front().or_else(|| self.eofs.pop_front())
    }
}

/// The inline driver: each [`Driver::advance`] reads one partition from
/// the least-progressed source and delivers every message that sets off
/// on the calling thread.
pub(crate) struct InlineDriver {
    pub(crate) readers: Vec<ReaderActor>,
    pub(crate) nodes: Vec<Option<NodeActor>>,
    pub(crate) queue: RunQueue,
    pub(crate) ledger: Arc<QueryLedger>,
}

impl Driver for InlineDriver {
    fn advance(&mut self, sink: &mut SinkState) -> Result<()> {
        let InlineDriver {
            readers,
            nodes,
            queue,
            ledger,
        } = self;
        let Some(reader) = readers
            .iter_mut()
            .filter(|r| !r.done)
            .min_by(|a, b| a.progress().total_cmp(&b.progress()))
        else {
            sink.end();
            return Ok(());
        };
        reader.read_next(&mut |to, out| queue.push(to, out))?;
        while let Some((target, msg)) = queue.pop() {
            match (nodes.get_mut(target), msg) {
                (Some(Some(actor)), msg) => {
                    actor.handle(msg, &mut |to, out| queue.push(to, out))?;
                }
                // Past the last node is the sink collector. Its `Eof` needs
                // no handling: the step after the last read ends the stream.
                (None, Message::Update(_, update)) => sink.push(&update)?,
                _ => {}
            }
        }
        // The query-wide peak is a true simultaneous sample: every node's
        // buffered state at this partition boundary.
        let state = nodes.iter().flatten().map(|actor| actor.state_bytes).sum();
        ledger.observe_step(state);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::{EngineConfig, EstimateSeries};
    use std::sync::Arc;
    use wake_core::agg::AggSpec;
    use wake_core::graph::QueryGraph;
    use wake_data::{Column, DataFrame, DataType, Field, MemorySource, Schema, Value};
    use wake_expr::{col, lit_f64};
    use wake_obs::ObsLevel;

    fn source(n: i64, per_part: usize) -> MemorySource {
        let schema = Arc::new(Schema::new(vec![
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Float64),
        ]));
        let df = DataFrame::new(
            schema,
            vec![
                Column::from_i64((0..n).map(|i| i % 4).collect()),
                Column::from_f64((0..n).map(|i| i as f64).collect()),
            ],
        )
        .unwrap();
        MemorySource::from_frame("t", &df, per_part, vec![], None).unwrap()
    }

    fn run(g: QueryGraph) -> EstimateSeries {
        EngineConfig::stepped()
            .start(g)
            .unwrap()
            .collect_series()
            .unwrap()
    }

    #[test]
    fn simple_aggregation_converges_to_exact() {
        let mut g = QueryGraph::new();
        let r = g.read(source(100, 10));
        let a = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
        g.sink(a);
        let series = run(g);
        assert_eq!(series.len(), 10); // one estimate per partition
        assert!(series.last().unwrap().is_final);
        assert_eq!(series.last().unwrap().t, 1.0);
        // Exact: sum of 0..100 grouped by i % 4; group 0: 0+4+...+96.
        let f = &series.last().unwrap().frame;
        let expect: f64 = (0..100).filter(|i| i % 4 == 0).map(|i| i as f64).sum();
        assert_eq!(f.value(0, "s").unwrap(), Value::Float(expect));
        // Early estimates are within a sane band of the final answer.
        let early = series[0].frame.value(0, "s").unwrap().as_f64().unwrap();
        assert!(early > 0.0);
    }

    #[test]
    fn delta_sink_materialises_accumulated_state() {
        let mut g = QueryGraph::new();
        let r = g.read(source(30, 10));
        let f = g.filter(r, col("v").lt(lit_f64(15.0)));
        g.sink(f);
        let series = run(g);
        // Estimates are cumulative: last contains all 15 matching rows.
        assert_eq!(series.last().unwrap().frame.num_rows(), 15);
        assert!(series
            .windows(2)
            .all(|w| { w[0].frame.num_rows() <= w[1].frame.num_rows() }));
    }

    #[test]
    fn deep_query_runs_end_to_end() {
        // sum per key -> filter on the (mutable) sum -> global avg.
        let mut g = QueryGraph::new();
        let r = g.read(source(100, 25));
        let a1 = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "sv")]);
        let fl = g.filter(a1, col("sv").gt(lit_f64(0.0)));
        let a2 = g.agg(fl, vec![], vec![AggSpec::avg(col("sv"), "m")]);
        g.sink(a2);
        let series = run(g);
        let last = series.last().unwrap();
        // Exact: average of the four group sums = 4950/4.
        assert_eq!(
            last.frame.value(0, "m").unwrap(),
            Value::Float(4950.0 / 4.0)
        );
    }

    #[test]
    fn missing_sink_or_sources_error() {
        let g = QueryGraph::new();
        assert!(EngineConfig::stepped().start(g).is_err());
    }

    #[test]
    fn estimates_have_monotone_progress_and_time() {
        let mut g = QueryGraph::new();
        let r = g.read(source(50, 5));
        let a = g.agg(r, vec![], vec![AggSpec::count_star("n")]);
        g.sink(a);
        let series = run(g);
        assert!(series.windows(2).all(|w| w[0].t <= w[1].t));
        assert!(series.windows(2).all(|w| w[0].elapsed <= w[1].elapsed));
        assert!(series.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert!(series
            .windows(2)
            .all(|w| w[0].rows_processed <= w[1].rows_processed));
        assert_eq!(series.last().unwrap().rows_processed, 50);
    }

    #[test]
    fn lazy_stream_matches_drained_collect() {
        // Polling one estimate at a time must reproduce the drained
        // series exactly — same frames, progress, seq, finality.
        let build = || {
            let mut g = QueryGraph::new();
            let r = g.read(source(80, 8));
            let a = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
            g.sink(a);
            g
        };
        let collected = run(build());
        let mut stream = EngineConfig::stepped().start(build()).unwrap();
        let mut streamed = Vec::new();
        for est in &mut stream {
            streamed.push(est.unwrap());
        }
        assert_eq!(collected.len(), streamed.len());
        for (a, b) in collected.iter().zip(&streamed) {
            assert_eq!(a.frame.as_ref(), b.frame.as_ref());
            assert_eq!(a.t, b.t);
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.is_final, b.is_final);
            assert_eq!(a.rows_processed, b.rows_processed);
        }
    }

    /// Drain a run of `g` and draw its timeline.
    fn timeline_of(config: EngineConfig, g: QueryGraph) -> String {
        let mut stream = config.start(g).unwrap();
        for est in &mut stream {
            est.unwrap();
        }
        stream.timeline(60)
    }

    #[test]
    fn profile_timeline_draws_reads_and_operators_on_the_inline_driver() {
        let build = || {
            let mut g = QueryGraph::new();
            let r = g.read(source(100, 10));
            let a = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
            g.sink(a);
            g
        };
        let profiled = EngineConfig::stepped().with_obs(ObsLevel::Profile);
        let timeline = timeline_of(profiled, build());
        let lanes: Vec<&str> = timeline.lines().filter(|l| l.contains('|')).collect();
        let drawn: Vec<&str> = lanes.iter().map(|l| &l.trim_start()[..4]).collect();
        assert_eq!(drawn, ["Read", "Agg("], "{timeline}");
        assert!(lanes.iter().all(|l| l.contains('#')), "{timeline}");
        let stats = EngineConfig::stepped().with_obs(ObsLevel::Stats);
        assert!(timeline_of(stats, build()).starts_with("no timeline"));
    }

    #[test]
    fn dropping_stream_mid_query_releases_state() {
        let mut g = QueryGraph::new();
        let r = g.read(source(100, 5));
        let a = g.agg(r, vec!["k"], vec![AggSpec::sum(col("v"), "s")]);
        g.sink(a);
        let mut stream = EngineConfig::stepped().start(g).unwrap();
        let first = stream.next().unwrap().unwrap();
        assert!(!first.is_final);
        assert!(stream.stats().peak_state_bytes > 0);
        drop(stream); // no panic, operators and spill plan released
    }
}
