//! Bounded-memory quickstart: run a high-cardinality query under a byte
//! budget and watch the engine spill instead of growing without limit.
//!
//! ```sh
//! cargo run --release --example bounded_memory
//! # or drive any program through the spill path ambiently:
//! WAKE_MEM_BUDGET=8m cargo run --release --example quickstart
//! # tune the write-behind delta log (0 = compact on every fold):
//! WAKE_MEM_BUDGET=8m WAKE_SPILL_DELTA_RATIO=0.25 cargo run --release --example quickstart
//! # keep the spill files on a disk of your choosing:
//! WAKE_MEM_BUDGET=8m WAKE_SPILL_DIR=/mnt/scratch cargo run --release --example quickstart
//! ```
//!
//! Spilled group-by partitions keep a **write-behind delta log**: a fold
//! into an evicted partition appends only the touched groups' updated
//! states, and the partition is rewritten (compacted) only once its
//! delta run exceeds `spill_delta_ratio` × its base
//! (`EngineConfig::with_spill_delta_ratio`, default 0.5). The knob trades
//! fold-time spill writes against replay work — estimates are
//! bit-identical at any setting; `RunStats.spill` reports how often each
//! side fired (`delta_bytes`, `delta_chunks`, `compactions`).

use std::sync::Arc;
use wake::prelude::*;
use wake::session::Session;

fn main() {
    // A skinny fact table with many distinct keys — the shape that makes
    // resident group-by state balloon.
    let n: i64 = 400_000;
    let schema = Arc::new(Schema::new(vec![
        Field::new("user_id", DataType::Int64),
        Field::new("amount", DataType::Float64),
    ]));
    let frame = DataFrame::new(
        schema,
        vec![
            Column::from_i64((0..n).map(|i| (i * 7) % (n / 4)).collect()),
            Column::from_f64((0..n).map(|i| (i % 997) as f64 * 0.25).collect()),
        ],
    )
    .unwrap();
    let source = MemorySource::from_frame("events", &frame, 20_000, vec![], None).unwrap();

    // Unbounded reference: the whole hash table stays in RAM.
    let mut unbounded = Session::new();
    let reference = unbounded
        .read(MemorySource::from_frame("events", &frame, 20_000, vec![], None).unwrap())
        .sum("amount", &["user_id"], "total")
        .sort(&["total"], &[true])
        .limit(5)
        .get_final()
        .unwrap();

    // The same query under a 256 KiB budget: the group-by splits its
    // state into hash partitions and evicts the largest to checksummed
    // spill files whenever it exceeds its slice; snapshots merge the
    // resident and on-disk partitions back together. Same answer,
    // bounded footprint.
    let mut bounded = Session::new();
    bounded.configure(|c| c.with_memory_budget(256 << 10));
    // Write-behind delta log: let a spilled partition's delta run grow to
    // a quarter of its base before compacting it back (0.0 would rewrite
    // the whole partition on every fold). Purely an I/O policy — every
    // estimate stays bit-identical.
    bounded.configure(|c| c.with_spill_delta_ratio(0.25));
    let q = bounded
        .read(source)
        .sum("amount", &["user_id"], "total")
        .sort(&["total"], &[true])
        .limit(5);
    let (series, stats) = q.collect_stats().unwrap();
    let top = series.last().unwrap().frame.clone();

    println!("top spenders (bounded memory):\n{top}");
    println!(
        "spill telemetry: {} bytes written ({} evictions, {} rehydrations), \
         {} delta bytes in {} appends, {} compactions",
        stats.spill.spilled_bytes,
        stats.spill.evictions,
        stats.spill.rehydrations,
        stats.spill.delta_bytes,
        stats.spill.delta_chunks,
        stats.spill.compactions
    );
    // Robustness telemetry: transient spill-device errors are retried
    // with backoff (`EngineConfig::with_spill_retries`, default 2);
    // a persistently failing device degrades the query to
    // memory-resident execution instead of killing it — same exact
    // answer, budget suspended (`WAKE_SPILL_ENOSPC_AFTER` simulates a
    // full disk to try this out).
    println!(
        "spill I/O: {} retries, degraded to resident execution: {}",
        stats.spill.io_retries, stats.degraded
    );
    assert_eq!(
        reference.as_ref(),
        top.as_ref(),
        "spilling must not change answers"
    );
    println!("bounded == unbounded: OK");
}
