//! Fig 13 (appendix C): pipelined execution timeline of Q6.
//!
//! Runs Q6 on the multi-threaded engine at `ObsLevel::Profile` and renders
//! one lane per plan node: Read(lineitem) -> Filter -> Map -> Agg,
//! overlapping in time — the pipelining that §7/appendix C credit for
//! Wake's competitive total latency.

use wake_bench::{dataset, partitions};
use wake_engine::{EngineConfig, ObsLevel};
use wake_tpch::{query_by_name, TpchDb};

fn main() {
    let data = dataset();
    let db = TpchDb::new(data, partitions());
    let spec = query_by_name("q6").unwrap();
    let mut stream = EngineConfig::threaded()
        .with_obs(ObsLevel::Profile)
        .start((spec.build)(&db))
        .unwrap();
    let estimates: Vec<_> = (&mut stream).collect::<Result<_, _>>().unwrap();
    let n = estimates.len();
    println!("Fig 13 — pipelined execution of Q6 ({n} estimates)\n");
    print!("{}", stream.timeline(80));
    println!("\nEach '#' marks a span where that operator was processing a message;");
    println!("overlapping lanes = pipeline parallelism across reader, filter, map, agg.");
}
