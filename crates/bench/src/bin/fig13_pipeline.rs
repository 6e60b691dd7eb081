//! Fig 13 (appendix C): pipelined execution timeline of Q6.
//!
//! Runs Q6 on the multi-threaded engine with tracing and renders one lane
//! per operator: read(lineitem) -> filter -> map -> agg, overlapping in
//! time — the pipelining that §7/appendix C credit for Wake's competitive
//! total latency.

use wake_bench::{dataset, partitions};
use wake_engine::{EngineConfig, TraceLog};
use wake_tpch::{query_by_name, TpchDb};

fn main() {
    let data = dataset();
    let db = TpchDb::new(data, partitions());
    let spec = query_by_name("q6").unwrap();
    let log = TraceLog::new();
    let series = EngineConfig::threaded()
        .with_trace(log.clone())
        .start((spec.build)(&db))
        .unwrap()
        .collect_series()
        .unwrap();
    println!(
        "Fig 13 — pipelined execution of Q6 ({} estimates, {} trace events)\n",
        series.len(),
        log.events().len()
    );
    print!("{}", log.render(80));
    println!("\nEach '#' marks a span where that operator was processing a message;");
    println!("overlapping lanes = pipeline parallelism across reader, filter, map, agg.");
}
