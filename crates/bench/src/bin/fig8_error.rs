//! Fig 8 + §8.3: Wake's approximation error over time.
//!
//! Prints MAPE/recall time-series for the paper's three representative
//! error categories — Q8 (low-cardinality non-clustered group-by), Q18
//! (clustered group-by: exact values, growing recall), Q21 (diverse keys:
//! fast recall, slower MAPE) — then the §8.3 all-query summary: median
//! first-estimate error and time-to-<1 %-error speedup vs the exact
//! engine's final answer.

use wake_bench::{
    dataset, error_series, fmt_dur, partitions, run_exact, run_wake, time_to_error_below,
};
use wake_stats::summary;
use wake_tpch::{all_queries, query_by_name, TpchDb};

fn main() {
    let data = dataset();
    let db = TpchDb::new(data.clone(), partitions());

    for name in ["q8", "q18", "q21"] {
        let spec = query_by_name(name).unwrap();
        let run = run_wake((spec.build)(&db));
        let errors = error_series(&run, &spec);
        println!("--- {} (time-series of estimates) ---", spec.name);
        println!(
            "{:>9}  {:>8}  {:>10}  {:>8}",
            "elapsed", "t", "MAPE%", "recall%"
        );
        for (t, elapsed, report) in &errors {
            println!(
                "{:>9}  {:>7.1}%  {:>10.4}  {:>8.2}",
                fmt_dur(*elapsed),
                t * 100.0,
                report.mape,
                report.recall * 100.0
            );
        }
        println!();
    }

    println!("--- §8.3 summary over all 22 queries ---");
    let mut first_errors = Vec::new();
    let mut under1_speedups = Vec::new();
    for spec in all_queries() {
        let run = run_wake((spec.build)(&db));
        let errors = error_series(&run, &spec);
        // First estimate that actually contains data.
        if let Some((_, _, r)) = errors.iter().find(|(_, _, r)| r.recall > 0.0) {
            first_errors.push(r.mape);
        }
        let exact = run_exact(&data, &spec);
        if let Some(t_under1) = time_to_error_below(&errors, 1.0) {
            let base = exact.final_latency().as_secs_f64();
            under1_speedups.push(base / t_under1.as_secs_f64().max(1e-9));
        }
        let first = errors.iter().find(|(_, _, r)| r.recall > 0.0);
        println!(
            "  {:>4}: first-estimate MAPE {:>9.4}%  recall {:>6.1}%  <1%-error at {}",
            spec.name,
            first.map(|(_, _, r)| r.mape).unwrap_or(f64::NAN),
            first.map(|(_, _, r)| r.recall * 100.0).unwrap_or(0.0),
            time_to_error_below(&errors, 1.0)
                .map(fmt_dur)
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!(
        "\n  median first-estimate MAPE (paper: 2.70%)          : {:.2}%",
        summary::median(&first_errors).unwrap_or(f64::NAN)
    );
    println!(
        "  mean <1%-error speedup vs exact final (paper 3.17x) : {:.2}x ({} of 22 queries reach <1% early)",
        summary::mean(&under1_speedups).unwrap_or(f64::NAN),
        under1_speedups.len(),
    );
}
