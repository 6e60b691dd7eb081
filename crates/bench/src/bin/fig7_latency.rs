//! Fig 7 + §8.2: per-query latency of a conventional exact engine versus
//! Wake's first estimate and Wake's exact final answer, plus the §8.2
//! summary medians (first-estimate speedup, final-result slowdown, peak
//! operator memory).

use wake_bench::{dataset, fmt_bytes, fmt_dur, partitions, run_exact, run_wake, scale_factor};
use wake_stats::summary;
use wake_tpch::{all_queries, TpchDb};

fn main() {
    let data = dataset();
    let db = TpchDb::new(data.clone(), partitions());
    println!(
        "Fig 7 — TPC-H SF {} ({} lineitem rows, {} partitions); times per query",
        scale_factor(),
        data.lineitem.num_rows(),
        partitions()
    );
    println!(
        "{:>4}  {:>10}  {:>10}  {:>10}  {:>9}  {:>8}  {:>10}  {:>10}",
        "qry", "exact", "wake-first", "wake-final", "estimates", "speedup", "slowdown", "peak-mem"
    );
    let mut speedups = Vec::new();
    let mut slowdowns = Vec::new();
    let mut mems = Vec::new();
    for spec in all_queries() {
        let exact = run_exact(&data, &spec);
        let wake = run_wake((spec.build)(&db));
        let exact_s = exact.final_latency().as_secs_f64();
        let first_s = wake.first_latency().as_secs_f64().max(1e-9);
        let final_s = wake.final_latency().as_secs_f64().max(1e-9);
        let speedup = exact_s / first_s;
        let slowdown = final_s / exact_s.max(1e-9);
        speedups.push(speedup);
        slowdowns.push(slowdown);
        mems.push(wake.stats.peak_state_bytes as f64);
        println!(
            "{:>4}  {:>10}  {:>10}  {:>10}  {:>9}  {:>7.2}x  {:>9.2}x  {:>10}",
            spec.name,
            fmt_dur(exact.final_latency()),
            fmt_dur(wake.first_latency()),
            fmt_dur(wake.final_latency()),
            wake.series.len(),
            speedup,
            slowdown,
            fmt_bytes(wake.stats.peak_state_bytes),
        );
    }
    println!("\n§8.2 summary (paper: first estimates 4.93x faster than exact");
    println!("systems' final answers, median; 1.3x median slowdown to exact):");
    println!(
        "  median first-estimate speedup vs exact-final : {:>6.2}x",
        summary::median(&speedups).unwrap()
    );
    println!(
        "  median final-result slowdown vs exact        : {:>6.2}x",
        summary::median(&slowdowns).unwrap()
    );
    println!(
        "  median peak operator state                    : {}",
        fmt_bytes(summary::median(&mems).unwrap() as usize)
    );
}
