//! Fig 12: the impact of partition size (§8.7).
//!
//! Runs the paper's six representative queries — q4/q19/q21 (small merge
//! overhead) and q13/q15/q22 (large group counts ⇒ heavy merge) — across
//! a geometric sweep of partition sizes and reports each query's
//! final-result latency as a multiple of its own best ("slowdown"), which
//! is exactly how Fig 12 is normalised.

use wake_bench::{dataset, fmt_dur, run_wake};
use wake_tpch::{query_by_name, TpchDb};

fn main() {
    let data = dataset();
    // Partition-count sweep stands in for the 128MB..2048MB byte sizes:
    // doubling partition size = halving partition count.
    let partition_counts = [96usize, 48, 24, 12, 6];
    let queries = ["q4", "q19", "q21", "q13", "q15", "q22"];
    println!("Fig 12 — final-result latency vs partition size (as slowdown over best)\n");
    print!("{:>14}", "partitions:");
    for p in partition_counts {
        print!("  {p:>8}");
    }
    println!("\n{:>14}", "(bigger partitions ->)");

    for q in queries {
        let spec = query_by_name(q).unwrap();
        let mut finals = Vec::new();
        let mut firsts = Vec::new();
        for &parts in &partition_counts {
            let db = TpchDb::new(data.clone(), parts);
            let run = run_wake((spec.build)(&db));
            finals.push(run.final_latency().as_secs_f64());
            firsts.push(run.first_latency().as_secs_f64());
        }
        let best = finals.iter().cloned().fold(f64::INFINITY, f64::min);
        print!("{q:>10} fin:");
        for f in &finals {
            print!("  {:>7.2}x", f / best);
        }
        println!();
        print!("{:>10} 1st:", "");
        for f in &firsts {
            print!("  {:>8}", fmt_dur(std::time::Duration::from_secs_f64(*f)));
        }
        println!();
    }
    println!("\nExpected shape (paper §8.7): merge-heavy queries (q13,q15,q22) get");
    println!("faster with larger partitions (fewer merges); merge-light queries");
    println!("(q4,q19,q21) are flat; first-result latency grows with partition size.");
}
