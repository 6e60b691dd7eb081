//! `wake-e2e`: the repo's benchmark. Five workloads drive the engine
//! through its public streaming surface only; an untraced run reports
//! the paper's §8 metrics end to end, a traced run reports one budget
//! line per layer. See `README.md` next to the manifest.
//!
//! ```text
//! wake-e2e [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--sf F]
//! wake-e2e all    [--seed N] [--seconds S] [--sf F] [--check]
//! wake-e2e repeat [--seed N] [--seconds S] [--sf F]
//! wake-e2e --check
//! ```

mod library;
mod probes;
mod report;
mod runner;
mod serve;
mod setup;
mod stats;
mod trace;

use report::{format_value, json_array, Outcome, END_TO_END};
use runner::{run_workload, RunOpts};
use setup::{describe_config, Result, Sizing, WorkDir, Workload};
use std::process::ExitCode;
use std::time::Instant;
use wake_serve::json::Obj;

const USAGE: &str = "usage: wake-e2e [run] --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--sf F]\n       wake-e2e all|repeat [--seed N] [--seconds S] [--sf F]\n       \
wake-e2e --check\nworkloads: tpch.resident tpch.threaded tpch.spill tpch.wseg serve.closed2";

#[derive(Debug, PartialEq)]
enum Command {
    Run(Workload),
    All,
    Repeat,
}

#[derive(Debug, PartialEq)]
struct Args {
    command: Command,
    seed: u64,
    seconds: f64,
    traced: bool,
    sf: f64,
    check: bool,
}

fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let mut command = None;
    let mut workload = None;
    let mut out = Args {
        command: Command::All,
        seed: 42,
        seconds: 10.0,
        traced: false,
        sf: Sizing::FULL_SF,
        check: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "run" | "all" | "repeat" if command.is_none() => command = Some(arg.clone()),
            "--workload" => {
                let name = value("a workload name")?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => out.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                out.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?;
            }
            "--sf" => out.sf = value("a number")?.parse().map_err(|_| "bad --sf")?,
            "--trace" => {
                out.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--check" => out.check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(out.seconds >= 0.0 && out.sf > 0.0) {
        return Err("--seconds must be ≥ 0 and --sf > 0".into());
    }
    out.command = match (command.as_deref(), workload) {
        (Some("all"), None) => Command::All,
        (Some("repeat"), None) => Command::Repeat,
        (None, None) if out.check => Command::All,
        (Some("run") | None, Some(w)) => Command::Run(w),
        (Some("run") | None, None) => return Err("--workload is required".into()),
        _ => return Err("all and repeat take no --workload".into()),
    };
    if out.check {
        // The smoke size: small data, one set-up, one pass.
        out.sf = Sizing::CHECK_SF;
        out.seconds = 0.0;
    }
    Ok(out)
}

fn run_opts(args: &Args) -> RunOpts {
    RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        sizing: Sizing::for_sf(args.sf),
        setup_rounds: if args.check { 1 } else { 3 },
        min_passes: if args.check { 1 } else { 3 },
    }
}

/// The commit the numbers belong to, when the run happens in a git
/// checkout (read from `.git` in the working directory, no `git` call).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.chars().take(12).collect();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().chars().take(12).collect();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l.chars().take(12).collect())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The header of every report: what ran, where, with which settings.
fn describe_run(opts: &RunOpts) -> Vec<(&'static str, String)> {
    vec![
        ("git_rev", git_rev()),
        ("seed", opts.seed.to_string()),
        ("scale_factor", opts.sizing.sf.to_string()),
        ("partitions", opts.sizing.partitions.to_string()),
        ("nproc", nproc().to_string()),
        ("seconds", opts.seconds.to_string()),
        ("setup_rounds", opts.setup_rounds.to_string()),
        ("min_passes", opts.min_passes.to_string()),
    ]
}

fn print_header(opts: &RunOpts, workloads: &[Workload]) {
    let fields: Vec<String> = describe_run(opts)
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("wake-e2e {}", fields.join(" "));
    for &w in workloads {
        println!(
            "config {}: {}",
            w.name(),
            describe_config(w, &opts.sizing, opts.seed)
        );
    }
}

/// Write the record of everything this invocation ran; `tag` tells
/// one-workload runs apart.
fn write_report(opts: &RunOpts, work: &WorkDir, outcomes: &[Outcome], tag: &str) -> Result<()> {
    let mut header = Obj::new();
    for (k, v) in describe_run(opts) {
        header = header.str(k, &v);
    }
    let configs: Vec<String> = Workload::ALL
        .iter()
        .map(|&w| {
            Obj::new()
                .str("workload", w.name())
                .str("config", &describe_config(w, &opts.sizing, opts.seed))
                .build()
        })
        .collect();
    let runs: Vec<String> = outcomes.iter().map(Outcome::report_json).collect();
    let report = header
        .raw("configs", &json_array(&configs))
        .raw("runs", &json_array(&runs))
        .build();
    let path = work
        .out
        .join(format!("report-{}-{}{tag}.json", git_rev(), opts.seed));
    std::fs::write(&path, report + "\n")?;
    println!("report → {}", path.display());
    Ok(())
}

/// Every workload untraced (`traced = false`) or traced.
fn run_set(opts: &RunOpts, work: &WorkDir, traced: bool) -> Result<Vec<Outcome>> {
    let mut outcomes = Vec::new();
    for w in Workload::ALL {
        let outcome = run_workload(w, traced, opts, work, Instant::now())?;
        outcome.print();
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

fn all_correct(outcomes: &[Outcome]) -> bool {
    outcomes.iter().all(Outcome::correct)
}

/// `repeat`: the untraced set twice, same code, same seed; every
/// end-to-end metric × workload must agree within its own bound.
fn compare_sets(a: &[Outcome], b: &[Outcome]) -> bool {
    println!("== repeat · set A vs set B");
    println!(
        "{:<15} {:<18} {:>16} {:>16} {:>8} {:>6}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    let mut within = true;
    for (a, b) in a.iter().zip(b) {
        for def in END_TO_END {
            let (va, vb) = (a.metrics.get(def.name), b.metrics.get(def.name));
            let diff = stats::rel_diff(va, vb);
            let ok = diff <= def.bound;
            within &= ok;
            println!(
                "{:<15} {:<18} {:>16} {:>16} {:>7.2}% {:>5.0}% {}",
                a.workload,
                def.name,
                format_value(va),
                format_value(vb),
                diff * 100.0,
                def.bound * 100.0,
                if ok { "" } else { "EXCEEDS BOUND" }
            );
        }
    }
    within
}

fn execute(args: &Args, started: Instant) -> Result<bool> {
    let opts = run_opts(args);
    let work = WorkDir::create()?;
    // Per-query spill dirs are created under the system temp dir; keep
    // them inside the build output like everything else this program
    // writes. (An explicit `with_spill_dir` is one shared directory with
    // per-query file counters, which serve's concurrent queries would
    // collide in.)
    std::env::set_var("TMPDIR", work.tmp());
    match args.command {
        Command::Run(w) => {
            print_header(&opts, &[w]);
            let outcome = run_workload(w, args.traced, &opts, &work, started)?;
            outcome.print();
            let tag = format!("-{}-trace{}", w.name(), args.traced as u8);
            write_report(&opts, &work, std::slice::from_ref(&outcome), &tag)?;
            // The driver reads the last line of standard output.
            println!("{}", outcome.result_line());
            Ok(outcome.correct())
        }
        Command::All => {
            print_header(&opts, &Workload::ALL);
            let mut outcomes = run_set(&opts, &work, false)?;
            outcomes.extend(run_set(&opts, &work, true)?);
            write_report(&opts, &work, &outcomes, "")?;
            Ok(all_correct(&outcomes))
        }
        Command::Repeat => {
            print_header(&opts, &Workload::ALL);
            let a = run_set(&opts, &work, false)?;
            let b = run_set(&opts, &work, false)?;
            let within = compare_sets(&a, &b);
            let mut outcomes = a;
            outcomes.extend(b);
            write_report(&opts, &work, &outcomes, "-repeat")?;
            Ok(within && all_correct(&outcomes))
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wake-e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every engine knob falls back to an ambient WAKE_* variable when it
    // is not set explicitly; a stray one would change what is measured.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("WAKE_"))
    {
        eprintln!(
            "wake-e2e: refusing to run with {} set: the engine would read it",
            name.to_string_lossy()
        );
        return ExitCode::from(2);
    }
    match execute(&args, started) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("wake-e2e: failed operations (see FAILED lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("wake-e2e: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> std::result::Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn driver_form_and_subcommands_parse() {
        let a = parse("--workload tpch.spill --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.command, Command::Run(Workload::Spill));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        assert_eq!(a.sf, Sizing::FULL_SF);
        assert_eq!(
            parse("run --workload serve.closed2").unwrap().command,
            Command::Run(Workload::Serve)
        );
        assert_eq!(parse("all").unwrap().command, Command::All);
        assert_eq!(parse("repeat --seed 3").unwrap().command, Command::Repeat);
    }

    #[test]
    fn check_is_the_smoke_size_of_all() {
        let a = parse("--check").unwrap();
        assert_eq!(a.command, Command::All);
        assert_eq!((a.sf, a.seconds), (Sizing::CHECK_SF, 0.0));
        let opts = run_opts(&a);
        assert_eq!((opts.setup_rounds, opts.min_passes), (1, 1));
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(parse("").is_err());
        assert!(parse("--workload tpch").is_err());
        assert!(parse("all --workload tpch.spill").is_err());
        assert!(parse("--workload tpch.spill --trace 2").is_err());
        assert!(parse("--workload tpch.spill --seconds -1").is_err());
        assert!(parse("--workload tpch.spill --frobnicate").is_err());
    }
}
