//! `cargo run -p wake-tidy -- --check`
//!
//! Exit code 0 when the workspace is finding-free, 1 otherwise, with
//! one `rule: file:line: message` per finding. `--knob-table` prints
//! the `WAKE_*` registry as the markdown table embedded in ROADMAP.md.
//! `--loc [path-prefix]` prints non-test lines per crate (per file under
//! the prefix, when one is given): a number to quote, never a gate.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut knob_table = false;
    let mut list_rules = false;
    let mut loc: Option<Option<String>> = None;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => {}
            "--knob-table" => knob_table = true,
            "--list" => list_rules = true,
            "--loc" => loc = Some(it.next_if(|a| !a.starts_with("--")).cloned()),
            "--root" => root = it.next().map(PathBuf::from),
            other => {
                eprintln!("wake-tidy: unknown argument `{other}`");
                eprintln!("usage: wake-tidy [--check] [--knob-table] [--loc [prefix]] [--list] [--root <dir>]");
                return ExitCode::FAILURE;
            }
        }
    }

    if list_rules {
        for r in wake_tidy::rules::RULES {
            println!("{r}");
        }
        return ExitCode::SUCCESS;
    }

    let start = root
        .or_else(|| std::env::var_os("CARGO_MANIFEST_DIR").map(PathBuf::from))
        .or_else(|| std::env::current_dir().ok())
        .unwrap_or_else(|| PathBuf::from("."));
    let Some(root) = wake_tidy::find_root(&start) else {
        eprintln!(
            "wake-tidy: could not find the workspace root above {}",
            start.display()
        );
        return ExitCode::FAILURE;
    };

    let ws = match wake_tidy::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("wake-tidy: failed to read workspace: {e}");
            return ExitCode::FAILURE;
        }
    };

    if knob_table {
        print!("{}", ws.knob_table());
        return ExitCode::SUCCESS;
    }
    if let Some(prefix) = loc {
        print!("{}", ws.loc_table(prefix.as_deref()));
        return ExitCode::SUCCESS;
    }

    let findings = ws.check();
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!(
            "wake-tidy: {} files, {} rules, 0 findings",
            ws.files.len(),
            wake_tidy::rules::RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("wake-tidy: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
