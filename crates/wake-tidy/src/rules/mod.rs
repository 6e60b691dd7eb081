//! The rule engine: each rule walks the lexed workspace and reports
//! findings through [`Ctx::report`], which consults the inline
//! `tidy-allow` entries (and records which entries earned their keep —
//! stale allows are findings too).

mod atomics;
pub mod env_registry;
mod hostile_len;
mod panic_path;
mod typed_error;
mod vendor_drift;

use crate::{Finding, Workspace};

/// Names of every active rule, for `--list` and the allowlist sanity
/// check (an allow naming an unknown rule can never be used).
pub const RULES: &[&str] = &[
    panic_path::RULE,
    hostile_len::RULE,
    atomics::RULE,
    env_registry::RULE,
    typed_error::RULE,
    vendor_drift::RULE,
];

pub struct Ctx<'a> {
    pub ws: &'a Workspace,
    pub out: &'a mut Vec<Finding>,
    /// used[file][allow] — marked when an allow suppresses a finding.
    pub used: &'a mut Vec<Vec<bool>>,
}

impl Ctx<'_> {
    /// Report a violation in file `fi` unless an allow entry covers it;
    /// a covering allow is marked used instead.
    pub fn report(&mut self, fi: usize, line: usize, rule: &'static str, msg: String) {
        let file = &self.ws.files[fi];
        if let Some(ai) = file.allow_for(rule, line) {
            self.used[fi][ai] = true;
            return;
        }
        self.out.push(Finding {
            path: file.path.clone(),
            line,
            rule,
            msg,
        });
    }

    /// Report a violation at a location outside the lexed files (the
    /// registry file, ROADMAP.md) — no allowlisting there.
    pub fn report_raw(&mut self, path: &str, line: usize, rule: &'static str, msg: String) {
        self.out.push(Finding {
            path: path.to_string(),
            line,
            rule,
            msg,
        });
    }
}

pub fn run_all(ws: &Workspace, out: &mut Vec<Finding>, used: &mut Vec<Vec<bool>>) {
    let mut ctx = Ctx { ws, out, used };
    panic_path::run(&mut ctx);
    hostile_len::run(&mut ctx);
    atomics::run(&mut ctx);
    env_registry::run(&mut ctx);
    typed_error::run(&mut ctx);
    vendor_drift::run(&mut ctx);
}
