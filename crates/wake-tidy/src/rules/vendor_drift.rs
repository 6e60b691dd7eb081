//! `vendor-drift`: vendored stand-ins expose no unused public API.
//!
//! Contract of origin: PR 1 vendored offline stand-ins for
//! rand/crossbeam/criterion (since deleted)/proptest/parking_lot under
//! `crates/vendor/` with the explicit promise that each is "the API
//! subset this workspace uses" — so that swapping back to the crates.io
//! versions is a manifest change, not a port. The subset stays honest only if it
//! can't grow silently: a `pub` item added to a vendor crate that
//! nothing in the workspace references is drift — either dead weight or
//! the start of a private fork of the upstream API.
//!
//! For every `pub` item (`fn`, `struct`, `enum`, `trait`, `type`,
//! `const`, `static`, `mod`, `union`) and every `macro_rules!` defined
//! under `crates/vendor/*/src/`, the item's name must appear as an
//! identifier somewhere outside the defining vendor crate (the rest of
//! the workspace, other vendor crates, tests, examples).
//! `pub(crate)`/`pub(super)` items are internal and exempt, as is
//! test-gated code. A deliberate extra (e.g. API kept for parity with
//! upstream's docs) takes a `tidy-allow` naming the upstream it mirrors.

use super::Ctx;
use crate::lexer::TokenKind;
use std::collections::BTreeSet;

pub const RULE: &str = "vendor-drift";

const ITEM_KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
];

/// `crates/vendor/<crate>/...` → `<crate>`.
fn vendor_crate(path: &str) -> Option<&str> {
    path.strip_prefix("crates/vendor/")?.split('/').next()
}

pub fn run(ctx: &mut Ctx) {
    // Pass 1: identifier usage. Outside the defining vendor crate, any
    // mention counts (method calls, type annotations, macro
    // invocations). *Inside* the defining crate, only type/value
    // positions count — a mention right after an item keyword is the
    // definition itself, and one after `.` is a call to some method
    // that happens to share the name (e.g. the std method a stand-in
    // wraps). This keeps API that exists only to be *returned* (error
    // types in signatures, traits used as bounds) from being flagged,
    // while an item referenced nowhere at all still is.
    let mut used_outside: Vec<(Option<String>, BTreeSet<String>)> = Vec::new();
    let mut used_inside: Vec<(Option<String>, BTreeSet<String>)> = Vec::new();
    const DEF_KEYWORDS: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "union",
    ];
    for file in &ctx.ws.files {
        let owner = vendor_crate(&file.path).map(|s| s.to_string());
        let mut any = BTreeSet::new();
        let mut positional = BTreeSet::new();
        for ci in 0..file.n_code() {
            let Some(name) = file.tok(ci).kind.ident() else {
                continue;
            };
            any.insert(name.to_string());
            let prev = ci.checked_sub(1).map(|p| &file.tok(p).kind);
            let is_def = matches!(prev, Some(k) if k.ident().is_some_and(|s| DEF_KEYWORDS.contains(&s)))
                || matches!(prev, Some(k) if k.is_punct('!'))
                || matches!(prev, Some(k) if k.is_punct('.'));
            if !is_def {
                positional.insert(name.to_string());
            }
        }
        used_outside.push((owner.clone(), any));
        used_inside.push((owner, positional));
    }
    let used_by_others = |owner: &str, name: &str| -> bool {
        used_outside
            .iter()
            .any(|(o, ids)| o.as_deref() != Some(owner) && ids.contains(name))
            || used_inside
                .iter()
                .any(|(o, ids)| o.as_deref() == Some(owner) && ids.contains(name))
    };

    // Pass 2: pub items in vendor crates.
    for fi in 0..ctx.ws.files.len() {
        let file = &ctx.ws.files[fi];
        let Some(owner) = vendor_crate(&file.path).map(|s| s.to_string()) else {
            continue;
        };
        let n = file.n_code();
        let mut hits: Vec<(usize, String)> = Vec::new();
        for i in 0..n {
            let t = file.tok(i);
            if file.is_test_line(t.line) {
                continue;
            }
            match &t.kind {
                TokenKind::Ident(kw) if kw == "pub" => {
                    // Skip restricted visibility: `pub(crate)` etc.
                    let mut j = i + 1;
                    if j < n && file.tok(j).kind.is_punct('(') {
                        continue;
                    }
                    // Skip modifiers (`unsafe`, `async`, `extern "C"`).
                    while j < n
                        && matches!(
                            file.tok(j).kind.ident(),
                            Some("unsafe") | Some("async") | Some("extern")
                        )
                    {
                        j += 1;
                        if j < n && matches!(file.tok(j).kind, TokenKind::Str(_)) {
                            j += 1; // the ABI string of `extern "C"`
                        }
                    }
                    let Some(kind) = file.tok(j).kind.ident() else {
                        continue;
                    };
                    if !ITEM_KINDS.contains(&kind) {
                        continue; // `pub use` re-exports, fields, etc.
                    }
                    if j + 1 >= n {
                        continue;
                    }
                    let Some(name) = file.tok(j + 1).kind.ident() else {
                        continue;
                    };
                    let name = name.to_string();
                    if !used_by_others(&owner, &name) {
                        hits.push((
                            file.tok(j + 1).line,
                            format!(
                                "vendored `pub {kind} {name}` is referenced nowhere outside \
                                 `crates/vendor/{owner}`; the stand-ins are an honest API \
                                 subset — remove it or justify the parity"
                            ),
                        ));
                    }
                }
                TokenKind::Ident(kw)
                    if kw == "macro_rules" && i + 2 < n && file.tok(i + 1).kind.is_punct('!') =>
                {
                    let Some(name) = file.tok(i + 2).kind.ident() else {
                        continue;
                    };
                    let name = name.to_string();
                    if !used_by_others(&owner, &name) {
                        hits.push((
                            file.tok(i + 2).line,
                            format!(
                                "vendored `macro_rules! {name}` is referenced nowhere outside \
                                 `crates/vendor/{owner}`; remove it or justify the parity"
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
        for (line, msg) in hits {
            ctx.report(fi, line, RULE, msg);
        }
    }
}
