//! wake-tidy: in-repo static analysis for the wake workspace.
//!
//! The engine's correctness story rests on a handful of conventions that
//! rustc cannot check: spill/serve I/O never panics, hostile length
//! headers fail typed before any allocation, every `WAKE_*` knob
//! resolves in exactly one place, and relaxed atomics document the
//! synchronization that makes them sound. Each convention was
//! introduced by a PR and, until now, policed by hand. This crate turns
//! them into string/token-level workspace lints in the style of
//! rust-lang/rust's `tidy` tool — no external dependencies, runnable as
//! `cargo run -p wake-tidy -- --check` and as a `#[test]` so the tier-1
//! suite picks it up.
//!
//! ## Allowlisting
//!
//! Every rule accepts an inline escape hatch:
//!
//! ```text
//! // tidy-allow: <rule>: <justification>
//! ```
//!
//! placed on the offending line or on its own line directly above.
//! The justification is mandatory; an empty one is itself a finding, as
//! is an allow comment that suppresses nothing (`unused-allow`).
//!
//! ## Rules
//!
//! | rule          | contract (origin)                                         |
//! |---------------|-----------------------------------------------------------|
//! | `panic-path`  | no unwrap/expect/panic/indexing-by-literal in I/O modules (PR 6) |
//! | `hostile-len` | decode modules use checked length arithmetic (PR 5/7)     |
//! | `atomics-order` | `Relaxed` needs a `// relaxed:` justification; `SeqCst` is banned without one (PR 8/9) |
//! | `env-registry` | `WAKE_*` knobs resolve once, in the registered file (PR 4) |
//! | `typed-error` | no stringly-typed errors / `process::exit` on library paths (PR 6) |
//! | `vendor-drift` | vendored stand-ins expose no unused public API (PR 1)    |

pub mod lexer;
pub mod rules;
pub mod scopes;

use lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation: rule name, workspace-relative path, 1-indexed
/// line, and a human message.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}",
            self.rule, self.path, self.line, self.msg
        )
    }
}

/// An inline `// tidy-allow: <rule>: <justification>` entry.
#[derive(Debug, Clone)]
pub struct Allow {
    pub rule: String,
    pub justification: String,
    /// Line of the comment itself.
    pub at: usize,
    /// Line(s) of code this entry suppresses: the comment's own line and,
    /// for an own-line comment, the next code line.
    pub covers: Vec<usize>,
}

/// A lexed workspace file plus the per-line structure rules consume.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    pub text: String,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens (the code stream).
    pub code: Vec<usize>,
    /// `true` for each 1-indexed line inside `#[cfg(test)]` / `#[test]`
    /// items. Index 0 unused.
    pub test_lines: Vec<bool>,
    pub allows: Vec<Allow>,
}

impl SourceFile {
    pub fn parse(path: String, text: String) -> SourceFile {
        let tokens = lex(&text);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
            .map(|(i, _)| i)
            .collect();
        let n_lines = text.lines().count() + 2;
        let test_lines = mark_test_lines(&tokens, &code, n_lines);
        let allows = parse_allows(&tokens, &code);
        SourceFile {
            path,
            text,
            tokens,
            code,
            test_lines,
            allows,
        }
    }

    /// Is 1-indexed `line` inside test-gated code?
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }

    /// The code token at code-stream position `i`.
    pub fn tok(&self, i: usize) -> &Token {
        &self.tokens[self.code[i]]
    }

    /// Number of code tokens.
    pub fn n_code(&self) -> usize {
        self.code.len()
    }

    /// All comment texts on 1-indexed `line` (and, for the justification
    /// search, callers also look at preceding lines).
    pub fn comments_on(&self, line: usize) -> impl Iterator<Item = &str> {
        self.tokens.iter().filter_map(move |t| match &t.kind {
            TokenKind::Comment(s) if t.line == line => Some(s.as_str()),
            _ => None,
        })
    }

    /// Does an allow entry for `rule` cover `line`? Returns its index.
    pub fn allow_for(&self, rule: &str, line: usize) -> Option<usize> {
        self.allows
            .iter()
            .position(|a| a.rule == rule && a.covers.contains(&line))
    }
}

/// The whole analysis input: lexed files, the knob registry, and the
/// ROADMAP text the registry is diffed against.
pub struct Workspace {
    pub files: Vec<SourceFile>,
    /// `WAKE_*` knob name → (resolver path, description).
    pub registry: BTreeMap<String, (String, String)>,
    pub roadmap: String,
    /// Paths of registry/roadmap for findings.
    pub registry_path: String,
}

pub const REGISTRY_PATH: &str = "crates/wake-tidy/knobs.tsv";

impl Workspace {
    /// Load the real workspace rooted at `root`.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        walk(root, root, &mut paths)?;
        paths.sort();
        let mut files = Vec::new();
        for p in paths {
            let text = std::fs::read_to_string(root.join(&p))?;
            files.push(SourceFile::parse(p, text));
        }
        let registry_text = std::fs::read_to_string(root.join(REGISTRY_PATH)).unwrap_or_default();
        let roadmap = std::fs::read_to_string(root.join("ROADMAP.md")).unwrap_or_default();
        Ok(Workspace {
            files,
            registry: parse_registry(&registry_text),
            roadmap,
            registry_path: REGISTRY_PATH.to_string(),
        })
    }

    /// Build a synthetic workspace for fixture tests: `(path, source)`
    /// pairs plus registry text and roadmap text.
    pub fn from_memory(files: Vec<(&str, &str)>, registry: &str, roadmap: &str) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(p, s)| SourceFile::parse(p.to_string(), s.to_string()))
                .collect(),
            registry: parse_registry(registry),
            roadmap: roadmap.to_string(),
            registry_path: REGISTRY_PATH.to_string(),
        }
    }

    /// Run every rule plus the unused-allow check; findings sorted by
    /// path, line, rule.
    pub fn check(&self) -> Vec<Finding> {
        let mut out = Vec::new();
        let mut used: Vec<Vec<bool>> = self
            .files
            .iter()
            .map(|f| vec![false; f.allows.len()])
            .collect();
        rules::run_all(self, &mut out, &mut used);
        // An allow that suppressed nothing is stale and must go: dead
        // allowlist entries are how contracts rot silently.
        for (fi, f) in self.files.iter().enumerate() {
            for (ai, a) in f.allows.iter().enumerate() {
                if !used[fi][ai] {
                    out.push(Finding {
                        path: f.path.clone(),
                        line: a.at,
                        rule: "unused-allow",
                        msg: format!("tidy-allow for `{}` suppresses nothing; remove it", a.rule),
                    });
                }
                if a.justification.trim().is_empty() {
                    out.push(Finding {
                        path: f.path.clone(),
                        line: a.at,
                        rule: "unused-allow",
                        msg: format!("tidy-allow for `{}` has an empty justification", a.rule),
                    });
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// Non-test lines (code, comments and blanks outside `#[cfg(test)]` /
    /// `#[test]` items and outside test trees) as a markdown table: one
    /// row per crate, or — with `prefix` — one per file under it. The
    /// number a simplification PR quotes before and after.
    pub fn loc_table(&self, prefix: Option<&str>) -> String {
        let mut rows: BTreeMap<&str, usize> = BTreeMap::new();
        for f in &self.files {
            if scopes::is_test_path(&f.path) || !f.path.starts_with(prefix.unwrap_or("")) {
                continue;
            }
            let key = match prefix {
                Some(_) => f.path.as_str(),
                None => scopes::crate_of(&f.path),
            };
            *rows.entry(key).or_default() += (1..=f.text.lines().count())
                .filter(|&l| !f.is_test_line(l))
                .count();
        }
        let mut s = String::from("| path | non-test lines |\n|---|---:|\n");
        for (key, lines) in &rows {
            s.push_str(&format!("| `{key}` | {lines} |\n"));
        }
        s.push_str(&format!("| total | {} |\n", rows.values().sum::<usize>()));
        s
    }

    /// Render the knob registry as the markdown table ROADMAP embeds.
    pub fn knob_table(&self) -> String {
        let mut s = String::from("| knob | resolved in | purpose |\n|---|---|---|\n");
        for (name, (resolver, desc)) in &self.registry {
            s.push_str(&format!("| `{name}` | `{resolver}` | {desc} |\n"));
        }
        s
    }
}

/// Registry format: one knob per line, tab-separated:
/// `NAME<TAB>resolver-path<TAB>description`. `#` starts a comment.
pub fn parse_registry(text: &str) -> BTreeMap<String, (String, String)> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        let name = parts.next().unwrap_or("").trim();
        let resolver = parts.next().unwrap_or("").trim();
        let desc = parts.next().unwrap_or("").trim();
        if !name.is_empty() {
            map.insert(name.to_string(), (resolver.to_string(), desc.to_string()));
        }
    }
    map
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // target/: build output. .git/: history. wake-tidy/fixtures/:
            // deliberately-bad snippets the fixture tests lint on their
            // own; the live run must not see them.
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` until a directory
/// holding both `Cargo.toml` and `crates/` appears.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start);
    while let Some(d) = cur {
        if d.join("Cargo.toml").is_file() && d.join("crates").is_dir() {
            return Some(d.to_path_buf());
        }
        cur = d.parent();
    }
    None
}

/// Mark the lines belonging to `#[cfg(test)]`- or `#[test]`-gated items.
/// Token-level: find the attribute, skip any further attributes, then
/// span the item to its closing brace (or `;` for brace-less items).
fn mark_test_lines(tokens: &[Token], code: &[usize], n_lines: usize) -> Vec<bool> {
    let mut marks = vec![false; n_lines + 1];
    let tok = |i: usize| -> &Token { &tokens[code[i]] };
    let n = code.len();
    let mut i = 0;
    while i < n {
        if tok(i).kind.is_punct('#') && i + 1 < n && tok(i + 1).kind.is_punct('[') {
            if let Some((is_test, after)) = test_attr(tokens, code, i) {
                if is_test {
                    // Skip any further attributes on the same item.
                    let mut j = after;
                    while j < n && tok(j).kind.is_punct('#') {
                        j = skip_attr(tokens, code, j);
                    }
                    let start_line = tok(i).line;
                    let end_line = item_end(tokens, code, j);
                    for m in &mut marks[start_line..=end_line.min(n_lines)] {
                        *m = true;
                    }
                    i = j;
                    continue;
                }
                i = after;
                continue;
            }
        }
        i += 1;
    }
    marks
}

/// If `i` starts an attribute, classify it: `Some((is_test_gate, next))`.
fn test_attr(tokens: &[Token], code: &[usize], i: usize) -> Option<(bool, usize)> {
    let tok = |k: usize| -> &Token { &tokens[code[k]] };
    let n = code.len();
    if !(tok(i).kind.is_punct('#') && i + 1 < n && tok(i + 1).kind.is_punct('[')) {
        return None;
    }
    let mut depth = 0;
    let mut is_test = false;
    let mut saw_cfg = false;
    let mut j = i + 1;
    while j < n {
        match &tok(j).kind {
            TokenKind::Punct('[') | TokenKind::Punct('(') => depth += 1,
            TokenKind::Punct(']') | TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some((is_test, j + 1));
                }
            }
            TokenKind::Ident(s) if s == "cfg" => saw_cfg = true,
            // `#[test]` itself, or `test` inside `#[cfg(...)]`.
            TokenKind::Ident(s) if s == "test" && (saw_cfg || depth == 1) => is_test = true,
            _ => {}
        }
        j += 1;
    }
    Some((is_test, n))
}

fn skip_attr(tokens: &[Token], code: &[usize], i: usize) -> usize {
    match test_attr(tokens, code, i) {
        Some((_, next)) => next,
        None => i + 1,
    }
}

/// End line of the item starting at code position `j`: the matching `}`
/// of its first brace, or the first `;` met before any brace.
fn item_end(tokens: &[Token], code: &[usize], j: usize) -> usize {
    let tok = |k: usize| -> &Token { &tokens[code[k]] };
    let n = code.len();
    let mut k = j;
    let mut depth = 0;
    while k < n {
        match &tok(k).kind {
            TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return tok(k).line;
                }
            }
            TokenKind::Punct(';') if depth == 0 => return tok(k).line,
            _ => {}
        }
        k += 1;
    }
    if n == 0 {
        0
    } else {
        tok(n - 1).line
    }
}

/// Extract `// tidy-allow: <rule>: <justification>` comments and compute
/// which code lines each covers: its own line (trailing form) or the
/// next line holding any code token (own-line form).
fn parse_allows(tokens: &[Token], code: &[usize]) -> Vec<Allow> {
    let mut out = Vec::new();
    for t in tokens {
        let text = match &t.kind {
            TokenKind::Comment(s) => s,
            _ => continue,
        };
        let trimmed = text.trim();
        let Some(rest) = trimmed.strip_prefix("tidy-allow:") else {
            continue;
        };
        let mut parts = rest.splitn(2, ':');
        let rule = parts.next().unwrap_or("").trim().to_string();
        let justification = parts.next().unwrap_or("").trim().to_string();
        let mut covers = vec![t.line];
        // Own-line comments also cover the next code line.
        if let Some(next) = code.iter().map(|&i| &tokens[i]).find(|ct| ct.line > t.line) {
            covers.push(next.line);
        }
        out.push(Allow {
            rule,
            justification,
            at: t.line,
            covers,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_lines_cover_cfg_test_mod() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let f = SourceFile::parse("x.rs".into(), src.into());
        assert!(!f.is_test_line(1));
        assert!(f.is_test_line(2));
        assert!(f.is_test_line(4));
        assert!(f.is_test_line(5));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn test_attr_with_following_attrs() {
        let src = "#[test]\n#[ignore]\nfn t() {\n  boom();\n}\nfn live() {}\n";
        let f = SourceFile::parse("x.rs".into(), src.into());
        assert!(f.is_test_line(4));
        assert!(!f.is_test_line(6));
    }

    #[test]
    fn cfg_not_test_is_not_marked() {
        let src = "#[cfg(feature = \"x\")]\nfn a() { b(); }\n";
        let f = SourceFile::parse("x.rs".into(), src.into());
        assert!(!f.is_test_line(2));
    }

    #[test]
    fn allows_cover_trailing_and_next_line() {
        let src = "// tidy-allow: panic-path: known-length slice\nlet x = y.unwrap();\nlet z = w.unwrap(); // tidy-allow: panic-path: also fine\n";
        let f = SourceFile::parse("x.rs".into(), src.into());
        assert_eq!(f.allows.len(), 2);
        assert!(f.allow_for("panic-path", 2).is_some());
        assert!(f.allow_for("panic-path", 3).is_some());
        assert!(f.allow_for("hostile-len", 2).is_none());
    }

    #[test]
    fn registry_parses_tsv() {
        let reg = parse_registry("# comment\nWAKE_X\tcrates/a/src/b.rs\tdoes x\n");
        assert_eq!(
            reg.get("WAKE_X").map(|(r, _)| r.as_str()),
            Some("crates/a/src/b.rs")
        );
    }
}
