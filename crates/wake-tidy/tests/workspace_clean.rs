//! The live workspace must be finding-free. This test is how tier-1
//! (`cargo test`) enforces the tidy contracts without anyone invoking
//! the binary: a new `unwrap` in a patrol file, an unregistered knob,
//! or a bare `Relaxed` fails the suite with the same rule/file/line
//! message the CLI prints.

use std::path::Path;

#[test]
fn workspace_is_finding_free() {
    let root = wake_tidy::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let ws = wake_tidy::Workspace::load(&root).expect("load workspace");
    let findings = ws.check();
    assert!(
        findings.is_empty(),
        "wake-tidy found {} issue(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn roadmap_embeds_the_generated_knob_table() {
    let root = wake_tidy::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let ws = wake_tidy::Workspace::load(&root).expect("load workspace");
    let table = ws.knob_table();
    assert!(
        ws.roadmap.contains(&table),
        "ROADMAP.md's knob table is out of date; regenerate it with \
         `cargo run -p wake-tidy -- --knob-table` and paste the result"
    );
}

/// Files that can *turn* a knob, each with the knobs it names: CI lanes,
/// tests, examples, benches and READMEs — everything but library source,
/// the linter's own tree, and the documents that merely list knobs.
fn consumer_files(root: &Path, dir: &Path, out: &mut Vec<(String, Vec<String>)>) {
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).expect("under root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if !matches!(rel.as_str(), "target" | ".git" | "crates/wake-tidy")
                && !rel.ends_with("/target")
            {
                consumer_files(root, &path, out);
            }
        } else if [".rs", ".yml", ".md", ".sh"]
            .iter()
            .any(|e| rel.ends_with(e))
            && !matches!(rel.as_str(), "ROADMAP.md" | "CHANGES.md" | "ISSUE.md")
            && !wake_tidy::scopes::is_library_path(&rel)
        {
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            out.push((rel, wake_tidy::rules::env_registry::knob_names(&text)));
        }
    }
}

/// The knob diet, kept: a registered knob that nothing outside its own
/// resolver turns has no reason to exist — delete its env fallback (the
/// builder, if a caller uses it, stays) and its registry row.
#[test]
fn every_registered_knob_has_a_consumer() {
    let root = wake_tidy::find_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("workspace root");
    let ws = wake_tidy::Workspace::load(&root).expect("load workspace");
    let mut files = Vec::new();
    consumer_files(&root, &root, &mut files);
    let orphans: Vec<&str> = ws
        .registry
        .iter()
        .filter(|(name, (resolver, _))| {
            !files
                .iter()
                .any(|(path, named)| path != resolver && named.contains(name))
        })
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        orphans.is_empty(),
        "no CI lane, test, example, bench or README names {orphans:?}"
    );
}
