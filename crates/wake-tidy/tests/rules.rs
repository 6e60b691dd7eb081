//! Per-rule fixture tests: each rule fires on its bad fixture and stays
//! quiet on the allowlisted/fixed variant. Fixture sources live under
//! `tests/fixtures/` (the workspace walker skips `fixtures` directories,
//! so the deliberate violations never reach the live check); here each
//! fixture is mounted at a path inside the rule's patrol scope via
//! `Workspace::from_memory`.

use wake_tidy::Workspace;

const EMPTY_REGISTRY: &str = "";
const EMPTY_ROADMAP: &str = "";

/// Rule names for every finding `check()` raises on `files`.
fn findings(
    files: Vec<(&str, &str)>,
    registry: &str,
    roadmap: &str,
) -> Vec<(String, &'static str, usize)> {
    Workspace::from_memory(files, registry, roadmap)
        .check()
        .into_iter()
        .map(|f| (f.path, f.rule, f.line))
        .collect()
}

fn rule_count(found: &[(String, &'static str, usize)], rule: &str) -> usize {
    found.iter().filter(|(_, r, _)| *r == rule).count()
}

// ---------------------------------------------------------------- panic-path

#[test]
fn panic_path_fires_on_every_vector() {
    let found = findings(
        vec![(
            "crates/wake-store/src/io.rs",
            include_str!("fixtures/panic_path_bad.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert_eq!(rule_count(&found, "panic-path"), 4, "{found:?}");
    let lines: Vec<usize> = found.iter().map(|(_, _, l)| *l).collect();
    assert_eq!(lines, vec![3, 4, 6, 8], "unwrap, expect, panic!, buf[2]");
}

#[test]
fn panic_path_quiet_on_allow_and_test_code() {
    let found = findings(
        vec![(
            "crates/wake-store/src/io.rs",
            include_str!("fixtures/panic_path_ok.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn panic_path_ignores_files_outside_scope() {
    let found = findings(
        vec![(
            "crates/wake-stats/src/lib.rs",
            include_str!("fixtures/panic_path_bad.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert_eq!(rule_count(&found, "panic-path"), 0, "{found:?}");
}

// --------------------------------------------------------------- hostile-len

#[test]
fn hostile_len_fires_on_cast_and_bare_add() {
    let found = findings(
        vec![(
            "crates/wake-store/src/segment.rs",
            include_str!("fixtures/hostile_len_bad.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert_eq!(rule_count(&found, "hostile-len"), 2, "{found:?}");
}

#[test]
fn hostile_len_quiet_on_checked_arithmetic() {
    let found = findings(
        vec![(
            "crates/wake-store/src/segment.rs",
            include_str!("fixtures/hostile_len_ok.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert!(found.is_empty(), "{found:?}");
}

// ------------------------------------------------------------- atomics-order

#[test]
fn atomics_fires_on_bare_relaxed_and_seqcst() {
    let found = findings(
        vec![(
            "crates/wake-engine/src/threaded.rs",
            include_str!("fixtures/atomics_bad.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert_eq!(rule_count(&found, "atomics-order"), 2, "{found:?}");
}

#[test]
fn atomics_quiet_on_justified_orderings() {
    let found = findings(
        vec![(
            "crates/wake-engine/src/threaded.rs",
            include_str!("fixtures/atomics_ok.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn atomics_exempts_obs_metrics() {
    let found = findings(
        vec![(
            "crates/wake-obs/src/metrics.rs",
            include_str!("fixtures/atomics_bad.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert!(found.is_empty(), "{found:?}");
}

// -------------------------------------------------------------- env-registry

const FIX_REGISTRY: &str = "WAKE_FIX_BUDGET\tcrates/wake-store/src/governor.rs\ttest budget knob\n";
const FIX_ROADMAP: &str = "The budget rides on `WAKE_FIX_BUDGET`.\n";

#[test]
fn env_registry_fires_on_unregistered_and_misplaced_reads() {
    let found = findings(
        vec![
            (
                "crates/wake-engine/src/config.rs",
                include_str!("fixtures/env_registry_bad.rs"),
            ),
            // The registered resolver also mentions the knob, so the
            // registry entry itself is not stale.
            (
                "crates/wake-store/src/governor.rs",
                include_str!("fixtures/env_registry_ok.rs"),
            ),
        ],
        FIX_REGISTRY,
        FIX_ROADMAP,
    );
    // One unregistered literal (`WAKE_BOGUS_KNOB`) + one read outside
    // the registered resolver (`WAKE_FIX_BUDGET`).
    assert_eq!(rule_count(&found, "env-registry"), 2, "{found:?}");
}

#[test]
fn env_registry_quiet_on_the_sanctioned_resolver() {
    let found = findings(
        vec![(
            "crates/wake-store/src/governor.rs",
            include_str!("fixtures/env_registry_ok.rs"),
        )],
        FIX_REGISTRY,
        FIX_ROADMAP,
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn env_registry_flags_stale_entries_and_roadmap_drift() {
    let found = findings(
        vec![(
            "crates/wake-store/src/governor.rs",
            include_str!("fixtures/env_registry_ok.rs"),
        )],
        // WAKE_GONE appears nowhere; its resolver file doesn't exist.
        "WAKE_FIX_BUDGET\tcrates/wake-store/src/governor.rs\ttest budget knob\n\
         WAKE_GONE\tcrates/wake-store/src/nope.rs\tgone\n",
        // ROADMAP names a knob the registry doesn't have, misses two it does.
        "Only `WAKE_PHANTOM` is documented here.\n",
    );
    // stale entry + missing resolver file + 2 undocumented registered
    // knobs + 1 unregistered ROADMAP mention.
    assert_eq!(rule_count(&found, "env-registry"), 5, "{found:?}");
}

// --------------------------------------------------------------- typed-error

#[test]
fn typed_error_fires_on_every_violation() {
    let found = findings(
        vec![(
            "crates/wake-core/src/lib.rs",
            include_str!("fixtures/typed_error_bad.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    // Box<dyn Error>, map_err(|e| e.to_string()), process::exit,
    // Result<_, String>.
    assert_eq!(rule_count(&found, "typed-error"), 4, "{found:?}");
}

#[test]
fn typed_error_quiet_on_typed_enums() {
    let found = findings(
        vec![(
            "crates/wake-core/src/lib.rs",
            include_str!("fixtures/typed_error_ok.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn typed_error_exempts_vendor_and_bench() {
    let found = findings(
        vec![
            (
                "crates/vendor/proptest/src/lib.rs",
                include_str!("fixtures/typed_error_bad.rs"),
            ),
            (
                "crates/bench/src/harness.rs",
                include_str!("fixtures/typed_error_bad.rs"),
            ),
        ],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert_eq!(rule_count(&found, "typed-error"), 0, "{found:?}");
}

// -------------------------------------------------------------- vendor-drift

#[test]
fn vendor_drift_fires_on_unreferenced_pub_items() {
    let found = findings(
        vec![
            (
                "crates/vendor/fakelib/src/lib.rs",
                include_str!("fixtures/vendor_drift_bad.rs"),
            ),
            // The rest of the workspace references UsedThing only.
            ("crates/wake-core/src/lib.rs", "pub fn f(_: UsedThing) {}\n"),
        ],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    // unused_helper + internal_only; UsedThing is referenced.
    assert_eq!(rule_count(&found, "vendor-drift"), 2, "{found:?}");
}

#[test]
fn vendor_drift_quiet_on_justified_parity_extra() {
    let found = findings(
        vec![(
            "crates/vendor/fakelib/src/lib.rs",
            include_str!("fixtures/vendor_drift_ok.rs"),
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert!(found.is_empty(), "{found:?}");
}

// -------------------------------------------------------------- unused-allow

#[test]
fn stale_allow_is_itself_a_finding() {
    let found = findings(
        vec![(
            "crates/wake-store/src/io.rs",
            "// tidy-allow: panic-path: justified but suppresses nothing\n\
             pub fn fine() -> u32 {\n    7\n}\n",
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    assert_eq!(rule_count(&found, "unused-allow"), 1, "{found:?}");
}

#[test]
fn empty_justification_is_a_finding() {
    let found = findings(
        vec![(
            "crates/wake-store/src/io.rs",
            "pub fn read(buf: &[u8]) -> u8 {\n\
             \x20   // tidy-allow: panic-path:\n\
             \x20   buf.first().copied().unwrap()\n\
             }\n",
        )],
        EMPTY_REGISTRY,
        EMPTY_ROADMAP,
    );
    // The allow *does* suppress the unwrap, but its justification is
    // empty — the justification is the contract.
    assert_eq!(rule_count(&found, "unused-allow"), 1, "{found:?}");
    assert_eq!(rule_count(&found, "panic-path"), 0, "{found:?}");
}
