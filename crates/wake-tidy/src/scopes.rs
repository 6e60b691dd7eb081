//! Which files each rule patrols. One place, so adding a module to a
//! contract is a one-line diff reviewers can see.

/// `panic-path`: modules where a panic is an availability bug — spill
/// and segment I/O (PR 6's recovery ladder turns device failure into
/// typed errors; an `unwrap` under it reintroduces the crash), the
/// serve front-end (a panicked connection thread kills the worker; the
/// registry and the record it renders are reached from every one),
/// both executors' drive/shutdown paths (a panic mid-shutdown leaks
/// node threads and spill dirs), and the keyed operators with the
/// partition layer and the aggregate states under them (they run under
/// spill I/O, at one shard on the polling thread with no `catch_unwind`
/// above), the expression evaluator every Filter and Map runs on
/// that same thread (`Expr` is public, so a malformed node is an error),
/// the key layer under all of them — key hashing, comparison and the
/// key store, and the column it grows (a spilled key frame of the wrong
/// type is a typed error) — and the aggregate state stores with the byte
/// primitives under them, which decode a spilled partition's states
/// (hostile or mistyped state bytes are typed errors).
pub const PANIC_PATH_FILES: &[&str] = &[
    "crates/wake-data/src/colfile.rs",
    "crates/wake-data/src/hash.rs",
    "crates/wake-data/src/column.rs",
    "crates/wake-store/src/colfile.rs",
    "crates/wake-store/src/segment.rs",
    "crates/wake-store/src/compress.rs",
    "crates/wake-store/src/io.rs",
    "crates/wake-store/src/dir.rs",
    "crates/wake-serve/src/server.rs",
    "crates/wake-serve/src/registry.rs",
    "crates/wake-serve/src/json.rs",
    "crates/wake-obs/src/json.rs",
    "crates/wake-obs/src/profile.rs",
    "crates/wake-serve/src/client.rs",
    "crates/wake-serve/src/wire.rs",
    "crates/wake-engine/src/query.rs",
    "crates/wake-engine/src/threaded.rs",
    "crates/wake-engine/src/stepped.rs",
    "crates/wake-engine/src/stream.rs",
    "crates/wake-core/src/ops/partitions.rs",
    "crates/wake-core/src/ops/join.rs",
    "crates/wake-core/src/ops/agg_op.rs",
    "crates/wake-core/src/agg.rs",
    "crates/wake-core/src/ops/spill.rs",
    "crates/wake-expr/src/eval.rs",
];

/// `hostile-len`: decode modules — every byte here may come from a
/// corrupt or hostile file, so length arithmetic must be checked
/// (PR 5's `checked_len` hardening, PR 7's segment parser contract).
pub const DECODE_FILES: &[&str] = &[
    "crates/wake-data/src/colfile.rs",
    "crates/wake-store/src/colfile.rs",
    "crates/wake-store/src/segment.rs",
    "crates/wake-store/src/compress.rs",
    "crates/wake-core/src/ops/spill.rs",
    "crates/wake-core/src/agg.rs",
];

/// `atomics-order`: the one module allowed bare `Relaxed` — wake-obs
/// metrics are documented lock-free telemetry counters whose only
/// consistency need is eventual visibility (PR 8 contract).
pub const RELAXED_EXEMPT_FILES: &[&str] = &["crates/wake-obs/src/metrics.rs"];

/// `env-registry`: integration-test trees may *set* knobs freely; the
/// single-resolution contract restricts where they are *read*.
/// (Resolver files are per knob, named by the registry.)
///
/// `typed-error`: library source trees the discipline applies to.
/// Vendored stand-ins are excluded — they mirror external crates'
/// surfaces (proptest's panicking assertions, for one) and are covered
/// by `vendor-drift` instead. The bench harness and
/// examples are excluded as non-library code.
pub fn is_library_path(path: &str) -> bool {
    let in_src = path.contains("/src/") || path.starts_with("src/");
    in_src
        && !path.starts_with("crates/vendor/")
        && !path.starts_with("crates/bench/")
        && !path.starts_with("crates/wake-tidy/")
        && !path.contains("/examples/")
        && !path.contains("/bin/")
        && !path.contains("/tests/")
}

/// Is this file part of a test tree (integration tests, examples) —
/// exempt from the panic/typed-error/call-site rules but still
/// scanned for knob-literal registration?
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.contains("/examples/")
        || path.starts_with("examples/")
}

/// The crate a workspace-relative path belongs to: the directory that
/// holds its `src/` (`crates/wake-core`, `crates/vendor/rand`,
/// `wake-e2e`; `.` for the facade at the root).
pub fn crate_of(path: &str) -> &str {
    match path.find("src/") {
        Some(0) | None => ".",
        Some(i) => &path[..i - 1],
    }
}

pub fn in_list(path: &str, list: &[&str]) -> bool {
    list.contains(&path)
}
