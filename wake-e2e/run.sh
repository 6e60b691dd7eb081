#!/bin/sh
# One command, one record: build, run the five workloads untraced, then
# traced, print every metric by name with its unit, and write
# <target>/wake-e2e/report-<rev>-<seed>.json plus one span file per
# workload. Extra arguments go to `wake-e2e all` (--seed N, --seconds S,
# --sf F, --check). Nothing tracked by git is written.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --manifest-path wake-e2e/Cargo.toml -- all "$@"
