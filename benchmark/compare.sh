#!/bin/sh
# Runs every workload twice with the same options and compares the two run
# sets metric by metric against the benchmark's own bounds. Extra arguments
# (--seed S, --seconds N, --trace 0) go to both sets.
set -eu
cd "$(dirname "$0")/.."
run() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
run --all --out benchmark/out/a.json "$@"
run --all --out benchmark/out/b.json "$@"
run --compare benchmark/out/a.json benchmark/out/b.json
