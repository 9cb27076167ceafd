#!/usr/bin/env bash
# The full local gate: release build, every test, and the determinism
# contract lint. Run from anywhere inside the repo; fully offline, and
# bash + cargo + git only (plus grep / sed for the text gates; no python3).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release (workspace)"
cargo build --workspace --release

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> cargo test --doc (workspace doc-examples)"
cargo test -q --doc --workspace

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "==> parallel determinism (--jobs 1 vs --jobs 4 sweeps)"
cargo test -q --release --test parallel_determinism

echo "==> flow-state byte budget on the optimized build (counting allocator)"
cargo test -q --release --test flow_memory

echo "==> timer population on the optimized build (queue depth and timer events at H and 3H)"
# The 3H run is the one that catches a timer leak that only shows with
# simulated time.
cargo test -q --release --test timer_population

echo "==> RESULTS.md drift gate (report --check)"
cargo run -q --release -p bench --bin report -- --check

echo "==> simlint (determinism contract: zero findings)"
cargo run -q --release -p simlint

echo "==> explain drift gate (artifacts/explain* current with the tree)"
# The explain bin rewrites its five artifacts; a diff means the simulator's
# event stream, profiler rows or causal join changed without the committed
# copies (and RESULTS.md's Observability section) being regenerated.
./target/release/explain > /dev/null
git diff --exit-code -- artifacts/explain.json artifacts/explain.txt \
    artifacts/explain_causal.jsonl artifacts/explain_spans.jsonl \
    artifacts/explain_drops.jsonl || {
    echo "artifacts/explain* drifted from the tree; commit the regenerated files and rerun report" >&2
    exit 1
}

echo "==> artifact drift gate (figure JSONs and telemetry sidecars current with the tree)"
# Nothing else regenerates the figure artifacts: `report --check` only
# compares RESULTS.md with whatever JSON is committed. fig08 / fig09 /
# table10's proxy column / table11 are the only byte-level witnesses of the
# short-flow, mix, heterogeneous and session pipelines. ~7 s in total.
for bin in fig03 fig04 fig05 fig06; do ./target/release/$bin > /dev/null; done
for bin in fig07 fig08 fig09 table10 table11 ext_cca; do ./target/release/$bin --quick > /dev/null; done
git diff --exit-code -- artifacts/*.json artifacts/*.telemetry.jsonl || {
    echo "artifacts/ drifted from the tree; a result moved — or commit the regenerated files and rerun report" >&2
    exit 1
}

echo "==> one-run-path gate (crates/core/src: one start, one monitor mark, two bisection call sites)"
# Every pipeline is build -> Run::warm_up -> measure [-> drain] -> collect
# (DESIGN.md "Run path"); a second hand-rolled one needs its own
# sim.start() and monitor mark, a third sweep loop its own bisection call.
# Counted outside comments and each file's trailing #[cfg(test)] module;
# search.rs defines min_buffer_for_par and is left out.
core_sites() {
    for f in $(git ls-files 'crates/core/src/*.rs' | grep -v '/search\.rs$'); do
        sed -e '/^#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f"
    done | grep -cF -- "$1" || true
}
sites="$(core_sites 'sim.start()') $(core_sites '.monitor.mark(') $(core_sites 'min_buffer_for_par(')"
[ "$sites" = "1 1 2" ] || {
    echo "crates/core/src grew a second pipeline: sim.start() / .monitor.mark( / min_buffer_for_par( call sites are $sites, want 1 1 2" >&2
    exit 1
}
echo "one run path: sim.start() / .monitor.mark( / min_buffer_for_par( call sites are $sites"

echo "==> doc drift gate (DESIGN.md sections referenced from other docs exist)"
# README/EXPERIMENTS/RESULTS point readers at DESIGN.md sections by number
# ("see DESIGN.md §13", "DESIGN.md §12.2"). Renumbering or deleting a
# section silently strands those pointers; this resolves every reference
# against DESIGN.md's actual headers. Dependency-free: grep only.
doc_drift=0
for ref in $(grep -ho 'DESIGN\.md §[0-9]\+\(\.[0-9]\+\)\?' \
        README.md EXPERIMENTS.md RESULTS.md | grep -o '[0-9.]\+$' | sort -u); do
    case "$ref" in
        *.*) pattern="^### $ref " ;;
        *)   pattern="^## $ref\. " ;;
    esac
    if ! grep -q "$pattern" DESIGN.md; then
        echo "dangling reference: 'DESIGN.md §$ref' cited but no such header in DESIGN.md" >&2
        doc_drift=1
    fi
done
[ "$doc_drift" -eq 0 ] || exit 1
echo "all DESIGN.md section references resolve"

echo "==> trace validity gate (Perfetto export loads: schema, monotone ts, balanced B/E)"
# Exports a fresh quick-scale trace to target/ (never touches artifacts/)
# and runs the in-tree Chrome-trace checker — required keys on every
# event, per-track monotone timestamps, balanced B/E pairs — on both the
# fresh export and the committed full-scale artifact. The committed
# trace's bytes themselves are pinned by tests/trace_export.rs.
./target/release/trace --quick --out target/fig03.trace.quick.json
./target/release/trace --check target/fig03.trace.quick.json
./target/release/trace --check artifacts/fig03.trace.json

echo "==> benchmark crate (own workspace: compiles against crates/*, mirror oracles)"
# benchmark/ is outside the root workspace, so nothing above notices when a
# public-API change breaks benchmark/src/mirror.rs. ~50 s cold, 25 s warm.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> all checks passed"
