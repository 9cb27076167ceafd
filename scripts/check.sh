#!/usr/bin/env bash
# The full local gate: release build, every test, rustfmt and the determinism
# contract's lints. Run from anywhere inside the repo; fully offline, and
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

echo "==> flow-state byte budget, event-queue memory and steady-state allocation gates on the optimized build (counting allocator)"
cargo test -q --release --test flow_memory

echo "==> packet-log bytes per record and telemetry bytes per sample on the optimized build (counting allocator)"
cargo test -q --release --test packet_log_memory

echo "==> timer population on the optimized build (queue depth and timer events at H and 3H)"
# The 3H run is the one that catches a timer leak that only shows with
# simulated time.
cargo test -q --release --test timer_population

echo "==> cargo fmt --check (the root workspace is rustfmt-clean)"
# An aligned table whose layout carries meaning takes #[rustfmt::skip].
cargo fmt --all --check

echo "==> cargo clippy (determinism contract: zero findings, warnings denied)"
# The determinism contract (DESIGN.md §7) is the workspace lint table in
# Cargo.toml plus the banned paths in clippy.toml; every target of every
# crate is linted, and an exception is an #[expect(lint, reason = "…")].
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> regeneration gate (every registry entry reproduces artifacts/ and RESULTS.md)"
# `repro` runs the named experiments in one process (sharing the
# process-global probe cache), writes their artifacts and rewrites
# RESULTS.md from artifacts/. The split is the committed scales
# (artifacts/README.md); together they cover every entry of
# bench::EXPERIMENTS. A diff means a result moved — or the committed files
# were not regenerated. fig08 / fig09 / table10's proxy column / table11 are
# the only byte-level witnesses of the short-flow, mix, heterogeneous and
# session pipelines. ~10 s in total.
./target/release/repro fig03 fig04 fig05 fig06 explain > /dev/null
./target/release/repro --quick fig07 fig08 fig09 table10 table11 ext_cca \
    ext_sync ext_loss ext_highrate ext_pacing ext_multihop ext_ablation > /dev/null
git diff --exit-code -- artifacts/ RESULTS.md || {
    echo "artifacts/ or RESULTS.md drifted from the tree; a result moved — or commit the regenerated files" >&2
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

echo "==> one-TCP-agent-pair gate (no TCP glue outside crates/tcpsim and crates/netsim)"
# Every TCP flow runs on tcpsim's TcpSource / TcpSink; a closed-loop
# session wraps one pair and re-arms it per transfer
# (TcpSource::next_transfer). A second hand-rolled agent pair needs its own
# headers, sequence unwrapping and sender / receiver calls: count those in
# crates/*/src outside tcpsim and netsim, src/ and examples/, outside
# comments and each file's trailing #[cfg(test)] module.
tcp_glue=$(for f in $(git ls-files 'crates/*/src/*.rs' 'src/*.rs' 'examples/*.rs' \
        | grep -v '^crates/\(tcpsim\|netsim\)/'); do
    sed -e '/^#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f"
done | grep -cE 'TcpHeader|TcpFlags|SeqUnwrapper|TcpReceiver::new\(|TcpSender::new\(|\.on_ack\(|\.on_rto\(|\.on_data\(' || true)
[ "$tcp_glue" = "0" ] || {
    echo "a second TCP agent pair: $tcp_glue lines of TCP header / sequence / sender / receiver glue outside crates/tcpsim and crates/netsim, want 0" >&2
    exit 1
}
echo "one TCP agent pair: $tcp_glue lines of TCP glue outside crates/tcpsim and crates/netsim"

echo "==> one-JSON-writer gate (no hand-written JSON outside crates/simcore/src/json.rs)"
# Every JSON byte — the artifacts, the JSON Lines sidecars and the Chrome
# trace — goes through simcore::json::JsonWriter, which owns escaping,
# number forms and punctuation. A second emitter needs its own quoted keys
# in a format string ("{\"t_ns\":{}"): count those lines in crates/*/src
# and src/ outside the json module, comments and each file's trailing
# #[cfg(test)] module (21 before the emitters wrote through the writer).
hand_json=$(for f in $(git ls-files 'crates/*/src/*.rs' 'src/*.rs' \
        | grep -v '^crates/simcore/src/json\.rs$'); do
    sed -e '/^#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f"
done | grep -cE '\\"[A-Za-z_]+\\": ?' || true)
[ "$hand_json" = "0" ] || {
    echo "a second JSON writer: $hand_json lines of hand-written JSON keys outside crates/simcore/src/json.rs, want 0" >&2
    exit 1
}
echo "one JSON writer: $hand_json lines of hand-written JSON outside crates/simcore/src/json.rs"

echo "==> one-event-loop gate (one loop in crates/netsim/src; sim.rs reaches the observer stores through their hooks only)"
# The kernel runs one event loop and reports each site once to one
# observer set (crates/netsim/src/sim/observe.rs: packet log, auditor,
# drop forensics, profiler). A second, specialized copy of the loop needs
# a `const OBS` parameter or a `::<true>` / `::<false>` instantiation;
# an observer chain written out at a kernel site needs a store's field
# (.packet_log, .auditor, .forensics, .prof; a method call such as
# .packet_log() is an accessor) in sim.rs. Both counted outside comments
# and each file's trailing #[cfg(test)] module (10 and 28 while the loop
# was forked on a const bool).
netsim_code() {
    for f in "$@"; do
        sed -e '/^#\[cfg(test)\]/,$d' -e '/^ *\/\//d' "$f"
    done
}
forks=$(netsim_code $(git ls-files 'crates/netsim/src/*.rs') \
    | grep -cE 'const OBS|::<true>|::<false>' || true)
store_fields=$(netsim_code crates/netsim/src/sim.rs \
    | grep -cE '\.(packet_log|auditor|forensics|prof)([^A-Za-z0-9_(]|$)' || true)
[ "$forks $store_fields" = "0 0" ] || {
    echo "a second event loop: $forks lines forking the loop on a const bool in crates/netsim/src, $store_fields lines touching an observer store's field in sim.rs, want 0 0" >&2
    exit 1
}
echo "one event loop: $forks lines forking the loop, $store_fields observer-store field touches in sim.rs"

echo "==> one-routing-path gate (every route table is computed from the link list)"
# A topology is a node / link list and Sim::compute_routes
# (crates/netsim/src/topology.rs) derives every route table from it: a
# host's one outgoing link is its default route, and a router routes to
# each host along a fewest-hop path through routers. A hand-wired table
# needs its own routes.add( or routes.set_default( call: count those in
# every .rs file, tests included, outside node.rs, which defines them, and
# topology.rs (20 while the dumbbell, the parking lot and the kernel's
# tests wired their own).
hand_routes=$(for f in $(git ls-files '*.rs' \
        | grep -v '^crates/netsim/src/\(node\|topology\)\.rs$'); do
    cat "$f"
done | grep -cE 'routes\.(add|set_default)\(' || true)
[ "$hand_routes" = "0" ] || {
    echo "a second routing path: $hand_routes lines wiring a route table by hand outside crates/netsim/src/{node,topology}.rs, want 0" >&2
    exit 1
}
echo "one routing path: $hand_routes lines wiring a route table by hand"

echo "==> one-congestion-control gate (the algorithm is a CcKind, not a boxed trait object)"
# tcpsim::cc::CcKind is the one congestion-control type: a Copy enum whose
# window rules dispatch by match, with CUBIC's epoch in the flow table. A
# second mechanism needs a trait object or a boxed algorithm struct again:
# count those lines in every tracked .rs file outside benchmark/ (82 while
# the CongestionControl trait and its five structs were the algorithms).
boxed_cc=$(for f in $(git ls-files '*.rs' | grep -v '^benchmark/'); do
    cat "$f"
done | grep -cE 'dyn CongestionControl|impl CongestionControl|Box::new\((tcpsim::)?(cc::)?(Reno|NewReno|Cubic|Dctcp|Sack)\b' || true)
[ "$boxed_cc" = "0" ] || {
    echo "a second congestion-control mechanism: $boxed_cc lines of a CongestionControl trait object or boxed algorithm struct outside benchmark/, want 0" >&2
    exit 1
}
echo "one congestion control: $boxed_cc lines of trait-object or boxed-algorithm congestion control"

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

echo "==> benchmark crate (own workspace: compiles against crates/*, mirror oracles)"
# benchmark/ is outside the root workspace, so nothing above notices when a
# public-API change breaks benchmark/src/mirror.rs. ~50 s cold, 25 s warm.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> all checks passed"
