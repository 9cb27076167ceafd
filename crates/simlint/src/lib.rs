//! # simlint — static enforcement of the simulator's determinism contract
//!
//! Every quantitative claim this repository reproduces (the `RTT·C/√n`
//! headline, the M/G/1 short-flow bound, the `ℓ ≈ 0.76/W²` loss curve) rests
//! on the discrete-event simulator being bit-for-bit deterministic under a
//! fixed seed. `simlint` is a dependency-free, workspace-aware linter that
//! scans the simulation crates (plus the driver layer) and rejects
//! constructs that silently break that contract.
//!
//! ## Architecture (v2)
//!
//! * [`lex`] — a token lexer for Rust: raw/byte/C strings, nested block
//!   comments, char-vs-lifetime disambiguation, float-vs-int literals. It
//!   produces a token stream, per-line comment text (for waiver parsing),
//!   and per-line blanked code (for the line-shaped matchers).
//! * [`graph`] — a per-crate symbol/call graph built from the tokens: `fn`
//!   bodies, `#[cfg(test)]` regions, and `// simlint: hot-path` regions,
//!   with hotness propagated one call level deep so an allocation in a
//!   helper *called from* a marked region is still a finding.
//! * [`rules`] — the thirteen rules (see [`RuleId::ALL`]), each with a
//!   fixed severity ([`rules::Severity`]): `deny` rules break determinism
//!   today, `warn` rules break it under planned parallel-DES work. The
//!   authoritative rule table (rationale, scope, waiver policy) lives in
//!   `DESIGN.md` §7.
//! * [`scan`] — scoping (test regions, kernel-only rules, hot regions),
//!   waiver application, and the waiver audit: every
//!   `// simlint: allow(rule): justification` must carry a justification,
//!   and a waiver that suppresses nothing is reported *stale*.
//!
//! The contract has one legal state, so it is code, not configuration: the
//! scan scope is [`ROOTS`] / [`KERNEL_ROOTS`], every rule is always on with
//! its fixed severity and test-scoping ([`RuleId::severity`],
//! [`RuleId::skip_tests`]), and the gate is *zero findings*. Findings are
//! waived per line (`// simlint: allow(rule): why`), for the next line (a
//! waiver comment on a line of its own), or per file
//! (`// simlint: allow-file(rule): why`).
//!
//! The linter runs as a binary (`cargo run -p simlint`: no arguments, exit
//! 0 clean / 1 on any finding / 2 on an I/O error or any argument) and as a
//! library from the tier-1 test `tests/static_analysis.rs`, which asserts
//! zero violations and pins the rule, scan-root, hot-path-marker and waiver
//! inventories. Its dynamic counterpart is `netsim::Auditor`, which checks
//! at run time what a static pass cannot see (packet conservation, queue
//! bounds, event-time monotonicity).

pub mod graph;
pub mod lex;
pub mod rules;
pub mod scan;

pub use rules::{RuleId, Severity};
pub use scan::{
    analyze_source, analyze_workspace, check_source, check_workspace, Analysis, Violation, Waiver,
    WaiverKind, KERNEL_ROOTS, ROOTS,
};
