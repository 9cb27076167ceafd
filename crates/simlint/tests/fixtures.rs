//! Per-rule seeded-violation fixtures.
//!
//! Every rule in the determinism contract has a fixture under
//! `tests/fixtures/` seeding exactly one violation; each seed must fire
//! exactly once (no more — precision matters as much as recall, a noisy
//! rule gets waived into uselessness) and a justified line waiver must
//! silence it completely without itself going stale. The two meta rules
//! (`waiver-justification`, `stale-waiver`) get dedicated seeds since they
//! fire on waivers, not code.

use simlint::{analyze_source, RuleId};
use std::path::Path;

/// A label under a kernel root so the kernel-only rules (float-reduction,
/// shared-mut-state, panic-in-kernel) apply to the fixtures.
const LABEL: &str = "crates/simcore/src/fixture.rs";

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Fixture stem → the one rule its seed must trip. `hot_path_alloc` appears
/// three times: the direct seed, the interprocedural (helper-called-from-hot)
/// seed and the string-building seed are distinct fixtures for the same rule.
const CASES: [(&str, RuleId); 13] = [
    ("hash_container", RuleId::HashContainer),
    ("wall_clock", RuleId::WallClock),
    ("lossy_cast", RuleId::LossyCast),
    ("float_time_eq", RuleId::FloatTimeEq),
    ("print_macro", RuleId::PrintMacro),
    ("hot_path_alloc", RuleId::HotPathAlloc),
    ("hot_path_alloc_transitive", RuleId::HotPathAlloc),
    ("hot_path_alloc_string", RuleId::HotPathAlloc),
    ("unordered_iter", RuleId::UnorderedIter),
    ("float_reduction", RuleId::FloatReduction),
    ("unstable_sort_tiebreak", RuleId::UnstableSortTiebreak),
    ("shared_mut_state", RuleId::SharedMutState),
    ("panic_in_kernel", RuleId::PanicInKernel),
];

#[test]
fn every_seed_fires_exactly_once() {
    for (stem, rule) in CASES {
        let a = analyze_source(LABEL, &fixture(&format!("{stem}_fires.rs")));
        let hits = a.violations.iter().filter(|v| v.rule == rule).count();
        assert_eq!(
            hits,
            1,
            "{stem}: expected exactly one {} finding, got {:?}",
            rule.name(),
            a.violations
        );
        assert!(
            a.violations.iter().all(|v| v.rule == rule),
            "{stem}: unexpected extra findings {:?}",
            a.violations
        );
    }
}

#[test]
fn transitive_seed_reports_its_call_site() {
    let a = analyze_source(LABEL, &fixture("hot_path_alloc_transitive_fires.rs"));
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert!(
        a.violations[0].message.contains("called from hot path at"),
        "transitive finding should name the hot call site: {:?}",
        a.violations
    );
}

#[test]
fn justified_waiver_silences_every_seed() {
    for (stem, _) in CASES {
        let a = analyze_source(LABEL, &fixture(&format!("{stem}_waived.rs")));
        assert!(
            a.violations.is_empty(),
            "{stem}: waived fixture still fires: {:?}",
            a.violations
        );
        assert!(
            a.waivers.iter().all(|w| w.used > 0),
            "{stem}: a fixture waiver suppressed nothing (would be stale)"
        );
    }
}

#[test]
fn unjustified_waiver_is_flagged_but_still_suppresses() {
    let a = analyze_source(LABEL, &fixture("waiver_justification_fires.rs"));
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert_eq!(a.violations[0].rule, RuleId::WaiverJustification);
}

#[test]
fn stale_waiver_is_flagged() {
    let a = analyze_source(LABEL, &fixture("stale_waiver_fires.rs"));
    assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
    assert_eq!(a.violations[0].rule, RuleId::StaleWaiver);
}
