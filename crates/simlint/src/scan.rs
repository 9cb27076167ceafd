//! Source scanning: token-driven analysis, waiver handling (with the
//! justification/staleness audit), and workspace traversal.
//!
//! The v2 scanner runs in two phases per crate:
//!
//! 1. **Lex + structure.** Every file is tokenized once ([`crate::lex`]);
//!    waiver/marker directives are pulled from the comment stream, and a
//!    [`crate::graph::CrateGraph`] is built over all the crate's files so
//!    `// simlint: hot-path` regions propagate one call level deep.
//! 2. **Match + audit.** Candidate findings come from the legacy line
//!    matchers (over the blanked `code_lines`) and the token matchers
//!    ([`crate::rules::check_tokens`]); each is scoped (test regions,
//!    kernel-only rules, hot regions) and then run through the waiver
//!    table. Afterwards the waivers themselves are audited: one lacking a
//!    justification fires `waiver-justification`, one that suppressed
//!    nothing fires `stale-waiver`.
//!
//! The scanner is a contract enforcer, not a compiler: it errs on the side
//! of *flagging*, and the (audited) waiver syntax exists for the rare
//! sanctioned exception.

use crate::graph::CrateGraph;
use crate::lex::{lex, LexedFile};
use crate::rules::{check_tokens, RuleId};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The single-threaded simulation kernel: the four simulation crates.
/// Kernel-only rules (`float-reduction`, `shared-mut-state`,
/// `panic-in-kernel`) apply just here: the driver layer legitimately uses
/// threads, locks, and unwraps on I/O paths, but the kernel must stay
/// panic-free, lock-free, and reduction-order-independent so a future
/// parallel-DES partition cannot diverge.
pub const KERNEL_ROOTS: [&str; 4] = [
    "crates/simcore",
    "crates/netsim",
    "crates/tcpsim",
    "crates/traffic",
];

/// The directories scanned, relative to the repository root: the
/// [`KERNEL_ROOTS`] plus `crates/core`, the driver layer (it holds no
/// per-run simulation state, but it orchestrates runs and computes results).
pub const ROOTS: [&str; 5] = [
    KERNEL_ROOTS[0],
    KERNEL_ROOTS[1],
    KERNEL_ROOTS[2],
    KERNEL_ROOTS[3],
    "crates/core",
];

/// True iff a reported file label falls under one of the [`KERNEL_ROOTS`].
fn is_kernel_file(label: &str) -> bool {
    KERNEL_ROOTS.iter().any(|r| {
        label
            .strip_prefix(r)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
    })
}

/// One determinism-contract violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// File the violation is in (workspace-relative when produced by
    /// [`check_workspace`]).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The rule that fired.
    pub rule: RuleId,
    /// What was found.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}: {} — {}\n    {}",
            self.file,
            self.line,
            self.rule.severity().name(),
            self.rule.name(),
            self.message,
            self.rule.explain(),
            self.snippet
        )
    }
}

/// Scope of one waiver directive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WaiverKind {
    /// `allow(rule)` — covers one code line.
    Line,
    /// `allow-file(rule)` — covers the whole file.
    File,
}

impl WaiverKind {
    /// The kind's name (`line` / `file`), as pinned by the waiver inventory.
    pub fn name(self) -> &'static str {
        match self {
            WaiverKind::Line => "line",
            WaiverKind::File => "file",
        }
    }
}

/// One `// simlint: allow(...)` directive, as found in the source.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// File the waiver is in.
    pub file: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// The rule name as written (kept even when unknown, for the audit).
    pub rule_name: String,
    /// The parsed rule, if the name is known.
    pub rule: Option<RuleId>,
    /// Line- or file-scoped.
    pub kind: WaiverKind,
    /// Justification text after the closing `)`, if any.
    pub justification: Option<String>,
    /// How many findings this waiver suppressed.
    pub used: usize,
}

/// Complete output of one analysis run: sorted violations plus the waiver
/// table (with usage counts).
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Violations, sorted by (file, line, rule name).
    pub violations: Vec<Violation>,
    /// Every waiver directive encountered, sorted by (file, line, rule).
    pub waivers: Vec<Waiver>,
}

/// Directives parsed from one comment.
#[derive(Default)]
struct Directives {
    /// `simlint: hot-path` — the next braced region is a dispatch path.
    hot_path: bool,
    /// `(kind, rule_name, justification)` triples from `allow*` forms.
    waivers: Vec<(WaiverKind, String, Option<String>)>,
}

/// Parses `simlint: allow(rule, ...): why` / `simlint: allow-file(...)` /
/// `simlint: hot-path` from comment text.
fn parse_directives(comment: &str) -> Directives {
    let mut d = Directives::default();
    let mut rest = comment;
    while let Some(i) = rest.find("simlint:") {
        let directive = rest[i + "simlint:".len()..].trim_start();
        rest = &rest[i + "simlint:".len()..];
        if let Some(after) = directive.strip_prefix("hot-path") {
            // Bare region marker (not the `hot-path-alloc` rule name).
            let next = after.chars().next();
            if !next.is_some_and(|c| c.is_alphanumeric() || c == '-' || c == '_') {
                d.hot_path = true;
                continue;
            }
        }
        let (kind, args) = if let Some(a) = directive.strip_prefix("allow-file(") {
            (WaiverKind::File, a)
        } else if let Some(a) = directive.strip_prefix("allow(") {
            (WaiverKind::Line, a)
        } else {
            continue;
        };
        let Some(end) = args.find(')') else { continue };
        // Justification: text after the `)` with separator punctuation
        // stripped. `allow(rule): why` and `allow(rule) — why` both work.
        let tail = args[end + 1..]
            .trim_start()
            .trim_start_matches([':', '-', '—', '–'])
            .trim();
        let justification = (!tail.is_empty()).then(|| tail.to_string());
        for name in args[..end].split(',') {
            let name = name.trim();
            if name.is_empty() {
                continue;
            }
            d.waivers
                .push((kind, name.to_string(), justification.clone()));
        }
    }
    d
}

/// Per-file directive extraction product.
struct FileDirectives {
    /// 1-based lines bearing a `hot-path` marker.
    marker_lines: Vec<usize>,
    /// Raw waivers with their directive line (pre-target-resolution).
    waivers: Vec<Waiver>,
}

fn extract_directives(label: &str, lf: &LexedFile) -> FileDirectives {
    let mut out = FileDirectives {
        marker_lines: Vec::new(),
        waivers: Vec::new(),
    };
    for c in &lf.comments {
        let d = parse_directives(&c.text);
        if d.hot_path {
            out.marker_lines.push(c.line);
        }
        for (kind, rule_name, justification) in d.waivers {
            let rule = RuleId::parse(&rule_name);
            out.waivers.push(Waiver {
                file: label.to_string(),
                line: c.line,
                rule,
                rule_name,
                kind,
                justification,
                used: 0,
            });
        }
    }
    out
}

/// True iff `line` (1-based) carries code (after comment/string blanking).
fn line_has_code(lf: &LexedFile, line: usize) -> bool {
    lf.code_lines
        .get(line - 1)
        .is_some_and(|l| !l.trim().is_empty())
}

/// The code line a line-waiver at `line` covers: the directive's own line
/// if it carries code, else the next line with code (comment-only waiver
/// lines arm the next statement, blank lines pass through).
fn waiver_target(lf: &LexedFile, line: usize) -> Option<usize> {
    if line_has_code(lf, line) {
        return Some(line);
    }
    ((line + 1)..=lf.code_lines.len()).find(|&l| line_has_code(lf, l))
}

/// A candidate finding before waiver filtering.
struct Candidate {
    line: usize,
    rule: RuleId,
    message: String,
}

/// Analyzes one crate: `sources[i]` has display label `labels[i]`. All
/// files are lexed together so `hot-path` propagation can cross files
/// within the crate.
fn analyze_crate(labels: &[&str], sources: &[&str]) -> Analysis {
    let lexed: Vec<LexedFile> = sources.iter().map(|s| lex(s)).collect();
    let lexed_refs: Vec<&LexedFile> = lexed.iter().collect();
    let directives: Vec<FileDirectives> = labels
        .iter()
        .zip(&lexed)
        .map(|(l, lf)| extract_directives(l, lf))
        .collect();
    let marker_lines: Vec<Vec<usize>> = directives.iter().map(|d| d.marker_lines.clone()).collect();
    let graph = CrateGraph::build(&lexed_refs, labels, &marker_lines);

    let mut analysis = Analysis::default();
    for (fi, (label, lf)) in labels.iter().zip(&lexed).enumerate() {
        let raw_lines: Vec<&str> = sources[fi].lines().collect();
        let snippet = |line: usize| {
            raw_lines
                .get(line - 1)
                .map(|l| l.trim().to_string())
                .unwrap_or_default()
        };
        let is_kernel = is_kernel_file(label);
        let hot_ranges = graph.hot_line_ranges(fi);
        let test_ranges = graph.test_line_ranges(fi);
        let in_test = |line: usize| test_ranges.iter().any(|&(a, b)| line >= a && line <= b);
        // Direct regions first (via = None), so a line both directly marked
        // and transitively hot reports without the "called from" suffix.
        let hot_via = |line: usize| -> Option<Option<&String>> {
            let mut best: Option<Option<&String>> = None;
            for (a, b, via) in &hot_ranges {
                if line >= *a && line <= *b {
                    match via {
                        None => return Some(None),
                        Some(v) => {
                            if best.is_none() {
                                best = Some(Some(v));
                            }
                        }
                    }
                }
            }
            best
        };

        // Phase A: collect candidates (line matchers + token matchers).
        let mut candidates: Vec<Candidate> = Vec::new();
        for (idx, code) in lf.code_lines.iter().enumerate() {
            if code.trim().is_empty() {
                continue;
            }
            for rule in RuleId::ALL {
                if let Some(message) = rule.check_line(code) {
                    candidates.push(Candidate {
                        line: idx + 1,
                        rule,
                        message,
                    });
                }
            }
        }
        for f in check_tokens(lf) {
            candidates.push(Candidate {
                line: f.line,
                rule: f.rule,
                message: f.message,
            });
        }

        // Scope filtering.
        let mut scoped: Vec<Candidate> = Vec::new();
        for mut c in candidates {
            if c.rule.skip_tests() && in_test(c.line) {
                continue;
            }
            if c.rule.kernel_only() && !is_kernel {
                continue;
            }
            if c.rule.hot_path_only() {
                match hot_via(c.line) {
                    None => continue,
                    Some(Some(via)) => {
                        c.message.push_str(&format!(" (called from hot path at {via})"));
                    }
                    Some(None) => {}
                }
            }
            scoped.push(c);
        }

        // Phase B: apply waivers. Line waivers index by resolved target
        // line; file waivers cover the whole file.
        let mut waivers = directives[fi].waivers.clone();
        let mut by_line: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut file_wide: Vec<usize> = Vec::new();
        for (wi, w) in waivers.iter().enumerate() {
            match w.kind {
                WaiverKind::File => file_wide.push(wi),
                WaiverKind::Line => {
                    if let Some(target) = waiver_target(lf, w.line) {
                        by_line.entry(target).or_default().push(wi);
                    }
                }
            }
        }
        for c in scoped {
            let line_hit = by_line
                .get(&c.line)
                .and_then(|ws| ws.iter().find(|&&wi| waivers[wi].rule == Some(c.rule)))
                .copied();
            let hit = line_hit.or_else(|| {
                file_wide
                    .iter()
                    .find(|&&wi| waivers[wi].rule == Some(c.rule))
                    .copied()
            });
            if let Some(wi) = hit {
                waivers[wi].used += 1;
                continue;
            }
            analysis.violations.push(Violation {
                file: label.to_string(),
                line: c.line,
                rule: c.rule,
                message: c.message,
                snippet: snippet(c.line),
            });
        }

        // Phase C: audit the waivers themselves.
        for w in &waivers {
            let audit = |rule: RuleId, message: String| Violation {
                file: label.to_string(),
                line: w.line,
                rule,
                message,
                snippet: snippet(w.line),
            };
            match w.rule {
                None => {
                    analysis.violations.push(audit(
                        RuleId::WaiverJustification,
                        format!("waiver names unknown rule `{}`", w.rule_name),
                    ));
                    continue;
                }
                Some(r) if r.is_meta() => {
                    analysis.violations.push(audit(
                        RuleId::WaiverJustification,
                        format!("meta rule `{}` cannot be waived", w.rule_name),
                    ));
                    continue;
                }
                Some(_) if w.justification.is_none() => {
                    analysis.violations.push(audit(
                        RuleId::WaiverJustification,
                        format!(
                            "waiver for `{}` lacks a justification (`… allow({}): why`)",
                            w.rule_name, w.rule_name
                        ),
                    ));
                }
                Some(_) => {}
            }
            if w.used == 0 {
                analysis.violations.push(audit(
                    RuleId::StaleWaiver,
                    format!(
                        "stale waiver: `{}` would not fire here any more",
                        w.rule_name
                    ),
                ));
            }
        }
        analysis.waivers.extend(waivers);
    }
    analysis.sort();
    analysis
}

impl Analysis {
    /// Sorts violations by (file, line, rule name) and waivers by
    /// (file, line, rule name) — the deterministic listing order.
    fn sort(&mut self) {
        self.violations
            .sort_by(|a, b| (&a.file, a.line, a.rule.name()).cmp(&(&b.file, b.line, b.rule.name())));
        self.waivers
            .sort_by(|a, b| (&a.file, a.line, &a.rule_name).cmp(&(&b.file, b.line, &b.rule_name)));
    }
}

/// Lints one source file's text (treated as a one-file crate). `label` is
/// used as the file name in reported violations and decides whether
/// kernel-only rules apply (a label under one of the [`KERNEL_ROOTS`]).
pub fn check_source(label: &str, source: &str) -> Vec<Violation> {
    analyze_source(label, source).violations
}

/// Full analysis (violations + waiver table) of one source file.
pub fn analyze_source(label: &str, source: &str) -> Analysis {
    analyze_crate(&[label], &[source])
}

/// Recursively collects `.rs` files under `dir`, sorted for deterministic
/// report order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Analyzes every `.rs` file under the [`ROOTS`]. Each root is one crate for
/// call-graph purposes (hot-path propagation does not cross roots).
///
/// `workspace_root` is the repository root; reported file names are
/// relative to it.
pub fn analyze_workspace(workspace_root: &Path) -> io::Result<Analysis> {
    let mut analysis = Analysis::default();
    for root in ROOTS {
        let dir = workspace_root.join(root);
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("scan root `{root}` not found under {}", workspace_root.display()),
            ));
        }
        let mut files = Vec::new();
        rust_files(&dir, &mut files)?;
        let mut labels = Vec::new();
        let mut sources = Vec::new();
        for path in &files {
            sources.push(std::fs::read_to_string(path)?);
            labels.push(
                path.strip_prefix(workspace_root)
                    .unwrap_or(path)
                    .display()
                    .to_string(),
            );
        }
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let source_refs: Vec<&str> = sources.iter().map(String::as_str).collect();
        let crate_analysis = analyze_crate(&label_refs, &source_refs);
        analysis.violations.extend(crate_analysis.violations);
        analysis.waivers.extend(crate_analysis.waivers);
    }
    analysis.sort();
    Ok(analysis)
}

/// Lints every `.rs` file under the [`ROOTS`] (violations only; see
/// [`analyze_workspace`] for the full product).
pub fn check_workspace(workspace_root: &Path) -> io::Result<Vec<Violation>> {
    Ok(analyze_workspace(workspace_root)?.violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Violation> {
        check_source("test.rs", src)
    }

    /// Lint under a kernel-crate label, so kernel-only rules apply.
    fn lint_kernel(src: &str) -> Vec<Violation> {
        check_source("crates/simcore/src/x.rs", src)
    }

    #[test]
    fn fixture_hash_iteration_is_flagged() {
        // The seeded violation fixture: HashMap iteration in sim-style code.
        let fixture = include_str!("../fixtures/hash_iteration.rs");
        let violations = lint(fixture);
        assert!(
            violations.iter().any(|v| v.rule == RuleId::HashContainer),
            "fixture must trip hash-container: {violations:?}"
        );
        // Both the `use` and the type mention are flagged.
        assert!(violations.len() >= 2, "{violations:?}");
        assert!(violations.iter().all(|v| v.file == "test.rs"));
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let src = r#"
            //! HashMap is banned here; Instant::now too.
            /* also HashMap in block comments,
               even SystemTime across lines */
            fn f() -> String {
                let msg = "HashMap and thread_rng in a string";
                let c = '"';
                msg.to_string()
            }
        "#;
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn raw_string_contents_do_not_trip_rules() {
        // Regression: the line-based scanner treated the `"` after `r#` as
        // a plain string opener, so everything after the first interior `"`
        // leaked back into "code" and could both fire false positives and
        // swallow real code.
        let src = r####"
            fn schema() -> &'static str {
                r#"{"container": "HashMap", "clock": "Instant::now"}"#
            }
        "####;
        assert!(lint(src).is_empty(), "{:?}", lint(src));
        // …and code *after* a raw string on the same line is still linted.
        let src2 = r####"let s = r#"note: "x" here"#; use std::collections::HashMap;"####;
        let v = lint(src2);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::HashContainer);
    }

    #[test]
    fn line_waiver_same_line_and_next_line() {
        let src = "
            use std::collections::HashMap; // simlint: allow(hash-container): test
            // simlint: allow(hash-container): test
            let m: HashMap<u32, u32> = HashMap::new();
            let bad: HashMap<u32, u32> = HashMap::new();
        ";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn file_waiver_covers_whole_file() {
        let src = "
            // simlint: allow-file(lossy-cast): wire-format module, test
            fn to_wire(seq: u64) -> u32 { seq as u32 }
            fn also(seq: u64) -> u16 { seq as u16 }
        ";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
        // …but only the waived rule; an unused file waiver is also stale.
        let src2 = "
            // simlint: allow-file(lossy-cast): test
            use std::collections::HashMap;
        ";
        let v = lint(src2);
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().any(|v| v.rule == RuleId::HashContainer));
        assert!(v.iter().any(|v| v.rule == RuleId::StaleWaiver));
    }

    #[test]
    fn kernel_roots_match_whole_path_components() {
        assert!(is_kernel_file("crates/simcore/src/lib.rs"));
        assert!(is_kernel_file("crates/netsim/src/queue.rs"));
        assert!(!is_kernel_file("crates/core/src/exec.rs"));
        assert!(!is_kernel_file("crates/simcore2/src/lib.rs"));
        assert!(!is_kernel_file("test.rs"));
    }

    #[test]
    fn wall_clock_applies_inside_cfg_test_modules() {
        let src = "
            fn prod(t: SimTime) { let _ = t; }
            #[cfg(test)]
            mod tests {
                use std::time::Instant;
                fn helper() { let _t = Instant::now(); }
            }
            fn late() { let _x = std::time::Instant::now(); }
        ";
        // Test code is linted too (the bare `use` doesn't match — only the
        // `Instant::now` call sites do).
        assert_eq!(lint(src).len(), 2);
    }

    #[test]
    fn violation_display_is_informative() {
        let v = &lint("use std::collections::HashSet;")[0];
        let s = v.to_string();
        assert!(s.starts_with("test.rs:1 [deny] hash-container: "), "{s}");
        assert!(s.contains("HashSet"));
    }

    #[test]
    fn hot_path_alloc_only_fires_inside_marked_regions() {
        // Setup code allocates freely; the marked dispatch body does not.
        let src = "
            fn setup() -> Vec<u32> {
                let v = Vec::with_capacity(16);
                v
            }
            // simlint: hot-path
            fn on_event(&mut self) {
                let acts: Vec<Action> = Vec::new();
                self.apply(acts);
            }
            fn teardown(b: Thing) -> Box<Thing> { Box::new(b) }
        ";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::HotPathAlloc);
        assert_eq!(v[0].line, 8);
    }

    #[test]
    fn hot_path_region_ends_at_closing_brace_and_nests() {
        let src = "
            // simlint: hot-path
            fn dispatch(&mut self) {
                match ev {
                    Ev::A => { let b = Box::new(1); }
                }
            }
            fn after() { let v = vec![1, 2]; }
        ";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn hot_path_alloc_is_waivable_per_line() {
        let src = "
            // simlint: hot-path — RTO slow path, fires once per timeout
            fn on_rto(&mut self) {
                let spill = Vec::with_capacity(4); // simlint: allow(hot-path-alloc): RTO is off the per-ACK path
                self.spill = spill;
            }
        ";
        assert!(lint(src).is_empty(), "{:?}", lint(src));
    }

    #[test]
    fn hot_path_marker_survives_attribute_lines() {
        // Marker above `#[inline]` still binds to the function body brace.
        let src = "
            // simlint: hot-path
            #[inline]
            fn pop(&mut self) -> Option<E> {
                let v = Vec::new();
                v.pop()
            }
        ";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn char_literals_do_not_break_string_state() {
        // A `'"'` char literal must not open a string that swallows code.
        let src = "let q = '\"'; use std::collections::HashMap;";
        assert_eq!(lint(src).len(), 1);
    }

    #[test]
    fn transitive_hot_path_alloc_is_caught() {
        // The allocation sits in an unmarked helper *called from* a marked
        // region — the interprocedural pass must flag it and name the call
        // site.
        let src = "
            // simlint: hot-path
            fn dispatch(&mut self) {
                self.flush_batch();
            }
            fn flush_batch(&mut self) {
                let staged: Vec<Ev> = Vec::new();
                self.commit(staged);
            }
            fn cold_setup(&mut self) {
                let v: Vec<Ev> = Vec::new();
                self.commit(v);
            }
        ";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::HotPathAlloc);
        assert_eq!(v[0].line, 7);
        assert!(
            v[0].message.contains("called from hot path at test.rs:4"),
            "{}",
            v[0].message
        );
    }

    #[test]
    fn waiver_without_justification_is_flagged() {
        let src = "
            use std::collections::HashMap; // simlint: allow(hash-container)
        ";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::WaiverJustification);
        // The waiver still suppresses — justification is a parallel audit,
        // not a revocation (otherwise one missing word doubles the noise).
        assert!(v.iter().all(|v| v.rule != RuleId::HashContainer));
    }

    #[test]
    fn stale_waiver_is_flagged() {
        let src = "
            let x = compute(); // simlint: allow(hash-container): long gone
        ";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::StaleWaiver);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn unknown_rule_waiver_is_flagged() {
        let src = "let x = 1; // simlint: allow(hash-contanier): typo";
        let v = lint(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::WaiverJustification);
        assert!(v[0].message.contains("unknown rule"));
    }

    #[test]
    fn meta_rules_cannot_be_waived() {
        let src = "let x = 1; // simlint: allow(stale-waiver): nope";
        let v = lint(src);
        assert!(
            v.iter()
                .any(|v| v.rule == RuleId::WaiverJustification
                    && v.message.contains("cannot be waived")),
            "{v:?}"
        );
    }

    #[test]
    fn kernel_only_rules_scope_by_label() {
        let src = "fn f(q: &mut Q) { let x = q.pop().unwrap(); }";
        // Non-kernel label: panic-in-kernel does not apply.
        assert!(lint(src).is_empty(), "{:?}", lint(src));
        // Kernel label: it does.
        let v = lint_kernel(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::PanicInKernel);
    }

    #[test]
    fn panic_in_kernel_skips_tests_by_default() {
        let src = "
            fn prod(q: &mut Q) -> u32 { q.pop().expect(\"caller checked\") }
            #[cfg(test)]
            mod tests {
                #[test]
                fn case() { assert_eq!(run().unwrap(), 3); }
            }
        ";
        let v = lint_kernel(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn token_rules_run_through_check_source() {
        let v = lint("fn f(m: &HashMap<u32, u32>) { for k in m.keys() { use_it(k); } }");
        assert!(v.iter().any(|v| v.rule == RuleId::UnorderedIter), "{v:?}");
        let v = lint("fn s(v: &mut Vec<P>) { v.sort_unstable_by_key(|p| p.w); }");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::UnstableSortTiebreak);
        let v = lint_kernel("fn m() -> f64 { let xs = [1.0]; xs.iter().sum::<f64>() }");
        assert!(v.iter().any(|v| v.rule == RuleId::FloatReduction), "{v:?}");
        let v = lint_kernel("static mut LAST: u64 = 0;");
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, RuleId::SharedMutState);
    }

    #[test]
    fn waiver_usage_counts_are_tracked() {
        let src = "
            // simlint: allow-file(hash-container): interop shim, test only
            use std::collections::HashMap;
            fn f() -> HashMap<u32, u32> { HashMap::new() }
        ";
        let a = analyze_source("test.rs", src);
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(a.waivers.len(), 1);
        assert!(a.waivers[0].used >= 2, "{:?}", a.waivers);
        assert_eq!(a.waivers[0].kind, WaiverKind::File);
        assert_eq!(a.waivers[0].line, 2);
    }

    #[test]
    fn violations_are_sorted_by_file_line_rule() {
        let src = "
            fn f(q: &mut Q) {
                let b = q.pop().unwrap();
                use_it(std::collections::HashMap::<u32, u32>::new());
            }
        ";
        let v = lint_kernel(src);
        let keys: Vec<(usize, &str)> = v.iter().map(|v| (v.line, v.rule.name())).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "{v:?}");
    }
}
