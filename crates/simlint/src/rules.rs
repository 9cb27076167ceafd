//! The determinism-contract rules: identifiers, severities, and matchers.
//!
//! Two matcher families coexist:
//!
//! * **Line matchers** ([`RuleId::check_line`]) operate on one line of
//!   comment/string-stripped code (produced by the lexer, see
//!   [`crate::lex`]) — the original rules keep their battle-tested
//!   spacing-sensitive patterns.
//! * **Token matchers** ([`check_tokens`]) operate on the whole file's
//!   token stream — the v2 rules (`unordered-iter`, `float-reduction`,
//!   `unstable-sort-tiebreak`, `shared-mut-state`, `panic-in-kernel`) need
//!   cross-token context (turbofish types, argument spans, local taint)
//!   that a single line cannot carry.
//!
//! Severities: a `deny` rule breaks determinism *today*; a `warn` rule
//! breaks it under planned work (parallel-DES float reductions) or is a
//! robustness hazard (kernel panics). Both count as violations — the
//! contract is zero unwaived findings; the severity is a fixed per-rule
//! label on each finding, not a setting.

use crate::lex::{LexedFile, Spanned, Tok};
use std::collections::BTreeSet;

/// Violation severity, attached to every finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Breaks the determinism contract as the code stands.
    Deny,
    /// Breaks determinism under planned parallel-DES work, or is a
    /// robustness hazard on the dispatch path.
    Warn,
}

impl Severity {
    /// The severity's name as printed in findings.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// Identifies one rule of the determinism contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// D1: no `HashMap`/`HashSet` — hashed iteration order is seeded per
    /// process and therefore nondeterministic.
    HashContainer,
    /// D2: no wall-clock or OS entropy inside simulation code.
    WallClock,
    /// D3: no lossy `as` casts on sequence numbers / byte counters.
    LossyCast,
    /// D4: no raw float equality on simulated time.
    FloatTimeEq,
    /// D5: no `println!`/`eprintln!`/`dbg!` in simulation code — ad-hoc
    /// prints bypass the structured observability layer (telemetry, packet
    /// log, spans, forensics) and their cost is invisible to the profiler.
    PrintMacro,
    /// D6: no `Box::new`/`Vec::new`/`format!`/`String::new` inside a
    /// per-event dispatch region
    /// (a function marked `// simlint: hot-path`) **or inside any function
    /// called from one, one level deep within the crate** (the
    /// interprocedural pass, see [`crate::graph`]). These paths run once
    /// per simulated event; a heap allocation there dominates the event
    /// loop. Allocate at setup time and reuse.
    HotPathAlloc,
    /// D7: no iteration over hash-ordered containers, even through
    /// generics (`BuildHasher`/`RandomState` bounds, `hash_map::` iterator
    /// types, `.iter()`/`.keys()`/`for … in` on a hash-typed binding).
    UnorderedIter,
    /// D8: no order-sensitive float reductions (`.sum::<f64>()`, float
    /// `fold`) in kernel crates — float addition is non-associative, so a
    /// future parallel-DES partition would change the result bit pattern.
    FloatReduction,
    /// D9: `sort_unstable_by*` must supply a total tie-break (a `.then*`
    /// chain or a composite tuple key); without one, elements comparing
    /// equal keep whatever relative order the input happened to have.
    UnstableSortTiebreak,
    /// D10: no shared mutable state in kernel crates — `static mut`,
    /// `Mutex`/`RwLock`/`Condvar`, or `Relaxed` atomic orderings. The
    /// simulation crates are single-threaded by contract; shared state is
    /// how a future parallel-DES run silently diverges.
    SharedMutState,
    /// D11: no `unwrap`/`expect`/`panic!` family on non-test kernel code.
    /// A panic mid-dispatch tears down the whole sweep cell and loses the
    /// packet log that would explain it; use invariant-documented `expect`
    /// under a justified waiver, or a structured error.
    PanicInKernel,
    /// M1 (meta): every waiver must carry a justification suffix
    /// (`// simlint: allow(rule): why`), and the rule list must parse.
    WaiverJustification,
    /// M2 (meta): a waiver whose rule no longer fires on the waived scope
    /// is *stale* and must be removed.
    StaleWaiver,
}

impl RuleId {
    /// All rules, in canonical order.
    pub const ALL: [RuleId; 13] = [
        RuleId::HashContainer,
        RuleId::WallClock,
        RuleId::LossyCast,
        RuleId::FloatTimeEq,
        RuleId::PrintMacro,
        RuleId::HotPathAlloc,
        RuleId::UnorderedIter,
        RuleId::FloatReduction,
        RuleId::UnstableSortTiebreak,
        RuleId::SharedMutState,
        RuleId::PanicInKernel,
        RuleId::WaiverJustification,
        RuleId::StaleWaiver,
    ];

    /// The rule's name as used in findings and waiver comments.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::HashContainer => "hash-container",
            RuleId::WallClock => "wall-clock",
            RuleId::LossyCast => "lossy-cast",
            RuleId::FloatTimeEq => "float-time-eq",
            RuleId::PrintMacro => "print-macro",
            RuleId::HotPathAlloc => "hot-path-alloc",
            RuleId::UnorderedIter => "unordered-iter",
            RuleId::FloatReduction => "float-reduction",
            RuleId::UnstableSortTiebreak => "unstable-sort-tiebreak",
            RuleId::SharedMutState => "shared-mut-state",
            RuleId::PanicInKernel => "panic-in-kernel",
            RuleId::WaiverJustification => "waiver-justification",
            RuleId::StaleWaiver => "stale-waiver",
        }
    }

    /// The rule's severity.
    pub fn severity(self) -> Severity {
        match self {
            RuleId::FloatReduction | RuleId::PanicInKernel => Severity::Warn,
            _ => Severity::Deny,
        }
    }

    /// Whether `#[cfg(test)]` code is exempt. `panic-in-kernel` skips
    /// tests (tests *should* unwrap), as does
    /// `float-reduction` (test statistics helpers sum sampled floats to
    /// compare against tolerances — no parallel-DES partition will ever run
    /// them). Every other rule guards test determinism too.
    pub fn skip_tests(self) -> bool {
        matches!(self, RuleId::PanicInKernel | RuleId::FloatReduction)
    }

    /// Whether this rule only applies to files under
    /// [`crate::KERNEL_ROOTS`] (the single-threaded simulation crates), as
    /// opposed to every scanned root.
    pub fn kernel_only(self) -> bool {
        matches!(
            self,
            RuleId::FloatReduction | RuleId::SharedMutState | RuleId::PanicInKernel
        )
    }

    /// Whether this rule only applies inside hot-path regions (directly
    /// marked or transitively reached; region tracking lives in the
    /// scanner).
    pub fn hot_path_only(self) -> bool {
        matches!(self, RuleId::HotPathAlloc)
    }

    /// Meta rules audit the waivers themselves; they cannot be waived and
    /// never match source constructs.
    pub fn is_meta(self) -> bool {
        matches!(self, RuleId::WaiverJustification | RuleId::StaleWaiver)
    }

    /// Parses a rule name (as written in waivers).
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL.into_iter().find(|r| r.name() == s)
    }

    /// One-line explanation attached to violation reports.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::HashContainer => {
                "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet/Vec"
            }
            RuleId::WallClock => {
                "wall-clock/OS entropy breaks seed reproducibility; use SimTime and simcore::Rng"
            }
            RuleId::LossyCast => {
                "lossy `as` cast on a sequence/byte quantity; use the wrap-safe helpers in tcpsim::seq or widen"
            }
            RuleId::FloatTimeEq => {
                "raw float equality on simulated time; compare SimTime (integer ns) or use simcore::time helpers"
            }
            RuleId::PrintMacro => {
                "ad-hoc print in simulation code; record through telemetry/spans/forensics so output stays structured and the profiler sees the cost"
            }
            RuleId::HotPathAlloc => {
                "heap allocation on a per-event dispatch path (marked or called from one); preallocate at setup and reuse, or waive if provably amortized"
            }
            RuleId::UnorderedIter => {
                "iteration order of hash-based containers is per-process random, even behind generics; iterate a BTree/Vec or sort first"
            }
            RuleId::FloatReduction => {
                "float reduction order changes the result bit pattern; a parallel-DES partition would diverge — reduce over integers, use a fixed tree, or waive setup-time scalars"
            }
            RuleId::UnstableSortTiebreak => {
                "unstable sort with a non-total comparator lets equal elements keep input order; add a `.then*` tie-break or a composite tuple key"
            }
            RuleId::SharedMutState => {
                "shared mutable state (static mut / locks / Relaxed atomics) has no place in the single-threaded kernel; thread state through &mut or the driver layer"
            }
            RuleId::PanicInKernel => {
                "a kernel panic tears down the sweep cell and its packet log; return a structured error or document the invariant with an expect + justified waiver"
            }
            RuleId::WaiverJustification => {
                "every waiver must say why: `// simlint: allow(rule): justification`"
            }
            RuleId::StaleWaiver => {
                "this waiver no longer suppresses anything; remove it so dead waivers cannot hide future regressions"
            }
        }
    }

    /// Runs this rule's *line* matcher against one line of stripped code.
    /// Token-matched and meta rules return `None` here.
    pub fn check_line(self, code: &str) -> Option<String> {
        match self {
            RuleId::HashContainer => check_hash_container(code),
            RuleId::WallClock => check_wall_clock(code),
            RuleId::LossyCast => check_lossy_cast(code),
            RuleId::FloatTimeEq => check_float_time_eq(code),
            RuleId::PrintMacro => check_print_macro(code),
            RuleId::HotPathAlloc => check_hot_path_alloc(code),
            _ => None,
        }
    }
}

/// A candidate finding from a token matcher (waivers and scoping are
/// applied by the scanner).
#[derive(Clone, Debug)]
pub struct TokenFinding {
    /// 1-based line of the construct.
    pub line: usize,
    /// The rule that matched.
    pub rule: RuleId,
    /// What was found.
    pub message: String,
}

/// Runs every token-family rule over one lexed file.
pub fn check_tokens(lf: &LexedFile) -> Vec<TokenFinding> {
    let mut out = Vec::new();
    check_unordered_iter(lf, &mut out);
    check_float_reduction(lf, &mut out);
    check_unstable_sort(lf, &mut out);
    check_shared_mut_state(lf, &mut out);
    check_panic_in_kernel(lf, &mut out);
    // One finding per (line, rule): several heuristics of the same rule can
    // recognize the same construct (a `for` loop over `m.iter()` matches
    // both the loop and the method matcher); reporting it once keeps the
    // fix-one-see-next loop sane and the listing stable.
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out.dedup_by(|a, b| (a.line, a.rule) == (b.line, b.rule));
    out
}

/// True iff `hay[i..]` starts with `needle` at an identifier boundary on
/// both sides.
fn word_at(hay: &str, i: usize, needle: &str) -> bool {
    if !hay[i..].starts_with(needle) {
        return false;
    }
    let before_ok = i == 0
        || !hay[..i]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after = hay[i + needle.len()..].chars().next();
    let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// Finds `needle` in `hay` as a whole identifier/path segment.
fn find_word(hay: &str, needle: &str) -> Option<usize> {
    let mut start = 0;
    while let Some(off) = hay[start..].find(needle) {
        let i = start + off;
        if word_at(hay, i, needle) {
            return Some(i);
        }
        start = i + 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Line matchers (v1 rules).
// ---------------------------------------------------------------------------

fn check_hash_container(code: &str) -> Option<String> {
    for banned in ["HashMap", "HashSet"] {
        if find_word(code, banned).is_some() {
            return Some(format!("use of `{banned}`"));
        }
    }
    None
}

fn check_wall_clock(code: &str) -> Option<String> {
    // Path-shaped patterns: the leading segment must sit at an identifier
    // boundary, so e.g. `MySystemTimer` does not match `SystemTime`.
    for banned in [
        "Instant::now",
        "SystemTime",
        "thread_rng",
        "std::thread",
        "rand::",
    ] {
        let head = banned.split(':').next().expect("non-empty pattern");
        let mut start = 0;
        while let Some(off) = code[start..].find(banned) {
            let i = start + off;
            if word_at(code, i, head) {
                return Some(format!("use of `{banned}`"));
            }
            start = i + 1;
        }
    }
    None
}

/// Integer types an `as` cast may truncate into.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Identifier fragments that mark a value as a sequence number, byte
/// counter, or packet uid — the quantities whose truncation silently
/// corrupts long simulations.
const SENSITIVE: [&str; 3] = ["seq", "byte", "uid"];

fn check_lossy_cast(code: &str) -> Option<String> {
    let mut start = 0;
    while let Some(off) = code[start..].find(" as ") {
        let i = start + off;
        let after = &code[i + 4..];
        let ty = after
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .next()
            .unwrap_or("");
        if NARROW_INTS.contains(&ty) {
            // Look at the expression text feeding the cast (bounded window:
            // this is a line-local heuristic, not a type checker).
            let window_start = i.saturating_sub(48);
            let expr = code[window_start..i].to_ascii_lowercase();
            for frag in SENSITIVE {
                if expr.contains(frag) {
                    return Some(format!(
                        "narrowing cast `as {ty}` on a `{frag}`-like quantity"
                    ));
                }
            }
        }
        start = i + 4;
    }
    None
}

fn check_float_time_eq(code: &str) -> Option<String> {
    let projects_time = code.contains("as_secs_f64") || code.contains("as_millis_f64");
    if projects_time {
        // `==`/`!=` on the same line as a float projection of SimTime.
        // `>=`/`<=` are fine (ordering survives the f64 projection for the
        // ranges a simulation uses); equality does not.
        let b = code.as_bytes();
        for i in 0..b.len().saturating_sub(1) {
            if b[i] == b'!' && b[i + 1] == b'=' {
                return Some("float `!=` on a SimTime projection".to_string());
            }
            if b[i] == b'=' && b[i + 1] == b'=' {
                let prev = if i == 0 { b' ' } else { b[i - 1] };
                if !matches!(prev, b'<' | b'>' | b'=' | b'!') {
                    return Some("float `==` on a SimTime projection".to_string());
                }
            }
        }
    }
    None
}

fn check_print_macro(code: &str) -> Option<String> {
    for banned in ["println", "eprintln", "dbg"] {
        let mut start = 0;
        while let Some(off) = code[start..].find(banned) {
            let i = start + off;
            if word_at(code, i, banned) && code[i + banned.len()..].starts_with('!') {
                return Some(format!("use of `{banned}!`"));
            }
            start = i + 1;
        }
    }
    None
}

fn check_hot_path_alloc(code: &str) -> Option<String> {
    // Only the unambiguous allocator entry points: `Box::new(…)`,
    // `Vec::new(`/`Vec::with_capacity(` and `String::new(`/`String::from(`
    // spelled as path calls, plus the `vec!` and `format!` macros (a series
    // name built per sample is a heap allocation per sample). Growth of an
    // existing buffer (`push` on a reused scratch Vec) is amortized and
    // deliberately out of scope — the rule targets a *fresh* allocation per
    // dispatched event.
    const BANNED: [&str; 7] = [
        "Box::new",
        "Vec::new",
        "Vec::with_capacity",
        "vec!",
        "format!",
        "String::new",
        "String::from",
    ];
    for banned in BANNED {
        let head = banned.split(|c| c == ':' || c == '!').next().expect("non-empty");
        let mut start = 0;
        while let Some(off) = code[start..].find(banned) {
            let i = start + off;
            let tail = code[i + banned.len()..].chars().next();
            let tail_ok = !tail.is_some_and(|c| c.is_alphanumeric() || c == '_');
            if word_at(code, i, head) && tail_ok {
                return Some(format!("`{banned}` in a hot dispatch path"));
            }
            start = i + 1;
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Token matchers (v2 rules).
// ---------------------------------------------------------------------------

/// Hash-ordered container type names (including the common external
/// aliases, so a rename cannot smuggle one in).
const HASH_TYPES: [&str; 6] = [
    "HashMap", "HashSet", "FxHashMap", "FxHashSet", "AHashMap", "AHashSet",
];

/// Iteration methods whose order is observable.
const ITER_METHODS: [&str; 9] = [
    "iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "into_keys",
    "into_values", "drain",
];

fn ident_is<'a>(toks: &'a [Spanned], i: usize) -> Option<&'a str> {
    toks.get(i).and_then(|t| t.tok.ident())
}

fn is_punct(toks: &[Spanned], i: usize, c: char) -> bool {
    toks.get(i).is_some_and(|t| t.tok.is_punct(c))
}

fn check_unordered_iter(lf: &LexedFile, out: &mut Vec<TokenFinding>) {
    let toks = &lf.toks;

    // Pass 1: taint local bindings and parameters whose declared type or
    // initializer mentions a hash container. Two shapes:
    //   `let [mut] name … ;` with a hash type before the `;`
    //   `name : …HashType…` up to `,` / `)` / `{` / `=` (params, fields)
    let mut tainted: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        if ident_is(toks, i) == Some("let") {
            let mut j = i + 1;
            if ident_is(toks, j) == Some("mut") {
                j += 1;
            }
            let Some(name) = ident_is(toks, j) else { continue };
            // Scan the statement for a hash type (bounded).
            for t in toks.iter().skip(j + 1).take(48) {
                match &t.tok {
                    Tok::Punct(';') => break,
                    Tok::Ident(s) if HASH_TYPES.contains(&s.as_str()) => {
                        tainted.insert(name);
                        break;
                    }
                    _ => {}
                }
            }
        } else if is_punct(toks, i + 1, ':') && !is_punct(toks, i + 2, ':') && !is_punct(toks, i, ':')
        {
            let Some(name) = ident_is(toks, i) else { continue };
            for t in toks.iter().skip(i + 2).take(32) {
                match &t.tok {
                    Tok::Punct(',') | Tok::Punct(')') | Tok::Punct('{') | Tok::Punct(';')
                    | Tok::Punct('=') => break,
                    Tok::Ident(s) if HASH_TYPES.contains(&s.as_str()) => {
                        tainted.insert(name);
                        break;
                    }
                    _ => {}
                }
            }
        }
    }

    for i in 0..toks.len() {
        let Some(name) = ident_is(toks, i) else { continue };
        let line = toks[i].line;

        // Hash-generic bounds and hasher types: code generic over the
        // hasher can iterate a HashMap it never names.
        if name == "BuildHasher" || name == "RandomState" {
            out.push(TokenFinding {
                line,
                rule: RuleId::UnorderedIter,
                message: format!("hash-generic type/bound `{name}`"),
            });
            continue;
        }
        // Hash iterator modules (`std::collections::hash_map::Iter`, …).
        if name == "hash_map" || name == "hash_set" {
            out.push(TokenFinding {
                line,
                rule: RuleId::UnorderedIter,
                message: format!("hash-ordered iterator module `{name}`"),
            });
            continue;
        }

        // `receiver.iter()`-family where the receiver chain mentions a hash
        // type or tainted binding.
        if ITER_METHODS.contains(&name)
            && i >= 2
            && is_punct(toks, i - 1, '.')
            && is_punct(toks, i + 1, '(')
        {
            // Walk the receiver chain backwards (bounded) to a statement
            // boundary.
            let start = i.saturating_sub(24);
            let mut hash_receiver = None;
            for k in (start..i - 1).rev() {
                match &toks[k].tok {
                    Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('=') => break,
                    Tok::Ident(s) if HASH_TYPES.contains(&s.as_str()) => {
                        hash_receiver = Some(s.clone());
                        break;
                    }
                    Tok::Ident(s) if tainted.contains(s.as_str()) => {
                        hash_receiver = Some(s.clone());
                        break;
                    }
                    _ => {}
                }
            }
            if let Some(recv) = hash_receiver {
                out.push(TokenFinding {
                    line,
                    rule: RuleId::UnorderedIter,
                    message: format!("`.{name}()` over hash-ordered `{recv}`"),
                });
                continue;
            }
        }

        // `for x in <expr mentioning hash/tainted>` up to the body `{`.
        if name == "for" {
            let mut j = i + 1;
            let mut saw_in = false;
            let mut hash_src = None;
            while j < toks.len() && j < i + 48 {
                match &toks[j].tok {
                    Tok::Ident(s) if s == "in" => saw_in = true,
                    Tok::Punct('{') if saw_in => break,
                    Tok::Punct(';') => break,
                    Tok::Ident(s)
                        if saw_in
                            && (HASH_TYPES.contains(&s.as_str())
                                || tainted.contains(s.as_str())) =>
                    {
                        hash_src = Some(s.clone());
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(src) = hash_src {
                out.push(TokenFinding {
                    line,
                    rule: RuleId::UnorderedIter,
                    message: format!("`for … in` over hash-ordered `{src}`"),
                });
            }
        }
    }
}

fn check_float_reduction(lf: &LexedFile, out: &mut Vec<TokenFinding>) {
    let toks = &lf.toks;
    for i in 0..toks.len() {
        let Some(name) = ident_is(toks, i) else { continue };
        // Only method position (`.sum`, `.fold`); free fns are fine.
        if i == 0 || !is_punct(toks, i - 1, '.') {
            continue;
        }
        let line = toks[i].line;
        match name {
            "sum" | "product" => {
                // `.sum::<f64>()` — turbofish float type.
                if is_punct(toks, i + 1, ':')
                    && is_punct(toks, i + 2, ':')
                    && is_punct(toks, i + 3, '<')
                    && matches!(ident_is(toks, i + 4), Some("f64") | Some("f32"))
                {
                    out.push(TokenFinding {
                        line,
                        rule: RuleId::FloatReduction,
                        message: format!(
                            "`.{name}::<{}>()` — order-sensitive float reduction",
                            ident_is(toks, i + 4).expect("matched")
                        ),
                    });
                }
            }
            "fold" => {
                if !is_punct(toks, i + 1, '(') {
                    continue;
                }
                // Scan the argument span for a float accumulator and an
                // additive/multiplicative combine.
                let mut depth = 0i64;
                let mut has_float = false;
                let mut has_combine = false;
                for t in toks.iter().skip(i + 1) {
                    match &t.tok {
                        Tok::Punct('(') => depth += 1,
                        Tok::Punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        Tok::Float => has_float = true,
                        Tok::Punct('+') | Tok::Punct('*') => has_combine = true,
                        _ => {}
                    }
                }
                if has_float && has_combine {
                    out.push(TokenFinding {
                        line,
                        rule: RuleId::FloatReduction,
                        message: "float `fold` accumulation — order-sensitive".to_string(),
                    });
                }
            }
            _ => {}
        }
    }
}

fn check_unstable_sort(lf: &LexedFile, out: &mut Vec<TokenFinding>) {
    let toks = &lf.toks;
    for i in 0..toks.len() {
        let Some(name) = ident_is(toks, i) else { continue };
        if name != "sort_unstable_by" && name != "sort_unstable_by_key" {
            continue;
        }
        if !is_punct(toks, i + 1, '(') {
            continue;
        }
        // Scan the comparator/key span: a total tie-break is either a
        // `.then*` chain or a composite key/comparand — a `,` inside inner
        // parens (tuple) at depth ≥ 2 relative to the call.
        let mut depth = 0i64;
        let mut tie_break = false;
        for (off, t) in toks.iter().skip(i + 1).enumerate() {
            match &t.tok {
                Tok::Punct('(') => depth += 1,
                Tok::Punct(')') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                Tok::Punct(',') if depth >= 2 => tie_break = true,
                Tok::Ident(s) if s == "then" || s == "then_with" || s == "then_cmp" => {
                    tie_break = true
                }
                _ => {}
            }
            if off > 96 {
                break; // bounded scan; pathological spans err toward firing
            }
        }
        if !tie_break {
            out.push(TokenFinding {
                line: toks[i].line,
                rule: RuleId::UnstableSortTiebreak,
                message: format!("`{name}` without a total tie-break"),
            });
        }
    }
}

fn check_shared_mut_state(lf: &LexedFile, out: &mut Vec<TokenFinding>) {
    let toks = &lf.toks;
    for i in 0..toks.len() {
        let Some(name) = ident_is(toks, i) else { continue };
        let line = toks[i].line;
        match name {
            "static" if ident_is(toks, i + 1) == Some("mut") => {
                out.push(TokenFinding {
                    line,
                    rule: RuleId::SharedMutState,
                    message: "`static mut` item".to_string(),
                });
            }
            "Mutex" | "RwLock" | "Condvar" => {
                out.push(TokenFinding {
                    line,
                    rule: RuleId::SharedMutState,
                    message: format!("sync primitive `{name}`"),
                });
            }
            "Relaxed" => {
                out.push(TokenFinding {
                    line,
                    rule: RuleId::SharedMutState,
                    message: "`Relaxed` atomic ordering".to_string(),
                });
            }
            _ => {}
        }
    }
}

fn check_panic_in_kernel(lf: &LexedFile, out: &mut Vec<TokenFinding>) {
    let toks = &lf.toks;
    for i in 0..toks.len() {
        let Some(name) = ident_is(toks, i) else { continue };
        let line = toks[i].line;
        match name {
            "unwrap" | "expect" => {
                // `Option/Result::unwrap` takes no arguments — an
                // argument-taking `.unwrap(x)` is a different method (e.g.
                // the 32-bit sequence unwrapper in `tcpsim::seq`).
                let arity_ok = match name {
                    "unwrap" => is_punct(toks, i + 2, ')'),
                    _ => true,
                };
                if i >= 1 && is_punct(toks, i - 1, '.') && is_punct(toks, i + 1, '(') && arity_ok {
                    out.push(TokenFinding {
                        line,
                        rule: RuleId::PanicInKernel,
                        message: format!("`.{name}()` on the kernel path"),
                    });
                }
            }
            "panic" | "unreachable" | "todo" | "unimplemented" => {
                if is_punct(toks, i + 1, '!') {
                    out.push(TokenFinding {
                        line,
                        rule: RuleId::PanicInKernel,
                        message: format!("`{name}!` in kernel code"),
                    });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn findings(src: &str, rule: RuleId) -> Vec<TokenFinding> {
        check_tokens(&lex(src))
            .into_iter()
            .filter(|f| f.rule == rule)
            .collect()
    }

    #[test]
    fn rule_names_roundtrip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("no-such-rule"), None);
    }

    #[test]
    fn severity_per_rule() {
        assert_eq!(RuleId::HashContainer.severity(), Severity::Deny);
        assert_eq!(RuleId::PanicInKernel.severity(), Severity::Warn);
    }

    #[test]
    fn hash_container_positive_and_negative() {
        assert!(check_hash_container("let m: HashMap<u32, u64> = HashMap::new();").is_some());
        assert!(check_hash_container("use std::collections::HashSet;").is_some());
        assert!(check_hash_container("struct MyHashMapLike;").is_none());
        assert!(check_hash_container("let m = BTreeMap::new();").is_none());
    }

    #[test]
    fn wall_clock_patterns() {
        assert!(check_wall_clock("let t0 = Instant::now();").is_some());
        assert!(check_wall_clock("let t = std::time::SystemTime::now();").is_some());
        assert!(check_wall_clock("let mut rng = rand::thread_rng();").is_some());
        assert!(check_wall_clock("std::thread::sleep(d);").is_some());
        assert!(check_wall_clock("let now = ctx.now();").is_none());
        assert!(check_wall_clock("let x = MySystemTimer::new();").is_none());
    }

    #[test]
    fn lossy_cast_heuristic() {
        assert!(check_lossy_cast("let wire = seq as u32;").is_some());
        assert!(check_lossy_cast("let b = total_bytes as u32;").is_some());
        assert!(check_lossy_cast("hdr.uid as u16").is_some());
        assert!(check_lossy_cast("let s = seq as u64;").is_none());
        assert!(check_lossy_cast("let i = index as u32;").is_none());
    }

    #[test]
    fn print_macro_patterns() {
        assert!(check_print_macro("println!(\"cwnd = {cwnd}\");").is_some());
        assert!(check_print_macro("eprintln!(\"drop at {t}\");").is_some());
        assert!(check_print_macro("let x = dbg!(cwnd);").is_some());
        assert!(check_print_macro("fn println_like() {}").is_none());
        assert!(check_print_macro("self.println(buf);").is_none());
        assert!(check_print_macro("let dbg = 3;").is_none());
        assert!(check_print_macro("writeln!(out, \"ok\")?;").is_none());
    }

    #[test]
    fn hot_path_alloc_patterns() {
        assert!(check_hot_path_alloc("let b = Box::new(packet);").is_some());
        assert!(check_hot_path_alloc("let acts: Vec<TcpAction> = Vec::new();").is_some());
        assert!(check_hot_path_alloc("let mut q = Vec::with_capacity(64);").is_some());
        assert!(check_hot_path_alloc("let v = vec![0u8; len];").is_some());
        assert!(check_hot_path_alloc("let name = format!(\"cwnd.{}\", flow);").is_some());
        assert!(check_hot_path_alloc("let mut s = String::new();").is_some());
        assert!(check_hot_path_alloc("let s = String::from(name);").is_some());
        assert!(check_hot_path_alloc("let s = String::from_utf8(bytes);").is_none());
        assert!(check_hot_path_alloc("write!(out, \"{}\", reformat!(x))?;").is_none());
        assert!(check_hot_path_alloc("let mut a = std::mem::take(&mut self.scratch);").is_none());
        assert!(check_hot_path_alloc("self.stage.push(pending);").is_none());
        assert!(check_hot_path_alloc("let b = Box::new_in(p, arena);").is_none());
        assert!(check_hot_path_alloc("let s = SmallVec::new();").is_none());
        assert!(check_hot_path_alloc("let t = MyBox::newish();").is_none());
    }

    #[test]
    fn float_time_eq_heuristic() {
        assert!(check_float_time_eq("if a.as_secs_f64() == b.as_secs_f64() {").is_some());
        assert!(check_float_time_eq("if t.as_millis_f64() != 0.0 {").is_some());
        assert!(check_float_time_eq("if t.as_secs_f64() >= warmup {").is_none());
        assert!(check_float_time_eq("let x = t.as_secs_f64() * 2.0;").is_none());
        assert!(check_float_time_eq("if now == deadline {").is_none());
    }

    #[test]
    fn unordered_iter_generics_and_modules() {
        assert_eq!(
            findings("fn f<S: BuildHasher>(s: S) {}", RuleId::UnorderedIter).len(),
            1
        );
        assert_eq!(
            findings("use std::collections::hash_map::Entry;", RuleId::UnorderedIter).len(),
            1
        );
        assert!(findings("fn g<T: Ord>(t: T) {}", RuleId::UnorderedIter).is_empty());
    }

    #[test]
    fn unordered_iter_tainted_bindings() {
        let src = "
            fn f(m: &HashMap<u32, u32>) {
                for k in m.keys() { use_it(k); }
            }
        ";
        let v = findings(src, RuleId::UnorderedIter);
        assert!(!v.is_empty(), "{v:?}");
        // Iterating a BTreeMap binding is fine.
        let ok = "
            fn f(m: &BTreeMap<u32, u32>) {
                for k in m.keys() { use_it(k); }
            }
        ";
        assert!(findings(ok, RuleId::UnorderedIter).is_empty());
    }

    #[test]
    fn unordered_iter_let_taint() {
        let src = "
            fn f() {
                let scratch = HashMap::new();
                fill(&scratch);
                for (k, v) in scratch.iter() {}
            }
        ";
        let v = findings(src, RuleId::UnorderedIter);
        // The `let` line itself is hash-container territory; the iteration
        // line is unordered-iter's.
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn float_reduction_patterns() {
        assert_eq!(
            findings("let s = xs.iter().sum::<f64>();", RuleId::FloatReduction).len(),
            1
        );
        assert_eq!(
            findings("let p = xs.iter().product::<f32>();", RuleId::FloatReduction).len(),
            1
        );
        assert_eq!(
            findings(
                "let s = xs.iter().fold(0.0, |a, b| a + b);",
                RuleId::FloatReduction
            )
            .len(),
            1
        );
        // Integer sums, min/max folds, and explicit loops are fine.
        assert!(findings("let n = xs.iter().sum::<u64>();", RuleId::FloatReduction).is_empty());
        assert!(findings(
            "let m = xs.iter().cloned().fold(f64::INFINITY, f64::min);",
            RuleId::FloatReduction
        )
        .is_empty());
    }

    #[test]
    fn unstable_sort_tiebreak_patterns() {
        assert_eq!(
            findings(
                "v.sort_unstable_by(|a, b| a.t.partial_cmp(&b.t).unwrap());",
                RuleId::UnstableSortTiebreak
            )
            .len(),
            1
        );
        assert_eq!(
            findings("v.sort_unstable_by_key(|x| x.weight);", RuleId::UnstableSortTiebreak).len(),
            1
        );
        // Composite tuple keys and `.then*` chains are total.
        assert!(findings(
            "v.sort_unstable_by_key(|p| (p.tick, p.seq));",
            RuleId::UnstableSortTiebreak
        )
        .is_empty());
        assert!(findings(
            "v.sort_unstable_by(|a, b| a.t.total_cmp(&b.t).then(a.seq.cmp(&b.seq)));",
            RuleId::UnstableSortTiebreak
        )
        .is_empty());
        // Plain `sort_unstable()` relies on Ord, which is total.
        assert!(findings("v.sort_unstable();", RuleId::UnstableSortTiebreak).is_empty());
    }

    #[test]
    fn shared_mut_state_patterns() {
        assert_eq!(findings("static mut COUNTER: u64 = 0;", RuleId::SharedMutState).len(), 1);
        assert_eq!(
            findings("let m = Mutex::new(state);", RuleId::SharedMutState).len(),
            1
        );
        assert_eq!(
            findings("x.fetch_add(1, Ordering::Relaxed);", RuleId::SharedMutState).len(),
            1
        );
        assert!(findings("static SEED: u64 = 42;", RuleId::SharedMutState).is_empty());
        assert!(findings("x.fetch_add(1, Ordering::SeqCst);", RuleId::SharedMutState).is_empty());
    }

    #[test]
    fn panic_in_kernel_patterns() {
        assert_eq!(findings("let x = q.pop().unwrap();", RuleId::PanicInKernel).len(), 1);
        assert_eq!(
            findings("let x = q.pop().expect(\"non-empty\");", RuleId::PanicInKernel).len(),
            1
        );
        assert_eq!(findings("panic!(\"bad state\");", RuleId::PanicInKernel).len(), 1);
        assert_eq!(findings("unreachable!()", RuleId::PanicInKernel).len(), 1);
        // Non-panicking forms are fine; so are identifiers merely named so.
        assert!(findings("let x = q.pop().unwrap_or(0);", RuleId::PanicInKernel).is_empty());
        assert!(findings("let unwrap = 3;", RuleId::PanicInKernel).is_empty());
        // `.unwrap(x)` with an argument is a different method (the 32-bit
        // sequence unwrapper), not Option::unwrap.
        assert!(
            findings("let ack = self.ack_unwrap.unwrap(hdr.ack);", RuleId::PanicInKernel)
                .is_empty()
        );
    }
}
