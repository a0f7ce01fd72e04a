//! The rule catalog and the two-pass analysis engine.
//!
//! Every rule is deny-by-default and has no suppression mechanism: these
//! are the domain rules clippy cannot express, and none of them has a
//! sanctioned exception in the workspace. (The generic determinism and
//! panic rules are clippy lints configured in `clippy.toml`; their
//! exceptions are `#[expect(lint, reason = "...")]` attributes.) Rules are
//! scoped by workspace-relative path (see each rule's `scope` string, also
//! printed by `--list-rules`), and the per-file ones skip `#[cfg(test)]` /
//! `#[test]` item spans — the invariants protect what ships in the
//! simulation and accounting paths.
//!
//! Analysis runs in two passes over a corpus of [`SourceUnit`]s
//! ([`analyze_units`]): pass 1 runs the per-file rules and builds the
//! [`SymbolIndex`]; pass 2 runs the cross-crate semantic rules (the
//! crate-private `semantic` module) against the index.

use crate::index::SymbolIndex;
use crate::lexer::{lex, Token};
use crate::semantic;
use std::collections::BTreeMap;

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path of the file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl Finding {
    /// Renders the finding in the `file:line:col: rule: message` form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: deny({}): {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// One source file handed to the analyzer (path + contents; nothing is
/// read from disk inside the engine, so fixtures can fabricate corpora).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceUnit {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Full file contents.
    pub source: String,
}

/// Per-rule outcome of one analysis run, for `--stats`.
#[derive(Debug, Clone, Copy)]
pub struct RuleStat {
    /// Rule name (`symbol-index` for the pass-1 index build).
    pub rule: &'static str,
    /// Findings the rule reported.
    pub findings: usize,
    /// Wall-clock nanoseconds spent in the rule across the corpus.
    pub nanos: u128,
}

/// The result of analyzing a corpus.
#[derive(Debug)]
pub struct AnalysisReport {
    /// All findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Per-rule summary in catalog order (index row first).
    pub stats: Vec<RuleStat>,
    /// Number of files analyzed.
    pub files: usize,
}

/// Static description of one rule, for `--list-rules` and the docs.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule name, as reported in findings.
    pub name: &'static str,
    /// One-line summary of what it enforces.
    pub summary: &'static str,
    /// Where it applies.
    pub scope: &'static str,
}

/// The rule catalog (kept in sync with DESIGN.md §11 and §16).
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "lossy-cast",
        summary: "no lossy `as` casts to narrow numeric types in \
                  accounting code; use try_into or checked helpers",
        scope: "crates/trace/src plus every `impl Mergeable` block \
                (non-test spans)",
    },
    RuleInfo {
        name: "bench-flags",
        summary: "every ladder-bench binary must parse the shared CLI \
                  (BenchArgs: --quick/--jobs/--topology) and wire --trace",
        scope: "crates/bench/src/bin",
    },
    RuleInfo {
        name: "flat-options",
        summary: "no struct-literal construction of SimConfig/ServiceConfig; \
                  go through their builder()s",
        scope: "everywhere except crates/sim/src/config.rs and \
                crates/sim/src/service.rs (the builder modules); tests/ \
                and test spans are exempt",
    },
    RuleInfo {
        name: "fast-ref-twin",
        summary: "every reference kernel (pub fn in a `reference` module, \
                  `*_reference` fn, or designated reference variant) needs \
                  a same-signature fast twin and an equivalence test",
        scope: "crates/*/src (cross-crate, via the symbol index); \
                equivalence proofs live in tests/*equivalence*.rs",
    },
    RuleInfo {
        name: "mergeable-coverage",
        summary: "every *Stats/*Counts struct must impl Mergeable and be \
                  folded into RunResult or a shard-fold path",
        scope: "crates/{sim,trace,faults,coding,wear}/src (cross-crate)",
    },
    RuleInfo {
        name: "unit-mixing",
        summary: "no arithmetic mixing `_ps` and `_ns` identifiers in one \
                  statement without an explicit conversion call",
        scope: "crates/*/src (non-test spans); tests/ and benches/ exempt",
    },
    RuleInfo {
        name: "counter-overflow-policy",
        summary: "merge/fold methods of counter structs must use \
                  saturating_/checked_ arithmetic, never `+=`/wrapping_add",
        scope: "crates/{sim,trace,faults,wear,coding,memctrl}/src, \
                merge/merge_from/fold* methods of *Stats/*Counts impls",
    },
];

/// Cast targets that lose information from the workspace's `u64`/`f64`
/// accounting domain.
const NARROW_CASTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Where the bench-binary conformance rule applies.
const BENCH_BIN_SCOPE: &str = "crates/bench/src/bin/";

/// The builder modules — the only places allowed to write the run-config
/// struct literals that `flat-options` forbids everywhere else.
const FLAT_OPTIONS_ALLOW: &[&str] = &["crates/sim/src/config.rs", "crates/sim/src/service.rs"];

/// Run-config types that must be constructed through the builder.
const FLAT_OPTIONS_TYPES: &[&str] = &["SimConfig", "ServiceConfig"];

/// An inclusive line range.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    pub(crate) start: usize,
    pub(crate) end: usize,
}

impl Span {
    fn contains(&self, line: usize) -> bool {
        (self.start..=self.end).contains(&line)
    }
}

pub(crate) fn in_spans(spans: &[Span], line: usize) -> bool {
    spans.iter().any(|s| s.contains(line))
}

/// One lexed file inside the analysis pipeline.
pub(crate) struct FileUnit {
    pub(crate) rel_path: String,
    pub(crate) tokens: Vec<Token>,
    pub(crate) tests: Vec<Span>,
}

/// Wall-clock read for the analyzer's own per-rule `--stats`; the one
/// sanctioned self-timing site in this crate.
#[expect(
    clippy::disallowed_methods,
    reason = "analyzer self-timing for --stats; no simulated result depends on it"
)]
fn stat_clock() -> std::time::Instant {
    std::time::Instant::now()
}

/// Per-rule wall-clock accumulator.
#[derive(Default)]
struct Timer {
    nanos: BTreeMap<&'static str, u128>,
}

impl Timer {
    fn add(&mut self, rule: &'static str, since: std::time::Instant) {
        *self.nanos.entry(rule).or_insert(0) += since.elapsed().as_nanos();
    }

    fn get(&self, rule: &str) -> u128 {
        self.nanos.get(rule).copied().unwrap_or(0)
    }
}

/// Analyzes a corpus of source units with both passes and returns the
/// sorted findings plus per-rule stats.
pub fn analyze_units(units: &[SourceUnit]) -> AnalysisReport {
    let mut timer = Timer::default();

    let mut files: Vec<FileUnit> = units
        .iter()
        .map(|u| {
            let tokens = lex(&u.source);
            let tests = test_spans(&tokens);
            FileUnit {
                rel_path: u.rel_path.clone(),
                tokens,
                tests,
            }
        })
        .collect();
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));

    // Pass 1a: per-file rules.
    let mut out: Vec<Finding> = Vec::new();
    for file in &files {
        let path = file.rel_path.as_str();
        let tokens = &file.tokens;
        let tests = &file.tests;
        let mergeable = mergeable_impl_spans(tokens);

        let t0 = stat_clock();
        check_lossy_cast(path, tokens, tests, &mergeable, &mut out);
        timer.add("lossy-cast", t0);
        let t0 = stat_clock();
        check_bench_flags(path, tokens, &mut out);
        timer.add("bench-flags", t0);
        let t0 = stat_clock();
        check_flat_options(path, tokens, tests, &mut out);
        timer.add("flat-options", t0);
    }

    // Pass 1b: the symbol index.
    let t0 = stat_clock();
    let refs: Vec<(&str, &[Token])> = files
        .iter()
        .map(|f| (f.rel_path.as_str(), &f.tokens[..]))
        .collect();
    let index = SymbolIndex::build(&refs);
    timer.add("symbol-index", t0);

    // Pass 2: cross-crate semantic rules.
    let t0 = stat_clock();
    semantic::check_fast_ref_twin(&index, &mut out);
    timer.add("fast-ref-twin", t0);
    let t0 = stat_clock();
    semantic::check_mergeable_coverage(&index, &mut out);
    timer.add("mergeable-coverage", t0);
    let t0 = stat_clock();
    semantic::check_unit_mixing(&files, &mut out);
    timer.add("unit-mixing", t0);
    let t0 = stat_clock();
    semantic::check_counter_overflow(&files, &index, &mut out);
    timer.add("counter-overflow-policy", t0);

    out.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    let count = |rule: &str| out.iter().filter(|f| f.rule == rule).count();
    let mut stats = vec![RuleStat {
        rule: "symbol-index",
        findings: 0,
        nanos: timer.get("symbol-index"),
    }];
    for r in RULES {
        stats.push(RuleStat {
            rule: r.name,
            findings: count(r.name),
            nanos: timer.get(r.name),
        });
    }
    AnalysisReport {
        findings: out,
        stats,
        files: files.len(),
    }
}

/// Analyzes one file in isolation (single-unit corpus) and returns its
/// findings, sorted.
pub fn analyze(rel_path: &str, source: &str) -> Vec<Finding> {
    analyze_units(&[SourceUnit {
        rel_path: rel_path.to_string(),
        source: source.to_string(),
    }])
    .findings
}

// ---------------------------------------------------------------------------
// Span computation.
// ---------------------------------------------------------------------------

/// Index just past an attribute starting at `i` (which must be `#`).
pub(crate) fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if !tokens.get(j).is_some_and(|t| t.is_punct('[')) {
        return i + 1;
    }
    let mut depth = 0usize;
    while let Some(t) = tokens.get(j) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Whether the tokens at `i` start a `#[cfg(test)]` or `#[test]` attribute.
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    let ident = |k: usize, s: &str| tokens.get(k).is_some_and(|t| t.is_ident(s));
    let punct = |k: usize, c: char| tokens.get(k).is_some_and(|t| t.is_punct(c));
    if !punct(i, '#') || !punct(i + 1, '[') {
        return false;
    }
    // #[test]
    if ident(i + 2, "test") && punct(i + 3, ']') {
        return true;
    }
    // #[cfg(test)]
    ident(i + 2, "cfg")
        && punct(i + 3, '(')
        && ident(i + 4, "test")
        && punct(i + 5, ')')
        && punct(i + 6, ']')
}

/// Index of the matching `}` for the `{` at `open`, if any.
pub(crate) fn brace_match(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the token ending the item starting at `j` (its closing `}` or
/// terminating `;`).
pub(crate) fn item_end(tokens: &[Token], j: usize) -> usize {
    let mut k = j;
    while let Some(t) = tokens.get(k) {
        if t.is_punct('{') {
            return brace_match(tokens, k).unwrap_or(tokens.len().saturating_sub(1));
        }
        if t.is_punct(';') {
            return k;
        }
        k += 1;
    }
    tokens.len().saturating_sub(1)
}

/// Line spans of `#[cfg(test)]` / `#[test]` items.
pub(crate) fn test_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if is_test_attr(tokens, i) {
            let start = tokens[i].line;
            // Skip this attribute plus any stacked ones on the same item.
            let mut j = skip_attr(tokens, i);
            while tokens.get(j).is_some_and(|t| t.is_punct('#'))
                && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
            {
                j = skip_attr(tokens, j);
            }
            let end_idx = item_end(tokens, j);
            let end = tokens.get(end_idx).map_or(usize::MAX, |t| t.line);
            spans.push(Span { start, end });
            i = end_idx + 1;
        } else {
            i += 1;
        }
    }
    spans
}

/// Line spans of `impl ... Mergeable ... { ... }` blocks.
fn mergeable_impl_spans(tokens: &[Token]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if tokens[i].is_ident("impl") {
            let mut j = i + 1;
            let mut has_mergeable = false;
            while let Some(t) = tokens.get(j) {
                if t.is_punct('{') || t.is_punct(';') {
                    break;
                }
                if t.is_ident("Mergeable") {
                    has_mergeable = true;
                }
                j += 1;
            }
            if has_mergeable && tokens.get(j).is_some_and(|t| t.is_punct('{')) {
                if let Some(close) = brace_match(tokens, j) {
                    spans.push(Span {
                        start: tokens[i].line,
                        end: tokens[close].line,
                    });
                    i = close + 1;
                    continue;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    spans
}

// ---------------------------------------------------------------------------
// Rule checks.
// ---------------------------------------------------------------------------

fn push(findings: &mut Vec<Finding>, rule: &'static str, path: &str, t: &Token, message: String) {
    findings.push(Finding {
        rule,
        path: path.to_string(),
        line: t.line,
        col: t.col,
        message,
    });
}

fn check_lossy_cast(
    path: &str,
    tokens: &[Token],
    tests: &[Span],
    mergeable: &[Span],
    findings: &mut Vec<Finding>,
) {
    let whole_file = path.starts_with("crates/trace/src/");
    if !whole_file && mergeable.is_empty() {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        if !t.is_ident("as") || in_spans(tests, t.line) {
            continue;
        }
        if !whole_file && !in_spans(mergeable, t.line) {
            continue;
        }
        let Some(target) = tokens.get(i + 1).and_then(|t| t.ident()) else {
            continue;
        };
        if NARROW_CASTS.contains(&target) {
            push(
                findings,
                "lossy-cast",
                path,
                t,
                format!(
                    "lossy `as {target}` cast in accounting code; counters \
                     fold in u64/f64 — use `try_into` or a checked helper"
                ),
            );
        }
    }
}

fn check_bench_flags(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !path.starts_with(BENCH_BIN_SCOPE) {
        return;
    }
    let has = |names: &[&str]| {
        tokens
            .iter()
            .any(|t| t.ident().is_some_and(|id| names.contains(&id)))
    };
    let requirements: [(&str, &[&str]); 4] = [
        ("--quick", &["BenchArgs"]),
        ("--jobs", &["BenchArgs"]),
        ("--topology", &["BenchArgs"]),
        ("--trace", &["emit_trace_if_requested"]),
    ];
    for (flag, helpers) in requirements {
        if !has(helpers) {
            findings.push(Finding {
                rule: "bench-flags",
                path: path.to_string(),
                line: 1,
                col: 1,
                message: format!(
                    "bench binary does not wire `{flag}` (call one of {})",
                    helpers.join(" / ")
                ),
            });
        }
    }
}

fn check_flat_options(path: &str, tokens: &[Token], tests: &[Span], findings: &mut Vec<Finding>) {
    let in_tests_dir = path.starts_with("tests/") || path.contains("/tests/");
    if FLAT_OPTIONS_ALLOW.contains(&path) || in_tests_dir {
        return;
    }
    for (i, t) in tokens.iter().enumerate() {
        let Some(name) = t.ident() else { continue };
        if !FLAT_OPTIONS_TYPES.contains(&name)
            || in_spans(tests, t.line)
            || !tokens.get(i + 1).is_some_and(|t| t.is_punct('{'))
        {
            continue;
        }
        // `struct SimConfig {`, `impl SimConfig {`, `impl T for SimConfig {`
        // and `-> SimConfig {` are declarations or return types, not
        // literals.
        let declares = i > 0
            && (tokens[i - 1].is_punct('>')
                || ["struct", "impl", "for", "enum"]
                    .iter()
                    .any(|kw| tokens[i - 1].is_ident(kw)));
        if !declares {
            push(
                findings,
                "flat-options",
                path,
                t,
                format!(
                    "`{name} {{ .. }}` struct literal bypasses the builder; \
                     construct run configs with `SimConfig::builder()`"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_fired(path: &str, src: &str) -> Vec<&'static str> {
        analyze(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(x: u64) -> u32 { x as u32 }\n    fn h() { let _ = SimConfig { trace: true }; }\n}\n";
        assert!(rules_fired("crates/trace/src/x.rs", src).is_empty());
    }

    #[test]
    fn test_fn_attr_is_exempt() {
        let src =
            "#[test]\nfn t() { let _ = 7u64 as u32; }\npub fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(
            rules_fired("crates/trace/src/x.rs", src),
            vec!["lossy-cast"]
        );
    }

    #[test]
    fn lossy_cast_in_trace_scope_and_mergeable_impls() {
        let narrow = "pub fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(
            rules_fired("crates/trace/src/metrics.rs", narrow),
            vec!["lossy-cast"]
        );
        assert!(rules_fired("crates/core/src/engine.rs", narrow).is_empty());
        let merge = "impl Mergeable for S {\n    fn merge_from(&mut self, o: &Self) { self.a = o.b as u16; }\n}\n";
        assert_eq!(
            rules_fired("crates/core/src/engine.rs", merge),
            vec!["lossy-cast"]
        );
        let widening = "pub fn f(x: u32) -> u64 { x as u64 }";
        assert!(rules_fired("crates/trace/src/metrics.rs", widening).is_empty());
    }

    #[test]
    fn bench_flags_requires_the_shared_parser_and_trace() {
        let full = "use ladder_bench::BenchArgs;\nfn main() { let args = BenchArgs::parse(); args.emit_trace_if_requested(&args.cfg); }\n";
        assert!(rules_fired("crates/bench/src/bin/x.rs", full).is_empty());
        let missing_trace =
            "use ladder_bench::BenchArgs;\nfn main() { let _ = BenchArgs::parse(); }\n";
        let fired = analyze("crates/bench/src/bin/x.rs", missing_trace);
        assert_eq!(fired.len(), 1);
        assert!(fired[0].message.contains("--trace"), "{}", fired[0].message);
        let no_parser = "fn main() { emit_trace_if_requested(); }\n";
        let fired = analyze("crates/bench/src/bin/x.rs", no_parser);
        assert_eq!(fired.len(), 3, "{fired:?}");
        assert!(fired.iter().all(|f| f.message.contains("BenchArgs")));
    }

    #[test]
    fn flat_options_forbids_literals_outside_the_builder_module() {
        let literal = "pub fn f() -> SimConfig {\n    SimConfig { trace: true }\n}\n";
        assert_eq!(
            rules_fired("crates/sim/src/runner.rs", literal),
            vec!["flat-options"]
        );
        assert_eq!(
            rules_fired("crates/bench/src/lib.rs", literal),
            vec!["flat-options"]
        );
        // The builder modules themselves and integration tests are exempt.
        assert!(rules_fired("crates/sim/src/config.rs", literal).is_empty());
        assert!(rules_fired("crates/sim/src/service.rs", literal).is_empty());
        assert!(rules_fired("tests/golden_trace.rs", literal).is_empty());
    }

    #[test]
    fn flat_options_skips_declarations_and_builder_calls() {
        let decls = "pub struct SimConfig { pub trace: bool }\nimpl SimConfig {\n    fn f() {}\n}\nimpl Default for ServiceConfig {\n    fn default() -> Self { Self::new() }\n}\n";
        assert!(rules_fired("crates/sim/src/runner.rs", decls).is_empty());
        let builder =
            "pub fn f() -> SimConfig {\n    SimConfig::builder().trace(true).build()\n}\n";
        assert!(rules_fired("crates/sim/src/runner.rs", builder).is_empty());
        let service = "fn g() {\n    let o = ServiceConfig { load: 4.0 };\n}\n";
        assert_eq!(
            rules_fired("crates/memctrl/src/lib.rs", service),
            vec!["flat-options"]
        );
    }

    #[test]
    fn findings_carry_position() {
        let f = analyze("crates/trace/src/x.rs", "\n\nconst C: u32 = 7u64 as u32;");
        assert_eq!((f[0].line, f[0].col), (3, 21));
        assert!(f[0].render().contains("crates/trace/src/x.rs:3:21"));
    }

    #[test]
    fn stats_cover_every_rule_and_count_findings() {
        let report = analyze_units(&[SourceUnit {
            rel_path: "crates/trace/src/x.rs".to_string(),
            source: "const C: u32 = 7u64 as u32;".to_string(),
        }]);
        assert_eq!(report.files, 1);
        assert_eq!(report.stats.len(), RULES.len() + 1); // + index
        assert_eq!(report.stats[0].rule, "symbol-index");
        let cast = report
            .stats
            .iter()
            .find(|s| s.rule == "lossy-cast")
            .expect("lossy-cast stat");
        assert_eq!(cast.findings, 1);
    }
}
