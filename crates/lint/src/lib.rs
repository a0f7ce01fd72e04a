//! `ladder-lint`: the workspace's domain-specific conformance analyzer.
//!
//! The reproduction's headline guarantees — bit-identical results at any
//! `--jobs`, golden-trace digests, exact trace↔stats reconciliation — are
//! structural properties. The generic half of them (no hash-order
//! iteration, host clock, ambient randomness or library panics) is
//! enforced by clippy through `clippy.toml` and the workspace lint table.
//! This crate enforces the half clippy cannot express — lossy casts in
//! `impl Mergeable` blocks, bench-binary conformance, and the cross-crate
//! rules — as deny-by-default rules over a hand-rolled,
//! string/char/comment-aware Rust lexer (no `syn` — the workspace builds
//! `--offline` with path-local dependencies only).
//!
//! Analysis is two-pass ([`rules::analyze_units`]): pass 1 runs the
//! per-file rules and builds a [`index::SymbolIndex`] over the whole
//! corpus; pass 2 runs the cross-crate semantic rules (`Mergeable`
//! coverage, time-unit mixing, counter overflow policy) against that
//! index.
//!
//! See DESIGN.md §11/§16 for the rule catalog, and [`rules::RULES`] for
//! the machine-readable version.

pub mod index;
pub mod lexer;
pub mod rules;
pub(crate) mod semantic;
pub mod workspace;

pub use rules::{
    analyze, analyze_units, AnalysisReport, Finding, RuleInfo, RuleStat, SourceUnit, RULES,
};

use std::io;
use std::path::Path;

/// Lints every source file under `root` with both passes and returns the
/// full report (findings sorted by path then position, plus per-rule
/// stats).
pub fn run_workspace(root: &Path) -> io::Result<AnalysisReport> {
    let mut units = Vec::new();
    for file in workspace::discover(root)? {
        units.push(SourceUnit {
            source: std::fs::read_to_string(&file.abs_path)?,
            rel_path: file.rel_path,
        });
    }
    Ok(analyze_units(&units))
}

/// A fixture's declared expectation (`// expect:` header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// Rule the fixture must fire.
    pub rule: String,
    /// Exact `line:col` the finding must anchor at, if declared.
    pub pos: Option<(usize, usize)>,
}

/// One fixture file's outcome.
#[derive(Debug)]
pub struct FixtureReport {
    /// Fixture path relative to the fixture directory.
    pub fixture: String,
    /// Virtual workspace path of the fixture's first unit
    /// (`// path:` header, or the fixture path itself).
    pub virtual_path: String,
    /// Rule (and optionally position) the fixture expects to fire
    /// (`// expect:` header), if any.
    pub expected: Option<Expectation>,
    /// What actually fired.
    pub findings: Vec<Finding>,
}

impl FixtureReport {
    /// Whether the outcome matches the fixture's declared expectation:
    /// exactly one finding of the expected rule (at the expected position,
    /// when one is declared), or zero findings for a clean fixture.
    pub fn conforms(&self) -> bool {
        match &self.expected {
            Some(e) => {
                self.findings.len() == 1
                    && self.findings[0].rule == e.rule
                    && e.pos.is_none_or(|(l, c)| {
                        self.findings[0].line == l && self.findings[0].col == c
                    })
            }
            None => self.findings.is_empty(),
        }
    }
}

/// Lints a fixture corpus. Each `.rs` file may carry header comments:
///
/// ```text
/// // path: crates/trace/src/example.rs
/// // expect: lossy-cast @ 5:7
/// ```
///
/// `path:` sets the virtual workspace path the path-scoped rules see;
/// `expect:` declares the single rule the snippet must fire, optionally
/// pinned to an exact `line:col` (absent for clean fixtures).
///
/// For the cross-crate rules a fixture can fabricate a multi-file corpus
/// with `// file: <virtual path>` section markers: everything before the
/// first marker is the primary unit, each marker starts a new unit under
/// the given path. Later units keep fixture-absolute line numbers (they
/// are padded to their section's position), so `expect:` positions always
/// refer to lines of the fixture file itself.
pub fn run_fixtures(dir: &Path) -> io::Result<Vec<FixtureReport>> {
    let mut reports = Vec::new();
    let mut files = Vec::new();
    collect_fixture_files(dir, dir, &mut files)?;
    files.sort_by(|a, b| a.0.cmp(&b.0));
    for (fixture, abs) in files {
        let source = std::fs::read_to_string(&abs)?;
        reports.push(run_fixture_source(&fixture, &source));
    }
    Ok(reports)
}

/// Lints one fixture from its raw contents (exposed so tests can mutate a
/// fixture in memory and assert the corpus self-check catches the change).
pub fn run_fixture_source(fixture: &str, source: &str) -> FixtureReport {
    let virtual_path = header(source, "path:").unwrap_or_else(|| fixture.to_string());
    let expected = header(source, "expect:").map(|raw| parse_expectation(&raw));
    let units = split_units(&virtual_path, source);
    let findings = analyze_units(&units).findings;
    FixtureReport {
        fixture: fixture.to_string(),
        virtual_path,
        expected,
        findings,
    }
}

/// Parses `<rule>` or `<rule> @ <line>:<col>`.
fn parse_expectation(raw: &str) -> Expectation {
    if let Some((rule, pos)) = raw.split_once('@') {
        if let Some((l, c)) = pos.trim().split_once(':') {
            if let (Ok(l), Ok(c)) = (l.trim().parse(), c.trim().parse()) {
                return Expectation {
                    rule: rule.trim().to_string(),
                    pos: Some((l, c)),
                };
            }
        }
    }
    Expectation {
        rule: raw.trim().to_string(),
        pos: None,
    }
}

/// Splits a fixture into its virtual corpus at `// file:` markers. Each
/// later unit is padded with blank lines so token positions stay
/// fixture-absolute.
fn split_units(primary_path: &str, source: &str) -> Vec<SourceUnit> {
    let mut units = Vec::new();
    let mut path = primary_path.to_string();
    let mut body = String::new();
    let mut flushed_any = false;
    for (i, line) in source.lines().enumerate() {
        if let Some(marker) = line.trim().strip_prefix("// file:") {
            units.push(SourceUnit {
                rel_path: std::mem::replace(&mut path, marker.trim().to_string()),
                source: std::mem::take(&mut body),
            });
            flushed_any = true;
            // The next unit starts after the marker line; pad so its code
            // keeps fixture-absolute line numbers.
            body = "\n".repeat(i + 1);
            continue;
        }
        body.push_str(line);
        body.push('\n');
    }
    if !body.trim().is_empty() || !flushed_any {
        units.push(SourceUnit {
            rel_path: path,
            source: body,
        });
    }
    units
}

fn collect_fixture_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<(String, std::path::PathBuf)>,
) -> io::Result<()> {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_fixture_files(root, &path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Reads a `// <key> <value>` header from the leading comment lines.
fn header(source: &str, key: &str) -> Option<String> {
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Some(comment) = trimmed.strip_prefix("//") else {
            break; // headers only live above the first code line
        };
        if let Some(value) = comment.trim().strip_prefix(key) {
            return Some(value.trim().to_string());
        }
    }
    None
}

/// Renders findings as a JSON array (stable field order, no dependencies).
pub fn to_json(findings: &[Finding]) -> String {
    let mut out = String::from("[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push('\n');
    }
    out.push(']');
    out
}

/// Renders findings as a minimal SARIF 2.1.0 log (one run, the full rule
/// catalog as `tool.driver.rules`, one `result` per finding). The output
/// is byte-stable for a given finding list — no timestamps, no absolute
/// paths, object keys in fixed order.
pub fn to_sarif(findings: &[Finding]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(
        "  \"$schema\": \"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json\",\n",
    );
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"ladder-lint\",\n");
    out.push_str("          \"informationUri\": \"DESIGN.md\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}{}\n",
            json_escape(r.name),
            json_escape(r.summary),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str("        {\n");
        out.push_str(&format!(
            "          \"ruleId\": \"{}\",\n",
            json_escape(f.rule)
        ));
        out.push_str("          \"level\": \"error\",\n");
        out.push_str(&format!(
            "          \"message\": {{\"text\": \"{}\"}},\n",
            json_escape(&f.message)
        ));
        out.push_str(&format!(
            "          \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]\n",
            json_escape(&f.path),
            f.line,
            f.col
        ));
        out.push_str(&format!(
            "        }}{}\n",
            if i + 1 < findings.len() { "," } else { "" }
        ));
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_output_is_well_formed() {
        let findings = vec![Finding {
            rule: "lossy-cast",
            path: "crates/x/src/lib.rs".to_string(),
            line: 3,
            col: 9,
            message: "a \"quoted\" message".to_string(),
        }];
        let json = to_json(&findings);
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.starts_with('['));
        assert!(json.ends_with(']'));
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn header_parsing_stops_at_first_code_line() {
        let src = "// path: crates/trace/src/x.rs\n// expect: lossy-cast\nfn main() {}\n// path: not/this.rs\n";
        assert_eq!(
            header(src, "path:").as_deref(),
            Some("crates/trace/src/x.rs")
        );
        assert_eq!(header(src, "expect:").as_deref(), Some("lossy-cast"));
        assert_eq!(header("fn main() {}\n// path: x\n", "path:"), None);
    }

    #[test]
    fn expectation_grammar_accepts_rule_and_position() {
        assert_eq!(
            parse_expectation("lossy-cast @ 5:23"),
            Expectation {
                rule: "lossy-cast".to_string(),
                pos: Some((5, 23)),
            }
        );
        assert_eq!(
            parse_expectation("unit-mixing"),
            Expectation {
                rule: "unit-mixing".to_string(),
                pos: None,
            }
        );
    }

    #[test]
    fn split_units_preserves_fixture_absolute_lines() {
        let src = "// path: crates/a/src/lib.rs\npub fn a() {}\n// file: crates/b/src/lib.rs\npub fn b() {}\n";
        let units = split_units("crates/a/src/lib.rs", src);
        assert_eq!(units.len(), 2);
        assert_eq!(units[0].rel_path, "crates/a/src/lib.rs");
        assert_eq!(units[1].rel_path, "crates/b/src/lib.rs");
        // `pub fn b` sits on fixture line 4; the padded unit must agree.
        let tokens = lexer::lex(&units[1].source);
        assert_eq!(tokens[0].line, 4);
    }

    #[test]
    fn single_file_fixture_is_one_unit() {
        let units = split_units("crates/a/src/lib.rs", "pub fn a() {}\n");
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].rel_path, "crates/a/src/lib.rs");
    }

    #[test]
    fn fixture_conformance_checks_position_when_declared() {
        let src = "// path: crates/trace/src/x.rs\n// expect: lossy-cast @ 3:29\npub fn f(x: u64) -> u32 { x as u32 }\n";
        let report = run_fixture_source("f.rs", src);
        assert!(report.conforms(), "{:?}", report.findings);
        let wrong = "// path: crates/trace/src/x.rs\n// expect: lossy-cast @ 9:9\npub fn f(x: u64) -> u32 { x as u32 }\n";
        assert!(!run_fixture_source("f.rs", wrong).conforms());
    }

    #[test]
    fn sarif_output_is_well_formed_and_stable() {
        let findings = vec![Finding {
            rule: "unit-mixing",
            path: "crates/sim/src/x.rs".to_string(),
            line: 7,
            col: 12,
            message: "mixing \"_ps\" and _ns".to_string(),
        }];
        let a = to_sarif(&findings);
        let b = to_sarif(&findings);
        assert_eq!(a, b);
        assert!(a.contains("\"version\": \"2.1.0\""));
        assert!(a.contains("\"ruleId\": \"unit-mixing\""));
        assert!(a.contains("\"startLine\": 7"));
        assert!(a.contains("\\\"_ps\\\""));
        // Every cataloged rule appears in the driver metadata.
        for r in RULES {
            assert!(a.contains(&format!("\"id\": \"{}\"", r.name)));
        }
    }
}
