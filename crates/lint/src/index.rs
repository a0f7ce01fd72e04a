//! Pass 1 of the two-pass analyzer: a lightweight workspace symbol index.
//!
//! The semantic rules (the crate-private `semantic` module) need to see
//! *across* files — does a reference kernel have a fast twin somewhere,
//! is a `*Stats` struct folded anywhere — so this module walks every
//! file's token stream once and records just enough structure for those
//! questions: functions (with a normalized signature, module path and
//! surrounding `impl`), structs with their typed fields, enums with their
//! variants, `impl Trait for Type` headers, and the set of identifiers
//! each file mentions. It is *not* a parser: it recognizes item heads by keyword
//! and matches braces, which is sound for the workspace's rustfmt'd,
//! compiling code and keeps the analyzer dependency-free (no `syn`).
//!
//! Determinism: the index is a pure function of the *set* of files —
//! inputs are sorted by path before the walk, so a shuffled file list
//! produces a bit-identical index (property-tested in
//! `tests/index_order.rs`).

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{in_spans, test_spans, SourceUnit, Span};
use std::collections::{BTreeMap, BTreeSet};

/// One indexed `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the function's name token.
    pub line: usize,
    /// 1-based column of the function's name token.
    pub col: usize,
    /// The function's name.
    pub name: String,
    /// Normalized signature: the parameter list and return type as a
    /// space-joined token string with literals collapsed (`N`/`S`/`C`),
    /// so twins compare equal regardless of formatting.
    pub sig: String,
    /// Enclosing `mod` names, outermost first (file-relative).
    pub modules: Vec<String>,
    /// The `impl` target type, when defined inside an `impl` block.
    pub impl_type: Option<String>,
    /// The `impl` trait (last path segment), for trait impls.
    pub trait_name: Option<String>,
    /// Whether the item is `pub` (any visibility qualifier counts).
    pub is_pub: bool,
    /// Token-index range of the body braces in the file's token stream
    /// (`open..=close`), `None` for bodyless declarations.
    pub body: Option<(usize, usize)>,
}

/// One indexed `struct` with named fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the struct's name token.
    pub line: usize,
    /// 1-based column of the struct's name token.
    pub col: usize,
    /// The struct's name.
    pub name: String,
    /// `(field, normalized type)` pairs, in declaration order. Tuple and
    /// unit structs index with no fields.
    pub fields: Vec<(String, String)>,
}

/// One indexed `enum`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the enum's name token.
    pub line: usize,
    /// The enum's name.
    pub name: String,
    /// Variant names with their `(line, col)`.
    pub variants: Vec<(String, usize, usize)>,
}

/// One indexed `impl` header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
    /// The implemented trait's last path segment (`ladder_trace::Mergeable`
    /// indexes as `Mergeable`), `None` for inherent impls.
    pub trait_name: Option<String>,
    /// The target type's last path segment.
    pub type_name: String,
}

/// The cross-file symbol index (pass 1 output).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SymbolIndex {
    /// Every non-test `fn`, in (file, position) order.
    pub fns: Vec<FnItem>,
    /// Every non-test `struct`, in (file, position) order.
    pub structs: Vec<StructItem>,
    /// Every non-test `enum`, in (file, position) order.
    pub enums: Vec<EnumItem>,
    /// Every non-test `impl` header, in (file, position) order.
    pub impls: Vec<ImplItem>,
    /// All identifiers each file mentions anywhere (including test spans —
    /// equivalence tests are the point), keyed by path.
    pub file_idents: BTreeMap<String, BTreeSet<String>>,
}

impl SymbolIndex {
    /// Builds the index over already-lexed files. Input order is
    /// irrelevant: files are visited in sorted path order.
    pub fn build(files: &[(&str, &[Token])]) -> SymbolIndex {
        let mut sorted: Vec<&(&str, &[Token])> = files.iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        let mut index = SymbolIndex::default();
        for &(path, tokens) in sorted {
            let tests = test_spans(tokens);
            let mut walker = Walker {
                file: path,
                tokens,
                tests: &tests,
                index: &mut index,
            };
            walker.walk(0, tokens.len(), &mut Vec::new(), None);
            let idents = tokens
                .iter()
                .filter_map(|t| t.ident().map(str::to_string))
                .collect();
            index.file_idents.insert(path.to_string(), idents);
        }
        index
    }

    /// Convenience: lexes `units` and builds the index (used by tests and
    /// the fixture pipeline).
    pub fn from_units(units: &[SourceUnit]) -> SymbolIndex {
        let lexed: Vec<(String, Vec<Token>)> = units
            .iter()
            .map(|u| (u.rel_path.clone(), lex(&u.source)))
            .collect();
        let refs: Vec<(&str, &[Token])> = lexed.iter().map(|(p, t)| (p.as_str(), &t[..])).collect();
        SymbolIndex::build(&refs)
    }

    /// The struct named `name`, if indexed.
    pub fn struct_named(&self, name: &str) -> Option<&StructItem> {
        self.structs.iter().find(|s| s.name == name)
    }

    /// Whether some `impl <trait_name> for <type_name>` exists.
    pub fn has_trait_impl(&self, trait_name: &str, type_name: &str) -> bool {
        self.impls
            .iter()
            .any(|i| i.trait_name.as_deref() == Some(trait_name) && i.type_name == type_name)
    }
}

/// The `impl` context a function is being indexed under.
struct ImplCtx {
    type_name: String,
    trait_name: Option<String>,
}

struct Walker<'a> {
    file: &'a str,
    tokens: &'a [Token],
    tests: &'a [Span],
    index: &'a mut SymbolIndex,
}

impl Walker<'_> {
    /// Walks `tokens[start..end]` recording items, recursing into `mod`
    /// bodies and `impl` blocks. `mods` is the enclosing module stack.
    fn walk(&mut self, start: usize, end: usize, mods: &mut Vec<String>, imp: Option<&ImplCtx>) {
        let mut i = start;
        while i < end {
            let t = &self.tokens[i];
            if t.is_punct('#') && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                i = crate::rules::skip_attr(self.tokens, i);
                continue;
            }
            match t.ident() {
                Some("mod") => i = self.scan_mod(i, end, mods, imp),
                Some("impl") => i = self.scan_impl(i, end, mods),
                Some("fn") => i = self.scan_fn(i, end, mods, imp),
                Some("struct") => i = self.scan_struct(i, end),
                Some("enum") => i = self.scan_enum(i, end),
                _ => i += 1,
            }
        }
    }

    fn in_test(&self, line: usize) -> bool {
        in_spans(self.tests, line)
    }

    /// `mod name { ... }` — recurses with the module pushed; `mod name;`
    /// declarations are skipped.
    fn scan_mod(
        &mut self,
        i: usize,
        end: usize,
        mods: &mut Vec<String>,
        imp: Option<&ImplCtx>,
    ) -> usize {
        let Some(name) = self.tokens.get(i + 1).and_then(|t| t.ident()) else {
            return i + 1;
        };
        let Some(open) = self.find_block_open(i + 2, end) else {
            return i + 2;
        };
        let Some(close) = crate::rules::brace_match(self.tokens, open) else {
            return open + 1;
        };
        mods.push(name.to_string());
        self.walk(open + 1, close, mods, imp);
        mods.pop();
        close + 1
    }

    /// `impl<G> [Trait for] Type [where ...] { ... }`.
    fn scan_impl(&mut self, i: usize, end: usize, mods: &mut Vec<String>) -> usize {
        let line = self.tokens[i].line;
        let mut j = i + 1;
        if self.tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j, end);
        }
        // Collect path-segment idents at angle depth 0 until `{`/`;`,
        // noting where a top-level `for` splits trait from type.
        let mut segments: Vec<&str> = Vec::new();
        let mut trait_end: Option<usize> = None; // index into `segments`
        let mut angle = 0usize;
        let mut open = None;
        while j < end {
            let t = &self.tokens[j];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && angle > 0 {
                angle -= 1;
            } else if t.is_punct('-') && self.tokens.get(j + 1).is_some_and(|t| t.is_punct('>')) {
                j += 2; // `->` inside an fn-trait bound
                continue;
            } else if angle == 0 {
                if t.is_punct('{') {
                    open = Some(j);
                    break;
                }
                if t.is_punct(';') {
                    return j + 1;
                }
                match t.ident() {
                    Some("for") => trait_end = Some(segments.len()),
                    Some("where") => {
                        // Type name is settled; scan on for the `{` only.
                        while j < end && !self.tokens[j].is_punct('{') {
                            j += 1;
                        }
                        continue;
                    }
                    Some(id) => segments.push(id),
                    None => {}
                }
            }
            j += 1;
        }
        let Some(open) = open else { return j + 1 };
        let Some(close) = crate::rules::brace_match(self.tokens, open) else {
            return open + 1;
        };
        let (trait_name, type_name) = match trait_end {
            Some(k) => (
                segments[..k].last().map(|s| s.to_string()),
                segments[k..].last().map(|s| s.to_string()),
            ),
            None => (None, segments.last().map(|s| s.to_string())),
        };
        let Some(type_name) = type_name else {
            return close + 1;
        };
        if !self.in_test(line) {
            self.index.impls.push(ImplItem {
                file: self.file.to_string(),
                line,
                trait_name: trait_name.clone(),
                type_name: type_name.clone(),
            });
        }
        let ctx = ImplCtx {
            type_name,
            trait_name,
        };
        self.walk(open + 1, close, mods, Some(&ctx));
        close + 1
    }

    /// `fn name<G>(params) -> Ret [where ...] { body }`.
    fn scan_fn(&mut self, i: usize, end: usize, mods: &[String], imp: Option<&ImplCtx>) -> usize {
        let Some(name_tok) = self.tokens.get(i + 1) else {
            return i + 1;
        };
        let Some(name) = name_tok.ident() else {
            return i + 1;
        };
        let mut j = i + 2;
        if self.tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j, end);
        }
        if !self.tokens.get(j).is_some_and(|t| t.is_punct('(')) {
            return i + 2;
        }
        // Parameter list: match parens.
        let params_open = j;
        let mut depth = 0usize;
        let mut params_close = None;
        while j < end {
            let t = &self.tokens[j];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth == 0 {
                    params_close = Some(j);
                    break;
                }
            }
            j += 1;
        }
        let Some(params_close) = params_close else {
            return j;
        };
        // Return type runs to the body `{`, a `;`, or a `where` clause.
        let mut k = params_close + 1;
        let mut ret_end = k;
        let mut body = None;
        let mut item_after = end;
        while k < end {
            let t = &self.tokens[k];
            if t.is_punct('<') {
                k = self.skip_angles(k, end);
                ret_end = k;
                continue;
            }
            if t.is_ident("where") {
                while k < end && !self.tokens[k].is_punct('{') && !self.tokens[k].is_punct(';') {
                    k += 1;
                }
                continue;
            }
            if t.is_punct('{') {
                let close = crate::rules::brace_match(self.tokens, k);
                body = close.map(|c| (k, c));
                item_after = close.map_or(end, |c| c + 1);
                break;
            }
            if t.is_punct(';') {
                item_after = k + 1;
                break;
            }
            k += 1;
            ret_end = k;
        }
        if !self.in_test(name_tok.line) {
            let sig = self.normalize(params_open, params_close + 1)
                + &self.normalize(params_close + 1, ret_end);
            self.index.fns.push(FnItem {
                file: self.file.to_string(),
                line: name_tok.line,
                col: name_tok.col,
                name: name.to_string(),
                sig: sig.trim().to_string(),
                modules: mods.to_vec(),
                impl_type: imp.map(|c| c.type_name.clone()),
                trait_name: imp.and_then(|c| c.trait_name.clone()),
                is_pub: self.is_pub_before(i),
                body,
            });
        }
        item_after
    }

    /// `struct Name<G> { fields }` / tuple / unit struct.
    fn scan_struct(&mut self, i: usize, end: usize) -> usize {
        let Some(name_tok) = self.tokens.get(i + 1) else {
            return i + 1;
        };
        let Some(name) = name_tok.ident() else {
            return i + 1;
        };
        let mut j = i + 2;
        if self.tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j, end);
        }
        // `where` clauses may precede the brace.
        while j < end
            && !self.tokens[j].is_punct('{')
            && !self.tokens[j].is_punct('(')
            && !self.tokens[j].is_punct(';')
        {
            j += 1;
        }
        let mut fields = Vec::new();
        let item_after = match self.tokens.get(j) {
            Some(t) if t.is_punct('{') => {
                let close = crate::rules::brace_match(self.tokens, j).unwrap_or(end - 1);
                self.scan_fields(j + 1, close, &mut fields);
                close + 1
            }
            Some(t) if t.is_punct('(') => crate::rules::item_end(self.tokens, j) + 1,
            _ => j + 1,
        };
        if !self.in_test(name_tok.line) {
            self.index.structs.push(StructItem {
                file: self.file.to_string(),
                line: name_tok.line,
                col: name_tok.col,
                name: name.to_string(),
                fields,
            });
        }
        item_after
    }

    /// Named fields between a struct's braces: `[pub] name: Type,`.
    fn scan_fields(&mut self, start: usize, end: usize, out: &mut Vec<(String, String)>) {
        let mut i = start;
        while i < end {
            let t = &self.tokens[i];
            if t.is_punct('#') && self.tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
                i = crate::rules::skip_attr(self.tokens, i);
                continue;
            }
            if t.is_ident("pub") {
                i += 1;
                if self.tokens.get(i).is_some_and(|t| t.is_punct('(')) {
                    // `pub(crate)` and friends.
                    while i < end && !self.tokens[i].is_punct(')') {
                        i += 1;
                    }
                    i += 1;
                }
                continue;
            }
            let Some(field) = t.ident() else {
                i += 1;
                continue;
            };
            if !self.tokens.get(i + 1).is_some_and(|t| t.is_punct(':')) {
                i += 1;
                continue;
            }
            // Type runs to the next comma at bracket depth 0.
            let ty_start = i + 2;
            let mut j = ty_start;
            let (mut angle, mut paren, mut square) = (0i32, 0i32, 0i32);
            while j < end {
                let t = &self.tokens[j];
                if t.is_punct(',') && angle == 0 && paren == 0 && square == 0 {
                    break;
                }
                match () {
                    _ if t.is_punct('<') => angle += 1,
                    _ if t.is_punct('>') => angle -= 1,
                    _ if t.is_punct('(') => paren += 1,
                    _ if t.is_punct(')') => paren -= 1,
                    _ if t.is_punct('[') => square += 1,
                    _ if t.is_punct(']') => square -= 1,
                    _ => {}
                }
                j += 1;
            }
            out.push((field.to_string(), self.normalize(ty_start, j)));
            i = j + 1;
        }
    }

    /// `enum Name<G> { Variant, Variant(..), Variant { .. } }`.
    fn scan_enum(&mut self, i: usize, end: usize) -> usize {
        let Some(name_tok) = self.tokens.get(i + 1) else {
            return i + 1;
        };
        let Some(name) = name_tok.ident() else {
            return i + 1;
        };
        let mut j = i + 2;
        if self.tokens.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j, end);
        }
        let Some(open) = self.find_block_open(j, end) else {
            return j;
        };
        let close = crate::rules::brace_match(self.tokens, open).unwrap_or(end - 1);
        let mut variants = Vec::new();
        let mut k = open + 1;
        while k < close {
            let t = &self.tokens[k];
            if t.is_punct('#') && self.tokens.get(k + 1).is_some_and(|t| t.is_punct('[')) {
                k = crate::rules::skip_attr(self.tokens, k);
                continue;
            }
            if let Some(v) = t.ident() {
                variants.push((v.to_string(), t.line, t.col));
                // Skip the variant's payload / discriminant to its comma.
                let mut depth = 0i32;
                while k < close {
                    let t = &self.tokens[k];
                    if t.is_punct(',') && depth == 0 {
                        break;
                    }
                    if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
                        depth += 1;
                    } else if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') {
                        depth -= 1;
                    }
                    k += 1;
                }
            }
            k += 1;
        }
        if !self.in_test(name_tok.line) {
            self.index.enums.push(EnumItem {
                file: self.file.to_string(),
                line: name_tok.line,
                name: name.to_string(),
                variants,
            });
        }
        close + 1
    }

    /// First `{` at or after `i` (for `mod`/`enum` heads that may carry
    /// attributes or generics in between).
    fn find_block_open(&self, i: usize, end: usize) -> Option<usize> {
        (i..end).find(|&k| self.tokens[k].is_punct('{'))
    }

    /// Index just past the `>` matching the `<` at `i`. Skips `->` arrows
    /// so `Fn() -> T` bounds do not unbalance the count.
    fn skip_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i32;
        let mut j = i;
        while j < end {
            let t = &self.tokens[j];
            if t.is_punct('-') && self.tokens.get(j + 1).is_some_and(|t| t.is_punct('>')) {
                j += 2;
                continue;
            }
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        j
    }

    /// Whether a visibility qualifier precedes the keyword at `i`,
    /// scanning back over `pub(crate)`-style groups and fn qualifiers.
    fn is_pub_before(&self, i: usize) -> bool {
        let mut k = i;
        while k > 0 {
            k -= 1;
            let t = &self.tokens[k];
            match t.ident() {
                Some("pub") => return true,
                Some(
                    "const" | "unsafe" | "async" | "extern" | "crate" | "super" | "self" | "in",
                ) => continue,
                Some(_) => return false,
                None => {
                    if t.is_punct('(') || t.is_punct(')') || matches!(t.kind, TokenKind::Str) {
                        continue; // `pub(in path)`, `extern "C"`
                    }
                    return false;
                }
            }
        }
        false
    }

    /// Space-joined normalized token text for `tokens[start..end)`.
    fn normalize(&self, start: usize, end: usize) -> String {
        let mut out = String::new();
        for t in &self.tokens[start..end.min(self.tokens.len())] {
            if !out.is_empty() {
                out.push(' ');
            }
            match &t.kind {
                TokenKind::Ident(s) => out.push_str(s),
                TokenKind::Number => out.push('N'),
                TokenKind::Str => out.push('S'),
                TokenKind::Char => out.push('C'),
                TokenKind::Lifetime => out.push_str("'_"),
                TokenKind::Punct(c) => out.push(*c),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(path: &str, src: &str) -> SourceUnit {
        SourceUnit {
            rel_path: path.to_string(),
            source: src.to_string(),
        }
    }

    #[test]
    fn indexes_fns_with_modules_and_signatures() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "pub fn ones(bytes: &[u8]) -> u32 { 0 }\n\
             pub mod reference {\n    pub fn ones(bytes: &[u8]) -> u32 { 0 }\n}\n",
        )]);
        assert_eq!(idx.fns.len(), 2);
        assert_eq!(idx.fns[0].modules, Vec::<String>::new());
        assert_eq!(idx.fns[1].modules, vec!["reference".to_string()]);
        assert_eq!(idx.fns[0].sig, idx.fns[1].sig);
        assert!(idx.fns[0].is_pub && idx.fns[1].is_pub);
    }

    #[test]
    fn signature_normalization_collapses_literals_and_whitespace() {
        let a = SymbolIndex::from_units(&[unit(
            "a.rs",
            "fn f(x: u64, y: &str) -> Option<u64> { None }",
        )]);
        let b = SymbolIndex::from_units(&[unit(
            "b.rs",
            "fn f(\n    x: u64,\n    y: &str,\n) -> Option<u64> {\n    None\n}",
        )]);
        // Trailing comma differs, so compare through the parameter names.
        assert!(a.fns[0].sig.starts_with("( x : u64 , y : & str"));
        assert!(b.fns[0].sig.starts_with("( x : u64 , y : & str"));
    }

    #[test]
    fn indexes_impl_trait_for_type_with_path_qualification() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "impl ladder_trace::Mergeable for RunnerStats {\n    fn merge_from(&mut self, o: &Self) {}\n}\n\
             impl RunnerStats {\n    fn new() -> Self { Self }\n}\n",
        )]);
        assert!(idx.has_trait_impl("Mergeable", "RunnerStats"));
        assert_eq!(idx.impls.len(), 2);
        assert_eq!(idx.impls[1].trait_name, None);
        let merge = idx.fns.iter().find(|f| f.name == "merge_from").unwrap();
        assert_eq!(merge.impl_type.as_deref(), Some("RunnerStats"));
        assert_eq!(merge.trait_name.as_deref(), Some("Mergeable"));
        assert!(merge.body.is_some());
    }

    #[test]
    fn indexes_struct_fields_with_types() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "pub struct EventCounts {\n    pub core_wake: u64,\n    #[doc(hidden)]\n    pub label: String,\n    pub buckets: [u64; 8],\n}\n",
        )]);
        let s = idx.struct_named("EventCounts").unwrap();
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.fields[0], ("core_wake".to_string(), "u64".to_string()));
        assert_eq!(s.fields[2].0, "buckets");
        assert!(s.fields[2].1.contains("u64"));
    }

    #[test]
    fn indexes_enum_variants_and_skips_payloads() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "pub enum QueueBackend {\n    Calendar,\n    Heap,\n}\n\
             pub enum E {\n    A(u64, String),\n    B { x: u64 },\n}\n",
        )]);
        let q = &idx.enums[0];
        let names: Vec<&str> = q.variants.iter().map(|v| v.0.as_str()).collect();
        assert_eq!(names, vec!["Calendar", "Heap"]);
        let e = &idx.enums[1];
        let names: Vec<&str> = e.variants.iter().map(|v| v.0.as_str()).collect();
        assert_eq!(names, vec!["A", "B"]);
    }

    #[test]
    fn test_spans_are_excluded_but_their_idents_still_index() {
        let idx = SymbolIndex::from_units(&[unit(
            "crates/x/src/lib.rs",
            "pub fn live() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n    struct FakeStats { a: u64 }\n}\n",
        )]);
        assert_eq!(idx.fns.len(), 1);
        assert!(idx.structs.is_empty());
        let idents = &idx.file_idents["crates/x/src/lib.rs"];
        assert!(idents.contains("helper") && idents.contains("FakeStats"));
    }

    #[test]
    fn build_is_order_independent() {
        let units = vec![
            unit("b.rs", "pub fn two() -> u64 { 2 }"),
            unit("a.rs", "pub fn one() -> u64 { 1 }"),
        ];
        let fwd = SymbolIndex::from_units(&units);
        let rev: Vec<SourceUnit> = units.into_iter().rev().collect();
        assert_eq!(fwd, SymbolIndex::from_units(&rev));
        assert_eq!(fwd.fns[0].name, "one");
    }
}
