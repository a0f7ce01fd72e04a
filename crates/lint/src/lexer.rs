//! A hand-rolled Rust token scanner.
//!
//! The analyzer must run on the `--offline`, path-local workspace, so it
//! cannot use `syn` or any registry crate. This lexer implements exactly
//! the subset of Rust's lexical grammar the rules need to be sound:
//! strings (plain, raw, byte, raw-byte), char literals, lifetimes, line
//! and (nested) block comments, identifiers (including raw `r#ident`),
//! numbers and punctuation. Everything inside strings and comments is
//! invisible to rules — `"SimConfig { .. }"` in a string or `// x as u32`
//! in a comment never fires a finding.

/// What a scanned token is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `as`, `impl`, ...).
    Ident(String),
    /// A numeric literal (value not retained; no rule needs it).
    Number,
    /// A string literal of any flavor (contents not retained).
    Str,
    /// A character or byte literal.
    Char,
    /// A lifetime (`'a`, `'static`).
    Lifetime,
    /// A single punctuation character.
    Punct(char),
}

/// One token with its source position (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token's kind (and text, for identifiers).
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (in characters).
    pub col: usize,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }

    /// Whether this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.ident() == Some(s)
    }
}

struct Cursor {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    col: usize,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Cursor {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Scans `src` into code tokens, in source order.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();

    while let Some(c) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        match c {
            ch if ch.is_whitespace() => {
                cur.bump();
                continue;
            }
            '/' if cur.peek_at(1) == Some('/') => {
                while cur.peek().is_some_and(|ch| ch != '\n') {
                    cur.bump();
                }
                continue;
            }
            '/' if cur.peek_at(1) == Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some('/'), Some('*')) => {
                            cur.bump();
                            cur.bump();
                            depth += 1;
                        }
                        (Some('*'), Some('/')) => {
                            cur.bump();
                            cur.bump();
                            depth -= 1;
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break, // unterminated; tolerate
                    }
                }
                continue;
            }
            '"' => {
                scan_string(&mut cur);
                out.push(Token {
                    kind: TokenKind::Str,
                    line,
                    col,
                });
            }
            '\'' => {
                let kind = scan_char_or_lifetime(&mut cur);
                out.push(Token { kind, line, col });
            }
            'r' | 'b' if starts_string_prefix(&cur) => {
                let kind = scan_prefixed_literal(&mut cur);
                out.push(Token { kind, line, col });
            }
            ch if is_ident_start(ch) => {
                let mut text = String::new();
                while let Some(ch) = cur.peek() {
                    if !is_ident_continue(ch) {
                        break;
                    }
                    text.push(ch);
                    cur.bump();
                }
                out.push(Token {
                    kind: TokenKind::Ident(text),
                    line,
                    col,
                });
            }
            ch if ch.is_ascii_digit() => {
                while let Some(ch) = cur.peek() {
                    // `.` continues the number only when a digit follows,
                    // so `0..5` and `1.0.sqrt()` tokenize correctly.
                    let continues = is_ident_continue(ch)
                        || (ch == '.' && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()));
                    if !continues {
                        break;
                    }
                    cur.bump();
                }
                out.push(Token {
                    kind: TokenKind::Number,
                    line,
                    col,
                });
            }
            ch => {
                cur.bump();
                out.push(Token {
                    kind: TokenKind::Punct(ch),
                    line,
                    col,
                });
            }
        }
    }
    out
}

/// Whether the cursor sits on an `r`/`b`-prefixed string or byte literal
/// (as opposed to an ordinary identifier starting with `r` or `b`).
fn starts_string_prefix(cur: &Cursor) -> bool {
    match (cur.peek(), cur.peek_at(1), cur.peek_at(2)) {
        // `r"..."`, `r#"..."#` (raw string) and `r#ident` (raw identifier)
        // are all handled by `scan_prefixed_literal`.
        (Some('r'), Some('"'), _) | (Some('r'), Some('#'), _) => true,
        (Some('b'), Some('"'), _) | (Some('b'), Some('\''), _) => true,
        (Some('b'), Some('r'), Some('"')) | (Some('b'), Some('r'), Some('#')) => true,
        _ => false,
    }
}

/// Scans a `"`-delimited string; the opening quote is at the cursor.
fn scan_string(cur: &mut Cursor) {
    cur.bump(); // opening quote
    while let Some(ch) = cur.bump() {
        match ch {
            '\\' => {
                cur.bump();
            }
            '"' => break,
            _ => {}
        }
    }
}

/// Scans a raw string with `hashes` trailing `#`s; the opening quote is at
/// the cursor.
fn scan_raw_string(cur: &mut Cursor, hashes: usize) {
    cur.bump(); // opening quote
    'outer: while let Some(ch) = cur.bump() {
        if ch == '"' {
            for i in 0..hashes {
                if cur.peek_at(i) != Some('#') {
                    continue 'outer;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
    }
}

/// Scans an `r`/`b`/`br`-prefixed literal (or raw identifier) starting at
/// the cursor and returns its token kind.
fn scan_prefixed_literal(cur: &mut Cursor) -> TokenKind {
    let first = cur.peek();
    if first == Some('b') {
        cur.bump(); // 'b'
        match cur.peek() {
            Some('\'') => {
                cur.bump();
                scan_char_body(cur);
                return TokenKind::Char;
            }
            Some('"') => {
                scan_string(cur);
                return TokenKind::Str;
            }
            Some('r') => {
                cur.bump(); // 'r'
                let mut hashes = 0;
                while cur.peek() == Some('#') {
                    hashes += 1;
                    cur.bump();
                }
                scan_raw_string(cur, hashes);
                return TokenKind::Str;
            }
            _ => return TokenKind::Ident("b".to_string()),
        }
    }
    // 'r' prefix: raw string or raw identifier.
    cur.bump(); // 'r'
    let mut hashes = 0;
    while cur.peek() == Some('#') {
        hashes += 1;
        cur.bump();
    }
    if cur.peek() == Some('"') {
        scan_raw_string(cur, hashes);
        TokenKind::Str
    } else {
        // Raw identifier `r#ident`.
        let mut text = String::new();
        while let Some(ch) = cur.peek() {
            if !is_ident_continue(ch) {
                break;
            }
            text.push(ch);
            cur.bump();
        }
        TokenKind::Ident(text)
    }
}

/// Scans the body of a char literal after its opening quote (an escape or
/// one character, then the closing quote).
fn scan_char_body(cur: &mut Cursor) {
    if cur.peek() == Some('\\') {
        cur.bump();
        cur.bump(); // escape head (`n`, `u`, `'`, ...)
        if cur.peek() == Some('{') {
            // `\u{...}`
            while let Some(ch) = cur.bump() {
                if ch == '}' {
                    break;
                }
            }
        }
    } else {
        cur.bump();
    }
    if cur.peek() == Some('\'') {
        cur.bump();
    }
}

/// Disambiguates `'a'` (char) from `'a` (lifetime); the opening quote is at
/// the cursor.
fn scan_char_or_lifetime(cur: &mut Cursor) -> TokenKind {
    cur.bump(); // opening quote
    if cur.peek() == Some('\\') {
        scan_char_body(cur);
        return TokenKind::Char;
    }
    if cur.peek().is_some_and(is_ident_start) {
        // Consume the identifier; a closing quote makes it a char literal
        // (`'x'`), anything else a lifetime (`'static`).
        while cur.peek().is_some_and(is_ident_continue) {
            cur.bump();
        }
        if cur.peek() == Some('\'') {
            cur.bump();
            return TokenKind::Char;
        }
        return TokenKind::Lifetime;
    }
    // Something like `' '` or `'('`.
    scan_char_body(cur);
    TokenKind::Char
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .iter()
            .filter_map(|t| t.ident().map(str::to_string))
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_their_contents() {
        let src = r##"
            let a = "HashMap::unwrap()"; // HashMap in a comment
            /* unwrap() in /* a nested */ block comment */
            let b = r#"Instant::now() "quoted" "#;
            let c = b"thread_rng";
        "##;
        let ids = idents(src);
        assert_eq!(ids, vec!["let", "a", "let", "b", "let", "c"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let tokens = lex(src);
        let lifetimes = tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let chars = tokens.iter().filter(|t| t.kind == TokenKind::Char).count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn escaped_quote_char_literal() {
        let src = r"let q = '\''; let u = '\u{1F600}'; let n = b'\n';";
        let tokens = lex(src);
        let chars = tokens.iter().filter(|t| t.kind == TokenKind::Char).count();
        assert_eq!(chars, 3);
        assert_eq!(idents(src), vec!["let", "q", "let", "u", "let", "n"]);
    }

    #[test]
    fn numbers_do_not_swallow_method_calls_or_ranges() {
        let src = "let a = 1.0.sqrt(); for i in 0..5 {} let b = 4f64;";
        let ids = idents(src);
        assert!(ids.contains(&"sqrt".to_string()), "{ids:?}");
        assert!(ids.contains(&"in".to_string()));
    }

    #[test]
    fn raw_identifiers_keep_their_name() {
        let src = "let r#type = 1;";
        assert_eq!(idents(src), vec!["let", "type"]);
    }

    #[test]
    fn positions_are_one_based_and_accurate() {
        let src = "let x = 1;\n  let y = 2;";
        let tokens = lex(src);
        let y = tokens.iter().find(|t| t.is_ident("y")).expect("token y");
        assert_eq!((y.line, y.col), (2, 7));
    }
}
