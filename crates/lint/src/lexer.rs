//! A comment/string-aware Rust lexer — just enough tokenization for the
//! repo's invariant checks, with no external parser (this container is
//! offline).
//!
//! The hard part of lexical analysis over Rust is not the identifiers,
//! it is everything that can *hide* a brace or a `.lock()`: nested block
//! comments, string literals (plain, raw with any `#` count, byte, raw
//! byte), char literals with escapes, and the `'a` lifetime vs `'a'`
//! char ambiguity. This lexer resolves all of those and discards
//! comments from the token stream while harvesting
//! `lint: allow(rule, reason)` suppressions out of them (see
//! [`Allow`]), so rules can walk clean tokens and still honor inline
//! annotations.

/// What a token is. Rules mostly match on `Ident` spellings and single
/// `Punct` characters; multi-character operators arrive as consecutive
/// `Punct` tokens (`=>` is `=` then `>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword (`let`, `lock`, `TAG_SUBMIT`, `r#match`).
    Ident,
    /// Lifetime such as `'a` (the tick is not part of `text`).
    Lifetime,
    /// Any string literal (`"…"`, `r#"…"#`, `b"…"`); `text` is the
    /// unescaped contents without quotes or hashes.
    Str,
    /// A character or byte literal; `text` is the raw interior.
    Char,
    /// A numeric literal (`42`, `0x4A`, `1_000`, `2.5`); `text` is the
    /// raw spelling.
    Num,
    /// A single punctuation character.
    Punct,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    /// Is this an identifier spelled exactly `s`?
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Is this the punctuation character `c`?
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.as_bytes()[0] == c as u8
    }

    /// Numeric value of a `Num` token, accepting `0x`/`0o`/`0b`
    /// prefixes, `_` separators, and integer-suffix spellings
    /// (`0x4Au8`). `None` for floats or non-numeric tokens.
    pub(crate) fn num_value(&self) -> Option<u64> {
        if self.kind != TokenKind::Num {
            return None;
        }
        let t: String = self.text.chars().filter(|&c| c != '_').collect();
        let (radix, digits) = match t.as_bytes() {
            [b'0', b'x' | b'X', rest @ ..] => (16, rest),
            [b'0', b'o' | b'O', rest @ ..] => (8, rest),
            [b'0', b'b' | b'B', rest @ ..] => (2, rest),
            rest => (10, rest),
        };
        // Strip a trailing type suffix (u8, i64, usize …).
        let digits = std::str::from_utf8(digits).ok()?;
        let end = digits
            .find(|c: char| !c.is_digit(radix))
            .unwrap_or(digits.len());
        if end == 0 {
            return None;
        }
        u64::from_str_radix(&digits[..end], radix).ok()
    }
}

/// An inline suppression harvested from a comment:
/// `// lint: allow(rule_name, free-text reason)` or
/// `// lint: allow(rule_name)`.
///
/// A *trailing* allow (code earlier on the same line) suppresses that
/// line. A *standalone* allow (comment is the whole line) suppresses
/// the next line that carries any token. `allow-file(rule)` suppresses
/// the rule for the entire file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Allow {
    pub rule: String,
    pub reason: String,
    /// Line the suppression applies to; `None` = whole file.
    pub line: Option<u32>,
}

/// A fully lexed source file: comment-free tokens plus the allow
/// annotations the comments carried.
#[derive(Debug, Default)]
pub(crate) struct Lexed {
    pub tokens: Vec<Token>,
    pub allows: Vec<Allow>,
}

impl Lexed {
    /// Is `rule` suppressed at `line`?
    pub(crate) fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.line.is_none() || a.line == Some(line)))
    }
}

/// Pending comment annotation: parsed allow waiting to learn which line
/// it governs (standalone comments bind to the next token-bearing line).
struct PendingAllow {
    rule: String,
    reason: String,
    comment_line: u32,
    file_wide: bool,
    had_code_before: bool,
}

/// Lex `src` into tokens and allow annotations. Never fails: bytes the
/// lexer does not understand become single-character `Punct` tokens, so
/// a malformed file degrades to noise instead of a crash.
pub(crate) fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut out = Lexed::default();
    let mut pending: Vec<PendingAllow> = Vec::new();
    // Lines that already produced at least one token (to classify
    // trailing vs standalone comments).
    let mut last_token_line: u32 = 0;

    macro_rules! flush_pending {
        ($tok_line:expr) => {
            for p in pending.drain(..) {
                out.allows.push(Allow {
                    rule: p.rule,
                    reason: p.reason,
                    line: if p.file_wide {
                        None
                    } else if p.had_code_before {
                        Some(p.comment_line)
                    } else {
                        Some($tok_line)
                    },
                });
            }
        };
    }

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                harvest_allows(
                    &src[start..i],
                    line,
                    last_token_line == line,
                    &mut pending,
                    &mut out,
                );
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Nested block comment; newlines inside advance `line`.
                let start = i;
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                harvest_allows(
                    &src[start..i],
                    start_line,
                    last_token_line == start_line,
                    &mut pending,
                    &mut out,
                );
            }
            b'"' => {
                let (text, nl) = lex_plain_string(b, &mut i);
                flush_pending!(line);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line,
                });
                last_token_line = line;
                line += nl;
            }
            b'r' | b'b' if starts_string(b, i) => {
                let start_line = line;
                let (text, nl) = lex_prefixed_string(b, &mut i);
                flush_pending!(start_line);
                out.tokens.push(Token {
                    kind: TokenKind::Str,
                    text,
                    line: start_line,
                });
                last_token_line = start_line;
                line += nl;
            }
            b'\'' => {
                // Lifetime or char literal. `'` + ident-start is a
                // lifetime unless the ident is one char followed by a
                // closing `'` (then it is a char literal like 'a').
                if let Some(tok) = lex_tick(b, &mut i, line) {
                    flush_pending!(line);
                    out.tokens.push(tok);
                    last_token_line = line;
                } else {
                    i += 1; // stray tick: degrade to punct
                    flush_pending!(line);
                    out.tokens.push(Token {
                        kind: TokenKind::Punct,
                        text: "'".into(),
                        line,
                    });
                    last_token_line = line;
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                flush_pending!(line);
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: src[start..i].to_string(),
                    line,
                });
                last_token_line = line;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < b.len() {
                    let d = b[i];
                    if d == b'.' {
                        // `..` is a range, not part of the number.
                        if i + 1 < b.len() && b[i + 1] == b'.' {
                            break;
                        }
                        // `1.method()` — a dot followed by ident-start
                        // is a method call, not a float.
                        if i + 1 < b.len() && (b[i + 1] == b'_' || b[i + 1].is_ascii_alphabetic()) {
                            break;
                        }
                        i += 1;
                    } else if d == b'_' || d.is_ascii_alphanumeric() {
                        i += 1;
                    } else {
                        break;
                    }
                }
                flush_pending!(line);
                out.tokens.push(Token {
                    kind: TokenKind::Num,
                    text: src[start..i].to_string(),
                    line,
                });
                last_token_line = line;
            }
            _ => {
                flush_pending!(line);
                out.tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (c as char).to_string(),
                    line,
                });
                last_token_line = line;
                i += 1;
            }
        }
    }
    // Standalone allows at EOF with no following code: bind to their
    // own line so they are at least inert, not dangling.
    for p in pending.drain(..) {
        out.allows.push(Allow {
            rule: p.rule,
            reason: p.reason,
            line: if p.file_wide {
                None
            } else {
                Some(p.comment_line)
            },
        });
    }
    out
}

/// Does `b[i..]` start a raw/byte string (`r"`, `r#`, `b"`, `br`, `rb`)
/// rather than an identifier beginning with r/b?
fn starts_string(b: &[u8], i: usize) -> bool {
    let mut j = i;
    // Up to two prefix letters (b, r in either order — rust allows br"
    // and r", b"; rb" is not legal rust but accepting it is harmless).
    while j < b.len() && (b[j] == b'b' || b[j] == b'r') && j - i < 2 {
        j += 1;
    }
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"' && {
        // `r#ident` raw identifiers: a `#` run NOT followed by a quote
        // fails the b[j] check above, so reaching here means string.
        true
    }
}

/// Lex a `"…"` string with escapes. Returns (unescaped text, newlines
/// consumed). `i` is on the opening quote.
fn lex_plain_string(b: &[u8], i: &mut usize) -> (String, u32) {
    let mut text = String::new();
    let mut nl = 0;
    *i += 1;
    while *i < b.len() {
        match b[*i] {
            b'"' => {
                *i += 1;
                break;
            }
            b'\\' if *i + 1 < b.len() => {
                let e = b[*i + 1];
                text.push(match e {
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'0' => '\0',
                    other => other as char,
                });
                if e == b'\n' {
                    nl += 1;
                }
                *i += 2;
            }
            b'\n' => {
                nl += 1;
                text.push('\n');
                *i += 1;
            }
            c => {
                text.push(c as char);
                *i += 1;
            }
        }
    }
    (text, nl)
}

/// Lex `r"…"`, `r#"…"#`, `b"…"`, `br##"…"##` (any hash count). `i` is on
/// the first prefix letter. Raw strings have no escapes; the closing
/// delimiter is `"` followed by the same number of `#`.
fn lex_prefixed_string(b: &[u8], i: &mut usize) -> (String, u32) {
    let mut raw = false;
    while *i < b.len() && (b[*i] == b'b' || b[*i] == b'r') {
        if b[*i] == b'r' {
            raw = true;
        }
        *i += 1;
    }
    let mut hashes = 0usize;
    while *i < b.len() && b[*i] == b'#' {
        hashes += 1;
        *i += 1;
    }
    if !raw {
        return lex_plain_string(b, i); // b"…" behaves like "…"
    }
    // On the opening quote of a raw string.
    *i += 1;
    let mut text = String::new();
    let mut nl = 0;
    while *i < b.len() {
        if b[*i] == b'"' {
            // Check for `"` + hashes.
            let end = *i + 1;
            if b.len() >= end + hashes && b[end..end + hashes].iter().all(|&h| h == b'#') {
                *i = end + hashes;
                break;
            }
            text.push('"');
            *i += 1;
        } else {
            if b[*i] == b'\n' {
                nl += 1;
            }
            text.push(b[*i] as char);
            *i += 1;
        }
    }
    (text, nl)
}

/// Lex at a `'`: a char literal (`'a'`, `'\n'`, `'\u{1F600}'`) or a
/// lifetime (`'a`, `'static`). Returns `None` for a bare tick.
fn lex_tick(b: &[u8], i: &mut usize, line: u32) -> Option<Token> {
    let j = *i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        // Escaped char literal: scan to the closing tick.
        let mut k = j + 1;
        if k < b.len() {
            k += 1; // the escaped character itself
            if b[k - 1] == b'u' {
                // '\u{…}'
                while k < b.len() && b[k] != b'\'' && b[k] != b'\n' {
                    k += 1;
                }
            }
        }
        if k < b.len() && b[k] == b'\'' {
            let text = String::from_utf8_lossy(&b[j..k]).into_owned();
            *i = k + 1;
            return Some(Token {
                kind: TokenKind::Char,
                text,
                line,
            });
        }
        return None;
    }
    if b[j] == b'_' || b[j].is_ascii_alphabetic() {
        // Could be lifetime or 'a'. Scan the ident.
        let mut k = j;
        while k < b.len() && (b[k] == b'_' || b[k].is_ascii_alphanumeric()) {
            k += 1;
        }
        if k < b.len() && b[k] == b'\'' && k == j + 1 {
            // Exactly one ident char then a tick: char literal 'a'.
            let text = (b[j] as char).to_string();
            *i = k + 1;
            return Some(Token {
                kind: TokenKind::Char,
                text,
                line,
            });
        }
        // Lifetime: `'ident` (multi-char idents followed by a tick,
        // like 'ab', are not legal rust — treat as lifetime anyway).
        let text = String::from_utf8_lossy(&b[j..k]).into_owned();
        *i = k;
        return Some(Token {
            kind: TokenKind::Lifetime,
            text,
            line,
        });
    }
    if !b[j].is_ascii() || b[j] != b'\'' {
        // Single non-ident char literal like '.' or '→' (multibyte).
        let mut k = j + 1;
        while k < b.len() && (b[k] & 0xC0) == 0x80 {
            k += 1; // continuation bytes of a multibyte char
        }
        if k < b.len() && b[k] == b'\'' {
            let text = String::from_utf8_lossy(&b[j..k]).into_owned();
            *i = k + 1;
            return Some(Token {
                kind: TokenKind::Char,
                text,
                line,
            });
        }
    }
    None
}

/// Pull `lint: allow(rule, reason)` / `lint: allow-file(rule, reason)`
/// out of one comment's text. File-wide allows land directly in `out`;
/// line allows become pending (standalone comments bind forward).
fn harvest_allows(
    comment: &str,
    comment_line: u32,
    had_code_before: bool,
    pending: &mut Vec<PendingAllow>,
    out: &mut Lexed,
) {
    let mut rest = comment;
    while let Some(at) = rest.find("lint:") {
        rest = &rest[at + 5..];
        let body = rest.trim_start();
        let file_wide = body.starts_with("allow-file(");
        let open = match body.find('(') {
            Some(p) if body[..p].trim() == "allow" || body[..p].trim() == "allow-file" => p,
            _ => continue,
        };
        let Some(close) = body[open..].find(')') else {
            continue;
        };
        let inner = &body[open + 1..open + close];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim().to_string(), why.trim().to_string()),
            None => (inner.trim().to_string(), String::new()),
        };
        if rule.is_empty() {
            continue;
        }
        if file_wide {
            out.allows.push(Allow {
                rule,
                reason,
                line: None,
            });
        } else {
            pending.push(PendingAllow {
                rule,
                reason,
                comment_line,
                file_wide: false,
                had_code_before,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- strings ----

    #[test]
    fn string_contents_do_not_tokenize() {
        let toks = lex(r#"let s = "if { } .lock() // not a comment";"#).tokens;
        assert!(toks.iter().all(|t| !t.is_punct('{') && !t.is_ident("lock")));
        let s = toks.iter().find(|t| t.kind == TokenKind::Str).unwrap();
        assert_eq!(s.text, "if { } .lock() // not a comment");
    }

    #[test]
    fn escapes_are_unescaped() {
        let toks = lex(r#""a\n\"b\\""#).tokens;
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[0].text, "a\n\"b\\");
    }

    #[test]
    fn raw_strings_with_hashes() {
        let toks = lex("let s = r##\"has \"# inside\"##; tail").tokens;
        let s = &toks[3];
        assert_eq!(s.kind, TokenKind::Str);
        assert_eq!(s.text, "has \"# inside");
        assert!(toks.iter().any(|t| t.is_ident("tail")));
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let toks = lex(r###"b"ab" br#"c"d"#"###).tokens;
        assert_eq!(toks[0].kind, TokenKind::Str);
        assert_eq!(toks[0].text, "ab");
        assert_eq!(toks[1].kind, TokenKind::Str);
        assert_eq!(toks[1].text, "c\"d");
    }

    #[test]
    fn raw_identifiers_are_not_strings() {
        let toks = lex("let r#match = 1;").tokens;
        assert!(toks.iter().all(|t| t.kind != TokenKind::Str));
        assert!(toks.iter().any(|t| t.is_ident("match")));
    }

    #[test]
    fn multiline_strings_advance_line_numbers() {
        let toks = lex("\"a\nb\" tail").tokens;
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
    }

    // ---- comments ----

    #[test]
    fn nested_block_comments_are_skipped() {
        let toks = lex("a /* outer /* inner */ still comment */ b").tokens;
        assert_eq!(toks.len(), 2);
        assert!(toks[0].is_ident("a"));
        assert!(toks[1].is_ident("b"));
    }

    #[test]
    fn block_comment_newlines_advance_line_numbers() {
        let toks = lex("a /* x\n\n*/ b\nc").tokens;
        assert_eq!(toks[1].line, 3);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn comments_inside_strings_are_not_harvested() {
        let l = lex("let s = \"// lint: allow(rule_z, nope)\";");
        assert!(l.allows.is_empty());
    }

    // ---- lifetimes vs chars ----

    #[test]
    fn lifetimes_and_char_literals_disambiguate() {
        let toks = lex("fn f<'a>(x: &'a u8, y: &'static str) { let c = 'a'; }").tokens;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 3);
        assert_eq!(lifetimes[2].text, "static");
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Char).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "a");
    }

    #[test]
    fn escaped_char_literals() {
        let toks = lex(r"let c = '\n'; let q = '\'';").tokens;
        let chars: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Char).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, r"\n");
    }

    // ---- numbers ----

    #[test]
    fn num_values_across_radixes_and_suffixes() {
        let num = |src: &str| lex(src).tokens[0].num_value();
        assert_eq!(num("0x4A"), Some(74));
        assert_eq!(num("0b1010"), Some(10));
        assert_eq!(num("0o17"), Some(15));
        assert_eq!(num("1_000"), Some(1000));
        assert_eq!(num("42u8"), Some(42));
        assert_eq!(num("7"), Some(7));
    }

    #[test]
    fn method_calls_on_numbers_are_not_floats() {
        let toks = lex("1.max(2)").tokens;
        assert_eq!(toks[0].text, "1");
        assert!(toks[2].is_ident("max"));
    }

    // ---- allow annotations ----

    #[test]
    fn trailing_allow_suppresses_its_own_line() {
        let l = lex("foo(); // lint: allow(rule_x, because)\nbar();");
        assert!(l.allowed("rule_x", 1));
        assert!(!l.allowed("rule_x", 2));
        assert!(!l.allowed("rule_y", 1));
    }

    #[test]
    fn standalone_allow_binds_to_next_code_line() {
        let l = lex("// lint: allow(rule_x, why)\n\nfoo();");
        assert!(l.allowed("rule_x", 3));
        assert!(!l.allowed("rule_x", 1));
    }

    #[test]
    fn allow_file_suppresses_every_line() {
        let l = lex("// lint: allow-file(rule_x, why)\nfoo();\nbar();");
        assert!(l.allowed("rule_x", 2));
        assert!(l.allowed("rule_x", 999));
    }

    #[test]
    fn allow_reason_is_preserved_including_commas() {
        let l = lex("// lint: allow(rule_x, spaces, even commas)\nfoo();");
        assert_eq!(l.allows.len(), 1);
        assert_eq!(l.allows[0].reason, "spaces, even commas");
    }
}
