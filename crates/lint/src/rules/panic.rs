//! `panic_audit`: `unwrap()` / `expect()` / direct indexing in the
//! non-test code of hot-path crates must be justified.
//!
//! A worker thread that panics takes a session — and under the wrong
//! lock, the whole engine — with it, so the crates on the serving path
//! (`engine`, `serve`, `proto`, `cluster`, `obs`) get audited: every
//! potential panic site either carries an inline
//! `// lint: allow(panic_audit, reason)` or is rewritten to handle the
//! failure.
//!
//! Two idioms are allowed without annotation because flagging them
//! would be pure noise (documented in `docs/LINT.md`):
//!
//! * **Poison propagation** — `…lock().expect(…)`, `…cv.wait(g).expect(…)`
//!   (and `read()`/`write()` RwLock guards): a poisoned lock means
//!   another thread already panicked mid-update; crashing rather than
//!   computing on half-written state is the policy this workspace
//!   chose.
//! * **Infallible narrowing** — `…try_into().expect(…)` converting a
//!   fixed-length slice to an array: the length is statically evident
//!   at every call site in this codebase.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use crate::Report;

pub const PANIC_AUDIT: &str = "panic_audit";

/// Crates on the request serving path.
pub const HOT_PATH_CRATES: &[&str] = &["engine", "serve", "proto", "cluster", "obs"];

/// Callees whose `unwrap`/`expect` is poison propagation.
const POISON_SOURCES: &[&str] = &[
    "lock",
    "wait",
    "wait_timeout",
    "wait_while",
    "read",
    "write",
];
const INFALLIBLE: &[&str] = &["try_into"];

/// Keywords that can directly precede `[` without it being indexing
/// (slice patterns, loop bodies, array types …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "if", "else", "match", "return", "move", "while", "for", "loop",
    "break", "continue", "as", "dyn", "where", "use", "pub", "crate", "fn", "impl", "trait",
    "type", "struct", "enum", "const", "static", "unsafe", "async", "await", "box", "yield",
];

pub fn walk_file(f: &SourceFile, report: &mut Report) {
    if !HOT_PATH_CRATES.contains(&f.crate_name.as_str()) {
        return;
    }
    let toks = &f.lexed.tokens;
    for i in 0..toks.len() {
        if f.in_test(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokenKind::Ident && (t.text == "unwrap" || t.text == "expect") {
            let method = i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if !method {
                continue;
            }
            if let Some(callee) = receiver_callee(toks, i - 1) {
                let empty_args = callee.1;
                if (POISON_SOURCES.contains(&callee.0.as_str())
                    && (empty_args || !matches!(callee.0.as_str(), "read" | "write")))
                    || INFALLIBLE.contains(&callee.0.as_str())
                {
                    continue;
                }
            }
            flag(
                f,
                t.line,
                format!(
                    "`{}()` on the hot path can panic a worker; handle the failure \
                     (typed error, `match`, default) or annotate \
                     `// lint: allow(panic_audit, reason)`",
                    t.text
                ),
                report,
            );
        } else if t.is_punct('[') && i > 0 {
            let p = &toks[i - 1];
            let indexing = match p.kind {
                TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&p.text.as_str()),
                TokenKind::Punct => p.is_punct(')') || p.is_punct(']'),
                _ => false,
            };
            if !indexing {
                continue;
            }
            flag(
                f,
                t.line,
                "direct indexing panics on out-of-bounds; use `.get(…)` or prove the \
                 bound and annotate `// lint: allow(panic_audit, reason)`"
                    .to_string(),
                report,
            );
        }
    }
}

fn flag(f: &SourceFile, line: u32, message: String, report: &mut Report) {
    let allowed = f.lexed.allowed(PANIC_AUDIT, line);
    report.flag(allowed, &f.rel_path, line, PANIC_AUDIT, message);
}

/// If the expression before `dot_idx` is a call `name(…)`, return the
/// callee name and whether its argument list is empty.
fn receiver_callee(toks: &[Token], dot_idx: usize) -> Option<(String, bool)> {
    if dot_idx == 0 || !toks[dot_idx - 1].is_punct(')') {
        return None;
    }
    let mut bal = 1i32;
    let mut k = dot_idx as isize - 2;
    while k >= 0 && bal > 0 {
        if toks[k as usize].is_punct(')') {
            bal += 1;
        } else if toks[k as usize].is_punct('(') {
            bal -= 1;
        }
        if bal > 0 {
            k -= 1;
        }
    }
    if k < 1 {
        return None;
    }
    let open = k as usize;
    let callee = &toks[open - 1];
    if callee.kind != TokenKind::Ident {
        return None;
    }
    let empty = open + 1 == dot_idx - 1;
    Some((callee.text.clone(), empty))
}
