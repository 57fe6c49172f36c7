//! `wire_protocol`: conformance between the protocol version constant,
//! the protocol spec document, and the handshake tests.
//!
//! The message tag table is not this rule's business: it is generated
//! from one declaration in `crates/proto/src/wire.rs` (`MESSAGE_TAGS`),
//! and a test there checks uniqueness, the request/response split and
//! the spec document's table against it. What only convention keeps
//! aligned, and this rule checks:
//!
//! * `PROTO_VERSION` in code equals the `version u16 = N` the spec
//!   document declares;
//! * the version-mismatch handshake tests exist and reference
//!   `PROTO_VERSION` symbolically (a hardcoded version in those tests
//!   would rot on the next bump).

use crate::lexer::Token;
use crate::source::SourceFile;
use crate::Report;

pub(crate) const WIRE_PROTOCOL: &str = "wire_protocol";

/// Inputs, injectable so fixture self-tests can drive the rule without
/// a full workspace on disk.
pub struct WireInputs<'a> {
    /// Lexed `crates/proto/src/lib.rs` (holds `PROTO_VERSION`).
    pub lib: &'a SourceFile,
    /// `docs/PROTOCOL.md` text and display path.
    pub doc: (&'a str, &'a str),
    /// Handshake test files: (display path, text).
    pub handshake_tests: &'a [(String, String)],
}

pub fn check(inp: &WireInputs<'_>, report: &mut Report) {
    let lib = inp.lib;
    let mut emit = |line: u32, message: String| {
        let allowed = lib.lexed.allowed(WIRE_PROTOCOL, line);
        report.flag(allowed, &lib.rel_path, line, WIRE_PROTOCOL, message);
    };

    // ---- version constant vs spec document ----
    let code_version = find_const(&lib.lexed.tokens, "PROTO_VERSION");
    let (doc_text, doc_path) = inp.doc;
    match (code_version, doc_declared_version(doc_text)) {
        (Some((cv, cl)), Some((dv, dl))) if cv != dv => emit(
            cl,
            format!(
                "PROTO_VERSION is {cv} but {doc_path}:{dl} declares `version u16 = {dv}` — \
                 bump them together"
            ),
        ),
        (Some(_), Some(_)) => {}
        (None, _) => emit(1, "PROTO_VERSION constant not found".to_string()),
        (_, None) => emit(
            1,
            format!("{doc_path} declares no `version u16 = N` preamble line"),
        ),
    }

    // ---- handshake tests pin the symbol, not a number ----
    for (path, text) in inp.handshake_tests {
        let message = if !text.contains("version_mismatch") {
            "no version-mismatch handshake test found in this suite"
        } else if !text.contains("PROTO_VERSION") {
            "handshake tests must reference PROTO_VERSION symbolically, not a hardcoded version"
        } else {
            continue;
        };
        report.flag(false, path, 1, WIRE_PROTOCOL, message.to_string());
    }
}

/// `const NAME: … = <num>` anywhere in the token stream.
fn find_const(toks: &[Token], name: &str) -> Option<(u64, u32)> {
    for i in 0..toks.len() {
        if toks[i].is_ident("const") && toks.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct('=') && !toks[j].is_punct(';') {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct('=')) {
                if let Some(v) = toks.get(j + 1).and_then(|t| t.num_value()) {
                    return Some((v, toks[i + 1].line));
                }
            }
        }
    }
    None
}

/// The `version u16 = N` line of the protocol spec's preamble diagram.
fn doc_declared_version(doc: &str) -> Option<(u64, u32)> {
    for (idx, line) in doc.lines().enumerate() {
        let Some(at) = line.find("version u16") else {
            continue;
        };
        let rest = &line[at + "version u16".len()..];
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('=') else {
            continue;
        };
        let rest = rest.trim_start();
        let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(v) = digits.parse::<u64>() {
            return Some((v, idx as u32 + 1));
        }
    }
    None
}
