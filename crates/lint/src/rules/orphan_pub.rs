//! `orphan_pub`: only what another crate uses stays `pub`.
//!
//! rustc's `dead_code` lint never judges a `pub` item of a library: some
//! other crate might name it. This rule answers that question for the
//! workspace. A `pub` item (`fn`, `struct`, `enum`, `trait`, `const`,
//! `type`, `static`, `mod`) declared in `crates/*/src`, outside test
//! modules and outside the crate's binaries, must be named by an
//! identifier token in some `.rs` file outside its crate's library
//! sources: another crate's `src/` or `tests/`, its own `tests/`, its
//! `src/bin/*` or `src/main.rs`, the facade's `src/`, the root `tests/`
//! and `examples/`, or `benchmark/src` (which the caller loads: it is
//! read, never linted). Comments, strings and test modules name nothing.
//! The body of a `#[macro_export]` macro counts as outside: it expands in
//! its caller's crate.
//!
//! An item is used, too, when the interface of a used `pub` item of its
//! crate names it: a signature, a `pub` field, an enum's variants, a
//! trait's items. rustc refuses to narrow a type that a public interface
//! exposes. Names match as words, so a homonym anywhere (another crate's
//! `new` for this one's) keeps an item: the rule undercounts rather than
//! misfires. What it flags becomes `pub(crate)` or private, and rustc
//! then says whether it is dead.
//!
//! An item that stays `pub` for another reason is a row of `ALLOW`; a
//! row that excuses nothing is itself a finding, so an exemption does not
//! outlive its reason.

use crate::lexer::{Token, TokenKind};
use crate::source::{test_module_files, SourceFile};
use crate::Report;
use std::collections::{BTreeMap, BTreeSet};

pub const ORPHAN_PUB: &str = "orphan_pub";

/// This file: where stale `ALLOW` rows are reported.
const TABLE: &str = "crates/lint/src/rules/orphan_pub.rs";

/// `(crate, name, reason)`: `pub` items of `crate` that nothing outside
/// it uses, kept `pub` all the same.
const ALLOW: &[(&str, &str, &str)] = &[
    (
        "experiments",
        "expected_found_uniform",
        "ROADMAP item 2's analytic reference for random sampling",
    ),
    (
        "engine",
        "service",
        "its module docs are the `SearchService` contract and say who produces each `ServiceError`",
    ),
    (
        "detect",
        "Detector",
        "bounds the detector parameter of `QueryOracle`'s methods",
    ),
];

/// The item keywords a `pub` declaration is counted by.
const KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "type", "static", "mod",
];

/// What a `.rs` path is to this rule: `Some(crate)` for a library source
/// of `crates/<crate>/src` (binaries excluded), `None` for a user only.
fn library_of(path: &str) -> Option<&str> {
    let parts: Vec<&str> = path.split('/').collect();
    match parts[..] {
        ["crates", _, "src", "main.rs"] | ["crates", _, "src", "bin", ..] => None,
        ["crates", name, "src", ..] => Some(name),
        _ => None,
    }
}

/// A `pub` item: where, what, and the identifiers its interface names.
struct Decl<'a> {
    line: u32,
    kind: &'a str,
    name: &'a str,
    interface: Vec<&'a str>,
}

/// Flag every orphan `pub` item of `files` (`(path, text)`, paths
/// relative to the workspace root), and every stale `ALLOW` row.
pub fn check(files: &[(String, String)], report: &mut Report) {
    let test_files = test_module_files(files);
    let rust = files.iter().filter(|(p, _)| {
        p.ends_with(".rs") && !p.split('/').any(|s| s == "fixtures") && !test_files.contains(p)
    });
    let sources: Vec<(SourceFile, Option<&str>)> = rust
        .map(|(path, text)| {
            let home = library_of(path);
            (SourceFile::from_text(path, "", text), home)
        })
        .collect();
    // name -> the library crates (or "" for any other file) naming it.
    let mut named: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut decls: BTreeMap<&str, Vec<(&str, Decl)>> = BTreeMap::new();
    for (f, home) in &sources {
        let exported = exported_macros(f);
        for (i, t) in f.lexed.tokens.iter().enumerate() {
            if t.kind == TokenKind::Ident && !f.in_test(i) {
                let outside = exported.iter().any(|&(a, b)| a <= i && i < b);
                let by = if outside { "" } else { home.unwrap_or("") };
                named.entry(t.text.as_str()).or_default().insert(by);
            }
        }
        if let Some(home) = home {
            let found = declarations(f)
                .into_iter()
                .map(|d| (f.rel_path.as_str(), d));
            decls.entry(home).or_default().extend(found);
        }
    }
    let mut excused = BTreeSet::new();
    for (home, ds) in &decls {
        let outside = |n: &str| named.get(n).is_some_and(|by| by.iter().any(|c| c != home));
        let allowed = |n: &str| ALLOW.iter().position(|&(c, a, _)| c == *home && a == n);
        let used = exposed(ds, |n| outside(n));
        let kept = exposed(ds, |n| outside(n) || allowed(n).is_some());
        for (path, d) in ds {
            if used.contains(d.name) {
                continue;
            }
            if let Some(k) = allowed(d.name) {
                excused.insert(k);
            }
            if kept.contains(d.name) {
                continue;
            }
            let message = format!(
                "`pub {} {}` is named nowhere outside crate `{home}`: make it `pub(crate)` \
                 or private and let rustc say whether it is dead",
                d.kind, d.name
            );
            report.flag(false, path, d.line, ORPHAN_PUB, message);
        }
    }
    let table = files.iter().find(|(p, _)| p == TABLE).map(|(_, t)| t);
    for (k, (krate, name, _)) in ALLOW.iter().enumerate() {
        if excused.contains(&k) {
            continue;
        }
        let quoted = format!("\"{name}\"");
        let line = table
            .and_then(|t| t.lines().position(|l| l.contains(&quoted)))
            .map_or(1, |i| i as u32 + 1);
        let message = format!(
            "`ALLOW` entry `{krate}::{name}` excuses nothing: `{krate}` declares no orphan \
             `pub` item of that name"
        );
        report.flag(false, TABLE, line, ORPHAN_PUB, message);
    }
}

/// The names of `ds` that `seed` keeps, and every name the interface of
/// a kept item names, to a fixpoint: rustc refuses to narrow a type that
/// a public signature exposes.
fn exposed<'a>(ds: &[(&str, Decl<'a>)], seed: impl Fn(&str) -> bool) -> BTreeSet<&'a str> {
    let mut kept: BTreeSet<&str> = ds.iter().map(|(_, d)| d.name).filter(|n| seed(n)).collect();
    loop {
        let before = kept.len();
        for (_, d) in ds {
            if kept.contains(d.name) {
                kept.extend(d.interface.iter().copied());
            }
        }
        if kept.len() == before {
            return kept;
        }
    }
}

/// Every `pub` item of `f` outside its test modules.
/// `pub(crate)` and the like are not `pub`, and `pub use` is a
/// re-export, not an item.
fn declarations(f: &SourceFile) -> Vec<Decl<'_>> {
    let toks = &f.lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || f.in_test(i) {
            continue;
        }
        // Skip qualifiers: `const fn`, `unsafe fn`, `async fn`, `extern "C" fn`.
        let mut k = i + 1;
        while let Some(q) = toks.get(k) {
            let qualifies = match q.text.as_str() {
                "const" => toks
                    .get(k + 1)
                    .is_some_and(|n| n.is_ident("fn") || n.is_ident("unsafe")),
                "unsafe" | "async" | "extern" => q.kind == TokenKind::Ident,
                _ => q.kind == TokenKind::Str,
            };
            if !qualifies {
                break;
            }
            k += 1;
        }
        let (Some(kind), Some(name)) = (toks.get(k), toks.get(k + 1)) else {
            continue;
        };
        if kind.kind == TokenKind::Ident
            && KINDS.contains(&kind.text.as_str())
            && name.kind == TokenKind::Ident
        {
            out.push(Decl {
                line: t.line,
                kind: &kind.text,
                name: &name.text,
                interface: interface(toks, k),
            });
        }
    }
    out
}

/// The identifiers that the item whose keyword is `toks[k]` exposes: a
/// function's signature; a type alias, constant or static's type; the
/// generics and body of an enum or trait; the generics and `pub` fields
/// of a struct. Binding names (an identifier before a lone `:`) are left
/// out.
fn interface(toks: &[Token], k: usize) -> Vec<&str> {
    let kind = toks[k].text.as_str();
    let stop = |t: &Token| match kind {
        "fn" => t.is_punct('{') || t.is_punct(';'),
        "const" | "static" => t.is_punct('=') || t.is_punct(';'),
        "type" => t.is_punct(';'),
        "mod" => true,
        _ => t.is_punct('{') || t.is_punct('(') || t.is_punct(';'),
    };
    // The head ends at a stop outside brackets (`[u8; 4]` ends nothing).
    let mut depth = 0usize;
    let mut head_end = toks.len();
    for (j, t) in toks.iter().enumerate().skip(k + 2) {
        if depth == 0 && stop(t) {
            head_end = j;
            break;
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth = depth.saturating_sub(1);
        }
    }
    let mut spans = vec![(k + 2, head_end)];
    let body = matches!(kind, "struct" | "enum" | "trait");
    if body && head_end < toks.len() && !toks[head_end].is_punct(';') {
        let end = close_of(toks, head_end);
        if kind == "struct" {
            // Each `pub` field, up to the comma that ends it.
            let mut depth = 0usize;
            let mut from = None;
            for j in head_end..end {
                let t = &toks[j];
                if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if t.is_punct('>') && !toks[j - 1].is_punct('-') {
                    depth = depth.saturating_sub(1);
                }
                if depth == 1 && t.is_ident("pub") && !toks[j + 1].is_punct('(') {
                    from = Some(j + 1);
                } else if depth == 1 && t.is_punct(',') {
                    spans.extend(from.take().map(|a| (a, j)));
                }
            }
            spans.extend(from.map(|a| (a, end)));
        } else {
            spans.push((head_end, end));
        }
    }
    let binding = |j: usize| {
        toks.get(j + 1).is_some_and(|t| t.is_punct(':'))
            && !toks.get(j + 2).is_some_and(|t| t.is_punct(':'))
    };
    let idents = spans.into_iter().flat_map(|(a, b)| a..b);
    idents
        .filter(|&j| toks[j].kind == TokenKind::Ident && !binding(j))
        .map(|j| toks[j].text.as_str())
        .collect()
}

/// The index just past the delimiter that closes the one at `open`.
fn close_of(toks: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    toks.len()
}

/// Token ranges of the bodies of `#[macro_export]` macros in `f`.
fn exported_macros(f: &SourceFile) -> Vec<(usize, usize)> {
    let toks = &f.lexed.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(4) {
        let hit = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("macro_export")
            && toks[i + 3].is_punct(']');
        if !hit {
            continue;
        }
        if let Some(open) = (i + 4..toks.len()).find(|&j| toks[j].is_punct('{')) {
            out.push((open, close_of(toks, open)));
        }
    }
    out
}
