//! `metric_drift`: the metric catalog in `docs/OBSERVABILITY.md` and
//! the names registered in code must agree, both directions.
//!
//! Code side: any literal-named registration on a registry handle —
//! `registry.counter("x")`, `.gauge`, `.histogram`, `.counter_family`,
//! `.gauge_family` — where the receiver identifier contains `registry`
//! (or is `reg`). That distinguishes registrations from lookups like
//! `diag.histogram(name)`, which read a snapshot rather than minting a
//! series. Test modules are skipped: tests mint throwaway names.
//!
//! Doc side: the first backtick-quoted token of each `| `name` | …`
//! row of the catalog table, with any `{label=…}` suffix stripped.
//!
//! A name registered but undocumented means the dashboard catalog lies
//! by omission; a name documented but unregistered means a dashboard
//! queries a series that no longer exists. Both are findings.

use crate::lexer::TokenKind;
use crate::source::SourceFile;
use crate::Report;
use std::collections::BTreeMap;

pub(crate) const METRIC_DRIFT: &str = "metric_drift";

const REGISTERERS: &[&str] = &[
    "counter",
    "gauge",
    "histogram",
    "counter_family",
    "gauge_family",
];

/// A registration site found in code.
pub struct Registration {
    pub name: String,
    pub file: String,
    pub line: u32,
    pub allowed: bool,
}

/// Collect literal metric registrations from one file.
pub fn collect_registrations(f: &SourceFile, out: &mut Vec<Registration>) {
    let toks = &f.lexed.tokens;
    for i in 2..toks.len() {
        let t = &toks[i];
        if t.kind != TokenKind::Ident || !REGISTERERS.contains(&t.text.as_str()) {
            continue;
        }
        if f.in_test(i) {
            continue;
        }
        let recv = &toks[i - 2];
        let is_registry_recv = toks[i - 1].is_punct('.')
            && recv.kind == TokenKind::Ident
            && (recv.text.to_ascii_lowercase().contains("registry") || recv.text == "reg");
        if !is_registry_recv {
            continue;
        }
        let Some(arg) = toks.get(i + 2) else {
            continue;
        };
        if !toks[i + 1].is_punct('(') || arg.kind != TokenKind::Str {
            continue;
        }
        out.push(Registration {
            name: arg.text.clone(),
            file: f.rel_path.clone(),
            line: arg.line,
            allowed: f.lexed.allowed(METRIC_DRIFT, arg.line),
        });
    }
}

/// Metric names declared by the doc's catalog table: `(name, line)`.
pub fn doc_catalog(doc: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (idx, line) in doc.lines().enumerate() {
        let trimmed = line.trim_start();
        let Some(rest) = trimmed.strip_prefix("| `") else {
            continue;
        };
        let Some(end) = rest.find('`') else {
            continue;
        };
        let mut name = &rest[..end];
        if let Some(brace) = name.find('{') {
            name = &name[..brace];
        }
        let name = name.trim();
        if !name.is_empty() {
            out.push((name.to_string(), idx as u32 + 1));
        }
    }
    out
}

/// Compare registrations against the doc catalog.
pub fn check(registrations: &[Registration], doc: &str, doc_path: &str, report: &mut Report) {
    let catalog = doc_catalog(doc);
    let documented: BTreeMap<&str, u32> = catalog.iter().map(|(n, l)| (n.as_str(), *l)).collect();
    let mut seen: BTreeMap<&str, &Registration> = BTreeMap::new();
    for r in registrations {
        seen.entry(r.name.as_str()).or_insert(r);
    }
    for r in seen.values() {
        if documented.contains_key(r.name.as_str()) {
            continue;
        }
        report.flag(
            r.allowed,
            &r.file,
            r.line,
            METRIC_DRIFT,
            format!(
                "metric `{}` is registered here but missing from the {doc_path} catalog table",
                r.name
            ),
        );
    }
    for (name, line) in &catalog {
        if !seen.contains_key(name.as_str()) {
            report.flag(
                false,
                doc_path,
                *line,
                METRIC_DRIFT,
                format!(
                    "metric `{name}` is documented in the catalog but never registered in code"
                ),
            );
        }
    }
}
