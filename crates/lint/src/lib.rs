//! `exsample-lint` — workspace-aware invariant checker for the
//! ExSample reproduction.
//!
//! The workspace's correctness rests on conventions no compiler checks:
//! no blocking work under a cache or state mutex, acyclic nested lock
//! acquisition, a protocol version that must stay in lockstep with
//! `docs/PROTOCOL.md`, panic-free hot paths, and a metric
//! catalog in `docs/OBSERVABILITY.md` mirroring the registry names in
//! code. Each rule here machine-checks one of those conventions over
//! the whole workspace, from a comment/string-aware lexical pass — no
//! external parser, because this build environment is offline.
//!
//! Run it as `cargo run -p exsample-lint -- --deny` (what CI does), or
//! use [`run_workspace`] as a library (the fixture self-tests do).
//! Findings print as `file:line: rule: message`; inline
//! `// lint: allow(rule, reason)` comments suppress a site, and
//! `// lint: allow-file(rule, reason)` a whole file. See
//! `docs/LINT.md` for the rule catalog and annotation semantics.

pub mod lexer;
pub mod rules;
pub mod source;

use rules::lock::Edge;
use source::SourceFile;
use std::collections::BTreeMap;
use std::path::Path;

/// One diagnostic: where, which rule, and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Result of a lint run: surviving findings plus how many sites inline
/// annotations suppressed (reported so a silently-annotated workspace
/// is still visible in CI logs).
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub suppressed: usize,
}

impl Report {
    /// Render as JSON (machine output for the CI artifact). No serde in
    /// this offline workspace — the escaping is done by hand.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
                json_escape(&f.file),
                f.line,
                json_escape(&f.rule),
                json_escape(&f.message),
                if i + 1 == self.findings.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        out.push_str(&format!(
            "  ],\n  \"total\": {},\n  \"suppressed\": {}\n}}\n",
            self.findings.len(),
            self.suppressed
        ));
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// The rule names `--rule` accepts, in report order.
pub const ALL_RULES: &[&str] = &[
    rules::lock::LOCK_BLOCKING,
    rules::lock::LOCK_ORDER,
    rules::wire::WIRE_PROTOCOL,
    rules::panic::PANIC_AUDIT,
    rules::metrics::METRIC_DRIFT,
];

/// Run `rules` (all when empty) over the workspace rooted at `root`.
pub fn run_workspace(root: &Path, only: &[String]) -> std::io::Result<Report> {
    let files = source::load_workspace(root)?;
    let enabled = |r: &str| only.is_empty() || only.iter().any(|o| o == r);
    let mut report = Report::default();

    // ---- lock rules (one walk feeds both) ----
    if enabled(rules::lock::LOCK_BLOCKING) || enabled(rules::lock::LOCK_ORDER) {
        let mut edges_by_crate: BTreeMap<String, Vec<Edge>> = BTreeMap::new();
        let mut blocking = Vec::new();
        let mut blocking_suppressed = 0usize;
        for f in &files {
            let edges = edges_by_crate.entry(f.crate_name.clone()).or_default();
            rules::lock::walk_file(f, &mut blocking, &mut blocking_suppressed, edges);
        }
        if enabled(rules::lock::LOCK_BLOCKING) {
            report.findings.append(&mut blocking);
            report.suppressed += blocking_suppressed;
        }
        if enabled(rules::lock::LOCK_ORDER) {
            rules::lock::order_findings(
                &edges_by_crate,
                &mut report.findings,
                &mut report.suppressed,
            );
        }
    }

    // ---- wire protocol ----
    if enabled(rules::wire::WIRE_PROTOCOL) {
        run_wire(root, &files, &mut report)?;
    }

    // ---- panic audit ----
    if enabled(rules::panic::PANIC_AUDIT) {
        for f in &files {
            rules::panic::walk_file(f, &mut report.findings, &mut report.suppressed);
        }
    }

    // ---- metric/doc drift ----
    if enabled(rules::metrics::METRIC_DRIFT) {
        let doc_path = "docs/OBSERVABILITY.md";
        let doc = std::fs::read_to_string(root.join(doc_path)).unwrap_or_default();
        let mut regs = Vec::new();
        for f in &files {
            rules::metrics::collect_registrations(f, &mut regs);
        }
        rules::metrics::check(
            &regs,
            &doc,
            doc_path,
            &mut report.findings,
            &mut report.suppressed,
        );
    }

    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}

/// Locate the wire rule's inputs in the loaded workspace and run it.
fn run_wire(root: &Path, files: &[SourceFile], report: &mut Report) -> std::io::Result<()> {
    let find = |rel: &str| files.iter().find(|f| f.rel_path == rel);
    let Some(lib) = find("crates/proto/src/lib.rs") else {
        report.findings.push(Finding {
            file: "crates/proto/src".into(),
            line: 1,
            rule: rules::wire::WIRE_PROTOCOL.into(),
            message: "lib.rs not found — wire rule cannot run".into(),
        });
        return Ok(());
    };
    let doc_path = "docs/PROTOCOL.md";
    let doc = std::fs::read_to_string(root.join(doc_path)).unwrap_or_default();
    let handshake_tests: Vec<(String, String)> = [
        "crates/proto/tests/remote_integration.rs",
        "crates/serve/tests/serve_integration.rs",
    ]
    .iter()
    .map(|p| {
        (
            p.to_string(),
            std::fs::read_to_string(root.join(p)).unwrap_or_default(),
        )
    })
    .collect();
    let inputs = rules::wire::WireInputs {
        lib,
        doc: (&doc, doc_path),
        handshake_tests: &handshake_tests,
    };
    rules::wire::check(&inputs, &mut report.findings, &mut report.suppressed);
    Ok(())
}
