//! `exsample-lint` — workspace-aware invariant checker for the
//! ExSample reproduction.
//!
//! The workspace's correctness rests on conventions no compiler checks:
//! no blocking work under a cache or state mutex, acyclic nested lock
//! acquisition, a protocol version in lockstep with `docs/PROTOCOL.md`,
//! panic-free hot paths, a metric catalog in `docs/OBSERVABILITY.md`
//! mirroring the registry names in code, deleted mechanisms that stay
//! deleted, an engine that stays carved, and no `pub` item that only its
//! own crate uses. Each rule here checks one of those over the whole
//! workspace, from a comment/string-aware lexical pass — no external
//! parser, because this build environment is offline.
//!
//! Run it as `cargo run -p exsample-lint -- --deny` (what CI does), or
//! use [`run_workspace`] as a library (the fixture self-tests do).
//! Findings print as `file:line: rule: message`; inline
//! `// lint: allow(rule, reason)` comments suppress a site, and
//! `// lint: allow-file(rule, reason)` a whole file, for every rule but
//! the three table-driven ones. See `docs/LINT.md` for the rule catalog.

mod lexer;
pub mod rules;
pub mod source;

use rules::lock::Edge;
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
    /// The one way a rule reports a site: counted as suppressed when an
    /// inline annotation covers it (`suppressed`), recorded otherwise.
    /// `retired`, `budget` and `orphan_pub` always pass `false`: their
    /// exemptions live in their tables, where review sees them.
    pub(crate) fn flag(
        &mut self,
        suppressed: bool,
        file: &str,
        line: u32,
        rule: &str,
        message: String,
    ) {
        if suppressed {
            self.suppressed += 1;
        } else {
            self.findings.push(Finding {
                file: file.to_string(),
                line,
                rule: rule.to_string(),
                message,
            });
        }
    }
}

/// Run every rule over the workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> std::io::Result<Report> {
    if !root.join("crates").is_dir() {
        return Err(std::io::Error::other("no crates/ directory"));
    }
    let tree = source::load_tree(root, rules::retired::ROOTS)?;
    let text = |rel: &str| {
        tree.iter()
            .find(|(p, _)| p == rel)
            .map_or("", |(_, t)| t.as_str())
    };
    let files = source::workspace_sources(&tree);
    let mut report = Report::default();

    // The lock rules share one walk; `lock_order` judges its edges per crate.
    let mut edges_by_crate: BTreeMap<String, Vec<Edge>> = BTreeMap::new();
    let mut regs = Vec::new();
    for f in &files {
        let edges = edges_by_crate.entry(f.crate_name.clone()).or_default();
        rules::lock::walk_file(f, &mut report, edges);
        rules::panic::walk_file(f, &mut report);
        rules::metrics::collect_registrations(f, &mut regs);
    }
    rules::lock::order_findings(&edges_by_crate, &mut report);
    let doc = "docs/OBSERVABILITY.md";
    rules::metrics::check(&regs, text(doc), doc, &mut report);

    let handshake_tests = [
        "crates/proto/tests/remote_integration.rs",
        "crates/serve/tests/serve_integration.rs",
    ]
    .map(|p| (p.to_string(), text(p).to_string()));
    let (lib_rs, doc) = ("crates/proto/src/lib.rs", "docs/PROTOCOL.md");
    match files.iter().find(|f| f.rel_path == lib_rs) {
        Some(lib) => {
            let inputs = rules::wire::WireInputs {
                lib,
                doc: (text(doc), doc),
                handshake_tests: &handshake_tests,
            };
            rules::wire::check(&inputs, &mut report);
        }
        None => {
            let message = "not found: the wire rule cannot run".to_string();
            report.flag(false, lib_rs, 1, rules::wire::WIRE_PROTOCOL, message);
        }
    }

    rules::retired::check(&tree, &mut report);
    rules::retired::stale_allows(&tree, &mut report);
    rules::budget::check(&tree, &mut report);
    // The benchmark is a user of the workspace's API, read but never linted.
    let mut users = tree;
    users.extend(source::load_tree(root, &["benchmark/src"])?);
    rules::orphan_pub::check(&users, &mut report);
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    Ok(report)
}
