//! Fixture self-tests: every rule must fire on its seeded-violation
//! fixture and stay quiet on the clean counterpart. The fixtures live
//! under `crates/lint/fixtures/` (excluded from workspace scans) and
//! are lexed, never compiled.

use exsample_lint::rules::lock::{self, Edge};
use exsample_lint::rules::wire::WireInputs;
use exsample_lint::rules::{metrics, panic, wire};
use exsample_lint::source::SourceFile;
use exsample_lint::Finding;
use std::collections::BTreeMap;

fn lock_walk(src: &str) -> (Vec<Finding>, usize, Vec<Edge>) {
    let f = SourceFile::from_text("fixtures/x.rs", "engine", src);
    let mut findings = Vec::new();
    let mut suppressed = 0;
    let mut edges = Vec::new();
    lock::walk_file(&f, &mut findings, &mut suppressed, &mut edges);
    (findings, suppressed, edges)
}

fn order_report(edges: Vec<Edge>) -> (Vec<Finding>, usize) {
    let mut by_crate = BTreeMap::new();
    by_crate.insert("engine".to_string(), edges);
    let mut findings = Vec::new();
    let mut suppressed = 0;
    lock::order_findings(&by_crate, &mut findings, &mut suppressed);
    (findings, suppressed)
}

fn panic_walk(crate_name: &str, src: &str) -> (Vec<Finding>, usize) {
    let f = SourceFile::from_text("fixtures/x.rs", crate_name, src);
    let mut findings = Vec::new();
    let mut suppressed = 0;
    panic::walk_file(&f, &mut findings, &mut suppressed);
    (findings, suppressed)
}

// ---- lock_blocking ----

#[test]
fn lock_blocking_fires_on_seeded_violation() {
    let (findings, suppressed, _) = lock_walk(include_str!("../fixtures/lock_blocking_bad.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "lock_blocking");
    assert!(findings[0].message.contains("`flush`"));
    assert!(findings[0].message.contains("`state`"));
    assert_eq!(suppressed, 0);
}

#[test]
fn lock_blocking_quiet_on_clean_and_counts_suppressions() {
    let (findings, suppressed, _) = lock_walk(include_str!("../fixtures/lock_blocking_clean.rs"));
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(
        suppressed, 1,
        "the annotated flush should count as suppressed"
    );
}

#[test]
fn condvar_wait_consumes_its_own_guard() {
    let src = r#"
        fn pump(p: &Pipe) {
            let mut g = p.state.lock().expect("poisoned");
            while g.empty {
                g = p.cv.wait(g).expect("poisoned");
            }
            g.done = true;
        }
    "#;
    let (findings, _, _) = lock_walk(src);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn condvar_wait_under_foreign_guard_is_blocking() {
    let src = r#"
        fn pump(p: &Pipe) {
            let other = p.other.lock().expect("poisoned");
            let mut g = p.state.lock().expect("poisoned");
            g = p.cv.wait(g).expect("poisoned");
            drop(g);
            drop(other);
        }
    "#;
    let (findings, _, _) = lock_walk(src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("`wait`"));
    assert!(findings[0].message.contains("`p.other`"));
}

// ---- lock_order ----

#[test]
fn lock_order_cycle_detected() {
    let (blocking, _, edges) = lock_walk(include_str!("../fixtures/lock_order_bad.rs"));
    assert!(blocking.is_empty(), "{blocking:?}");
    let (findings, suppressed) = order_report(edges);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "lock_order");
    assert!(findings[0].message.contains("a -> b -> a"));
    assert_eq!(suppressed, 0);
}

#[test]
fn lock_order_quiet_on_consistent_order() {
    let (_, _, edges) = lock_walk(include_str!("../fixtures/lock_order_clean.rs"));
    let (findings, suppressed) = order_report(edges);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn lock_order_cycle_suppressed_by_annotated_edge() {
    let (_, _, edges) = lock_walk(include_str!("../fixtures/lock_order_allowed.rs"));
    let (findings, suppressed) = order_report(edges);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn declared_order_reversal_and_cell_guard_across_dispatch_are_findings() {
    let (blocking, _, edges) = lock_walk(include_str!("../fixtures/lock_declared_bad.rs"));
    assert_eq!(blocking.len(), 1, "{blocking:?}");
    assert!(blocking[0].message.contains("`dispatch_batch`"));
    assert!(blocking[0].message.contains("`cell.progress`"));
    // `cell.progress -> state` alone: no cycle, still a finding.
    let (findings, suppressed) = order_report(edges);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "lock_order");
    assert!(findings[0].message.contains("declared order"));
    assert!(findings[0].message.contains("state before cell.progress"));
    assert_eq!(suppressed, 0);
}

#[test]
fn declared_order_quiet_when_followed_and_helper_guards_are_tracked() {
    let (blocking, _, edges) = lock_walk(include_str!("../fixtures/lock_declared_clean.rs"));
    assert!(blocking.is_empty(), "{blocking:?}");
    // The helper call is seen as an acquisition: the forward edge exists.
    assert!(edges
        .iter()
        .any(|e| e.from == "state" && e.to == "cell.progress"));
    let (findings, suppressed) = order_report(edges);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 0);
}

// ---- panic_audit ----

#[test]
fn panic_audit_fires_in_hot_path_crate() {
    let (findings, suppressed) = panic_walk("engine", include_str!("../fixtures/panic_bad.rs"));
    assert_eq!(findings.len(), 3, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == "panic_audit"));
    assert!(findings.iter().any(|f| f.message.contains("`unwrap()`")));
    assert!(findings.iter().any(|f| f.message.contains("`expect()`")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("direct indexing")));
    assert_eq!(suppressed, 0);
}

#[test]
fn panic_audit_quiet_on_clean_and_counts_suppressions() {
    let (findings, suppressed) = panic_walk("engine", include_str!("../fixtures/panic_clean.rs"));
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(
        suppressed, 1,
        "the annotated ring index should count as suppressed"
    );
}

#[test]
fn panic_audit_ignores_cold_crates() {
    let (findings, suppressed) = panic_walk("bench", include_str!("../fixtures/panic_bad.rs"));
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn panic_audit_skips_test_modules() {
    let src = "fn hot(v: &[u64]) -> u64 { v[0] }\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   fn t(v: &[u64]) -> u64 { v[1] }\n\
               }\n";
    let (findings, _) = panic_walk("engine", src);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].line, 1);
}

// ---- wire_protocol ----

fn wire_check(lib_src: &str, doc: &str, tests: &[(String, String)]) -> (Vec<Finding>, usize) {
    let lib_f = SourceFile::from_text("fixtures/lib.rs", "proto", lib_src);
    let inputs = WireInputs {
        lib: &lib_f,
        doc: (doc, "fixtures/PROTOCOL.md"),
        handshake_tests: tests,
    };
    let mut findings = Vec::new();
    let mut suppressed = 0;
    wire::check(&inputs, &mut findings, &mut suppressed);
    (findings, suppressed)
}

#[test]
fn wire_rule_fires_on_seeded_violations() {
    let tests = vec![(
        "fixtures/handshake.rs".to_string(),
        "fn unrelated() {}".to_string(),
    )];
    let (findings, _) = wire_check(
        "pub const PROTO_VERSION: u16 = 9;",
        "preamble: version u16    = 7",
        &tests,
    );
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(findings.len(), 2, "{messages:?}");
    assert!(messages.iter().any(|m| m.contains("PROTO_VERSION is 9")));
    assert!(messages
        .iter()
        .any(|m| m.contains("no version-mismatch handshake test")));
}

#[test]
fn wire_rule_quiet_on_clean_inputs() {
    let tests = vec![(
        "fixtures/handshake.rs".to_string(),
        "fn version_mismatch_is_rejected() { let v = PROTO_VERSION; }".to_string(),
    )];
    let (findings, suppressed) = wire_check(
        "pub const PROTO_VERSION: u16 = 7;",
        "preamble: version u16    = 7",
        &tests,
    );
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn wire_rule_rejects_hardcoded_version_in_handshake_tests() {
    let tests = vec![(
        "fixtures/handshake.rs".to_string(),
        "fn version_mismatch_is_rejected() { handshake(7); }".to_string(),
    )];
    let (findings, _) = wire_check(
        "pub const PROTO_VERSION: u16 = 7;",
        "preamble: version u16    = 7",
        &tests,
    );
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0]
        .message
        .contains("reference PROTO_VERSION symbolically"));
}

// ---- metric_drift ----

#[test]
fn metric_drift_fires_both_directions() {
    let f = SourceFile::from_text(
        "fixtures/metrics.rs",
        "serve",
        include_str!("../fixtures/metrics_src.rs"),
    );
    let mut regs = Vec::new();
    metrics::collect_registrations(&f, &mut regs);
    let doc =
        "| metric | kind |\n|---|---|\n| `frames_total` | counter |\n| `ghost_total` | counter |\n";
    let mut findings = Vec::new();
    let mut suppressed = 0;
    metrics::check(
        &regs,
        doc,
        "fixtures/OBSERVABILITY.md",
        &mut findings,
        &mut suppressed,
    );
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`mystery_ns`") && f.message.contains("missing from")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("`ghost_total`") && f.message.contains("never registered")));
    assert_eq!(
        suppressed, 1,
        "the annotated secret_gauge should count as suppressed"
    );
}

#[test]
fn metric_drift_quiet_when_in_sync() {
    let f = SourceFile::from_text(
        "fixtures/metrics.rs",
        "serve",
        "fn init(registry: &R) { let c = registry.counter(\"frames_total\"); }",
    );
    let mut regs = Vec::new();
    metrics::collect_registrations(&f, &mut regs);
    let doc = "| `frames_total` | counter |\n";
    let mut findings = Vec::new();
    let mut suppressed = 0;
    metrics::check(&regs, doc, "d.md", &mut findings, &mut suppressed);
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(suppressed, 0);
}

#[test]
fn metric_drift_family_labels_are_stripped_from_doc_names() {
    let doc = "| `shed_total{tenant=…}` | counter family |\n";
    let names = metrics::doc_catalog(doc);
    assert_eq!(names.len(), 1);
    assert_eq!(names[0].0, "shed_total");
}

// ---- report plumbing ----

#[test]
fn json_report_escapes_and_counts() {
    let report = exsample_lint::Report {
        findings: vec![Finding {
            file: "a.rs".into(),
            line: 3,
            rule: "panic_audit".into(),
            message: "uses `expect()` with \"quotes\"".into(),
        }],
        suppressed: 2,
    };
    let json = report.to_json();
    assert!(json.contains("\\\"quotes\\\""));
    assert!(json.contains("\"total\": 1"));
    assert!(json.contains("\"suppressed\": 2"));
}

#[test]
fn findings_display_as_file_line_rule_message() {
    let f = Finding {
        file: "crates/x/src/y.rs".into(),
        line: 12,
        rule: "lock_blocking".into(),
        message: "nope".into(),
    };
    assert_eq!(f.to_string(), "crates/x/src/y.rs:12: lock_blocking: nope");
}
