//! Fixture self-tests: every rule must fire on its seeded-violation
//! fixture and stay quiet on the clean counterpart. The fixtures live
//! under `crates/lint/fixtures/` (excluded from workspace scans) and
//! are lexed, never compiled.

use exsample_lint::rules::lock::{self, Edge};
use exsample_lint::rules::retired::{Retirement, RETIREMENTS};
use exsample_lint::rules::wire::WireInputs;
use exsample_lint::rules::{budget, metrics, orphan_pub, panic, retired, wire};
use exsample_lint::source::{test_module_files, SourceFile};
use exsample_lint::{Finding, Report};
use std::collections::BTreeMap;

fn lock_walk(src: &str) -> (Vec<Finding>, usize, Vec<Edge>) {
    let f = SourceFile::from_text("fixtures/x.rs", "engine", src);
    let mut report = Report::default();
    let mut edges = Vec::new();
    lock::walk_file(&f, &mut report, &mut edges);
    (report.findings, report.suppressed, edges)
}

fn order_report(edges: Vec<Edge>) -> (Vec<Finding>, usize) {
    let mut by_crate = BTreeMap::new();
    by_crate.insert("engine".to_string(), edges);
    let mut report = Report::default();
    lock::order_findings(&by_crate, &mut report);
    (report.findings, report.suppressed)
}

fn panic_walk(crate_name: &str, src: &str) -> (Vec<Finding>, usize) {
    let f = SourceFile::from_text("fixtures/x.rs", crate_name, src);
    let mut report = Report::default();
    panic::walk_file(&f, &mut report);
    (report.findings, report.suppressed)
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
    let mut report = Report::default();
    wire::check(&inputs, &mut report);
    (report.findings, report.suppressed)
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
    let mut report = Report::default();
    metrics::check(&regs, doc, "fixtures/OBSERVABILITY.md", &mut report);
    let (findings, suppressed) = (report.findings, report.suppressed);
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
    let mut report = Report::default();
    metrics::check(&regs, doc, "d.md", &mut report);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 0);
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
fn findings_display_as_file_line_rule_message() {
    let f = Finding {
        file: "crates/x/src/y.rs".into(),
        line: 12,
        rule: "lock_blocking".into(),
        message: "nope".into(),
    };
    assert_eq!(f.to_string(), "crates/x/src/y.rs:12: lock_blocking: nope");
}

// ---- retired ----

fn retired_run(files: &[(String, String)]) -> Vec<Finding> {
    let mut report = Report::default();
    retired::check(files, &mut report);
    assert_eq!(
        report.suppressed, 0,
        "no annotation excuses a retired spelling"
    );
    report.findings
}

fn one(path: &str, text: String) -> Vec<(String, String)> {
    vec![(path.to_string(), text)]
}

/// A concrete instance of a table spelling: each `*` becomes `x`.
fn instance(spelling: &str) -> String {
    spelling.replace('*', "x")
}

/// The spelling with a line break after every token boundary.
fn spread(spelling: &str) -> String {
    let mut out = String::new();
    for c in instance(spelling).chars() {
        match c {
            ' ' => out.push('\n'),
            c if c.is_ascii_alphanumeric() || c == '_' => out.push(c),
            c => out.push_str(&format!(" {c}\n ")),
        }
    }
    out
}

/// One file of each kind the row scans beneath each of its scope roots
/// (`*` in a path becomes `x`); a root that names a file is itself.
fn plant_paths(row: &Retirement) -> Vec<String> {
    let kinds: &[&str] = match row.kinds {
        [] => &["rs", "md", "toml", "txt"],
        kinds => kinds,
    };
    let mut out = Vec::new();
    for root in row.scope.iter().map(|r| r.replace('*', "x")) {
        if root.contains('.') {
            out.push(root);
        } else {
            out.extend(kinds.iter().map(|k| format!("{root}/planted.{k}")));
        }
    }
    out
}

/// `text` planted in a file at `path`, with the line it lands on: in
/// code and in a comment for Rust, in prose or a value otherwise.
fn plants(path: &str, text: &str) -> Vec<(String, u32)> {
    if path.ends_with(".rs") {
        vec![
            (format!("fn planted() {{\n    {text}\n}}\n"), 2),
            (format!("// {text}\nfn planted() {{}}\n"), 1),
        ]
    } else if path.ends_with(".toml") {
        vec![(format!("[package]\nnote = \"{text}\"\n"), 2)]
    } else {
        vec![(format!("# Notes\n\nSee {text} here.\n"), 3)]
    }
}

#[test]
fn retired_flags_every_spelling_once_under_every_scope_root() {
    let mut planted = 0;
    for row in RETIREMENTS {
        for spelling in row.spellings.split('|') {
            for path in plant_paths(row) {
                for text in [instance(spelling), spread(spelling)] {
                    for (src, line) in plants(&path, &text) {
                        let found = retired_run(&one(&path, src.clone()));
                        let what =
                            format!("{} `{spelling}` in {path}:\n{src}\n{found:?}", row.name);
                        assert_eq!(found.len(), 1, "{what}");
                        assert_eq!(found[0].line, line, "{what}");
                        assert_eq!(found[0].rule, retired::RETIRED);
                        assert!(found[0].message.contains(row.name), "{what}");
                        planted += 1;
                    }
                }
                // An inline annotation does not excuse it.
                let annotated = format!("{} // lint: allow(retired, no)\n", instance(spelling));
                assert_eq!(retired_run(&one(&path, annotated)).len(), 1);
            }
        }
    }
    assert!(planted >= 300, "only {planted} plants: the table lost rows");
}

#[test]
fn retired_stays_quiet_where_a_row_exempts_and_on_near_misses() {
    let quiet = |path: &str, text: &str| {
        for (src, _) in plants(path, text) {
            let found = retired_run(&one(path, src.clone()));
            assert!(found.is_empty(), "{path}:\n{src}\n{found:?}");
        }
    };
    for row in RETIREMENTS {
        for spelling in row.spellings.split('|') {
            let text = instance(spelling);
            for (allowed, reason) in row.allow {
                assert!(!reason.is_empty(), "{}: {allowed} needs a reason", row.name);
                quiet(&allowed.replace('*', "x"), &text);
            }
            for kind in ["rs", "md", "toml", "txt"] {
                if !row.kinds.is_empty() && !row.kinds.contains(&kind) {
                    for root in row.scope.iter().filter(|r| !r.contains('.')) {
                        quiet(&format!("{}/planted.{kind}", root.replace('*', "x")), &text);
                    }
                }
            }
            quiet("CHANGES.md", &text);
            quiet("crates/lint/src/rules/retired.rs", &text);
            for path in plant_paths(row).iter().filter(|p| p.ends_with(".rs")) {
                let expected = usize::from(!row.tests_exempt);
                let inline = format!("fn a() {{}}\n#[cfg(test)]\nmod tests {{\n    {text}\n}}\n");
                assert_eq!(retired_run(&one(path, inline)).len(), expected, "{path}");
                let (dir, _) = path
                    .rsplit_once('/')
                    .expect("a planted path has a directory");
                let out_of_line = vec![
                    (
                        format!("{dir}/lib.rs"),
                        "#[cfg(test)]\nmod planted;\n".to_string(),
                    ),
                    (path.clone(), format!("fn t() {{ {text} }}\n")),
                ];
                assert_eq!(retired_run(&out_of_line).len(), expected, "{path}");
            }
            // Near misses (`my_service_err2`, `EngineErrorKind`,
            // `fn preloaded`, …) are other words.
            let word = |c: Option<char>| c.is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
            if word(spelling.chars().next()) && word(spelling.chars().last()) {
                for miss in [
                    format!("my_{spelling}2"),
                    format!("{spelling}Kind"),
                    format!("{spelling}ed"),
                ] {
                    for path in plant_paths(row) {
                        quiet(&path, &miss);
                    }
                }
            }
        }
    }
}

/// One file at every `allow` entry of the table (`*` → `x`; a directory
/// entry gets `planted.rs` beneath it), each spelling its row's first
/// spelling, plus the table itself.
fn allow_tree() -> Vec<(String, String)> {
    let table = include_str!("../src/rules/retired.rs").to_string();
    let mut tree = vec![("crates/lint/src/rules/retired.rs".to_string(), table)];
    for row in RETIREMENTS {
        let spelling = row.spellings.split('|').next().expect("a spelling");
        for (allowed, _) in row.allow {
            let mut path = allowed.replace('*', "x");
            if !path.contains('.') {
                path.push_str("/planted.rs");
            }
            tree.push((path, format!("fn f() {{\n    {}\n}}\n", instance(spelling))));
        }
    }
    tree
}

#[test]
fn retired_flags_an_allow_entry_that_excuses_nothing() {
    let stale = |tree: &[(String, String)]| {
        let mut report = Report::default();
        retired::stale_allows(tree, &mut report);
        report.findings
    };
    let tree = allow_tree();
    assert!(tree.len() > 1, "the table lost its allow entries");
    assert_eq!(stale(&tree), vec![], "every entry is needed");
    let table = &tree[0].1;
    let entries = RETIREMENTS
        .iter()
        .flat_map(|r| r.allow.iter().map(|(a, _)| (r.name, *a)));
    for (k, (row, allowed)) in (1..tree.len()).zip(entries) {
        let (path, _) = &tree[k];
        // The file is gone, or it spells only a near miss: either way the
        // entry excuses nothing.
        let mut without = tree.clone();
        without.remove(k);
        let mut near_miss = tree.clone();
        near_miss[k].1 = "fn f() { le_bytes(); Cursor; }\n".to_string();
        for case in [without, near_miss] {
            let found = stale(&case);
            assert_eq!(found.len(), 1, "{path}: {found:?}");
            let entry = &found[0];
            assert_eq!(entry.rule, retired::RETIRED);
            assert_eq!(entry.file, "crates/lint/src/rules/retired.rs");
            let line = table
                .lines()
                .nth(entry.line as usize - 1)
                .expect("a table line");
            assert!(line.contains(&format!("\"{allowed}\"")), "{entry}: {line}");
            assert!(entry.message.contains(row), "{entry}");
        }
    }
}

// ---- budget ----

fn budget_run(files: &[(String, String)]) -> Vec<Finding> {
    let mut report = Report::default();
    budget::check(files, &mut report);
    assert_eq!(report.suppressed, 0, "no annotation raises a budget");
    report.findings
}

fn code_lines(n: usize) -> String {
    "let x = 1;\n".repeat(n)
}

#[test]
fn budget_holds_the_line_ceiling_at_its_boundary() {
    let b = &budget::BUDGETS[0];
    let path = format!("{}/carved.rs", b.scope);
    let file = |n: usize| {
        let text = format!(
            "{}#[cfg(test)]\nmod tests {{\n{}}}\n",
            code_lines(n),
            code_lines(2000)
        );
        one(&path, text)
    };
    assert!(budget_run(&file(b.max_lines)).is_empty());
    let over = budget_run(&file(b.max_lines + 1));
    assert_eq!(over.len(), 1, "{over:?}");
    assert_eq!((over[0].file.as_str(), over[0].line), (path.as_str(), 901));
    assert!(over[0].message.contains("901 lines"), "{over:?}");
    // An annotation is a line like any other, and excuses nothing.
    let annotated = format!(
        "// lint: allow-file(budget, no)\n{}",
        code_lines(b.max_lines)
    );
    assert_eq!(budget_run(&one(&path, annotated)).len(), 1);
    // Outside the scope nothing is counted.
    assert!(budget_run(&one("crates/core/src/big.rs", code_lines(5000))).is_empty());
}

#[test]
fn budget_holds_the_allow_ceiling_at_its_boundary() {
    let b = &budget::BUDGETS[0];
    let files = |n: usize| -> Vec<(String, String)> {
        let allow = "x(); // lint: allow(panic_audit, proven)\n".to_string();
        (0..n)
            .map(|i| (format!("{}/f{i}.rs", b.scope), allow.clone()))
            .collect()
    };
    assert!(budget_run(&files(b.max_allows)).is_empty());
    let over = budget_run(&files(b.max_allows + 1));
    assert_eq!(over.len(), 1, "{over:?}");
    assert_eq!(over[0].file, b.scope);
    assert!(over[0].message.contains("9 `lint: allow`"), "{over:?}");
}

#[test]
fn budget_counts_an_out_of_line_test_module_as_zero() {
    // The shape of `crates/core/src/exsample/screen_tests.rs`, declared
    // `#[cfg(test)] mod screen_tests;` in `exsample.rs`: every line of it
    // is test code, though no line of it opens with `#[cfg(test)]`.
    let parent = "pub struct ExSample;\n#[cfg(test)]\nmod screen_tests;\n".to_string();
    let core = [
        ("crates/core/src/exsample.rs".to_string(), parent.clone()),
        (
            "crates/core/src/exsample/screen_tests.rs".to_string(),
            String::new(),
        ),
    ];
    assert!(test_module_files(&core).contains(&core[1].0));
    assert!(!test_module_files(&core).contains(&core[0].0));

    let scope = budget::BUDGETS[0].scope;
    let (child, long) = (
        format!("{scope}/exsample/screen_tests.rs"),
        code_lines(2000),
    );
    let declared = [
        (format!("{scope}/exsample.rs"), parent),
        (child.clone(), long.clone()),
    ];
    assert!(budget_run(&declared).is_empty());
    assert_eq!(budget_run(&one(&child, long)).len(), 1);
}

#[test]
fn cfg_test_on_another_item_marks_no_module_as_test() {
    let src = "#[cfg(test)]\nuse std::fmt;\nmod wire;\nmod tests {\n    fn t() {}\n}\n";
    let f = SourceFile::from_text("crates/x/src/lib.rs", "x", src);
    assert!(f.test_regions.is_empty(), "{:?}", f.test_regions);
    assert!(f.test_mods.is_empty(), "{:?}", f.test_mods);
}

// ---- orphan_pub ----

/// A small workspace: `alpha` declares the items under test, the other
/// files use some of them, and the `ALLOW` rows have their items.
fn orphan_tree() -> Vec<(String, String)> {
    let alpha = r#"
        pub fn orphan() {}
        pub struct UsedByBeta;
        pub fn exposes() -> Exposed { Exposed { inner: Inner } }
        /// Named by `exposes`, so it stays `pub`.
        pub struct Exposed { pub inner: Inner, hidden: Hidden }
        pub struct Inner;
        pub struct Hidden;
        pub fn by_bench() {}
        pub fn by_own_tests() {}
        pub fn in_beta_tests() {}
        /// The `Bernoulli` case: elsewhere only in comments and strings.
        pub struct Bernoulli;
        pub(crate) fn narrow() {}
        pub use self::orphan as reexported;
        #[cfg(test)]
        mod tests {
            pub fn test_helper() {}
        }
    "#;
    let beta = r#"
        // Bernoulli
        fn f() { alpha::UsedByBeta; alpha::exposes(); let _ = "Bernoulli"; }
        #[cfg(test)]
        mod tests {
            fn t() { in_beta_tests(); }
        }
    "#;
    [
        ("crates/alpha/src/lib.rs", alpha),
        ("crates/alpha/tests/own.rs", "fn t() { by_own_tests(); }"),
        ("crates/beta/src/lib.rs", beta),
        ("benchmark/src/main.rs", "fn main() { by_bench(); }"),
        ("crates/detect/src/detector.rs", "pub trait Detector {}"),
        ("crates/engine/src/lib.rs", "pub mod service;"),
        (
            "crates/experiments/src/optimal.rs",
            "pub fn expected_found_uniform() {}",
        ),
        (
            "crates/lint/src/rules/orphan_pub.rs",
            include_str!("../src/rules/orphan_pub.rs"),
        ),
    ]
    .map(|(p, t)| (p.to_string(), t.to_string()))
    .to_vec()
}

fn orphan_run(files: &[(String, String)]) -> Vec<Finding> {
    let mut report = Report::default();
    orphan_pub::check(files, &mut report);
    assert_eq!(report.suppressed, 0, "no annotation excuses an orphan");
    report.findings
}

#[test]
fn orphan_pub_flags_what_no_other_file_names() {
    let alpha = "crates/alpha/src/lib.rs";
    let mut found = orphan_run(&orphan_tree());
    found.retain(|f| f.file == alpha);
    let flagged: Vec<(&str, u32)> = found.iter().map(|f| (f.file.as_str(), f.line)).collect();
    // `orphan`; `Hidden`, which only a private field names; `in_beta_tests`,
    // named only in a test module; and `Bernoulli`, named only in a comment
    // and a string.
    assert_eq!(
        flagged,
        [(alpha, 2), (alpha, 8), (alpha, 11), (alpha, 13)],
        "{found:?}"
    );
    assert!(found.iter().all(|f| f.rule == orphan_pub::ORPHAN_PUB));
    assert!(found[0].message.contains("`pub fn orphan`"), "{}", found[0]);
    assert!(
        found[3].message.contains("`pub struct Bernoulli`"),
        "{}",
        found[3]
    );
}

#[test]
fn orphan_pub_flags_an_allow_entry_that_excuses_nothing() {
    let table = include_str!("../src/rules/orphan_pub.rs");
    for (path, name) in [
        ("crates/detect/src/detector.rs", "Detector"),
        ("crates/engine/src/lib.rs", "service"),
        (
            "crates/experiments/src/optimal.rs",
            "expected_found_uniform",
        ),
    ] {
        // The item is gone, or another crate names it now: either way its
        // row excuses nothing.
        let mut without = orphan_tree();
        without.retain(|(p, _)| p != path);
        let mut used = orphan_tree();
        used.push((
            "crates/beta/src/more.rs".into(),
            format!("fn g() {{ {name}; }}"),
        ));
        for tree in [without, used] {
            let stale: Vec<Finding> = orphan_run(&tree)
                .into_iter()
                .filter(|f| f.message.starts_with("`ALLOW` entry"))
                .collect();
            assert_eq!(stale.len(), 1, "{stale:?}");
            let line = table
                .lines()
                .nth(stale[0].line as usize - 1)
                .expect("a table line");
            assert!(
                line.contains(&format!("\"{name}\"")),
                "{}: {line}",
                stale[0]
            );
        }
    }
}

// ---- the workspace itself ----

#[test]
fn the_workspace_has_no_findings() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = exsample_lint::run_workspace(&root).expect("the workspace is readable");
    let findings: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}
