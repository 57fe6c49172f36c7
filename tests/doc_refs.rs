//! Dangling-reference guard: every `--bin <x>`, `--example <x>`,
//! `docs/<x>.md`, `BENCH_<x>.json`, `examples/<x>.rs` and `tests/<x>.rs`
//! (root-relative, or under the directory written before it, as in
//! `crates/<c>/tests/<x>.rs`) that the README, the design notes, the
//! verify skill or the CI workflow names must be a file in the tree, and
//! every `CI step "<name>"` they name a `- name:` of the CI workflow, so
//! deleting a binary, a test, a record or a step cannot leave prose
//! pointing at it.

use std::fs;
use std::path::Path;

/// `(marker before the name, text after it, path before the name, path
/// after it)`: `--bin fig5` must be `crates/bench/src/bin/fig5.rs`.
const KINDS: [(&str, &str, &str, &str); 4] = [
    ("--bin ", "", "crates/bench/src/bin/", ".rs"),
    ("--example ", "", "examples/", ".rs"),
    ("docs/", ".md", "docs/", ".md"),
    ("BENCH_", ".json", "BENCH_", ".json"),
];

/// Where `text` contains `<prefix><stem><suffix>`, the offset of the
/// prefix and every non-empty `<stem>`, a stem being `[A-Za-z0-9_]*`.
fn stems<'a>(
    text: &'a str,
    prefix: &'a str,
    suffix: &'a str,
) -> impl Iterator<Item = (usize, &'a str)> {
    text.match_indices(prefix).filter_map(move |(at, _)| {
        let rest = &text[at + prefix.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        (end > 0 && rest[end..].starts_with(suffix)).then(|| (at, &rest[..end]))
    })
}

/// Every `[<dir>]examples/<x>.rs` and `[<dir>]tests/<x>.rs` in `text`,
/// `<dir>` being the path written right before it; globs are skipped.
fn source_paths(text: &str) -> impl Iterator<Item = String> + '_ {
    let in_path = |c: char| c.is_ascii_alphanumeric() || "_-./*".contains(c);
    ["examples/", "tests/"].into_iter().flat_map(move |kind| {
        stems(text, kind, ".rs").filter_map(move |(at, x)| {
            let dir = &text[text[..at].trim_end_matches(in_path).len()..at];
            (!dir.contains('*')).then(|| format!("{dir}{kind}{x}.rs"))
        })
    })
}

#[test]
fn every_named_bin_example_doc_and_record_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources: Vec<_> = fs::read_dir(root.join("docs"))
        .expect("docs/ is listable")
        .map(|entry| entry.expect("docs/ entry").path())
        .collect();
    sources.push(root.join("README.md"));
    sources.push(root.join(".claude/skills/verify/SKILL.md"));
    sources.push(root.join(".github/workflows/ci.yml"));
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).expect("ci.yml");
    let steps: Vec<&str> = ci
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("- name: "))
        .collect();
    let (mut seen, mut dangling) = (0, Vec::new());
    for source in &sources {
        let text =
            fs::read_to_string(source).unwrap_or_else(|e| panic!("{}: {e}", source.display()));
        for (prefix, suffix, head, tail) in KINDS {
            for (_, x) in stems(&text, prefix, suffix) {
                seen += 1;
                if !root.join(format!("{head}{x}{tail}")).exists() {
                    dangling.push(format!("{}: {prefix}{x}{suffix}", source.display()));
                }
            }
        }
        for path in source_paths(&text) {
            seen += 1;
            if !root.join(&path).exists() {
                dangling.push(format!("{}: {path}", source.display()));
            }
        }
        for (at, _) in text.match_indices("CI step \"") {
            let rest = &text[at + "CI step \"".len()..];
            let step = &rest[..rest.find('"').unwrap_or(rest.len())];
            seen += 1;
            if !steps.contains(&step) {
                dangling.push(format!("{}: CI step \"{step}\"", source.display()));
            }
        }
    }
    assert!(seen > 0, "the scan matched nothing: it checks nothing");
    assert!(
        dangling.is_empty(),
        "named but not in the tree:\n{}",
        dangling.join("\n")
    );
}
