//! Dangling-reference guard: every `--bin <x>`, `--example <x>`,
//! `docs/<x>.md` and `BENCH_<x>.json` that the README, the design notes,
//! the verify skill or the CI workflow names must be a file in the tree,
//! so deleting a binary or a record cannot leave prose pointing at it.

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

/// Every non-empty `<stem>` for which `text` contains
/// `<prefix><stem><suffix>`, a stem being `[A-Za-z0-9_]*`.
fn stems<'a>(text: &'a str, prefix: &'a str, suffix: &'a str) -> impl Iterator<Item = &'a str> {
    text.match_indices(prefix).filter_map(move |(at, _)| {
        let rest = &text[at + prefix.len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        (end > 0 && rest[end..].starts_with(suffix)).then(|| &rest[..end])
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
    let (mut seen, mut dangling) = (0, Vec::new());
    for source in &sources {
        let text =
            fs::read_to_string(source).unwrap_or_else(|e| panic!("{}: {e}", source.display()));
        for (prefix, suffix, head, tail) in KINDS {
            for x in stems(&text, prefix, suffix) {
                seen += 1;
                if !root.join(format!("{head}{x}{tail}")).exists() {
                    dangling.push(format!("{}: {prefix}{x}{suffix}", source.display()));
                }
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
