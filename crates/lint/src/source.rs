//! Workspace file discovery and per-file preprocessing shared by every
//! rule: lexing, `#[cfg(test)]` module stripping, and crate attribution.

use crate::lexer::{lex, Lexed, Token};
use std::path::{Path, PathBuf};

/// One scanned source file: lexed tokens (with and without test
/// modules), allow annotations, and where it came from.
pub struct SourceFile {
    /// Path relative to the workspace root (display form).
    pub rel_path: String,
    /// Crate directory name under `crates/` (`engine`, `proto`, …) or
    /// `"."` for the facade's own `src/`.
    pub crate_name: String,
    pub(crate) lexed: Lexed,
    /// Index ranges (into `lexed.tokens`) covered by `#[cfg(test)]`
    /// modules, an out-of-line one's declaration included; rules that
    /// exempt test code skip tokens inside these.
    pub test_regions: Vec<(usize, usize)>,
    /// Names of out-of-line test modules (`#[cfg(test)] mod name;`),
    /// whose files hold nothing but test code.
    pub test_mods: Vec<String>,
}

impl SourceFile {
    /// Lex and preprocess one file's text.
    pub fn from_text(rel_path: &str, crate_name: &str, text: &str) -> SourceFile {
        let lexed = lex(text);
        let (test_regions, test_mods) = find_test_regions(&lexed.tokens);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            lexed,
            test_regions,
            test_mods,
        }
    }

    /// First and last line of each `#[cfg(test)]` module.
    pub(crate) fn test_lines(&self) -> Vec<(u32, u32)> {
        let line = |i: usize| self.lexed.tokens.get(i).map_or(u32::MAX, |t| t.line);
        let regions = self.test_regions.iter();
        regions.map(|&(a, b)| (line(a), line(b - 1))).collect()
    }

    /// Is token index `i` inside a `#[cfg(test)]` module?
    pub(crate) fn in_test(&self, i: usize) -> bool {
        self.test_regions.iter().any(|&(a, b)| i >= a && i < b)
    }
}

/// Locate `#[cfg(test)] mod name { … }` and `#[cfg(test)] mod name;`
/// regions, and the names of the out-of-line ones. The attribute may
/// be separated from `mod` by further attributes; we scan forward a
/// short window for the `mod` keyword, then brace-match its body.
fn find_test_regions(toks: &[Token]) -> (Vec<(usize, usize)>, Vec<String>) {
    let (mut out, mut mods) = (Vec::new(), Vec::new());
    let mut i = 0;
    while i + 5 < toks.len() {
        let hit = toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
            && toks[i + 4].is_ident("test")
            && toks[i + 5].is_punct(')');
        if !hit {
            i += 1;
            continue;
        }
        // Find the following `mod` within a few tokens (skipping `]`
        // and any further attributes), then its opening brace.
        let mut j = i + 6;
        let mut guard = 0;
        while j < toks.len() && !toks[j].is_ident("mod") && guard < 32 {
            if toks[j].is_punct(';') || toks[j].is_punct('{') {
                break; // the attribute sits on some other item
            }
            j += 1;
            guard += 1;
        }
        if j >= toks.len() || !toks[j].is_ident("mod") {
            i += 1;
            continue;
        }
        let name = j + 1;
        while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct('{') {
            // `#[cfg(test)] mod tests;`: the body is a file of its own.
            if j == name + 1 && j < toks.len() {
                mods.push(toks[name].text.clone());
                out.push((i, j + 1));
            }
            i += 1;
            continue;
        }
        let start = i;
        let mut depth = 0usize;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                depth += 1;
            } else if toks[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        out.push((start, j + 1));
        i = j + 1;
    }
    (out, mods)
}

/// Paths of the files among `files` that a `#[cfg(test)] mod name;`
/// elsewhere in `files` declares: test code from the first line.
pub fn test_module_files(files: &[(String, String)]) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files.iter().filter(|(p, _)| p.ends_with(".rs")) {
        let dir = match path.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir,
            _ => path.trim_end_matches(".rs"),
        };
        for m in SourceFile::from_text(path, "", text).test_mods {
            out.push(format!("{dir}/{m}.rs"));
            out.push(format!("{dir}/{m}/mod.rs"));
        }
    }
    out
}

/// Every file under each of `roots` (directories or files, relative to
/// `root`) as `(relative path, text)`, sorted, never entering a `target`
/// directory.
pub(crate) fn load_tree(root: &Path, roots: &[&str]) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut todo: Vec<PathBuf> = roots.iter().rev().map(|r| root.join(r)).collect();
    while let Some(p) = todo.pop() {
        if p.is_dir() && !p.ends_with("target") {
            let mut entries: Vec<PathBuf> =
                std::fs::read_dir(&p)?.flatten().map(|e| e.path()).collect();
            entries.sort_by(|a, b| b.cmp(a)); // popped in order
            todo.extend(entries);
        } else if p.is_file() {
            let text = String::from_utf8_lossy(&std::fs::read(&p)?).into_owned();
            let rel = p.strip_prefix(root).unwrap_or(&p).to_string_lossy();
            out.push((rel.replace('\\', "/"), text));
        }
    }
    Ok(out)
}

/// The Rust sources the lexical rules read, lexed, out of a loaded
/// tree: `crates/*/src/**/*.rs` plus the facade's own `src/`, skipping
/// `fixtures/` directories. Shims are deliberately excluded — they are
/// offline stand-ins for external crates and follow upstream's
/// conventions, not ours.
pub(crate) fn workspace_sources(tree: &[(String, String)]) -> Vec<SourceFile> {
    let mut files = Vec::new();
    for (path, text) in tree {
        let parts: Vec<&str> = path.split('/').collect();
        let crate_name = match parts[..] {
            ["src", ..] => ".",
            ["crates", name, "src", ..] => name,
            _ => continue,
        };
        if path.ends_with(".rs") && !parts.contains(&"fixtures") {
            files.push(SourceFile::from_text(path, crate_name, text));
        }
    }
    files
}
