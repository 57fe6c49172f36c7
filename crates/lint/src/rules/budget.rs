//! `budget`: ceilings that keep a carved crate carved.
//!
//! Each row of [`BUDGETS`] holds two limits over the `.rs` files under
//! its scope: the non-test lines of any one file (lines before the
//! first line opening with `#[cfg(test)]`, the count simplification
//! changes report; a file that is itself a `#[cfg(test)] mod name;`
//! counts 0), and the `lint: allow` annotations of all of them together,
//! as the lexer harvests them. No inline annotation excuses a breach:
//! raising a ceiling is a table edit.

use crate::lexer::lex;
use crate::source::test_module_files;
use crate::Report;

pub(crate) const BUDGET: &str = "budget";

pub struct Budget {
    pub scope: &'static str,
    /// The change that set the ceilings.
    pub pr: u32,
    pub max_lines: usize,
    pub max_allows: usize,
}

pub const BUDGETS: &[Budget] = &[Budget {
    scope: "crates/engine/src",
    pr: 24,
    max_lines: 900,
    max_allows: 8,
}];

/// Hold every budget over `files` (`(path, text)`, paths relative to
/// the workspace root).
pub fn check(files: &[(String, String)], report: &mut Report) {
    let test_files = test_module_files(files);
    for b in BUDGETS {
        let mut allows = 0;
        let prefix = format!("{}/", b.scope);
        for (path, text) in files
            .iter()
            .filter(|(p, _)| p.starts_with(&prefix) && p.ends_with(".rs"))
        {
            let lines = if test_files.contains(path) {
                0
            } else {
                let code = text.lines().take_while(|l| !l.starts_with("#[cfg(test)]"));
                code.count()
            };
            if lines > b.max_lines {
                let message = format!(
                    "{lines} lines before the first `#[cfg(test)]`, over the ceiling of {} set \
                     in PR {}: carve the file along its seams",
                    b.max_lines, b.pr
                );
                report.flag(false, path, b.max_lines as u32 + 1, BUDGET, message);
            }
            allows += lex(text).allows.len();
        }
        if allows > b.max_allows {
            let message = format!(
                "{allows} `lint: allow` annotations, over the ceiling of {} set in PR {}: hold \
                 the invariant with a type",
                b.max_allows, b.pr
            );
            report.flag(false, b.scope, 1, BUDGET, message);
        }
    }
}
