//! CLI for `exsample-lint`. See `docs/LINT.md`.
//!
//! ```text
//! exsample-lint [--root DIR] [--deny]
//! ```
//!
//! Findings print to stdout as `file:line: rule: message`, one per
//! line, with a summary on stderr. `--deny` exits 1 when any finding
//! survives suppression — the CI gate.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: exsample-lint [--root DIR] [--deny]";

fn main() -> ExitCode {
    // By default, the workspace this binary was built from.
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut deny = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage("--root needs a directory"),
            },
            "--deny" => deny = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let report = match exsample_lint::run_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("exsample-lint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for f in &report.findings {
        println!("{f}");
    }
    eprintln!(
        "exsample-lint: {} finding(s), {} suppressed by annotations",
        report.findings.len(),
        report.suppressed
    );
    if deny && !report.findings.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("exsample-lint: {err}\n{USAGE}");
    ExitCode::from(2)
}
