//! `retired`: what a simplification deleted stays deleted.
//!
//! Each row of [`RETIREMENTS`] is one retirement: the spellings that
//! must not come back, the directories and file kinds where they must
//! not, whether `#[cfg(test)]` modules may still use them, and the files
//! that may, each with its reason. A spelling is a token sequence over
//! a file's words (runs of `[A-Za-z0-9_]`) and single punctuation
//! characters. A word matches whole, as `grep -w` does, in code,
//! comments and strings alike, and whitespace or a line break between
//! tokens cannot hide a shape such as `.reader()`. In a spelling, `*`
//! stands for any run of word characters.
//!
//! No inline `lint: allow` excuses a site: an exemption is an `allow`
//! entry with its reason, so it shows up in review as a table edit. An
//! entry beneath which no file spells any of its row's spellings excuses
//! nothing and is itself a finding ([`stale_allows`]), so an exemption
//! does not outlive its reason.

use crate::source::{test_module_files, SourceFile};
use crate::Report;

pub const RETIRED: &str = "retired";

/// This file: it spells every retired name once, in the table.
const TABLE: &str = "crates/lint/src/rules/retired.rs";

/// One retirement. `scope` and `allow` paths are relative to the
/// workspace root and cover everything beneath them; `*` in a path
/// matches within one segment.
pub struct Retirement {
    pub name: &'static str,
    /// The change that retired it.
    pub pr: u32,
    /// `|`-separated.
    pub spellings: &'static str,
    pub scope: &'static [&'static str],
    /// File extensions scanned; empty scans every file.
    pub kinds: &'static [&'static str],
    pub tests_exempt: bool,
    /// `(path, reason)`: files that may still use the spellings.
    pub allow: &'static [(&'static str, &'static str)],
    /// What to do instead.
    pub why: &'static str,
}

/// Every path the workspace run loads: each scope lies beneath one.
pub(crate) const ROOTS: &[&str] = &[
    "crates",
    "src",
    "examples",
    "tests",
    "shims",
    "docs",
    "README.md",
];

pub const RETIREMENTS: &[Retirement] = &[
    Retirement {
        name: "gop_container",
        pr: 27,
        spellings: "ContainerWriter|Container::open|.reader()",
        scope: &["crates/engine/src"],
        kinds: &[],
        tests_exempt: false,
        allow: &[],
        why: "the engine prices reads with GopWalk and builds or reads no container",
    },
    Retirement {
        name: "obs_api",
        pr: 28,
        spellings: "span_flight|SpanGuard|flight_capacity|span!(",
        scope: ROOTS,
        kinds: &["rs", "toml", "md"],
        tests_exempt: false,
        allow: &[],
        why: "record through EngineObs::record or EngineObs::span",
    },
    Retirement {
        name: "obs_writes",
        pr: 28,
        spellings: ".flight().record(|.tracer().record(|.histogram(\"*\").record(|*hist*.record(",
        scope: &["crates/engine/src", "crates/proto/src", "crates/serve/src"],
        kinds: &["rs"],
        tests_exempt: true,
        allow: &[(
            "crates/engine/src/obs.rs",
            "EngineObs::record and EngineObs::flush, the one writer",
        )],
        why: "only EngineObs::record, and EngineObs::flush for a quantum's notes, write stage histograms, the flight ring and spans",
    },
    Retirement {
        name: "write_behind_hook",
        pr: 41,
        spellings: "set_write_behind",
        scope: &["crates"],
        kinds: &[],
        tests_exempt: false,
        allow: &[],
        why: "the worker appends its quantum's paid fills to the log when the quantum ends; the cache writes nothing durable",
    },
    Retirement {
        name: "error_vocabulary",
        pr: 29,
        spellings: "EngineError|SubmitError|WireError|AdmissionError|lifecycle_error|submit_error|engine_error|service_err|check_snapshots",
        scope: ROOTS,
        kinds: &[],
        tests_exempt: false,
        allow: &[],
        why: "return exsample_engine::ServiceError as is, with no translation between layers",
    },
    Retirement {
        name: "le_codec",
        pr: 18,
        spellings: "from_le_bytes|to_le_bytes|struct Cursor",
        scope: &["crates/*/src"],
        kinds: &[],
        tests_exempt: true,
        allow: &[
            ("crates/store/src/le.rs", "the codec itself"),
            ("crates/obs/src/hist.rs", "obs is dependency-free by design"),
            ("crates/proto/src/framebuf.rs", "patches the 8-byte frame header in place"),
            ("crates/store/src/crc.rs", "not a record codec: the CRC table"),
            ("crates/stats/src/*.rs", "not a record codec: hashing"),
        ],
        why: "declare a byte layout with exsample_store::le's le_record!/le_enum!",
    },
    Retirement {
        name: "bytes_crate",
        pr: 21,
        spellings: "use bytes|bytes::Bytes|shims/bytes",
        scope: &["crates", "src", "examples", "tests"],
        kinds: &[],
        tests_exempt: false,
        allow: &[],
        why: "the GOP container is one buffer read by borrowing: no shared-bytes type",
    },
    Retirement {
        name: "warm_read_path",
        pr: 19,
        spellings: "fn preload|fn wants|fn covers|compact_on_start|scan_detections_raw|RawDetectionRecord|RecordVerdict|peek_detection_key",
        scope: &["crates/*/src"],
        kinds: &[],
        tests_exempt: false,
        allow: &[],
        why: "the mapped container is the one warm read path (docs/STORE.md)",
    },
    Retirement {
        name: "folded_crates",
        pr: 42,
        spellings: "exsample_colstore|exsample-colstore|exsample_baselines|exsample-baselines|exsample_optimal|exsample-optimal",
        scope: &["crates", "src", "examples", "tests"],
        kinds: &[],
        tests_exempt: false,
        allow: &[],
        why: "the container is exsample_persist::container; baselines and optimal are modules of exsample-experiments",
    },
    Retirement {
        name: "second_log_pass",
        pr: 44,
        spellings: "scan_detections",
        scope: &["crates/engine/src"],
        kinds: &[],
        tests_exempt: true,
        allow: &[],
        why: "startup compaction's scan (exsample_persist::container::fold_log) is the engine's one pass over the log",
    },
    Retirement {
        name: "split_log_counters",
        pr: 44,
        spellings: "segments_folded|records_folded",
        scope: &["crates", "src", "tests", "examples", "docs"],
        kinds: &[],
        tests_exempt: false,
        allow: &[],
        why: "a compaction reports what its scan read as one LoadStats (CompactionReport::log)",
    },
    Retirement {
        name: "fidelity_arithmetic",
        pr: 40,
        spellings: "median_samples_to|median_seconds_to|Gamma::new(",
        scope: &["crates/experiments"],
        kinds: &[],
        tests_exempt: false,
        allow: &[],
        why: "medians and savings come from exsample_core::fidelity; Eq. III.4 from BeliefPrior",
    },
];

impl Retirement {
    /// Does this row scan `path`?
    pub(crate) fn covers(&self, path: &str) -> bool {
        let kind = path.rsplit_once('.').map_or("", |(_, ext)| ext);
        self.scope.iter().any(|s| under(s, path))
            && (self.kinds.is_empty() || self.kinds.contains(&kind))
            && !self.allow.iter().any(|(a, _)| under(a, path))
    }
}

/// Flag every retired spelling in `files` (`(path, text)`, paths
/// relative to the workspace root).
pub fn check(files: &[(String, String)], report: &mut Report) {
    let test_files = test_module_files(files);
    for (path, text) in files.iter().filter(|(p, _)| p != TABLE) {
        let rows: Vec<&Retirement> = RETIREMENTS.iter().filter(|r| r.covers(path)).collect();
        if rows.is_empty() {
            continue;
        }
        let toks = tokens(text, false);
        let tests = match rows.iter().any(|r| r.tests_exempt) {
            true if test_files.contains(path) => vec![(1, u32::MAX)],
            true => SourceFile::from_text(path, "", text).test_lines(),
            false => Vec::new(),
        };
        let in_test = |line: u32| tests.iter().any(|&(a, b)| a <= line && line <= b);
        for row in rows {
            for spelling in row.spellings.split('|') {
                let pat = tokens(spelling, true);
                if !pat.iter().all(|(p, _)| p.contains('*') || text.contains(p)) {
                    continue; // cheap in debug builds, where CI runs the lint
                }
                for (i, &(_, line)) in toks.iter().enumerate() {
                    if matches(&toks[i..], &pat) && !(row.tests_exempt && in_test(line)) {
                        let message = format!(
                            "`{spelling}` was retired in PR {} ({}): {}",
                            row.pr, row.name, row.why
                        );
                        report.flag(false, path, line, RETIRED, message);
                    }
                }
            }
        }
    }
}

/// Flag every `allow` entry beneath which no file of `files` spells any
/// of its row's spellings, at the entry's line in the table.
pub fn stale_allows(files: &[(String, String)], report: &mut Report) {
    let table = files.iter().find(|(p, _)| p == TABLE).map(|(_, t)| t);
    for row in RETIREMENTS {
        for (allowed, _) in row.allow {
            let excuses = files
                .iter()
                .any(|(path, text)| under(allowed, path) && spells(text, row));
            if excuses {
                continue;
            }
            let quoted = format!("\"{allowed}\"");
            let line = table
                .and_then(|t| t.lines().position(|l| l.contains(&quoted)))
                .map_or(1, |i| i as u32 + 1);
            let message = format!(
                "`allow` entry `{allowed}` of {} excuses nothing: no file beneath it spells `{}`",
                row.name, row.spellings
            );
            report.flag(false, TABLE, line, RETIRED, message);
        }
    }
}

/// Does `text` spell any of `row`'s spellings?
fn spells(text: &str, row: &Retirement) -> bool {
    let toks = tokens(text, false);
    row.spellings.split('|').any(|spelling| {
        let pat = tokens(spelling, true);
        (0..toks.len()).any(|i| matches(&toks[i..], &pat))
    })
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// `text` as words and single punctuation characters with their lines.
/// In a spelling (`pattern`), `*` is part of a word.
fn tokens(text: &str, pattern: bool) -> Vec<(&str, u32)> {
    let (mut out, mut line, mut word_start) = (Vec::new(), 1, None);
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        if is_word(c) || (pattern && c == '*') {
            word_start.get_or_insert(i);
            continue;
        }
        if let Some(start) = word_start.take() {
            out.push((&text[start..i], line));
        }
        if c == '\n' {
            line += 1;
        } else if !c.is_whitespace() {
            out.push((&text[i..i + c.len_utf8()], line));
        }
    }
    out
}

/// Does `toks` start with the spelling `pat`?
fn matches(toks: &[(&str, u32)], pat: &[(&str, u32)]) -> bool {
    toks.len() >= pat.len()
        && pat.iter().zip(toks).all(|(&(p, _), &(t, _))| {
            p == t || (p.contains('*') && t.chars().all(is_word) && glob(p, t))
        })
}

/// Is `path` the entry `scope` or beneath it?
fn under(scope: &str, path: &str) -> bool {
    let dirs = path.match_indices('/').map(|(k, _)| &path[..k]);
    dirs.chain([path]).any(|p| glob(scope, p))
}

/// `*` matches any run of characters other than `/`.
fn glob(pat: &str, s: &str) -> bool {
    let Some((head, tail)) = pat.split_once('*') else {
        return pat == s;
    };
    let Some(rest) = s.strip_prefix(head) else {
        return false;
    };
    let end = rest.find('/').unwrap_or(rest.len());
    (0..=end).any(|k| rest.is_char_boundary(k) && glob(tail, &rest[k..]))
}
