//! Lock discipline: the `lock_blocking` and `lock_order` rules.
//!
//! Both walk the same lexical guard model. A *guard* becomes live when a
//! no-argument `.lock()`, `.read()`, or `.write()` call is seen; it dies
//! at the end of the enclosing block, at `drop(name)`, or — for guards
//! bound to no name (statement temporaries) — at the end of their
//! statement. A call of a helper named `lock_<name>` (free function or
//! method) is an acquisition of lock `<name>`: the one sanctioned way to
//! wrap an acquisition (timing, piggybacked GC) without hiding the guard
//! from these rules. A condvar `.wait(guard)` *consumes* the named guard (the
//! OS releases the lock during the wait) and produces a new one, so the
//! idiomatic `state = cv.wait(state)?` keeps `state` live without a
//! false finding.
//!
//! `lock_blocking` flags calls from a blocklist of operations that can
//! stall the calling thread (detector dispatch, file I/O, condvar waits
//! on *other* locks, channel receives, sleeps, joins) lexically inside a
//! live guard scope. This is the invariant PR 5 restored by hand when
//! detector compute was found running under a cache shard mutex — now
//! machine-checked.
//!
//! `lock_order` derives a nested-acquisition graph: acquiring lock B
//! while a guard on lock A is live records the edge A → B. Lock
//! identity is the last one or two receiver-path components before the
//! acquisition call (`self.shared.state.lock()` → `shared.state`,
//! `self.shards[i].lock()` → `shards[_]`), aggregated per crate. Any
//! cycle — including a self-edge, which means re-acquiring the same
//! lock class while holding it — is a deadlock candidate and a finding.
//! Suppressing any one edge of a cycle (an `allow(lock_order, …)` on
//! that acquisition line) suppresses the cycle: one broken edge breaks
//! the loop.
//!
//! Where a crate fixes the order of two locks by design
//! (`DECLARED_ORDER`), the reverse nesting is a finding on its own —
//! no matching forward edge is needed to complete a cycle, because the
//! forward nesting is what the design promises every other site may do.

use crate::lexer::{Token, TokenKind};
use crate::source::SourceFile;
use crate::Report;
use std::collections::BTreeMap;

pub(crate) const LOCK_BLOCKING: &str = "lock_blocking";
pub(crate) const LOCK_ORDER: &str = "lock_order";

/// Method names that produce a guard when called with no arguments.
const ACQUIRERS: &[&str] = &["lock", "read", "write"];
/// Condvar methods that consume (and return) a guard.
const WAITERS: &[&str] = &["wait", "wait_timeout", "wait_while", "wait_timeout_while"];

/// Calls that can block the thread. `join` and `park` are only
/// considered with empty argument lists (`path.join("x")` is not a
/// thread join); everything else blocks regardless of arity.
const BLOCKING: &[&str] = &[
    // detector dispatch
    "dispatch_batch",
    "detect_with_scratch",
    "detect_frame",
    "detect",
    // file and stream I/O
    "sync_all",
    "sync_data",
    "fsync",
    "flush",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "rename",
    "remove_file",
    "create_dir_all",
    "set_len",
    // channels and sockets
    "recv",
    "recv_timeout",
    "accept",
    "connect",
    // scheduling
    "sleep",
    "park",
    "join",
];
const EMPTY_ARGS_ONLY: &[&str] = &["join", "park"];

/// Name prefix of guard-returning helpers: `lock_state(…)` acquires
/// lock `state`.
const HELPER_PREFIX: &str = "lock_";

/// Lock orders fixed by design: `(crate, first, second)` — `second` may
/// be taken while `first` is held, never the other way round.
///
/// * `engine`: the engine state lock, then a session's progress cell.
///   Workers publish into a cell and clients read it with the state lock
///   *not* held; the few paths that need both (`forget`, TTL reaping)
///   already hold the state lock when they reach the cell.
pub(crate) const DECLARED_ORDER: &[(&str, &str, &str)] = &[("engine", "state", "cell.progress")];

#[derive(Debug)]
struct Guard {
    /// Binding name; `None` for statement temporaries.
    name: Option<String>,
    /// Lock identity for the order graph.
    lock_name: String,
    /// Brace depth at acquisition (block-scoped guards die when the
    /// depth drops below this).
    depth: i32,
    line: u32,
}

/// One nested-acquisition edge with an example site.
#[derive(Debug)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: u32,
    pub suppressed: bool,
}

/// Walk one file, emitting `lock_blocking` findings and collecting
/// `lock_order` edges into `edges`. Test modules are skipped: tests
/// block under locks deliberately (e.g. to provoke contention).
pub fn walk_file(f: &SourceFile, report: &mut Report, edges: &mut Vec<Edge>) {
    let toks = &f.lexed.tokens;
    let mut depth: i32 = 0;
    let mut guards: Vec<Guard> = Vec::new();

    let mut i = 0;
    while i < toks.len() {
        if f.in_test(i) {
            // Keep the brace depth honest while skipping.
            if toks[i].is_punct('{') {
                depth += 1;
            } else if toks[i].is_punct('}') {
                depth -= 1;
            }
            i += 1;
            continue;
        }
        let t = &toks[i];
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            guards.retain(|g| g.depth <= depth);
        } else if t.is_punct(';') {
            // Statement end: temporaries acquired at this depth die.
            guards.retain(|g| g.name.is_some() || g.depth != depth);
        } else if t.kind == TokenKind::Ident {
            i = on_ident(f, toks, i, depth, &mut guards, report, edges);
        }
        i += 1;
    }
}

fn on_ident(
    f: &SourceFile,
    toks: &[Token],
    i: usize,
    depth: i32,
    guards: &mut Vec<Guard>,
    report: &mut Report,
    edges: &mut Vec<Edge>,
) -> usize {
    let name = toks[i].text.as_str();
    let prev_dot = i > 0 && toks[i - 1].is_punct('.');
    let next_paren = i + 1 < toks.len() && toks[i + 1].is_punct('(');

    // `drop(g)` kills the named guard.
    if name == "drop" && next_paren && !prev_dot {
        if let Some(arg) = toks.get(i + 2) {
            if arg.kind == TokenKind::Ident {
                guards.retain(|g| g.name.as_deref() != Some(arg.text.as_str()));
            }
        }
        return i;
    }

    // Guard acquisition: `.lock()` / `.read()` / `.write()` with no
    // arguments (an argument means io::Read/Write, not a lock).
    if ACQUIRERS.contains(&name)
        && prev_dot
        && next_paren
        && toks.get(i + 2).is_some_and(|t| t.is_punct(')'))
    {
        acquire(f, toks, i, depth, receiver_name(toks, i - 1), guards, edges);
        return i + 2;
    }

    // Guard-returning helper: `lock_<name>(…)` acquires lock `<name>`.
    if let Some(lock_name) = name.strip_prefix(HELPER_PREFIX) {
        let is_def = i > 0 && toks[i - 1].is_ident("fn");
        if next_paren && !is_def && !lock_name.is_empty() {
            acquire(f, toks, i, depth, lock_name.to_string(), guards, edges);
            return i;
        }
    }

    // Condvar wait: consumes the guard it is passed; waiting while any
    // *other* guard is live is a blocking violation.
    if WAITERS.contains(&name) && prev_dot && next_paren {
        let consumed = toks.get(i + 2).and_then(|t| {
            (t.kind == TokenKind::Ident
                && guards.iter().any(|g| g.name.as_deref() == Some(&t.text)))
            .then(|| t.text.clone())
        });
        for held in guards.iter() {
            if held.name == consumed && consumed.is_some() {
                continue;
            }
            report_blocking(f, toks[i].line, name, held, report);
        }
        if let Some(c) = consumed {
            // The wait returns a guard on the same lock; rebind it.
            let lock_name = guards
                .iter()
                .find(|g| g.name.as_deref() == Some(c.as_str()))
                .map(|g| g.lock_name.clone())
                .unwrap_or_else(|| "?".into());
            guards.retain(|g| g.name.as_deref() != Some(c.as_str()));
            let bound = binding_name(toks, i);
            guards.push(Guard {
                name: bound,
                lock_name,
                depth,
                line: toks[i].line,
            });
        }
        return i;
    }

    // Plain blocking calls.
    if BLOCKING.contains(&name) && next_paren && !guards.is_empty() {
        // Not a definition (`fn recv(...)`), not a path segment of a
        // type (`Message::Connect`), and `join`/`park` only with empty
        // argument lists.
        let is_def = i > 0 && toks[i - 1].is_ident("fn");
        let empty_ok =
            !EMPTY_ARGS_ONLY.contains(&name) || toks.get(i + 2).is_some_and(|t| t.is_punct(')'));
        if !is_def && empty_ok {
            // Report against every live guard (each is independently a
            // reason the call should move).
            for held in guards.iter() {
                report_blocking(f, toks[i].line, name, held, report);
            }
        }
    }
    i
}

/// Record the acquisition of `lock_name` at token `i`: an order edge
/// from every guard held, and a new live guard.
fn acquire(
    f: &SourceFile,
    toks: &[Token],
    i: usize,
    depth: i32,
    lock_name: String,
    guards: &mut Vec<Guard>,
    edges: &mut Vec<Edge>,
) {
    for held in guards.iter() {
        edges.push(Edge {
            from: held.lock_name.clone(),
            to: lock_name.clone(),
            file: f.rel_path.clone(),
            line: toks[i].line,
            suppressed: f.lexed.allowed(LOCK_ORDER, toks[i].line),
        });
    }
    guards.push(Guard {
        name: binding_name(toks, i),
        lock_name,
        depth,
        line: toks[i].line,
    });
}

fn report_blocking(f: &SourceFile, line: u32, call: &str, held: &Guard, report: &mut Report) {
    report.flag(
        f.lexed.allowed(LOCK_BLOCKING, line),
        &f.rel_path,
        line,
        LOCK_BLOCKING,
        format!(
            "blocking call `{call}` while guard of lock `{}` (acquired line {}) is live; \
             move the call outside the critical section or annotate \
             `// lint: allow(lock_blocking, reason)`",
            held.lock_name, held.line
        ),
    );
}

/// Lock identity from the receiver chain ending at `dot_idx` (the `.`
/// before the acquisition call): the last one or two path components,
/// with `self` stripped and index expressions collapsed to `[_]`.
fn receiver_name(toks: &[Token], dot_idx: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot_idx as isize - 1;
    while j >= 0 && parts.len() < 2 {
        let t = &toks[j as usize];
        if t.is_punct(']') || t.is_punct(')') {
            let open = if t.is_punct(']') { '[' } else { '(' };
            let close = if t.is_punct(']') { ']' } else { ')' };
            let mut bal = 1;
            let mut k = j - 1;
            while k >= 0 && bal > 0 {
                if toks[k as usize].is_punct(close) {
                    bal += 1;
                } else if toks[k as usize].is_punct(open) {
                    bal -= 1;
                }
                k -= 1;
            }
            if t.is_punct(']') {
                // `shards[i]` → component suffix `[_]` on the ident
                // before the bracket.
                if k >= 0 && toks[k as usize].kind == TokenKind::Ident {
                    parts.push(format!("{}[_]", toks[k as usize].text));
                    j = k - 1;
                } else {
                    parts.push("[_]".into());
                    j = k;
                }
            } else {
                // `stdout()` → the call's name.
                if k >= 0 && toks[k as usize].kind == TokenKind::Ident {
                    parts.push(format!("{}()", toks[k as usize].text));
                    j = k - 1;
                } else {
                    parts.push("()".into());
                    j = k;
                }
            }
        } else if t.kind == TokenKind::Ident {
            if t.text != "self" {
                parts.push(t.text.clone());
            }
            j -= 1;
        } else if t.is_punct('?') {
            j -= 1;
            continue;
        } else {
            break;
        }
        // Keep walking only across `.` / `::` chains.
        if j >= 0 && toks[j as usize].is_punct('.') {
            j -= 1;
        } else if j >= 1 && toks[j as usize].is_punct(':') && toks[j as usize - 1].is_punct(':') {
            j -= 2;
        } else {
            break;
        }
    }
    if parts.is_empty() {
        return "?".into();
    }
    parts.reverse();
    parts.join(".")
}

/// The name an acquisition is bound to, from its statement's prefix:
/// `let [mut] g = …`, `let Ok(g) = …` / `if let Ok(g) = …`, or a plain
/// `g = …` reassignment. `None` for temporaries.
fn binding_name(toks: &[Token], acq_idx: usize) -> Option<String> {
    // Walk back to the statement boundary at bracket balance 0.
    let mut j = acq_idx as isize - 1;
    let mut bal: i32 = 0; // counts closers seen while going backwards
    let mut start = 0usize;
    while j >= 0 {
        let t = &toks[j as usize];
        if t.is_punct(')') || t.is_punct(']') {
            bal += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if bal == 0 {
                // Entered the enclosing call's argument list: the
                // acquisition is a subexpression, not a statement of
                // its own. No binding.
                return None;
            }
            bal -= 1;
        } else if bal == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            start = j as usize + 1;
            break;
        }
        j -= 1;
    }
    let mut k = start;
    // Optional leading `if` / `while` / `else` before `let`.
    while toks.get(k).is_some_and(|t| {
        t.is_ident("if") || t.is_ident("while") || t.is_ident("else") || t.is_ident("match")
    }) {
        k += 1;
    }
    if toks.get(k).is_some_and(|t| t.is_ident("let")) {
        k += 1;
        if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        // `Ok(g)` / `Some(g)` patterns.
        if toks
            .get(k)
            .is_some_and(|t| t.is_ident("Ok") || t.is_ident("Some"))
            && toks.get(k + 1).is_some_and(|t| t.is_punct('('))
        {
            k += 2;
            if toks.get(k).is_some_and(|t| t.is_ident("mut")) {
                k += 1;
            }
        }
        return toks
            .get(k)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone());
    }
    // Plain reassignment `g = cv.wait(g)…`.
    if toks.get(start).is_some_and(|t| t.kind == TokenKind::Ident)
        && toks.get(start + 1).is_some_and(|t| t.is_punct('='))
        && !toks.get(start + 2).is_some_and(|t| t.is_punct('='))
    {
        return Some(toks[start].text.clone());
    }
    None
}

/// Reduce collected edges to per-crate cycle findings. Edges are
/// grouped by the crate the file belongs to; a strongly connected
/// component with more than one lock, or any self-edge, is a deadlock
/// candidate. A cycle is suppressed if at least one of its edges is.
pub fn order_findings(edges_by_crate: &BTreeMap<String, Vec<Edge>>, report: &mut Report) {
    for (krate, edges) in edges_by_crate {
        for e in edges {
            let reversed = DECLARED_ORDER
                .iter()
                .any(|&(k, first, second)| k == krate && e.from == second && e.to == first);
            if !reversed {
                continue;
            }
            report.flag(
                e.suppressed,
                &e.file,
                e.line,
                LOCK_ORDER,
                format!(
                    "lock `{}` acquired while `{}` is held, against crate `{krate}`'s declared \
                     order ({} before {}); release the inner lock first, or annotate \
                     `// lint: allow(lock_order, reason)`",
                    e.to, e.from, e.to, e.from
                ),
            );
        }
        // Adjacency with one representative site per (from, to).
        let mut adj: BTreeMap<&str, BTreeMap<&str, (&Edge, bool)>> = BTreeMap::new();
        for e in edges {
            let slot = adj
                .entry(e.from.as_str())
                .or_default()
                .entry(e.to.as_str())
                .or_insert((e, e.suppressed));
            // An edge instance without an allow keeps the pair unsuppressed.
            slot.1 = slot.1 && e.suppressed;
        }
        for cycle in find_cycles(&adj) {
            let all_sites: Vec<&(&Edge, bool)> = cycle
                .windows(2)
                .filter_map(|w| adj.get(w[0]).and_then(|m| m.get(w[1])))
                .collect();
            let (first, _) = all_sites.first().copied().copied().unwrap_or_else(|| {
                unreachable!("cycle has at least one edge");
            });
            let path = cycle.join(" -> ");
            let sites: Vec<String> = all_sites
                .iter()
                .map(|(e, _)| format!("{}:{}", e.file, e.line))
                .collect();
            report.flag(
                all_sites.iter().any(|(_, s)| *s),
                &first.file,
                first.line,
                LOCK_ORDER,
                format!(
                    "lock-order cycle in crate `{krate}`: {path} (acquisition sites: {}); \
                     nested acquisitions in a loop can deadlock — impose a single order, \
                     or annotate one edge `// lint: allow(lock_order, reason)`",
                    sites.join(", ")
                ),
            );
        }
    }
}

/// All elementary cycles' node paths, found via DFS from each node with
/// a canonical-start dedup (smallest node first). Graphs here are tiny
/// (a handful of lock classes per crate), so simple enumeration is
/// fine. Returned paths are closed: first == last.
fn find_cycles<'a>(adj: &BTreeMap<&'a str, BTreeMap<&'a str, (&Edge, bool)>>) -> Vec<Vec<&'a str>> {
    let mut cycles: Vec<Vec<&str>> = Vec::new();
    for (&start, _) in adj.iter() {
        let mut stack = vec![start];
        dfs(adj, start, start, &mut stack, &mut cycles, 0);
    }
    cycles
}

fn dfs<'a>(
    adj: &BTreeMap<&'a str, BTreeMap<&'a str, (&Edge, bool)>>,
    start: &'a str,
    at: &'a str,
    stack: &mut Vec<&'a str>,
    cycles: &mut Vec<Vec<&'a str>>,
    depth: usize,
) {
    if depth > 16 {
        return; // pathological graph: bound the walk
    }
    let Some(nexts) = adj.get(at) else {
        return;
    };
    for &next in nexts.keys() {
        if next == start {
            // Canonical start (lexicographically smallest node) so each
            // cycle is reported once.
            if stack.iter().all(|n| start <= n) {
                let mut c = stack.clone();
                c.push(start);
                cycles.push(c);
            }
            continue;
        }
        if stack.contains(&next) {
            continue;
        }
        stack.push(next);
        dfs(adj, start, next, stack, cycles, depth + 1);
        stack.pop();
    }
}
