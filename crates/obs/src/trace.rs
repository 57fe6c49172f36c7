//! Request-scoped distributed tracing: causal span trees per trace.
//!
//! A **trace** is the full story of one search session as it crosses
//! layers — client submit, reactor turn, admission, scheduler lease,
//! batch assembly, detector dispatch — tied together by a [`TraceId`]
//! that every layer can derive *deterministically* from the session id
//! ([`TraceId::from_session`]). Derivation is a bijective 64-bit mixer,
//! so a holder of a trace id can also recover the session id
//! ([`TraceId::session`]); the cluster router uses the inverse to route
//! `collect_trace` to the shard that owns the session without any
//! registration traffic.
//!
//! Each trace is a **causal tree** of [`SpanRecord`]s: every span knows
//! its parent ([`SpanId`]); the root is the session span minted at
//! submit ([`SpanId::ROOT`], parent [`SpanId::NONE`]). The
//! [`SpanCollector`] accumulates spans per trace with bounded memory
//! (oldest trace evicted first), and [`SpanCollector::collect`] hands
//! the tree out for export. [`validate_spans`] checks the tree
//! invariants — unique ids, resolvable parents, no cycles — and
//! [`chrome_trace_json`] renders a tree as Chrome trace-event JSON
//! loadable in `chrome://tracing` or Perfetto ([`validate_json`] is a
//! dependency-free syntax check for the artifact).
//!
//! Like everything in this crate, the collector is strictly
//! observational: recording reads the wall clock and takes a short
//! mutex on a side map. It can never alter a session's deterministic
//! search trace.

use crate::flight::{Stage, NO_SESSION};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of one trace (one session's causal story).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifier of one span within a trace. [`SpanId::NONE`] (zero) marks
/// "no parent"; [`SpanId::ROOT`] (one) is the session root span every
/// trace starts with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent parent: only the root span carries it.
    pub const NONE: SpanId = SpanId(0);
    /// The session root span minted at submit — the default parent for
    /// every span recorded without more specific causal context.
    pub const ROOT: SpanId = SpanId(1);
}

/// Salt folded into the session id before mixing, so trace ids are not
/// trivially the mixer image of small integers.
const TRACE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a bijective 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Exact inverse of [`mix64`] (inverse odd multipliers, unwound
/// xor-shifts) — the property `unmix64(mix64(x)) == x` is what lets the
/// router recover a session id from a trace id.
fn unmix64(mut x: u64) -> u64 {
    x ^= (x >> 31) ^ (x >> 62);
    x = x.wrapping_mul(0x3196_42b2_d24d_8ec3);
    x ^= (x >> 27) ^ (x >> 54);
    x = x.wrapping_mul(0x96de_1b17_3f11_9089);
    x ^= (x >> 30) ^ (x >> 60);
    x
}

impl TraceId {
    /// The trace id of the session with raw id `session` — pure and
    /// deterministic, so every layer (and every process in a fleet)
    /// derives the same id without coordination.
    pub fn from_session(session: u64) -> TraceId {
        TraceId(mix64(session ^ TRACE_SALT))
    }

    /// Invert [`TraceId::from_session`]: the raw session id this trace
    /// belongs to.
    pub fn session(&self) -> u64 {
        unmix64(self.0) ^ TRACE_SALT
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// The causal coordinates a request carries across process boundaries:
/// which trace it belongs to and which span caused it. Protocol v7
/// attaches this, optionally, to `Submit`/`Poll`/`Ack` frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace this request belongs to.
    pub trace: TraceId,
    /// The client-side span that caused this request; servers parent
    /// their handling spans under it.
    pub parent: SpanId,
}

impl TraceContext {
    /// The context a client holding `session` attaches to follow-up
    /// requests: the session's trace, parented at the session root.
    pub fn for_session(session: u64) -> TraceContext {
        TraceContext {
            trace: TraceId::from_session(session),
            parent: SpanId::ROOT,
        }
    }
}

/// One completed span: a named, timed interval within a trace, causally
/// linked to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The owning trace.
    pub trace: TraceId,
    /// This span's id, unique within the trace.
    pub id: SpanId,
    /// The causing span ([`SpanId::NONE`] only on the root).
    pub parent: SpanId,
    /// What was measured.
    pub stage: Stage,
    /// Owning session's raw id, or [`NO_SESSION`].
    pub session: u64,
    /// Start time in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Measured wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Stage-specific payload (same vocabulary as flight events).
    pub key: u64,
}

/// A span its recorder timed and hands over later, in a batch
/// ([`SpanCollector::record_all`]). It carries its own start, so storing
/// it reads no clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasuredSpan {
    /// What was measured.
    pub stage: Stage,
    /// When the measured interval began.
    pub start: Instant,
    /// Measured wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Stage-specific payload.
    pub key: u64,
}

/// Bounded per-trace storage: traces beyond this are evicted oldest
/// first.
const MAX_TRACES: usize = 512;
/// Spans kept per trace; further records for a full trace are dropped.
const MAX_SPANS_PER_TRACE: usize = 4096;

#[derive(Debug, Default)]
struct TraceStore {
    /// Spans per trace id, in recording order (root first).
    spans: BTreeMap<u64, Vec<SpanRecord>>,
    /// Trace ids in insertion order, for oldest-first eviction.
    order: VecDeque<u64>,
}

/// Accumulates spans into per-trace causal trees with bounded memory.
///
/// A disabled collector ([`SpanCollector::new`] with `enabled = false`)
/// ignores every call without reading the clock, so tracing can ship
/// always-wired but switched off.
///
/// Spans are only accepted for traces whose root was opened with
/// [`SpanCollector::open_root`] — a span for an unknown trace (a bogus
/// session id on the wire, an evicted trace) is dropped rather than
/// left dangling, which keeps every stored tree valid by construction.
#[derive(Debug)]
pub struct SpanCollector {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    store: Mutex<TraceStore>,
}

impl SpanCollector {
    /// A collector; `enabled = false` makes every method a no-op.
    pub fn new(enabled: bool) -> Self {
        SpanCollector {
            enabled,
            epoch: Instant::now(),
            // 0 is NONE and 1 is ROOT; allocated ids start above both.
            next_id: AtomicU64::new(2),
            store: Mutex::new(TraceStore::default()),
        }
    }

    /// Will this collector record anything?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the collector's epoch.
    fn now_ns(&self) -> u64 {
        self.since_epoch(Instant::now())
    }

    /// Nanoseconds from the collector's epoch to `t` (0 before it).
    fn since_epoch(&self, t: Instant) -> u64 {
        let ns = t.saturating_duration_since(self.epoch).as_nanos();
        u64::try_from(ns).unwrap_or(u64::MAX)
    }

    /// Open `trace` with its session root span ([`SpanId::ROOT`],
    /// parent [`SpanId::NONE`], stage [`Stage::Session`]). Idempotent;
    /// evicts the oldest trace when the trace cap is reached. The root's
    /// duration stays zero until [`SpanCollector::close_root`].
    pub fn open_root(&self, trace: TraceId, session: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let mut store = self.store.lock().expect("span collector poisoned");
        if store.spans.contains_key(&trace.0) {
            return;
        }
        while store.order.len() >= MAX_TRACES {
            if let Some(oldest) = store.order.pop_front() {
                store.spans.remove(&oldest);
            }
        }
        store.order.push_back(trace.0);
        store.spans.insert(
            trace.0,
            vec![SpanRecord {
                trace,
                id: SpanId::ROOT,
                parent: SpanId::NONE,
                stage: Stage::Session,
                session,
                start_ns,
                duration_ns: 0,
                key: 0,
            }],
        );
    }

    /// Close `trace`'s root span: its duration becomes the elapsed time
    /// since [`SpanCollector::open_root`]. Called at session
    /// finalization; returns the closed duration, or `None` for unknown
    /// traces (harmless).
    pub fn close_root(&self, trace: TraceId) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        let mut store = self.store.lock().expect("span collector poisoned");
        let spans = store.spans.get_mut(&trace.0)?;
        let root = spans.iter_mut().find(|s| s.id == SpanId::ROOT)?;
        root.duration_ns = now.saturating_sub(root.start_ns);
        Some(root.duration_ns)
    }

    /// Record one completed span of `duration_ns` ending now, causally
    /// under `parent` in `trace`. Dropped silently when the trace is
    /// unknown (never opened, or evicted) or full; returns the id given
    /// to the span, or [`SpanId::NONE`] when dropped.
    pub fn record(
        &self,
        trace: TraceId,
        parent: SpanId,
        stage: Stage,
        session: u64,
        duration_ns: u64,
        key: u64,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.now_ns().saturating_sub(duration_ns);
        let mut store = self.store.lock().expect("span collector poisoned");
        let Some(spans) = store.spans.get_mut(&trace.0) else {
            return SpanId::NONE;
        };
        if spans.len() >= MAX_SPANS_PER_TRACE {
            return SpanId::NONE;
        }
        let id = SpanId(self.next_id.fetch_add(1, Ordering::Relaxed));
        spans.push(SpanRecord {
            trace,
            id,
            parent,
            stage,
            session,
            start_ns,
            duration_ns,
            key,
        });
        id
    }

    /// Record `spans`, in order, under `parent` in `trace`, all with one
    /// hold of the store's lock. Each starts at its own
    /// [`MeasuredSpan::start`]. What does not fit a full trace is dropped,
    /// as by [`SpanCollector::record`]. Returns whether the trace takes
    /// further spans: `false` once it is full, and for an unknown trace.
    pub fn record_all(
        &self,
        trace: TraceId,
        parent: SpanId,
        session: u64,
        spans: &[MeasuredSpan],
    ) -> bool {
        if !self.enabled {
            return false;
        }
        let mut store = self.store.lock().expect("span collector poisoned");
        let Some(stored) = store.spans.get_mut(&trace.0) else {
            return false;
        };
        let room = MAX_SPANS_PER_TRACE.saturating_sub(stored.len());
        let taken = spans.len().min(room);
        let first = self.next_id.fetch_add(taken as u64, Ordering::Relaxed);
        stored.extend(
            spans
                .iter()
                .take(taken)
                .zip(first..)
                .map(|(s, id)| SpanRecord {
                    trace,
                    id: SpanId(id),
                    parent,
                    stage: s.stage,
                    session,
                    start_ns: self.since_epoch(s.start),
                    duration_ns: s.duration_ns,
                    key: s.key,
                }),
        );
        stored.len() < MAX_SPANS_PER_TRACE
    }

    /// The spans of `trace`, in recording order (root first). Empty for
    /// unknown traces.
    pub fn collect(&self, trace: TraceId) -> Vec<SpanRecord> {
        let store = self.store.lock().expect("span collector poisoned");
        store.spans.get(&trace.0).cloned().unwrap_or_default()
    }

    /// Number of traces currently resident.
    pub fn traces(&self) -> usize {
        self.store
            .lock()
            .expect("span collector poisoned")
            .spans
            .len()
    }
}

/// Check the causal-tree invariants over one trace's spans: span ids
/// are unique and non-[`NONE`](SpanId::NONE), every non-root parent id
/// resolves to a span in the set, no span is its own ancestor, and all
/// spans belong to the same trace. Empty input is trivially valid.
pub fn validate_spans(spans: &[SpanRecord]) -> Result<(), String> {
    let mut parents: HashMap<u64, u64> = HashMap::with_capacity(spans.len());
    for s in spans {
        if s.id == SpanId::NONE {
            return Err(format!("span in trace {} has id NONE", s.trace));
        }
        if let Some(first) = spans.first() {
            if s.trace != first.trace {
                return Err(format!(
                    "span {} belongs to trace {}, expected {}",
                    s.id.0, s.trace, first.trace
                ));
            }
        }
        if parents.insert(s.id.0, s.parent.0).is_some() {
            return Err(format!("duplicate span id {} in trace {}", s.id.0, s.trace));
        }
    }
    for s in spans {
        if s.parent == SpanId::NONE {
            continue;
        }
        if !parents.contains_key(&s.parent.0) {
            return Err(format!(
                "span {} has unresolved parent {} in trace {}",
                s.id.0, s.parent.0, s.trace
            ));
        }
        // Walk the parent chain; with unique ids a cycle must revisit
        // this span within |spans| steps.
        let mut cursor = s.parent.0;
        for _ in 0..spans.len() {
            if cursor == s.id.0 {
                return Err(format!("span {} is its own ancestor", s.id.0));
            }
            match parents.get(&cursor) {
                Some(&up) if up != SpanId::NONE.0 => cursor = up,
                _ => break,
            }
        }
    }
    Ok(())
}

/// Push a JSON string literal with the required escapes.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Render one trace's spans as Chrome trace-event JSON — the
/// `{"traceEvents": [...]}` object format, loadable in
/// `chrome://tracing` and Perfetto. Each span becomes one complete
/// (`"ph": "X"`) event; timestamps and durations are microseconds with
/// nanosecond decimals, rows (`tid`) group by owning session.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let us = |ns: u64| format!("{}.{:03}", ns / 1_000, ns % 1_000);
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(&mut out, s.stage.as_str());
        out.push_str(",\"cat\":\"exsample\",\"ph\":\"X\",\"ts\":");
        out.push_str(&us(s.start_ns));
        out.push_str(",\"dur\":");
        out.push_str(&us(s.duration_ns.max(1)));
        out.push_str(",\"pid\":1,\"tid\":");
        if s.session == NO_SESSION {
            out.push('0');
        } else {
            out.push_str(&s.session.to_string());
        }
        out.push_str(&format!(
            ",\"args\":{{\"trace\":\"{}\",\"span\":{},\"parent\":{},\"key\":{}}}}}",
            s.trace, s.id.0, s.parent.0, s.key
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Minimal JSON syntax validator (RFC 8259 grammar, no semantics): the
/// CI gate for exported trace artifacts without pulling in a JSON
/// dependency. Accepts exactly one top-level value.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    json_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    // lint: allow(panic_audit, the same condition checks pos < len before indexing)
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    // lint: allow(panic_audit, the same condition checks pos < len before indexing)
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", ch as char, *pos))
    }
}

fn json_value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(());
            }
            loop {
                skip_ws(b, pos);
                json_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                json_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(());
            }
            loop {
                json_value(b, pos)?;
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(());
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => json_string(b, pos),
        Some(b't') => json_literal(b, pos, b"true"),
        Some(b'f') => json_literal(b, pos, b"false"),
        Some(b'n') => json_literal(b, pos, b"null"),
        Some(c) if *c == b'-' || c.is_ascii_digit() => json_number(b, pos),
        _ => Err(format!("expected a JSON value at byte {}", *pos)),
    }
}

fn json_literal(b: &[u8], pos: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.get(*pos..).is_some_and(|rest| rest.starts_with(lit)) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn json_string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            match b.get(*pos) {
                                Some(h) if h.is_ascii_hexdigit() => *pos += 1,
                                _ => return Err(format!("bad \\u escape at byte {}", *pos)),
                            }
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            0x00..=0x1f => return Err(format!("raw control byte in string at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_owned())
}

fn json_number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while matches!(b.get(*pos), Some(c) if c.is_ascii_digit()) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_derivation_is_bijective() {
        for session in [0u64, 1, 2, 7, 1 << 16, 1 << 48, u64::MAX - 1, u64::MAX] {
            let trace = TraceId::from_session(session);
            assert_eq!(trace.session(), session);
        }
        // Mixing actually scrambles: nearby sessions land far apart.
        assert_ne!(
            TraceId::from_session(1).0 ^ TraceId::from_session(2).0,
            3,
            "mixer must not be affine"
        );
    }

    #[test]
    fn collector_builds_a_valid_tree() {
        let col = SpanCollector::new(true);
        let trace = TraceId::from_session(9);
        col.open_root(trace, 9);
        col.open_root(trace, 9); // idempotent
        let a = col.record(trace, SpanId::ROOT, Stage::Submit, 9, 1_000, 0);
        let b = col.record(trace, a, Stage::Dispatch, 9, 500, 8);
        assert_ne!(a, SpanId::NONE);
        assert_ne!(b, SpanId::NONE);
        assert!(col.close_root(trace).is_some());
        let spans = col.collect(trace);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].id, SpanId::ROOT);
        assert_eq!(spans[0].stage, Stage::Session);
        validate_spans(&spans).expect("collector trees are valid");
        // Spans for a trace that was never opened are dropped, keeping
        // every stored tree rooted.
        let orphan = TraceId::from_session(404);
        assert_eq!(
            col.record(orphan, SpanId::ROOT, Stage::Poll, 404, 1, 0),
            SpanId::NONE
        );
        assert!(col.collect(orphan).is_empty());
    }

    #[test]
    fn disabled_collector_is_inert() {
        let col = SpanCollector::new(false);
        let trace = TraceId::from_session(1);
        col.open_root(trace, 1);
        assert_eq!(
            col.record(trace, SpanId::ROOT, Stage::Submit, 1, 10, 0),
            SpanId::NONE
        );
        assert!(col.collect(trace).is_empty());
        assert_eq!(col.traces(), 0);
    }

    #[test]
    fn a_batch_lands_in_order_until_the_trace_is_full() {
        let col = SpanCollector::new(true);
        let trace = TraceId::from_session(4);
        let t0 = Instant::now();
        let span = |key: u64| MeasuredSpan {
            stage: Stage::Dispatch,
            start: t0 + std::time::Duration::from_nanos(key),
            duration_ns: 10,
            key,
        };
        let batch: Vec<MeasuredSpan> = (0..8).map(span).collect();
        assert!(
            !col.record_all(trace, SpanId::ROOT, 4, &batch),
            "not opened"
        );
        col.open_root(trace, 4);
        assert!(col.record_all(trace, SpanId::ROOT, 4, &batch));
        let spans = col.collect(trace);
        validate_spans(&spans).expect("batched spans keep the tree valid");
        let keys: Vec<u64> = spans.iter().skip(1).map(|s| s.key).collect();
        assert_eq!(keys, (0..8).collect::<Vec<_>>(), "recording order");
        // Each span starts where it says, not where the batch landed.
        let starts: Vec<u64> = spans.iter().skip(1).map(|s| s.start_ns).collect();
        assert!(starts.windows(2).all(|w| w[1] == w[0] + 1), "{starts:?}");
        // Fill up: the overflow is dropped, and the answer turns false.
        let many: Vec<MeasuredSpan> = (0..MAX_SPANS_PER_TRACE as u64).map(span).collect();
        assert!(!col.record_all(trace, SpanId::ROOT, 4, &many));
        assert_eq!(col.collect(trace).len(), MAX_SPANS_PER_TRACE);
        assert!(!col.record_all(trace, SpanId::ROOT, 4, &batch));
        assert_eq!(col.collect(trace).len(), MAX_SPANS_PER_TRACE);
    }

    #[test]
    fn eviction_keeps_trace_count_bounded() {
        let col = SpanCollector::new(true);
        for s in 0..(MAX_TRACES as u64 + 16) {
            col.open_root(TraceId::from_session(s), s);
        }
        assert_eq!(col.traces(), MAX_TRACES);
        // The oldest traces were evicted, the newest kept.
        assert!(col.collect(TraceId::from_session(0)).is_empty());
        assert_eq!(
            col.collect(TraceId::from_session(MAX_TRACES as u64)).len(),
            1
        );
    }

    #[test]
    fn validation_rejects_broken_trees() {
        let trace = TraceId::from_session(3);
        let span = |id: u64, parent: u64| SpanRecord {
            trace,
            id: SpanId(id),
            parent: SpanId(parent),
            stage: Stage::Dispatch,
            session: 3,
            start_ns: 0,
            duration_ns: 1,
            key: 0,
        };
        assert!(validate_spans(&[]).is_ok());
        assert!(validate_spans(&[span(1, 0), span(2, 1)]).is_ok());
        let err = validate_spans(&[span(1, 0), span(2, 5)]).unwrap_err();
        assert!(err.contains("unresolved parent"), "{err}");
        let err = validate_spans(&[span(2, 3), span(3, 2)]).unwrap_err();
        assert!(err.contains("ancestor"), "{err}");
        let err = validate_spans(&[span(1, 0), span(1, 0)]).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn chrome_export_is_valid_json() {
        let col = SpanCollector::new(true);
        let trace = TraceId::from_session(12);
        col.open_root(trace, 12);
        col.record(trace, SpanId::ROOT, Stage::Dispatch, 12, 2_500, 8);
        assert!(col.close_root(trace).is_some());
        let json = chrome_trace_json(&col.collect(trace));
        validate_json(&json).expect("exporter emits valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"dispatch\""));
        assert!(json.contains(&format!("\"trace\":\"{trace}\"")));
    }

    #[test]
    fn json_validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "\"unterminated",
            "1.2.3",
            "01 02",
            "{\"a\" 1}",
            "[1] []",
            "nul",
            "\"bad\\q\"",
        ] {
            assert!(validate_json(bad).is_err(), "accepted: {bad:?}");
        }
        for good in [
            "null",
            "true",
            "-1.5e-3",
            "[]",
            "{}",
            "{\"a\":[1,2,{\"b\":\"c\\n\\u0041\"}]}",
            "  [1, 2]  ",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
        }
    }
}
