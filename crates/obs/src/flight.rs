//! The flight recorder: a fixed-size ring of recent structured events.
//!
//! Every instrumented operation can leave one [`FlightEvent`] behind —
//! a monotonic tick, the owning session, the pipeline [`Stage`], the
//! measured duration, and a stage-specific key (e.g. frames in a
//! dispatched batch). The ring keeps the most recent `capacity` events;
//! [`FlightRecorder::dump`] returns them in order for diagnostics
//! replies, and [`FlightRecorder::render`] formats them for the
//! worker-panic dump.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sentinel session id for events not owned by any session (startup
/// compaction, server accept loops, ...).
pub const NO_SESSION: u64 = u64::MAX;

/// Which instrumented operation an event or span measures. The
/// discriminant is the stable wire tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// One detector batch dispatch (decode + detect + publish).
    Dispatch = 0,
    /// Assembling one batch: cache partition, warm fills, dispatch,
    /// pending waits.
    BatchAssembly = 1,
    /// Waiting on another session's in-flight computation of a frame.
    CacheWait = 2,
    /// One scheduler lease: session checkout through release.
    Lease = 3,
    /// One write-behind batch: a quantum's paid fills appended to the
    /// durable log (key = records appended).
    WriteBehind = 4,
    /// One durable belief-snapshot write at session finish.
    BeliefSnapshot = 5,
    /// Log-to-columnar compaction at engine start.
    Compaction = 6,
    /// Server-side handling of one submit request.
    Submit = 7,
    /// Server-side handling of one poll request.
    Poll = 8,
    /// Server-side handling of one streaming subscription.
    Stream = 9,
    /// Reactor accept burst: draining a ready listener (key = number
    /// of connections accepted).
    Accept = 10,
    /// One connection's wire handshake, from accept to preamble
    /// verified.
    Handshake = 11,
    /// One reactor turn for a connection: decode, handle, and encode
    /// every frame ready on it.
    Turn = 12,
    /// The admission-control decision ahead of one submit (key = 1 when
    /// the submit was shed).
    Admission = 13,
    /// A whole session, submit through finalization — the root span of
    /// every trace (see [`crate::trace`]).
    Session = 14,
}

/// Stable lowercase names, indexed by wire tag, matching the metric
/// catalog.
const NAMES: [&str; Stage::ALL.len()] = [
    "dispatch",
    "batch_assembly",
    "cache_wait",
    "lease",
    "write_behind",
    "belief_snapshot",
    "compaction",
    "submit",
    "poll",
    "stream",
    "accept",
    "handshake",
    "turn",
    "admission",
    "session",
];

impl Stage {
    /// Every stage, in wire-tag order.
    pub const ALL: [Stage; 15] = [
        Stage::Dispatch,
        Stage::BatchAssembly,
        Stage::CacheWait,
        Stage::Lease,
        Stage::WriteBehind,
        Stage::BeliefSnapshot,
        Stage::Compaction,
        Stage::Submit,
        Stage::Poll,
        Stage::Stream,
        Stage::Accept,
        Stage::Handshake,
        Stage::Turn,
        Stage::Admission,
        Stage::Session,
    ];

    /// Stable lowercase name, matching the metric catalog.
    pub fn as_str(&self) -> &'static str {
        NAMES.get(self.as_u8() as usize).copied().unwrap_or("")
    }

    /// Stable wire tag.
    pub fn as_u8(&self) -> u8 {
        *self as u8
    }

    /// Decode a wire tag.
    pub fn from_u8(tag: u8) -> Option<Stage> {
        Stage::ALL.get(tag as usize).copied()
    }

    /// Whether an occurrence leaves a [`FlightEvent`] in the ring. Two
    /// stages do not: a batch assembly fires once per frame at batch
    /// size 1 and would churn the ring, and a session is a trace's root,
    /// whose lifetime only its histogram keeps.
    pub fn in_ring(&self) -> bool {
        !matches!(self, Stage::BatchAssembly | Stage::Session)
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotonic per-recorder sequence number, starting at 1.
    pub tick: u64,
    /// Owning session's raw id, or [`NO_SESSION`].
    pub session: u64,
    /// What was measured.
    pub stage: Stage,
    /// Measured wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Stage-specific payload: frames in a dispatched batch, the frame
    /// index waited on, bytes written, ... (see `docs/OBSERVABILITY.md`).
    pub key: u64,
}

/// A slot in the ring. Tick 0 marks a never-written slot.
const EMPTY: FlightEvent = FlightEvent {
    tick: 0,
    session: NO_SESSION,
    stage: Stage::Dispatch,
    duration_ns: 0,
    key: 0,
};

/// Fixed-capacity ring buffer of the most recent [`FlightEvent`]s.
///
/// Recording claims a slot with one atomic fetch-add and writes it
/// under that slot's own mutex — writers only contend when the ring
/// wraps onto a slot another writer still holds, which at sane
/// capacities is never.
#[derive(Debug)]
pub struct FlightRecorder {
    head: AtomicU64,
    slots: Box<[Mutex<FlightEvent>]>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events.
    ///
    /// # Panics
    ///
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "flight recorder capacity must be positive");
        FlightRecorder {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Mutex::new(EMPTY)).collect(),
        }
    }

    /// Slots in the ring.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded over the recorder's lifetime (not just those
    /// still resident).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Record one event, evicting the oldest if the ring is full.
    pub fn record(&self, session: u64, stage: Stage, duration_ns: u64, key: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        // lint: allow(panic_audit, slot is modulo the ring length so the index is always in bounds)
        *self.slots[slot].lock().expect("flight slot poisoned") = FlightEvent {
            tick: seq + 1,
            session,
            stage,
            duration_ns,
            key,
        };
    }

    /// The resident events, oldest first.
    pub fn dump(&self) -> Vec<FlightEvent> {
        let mut events: Vec<FlightEvent> = self
            .slots
            .iter()
            .map(|s| *s.lock().expect("flight slot poisoned"))
            .filter(|e| e.tick != 0)
            .collect();
        events.sort_by_key(|e| e.tick);
        events
    }

    /// Human-readable dump, one event per line — used for the
    /// worker-panic dump. Clients read the same events as
    /// `Diagnostics::events`, held on every deployment shape by
    /// `tests/conformance.rs`.
    pub fn render(&self) -> String {
        let events = self.dump();
        let mut out = format!(
            "flight recorder: {} resident of {} recorded (capacity {})\n",
            events.len(),
            self.recorded(),
            self.capacity()
        );
        for e in events {
            let session = if e.session == NO_SESSION {
                "-".to_owned()
            } else {
                e.session.to_string()
            };
            out.push_str(&format!(
                "  #{:<6} session={:<4} stage={:<15} duration_ns={:<12} key={}\n",
                e.tick,
                session,
                e.stage.as_str(),
                e.duration_ns,
                e.key
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_tags_roundtrip() {
        // Every stage's wire tag, name and ring membership, pinned: the
        // tags are on the wire (v8 golden vectors), the names in the
        // metric catalog and the Chrome export.
        let pinned = [
            (Stage::Dispatch, 0, "dispatch", true),
            (Stage::BatchAssembly, 1, "batch_assembly", false),
            (Stage::CacheWait, 2, "cache_wait", true),
            (Stage::Lease, 3, "lease", true),
            (Stage::WriteBehind, 4, "write_behind", true),
            (Stage::BeliefSnapshot, 5, "belief_snapshot", true),
            (Stage::Compaction, 6, "compaction", true),
            (Stage::Submit, 7, "submit", true),
            (Stage::Poll, 8, "poll", true),
            (Stage::Stream, 9, "stream", true),
            (Stage::Accept, 10, "accept", true),
            (Stage::Handshake, 11, "handshake", true),
            (Stage::Turn, 12, "turn", true),
            (Stage::Admission, 13, "admission", true),
            (Stage::Session, 14, "session", false),
        ];
        assert_eq!(pinned.len(), Stage::ALL.len());
        for ((stage, tag, name, in_ring), listed) in pinned.into_iter().zip(Stage::ALL) {
            assert_eq!(stage, listed, "Stage::ALL is in wire-tag order");
            assert_eq!(stage.as_u8(), tag);
            assert_eq!(Stage::from_u8(tag), Some(stage));
            assert_eq!(stage.as_str(), name);
            assert_eq!(stage.to_string(), name);
            assert_eq!(stage.in_ring(), in_ring, "{name}");
        }
        assert_eq!(Stage::from_u8(15), None);
        assert_eq!(Stage::from_u8(u8::MAX), None);
    }

    #[test]
    fn ring_keeps_most_recent() {
        let fr = FlightRecorder::new(4);
        for i in 0..10u64 {
            fr.record(i, Stage::Dispatch, i * 100, i);
        }
        let events = fr.dump();
        assert_eq!(events.len(), 4);
        assert_eq!(
            events.iter().map(|e| e.tick).collect::<Vec<_>>(),
            [7, 8, 9, 10]
        );
        assert_eq!(fr.recorded(), 10);
    }

    #[test]
    fn partial_ring_dumps_in_order() {
        let fr = FlightRecorder::new(8);
        fr.record(1, Stage::Lease, 5, 0);
        fr.record(NO_SESSION, Stage::Compaction, 9, 0);
        let events = fr.dump();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].stage, Stage::Lease);
        assert_eq!(events[1].session, NO_SESSION);
        let text = fr.render();
        assert!(text.contains("stage=compaction"));
        assert!(text.contains("session=-"));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        FlightRecorder::new(0);
    }
}
