//! The message vocabulary and its binary codec.
//!
//! Every value crossing the wire is encoded little-endian; floats travel
//! as IEEE-754 bit patterns (never decimal), so remote results are
//! bit-identical to in-process ones. Each message is one tag byte
//! followed by its body; see `docs/PROTOCOL.md` for the byte-level
//! layout. Decoding is total: any payload that does not parse exactly —
//! short, trailing bytes, unknown tag, bad UTF-8, absurd counts —
//! is a [`WireCodecError`], never a panic or an over-allocation.
//!
//! The codec is *declared*, not written: below the [`Message`]
//! vocabulary, every layout is one field list in wire order or one tag
//! table over [`exsample_store::le`], and each declaration yields both
//! the encoder and the decoder. Adding a field is adding its name to one
//! list (and bumping `PROTO_VERSION`).

use exsample_core::belief::{BeliefPrior, ChunkStats, Selector};
use exsample_core::driver::{SearchTrace, StopCond, TracePoint};
use exsample_core::within::WithinKind;
use exsample_core::ExSampleConfig;
use exsample_engine::{
    CacheStats, Diagnostics, DiscriminatorKind, PersistStats, QuerySpec, RepoId, RepoInfo,
    ResultEvent, ServiceError, ServiceStats, SessionCharges, SessionId, SessionReport,
    SessionSnapshot, SessionStatus,
};
use exsample_obs::{FlightEvent, HistSnapshot, SpanId, SpanRecord, Stage, TraceContext, TraceId};
use exsample_store::le::{self, Le, Reader};
use exsample_store::{le_enum, le_record};
use exsample_videosim::ClassId;
use std::borrow::Cow;

/// Upper bound on one encoded histogram snapshot crossing the wire.
/// Every snapshot encodes to `exsample_obs::hist::ENCODED_LEN` bytes, a
/// compile-time constant held under this bound below, so a server never
/// has one to refuse; the decoder still checks a peer's length prefix
/// against it before allocating, so a corrupt or hostile one is a
/// [`WireCodecError`], never a large allocation or a truncation.
pub(crate) const MAX_SNAPSHOT_LEN: u32 = 4096;

/// Decode failure: the payload does not parse as a protocol message.
/// With frame checksums verified by the transport this indicates a peer
/// bug or version skew, not line noise.
pub use exsample_store::le::Error as WireCodecError;

/// One protocol message, either direction. Requests are client → server;
/// responses are server → client; `Ack` flows client → server inside a
/// subscription.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    // ---- requests ----
    /// Fetch the repository catalog.
    Repos,
    /// Submit a query for execution.
    Submit {
        /// The query to run.
        spec: QuerySpec,
        /// Distributed-trace context (protocol v7). Clients send `None`
        /// — the trace id derives from the session id the server
        /// returns, unknowable before submit — but a routing layer that
        /// already knows the trace forwards it here so the shard's
        /// handling span lands in the right tree.
        ctx: Option<TraceContext>,
    },
    /// Cursor poll: events in `cursor..`, at most `window` of them
    /// (`None` = all available).
    Poll {
        /// Session to poll.
        session: SessionId,
        /// Event-log cursor (see the `SearchService` poll contract).
        cursor: u64,
        /// Maximum events to return.
        window: Option<u32>,
        /// Distributed-trace context (protocol v7): the session's trace
        /// and the caller's span, so the server parents its handling
        /// span causally under the client's.
        ctx: Option<TraceContext>,
    },
    /// Request cancellation (idempotent).
    Cancel {
        /// Session to cancel.
        session: SessionId,
    },
    /// Block until the session finishes; answered with [`Message::Report`].
    Wait {
        /// Session to wait for.
        session: SessionId,
    },
    /// Drop a finished session, answered with its final report.
    Forget {
        /// Session to forget.
        session: SessionId,
    },
    /// Enter streaming mode: the server pushes [`Message::Snapshot`]
    /// batches of at most `window` events each, a bounded number ahead
    /// of the [`Message::Ack`]s it has read (cursor acknowledgement =
    /// backpressure).
    Subscribe {
        /// Session to stream.
        session: SessionId,
        /// Starting event-log cursor.
        cursor: u64,
        /// Events per pushed batch (clamped to `1..=MAX_POLL_WINDOW`
        /// on both ends).
        window: u32,
    },
    /// Acknowledge the oldest unacknowledged streamed batch, opening
    /// the window for one more.
    Ack {
        /// The `next_cursor` of the batch being acknowledged.
        cursor: u64,
        /// Distributed-trace context (protocol v7); see [`Message::Poll`].
        ctx: Option<TraceContext>,
    },
    /// Fetch the service's operational counters (cache, durable store,
    /// resident sessions); answered with [`Message::StatsReply`]. This is
    /// what a cluster router scatter-gathers into fleet-wide statistics.
    Stats {
        /// With `detail` set the reply additionally carries the
        /// service's latency-histogram snapshots (protocol v5); without
        /// it the reply is the cheap counters-only form.
        detail: bool,
    },
    /// Fetch the service's observability snapshot — histograms,
    /// counters, flight-recorder events; answered with
    /// [`Message::DiagnosticsReply`]. This is what a cluster router
    /// merges into fleet-level distributions.
    Diagnostics,
    /// Authenticate the connection as a tenant (protocol v6). Answered
    /// with [`Message::Welcome`] on success or
    /// [`ServiceError::Unauthorized`] on a rejected token; either way the
    /// connection survives. Servers without an auth registry answer
    /// every token with the anonymous tenant.
    Hello {
        /// The tenant's bearer token.
        token: String,
    },
    /// Fetch every recorded span of one distributed trace (protocol
    /// v7); answered with [`Message::TraceReply`]. Unknown or evicted
    /// trace ids answer with an empty reply, never an error.
    CollectTrace {
        /// The trace to collect (derived from the session id via
        /// `TraceId::from_session`).
        trace: TraceId,
    },

    // ---- responses ----
    /// The repository catalog, in id order.
    RepoList(Vec<RepoInfo>),
    /// Submission accepted.
    Submitted(SessionId),
    /// Poll answer or streamed batch.
    Snapshot(SessionSnapshot),
    /// Final report ([`Message::Wait`] / [`Message::Forget`] answer).
    Report(SessionReport),
    /// Cancellation acknowledged.
    CancelOk,
    /// The service's operational counters ([`Message::Stats`] answer).
    StatsReply {
        /// The counters every reply carries.
        stats: ServiceStats,
        /// Latency-histogram snapshots by metric name — present exactly
        /// when the request asked for `detail`.
        detail: Option<Vec<(String, HistSnapshot)>>,
    },
    /// The service's observability snapshot ([`Message::Diagnostics`]
    /// answer).
    DiagnosticsReply(Diagnostics),
    /// The connection is authenticated ([`Message::Hello`] answer,
    /// protocol v6).
    Welcome {
        /// The tenant id the token resolved to.
        tenant: u32,
        /// The tenant's tier weight multiplier (≥ 1) applied to every
        /// spec this connection submits.
        weight: u32,
    },
    /// One trace's recorded spans ([`Message::CollectTrace`] answer,
    /// protocol v7), oldest first.
    TraceReply(Vec<SpanRecord>),
    /// The request failed, for exactly the reason the service gave.
    Error(ServiceError),
}

/// Format marker of the wire protocol (see [`exsample_store::le`]):
/// every `le_record!(Wire: …)` / `le_enum!(Wire: …)` below is that
/// type's layout in a message body, both directions.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wire;

/// Which way a message travels.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    /// Client → server (including `Ack` inside a subscription).
    Request,
    /// Server → client.
    Response,
}

/// Declares the message vocabulary's tag table once: the [`Le`] codec
/// of [`Message`] and the tests' `MESSAGE_TAGS` both come from it.
macro_rules! messages {
    ($($dir:ident {
        $($tag:literal => $name:ident $(($($t:ident),*))? $({$($f:ident),*})?,)*
    })*) => {
        le_enum!(Wire: Message, "unknown message tag" {
            $($($tag => $name $(($($t),*))? $({$($f),*})?,)*)*
        });

        /// `(tag, message name, direction)` of every message, in tag
        /// order — the table `docs/PROTOCOL.md` prints.
        #[cfg(test)]
        const MESSAGE_TAGS: &[(u8, &str, Direction)] =
            &[$($(($tag, stringify!($name), Direction::$dir),)*)*];
    };
}

// Requests live below 0x40, responses at or above it.
messages! {
    Request {
        0x01 => Repos,
        0x02 => Submit { spec, ctx },
        0x03 => Poll { session, cursor, window, ctx },
        0x04 => Cancel { session },
        0x05 => Wait { session },
        0x06 => Forget { session },
        0x07 => Subscribe { session, cursor, window },
        0x08 => Ack { cursor, ctx },
        0x09 => Stats { detail },
        0x0A => Diagnostics,
        0x0B => Hello { token },
        0x0C => CollectTrace { trace },
    }
    Response {
        0x41 => RepoList(repos),
        0x42 => Submitted(session),
        0x43 => Snapshot(snapshot),
        0x44 => Report(report),
        0x45 => CancelOk,
        0x46 => Error(error),
        0x47 => StatsReply { stats, detail },
        0x48 => DiagnosticsReply(diagnostics),
        0x49 => Welcome { tenant, weight },
        0x4A => TraceReply(spans),
    }
}

// Tag 6 (a snapshot over `MAX_SNAPSHOT_LEN`, v5–v8) is retired: no
// snapshot can be.
le_enum!(Wire: ServiceError, "bad error tag" {
    1 => UnknownRepo(repo),
    2 => UnknownSession(session),
    3 => SessionRunning(session),
    4 => InvalidSpec(why),
    5 => Malformed(why),
    7 => Overloaded { retry_after_ms },
    8 => Unauthorized(why),
    9 => ShardDown { shard, cause },
    10 => VersionMismatch { ours, theirs },
    11 => Transport(why),
});

// ---- component layouts, fields in wire order ----

le_record!(Wire: RepoId { 0 });
le_record!(Wire: ClassId { 0 });
le_record!(Wire: SessionId { 0 });
le_record!(Wire: TraceId { 0 });
le_record!(Wire: SpanId { 0 });

le_record!(Wire: QuerySpec {
    repo, class, stop, chunks, config, weight, seed, discriminator, warm_start, batch,
});
le_record!(Wire: StopCond { max_results, max_samples, max_seconds });
le_record!(Wire: ExSampleConfig { prior, selector, within });
le_record!(Wire: BeliefPrior { alpha0, beta0 });
le_enum!(Wire: Selector, "bad selector tag" { 0 => Thompson, 1 => BayesUcb, 2 => Greedy });
le_enum!(Wire: WithinKind, "bad within tag" { 0 => Stratified, 1 => Random });
le_enum!(Wire: DiscriminatorKind, "bad discriminator tag" { 0 => Oracle, 1 => Tracker { seed } });

le_record!(Wire: TraceContext { trace, parent });
le_record!(Wire: SpanRecord { trace, id, parent, stage, session, start_ns, duration_ns, key });
le_record!(Wire: FlightEvent { tick, session, stage, duration_ns, key });

le_enum!(Wire: SessionStatus, "bad status tag" { 0 => Running, 1 => Done, 2 => Cancelled });
le_record!(Wire: SessionCharges {
    detect_s, io_s, dispatch_s, frames, cache_hits, detector_invocations, dispatches,
});
le_record!(Wire: ResultEvent { frame, new_results, samples, seconds });
le_record!(Wire: SessionSnapshot { status, found, samples, charges, next_cursor, events });
le_record!(Wire: SessionReport { status, finish_order, charges, chunk_stats, trace });
le_record!(Wire: ChunkStats { n1, n });
le_record!(Wire: TracePoint { samples, found, seconds });

le_record!(Wire: ServiceStats { cache, persist, live_sessions });
le_record!(Wire: CacheStats { hits, misses, evictions, entries, warm_loads });
le_record!(Wire: PersistStats {
    segments_loaded, segments_skipped, records_loaded, damaged_tails, snapshots_loaded,
    snapshots_skipped, beliefs_resident, log_write_errors, snapshot_write_errors, container_frames,
    container_chunks, container_hits, container_bytes_touched, container_skipped,
});
le_record!(Wire: Diagnostics { histograms, counters, events });
le_record!(Wire: RepoInfo { id, frames, classes, dataset_fingerprint, name });

// ---- the three layouts a field list cannot state ----

/// The stage tag is `obs`'s own stable numbering.
impl Le<Wire> for Stage {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.as_u8());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, le::Error> {
        Stage::from_u8(r.u8()?).ok_or(le::Error("bad stage tag"))
    }
}

// Every snapshot a server sends fits what a peer accepts.
const _: () = assert!(exsample_obs::hist::ENCODED_LEN <= MAX_SNAPSHOT_LEN as usize);

/// A histogram snapshot travels as `len u32` + `obs`'s own encoding,
/// with `len` capped at [`MAX_SNAPSHOT_LEN`] before a byte is taken.
impl Le<Wire> for HistSnapshot {
    const MIN: usize = <u32 as Le<Wire>>::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        le::put_bytes(&self.encode(), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, le::Error> {
        let len = r.u32()?;
        if len > MAX_SNAPSHOT_LEN {
            return Err(le::Error("snapshot too large"));
        }
        HistSnapshot::decode(r.take(len as usize)?).map_err(|_| le::Error("bad histogram snapshot"))
    }
}

/// [`SearchTrace`] keeps its fields private: it is read through its
/// accessors and rebuilt through `from_parts`, laid out as this record.
struct TraceParts<'a> {
    samples: u64,
    found: u64,
    seconds: f64,
    exhausted: bool,
    points: Cow<'a, [TracePoint]>,
}
le_record!(Wire: TraceParts<'_> { samples, found, seconds, exhausted, points });

impl Le<Wire> for SearchTrace {
    const MIN: usize = <TraceParts<'_> as Le<Wire>>::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        TraceParts {
            samples: self.samples(),
            found: self.found(),
            seconds: self.seconds(),
            exhausted: self.exhausted(),
            points: Cow::Borrowed(self.points()),
        }
        .put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, le::Error> {
        let t = TraceParts::get(r)?;
        Ok(SearchTrace::from_parts(
            t.points.into_owned(),
            t.samples,
            t.found,
            t.seconds,
            t.exhausted,
        ))
    }
}

/// Encode one message (tag byte + body) into `out`. Framing (length
/// prefix, checksum) is the transport's job.
pub fn encode_message(msg: &Message, out: &mut Vec<u8>) {
    msg.put(out);
}

/// Decode one message payload (as produced by [`encode_message`]).
pub fn decode_message(payload: &[u8]) -> Result<Message, WireCodecError> {
    le::decode::<Wire, _>(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tag_of(name: &str) -> u8 {
        let (tag, ..) = MESSAGE_TAGS
            .iter()
            .find(|(_, n, _)| *n == name)
            .expect("a message of that name");
        *tag
    }

    /// The table is generated from the same declaration as the codec;
    /// this pins what no declaration can: that it is a valid tag space
    /// and that the spec document prints exactly it.
    #[test]
    fn message_tags_are_unique_split_by_direction_and_match_the_spec() {
        let mut seen = std::collections::BTreeSet::new();
        for &(tag, name, dir) in MESSAGE_TAGS {
            assert!(seen.insert(tag), "tag {tag:#04x} ({name}) assigned twice");
            assert_eq!(dir == Direction::Request, tag < 0x40, "{name} {tag:#04x}");
        }
        // Rows of the "Message vocabulary" table: | `0x01` | `Repos` | → | … |
        let doc = include_str!("../../../docs/PROTOCOL.md");
        let section = doc
            .split("## Message vocabulary")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("a Message vocabulary section");
        let documented: Vec<(u8, String, Direction)> = section
            .lines()
            .filter_map(|line| {
                let cells: Vec<&str> = line
                    .split('|')
                    .map(|c| c.trim().trim_matches('`'))
                    .collect();
                let tag = u8::from_str_radix(cells.get(1)?.strip_prefix("0x")?, 16).ok()?;
                let dir = match *cells.get(3)? {
                    "→" => Direction::Request,
                    "←" => Direction::Response,
                    other => panic!("direction {other:?} in row {line:?}"),
                };
                Some((tag, cells.get(2)?.to_string(), dir))
            })
            .collect();
        let declared: Vec<(u8, String, Direction)> = MESSAGE_TAGS
            .iter()
            .map(|&(tag, name, dir)| (tag, name.to_string(), dir))
            .collect();
        assert_eq!(documented, declared);
    }

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        encode_message(msg, &mut buf);
        decode_message(&buf).expect("roundtrip decode")
    }

    #[test]
    fn simple_messages_round_trip() {
        for msg in [
            Message::Repos,
            Message::Cancel {
                session: SessionId(7),
            },
            Message::Wait {
                session: SessionId(u64::MAX),
            },
            Message::Forget {
                session: SessionId(0),
            },
            Message::Ack {
                cursor: 99,
                ctx: None,
            },
            Message::Ack {
                cursor: 99,
                ctx: Some(TraceContext::for_session(7)),
            },
            Message::Submitted(SessionId(3)),
            Message::CancelOk,
            Message::Poll {
                session: SessionId(1),
                cursor: 5,
                window: None,
                ctx: None,
            },
            Message::Poll {
                session: SessionId(1),
                cursor: 5,
                window: Some(32),
                ctx: Some(TraceContext {
                    trace: TraceId(0xFEED),
                    parent: SpanId(12),
                }),
            },
            Message::CollectTrace {
                trace: TraceId::from_session(1),
            },
            Message::Subscribe {
                session: SessionId(2),
                cursor: 0,
                window: 16,
            },
            Message::Stats { detail: false },
            Message::Stats { detail: true },
            Message::Diagnostics,
            Message::Hello {
                token: String::new(),
            },
            Message::Hello {
                token: "tenant-α-token".into(),
            },
            Message::Welcome {
                tenant: u32::MAX,
                weight: 16,
            },
        ] {
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn stats_reply_round_trips_with_and_without_persistence() {
        let cache = CacheStats {
            hits: 10,
            misses: 7,
            evictions: 1,
            entries: 6,
            warm_loads: 3,
        };
        let memory_only = ServiceStats {
            cache,
            persist: None,
            live_sessions: 4,
        };
        let msg = Message::StatsReply {
            stats: memory_only,
            detail: None,
        };
        assert_eq!(roundtrip(&msg), msg);
        let durable = ServiceStats {
            cache,
            persist: Some(PersistStats {
                segments_loaded: 2,
                segments_skipped: 1,
                records_loaded: 500,
                damaged_tails: 1,
                snapshots_loaded: 3,
                snapshots_skipped: 0,
                beliefs_resident: 3,
                log_write_errors: 0,
                snapshot_write_errors: 1,
                container_frames: 450,
                container_chunks: 12,
                container_hits: 321,
                container_bytes_touched: 9_876,
                container_skipped: 1,
            }),
            live_sessions: u64::MAX,
        };
        let msg = Message::StatsReply {
            stats: durable,
            detail: Some(vec![
                ("dispatch_ns".into(), sample_snapshot()),
                ("empty_ns".into(), HistSnapshot::default()),
            ]),
        };
        assert_eq!(roundtrip(&msg), msg);
    }

    /// A snapshot with values in several buckets, including extremes.
    fn sample_snapshot() -> HistSnapshot {
        let hist = exsample_obs::LatencyHistogram::new();
        for v in [0u64, 1, 900, 1_000_000, u64::MAX] {
            hist.record(v);
        }
        hist.snapshot()
    }

    #[test]
    fn diagnostics_reply_round_trips() {
        let diag = Diagnostics {
            histograms: vec![
                ("dispatch_ns".into(), sample_snapshot()),
                ("lease_ns".into(), HistSnapshot::default()),
            ],
            counters: vec![("frames_total".into(), 12_345), ("zero".into(), 0)],
            events: vec![
                FlightEvent {
                    tick: 1,
                    session: u64::MAX,
                    stage: Stage::Compaction,
                    duration_ns: 88,
                    key: 4_096,
                },
                FlightEvent {
                    tick: 2,
                    session: 7,
                    stage: Stage::Dispatch,
                    duration_ns: 1_234,
                    key: 8,
                },
            ],
        };
        let msg = Message::DiagnosticsReply(diag);
        assert_eq!(roundtrip(&msg), msg);
        let empty = Message::DiagnosticsReply(Diagnostics::default());
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn oversized_snapshot_rejected_not_truncated() {
        // A StatsReply whose detail list claims a snapshot larger than
        // MAX_SNAPSHOT_LEN: the decoder must refuse it before reading
        // (or worse, truncating) the body.
        let mut buf = Vec::new();
        encode_message(
            &Message::StatsReply {
                stats: ServiceStats::default(),
                detail: Some(vec![("big".into(), HistSnapshot::default())]),
            },
            &mut buf,
        );
        // The snapshot length prefix sits right after the metric name
        // "big"; find and inflate it.
        let name_pos = buf
            .windows(3)
            .position(|w| w == b"big")
            .expect("metric name in payload");
        let len_pos = name_pos + 3;
        let mut inflated = Vec::new();
        Le::<Wire>::put(&(MAX_SNAPSHOT_LEN + 1), &mut inflated);
        buf[len_pos..len_pos + 4].copy_from_slice(&inflated);
        assert_eq!(
            decode_message(&buf),
            Err(WireCodecError("snapshot too large"))
        );
    }

    #[test]
    fn unknown_stage_byte_rejected() {
        let mut buf = Vec::new();
        encode_message(
            &Message::DiagnosticsReply(Diagnostics {
                histograms: vec![],
                counters: vec![],
                events: vec![FlightEvent {
                    tick: 1,
                    session: 0,
                    stage: Stage::Dispatch,
                    duration_ns: 1,
                    key: 1,
                }],
            }),
            &mut buf,
        );
        // The stage byte is 17 bytes into the event record (after tick
        // and session), which itself starts after tag + two empty lists
        // + event count.
        let stage_pos = buf.len() - <FlightEvent as Le<Wire>>::MIN + 16;
        buf[stage_pos] = 0xEE;
        assert_eq!(decode_message(&buf), Err(WireCodecError("bad stage tag")));
    }

    #[test]
    fn spec_with_every_knob_round_trips() {
        let mut spec = QuerySpec::new(
            RepoId(9),
            ClassId(3),
            StopCond::results(10).or_samples(5_000),
        )
        .chunks(48)
        .weight(4)
        .seed(0xDEAD_BEEF)
        .discriminator(DiscriminatorKind::Tracker { seed: 11 })
        .warm_start(false)
        .batch(64);
        spec.config.selector = Selector::BayesUcb;
        spec.config.within = WithinKind::Random;
        spec.config.prior = BeliefPrior {
            alpha0: 0.25,
            beta0: 2.5,
        };
        spec.stop.max_seconds = Some(0.1 + 0.2); // not decimal-representable
        for ctx in [None, Some(TraceContext::for_session(42))] {
            let msg = Message::Submit {
                spec: spec.clone(),
                ctx,
            };
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    #[test]
    fn trace_reply_round_trips() {
        let spans = vec![
            SpanRecord {
                trace: TraceId::from_session(5),
                id: SpanId::ROOT,
                parent: SpanId::NONE,
                stage: Stage::Session,
                session: 5,
                start_ns: 0,
                duration_ns: 1_000_000,
                key: 0,
            },
            SpanRecord {
                trace: TraceId::from_session(5),
                id: SpanId(2),
                parent: SpanId::ROOT,
                stage: Stage::Dispatch,
                session: 5,
                start_ns: 17,
                duration_ns: u64::MAX,
                key: 8,
            },
        ];
        let msg = Message::TraceReply(spans);
        assert_eq!(roundtrip(&msg), msg);
        let empty = Message::TraceReply(Vec::new());
        assert_eq!(roundtrip(&empty), empty);
    }

    #[test]
    fn trace_reply_with_bad_stage_byte_rejected() {
        let mut buf = Vec::new();
        encode_message(
            &Message::TraceReply(vec![SpanRecord {
                trace: TraceId(1),
                id: SpanId::ROOT,
                parent: SpanId::NONE,
                stage: Stage::Session,
                session: 1,
                start_ns: 0,
                duration_ns: 0,
                key: 0,
            }]),
            &mut buf,
        );
        // Stage byte sits after the three leading u64s of the record.
        let stage_pos = buf.len() - <SpanRecord as Le<Wire>>::MIN + 24;
        buf[stage_pos] = 0xEE;
        assert_eq!(decode_message(&buf), Err(WireCodecError("bad stage tag")));
    }

    #[test]
    fn error_messages_round_trip() {
        for err in [
            ServiceError::UnknownRepo(RepoId(4)),
            ServiceError::UnknownSession(SessionId(10)),
            ServiceError::SessionRunning(SessionId(2)),
            ServiceError::InvalidSpec("chunks must be positive".into()),
            ServiceError::Malformed("unexpected Ack".into()),
            ServiceError::Overloaded {
                retry_after_ms: u64::MAX,
            },
            ServiceError::Overloaded { retry_after_ms: 0 },
            ServiceError::Unauthorized("unknown token".into()),
            ServiceError::ShardDown {
                shard: "shard-b".into(),
                cause: "transport error: broken pipe".into(),
            },
            ServiceError::VersionMismatch {
                ours: 9,
                theirs: u16::MAX,
            },
            ServiceError::Transport(String::new()),
        ] {
            assert_eq!(roundtrip(&Message::Error(err.clone())), Message::Error(err));
        }
        // Tag 6 is retired, and the tag space ends at 11.
        for retired in [6, 12] {
            assert_eq!(
                decode_message(&[tag_of("Error"), retired]),
                Err(WireCodecError("bad error tag"))
            );
        }
    }

    #[test]
    fn truncation_always_rejected() {
        let mut spec = QuerySpec::new(RepoId(1), ClassId(0), StopCond::results(5));
        spec.stop.max_seconds = Some(1.5);
        let mut buf = Vec::new();
        encode_message(
            &Message::Submit {
                spec,
                ctx: Some(TraceContext::for_session(5)),
            },
            &mut buf,
        );
        for cut in 0..buf.len() {
            assert!(decode_message(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        encode_message(&Message::Repos, &mut buf);
        buf.push(0);
        assert_eq!(decode_message(&buf), Err(WireCodecError("trailing bytes")));
    }

    #[test]
    fn absurd_counts_rejected_before_allocation() {
        // A RepoList claiming u32::MAX entries in a 9-byte payload.
        let mut buf = vec![tag_of("RepoList")];
        Le::<Wire>::put(&u32::MAX, &mut buf);
        buf.extend_from_slice(&[0; 4]);
        assert_eq!(
            decode_message(&buf),
            Err(WireCodecError("element count exceeds payload"))
        );
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            decode_message(&[0x3F]),
            Err(WireCodecError("unknown message tag"))
        );
        assert!(decode_message(&[]).is_err());
    }

    #[test]
    fn bad_utf8_rejected() {
        // Error / InvalidSpec / a two-byte string that is not UTF-8.
        let mut buf = vec![tag_of("Error"), 4];
        Le::<Wire>::put(&2u32, &mut buf);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            decode_message(&buf),
            Err(WireCodecError("string not UTF-8"))
        );
    }
}
