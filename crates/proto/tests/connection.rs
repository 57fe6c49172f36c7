//! Conformance of the one server-side state machine, [`Connection`]:
//! the same scripted conversations are served
//!
//! * sans-IO — no sockets, no driver threads, a test-local [`Host`]
//!   that parks on the engine's completion queue — fed whole and split
//!   at every byte, and the reply bytes must not depend on the split;
//! * by the blocking pump (`SearchServer::serve_connection`) over a
//!   `duplex()` pipe;
//! * by the `exsample-serve` reactor over loopback TCP;
//!
//! and all three must answer alike. The drivers share the `Connection`
//! type and nothing else, so this is also the demonstration that the
//! `Host` trait is the only seam between them.
//!
//! Every run gets a fresh, identically configured engine with
//! observation off, so each reply — session ids, traces, modelled
//! charges, the (empty) histogram set — is a pure function of the
//! script.

use exsample_core::driver::StopCond;
use exsample_detect::NoiseModel;
use exsample_engine::{
    CompletionQueue, Engine, EngineConfig, QuerySpec, RepoId, ServiceError, SessionId,
    SessionReport, SessionSnapshot, SessionStatus, TenantBinding,
};
use exsample_obs::{TraceContext, TraceId};
use exsample_proto::connection::ANONYMOUS;
use exsample_proto::{duplex, Connection, FrameBuf, Host, Message, SearchServer, PROTO_VERSION};
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, GroundTruth, SkewSpec};
use std::io::{Read, Write};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// How long a parked driver waits for the completion it was promised
/// before the test fails instead of hanging.
const WATCHDOG: Duration = Duration::from_secs(30);

fn engine() -> Arc<Engine> {
    static TRUTH: OnceLock<Arc<GroundTruth>> = OnceLock::new();
    let truth = TRUTH.get_or_init(|| {
        let footage = DatasetSpec::single_class(
            50_000,
            ClassSpec::new("car", 60, 40.0, SkewSpec::CentralNormal { frac95: 0.2 }),
        );
        Arc::new(footage.generate(17))
    });
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        observe: false,
        ..EngineConfig::default()
    }));
    engine.register_repo("script-cam", truth.clone(), NoiseModel::none(), 5);
    engine
}

fn spec() -> QuerySpec {
    QuerySpec::new(RepoId(0), ClassId(0), StopCond::results(5))
        .chunks(8)
        .seed(9)
}

/// The wire bytes of a preamble announcing `version` followed by `msgs`.
fn wire(version: u16, msgs: &[Message]) -> Vec<u8> {
    let mut buf = FrameBuf::new();
    buf.queue_preamble(version);
    for m in msgs {
        buf.queue(m).expect("message fits a frame");
    }
    let mut bytes = Vec::new();
    buf.write_to(&mut bytes).expect("write to a Vec");
    bytes
}

/// The full conversation. It ends in a protocol violation (a response
/// tag sent as a request), so every driver closes the connection itself
/// and "read until EOF" collects the complete reply.
fn conversation() -> Vec<u8> {
    // What the script must know ahead of time — the id the session will
    // get and how many events it logs — from the same spec on the same
    // engine, in process.
    let reference = engine();
    let id = reference.submit(spec()).expect("valid spec");
    reference.wait(id).expect("session finishes");
    let events = reference.poll(id, 0).expect("known session").events.len() as u64;
    assert!(events >= 3, "the script needs a log worth paging");

    let ctx = Some(TraceContext::for_session(id.0));
    let mut msgs = vec![
        Message::Hello {
            token: "anyone".into(),
        },
        Message::Repos,
        Message::Submit {
            spec: spec(),
            ctx: None,
        },
        Message::Wait { session: id },
    ];
    // Poll cursor chain, two events a page, through the empty page that
    // ends it; then a cursor far past the end.
    msgs.extend((0..=events.div_ceil(2)).map(|page| Message::Poll {
        session: id,
        cursor: 2 * page,
        window: Some(2),
        ctx,
    }));
    msgs.push(Message::Poll {
        session: id,
        cursor: u64::MAX,
        window: None,
        ctx,
    });
    // Subscribe with window 1: one event a batch, each acknowledged.
    // The last event's batch is full, so the stream only ends with the
    // empty batch after its ack.
    msgs.push(Message::Subscribe {
        session: id,
        cursor: 0,
        window: 1,
    });
    msgs.extend((1..=events).map(|cursor| Message::Ack { cursor, ctx }));
    msgs.extend([
        Message::Stats { detail: false },
        Message::Stats { detail: true },
        Message::Diagnostics,
        Message::CollectTrace {
            trace: TraceId::from_session(id.0),
        },
        Message::Cancel { session: id },
        Message::Forget { session: id },
        Message::Forget { session: id },
        // A response tag where a request belongs.
        Message::CancelOk,
        // Never served: the connection is closing.
        Message::Repos,
    ]);
    wire(PROTO_VERSION, &msgs)
}

/// A non-`Ack` inside a stream window.
fn stream_violation() -> Vec<u8> {
    let id = SessionId(0);
    wire(
        PROTO_VERSION,
        &[
            Message::Submit {
                spec: spec(),
                ctx: None,
            },
            Message::Wait { session: id },
            Message::Subscribe {
                session: id,
                cursor: 0,
                window: 1,
            },
            Message::Repos,
        ],
    )
}

/// A valid request, then a frame with one payload bit flipped.
fn flipped_crc_bit() -> Vec<u8> {
    let mut bytes = wire(
        PROTO_VERSION,
        &[
            Message::Repos,
            Message::Wait {
                session: SessionId(5),
            },
        ],
    );
    *bytes.last_mut().expect("nonempty") ^= 0x04;
    bytes
}

/// A frame header announcing `u32::MAX` payload bytes.
fn absurd_length() -> Vec<u8> {
    let mut bytes = wire(PROTO_VERSION, &[]);
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes
}

/// The reactor's answers for a sans-IO driver: an open registry, and
/// "not finished yet" parks with one-shot interest left on the engine's
/// completion queue, under the token of the connection being served.
struct Parking {
    completions: Arc<CompletionQueue>,
    /// The queue's wake hook: one message per empty → non-empty.
    woken: Receiver<()>,
    serving: u64,
    /// How often the connection asked `wait` / `next_batch`.
    asks: usize,
}

impl Parking {
    fn new(engine: &Engine) -> Parking {
        let (wake, woken) = channel();
        Parking {
            completions: engine.completion_queue(move || {
                let _ = wake.send(());
            }),
            woken,
            serving: 0,
            asks: 0,
        }
    }

    /// Block until the engine has completions, and return their tokens.
    fn completed(&mut self) -> Vec<u64> {
        self.woken
            .recv_timeout(WATCHDOG)
            .expect("a parked request's completion arrives");
        let mut tokens = Vec::new();
        self.completions.drain(&mut tokens);
        tokens
    }
}

impl Host for Parking {
    fn hello(&mut self, _: &str, _: Option<TenantBinding>) -> Result<TenantBinding, ServiceError> {
        Ok(ANONYMOUS)
    }

    fn admit_submit(&mut self, _: &Engine, _: Option<TenantBinding>) -> Result<(), ServiceError> {
        Ok(())
    }

    fn wait(
        &mut self,
        engine: &Engine,
        session: SessionId,
    ) -> Result<Option<SessionReport>, ServiceError> {
        self.asks += 1;
        engine.try_wait_watch(session, &self.completions, self.serving)
    }

    fn next_batch(
        &mut self,
        engine: &Engine,
        session: SessionId,
        cursor: u64,
        window: u32,
    ) -> Result<Option<SessionSnapshot>, ServiceError> {
        self.asks += 1;
        engine.poll_watch(
            session,
            cursor,
            Some(window),
            &self.completions,
            self.serving,
        )
    }
}

/// Everything a driver sent back, and whether it dropped the connection
/// as unusable (as opposed to closing it in order).
#[derive(Debug, PartialEq)]
struct Served {
    bytes: Vec<u8>,
    dropped: bool,
}

/// Sans-IO: the script goes in as `script[..split]` then
/// `script[split..]`; a parked request is asked again exactly when the
/// engine's completion queue names the connection.
fn sans_io(script: &[u8], split: usize) -> Served {
    let engine = engine();
    let mut host = Parking::new(&engine);
    let mut conn = Connection::new();
    let mut bytes = Vec::new();
    let (head, tail) = script.split_at(split);
    for piece in [head, tail] {
        conn.buf_mut().extend(piece);
        loop {
            let advanced = conn.advance(&engine, &mut host);
            conn.buf_mut().write_to(&mut bytes).expect("write to a Vec");
            if advanced.is_err() {
                return Served {
                    bytes,
                    dropped: true,
                };
            }
            if !conn.is_parked() {
                break;
            }
            assert_eq!(host.completed(), [host.serving], "one park, one token");
        }
    }
    assert!(conn.is_closing(), "every script ends its connection");
    Served {
        bytes,
        dropped: false,
    }
}

/// The blocking pump over an in-memory pipe. The pipe is unbounded, so
/// the whole exchange runs on this thread: script in, pump to
/// completion, replies out.
fn pump(script: &[u8]) -> Served {
    let (mut client, server_io) = duplex();
    client.write_all(script).expect("pipe takes the script");
    let served = SearchServer::new(engine()).serve_connection(server_io);
    let mut bytes = Vec::new();
    client.read_to_end(&mut bytes).expect("replies, then EOF");
    Served {
        bytes,
        dropped: served.is_err(),
    }
}

/// The reactor over loopback TCP. (From outside, an orderly close and a
/// drop look the same: EOF.)
#[cfg(unix)]
fn reactor(script: &[u8]) -> Vec<u8> {
    use exsample_serve::{Reactor, ServeConfig};
    let mut reactor = Reactor::new(engine(), ServeConfig::default()).expect("poller");
    let addr = reactor.listen_tcp("127.0.0.1:0").expect("bind loopback");
    let _handle = reactor.spawn().expect("spawn reactor");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(script).expect("send the script");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("replies, then EOF");
    bytes
}

/// Decode a reply stream: the announced version, then the messages.
fn decode(bytes: &[u8]) -> (u16, Vec<Message>) {
    let mut buf = FrameBuf::new();
    buf.extend(bytes);
    let version = buf
        .take_preamble()
        .expect("our magic")
        .expect("a whole preamble");
    let mut msgs = Vec::new();
    while let Some(msg) = buf.next_frame().expect("well-formed replies") {
        msgs.push(msg);
    }
    assert_eq!(buf.pending_in(), 0, "no partial frame left behind");
    (version, msgs)
}

/// A reply stream as messages, minus the one thing a reactor
/// legitimately answers differently: it exports its own counters
/// through the engine's registry, so they show up in `Diagnostics`.
fn comparable(bytes: &[u8]) -> Vec<Message> {
    const REACTOR_COUNTERS: [&str; 2] = ["accepted_total", "connections_active"];
    let (version, mut msgs) = decode(bytes);
    assert_eq!(version, PROTO_VERSION);
    for msg in &mut msgs {
        if let Message::DiagnosticsReply(diag) = msg {
            diag.counters
                .retain(|(name, _)| !REACTOR_COUNTERS.contains(&name.as_str()));
        }
    }
    msgs
}

/// Serve `script` every way there is and return the (agreed) reply.
fn served_alike(script: &[u8]) -> Served {
    let whole = sans_io(script, script.len());
    for split in 0..script.len() {
        assert_eq!(
            sans_io(script, split),
            whole,
            "reply depends on a split at byte {split}"
        );
    }
    let pumped = pump(script);
    assert_eq!(pumped, whole, "blocking pump vs sans-IO");
    #[cfg(unix)]
    assert_eq!(
        comparable(&reactor(script)),
        comparable(&whole.bytes),
        "reactor vs sans-IO"
    );
    whole
}

#[test]
fn the_conversation_is_served_alike_by_every_driver_at_every_byte_split() {
    let served = served_alike(&conversation());
    assert!(!served.dropped, "a violation is answered, then closed");
    let (version, replies) = decode(&served.bytes);
    assert_eq!(version, PROTO_VERSION);

    // The replies are the conversation the script describes.
    let mut replies = replies.into_iter();
    let mut next = || replies.next().expect("a reply per request");
    assert_eq!(
        next(),
        Message::Welcome {
            tenant: 0,
            weight: 1
        }
    );
    assert!(matches!(next(), Message::RepoList(repos) if repos.len() == 1));
    let Message::Submitted(id) = next() else {
        panic!("submit is answered with the session id");
    };
    let Message::Report(report) = next() else {
        panic!("wait is answered with the report");
    };
    assert_ne!(report.status, SessionStatus::Running);

    // The poll chain pages through the whole log and ends on an empty
    // page; the far-past cursor is empty too, never an error.
    let mut paged = Vec::new();
    loop {
        let Message::Snapshot(snap) = next() else {
            panic!("poll is answered with a snapshot");
        };
        assert!(snap.events.len() <= 2, "window exceeded");
        if snap.events.is_empty() {
            assert_eq!(snap.next_cursor, paged.len() as u64);
            break;
        }
        paged.extend(snap.events);
    }
    assert!(matches!(next(), Message::Snapshot(snap) if snap.events.is_empty()));

    // The stream delivers the same log one event a batch; the batch
    // holding the last event is full, so the empty one after it is the
    // terminal batch.
    let mut streamed = Vec::new();
    loop {
        let Message::Snapshot(snap) = next() else {
            panic!("a subscription pushes snapshots");
        };
        assert_ne!(snap.status, SessionStatus::Running);
        if snap.events.is_empty() {
            break;
        }
        assert_eq!(snap.events.len(), 1);
        streamed.extend(snap.events);
    }
    assert_eq!(streamed, paged);
    assert_eq!(
        streamed.iter().map(|e| e.new_results as u64).sum::<u64>(),
        report.trace.found()
    );

    assert!(matches!(
        next(),
        Message::StatsReply { detail: None, stats } if stats.live_sessions == 1
    ));
    assert!(matches!(
        next(),
        Message::StatsReply { detail: Some(hists), .. } if !hists.is_empty()
    ));
    assert!(matches!(next(), Message::DiagnosticsReply(_)));
    assert!(matches!(next(), Message::TraceReply(_)));
    assert_eq!(next(), Message::CancelOk);
    assert!(matches!(next(), Message::Report(last) if last.trace == report.trace));
    assert_eq!(next(), Message::Error(ServiceError::UnknownSession(id)));
    assert_eq!(
        next(),
        Message::Error(ServiceError::Malformed("expected a request".into()))
    );
    assert_eq!(
        replies.next(),
        None,
        "nothing is served after the violation"
    );
}

#[test]
fn a_non_ack_inside_a_stream_window_is_a_violation() {
    let served = served_alike(&stream_violation());
    assert!(!served.dropped);
    let (_, replies) = decode(&served.bytes);
    assert!(matches!(
        replies.as_slice(),
        [
            Message::Submitted(_),
            Message::Report(_),
            Message::Snapshot(first),
            Message::Error(ServiceError::Malformed(why)),
        ] if first.events.len() == 1 && why == "expected Ack during subscription"
    ));
}

#[test]
fn version_skew_is_answered_with_our_preamble_and_a_close() {
    let served = served_alike(&wire(PROTO_VERSION - 1, &[]));
    assert_eq!(
        served,
        Served {
            bytes: wire(PROTO_VERSION, &[]),
            dropped: false
        }
    );
}

#[test]
fn undecodable_input_drops_the_connection_after_the_replies_it_earned() {
    // Not our magic: nothing but our own preamble ever goes out.
    let served = served_alike(b"HTTP/1.1 200 O");
    assert_eq!(
        served,
        Served {
            bytes: wire(PROTO_VERSION, &[]),
            dropped: true
        }
    );

    // A flipped payload bit: the request ahead of it is answered.
    let served = served_alike(&flipped_crc_bit());
    assert!(served.dropped);
    let (_, replies) = decode(&served.bytes);
    assert!(matches!(replies.as_slice(), [Message::RepoList(_)]));

    // A length no frame may have, refused on the header alone.
    let served = served_alike(&absurd_length());
    assert_eq!(
        served,
        Served {
            bytes: wire(PROTO_VERSION, &[]),
            dropped: true
        }
    );
}

/// The park contract, counted: N connections parked on one session — a
/// third behind `Wait`, the rest mid-`Subscribe` — are asked about it
/// once per park and once per completion, however long they stay parked
/// and however the driver turns; nothing is asked in between.
#[test]
fn parked_connections_ask_once_per_completion_not_once_per_turn() {
    const PARKED: u64 = 24;
    let engine = engine();
    // An unreachable target on a timeline that takes seconds to exhaust:
    // the session runs until it is cancelled, logging an event every now
    // and then.
    let marathon = DatasetSpec::single_class(
        4_000_000,
        ClassSpec::new("car", 60, 40.0, SkewSpec::CentralNormal { frac95: 0.2 }),
    );
    let repo = engine.register_repo(
        "marathon-cam",
        Arc::new(marathon.generate(23)),
        NoiseModel::none(),
        5,
    );
    let id = engine
        .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(u64::MAX)).seed(3))
        .expect("valid spec");
    let mut host = Parking::new(&engine);
    let mut conns: Vec<Connection> = (0..PARKED)
        .map(|key| {
            let mut conn = Connection::new();
            let request = if key % 3 == 0 {
                Message::Wait { session: id }
            } else {
                // From far past the log's end: only finalization is a
                // batch for this cursor, so the stream parks like a
                // `Wait` and every park is one ask.
                Message::Subscribe {
                    session: id,
                    cursor: u64::MAX,
                    window: 4,
                }
            };
            conn.buf_mut().extend(&wire(PROTO_VERSION, &[request]));
            host.serving = key;
            conn.advance(&engine, &mut host).expect("valid frames");
            assert!(conn.is_parked(), "the session is still running");
            conn
        })
        .collect();
    assert_eq!(host.asks as u64, PARKED, "one ask per park");

    // The session keeps progressing (events land in its log) and the
    // queue stays silent: none of it is progress these parks wait for.
    while engine.poll(id, 0).expect("known session").events.is_empty() {
        std::thread::yield_now();
    }
    let mut tokens = Vec::new();
    host.completions.drain(&mut tokens);
    assert_eq!(tokens, [0u64; 0], "nothing a parked request waits for");
    assert_eq!(host.asks as u64, PARKED, "an idle driver asks nothing");

    // Finalization completes every park, each exactly once.
    engine.cancel(id).expect("known session");
    while (tokens.len() as u64) < PARKED {
        tokens.extend(host.completed());
    }
    tokens.sort_unstable();
    assert_eq!(tokens, (0..PARKED).collect::<Vec<_>>());
    for key in tokens {
        host.serving = key;
        let conn = &mut conns[key as usize];
        conn.advance(&engine, &mut host).expect("valid frames");
        assert!(!conn.is_parked(), "the completion carried the answer");
        assert!(conn.buf().has_pending_out());
    }
    assert_eq!(host.asks as u64, 2 * PARKED, "one ask per completion");
}

/// A stream parked between batches is resumed by the events it waits
/// for — one completion per batch it can push, not one per driver turn.
#[test]
fn a_parked_stream_is_resumed_once_per_batch_of_progress() {
    let engine = engine();
    let id = engine.submit(spec()).expect("valid spec");
    let mut host = Parking::new(&engine);
    host.serving = 7;
    let mut conn = Connection::new();
    conn.buf_mut().extend(&wire(
        PROTO_VERSION,
        &[Message::Subscribe {
            session: id,
            cursor: 0,
            window: 1,
        }],
    ));
    let mut out = Vec::new();
    let (mut pushed, mut cursor) = (0usize, 0u64);
    loop {
        conn.advance(&engine, &mut host).expect("valid frames");
        conn.buf_mut().write_to(&mut out).expect("write to a Vec");
        if conn.is_parked() {
            assert_eq!(host.completed(), [7], "this connection's token");
            continue;
        }
        // A batch was pushed: ack it, or stop at the terminal one.
        pushed += 1;
        let (_, replies) = decode(&out);
        let Some(Message::Snapshot(snap)) = replies.last() else {
            panic!("a subscription pushes snapshots");
        };
        if snap.events.is_empty() {
            assert_ne!(snap.status, SessionStatus::Running);
            break;
        }
        cursor = snap.next_cursor;
        let ack = Message::Ack { cursor, ctx: None };
        let mut frame = FrameBuf::new();
        frame.queue(&ack).expect("ack fits a frame");
        let mut bytes = Vec::new();
        frame.write_to(&mut bytes).expect("write to a Vec");
        conn.buf_mut().extend(&bytes);
    }
    assert_eq!(
        pushed as u64,
        cursor + 1,
        "one batch an event, then the end"
    );
    // Every ask either pushed a batch or parked; every park was ended by
    // one completion. So asks ≤ 2 × batches — independent of how long
    // the session took or how often a driver might have turned.
    assert!(
        host.asks <= 2 * pushed,
        "{} asks for {pushed} batches",
        host.asks
    );
}
