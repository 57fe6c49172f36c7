//! Golden vectors for the wire protocol: the bytes every `Message` and
//! `ServiceError` variant has on the wire, checked in as hex.
//!
//! Round-trip tests cannot see a codec that swaps two fields in both
//! directions at once; these can. For every vector: `encode == golden`,
//! `decode(golden) == value`, every strict prefix is rejected, and one
//! trailing byte is rejected. The second half pins *validation*: each
//! vector carries the set of byte offsets a decoder must refuse when
//! that byte is overwritten with `0xEE` — every message/error/enum/stage
//! tag, bool, option tag, count and length byte, and every string byte
//! that stops being UTF-8 — and a `u32::MAX` written over any four
//! bytes must end in a typed error or a value, never a panic or an
//! allocation sized by the hostile count.
//!
//! The hex and the offset sets were generated with the hand-written v7
//! encoder/decoder (the commit before the field-list codec) and must
//! not change without a protocol version bump. v8 changed exactly one
//! vector, `stats_reply_durable_detail`: the v7 bytes with the two
//! removed `PersistStats` fields (8 bytes each) cut out, its reject
//! offsets behind them moved down by 16. v9 retired error tag 6 and its
//! vector, and added the vectors of error tags 9–11, recorded from the
//! field-list encoder; every other vector kept its bytes and its
//! reject set.

use exsample_core::belief::{BeliefPrior, ChunkStats, Selector};
use exsample_core::driver::{SearchTrace, StopCond, TracePoint};
use exsample_core::within::WithinKind;
use exsample_engine::{
    CacheStats, Diagnostics, DiscriminatorKind, PersistStats, QuerySpec, RepoId, RepoInfo,
    ResultEvent, ServiceError, ServiceStats, SessionCharges, SessionId, SessionReport,
    SessionSnapshot, SessionStatus,
};
use exsample_obs::{
    FlightEvent, HistSnapshot, LatencyHistogram, SpanId, SpanRecord, Stage, TraceContext, TraceId,
};
use exsample_proto::wire::{decode_message, encode_message};
use exsample_proto::Message;
use exsample_videosim::ClassId;

/// A NaN with a payload: survives only if floats travel as raw bits.
fn nan() -> f64 {
    f64::from_bits(0x7FF8_0000_0000_1234)
}

fn ctx() -> Option<TraceContext> {
    Some(TraceContext {
        trace: TraceId(0xFEED_FACE_CAFE_BEEF),
        parent: SpanId(12),
    })
}

fn spec_defaults() -> QuerySpec {
    QuerySpec::new(
        RepoId(1),
        ClassId(2),
        StopCond {
            max_results: None,
            max_samples: None,
            max_seconds: None,
        },
    )
}

fn spec_every_knob() -> QuerySpec {
    let mut spec = QuerySpec::new(
        RepoId(u32::MAX),
        ClassId(0xBEEF),
        StopCond {
            max_results: Some(10),
            max_samples: Some(u64::MAX),
            max_seconds: Some(nan()),
        },
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
        beta0: -0.0,
    };
    spec
}

fn spec_greedy() -> QuerySpec {
    let mut spec = spec_defaults();
    spec.config.selector = Selector::Greedy;
    spec
}

fn charges() -> SessionCharges {
    SessionCharges {
        detect_s: 0.1 + 0.2,
        io_s: -0.0,
        dispatch_s: nan(),
        frames: 1_000,
        cache_hits: 400,
        detector_invocations: 600,
        dispatches: u64::MAX,
    }
}

/// Values in several buckets, extremes included.
fn hist() -> HistSnapshot {
    let h = LatencyHistogram::new();
    for v in [0u64, 1, 900, 1_000_000, u64::MAX] {
        h.record(v);
    }
    h.snapshot()
}

fn persist_stats() -> PersistStats {
    PersistStats {
        segments_loaded: 1,
        segments_skipped: 2,
        records_loaded: 3,
        damaged_tails: 4,
        snapshots_loaded: 6,
        snapshots_skipped: 7,
        beliefs_resident: 8,
        log_write_errors: 9,
        snapshot_write_errors: 10,
        container_frames: 11,
        container_chunks: 12,
        container_hits: 13,
        container_bytes_touched: 14,
        container_skipped: 15,
    }
}

fn cache_stats() -> CacheStats {
    CacheStats {
        hits: 10,
        misses: 7,
        evictions: 1,
        entries: 6,
        warm_loads: 3,
    }
}

fn error_vectors() -> Vec<(&'static str, Message)> {
    let e = |name, err| (name, Message::Error(err));
    vec![
        e("error_unknown_repo", ServiceError::UnknownRepo(RepoId(4))),
        e(
            "error_unknown_session",
            ServiceError::UnknownSession(SessionId(u64::MAX)),
        ),
        e(
            "error_session_running",
            ServiceError::SessionRunning(SessionId(2)),
        ),
        e(
            "error_invalid_spec",
            ServiceError::InvalidSpec("chunks must be positive".into()),
        ),
        e(
            "error_malformed",
            ServiceError::Malformed("unerwartetes Ack ✗".into()),
        ),
        e(
            "error_overloaded",
            ServiceError::Overloaded {
                retry_after_ms: 250,
            },
        ),
        e(
            "error_unauthorized",
            ServiceError::Unauthorized(String::new()),
        ),
        e(
            "error_shard_down",
            ServiceError::ShardDown {
                shard: "flaky".into(),
                cause: "transport error: link severed".into(),
            },
        ),
        e(
            "error_version_mismatch",
            ServiceError::VersionMismatch {
                ours: 9,
                theirs: u16::MAX,
            },
        ),
        e(
            "error_transport",
            ServiceError::Transport("unexpected response to Poll".into()),
        ),
    ]
}

fn request_vectors() -> Vec<(&'static str, Message)> {
    let session = SessionId(0x0102_0304_0506_0708);
    vec![
        ("repos", Message::Repos),
        (
            "submit_defaults",
            Message::Submit {
                spec: spec_defaults(),
                ctx: None,
            },
        ),
        (
            "submit_every_knob",
            Message::Submit {
                spec: spec_every_knob(),
                ctx: ctx(),
            },
        ),
        (
            "submit_greedy",
            Message::Submit {
                spec: spec_greedy(),
                ctx: None,
            },
        ),
        (
            "poll_bare",
            Message::Poll {
                session,
                cursor: 5,
                window: None,
                ctx: None,
            },
        ),
        (
            "poll_windowed_traced",
            Message::Poll {
                session,
                cursor: u64::MAX,
                window: Some(32),
                ctx: ctx(),
            },
        ),
        ("cancel", Message::Cancel { session }),
        ("wait", Message::Wait { session }),
        ("forget", Message::Forget { session }),
        (
            "subscribe",
            Message::Subscribe {
                session,
                cursor: 3,
                window: 16,
            },
        ),
        (
            "ack_bare",
            Message::Ack {
                cursor: 99,
                ctx: None,
            },
        ),
        (
            "ack_traced",
            Message::Ack {
                cursor: 99,
                ctx: ctx(),
            },
        ),
        ("stats_counters", Message::Stats { detail: false }),
        ("stats_detail", Message::Stats { detail: true }),
        ("diagnostics", Message::Diagnostics),
        (
            "hello",
            Message::Hello {
                token: "tenant-α-token".into(),
            },
        ),
        (
            "collect_trace",
            Message::CollectTrace {
                trace: TraceId(0xFEED_FACE_CAFE_BEEF),
            },
        ),
    ]
}

fn response_vectors() -> Vec<(&'static str, Message)> {
    let events = vec![
        ResultEvent {
            frame: 77,
            new_results: 2,
            samples: 40,
            seconds: 1.5,
        },
        ResultEvent {
            frame: u64::MAX,
            new_results: u32::MAX,
            samples: 41,
            seconds: nan(),
        },
    ];
    vec![
        (
            "repo_list",
            Message::RepoList(vec![
                RepoInfo {
                    id: RepoId(0),
                    frames: 4_000_000,
                    classes: 3,
                    dataset_fingerprint: 0x1122_3344_5566_7788,
                    name: "Überwachungskamera-3 🎥".into(),
                },
                RepoInfo {
                    id: RepoId(7),
                    frames: 0,
                    classes: u16::MAX,
                    dataset_fingerprint: 0,
                    name: String::new(),
                },
            ]),
        ),
        ("repo_list_empty", Message::RepoList(Vec::new())),
        ("submitted", Message::Submitted(SessionId(3))),
        (
            "snapshot_running",
            Message::Snapshot(SessionSnapshot {
                status: SessionStatus::Running,
                found: 2,
                samples: 41,
                charges: charges(),
                next_cursor: 2,
                events,
            }),
        ),
        (
            "snapshot_cancelled",
            Message::Snapshot(SessionSnapshot {
                status: SessionStatus::Cancelled,
                found: 0,
                samples: 0,
                charges: SessionCharges::default(),
                next_cursor: 0,
                events: Vec::new(),
            }),
        ),
        (
            "report_done",
            Message::Report(SessionReport {
                status: SessionStatus::Done,
                trace: SearchTrace::from_parts(
                    vec![
                        TracePoint {
                            samples: 1,
                            found: 1,
                            seconds: 0.05,
                        },
                        TracePoint {
                            samples: 9,
                            found: 2,
                            seconds: -0.0,
                        },
                    ],
                    10,
                    2,
                    0.5,
                    true,
                ),
                charges: charges(),
                finish_order: 6,
                chunk_stats: vec![
                    ChunkStats { n1: 0.0, n: 0 },
                    ChunkStats {
                        n1: 0.1 + 0.2,
                        n: u64::MAX,
                    },
                    ChunkStats { n1: -0.0, n: 17 },
                ],
            }),
        ),
        ("cancel_ok", Message::CancelOk),
        (
            "stats_reply_memory_only",
            Message::StatsReply {
                stats: ServiceStats {
                    cache: cache_stats(),
                    persist: None,
                    live_sessions: 4,
                },
                detail: None,
            },
        ),
        (
            "stats_reply_durable_detail",
            Message::StatsReply {
                stats: ServiceStats {
                    cache: cache_stats(),
                    persist: Some(persist_stats()),
                    live_sessions: u64::MAX,
                },
                detail: Some(vec![("dispatch_ns".into(), hist())]),
            },
        ),
        (
            "diagnostics_reply",
            Message::DiagnosticsReply(Diagnostics {
                histograms: vec![("lease_ns".into(), HistSnapshot::default())],
                counters: vec![("frames_total".into(), 12_345), ("zéro".into(), 0)],
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
                        stage: Stage::Turn,
                        duration_ns: 1_234,
                        key: 8,
                    },
                ],
            }),
        ),
        (
            "welcome",
            Message::Welcome {
                tenant: u32::MAX,
                weight: 16,
            },
        ),
        (
            "trace_reply",
            Message::TraceReply(vec![
                SpanRecord {
                    trace: TraceId(5),
                    id: SpanId::ROOT,
                    parent: SpanId::NONE,
                    stage: Stage::Session,
                    session: 5,
                    start_ns: 0,
                    duration_ns: 1_000_000,
                    key: 0,
                },
                SpanRecord {
                    trace: TraceId(5),
                    id: SpanId(2),
                    parent: SpanId::ROOT,
                    stage: Stage::Dispatch,
                    session: 5,
                    start_ns: 17,
                    duration_ns: u64::MAX,
                    key: 8,
                },
            ]),
        ),
    ]
}

fn vectors() -> Vec<(&'static str, Message)> {
    let mut all = request_vectors();
    all.extend(response_vectors());
    all.extend(error_vectors());
    all
}

/// `(name, wire bytes as hex, offsets where an 0xEE byte must be refused)`.
const GOLDEN: &[(&str, &str, &str)] = &[
    ("repos", "01", "0"),
    (
        "submit_defaults",
        "0201000000020000000010000000000000009a9999999999b93f000000000000f03f000001000000\
         000000000000000000010000",
        "0,7-9,34-35,48-51",
    ),
    (
        "submit_every_knob",
        "02ffffffffefbe010a0000000000000001ffffffffffffffff01341200000000f87f300000000000\
         0000000000000000d03f0000000000000080010104000000efbeadde00000000010b000000000000\
         0000014000000001efbefecacefaedfe0c00000000000000",
        "0,7,16,25,58-59,72,81-82,87",
    ),
    (
        "submit_greedy",
        "0201000000020000000010000000000000009a9999999999b93f000000000000f03f020001000000\
         000000000000000000010000",
        "0,7-9,34-35,48-51",
    ),
    (
        "poll_bare",
        "03080706050403020105000000000000000000",
        "0,17-18",
    ),
    (
        "poll_windowed_traced",
        "030807060504030201ffffffffffffffff012000000001efbefecacefaedfe0c00000000000000",
        "0,17,22",
    ),
    ("cancel", "040807060504030201", "0"),
    ("wait", "050807060504030201", "0"),
    ("forget", "060807060504030201", "0"),
    (
        "subscribe",
        "070807060504030201030000000000000010000000",
        "0",
    ),
    ("ack_bare", "08630000000000000000", "0,9"),
    (
        "ack_traced",
        "08630000000000000001efbefecacefaedfe0c00000000000000",
        "0,9",
    ),
    ("stats_counters", "0900", "0-1"),
    ("stats_detail", "0901", "0-1"),
    ("diagnostics", "0a", "0"),
    ("hello", "0b0f00000074656e616e742dceb12d746f6b656e", "0-19"),
    ("collect_trace", "0cefbefecacefaedfe", "0"),
    (
        "repo_list",
        "41020000000000000000093d0000000000030088776655443322111a000000c39c62657277616368\
         756e67736b616d6572612d3320f09f8ea5070000000000000000000000ffff000000000000000000\
         000000",
        "0-4,27-56,79-82",
    ),
    ("repo_list_empty", "4100000000", "0-4"),
    ("submitted", "420300000000000000", "0"),
    (
        "snapshot_running",
        "430002000000000000002900000000000000343333333333d33f0000000000000080341200000000\
         f87fe80300000000000090010000000000005802000000000000ffffffffffffffff020000000000\
         0000020000004d00000000000000020000002800000000000000000000000000f83fffffffffffff\
         ffffffffffff2900000000000000341200000000f87f",
        "0-1,82-85",
    ),
    (
        "snapshot_cancelled",
        "43020000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000",
        "0-1,82-85",
    ),
    (
        "report_done",
        "44010600000000000000343333333333d33f0000000000000080341200000000f87fe80300000000\
         000090010000000000005802000000000000ffffffffffffffff0300000000000000000000000000\
         000000000000343333333333d33fffffffffffffffff000000000000008011000000000000000a00\
         0000000000000200000000000000000000000000e03f010200000001000000000000000100000000\
         0000009a9999999999a93f090000000000000002000000000000000000000000000080",
        "0-1,66-69,142-146",
    ),
    ("cancel_ok", "45", "0"),
    (
        "stats_reply_memory_only",
        "470a0000000000000007000000000000000100000000000000060000000000000003000000000000\
         0000040000000000000000",
        "0,41,50",
    ),
    (
        "stats_reply_durable_detail",
        "470a0000000000000007000000000000000100000000000000060000000000000003000000000000\
         00010100000000000000020000000000000003000000000000000400000000000000060000000000\
         00000700000000000000080000000000000009000000000000000a000000000000000b0000000000\
         00000c000000000000000d000000000000000e000000000000000f00000000000000ffffffffffff\
         ffff01010000000b00000064697370617463685f6e730902000001c4450f00000000000100000000\
         00000001000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000100000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000100000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         000000000000000000000000000000000000000100000000000000",
        "0,41,162-186",
    ),
    (
        "diagnostics_reply",
        "4801000000080000006c656173655f6e730902000001000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000000000000000000000000000000000000000\
         00000000000000000000000000000000000000000000020000000c0000006672616d65735f746f74\
         616c3930000000000000050000007ac3a9726f0000000000000000020000000100000000000000ff\
         ffffffffffffff065800000000000000001000000000000002000000000000000700000000000000\
         0cd2040000000000000800000000000000",
        "0-21,542-561,570-578,587-590,607,640",
    ),
    ("welcome", "49ffffffff10000000", "0"),
    (
        "trace_reply",
        "4a020000000500000000000000010000000000000000000000000000000e05000000000000000000\
         00000000000040420f00000000000000000000000000050000000000000002000000000000000100\
         0000000000000005000000000000001100000000000000ffffffffffffffff0800000000000000",
        "0-4,29,86",
    ),
    ("error_unknown_repo", "460104000000", "0-1"),
    ("error_unknown_session", "4602ffffffffffffffff", "0-1"),
    ("error_session_running", "46030200000000000000", "0-1"),
    (
        "error_invalid_spec",
        "4604170000006368756e6b73206d75737420626520706f736974697665",
        "0-28",
    ),
    (
        "error_malformed",
        "460514000000756e657277617274657465732041636b20e29c97",
        "0-22,24-25",
    ),
    ("error_overloaded", "4607fa00000000000000", "0-1"),
    ("error_unauthorized", "460800000000", "0-5"),
    (
        "error_shard_down",
        "460905000000666c616b791d0000007472616e73706f7274206572726f723a206c696e6b2073657665\
         726564",
        "0-43",
    ),
    ("error_version_mismatch", "460a0900ffff", "0-1"),
    (
        "error_transport",
        "460b1b000000756e657870656374656420726573706f6e736520746f20506f6c6c",
        "0-32",
    ),
];

fn unhex(hex: &str) -> Vec<u8> {
    assert_eq!(hex.len() % 2, 0, "odd hex length");
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::new();
    encode_message(msg, &mut out);
    out
}

/// `"0,7-9"` → `[0, 7, 8, 9]`.
fn offsets(spec: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (a, b) = part.split_once('-').unwrap_or((part, part));
        out.extend(a.parse::<usize>().expect("offset")..=b.parse().expect("offset"));
    }
    out
}

/// Every vector with its golden bytes and reject set; the value list
/// and the table must name the same vectors in the same order.
fn golden() -> Vec<(&'static str, Message, Vec<u8>, Vec<usize>)> {
    let values = vectors();
    assert_eq!(values.len(), GOLDEN.len(), "a vector without golden bytes");
    values
        .into_iter()
        .zip(GOLDEN)
        .map(|((name, msg), (golden_name, hex, rejects))| {
            assert_eq!(name, *golden_name);
            (name, msg, unhex(hex), offsets(rejects))
        })
        .collect()
}

#[test]
fn every_variant_has_a_vector() {
    // One exhaustive match per enum: a new variant fails to compile
    // here until it is given a vector below.
    fn message_kind(msg: &Message) -> &'static str {
        match msg {
            Message::Repos => "Repos",
            Message::Submit { .. } => "Submit",
            Message::Poll { .. } => "Poll",
            Message::Cancel { .. } => "Cancel",
            Message::Wait { .. } => "Wait",
            Message::Forget { .. } => "Forget",
            Message::Subscribe { .. } => "Subscribe",
            Message::Ack { .. } => "Ack",
            Message::Stats { .. } => "Stats",
            Message::Diagnostics => "Diagnostics",
            Message::Hello { .. } => "Hello",
            Message::CollectTrace { .. } => "CollectTrace",
            Message::RepoList(_) => "RepoList",
            Message::Submitted(_) => "Submitted",
            Message::Snapshot(_) => "Snapshot",
            Message::Report(_) => "Report",
            Message::CancelOk => "CancelOk",
            Message::StatsReply { .. } => "StatsReply",
            Message::DiagnosticsReply(_) => "DiagnosticsReply",
            Message::Welcome { .. } => "Welcome",
            Message::TraceReply(_) => "TraceReply",
            Message::Error(err) => match err {
                ServiceError::UnknownRepo(_) => "Error/UnknownRepo",
                ServiceError::UnknownSession(_) => "Error/UnknownSession",
                ServiceError::SessionRunning(_) => "Error/SessionRunning",
                ServiceError::InvalidSpec(_) => "Error/InvalidSpec",
                ServiceError::Malformed(_) => "Error/Malformed",
                ServiceError::Overloaded { .. } => "Error/Overloaded",
                ServiceError::Unauthorized(_) => "Error/Unauthorized",
                ServiceError::ShardDown { .. } => "Error/ShardDown",
                ServiceError::VersionMismatch { .. } => "Error/VersionMismatch",
                ServiceError::Transport(_) => "Error/Transport",
            },
        }
    }
    let kinds: std::collections::BTreeSet<_> =
        vectors().iter().map(|(_, msg)| message_kind(msg)).collect();
    assert_eq!(kinds.len(), 21 + 10, "{kinds:?}");
}

#[test]
fn bytes_match_the_golden_vectors_both_ways() {
    for (name, msg, bytes, _) in golden() {
        assert_eq!(encode(&msg), bytes, "{name}: encoding moved");
        let decoded = decode_message(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Debug compares NaNs as equal; the re-encoding compares their bits.
        assert_eq!(format!("{decoded:?}"), format!("{msg:?}"), "{name}");
        assert_eq!(encode(&decoded), bytes, "{name}: re-encoding moved");
    }
}

#[test]
fn strict_prefixes_and_trailing_bytes_are_refused() {
    for (name, _, bytes, _) in golden() {
        for cut in 0..bytes.len() {
            assert!(
                decode_message(&bytes[..cut]).is_err(),
                "{name} cut at {cut}"
            );
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(decode_message(&longer).is_err(), "{name} + trailing byte");
    }
}

#[test]
fn corrupted_structure_bytes_are_typed_errors() {
    for (name, _, bytes, rejects) in golden() {
        let refused: Vec<usize> = (0..bytes.len())
            .filter(|&at| {
                let mut hostile = bytes.clone();
                hostile[at] = if bytes[at] == 0xEE { 0xEF } else { 0xEE };
                decode_message(&hostile).is_err()
            })
            .collect();
        assert_eq!(refused, rejects, "{name}: validated bytes moved");
        // A hostile count or length anywhere: an answer, not a panic and
        // not an allocation of what the count claims.
        for at in 0..bytes.len().saturating_sub(3) {
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let _ = decode_message(&hostile);
        }
    }
}
