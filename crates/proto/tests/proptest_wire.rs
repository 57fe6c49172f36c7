//! Property tests for the wire codec and framed transport: every message
//! kind round-trips bytewise (floats as raw bit patterns — NaNs,
//! infinities and -0.0 included), strict payload prefixes never decode,
//! and no single-byte flip in a framed message is ever served silently.

use exsample_core::belief::{BeliefPrior, ChunkStats, Selector};
use exsample_core::driver::{SearchTrace, StopCond, TracePoint};
use exsample_core::within::WithinKind;
use exsample_engine::{
    CacheStats, Diagnostics, DiscriminatorKind, PersistStats, QuerySpec, RepoId, RepoInfo,
    ResultEvent, ServiceError, ServiceStats, SessionCharges, SessionId, SessionReport,
    SessionSnapshot, SessionStatus,
};
use exsample_obs::{FlightEvent, HistSnapshot, SpanId, SpanRecord, Stage, TraceContext, TraceId};
use exsample_proto::wire::{decode_message, encode_message};
use exsample_proto::{Framed, Message};
use exsample_videosim::ClassId;
use proptest::prelude::*;

/// Deterministically expand random words into a query spec exercising
/// every field, including raw-bit floats in the stop condition.
fn make_spec(w: &[u64; 6]) -> QuerySpec {
    let mut spec = QuerySpec::new(
        RepoId(w[0] as u32),
        ClassId((w[0] >> 32) as u16),
        StopCond {
            max_results: (w[1] & 1 != 0).then_some(w[1] >> 1),
            max_samples: (w[1] & 2 != 0).then_some(w[1] >> 2),
            max_seconds: (w[1] & 4 != 0).then(|| f64::from_bits(w[2])),
        },
    )
    .chunks((w[3] as usize) % 10_000 + 1)
    .weight(w[3] as u32 | 1)
    .seed(w[4]);
    spec.config.selector = match w[3] % 3 {
        0 => Selector::Thompson,
        1 => Selector::BayesUcb,
        _ => Selector::Greedy,
    };
    spec.config.within = if w[3] & 8 != 0 {
        WithinKind::Stratified
    } else {
        WithinKind::Random
    };
    spec.config.prior = BeliefPrior {
        alpha0: f64::from_bits(w[5]),
        beta0: f64::from_bits(w[5].rotate_left(17)),
    };
    spec.discriminator = if w[4] & 1 == 0 {
        DiscriminatorKind::Oracle
    } else {
        DiscriminatorKind::Tracker { seed: w[4] >> 1 }
    };
    spec.warm_start = w[4] & 2 != 0;
    spec.batch = (w[4] & 4 != 0).then_some((w[5] as u32) | 1);
    spec
}

fn make_status(w: u64) -> SessionStatus {
    match w % 3 {
        0 => SessionStatus::Running,
        1 => SessionStatus::Done,
        _ => SessionStatus::Cancelled,
    }
}

fn make_charges(w: u64) -> SessionCharges {
    SessionCharges {
        detect_s: f64::from_bits(w),
        io_s: f64::from_bits(w.rotate_left(31)),
        dispatch_s: f64::from_bits(w.rotate_left(47)),
        frames: w.wrapping_mul(3),
        cache_hits: w >> 5,
        detector_invocations: w >> 7,
        dispatches: w >> 11,
    }
}

fn make_snapshot(w: u64, events: &[u64]) -> SessionSnapshot {
    SessionSnapshot {
        status: make_status(w),
        found: w >> 3,
        samples: w >> 1,
        charges: make_charges(w.rotate_left(9)),
        events: events
            .iter()
            .map(|&e| ResultEvent {
                frame: e,
                new_results: (e >> 32) as u32,
                samples: e.rotate_left(13),
                seconds: f64::from_bits(e.rotate_left(29)),
            })
            .collect(),
        next_cursor: w,
    }
}

fn make_report(w: u64, chunks: &[u64], points: &[u64]) -> SessionReport {
    SessionReport {
        status: make_status(w),
        trace: SearchTrace::from_parts(
            points
                .iter()
                .map(|&p| TracePoint {
                    samples: p,
                    found: p >> 7,
                    seconds: f64::from_bits(p.rotate_left(41)),
                })
                .collect(),
            w,
            w >> 2,
            f64::from_bits(w.rotate_left(3)),
            w & 4 != 0,
        ),
        charges: make_charges(w.rotate_left(23)),
        finish_order: w >> 9,
        chunk_stats: chunks
            .iter()
            .map(|&c| ChunkStats {
                n1: f64::from_bits(c),
                n: c.rotate_left(11),
            })
            .collect(),
    }
}

fn make_name(w: u64) -> String {
    match w % 4 {
        0 => String::new(),
        1 => format!("camera-{w:x}"),
        2 => format!("Überwachung {w} 🎥"),
        _ => "a".repeat((w % 200) as usize),
    }
}

/// An arbitrary histogram snapshot: every word seeds several bucket
/// counts (extremes included — `u64::MAX` lanes survive the codec).
fn make_hist(w: u64, aux: &[u64]) -> HistSnapshot {
    let mut snap = HistSnapshot {
        counts: [0; 64],
        sum: w,
    };
    for (i, &a) in aux.iter().enumerate() {
        snap.counts[(a as usize) % 64] = match i % 3 {
            0 => a,
            1 => u64::MAX,
            _ => a >> 32,
        };
    }
    snap
}

fn make_named_hists(w: u64, aux: &[u64]) -> Vec<(String, HistSnapshot)> {
    aux.iter()
        .map(|&a| (make_name(a), make_hist(w ^ a, aux)))
        .collect()
}

fn make_flight_events(aux: &[u64]) -> Vec<FlightEvent> {
    aux.iter()
        .map(|&a| FlightEvent {
            tick: a,
            session: a.rotate_left(13),
            stage: Stage::from_u8((a % 10) as u8).expect("stage tag in range"),
            duration_ns: a.rotate_left(29),
            key: a.rotate_left(47),
        })
        .collect()
}

/// An arbitrary optional trace context: absent, fresh-for-session, or
/// with an arbitrary parent span.
fn make_ctx(w: u64) -> Option<TraceContext> {
    match w % 3 {
        0 => None,
        1 => Some(TraceContext::for_session(w >> 2)),
        _ => Some(TraceContext {
            trace: TraceId(w.rotate_left(21)),
            parent: SpanId(w.rotate_left(43)),
        }),
    }
}

/// Arbitrary span records (every stage tag, extreme ids and times).
fn make_spans(w: u64, aux: &[u64]) -> Vec<SpanRecord> {
    aux.iter()
        .map(|&a| SpanRecord {
            trace: TraceId(w ^ a),
            id: SpanId(a),
            parent: SpanId(a.rotate_left(7)),
            stage: Stage::from_u8((a % 15) as u8).expect("stage tag in range"),
            session: a.rotate_left(13),
            start_ns: a.rotate_left(29),
            duration_ns: a.rotate_left(37),
            key: a.rotate_left(47),
        })
        .collect()
}

/// One message of every kind, selected by `kind`, parameterized by `w`.
fn make_message(kind: u8, w: &[u64; 6], aux: &[u64]) -> Message {
    match kind {
        0 => Message::Repos,
        1 => Message::Submit {
            spec: make_spec(w),
            ctx: make_ctx(w[5]),
        },
        2 => Message::Poll {
            session: SessionId(w[0]),
            cursor: w[1],
            window: (w[2] & 1 != 0).then_some((w[2] >> 1) as u32),
            ctx: make_ctx(w[3]),
        },
        3 => Message::Cancel {
            session: SessionId(w[0]),
        },
        4 => Message::Wait {
            session: SessionId(w[0]),
        },
        5 => Message::Forget {
            session: SessionId(w[0]),
        },
        6 => Message::Subscribe {
            session: SessionId(w[0]),
            cursor: w[1],
            window: w[2] as u32,
        },
        7 => Message::Ack {
            cursor: w[0],
            ctx: make_ctx(w[1]),
        },
        8 => Message::RepoList(
            aux.iter()
                .map(|&a| RepoInfo {
                    id: RepoId(a as u32),
                    name: make_name(a),
                    frames: a.rotate_left(7),
                    classes: (a >> 48) as u16,
                    dataset_fingerprint: a.rotate_left(33),
                })
                .collect(),
        ),
        9 => Message::Submitted(SessionId(w[0])),
        10 => Message::Snapshot(make_snapshot(w[0], aux)),
        11 => Message::Report(make_report(w[0], aux, &w[1..])),
        12 => Message::CancelOk,
        14 => Message::Stats {
            detail: w[0] & 1 != 0,
        },
        15 => Message::StatsReply {
            stats: make_service_stats(w),
            detail: (w[5] & 2 != 0).then(|| make_named_hists(w[0], aux)),
        },
        16 => Message::Diagnostics,
        17 => Message::DiagnosticsReply(Diagnostics {
            histograms: make_named_hists(w[0], aux),
            counters: aux.iter().map(|&a| (make_name(a), a)).collect(),
            events: make_flight_events(aux),
        }),
        18 => Message::Hello {
            token: make_name(w[0]),
        },
        19 => Message::Welcome {
            tenant: w[0] as u32,
            weight: (w[0] >> 32) as u32,
        },
        20 => Message::CollectTrace {
            trace: TraceId(w[0]),
        },
        21 => Message::TraceReply(make_spans(w[0], aux)),
        _ => Message::Error(match w[0] % 10 {
            0 => ServiceError::UnknownRepo(RepoId(w[1] as u32)),
            1 => ServiceError::UnknownSession(SessionId(w[1])),
            2 => ServiceError::SessionRunning(SessionId(w[1])),
            3 => ServiceError::InvalidSpec(make_name(w[1])),
            4 => ServiceError::Malformed(make_name(w[1])),
            5 => ServiceError::Overloaded {
                retry_after_ms: w[1],
            },
            6 => ServiceError::Unauthorized(make_name(w[1])),
            7 => ServiceError::ShardDown {
                shard: make_name(w[1]),
                cause: make_name(w[2]),
            },
            8 => ServiceError::VersionMismatch {
                ours: w[1] as u16,
                theirs: (w[1] >> 16) as u16,
            },
            _ => ServiceError::Transport(make_name(w[1])),
        }),
    }
}

fn make_service_stats(w: &[u64; 6]) -> ServiceStats {
    ServiceStats {
        cache: CacheStats {
            hits: w[0],
            misses: w[1],
            evictions: w[2],
            entries: w[3],
            warm_loads: w[4],
        },
        persist: (w[5] & 1 != 0).then(|| PersistStats {
            segments_loaded: w[0].rotate_left(11),
            segments_skipped: w[1].rotate_left(13),
            records_loaded: w[2].rotate_left(17),
            damaged_tails: w[3].rotate_left(19),
            snapshots_loaded: w[5].rotate_left(29),
            snapshots_skipped: w[0].rotate_left(31),
            beliefs_resident: w[1].rotate_left(37),
            log_write_errors: w[2].rotate_left(41),
            snapshot_write_errors: w[3].rotate_left(43),
            container_frames: w[4].rotate_left(47),
            container_chunks: w[5].rotate_left(53),
            container_hits: w[0].rotate_left(59),
            container_bytes_touched: w[1].rotate_left(61),
            container_skipped: w[2].rotate_left(3),
        }),
        live_sessions: w[5],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Codec identity for every message kind: decode(encode(m)) re-encodes
    /// to the *same bytes*. Byte comparison (not PartialEq) makes the
    /// property hold for NaN payloads too — floats must survive as raw
    /// bit patterns.
    #[test]
    fn every_message_kind_round_trips_bytewise(
        kind in 0u8..22,
        w in prop::array::uniform6(any::<u64>()),
        aux in prop::collection::vec(any::<u64>(), 0..24),
    ) {
        let msg = make_message(kind, &w, &aux);
        let mut bytes = Vec::new();
        encode_message(&msg, &mut bytes);
        let decoded = decode_message(&bytes).expect("own encoding decodes");
        let mut again = Vec::new();
        encode_message(&decoded, &mut again);
        prop_assert_eq!(&again, &bytes);
    }

    /// Messages without raw-bit floats also satisfy structural equality.
    #[test]
    fn structural_equality_round_trip(
        kind in prop::sample::select(vec![0u8, 2, 3, 4, 5, 6, 7, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21]),
        w in prop::array::uniform6(any::<u64>()),
    ) {
        let msg = make_message(kind, &w, &[]);
        let mut bytes = Vec::new();
        encode_message(&msg, &mut bytes);
        prop_assert_eq!(decode_message(&bytes).expect("decodes"), msg);
    }

    /// No strict prefix of a valid payload ever decodes: the codec's
    /// exact-consumption rule turns truncation into an error, never a
    /// silently shorter message.
    #[test]
    fn truncated_payloads_never_decode(
        kind in 0u8..22,
        w in prop::array::uniform6(any::<u64>()),
        aux in prop::collection::vec(any::<u64>(), 1..12),
        cut in any::<prop::sample::Index>(),
    ) {
        let msg = make_message(kind, &w, &aux);
        let mut bytes = Vec::new();
        encode_message(&msg, &mut bytes);
        let cut = cut.index(bytes.len()); // strictly shorter
        prop_assert!(decode_message(&bytes[..cut]).is_err(), "cut at {cut}");
    }

    /// A single byte flip anywhere in a framed message — length prefix,
    /// checksum, or payload — is always detected by the transport.
    #[test]
    fn framed_bit_flips_always_detected(
        kind in 0u8..22,
        w in prop::array::uniform6(any::<u64>()),
        aux in prop::collection::vec(any::<u64>(), 0..8),
        victim in any::<prop::sample::Index>(),
        flip in 1u32..256,
    ) {
        let msg = make_message(kind, &w, &aux);
        // Frame it exactly as Framed::send does.
        let mut payload = Vec::new();
        encode_message(&msg, &mut payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&exsample_store::crc::crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let idx = victim.index(frame.len());
        frame[idx] ^= flip as u8;
        // A flipped length prefix may claim more bytes than exist (EOF)
        // or fewer (checksum fails over the shorter read); a payload or
        // checksum flip fails the CRC. Nothing decodes silently — unless
        // the decoded frame is byte-identical in meaning, which a single
        // bit flip cannot be.
        let mut framed = Framed::new(std::io::Cursor::new(frame));
        match framed.recv() {
            Err(_) => {}
            Ok(got) => {
                // The only escape is a length flip that still frames a
                // checksum-valid message — impossible with one flip,
                // because the CRC covers the payload and the length
                // decides what the payload *is*.
                prop_assert!(false, "flip at {idx} decoded as {got:?}");
            }
        }
    }
}
