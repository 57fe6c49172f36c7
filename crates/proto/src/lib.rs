//! Remote access to the search engine: a versioned binary wire protocol.
//!
//! The engine crate defines the client-facing API as the
//! [`SearchService`](exsample_engine::SearchService) trait; this crate
//! puts that API on the wire so the engine can be deployed as a *query
//! service* — many remote clients, one shared engine — instead of a
//! library:
//!
//! * [`wire`] — the message vocabulary ([`Message`]) and its stable,
//!   little-endian binary codec. Floats travel as IEEE-754 bit patterns,
//!   so a report decoded remotely is **bit-identical** to the in-process
//!   one.
//! * [`framebuf`] — [`FrameBuf`], **the** frame codec: the connection
//!   preamble (magic + protocol version) and length-prefixed,
//!   CRC-32-checked frames (reusing `exsample-store`'s framing
//!   conventions), decoded incrementally from however the bytes arrive.
//!   Peers speaking a different version are rejected at the handshake,
//!   before any message could be misparsed.
//! * [`connection`] — [`Connection`], **the** server-side state
//!   machine, sans-IO: bytes in, decoded messages, engine calls, reply
//!   bytes queued — handshake, request dispatch, the `Wait` park and
//!   the `Subscribe` stream, pushed a few batches ahead of the client's
//!   acks. Deployments differ only in
//!   their [`Host`] (who a token is, what is admitted, whether "not
//!   yet" blocks or parks).
//! * [`transport`] — [`Framed`], the blocking adapter over `FrameBuf`
//!   for any `Read + Write` byte stream, plus an in-memory [`duplex`]
//!   pipe for dependency-free tests.
//! * [`client`] — [`RemoteClient`], the remote implementation of
//!   `SearchService`, plus [`RemoteClient::stream`] for push-style result
//!   streaming with client-acknowledged batches (cursor ack =
//!   backpressure).
//! * [`server`] — [`SearchServer`]: the blocking driver of `Connection`,
//!   one thread per connection over any `Read + Write`; blocking
//!   requests wait inside the engine (no busy-polling). The
//!   readiness-driven driver — sockets, listeners, tenants, admission —
//!   is the `exsample-serve` reactor.
//!
//! The protocol is transport-agnostic: anything `Read + Write` works.
//! The tests run it over in-memory pipes, Unix-domain sockets and
//! loopback TCP; see `examples/remote_search.rs` for the socket
//! deployment and `docs/PROTOCOL.md` for the byte-level layout.

#![warn(missing_docs)]

pub mod client;
pub mod connection;
pub mod framebuf;
pub mod server;
pub mod transport;
pub mod wire;

pub use client::RemoteClient;
pub use connection::{Connection, Host};
pub use framebuf::FrameBuf;
pub use server::SearchServer;
pub use transport::{duplex, DuplexStream, Framed};
pub use wire::{decode_message, encode_message, Message, WireCodecError, MAX_SNAPSHOT_LEN};

/// Magic bytes opening every connection ("eXSample Remote Protocol").
pub const PROTO_MAGIC: &[u8; 4] = b"XSRP";

/// The protocol version this build speaks. Bumped on any change to the
/// message vocabulary or encodings; the handshake rejects mismatched
/// peers cleanly instead of misparsing them. v2 added the
/// `Stats`/`StatsReply` exchange serving fleet-wide statistics
/// aggregation in the cluster layer. v3 added the §III-F batching
/// fields: `QuerySpec.batch` (optional per-query detector batch size)
/// and the `dispatch_s`/`dispatches` members of `SessionCharges`. v4
/// added the columnar-container members of `PersistStats`
/// (`container_frames`, `container_chunks`, `container_hits`,
/// `container_bytes_touched`, `container_skipped`, and a
/// `preload_skipped` that v8 removed again).
/// v5 added the observability surface: `Stats` gained a `detail` flag
/// (the reply then carries latency-histogram snapshots, capped at
/// [`MAX_SNAPSHOT_LEN`] each and refused — never truncated — beyond it)
/// and the `Diagnostics`/`DiagnosticsReply` exchange carrying every
/// histogram, counter, and recent flight-recorder event of a shard.
/// v6 added the serving surface for `exsample-serve`: the
/// `Hello`/`Welcome` tenant-authentication exchange and the
/// `Overloaded { retry_after_ms }` / `Unauthorized` error forms, so an
/// admission-controlled server can shed load with a typed, retryable
/// answer instead of stalling or disconnecting.
/// v7 added the distributed-tracing surface: `Submit`, `Poll`, and
/// `Ack` carry an optional `TraceContext` (trace id + causal parent
/// span) so servers parent their handling spans under the caller's,
/// and the `CollectTrace`/`TraceReply` exchange fetches one trace's
/// recorded span tree from a shard or, through the cluster router, the
/// whole fleet.
/// v8 removed `preloaded_frames` and `preload_skipped` from
/// `PersistStats` (14 members, not 16): the engine no longer replays the
/// log into the cache at startup, so there is nothing for them to count —
/// `container_hits` is the warm-start number.
/// v9 made `Error` carry the `SearchService` trait's own `ServiceError`,
/// so no layer translates it: the seven error forms v8 kept travel as
/// before, tag 6 (a snapshot over the cap, which no snapshot can be) is
/// retired, and `ShardDown`, `VersionMismatch` and `Transport` take
/// tags 9–11.
pub const PROTO_VERSION: u16 = 9;

/// Upper bound on one frame's payload, enforced on both send and
/// receive: a corrupt or hostile length prefix must not provoke an
/// unbounded allocation.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Cap on result events per poll answer or streamed batch (~1.8 MiB of
/// events), keeping every response comfortably under [`MAX_FRAME_LEN`]
/// no matter how large a session's event log has grown. Applied
/// symmetrically — the server clamps what it answers, the client clamps
/// what it requests — so the streaming terminal rule (`events < window`
/// after finish) agrees on both ends. The cursor contract makes the
/// clamp transparent to pollers: `next_cursor` advances only past what
/// was returned, so an unbounded poll simply takes more round trips.
pub const MAX_POLL_WINDOW: u32 = 65_536;
