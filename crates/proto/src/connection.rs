//! The connection state machine: how one connection's bytes become
//! engine calls and reply bytes.
//!
//! [`Connection`] is sans-IO. A driver moves bytes between its socket
//! and the connection's [`FrameBuf`] ([`Connection::buf_mut`]) and calls
//! [`Connection::advance`]; everything in between — the version
//! handshake, request dispatch, the `Wait` park, the `Subscribe`
//! stream (up to four batches pushed ahead of the peer's
//! acknowledgements), protocol-violation and version-mismatch closes —
//! happens here, once. The blocking pump
//! ([`SearchServer::serve_connection`](crate::SearchServer::serve_connection)),
//! the `exsample-serve` reactor and the socket-free conformance test all
//! drive this same type.
//!
//! What differs between deployments is the [`Host`]: who a `Hello`
//! token is, whether a `Submit` is admitted, and whether "not finished
//! yet" blocks the caller or parks the connection.

use crate::framebuf::FrameBuf;
use crate::wire::Message;
use crate::{MAX_POLL_WINDOW, PROTO_VERSION};
use exsample_engine::{
    Engine, ServiceError, SessionId, SessionReport, SessionSnapshot, SessionStatus, TenantBinding,
    TenantId,
};
use exsample_obs::{Stage, NO_SESSION};
use std::collections::VecDeque;
use std::io;
use std::time::Instant;

/// How many pushed batches a subscription may have unacknowledged. The
/// server pushes the next batch as soon as the host has one until this
/// many are out, so a stream costs the client one read and one write
/// per burst rather than per batch; at the bound, the client's
/// consumption rate is the flow control. A connection buffers at most
/// this many batches of at most `window` events.
const STREAM_AHEAD: usize = 4;

/// The tenant of a connection that never authenticated, and of every
/// connection of a deployment without an auth registry: id 0 at base
/// weight — still tagged, so quota accounting sees it.
pub const ANONYMOUS: TenantBinding = TenantBinding {
    tenant: TenantId(0),
    weight: 1,
};

/// The decisions a deployment makes for its connections — the only seam
/// between [`Connection`] and whoever drives it. Every refusal is the
/// [`ServiceError`] the client receives.
pub trait Host {
    /// Resolve a `Hello` token to a tenant. `bound` is the binding the
    /// connection held until now; re-authentication releases it whether
    /// or not the new token is accepted.
    fn hello(
        &mut self,
        token: &str,
        bound: Option<TenantBinding>,
    ) -> Result<TenantBinding, ServiceError>;

    /// May `tenant` (`None` = never authenticated) submit another
    /// session right now?
    fn admit_submit(
        &mut self,
        engine: &Engine,
        tenant: Option<TenantBinding>,
    ) -> Result<(), ServiceError>;

    /// The final report of `session`. `Ok(None)` = still running: the
    /// connection parks. Answering `None` obliges the host to have the
    /// driver call [`Connection::advance`] again once the session has
    /// finished — a readiness-driven host leaves one-shot interest with
    /// the engine ([`Engine::try_wait_watch`]) and resumes the connection
    /// when its completion queue names it; until then nobody asks again.
    /// A host that blocks instead never parks.
    fn wait(
        &mut self,
        engine: &Engine,
        session: SessionId,
    ) -> Result<Option<SessionReport>, ServiceError>;

    /// The next streamed batch of `session`: at most `window` events
    /// from `cursor`. `Ok(None)` = nothing to push yet (park), with the
    /// same obligation as [`Host::wait`], for "has events past `cursor`
    /// or has finished" ([`Engine::poll_watch`]).
    fn next_batch(
        &mut self,
        engine: &Engine,
        session: SessionId,
        cursor: u64,
        window: u32,
    ) -> Result<Option<SessionSnapshot>, ServiceError>;
}

/// A request that is not answered yet.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// `Wait`: answered once the session finishes.
    Wait { session: SessionId },
    /// `Subscribe`, not ended yet: the next batch starts at `cursor` and
    /// is pushed once the host has one and fewer than [`STREAM_AHEAD`]
    /// batches are unacknowledged.
    Stream {
        session: SessionId,
        cursor: u64,
        window: u32,
    },
}

/// One client connection, from our preamble to the close. See the
/// module docs.
#[derive(Debug)]
pub struct Connection {
    buf: FrameBuf,
    /// The peer's preamble has arrived and announced our version.
    handshaken: bool,
    tenant: Option<TenantBinding>,
    pending: Option<Pending>,
    /// The `next_cursor` of every pushed batch not yet acknowledged,
    /// oldest first: each `Ack` must carry the front one. Acks still owed
    /// when a stream ends (terminal batch or `Error`) are consumed before
    /// the next request is served.
    unacked: VecDeque<u64>,
    /// Flush what is queued, then close (shed, protocol violation or
    /// version mismatch). No further input is served.
    close_after_flush: bool,
    opened: Instant,
}

impl Default for Connection {
    fn default() -> Self {
        Connection::new()
    }
}

impl Connection {
    /// A fresh connection with our preamble queued — it goes out first
    /// in all cases, so even a peer about to be refused can parse the
    /// answer.
    pub fn new() -> Self {
        let mut buf = FrameBuf::new();
        buf.queue_preamble(PROTO_VERSION);
        Connection {
            buf,
            handshaken: false,
            tenant: None,
            pending: None,
            unacked: VecDeque::new(),
            close_after_flush: false,
            opened: Instant::now(),
        }
    }

    /// The connection's byte buffers.
    pub fn buf(&self) -> &FrameBuf {
        &self.buf
    }

    /// The connection's byte buffers: the driver fills the inbound side
    /// from its socket and flushes the outbound side to it.
    pub fn buf_mut(&mut self) -> &mut FrameBuf {
        &mut self.buf
    }

    /// The tenant this connection is bound to — what the driver must
    /// release with its host when the connection goes away.
    pub fn tenant(&self) -> Option<TenantBinding> {
        self.tenant
    }

    /// Still waiting for the peer's preamble (drivers with a handshake
    /// deadline drop such a connection when it expires).
    pub fn in_handshake(&self) -> bool {
        !self.handshaken
    }

    /// Parked = progress depends on the engine, not the peer: buffered
    /// frames stay undecoded (backpressure by not reading) until the
    /// host's completion arrives and the [`advance`](Self::advance) it
    /// triggers finds the answer. Advancing a parked connection earlier
    /// is harmless — it asks the host again — but is the per-turn
    /// polling the completion queue exists to avoid.
    pub fn is_parked(&self) -> bool {
        match self.pending {
            Some(Pending::Wait { .. }) => true,
            Some(Pending::Stream { .. }) => self.unacked.len() < STREAM_AHEAD,
            None => false,
        }
    }

    /// The conversation is over: close once the queued output is
    /// flushed, read nothing more.
    pub fn is_closing(&self) -> bool {
        self.close_after_flush
    }

    /// Answer with a typed error and hang up — how a driver sheds a
    /// connection it will not serve, and how a peer that breaks the
    /// conversation's rules is told so.
    pub fn refuse(&mut self, err: ServiceError) -> io::Result<()> {
        self.close_after_flush = true;
        self.buf.queue(&Message::Error(err))
    }

    /// Serve everything the buffered input allows: [`step`](Self::step)
    /// until it reports no progress. `Err` means the connection is
    /// unusable (bad magic, corrupt or undecodable frame, unframeable
    /// reply): drop it, after flushing the replies earlier frames earned.
    pub fn advance(&mut self, engine: &Engine, host: &mut impl Host) -> io::Result<()> {
        while self.step(engine, host)? {}
        Ok(())
    }

    /// Make one unit of progress — consume the peer's preamble, answer
    /// a parked request or push one stream batch, or decode and serve
    /// one frame — and report whether calling again can make more.
    /// `Ok(false)` = more bytes are needed, the connection is (still, or
    /// newly) parked, or it is closing. A pushed batch is progress even
    /// when the stream may push another: the caller can flush it before
    /// calling again.
    pub fn step(&mut self, engine: &Engine, host: &mut impl Host) -> io::Result<bool> {
        if self.close_after_flush {
            return Ok(false);
        }
        if !self.handshaken {
            let Some(version) = self.buf.take_preamble()? else {
                return Ok(false);
            };
            // On a mismatch the peer has our preamble and can report it
            // precisely; closing is the whole answer. No message is
            // ever parsed under version skew.
            self.handshaken = version == PROTO_VERSION;
            self.close_after_flush = !self.handshaken;
            if self.handshaken {
                let since_open = self.opened.elapsed().as_nanos() as u64;
                engine
                    .obs()
                    .record(Stage::Handshake, NO_SESSION, None, since_open, 0);
            }
            return Ok(true);
        }
        if self.is_parked() {
            return self.resume(engine, host);
        }
        let Some(msg) = self.buf.next_frame()? else {
            return Ok(false);
        };
        self.handle(msg, engine, host)
    }

    /// Serve one decoded frame; `Ok(false)` = it parked the connection.
    fn handle(&mut self, msg: Message, engine: &Engine, host: &mut impl Host) -> io::Result<bool> {
        if let Some(&oldest) = self.unacked.front() {
            let why = match msg {
                Message::Ack { cursor, ctx: _ } if cursor == oldest => {
                    self.unacked.pop_front();
                    return self
                        .resume(engine, host)
                        .map(|pushed| pushed || !self.is_parked());
                }
                Message::Ack { .. } => "Ack is not for the oldest unacknowledged batch",
                _ => "expected Ack during subscription",
            };
            return self
                .refuse(ServiceError::Malformed(why.into()))
                .map(|()| true);
        }
        let mut turn = engine.obs().span(Stage::Turn, NO_SESSION);
        let reply = match msg {
            Message::Repos => Message::RepoList(engine.repos()),
            Message::Hello { token } => match host.hello(&token, self.tenant.take()) {
                Ok(binding) => {
                    self.tenant = Some(binding);
                    Message::Welcome {
                        tenant: binding.tenant.0,
                        weight: binding.weight,
                    }
                }
                Err(err) => Message::Error(err),
            },
            Message::Submit { spec, ctx } => {
                let admit_start = Instant::now();
                let admitted = host.admit_submit(engine, self.tenant);
                let admit_ns = admit_start.elapsed().as_nanos() as u64;
                // The admission decision happens before the session
                // exists; it is filed under the session once the id is
                // known, so the trace tree shows the admission cost.
                // key=1 marks a refusal.
                let (reply, session, refused) = match admitted {
                    Err(err) => (Message::Error(err), NO_SESSION, 1),
                    Ok(()) => {
                        let mut span = engine.obs().span(Stage::Submit, NO_SESSION);
                        if let Some(ctx) = ctx {
                            span.set_trace_context(ctx);
                        }
                        let binding = self.tenant.unwrap_or(ANONYMOUS);
                        match engine.submit_tagged(spec, Some(binding)) {
                            Ok(id) => {
                                span.set_session(id.0);
                                turn.set_session(id.0);
                                (Message::Submitted(id), id.0, 0)
                            }
                            Err(err) => (Message::Error(err), NO_SESSION, 0),
                        }
                    }
                };
                engine
                    .obs()
                    .record(Stage::Admission, session, None, admit_ns, refused);
                reply
            }
            Message::Poll {
                session,
                cursor,
                window,
                ctx,
            } => {
                turn.set_session(session.0);
                let window = Some(window.unwrap_or(MAX_POLL_WINDOW).min(MAX_POLL_WINDOW));
                let mut span = engine.obs().span(Stage::Poll, session.0);
                if let Some(ctx) = ctx {
                    span.set_trace_context(ctx);
                }
                match engine.poll_window(session, cursor, window) {
                    Ok(snap) => {
                        span.set_key(snap.events.len() as u64);
                        Message::Snapshot(snap)
                    }
                    Err(err) => Message::Error(err),
                }
            }
            Message::Cancel { session } => {
                turn.set_session(session.0);
                engine
                    .cancel(session)
                    .map_or_else(Message::Error, |()| Message::CancelOk)
            }
            Message::Wait { session } => {
                turn.set_session(session.0);
                self.pending = Some(Pending::Wait { session });
                return self.resume(engine, host);
            }
            Message::Forget { session } => {
                turn.set_session(session.0);
                engine
                    .forget(session)
                    .map_or_else(Message::Error, Message::Report)
            }
            Message::Stats { detail } => Message::StatsReply {
                stats: engine.service_stats(),
                detail: detail.then(|| engine.obs().registry().histograms()),
            },
            Message::Diagnostics => Message::DiagnosticsReply(engine.diagnostics()),
            Message::Subscribe {
                session,
                cursor,
                window,
            } => {
                turn.set_session(session.0);
                self.pending = Some(Pending::Stream {
                    session,
                    cursor,
                    window: window.clamp(1, MAX_POLL_WINDOW),
                });
                return self.resume(engine, host);
            }
            Message::CollectTrace { trace } => Message::TraceReply(engine.collect_trace(trace)),
            // A response tag, or an Ack outside a subscription: the
            // peer is confused; tell it and hang up rather than guess
            // at its state.
            _ => {
                return self
                    .refuse(ServiceError::Malformed("expected a request".into()))
                    .map(|()| true)
            }
        };
        self.buf.queue(&reply)?;
        Ok(true)
    }

    /// Ask the host again for what a parked request is waiting on, and
    /// answer — or push one stream batch — if it has it. `Ok(true)` =
    /// something was queued; a no-op when nothing is pending.
    fn resume(&mut self, engine: &Engine, host: &mut impl Host) -> io::Result<bool> {
        let (reply, next) = match self.pending {
            Some(Pending::Wait { session }) => match host.wait(engine, session) {
                Ok(None) => return Ok(false),
                Ok(Some(report)) => (Message::Report(report), None),
                Err(err) => (Message::Error(err), None),
            },
            Some(Pending::Stream {
                session,
                cursor,
                window,
            }) => {
                // One span per pushed batch — the producing side of the
                // stream (host wait + batch assembly), never the
                // client's think time between acks, and never a parked
                // poll that found nothing.
                let start = Instant::now();
                match host.next_batch(engine, session, cursor, window) {
                    Ok(None) => return Ok(false),
                    Ok(Some(snap)) => {
                        engine.obs().record(
                            Stage::Stream,
                            session.0,
                            None,
                            start.elapsed().as_nanos() as u64,
                            snap.events.len() as u64,
                        );
                        // A short batch from a finished session means
                        // the log is drained: that batch is terminal, no
                        // ack expected. (A full terminal batch costs one
                        // extra empty batch to notice.)
                        let terminal = snap.status != SessionStatus::Running
                            && (snap.events.len() as u32) < window;
                        let next = if terminal {
                            None
                        } else {
                            self.unacked.push_back(snap.next_cursor);
                            Some(Pending::Stream {
                                session,
                                cursor: snap.next_cursor,
                                window,
                            })
                        };
                        (Message::Snapshot(snap), next)
                    }
                    Err(err) => (Message::Error(err), None),
                }
            }
            None => return Ok(false),
        };
        self.pending = next;
        self.buf.queue(&reply)?;
        Ok(true)
    }
}
