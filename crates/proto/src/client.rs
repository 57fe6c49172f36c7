//! The remote implementation of the search service API.

use crate::transport::Framed;
use crate::wire::Message;
use crate::{MAX_POLL_WINDOW, PROTO_VERSION};
use exsample_engine::{
    Diagnostics, QuerySpec, RepoInfo, SearchService, ServiceError, ServiceStats, SessionId,
    SessionReport, SessionSnapshot, SessionStatus,
};
use exsample_obs::{HistSnapshot, SpanRecord, TraceContext, TraceId};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::sync::Mutex;

/// A [`SearchService`] speaking the wire protocol over any
/// `Read + Write` connection — the drop-in remote counterpart of the
/// in-process engine. Code written against `&dyn SearchService` cannot
/// tell which one it holds, and sessions produce identical results
/// either way.
///
/// The client is internally synchronized: calls from many threads
/// serialize onto the one connection. A blocking call ([`wait`], an
/// unfinished [`stream`]) therefore stalls other callers of the
/// *same* client — open one connection per concurrent waiter, as the
/// integration tests do.
///
/// [`wait`]: SearchService::wait
/// [`stream`]: RemoteClient::stream
pub struct RemoteClient<T> {
    framed: Mutex<Framed<T>>,
    /// Per-session cursor most recently acknowledged by [`stream`] (and
    /// the subscription point it started from). Sessions deliberately
    /// outlive connections on the server, so after a transport failure a
    /// caller can [`reconnect`] and [`resume_stream`] from here without
    /// losing or double-counting results. Entries are dropped on a
    /// successful `forget`, keeping the map bounded on long-lived
    /// clients.
    ///
    /// [`stream`]: RemoteClient::stream
    /// [`reconnect`]: RemoteClient::reconnect
    /// [`resume_stream`]: RemoteClient::resume_stream
    acked: Mutex<HashMap<u64, u64>>,
}

impl<T> std::fmt::Debug for RemoteClient<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteClient").finish_non_exhaustive()
    }
}

impl<T: Read + Write> RemoteClient<T> {
    /// Handshake over a fresh connection. The protocol version is
    /// exchanged both ways before anything else; a peer speaking another
    /// version yields [`ServiceError::VersionMismatch`] — a clean, typed
    /// rejection instead of a misparse.
    pub fn connect(io: T) -> Result<Self, ServiceError> {
        Ok(RemoteClient {
            framed: Mutex::new(Self::handshaken(io)?),
            acked: Mutex::new(HashMap::new()),
        })
    }

    /// Replace a failed connection: handshake over a fresh transport and
    /// swap it in, keeping all per-session cursor state. The server
    /// retains sessions across disconnects, so an interrupted
    /// [`stream`](RemoteClient::stream) continues — without gaps — via
    /// [`resume_stream`](RemoteClient::resume_stream). On error the old
    /// connection is kept (still broken, but unchanged).
    pub fn reconnect(&self, io: T) -> Result<(), ServiceError> {
        let framed = Self::handshaken(io)?;
        *self.framed.lock().expect("remote client poisoned") = framed;
        Ok(())
    }

    /// Exchange preambles over `io`, insisting on our own version.
    fn handshaken(io: T) -> Result<Framed<T>, ServiceError> {
        let mut framed = Framed::new(io);
        let theirs = framed.handshake(PROTO_VERSION).map_err(transport)?;
        if theirs != PROTO_VERSION {
            return Err(ServiceError::VersionMismatch {
                ours: PROTO_VERSION,
                theirs,
            });
        }
        Ok(framed)
    }

    /// The event-log cursor this client last acknowledged for `id` (0 if
    /// the session was never streamed from this client). Everything
    /// before it has been fully consumed by an `on_batch` callback;
    /// everything at or after it is what a resumed stream will deliver.
    pub fn last_acked(&self, id: SessionId) -> u64 {
        *self
            .acked
            .lock()
            .expect("remote client poisoned")
            .get(&id.0)
            .unwrap_or(&0)
    }

    /// Continue a stream interrupted by a transport failure: exactly
    /// [`stream`](RemoteClient::stream) starting from
    /// [`last_acked`](RemoteClient::last_acked). Call after
    /// [`reconnect`](RemoteClient::reconnect); events acknowledged before
    /// the failure are not re-delivered, and none are skipped.
    pub fn resume_stream(
        &self,
        id: SessionId,
        window: u32,
        on_batch: impl FnMut(&SessionSnapshot),
    ) -> Result<SessionSnapshot, ServiceError> {
        let cursor = self.last_acked(id);
        self.stream(id, cursor, window, on_batch)
    }

    fn note_acked(&self, id: SessionId, cursor: u64) {
        self.acked
            .lock()
            .expect("remote client poisoned")
            .insert(id.0, cursor);
    }

    /// One request/response exchange; see [`recv`] for the errors.
    fn call(&self, request: &Message) -> Result<Message, ServiceError> {
        let mut framed = self.framed.lock().expect("remote client poisoned");
        framed.send(request).map_err(transport)?;
        // lint: allow(lock_blocking, the framed mutex exists to serialize whole request/reply round trips)
        recv(&mut framed)
    }

    /// One `Poll` round trip (at most one frame of events).
    fn poll_once(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError> {
        let request = Message::Poll {
            session: id,
            cursor,
            window,
            // The session's trace id is derivable on both ends; carrying
            // it lets the server parent its Poll span under this call.
            ctx: Some(TraceContext::for_session(id.0)),
        };
        match self.call(&request)? {
            Message::Snapshot(snap) => Ok(snap),
            _ => unexpected("Poll"),
        }
    }

    /// Operational counters *plus* the server's latency-histogram
    /// snapshots, in one round trip (protocol v5's `Stats` with the
    /// `detail` flag set). Use plain [`stats`](SearchService::stats)
    /// when the distributions are not needed — that reply is a few
    /// hundred bytes smaller.
    pub fn stats_detailed(
        &self,
    ) -> Result<(ServiceStats, Vec<(String, HistSnapshot)>), ServiceError> {
        match self.call(&Message::Stats { detail: true })? {
            Message::StatsReply {
                stats,
                detail: Some(hists),
            } => Ok((stats, hists)),
            _ => unexpected("Stats"),
        }
    }

    /// Authenticate this connection as a tenant (protocol v6): send the
    /// bearer token, receive the resolved tenant id and tier weight. A
    /// rejected token yields [`ServiceError::Unauthorized`]; the
    /// connection itself stays usable (e.g. to retry with another
    /// token). Servers without an auth registry answer every token with
    /// the anonymous tenant `(0, 1)`.
    pub fn authenticate(&self, token: &str) -> Result<(u32, u32), ServiceError> {
        let hello = Message::Hello {
            token: token.to_owned(),
        };
        match self.call(&hello)? {
            Message::Welcome { tenant, weight } => Ok((tenant, weight)),
            _ => unexpected("Hello"),
        }
    }

    /// Submit with bounded retry on [`ServiceError::Overloaded`]: honors
    /// the server's `retry_after_ms` hint between attempts (each wait
    /// capped at two seconds so a hostile hint cannot hang the caller),
    /// gives up after `attempts` sheds. All other outcomes — success or
    /// a different error — return immediately.
    pub fn submit_with_retry(
        &self,
        spec: &QuerySpec,
        attempts: u32,
    ) -> Result<SessionId, ServiceError> {
        let mut shed = 0;
        loop {
            match self.submit(spec.clone()) {
                Err(ServiceError::Overloaded { retry_after_ms }) => {
                    shed += 1;
                    if shed >= attempts.max(1) {
                        return Err(ServiceError::Overloaded { retry_after_ms });
                    }
                    std::thread::sleep(std::time::Duration::from_millis(
                        retry_after_ms.clamp(1, 2_000),
                    ));
                }
                other => return other,
            }
        }
    }

    /// Stream a session's results: subscribe from `cursor`, receive
    /// server-pushed batches of at most `window` events (clamped to
    /// `1..=MAX_POLL_WINDOW` on both ends), and invoke `on_batch` for
    /// each. Each batch's acknowledgement is queued once `on_batch`
    /// returns and written before the next read that would block (the
    /// first batch's at once), so a burst of batches costs one read and
    /// one write. The server pushes at most four batches ahead of the
    /// acknowledgements it has read, so a slow consumer still receives
    /// slowly — backpressure end to end.
    /// [`last_acked`](RemoteClient::last_acked) advances only once an
    /// acknowledgement has been written. Returns the terminal
    /// snapshot: final status, counters, and the session's event log
    /// fully drained. Acknowledgements still queued then go out ahead
    /// of this client's next request.
    pub fn stream(
        &self,
        id: SessionId,
        cursor: u64,
        window: u32,
        mut on_batch: impl FnMut(&SessionSnapshot),
    ) -> Result<SessionSnapshot, ServiceError> {
        // Clamp exactly as the server does, so both ends agree on the
        // terminal rule (`events < window` after finish).
        let window = window.clamp(1, MAX_POLL_WINDOW);
        let mut framed = self.framed.lock().expect("remote client poisoned");
        self.note_acked(id, cursor);
        framed
            .send(&Message::Subscribe {
                session: id,
                cursor,
                window,
            })
            .map_err(transport)?;
        // The cursor of the newest acknowledgement queued but not yet
        // written, and whether this is the stream's first batch.
        let (mut queued, mut first) = (None, true);
        loop {
            // lint: allow(lock_blocking, the framed mutex exists to serialize whole subscribe conversations)
            let reply = recv(&mut framed);
            if !framed.has_pending_out() {
                if let Some(acked) = queued.take() {
                    self.note_acked(id, acked);
                }
            }
            let Message::Snapshot(snap) = reply? else {
                return unexpected("Subscribe");
            };
            on_batch(&snap);
            // Mirror of the server's terminal rule: a short batch from a
            // finished session ends the subscription.
            if snap.status != SessionStatus::Running && (snap.events.len() as u32) < window {
                self.note_acked(id, snap.next_cursor);
                return Ok(snap);
            }
            framed
                .queue(&Message::Ack {
                    cursor: snap.next_cursor,
                    ctx: Some(TraceContext::for_session(id.0)),
                })
                .map_err(transport)?;
            queued = Some(snap.next_cursor);
            // The first ack goes out at once — one write a stream — so
            // a stream cut during its first burst still resumes past the
            // batch it consumed first.
            if std::mem::take(&mut first) {
                // lint: allow(lock_blocking, the framed mutex exists to serialize whole subscribe conversations)
                framed.flush().map_err(transport)?;
            }
        }
    }
}

/// Receive one reply. A transport failure is
/// [`ServiceError::Transport`]; the server's `Message::Error(e)` is
/// `Err(e)`, here and nowhere else.
fn recv<T: Read + Write>(framed: &mut Framed<T>) -> Result<Message, ServiceError> {
    match framed.recv().map_err(transport)? {
        Message::Error(err) => Err(err),
        reply => Ok(reply),
    }
}

fn transport(e: std::io::Error) -> ServiceError {
    ServiceError::Transport(e.to_string())
}

/// The answer to a reply of the wrong kind for `request`.
fn unexpected<T>(request: &str) -> Result<T, ServiceError> {
    Err(ServiceError::Transport(format!(
        "unexpected response to {request}"
    )))
}

impl RemoteClient<std::net::TcpStream> {
    /// [`RemoteClient::connect`] over TCP: dial `addr`, enable
    /// `TCP_NODELAY` (the protocol is request/response; Nagle would add
    /// a delayed-ack round trip to every call), and handshake.
    pub fn connect_tcp(addr: impl std::net::ToSocketAddrs) -> Result<Self, ServiceError> {
        let stream = std::net::TcpStream::connect(addr).map_err(transport)?;
        stream.set_nodelay(true).map_err(transport)?;
        Self::connect(stream)
    }
}

impl<T: Read + Write> SearchService for RemoteClient<T> {
    fn repos(&self) -> Result<Vec<RepoInfo>, ServiceError> {
        match self.call(&Message::Repos)? {
            Message::RepoList(infos) => Ok(infos),
            _ => unexpected("Repos"),
        }
    }

    fn submit(&self, spec: QuerySpec) -> Result<SessionId, ServiceError> {
        // No trace context: the trace id derives from the session id the
        // server is about to mint, unknowable before the reply. A router
        // forwarding a submit it already namespaced fills this in.
        match self.call(&Message::Submit { spec, ctx: None })? {
            Message::Submitted(id) => Ok(id),
            _ => unexpected("Submit"),
        }
    }

    fn poll(
        &self,
        id: SessionId,
        cursor: u64,
        window: Option<u32>,
    ) -> Result<SessionSnapshot, ServiceError> {
        if window.is_some() {
            return self.poll_once(id, cursor, window);
        }
        // The trait contract says `None` = all available events, but the
        // server bounds each answer to MAX_POLL_WINDOW so responses
        // always fit a frame. Preserve the contract by paginating here:
        // full pages mean more may be pending, a short page is the end.
        let mut snap = self.poll_once(id, cursor, Some(MAX_POLL_WINDOW))?;
        let mut last = snap.events.len();
        while last == MAX_POLL_WINDOW as usize {
            let more = self.poll_once(id, snap.next_cursor, Some(MAX_POLL_WINDOW))?;
            last = more.events.len();
            let SessionSnapshot {
                status,
                found,
                samples,
                charges,
                events,
                next_cursor,
            } = more;
            snap.events.extend(events);
            snap.status = status;
            snap.found = found;
            snap.samples = samples;
            snap.charges = charges;
            snap.next_cursor = next_cursor;
        }
        Ok(snap)
    }

    fn cancel(&self, id: SessionId) -> Result<(), ServiceError> {
        match self.call(&Message::Cancel { session: id })? {
            Message::CancelOk => Ok(()),
            _ => unexpected("Cancel"),
        }
    }

    fn wait(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        match self.call(&Message::Wait { session: id })? {
            Message::Report(report) => Ok(report),
            _ => unexpected("Wait"),
        }
    }

    fn forget(&self, id: SessionId) -> Result<SessionReport, ServiceError> {
        match self.call(&Message::Forget { session: id })? {
            Message::Report(report) => {
                // The session is gone server-side; dropping its cursor
                // entry keeps the map bounded on long-lived clients.
                self.acked
                    .lock()
                    .expect("remote client poisoned")
                    .remove(&id.0);
                Ok(report)
            }
            _ => unexpected("Forget"),
        }
    }

    fn stats(&self) -> Result<ServiceStats, ServiceError> {
        match self.call(&Message::Stats { detail: false })? {
            Message::StatsReply { stats, .. } => Ok(stats),
            _ => unexpected("Stats"),
        }
    }

    fn diagnostics(&self) -> Result<Diagnostics, ServiceError> {
        match self.call(&Message::Diagnostics)? {
            Message::DiagnosticsReply(diag) => Ok(diag),
            _ => unexpected("Diagnostics"),
        }
    }

    fn collect_trace(&self, trace: TraceId) -> Result<Vec<SpanRecord>, ServiceError> {
        match self.call(&Message::CollectTrace { trace })? {
            Message::TraceReply(spans) => Ok(spans),
            _ => unexpected("CollectTrace"),
        }
    }
}
