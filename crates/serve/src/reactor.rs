//! The readiness-driven reactor: one thread, one `epoll` instance, many
//! non-blocking connections.
//!
//! Where the blocking pump
//! ([`SearchServer`](exsample_proto::SearchServer)) spends a thread (and
//! its stack) per connection, the reactor multiplexes every connection
//! over a single event loop: sockets are registered oneshot with the
//! [`polling`] poller, each delivered readiness event moves bytes
//! between the socket and that connection's [`Connection`] state
//! machine, which is advanced exactly as far as its bytes allow, and
//! the socket is re-armed with interest matching the new state
//! (readable unless parked, writable iff output is queued). Ten
//! thousand idle connections cost ten thousand file descriptors and a
//! few megabytes of buffers — not ten thousand stacks.
//!
//! The conversation itself — handshake, request dispatch, the `Wait`
//! park, the `Subscribe` stream that pushes a few batches ahead of the
//! client's acks — is `Connection`'s, the
//! same type the blocking pump drives, so there is one server-side
//! protocol implementation and nothing to keep byte-identical. The
//! serving path never touches the engine's deterministic sampling
//! state, so a trace obtained through the reactor is bit-identical to
//! one obtained through `SearchServer` or the in-process engine. The
//! integration tests pin this.
//!
//! What is the reactor's own: the poller, listeners and accept bursts;
//! handshake deadlines; the plaintext `/metrics` connections; and its
//! [`Host`] decisions — the **admission layer**. The `Hello` handshake
//! binds connections to authenticated tenants ([`AuthRegistry`]),
//! per-tenant connection and session quotas plus an engine-wide
//! queue-depth bound shed excess load with typed
//! `Overloaded { retry_after_ms }` answers ([`Admission`]), and tenant
//! tiers multiply into the scheduler's weighted-fair leases so paying
//! tenants make proportionally faster progress under contention.
//!
//! "Not finished yet" parks instead of blocking: `Wait` is answered
//! from [`Engine::try_wait_watch`], stream batches from
//! [`Engine::poll_watch`], and an answer that is not there yet leaves
//! one-shot interest in the session, tagged with the connection's key.
//! The worker that makes the session progress pushes the key onto the
//! engine's [`CompletionQueue`] and wakes the poller; the loop resumes
//! exactly those connections and asks the engine nothing in between. A
//! parked connection stops draining frames (backpressure by not
//! reading), exactly as a blocking pump's thread is busy inside the
//! engine call.

use crate::admission::Admission;
use crate::auth::AuthRegistry;
use crate::ServeConfig;
use exsample_engine::{
    CompletionQueue, Engine, ServiceError, SessionId, SessionReport, SessionSnapshot,
    TenantBinding, TenantId,
};
use exsample_obs::{Counter, CounterFamily, Gauge, Stage, NO_SESSION};
use exsample_proto::framebuf::{FrameBuf, ReadOutcome};
use exsample_proto::{Connection, Host};
use polling::{Event, Events, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle wait ceiling — bounds how stale the handshake-deadline sweep
/// and stop-flag check can get when nothing is happening.
const IDLE_WAIT: Duration = Duration::from_millis(500);

/// A connection's byte stream: both socket families the reactor serves.
trait ConnIo: Read + Write + Send {
    fn raw_fd(&self) -> RawFd;
}

impl ConnIo for TcpStream {
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

impl ConnIo for UnixStream {
    fn raw_fd(&self) -> RawFd {
        self.as_raw_fd()
    }
}

/// Borrow-free `AsRawFd` carrier for poller calls on boxed streams.
struct Fd(RawFd);

impl AsRawFd for Fd {
    fn as_raw_fd(&self) -> RawFd {
        self.0
    }
}

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl ListenerKind {
    fn accept(&self) -> io::Result<Box<dyn ConnIo>> {
        match self {
            ListenerKind::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                // Request/response round trips; Nagle only adds latency.
                let _ = s.set_nodelay(true);
                Ok(Box::new(s))
            }
            ListenerKind::Unix(l) => {
                let (s, _) = l.accept()?;
                s.set_nonblocking(true)?;
                Ok(Box::new(s))
            }
        }
    }

    fn fd(&self) -> RawFd {
        match self {
            ListenerKind::Tcp(l) => l.as_raw_fd(),
            ListenerKind::Unix(l) => l.as_raw_fd(),
        }
    }
}

struct ListenerSlot {
    kind: ListenerKind,
    retry: AcceptRetry,
    alive: bool,
    /// Connections from this listener speak plaintext HTTP (the
    /// `/metrics` scrape endpoint), not XSRP frames.
    http: bool,
}

/// Bounded retry policy of a listener's accept path.
///
/// Transient accept failures (fd exhaustion, an aborted connection)
/// must not kill the listener; a permanently broken one must not spin
/// the loop either. The failure budget counts *consecutive* errors only
/// and **must** be reset on every successful accept — without the
/// reset, a long-lived listener dies from unrelated transient errors
/// spread over days, which is a regression this type's unit tests pin
/// down.
#[derive(Debug)]
struct AcceptRetry {
    consecutive: u32,
    limit: u32,
}

impl Default for AcceptRetry {
    /// Give up after [`AcceptRetry::DEFAULT_LIMIT`] consecutive
    /// failures.
    fn default() -> Self {
        AcceptRetry::new(AcceptRetry::DEFAULT_LIMIT)
    }
}

impl AcceptRetry {
    /// Default consecutive-failure budget.
    const DEFAULT_LIMIT: u32 = 100;

    /// A policy giving up after `limit` consecutive failures.
    fn new(limit: u32) -> Self {
        AcceptRetry {
            consecutive: 0,
            limit: limit.max(1),
        }
    }

    /// Record a successful accept: the listener is demonstrably alive,
    /// so the failure budget refills completely.
    fn on_success(&mut self) {
        self.consecutive = 0;
    }

    /// Record a failed accept. Returns `true` to keep the listener,
    /// `false` when the budget is exhausted and it should be abandoned.
    #[must_use]
    fn on_error(&mut self) -> bool {
        self.consecutive += 1;
        self.consecutive < self.limit
    }
}

/// What a connection speaks, and the state of that conversation.
enum Speaks {
    /// XSRP frames: the protocol state machine shared with the blocking
    /// pump.
    Xsrp(Connection),
    /// Plaintext HTTP (from a metrics listener): raw request bytes in,
    /// one HTTP/1.0 response out, then close.
    Http { buf: FrameBuf, answered: bool },
}

impl Speaks {
    fn buf(&self) -> &FrameBuf {
        match self {
            Speaks::Xsrp(machine) => machine.buf(),
            Speaks::Http { buf, .. } => buf,
        }
    }

    fn buf_mut(&mut self) -> &mut FrameBuf {
        match self {
            Speaks::Xsrp(machine) => machine.buf_mut(),
            Speaks::Http { buf, .. } => buf,
        }
    }
}

struct Conn {
    io: Box<dyn ConnIo>,
    key: usize,
    speaks: Speaks,
}

impl Conn {
    /// Parked = progress depends on the engine, not the socket: stop
    /// reading (backpressure) until its completion arrives.
    fn is_parked(&self) -> bool {
        matches!(&self.speaks, Speaks::Xsrp(machine) if machine.is_parked())
    }

    /// Flush what is queued, then close; nothing more is read.
    fn is_closing(&self) -> bool {
        match &self.speaks {
            Speaks::Xsrp(machine) => machine.is_closing(),
            Speaks::Http { answered, .. } => *answered,
        }
    }

    /// Still subject to the handshake deadline. A scrape gets that
    /// window for its whole exchange: it bounds how long an idle or
    /// slow-reading scraper may sit on a connection.
    fn under_deadline(&self) -> bool {
        match &self.speaks {
            Speaks::Xsrp(machine) => machine.in_handshake(),
            Speaks::Http { .. } => true,
        }
    }

    /// Closing and fully flushed: nothing left to do but drop it.
    fn is_finished(&self) -> bool {
        self.is_closing() && !self.speaks.buf().has_pending_out()
    }

    fn interest(&self) -> Event {
        Event {
            key: self.key,
            readable: !self.is_closing() && !self.is_parked(),
            writable: self.speaks.buf().has_pending_out(),
        }
    }
}

/// Live operational counters of a running reactor (see
/// [`ServeHandle::stats`]). The same values are visible to every
/// observer through the engine's metric registry as
/// `exsample_accepted_total`, `exsample_shed_total{tenant="..."}`
/// (a per-tenant family; [`ServeStats::shed`] is its sum over all
/// tenants), and `exsample_connections_active`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted since start.
    pub accepted: u64,
    /// Requests and connections shed with `Overloaded`.
    pub shed: u64,
    /// Connections currently open.
    pub connections_active: u64,
}

/// Handle to a spawned reactor. Dropping it (or calling
/// [`ServeHandle::shutdown`]) stops the event loop and joins its
/// thread; open connections are dropped.
pub struct ServeHandle {
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    join: Option<JoinHandle<()>>,
    accepted: Arc<Counter>,
    shed: Arc<CounterFamily>,
    active: Arc<Gauge>,
}

impl ServeHandle {
    /// Current operational counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            accepted: self.accepted.get(),
            shed: self.shed.total(),
            connections_active: self.active.get(),
        }
    }

    /// Stop the event loop and join its thread.
    pub fn shutdown(mut self) {
        self.stop_now();
    }

    fn stop_now(&mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = self.poller.notify();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        self.stop_now();
    }
}

/// The async server under construction: bind listeners, then
/// [`Reactor::spawn`] the event loop.
pub struct Reactor {
    engine: Arc<Engine>,
    auth: AuthRegistry,
    admission: Admission,
    handshake_timeout: Duration,
    poller: Arc<Poller>,
    listeners: Vec<ListenerSlot>,
}

impl Reactor {
    /// A reactor serving `engine` under `config`. Fails only if the OS
    /// poller cannot be created (non-Linux targets: `Unsupported`).
    pub fn new(engine: Arc<Engine>, config: ServeConfig) -> io::Result<Reactor> {
        Ok(Reactor {
            engine,
            auth: config.auth,
            admission: Admission::new(config.admission),
            handshake_timeout: config.handshake_timeout,
            poller: Arc::new(Poller::new()?),
            listeners: Vec::new(),
        })
    }

    /// Bind and register a TCP listener, returning the bound address
    /// (useful with port 0).
    pub fn listen_tcp(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.register_listener(ListenerKind::Tcp(listener), false)?;
        Ok(local)
    }

    /// Bind and register a Unix-domain listener at `path`.
    pub fn listen_unix(&mut self, path: impl AsRef<Path>) -> io::Result<()> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        self.register_listener(ListenerKind::Unix(listener), false)
    }

    /// Bind and register a plaintext-HTTP metrics listener, returning
    /// the bound address. Connections accepted here answer
    /// `GET /metrics` with the engine registry's text exposition and
    /// `GET /healthz` with `ok`, then close — no XSRP framing, no
    /// admission, one request per connection (HTTP/1.0 semantics). Kept
    /// on its own listener so a scraper can never confuse the binary
    /// protocol: XSRP connections still reject HTTP bytes as bad magic.
    pub fn listen_metrics_tcp(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        self.register_listener(ListenerKind::Tcp(listener), true)?;
        Ok(local)
    }

    fn register_listener(&mut self, kind: ListenerKind, http: bool) -> io::Result<()> {
        let key = self.listeners.len();
        self.poller.add(&Fd(kind.fd()), Event::readable(key))?;
        self.listeners.push(ListenerSlot {
            kind,
            retry: AcceptRetry::default(),
            alive: true,
            http,
        });
        Ok(())
    }

    /// Start the event loop on its own thread.
    pub fn spawn(self) -> io::Result<ServeHandle> {
        let registry = self.engine.obs().registry().clone();
        let accepted = registry.counter("accepted_total");
        let shed = registry.counter_family("shed_total", "tenant");
        let active = registry.gauge("connections_active");
        let stop = Arc::new(AtomicBool::new(false));
        let poller = self.poller.clone();
        let waker = self.poller.clone();
        let completions = self.engine.completion_queue(move || {
            let _ = waker.notify();
        });
        let event_loop = EventLoop {
            engine: self.engine,
            gate: Gate {
                auth: self.auth,
                admission: self.admission,
                shed: shed.clone(),
                completions,
                serving: 0,
            },
            handshake_timeout: self.handshake_timeout,
            poller: self.poller,
            listeners: self.listeners,
            stop: stop.clone(),
            conns: HashMap::new(),
            deadlines: VecDeque::new(),
            next_key: 0,
            accepted: accepted.clone(),
            active: active.clone(),
        };
        let join = std::thread::Builder::new()
            .name("exsample-serve-reactor".into())
            .spawn(move || event_loop.run())?;
        Ok(ServeHandle {
            stop,
            poller,
            join: Some(join),
            accepted,
            shed,
            active,
        })
    }
}

/// The reactor's [`Host`]: tenants come from the registry, admission
/// limits shed with typed, counted answers, and "not finished yet" is
/// answered at once — the connection parks, and its key comes back on
/// the completion queue when the session has progressed.
struct Gate {
    auth: AuthRegistry,
    admission: Admission,
    shed: Arc<CounterFamily>,
    completions: Arc<CompletionQueue>,
    /// Key of the connection being served: the token its parks leave
    /// with the engine.
    serving: u64,
}

impl Gate {
    /// Pass an admission answer on, counting a shed (`Overloaded`)
    /// against `tenant`'s label (`0` = unauthenticated / anonymous,
    /// matching the engine's untagged-submit convention).
    fn counted(
        &self,
        answer: Result<(), ServiceError>,
        tenant: Option<TenantId>,
    ) -> Result<(), ServiceError> {
        if let Err(ServiceError::Overloaded { .. }) = answer {
            self.shed.with(&tenant.map_or(0, |t| t.0).to_string()).inc();
        }
        answer
    }
}

impl Host for Gate {
    fn hello(
        &mut self,
        token: &str,
        bound: Option<TenantBinding>,
    ) -> Result<TenantBinding, ServiceError> {
        // Re-authentication releases the old binding first; a rejected
        // token leaves the connection unauthenticated (and alive)
        // either way.
        if let Some(old) = bound {
            self.admission.unbind_tenant(old.tenant);
        }
        let binding = self
            .auth
            .authenticate(token)
            .ok_or_else(|| ServiceError::Unauthorized("unknown tenant token".to_owned()))?;
        let bound = self.admission.bind_tenant(binding.tenant);
        self.counted(bound, Some(binding.tenant))?;
        Ok(binding)
    }

    fn admit_submit(
        &mut self,
        engine: &Engine,
        tenant: Option<TenantBinding>,
    ) -> Result<(), ServiceError> {
        let tenant = tenant.map(|b| b.tenant);
        self.counted(self.admission.admit_submit(tenant, engine), tenant)
    }

    fn wait(
        &mut self,
        engine: &Engine,
        session: SessionId,
    ) -> Result<Option<SessionReport>, ServiceError> {
        #[cfg(test)]
        tests::HOST_ASKS.fetch_add(1, Ordering::SeqCst);
        engine.try_wait_watch(session, &self.completions, self.serving)
    }

    fn next_batch(
        &mut self,
        engine: &Engine,
        session: SessionId,
        cursor: u64,
        window: u32,
    ) -> Result<Option<SessionSnapshot>, ServiceError> {
        #[cfg(test)]
        tests::HOST_ASKS.fetch_add(1, Ordering::SeqCst);
        // Empty + still running = nothing to push yet.
        engine.poll_watch(
            session,
            cursor,
            Some(window),
            &self.completions,
            self.serving,
        )
    }
}

struct EventLoop {
    engine: Arc<Engine>,
    gate: Gate,
    handshake_timeout: Duration,
    poller: Arc<Poller>,
    listeners: Vec<ListenerSlot>,
    stop: Arc<AtomicBool>,
    conns: HashMap<usize, Conn>,
    /// Handshake deadlines in accept order (uniform timeout ⇒ the front
    /// is the earliest). Keys are never reused, so stale entries —
    /// closed or already-handshaken connections — are skipped, not
    /// misapplied.
    deadlines: VecDeque<(usize, Instant)>,
    next_key: usize,
    accepted: Arc<Counter>,
    active: Arc<Gauge>,
}

impl EventLoop {
    fn run(mut self) {
        // Connection keys live above the listener key range.
        self.next_key = self.listeners.len();
        let mut events = Events::with_capacity(1024);
        let mut completed: Vec<u64> = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            if self.poller.wait(&mut events, self.wait_timeout()).is_err() {
                continue;
            }
            for ev in events.iter() {
                if ev.key < self.listeners.len() {
                    self.accept_burst(ev.key);
                } else {
                    self.conn_event(ev.key, ev.readable, false);
                }
            }
            // The sessions these connections parked on have progressed. (A
            // key whose connection closed meanwhile names nothing; keys
            // are never reused.)
            self.gate.completions.drain(&mut completed);
            for key in completed.drain(..) {
                self.conn_event(key as usize, false, true);
            }
            self.expire_handshakes();
        }
    }

    fn wait_timeout(&self) -> Option<Duration> {
        if let Some((_, deadline)) = self.deadlines.front() {
            let until = deadline.saturating_duration_since(Instant::now());
            return Some(until.clamp(Duration::from_millis(1), IDLE_WAIT));
        }
        Some(IDLE_WAIT)
    }

    // ---- accepting ----

    fn accept_burst(&mut self, lkey: usize) {
        let mut fresh: Vec<Box<dyn ConnIo>> = Vec::new();
        let http;
        {
            let slot = match self.listeners.get_mut(lkey) {
                Some(slot) if slot.alive => slot,
                _ => return,
            };
            http = slot.http;
            loop {
                match slot.kind.accept() {
                    Ok(io) => {
                        slot.retry.on_success();
                        fresh.push(io);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        eprintln!("exsample-serve: accept error: {e}");
                        if !slot.retry.on_error() {
                            eprintln!("exsample-serve: listener unusable, giving up");
                            slot.alive = false;
                        }
                        // Either way, end this burst; a persistent error
                        // redelivers readiness and spends the budget.
                        break;
                    }
                }
            }
            if slot.alive {
                let _ = self
                    .poller
                    .modify(&Fd(slot.kind.fd()), Event::readable(lkey));
            } else {
                let _ = self.poller.delete(&Fd(slot.kind.fd()));
            }
        }
        if !fresh.is_empty() {
            let engine = self.engine.clone();
            let mut span = engine.obs().span(Stage::Accept, NO_SESSION);
            span.set_key(fresh.len() as u64);
            for io in fresh {
                self.open_conn(io, http);
            }
        }
    }

    fn open_conn(&mut self, io: Box<dyn ConnIo>, http: bool) {
        self.accepted.inc();
        let key = self.next_key;
        self.next_key += 1;
        let speaks = if http {
            // A scrape connection sends no preamble and is never shed.
            Speaks::Http {
                buf: FrameBuf::new(),
                answered: false,
            }
        } else {
            // A fresh `Connection` has our preamble queued, so even a
            // shed peer gets a parseable, typed answer.
            let mut machine = Connection::new();
            let admitted = self.gate.admission.admit_connection(self.conns.len());
            if let Err(err) = self.gate.counted(admitted, None) {
                let _ = machine.refuse(err);
            }
            Speaks::Xsrp(machine)
        };
        let mut conn = Conn { io, key, speaks };
        if !conn.is_closing() {
            self.deadlines
                .push_back((key, Instant::now() + self.handshake_timeout));
        }
        if !self.flush(&mut conn) || conn.is_finished() {
            return;
        }
        if self
            .poller
            .add(&Fd(conn.io.raw_fd()), conn.interest())
            .is_err()
        {
            return;
        }
        self.conns.insert(key, conn);
        self.active.set(self.conns.len() as u64);
    }

    // ---- connection events ----

    fn conn_event(&mut self, key: usize, readable: bool, resumed: bool) {
        let Some(mut conn) = self.conns.remove(&key) else {
            return;
        };
        if self.drive(&mut conn, readable, resumed) {
            self.keep(conn);
        } else {
            self.close(conn);
        }
    }

    /// Advance one connection as far as its readiness (`readable`) or
    /// its session's progress (`resumed`) allows. Returns `false` when
    /// the connection is finished (close it).
    fn drive(&mut self, conn: &mut Conn, readable: bool, resumed: bool) -> bool {
        if conn.speaks.buf().has_pending_out() && !self.flush(conn) {
            return false;
        }
        if readable && !conn.is_closing() {
            let Conn { io, speaks, .. } = &mut *conn;
            match speaks.buf_mut().read_from(&mut **io) {
                Ok(ReadOutcome::Open) => {}
                // EOF or any transport failure: the peer is gone — a
                // clean end of service.
                Ok(ReadOutcome::Eof) | Err(_) => return false,
            }
        }
        // Asks the host again when resumed; an answer also unblocks
        // whatever frames were buffered behind the parked request.
        if (readable || resumed) && !conn.is_closing() && !self.serve(conn) {
            return false;
        }
        self.flush(conn) && !conn.is_finished()
    }

    /// Serve what the connection has buffered; `false` = unusable
    /// (undecodable input, unframeable reply): close it.
    fn serve(&mut self, conn: &mut Conn) -> bool {
        self.gate.serving = conn.key as u64;
        let usable = match &mut conn.speaks {
            Speaks::Xsrp(machine) => machine.advance(&self.engine, &mut self.gate).is_ok(),
            Speaks::Http { buf, answered } => {
                let served = serve_http(&self.engine, buf);
                *answered = served == Some(true);
                served.is_some()
            }
        };
        if !usable {
            // Replies earned by the valid frames ahead of the bad one
            // still go out, as they would have had the frames arrived
            // in separate reads.
            let _ = self.flush(conn);
        }
        usable
    }

    /// Flush queued output; `false` = transport failure (close).
    /// `WouldBlock` is success — writable interest takes over.
    fn flush(&mut self, conn: &mut Conn) -> bool {
        let Conn { io, speaks, .. } = conn;
        speaks.buf_mut().write_to(&mut **io).is_ok()
    }

    // ---- bookkeeping ----

    fn keep(&mut self, conn: Conn) {
        let _ = self.poller.modify(&Fd(conn.io.raw_fd()), conn.interest());
        self.conns.insert(conn.key, conn);
    }

    fn close(&mut self, conn: Conn) {
        let _ = self.poller.delete(&Fd(conn.io.raw_fd()));
        if let Speaks::Xsrp(machine) = &conn.speaks {
            if let Some(binding) = machine.tenant() {
                self.gate.admission.unbind_tenant(binding.tenant);
            }
        }
        self.active.set(self.conns.len() as u64);
    }

    fn expire_handshakes(&mut self) {
        let now = Instant::now();
        while let Some(&(key, deadline)) = self.deadlines.front() {
            if deadline > now {
                break;
            }
            self.deadlines.pop_front();
            let stalled = self.conns.get(&key).is_some_and(Conn::under_deadline);
            if stalled {
                // Re-looked-up rather than `expect`ed: a missing entry
                // (however it came to be) is a no-op, not a panic that
                // takes the whole reactor thread down.
                if let Some(conn) = self.conns.remove(&key) {
                    self.close(conn);
                }
            }
        }
    }
}

/// Serve one plaintext HTTP request on a metrics connection: wait for
/// the blank line ending the headers, then queue the answer.
/// `Some(answered)`; `None` = unparseable or oversized, close without
/// an answer.
fn serve_http(engine: &Engine, buf: &mut FrameBuf) -> Option<bool> {
    /// Longest request (line + headers) a scraper may send; beyond
    /// this the connection is not a scrape, it is abuse.
    const MAX_HTTP_REQUEST: usize = 8 << 10;
    let bytes = buf.peek_in();
    let Some(end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") else {
        return (bytes.len() <= MAX_HTTP_REQUEST).then_some(false);
    };
    let head = std::str::from_utf8(bytes.get(..end)?).ok()?;
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let response = if method != "GET" {
        http_response("405 Method Not Allowed", "method not allowed\n")
    } else {
        match path {
            "/metrics" => http_response("200 OK", &engine.obs().registry().render_text()),
            "/healthz" => http_response("200 OK", "ok\n"),
            _ => http_response("404 Not Found", "not found\n"),
        }
    };
    buf.consume_in(end + 4);
    buf.queue_raw(&response);
    Some(true)
}

/// Render a minimal HTTP/1.0 response — just enough HTTP for `curl`
/// and a Prometheus scraper: status line, content type (the text
/// exposition version), length, explicit close.
fn http_response(status: &str, body: &str) -> Vec<u8> {
    format!(
        "HTTP/1.0 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n\
         {body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use exsample_core::driver::StopCond;
    use exsample_detect::NoiseModel;
    use exsample_engine::{EngineConfig, QuerySpec, SessionStatus};
    use exsample_proto::{Message, PROTO_VERSION};
    use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
    use std::sync::atomic::AtomicU64;

    /// How often any reactor in this test binary asked its engine
    /// `Host::{wait, next_batch}`. One test spawns a reactor.
    pub(super) static HOST_ASKS: AtomicU64 = AtomicU64::new(0);

    fn asks() -> u64 {
        HOST_ASKS.load(Ordering::SeqCst)
    }

    /// One request on a fresh connection, reply unread.
    fn send(addr: SocketAddr, request: &Message) -> TcpStream {
        let mut buf = FrameBuf::new();
        buf.queue_preamble(PROTO_VERSION);
        buf.queue(request).expect("request fits a frame");
        let mut stream = TcpStream::connect(addr).expect("connect");
        buf.write_to(&mut stream).expect("send the request");
        stream
    }

    /// The one reply a connection of [`send`] gets.
    fn reply(stream: &mut TcpStream) -> Message {
        let mut buf = FrameBuf::new();
        let mut handshaken = false;
        loop {
            if !handshaken {
                handshaken = buf.take_preamble().expect("our magic").is_some();
            }
            if handshaken {
                if let Some(msg) = buf.next_frame().expect("a well-formed reply") {
                    return msg;
                }
            }
            assert_ne!(buf.fill_from(stream).expect("read"), 0, "closed unanswered");
        }
    }

    #[test]
    fn parked_connections_cost_one_engine_call_per_park_and_per_completion() {
        const PARKED: u64 = 32;
        let engine = Arc::new(Engine::new(EngineConfig {
            workers: 2,
            quantum: 8,
            ..EngineConfig::default()
        }));
        // A timeline that takes seconds to exhaust, and a target out of
        // reach: the session streams events until it is cancelled.
        let footage = DatasetSpec::single_class(
            4_000_000,
            ClassSpec::new("car", 60, 40.0, SkewSpec::CentralNormal { frac95: 0.2 }),
        );
        let repo = engine.register_repo(
            "marathon-cam",
            Arc::new(footage.generate(23)),
            NoiseModel::none(),
            5,
        );
        let session = engine
            .submit(QuerySpec::new(repo, ClassId(0), StopCond::results(u64::MAX)).seed(3))
            .expect("valid spec");
        let mut reactor = Reactor::new(engine.clone(), ServeConfig::default()).expect("poller");
        let addr = reactor.listen_tcp("127.0.0.1:0").expect("bind loopback");
        let _handle = reactor.spawn().expect("spawn reactor");

        // Half wait for the report; half stream from far past the log's
        // end, where only finalization is a batch.
        let mut conns: Vec<TcpStream> = (0..PARKED)
            .map(|i| {
                let request = if i % 2 == 0 {
                    Message::Wait { session }
                } else {
                    Message::Subscribe {
                        session,
                        cursor: u64::MAX,
                        window: 4,
                    }
                };
                send(addr, &request)
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(30);
        while asks() < PARKED {
            assert!(Instant::now() < deadline, "only {} parked", asks());
            std::thread::yield_now();
        }

        // Parked, the reactor asks the engine nothing — while the session
        // next door keeps logging events none of them waits for.
        let logged = engine.poll(session, 0).expect("known session").events.len();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(asks(), PARKED, "an idle reactor polled the engine");
        while engine.poll(session, 0).expect("known session").events.len() == logged {
            std::thread::yield_now();
        }
        assert_eq!(asks(), PARKED, "progress nobody waits for resumed someone");

        // Finalization resumes each connection once, with its answer.
        engine.cancel(session).expect("known session");
        for (i, conn) in conns.iter_mut().enumerate() {
            match reply(conn) {
                Message::Report(report) if i % 2 == 0 => {
                    assert_eq!(report.status, SessionStatus::Cancelled)
                }
                Message::Snapshot(snap) if i % 2 == 1 => {
                    assert_eq!(snap.status, SessionStatus::Cancelled)
                }
                other => panic!("connection {i} got {other:?}"),
            }
        }
        assert_eq!(asks(), 2 * PARKED, "one ask per completion");
    }

    #[test]
    fn accept_retry_gives_up_after_consecutive_failures() {
        let mut retry = AcceptRetry::new(3);
        assert!(retry.on_error());
        assert!(retry.on_error());
        assert!(!retry.on_error());
    }

    #[test]
    fn accept_retry_resets_on_successful_accept() {
        // Regression guard: errors spread over the listener's lifetime
        // must never accumulate into a shutdown — only *consecutive*
        // failures spend the budget.
        let mut retry = AcceptRetry::new(3);
        for _ in 0..1000 {
            assert!(retry.on_error());
            assert!(retry.on_error());
            retry.on_success();
            assert_eq!(retry.consecutive, 0);
        }
        let mut degenerate = AcceptRetry::new(0);
        assert!(!degenerate.on_error(), "limit is floored at one failure");
        assert_eq!(AcceptRetry::default().limit, AcceptRetry::DEFAULT_LIMIT);
    }
}
