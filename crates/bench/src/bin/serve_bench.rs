//! Load benchmark for the readiness-driven server (`exsample-serve`):
//! one reactor thread versus thousands of concurrent remote sessions.
//!
//! A single-threaded non-blocking client event loop (same `polling`
//! primitives as the server) opens one TCP connection per session,
//! submits a query on each, then polls every session to completion with
//! per-connection exponential backoff. Connections are held open and
//! sessions unforgotten until *every* session finishes, so the peak
//! concurrency — connections and resident sessions — is the full fleet
//! at once. Submit and poll round-trip latencies are recorded
//! per-request and reported as p50/p99.
//!
//! Then the **parked phase**: with the whole fleet still connected, one
//! long-running anchor session is submitted and every connection
//! subscribes to it from past the end of its log — where only its
//! finalization is a batch — so all of them are parked inside the
//! reactor at once.
//! The reactor thread's CPU time over a quiet window is reported — what
//! parked connections cost while nothing they wait for moves — and the
//! anchor is cancelled, which must resume every connection with the
//! stream's terminal batch.
//!
//! The reactor runs in a *child process* (`--server`, spawned
//! automatically): 10k connections are 10k fds on each side, and a
//! single process holding both ends would need ~20k — right at a
//! common `RLIMIT_NOFILE` hard cap. Splitting the endpoints gives each
//! process comfortable headroom and mirrors a real deployment, where
//! client and server never share an fd table. The parent reads the
//! bound address from the child's stdout and requests server counters
//! (accepted / shed / active / resident, and the reactor thread's CPU
//! time) over its stdin, while every connection is still open.
//!
//! `--smoke` runs a small fleet, gates on zero sheds, zero client
//! errors, and every session completing (CI), and only prints — the
//! checked-in record is the headline tier's, never a smoke run's. The
//! default run drives 10,000 sessions and writes `BENCH_serve.json` at
//! the repo root (override with `EXSAMPLE_BENCH_OUT`).

#![cfg(unix)]

use exsample_core::driver::StopCond;
use exsample_detect::NoiseModel;
use exsample_engine::{
    Diagnostics, Engine, EngineConfig, QuerySpec, RepoId, SearchService, ServiceError, SessionId,
    SessionStatus,
};
use exsample_proto::framebuf::{FrameBuf, ReadOutcome};
use exsample_proto::{decode_message, encode_message, Message, RemoteClient, PROTO_VERSION};
use exsample_serve::{AdmissionConfig, Reactor, ServeConfig};
use exsample_videosim::{ClassId, ClassSpec, DatasetSpec, SkewSpec};
use polling::{Event, Events, Poller, NOTIFY_KEY};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many connections may sit between `connect()` and the server's
/// preamble at once. Must stay under the listener's accept backlog
/// (128 for `std::net::TcpListener`): an overflowing SYN is silently
/// dropped and retransmitted a full second later, which would dominate
/// every latency number here.
const CONNECT_WAVE: usize = 96;

/// Poll backoff while a session reports `Running` with no new events:
/// doubles from `BACKOFF_MIN` to `BACKOFF_MAX` per empty reply, resets
/// on progress. Keeps 10k idle-ish connections from busy-spinning the
/// engine off its cores while keeping time-to-notice-completion low.
const BACKOFF_MIN: Duration = Duration::from_millis(8);
const BACKOFF_MAX: Duration = Duration::from_millis(512);

struct Config {
    sessions: usize,
    smoke: bool,
    frames: u64,
    instances: usize,
    samples_per_session: u64,
    deadline: Duration,
    /// How long the fleet sits parked while the reactor thread's CPU
    /// time is read.
    parked_window: Duration,
}

impl Config {
    fn from_args(args: &[String]) -> Config {
        let smoke = args.iter().any(|a| a == "--smoke");
        let sessions = args
            .iter()
            .position(|a| a == "--sessions")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(if smoke { 300 } else { 10_000 });
        Config {
            sessions,
            smoke,
            frames: 200_000,
            instances: 500,
            samples_per_session: 40,
            deadline: if smoke {
                Duration::from_secs(120)
            } else {
                Duration::from_secs(480)
            },
            parked_window: Duration::from_millis(if smoke { 300 } else { 1_000 }),
        }
    }
}

/// Client-side connection state machine: one session per connection,
/// one outstanding request at a time.
enum State {
    /// Preamble + Submit queued; waiting for the server's preamble.
    AwaitPreamble,
    /// Waiting for `Submitted`.
    AwaitSubmitted,
    /// Waiting for a `Snapshot`.
    AwaitSnapshot,
    /// Backing off before the next poll; due at the given instant.
    Parked { due: Instant },
    /// Session finished (or failed) — connection held open, silent.
    Done,
}

struct Conn {
    sock: TcpStream,
    buf: FrameBuf,
    state: State,
    session: SessionId,
    cursor: u64,
    backoff: Duration,
    /// Send stamp of the outstanding request, for round-trip latency.
    sent: Instant,
}

#[derive(Default)]
struct Tally {
    completed: usize,
    client_sheds: usize,
    errors: usize,
    submit_ns: Vec<u64>,
    poll_ns: Vec<u64>,
}

fn quantile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Counters reported by the server child over its stdin/stdout channel.
struct ServerStats {
    accepted: u64,
    shed: u64,
    active: u64,
    resident: u64,
}

/// The reactor child process: spawned with `--server`, reports its
/// bound address on stdout, answers `STATS` lines on stdin.
struct ServerProc {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
    addr: SocketAddr,
    repo: RepoId,
}

impl ServerProc {
    fn spawn(cfg: &Config) -> ServerProc {
        let exe = std::env::current_exe().expect("current exe");
        let mut child = Command::new(exe)
            .args(["--server", "--sessions", &cfg.sessions.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn reactor server process");
        let stdin = child.stdin.take().expect("child stdin");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("server address line");
        let rest = line
            .trim()
            .strip_prefix("ADDR ")
            .expect("ADDR line from server");
        let (addr, repo) = rest.split_once(" REPO ").expect("REPO on ADDR line");
        ServerProc {
            child,
            stdin,
            stdout,
            addr: addr.parse().expect("socket address"),
            repo: RepoId(repo.parse().expect("repo id")),
        }
    }

    fn stats(&mut self) -> ServerStats {
        writeln!(self.stdin, "STATS").expect("server stdin");
        self.stdin.flush().expect("server stdin flush");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("server stats line");
        let mut s = ServerStats {
            accepted: 0,
            shed: 0,
            active: 0,
            resident: 0,
        };
        for tok in line.split_whitespace() {
            if let Some((k, v)) = tok.split_once('=') {
                let v: u64 = v.parse().expect("stats value");
                match k {
                    "accepted" => s.accepted = v,
                    "shed" => s.shed = v,
                    "active" => s.active = v,
                    "resident" => s.resident = v,
                    _ => {}
                }
            }
        }
        s
    }

    /// Fetch the server engine's full diagnostics (histograms included)
    /// over the control pipe: the child answers `DIAG` with one
    /// hex-encoded `DiagnosticsReply` wire message, so the server-side
    /// latency quantiles land in the report without another socket.
    fn diagnostics(&mut self) -> Diagnostics {
        writeln!(self.stdin, "DIAG").expect("server stdin");
        self.stdin.flush().expect("server stdin flush");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("server diag line");
        let hex = line
            .trim()
            .strip_prefix("DIAG ")
            .expect("DIAG line from server");
        let bytes = hex_decode(hex).expect("hex diagnostics payload");
        match decode_message(&bytes).expect("decode diagnostics") {
            Message::DiagnosticsReply(diag) => diag,
            other => panic!("expected DiagnosticsReply, got {other:?}"),
        }
    }

    /// CPU time the reactor thread has used so far, in nanoseconds.
    fn reactor_cpu_ns(&mut self) -> u64 {
        writeln!(self.stdin, "CPU").expect("server stdin");
        self.stdin.flush().expect("server stdin flush");
        let mut line = String::new();
        self.stdout.read_line(&mut line).expect("server cpu line");
        line.trim()
            .strip_prefix("CPU ")
            .and_then(|ns| ns.parse().ok())
            .expect("CPU line from server")
    }

    fn shutdown(self) {
        // Closing stdin is the shutdown signal; the child exits on EOF.
        drop(self.stdin);
        let mut child = self.child;
        let _ = child.wait();
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn hex_decode(hex: &str) -> Option<Vec<u8>> {
    if !hex.len().is_multiple_of(2) {
        return None;
    }
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).ok())
        .collect()
}

/// On-CPU nanoseconds of this process's reactor thread, found by its
/// name among `/proc/self/task/*` (the kernel keeps the first 15 bytes:
/// `exsample-serve-`). `schedstat`'s first field is the scheduler's own
/// nanosecond count; without it, `stat`'s utime + stime ticks (fields 14
/// and 15, 100 Hz) are the fallback.
fn reactor_thread_cpu_ns() -> Option<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let task = tasks.flatten().map(|t| t.path()).find(|t| {
        std::fs::read_to_string(t.join("comm")).is_ok_and(|c| c.starts_with("exsample-serve-"))
    })?;
    if let Ok(sched) = std::fs::read_to_string(task.join("schedstat")) {
        if let Some(ns) = sched.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return Some(ns);
        }
    }
    let stat = std::fs::read_to_string(task.join("stat")).ok()?;
    // The command name may hold spaces; fields resume after its `)`.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// `--server` mode: build the engine + reactor, print the bound
/// address, then serve until the parent closes our stdin.
fn run_server(cfg: &Config) -> ! {
    let _ = polling::raise_nofile_limit(cfg.sessions as u64 + 1024);
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 2,
        quantum: 8,
        ..EngineConfig::default()
    }));
    let truth = Arc::new(
        DatasetSpec::single_class(
            cfg.frames,
            ClassSpec::new(
                "car",
                cfg.instances,
                200.0,
                SkewSpec::CentralNormal { frac95: 0.2 },
            ),
        )
        .generate(17),
    );
    let repo = engine.register_repo("bench-cam", truth, NoiseModel::none(), 5);

    let headroom = 2 * cfg.sessions + 64;
    let mut reactor = Reactor::new(
        engine.clone(),
        ServeConfig {
            admission: AdmissionConfig {
                max_connections: headroom,
                max_connections_per_tenant: headroom,
                max_sessions_per_tenant: headroom as u64,
                max_queue_depth: headroom,
                ..AdmissionConfig::default()
            },
            ..ServeConfig::default()
        },
    )
    .expect("poller");
    let addr = reactor.listen_tcp("127.0.0.1:0").expect("bind");
    let handle = reactor.spawn().expect("spawn reactor");

    println!("ADDR {addr} REPO {}", repo.0);
    std::io::stdout().flush().expect("stdout");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let reply = match line.trim() {
            "STATS" => {
                let s = handle.stats();
                let resident = engine.stats().map(|e| e.live_sessions).unwrap_or_default();
                format!(
                    "STATS accepted={} shed={} active={} resident={resident}",
                    s.accepted, s.shed, s.connections_active
                )
            }
            "DIAG" => {
                let mut payload = Vec::new();
                encode_message(
                    &Message::DiagnosticsReply(engine.diagnostics()),
                    &mut payload,
                );
                format!("DIAG {}", hex_encode(&payload))
            }
            "CPU" => format!("CPU {}", reactor_thread_cpu_ns().unwrap_or(0)),
            "EXIT" => break,
            _ => continue,
        };
        println!("{reply}");
        // lint: allow(lock_blocking, single-threaded control loop; stdin lock is held for the process lifetime by design)
        std::io::stdout().flush().expect("stdout");
    }
    std::process::exit(0);
}

fn spec(repo: RepoId, budget: u64, seed: u64) -> QuerySpec {
    QuerySpec::new(repo, ClassId(0), StopCond::samples(budget))
        .chunks(8)
        .seed(seed)
}

fn open_conn(addr: SocketAddr, repo: RepoId, cfg: &Config, seed: u64) -> std::io::Result<Conn> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_nonblocking(true)?;
    let mut buf = FrameBuf::new();
    buf.queue_preamble(PROTO_VERSION);
    buf.queue(&Message::Submit {
        spec: spec(repo, cfg.samples_per_session, seed),
        ctx: None,
    })
    .expect("spec frames");
    Ok(Conn {
        sock,
        buf,
        state: State::AwaitPreamble,
        session: SessionId(0),
        cursor: 0,
        backoff: BACKOFF_MIN,
        sent: Instant::now(),
    })
}

fn interest(conn: &Conn, key: usize) -> Event {
    let readable = !matches!(conn.state, State::Done | State::Parked { .. });
    match (readable, conn.buf.has_pending_out()) {
        (true, true) => Event::all(key),
        (true, false) => Event::readable(key),
        (false, true) => Event::writable(key),
        (false, false) => Event::none(key),
    }
}

/// Flush, read, and decode one connection as far as the socket allows.
/// Returns false when the connection failed and should be abandoned.
fn drive(conn: &mut Conn, tally: &mut Tally) -> bool {
    if conn.buf.write_to(&mut conn.sock).is_err() {
        tally.errors += 1;
        return false;
    }
    match conn.buf.read_from(&mut conn.sock) {
        Ok(ReadOutcome::Open) => {}
        Ok(ReadOutcome::Eof) | Err(_) => {
            if !matches!(conn.state, State::Done) {
                tally.errors += 1;
                return false;
            }
            return true;
        }
    }
    loop {
        if matches!(conn.state, State::AwaitPreamble) {
            match conn.buf.take_preamble() {
                Ok(Some(v)) if v == PROTO_VERSION => conn.state = State::AwaitSubmitted,
                Ok(Some(_)) | Err(_) => {
                    tally.errors += 1;
                    return false;
                }
                Ok(None) => return true,
            }
        }
        let msg = match conn.buf.next_frame() {
            Ok(Some(m)) => m,
            Ok(None) => break,
            Err(_) => {
                tally.errors += 1;
                return false;
            }
        };
        let rtt = conn.sent.elapsed().as_nanos() as u64;
        match msg {
            Message::Submitted(id) => {
                tally.submit_ns.push(rtt);
                conn.session = id;
                conn.sent = Instant::now();
                conn.buf
                    .queue(&Message::Poll {
                        session: id,
                        cursor: 0,
                        window: None,
                        ctx: None,
                    })
                    .expect("poll frames");
                conn.state = State::AwaitSnapshot;
            }
            Message::Snapshot(snap) => {
                tally.poll_ns.push(rtt);
                conn.cursor = snap.next_cursor;
                if snap.status != SessionStatus::Running && snap.events.is_empty() {
                    conn.state = State::Done;
                    tally.completed += 1;
                } else if snap.events.is_empty() {
                    // No progress: back off before asking again.
                    conn.state = State::Parked {
                        due: Instant::now() + conn.backoff,
                    };
                    conn.backoff = (conn.backoff * 2).min(BACKOFF_MAX);
                } else {
                    conn.backoff = BACKOFF_MIN;
                    conn.sent = Instant::now();
                    conn.buf
                        .queue(&Message::Poll {
                            session: conn.session,
                            cursor: conn.cursor,
                            window: None,
                            ctx: None,
                        })
                        .expect("poll frames");
                }
            }
            Message::Error(ServiceError::Overloaded { .. }) => {
                tally.client_sheds += 1;
                conn.state = State::Done;
            }
            _ => {
                tally.errors += 1;
                return false;
            }
        }
    }
    true
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let cfg = Config::from_args(&args);
    if args.iter().any(|a| a == "--server") {
        run_server(&cfg);
    }
    let limit =
        polling::raise_nofile_limit(cfg.sessions as u64 + 1024).expect("raise RLIMIT_NOFILE");
    eprintln!(
        "serve_bench: {} sessions × {} samples over {} frames (client fd limit {limit}{}) …",
        cfg.sessions,
        cfg.samples_per_session,
        cfg.frames,
        if cfg.smoke { ", smoke" } else { "" },
    );

    let mut server = ServerProc::spawn(&cfg);
    let (addr, repo) = (server.addr, server.repo);

    let poller = Poller::new().expect("client poller");
    let mut events = Events::with_capacity(4096);
    let mut conns: HashMap<usize, Conn> = HashMap::with_capacity(cfg.sessions);
    let mut finished: Vec<Conn> = Vec::with_capacity(cfg.sessions);
    let mut tally = Tally::default();
    let mut opened = 0usize;
    let mut peak_connections = 0u64;
    let t0 = Instant::now();

    while tally.completed + tally.client_sheds + tally.errors < cfg.sessions {
        if t0.elapsed() > cfg.deadline {
            eprintln!(
                "serve_bench: DEADLINE after {:?}: {} of {} sessions finished",
                cfg.deadline, tally.completed, cfg.sessions
            );
            std::process::exit(1);
        }

        // Top up the fleet, one wave at a time.
        let in_handshake = conns
            .values()
            .filter(|c| matches!(c.state, State::AwaitPreamble))
            .count();
        let mut wave = CONNECT_WAVE.saturating_sub(in_handshake);
        while opened < cfg.sessions && wave > 0 {
            let key = opened;
            let mut conn = open_conn(addr, repo, &cfg, key as u64).expect("connect to reactor");
            if !drive(&mut conn, &mut tally) {
                opened += 1;
                wave -= 1;
                continue;
            }
            poller.add(&conn.sock, interest(&conn, key)).expect("add");
            conns.insert(key, conn);
            opened += 1;
            wave -= 1;
        }

        // Wake parked connections whose backoff elapsed.
        let now = Instant::now();
        let mut next_due: Option<Instant> = None;
        let mut due_keys = Vec::new();
        for (&key, conn) in &conns {
            if let State::Parked { due } = conn.state {
                if due <= now {
                    due_keys.push(key);
                } else {
                    next_due = Some(next_due.map_or(due, |d: Instant| d.min(due)));
                }
            }
        }
        for key in due_keys {
            let conn = conns.get_mut(&key).expect("parked conn");
            conn.sent = Instant::now();
            conn.buf
                .queue(&Message::Poll {
                    session: conn.session,
                    cursor: conn.cursor,
                    window: None,
                    ctx: None,
                })
                .expect("poll frames");
            conn.state = State::AwaitSnapshot;
            let alive = drive(conn, &mut tally);
            let conn = conns.remove(&key).expect("parked conn");
            settle(&poller, key, conn, alive, &mut conns, &mut finished);
        }

        let timeout = match next_due {
            Some(due) => due
                .saturating_duration_since(Instant::now())
                .min(Duration::from_millis(100)),
            None => Duration::from_millis(100),
        };
        events.clear();
        let _ = poller.wait(&mut events, Some(timeout));
        for ev in events.iter() {
            if ev.key == NOTIFY_KEY {
                continue;
            }
            let Some(mut conn) = conns.remove(&ev.key) else {
                continue;
            };
            let alive = drive(&mut conn, &mut tally);
            settle(&poller, ev.key, conn, alive, &mut conns, &mut finished);
        }
        peak_connections = peak_connections.max((conns.len() + finished.len()) as u64);
    }
    let wall = t0.elapsed();

    // Every connection is still open and every finished session still
    // resident: the whole fleet was concurrent at the end. The server's
    // own gauge, read now, is the authoritative count.
    let stats = server.stats();
    let diag = server.diagnostics();
    let resident = stats.resident;
    peak_connections = peak_connections.max(stats.active);
    drop(conns);
    let parked = parked_phase(&mut server, &cfg, finished);

    // Server-side view of the same load: accept batches and full
    // request turns, as measured inside the reactor.
    let server_quantiles = |name: &str| {
        diag.histogram(name)
            .map_or((0, 0), |h| (h.quantile(0.50), h.quantile(0.99)))
    };
    let (accept50, accept99) = server_quantiles("accept_ns");
    let (turn50, turn99) = server_quantiles("turn_ns");

    tally.submit_ns.sort_unstable();
    tally.poll_ns.sort_unstable();
    let (sub50, sub99) = (
        quantile(&tally.submit_ns, 0.50),
        quantile(&tally.submit_ns, 0.99),
    );
    let (poll50, poll99) = (
        quantile(&tally.poll_ns, 0.50),
        quantile(&tally.poll_ns, 0.99),
    );

    println!(
        "\n# serve_bench: {} concurrent remote sessions over one reactor thread\n",
        cfg.sessions
    );
    println!("| metric | value |\n|---|---|");
    println!(
        "| sessions completed | {} / {} |",
        tally.completed, cfg.sessions
    );
    println!("| wall time | {:.2} s |", wall.as_secs_f64());
    println!("| peak connections (server gauge) | {peak_connections} |");
    println!("| resident sessions at finish | {resident} |");
    println!("| server sheds | {} |", stats.shed);
    println!("| client errors | {} |", tally.errors);
    println!(
        "| submit RTT p50 / p99 | {:.2} ms / {:.2} ms |",
        sub50 as f64 / 1e6,
        sub99 as f64 / 1e6
    );
    println!(
        "| poll RTT p50 / p99 ({} polls) | {:.2} ms / {:.2} ms |",
        tally.poll_ns.len(),
        poll50 as f64 / 1e6,
        poll99 as f64 / 1e6
    );
    println!(
        "| server accept p50 / p99 | {:.3} ms / {:.3} ms |",
        accept50 as f64 / 1e6,
        accept99 as f64 / 1e6
    );
    println!(
        "| server turn p50 / p99 | {:.3} ms / {:.3} ms |",
        turn50 as f64 / 1e6,
        turn99 as f64 / 1e6
    );
    println!(
        "| reactor thread CPU, {} connections parked for {:.2} s | {:.4} s |",
        parked.connections, parked.window_s, parked.reactor_cpu_s
    );
    println!(
        "| parked connections resumed by one completion | {} / {} in {:.1} ms |",
        parked.resumed, parked.connections, parked.resume_all_ms
    );

    // A smoke run only prints: the checked-in file is the headline
    // tier's record.
    if !cfg.smoke {
        let out = std::env::var("EXSAMPLE_BENCH_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|_| {
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
            });
        let json = format!(
            concat!(
                "{{\n",
                "  \"bench\": \"serve_bench\",\n",
                "  \"sessions\": {},\n",
                "  \"completed\": {},\n",
                "  \"wall_s\": {:.6},\n",
                "  \"peak_connections\": {},\n",
                "  \"resident_sessions\": {},\n",
                "  \"accepted\": {},\n",
                "  \"sheds\": {},\n",
                "  \"client_errors\": {},\n",
                "  \"submit\": {{ \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {} }},\n",
                "  \"poll\": {{ \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {} }},\n",
                "  \"server\": {{ \"accept_p50_ns\": {}, \"accept_p99_ns\": {}, ",
                "\"turn_p50_ns\": {}, \"turn_p99_ns\": {} }},\n",
                "  \"parked\": {{ \"connections\": {}, \"window_s\": {:.3}, ",
                "\"reactor_cpu_s\": {:.6}, \"resumed\": {}, \"resume_all_ms\": {:.3} }}\n",
                "}}\n",
            ),
            cfg.sessions,
            tally.completed,
            wall.as_secs_f64(),
            peak_connections,
            resident,
            stats.accepted,
            stats.shed,
            tally.errors,
            tally.submit_ns.len(),
            sub50,
            sub99,
            tally.poll_ns.len(),
            poll50,
            poll99,
            accept50,
            accept99,
            turn50,
            turn99,
            parked.connections,
            parked.window_s,
            parked.reactor_cpu_s,
            parked.resumed,
            parked.resume_all_ms,
        );
        std::fs::write(&out, json).expect("write BENCH_serve.json");
        eprintln!("wrote {}", out.display());
    }
    server.shutdown();

    if cfg.smoke {
        let ok = stats.shed == 0
            && tally.client_sheds == 0
            && tally.errors == 0
            && tally.completed == cfg.sessions
            && parked.resumed == parked.connections;
        if ok {
            println!(
                "\nSMOKE OK: {} sessions, zero sheds, zero errors",
                tally.completed
            );
        } else {
            println!(
                "\nSMOKE FAILED: completed {} of {}, sheds {}+{}, errors {}, resumed {} of {} parked",
                tally.completed,
                cfg.sessions,
                stats.shed,
                tally.client_sheds,
                tally.errors,
                parked.resumed,
                parked.connections
            );
            std::process::exit(1);
        }
    }
}

/// What the parked phase measured.
struct Parked {
    connections: usize,
    window_s: f64,
    reactor_cpu_s: f64,
    resumed: usize,
    resume_all_ms: f64,
}

/// Park the whole fleet on one long-running session, read the reactor
/// thread's CPU time over a quiet window, then finish the session and
/// count the connections its completion resumes.
fn parked_phase(server: &mut ServerProc, cfg: &Config, mut fleet: Vec<Conn>) -> Parked {
    let control = RemoteClient::connect_tcp(server.addr).expect("control connection");
    // 4096 chunks make every Thompson draw a few tens of microseconds:
    // sweeping the repository takes this session many times the window,
    // and nothing but cancellation ends it sooner.
    let anchor = control
        .submit(
            QuerySpec::new(server.repo, ClassId(0), StopCond::results(u64::MAX))
                .chunks(4096)
                .seed(u64::MAX),
        )
        .expect("submit the anchor session");
    for conn in &mut fleet {
        conn.sock.set_nonblocking(false).expect("blocking socket");
        // A terminal snapshot is a few dozen bytes; a `Wait` would be
        // answered with the anchor's 4096-chunk report, 10,000 times.
        let park = Message::Subscribe {
            session: anchor,
            cursor: u64::MAX,
            window: 1,
        };
        conn.buf.queue(&park).expect("subscribe frames");
        conn.buf.write_to(&mut conn.sock).expect("send Subscribe");
    }
    // The parks were written before this request, and the reactor serves
    // readiness in arrival order: once it is answered they are parked.
    control.stats().expect("stats round trip");
    std::thread::sleep(Duration::from_millis(100));

    let cpu0 = server.reactor_cpu_ns();
    std::thread::sleep(cfg.parked_window);
    let cpu1 = server.reactor_cpu_ns();
    let still = control
        .poll(anchor, u64::MAX, Some(1))
        .expect("poll anchor");
    assert_eq!(
        still.status,
        SessionStatus::Running,
        "the anchor session ended inside the parked window"
    );

    let t0 = Instant::now();
    control.cancel(anchor).expect("cancel the anchor");
    let mut resumed = 0;
    for conn in &mut fleet {
        let answered = loop {
            match conn.buf.next_frame() {
                Ok(Some(Message::Snapshot(end))) => break end.status == SessionStatus::Cancelled,
                Ok(None) if matches!(conn.buf.fill_from(&mut conn.sock), Ok(n) if n > 0) => {}
                _ => break false,
            }
        };
        resumed += usize::from(answered);
    }
    Parked {
        connections: fleet.len(),
        window_s: cfg.parked_window.as_secs_f64(),
        reactor_cpu_s: cpu1.saturating_sub(cpu0) as f64 / 1e9,
        resumed,
        resume_all_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// Re-register or retire a connection after a drive.
fn settle(
    poller: &Poller,
    key: usize,
    conn: Conn,
    alive: bool,
    conns: &mut HashMap<usize, Conn>,
    finished: &mut Vec<Conn>,
) {
    if !alive {
        let _ = poller.delete(&conn.sock);
        return;
    }
    if matches!(conn.state, State::Done) {
        // Keep the socket open (the session stays resident) but stop
        // polling it for readiness.
        let _ = poller.delete(&conn.sock);
        finished.push(conn);
        return;
    }
    let _ = poller.modify(&conn.sock, interest(&conn, key));
    conns.insert(key, conn);
}
