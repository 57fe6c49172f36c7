//! `exsample-serve`: the readiness-driven driver of the wire protocol,
//! with per-tenant admission control.
//!
//! The protocol's server side is one sans-IO state machine,
//! [`exsample_proto::Connection`]. The blocking pump
//! ([`SearchServer`](exsample_proto::SearchServer)) drives it from one
//! thread per connection — the simplest correct deployment, whose
//! economics stop at a few hundred clients: every connection pins a
//! stack, and every blocking `Wait`/`Subscribe` pins a thread. This
//! crate is the scale-out driver of the *same* `Connection` — one
//! event-loop thread multiplexing thousands of non-blocking sockets
//! over the same [`Engine`](exsample_engine::Engine):
//!
//! * [`reactor`] — the epoll-based event loop ([`Reactor`] /
//!   [`ServeHandle`]): oneshot readiness via the [`polling`] shim, TCP
//!   and Unix-domain listeners, accept bursts, handshake deadlines, a
//!   plaintext `/metrics` listener, and parked `Wait`/`Subscribe`
//!   connections resumed from the engine's completion queue — by the
//!   session that progressed, never on a clock.
//! * [`auth`] — bearer-token tenant identity ([`AuthRegistry`], [`Tier`]):
//!   the `Hello` handshake binds a connection to a verified
//!   [`TenantId`](exsample_engine::TenantId), and tier weights multiply
//!   into the engine's weighted-fair scheduler so paying tenants make
//!   proportionally faster progress under contention.
//! * [`admission`] — typed load shedding ([`Admission`] /
//!   [`AdmissionConfig`]): connection caps, per-tenant connection and
//!   session quotas, and an engine-wide queue-depth bound, all answered
//!   with `Overloaded { retry_after_ms }` on a *surviving* connection
//!   so clients can back off and retry
//!   ([`RemoteClient::submit_with_retry`](exsample_proto::RemoteClient)).
//! * [`framebuf`] — re-export of the frame codec,
//!   [`exsample_proto::FrameBuf`].
//!
//! Auth and admission reach the connection through the four decisions
//! of [`exsample_proto::Host`]; nothing else differs between the two
//! drivers, so a search trace obtained through the reactor is
//! **bit-identical** to one obtained through the blocking pump or the
//! in-process engine — the integration tests pin all three against each
//! other. See `docs/SERVING.md` for the design discussion and
//! `crates/bench/src/bin/serve_bench.rs` for the 10k-connection
//! benchmark.

#![warn(missing_docs)]

pub mod admission;
pub mod auth;
pub mod framebuf;
#[cfg(unix)]
pub mod reactor;

pub use admission::{Admission, AdmissionConfig};
pub use auth::{AuthRegistry, Tier};
#[cfg(unix)]
pub use reactor::{Reactor, ServeHandle, ServeStats};

use std::time::Duration;

/// Configuration of a [`Reactor`]: who may connect ([`AuthRegistry`]),
/// how much they may use ([`AdmissionConfig`]), and how long a fresh
/// connection has to complete the version handshake.
#[derive(Debug)]
pub struct ServeConfig {
    /// Token → tenant registry. Empty = open server (every connection
    /// runs as the anonymous tenant at base weight).
    pub auth: AuthRegistry,
    /// Connection, quota, and shed limits.
    pub admission: AdmissionConfig,
    /// Deadline for a fresh connection's preamble, after which a silent
    /// peer is dropped. A peer that connects and then stalls would
    /// otherwise retain its buffers until process exit; an *established*
    /// connection may idle between requests indefinitely.
    pub handshake_timeout: Duration,
}

impl ServeConfig {
    /// The default handshake deadline.
    pub const DEFAULT_HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);
}

impl Default for ServeConfig {
    /// Open auth, default admission limits,
    /// [`ServeConfig::DEFAULT_HANDSHAKE_TIMEOUT`].
    fn default() -> Self {
        ServeConfig {
            auth: AuthRegistry::new(),
            admission: AdmissionConfig::default(),
            handshake_timeout: ServeConfig::DEFAULT_HANDSHAKE_TIMEOUT,
        }
    }
}
