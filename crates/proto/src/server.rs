//! The blocking driver of [`Connection`]: one thread, one connection.

use crate::connection::{Connection, Host, ANONYMOUS};
use exsample_engine::{
    Engine, ServiceError, SessionId, SessionReport, SessionSnapshot, TenantBinding,
};
use std::io::{self, Read, Write};
use std::sync::Arc;

/// Serves the wire protocol over any blocking `Read + Write` connection,
/// multiplexing every client onto one shared [`Engine`] — the deployment
/// shape the paper's economics assume: overlapping queries from many
/// users sharing one detector budget and one detection cache.
///
/// This is the simplest driver of the [`Connection`] state machine, the
/// one tests and in-process fleets use over [`duplex`](crate::duplex)
/// pipes: call [`SearchServer::serve_connection`] from one thread per
/// connection. It has no listener, no auth registry and no admission
/// limits — every connection runs as the anonymous tenant, exactly what
/// an `exsample-serve` reactor with an empty `ServeConfig` answers. For
/// sockets, deadlines and quotas, use that reactor; it drives the same
/// `Connection`.
pub struct SearchServer {
    engine: Arc<Engine>,
}

impl SearchServer {
    /// A server multiplexing connections over `engine`.
    pub fn new(engine: Arc<Engine>) -> Self {
        SearchServer { engine }
    }

    /// Serve one client connection to completion (client disconnect, or
    /// a close the protocol calls for).
    ///
    /// The whole conversation — handshake, requests, streams — is
    /// [`Connection`]'s; this is only its blocking pump: flush what is
    /// queued, then serve one buffered frame or push one stream batch
    /// or, when neither can be done, block in one `read`. Blocking
    /// requests (`Wait`, a subscription between batches) block inside
    /// the engine's `wait` / `poll_wait`, so they stall only this
    /// connection and cost no busy-polling.
    ///
    /// Returns `Err` only for transport failures and undecodable input
    /// (bad magic, a corrupt frame). A peer on another protocol version,
    /// or one that breaks the conversation's rules, is answered as the
    /// protocol prescribes and the connection closed — `Ok`, like a
    /// disconnect; service-level failures travel to the client as
    /// [`Message::Error`](crate::Message::Error).
    pub fn serve_connection<T: Read + Write>(&self, io: T) -> io::Result<()> {
        match self.pump(io) {
            Err(e) if is_disconnect(&e) => Ok(()),
            other => other,
        }
    }

    fn pump<T: Read + Write>(&self, mut io: T) -> io::Result<()> {
        let mut conn = Connection::new();
        loop {
            conn.buf_mut().write_to(&mut io)?;
            io.flush()?;
            if conn.is_closing() {
                return Ok(());
            }
            // One step per flush: replies leave before the next frame
            // is served, so a blocking `Wait` never sits on an earlier
            // request's answer, and each streamed batch leaves before
            // the pump blocks in the engine for the next one.
            if !conn.step(&self.engine, &mut Blocking)? && conn.buf_mut().fill_from(&mut io)? == 0 {
                return Ok(());
            }
        }
    }
}

/// The host of a blocking pump: no registry, no limits, and "not yet"
/// is answered by waiting inside the engine — the connection's own
/// thread is the thing that parks, on a watch it left in the session's
/// progress cell, woken by that session's progress alone.
struct Blocking;

impl Host for Blocking {
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
        engine.wait(session).map(Some)
    }

    fn next_batch(
        &mut self,
        engine: &Engine,
        session: SessionId,
        cursor: u64,
        window: u32,
    ) -> Result<Option<SessionSnapshot>, ServiceError> {
        engine.poll_wait(session, cursor, Some(window)).map(Some)
    }
}

/// True for error kinds that mean "the peer went away" — a clean end of
/// service, not a failure.
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
    )
}
