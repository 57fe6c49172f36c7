//! Byte-stream transport for blocking peers: [`Framed`], the blocking
//! face of the [`FrameBuf`] codec, and an in-memory duplex pipe for
//! dependency-free tests.
//!
//! The wire format — preamble, `len | crc32 | payload` frames, the
//! bound-before-allocate and verify-before-decode rules — is
//! [`framebuf`](crate::framebuf)'s and lives only there.

use crate::framebuf::FrameBuf;
use crate::wire::Message;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::sync::{Arc, Condvar, Mutex};

/// A message-framed view over any blocking `Read + Write` byte stream:
/// a [`FrameBuf`] plus the stream it is flushed to and filled from.
pub struct Framed<T> {
    io: T,
    buf: FrameBuf,
}

impl<T: Read + Write> Framed<T> {
    /// Wrap a byte stream. No bytes are exchanged until
    /// [`Framed::handshake`] / [`Framed::send`] / [`Framed::recv`].
    pub fn new(io: T) -> Self {
        Framed {
            io,
            buf: FrameBuf::new(),
        }
    }

    /// The underlying byte stream — e.g. to adjust socket options such as
    /// read timeouts around the handshake.
    pub fn get_ref(&self) -> &T {
        &self.io
    }

    /// Exchange protocol preambles: write ours (announcing `version`),
    /// read the peer's, and return the version the peer announced.
    /// Callers decide the compatibility policy; mismatched magic is
    /// rejected here.
    pub fn handshake(&mut self, version: u16) -> io::Result<u16> {
        self.buf.queue_preamble(version);
        self.flush()?;
        loop {
            if let Some(theirs) = self.buf.take_preamble()? {
                return Ok(theirs);
            }
            self.fill()?;
        }
    }

    /// Frame and send one message (queue, drain, flush), after whatever
    /// [`queue`](Self::queue) left waiting.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.buf.queue(msg)?;
        self.flush()
    }

    /// Frame one message without writing it: it goes out with the next
    /// [`send`](Self::send) or [`flush`](Self::flush), or before the
    /// next [`recv`](Self::recv) that has to read, whichever comes
    /// first.
    pub fn queue(&mut self, msg: &Message) -> io::Result<()> {
        self.buf.queue(msg)
    }

    /// Are there queued bytes not yet written to the stream?
    pub fn has_pending_out(&self) -> bool {
        self.buf.has_pending_out()
    }

    /// Receive and decode one message: the next buffered frame, or one
    /// more read until there is one. Queued output is written before
    /// the first read, so a peer waiting on it is never left waiting.
    /// An EOF *between* frames surfaces as `UnexpectedEof` — the
    /// caller's clean-disconnect signal.
    pub fn recv(&mut self) -> io::Result<Message> {
        loop {
            if let Some(msg) = self.buf.next_frame()? {
                return Ok(msg);
            }
            if self.buf.has_pending_out() {
                self.flush()?;
            }
            self.fill()?;
        }
    }

    /// Write everything queued.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.write_to(&mut self.io)? {
            // Only a non-blocking stream gets here; the bytes stay
            // queued and go out with the next send.
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.io.flush()
    }

    fn fill(&mut self) -> io::Result<()> {
        match self.buf.fill_from(&mut self.io)? {
            0 => Err(io::ErrorKind::UnexpectedEof.into()),
            _ => Ok(()),
        }
    }
}

// ---- in-memory duplex pipe ----

#[derive(Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

#[derive(Default)]
struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
}

impl Pipe {
    fn close(&self) {
        // Runs from Drop: tolerate a poisoned peer (its reader already
        // panicked) rather than aborting the process on a double panic.
        if let Ok(mut state) = self.state.lock() {
            state.closed = true;
        }
        self.cv.notify_all();
    }
}

/// Poisoning on a pipe lock means the peer died mid-update: surface a
/// typed `BrokenPipe` instead of cascading the panic into this thread.
/// (The `.lock()` stays syntactically visible at every call site so
/// `exsample-lint`'s lock rules can see the acquisition.)
fn pipe_poisoned<T>(_: T) -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "pipe lock poisoned")
}

/// One endpoint of an in-memory bidirectional byte pipe (see [`duplex`]).
/// Blocking `Read + Write` with EOF-on-drop semantics, like a loopback
/// socket without the OS.
pub struct DuplexStream {
    /// Peer-written bytes we read.
    rx: Arc<Pipe>,
    /// Bytes we write for the peer to read.
    tx: Arc<Pipe>,
}

/// A connected pair of in-memory byte streams: what one endpoint writes,
/// the other reads. Dropping an endpoint EOFs its peer's reads and turns
/// its peer's writes into `BrokenPipe` — the shutdown semantics a socket
/// would have, without any OS dependency. Used by the protocol tests to
/// run a full client/server conversation in-process.
pub fn duplex() -> (DuplexStream, DuplexStream) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (
        DuplexStream {
            rx: a.clone(),
            tx: b.clone(),
        },
        DuplexStream { rx: b, tx: a },
    )
}

impl Read for DuplexStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.rx.state.lock().map_err(pipe_poisoned)?;
        while state.buf.is_empty() {
            if state.closed {
                return Ok(0); // EOF
            }
            state = self.rx.cv.wait(state).map_err(pipe_poisoned)?;
        }
        let n = buf.len().min(state.buf.len());
        for (slot, byte) in buf.iter_mut().zip(state.buf.drain(..n)) {
            *slot = byte;
        }
        Ok(n)
    }
}

impl Write for DuplexStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.tx.state.lock().map_err(pipe_poisoned)?;
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer endpoint dropped",
            ));
        }
        state.buf.extend(buf);
        self.tx.cv.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DuplexStream {
    fn drop(&mut self) {
        // EOF the peer's pending/future reads and fail its writes.
        self.rx.close();
        self.tx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::encode_message;
    use exsample_engine::SessionId;
    use exsample_store::framing::{write_record, RecordHeader};
    use exsample_store::le::Le;

    /// A blocking stream handing out `bytes` at most `piece` at a time,
    /// counting the reads it served; writes are discarded.
    struct Trickle {
        bytes: io::Cursor<Vec<u8>>,
        piece: usize,
        reads: usize,
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = self.piece.min(buf.len());
            self.bytes.read(&mut buf[..n])
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn recv_reads_once_per_piece_and_never_past_the_stream() {
        // Two frames behind a preamble, delivered in 1-byte, 7-byte and
        // whole-stream pieces. Each recv must return as soon as its
        // frame is complete — a fill that looped until the stream ran
        // dry would sit in a blocking read the peer never satisfies —
        // so the reads served by then are exactly one per piece.
        let msgs = [Message::Repos, Message::CancelOk];
        let mut wire = FrameBuf::new();
        wire.queue_preamble(crate::PROTO_VERSION);
        let (mut bytes, mut ends) = (Vec::new(), Vec::new());
        for m in &msgs {
            wire.queue(m).unwrap();
            wire.write_to(&mut bytes).unwrap();
            ends.push(bytes.len());
        }
        for piece in [1, 7, bytes.len()] {
            let mut framed = Framed::new(Trickle {
                bytes: io::Cursor::new(bytes.clone()),
                piece,
                reads: 0,
            });
            assert_eq!(framed.handshake(3).unwrap(), crate::PROTO_VERSION);
            for (m, end) in msgs.iter().zip(&ends) {
                assert_eq!(&framed.recv().unwrap(), m);
                assert_eq!(framed.get_ref().reads, end.div_ceil(piece), "piece {piece}");
            }
            // The stream is spent: the next recv is a clean EOF.
            assert_eq!(
                framed.recv().unwrap_err().kind(),
                io::ErrorKind::UnexpectedEof
            );
        }
    }

    #[test]
    fn frames_cross_the_pipe_in_order() {
        let (a, b) = duplex();
        let (mut a, mut b) = (Framed::new(a), Framed::new(b));
        let t = std::thread::spawn(move || {
            b.send(&Message::Repos).unwrap();
            b.send(&Message::Ack {
                cursor: 3,
                ctx: None,
            })
            .unwrap();
            b.recv().unwrap()
        });
        assert_eq!(a.recv().unwrap(), Message::Repos);
        assert_eq!(
            a.recv().unwrap(),
            Message::Ack {
                cursor: 3,
                ctx: None
            }
        );
        a.send(&Message::CancelOk).unwrap();
        assert_eq!(t.join().unwrap(), Message::CancelOk);
    }

    #[test]
    fn dropping_an_endpoint_eofs_the_peer() {
        let (a, b) = duplex();
        let mut b = Framed::new(b);
        drop(a);
        let err = b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(b
            .send(&Message::Repos)
            .is_err_and(|e| e.kind() == io::ErrorKind::BrokenPipe));
    }

    #[test]
    fn corrupt_frames_are_detected() {
        // Build a valid frame, flip one payload bit, feed it through.
        let (mut a, b) = duplex();
        let mut framed_b = Framed::new(b);
        let mut payload = Vec::new();
        encode_message(
            &Message::Wait {
                session: SessionId(5),
            },
            &mut payload,
        );
        let mut frame = Vec::new();
        write_record(&mut frame, &payload);
        let last = frame.len() - 1;
        frame[last] ^= 0x04;
        a.write_all(&frame).unwrap();
        let err = framed_b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"));
    }

    #[test]
    fn absurd_frame_length_rejected_without_allocation() {
        let (mut a, b) = duplex();
        let mut framed_b = Framed::new(b);
        // Only the header arrives: the length is refused before any
        // payload byte is waited for.
        let mut frame = Vec::new();
        RecordHeader {
            len: u32::MAX,
            crc: 0,
        }
        .put(&mut frame);
        a.write_all(&frame).unwrap();
        let err = framed_b.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("length"));
    }

    #[test]
    fn handshake_exchanges_versions() {
        let (a, b) = duplex();
        let (mut a, mut b) = (Framed::new(a), Framed::new(b));
        let t = std::thread::spawn(move || b.handshake(7).unwrap());
        assert_eq!(a.handshake(1).unwrap(), 7);
        assert_eq!(t.join().unwrap(), 1);
    }

    #[test]
    fn handshake_rejects_wrong_magic() {
        let (mut a, b) = duplex();
        let mut framed_b = Framed::new(b);
        a.write_all(b"HTTP/1.1 not this protocol").unwrap();
        let err = framed_b.handshake(1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("preamble"));
    }
}
