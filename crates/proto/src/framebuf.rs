//! The frame codec: incremental assembly/disassembly of one
//! connection's bytes.
//!
//! A connection opens with a 14-byte preamble from each side — the
//! [`framing`](exsample_store::framing) segment header (magic
//! `PROTO_MAGIC`, protocol version, reserved fingerprint) — after
//! which every message travels as one framed record:
//!
//! ```text
//! len u32 | crc32 u32 | payload (one encoded Message)
//! ```
//!
//! The length is bounded by `MAX_FRAME_LEN` before any allocation and
//! the payload is checksum-verified before any decoding, so a damaged or
//! hostile stream surfaces as a clean `InvalidData` error, never a
//! misparse.
//!
//! [`FrameBuf`] is the only implementation of that format. It never
//! assumes how bytes arrive: bytes in from `read()`, complete
//! [`Message`]s out when enough have accumulated; messages queued,
//! flushed as far as the socket will take them. A readiness-driven
//! reactor drains a non-blocking socket into it
//! ([`FrameBuf::read_from`]); a blocking peer fills it one `read` at a
//! time ([`FrameBuf::fill_from`], which is all
//! [`Framed`](crate::Framed) is).

use crate::wire::{decode_message, encode_message, Message};
use crate::{MAX_FRAME_LEN, PROTO_MAGIC};
use exsample_store::crc::crc32;
use exsample_store::framing::{
    read_segment_header, write_segment_header, RecordHeader, RECORD_OVERHEAD, SEGMENT_HEADER_LEN,
};
use exsample_store::le::{Le, Reader};
use std::io::{self, Read, Write};

/// Per-`read_from` ceiling on bytes pulled off the socket. Bounds how
/// long one connection can monopolise a reactor turn; with oneshot
/// re-arming, leftover readiness simply redelivers on the next poll.
const READ_BURST: usize = 256 << 10;

/// Smallest request of one [`FrameBuf::fill_from`]: a whole small frame
/// (the common request and streamed batch) arrives in a single `read`.
const FILL_MIN: usize = 4 << 10;

/// What a drain of the readable socket concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// The peer may still send more.
    Open,
    /// The peer closed its write side (clean EOF).
    Eof,
}

/// Incremental, allocation-reusing frame codec for one connection: an
/// inbound byte accumulator that yields decoded messages and an outbound
/// byte queue that flushes as far as `write()` allows.
#[derive(Debug, Default)]
pub struct FrameBuf {
    /// Bytes received but not yet consumed; `in_start` is the cursor of
    /// the first live byte (compacted lazily to amortise the memmove).
    incoming: Vec<u8>,
    in_start: usize,
    /// Bytes queued to send; `out_start` marks how far the socket got.
    outgoing: Vec<u8>,
    out_start: usize,
}

impl FrameBuf {
    /// An empty buffer pair.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    // ---- inbound ----

    /// Append raw received bytes (the sans-IO entry; socket drivers use
    /// [`read_from`](Self::read_from) or [`fill_from`](Self::fill_from)).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.incoming.extend_from_slice(bytes);
    }

    /// Drain a **non-blocking** socket: pull whatever it has, up to the
    /// per-turn burst cap. `Ok(Eof)` on clean peer close; `WouldBlock`
    /// is absorbed (that is the normal end of a drain, not an error).
    /// On a blocking stream this would stall after the first chunk —
    /// use [`fill_from`](Self::fill_from) there.
    pub fn read_from<R: Read + ?Sized>(&mut self, io: &mut R) -> io::Result<ReadOutcome> {
        // A stack chunk shared by every connection of the reactor: ten
        // thousand idle connections must not each retain read headroom.
        let mut chunk = [0u8; 16 << 10];
        let mut pulled = 0usize;
        loop {
            match io.read(&mut chunk) {
                Ok(0) => return Ok(ReadOutcome::Eof),
                Ok(n) => {
                    // A conforming `Read` bounds n by the buffer; a
                    // lying one yields a short chunk, never a panic.
                    let got = chunk.get(..n).unwrap_or(&chunk);
                    self.incoming.extend_from_slice(got);
                    pulled += n;
                    if pulled >= READ_BURST {
                        return Ok(ReadOutcome::Open);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(ReadOutcome::Open),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Fill from a **blocking** stream with exactly one `read`, straight
    /// into the accumulator, returning the byte count (`0` = EOF). One
    /// read because a second would park the caller waiting for bytes
    /// the peer only sends after our reply. Each call asks for as much
    /// again as is already waiting, so a large frame arrives in a
    /// logarithmic number of reads; whatever lands beyond the current
    /// frame stays buffered for the next one.
    pub fn fill_from<R: Read + ?Sized>(&mut self, io: &mut R) -> io::Result<usize> {
        let filled = self.incoming.len();
        let want = self.pending_in().max(FILL_MIN);
        self.incoming.resize(filled + want, 0);
        let got = loop {
            match io.read(self.incoming.get_mut(filled..).unwrap_or_default()) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other,
            }
        };
        let n = got.as_ref().map_or(0, |&n| n.min(want));
        self.incoming.truncate(filled + n);
        got
    }

    /// Try to consume the connection preamble, returning the peer's
    /// announced protocol version once 14 bytes have arrived. `Ok(None)`
    /// means "not enough bytes yet"; bad magic is `InvalidData`.
    pub fn take_preamble(&mut self) -> io::Result<Option<u16>> {
        let Some(preamble) = self.live().get(..SEGMENT_HEADER_LEN) else {
            return Ok(None);
        };
        let (header, _) = read_segment_header(preamble, PROTO_MAGIC).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad protocol preamble: {e}"),
            )
        })?;
        self.consume(SEGMENT_HEADER_LEN);
        Ok(Some(header.version))
    }

    /// Try to decode the next complete frame. `Ok(None)` means more
    /// bytes are needed; oversize lengths, checksum mismatches, and
    /// undecodable payloads are `InvalidData`.
    pub fn next_frame(&mut self) -> io::Result<Option<Message>> {
        // The reader stands in for manual length checks: "not enough
        // bytes yet" falls out as an `Err`, and no slice here can panic
        // however the peer fragments its writes.
        let mut r = Reader::new(self.live());
        let Ok(RecordHeader { len, crc }) = RecordHeader::get(&mut r) else {
            return Ok(None);
        };
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame length exceeds limit",
            ));
        }
        let Ok(payload) = r.take(len as usize) else {
            return Ok(None);
        };
        if crc32(payload) != crc {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame checksum mismatch",
            ));
        }
        let msg = decode_message(payload).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed protocol message: {e}"),
            )
        })?;
        self.consume(RECORD_OVERHEAD + len as usize);
        Ok(Some(msg))
    }

    /// Bytes buffered inbound but not yet consumed.
    pub fn pending_in(&self) -> usize {
        self.incoming.len() - self.in_start
    }

    /// The unconsumed inbound bytes, verbatim — for connections that
    /// speak something other than XSRP frames (the reactor's plaintext
    /// `/metrics` endpoint parses HTTP request bytes directly).
    pub fn peek_in(&self) -> &[u8] {
        self.live()
    }

    /// The live inbound window. The only slice of `incoming` in this
    /// module: `in_start` only ever advances by amounts bounded by
    /// `pending_in` (asserted in `consume_in`, length-checked in the
    /// decoders), so the cursor cannot pass the end.
    fn live(&self) -> &[u8] {
        self.incoming.get(self.in_start..).unwrap_or_default()
    }

    /// Consume `n` raw inbound bytes previously seen via
    /// [`peek_in`](Self::peek_in).
    ///
    /// # Panics
    ///
    /// If `n` exceeds [`pending_in`](Self::pending_in).
    pub fn consume_in(&mut self, n: usize) {
        assert!(n <= self.pending_in(), "consumed past the inbound buffer");
        self.consume(n);
    }

    fn consume(&mut self, n: usize) {
        self.in_start += n;
        // Compact once the dead prefix dominates, so the buffer doesn't
        // grow without bound across a long-lived connection.
        if self.in_start > 4096 && self.in_start * 2 >= self.incoming.len() {
            self.incoming.drain(..self.in_start);
            self.in_start = 0;
        }
    }

    // ---- outbound ----

    /// Queue our connection preamble (must be the first bytes sent).
    pub fn queue_preamble(&mut self, version: u16) {
        write_segment_header(&mut self.outgoing, PROTO_MAGIC, version, 0);
    }

    /// Frame and queue one message for sending, encoded in place: the
    /// header is reserved, the payload encoded straight behind it, then
    /// `len`/`crc32` patched in — no per-message allocation. A message
    /// over `MAX_FRAME_LEN` is refused and leaves nothing queued.
    pub fn queue(&mut self, msg: &Message) -> io::Result<()> {
        let frame = self.outgoing.len();
        self.outgoing.extend_from_slice(&[0; RECORD_OVERHEAD]);
        encode_message(msg, &mut self.outgoing);
        let (header, payload) = self
            .outgoing
            .get_mut(frame..)
            .unwrap_or_default()
            .split_at_mut(RECORD_OVERHEAD);
        if payload.len() > MAX_FRAME_LEN as usize {
            self.outgoing.truncate(frame);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "message exceeds maximum frame length",
            ));
        }
        let (len, crc) = header.split_at_mut(4);
        len.copy_from_slice(&(payload.len() as u32).to_le_bytes());
        crc.copy_from_slice(&crc32(payload).to_le_bytes());
        Ok(())
    }

    /// Flush queued bytes as far as the socket will take them. Returns
    /// `true` when the queue fully drained, `false` when the socket
    /// pushed back (`WouldBlock`) — arm writable interest and retry on
    /// the next readiness event.
    pub fn write_to<W: Write + ?Sized>(&mut self, io: &mut W) -> io::Result<bool> {
        // A non-empty-slice pattern instead of index arithmetic: the
        // drain loop has no panic path even if `out_start` drifted.
        while let Some(rest @ [_, ..]) = self.outgoing.get(self.out_start..) {
            match io.write(rest) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => self.out_start += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.outgoing.clear();
        self.out_start = 0;
        Ok(true)
    }

    /// Are there queued bytes the socket has not yet taken?
    pub fn has_pending_out(&self) -> bool {
        self.out_start < self.outgoing.len()
    }

    /// Queue raw bytes verbatim, bypassing XSRP framing — the metrics
    /// endpoint writes HTTP/1.0 responses through the same flush path.
    pub fn queue_raw(&mut self, bytes: &[u8]) {
        self.outgoing.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PROTO_VERSION;

    /// Round-trip helper: everything one `FrameBuf` queued, fed into
    /// another.
    fn drain_into(src: &mut FrameBuf, dst: &mut FrameBuf) {
        let mut wire = Vec::new();
        src.write_to(&mut wire).unwrap();
        dst.extend(&wire);
    }

    #[test]
    fn preamble_and_frames_decode_incrementally() {
        let mut tx = FrameBuf::new();
        tx.queue_preamble(PROTO_VERSION);
        tx.queue(&Message::Repos).unwrap();
        tx.queue(&Message::Ack {
            cursor: 42,
            ctx: None,
        })
        .unwrap();
        let mut wire = Vec::new();
        tx.write_to(&mut wire).unwrap();

        // Feed one byte at a time: every prefix must yield "need more",
        // never an error, until the unit completes.
        let mut rx = FrameBuf::new();
        let mut got_version = None;
        let mut msgs = Vec::new();
        for &b in &wire {
            rx.extend(&[b]);
            if got_version.is_none() {
                got_version = rx.take_preamble().unwrap();
                continue;
            }
            while let Some(m) = rx.next_frame().unwrap() {
                msgs.push(m);
            }
        }
        assert_eq!(got_version, Some(PROTO_VERSION));
        assert_eq!(
            msgs,
            vec![
                Message::Repos,
                Message::Ack {
                    cursor: 42,
                    ctx: None
                }
            ]
        );
        assert_eq!(rx.pending_in(), 0);
    }

    #[test]
    fn wire_bytes_match_blocking_framed() {
        // Whoever drives the codec, what reaches the wire is the store's
        // record framing around each encoded message: pins the in-place
        // encoder (header reserved, payload encoded behind it,
        // `len`/`crc32` patched) against the format's declaration, and
        // that the blocking adapter adds and withholds nothing.
        let msgs = [
            Message::Repos,
            Message::Hello {
                token: "tok".to_owned(),
            },
        ];
        let mut longhand = Vec::new();
        for m in &msgs {
            let mut payload = Vec::new();
            encode_message(m, &mut payload);
            exsample_store::framing::write_record(&mut longhand, &payload);
        }

        let mut buf = FrameBuf::new();
        let mut framed = crate::Framed::new(io::Cursor::new(Vec::new()));
        for m in &msgs {
            buf.queue(m).unwrap();
            framed.send(m).unwrap();
        }
        let mut queued = Vec::new();
        buf.write_to(&mut queued).unwrap();
        assert_eq!(queued, longhand);
        assert_eq!(framed.get_ref().get_ref(), &longhand);
    }

    #[test]
    fn oversize_message_is_refused_and_leaves_no_partial_frame() {
        let mut buf = FrameBuf::new();
        buf.queue(&Message::Repos).unwrap();
        let too_long = Message::Hello {
            token: "x".repeat(MAX_FRAME_LEN as usize),
        };
        let err = buf.queue(&too_long).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        buf.queue(&Message::CancelOk).unwrap();
        // What goes out is exactly the two accepted frames.
        let mut rx = FrameBuf::new();
        drain_into(&mut buf, &mut rx);
        assert_eq!(rx.next_frame().unwrap(), Some(Message::Repos));
        assert_eq!(rx.next_frame().unwrap(), Some(Message::CancelOk));
        assert_eq!(rx.pending_in(), 0);
    }

    #[test]
    fn compaction_keeps_buffer_bounded() {
        let mut tx = FrameBuf::new();
        let mut rx = FrameBuf::new();
        for i in 0..10_000u64 {
            tx.queue(&Message::Ack {
                cursor: i,
                ctx: None,
            })
            .unwrap();
            drain_into(&mut tx, &mut rx);
            assert_eq!(
                rx.next_frame().unwrap(),
                Some(Message::Ack {
                    cursor: i,
                    ctx: None
                })
            );
        }
        assert_eq!(rx.pending_in(), 0);
        // The dead prefix must have been compacted away, not retained.
        assert!(rx.incoming.len() < 64 << 10);
    }
}
