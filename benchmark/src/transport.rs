//! A byte- and call-counting `Read + Write` wrapper for the client end of
//! a connection: every `read`/`write` the protocol client issues is one
//! syscall on the wrapped `TcpStream`, so the counts are the wire cost of
//! a session as the client sees it.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters shared between a [`Counting`] transport and its reader.
#[derive(Debug, Default)]
pub struct IoCounts {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

/// A point-in-time copy of [`IoCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

impl IoSnapshot {
    /// What was counted after `earlier` was taken.
    pub fn since(self, earlier: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
        }
    }

    /// The counts of two connections together.
    pub fn plus(self, other: IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads + other.reads,
            writes: self.writes + other.writes,
            bytes_in: self.bytes_in + other.bytes_in,
            bytes_out: self.bytes_out + other.bytes_out,
        }
    }
}

impl IoCounts {
    // Relaxed: these are statistics, they publish no other data.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

/// Passes every call through to `inner` unchanged and counts it.
#[derive(Debug)]
pub struct Counting<T> {
    inner: T,
    counts: Arc<IoCounts>,
}

impl<T> Counting<T> {
    pub fn new(inner: T) -> (Counting<T>, Arc<IoCounts>) {
        let counts = Arc::new(IoCounts::default());
        (
            Counting {
                inner,
                counts: counts.clone(),
            },
            counts,
        )
    }
}

impl<T: Read> Read for Counting<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counts.reads.fetch_add(1, Ordering::Relaxed);
        self.counts.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl<T: Write> Write for Counting<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counts.writes.fetch_add(1, Ordering::Relaxed);
        self.counts.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves reads in fixed slices and accepts writes in fixed slices, so
    /// short transfers are exercised.
    struct Choppy {
        source: Vec<u8>,
        pos: usize,
        sink: Vec<u8>,
        slice: usize,
    }

    impl Read for Choppy {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.slice.min(buf.len()).min(self.source.len() - self.pos);
            buf[..n].copy_from_slice(&self.source[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = self.slice.min(buf.len());
            self.sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn passes_bytes_through_and_counts_calls_exactly() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let (mut io, counts) = Counting::new(Choppy {
            source: payload.clone(),
            pos: 0,
            sink: Vec::new(),
            slice: 7,
        });

        // An explicit loop (not `read_to_end`, whose probe reads are an
        // implementation detail of std): one call per slice, one for EOF.
        let mut got = Vec::new();
        let mut buf = [0u8; 64];
        loop {
            let n = io.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got.extend_from_slice(&buf[..n]);
        }
        assert_eq!(got, payload);
        io.write_all(&payload).unwrap();
        assert_eq!(io.inner.sink, payload);

        let c = counts.snapshot();
        // 1000 bytes in 7-byte slices: 143 data transfers each way, plus
        // the one zero-length read that signals end of stream.
        assert_eq!((c.bytes_in, c.bytes_out), (1000, 1000));
        assert_eq!(c.reads, 1000_u64.div_ceil(7) + 1);
        assert_eq!(c.writes, 1000_u64.div_ceil(7));
    }
}
