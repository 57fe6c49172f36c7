//! LEB128 variable-length integers — the container's column compression
//! primitive.
//!
//! Frame-id columns store the first frame absolute and every subsequent
//! frame as a delta (strictly positive, since a group's frames are sorted
//! and unique), so dense chunks compress to ~1 byte per frame. Score
//! columns store raw IEEE-754 `f32` bit patterns as varints — the value
//! round-trips **bitwise** (NaN payloads included), which keeps persisted
//! detections byte-identical to what the detector produced.

use crate::codec::CodecError;

/// Append `v` to `out` in LEB128 (little-endian base-128) encoding.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read one LEB128 `u64` from `data` starting at `*pos`, advancing `*pos`
/// past it. Rejects truncation and encodings longer than the ten bytes
/// (10 × 7 bits ≥ 64 bits) a `u64` needs, which would silently wrap.
pub fn get_u64(data: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = data.get(*pos) else {
            return Err(CodecError("truncated varint"));
        };
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(CodecError("varint overflows u64"));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(CodecError("varint overflows u64"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: u64) -> usize {
        let mut buf = Vec::new();
        put_u64(&mut buf, v);
        let mut pos = 0;
        assert_eq!(get_u64(&buf, &mut pos), Ok(v));
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn round_trips_and_lengths() {
        assert_eq!(round_trip(0), 1);
        assert_eq!(round_trip(127), 1);
        assert_eq!(round_trip(128), 2);
        assert_eq!(round_trip(16_383), 2);
        assert_eq!(round_trip(16_384), 3);
        assert_eq!(round_trip(u64::MAX), 10);
        for shift in 0..64 {
            round_trip(1u64 << shift);
            round_trip((1u64 << shift).wrapping_sub(1));
        }
    }

    #[test]
    fn truncation_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(get_u64(&buf[..cut], &mut pos).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn overlong_and_overflowing_rejected() {
        // 11 continuation bytes: longer than any canonical u64.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert!(get_u64(&buf, &mut pos).is_err());
        // 10 bytes whose top bits exceed 64 bits of payload.
        let buf = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        let mut pos = 0;
        assert!(get_u64(&buf, &mut pos).is_err());
    }
}
