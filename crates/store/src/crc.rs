//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`): the one
//! checksum under every byte layout in the workspace.
//!
//! Four users call [`crc32`], each over a different unit:
//!
//! * `exsample_proto::FrameBuf` — every wire frame, once when queued and
//!   once when received;
//! * [`crate::framing`] — every log / snapshot / catalog record, once on
//!   `write_record` and once on `next_record`;
//! * `exsample_colstore::format` — the sealed header, the chunk index,
//!   the data section and every chunk group;
//! * [`crate::format`] — every GOP, when the writer seals it and on a
//!   reader's first touch.
//!
//! The implementation is **slice-by-8**: eight 256-entry tables built at
//! compile time into one `static` (8 KiB of read-only data), where
//! `TABLES[k][b]` is the CRC state after byte `b` followed by `k` zero
//! bytes. Eight input bytes are folded into the state with eight
//! independent table loads and seven XORs, instead of eight dependent
//! load-XOR-shift steps; what is left of the input after the last whole
//! 8-byte word takes the bytewise step. Same polynomial, same value for
//! every input — the tests compare against the bytewise loop at every
//! length and alignment that distinguishes head, body and tail.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Fold one byte into the state.
#[inline]
fn step(c: u32, b: u8) -> u32 {
    TABLES[0][(c as u8 ^ b) as usize] ^ (c >> 8)
}

/// CRC-32 of a byte slice (IEEE, as used by zlib/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let word: [u8; 8] = word.try_into().expect("chunks_exact(8) yields 8 bytes");
        // The state lines up with the first four bytes; byte `j` of the
        // word is followed by `7 - j` more bytes of it.
        let v = u64::from_le_bytes(word) ^ c as u64;
        c = TABLES[7][v as u8 as usize]
            ^ TABLES[6][(v >> 8) as u8 as usize]
            ^ TABLES[5][(v >> 16) as u8 as usize]
            ^ TABLES[4][(v >> 24) as u8 as usize]
            ^ TABLES[3][(v >> 32) as u8 as usize]
            ^ TABLES[2][(v >> 40) as u8 as usize]
            ^ TABLES[1][(v >> 48) as u8 as usize]
            ^ TABLES[0][(v >> 56) as u8 as usize];
    }
    for &b in words.remainder() {
        c = step(c, b);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference: one table, one byte at a time.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |c, &b| step(c, b))
    }

    /// Bytes with no period a multiple of 8, so a word read at the wrong
    /// offset or in the wrong order changes the value.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i.wrapping_mul(167).wrapping_add(i >> 3) ^ 0x5A) as u8)
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn first_table_is_the_classic_one() {
        // Spot values of the standard reflected table, so the bytewise
        // reference is itself anchored to something outside this file.
        assert_eq!(TABLES[0][0], 0);
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][128], 0xEDB8_8320);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn matches_bytewise_at_every_length_and_offset() {
        let buf = patterned(8 + 130);
        for start in 0..8 {
            for len in 0..=130 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn matches_bytewise_on_a_mebibyte() {
        let buf = patterned(1 << 20);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        // ... and with the tail in play.
        assert_eq!(crc32(&buf[3..]), crc32_bytewise(&buf[3..]));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = b"some gop payload data".to_vec();
        let before = crc32(&data);
        data[3] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }

    #[test]
    fn is_deterministic() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&data), crc32(&data));
    }

    proptest! {
        #[test]
        fn matches_bytewise_on_random_slices(
            data in prop::collection::vec(any::<u8>(), 0..600),
            skip in 0usize..9,
        ) {
            let s = data.get(skip..).unwrap_or_default();
            prop_assert_eq!(crc32(s), crc32_bytewise(s));
        }
    }
}
