//! Golden vectors for this crate's on-disk layouts: the shared segment
//! framing and the GOP container. The hex was generated with the
//! hand-written encoders (the commit before the field-list codec); a
//! codec that moves a field in both directions at once passes every
//! round-trip test and fails here.

use exsample_store::framing::{
    next_record, read_segment_header, write_record, write_segment_header, RecordStep, SegmentHeader,
};
use exsample_store::{Container, ContainerWriter};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// magic "TEST" | version 3 | fingerprint, then `len | crc32 | "payload"`.
const SEGMENT: &str = "544553540300efbefecacefaedfe07000000156a2c427061796c6f6164";

#[test]
fn segment_header_and_one_framed_record() {
    let mut out = Vec::new();
    write_segment_header(&mut out, b"TEST", 3, 0xFEED_FACE_CAFE_BEEF);
    write_record(&mut out, b"payload");
    assert_eq!(hex(&out), SEGMENT);

    let golden = unhex(SEGMENT);
    let (header, body) = read_segment_header(&golden, b"TEST").expect("header");
    assert_eq!(
        header,
        SegmentHeader {
            version: 3,
            fingerprint: 0xFEED_FACE_CAFE_BEEF
        }
    );
    let RecordStep::Record { payload, rest } = next_record(body) else {
        panic!("golden record did not parse");
    };
    assert_eq!(payload, b"payload");
    assert_eq!(next_record(rest), RecordStep::End);
}

/// Three frames (`"ab"`, empty, `"xyz"`) at GOP size 2: header, two
/// GOPs, a two-entry index, trailer.
const CONTAINER: &str =
    "585356430100020000000300000000000000020000006162000000000300000078797a0000000000\
     0000000a000000994025c700000000000000000a000000000000000700000096a64bb80200000000\
     00000023000000000000000200000058535649";

#[test]
fn container_of_three_frames_in_gops_of_two() {
    let frames: [&[u8]; 3] = [b"ab", b"", b"xyz"];
    let mut w = ContainerWriter::new(2);
    for f in frames {
        w.push_frame(f);
    }
    assert_eq!(hex(&w.finish()), CONTAINER);

    let mut c = Container::open(unhex(CONTAINER)).expect("golden container");
    assert_eq!((c.frame_count(), c.gop_size(), c.gop_count()), (3, 2, 2));
    for (i, f) in frames.iter().enumerate() {
        assert_eq!(c.read_frame(i as u64).expect("frame"), *f);
    }
}
