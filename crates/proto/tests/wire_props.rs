//! Property tests of the wire codec: every control message and payload
//! frame round-trips bit-exactly, and every way a frame can be damaged —
//! truncation, version skew, bit flips, outright garbage — maps to a
//! typed [`WireError`], never a panic, with checksum damage recoverable
//! (the decoder resynchronizes on the next frame).

use couplink_proto::wire::{
    crc32, crc32_reference, decode_ctrl, decode_payload, encode_ctrl, encode_frame, encode_payload,
    encode_payload_head, encode_payload_with, f64_bytes, BodyWriter, FrameDecoder, FrameWriter,
    WireError, WireRect, HEADER_LEN, KIND_CTRL, KIND_PAYLOAD, MAGIC, PAYLOAD_HEAD_LEN,
    WIRE_VERSION,
};
use couplink_proto::{ConnectionId, CtrlMsg, ProcResponse, Rank, RepAnswer, RequestId};
use couplink_time::ts;
use proptest::prelude::*;

/// Every [`CtrlMsg`] variant, with randomized fields. Timestamps stay
/// finite (non-finite bits are rejected by construction, not carried).
fn ctrl_msg() -> impl Strategy<Value = CtrlMsg> {
    (
        0u8..8,
        0u32..1000,
        0u64..u64::MAX,
        0u32..64,
        0.0f64..1e9,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(tag, conn, req, rank, t, flag_a, flag_b)| {
            let conn = ConnectionId(conn);
            let req = RequestId(req);
            let rank = Rank(rank);
            let answer = if flag_a {
                RepAnswer::Match(ts(t))
            } else {
                RepAnswer::NoMatch
            };
            match tag {
                0 => CtrlMsg::ImportCall {
                    conn,
                    rank,
                    ts: ts(t),
                },
                1 => CtrlMsg::ImportRequest {
                    conn,
                    req,
                    ts: ts(t),
                },
                2 => CtrlMsg::ForwardRequest {
                    conn,
                    req,
                    ts: ts(t),
                },
                3 => CtrlMsg::Response {
                    conn,
                    req,
                    rank,
                    resp: match (flag_a, flag_b) {
                        (true, _) => ProcResponse::Match(ts(t)),
                        (false, true) => ProcResponse::NoMatch,
                        (false, false) => ProcResponse::Pending {
                            latest: (t > 0.5).then(|| ts(t)),
                        },
                    },
                },
                4 => CtrlMsg::BuddyHelp { conn, req, answer },
                5 => CtrlMsg::Answer { conn, req, answer },
                6 => CtrlMsg::AnswerBcast { conn, req, answer },
                _ => CtrlMsg::Ack { seq: req.0 },
            }
        })
}

/// Any rectangle the wire can carry, degenerate ones included.
fn wire_rect() -> impl Strategy<Value = WireRect> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(row0, col0, rows, cols)| {
        WireRect {
            row0,
            col0,
            rows,
            cols,
        }
    })
}

proptest! {
    /// The by-reference form of a payload frame — the head a socket sender
    /// queues, then the values' bytes straight out of the shared array —
    /// is the frame `encode_payload` builds, byte for byte: random ids and
    /// rectangles, arbitrary value bits, and 0, 1, a few hundred or more
    /// than 64 KiB of values.
    #[test]
    fn payload_head_then_values_is_the_encoded_frame(
        ids in (any::<u32>(), any::<u32>(), any::<u64>()),
        rect in wire_rect(),
        owned in wire_rect(),
        n in prop_oneof![Just(0usize), Just(1usize), 2usize..600, 8_193usize..9_000],
        seed in any::<u64>(),
    ) {
        let (conn, dst, req) = (ConnectionId(ids.0), Rank(ids.1), RequestId(ids.2));
        let data: Vec<f64> = (0..n as u64)
            .map(|i| f64::from_bits(seed.wrapping_mul(2 * i + 1).rotate_left(i as u32)))
            .collect();
        let head = encode_payload_head(Vec::new(), conn, dst, req, rect, owned, &data);
        prop_assert_eq!(head.len(), PAYLOAD_HEAD_LEN);
        let mut by_reference = head;
        by_reference.extend_from_slice(f64_bytes(&data));
        let whole = encode_payload(conn, dst, req, rect, owned, &data);
        prop_assert_eq!(by_reference, whole);
    }

    /// Body-level and frame-level round trip for every variant.
    #[test]
    fn ctrl_roundtrips(msg in ctrl_msg()) {
        let body = encode_ctrl(&msg);
        prop_assert_eq!(decode_ctrl(&body).unwrap(), msg.clone());

        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(KIND_CTRL, &body));
        let frame = dec.next_frame().unwrap().unwrap();
        prop_assert_eq!(frame.kind, KIND_CTRL);
        prop_assert_eq!(decode_ctrl(&frame.body).unwrap(), msg);
        prop_assert!(dec.next_frame().unwrap().is_none());
    }

    /// Payload frames round-trip for random rects, including empty ones,
    /// with the data serialized bit-exactly.
    #[test]
    fn payload_roundtrips(
        row0 in 0u64..512, col0 in 0u64..512,
        rows in 0u64..7, cols in 0u64..7,
        dst in 0u32..64, seed in 0u64..u64::MAX,
    ) {
        let owned = WireRect { row0, col0, rows, cols };
        let rect = WireRect { row0, col0, rows: rows.min(1), cols };
        let n = (rows * cols) as usize;
        // Deterministic but irregular finite values.
        let data: Vec<f64> = (0..n)
            .map(|i| (seed.wrapping_mul(i as u64 + 1) % 1_000_000) as f64 * 0.5 - 1e5)
            .collect();
        let frame_bytes = encode_payload(
            ConnectionId(3), Rank(dst), RequestId(seed), rect, owned, &data,
        );
        let mut dec = FrameDecoder::new();
        dec.extend(&frame_bytes);
        let frame = dec.next_frame().unwrap().unwrap();
        prop_assert_eq!(frame.kind, KIND_PAYLOAD);
        let p = decode_payload(&frame.body).unwrap();
        prop_assert_eq!(p.conn, ConnectionId(3));
        prop_assert_eq!(p.dst, Rank(dst));
        prop_assert_eq!(p.req, RequestId(seed));
        prop_assert_eq!(p.rect, rect);
        prop_assert_eq!(p.owned, owned);
        prop_assert_eq!(&p.data[..], &data[..]);
    }

    /// Truncating a body anywhere yields a typed error, never a panic.
    #[test]
    fn truncated_bodies_reject(msg in ctrl_msg(), cut in 0u64..1000) {
        let body = encode_ctrl(&msg);
        let cut = (cut as usize) % body.len();
        match decode_ctrl(&body[..cut]) {
            Err(WireError::Truncated) => {}
            Err(WireError::Malformed { .. }) | Err(WireError::BadTag { .. }) => {}
            Ok(m) => prop_assert!(
                cut == body.len(),
                "decoded {m:?} from a truncated body ({cut}/{} bytes)", body.len()
            ),
            Err(e) => prop_assert!(false, "unexpected error class: {e}"),
        }
    }

    /// A partial frame is "not yet", not an error; completing it decodes.
    #[test]
    fn partial_frames_wait(msg in ctrl_msg(), cut in 1u64..1000) {
        let bytes = encode_frame(KIND_CTRL, &encode_ctrl(&msg));
        let cut = 1 + (cut as usize) % (bytes.len() - 1);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes[..cut]);
        if cut < bytes.len() {
            prop_assert!(dec.next_frame().unwrap().is_none());
        }
        dec.extend(&bytes[cut..]);
        let frame = dec.next_frame().unwrap().unwrap();
        prop_assert_eq!(decode_ctrl(&frame.body).unwrap(), msg);
    }

    /// Version skew is a permanent, typed rejection.
    #[test]
    fn version_skew_rejects(msg in ctrl_msg(), v in 0u8..=255) {
        let mut bytes = encode_frame(KIND_CTRL, &encode_ctrl(&msg));
        if v == WIRE_VERSION {
            return Ok(());
        }
        bytes[2] = v;
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        let skew = matches!(dec.next_frame(), Err(WireError::BadVersion { got }) if got == v);
        prop_assert!(skew, "expected BadVersion for version byte {}", v);
        // The stream is poisoned: feeding a pristine frame cannot revive it.
        dec.extend(&encode_frame(KIND_CTRL, &encode_ctrl(&msg)));
        prop_assert!(dec.next_frame().is_err());
    }

    /// A bit flip in the body region fails the checksum — and only skips
    /// that frame: the next frame on the stream still decodes.
    #[test]
    fn bit_flips_are_skipped_not_fatal(msg in ctrl_msg(), bit in 0u64..10_000) {
        let mut bytes = encode_frame(KIND_CTRL, &encode_ctrl(&msg));
        let body_bits = (bytes.len() - HEADER_LEN) * 8;
        let bit = (bit as usize) % body_bits;
        bytes[HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
        let follow = encode_frame(KIND_CTRL, &encode_ctrl(&msg));
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        dec.extend(&follow);
        prop_assert!(matches!(dec.next_frame(), Err(WireError::BadChecksum)));
        let frame = dec.next_frame().unwrap().unwrap();
        prop_assert_eq!(decode_ctrl(&frame.body).unwrap(), msg);
    }

    /// `crc32` — whichever arm it dispatches to: the carry-less-multiply
    /// fold for inputs of 64 bytes and up on x86-64 CPUs that have it, the
    /// slice-by-8 tables otherwise and for the tail — agrees with the
    /// byte-at-a-time reference for every input. Lengths run through
    /// several fold-by-four rounds and skews through a whole 16-byte lane,
    /// so the threshold, both fold loops, the reduction and every tail
    /// length are each hit at every alignment. (The unit tests in
    /// `wire.rs` call the two arms separately.)
    #[test]
    fn crc32_matches_reference(
        bytes in proptest::collection::vec(0u8..=255, 0..4200),
        skew in 0usize..16,
    ) {
        let cut = skew.min(bytes.len());
        prop_assert_eq!(crc32(&bytes), crc32_reference(&bytes));
        prop_assert_eq!(crc32(&bytes[cut..]), crc32_reference(&bytes[cut..]));
    }

    /// The bulk-f64 payload encoder is byte-identical to the old
    /// per-element BodyWriter + `encode_frame` construction, including
    /// when it reuses a dirty pooled buffer.
    #[test]
    fn bulk_payload_encoder_matches_per_element_reference(
        rows in 0u64..9, cols in 0u64..9, seed in 0u64..u64::MAX,
        garbage in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let owned = WireRect { row0: 1, col0: 2, rows, cols };
        let rect = owned;
        let n = (rows * cols) as usize;
        let data: Vec<f64> = (0..n)
            .map(|i| f64::from_bits(seed.wrapping_mul(i as u64 + 1) | 1))
            .collect();

        // The pre-existing construction, inlined as the oracle.
        let mut w = BodyWriter::with_capacity(8 + 8 * 8 + 8 + 8 + 8 * data.len());
        w.u32(3);
        w.u32(7);
        w.u64(seed);
        for r in [rect, owned] {
            w.u64(r.row0);
            w.u64(r.col0);
            w.u64(r.rows);
            w.u64(r.cols);
        }
        w.u64(data.len() as u64);
        for &v in &data {
            w.f64(v);
        }
        let reference = encode_frame(KIND_PAYLOAD, &w.into_body());

        let fresh = encode_payload(
            ConnectionId(3), Rank(7), RequestId(seed), rect, owned, &data,
        );
        prop_assert_eq!(&fresh, &reference);

        // A recycled buffer with arbitrary leftover contents must not
        // leak a single byte into the frame.
        let pooled = encode_payload_with(
            garbage, ConnectionId(3), Rank(7), RequestId(seed), rect, owned, &data,
        );
        prop_assert_eq!(&pooled, &reference);
    }

    /// A frame assembled in place by [`FrameWriter`] is byte-identical to
    /// the old two-buffer `encode_frame` path for every control message,
    /// and both to a frame built by hand around `crc32_reference`.
    #[test]
    fn frame_writer_matches_encode_frame(msg in ctrl_msg()) {
        let body = encode_ctrl(&msg);
        let want = frame_with_reference_crc(KIND_CTRL, &body);
        let mut w = FrameWriter::with_capacity(KIND_CTRL, body.len());
        w.bytes(&body);
        prop_assert_eq!(&w.finish(), &want);
        prop_assert_eq!(&encode_frame(KIND_CTRL, &body), &want);
    }

    /// The compacting decoder yields identical frames no matter where the
    /// byte stream is cut: every split of two back-to-back payload frames
    /// round-trips, and a truncated prefix is `Ok(None)`, never data.
    #[test]
    fn decoder_roundtrips_at_every_cut(
        rows in 0u64..6, cols in 0u64..6, seed in 0u64..u64::MAX,
        cut_sel in 0usize..usize::MAX,
    ) {
        let owned = WireRect { row0: 0, col0: 0, rows, cols };
        let n = (rows * cols) as usize;
        let data: Vec<f64> = (0..n).map(|i| (i as f64) * 1.5 - 3.0).collect();
        let one = encode_payload(
            ConnectionId(1), Rank(0), RequestId(seed), owned, owned, &data,
        );
        let mut stream = one.clone();
        stream.extend_from_slice(&one);
        let cut = cut_sel % (stream.len() + 1);

        let mut dec = FrameDecoder::new();
        dec.extend(&stream[..cut]);
        let mut got = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f);
        }
        prop_assert_eq!(got.len(), cut / one.len(), "only whole frames surface");
        dec.extend(&stream[cut..]);
        while let Some(f) = dec.next_frame().unwrap() {
            got.push(f);
        }
        prop_assert_eq!(got.len(), 2);
        for f in got {
            prop_assert_eq!(f.kind, KIND_PAYLOAD);
            let p = decode_payload(&f.body).unwrap();
            prop_assert_eq!(&p.data[..], &data[..]);
        }
        prop_assert_eq!(dec.buffered(), 0, "stream fully consumed");
    }

    /// Arbitrary garbage never panics any decode entry point.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = decode_ctrl(&bytes);
        let _ = decode_payload(&bytes);
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes);
        for _ in 0..8 {
            match dec.next_frame() {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// A frame assembled by hand around the byte-at-a-time checksum — what
/// every earlier build put on the wire and into its journals.
fn frame_with_reference_crc(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(kind);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32_reference(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// A `socket_bulk`-sized payload frame: a 128 × 256 piece, 256 KiB of
/// `f64` behind an 88-byte payload header.
fn bulk_payload_frame(req: u64) -> (Vec<u8>, Vec<f64>) {
    let owned = WireRect {
        row0: 0,
        col0: 0,
        rows: 128,
        cols: 256,
    };
    let data: Vec<f64> = (0..128 * 256).map(|i| i as f64 * 0.375 - 7.0).collect();
    let frame = encode_payload(
        ConnectionId(1),
        Rank(1),
        RequestId(req),
        owned,
        owned,
        &data,
    );
    (frame, data)
}

/// A payload frame — far over the fold's threshold, where control frames
/// (`frame_writer_matches_encode_frame`) are all under it — carries the
/// same bytes as a build that only had the byte-at-a-time CRC, through
/// both `encode_payload` (its head's checksum continued over the values)
/// and `encode_frame`.
#[test]
fn payload_encoders_are_byte_identical_to_a_reference_crc_frame() {
    let (frame, _) = bulk_payload_frame(5);
    let body = &frame[HEADER_LEN..];
    assert_eq!(body.len(), (1 << 18) + 88);
    let want = frame_with_reference_crc(KIND_PAYLOAD, body);
    assert_eq!(frame, want, "encode_payload (head, then values)");
    assert_eq!(encode_frame(KIND_PAYLOAD, body), want, "encode_frame");
}

/// The receive-side check is kept at payload sizes: one flipped bit in the
/// first, a middle or the last body byte of a 256 KiB frame is a
/// `BadChecksum`, and the frame behind it still parses.
#[test]
fn large_payload_bit_flips_are_rejected_and_the_stream_recovers() {
    let (good, data) = bulk_payload_frame(9);
    let body_len = good.len() - HEADER_LEN;
    for (at, bit) in [(0, 0), (body_len / 2 + 5, 3), (body_len - 1, 7)] {
        let mut bad = good.clone();
        bad[HEADER_LEN + at] ^= 1 << bit;
        let mut dec = FrameDecoder::new();
        dec.extend(&bad);
        dec.extend(&good);
        assert_eq!(
            dec.poll_frame(),
            Err(WireError::BadChecksum),
            "flip at body byte {at}"
        );
        let next = dec.next_frame().expect("recovered").expect("frame");
        assert_eq!(next.kind, KIND_PAYLOAD);
        assert_eq!(*decode_payload(&next.body).expect("decodes").data, *data);
        assert_eq!(dec.buffered(), 0);
    }
}

/// A near-worst-case payload (512×512 cells, 2 MiB of f64) survives the
/// round trip intact — the size guard admits real frames.
#[test]
fn large_payload_roundtrip() {
    let owned = WireRect {
        row0: 0,
        col0: 0,
        rows: 512,
        cols: 512,
    };
    let data: Vec<f64> = (0..512 * 512).map(|i| i as f64 * 0.25).collect();
    let bytes = encode_payload(ConnectionId(0), Rank(7), RequestId(1), owned, owned, &data);
    let mut dec = FrameDecoder::new();
    dec.extend(&bytes);
    let frame = dec.next_frame().unwrap().unwrap();
    let p = decode_payload(&frame.body).unwrap();
    assert_eq!(*p.data, *data);
    assert_eq!(p.owned, owned);
}

/// Regression for the receive-buffer growth pathology: a multi-megabyte
/// payload fed one byte at a time (the worst drip a socket can produce)
/// must keep peak buffering bounded by the frame itself — the old decoder
/// paid a drain/compact per frame and accumulated unboundedly when frames
/// were pulled slower than bytes arrived.
#[test]
fn byte_at_a_time_multi_megabyte_payload_stays_bounded() {
    let owned = WireRect {
        row0: 0,
        col0: 0,
        rows: 512,
        cols: 512,
    };
    let data: Vec<f64> = (0..512 * 512).map(|i| i as f64 * 0.125).collect();
    let one = encode_payload(ConnectionId(0), Rank(1), RequestId(9), owned, owned, &data);

    let mut dec = FrameDecoder::new();
    let mut got = 0usize;
    for _ in 0..3 {
        for &b in &one {
            dec.extend(std::slice::from_ref(&b));
            while let Some(f) = dec.next_frame().unwrap() {
                let p = decode_payload(&f.body).unwrap();
                assert_eq!(*p.data, *data);
                got += 1;
            }
        }
        assert_eq!(dec.buffered(), 0, "frame boundary leaves nothing buffered");
    }
    assert_eq!(got, 3);
    assert!(
        dec.buffered_hwm() <= one.len(),
        "peak rx buffering {} exceeded one frame ({})",
        dec.buffered_hwm(),
        one.len()
    );
}

/// Payload data whose length disagrees with its owned rect is malformed.
#[test]
fn payload_shape_mismatch_rejects() {
    let owned = WireRect {
        row0: 0,
        col0: 0,
        rows: 2,
        cols: 3,
    };
    let bytes = encode_payload(
        ConnectionId(0),
        Rank(0),
        RequestId(0),
        owned,
        owned,
        &[1.0; 5], // 5 != 2*3
    );
    let mut dec = FrameDecoder::new();
    dec.extend(&bytes);
    let frame = dec.next_frame().unwrap().unwrap();
    assert!(matches!(
        decode_payload(&frame.body),
        Err(WireError::Malformed { .. })
    ));
}
