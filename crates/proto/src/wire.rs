//! Binary wire codec for control messages and payload frames.
//!
//! The socket transport in `couplink-runtime` moves [`CtrlMsg`]s and data
//! pieces between OS processes; this module defines the byte format. It
//! lives in the protocol crate so the frame layout is specified next to the
//! messages it carries (and so codec tests need no runtime).
//!
//! Every frame is:
//!
//! ```text
//! magic   u16 LE   0xC11F ("couplink frame")
//! version u8       WIRE_VERSION
//! kind    u8       frame discriminator (KIND_* or runtime-defined)
//! len     u32 LE   body length in bytes (<= MAX_BODY)
//! crc     u32 LE   CRC-32 (IEEE) of the body
//! body    len bytes
//! ```
//!
//! Bodies are little-endian with one leading tag byte per enum. Timestamps
//! travel as raw `f64` bits and are re-validated on decode (NaN/infinite
//! bits are a [`WireError::Malformed`], never a panic). Decoding never
//! trusts length fields beyond [`MAX_BODY`] and never indexes past the
//! received bytes: every malformed input maps to a typed [`WireError`].
//!
//! The protocol crate defines bodies for control messages
//! ([`encode_ctrl`]/[`decode_ctrl`], frame kind [`KIND_CTRL`]) and data
//! pieces ([`encode_payload`]/[`decode_payload`], kind [`KIND_PAYLOAD`]).
//! The runtime builds its bootstrap/session envelopes out of the same
//! primitives ([`BodyWriter`]/[`BodyReader`]) with kind bytes at or above
//! [`KIND_RUNTIME_BASE`].

use crate::ids::{ConnectionId, Rank, RequestId};
use crate::messages::{CtrlMsg, ProcResponse, RepAnswer};
use couplink_time::Timestamp;
use std::fmt;

/// First two bytes of every frame.
pub const MAGIC: u16 = 0xC11F;

/// Wire format version stamped into (and demanded of) every frame.
pub const WIRE_VERSION: u8 = 1;

/// Fixed frame header size in bytes (magic + version + kind + len + crc).
pub const HEADER_LEN: usize = 12;

/// Upper bound on a frame body; larger `len` fields are rejected before
/// any allocation so corrupt headers cannot OOM the receiver.
pub const MAX_BODY: u32 = 1 << 26;

/// Frame kind carrying an encoded [`CtrlMsg`].
pub const KIND_CTRL: u8 = 1;

/// Frame kind carrying an encoded [`PayloadFrame`].
pub const KIND_PAYLOAD: u8 = 2;

/// First frame kind reserved for runtime-level envelopes (bootstrap,
/// acks, reports). The protocol crate never assigns kinds at or above
/// this value.
pub const KIND_RUNTIME_BASE: u8 = 16;

/// Typed decode failure. No malformed input panics; every rejection is one
/// of these variants so transports can meter and classify them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the advertised frame or field did.
    Truncated,
    /// The first two bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes found where the magic was expected.
        got: u16,
    },
    /// The frame was built by an incompatible codec version.
    BadVersion {
        /// The version byte found on the wire.
        got: u8,
    },
    /// The body checksum did not match the header's CRC.
    BadChecksum,
    /// A frame body advertised more than [`MAX_BODY`] bytes.
    Oversize {
        /// The advertised body length.
        len: u32,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// What was being decoded.
        what: &'static str,
        /// The unrecognized tag.
        tag: u8,
    },
    /// A field decoded but violated an invariant (non-finite timestamp,
    /// payload length mismatch, trailing bytes).
    Malformed {
        /// What invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic { got } => write!(f, "bad magic 0x{got:04X}"),
            WireError::BadVersion { got } => {
                write!(f, "wire version {got} (this codec speaks {WIRE_VERSION})")
            }
            WireError::BadChecksum => write!(f, "body checksum mismatch"),
            WireError::Oversize { len } => write!(f, "body length {len} exceeds {MAX_BODY}"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::Malformed { what } => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320). One checksum, three
// ways to compute it:
//
// * `clmul::fold` — carry-less-multiply folding, 64 bytes per round. Runs
//   on x86-64 CPUs that have PCLMULQDQ and SSE4.1, for inputs of at least
//   `clmul::MIN_LEN` bytes: every payload frame, on both ends of a link.
// * `slice8` — table-driven slice-by-8. The only path on every other
//   target, on x86-64 without the feature, and for shorter inputs (every
//   control frame); it also finishes the under-16-byte tail the fold
//   leaves.
// * `crc32_reference` — byte at a time, the oracle the tests hold the
//   other two to.
//
// `crc32` picks between the first two; nothing else does.
// ---------------------------------------------------------------------------

/// Number of slice-by-N tables (8 input bytes folded per step).
const CRC_SLICES: usize = 8;

const fn crc32_tables() -> [[u32; 256]; CRC_SLICES] {
    let mut t = [[0u32; 256]; CRC_SLICES];
    // Table 0 is the classic byte-at-a-time table.
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    // Table k advances table k-1 by one more zero byte.
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; CRC_SLICES] = crc32_tables();

/// CRC-32 (IEEE) of `bytes` — the checksum carried in every frame header
/// and journal record.
///
/// The one place the implementation is chosen, from what the code can
/// observe: on x86-64 with PCLMULQDQ and SSE4.1, an input of at least
/// `clmul::MIN_LEN` (64) bytes has its 16-byte-multiple prefix folded by
/// carry-less multiplication and only the tail goes through the tables;
/// anything else (other targets, older CPUs, control frames) is slice-by-8
/// throughout. Both compute the same polynomial, so the choice never shows
/// on the wire.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((state, tail)) = clmul::fold(bytes) {
        return !slice8(state, tail);
    }
    !slice8(!0, bytes)
}

/// Advances the raw (un-inverted) CRC register `c` over `bytes`, eight
/// input bytes per table lookup round.
fn slice8(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The original byte-at-a-time CRC-32. Kept as the independent reference
/// the tests compare [`crc32`] (both of its arms) against.
pub fn crc32_reference(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// The hardware arm of [`crc32`]: the fold-and-Barrett-reduce scheme of
/// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Intel, 2009), with the constants for the
/// bit-reflected IEEE polynomial. All of this file's SIMD `unsafe` is here.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input [`fold`] takes: the four 16-byte lanes it starts
    /// from. Also about where it starts to pay — below this a checksum is
    /// a handful of table rounds, and every control frame body is shorter.
    pub(super) const MIN_LEN: usize = 64;

    // The paper's constants for this polynomial: x^n mod P(x), bit-reflected
    // and shifted left by one (a carry-less product of two reflected
    // operands comes out one bit low), for the distance a fold moves a
    // lane's two halves — n = 512 ± 32 (K1, K2: four lanes abreast),
    // 128 ± 32 (K3, K4: one lane onto the next) and 64 (K5: 64 → 32 bits).
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    /// P(x) itself, 33 bits, reflected.
    const POLY: i64 = 0x1_DB71_0641;
    /// Barrett constant: floor(x^64 / P(x)), reflected.
    const MU: i64 = 0x1_F701_1641;

    /// Folds the longest 16-byte-multiple prefix of `bytes` and returns the
    /// raw (un-inverted) CRC register after it with the unconsumed tail
    /// (under 16 bytes) — or `None` when the input is shorter than
    /// [`MIN_LEN`] or the CPU lacks PCLMULQDQ / SSE4.1, and the caller
    /// computes the whole checksum from the tables.
    pub(super) fn fold(bytes: &[u8]) -> Option<(u32, &[u8])> {
        if bytes.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (lanes, tail) = bytes.as_chunks::<16>();
        // SAFETY: `fold_lanes` needs the `pclmulqdq` and `sse4.1` target
        // features, and both were detected on this CPU just above.
        Some((unsafe { fold_lanes(lanes) }, tail))
    }

    fn load(lane: &[u8; 16]) -> __m128i {
        // SAFETY: `lane` is a reference to 16 initialised, readable bytes,
        // and `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(lane.as_ptr().cast()) }
    }

    /// Moves lane `a` forward by the distance `keys` encodes and adds it
    /// onto lane `b`: `a.lo * keys.lo + a.hi * keys.hi + b` over GF(2).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_onto(a: __m128i, b: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, keys, 0x00);
        let hi = _mm_clmulepi64_si128(a, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(b, lo), hi)
    }

    /// The raw CRC register after `lanes`, starting from the all-ones
    /// initial value. `lanes.len() >= 4` ([`fold`] checks [`MIN_LEN`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lanes(lanes: &[[u8; 16]]) -> u32 {
        let (first, rest) = lanes.split_at(4);
        // The initial register value is folded in as data: xor it onto
        // the first four message bytes.
        let mut x = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(!0)),
            load(&first[1]),
            load(&first[2]),
            load(&first[3]),
        ];

        // Fold by four: each accumulator lane jumps 64 bytes ahead onto the
        // lane that lines up with it in the next round.
        let (rounds, singles) = rest.as_chunks::<4>();
        let k1k2 = _mm_set_epi64x(K2, K1);
        for round in rounds {
            for (acc, lane) in x.iter_mut().zip(round) {
                *acc = fold_onto(*acc, load(lane), k1k2);
            }
        }

        // Fold by one: collapse the four accumulators, then absorb the
        // (at most three) whole lanes the last round did not fill.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold_onto(x[0], x[1], k3k4);
        acc = fold_onto(acc, x[2], k3k4);
        acc = fold_onto(acc, x[3], k3k4);
        for lane in singles {
            acc = fold_onto(acc, load(lane), k3k4);
        }

        // 128 → 64 bits, then 64 → 32 + 32 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(acc, k3k4, 0x10),
            _mm_srli_si128(acc, 8),
        );
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );

        // Barrett reduction of the remaining 64 bits modulo P(x):
        // T1 = (acc mod x^32) * MU, T2 = (T1 mod x^32) * P, and the
        // register is bits 32..64 of acc + T2.
        let poly_mu = _mm_set_epi64x(MU, POLY);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly_mu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), poly_mu, 0x00);
        _mm_extract_epi32(_mm_xor_si128(acc, t2), 1) as u32
    }
}

// ---------------------------------------------------------------------------
// Body primitives.
// ---------------------------------------------------------------------------

/// Little-endian body builder. All multi-byte integers on the wire go
/// through this (or its inverse, [`BodyReader`]) so the two cannot drift.
#[derive(Debug, Default)]
pub struct BodyWriter {
    buf: Vec<u8>,
}

impl BodyWriter {
    /// An empty body.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty body with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        BodyWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string (u32 length).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes (caller handles any length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// The finished body.
    pub fn into_body(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian body cursor; every read is bounds-checked and returns
/// [`WireError::Truncated`] rather than panicking.
#[derive(Debug)]
pub struct BodyReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// A cursor over `body`.
    pub fn new(body: &'a [u8]) -> Self {
        BodyReader { body, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.body.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.body[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` bit pattern. The caller validates finiteness where
    /// the value is a timestamp ([`Self::timestamp`] does it for you).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a validated [`Timestamp`] (non-finite bits are malformed).
    pub fn timestamp(&mut self) -> Result<Timestamp, WireError> {
        Timestamp::new(self.f64()?).map_err(|_| WireError::Malformed { what: "timestamp" })
    }

    /// Reads a length-prefixed UTF-8 string written by [`BodyWriter::str`].
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::Malformed { what: "utf-8" })
    }

    /// Reads `n` raw bytes.
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Asserts the body is fully consumed (trailing bytes are malformed).
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed {
                what: "trailing bytes",
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Frame envelope.
// ---------------------------------------------------------------------------

/// Wraps a body in the frame envelope (header + checksum) and returns the
/// complete wire bytes.
pub fn encode_frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    encode_frame_into(kind, body, &mut out);
    out
}

/// Appends a complete frame (header + body) to `out`.
pub fn encode_frame_into(kind: u8, body: &[u8], out: &mut Vec<u8>) {
    debug_assert!(body.len() <= MAX_BODY as usize, "frame body over MAX_BODY");
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(kind);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out.extend_from_slice(body);
}

/// Builds a complete frame *in place*: the body is written directly after
/// a reserved header region in one buffer, and [`finish`](Self::finish)
/// back-fills the envelope — no header+body concatenation copy, and the
/// buffer can come from (and return to) a transport pool.
///
/// Byte-for-byte identical output to `encode_frame(kind, &body)`.
#[derive(Debug)]
pub struct FrameWriter {
    kind: u8,
    buf: Vec<u8>,
}

impl FrameWriter {
    /// A frame writer over a fresh buffer.
    pub fn new(kind: u8) -> Self {
        Self::with_buffer(kind, Vec::new())
    }

    /// A frame writer over a fresh buffer with `body_cap` body bytes
    /// reserved (plus the header).
    pub fn with_capacity(kind: u8, body_cap: usize) -> Self {
        Self::with_buffer(kind, Vec::with_capacity(HEADER_LEN + body_cap))
    }

    /// A frame writer reusing `buf`'s allocation (a pooled buffer). The
    /// buffer is cleared; its capacity is kept.
    pub fn with_buffer(kind: u8, mut buf: Vec<u8>) -> Self {
        buf.clear();
        buf.resize(HEADER_LEN, 0);
        FrameWriter { kind, buf }
    }

    /// Reserves room for at least `body_bytes` more body bytes.
    pub fn reserve(&mut self, body_bytes: usize) {
        self.buf.reserve(body_bytes);
    }

    /// Appends one body byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string (u32 length).
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes (caller handles any length prefix).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a whole `f64` slice as little-endian bit patterns in one
    /// bulk copy (the wire byte order *is* the in-memory order on
    /// little-endian targets; big-endian targets fall back per element).
    pub fn f64_slice(&mut self, data: &[f64]) {
        #[cfg(target_endian = "little")]
        {
            // SAFETY: every f64 is 8 plain bytes with no padding or
            // invalid representations; on little-endian targets those
            // bytes are exactly the wire encoding.
            let bytes = unsafe {
                std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data))
            };
            self.buf.extend_from_slice(bytes);
        }
        #[cfg(not(target_endian = "little"))]
        for &v in data {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }

    /// Body bytes written so far.
    pub fn body_len(&self) -> usize {
        self.buf.len() - HEADER_LEN
    }

    /// Back-fills the header (magic, version, kind, length, body CRC) and
    /// returns the complete frame.
    pub fn finish(mut self) -> Vec<u8> {
        let body_len = self.buf.len() - HEADER_LEN;
        debug_assert!(body_len <= MAX_BODY as usize, "frame body over MAX_BODY");
        let crc = crc32(&self.buf[HEADER_LEN..]);
        self.buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        self.buf[2] = WIRE_VERSION;
        self.buf[3] = self.kind;
        self.buf[4..8].copy_from_slice(&(body_len as u32).to_le_bytes());
        self.buf[8..12].copy_from_slice(&crc.to_le_bytes());
        self.buf
    }
}

/// One decoded frame: its kind byte and verified body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame discriminator from the header.
    pub kind: u8,
    /// The checksum-verified body bytes.
    pub body: Vec<u8>,
}

/// A parsed frame's position inside a [`FrameDecoder`]'s ring buffer:
/// kind byte plus the checksum-verified body range. Resolve the bytes with
/// [`FrameDecoder::body`]. The range is valid until the decoder is next
/// [`extend`](FrameDecoder::extend)ed or [`read_from`](FrameDecoder::read_from)
/// (compaction shifts the buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameSlot {
    /// The frame discriminator from the header.
    pub kind: u8,
    /// Byte range of the verified body inside the decoder's buffer.
    pub body: std::ops::Range<usize>,
}

/// Incremental frame parser over a byte stream.
///
/// Feed arbitrary chunks with [`extend`](Self::extend) (or read straight
/// off a socket with [`read_from`](Self::read_from)) and pull complete
/// frames with [`poll_frame`](Self::poll_frame), which yields
/// [`FrameSlot`] ranges over the internal buffer — no per-frame copy.
/// [`next_frame`](Self::next_frame) is the owned-`Frame` convenience on
/// top (replay paths, tests).
///
/// The buffer is a compacting ring: consumed frames advance a start
/// cursor, and the unparsed tail is moved to the front once per feed —
/// peak memory is bounded by the largest in-flight frame plus one read,
/// not by throughput. [`buffered_hwm`](Self::buffered_hwm) reports the
/// peak.
///
/// Recoverable rejections (checksum mismatch on a plausibly framed body)
/// consume the bad frame so the stream can continue; structural
/// rejections (bad magic, wrong version, oversize length) poison the
/// decoder — once framing is lost there is no resynchronization point, so
/// every later call returns the same error and the transport must drop
/// the connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Start of the unparsed region; everything before it is consumed.
    start: usize,
    /// Peak of `buffered()` — the rx memory bound.
    hwm: usize,
    poisoned: Option<WireError>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the unparsed tail to the front of the buffer, releasing the
    /// consumed prefix. Called once per feed, not once per frame.
    fn compact(&mut self) {
        if self.start > 0 {
            let len = self.buf.len();
            self.buf.copy_within(self.start..len, 0);
            self.buf.truncate(len - self.start);
            self.start = 0;
        }
    }

    /// Appends received bytes (compacting first).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
        self.hwm = self.hwm.max(self.buf.len());
    }

    /// Reads up to `max` bytes from `src` directly into the buffer (one
    /// copy off the socket — no intermediate stack buffer). Returns the
    /// byte count from the underlying `read` (0 = EOF).
    pub fn read_from(
        &mut self,
        src: &mut impl std::io::Read,
        max: usize,
    ) -> std::io::Result<usize> {
        self.compact();
        let old = self.buf.len();
        self.buf.resize(old + max, 0);
        match src.read(&mut self.buf[old..]) {
            Ok(n) => {
                self.buf.truncate(old + n);
                self.hwm = self.hwm.max(self.buf.len());
                Ok(n)
            }
            Err(e) => {
                self.buf.truncate(old);
                Err(e)
            }
        }
    }

    /// Bytes buffered but not yet parsed into frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Peak of [`buffered`](Self::buffered) over the decoder's lifetime.
    pub fn buffered_hwm(&self) -> usize {
        self.hwm
    }

    /// Parses the next complete frame, if one is buffered, as a zero-copy
    /// [`FrameSlot`] over the internal buffer.
    ///
    /// `Ok(None)` means more bytes are needed. `Err(BadChecksum)` consumes
    /// the corrupt frame (callers meter it and may keep reading); any
    /// other error is sticky.
    pub fn poll_frame(&mut self) -> Result<Option<FrameSlot>, WireError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        let avail = &self.buf[self.start..];
        if avail.len() < HEADER_LEN {
            return Ok(None);
        }
        let magic = u16::from_le_bytes([avail[0], avail[1]]);
        if magic != MAGIC {
            return Err(self.poison(WireError::BadMagic { got: magic }));
        }
        let version = avail[2];
        if version != WIRE_VERSION {
            return Err(self.poison(WireError::BadVersion { got: version }));
        }
        let kind = avail[3];
        let len = u32::from_le_bytes(avail[4..8].try_into().expect("4 bytes"));
        if len > MAX_BODY {
            return Err(self.poison(WireError::Oversize { len }));
        }
        let crc = u32::from_le_bytes(avail[8..12].try_into().expect("4 bytes"));
        let total = HEADER_LEN + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let body = self.start + HEADER_LEN..self.start + total;
        // Consume the frame whether or not the checksum holds: a bad body
        // is recoverable precisely because the framing stays intact.
        self.start += total;
        if crc32(&self.buf[body.clone()]) != crc {
            return Err(WireError::BadChecksum);
        }
        Ok(Some(FrameSlot { kind, body }))
    }

    /// The verified body bytes of a slot returned by
    /// [`poll_frame`](Self::poll_frame).
    pub fn body(&self, slot: &FrameSlot) -> &[u8] {
        &self.buf[slot.body.clone()]
    }

    /// Parses the next complete frame into an owned [`Frame`] (a copy) —
    /// the convenience API for replay paths and tests; hot receive loops
    /// use [`poll_frame`](Self::poll_frame).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        match self.poll_frame()? {
            Some(slot) => Ok(Some(Frame {
                kind: slot.kind,
                body: self.buf[slot.body].to_vec(),
            })),
            None => Ok(None),
        }
    }

    fn poison(&mut self, e: WireError) -> WireError {
        self.poisoned = Some(e);
        e
    }
}

// ---------------------------------------------------------------------------
// CtrlMsg body codec.
// ---------------------------------------------------------------------------

const TAG_IMPORT_CALL: u8 = 1;
const TAG_IMPORT_REQUEST: u8 = 2;
const TAG_FORWARD_REQUEST: u8 = 3;
const TAG_RESPONSE: u8 = 4;
const TAG_BUDDY_HELP: u8 = 5;
const TAG_ANSWER: u8 = 6;
const TAG_ANSWER_BCAST: u8 = 7;
const TAG_ACK: u8 = 8;
// Tag 9 is reserved: `decode_ctrl` rejects it as `BadTag`.
const TAG_COALESCED: u8 = 10;

const TAG_RESP_MATCH: u8 = 1;
const TAG_RESP_NO_MATCH: u8 = 2;
const TAG_RESP_PENDING_NONE: u8 = 3;
const TAG_RESP_PENDING_SOME: u8 = 4;

const TAG_ANS_MATCH: u8 = 1;
const TAG_ANS_NO_MATCH: u8 = 2;

fn put_answer(w: &mut BodyWriter, a: RepAnswer) {
    match a {
        RepAnswer::Match(t) => {
            w.u8(TAG_ANS_MATCH);
            w.f64(t.value());
        }
        RepAnswer::NoMatch => w.u8(TAG_ANS_NO_MATCH),
    }
}

fn take_answer(r: &mut BodyReader<'_>) -> Result<RepAnswer, WireError> {
    match r.u8()? {
        TAG_ANS_MATCH => Ok(RepAnswer::Match(r.timestamp()?)),
        TAG_ANS_NO_MATCH => Ok(RepAnswer::NoMatch),
        tag => Err(WireError::BadTag {
            what: "rep answer",
            tag,
        }),
    }
}

fn put_response(w: &mut BodyWriter, resp: ProcResponse) {
    match resp {
        ProcResponse::Match(t) => {
            w.u8(TAG_RESP_MATCH);
            w.f64(t.value());
        }
        ProcResponse::NoMatch => w.u8(TAG_RESP_NO_MATCH),
        ProcResponse::Pending { latest: None } => w.u8(TAG_RESP_PENDING_NONE),
        ProcResponse::Pending { latest: Some(t) } => {
            w.u8(TAG_RESP_PENDING_SOME);
            w.f64(t.value());
        }
    }
}

fn take_response(r: &mut BodyReader<'_>) -> Result<ProcResponse, WireError> {
    match r.u8()? {
        TAG_RESP_MATCH => Ok(ProcResponse::Match(r.timestamp()?)),
        TAG_RESP_NO_MATCH => Ok(ProcResponse::NoMatch),
        TAG_RESP_PENDING_NONE => Ok(ProcResponse::Pending { latest: None }),
        TAG_RESP_PENDING_SOME => Ok(ProcResponse::Pending {
            latest: Some(r.timestamp()?),
        }),
        tag => Err(WireError::BadTag {
            what: "proc response",
            tag,
        }),
    }
}

/// Encodes a control message into a frame body (no envelope).
pub fn encode_ctrl(msg: &CtrlMsg) -> Vec<u8> {
    let mut w = BodyWriter::with_capacity(32);
    match *msg {
        CtrlMsg::ImportCall { conn, rank, ts } => {
            w.u8(TAG_IMPORT_CALL);
            w.u32(conn.0);
            w.u32(rank.0);
            w.f64(ts.value());
        }
        CtrlMsg::ImportRequest { conn, req, ts } => {
            w.u8(TAG_IMPORT_REQUEST);
            w.u32(conn.0);
            w.u64(req.0);
            w.f64(ts.value());
        }
        CtrlMsg::ForwardRequest { conn, req, ts } => {
            w.u8(TAG_FORWARD_REQUEST);
            w.u32(conn.0);
            w.u64(req.0);
            w.f64(ts.value());
        }
        CtrlMsg::Response {
            conn,
            req,
            rank,
            resp,
        } => {
            w.u8(TAG_RESPONSE);
            w.u32(conn.0);
            w.u64(req.0);
            w.u32(rank.0);
            put_response(&mut w, resp);
        }
        CtrlMsg::BuddyHelp { conn, req, answer } => {
            w.u8(TAG_BUDDY_HELP);
            w.u32(conn.0);
            w.u64(req.0);
            put_answer(&mut w, answer);
        }
        CtrlMsg::Answer { conn, req, answer } => {
            w.u8(TAG_ANSWER);
            w.u32(conn.0);
            w.u64(req.0);
            put_answer(&mut w, answer);
        }
        CtrlMsg::AnswerBcast { conn, req, answer } => {
            w.u8(TAG_ANSWER_BCAST);
            w.u32(conn.0);
            w.u64(req.0);
            put_answer(&mut w, answer);
        }
        CtrlMsg::Coalesced {
            conn,
            req,
            answer,
            bcast,
            help,
        } => {
            w.u8(TAG_COALESCED);
            w.u32(conn.0);
            w.u64(req.0);
            put_answer(&mut w, answer);
            w.u8(u8::from(bcast) | (u8::from(help) << 1));
        }
        CtrlMsg::Ack { seq } => {
            w.u8(TAG_ACK);
            w.u64(seq);
        }
    }
    w.into_body()
}

/// Decodes a control message from a frame body produced by
/// [`encode_ctrl`]. Trailing bytes are rejected.
pub fn decode_ctrl(body: &[u8]) -> Result<CtrlMsg, WireError> {
    let mut r = BodyReader::new(body);
    let msg = match r.u8()? {
        TAG_IMPORT_CALL => CtrlMsg::ImportCall {
            conn: ConnectionId(r.u32()?),
            rank: Rank(r.u32()?),
            ts: r.timestamp()?,
        },
        TAG_IMPORT_REQUEST => CtrlMsg::ImportRequest {
            conn: ConnectionId(r.u32()?),
            req: RequestId(r.u64()?),
            ts: r.timestamp()?,
        },
        TAG_FORWARD_REQUEST => CtrlMsg::ForwardRequest {
            conn: ConnectionId(r.u32()?),
            req: RequestId(r.u64()?),
            ts: r.timestamp()?,
        },
        TAG_RESPONSE => CtrlMsg::Response {
            conn: ConnectionId(r.u32()?),
            req: RequestId(r.u64()?),
            rank: Rank(r.u32()?),
            resp: take_response(&mut r)?,
        },
        TAG_BUDDY_HELP => CtrlMsg::BuddyHelp {
            conn: ConnectionId(r.u32()?),
            req: RequestId(r.u64()?),
            answer: take_answer(&mut r)?,
        },
        TAG_ANSWER => CtrlMsg::Answer {
            conn: ConnectionId(r.u32()?),
            req: RequestId(r.u64()?),
            answer: take_answer(&mut r)?,
        },
        TAG_ANSWER_BCAST => CtrlMsg::AnswerBcast {
            conn: ConnectionId(r.u32()?),
            req: RequestId(r.u64()?),
            answer: take_answer(&mut r)?,
        },
        TAG_COALESCED => {
            let conn = ConnectionId(r.u32()?);
            let req = RequestId(r.u64()?);
            let answer = take_answer(&mut r)?;
            let roles = r.u8()?;
            if roles == 0 || roles > 3 {
                return Err(WireError::BadTag {
                    what: "coalesced roles",
                    tag: roles,
                });
            }
            CtrlMsg::Coalesced {
                conn,
                req,
                answer,
                bcast: roles & 1 != 0,
                help: roles & 2 != 0,
            }
        }
        TAG_ACK => CtrlMsg::Ack { seq: r.u64()? },
        tag => {
            return Err(WireError::BadTag {
                what: "ctrl message",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(msg)
}

// ---------------------------------------------------------------------------
// Payload (data-piece) codec.
// ---------------------------------------------------------------------------

/// A rectangle on the wire. The protocol crate carries it as raw `u64`
/// coordinates; the runtime converts to/from its layout type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireRect {
    /// First row of the rectangle.
    pub row0: u64,
    /// First column of the rectangle.
    pub col0: u64,
    /// Row count.
    pub rows: u64,
    /// Column count.
    pub cols: u64,
}

fn take_rect(r: &mut BodyReader<'_>) -> Result<WireRect, WireError> {
    Ok(WireRect {
        row0: r.u64()?,
        col0: r.u64()?,
        rows: r.u64()?,
        cols: r.u64()?,
    })
}

/// One matched data piece on the wire: the transfer rectangle, the
/// exporter-owned rectangle the flat `data` spans (row-major,
/// `owned.rows * owned.cols` values), and the addressing needed to hand it
/// to the right importer.
#[derive(Debug, Clone, PartialEq)]
pub struct PayloadFrame {
    /// Connection the transfer is on.
    pub conn: ConnectionId,
    /// Destination importer rank.
    pub dst: Rank,
    /// Request the piece satisfies.
    pub req: RequestId,
    /// The region of `data` the importer should copy.
    pub rect: WireRect,
    /// The rectangle `data` spans (the exporting process's owned region).
    pub owned: WireRect,
    /// Row-major values of `owned`.
    pub data: Vec<f64>,
}

/// Encodes a payload frame (envelope included). The `data` slice is
/// serialized directly — the caller hands the shared buffer's slice, no
/// intermediate copy of the array is made.
pub fn encode_payload(
    conn: ConnectionId,
    dst: Rank,
    req: RequestId,
    rect: WireRect,
    owned: WireRect,
    data: &[f64],
) -> Vec<u8> {
    encode_payload_with(Vec::new(), conn, dst, req, rect, owned, data)
}

/// [`encode_payload`] into a recycled buffer (the pooled tx path): the
/// envelope and body are written in place, so a buffer whose capacity
/// already covers the frame incurs zero allocations.
pub fn encode_payload_with(
    buf: Vec<u8>,
    conn: ConnectionId,
    dst: Rank,
    req: RequestId,
    rect: WireRect,
    owned: WireRect,
    data: &[f64],
) -> Vec<u8> {
    let mut w = FrameWriter::with_buffer(KIND_PAYLOAD, buf);
    w.reserve(8 + 8 * 8 + 8 + 8 + 8 * data.len());
    w.u32(conn.0);
    w.u32(dst.0);
    w.u64(req.0);
    w.u64(rect.row0);
    w.u64(rect.col0);
    w.u64(rect.rows);
    w.u64(rect.cols);
    w.u64(owned.row0);
    w.u64(owned.col0);
    w.u64(owned.rows);
    w.u64(owned.cols);
    w.u64(data.len() as u64);
    w.f64_slice(data);
    w.finish()
}

/// Decodes a payload frame body. Rejects data whose length disagrees with
/// either its own length prefix or the owned rectangle's area.
pub fn decode_payload(body: &[u8]) -> Result<PayloadFrame, WireError> {
    let mut r = BodyReader::new(body);
    let conn = ConnectionId(r.u32()?);
    let dst = Rank(r.u32()?);
    let req = RequestId(r.u64()?);
    let rect = take_rect(&mut r)?;
    let owned = take_rect(&mut r)?;
    let n = r.u64()?;
    if n != owned.rows.saturating_mul(owned.cols) {
        return Err(WireError::Malformed {
            what: "payload length vs owned rect",
        });
    }
    if n as usize * 8 != r.remaining() {
        return Err(WireError::Malformed {
            what: "payload length vs body",
        });
    }
    // One correctly-sized allocation filled straight from the body bytes —
    // this vector becomes the importer-side shared array, so the
    // socket-to-array path is a single copy.
    let raw = r.raw(n as usize * 8)?;
    let mut data = vec![0f64; n as usize];
    for (d, ch) in data.iter_mut().zip(raw.chunks_exact(8)) {
        *d = f64::from_le_bytes(ch.try_into().expect("8 bytes"));
    }
    r.finish()?;
    Ok(PayloadFrame {
        conn,
        dst,
        req,
        rect,
        owned,
        data,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_time::ts;

    /// Deterministic filler: the top byte of a 64-bit LCG (Knuth's MMIX
    /// constants) per output byte.
    fn lcg_bytes(n: usize) -> Vec<u8> {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    /// Pinned values: these fail if anyone changes the polynomial, the bit
    /// order or the initial/final inversion — which would make every frame
    /// and journal written by an earlier build unreadable.
    #[test]
    fn crc32_known_vector() {
        // The standard IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // 1 MiB of LCG bytes; the value is what the slice-by-8 `crc32` of
        // the build before the carry-less-multiply arm existed returns
        // (and what zlib's does).
        assert_eq!(crc32(&lcg_bytes(1 << 20)), 0xCFA8_D20E);
    }

    /// Every arm of the dispatch against the byte-at-a-time oracle, each
    /// called directly: all lengths 0..=300 at all 16 offsets walk the
    /// threshold, the fold-by-four and fold-by-one loops, the reduction
    /// and every table-tail length at every alignment; the long inputs
    /// straddle lane and round boundaries at real frame sizes (256 KiB +
    /// 88 is a `socket_bulk` payload body).
    #[test]
    fn crc32_arms_agree_with_the_reference() {
        let buf = lcg_bytes((1 << 20) + 13 + 16);
        let long = [
            (1 << 16) - 1,
            1 << 16,
            (1 << 16) + 1,
            (1 << 18) + 87,
            (1 << 18) + 88,
            (1 << 20) + 13,
        ];
        let mut folded = 0usize;
        for len in (0..=300).chain(long) {
            for off in 0..16 {
                let bytes = &buf[off..off + len];
                let want = crc32_reference(bytes);
                assert_eq!(!slice8(!0, bytes), want, "slice8, len {len} offset {off}");
                assert_eq!(crc32(bytes), want, "dispatch, len {len} offset {off}");
                #[cfg(target_arch = "x86_64")]
                match clmul::fold(bytes) {
                    Some((state, tail)) => {
                        assert!(len >= clmul::MIN_LEN && tail.len() < 16);
                        assert_eq!(!slice8(state, tail), want, "clmul, len {len} offset {off}");
                        folded += 1;
                    }
                    // Below the threshold on any CPU; at or above it only
                    // on one without the feature.
                    None => assert!(
                        len < clmul::MIN_LEN || !is_x86_feature_detected!("pclmulqdq"),
                        "fold declined len {len}"
                    ),
                }
            }
        }
        if folded == 0 {
            println!("clmul arm skipped: not x86-64, or no PCLMULQDQ/SSE4.1 on this CPU");
        }
    }

    #[test]
    fn ctrl_frame_roundtrip() {
        let msg = CtrlMsg::Response {
            conn: ConnectionId(3),
            req: RequestId(41),
            rank: Rank(2),
            resp: ProcResponse::Pending {
                latest: Some(ts(14.6)),
            },
        };
        let frame = encode_frame(KIND_CTRL, &encode_ctrl(&msg));
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        let got = dec.next_frame().expect("valid").expect("complete");
        assert_eq!(got.kind, KIND_CTRL);
        assert_eq!(decode_ctrl(&got.body).expect("decodes"), msg);
        assert!(dec.next_frame().expect("no error").is_none());
    }

    #[test]
    fn coalesced_frame_roundtrip_covers_every_role_combination() {
        for (bcast, help) in [(true, false), (false, true), (true, true)] {
            let msg = CtrlMsg::Coalesced {
                conn: ConnectionId(5),
                req: RequestId(17),
                answer: RepAnswer::Match(ts(19.6)),
                bcast,
                help,
            };
            let frame = encode_frame(KIND_CTRL, &encode_ctrl(&msg));
            let mut dec = FrameDecoder::new();
            dec.extend(&frame);
            let got = dec.next_frame().expect("valid").expect("complete");
            assert_eq!(decode_ctrl(&got.body).expect("decodes"), msg);
        }
        // A coalesced frame with no role is malformed, not silently empty.
        let mut body = encode_ctrl(&CtrlMsg::Coalesced {
            conn: ConnectionId(0),
            req: RequestId(0),
            answer: RepAnswer::NoMatch,
            bcast: true,
            help: false,
        });
        *body.last_mut().expect("roles byte") = 0;
        assert!(decode_ctrl(&body).is_err());
    }

    #[test]
    fn decoder_handles_split_and_batched_frames() {
        let a = encode_frame(KIND_CTRL, &encode_ctrl(&CtrlMsg::Ack { seq: 9 }));
        let b = encode_frame(KIND_CTRL, &encode_ctrl(&CtrlMsg::Ack { seq: 7 }));
        let mut wire: Vec<u8> = a.iter().chain(&b).copied().collect();
        let tail = wire.split_off(5);
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert!(dec.next_frame().expect("incomplete is fine").is_none());
        dec.extend(&tail);
        let first = dec.next_frame().expect("ok").expect("frame");
        let second = dec.next_frame().expect("ok").expect("frame");
        assert_eq!(decode_ctrl(&first.body), Ok(CtrlMsg::Ack { seq: 9 }));
        assert_eq!(decode_ctrl(&second.body), Ok(CtrlMsg::Ack { seq: 7 }));
    }

    /// Tag 9 is reserved: a well-framed body carrying it is rejected, and
    /// the decoder goes on to the next frame.
    #[test]
    fn reserved_ctrl_tag_is_rejected_and_the_stream_continues() {
        let reserved = [9u8, 0, 0, 0, 0, 0, 0, 0, 0];
        assert_eq!(
            decode_ctrl(&reserved),
            Err(WireError::BadTag {
                what: "ctrl message",
                tag: 9
            })
        );
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(KIND_CTRL, &reserved));
        dec.extend(&encode_frame(
            KIND_CTRL,
            &encode_ctrl(&CtrlMsg::Ack { seq: 3 }),
        ));
        let first = dec.next_frame().expect("ok").expect("frame");
        assert!(decode_ctrl(&first.body).is_err());
        let second = dec.next_frame().expect("ok").expect("frame");
        assert_eq!(decode_ctrl(&second.body), Ok(CtrlMsg::Ack { seq: 3 }));
    }

    #[test]
    fn checksum_rejection_is_recoverable() {
        let good = CtrlMsg::Answer {
            conn: ConnectionId(1),
            req: RequestId(2),
            answer: RepAnswer::NoMatch,
        };
        let mut bad = encode_frame(KIND_CTRL, &encode_ctrl(&good));
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.extend(&bad);
        dec.extend(&encode_frame(KIND_CTRL, &encode_ctrl(&good)));
        assert_eq!(dec.next_frame(), Err(WireError::BadChecksum));
        let next = dec.next_frame().expect("recovered").expect("frame");
        assert_eq!(decode_ctrl(&next.body), Ok(good));
    }

    #[test]
    fn structural_rejections_poison_the_stream() {
        let mut dec = FrameDecoder::new();
        let mut frame = encode_frame(KIND_CTRL, &encode_ctrl(&CtrlMsg::Ack { seq: 1 }));
        frame[2] = WIRE_VERSION + 1;
        dec.extend(&frame);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::BadVersion {
                got: WIRE_VERSION + 1
            })
        );
        // Sticky: later (valid) bytes never resurrect the stream.
        dec.extend(&encode_frame(
            KIND_CTRL,
            &encode_ctrl(&CtrlMsg::Ack { seq: 2 }),
        ));
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn payload_roundtrip() {
        let rect = WireRect {
            row0: 2,
            col0: 0,
            rows: 2,
            cols: 8,
        };
        let owned = WireRect {
            row0: 2,
            col0: 0,
            rows: 3,
            cols: 8,
        };
        let data: Vec<f64> = (0..24).map(|i| i as f64 * 0.5).collect();
        let frame = encode_payload(ConnectionId(0), Rank(1), RequestId(7), rect, owned, &data);
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        let got = dec.next_frame().expect("ok").expect("frame");
        assert_eq!(got.kind, KIND_PAYLOAD);
        let p = decode_payload(&got.body).expect("decodes");
        assert_eq!(p.rect, rect);
        assert_eq!(p.owned, owned);
        assert_eq!(p.data, data);
    }

    #[test]
    fn payload_length_mismatch_rejected() {
        let owned = WireRect {
            row0: 0,
            col0: 0,
            rows: 2,
            cols: 2,
        };
        let frame = encode_payload(
            ConnectionId(0),
            Rank(0),
            RequestId(0),
            owned,
            owned,
            &[1.0, 2.0, 3.0],
        );
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        let got = dec.next_frame().expect("framing fine").expect("frame");
        assert_eq!(
            decode_payload(&got.body),
            Err(WireError::Malformed {
                what: "payload length vs owned rect"
            })
        );
    }
}
