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
//! Bodies are little-endian. Every body is declared once through the
//! [`Wire`] trait: a struct is its fields in order
//! ([`wire_struct!`](crate::wire_struct)), an enum is an explicit tag byte
//! then the variant's fields ([`wire_enum!`](crate::wire_enum)), a tuple is
//! its elements, an `Option` a presence byte then the value, a
//! `Vec` a `u32` count then the elements. [`frame`] writes a value into a
//! frame in place and [`decode`] reads a body back, refusing trailing
//! bytes. Timestamps travel as raw `f64` bits and are re-validated on
//! decode (NaN/infinite bits are a [`WireError::Malformed`], never a
//! panic). Decoding never trusts length fields beyond [`MAX_BODY`] or the
//! bytes left, and never indexes past the received bytes: every malformed
//! input maps to a typed [`WireError`].
//!
//! This crate declares the control messages (frame kind [`KIND_CTRL`];
//! [`encode_ctrl`] / [`decode_ctrl`] are the body-only wrappers) and the
//! trace and statistics records; data pieces have their own bulk codec
//! ([`encode_payload`] / [`decode_payload`], kind [`KIND_PAYLOAD`]). The
//! runtime declares its envelopes, journal records and bootstrap frames
//! through the same trait, with kind bytes at or above
//! [`KIND_RUNTIME_BASE`].

use crate::ids::{ConnectionId, Rank, RequestId};
use crate::messages::{CtrlMsg, ProcResponse, RepAnswer, TreeRole};
use crate::stats::ExportStats;
use crate::trace::{Trace, TraceEvent};
use couplink_time::Timestamp;
use std::fmt;
use std::sync::Arc;

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
// `crc32_update` picks between the first two; nothing else does.
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
/// and journal record. The same as `crc32_update(0, bytes)`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continues a checksum over more bytes: `crc32_update(crc32(a), b) ==
/// crc32(a ++ b)`, so a frame body kept in two buffers — a payload's head
/// and the shared array behind it — is checked without joining them.
///
/// The one place the implementation is chosen, from what the code can
/// observe: on x86-64 with PCLMULQDQ and SSE4.1, an input of at least
/// `clmul::MIN_LEN` (64) bytes has its 16-byte-multiple prefix folded by
/// carry-less multiplication, starting from the register `crc` leaves, and
/// only the tail goes through the tables; anything else (other targets,
/// older CPUs, control frames) is slice-by-8 throughout. Both compute the
/// same polynomial, so the choice never shows on the wire.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some((state, tail)) = clmul::fold(!crc, bytes) {
        return !slice8(state, tail);
    }
    !slice8(!crc, bytes)
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

    /// Folds the longest 16-byte-multiple prefix of `bytes` into the raw
    /// (un-inverted) CRC register `init` and returns the register after it
    /// with the unconsumed tail (under 16 bytes) — or `None` when the input
    /// is shorter than [`MIN_LEN`] or the CPU lacks PCLMULQDQ / SSE4.1, and
    /// the caller computes the whole checksum from the tables.
    pub(super) fn fold(init: u32, bytes: &[u8]) -> Option<(u32, &[u8])> {
        if bytes.len() < MIN_LEN
            || !is_x86_feature_detected!("pclmulqdq")
            || !is_x86_feature_detected!("sse4.1")
        {
            return None;
        }
        let (lanes, tail) = bytes.as_chunks::<16>();
        // SAFETY: `fold_lanes` needs the `pclmulqdq` and `sse4.1` target
        // features, and both were detected on this CPU just above.
        Some((unsafe { fold_lanes(init, lanes) }, tail))
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

    /// The raw CRC register after `lanes`, starting from `init` (all ones
    /// for a fresh checksum). `lanes.len() >= 4` ([`fold`] checks
    /// [`MIN_LEN`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_lanes(init: u32, lanes: &[[u8; 16]]) -> u32 {
        let (first, rest) = lanes.split_at(4);
        // The initial register value is folded in as data: xor it onto
        // the first four message bytes.
        let mut x = [
            _mm_xor_si128(load(&first[0]), _mm_cvtsi32_si128(init as i32)),
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

    /// Appends a whole `f64` slice as little-endian bit patterns in one
    /// bulk copy (the wire byte order *is* the in-memory order on
    /// little-endian targets; big-endian targets fall back per element).
    pub fn f64_slice(&mut self, data: &[f64]) {
        #[cfg(target_endian = "little")]
        self.buf.extend_from_slice(f64_bytes(data));
        #[cfg(not(target_endian = "little"))]
        for &v in data {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
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
/// back-fills the envelope — no header+body concatenation copy. The body
/// is appended through the [`BodyWriter`] it derefs to.
///
/// Byte-for-byte identical output to `encode_frame(kind, &body)`.
#[derive(Debug)]
pub struct FrameWriter {
    kind: u8,
    /// Header placeholder, then the body.
    out: BodyWriter,
}

impl FrameWriter {
    /// A frame writer over a fresh buffer with `body_cap` body bytes
    /// reserved (plus the header).
    pub fn with_capacity(kind: u8, body_cap: usize) -> Self {
        let mut buf = Vec::with_capacity(HEADER_LEN + body_cap);
        buf.resize(HEADER_LEN, 0);
        FrameWriter {
            kind,
            out: BodyWriter { buf },
        }
    }

    /// Back-fills the header (magic, version, kind, length, body CRC) and
    /// returns the complete frame.
    pub fn finish(self) -> Vec<u8> {
        let mut buf = self.out.buf;
        let body_len = buf.len() - HEADER_LEN;
        let crc = crc32(&buf[HEADER_LEN..]);
        write_header(&mut buf, self.kind, body_len, crc);
        buf
    }
}

/// Back-fills the header reserved at the front of `buf`: magic, version,
/// `kind`, the body length and the body's checksum.
fn write_header(buf: &mut [u8], kind: u8, body_len: usize, crc: u32) {
    debug_assert!(body_len <= MAX_BODY as usize, "frame body over MAX_BODY");
    buf[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    buf[2] = WIRE_VERSION;
    buf[3] = kind;
    buf[4..8].copy_from_slice(&(body_len as u32).to_le_bytes());
    buf[8..12].copy_from_slice(&crc.to_le_bytes());
}

impl std::ops::Deref for FrameWriter {
    type Target = BodyWriter;
    fn deref(&self) -> &BodyWriter {
        &self.out
    }
}

impl std::ops::DerefMut for FrameWriter {
    fn deref_mut(&mut self) -> &mut BodyWriter {
        &mut self.out
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
/// peak. The bytes past the filled end stay initialised from one feed to
/// the next, so a `read` lands in them without zero-filling a chunk first;
/// only growth is zeroed.
///
/// Recoverable rejections (checksum mismatch on a plausibly framed body)
/// consume the bad frame so the stream can continue; structural
/// rejections (bad magic, wrong version, oversize length) poison the
/// decoder — once framing is lost there is no resynchronization point, so
/// every later call returns the same error and the transport must drop
/// the connection.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Initialised storage; only `start..end` holds received bytes.
    buf: Vec<u8>,
    /// Start of the unparsed region; everything before it is consumed.
    start: usize,
    /// End of the received bytes.
    end: usize,
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
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }

    /// Compacts, then makes room for `n` more bytes past the filled end:
    /// the free tail's `end..end + n`, zero-filled only where the buffer
    /// grows.
    fn free_tail(&mut self, n: usize) -> &mut [u8] {
        self.compact();
        let want = self.end + n;
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        &mut self.buf[self.end..want]
    }

    /// Appends received bytes (compacting first).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.free_tail(bytes.len()).copy_from_slice(bytes);
        self.end += bytes.len();
        self.hwm = self.hwm.max(self.end);
    }

    /// Reads up to `max` bytes from `src` directly into the buffer (one
    /// copy off the socket — no intermediate stack buffer). Returns the
    /// byte count from the underlying `read` (0 = EOF).
    pub fn read_from(
        &mut self,
        src: &mut impl std::io::Read,
        max: usize,
    ) -> std::io::Result<usize> {
        let n = src.read(self.free_tail(max))?;
        self.end += n;
        self.hwm = self.hwm.max(self.end);
        Ok(n)
    }

    /// Bytes buffered but not yet parsed into frames.
    pub fn buffered(&self) -> usize {
        self.end - self.start
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
        let avail = &self.buf[self.start..self.end];
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
// The `Wire` trait: every frame body declared once.
// ---------------------------------------------------------------------------

/// A value with one wire form on [`BodyWriter`] / [`BodyReader`]: `put`
/// appends it, `take` reads it back — bounds-checked, a typed
/// [`WireError`] on hostile input, never a panic. Every body on the wire
/// (control messages, envelopes, journal records, plan and report) is a
/// field list over these impls, so no encoder can drift from its decoder.
///
/// Structs are declared with [`wire_struct!`](crate::wire_struct) (fields
/// in order), enums with [`wire_enum!`](crate::wire_enum) (an explicit tag
/// byte, then the variant's fields), and tuples are their elements in
/// order.
pub trait Wire: Sized {
    /// Appends the value.
    fn put(&self, w: &mut BodyWriter);
    /// Reads one value.
    fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError>;
}

/// Builds one complete frame of `kind` whose body is `value`, written in
/// place after the reserved header. The 64 body bytes reserved up front
/// hold any control envelope; larger bodies grow the buffer.
pub fn frame<T: Wire>(kind: u8, value: &T) -> Vec<u8> {
    let mut w = FrameWriter::with_capacity(kind, 64);
    value.put(&mut w);
    w.finish()
}

/// Decodes a body that is exactly one `T` (trailing bytes are refused).
pub fn decode<T: Wire>(body: &[u8]) -> Result<T, WireError> {
    let mut r = BodyReader::new(body);
    let value = T::take(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Encodes a control message into a frame body (no envelope).
pub fn encode_ctrl(msg: &CtrlMsg) -> Vec<u8> {
    let mut w = BodyWriter::with_capacity(32);
    msg.put(&mut w);
    w.into_body()
}

/// Decodes a control message from a frame body produced by
/// [`encode_ctrl`]. Trailing bytes are rejected.
pub fn decode_ctrl(body: &[u8]) -> Result<CtrlMsg, WireError> {
    decode(body)
}

macro_rules! wire_prim {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut BodyWriter) {
                w.$ty(*self);
            }
            fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
                r.$ty()
            }
        }
    )*};
}
wire_prim!(u8, u32, u64, f64);

impl Wire for usize {
    fn put(&self, w: &mut BodyWriter) {
        w.u64(*self as u64);
    }
    fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::Malformed { what: "usize" })
    }
}

impl Wire for bool {
    fn put(&self, w: &mut BodyWriter) {
        w.u8(*self as u8);
    }
    fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Wire for String {
    fn put(&self, w: &mut BodyWriter) {
        w.str(self);
    }
    fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
        Ok(r.str()?.to_string())
    }
}

impl Wire for Timestamp {
    fn put(&self, w: &mut BodyWriter) {
        w.f64(self.value());
    }
    fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
        r.timestamp()
    }
}

/// A presence byte (a `bool`), then the value if present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut BodyWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
        Ok(if bool::take(r)? {
            Some(T::take(r)?)
        } else {
            None
        })
    }
}

/// The clamp rule: every element occupies at least one body byte, so a
/// count beyond the bytes left is a lie — reserve no more than that and
/// let the element reads run into [`WireError::Truncated`].
fn clamped_capacity(count: usize, r: &BodyReader<'_>) -> usize {
    count.min(r.remaining())
}

/// A `u32` element count, then the elements.
fn put_slice<T: Wire>(items: &[T], w: &mut BodyWriter) {
    w.u32(items.len() as u32);
    for item in items {
        item.put(w);
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut BodyWriter) {
        put_slice(self, w);
    }
    fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
        let count = r.u32()? as usize;
        let mut items = Vec::with_capacity(clamped_capacity(count, r));
        for _ in 0..count {
            items.push(T::take(r)?);
        }
        Ok(items)
    }
}

macro_rules! wire_tuple {
    ($($t:ident),+) => {
        #[allow(non_snake_case)]
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, w: &mut BodyWriter) {
                let ($($t,)+) = self;
                $($t.put(w);)+
            }
            fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
                Ok(($($t::take(r)?,)+))
            }
        }
    };
}
wire_tuple!(A, B);
wire_tuple!(A, B, C);
wire_tuple!(A, B, C, D);
wire_tuple!(A, B, C, D, E, F);

/// Declares a struct's [`Wire`] form: its fields in the listed order.
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, w: &mut $crate::wire::BodyWriter) {
                $($crate::wire::Wire::put(&self.$field, w);)*
            }
            fn take(
                r: &mut $crate::wire::BodyReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                $(let $field = $crate::wire::Wire::take(r)?;)*
                Ok($ty { $($field),* })
            }
        }
    };
}

/// Declares an enum's [`Wire`] form: a tag byte, then the variant's fields
/// in the listed order. Any other tag is [`WireError::BadTag`] naming
/// `$what`.
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $variant:ident $({ $($f:ident),* })? $(( $($t:ident),* ))?,)*
    }) => {
        impl $crate::wire::Wire for $ty {
            fn put(&self, w: &mut $crate::wire::BodyWriter) {
                match self {
                    $($ty::$variant $({ $($f),* })? $(( $($t),* ))? => {
                        w.u8($tag);
                        $($($crate::wire::Wire::put($f, w);)*)?
                        $($($crate::wire::Wire::put($t, w);)*)?
                    })*
                }
            }
            fn take(
                r: &mut $crate::wire::BodyReader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                match r.u8()? {
                    $($tag => {
                        $($(let $f = $crate::wire::Wire::take(r)?;)*)?
                        $($(let $t = $crate::wire::Wire::take(r)?;)*)?
                        Ok($ty::$variant $({ $($f),* })? $(( $($t),* ))?)
                    })*
                    tag => Err($crate::wire::WireError::BadTag { what: $what, tag }),
                }
            }
        }
    };
}

macro_rules! wire_newtype {
    ($($ty:ident),*) => {$(
        impl Wire for $ty {
            fn put(&self, w: &mut BodyWriter) {
                self.0.put(w);
            }
            fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
                Wire::take(r).map($ty)
            }
        }
    )*};
}
wire_newtype!(ConnectionId, Rank, RequestId);

wire_enum!(CtrlMsg, "ctrl message" {
    1 => ImportCall { conn, rank, ts },
    2 => ImportRequest { conn, req, ts },
    3 => ForwardRequest { conn, req, ts },
    4 => Response { conn, req, rank, resp },
    5 => BuddyHelp { conn, req, answer },
    6 => Answer { conn, req, answer },
    7 => AnswerBcast { conn, req, answer },
    8 => Ack { seq },
    // Tag 9 is reserved: it decodes as `BadTag`.
    10 => Coalesced { conn, req, answer, role },
});
wire_enum!(TreeRole, "coalesced roles" {
    1 => Bcast,
    2 => Help,
});
wire_enum!(RepAnswer, "rep answer" {
    1 => Match(m),
    2 => NoMatch,
});

/// The one form that is not a field list: a PENDING reply folds its
/// `latest` option into the tag (3 without, 4 with a timestamp).
impl Wire for ProcResponse {
    fn put(&self, w: &mut BodyWriter) {
        match *self {
            ProcResponse::Match(t) => (1u8, t).put(w),
            ProcResponse::NoMatch => w.u8(2),
            ProcResponse::Pending { latest: None } => w.u8(3),
            ProcResponse::Pending { latest: Some(t) } => (4u8, t).put(w),
        }
    }
    fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            1 => ProcResponse::Match(r.timestamp()?),
            2 => ProcResponse::NoMatch,
            3 => ProcResponse::Pending { latest: None },
            4 => ProcResponse::Pending {
                latest: Some(r.timestamp()?),
            },
            tag => {
                return Err(WireError::BadTag {
                    what: "proc response",
                    tag,
                })
            }
        })
    }
}

wire_struct!(ExportStats {
    requests,
    exports,
    memcpys,
    skips,
    sends,
    freed_sent,
    freed_unsent,
    buddy_helps,
    buffered_hwm,
    buffer_full_stalls,
    unnecessary_by_request,
    unnecessary_inter_region
});
wire_enum!(TraceEvent, "trace event" {
    1 => Export { t, copied },
    2 => Request { x, reply },
    3 => BuddyHelp { x, answer },
    4 => Remove { freed },
    5 => Send { m },
});

impl Wire for Trace {
    fn put(&self, w: &mut BodyWriter) {
        put_slice(self.events(), w);
    }
    fn take(r: &mut BodyReader<'_>) -> Result<Self, WireError> {
        Ok(Trace::from_events(Wire::take(r)?))
    }
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

wire_struct!(WireRect {
    row0,
    col0,
    rows,
    cols
});

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
    /// Row-major values of `owned`, in the one allocation the importer's
    /// shared array keeps.
    pub data: Arc<[f64]>,
}

/// Bytes of a payload body ahead of its values: connection, destination
/// rank, request, the two rectangles and the value count.
pub const PAYLOAD_PREFIX_LEN: usize = 4 + 4 + 8 + 2 * 32 + 8;

/// Bytes of a payload frame ahead of its values: the frame header and the
/// body's fixed prefix — what [`encode_payload_head`] builds.
pub const PAYLOAD_HEAD_LEN: usize = HEADER_LEN + PAYLOAD_PREFIX_LEN;

/// The wire bytes of `data` on a little-endian target: its memory bytes,
/// borrowed. A payload frame is its head followed by these, so a sender
/// can hand the shared array to `writev` as it is.
#[cfg(target_endian = "little")]
pub fn f64_bytes(data: &[f64]) -> &[u8] {
    // SAFETY: every f64 is 8 plain bytes with no padding or invalid
    // representations, the slice covers exactly `data`'s memory, and on
    // little-endian targets those bytes are the wire encoding.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// Continues a checksum over the wire bytes of `data`.
#[cfg(target_endian = "little")]
fn crc32_f64(crc: u32, data: &[f64]) -> u32 {
    crc32_update(crc, f64_bytes(data))
}

/// Continues a checksum over the wire bytes of `data`, a value at a time.
#[cfg(not(target_endian = "little"))]
fn crc32_f64(crc: u32, data: &[f64]) -> u32 {
    data.iter()
        .fold(crc, |c, v| crc32_update(c, &v.to_bits().to_le_bytes()))
}

/// Builds the head of a payload frame into `buf` (cleared; its capacity is
/// kept): the frame header and the body's fixed prefix,
/// [`PAYLOAD_HEAD_LEN`] bytes, with the length and checksum covering
/// `data`'s values too. The frame is this head followed by the values'
/// little-endian bytes — [`encode_payload_with`] appends them, a socket
/// sender writes them from the shared array behind a second iovec — so
/// both carry the same bytes by construction.
pub fn encode_payload_head(
    mut buf: Vec<u8>,
    conn: ConnectionId,
    dst: Rank,
    req: RequestId,
    rect: WireRect,
    owned: WireRect,
    data: &[f64],
) -> Vec<u8> {
    buf.clear();
    buf.reserve(PAYLOAD_HEAD_LEN);
    buf.resize(HEADER_LEN, 0);
    let mut w = BodyWriter { buf };
    (conn, dst, req, rect, owned, data.len()).put(&mut w);
    let mut buf = w.buf;
    debug_assert_eq!(buf.len(), PAYLOAD_HEAD_LEN);
    let crc = crc32_f64(crc32(&buf[HEADER_LEN..]), data);
    write_header(
        &mut buf,
        KIND_PAYLOAD,
        PAYLOAD_PREFIX_LEN + 8 * data.len(),
        crc,
    );
    buf
}

/// Encodes a payload frame (envelope included) in one buffer. The `data`
/// slice is serialized directly — the caller hands the shared buffer's
/// slice, no intermediate copy of the array is made.
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

/// [`encode_payload`] into a recycled buffer: the head
/// ([`encode_payload_head`]), then the values appended, so a buffer whose
/// capacity already covers the frame incurs zero allocations.
pub fn encode_payload_with(
    mut buf: Vec<u8>,
    conn: ConnectionId,
    dst: Rank,
    req: RequestId,
    rect: WireRect,
    owned: WireRect,
    data: &[f64],
) -> Vec<u8> {
    buf.clear();
    buf.reserve(PAYLOAD_HEAD_LEN + 8 * data.len());
    let mut w = BodyWriter {
        buf: encode_payload_head(buf, conn, dst, req, rect, owned, data),
    };
    w.f64_slice(data);
    w.buf
}

/// Decodes a payload frame body. Rejects data whose length disagrees with
/// either its own length prefix or the owned rectangle's area.
pub fn decode_payload(body: &[u8]) -> Result<PayloadFrame, WireError> {
    let mut r = BodyReader::new(body);
    let (conn, dst, req, rect, owned, n): (ConnectionId, Rank, RequestId, WireRect, WireRect, u64) =
        Wire::take(&mut r)?;
    if n != owned.rows.saturating_mul(owned.cols) {
        return Err(WireError::Malformed {
            what: "payload length vs owned rect",
        });
    }
    if n.checked_mul(8) != Some(r.remaining() as u64) {
        return Err(WireError::Malformed {
            what: "payload length vs body",
        });
    }
    let data = f64s_from_le(r.raw(r.remaining())?);
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

/// The values whose little-endian bytes are `raw` (a multiple of 8 long),
/// in one allocation filled by one copy, with no zero-fill first. This
/// `Arc` is the importer-side shared array itself: the layout crate's
/// `SharedArray::from_parts` keeps it without copying.
fn f64s_from_le(raw: &[u8]) -> Arc<[f64]> {
    let mut data = Arc::<[f64]>::new_uninit_slice(raw.len() / 8);
    let slots = Arc::get_mut(&mut data).expect("a fresh Arc has one handle");
    #[cfg(target_endian = "little")]
    // SAFETY: `slots` is this Arc's own `raw.len()` writable bytes, which
    // cannot overlap the borrowed `raw`; any 8 bytes are a valid f64, and
    // on little-endian targets the wire order is the memory order.
    unsafe {
        std::ptr::copy_nonoverlapping(raw.as_ptr(), slots.as_mut_ptr().cast::<u8>(), raw.len());
    }
    #[cfg(not(target_endian = "little"))]
    for (d, ch) in slots.iter_mut().zip(raw.chunks_exact(8)) {
        d.write(f64::from_le_bytes(ch.try_into().expect("8 bytes")));
    }
    // SAFETY: every slot was written just above.
    unsafe { data.assume_init() }
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
                match clmul::fold(!0, bytes) {
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

    /// `crc32_update` continues a checksum at every split point, on both
    /// arms: the tables throughout, and the fold restarted from the
    /// register the first part left. Every length to 300 walks splits
    /// under `MIN_LEN`, on and off the 16-byte lane grid; the long input
    /// is a real payload body, split among others at the end of its
    /// 88-byte prefix — where a by-reference sender splits it.
    #[test]
    fn crc32_update_continues_at_every_split_on_both_arms() {
        let short = lcg_bytes(300);
        let data: Vec<f64> = (0..512).map(|i| i as f64 * 1.5 - 7.0).collect();
        let r = WireRect {
            row0: 0,
            col0: 0,
            rows: 16,
            cols: 32,
        };
        let frame = encode_payload(ConnectionId(2), Rank(1), RequestId(9), r, r, &data);
        let body = &frame[HEADER_LEN..];
        let head = encode_payload_head(
            Vec::new(),
            ConnectionId(2),
            Rank(1),
            RequestId(9),
            r,
            r,
            &data,
        );
        assert_eq!(head[..], frame[..PAYLOAD_HEAD_LEN]);
        let inputs = (0..=short.len()).map(|len| &short[..len]).chain([body]);
        let mut folded = 0usize;
        for bytes in inputs {
            let (len, want) = (bytes.len(), crc32_reference(bytes));
            for at in 0..=len {
                let (a, b) = bytes.split_at(at);
                assert_eq!(
                    crc32_update(crc32(a), b),
                    want,
                    "dispatch, len {len} split {at}"
                );
                let tables = slice8(!0, a);
                assert_eq!(!slice8(tables, b), want, "slice8, len {len} split {at}");
                #[cfg(target_arch = "x86_64")]
                if let Some((state, tail)) = clmul::fold(tables, b) {
                    assert_eq!(!slice8(state, tail), want, "clmul, len {len} split {at}");
                    folded += 1;
                }
            }
        }
        let (prefix, values) = body.split_at(PAYLOAD_PREFIX_LEN);
        assert_eq!(prefix.len(), 88);
        assert_eq!(crc32_update(crc32(prefix), values), crc32(body));
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
        for role in [TreeRole::Bcast, TreeRole::Help] {
            let msg = CtrlMsg::Coalesced {
                conn: ConnectionId(5),
                req: RequestId(17),
                answer: RepAnswer::Match(ts(19.6)),
                role,
            };
            let frame = encode_frame(KIND_CTRL, &encode_ctrl(&msg));
            let mut dec = FrameDecoder::new();
            dec.extend(&frame);
            let got = dec.next_frame().expect("valid").expect("complete");
            assert_eq!(decode_ctrl(&got.body).expect("decodes"), msg);
            assert_eq!(*got.body.last().expect("role byte"), role as u8);
        }
        // A frame carries exactly one role: no role, both roles (the old
        // bit set) and anything above are unknown tags.
        let mut body = encode_ctrl(&CtrlMsg::Coalesced {
            conn: ConnectionId(0),
            req: RequestId(0),
            answer: RepAnswer::NoMatch,
            role: TreeRole::Bcast,
        });
        for tag in [0, 3, 4, 0xFF] {
            *body.last_mut().expect("role byte") = tag;
            assert_eq!(
                decode_ctrl(&body),
                Err(WireError::BadTag {
                    what: "coalesced roles",
                    tag
                })
            );
        }
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

    /// `read_from` reads into a chunk it reuses across calls: `buffered`
    /// and `buffered_hwm` count received bytes, not the chunk; a failed
    /// read keeps what was buffered; and bytes an earlier read left past a
    /// frame never leak into the next one.
    #[test]
    fn read_from_counts_received_bytes_and_survives_a_failed_read() {
        struct Script(Vec<std::io::Result<Vec<u8>>>);
        impl std::io::Read for Script {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                let bytes = self.0.remove(0)?;
                out[..bytes.len()].copy_from_slice(&bytes);
                Ok(bytes.len())
            }
        }
        let frame = |seq| encode_frame(KIND_CTRL, &encode_ctrl(&CtrlMsg::Ack { seq }));
        let (a, b) = (frame(9), frame(7));
        let both: Vec<u8> = a.iter().chain(&b).copied().collect();
        let mut src = Script(vec![
            Ok(both),
            Ok(a[..5].to_vec()),
            Err(std::io::ErrorKind::Other.into()),
            Ok(a[5..].to_vec()),
        ]);
        let mut dec = FrameDecoder::new();
        let n = dec.read_from(&mut src, 1024).expect("read");
        assert_eq!(
            (n, dec.buffered(), dec.buffered_hwm()),
            (a.len() + b.len(), n, n)
        );
        let ack = |dec: &mut FrameDecoder| decode_ctrl(&dec.next_frame().unwrap().unwrap().body);
        assert_eq!(ack(&mut dec), Ok(CtrlMsg::Ack { seq: 9 }));
        assert_eq!(ack(&mut dec), Ok(CtrlMsg::Ack { seq: 7 }));
        assert_eq!(dec.buffered(), 0);
        dec.read_from(&mut src, 1024).expect("read");
        assert!(
            dec.next_frame().unwrap().is_none(),
            "5 of {} bytes",
            a.len()
        );
        assert!(dec.read_from(&mut src, 1024).is_err());
        assert_eq!(dec.buffered(), 5);
        dec.read_from(&mut src, 1024).expect("read");
        assert_eq!(ack(&mut dec), Ok(CtrlMsg::Ack { seq: 9 }));
        assert_eq!((dec.buffered(), dec.buffered_hwm()), (0, a.len() + b.len()));
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
        assert_eq!(*p.data, *data);
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

    /// A value count whose byte length overflows is refused, not
    /// allocated: 2^61 + 1 values claim 8 bytes once the multiplication
    /// wraps, and exactly 8 follow.
    #[test]
    fn payload_count_whose_byte_length_wraps_is_malformed() {
        let n = (1u64 << 61) + 1;
        let owned = WireRect {
            row0: 0,
            col0: 0,
            rows: n,
            cols: 1,
        };
        let mut w = BodyWriter::new();
        (ConnectionId(0), Rank(0), RequestId(0), owned, owned, n).put(&mut w);
        w.f64(1.5);
        assert_eq!(
            decode_payload(&w.into_body()),
            Err(WireError::Malformed {
                what: "payload length vs body"
            })
        );
    }

    /// A hostile element count cannot size an allocation: the reservation
    /// is clamped to the bytes actually left, and the reads then run dry.
    #[test]
    fn hostile_element_count_is_clamped_before_allocation() {
        let mut body = u32::MAX.to_le_bytes().to_vec();
        body.extend([0xAB; 12]);
        assert_eq!(body.len(), 16);
        let mut r = BodyReader::new(&body);
        let count = r.u32().unwrap() as usize;
        assert_eq!(clamped_capacity(count, &r), 12);
        let got = decode::<Vec<u64>>(&body);
        assert!(matches!(got, Err(WireError::Truncated)), "{got:?}");
        let got = decode::<Vec<(usize, usize, u32, Trace)>>(&body);
        assert!(matches!(got, Err(WireError::Truncated)), "{got:?}");
    }
}
