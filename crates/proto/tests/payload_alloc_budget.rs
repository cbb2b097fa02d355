//! Allocation budget of the socket payload path, in bytes: a received
//! piece is allocated once, and a piece sent by reference allocates only
//! its head. The shape is `socket_bulk`'s: 128 × 256 pieces, 256 KiB of
//! `f64` each.
//!
//! The counting allocator is process-wide, so this binary holds exactly
//! one test: nothing else may allocate while it counts. Two checks:
//!
//! - (a) decoding a 256 KiB payload body into the importer's shared array
//!   (`decode_payload`, then `SharedArray::from_parts`) allocates at most
//!   the values' bytes plus [`SLACK`] — one allocation, not a decode
//!   buffer and a copy of it;
//! - (b) building a by-reference head (`encode_payload_head`) allocates at
//!   most [`SLACK`] bytes, whatever the piece size.

use couplink_layout::{Rect, SharedArray};
use couplink_proto::wire::{self, WireRect, HEADER_LEN};
use couplink_proto::{ConnectionId, Rank, RequestId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes allowed beyond the values themselves: an `Arc`'s two counts, or
/// a 100-byte head.
const SLACK: u64 = 256;

struct Counting;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are `System`'s and its results are returned as they
// are; the count is an atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated (fresh or grown) while `f` runs.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.load(Ordering::Relaxed);
    let out = f();
    (out, BYTES.load(Ordering::Relaxed) - before)
}

fn piece(rows: u64, cols: u64) -> (WireRect, Vec<f64>) {
    let r = WireRect {
        row0: 0,
        col0: 0,
        rows,
        cols,
    };
    let data = (0..rows * cols).map(|i| i as f64 * 0.375 - 7.0).collect();
    (r, data)
}

#[test]
fn a_received_piece_is_allocated_once_and_a_sent_head_is_all_a_send_allocates() {
    let ids = (ConnectionId(1), Rank(0), RequestId(5));

    // (a) receive: body bytes in, the importer's shared array out.
    let (r, data) = piece(128, 256);
    let frame = wire::encode_payload(ids.0, ids.1, ids.2, r, r, &data);
    let body = &frame[HEADER_LEN..];
    let owned = Rect::new(0, 0, 128, 256);
    let (array, bytes) = allocated(|| {
        let p = wire::decode_payload(body).expect("payload");
        SharedArray::from_parts(owned, p.data).expect("covers its rect")
    });
    assert_eq!(array.as_slice(), &data[..]);
    let values = 8 * data.len() as u64;
    println!("decode 256 KiB into a shared array: {bytes} B allocated for {values} B of values");
    assert!(
        bytes <= values + SLACK,
        "decoding allocated {bytes} B for {values} B of values (budget {})",
        values + SLACK
    );

    // (b) send: a head per piece, whatever the piece's size.
    for (rows, cols) in [(0, 0), (16, 32), (128, 256), (512, 1024)] {
        let (r, data) = piece(rows, cols);
        let (head, bytes) =
            allocated(|| wire::encode_payload_head(Vec::new(), ids.0, ids.1, ids.2, r, r, &data));
        assert_eq!(head.len(), wire::PAYLOAD_HEAD_LEN);
        println!("by-reference head of a {rows} x {cols} piece: {bytes} B allocated");
        assert!(
            bytes <= SLACK,
            "a {rows} x {cols} head allocated {bytes} B (budget {SLACK})"
        );
    }
}
