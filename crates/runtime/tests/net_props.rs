//! Transport-layer properties for the vectored tx path and buffer pool.
//!
//! The contract under test: however the `LinkWriter` coalesces frames
//! into `writev` bursts, the byte stream a peer observes is identical
//! to what per-frame `write_all` calls would have produced — framing is
//! a property of the bytes, not of the syscall boundaries.

use std::io::Read;
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use couplink_metrics::EngineMetrics;
use couplink_runtime::net::link::{BufPool, Conn, LinkWriter};
use proptest::prelude::*;

/// Spawns a writer over one end of a socketpair, sends `frames`, retires
/// the writer, and returns every byte the other end observed.
fn stream_through_writer(frames: &[Vec<u8>], metrics: Option<Arc<EngineMetrics>>) -> Vec<u8> {
    let (a, b) = UnixStream::pair().expect("socketpair");
    let pool = metrics.as_ref().map(|m| BufPool::new(Some(Arc::clone(m))));
    let w = LinkWriter::spawn_with(Conn::Uds(a), "test".to_string(), None, metrics, pool);
    for f in frames {
        assert!(w.send(f.clone()), "writer died mid-test");
    }
    let salvage = w.retire();
    assert!(
        salvage.is_empty(),
        "clean retire salvaged {} frames",
        salvage.len()
    );
    let mut got = Vec::new();
    let mut rx = b;
    rx.read_to_end(&mut got).expect("drain peer");
    got
}

proptest! {
    /// Whatever frame sequence is enqueued — and however the writer
    /// thread happens to slice it into bursts — the peer's byte stream
    /// equals the plain concatenation that sequential `write_all` calls
    /// produce. Totals stay under the socket buffer so the writer never
    /// blocks against the deferred reader.
    #[test]
    fn coalesced_writer_stream_matches_per_frame_write_all(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..512),
            1..40,
        ),
    ) {
        let expected: Vec<u8> = frames.concat();
        let got = stream_through_writer(&frames, None);
        prop_assert_eq!(got, expected);
    }
}

/// Large deterministic load with a concurrent reader: partial writes and
/// multi-frame bursts both occur, the stream still matches, and the tx
/// meters account for every frame and byte exactly once.
#[test]
fn writer_under_load_preserves_stream_and_meters_exactly() {
    // Deterministic LCG so the byte stream is reproducible.
    let mut seed = 0x2545F4914F6CDD1Du64;
    let mut next = move || {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        seed
    };
    let frames: Vec<Vec<u8>> = (0..200)
        .map(|_| {
            let len = 1 + (next() % 4096) as usize;
            (0..len).map(|_| next() as u8).collect()
        })
        .collect();
    let expected: Vec<u8> = frames.concat();
    let total: u64 = frames.iter().map(|f| f.len() as u64).sum();

    let (a, b) = UnixStream::pair().expect("socketpair");
    let metrics = Arc::new(EngineMetrics::new());
    let pool = BufPool::new(Some(Arc::clone(&metrics)));
    let reader = std::thread::spawn(move || {
        let mut got = Vec::new();
        let mut rx = b;
        rx.read_to_end(&mut got).expect("drain peer");
        got
    });
    let w = LinkWriter::spawn_with(
        Conn::Uds(a),
        "load".to_string(),
        None,
        Some(Arc::clone(&metrics)),
        Some(pool),
    );
    for f in &frames {
        assert!(w.send(f.clone()));
    }
    assert!(w.retire().is_empty());
    let got = reader.join().expect("reader");

    assert_eq!(
        got, expected,
        "coalesced stream diverged from write_all order"
    );
    assert_eq!(metrics.net_frames.get(), frames.len() as u64);
    assert_eq!(metrics.net_bytes.get(), total);
    let syscalls = metrics.net_syscalls.get();
    assert!(syscalls >= 1);
    assert!(
        syscalls <= frames.len() as u64,
        "vectored writer took more syscalls ({syscalls}) than frames ({})",
        frames.len()
    );
    // Frames credited to multi-frame bursts can never exceed frames sent.
    assert!(metrics.net_writev_frames.get() <= frames.len() as u64);
}

/// The pool recycles by power-of-two class: a returned allocation
/// satisfies any later request that fits its class, and the hit/miss
/// meters record each outcome.
#[test]
fn buf_pool_classes_recycle_and_meter() {
    let metrics = Arc::new(EngineMetrics::new());
    let pool = BufPool::new(Some(Arc::clone(&metrics)));

    // Cold take: nothing shelved, so it's a miss with the asked capacity.
    let buf = pool.take(1024);
    assert_eq!(buf.capacity(), 1024);
    assert_eq!(metrics.net_pool_misses.get(), 1);
    assert_eq!(metrics.net_pool_hits.get(), 0);

    // Return it. `put` shelves by floor(log2(capacity)), `take` asks by
    // ceil and allocates the whole class on a miss, so the recycled
    // allocation comes back — and any hit has enough room.
    pool.put(buf);
    let again = pool.take(1024);
    assert_eq!(again.capacity(), 1024, "recycled allocation came back");
    assert!(again.is_empty(), "shelved buffers are cleared");
    assert_eq!(metrics.net_pool_hits.get(), 1);
    assert_eq!(metrics.net_pool_misses.get(), 1);

    // An undersized shelf never serves a larger class: asking for more
    // than the shelved capacity is a miss, not a short buffer.
    pool.put(again);
    let big = pool.take(2048);
    assert!(big.capacity() >= 2048);
    assert_eq!(metrics.net_pool_misses.get(), 2);

    // Zero-capacity buffers are never shelved.
    pool.put(Vec::new());
    let still_miss = pool.take(1);
    assert!(still_miss.capacity() >= 1);
    assert_eq!(metrics.net_pool_misses.get(), 3);

    // The steady-state tx cycle: real frames are never power-of-two sized
    // (payload plus envelope). The miss rounds the allocation up to its
    // class, so the same-sized frame after it is served from the shelf.
    let frame = pool.take(4096 + 120);
    assert_eq!(frame.capacity(), 8192, "a miss allocates the whole class");
    assert_eq!(metrics.net_pool_misses.get(), 4);
    pool.put(frame);
    let recycled = pool.take(4096 + 120);
    assert_eq!(recycled.capacity(), 8192);
    assert_eq!(
        metrics.net_pool_hits.get(),
        2,
        "non-power-of-two cycle hits"
    );
    assert_eq!(metrics.net_pool_misses.get(), 4);
}
