//! Memory budget of the in-process fabric: what a `Fabric` holds is
//! O(window), not O(run length), and a dropped fabric gives all of it
//! back. The shape is `ctrl_small`'s: a 2 → 2 row-block pair of 4 KiB
//! pieces, REGL 0.4, every import matched exactly by the export of the
//! same timestamp, the exporters at most [`WINDOW`] exports ahead of the
//! slowest importer.
//!
//! The counting allocator is process-wide (the fabric allocates on its
//! worker threads), so this binary holds exactly one test: nothing else
//! may allocate while it counts. Three checks:
//!
//! - (a) after a first build, run and shutdown, every further cycle
//!   leaves the process's live allocations unchanged;
//! - (b) a live fabric that has served `LONG` imports holds at most
//!   [`BYTES_PER_IMPORT`] more bytes per extra import than one that has
//!   served `SHORT`;
//! - (c) a collective import allocates at most [`ALLOCS_PER_IMPORT`]
//!   times (marginal, between the `SHORT` and the `LONG` run).

use couplink_layout::{Decomposition, Extent2, LocalArray};
use couplink_runtime::{Fabric, FabricOptions, Topology};
use couplink_time::{ts, MatchPolicy, Tolerance};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Ranks per program.
const RANKS: usize = 2;
/// Exports an exporter may run ahead of the slowest importer rank.
const WINDOW: usize = 4;
const SHORT: usize = 200;
const LONG: usize = 2_200;
/// Live bytes a fabric may keep per import it served.
const BYTES_PER_IMPORT: i64 = 32;
/// Allocations (fresh or grown) per collective import.
const ALLOCS_PER_IMPORT: f64 = 16.0;

struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_ALLOCS: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    LIVE_BYTES.fetch_add(bytes as i64, Ordering::Relaxed);
    LIVE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are `System`'s and its results are returned as they
// are; the counts are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        LIVE_ALLOCS.fetch_sub(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn topology() -> Topology {
    let grid = Extent2::new(16, 64);
    let rows = Decomposition::row_block(grid, RANKS).expect("row blocks");
    Topology::pair(
        rows,
        rows,
        MatchPolicy::RegL,
        Tolerance::new(0.4).expect("tolerance"),
    )
    .expect("pair topology")
}

/// What one build, run and shutdown cost.
struct Cycle {
    /// Live bytes after the last import, with the fabric still up, minus
    /// those before it was built.
    held: i64,
    /// Allocations from the build to the end of the shutdown.
    allocs: u64,
}

/// Builds a fabric, runs `imports` collective imports through it and
/// shuts it down. Every import must see the values of the export it
/// matched.
fn cycle(imports: usize) -> Cycle {
    let (bytes0, allocs0) = (
        LIVE_BYTES.load(Ordering::SeqCst),
        ALLOCS.load(Ordering::SeqCst),
    );
    let topo = topology();
    let decomp = topo.programs[0].exports[0].decomp;
    let mut fabric = Fabric::new(topo, FabricOptions::default());
    // Imports each importer rank has completed; exporters wait on the
    // slowest.
    let done = (Mutex::new([0usize; RANKS]), Condvar::new());
    std::thread::scope(|s| {
        for rank in 0..RANKS {
            let mut port = fabric.take_export(0, rank, 0);
            let done = &done;
            s.spawn(move || {
                let mut data = LocalArray::zeros(decomp.owned(rank));
                for k in 0..imports {
                    let mut n = done.0.lock().expect("gate");
                    while k >= n.iter().min().expect("ranks") + WINDOW {
                        n = done.1.wait(n).expect("gate");
                    }
                    drop(n);
                    let t = 1.0 + k as f64;
                    data.as_mut_slice().fill(t);
                    port.export(ts(t), &data).expect("export");
                }
            });
        }
        for rank in 0..RANKS {
            let mut port = fabric.take_import(1, rank, 0);
            let done = &done;
            s.spawn(move || {
                let mut dest = LocalArray::zeros(decomp.owned(rank));
                for k in 0..imports {
                    let t = 1.0 + k as f64;
                    let m = port.import(ts(t), &mut dest).expect("import");
                    assert_eq!(m, Some(ts(t)), "matched exactly");
                    assert!(dest.as_slice().iter().all(|&v| v == t), "import {k}");
                    done.0.lock().expect("gate")[rank] = k + 1;
                    done.1.notify_all();
                }
            });
        }
    });
    let held = LIVE_BYTES.load(Ordering::SeqCst) - bytes0;
    fabric.shutdown().expect("clean shutdown");
    Cycle {
        held,
        allocs: ALLOCS.load(Ordering::SeqCst) - allocs0,
    }
}

#[test]
fn a_fabric_holds_its_window_and_returns_it_when_dropped() {
    // The first cycle pays for what the process keeps once (std's lazy
    // statics, the first thread's bookkeeping).
    cycle(SHORT);
    let base = LIVE_ALLOCS.load(Ordering::SeqCst);
    let short = cycle(SHORT);
    let after_short = LIVE_ALLOCS.load(Ordering::SeqCst);
    let long = cycle(LONG);
    let after_long = LIVE_ALLOCS.load(Ordering::SeqCst);
    let extra = (LONG - SHORT) as f64;
    let bytes = (long.held - short.held) as f64 / extra;
    let allocs = (long.allocs - short.allocs) as f64 / extra;
    println!(
        "live allocations left by a cycle: {} ({SHORT} imports), {} ({LONG} imports)",
        after_short - base,
        after_long - after_short
    );
    println!(
        "held by a live fabric: {} B after {SHORT} imports, {} B after {LONG}: {bytes:.1} B per import (budget {BYTES_PER_IMPORT})",
        short.held, long.held
    );
    println!("allocations per collective import: {allocs:.2} (budget {ALLOCS_PER_IMPORT})");
    assert_eq!(after_short, base, "(a) a {SHORT}-import cycle leaked");
    assert_eq!(after_long, base, "(a) a {LONG}-import cycle leaked");
    assert!(
        bytes <= BYTES_PER_IMPORT as f64,
        "(b) {bytes:.1} B held per import > {BYTES_PER_IMPORT}"
    );
    assert!(
        allocs <= ALLOCS_PER_IMPORT,
        "(c) {allocs:.2} allocations per import > {ALLOCS_PER_IMPORT}"
    );
}
