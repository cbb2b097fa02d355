//! Allocation budget of the discrete-event simulator: the Figure-4
//! panel-(d) run (a 2×2 block exporter whose rank 3 is slow, 32 importer
//! rows, 1 001 exports, 50 imports, REGL 2.5) may allocate at most
//! `BUDGET` times inside `TopologySim::run`. The count is deterministic —
//! the same configuration performs the same allocations — so this is a
//! counter gate, not a wall-clock one.
//!
//! The counting allocator counts per thread, so tests running in parallel
//! in this binary cannot disturb each other's numbers.

use couplink_layout::{Decomposition, Extent2};
use couplink_runtime::{
    CostModel, ExportSchedule, ImportSchedule, Knobs, RunSpec, Topology, TopologySim,
};
use couplink_time::{MatchPolicy, Tolerance};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Allocations (fresh or grown) per panel-(d) run.
const BUDGET: u64 = 7_600;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are `System`'s and its results are returned as they
// are; the count itself touches only a thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Figure 4(d): the shape `couplink_diffusion::fig4::fig4_config` builds
/// for 32 importer processes.
fn panel_d() -> RunSpec {
    let grid = Extent2::new(1024, 1024);
    let topology = Topology::pair(
        Decomposition::block_2d(grid, 2, 2).expect("2x2 quadrants"),
        Decomposition::row_block(grid, 32).expect("32 row blocks"),
        MatchPolicy::RegL,
        Tolerance::new(2.5).expect("tolerance"),
    )
    .expect("pair topology");
    RunSpec {
        topology,
        exports: vec![ExportSchedule {
            program: "exporter".into(),
            region: "r".into(),
            t0: 1.6,
            dt: 1.0,
            count: 1001,
            compute: vec![1e-3, 1e-3, 1e-3, 2e-3],
        }],
        imports: vec![ImportSchedule {
            program: "importer".into(),
            region: "r".into(),
            t0: 20.0,
            dt: 20.0,
            count: 50,
            compute: 0.976 / 32.0,
            startup: 1.2 / 32.0,
        }],
        knobs: Knobs::default(),
    }
}

#[test]
fn panel_d_run_stays_within_its_allocation_budget() {
    let sim = TopologySim::from_spec(panel_d(), CostModel::default()).expect("valid run");
    let before = allocs();
    let report = sim.run().expect("run completes");
    let used = allocs() - before;
    println!("panel (d): {used} allocations inside run() (budget {BUDGET})");
    // The same run as the Figure-4 panel: its exact protocol outcome.
    assert_eq!(report.duration, 2.2332886186666876);
    assert_eq!(report.stats[0][3].skips, 836, "slow rank's skipped memcpys");
    assert!(used <= BUDGET, "{used} allocations > budget {BUDGET}");
}
