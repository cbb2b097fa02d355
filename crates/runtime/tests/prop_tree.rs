//! Property-based tests of the deterministic k-ary distribution tree
//! (`couplink_runtime::engine::tree`) that hierarchical rep fan-out rides.
//!
//! Every runtime — the discrete-event simulator, the threaded fabric, and
//! each socket-transport process — derives the tree from the validated
//! topology's rank count alone, by calling these exact pure functions. The
//! properties pinned here therefore hold identically on all three: the
//! tree is *connected* (every rank reachable from the rep root), *acyclic*
//! (parents strictly precede children), an *exact cover* (each rank has
//! exactly one inbound edge), *deterministic* (pure arithmetic on `(n,
//! rank)`), and *logarithmic* (depth `⌈log_k n⌉`-ish, per-node fan-out
//! ≤ k). Behavioral identity across runtimes is separately enforced by
//! simtest's cross-runtime counter-equivalence and control-scaling
//! oracles, whose expected values are computed from this same module.
//!
//! The tree is also run, not only walked: one coupled pair at 32, 64 and
//! 128 ranks per program on the simulator and on the threaded fabric must
//! keep the rep's origin traffic inside the O(log N) budget and obey the
//! tree's exact conservation laws.

use couplink_layout::{Decomposition, Extent2, LocalArray};
use couplink_metrics::{CounterSnapshot, CtrlClass};
use couplink_proto::ConnectionId;
use couplink_runtime::engine::oracle::check_ctrl_scaling;
use couplink_runtime::engine::tree;
use couplink_runtime::{
    CostModel, ExportSchedule, Fabric, ImportSchedule, Knobs, RunSpec, Topology, TopologySim,
};
use couplink_time::{ts, MatchPolicy, Tolerance};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Breadth-first walk from the virtual rep root; returns each rank's hop
/// count from the rep (rep→child = 1), or panics on an unreachable rank.
fn bfs_levels(n: usize) -> Vec<usize> {
    let mut level = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    for r in tree::root_children(n) {
        level[r] = 1;
        queue.push_back(r);
    }
    while let Some(r) = queue.pop_front() {
        for c in tree::children(r, n) {
            assert_eq!(level[c], usize::MAX, "rank {c} reached twice (n={n})");
            level[c] = level[r] + 1;
            queue.push_back(c);
        }
    }
    level
}

/// The structural invariants for one program size.
fn check_tree(n: usize) {
    // Connected + exact cover: the BFS reaches every rank exactly once.
    let levels = bfs_levels(n);
    for (rank, &lvl) in levels.iter().enumerate() {
        assert_ne!(lvl, usize::MAX, "rank {rank} unreachable (n={n})");
        // The arithmetic depth agrees with the walked depth.
        assert_eq!(lvl, tree::depth_of(rank), "depth_of disagrees (n={n})");
    }
    assert_eq!(
        levels.iter().max().copied().unwrap_or(0),
        tree::depth(n),
        "depth(n) is the max hop count (n={n})"
    );

    for rank in 0..n {
        // Acyclic: every edge points from a smaller index to a larger one,
        // and parent/children are mutual inverses.
        match tree::parent(rank) {
            None => assert!(
                tree::root_children(n).contains(&rank),
                "orphan rank {rank} is not a root child (n={n})"
            ),
            Some(p) => {
                assert!(p < rank, "parent {p} !< child {rank} (n={n})");
                assert!(
                    tree::children(p, n).contains(&rank),
                    "parent {p} disowns {rank} (n={n})"
                );
            }
        }
        // Bounded fan-out: no node ever sends more than k relays.
        assert!(
            tree::children(rank, n).len() <= tree::BRANCH,
            "rank {rank} has {} children (n={n})",
            tree::children(rank, n).len()
        );
    }
    assert!(
        tree::root_children(n).len() <= tree::BRANCH,
        "rep fans out past k (n={n})"
    );

    // Logarithmic: a depth-d tree with fan-out k addresses at most
    // k + k² + … + k^d ranks, and a depth d is only used once depth d-1
    // is exhausted. Both bounds together pin depth = ⌈log-ish⌉ exactly.
    let d = tree::depth(n);
    let capacity = |depth: usize| -> usize {
        let mut total = 0usize;
        let mut layer = 1usize;
        for _ in 0..depth {
            layer *= tree::BRANCH;
            total += layer;
        }
        total
    };
    if n > 0 {
        assert!(n <= capacity(d), "depth {d} cannot address {n} ranks");
        assert!(
            n > capacity(d.saturating_sub(1)),
            "depth {d} used before depth {} was full (n={n})",
            d - 1
        );
    }
}

/// Exhaustive over every size the harness and benches actually use, plus
/// the boundaries where a new tree level opens.
#[test]
fn tree_invariants_exhaustive_to_512() {
    for n in 0..=512 {
        check_tree(n);
    }
}

/// Determinism: the tree is a pure function of `(n, rank)` — recomputing
/// any edge yields the same answer, which is what lets three independent
/// runtimes build the identical tree without exchanging messages.
#[test]
fn tree_is_deterministic() {
    for n in [1usize, 6, 32, 64, 128, 341] {
        let edges = |n: usize| -> Vec<(usize, usize)> {
            (0..n)
                .flat_map(|r| tree::children(r, n).map(move |c| (r, c)))
                .collect()
        };
        assert_eq!(edges(n), edges(n));
        assert_eq!(
            tree::root_children(n).collect::<Vec<_>>(),
            tree::root_children(n).collect::<Vec<_>>()
        );
    }
}

/// Collective imports per run: each is one rep broadcast of each kind.
const IMPORTS: usize = 4;

/// A pair with `n` ranks on each side, row-block over the same grid, so
/// every import matches its same-timestamp export exactly.
fn pair(n: usize) -> (Topology, Decomposition) {
    let d = Decomposition::row_block(Extent2::new(4 * n, 64), n).expect("decomposition");
    let tol = Tolerance::new(0.4).expect("tolerance");
    let topo = Topology::pair(d, d, MatchPolicy::RegL, tol).expect("pair topology");
    (topo, d)
}

/// The pair on the simulator, buddy-help on as on the fabric.
fn des_counters(n: usize, hierarchical: bool) -> CounterSnapshot {
    let (topology, _) = pair(n);
    let spec = RunSpec {
        topology,
        exports: vec![ExportSchedule {
            program: "exporter".into(),
            region: "r".into(),
            t0: 1.0,
            dt: 1.0,
            count: IMPORTS,
            compute: vec![1e-4; n],
        }],
        imports: vec![ImportSchedule {
            program: "importer".into(),
            region: "r".into(),
            t0: 1.0,
            dt: 1.0,
            count: IMPORTS,
            compute: 1e-4,
            startup: 0.0,
        }],
        knobs: Knobs {
            hierarchical,
            ..Knobs::default()
        },
    };
    let sim = TopologySim::from_spec(spec, CostModel::default()).expect("valid run");
    sim.run().expect("simulation").metrics.counters
}

/// The pair on the threaded fabric: one thread per rank, every import
/// matching its same-timestamp export.
fn fabric_counters(n: usize, hierarchical: bool) -> CounterSnapshot {
    let (topo, d) = pair(n);
    let mut fabric = Fabric::new(
        topo,
        Knobs {
            hierarchical,
            ..Knobs::default()
        },
    );
    let mut threads = Vec::new();
    for rank in 0..n {
        let mut exp = fabric.take_export(0, rank, 0);
        let mut imp = fabric.take_import(1, rank, 0);
        let owned = d.owned(rank);
        threads.push(std::thread::spawn(move || {
            let data = LocalArray::from_fn(owned, |r, c| (r * 31 + c) as f64);
            for i in 1..=IMPORTS {
                exp.export(ts(i as f64), &data).expect("export");
            }
        }));
        threads.push(std::thread::spawn(move || {
            let mut dest = LocalArray::zeros(owned);
            for i in 1..=IMPORTS {
                let got = imp.import(ts(i as f64), &mut dest).expect("import");
                assert_eq!(got, Some(ts(i as f64)), "rank {rank} import {i}");
            }
        }));
    }
    for t in threads {
        t.join().expect("rank thread");
    }
    fabric.shutdown().expect("shutdown").metrics.counters
}

/// What the rep originated per collective import: forwards, answer
/// broadcasts and buddy-help, relays excluded.
fn origin_per_import(c: &CounterSnapshot) -> u64 {
    let origin = [
        CtrlClass::ForwardRequest,
        CtrlClass::AnswerBcast,
        CtrlClass::BuddyHelp,
    ];
    origin.iter().map(|&k| c.ctrl(k)).sum::<u64>() / IMPORTS as u64
}

/// Träff et al.'s message combining, measured: at rank counts well past
/// the branching factor the rep originates at most `k·⌈log_k N⌉ + 2k`
/// control messages per collective import, and the tree's conservation
/// laws hold exactly on both in-process runtimes (at 128 ranks: 12 origin
/// messages per import against a budget of 24, 1 488 relays, depth 4).
/// The flat fan-out must fail both: at 32 ranks it originates 64 messages
/// per import on the DES and 85–90 on the fabric (buddy-help depends on
/// timing there) against a budget of 20, and the oracle rejects its
/// counters.
#[test]
fn tree_fan_out_stays_in_the_log_budget_at_32_64_and_128_ranks() {
    let budget = |n: usize| (tree::BRANCH * tree::depth(n) + 2 * tree::BRANCH) as u64;
    for n in [32, 64, 128] {
        let conns = [(ConnectionId(0), IMPORTS, n, n)];
        for (runtime, c) in [
            ("des", des_counters(n, true)),
            ("fabric", fabric_counters(n, true)),
        ] {
            assert!(
                origin_per_import(&c) <= budget(n),
                "{runtime} n={n}: {} origin messages per import, budget {}",
                origin_per_import(&c),
                budget(n)
            );
            if let Err(v) = check_ctrl_scaling(&c, &conns, true) {
                panic!("{runtime} n={n}: {v}");
            }
        }
    }
    assert_eq!(budget(32), 20);
    let conns = [(ConnectionId(0), IMPORTS, 32, 32)];
    for (runtime, flat) in [
        ("des", des_counters(32, false)),
        ("fabric", fabric_counters(32, false)),
    ] {
        assert!(
            check_ctrl_scaling(&flat, &conns, true).is_err(),
            "{runtime}"
        );
        assert!(
            origin_per_import(&flat) > budget(32),
            "{runtime} flat fan-out: {} origin messages per import",
            origin_per_import(&flat)
        );
    }
}

proptest! {
    /// The invariants hold for arbitrary program sizes well past anything
    /// the paper deploys.
    #[test]
    fn tree_invariants_hold_for_arbitrary_sizes(n in 0usize..4096) {
        check_tree(n);
    }
}
