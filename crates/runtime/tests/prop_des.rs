//! Property-based tests of the discrete-event coupled simulation: for random
//! (but well-posed) configurations, the run completes every guaranteed
//! transfer, is deterministic, buddy-help never changes what is
//! transferred, and — for random multi-program topologies — the threaded
//! fabric delivers exactly the matched timestamps the DES predicts.

use couplink_config::RegionRef;
use couplink_layout::{Decomposition, Extent2, LocalArray};
use couplink_runtime::{
    CostModel, ExportSchedule, Fabric, ImportSchedule, Knobs, RunSpec, TopoReport, Topology,
    TopologySim,
};
use couplink_time::{ts, MatchPolicy, Timestamp, Tolerance};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone)]
struct Cfg {
    exp_procs_grid: (usize, usize),
    imp_procs: usize,
    policy: MatchPolicy,
    tolerance: f64,
    windows: usize,
    slow_factor: f64,
    importer_compute: f64,
    buddy_help: bool,
}

fn cfg() -> impl Strategy<Value = Cfg> {
    (
        prop_oneof![Just((1usize, 1usize)), Just((2, 1)), Just((2, 2))],
        1usize..6,
        prop_oneof![
            Just(MatchPolicy::RegL),
            Just(MatchPolicy::RegU),
            Just(MatchPolicy::Reg)
        ],
        0.7f64..4.9,
        1usize..6,
        1.0f64..20.0,
        1e-5f64..1e-2,
        any::<bool>(),
    )
        .prop_map(
            |(
                exp_procs_grid,
                imp_procs,
                policy,
                tolerance,
                windows,
                slow_factor,
                importer_compute,
                buddy_help,
            )| Cfg {
                exp_procs_grid,
                imp_procs,
                policy,
                tolerance,
                windows,
                slow_factor,
                importer_compute,
                buddy_help,
            },
        )
}

fn build(c: &Cfg) -> RunSpec {
    let grid = Extent2::new(16, 16);
    let (pr, pc) = c.exp_procs_grid;
    let exporter_decomp = Decomposition::block_2d(grid, pr, pc).unwrap();
    let importer_decomp = Decomposition::row_block(grid, c.imp_procs).unwrap();
    let ne = exporter_decomp.procs();
    let mut compute = vec![1e-4; ne];
    compute[ne - 1] = 1e-4 * c.slow_factor;
    let tolerance = Tolerance::new(c.tolerance).unwrap();
    RunSpec {
        topology: Topology::pair(exporter_decomp, importer_decomp, c.policy, tolerance).unwrap(),
        exports: vec![ExportSchedule {
            program: "exporter".into(),
            region: "r".into(),
            t0: 1.6,
            dt: 1.0,
            // Exports at x.6 cover every request window with margin.
            count: c.windows * 20 + 25,
            compute,
        }],
        imports: vec![ImportSchedule {
            program: "importer".into(),
            region: "r".into(),
            t0: 20.0,
            dt: 20.0,
            count: c.windows,
            compute: c.importer_compute,
            startup: 0.0,
        }],
        knobs: Knobs {
            buddy_help: c.buddy_help,
            ..Knobs::default()
        },
    }
}

fn run(c: &Cfg) -> TopoReport {
    let sim = TopologySim::from_spec(build(c), CostModel::default());
    sim.unwrap().run().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With exports at `x.6` every time unit and tolerance ≥ 0.7, every
    /// request at a multiple of 20 has a match under every policy: all
    /// importer ranks finish, every exporter rank sends one piece per
    /// request, and no collective violation fires.
    #[test]
    fn all_guaranteed_transfers_complete(c in cfg()) {
        let report = run(&c);
        prop_assert_eq!(&report.import_done[0], &vec![c.windows; c.imp_procs]);
        for stats in &report.stats[0] {
            prop_assert_eq!(stats.sends, c.windows as u64, "{:?}", stats);
            prop_assert_eq!(stats.requests, c.windows as u64);
        }
    }

    /// Identical configurations produce identical reports (virtual-time
    /// determinism), and buddy-help changes only buffering effort.
    #[test]
    fn deterministic_and_transfer_invariant(c in cfg()) {
        let a = run(&c);
        let b = run(&c);
        prop_assert_eq!(&a.export_series[0].times, &b.export_series[0].times);
        prop_assert_eq!(&a.export_series[0].actions, &b.export_series[0].actions);
        prop_assert_eq!(a.duration, b.duration);

        let mut flipped = c.clone();
        flipped.buddy_help = !c.buddy_help;
        let f = run(&flipped);
        prop_assert_eq!(&f.import_done, &a.import_done);
        for (x, y) in a.stats[0].iter().zip(f.stats[0].iter()) {
            prop_assert_eq!(x.sends, y.sends);
            // The run with buddy-help enabled never copies more.
            let (with, without) = if c.buddy_help { (x, y) } else { (y, x) };
            prop_assert!(with.memcpys <= without.memcpys);
        }
    }
}

/// A random multi-program topology: 1–2 exporter programs with one region
/// each, 1–3 importer programs each importing from a random exporter (so
/// one region may feed several importers over a multi-connection export).
#[derive(Debug, Clone)]
struct TopoCase {
    /// Process count per exporter program.
    exporters: Vec<usize>,
    /// Per importer program: (procs, source exporter, policy, tolerance,
    /// import iterations).
    importers: Vec<(usize, usize, MatchPolicy, f64, usize)>,
    buddy_help: bool,
}

fn topo_case() -> impl Strategy<Value = TopoCase> {
    proptest::collection::vec(1usize..=2, 1..=2).prop_flat_map(move |exporters| {
        let n_exp = exporters.len();
        (
            Just(exporters),
            proptest::collection::vec(
                (1usize..=2, 0..n_exp, 0u8..3, 0.7f64..4.9, 1usize..=2),
                1..=3,
            ),
            any::<bool>(),
        )
            .prop_map(|(exporters, importers, buddy_help)| TopoCase {
                exporters,
                importers: importers
                    .into_iter()
                    .map(|(procs, src, policy, tol, count)| {
                        let policy = match policy {
                            0 => MatchPolicy::RegL,
                            1 => MatchPolicy::RegU,
                            _ => MatchPolicy::Reg,
                        };
                        (procs, src, policy, tol, count)
                    })
                    .collect(),
                buddy_help,
            })
    })
}

/// Builds the validated topology for a random case: exporters `E<k>` with
/// region `r`, importers `I<j>` with region `q`.
fn topo_of(c: &TopoCase) -> Topology {
    let grid = Extent2::new(8, 8);
    let mut text = String::new();
    for (k, &procs) in c.exporters.iter().enumerate() {
        text.push_str(&format!("E{k} c0 /bin/e{k} {procs}\n"));
    }
    for (j, &(procs, ..)) in c.importers.iter().enumerate() {
        text.push_str(&format!("I{j} c0 /bin/i{j} {procs}\n"));
    }
    text.push_str("#\n");
    for (j, &(_, src, policy, tol, _)) in c.importers.iter().enumerate() {
        text.push_str(&format!("E{src}.r I{j}.q {policy} {tol}\n"));
    }
    let config = couplink_config::parse(&text).unwrap();
    let mut bindings = HashMap::new();
    for (k, &procs) in c.exporters.iter().enumerate() {
        bindings.insert(
            RegionRef::new(format!("E{k}"), "r"),
            Decomposition::row_block(grid, procs).unwrap(),
        );
    }
    for (j, &(procs, ..)) in c.importers.iter().enumerate() {
        bindings.insert(
            RegionRef::new(format!("I{j}"), "q"),
            Decomposition::row_block(grid, procs).unwrap(),
        );
    }
    Topology::from_config(&config, &bindings).unwrap()
}

/// Exports at `1.6, 2.6, …, 50.6` — past every acceptable region any
/// request at 20 or 40 with tolerance < 5 can name.
const TOPO_EXPORTS: usize = 50;

/// Which exporter programs some importer actually connected to (an unused
/// exporter has no region in the topology and nothing to schedule).
fn used_exporters(c: &TopoCase) -> Vec<bool> {
    let mut used = vec![false; c.exporters.len()];
    for &(_, src, ..) in &c.importers {
        used[src] = true;
    }
    used
}

fn des_matches(c: &TopoCase) -> Vec<Vec<Option<Timestamp>>> {
    let used = used_exporters(c);
    let exports = c
        .exporters
        .iter()
        .enumerate()
        .filter(|(k, _)| used[*k])
        .map(|(k, &procs)| ExportSchedule {
            program: format!("E{k}"),
            region: "r".into(),
            t0: 1.6,
            dt: 1.0,
            count: TOPO_EXPORTS,
            compute: vec![1e-4; procs],
        })
        .collect();
    let imports = c
        .importers
        .iter()
        .enumerate()
        .map(|(j, &(.., count))| ImportSchedule {
            program: format!("I{j}"),
            region: "q".into(),
            t0: 20.0,
            dt: 20.0,
            count,
            compute: 1e-3,
            startup: 0.0,
        })
        .collect();
    let spec = RunSpec {
        topology: topo_of(c),
        exports,
        imports,
        knobs: Knobs {
            buddy_help: c.buddy_help,
            ..Knobs::default()
        },
    };
    let sim = TopologySim::from_spec(spec, CostModel::default()).unwrap();
    sim.run().unwrap().matches
}

fn threaded_matches(c: &TopoCase) -> Vec<Vec<Option<Timestamp>>> {
    let topo = topo_of(c);
    let n_exp = c.exporters.len();
    let mut fabric = Fabric::new(
        topo,
        Knobs {
            buddy_help: c.buddy_help,
            ..Knobs::default()
        },
    );
    let grid = Extent2::new(8, 8);
    let used = used_exporters(c);
    let mut threads = Vec::new();
    for (k, &procs) in c.exporters.iter().enumerate() {
        if !used[k] {
            continue;
        }
        let decomp = Decomposition::row_block(grid, procs).unwrap();
        for rank in 0..procs {
            let mut access = fabric.take_export(k, rank, 0);
            let owned = decomp.owned(rank);
            threads.push(std::thread::spawn(move || {
                for i in 0..TOPO_EXPORTS {
                    let t = 1.6 + i as f64;
                    let data = LocalArray::from_fn(owned, |_, _| t);
                    access.export(ts(t), &data).unwrap();
                }
            }));
        }
    }
    let mut imp_threads = Vec::new();
    for (j, &(procs, .., count)) in c.importers.iter().enumerate() {
        let decomp = Decomposition::row_block(grid, procs).unwrap();
        for rank in 0..procs {
            let mut access = fabric.take_import(n_exp + j, rank, 0);
            let owned = decomp.owned(rank);
            imp_threads.push((
                j,
                std::thread::spawn(move || {
                    (0..count)
                        .map(|i| {
                            let mut dest = LocalArray::zeros(owned);
                            let m = access.import(ts(20.0 * (i + 1) as f64), &mut dest).unwrap();
                            if let Some(m) = m {
                                // The received data is the exported object
                                // at the matched timestamp.
                                assert_eq!(dest.get(owned.row0, 0), m.value());
                            }
                            m
                        })
                        .collect::<Vec<_>>()
                }),
            ));
        }
    }
    for t in threads {
        t.join().unwrap();
    }
    let mut per_conn: Vec<Option<Vec<Option<Timestamp>>>> = vec![None; c.importers.len()];
    for (conn, t) in imp_threads {
        let ms = t.join().unwrap();
        match &per_conn[conn] {
            None => per_conn[conn] = Some(ms),
            // Collective consistency: every rank sees the same answers.
            Some(prev) => assert_eq!(prev, &ms, "ranks disagree on connection {conn}"),
        }
    }
    fabric.shutdown().unwrap();
    per_conn.into_iter().map(|m| m.unwrap()).collect()
}

proptest! {
    // 12 cases keep the default run fast; `SIMTEST_CASES=200 cargo test`
    // opts in to a deeper sweep (nightly CI, bug hunts).
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("SIMTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(12)
    ))]

    /// For random topologies, the engine on real threads and the engine on
    /// the DES deliver identical matched timestamps on every connection:
    /// the collective answer depends only on the export series and the
    /// policy, never on request arrival timing.
    #[test]
    fn random_topologies_match_identically_on_both_runtimes(c in topo_case()) {
        let des = des_matches(&c);
        let threaded = threaded_matches(&c);
        prop_assert_eq!(des, threaded);
    }
}
