//! End-to-end integration across the whole stack: the public `couplink`
//! session API over the threaded runtime, cross-checked against the
//! deterministic discrete-event runtime.

use couplink::prelude::*;
use couplink_runtime::{CostModel, ExportSchedule, ImportSchedule, RunSpec, Topology, TopologySim};
use std::sync::mpsc;

fn session_for(
    policy: &str,
    tolerance: f64,
    buddy: bool,
) -> (Session, Decomposition, Decomposition) {
    let config = couplink::config::parse(&format!(
        "F c0 /bin/f 4\nU c0 /bin/u 2\n#\nF.r U.r {policy} {tolerance}\n"
    ))
    .expect("valid config");
    let grid = Extent2::new(32, 32);
    let f = Decomposition::block_2d(grid, 2, 2).unwrap();
    let u = Decomposition::row_block(grid, 2).unwrap();
    let session = SessionBuilder::new(config)
        .bind("F", "r", f)
        .bind("U", "r", u)
        .buddy_help(buddy)
        .build()
        .unwrap();
    (session, f, u)
}

/// Drives a full exporter/importer run through the public API and returns
/// each matched timestamp with the checksum of the received data.
fn run_threaded(
    policy: &str,
    tolerance: f64,
    buddy: bool,
    import_times: &[f64],
) -> Vec<(Option<f64>, f64)> {
    let (mut session, f_d, u_d) = session_for(policy, tolerance, buddy);
    let mut f = session.take_program("F").unwrap();
    let mut u = session.take_program("U").unwrap();
    let mut threads = Vec::new();
    for rank in 0..4 {
        let mut proc = f.take_process(rank);
        let owned = f_d.owned(rank);
        threads.push(std::thread::spawn(move || {
            let region = proc.export_region("r").unwrap();
            for i in 0..80 {
                let t = 1.6 + i as f64;
                let data = LocalArray::from_fn(owned, |r, c| t * 31.0 + (r * 32 + c) as f64);
                region.export(ts(t), &data).unwrap();
            }
        }));
    }
    let (tx, rx) = mpsc::channel();
    for rank in 0..2 {
        let mut proc = u.take_process(rank);
        let owned = u_d.owned(rank);
        let tx = tx.clone();
        let imports = import_times.to_vec();
        threads.push(std::thread::spawn(move || {
            let region = proc.import_region("r").unwrap();
            for (j, want) in imports.iter().enumerate() {
                let mut dest = LocalArray::zeros(owned);
                let m = region.import(ts(*want), &mut dest).unwrap();
                tx.send((j, rank, m.map(|t| t.value()), dest.sum()))
                    .unwrap();
            }
        }));
    }
    drop(tx);
    let mut results = vec![(None, 0.0); import_times.len()];
    let mut seen = vec![0usize; import_times.len()];
    while let Ok((j, _rank, m, sum)) = rx.recv() {
        results[j].0 = m;
        results[j].1 += sum;
        seen[j] += 1;
    }
    for t in threads {
        t.join().unwrap();
    }
    session.shutdown().unwrap();
    assert!(seen.iter().all(|&s| s == 2), "every rank answered");
    results
}

#[test]
fn buddy_help_changes_nothing_observable() {
    let imports = [20.0, 40.0, 60.0];
    let with = run_threaded("REGL", 2.5, true, &imports);
    let without = run_threaded("REGL", 2.5, false, &imports);
    assert_eq!(with, without);
    assert_eq!(with[0].0, Some(19.6));
    assert_eq!(with[1].0, Some(39.6));
    assert_eq!(with[2].0, Some(59.6));
}

#[test]
fn all_three_policies_match_as_specified() {
    // Exports at 1.6, 2.6, ...; request 20.0.
    let regl = run_threaded("REGL", 2.5, true, &[20.0]);
    assert_eq!(regl[0].0, Some(19.6)); // closest at-or-below
    let regu = run_threaded("REGU", 2.5, true, &[20.0]);
    assert_eq!(regu[0].0, Some(20.6)); // first at-or-above
    let reg = run_threaded("REG", 2.5, true, &[20.0]);
    assert_eq!(reg[0].0, Some(19.6)); // 19.6 is closer than 20.6
}

#[test]
fn tight_tolerance_yields_no_match() {
    // Exports land at x.6 only; a request at 20.0 with tolerance 0.25 has an
    // empty acceptable region.
    let result = run_threaded("REG", 0.25, true, &[20.0]);
    assert_eq!(result[0].0, None);
    assert_eq!(result[0].1, 0.0, "dest untouched on NO MATCH");
}

#[test]
fn received_data_is_the_matched_version() {
    let results = run_threaded("REGL", 2.5, true, &[40.0]);
    let m = results[0].0.unwrap();
    // Checksum over the whole 32x32 grid of `t*31 + linear_index`.
    let expect: f64 = (0..32 * 32).map(|i| m * 31.0 + i as f64).sum();
    assert!((results[0].1 - expect).abs() < 1e-6);
}

/// The DES and the threaded runtime must agree on *what* is transferred
/// (virtual timing differs, semantics must not).
#[test]
fn des_and_threaded_agree_on_transfers() {
    let grid = Extent2::new(32, 32);
    let spec = RunSpec {
        topology: Topology::pair(
            Decomposition::block_2d(grid, 2, 2).unwrap(),
            Decomposition::row_block(grid, 2).unwrap(),
            MatchPolicy::RegL,
            Tolerance::new(2.5).unwrap(),
        )
        .unwrap(),
        exports: vec![ExportSchedule {
            program: "exporter".into(),
            region: "r".into(),
            t0: 1.6,
            dt: 1.0,
            count: 80,
            compute: vec![1e-5, 1e-5, 1e-5, 1e-4],
        }],
        imports: vec![ImportSchedule {
            program: "importer".into(),
            region: "r".into(),
            t0: 20.0,
            dt: 20.0,
            count: 3,
            compute: 1e-4,
            startup: 0.0,
        }],
        ..RunSpec::default()
    };
    let sim = TopologySim::from_spec(spec, CostModel::default());
    let report = sim.unwrap().run().unwrap();
    let threaded = run_threaded("REGL", 2.5, true, &[20.0, 40.0, 60.0]);
    // Same three matches on both runtimes.
    assert_eq!(report.import_done[0], vec![3, 3]);
    for stats in &report.stats[0] {
        assert_eq!(stats.sends, 3);
    }
    assert_eq!(
        threaded.iter().map(|(m, _)| *m).collect::<Vec<_>>(),
        vec![Some(19.6), Some(39.6), Some(59.6)]
    );
}

/// The diffusion solver coupled through the framework converges to the same
/// field whether or not buddy-help is enabled.
#[test]
fn coupled_solver_is_bitwise_independent_of_buddy_help() {
    use couplink_diffusion::{fill_forcing, Leapfrog};
    let run = |buddy: bool| -> Vec<f64> {
        let (mut session, f_d, u_d) = session_for("REGL", 2.5, buddy);
        let grid = Extent2::new(32, 32);
        let mut f = session.take_program("F").unwrap();
        let mut u = session.take_program("U").unwrap();
        let mut threads = Vec::new();
        for rank in 0..4 {
            let mut proc = f.take_process(rank);
            let owned = f_d.owned(rank);
            threads.push(std::thread::spawn(move || {
                let region = proc.export_region("r").unwrap();
                for i in 0..70 {
                    let t = 1.6 + i as f64;
                    let data = fill_forcing(grid, owned, t);
                    region.export(ts(t), &data).unwrap();
                }
            }));
        }
        let (tx, rx) = mpsc::channel();
        for rank in 0..2 {
            let mut proc = u.take_process(rank);
            let owned = u_d.owned(rank);
            let tx = tx.clone();
            threads.push(std::thread::spawn(move || {
                let region = proc.import_region("r").unwrap();
                let dx = 1.0 / 33.0;
                let mut solver = Leapfrog::new(grid, owned, dx, dx / 2.0);
                let mut forcing = LocalArray::zeros(owned);
                for j in 1..=3 {
                    region
                        .import(ts(20.0 * j as f64), &mut forcing)
                        .unwrap()
                        .unwrap();
                    // Halo-free sub-stepping: treat the block boundary rows
                    // as fixed zero (sufficient for a determinism check).
                    for _ in 0..5 {
                        solver.step(&forcing);
                    }
                }
                tx.send((rank, solver.snapshot().as_slice().to_vec()))
                    .unwrap();
            }));
        }
        drop(tx);
        let mut fields = [Vec::new(), Vec::new()];
        while let Ok((rank, field)) = rx.recv() {
            fields[rank] = field;
        }
        for t in threads {
            t.join().unwrap();
        }
        session.shutdown().unwrap();
        fields.concat()
    };
    let a = run(true);
    let b = run(false);
    assert_eq!(a, b);
    assert!(a.iter().any(|v| *v != 0.0), "forcing actually acted");
}
