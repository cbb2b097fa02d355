//! The paper's **Figure 2** topology, end to end on both runtimes: four
//! programs, three connections with three different match policies, and one
//! exported region (`P0.r1`) feeding two importers over a multi-connection
//! export. The threaded run goes through the public `couplink::Session`
//! API; the DES run drives the same validated topology on `TopologySim`;
//! the matched timestamps (and therefore the transferred data) must agree.

use couplink::prelude::*;
use couplink_proto::{ConnectionId, Trace};
use couplink_runtime::engine::Topology;
use couplink_runtime::{CostModel, ExportSchedule, ImportSchedule, Knobs, RunSpec, TopologySim};
use std::collections::HashMap;
use std::sync::mpsc;

/// Figure 2: P0 exports r1 to both P1 (REGL) and P2 (REGU); P3 exports r2
/// to P1 (REG).
const FIG2: &str = "\
P0 c0 /bin/p0 2
P1 c0 /bin/p1 2
P2 c1 /bin/p2 1
P3 c1 /bin/p3 1
#
P0.r1 P1.r1 REGL 2.5
P0.r1 P2.r3 REGU 2.5
P3.r2 P1.r4 REG 0.5
";

const GRID: Extent2 = Extent2 { rows: 16, cols: 16 };

/// Exported cell value: encodes the timestamp and the cell position, so an
/// importer can verify exactly which exported object it received.
fn cell(region: u32, t: f64, r: usize, c: usize) -> f64 {
    region as f64 * 1e6 + t * 100.0 + (r * GRID.cols + c) as f64
}

struct Bindings {
    p0: Decomposition,
    p1: Decomposition,
    p2: Decomposition,
    p3: Decomposition,
}

fn bindings() -> Bindings {
    Bindings {
        p0: Decomposition::block_2d(GRID, 2, 1).unwrap(),
        p1: Decomposition::row_block(GRID, 2).unwrap(),
        p2: Decomposition::row_block(GRID, 1).unwrap(),
        p3: Decomposition::row_block(GRID, 1).unwrap(),
    }
}

const EXPORTS: usize = 30;

/// Runs the topology on the deterministic DES runtime and returns the
/// matched timestamp per connection (plus the trace from P0 rank 0).
fn run_des() -> (Vec<Option<Timestamp>>, Trace) {
    let config = couplink::config::parse(FIG2).unwrap();
    let b = bindings();
    let mut decomps = HashMap::new();
    decomps.insert(RegionRef::new("P0", "r1"), b.p0);
    decomps.insert(RegionRef::new("P1", "r1"), b.p1);
    decomps.insert(RegionRef::new("P2", "r3"), b.p2);
    decomps.insert(RegionRef::new("P3", "r2"), b.p3);
    decomps.insert(RegionRef::new("P1", "r4"), b.p1);
    let topology = Topology::from_config(&config, &decomps).unwrap();
    let spec = RunSpec {
        topology,
        exports: vec![
            ExportSchedule {
                program: "P0".into(),
                region: "r1".into(),
                t0: 1.6,
                dt: 1.0,
                count: EXPORTS,
                compute: vec![1e-3; 2],
            },
            ExportSchedule {
                program: "P3".into(),
                region: "r2".into(),
                t0: 1.6,
                dt: 1.0,
                count: EXPORTS,
                compute: vec![1e-3; 1],
            },
        ],
        imports: vec![
            ImportSchedule {
                program: "P1".into(),
                region: "r1".into(),
                t0: 20.0,
                dt: 20.0,
                count: 1,
                compute: 1e-2,
                startup: 1.0,
            },
            ImportSchedule {
                program: "P1".into(),
                region: "r4".into(),
                t0: 10.3,
                dt: 20.0,
                count: 1,
                compute: 1e-2,
                startup: 1.0,
            },
            ImportSchedule {
                program: "P2".into(),
                region: "r3".into(),
                t0: 20.0,
                dt: 20.0,
                count: 1,
                compute: 1e-2,
                startup: 1.0,
            },
        ],
        knobs: Knobs {
            traces: vec![(0, 0, ConnectionId(0))],
            ..Knobs::default()
        },
    };
    let sim = TopologySim::from_spec(spec, CostModel::default()).unwrap();
    let report = sim.run().unwrap();
    let matches = report
        .matches
        .iter()
        .map(|per_conn| {
            assert_eq!(per_conn.len(), 1, "one import per connection");
            per_conn[0]
        })
        .collect();
    assert_eq!(report.traces.len(), 1);
    (matches, report.traces[0].3.clone())
}

/// Runs the same topology through `Session` on the threaded runtime.
/// Returns the matched timestamp per connection (verified against the
/// actual array contents received) and the trace from P0 rank 0.
fn run_threaded() -> (Vec<Option<Timestamp>>, Trace) {
    let config = couplink::config::parse(FIG2).unwrap();
    let b = bindings();
    let mut session = SessionBuilder::new(config)
        .bind("P0", "r1", b.p0)
        .bind("P1", "r1", b.p1)
        .bind("P2", "r3", b.p2)
        .bind("P3", "r2", b.p3)
        .bind("P1", "r4", b.p1)
        .trace("P0", 0, "r1")
        .build()
        .unwrap();
    let mut p0 = session.take_program("P0").unwrap();
    let mut p1 = session.take_program("P1").unwrap();
    let mut p2 = session.take_program("P2").unwrap();
    let mut p3 = session.take_program("P3").unwrap();

    let mut threads = Vec::new();
    for rank in 0..2 {
        let mut proc = p0.take_process(rank);
        let owned = b.p0.owned(rank);
        threads.push(std::thread::spawn(move || {
            let region = proc.export_region("r1").unwrap();
            assert_eq!(region.connections(), 2, "P0.r1 feeds two importers");
            for i in 0..EXPORTS {
                let t = 1.6 + i as f64;
                let data = LocalArray::from_fn(owned, |r, c| cell(1, t, r, c));
                let outcomes = region.export(ts(t), &data).unwrap();
                assert_eq!(outcomes.len(), 2, "one outcome per connection");
            }
        }));
    }
    {
        let mut proc = p3.take_process(0);
        let owned = b.p3.owned(0);
        threads.push(std::thread::spawn(move || {
            let region = proc.export_region("r2").unwrap();
            for i in 0..EXPORTS {
                let t = 1.6 + i as f64;
                let data = LocalArray::from_fn(owned, |r, c| cell(2, t, r, c));
                region.export(ts(t), &data).unwrap();
            }
        }));
    }

    // Importers report (connection index, matched timestamp) and verify the
    // received array matches the exporter's data at that timestamp.
    let (tx, rx) = mpsc::channel::<(usize, Option<Timestamp>)>();
    for rank in 0..2 {
        let mut proc = p1.take_process(rank);
        let owned = b.p1.owned(rank);
        let tx = tx.clone();
        threads.push(std::thread::spawn(move || {
            let mut dest = LocalArray::zeros(owned);
            let m = proc
                .import_region("r1")
                .unwrap()
                .import(ts(20.0), &mut dest)
                .unwrap();
            if let Some(m) = m {
                for r in owned.row0..owned.row0 + owned.rows {
                    for c in owned.col0..owned.col0 + owned.cols {
                        assert_eq!(dest.get(r, c), cell(1, m.value(), r, c));
                    }
                }
            }
            tx.send((0, m)).unwrap();
            let mut dest = LocalArray::zeros(owned);
            let m = proc
                .import_region("r4")
                .unwrap()
                .import(ts(10.3), &mut dest)
                .unwrap();
            if let Some(m) = m {
                assert_eq!(dest.get(owned.row0, 0), cell(2, m.value(), owned.row0, 0));
            }
            tx.send((2, m)).unwrap();
        }));
    }
    {
        let mut proc = p2.take_process(0);
        let owned = b.p2.owned(0);
        let tx = tx.clone();
        threads.push(std::thread::spawn(move || {
            let mut dest = LocalArray::zeros(owned);
            let m = proc
                .import_region("r3")
                .unwrap()
                .import(ts(20.0), &mut dest)
                .unwrap();
            if let Some(m) = m {
                assert_eq!(dest.get(0, 0), cell(1, m.value(), 0, 0));
            }
            tx.send((1, m)).unwrap();
        }));
    }
    drop(tx);
    for t in threads {
        t.join().unwrap();
    }

    // All ranks of a program are answered collectively: every report for a
    // connection must carry the same match.
    let mut matches: Vec<Option<Option<Timestamp>>> = vec![None; 3];
    for (conn, m) in rx {
        match &matches[conn] {
            None => matches[conn] = Some(m),
            Some(prev) => assert_eq!(*prev, m, "ranks disagree on connection {conn}"),
        }
    }
    let matches: Vec<Option<Timestamp>> = matches.into_iter().map(|m| m.unwrap()).collect();

    let (stats, traces) = session.shutdown_with_traces().unwrap();
    assert_eq!(stats.len(), 3, "one stats vector per connection");
    assert_eq!(stats[0].len(), 2, "P0 has two exporter ranks");
    assert_eq!(stats[2].len(), 1, "P3 has one exporter rank");
    for per_rank in &stats {
        for s in per_rank {
            assert_eq!(s.requests, 1);
            assert_eq!(s.sends, 1);
        }
    }
    // Tracing a region traces each of its connections: P0.r1 feeds two.
    assert_eq!(traces.len(), 2);
    let (prog, rank, conn, trace) = &traces[0];
    assert_eq!((prog.as_str(), *rank, *conn), ("P0", 0, ConnectionId(0)));
    (matches, trace.clone())
}

#[test]
fn figure2_topology_matches_on_both_runtimes() {
    let (des, des_trace) = run_des();
    let (threaded, threaded_trace) = run_threaded();

    // The expected matches follow from the schedules alone: exports at
    // 1.6, 2.6, …, 30.6 extend past every acceptable region, so the match
    // per connection is timing-independent.
    assert_eq!(des[0], Some(ts(19.6)), "REGL [17.5, 20] matches 19.6");
    assert_eq!(des[1], Some(ts(20.6)), "REGU [20, 22.5] matches 20.6");
    assert_eq!(des[2], Some(ts(10.6)), "REG [9.8, 10.8] matches 10.6");
    assert_eq!(des, threaded, "both runtimes agree per connection");

    // Trace-sink completeness: both runtimes emitted a Figure-5 event
    // stream for P0 rank 0, and the timing-independent projections agree
    // exactly. (The full event streams legally differ: `copied` flags,
    // PENDING replies, buddy-help and remove events all depend on thread
    // timing — Property 1 only fixes requests, sends, and their order.)
    assert!(!des_trace.events().is_empty());
    assert!(!threaded_trace.events().is_empty());
    assert_eq!(
        des_trace.export_sequence(),
        threaded_trace.export_sequence(),
        "both runtimes observed the full export schedule"
    );
    assert_eq!(
        des_trace.request_sequence(),
        threaded_trace.request_sequence(),
        "both runtimes forwarded the same requests in the same order"
    );
    assert_eq!(
        des_trace.send_sequence(),
        threaded_trace.send_sequence(),
        "both runtimes sent the same objects in the same order"
    );
}
