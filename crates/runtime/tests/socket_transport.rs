//! End-to-end tests of the socket transport: real `couplink-node`
//! processes on loopback, driven through the bootstrap orchestrator.
//!
//! Covers the happy path on both backends, the bootstrap rejection path
//! (duplicate program claim), the negative transport behaviours (peer
//! death mid-run must surface as `ProcessCrash`, a stalled peer must hit
//! the import timeout, not hang), and the shutdown-order regression (a
//! peer draining early must not fail the survivors).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use couplink_runtime::net::node::NODE_BUFFER_CAPACITY;
use couplink_runtime::net::{
    run_plan, BootstrapError, ExportSpec, ImportSpec, KillSpec, NetOptions, NetReport, NodeFault,
    NodePlan, SocketBackend,
};
use couplink_time::ts;

fn node_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_couplink-node"))
}

/// Two programs, two ranks each, one connection `E0.r -> I0.m`, exact
/// timestamp matches under REG.
fn pair_plan(exports: usize, imports: usize) -> NodePlan {
    NodePlan {
        config_text: "E0 c0 /bin/e0 2\nI0 c0 /bin/i0 2\n#\nE0.r I0.m REG 0.125\n".into(),
        grid: (8, 8),
        exports: vec![ExportSpec {
            program: "E0".into(),
            region: 0,
            t0: 0.5,
            dt: 0.5,
            count: exports,
            compute: vec![0.0, 0.0],
        }],
        imports: vec![ImportSpec {
            program: "I0".into(),
            region: 0,
            t0: 0.5,
            dt: 0.5,
            count: imports,
            compute: 0.0,
            startup: 0.0,
        }],
        buddy_help: false,
        import_timeout_s: 10.0,
        time_scale: 0.05,
        verify_values: true,
        traces: vec![(0, 0, 0), (0, 1, 0)],
        chaos: None,
        fault: None,
        hierarchical: false,
        wal_dir: None,
        restart: false,
    }
}

fn opts(backend: SocketBackend) -> NetOptions {
    NetOptions {
        backend,
        deadline: Duration::from_secs(60),
        ..NetOptions::new(node_bin())
    }
}

fn assert_clean(rep: &NetReport, imports: usize) {
    assert!(rep.crashed.is_empty(), "crashed: {:?}", rep.crashed);
    assert!(
        rep.shutdown_errors.is_empty(),
        "shutdown errors: {:?}",
        rep.shutdown_errors
    );
    assert!(
        rep.export_errors.is_empty(),
        "export errors: {:?}",
        rep.export_errors
    );
    // Both importer ranks completed every import without error.
    assert_eq!(rep.imports_done.len(), 2);
    for (prog, rank, done, err) in &rep.imports_done {
        assert_eq!(*err, None, "importer {prog}.{rank} failed");
        assert_eq!(*done as usize, imports, "importer {prog}.{rank} short");
    }
    // Every import matched (exact-timestamp schedule) — and the matches
    // survived the node's in-process value verification.
    assert_eq!(rep.matches[0].len(), imports);
    assert!(rep.matches[0].iter().all(Option::is_some));
    // Exporter stats for both ranks came home.
    assert_eq!(rep.stats[0].len(), 2);
    assert!(rep.stats[0].iter().all(|s| s.exports > 0));
    // Frames actually crossed sockets; nothing was rejected; nobody
    // reconnected.
    assert!(rep.counters.net_frames > 0, "no frames crossed the wire");
    assert!(rep.counters.net_bytes > 0);
    assert_eq!(rep.counters.net_codec_rejects, 0);
    assert_eq!(rep.counters.net_reconnects, 0);
}

#[test]
fn uds_pair_end_to_end() {
    let rep = run_plan(&pair_plan(6, 6), &opts(SocketBackend::Uds)).expect("bootstrap");
    assert_clean(&rep, 6);
    // The armed traces came home from the exporter process.
    assert_eq!(rep.traces.len(), 2);
}

/// The node paces its exporters: against a slow importer they stall on a
/// full buffer instead of buffering the whole run, no port ever holds more
/// than the plan's derived capacity, and every match is still exact with
/// every landed cell verified.
#[test]
fn slow_importer_paces_the_exporters() {
    let mut plan = pair_plan(64, 64);
    plan.imports[0].compute = 0.1;
    let cap = plan.export_capacity(&plan.topology().expect("topology"), 0);
    assert_eq!(cap, NODE_BUFFER_CAPACITY);
    let rep = run_plan(&plan, &opts(SocketBackend::Uds)).expect("bootstrap");
    assert_clean(&rep, 64);
    for (k, m) in rep.matches[0].iter().enumerate() {
        assert_eq!(*m, Some(ts(0.5 + k as f64 * 0.5)), "import {k}");
    }
    assert!(rep.counters.buffer_stalls > 0, "nothing stalled");
    for s in &rep.stats[0] {
        assert!(
            s.buffered_hwm <= cap,
            "a port held {} > {cap}",
            s.buffered_hwm
        );
    }
    // The gauge sums the node's ports: two exporter ranks, one port each.
    assert!(
        rep.counters.buffered_hwm <= 2 * cap as u64,
        "{:?}",
        rep.counters
    );
}

/// An exporter that runs 36 exports past its importer's last request
/// keeps every one of them buffered (nothing frees that port again), so
/// the derived capacity must cover that tail: the run completes with no
/// export error, nowhere near the import timeout a stall would sit out.
#[test]
fn exports_past_the_last_request_fit_the_derived_capacity() {
    let plan = pair_plan(40, 4);
    let cap = plan.export_capacity(&plan.topology().expect("topology"), 0);
    assert_eq!(cap, 37 + 1);
    let started = Instant::now();
    let rep = run_plan(&plan, &opts(SocketBackend::Uds)).expect("bootstrap");
    let took = started.elapsed();
    assert_clean(&rep, 4);
    assert!(rep.stats[0].iter().all(|s| s.exports == 40));
    let timeout = Duration::from_secs_f64(plan.import_timeout_s);
    assert!(took < timeout / 2, "took {took:?}");
}

#[test]
fn tcp_smoke() {
    let rep = run_plan(&pair_plan(4, 4), &opts(SocketBackend::Tcp)).expect("bootstrap");
    assert_clean(&rep, 4);
}

#[test]
fn duplicate_program_rejected_at_bootstrap() {
    let mut o = opts(SocketBackend::Uds);
    // Program 1's node claims to be program 0: whichever hello lands
    // second trips the duplicate check.
    o.misclaim = Some((1, 0));
    match run_plan(&pair_plan(2, 2), &o) {
        Err(BootstrapError::DuplicateProgram { prog: 0 }) => {}
        other => panic!("expected DuplicateProgram, got {other:?}"),
    }
}

#[test]
fn peer_death_mid_run_surfaces_as_process_crash() {
    let mut plan = pair_plan(8, 8);
    // Exporter rank 0 exits the whole process after its first export.
    plan.fault = Some(NodeFault::AbortAfterExports {
        prog: 0,
        rank: 0,
        after: 1,
    });
    let rep = run_plan(&plan, &opts(SocketBackend::Uds)).expect("bootstrap");
    assert_eq!(rep.crashed, vec![0], "exporter process should be gone");
    // The importer must FAIL, promptly, with the peer death named — not
    // hang until the harness deadline and not report success.
    assert_eq!(rep.imports_done.len(), 2);
    let failed = rep
        .imports_done
        .iter()
        .filter(|(_, _, _, err)| {
            err.as_deref()
                .is_some_and(|e| e.contains("process crashed") && e.contains("program 0"))
        })
        .count();
    assert!(
        failed > 0,
        "no importer saw the crash: {:?}",
        rep.imports_done
    );
    // Nobody completed the full schedule.
    assert!(rep.imports_done.iter().all(|(_, _, done, _)| *done < 8));
}

#[test]
fn stalled_peer_hits_import_timeout() {
    let mut plan = pair_plan(4, 4);
    plan.import_timeout_s = 1.0;
    // The importer program's mesh readers park: its sockets stay open
    // but answers and pieces are never processed.
    plan.fault = Some(NodeFault::StallMeshReader { prog: 1 });
    let rep = run_plan(&plan, &opts(SocketBackend::Uds)).expect("bootstrap");
    assert!(rep.crashed.is_empty(), "nothing died: {:?}", rep.crashed);
    let timed_out = rep
        .imports_done
        .iter()
        .filter(|(_, _, _, err)| {
            err.as_deref()
                .is_some_and(|e| e.contains("import timed out"))
        })
        .count();
    assert_eq!(
        timed_out, 2,
        "both ranks must time out: {:?}",
        rep.imports_done
    );
}

#[test]
fn durable_journal_clean_run_stays_clean() {
    let mut o = opts(SocketBackend::Uds);
    o.durable = true;
    let rep = run_plan(&pair_plan(5, 5), &o).expect("bootstrap");
    // A file-backed journal on a fault-free run must be invisible: no
    // replay, no truncation, no reconnects — only appends.
    assert_clean(&rep, 5);
    assert!(rep.counters.wal_appends > 0, "nothing was journaled");
    assert!(rep.counters.wal_bytes > 0);
    assert_eq!(rep.counters.wal_replayed, 0);
    assert_eq!(rep.counters.wal_truncated, 0);
}

/// Stretches the pair schedule so that requests are already flowing (and
/// journaled on the exporter) when a mid-run fault lands, and the
/// importer still has imports outstanding across the recovery.
fn slow_pair_plan() -> NodePlan {
    let mut plan = pair_plan(8, 8);
    plan.exports[0].compute = vec![0.2, 0.2];
    plan.imports[0].compute = 0.5;
    plan
}

#[test]
fn sigkilled_exporter_restarts_from_journal_and_completes() {
    let mut o = opts(SocketBackend::Uds);
    o.kill_restart = Some(KillSpec {
        prog: 0,
        corrupt_wal: false,
    });
    let rep = run_plan(&slow_pair_plan(), &o).expect("bootstrap");
    // The kill is real but recovered-from: nobody is *reported* crashed,
    // every import completes (with in-process value verification — the
    // replayed exports must be bit-identical), and the mesh saw at least
    // one reconnect while the restarted node replayed its journal.
    assert!(rep.crashed.is_empty(), "crashed: {:?}", rep.crashed);
    assert!(
        rep.shutdown_errors.is_empty(),
        "shutdown errors: {:?}",
        rep.shutdown_errors
    );
    assert!(
        rep.export_errors.is_empty(),
        "export errors: {:?}",
        rep.export_errors
    );
    for (prog, rank, done, err) in &rep.imports_done {
        assert_eq!(*err, None, "importer {prog}.{rank} failed");
        assert_eq!(*done, 8, "importer {prog}.{rank} short");
    }
    assert!(rep.matches[0].iter().all(Option::is_some));
    assert!(rep.counters.net_reconnects >= 1, "nobody reconnected");
    assert!(
        rep.counters.wal_replayed >= 1,
        "the restart did not replay the journal"
    );
}

#[test]
fn corrupted_journal_fails_the_restart_loudly() {
    let mut o = opts(SocketBackend::Uds);
    o.kill_restart = Some(KillSpec {
        prog: 0,
        corrupt_wal: true,
    });
    // A flipped byte mid-journal must fail the whole run with the
    // corruption named — never silently truncate or skip the record.
    match run_plan(&slow_pair_plan(), &o) {
        Err(BootstrapError::Wire(e)) => {
            assert!(e.contains("corrupt"), "error must name the corruption: {e}");
        }
        other => panic!("expected a corrupt-journal failure, got {other:?}"),
    }
}

#[test]
fn severed_link_redials_and_completes() {
    let mut plan = slow_pair_plan();
    // The exporter half-closes its link to the importer five frames in;
    // both sides must abandon the socket, re-dial/re-accept, and replay
    // unacked traffic from the reliability journal.
    plan.fault = Some(NodeFault::SeverLink {
        prog: 0,
        peer: 1,
        after_tx: 5,
    });
    let mut o = opts(SocketBackend::Uds);
    o.durable = true;
    let rep = run_plan(&plan, &o).expect("bootstrap");
    assert!(rep.crashed.is_empty(), "crashed: {:?}", rep.crashed);
    assert!(
        rep.shutdown_errors.is_empty(),
        "shutdown errors: {:?}",
        rep.shutdown_errors
    );
    for (prog, rank, done, err) in &rep.imports_done {
        assert_eq!(*err, None, "importer {prog}.{rank} failed");
        assert_eq!(*done, 8, "importer {prog}.{rank} short");
    }
    assert!(rep.matches[0].iter().all(Option::is_some));
    assert!(rep.counters.net_reconnects >= 1, "nobody reconnected");
}

#[test]
fn early_peer_drain_tolerated_by_survivors() {
    let mut plan = pair_plan(5, 5);
    // The importer drains and exits the moment its own app work is done,
    // without waiting for the coordinated DRAIN — its sockets close while
    // the exporter is still up. The exporter must treat the EOF as a
    // normal drain, not a crash.
    plan.fault = Some(NodeFault::DrainEarly { prog: 1 });
    let rep = run_plan(&plan, &opts(SocketBackend::Uds)).expect("bootstrap");
    assert!(rep.crashed.is_empty(), "crashed: {:?}", rep.crashed);
    assert!(
        rep.shutdown_errors.is_empty(),
        "shutdown errors: {:?}",
        rep.shutdown_errors
    );
    for (_, _, done, err) in &rep.imports_done {
        assert_eq!(*err, None);
        assert_eq!(*done, 5);
    }
    assert_eq!(rep.stats[0].len(), 2, "exporter stats must come home");
}
