//! The threaded in-process runtime: real concurrency, real memcpys, few
//! threads.
//!
//! User code (an example, a bench, a test) drives one
//! [`ExportAccess`]/[`ImportAccess`] per simulated process from its own
//! thread — exactly like an SPMD rank calling the framework library. The
//! control plane behind those handles — per program one *rep* (the paper's
//! low-overhead control gateway), per exporter process a small *agent*
//! standing in for the framework's asynchronous progress engine, per
//! importer process an answer/piece consumer — is **not** thread-per-node:
//! every rep, agent, and importer is a polled state machine scheduled by
//! the event-driven [`executor`] on a fixed worker pool, one per
//! [`Fabric`].
//!
//! The protocol itself lives in [`crate::engine`]; this module is the thin
//! driver moving the engine's messages between task mailboxes ([`fabric`]).

pub mod executor;
pub mod fabric;

pub use fabric::{
    fabric_task_count, ExportAccess, Fabric, FabricOptions, FabricReport, ImportAccess, WalHandle,
};

use crate::engine::{ActionKind, EngineError};
use couplink_proto::export_port::PortError;
use couplink_proto::import_port::ImportError;
use std::fmt;
use std::time::Duration;

/// Error from the threaded runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum ThreadedError {
    /// A protocol machine rejected an event.
    Port(PortError),
    /// An importer port rejected an event.
    Import(ImportError),
    /// A rep thread died on a protocol violation; the message describes it.
    RepFailed(String),
    /// A channel was disconnected (a peer thread exited early).
    Disconnected,
    /// `import` timed out waiting for an answer or data.
    Timeout,
    /// A fabric control thread (rep or agent) panicked; the panic was
    /// caught and surfaced here instead of hanging shutdown.
    ProcessCrash(String),
    /// Bad configuration.
    Config(String),
}

impl fmt::Display for ThreadedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadedError::Port(e) => write!(f, "export port: {e}"),
            ThreadedError::Import(e) => write!(f, "import port: {e}"),
            ThreadedError::RepFailed(s) => write!(f, "rep failed: {s}"),
            ThreadedError::Disconnected => write!(f, "peer thread disconnected"),
            ThreadedError::Timeout => write!(f, "import timed out"),
            ThreadedError::ProcessCrash(s) => write!(f, "process crashed: {s}"),
            ThreadedError::Config(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for ThreadedError {}

impl From<PortError> for ThreadedError {
    fn from(e: PortError) -> Self {
        ThreadedError::Port(e)
    }
}
impl From<ImportError> for ThreadedError {
    fn from(e: ImportError) -> Self {
        ThreadedError::Import(e)
    }
}
impl From<EngineError> for ThreadedError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Port(p) => ThreadedError::Port(p),
            EngineError::Import(i) => ThreadedError::Import(i),
            EngineError::Rep(r) => ThreadedError::RepFailed(r.to_string()),
            EngineError::UnexpectedMessage(m) => ThreadedError::Config(m.into()),
        }
    }
}

/// What one `export` call did, with its measured duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExportOutcome {
    /// Whether the object was copied, copied-and-sent, or skipped.
    pub action: ActionKind,
    /// Wall-clock duration of the export call (the Figure 4 measurement).
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Topology;
    use couplink_layout::{Decomposition, Extent2, LocalArray};
    use couplink_time::{ts, MatchPolicy, Tolerance};
    use std::time::Instant;

    /// One REGL connection: exporter program 0 (`take_export(0, rank, 0)`),
    /// importer program 1 (`take_import(1, rank, 0)`).
    fn pair_fabric(
        exp: Decomposition,
        imp: Decomposition,
        tolerance: f64,
        opts: FabricOptions,
    ) -> Fabric {
        let tol = Tolerance::new(tolerance).unwrap();
        Fabric::new(
            Topology::pair(exp, imp, MatchPolicy::RegL, tol).unwrap(),
            opts,
        )
    }

    fn pair(buddy_help: bool) -> (Fabric, Decomposition, Decomposition) {
        let e = Extent2::new(32, 32);
        let exp = Decomposition::block_2d(e, 2, 2).unwrap();
        let imp = Decomposition::row_block(e, 2).unwrap();
        let opts = FabricOptions {
            buddy_help,
            ..FabricOptions::default()
        };
        (pair_fabric(exp, imp, 2.5, opts), exp, imp)
    }

    /// An 8×8 grid in row blocks: `exporters` ranks feeding one importer.
    fn small_pair(
        exporters: usize,
        tolerance: f64,
        opts: FabricOptions,
    ) -> (Fabric, Decomposition, Decomposition) {
        let e = Extent2::new(8, 8);
        let exp = Decomposition::row_block(e, exporters).unwrap();
        let imp = Decomposition::row_block(e, 1).unwrap();
        (pair_fabric(exp, imp, tolerance, opts), exp, imp)
    }

    /// Full end-to-end coupled run on real threads: 4 exporter threads, 2
    /// importer threads, 60 exports, 3 imports, values verified.
    #[test]
    fn end_to_end_transfer() {
        let (mut pair, exp_d, imp_d) = pair(true);
        let mut exp_threads = Vec::new();
        for rank in 0..4 {
            let mut h = pair.take_export(0, rank, 0);
            let owned = exp_d.owned(rank);
            exp_threads.push(std::thread::spawn(move || {
                for i in 0..60 {
                    let t = 1.6 + i as f64;
                    // Cell value encodes (timestamp, position) so the importer
                    // can verify which version it received.
                    let data = LocalArray::from_fn(owned, |r, c| t * 1e6 + (r * 32 + c) as f64);
                    h.export(ts(t), &data).unwrap();
                }
            }));
        }
        let mut imp_threads = Vec::new();
        for rank in 0..2 {
            let mut h = pair.take_import(1, rank, 0);
            let owned = imp_d.owned(rank);
            imp_threads.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                for j in 1..=3 {
                    let x = 20.0 * j as f64;
                    let mut dest = LocalArray::zeros(owned);
                    let m = h.import(ts(x), &mut dest).unwrap();
                    got.push((m, dest));
                }
                got
            }));
        }
        for t in exp_threads {
            t.join().unwrap();
        }
        for t in imp_threads {
            let results = t.join().unwrap();
            for (j, (m, dest)) in results.iter().enumerate() {
                let x = 20.0 * (j + 1) as f64;
                // REGL tol 2.5 over exports at i+0.6: match is x - 0.4.
                let expect = x - 0.4;
                assert_eq!(*m, Some(ts(expect)));
                let owned = dest.owned();
                for r in owned.row0..owned.row_end() {
                    for c in owned.col0..owned.col_end() {
                        assert_eq!(dest.get(r, c), expect * 1e6 + (r * 32 + c) as f64);
                    }
                }
            }
        }
        // Stats are read after every import completed: each exporter rank
        // transferred exactly its share of the 3 matched objects.
        let report = pair.shutdown().unwrap();
        for s in &report.stats[0] {
            assert_eq!(s.sends, 3, "{s:?}");
            assert_eq!(s.exports, 60);
        }
    }

    /// Buddy-help must not change what is transferred, only how much is
    /// buffered.
    #[test]
    fn buddy_help_transfers_identical_data() {
        let run = |buddy: bool| {
            let (mut pair, exp_d, imp_d) = pair(buddy);
            let mut threads = Vec::new();
            for rank in 0..4 {
                let mut h = pair.take_export(0, rank, 0);
                let owned = exp_d.owned(rank);
                threads.push(std::thread::spawn(move || {
                    for i in 0..50 {
                        let t = 1.6 + i as f64;
                        let data =
                            LocalArray::from_fn(owned, |r, c| t + ((r * 37 + c * 11) % 97) as f64);
                        // Slow the last rank so buddy-help has someone to help.
                        if rank == 3 {
                            std::thread::sleep(Duration::from_micros(300));
                        }
                        h.export(ts(t), &data).unwrap();
                    }
                }));
            }
            let mut imp = pair.take_import(1, 0, 0);
            let owned = imp_d.owned(0);
            let mut sums = Vec::new();
            for j in 1..=2 {
                let mut dest = LocalArray::zeros(owned);
                let m = imp.import(ts(20.0 * j as f64), &mut dest).unwrap();
                sums.push((m, dest.sum()));
            }
            let mut imp1 = pair.take_import(1, 1, 0);
            let owned1 = imp_d.owned(1);
            for j in 1..=2 {
                let mut dest = LocalArray::zeros(owned1);
                imp1.import(ts(20.0 * j as f64), &mut dest).unwrap();
            }
            for t in threads {
                t.join().unwrap();
            }
            drop(imp);
            drop(imp1);
            pair.shutdown().unwrap();
            sums
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn no_match_import_returns_none() {
        let (mut pair, exp_d, imp_d) = pair(true);
        let mut exp_threads = Vec::new();
        for rank in 0..4 {
            let mut h = pair.take_export(0, rank, 0);
            let owned = exp_d.owned(rank);
            exp_threads.push(std::thread::spawn(move || {
                // Exports jump straight over [17.5, 20].
                for t in [1.0, 10.0, 17.0, 21.0, 30.0] {
                    let data = LocalArray::zeros(owned);
                    h.export(ts(t), &data).unwrap();
                }
            }));
        }
        let mut imp_threads = Vec::new();
        for rank in 0..2 {
            let mut h = pair.take_import(1, rank, 0);
            let owned = imp_d.owned(rank);
            imp_threads.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                h.import(ts(20.0), &mut dest).unwrap()
            }));
        }
        for t in exp_threads {
            t.join().unwrap();
        }
        for t in imp_threads {
            assert_eq!(t.join().unwrap(), None);
        }
        pair.shutdown().unwrap();
    }

    #[test]
    fn stats_reflect_skips_with_slow_exporter() {
        let (mut pair, exp_d, imp_d) = pair(true);
        // Importer requests first, then the exporter (slowly) produces: with
        // buddy-help the non-matching exports in flight should skip.
        let mut imp_threads = Vec::new();
        for rank in 0..2 {
            let mut h = pair.take_import(1, rank, 0);
            let owned = imp_d.owned(rank);
            imp_threads.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                h.import(ts(20.0), &mut dest).unwrap()
            }));
        }
        std::thread::sleep(Duration::from_millis(50));
        let mut exp_threads = Vec::new();
        for rank in 0..4 {
            let mut h = pair.take_export(0, rank, 0);
            let owned = exp_d.owned(rank);
            exp_threads.push(std::thread::spawn(move || {
                let mut skips = 0;
                for i in 0..25 {
                    let t = 1.6 + i as f64;
                    let data = LocalArray::zeros(owned);
                    let out = h.export(ts(t), &data).unwrap();
                    if out[0].action == ActionKind::Skip {
                        skips += 1;
                    }
                }
                skips
            }));
        }
        let mut total_skips = 0;
        for t in exp_threads {
            total_skips += t.join().unwrap();
        }
        for t in imp_threads {
            assert_eq!(t.join().unwrap(), Some(ts(19.6)));
        }
        // The request (region [17.5, 20]) was known before any export, so
        // exports 1.6 .. 16.6 skip on every rank.
        assert!(total_skips >= 4 * 16, "skips = {total_skips}");
        pair.shutdown().unwrap();
    }

    #[test]
    fn bounded_buffer_blocks_export_until_request_frees_space() {
        let opts = FabricOptions {
            buffer_capacity: Some(5),
            import_timeout: Duration::from_secs(10),
            ..FabricOptions::default()
        };
        let (mut pair, exp, imp) = small_pair(1, 2.5, opts);
        let mut exporter = pair.take_export(0, 0, 0);
        let mut importer = pair.take_import(1, 0, 0);
        let owned = exp.owned(0);
        let exporter_thread = std::thread::spawn(move || {
            let data = LocalArray::zeros(owned);
            let start = Instant::now();
            // The sixth export must block until the importer's request frees
            // the first five buffered objects. (Exports stop at 21.6: with a
            // single request, anything buffered beyond it stays buffered, so
            // running further would legitimately fill the buffer again.)
            for i in 1..=20 {
                exporter.export(ts(1.6 + i as f64), &data).unwrap();
            }
            (exporter.stats().remove(0), start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(200));
        let mut dest = LocalArray::zeros(imp.owned(0));
        let m = importer.import(ts(20.0), &mut dest).unwrap();
        assert_eq!(m, Some(ts(19.6)));
        let (stats, elapsed) = exporter_thread.join().unwrap();
        assert!(stats.buffer_full_stalls > 0, "{stats:?}");
        assert!(stats.buffered_hwm <= 5);
        assert!(
            elapsed >= Duration::from_millis(150),
            "exporter should have blocked: {elapsed:?}"
        );
        drop(importer);
        pair.shutdown().unwrap();
    }

    #[test]
    fn import_timeout_fires() {
        let opts = FabricOptions {
            import_timeout: Duration::from_millis(100),
            ..FabricOptions::default()
        };
        let (mut pair, _, imp) = small_pair(1, 1.0, opts);
        let mut h = pair.take_import(1, 0, 0);
        let mut dest = LocalArray::zeros(imp.owned(0));
        // Nobody ever exports: the import must time out, not hang.
        assert_eq!(h.import(ts(5.0), &mut dest), Err(ThreadedError::Timeout));
        drop(h);
        pair.shutdown().unwrap();
    }

    #[test]
    fn collective_violation_surfaces_at_shutdown() {
        let opts = FabricOptions {
            import_timeout: Duration::from_millis(500),
            ..FabricOptions::default()
        };
        let (mut pair, exp, imp) = small_pair(2, 1.0, opts);
        let mut e0 = pair.take_export(0, 0, 0);
        let mut e1 = pair.take_export(0, 1, 0);
        let d0 = LocalArray::zeros(exp.owned(0));
        let d1 = LocalArray::zeros(exp.owned(1));
        // Rank 0 and rank 1 export different timestamp sequences — a direct
        // Property 1 violation. Both export past the request's region so each
        // reaches a *definitive* (and conflicting) local answer.
        e0.export(ts(4.5), &d0).unwrap();
        e1.export(ts(4.8), &d1).unwrap();
        let imp_h = pair.take_import(1, 0, 0);
        let owned = imp.owned(0);
        let import_result = std::thread::spawn(move || {
            let mut imp_h = imp_h;
            let mut dest = LocalArray::zeros(owned);
            imp_h
                .import(ts(5.0), &mut dest)
                .map(|m| m.map(|t| t.value()))
        });
        std::thread::sleep(Duration::from_millis(50));
        // The rep may already have recorded the violation by now, in which
        // case these exports surface it early as `RepFailed` — the shutdown
        // assertion below is what this test pins, so don't unwrap here.
        let _ = e0.export(ts(6.0), &d0);
        let _ = e1.export(ts(6.5), &d1);
        let _ = import_result.join().unwrap();
        drop(e0);
        drop(e1);
        let res = pair.shutdown();
        assert!(
            matches!(res, Err(ThreadedError::RepFailed(_))),
            "expected a rep failure, got {res:?}"
        );
    }

    /// Regression test for the shutdown race documented on
    /// [`Fabric::shutdown`]: buddy-help the rep sends *after* answering the
    /// importer must still reach the agents before they exit.
    ///
    /// Construction: two exporter ranks, REGL tol 0.5, importer asks for
    /// 3.0 (region [2.5, 3.0]). Rank 0 exports 1.0 then 5.0 — its history
    /// jumps the region, so it answers the forwarded request NO MATCH
    /// definitively. Rank 1 exports only 1.0 and answers PENDING, leaving
    /// its request open. The rep's collective answer is NO MATCH; the
    /// importer returns `None` immediately and we shut down. The only thing
    /// closing rank 1's open request is the buddy-help notification the rep
    /// sends *after* the answer — exactly the message the old
    /// agents-first shutdown ordering could drop. With the fixed ordering
    /// rank 1's `buddy_helps` stat is 1 on every run.
    #[test]
    fn shutdown_drains_pending_buddy_help() {
        for _ in 0..20 {
            let (mut pair, exp, imp) = small_pair(2, 0.5, FabricOptions::default());
            let mut e0 = pair.take_export(0, 0, 0);
            let mut e1 = pair.take_export(0, 1, 0);
            let d0 = LocalArray::zeros(exp.owned(0));
            let d1 = LocalArray::zeros(exp.owned(1));
            e0.export(ts(1.0), &d0).unwrap();
            e1.export(ts(1.0), &d1).unwrap();
            let mut imp_h = pair.take_import(1, 0, 0);
            let owned = imp.owned(0);
            let importer = std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                let m = imp_h.import(ts(3.0), &mut dest).unwrap();
                assert_eq!(m, None);
            });
            // Rank 0 jumps over the region, making the collective answer
            // NO MATCH while rank 1's request stays open awaiting help.
            e0.export(ts(5.0), &d0).unwrap();
            importer.join().unwrap();
            drop(e0);
            drop(e1);
            // Shut down immediately: the rep may not have sent rank 1's
            // buddy-help yet. The fixed ordering must deliver it anyway.
            let stats = pair.shutdown().unwrap().stats.remove(0);
            assert_eq!(
                stats[1].buddy_helps, 1,
                "rank 1's buddy-help was dropped at shutdown: {stats:?}"
            );
        }
    }

    /// A general three-program topology: one exported region feeding two
    /// importers with different policies — Figure 2 in miniature.
    #[test]
    fn fanout_topology_runs_end_to_end() {
        use couplink_config::{parse, RegionRef};
        use std::collections::HashMap;

        let config = parse(
            "P0 c0 /bin/p0 2\nP1 c0 /bin/p1 1\nP2 c1 /bin/p2 1\n#\n\
             P0.r1 P1.r1 REGL 2.5\nP0.r1 P2.r3 REGU 2.5\n",
        )
        .unwrap();
        let grid = Extent2::new(8, 8);
        let d2 = Decomposition::row_block(grid, 2).unwrap();
        let d1 = Decomposition::row_block(grid, 1).unwrap();
        let mut bindings = HashMap::new();
        bindings.insert(RegionRef::new("P0", "r1"), d2);
        bindings.insert(RegionRef::new("P1", "r1"), d1);
        bindings.insert(RegionRef::new("P2", "r3"), d1);
        let topo = Topology::from_config(&config, &bindings).unwrap();
        let mut fabric = Fabric::new(topo, FabricOptions::default());

        let mut threads = Vec::new();
        for rank in 0..2 {
            let mut h = fabric.take_export(0, rank, 0);
            let owned = d2.owned(rank);
            threads.push(std::thread::spawn(move || {
                assert_eq!(h.connections(), 2);
                for i in 0..30 {
                    let t = 1.6 + i as f64;
                    let data = LocalArray::from_fn(owned, |_, _| t);
                    let outcomes = h.export(ts(t), &data).unwrap();
                    assert_eq!(outcomes.len(), 2);
                }
            }));
        }
        let mut h1 = fabric.take_import(1, 0, 0);
        let owned1 = d1.owned(0);
        threads.push(std::thread::spawn(move || {
            let mut dest = LocalArray::zeros(owned1);
            // REGL: acceptable region [17.5, 20] → 19.6.
            assert_eq!(h1.import(ts(20.0), &mut dest).unwrap(), Some(ts(19.6)));
            assert_eq!(dest.get(0, 0), 19.6);
        }));
        let mut h2 = fabric.take_import(2, 0, 0);
        let owned2 = d1.owned(0);
        threads.push(std::thread::spawn(move || {
            let mut dest = LocalArray::zeros(owned2);
            // REGU: acceptable region [20, 22.5] → 20.6.
            assert_eq!(h2.import(ts(20.0), &mut dest).unwrap(), Some(ts(20.6)));
            assert_eq!(dest.get(0, 0), 20.6);
        }));
        for t in threads {
            t.join().unwrap();
        }
        let report = fabric.shutdown().unwrap();
        assert_eq!(report.stats.len(), 2);
        for conn_stats in &report.stats {
            assert_eq!(conn_stats.len(), 2);
            for s in conn_stats {
                assert_eq!(s.sends, 1, "{s:?}");
            }
        }
    }
}
