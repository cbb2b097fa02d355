//! Shared scenario drivers for the paper's figure harnesses.
//!
//! The binaries in `src/bin` regenerate every evaluation artifact of the
//! paper (see `EXPERIMENTS.md` at the repository root); the scripted
//! scenarios for Figures 5, 7 and 8 live here so the integration tests can
//! assert their structure and the binaries can print them.

pub mod report;

use couplink_layout::{Decomposition, Extent2};
use couplink_proto::{ConnectionId, ExportPort, RepAnswer, RequestId, Trace};
use couplink_runtime::{
    CostModel, ExportSchedule, ImportSchedule, Knobs, RunSpec, Topology, TopologySim,
};
use couplink_time::{ts, MatchPolicy, Timestamp, Tolerance};

/// Drives the paper's **Figure 5** scenario on the DES runtime and returns
/// the event trace the runtime recorded on the slow exporter process: REGL
/// with tolerance 2.5; the slow process exports at `1.6, 2.6, …`; the
/// requests for `D@20` and `D@40` each arrive after 14 local exports of the
/// corresponding window, and buddy-help announces the match (`19.6`, then
/// `39.6`) before the process reaches it.
///
/// Unlike the seed's hand-scripted port driving, the trace here is emitted
/// by the shared coupling engine while an actual coupled pair runs: three
/// fast exporter processes resolve each request immediately (they are the
/// buddy-help senders), and the timing of the importer's compute phase puts
/// each request exactly 14 exports into the slow rank's window.
pub fn figure5_trace() -> Trace {
    let grid = Extent2::new(8, 8);
    let slow = 3;
    let tolerance = Tolerance::new(2.5).expect("valid tolerance");
    let spec = RunSpec {
        topology: Topology::pair(
            Decomposition::block_2d(grid, 2, 2).expect("4-proc decomposition"),
            Decomposition::row_block(grid, 1).expect("1-proc decomposition"),
            MatchPolicy::RegL,
            tolerance,
        )
        .expect("both programs decompose the grid"),
        exports: vec![ExportSchedule {
            program: "exporter".into(),
            region: "r".into(),
            t0: 1.6,
            dt: 1.0,
            count: 40,
            // Three fast ranks finish all 40 exports before the first
            // request and answer it outright; the slow rank takes one
            // virtual second per iteration, so its window position is set
            // by the importer.
            compute: vec![1e-3, 1e-3, 1e-3, 1.0],
        }],
        imports: vec![ImportSchedule {
            program: "importer".into(),
            region: "r".into(),
            t0: 20.0,
            dt: 20.0,
            count: 2,
            // First request lands at ~14.5 virtual seconds: after the slow
            // rank's 14th export (~14.0), before its 15th (~15.0).
            compute: 12.5,
            startup: 2.0,
        }],
        knobs: Knobs {
            traces: vec![(0, slow, ConnectionId(0))],
            ..Knobs::default()
        },
    };
    let sim =
        TopologySim::from_spec(spec, CostModel::default()).expect("valid figure 5 configuration");
    let report = sim.run().expect("figure 5 scenario runs to completion");
    let (_, rank, _, trace) = report
        .traces
        .into_iter()
        .next()
        .expect("trace was enabled on the slow rank");
    assert_eq!(rank, slow);
    trace
}

/// Result of a Figure 7/8 run: the trace plus the memcpy/skip tally.
#[derive(Debug)]
pub struct Fig78Run {
    /// The recorded trace.
    pub trace: Trace,
    /// Export calls that copied.
    pub copied: usize,
    /// Export calls that skipped the copy.
    pub skipped: usize,
    /// Unnecessary in-region memcpys (the paper's `T_i` count).
    pub unnecessary_in_region: u64,
}

/// Drives the **Figure 7 / Figure 8** scenario: REGL with tolerance 5.0,
/// exports at `1.6, 2.6, …, 11.6`, one request for `D@10.0` arriving after
/// three exports. With `buddy_help` the final answer (`D@9.6`) reaches the
/// process right after its PENDING reply (Figure 7); without, the process
/// resolves the match locally at the first export past the region
/// (Figure 8).
pub fn figure78_run(buddy_help: bool) -> Fig78Run {
    let mut port = ExportPort::new(
        ConnectionId(0),
        MatchPolicy::RegL,
        Tolerance::new(5.0).expect("valid tolerance"),
    );
    let mut trace = Trace::new();
    let export = |port: &mut ExportPort, trace: &mut Trace, t: f64| {
        let fx = port.on_export(ts(t)).expect("scripted exports are legal");
        trace.record_export(ts(t), &fx);
    };
    for i in 1..=3 {
        export(&mut port, &mut trace, i as f64 + 0.6);
    }
    let fx = port.on_request(RequestId(0), ts(10.0)).expect("request");
    trace.record_request(ts(10.0), &fx);
    if buddy_help {
        let hfx = port
            .on_buddy_help(RequestId(0), RepAnswer::Match(ts(9.6)))
            .expect("buddy-help");
        trace.record_buddy_help(ts(10.0), RequestId(0), RepAnswer::Match(ts(9.6)), &hfx);
    }
    for i in 4..=11 {
        export(&mut port, &mut trace, i as f64 + 0.6);
    }
    let (copied, skipped) = trace.export_counts();
    Fig78Run {
        trace,
        copied,
        skipped,
        unnecessary_in_region: port.stats().t_ub_in_region_count(),
    }
}

/// The §5 ablation configuration: a 256×256 array from 2×2 exporter
/// quadrants to a fast 16-process importer, with the match policy,
/// tolerance, request period and buddy-help under study as knobs. `exports`
/// scales the run length (the paper-scale sweep uses 601; the bench smoke
/// report uses a shorter run), with one import per `import_dt` exports.
pub fn ablation_config(
    policy: MatchPolicy,
    tolerance: f64,
    import_dt: f64,
    buddy_help: bool,
    exports: usize,
) -> RunSpec {
    let grid = Extent2::new(256, 256);
    let horizon = exports.saturating_sub(1) as f64;
    RunSpec {
        topology: Topology::pair(
            Decomposition::block_2d(grid, 2, 2).expect("2x2 quadrants"),
            Decomposition::row_block(grid, 16).expect("16 row blocks"),
            policy,
            Tolerance::new(tolerance).expect("valid tolerance"),
        )
        .expect("both programs decompose the grid"),
        exports: vec![ExportSchedule {
            program: "exporter".into(),
            region: "r".into(),
            t0: 1.6,
            dt: 1.0,
            count: exports,
            compute: vec![1.0e-3, 1.0e-3, 1.0e-3, 2.0e-3],
        }],
        imports: vec![ImportSchedule {
            program: "importer".into(),
            region: "r".into(),
            t0: import_dt,
            dt: import_dt,
            count: ((horizon / import_dt) as usize).clamp(1, 120),
            compute: 3.0e-3,
            startup: 20.0e-3,
        }],
        knobs: Knobs {
            buddy_help,
            ..Knobs::default()
        },
    }
}

/// A synthetic disjoint-region workload for validating Equations (1)–(2):
/// `n_regions` requests at `x_j = 100·(j+1)` with the given tolerance and
/// `exports_per_unit` exports per time unit. Returns
/// `(measured unnecessary per region, closed-form n(i) − 1 per region)`.
pub fn equation_workload(
    n_regions: usize,
    tolerance: f64,
    exports_per_unit: usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut port = ExportPort::new(
        ConnectionId(0),
        MatchPolicy::RegL,
        Tolerance::new(tolerance).expect("valid tolerance"),
    );
    let dt = 1.0 / exports_per_unit as f64;
    let mut t = dt;
    let mut exports: Vec<Timestamp> = Vec::new();
    let horizon = 100.0 * n_regions as f64 + 50.0;
    while t < horizon {
        let stamp = ts(t);
        port.on_export(stamp).expect("export");
        exports.push(stamp);
        t += dt;
        // Requests arrive late (after the region has been fully exported),
        // the worst case for buffering: every in-region candidate is copied.
        let region_count = (t / 100.0).floor() as usize;
        for j in port.stats().requests as usize..region_count.min(n_regions) {
            let x = 100.0 * (j + 1) as f64;
            port.on_request(RequestId(j as u64), ts(x))
                .expect("request");
        }
    }
    let mut measured = port.stats().unnecessary_by_request.clone();
    measured.resize(n_regions, 0);
    // Closed form: n(i) − 1 objects per region, where n(i) is the number of
    // exports inside [x − tol, x].
    let closed: Vec<u64> = (0..n_regions)
        .map(|j| {
            let x = 100.0 * (j + 1) as f64;
            let n = exports
                .iter()
                .filter(|e| e.value() >= x - tolerance && e.value() <= x)
                .count() as u64;
            n.saturating_sub(1)
        })
        .collect();
    (measured, closed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure5_skip_counts_grow() {
        let trace = figure5_trace();
        let (copied, skipped) = trace.export_counts();
        // 14 + 12 + 1 + 1 + 2 copies; 4 + 7 skips (the paper's growth 4→7).
        assert_eq!(skipped, 11);
        assert_eq!(copied, 40 - 11);
    }

    #[test]
    fn figure7_only_match_copied_in_region() {
        let run = figure78_run(true);
        assert_eq!(run.unnecessary_in_region, 0);
        assert_eq!(run.skipped, 5); // 4.6 .. 8.6
    }

    #[test]
    fn figure8_buffers_every_candidate() {
        let run = figure78_run(false);
        assert_eq!(run.unnecessary_in_region, 4); // 5.6 .. 8.6
        assert_eq!(run.skipped, 1); // only 4.6, below the region
    }

    #[test]
    fn equation_counts_match_closed_form() {
        let (measured, closed) = equation_workload(5, 2.5, 2);
        assert_eq!(measured, closed);
        assert!(closed.iter().all(|&c| c > 0), "{closed:?}");
    }
}
