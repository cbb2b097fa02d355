//! Deterministic discrete-event simulation of one exporter→importer coupled
//! pair — the configuration behind every Figure-4 style experiment.
//!
//! The simulated world matches the paper's micro-benchmark: an exporting
//! program with `E` processes (one of which may be artificially slowed — the
//! paper's `p_s`), an importing program with `I` processes, one connection
//! with a match policy and tolerance, and strictly periodic export/import
//! timestamp schedules. Compute phases advance the virtual clock by
//! configurable per-rank amounts; framework buffering charges
//! `CostModel::memcpy_time` for the process's piece of the distributed
//! array; control and data messages incur latency/bandwidth costs.
//!
//! Since the engine extraction this type is a thin adapter: it builds the
//! two-program [`crate::engine::Topology`] and runs it on the generic
//! [`crate::des::topo::TopologySim`], whose event schedule for pair
//! topologies is identical to the original hand-written pair loop. The
//! simulation is fully deterministic: same configuration, same report.

use crate::cost::CostModel;
use crate::des::topo::{ExportSchedule, ImportSchedule, SimError, TopologyConfig, TopologySim};
use crate::engine::{ActionKind, Topology, TopologyError};
use couplink_layout::Decomposition;
use couplink_metrics::MetricsSnapshot;
use couplink_proto::{ConnectionId, Trace};
use couplink_time::{MatchPolicy, Tolerance};
use serde::{Deserialize, Serialize};

/// Configuration of a coupled-pair simulation.
#[derive(Debug, Clone)]
pub struct CoupledConfig {
    /// How the exported array is decomposed over the exporting program.
    pub exporter_decomp: Decomposition,
    /// How the same array is decomposed over the importing program.
    pub importer_decomp: Decomposition,
    /// Match policy of the connection.
    pub policy: MatchPolicy,
    /// Tolerance (the paper's "precision").
    pub tolerance: f64,
    /// Whether the buddy-help optimization is enabled.
    pub buddy_help: bool,
    /// Number of export iterations each exporter process performs.
    pub exports: usize,
    /// Timestamp of export `i` is `export_t0 + i * export_dt`.
    pub export_t0: f64,
    /// Export timestamp step.
    pub export_dt: f64,
    /// Number of import iterations each importer process performs.
    pub imports: usize,
    /// Timestamp of import `j` is `import_t0 + j * import_dt`.
    pub import_t0: f64,
    /// Import timestamp step.
    pub import_dt: f64,
    /// Per-rank compute seconds per exporter iteration (index = rank).
    pub exporter_compute: Vec<f64>,
    /// Compute seconds per importer iteration (same for all ranks).
    pub importer_compute: f64,
    /// One-time importer startup cost before its first iteration
    /// (framework/data-structure initialization — the paper's §5 notes its
    /// effect on early iterations). Determines how large a head start the
    /// exporter has before the request stream begins.
    pub importer_startup: f64,
    /// Operation costs.
    pub cost: CostModel,
    /// Per-process framework buffer capacity in objects (`None` =
    /// unbounded, the paper's setting). With a bound, an exporter process
    /// stalls when its buffer is full and resumes when control traffic
    /// frees space — the §6 finite-buffer-space scenario.
    pub buffer_capacity: Option<usize>,
}

/// Results of a coupled-pair run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CoupledReport {
    /// Per exporter rank: seconds charged to each export call (the Figure 4
    /// y-axis for the slowest rank).
    pub export_time_series: Vec<Vec<f64>>,
    /// Per exporter rank: what each export call did.
    pub action_series: Vec<Vec<ActionKind>>,
    /// Per exporter rank: final port statistics.
    pub stats: Vec<couplink_proto::ExportStats>,
    /// Per importer rank: completed import iterations.
    pub importer_done: Vec<usize>,
    /// Virtual time at which the last event executed.
    pub duration: f64,
    /// The export/import timestamp schedule of the run (used to convert
    /// request indices to export iterations).
    pub schedule: Schedule,
    /// Per exporter rank, per request: the rank's export-iteration count at
    /// the moment the forwarded request arrived (phase diagnostics — how far
    /// ahead of the slow process the request stream runs).
    pub request_arrival_iter: Vec<Vec<usize>>,
    /// Event traces collected for ranks enabled via
    /// [`CoupledSim::trace_rank`], as `(rank, trace)` pairs.
    pub traces: Vec<(usize, Trace)>,
    /// End-of-run engine instrumentation. The counter half is deterministic:
    /// two runs of the same configuration produce identical values.
    pub metrics: MetricsSnapshot,
}

/// The timestamp schedule a coupled run used.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Schedule {
    /// Timestamp of export `i` is `export_t0 + i * export_dt`.
    pub export_t0: f64,
    /// Export timestamp step.
    pub export_dt: f64,
    /// Timestamp of import `j` is `import_t0 + j * import_dt`.
    pub import_t0: f64,
    /// Import timestamp step.
    pub import_dt: f64,
    /// Connection tolerance.
    pub tolerance: f64,
    /// Total imports of the run.
    pub imports: usize,
}

impl CoupledReport {
    /// The paper's *optimal state* entry point for `rank`, in export
    /// iterations: from this iteration on, every acceptable region buffers
    /// only its match (`T_i = 0`, Figure 6). Exports *between* regions are
    /// still buffered-and-pruned even in the optimal state (the next
    /// request's region is unknowable; see Figure 5 lines 17–20) and do not
    /// count, exactly like the paper's Equation (1), which only sums objects
    /// located inside acceptable regions. `None` if the run never settles.
    pub fn optimal_entry(&self, rank: usize) -> Option<usize> {
        let req = self.optimal_entry_request(rank)?;
        // The first export iteration inside (or after) that request's
        // acceptable region.
        let sched = &self.schedule;
        let region_lo = sched.import_t0 + req as f64 * sched.import_dt - sched.tolerance;
        let iter = ((region_lo - sched.export_t0) / sched.export_dt).ceil();
        Some(iter.max(0.0) as usize)
    }

    /// The first request index from which no acceptable region suffers
    /// unnecessary buffering on `rank` (`T_i = 0` for all later requests).
    pub fn optimal_entry_request(&self, rank: usize) -> Option<usize> {
        let per_req = &self.stats[rank].unnecessary_by_request;
        // Requests beyond the recorded vector had zero unnecessary copies.
        let last_bad = per_req.iter().rposition(|&n| n > 0);
        match last_bad {
            None => Some(0),
            // The run must prove at least one later region stayed clean.
            Some(i) if i + 1 < self.schedule.imports => Some(i + 1),
            Some(_) => None,
        }
    }

    /// Mean export-call time for `rank` over the closed iteration window.
    pub fn mean_export_time(&self, rank: usize, from: usize, to: usize) -> f64 {
        let s = &self.export_time_series[rank];
        let to = to.min(s.len());
        if from >= to {
            return 0.0;
        }
        s[from..to].iter().sum::<f64>() / (to - from) as f64
    }
}

/// The coupled-pair simulator. Construct with [`CoupledSim::new`], run with
/// [`CoupledSim::run`].
pub struct CoupledSim {
    cfg: CoupledConfig,
    topo: Topology,
    trace_ranks: Vec<usize>,
}

impl CoupledSim {
    /// Builds the simulation, validating the configuration.
    pub fn new(cfg: CoupledConfig) -> Result<Self, SimError> {
        let ne = cfg.exporter_decomp.procs();
        if cfg.exporter_compute.len() != ne {
            return Err(SimError::Config(format!(
                "exporter_compute has {} entries for {} processes",
                cfg.exporter_compute.len(),
                ne
            )));
        }
        if cfg.export_dt <= 0.0 || cfg.import_dt <= 0.0 {
            return Err(SimError::Config("timestamp steps must be positive".into()));
        }
        let tol = Tolerance::new(cfg.tolerance)?;
        let topo = Topology::pair(cfg.exporter_decomp, cfg.importer_decomp, cfg.policy, tol)
            .map_err(|e| match e {
                TopologyError::Layout(msg) => SimError::Config(msg),
                other => SimError::Config(other.to_string()),
            })?;
        Ok(CoupledSim {
            cfg,
            topo,
            trace_ranks: Vec::new(),
        })
    }

    /// Enables Figure-5 style event tracing for one exporter rank. The
    /// recorded trace appears in [`CoupledReport::traces`].
    pub fn trace_rank(&mut self, rank: usize) -> &mut Self {
        self.trace_ranks.push(rank);
        self
    }

    /// Runs to completion and returns the report.
    pub fn run(self) -> Result<CoupledReport, SimError> {
        let cfg = &self.cfg;
        let mut sim = TopologySim::new(TopologyConfig {
            topology: self.topo.clone(),
            exports: vec![ExportSchedule {
                program: "exporter".into(),
                region: "r".into(),
                t0: cfg.export_t0,
                dt: cfg.export_dt,
                count: cfg.exports,
                compute: cfg.exporter_compute.clone(),
            }],
            imports: vec![ImportSchedule {
                program: "importer".into(),
                region: "r".into(),
                t0: cfg.import_t0,
                dt: cfg.import_dt,
                count: cfg.imports,
                compute: cfg.importer_compute,
                startup: cfg.importer_startup,
            }],
            buddy_help: cfg.buddy_help,
            cost: cfg.cost,
            buffer_capacity: cfg.buffer_capacity,
            hierarchical: false,
        })?;
        for &rank in &self.trace_ranks {
            sim.trace("exporter", rank, ConnectionId(0))?;
        }
        let rep = sim.run()?;

        let series = &rep.export_series[0];
        let ne = cfg.exporter_decomp.procs();
        let stats = rep.stats.into_iter().next().expect("one connection");
        Ok(CoupledReport {
            export_time_series: series.times.clone(),
            action_series: series
                .actions
                .iter()
                .map(|calls| calls.iter().map(|per_conn| per_conn[0].1).collect())
                .collect(),
            stats,
            importer_done: rep
                .import_done
                .into_iter()
                .next()
                .expect("one import drive"),
            duration: rep.duration,
            schedule: Schedule {
                export_t0: cfg.export_t0,
                export_dt: cfg.export_dt,
                import_t0: cfg.import_t0,
                import_dt: cfg.import_dt,
                tolerance: cfg.tolerance,
                imports: cfg.imports,
            },
            request_arrival_iter: (0..ne)
                .map(|rank| {
                    series.request_arrivals[rank]
                        .iter()
                        .map(|&(_, iter)| iter)
                        .collect()
                })
                .collect(),
            traces: rep
                .traces
                .into_iter()
                .map(|(_, rank, _, trace)| (rank, trace))
                .collect(),
            metrics: rep.metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_layout::Extent2;

    /// A small but complete coupled run with the paper's timestamp pattern:
    /// exports every 1.0 from 1.6, imports every 20.0 from 20.0, REGL 2.5.
    fn small_config(buddy_help: bool, importer_compute: f64) -> CoupledConfig {
        let e = Extent2::new(64, 64);
        CoupledConfig {
            exporter_decomp: Decomposition::block_2d(e, 2, 2).unwrap(),
            importer_decomp: Decomposition::row_block(e, 4).unwrap(),
            policy: MatchPolicy::RegL,
            tolerance: 2.5,
            buddy_help,
            exports: 101,
            export_t0: 1.6,
            export_dt: 1.0,
            imports: 5,
            import_t0: 20.0,
            import_dt: 20.0,
            exporter_compute: vec![1e-4, 1e-4, 1e-4, 5e-3], // rank 3 is p_s
            importer_compute,
            importer_startup: 0.0,
            cost: CostModel::default(),
            buffer_capacity: None,
        }
    }

    #[test]
    fn run_completes_all_transfers() {
        let report = CoupledSim::new(small_config(true, 1e-3))
            .unwrap()
            .run()
            .unwrap();
        // Every importer rank completed all 5 imports.
        assert_eq!(report.importer_done, vec![5; 4]);
        // Every exporter rank sent exactly 5 matched objects.
        for stats in &report.stats {
            assert_eq!(stats.sends, 5, "{stats:?}");
            assert_eq!(stats.exports, 101);
        }
    }

    #[test]
    fn deterministic_repeat() {
        let a = CoupledSim::new(small_config(true, 1e-3))
            .unwrap()
            .run()
            .unwrap();
        let b = CoupledSim::new(small_config(true, 1e-3))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a.export_time_series, b.export_time_series);
        assert_eq!(a.action_series, b.action_series);
        assert_eq!(a.duration, b.duration);
    }

    #[test]
    fn buddy_help_skips_memcpys_on_slow_rank() {
        let with = CoupledSim::new(small_config(true, 1e-3))
            .unwrap()
            .run()
            .unwrap();
        let without = CoupledSim::new(small_config(false, 1e-3))
            .unwrap()
            .run()
            .unwrap();
        let slow = 3;
        assert!(
            with.stats[slow].skips > without.stats[slow].skips,
            "buddy-help must increase skips: {} vs {}",
            with.stats[slow].skips,
            without.stats[slow].skips
        );
        // The data transferred is identical either way: same sends.
        assert_eq!(with.stats[slow].sends, without.stats[slow].sends);
    }

    #[test]
    fn fast_importer_reaches_optimal_state() {
        // A fast importer queries ahead of the slow exporter: after warm-up
        // the slow rank should only skip or copy-send (optimal state).
        let report = CoupledSim::new(small_config(true, 1e-4))
            .unwrap()
            .run()
            .unwrap();
        let slow = 3;
        let entry = report.optimal_entry(slow);
        assert!(entry.is_some(), "never entered the optimal state");
        assert!(entry.unwrap() < 90, "optimal state too late: {:?}", entry);
    }

    #[test]
    fn slow_importer_buffers_everything() {
        // When the importer lags far behind, requests arrive long after the
        // exports they match: nearly every export must be buffered
        // (Figure 4(a) flat profile).
        let mut cfg = small_config(true, 1.0); // importer takes 1 s per iter
        cfg.imports = 2;
        let report = CoupledSim::new(cfg).unwrap().run().unwrap();
        let slow = 3;
        let copies = report.action_series[slow]
            .iter()
            .filter(|a| **a == ActionKind::Copy)
            .count();
        assert!(
            copies > 90,
            "expected nearly all 101 exports copied, got {copies}"
        );
    }

    #[test]
    fn bad_config_rejected() {
        let mut cfg = small_config(true, 1e-3);
        cfg.exporter_compute.pop();
        assert!(matches!(CoupledSim::new(cfg), Err(SimError::Config(_))));
        let mut cfg = small_config(true, 1e-3);
        cfg.export_dt = 0.0;
        assert!(matches!(CoupledSim::new(cfg), Err(SimError::Config(_))));
    }

    #[test]
    fn export_series_lengths_match_iterations() {
        let report = CoupledSim::new(small_config(true, 1e-3))
            .unwrap()
            .run()
            .unwrap();
        for rank in 0..4 {
            assert_eq!(report.export_time_series[rank].len(), 101);
            assert_eq!(report.action_series[rank].len(), 101);
        }
    }

    #[test]
    fn bounded_buffer_stalls_exporter_until_requests_free_space() {
        // Capacity 4 with a slow importer: the exporter fills its buffer
        // and stalls; each request prunes the buffer and lets it continue.
        let mut cfg = small_config(true, 5e-2);
        cfg.buffer_capacity = Some(4);
        let report = CoupledSim::new(cfg).unwrap().run().unwrap();
        // All transfers still complete, correctness is unaffected.
        assert_eq!(report.importer_done, vec![5; 4]);
        for stats in &report.stats {
            assert_eq!(stats.sends, 5);
            assert!(stats.buffer_full_stalls > 0, "{stats:?}");
            assert!(stats.buffered_hwm <= 4);
        }
        // The stalls cost real (virtual) time versus the unbounded run.
        let mut unbounded = small_config(true, 5e-2);
        unbounded.buffer_capacity = None;
        let free_run = CoupledSim::new(unbounded).unwrap().run().unwrap();
        assert!(report.duration > free_run.duration);
    }

    #[test]
    fn buddy_help_lowers_peak_buffer_occupancy() {
        // A fast importer with buddy-help keeps the slow rank's buffer
        // nearly empty; without buddy-help every candidate is buffered.
        let with = CoupledSim::new(small_config(true, 1e-4))
            .unwrap()
            .run()
            .unwrap();
        let without = CoupledSim::new(small_config(false, 1e-4))
            .unwrap()
            .run()
            .unwrap();
        let slow = 3;
        assert!(
            with.stats[slow].buffered_hwm <= without.stats[slow].buffered_hwm,
            "{} vs {}",
            with.stats[slow].buffered_hwm,
            without.stats[slow].buffered_hwm
        );
    }

    #[test]
    fn trace_rank_records_the_slow_ranks_events() {
        let mut sim = CoupledSim::new(small_config(true, 1e-3)).unwrap();
        sim.trace_rank(3);
        let report = sim.run().unwrap();
        assert_eq!(report.traces.len(), 1);
        let (rank, trace) = &report.traces[0];
        assert_eq!(*rank, 3);
        let (copied, skipped) = trace.export_counts();
        assert_eq!(copied + skipped, 101, "one trace line per export call");
        assert_eq!(copied as u64, report.stats[3].memcpys);
        assert_eq!(skipped as u64, report.stats[3].skips);
    }
}
