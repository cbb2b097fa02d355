//! The one file that names program types.
//!
//! Everything else in the benchmark speaks its own vocabulary ([`Coupling`],
//! [`Proc`], [`Counters`], …); this file translates it to the program's
//! public entry points — `Fabric`, `couplink::SessionBuilder`,
//! `des::TopologySim`, `net::run_plan` — and, in [`layers`], to the public
//! entry points of single layers. When the program's API is simplified,
//! this is the file that follows.

use crate::oracle::{Policy, Rect, Series};
use crate::trace::{Recorder, SpanId};
use couplink::SessionBuilder;
use couplink_config::RegionRef;
use couplink_layout::{Decomposition, Extent2, LocalArray};
use couplink_metrics::{CounterSnapshot, MetricsSnapshot, Phase};
use couplink_proto::ExportStats;
use couplink_runtime::des::topo::{ExportSchedule, ImportSchedule, TopologyConfig, TopologySim};
use couplink_runtime::net::{run_plan, ExportSpec, ImportSpec, NetOptions, NodePlan};
use couplink_runtime::threaded::{ExportAccess, Fabric, FabricOptions, ImportAccess};
use couplink_runtime::{CostModel, Topology};
use couplink_time::{ts, MatchPolicy};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The program's JSON module, for the report round-trip.
pub mod json {
    pub use couplink_metrics::json::{emit, parse, Value};
}

// --- what is coupled -------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomp {
    Rows,
    Cols,
    Blocks { rows: usize, cols: usize },
}

#[derive(Debug, Clone)]
pub struct Program {
    pub name: &'static str,
    pub procs: usize,
}

/// One program's view of a region: how it decomposes the global grid.
#[derive(Debug, Clone)]
pub struct Region {
    pub program: &'static str,
    pub name: &'static str,
    pub decomp: Decomp,
}

#[derive(Debug, Clone)]
pub struct Link {
    pub from: (&'static str, &'static str),
    pub to: (&'static str, &'static str),
    pub policy: Policy,
    pub tol: f64,
}

/// A coupled deployment: programs, the regions they bind, and the
/// connections between them. Each program exports at most one region and
/// imports at most one, so a process needs no region argument.
#[derive(Debug, Clone)]
pub struct Coupling {
    pub grid: (usize, usize),
    pub programs: Vec<Program>,
    pub regions: Vec<Region>,
    pub links: Vec<Link>,
    pub buddy_help: bool,
}

impl Coupling {
    /// The Figure-2 style configuration text the program parses.
    pub fn config_text(&self) -> String {
        let mut text = String::new();
        for p in &self.programs {
            text.push_str(&format!("{0} c0 /bin/{0} {1}\n", p.name, p.procs));
        }
        text.push_str("#\n");
        for l in &self.links {
            text.push_str(&format!(
                "{}.{} {}.{} {} {}\n",
                l.from.0,
                l.from.1,
                l.to.0,
                l.to.1,
                l.policy.as_str(),
                l.tol
            ));
        }
        text
    }

    fn procs(&self, program: &str) -> usize {
        self.programs
            .iter()
            .find(|p| p.name == program)
            .map_or(0, |p| p.procs)
    }

    fn decomposition(&self, region: &Region) -> Result<Decomposition, String> {
        decomposition(self.grid, region.decomp, self.procs(region.program))
            .map_err(|e| format!("{}.{}: {e}", region.program, region.name))
    }

    /// Every bound region's decomposition, as the program keys them.
    fn bindings(&self) -> Result<HashMap<RegionRef, Decomposition>, String> {
        self.regions
            .iter()
            .map(|r| Ok((RegionRef::new(r.program, r.name), self.decomposition(r)?)))
            .collect()
    }

    fn region(&self, program: &str, name: &str) -> Option<&Region> {
        self.regions
            .iter()
            .find(|r| r.program == program && r.name == name)
    }

    /// The rectangle each rank of `program` owns of region `name`.
    pub fn owned(&self, program: &str, name: &str) -> Result<Vec<Rect>, String> {
        let region = self
            .region(program, name)
            .ok_or_else(|| format!("{program}.{name} is not bound"))?;
        let d = self.decomposition(region)?;
        Ok((0..d.procs()).map(|rank| to_rect(d.owned(rank))).collect())
    }

    /// The region `program` exports / imports, if any.
    pub fn exported(&self, program: &str) -> Option<&'static str> {
        self.links
            .iter()
            .find(|l| l.from.0 == program)
            .map(|l| l.from.1)
    }

    pub fn imported(&self, program: &str) -> Option<&'static str> {
        self.links
            .iter()
            .find(|l| l.to.0 == program)
            .map(|l| l.to.1)
    }
}

fn decomposition(
    grid: (usize, usize),
    decomp: Decomp,
    procs: usize,
) -> Result<Decomposition, String> {
    let extent = Extent2::new(grid.0, grid.1);
    match decomp {
        Decomp::Rows => Decomposition::row_block(extent, procs),
        Decomp::Cols => Decomposition::col_block(extent, procs),
        Decomp::Blocks { rows, cols } => Decomposition::block_2d(extent, rows, cols),
    }
    .map_err(|e| e.to_string())
}

fn to_rect(r: couplink_layout::Rect) -> Rect {
    Rect {
        row0: r.row0,
        col0: r.col0,
        rows: r.rows,
        cols: r.cols,
    }
}

fn from_rect(r: Rect) -> couplink_layout::Rect {
    couplink_layout::Rect::new(r.row0, r.col0, r.rows, r.cols)
}

fn match_policy(p: Policy) -> MatchPolicy {
    match p {
        Policy::RegL => MatchPolicy::RegL,
        Policy::RegU => MatchPolicy::RegU,
        Policy::Reg => MatchPolicy::Reg,
    }
}

/// One process's piece of a region.
pub struct Piece(LocalArray);

impl Piece {
    pub fn zeros(rect: Rect) -> Self {
        Piece(LocalArray::zeros(from_rect(rect)))
    }

    pub fn rect(&self) -> Rect {
        to_rect(self.0.owned())
    }

    pub fn data(&self) -> &[f64] {
        self.0.as_slice()
    }

    pub fn data_mut(&mut self) -> &mut [f64] {
        self.0.as_mut_slice()
    }
}

// --- a live in-process session ---------------------------------------------

/// One process's framework calls.
pub trait Proc: Send {
    fn export(&mut self, t: f64, data: &Piece) -> Result<(), String>;
    /// The matched timestamp, or `None` for NO MATCH.
    fn import(&mut self, t: f64, dest: &mut Piece) -> Result<Option<f64>, String>;
}

struct FabricProc {
    export: Option<ExportAccess>,
    import: Option<ImportAccess>,
}

impl Proc for FabricProc {
    fn export(&mut self, t: f64, data: &Piece) -> Result<(), String> {
        let h = self.export.as_mut().ok_or("process exports nothing")?;
        h.export(ts(t), &data.0)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn import(&mut self, t: f64, dest: &mut Piece) -> Result<Option<f64>, String> {
        let h = self.import.as_mut().ok_or("process imports nothing")?;
        h.import(ts(t), &mut dest.0)
            .map(|m| m.map(|m| m.value()))
            .map_err(|e| e.to_string())
    }
}

struct SessionProc {
    handle: couplink::ProcessHandle,
    export: Option<&'static str>,
    import: Option<&'static str>,
}

impl Proc for SessionProc {
    fn export(&mut self, t: f64, data: &Piece) -> Result<(), String> {
        let name = self.export.ok_or("process exports nothing")?;
        let region = self.handle.export_region(name).map_err(|e| e.to_string())?;
        region
            .export(ts(t), &data.0)
            .map(drop)
            .map_err(|e| e.to_string())
    }

    fn import(&mut self, t: f64, dest: &mut Piece) -> Result<Option<f64>, String> {
        let name = self.import.ok_or("process imports nothing")?;
        let region = self.handle.import_region(name).map_err(|e| e.to_string())?;
        region
            .import(ts(t), &mut dest.0)
            .map(|m| m.map(|m| m.value()))
            .map_err(|e| e.to_string())
    }
}

/// Which public entry point builds the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Topology::from_config` + `Fabric::new`: the runtime's own API, which
    /// hands back its `MetricsSnapshot` at shutdown.
    Fabric,
    /// `couplink::SessionBuilder`: the application-facing API. Its shutdown
    /// returns port statistics only, so engine counters read 0 here.
    Session,
}

enum LiveInner {
    Fabric(Fabric),
    Session(couplink::Session),
}

/// A built session with every process handle ready to be driven.
pub struct Live {
    inner: LiveInner,
    procs: Vec<Vec<Option<Box<dyn Proc>>>>,
}

impl Live {
    /// Builds `coupling` through `engine`, recording the set-up spans under
    /// `parent`.
    pub fn build(
        coupling: &Coupling,
        engine: Engine,
        rec: &Recorder,
        parent: SpanId,
    ) -> Result<Live, String> {
        let text = coupling.config_text();
        let config = rec
            .within("config.parse", parent, |_| couplink_config::parse(&text))
            .map_err(|e| format!("config: {e}"))?;
        let bindings = coupling.bindings()?;
        match engine {
            Engine::Fabric => {
                // Dominated by one `RedistPlan::build` per connection.
                let topo = rec
                    .within("layout.plan_build", parent, |_| {
                        Topology::from_config(&config, &bindings)
                    })
                    .map_err(|e| format!("topology: {e}"))?;
                let open = rec.open("threaded.fabric_build", parent);
                let mut fabric = Fabric::new(
                    topo,
                    FabricOptions {
                        buddy_help: coupling.buddy_help,
                        ..Default::default()
                    },
                );
                let procs = coupling
                    .programs
                    .iter()
                    .enumerate()
                    .map(|(p, prog)| {
                        (0..prog.procs)
                            .map(|rank| {
                                let export = coupling
                                    .exported(prog.name)
                                    .map(|_| fabric.take_export(p, rank, 0));
                                let import = coupling
                                    .imported(prog.name)
                                    .map(|_| fabric.take_import(p, rank, 0));
                                Some(Box::new(FabricProc { export, import }) as Box<dyn Proc>)
                            })
                            .collect()
                    })
                    .collect();
                rec.close(open);
                Ok(Live {
                    inner: LiveInner::Fabric(fabric),
                    procs,
                })
            }
            Engine::Session => {
                let open = rec.open("core.session_build", parent);
                let mut builder = SessionBuilder::new(config).buddy_help(coupling.buddy_help);
                for (r, d) in &bindings {
                    builder = builder.bind(&r.program, &r.region, *d);
                }
                let mut session = builder.build().map_err(|e| format!("session: {e}"))?;
                let mut procs = Vec::new();
                for prog in &coupling.programs {
                    let mut handles = session
                        .take_program(prog.name)
                        .map_err(|e| format!("session: {e}"))?;
                    procs.push(
                        (0..prog.procs)
                            .map(|rank| {
                                Some(Box::new(SessionProc {
                                    handle: handles.take_process(rank),
                                    export: coupling.exported(prog.name),
                                    import: coupling.imported(prog.name),
                                }) as Box<dyn Proc>)
                            })
                            .collect(),
                    );
                }
                rec.close(open);
                Ok(Live {
                    inner: LiveInner::Session(session),
                    procs,
                })
            }
        }
    }

    /// Takes the handle of process `rank` of program `prog` (once).
    pub fn take(&mut self, prog: usize, rank: usize) -> Box<dyn Proc> {
        self.procs[prog][rank]
            .take()
            .expect("process handle taken once")
    }

    /// Stops the session. Call after every handle was dropped.
    pub fn shutdown(self) -> Result<Counters, String> {
        let Live { inner, procs } = self;
        drop(procs);
        match inner {
            LiveInner::Fabric(f) => {
                let report = f.shutdown().map_err(|e| e.to_string())?;
                Ok(Counters::from_snapshot(&report.metrics, &report.stats))
            }
            LiveInner::Session(s) => {
                let stats = s.shutdown().map_err(|e| e.to_string())?;
                Ok(Counters {
                    ports: ports_of(&stats),
                    ..Default::default()
                })
            }
        }
    }
}

// --- counters, in the benchmark's vocabulary -------------------------------

/// One exporter rank's port statistics on one connection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PortStats {
    pub exports: u64,
    pub memcpys: u64,
    pub skips: u64,
    pub sends: u64,
    pub buddy_helps: u64,
    pub buffered_hwm: u64,
    pub stalls: u64,
    pub unnecessary_in_region: u64,
    /// Per request: unnecessary copies inside its acceptable region.
    pub unnecessary_by_request: Vec<u64>,
}

fn ports_of(stats: &[Vec<ExportStats>]) -> Vec<Vec<PortStats>> {
    stats
        .iter()
        .map(|conn| {
            conn.iter()
                .map(|s| PortStats {
                    exports: s.exports,
                    memcpys: s.memcpys,
                    skips: s.skips,
                    sends: s.sends,
                    buddy_helps: s.buddy_helps,
                    buffered_hwm: s.buffered_hwm as u64,
                    stalls: s.buffer_full_stalls,
                    unnecessary_in_region: s.t_ub_in_region_count(),
                    unnecessary_by_request: s.unnecessary_by_request.clone(),
                })
                .collect()
        })
        .collect()
}

/// What a run's own instrumentation reported.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Engine counters by their snapshot names; empty when the entry point
    /// does not expose them.
    pub fields: Vec<(String, u64)>,
    /// Seconds inside export / import / ctrl / transfer, wall and virtual.
    pub phase_wall_s: [f64; 4],
    pub phase_virtual_s: [f64; 4],
    /// Upper estimate of the mean executor poll batch, from the program's
    /// 16 power-of-two buckets.
    pub poll_batch_mean: f64,
    /// `[connection][exporter rank]`.
    pub ports: Vec<Vec<PortStats>>,
}

impl Counters {
    fn from_counters(c: &CounterSnapshot, stats: &[Vec<ExportStats>]) -> Self {
        // Bucket `i` holds batches of at most `2^i` messages.
        let polls: u64 = c.poll_batch.iter().sum();
        let msgs: f64 = c
            .poll_batch
            .iter()
            .enumerate()
            .map(|(i, &n)| n as f64 * (1u64 << i) as f64)
            .sum();
        Counters {
            fields: c.fields(),
            poll_batch_mean: if polls == 0 { 0.0 } else { msgs / polls as f64 },
            ports: ports_of(stats),
            ..Default::default()
        }
    }

    fn from_snapshot(m: &MetricsSnapshot, stats: &[Vec<ExportStats>]) -> Self {
        let phases = [Phase::Export, Phase::Import, Phase::Ctrl, Phase::Transfer];
        Counters {
            phase_wall_s: phases.map(|p| m.timing.wall_seconds(p)),
            phase_virtual_s: phases.map(|p| m.timing.virtual_seconds(p)),
            ..Counters::from_counters(&m.counters, stats)
        }
    }

    /// A counter by name; 0 when the run did not expose it.
    pub fn get(&self, name: &str) -> u64 {
        self.fields
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Sum of the counters whose name starts with `prefix`.
    pub fn sum_prefixed(&self, prefix: &str) -> u64 {
        self.fields
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }
}

// --- the socket mesh -------------------------------------------------------

/// One exporter program feeding one importer program over the socket mesh,
/// row blocks on both sides, one export per import, exact-timestamp `REG`.
#[derive(Debug, Clone)]
pub struct SocketPlan {
    pub grid: (usize, usize),
    pub procs: usize,
    pub steps: usize,
    pub t0: f64,
    pub tol: f64,
    /// The importer ranks compare every landed cell with the node's own
    /// generator.
    pub verify_values: bool,
}

impl SocketPlan {
    pub fn series(&self) -> Series {
        Series {
            t0: self.t0,
            dt: 1.0,
            count: self.steps,
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct SocketRun {
    pub wall_s: f64,
    pub counters: Counters,
    /// Importer rank 0's matched timestamps.
    pub matches: Vec<Option<f64>>,
    /// Imports completed, per importer rank.
    pub imports_done: Vec<u64>,
    /// Call errors, shutdown errors and crashed nodes, as text.
    pub errors: Vec<String>,
}

/// The `couplink-node` binary, next to this executable (or from
/// `COUPLINK_NODE_BIN`, as everywhere else in the repository).
pub fn node_bin() -> Option<PathBuf> {
    couplink_runtime::net::default_node_bin()
}

/// Runs one socket session over loopback UDS: spawn, handshake, run, drain.
pub fn run_socket(plan: &SocketPlan, node_bin: &Path) -> Result<SocketRun, String> {
    let node_plan = NodePlan {
        config_text: format!(
            "E0 c0 /bin/e0 {p}\nI0 c0 /bin/i0 {p}\n#\nE0.r I0.m REG {tol}\n",
            p = plan.procs,
            tol = plan.tol
        ),
        grid: plan.grid,
        exports: vec![ExportSpec {
            program: "E0".into(),
            region: 0,
            t0: plan.t0,
            dt: 1.0,
            count: plan.steps,
            compute: vec![0.0; plan.procs],
        }],
        imports: vec![ImportSpec {
            program: "I0".into(),
            region: 0,
            t0: plan.t0,
            dt: 1.0,
            count: plan.steps,
            compute: 0.0,
            startup: 0.0,
        }],
        buddy_help: true,
        import_timeout_s: 30.0,
        time_scale: 1.0,
        verify_values: plan.verify_values,
        traces: Vec::new(),
        chaos: None,
        fault: None,
        hierarchical: false,
        wal_dir: None,
        restart: false,
    };
    let opts = NetOptions {
        deadline: Duration::from_secs(120),
        ..NetOptions::new(node_bin.to_path_buf())
    };
    let start = Instant::now();
    let rep = run_plan(&node_plan, &opts).map_err(|e| format!("bootstrap: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let mut errors = Vec::new();
    errors.extend(rep.crashed.iter().map(|p| format!("node {p} crashed")));
    errors.extend(
        rep.shutdown_errors
            .iter()
            .map(|(p, e)| format!("node {p} shutdown: {e}")),
    );
    errors.extend(
        rep.export_errors
            .iter()
            .map(|(p, r, e)| format!("export {p}/{r}: {e}")),
    );
    errors.extend(
        rep.imports_done
            .iter()
            .filter_map(|(p, r, _, e)| e.as_ref().map(|e| format!("import {p}/{r}: {e}"))),
    );
    Ok(SocketRun {
        wall_s,
        counters: Counters::from_counters(&rep.counters, &rep.stats),
        matches: rep
            .matches
            .first()
            .map(|m| m.iter().map(|t| t.map(|t| t.value())).collect())
            .unwrap_or_default(),
        imports_done: rep.imports_done.iter().map(|d| d.2).collect(),
        errors,
    })
}

// --- the discrete-event simulator ------------------------------------------

/// One panel of the paper's Figure 4 on the simulator: `F` (2×2 quadrants
/// of 1024×1024, rank 3 slow) exports every time unit, `U` (`u_procs` row
/// blocks) imports every 20 with `REGL 2.5`. Costs are the repository's
/// Figure-4 calibration.
#[derive(Debug, Clone)]
pub struct DesPanel {
    pub u_procs: usize,
    pub exports: usize,
    pub imports: usize,
    /// First export timestamp (`1 + phase`).
    pub export_t0: f64,
    pub buddy_help: bool,
}

impl DesPanel {
    pub const SLOW_RANK: usize = 3;
    pub const TOL: f64 = 2.5;

    pub fn export_series(&self) -> Series {
        Series {
            t0: self.export_t0,
            dt: 1.0,
            count: self.exports,
        }
    }

    pub fn import_series(&self) -> Series {
        Series {
            t0: 20.0,
            dt: 20.0,
            count: self.imports,
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesRun {
    pub virtual_total_s: f64,
    /// Mean virtual `export` time of the slow rank, seconds.
    pub virtual_export_slow_s: f64,
    pub counters: Counters,
    pub matches: Vec<Option<f64>>,
    /// Imports completed, per importer rank.
    pub import_done: Vec<usize>,
}

/// A simulator built and ready to run; building it is the DES set-up.
pub struct DesSim(TopologySim);

impl DesSim {
    pub fn build(panel: &DesPanel) -> Result<DesSim, String> {
        let coupling = Coupling {
            grid: (1024, 1024),
            programs: vec![
                Program {
                    name: "F",
                    procs: 4,
                },
                Program {
                    name: "U",
                    procs: panel.u_procs,
                },
            ],
            regions: vec![
                Region {
                    program: "F",
                    name: "force",
                    decomp: Decomp::Blocks { rows: 2, cols: 2 },
                },
                Region {
                    program: "U",
                    name: "force",
                    decomp: Decomp::Rows,
                },
            ],
            links: vec![Link {
                from: ("F", "force"),
                to: ("U", "force"),
                policy: Policy::RegL,
                tol: DesPanel::TOL,
            }],
            buddy_help: panel.buddy_help,
        };
        let config = couplink_config::parse(&coupling.config_text()).map_err(|e| e.to_string())?;
        let topology =
            Topology::from_config(&config, &coupling.bindings()?).map_err(|e| e.to_string())?;
        let imports = panel.import_series();
        TopologySim::new(TopologyConfig {
            topology,
            exports: vec![ExportSchedule {
                program: "F".into(),
                region: "force".into(),
                t0: panel.export_t0,
                dt: 1.0,
                count: panel.exports,
                compute: vec![1.0e-3, 1.0e-3, 1.0e-3, 2.0e-3],
            }],
            imports: vec![ImportSchedule {
                program: "U".into(),
                region: "force".into(),
                t0: imports.t0,
                dt: imports.dt,
                count: imports.count,
                compute: 0.976 / panel.u_procs as f64,
                startup: 1.2 / panel.u_procs as f64,
            }],
            buddy_help: panel.buddy_help,
            cost: CostModel::default(),
            buffer_capacity: None,
            hierarchical: false,
        })
        .map(DesSim)
        .map_err(|e| e.to_string())
    }

    pub fn run(self) -> Result<DesRun, String> {
        let rep = self.0.run().map_err(|e| e.to_string())?;
        let slow = &rep.export_series[0].times[DesPanel::SLOW_RANK];
        Ok(DesRun {
            virtual_total_s: rep.duration,
            virtual_export_slow_s: slow.iter().sum::<f64>() / slow.len().max(1) as f64,
            counters: Counters::from_snapshot(&rep.metrics, &rep.stats),
            matches: rep.matches[0]
                .iter()
                .map(|m| m.map(|m| m.value()))
                .collect(),
            import_done: rep.import_done[0].clone(),
        })
    }
}

// --- single layers ---------------------------------------------------------

/// Public entry points of single layers, each wrapped as a closure that
/// performs one call, so the replay can time it with the workload's own
/// inputs. Nothing here is on a timed pass's path.
pub mod layers {
    use super::{from_rect, match_policy, Decomp, Policy, Rect};
    use couplink_layout::{Decomposition, LocalArray, RedistPlan, SharedArray};
    use couplink_metrics::EngineMetrics;
    use couplink_proto::wire::{self, FrameDecoder, WireRect};
    use couplink_proto::{
        ConnectionId, CtrlMsg, ExportPort, ExporterRep, ImporterRep, ProcResponse, Rank, RepAnswer,
        RequestId,
    };
    use couplink_runtime::net::link::{BufPool, Conn, FrameReader, LinkWriter, Listener};
    use couplink_runtime::net::SocketBackend;
    use couplink_time::{evaluate, ts, ExportHistory, Tolerance};
    use std::hint::black_box;
    use std::path::Path;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn tolerance(tol: f64) -> Tolerance {
        Tolerance::new(tol).expect("finite tolerance")
    }

    /// The program's matcher over an explicit export history: the reference
    /// the closed-form oracle is tested against. `None` while PENDING.
    #[cfg(test)]
    pub fn reference_match(
        policy: Policy,
        tol: f64,
        exports: &[f64],
        x: f64,
    ) -> Option<Option<f64>> {
        let mut history = ExportHistory::new();
        for &t in exports {
            history.record(ts(t)).expect("ascending exports");
        }
        let region = match_policy(policy).region(ts(x), tolerance(tol));
        let result = evaluate(&region, &history).expect("unpruned history");
        result
            .is_decided()
            .then(|| result.matched().map(|m| m.value()))
    }

    /// `time::evaluate` of an exact request against a history `depth` deep.
    pub fn evaluate_call(policy: Policy, tol: f64, depth: usize) -> impl FnMut() {
        let mut history = ExportHistory::new();
        for i in 0..depth.max(1) {
            history.record(ts(1.0 + i as f64)).expect("ascending");
        }
        let region = match_policy(policy).region(ts(depth.max(1) as f64), tolerance(tol));
        move || {
            black_box(evaluate(black_box(&region), &history).expect("evaluates"));
        }
    }

    /// `ExportHistory::record` plus the prune that keeps it `depth` deep.
    pub fn history_record_call(depth: usize) -> impl FnMut() {
        let mut history = ExportHistory::new();
        let mut t = 0.0;
        move || {
            t += 1.0;
            history.record(ts(t)).expect("ascending");
            history.prune_below(ts(t - depth as f64));
            black_box(history.retained());
        }
    }

    /// The export-side buffering copy of one piece, allocation included.
    pub fn copy_from_call(piece: Rect) -> impl FnMut() {
        let src = LocalArray::from_fn(from_rect(piece), |r, c| (r * 31 + c) as f64);
        move || {
            black_box(SharedArray::copy_from(black_box(&src)));
        }
    }

    /// Plain `copy_from_slice` of the same bytes into a buffer that already
    /// exists: the machine reference the framework copies are read against.
    pub fn memcpy_ref_call(piece: Rect) -> impl FnMut() {
        let src = vec![1.25_f64; piece.cells()];
        let mut dst = vec![0.0_f64; piece.cells()];
        move || {
            dst.copy_from_slice(black_box(&src));
            black_box(dst[0]);
        }
    }

    fn decomposition(grid: (usize, usize), (decomp, procs): Side) -> Decomposition {
        super::decomposition(grid, decomp, procs).expect("workload decomposition")
    }

    /// One side of a redistribution: decomposition and process count.
    pub type Side = (Decomp, usize);

    /// `RedistPlan::build` for the workload's two decompositions.
    pub fn plan_build_call(grid: (usize, usize), src: Side, dst: Side) -> impl FnMut() {
        let (s, d) = (decomposition(grid, src), decomposition(grid, dst));
        move || {
            black_box(RedistPlan::build(s, d).expect("plan"));
        }
    }

    /// Importer rank 0's copy-out of every piece it receives for one
    /// import; also returns the bytes one call lands.
    pub fn copy_into_call(grid: (usize, usize), src: Side, dst: Side) -> (impl FnMut(), usize) {
        let (s, d) = (decomposition(grid, src), decomposition(grid, dst));
        let plan = RedistPlan::build(s, d).expect("plan");
        let pieces: Vec<_> = plan
            .recvs_to(0)
            .map(|t| {
                let owned = s.owned(t.src);
                let shared =
                    SharedArray::copy_from(&LocalArray::from_fn(owned, |r, c| (r + c) as f64));
                (t.rect, shared)
            })
            .collect();
        let bytes = pieces.iter().map(|(r, _)| r.cells() * 8).sum();
        let mut dest = LocalArray::zeros(d.owned(0));
        let call = move || {
            for (rect, payload) in &pieces {
                payload.copy_into(rect, &mut dest);
            }
            black_box(dest.as_slice()[0]);
        };
        (call, bytes)
    }

    /// Time inside `ExportPort::on_request` (slot 0) and inside the
    /// `on_export` that buffers and sends (slot 1), for one exactly matched
    /// request.
    pub fn port_lockstep_call(policy: Policy, tol: f64) -> impl FnMut(&mut [Duration; 2]) {
        let mut port = ExportPort::new(ConnectionId(0), match_policy(policy), tolerance(tol));
        let mut k = 0u64;
        move |acc| {
            k += 1;
            let t = ts(k as f64);
            let t0 = Instant::now();
            black_box(port.on_request(RequestId(k), t).expect("request"));
            acc[0] += t0.elapsed();
            let t0 = Instant::now();
            black_box(port.on_export(t).expect("export"));
            acc[1] += t0.elapsed();
        }
    }

    /// `ExportPort::on_export` of an object a known request rules out.
    pub fn port_skip_call() -> impl FnMut() {
        let mut port = ExportPort::new(ConnectionId(0), match_policy(Policy::RegL), tolerance(2.5));
        port.on_request(RequestId(0), ts(1e12))
            .expect("far request");
        let mut t = 0.0;
        move || {
            t += 1.0;
            black_box(port.on_export(ts(t)).expect("export"));
        }
    }

    /// Time inside `ExportPort::on_buddy_help`, in the paper's setting:
    /// the request is PENDING when the final answer arrives, then the
    /// matched object and the one past the request are exported.
    pub fn port_help_call() -> impl FnMut(&mut [Duration; 1]) {
        let mut port = ExportPort::new(ConnectionId(0), match_policy(Policy::RegL), tolerance(2.5));
        let mut k = 0u64;
        move |acc| {
            k += 1;
            let x = 20.0 * k as f64;
            port.on_request(RequestId(k), ts(x)).expect("request");
            let answer = RepAnswer::Match(ts(x - 0.4));
            let t0 = Instant::now();
            black_box(port.on_buddy_help(RequestId(k), answer).expect("help"));
            acc[0] += t0.elapsed();
            port.on_export(ts(x - 0.4)).expect("matched export");
            port.on_export(ts(x + 0.6)).expect("closing export");
        }
    }

    /// One request through `ExporterRep`: the import request plus one
    /// response per process, the first deciding. Returns events per call.
    pub fn exporter_rep_call(procs: usize, buddy_help: bool) -> (impl FnMut(), usize) {
        let mut rep = ExporterRep::new(procs, buddy_help);
        let mut k = 0u64;
        let call = move || {
            k += 1;
            let x = ts(k as f64);
            rep.on_import_request(RequestId(k), x).expect("request");
            for r in 0..procs {
                let resp = ProcResponse::Match(x);
                black_box(
                    rep.on_response(Rank(r as u32), RequestId(k), resp)
                        .expect("response"),
                );
            }
        };
        (call, procs + 1)
    }

    /// One import through `ImporterRep`: a call per process and the answer.
    /// Returns events per call.
    pub fn importer_rep_call(procs: usize) -> (impl FnMut(), usize) {
        let mut rep = ImporterRep::new(procs);
        let mut k = 0u64;
        let call = move || {
            let x = ts(1.0 + k as f64);
            for r in 0..procs {
                black_box(rep.on_import_call(Rank(r as u32), x).expect("call"));
            }
            black_box(
                rep.on_answer(RequestId(k), RepAnswer::Match(x))
                    .expect("answer"),
            );
            k += 1;
        };
        (call, procs + 1)
    }

    /// The counter, gauge and histogram updates one control message costs.
    pub fn metrics_record_call() -> impl FnMut() {
        let m = EngineMetrics::new();
        move || {
            m.export_calls.inc();
            m.queue_depth.add(1);
            m.queue_depth.sub(1);
            m.poll_batch.observe(3);
        }
    }

    pub fn metrics_snapshot_call() -> impl FnMut() {
        let m = EngineMetrics::new();
        move || {
            black_box(m.snapshot());
        }
    }

    pub fn config_parse_call(text: String) -> impl FnMut() {
        move || {
            black_box(couplink_config::parse(black_box(&text)).expect("valid config"));
        }
    }

    /// The frame checksum over `bytes` bytes.
    pub fn crc32_call(bytes: usize) -> impl FnMut() {
        let buf: Vec<u8> = (0..bytes).map(|i| (i * 7) as u8).collect();
        move || {
            black_box(wire::crc32(black_box(&buf)));
        }
    }

    fn wire_rect(r: Rect) -> WireRect {
        WireRect {
            row0: r.row0 as u64,
            col0: r.col0 as u64,
            rows: r.rows as u64,
            cols: r.cols as u64,
        }
    }

    fn payload_frame(piece: Rect, buf: Vec<u8>, data: &[f64]) -> Vec<u8> {
        let r = wire_rect(piece);
        wire::encode_payload_with(buf, ConnectionId(0), Rank(0), RequestId(1), r, r, data)
    }

    /// Encoding one payload piece into a recycled buffer (checksum
    /// included); also returns the frame's size on the wire.
    pub fn encode_payload_call(piece: Rect) -> (impl FnMut(), usize) {
        let data = vec![1.5_f64; piece.cells()];
        let mut buf = payload_frame(piece, Vec::new(), &data);
        let frame_len = buf.len();
        let call = move || {
            let mut recycled = std::mem::take(&mut buf);
            recycled.clear();
            buf = payload_frame(piece, recycled, &data);
            black_box(buf.len());
        };
        (call, frame_len)
    }

    /// Decoding one payload frame body into an owned piece.
    pub fn decode_payload_call(piece: Rect) -> impl FnMut() {
        let frame = payload_frame(piece, Vec::new(), &vec![1.5_f64; piece.cells()]);
        move || {
            black_box(
                wire::decode_payload(black_box(&frame[wire::HEADER_LEN..])).expect("payload"),
            );
        }
    }

    /// The control messages one import puts on the wire between two
    /// programs: the request and its answer.
    fn ctrl_mix() -> [CtrlMsg; 2] {
        [
            CtrlMsg::ImportRequest {
                conn: ConnectionId(0),
                req: RequestId(7),
                ts: ts(8.5),
            },
            CtrlMsg::Answer {
                conn: ConnectionId(0),
                req: RequestId(7),
                answer: RepAnswer::Match(ts(8.5)),
            },
        ]
    }

    /// `encode_ctrl` + `decode_ctrl` of one message. Returns messages per
    /// call.
    pub fn ctrl_codec_call() -> (impl FnMut(), usize) {
        let mix = ctrl_mix();
        let call = move || {
            for msg in &mix {
                let body = wire::encode_ctrl(black_box(msg));
                black_box(wire::decode_ctrl(&body).expect("ctrl"));
            }
        };
        (call, mix.len())
    }

    /// `FrameDecoder` fed a burst of framed control messages and polled
    /// dry. Returns frames per call.
    pub fn decoder_call() -> (impl FnMut(), usize) {
        const BURST: usize = 64;
        let mut bytes = Vec::new();
        for i in 0..BURST {
            let body = wire::encode_ctrl(&ctrl_mix()[i % 2]);
            bytes.extend_from_slice(&wire::encode_frame(wire::KIND_CTRL, &body));
        }
        let mut dec = FrameDecoder::new();
        let call = move || {
            dec.extend(&bytes);
            while let Some(slot) = dec.poll_frame().expect("clean frames") {
                black_box(dec.body(&slot).len());
            }
        };
        (call, BURST)
    }

    /// `BufPool::take` + `put` replaying the frame sizes of one import (one
    /// payload frame per exporter rank, then the control frames). Returns
    /// the closure, takes per call, and a reader of the pool's hit share.
    pub fn bufpool_call(
        payload_frame: usize,
        payload_frames: usize,
    ) -> (impl FnMut(), usize, impl Fn() -> f64) {
        let metrics = Arc::new(EngineMetrics::new());
        let pool = BufPool::new(Some(Arc::clone(&metrics)));
        let mut sizes = vec![payload_frame; payload_frames];
        sizes.extend([64, 64]);
        let takes = sizes.len();
        let call = move || {
            for &cap in &sizes {
                pool.put(black_box(pool.take(cap)));
            }
        };
        let hit_frac = move || {
            let (h, m) = (metrics.net_pool_hits.get(), metrics.net_pool_misses.get());
            h as f64 / (h + m).max(1) as f64
        };
        (call, takes, hit_frac)
    }

    /// `LinkWriter` → loopback UDS → a thread draining a `FrameReader`:
    /// sends `frames` frames of `frame_len` bytes and returns the seconds
    /// until the reader has seen the last one.
    pub fn link_transfer_s(dir: &Path, frame_len: usize, frames: usize) -> Result<f64, String> {
        let io = |e: std::io::Error| format!("link replay: {e}");
        let name = format!("replay-{}", std::process::id());
        let listener = Listener::bind(SocketBackend::Uds, dir, &name).map_err(io)?;
        let addr = listener.addr().map_err(io)?;
        let dial = std::thread::spawn(move || Conn::dial(&addr));
        let rx = listener.accept();
        let tx = dial.join().expect("dial thread");
        // Both ends are connected (or failed): the name can go.
        let _ = std::fs::remove_file(dir.join(format!("{name}.sock")));
        let (rx, tx) = (rx.map_err(io)?, tx.map_err(io)?);
        let body = vec![0x5A_u8; frame_len.saturating_sub(wire::HEADER_LEN)];
        let frame = wire::encode_frame(wire::KIND_PAYLOAD, &body);
        let reader = std::thread::spawn(move || {
            let mut reader = FrameReader::new(rx);
            let mut seen = 0;
            while seen < frames {
                match reader.next_slot(&mut || {}) {
                    Ok(Some(_)) => seen += 1,
                    _ => break,
                }
            }
            seen
        });
        let writer = LinkWriter::spawn(tx, "replay".into());
        let t0 = Instant::now();
        for _ in 0..frames {
            if !writer.send(frame.clone()) {
                return Err("link replay: writer died".into());
            }
        }
        let seen = reader.join().expect("reader thread");
        let secs = t0.elapsed().as_secs_f64();
        writer.half_close();
        if seen != frames {
            return Err(format!("link replay: {seen} of {frames} frames arrived"));
        }
        Ok(secs)
    }
}
