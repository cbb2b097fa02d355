//! Deterministic discrete-event simulation of an arbitrary coupling
//! topology.
//!
//! This is the simulator side of the shared engine: any number of programs,
//! each with its own process count, rep, export/import schedules and
//! per-rank compute costs; any set of connections, including one exported
//! region feeding several importers. The protocol itself lives in
//! [`crate::engine`] — this module only turns [`Outgoing`] messages into
//! events with modelled latencies and advances virtual time.
//!
//! The single-pair simulator ([`crate::des::coupled::CoupledSim`]) is a thin
//! adapter over this driver; for pair topologies the event schedule (times
//! *and* tie-breaking insertion order) is identical to the original
//! hand-written pair loop, so Figure-4 outputs are bit-for-bit stable.

use crate::cost::CostModel;
use crate::des::{EventQueue, SimTime};
use crate::engine::{
    proc_side, send_step, ActionKind, ChaosConfig, ChaosState, CrashTarget, Endpoint, EngineError,
    Expiry, ExportNode, ImportNode, MemWal, Outgoing, ProcSide, Reliability, RepCrash, RepNode,
    RetryPolicy, SendDecision, SendKind, Topology, Wal, WireMeta,
};
use couplink_metrics::{EngineMetrics, MetricsSnapshot, Phase};
use couplink_proto::import_port::ImportError;
use couplink_proto::rep::RepError;
use couplink_proto::{
    ConnectionId, CtrlMsg, ExportStats, ImportState, PortError, RepAnswer, RequestId, Trace,
};
use couplink_time::{PeriodicSchedule, Timestamp, TimestampError};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Error aborting a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// An exporter port rejected an event.
    Port(PortError),
    /// A rep rejected an event.
    Rep(RepError),
    /// An importer port rejected an event.
    Import(ImportError),
    /// A timestamp in the schedule was not finite.
    Timestamp(TimestampError),
    /// The configuration was inconsistent.
    Config(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Port(e) => write!(f, "export port: {e}"),
            SimError::Rep(e) => write!(f, "rep: {e}"),
            SimError::Import(e) => write!(f, "import port: {e}"),
            SimError::Timestamp(e) => write!(f, "timestamp: {e}"),
            SimError::Config(s) => write!(f, "bad configuration: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<PortError> for SimError {
    fn from(e: PortError) -> Self {
        SimError::Port(e)
    }
}
impl From<RepError> for SimError {
    fn from(e: RepError) -> Self {
        SimError::Rep(e)
    }
}
impl From<ImportError> for SimError {
    fn from(e: ImportError) -> Self {
        SimError::Import(e)
    }
}
impl From<TimestampError> for SimError {
    fn from(e: TimestampError) -> Self {
        SimError::Timestamp(e)
    }
}

impl From<EngineError> for SimError {
    fn from(e: EngineError) -> Self {
        match e {
            EngineError::Port(e) => SimError::Port(e),
            EngineError::Rep(e) => SimError::Rep(e),
            EngineError::Import(e) => SimError::Import(e),
            EngineError::UnexpectedMessage(what) => SimError::Config(what.into()),
        }
    }
}

/// Periodic export schedule for one program's exported region.
#[derive(Debug, Clone)]
pub struct ExportSchedule {
    /// Program name.
    pub program: String,
    /// Exported region name.
    pub region: String,
    /// Timestamp of export `i` is `t0 + i * dt`.
    pub t0: f64,
    /// Timestamp step.
    pub dt: f64,
    /// Number of export iterations each process performs.
    pub count: usize,
    /// Per-rank compute seconds per iteration (index = rank).
    pub compute: Vec<f64>,
}

/// Periodic import schedule for one program's imported region.
#[derive(Debug, Clone)]
pub struct ImportSchedule {
    /// Program name.
    pub program: String,
    /// Imported region name.
    pub region: String,
    /// Timestamp of import `j` is `t0 + j * dt`.
    pub t0: f64,
    /// Timestamp step.
    pub dt: f64,
    /// Number of import iterations each process performs.
    pub count: usize,
    /// Compute seconds per iteration (same for all ranks).
    pub compute: f64,
    /// One-time startup cost before the first iteration.
    pub startup: f64,
}

/// Configuration of a topology simulation.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// The coupling topology.
    pub topology: Topology,
    /// One schedule per exported region (all must be covered).
    pub exports: Vec<ExportSchedule>,
    /// One schedule per imported region (all must be covered).
    pub imports: Vec<ImportSchedule>,
    /// Whether the buddy-help optimization is enabled.
    pub buddy_help: bool,
    /// Operation costs.
    pub cost: CostModel,
    /// Per-process framework buffer capacity in objects (`None` =
    /// unbounded).
    pub buffer_capacity: Option<usize>,
    /// Route collectives (forward requests, answer broadcasts, buddy-help)
    /// down the deterministic k-ary distribution tree ([`tree`]) instead of
    /// flat per-rank fan-out: the rep talks only to its tree children and
    /// each rank relays to its own subtree.
    pub hierarchical: bool,
}

/// Per-rank series of one export schedule, in the report.
#[derive(Debug, Clone)]
pub struct ExportSeries {
    /// Program name.
    pub program: String,
    /// Region name.
    pub region: String,
    /// Per rank: seconds charged to each export call.
    pub times: Vec<Vec<f64>>,
    /// Per rank, per call: what each connection did with the export.
    pub actions: Vec<Vec<Vec<(ConnectionId, ActionKind)>>>,
    /// Per rank: `(connection, export-iteration count at arrival)` for each
    /// forwarded request, in arrival order.
    pub request_arrivals: Vec<Vec<(ConnectionId, usize)>>,
}

/// Results of a topology run.
#[derive(Debug, Clone)]
pub struct TopoReport {
    /// Virtual time at which the last event executed.
    pub duration: f64,
    /// Per connection, per exporter rank: final port statistics.
    pub stats: Vec<Vec<ExportStats>>,
    /// Per connection: the collective answer of each request, in resolution
    /// order (`Some(m)` for a match at `m`, `None` for NO MATCH).
    pub matches: Vec<Vec<Option<Timestamp>>>,
    /// One series per export schedule, in configuration order.
    pub export_series: Vec<ExportSeries>,
    /// Per import schedule, per rank: completed import iterations.
    pub import_done: Vec<Vec<usize>>,
    /// Collected event traces: `(program, rank, connection, trace)`.
    pub traces: Vec<(String, usize, ConnectionId, Trace)>,
    /// End-of-run engine instrumentation. The counter half is deterministic:
    /// two runs of the same configuration produce identical values.
    pub metrics: MetricsSnapshot,
}

/// Modelled detection delay, in virtual seconds: how long after a rep
/// dies without a restart plan its lowest-rank live successor takes over
/// (`RepRecover` is scheduled at `crash_time + FAILOVER_DELAY`).
const FAILOVER_DELAY: f64 = 0.25;

#[derive(Debug)]
enum Ev {
    /// Process `rank` of export drive `drive` performs its next export.
    Export { drive: usize, rank: usize },
    /// Process `rank` of import drive `drive` makes its next import call.
    ImpCall { drive: usize, rank: usize },
    /// A control message arrives at an endpoint. `meta` is present exactly
    /// when the reliability layer is armed and the message is sequenced.
    Deliver {
        to: Endpoint,
        msg: CtrlMsg,
        meta: Option<WireMeta>,
    },
    /// A link-layer ack from `from` reaches `to` (the original sender). Its
    /// own variant so the hot `Deliver` event stays small.
    Ack {
        to: Endpoint,
        from: Endpoint,
        seq: u64,
    },
    /// A piece of matched data arrives at an importing process.
    Piece {
        prog: usize,
        rank: usize,
        conn: ConnectionId,
        req: RequestId,
    },
    /// Poll the reliability layer for expired ack deadlines.
    RetryCheck,
    /// A crashed rep comes back: the configured restart, or the lowest-rank
    /// live successor taking over after [`FAILOVER_DELAY`].
    RepRecover,
}

struct ExpRec {
    iter: usize,
    times: Vec<f64>,
    actions: Vec<Vec<(ConnectionId, ActionKind)>>,
    request_arrivals: Vec<(ConnectionId, usize)>,
    /// Blocked on a full buffer, waiting for control traffic to free space.
    blocked: bool,
}

struct ExpDrive {
    prog: usize,
    region: usize,
    t0: f64,
    dt: f64,
    count: usize,
    compute: Vec<f64>,
    piece_bytes: Vec<usize>,
    recs: Vec<ExpRec>,
}

struct ImpDrive {
    prog: usize,
    conn: ConnectionId,
    t0: f64,
    dt: f64,
    count: usize,
    compute: f64,
    startup: f64,
    iters: Vec<usize>,
    waiting: Vec<bool>,
    /// Virtual time each rank's in-flight import call started.
    wait_start: Vec<f64>,
}

/// The topology simulator. Construct with [`TopologySim::new`], optionally
/// enable traces with [`TopologySim::trace`], run with [`TopologySim::run`].
pub struct TopologySim {
    topo: Topology,
    cost: CostModel,
    queue: EventQueue<Ev>,
    exp_drives: Vec<ExpDrive>,
    imp_drives: Vec<ImpDrive>,
    /// Export drive serving each connection (on its exporter program).
    exp_drive_of: HashMap<ConnectionId, usize>,
    /// Import drive serving each connection.
    imp_drive_of: HashMap<ConnectionId, usize>,
    exp_nodes: Vec<Vec<ExportNode>>,
    imp_nodes: Vec<Vec<ImportNode>>,
    reps: Vec<Option<RepNode>>,
    matches: Vec<Vec<Option<Timestamp>>>,
    traced: Vec<(usize, usize, ConnectionId)>,
    chaos: Option<ChaosState>,
    buddy_help: bool,
    hierarchical: bool,
    /// Timeout/backoff parameters used when the reliability layer arms.
    policy: RetryPolicy,
    /// Armed at run start iff the fault plan needs it; `None` keeps the
    /// event schedule bit-identical to the pre-reliability engine.
    rel: Option<Reliability>,
    /// The armed rep crash fault.
    crash: Option<RepCrash>,
    /// The delivery journal a crashed rep is rebuilt from.
    wal: MemWal,
    /// Earliest virtual time a `RetryCheck` event is already scheduled for.
    retry_at: Option<f64>,
    drop_buddy_help: bool,
    metrics: Arc<EngineMetrics>,
}

impl TopologySim {
    /// Builds the simulation, validating schedules against the topology.
    pub fn new(cfg: TopologyConfig) -> Result<Self, SimError> {
        let topo = cfg.topology;
        let mut exp_drives = Vec::new();
        let mut imp_drives = Vec::new();
        let mut exp_drive_of = HashMap::new();
        let mut imp_drive_of = HashMap::new();

        for s in &cfg.exports {
            let prog = topo
                .program_idx(&s.program)
                .ok_or_else(|| SimError::Config(format!("unknown program {}", s.program)))?;
            let region = topo.programs[prog].export_idx(&s.region).ok_or_else(|| {
                SimError::Config(format!("{} exports no region {}", s.program, s.region))
            })?;
            let procs = topo.programs[prog].procs;
            if s.compute.len() != procs {
                return Err(SimError::Config(format!(
                    "export schedule for {}.{} has {} compute entries for {} processes",
                    s.program,
                    s.region,
                    s.compute.len(),
                    procs
                )));
            }
            if s.dt <= 0.0 {
                return Err(SimError::Config("timestamp steps must be positive".into()));
            }
            let decomp = &topo.programs[prog].exports[region].decomp;
            let piece_bytes = (0..procs)
                .map(|rank| decomp.owned(rank).cells() * std::mem::size_of::<f64>())
                .collect();
            for &cid in &topo.programs[prog].exports[region].conns {
                exp_drive_of.insert(cid, exp_drives.len());
            }
            exp_drives.push(ExpDrive {
                prog,
                region,
                t0: s.t0,
                dt: s.dt,
                count: s.count,
                compute: s.compute.clone(),
                piece_bytes,
                recs: (0..procs)
                    .map(|_| ExpRec {
                        iter: 0,
                        times: Vec::with_capacity(s.count),
                        actions: Vec::with_capacity(s.count),
                        request_arrivals: Vec::new(),
                        blocked: false,
                    })
                    .collect(),
            });
        }
        for s in &cfg.imports {
            let prog = topo
                .program_idx(&s.program)
                .ok_or_else(|| SimError::Config(format!("unknown program {}", s.program)))?;
            let region = topo.programs[prog].import_idx(&s.region).ok_or_else(|| {
                SimError::Config(format!("{} imports no region {}", s.program, s.region))
            })?;
            if s.dt <= 0.0 {
                return Err(SimError::Config("timestamp steps must be positive".into()));
            }
            let conn = topo.programs[prog].imports[region].conn;
            let procs = topo.programs[prog].procs;
            imp_drive_of.insert(conn, imp_drives.len());
            imp_drives.push(ImpDrive {
                prog,
                conn,
                t0: s.t0,
                dt: s.dt,
                count: s.count,
                compute: s.compute,
                startup: s.startup,
                iters: vec![0; procs],
                waiting: vec![false; procs],
                wait_start: vec![0.0; procs],
            });
        }
        // Every region of the topology needs a schedule, or its processes
        // would never run.
        for (pi, p) in topo.programs.iter().enumerate() {
            for (ri, r) in p.exports.iter().enumerate() {
                if !exp_drives.iter().any(|d| d.prog == pi && d.region == ri) {
                    return Err(SimError::Config(format!(
                        "no export schedule for {}.{}",
                        p.name, r.name
                    )));
                }
            }
            for r in &p.imports {
                if !imp_drive_of.contains_key(&r.conn) {
                    return Err(SimError::Config(format!(
                        "no import schedule for {}.{}",
                        p.name, r.name
                    )));
                }
            }
        }

        let metrics = Arc::new(EngineMetrics::new());
        let exp_nodes = topo
            .programs
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                if p.exports.is_empty() {
                    Vec::new()
                } else {
                    (0..p.procs)
                        .map(|rank| {
                            let mut node = ExportNode::new(
                                &topo,
                                pi,
                                rank,
                                cfg.buffer_capacity,
                                cfg.hierarchical,
                            );
                            node.set_metrics(Arc::clone(&metrics));
                            node
                        })
                        .collect()
                }
            })
            .collect();
        let imp_nodes = topo
            .programs
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                if p.imports.is_empty() {
                    Vec::new()
                } else {
                    (0..p.procs)
                        .map(|rank| {
                            let mut node = ImportNode::new(&topo, pi, rank);
                            node.set_metrics(Arc::clone(&metrics));
                            node
                        })
                        .collect()
                }
            })
            .collect();
        let reps = topo
            .programs
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                if p.exports.is_empty() && p.imports.is_empty() {
                    None
                } else {
                    Some(RepNode::new(&topo, pi, cfg.buddy_help, cfg.hierarchical))
                }
            })
            .collect();
        let matches = vec![Vec::new(); topo.conns.len()];
        if cfg.hierarchical {
            metrics.tree_depth.set(topo.tree_depth() as u64);
        }
        Ok(TopologySim {
            topo,
            cost: cfg.cost,
            queue: EventQueue::new(),
            exp_drives,
            imp_drives,
            exp_drive_of,
            imp_drive_of,
            exp_nodes,
            imp_nodes,
            reps,
            matches,
            traced: Vec::new(),
            chaos: None,
            buddy_help: cfg.buddy_help,
            hierarchical: cfg.hierarchical,
            policy: RetryPolicy {
                // Virtual-time scales: control latency and chaos jitter are
                // a few milliseconds, so the first ack deadline sits well
                // clear of an honest round trip while retries still settle
                // long before a typical schedule ends.
                base_timeout: 0.05,
                backoff: 2.0,
                max_timeout: 0.4,
                ..RetryPolicy::default()
            },
            rel: None,
            crash: None,
            wal: MemWal::new(),
            retry_at: None,
            drop_buddy_help: false,
            metrics,
        })
    }

    /// The run-wide instrumentation shared by every node and the transport.
    pub fn metrics(&self) -> Arc<EngineMetrics> {
        Arc::clone(&self.metrics)
    }

    /// Enables seeded fault injection (delay, duplication, drop-with-retry,
    /// and — when the plan sets them — permanent loss and a rep crash) on
    /// control-message delivery. The run stays fully deterministic: the
    /// same configuration and seed replay the same event schedule. Fault
    /// plans that need the reliability layer arm it automatically; agent
    /// crash targets are a threaded-fabric fault and are ignored here.
    pub fn chaos(&mut self, cfg: ChaosConfig) {
        if let Some(fault) = cfg.crash {
            if let CrashTarget::Rep(prog) = fault.target {
                self.crash = Some(RepCrash::new(prog, fault));
            }
        }
        self.chaos = Some(ChaosState::new(cfg));
    }

    /// Overrides the reliability layer's timeout/backoff parameters. The
    /// `retransmit: false` knob exists for negative tests proving the
    /// liveness oracle fires when the protocol has no recovery.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.policy = policy;
    }

    /// Degradation knob: every buddy-help announcement is permanently lost
    /// (while all other traffic is untouched), forcing the conservative
    /// buffering fallback. Arms the reliability layer so each abandoned
    /// announcement is metered as a `degraded_buffers` count.
    pub fn drop_buddy_help(&mut self) {
        self.drop_buddy_help = true;
    }

    /// Arms the deliberate pruning-rule bug on every export port, for
    /// mutation-testing the oracles (see
    /// [`couplink_proto::ExportPort::set_unsound_help_skip`]).
    pub fn arm_unsound_help_skip(&mut self) {
        for nodes in &mut self.exp_nodes {
            for node in nodes {
                node.arm_unsound_help_skip();
            }
        }
    }

    /// Arms the deliberate stale-announcement bug on every export port, for
    /// mutation-testing the oracles (see
    /// [`couplink_proto::ExportPort::set_unsound_stale_skip`]).
    pub fn arm_unsound_stale_skip(&mut self) {
        for nodes in &mut self.exp_nodes {
            for node in nodes {
                node.arm_unsound_stale_skip();
            }
        }
    }

    /// Arms the third deliberate bug, for mutation-testing the oracles on a
    /// hierarchical topology: relay rank 0 silently drops every coalesced
    /// answer broadcast on its first subtree edge (see
    /// [`ImportNode::arm_relay_drop`]).
    pub fn arm_relay_drop(&mut self) {
        for node in self.imp_nodes.iter_mut().flatten() {
            node.arm_relay_drop();
        }
    }

    /// Enables Figure-5 style event tracing for one connection on one
    /// exporting process.
    pub fn trace(
        &mut self,
        program: &str,
        rank: usize,
        conn: ConnectionId,
    ) -> Result<(), SimError> {
        let prog = self
            .topo
            .program_idx(program)
            .ok_or_else(|| SimError::Config(format!("unknown program {program}")))?;
        self.exp_nodes[prog][rank].enable_trace(conn);
        self.traced.push((prog, rank, conn));
        Ok(())
    }

    /// Runs to completion and returns the report.
    pub fn run(mut self) -> Result<TopoReport, SimError> {
        // Arm the reliability layer exactly when the fault plan contains
        // something the transport wrapper cannot heal. Fault-free runs (and
        // plain delay/duplicate/drop-with-retry chaos) never construct it,
        // so their event schedules stay bit-identical.
        let needs_rel = self.drop_buddy_help
            || self
                .chaos
                .as_ref()
                .is_some_and(|c| c.config().needs_reliability());
        if needs_rel {
            let loss = self.chaos.as_ref().map(|c| *c.config());
            self.rel = Some(
                Reliability::new(self.policy, Arc::clone(&self.metrics))
                    .with_faults(self.drop_buddy_help, loss),
            );
        }
        // Kick off every process: exporters compute before their first
        // export; importers pay startup + compute before their first call.
        // All export drives start before all import drives, matching the
        // pair simulator's kickoff order.
        for (d, drive) in self.exp_drives.iter().enumerate() {
            for rank in 0..drive.recs.len() {
                self.queue
                    .schedule(drive.compute[rank], Ev::Export { drive: d, rank });
            }
        }
        for (d, drive) in self.imp_drives.iter().enumerate() {
            for rank in 0..drive.iters.len() {
                self.queue.schedule(
                    drive.startup + drive.compute,
                    Ev::ImpCall { drive: d, rank },
                );
            }
        }

        self.metrics.queue_depth.set(self.queue.len() as u64);
        while let Some((_, event)) = self.queue.pop() {
            self.dispatch(event)?;
            self.arm_retry_check();
            self.metrics.queue_depth.set(self.queue.len() as u64);
        }

        let duration = self.queue.now().0;
        let stats = self
            .topo
            .conns
            .iter()
            .map(|ct| {
                (0..self.topo.programs[ct.exporter_prog].procs)
                    .map(|rank| {
                        self.exp_nodes[ct.exporter_prog][rank]
                            .port_stats(ct.id)
                            .clone()
                    })
                    .collect()
            })
            .collect();
        let export_series = self
            .exp_drives
            .iter()
            .map(|d| ExportSeries {
                program: self.topo.programs[d.prog].name.clone(),
                region: self.topo.programs[d.prog].exports[d.region].name.clone(),
                times: d.recs.iter().map(|r| r.times.clone()).collect(),
                actions: d.recs.iter().map(|r| r.actions.clone()).collect(),
                request_arrivals: d.recs.iter().map(|r| r.request_arrivals.clone()).collect(),
            })
            .collect();
        let import_done = self.imp_drives.iter().map(|d| d.iters.clone()).collect();
        let mut traces = Vec::new();
        for (prog, rank, conn) in std::mem::take(&mut self.traced) {
            if let Some(trace) = self.exp_nodes[prog][rank].take_trace(conn) {
                traces.push((self.topo.programs[prog].name.clone(), rank, conn, trace));
            }
        }
        Ok(TopoReport {
            duration,
            stats,
            matches: self.matches,
            export_series,
            import_done,
            traces,
            metrics: self.metrics.snapshot(),
        })
    }

    fn dispatch(&mut self, event: Ev) -> Result<(), SimError> {
        match event {
            Ev::Export { drive, rank } => {
                let d = &self.exp_drives[drive];
                let (prog, region) = (d.prog, d.region);
                let iter = d.recs[rank].iter;
                let ts = PeriodicSchedule::new(d.t0, d.dt)?.at(iter)?;
                let fx = match self.exp_nodes[prog][rank].on_export(region, ts) {
                    Err(EngineError::Port(PortError::BufferFull { .. })) => {
                        // Stall: the export retries when a control message
                        // frees buffer space.
                        self.exp_drives[drive].recs[rank].blocked = true;
                        return Ok(());
                    }
                    other => other?,
                };
                let d = &mut self.exp_drives[drive];
                let call_cost = if fx.copy {
                    self.cost.memcpy_time(d.piece_bytes[rank]) + self.cost.export_overhead
                } else {
                    self.cost.export_overhead
                };
                self.metrics.phases.add_virtual(Phase::Export, call_cost);
                {
                    let rec = &mut d.recs[rank];
                    rec.times.push(call_cost);
                    rec.actions
                        .push(fx.actions.iter().map(|&(c, a)| (c, a.into())).collect());
                    rec.iter += 1;
                }
                let next = d.recs[rank].iter < d.count;
                let compute = d.compute[rank];
                self.emit(Endpoint::Proc { prog, rank }, call_cost, fx.msgs)?;
                if next {
                    self.queue
                        .schedule(call_cost + compute, Ev::Export { drive, rank });
                }
            }

            Ev::ImpCall { drive, rank } => {
                let d = &self.imp_drives[drive];
                let iter = d.iters[rank];
                if iter >= d.count {
                    return Ok(());
                }
                let ts = PeriodicSchedule::new(d.t0, d.dt)?.at(iter)?;
                let conn = d.conn;
                let prog = d.prog;
                let (_req, msg) = self.imp_nodes[prog][rank].begin_import(conn, ts)?;
                self.imp_drives[drive].waiting[rank] = true;
                self.imp_drives[drive].wait_start[rank] = self.queue.now().0;
                self.emit(Endpoint::Proc { prog, rank }, 0.0, vec![msg])?;
                self.check_import_done(drive, rank)?;
            }

            Ev::Deliver { to, msg, meta } => self.deliver(to, meta, msg)?,

            Ev::Ack { to, from, seq } => {
                if let Some(rel) = self.rel.as_mut() {
                    rel.on_ack(to, from, seq);
                }
            }

            Ev::Piece {
                prog,
                rank,
                conn,
                req,
            } => {
                self.imp_nodes[prog][rank].on_piece(conn, req)?;
                let drive = self.imp_drive_of[&conn];
                self.check_import_done(drive, rank)?;
            }

            Ev::RetryCheck => self.on_retry_check(),

            Ev::RepRecover => self.recover_rep()?,
        }
        Ok(())
    }

    /// Delivers one wire packet: sequenced packets run through the engine's
    /// receive step (dedup, hold-back, journal-before-ack) and the crash
    /// window when those are armed.
    fn deliver(
        &mut self,
        to: Endpoint,
        meta: Option<WireMeta>,
        msg: CtrlMsg,
    ) -> Result<(), SimError> {
        let (Some(meta), Some(rel)) = (meta, self.rel.as_mut()) else {
            // Fault-free path: no sequencing, no acks, no crashes.
            return self.consume(to, msg);
        };
        if let Some(crash) = self.crash.as_mut().filter(|c| c.rep() == to) {
            if crash.is_dead() {
                // Deliveries to a dead rep vanish unacked; their senders
                // keep retransmitting them to the recovered rep.
                return Ok(());
            }
            if let Some(after) = crash.fires(self.queue.now().0, FAILOVER_DELAY) {
                // Held-back, unacked messages die with the rep.
                rel.crash_endpoint(to);
                self.queue.schedule(after, Ev::RepRecover);
                return Ok(());
            }
        }
        let got = rel.admit(meta, to, msg, |rec| self.wal.append(rec));
        for seq in got.acks {
            // Best-effort: an ack may be lost or duplicated; the sender's
            // retransmit plus the receiver's re-ack heal a lost one.
            self.send(SendKind::Ack, to, meta.from, CtrlMsg::Ack { seq }, 0.0);
        }
        for (_, m) in got.deliver {
            if let Some(crash) = self.crash.as_mut().filter(|c| c.rep() == to) {
                crash.consumed();
            }
            self.consume(to, m)?;
        }
        Ok(())
    }

    /// Brings the crashed rep back from the delivery journal and restores
    /// its receive-side dedup/ordering state.
    fn recover_rep(&mut self) -> Result<(), SimError> {
        let Some(crash) = self.crash.as_mut() else {
            return Ok(());
        };
        let (ep, prog) = (crash.rep(), crash.prog());
        let journal = self.wal.delivered(ep);
        let (now, bh, hier) = (self.queue.now().0, self.buddy_help, self.hierarchical);
        if let Some(rep) = crash.recover(now, &self.topo, bh, hier, &journal, &self.metrics)? {
            self.reps[prog] = Some(rep);
            if let Some(rel) = self.rel.as_mut() {
                rel.restore_delivered(ep, &journal);
            }
        }
        Ok(())
    }

    /// Moves one engine step's messages, `delay` seconds (the emitting
    /// call's own cost) before network costs.
    fn emit(&mut self, from: Endpoint, delay: f64, msgs: Vec<Outgoing>) -> Result<(), SimError> {
        for m in msgs {
            match m {
                Outgoing::Ctrl { to, msg } => self.send(SendKind::Origin, from, to, msg, delay),
                Outgoing::Relay { to, msg } => self.send(SendKind::Relay, from, to, msg, delay),
                Outgoing::Transfer { conn, req, .. } => self.transfer(from, conn, req, delay)?,
            }
        }
        Ok(())
    }

    /// Runs one control message through the engine's send step and, if it
    /// leaves, schedules its arrival after the modelled latency — at the
    /// chaos-planned instants (possibly several, for duplicated
    /// commutative messages; FIFO-class streams clamped to their
    /// watermark) when fault injection is on.
    fn send(&mut self, kind: SendKind, from: Endpoint, to: Endpoint, msg: CtrlMsg, delay: f64) {
        let ctrl_time = self.cost.ctrl_time();
        self.metrics.phases.add_virtual(Phase::Ctrl, ctrl_time);
        let now = self.queue.now().0;
        let rel = self.rel.as_mut();
        let SendDecision::Deliver(meta) = send_step(&self.metrics, rel, kind, from, to, &msg, now)
        else {
            return;
        };
        let nominal = delay + ctrl_time;
        let ev = || match msg {
            CtrlMsg::Ack { seq } => Ev::Ack { to, from, seq },
            _ => Ev::Deliver { to, msg, meta },
        };
        match self.chaos.as_mut() {
            None => self.queue.schedule(nominal, ev()),
            Some(chaos) => {
                for at in chaos.deliveries(now + nominal, to, &msg) {
                    self.queue.schedule_at(SimTime(at), ev());
                }
            }
        }
    }

    /// Expands one data transfer into a piece event per destination rank
    /// of the connection's redistribution plan.
    fn transfer(
        &mut self,
        from: Endpoint,
        conn: ConnectionId,
        req: RequestId,
        delay: f64,
    ) -> Result<(), SimError> {
        let Endpoint::Proc { rank, .. } = from else {
            return Err(SimError::Config("data transfer emitted by a rep".into()));
        };
        self.metrics.transfers.inc();
        let ct = self.topo.conn(conn);
        for t in ct.plan.sends_from(rank) {
            let bytes = t.rect.cells() * std::mem::size_of::<f64>();
            let data_time = self.cost.data_time(bytes);
            self.metrics.bytes_transferred.add(bytes as u64);
            self.metrics.phases.add_virtual(Phase::Transfer, data_time);
            self.queue.schedule(
                delay + data_time,
                Ev::Piece {
                    prog: ct.importer_prog,
                    rank: t.dst,
                    conn,
                    req,
                },
            );
        }
        Ok(())
    }

    /// Processes every expired ack deadline: retransmits ride back out
    /// with their original wire metadata and a fresh loss draw;
    /// abandonments just stop (an expendable one was already metered; a
    /// reliable one leaves unresolved work for the liveness oracle).
    fn on_retry_check(&mut self) {
        self.retry_at = None;
        let now = self.queue.now().0;
        let due = match self.rel.as_mut() {
            Some(rel) => rel.due(now),
            None => return,
        };
        for e in due {
            if let Expiry::Resend { to, meta, msg } = e {
                self.send(SendKind::Resend(meta), meta.from, to, msg, 0.0);
            }
        }
    }

    /// Keeps a `RetryCheck` event scheduled for the earliest pending ack
    /// deadline.
    fn arm_retry_check(&mut self) {
        let Some(d) = self.rel.as_ref().and_then(|r| r.next_deadline()) else {
            return;
        };
        if self.retry_at.is_some_and(|t| t <= d) {
            return;
        }
        let at = d.max(self.queue.now().0);
        self.queue.schedule_at(SimTime(at), Ev::RetryCheck);
        self.retry_at = Some(at);
    }

    /// Hands one control message to its node — the pre-reliability delivery
    /// path, shared by fault-free runs and packets that cleared the
    /// reliability layer — and moves whatever the node emits.
    fn consume(&mut self, to: Endpoint, msg: CtrlMsg) -> Result<(), SimError> {
        match to {
            Endpoint::Rep { prog } => {
                let rep = self.reps[prog]
                    .as_mut()
                    .ok_or_else(|| SimError::Config("message for a rep-less program".into()))?;
                let outs = rep.on_msg(&self.topo, msg)?;
                // Record each collective resolution as it is announced by
                // the exporter's rep.
                for out in &outs {
                    if let Outgoing::Ctrl {
                        msg: CtrlMsg::Answer { conn, answer, .. },
                        ..
                    } = out
                    {
                        self.matches[conn.0 as usize].push(match answer {
                            RepAnswer::Match(m) => Some(*m),
                            RepAnswer::NoMatch => None,
                        });
                    }
                }
                self.emit(to, 0.0, outs)
            }
            Endpoint::Proc { prog, rank } => match proc_side(&msg) {
                Some((ProcSide::Export, conn)) => {
                    let drive = self.exp_drive_of[&conn];
                    if matches!(msg, CtrlMsg::ForwardRequest { .. }) {
                        let rec = &mut self.exp_drives[drive].recs[rank];
                        rec.request_arrivals.push((conn, rec.iter));
                    }
                    let fx = self.exp_nodes[prog][rank].on_msg(msg)?;
                    self.emit(to, 0.0, fx.msgs)?;
                    self.wake_blocked(drive, rank);
                    Ok(())
                }
                Some((ProcSide::Import, conn)) => {
                    let outs = self.imp_nodes[prog][rank].on_msg(msg)?;
                    self.check_import_done(self.imp_drive_of[&conn], rank)?;
                    self.emit(to, 0.0, outs)
                }
                None => Err(SimError::Config(format!(
                    "unroutable process message {msg:?}"
                ))),
            },
        }
    }

    /// Control traffic may have freed buffer space: wake a stalled exporter.
    fn wake_blocked(&mut self, drive: usize, rank: usize) {
        let rec = &mut self.exp_drives[drive].recs[rank];
        if rec.blocked {
            rec.blocked = false;
            self.queue.schedule(0.0, Ev::Export { drive, rank });
        }
    }

    /// If importer `rank` of `drive` is waiting and its current import has
    /// finished, advance it to the next iteration.
    fn check_import_done(&mut self, drive: usize, rank: usize) -> Result<(), SimError> {
        let d = &mut self.imp_drives[drive];
        let node = &mut self.imp_nodes[d.prog][rank];
        if d.waiting[rank] && matches!(node.state(d.conn), Some(ImportState::Done { .. })) {
            node.finish(d.conn);
            d.waiting[rank] = false;
            self.metrics
                .phases
                .add_virtual(Phase::Import, self.queue.now().0 - d.wait_start[rank]);
            d.iters[rank] += 1;
            if d.iters[rank] < d.count {
                self.queue.schedule(d.compute, Ev::ImpCall { drive, rank });
            }
        }
        Ok(())
    }
}
