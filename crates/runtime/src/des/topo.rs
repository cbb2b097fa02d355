//! Deterministic discrete-event simulation of an arbitrary coupling
//! topology: the simulator's one entry point.
//!
//! This is the simulator side of the shared engine: any number of programs,
//! each with its own process count, rep, export/import schedules and
//! per-rank compute costs; any set of connections, including one exported
//! region feeding several importers. The protocol itself lives in
//! [`crate::engine`] — this module only turns [`Outgoing`] messages into
//! events with modelled latencies and advances virtual time.
//!
//! Every single-pair experiment of the paper (Figures 4–6, the ablation,
//! the finite-buffer study) is [`Topology::pair`] with one export and one
//! import schedule: program `exporter` exports region `r` over connection 0
//! to program `importer`. The event schedule (times *and* tie-breaking
//! insertion order) is a function of the configuration alone, so a
//! configuration always yields the same report.

use crate::cost::CostModel;
use crate::des::{EventQueue, SimTime};
use crate::engine::{
    between, proc_side, send_step, ActionKind, ChaosState, CrashTarget, Endpoint, EngineError,
    ExportFx, ExportNode, ImportNode, Knobs, MemWal, Mutation, Outgoing, ProcSide, Reliability,
    RepCrash, RepNode, RunSpec, SendDecision, SendKind, Topology, Wal, WireMeta,
};
use couplink_metrics::{EngineMetrics, MetricsSnapshot, Phase};
use couplink_proto::import_port::ImportError;
use couplink_proto::rep::RepError;
use couplink_proto::{
    ConnectionId, CtrlMsg, ExportStats, ImportState, PortError, RepAnswer, RequestId, Trace,
};
use couplink_time::{PeriodicSchedule, Timestamp, TimestampError};
use std::collections::BTreeSet;
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

pub use crate::engine::{ExportSchedule, ImportSchedule};
pub use crate::facade::TopologyConfig;

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
    /// Collected event traces, `(program, rank, connection, trace)`, in
    /// [`Knobs::traces`](crate::engine::Knobs::traces) order.
    pub traces: Vec<(usize, usize, ConnectionId, Trace)>,
    /// End-of-run engine instrumentation. The counter half is deterministic:
    /// two runs of the same configuration produce identical values.
    pub metrics: MetricsSnapshot,
}

/// Rejects times the virtual clock cannot run: a non-finite `t0`, a step
/// `dt` that is not finite and positive, or a compute or startup cost that
/// is negative (the clock would run backwards) or not finite.
fn check_times(program: &str, t0: f64, dt: f64, costs: &[f64]) -> Result<(), SimError> {
    if !(dt.is_finite() && dt > 0.0) {
        return Err(SimError::Config("timestamp steps must be positive".into()));
    }
    if !t0.is_finite() || costs.iter().any(|c| !(c.is_finite() && *c >= 0.0)) {
        return Err(SimError::Config(format!(
            "{program}: t0 {t0} must be finite, compute/startup {costs:?} finite and non-negative"
        )));
    }
    Ok(())
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
    /// The broken link between two endpoints re-forms: both sides resend
    /// what is pending on it.
    Reform(Endpoint, Endpoint),
    /// A crashed rep comes back: the configured restart, or the lowest-rank
    /// live successor taking over after [`FAILOVER_DELAY`].
    RepRecover,
}

struct ExpRec {
    iter: usize,
    times: Vec<f64>,
    actions: Vec<Vec<(ConnectionId, ActionKind)>>,
    /// Blocked on a full buffer, waiting for control traffic to free space.
    blocked: bool,
}

struct ExpDrive {
    prog: usize,
    region: usize,
    s: ExportSchedule,
    piece_bytes: Vec<usize>,
    recs: Vec<ExpRec>,
}

struct ImpDrive {
    prog: usize,
    conn: ConnectionId,
    s: ImportSchedule,
    iters: Vec<usize>,
    waiting: Vec<bool>,
    /// Virtual time each rank's in-flight import call started.
    wait_start: Vec<f64>,
}

/// The topology simulator. Construct with [`TopologySim::from_spec`], run
/// with [`TopologySim::run`].
///
/// It fires every injected fault ([`Faults`](crate::engine::Faults)) —
/// chaos up to a rep crash, forced buddy-help loss, disabled resends, and
/// the mutations the export ports and import nodes fire — except an agent
/// crash and [`Mutation::AckBeforeHandle`], which only the threaded fabric
/// models. Chaos stays fully deterministic: the same run and seed replay
/// the same event schedule.
pub struct TopologySim {
    topo: Topology,
    cost: CostModel,
    queue: EventQueue<Ev>,
    exp_drives: Vec<ExpDrive>,
    imp_drives: Vec<ImpDrive>,
    /// Export drive serving each connection (on its exporter program),
    /// indexed by connection id.
    exp_drive_of: Vec<usize>,
    /// Import drive serving each connection, indexed by connection id.
    imp_drive_of: Vec<usize>,
    exp_nodes: Vec<Vec<ExportNode>>,
    imp_nodes: Vec<Vec<ImportNode>>,
    reps: Vec<Option<RepNode>>,
    matches: Vec<Vec<Option<Timestamp>>>,
    /// The run's knobs; its traces are taken by [`TopologySim::run`].
    knobs: Knobs,
    chaos: Option<ChaosState>,
    /// Armed iff the faults need it; `None` keeps the event schedule
    /// bit-identical to the pre-reliability engine.
    rel: Option<Reliability>,
    /// The armed rep crash fault.
    crash: Option<RepCrash>,
    /// The delivery journal a crashed rep is rebuilt from.
    wal: MemWal,
    /// Links a chaos break took down, each as `(lower, higher)` endpoint,
    /// until their [`Ev::Reform`].
    broken: BTreeSet<(Endpoint, Endpoint)>,
    metrics: Arc<EngineMetrics>,
    /// The messages of the step being moved: every rep and import step of
    /// the run appends here, and [`TopologySim::emit`] drains it.
    out: Vec<Outgoing>,
    /// The one buffer every export-node step of the run writes into.
    fx: ExportFx,
}

impl TopologySim {
    /// Builds the simulation of [`TopologyConfig::into_spec`].
    pub fn new(cfg: TopologyConfig) -> Result<Self, SimError> {
        let (spec, cost) = cfg.into_spec();
        TopologySim::from_spec(spec, cost)
    }

    /// Builds the simulation of `spec` under `cost`, validating the
    /// schedules against the topology. The two faults only the threaded
    /// fabric models, an agent crash and [`Mutation::AckBeforeHandle`],
    /// are refused with [`SimError::Config`], as is a trace of a process
    /// that exports nothing.
    pub fn from_spec(spec: RunSpec, cost: CostModel) -> Result<Self, SimError> {
        let (topo, knobs) = (&spec.topology, &spec.knobs);
        let mut exp_drives = Vec::new();
        let mut imp_drives = Vec::new();
        let mut exp_drive_of = vec![None; topo.conns.len()];
        let mut imp_drive_of = vec![None; topo.conns.len()];

        for s in &spec.exports {
            let (prog, region) = spec.export_region(s).map_err(SimError::Config)?;
            let procs = topo.programs[prog].procs;
            if s.compute.len() != procs {
                let (p, r, n) = (&s.program, &s.region, s.compute.len());
                let e = format!(
                    "export schedule for {p}.{r} has {n} compute entries for {procs} processes"
                );
                return Err(SimError::Config(e));
            }
            check_times(&s.program, s.t0, s.dt, &s.compute)?;
            let decomp = &topo.programs[prog].exports[region].decomp;
            let piece_bytes = (0..procs)
                .map(|rank| decomp.owned(rank).cells() * std::mem::size_of::<f64>())
                .collect();
            for &cid in &topo.programs[prog].exports[region].conns {
                exp_drive_of[cid.0 as usize] = Some(exp_drives.len());
            }
            exp_drives.push(ExpDrive {
                prog,
                region,
                s: s.clone(),
                piece_bytes,
                recs: (0..procs)
                    .map(|_| ExpRec {
                        iter: 0,
                        times: Vec::with_capacity(s.count),
                        actions: Vec::with_capacity(s.count),
                        blocked: false,
                    })
                    .collect(),
            });
        }
        for s in &spec.imports {
            let (prog, region) = spec.import_region(s).map_err(SimError::Config)?;
            check_times(&s.program, s.t0, s.dt, &[s.compute, s.startup])?;
            let conn = topo.programs[prog].imports[region].conn;
            let procs = topo.programs[prog].procs;
            imp_drive_of[conn.0 as usize] = Some(imp_drives.len());
            imp_drives.push(ImpDrive {
                prog,
                conn,
                s: s.clone(),
                iters: vec![0; procs],
                waiting: vec![false; procs],
                wait_start: vec![0.0; procs],
            });
        }
        // Every region of the topology needs a schedule, or its processes
        // would never run; every region is an end of a connection.
        let (mut exp_of, mut imp_of) = (Vec::new(), Vec::new());
        for ct in &topo.conns {
            let (e, i) = (
                &topo.programs[ct.exporter_prog],
                &topo.programs[ct.importer_prog],
            );
            let none = |what, p: &str, r: &str| format!("no {what} schedule for {p}.{r}");
            let region = &e.exports[ct.exporter_region].name;
            let export =
                exp_drive_of[ct.id.0 as usize].ok_or_else(|| none("export", &e.name, region));
            let region = &i.imports[ct.importer_region].name;
            let import =
                imp_drive_of[ct.id.0 as usize].ok_or_else(|| none("import", &i.name, region));
            exp_of.push(export.map_err(SimError::Config)?);
            imp_of.push(import.map_err(SimError::Config)?);
        }
        let (exp_drive_of, imp_drive_of) = (exp_of, imp_of);

        let metrics = Arc::new(EngineMetrics::new());
        let programs = topo.programs.iter().enumerate();
        let mut exp_nodes: Vec<Vec<ExportNode>> = programs
            .clone()
            .map(|(pi, p)| {
                let ranks = if p.exports.is_empty() { 0 } else { p.procs };
                let (cap, hier) = (knobs.buffer_capacity, knobs.hierarchical);
                let node = |rank| {
                    let mut node = ExportNode::new(topo, pi, rank, cap, hier);
                    node.set_metrics(Arc::clone(&metrics));
                    node.set_mutation(knobs.faults.mutation);
                    node
                };
                (0..ranks).map(node).collect()
            })
            .collect();
        let imp_nodes = programs
            .clone()
            .map(|(pi, p)| {
                let ranks = if p.imports.is_empty() { 0 } else { p.procs };
                let node = |rank| {
                    let mut node = ImportNode::new(topo, pi, rank);
                    node.set_metrics(Arc::clone(&metrics));
                    node.set_mutation(knobs.faults.mutation);
                    node
                };
                (0..ranks).map(node).collect()
            })
            .collect();
        let reps = programs
            .map(|(pi, p)| {
                let coupled = !p.exports.is_empty() || !p.imports.is_empty();
                coupled.then(|| RepNode::new(topo, pi, knobs.buddy_help, knobs.hierarchical))
            })
            .collect();
        let matches = vec![Vec::new(); topo.conns.len()];
        if knobs.hierarchical {
            metrics.tree_depth.set(topo.tree_depth() as u64);
        }
        let faults = knobs.faults;
        let fabric_only = |what| {
            Err(SimError::Config(format!(
                "{what} is a threaded-fabric fault"
            )))
        };
        if faults.mutation == Some(Mutation::AckBeforeHandle) {
            // The simulator charges its acks explicitly.
            return fabric_only("ack-before-handle");
        }
        let crash = match faults.chaos.and_then(|c| c.crash) {
            Some(fault) => match fault.target {
                CrashTarget::Rep(prog) => Some(RepCrash::new(prog, fault)),
                CrashTarget::Agent { .. } => return fabric_only("an agent crash"),
            },
            None => None,
        };
        for &(prog, rank, conn) in &knobs.traces {
            let node = exp_nodes.get_mut(prog).and_then(|p| p.get_mut(rank));
            let node = node.ok_or_else(|| {
                SimError::Config(format!(
                    "trace of process {rank} of program {prog}, which exports nothing"
                ))
            })?;
            node.enable_trace(conn);
        }
        let rel = faults
            .needs_reliability()
            .then(|| Reliability::armed(faults, Arc::clone(&metrics)));
        Ok(TopologySim {
            cost,
            queue: EventQueue::new(),
            exp_drives,
            imp_drives,
            exp_drive_of,
            imp_drive_of,
            exp_nodes,
            imp_nodes,
            reps,
            matches,
            chaos: faults.chaos.map(ChaosState::new),
            rel,
            crash,
            wal: MemWal::new(),
            broken: BTreeSet::new(),
            metrics,
            out: Vec::new(),
            fx: ExportFx::default(),
            topo: spec.topology,
            knobs: spec.knobs,
        })
    }

    /// Runs to completion and returns the report.
    pub fn run(mut self) -> Result<TopoReport, SimError> {
        // Kick off every process: exporters compute before their first
        // export; importers pay startup + compute before their first call.
        // All export drives start before all import drives, matching the
        // pair simulator's kickoff order.
        for (d, drive) in self.exp_drives.iter().enumerate() {
            for rank in 0..drive.recs.len() {
                self.queue
                    .schedule(drive.s.compute[rank], Ev::Export { drive: d, rank });
            }
        }
        for (d, drive) in self.imp_drives.iter().enumerate() {
            for rank in 0..drive.iters.len() {
                self.queue.schedule(
                    drive.s.startup + drive.s.compute,
                    Ev::ImpCall { drive: d, rank },
                );
            }
        }

        // The depth gauge sees the length after every event: its mark is
        // kept here and published once, at the end.
        let mut depth_hwm = self.queue.len();
        while let Some((_, event)) = self.queue.pop() {
            self.dispatch(event)?;
            depth_hwm = depth_hwm.max(self.queue.len());
        }
        self.metrics.queue_depth.set(depth_hwm as u64);
        self.metrics.queue_depth.set(self.queue.len() as u64);

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
            .iter_mut()
            .map(|d| ExportSeries {
                program: self.topo.programs[d.prog].name.clone(),
                region: self.topo.programs[d.prog].exports[d.region].name.clone(),
                times: d
                    .recs
                    .iter_mut()
                    .map(|r| std::mem::take(&mut r.times))
                    .collect(),
                actions: d
                    .recs
                    .iter_mut()
                    .map(|r| std::mem::take(&mut r.actions))
                    .collect(),
            })
            .collect();
        let import_done = self
            .imp_drives
            .iter_mut()
            .map(|d| std::mem::take(&mut d.iters))
            .collect();
        let mut traces = Vec::new();
        for (prog, rank, conn) in std::mem::take(&mut self.knobs.traces) {
            if let Some(trace) = self.exp_nodes[prog][rank].take_trace(conn) {
                traces.push((prog, rank, conn, trace));
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
                let ts = PeriodicSchedule::new(d.s.t0, d.s.dt)?.at(iter)?;
                let fx = &mut self.fx;
                fx.clear();
                match self.exp_nodes[prog][rank].on_export(region, ts, fx) {
                    Err(EngineError::Port(PortError::BufferFull { .. })) => {
                        // Stall: the export retries when a control message
                        // frees buffer space.
                        self.exp_drives[drive].recs[rank].blocked = true;
                        return Ok(());
                    }
                    other => other?,
                }
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
                let next = d.recs[rank].iter < d.s.count;
                let compute = d.s.compute[rank];
                self.out.append(&mut fx.msgs);
                self.emit(Endpoint::Proc { prog, rank }, call_cost)?;
                if next {
                    self.queue
                        .schedule(call_cost + compute, Ev::Export { drive, rank });
                }
            }

            Ev::ImpCall { drive, rank } => {
                let d = &self.imp_drives[drive];
                let iter = d.iters[rank];
                if iter >= d.s.count {
                    return Ok(());
                }
                let ts = PeriodicSchedule::new(d.s.t0, d.s.dt)?.at(iter)?;
                let conn = d.conn;
                let prog = d.prog;
                let (_req, msg) = self.imp_nodes[prog][rank].begin_import(conn, ts)?;
                self.imp_drives[drive].waiting[rank] = true;
                self.imp_drives[drive].wait_start[rank] = self.queue.now().0;
                self.out.push(msg);
                self.emit(Endpoint::Proc { prog, rank }, 0.0)?;
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
                let drive = self.imp_drive_of[conn.0 as usize];
                self.check_import_done(drive, rank)?;
            }

            Ev::Reform(a, b) => {
                self.broken.remove(&(a, b));
                self.resend(between(a, b));
            }

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
                // resend them to the recovered rep.
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
            // Best-effort: an ack may be lost or duplicated; the resend at
            // its link's re-form plus the receiver's re-ack heal a lost one.
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

    /// Brings the crashed rep back from the delivery journal, restores its
    /// receive-side dedup/ordering state, and resends everything pending
    /// into it.
    fn recover_rep(&mut self) -> Result<(), SimError> {
        let Some(crash) = self.crash.as_mut() else {
            return Ok(());
        };
        let (ep, prog) = (crash.rep(), crash.prog());
        let journal = self.wal.delivered(ep);
        let (now, bh, hier) = (
            self.queue.now().0,
            self.knobs.buddy_help,
            self.knobs.hierarchical,
        );
        if let Some(rep) = crash.recover(now, &self.topo, bh, hier, &journal, &self.metrics)? {
            self.reps[prog] = Some(rep);
            if let Some(rel) = self.rel.as_mut() {
                rel.restore_delivered(ep, &journal);
            }
            self.resend(|_, to| to == ep);
        }
        Ok(())
    }

    /// Moves one engine step's messages (draining [`TopologySim::out`]),
    /// `delay` seconds (the emitting call's own cost) before network costs.
    fn emit(&mut self, from: Endpoint, delay: f64) -> Result<(), SimError> {
        let mut msgs = std::mem::take(&mut self.out);
        for m in msgs.drain(..) {
            match m {
                Outgoing::Ctrl { to, msg } => self.send(SendKind::Origin, from, to, msg, delay),
                Outgoing::Relay { to, msg } => self.send(SendKind::Relay, from, to, msg, delay),
                Outgoing::Transfer { conn, req, .. } => self.transfer(from, conn, req, delay)?,
            }
        }
        self.out = msgs;
        Ok(())
    }

    /// Runs one control message through the engine's send step and, if it
    /// leaves, schedules its arrival after the modelled latency — at the
    /// chaos-planned instants (possibly several, for duplicated
    /// commutative messages; FIFO-class streams clamped to their
    /// watermark) when fault injection is on. Under chaos a copy on a
    /// broken link is lost, and a send may break its link: the link
    /// re-forms `max_delay` later. A resend is never perturbed.
    fn send(&mut self, kind: SendKind, from: Endpoint, to: Endpoint, msg: CtrlMsg, delay: f64) {
        let ctrl_time = self.cost.ctrl_time();
        self.metrics.phases.add_virtual(Phase::Ctrl, ctrl_time);
        let rel = self.rel.as_mut();
        let SendDecision::Deliver(meta) = send_step(&self.metrics, rel, kind, from, to, &msg)
        else {
            return;
        };
        let nominal = delay + ctrl_time;
        let ev = || match msg {
            CtrlMsg::Ack { seq } => Ev::Ack { to, from, seq },
            _ => Ev::Deliver { to, msg, meta },
        };
        // A resend is the recovery path and skips chaos, as on the fabric.
        // Drawn like any send, a re-form's batch would break its link before
        // a single ack came back, and re-form forever.
        let resend = matches!(kind, SendKind::Resend(_));
        let Some(chaos) = self.chaos.as_mut().filter(|_| !resend) else {
            self.queue.schedule(nominal, ev());
            return;
        };
        let link = (from.min(to), from.max(to));
        if self.broken.contains(&link) {
            return;
        }
        let ats = chaos.deliveries(self.queue.now().0 + nominal, to, &msg);
        if ats.is_empty() {
            let reform = chaos.config().max_delay;
            self.broken.insert(link);
            self.queue.schedule(reform, Ev::Reform(link.0, link.1));
        }
        for at in ats {
            self.queue.schedule_at(SimTime(at), ev());
        }
    }

    /// Re-forms the links `links` selects: every resend the reliability
    /// layer returns rides back out through [`TopologySim::send`] with its
    /// original wire metadata.
    fn resend(&mut self, links: impl Fn(Endpoint, Endpoint) -> bool) {
        let Some(rel) = self.rel.as_mut() else {
            return;
        };
        for (to, meta, msg) in rel.reform(links) {
            self.send(SendKind::Resend(meta), meta.from, to, msg, 0.0);
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

    /// Hands one control message to its node — the pre-reliability delivery
    /// path, shared by fault-free runs and packets that cleared the
    /// reliability layer — and moves whatever the node emits.
    fn consume(&mut self, to: Endpoint, msg: CtrlMsg) -> Result<(), SimError> {
        match to {
            Endpoint::Rep { prog } => {
                let rep = self.reps[prog]
                    .as_mut()
                    .ok_or_else(|| SimError::Config("message for a rep-less program".into()))?;
                rep.on_msg(&self.topo, msg, &mut self.out)?;
                // Record each collective resolution as it is announced by
                // the exporter's rep.
                for out in &self.out {
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
                self.emit(to, 0.0)
            }
            Endpoint::Proc { prog, rank } => match proc_side(&msg) {
                Some((ProcSide::Export, conn)) => {
                    let drive = self.exp_drive_of[conn.0 as usize];
                    self.fx.clear();
                    self.exp_nodes[prog][rank].on_msg(msg, &mut self.fx)?;
                    self.out.append(&mut self.fx.msgs);
                    self.emit(to, 0.0)?;
                    self.wake_blocked(drive, rank);
                    Ok(())
                }
                Some((ProcSide::Import, conn)) => {
                    self.imp_nodes[prog][rank].on_msg(msg, &mut self.out)?;
                    self.check_import_done(self.imp_drive_of[conn.0 as usize], rank)?;
                    self.emit(to, 0.0)
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
            if d.iters[rank] < d.s.count {
                self.queue
                    .schedule(d.s.compute, Ev::ImpCall { drive, rank });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ChaosConfig, CrashFault, Faults, Knobs};
    use couplink_layout::{Decomposition, Extent2};
    use couplink_time::{ts, MatchPolicy, Tolerance};

    /// A small but complete pair run with the paper's timestamp pattern:
    /// exports every 1.0 from 1.6, imports every 20.0 from 20.0, REGL 2.5.
    fn small_config(buddy_help: bool, importer_compute: f64) -> RunSpec {
        let e = Extent2::new(64, 64);
        let topology = Topology::pair(
            Decomposition::block_2d(e, 2, 2).unwrap(),
            Decomposition::row_block(e, 4).unwrap(),
            MatchPolicy::RegL,
            Tolerance::new(2.5).unwrap(),
        )
        .unwrap();
        RunSpec {
            topology,
            exports: vec![ExportSchedule {
                program: "exporter".into(),
                region: "r".into(),
                t0: 1.6,
                dt: 1.0,
                count: 101,
                compute: vec![1e-4, 1e-4, 1e-4, 5e-3], // rank 3 is p_s
            }],
            imports: vec![ImportSchedule {
                program: "importer".into(),
                region: "r".into(),
                t0: 20.0,
                dt: 20.0,
                count: 5,
                compute: importer_compute,
                startup: 0.0,
            }],
            knobs: Knobs {
                buddy_help,
                ..Knobs::default()
            },
        }
    }

    fn sim(spec: RunSpec) -> Result<TopologySim, SimError> {
        TopologySim::from_spec(spec, CostModel::default())
    }

    fn run(spec: RunSpec) -> TopoReport {
        sim(spec).unwrap().run().unwrap()
    }

    /// What each export call of `rank` did on the pair's one connection.
    fn actions(report: &TopoReport, rank: usize) -> Vec<ActionKind> {
        let calls = &report.export_series[0].actions[rank];
        calls.iter().map(|per_conn| per_conn[0].1).collect()
    }

    fn rejected(spec: RunSpec) -> bool {
        matches!(sim(spec), Err(SimError::Config(_)))
    }

    /// Two schedules for one region are a configuration error naming the
    /// region, not a `NotIncreasing` history error from the second drive.
    #[test]
    fn two_schedules_for_one_region_are_refused() {
        let mut exports = small_config(true, 1e-3);
        exports.exports.push(exports.exports[0].clone());
        let mut imports = small_config(true, 1e-3);
        imports.imports.push(imports.imports[0].clone());
        for (spec, named) in [(exports, "exporter.r"), (imports, "importer.r")] {
            let Err(SimError::Config(e)) = sim(spec) else {
                panic!("{named} scheduled twice was accepted")
            };
            assert!(e.contains(named), "{e}");
        }
    }

    #[test]
    fn run_completes_all_transfers() {
        let report = run(small_config(true, 1e-3));
        // Every importer rank completed all 5 imports.
        assert_eq!(report.import_done[0], vec![5; 4]);
        // Every exporter rank sent exactly 5 matched objects.
        for stats in &report.stats[0] {
            assert_eq!(stats.sends, 5, "{stats:?}");
            assert_eq!(stats.exports, 101);
        }
    }

    #[test]
    fn deterministic_repeat() {
        let a = run(small_config(true, 1e-3));
        let b = run(small_config(true, 1e-3));
        assert_eq!(a.export_series[0].times, b.export_series[0].times);
        assert_eq!(a.export_series[0].actions, b.export_series[0].actions);
        assert_eq!(a.duration, b.duration);
    }

    #[test]
    fn buddy_help_skips_memcpys_on_slow_rank() {
        let with = run(small_config(true, 1e-3));
        let without = run(small_config(false, 1e-3));
        let (with, without) = (&with.stats[0][3], &without.stats[0][3]);
        assert!(
            with.skips > without.skips,
            "buddy-help must increase skips: {} vs {}",
            with.skips,
            without.skips
        );
        // The data transferred is identical either way: same sends.
        assert_eq!(with.sends, without.sends);
    }

    #[test]
    fn fast_importer_reaches_optimal_state() {
        // A fast importer queries ahead of the slow exporter: after warm-up
        // the slow rank should only skip or copy-send (optimal state).
        let report = run(small_config(true, 1e-4));
        // The first export iteration inside the entry request's region.
        let exports = PeriodicSchedule::new(1.6, 1.0).unwrap();
        let entry = report.stats[0][3]
            .optimal_entry_request()
            .map(|req| exports.first_index_at_or_above(ts(20.0 + req as f64 * 20.0 - 2.5)));
        assert!(entry.is_some(), "never entered the optimal state");
        assert!(entry.unwrap() < 90, "optimal state too late: {:?}", entry);
    }

    #[test]
    fn slow_importer_buffers_everything() {
        // When the importer lags far behind, requests arrive long after the
        // exports they match: nearly every export must be buffered
        // (Figure 4(a) flat profile).
        let mut cfg = small_config(true, 1.0); // importer takes 1 s per iter
        cfg.imports[0].count = 2;
        let report = run(cfg);
        let copies = actions(&report, 3)
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
        cfg.exports[0].compute.pop();
        assert!(rejected(cfg));
        let mut cfg = small_config(true, 1e-3);
        cfg.exports[0].dt = 0.0;
        assert!(rejected(cfg));
    }

    /// The two faults only the threaded fabric models are refused, not
    /// silently dropped: an agent crash and ack-before-handle.
    #[test]
    fn faults_the_simulator_cannot_model_are_refused() {
        let agent_crash = ChaosConfig {
            crash: Some(CrashFault {
                target: CrashTarget::Agent { prog: 0, rank: 0 },
                after_msgs: 0,
                restart_after: None,
            }),
            ..ChaosConfig::from_seed(1)
        };
        for faults in [
            Faults {
                chaos: Some(agent_crash),
                ..Faults::default()
            },
            Faults {
                mutation: Some(Mutation::AckBeforeHandle),
                ..Faults::default()
            },
        ] {
            let mut spec = small_config(true, 1e-3);
            spec.knobs.faults = faults;
            assert!(rejected(spec), "{faults:?}");
        }
    }

    #[test]
    fn non_finite_compute_rejected() {
        let mut cfg = small_config(true, 1e-3);
        cfg.exports[0].compute[3] = f64::NAN;
        assert!(rejected(cfg));
        assert!(rejected(small_config(true, f64::INFINITY)));
    }

    #[test]
    fn negative_compute_rejected() {
        // Without the check the clock runs backwards and the run "succeeds".
        let mut cfg = small_config(true, 1e-3);
        cfg.exports[0].compute[3] = -5.0;
        assert!(rejected(cfg));
        assert!(rejected(small_config(true, -1e-3)));
    }

    #[test]
    fn bad_startup_rejected() {
        for startup in [-1.0, f64::NAN] {
            let mut cfg = small_config(true, 1e-3);
            cfg.imports[0].startup = startup;
            assert!(rejected(cfg), "startup {startup}");
        }
    }

    #[test]
    fn non_finite_t0_rejected() {
        let mut cfg = small_config(true, 1e-3);
        cfg.exports[0].t0 = f64::NAN;
        assert!(rejected(cfg));
        let mut cfg = small_config(true, 1e-3);
        cfg.imports[0].t0 = f64::INFINITY;
        assert!(rejected(cfg));
    }

    #[test]
    fn export_series_lengths_match_iterations() {
        let report = run(small_config(true, 1e-3));
        for rank in 0..4 {
            assert_eq!(report.export_series[0].times[rank].len(), 101);
            assert_eq!(actions(&report, rank).len(), 101);
        }
    }

    #[test]
    fn bounded_buffer_stalls_exporter_until_requests_free_space() {
        // Capacity 4 with a slow importer: the exporter fills its buffer
        // and stalls; each request prunes the buffer and lets it continue.
        let mut cfg = small_config(true, 5e-2);
        cfg.knobs.buffer_capacity = Some(4);
        let report = run(cfg);
        // All transfers still complete, correctness is unaffected.
        assert_eq!(report.import_done[0], vec![5; 4]);
        for stats in &report.stats[0] {
            assert_eq!(stats.sends, 5);
            assert!(stats.buffer_full_stalls > 0, "{stats:?}");
            assert!(stats.buffered_hwm <= 4);
        }
        // The stalls cost real (virtual) time versus the unbounded run.
        let free_run = run(small_config(true, 5e-2));
        assert!(report.duration > free_run.duration);
    }

    #[test]
    fn buddy_help_lowers_peak_buffer_occupancy() {
        // A fast importer with buddy-help keeps the slow rank's buffer
        // nearly empty; without buddy-help every candidate is buffered.
        let with = run(small_config(true, 1e-4)).stats[0][3].buffered_hwm;
        let without = run(small_config(false, 1e-4)).stats[0][3].buffered_hwm;
        assert!(with <= without, "{with} vs {without}");
    }

    #[test]
    fn trace_rank_records_the_slow_ranks_events() {
        let mut spec = small_config(true, 1e-3);
        spec.knobs.traces.push((0, 3, ConnectionId(0)));
        let report = run(spec);
        assert_eq!(report.traces.len(), 1);
        let (_, rank, _, trace) = &report.traces[0];
        assert_eq!(*rank, 3);
        let (copied, skipped) = trace.export_counts();
        assert_eq!(copied + skipped, 101, "one trace line per export call");
        assert_eq!(copied as u64, report.stats[0][3].memcpys);
        assert_eq!(skipped as u64, report.stats[0][3].skips);
    }
}
