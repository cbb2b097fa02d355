//! Per-process and per-rep protocol nodes.
//!
//! Each node wraps the sans-IO machines from `couplink-proto` for one
//! process (or rep) of one program and translates their effects into
//! [`Outgoing`] messages in a fixed, runtime-independent order. The drivers
//! (discrete-event simulator, threaded fabric) only move these messages and
//! execute data transfers; every protocol decision lives here — including
//! the rank side of the distribution tree: the forward watermark, the
//! stash for help that overtook its forward, and the relay to
//! [`tree::children`].

use super::topology::Topology;
use super::{tree, CrashFault, Endpoint, Outgoing, WireMeta};
use couplink_metrics::EngineMetrics;
use couplink_proto::{
    CtrlMsg, ExportAction, ExportPort, ImportError, ImportPort, ImportState, MultiExport,
    PortError, ProcResponse, Rank, RepAnswer, RepError, RequestId, Trace,
};
use couplink_time::Timestamp;
use std::collections::HashMap;
use std::sync::Arc;

/// Any protocol failure surfaced by a node.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// An export port rejected an input.
    Port(PortError),
    /// A rep machine rejected an input (e.g. a collective violation).
    Rep(RepError),
    /// An import port rejected an input.
    Import(ImportError),
    /// A message arrived at a node that cannot handle it.
    UnexpectedMessage(&'static str),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Port(e) => write!(f, "export port: {e}"),
            EngineError::Rep(e) => write!(f, "rep: {e}"),
            EngineError::Import(e) => write!(f, "import port: {e}"),
            EngineError::UnexpectedMessage(what) => write!(f, "unexpected message: {what}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<PortError> for EngineError {
    fn from(e: PortError) -> Self {
        EngineError::Port(e)
    }
}
impl From<RepError> for EngineError {
    fn from(e: RepError) -> Self {
        EngineError::Rep(e)
    }
}
impl From<ImportError> for EngineError {
    fn from(e: ImportError) -> Self {
        EngineError::Import(e)
    }
}

/// One exported region's state on one process.
#[derive(Debug)]
struct ExportRegionState {
    /// The per-connection ports behind one shared object store.
    multi: MultiExport,
    /// Global connection ids, parallel to the multi-export's ports.
    conns: Vec<couplink_proto::ConnectionId>,
    /// Optional per-connection event traces (Figure 5-style).
    traces: Vec<Option<Trace>>,
    /// Bytes of this rank's piece of the region (one buffered object).
    bytes: usize,
}

/// Effects of one export/request/buddy-help step on an export node.
///
/// `msgs` must be delivered (or scheduled) **in order** before `freed` is
/// applied to the object store: sends reference buffered objects, so a
/// freed object may be one that was just sent.
#[derive(Debug, Default)]
pub struct ExportFx {
    /// Messages to move, in emission order.
    pub msgs: Vec<Outgoing>,
    /// Whether the exported object must be copied into the region's shared
    /// store (export steps only; at most one copy per region per export).
    pub copy: bool,
    /// Timestamps whose shared copy is dead on every connection.
    pub freed: Vec<Timestamp>,
    /// Per-connection actions of an export step, in region connection
    /// order (empty for request/buddy-help steps).
    pub actions: Vec<(couplink_proto::ConnectionId, ExportAction)>,
    /// The region the step ran on: `freed` (and every transfer in `msgs`)
    /// refers to this region's object store.
    pub region: usize,
}

/// One [`Outgoing::Relay`] of `msg` per tree child.
fn relays(
    prog: usize,
    children: impl Iterator<Item = usize>,
    msg: CtrlMsg,
) -> impl Iterator<Item = Outgoing> {
    children.map(move |rank| Outgoing::Relay {
        to: Endpoint::Proc { prog, rank },
        msg,
    })
}

/// The export side of one process: every region it exports, each with its
/// per-connection ports and shared-store refcounting.
#[derive(Debug)]
pub struct ExportNode {
    prog: usize,
    rank: usize,
    regions: Vec<ExportRegionState>,
    /// Region index serving each connection.
    by_conn: HashMap<couplink_proto::ConnectionId, (usize, usize)>,
    /// Request timestamps remembered for traced connections (buddy-help
    /// trace lines report the requested timestamp, which the wire message
    /// does not carry).
    req_ts: HashMap<(couplink_proto::ConnectionId, RequestId), Timestamp>,
    /// Ranks in this program — the size of its distribution tree.
    procs: usize,
    /// Whether forwards arrive down the distribution tree (and must be
    /// relayed to this rank's subtree) instead of flat from the rep.
    hierarchical: bool,
    /// Highest forwarded request id seen per connection. Coalesced help at
    /// or below the watermark is applied; help that overtook its forward
    /// (tree frames commute, so chaos delays and retransmits reorder them
    /// past the FIFO-ordered forward) is stashed — the port cannot tell
    /// "not forwarded here yet" from "resolved and pruned" on its own.
    fwd_seen: HashMap<couplink_proto::ConnectionId, u64>,
    /// Coalesced help waiting for its forward (see `fwd_seen`).
    help_stash: Vec<(couplink_proto::ConnectionId, RequestId, RepAnswer)>,
    /// Run-wide instrumentation shared with every other node.
    metrics: Arc<EngineMetrics>,
}

impl ExportNode {
    /// Builds the export node for process `rank` of program `prog`.
    pub fn new(
        topo: &Topology,
        prog: usize,
        rank: usize,
        capacity: Option<usize>,
        hierarchical: bool,
    ) -> Self {
        let mut regions = Vec::new();
        let mut by_conn = HashMap::new();
        for (ri, region) in topo.programs[prog].exports.iter().enumerate() {
            let mut ports = Vec::new();
            for (slot, &cid) in region.conns.iter().enumerate() {
                let ct = topo.conn(cid);
                let port = match capacity {
                    Some(cap) => ExportPort::with_capacity(cid, ct.policy, ct.tolerance, cap),
                    None => ExportPort::new(cid, ct.policy, ct.tolerance),
                };
                ports.push(port);
                by_conn.insert(cid, (ri, slot));
            }
            let n = ports.len();
            regions.push(ExportRegionState {
                multi: MultiExport::new(ports),
                conns: region.conns.clone(),
                traces: vec![None; n],
                bytes: region.decomp.owned(rank).cells() * std::mem::size_of::<f64>(),
            });
        }
        ExportNode {
            prog,
            rank,
            regions,
            by_conn,
            req_ts: HashMap::new(),
            procs: topo.programs[prog].procs,
            hierarchical,
            fwd_seen: HashMap::new(),
            help_stash: Vec::new(),
            metrics: Arc::new(EngineMetrics::new()),
        }
    }

    /// Shares run-wide instrumentation with this node (a private instance is
    /// used until then, so counting is always unconditional).
    pub fn set_metrics(&mut self, metrics: Arc<EngineMetrics>) {
        self.metrics = metrics;
    }

    /// Enables event tracing for one connection of this node.
    pub fn enable_trace(&mut self, conn: couplink_proto::ConnectionId) {
        if let Some(&(ri, slot)) = self.by_conn.get(&conn) {
            self.regions[ri].traces[slot] = Some(Trace::new());
        }
    }

    /// Takes the recorded trace for a connection, if tracing was enabled.
    pub fn take_trace(&mut self, conn: couplink_proto::ConnectionId) -> Option<Trace> {
        let &(ri, slot) = self.by_conn.get(&conn)?;
        self.regions[ri].traces[slot].take()
    }

    /// The region index serving a connection on this node.
    pub fn region_of(&self, conn: couplink_proto::ConnectionId) -> Option<usize> {
        self.by_conn.get(&conn).map(|&(ri, _)| ri)
    }

    /// Arms the mutation-testing hook on every port of this node: exports
    /// equal to a known buddy-help match are unsoundly skipped. Used only by
    /// the simulation-test harness to prove the oracles catch a broken
    /// pruning rule (see [`ExportPort::set_unsound_help_skip`]).
    pub fn arm_unsound_help_skip(&mut self) {
        for region in &mut self.regions {
            for slot in 0..region.multi.connections() {
                region.multi.port_mut(slot).set_unsound_help_skip(true);
            }
        }
    }

    /// Arms the second mutation-testing hook on every port of this node:
    /// buddy-help announcements whose match was already exported locally are
    /// unsoundly dropped without sending the piece (see
    /// [`ExportPort::set_unsound_stale_skip`]).
    pub fn arm_unsound_stale_skip(&mut self) {
        for region in &mut self.regions {
            for slot in 0..region.multi.connections() {
                region.multi.port_mut(slot).set_unsound_stale_skip(true);
            }
        }
    }

    /// Number of regions this node exports.
    pub fn regions(&self) -> usize {
        self.regions.len()
    }

    /// Statistics of the port serving `conn`.
    pub fn port_stats(&self, conn: couplink_proto::ConnectionId) -> &couplink_proto::ExportStats {
        let &(ri, slot) = self.by_conn.get(&conn).expect("connection served here");
        self.regions[ri].multi.port(slot).stats()
    }

    /// Objects currently held in a region's shared store.
    pub fn shared_buffered_len(&self, region: usize) -> usize {
        self.regions[region].multi.shared_buffered_len()
    }

    /// Whether every bounded port of a region is at most half full: the
    /// point at which a stalled exporter has room for a burst of exports
    /// rather than one.
    pub fn has_burst_room(&self, region: usize) -> bool {
        let multi = &self.regions[region].multi;
        (0..multi.connections()).all(|slot| {
            let port = multi.port(slot);
            port.capacity()
                .is_none_or(|cap| port.buffered_len() <= cap / 2)
        })
    }

    /// Objects buffered on one connection's port.
    pub fn conn_buffered_len(&self, conn: couplink_proto::ConnectionId) -> usize {
        let &(ri, slot) = self.by_conn.get(&conn).expect("connection served here");
        self.regions[ri].multi.port(slot).buffered_len()
    }

    /// The process exports one object on region `region`.
    ///
    /// [`PortError::BufferFull`] is non-consuming: the caller may retry the
    /// same export after buffer space frees (threaded runtime blocks; the
    /// simulator re-schedules on the next free).
    pub fn on_export(&mut self, region: usize, t: Timestamp) -> Result<ExportFx, EngineError> {
        let state = &mut self.regions[region];
        let fx = match state.multi.on_export(t) {
            Err(e @ PortError::BufferFull { .. }) => {
                self.metrics.buffer_stalls.inc();
                return Err(e.into());
            }
            other => other?,
        };
        self.metrics.export_calls.inc();
        if fx.copy {
            self.metrics.memcpy_paid.inc();
            self.metrics.bytes_buffered.add(state.bytes as u64);
            self.metrics.buffered_objects.add(1);
        } else {
            self.metrics.memcpy_skipped.inc();
        }
        self.metrics.buffered_objects.sub(fx.freed.len() as u64);
        self.metrics
            .occupancy
            .observe(state.multi.shared_buffered_len() as u64);
        let mut out = ExportFx {
            copy: fx.copy,
            freed: fx.freed.clone(),
            region,
            ..Default::default()
        };
        for (slot, pfx) in fx.per_conn.iter().enumerate() {
            let cid = state.conns[slot];
            if let Some(trace) = state.traces[slot].as_mut() {
                trace.record_export(t, pfx);
            }
            let action = pfx.action.expect("on_export decides an action");
            out.actions.push((cid, action));
            if let ExportAction::BufferAndSend { request } = action {
                out.msgs.push(Outgoing::Transfer {
                    conn: cid,
                    req: request,
                    m: t,
                });
            }
        }
        // All local resolutions are reported to the rep after the export's
        // own send; matched objects then go out (same order the pair
        // simulator used, so single-connection schedules are unchanged).
        for (slot, pfx) in fx.per_conn.iter().enumerate() {
            let cid = state.conns[slot];
            for r in &pfx.resolutions {
                out.msgs.push(Outgoing::Ctrl {
                    to: Endpoint::Rep { prog: self.prog },
                    msg: CtrlMsg::Response {
                        conn: cid,
                        req: r.request,
                        rank: Rank(self.rank as u32),
                        resp: answer_to_response(r.answer),
                    },
                });
            }
        }
        for (slot, pfx) in fx.per_conn.iter().enumerate() {
            let cid = state.conns[slot];
            for r in &pfx.resolutions {
                if let Some(m) = r.send {
                    out.msgs.push(Outgoing::Transfer {
                        conn: cid,
                        req: r.request,
                        m,
                    });
                }
            }
        }
        Ok(out)
    }

    /// Handles one control message delivered to this process's export side
    /// ([`super::ProcSide::Export`]): a forwarded request, flat buddy-help,
    /// or a coalesced help frame travelling the distribution tree. Tree
    /// frames are relayed to this rank's subtree exactly once per delivery.
    pub fn on_msg(&mut self, msg: CtrlMsg) -> Result<ExportFx, EngineError> {
        let mut out = match msg {
            CtrlMsg::ForwardRequest { conn, req, ts } => {
                let mut out = self.on_request(conn, req, ts)?;
                if self.hierarchical {
                    let seen = self.fwd_seen.entry(conn).or_insert(req.0);
                    *seen = (*seen).max(req.0);
                    let (ready, later) = std::mem::take(&mut self.help_stash)
                        .into_iter()
                        .partition(|&(c, r, _)| c == conn && r == req);
                    self.help_stash = later;
                    for (c, r, a) in ready {
                        let fx = self.on_buddy_help(c, r, a)?;
                        out.msgs.extend(fx.msgs);
                        out.freed.extend(fx.freed);
                    }
                }
                out
            }
            CtrlMsg::BuddyHelp { conn, req, answer } => self.on_buddy_help(conn, req, answer)?,
            CtrlMsg::Coalesced {
                conn,
                req,
                answer,
                bcast: false,
                help: true,
            } => {
                if self.fwd_seen.get(&conn).is_some_and(|&m| m >= req.0) {
                    self.on_buddy_help(conn, req, answer)?
                } else {
                    self.help_stash.push((conn, req, answer));
                    ExportFx::default()
                }
            }
            _ => return Err(EngineError::UnexpectedMessage("not an export-side message")),
        };
        if self.hierarchical && !matches!(msg, CtrlMsg::BuddyHelp { .. }) {
            let children = tree::children(self.rank, self.procs);
            out.msgs.extend(relays(self.prog, children, msg));
        }
        Ok(out)
    }

    /// A forwarded import request reaches this process.
    fn on_request(
        &mut self,
        conn: couplink_proto::ConnectionId,
        req: RequestId,
        ts: Timestamp,
    ) -> Result<ExportFx, EngineError> {
        let &(ri, slot) = self
            .by_conn
            .get(&conn)
            .ok_or(EngineError::UnexpectedMessage(
                "request for foreign connection",
            ))?;
        let state = &mut self.regions[ri];
        let (fx, freed) = state.multi.on_request(slot, req, ts)?;
        self.metrics.buffered_objects.sub(freed.len() as u64);
        if let Some(trace) = state.traces[slot].as_mut() {
            trace.record_request(ts, &fx);
            self.req_ts.insert((conn, req), ts);
        }
        let mut out = ExportFx {
            freed,
            region: ri,
            ..Default::default()
        };
        out.msgs.push(Outgoing::Ctrl {
            to: Endpoint::Rep { prog: self.prog },
            msg: CtrlMsg::Response {
                conn,
                req,
                rank: Rank(self.rank as u32),
                resp: fx.response,
            },
        });
        if let Some(m) = fx.send {
            out.msgs.push(Outgoing::Transfer { conn, req, m });
        }
        Ok(out)
    }

    /// A buddy-help announcement (flat or coalesced) reaches this process.
    fn on_buddy_help(
        &mut self,
        conn: couplink_proto::ConnectionId,
        req: RequestId,
        answer: RepAnswer,
    ) -> Result<ExportFx, EngineError> {
        let &(ri, slot) = self
            .by_conn
            .get(&conn)
            .ok_or(EngineError::UnexpectedMessage(
                "buddy-help for foreign connection",
            ))?;
        let state = &mut self.regions[ri];
        let (fx, freed) = state.multi.on_buddy_help(slot, req, answer)?;
        self.metrics.buffered_objects.sub(freed.len() as u64);
        if let Some(trace) = state.traces[slot].as_mut() {
            if let Some(x) = self.req_ts.remove(&(conn, req)) {
                trace.record_buddy_help(x, req, answer, &fx);
            }
        }
        let mut out = ExportFx {
            freed,
            region: ri,
            ..Default::default()
        };
        if let Some(m) = fx.send {
            out.msgs.push(Outgoing::Transfer { conn, req, m });
        }
        Ok(out)
    }
}

fn answer_to_response(a: RepAnswer) -> ProcResponse {
    match a {
        RepAnswer::Match(m) => ProcResponse::Match(m),
        RepAnswer::NoMatch => ProcResponse::NoMatch,
    }
}

/// One program's rep: aggregates collective imports and exports for every
/// connection the program participates in (the paper's one-extra-process-
/// per-program design).
#[derive(Debug)]
pub struct RepNode {
    prog: usize,
    exp: HashMap<couplink_proto::ConnectionId, couplink_proto::ExporterRep>,
    imp: HashMap<couplink_proto::ConnectionId, couplink_proto::ImporterRep>,
    /// Whether buddy-help announcements are enabled (mirrors the exporter
    /// reps' own flag; needed to decide hierarchical help broadcasts).
    buddy_help: bool,
    /// Route collectives down the k-ary distribution tree ([`super::tree`])
    /// instead of flat per-rank fan-out.
    hierarchical: bool,
}

impl RepNode {
    /// Builds the rep for program `prog`.
    pub fn new(topo: &Topology, prog: usize, buddy_help: bool, hierarchical: bool) -> Self {
        let mut exp = HashMap::new();
        let mut imp = HashMap::new();
        for region in &topo.programs[prog].exports {
            for &cid in &region.conns {
                exp.insert(
                    cid,
                    couplink_proto::ExporterRep::new(topo.programs[prog].procs, buddy_help),
                );
            }
        }
        for region in &topo.programs[prog].imports {
            imp.insert(
                region.conn,
                couplink_proto::ImporterRep::new(topo.programs[prog].procs),
            );
        }
        RepNode {
            prog,
            exp,
            imp,
            buddy_help,
            hierarchical,
        }
    }

    /// Handles one control message addressed to this rep.
    pub fn on_msg(&mut self, topo: &Topology, msg: CtrlMsg) -> Result<Vec<Outgoing>, EngineError> {
        let mut out = Vec::new();
        match msg {
            CtrlMsg::ImportCall { conn, rank, ts } => {
                let rep = self
                    .imp
                    .get_mut(&conn)
                    .ok_or(EngineError::UnexpectedMessage(
                        "import call at non-importer",
                    ))?;
                let fx = rep.on_import_call(rank, ts)?;
                if let Some((req, ts)) = fx.request {
                    out.push(Outgoing::Ctrl {
                        to: Endpoint::Rep {
                            prog: topo.conn(conn).exporter_prog,
                        },
                        msg: CtrlMsg::ImportRequest { conn, req, ts },
                    });
                }
                // Hierarchical mode broadcasts each answer down the tree
                // exactly once, when it arrives; the call-gated per-rank
                // deliveries here would duplicate that (and depend on call
                // arrival order, which is timing).
                if !self.hierarchical {
                    self.push_delivers(topo, conn, fx.deliver, &mut out);
                }
            }
            CtrlMsg::Answer { conn, req, answer } => {
                let rep = self
                    .imp
                    .get_mut(&conn)
                    .ok_or(EngineError::UnexpectedMessage("answer at non-importer"))?;
                let fx = rep.on_answer(req, answer)?;
                if self.hierarchical {
                    // One coalesced frame per tree child; each rank applies
                    // it and relays to its own subtree. Ranks that have not
                    // called import yet stash the early answer in their
                    // import port.
                    for rank in tree::root_children(topo.programs[self.prog].procs) {
                        out.push(Outgoing::Ctrl {
                            to: Endpoint::Proc {
                                prog: self.prog,
                                rank,
                            },
                            msg: CtrlMsg::Coalesced {
                                conn,
                                req,
                                answer,
                                bcast: true,
                                help: false,
                            },
                        });
                    }
                } else {
                    self.push_delivers(topo, conn, fx.deliver, &mut out);
                }
            }
            CtrlMsg::ImportRequest { conn, req, ts } => {
                let rep = self
                    .exp
                    .get_mut(&conn)
                    .ok_or(EngineError::UnexpectedMessage("request at non-exporter"))?;
                let fx = rep.on_import_request(req, ts)?;
                self.push_exp_fx(topo, conn, fx, &mut out);
            }
            CtrlMsg::Response {
                conn,
                req,
                rank,
                resp,
            } => {
                let rep = self
                    .exp
                    .get_mut(&conn)
                    .ok_or(EngineError::UnexpectedMessage("response at non-exporter"))?;
                let fx = rep.on_response(rank, req, resp)?;
                self.push_exp_fx(topo, conn, fx, &mut out);
            }
            CtrlMsg::ForwardRequest { .. }
            | CtrlMsg::BuddyHelp { .. }
            | CtrlMsg::AnswerBcast { .. }
            | CtrlMsg::Coalesced { .. } => {
                return Err(EngineError::UnexpectedMessage("process message at rep"));
            }
            // Acks are consumed by the runtimes' reliability layer before
            // node dispatch; one reaching a node is a bug.
            CtrlMsg::Ack { .. } => {
                return Err(EngineError::UnexpectedMessage("link-layer message at rep"));
            }
        }
        Ok(out)
    }

    fn push_delivers(
        &self,
        _topo: &Topology,
        conn: couplink_proto::ConnectionId,
        deliver: Vec<(Rank, RequestId, RepAnswer)>,
        out: &mut Vec<Outgoing>,
    ) {
        for (rank, req, answer) in deliver {
            out.push(Outgoing::Ctrl {
                to: Endpoint::Proc {
                    prog: self.prog,
                    rank: rank.0 as usize,
                },
                msg: CtrlMsg::AnswerBcast { conn, req, answer },
            });
        }
    }

    fn push_exp_fx(
        &self,
        topo: &Topology,
        conn: couplink_proto::ConnectionId,
        fx: couplink_proto::rep::RepEffects,
        out: &mut Vec<Outgoing>,
    ) {
        let ct = topo.conn(conn);
        let procs = topo.programs[self.prog].procs;
        if let Some((req, ts)) = fx.forward {
            let ranks = if self.hierarchical {
                tree::root_children(procs)
            } else {
                0..procs
            };
            for rank in ranks {
                out.push(Outgoing::Ctrl {
                    to: Endpoint::Proc {
                        prog: self.prog,
                        rank,
                    },
                    msg: CtrlMsg::ForwardRequest { conn, req, ts },
                });
            }
        }
        if let Some((req, answer)) = fx.answer {
            out.push(Outgoing::Ctrl {
                to: Endpoint::Rep {
                    prog: ct.importer_prog,
                },
                msg: CtrlMsg::Answer { conn, req, answer },
            });
            // Hierarchical buddy-help is announced to every member at the
            // moment the answer is decided — one coalesced frame per tree
            // child, relayed down — instead of per-straggler messages whose
            // set depends on response arrival timing. Members that already
            // resolved the request shrug the announcement off.
            if self.hierarchical && self.buddy_help {
                for rank in tree::root_children(procs) {
                    out.push(Outgoing::Ctrl {
                        to: Endpoint::Proc {
                            prog: self.prog,
                            rank,
                        },
                        msg: CtrlMsg::Coalesced {
                            conn,
                            req,
                            answer,
                            bcast: false,
                            help: true,
                        },
                    });
                }
            }
        }
        if !self.hierarchical {
            for (rank, req, answer) in fx.buddy_help {
                out.push(Outgoing::Ctrl {
                    to: Endpoint::Proc {
                        prog: self.prog,
                        rank: rank.0 as usize,
                    },
                    msg: CtrlMsg::BuddyHelp { conn, req, answer },
                });
            }
        }
    }
}

/// The crash window of one rep under a [`CrashFault`], the same on every
/// runtime: packet-granular death (once the rep has consumed `after_msgs`
/// messages, the *next arriving packet* kills it and is itself lost
/// unacked), a dead window in which everything arriving dies unacked (the
/// senders keep retransmitting), and recovery by journal replay. The
/// runtime supplies the clock, schedules the recovery, and wipes/restores
/// its reliability layer's receive state for the endpoint.
#[derive(Debug)]
pub struct RepCrash {
    prog: usize,
    fault: CrashFault,
    consumed: u64,
    fired: bool,
    /// Clock reading at the crash, while the rep is dead.
    dead_since: Option<f64>,
}

impl RepCrash {
    /// Arms `fault` on program `prog`'s rep.
    pub fn new(prog: usize, fault: CrashFault) -> Self {
        RepCrash {
            prog,
            fault,
            consumed: 0,
            fired: false,
            dead_since: None,
        }
    }

    /// The program whose rep is targeted.
    pub fn prog(&self) -> usize {
        self.prog
    }

    /// The targeted rep's endpoint.
    pub fn rep(&self) -> Endpoint {
        Endpoint::Rep { prog: self.prog }
    }

    /// Whether the rep is currently dead (crashed, not yet recovered).
    pub fn is_dead(&self) -> bool {
        self.dead_since.is_some()
    }

    /// Counts one message delivered to the live rep.
    pub fn consumed(&mut self) {
        self.consumed += 1;
    }

    /// A packet reaches the live rep at `now`. Returns the seconds until
    /// recovery is due — the configured restart, or `failover_delay` (the
    /// modelled detection delay before a successor takes over) without
    /// one — exactly when this packet is the fatal one.
    pub fn fires(&mut self, now: f64, failover_delay: f64) -> Option<f64> {
        if self.fired || self.consumed < self.fault.after_msgs {
            return None;
        }
        self.fired = true;
        self.dead_since = Some(now);
        Some(self.fault.restart_after.unwrap_or(failover_delay))
    }

    /// Brings the rep role back at `now` — the restarted process or the
    /// lowest-rank live successor — by replaying the dead rep's delivery
    /// journal in consumption order, *discarding* the regenerated outgoing
    /// traffic: everything the dead rep consumed it had also already
    /// emitted responses for (consumption and emission are one atomic
    /// step), and copies still in flight are deduplicated by the
    /// reliability layer. Meters the failover; `None` if the rep is alive.
    pub fn recover(
        &mut self,
        now: f64,
        topo: &Topology,
        buddy_help: bool,
        hierarchical: bool,
        journal: &[(WireMeta, CtrlMsg)],
        metrics: &EngineMetrics,
    ) -> Result<Option<RepNode>, EngineError> {
        let Some(t0) = self.dead_since.take() else {
            return Ok(None);
        };
        let mut fresh = RepNode::new(topo, self.prog, buddy_help, hierarchical);
        for &(_, msg) in journal {
            let _regenerated = fresh.on_msg(topo, msg)?;
        }
        metrics.failovers.inc();
        metrics.recovery_ms.observe(((now - t0) * 1000.0) as u64);
        Ok(Some(fresh))
    }
}

/// The import side of one process: one [`ImportPort`] per imported region.
#[derive(Debug)]
pub struct ImportNode {
    prog: usize,
    rank: usize,
    /// Ports in program import-region order, keyed by connection.
    ports: HashMap<couplink_proto::ConnectionId, ImportPort>,
    /// Ranks in this program — the size of its distribution tree.
    procs: usize,
    /// Mutation-testing hook (see [`ImportNode::arm_relay_drop`]).
    relay_drop: bool,
    /// Run-wide instrumentation shared with every other node.
    metrics: Arc<EngineMetrics>,
}

impl ImportNode {
    /// Builds the import node for process `rank` of program `prog`.
    pub fn new(topo: &Topology, prog: usize, rank: usize) -> Self {
        let mut ports = HashMap::new();
        for region in &topo.programs[prog].imports {
            let ct = topo.conn(region.conn);
            let expected = ct.plan.recvs_to(rank).count();
            ports.insert(region.conn, ImportPort::new(expected));
        }
        ImportNode {
            prog,
            rank,
            ports,
            procs: topo.programs[prog].procs,
            relay_drop: false,
            metrics: Arc::new(EngineMetrics::new()),
        }
    }

    /// Arms the third mutation-testing hook: relay rank 0 silently drops
    /// every coalesced answer broadcast on its first subtree edge — before
    /// any runtime's send step sees it, so nothing ever retransmits it.
    /// The starved subtree never completes its imports; the liveness
    /// oracle must fire. A no-op on every other rank.
    pub fn arm_relay_drop(&mut self) {
        self.relay_drop = self.rank == 0;
    }

    /// Shares run-wide instrumentation with this node (a private instance is
    /// used until then, so counting is always unconditional).
    pub fn set_metrics(&mut self, metrics: Arc<EngineMetrics>) {
        self.metrics = metrics;
    }

    /// Starts a collective import on one connection. Returns the request id
    /// and the import-call message for this program's rep.
    pub fn begin_import(
        &mut self,
        conn: couplink_proto::ConnectionId,
        ts: Timestamp,
    ) -> Result<(RequestId, Outgoing), EngineError> {
        let port = self
            .ports
            .get_mut(&conn)
            .ok_or(EngineError::UnexpectedMessage(
                "import on foreign connection",
            ))?;
        let req = port.begin_import(ts)?;
        self.metrics.import_calls.inc();
        let msg = Outgoing::Ctrl {
            to: Endpoint::Rep { prog: self.prog },
            msg: CtrlMsg::ImportCall {
                conn,
                rank: Rank(self.rank as u32),
                ts,
            },
        };
        Ok((req, msg))
    }

    /// Handles one control message delivered to this process's import side
    /// ([`super::ProcSide::Import`]): a flat answer broadcast, or a
    /// coalesced one travelling the distribution tree, which is applied
    /// and relayed to this rank's subtree exactly once per delivery.
    pub fn on_msg(&mut self, msg: CtrlMsg) -> Result<Vec<Outgoing>, EngineError> {
        match msg {
            CtrlMsg::AnswerBcast { conn, req, answer } => {
                self.on_answer(conn, req, answer)?;
                Ok(Vec::new())
            }
            CtrlMsg::Coalesced {
                conn,
                req,
                answer,
                bcast: true,
                ..
            } => {
                self.on_answer(conn, req, answer)?;
                let children = tree::children(self.rank, self.procs);
                Ok(relays(self.prog, children.skip(usize::from(self.relay_drop)), msg).collect())
            }
            _ => Err(EngineError::UnexpectedMessage("not an import-side message")),
        }
    }

    /// The rep's broadcast answer arrives.
    fn on_answer(
        &mut self,
        conn: couplink_proto::ConnectionId,
        req: RequestId,
        answer: RepAnswer,
    ) -> Result<(), EngineError> {
        let port = self
            .ports
            .get_mut(&conn)
            .ok_or(EngineError::UnexpectedMessage(
                "answer on foreign connection",
            ))?;
        port.on_answer(req, answer)?;
        Ok(())
    }

    /// One piece of matched data arrives.
    pub fn on_piece(
        &mut self,
        conn: couplink_proto::ConnectionId,
        req: RequestId,
    ) -> Result<(), EngineError> {
        let port = self
            .ports
            .get_mut(&conn)
            .ok_or(EngineError::UnexpectedMessage(
                "piece on foreign connection",
            ))?;
        port.on_piece(req)?;
        Ok(())
    }

    /// Current state of one connection's import.
    pub fn state(&self, conn: couplink_proto::ConnectionId) -> Option<ImportState> {
        self.ports.get(&conn).map(|p| p.state())
    }

    /// Completes the finished import, returning its collective answer.
    pub fn finish(&mut self, conn: couplink_proto::ConnectionId) -> Option<RepAnswer> {
        self.ports.get_mut(&conn)?.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_layout::{Decomposition, Extent2};
    use couplink_proto::ConnectionId;
    use couplink_time::{ts, MatchPolicy, Tolerance};

    const CONN: ConnectionId = ConnectionId(0);

    /// Six ranks on both sides: rank 0's subtree children are ranks 4, 5.
    fn topo() -> Topology {
        let d = Decomposition::row_block(Extent2::new(12, 12), 6).expect("decomp");
        Topology::pair(d, d, MatchPolicy::RegL, Tolerance::new(0.5).expect("tol")).expect("topo")
    }

    fn relayed_to(msgs: &[Outgoing], frame: CtrlMsg) -> Vec<usize> {
        msgs.iter()
            .filter_map(|m| match m {
                Outgoing::Relay {
                    to: Endpoint::Proc { rank, .. },
                    msg,
                } if *msg == frame => Some(*rank),
                _ => None,
            })
            .collect()
    }

    fn transfers(msgs: &[Outgoing]) -> usize {
        let is_transfer = |m: &&Outgoing| matches!(m, Outgoing::Transfer { .. });
        msgs.iter().filter(is_transfer).count()
    }

    /// Coalesced help that overtakes its forward is stashed (relayed, not
    /// applied), applied exactly once when the forward lands, and every
    /// accepted frame is relayed to `tree::children` exactly once.
    #[test]
    fn early_coalesced_help_is_stashed_then_applied_once() {
        let mut node = ExportNode::new(&topo(), 0, 0, None, true);
        node.on_export(0, ts(1.0)).expect("export");
        let help = CtrlMsg::Coalesced {
            conn: CONN,
            req: RequestId(0),
            answer: RepAnswer::Match(ts(1.0)),
            bcast: false,
            help: true,
        };
        let early = node.on_msg(help).expect("early help");
        assert_eq!(
            transfers(&early.msgs),
            0,
            "help before its forward must not apply"
        );
        assert_eq!(relayed_to(&early.msgs, help), vec![4, 5]);
        assert_eq!(node.port_stats(CONN).sends, 0);

        // REGL cannot decide 1.2 from {1.0} alone: PENDING, until the
        // stashed help settles it and the piece goes out.
        let fwd = CtrlMsg::ForwardRequest {
            conn: CONN,
            req: RequestId(0),
            ts: ts(1.2),
        };
        let landed = node.on_msg(fwd).expect("forward");
        assert!(matches!(
            landed.msgs[0],
            Outgoing::Ctrl {
                to: Endpoint::Rep { prog: 0 },
                msg: CtrlMsg::Response { .. }
            }
        ));
        assert_eq!(
            transfers(&landed.msgs),
            1,
            "stashed help applied: {landed:?}"
        );
        assert_eq!(relayed_to(&landed.msgs, fwd), vec![4, 5]);
        assert_eq!(node.port_stats(CONN).sends, 1);

        // The stash is empty now: the next forward applies nothing extra,
        // and help at or below the watermark applies on arrival.
        node.on_export(0, ts(2.0)).expect("export");
        let fwd1 = CtrlMsg::ForwardRequest {
            conn: CONN,
            req: RequestId(1),
            ts: ts(2.2),
        };
        let next = node.on_msg(fwd1).expect("second forward");
        assert_eq!(transfers(&next.msgs), 0);
        assert_eq!(relayed_to(&next.msgs, fwd1), vec![4, 5]);
        let help1 = CtrlMsg::Coalesced {
            conn: CONN,
            req: RequestId(1),
            answer: RepAnswer::Match(ts(2.0)),
            bcast: false,
            help: true,
        };
        let on_time = node.on_msg(help1).expect("on-time help");
        assert_eq!(transfers(&on_time.msgs), 1);
        assert_eq!(relayed_to(&on_time.msgs, help1), vec![4, 5]);
        assert_eq!(node.port_stats(CONN).sends, 2);
    }

    /// A coalesced answer broadcast reaches the import port and is relayed
    /// to the subtree once; a leaf relays nothing; the armed relay-drop
    /// mutation cuts rank 0's first subtree edge only.
    #[test]
    fn coalesced_answer_is_applied_and_relayed_once() {
        let topo = topo();
        let bcast = CtrlMsg::Coalesced {
            conn: CONN,
            req: RequestId(0),
            answer: RepAnswer::NoMatch,
            bcast: true,
            help: false,
        };
        for (rank, armed, expect) in [
            (0, false, vec![4, 5]),
            (5, true, vec![]),
            (0, true, vec![5]),
        ] {
            let mut node = ImportNode::new(&topo, 1, rank);
            if armed {
                node.arm_relay_drop();
            }
            let (req, _call) = node.begin_import(CONN, ts(1.0)).expect("import");
            assert_eq!(req, RequestId(0));
            let out = node.on_msg(bcast).expect("broadcast");
            assert_eq!(relayed_to(&out, bcast), expect, "rank {rank} armed {armed}");
            assert_eq!(out.len(), expect.len(), "only relays are emitted");
            // NO MATCH needs no pieces: the answer alone finishes the import.
            assert_eq!(node.finish(CONN), Some(RepAnswer::NoMatch));
        }
    }

    /// Flat mode: the rep reaches every rank itself, so no node relays.
    #[test]
    fn flat_mode_emits_no_relay() {
        let topo = topo();
        let mut exp = ExportNode::new(&topo, 0, 0, None, false);
        exp.on_export(0, ts(1.0)).expect("export");
        let fwd = exp
            .on_msg(CtrlMsg::ForwardRequest {
                conn: CONN,
                req: RequestId(0),
                ts: ts(1.2),
            })
            .expect("forward");
        let help = exp
            .on_msg(CtrlMsg::BuddyHelp {
                conn: CONN,
                req: RequestId(0),
                answer: RepAnswer::Match(ts(1.0)),
            })
            .expect("help");
        assert_eq!(transfers(&help.msgs), 1);
        let mut imp = ImportNode::new(&topo, 1, 0);
        imp.begin_import(CONN, ts(1.2)).expect("import");
        let answer = imp
            .on_msg(CtrlMsg::AnswerBcast {
                conn: CONN,
                req: RequestId(0),
                answer: RepAnswer::NoMatch,
            })
            .expect("answer");
        let relays = |msgs: &[Outgoing]| msgs.iter().any(|m| matches!(m, Outgoing::Relay { .. }));
        assert!(!relays(&fwd.msgs) && !relays(&help.msgs) && !relays(&answer));
    }
}
