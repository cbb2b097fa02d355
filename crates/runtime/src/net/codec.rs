//! Runtime envelopes on top of the proto wire codec.
//!
//! `couplink-proto` defines the frame container (header, checksum,
//! [`CtrlMsg`] bodies, payload pieces). This module defines the frames the
//! *socket runtime* itself speaks: the bootstrap handshake between the
//! orchestrating parent and its `couplink-node` children, the mesh
//! handshake between peer nodes, the routed-control / ack envelopes that
//! carry fabric traffic across processes, and the end-of-run report a node
//! sends home. All kinds live at [`wire::KIND_RUNTIME_BASE`] and above so
//! they can never collide with the proto layer's own frames.
//!
//! Every body here is declared once, through the proto layer's [`Wire`]
//! trait: a field list ([`wire_struct!`] / [`wire_enum!`]) or a tuple, so
//! each frame's encoder and decoder are the same list and decoding is
//! bounds-checked, typed and panic-free exactly like the layer below. Two
//! impls are written by hand: [`Endpoint`]'s nine bytes, and
//! [`NodeReport`], whose counters travel as JSON.

use std::collections::HashMap;

use couplink_config::parse;
use couplink_layout::{Decomposition, Extent2, Rect};
use couplink_metrics::{json, CounterSnapshot};
use couplink_proto::wire::{self as wire, BodyReader, BodyWriter, Wire, WireError, WireRect};
use couplink_proto::{wire_enum, wire_struct, CtrlMsg, ExportStats, Trace};

use crate::engine::{ChaosConfig, ConnTopo, CrashFault, CrashTarget, Endpoint, Topology, WireMeta};

use super::node::NODE_BUFFER_CAPACITY;

/// Version of the runtime envelope protocol (checked in both handshakes,
/// independently of the frame-container version below it).
pub const RT_VERSION: u32 = 4;

const BASE: u8 = wire::KIND_RUNTIME_BASE;
/// Child → parent: first frame on the bootstrap link.
pub const KIND_HELLO: u8 = BASE;
/// Either direction: fatal protocol error, the connection is dead.
pub const KIND_FATAL: u8 = BASE + 1;
/// Parent → child: the session plan.
pub const KIND_PLAN: u8 = BASE + 2;
/// Child → parent: the child's mesh listener address.
pub const KIND_LISTENING: u8 = BASE + 3;
/// Parent → child: every child's mesh address, indexed by program.
pub const KIND_PEERS: u8 = BASE + 4;
/// Child → parent: mesh formed, session built, ready to run.
pub const KIND_READY: u8 = BASE + 5;
/// Parent → child: start the application threads.
pub const KIND_GO: u8 = BASE + 6;
/// Node → node: first frame on a mesh link.
pub const KIND_MESH_HELLO: u8 = BASE + 7;
/// Node → node: a routed fabric control message.
pub const KIND_CTRL: u8 = BASE + 8;
/// Node → node: a reliability ack travelling back to the original sender.
pub const KIND_ACK: u8 = BASE + 9;
/// Child → parent: application threads finished (fabric still serving).
pub const KIND_APP_DONE: u8 = BASE + 10;
/// Parent → child: every program's app is done, drain and shut down.
pub const KIND_DRAIN: u8 = BASE + 11;
/// Child → parent: the final [`NodeReport`].
pub const KIND_REPORT: u8 = BASE + 12;
/// Node → node: last frame on a mesh link before an orderly half-close
/// (unmetered, like the hello that opened it); an EOF without it is a drop.
pub const KIND_MESH_BYE: u8 = BASE + 13;

// --- plan ---

/// One exported region's application schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportSpec {
    /// Exporting program name (as in the configuration text).
    pub program: String,
    /// Region index within the program's exports.
    pub region: usize,
    /// First export timestamp.
    pub t0: f64,
    /// Timestamp step.
    pub dt: f64,
    /// Number of exports.
    pub count: usize,
    /// Per-rank inter-export compute time (seconds, pre-scaling).
    pub compute: Vec<f64>,
}

/// One imported region's application schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportSpec {
    /// Importing program name.
    pub program: String,
    /// Region index within the program's imports.
    pub region: usize,
    /// First import timestamp.
    pub t0: f64,
    /// Timestamp step.
    pub dt: f64,
    /// Number of imports.
    pub count: usize,
    /// Inter-import compute time (seconds, pre-scaling).
    pub compute: f64,
    /// Startup delay before the first import (seconds, pre-scaling).
    pub startup: f64,
}

/// A deliberate malfunction a node injects into itself — the negative
/// transport tests are driven by these, not by hacking the node binary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeFault {
    /// The named rank calls `std::process::exit` immediately after its
    /// `after`-th successful export: a peer dying mid-run, sockets cut.
    AbortAfterExports {
        /// Program index.
        prog: usize,
        /// Rank within the program.
        rank: usize,
        /// Exports completed before the abort.
        after: usize,
    },
    /// The program's mesh reader threads park forever: its sockets stay
    /// open but inbound traffic is never processed (a stalled peer).
    StallMeshReader {
        /// Program index.
        prog: usize,
    },
    /// The program's inbound codec silently discards collective-answer
    /// frames on this connection — the "drop the collective answer"
    /// mutation; the liveness oracle must catch the wedged imports.
    DropAnswers {
        /// Connection index.
        conn: u32,
    },
    /// The program drains and exits right after its app threads finish,
    /// without waiting for the parent's coordinated `DRAIN` — its mesh
    /// sockets close while peers are still running. Peers must tolerate
    /// the early EOF during their own drain (the shutdown-order
    /// regression).
    DrainEarly {
        /// Program index.
        prog: usize,
    },
    /// The program severs its outbound mesh link to `peer` after `after_tx`
    /// frames have been written on it (a half-close: FIN flushes the bytes
    /// already sent, then the peer reads EOF mid-run). Both sides must
    /// re-dial / re-accept and replay unacked traffic from the reliability
    /// journal — this is the fault behind the `net_reconnects` metric.
    SeverLink {
        /// Program index that performs the sever (the writer side).
        prog: usize,
        /// Peer program whose link is severed.
        peer: usize,
        /// Outbound frames written on the link before the sever.
        after_tx: u64,
    },
}

/// Everything a `couplink-node` child needs to run its share of a session:
/// the configuration text (re-parsed and re-validated in-process), the
/// grid shape that fixes every region's decomposition, the application
/// schedules, and the knobs the in-process runtimes take programmatically.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePlan {
    /// Configuration text in the deployer format (Figure 2 of the paper).
    pub config_text: String,
    /// Global grid `(rows, cols)`; every region is bound to a row-block
    /// decomposition of this grid over its program's processes.
    pub grid: (usize, usize),
    /// Export schedules, one per exported region.
    pub exports: Vec<ExportSpec>,
    /// Import schedules, one per imported region.
    pub imports: Vec<ImportSpec>,
    /// Whether reps send buddy-help.
    pub buddy_help: bool,
    /// Import timeout in seconds.
    pub import_timeout_s: f64,
    /// Multiplier applied to every schedule sleep.
    pub time_scale: f64,
    /// Whether importers verify transferred cell values against the
    /// exporter's deterministic fill.
    pub verify_values: bool,
    /// Connections to trace, as `(program, rank, connection)`; each node
    /// arms only the entries for its own program.
    pub traces: Vec<(usize, usize, u32)>,
    /// Chaos plan, armed identically in every node (loss is drawn at the
    /// sender, crash targets fire only where hosted).
    pub chaos: Option<ChaosConfig>,
    /// At most one injected malfunction.
    pub fault: Option<NodeFault>,
    /// Hierarchical collective distribution: reps fan out to the tree
    /// roots and every rank relays to its subtree (must agree across the
    /// mesh — every node derives the same deterministic tree).
    pub hierarchical: bool,
    /// Directory for this node's file-backed write-ahead journal; `None`
    /// keeps the in-memory journal (the default — no durability, no I/O).
    pub wal_dir: Option<String>,
    /// This node is a restarted incarnation: replay delivered state from
    /// the journal in `wal_dir` before joining the mesh, and expect a
    /// stale mesh socket path to need unlinking.
    pub restart: bool,
}

impl NodePlan {
    /// Rebuilds the validated topology every process must agree on:
    /// parse the configuration text, bind a row-block decomposition of
    /// [`grid`](NodePlan::grid) to every referenced region, validate.
    /// Parent and children all derive the topology through this one path,
    /// so they can never disagree about shapes or connection ids.
    pub fn topology(&self) -> Result<Topology, String> {
        let config = parse(&self.config_text).map_err(|e| format!("plan config: {e}"))?;
        let grid = Extent2::new(self.grid.0, self.grid.1);
        let mut bindings = HashMap::new();
        for conn in &config.connections {
            for region in [&conn.exporter, &conn.importer] {
                let procs = config
                    .program(&region.program)
                    .ok_or_else(|| format!("plan config: unknown program {}", region.program))?
                    .procs;
                let d = Decomposition::row_block(grid, procs)
                    .map_err(|e| format!("plan decomposition: {e}"))?;
                bindings.insert(region.clone(), d);
            }
        }
        Topology::from_config(&config, &bindings).map_err(|e| format!("plan topology: {e}"))
    }

    /// The per-connection export buffer capacity of the node hosting
    /// program `prog` (`topo` is this plan's [`topology`](Self::topology)):
    /// [`NODE_BUFFER_CAPACITY`], or more where the schedules need it.
    ///
    /// Before a connection's importer makes its last request, every stall
    /// ends when a request or its answer frees space. After it, nothing
    /// frees that port again: every later export at or above the last
    /// region's lower bound `x_last − tol` stays buffered to the end of
    /// the run (every export, when the importer makes no request). The
    /// capacity is one more than the longest such tail over the
    /// connections `prog` exports on, so no export waits for a message
    /// that will never come.
    pub fn export_capacity(&self, topo: &Topology, prog: usize) -> usize {
        let program = |p: usize| topo.programs[p].name.as_str();
        let tail = |ct: &ConnTopo| {
            let Some(exp) = self
                .exports
                .iter()
                .find(|e| e.program == program(prog) && e.region == ct.exporter_region)
            else {
                return 0;
            };
            let last_lo = self
                .imports
                .iter()
                .find(|i| i.program == program(ct.importer_prog) && i.region == ct.importer_region)
                .filter(|i| i.count > 0)
                .map(|i| i.t0 + (i.count - 1) as f64 * i.dt - ct.tolerance.value());
            (0..exp.count)
                .filter(|&k| last_lo.is_none_or(|lo| exp.t0 + k as f64 * exp.dt >= lo))
                .count()
        };
        let longest = topo
            .conns
            .iter()
            .filter(|ct| ct.exporter_prog == prog)
            .map(tail)
            .max()
            .unwrap_or(0);
        NODE_BUFFER_CAPACITY.max(longest + 1)
    }
}

/// What one node reports home after draining: its exporters' statistics
/// and traces, its importers' outcomes, and its counter snapshot. The
/// orchestrator merges these into the session-wide view.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeReport {
    /// The reporting program's index.
    pub prog: usize,
    /// Per-connection exporter statistics, `(connection, per-rank stats)`;
    /// connections this program does not export carry an empty vector.
    pub stats: Vec<(u32, Vec<ExportStats>)>,
    /// Recorded traces, `(program, rank, connection, trace)`.
    pub traces: Vec<(usize, usize, u32, Trace)>,
    /// Rank-0 import outcomes per imported connection, `(connection,
    /// matched timestamp per import)`.
    pub matches: Vec<(u32, Vec<Option<f64>>)>,
    /// Per-importer-rank completion: `(prog, rank, imports done, error)`.
    pub imports_done: Vec<(usize, usize, u64, Option<String>)>,
    /// Exporter-thread failures: `(prog, rank, error)`.
    pub export_errors: Vec<(usize, usize, String)>,
    /// The fabric shutdown error, if draining failed.
    pub shutdown_error: Option<String>,
    /// This process's counter snapshot.
    pub counters: CounterSnapshot,
}

// --- small frames ---

/// Encodes the bootstrap (or, with [`KIND_MESH_HELLO`], mesh) hello. Its
/// layout never changes with [`RT_VERSION`]: skew must stay detectable.
pub fn encode_hello(kind: u8, token: &str, prog: usize) -> Vec<u8> {
    wire::frame(kind, &(RT_VERSION, token.to_string(), prog as u32))
}

/// Decodes a hello body into `(version, token, claimed program)`.
pub fn decode_hello(body: &[u8]) -> Result<(u32, String, usize), WireError> {
    let (version, token, prog): (u32, String, u32) = wire::decode(body)?;
    Ok((version, token, prog as usize))
}

/// Encodes a fatal-error frame.
pub fn encode_fatal(reason: &str) -> Vec<u8> {
    wire::frame(KIND_FATAL, &reason.to_string())
}

/// Decodes a fatal-error body.
pub fn decode_fatal(body: &[u8]) -> Result<String, WireError> {
    wire::decode(body)
}

/// Encodes a single-string frame (used by [`KIND_LISTENING`]).
pub fn encode_listening(addr: &str) -> Vec<u8> {
    wire::frame(KIND_LISTENING, &addr.to_string())
}

/// Decodes a [`KIND_LISTENING`] body.
pub fn decode_listening(body: &[u8]) -> Result<String, WireError> {
    wire::decode(body)
}

/// Encodes the peer address table, indexed by program.
pub fn encode_peers(addrs: &[String]) -> Vec<u8> {
    wire::frame(KIND_PEERS, &addrs.to_vec())
}

/// Decodes a [`KIND_PEERS`] body.
pub fn decode_peers(body: &[u8]) -> Result<Vec<String>, WireError> {
    wire::decode(body)
}

/// Encodes a body-less frame ([`KIND_READY`], [`KIND_GO`],
/// [`KIND_APP_DONE`], [`KIND_DRAIN`], [`KIND_MESH_BYE`]).
pub fn encode_bare(kind: u8) -> Vec<u8> {
    wire::encode_frame(kind, &[])
}

// --- fabric traffic envelopes ---

/// A tag byte (0 rep, 1 process), the program and the rank (0 for a rep),
/// all three always present: nine bytes.
impl Wire for Endpoint {
    fn put(&self, w: &mut BodyWriter) {
        let (tag, prog, rank) = match *self {
            Endpoint::Rep { prog } => (0u8, prog, 0),
            Endpoint::Proc { prog, rank } => (1u8, prog, rank),
        };
        (tag, prog as u32, rank as u32).put(w);
    }
    fn take(r: &mut BodyReader) -> Result<Self, WireError> {
        let (tag, prog, rank): (u8, u32, u32) = Wire::take(r)?;
        let (prog, rank) = (prog as usize, rank as usize);
        match tag {
            0 => Ok(Endpoint::Rep { prog }),
            1 => Ok(Endpoint::Proc { prog, rank }),
            tag => Err(WireError::BadTag {
                what: "endpoint",
                tag,
            }),
        }
    }
}

wire_struct!(WireMeta { from, seq, ord });

/// Encodes a routed control message for the wire: destination endpoint,
/// optional reliability metadata, then the proto-layer `CtrlMsg` body, all
/// written into the frame in place.
pub fn encode_ctrl_env(to: Endpoint, meta: Option<&WireMeta>, msg: &CtrlMsg) -> Vec<u8> {
    wire::frame(KIND_CTRL, &(to, meta.copied(), *msg))
}

/// Decodes a [`KIND_CTRL`] body.
pub fn decode_ctrl_env(body: &[u8]) -> Result<(Endpoint, Option<WireMeta>, CtrlMsg), WireError> {
    wire::decode(body)
}

/// Encodes a reliability ack for the directed link `sender → acker`.
pub fn encode_ack_env(sender: Endpoint, acker: Endpoint, seq: u64) -> Vec<u8> {
    wire::frame(KIND_ACK, &(sender, acker, seq))
}

/// Decodes a [`KIND_ACK`] body into `(sender, acker, seq)`.
pub fn decode_ack_env(body: &[u8]) -> Result<(Endpoint, Endpoint, u64), WireError> {
    wire::decode(body)
}

/// Converts a layout rectangle to its wire form.
pub fn wire_rect(r: Rect) -> WireRect {
    WireRect {
        row0: r.row0 as u64,
        col0: r.col0 as u64,
        rows: r.rows as u64,
        cols: r.cols as u64,
    }
}

/// Converts a wire rectangle back to the layout form.
pub fn rect_from(r: WireRect) -> Rect {
    Rect::new(
        r.row0 as usize,
        r.col0 as usize,
        r.rows as usize,
        r.cols as usize,
    )
}

// --- plan and report records ---

wire_struct!(ExportSpec {
    program,
    region,
    t0,
    dt,
    count,
    compute
});
wire_struct!(ImportSpec {
    program,
    region,
    t0,
    dt,
    count,
    compute,
    startup
});
wire_enum!(CrashTarget, "crash target" {
    0 => Rep(prog),
    1 => Agent { prog, rank },
});
wire_struct!(CrashFault {
    target,
    after_msgs,
    restart_after
});
wire_struct!(ChaosConfig {
    seed,
    max_delay,
    duplicate_prob,
    break_prob,
    crash
});
wire_enum!(NodeFault, "node fault" {
    1 => AbortAfterExports { prog, rank, after },
    2 => StallMeshReader { prog },
    3 => DropAnswers { conn },
    4 => DrainEarly { prog },
    5 => SeverLink { prog, peer, after_tx },
});
wire_struct!(NodePlan {
    config_text,
    grid,
    exports,
    imports,
    buddy_help,
    import_timeout_s,
    time_scale,
    verify_values,
    traces,
    chaos,
    fault,
    hierarchical,
    wal_dir,
    restart
});

/// The fields in order, like [`wire_struct!`], except the counters: they
/// travel as their canonical JSON string (`to_json` / `from_json` loop over
/// the one counter table, histograms included), and `Wire` cannot be
/// implemented for `CounterSnapshot` outside the crates of the two.
impl Wire for NodeReport {
    fn put(&self, w: &mut BodyWriter) {
        self.prog.put(w);
        self.stats.put(w);
        self.traces.put(w);
        self.matches.put(w);
        self.imports_done.put(w);
        self.export_errors.put(w);
        self.shutdown_error.put(w);
        w.str(&json::emit(&self.counters.to_json()));
    }
    fn take(r: &mut BodyReader) -> Result<Self, WireError> {
        let malformed = |what| move |_| WireError::Malformed { what };
        Ok(NodeReport {
            prog: Wire::take(r)?,
            stats: Wire::take(r)?,
            traces: Wire::take(r)?,
            matches: Wire::take(r)?,
            imports_done: Wire::take(r)?,
            export_errors: Wire::take(r)?,
            shutdown_error: Wire::take(r)?,
            counters: CounterSnapshot::from_json(
                &json::parse(r.str()?).map_err(malformed("counter snapshot json"))?,
            )
            .map_err(malformed("counter snapshot fields"))?,
        })
    }
}

/// Encodes a [`KIND_PLAN`] frame.
pub fn encode_plan(plan: &NodePlan) -> Vec<u8> {
    wire::frame(KIND_PLAN, plan)
}

/// Decodes a [`KIND_PLAN`] body.
pub fn decode_plan(body: &[u8]) -> Result<NodePlan, WireError> {
    wire::decode(body)
}

/// Encodes a [`KIND_REPORT`] frame.
pub fn encode_report(rep: &NodeReport) -> Vec<u8> {
    wire::frame(KIND_REPORT, rep)
}

/// Decodes a [`KIND_REPORT`] body.
pub fn decode_report(body: &[u8]) -> Result<NodeReport, WireError> {
    wire::decode(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::reliable::WalRecord;
    use crate::net::wal;
    use couplink_proto::wire::FrameDecoder;
    use couplink_proto::{ConnectionId, ProcResponse, Rank, RepAnswer, RequestId};
    use couplink_proto::{TraceEvent, TreeRole};
    use couplink_time::ts;

    fn one_frame(bytes: &[u8]) -> (u8, Vec<u8>) {
        let mut dec = FrameDecoder::new();
        dec.extend(bytes);
        let f = dec.next_frame().unwrap().expect("complete frame");
        assert!(dec.next_frame().unwrap().is_none(), "single frame");
        (f.kind, f.body)
    }

    #[test]
    fn hello_roundtrip() {
        let (kind, body) = one_frame(&encode_hello(KIND_HELLO, "tok-1", 3));
        assert_eq!(kind, KIND_HELLO);
        assert_eq!(
            decode_hello(&body).unwrap(),
            (RT_VERSION, "tok-1".into(), 3)
        );
    }

    #[test]
    fn ctrl_envelope_roundtrip() {
        let msg = CtrlMsg::Answer {
            conn: ConnectionId(2),
            req: RequestId(7),
            answer: RepAnswer::Match(ts(4.5)),
        };
        let meta = WireMeta {
            from: Endpoint::Rep { prog: 1 },
            seq: 42,
            ord: Some(3),
        };
        let to = Endpoint::Proc { prog: 0, rank: 5 };
        let (kind, body) = one_frame(&encode_ctrl_env(to, Some(&meta), &msg));
        assert_eq!(kind, KIND_CTRL);
        let (to2, meta2, msg2) = decode_ctrl_env(&body).unwrap();
        assert_eq!(to2, to);
        assert_eq!(meta2, Some(meta));
        assert_eq!(msg2, msg);
    }

    #[test]
    fn ack_envelope_roundtrip() {
        let s = Endpoint::Proc { prog: 2, rank: 1 };
        let a = Endpoint::Rep { prog: 0 };
        let (kind, body) = one_frame(&encode_ack_env(s, a, 99));
        assert_eq!(kind, KIND_ACK);
        assert_eq!(decode_ack_env(&body).unwrap(), (s, a, 99));
    }

    /// A plan with every optional part present: chaos with a crash, a
    /// node fault, traces, a journal directory.
    fn full_plan() -> NodePlan {
        NodePlan {
            config_text: "E0 c0 /bin/e0 2\nI0 c0 /bin/i0 2\n#\nE0.r I0.m REG 0.25\n".into(),
            grid: (8, 8),
            exports: vec![ExportSpec {
                program: "E0".into(),
                region: 0,
                t0: 0.5,
                dt: 0.25,
                count: 12,
                compute: vec![0.01, 0.02],
            }],
            imports: vec![ImportSpec {
                program: "I0".into(),
                region: 0,
                t0: 1.0,
                dt: 0.5,
                count: 4,
                compute: 0.05,
                startup: 0.1,
            }],
            buddy_help: true,
            import_timeout_s: 5.0,
            time_scale: 0.2,
            verify_values: true,
            traces: vec![(0, 0, 0), (0, 1, 0)],
            chaos: Some(ChaosConfig {
                seed: 17,
                max_delay: 0.01,
                duplicate_prob: 0.2,
                break_prob: 0.2,
                crash: Some(CrashFault {
                    target: CrashTarget::Rep(1),
                    after_msgs: 5,
                    restart_after: Some(0.6),
                }),
            }),
            fault: Some(NodeFault::SeverLink {
                prog: 0,
                peer: 1,
                after_tx: 3,
            }),
            hierarchical: true,
            wal_dir: Some("/tmp/wal-x".into()),
            restart: true,
        }
    }

    #[test]
    fn plan_roundtrip_with_chaos_and_fault() {
        let plan = full_plan();
        let (kind, body) = one_frame(&encode_plan(&plan));
        assert_eq!(kind, KIND_PLAN);
        assert_eq!(decode_plan(&body).unwrap(), plan);
        // The embedded config round-trips into a buildable topology.
        let topo = plan.topology().unwrap();
        assert_eq!(topo.programs.len(), 2);
        assert_eq!(topo.conns.len(), 1);
    }

    /// Export capacity of program 0 under `config`, with `E0` exporting 40
    /// times at 0.5, 1.0, …, 20.0 and each `(importer, count)` importing
    /// `count` times on the same grid of timestamps.
    fn capacity(config: &str, imports: &[(&str, usize)]) -> usize {
        let (t0, dt) = (0.5, 0.5);
        let plan = NodePlan {
            config_text: config.into(),
            exports: vec![ExportSpec {
                program: "E0".into(),
                region: 0,
                t0,
                dt,
                count: 40,
                compute: vec![0.0; 2],
            }],
            imports: imports
                .iter()
                .map(|&(program, count)| ImportSpec {
                    program: program.into(),
                    region: 0,
                    t0,
                    dt,
                    count,
                    compute: 0.0,
                    startup: 0.0,
                })
                .collect(),
            fault: None,
            chaos: None,
            ..full_plan()
        };
        plan.export_capacity(&plan.topology().unwrap(), 0)
    }

    /// The node's pacing capacity: the constant when the importer's last
    /// request leaves at most one export behind it, otherwise one more
    /// than the exports at or above `x_last − tol` — all 40 when the
    /// importer never requests — and the longest tail over the
    /// connections a region feeds. Programs that export nothing get the
    /// constant.
    #[test]
    fn export_capacity_covers_the_tail_after_the_last_request() {
        let pair = "E0 c0 /bin/e0 2\nI0 c0 /bin/i0 2\n#\nE0.r I0.m REG 0.125\n";
        assert_eq!(capacity(pair, &[("I0", 40)]), NODE_BUFFER_CAPACITY);
        // Last request at 2.0: exports 2.0 ..= 20.0 stay buffered.
        assert_eq!(capacity(pair, &[("I0", 4)]), 37 + 1);
        assert_eq!(capacity(pair, &[("I0", 0)]), 40 + 1);
        assert_eq!(capacity(pair, &[]), 40 + 1);
        let fan_out = "E0 c0 /bin/e0 2\nI0 c0 /bin/i0 2\nI1 c0 /bin/i1 1\n#\n\
                       E0.r I0.m REG 0.125\nE0.r I1.m REGL 1.0\n";
        // I1's last request at 5.0 with tolerance 1.0: 4.0 ..= 20.0.
        assert_eq!(capacity(fan_out, &[("I0", 40), ("I1", 10)]), 33 + 1);
        assert_eq!(
            capacity(fan_out, &[("I0", 38), ("I1", 40)]),
            NODE_BUFFER_CAPACITY
        );
        let plan = full_plan();
        assert_eq!(
            plan.export_capacity(&plan.topology().unwrap(), 1),
            NODE_BUFFER_CAPACITY
        );
    }

    /// A report with stats, a trace of every event kind, matches and
    /// every kind of error.
    fn full_report() -> NodeReport {
        let mut counters = CounterSnapshot {
            net_frames: 7,
            ..Default::default()
        };
        counters.ctrl_sent[1] = 3;
        counters.occupancy[2] = 5;
        NodeReport {
            prog: 1,
            stats: vec![
                (
                    0,
                    vec![ExportStats {
                        requests: 4,
                        exports: 12,
                        memcpys: 3,
                        skips: 9,
                        sends: 4,
                        freed_sent: 4,
                        freed_unsent: 2,
                        buddy_helps: 1,
                        buffered_hwm: 2,
                        buffer_full_stalls: 0,
                        unnecessary_by_request: vec![0, 1, 0, 2],
                        unnecessary_inter_region: 1,
                    }],
                ),
                (1, Vec::new()),
            ],
            traces: vec![(
                0,
                0,
                0,
                Trace::from_events(vec![
                    TraceEvent::Export {
                        t: ts(1.5),
                        copied: true,
                    },
                    TraceEvent::Request {
                        x: ts(2.0),
                        reply: ProcResponse::Pending {
                            latest: Some(ts(1.5)),
                        },
                    },
                    TraceEvent::BuddyHelp {
                        x: ts(2.0),
                        answer: RepAnswer::NoMatch,
                    },
                    TraceEvent::Remove {
                        freed: vec![ts(1.5), ts(1.75)],
                    },
                    TraceEvent::Send { m: ts(2.25) },
                ]),
            )],
            matches: vec![(0, vec![Some(1.5), None, Some(2.25)])],
            imports_done: vec![(1, 0, 4, None), (1, 1, 2, Some("import timed out".into()))],
            export_errors: vec![(0, 1, "process crashed: boom".into())],
            shutdown_error: Some("rep failed: x".into()),
            counters,
        }
    }

    #[test]
    fn report_roundtrip() {
        let rep = full_report();
        let (kind, body) = one_frame(&encode_report(&rep));
        assert_eq!(kind, KIND_REPORT);
        assert_eq!(decode_report(&body).unwrap(), rep);
    }

    /// One control message of every variant.
    fn every_ctrl_msg() -> Vec<CtrlMsg> {
        let (conn, req, rank) = (ConnectionId(2), RequestId(7), Rank(1));
        let answer = RepAnswer::Match(ts(4.5));
        let resp = |resp| CtrlMsg::Response {
            conn,
            req,
            rank,
            resp,
        };
        vec![
            CtrlMsg::ImportCall {
                conn,
                rank,
                ts: ts(5.0),
            },
            CtrlMsg::ImportRequest {
                conn,
                req,
                ts: ts(5.0),
            },
            CtrlMsg::ForwardRequest {
                conn,
                req,
                ts: ts(5.0),
            },
            resp(ProcResponse::Match(ts(4.5))),
            resp(ProcResponse::NoMatch),
            resp(ProcResponse::Pending { latest: None }),
            resp(ProcResponse::Pending {
                latest: Some(ts(3.5)),
            }),
            CtrlMsg::BuddyHelp { conn, req, answer },
            CtrlMsg::Answer {
                conn,
                req,
                answer: RepAnswer::NoMatch,
            },
            CtrlMsg::AnswerBcast { conn, req, answer },
            CtrlMsg::Coalesced {
                conn,
                req,
                answer,
                role: TreeRole::Bcast,
            },
            CtrlMsg::Coalesced {
                conn,
                req,
                answer,
                role: TreeRole::Help,
            },
            CtrlMsg::Ack { seq: 9 },
        ]
    }

    /// Hostile bytes: every proper prefix of a full body is `Truncated`,
    /// one trailing byte is refused, and overwriting any one byte yields a
    /// value or a typed error — never a panic. Swept over PLAN, REPORT, a
    /// control envelope per message variant, the ack envelope and both
    /// journal records.
    #[test]
    fn cut_padded_or_corrupted_records_are_typed_errors() {
        fn sweep<T: std::fmt::Debug>(frame: &[u8], decode: impl Fn(&[u8]) -> Result<T, WireError>) {
            let (_, body) = one_frame(frame);
            decode(&body).expect("the intact body decodes");
            for cut in 0..body.len() {
                let got = decode(&body[..cut]);
                assert!(
                    matches!(got, Err(WireError::Truncated)),
                    "cut {cut}: {got:?}"
                );
            }
            let mut padded = body.clone();
            padded.push(0);
            let trailing = "trailing bytes";
            let got = decode(&padded);
            assert!(matches!(got, Err(WireError::Malformed { what }) if what == trailing));
            for at in 0..body.len() {
                for byte in [0x00, 0x7F, 0xEE, 0xFF] {
                    let mut corrupt = body.clone();
                    corrupt[at] = byte;
                    let _ = decode(&corrupt);
                }
            }
        }
        sweep(&encode_plan(&full_plan()), decode_plan);
        sweep(&encode_report(&full_report()), decode_report);
        let (rep, proc_) = (
            Endpoint::Rep { prog: 1 },
            Endpoint::Proc { prog: 0, rank: 5 },
        );
        let meta = WireMeta {
            from: rep,
            seq: 42,
            ord: Some(3),
        };
        for (i, msg) in every_ctrl_msg().into_iter().enumerate() {
            let meta = [None, Some(WireMeta { ord: None, ..meta }), Some(meta)][i % 3];
            sweep(
                &encode_ctrl_env(proc_, meta.as_ref(), &msg),
                decode_ctrl_env,
            );
        }
        sweep(&encode_ack_env(proc_, rep, 99), decode_ack_env);
        let records = [
            WalRecord::Delivered {
                ep: rep,
                meta,
                msg: every_ctrl_msg()[3],
            },
            WalRecord::AppExport {
                ep: proc_,
                region: 2,
                ts: ts(0.5),
            },
        ];
        for rec in records {
            let frame = wal::encode_record(&rec);
            sweep(&frame, |b| wal::decode_record(frame[3], b));
        }
    }

    #[test]
    fn every_unknown_tag_byte_is_bad_tag() {
        fn check<T: Wire + std::fmt::Debug>(what: &str, valid: &[u8]) {
            for tag in (0..=u8::MAX).filter(|t| !valid.contains(t)) {
                let mut body = vec![tag];
                body.extend([0; 32]);
                match T::take(&mut BodyReader::new(&body)) {
                    Err(WireError::BadTag { what: w, tag: t }) => assert_eq!((w, t), (what, tag)),
                    other => panic!("{what} tag {tag}: {other:?}"),
                }
            }
        }
        check::<bool>("bool", &[0, 1]);
        check::<Option<u64>>("bool", &[0, 1]);
        check::<Endpoint>("endpoint", &[0, 1]);
        check::<CrashTarget>("crash target", &[0, 1]);
        check::<NodeFault>("node fault", &[1, 2, 3, 4, 5]);
        check::<CtrlMsg>("ctrl message", &[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        check::<TreeRole>("coalesced roles", &[1, 2]);
        check::<ProcResponse>("proc response", &[1, 2, 3, 4]);
        check::<RepAnswer>("rep answer", &[1, 2]);
        check::<TraceEvent>("trace event", &[1, 2, 3, 4, 5]);
    }

    /// A non-finite timestamp in a trace is malformed input, not a panic.
    #[test]
    fn non_finite_trace_timestamp_is_malformed() {
        let mut body = BodyWriter::new();
        body.u8(5);
        body.f64(f64::NAN);
        let body = body.into_body();
        let got = wire::decode::<TraceEvent>(&body);
        assert!(matches!(got, Err(WireError::Malformed { what }) if what == "timestamp"));
    }
}
