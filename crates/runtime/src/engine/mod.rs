//! The runtime-agnostic coupling engine.
//!
//! The paper's protocol — collective import requests aggregated by a rep,
//! the five legal response sets, buddy-help, acceptable-region pruning — is
//! implemented once, here, as message-passing between small *nodes*:
//!
//! - [`ExportNode`]: one per exporting process; all its exported regions,
//!   each region one [`couplink_proto::MultiExport`] (one port per
//!   connection over one shared object store).
//! - [`RepNode`]: one per program; aggregates collective import calls and
//!   export responses for every connection the program touches.
//! - [`ImportNode`]: one per importing process; one
//!   [`couplink_proto::ImportPort`] per imported region.
//!
//! Nodes consume [`couplink_proto::CtrlMsg`] values (`on_msg`) and emit
//! [`Outgoing`] messages in a deterministic order; the per-message send and
//! receive disciplines live in [`reliable`] ([`reliable::send_step`],
//! [`Reliability::admit`]). A runtime supplies only what is its own: a
//! [`Clock`], how a delivery is scheduled, where acks travel and where the
//! journal lives (see `DESIGN.md`, "What a runtime supplies").
//!
//! The topology itself ([`Topology`]) is runtime-neutral: N programs, any
//! acyclic-or-cyclic set of connections, multi-importer export regions.

pub mod chaos;
pub mod node;
pub mod oracle;
pub mod reliable;
pub mod topology;
pub mod tree;

pub use chaos::{ChaosConfig, ChaosState, CrashFault, CrashTarget};
pub use node::{EngineError, ExportFx, ExportNode, ImportNode, RepCrash, RepNode};
pub use oracle::OracleViolation;
pub use reliable::{
    send_step, Expiry, MemWal, Reliability, RetryPolicy, SendDecision, SendKind, Wal, WalRecord,
    WireMeta,
};
pub use topology::{
    ConnTopo, ExportRegionTopo, ImportRegionTopo, ProgramTopo, Topology, TopologyError,
};

use couplink_metrics::CtrlClass;
use couplink_proto::export_port::ExportAction;
use couplink_proto::{ConnectionId, CtrlMsg, RequestId};
use couplink_time::Timestamp;

/// Classifies a control message for instrumentation ([`CtrlClass`] lives in
/// `couplink-metrics`, which knows nothing about the protocol types).
pub fn ctrl_class(msg: &CtrlMsg) -> CtrlClass {
    match msg {
        CtrlMsg::ImportCall { .. } => CtrlClass::ImportCall,
        CtrlMsg::ImportRequest { .. } => CtrlClass::ImportRequest,
        CtrlMsg::ForwardRequest { .. } => CtrlClass::ForwardRequest,
        CtrlMsg::Response { .. } => CtrlClass::Response,
        CtrlMsg::BuddyHelp { .. } => CtrlClass::BuddyHelp,
        CtrlMsg::Answer { .. } => CtrlClass::Answer,
        CtrlMsg::AnswerBcast { .. } => CtrlClass::AnswerBcast,
        // A coalesced tree frame is classed by its dominant role: the
        // importer-side answer broadcast when present, otherwise the folded
        // buddy-help announcement.
        CtrlMsg::Coalesced { bcast: true, .. } => CtrlClass::AnswerBcast,
        CtrlMsg::Coalesced { .. } => CtrlClass::BuddyHelp,
        CtrlMsg::Ack { .. } => CtrlClass::Ack,
    }
}

/// Where a control message is headed. The `Ord` impl gives the reliability
/// layer a deterministic link iteration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// A coupled process of a program.
    Proc {
        /// Program index in the topology.
        prog: usize,
        /// Process rank within the program.
        rank: usize,
    },
    /// A program's rep process.
    Rep {
        /// Program index in the topology.
        prog: usize,
    },
}

/// One message a node wants moved.
#[derive(Debug, Clone, PartialEq)]
pub enum Outgoing {
    /// A control message for an endpoint.
    Ctrl {
        /// Destination.
        to: Endpoint,
        /// The message.
        msg: CtrlMsg,
    },
    /// One hop of a tree frame a rank forwards down its subtree. The node
    /// decides *whether* a relay happens; the runtime only how the hop is
    /// metered (as `ctrl_relay`, not per-class origin traffic) and moved.
    Relay {
        /// The tree child.
        to: Endpoint,
        /// The relayed frame.
        msg: CtrlMsg,
    },
    /// A matched object must be transferred from the emitting process to
    /// the connection's importer. The transport expands this into one piece
    /// per destination rank using the connection's redistribution plan.
    Transfer {
        /// The connection whose match is being served.
        conn: ConnectionId,
        /// The request the transfer answers.
        req: RequestId,
        /// Timestamp of the matched object.
        m: Timestamp,
    },
}

/// What happened to one export call (Figure-4 series data point kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ActionKind {
    /// Copied into the framework buffer.
    Copy,
    /// Copied and immediately sent (the known match).
    CopySend,
    /// Memcpy skipped.
    Skip,
}

impl From<ExportAction> for ActionKind {
    fn from(a: ExportAction) -> Self {
        match a {
            ExportAction::Buffer => ActionKind::Copy,
            ExportAction::BufferAndSend { .. } => ActionKind::CopySend,
            ExportAction::Skip => ActionKind::Skip,
        }
    }
}

/// Which node of a process a delivered control message is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcSide {
    /// The rank's [`ExportNode`]: forwarded requests and buddy-help.
    Export,
    /// The rank's [`ImportNode`]: collective answers.
    Import,
}

/// Routes a message addressed to a process endpoint to the node that
/// consumes it, with the connection it concerns (`None` for rep-only and
/// link-layer messages).
pub fn proc_side(msg: &CtrlMsg) -> Option<(ProcSide, ConnectionId)> {
    match *msg {
        CtrlMsg::ForwardRequest { conn, .. }
        | CtrlMsg::BuddyHelp { conn, .. }
        | CtrlMsg::Coalesced {
            conn, bcast: false, ..
        } => Some((ProcSide::Export, conn)),
        CtrlMsg::AnswerBcast { conn, .. }
        | CtrlMsg::Coalesced {
            conn, bcast: true, ..
        } => Some((ProcSide::Import, conn)),
        _ => None,
    }
}

/// What time means for one runtime: virtual seconds in the simulator,
/// wall-clock seconds in the threaded fabric.
pub trait Clock {
    /// Seconds since the runtime's epoch.
    fn now(&self) -> f64;
}
