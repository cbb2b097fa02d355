//! Sans-IO protocol state machines for the couplink coupling framework.
//!
//! This crate contains the *control plane* of the framework as pure state
//! machines: no threads, no clocks, no sockets. Every machine consumes events
//! (an export call, a forwarded request, a buddy-help message) and returns an
//! *effects* value describing what the driver must do (memcpy or skip, free
//! buffer entries, send a response, transfer data). The two runtimes in
//! `couplink-runtime` — the deterministic discrete-event simulator and the
//! threaded in-process fabric — drive exactly the same machines, which is how
//! the repository can both reproduce the paper's figures deterministically
//! and measure real memcpys on real hardware.
//!
//! The machines:
//!
//! * [`ExportPort`] — one per (exporting process ×
//!   connection). Decides, for every exported data object, whether the
//!   framework must buffer it (memcpy), may skip it, or must send it; answers
//!   forwarded import requests with MATCH / NO MATCH / PENDING; consumes
//!   buddy-help messages to skip buffering of objects that are already known
//!   not to be the match (§4.1 of the paper).
//! * [`ExporterRep`] — the exporting program's
//!   representative: forwards requests, aggregates the collective responses,
//!   validates Property 1 (the five legal response sets), answers the
//!   importer, and emits buddy-help to PENDING processes.
//! * [`ImporterRep`] / [`ImportPort`]
//!   — the importing program's side: collective import calls, answer
//!   broadcast, and per-process transfer completion tracking.
//!
//! Statistics ([`stats`]) implement the paper's Equations (1)–(2): the time
//! spent on *unnecessary buffering* (`T_i` per acceptable region, `T_ub`
//! total), plus memcpy/skip counters and buffer occupancy high-water marks.

#![warn(missing_docs)]

pub mod export_port;
pub mod ids;
pub mod import_port;
pub mod messages;
pub mod multi;
pub mod mutation;
pub mod rep;
pub mod stats;
pub mod trace;
pub mod wire;

pub use export_port::{
    ExportAction, ExportEffects, ExportPort, HelpEffects, PortError, RequestEffects, Resolution,
};
pub use ids::{ConnectionId, ProgramId, Rank, RequestId};
pub use import_port::{ImportError, ImportPort, ImportState};
pub use messages::{CtrlMsg, ProcResponse, RepAnswer, TreeRole};
pub use multi::{MultiExport, MultiExportEffects};
pub use mutation::Mutation;
pub use rep::{ExporterRep, ImporterRep, RepError};
pub use stats::ExportStats;
pub use trace::{Trace, TraceEvent};
pub use wire::{Frame, FrameDecoder, PayloadFrame, WireError, WireRect};
