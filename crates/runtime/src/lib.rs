//! Runtimes that drive the `couplink-proto` state machines.
//!
//! The protocol layer is sans-IO; this crate supplies the three environments
//! it runs in:
//!
//! * [`des`] — a deterministic single-threaded **discrete-event simulator**
//!   with a virtual clock and a calibrated [`cost::CostModel`] (memcpy
//!   bandwidth, control-message latency, network bandwidth). This is how the
//!   paper's figures are regenerated exactly and repeatably: the same
//!   configuration always produces the same per-iteration export-time
//!   series. Its one entry point is [`TopologySim`]; the paper's
//!   exporter→importer pair is the topology [`Topology::pair`].
//! * [`threaded`] — an in-process **multi-program fabric**: application
//!   threads call `export` / `import`; the protocol runs as agent, rep and
//!   importer tasks on a pooled executor, exchanging messages
//!   through per-task mailboxes, and buffering performs *real* memcpys of
//!   real `f64` arrays. The `couplink` session API, the examples and the
//!   end-to-end benchmark run on it; it exhibits the paper's timing races.
//! * [`net`] — the **socket transport**: each program is its own OS process
//!   (the `couplink-node` binary), coupled over UDS or loopback TCP with the
//!   `couplink-proto` wire codec. Each process hosts a *partial* threaded
//!   session; only import requests, collective answers, acks, and payload
//!   pieces cross the wire.
//!
//! All three implement the same protocol flow (§4 of the paper):
//! importer processes make collective `import` calls through their rep; the
//! exporter rep forwards each request to every exporter process, aggregates
//! the collective responses, answers the importer, and (optionally) sends
//! buddy-help to the PENDING processes. That flow is implemented **once**,
//! in [`engine`], as runtime-agnostic nodes consuming control messages and
//! emitting [`engine::Outgoing`] effects, with one send step and one
//! receive step ([`engine::reliable`]); the runtimes are thin drivers
//! moving those messages — the simulator through its event queue with
//! modelled latencies, the fabric through task mailboxes. All accept
//! arbitrary multi-program topologies ([`engine::Topology`]), not just a
//! single exporter→importer pair.

#![warn(missing_docs)]

pub mod cost;
pub mod des;
pub mod engine;
mod facade;
pub mod net;
pub mod threaded;

pub use cost::CostModel;
pub use des::topo::{
    ExportSchedule, ExportSeries, ImportSchedule, SimError, TopoReport, TopologyConfig, TopologySim,
};
pub use engine::{
    ActionKind, ChaosConfig, ChaosState, CrashFault, CrashTarget, Faults, Knobs, Mutation,
    OracleViolation, Reliability, RunSpec, Topology, TopologyError,
};
pub use threaded::{
    fabric_task_count, ExportAccess, Fabric, FabricOptions, FabricReport, ImportAccess,
    ThreadedError,
};
