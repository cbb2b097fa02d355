//! Socket transport: each coupled program as its own OS process.
//!
//! The in-process runtimes (DES and threaded) share one protocol engine;
//! this module puts that same engine behind real sockets. A parent
//! orchestrator ([`bootstrap::run_plan`]) spawns one `couplink-node`
//! process per program, walks them through a versioned, token-checked
//! handshake, and hands each a [`codec::NodePlan`] from which every
//! process independently rebuilds the *same* validated topology. The
//! nodes then form a full socket mesh (UDS or TCP, one socket per program
//! pair) and run a *partial* fabric session — only their own program's
//! ranks, reps, and stores exist locally; everything foreign travels as
//! length-prefixed, checksummed frames ([`couplink_proto::wire`]).
//!
//! Only four message families ever cross the wire — import requests,
//! collective answers, their acks, and payload pieces — because the
//! collective semantics of export/import already concentrate all
//! inter-program coupling in the rep/agent protocol. Reliability
//! (resend when a link re-forms, failover, buddy-help) runs unchanged on
//! top; TCP's in-order delivery is treated as a fast path, not a
//! correctness assumption.
//!
//! Submodules: [`link`] (backends, framing, the write path), [`codec`]
//! (runtime envelopes and the bootstrap vocabulary), [`node`] (the child
//! process), [`bootstrap`] (the parent).

pub mod bootstrap;
pub mod codec;
pub mod link;
pub mod node;
pub mod wal;

pub use bootstrap::{run_plan, BootstrapError, KillSpec, NetOptions, NetReport};
pub use codec::{ExportSpec, ImportSpec, NodeFault, NodePlan, NodeReport};
pub use link::{Addr, NetError, SocketBackend};
pub use node::{node_main, NodeArgs};
pub use wal::{FileWal, WalError};

use std::path::PathBuf;

/// Locates the `couplink-node` binary for callers outside `cargo test`'s
/// own crate (where `env!("CARGO_BIN_EXE_...")` is unavailable): honours
/// `COUPLINK_NODE_BIN`, then looks next to the current executable
/// (popping a trailing `deps` directory, which is where test binaries
/// live). Returns `None` when no candidate exists.
pub fn default_node_bin() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("COUPLINK_NODE_BIN") {
        let p = PathBuf::from(p);
        return p.exists().then_some(p);
    }
    let mut dir = std::env::current_exe().ok()?;
    dir.pop();
    if dir.file_name().is_some_and(|n| n == "deps") {
        dir.pop();
    }
    let candidate = dir.join("couplink-node");
    candidate.exists().then_some(candidate)
}
