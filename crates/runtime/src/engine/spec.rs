//! One description of a run, read by every runtime: a [`RunSpec`] is the
//! topology, one schedule per coupled region and the run's [`Knobs`]. A new
//! knob goes on [`Knobs`]; `TopologyConfig` and the PLAN's `NodePlan` only
//! convert to and from a `RunSpec` (`crates/runtime/src/facade.rs`).

use super::{Faults, Topology};
use couplink_proto::ConnectionId;
use std::time::Duration;

/// Periodic export schedule for one program's exported region, keyed by
/// the region's name; the PLAN's `ExportSpec` is the same schedule keyed
/// by the region's index among the program's exports.
#[derive(Debug, Clone, PartialEq)]
pub struct ExportSchedule<R = String> {
    /// Program name.
    pub program: String,
    /// Exported region.
    pub region: R,
    /// Timestamp of export `i` is `t0 + i * dt`.
    pub t0: f64,
    /// Timestamp step.
    pub dt: f64,
    /// Number of export iterations each process performs.
    pub count: usize,
    /// Per-rank compute seconds per iteration (index = rank).
    pub compute: Vec<f64>,
}

/// Periodic import schedule for one program's imported region, keyed like
/// [`ExportSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct ImportSchedule<R = String> {
    /// Program name.
    pub program: String,
    /// Imported region.
    pub region: R,
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

/// Gives a schedule type `keyed`: the same schedule with its region keyed
/// another way; the other fields are listed.
macro_rules! keyed {
    ($ty:ident, $($field:ident),*) => {
        impl<R> $ty<R> {
            /// This schedule with its region keyed by `region`.
            pub fn keyed<K>(&self, region: K) -> $ty<K> {
                let program = self.program.clone();
                $ty { program, region, $($field: self.$field.clone()),* }
            }
        }
    };
}
keyed!(ExportSchedule, t0, dt, count, compute);
keyed!(ImportSchedule, t0, dt, count, compute, startup);

/// How a run behaves, on every runtime that models the knob.
#[derive(Debug, Clone, PartialEq)]
pub struct Knobs {
    /// Whether the reps send buddy-help (default: enabled).
    pub buddy_help: bool,
    /// How long `import` (and a stalled bounded `export`) waits before
    /// giving up. The simulator never times out.
    pub import_timeout: Duration,
    /// Per-connection framework buffer bound in objects (`None` =
    /// unbounded, the paper's setting). A full buffer stalls its exporter
    /// until control traffic frees space (the paper's §6 scenario).
    pub buffer_capacity: Option<usize>,
    /// Connections to trace, as `(program, rank, connection)`: the named
    /// exporter process records a Figure 5-style event stream for that
    /// connection, returned in the run's report in this order.
    pub traces: Vec<(usize, usize, ConnectionId)>,
    /// The run's injected faults (default: none). Those that need it
    /// ([`Faults::needs_reliability`]) arm the reliability layer: acks,
    /// resends when a broken link re-forms, failover of a crashed rep.
    pub faults: Faults,
    /// Hierarchical collective distribution: the rep sends forwards and
    /// coalesced answers only to the roots of the deterministic
    /// [`tree`](super::tree), and every rank relays to its own subtree
    /// (metered as `ctrl_relay`).
    pub hierarchical: bool,
}

impl Default for Knobs {
    fn default() -> Self {
        Knobs {
            buddy_help: true,
            import_timeout: Duration::from_secs(30),
            buffer_capacity: None,
            traces: Vec::new(),
            faults: Faults::default(),
            hierarchical: false,
        }
    }
}

/// A whole run: who couples with whom, what each coupled region's
/// processes do, and the knobs.
#[derive(Debug, Clone, Default)]
pub struct RunSpec {
    /// The coupling topology.
    pub topology: Topology,
    /// One schedule per exported region (the simulator needs all).
    pub exports: Vec<ExportSchedule>,
    /// One schedule per imported region (the simulator needs all).
    pub imports: Vec<ImportSchedule>,
    /// How the run behaves.
    pub knobs: Knobs,
}

impl RunSpec {
    /// The `(program, region)` indices a schedule names, or why not:
    /// among them that another export schedule names the same region.
    pub fn export_region(&self, s: &ExportSchedule) -> Result<(usize, usize), String> {
        let at = self.export_idx(s)?;
        let named = self
            .exports
            .iter()
            .filter(|o| self.export_idx(o) == Ok(at))
            .count();
        if named > 1 {
            return Err(format!(
                "{}.{} has {named} export schedules",
                s.program, s.region
            ));
        }
        Ok(at)
    }

    /// The `(program, region)` indices an import schedule names, or why
    /// not: among them that another import schedule names the same region.
    pub fn import_region(&self, s: &ImportSchedule) -> Result<(usize, usize), String> {
        let at = self.import_idx(s)?;
        let named = self
            .imports
            .iter()
            .filter(|o| self.import_idx(o) == Ok(at))
            .count();
        if named > 1 {
            return Err(format!(
                "{}.{} has {named} import schedules",
                s.program, s.region
            ));
        }
        Ok(at)
    }

    fn export_idx(&self, s: &ExportSchedule) -> Result<(usize, usize), String> {
        let prog = self.program(&s.program)?;
        let region = self.topology.programs[prog].export_idx(&s.region);
        let no = || format!("{} exports no region {}", s.program, s.region);
        Ok((prog, region.ok_or_else(no)?))
    }

    fn import_idx(&self, s: &ImportSchedule) -> Result<(usize, usize), String> {
        let prog = self.program(&s.program)?;
        let region = self.topology.programs[prog].import_idx(&s.region);
        let no = || format!("{} imports no region {}", s.program, s.region);
        Ok((prog, region.ok_or_else(no)?))
    }

    fn program(&self, name: &str) -> Result<usize, String> {
        let prog = self.topology.program_idx(name);
        prog.ok_or_else(|| format!("unknown program {name}"))
    }
}
