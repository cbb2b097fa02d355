//! The older per-runtime descriptions of a run, kept field for field as a
//! boundary: [`TopologyConfig`] (the simulator's), and [`NodePlan`] with
//! its [`ExportSpec`] / [`ImportSpec`] (the PLAN frame's wire form). Each
//! converts to the one [`RunSpec`] the runtimes read, here and nowhere
//! else. New knobs go on [`Knobs`], not on these types.

use std::time::Duration;

use couplink_layout::Extent2;
use couplink_proto::ConnectionId;

use crate::cost::CostModel;
use crate::engine::{
    ChaosConfig, ExportSchedule, Faults, ImportSchedule, Knobs, RunSpec, Topology,
};
use crate::net::NodeFault;

/// The simulator's configuration: a [`RunSpec`] with three knobs and a
/// cost model (see [`TopologyConfig::into_spec`]).
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// The coupling topology.
    pub topology: Topology,
    /// One schedule per exported region (all must be covered).
    pub exports: Vec<ExportSchedule>,
    /// One schedule per imported region (all must be covered).
    pub imports: Vec<ImportSchedule>,
    /// [`Knobs::buddy_help`].
    pub buddy_help: bool,
    /// Operation costs.
    pub cost: CostModel,
    /// [`Knobs::buffer_capacity`].
    pub buffer_capacity: Option<usize>,
    /// [`Knobs::hierarchical`].
    pub hierarchical: bool,
}

impl TopologyConfig {
    /// The run this configuration describes, and its cost model.
    pub fn into_spec(self) -> (RunSpec, CostModel) {
        let (topology, exports, imports) = (self.topology, self.exports, self.imports);
        let mut spec = RunSpec {
            topology,
            exports,
            imports,
            ..RunSpec::default()
        };
        let k = &mut spec.knobs;
        k.buddy_help = self.buddy_help;
        k.buffer_capacity = self.buffer_capacity;
        k.hierarchical = self.hierarchical;
        (spec, self.cost)
    }
}

/// An [`ExportSchedule`] keyed by the region's index among its program's
/// exported regions.
pub type ExportSpec = ExportSchedule<usize>;

/// An [`ImportSchedule`] keyed by the region's index among its program's
/// imported regions.
pub type ImportSpec = ImportSchedule<usize>;

/// Everything a `couplink-node` child needs to run its share of a session,
/// as the PLAN frame carries it: the configuration text (re-parsed and
/// re-validated in-process), the grid shape that fixes every region's
/// decomposition, the run's schedules and knobs
/// ([`NodePlan::run_spec`]), and the fields only a node reads.
#[derive(Debug, Clone, PartialEq)]
pub struct NodePlan {
    /// Configuration text in the deployer format (Figure 2 of the paper).
    pub config_text: String,
    /// Global grid `(rows, cols)`, row-blocked over every region's program.
    pub grid: (usize, usize),
    /// Export schedules, one per exported region.
    pub exports: Vec<ExportSpec>,
    /// Import schedules, one per imported region.
    pub imports: Vec<ImportSpec>,
    /// [`Knobs::buddy_help`].
    pub buddy_help: bool,
    /// [`Knobs::import_timeout`], in seconds.
    pub import_timeout_s: f64,
    /// Multiplier applied to every schedule sleep.
    pub time_scale: f64,
    /// Whether importers check every landed cell against the exporters' fill.
    pub verify_values: bool,
    /// [`Knobs::traces`]; each node arms only its own program's.
    pub traces: Vec<(usize, usize, u32)>,
    /// The chaos of [`Knobs::faults`], armed identically in every node
    /// (loss is drawn at the sender, crash targets fire only where hosted).
    pub chaos: Option<ChaosConfig>,
    /// At most one injected malfunction.
    pub fault: Option<NodeFault>,
    /// [`Knobs::hierarchical`], the same deterministic tree in every node.
    pub hierarchical: bool,
    /// Directory of this node's file-backed journal (`None`: in memory).
    pub wal_dir: Option<String>,
    /// This node is a restarted incarnation: replay delivered state from
    /// the journal in `wal_dir` before joining the mesh, and expect a
    /// stale mesh socket path to need unlinking.
    pub restart: bool,
}

impl NodePlan {
    /// The plan for `spec`'s schedules and knobs over `config_text` and
    /// `grid`: one second of wall time per schedule second, no value
    /// checks, no fault, no journal. `spec`'s topology is not read: the
    /// plan's own is rebuilt from the text ([`NodePlan::topology`]), as
    /// every node rebuilds it. Of the faults, the PLAN carries the chaos
    /// alone, and a node derives its own buffer capacity.
    pub fn from_spec(
        spec: &RunSpec,
        config_text: String,
        grid: (usize, usize),
    ) -> Result<NodePlan, String> {
        let k = &spec.knobs;
        let mut plan = NodePlan {
            config_text,
            grid,
            exports: Vec::new(),
            imports: Vec::new(),
            buddy_help: k.buddy_help,
            import_timeout_s: k.import_timeout.as_secs_f64(),
            time_scale: 1.0,
            verify_values: false,
            traces: k.traces.iter().map(|&(p, r, c)| (p, r, c.0)).collect(),
            chaos: k.faults.chaos,
            fault: None,
            hierarchical: k.hierarchical,
            wal_dir: None,
            restart: false,
        };
        let topology = plan.topology()?;
        let own = RunSpec {
            topology,
            ..RunSpec::default()
        };
        let exports = spec.exports.iter();
        let exports = exports.map(|s| Ok(s.keyed(own.export_region(s)?.1)));
        let imports = spec.imports.iter();
        let imports = imports.map(|s| Ok(s.keyed(own.import_region(s)?.1)));
        plan.exports = exports.collect::<Result<_, String>>()?;
        plan.imports = imports.collect::<Result<_, String>>()?;
        Ok(plan)
    }

    /// The run this plan describes over `topology` (its
    /// [`topology`](NodePlan::topology)), every knob it carries included;
    /// the buffer capacity is left to the node.
    pub fn run_spec(&self, topology: Topology) -> Result<RunSpec, String> {
        let name = |program: &str, imports: bool, i: usize| {
            let p = topology.program_idx(program).map(|p| &topology.programs[p]);
            let p = p.ok_or_else(|| format!("plan names unknown program {program}"))?;
            let (exported, imported) = (p.exports.get(i), p.imports.get(i));
            let n = if imports {
                imported.map(|r| &r.name)
            } else {
                exported.map(|r| &r.name)
            };
            n.cloned()
                .ok_or_else(|| format!("plan names no region {i} of {program}"))
        };
        let exports = self.exports.iter();
        let exports = exports.map(|s| Ok(s.keyed(name(&s.program, false, s.region)?)));
        let imports = self.imports.iter();
        let imports = imports.map(|s| Ok(s.keyed(name(&s.program, true, s.region)?)));
        let exports = exports.collect::<Result<_, String>>()?;
        let imports = imports.collect::<Result<_, String>>()?;
        let traced = |&(p, r, c): &(usize, usize, u32)| (p, r, ConnectionId(c));
        let knobs = Knobs {
            buddy_help: self.buddy_help,
            import_timeout: Duration::from_secs_f64(self.import_timeout_s),
            buffer_capacity: None,
            traces: self.traces.iter().map(traced).collect(),
            faults: Faults {
                chaos: self.chaos,
                ..Faults::default()
            },
            hierarchical: self.hierarchical,
        };
        Ok(RunSpec {
            topology,
            exports,
            imports,
            knobs,
        })
    }

    /// Rebuilds the validated topology every process must agree on:
    /// parse the configuration text, bind a row-block decomposition of
    /// [`grid`](NodePlan::grid) to every referenced region, validate.
    /// Parent and children all derive the topology through this one path,
    /// so they can never disagree about shapes or connection ids.
    pub fn topology(&self) -> Result<Topology, String> {
        let grid = Extent2::new(self.grid.0, self.grid.1);
        Topology::row_blocks(&self.config_text, grid).map_err(|e| format!("plan {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TopologySim;
    use couplink_layout::Decomposition;
    use couplink_time::{MatchPolicy, Tolerance};

    /// Figure 4(d) through the simulator's old entry and through the
    /// `RunSpec` it stands for, built by hand: one report, field for field.
    #[test]
    fn a_topology_config_runs_exactly_its_run_spec() {
        let grid = Extent2::new(1024, 1024);
        let topology = Topology::pair(
            Decomposition::block_2d(grid, 2, 2).unwrap(),
            Decomposition::row_block(grid, 32).unwrap(),
            MatchPolicy::RegL,
            Tolerance::new(2.5).unwrap(),
        )
        .unwrap();
        let exports = vec![ExportSchedule {
            program: "exporter".into(),
            region: "r".into(),
            t0: 1.6,
            dt: 1.0,
            count: 1001,
            compute: vec![1e-3, 1e-3, 1e-3, 2e-3],
        }];
        let imports = vec![ImportSchedule {
            program: "importer".into(),
            region: "r".into(),
            t0: 20.0,
            dt: 20.0,
            count: 50,
            compute: 0.976 / 32.0,
            startup: 1.2 / 32.0,
        }];
        let spec = RunSpec {
            topology: topology.clone(),
            exports: exports.clone(),
            imports: imports.clone(),
            knobs: Knobs::default(),
        };
        let config = TopologyConfig {
            topology,
            exports,
            imports,
            buddy_help: true,
            cost: CostModel::default(),
            buffer_capacity: None,
            hierarchical: false,
        };
        let old = TopologySim::new(config).unwrap().run().unwrap();
        let new = TopologySim::from_spec(spec, CostModel::default());
        let new = new.unwrap().run().unwrap();
        assert_eq!(old.duration, 2.2332886186666876);
        assert_eq!(old.stats[0][3].skips, 836);
        assert_eq!(new.duration, old.duration);
        assert_eq!(new.stats, old.stats);
        assert_eq!(new.matches, old.matches);
        assert_eq!(new.import_done, old.import_done);
        assert_eq!(new.metrics.counters, old.metrics.counters);
        assert_eq!(new.traces, old.traces);
        let times = |r: &crate::TopoReport| r.export_series[0].times.clone();
        assert_eq!(times(&new), times(&old));
    }
}
