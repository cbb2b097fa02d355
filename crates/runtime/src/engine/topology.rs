//! Validated multi-program coupling topologies.
//!
//! A [`Topology`] is the runtime-agnostic description of *who couples with
//! whom*: N programs (each with a process count and a rep), any number of
//! directed connections between exported and imported regions, and the
//! redistribution plan for each connection. Both runtimes — the
//! discrete-event simulator and the threaded fabric — are constructed from
//! the same `Topology`, which is itself built from a validated
//! [`couplink_config::Config`] plus the data decompositions the deployer
//! binds to each referenced region.

use couplink_config::{Config, RegionRef};
use couplink_layout::{Decomposition, RedistPlan};
use couplink_proto::ConnectionId;
use couplink_time::{MatchPolicy, Tolerance};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Why a configuration + decomposition binding does not form a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A connection references a region no decomposition was bound to.
    UnboundRegion(RegionRef),
    /// A bound decomposition's process count contradicts the program
    /// declaration.
    ProcsMismatch {
        /// Program name.
        program: String,
        /// Processes declared in the configuration.
        declared: usize,
        /// Processes implied by the bound decomposition.
        bound: usize,
    },
    /// A region appears as the importer of more than one connection.
    DoublyImportedRegion(RegionRef),
    /// A connection references a program the configuration does not declare.
    UnknownProgram(String),
    /// The exporter/importer decompositions of a connection cannot be
    /// redistributed into one another (e.g. different global grids).
    Layout(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnboundRegion(r) => write!(f, "no decomposition bound for {r}"),
            TopologyError::ProcsMismatch {
                program,
                declared,
                bound,
            } => write!(
                f,
                "program {program} declares {declared} processes but its bound \
                 decomposition implies {bound}"
            ),
            TopologyError::DoublyImportedRegion(r) => {
                write!(f, "region {r} imports from more than one connection")
            }
            TopologyError::UnknownProgram(p) => write!(f, "unknown program {p}"),
            TopologyError::Layout(msg) => write!(f, "incompatible decompositions: {msg}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// One exported region of a program: a name, a decomposition and the
/// connections it feeds (a region feeding several importers is the paper's
/// Figure 2 `P0.r1` case, served by one [`couplink_proto::MultiExport`]).
#[derive(Debug, Clone)]
pub struct ExportRegionTopo {
    /// Region name within the program.
    pub name: String,
    /// How the exporting program decomposes the region's grid.
    pub decomp: Decomposition,
    /// Connections fed by this region, in configuration order.
    pub conns: Vec<ConnectionId>,
}

/// One imported region of a program. Validation guarantees exactly one
/// connection per imported region.
#[derive(Debug, Clone)]
pub struct ImportRegionTopo {
    /// Region name within the program.
    pub name: String,
    /// How the importing program decomposes the region's grid.
    pub decomp: Decomposition,
    /// The single connection feeding this region.
    pub conn: ConnectionId,
}

/// One program of the topology.
#[derive(Debug, Clone)]
pub struct ProgramTopo {
    /// Program name.
    pub name: String,
    /// Number of coupled processes (the rep is extra, as in the paper).
    pub procs: usize,
    /// Regions this program exports, in first-reference order.
    pub exports: Vec<ExportRegionTopo>,
    /// Regions this program imports, in first-reference order.
    pub imports: Vec<ImportRegionTopo>,
}

impl ProgramTopo {
    /// Index of the exported region with this name.
    pub fn export_idx(&self, region: &str) -> Option<usize> {
        self.exports.iter().position(|r| r.name == region)
    }

    /// Index of the imported region with this name.
    pub fn import_idx(&self, region: &str) -> Option<usize> {
        self.imports.iter().position(|r| r.name == region)
    }
}

/// One directed connection between an exported and an imported region.
#[derive(Debug, Clone)]
pub struct ConnTopo {
    /// The connection's wire identifier (its index in [`Topology::conns`]).
    pub id: ConnectionId,
    /// Exporting program index.
    pub exporter_prog: usize,
    /// Exported region index within the exporting program's `exports`.
    pub exporter_region: usize,
    /// Importing program index.
    pub importer_prog: usize,
    /// Imported region index within the importing program's `imports`.
    pub importer_region: usize,
    /// Timestamp match policy.
    pub policy: MatchPolicy,
    /// Match tolerance.
    pub tolerance: Tolerance,
    /// Redistribution plan from the exporter to the importer decomposition.
    pub plan: Arc<RedistPlan>,
}

/// A validated multi-program coupling topology. See the module docs.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Programs, in configuration order.
    pub programs: Vec<ProgramTopo>,
    /// Connections, in configuration order; `conns[i].id == ConnectionId(i)`.
    pub conns: Vec<ConnTopo>,
}

impl Topology {
    /// Builds a topology from a validated configuration plus one bound
    /// decomposition per referenced region.
    pub fn from_config(
        config: &Config,
        bindings: &HashMap<RegionRef, Decomposition>,
    ) -> Result<Self, TopologyError> {
        let mut programs: Vec<ProgramTopo> = config
            .programs
            .iter()
            .map(|p| ProgramTopo {
                name: p.name.clone(),
                procs: p.procs,
                exports: Vec::new(),
                imports: Vec::new(),
            })
            .collect();
        let prog_idx: HashMap<&str, usize> = config
            .programs
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.as_str(), i))
            .collect();

        let lookup = |r: &RegionRef| -> Result<(usize, Decomposition), TopologyError> {
            let pi = *prog_idx
                .get(r.program.as_str())
                .ok_or_else(|| TopologyError::UnknownProgram(r.program.clone()))?;
            let d = bindings
                .get(r)
                .ok_or_else(|| TopologyError::UnboundRegion(r.clone()))?;
            let declared = config.programs[pi].procs;
            if d.procs() != declared {
                return Err(TopologyError::ProcsMismatch {
                    program: r.program.clone(),
                    declared,
                    bound: d.procs(),
                });
            }
            Ok((pi, *d))
        };

        let mut conns = Vec::with_capacity(config.connections.len());
        for (i, spec) in config.connections.iter().enumerate() {
            let id = ConnectionId(i as u32);
            let (ep, ed) = lookup(&spec.exporter)?;
            let (ip, idc) = lookup(&spec.importer)?;
            let plan =
                RedistPlan::build(ed, idc).map_err(|e| TopologyError::Layout(e.to_string()))?;

            let exporter_region = match programs[ep].export_idx(&spec.exporter.region) {
                Some(idx) => {
                    programs[ep].exports[idx].conns.push(id);
                    idx
                }
                None => {
                    programs[ep].exports.push(ExportRegionTopo {
                        name: spec.exporter.region.clone(),
                        decomp: ed,
                        conns: vec![id],
                    });
                    programs[ep].exports.len() - 1
                }
            };
            if programs[ip].import_idx(&spec.importer.region).is_some() {
                return Err(TopologyError::DoublyImportedRegion(spec.importer.clone()));
            }
            programs[ip].imports.push(ImportRegionTopo {
                name: spec.importer.region.clone(),
                decomp: idc,
                conn: id,
            });
            let importer_region = programs[ip].imports.len() - 1;

            conns.push(ConnTopo {
                id,
                exporter_prog: ep,
                exporter_region,
                importer_prog: ip,
                importer_region,
                policy: spec.policy,
                tolerance: spec.tolerance,
                plan: Arc::new(plan),
            });
        }
        Ok(Topology { programs, conns })
    }

    /// The classic two-program, one-connection topology (program 0 exports
    /// region `r` to program 1) used by the paper's single-pair experiments.
    pub fn pair(
        exporter: Decomposition,
        importer: Decomposition,
        policy: MatchPolicy,
        tolerance: Tolerance,
    ) -> Result<Self, TopologyError> {
        let plan = RedistPlan::build(exporter, importer)
            .map_err(|e| TopologyError::Layout(e.to_string()))?;
        let id = ConnectionId(0);
        Ok(Topology {
            programs: vec![
                ProgramTopo {
                    name: "exporter".into(),
                    procs: exporter.procs(),
                    exports: vec![ExportRegionTopo {
                        name: "r".into(),
                        decomp: exporter,
                        conns: vec![id],
                    }],
                    imports: Vec::new(),
                },
                ProgramTopo {
                    name: "importer".into(),
                    procs: importer.procs(),
                    exports: Vec::new(),
                    imports: vec![ImportRegionTopo {
                        name: "r".into(),
                        decomp: importer,
                        conn: id,
                    }],
                },
            ],
            conns: vec![ConnTopo {
                id,
                exporter_prog: 0,
                exporter_region: 0,
                importer_prog: 1,
                importer_region: 0,
                policy,
                tolerance,
                plan: Arc::new(plan),
            }],
        })
    }

    /// The connection behind a wire identifier.
    pub fn conn(&self, id: ConnectionId) -> &ConnTopo {
        &self.conns[id.0 as usize]
    }

    /// Depth of the deepest program's distribution tree. Every process
    /// derives the identical [`tree`](super::tree) from the topology, so
    /// the depth is a shared property of a hierarchical run.
    pub fn tree_depth(&self) -> usize {
        let depths = self.programs.iter().map(|p| super::tree::depth(p.procs));
        depths.max().unwrap_or(0)
    }

    /// Program index by name.
    pub fn program_idx(&self, name: &str) -> Option<usize> {
        self.programs.iter().position(|p| p.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_config::parse;
    use couplink_layout::Extent2;

    fn fig2ish() -> (Config, HashMap<RegionRef, Decomposition>) {
        let config = parse(
            "P0 c0 /bin/p0 2\nP1 c0 /bin/p1 1\nP2 c1 /bin/p2 1\n#\n\
             P0.r1 P1.r1 REGL 2.5\nP0.r1 P2.r3 REG 2.5\nP1.r2 P2.r1 REGU 1.0\n",
        )
        .unwrap();
        let grid = Extent2::new(8, 8);
        let mut b = HashMap::new();
        b.insert(
            RegionRef::new("P0", "r1"),
            Decomposition::row_block(grid, 2).unwrap(),
        );
        b.insert(
            RegionRef::new("P1", "r1"),
            Decomposition::row_block(grid, 1).unwrap(),
        );
        b.insert(
            RegionRef::new("P2", "r3"),
            Decomposition::row_block(grid, 1).unwrap(),
        );
        b.insert(
            RegionRef::new("P1", "r2"),
            Decomposition::row_block(grid, 1).unwrap(),
        );
        b.insert(
            RegionRef::new("P2", "r1"),
            Decomposition::row_block(grid, 1).unwrap(),
        );
        (config, b)
    }

    #[test]
    fn multi_connection_region_shares_one_export_entry() {
        let (config, b) = fig2ish();
        let topo = Topology::from_config(&config, &b).unwrap();
        assert_eq!(topo.programs.len(), 3);
        let p0 = &topo.programs[0];
        assert_eq!(p0.exports.len(), 1, "P0.r1 feeds two connections");
        assert_eq!(p0.exports[0].conns, vec![ConnectionId(0), ConnectionId(1)]);
        assert_eq!(topo.conns.len(), 3);
        assert_eq!(topo.conn(ConnectionId(2)).exporter_prog, 1);
        assert_eq!(topo.conn(ConnectionId(2)).importer_prog, 2);
        // P2 imports two distinct regions — legal; each has one connection.
        assert_eq!(topo.programs[2].imports.len(), 2);
    }

    #[test]
    fn unbound_region_rejected() {
        let (config, mut b) = fig2ish();
        b.remove(&RegionRef::new("P2", "r3"));
        let err = Topology::from_config(&config, &b).unwrap_err();
        assert_eq!(
            err,
            TopologyError::UnboundRegion(RegionRef::new("P2", "r3"))
        );
    }

    #[test]
    fn doubly_imported_region_rejected() {
        let config = parse(
            "A c0 /bin/a 1\nB c0 /bin/b 1\nC c0 /bin/c 1\n#\n\
             A.r C.r REGL 1.0\nB.r C.r REGL 1.0\n",
        )
        .unwrap();
        let grid = Extent2::new(4, 4);
        let d = Decomposition::row_block(grid, 1).unwrap();
        let mut b = HashMap::new();
        for (p, r) in [("A", "r"), ("B", "r"), ("C", "r")] {
            b.insert(RegionRef::new(p, r), d);
        }
        let err = Topology::from_config(&config, &b).unwrap_err();
        assert_eq!(
            err,
            TopologyError::DoublyImportedRegion(RegionRef::new("C", "r"))
        );
    }

    #[test]
    fn procs_mismatch_rejected() {
        let (config, mut b) = fig2ish();
        let grid = Extent2::new(8, 8);
        b.insert(
            RegionRef::new("P0", "r1"),
            Decomposition::row_block(grid, 4).unwrap(),
        );
        let err = Topology::from_config(&config, &b).unwrap_err();
        assert_eq!(
            err,
            TopologyError::ProcsMismatch {
                program: "P0".into(),
                declared: 2,
                bound: 4
            }
        );
    }

    /// The parser already rejects a connection naming an undeclared
    /// program, so reach the validator's own check by deleting a program
    /// from an otherwise-valid parsed configuration (as a programmatic
    /// caller assembling a `Config` by hand could).
    #[test]
    fn unknown_program_rejected() {
        let (mut config, b) = fig2ish();
        config.programs.retain(|p| p.name != "P2");
        let err = Topology::from_config(&config, &b).unwrap_err();
        assert_eq!(err, TopologyError::UnknownProgram("P2".into()));
    }

    /// Decompositions on different global grids cannot be redistributed
    /// into one another.
    #[test]
    fn incompatible_grids_rejected_as_layout_error() {
        let (config, mut b) = fig2ish();
        b.insert(
            RegionRef::new("P1", "r1"),
            Decomposition::row_block(Extent2::new(4, 4), 1).unwrap(),
        );
        let err = Topology::from_config(&config, &b).unwrap_err();
        assert!(
            matches!(err, TopologyError::Layout(_)),
            "expected Layout, got {err:?}"
        );
    }
}
