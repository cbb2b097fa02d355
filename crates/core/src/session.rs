//! Config-driven coupled sessions over the threaded runtime.
//!
//! A [`Session`] builds one multi-program [`Fabric`] for the whole parsed
//! configuration — a validated [`Topology`] of N programs and any number of
//! connections — and hands each program's processes their framework API: a
//! [`ProcessHandle`] with one export port per exported region and one
//! import port per imported region. This is the crate-level realization of
//! the paper's Figure 1/Figure 2 workflow — programs declare regions once,
//! the configuration wires them up, and data flows with approximate
//! temporal matching.

use couplink_config::{Config, RegionRef};
use couplink_layout::{Decomposition, LocalArray};
use couplink_proto::{ConnectionId, Trace};
use couplink_runtime::engine::{Topology, TopologyError};
use couplink_runtime::threaded::{
    ExportAccess, ExportOutcome, Fabric, FabricOptions, ImportAccess, ThreadedError,
};
use couplink_time::Timestamp;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Error building or using a session.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// A connection references a region with no bound decomposition.
    UnboundRegion(RegionRef),
    /// A bound decomposition's process count disagrees with the program's
    /// declared process count.
    ProcsMismatch {
        /// The program.
        program: String,
        /// Processes declared in the configuration.
        declared: usize,
        /// Processes implied by the bound decomposition.
        bound: usize,
    },
    /// Two connections import into the same region (ambiguous source).
    DoublyImportedRegion(RegionRef),
    /// The named program is not in the configuration.
    UnknownProgram(String),
    /// The program's handles were already taken.
    AlreadyTaken(String),
    /// The named region does not exist on this process handle.
    NoSuchRegion(String),
    /// A runtime error.
    Runtime(ThreadedError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnboundRegion(r) => write!(f, "no decomposition bound for {r}"),
            SessionError::ProcsMismatch {
                program,
                declared,
                bound,
            } => write!(
                f,
                "program {program} declares {declared} processes but its bound \
                 decomposition has {bound}"
            ),
            SessionError::DoublyImportedRegion(r) => {
                write!(f, "region {r} is imported from more than one exporter")
            }
            SessionError::UnknownProgram(p) => write!(f, "unknown program {p}"),
            SessionError::AlreadyTaken(p) => write!(f, "handles for {p} already taken"),
            SessionError::NoSuchRegion(r) => write!(f, "no region named {r} on this process"),
            SessionError::Runtime(e) => write!(f, "runtime: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ThreadedError> for SessionError {
    fn from(e: ThreadedError) -> Self {
        SessionError::Runtime(e)
    }
}

impl From<TopologyError> for SessionError {
    fn from(e: TopologyError) -> Self {
        match e {
            TopologyError::UnboundRegion(r) => SessionError::UnboundRegion(r),
            TopologyError::ProcsMismatch {
                program,
                declared,
                bound,
            } => SessionError::ProcsMismatch {
                program,
                declared,
                bound,
            },
            TopologyError::DoublyImportedRegion(r) => SessionError::DoublyImportedRegion(r),
            TopologyError::UnknownProgram(p) => SessionError::UnknownProgram(p),
            TopologyError::Layout(m) => SessionError::Runtime(ThreadedError::Config(m)),
        }
    }
}

/// Builder for a [`Session`].
pub struct SessionBuilder {
    config: Config,
    bindings: HashMap<RegionRef, Decomposition>,
    buddy_help: bool,
    import_timeout: Duration,
    buffer_capacity: Option<usize>,
    traces: Vec<(String, usize, String)>,
}

impl SessionBuilder {
    /// Starts a builder from a parsed configuration.
    pub fn new(config: Config) -> Self {
        SessionBuilder {
            config,
            bindings: HashMap::new(),
            buddy_help: true,
            import_timeout: Duration::from_secs(30),
            buffer_capacity: None,
            traces: Vec::new(),
        }
    }

    /// Binds a program's declared region to its decomposition of the global
    /// array. Every region that appears in a connection must be bound.
    pub fn bind(mut self, program: &str, region: &str, decomp: Decomposition) -> Self {
        self.bindings
            .insert(RegionRef::new(program, region), decomp);
        self
    }

    /// Enables or disables the buddy-help optimization (default: enabled).
    pub fn buddy_help(mut self, enabled: bool) -> Self {
        self.buddy_help = enabled;
        self
    }

    /// Sets the import timeout (default 30 s).
    pub fn import_timeout(mut self, timeout: Duration) -> Self {
        self.import_timeout = timeout;
        self
    }

    /// Bounds each process's framework buffer to `capacity` objects per
    /// connection; exports block while the buffer is full (default:
    /// unbounded, the paper's setting).
    pub fn buffer_capacity(mut self, capacity: usize) -> Self {
        self.buffer_capacity = Some(capacity);
        self
    }

    /// Records a Figure 5-style event trace on process `rank` of `program`
    /// for every connection of its exported `region`. The traces come back
    /// from [`Session::shutdown_with_traces`].
    pub fn trace(mut self, program: &str, rank: usize, region: &str) -> Self {
        self.traces.push((program.into(), rank, region.into()));
        self
    }

    /// Builds the session: validates the configuration and bindings into a
    /// [`Topology`] and spawns one fabric for the whole topology.
    pub fn build(self) -> Result<Session, SessionError> {
        let topo = Topology::from_config(&self.config, &self.bindings)?;
        let mut traces = Vec::new();
        for (program, rank, region) in &self.traces {
            let Some(pi) = topo.program_idx(program) else {
                return Err(SessionError::UnknownProgram(program.clone()));
            };
            let Some(ri) = topo.programs[pi].export_idx(region) else {
                return Err(SessionError::NoSuchRegion(region.clone()));
            };
            for &conn in &topo.programs[pi].exports[ri].conns {
                traces.push((pi, *rank, conn));
            }
        }
        let fabric = Fabric::new(
            topo,
            FabricOptions {
                buddy_help: self.buddy_help,
                import_timeout: self.import_timeout,
                buffer_capacity: self.buffer_capacity,
                traces,
                chaos: None,
                drop_buddy_help: false,
                hierarchical: false,
                wal: None,
            },
        );
        Ok(Session {
            config: self.config,
            fabric,
            taken: Vec::new(),
        })
    }
}

/// A live coupled session: one fabric spanning every configured connection.
pub struct Session {
    config: Config,
    fabric: Fabric,
    taken: Vec<String>,
}

impl Session {
    /// The configuration this session was built from.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// Takes the per-process handles of `program` (once per program). Hand
    /// each [`ProcessHandle`] to the thread driving that rank.
    pub fn take_program(&mut self, program: &str) -> Result<ProgramHandles, SessionError> {
        let prog = self
            .fabric
            .topology()
            .program_idx(program)
            .ok_or_else(|| SessionError::UnknownProgram(program.to_owned()))?;
        if self.taken.iter().any(|t| t == program) {
            return Err(SessionError::AlreadyTaken(program.to_owned()));
        }
        self.taken.push(program.to_owned());
        let pt = &self.fabric.topology().programs[prog];
        let procs = pt.procs;
        let export_names: Vec<String> = pt.exports.iter().map(|r| r.name.clone()).collect();
        let import_names: Vec<String> = pt.imports.iter().map(|r| r.name.clone()).collect();
        let procs = (0..procs)
            .map(|rank| {
                let exports = export_names
                    .iter()
                    .enumerate()
                    .map(|(ri, name)| {
                        (
                            name.clone(),
                            ExportRegion {
                                access: self.fabric.take_export(prog, rank, ri),
                            },
                        )
                    })
                    .collect();
                let imports = import_names
                    .iter()
                    .enumerate()
                    .map(|(ii, name)| {
                        (
                            name.clone(),
                            ImportRegion {
                                access: self.fabric.take_import(prog, rank, ii),
                            },
                        )
                    })
                    .collect();
                ProcessHandle {
                    program: program.to_owned(),
                    rank,
                    exports,
                    imports,
                }
            })
            .collect();
        Ok(ProgramHandles { procs })
    }

    /// Shuts the fabric down and returns per-connection exporter statistics
    /// (indexed like the configuration's connection list, then by rank).
    /// Call after all program threads have finished and dropped their
    /// handles.
    pub fn shutdown(self) -> Result<Vec<Vec<couplink_proto::ExportStats>>, SessionError> {
        Ok(self.fabric.shutdown()?.stats)
    }

    /// Like [`Session::shutdown`], additionally returning the event traces
    /// requested through [`SessionBuilder::trace`] as `(program, rank,
    /// connection, trace)`.
    #[allow(clippy::type_complexity)]
    pub fn shutdown_with_traces(
        self,
    ) -> Result<
        (
            Vec<Vec<couplink_proto::ExportStats>>,
            Vec<(String, usize, ConnectionId, Trace)>,
        ),
        SessionError,
    > {
        let names: Vec<String> = self
            .fabric
            .topology()
            .programs
            .iter()
            .map(|p| p.name.clone())
            .collect();
        let report = self.fabric.shutdown()?;
        let traces = report
            .traces
            .into_iter()
            .map(|(prog, rank, conn, trace)| (names[prog].clone(), rank, conn, trace))
            .collect();
        Ok((report.stats, traces))
    }
}

/// The process handles of one program, to be distributed over its threads.
pub struct ProgramHandles {
    procs: Vec<ProcessHandle>,
}

impl ProgramHandles {
    /// Number of processes.
    pub fn len(&self) -> usize {
        self.procs.len()
    }

    /// Whether the program has no processes (never true for parsed configs).
    pub fn is_empty(&self) -> bool {
        self.procs.is_empty()
    }

    /// Takes the handle for `rank`.
    ///
    /// # Panics
    ///
    /// Panics if taken twice or out of range.
    pub fn take_process(&mut self, rank: usize) -> ProcessHandle {
        assert!(rank < self.procs.len(), "rank {rank} out of range");
        let placeholder = ProcessHandle {
            program: String::new(),
            rank: usize::MAX,
            exports: HashMap::new(),
            imports: HashMap::new(),
        };
        let p = std::mem::replace(&mut self.procs[rank], placeholder);
        assert!(p.rank != usize::MAX, "process {rank} already taken");
        p
    }
}

/// One process's framework API: its exported and imported regions.
pub struct ProcessHandle {
    program: String,
    rank: usize,
    exports: HashMap<String, ExportRegion>,
    imports: HashMap<String, ImportRegion>,
}

impl ProcessHandle {
    /// The program this process belongs to.
    pub fn program(&self) -> &str {
        &self.program
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The export port for a declared region.
    pub fn export_region(&mut self, region: &str) -> Result<&mut ExportRegion, SessionError> {
        self.exports
            .get_mut(region)
            .ok_or_else(|| SessionError::NoSuchRegion(region.to_owned()))
    }

    /// The import port for a declared region.
    pub fn import_region(&mut self, region: &str) -> Result<&mut ImportRegion, SessionError> {
        self.imports
            .get_mut(region)
            .ok_or_else(|| SessionError::NoSuchRegion(region.to_owned()))
    }

    /// Names of the exported regions this process serves.
    pub fn exported_regions(&self) -> impl Iterator<Item = &str> {
        self.exports.keys().map(String::as_str)
    }
}

/// A process's export port for one region. A region exported over several
/// connections (Figure 2's `P0.r1` feeding both `P1` and `P2`) is served by
/// one shared object store with per-connection acceptable-region tracking:
/// the piece is copied at most once per export, and an object is freed only
/// when *no* connection can still need it.
pub struct ExportRegion {
    access: ExportAccess,
}

impl ExportRegion {
    /// Exports this process's piece at simulation time `ts` on every
    /// connection of the region. Returns one outcome per connection.
    pub fn export(
        &mut self,
        ts: Timestamp,
        data: &LocalArray,
    ) -> Result<Vec<ExportOutcome>, SessionError> {
        Ok(self.access.export(ts, data)?)
    }

    /// Number of connections this region feeds.
    pub fn connections(&self) -> usize {
        self.access.connections()
    }

    /// Objects currently buffered, summed over the region's connections.
    pub fn buffered_len(&self) -> usize {
        self.access.buffered_len()
    }

    /// Statistics per connection.
    pub fn stats(&self) -> Vec<couplink_proto::ExportStats> {
        self.access.stats()
    }
}

/// A process's import port for one region (exactly one exporting connection).
pub struct ImportRegion {
    access: ImportAccess,
}

impl ImportRegion {
    /// Collectively imports the data matched to `ts` into this process's
    /// piece. Blocks until the framework answers; returns the matched
    /// timestamp or `None` on NO MATCH.
    pub fn import(
        &mut self,
        ts: Timestamp,
        dest: &mut LocalArray,
    ) -> Result<Option<Timestamp>, SessionError> {
        Ok(self.access.import(ts, dest)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_layout::Extent2;
    use couplink_time::ts;

    fn two_program_config() -> Config {
        couplink_config::parse("F c0 /bin/f 4\nU c0 /bin/u 2\n#\nF.force U.force REGL 2.5\n")
            .unwrap()
    }

    fn grid() -> (Extent2, Decomposition, Decomposition) {
        let e = Extent2::new(32, 32);
        (
            e,
            Decomposition::block_2d(e, 2, 2).unwrap(),
            Decomposition::row_block(e, 2).unwrap(),
        )
    }

    #[test]
    fn build_requires_bindings() {
        let err = SessionBuilder::new(two_program_config())
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::UnboundRegion(RegionRef::new("F", "force"))
        );
    }

    #[test]
    fn build_checks_proc_counts() {
        let (e, f, _) = grid();
        let wrong_u = Decomposition::row_block(e, 3).unwrap();
        let err = SessionBuilder::new(two_program_config())
            .bind("F", "force", f)
            .bind("U", "force", wrong_u)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::ProcsMismatch {
                program: "U".into(),
                declared: 2,
                bound: 3
            }
        );
    }

    #[test]
    fn double_import_rejected() {
        let config = couplink_config::parse(
            "A c0 /bin/a 1\nB c0 /bin/b 1\nC c0 /bin/c 1\n#\n\
             A.x C.z REGL 1.0\nB.y C.z REGL 1.0\n",
        )
        .unwrap();
        let e = Extent2::new(8, 8);
        let d1 = Decomposition::row_block(e, 1).unwrap();
        let err = SessionBuilder::new(config)
            .bind("A", "x", d1)
            .bind("B", "y", d1)
            .bind("C", "z", d1)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert_eq!(
            err,
            SessionError::DoublyImportedRegion(RegionRef::new("C", "z"))
        );
    }

    #[test]
    fn full_session_transfer() {
        let (_, f_d, u_d) = grid();
        let mut session = SessionBuilder::new(two_program_config())
            .bind("F", "force", f_d)
            .bind("U", "force", u_d)
            .build()
            .unwrap();
        let mut f = session.take_program("F").unwrap();
        let mut u = session.take_program("U").unwrap();

        let mut threads = Vec::new();
        for rank in 0..4 {
            let mut p = f.take_process(rank);
            let owned = f_d.owned(rank);
            threads.push(std::thread::spawn(move || {
                let region = p.export_region("force").unwrap();
                for i in 0..30 {
                    let t = 1.6 + i as f64;
                    let data = LocalArray::from_fn(owned, |r, c| t + (r + c) as f64);
                    region.export(ts(t), &data).unwrap();
                }
            }));
        }
        let mut imp_threads = Vec::new();
        for rank in 0..2 {
            let mut p = u.take_process(rank);
            let owned = u_d.owned(rank);
            imp_threads.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                p.import_region("force")
                    .unwrap()
                    .import(ts(20.0), &mut dest)
                    .unwrap()
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        for t in imp_threads {
            assert_eq!(t.join().unwrap(), Some(ts(19.6)));
        }
        let stats = session.shutdown().unwrap();
        assert_eq!(stats.len(), 1); // one connection
        assert_eq!(stats[0].len(), 4); // four exporter ranks
        for s in &stats[0] {
            assert_eq!(s.sends, 1);
        }
    }

    #[test]
    fn take_program_twice_fails() {
        let (_, f_d, u_d) = grid();
        let mut session = SessionBuilder::new(two_program_config())
            .bind("F", "force", f_d)
            .bind("U", "force", u_d)
            .build()
            .unwrap();
        session.take_program("F").unwrap();
        assert_eq!(
            session.take_program("F").map(|_| ()).unwrap_err(),
            SessionError::AlreadyTaken("F".into())
        );
        assert_eq!(
            session.take_program("X").map(|_| ()).unwrap_err(),
            SessionError::UnknownProgram("X".into())
        );
    }

    #[test]
    fn unknown_region_on_process() {
        let (_, f_d, u_d) = grid();
        let mut session = SessionBuilder::new(two_program_config())
            .bind("F", "force", f_d)
            .bind("U", "force", u_d)
            .build()
            .unwrap();
        let mut f = session.take_program("F").unwrap();
        let mut p = f.take_process(0);
        assert!(matches!(
            p.export_region("nope"),
            Err(SessionError::NoSuchRegion(_))
        ));
        assert!(matches!(
            p.import_region("force"),
            Err(SessionError::NoSuchRegion(_))
        ));
        assert_eq!(p.exported_regions().collect::<Vec<_>>(), vec!["force"]);
    }

    #[test]
    fn multi_importer_fanout() {
        // Figure 2 pattern: one exported region feeding two importers with
        // different policies.
        let config = couplink_config::parse(
            "F c0 /bin/f 2\nU c0 /bin/u 2\nV c0 /bin/v 2\n#\n\
             F.r U.r REGL 2.5\nF.r V.q REGU 2.5\n",
        )
        .unwrap();
        let e = Extent2::new(16, 16);
        let d2 = Decomposition::row_block(e, 2).unwrap();
        let mut session = SessionBuilder::new(config)
            .bind("F", "r", d2)
            .bind("U", "r", d2)
            .bind("V", "q", d2)
            .build()
            .unwrap();
        let mut f = session.take_program("F").unwrap();
        let mut u = session.take_program("U").unwrap();
        let mut v = session.take_program("V").unwrap();

        let mut threads = Vec::new();
        for rank in 0..2 {
            let mut p = f.take_process(rank);
            let owned = d2.owned(rank);
            threads.push(std::thread::spawn(move || {
                let region = p.export_region("r").unwrap();
                assert_eq!(region.connections(), 2);
                for i in 0..30 {
                    let t = 1.6 + i as f64;
                    let data = LocalArray::from_fn(owned, |_, _| t);
                    let outcomes = region.export(ts(t), &data).unwrap();
                    assert_eq!(outcomes.len(), 2);
                }
            }));
        }
        for rank in 0..2 {
            let mut p = u.take_process(rank);
            let owned = d2.owned(rank);
            threads.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                // REGL: acceptable region [17.5, 20] → match 19.6.
                let m = p
                    .import_region("r")
                    .unwrap()
                    .import(ts(20.0), &mut dest)
                    .unwrap();
                assert_eq!(m, Some(ts(19.6)));
                assert_eq!(dest.get(owned.row0, 0), 19.6);
            }));
        }
        for rank in 0..2 {
            let mut p = v.take_process(rank);
            let owned = d2.owned(rank);
            threads.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                // REGU: acceptable region [20, 22.5] → match 20.6.
                let m = p
                    .import_region("q")
                    .unwrap()
                    .import(ts(20.0), &mut dest)
                    .unwrap();
                assert_eq!(m, Some(ts(20.6)));
                assert_eq!(dest.get(owned.row0, 0), 20.6);
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        session.shutdown().unwrap();
    }
}
