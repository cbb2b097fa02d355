//! The application threads of a run, one per hosted process and scheduled
//! region, playing a [`RunSpec`]'s schedules on a fabric's handles: an
//! exporter refills its field in place with a deterministic cell fill, an
//! importer can check every landed cell against it. A socket node and
//! simtest's threaded runs both drive their fabrics through [`drive`].

use std::sync::mpsc;
use std::time::Duration;

use couplink_layout::{LocalArray, Rect};
use couplink_proto::ConnectionId;
use couplink_time::{ts, Timestamp};

use super::fabric::{ExportAccess, Fabric, ImportAccess};
use super::ThreadedError;
use crate::engine::{ExportSchedule, ImportSchedule, RunSpec};

/// How [`drive`] paces and checks its threads.
#[derive(Debug, Clone, Copy)]
pub struct DriveOptions {
    /// Wall seconds slept per schedule second of compute or startup.
    pub time_scale: f64,
    /// Whether every matched import checks its cells against the fill.
    pub verify: bool,
    /// `(program, rank, after)`: that exporting process stops right after
    /// its `after`-th export of the run, and [`drive`] returns [`Aborted`]
    /// without waiting for the other threads, which run on detached.
    pub abort_after: Option<(usize, usize, usize)>,
}

/// The exporter [`DriveOptions::abort_after`] names stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

/// What one importing process ended with.
#[derive(Debug, Clone, PartialEq)]
pub struct ImportRun {
    /// Program index.
    pub prog: usize,
    /// Rank within the program.
    pub rank: usize,
    /// The connection feeding the imported region.
    pub conn: ConnectionId,
    /// Each completed import's match, in call order.
    pub got: Vec<Option<Timestamp>>,
    /// Why the process stopped early, if it did.
    pub error: Option<String>,
}

/// What [`drive`]'s threads ended with, in schedule and then rank order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveReport {
    /// Exporting processes that failed: `(program, rank, error)`.
    pub export_errors: Vec<(usize, usize, String)>,
    /// One entry per importing process.
    pub imports: Vec<ImportRun>,
}

struct AppExport {
    prog: usize,
    rank: usize,
    region: usize,
    sched: usize,
    handle: ExportAccess,
    data: LocalArray,
    /// Columns of the global grid, by which the cell fill indexes.
    cols: usize,
    /// Exports already made (journal replay); the schedule resumes here.
    done: usize,
}

struct AppImport {
    sched: usize,
    handle: ImportAccess,
    owned: Rect,
    cols: usize,
    run: ImportRun,
}

/// The handles [`drive`] plays a run on: per hosted exporting process and
/// scheduled region its export handle and the field it refills, per
/// hosted importing process its import handle. Taken before the run, so a
/// restarted node can replay its journaled exports first.
#[derive(Default)]
pub struct Apps {
    exports: Vec<AppExport>,
    imports: Vec<AppImport>,
}

impl Apps {
    /// Takes every scheduled region's handles of the programs `hosts`
    /// accepts from `fabric`, which runs `spec`'s topology. A schedule
    /// naming no region, or one that another schedule names too, is an
    /// error before any handle is taken.
    pub fn take(
        spec: &RunSpec,
        fabric: &mut Fabric,
        hosts: impl Fn(usize) -> bool,
    ) -> Result<Apps, String> {
        let programs = &spec.topology.programs;
        let exports = spec.exports.iter().map(|s| spec.export_region(s));
        let exports = exports.collect::<Result<Vec<_>, _>>()?;
        let imports = spec.imports.iter().map(|s| spec.import_region(s));
        let imports = imports.collect::<Result<Vec<_>, _>>()?;
        let mut apps = Apps::default();
        for (sched, (prog, region)) in exports.into_iter().enumerate() {
            let decomp = programs[prog].exports[region].decomp;
            for rank in (0..programs[prog].procs).filter(|_| hosts(prog)) {
                apps.exports.push(AppExport {
                    prog,
                    rank,
                    region,
                    sched,
                    handle: fabric.take_export(prog, rank, region),
                    data: LocalArray::zeros(decomp.owned(rank)),
                    cols: decomp.extent().cols,
                    done: 0,
                });
            }
        }
        for (sched, (prog, region)) in imports.into_iter().enumerate() {
            let r = &programs[prog].imports[region];
            for rank in (0..programs[prog].procs).filter(|_| hosts(prog)) {
                apps.imports.push(AppImport {
                    sched,
                    handle: fabric.take_import(prog, rank, region),
                    owned: r.decomp.owned(rank),
                    cols: r.decomp.extent().cols,
                    run: ImportRun {
                        prog,
                        rank,
                        conn: r.conn,
                        got: Vec::new(),
                        error: None,
                    },
                });
            }
        }
        Ok(apps)
    }

    /// Replays a journaled export at `t` of `at` = `(program, rank,
    /// region)` exactly as [`drive`] made it; that process's schedule then
    /// resumes after it. A region this run does not drive is skipped.
    pub fn replay(&mut self, at: (usize, usize, usize), t: Timestamp) -> Result<(), ThreadedError> {
        let mut exports = self.exports.iter_mut();
        let Some(e) = exports.find(|e| (e.prog, e.rank, e.region) == at) else {
            return Ok(());
        };
        fill_cells(&mut e.data, t.value(), e.cols);
        e.handle.export(t, &e.data)?;
        e.done += 1;
        Ok(())
    }
}

/// How one thread ended.
enum Ended {
    Aborted,
    Export(usize, usize, Option<String>),
    Import(ImportRun),
}

/// Runs `spec`'s schedules on `apps`, one thread per process and region,
/// and waits for them all, or for the abort [`DriveOptions::abort_after`]
/// names. A thread's panic is resumed here.
pub fn drive(spec: &RunSpec, apps: Apps, opts: DriveOptions) -> Result<DriveReport, Aborted> {
    let (tx, rx) = mpsc::channel();
    let mut threads = Vec::new();
    for e in apps.exports {
        let (s, tx, slot) = (spec.exports[e.sched].clone(), tx.clone(), threads.len());
        let run = move || tx.send((slot, export_loop(e, &s, opts)));
        threads.push(std::thread::spawn(run));
    }
    for i in apps.imports {
        let (s, tx, slot) = (spec.imports[i.sched].clone(), tx.clone(), threads.len());
        let run = move || tx.send((slot, import_loop(i, &s, opts)));
        threads.push(std::thread::spawn(run));
    }
    drop(tx);
    let mut ended = Vec::new();
    for (slot, e) in rx {
        if let Ended::Aborted = e {
            return Err(Aborted);
        }
        ended.push((slot, e));
    }
    for t in threads {
        if let Err(panic) = t.join() {
            std::panic::resume_unwind(panic);
        }
    }
    ended.sort_by_key(|(slot, _)| *slot);
    let mut report = DriveReport::default();
    for (_, e) in ended {
        match e {
            Ended::Export(prog, rank, Some(e)) => report.export_errors.push((prog, rank, e)),
            Ended::Import(run) => report.imports.push(run),
            _ => {}
        }
    }
    Ok(report)
}

/// The export loop of one process: per export its compute, then the
/// refill and the call, from where a journal replay left off.
fn export_loop(e: AppExport, s: &ExportSchedule, opts: DriveOptions) -> Ended {
    let (mut h, mut data) = (e.handle, e.data);
    let compute = s.compute.get(e.rank).copied().unwrap_or(0.0);
    let abort = opts.abort_after.filter(|a| (a.0, a.1) == (e.prog, e.rank));
    for k in e.done..s.count {
        if compute > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(compute * opts.time_scale));
        }
        let t = s.t0 + k as f64 * s.dt;
        fill_cells(&mut data, t, e.cols);
        if let Err(err) = h.export(ts(t), &data) {
            return Ended::Export(e.prog, e.rank, Some(err.to_string()));
        }
        if abort.is_some_and(|a| a.2 == k + 1) {
            return Ended::Aborted;
        }
    }
    Ended::Export(e.prog, e.rank, None)
}

/// The import loop of one process: startup, then per import its compute
/// and the call, with the landed cells checked when `opts.verify` is set.
fn import_loop(i: AppImport, s: &ImportSchedule, opts: DriveOptions) -> Ended {
    let (mut h, mut run, mut dest) = (i.handle, i.run, LocalArray::zeros(i.owned));
    std::thread::sleep(Duration::from_secs_f64(s.startup * opts.time_scale));
    run.got.reserve(s.count);
    for k in 0..s.count {
        if s.compute > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(s.compute * opts.time_scale));
        }
        let checked = match h.import(ts(s.t0 + k as f64 * s.dt), &mut dest) {
            Err(e) => Err(e.to_string()),
            Ok(Some(m)) if opts.verify => verify_cells(&dest, m, i.cols).map(|()| Some(m)),
            Ok(m) => Ok(m),
        };
        match checked {
            Ok(m) => run.got.push(m),
            Err(e) => {
                run.error = Some(e);
                break;
            }
        }
    }
    Ended::Import(run)
}

/// The deterministic cell fill exporters write and importers verify:
/// recoverable from the matched timestamp alone, and distinct per cell.
pub(crate) fn cell_value(t: f64, row: usize, col: usize, grid_cols: usize) -> f64 {
    t * 1e6 + (row * grid_cols + col) as f64
}

/// Refills `data` in place with [`cell_value`] at `t`, bit for bit, the
/// way a model updates its field: no allocation, and per row one base plus
/// the column's offset. The offset counts in `u32`, whose conversion to
/// `f64` vectorises; a cell's index below 2^53 is exact either way, so
/// `first + j` is the index `cell_value` converts.
pub(crate) fn fill_cells(data: &mut LocalArray, t: f64, grid_cols: usize) {
    let owned = data.owned();
    if owned.cols == 0 {
        return;
    }
    let base = t * 1e6;
    let rows = data.as_mut_slice().chunks_exact_mut(owned.cols);
    for (row, cells) in (owned.row0..).zip(rows) {
        let first = (row * grid_cols + owned.col0) as f64;
        for (cell, j) in cells.iter_mut().zip(0u32..) {
            *cell = base + (first + f64::from(j));
        }
    }
}

/// Fails at the first cell of `dest` that does not hold [`cell_value`] at
/// `m`.
fn verify_cells(dest: &LocalArray, m: Timestamp, grid_cols: usize) -> Result<(), String> {
    let (owned, m) = (dest.owned(), m.value());
    for row in owned.row0..owned.row0 + owned.rows {
        for col in owned.col0..owned.col0 + owned.cols {
            let (want, got) = (cell_value(m, row, col, grid_cols), dest.get(row, col));
            if got != want {
                let at = format!("({row},{col}) for D@{m}");
                return Err(format!("data corruption at {at}: got {got}, want {want}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ExportSchedule, ImportSchedule, Knobs, Topology};
    use couplink_layout::{Decomposition, Extent2};
    use couplink_time::{MatchPolicy, Tolerance};

    /// `exporters` row blocks of an 8 × 8 grid exporting at 1, 2, …, one
    /// importer importing at 4, 8, … under REG 0.25: every import matches
    /// its own timestamp.
    fn pair(exporters: usize, exports: usize, imports: usize) -> RunSpec {
        let grid = Extent2::new(8, 8);
        let topology = Topology::pair(
            Decomposition::row_block(grid, exporters).unwrap(),
            Decomposition::row_block(grid, 1).unwrap(),
            MatchPolicy::Reg,
            Tolerance::new(0.25).unwrap(),
        )
        .unwrap();
        RunSpec {
            topology,
            exports: vec![ExportSchedule {
                program: "exporter".into(),
                region: "r".into(),
                t0: 1.0,
                dt: 1.0,
                count: exports,
                compute: vec![0.0; exporters],
            }],
            imports: vec![ImportSchedule {
                program: "importer".into(),
                region: "r".into(),
                t0: 4.0,
                dt: 4.0,
                count: imports,
                compute: 0.0,
                startup: 0.0,
            }],
            knobs: Knobs::default(),
        }
    }

    const OPTS: DriveOptions = DriveOptions {
        time_scale: 0.0,
        verify: true,
        abort_after: None,
    };

    /// Every import lands the exporters' fill at its match, checked cell
    /// by cell.
    #[test]
    fn every_import_lands_the_exporters_fill() {
        let spec = pair(2, 12, 3);
        let mut fabric = Fabric::new(spec.topology.clone(), spec.knobs.clone());
        let apps = Apps::take(&spec, &mut fabric, |_| true).unwrap();
        let ran = drive(&spec, apps, OPTS).unwrap();
        assert_eq!(ran.export_errors, []);
        let [imp] = &ran.imports[..] else {
            panic!("{:?}", ran.imports)
        };
        assert_eq!((imp.prog, imp.rank, imp.conn), (1, 0, ConnectionId(0)));
        assert_eq!(imp.got, [4.0, 8.0, 12.0].map(|t| Some(ts(t))));
        assert_eq!(imp.error, None);
        fabric.shutdown().unwrap();
    }

    /// The abort fault is a typed return right after the `after`-th
    /// export, not a process exit: the fabric it ran on still shuts down
    /// and counts exactly `after` exports.
    #[test]
    fn abort_after_exports_returns_after_exactly_that_many() {
        let spec = pair(1, 10, 0);
        let mut fabric = Fabric::new(spec.topology.clone(), spec.knobs.clone());
        let apps = Apps::take(&spec, &mut fabric, |p| p == 0).unwrap();
        let opts = DriveOptions {
            abort_after: Some((0, 0, 3)),
            ..OPTS
        };
        assert_eq!(drive(&spec, apps, opts), Err(Aborted));
        let stats = fabric.shutdown().unwrap().stats.remove(0);
        assert_eq!(stats[0].exports, 3);
    }

    /// Two schedules for one region are refused, naming the region,
    /// before any handle is taken: every handle is still in the fabric.
    #[test]
    fn two_schedules_for_one_region_take_no_handle() {
        let twice = pair(1, 4, 1);
        let mut exports = twice.clone();
        exports.exports.push(exports.exports[0].clone());
        let mut imports = twice;
        imports.imports.push(imports.imports[0].clone());
        for (spec, named) in [(exports, "exporter.r"), (imports, "importer.r")] {
            let mut fabric = Fabric::new(spec.topology.clone(), spec.knobs.clone());
            let err = Apps::take(&spec, &mut fabric, |_| true).err();
            assert!(err.as_ref().is_some_and(|e| e.contains(named)), "{err:?}");
            drop((fabric.take_export(0, 0, 0), fabric.take_import(1, 0, 0)));
            fabric.shutdown().unwrap();
        }
    }
}
