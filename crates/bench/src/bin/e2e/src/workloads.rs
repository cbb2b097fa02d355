//! The seven workloads and the closed-loop drivers that run one rep of each.
//!
//! Every rep builds a fresh session (or mesh, or simulator), drives it with
//! one thread per rank, checks every result against the oracle, tears it
//! down, and checks from deterministic counters that the rep ran in the
//! regime the workload exists for.

use crate::adapter::{
    Counters, Coupling, Decomp, DesPanel, DesRun, DesSim, Engine, Link, Live, Piece, Proc, Program,
    Region, SocketPlan,
};
use crate::gate::CreditGate;
use crate::oracle::{expected_match, seed_phase, Fill, Policy, Series};
use crate::replay::Shape;
use crate::stats::{call_stats, over_reps, CallStats};
use crate::trace::{CallSpan, Recorder, SpanId};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Workload names, in report order. Final: later changes are measured
/// against these.
pub const NAMES: [&str; 7] = [
    "fig4_pair",
    "ctrl_small",
    "bulk_mxn",
    "multirate_cycle",
    "socket_bulk",
    "socket_ctrl",
    "fig4_des",
];

/// Why each workload exists, one line each: the `why` of `BENCHMARK.json`.
#[cfg(test)]
pub const WHY: [&str; 7] = [
    "fabric; the paper's U/F pair with a slow exporter rank: the only workload where buddy-help does the work",
    "fabric; 4 KiB pieces matched exactly: control plane only, payload layers bypassed",
    "fabric; 4 MiB pieces redistributed rows to columns: payload copies only, control under 5 %",
    "fabric through SessionBuilder; three models, one export port feeding two importers at two rates plus a lagged return path",
    "socket mesh over loopback UDS, 256 KiB pieces: encode, checksum, writev and decode dominate",
    "socket mesh over loopback UDS, 4 KiB pieces: frame count, coalescing and the control codec, not bytes",
    "discrete-event simulator, Figure 4 panels (d) and (c) at full scale: exact protocol counts, and the simulator's own speed",
];

/// What one rep measured.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    /// Steady-state wall: first call released to last call returned.
    pub wall_s: f64,
    /// Collective imports completed (one per program-wide import).
    pub imports: u64,
    /// Imports `counters` cover, where that is not all of them (a DES rep
    /// keeps the counters of its first simulation only).
    pub counted_imports: Option<u64>,
    /// Matched bytes landed in importer arrays.
    pub bytes_landed: u64,
    /// Time of one import as the importer sees it. Where the benchmark
    /// issues the calls this is their median; where the program's own
    /// driver issues them back to back (sockets, DES) it is the closed-loop
    /// wall per import.
    pub import_us: f64,
    /// Time of one export as an exporter rank sees it: the median over
    /// every rank, the mean on the designated slow rank, the mean on the
    /// others. Where the program's own driver issues the calls all three
    /// are the run's wall per export of one rank.
    pub export_us: ExportTimes,
    /// The benchmark's own calls; empty where the program issues them.
    pub import: CallStats,
    pub export: CallStats,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Seconds exporter drivers spent in their loops, and blocked in the
    /// credit gate.
    pub exporter_drive_s: f64,
    pub gate_wait_s: f64,
    pub counters: Counters,
    pub des: Option<DesNumbers>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExportTimes {
    pub p50_us: f64,
    pub slow_mean_us: f64,
    pub fast_mean_us: f64,
}

impl ExportTimes {
    /// Where single calls cannot be timed from outside: one value for all.
    fn wall_per_export(us: f64) -> Self {
        ExportTimes {
            p50_us: us,
            slow_mean_us: us,
            fast_mean_us: us,
        }
    }
}

/// The simulator's deterministic results, panel (d) unless named otherwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DesNumbers {
    pub virtual_total_s: f64,
    pub virtual_export_slow_ms: f64,
    pub optimal_entry_u32: f64,
    pub optimal_entry_u16: f64,
    pub memcpy_skipped_slow: u64,
    pub sim_wall_ms: f64,
}

/// Counters that must read 0 on a clean run.
fn no_faults(c: &Counters, names: &[&str]) -> Result<(), String> {
    match names.iter().find(|n| c.get(n) != 0) {
        Some(n) => Err(format!("{n} = {} on a clean run", c.get(n))),
        None => Ok(()),
    }
}

impl RepOut {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(msg);
        }
    }
}

// --- in-process workloads --------------------------------------------------

#[derive(Debug, Clone)]
pub struct ExportSide {
    pub series: Series,
    /// Exports per coupling step.
    pub per_step: usize,
    /// "Compute" before each export, per rank: a sleep, never a busy loop.
    pub sleep_us: Vec<u64>,
    /// Held to the credit window.
    pub gated: bool,
}

#[derive(Debug, Clone)]
pub struct ImportSide {
    pub requests: Series,
    /// The export series of the program this one imports from.
    pub source: Series,
    pub policy: Policy,
    pub tol: f64,
    /// Compare the whole landed array every this many imports (stamps are
    /// compared on every import).
    pub full_every: usize,
    /// Completing an import returns a credit to the gate.
    pub credits_gate: bool,
}

/// What each process of one program does per step: import then export, or
/// the other way round. A side whose series has run out is skipped.
#[derive(Debug, Clone, Default)]
pub struct ProgramPlan {
    pub steps: usize,
    pub import: Option<ImportSide>,
    pub export: Option<ExportSide>,
    pub export_first: bool,
}

#[derive(Debug, Clone)]
pub struct FabricWorkload {
    pub coupling: Coupling,
    pub engine: Engine,
    /// One plan per program, in `coupling.programs` order.
    pub plans: Vec<ProgramPlan>,
    pub window: u64,
    /// Pin each program's driver threads to that program's own core (see
    /// `pin_to_program_core`).
    pub own_cores: bool,
    /// `(program, rank)` whose export calls are reported as the slow rank's.
    pub slow: (usize, usize),
    /// Imports the regime check expects, per workload (see `check_regime`).
    pub regime: Regime,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Regime {
    /// The slow rank pays about `per_import` buffering copies per import
    /// (within half as many again, plus a start-up allowance of 6).
    SlowRankCopies { per_import: u64 },
    /// Every export is buffered: `memcpy_paid == export_calls`.
    EveryExportCopied,
    /// Connection 0 transfers every export, connection 1 one in four.
    EveryAndOneInFour,
}

struct ThreadOut {
    prog: usize,
    rank: usize,
    import_ns: Vec<u32>,
    export_ns: Vec<u32>,
    imports_done: u64,
    bytes_landed: u64,
    failed: u64,
    errors: Vec<String>,
    drive_s: f64,
    end: Instant,
    spans: Vec<CallSpan>,
}

struct DriveCtx<'a> {
    own_cores: bool,
    fill: Fill,
    gate: &'a CreditGate,
    start: &'a Barrier,
    stop: &'a AtomicBool,
    rec: &'a Recorder,
}

fn ns_u32(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Pins the calling driver thread to its program's core: program `prog`
/// gets the `prog`-th core this process may run on, the programs beyond the
/// core count share the last. Coupled programs own their processors; on a
/// two-core box what an exporter's send wakes on the importer side otherwise
/// lands on the exporter's core half of the time and runs inside the
/// exporter's `export()`: a 2 MiB buffering export of `fig4_pair`'s slow
/// rank then reads 0.2 ms or 0.7 ms, for a whole rep or a whole run. The
/// program's own threads are not touched. Best effort: without two cores,
/// or off Linux, nothing happens.
#[cfg(target_os = "linux")]
fn pin_to_program_core(prog: usize) {
    extern "C" {
        fn sched_getaffinity(pid: i32, len: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, len: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a live, writable buffer of the length passed, and
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return;
    }
    let cores: Vec<usize> = (0..WORDS * 64)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cores.len() < 2 {
        return;
    }
    let core = cores[prog.min(cores.len() - 1)];
    let mut mask = [0u64; WORDS];
    mask[core / 64] = 1 << (core % 64);
    // SAFETY: `mask` is a live buffer of the length passed; the call only
    // reads it. A refusal leaves the thread where it was.
    unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_program_core(_prog: usize) {}

/// Drives one process through its program's plan.
fn drive(
    mut proc: Box<dyn Proc>,
    plan: &ProgramPlan,
    (prog, rank): (usize, usize),
    (mut src, mut dest): (Option<Piece>, Option<Piece>),
    gate_slot: Option<usize>,
    ctx: &DriveCtx<'_>,
) -> ThreadOut {
    let mut out = ThreadOut {
        prog,
        rank,
        import_ns: Vec::with_capacity(if plan.import.is_some() { plan.steps } else { 0 }),
        export_ns: Vec::with_capacity(plan.export.as_ref().map_or(0, |e| e.per_step * plan.steps)),
        imports_done: 0,
        bytes_landed: 0,
        failed: 0,
        errors: Vec::new(),
        drive_s: 0.0,
        end: Instant::now(),
        spans: Vec::new(),
    };
    let tracing = ctx.rec.enabled();
    let fail = |out: &mut ThreadOut, msg: String| {
        out.failed += 1;
        if out.errors.len() < 4 {
            out.errors.push(format!("{prog}/{rank}: {msg}"));
        }
    };

    if ctx.own_cores {
        pin_to_program_core(prog);
    }
    ctx.start.wait();
    let begun = Instant::now();
    'steps: for step in 0..plan.steps {
        // Two half-steps: import then export, or export then import.
        for half in 0..2 {
            if ctx.stop.load(Ordering::Relaxed) {
                break 'steps;
            }
            let importing = (half == 0) != plan.export_first;
            if importing {
                let (Some(side), Some(dest)) = (&plan.import, dest.as_mut()) else {
                    continue;
                };
                if step >= side.requests.count {
                    continue;
                }
                let x = side.requests.at(step);
                let full = step % side.full_every == 0 || step + 1 == side.requests.count;
                if full {
                    // An unwritten cell must not pass for the previous import's.
                    dest.data_mut().fill(f64::NAN);
                }
                let t0 = Instant::now();
                let got = proc.import(x, dest);
                let dt = t0.elapsed();
                out.import_ns.push(ns_u32(dt));
                if tracing {
                    let start_ns = ctx.rec.ns_of(t0);
                    out.spans.push(CallSpan {
                        name: "import",
                        start_ns,
                        end_ns: start_ns + dt.as_nanos() as u64,
                        call: step as u32,
                    });
                }
                let got = match got {
                    Ok(got) => got,
                    Err(e) => {
                        fail(&mut out, format!("import {step}: {e}"));
                        ctx.stop.store(true, Ordering::Relaxed);
                        ctx.gate.abort();
                        break 'steps;
                    }
                };
                let want = expected_match(side.policy, side.tol, &side.source, x);
                if got != want {
                    fail(
                        &mut out,
                        format!("import {step} at {x}: got {got:?}, oracle {want:?}"),
                    );
                }
                if let Some(m) = got {
                    let rect = dest.rect();
                    out.bytes_landed += (rect.cells() * 8) as u64;
                    let ok = if full {
                        ctx.fill.all_match(rect, dest.data(), m)
                    } else {
                        ctx.fill.stamps_match(rect, dest.data(), m)
                    };
                    if !ok {
                        fail(
                            &mut out,
                            format!("import {step}: landed array is not the fill of {m}"),
                        );
                    }
                }
                out.imports_done += 1;
                if let Some(slot) = gate_slot {
                    ctx.gate.complete(slot);
                }
            } else {
                let (Some(side), Some(src)) = (&plan.export, src.as_mut()) else {
                    continue;
                };
                for e in 0..side.per_step {
                    let k = step * side.per_step + e;
                    if k >= side.series.count {
                        break;
                    }
                    if side.gated && !ctx.gate.enter(step as u64) {
                        break 'steps;
                    }
                    let sleep = side.sleep_us[rank];
                    if sleep > 0 {
                        std::thread::sleep(Duration::from_micros(sleep));
                    }
                    let t = side.series.at(k);
                    let rect = src.rect();
                    ctx.fill.stamp(rect, src.data_mut(), t);
                    let t0 = Instant::now();
                    let res = proc.export(t, src);
                    let dt = t0.elapsed();
                    out.export_ns.push(ns_u32(dt));
                    if tracing {
                        let start_ns = ctx.rec.ns_of(t0);
                        out.spans.push(CallSpan {
                            name: "export",
                            start_ns,
                            end_ns: start_ns + dt.as_nanos() as u64,
                            call: k as u32,
                        });
                    }
                    if let Err(e) = res {
                        fail(&mut out, format!("export {k}: {e}"));
                        ctx.stop.store(true, Ordering::Relaxed);
                        ctx.gate.abort();
                        break 'steps;
                    }
                }
            }
        }
    }
    out.end = Instant::now();
    out.drive_s = (out.end - begun).as_secs_f64();
    out
}

impl FabricWorkload {
    /// Builds the session and tears it down again; returns the build time.
    pub fn setup_once(&self, rec: &Recorder, parent: SpanId) -> Result<f64, String> {
        let t0 = Instant::now();
        let live = Live::build(&self.coupling, self.engine, rec, parent);
        let setup_s = t0.elapsed().as_secs_f64();
        live?.shutdown()?;
        Ok(setup_s)
    }

    pub fn rep(&self, seed: u64, rec: &Recorder, parent: SpanId) -> RepOut {
        let mut out = RepOut::default();
        let built = rec.within("setup", parent, |id| {
            Live::build(&self.coupling, self.engine, rec, id)
        });
        let mut live = match built {
            Ok(l) => l,
            Err(e) => {
                out.attempted = 1;
                out.fail(format!("set-up: {e}"));
                return out;
            }
        };

        let c = &self.coupling;
        let fill = Fill::new(seed, c.grid.0, c.grid.1);
        let mut slots = 0;
        let mut jobs = Vec::new();
        for (p, (prog, plan)) in c.programs.iter().zip(&self.plans).enumerate() {
            let owned =
                |name: Option<&str>| name.map(|n| c.owned(prog.name, n).expect("bound region"));
            let (ex, im) = (owned(c.exported(prog.name)), owned(c.imported(prog.name)));
            for rank in 0..prog.procs {
                let credits = plan.import.as_ref().is_some_and(|i| i.credits_gate);
                let slot = credits.then(|| {
                    slots += 1;
                    slots - 1
                });
                // The pieces are allocated here, on the one thread that lives
                // through every rep, so that a driver thread's allocator
                // arena holds nothing but what the program puts there.
                let src = ex.as_ref().map(|v| {
                    let mut piece = Piece::zeros(v[rank]);
                    fill.fill(v[rank], piece.data_mut());
                    piece
                });
                let dest = im.as_ref().map(|v| Piece::zeros(v[rank]));
                jobs.push((live.take(p, rank), plan, (p, rank), (src, dest), slot));
            }
        }
        let gate = CreditGate::new(slots.max(1), self.window);
        let start = Barrier::new(jobs.len() + 1);
        let stop = AtomicBool::new(false);
        let ctx = DriveCtx {
            own_cores: self.own_cores,
            fill,
            gate: &gate,
            start: &start,
            stop: &stop,
            rec,
        };

        let run = rec.open("run", parent);
        let run_id = run.id();
        let (begun, outs) = std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .into_iter()
                .map(|(proc, plan, who, pieces, slot)| {
                    let ctx = &ctx;
                    s.spawn(move || drive(proc, plan, who, pieces, slot, ctx))
                })
                .collect();
            start.wait();
            let begun = Instant::now();
            let outs: Vec<ThreadOut> = handles
                .into_iter()
                .map(|h| h.join().expect("driver thread panicked"))
                .collect();
            (begun, outs)
        });
        let ended = outs.iter().map(|o| o.end).max().unwrap_or(begun);
        out.wall_s = (ended - begun).as_secs_f64();
        rec.close(run);

        let mut import_ns = Vec::new();
        let (mut export_ns, mut slow_ns, mut fast_ns) = (Vec::new(), Vec::new(), Vec::new());
        for o in outs {
            out.attempted += (o.import_ns.len() + o.export_ns.len()) as u64;
            out.failed += o.failed;
            out.errors.extend(o.errors);
            out.bytes_landed += o.bytes_landed;
            if o.rank == 0 {
                out.imports += o.imports_done;
            }
            if !o.export_ns.is_empty() {
                out.exporter_drive_s += o.drive_s;
                let exporter = self.slow.0;
                if o.prog == exporter {
                    let which = if o.rank == self.slow.1 {
                        &mut slow_ns
                    } else {
                        &mut fast_ns
                    };
                    which.extend_from_slice(&o.export_ns);
                }
            }
            import_ns.extend_from_slice(&o.import_ns);
            export_ns.extend_from_slice(&o.export_ns);
            rec.absorb(run_id, (o.prog * 16 + o.rank) as u32, o.spans);
        }
        out.gate_wait_s = gate.waited_s();
        out.import = call_stats(&import_ns);
        out.import_us = out.import.p50_us;
        out.export = call_stats(&export_ns);
        out.export_us = ExportTimes {
            p50_us: out.export.p50_us,
            slow_mean_us: call_stats(&slow_ns).mean_us,
            fast_mean_us: call_stats(&fast_ns).mean_us,
        };

        match rec.within("teardown", parent, |_| live.shutdown()) {
            Ok(counters) => out.counters = counters,
            Err(e) => out.fail(format!("shutdown: {e}")),
        }

        if out.failed == 0 {
            if let Err(e) = self.check_regime(&out) {
                out.fail(format!("regime: {e}"));
            }
        }
        out
    }

    /// The rep must have run the experiment the workload is named for.
    fn check_regime(&self, out: &RepOut) -> Result<(), String> {
        let c = &out.counters;
        no_faults(c, &["retransmits", "timeouts", "degraded_buffers"])?;
        match self.regime {
            Regime::SlowRankCopies { per_import } => {
                let got = c.ports[0][self.slow.1].memcpys;
                let want = per_import * out.imports;
                // A request that reaches the slow rank late costs it an
                // extra copy: 3–5 % of windows on a quiet two-core box, up to
                // 20 % on a busy one. The band only has to tell 1 per
                // import (help works) from 4 (it does not).
                let slack = want / 2 + 6;
                if got.abs_diff(want) > slack {
                    return Err(format!(
                        "slow rank paid {got} copies for {} imports, expected {want} ± {slack}",
                        out.imports
                    ));
                }
            }
            Regime::EveryExportCopied => {
                let (paid, calls) = (c.get("memcpy_paid"), c.get("export_calls"));
                if paid != calls || calls == 0 {
                    return Err(format!("memcpy_paid {paid} != export_calls {calls}"));
                }
            }
            Regime::EveryAndOneInFour => {
                for rank in &c.ports[0] {
                    if rank.sends != rank.exports {
                        return Err(format!(
                            "every-step importer got {} of {}",
                            rank.sends, rank.exports
                        ));
                    }
                }
                for rank in &c.ports[1] {
                    if rank.sends * 4 != rank.exports {
                        return Err(format!(
                            "every-4th importer got {} of {}",
                            rank.sends, rank.exports
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

// --- socket workloads ------------------------------------------------------

#[derive(Debug, Clone)]
pub struct SocketWorkload {
    pub plan: SocketPlan,
    pub node_bin: PathBuf,
}

impl SocketWorkload {
    /// The same plan with one step: bootstrap, handshake, drain and exit.
    pub fn setup_once(&self, rec: &Recorder, parent: SpanId) -> Result<f64, String> {
        let plan = SocketPlan {
            steps: 1,
            ..self.plan.clone()
        };
        let run = rec.within("net.bootstrap", parent, |_| {
            crate::adapter::run_socket(&plan, &self.node_bin)
        })?;
        match run.errors.first() {
            Some(e) => Err(e.clone()),
            None => Ok(run.wall_s),
        }
    }

    /// One session of the full plan. `setup_s` (the run's median one-step
    /// wall) is subtracted to get the steady-state wall.
    pub fn rep(&self, setup_s: f64, verify_values: bool, rec: &Recorder, parent: SpanId) -> RepOut {
        let mut out = RepOut::default();
        let plan = SocketPlan {
            verify_values,
            ..self.plan.clone()
        };
        let steps = plan.steps as u64;
        let procs = plan.procs as u64;
        out.attempted = 2 * steps * procs;
        let run = match rec.within("net.run_plan", parent, |_| {
            crate::adapter::run_socket(&plan, &self.node_bin)
        }) {
            Ok(r) => r,
            Err(e) => {
                out.fail(e);
                return out;
            }
        };
        out.wall_s = (run.wall_s - setup_s).max(run.wall_s * 0.5);
        for e in &run.errors {
            out.fail(e.clone());
        }
        let series = plan.series();
        for (j, got) in run.matches.iter().enumerate() {
            let want = expected_match(Policy::Reg, plan.tol, &series, series.at(j));
            if *got != want {
                out.fail(format!("import {j}: got {got:?}, oracle {want:?}"));
            }
        }
        if run.matches.len() as u64 != steps {
            out.fail(format!("{} of {steps} matches reported", run.matches.len()));
        }
        for (rank, done) in run.imports_done.iter().enumerate() {
            if *done != steps {
                out.fail(format!("importer rank {rank} completed {done} of {steps}"));
            }
        }
        out.imports = run.imports_done.first().copied().unwrap_or(0);
        let cells = (plan.grid.0 * plan.grid.1) as u64;
        out.bytes_landed = out.imports * cells * 8;
        // One export per import on every rank, issued by the nodes.
        out.import_us = out.wall_s * 1e6 / out.imports.max(1) as f64;
        out.export_us = ExportTimes::wall_per_export(out.import_us);
        out.counters = run.counters;
        if out.failed == 0 {
            let c = &out.counters;
            let (tx, rx) = (c.get("net_frames"), c.get("net_rx_frames"));
            let regime = if tx != rx || tx == 0 {
                Err(format!("{tx} frames sent, {rx} received"))
            } else {
                no_faults(
                    c,
                    &[
                        "retransmits",
                        "timeouts",
                        "net_reconnects",
                        "net_codec_rejects",
                    ],
                )
            };
            if let Err(e) = regime {
                out.fail(format!("regime: {e}"));
            }
        }
        out
    }
}

// --- the simulator workload ------------------------------------------------

#[derive(Debug, Clone)]
pub struct DesWorkload {
    /// Panel (d): 32 importer processes.
    pub panel_d: DesPanel,
    /// Panel (c): 16 importer processes.
    pub panel_c: DesPanel,
    /// (d)+(c) pairs simulated per rep.
    pub pairs_per_rep: usize,
}

/// The first export iteration from which the slow rank buffers nothing it
/// does not send: the start of the acceptable region of the first request
/// after the last one that still had unnecessary copies.
fn optimal_entry(panel: &DesPanel, run: &DesRun) -> f64 {
    let per_req = &run.counters.ports[0][DesPanel::SLOW_RANK].unnecessary_by_request;
    let first_clean = per_req.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1);
    if first_clean >= panel.imports {
        return -1.0;
    }
    let region_lo = panel.import_series().at(first_clean) - DesPanel::TOL;
    // Exports are one time unit apart.
    (region_lo - panel.export_t0).ceil().max(0.0)
}

impl DesWorkload {
    pub fn setup_once(&self) -> Result<f64, String> {
        let t0 = Instant::now();
        let sim = DesSim::build(&self.panel_d);
        let s = t0.elapsed().as_secs_f64();
        sim.map(|_| s)
    }

    fn simulate(panel: &DesPanel, out: &mut RepOut) -> Option<(DesRun, f64)> {
        out.attempted += (panel.exports * 4 + panel.imports * panel.u_procs) as u64;
        let sim = match DesSim::build(panel) {
            Ok(s) => s,
            Err(e) => {
                out.fail(format!("des build: {e}"));
                return None;
            }
        };
        let t0 = Instant::now();
        let run = sim.run();
        let wall = t0.elapsed().as_secs_f64();
        let run = match run {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("des run: {e}"));
                return None;
            }
        };
        let (exports, requests) = (panel.export_series(), panel.import_series());
        for (j, got) in run.matches.iter().enumerate() {
            let want = expected_match(Policy::RegL, DesPanel::TOL, &exports, requests.at(j));
            if *got != want {
                out.fail(format!("des import {j}: got {got:?}, oracle {want:?}"));
            }
        }
        if run.matches.len() != panel.imports || run.import_done.iter().any(|&d| d != panel.imports)
        {
            out.fail(format!(
                "des completed {:?} imports, {} matches, expected {}",
                run.import_done,
                run.matches.len(),
                panel.imports
            ));
        }
        if let Err(e) = no_faults(
            &run.counters,
            &["retransmits", "timeouts", "degraded_buffers"],
        ) {
            out.fail(format!("regime: {e}"));
        }
        Some((run, wall))
    }

    /// Panels (d) and (c) in turn, `pairs_per_rep` times. Every wall-clock
    /// number of the rep comes from one value: the first quartile of the
    /// panel-(d) simulation walls. The simulation is deterministic,
    /// single-threaded work, so what varies from one to the next is the
    /// machine: on this VM the same simulation takes 3.9 ms, or up to 6 ms
    /// for seconds on end while the neighbouring core of the guest sits idle
    /// and nothing page-faults. A slowed-down simulation says nothing about
    /// the program, so the rep is read near its undisturbed end.
    pub fn rep(&self) -> RepOut {
        let mut out = RepOut::default();
        let mut d_walls = Vec::new();
        let mut first: Option<(DesRun, DesRun)> = None;
        for _ in 0..self.pairs_per_rep {
            let Some((d, d_wall)) = Self::simulate(&self.panel_d, &mut out) else {
                break;
            };
            let Some((c, _)) = Self::simulate(&self.panel_c, &mut out) else {
                break;
            };
            d_walls.push(d_wall);
            match &first {
                None => first = Some((d, c)),
                // Same configuration, same report: anything else is a
                // determinism bug, and the virtual metrics would be noise.
                Some((d0, c0)) => {
                    if *d0 != d || *c0 != c {
                        out.fail("two simulations of one configuration differ".into());
                    }
                }
            }
        }
        let sims = over_reps(&d_walls);
        let (imports, exports) = (self.panel_d.imports, self.panel_d.exports);
        out.imports = (d_walls.len() * imports) as u64;
        out.wall_s = sims.q1 * d_walls.len() as f64;
        out.import_us = sims.q1 * 1e6 / imports as f64;
        out.export_us = ExportTimes::wall_per_export(sims.q1 * 1e6 / exports as f64);
        // 8 MiB cross the (simulated) wire per import.
        out.bytes_landed = out.imports * 1024 * 1024 * 8;
        if let Some((d, c)) = first {
            out.des = Some(DesNumbers {
                virtual_total_s: d.virtual_total_s,
                virtual_export_slow_ms: d.virtual_export_slow_s * 1e3,
                optimal_entry_u32: optimal_entry(&self.panel_d, &d),
                optimal_entry_u16: optimal_entry(&self.panel_c, &c),
                memcpy_skipped_slow: d.counters.ports[0][DesPanel::SLOW_RANK].skips,
                sim_wall_ms: sims.median * 1e3,
            });
            out.counters = d.counters;
            out.counted_imports = Some(imports as u64);
        }
        out
    }
}

// --- the catalogue ---------------------------------------------------------

pub enum Workload {
    Fabric(FabricWorkload),
    Socket(SocketWorkload),
    Des(DesWorkload),
}

fn pair(
    grid: (usize, usize),
    exporter: (&'static str, usize, Decomp),
    importer: (&'static str, usize, Decomp),
    (policy, tol): (Policy, f64),
    buddy_help: bool,
) -> Coupling {
    Coupling {
        grid,
        programs: vec![
            Program {
                name: exporter.0,
                procs: exporter.1,
            },
            Program {
                name: importer.0,
                procs: importer.1,
            },
        ],
        regions: vec![
            Region {
                program: exporter.0,
                name: "field",
                decomp: exporter.2,
            },
            Region {
                program: importer.0,
                name: "field",
                decomp: importer.2,
            },
        ],
        links: vec![Link {
            from: (exporter.0, "field"),
            to: (importer.0, "field"),
            policy,
            tol,
        }],
        buddy_help,
    }
}

/// One export per import at the same timestamp, exporter held `window`
/// steps ahead at most.
fn lockstep(
    coupling: Coupling,
    imports: usize,
    phase: f64,
    window: u64,
    full_every: usize,
) -> FabricWorkload {
    let series = Series {
        t0: 1.0 + phase,
        dt: 1.0,
        count: imports,
    };
    let link = coupling.links[0].clone();
    let procs = coupling.programs[0].procs;
    FabricWorkload {
        coupling,
        engine: Engine::Fabric,
        plans: vec![
            ProgramPlan {
                steps: imports,
                export: Some(ExportSide {
                    series,
                    per_step: 1,
                    sleep_us: vec![0; procs],
                    gated: true,
                }),
                ..Default::default()
            },
            ProgramPlan {
                steps: imports,
                import: Some(ImportSide {
                    requests: series,
                    source: series,
                    policy: link.policy,
                    tol: link.tol,
                    full_every,
                    credits_gate: true,
                }),
                ..Default::default()
            },
        ],
        window,
        own_cores: false,
        slow: (0, procs - 1),
        regime: Regime::EveryExportCopied,
    }
}

/// Options of the benchmark itself (never of the program).
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    /// `--sensitivity` runs `fig4_pair` with the program's public
    /// `buddy_help` option off.
    pub buddy_help: bool,
}

pub fn build(name: &str, seed: u64, knobs: Knobs) -> Result<Workload, String> {
    let phase = seed_phase(seed);
    Ok(match name {
        "fig4_pair" => Workload::Fabric(fig4_pair(phase, knobs.buddy_help)),
        // Control plane only: 4 KiB pieces, every export matched exactly.
        "ctrl_small" => Workload::Fabric(lockstep(
            pair(
                (16, 64),
                ("E", 2, Decomp::Rows),
                ("I", 2, Decomp::Rows),
                (Policy::RegL, 0.4),
                true,
            ),
            40_000,
            phase,
            4,
            1,
        )),
        // Payload only: 4 MiB row-block pieces out, each importer rank
        // assembles two strided 2 MiB sub-rectangles into a column block.
        "bulk_mxn" => Workload::Fabric(lockstep(
            pair(
                (1024, 1024),
                ("E", 2, Decomp::Rows),
                ("I", 2, Decomp::Cols),
                (Policy::Reg, 0.25),
                true,
            ),
            2_000,
            phase,
            2,
            64,
        )),
        // Three models through the application-facing API. ATM exports
        // `flux` every step to LND (every step, REGU) and to OCN (every 4th,
        // REG), and imports `sst` from OCN as of one coupling period ago
        // (REGL). OCN opens each of its steps by exporting `sst` (the first
        // is its initial condition, so the cycle can start) and then imports
        // the flux that closes the period.
        "multirate_cycle" => {
            let steps = 9_600;
            let period = 4;
            let flux = Series {
                t0: 8.0 + phase,
                dt: 1.0,
                count: steps,
            };
            let sst = Series {
                t0: flux.t0 - period as f64,
                dt: period as f64,
                count: steps / period + 1,
            };
            let region = |program, name, decomp| Region {
                program,
                name,
                decomp,
            };
            let link = |from, to, policy, tol| Link {
                from,
                to,
                policy,
                tol,
            };
            let coupling = Coupling {
                grid: (256, 256),
                programs: vec![
                    Program {
                        name: "ATM",
                        procs: 2,
                    },
                    Program {
                        name: "LND",
                        procs: 1,
                    },
                    Program {
                        name: "OCN",
                        procs: 2,
                    },
                ],
                regions: vec![
                    region("ATM", "flux", Decomp::Rows),
                    region("LND", "flux", Decomp::Rows),
                    region("OCN", "flux", Decomp::Cols),
                    region("OCN", "sst", Decomp::Cols),
                    region("ATM", "sst", Decomp::Rows),
                ],
                links: vec![
                    link(("ATM", "flux"), ("LND", "flux"), Policy::RegU, 0.5),
                    link(("ATM", "flux"), ("OCN", "flux"), Policy::Reg, 0.5),
                    link(("OCN", "sst"), ("ATM", "sst"), Policy::RegL, 3.5),
                ],
                buddy_help: true,
            };
            Workload::Fabric(FabricWorkload {
                coupling,
                engine: Engine::Session,
                plans: vec![
                    // ATM: the sst of one period ago, then this step's flux.
                    ProgramPlan {
                        steps,
                        import: Some(ImportSide {
                            requests: Series {
                                t0: flux.t0 - period as f64,
                                ..flux
                            },
                            source: sst,
                            policy: Policy::RegL,
                            tol: 3.5,
                            full_every: 32,
                            credits_gate: false,
                        }),
                        export: Some(ExportSide {
                            series: flux,
                            per_step: 1,
                            sleep_us: vec![0; 2],
                            gated: true,
                        }),
                        export_first: false,
                    },
                    // LND: the first flux at or after a quarter step back.
                    ProgramPlan {
                        steps,
                        import: Some(ImportSide {
                            requests: Series {
                                t0: flux.t0 - 0.25,
                                ..flux
                            },
                            source: flux,
                            policy: Policy::RegU,
                            tol: 0.5,
                            full_every: 32,
                            credits_gate: true,
                        }),
                        ..Default::default()
                    },
                    // OCN: its sst, then every 4th flux exactly.
                    ProgramPlan {
                        steps: sst.count,
                        import: Some(ImportSide {
                            requests: Series {
                                t0: flux.t0,
                                dt: period as f64,
                                count: steps / period,
                            },
                            source: flux,
                            policy: Policy::Reg,
                            tol: 0.5,
                            full_every: 8,
                            credits_gate: false,
                        }),
                        export: Some(ExportSide {
                            series: sst,
                            per_step: 1,
                            sleep_us: vec![0; 2],
                            gated: false,
                        }),
                        export_first: true,
                    },
                ],
                window: 4,
                own_cores: false,
                slow: (0, 1),
                regime: Regime::EveryAndOneInFour,
            })
        }
        "socket_bulk" | "socket_ctrl" => {
            let bulk = name == "socket_bulk";
            let node_bin = crate::adapter::node_bin()
                .ok_or("couplink-node not found next to this binary (build the workspace first)")?;
            Workload::Socket(SocketWorkload {
                plan: SocketPlan {
                    grid: if bulk { (256, 256) } else { (16, 64) },
                    procs: 2,
                    // Nothing paces a node's exporters, so they buffer the
                    // whole rep ahead of the wire: at the issue's 1 600 and
                    // 10 000 steps that is 735 MB and 86 MB resident and
                    // throughput swings 275-763 imports/s run to run.
                    steps: if bulk { 800 } else { 3_000 },
                    t0: 1.0 + phase,
                    tol: 0.25,
                    verify_values: false,
                },
                node_bin,
            })
        }
        "fig4_des" => {
            let panel = |u_procs| DesPanel {
                u_procs,
                exports: 1001,
                imports: 50,
                export_t0: 1.5 + phase / 2.0,
                buddy_help: true,
            };
            Workload::Des(DesWorkload {
                panel_d: panel(32),
                panel_c: panel(16),
                pairs_per_rep: 250,
            })
        }
        other => return Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    })
}

impl Workload {
    /// One set-up (and tear-down); returns the set-up seconds.
    pub fn setup_once(&self, rec: &Recorder, parent: SpanId) -> Result<f64, String> {
        match self {
            Workload::Fabric(w) => w.setup_once(rec, parent),
            Workload::Socket(w) => w.setup_once(rec, parent),
            Workload::Des(w) => w.setup_once(),
        }
    }

    /// One rep. `setup_s` is the run's median set-up time (only the socket
    /// workloads need it, to subtract the bootstrap from their wall);
    /// `verify_values` arms the socket nodes' own cell-by-cell check.
    pub fn rep(
        &self,
        seed: u64,
        setup_s: f64,
        verify_values: bool,
        rec: &Recorder,
        parent: SpanId,
    ) -> RepOut {
        match self {
            Workload::Fabric(w) => w.rep(seed, rec, parent),
            Workload::Socket(w) => w.rep(setup_s, verify_values, rec, parent),
            Workload::Des(w) => w.rep(),
        }
    }

    /// How many batches of set-ups a pass times before the warm-up and
    /// after every rep.
    pub fn setup_batches(&self) -> usize {
        match self {
            Workload::Socket(_) => 1,
            _ => 3,
        }
    }

    /// The coupling the layer replay sizes itself by: the workload's first
    /// connection.
    pub fn shape(&self) -> Shape {
        let of_coupling = |c: &Coupling, over_sockets| {
            let link = &c.links[0];
            let side = |prog: &str, region: &str| {
                let procs = c
                    .programs
                    .iter()
                    .find(|p| p.name == prog)
                    .map_or(1, |p| p.procs);
                let decomp = c
                    .regions
                    .iter()
                    .find(|r| r.program == prog && r.name == region)
                    .map_or(Decomp::Rows, |r| r.decomp);
                (decomp, procs)
            };
            Shape {
                exporter: side(link.from.0, link.from.1),
                importer: side(link.to.0, link.to.1),
                exporter_piece: c.owned(link.from.0, link.from.1).expect("bound region")[0],
                policy: link.policy,
                tol: link.tol,
                over_sockets,
                moves_payload: true,
                coupling: c.clone(),
            }
        };
        match self {
            Workload::Fabric(w) => of_coupling(&w.coupling, false),
            Workload::Socket(w) => of_coupling(&socket_coupling(&w.plan), true),
            Workload::Des(w) => Shape {
                // The simulator charges virtual time for payload and moves
                // none.
                moves_payload: false,
                ..of_coupling(&fig4_coupling(w.panel_d.u_procs, true), false)
            },
        }
    }
}

fn socket_coupling(plan: &SocketPlan) -> Coupling {
    pair(
        plan.grid,
        ("E0", plan.procs, Decomp::Rows),
        ("I0", plan.procs, Decomp::Rows),
        (Policy::Reg, plan.tol),
        true,
    )
}

fn fig4_coupling(u_procs: usize, buddy_help: bool) -> Coupling {
    pair(
        (1024, 1024),
        ("F", 4, Decomp::Blocks { rows: 2, cols: 2 }),
        ("U", u_procs, Decomp::Rows),
        (Policy::RegL, 2.5),
        buddy_help,
    )
}

/// The paper's U/F pair. F: 2×2 quadrants of 1024×1024 (2 MiB pieces),
/// rank 3 slow; U: 2 row blocks; REGL 2.5; one export in 20 transferred.
/// The phase stays in [0.5, 1) so three exports fall in every acceptable
/// region, as with the paper's 0.6.
fn fig4_pair(phase: f64, buddy_help: bool) -> FabricWorkload {
    let imports = 150;
    let exports = Series {
        t0: 1.5 + phase / 2.0,
        dt: 1.0,
        count: 20 * imports,
    };
    FabricWorkload {
        coupling: fig4_coupling(2, buddy_help),
        engine: Engine::Fabric,
        plans: vec![
            ProgramPlan {
                steps: imports,
                export: Some(ExportSide {
                    series: exports,
                    per_step: 20,
                    sleep_us: vec![50, 50, 50, 400],
                    gated: true,
                }),
                ..Default::default()
            },
            ProgramPlan {
                steps: imports,
                import: Some(ImportSide {
                    requests: Series {
                        t0: 20.0,
                        dt: 20.0,
                        count: imports,
                    },
                    source: exports,
                    policy: Policy::RegL,
                    tol: 2.5,
                    full_every: 8,
                    credits_gate: true,
                }),
                ..Default::default()
            },
        ],
        window: 1,
        // The workload is about what `export()` costs the slow rank, and
        // the paper's slow rank does not lend its processor to `U`.
        own_cores: true,
        slow: (0, 3),
        regime: Regime::SlowRankCopies {
            // With help the slow rank buffers only the match. Without, it
            // buffers the three exports inside the region and the one that
            // decides the request, which it cannot yet rule out for the next.
            per_import: if buddy_help { 1 } else { 4 },
        },
    }
}
