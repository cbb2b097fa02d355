//! Weak/strong scaling sweeps for the threaded fabric (`bench scale`).
//!
//! Usage: `cargo run -p couplink-bench --release --bin scale -- \
//!     [--full] [--mutate] [--sessions N] [--ranks LIST] [--out FILE] \
//!     [--gate-ms N]`
//!
//! Sweeps a grid of coupled pairs × processes-per-program on the real
//! threaded [`Fabric`], measuring wall-clock throughput: imports/sec,
//! bytes buffered/sec and (once available in the snapshot) lock-wait
//! time. Two series share each grid point:
//!
//! * **weak** — fixed iterations per rank, so total work grows with the
//!   grid; per-iteration latency should stay flat if the control plane
//!   scales.
//! * **strong** — fixed total imports divided across ranks; wall time
//!   should shrink (or at least not grow) with more workers.
//!
//! Results land in the `couplink-bench/v1` schema (mode `scale-smoke` /
//! `scale-full`): deterministic protocol counters under `counters`
//! (informational here — threaded counts depend on interleaving and are
//! *not* baseline-gated), throughput under `wall_s`.
//!
//! The regression gate is a ±tolerance throughput budget rather than a
//! baseline diff: every grid point's mean wall time per import iteration
//! must stay under `--gate-ms` (default [`DEFAULT_GATE_MS`] — generous
//! enough for a loaded single-core CI box, tight enough to reject a real
//! stall). `--mutate` injects an artificial [`MUTATE_STALL_FACTOR`]×-budget
//! sleep into every import iteration; `ci.sh` uses it to prove the gate
//! has teeth, mirroring the report gate's 8× memcpy mutation.
//!
//! The grid also gates, from counters and not from the wall clock, that a
//! control chain stays on the thread that set it off ([`check_handoffs`]):
//! fewer than one cross-worker steal per import, and at least half of all
//! task polls taken from the polling thread's own run-next list. There is
//! no way to switch chaining off, so the negative control is a unit test
//! over a fabricated snapshot.
//!
//! # `--sessions N`
//!
//! The multi-session axis (mode `scale-sessions`): N independent
//! topologies multiplexed on one [`SessionSet`] worker pool, deliberately
//! oversubscribed (N × tasks-per-session ≫ cores). The gates are the
//! per-iteration wall budget and a *fairness* check: the slowest session's
//! wall time must stay within [`SESSION_FAIRNESS_RATIO`]× of the fastest
//! (round-robin scheduling means co-resident sessions finish together).
//! The drivers are a closed loop: every driver thread starts behind one
//! barrier (spawning 128 threads takes longer than a session's run, so a
//! wall measured from before the first spawn ranks sessions by spawn
//! order), and an exporter leads its importer by at most one step, so
//! every import waits for its export and the sessions advance through
//! the shared pool one coupling step at a time. With free-running
//! exporters an `import()` that finds its data exported runs its own
//! control chain and never blocks: a rank's 240 imports fit one OS time
//! slice and the sessions finish in the order the OS first ran their
//! threads in (2.2–13.6× over twelve runs), which is not the pool's doing.
//! The executor's throughput is gated by `bench e2e`'s `ctrl_small` /
//! `multirate_cycle` `imports_per_s`, not here. `--mutate` has no
//! meaning here: the starvation check's negative control is a unit test
//! feeding [`check_fairness`] the per-session walls of a starved run.
//!
//! # `--ranks N1,N2,…`
//!
//! The hierarchical collective axis (mode `scale-ranks`): one coupled
//! pair per point, both programs at `N` ranks, run on the threaded fabric
//! with hierarchical rep fan-out enabled. Rank counts well past the tree
//! branching factor make the rep's per-collective origin traffic the
//! scaling story: the gate demands the measured rep-origin control
//! messages per import stay within the `k·⌈log_k N⌉ + 2k` budget of the
//! control-scaling oracle — O(log N), not the flat runtime's O(N) — and
//! that the exact tree conservation laws (every rank served exactly once
//! per collective, relays matching the tree's edge count) hold on the
//! live fabric counters. Under `--ranks`, `--mutate` disables the tree
//! and reruns the sweep on the legacy flat fan-out; the O(log N) budget
//! must then fail, proving the gate would catch a regression to per-rank
//! rep broadcasts.

use couplink_bench::report::{BenchReport, ScenarioMeasure};
use couplink_layout::RedistPlan;
use couplink_layout::{Decomposition, Extent2, LocalArray};
use couplink_metrics::{CounterSnapshot, CtrlClass, MetricsSnapshot};
use couplink_proto::ConnectionId;
use couplink_runtime::engine::oracle::check_ctrl_scaling;
use couplink_runtime::engine::{tree, ConnTopo, ExportRegionTopo, ImportRegionTopo, ProgramTopo};
use couplink_runtime::{session_task_count, Fabric, FabricOptions, SessionSet, Topology};
use couplink_time::{ts, MatchPolicy, Tolerance};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Per-import-iteration wall budget in milliseconds. One constant shared
/// by the gate default and the `--mutate` stall so they cannot drift.
const DEFAULT_GATE_MS: f64 = 50.0;

/// The `--mutate` stall sleeps this multiple of the gate budget per
/// import iteration — far enough past the budget that the gate must trip.
const MUTATE_STALL_FACTOR: f64 = 4.0;

/// Fairness (starvation) bound for `--sessions`: slowest session wall /
/// fastest session wall. Round-robin keeps co-resident sessions in
/// lockstep (ratio near 1); a scheduler that favours some sessions lets
/// them finish many times earlier.
const SESSION_FAIRNESS_RATIO: f64 = 2.5;

struct Options {
    full: bool,
    mutate: bool,
    sessions: Option<usize>,
    ranks: Option<Vec<usize>>,
    out: PathBuf,
    gate_ms: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        full: false,
        mutate: false,
        sessions: None,
        ranks: None,
        out: PathBuf::from("results/BENCH_couplink_scale.json"),
        gate_ms: DEFAULT_GATE_MS,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => opts.full = true,
            "--mutate" => opts.mutate = true,
            "--sessions" => {
                let n: usize = args
                    .next()
                    .ok_or("--sessions needs a count")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?;
                if n == 0 {
                    return Err("--sessions needs at least 1".into());
                }
                opts.sessions = Some(n);
            }
            "--ranks" => {
                let list = args.next().ok_or("--ranks needs a comma-separated list")?;
                let ranks = list
                    .split(',')
                    .map(|s| s.trim().parse::<usize>())
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| format!("--ranks: {e}"))?;
                if ranks.is_empty() || ranks.contains(&0) {
                    return Err("--ranks needs positive rank counts".into());
                }
                opts.ranks = Some(ranks);
            }
            "--out" => opts.out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            "--gate-ms" => {
                opts.gate_ms = args
                    .next()
                    .ok_or("--gate-ms needs a number")?
                    .parse()
                    .map_err(|e| format!("--gate-ms: {e}"))?
            }
            other => return Err(format!("unknown argument {other:?} (see the doc comment)")),
        }
    }
    if opts.mutate && opts.sessions.is_some() {
        return Err("--mutate does not apply to --sessions (see the doc comment)".into());
    }
    Ok(opts)
}

/// One grid point: `pairs` independent exporter→importer program pairs,
/// each program running `procs` coupled processes.
#[derive(Debug, Clone, Copy)]
struct GridPoint {
    pairs: usize,
    procs: usize,
}

/// The sweep grid. Smoke stays small (the CI box may be a single core);
/// full pushes the thread count far past the core count so lock
/// contention, not compute, dominates.
fn grid(full: bool) -> Vec<GridPoint> {
    let pts: &[(usize, usize)] = if full {
        &[(1, 2), (2, 2), (4, 2), (4, 4), (6, 4)]
    } else {
        &[(1, 1), (2, 2), (4, 2)]
    };
    pts.iter()
        .map(|&(pairs, procs)| GridPoint { pairs, procs })
        .collect()
}

/// Builds `pairs` disjoint exporter→importer couplings, each over its own
/// region decomposed row-block across `procs` ranks. Exact-match REGL so
/// every import resolves against the same-timestamp export.
fn scale_topology(pt: GridPoint) -> Topology {
    let rows_per_rank = 4;
    let extent = Extent2::new(pt.procs * rows_per_rank, 64);
    let decomp = Decomposition::row_block(extent, pt.procs).expect("row-block decomposition");
    let mut programs = Vec::new();
    let mut conns = Vec::new();
    for k in 0..pt.pairs {
        let id = ConnectionId(k as u32);
        programs.push(ProgramTopo {
            name: format!("E{k}"),
            procs: pt.procs,
            exports: vec![ExportRegionTopo {
                name: "r".into(),
                decomp,
                conns: vec![id],
            }],
            imports: Vec::new(),
        });
        programs.push(ProgramTopo {
            name: format!("I{k}"),
            procs: pt.procs,
            exports: Vec::new(),
            imports: vec![ImportRegionTopo {
                name: "m".into(),
                decomp,
                conn: id,
            }],
        });
        conns.push(ConnTopo {
            id,
            exporter_prog: 2 * k,
            exporter_region: 0,
            importer_prog: 2 * k + 1,
            importer_region: 0,
            policy: MatchPolicy::RegL,
            tolerance: Tolerance::new(0.4).expect("tolerance"),
            plan: Arc::new(RedistPlan::build(decomp, decomp).expect("identity plan")),
        });
    }
    Topology { programs, conns }
}

struct PointRun {
    wall_s: f64,
    total_imports: u64,
    snapshot: MetricsSnapshot,
}

/// Drives one grid point: every exporter rank exports `iters` objects at
/// `ts = 1, 2, …`; every importer rank collectively imports the same
/// timestamps (zero compute skew — the paper's tightest coupling). The
/// optional `slowdown` models a stalled consumer for the gate's negative
/// test.
fn run_point(
    pt: GridPoint,
    iters: usize,
    slowdown: Option<Duration>,
    options: FabricOptions,
) -> Result<PointRun, String> {
    let topo = scale_topology(pt);
    let rows_per_rank = 4;
    let extent = Extent2::new(pt.procs * rows_per_rank, 64);
    let decomp = Decomposition::row_block(extent, pt.procs).expect("row-block decomposition");
    let mut fabric = Fabric::new(topo, options);
    let metrics = fabric.metrics();

    let start = Instant::now();
    let mut threads = Vec::new();
    for k in 0..pt.pairs {
        for rank in 0..pt.procs {
            let owned = decomp.owned(rank);
            let mut exp = fabric.take_export(2 * k, rank, 0);
            threads.push(std::thread::spawn(move || -> Result<(), String> {
                let data = LocalArray::from_fn(owned, |r, c| (r * 31 + c) as f64);
                for i in 0..iters {
                    exp.export(ts((i + 1) as f64), &data)
                        .map_err(|e| format!("export {i} failed: {e}"))?;
                }
                Ok(())
            }));
            let owned = decomp.owned(rank);
            let mut imp = fabric.take_import(2 * k + 1, rank, 0);
            threads.push(std::thread::spawn(move || -> Result<(), String> {
                let mut dest = LocalArray::zeros(owned);
                for i in 0..iters {
                    let got = imp
                        .import(ts((i + 1) as f64), &mut dest)
                        .map_err(|e| format!("import {i} failed: {e}"))?;
                    if got.is_none() {
                        return Err(format!("import {i} found no match"));
                    }
                    if let Some(d) = slowdown {
                        std::thread::sleep(d);
                    }
                }
                Ok(())
            }));
        }
    }
    for t in threads {
        t.join()
            .map_err(|_| "worker thread panicked".to_string())??;
    }
    let wall_s = start.elapsed().as_secs_f64();
    fabric.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(PointRun {
        wall_s,
        total_imports: (pt.pairs * pt.procs * iters) as u64,
        snapshot: metrics.snapshot(),
    })
}

/// Folds one grid-point run into a scenario: protocol counters from the
/// snapshot, throughput figures under `wall_s` (never baseline-gated).
fn measure(name: &str, run: &PointRun) -> ScenarioMeasure {
    let mut m = ScenarioMeasure::from_metrics(name, &run.snapshot);
    // Threaded counter values depend on interleaving; they are recorded
    // for eyeballing conservation laws, not for exact gating.
    let bytes_buffered = m.counter("bytes_buffered").unwrap_or(0);
    m.wall_s.push(("run".into(), run.wall_s));
    m.wall_s.push((
        "import_iter".into(),
        run.wall_s / run.total_imports.max(1) as f64,
    ));
    m.wall_s.push((
        "imports_per_sec".into(),
        run.total_imports as f64 / run.wall_s.max(1e-12),
    ));
    m.wall_s.push((
        "buffered_bytes_per_sec".into(),
        bytes_buffered as f64 / run.wall_s.max(1e-12),
    ));
    m
}

/// One `--sessions` run: `n` identical sessions of grid point `pt`
/// multiplexed on one pool. Per-session wall time is the moment that
/// session's last importer finishes (measured from the common start), so
/// the spread across sessions exposes scheduling (un)fairness.
struct SessionsRun {
    wall_s: f64,
    total_imports: u64,
    session_walls: Vec<f64>,
    snapshot: MetricsSnapshot,
}

fn run_sessions(n: usize, pt: GridPoint, iters: usize) -> Result<SessionsRun, String> {
    let rows_per_rank = 4;
    let extent = Extent2::new(pt.procs * rows_per_rank, 64);
    let decomp = Decomposition::row_block(extent, pt.procs).expect("row-block decomposition");
    let mut set = SessionSet::new();
    for _ in 0..n {
        set.add_session(scale_topology(pt), FabricOptions::default());
    }
    // Counters from session 0 only — informational (per-session metrics
    // are independent by construction; the throughput figures below are
    // aggregate).
    let metrics = set.session_metrics(0);

    // Every driver thread waits here until all are spawned, or the walls
    // rank the sessions by spawn order.
    let go = Arc::new(Barrier::new(2 * n * pt.pairs * pt.procs + 1));
    let mut exporters = Vec::new();
    let mut importers: Vec<Vec<std::thread::JoinHandle<Result<Instant, String>>>> = Vec::new();
    for s in 0..n {
        let mut session_imps = Vec::new();
        for k in 0..pt.pairs {
            for rank in 0..pt.procs {
                let owned = decomp.owned(rank);
                let mut exp = set.take_export(s, 2 * k, rank, 0);
                // One credit: the exporter takes it before a step, the
                // importer returns it after the matching import, so every
                // import waits for its export and goes through the pool.
                let (credit, done) = std::sync::mpsc::sync_channel::<()>(1);
                let ready = go.clone();
                exporters.push(std::thread::spawn(move || -> Result<(), String> {
                    let data = LocalArray::from_fn(owned, |r, c| (r * 31 + c) as f64);
                    ready.wait();
                    for i in 0..iters {
                        let _ = credit.send(());
                        exp.export(ts((i + 1) as f64), &data)
                            .map_err(|e| format!("export {i} failed: {e}"))?;
                    }
                    Ok(())
                }));
                let owned = decomp.owned(rank);
                let mut imp = set.take_import(s, 2 * k + 1, rank, 0);
                let ready = go.clone();
                session_imps.push(std::thread::spawn(move || -> Result<Instant, String> {
                    let mut dest = LocalArray::zeros(owned);
                    ready.wait();
                    for i in 0..iters {
                        let got = imp
                            .import(ts((i + 1) as f64), &mut dest)
                            .map_err(|e| format!("import {i} failed: {e}"))?;
                        if got.is_none() {
                            return Err(format!("import {i} found no match"));
                        }
                        let _ = done.recv();
                    }
                    Ok(Instant::now())
                }));
            }
        }
        importers.push(session_imps);
    }
    let start = Instant::now();
    go.wait();
    for t in exporters {
        t.join()
            .map_err(|_| "exporter thread panicked".to_string())??;
    }
    let mut session_walls = Vec::with_capacity(n);
    for session_imps in importers {
        let mut wall: f64 = 0.0;
        for t in session_imps {
            let end = t
                .join()
                .map_err(|_| "importer thread panicked".to_string())??;
            wall = wall.max(end.saturating_duration_since(start).as_secs_f64());
        }
        session_walls.push(wall);
    }
    let wall_s = start.elapsed().as_secs_f64();
    let snapshot = metrics.snapshot();
    set.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(SessionsRun {
        wall_s,
        total_imports: (n * pt.pairs * pt.procs * iters) as u64,
        session_walls,
        snapshot,
    })
}

/// The hand-off check: an executor that sends every task it wakes to the
/// task's home shard pays a wake-up per control hop, which shows as
/// several steals per import and no chained polls.
fn check_handoffs(name: &str, c: &CounterSnapshot) -> Option<String> {
    let (steals, imports) = (c.worker_steal, c.import_calls);
    let (chained, polled) = (c.tasks_chained, c.tasks_polled);
    if steals >= imports {
        Some(format!(
            "{name}: {steals} cross-worker steals over {imports} imports (bound: under 1 per import)"
        ))
    } else if 2 * chained < polled {
        Some(format!(
            "{name}: only {chained} of {polled} task polls were chained (bound: at least half)"
        ))
    } else {
        None
    }
}

/// Fastest and slowest session wall.
fn wall_spread(session_walls: &[f64]) -> (f64, f64) {
    let min = session_walls.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = session_walls.iter().cloned().fold(0.0f64, f64::max);
    (min, max)
}

/// Slowest session wall over fastest session wall.
fn fairness_ratio(session_walls: &[f64]) -> f64 {
    let (min, max) = wall_spread(session_walls);
    max / min.max(1e-12)
}

/// The starvation check: co-resident sessions must finish within
/// [`SESSION_FAIRNESS_RATIO`]× of each other.
fn check_fairness(name: &str, session_walls: &[f64]) -> Option<String> {
    let ratio = fairness_ratio(session_walls);
    (ratio > SESSION_FAIRNESS_RATIO).then(|| {
        format!(
            "{name}: starvation — slowest session took {ratio:.2}x the \
             fastest (bound {SESSION_FAIRNESS_RATIO:.1}x)"
        )
    })
}

/// Folds one `--sessions` run into a scenario: aggregate throughput plus
/// the per-session wall spread the fairness gate reads.
fn measure_sessions(name: &str, run: &SessionsRun) -> ScenarioMeasure {
    let mut m = ScenarioMeasure::from_metrics(name, &run.snapshot);
    let walls = &run.session_walls;
    let (min, max) = wall_spread(walls);
    m.wall_s.push(("run".into(), run.wall_s));
    m.wall_s.push((
        "import_iter".into(),
        run.wall_s / run.total_imports.max(1) as f64,
    ));
    m.wall_s.push((
        "imports_per_sec".into(),
        run.total_imports as f64 / run.wall_s.max(1e-12),
    ));
    m.wall_s.push(("session_wall_min".into(), min));
    m.wall_s.push(("session_wall_max".into(), max));
    m.wall_s
        .push(("session_fairness_ratio".into(), fairness_ratio(walls)));
    m
}

/// The `--sessions` mode: the oversubscribed multi-session workload on
/// the pooled executor under the wall-budget and fairness gates.
fn run_sessions_mode(opts: &Options, n: usize) -> Result<(BenchReport, Vec<String>), String> {
    let pt = GridPoint {
        pairs: 4,
        procs: if opts.full { 2 } else { 1 },
    };
    let iters = if opts.full { 400 } else { 240 };
    let tasks_per_session = session_task_count(&scale_topology(pt), &FabricOptions::default());
    let mut violations = Vec::new();

    let pooled_name = format!("sessions_pooled_s{n}_p{}x{}", pt.pairs, pt.procs);
    println!(
        "running {pooled_name} ({iters} iters/rank, {} tasks on the pool) ...",
        n * tasks_per_session
    );
    let pooled = run_sessions(n, pt, iters)?;
    let pooled_ips = pooled.total_imports as f64 / pooled.wall_s.max(1e-12);
    let ratio = fairness_ratio(&pooled.session_walls);
    println!("  {pooled_ips:>10.0} imports/s aggregate  (session wall spread {ratio:.2}x)",);
    let iter_ms = pooled.wall_s * 1000.0 / pooled.total_imports.max(1) as f64;
    if iter_ms > opts.gate_ms {
        violations.push(format!(
            "{pooled_name}: {iter_ms:.2} ms per import iteration exceeds the \
             {:.2} ms budget",
            opts.gate_ms
        ));
    }
    violations.extend(check_fairness(&pooled_name, &pooled.session_walls));

    Ok((
        BenchReport {
            mode: "scale-sessions".to_string(),
            scenarios: vec![measure_sessions(&pooled_name, &pooled)],
        },
        violations,
    ))
}

/// The `--ranks` mode: hierarchical collectives at rank counts past the
/// tree branching factor. Wall time is irrelevant here — the gate reads
/// the deterministic protocol counters: the rep may originate at most
/// `k·⌈log_k N⌉ + 2k` control messages per collective import (O(log N)),
/// and the tree conservation laws must hold exactly (every rank served
/// once per collective, one relay per interior tree edge).
fn run_ranks_mode(opts: &Options, ranks: &[usize]) -> Result<(BenchReport, Vec<String>), String> {
    let hierarchical = !opts.mutate;
    let iters = 4;
    let mut scenarios = Vec::new();
    let mut violations = Vec::new();
    for &n in ranks {
        let pt = GridPoint { pairs: 1, procs: n };
        let name = format!("ranks_n{n:03}");
        let depth = tree::depth(n);
        let budget = (tree::BRANCH * depth + 2 * tree::BRANCH) as u64;
        println!(
            "running {name} ({iters} collective imports over {n}x{n} ranks, {} fan-out) ...",
            if hierarchical { "tree" } else { "FLAT" }
        );
        let options = FabricOptions {
            hierarchical,
            ..FabricOptions::default()
        };
        let run = run_point(pt, iters, None, options).map_err(|e| format!("{name}: {e}"))?;
        let counters = &run.snapshot.counters;
        let origin = counters.ctrl(CtrlClass::ForwardRequest)
            + counters.ctrl(CtrlClass::AnswerBcast)
            + counters.ctrl(CtrlClass::BuddyHelp);
        let per_import = origin / iters as u64;
        println!(
            "  {per_import} rep-origin ctrl msgs/import (budget {budget}), \
             {} relays, tree depth {}",
            counters.ctrl_relay, counters.tree_depth
        );
        if per_import > budget {
            violations.push(format!(
                "{name}: {per_import} rep-origin control messages per import over {n} ranks \
                 exceeds the k*ceil(log_k N) + 2k = {budget} budget (flat O(N) fan-out?)"
            ));
        }
        if hierarchical {
            let conns = [(ConnectionId(0), iters, n, n)];
            if let Err(v) = check_ctrl_scaling(counters, &conns, true) {
                violations.push(format!("{name}: {v}"));
            }
        }
        let mut m = measure(&name, &run);
        m.wall_s
            .push(("origin_per_import".into(), per_import as f64));
        m.wall_s
            .push(("origin_budget_per_import".into(), budget as f64));
        scenarios.push(m);
    }
    Ok((
        BenchReport {
            mode: "scale-ranks".to_string(),
            scenarios,
        },
        violations,
    ))
}

/// The classic weak/strong grid sweep (the default mode).
fn run_grid_mode(opts: &Options) -> Result<(BenchReport, Vec<String>), String> {
    let slowdown = opts
        .mutate
        .then(|| Duration::from_secs_f64(opts.gate_ms * MUTATE_STALL_FACTOR / 1000.0));
    let (weak_iters, strong_total) = if opts.full { (400, 3200) } else { (120, 480) };

    let mut scenarios = Vec::new();
    let mut violations = Vec::new();
    let mut largest: Option<(String, f64)> = None;
    for pt in grid(opts.full) {
        for (series, iters) in [
            ("weak", weak_iters),
            ("strong", (strong_total / (pt.pairs * pt.procs)).max(1)),
        ] {
            let name = format!("scale_{series}_p{}x{}", pt.pairs, pt.procs);
            println!("running {name} ({iters} iters/rank) ...");
            let run = run_point(pt, iters, slowdown, FabricOptions::default())
                .map_err(|e| format!("{name}: {e}"))?;
            let iter_ms = run.wall_s * 1000.0 / (pt.pairs * pt.procs * iters).max(1) as f64;
            let per_sec = run.total_imports as f64 / run.wall_s.max(1e-12);
            println!(
                "  {:>10.0} imports/s  ({iter_ms:.3} ms/iter, {} imports in {:.3}s)",
                per_sec, run.total_imports, run.wall_s
            );
            if iter_ms > opts.gate_ms {
                violations.push(format!(
                    "{name}: {iter_ms:.2} ms per import iteration exceeds the \
                     {:.2} ms budget",
                    opts.gate_ms
                ));
            }
            violations.extend(check_handoffs(&name, &run.snapshot.counters));
            if series == "weak" {
                largest = Some((name.clone(), per_sec));
            }
            scenarios.push(measure(&name, &run));
        }
    }
    if let Some((name, per_sec)) = largest {
        println!("largest weak point {name}: {per_sec:.0} imports/sec");
    }
    Ok((
        BenchReport {
            mode: if opts.full {
                "scale-full"
            } else {
                "scale-smoke"
            }
            .to_string(),
            scenarios,
        },
        violations,
    ))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let run = match (opts.sessions, opts.ranks.clone()) {
        (Some(n), _) => run_sessions_mode(&opts, n),
        (None, Some(ranks)) => run_ranks_mode(&opts, &ranks),
        (None, None) => run_grid_mode(&opts),
    };
    let (report, violations) = match run {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let text = report.to_text();
    match BenchReport::from_text(&text) {
        Ok(back) if back == report => {}
        Ok(_) => {
            eprintln!("error: report changed across JSON round-trip");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("error: emitted report fails schema validation: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = opts.out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: creating {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(&opts.out, &text) {
        eprintln!("error: writing {}: {e}", opts.out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} ({} scenarios, mode {})",
        opts.out.display(),
        report.scenarios.len(),
        report.mode
    );
    let gate_name = if opts.ranks.is_some() && opts.sessions.is_none() {
        "control-scaling gate".to_string()
    } else {
        format!("throughput gate (budget {:.1} ms/iter)", opts.gate_ms)
    };
    if violations.is_empty() {
        println!("{gate_name} PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("{gate_name} FAIL:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The negative control for the starvation check: per-session walls of
    /// a pool that always serves its low-numbered sessions first (they
    /// finish many times earlier than the rest) must be rejected, while
    /// the lockstep spread of round-robin scheduling passes.
    #[test]
    fn starved_sessions_fail_the_fairness_check() {
        let starved: Vec<f64> = (1..=16).map(|s| 0.05 * s as f64).collect();
        let verdict = check_fairness("sessions_pooled_s16", &starved).expect("must be rejected");
        assert!(verdict.contains("starvation"), "{verdict}");
        assert!(verdict.contains("16.00x"), "{verdict}");
        let lockstep: Vec<f64> = (0..16).map(|s| 0.80 + 0.01 * s as f64).collect();
        assert_eq!(check_fairness("sessions_pooled_s16", &lockstep), None);
        // The bound itself is inclusive.
        assert_eq!(check_fairness("edge", &[1.0, SESSION_FAIRNESS_RATIO]), None);
    }

    /// The negative control for the hand-off check: the counters of the
    /// executor before run-next lists (`ctrl_small` at commit 1704d88:
    /// 10.4 polls and 3.4 steals per import, nothing chained) must be
    /// rejected on both counts; this executor's (0.15 steals, 0.8 of the
    /// polls chained) pass.
    #[test]
    fn unchained_counters_fail_the_handoff_check() {
        let counters = |worker_steal, tasks_chained| CounterSnapshot {
            import_calls: 1_000,
            tasks_polled: 10_400,
            worker_steal,
            tasks_chained,
            ..CounterSnapshot::default()
        };
        let verdict = check_handoffs("p", &counters(3_400, 0)).expect("must be rejected");
        assert!(verdict.contains("3400 cross-worker steals"), "{verdict}");
        let verdict = check_handoffs("p", &counters(150, 0)).expect("must be rejected");
        assert!(verdict.contains("only 0 of 10400"), "{verdict}");
        assert_eq!(check_handoffs("p", &counters(150, 8_300)), None);
        // Both bounds at their edge: 999 steals, exactly half chained.
        assert_eq!(check_handoffs("p", &counters(999, 5_200)), None);
    }
}
