//! Socket data-plane throughput sweep (`bench net`).
//!
//! Usage: `cargo run -p couplink-bench --release --bin net -- \
//!     [--full] [--out FILE] [--check BASELINE]`
//!
//! Drives the real `couplink-node` mesh over loopback — every program its
//! own OS process — across a grid of payload sizes × frame mixes on both
//! UDS and TCP, and measures the wire path end to end: bulk payload
//! encode, pooled tx buffers, `writev` frame coalescing, and the
//! zero-copy rx decode. Results land in the `couplink-bench/v1` schema
//! (mode `net-smoke` / `net-full`): the deterministic protocol counters
//! (`import_calls`, `export_calls`, `transfers`) under `counters` for the
//! `--check` baseline diff, throughput and syscall figures under `wall_s`
//! (informational, never baseline-gated).
//!
//! The gate with teeth is **syscalls-per-frame**: on the designated *load*
//! points (many small frames from many ranks bunching on few mesh links)
//! the vectored writer must coalesce well enough that
//! `net_syscalls / net_frames` stays under [`SYSCALLS_PER_FRAME_MAX`]. A
//! writer that degrades to one `write` per frame sits at ≥ 1.0 and fails
//! loudly — a unit test feeds [`gate_point`] exactly that report.
//!
//! Every run also asserts tx/rx conservation on its merged counters:
//! clean mesh sessions must receive exactly the frames and bytes they
//! sent (`net_rx_frames == net_frames`, `net_rx_bytes == net_bytes`).

use couplink_bench::report::{compare, BenchReport, GateConfig, ScenarioMeasure};
use couplink_metrics::CounterSnapshot;
use couplink_runtime::net::{
    codec::{ExportSpec, ImportSpec, NodePlan},
    run_plan, NetOptions, SocketBackend,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Load-point coalescing budget: mean write syscalls per tx frame.
const SYSCALLS_PER_FRAME_MAX: f64 = 0.5;

struct Options {
    full: bool,
    out: PathBuf,
    check: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        full: false,
        out: PathBuf::from("results/BENCH_couplink_net.json"),
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => opts.full = true,
            "--smoke" => opts.full = false,
            "--out" => opts.out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            "--check" => {
                opts.check = Some(PathBuf::from(args.next().ok_or("--check needs a path")?))
            }
            other => return Err(format!("unknown argument {other:?} (see the doc comment)")),
        }
    }
    Ok(opts)
}

/// One sweep point: a single exporter→importer pair at `procs` ranks per
/// program over a `rows × cols` grid, `count` coupled timesteps.
#[derive(Debug, Clone)]
struct Point {
    name: &'static str,
    backend: SocketBackend,
    rows: usize,
    cols: usize,
    procs: usize,
    count: usize,
    /// Syscalls-per-frame gate applies (small-frame, many-rank mixes
    /// where coalescing is the whole story).
    load_gate: bool,
}

impl Point {
    /// Payload bytes moved across the mesh per coupled timestep (the full
    /// grid, row-block split into one piece per rank pair).
    fn bytes_per_step(&self) -> u64 {
        (self.rows * self.cols * std::mem::size_of::<f64>()) as u64
    }

    fn payload_bytes(&self) -> u64 {
        self.bytes_per_step() * self.count as u64
    }
}

/// The sweep. Smoke keeps total volume small enough for a loaded CI box;
/// full widens both axes. Points mix one *load* shape (tiny pieces from
/// many ranks — frame-count dominated) with bulk shapes (piece sizes from
/// KBs to a megabyte — byte-volume dominated).
fn sweep(full: bool) -> Vec<Point> {
    let mut pts = vec![
        Point {
            name: "net_uds_load_1k",
            backend: SocketBackend::Uds,
            rows: 64,
            cols: 16,
            procs: 8,
            count: if full { 400 } else { 200 },
            load_gate: true,
        },
        Point {
            name: "net_uds_mid_64k",
            backend: SocketBackend::Uds,
            rows: 128,
            cols: 128,
            procs: 2,
            count: if full { 120 } else { 60 },
            load_gate: false,
        },
        Point {
            name: "net_uds_big_2m",
            backend: SocketBackend::Uds,
            rows: 1024,
            cols: 512,
            procs: 2,
            count: if full { 160 } else { 80 },
            load_gate: false,
        },
        Point {
            name: "net_tcp_mid_64k",
            backend: SocketBackend::Tcp,
            rows: 128,
            cols: 128,
            procs: 2,
            count: if full { 120 } else { 60 },
            load_gate: false,
        },
    ];
    if full {
        pts.push(Point {
            name: "net_tcp_load_1k",
            backend: SocketBackend::Tcp,
            rows: 64,
            cols: 16,
            procs: 8,
            count: 400,
            load_gate: true,
        });
        pts.push(Point {
            name: "net_tcp_big_1m",
            backend: SocketBackend::Tcp,
            rows: 512,
            cols: 512,
            procs: 2,
            count: 120,
            load_gate: false,
        });
    }
    pts
}

/// The node plan for a point: exact-timestamp REG coupling, zero compute
/// and zero startup so the wire path — not schedule sleeps — is what the
/// clock measures. Value verification stays off: correctness is simtest's
/// job, per-cell checks here would dilute the data-plane signal.
fn plan_for(pt: &Point) -> NodePlan {
    NodePlan {
        config_text: format!(
            "E0 c0 /bin/e0 {p}\nI0 c0 /bin/i0 {p}\n#\nE0.r I0.m REG 0.25\n",
            p = pt.procs
        ),
        grid: (pt.rows, pt.cols),
        exports: vec![ExportSpec {
            program: "E0".into(),
            region: 0,
            t0: 1.0,
            dt: 1.0,
            count: pt.count,
            compute: vec![0.0; pt.procs],
        }],
        imports: vec![ImportSpec {
            program: "I0".into(),
            region: 0,
            t0: 1.0,
            dt: 1.0,
            count: pt.count,
            compute: 0.0,
            startup: 0.0,
        }],
        buddy_help: false,
        import_timeout_s: 30.0,
        time_scale: 1.0,
        verify_values: false,
        traces: Vec::new(),
        chaos: None,
        fault: None,
        hierarchical: false,
        wal_dir: None,
        restart: false,
    }
}

struct PointRun {
    wall_s: f64,
    counters: CounterSnapshot,
}

fn run_point(pt: &Point, node_bin: &Path) -> Result<PointRun, String> {
    let plan = plan_for(pt);
    let opts = NetOptions {
        backend: pt.backend,
        deadline: Duration::from_secs(180),
        ..NetOptions::new(node_bin.to_path_buf())
    };
    let start = Instant::now();
    let rep = run_plan(&plan, &opts).map_err(|e| format!("{}: bootstrap: {e}", pt.name))?;
    let wall_s = start.elapsed().as_secs_f64();
    if !rep.crashed.is_empty() {
        return Err(format!("{}: nodes crashed: {:?}", pt.name, rep.crashed));
    }
    if !rep.shutdown_errors.is_empty() {
        return Err(format!(
            "{}: shutdown errors: {:?}",
            pt.name, rep.shutdown_errors
        ));
    }
    if !rep.export_errors.is_empty() {
        return Err(format!(
            "{}: export errors: {:?}",
            pt.name, rep.export_errors
        ));
    }
    if let Some((p, r, _, Some(e))) = rep.imports_done.iter().find(|(_, _, _, err)| err.is_some()) {
        return Err(format!(
            "{}: import error at prog {p} rank {r}: {e}",
            pt.name
        ));
    }
    Ok(PointRun {
        wall_s,
        counters: rep.counters,
    })
}

/// Folds a run into a scenario. Only the deterministic protocol counters
/// are recorded under `counters` (baseline-gated exactly); everything
/// timing- or interleaving-dependent goes under `wall_s`.
fn measure(pt: &Point, run: &PointRun) -> ScenarioMeasure {
    let c = &run.counters;
    let mut m = ScenarioMeasure::named(pt.name);
    m.counters.push(("import_calls".into(), c.import_calls));
    m.counters.push(("export_calls".into(), c.export_calls));
    m.counters.push(("transfers".into(), c.transfers));
    let frames = c.net_frames.max(1) as f64;
    m.wall_s.push(("run".into(), run.wall_s));
    m.wall_s
        .push(("payload_bytes".into(), pt.payload_bytes() as f64));
    m.wall_s.push((
        "payload_bytes_per_sec".into(),
        pt.payload_bytes() as f64 / run.wall_s.max(1e-12),
    ));
    m.wall_s.push(("net_frames".into(), c.net_frames as f64));
    m.wall_s.push(("net_bytes".into(), c.net_bytes as f64));
    m.wall_s
        .push(("net_syscalls".into(), c.net_syscalls as f64));
    m.wall_s
        .push(("syscalls_per_frame".into(), c.net_syscalls as f64 / frames));
    m.wall_s
        .push(("net_writev_frames".into(), c.net_writev_frames as f64));
    m.wall_s
        .push(("net_pool_hits".into(), c.net_pool_hits as f64));
    m.wall_s
        .push(("net_pool_misses".into(), c.net_pool_misses as f64));
    m.wall_s
        .push(("net_rx_buf_hwm".into(), c.net_rx_buf_hwm as f64));
    m
}

/// The per-point gates over one run's merged counters. Clean bench
/// sessions must conserve frames and bytes across the mesh (a tx/rx
/// mismatch means metering or the quiesce protocol regressed), and load
/// points must stay under the coalescing budget.
fn gate_point(pt: &Point, c: &CounterSnapshot) -> Vec<String> {
    let mut violations = Vec::new();
    let healthy =
        c.net_reconnects == 0 && c.net_codec_rejects == 0 && c.retransmits == 0 && c.timeouts == 0;
    if healthy && (c.net_rx_frames != c.net_frames || c.net_rx_bytes != c.net_bytes) {
        violations.push(format!(
            "{}: tx/rx conservation broken: sent {} frames / {} bytes, \
             received {} frames / {} bytes",
            pt.name, c.net_frames, c.net_bytes, c.net_rx_frames, c.net_rx_bytes
        ));
    }
    let spf = c.net_syscalls as f64 / c.net_frames.max(1) as f64;
    if pt.load_gate && spf > SYSCALLS_PER_FRAME_MAX {
        violations.push(format!(
            "{}: {spf:.3} write syscalls per frame exceeds the \
             {SYSCALLS_PER_FRAME_MAX} coalescing budget (per-frame writes?)",
            pt.name
        ));
    }
    violations
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(node_bin) = couplink_runtime::net::default_node_bin() else {
        eprintln!("error: couplink-node binary not found (set COUPLINK_NODE_BIN)");
        return ExitCode::FAILURE;
    };

    let mut scenarios = Vec::new();
    let mut violations = Vec::new();
    for pt in sweep(opts.full) {
        let mib = pt.payload_bytes() as f64 / (1024.0 * 1024.0);
        println!(
            "running {} ({:?}, {} ranks, {} steps, {:.1} MiB payload) ...",
            pt.name, pt.backend, pt.procs, pt.count, mib
        );
        let run = match run_point(&pt, &node_bin) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let spf = run.counters.net_syscalls as f64 / run.counters.net_frames.max(1) as f64;
        let bps = pt.payload_bytes() as f64 / run.wall_s.max(1e-12);
        println!(
            "  {:>8.1} MiB/s payload  ({:.3}s wall, {} frames, {} syscalls, {spf:.3} syscalls/frame)",
            bps / (1024.0 * 1024.0),
            run.wall_s,
            run.counters.net_frames,
            run.counters.net_syscalls,
        );
        violations.extend(gate_point(&pt, &run.counters));
        scenarios.push(measure(&pt, &run));
    }

    let report = BenchReport {
        mode: if opts.full { "net-full" } else { "net-smoke" }.to_string(),
        scenarios,
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
    if let Some(baseline_path) = &opts.check {
        match BenchReport::load(baseline_path) {
            Ok(baseline) => {
                violations.extend(compare(&baseline, &report, GateConfig::default()));
            }
            Err(e) => {
                eprintln!("error: loading baseline {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if violations.is_empty() {
        println!("network data-plane gate PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("network data-plane gate FAIL:");
        for v in &violations {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_metrics::EngineMetrics;

    /// The negative control for the coalescing gate: a writer that issues
    /// one `write` per frame reports 1.0 syscalls per frame, which a load
    /// point must reject — while the same counters pass on a bulk point,
    /// and a coalescing writer passes on the load point.
    #[test]
    fn per_frame_writes_fail_the_coalescing_gate() {
        let pts = sweep(false);
        let load = pts.iter().find(|p| p.load_gate).expect("a load point");
        let bulk = pts.iter().find(|p| !p.load_gate).expect("a bulk point");
        let mut c = EngineMetrics::new().snapshot().counters;
        (c.net_frames, c.net_rx_frames) = (3200, 3200);
        (c.net_bytes, c.net_rx_bytes) = (4 << 20, 4 << 20);
        c.net_syscalls = c.net_frames;
        let got = gate_point(load, &c);
        assert!(
            matches!(&got[..], [v] if v.contains("1.000 write syscalls per frame")),
            "{got:?}"
        );
        assert!(gate_point(bulk, &c).is_empty());
        c.net_syscalls = c.net_frames / 4;
        assert!(gate_point(load, &c).is_empty());
        // Conservation bites on every point.
        c.net_rx_frames -= 1;
        assert!(gate_point(bulk, &c)[0].contains("conservation"));
    }
}
