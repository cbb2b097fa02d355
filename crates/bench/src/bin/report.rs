//! Emits the machine-readable benchmark report `BENCH_couplink.json` and
//! optionally gates it against a committed baseline.
//!
//! Usage: `cargo run -p couplink-bench --release --bin report -- \
//!     [--smoke] [--mutate] [--out FILE] [--check BASELINE]`
//!
//! * `--smoke` — tiny problem sizes (the CI gate's configuration).
//! * `--out FILE` — output path (default `results/BENCH_couplink.json`).
//! * `--check BASELINE` — compare against a baseline report; exit nonzero
//!   on any gate violation (counter drift, >5% virtual-time drift).
//! * `--mutate` — inject an artificial slowdown (memcpy bandwidth ÷ 8)
//!   before running; used by `ci.sh` to prove the gate has teeth.
//!
//! Every DES scenario is run **twice** and the run aborts if the two
//! counter/virtual-time snapshots differ — determinism is an assertion,
//! not an aspiration.

use couplink_bench::report::{compare, BenchReport, ScenarioMeasure};
use couplink_bench::{ablation_config, figure78_run};
use couplink_diffusion::fig4::{fig4_config, Fig4Params};
use couplink_runtime::{TopologyConfig, TopologySim};
use couplink_time::MatchPolicy;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Options {
    smoke: bool,
    mutate: bool,
    out: PathBuf,
    check: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        smoke: false,
        mutate: false,
        out: PathBuf::from("results/BENCH_couplink.json"),
        check: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--mutate" => opts.mutate = true,
            "--out" => opts.out = PathBuf::from(args.next().ok_or("--out needs a path")?),
            "--check" => {
                opts.check = Some(PathBuf::from(args.next().ok_or("--check needs a path")?))
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (see --help in the doc)"
                ))
            }
        }
    }
    Ok(opts)
}

/// The DES scenarios of the report: the four Figure-4 panels, the Figure-4
/// buddy-help ablation, and one ablation point per match policy.
fn des_scenarios(smoke: bool) -> Vec<(String, TopologyConfig)> {
    let fig4_exports = if smoke { 101 } else { 1001 };
    let ablation_exports = if smoke { 121 } else { 601 };
    let mut out = Vec::new();
    for u_procs in [4usize, 8, 16, 32] {
        let params = Fig4Params {
            u_procs,
            buddy_help: true,
            exports: fig4_exports,
        };
        out.push((format!("fig4_u{u_procs}"), fig4_config(params)));
    }
    out.push((
        "fig4_u16_nohelp".to_string(),
        fig4_config(Fig4Params {
            u_procs: 16,
            buddy_help: false,
            exports: fig4_exports,
        }),
    ));
    for policy in [MatchPolicy::RegL, MatchPolicy::RegU, MatchPolicy::Reg] {
        out.push((
            format!("ablation_{}", policy.as_str().to_lowercase()),
            ablation_config(policy, 2.5, 20.0, true, ablation_exports),
        ));
    }
    out
}

/// Runs one DES scenario twice, asserts the deterministic halves of the two
/// metric snapshots are identical, and folds the result into a measurement.
fn run_des(name: &str, mut cfg: TopologyConfig, mutate: bool) -> Result<ScenarioMeasure, String> {
    if mutate {
        // The injected regression: memcpys become 8x slower, which inflates
        // the export-phase virtual time (and shifts buffering decisions)
        // well past the gate's tolerance.
        cfg.cost.memcpy_bytes_per_sec /= 8.0;
    }
    let run = |cfg: TopologyConfig| -> Result<_, String> {
        let wall = Instant::now();
        let report = TopologySim::new(cfg)
            .map_err(|e| format!("{name}: {e}"))?
            .run()
            .map_err(|e| format!("{name}: {e}"))?;
        Ok((report, wall.elapsed().as_secs_f64()))
    };
    let (a, wall_a) = run(cfg.clone())?;
    let (b, _) = run(cfg)?;
    if a.metrics.counters != b.metrics.counters {
        return Err(format!(
            "{name}: counter snapshots differ between two identical DES runs \
             (determinism broken):\n  first : {:?}\n  second: {:?}",
            a.metrics.counters, b.metrics.counters
        ));
    }
    if a.metrics.timing.virtual_s != b.metrics.timing.virtual_s {
        return Err(format!(
            "{name}: virtual phase times differ between two identical DES runs \
             (determinism broken): {:?} vs {:?}",
            a.metrics.timing.virtual_s, b.metrics.timing.virtual_s
        ));
    }
    let mut m = ScenarioMeasure::from_metrics(name, &a.metrics);
    m.virtual_s.push(("total".to_string(), a.duration));
    m.wall_s.push(("run".to_string(), wall_a));
    Ok(m)
}

/// The Figure 7/8 port-level scenarios: pure protocol arithmetic, fully
/// deterministic, gated exactly.
fn fig78_scenarios() -> Vec<ScenarioMeasure> {
    [("fig7_buddy_help", true), ("fig8_no_help", false)]
        .into_iter()
        .map(|(name, buddy_help)| {
            let run = figure78_run(buddy_help);
            let mut m = ScenarioMeasure::named(name);
            m.counters = vec![
                ("memcpy_paid".to_string(), run.copied as u64),
                ("memcpy_skipped".to_string(), run.skipped as u64),
                (
                    "unnecessary_in_region".to_string(),
                    run.unnecessary_in_region,
                ),
            ];
            m
        })
        .collect()
}

fn build_report(opts: &Options) -> Result<BenchReport, String> {
    let mut scenarios = Vec::new();
    for (name, cfg) in des_scenarios(opts.smoke) {
        println!("running {name} ...");
        scenarios.push(run_des(&name, cfg, opts.mutate)?);
    }
    scenarios.extend(fig78_scenarios());
    Ok(BenchReport {
        mode: if opts.smoke { "smoke" } else { "full" }.to_string(),
        scenarios,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match build_report(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Round-trip through the strict parser: the emitted file is guaranteed
    // schema-valid or the run fails here.
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
        let baseline = match BenchReport::load(baseline_path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("error: loading baseline: {e}");
                return ExitCode::FAILURE;
            }
        };
        let violations = compare(&baseline, &report);
        if violations.is_empty() {
            println!(
                "gate PASS against {} (counters exact, virtual times within 5%)",
                baseline_path.display()
            );
        } else {
            eprintln!("gate FAIL against {}:", baseline_path.display());
            for v in &violations {
                eprintln!("  - {v}");
            }
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
