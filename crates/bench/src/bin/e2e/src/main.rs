//! `e2e`: one benchmark for one collective import.
//!
//! Drives the three couplink runtimes strictly through their public entry
//! points, times the calls from outside, checks every result against an
//! analytic oracle, and prints every metric by name with its unit. See the
//! README beside this package for the workloads, the metrics and the method.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1     one pass, one JSON line
//! e2e [--seed N] [--workload NAME] [--trace 0|1] [--reps N] [--out F]
//!                                      every workload, timed pass then traced pass
//! e2e --repeat-check | --sensitivity
//! ```

mod adapter;
mod gate;
mod oracle;
mod passes;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{Pass, Stamp, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::Knobs;

/// Where everything the benchmark writes goes, relative to the directory it
/// is run from: reports, traces, and the socket runtime's session
/// directories (a relative `TMPDIR` also keeps UDS paths short).
const RESULTS: &str = "results";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// Narrows a run to the timed (`0`) or the traced (`1`) pass; with
    /// `--workload` it selects the single-pass mode of the benchmark
    /// contract.
    trace: Option<bool>,
    reps: Option<usize>,
    out: PathBuf,
    repeat_check: bool,
    sensitivity: bool,
    knobs: Knobs,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: None,
        reps: None,
        out: PathBuf::from(RESULTS).join("e2e.json"),
        repeat_check: false,
        sensitivity: false,
        knobs: Knobs { buddy_help: true },
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("a name")?),
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--reps" => {
                a.reps = Some(
                    value("a count")?
                        .parse()
                        .map_err(|e| format!("--reps: {e}"))?,
                )
            }
            "--out" => a.out = PathBuf::from(value("a path")?),
            "--repeat-check" => a.repeat_check = true,
            "--sensitivity" => a.sensitivity = true,
            // Not a program option: the benchmark's own switch behind
            // `--sensitivity`, flipping the program's public `buddy_help`.
            "--no-buddy-help" => a.knobs.buddy_help = false,
            other => return Err(format!("unknown argument {other:?} (see the README)")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if let Some(w) = &a.workload {
        if !workloads::NAMES.contains(&w.as_str()) {
            return Err(format!(
                "unknown workload {w:?}; one of {:?}",
                workloads::NAMES
            ));
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = PathBuf::from(RESULTS).join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("error: creating {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    // Set before any thread exists. The socket runtime puts its session
    // directories under `temp_dir()`, in this process and in the nodes.
    std::env::set_var("TMPDIR", &tmp);

    let outcome = if args.sensitivity {
        sensitivity(&args)
    } else if args.repeat_check {
        repeat_check(&args)
    } else if let (Some(traced), Some(name)) = (args.trace, &args.workload) {
        single_pass(&args, name, traced)
    } else {
        full_run(&args).map(|_| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The benchmark contract's mode: one pass of one workload, human-readable
/// text on stderr, one JSON object as the last line of stdout. A pass that
/// ran outside its workload's regime, or got a wrong result, still prints
/// its line (`correct: false`) and exits non-zero.
fn single_pass(args: &Args, name: &str, traced: bool) -> Result<bool, String> {
    let pass = if traced {
        passes::traced(name, args.seed, args.seconds, args.knobs, RESULTS.as_ref())?
    } else {
        passes::timed(name, args.seed, args.seconds, args.reps, args.knobs)?
    };
    eprint!("{}", passes::render(&pass));
    println!("{}", pass.contract_line());
    Ok(pass.correct())
}

/// Runs one pass in a child process of its own, so that `peak_rss_mb` is
/// the workload's and nothing else's.
fn child_pass(args: &Args, name: &str, traced: bool, knobs: Knobs) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if let Some(reps) = args.reps {
        cmd.args(["--reps", &reps.to_string()]);
    }
    if !knobs.buddy_help {
        cmd.arg("--no-buddy-help");
    }
    let started = std::time::Instant::now();
    let out = cmd.output().map_err(|e| format!("running {name}: {e}"))?;
    let runtime_s = started.elapsed().as_secs_f64();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{name}: no result line"))?;
    let v = adapter::json::parse(line).map_err(|e| format!("{name}: result line: {e}"))?;
    let pass = Pass {
        runtime_s,
        ..Pass::from_json(&v, name, args.seed, traced)?
    };
    if !out.status.success() || !pass.correct() {
        return Err(format!(
            "{name}: invalid run ({} of {} failed)",
            pass.failed, pass.attempted
        ));
    }
    Ok(pass)
}

fn selected(args: &Args) -> Vec<&'static str> {
    workloads::NAMES
        .into_iter()
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect()
}

/// Every workload: the timed pass with tracing off, then the traced pass
/// (`--trace 0` or `--trace 1` keeps one of the two).
fn full_run(args: &Args) -> Result<Vec<Pass>, String> {
    let traced_too = args.trace != Some(false);
    let stamp = Stamp::collect();
    eprintln!(
        "e2e: commit {} · {} cores · {} · LLC {} · seed {} · {} s per pass",
        stamp.commit, stamp.nproc, stamp.rustc, stamp.llc, args.seed, args.seconds
    );
    let mut passes = Vec::new();
    for name in selected(args) {
        if args.trace != Some(true) {
            passes.push(child_pass(args, name, false, args.knobs)?);
        }
        if traced_too {
            passes.push(child_pass(args, name, true, args.knobs)?);
        }
    }
    let report = adapter::json::Value::Object(vec![
        ("schema".to_string(), "couplink-e2e/v1".into()),
        ("stamp".to_string(), stamp.to_json()),
        (
            "passes".to_string(),
            adapter::json::Value::Array(passes.iter().map(Pass::to_json).collect()),
        ),
    ]);
    if let Some(dir) = args.out.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(&args.out, adapter::json::emit(&report))
        .map_err(|e| format!("writing {}: {e}", args.out.display()))?;
    if traced_too {
        let merged = passes::merge_traces(RESULTS.as_ref(), &selected(args))?;
        eprintln!("wrote {}", merged.display());
    }
    eprintln!("wrote {}", args.out.display());
    print!("{}", passes::summary(&passes));
    Ok(passes)
}

fn values_of(passes: &[Pass], metric: &str) -> Vec<f64> {
    passes.iter().filter_map(|p| p.value(metric)).collect()
}

/// Seeds per side of `--repeat-check`, and pairs of `--sensitivity`.
const CHECK_SEEDS: u64 = 5;
const SENSITIVITY_PAIRS: u64 = 3;

/// The whole timed benchmark twice, [`CHECK_SEEDS`] seeds a side, the two
/// sides taking turns seed by seed so that a slow quarter of an hour of the
/// host hits both. Per workload and end-to-end metric the two medians must
/// agree within the metric's bound, either way round, and the distance
/// between the quartiles of all the values (what the benchmark driver
/// judges a benchmark's steadiness by) must stay within it too; `setup_s`
/// is held to the first only.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    let mut table = String::from(
        "\n| workload | metric | first | second | differ by | IQR / median | bound | |\n|---|---|---|---|---|---|---|---|\n",
    );
    for name in selected(args) {
        let (mut first, mut second) = (Vec::new(), Vec::new());
        for seed in args.seed..args.seed + CHECK_SEEDS {
            let seeded = Args {
                seed,
                ..args.clone()
            };
            first.push(child_pass(&seeded, name, false, args.knobs)?);
            second.push(child_pass(&seeded, name, false, args.knobs)?);
        }
        for m in END_TO_END {
            let (xs, ys) = (values_of(&first, m.name), values_of(&second, m.name));
            let (x, y) = (stats::median(&xs), stats::median(&ys));
            let differ = (x - y).abs() / x;
            let spread = stats::iqr_frac(&[xs, ys].concat());
            let within = differ <= m.bound && (m.name == "setup_s" || spread <= m.bound);
            ok &= within;
            table.push_str(&format!(
                "| {name} | {} | {x:.6} | {y:.6} | {:.1} % | {:.1} % | {:.0} % | {} |\n",
                m.name,
                differ * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "OUTSIDE" }
            ));
        }
    }
    print!("{table}");
    // The simulator's virtual times and the protocol counts of its run must
    // repeat to the last bit, whatever the wall clock did.
    let des = [
        child_pass(args, "fig4_des", true, args.knobs)?,
        child_pass(args, "fig4_des", true, args.knobs)?,
    ];
    for m in &des[0].metrics {
        let exact = m.name.starts_with("des.")
            || m.name.starts_with("virtual_")
            || DETERMINISTIC_ON_DES.contains(&m.name);
        let again = des[1].value(m.name).unwrap_or(f64::NAN);
        if exact && m.value.to_bits() != again.to_bits() {
            ok = false;
            println!(
                "fig4_des {}: {} then {} — not bit-identical",
                m.name, m.value, again
            );
        }
    }
    println!("\nrepeat-check {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

/// Engine counts the simulator reproduces exactly (per import of panel (d)).
const DETERMINISTIC_ON_DES: [&str; 7] = [
    "engine.ctrl_per_import",
    "engine.transfers_per_import",
    "engine.memcpy_paid_frac",
    "engine.slow_memcpy_per_import",
    "engine.unnecessary_in_region",
    "engine.bytes_buffered_per_import",
    "engine.buffered_hwm",
];

/// `fig4_pair` with and without the program's `buddy_help`, `ctrl_small`
/// beside it: the mechanism must move the workload that exercises it by 2x
/// and leave the one that bypasses it inside its bound. On both workloads
/// the two settings take turns over [`SENSITIVITY_PAIRS`] seeds and the
/// medians of the two sides are compared.
fn sensitivity(args: &Args) -> Result<bool, String> {
    let on = Knobs { buddy_help: true };
    let off = Knobs { buddy_help: false };
    // Per workload: the timed passes with, and without.
    let mut passes: [(Vec<Pass>, Vec<Pass>); 2] = Default::default();
    for seed in args.seed..args.seed + SENSITIVITY_PAIRS {
        let seeded = Args {
            seed,
            ..args.clone()
        };
        for (name, (with, without)) in ["fig4_pair", "ctrl_small"].iter().zip(&mut passes) {
            with.push(child_pass(&seeded, name, false, on)?);
            without.push(child_pass(&seeded, name, false, off)?);
        }
    }
    let [(fig4_with, fig4_without), (ctrl_with, ctrl_without)] = passes;
    let slow = |p: &[Pass]| values_of(p, "export_slow_mean_us");
    let (x, y) = (
        stats::median(&slow(&fig4_with)),
        stats::median(&slow(&fig4_without)),
    );
    let ratio = y / x;
    // The count behind the time: buffering copies the slow rank pays.
    let copies = |knobs| {
        child_pass(args, "fig4_pair", true, knobs)
            .map(|p| p.value("engine.slow_memcpy_per_import").unwrap_or(0.0))
    };
    let (copies_with, copies_without) = (copies(on)?, copies(off)?);
    // `ctrl_small` never sends buddy-help (every request is decided by the
    // export it names), so the option must not move it.
    let p50 = |p: &[Pass]| values_of(p, "import_p50_us");
    let (c, d) = (
        stats::median(&p50(&ctrl_with)),
        stats::median(&p50(&ctrl_without)),
    );
    let bound = report::end_to_end("import_p50_us").map_or(0.0, |m| m.bound);
    let drift = (d - c).abs() / c;
    println!(
        "fig4_pair export_slow_mean_us: median {x:.2} us with buddy-help, {y:.2} us without: {ratio:.2}x (need >= 2)"
    );
    println!(
        "  every pair, us: with {:.1?}, without {:.1?}",
        slow(&fig4_with),
        slow(&fig4_without)
    );
    println!(
        "fig4_pair engine.slow_memcpy_per_import: {copies_with:.2} with, {copies_without:.2} without"
    );
    println!(
        "ctrl_small import_p50_us: median {c:.2} us with, {d:.2} us without: {:.1} % apart (bound {:.0} %)",
        drift * 100.0,
        bound * 100.0
    );
    println!(
        "  every pair, us: with {:.1?}, without {:.1?}",
        p50(&ctrl_with),
        p50(&ctrl_without)
    );
    let ok = ratio >= 2.0 && drift <= bound;
    println!("sensitivity {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}
