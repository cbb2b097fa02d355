//! CLI entry point: run a seed corpus (or one seed) through both runtimes
//! and the oracles; `--mutate` proves the oracles catch the deliberately
//! broken protocol rules; `--faults` forces link breaks plus a rep crash
//! onto every seed and demands full recovery.

use couplink_runtime::engine::OracleViolation;
use couplink_runtime::net::SocketBackend;
use couplink_runtime::Mutation;
use couplink_simtest::{
    check_scenario, check_scenario_socket, mutation_smoke, run_net_fault, run_socket, shrink,
    write_failure_report, Scenario,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: couplink-simtest [--seed N | --seeds N] [--mutate] [--faults] [--socket B] [--out DIR]

  --seed N    run exactly one seed through both runtimes and the oracles
  --seeds N   run seeds 0..N (default 50)
  --mutate    arm each deliberately unsound protocol rule in turn and
              demand the safety oracles catch it (mutation smoke): two
              export-side skips, a dropped tree-relay edge, and acks
              applied before their handler ran (the armed-shutdown probe)
  --faults    force permanent faults (20% of sends break their link + a
              rep crash with restart or successor failover) onto every
              seed; all oracles must still pass on both runtimes
  --stress    concurrency stress: every program at the process ceiling
              with zero compute/startup skew, fault-free (the control
              plane under maximum simultaneous pressure)
  --socket B  also run each seed on the socket runtime (B = uds or tcp):
              every program its own OS process on loopback; checks all
              three runtimes agree on matches and protocol counters
  --drop-answers
              (with --socket) inject a receiver-side codec bug that
              silently drops collective-answer frames; the run FAILS
              unless the liveness oracle fires (negative test)
  --net-faults
              (with --socket uds) process-level chaos with durable
              journals: even seeds SIGKILL the first exporter at APP_DONE
              and restart it from its write-ahead journal; odd seeds sever
              a mesh link mid-run and demand re-dial + replay. Every run
              must complete with net_reconnects >= 1 (and wal_replayed
              >= 1 for the kill class) and zero process crashes
  --corrupt-wal
              (with --socket uds) SIGKILL + restart, but flip a byte in
              the victim's journal first; the run FAILS unless the
              restarted node refuses the corrupt journal (negative test)
  --out DIR   where failure reports go (default results/simtest)";

struct Args {
    seed: Option<u64>,
    seeds: u64,
    mutate: bool,
    faults: bool,
    stress: bool,
    socket: Option<SocketBackend>,
    drop_answers: bool,
    net_faults: bool,
    corrupt_wal: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: None,
        seeds: 50,
        mutate: false,
        faults: false,
        stress: false,
        socket: None,
        drop_answers: false,
        net_faults: false,
        corrupt_wal: false,
        out: PathBuf::from("results/simtest"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seeds" => {
                args.seeds = value("--seeds")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?
            }
            "--mutate" => args.mutate = true,
            "--faults" => args.faults = true,
            "--stress" => args.stress = true,
            "--socket" => {
                args.socket = Some(
                    value("--socket")?
                        .parse()
                        .map_err(|e: String| format!("--socket: {e}"))?,
                )
            }
            "--drop-answers" => args.drop_answers = true,
            "--net-faults" => args.net_faults = true,
            "--corrupt-wal" => args.corrupt_wal = true,
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if args.mutate {
        return run_mutation(&args);
    }
    if args.drop_answers {
        let Some(backend) = args.socket else {
            eprintln!("--drop-answers requires --socket\n{USAGE}");
            return ExitCode::from(2);
        };
        return run_drop_answers(&args, backend);
    }
    if args.corrupt_wal {
        let Some(backend) = args.socket else {
            eprintln!("--corrupt-wal requires --socket\n{USAGE}");
            return ExitCode::from(2);
        };
        return run_corrupt_wal(&args, backend);
    }
    if args.net_faults {
        let Some(backend) = args.socket else {
            eprintln!("--net-faults requires --socket\n{USAGE}");
            return ExitCode::from(2);
        };
        return run_net_faults(&args, backend);
    }

    let seeds: Vec<u64> = match args.seed {
        Some(s) => vec![s],
        None => (0..args.seeds).collect(),
    };
    let total = seeds.len();
    let check = |s: &Scenario| match args.socket {
        Some(backend) => check_scenario_socket(s, backend),
        None => check_scenario(s),
    };
    for seed in seeds {
        let mut scenario = if args.stress {
            Scenario::stress(seed)
        } else {
            Scenario::generate(seed)
        };
        if args.faults {
            scenario.force_faults();
        }
        match check(&scenario) {
            Err(e) => {
                eprintln!("seed {seed}: harness error: {e}");
                return ExitCode::from(2);
            }
            Ok(violations) if violations.is_empty() => {
                println!(
                    "seed {seed}: ok ({} exporters, {} importers, chaos: {})",
                    scenario.exporters.len(),
                    scenario.importers.len(),
                    scenario.chaos.is_some(),
                );
            }
            Ok(violations) => {
                eprintln!("seed {seed}: {} oracle violation(s)", violations.len());
                for v in &violations {
                    eprintln!("  - {v}");
                }
                let fails = |s: &Scenario| matches!(check(s), Ok(v) if !v.is_empty());
                let shrunk = shrink(&scenario, fails);
                let final_violations = check(&shrunk).unwrap_or(violations);
                match write_failure_report(
                    &args.out,
                    &format!("seed-{seed}"),
                    &shrunk,
                    &final_violations,
                ) {
                    Ok(path) => eprintln!("shrunk reproducer written to {}", path.display()),
                    Err(e) => eprintln!("failed to write report: {e}"),
                }
                return ExitCode::FAILURE;
            }
        }
    }
    let runtimes = if args.socket.is_some() {
        "all three runtimes"
    } else {
        "both runtimes"
    };
    if args.faults {
        println!(
            "{total} seed(s) under forced break+crash faults, zero oracle violations on {runtimes}"
        );
    } else if args.stress {
        println!(
            "{total} stress seed(s) at the process ceiling, zero oracle violations on {runtimes}"
        );
    } else {
        println!("{total} seed(s), zero oracle violations on {runtimes}");
    }
    ExitCode::SUCCESS
}

/// Negative mode: inject the answer-dropping codec bug into the socket
/// transport and demand the liveness oracle notices. A clean run here is
/// a FAILURE — it would mean a wedged import could pass unobserved.
fn run_drop_answers(args: &Args, backend: SocketBackend) -> ExitCode {
    let seed = args.seed.unwrap_or(0);
    let mut scenario = Scenario::generate(seed);
    scenario.chaos = None; // the injected bug must be the only fault
    match run_socket(&scenario, backend, true) {
        Err(e) => {
            eprintln!("seed {seed}: harness error: {e}");
            ExitCode::from(2)
        }
        Ok((_, _, violations)) => {
            if violations
                .iter()
                .any(|v| matches!(v, OracleViolation::Liveness { .. }))
            {
                println!(
                    "seed {seed}: dropped collective answers tripped the liveness oracle \
                     ({} violation(s)) — the oracle battery sees through the socket transport",
                    violations.len()
                );
                ExitCode::SUCCESS
            } else {
                eprintln!("seed {seed}: answer-dropping codec bug was NOT caught: {violations:?}");
                ExitCode::FAILURE
            }
        }
    }
}

/// Process-level chaos sweep: even seeds kill-and-restart the first
/// exporter from its durable journal, odd seeds sever a mesh link and
/// demand re-dial + replay. Each run must complete cleanly AND prove the
/// fault was real (reconnects metered; journal replayed for the kills).
fn run_net_faults(args: &Args, backend: SocketBackend) -> ExitCode {
    let seeds: Vec<u64> = match args.seed {
        Some(s) => vec![s],
        None => (0..args.seeds).collect(),
    };
    let total = seeds.len();
    for seed in seeds {
        let scenario = Scenario::generate(seed);
        let kill = seed % 2 == 0;
        let class = if kill {
            "kill+restart-from-journal"
        } else {
            "link-sever+re-dial"
        };
        match run_net_fault(&scenario, backend, kill, false) {
            Err(e) => {
                eprintln!("seed {seed}: harness error under {class}: {e}");
                return ExitCode::from(2);
            }
            Ok(violations) if violations.is_empty() => {
                println!("seed {seed}: {class} recovered, zero oracle violations");
            }
            Ok(violations) => {
                eprintln!(
                    "seed {seed}: {} oracle violation(s) under {class}",
                    violations.len()
                );
                for v in &violations {
                    eprintln!("  - {v}");
                }
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{total} seed(s) of kill-restart / link-sever chaos, zero oracle violations");
    ExitCode::SUCCESS
}

/// Negative mode: flip a byte in the SIGKILLed node's journal before its
/// restart. A run that completes is a FAILURE — corrupted durable state
/// must be refused loudly, never replayed into a live session.
fn run_corrupt_wal(args: &Args, backend: SocketBackend) -> ExitCode {
    let seed = args.seed.unwrap_or(0);
    let scenario = Scenario::generate(seed);
    match run_net_fault(&scenario, backend, true, true) {
        Err(e) if e.contains("corrupt") => {
            println!("seed {seed}: corrupted journal refused at restart — {e}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("seed {seed}: run failed, but not on the corruption: {e}");
            ExitCode::FAILURE
        }
        Ok(_) => {
            eprintln!("seed {seed}: corrupted journal was silently accepted");
            ExitCode::FAILURE
        }
    }
}

fn run_mutation(args: &Args) -> ExitCode {
    for mutation in Mutation::ALL {
        match mutation_smoke(200, mutation) {
            Some((round, None, violations)) => {
                println!(
                    "mutation {} caught in probe round {round}:",
                    mutation.as_str()
                );
                for v in &violations {
                    println!("  - {v}");
                }
            }
            Some((seed, Some(shrunk), violations)) => {
                println!(
                    "mutation {} caught at seed {seed}; shrunk reproducer:",
                    mutation.as_str()
                );
                for v in &violations {
                    println!("  - {v}");
                }
                match write_failure_report(
                    &args.out,
                    &format!("mutation-{}-seed-{seed}", mutation.as_str()),
                    &shrunk,
                    &violations,
                ) {
                    Ok(path) => println!("shrunk reproducer written to {}", path.display()),
                    Err(e) => eprintln!("failed to write report: {e}"),
                }
            }
            None => {
                eprintln!(
                    "mutation {} NOT caught in 200 seeds: the safety oracles have no teeth",
                    mutation.as_str()
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
