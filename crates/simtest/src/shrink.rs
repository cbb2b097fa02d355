//! Greedy structural shrinking of failing scenarios, and failure-report
//! dumps for replay.

use crate::scenario::Scenario;
use couplink_runtime::OracleViolation;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Shrinks a failing scenario to a structurally minimal one that still
/// fails, by greedily applying simplifications and keeping each one the
/// predicate still rejects. The predicate must return `true` while the
/// scenario *fails* (violations present).
///
/// Deterministic: candidates are tried in a fixed order, so the same
/// failing scenario always shrinks to the same reproducer.
pub fn shrink(s: &Scenario, fails: impl Fn(&Scenario) -> bool) -> Scenario {
    let mut best = s.clone();
    loop {
        let mut improved = false;
        for candidate in candidates(&best) {
            if fails(&candidate) {
                best = candidate;
                improved = true;
                break; // restart the candidate list from the smaller case
            }
        }
        if !improved {
            return best;
        }
    }
}

/// One step of simplification candidates, most aggressive first.
fn candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Whole-importer removal shrinks the topology fastest.
    if s.importers.len() > 1 {
        for j in 0..s.importers.len() {
            out.push(without_importer(s, j));
        }
    }
    if s.chaos.is_some() {
        let mut c = s.clone();
        c.chaos = None;
        out.push(finish(c));
    }
    // Partial fault stripping: a failure may need only one of the permanent
    // faults, so try dropping the crash and the breaks independently before
    // giving up on chaos-dependent reproducers.
    if let Some(chaos) = s.chaos {
        if chaos.crash.is_some() {
            let mut c = s.clone();
            c.chaos = Some(couplink_runtime::ChaosConfig {
                crash: None,
                ..chaos
            });
            out.push(finish(c));
        }
        if chaos.break_prob > 0.0 {
            let mut c = s.clone();
            c.chaos = Some(couplink_runtime::ChaosConfig {
                break_prob: 0.0,
                ..chaos
            });
            out.push(finish(c));
        }
    }
    if s.buddy_help {
        let mut c = s.clone();
        c.buddy_help = false;
        out.push(finish(c));
    }
    for j in 0..s.importers.len() {
        if s.importers[j].count > 2 {
            let mut c = s.clone();
            c.importers[j].count = (c.importers[j].count / 2).max(2);
            out.push(finish(c));
        }
        if s.importers[j].procs > 1 {
            let mut c = s.clone();
            c.importers[j].procs = 1;
            out.push(finish(c));
        }
    }
    for i in 0..s.exporters.len() {
        if s.exporters[i].procs > 1 {
            let mut c = s.clone();
            c.exporters[i].procs -= 1;
            let procs = c.exporters[i].procs;
            c.exporters[i].compute.truncate(procs);
            out.push(finish(c));
        }
    }
    if s.exporters
        .iter()
        .any(|e| e.compute.iter().any(|&x| x > 0.0))
        || s.importers
            .iter()
            .any(|i| i.compute > 0.0 || i.startup > 0.0)
    {
        let mut c = s.clone();
        for e in &mut c.exporters {
            e.compute.iter_mut().for_each(|x| *x = 0.0);
        }
        for imp in &mut c.importers {
            imp.compute = 0.0;
            imp.startup = 0.0;
        }
        out.push(finish(c));
    }
    out
}

/// Removes importer `j`, drops any exporter no longer referenced, and
/// renumbers the surviving importers' exporter indices.
fn without_importer(s: &Scenario, j: usize) -> Scenario {
    let mut c = s.clone();
    c.importers.remove(j);
    let mut new_idx = vec![None; c.exporters.len()];
    let mut kept = Vec::new();
    for imp in &c.importers {
        if new_idx[imp.exporter].is_none() {
            new_idx[imp.exporter] = Some(kept.len());
            kept.push(c.exporters[imp.exporter].clone());
        }
    }
    for imp in &mut c.importers {
        imp.exporter = new_idx[imp.exporter].expect("referenced exporter kept");
    }
    c.exporters = kept;
    finish(c)
}

/// Every structural edit must re-derive export counts so each request
/// stays decided under the full export history.
fn finish(mut c: Scenario) -> Scenario {
    c.fill_export_counts();
    c
}

/// Writes a replayable failure report to `dir/{label}.txt`: the seed, each
/// violation, the generated configuration file, and the full scenario
/// dump. Returns the path written.
pub fn write_failure_report(
    dir: &Path,
    label: &str,
    scenario: &Scenario,
    violations: &[OracleViolation],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut text = String::new();
    writeln!(text, "seed: {}", scenario.seed).expect("writing to String");
    writeln!(
        text,
        "replay: cargo run -p couplink-simtest -- --seed {}",
        scenario.seed
    )
    .expect("writing to String");
    writeln!(text, "\nviolations:").expect("writing to String");
    for v in violations {
        writeln!(text, "  - {v}").expect("writing to String");
    }
    writeln!(text, "\nconfig:\n{}", scenario.config_text()).expect("writing to String");
    writeln!(text, "scenario (shrunk): {scenario:#?}").expect("writing to String");
    let path = dir.join(format!("{label}.txt"));
    std::fs::write(&path, text)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shrinking against an always-failing predicate bottoms out at the
    /// minimal structure: one exporter, one importer, one rank each, no
    /// chaos, no buddy-help, zero compute.
    #[test]
    fn shrink_reaches_minimal_structure() {
        for seed in 0..20 {
            let s = Scenario::generate(seed);
            let min = shrink(&s, |_| true);
            assert_eq!(min.exporters.len(), 1);
            assert_eq!(min.importers.len(), 1);
            assert_eq!(min.exporters[0].procs, 1);
            assert_eq!(min.importers[0].procs, 1);
            assert_eq!(min.importers[0].count, 2);
            assert!(min.chaos.is_none());
            assert!(!min.buddy_help);
            assert!(min.exporters[0].compute.iter().all(|&x| x == 0.0));
        }
    }

    /// The shrunk scenario must still satisfy the predicate it was shrunk
    /// against, and removal must keep exporter indices valid.
    #[test]
    fn shrink_preserves_predicate_and_validity() {
        let s = Scenario::generate(7);
        let pred = |c: &Scenario| !c.importers.is_empty();
        let min = shrink(&s, pred);
        assert!(pred(&min));
        min.build_topology().expect("shrunk topology validates");
    }
}
