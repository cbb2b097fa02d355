//! Seed → scenario expansion and topology construction.

use crate::Rng;
use couplink_layout::Extent2;
use couplink_runtime::engine::{ExportSchedule, ImportSchedule};
use couplink_runtime::{ChaosConfig, CrashFault, CrashTarget, Faults, Knobs, RunSpec, Topology};
use couplink_time::MatchPolicy;
use std::fmt::Write as _;
use std::time::Duration;

/// The shared global grid every generated region lives on. Small on
/// purpose: redistribution correctness is covered by the layout tests; here
/// the data plane only needs to exist.
pub const GRID: (usize, usize) = (8, 8);

/// One exporting program (one exported region, named `r`).
#[derive(Debug, Clone, PartialEq)]
pub struct ExporterSpec {
    /// Coupled processes (1–3).
    pub procs: usize,
    /// Timestamp of export `i` is `t0 + i * dt`.
    pub t0: f64,
    /// Timestamp step.
    pub dt: f64,
    /// Export iterations — always extends past every referencing importer's
    /// last acceptable region, so every request decides.
    pub count: usize,
    /// Per-rank compute seconds per iteration (virtual seconds in the
    /// simulator; scaled sleeps in the fabric).
    pub compute: Vec<f64>,
}

/// One importing program (one imported region, named `m`).
#[derive(Debug, Clone, PartialEq)]
pub struct ImporterSpec {
    /// Index into [`Scenario::exporters`] of the program it imports from.
    pub exporter: usize,
    /// Coupled processes (1–2).
    pub procs: usize,
    /// Match policy of the connection.
    pub policy: MatchPolicy,
    /// Tolerance of the connection.
    pub tol: f64,
    /// Timestamp of import `j` is `t0 + j * dt`.
    pub t0: f64,
    /// Timestamp step.
    pub dt: f64,
    /// Import iterations.
    pub count: usize,
    /// Compute seconds per iteration.
    pub compute: f64,
    /// One-time startup cost before the first iteration.
    pub startup: f64,
}

/// A complete generated test case: everything both runtimes need, derived
/// from one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The seed this scenario was generated from (kept for reporting).
    pub seed: u64,
    /// Exporting programs `E0..`, each exporting region `r`.
    pub exporters: Vec<ExporterSpec>,
    /// Importing programs `I0..`, each importing region `m` over one
    /// connection.
    pub importers: Vec<ImporterSpec>,
    /// Whether reps send buddy-help.
    pub buddy_help: bool,
    /// Hierarchical collective distribution: reps fan out to the roots of
    /// the deterministic k-ary tree and ranks relay to their subtrees.
    /// `generate` keeps it off so the seed corpus is unchanged; `stress`
    /// turns it on (with deep programs, so relays actually happen).
    pub hierarchical: bool,
    /// Fault injection, if any.
    pub chaos: Option<ChaosConfig>,
}

impl Scenario {
    /// Expands a seed into a scenario. Pure: the same seed always yields
    /// the same scenario.
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let n_imp = 1 + rng.below(3) as usize;
        // Never more exporters than importers: with the round-robin
        // assignment below that guarantees every exporter has at least one
        // connection, and a connectionless program declares no regions.
        let n_exp = 1 + rng.below(n_imp.min(2) as u64) as usize;
        let exporters: Vec<ExporterSpec> = (0..n_exp)
            .map(|_| {
                let procs = 1 + rng.below(3) as usize;
                ExporterSpec {
                    procs,
                    t0: 0.1 + rng.f64(),
                    dt: 0.5 + rng.f64(),
                    count: 0, // filled by fill_export_counts
                    compute: (0..procs).map(|_| rng.f64() * 0.004).collect(),
                }
            })
            .collect();
        let importers = (0..n_imp)
            .map(|j| {
                // Round-robin so every exporter is referenced by at least
                // one connection (an unreferenced program would be inert).
                let exporter = j % n_exp;
                let e = &exporters[exporter];
                ImporterSpec {
                    exporter,
                    procs: 1 + rng.below(2) as usize,
                    policy: match rng.below(3) {
                        0 => MatchPolicy::RegL,
                        1 => MatchPolicy::Reg,
                        _ => MatchPolicy::RegU,
                    },
                    tol: (0.3 + 0.7 * rng.f64()) * e.dt,
                    t0: e.t0 + rng.f64() * 3.0 * e.dt,
                    dt: e.dt * (0.6 + 1.8 * rng.f64()),
                    count: 2 + rng.below(4) as usize,
                    compute: rng.f64() * 0.003,
                    startup: rng.f64() * 0.002,
                }
            })
            .collect();
        let buddy_help = rng.below(4) != 0;
        let n_progs = n_exp + n_imp;
        let chaos = (rng.below(2) == 1).then(|| {
            let mut cfg = ChaosConfig {
                seed: rng.next_u64(),
                max_delay: 0.002 + rng.f64() * 0.003,
                duplicate_prob: 0.3,
                break_prob: 0.0,
                crash: None,
            };
            // Half of the chaotic scenarios add faults only the protocol's
            // reliability layer can survive: link breaks (p ≤ 0.2 per
            // send) and/or a single rep crash (with or without restart).
            if rng.below(2) == 1 {
                cfg.break_prob = 0.05 + rng.f64() * 0.15;
            }
            if rng.below(3) == 0 {
                cfg.crash = Some(CrashFault {
                    target: CrashTarget::Rep(rng.below(n_progs as u64) as usize),
                    after_msgs: 2 + rng.below(16),
                    restart_after: (rng.below(2) == 0).then(|| 0.2 + rng.f64() * 0.8),
                });
            }
            cfg
        });
        let mut s = Scenario {
            seed,
            exporters,
            importers,
            buddy_help,
            hierarchical: false,
            chaos,
        };
        s.fill_export_counts();
        s
    }

    /// A concurrency stress plan derived from `seed`: every program at 6
    /// ranks (row-block over 8 rows), zero compute and zero startup skew —
    /// every rank hammers the control plane simultaneously, the paper's
    /// tightest coupling — and fault-free, so the sharded reliability
    /// layer stays unarmed.
    /// Hierarchical distribution is on, and 6 ranks exceed the tree's
    /// branching factor, so collectives genuinely traverse relay hops.
    /// Timestamp phases still vary by seed, so matching decisions differ
    /// per seed.
    pub fn stress(seed: u64) -> Self {
        let mut s = Scenario::generate(seed);
        s.chaos = None;
        s.buddy_help = true;
        s.hierarchical = true;
        for e in &mut s.exporters {
            e.procs = 6;
            e.compute = vec![0.0; 6];
        }
        for imp in &mut s.importers {
            imp.procs = 6;
            imp.compute = 0.0;
            imp.startup = 0.0;
            imp.count += 2;
        }
        s.fill_export_counts();
        s
    }

    /// Forces a fault-heavy plan onto this scenario: link breaks at the
    /// ceiling rate plus a rep crash (restarting on even seeds, relying on
    /// successor failover on odd ones). Used by the `--faults` sweep so a
    /// fixed seed set deterministically exercises crash/restart + breaks
    /// on both runtimes regardless of what `generate` drew.
    pub fn force_faults(&mut self) {
        let n_progs = self.exporters.len() + self.importers.len();
        let mut cfg = self.chaos.unwrap_or(ChaosConfig {
            seed: self.seed ^ 0xFA17_FA17_FA17_FA17,
            max_delay: 0.003,
            duplicate_prob: 0.3,
            break_prob: 0.0,
            crash: None,
        });
        cfg.break_prob = 0.2;
        cfg.crash = Some(CrashFault {
            target: CrashTarget::Rep((self.seed as usize) % n_progs),
            after_msgs: 3 + self.seed % 12,
            restart_after: self.seed.is_multiple_of(2).then_some(0.6),
        });
        self.chaos = Some(cfg);
    }

    /// Starts every importer late and lengthens its schedule by 24 imports,
    /// so each exporter runs a socket node's whole export buffer ahead of
    /// the first request and stalls. The socket sweeps apply it: their
    /// nodes pace their exporters while the in-process runs do not, so
    /// the cross-runtime checks compare a bounded exporter's decisions
    /// with an unbounded one's. Match decisions do not depend on timing,
    /// so every oracle still applies.
    pub fn lag_importers(&mut self) {
        for imp in &mut self.importers {
            imp.startup = imp.startup.max(0.1);
            imp.count += 24;
        }
        self.fill_export_counts();
    }

    /// Recomputes every exporter's iteration count so its timestamps extend
    /// past the upper bound of every referencing importer's last acceptable
    /// region (plus margin). This makes every request *decided* under the
    /// full export history — the property the buffer-safety oracle's
    /// ground-truth replay and the runtime-equivalence check rely on.
    /// Must be re-run after any structural edit (see the shrinker).
    pub fn fill_export_counts(&mut self) {
        for (i, e) in self.exporters.iter_mut().enumerate() {
            let mut hi = e.t0 + e.dt;
            for imp in self.importers.iter().filter(|imp| imp.exporter == i) {
                let last_x = imp.t0 + (imp.count - 1) as f64 * imp.dt;
                hi = hi.max(last_x + imp.tol);
            }
            e.count = ((hi - e.t0) / e.dt).ceil() as usize + 3;
        }
    }

    /// The configuration-file text for this scenario (the same Figure-2
    /// format deployers write by hand).
    pub fn config_text(&self) -> String {
        let mut text = String::new();
        for (i, e) in self.exporters.iter().enumerate() {
            writeln!(text, "E{i} c0 /bin/e{i} {}", e.procs).expect("writing to String");
        }
        for (j, imp) in self.importers.iter().enumerate() {
            writeln!(text, "I{j} c0 /bin/i{j} {}", imp.procs).expect("writing to String");
        }
        text.push_str("#\n");
        for (j, imp) in self.importers.iter().enumerate() {
            writeln!(
                text,
                "E{}.r I{j}.m {} {:.9}",
                imp.exporter,
                imp.policy.as_str(),
                imp.tol
            )
            .expect("writing to String");
        }
        text
    }

    /// Builds the validated topology: the generated configuration with a
    /// row-block decomposition of [`GRID`] bound to every region, exactly
    /// as a socket node rebuilds it.
    pub fn build_topology(&self) -> Result<Topology, String> {
        Topology::row_blocks(&self.config_text(), Extent2::new(GRID.0, GRID.1))
    }

    /// The run every runtime plays: the built topology, each exporter's
    /// region `r` and each importer's region `m` on their schedules, every
    /// exporter rank traced on every connection, a 5 s import timeout,
    /// and `faults` with the scenario's chaos.
    pub fn spec(&self, faults: Faults) -> Result<RunSpec, String> {
        let topology = self.build_topology()?;
        let exports = self
            .exporters
            .iter()
            .enumerate()
            .map(|(i, e)| ExportSchedule {
                program: format!("E{i}"),
                region: "r".into(),
                t0: e.t0,
                dt: e.dt,
                count: e.count,
                compute: e.compute.clone(),
            });
        let imports = self
            .importers
            .iter()
            .enumerate()
            .map(|(j, imp)| ImportSchedule {
                program: format!("I{j}"),
                region: "m".into(),
                t0: imp.t0,
                dt: imp.dt,
                count: imp.count,
                compute: imp.compute,
                startup: imp.startup,
            });
        let traces = topology.conns.iter().flat_map(|ct| {
            let procs = topology.programs[ct.exporter_prog].procs;
            (0..procs).map(move |rank| (ct.exporter_prog, rank, ct.id))
        });
        let knobs = Knobs {
            buddy_help: self.buddy_help,
            import_timeout: Duration::from_secs(5),
            traces: traces.collect(),
            faults: Faults {
                chaos: self.chaos,
                ..faults
            },
            hierarchical: self.hierarchical,
            ..Knobs::default()
        };
        Ok(RunSpec {
            exports: exports.collect(),
            imports: imports.collect(),
            topology,
            knobs,
        })
    }

    /// Program index of exporter `i` in the built topology (exporters are
    /// declared first).
    pub fn exporter_prog(&self, i: usize) -> usize {
        i
    }

    /// Program index of importer `j` in the built topology.
    pub fn importer_prog(&self, j: usize) -> usize {
        self.exporters.len() + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..50 {
            assert_eq!(Scenario::generate(seed), Scenario::generate(seed));
        }
    }

    #[test]
    fn generated_topologies_validate() {
        for seed in 0..100 {
            let s = Scenario::generate(seed);
            let topo = s.build_topology().expect("topology must validate");
            assert_eq!(topo.conns.len(), s.importers.len());
            for (j, imp) in s.importers.iter().enumerate() {
                let prog = &topo.programs[s.importer_prog(j)];
                assert_eq!(prog.procs, imp.procs);
                assert_eq!(prog.imports.len(), 1);
            }
        }
    }

    #[test]
    fn export_schedules_outlast_every_region() {
        for seed in 0..100 {
            let s = Scenario::generate(seed);
            for (j, imp) in s.importers.iter().enumerate() {
                let e = &s.exporters[imp.exporter];
                let last_export = e.t0 + (e.count - 1) as f64 * e.dt;
                let last_hi = imp.t0 + (imp.count - 1) as f64 * imp.dt + imp.tol;
                assert!(
                    last_export > last_hi,
                    "seed {seed} importer {j}: exports end at {last_export}, \
                     region ends at {last_hi}"
                );
            }
        }
    }
}
