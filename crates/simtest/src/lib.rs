//! Seeded, fully deterministic simulation testing for the coupling
//! framework — FoundationDB-style DST scaled down to this codebase.
//!
//! One `u64` seed expands into a complete *scenario*: a random
//! multi-program topology (exporters feeding one or more importers with
//! random policies and tolerances), random timestamp schedules, per-process
//! compute slowdowns, and optionally a seeded fault-injection plan
//! ([`couplink_runtime::ChaosConfig`]: per-message delay and duplication
//! — plus *permanent* faults: seeded link breaks and a seeded rep crash
//! with restart or successor failover). The scenario runs on **both** in-process runtimes — the
//! discrete-event simulator and the threaded fabric — and, with
//! `--socket`, additionally on the **socket runtime**
//! ([`couplink_runtime::net`]: every program its own OS process on
//! loopback UDS or TCP). The results are checked against the protocol
//! oracles in [`couplink_runtime::engine::oracle`]:
//!
//! 1. collective order (Property 1),
//! 2. buffer safety (ground-truth match replay),
//! 3. liveness (every import resolves),
//! 4. runtime equivalence (DES and threads decide identical matches),
//! 5. metric consistency (counter conservation laws), plus a fault-free
//!    inertness check: scenarios without permanent faults must show zero
//!    retransmits/timeouts/failovers/degraded buffers and no ack
//!    traffic.
//!
//! The `--faults` CLI mode ([`scenario::Scenario::force_faults`]) forces
//! link breaks on 20% of sends plus a rep crash (restart on even seeds,
//! successor failover on odd) onto every seed; all oracles must still
//! pass.
//!
//! A failing seed shrinks to a structurally minimal scenario
//! ([`shrink::shrink`]) and is dumped under `results/simtest/` for replay.
//! The *mutation smoke* mode ([`runner::mutation_smoke`]) deliberately
//! arms an unsound protocol rule ([`couplink_runtime::Mutation`], passed
//! to a runtime as `Faults::mutation` like every other injected fault) and
//! demands that an oracle catches it — proving the oracles have teeth:
//!
//! * `HelpSkip` weakens the acceptable-region pruning rule so the
//!   buddy-help match itself is skipped; the export ports fire it, and the
//!   harness arms it on the simulator (buffer safety);
//! * `StaleSkip` drops "stale" buddy-help announcements so a rank silently
//!   withholds its piece of the transfer; fired by the export ports, armed
//!   on the simulator (buffer safety);
//! * `RelayDrop` starves one subtree of the distribution tree; the import
//!   nodes fire it, armed on the simulator and then on the threaded
//!   fabric (liveness or buffer safety);
//! * `AckBeforeHandle` lets the armed fabric's shutdown drain stop
//!   mid-handler; only the fabric fires it (the simulator refuses it), and
//!   no seeded scenario hits that race, so it is caught by repeating
//!   [`runner::armed_shutdown_probe`] (liveness).
//!
//! Everything is a pure function of the seed: no wall-clock, no OS entropy.
//! (The threaded runtime's interleavings are real and thus vary, but every
//! property checked is timing-independent, so a seed's verdict is stable.)

#![warn(missing_docs)]

pub mod runner;
pub mod scenario;
pub mod shrink;

pub use runner::{
    armed_shutdown_probe, check_des, check_scenario, check_scenario_socket, check_socket,
    check_threaded, is_expected_catch, mutation_smoke, run_des, run_net_fault, run_socket,
    run_threaded, socket_node_bin, socket_plan,
};
pub use scenario::{ExporterSpec, ImporterSpec, Scenario};
pub use shrink::{shrink, write_failure_report};

/// Minimal splitmix64 generator — the same construction the offline
/// `proptest` shim uses, kept local so the harness has zero dependencies
/// beyond the workspace.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one seed.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
