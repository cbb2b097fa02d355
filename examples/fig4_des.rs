//! Runs one Figure-4 panel on the deterministic discrete-event runtime and
//! prints the per-window export-time profile of the slow process — a quick
//! way to *see* the buddy-help ramp without the full bench harness.
//!
//! Run: `cargo run -p couplink-examples --release --bin fig4_des -- [u_procs]`

use couplink_diffusion::fig4::{fig4_config, optimal_entry, Fig4Params, SLOW_RANK};
use couplink_runtime::{CostModel, TopologySim};

fn main() {
    let u_procs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let spec = fig4_config(Fig4Params::panel(u_procs));
    let report = TopologySim::from_spec(spec, CostModel::default())
        .expect("valid configuration")
        .run()
        .expect("simulation completes");

    println!("Figure 4 panel, importer U with {u_procs} processes (virtual time)");
    println!("per-window (20 iterations) mean export time of p_s, in ms:");
    println!();
    let series = &report.export_series[0].times[SLOW_RANK];
    let stats = &report.stats[0][SLOW_RANK];
    for (w, chunk) in series.chunks(20).enumerate() {
        let mean_ms = chunk.iter().sum::<f64>() / chunk.len() as f64 * 1e3;
        let bar = "#".repeat((mean_ms * 30.0).round() as usize);
        println!(
            "window {w:3} (iters {:4}..{:4}): {mean_ms:6.3} ms  {bar}",
            w * 20,
            w * 20 + chunk.len()
        );
    }
    println!();
    match optimal_entry(stats) {
        Some(e) => println!("optimal state (T_i = 0 from here on) entered at iteration {e}"),
        None => println!("optimal state never entered (importer too slow — panels a/b)"),
    }
    println!(
        "skips: {}, memcpys: {}, unnecessary in-region copies: {}",
        stats.skips,
        stats.memcpys,
        stats.t_ub_in_region_count()
    );
}
