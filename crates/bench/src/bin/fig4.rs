//! Regenerates **Figure 4** of the paper: data-exporting time per iteration
//! for the slowest exporter process `p_s`, for importer programs of 4, 8,
//! 16 and 32 processes (panels a–d), plus the buddy-help-off ablation.
//!
//! Usage: `cargo run -p couplink-bench --release --bin fig4 [out_dir]`
//!
//! Writes one CSV per panel (`fig4_u{n}.csv`: per-iteration export seconds,
//! raw and window-averaged, plus the no-buddy-help baseline) and prints the
//! summary rows reported in `EXPERIMENTS.md`.

use couplink::series::{window_mean, Column};
use couplink_bench::report::{out_dir_from_args, write_series};
use couplink_diffusion::fig4::{fig4_config, optimal_entry, Fig4Params, EXPORTS, SLOW_RANK};
use couplink_runtime::{CostModel, TopoReport, TopologySim};

fn run(params: Fig4Params) -> TopoReport {
    TopologySim::from_spec(fig4_config(params), CostModel::default())
        .expect("valid configuration")
        .run()
        .expect("simulation completes")
}

fn main() {
    let out_dir = out_dir_from_args();

    println!("Figure 4: export time per iteration of the slowest exporter process p_s");
    println!("(1024x1024 array, REGL tolerance 2.5, 1001 exports, 1 in 20 transferred)");
    println!();
    println!(
        "{:<7} {:>10} {:>8} {:>8} {:>10} {:>12} {:>14} {:>14}",
        "panel",
        "importers",
        "copies",
        "skips",
        "optimal@",
        "T_ub count",
        "mean ms (all)",
        "mean ms (tail)"
    );

    for (panel, u_procs) in [("(a)", 4usize), ("(b)", 8), ("(c)", 16), ("(d)", 32)] {
        let with = run(Fig4Params::panel(u_procs));
        let without = run(Fig4Params::panel(u_procs).without_buddy_help());
        let series = &with.export_series[0].times[SLOW_RANK];
        let stats = &with.stats[0][SLOW_RANK];
        // Mean export milliseconds from iteration `from` to the end.
        let mean_ms =
            |from: usize| series[from..].iter().sum::<f64>() / (series.len() - from) as f64 * 1e3;
        println!(
            "{:<7} {:>10} {:>8} {:>8} {:>10} {:>12} {:>14.3} {:>14.3}",
            panel,
            u_procs,
            stats.memcpys,
            stats.skips,
            optimal_entry(stats).map_or_else(|| "never".into(), |e| e.to_string()),
            stats.t_ub_in_region_count(),
            mean_ms(0),
            mean_ms(EXPORTS - 200),
        );

        let columns = vec![
            Column::new("export_seconds", series.clone()),
            Column::new(
                "export_seconds_window20",
                expand(&window_mean(series, 20), 20, series.len()),
            ),
            Column::new(
                "no_buddy_help_seconds",
                without.export_series[0].times[SLOW_RANK].clone(),
            ),
        ];
        write_series(
            &out_dir,
            &format!("fig4_u{u_procs}.csv"),
            "iteration",
            &columns,
        );
    }
    println!();
    println!(
        "CSV series written to {}/fig4_u{{4,8,16,32}}.csv",
        out_dir.display()
    );
    println!("Paper reference shapes: (a)/(b) flat; (c) optimal state ~iteration 400;");
    println!("(d) optimal state ~iteration 25; optimal state = only matched data buffered.");
}

/// Repeats each window mean `window` times so the smoothed curve aligns with
/// the per-iteration index column.
fn expand(means: &[f64], window: usize, len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(len);
    for m in means {
        for _ in 0..window {
            if out.len() < len {
                out.push(*m);
            }
        }
    }
    out
}
