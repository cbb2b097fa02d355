//! Ablation sweep the paper discusses in §5 but does not plot: the benefit
//! of buddy-help as a function of the ratio between the acceptable-region
//! size (tolerance) and the importer request inter-arrival time, and of the
//! match policy.
//!
//! Usage: `cargo run -p couplink-bench --release --bin ablation [out_dir]`

use couplink::series::Column;
use couplink_bench::ablation_config;
use couplink_bench::report::{out_dir_from_args, write_series};
use couplink_proto::ExportStats;
use couplink_runtime::{CostModel, TopologySim};
use couplink_time::MatchPolicy;

/// Port statistics of the slow exporter rank after one 601-export run.
fn slow_rank(policy: MatchPolicy, tolerance: f64, import_dt: f64, buddy_help: bool) -> ExportStats {
    let spec = ablation_config(policy, tolerance, import_dt, buddy_help, 601);
    let sim = TopologySim::from_spec(spec, CostModel::default()).unwrap();
    let mut report = sim.run().unwrap();
    report.stats[0].swap_remove(3)
}

fn main() {
    let out_dir = out_dir_from_args();

    println!("Ablation: buddy-help benefit vs tolerance/request-period ratio and policy");
    println!("(256x256 array, fast 16-process importer, slow exporter rank 3)");
    println!();
    println!(
        "{:>7} {:>10} {:>10} {:>8} {:>14} {:>14} {:>12}",
        "policy", "tolerance", "period", "ratio", "skips w/ help", "skips w/o", "T_ub w/ : w/o"
    );

    let mut ratio_col = Vec::new();
    let mut saved_col = Vec::new();
    for policy in [MatchPolicy::RegL, MatchPolicy::RegU, MatchPolicy::Reg] {
        for tolerance in [0.5, 2.5, 5.0, 10.0] {
            for import_dt in [10.0, 20.0, 40.0] {
                let with = slow_rank(policy, tolerance, import_dt, true);
                let without = slow_rank(policy, tolerance, import_dt, false);
                let sw = with.skips;
                let swo = without.skips;
                let ubw = with.t_ub_in_region_count();
                let ubwo = without.t_ub_in_region_count();
                println!(
                    "{:>7} {:>10} {:>10} {:>8.3} {:>14} {:>14} {:>8} : {:<4}",
                    policy.as_str(),
                    tolerance,
                    import_dt,
                    tolerance / import_dt,
                    sw,
                    swo,
                    ubw,
                    ubwo
                );
                if policy == MatchPolicy::RegL {
                    ratio_col.push(tolerance / import_dt);
                    saved_col.push(swo as f64 - sw as f64);
                }
            }
        }
    }
    write_series(
        &out_dir,
        "ablation_regl.csv",
        "row",
        &[
            Column::new("tolerance_over_period", ratio_col),
            Column::new("extra_skips_without_help_minus_with", saved_col),
        ],
    );
    println!();
    println!("CSV written to {}/ablation_regl.csv", out_dir.display());
    println!("Expected: the in-region T_ub saved by buddy-help grows with the number of");
    println!("exports per acceptable region (tolerance x export rate), and is zero only");
    println!("when at most one export fits in a region.");
}
