//! Finite-buffer-space study (the paper's §6 future work, built here):
//! how a bounded framework buffer throttles the exporter, and how buddy-help
//! relieves the pressure by never buffering objects it can prove dead.
//!
//! Usage: `cargo run -p couplink-bench --release --bin finite_buffer`

use couplink_bench::ablation_config;
use couplink_runtime::{CostModel, RunSpec, TopologySim};
use couplink_time::MatchPolicy;

/// The REGL ablation point (tolerance 2.5, one request per 20 exports, 601
/// exports) with a 50 ms importer startup, the given importer compute and
/// a bounded buffer.
fn config(buffer_capacity: Option<usize>, buddy_help: bool, importer_compute: f64) -> RunSpec {
    let mut spec = ablation_config(MatchPolicy::RegL, 2.5, 20.0, buddy_help, 601);
    spec.imports[0].compute = importer_compute;
    spec.imports[0].startup = 50.0e-3;
    spec.knobs.buffer_capacity = buffer_capacity;
    spec
}

fn main() {
    println!("Finite framework buffers: exporter stalls vs capacity (slow rank p_s)");
    println!();
    println!(
        "{:>9} {:>11} {:>9} {:>8} {:>8} {:>12} {:>12}",
        "capacity", "buddy-help", "importer", "stalls", "peak", "duration s", "done imports"
    );
    for &importer_compute in &[40.0e-3_f64, 5.0e-3] {
        let importer = if importer_compute > 20.0e-3 {
            "slow"
        } else {
            "fast"
        };
        for capacity in [None, Some(24), Some(8), Some(4)] {
            for buddy in [true, false] {
                let spec = config(capacity, buddy, importer_compute);
                let report = TopologySim::from_spec(spec, CostModel::default())
                    .unwrap()
                    .run()
                    .unwrap();
                let slow = &report.stats[0][3];
                println!(
                    "{:>9} {:>11} {:>9} {:>8} {:>8} {:>12.2} {:>12}",
                    capacity.map_or_else(|| "unbounded".into(), |c| c.to_string()),
                    buddy,
                    importer,
                    slow.buffer_full_stalls,
                    slow.buffered_hwm,
                    report.duration,
                    report.import_done[0][0],
                );
            }
        }
        println!();
    }
    println!("Expected: with a slow importer, small buffers throttle the exporter to the");
    println!("importer's pace (stalls grow as capacity shrinks). With a fast importer and");
    println!("buddy-help, the slow process barely buffers at all, so even tiny buffers");
    println!("cost nothing — buddy-help doubles as a buffer-pressure valve.");
}
