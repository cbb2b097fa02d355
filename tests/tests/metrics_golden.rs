//! Golden-snapshot and determinism tests for the metrics layer.
//!
//! The Figure-5 event stream, rendered with running metric annotations, is
//! pinned against `tests/golden/fig5_trace.txt`. A diff points at the exact
//! event where a buffering decision regressed. Regenerate after an
//! intentional protocol change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p couplink-integration --test metrics_golden
//! ```

use couplink_bench::figure5_trace;
use couplink_diffusion::fig4::{fig4_config, Fig4Params};
use couplink_runtime::{CostModel, TopoReport, TopologySim};
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

#[test]
fn figure5_annotated_trace_matches_golden() {
    let rendered = figure5_trace().render_annotated();
    let path = golden_path("fig5_trace.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun with UPDATE_GOLDEN=1 to create",
            path.display()
        )
    });
    if rendered != golden {
        // Line-level diff so the failing event is obvious.
        let mut diff = String::new();
        for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
            if got != want {
                diff.push_str(&format!(
                    "line {}:\n  golden : {want}\n  current: {got}\n",
                    i + 1
                ));
            }
        }
        panic!(
            "Figure-5 annotated trace drifted from {} \
             ({} rendered lines vs {} golden):\n{diff}\
             If the change is intentional, regenerate with UPDATE_GOLDEN=1.",
            path.display(),
            rendered.lines().count(),
            golden.lines().count(),
        );
    }
}

fn run_fig4_smoke() -> TopoReport {
    let spec = fig4_config(Fig4Params {
        u_procs: 16,
        buddy_help: true,
        exports: 101,
    });
    TopologySim::from_spec(spec, CostModel::default())
        .expect("valid config")
        .run()
        .expect("runs")
}

/// Two identical DES runs must produce bit-identical counter snapshots and
/// virtual phase times — the property the bench regression gate relies on.
#[test]
fn des_metrics_are_deterministic_across_runs() {
    let a = run_fig4_smoke();
    let b = run_fig4_smoke();
    assert_eq!(
        a.metrics.counters, b.metrics.counters,
        "counter snapshots differ between identical DES runs"
    );
    assert_eq!(
        a.metrics.timing.virtual_s, b.metrics.timing.virtual_s,
        "virtual phase times differ between identical DES runs"
    );
    // Sanity on the snapshot itself: conservation and non-trivial content.
    let c = &a.metrics.counters;
    assert_eq!(c.memcpy_paid + c.memcpy_skipped, c.export_calls);
    assert!(c.export_calls > 0 && c.transfers > 0);
}

/// The counter snapshot round-trips through the hand-rolled JSON codec.
#[test]
fn counter_snapshot_roundtrips_through_json() {
    let report = run_fig4_smoke();
    let encoded = couplink_metrics::json::emit(&report.metrics.counters.to_json());
    let decoded = couplink_metrics::CounterSnapshot::from_json(
        &couplink_metrics::json::parse(&encoded).expect("parses"),
    )
    .expect("decodes");
    assert_eq!(decoded, report.metrics.counters);
}
