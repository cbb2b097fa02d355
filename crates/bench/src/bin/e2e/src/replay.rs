//! The layer replay: each layer's public entry points timed in isolation,
//! with the workload's own inputs, then folded into a per-import cost table.
//!
//! Every layer is replayed for every workload, whether or not the layer is
//! on that workload's import path: a layer a workload bypasses still has a
//! cost at that workload's sizes, and the cost table simply gives it a call
//! count of zero.

use crate::adapter::layers::{self, Side};
use crate::adapter::{Coupling, Engine, Live, SocketPlan};
use crate::oracle::{Policy, Rect};
use crate::stats::median;
use crate::trace::{Recorder, ROOT};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The inputs a workload hands the replay: its main connection.
#[derive(Debug, Clone)]
pub struct Shape {
    pub coupling: Coupling,
    pub exporter: Side,
    pub importer: Side,
    pub exporter_piece: Rect,
    pub policy: Policy,
    pub tol: f64,
    /// Payload frames cross a socket on this workload's import path.
    pub over_sockets: bool,
    /// The runtime copies real arrays (the simulator only charges for it).
    pub moves_payload: bool,
}

/// Seconds per call of `f`: at least 1 000 calls and 20 ms, or 200 ms,
/// whichever comes first, after one untimed call.
pub fn per_call_s(mut f: impl FnMut()) -> f64 {
    f();
    let (mut calls, mut batch) = (0u64, 1u64);
    let t0 = Instant::now();
    loop {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        let elapsed = t0.elapsed();
        let enough = calls >= 1_000 && elapsed >= Duration::from_millis(20);
        if enough || elapsed >= Duration::from_millis(200) {
            return elapsed.as_secs_f64() / calls as f64;
        }
        // Keep clock reads rare next to nanosecond-scale calls.
        if elapsed < Duration::from_millis(1) {
            batch *= 2;
        }
    }
}

/// What reading the clock around a call adds to its measured time.
fn timer_overhead_s() -> f64 {
    let mut total = Duration::ZERO;
    let n = 20_000;
    for _ in 0..n {
        let t0 = Instant::now();
        total += t0.elapsed();
    }
    total.as_secs_f64() / f64::from(n)
}

/// Seconds per call of each of the `N` sections `f` times itself, net of
/// the clock reads.
fn per_section_s<const N: usize>(
    mut f: impl FnMut(&mut [Duration; N]),
    overhead_s: f64,
) -> [f64; N] {
    let mut acc = [Duration::ZERO; N];
    let mut calls = 0u64;
    f(&mut acc);
    acc = [Duration::ZERO; N];
    let t0 = Instant::now();
    while calls < 1_000 || t0.elapsed() < Duration::from_millis(20) {
        f(&mut acc);
        calls += 1;
        if t0.elapsed() >= Duration::from_millis(200) {
            break;
        }
    }
    acc.map(|d| (d.as_secs_f64() / calls as f64 - overhead_s).max(0.0))
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Replays every layer at `shape`'s sizes. `history_depth` is the history
/// the run's own counters observed (`buffered_hwm`). Returns metric name →
/// value, in the units the per-layer table declares.
pub fn layer_costs(
    shape: &Shape,
    history_depth: usize,
    tmp: &Path,
    node_bin: Option<&Path>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut m = BTreeMap::new();
    let depth = history_depth.max(2);
    let grid = shape.coupling.grid;
    let piece = shape.exporter_piece;
    let piece_bytes = piece.cells() * 8;
    let overhead = timer_overhead_s();

    m.insert(
        "time.evaluate_ns",
        per_call_s(layers::evaluate_call(shape.policy, shape.tol, depth)) * 1e9,
    );
    m.insert(
        "time.history_record_ns",
        per_call_s(layers::history_record_call(depth)) * 1e9,
    );

    m.insert(
        "layout.copy_from_gbps",
        gbps(piece_bytes, per_call_s(layers::copy_from_call(piece))),
    );
    m.insert(
        "layout.memcpy_ref_gbps",
        gbps(piece_bytes, per_call_s(layers::memcpy_ref_call(piece))),
    );
    let (copy_into, landed) = layers::copy_into_call(grid, shape.exporter, shape.importer);
    m.insert("layout.copy_into_gbps", gbps(landed, per_call_s(copy_into)));
    m.insert(
        "layout.plan_build_us",
        per_call_s(layers::plan_build_call(
            grid,
            shape.exporter,
            shape.importer,
        )) * 1e6,
    );

    let [request, buffer] = per_section_s(
        layers::port_lockstep_call(shape.policy, shape.tol),
        overhead,
    );
    m.insert("proto.on_request_ns", request * 1e9);
    m.insert("proto.export_buffer_ns", buffer * 1e9);
    m.insert(
        "proto.export_skip_ns",
        per_call_s(layers::port_skip_call()) * 1e9,
    );
    let [help_s] = per_section_s(layers::port_help_call(), overhead);
    m.insert("proto.on_buddy_help_ns", help_s * 1e9);
    let (rep, events) = layers::exporter_rep_call(shape.exporter.1, shape.coupling.buddy_help);
    m.insert(
        "proto.rep_aggregate_ns",
        per_call_s(rep) / events as f64 * 1e9,
    );
    let (rep, events) = layers::importer_rep_call(shape.importer.1);
    m.insert("proto.imp_rep_ns", per_call_s(rep) / events as f64 * 1e9);

    let (encode, frame_len) = layers::encode_payload_call(piece);
    m.insert(
        "proto.wire.encode_payload_gbps",
        gbps(piece_bytes, per_call_s(encode)),
    );
    m.insert(
        "proto.wire.decode_payload_gbps",
        gbps(piece_bytes, per_call_s(layers::decode_payload_call(piece))),
    );
    m.insert(
        "proto.wire.crc32_gbps",
        gbps(frame_len, per_call_s(layers::crc32_call(frame_len))),
    );
    let (codec, msgs) = layers::ctrl_codec_call();
    m.insert(
        "proto.wire.ctrl_codec_ns",
        per_call_s(codec) / msgs as f64 * 1e9,
    );
    let (decoder, frames) = layers::decoder_call();
    m.insert(
        "proto.wire.decoder_frames_per_s",
        frames as f64 / per_call_s(decoder),
    );

    m.insert(
        "config.parse_us",
        per_call_s(layers::config_parse_call(shape.coupling.config_text())) * 1e6,
    );
    m.insert(
        "metrics.record_ns",
        per_call_s(layers::metrics_record_call()) * 1e9,
    );
    m.insert(
        "metrics.snapshot_us",
        per_call_s(layers::metrics_snapshot_call()) * 1e6,
    );

    let (pool, takes, hit_frac) = layers::bufpool_call(frame_len, shape.exporter.1);
    m.insert(
        "net.bufpool_cycle_ns",
        per_call_s(pool) / takes as f64 * 1e9,
    );
    m.insert("net.bufpool_replay_hit_frac", hit_frac());

    // 16 MiB or 2 000 frames per transfer, whichever is less work.
    let frames = (16 * 1024 * 1024 / frame_len).clamp(64, 2_000);
    let mut link_s = Vec::new();
    for _ in 0..3 {
        link_s.push(layers::link_transfer_s(tmp, frame_len, frames)?);
    }
    let link = median(&link_s);
    m.insert("net.link_writer_gbps", gbps(frame_len * frames, link));
    m.insert("net.link_writer_frames_per_s", frames as f64 / link);

    // The set-up layers, through both in-process entry points and a mesh.
    let rec = Recorder::new(false);
    for (engine, build, shutdown) in [
        (
            Engine::Fabric,
            "threaded.fabric_build_ms",
            "threaded.shutdown_ms",
        ),
        (Engine::Session, "core.session_build_ms", "core.shutdown_ms"),
    ] {
        let (mut builds, mut shutdowns) = (Vec::new(), Vec::new());
        for _ in 0..7 {
            let t0 = Instant::now();
            let live = Live::build(&shape.coupling, engine, &rec, ROOT)?;
            builds.push(t0.elapsed().as_secs_f64() * 1e3);
            let t0 = Instant::now();
            live.shutdown()?;
            shutdowns.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        m.insert(build, median(&builds));
        m.insert(shutdown, median(&shutdowns));
    }
    if let Some(node_bin) = node_bin {
        let plan = SocketPlan {
            grid,
            procs: 2,
            steps: 1,
            t0: 1.5,
            tol: 0.25,
            verify_values: false,
        };
        let mut walls = Vec::new();
        for _ in 0..3 {
            let run = crate::adapter::run_socket(&plan, node_bin)?;
            if let Some(e) = run.errors.first() {
                return Err(format!("bootstrap replay: {e}"));
            }
            walls.push(run.wall_s * 1e3);
        }
        m.insert("net.bootstrap_ms", median(&walls));
    }
    Ok(m)
}

/// One row of the per-import cost table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub layer: &'static str,
    /// Calls (or bytes, for the copy layers) on one import's blocking path.
    pub per_import: f64,
    pub unit_cost_us: f64,
    pub us: f64,
}

/// The cost table of one import: which replayed layer costs sit on its
/// blocking path and how often, under a stated model — ranks of one program
/// work in parallel (one rank's cost counts), a rep and a socket link are
/// serial (every event and byte counts). `ctrl_per_import` is the run's own
/// control-message count per import.
pub fn cost_table(
    shape: &Shape,
    costs: &BTreeMap<&'static str, f64>,
    ctrl_per_import: f64,
) -> Vec<Row> {
    let get = |k: &str| costs.get(k).copied().unwrap_or(0.0);
    let ns = |k: &str| get(k) / 1e3;
    let per_gb = |k: &str| if get(k) > 0.0 { 1e-3 / get(k) } else { 0.0 };
    let (e, i) = (shape.exporter.1 as f64, shape.importer.1 as f64);
    let piece = (shape.exporter_piece.cells() * 8) as f64;
    let grid_bytes = (shape.coupling.grid.0 * shape.coupling.grid.1 * 8) as f64;
    let landed = grid_bytes / i;
    let wire = if shape.over_sockets { 1.0 } else { 0.0 };
    let (piece, landed) = if shape.moves_payload {
        (piece, landed)
    } else {
        (0.0, 0.0)
    };
    let mut rows = vec![
        ("proto.imp_rep", i + 1.0, ns("proto.imp_rep_ns")),
        ("proto.rep_aggregate", e + 1.0, ns("proto.rep_aggregate_ns")),
        ("proto.on_request", 1.0, ns("proto.on_request_ns")),
        ("time.evaluate", 1.0, ns("time.evaluate_ns")),
        ("time.history_record", 1.0, ns("time.history_record_ns")),
        ("proto.export_buffer", 1.0, ns("proto.export_buffer_ns")),
        (
            "layout.copy_from (bytes)",
            piece,
            per_gb("layout.copy_from_gbps"),
        ),
        (
            "layout.copy_into (bytes)",
            landed,
            per_gb("layout.copy_into_gbps"),
        ),
        ("metrics.record", ctrl_per_import, ns("metrics.record_ns")),
        (
            "proto.wire.encode_payload (bytes)",
            wire * piece,
            per_gb("proto.wire.encode_payload_gbps"),
        ),
        (
            "net.link_writer (bytes)",
            wire * grid_bytes,
            per_gb("net.link_writer_gbps"),
        ),
        (
            "proto.wire.crc32 (bytes)",
            wire * grid_bytes,
            per_gb("proto.wire.crc32_gbps"),
        ),
        (
            "proto.wire.decode_payload (bytes)",
            wire * grid_bytes,
            per_gb("proto.wire.decode_payload_gbps"),
        ),
        (
            "proto.wire.ctrl_codec",
            wire * 2.0,
            ns("proto.wire.ctrl_codec_ns"),
        ),
    ];
    rows.retain(|r| r.1 > 0.0);
    rows.into_iter()
        .map(|(layer, per_import, unit_cost_us)| Row {
            layer,
            per_import,
            unit_cost_us,
            us: per_import * unit_cost_us,
        })
        .collect()
}

/// Whether a row is a wire/socket layer (for `net.unattributed_us`).
pub fn is_wire(row: &Row) -> bool {
    row.layer.starts_with("proto.wire") || row.layer.starts_with("net.")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_call_timing_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
            }
        };
        let (short, long) = (per_call_s(spin(1_000)), per_call_s(spin(20_000)));
        assert!(long > 5.0 * short, "{long} vs {short}");
    }

    #[test]
    fn table_rows_sum_and_bypassed_layers_drop_out() {
        let coupling = Coupling {
            grid: (16, 64),
            programs: Vec::new(),
            regions: Vec::new(),
            links: Vec::new(),
            buddy_help: true,
        };
        let mut shape = Shape {
            coupling,
            exporter: (crate::adapter::Decomp::Rows, 2),
            importer: (crate::adapter::Decomp::Rows, 2),
            exporter_piece: Rect {
                row0: 0,
                col0: 0,
                rows: 8,
                cols: 64,
            },
            policy: Policy::RegL,
            tol: 0.4,
            over_sockets: false,
            moves_payload: true,
        };
        let costs = BTreeMap::from([
            ("proto.imp_rep_ns", 100.0),
            ("layout.copy_into_gbps", 4.0),
            ("proto.wire.crc32_gbps", 2.0),
        ]);
        let rows = cost_table(&shape, &costs, 10.0);
        assert!(
            rows.iter().all(|r| !is_wire(r)),
            "fabric path has no wire rows"
        );
        let imp = rows
            .iter()
            .find(|r| r.layer == "proto.imp_rep")
            .expect("row");
        assert!((imp.us - 0.3).abs() < 1e-12, "3 events at 100 ns");
        let copy = rows
            .iter()
            .find(|r| r.layer.starts_with("layout.copy_into"))
            .expect("row");
        assert!(
            (copy.us - 4096.0 / 4.0 * 1e-3).abs() < 1e-9,
            "4 KiB at 4 GB/s"
        );
        shape.over_sockets = true;
        let rows = cost_table(&shape, &costs, 10.0);
        let crc = rows
            .iter()
            .find(|r| r.layer.starts_with("proto.wire.crc32"))
            .expect("row");
        assert!(
            (crc.us - 8192.0 / 2.0 * 1e-3).abs() < 1e-9,
            "8 KiB at 2 GB/s"
        );
    }
}
