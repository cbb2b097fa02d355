//! The two passes over one workload: the timed pass (tracing off — every
//! end-to-end number comes from here) and the traced pass (spans, the run's
//! own counters per import, the layer replay and its cost table).

use crate::replay::{self, Row};
use crate::report::{Metric, Pass, END_TO_END, PER_LAYER};
use crate::stats::{median, over_reps, OverReps};
use crate::trace::{self, Recorder, ROOT};
use crate::workloads::{self, Knobs, RepOut, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

// --- memory ------------------------------------------------------------------

/// Peak resident set of this process, MB (`VmHWM`).
fn self_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Largest peak resident set among the child processes this process has
/// waited for, MB: the socket nodes.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_peak_rss_mb() -> f64 {
    /// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
    /// which `ru_maxrss` (kB) is the first.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout the
    // C library fills on this target (checked by the cfg above), and
    // `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_peak_rss_mb() -> f64 {
    0.0
}

/// The largest process of the run so far: this one, or a socket node.
fn peak_rss_mb() -> f64 {
    self_peak_rss_mb().max(children_peak_rss_mb())
}

/// The allocator keeps growing its arenas over the first reps of a process,
/// and a faster run fits more reps into its seconds: the peak is read after
/// a fixed amount of work, so that it does not depend on the run's speed.
const RSS_AFTER_REPS: usize = 3;

// --- running reps ------------------------------------------------------------

/// What a sequence of reps of one workload produced.
struct Reps {
    /// Peak resident set once the warm-up and [`RSS_AFTER_REPS`] measured
    /// reps are done, MB.
    peak_rss_mb: f64,
    setups: Vec<f64>,
    reps: Vec<RepOut>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Reps {
    fn absorb(&mut self, rep: &RepOut) {
        self.attempted += rep.attempted;
        self.failed += rep.failed;
        for e in &rep.errors {
            if self.errors.len() < 12 {
                self.errors.push(e.clone());
            }
        }
    }

    fn per_rep(&self, f: impl Fn(&RepOut) -> f64) -> OverReps {
        over_reps(&self.reps.iter().map(f).collect::<Vec<_>>())
    }
}

fn imports_per_s(r: &RepOut) -> f64 {
    r.imports as f64 / r.wall_s.max(1e-9)
}

fn payload_mb_per_s(r: &RepOut) -> f64 {
    r.bytes_landed as f64 / 1e6 / r.wall_s.max(1e-9)
}

/// Set-ups are timed in batches of this many and a batch counts as its mean:
/// the socket bootstrap takes 8 ms or 18 ms (its accept loop polls every
/// 5 ms), and a two-humped sample has no steady median of its own.
const SETUP_BATCH: usize = 8;

/// Times `w.setup_batches()` batches of set-ups. Set-ups are timed between
/// reps, not all at the start: a fabric set-up is two thread spawns and a
/// few wake-ups, and what a wake-up costs on a VM depends on how busy the
/// guest has just been (45 µs or 90 µs for the same set-up), so it has to be
/// taken in the conditions the reps run in.
fn time_setups(w: &Workload, into: &mut Vec<f64>) -> Result<(), String> {
    let rec = Recorder::new(false);
    for _ in 0..w.setup_batches() {
        let mut batch = 0.0;
        for _ in 0..SETUP_BATCH {
            batch += w.setup_once(&rec, ROOT)?;
        }
        into.push(batch / SETUP_BATCH as f64);
    }
    Ok(())
}

/// Set-up batches, one discarded warm-up rep, then measured reps, each
/// followed by more set-up batches, until `budget` has been measured (at
/// least `min_reps`), or exactly `fixed` reps.
fn run_reps(
    w: &Workload,
    seed: u64,
    budget: Duration,
    fixed: Option<usize>,
    min_reps: usize,
) -> Result<Reps, String> {
    let rec = Recorder::new(false);
    let mut out = Reps {
        peak_rss_mb: 0.0,
        setups: Vec::new(),
        reps: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    time_setups(w, &mut out.setups)?;
    let setup_s = median(&out.setups);
    // The first rep of a process pays page faults and cold caches (30 % on
    // bulk_mxn); on the socket workloads it also carries the nodes' own
    // cell-by-cell verification of every landed array.
    let warmup = w.rep(seed, setup_s, true, &rec, ROOT);
    out.absorb(&warmup);
    let t0 = Instant::now();
    loop {
        let done = out.reps.len();
        match fixed {
            Some(n) if done >= n => break,
            None if done >= min_reps && t0.elapsed() >= budget => break,
            _ => {}
        }
        if out.failed > 0 {
            break;
        }
        let rep = w.rep(seed, setup_s, false, &rec, ROOT);
        out.absorb(&rep);
        out.reps.push(rep);
        if out.reps.len() == RSS_AFTER_REPS {
            out.peak_rss_mb = peak_rss_mb();
        }
        time_setups(w, &mut out.setups)?;
    }
    if out.reps.len() < RSS_AFTER_REPS {
        out.peak_rss_mb = peak_rss_mb();
    }
    Ok(out)
}

// --- the timed pass ----------------------------------------------------------

pub fn timed(
    name: &str,
    seed: u64,
    seconds: f64,
    fixed: Option<usize>,
    knobs: Knobs,
) -> Result<Pass, String> {
    let started = Instant::now();
    let w = workloads::build(name, seed, knobs)?;
    let r = run_reps(&w, seed, Duration::from_secs_f64(seconds), fixed, 3)?;
    // In `END_TO_END` order.
    let values = [
        over_reps(&r.setups),
        r.per_rep(imports_per_s),
        r.per_rep(|x| x.import_us),
        r.per_rep(|x| x.export_us.p50_us),
        r.per_rep(|x| x.export_us.slow_mean_us),
        r.per_rep(|x| x.export_us.fast_mean_us),
        r.per_rep(payload_mb_per_s),
        OverReps::once(r.peak_rss_mb),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| Metric {
            name: m.name,
            unit: m.unit,
            value: v.median,
            reps: Some(v),
        })
        .collect();
    Ok(Pass {
        workload: name.to_string(),
        seed,
        traced: false,
        attempted: r.attempted,
        failed: r.failed,
        errors: r.errors,
        metrics,
        runtime_s: started.elapsed().as_secs_f64(),
    })
}

// --- the traced pass ---------------------------------------------------------

fn div(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The per-layer metrics one rep's own instrumentation gives: call times
/// the benchmark took and the run's counters normalised per import.
fn rep_metrics(rep: &RepOut, slow_rank: usize) -> BTreeMap<&'static str, f64> {
    let c = &rep.counters;
    let imports = rep.counted_imports.unwrap_or(rep.imports) as f64;
    let per_import = |name: &str| div(c.get(name) as f64, imports);
    let mut m = BTreeMap::new();

    m.insert("threaded.import_p99_us", rep.import.p99_us);
    m.insert("threaded.import_max_us", rep.import.max_us);
    m.insert("threaded.export_p99_us", rep.export.p99_us);
    m.insert(
        "bench.gate_wait_frac",
        div(rep.gate_wait_s, rep.exporter_drive_s),
    );

    let origin = c.sum_prefixed("ctrl_") as f64
        - (c.get("ctrl_batches") + c.get("ctrl_relay") + c.get("ctrl_coalesced")) as f64;
    let relay = c.get("ctrl_relay") as f64;
    m.insert("engine.ctrl_per_import", div(origin + relay, imports));
    m.insert("engine.ctrl_origin_per_import", div(origin, imports));
    m.insert("engine.ctrl_relay_per_import", div(relay, imports));
    m.insert("engine.transfers_per_import", per_import("transfers"));
    let ports = c.ports.first();
    let (paid, skipped) = match ports {
        Some(ranks) if c.fields.is_empty() => (
            ranks.iter().map(|p| p.memcpys).sum::<u64>() as f64,
            ranks.iter().map(|p| p.skips).sum::<u64>() as f64,
        ),
        _ => (c.get("memcpy_paid") as f64, c.get("memcpy_skipped") as f64),
    };
    m.insert("engine.memcpy_paid_frac", div(paid, paid + skipped));
    let slow = ports.and_then(|ranks| ranks.get(slow_rank));
    m.insert(
        "engine.slow_memcpy_per_import",
        div(slow.map_or(0, |p| p.memcpys) as f64, imports),
    );
    m.insert(
        "engine.unnecessary_in_region",
        ports.map_or(0, |ranks| {
            ranks.iter().map(|p| p.unnecessary_in_region).sum::<u64>()
        }) as f64,
    );
    m.insert(
        "engine.bytes_buffered_per_import",
        per_import("bytes_buffered"),
    );
    let hwm = ports.map_or(0, |ranks| {
        ranks.iter().map(|p| p.buffered_hwm).max().unwrap_or(0)
    });
    m.insert(
        "engine.buffered_hwm",
        (c.get("buffered_hwm").max(hwm)) as f64,
    );
    m.insert("engine.buffer_stalls", c.get("buffer_stalls") as f64);
    m.insert("engine.retransmits", c.get("retransmits") as f64);
    m.insert("engine.timeouts", c.get("timeouts") as f64);
    m.insert("engine.degraded_buffers", c.get("degraded_buffers") as f64);
    // Seconds the program's own phase spans cover, over the run's wall
    // (virtual over virtual on the simulator). Spans of parallel ranks add
    // up, so a share can exceed 1.
    let (phases, total) = match &rep.des {
        Some(d) => (c.phase_virtual_s, d.virtual_total_s),
        None => (c.phase_wall_s, rep.wall_s),
    };
    for (name, secs) in [
        "engine.phase_export_busy_frac",
        "engine.phase_import_busy_frac",
        "engine.phase_ctrl_busy_frac",
        "engine.phase_transfer_busy_frac",
    ]
    .into_iter()
    .zip(phases)
    {
        m.insert(name, div(secs, total));
    }

    m.insert(
        "threaded.tasks_polled_per_import",
        per_import("tasks_polled"),
    );
    m.insert("threaded.poll_batch_mean", c.poll_batch_mean);
    m.insert(
        "threaded.worker_steal_per_import",
        per_import("worker_steal"),
    );
    m.insert("threaded.runq_depth_hwm", c.get("runq_depth_hwm") as f64);
    m.insert("threaded.queue_depth_hwm", c.get("queue_depth_hwm") as f64);
    m.insert(
        "threaded.lock_wait_ns_per_import",
        per_import("lock_wait_ns"),
    );
    m.insert(
        "threaded.ctrl_batches_per_import",
        per_import("ctrl_batches"),
    );
    m.insert(
        "threaded.payload_allocs_per_import",
        per_import("payload_allocs"),
    );

    let frames = c.get("net_frames") as f64;
    m.insert("net.frames_per_import", div(frames, imports));
    m.insert("net.bytes_per_import", per_import("net_bytes"));
    let net_bytes = c.get("net_bytes") as f64;
    m.insert(
        "net.wire_overhead_frac",
        if net_bytes > 0.0 {
            (net_bytes - rep.bytes_landed as f64) / net_bytes
        } else {
            0.0
        },
    );
    m.insert(
        "net.syscalls_per_frame",
        div(c.get("net_syscalls") as f64, frames),
    );
    m.insert(
        "net.writev_frames_frac",
        div(c.get("net_writev_frames") as f64, frames),
    );
    let (hits, misses) = (
        c.get("net_pool_hits") as f64,
        c.get("net_pool_misses") as f64,
    );
    m.insert("net.pool_hit_frac", div(hits, hits + misses));
    m.insert("net.rx_buf_hwm_kb", c.get("net_rx_buf_hwm") as f64 / 1024.0);
    m.insert("net.codec_rejects", c.get("net_codec_rejects") as f64);
    m.insert("net.reconnects", c.get("net_reconnects") as f64);

    if let Some(d) = &rep.des {
        m.insert("des.optimal_entry_iter_u32", d.optimal_entry_u32);
        m.insert("des.optimal_entry_iter_u16", d.optimal_entry_u16);
        m.insert("des.memcpy_skipped_slow", d.memcpy_skipped_slow as f64);
        m.insert("des.ctrl_msgs", origin + relay);
        m.insert("des.virtual_ctrl_s", c.phase_virtual_s[2]);
        m.insert("des.virtual_transfer_s", c.phase_virtual_s[3]);
        m.insert("virtual_total_s", d.virtual_total_s);
        m.insert("virtual_export_slow_ms", d.virtual_export_slow_ms);
        m.insert("sim_wall_ms", d.sim_wall_ms);
    }
    m
}

fn slow_rank(w: &Workload) -> usize {
    match w {
        Workload::Fabric(f) => f.slow.1,
        Workload::Socket(s) => s.plan.procs - 1,
        Workload::Des(_) => crate::adapter::DesPanel::SLOW_RANK,
    }
}

pub fn traced(
    name: &str,
    seed: u64,
    seconds: f64,
    knobs: Knobs,
    results: &Path,
) -> Result<Pass, String> {
    let started = Instant::now();
    let w = workloads::build(name, seed, knobs)?;
    let slow = slow_rank(&w);

    // Untraced reps first: the reference the traced rep is compared with,
    // and the source of every number that is not a span or a replay.
    let mut r = run_reps(&w, seed, Duration::from_secs_f64(seconds * 0.3), None, 2)?;
    let setup_s = median(&r.setups);

    // One rep with the span recorder on.
    let rec = Recorder::new(true);
    let traced_rep = rec.within("workload", ROOT, |wid| match &w {
        Workload::Fabric(_) => w.rep(seed, setup_s, false, &rec, wid),
        _ => {
            rec.within("setup", wid, |sid| w.setup_once(&rec, sid)).ok();
            let rep = rec.within("run", wid, |rid| w.rep(seed, setup_s, false, &rec, rid));
            rec.within("teardown", wid, |_| ());
            rep
        }
    });
    r.absorb(&traced_rep);
    let spans = rec.take();
    std::fs::create_dir_all(results).map_err(|e| format!("creating {}: {e}", results.display()))?;
    let trace_path = trace_file(results, name);
    std::fs::write(&trace_path, trace::to_json(name, &spans))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    // Per-rep metrics, median over the untraced reps.
    let per_rep: Vec<BTreeMap<&'static str, f64>> =
        r.reps.iter().map(|rep| rep_metrics(rep, slow)).collect();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if let Some(first) = per_rep.first() {
        for key in first.keys() {
            let v: Vec<f64> = per_rep.iter().filter_map(|m| m.get(key).copied()).collect();
            values.insert(key, median(&v));
        }
    }

    // The layer replay at this workload's sizes, and the cost table.
    let shape = w.shape();
    let depth = values.get("engine.buffered_hwm").copied().unwrap_or(0.0) as usize;
    let node_bin = crate::adapter::node_bin();
    let costs = replay::layer_costs(&shape, depth, &results.join("tmp"), node_bin.as_deref())?;
    values.extend(costs.iter().map(|(k, v)| (*k, *v)));

    let untraced_ips = r.per_rep(imports_per_s);
    let import_us = r.per_rep(|x| x.import_us).median;
    let ctrl = match values.get("engine.ctrl_per_import").copied() {
        Some(c) if c > 0.0 => c,
        _ => 2.0 * (shape.exporter.1 + shape.importer.1) as f64 + 2.0,
    };
    let table = replay::cost_table(&shape, &costs, ctrl);
    let in_process: f64 = table
        .iter()
        .filter(|r| !replay::is_wire(r))
        .map(|r| r.us)
        .sum();
    let all: f64 = table.iter().map(|r| r.us).sum();
    values.insert("threaded.unattributed_us", import_us - in_process);
    values.insert("net.unattributed_us", import_us - all);
    values.insert(
        "bench.trace_overhead_frac",
        1.0 - div(imports_per_s(&traced_rep), untraced_ips.median),
    );
    values.insert("bench.rep_spread_frac", untraced_ips.spread_frac());
    values.insert("failed_frac", div(r.failed as f64, r.attempted as f64));

    eprint!("{}", render_table(name, import_us, &table, &spans));
    let metrics = PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            unit: m.unit,
            value: values.get(m.name).copied().unwrap_or(0.0),
            reps: None,
        })
        .collect();
    Ok(Pass {
        workload: name.to_string(),
        seed,
        traced: true,
        attempted: r.attempted,
        failed: r.failed,
        errors: r.errors,
        metrics,
        runtime_s: started.elapsed().as_secs_f64(),
    })
}

fn trace_file(results: &Path, workload: &str) -> PathBuf {
    results.join(format!("e2e_trace_{workload}.json"))
}

/// Folds the per-workload trace files of a full run into one
/// `e2e_trace.json`, keyed by workload.
pub fn merge_traces(results: &Path, names: &[&str]) -> Result<PathBuf, String> {
    let mut out = String::from("{");
    for (i, name) in names.iter().enumerate() {
        let path = trace_file(results, name);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let _ = write!(out, "{}\"{name}\":{text}", if i > 0 { "," } else { "" });
    }
    out.push('}');
    let merged = results.join("e2e_trace.json");
    std::fs::write(&merged, out).map_err(|e| format!("writing {}: {e}", merged.display()))?;
    Ok(merged)
}

// --- text --------------------------------------------------------------------

fn render_table(name: &str, import_us: f64, rows: &[Row], spans: &[trace::Span]) -> String {
    let mut out = format!("\n{name}: per-import cost table (replayed layer costs × calls on one import's blocking path)\n");
    let _ = writeln!(
        out,
        "  {:<36} {:>12} {:>14} {:>12}",
        "layer", "per import", "unit cost us", "us"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "  {:<36} {:>12.1} {:>14.6} {:>12.3}",
            r.layer, r.per_import, r.unit_cost_us, r.us
        );
    }
    let attributed: f64 = rows.iter().map(|r| r.us).sum();
    let _ = writeln!(
        out,
        "  {:<36} {:>12} {:>14} {:>12.3}",
        "unattributed",
        "",
        "",
        import_us - attributed
    );
    let _ = writeln!(
        out,
        "  {:<36} {:>12} {:>14} {:>12.3}",
        "= time of one import", "", "", import_us
    );
    let _ = writeln!(out, "  spans: name count total_s self_s");
    for (span, t) in trace::self_times(spans) {
        let _ = writeln!(
            out,
            "    {span:<24} {:>8} {:>12.6} {:>12.6}",
            t.count, t.total_s, t.self_s
        );
    }
    out
}

/// One pass, every metric by name with its unit.
pub fn render(pass: &Pass) -> String {
    let mut out = format!(
        "\n{} · seed {} · {} pass · {:.1} s · {} of {} failed\n",
        pass.workload,
        pass.seed,
        if pass.traced { "traced" } else { "timed" },
        pass.runtime_s,
        pass.failed,
        pass.attempted
    );
    for m in &pass.metrics {
        let _ = write!(out, "  {:<36} {:>16.6} {:<7}", m.name, m.value, m.unit);
        if let Some(r) = m.reps.filter(|r| r.reps > 1) {
            let _ = write!(
                out,
                " min {:.6} q1 {:.6} q3 {:.6} max {:.6} over {} reps",
                r.min, r.q1, r.q3, r.max, r.reps
            );
        }
        out.push('\n');
    }
    for e in &pass.errors {
        let _ = writeln!(out, "  ! {e}");
    }
    out
}

/// The end-to-end metrics of a full run, one row per workload.
pub fn summary(passes: &[Pass]) -> String {
    let mut out = String::from("\n| workload |");
    for m in END_TO_END {
        let _ = write!(out, " {} ({}) |", m.name, m.unit);
    }
    out.push_str(" runtime (s) |\n|---|");
    out.push_str(&"---|".repeat(END_TO_END.len() + 1));
    out.push('\n');
    for p in passes.iter().filter(|p| !p.traced) {
        let _ = write!(out, "| {} |", p.workload);
        for m in END_TO_END {
            let _ = write!(out, " {:.6} |", p.value(m.name).unwrap_or(0.0));
        }
        let _ = writeln!(out, " {:.1} |", p.runtime_s);
    }
    out
}
