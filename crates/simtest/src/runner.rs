//! Runs one scenario on each runtime and applies the oracles.

use crate::scenario::{Scenario, GRID};
use couplink_layout::{Decomposition, Extent2, LocalArray};
use couplink_metrics::{CounterSnapshot, EXACT};
use couplink_proto::{ConnectionId, CtrlMsg, Rank, RequestId, Trace};
use couplink_runtime::cost::CostModel;
use couplink_runtime::engine::oracle::{
    check_buffer_safety, check_collective_order, check_ctrl_scaling, check_fault_free,
    check_liveness, check_metric_consistency, check_runtime_equivalence, owed_matches,
    OracleViolation,
};
use couplink_runtime::engine::{Endpoint, Topology};
use couplink_runtime::net::{
    run_plan, ExportSpec, ImportSpec, KillSpec, NetOptions, NodeFault, NodePlan, SocketBackend,
};
use couplink_runtime::{
    session_task_count, ChaosConfig, ExportSchedule, Fabric, FabricOptions, ImportSchedule,
    RetryPolicy, TopoReport, TopologyConfig, TopologySim,
};
use couplink_time::{ts, MatchPolicy, Timestamp, Tolerance};
use std::path::PathBuf;
use std::time::Duration;

/// Wall-seconds of sleep per virtual compute second in the threaded run —
/// enough to skew thread interleavings, small enough for large seed
/// corpora.
const THREADED_TIME_SCALE: f64 = 0.2;

/// Per-connection match decisions, indexed by `ConnectionId`.
pub type Matches = Vec<Vec<Option<Timestamp>>>;

/// The deliberately unsound protocol rules the harness can arm. Each is a
/// plausible-looking "optimization" whose unsoundness only an external
/// oracle can witness — running both proves the oracles have teeth from two
/// independent angles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// [`couplink_proto::ExportPort::set_unsound_help_skip`]: an export
    /// equal to a known buddy-help match is skipped instead of sent.
    HelpSkip,
    /// [`couplink_proto::ExportPort::set_unsound_stale_skip`]: a buddy-help
    /// announcement whose match was already exported locally is dropped
    /// without sending the piece.
    StaleSkip,
    /// [`TopologySim::arm_relay_drop`] / [`Fabric::arm_relay_drop`]: a
    /// hierarchical relay rank silently drops the coalesced answer
    /// broadcast on one subtree edge, starving every rank below it. The
    /// drop lives in the engine's import node, so it is armed — and must be
    /// caught — on the simulator and on the threaded fabric alike.
    RelayDrop,
    /// [`Fabric::arm_ack_before_handle`]: the armed fabric applies an
    /// in-process sender's acks before the receiving handler has sent
    /// what it owes, so the shutdown drain can see "nothing pending"
    /// mid-handler and stop. Fabric-only, and a race no seeded scenario
    /// hits: it is caught by repeating [`armed_shutdown_probe`].
    AckBeforeHandle,
}

impl Mutation {
    /// Every mutation, for sweeps.
    pub const ALL: [Mutation; 4] = [
        Mutation::HelpSkip,
        Mutation::StaleSkip,
        Mutation::RelayDrop,
        Mutation::AckBeforeHandle,
    ];

    /// Short CLI/reporting name.
    pub fn as_str(self) -> &'static str {
        match self {
            Mutation::HelpSkip => "help-skip",
            Mutation::StaleSkip => "stale-skip",
            Mutation::RelayDrop => "relay-drop",
            Mutation::AckBeforeHandle => "ack-before-handle",
        }
    }

    /// Whether this violation is the kind of failure the armed mutation is
    /// expected to produce. The export-side skips discard owed data
    /// (buffer safety); a dropped relay edge starves a subtree outright
    /// (liveness — the stranded ranks never complete — or buffer safety
    /// when the missing broadcast surfaces as an unsent match first).
    pub fn is_expected_catch(self, v: &OracleViolation) -> bool {
        match self {
            Mutation::HelpSkip | Mutation::StaleSkip => {
                matches!(v, OracleViolation::BufferSafety { .. })
            }
            Mutation::RelayDrop => matches!(
                v,
                OracleViolation::BufferSafety { .. } | OracleViolation::Liveness { .. }
            ),
            Mutation::AckBeforeHandle => matches!(v, OracleViolation::Liveness { .. }),
        }
    }
}

/// Extra knobs for [`run_des`] beyond the scenario itself, used by the
/// negative and degradation tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct DesTweaks {
    /// Arm one of the deliberately unsound rules.
    pub mutate: Option<Mutation>,
    /// Permanently lose every buddy-help announcement (degradation mode).
    pub drop_buddy_help: bool,
    /// Override the reliability layer's retry policy (e.g. `retransmit:
    /// false` for the no-recovery negative test).
    pub retry: Option<RetryPolicy>,
}

/// Whether the scenario's fault plan contains only transient chaos (or no
/// chaos at all) — i.e. the reliability machinery must stay inert and the
/// [`check_fault_free`] oracle applies.
fn permanent_fault_free(s: &Scenario) -> bool {
    s.chaos.is_none_or(|c| !c.needs_reliability())
}

/// Applies the trace oracles (collective order, buffer safety) to one
/// run's traces, grouped per connection across the exporter's ranks.
fn trace_oracles(
    view: &Topology,
    traces: &[(usize, usize, ConnectionId, Trace)],
    out: &mut Vec<OracleViolation>,
) {
    for ct in &view.conns {
        let procs = view.programs[ct.exporter_prog].procs;
        let mut ranked = Vec::with_capacity(procs);
        for rank in 0..procs {
            match traces
                .iter()
                .find(|(p, r, c, _)| *p == ct.exporter_prog && *r == rank && *c == ct.id)
            {
                Some((_, _, _, trace)) => ranked.push(trace.clone()),
                None => {
                    out.push(OracleViolation::CollectiveOrder {
                        conn: ct.id,
                        detail: format!("no trace recorded for exporter rank {rank}"),
                    });
                    return;
                }
            }
        }
        if let Err(v) = check_collective_order(ct.id, &ranked) {
            out.push(v);
        }
        for trace in &ranked {
            if let Err(v) = check_buffer_safety(ct.id, ct.policy, ct.tolerance, trace) {
                out.push(v);
                break; // one report per connection is enough
            }
        }
    }
}

/// Applies the metric-consistency oracle to one run: replays each
/// connection's rank-0 trace to recover the ground-truth owed-match count
/// and cross-checks it against the runtime's counter snapshot (memcpy
/// conservation, transfers = Σ owed × exporter procs). Property 1 makes
/// rank 0's trace representative of every rank.
fn metric_oracle(
    view: &Topology,
    traces: &[(usize, usize, ConnectionId, Trace)],
    counters: &CounterSnapshot,
    out: &mut Vec<OracleViolation>,
) {
    let mut owed = Vec::with_capacity(view.conns.len());
    for ct in &view.conns {
        let Some((_, _, _, trace)) = traces
            .iter()
            .find(|(p, r, c, _)| *p == ct.exporter_prog && *r == 0 && *c == ct.id)
        else {
            // trace_oracles already reports the missing trace.
            return;
        };
        match owed_matches(ct.id, ct.policy, ct.tolerance, trace) {
            Ok(n) => owed.push((ct.id, n, view.programs[ct.exporter_prog].procs)),
            Err(v) => {
                out.push(v);
                return;
            }
        }
    }
    if let Err(v) = check_metric_consistency(counters, &owed) {
        out.push(v);
    }
}

/// Applies the control-scaling oracle ([`check_ctrl_scaling`]) to one
/// run's counters. Only meaningful on hierarchical runs with no chaos at
/// all: message duplication legally inflates the relay counters, so the
/// exact tree conservation laws hold only on undisturbed runs. The
/// per-connection collective count is the importer's schedule length —
/// on a clean run every scheduled import aggregates into exactly one
/// request (anything less already fails the liveness oracle).
fn scaling_oracle(
    s: &Scenario,
    view: &Topology,
    counters: &CounterSnapshot,
    out: &mut Vec<OracleViolation>,
) {
    if !s.hierarchical || s.chaos.is_some() {
        return;
    }
    let conns: Vec<(ConnectionId, usize, usize, usize)> = view
        .conns
        .iter()
        .map(|ct| {
            (
                ct.id,
                s.importers[ct.importer_prog - s.exporters.len()].count,
                view.programs[ct.exporter_prog].procs,
                view.programs[ct.importer_prog].procs,
            )
        })
        .collect();
    if let Err(v) = check_ctrl_scaling(counters, &conns, s.buddy_help) {
        out.push(v);
    }
}

/// Runs the scenario on the discrete-event simulator and checks the
/// single-runtime oracles; also returns the run's counter snapshot so
/// callers can assert on fault metrics (failovers, degraded buffers).
///
/// `Err` means the harness itself failed (invalid generated input), not
/// that an oracle fired.
pub fn run_des(
    s: &Scenario,
    tweaks: DesTweaks,
) -> Result<(Matches, CounterSnapshot, Vec<OracleViolation>), String> {
    let topology = s.build_topology()?;
    let view = topology.clone();
    let cfg = TopologyConfig {
        topology,
        exports: s
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
            })
            .collect(),
        imports: s
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
            })
            .collect(),
        buddy_help: s.buddy_help,
        hierarchical: s.hierarchical,
        cost: CostModel::default(),
        buffer_capacity: None,
    };
    let mut sim = TopologySim::new(cfg).map_err(|e| format!("building simulator: {e}"))?;
    for ct in &view.conns {
        let name = &view.programs[ct.exporter_prog].name;
        for rank in 0..view.programs[ct.exporter_prog].procs {
            sim.trace(name, rank, ct.id)
                .map_err(|e| format!("arming trace: {e}"))?;
        }
    }
    if let Some(chaos) = s.chaos {
        sim.chaos(chaos);
    }
    if tweaks.drop_buddy_help {
        sim.drop_buddy_help();
    }
    if let Some(policy) = tweaks.retry {
        sim.set_retry_policy(policy);
    }
    match tweaks.mutate {
        Some(Mutation::HelpSkip) => sim.arm_unsound_help_skip(),
        Some(Mutation::StaleSkip) => sim.arm_unsound_stale_skip(),
        Some(Mutation::RelayDrop) => sim.arm_relay_drop(),
        // A fabric-only rule: the simulator charges its acks explicitly.
        Some(Mutation::AckBeforeHandle) | None => {}
    }
    let report = sim.run().map_err(|e| format!("simulator run: {e}"))?;
    let mut violations = Vec::new();
    des_liveness(s, &view, &report, &mut violations);
    let traces: Vec<(usize, usize, ConnectionId, Trace)> = report
        .traces
        .iter()
        .map(|(name, rank, conn, trace)| {
            let prog = view.program_idx(name).expect("trace program exists");
            (prog, *rank, *conn, trace.clone())
        })
        .collect();
    trace_oracles(&view, &traces, &mut violations);
    metric_oracle(&view, &traces, &report.metrics.counters, &mut violations);
    if permanent_fault_free(s) && !tweaks.drop_buddy_help {
        if let Err(v) = check_fault_free(&report.metrics.counters) {
            violations.push(v);
        }
    }
    if !tweaks.drop_buddy_help {
        scaling_oracle(s, &view, &report.metrics.counters, &mut violations);
    }
    Ok((report.matches, report.metrics.counters.clone(), violations))
}

/// Runs the scenario on the discrete-event simulator and checks the
/// single-runtime oracles. With `mutate`, arms one of the deliberately
/// unsound rules first (the oracles are then *expected* to fire).
pub fn check_des(
    s: &Scenario,
    mutate: Option<Mutation>,
) -> Result<(Matches, Vec<OracleViolation>), String> {
    let (matches, _, violations) = run_des(
        s,
        DesTweaks {
            mutate,
            ..DesTweaks::default()
        },
    )?;
    Ok((matches, violations))
}

fn des_liveness(
    s: &Scenario,
    view: &Topology,
    report: &TopoReport,
    out: &mut Vec<OracleViolation>,
) {
    for (j, imp) in s.importers.iter().enumerate() {
        let conn = view.programs[s.importer_prog(j)].imports[0].conn;
        let resolved = report.matches[conn.0 as usize].len();
        let done = report.import_done[j].iter().all(|&it| it == imp.count);
        if let Err(v) = check_liveness(conn, imp.count, resolved, done) {
            out.push(v);
        }
    }
}

/// Runs the scenario on the threaded fabric (real threads, real channels,
/// real memcpys) and checks the single-runtime oracles. Returns the
/// counter snapshot too (`None` when shutdown failed before reporting),
/// and accepts the degradation knob for the buddy-help-loss tests and the
/// relay-drop mutation (the one deliberately unsound rule that lives in the
/// engine's nodes rather than the export ports).
pub fn run_threaded(
    s: &Scenario,
    drop_buddy_help: bool,
    relay_drop: bool,
) -> Result<(Matches, Option<CounterSnapshot>, Vec<OracleViolation>), String> {
    let topology = s.build_topology()?;
    let view = topology.clone();
    let mut trace_list = Vec::new();
    for ct in &view.conns {
        for rank in 0..view.programs[ct.exporter_prog].procs {
            trace_list.push((ct.exporter_prog, rank, ct.id));
        }
    }
    let opts = FabricOptions {
        buddy_help: s.buddy_help,
        import_timeout: Duration::from_secs(5),
        buffer_capacity: None,
        traces: trace_list,
        chaos: s.chaos,
        drop_buddy_help,
        hierarchical: s.hierarchical,
        wal: None,
    };
    // Executor invariant: a task is enqueued at most once, so the session's
    // run-queue depth can never exceed its task count — mailbox backlog
    // under pressure must not leak into unbounded run-queue growth.
    let task_budget = session_task_count(&topology, &opts) as u64;
    let mut fabric = Fabric::new(topology, opts);
    if relay_drop {
        fabric.arm_relay_drop();
    }

    let mut exp_threads = Vec::new();
    for (i, e) in s.exporters.iter().enumerate() {
        let prog = s.exporter_prog(i);
        for rank in 0..e.procs {
            let mut h = fabric.take_export(prog, rank, 0);
            let owned = view.programs[prog].exports[0].decomp.owned(rank);
            let (t0, dt, count, compute) = (e.t0, e.dt, e.count, e.compute[rank]);
            exp_threads.push((
                i,
                std::thread::spawn(move || -> Result<(), String> {
                    let data = LocalArray::zeros(owned);
                    for k in 0..count {
                        if compute > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(
                                compute * THREADED_TIME_SCALE,
                            ));
                        }
                        h.export(ts(t0 + k as f64 * dt), &data)
                            .map_err(|e| e.to_string())?;
                    }
                    Ok(())
                }),
            ));
        }
    }
    let mut imp_threads = Vec::new();
    for (j, imp) in s.importers.iter().enumerate() {
        let prog = s.importer_prog(j);
        for rank in 0..imp.procs {
            let mut h = fabric.take_import(prog, rank, 0);
            let owned = view.programs[prog].imports[0].decomp.owned(rank);
            let (t0, dt, count, compute, startup) =
                (imp.t0, imp.dt, imp.count, imp.compute, imp.startup);
            imp_threads.push((
                j,
                rank,
                std::thread::spawn(move || -> Result<Vec<Option<Timestamp>>, String> {
                    std::thread::sleep(Duration::from_secs_f64(startup * THREADED_TIME_SCALE));
                    let mut got = Vec::with_capacity(count);
                    let mut dest = LocalArray::zeros(owned);
                    for k in 0..count {
                        if compute > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(
                                compute * THREADED_TIME_SCALE,
                            ));
                        }
                        got.push(
                            h.import(ts(t0 + k as f64 * dt), &mut dest)
                                .map_err(|e| e.to_string())?,
                        );
                    }
                    Ok(got)
                }),
            ));
        }
    }

    let mut violations = Vec::new();
    for (i, t) in exp_threads {
        if let Err(e) = t.join().expect("exporter thread panicked") {
            let conn = view.programs[s.exporter_prog(i)].exports[0].conns[0];
            violations.push(OracleViolation::Liveness {
                conn,
                detail: format!("exporter E{i} failed: {e}"),
            });
        }
    }
    let mut matches: Matches = vec![Vec::new(); view.conns.len()];
    for (j, rank, t) in imp_threads {
        let conn = view.programs[s.importer_prog(j)].imports[0].conn;
        match t.join().expect("importer thread panicked") {
            Ok(got) => {
                if let Err(v) = check_liveness(conn, s.importers[j].count, got.len(), true) {
                    violations.push(v);
                }
                if rank == 0 {
                    matches[conn.0 as usize] = got;
                }
            }
            Err(e) => violations.push(OracleViolation::Liveness {
                conn,
                detail: format!("importer I{j} rank {rank} failed: {e}"),
            }),
        }
    }
    let mut counters = None;
    match fabric.shutdown() {
        Ok(report) => {
            trace_oracles(&view, &report.traces, &mut violations);
            metric_oracle(
                &view,
                &report.traces,
                &report.metrics.counters,
                &mut violations,
            );
            if permanent_fault_free(s) && !drop_buddy_help {
                if let Err(v) = check_fault_free(&report.metrics.counters) {
                    violations.push(v);
                }
            }
            if !drop_buddy_help {
                scaling_oracle(s, &view, &report.metrics.counters, &mut violations);
            }
            if report.metrics.counters.runq_depth_hwm > task_budget {
                violations.push(OracleViolation::MetricConsistency {
                    conn: ConnectionId(0),
                    detail: format!(
                        "run-queue depth HWM {} exceeds the session's {} tasks \
                         (a task was enqueued more than once)",
                        report.metrics.counters.runq_depth_hwm, task_budget
                    ),
                });
            }
            counters = Some(report.metrics.counters.clone());
        }
        Err(e) => violations.push(OracleViolation::CollectiveOrder {
            conn: ConnectionId(0),
            detail: format!("fabric shutdown reported: {e}"),
        }),
    }
    Ok((matches, counters, violations))
}

/// Runs the scenario on the threaded fabric and checks the single-runtime
/// oracles (fault-injection as configured by the scenario, no degradation).
pub fn check_threaded(s: &Scenario) -> Result<(Matches, Vec<OracleViolation>), String> {
    let (matches, _, violations) = run_threaded(s, false, false)?;
    Ok((matches, violations))
}

/// Builds the socket runtime's plan for a scenario: same config text, same
/// grid, same schedules and chaos as the in-process runtimes, plus value
/// verification (exporters fill a deterministic per-cell pattern; importers
/// check every transferred cell bit-exactly).
pub fn socket_plan(s: &Scenario) -> Result<NodePlan, String> {
    let view = s.build_topology()?;
    let exports = s
        .exporters
        .iter()
        .enumerate()
        .map(|(i, e)| ExportSpec {
            program: format!("E{i}"),
            region: 0,
            t0: e.t0,
            dt: e.dt,
            count: e.count,
            compute: e.compute.clone(),
        })
        .collect();
    let imports = s
        .importers
        .iter()
        .enumerate()
        .map(|(j, imp)| ImportSpec {
            program: format!("I{j}"),
            region: 0,
            t0: imp.t0,
            dt: imp.dt,
            count: imp.count,
            compute: imp.compute,
            startup: imp.startup,
        })
        .collect();
    // Trace every exporter rank on every connection, exactly as the
    // threaded run does.
    let traces = view
        .conns
        .iter()
        .flat_map(|ct| {
            (0..view.programs[ct.exporter_prog].procs)
                .map(move |rank| (ct.exporter_prog, rank, ct.id.0))
        })
        .collect();
    Ok(NodePlan {
        config_text: s.config_text(),
        grid: GRID,
        exports,
        imports,
        buddy_help: s.buddy_help,
        import_timeout_s: 5.0,
        time_scale: THREADED_TIME_SCALE,
        verify_values: true,
        traces,
        chaos: s.chaos,
        fault: None,
        hierarchical: s.hierarchical,
        wal_dir: None,
        restart: false,
    })
}

/// Locates the `couplink-node` binary the socket runs need; `None` means
/// socket scenarios cannot run in this invocation (callers should skip,
/// the workspace test run always builds it).
pub fn socket_node_bin() -> Option<PathBuf> {
    couplink_runtime::net::default_node_bin()
}

/// Runs the scenario on the socket runtime — every program its own OS
/// process, coupled over loopback sockets — and checks the single-runtime
/// oracles. With `drop_answers`, one node's inbound codec silently
/// discards collective-answer frames on connection 0 (the ci negative:
/// the liveness oracle must fire).
pub fn run_socket(
    s: &Scenario,
    backend: SocketBackend,
    drop_answers: bool,
) -> Result<(Matches, Option<CounterSnapshot>, Vec<OracleViolation>), String> {
    let Some(node_bin) = socket_node_bin() else {
        return Err("couplink-node binary not found (set COUPLINK_NODE_BIN)".into());
    };
    let view = s.build_topology()?;
    let mut plan = socket_plan(s)?;
    if drop_answers {
        plan.fault = Some(NodeFault::DropAnswers { conn: 0 });
    }
    let opts = NetOptions {
        backend,
        ..NetOptions::new(node_bin)
    };
    let rep = run_plan(&plan, &opts).map_err(|e| format!("socket bootstrap: {e}"))?;

    let mut violations = Vec::new();
    socket_liveness(s, &view, &rep, &mut violations);

    let clean_run = rep.crashed.is_empty() && rep.shutdown_errors.is_empty();
    let mut counters = None;
    if clean_run {
        trace_oracles(&view, &rep.traces, &mut violations);
        metric_oracle(&view, &rep.traces, &rep.counters, &mut violations);
        if permanent_fault_free(s) {
            if let Err(v) = check_fault_free(&rep.counters) {
                violations.push(v);
            }
        }
        if !drop_answers {
            scaling_oracle(s, &view, &rep.counters, &mut violations);
        }
        // The nodes pace their exporters: no port may ever have held more
        // than its node's plan-derived capacity.
        for ct in &view.conns {
            let cap = plan.export_capacity(&view, ct.exporter_prog);
            let ranks = rep.stats.get(ct.id.0 as usize).into_iter().flatten();
            if let Some(hwm) = ranks.map(|st| st.buffered_hwm).find(|&h| h > cap) {
                violations.push(OracleViolation::MetricConsistency {
                    conn: ct.id,
                    detail: format!("an export port held {hwm} objects, over its capacity {cap}"),
                });
            }
        }
        // Socket-specific sanity: traffic really crossed sockets, and the
        // codec rejected nothing on a healthy loopback.
        if rep.counters.net_frames == 0 {
            violations.push(OracleViolation::MetricConsistency {
                conn: ConnectionId(0),
                detail: "no frames crossed the socket transport".into(),
            });
        }
        // Tx/rx conservation: every frame any writer metered must have
        // been read and metered by the peer it was written to — the
        // merged rx sums equal the merged tx sums. Only provable when no
        // link ever degraded: a reconnect replays salvage (double-count),
        // loss/timeouts mean frames died with a link, and a stalled
        // reader never consumes. All of those leave fingerprints in the
        // merged counters, so the run self-selects.
        let c = &rep.counters;
        let healthy = c.net_reconnects == 0
            && c.net_codec_rejects == 0
            && c.retransmits == 0
            && c.timeouts == 0;
        if healthy && (c.net_rx_frames != c.net_frames || c.net_rx_bytes != c.net_bytes) {
            violations.push(OracleViolation::MetricConsistency {
                conn: ConnectionId(0),
                detail: format!(
                    "tx/rx conservation broken: sent {} frames / {} bytes, \
                     received {} frames / {} bytes",
                    c.net_frames, c.net_bytes, c.net_rx_frames, c.net_rx_bytes
                ),
            });
        }
        counters = Some(rep.counters);
    }
    Ok((rep.matches, counters, violations))
}

/// The application-level outcome checks shared by every socket run:
/// nobody silently dead, no exporter/importer/shutdown failures, every
/// scheduled import completed.
fn socket_liveness(
    s: &Scenario,
    view: &Topology,
    rep: &couplink_runtime::net::NetReport,
    violations: &mut Vec<OracleViolation>,
) {
    for &prog in &rep.crashed {
        let conn = conn_of_program(view, prog);
        violations.push(OracleViolation::Liveness {
            conn,
            detail: format!("program {prog} exited without reporting"),
        });
    }
    for (prog, rank, e) in &rep.export_errors {
        let conn = conn_of_program(view, *prog);
        violations.push(OracleViolation::Liveness {
            conn,
            detail: format!("exporter program {prog} rank {rank} failed: {e}"),
        });
    }
    for (prog, rank, done, err) in &rep.imports_done {
        let conn = view.programs[*prog].imports[0].conn;
        let count = s.importers[*prog - s.exporters.len()].count;
        match err {
            Some(e) => violations.push(OracleViolation::Liveness {
                conn,
                detail: format!("importer program {prog} rank {rank} failed: {e}"),
            }),
            None => {
                if let Err(v) = check_liveness(conn, count, *done as usize, true) {
                    violations.push(v);
                }
            }
        }
    }
    for (prog, e) in &rep.shutdown_errors {
        violations.push(OracleViolation::CollectiveOrder {
            conn: ConnectionId(0),
            detail: format!("program {prog} fabric shutdown reported: {e}"),
        });
    }
}

fn conn_of_program(view: &Topology, prog: usize) -> ConnectionId {
    view.conns
        .iter()
        .find(|ct| ct.exporter_prog == prog || ct.importer_prog == prog)
        .map(|ct| ct.id)
        .unwrap_or(ConnectionId(0))
}

/// The socket-transport fault classes behind `--net-faults`: SIGKILL +
/// restart-from-journal of the first exporter (`kill`), or a mid-run
/// link sever with re-dial (`!kill`). With `corrupt_wal`, a byte of the
/// victim's journal is flipped before the restart and the run is
/// *expected to fail* — the caller asserts on the error text.
///
/// The scenario is reshaped so the fault lands mid-session: importers are
/// lagged ([`Scenario::lag_importers`]) and schedules slowed until the
/// victim's peers are still importing when it goes down and its paced
/// exporters are stalling, every node gets a durable journal (which also
/// arms reconnect), and a
/// mild transient loss keeps the reliability pump honest during the
/// outage. Fault runs check application liveness and the trace oracles;
/// the conservation-law oracles (metric consistency, ctrl scaling,
/// fault-free inertness) do not apply when a process loses and replays
/// state mid-run. On success, the fault must also have been *real*:
/// `net_reconnects ≥ 1`, plus `wal_replayed ≥ 1` for the kill class.
pub fn run_net_fault(
    s: &Scenario,
    backend: SocketBackend,
    kill: bool,
    corrupt_wal: bool,
) -> Result<Vec<OracleViolation>, String> {
    let Some(node_bin) = socket_node_bin() else {
        return Err("couplink-node binary not found (set COUPLINK_NODE_BIN)".into());
    };
    let mut s = s.clone();
    s.lag_importers();
    s.chaos = Some(ChaosConfig {
        seed: 13,
        max_delay: 0.0,
        duplicate_prob: 0.0,
        drop_prob: 0.0,
        retry_delay: 0.004,
        loss_prob: 0.05,
        crash: None,
    });
    for e in &mut s.exporters {
        for c in &mut e.compute {
            *c = c.max(0.2);
        }
    }
    for imp in &mut s.importers {
        imp.compute = imp.compute.max(0.5);
    }

    let view = s.build_topology()?;
    let mut plan = socket_plan(&s)?;
    // Generous import budget: it must absorb the full re-dial backoff
    // (or the kill-to-rejoin window) without a spurious timeout.
    plan.import_timeout_s = 30.0;
    if !kill {
        let peer = view
            .conns
            .iter()
            .find(|ct| ct.exporter_prog == 0)
            .map(|ct| ct.importer_prog)
            .ok_or("program 0 exports on no connection")?;
        plan.fault = Some(NodeFault::SeverLink {
            prog: 0,
            peer,
            after_tx: 5,
        });
    }
    let opts = NetOptions {
        backend,
        durable: true,
        kill_restart: kill.then_some(KillSpec {
            prog: 0,
            corrupt_wal,
        }),
        ..NetOptions::new(node_bin)
    };
    let rep = run_plan(&plan, &opts).map_err(|e| format!("socket bootstrap: {e}"))?;

    let mut violations = Vec::new();
    socket_liveness(&s, &view, &rep, &mut violations);
    if rep.crashed.is_empty() && rep.shutdown_errors.is_empty() {
        trace_oracles(&view, &rep.traces, &mut violations);
    }
    if rep.counters.net_reconnects == 0 {
        violations.push(OracleViolation::MetricConsistency {
            conn: ConnectionId(0),
            detail: "fault run recorded no reconnects — the fault was vacuous".into(),
        });
    }
    if kill && rep.counters.wal_replayed == 0 {
        violations.push(OracleViolation::MetricConsistency {
            conn: ConnectionId(0),
            detail: "restarted node replayed nothing from its journal".into(),
        });
    }
    Ok(violations)
}

/// Runs the scenario on the socket runtime and checks the single-runtime
/// oracles.
pub fn check_socket(
    s: &Scenario,
    backend: SocketBackend,
) -> Result<(Matches, Vec<OracleViolation>), String> {
    let (matches, _, violations) = run_socket(s, backend, false)?;
    Ok((matches, violations))
}

/// Cross-runtime counter equivalence for fault-free runs: the socket
/// processes' *summed* snapshots must agree with the threaded run on every
/// counter the metrics table flags `exact` — those whose value is
/// determined by the (already equal) match decisions: calls, transfers, and
/// the control classes with one message per import call / request / decided
/// answer / per-rank forward or broadcast (`Response` updates and
/// `BuddyHelp` depend on response timing and are not). This is the
/// acceptance bar for "same engine, different transport" — the wire moved
/// the messages without inventing or losing any.
pub fn check_counter_equivalence(
    threaded: &CounterSnapshot,
    socket: &CounterSnapshot,
    out: &mut Vec<OracleViolation>,
) {
    let exact = CounterSnapshot::flagged(EXACT);
    for ((name, a), (_, b)) in threaded.fields().into_iter().zip(socket.fields()) {
        if a != b && exact.contains(&name) {
            out.push(OracleViolation::MetricConsistency {
                conn: ConnectionId(0),
                detail: format!("{name} differs across transports: threaded {a}, socket {b}"),
            });
        }
    }
}

/// Runs the scenario on all three runtimes — simulator, threaded fabric,
/// socket processes — and checks every oracle including cross-runtime
/// equivalence of match decisions (all pairs) and, on fault-free runs,
/// of the deterministic protocol counters (threaded vs socket). The
/// importers are lagged first ([`Scenario::lag_importers`]), so the socket
/// nodes' bounded exporters stall while the threaded run's unbounded ones
/// never do: the equivalence checks then show that a bounded exporter
/// decides exactly what an unbounded one does.
pub fn check_scenario_socket(
    s: &Scenario,
    backend: SocketBackend,
) -> Result<Vec<OracleViolation>, String> {
    let mut lagged = s.clone();
    lagged.lag_importers();
    let s = &lagged;
    let (des_matches, mut violations) = check_des(s, None)?;
    let (thr_matches, thr_counters, thr_violations) = run_threaded(s, false, false)?;
    violations.extend(thr_violations);
    let (sock_matches, sock_counters, sock_violations) = run_socket(s, backend, false)?;
    violations.extend(sock_violations);
    for conn in 0..des_matches.len().min(sock_matches.len()) {
        if let Err(v) = check_runtime_equivalence(
            ConnectionId(conn as u32),
            &des_matches[conn],
            &sock_matches[conn],
        ) {
            violations.push(v);
        }
    }
    for conn in 0..des_matches.len().min(thr_matches.len()) {
        if let Err(v) = check_runtime_equivalence(
            ConnectionId(conn as u32),
            &des_matches[conn],
            &thr_matches[conn],
        ) {
            violations.push(v);
        }
    }
    if permanent_fault_free(s) {
        if let (Some(t), Some(k)) = (&thr_counters, &sock_counters) {
            check_counter_equivalence(t, k, &mut violations);
        }
    }
    Ok(violations)
}

/// Runs the scenario on both runtimes, checks every oracle including
/// runtime equivalence, and returns all violations (empty = pass).
pub fn check_scenario(s: &Scenario) -> Result<Vec<OracleViolation>, String> {
    let (des_matches, mut violations) = check_des(s, None)?;
    let (thr_matches, thr_violations) = check_threaded(s)?;
    violations.extend(thr_violations);
    for conn in 0..des_matches.len().min(thr_matches.len()) {
        if let Err(v) = check_runtime_equivalence(
            ConnectionId(conn as u32),
            &des_matches[conn],
            &thr_matches[conn],
        ) {
            violations.push(v);
        }
    }
    Ok(violations)
}

/// The armed-shutdown probe behind [`Mutation::AckBeforeHandle`]: one
/// import on a lossy 1×1 pair whose `ImportRequest` and `ForwardRequest`
/// each lose their first copy, and whose import call gives up before
/// either is retransmitted, so only the shutdown drain delivers them. A
/// drain that stops while the `ForwardRequest` is still owed leaves the
/// exporter without the request: a liveness violation.
pub fn armed_shutdown_probe(ack_before_handle: bool) -> Result<Vec<OracleViolation>, String> {
    let extent = Extent2::new(4, 4);
    let d = Decomposition::row_block(extent, 1).map_err(|e| e.to_string())?;
    let tol = Tolerance::new(0.25).map_err(|e| e.to_string())?;
    let topo = Topology::pair(d, d, MatchPolicy::Reg, tol).map_err(|e| e.to_string())?;
    let (conn, req, at) = (ConnectionId(0), RequestId(0), ts(1.0));
    let request = CtrlMsg::ImportRequest { conn, req, ts: at };
    let forward = CtrlMsg::ForwardRequest { conn, req, ts: at };
    let call = CtrlMsg::ImportCall {
        conn,
        rank: Rank(0),
        ts: at,
    };
    // Loss draws are numbered in send order: the call arrives, the
    // request's and the forward's first copies do not.
    let draws = [
        (Endpoint::Rep { prog: 1 }, call, false),
        (Endpoint::Rep { prog: 0 }, request, true),
        (Endpoint::Rep { prog: 0 }, request, false),
        (Endpoint::Proc { prog: 0, rank: 0 }, forward, true),
    ];
    let chaos = (0..100_000)
        .map(|seed| ChaosConfig {
            seed,
            max_delay: 0.0,
            duplicate_prob: 0.0,
            drop_prob: 0.0,
            retry_delay: 0.004,
            loss_prob: 0.5,
            crash: None,
        })
        .find(|c| {
            (0..)
                .zip(&draws)
                .all(|(n, (to, msg, lost))| c.lost(n, *to, msg) == *lost)
        })
        .ok_or("no chaos seed draws the probe's loss pattern")?;
    let mut fabric = Fabric::new(
        topo,
        FabricOptions {
            import_timeout: Duration::from_millis(5),
            chaos: Some(chaos),
            ..FabricOptions::default()
        },
    );
    if ack_before_handle {
        fabric.arm_ack_before_handle();
    }
    let mut exp = fabric.take_export(0, 0, 0);
    let mut imp = fabric.take_import(1, 0, 0);
    exp.export(at, &LocalArray::zeros(d.owned(0)))
        .map_err(|e| e.to_string())?;
    // Times out: the request's first copy is lost.
    let _ = imp.import(at, &mut LocalArray::zeros(d.owned(0)));
    let report = fabric.shutdown().map_err(|e| e.to_string())?;
    let requests = report.stats[0][0].requests;
    Ok(if requests == 1 {
        Vec::new()
    } else {
        vec![OracleViolation::Liveness {
            conn,
            detail: format!("the exporter saw {requests} of 1 forwarded request"),
        }]
    })
}

/// Mutation smoke test: arms one of the deliberately unsound rules in the
/// simulator and searches the seed space for a scenario where the broken
/// rule discards a match, a transfer, or a whole subtree's answers —
/// which the safety oracles must catch (buffer safety for the export-side
/// skips, buffer safety or liveness for the dropped relay edge). The relay
/// drop is then re-armed on the threaded fabric, which must starve the
/// same subtree of the shrunk scenario. Returns the first caught seed, the
/// shrunk scenario and its violations (both runtimes'); `None` means the
/// oracles never fired (which the caller should treat as a test failure).
/// The ack-before-handle rule has no scenario: its "seeds" are rounds of
/// [`armed_shutdown_probe`], and it returns no scenario.
pub fn mutation_smoke(
    max_seeds: u64,
    mutation: Mutation,
) -> Option<(u64, Option<Scenario>, Vec<OracleViolation>)> {
    if mutation == Mutation::AckBeforeHandle {
        return (0..max_seeds).find_map(|round| match armed_shutdown_probe(true) {
            Ok(v) if v.iter().any(|x| mutation.is_expected_catch(x)) => Some((round, None, v)),
            _ => None,
        });
    }
    let caught = |s: &Scenario| -> bool {
        matches!(
            check_des(s, Some(mutation)),
            Ok((_, v)) if v.iter().any(|x| mutation.is_expected_catch(x))
        )
    };
    for seed in 0..max_seeds {
        let mut s = Scenario::generate(seed);
        // The export-side skips only bite where buddy-help fires: force
        // the optimization on, keep the run noise-free, and slow each
        // exporter's last rank so it still has open requests when the
        // collective answer arrives. The relay drop instead needs the
        // distribution tree: hierarchical mode with enough importer ranks
        // that the sabotaged rank-0 → rank-k edge exists.
        s.buddy_help = true;
        s.chaos = None;
        match mutation {
            Mutation::HelpSkip | Mutation::StaleSkip => {
                for e in &mut s.exporters {
                    if e.procs > 1 {
                        *e.compute.last_mut().expect("non-empty compute") += 0.02;
                    }
                }
            }
            Mutation::RelayDrop => {
                s.hierarchical = true;
                for imp in &mut s.importers {
                    imp.procs = 6;
                }
            }
            Mutation::AckBeforeHandle => unreachable!("probed above"),
        }
        if caught(&s) {
            let shrunk = crate::shrink::shrink(&s, caught);
            let mut violations = match check_des(&shrunk, Some(mutation)) {
                Ok((_, v)) => v,
                Err(_) => Vec::new(),
            };
            if mutation == Mutation::RelayDrop {
                let (_, _, threaded) = run_threaded(&shrunk, false, true).ok()?;
                if !threaded.iter().any(|v| mutation.is_expected_catch(v)) {
                    return None;
                }
                violations.extend(threaded);
            }
            return Some((seed, Some(shrunk), violations));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_runtime::{ChaosConfig, CrashFault, CrashTarget};

    /// A small fixed corpus through the simulator: no oracle may fire —
    /// including the fault-free inertness check on every chaos-free seed.
    #[test]
    fn des_seed_corpus_is_clean() {
        for seed in 0..25 {
            let s = Scenario::generate(seed);
            let (_, violations) = check_des(&s, None).expect("harness");
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    /// A smaller corpus end-to-end on both runtimes, including the
    /// runtime-equivalence oracle.
    #[test]
    fn dual_runtime_corpus_is_clean() {
        for seed in 0..6 {
            let s = Scenario::generate(seed);
            let violations = check_scenario(&s).expect("harness");
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    /// Forced permanent faults (20% loss plus a rep crash, restart on even
    /// seeds / successor failover on odd) must pass every oracle on both
    /// runtimes, and the crash must actually fire somewhere in the corpus
    /// (failovers ≥ 1 — the faults are real, not vacuous).
    #[test]
    fn forced_fault_corpus_recovers_on_both_runtimes() {
        let mut total_failovers = 0;
        for seed in 0..4 {
            let mut s = Scenario::generate(seed);
            s.force_faults();
            let violations = check_scenario(&s).expect("harness");
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            let (_, counters, _) = run_des(&s, DesTweaks::default()).expect("harness");
            total_failovers += counters.failovers;
        }
        assert!(
            total_failovers >= 1,
            "no rep crash fired across the forced-fault corpus"
        );
    }

    /// The deliberately broken pruning rule must be caught by the
    /// buffer-safety oracle — the oracles have teeth.
    #[test]
    fn help_skip_mutation_is_caught_by_buffer_safety() {
        let (seed, shrunk, violations) = mutation_smoke(200, Mutation::HelpSkip)
            .expect("mutation must be caught within 200 seeds");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, OracleViolation::BufferSafety { .. })),
            "seed {seed} shrunk to {shrunk:?} without a buffer-safety violation: {violations:?}"
        );
    }

    /// The unsound "skip on stale announcement" rule — dropping a
    /// buddy-help answer whose match was already exported locally — must
    /// also be caught by the buffer-safety oracle.
    #[test]
    fn stale_skip_mutation_is_caught_by_buffer_safety() {
        let (seed, shrunk, violations) = mutation_smoke(200, Mutation::StaleSkip)
            .expect("mutation must be caught within 200 seeds");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, OracleViolation::BufferSafety { .. })),
            "seed {seed} shrunk to {shrunk:?} without a buffer-safety violation: {violations:?}"
        );
    }

    /// The sabotaged distribution tree — relay rank 0 silently dropping
    /// the coalesced answer broadcast on its first subtree edge — must be
    /// caught on both in-process runtimes: the starved subtree wedges
    /// (liveness) or an owed match never arrives (buffer safety).
    #[test]
    fn relay_drop_mutation_is_caught() {
        let (seed, shrunk, violations) = mutation_smoke(50, Mutation::RelayDrop)
            .expect("mutation must be caught within 50 seeds");
        assert!(
            violations
                .iter()
                .any(|v| Mutation::RelayDrop.is_expected_catch(v)),
            "seed {seed} shrunk to {shrunk:?} without the expected violation: {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.to_string().contains("timed out")),
            "the threaded fabric's starved importer never timed out: {violations:?}"
        );
    }

    /// Hierarchical stress corpus on both in-process runtimes: match
    /// decisions agree and the control-scaling oracle's exact tree
    /// conservation laws hold (every rank served exactly once, through
    /// the tree).
    #[test]
    fn hierarchical_stress_corpus_is_clean() {
        for seed in 0..4 {
            let s = Scenario::stress(seed);
            let violations = check_scenario(&s).expect("harness");
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    /// The hierarchical counters are live, not vacuously zero: a stress
    /// run (6 ranks > branching factor 4) must actually relay, coalesce,
    /// and report a ≥2-level tree.
    #[test]
    fn hierarchical_stress_run_exercises_the_tree() {
        let s = Scenario::stress(0);
        let (_, counters, violations) = run_des(&s, DesTweaks::default()).expect("harness");
        assert!(violations.is_empty(), "{violations:?}");
        assert!(counters.ctrl_relay > 0, "no relay hops recorded");
        assert!(counters.ctrl_coalesced > 0, "no coalesced frames recorded");
        assert!(
            counters.tree_depth >= 2,
            "tree depth {}",
            counters.tree_depth
        );
    }

    /// One hierarchical stress seed across all three runtimes: the tree
    /// fan-out survives real sockets with every oracle green, including
    /// counter equivalence between the threaded and socket transports.
    #[test]
    fn socket_hierarchical_stress_seed_agrees() {
        if socket_node_bin().is_none() {
            eprintln!("skipping: couplink-node binary not built");
            return;
        }
        let s = Scenario::stress(2);
        let violations = check_scenario_socket(&s, SocketBackend::Uds).expect("harness");
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// Negative liveness test: under 100% permanent loss with retransmit
    /// disabled, the protocol has no recovery and the liveness oracle must
    /// fire — proving the oracle detects a wedged run rather than passing
    /// vacuously.
    #[test]
    fn liveness_oracle_fires_without_retransmit() {
        let mut s = Scenario::generate(0);
        s.chaos = Some(ChaosConfig {
            seed: 7,
            max_delay: 0.0,
            duplicate_prob: 0.0,
            drop_prob: 0.0,
            retry_delay: 0.004,
            loss_prob: 1.0,
            crash: None,
        });
        let (_, _, violations) = run_des(
            &s,
            DesTweaks {
                retry: Some(RetryPolicy {
                    retransmit: false,
                    ..RetryPolicy::default()
                }),
                ..DesTweaks::default()
            },
        )
        .expect("harness");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, OracleViolation::Liveness { .. })),
            "total loss without retransmit must wedge the run: {violations:?}"
        );
    }

    /// Graceful degradation: when every buddy-help announcement is
    /// permanently lost, the run still passes every oracle, meters each
    /// abandoned announcement (`degraded_buffers > 0`), performs no *extra*
    /// memcpy skips beyond the baseline region pruning (`memcpy_skipped`
    /// equals the ablation's), and decides exactly the matches of a
    /// no-buddy-help ablation.
    #[test]
    fn degraded_buddy_help_matches_no_help_ablation() {
        for seed in 0..50 {
            let mut s = Scenario::generate(seed);
            s.buddy_help = true;
            s.chaos = None;
            for e in &mut s.exporters {
                if e.procs > 1 {
                    *e.compute.last_mut().expect("non-empty compute") += 0.02;
                }
            }
            let (degraded_matches, counters, violations) = run_des(
                &s,
                DesTweaks {
                    drop_buddy_help: true,
                    ..DesTweaks::default()
                },
            )
            .expect("harness");
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            if counters.degraded_buffers == 0 {
                continue; // no help traffic in this scenario — keep looking
            }
            let mut ablation = s.clone();
            ablation.buddy_help = false;
            let (plain_matches, plain_counters, plain_violations) =
                run_des(&ablation, DesTweaks::default()).expect("harness");
            assert!(
                plain_violations.is_empty(),
                "seed {seed}: {plain_violations:?}"
            );
            assert_eq!(
                counters.memcpy_skipped, plain_counters.memcpy_skipped,
                "seed {seed}: lost announcements must not change skip behavior"
            );
            assert_eq!(
                degraded_matches, plain_matches,
                "seed {seed}: degradation changed match decisions"
            );
            return;
        }
        panic!("no seed in 0..50 produced buddy-help traffic to degrade");
    }

    /// A small fixed corpus through the socket runtime on loopback UDS:
    /// all three runtimes must agree on match decisions, and the
    /// deterministic protocol counters must be identical between the
    /// threaded and socket transports.
    #[test]
    fn socket_corpus_matches_other_runtimes() {
        if socket_node_bin().is_none() {
            eprintln!("skipping: couplink-node binary not built");
            return;
        }
        for seed in 0..4 {
            let s = Scenario::generate(seed);
            let violations = check_scenario_socket(&s, SocketBackend::Uds).expect("harness");
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        }
    }

    /// The lag the socket sweeps apply is what makes their bounded
    /// exporters stall: without stalls, comparing them with the unbounded
    /// in-process runs would prove nothing.
    #[test]
    fn lagged_socket_scenario_stalls_its_exporters() {
        if socket_node_bin().is_none() {
            eprintln!("skipping: couplink-node binary not built");
            return;
        }
        let mut s = Scenario::generate(0);
        s.chaos = None;
        s.lag_importers();
        let (_, counters, violations) = run_socket(&s, SocketBackend::Uds, false).expect("harness");
        assert!(violations.is_empty(), "{violations:?}");
        let stalls = counters.expect("clean run").buffer_stalls;
        assert!(stalls > 0, "no exporter stalled");
    }

    /// The armed-shutdown probe passes with acks applied after the
    /// handler: the drain never stops with the forwarded request owed.
    #[test]
    fn armed_shutdown_probe_is_clean() {
        for round in 0..5 {
            let violations = armed_shutdown_probe(false).expect("harness");
            assert!(violations.is_empty(), "round {round}: {violations:?}");
        }
    }

    /// Forced permanent faults (loss + rep crash) over the socket
    /// transport: the per-process reliability layer must recover exactly
    /// as the in-process runtimes do, with every oracle green.
    #[test]
    fn socket_forced_fault_seed_recovers() {
        if socket_node_bin().is_none() {
            eprintln!("skipping: couplink-node binary not built");
            return;
        }
        let mut s = Scenario::generate(1);
        s.force_faults();
        let (_, _, violations) = run_socket(&s, SocketBackend::Uds, false).expect("harness");
        assert!(violations.is_empty(), "{violations:?}");
    }

    /// The ci negative: a receiver-side codec bug that silently drops
    /// collective-answer frames must wedge the importer, and the liveness
    /// oracle must say so.
    #[test]
    fn socket_drop_answers_fires_liveness_oracle() {
        if socket_node_bin().is_none() {
            eprintln!("skipping: couplink-node binary not built");
            return;
        }
        let mut s = Scenario::generate(0);
        s.chaos = None;
        let (_, _, violations) = run_socket(&s, SocketBackend::Uds, true).expect("harness");
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, OracleViolation::Liveness { .. })),
            "dropped answers must trip the liveness oracle: {violations:?}"
        );
    }

    /// A crashed agent thread must surface as a `ProcessCrash` error from
    /// fabric shutdown (via `catch_unwind`) instead of hanging the run.
    #[test]
    fn agent_crash_surfaces_as_process_crash() {
        let mut s = Scenario::generate(
            (0..)
                .find(|&seed| Scenario::generate(seed).exporters[0].procs >= 2)
                .expect("some seed has a multi-rank exporter"),
        );
        s.chaos = Some(ChaosConfig {
            seed: 11,
            max_delay: 0.0,
            duplicate_prob: 0.0,
            drop_prob: 0.0,
            retry_delay: 0.004,
            loss_prob: 0.0,
            crash: Some(CrashFault {
                target: CrashTarget::Agent {
                    prog: s.exporter_prog(0),
                    rank: 1,
                },
                after_msgs: 0,
                restart_after: None,
            }),
        });
        let (_, _, violations) = run_threaded(&s, false, false).expect("harness");
        assert!(
            violations
                .iter()
                .any(|v| v.to_string().contains("process crashed")),
            "agent panic must surface as ProcessCrash: {violations:?}"
        );
    }
}
