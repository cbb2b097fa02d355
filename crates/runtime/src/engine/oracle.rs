//! End-to-end correctness oracles for the coupling protocol.
//!
//! These checks consume only *observable* run artifacts — per-process
//! [`Trace`]s, per-connection match decisions, import completion — and
//! re-derive what the protocol promised from first principles. They are the
//! acceptance predicate of the simulation-testing harness
//! (`couplink-simtest`), but are exported from the runtime crate so any
//! integration test can assert them.
//!
//! Four oracles:
//!
//! 1. **Collective order** ([`check_collective_order`]): the paper's
//!    Property 1 — every process of an exporting program observes the same
//!    requests and performs the same sends, in the same order, regardless
//!    of runtime or timing. (The per-export `copied` flags legally differ;
//!    the *sequences* may not.)
//! 2. **Buffer safety** ([`check_buffer_safety`]): replays the match
//!    predicate ([`couplink_time::evaluate`]) over the full export history
//!    and requires that every ground-truth match was memcpy'd (never
//!    skipped by the pruning rule) and eventually sent — and that nothing
//!    else was sent. This is the oracle that catches an unsound
//!    acceptable-region pruning rule.
//! 3. **Liveness** ([`check_liveness`]): every scheduled import call
//!    resolves and the importer finishes, i.e. bounded chaos (delay,
//!    duplication, drop-with-retry) never wedges the protocol.
//! 4. **Runtime equivalence** ([`check_runtime_equivalence`]): the
//!    discrete-event simulator and the threaded fabric decide identical
//!    match outcomes for the same scenario.
//! 5. **Metric consistency** ([`check_metric_consistency`]): the engine's
//!    instrumentation counters obey their conservation laws and agree with
//!    the ground-truth replay — every export call either paid or skipped
//!    the memcpy, and the transfer count equals the owed matches derived by
//!    re-evaluating the match predicate over the full export history.
//! 6. **Control scaling** ([`check_ctrl_scaling`]): under hierarchical
//!    fan-out the rep's origin sends per collective are bounded by the
//!    tree's branching factor, and the origin/relay counters obey exact
//!    conservation laws that together prove every rank received every
//!    collective exactly once — through the tree, with no flat fan-out
//!    sneaking back in.
//!
//! Plus an inertness check, [`check_fault_free`]: a run configured without
//! permanent faults must never exercise the reliability machinery — zero
//! retransmits, timeouts, failovers, degraded buffers and acks. This is
//! how the harness proves fault tolerance is pay-as-you-go (the fault-free
//! fast path stays bit-identical to the pre-reliability engine). And one
//! for the socket transport, [`check_net_conservation`]: a healthy run
//! receives exactly the frames and bytes it sent.

use super::tree;
use couplink_metrics::{CounterSnapshot, CtrlClass, INERT};
use couplink_proto::{ConnectionId, Trace};
use couplink_time::{evaluate, ExportHistory, MatchPolicy, Timestamp, Tolerance};
use std::collections::BTreeSet;
use std::fmt;

/// A failed oracle: which property broke, on which connection, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleViolation {
    /// Two ranks of the exporting program disagreed on a timing-independent
    /// sequence (Property 1).
    CollectiveOrder {
        /// The connection the traces belong to.
        conn: ConnectionId,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A ground-truth match was pruned, never sent, or a non-match was sent.
    BufferSafety {
        /// The connection whose history was replayed.
        conn: ConnectionId,
        /// Human-readable description of the unsound decision.
        detail: String,
    },
    /// An import call never resolved, or the importer never finished.
    Liveness {
        /// The connection that stalled.
        conn: ConnectionId,
        /// Human-readable description of the stall.
        detail: String,
    },
    /// The two runtimes decided different match outcomes.
    RuntimeEquivalence {
        /// The connection that diverged.
        conn: ConnectionId,
        /// Human-readable description of the divergence.
        detail: String,
    },
    /// An instrumentation counter disagreed with its conservation law or
    /// with the ground-truth replay.
    MetricConsistency {
        /// The connection the inconsistency was attributed to (run-wide
        /// conservation failures report the first checked connection).
        conn: ConnectionId,
        /// Human-readable description of the inconsistency.
        detail: String,
    },
    /// Hierarchical fan-out broke its O(log N) control budget or a tree
    /// conservation law (a rank was skipped or served twice).
    CtrlScaling {
        /// The connection the excess was attributed to (run-wide
        /// conservation failures report the first checked connection).
        conn: ConnectionId,
        /// Human-readable description of the excess.
        detail: String,
    },
}

impl OracleViolation {
    /// The connection the violation occurred on.
    pub fn conn(&self) -> ConnectionId {
        match self {
            OracleViolation::CollectiveOrder { conn, .. }
            | OracleViolation::BufferSafety { conn, .. }
            | OracleViolation::Liveness { conn, .. }
            | OracleViolation::RuntimeEquivalence { conn, .. }
            | OracleViolation::MetricConsistency { conn, .. }
            | OracleViolation::CtrlScaling { conn, .. } => *conn,
        }
    }
}

impl fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleViolation::CollectiveOrder { conn, detail } => {
                write!(f, "collective-order violation on conn {}: {detail}", conn.0)
            }
            OracleViolation::BufferSafety { conn, detail } => {
                write!(f, "buffer-safety violation on conn {}: {detail}", conn.0)
            }
            OracleViolation::Liveness { conn, detail } => {
                write!(f, "liveness violation on conn {}: {detail}", conn.0)
            }
            OracleViolation::RuntimeEquivalence { conn, detail } => {
                write!(
                    f,
                    "runtime-equivalence violation on conn {}: {detail}",
                    conn.0
                )
            }
            OracleViolation::MetricConsistency { conn, detail } => {
                write!(
                    f,
                    "metric-consistency violation on conn {}: {detail}",
                    conn.0
                )
            }
            OracleViolation::CtrlScaling { conn, detail } => {
                write!(f, "ctrl-scaling violation on conn {}: {detail}", conn.0)
            }
        }
    }
}

/// Property 1: all ranks of the exporting program saw the same request
/// sequence and performed the same send sequence, in the same order.
///
/// Export sequences are *not* compared — they are fixed by each rank's
/// application schedule, not by the protocol.
pub fn check_collective_order(conn: ConnectionId, traces: &[Trace]) -> Result<(), OracleViolation> {
    let Some((first, rest)) = traces.split_first() else {
        return Ok(());
    };
    let requests = first.request_sequence();
    let sends = first.send_sequence();
    for (rank, t) in rest.iter().enumerate() {
        if t.request_sequence() != requests {
            return Err(OracleViolation::CollectiveOrder {
                conn,
                detail: format!(
                    "rank {} saw requests {:?}, rank 0 saw {:?}",
                    rank + 1,
                    t.request_sequence(),
                    requests
                ),
            });
        }
        if t.send_sequence() != sends {
            return Err(OracleViolation::CollectiveOrder {
                conn,
                detail: format!(
                    "rank {} sent {:?}, rank 0 sent {:?}",
                    rank + 1,
                    t.send_sequence(),
                    sends
                ),
            });
        }
    }
    Ok(())
}

/// Replays the match predicate over the trace's full export history and
/// checks every memcpy-skip and send decision against the ground truth.
///
/// For each request `x` in the trace, the acceptable region
/// `policy.region(x, tol)` is evaluated against the *complete* history.
/// Decided protocol answers are stable under future exports (exports are
/// strictly increasing, so a region's best match never changes once
/// decided), which makes the full-history answer the ground truth:
///
/// * every ground-truth match must appear as a copied (never skipped)
///   export — a skip of the match object means the pruning rule discarded
///   data the importer was owed;
/// * every ground-truth match must appear in the send sequence;
/// * every send must be a ground-truth match of some request.
pub fn check_buffer_safety(
    conn: ConnectionId,
    policy: MatchPolicy,
    tol: Tolerance,
    trace: &Trace,
) -> Result<(), OracleViolation> {
    let mut history = ExportHistory::new();
    for t in trace.export_sequence() {
        if let Err(e) = history.record(t) {
            return Err(OracleViolation::BufferSafety {
                conn,
                detail: format!("export sequence is not strictly increasing at {t}: {e}"),
            });
        }
    }
    let skipped: BTreeSet<u64> = trace
        .skipped_exports()
        .iter()
        .map(|t| t.value().to_bits())
        .collect();
    let sent: BTreeSet<u64> = trace
        .send_sequence()
        .iter()
        .map(|t| t.value().to_bits())
        .collect();

    let mut truth = BTreeSet::new();
    for x in trace.request_sequence() {
        let region = policy.region(x, tol);
        let result = evaluate(&region, &history).map_err(|e| OracleViolation::BufferSafety {
            conn,
            detail: format!("replay of request {x} failed: {e}"),
        })?;
        let Some(m) = result.matched() else {
            continue; // NoMatch or still pending at shutdown: nothing owed.
        };
        truth.insert(m.value().to_bits());
        if skipped.contains(&m.value().to_bits()) {
            return Err(OracleViolation::BufferSafety {
                conn,
                detail: format!(
                    "match {m} for request {x} was exported with the memcpy skipped \
                     — the pruning rule discarded an object the importer is owed"
                ),
            });
        }
        if !sent.contains(&m.value().to_bits()) {
            return Err(OracleViolation::BufferSafety {
                conn,
                detail: format!("match {m} for request {x} was never sent"),
            });
        }
    }
    if let Some(extra) = sent.difference(&truth).next() {
        return Err(OracleViolation::BufferSafety {
            conn,
            detail: format!(
                "sent {} which matches no request under the ground-truth predicate",
                Timestamp::new(f64::from_bits(*extra)).expect("sent timestamp was valid")
            ),
        });
    }
    Ok(())
}

/// Every scheduled import call resolved, and the importer reached the end
/// of its schedule.
pub fn check_liveness(
    conn: ConnectionId,
    scheduled: usize,
    resolved: usize,
    import_done: bool,
) -> Result<(), OracleViolation> {
    if resolved < scheduled {
        return Err(OracleViolation::Liveness {
            conn,
            detail: format!("only {resolved} of {scheduled} import calls resolved"),
        });
    }
    if !import_done {
        return Err(OracleViolation::Liveness {
            conn,
            detail: "importer never completed its schedule".to_string(),
        });
    }
    Ok(())
}

/// The discrete-event simulator and the threaded fabric decided identical
/// per-request match outcomes.
pub fn check_runtime_equivalence(
    conn: ConnectionId,
    des: &[Option<Timestamp>],
    threaded: &[Option<Timestamp>],
) -> Result<(), OracleViolation> {
    if des.len() != threaded.len() {
        return Err(OracleViolation::RuntimeEquivalence {
            conn,
            detail: format!(
                "DES resolved {} requests, threaded resolved {}",
                des.len(),
                threaded.len()
            ),
        });
    }
    for (i, (d, t)) in des.iter().zip(threaded).enumerate() {
        if d != t {
            return Err(OracleViolation::RuntimeEquivalence {
                conn,
                detail: format!("request {i}: DES decided {d:?}, threaded decided {t:?}"),
            });
        }
    }
    Ok(())
}

/// Replays a rank's trace against the ground-truth predicate and counts the
/// matches the importer is owed: requests whose acceptable region, evaluated
/// over the *complete* export history, decided a match. Each such match is
/// one transfer every exporting rank must emit.
pub fn owed_matches(
    conn: ConnectionId,
    policy: MatchPolicy,
    tol: Tolerance,
    trace: &Trace,
) -> Result<usize, OracleViolation> {
    let mut history = ExportHistory::new();
    for t in trace.export_sequence() {
        history
            .record(t)
            .map_err(|e| OracleViolation::MetricConsistency {
                conn,
                detail: format!("export sequence is not strictly increasing at {t}: {e}"),
            })?;
    }
    let mut owed = 0;
    for x in trace.request_sequence() {
        let result = evaluate(&policy.region(x, tol), &history).map_err(|e| {
            OracleViolation::MetricConsistency {
                conn,
                detail: format!("replay of request {x} failed: {e}"),
            }
        })?;
        if result.matched().is_some() {
            owed += 1;
        }
    }
    Ok(owed)
}

/// Checks a run's counter snapshot against its conservation laws and the
/// ground-truth replay:
///
/// * every export call either paid or skipped the framework memcpy
///   (`memcpy_paid + memcpy_skipped == export_calls`);
/// * the run emitted exactly the transfers the importers are owed:
///   for each connection, every exporting rank sends each ground-truth
///   match once, so `transfers == Σ_conn owed(conn) × exporter_procs(conn)`.
///
/// `owed` carries one `(connection, owed-match count, exporter process
/// count)` entry per connection, with the owed count derived via
/// [`owed_matches`] from any rank's trace (Property 1 makes all ranks
/// equivalent).
pub fn check_metric_consistency(
    counters: &CounterSnapshot,
    owed: &[(ConnectionId, usize, usize)],
) -> Result<(), OracleViolation> {
    let first_conn = owed.first().map(|&(c, _, _)| c).unwrap_or(ConnectionId(0));
    if counters.memcpy_paid + counters.memcpy_skipped != counters.export_calls {
        return Err(OracleViolation::MetricConsistency {
            conn: first_conn,
            detail: format!(
                "memcpy conservation broken: {} paid + {} skipped != {} export calls",
                counters.memcpy_paid, counters.memcpy_skipped, counters.export_calls
            ),
        });
    }
    let expected: usize = owed.iter().map(|&(_, n, procs)| n * procs).sum();
    if counters.transfers != expected as u64 {
        return Err(OracleViolation::MetricConsistency {
            conn: first_conn,
            detail: format!(
                "run emitted {} transfers, ground-truth replay owes {expected} \
                 (Σ owed matches × exporter processes over {} connections)",
                counters.transfers,
                owed.len()
            ),
        });
    }
    Ok(())
}

/// Checks a hierarchical run's control-plane counters against the k-ary
/// distribution tree ([`super::tree`]). Only meaningful for runs with *no*
/// chaos at all — message duplication legally inflates relay counts.
///
/// Two layers:
///
/// * **O(log N) budget**: per collective, the rep originates at most
///   `min(k, N)` messages per broadcast (forward, answer, help) — never
///   the flat `N` — and the critical path is `depth(N) = ⌈log_k N⌉`
///   hops, so the rep-origin cost per import stays within
///   `k·⌈log_k N⌉ + 2k` for every connection shape.
/// * **Conservation**: summed over `conns` (one `(connection, collectives,
///   exporter procs, importer procs)` entry each, the collective count
///   being the importer's schedule length — fault-free, every scheduled
///   import becomes exactly one aggregated request):
///   - `ctrl_sent[ForwardRequest] == Σ reqs × min(k, N_exp)` — forwards
///     originate at tree roots only;
///   - `ctrl_sent[AnswerBcast]   == Σ reqs × min(k, N_imp)` — answer
///     broadcasts likewise (hierarchical answers travel as coalesced
///     frames, classed as `AnswerBcast`);
///   - `ctrl_sent[BuddyHelp]     == Σ reqs × min(k, N_exp)` when
///     buddy-help is on (the at-decision help broadcast), else `0`;
///   - `ctrl_relay == Σ reqs × (N − min(k, N))` summed over the three
///     broadcasts — every non-root rank is reached by exactly one relay
///     hop;
///   - `ctrl_coalesced == Σ reqs × (N_imp + N_exp·buddy)` — each
///     coalesced frame (origin or relay) crosses exactly one edge per
///     rank;
///   - `tree_depth == max ⌈log_k N⌉` over the participating programs.
///
/// Origin + relay equalities together prove every rank received each
/// collective **exactly once**: the tree covers each rank by exactly one
/// edge, and the counters show exactly one send per edge per collective.
pub fn check_ctrl_scaling(
    counters: &CounterSnapshot,
    conns: &[(ConnectionId, usize, usize, usize)],
    buddy_help: bool,
) -> Result<(), OracleViolation> {
    let first_conn = conns.first().map(|&(c, ..)| c).unwrap_or(ConnectionId(0));
    let k = tree::BRANCH;
    let origin = |n: usize| n.min(k) as u64;
    let relayed = |n: usize| (n - n.min(k)) as u64;
    let (mut fwd, mut bcast, mut help) = (0u64, 0u64, 0u64);
    let (mut relay, mut coalesced, mut max_depth) = (0u64, 0u64, 0u64);
    for &(conn, reqs, n_exp, n_imp) in conns {
        let reqs = reqs as u64;
        fwd += reqs * origin(n_exp);
        bcast += reqs * origin(n_imp);
        relay += reqs * (relayed(n_exp) + relayed(n_imp));
        coalesced += reqs * n_imp as u64;
        if buddy_help {
            help += reqs * origin(n_exp);
            relay += reqs * relayed(n_exp);
            coalesced += reqs * n_exp as u64;
        }
        let n = n_exp.max(n_imp);
        max_depth = max_depth.max(tree::depth(n) as u64);
        let per_import = origin(n_exp) * (1 + buddy_help as u64) + origin(n_imp);
        let budget = (k * tree::depth(n) + 2 * k) as u64;
        if per_import > budget {
            return Err(OracleViolation::CtrlScaling {
                conn,
                detail: format!(
                    "rep originates {per_import} messages per collective over \
                     {n_exp}×{n_imp} ranks — past the k·⌈log_k N⌉ + 2k = {budget} budget"
                ),
            });
        }
    }
    let checks = [
        (
            "forward origins",
            counters.ctrl(CtrlClass::ForwardRequest),
            fwd,
        ),
        (
            "answer-bcast origins",
            counters.ctrl(CtrlClass::AnswerBcast),
            bcast,
        ),
        (
            "buddy-help origins",
            counters.ctrl(CtrlClass::BuddyHelp),
            help,
        ),
        ("relay hops", counters.ctrl_relay, relay),
        ("coalesced frames", counters.ctrl_coalesced, coalesced),
        ("tree depth", counters.tree_depth, max_depth),
    ];
    for (name, got, want) in checks {
        if got != want {
            return Err(OracleViolation::CtrlScaling {
                conn: first_conn,
                detail: format!(
                    "{name}: counted {got}, the distribution tree accounts for \
                     exactly {want} — some rank was skipped, served twice, or \
                     reached outside the tree"
                ),
            });
        }
    }
    Ok(())
}

/// Checks that a run configured **without** permanent faults left the
/// reliability and recovery machinery untouched: every counter the metrics
/// table flags `inert` (retransmits, timeouts, failovers, degraded buffers,
/// ack traffic, socket reconnects and codec rejects, journal replays and
/// truncations) reads 0. The machinery is armed only when the
/// fault plan needs it, so any nonzero count here means the fault-free fast
/// path is no longer inert (and bit-identical baselines are at risk).
pub fn check_fault_free(counters: &CounterSnapshot) -> Result<(), OracleViolation> {
    let inert = CounterSnapshot::flagged(INERT);
    for (name, value) in counters.fields() {
        if value != 0 && inert.contains(&name) {
            return Err(OracleViolation::MetricConsistency {
                conn: ConnectionId(0),
                detail: format!(
                    "fault-free run is not inert: {name} = {value} (reliability \
                     machinery ran without a fault plan)"
                ),
            });
        }
    }
    Ok(())
}

/// Tx/rx conservation over a socket run's merged counters: every frame a
/// writer metered was read and metered by the peer it was written to, so
/// the rx sums equal the tx sums, frames and bytes. Only provable when no
/// link degraded: a reconnect replays salvage (double-count), loss and
/// timeouts mean frames died with a link, and a codec reject drops a
/// frame. Each leaves a fingerprint in the counters, and a run carrying
/// one is skipped.
pub fn check_net_conservation(c: &CounterSnapshot) -> Result<(), OracleViolation> {
    let degraded =
        c.net_reconnects > 0 || c.net_codec_rejects > 0 || c.retransmits > 0 || c.timeouts > 0;
    if degraded || (c.net_rx_frames == c.net_frames && c.net_rx_bytes == c.net_bytes) {
        return Ok(());
    }
    Err(OracleViolation::MetricConsistency {
        conn: ConnectionId(0),
        detail: format!(
            "tx/rx conservation broken: sent {} frames / {} bytes, \
             received {} frames / {} bytes",
            c.net_frames, c.net_bytes, c.net_rx_frames, c.net_rx_bytes
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_proto::{ExportPort, RequestId};
    use couplink_time::ts;

    /// Drives a single port: requests are issued as soon as the next export
    /// would pass them (an importer running slightly ahead), and every
    /// effect is recorded into a trace.
    fn traced_run(exports: &[f64], requests: &[f64]) -> Trace {
        let mut port = ExportPort::new(
            ConnectionId(0),
            MatchPolicy::RegL,
            Tolerance::new(0.5).expect("tolerance"),
        );
        let mut trace = Trace::new();
        let mut req = 0u64;
        let mut it = requests.iter().copied().peekable();
        for &e in exports {
            while let Some(&x) = it.peek() {
                if x > e {
                    break;
                }
                it.next();
                let id = RequestId(req);
                req += 1;
                let fx = port.on_request(id, ts(x)).expect("request");
                trace.record_request(ts(x), &fx);
            }
            let fx = port.on_export(ts(e)).expect("export");
            trace.record_export(ts(e), &fx);
        }
        for x in it {
            let id = RequestId(req);
            req += 1;
            let fx = port.on_request(id, ts(x)).expect("request");
            trace.record_request(ts(x), &fx);
        }
        trace
    }

    #[test]
    fn clean_single_port_run_passes_buffer_safety() {
        let trace = traced_run(&[1.0, 2.0, 3.0, 4.0, 5.0], &[2.2, 4.1]);
        check_buffer_safety(
            ConnectionId(0),
            MatchPolicy::RegL,
            Tolerance::new(0.5).expect("tolerance"),
            &trace,
        )
        .expect("clean run must satisfy buffer safety");
    }

    #[test]
    fn collective_order_flags_diverging_sends() {
        let a = traced_run(&[1.0, 2.0, 3.0], &[2.2]);
        let b = traced_run(&[1.0, 2.0, 3.0], &[1.2]);
        let err = check_collective_order(ConnectionId(1), &[a, b]).unwrap_err();
        assert!(matches!(err, OracleViolation::CollectiveOrder { .. }));
        assert_eq!(err.conn(), ConnectionId(1));
    }

    #[test]
    fn collective_order_accepts_identical_ranks() {
        let a = traced_run(&[1.0, 2.0, 3.0], &[2.2]);
        let b = traced_run(&[1.0, 2.0, 3.0], &[2.2]);
        check_collective_order(ConnectionId(0), &[a, b]).expect("identical ranks");
    }

    #[test]
    fn liveness_flags_unresolved_requests() {
        assert!(check_liveness(ConnectionId(0), 5, 5, true).is_ok());
        let err = check_liveness(ConnectionId(0), 5, 4, true).unwrap_err();
        assert!(matches!(err, OracleViolation::Liveness { .. }));
        let err = check_liveness(ConnectionId(0), 5, 5, false).unwrap_err();
        assert!(err.to_string().contains("never completed"));
    }

    #[test]
    fn metric_consistency_checks_conservation_and_owed_transfers() {
        let trace = traced_run(&[1.0, 2.0, 3.0, 4.0, 5.0], &[2.2, 4.1]);
        let tol = Tolerance::new(0.5).expect("tolerance");
        let owed =
            owed_matches(ConnectionId(0), MatchPolicy::RegL, tol, &trace).expect("clean replay");
        assert_eq!(owed, 2, "both requests decide a match");

        let mut counters = CounterSnapshot {
            memcpy_paid: 4,
            memcpy_skipped: 1,
            transfers: 6,
            export_calls: 5,
            import_calls: 2,
            ..Default::default()
        };
        // 2 owed matches × 3 exporter processes = 6 transfers: consistent.
        check_metric_consistency(&counters, &[(ConnectionId(0), owed, 3)])
            .expect("consistent counters");

        counters.memcpy_skipped = 2;
        let err = check_metric_consistency(&counters, &[(ConnectionId(0), owed, 3)]).unwrap_err();
        assert!(err.to_string().contains("memcpy conservation broken"));

        counters.memcpy_skipped = 1;
        counters.transfers = 5;
        let err = check_metric_consistency(&counters, &[(ConnectionId(0), owed, 3)]).unwrap_err();
        assert!(matches!(err, OracleViolation::MetricConsistency { .. }));
        assert!(err.to_string().contains("ground-truth replay owes 6"));
    }

    /// Every `inert` row of the metrics table trips the gate on its own,
    /// and the violation names it.
    #[test]
    fn fault_free_gate_names_each_inert_counter() {
        let clean = CounterSnapshot::default();
        check_fault_free(&clean).expect("all-zero counters are inert");
        let inert = CounterSnapshot::flagged(INERT);
        assert!(inert.len() >= 9, "the table lost inert rows: {inert:?}");
        for name in &inert {
            let mut json = clean.to_json();
            let couplink_metrics::json::Value::Object(fields) = &mut json else {
                panic!("snapshot encodes as an object");
            };
            let slot = fields
                .iter_mut()
                .find(|(k, _)| k == name)
                .expect("inert row");
            slot.1 = 1u64.into();
            let dirty = CounterSnapshot::from_json(&json).expect("decodes");
            let err = check_fault_free(&dirty).unwrap_err().to_string();
            assert!(err.contains(&format!("{name} = 1")), "{err}");
        }
        let mut busy = clean;
        busy.ctrl_sent[CtrlClass::Response as usize] = 4;
        busy.wal_appends = 9;
        check_fault_free(&busy).expect("unflagged rows are not gated");
    }

    /// Balanced tx/rx passes, one missing frame fails, and a run that
    /// reconnected is skipped (salvage replay double-counts).
    #[test]
    fn net_conservation_catches_a_missing_frame() {
        let mut c = CounterSnapshot {
            net_frames: 3200,
            net_rx_frames: 3200,
            net_bytes: 4 << 20,
            net_rx_bytes: 4 << 20,
            ..CounterSnapshot::default()
        };
        check_net_conservation(&c).expect("balanced");
        c.net_rx_frames -= 1;
        let err = check_net_conservation(&c).unwrap_err().to_string();
        assert!(err.contains("tx/rx conservation broken"), "{err}");
        c.net_reconnects = 1;
        check_net_conservation(&c).expect("a reconnecting run is skipped");
    }

    #[test]
    fn equivalence_flags_divergence() {
        let des = vec![Some(ts(1.0)), None];
        let thr = vec![Some(ts(1.0)), Some(ts(2.0))];
        let err = check_runtime_equivalence(ConnectionId(2), &des, &thr).unwrap_err();
        assert!(matches!(err, OracleViolation::RuntimeEquivalence { .. }));
        check_runtime_equivalence(ConnectionId(2), &des, &des).expect("identical outcomes");
    }
}
