//! Deterministic fault injection for control-plane traffic.
//!
//! The simulation-testing harness (`couplink-simtest`) arms each runtime's
//! delivery path with *chaos*: seeded per-message delay and duplication,
//! link breaks and a rep crash. Every decision is a pure function of the
//! [`ChaosConfig`] seed and a per-transport message counter, so a failing
//! run replays exactly from its seed.
//!
//! # What may legally be perturbed
//!
//! Not every control message tolerates every fault. The protocol divides
//! [`CtrlMsg`] into two classes:
//!
//! * **Commutative** — `Response`, `BuddyHelp`, `Answer`, `AnswerBcast`.
//!   These are reordering-tolerant at their receivers: the rep keeps a
//!   completed-request map that absorbs late responses, an export port
//!   tolerates buddy-help racing a local resolution, and import ports key
//!   answers by request id. They may be delayed arbitrarily (within the
//!   bound).
//!
//!   Duplication is a strictly stronger demand — the receiver's handling
//!   must be *idempotent* — and only `Response` meets it (the rep tracks
//!   per-rank settlement, so a replayed response is absorbed). `Answer`
//!   and `AnswerBcast` are one-shot transfer directives: a duplicate makes
//!   the receiving rank send its data piece a second time, which the
//!   collective-order oracle rightly flags. A duplicated `BuddyHelp` can
//!   arrive after its request closed, which the port treats as a protocol
//!   error. See [`duplicable`].
//! * **FIFO** — `ImportCall`, `ImportRequest`, `ForwardRequest`. The
//!   protocol's strictly-increasing-timestamp invariants require these to
//!   arrive in per-stream order (a reordered `ForwardRequest` is a
//!   [`HistoryError::NotIncreasing`](couplink_time::HistoryError), not a
//!   tolerated fault), and they must never be duplicated. They may still be
//!   delayed as long as the stream order is preserved, which
//!   [`ChaosState`] enforces with a per-stream delivery watermark.
//!
//! * **Link layer** — `Ack`. It belongs to the reliability layer
//!   itself ([`super::reliable`]) and is *idempotent by construction*:
//!   acking a sequence number twice is a no-op (the pending entry is
//!   already gone). It is therefore both commutative **and**
//!   [`duplicable`] — chaos may delay, reorder and double-deliver it
//!   freely. It is never itself sequenced (an ack of an ack would regress
//!   infinitely), so it is also the only message the reliability layer
//!   sends best-effort.
//!
//! Extra latency from delay is bounded by [`ChaosConfig::max_delay`],
//! which is what makes the liveness oracle a theorem rather than a hope.
//!
//! # Permanent faults
//!
//! Delay and duplication lose nothing. Two further fault classes do, and
//! only the protocol heals them — each comes with the event that names it:
//!
//! * **Link break** ([`ChaosConfig::break_prob`]): a send breaks the link
//!   between its two endpoints. That copy, and every later copy on the
//!   link in either direction, is lost until the link re-forms
//!   `max_delay` later, as bytes queued on a socket die when it is reset;
//!   copies already in flight still arrive. At the re-form the senders
//!   resend what is pending on the link
//!   ([`Reliability::reform`](super::Reliability::reform)), so runtimes
//!   refuse to arm breaks without the reliability layer (they would be a
//!   guaranteed hang).
//! * **Crash/restart** ([`CrashFault`]): a rep (or, on the fabric, an agent)
//!   process dies after consuming its k-th message, optionally coming back
//!   `restart_after` seconds later. Recovery is rep failover: after a
//!   modelled detection delay a successor rebuilds the aggregation state
//!   from the consumed-message journal, and every sender resends what is
//!   pending into it (see `DESIGN.md`, "Fault model & recovery").
//!
//! Both are seeded and deterministic like everything else here.

use super::Endpoint;
use couplink_proto::{ConnectionId, CtrlMsg, Mutation, ProcResponse, RepAnswer};
use std::collections::HashMap;

/// Seeded fault-injection parameters. All probabilities are in `[0, 1]`;
/// all delays are in the runtime's clock unit (virtual seconds for the
/// simulator, wall seconds for the fabric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Root seed; every per-message decision derives from it.
    pub seed: u64,
    /// Maximum extra delivery jitter per message copy.
    pub max_delay: f64,
    /// Probability that a [`duplicable`] message is delivered twice.
    pub duplicate_prob: f64,
    /// Probability that a send breaks the link between its endpoints: the
    /// copy and every later one on the link are lost until it re-forms
    /// [`max_delay`](ChaosConfig::max_delay) later. Requires the
    /// reliability layer: runtimes must refuse to arm a non-zero value
    /// without it.
    pub break_prob: f64,
    /// Optional crash/restart fault.
    pub crash: Option<CrashFault>,
}

/// Which process a [`CrashFault`] kills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashTarget {
    /// The rep of program `prog` (recovered by failover).
    Rep(usize),
    /// An exporter agent thread (threaded fabric only; not recovered —
    /// exercised by the `catch_unwind` crash-surfacing path).
    Agent {
        /// Program index.
        prog: usize,
        /// Process rank within the program.
        rank: usize,
    },
}

/// A seeded crash/restart fault: the target dies immediately before
/// consuming its `after_msgs`-th message (that message is lost, unacked),
/// and optionally restarts `restart_after` seconds later. Without a
/// restart, a successor takes over after the runtime's failover delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashFault {
    /// Which process dies.
    pub target: CrashTarget,
    /// The fatal message index (0-based count of consumed messages).
    pub after_msgs: u64,
    /// Seconds until the process restarts, `None` to rely on failover.
    pub restart_after: Option<f64>,
}

/// Every fault a run can be given, in one value: both in-process runtimes
/// take it as [`Knobs::faults`](super::Knobs::faults) and each layer reads
/// only the part it fires. The default is a fault-free run.
///
/// Which runtime fires what:
/// - `chaos`: both. A [`CrashTarget::Agent`] crash is the fabric's alone;
///   the simulator refuses it.
/// - `drop_buddy_help` and `no_retransmit`: both, through [`Reliability`].
/// - `mutation`: [`Mutation::HelpSkip`] and [`Mutation::StaleSkip`] fire in
///   every export port and [`Mutation::RelayDrop`] in every import node, so
///   on both runtimes; [`Mutation::AckBeforeHandle`] fires only in the
///   fabric's reliability layer, which it arms; the simulator refuses it.
///
/// [`Reliability`]: super::Reliability
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Faults {
    /// Seeded delay, duplication, link-break and crash faults on control
    /// traffic.
    pub chaos: Option<ChaosConfig>,
    /// Every buddy-help announcement is sent but never arrives, metered as
    /// one `degraded_buffers` when it is sent. The run must degrade to
    /// conservative buffering, never misbehave.
    pub drop_buddy_help: bool,
    /// A re-form resends nothing and abandons what is pending (where
    /// breaks arm the layer), so the liveness oracle must fire. Otherwise
    /// every re-form resends alike.
    pub no_retransmit: bool,
    /// A deliberately unsound protocol rule, for mutation testing.
    pub mutation: Option<Mutation>,
}

impl Faults {
    /// Whether these faults arm the reliability layer (sequence numbers,
    /// acks, resends, journal): only for forced buddy-help loss,
    /// [`Mutation::AckBeforeHandle`] (a bug in that layer) or a plan that
    /// needs it ([`ChaosConfig::needs_reliability`]). Without them a run
    /// pays nothing for the layer.
    pub fn needs_reliability(&self) -> bool {
        self.drop_buddy_help
            || self.mutation == Some(Mutation::AckBeforeHandle)
            || self.chaos.is_some_and(|c| c.needs_reliability())
    }
}

impl ChaosConfig {
    /// A moderately hostile default: noticeable jitter, 20% duplication.
    pub fn from_seed(seed: u64) -> Self {
        ChaosConfig {
            seed,
            max_delay: 0.05,
            duplicate_prob: 0.2,
            break_prob: 0.0,
            crash: None,
        }
    }

    /// Whether this plan contains faults only the protocol's reliability
    /// layer can survive (link breaks or a crash). Runtimes arm the
    /// ack/resend/failover machinery exactly when this is true, keeping
    /// fault-free runs bit-identical to the pre-reliability engine.
    pub fn needs_reliability(&self) -> bool {
        self.break_prob > 0.0 || self.crash.is_some()
    }

    /// Relative extra delays (beyond the runtime's nominal latency) for
    /// each delivered copy of message number `n` to `to`: empty when this
    /// send breaks its link (see [`ChaosConfig::break_prob`]), more than
    /// one entry only for duplicable messages.
    ///
    /// Stateless and deterministic: the same `(seed, n, to, msg)` always
    /// yields the same plan. FIFO-class callers must additionally clamp the
    /// resulting delivery times to their stream watermark (see
    /// [`ChaosState::deliveries`]).
    pub fn extra_delays(&self, n: u64, to: Endpoint, msg: &CtrlMsg) -> Vec<f64> {
        let h = mix(mix(mix(self.seed, n), endpoint_bits(to)), msg_bits(msg));
        if unit(mix(h, 1)) < self.break_prob {
            return Vec::new();
        }
        let mut delays = vec![unit(mix(h, 2)) * self.max_delay];
        if duplicable(msg) && unit(mix(h, 3)) < self.duplicate_prob {
            delays.push(unit(mix(h, 4)) * self.max_delay);
        }
        delays
    }
}

/// Whether a control message's receiver is idempotent, so the message may
/// be delivered twice. `Response` qualifies because the rep tracks per-rank
/// settlement (this was originally the whole commutative class, until the
/// harness itself caught a duplicated `Answer` double-sending data); the
/// link-layer `Ack` qualifies by construction — acking a seq twice is a
/// no-op.
pub fn duplicable(msg: &CtrlMsg) -> bool {
    matches!(msg, CtrlMsg::Response { .. } | CtrlMsg::Ack { .. })
}

/// Whether a control message tolerates unbounded reordering (see the
/// module docs for the class analysis).
pub fn commutes(msg: &CtrlMsg) -> bool {
    match msg {
        CtrlMsg::Response { .. }
        | CtrlMsg::BuddyHelp { .. }
        | CtrlMsg::Answer { .. }
        | CtrlMsg::AnswerBcast { .. }
        // A coalesced tree frame carries only final answers (broadcast +
        // folded buddy-help), which settle a request like the messages it
        // replaces — reordering against other requests is harmless.
        | CtrlMsg::Coalesced { .. }
        | CtrlMsg::Ack { .. } => true,
        CtrlMsg::ImportCall { .. }
        | CtrlMsg::ImportRequest { .. }
        | CtrlMsg::ForwardRequest { .. } => false,
    }
}

/// Stateful chaos planner for a single-threaded runtime (the simulator):
/// tracks per-stream delivery watermarks so FIFO-class messages can be
/// delayed without ever being reordered within their stream.
#[derive(Debug)]
pub struct ChaosState {
    cfg: ChaosConfig,
    counter: u64,
    /// Latest planned delivery time per FIFO stream `(connection, dest)`.
    watermarks: HashMap<(ConnectionId, Endpoint), f64>,
}

impl ChaosState {
    /// A planner for one run.
    pub fn new(cfg: ChaosConfig) -> Self {
        ChaosState {
            cfg,
            counter: 0,
            watermarks: HashMap::new(),
        }
    }

    /// The configuration this planner runs.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Absolute delivery times for each copy of `msg`, given that an
    /// unperturbed delivery would happen at `base_at`: none when this send
    /// breaks its link. Commutative messages get one or two jittered
    /// copies; FIFO-class messages get exactly one copy, clamped so the
    /// stream `(conn, to)` never reorders.
    pub fn deliveries(&mut self, base_at: f64, to: Endpoint, msg: &CtrlMsg) -> Vec<f64> {
        let n = self.counter;
        self.counter += 1;
        let delays = self.cfg.extra_delays(n, to, msg);
        if commutes(msg) || delays.is_empty() {
            return delays.iter().map(|d| base_at + d).collect();
        }
        let at = base_at + delays[0];
        let wm = self
            .watermarks
            .entry((conn_of(msg), to))
            .or_insert(f64::NEG_INFINITY);
        let at = at.max(*wm);
        *wm = at;
        vec![at]
    }
}

fn conn_of(msg: &CtrlMsg) -> ConnectionId {
    match *msg {
        CtrlMsg::ImportCall { conn, .. }
        | CtrlMsg::ImportRequest { conn, .. }
        | CtrlMsg::ForwardRequest { conn, .. }
        | CtrlMsg::Response { conn, .. }
        | CtrlMsg::BuddyHelp { conn, .. }
        | CtrlMsg::Answer { conn, .. }
        | CtrlMsg::AnswerBcast { conn, .. }
        | CtrlMsg::Coalesced { conn, .. } => conn,
        // Link-layer messages are commutative, so no FIFO stream exists.
        CtrlMsg::Ack { .. } => unreachable!("link-layer messages have no FIFO stream"),
    }
}

/// splitmix64 finalizer over an accumulating state: the workhorse behind
/// every seeded decision.
fn mix(state: u64, v: u64) -> u64 {
    let mut z = state
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(v.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn endpoint_bits(e: Endpoint) -> u64 {
    match e {
        Endpoint::Proc { prog, rank } => ((prog as u64) << 32) | rank as u64,
        Endpoint::Rep { prog } => (1 << 63) | prog as u64,
    }
}

fn msg_bits(msg: &CtrlMsg) -> u64 {
    match *msg {
        CtrlMsg::ImportCall { conn, rank, ts } => mix(
            mix(1, ((conn.0 as u64) << 32) | rank.0 as u64),
            ts.value().to_bits(),
        ),
        CtrlMsg::ImportRequest { conn, req, ts } => mix(
            mix(2, ((conn.0 as u64) << 32) | req.0),
            ts.value().to_bits(),
        ),
        CtrlMsg::ForwardRequest { conn, req, ts } => mix(
            mix(3, ((conn.0 as u64) << 32) | req.0),
            ts.value().to_bits(),
        ),
        CtrlMsg::Response {
            conn,
            req,
            rank,
            resp,
        } => mix(
            mix(mix(4, ((conn.0 as u64) << 32) | req.0), rank.0 as u64),
            response_bits(resp),
        ),
        CtrlMsg::BuddyHelp { conn, req, answer } => {
            mix(mix(5, ((conn.0 as u64) << 32) | req.0), answer_bits(answer))
        }
        CtrlMsg::Answer { conn, req, answer } => {
            mix(mix(6, ((conn.0 as u64) << 32) | req.0), answer_bits(answer))
        }
        CtrlMsg::AnswerBcast { conn, req, answer } => {
            mix(mix(7, ((conn.0 as u64) << 32) | req.0), answer_bits(answer))
        }
        CtrlMsg::Ack { seq } => mix(8, seq),
        CtrlMsg::Coalesced {
            conn,
            req,
            answer,
            role,
        } => mix(
            mix(
                mix(10, ((conn.0 as u64) << 32) | req.0),
                answer_bits(answer),
            ),
            role as u64,
        ),
    }
}

fn response_bits(r: ProcResponse) -> u64 {
    match r {
        ProcResponse::Match(t) => mix(1, t.value().to_bits()),
        ProcResponse::NoMatch => 2,
        ProcResponse::Pending { latest } => mix(3, latest.map_or(0, |t| t.value().to_bits())),
    }
}

fn answer_bits(a: RepAnswer) -> u64 {
    match a {
        RepAnswer::Match(t) => mix(1, t.value().to_bits()),
        RepAnswer::NoMatch => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_proto::{Rank, RequestId};
    use couplink_time::ts;

    fn fwd(conn: u32, req: u64) -> CtrlMsg {
        CtrlMsg::ForwardRequest {
            conn: ConnectionId(conn),
            req: RequestId(req),
            ts: ts(10.0 + req as f64),
        }
    }

    fn resp(conn: u32, req: u64) -> CtrlMsg {
        CtrlMsg::Response {
            conn: ConnectionId(conn),
            req: RequestId(req),
            rank: Rank(0),
            resp: ProcResponse::NoMatch,
        }
    }

    #[test]
    fn decisions_are_deterministic() {
        let cfg = ChaosConfig::from_seed(42);
        let to = Endpoint::Proc { prog: 0, rank: 1 };
        for n in 0..50 {
            assert_eq!(
                cfg.extra_delays(n, to, &fwd(0, n)),
                cfg.extra_delays(n, to, &fwd(0, n))
            );
        }
    }

    #[test]
    fn fifo_class_is_never_duplicated() {
        let cfg = ChaosConfig {
            duplicate_prob: 1.0,
            ..ChaosConfig::from_seed(7)
        };
        let to = Endpoint::Proc { prog: 0, rank: 0 };
        for n in 0..100 {
            assert_eq!(cfg.extra_delays(n, to, &fwd(0, n)).len(), 1);
            assert_eq!(cfg.extra_delays(n, to, &resp(0, n)).len(), 2);
        }
    }

    /// One-shot directives must never be duplicated even at probability 1:
    /// a doubled `Answer` makes a rank send its data piece twice.
    #[test]
    fn one_shot_directives_are_never_duplicated() {
        let cfg = ChaosConfig {
            duplicate_prob: 1.0,
            ..ChaosConfig::from_seed(11)
        };
        let to = Endpoint::Proc { prog: 0, rank: 0 };
        for n in 0..100 {
            let one_shot = [
                CtrlMsg::Answer {
                    conn: ConnectionId(0),
                    req: RequestId(n),
                    answer: RepAnswer::Match(ts(1.0)),
                },
                CtrlMsg::AnswerBcast {
                    conn: ConnectionId(0),
                    req: RequestId(n),
                    answer: RepAnswer::NoMatch,
                },
                CtrlMsg::BuddyHelp {
                    conn: ConnectionId(0),
                    req: RequestId(n),
                    answer: RepAnswer::NoMatch,
                },
            ];
            for msg in one_shot {
                assert!(commutes(&msg) && !duplicable(&msg));
                assert_eq!(cfg.extra_delays(n, to, &msg).len(), 1);
            }
        }
    }

    /// An ack is idempotent by construction, so chaos *must* be allowed to
    /// double-deliver it: at duplication probability 1 the plan always
    /// carries two copies (and it stays commutative — it never touches a
    /// FIFO watermark).
    #[test]
    fn ack_is_duplicable() {
        let cfg = ChaosConfig {
            duplicate_prob: 1.0,
            ..ChaosConfig::from_seed(13)
        };
        let to = Endpoint::Proc { prog: 0, rank: 1 };
        for n in 0..100 {
            let msg = CtrlMsg::Ack { seq: n };
            assert!(msg.is_link_layer());
            assert!(commutes(&msg) && duplicable(&msg), "{msg:?}");
            assert_eq!(cfg.extra_delays(n, to, &msg).len(), 2, "{msg:?}");
        }
    }

    /// A link break is seeded per send, hits roughly at the configured
    /// rate, and leaves no copy; without breaks every plan has a copy.
    #[test]
    fn link_breaks_are_seeded_per_send() {
        let cfg = ChaosConfig {
            break_prob: 0.3,
            ..ChaosConfig::from_seed(21)
        };
        let to = Endpoint::Rep { prog: 1 };
        let mut broke = 0;
        for n in 0..1000 {
            let plan = cfg.extra_delays(n, to, &resp(0, n));
            assert_eq!(plan, cfg.extra_delays(n, to, &resp(0, n)), "deterministic");
            broke += u64::from(plan.is_empty());
        }
        assert!((150..450).contains(&broke), "break rate off: {broke}/1000");
        let off = ChaosConfig::from_seed(21);
        assert!(!off.needs_reliability());
        assert!((0..100).all(|n| !off.extra_delays(n, to, &resp(0, n)).is_empty()));
        assert!(cfg.needs_reliability());
    }

    /// The one "arm the layer" rule: only faults the layer fires (forced
    /// buddy-help loss, a bug inside it, a plan with breaks) arm it.
    #[test]
    fn faults_arm_reliability_only_for_what_it_fires() {
        let arms = |f: Faults| f.needs_reliability();
        assert!(!arms(Faults::default()));
        assert!(!arms(Faults {
            no_retransmit: true,
            chaos: Some(ChaosConfig::from_seed(1)),
            mutation: Some(Mutation::HelpSkip),
            ..Faults::default()
        }));
        assert!(arms(Faults {
            drop_buddy_help: true,
            ..Faults::default()
        }));
        assert!(arms(Faults {
            mutation: Some(Mutation::AckBeforeHandle),
            ..Faults::default()
        }));
        assert!(arms(Faults {
            chaos: Some(ChaosConfig {
                break_prob: 0.1,
                ..ChaosConfig::from_seed(1)
            }),
            ..Faults::default()
        }));
    }

    #[test]
    fn delays_are_bounded() {
        let cfg = ChaosConfig {
            duplicate_prob: 1.0,
            ..ChaosConfig::from_seed(3)
        };
        let to = Endpoint::Rep { prog: 2 };
        for n in 0..100 {
            for d in cfg.extra_delays(n, to, &resp(1, n)) {
                assert!((0.0..=cfg.max_delay).contains(&d));
            }
        }
    }

    #[test]
    fn fifo_stream_never_reorders() {
        let mut state = ChaosState::new(ChaosConfig {
            max_delay: 0.5,
            ..ChaosConfig::from_seed(11)
        });
        let to = Endpoint::Proc { prog: 1, rank: 0 };
        let mut last = f64::NEG_INFINITY;
        for (n, base) in (0..200).map(|i| (i, i as f64 * 0.001)) {
            let at = state.deliveries(base, to, &fwd(0, n))[0];
            assert!(at >= last, "stream reordered: {at} < {last}");
            assert!(at >= base, "delivered before emission");
            last = at;
        }
    }

    #[test]
    fn fifo_streams_are_independent_per_connection() {
        let mut state = ChaosState::new(ChaosConfig::from_seed(5));
        let to = Endpoint::Proc { prog: 0, rank: 0 };
        // A huge delay on conn 0 must not hold back conn 1's stream.
        let a = state.deliveries(0.0, to, &fwd(0, 0))[0];
        let b = state.deliveries(0.0, to, &fwd(1, 0))[0];
        assert!(a <= ChaosConfig::from_seed(5).max_delay);
        assert!(b <= ChaosConfig::from_seed(5).max_delay);
    }

    #[test]
    fn commutative_copies_ignore_watermarks() {
        let cfg = ChaosConfig {
            duplicate_prob: 1.0,
            ..ChaosConfig::from_seed(9)
        };
        let mut state = ChaosState::new(cfg);
        let to = Endpoint::Rep { prog: 0 };
        let times = state.deliveries(1.0, to, &resp(0, 0));
        assert_eq!(times.len(), 2);
        for t in times {
            assert!(t >= 1.0);
        }
    }
}
