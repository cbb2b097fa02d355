//! The reliability layer: sequence numbers, acks, timeouts and bounded
//! exponential-backoff retransmit over unreliable links.
//!
//! PR 2's chaos layer healed its own drops inside the transport wrapper —
//! the protocol never saw a fault. This module moves recovery where it
//! belongs: every sequenced control message stays *pending* at its sender
//! until the receiver acknowledges it, and an expired ack deadline
//! retransmits it with exponential backoff. Both runtimes drive the same
//! state machine through the [`Clock`](super::Clock) abstraction: the
//! discrete-event simulator feeds virtual time and schedules a retry-check
//! event at [`Reliability::next_deadline`]; the threaded fabric feeds wall
//! time from its pump task.
//!
//! It also owns the two per-message disciplines every runtime shares, so no
//! caller re-implements them: [`send_step`] (meter → register → forced
//! buddy-help loss → replay suppression → loss draw) on the way out, and
//! [`Reliability::admit`] (dedup/hold-back → ack metering →
//! journal-before-ack) on the way in. A runtime only adds what is its own:
//! a latency and an event on one side, a shard lock and a mailbox push on
//! the other.
//!
//! # Delivery disciplines
//!
//! Messages fall into four disciplines, matching the chaos class analysis
//! ([`super::chaos`]):
//!
//! * **Ordered + reliable** — the FIFO class (`ImportCall`,
//!   `ImportRequest`, `ForwardRequest`). Each carries an ordered-substream
//!   index (`ord`) per directed link; the receiver delivers strictly in
//!   `ord` order, holding back early arrivals, so a retransmitted gap can
//!   never be overtaken (the strictly-increasing-timestamp invariants
//!   survive permanent loss).
//! * **Unordered + reliable** — `Response`, `Answer`, `AnswerBcast`.
//!   Sequenced for dedup and retransmit but delivered on arrival.
//! * **Unordered + expendable** — `BuddyHelp`. The announcement is *only*
//!   an optimization: losing it costs a memcpy, never correctness. It gets
//!   a small retry budget ([`RetryPolicy::expendable_attempts`]) and is
//!   then abandoned, metered as `degraded_buffers` — the graceful
//!   degradation to pre-optimization buffering.
//! * **Link layer** — `Ack`. Never sequenced (an ack of an ack would
//!   regress infinitely); idempotent by construction instead, so
//!   best-effort delivery suffices: a lost ack is healed by the original
//!   sender's retransmit, which the receiver dedups and re-acks.
//!
//! # The ack-on-delivery invariant
//!
//! A message is acknowledged exactly when it is **delivered to its node**
//! (processed and journaled), not when it reaches the endpoint's mailbox.
//! Held-back ordered messages are therefore unacked and keep being
//! retransmitted until their gap fills; a rep that crashes loses only
//! unacked messages, which senders retransmit to its successor. Journal =
//! processed = acked is what makes crash recovery exact (see
//! `DESIGN.md`, "Fault model & recovery").
//!
//! # Liveness
//!
//! Under per-attempt loss probability `p < 1`, independent seeded draws
//! make eventual delivery certain; backoff is capped
//! ([`RetryPolicy::max_timeout`]) so retry intervals stay bounded. The
//! attempt cap for reliable traffic is a backstop far beyond any plausible
//! loss run (`0.2^32`), turning a would-be infinite loop into a metered
//! abandonment the liveness oracle then reports.

use super::{chaos, ctrl_class, ChaosConfig, Endpoint};
use couplink_metrics::{CtrlClass, EngineMetrics};
use couplink_proto::CtrlMsg;
use couplink_time::Timestamp;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Timeout/backoff parameters of the reliability layer, in clock seconds
/// (virtual on the simulator, scaled wall on the fabric).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First ack deadline after a send.
    pub base_timeout: f64,
    /// Deadline multiplier per retransmit (exponential backoff).
    pub backoff: f64,
    /// Backoff cap: no retry interval exceeds this.
    pub max_timeout: f64,
    /// Attempt cap for reliable traffic (liveness backstop, never reached
    /// under the fault model's loss rates).
    pub max_attempts: u32,
    /// Attempt cap for expendable traffic (buddy-help), after which the
    /// announcement is abandoned and metered as a degraded buffer.
    pub expendable_attempts: u32,
    /// Whether expired deadlines retransmit at all. `false` only in
    /// negative tests proving the liveness oracle fires without recovery.
    pub retransmit: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_timeout: 0.5,
            backoff: 2.0,
            max_timeout: 2.0,
            max_attempts: 32,
            expendable_attempts: 3,
            retransmit: true,
        }
    }
}

impl RetryPolicy {
    /// The retry interval after `attempt` sends (capped exponential).
    pub fn interval(&self, attempt: u32) -> f64 {
        (self.base_timeout * self.backoff.powi(attempt.min(30) as i32)).min(self.max_timeout)
    }
}

/// Whether a message rides the expendable discipline (bounded retries,
/// abandoned rather than guaranteed).
pub fn expendable(msg: &CtrlMsg) -> bool {
    matches!(
        msg,
        CtrlMsg::BuddyHelp { .. }
            | CtrlMsg::Coalesced {
                help: true,
                bcast: false,
                ..
            }
    )
}

/// Per-message wire metadata added by the reliability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireMeta {
    /// The sending endpoint (acks go back here).
    pub from: Endpoint,
    /// Link-unique sequence number (dedup + ack key).
    pub seq: u64,
    /// Position in the link's ordered substream, for FIFO-class messages.
    pub ord: Option<u64>,
}

/// What an expired deadline turned into.
#[derive(Debug, Clone, PartialEq)]
pub enum Expiry {
    /// Retransmit this copy (same meta: retransmits keep their seq).
    Resend {
        /// Destination endpoint.
        to: Endpoint,
        /// Original wire metadata.
        meta: WireMeta,
        /// The message.
        msg: CtrlMsg,
    },
    /// The send was abandoned (expendable budget exhausted, reliable-cap
    /// backstop hit, or retransmit disabled).
    Abandon {
        /// Destination endpoint.
        to: Endpoint,
        /// The message given up on.
        msg: CtrlMsg,
        /// Whether it was expendable (a metered degradation) rather than a
        /// reliable send (a liveness loss).
        expendable: bool,
    },
}

/// What receiving one wire packet produced.
#[derive(Debug, Default, PartialEq)]
pub struct Received {
    /// Messages now deliverable to the node, in delivery order, each with
    /// the metadata to journal.
    pub deliver: Vec<(WireMeta, CtrlMsg)>,
    /// Sequence numbers to ack back to the sender (includes re-acks of
    /// duplicates whose first ack was lost).
    pub acks: Vec<u64>,
}

/// One record of the sequenced-message journal.
///
/// The journal is the recovery substrate of the ack-on-delivery invariant:
/// a message is acked exactly when it has been processed *and* journaled,
/// so replaying the journal in order reconstructs every consumer's state.
/// Two record kinds cover both recovery paths:
///
/// * [`Delivered`](WalRecord::Delivered) — a sequenced control message was
///   delivered (processed, journaled, acked) at an endpoint. Replay
///   re-injects it through the normal delivery path, which rebuilds node
///   state, receive-side dedup/ordering state and the metrics it metered.
/// * [`AppExport`](WalRecord::AppExport) — an application export call
///   completed at a rank. Export *data* is not logged: couplink payloads
///   are deterministic functions of `(timestamp, region)`, so replay
///   regenerates them and only the schedule position must be durable.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A sequenced control message delivered at `ep`.
    Delivered {
        /// The consuming endpoint.
        ep: Endpoint,
        /// The wire metadata to journal (dedup + ordering state).
        meta: WireMeta,
        /// The message itself.
        msg: CtrlMsg,
    },
    /// An application export completed at rank endpoint `ep`.
    AppExport {
        /// The exporting rank's endpoint.
        ep: Endpoint,
        /// The export region index within the program's owned layout.
        region: u32,
        /// The export timestamp.
        ts: Timestamp,
    },
}

/// The pluggable write-ahead journal behind the reliability layer.
///
/// The DES and the fault-free threaded fabric use [`MemWal`] — exactly the
/// per-endpoint `Vec` journal the in-process crash recovery has always
/// replayed, so clean runs stay bit-identical. `couplink-node` plugs in a
/// file-backed implementation (`net::wal::FileWal`) whose records survive
/// SIGKILL: the restarted process replays them to rebuild its half of the
/// session. Implementations may panic on unrecoverable I/O errors — a
/// durability layer that cannot write is a dead process, not a degraded
/// one.
pub trait Wal: Send {
    /// Journals one record.
    fn append(&mut self, rec: &WalRecord);

    /// Makes every appended record durable. Called before a sequenced
    /// frame or ack escapes the process (no-op for the in-memory backend);
    /// implementations batch — many appends per sync.
    fn sync(&mut self);

    /// The delivered-message journal of one endpoint, in delivery order —
    /// what crash recovery replays into the successor.
    fn delivered(&self, ep: Endpoint) -> Vec<(WireMeta, CtrlMsg)>;

    /// Discards journal history that can no longer be needed for replay.
    /// Only call once the session is past needing recovery (clean
    /// shutdown); a no-op for backends without retained storage.
    fn prune(&mut self) {}
}

/// The in-memory journal backend: per-endpoint delivery logs, no
/// durability. Semantically identical to the `Vec<(WireMeta, CtrlMsg)>`
/// journals the in-process failover replay has used since PR 4.
#[derive(Debug, Default)]
pub struct MemWal {
    delivered: BTreeMap<Endpoint, Vec<(WireMeta, CtrlMsg)>>,
}

impl MemWal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Wal for MemWal {
    fn append(&mut self, rec: &WalRecord) {
        // Export schedule positions only matter to a durable backend (an
        // in-process failover never loses the app threads).
        if let WalRecord::Delivered { ep, meta, msg } = rec {
            self.delivered.entry(*ep).or_default().push((*meta, *msg));
        }
    }

    fn sync(&mut self) {}

    fn delivered(&self, ep: Endpoint) -> Vec<(WireMeta, CtrlMsg)> {
        self.delivered.get(&ep).cloned().unwrap_or_default()
    }
}

#[derive(Debug)]
struct PendingSend {
    to: Endpoint,
    msg: CtrlMsg,
    ord: Option<u64>,
    deadline: f64,
    attempt: u32,
}

#[derive(Debug, Default)]
struct SendLink {
    next_seq: u64,
    next_ord: u64,
    pending: BTreeMap<u64, PendingSend>,
}

#[derive(Debug, Default)]
struct RecvLink {
    /// Seqs already delivered to the node (acked); re-ack on sight.
    delivered: std::collections::BTreeSet<u64>,
    /// Next ordered-substream index the node may consume.
    next_ord: u64,
    /// Early ordered arrivals, keyed by `ord`, holding `(seq, msg)`.
    holdback: BTreeMap<u64, (u64, CtrlMsg)>,
}

/// The reliability state machine for one run: per-directed-link sender and
/// receiver state. All iteration is over `BTreeMap`s so every operation is
/// deterministic given the same call sequence.
#[derive(Debug)]
pub struct Reliability {
    policy: RetryPolicy,
    send: BTreeMap<(Endpoint, Endpoint), SendLink>,
    recv: BTreeMap<(Endpoint, Endpoint), RecvLink>,
    metrics: Arc<EngineMetrics>,
    /// Degradation knob: every expendable send registers but never leaves.
    drop_buddy_help: bool,
    /// The fault plan feeding the permanent-loss draw, if any.
    loss: Option<ChaosConfig>,
    /// Monotone per-attempt counter feeding the loss draw: every attempt
    /// (first send, retransmit or ack) draws independently, so a retried
    /// message is eventually delivered with probability one.
    nonce: u64,
    /// A restarted process is replaying its journal (see
    /// [`Reliability::set_replaying`]).
    replaying: bool,
}

/// How one message enters the wire — the parameter of [`send_step`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendKind {
    /// Traffic the sender originated: metered per class, registered.
    Origin,
    /// A tree hop forwarded down a subtree: metered as `ctrl_relay`,
    /// registered like origin traffic.
    Relay,
    /// A retransmit of a pending entry: metered per class, keeps its
    /// original metadata (no re-registration).
    Resend(WireMeta),
    /// A link-layer ack leaving its receiver: already metered by
    /// [`Reliability::admit`], never registered, still subject to loss.
    Ack,
}

/// What [`send_step`] decided for one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendDecision {
    /// Hand it to the wire with this metadata (`None` when unsequenced).
    Deliver(Option<WireMeta>),
    /// Registered (or still pending) but deliberately not moved: forced
    /// buddy-help loss, or journal replay regenerating traffic whose
    /// delivery comes from the journal. The pending entry retransmits or
    /// abandons it later.
    Suppressed,
    /// Lost on this attempt by the seeded draw; the retransmit heals it.
    Lost,
}

/// The one per-message send step every runtime calls before moving a
/// control message: meter it, register it with the reliability layer
/// (when armed), and decide whether this copy leaves at all. `rel: None`
/// is the fault-free fast path — two counter increments, no lock, no
/// allocation.
pub fn send_step(
    metrics: &EngineMetrics,
    rel: Option<&mut Reliability>,
    kind: SendKind,
    from: Endpoint,
    to: Endpoint,
    msg: &CtrlMsg,
    now: f64,
) -> SendDecision {
    if matches!(kind, SendKind::Resend(_)) && rel.as_ref().is_some_and(|r| r.replaying) {
        // A retransmit landing mid-replay would deliver (and ack) while
        // journaling is off; the entry stays pending for after replay.
        return SendDecision::Suppressed;
    }
    match kind {
        SendKind::Origin | SendKind::Resend(_) => metrics.ctrl(ctrl_class(msg)).inc(),
        SendKind::Relay => metrics.ctrl_relay.inc(),
        SendKind::Ack => {}
    }
    if matches!(msg, CtrlMsg::Coalesced { .. }) {
        metrics.ctrl_coalesced.inc();
    }
    let Some(rel) = rel else {
        return SendDecision::Deliver(None);
    };
    let meta = match kind {
        SendKind::Origin | SendKind::Relay => rel.register(from, to, msg, now),
        SendKind::Resend(meta) => Some(meta),
        SendKind::Ack => None,
    };
    // From here on the copy may vanish; the pending entry just registered
    // is what later retransmits (or abandons) it.
    if (rel.drop_buddy_help && expendable(msg)) || (rel.replaying && meta.is_some()) {
        return SendDecision::Suppressed;
    }
    if let Some(cfg) = &rel.loss {
        let n = rel.nonce;
        rel.nonce += 1;
        if cfg.lost(n, to, msg) {
            return SendDecision::Lost;
        }
    }
    SendDecision::Deliver(meta)
}

impl Reliability {
    /// A fresh layer with the given policy, metering into `metrics`.
    pub fn new(policy: RetryPolicy, metrics: Arc<EngineMetrics>) -> Self {
        Reliability {
            policy,
            send: BTreeMap::new(),
            recv: BTreeMap::new(),
            metrics,
            drop_buddy_help: false,
            loss: None,
            nonce: 0,
            replaying: false,
        }
    }

    /// Arms the faults [`send_step`] applies on this layer's links: forced
    /// buddy-help loss and the fault plan's permanent-loss draw.
    pub fn with_faults(mut self, drop_buddy_help: bool, loss: Option<ChaosConfig>) -> Self {
        self.drop_buddy_help = drop_buddy_help;
        self.loss = loss;
        self
    }

    /// Enters or leaves journal-replay mode. While replaying, regenerated
    /// sequenced traffic is registered (rebuilding sequence counters and
    /// pending state) but not moved — deliveries come exclusively from the
    /// journal injection — and retransmits wait for replay to end.
    pub fn set_replaying(&mut self, replaying: bool) {
        self.replaying = replaying;
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Registers an outbound message on the link `from → to`, assigning its
    /// sequence number and first ack deadline. Returns `None` for
    /// link-layer messages, which ride unsequenced.
    pub fn register(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        msg: &CtrlMsg,
        now: f64,
    ) -> Option<WireMeta> {
        if msg.is_link_layer() {
            return None;
        }
        let link = self.send.entry((from, to)).or_default();
        let seq = link.next_seq;
        link.next_seq += 1;
        let ord = (!chaos::commutes(msg)).then(|| {
            let o = link.next_ord;
            link.next_ord += 1;
            o
        });
        link.pending.insert(
            seq,
            PendingSend {
                to,
                msg: *msg,
                ord,
                deadline: now + self.policy.interval(0),
                attempt: 1,
            },
        );
        Some(WireMeta { from, seq, ord })
    }

    /// Processes an ack for `seq` on the link `sender → acker`. Returns
    /// whether the ack was fresh; a duplicate ack is a no-op (idempotent).
    pub fn on_ack(&mut self, sender: Endpoint, acker: Endpoint, seq: u64) -> bool {
        self.send
            .get_mut(&(sender, acker))
            .map(|l| l.pending.remove(&seq).is_some())
            .unwrap_or(false)
    }

    /// Processes one arriving wire packet addressed to `to`. Applies dedup
    /// and ordered hold-back; everything in [`Received::deliver`] must be
    /// journaled and handed to the node, and every seq in
    /// [`Received::acks`] acked back to `meta.from`.
    pub fn receive(&mut self, meta: WireMeta, to: Endpoint, msg: CtrlMsg) -> Received {
        let link = self.recv.entry((meta.from, to)).or_default();
        let mut out = Received::default();
        if link.delivered.contains(&meta.seq) {
            // Already processed; the original ack was lost. Re-ack only.
            out.acks.push(meta.seq);
            return out;
        }
        match meta.ord {
            None => {
                link.delivered.insert(meta.seq);
                out.acks.push(meta.seq);
                out.deliver.push((meta, msg));
            }
            Some(k) => {
                // Idempotent overwrite: a retransmit of a held-back packet
                // carries the same (seq, ord).
                link.holdback.insert(k, (meta.seq, msg));
                while let Some((seq, m)) = link.holdback.remove(&link.next_ord) {
                    let dm = WireMeta {
                        from: meta.from,
                        seq,
                        ord: Some(link.next_ord),
                    };
                    link.delivered.insert(seq);
                    link.next_ord += 1;
                    out.acks.push(seq);
                    out.deliver.push((dm, m));
                }
            }
        }
        out
    }

    /// The one receive step every runtime calls on an arriving sequenced
    /// packet: [`receive`](Reliability::receive) it, meter each ack it owes
    /// as `Ack` control traffic, and journal every accepted delivery
    /// *before* the caller can let an ack escape — an acked message must
    /// survive a crash, because its sender will never retransmit it. The
    /// caller moves the acks (an event, an in-place `on_ack`, a socket
    /// frame) and hands the deliveries to their node, in order. `journal`
    /// is the runtime's [`Wal::append`] (a no-op while a journal is being
    /// replayed: its records are already durable).
    pub fn admit(
        &mut self,
        meta: WireMeta,
        to: Endpoint,
        msg: CtrlMsg,
        mut journal: impl FnMut(&WalRecord),
    ) -> Received {
        let got = self.receive(meta, to, msg);
        self.metrics.ctrl(CtrlClass::Ack).add(got.acks.len() as u64);
        for &(meta, msg) in &got.deliver {
            journal(&WalRecord::Delivered { ep: to, meta, msg });
        }
        got
    }

    /// All sends whose ack deadline expired at `now`: retransmits (with
    /// their deadline pushed out by capped exponential backoff) and
    /// abandonments. Each expiry counts one `timeouts`; each resend one
    /// `retransmits`; each expendable abandonment one `degraded_buffers`.
    pub fn due(&mut self, now: f64) -> Vec<Expiry> {
        let mut out = Vec::new();
        for (&(from, _to), link) in self.send.iter_mut() {
            let expired: Vec<u64> = link
                .pending
                .iter()
                .filter(|(_, p)| p.deadline <= now)
                .map(|(&s, _)| s)
                .collect();
            for seq in expired {
                self.metrics.timeouts.inc();
                let p = link.pending.get_mut(&seq).expect("expired seq pending");
                let cap = if expendable(&p.msg) {
                    self.policy.expendable_attempts
                } else {
                    self.policy.max_attempts
                };
                if !self.policy.retransmit || p.attempt >= cap {
                    let p = link.pending.remove(&seq).expect("expired seq pending");
                    let exp = expendable(&p.msg);
                    if exp {
                        self.metrics.degraded_buffers.inc();
                    }
                    out.push(Expiry::Abandon {
                        to: p.to,
                        msg: p.msg,
                        expendable: exp,
                    });
                } else {
                    p.deadline = now + self.policy.interval(p.attempt);
                    p.attempt += 1;
                    self.metrics.retransmits.inc();
                    out.push(Expiry::Resend {
                        to: p.to,
                        meta: WireMeta {
                            from,
                            seq,
                            ord: p.ord,
                        },
                        msg: p.msg,
                    });
                }
            }
        }
        out
    }

    /// The earliest pending ack deadline, if any — when the runtime should
    /// next call [`Reliability::due`].
    pub fn next_deadline(&self) -> Option<f64> {
        self.send
            .values()
            .flat_map(|l| l.pending.values())
            .map(|p| p.deadline)
            .fold(None, |acc, d| {
                Some(acc.map_or(d, |a: f64| if d < a { d } else { a }))
            })
    }

    /// Number of sends still awaiting an ack.
    pub fn pending_len(&self) -> usize {
        self.send.values().map(|l| l.pending.len()).sum()
    }

    /// Crashes endpoint `ep` as a receiver: its receive-side link state
    /// (dedup sets, hold-back buffers) dies with it. Held-back messages
    /// were never acked, so their senders keep retransmitting them to the
    /// successor. Send-side state *out of* `ep` is preserved: the successor
    /// replays the consumed-message journal, which deterministically
    /// regenerates the same outbound traffic, so keeping the pending map is
    /// equivalent to the successor re-deriving it.
    pub fn crash_endpoint(&mut self, ep: Endpoint) {
        self.recv.retain(|&(_, to), _| to != ep);
    }

    /// Fast-forwards every send link's sequence counter by `gap` — the
    /// last step of a restarted process's journal replay.
    ///
    /// Replay rebuilds send counters by regenerating outbound traffic,
    /// but regeneration is not count-exact: timing-dependent messages the
    /// first incarnation sent (pending-response updates as exports
    /// trickled in, buddy-help) are not reproduced when replay re-decides
    /// with full export knowledge, so the rebuilt counter can lag the
    /// pre-crash one. A lagging counter would hand a *fresh* post-restart
    /// send a sequence number its peer has already seen — and the peer's
    /// dedup would silently swallow a brand-new message. Jumping far past
    /// anything the previous incarnation can have sent keeps fresh sends
    /// fresh. Ordered-substream (`ord`) counters are deliberately
    /// untouched: the FIFO message classes are one-per-request and
    /// regenerate exactly, and a skipped `ord` would stall the receiver's
    /// hold-back forever.
    pub fn fast_forward_seqs(&mut self, gap: u64) {
        for link in self.send.values_mut() {
            link.next_seq += gap;
        }
    }

    /// Rebuilds `ep`'s receive-side dedup/ordering state from the journaled
    /// metadata of every message it had consumed before the crash — the
    /// successor's re-announcement step. After this, retransmits of
    /// already-journaled messages are re-acked instead of re-processed.
    pub fn restore_delivered(&mut self, ep: Endpoint, journal: &[(WireMeta, CtrlMsg)]) {
        for (meta, _) in journal {
            let link = self.recv.entry((meta.from, ep)).or_default();
            link.delivered.insert(meta.seq);
            if let Some(k) = meta.ord {
                link.next_ord = link.next_ord.max(k + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_proto::{ConnectionId, ProcResponse, Rank, RepAnswer, RequestId};
    use couplink_time::ts;

    const EXP: Endpoint = Endpoint::Proc { prog: 0, rank: 0 };
    const REP: Endpoint = Endpoint::Rep { prog: 0 };

    fn fwd(req: u64) -> CtrlMsg {
        CtrlMsg::ForwardRequest {
            conn: ConnectionId(0),
            req: RequestId(req),
            ts: ts(10.0 + req as f64),
        }
    }

    fn resp(req: u64) -> CtrlMsg {
        CtrlMsg::Response {
            conn: ConnectionId(0),
            req: RequestId(req),
            rank: Rank(0),
            resp: ProcResponse::NoMatch,
        }
    }

    fn help(req: u64) -> CtrlMsg {
        CtrlMsg::BuddyHelp {
            conn: ConnectionId(0),
            req: RequestId(req),
            answer: RepAnswer::NoMatch,
        }
    }

    fn layer() -> Reliability {
        Reliability::new(RetryPolicy::default(), Arc::new(EngineMetrics::new()))
    }

    #[test]
    fn ack_clears_pending_and_duplicate_ack_is_noop() {
        let mut r = layer();
        let meta = r.register(REP, EXP, &fwd(0), 0.0).expect("sequenced");
        assert_eq!(r.pending_len(), 1);
        assert!(r.on_ack(REP, EXP, meta.seq), "first ack is fresh");
        assert_eq!(r.pending_len(), 0);
        // The idempotence the chaos layer relies on to duplicate acks.
        assert!(!r.on_ack(REP, EXP, meta.seq), "duplicate ack is a no-op");
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn link_layer_messages_are_never_sequenced() {
        let mut r = layer();
        assert_eq!(r.register(REP, EXP, &CtrlMsg::Ack { seq: 3 }, 0.0), None);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn receiver_dedups_and_reacks() {
        let mut r = layer();
        let meta = r.register(EXP, REP, &resp(0), 0.0).unwrap();
        let first = r.receive(meta, REP, resp(0));
        assert_eq!(first.deliver.len(), 1);
        assert_eq!(first.acks, vec![meta.seq]);
        let dup = r.receive(meta, REP, resp(0));
        assert!(dup.deliver.is_empty(), "duplicate must not re-process");
        assert_eq!(dup.acks, vec![meta.seq], "but must re-ack");
    }

    #[test]
    fn ordered_messages_hold_back_until_the_gap_fills() {
        let mut r = layer();
        let m0 = r.register(REP, EXP, &fwd(0), 0.0).unwrap();
        let m1 = r.register(REP, EXP, &fwd(1), 0.0).unwrap();
        let m2 = r.register(REP, EXP, &fwd(2), 0.0).unwrap();
        assert_eq!((m0.ord, m1.ord, m2.ord), (Some(0), Some(1), Some(2)));
        // 2 and 1 arrive early: held back, unacked.
        assert_eq!(r.receive(m2, EXP, fwd(2)), Received::default());
        assert_eq!(r.receive(m1, EXP, fwd(1)), Received::default());
        // 0 arrives: all three deliver in order, all three acked.
        let got = r.receive(m0, EXP, fwd(0));
        let msgs: Vec<CtrlMsg> = got.deliver.iter().map(|(_, m)| *m).collect();
        assert_eq!(msgs, vec![fwd(0), fwd(1), fwd(2)]);
        assert_eq!(got.acks, vec![m0.seq, m1.seq, m2.seq]);
        // A retransmit of the held-back packet after delivery just re-acks.
        assert_eq!(r.receive(m1, EXP, fwd(1)).acks, vec![m1.seq]);
    }

    #[test]
    fn unordered_and_ordered_substreams_are_independent() {
        let mut r = layer();
        let mf = r.register(EXP, REP, &fwd(0), 0.0).unwrap();
        let mr = r.register(EXP, REP, &resp(0), 0.0).unwrap();
        assert_eq!(mr.ord, None);
        // The response must not wait behind the lost forward.
        let got = r.receive(mr, REP, resp(0));
        assert_eq!(got.deliver.len(), 1);
        let got = r.receive(mf, REP, fwd(0));
        assert_eq!(got.deliver.len(), 1);
    }

    #[test]
    fn expired_sends_retransmit_with_backoff_then_reliable_cap_holds() {
        let m = Arc::new(EngineMetrics::new());
        let mut r = Reliability::new(
            RetryPolicy {
                base_timeout: 1.0,
                backoff: 2.0,
                max_timeout: 4.0,
                max_attempts: 3,
                ..RetryPolicy::default()
            },
            m.clone(),
        );
        r.register(REP, EXP, &fwd(0), 0.0).unwrap();
        assert!(r.due(0.5).is_empty(), "deadline not reached");
        // t=1: first expiry retransmits, next interval 2s (backoff).
        let e = r.due(1.0);
        assert!(matches!(e[..], [Expiry::Resend { .. }]), "{e:?}");
        assert_eq!(r.next_deadline(), Some(3.0));
        // t=3: second retransmit, interval now capped at 4s.
        let e = r.due(3.0);
        assert!(matches!(e[..], [Expiry::Resend { .. }]));
        assert_eq!(r.next_deadline(), Some(7.0));
        // t=7: attempt cap reached — reliable abandon (the backstop).
        let e = r.due(7.0);
        assert!(
            matches!(
                e[..],
                [Expiry::Abandon {
                    expendable: false,
                    ..
                }]
            ),
            "{e:?}"
        );
        assert_eq!(r.pending_len(), 0);
        let snap = m.snapshot().counters;
        assert_eq!(snap.timeouts, 3);
        assert_eq!(snap.retransmits, 2);
        assert_eq!(
            snap.degraded_buffers, 0,
            "reliable abandon is not degradation"
        );
    }

    #[test]
    fn abandoned_buddy_help_is_metered_as_degradation() {
        let m = Arc::new(EngineMetrics::new());
        let mut r = Reliability::new(
            RetryPolicy {
                base_timeout: 1.0,
                backoff: 1.0,
                expendable_attempts: 2,
                ..RetryPolicy::default()
            },
            m.clone(),
        );
        r.register(REP, EXP, &help(0), 0.0).unwrap();
        assert!(matches!(r.due(1.0)[..], [Expiry::Resend { .. }]));
        let e = r.due(2.0);
        assert!(
            matches!(
                e[..],
                [Expiry::Abandon {
                    expendable: true,
                    ..
                }]
            ),
            "{e:?}"
        );
        assert_eq!(m.snapshot().counters.degraded_buffers, 1);
        assert_eq!(m.snapshot().counters.retransmits, 1);
    }

    /// With retransmit disabled (the negative-test knob), expiry abandons
    /// immediately: the protocol has no recovery and liveness is forfeit.
    #[test]
    fn disabled_retransmit_abandons_on_first_expiry() {
        let mut r = Reliability::new(
            RetryPolicy {
                retransmit: false,
                base_timeout: 1.0,
                ..RetryPolicy::default()
            },
            Arc::new(EngineMetrics::new()),
        );
        r.register(REP, EXP, &fwd(0), 0.0).unwrap();
        assert!(matches!(r.due(1.0)[..], [Expiry::Abandon { .. }]));
        assert_eq!(r.pending_len(), 0);
    }

    /// The send step, as a table: {origin, relay, resend} × {unarmed,
    /// armed, forced buddy-help loss, replaying, lost}. The frame is a
    /// coalesced help announcement, so every rule bites: it is classed as
    /// buddy-help, counted as coalesced, expendable and sequenced.
    #[test]
    fn send_step_table() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Mode {
            Unarmed,
            Armed,
            DropHelp,
            Replaying,
            Lost,
        }
        let frame = CtrlMsg::Coalesced {
            conn: ConnectionId(0),
            req: RequestId(0),
            answer: RepAnswer::NoMatch,
            bcast: false,
            help: true,
        };
        let total_loss = ChaosConfig {
            loss_prob: 1.0,
            ..ChaosConfig::from_seed(1)
        };
        let old = WireMeta {
            from: REP,
            seq: 41,
            ord: None,
        };
        let first = WireMeta {
            from: REP,
            seq: 0,
            ord: None,
        };
        for mode in [
            Mode::Unarmed,
            Mode::Armed,
            Mode::DropHelp,
            Mode::Replaying,
            Mode::Lost,
        ] {
            for kind in [SendKind::Origin, SendKind::Relay, SendKind::Resend(old)] {
                let resend = matches!(kind, SendKind::Resend(_));
                if mode == Mode::Unarmed && resend {
                    continue; // nothing is ever pending without a layer
                }
                let m = Arc::new(EngineMetrics::new());
                let mut layer = (mode != Mode::Unarmed).then(|| {
                    let mut r = Reliability::new(RetryPolicy::default(), m.clone()).with_faults(
                        mode == Mode::DropHelp,
                        (mode == Mode::Lost).then_some(total_loss),
                    );
                    r.set_replaying(mode == Mode::Replaying);
                    r
                });
                let got = send_step(&m, layer.as_mut(), kind, REP, EXP, &frame, 0.0);
                let case = format!("{mode:?} x {kind:?}");

                let meta = if resend { old } else { first };
                let want = match mode {
                    Mode::Unarmed => SendDecision::Deliver(None),
                    Mode::Armed => SendDecision::Deliver(Some(meta)),
                    Mode::DropHelp | Mode::Replaying => SendDecision::Suppressed,
                    Mode::Lost => SendDecision::Lost,
                };
                assert_eq!(got, want, "{case}");
                // Origin and relay sends register even when the copy then
                // vanishes; a resend never re-registers.
                let pending = layer.as_ref().map_or(0, Reliability::pending_len);
                assert_eq!(
                    pending,
                    usize::from(!resend && mode != Mode::Unarmed),
                    "{case}"
                );
                // Metering: per class for origin/resend, `ctrl_relay` for a
                // relay hop, `ctrl_coalesced` either way — except a resend
                // deferred by replay, which never happened.
                let metered = u64::from(!(resend && mode == Mode::Replaying));
                let relay = u64::from(kind == SendKind::Relay);
                let c = m.snapshot().counters;
                assert_eq!(
                    c.ctrl(CtrlClass::BuddyHelp),
                    metered - relay * metered,
                    "{case}"
                );
                assert_eq!(c.ctrl_relay, relay, "{case}");
                assert_eq!(c.ctrl_coalesced, metered, "{case}");
                assert_eq!(
                    c.ctrl_sent.iter().sum::<u64>(),
                    c.ctrl(CtrlClass::BuddyHelp),
                    "{case}"
                );
            }
        }
    }

    /// Acks ride the send step unregistered and unmetered (the receive
    /// step already counted them), but still draw for loss; the receive
    /// step journals every delivery it acks.
    #[test]
    fn acks_are_metered_at_admit_and_journaled_before_they_leave() {
        let m = Arc::new(EngineMetrics::new());
        let mut r = Reliability::new(RetryPolicy::default(), m.clone());
        let meta = r.register(EXP, REP, &resp(0), 0.0).unwrap();
        let mut wal = MemWal::new();
        let got = r.admit(meta, REP, resp(0), |rec| wal.append(rec));
        assert_eq!(got.acks, vec![meta.seq]);
        assert_eq!(wal.delivered(REP), vec![(meta, resp(0))]);
        assert_eq!(m.snapshot().counters.ctrl(CtrlClass::Ack), 1);
        let ack = CtrlMsg::Ack { seq: meta.seq };
        let sent = send_step(&m, Some(&mut r), SendKind::Ack, REP, EXP, &ack, 0.0);
        assert_eq!(sent, SendDecision::Deliver(None));
        assert_eq!(
            m.snapshot().counters.ctrl(CtrlClass::Ack),
            1,
            "not metered twice"
        );
        // A duplicate is re-acked (and the re-ack metered) but not re-journaled.
        let dup = r.admit(meta, REP, resp(0), |rec| wal.append(rec));
        assert_eq!((dup.acks.len(), dup.deliver.len()), (1, 0));
        assert_eq!(wal.delivered(REP).len(), 1);
        assert_eq!(m.snapshot().counters.ctrl(CtrlClass::Ack), 2);
    }

    /// The in-memory WAL is the journal the failover replay has always
    /// used: per-endpoint delivery logs in order, export records ignored.
    #[test]
    fn mem_wal_journals_deliveries_per_endpoint() {
        let mut w = MemWal::new();
        let m0 = WireMeta {
            from: EXP,
            seq: 0,
            ord: Some(0),
        };
        let m1 = WireMeta {
            from: EXP,
            seq: 1,
            ord: None,
        };
        w.append(&WalRecord::Delivered {
            ep: REP,
            meta: m0,
            msg: fwd(0),
        });
        w.append(&WalRecord::AppExport {
            ep: EXP,
            region: 0,
            ts: ts(1.0),
        });
        w.append(&WalRecord::Delivered {
            ep: REP,
            meta: m1,
            msg: resp(0),
        });
        w.sync();
        assert_eq!(w.delivered(REP), vec![(m0, fwd(0)), (m1, resp(0))]);
        assert_eq!(w.delivered(EXP), vec![], "exports are not deliveries");
    }

    /// Crash + journal replay: the successor re-acks everything the dead
    /// rep had consumed and resumes the ordered substream where it left
    /// off, while held-back (unacked) messages are genuinely lost and wait
    /// for retransmission.
    #[test]
    fn crash_recovery_restores_dedup_and_order_state() {
        let mut r = layer();
        let m0 = r.register(EXP, REP, &fwd(0), 0.0).unwrap();
        let m1 = r.register(EXP, REP, &fwd(1), 0.0).unwrap();
        let m2 = r.register(EXP, REP, &fwd(2), 0.0).unwrap();
        let mut journal = Vec::new();
        for (meta, msg) in [(m0, fwd(0)), (m1, fwd(1))] {
            journal.extend(r.receive(meta, REP, msg).deliver);
        }
        // m2 arrives but the rep crashes before consuming anything more:
        // pretend it was held back... it is ord 2 == next_ord, so it WOULD
        // deliver; crash first instead.
        r.crash_endpoint(REP);
        r.restore_delivered(REP, &journal);
        // Retransmit of journaled m1: re-acked, not re-processed.
        let got = r.receive(m1, REP, fwd(1));
        assert!(got.deliver.is_empty());
        assert_eq!(got.acks, vec![m1.seq]);
        // m2 (never journaled) now delivers in order.
        let got = r.receive(m2, REP, fwd(2));
        assert_eq!(got.deliver.len(), 1);
        assert_eq!(got.deliver[0].0.ord, Some(2));
    }
}
