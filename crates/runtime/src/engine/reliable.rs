//! The reliability layer: sequence numbers, acks, dedup, ordered
//! hold-back, and one recovery rule.
//!
//! Every link a runtime runs on — an in-process mailbox, a UDS or TCP
//! stream — loses messages only when it breaks or a process dies, and each
//! of those comes with an event that names it. So every sequenced control
//! message stays *pending* at its sender until the receiver acknowledges
//! it, and the one recovery rule is: **when a link re-forms, or a rep
//! recovers, the sender resends that link's pending messages in sequence
//! order ([`Reliability::reform`]); nothing else ever resends.** The layer
//! reads no clock: the runtime that sees the event — the simulator's
//! re-form or recovery event, the fabric's chaos relay or rep task, a
//! restarted process leaving journal replay, a socket writer re-installed
//! after a reconnect — calls [`Reliability::reform`] and moves what it
//! returns.
//!
//! It also owns the two per-message disciplines every runtime shares, so no
//! caller re-implements them: [`send_step`] (meter → forced buddy-help
//! loss → register → replay suppression) on the way out, and
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
//!   `ord` order, holding back early arrivals, so a resent gap can never
//!   be overtaken by a fresh send that was routed first (the
//!   strictly-increasing-timestamp invariants survive a break).
//! * **Unordered + reliable** — `Response`, `Answer`, `AnswerBcast`.
//!   Sequenced for dedup and resend but delivered on arrival.
//! * **Unordered + expendable** — `BuddyHelp`. The announcement is *only*
//!   an optimization: losing it costs a memcpy, never correctness. One
//!   pending at a re-form is abandoned, not resent, and metered as
//!   `degraded_buffers` — the graceful degradation to pre-optimization
//!   buffering.
//! * **Link layer** — `Ack`. Never sequenced (an ack of an ack would
//!   regress infinitely); idempotent by construction instead, so
//!   best-effort delivery suffices: a break cuts both directions of a
//!   link, so an ack it lost is healed by the resend of the message the
//!   other way, which the receiver dedups and re-acks.
//!
//! # The ack-on-delivery invariant
//!
//! A message is acknowledged exactly when it is **delivered to its node**
//! (processed and journaled), not when it reaches the endpoint's mailbox.
//! Held-back ordered messages are therefore unacked and still pending; a
//! rep that crashes loses only unacked messages, which its senders resend
//! to its successor. Journal = processed = acked is what makes crash
//! recovery exact (see `DESIGN.md`, "Fault model & recovery").
//!
//! # Liveness
//!
//! A link that breaks re-forms, and a crashed rep recovers; each time the
//! sender resends everything still pending on those links. A resend may
//! itself meet a fresh break (each send draws independently), but then the
//! link re-forms again, so with a break probability below one every
//! message is eventually delivered. [`Faults::no_retransmit`] turns the
//! rule off — a re-form abandons what is pending — and the liveness
//! oracle must then fire.

use super::{chaos, ctrl_class, Endpoint, Faults};
use couplink_metrics::{CtrlClass, EngineMetrics};
use couplink_proto::{CtrlMsg, TreeRole};
use couplink_time::Timestamp;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Whether a message rides the expendable discipline: abandoned at a
/// re-form rather than resent.
pub fn expendable(msg: &CtrlMsg) -> bool {
    matches!(
        msg,
        CtrlMsg::BuddyHelp { .. }
            | CtrlMsg::Coalesced {
                role: TreeRole::Help,
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
    msg: CtrlMsg,
    ord: Option<u64>,
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
    send: BTreeMap<(Endpoint, Endpoint), SendLink>,
    recv: BTreeMap<(Endpoint, Endpoint), RecvLink>,
    metrics: Arc<EngineMetrics>,
    /// Degradation knob: every expendable send is lost at once.
    drop_buddy_help: bool,
    /// Whether a re-form resends (`false` only in negative tests proving
    /// the liveness oracle fires without recovery).
    resend: bool,
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
    /// A resend of a pending entry at a re-form: metered per class, keeps
    /// its original metadata (no re-registration).
    Resend(WireMeta),
    /// A link-layer ack leaving its receiver: already metered by
    /// [`Reliability::admit`], never registered.
    Ack,
}

/// What [`send_step`] decided for one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SendDecision {
    /// Hand it to the wire with this metadata (`None` when unsequenced).
    Deliver(Option<WireMeta>),
    /// Deliberately not moved: forced buddy-help loss (never registered),
    /// or journal replay regenerating traffic whose delivery comes from
    /// the journal (registered; the re-form at the end of replay resends
    /// it).
    Suppressed,
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
) -> SendDecision {
    if matches!(kind, SendKind::Resend(_)) && rel.as_ref().is_some_and(|r| r.replaying) {
        // A resend landing mid-replay would deliver (and ack) while
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
    if rel.drop_buddy_help && expendable(msg) {
        // Lost for good: metered as the degradation it causes, and never
        // pending, so nothing waits for it.
        metrics.degraded_buffers.inc();
        return SendDecision::Suppressed;
    }
    let meta = match kind {
        SendKind::Origin | SendKind::Relay => rel.register(from, to, msg),
        SendKind::Resend(meta) => Some(meta),
        SendKind::Ack => None,
    };
    if rel.replaying && meta.is_some() {
        return SendDecision::Suppressed;
    }
    SendDecision::Deliver(meta)
}

/// Selects both directions of the link between `a` and `b`, for
/// [`Reliability::reform`].
pub(crate) fn between(a: Endpoint, b: Endpoint) -> impl Fn(Endpoint, Endpoint) -> bool {
    move |from, to| (from, to) == (a, b) || (from, to) == (b, a)
}

impl Reliability {
    /// The layer a runtime arms for `faults`, metering into `metrics`: the
    /// forced buddy-help loss [`send_step`] applies, and whether a re-form
    /// resends.
    pub(crate) fn armed(faults: Faults, metrics: Arc<EngineMetrics>) -> Self {
        Reliability {
            send: BTreeMap::new(),
            recv: BTreeMap::new(),
            metrics,
            drop_buddy_help: faults.drop_buddy_help,
            resend: !faults.no_retransmit,
            replaying: false,
        }
    }

    /// Enters or leaves journal-replay mode. While replaying, regenerated
    /// sequenced traffic is registered (rebuilding sequence counters and
    /// pending state) but not moved — deliveries come exclusively from the
    /// journal injection — and resends wait for replay to end.
    pub fn set_replaying(&mut self, replaying: bool) {
        self.replaying = replaying;
    }

    /// Registers an outbound message on the link `from → to`, assigning its
    /// sequence number. Returns `None` for link-layer messages, which ride
    /// unsequenced.
    pub fn register(&mut self, from: Endpoint, to: Endpoint, msg: &CtrlMsg) -> Option<WireMeta> {
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
        link.pending.insert(seq, PendingSend { msg: *msg, ord });
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
                // Idempotent overwrite: a resend of a held-back packet
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
    /// survive a crash, because its sender will never resend it. The
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

    /// Re-forms every directed link `from → to` that `links` selects — both
    /// directions of a link that broke (`between`), every link into a
    /// rep that recovered, every link to a peer process whose socket was
    /// re-installed, or everything when a restarted process leaves replay
    /// — and returns what the senders must resend, as `(to, meta, msg)`
    /// in sequence order per link. Those entries stay pending until
    /// acked. A pending expendable message is abandoned instead, metered
    /// once as `degraded_buffers`; with resending off
    /// ([`Faults::no_retransmit`]) every pending entry is. Meters one
    /// `timeouts` (a detected link failure) and one `retransmits` per
    /// resend.
    pub fn reform(
        &mut self,
        links: impl Fn(Endpoint, Endpoint) -> bool,
    ) -> Vec<(Endpoint, WireMeta, CtrlMsg)> {
        self.metrics.timeouts.inc();
        let mut out = Vec::new();
        for (&(from, to), link) in self.send.iter_mut() {
            if !links(from, to) {
                continue;
            }
            link.pending.retain(|&seq, p| {
                if expendable(&p.msg) {
                    self.metrics.degraded_buffers.inc();
                    return false;
                }
                if self.resend {
                    out.push((
                        to,
                        WireMeta {
                            from,
                            seq,
                            ord: p.ord,
                        },
                        p.msg,
                    ));
                }
                self.resend
            });
        }
        self.metrics.retransmits.add(out.len() as u64);
        out
    }

    /// Number of sends still awaiting an ack.
    pub fn pending_len(&self) -> usize {
        self.send.values().map(|l| l.pending.len()).sum()
    }

    /// Crashes endpoint `ep` as a receiver: its receive-side link state
    /// (dedup sets, hold-back buffers) dies with it. Held-back messages
    /// were never acked, so their senders resend them when the rep
    /// recovers; they are returned too, for a runtime whose senders live
    /// in processes that cannot see the crash. Send-side state *out of*
    /// `ep` is preserved: the successor replays the consumed-message
    /// journal, which deterministically regenerates the same outbound
    /// traffic, so keeping the pending map is equivalent to the successor
    /// re-deriving it.
    pub fn crash_endpoint(&mut self, ep: Endpoint) -> Vec<(WireMeta, CtrlMsg)> {
        let mut held = Vec::new();
        self.recv.retain(|&(from, to), link| {
            if to == ep {
                held.extend(link.holdback.iter().map(|(&ord, &(seq, msg))| {
                    let meta = WireMeta {
                        from,
                        seq,
                        ord: Some(ord),
                    };
                    (meta, msg)
                }));
            }
            to != ep
        });
        held
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
    /// successor's re-announcement step. After this, resends of
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
        Reliability::armed(Faults::default(), Arc::new(EngineMetrics::new()))
    }

    #[test]
    fn ack_clears_pending_and_duplicate_ack_is_noop() {
        let mut r = layer();
        let meta = r.register(REP, EXP, &fwd(0)).expect("sequenced");
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
        assert_eq!(r.register(REP, EXP, &CtrlMsg::Ack { seq: 3 }), None);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn receiver_dedups_and_reacks() {
        let mut r = layer();
        let meta = r.register(EXP, REP, &resp(0)).unwrap();
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
        let m0 = r.register(REP, EXP, &fwd(0)).unwrap();
        let m1 = r.register(REP, EXP, &fwd(1)).unwrap();
        let m2 = r.register(REP, EXP, &fwd(2)).unwrap();
        assert_eq!((m0.ord, m1.ord, m2.ord), (Some(0), Some(1), Some(2)));
        // 2 and 1 arrive early: held back, unacked.
        assert_eq!(r.receive(m2, EXP, fwd(2)), Received::default());
        assert_eq!(r.receive(m1, EXP, fwd(1)), Received::default());
        // 0 arrives: all three deliver in order, all three acked.
        let got = r.receive(m0, EXP, fwd(0));
        let msgs: Vec<CtrlMsg> = got.deliver.iter().map(|(_, m)| *m).collect();
        assert_eq!(msgs, vec![fwd(0), fwd(1), fwd(2)]);
        assert_eq!(got.acks, vec![m0.seq, m1.seq, m2.seq]);
        // A resend of the held-back packet after delivery just re-acks.
        assert_eq!(r.receive(m1, EXP, fwd(1)).acks, vec![m1.seq]);
    }

    #[test]
    fn unordered_and_ordered_substreams_are_independent() {
        let mut r = layer();
        let mf = r.register(EXP, REP, &fwd(0)).unwrap();
        let mr = r.register(EXP, REP, &resp(0)).unwrap();
        assert_eq!(mr.ord, None);
        // The response must not wait behind the lost forward.
        let got = r.receive(mr, REP, resp(0));
        assert_eq!(got.deliver.len(), 1);
        let got = r.receive(mf, REP, fwd(0));
        assert_eq!(got.deliver.len(), 1);
    }

    /// A re-form of the link between two endpoints resends what is pending
    /// on both of its directions, each in sequence order, and nothing that
    /// was acked or travels on another link; the entries stay pending until
    /// acked. One `timeouts` per re-form, one `retransmits` per resend.
    #[test]
    fn reform_resends_both_directions_in_seq_order_and_skips_the_acked() {
        let m = Arc::new(EngineMetrics::new());
        let mut r = Reliability::armed(Faults::default(), m.clone());
        let other = Endpoint::Proc { prog: 0, rank: 1 };
        let f0 = r.register(REP, EXP, &fwd(0)).unwrap();
        let f1 = r.register(REP, EXP, &fwd(1)).unwrap();
        let f2 = r.register(REP, EXP, &fwd(2)).unwrap();
        let back = r.register(EXP, REP, &resp(0)).unwrap();
        r.register(REP, other, &fwd(3)).unwrap();
        assert!(r.on_ack(REP, EXP, f1.seq));
        let got = r.reform(between(EXP, REP));
        assert_eq!(
            got,
            vec![(REP, back, resp(0)), (EXP, f0, fwd(0)), (EXP, f2, fwd(2)),]
        );
        assert_eq!(r.pending_len(), 4, "resent entries stay pending");
        let c = m.snapshot().counters;
        assert_eq!((c.timeouts, c.retransmits), (1, 3));
        // Every link into one endpoint: what a recovered rep is owed.
        let into_rep = r.reform(|_, to| to == REP);
        assert_eq!(into_rep, vec![(REP, back, resp(0))]);
    }

    /// A buddy-help announcement pending at a re-form is abandoned, not
    /// resent, and metered as one degraded buffer — once: the next re-form
    /// no longer sees it.
    #[test]
    fn buddy_help_pending_at_a_reform_is_abandoned_and_metered_once() {
        let m = Arc::new(EngineMetrics::new());
        let mut r = Reliability::armed(Faults::default(), m.clone());
        r.register(REP, EXP, &help(0)).unwrap();
        let f = r.register(REP, EXP, &fwd(0)).unwrap();
        assert_eq!(r.reform(between(REP, EXP)), vec![(EXP, f, fwd(0))]);
        assert_eq!(r.reform(between(REP, EXP)), vec![(EXP, f, fwd(0))]);
        let c = m.snapshot().counters;
        assert_eq!((c.degraded_buffers, c.retransmits), (1, 2));
        assert_eq!(r.pending_len(), 1);
    }

    /// With resending disabled (the negative-test knob), a re-form resends
    /// nothing and abandons what is pending: the protocol has no recovery
    /// and liveness is forfeit.
    #[test]
    fn disabled_retransmit_resends_nothing_and_abandons_at_reform() {
        let faults = Faults {
            no_retransmit: true,
            ..Faults::default()
        };
        let m = Arc::new(EngineMetrics::new());
        let mut r = Reliability::armed(faults, m.clone());
        r.register(REP, EXP, &fwd(0)).unwrap();
        r.register(EXP, REP, &resp(0)).unwrap();
        assert_eq!(r.reform(between(REP, EXP)), vec![]);
        assert_eq!(r.pending_len(), 0);
        let c = m.snapshot().counters;
        assert_eq!((c.timeouts, c.retransmits), (1, 0));
    }

    /// Journal replay registers regenerated traffic without moving it, and
    /// holds back resends; the re-form a restarted process runs when it
    /// leaves replay resends everything replay left pending.
    #[test]
    fn replay_leaves_its_sends_pending_for_the_reform_that_ends_it() {
        let m = Arc::new(EngineMetrics::new());
        let mut r = Reliability::armed(Faults::default(), m.clone());
        r.set_replaying(true);
        let sent = send_step(&m, Some(&mut r), SendKind::Origin, REP, EXP, &fwd(0));
        assert_eq!(sent, SendDecision::Suppressed);
        let meta = WireMeta {
            from: REP,
            seq: 0,
            ord: Some(0),
        };
        let early = send_step(&m, Some(&mut r), SendKind::Resend(meta), REP, EXP, &fwd(0));
        assert_eq!(early, SendDecision::Suppressed, "no resend mid-replay");
        r.set_replaying(false);
        let resent = r.reform(|_, _| true);
        assert_eq!(resent, vec![(EXP, meta, fwd(0))]);
        let sent = send_step(&m, Some(&mut r), SendKind::Resend(meta), REP, EXP, &fwd(0));
        assert_eq!(sent, SendDecision::Deliver(Some(meta)));
    }

    /// The send step, as a table: {origin, relay, resend} × {unarmed,
    /// armed, forced buddy-help loss, replaying}. The frame is a coalesced
    /// help announcement, so every rule bites: it is classed as
    /// buddy-help, counted as coalesced, expendable and sequenced.
    #[test]
    fn send_step_table() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Mode {
            Unarmed,
            Armed,
            DropHelp,
            Replaying,
        }
        let frame = CtrlMsg::Coalesced {
            conn: ConnectionId(0),
            req: RequestId(0),
            answer: RepAnswer::NoMatch,
            role: TreeRole::Help,
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
        for mode in [Mode::Unarmed, Mode::Armed, Mode::DropHelp, Mode::Replaying] {
            for kind in [SendKind::Origin, SendKind::Relay, SendKind::Resend(old)] {
                let resend = matches!(kind, SendKind::Resend(_));
                if mode == Mode::Unarmed && resend {
                    continue; // nothing is ever pending without a layer
                }
                let m = Arc::new(EngineMetrics::new());
                let mut layer = (mode != Mode::Unarmed).then(|| {
                    let faults = Faults {
                        drop_buddy_help: mode == Mode::DropHelp,
                        ..Faults::default()
                    };
                    let mut r = Reliability::armed(faults, m.clone());
                    r.set_replaying(mode == Mode::Replaying);
                    r
                });
                let got = send_step(&m, layer.as_mut(), kind, REP, EXP, &frame);
                let case = format!("{mode:?} x {kind:?}");

                let meta = if resend { old } else { first };
                let want = match mode {
                    Mode::Unarmed => SendDecision::Deliver(None),
                    Mode::Armed => SendDecision::Deliver(Some(meta)),
                    Mode::DropHelp | Mode::Replaying => SendDecision::Suppressed,
                };
                assert_eq!(got, want, "{case}");
                // Origin and relay sends register, even when replay holds
                // the copy back; a resend never re-registers, and a forced
                // loss is never pending — it is metered as degraded at once.
                let pending = layer.as_ref().map_or(0, Reliability::pending_len);
                let registers = matches!(mode, Mode::Armed | Mode::Replaying);
                assert_eq!(pending, usize::from(!resend && registers), "{case}");
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
                let degraded = u64::from(mode == Mode::DropHelp);
                assert_eq!(c.degraded_buffers, degraded, "{case}");
                assert_eq!(
                    c.ctrl_sent.iter().sum::<u64>(),
                    c.ctrl(CtrlClass::BuddyHelp),
                    "{case}"
                );
            }
        }
    }

    /// Acks ride the send step unregistered and unmetered (the receive
    /// step already counted them); the receive step journals every
    /// delivery it acks.
    #[test]
    fn acks_are_metered_at_admit_and_journaled_before_they_leave() {
        let m = Arc::new(EngineMetrics::new());
        let mut r = Reliability::armed(Faults::default(), m.clone());
        let meta = r.register(EXP, REP, &resp(0)).unwrap();
        let mut wal = MemWal::new();
        let got = r.admit(meta, REP, resp(0), |rec| wal.append(rec));
        assert_eq!(got.acks, vec![meta.seq]);
        assert_eq!(wal.delivered(REP), vec![(meta, resp(0))]);
        assert_eq!(m.snapshot().counters.ctrl(CtrlClass::Ack), 1);
        let ack = CtrlMsg::Ack { seq: meta.seq };
        let sent = send_step(&m, Some(&mut r), SendKind::Ack, REP, EXP, &ack);
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
    /// for the resend at recovery.
    #[test]
    fn crash_recovery_restores_dedup_and_order_state() {
        let mut r = layer();
        let m0 = r.register(EXP, REP, &fwd(0)).unwrap();
        let m1 = r.register(EXP, REP, &fwd(1)).unwrap();
        let m2 = r.register(EXP, REP, &fwd(2)).unwrap();
        let mut journal = Vec::new();
        for (meta, msg) in [(m0, fwd(0)), (m1, fwd(1))] {
            journal.extend(r.receive(meta, REP, msg).deliver);
        }
        // m2 arrives but the rep crashes before consuming anything more:
        // pretend it was held back... it is ord 2 == next_ord, so it WOULD
        // deliver; crash first instead.
        r.crash_endpoint(REP);
        r.restore_delivered(REP, &journal);
        // Resend of journaled m1: re-acked, not re-processed.
        let got = r.receive(m1, REP, fwd(1));
        assert!(got.deliver.is_empty());
        assert_eq!(got.acks, vec![m1.seq]);
        // m2 (never journaled) now delivers in order.
        let got = r.receive(m2, REP, fwd(2));
        assert_eq!(got.deliver.len(), 1);
        assert_eq!(got.deliver[0].0.ord, Some(2));
    }
}
