//! The general multi-program threaded fabric, multiplexed on the session
//! executor.
//!
//! A [`Fabric`] instantiates the engine's nodes for an arbitrary
//! [`Topology`] — N programs, each with M coupled processes plus one rep —
//! and moves their messages between **polled state machines** scheduled on
//! the [`executor`](super::executor)'s shared worker pool:
//!
//! - one **rep task** per program touching a connection, owning the
//!   program's [`RepNode`];
//! - one **agent task** per exporting process, answering forwarded
//!   requests and consuming buddy-help while the application thread
//!   computes (the paper's asynchronous framework engine);
//! - one **importer task** per (connection, rank), feeding answers and
//!   pieces into the import node the application thread's `import()` waits
//!   on — after that thread has itself polled whatever its call set off;
//! - one **pump task** per session when the reliability layer is armed,
//!   retransmitting what is due and sleeping toward the earliest retry
//!   deadline, at most one base timeout at a time.
//!
//! Every protocol decision — what a delivered message does at a rank or a
//! rep, whether a tree frame is relayed, whether a send is registered,
//! suppressed or lost, what a receive acks and journals — is the engine's
//! (`on_msg`, [`send_step`], [`Reliability::admit`]). The fabric adds only
//! what is its own: the lock around the reliability state, the mailbox (or
//! socket) push, and the pump's timer.
//!
//! Application threads drive the per-process [`ExportAccess`] /
//! [`ImportAccess`] handles exactly like an SPMD rank calling the
//! framework library. A [`SessionSet`] multiplexes N independent
//! topologies — each with its own [`EngineMetrics`] — on one pool with
//! round-robin fairness across sessions.
//!
//! Buffering is a real `memcpy`: the fabric clones the process's
//! [`LocalArray`] piece into the region's shared store, so `export()`
//! latency measured by the benches reflects genuine copy costs, and skipped
//! buffering is a genuine saving. The store is shared across all
//! connections of a region (Figure 2's one-region-many-importers case):
//! one copy serves every importer, and an object is dropped only when no
//! connection can still need it.

use crate::engine::chaos::{commutes, ChaosConfig, CrashTarget};
use crate::engine::{
    proc_side, send_step, Clock, Endpoint, EngineError, Expiry, ExportFx, ExportNode, ImportNode,
    MemWal, Outgoing, ProcSide, Reliability, RepCrash, RepNode, RetryPolicy, SendDecision,
    SendKind, Topology, Wal, WalRecord, WireMeta,
};
use crate::threaded::executor::{
    publish_run_next, Executor, PanicSink, Poll, SessionId, Task, TaskHandle,
};
use crate::threaded::{ExportOutcome, ThreadedError};
use couplink_layout::{LocalArray, Rect, SharedArray};
use couplink_metrics::{EngineMetrics, MetricsSnapshot, Phase};
use couplink_proto::{
    ConnectionId, CtrlMsg, ExportStats, ImportState, RepAnswer, RequestId, Trace,
};
use couplink_time::Timestamp;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Modelled detection delay: how long after a rep dies without a restart
/// plan its successor takes over.
const FAILOVER_DELAY: Duration = Duration::from_millis(150);

/// Hard cap on the shutdown drain: after this long the drain gives up on
/// still-pending messages (a crashed task's mailbox never acks).
const DRAIN_CAP: Duration = Duration::from_secs(30);

/// Longest a stalled bounded `export()` sleeps before retrying without a
/// wake-up (wake-ups come only once the region has room for a burst).
const STALL_RECHECK: Duration = Duration::from_millis(10);

/// Sequence-counter jump applied to every send link when a restarted
/// process leaves journal replay: far larger than any session's per-link
/// message count, so a post-restart send can never reuse a sequence
/// number the previous incarnation already burned (one restart per
/// session — the bootstrap kills a node at most once).
const RESTART_SEQ_GAP: u64 = 1 << 32;

/// Most mailbox messages a rep (or agent, or importer) consumes in one
/// poll: the executor's per-poll work cap, so one flooded mailbox cannot
/// hold a worker indefinitely.
const REP_BATCH: usize = 64;

/// The largest piece (bytes a rank owns of an exported region) whose agent
/// still runs on the thread that woke it, when its pieces leave over a
/// socket: encoding and checksumming 64 KiB costs a few wake-ups. In
/// memory the agent copies nothing — what it can cost is the wait for an
/// `export()`'s buffering copy under the cell lock, sixteen times faster
/// per byte — so the bound is `16 * LIGHT_PIECE` there. Past it the agent
/// is a heavy task (`Task::heavy`) and belongs on the pool, beside the
/// waking thread rather than after it.
const LIGHT_PIECE: usize = 64 << 10;

/// Wall-clock seconds since the fabric started — the threaded runtime's
/// [`Clock`].
#[derive(Debug, Clone)]
pub struct WallClock(Instant);

impl WallClock {
    /// A clock starting now.
    pub fn start() -> Self {
        WallClock(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Shared handle to a session's write-ahead journal: the pluggable
/// [`Wal`] backend behind one mutex, cloned into the routing table, the
/// rep tasks and (in the socket runtime) the link layer, which syncs it
/// before a sequenced frame or ack escapes the process.
#[derive(Clone)]
pub struct WalHandle(Arc<Mutex<Box<dyn Wal>>>);

impl WalHandle {
    /// Wraps a journal backend.
    pub fn new(wal: impl Wal + 'static) -> Self {
        WalHandle(Arc::new(Mutex::new(Box::new(wal))))
    }

    /// An in-memory journal (the DES/threaded default when reliability is
    /// armed without an explicit backend).
    fn mem() -> Self {
        Self::new(MemWal::new())
    }

    fn append(&self, rec: &WalRecord) {
        self.0.lock().append(rec);
    }

    /// Makes every appended record durable (no-op for [`MemWal`]). A file
    /// journal waits for the disk here, so the calling thread first
    /// publishes the tasks it was keeping to poll itself.
    pub fn sync(&self) {
        publish_run_next();
        self.0.lock().sync();
    }

    /// One endpoint's delivered-message journal, in delivery order.
    pub fn delivered(&self, ep: Endpoint) -> Vec<(WireMeta, CtrlMsg)> {
        self.0.lock().delivered(ep)
    }

    /// Discards journal history no longer needed for replay (clean
    /// shutdown only).
    pub fn prune(&self) {
        self.0.lock().prune();
    }
}

impl fmt::Debug for WalHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("WalHandle(..)")
    }
}

/// Options for building a [`Fabric`] (or one session of a [`SessionSet`]).
#[derive(Debug, Clone)]
pub struct FabricOptions {
    /// Whether the reps send buddy-help (default: enabled).
    pub buddy_help: bool,
    /// How long `import` (and a stalled bounded `export`) waits before
    /// giving up.
    pub import_timeout: Duration,
    /// Per-connection framework buffer bound in objects (`None` =
    /// unbounded). With a bound, `export` blocks while the buffer is full
    /// and resumes when control traffic frees space.
    pub buffer_capacity: Option<usize>,
    /// Connections to trace, as `(program, rank, connection)`: the named
    /// exporter process records a Figure 5-style event stream for that
    /// connection, returned by [`Fabric::shutdown`].
    pub traces: Vec<(usize, usize, ConnectionId)>,
    /// Seeded fault injection on *commutative* control messages (`Response`,
    /// `BuddyHelp`, `Answer`, `AnswerBcast`): per-message delay, duplication
    /// and drop-with-retry, routed through a relay thread. FIFO-class
    /// messages (`ImportCall`, `ImportRequest`, `ForwardRequest`) are never
    /// perturbed here — unlike the simulator, the fabric has no global
    /// event queue on which to re-order them safely, and the protocol
    /// forbids reordering them anyway.
    ///
    /// When the configuration carries *permanent* faults (`loss_prob > 0`
    /// or a [`CrashFault`]) the fabric additionally arms its reliability
    /// layer: every eligible message is sequenced and acknowledged, a pump
    /// task retransmits on wall-clock timeouts, and a crashed rep is
    /// rebuilt from its delivery journal.
    pub chaos: Option<ChaosConfig>,
    /// Degradation knob: buddy-help announcements are sent but never
    /// arrive, so each one exhausts its expendable retry budget and is
    /// abandoned (metered as `degraded_buffers`). Arms the reliability
    /// layer even without chaos. The run must degrade to conservative
    /// buffering, never misbehave.
    pub drop_buddy_help: bool,
    /// Hierarchical collective distribution: the rep sends forwards and
    /// coalesced answers only to the roots of the deterministic
    /// [`tree`](crate::engine::tree), and every rank relays to its own
    /// subtree. Per-rep fan-out drops from O(N) to O(k); relay hops are
    /// metered as `ctrl_relay` instead of per-class origin traffic.
    pub hierarchical: bool,
    /// Write-ahead journal backend for the session's delivered messages
    /// and export schedule. `None` (the default) falls back to [`MemWal`]
    /// when the reliability layer is armed — exactly the in-memory journal
    /// the in-process failover has always replayed. The socket runtime
    /// plugs in a file-backed handle here so a SIGKILLed node can replay
    /// its half of the session on restart. Providing a backend arms the
    /// reliability layer.
    pub wal: Option<WalHandle>,
}

impl Default for FabricOptions {
    fn default() -> Self {
        FabricOptions {
            buddy_help: true,
            import_timeout: Duration::from_secs(30),
            buffer_capacity: None,
            traces: Vec::new(),
            chaos: None,
            drop_buddy_help: false,
            hierarchical: false,
            wal: None,
        }
    }
}

impl FabricOptions {
    /// Whether these options arm the reliability layer (sequence numbers,
    /// acks, retransmit pump, journal): only when a fault that needs it is
    /// configured or a journal is asked for — a plain run pays nothing.
    fn needs_reliability(&self) -> bool {
        self.drop_buddy_help
            || self.wal.is_some()
            || self.chaos.is_some_and(|c| c.needs_reliability())
    }
}

/// What [`Fabric::shutdown`] returns.
#[derive(Debug)]
pub struct FabricReport {
    /// Exporter statistics, indexed `[connection][rank]` like the
    /// topology's connection list.
    pub stats: Vec<Vec<ExportStats>>,
    /// Recorded event traces, one per requested `(program, rank,
    /// connection)`.
    pub traces: Vec<(usize, usize, ConnectionId, Trace)>,
    /// End-of-run engine instrumentation. Counter values depend on thread
    /// interleaving (unlike the simulator's) — conservation laws hold, exact
    /// values need not repeat.
    pub metrics: MetricsSnapshot,
}

// --- mailboxes ---

/// A task's inbox: a queue whose push marks the owning task runnable.
///
/// Construction happens in two phases — every session builds all its
/// mailboxes before spawning any task, then [`bind`](Mailbox::bind)s each
/// mailbox to its task handle. A push before the bind just queues (the
/// bind schedules the task if anything is already waiting), so no message
/// can be lost to the construction race.
struct Mailbox {
    q: Mutex<VecDeque<Msg>>,
    task: OnceLock<TaskHandle>,
}

impl Mailbox {
    fn new() -> Self {
        Mailbox {
            q: Mutex::new(VecDeque::new()),
            task: OnceLock::new(),
        }
    }

    /// Enqueues and schedules the bound task. Returns `false` — dropping
    /// the message — once the task has finished, mirroring a send on a
    /// disconnected channel (shutdown or a recorded error; the caller
    /// surfaces those separately).
    fn push(&self, msg: Msg) -> bool {
        if self.task.get().is_some_and(TaskHandle::is_done) {
            return false;
        }
        self.q.lock().push_back(msg);
        if let Some(h) = self.task.get() {
            h.schedule();
        }
        true
    }

    /// Binds the owning task, scheduling it if pushes already queued.
    fn bind(&self, h: TaskHandle) {
        let already = !self.q.lock().is_empty();
        let h2 = h.clone();
        assert!(self.task.set(h).is_ok(), "mailbox bound once");
        if already {
            h2.schedule();
        }
    }

    fn pop(&self) -> Option<Msg> {
        self.q.lock().pop_front()
    }

    fn is_empty(&self) -> bool {
        self.q.lock().is_empty()
    }
}

/// One mailbox entry, the same for every task kind.
enum Msg {
    /// A control message in wire form (the consuming engine node dispatches
    /// on it) with its wire metadata (`None` when unsequenced).
    Ctrl(Option<WireMeta>, CtrlMsg),
    /// A payload piece (importer mailboxes only).
    Piece {
        req: RequestId,
        /// The sub-rectangle of `payload` this piece delivers.
        rect: Rect,
        /// The exporter's buffered object, shared — not copied — into
        /// every piece, connection and retransmit it serves.
        payload: SharedArray,
    },
    Shutdown,
}

/// Message to the chaos relay thread: hold `msg` until `due`, then route it.
enum RelayMsg {
    Deliver {
        due: Instant,
        to: Endpoint,
        meta: Option<WireMeta>,
        msg: CtrlMsg,
    },
    Shutdown,
}

/// Fault-injection state shared through [`Net`].
struct NetChaos {
    cfg: ChaosConfig,
    /// Per-message counter feeding the seeded decisions.
    counter: AtomicU64,
    relay: Sender<RelayMsg>,
}

/// Times a mutex acquisition into the run's `lock_wait_ns` counter. The
/// uncontended fast path is a bare `try_lock` — no clock read, no counter
/// touch; only genuine waiting is measured. A thread about to wait first
/// publishes the tasks it was keeping to poll itself: the holder may be
/// inside a multi-megabyte `copy_from`, and they must not wait that out.
fn timed_lock<'a, T>(m: &'a Mutex<T>, metrics: &EngineMetrics) -> MutexGuard<'a, T> {
    if let Some(g) = m.try_lock() {
        return g;
    }
    publish_run_next();
    let t0 = Instant::now();
    let g = m.lock();
    metrics.lock_wait_ns.add(t0.elapsed().as_nanos() as u64);
    g
}

/// The fabric's reliability layer, armed only when the configured faults
/// require it (permanent loss, a crash fault, or forced buddy-help loss).
/// Fault-free fabrics carry `None` here and run the exact pre-reliability
/// message flow — zero protocol overhead, bit-identical outputs.
struct NetRel {
    layer: Mutex<Reliability>,
    clock: Arc<WallClock>,
    /// First retransmit interval of the retry policy: no deadline the
    /// layer sets is nearer than this, so it also caps the pump's sleep.
    base_timeout: f64,
    /// Set by shutdown once the drain is over: the pump task finishes at
    /// its next poll.
    stop: AtomicBool,
    /// Mutation-testing hook: apply an in-process sender's acks *before*
    /// the handler runs (see [`Fabric::arm_ack_before_handle`]).
    ack_before_handle: AtomicBool,
}

impl NetRel {
    fn new(
        policy: RetryPolicy,
        metrics: &Arc<EngineMetrics>,
        clock: Arc<WallClock>,
        drop_buddy_help: bool,
        loss: Option<ChaosConfig>,
    ) -> Self {
        let layer =
            Reliability::new(policy, Arc::clone(metrics)).with_faults(drop_buddy_help, loss);
        NetRel {
            layer: Mutex::new(layer),
            clock,
            base_timeout: policy.base_timeout,
            stop: AtomicBool::new(false),
            ack_before_handle: AtomicBool::new(false),
        }
    }

    /// Seconds until the earliest retry deadline (0 if it has passed),
    /// `None` with nothing pending.
    fn until_next_deadline(&self) -> Option<f64> {
        let next = self.layer.lock().next_deadline()?;
        Some((next - self.clock.now()).max(0.0))
    }
}

/// The session's first failure — a protocol error reported by a node
/// (`RepFailed`) or a caught control-task panic (`ProcessCrash`) — and
/// everything an application call can be blocked on when it happens. Recording is the one failure path: it keeps
/// the first error and wakes every waiter, so a stalled `export()` or a
/// blocked `import()` returns it now instead of after its timeout.
///
/// A recorder must hold no cell lock (`record` takes each one in turn), which
/// is why [`Net`] returns its errors and the task polls, the relay and the
/// mesh readers record them.
#[derive(Default)]
struct ErrSlot {
    first: Mutex<Option<ThreadedError>>,
    /// Every cell a call can block on, set once the session is built (no
    /// call can block before that).
    exp_cells: OnceLock<Vec<Arc<ExpCell>>>,
    imp_cells: OnceLock<Vec<Arc<ImpCell>>>,
}

impl ErrSlot {
    fn check(&self) -> Result<(), ThreadedError> {
        self.first.lock().clone().map_or(Ok(()), Err)
    }

    fn record(&self, e: ThreadedError) {
        self.first.lock().get_or_insert(e);
        // A waiter checks the slot under its cell's lock: passing through
        // that lock puts the store above either before its check or after
        // it started waiting, where the notify reaches it.
        for cell in self.exp_cells.get().into_iter().flatten() {
            drop(cell.state.lock());
            cell.freed.notify_all();
        }
        for cell in self.imp_cells.get().into_iter().flatten() {
            drop(cell.node.lock());
            cell.cv.notify_all();
        }
    }

    fn record_err(&self, e: impl fmt::Display) {
        self.record(ThreadedError::RepFailed(e.to_string()));
    }
}

/// Outbound half of a multi-process session: how the fabric forwards
/// traffic whose destination endpoint lives in another OS process. The
/// socket runtime (`crate::net`) implements this over its peer
/// connections; a single-process session has no links and treats every
/// endpoint as local.
pub(crate) trait RemoteLinks: Send + Sync {
    /// Forwards one routed control message. The sending process has
    /// already metered it and, when the reliability layer is armed,
    /// registered it as pending — the receiver injects it via
    /// [`Net::deliver_ctrl`].
    fn send_ctrl(&self, to: Endpoint, meta: Option<WireMeta>, msg: CtrlMsg);

    /// Carries an ack for the directed link `sender → acker` back to the
    /// sender's process, where [`Net::apply_remote_ack`] applies it to the
    /// pending state.
    fn send_ack(&self, sender: Endpoint, acker: Endpoint, seq: u64);

    /// Ships one payload piece to importer rank `dst` of `conn`'s
    /// importing program. The implementation serializes straight out of
    /// the shared buffer (send-side zero-copy).
    fn send_piece(
        &self,
        conn: ConnectionId,
        dst: usize,
        req: RequestId,
        rect: Rect,
        payload: &SharedArray,
    );
}

/// Whether `prog`'s tasks live in this process (`local: None` means the
/// single-process fabric, which hosts every program).
fn hosts(local: Option<usize>, prog: usize) -> bool {
    local.is_none_or(|p| p == prog)
}

/// One exporting process's engine state: the node plus one object store per
/// exported region (keyed by timestamp; the real buffered copies, shared —
/// not re-copied — into every piece, connection and retransmit they serve).
struct ExpState {
    node: ExportNode,
    stores: Vec<BTreeMap<Timestamp, SharedArray>>,
}

/// Shared between an application thread and its agent task. The condvar
/// signals freed buffer space to a stalled bounded `export`.
struct ExpCell {
    state: Mutex<ExpState>,
    freed: Condvar,
}

/// Shared between an importing application thread and the rank's importer
/// tasks: the import node under one lock, and a condvar a task signals
/// when it completed an import (or recorded an error).
struct ImpCell {
    node: Mutex<ImportNode>,
    cv: Condvar,
}

/// Per-request piece accumulator shared between an [`ImportAccess`] and
/// its importer task (the task writes pieces strictly before the node can
/// observe `Done`, so a woken importer always sees a complete set).
type PieceMap = Arc<Mutex<HashMap<RequestId, Vec<(Rect, SharedArray)>>>>;

/// The fabric's routing table: where every endpoint's mailbox is.
pub(crate) struct Net {
    topo: Arc<Topology>,
    /// Per-program rep mailbox (`None` if the program has no connections).
    to_rep: Vec<Option<Arc<Mailbox>>>,
    /// Per-process agent mailbox (`None` for non-exporting processes).
    to_agent: Vec<Vec<Option<Arc<Mailbox>>>>,
    /// Per-connection importer mailboxes, indexed by importer rank.
    to_imp: Vec<Vec<Arc<Mailbox>>>,
    /// First failure anywhere in the fabric.
    err: Arc<ErrSlot>,
    /// Fault injection for commutative control messages, if enabled.
    chaos: Option<NetChaos>,
    /// Reliability layer, armed only when the faults require it.
    rel: Option<NetRel>,
    /// Which program this process hosts (`None` = all of them, the
    /// single-process fabric).
    local: Option<usize>,
    /// Outbound links to the peer processes hosting the other programs
    /// (`None` in a single-process session).
    links: Option<Arc<dyn RemoteLinks>>,
    /// The session's write-ahead journal (`Some` exactly when the
    /// reliability layer is armed): every admitted sequenced delivery and
    /// every application export lands here before its acks or dependent
    /// frames can escape the process.
    wal: Option<WalHandle>,
    /// `false` while replaying: re-admitting a journaled delivery must not
    /// journal it again (replay stays idempotent if the process dies
    /// mid-replay).
    wal_active: AtomicBool,
    /// Per-session instrumentation shared with every node and handle.
    metrics: Arc<EngineMetrics>,
}

impl Net {
    /// Whether `ep`'s tasks live in this process.
    fn is_local(&self, ep: Endpoint) -> bool {
        let (Endpoint::Rep { prog } | Endpoint::Proc { prog, .. }) = ep;
        hosts(self.local, prog)
    }

    /// Injects a control message its sender already metered — one that
    /// arrived over a socket link (the parent sums counters across
    /// processes) or comes out of the chaos relay — exactly as if a local
    /// task had routed it now. For threads outside any task poll: a failure
    /// is recorded here.
    pub(crate) fn deliver_ctrl(&self, to: Endpoint, meta: Option<WireMeta>, msg: CtrlMsg) {
        if let Err(e) = self.route(to, meta, msg) {
            self.err.record_err(e);
        }
    }

    /// Enters journal-replay mode: regenerated sequenced traffic is
    /// registered but not routed (see [`Reliability::set_replaying`]), and
    /// re-admitted deliveries are not re-journaled (see
    /// [`Net::wal_active`]).
    pub(crate) fn begin_replay(&self) {
        if let Some(rel) = &self.rel {
            timed_lock(&rel.layer, &self.metrics).set_replaying(true);
        }
        self.wal_active.store(false, Ordering::Release);
    }

    /// Leaves journal-replay mode: routing and journaling resume; the pump
    /// retransmits whatever replay left pending. Before any fresh send can
    /// slip through, every send link's sequence counter is fast-forwarded
    /// past the previous incarnation's range — regeneration is not
    /// count-exact (see [`Reliability::fast_forward_seqs`]), and a fresh
    /// send must never collide with a sequence number a peer already saw.
    pub(crate) fn end_replay(&self) {
        if let Some(rel) = &self.rel {
            let mut layer = timed_lock(&rel.layer, &self.metrics);
            layer.fast_forward_seqs(RESTART_SEQ_GAP);
            layer.set_replaying(false);
        }
        self.wal_active.store(true, Ordering::Release);
    }

    /// Whether every task mailbox of this session is currently empty — the
    /// replay driver's quiescence probe before it leaves replay mode.
    /// Best-effort (a task may still be processing its last pop); the
    /// receive-side dedup makes the residual race harmless.
    pub(crate) fn mailboxes_empty(&self) -> bool {
        self.to_rep.iter().flatten().all(|mb| mb.is_empty())
            && self
                .to_agent
                .iter()
                .flatten()
                .flatten()
                .all(|mb| mb.is_empty())
            && self.to_imp.iter().flatten().all(|mb| mb.is_empty())
    }

    /// Applies an ack that arrived over a socket link to the local pending
    /// state — the cross-process counterpart of the in-place `on_ack` in
    /// [`Net::admit`]. Metered (as `Ack` traffic) at the generating
    /// process, not here.
    pub(crate) fn apply_remote_ack(&self, sender: Endpoint, acker: Endpoint, seq: u64) {
        if let Some(rel) = &self.rel {
            timed_lock(&rel.layer, &self.metrics).on_ack(sender, acker, seq);
        }
    }

    /// Injects a payload piece that arrived over a socket link into the
    /// destination rank's importer mailbox (transfer bytes were metered at
    /// the sending process).
    pub(crate) fn deliver_remote_piece(
        &self,
        conn: ConnectionId,
        dst: usize,
        req: RequestId,
        rect: Rect,
        payload: SharedArray,
    ) {
        let _ = self.to_imp[conn.0 as usize][dst].push(Msg::Piece { req, rect, payload });
    }

    /// Runs one message through the engine's send step, under the layer
    /// lock when the reliability layer is armed (the fault-free path takes
    /// no lock).
    fn gate(&self, kind: SendKind, from: Endpoint, to: Endpoint, msg: &CtrlMsg) -> SendDecision {
        let Some(rel) = &self.rel else {
            return send_step(&self.metrics, None, kind, from, to, msg, 0.0);
        };
        let now = rel.clock.now();
        let mut layer = timed_lock(&rel.layer, &self.metrics);
        send_step(&self.metrics, Some(&mut layer), kind, from, to, msg, now)
    }

    /// Moves one control message toward its endpoint. With chaos enabled,
    /// commutative messages detour through the relay thread, which
    /// delivers each seeded copy at its planned instant; everything else
    /// (and every message once the relay has drained at shutdown) routes
    /// directly.
    fn send(
        &self,
        kind: SendKind,
        from: Endpoint,
        to: Endpoint,
        msg: CtrlMsg,
    ) -> Result<(), ThreadedError> {
        let SendDecision::Deliver(meta) = self.gate(kind, from, to, &msg) else {
            return Ok(()); // suppressed or lost; the pump retransmits what is pending
        };
        if let Some(chaos) = self.chaos.as_ref().filter(|_| commutes(&msg)) {
            let n = chaos.counter.fetch_add(1, Ordering::Relaxed);
            let now = Instant::now();
            let mut relayed = false;
            for d in chaos.cfg.extra_delays(n, to, &msg) {
                let due = now + Duration::from_secs_f64(d);
                let copy = RelayMsg::Deliver { due, to, meta, msg };
                relayed |= chaos.relay.send(copy).is_ok();
            }
            if relayed {
                return Ok(());
            }
            // Relay already gone (shutdown drained it): fall through to
            // one direct delivery so nothing is ever lost.
        }
        self.route(to, meta, msg)
    }

    /// Retransmits an expired pending message, routed directly: no chaos
    /// detour — retransmission is the recovery path; jittering it again
    /// only slows convergence.
    fn resend(&self, to: Endpoint, meta: WireMeta, msg: CtrlMsg) -> Result<(), ThreadedError> {
        match self.gate(SendKind::Resend(meta), meta.from, to, &msg) {
            SendDecision::Deliver(meta) => self.route(to, meta, msg),
            _ => Ok(()),
        }
    }

    /// Moves control-only engine output (rep, importer and import-call
    /// steps never emit transfers).
    fn emit_ctrl(
        &self,
        from: Endpoint,
        outs: impl IntoIterator<Item = Outgoing>,
    ) -> Result<(), ThreadedError> {
        for out in outs {
            match out {
                Outgoing::Ctrl { to, msg } => self.send(SendKind::Origin, from, to, msg)?,
                Outgoing::Relay { to, msg } => self.send(SendKind::Relay, from, to, msg)?,
                Outgoing::Transfer { .. } => {
                    return Err(ThreadedError::Config(
                        "control step emitted a data transfer".into(),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Runs one arriving message through the engine's receive step and
    /// hands every now-deliverable message to `deliver`, in order. When the
    /// sender is in this process its acks are applied to its pending state
    /// in place — the shared layer plays the role of an instantaneous ack
    /// channel — but only *after* `deliver` has run, as in the DES, whose
    /// acks travel after the handler's sends. So whatever the handler sends
    /// is registered before the message that caused it stops being
    /// pending, and the shutdown drain can never see "nothing pending"
    /// between the two. When the sender lives in another process the acks
    /// travel back over its socket link (after the journal append) and land
    /// via [`Net::apply_remote_ack`]. Unsequenced messages (and everything
    /// when the layer is unarmed) pass straight through.
    fn admit(
        &self,
        to: Endpoint,
        meta: Option<WireMeta>,
        msg: CtrlMsg,
        mut deliver: impl FnMut(CtrlMsg) -> Result<(), ThreadedError>,
    ) -> Result<(), ThreadedError> {
        let (Some(rel), Some(meta)) = (&self.rel, meta) else {
            return deliver(msg);
        };
        let local_sender = self.is_local(meta.from);
        let ack_first = rel.ack_before_handle.load(Ordering::Relaxed);
        let received = {
            let mut layer = timed_lock(&rel.layer, &self.metrics);
            // Skipped during replay: the records being re-admitted are
            // already on disk.
            let journaling = self.wal_active.load(Ordering::Acquire);
            let wal = self.wal.as_ref().filter(|_| journaling);
            let received = layer.admit(meta, to, msg, |rec| {
                if let Some(wal) = wal {
                    wal.append(rec);
                }
            });
            if local_sender && ack_first {
                for seq in &received.acks {
                    layer.on_ack(meta.from, to, *seq);
                }
            }
            received
        };
        if let (Some(links), false) = (&self.links, local_sender) {
            for seq in &received.acks {
                links.send_ack(meta.from, to, *seq);
            }
        }
        let delivered = received
            .deliver
            .into_iter()
            .try_for_each(|(_, m)| deliver(m));
        if local_sender && !ack_first && !received.acks.is_empty() {
            let mut layer = timed_lock(&rel.layer, &self.metrics);
            for seq in &received.acks {
                layer.on_ack(meta.from, to, *seq);
            }
        }
        delivered
    }

    /// Routes one control message: to its socket link when the destination
    /// is hosted by another process, to its task's mailbox otherwise.
    fn route(
        &self,
        to: Endpoint,
        meta: Option<WireMeta>,
        msg: CtrlMsg,
    ) -> Result<(), ThreadedError> {
        if !self.is_local(to) {
            if let Some(links) = &self.links {
                links.send_ctrl(to, meta, msg);
            }
        } else if let Some(mb) = self.mailbox(to, &msg)? {
            // Best-effort: a retired mailbox means its task already
            // finished (shutdown or a recorded error), which the caller
            // surfaces separately.
            if mb.push(Msg::Ctrl(meta, msg)) {
                self.metrics.queue_depth.add(1);
            }
        }
        Ok(())
    }

    /// The mailbox of the task consuming `msg` at local endpoint `to`: the
    /// rep's, or for a process the agent's (export side) or the connection's
    /// importer's (import side). `None` for a program without such a task.
    fn mailbox(&self, to: Endpoint, msg: &CtrlMsg) -> Result<Option<&Arc<Mailbox>>, ThreadedError> {
        Ok(match (to, proc_side(msg)) {
            (Endpoint::Rep { prog }, _) => self.to_rep[prog].as_ref(),
            (Endpoint::Proc { rank, .. }, Some((ProcSide::Import, conn))) => {
                Some(&self.to_imp[conn.0 as usize][rank])
            }
            (Endpoint::Proc { prog, rank }, Some((ProcSide::Export, _))) => {
                self.to_agent[prog][rank].as_ref()
            }
            _ => return Err(ThreadedError::Config("unroutable process message".into())),
        })
    }

    /// Executes one data transfer emitted by exporter `rank`: the matched
    /// object goes from its region's shared `store` to every destination
    /// rank of the connection's redistribution plan.
    fn transfer(
        &self,
        rank: usize,
        store: &BTreeMap<Timestamp, SharedArray>,
        conn: ConnectionId,
        req: RequestId,
        m: Timestamp,
    ) {
        // The object must be buffered when a send is requested; a missing
        // object would already have been reported as a collective
        // violation by the port.
        let Some(obj) = store.get(&m) else { return };
        self.metrics.transfers.inc();
        let _span = self.metrics.phases.wall_span(Phase::Transfer);
        let ct = self.topo.conn(conn);
        for t in ct.plan.sends_from(rank) {
            let bytes = t.rect.cells() * std::mem::size_of::<f64>();
            self.metrics.bytes_transferred.add(bytes as u64);
            let dst = Endpoint::Proc {
                prog: ct.importer_prog,
                rank: t.dst,
            };
            if !self.is_local(dst) {
                if let Some(links) = &self.links {
                    links.send_piece(conn, t.dst, req, t.rect, obj);
                }
                continue;
            }
            // Zero-copy: the piece shares the buffered object (an `Arc`
            // clone); the importer reads its sub-rectangle straight out of
            // the shared buffer. Best-effort: the importer may already be
            // shutting down.
            let _ = self.to_imp[conn.0 as usize][t.dst].push(Msg::Piece {
                req,
                rect: t.rect,
                payload: obj.clone(),
            });
        }
    }
}

/// Moves one export-side engine step's messages (sends strictly before
/// frees, per the [`ExportFx`] contract), then applies the freed timestamps
/// to the stepped region's store.
fn apply_fx(
    net: &Net,
    from: Endpoint,
    state: &mut ExpState,
    fx: ExportFx,
) -> Result<(), ThreadedError> {
    let Endpoint::Proc { rank, .. } = from else {
        return Err(ThreadedError::Config("rep emitted an export step".into()));
    };
    let store = &mut state.stores[fx.region];
    for out in fx.msgs {
        match out {
            Outgoing::Transfer { conn, req, m } => net.transfer(rank, store, conn, req, m),
            ctrl => net.emit_ctrl(from, [ctrl])?,
        }
    }
    for t in &fx.freed {
        store.remove(t);
    }
    Ok(())
}

/// Panic sink for one named control task: a contained poll panic surfaces
/// as `ProcessCrash` exactly like the per-thread loops' `catch_unwind`
/// wrappers did.
fn crash_sink(err: &Arc<ErrSlot>, who: String) -> PanicSink {
    let err = err.clone();
    Arc::new(move |detail| {
        err.record(ThreadedError::ProcessCrash(format!(
            "{who} panicked: {detail}"
        )))
    })
}

/// The per-process export API of the framework: one handle per exported
/// region, driving every connection the region feeds.
pub struct ExportAccess {
    prog: usize,
    rank: usize,
    region: usize,
    conns: Vec<ConnectionId>,
    cell: Arc<ExpCell>,
    net: Arc<Net>,
    clock: Arc<WallClock>,
    block_timeout: Duration,
}

impl ExportAccess {
    /// This process's rank within its program.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of connections this region feeds.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Exports the process's piece of the region at simulation time `ts` on
    /// every connection, returning one outcome per connection (in the
    /// region's connection order). The framework buffers (clones) the piece
    /// at most once unless every connection proves the object will never be
    /// needed. With a bounded buffer the call blocks while any connection's
    /// buffer is full, resuming once control traffic has left every port
    /// at most half full (or at the next 10 ms recheck finding room);
    /// it gives up with [`ThreadedError::Timeout`] after the import
    /// timeout.
    pub fn export(
        &mut self,
        ts: Timestamp,
        data: &LocalArray,
    ) -> Result<Vec<ExportOutcome>, ThreadedError> {
        self.net.err.check()?;
        let _span = self.net.metrics.phases.wall_span(Phase::Export);
        let t0 = self.clock.now();
        let deadline = Instant::now() + self.block_timeout;
        let mut state = timed_lock(&self.cell.state, &self.net.metrics);
        let mut fx = loop {
            match state.node.on_export(self.region, ts) {
                Err(EngineError::Port(couplink_proto::PortError::BufferFull { .. })) => {
                    // Finite buffer: stall until the agent's control traffic
                    // leaves room for a burst, then retry the same export.
                    // The recheck covers a port that no further request
                    // will drain that far: once its importer's last request
                    // is answered, the tail it keeps can exceed half the
                    // capacity while leaving room for the next export.
                    self.net.err.check()?;
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(ThreadedError::Timeout);
                    }
                    let recheck = (now + STALL_RECHECK).min(deadline);
                    self.cell.freed.wait_until(&mut state, recheck);
                }
                other => break other.map_err(ThreadedError::from)?,
            }
        };
        // Journal the schedule position *before* any of this export's
        // messages can escape the process: a restarted node replays its
        // `AppExport` records (regenerating the deterministic payloads) to
        // put the engine back exactly where the application's schedule was.
        // Skipped during replay — these records are what is being replayed.
        if let Some(wal) = &self.net.wal {
            if self.net.wal_active.load(Ordering::Acquire) {
                wal.append(&WalRecord::AppExport {
                    ep: Endpoint::Proc {
                        prog: self.prog,
                        rank: self.rank,
                    },
                    region: self.region as u32,
                    ts,
                });
            }
        }
        if fx.copy {
            // The real buffering memcpy the paper is about — one shared
            // allocation no matter how many connections, pieces or
            // retransmits the object ends up serving.
            self.net.metrics.payload_allocs.inc();
            state.stores[self.region].insert(ts, SharedArray::copy_from(data));
        }
        let actions = std::mem::take(&mut fx.actions);
        let me = Endpoint::Proc {
            prog: self.prog,
            rank: self.rank,
        };
        apply_fx(&self.net, me, &mut state, fx)?;
        drop(state);
        let elapsed = Duration::from_secs_f64((self.clock.now() - t0).max(0.0));
        Ok(actions
            .into_iter()
            .map(|(_, action)| ExportOutcome {
                action: action.into(),
                elapsed,
            })
            .collect())
    }

    /// Statistics per connection, in the region's connection order.
    pub fn stats(&self) -> Vec<ExportStats> {
        let state = self.cell.state.lock();
        self.conns
            .iter()
            .map(|&c| state.node.port_stats(c).clone())
            .collect()
    }

    /// Objects currently buffered, summed over the region's connections (an
    /// object needed by two connections counts twice; the shared store
    /// holds it once).
    pub fn buffered_len(&self) -> usize {
        let state = self.cell.state.lock();
        self.conns
            .iter()
            .map(|&c| state.node.conn_buffered_len(c))
            .sum()
    }
}

/// The per-process import API of the framework: one handle per imported
/// region (exactly one connection).
///
/// The importer *task* feeds answers and pieces into the shared
/// [`ImpCell`]. `import()` would block until the node reaches `Done`
/// anyway, so before it does it runs the control chain its call set off
/// ([`TaskHandle::help`]): the rank that completes the collective polls
/// both reps, the agents and the importer tasks itself and returns without
/// sleeping; a rank that arrived early waits on the cell's condvar.
pub struct ImportAccess {
    prog: usize,
    rank: usize,
    conn: ConnectionId,
    cell: Arc<ImpCell>,
    pieces: PieceMap,
    net: Arc<Net>,
    /// This rank's importer task.
    task: TaskHandle,
    timeout: Duration,
}

impl ImportAccess {
    /// This process's rank within its program.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Collectively imports the data matched to `ts` into `dest` (this
    /// process's piece). Blocks until the framework answers. Returns the
    /// matched timestamp, or `None` if the request had no match (in which
    /// case `dest` is untouched).
    pub fn import(
        &mut self,
        ts: Timestamp,
        dest: &mut LocalArray,
    ) -> Result<Option<Timestamp>, ThreadedError> {
        let _span = self.net.metrics.phases.wall_span(Phase::Import);
        let (req, call) = self.cell.node.lock().begin_import(self.conn, ts)?;
        let me = Endpoint::Proc {
            prog: self.prog,
            rank: self.rank,
        };
        self.task.help(|| self.net.emit_ctrl(me, [call]))?;
        let deadline = Instant::now() + self.timeout;
        let mut node = self.cell.node.lock();
        loop {
            if let Some(ImportState::Done { answer, .. }) = node.state(self.conn) {
                node.finish(self.conn);
                drop(node);
                return match answer {
                    RepAnswer::NoMatch => {
                        self.pieces.lock().remove(&req);
                        Ok(None)
                    }
                    RepAnswer::Match(m) => {
                        for (rect, payload) in self.pieces.lock().remove(&req).unwrap_or_default() {
                            // The one importer-side copy: sub-rectangle
                            // read straight out of the shared buffer.
                            payload.copy_into(&rect, dest);
                        }
                        Ok(Some(m))
                    }
                };
            }
            // A recorded fabric error (a crashed task or, in the socket
            // runtime, a dead peer) wakes this condvar: fail now instead
            // of sitting out the full timeout.
            self.net.err.check()?;
            if self.cell.cv.wait_until(&mut node, deadline).timed_out() {
                drop(node);
                self.net.err.check()?;
                return Err(ThreadedError::Timeout);
            }
        }
    }
}

/// One delivered message through the rank's export node, under the cell
/// lock it shares with the exporting application thread.
fn agent_step(net: &Net, cell: &ExpCell, me: Endpoint, msg: CtrlMsg) -> Result<(), ThreadedError> {
    let mut state = timed_lock(&cell.state, &net.metrics);
    let fx = state.node.on_msg(msg)?;
    let region = fx.region;
    apply_fx(net, me, &mut state, fx)?;
    let room = state.node.has_burst_room(region);
    drop(state);
    // Wake a stalled exporter once it can export a burst, not at every
    // freed object: one wake-up per object makes its thread compete with
    // the senders on every request (see `ExportAccess::export`).
    if room {
        cell.freed.notify_all();
    }
    Ok(())
}

// --- executor tasks ---

/// A finished poll (shutdown marker, or a recorded error).
fn poll_done(msgs: u64) -> Poll {
    Poll {
        msgs,
        done: true,
        ..Poll::idle()
    }
}

/// The agent state machine: one per exporting process. Each poll drains a
/// bounded burst of forwarded requests and buddy-help; an injected agent
/// crash (`CrashTarget::Agent`) is a real panic, contained by the executor
/// and surfaced through the panic sink as `ProcessCrash` — the arriving
/// packet dies with the task, unacked.
struct AgentTask {
    net: Arc<Net>,
    cell: Arc<ExpCell>,
    prog: usize,
    rank: usize,
    crash_after: Option<u64>,
    mbox: Arc<Mailbox>,
    consumed: u64,
    /// This rank's pieces are past the [`LIGHT_PIECE`] bound.
    heavy: bool,
}

impl AgentTask {
    fn on_ctrl(&mut self, meta: Option<WireMeta>, msg: CtrlMsg) -> Result<(), ThreadedError> {
        if self.crash_after.is_some_and(|k| self.consumed >= k) {
            panic!("injected agent crash after {} messages", self.consumed);
        }
        let me = Endpoint::Proc {
            prog: self.prog,
            rank: self.rank,
        };
        self.net.admit(me, meta, msg, |m| {
            self.consumed += 1;
            agent_step(&self.net, &self.cell, me, m)
        })
    }
}

impl Task for AgentTask {
    fn poll(&mut self, _now: Instant) -> Poll {
        let mut msgs = 0u64;
        for _ in 0..REP_BATCH {
            let step = match self.mbox.pop() {
                None => break,
                Some(Msg::Shutdown) => return poll_done(msgs),
                Some(Msg::Ctrl(meta, m)) => self.on_ctrl(meta, m),
                Some(Msg::Piece { .. }) => Err(ThreadedError::Config("piece for an agent".into())),
            };
            self.net.metrics.queue_depth.sub(1);
            msgs += 1;
            if let Err(e) = step {
                self.net.err.record_err(e);
                return poll_done(msgs);
            }
        }
        Poll {
            msgs,
            done: false,
            deadline: None,
            more: !self.mbox.is_empty(),
        }
    }

    fn heavy(&self) -> bool {
        self.heavy
    }
}

/// The rep state machine: consumes control messages through the
/// reliability layer (when armed) and — if targeted by a crash fault —
/// dies and recovers in place across polls.
///
/// The crash window is the engine's [`RepCrash`], packet-granular like the
/// simulator's. While dead the rep discards its mailbox on every poll
/// (everything unacked — senders keep retransmitting) and its timer is
/// armed at the recovery instant: `restart_after` wall seconds, or
/// [`FAILOVER_DELAY`], after which the deterministic successor takes
/// over. The successor inherits the journal because journal replay is
/// deterministic: any member that recorded the same deliveries rebuilds
/// the same state.
///
/// The crash-while-queued case the pooled executor introduces — the fatal
/// packet is sitting in the mailbox while the task waits for a worker —
/// behaves identically: the crash triggers at *consumption*, whenever the
/// poll happens, and the dead window starts from that poll.
struct RepTask {
    net: Arc<Net>,
    topo: Arc<Topology>,
    prog: usize,
    buddy_help: bool,
    hierarchical: bool,
    crash: Option<RepCrash>,
    mbox: Arc<Mailbox>,
    node: RepNode,
    /// While `Some`, the rep is dead and recovers at this instant.
    dead_until: Option<Instant>,
}

impl RepTask {
    /// Discards everything queued while the rep is dead (unacked — the
    /// senders keep retransmitting), then sleeps until `du`. A shutdown
    /// marker still terminates.
    fn dead_poll(&self, msgs: u64, du: Instant) -> Poll {
        while let Some(m) = self.mbox.pop() {
            match m {
                Msg::Shutdown => return poll_done(msgs),
                _ => self.net.metrics.queue_depth.sub(1),
            }
        }
        Poll {
            msgs,
            done: false,
            deadline: Some(du),
            more: false,
        }
    }

    /// Rebuilds the aggregation state from the session's delivery journal
    /// (the WAL's per-endpoint log — in-memory for the in-process failover,
    /// file-backed in the socket runtime) and restores the reliability
    /// layer's receive state, so retransmits of already-consumed messages
    /// dedup and held-back messages re-deliver in order.
    fn recover(&mut self, ep: Endpoint) -> Result<(), ThreadedError> {
        let (Some(crash), Some(rel), Some(wal)) = (&mut self.crash, &self.net.rel, &self.net.wal)
        else {
            return Ok(());
        };
        let journal = wal.delivered(ep);
        let (now, bh, hier) = (rel.clock.now(), self.buddy_help, self.hierarchical);
        if let Some(node) = crash.recover(now, &self.topo, bh, hier, &journal, &self.net.metrics)? {
            self.node = node;
            rel.layer.lock().restore_delivered(ep, &journal);
        }
        Ok(())
    }

    /// One received message through the reliability layer and the rep
    /// node; what the node answers leaves at once.
    fn on_ctrl(
        &mut self,
        ep: Endpoint,
        meta: Option<WireMeta>,
        msg: CtrlMsg,
    ) -> Result<(), ThreadedError> {
        self.net.admit(ep, meta, msg, |m| {
            if let Some(crash) = &mut self.crash {
                crash.consumed();
            }
            let outs = self.node.on_msg(&self.topo, m)?;
            self.net.emit_ctrl(ep, outs)
        })
    }
}

impl Task for RepTask {
    fn poll(&mut self, now: Instant) -> Poll {
        let ep = Endpoint::Rep { prog: self.prog };
        if let Some(du) = self.dead_until {
            if now < du {
                return self.dead_poll(0, du);
            }
            self.dead_until = None;
            if let Err(e) = self.recover(ep) {
                self.net.err.record_err(e);
                return poll_done(0);
            }
        }
        let mut step = Ok(());
        let mut shutdown = false;
        let mut msgs = 0u64;
        // A shutdown marker found mid-drain still processes everything
        // received before it.
        while step.is_ok() && msgs < REP_BATCH as u64 {
            let (meta, m) = match self.mbox.pop() {
                None => break,
                Some(Msg::Shutdown) => {
                    shutdown = true;
                    break;
                }
                Some(Msg::Ctrl(meta, m)) => (meta, m),
                Some(Msg::Piece { .. }) => continue,
            };
            self.net.metrics.queue_depth.sub(1);
            msgs += 1;
            if let (Some(crash), Some(rel)) = (&mut self.crash, &self.net.rel) {
                if let Some(after) = crash.fires(rel.clock.now(), FAILOVER_DELAY.as_secs_f64()) {
                    // The fatal packet and everything arriving while dead
                    // die unacked; the pump keeps retransmitting them.
                    rel.layer.lock().crash_endpoint(ep);
                    let du = Instant::now() + Duration::from_secs_f64(after);
                    self.dead_until = Some(du);
                    return self.dead_poll(msgs, du);
                }
            }
            step = self.on_ctrl(ep, meta, m);
        }
        if let Err(e) = step {
            self.net.err.record_err(e);
            return poll_done(msgs);
        }
        Poll {
            msgs,
            done: shutdown,
            deadline: None,
            more: !shutdown && !self.mbox.is_empty(),
        }
    }
}

/// The importer-side state machine: one per (connection, importing rank).
/// Feeds answer broadcasts and data pieces into the rank's shared
/// [`ImpCell`] and wakes the blocked application thread when its import
/// completes. Pieces land in the shared piece map *before* the node
/// observes them, so a woken importer that sees `Done` always sees the
/// complete piece set.
struct ImpTask {
    net: Arc<Net>,
    prog: usize,
    rank: usize,
    conn: ConnectionId,
    mbox: Arc<Mailbox>,
    cell: Arc<ImpCell>,
    pieces: PieceMap,
    /// Pieces already accepted, keyed `(request, rectangle)`. Pieces are
    /// not sequenced by the reliability layer, so a replaying exporter (or
    /// a link replaying its unacked backlog after a reconnect) may resend
    /// pieces this rank already holds; accepting a duplicate would
    /// double-count `on_piece` and corrupt the import's piece arithmetic.
    seen_pieces: HashSet<(RequestId, Rect)>,
    /// The request whose completion the application thread was last woken
    /// for.
    woke_for: Option<RequestId>,
}

impl ImpTask {
    /// Runs one received answer through the reliability layer (dedup of
    /// retransmitted broadcasts) and the import node, then moves the tree
    /// relays the node emits — once per *accepted* delivery, each hop
    /// independently registered, so a lost relay is healed by this rank's
    /// retransmits rather than the rep's.
    fn on_ctrl(&self, meta: Option<WireMeta>, msg: CtrlMsg) -> Result<(), ThreadedError> {
        let me = Endpoint::Proc {
            prog: self.prog,
            rank: self.rank,
        };
        self.net.admit(me, meta, msg, |m| {
            let relays = self.cell.node.lock().on_msg(m)?;
            self.net.emit_ctrl(me, relays)
        })
    }

    fn on_piece(
        &mut self,
        req: RequestId,
        rect: Rect,
        payload: SharedArray,
    ) -> Result<(), ThreadedError> {
        if !self.seen_pieces.insert((req, rect)) {
            // Duplicate (exporter replay or link reconnect resend):
            // already held, drop it.
            return Ok(());
        }
        // Piece strictly before the node can flip to `Done`: a waiter
        // woken by the condvar must see every piece.
        self.pieces
            .lock()
            .entry(req)
            .or_default()
            .push((rect, payload));
        Ok(self.cell.node.lock().on_piece(self.conn, req)?)
    }
}

impl Task for ImpTask {
    fn poll(&mut self, _now: Instant) -> Poll {
        let mut msgs = 0u64;
        let mut done = false;
        for _ in 0..REP_BATCH {
            let step = match self.mbox.pop() {
                None => break,
                Some(Msg::Shutdown) => {
                    done = true;
                    break;
                }
                Some(Msg::Piece { req, rect, payload }) => self.on_piece(req, rect, payload),
                Some(Msg::Ctrl(meta, m)) => {
                    self.net.metrics.queue_depth.sub(1);
                    self.on_ctrl(meta, m)
                }
            };
            msgs += 1;
            if let Err(e) = step {
                self.net.err.record_err(e);
                done = true;
                break;
            }
        }
        // Wake the blocked importer for what it waits for — its import
        // completed during this poll — and for an error or shutdown it
        // must observe; an answer or a piece alone leaves it asleep.
        let completed = msgs > 0
            && match self.cell.node.lock().state(self.conn) {
                Some(ImportState::Done { req, .. }) => self.woke_for.replace(req) != Some(req),
                _ => false,
            };
        if completed || done {
            self.cell.cv.notify_all();
        }
        Poll {
            msgs,
            done,
            deadline: None,
            more: !done && !self.mbox.is_empty(),
        }
    }
}

/// One pump tick: resend everything the retry policy says is due (the
/// layer lock is held only while the due list is collected).
fn pump_tick(net: &Net, rel: &NetRel) {
    let due = rel.layer.lock().due(rel.clock.now());
    for e in due {
        match e {
            Expiry::Resend { to, meta, msg } => {
                if let Err(e) = net.resend(to, meta, msg) {
                    net.err.record_err(e);
                }
            }
            // Abandoned traffic (expendable buddy-help, or the max-attempts
            // backstop) is already metered by the layer; nothing to send.
            Expiry::Abandon { .. } => {}
        }
    }
}

/// The retransmit pump: each poll resends what is due and sleeps toward
/// the earliest pending retry, but never longer than `base_timeout`. Every
/// deadline the layer sets is `now + RetryPolicy::interval(k)`, at least
/// `base_timeout` ahead of the clock at that moment, so a sleep capped
/// there cannot pass a deadline registered after this poll's scan — and no
/// sender has to wake the pump.
struct PumpTask {
    net: Arc<Net>,
}

impl Task for PumpTask {
    fn poll(&mut self, now: Instant) -> Poll {
        let rel = self.net.rel.as_ref();
        let Some(rel) = rel.filter(|rel| !rel.stop.load(Ordering::Acquire)) else {
            // Shutdown drains pending traffic on the caller's thread
            // (`Session::shutdown`), not here.
            return poll_done(0);
        };
        pump_tick(&self.net, rel);
        let idle = rel.base_timeout;
        let wait = rel.until_next_deadline().unwrap_or(idle).min(idle);
        Poll {
            deadline: Some(now + Duration::from_secs_f64(wait)),
            ..Poll::idle()
        }
    }
}

/// The chaos relay: holds each delayed message copy until its due instant,
/// then routes it. On shutdown (marker or disconnect) every still-pending
/// message is delivered immediately — chaos delays messages, it never
/// loses them, which is what keeps the liveness oracle valid. This stays a
/// dedicated thread (not a task): it exists only under chaos, and its
/// seeded delivery instants should not depend on worker-pool load.
fn relay_loop(net: Arc<Net>, rx: Receiver<RelayMsg>) {
    let mut pending: Vec<(Instant, Endpoint, Option<WireMeta>, CtrlMsg)> = Vec::new();
    loop {
        // Deliver everything already due, then wait for the next deadline.
        let now = Instant::now();
        let mut i = 0;
        while i < pending.len() {
            if pending[i].0 <= now {
                let (_, to, meta, msg) = pending.swap_remove(i);
                net.deliver_ctrl(to, meta, msg);
            } else {
                i += 1;
            }
        }
        let received = match pending.iter().map(|p| p.0).min() {
            Some(due) => match rx.recv_timeout(due.saturating_duration_since(Instant::now())) {
                Ok(m) => Some(m),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => None,
            },
            None => rx.recv().ok(),
        };
        match received {
            Some(RelayMsg::Deliver { due, to, meta, msg }) => pending.push((due, to, meta, msg)),
            Some(RelayMsg::Shutdown) | None => {
                pending.sort_by_key(|p| p.0);
                for (_, to, meta, msg) in pending {
                    net.deliver_ctrl(to, meta, msg);
                }
                return;
            }
        }
    }
}

/// How many executor tasks one session of `topo` under `opts` spawns: one
/// rep per coupled program, one agent per exporting process, one importer
/// task per (connection, importer rank), plus the retransmit pump when the
/// reliability layer is armed. The executor's at-most-once-queued
/// invariant bounds the session's `runq_depth` high-water mark by exactly
/// this number — the bound `simtest --stress` asserts.
pub fn session_task_count(topo: &Topology, opts: &FabricOptions) -> usize {
    let mut n = usize::from(opts.needs_reliability());
    for p in &topo.programs {
        if !p.exports.is_empty() || !p.imports.is_empty() {
            n += 1; // rep task
        }
        if !p.exports.is_empty() {
            n += p.procs; // agent tasks
        }
    }
    for ct in &topo.conns {
        n += topo.programs[ct.importer_prog].procs; // importer tasks
    }
    n
}

// --- sessions ---

/// One running topology's state on the shared executor: its nodes, task
/// handles, mailboxes and per-session metrics.
struct Session {
    topo: Arc<Topology>,
    /// `[prog][rank]`, `Some` for exporting processes.
    cells: Vec<Vec<Option<Arc<ExpCell>>>>,
    /// `[prog][rank][region]`, taken once each.
    exports: Vec<Vec<Vec<Option<ExportAccess>>>>,
    /// `[prog][rank][imported region]`, taken once each.
    imports: Vec<Vec<Vec<Option<ImportAccess>>>>,
    reps: Vec<(Arc<Mailbox>, TaskHandle)>,
    agents: Vec<(Arc<Mailbox>, TaskHandle)>,
    imps: Vec<(Arc<Mailbox>, TaskHandle)>,
    pump: Option<TaskHandle>,
    relay: Option<(Sender<RelayMsg>, JoinHandle<()>)>,
    net: Arc<Net>,
    err: Arc<ErrSlot>,
    traces: Vec<(usize, usize, ConnectionId)>,
    /// Which program this process hosts (`None` = all of them).
    local: Option<usize>,
    metrics: Arc<EngineMetrics>,
}

impl Session {
    /// Builds one session's nodes and spawns its tasks on `exec` under
    /// session id `sid`. Mailboxes are created first (the routing table
    /// must exist before any task runs), then bound to their tasks in
    /// dependency order: pump, agents, reps, importers.
    fn new(topo: Topology, opts: FabricOptions, exec: &Executor, sid: SessionId) -> Self {
        Session::new_partial(topo, opts, exec, sid, None, None, None)
    }

    /// Like [`Session::new`], but hosting only program `local` when given
    /// (the socket runtime's shape: one OS process per program). Tasks,
    /// engine cells and application handles are built only for the hosted
    /// program; traffic for every other endpoint is handed to `links`.
    /// `metrics` lets the caller supply pre-made instrumentation — the
    /// socket node opens its durable journal (which meters replay) before
    /// the session exists.
    fn new_partial(
        topo: Topology,
        opts: FabricOptions,
        exec: &Executor,
        sid: SessionId,
        local: Option<usize>,
        links: Option<Arc<dyn RemoteLinks>>,
        metrics: Option<Arc<EngineMetrics>>,
    ) -> Self {
        let topo = Arc::new(topo);
        let err = Arc::new(ErrSlot::default());
        let clock = Arc::new(WallClock::start());
        let metrics = metrics.unwrap_or_else(|| Arc::new(EngineMetrics::new()));
        let crash = opts.chaos.and_then(|c| c.crash);
        // Reliability is armed only when the faults require it — see
        // `NetRel`. Wall-clock retry timescales: first retransmit after
        // 50 ms, backing off to 400 ms.
        let needs_rel = opts.needs_reliability();
        let rel = needs_rel.then(|| {
            NetRel::new(
                RetryPolicy {
                    base_timeout: 0.05,
                    backoff: 2.0,
                    max_timeout: 0.4,
                    ..RetryPolicy::default()
                },
                &metrics,
                clock.clone(),
                opts.drop_buddy_help,
                opts.chaos,
            )
        });

        // Mailboxes first (the routing table must exist before any task).
        // In a partial session only the hosted program's endpoints get
        // mailboxes: foreign destinations are forwarded by `Net::route`
        // before any mailbox lookup, so the holes are never touched.
        let mut rep_boxes: Vec<Option<Arc<Mailbox>>> = Vec::new();
        let mut agent_boxes: Vec<Vec<Option<Arc<Mailbox>>>> = Vec::new();
        for (pi, p) in topo.programs.iter().enumerate() {
            let coupled = (!p.exports.is_empty() || !p.imports.is_empty()) && hosts(local, pi);
            rep_boxes.push(coupled.then(|| Arc::new(Mailbox::new())));
            let exporting = !p.exports.is_empty() && hosts(local, pi);
            agent_boxes.push(
                (0..p.procs)
                    .map(|_| exporting.then(|| Arc::new(Mailbox::new())))
                    .collect(),
            );
        }
        let mut imp_boxes: Vec<Vec<Arc<Mailbox>>> = Vec::new();
        for ct in &topo.conns {
            let procs = topo.programs[ct.importer_prog].procs;
            imp_boxes.push((0..procs).map(|_| Arc::new(Mailbox::new())).collect());
        }
        let relay_channel = opts.chaos.map(|cfg| {
            let (tx, rx) = unbounded::<RelayMsg>();
            (cfg, tx, rx)
        });
        let net = Arc::new(Net {
            topo: topo.clone(),
            to_rep: rep_boxes.clone(),
            to_agent: agent_boxes.clone(),
            to_imp: imp_boxes.clone(),
            err: err.clone(),
            chaos: relay_channel.as_ref().map(|(cfg, tx, _)| NetChaos {
                cfg: *cfg,
                counter: AtomicU64::new(0),
                relay: tx.clone(),
            }),
            rel,
            local,
            links,
            // Armed reliability always journals (the rep failover replays
            // it); without an explicit backend the journal is in-memory.
            wal: needs_rel.then(|| opts.wal.clone().unwrap_or_else(WalHandle::mem)),
            wal_active: AtomicBool::new(true),
            metrics: Arc::clone(&metrics),
        });
        if opts.hierarchical {
            metrics.tree_depth.set(topo.tree_depth() as u64);
        }
        // The chaos relay stays a dedicated thread; see `relay_loop`.
        let relay = relay_channel.map(|(_, tx, rx)| {
            let net = net.clone();
            let handle = std::thread::Builder::new()
                .name("couplink-chaos-relay".into())
                .spawn(move || relay_loop(net, rx))
                .expect("spawning chaos relay thread");
            (tx, handle)
        });
        let pump = net.rel.is_some().then(|| {
            exec.spawn(
                sid,
                metrics.clone(),
                crash_sink(&err, "retry pump".into()),
                Box::new(PumpTask { net: net.clone() }),
            )
        });

        // Exporting processes: engine state + agent tasks.
        let mut cells: Vec<Vec<Option<Arc<ExpCell>>>> = Vec::new();
        let mut agents = Vec::new();
        for (pi, p) in topo.programs.iter().enumerate() {
            let mut prog_cells = Vec::new();
            for (rank, agent_box) in agent_boxes[pi].iter().enumerate() {
                let Some(mbox) = agent_box.clone() else {
                    prog_cells.push(None);
                    continue;
                };
                let mut node =
                    ExportNode::new(&topo, pi, rank, opts.buffer_capacity, opts.hierarchical);
                node.set_metrics(Arc::clone(&metrics));
                for &(tp, tr, tc) in &opts.traces {
                    if tp == pi && tr == rank {
                        node.enable_trace(tc);
                    }
                }
                let stores = (0..p.exports.len()).map(|_| BTreeMap::new()).collect();
                let cell = Arc::new(ExpCell {
                    state: Mutex::new(ExpState { node, stores }),
                    freed: Condvar::new(),
                });
                let crash_after = crash.and_then(|f| match f.target {
                    CrashTarget::Agent { prog, rank: r } if prog == pi && r == rank => {
                        Some(f.after_msgs)
                    }
                    _ => None,
                });
                let handle = exec.spawn(
                    sid,
                    metrics.clone(),
                    crash_sink(&err, format!("agent {pi}.{rank}")),
                    Box::new(AgentTask {
                        net: net.clone(),
                        cell: cell.clone(),
                        prog: pi,
                        rank,
                        crash_after,
                        mbox: mbox.clone(),
                        consumed: 0,
                        heavy: p.exports.iter().any(|e| {
                            let light = LIGHT_PIECE * if net.links.is_some() { 1 } else { 16 };
                            e.decomp.owned(rank).cells() * size_of::<f64>() > light
                        }),
                    }),
                );
                mbox.bind(handle.clone());
                agents.push((mbox, handle));
                prog_cells.push(Some(cell));
            }
            cells.push(prog_cells);
        }

        // Rep tasks.
        let mut reps = Vec::new();
        for (pi, rep_box) in rep_boxes.iter().enumerate() {
            let Some(mbox) = rep_box.clone() else {
                continue;
            };
            let fault = crash.filter(|f| f.target == CrashTarget::Rep(pi));
            let handle = exec.spawn(
                sid,
                metrics.clone(),
                crash_sink(&err, format!("rep {pi}")),
                Box::new(RepTask {
                    net: net.clone(),
                    topo: topo.clone(),
                    prog: pi,
                    buddy_help: opts.buddy_help,
                    hierarchical: opts.hierarchical,
                    crash: fault.map(|f| RepCrash::new(pi, f)),
                    mbox: mbox.clone(),
                    node: RepNode::new(&topo, pi, opts.buddy_help, opts.hierarchical),
                    dead_until: None,
                }),
            );
            mbox.bind(handle.clone());
            reps.push((mbox, handle));
        }

        // Application-side handles + importer tasks.
        let mut exports: Vec<Vec<Vec<Option<ExportAccess>>>> = Vec::new();
        let mut imports: Vec<Vec<Vec<Option<ImportAccess>>>> = Vec::new();
        let mut imps = Vec::new();
        let mut imp_cells: Vec<Arc<ImpCell>> = Vec::new();
        for (pi, p) in topo.programs.iter().enumerate() {
            if !hosts(local, pi) {
                // A foreign program's handles and importer tasks live in
                // the process hosting it.
                exports.push((0..p.procs).map(|_| Vec::new()).collect());
                imports.push((0..p.procs).map(|_| Vec::new()).collect());
                continue;
            }
            let mut prog_exports = Vec::new();
            let mut prog_imports = Vec::new();
            for rank in 0..p.procs {
                prog_exports.push(
                    p.exports
                        .iter()
                        .enumerate()
                        .map(|(ri, region)| {
                            Some(ExportAccess {
                                prog: pi,
                                rank,
                                region: ri,
                                conns: region.conns.clone(),
                                cell: cells[pi][rank].clone().expect("exporting process"),
                                net: net.clone(),
                                clock: clock.clone(),
                                block_timeout: opts.import_timeout,
                            })
                        })
                        .collect(),
                );
                let imp_cell = (!p.imports.is_empty()).then(|| {
                    let mut node = ImportNode::new(&topo, pi, rank);
                    node.set_metrics(Arc::clone(&metrics));
                    let cell = Arc::new(ImpCell {
                        node: Mutex::new(node),
                        cv: Condvar::new(),
                    });
                    imp_cells.push(cell.clone());
                    cell
                });
                prog_imports.push(
                    p.imports
                        .iter()
                        .map(|region| {
                            let cell = imp_cell.clone().expect("importing process");
                            let mbox = imp_boxes[region.conn.0 as usize][rank].clone();
                            let pieces: PieceMap = Arc::new(Mutex::new(HashMap::new()));
                            let handle = exec.spawn(
                                sid,
                                metrics.clone(),
                                crash_sink(&err, format!("importer {pi}.{rank}")),
                                Box::new(ImpTask {
                                    net: net.clone(),
                                    prog: pi,
                                    rank,
                                    conn: region.conn,
                                    mbox: mbox.clone(),
                                    cell: cell.clone(),
                                    pieces: pieces.clone(),
                                    seen_pieces: HashSet::new(),
                                    woke_for: None,
                                }),
                            );
                            mbox.bind(handle.clone());
                            imps.push((mbox, handle.clone()));
                            Some(ImportAccess {
                                prog: pi,
                                rank,
                                conn: region.conn,
                                cell,
                                pieces,
                                net: net.clone(),
                                task: handle,
                                timeout: opts.import_timeout,
                            })
                        })
                        .collect(),
                );
            }
            exports.push(prog_exports);
            imports.push(prog_imports);
        }

        let exp_cells = cells.iter().flatten().flatten().cloned().collect();
        let _ = err.exp_cells.set(exp_cells);
        let _ = err.imp_cells.set(imp_cells);
        Session {
            topo,
            cells,
            exports,
            imports,
            reps,
            agents,
            imps,
            pump,
            relay,
            net,
            err,
            traces: opts.traces,
            local,
            metrics,
        }
    }

    /// Stops this session's tasks and returns per-connection statistics
    /// and the recorded traces. Call after the application threads have
    /// finished and dropped their handles.
    ///
    /// # Shutdown ordering
    ///
    /// Stages matter here. An importer's `import()` returns as soon as its
    /// rep broadcasts the answer, but the *exporter's* rep sends its
    /// buddy-help notifications **after** the answer — so at the instant
    /// the application decides to shut down, a rep task may still be
    /// about to send buddy-help to agent mailboxes. If the agents' shutdown
    /// markers were enqueued first, that late buddy-help would land behind
    /// the marker and be silently dropped, losing the memcpy savings and —
    /// with a NO MATCH answer — leaving the request open forever on the
    /// helped rank. Therefore: first drain pending reliable traffic and
    /// retire the pump (no retransmission can land behind a marker), then
    /// the chaos relay (its delayed copies must reach the reps), then the
    /// reps (everything they owed is now in the agent mailboxes), then the
    /// agents, then the importer tasks — per-mailbox FIFO guarantees each
    /// consumes every pending message before seeing its marker.
    fn shutdown(mut self, exec: &Executor) -> Result<FabricReport, ThreadedError> {
        // Drain on the caller's thread: an import can complete while a
        // sequenced message is still owed to some rank (the rep answers as
        // soon as the collective decision is available; lagging ranks are
        // told via buddy-help), so the session may not stop while reliable
        // messages are pending unacked — stopping early would make a lost
        // `ForwardRequest` permanent and break collective order. The
        // drain polls (acks arrive on other threads) at the cadence
        // `SocketLinks::quiesce` uses; it terminates because loss draws
        // are independent per attempt and the retry policy's
        // `max_attempts` backstop abandons anything undeliverable (e.g. a
        // crashed task's mailbox). A recorded fabric error or `DRAIN_CAP`
        // cuts it short — the run is already failed or wedged.
        if let Some(rel) = &self.net.rel {
            let cap = Instant::now() + DRAIN_CAP;
            loop {
                pump_tick(&self.net, rel);
                let Some(wait) = rel.until_next_deadline() else {
                    break; // nothing pending
                };
                if self.err.check().is_err() || Instant::now() >= cap {
                    break;
                }
                std::thread::sleep(Duration::from_secs_f64(wait.min(0.001)));
            }
            rel.stop.store(true, Ordering::Release);
        }
        if let Some(h) = self.pump.take() {
            h.schedule();
            exec.wait_done(std::slice::from_ref(&h));
        }
        if let Some((tx, h)) = self.relay.take() {
            let _ = tx.send(RelayMsg::Shutdown);
            let _ = h.join();
        }
        for (mb, _) in &self.reps {
            let _ = mb.push(Msg::Shutdown);
        }
        let rep_handles: Vec<TaskHandle> = self.reps.iter().map(|(_, h)| h.clone()).collect();
        exec.wait_done(&rep_handles);
        for (mb, _) in &self.agents {
            let _ = mb.push(Msg::Shutdown);
        }
        let agent_handles: Vec<TaskHandle> = self.agents.iter().map(|(_, h)| h.clone()).collect();
        exec.wait_done(&agent_handles);
        for (mb, _) in &self.imps {
            let _ = mb.push(Msg::Shutdown);
        }
        let imp_handles: Vec<TaskHandle> = self.imps.iter().map(|(_, h)| h.clone()).collect();
        exec.wait_done(&imp_handles);
        self.err.check()?;
        let stats = self
            .topo
            .conns
            .iter()
            .map(|ct| {
                if !hosts(self.local, ct.exporter_prog) {
                    // A partial session reports only its own exporters;
                    // the orchestrator merges the per-process reports.
                    return Vec::new();
                }
                (0..self.topo.programs[ct.exporter_prog].procs)
                    .map(|rank| {
                        let cell = self.cells[ct.exporter_prog][rank]
                            .as_ref()
                            .expect("exporting process");
                        cell.state.lock().node.port_stats(ct.id).clone()
                    })
                    .collect()
            })
            .collect();
        let traces = self
            .traces
            .iter()
            .filter_map(|&(prog, rank, conn)| {
                let cell = self.cells[prog][rank].as_ref()?;
                let trace = cell.state.lock().node.take_trace(conn)?;
                Some((prog, rank, conn, trace))
            })
            .collect();
        Ok(FabricReport {
            stats,
            traces,
            metrics: self.metrics.snapshot(),
        })
    }
}

/// N independent [`Topology`] instances multiplexed on one worker pool,
/// each with its own [`EngineMetrics`] and fair (round-robin) scheduling
/// against its siblings. This is the many-programs-multiplexed-on-few-
/// workers shape: thousands of coupling sessions no longer cost two OS
/// threads per program.
pub struct SessionSet {
    exec: Executor,
    sessions: Vec<Option<Session>>,
}

impl Default for SessionSet {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionSet {
    /// Creates the worker pool (no sessions yet).
    pub fn new() -> Self {
        SessionSet {
            exec: Executor::new(),
            sessions: Vec::new(),
        }
    }

    /// Adds one session for a validated topology, spawning its tasks on
    /// the shared pool. Returns the session's index.
    pub fn add_session(&mut self, topo: Topology, opts: FabricOptions) -> usize {
        let sid = self.exec.add_session();
        debug_assert_eq!(sid, self.sessions.len(), "session ids are dense");
        let session = Session::new(topo, opts, &self.exec, sid);
        self.sessions.push(Some(session));
        sid
    }

    /// Adds a partial session hosting only program `local`, with `links`
    /// carrying foreign-endpoint traffic — the socket runtime's entry
    /// point. `metrics` supplies pre-made instrumentation (the node's
    /// journal meters into it before the session exists); `None` creates a
    /// fresh set. Returns the session's index.
    pub(crate) fn add_partial_session(
        &mut self,
        topo: Topology,
        opts: FabricOptions,
        local: usize,
        links: Arc<dyn RemoteLinks>,
        metrics: Option<Arc<EngineMetrics>>,
    ) -> usize {
        let sid = self.exec.add_session();
        debug_assert_eq!(sid, self.sessions.len(), "session ids are dense");
        let session = Session::new_partial(
            topo,
            opts,
            &self.exec,
            sid,
            Some(local),
            Some(links),
            metrics,
        );
        self.sessions.push(Some(session));
        sid
    }

    /// One session's routing table, for injecting traffic that arrived
    /// over a socket link.
    pub(crate) fn session_net(&self, session: usize) -> Arc<Net> {
        Arc::clone(&self.session(session).net)
    }

    /// Records a fatal error on one session (the socket runtime's: a peer
    /// process died mid-run), which wakes its blocked application calls.
    pub(crate) fn fail_session(&self, session: usize, detail: String) {
        if let Some(Some(s)) = self.sessions.get(session) {
            s.err.record(ThreadedError::ProcessCrash(detail));
        }
    }

    fn session(&self, session: usize) -> &Session {
        self.sessions[session]
            .as_ref()
            .expect("session already shut down")
    }

    /// The topology one session runs.
    pub fn topology(&self, session: usize) -> &Topology {
        &self.session(session).topo
    }

    /// One session's instrumentation (shared by every node and handle of
    /// that session). Clone it out before `shutdown_session` if you need
    /// the counters afterwards.
    pub fn session_metrics(&self, session: usize) -> Arc<EngineMetrics> {
        Arc::clone(&self.session(session).metrics)
    }

    /// Takes the export handle for region `region` of process `rank` of
    /// program `prog` of session `session` (once).
    ///
    /// # Panics
    ///
    /// Panics if taken twice, or if the process exports no such region.
    pub fn take_export(
        &mut self,
        session: usize,
        prog: usize,
        rank: usize,
        region: usize,
    ) -> ExportAccess {
        self.sessions[session]
            .as_mut()
            .expect("session already shut down")
            .exports[prog][rank][region]
            .take()
            .expect("export handle already taken")
    }

    /// Takes the import handle for imported region `region` of process
    /// `rank` of program `prog` of session `session` (once).
    ///
    /// # Panics
    ///
    /// Panics if taken twice, or if the process imports no such region.
    pub fn take_import(
        &mut self,
        session: usize,
        prog: usize,
        rank: usize,
        region: usize,
    ) -> ImportAccess {
        self.sessions[session]
            .as_mut()
            .expect("session already shut down")
            .imports[prog][rank][region]
            .take()
            .expect("import handle already taken")
    }

    /// Drains and retires one session, releasing its runnables without
    /// touching its siblings (their tasks keep being scheduled throughout
    /// — the pool itself stays up). Returns the session's report.
    ///
    /// # Panics
    ///
    /// Panics if the session was already shut down.
    pub fn shutdown_session(&mut self, session: usize) -> Result<FabricReport, ThreadedError> {
        self.sessions[session]
            .take()
            .expect("session already shut down")
            .shutdown(&self.exec)
    }

    /// Drains every remaining session, then stops and joins the pool.
    /// The first session error (in index order) is returned; later
    /// sessions are still drained.
    pub fn shutdown(mut self) -> Result<(), ThreadedError> {
        let mut first_err = None;
        for s in 0..self.sessions.len() {
            if self.sessions[s].is_some() {
                if let Err(e) = self.shutdown_session(s) {
                    first_err.get_or_insert(e);
                }
            }
        }
        self.exec.shutdown();
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A running multi-program fabric: the engine's nodes for one
/// [`Topology`], multiplexed on a private worker pool. A thin wrapper
/// around a single-session [`SessionSet`].
pub struct Fabric {
    set: SessionSet,
}

impl Fabric {
    /// Builds the fabric for a validated topology and spawns its control
    /// tasks on a default-sized worker pool.
    pub fn new(topo: Topology, opts: FabricOptions) -> Self {
        let mut set = SessionSet::new();
        set.add_session(topo, opts);
        Fabric { set }
    }

    /// The topology this fabric runs.
    pub fn topology(&self) -> &Topology {
        self.set.topology(0)
    }

    /// The run-wide instrumentation shared by every node and handle.
    pub fn metrics(&self) -> Arc<EngineMetrics> {
        self.set.session_metrics(0)
    }

    /// Takes the export handle for region `region` of process `rank` of
    /// program `prog` (once).
    ///
    /// # Panics
    ///
    /// Panics if taken twice, or if the process exports no such region.
    pub fn take_export(&mut self, prog: usize, rank: usize, region: usize) -> ExportAccess {
        self.set.take_export(0, prog, rank, region)
    }

    /// Takes the import handle for imported region `region` of process
    /// `rank` of program `prog` (once).
    ///
    /// # Panics
    ///
    /// Panics if taken twice, or if the process imports no such region.
    pub fn take_import(&mut self, prog: usize, rank: usize, region: usize) -> ImportAccess {
        self.set.take_import(0, prog, rank, region)
    }

    /// Stops all control tasks and returns per-connection statistics and
    /// the recorded traces. Call after the application threads have
    /// finished and dropped their handles. The ordering notes are on
    /// `Session::shutdown`.
    pub fn shutdown(mut self) -> Result<FabricReport, ThreadedError> {
        self.set.shutdown_session(0)
    }

    /// Arms the relay-drop mutation on every importing process, for
    /// mutation-testing the oracles (see [`ImportNode::arm_relay_drop`]).
    pub fn arm_relay_drop(&self) {
        let imp_cells = self.set.session(0).err.imp_cells.get();
        for cell in imp_cells.expect("session built") {
            cell.node.lock().arm_relay_drop();
        }
    }

    /// Arms the ack-before-handle mutation, for mutation-testing the
    /// shutdown drain: an in-process sender's acks are applied before the
    /// receiving handler runs, so for one instant neither the message nor
    /// what the handler sends is pending. No effect on an unarmed layer.
    pub fn arm_ack_before_handle(&self) {
        if let Some(rel) = &self.set.session_net(0).rel {
            rel.ack_before_handle.store(true, Ordering::Relaxed);
        }
    }

    /// Test hook: the exporting process's shared engine cell.
    #[cfg(test)]
    fn cell(&self, prog: usize, rank: usize) -> Arc<ExpCell> {
        self.set.session(0).cells[prog][rank]
            .clone()
            .expect("exporting process")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ConnTopo, CrashFault, ExportRegionTopo, ImportRegionTopo, ProgramTopo};
    use couplink_layout::{Decomposition, Extent2, LocalArray, RedistPlan};
    use couplink_metrics::{CtrlClass, Histogram};
    use couplink_proto::trace::TraceEvent;
    use couplink_time::{ts, MatchPolicy, Tolerance};

    /// One exported region (single rank) feeding two overlapping REGL
    /// connections: importer program A (two ranks) and importer program B
    /// (one rank). Three pieces leave the exporter for one buffered
    /// object; the zero-copy data plane must serve all of them from the
    /// single allocation made at the buffering decision.
    fn fanout_topology() -> (Topology, Decomposition, Decomposition, Decomposition) {
        let extent = Extent2::new(8, 8);
        let exp_d = Decomposition::row_block(extent, 1).expect("exporter decomp");
        let imp_a = Decomposition::row_block(extent, 2).expect("importer A decomp");
        let imp_b = Decomposition::row_block(extent, 1).expect("importer B decomp");
        let tol = Tolerance::new(1.5).expect("tolerance");
        let topo = Topology {
            programs: vec![
                ProgramTopo {
                    name: "E".into(),
                    procs: 1,
                    exports: vec![ExportRegionTopo {
                        name: "r".into(),
                        decomp: exp_d,
                        conns: vec![ConnectionId(0), ConnectionId(1)],
                    }],
                    imports: Vec::new(),
                },
                ProgramTopo {
                    name: "A".into(),
                    procs: 2,
                    exports: Vec::new(),
                    imports: vec![ImportRegionTopo {
                        name: "ma".into(),
                        decomp: imp_a,
                        conn: ConnectionId(0),
                    }],
                },
                ProgramTopo {
                    name: "B".into(),
                    procs: 1,
                    exports: Vec::new(),
                    imports: vec![ImportRegionTopo {
                        name: "mb".into(),
                        decomp: imp_b,
                        conn: ConnectionId(1),
                    }],
                },
            ],
            conns: vec![
                ConnTopo {
                    id: ConnectionId(0),
                    exporter_prog: 0,
                    exporter_region: 0,
                    importer_prog: 1,
                    importer_region: 0,
                    policy: MatchPolicy::RegL,
                    tolerance: tol,
                    plan: Arc::new(RedistPlan::build(exp_d, imp_a).expect("plan A")),
                },
                ConnTopo {
                    id: ConnectionId(1),
                    exporter_prog: 0,
                    exporter_region: 0,
                    importer_prog: 2,
                    importer_region: 0,
                    policy: MatchPolicy::RegL,
                    tolerance: tol,
                    plan: Arc::new(RedistPlan::build(exp_d, imp_b).expect("plan B")),
                },
            ],
        };
        (topo, exp_d, imp_a, imp_b)
    }

    /// The zero-copy sharing proof: one export buffered once
    /// (`payload_allocs == memcpy_paid == 1` for the served object) is
    /// delivered over three transfers (two ranks of A, one of B) without
    /// any further allocation, and the buffered object the store holds
    /// after serving is pointer-identical to the one captured at the
    /// buffering decision.
    #[test]
    fn one_buffered_object_serves_overlapping_connections_without_copies() {
        let (topo, exp_d, imp_a, imp_b) = fanout_topology();
        let mut fabric = Fabric::new(topo, FabricOptions::default());
        let metrics = fabric.metrics();
        let cell = fabric.cell(0, 0);

        let mut exp = fabric.take_export(0, 0, 0);
        let data = LocalArray::from_fn(exp_d.owned(0), |r, c| (r * 8 + c) as f64 + 0.25);
        exp.export(ts(1.0), &data).unwrap();
        // Captured at the buffering decision: the one allocation.
        let handle = cell.state.lock().stores[0]
            .get(&ts(1.0))
            .cloned()
            .expect("export buffered");
        assert_eq!(SharedArray::strong_count(&handle), 2, "store + our capture");
        assert_eq!(metrics.payload_allocs.get(), 1);
        // A second export past the request region makes REGL's match at
        // 1.0 definitive (region for import 2.0 at tol 1.5 is [0.5, 2.0]).
        exp.export(ts(5.0), &data).unwrap();

        let mut threads = Vec::new();
        for (prog, rank, decomp) in [(1usize, 0usize, imp_a), (1, 1, imp_a), (2, 0, imp_b)] {
            let mut imp = fabric.take_import(prog, rank, 0);
            let owned = decomp.owned(rank);
            threads.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                let m = imp.import(ts(2.0), &mut dest).unwrap();
                assert_eq!(m, Some(ts(1.0)));
                for r in owned.row0..owned.row_end() {
                    for c in owned.col0..owned.col_end() {
                        assert_eq!(dest.get(r, c), (r * 8 + c) as f64 + 0.25);
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }

        let snap = metrics.snapshot();
        // One matched object per connection (2 transfers) fanned out as
        // three pieces — 4×8 and 4×8 to A's ranks plus 8×8 to B, 1024
        // bytes — while both exports were buffered exactly once each and
        // nothing else allocated payload memory.
        assert_eq!(snap.counters.transfers, 2, "{snap:?}");
        assert_eq!(snap.counters.bytes_transferred, 1024, "{snap:?}");
        assert_eq!(snap.counters.memcpy_paid, 2, "{snap:?}");
        assert_eq!(snap.counters.memcpy_skipped, 0, "{snap:?}");
        assert_eq!(
            snap.counters.payload_allocs, snap.counters.memcpy_paid,
            "{snap:?}"
        );
        // The store still holds the exact buffer captured before serving:
        // serving three transfers did not replace or re-copy it.
        if let Some(now) = cell.state.lock().stores[0].get(&ts(1.0)) {
            assert!(SharedArray::ptr_eq(&handle, now));
        }
        fabric.shutdown().unwrap();
    }

    /// A chaos-armed rep takes a queued backlog in one poll, exactly like a
    /// fault-free one: three requests queued before the rep is scheduled
    /// once are one `poll_batch` sample of 3 (a rep that takes one message
    /// per poll under chaos records three samples of 1), each is forwarded
    /// once, and the exporter rank sees connection 0's two in the order
    /// they were queued. The backlog is loaded by hand because application
    /// timing does not build one: the thread that pushes to an idle rep
    /// polls it right after the push.
    #[test]
    fn chaos_armed_rep_drains_its_backlog_in_one_poll() {
        let (topo, ..) = fanout_topology();
        let opts = FabricOptions {
            traces: vec![(0, 0, ConnectionId(0))],
            chaos: Some(ChaosConfig {
                seed: 7,
                max_delay: 0.0,
                duplicate_prob: 0.0,
                drop_prob: 0.0,
                retry_delay: 0.05,
                loss_prob: 0.0,
                crash: None,
            }),
            ..FabricOptions::default()
        };
        let fabric = Fabric::new(topo, opts);
        let metrics = fabric.metrics();
        let net = fabric.set.session_net(0);
        let rep = net.to_rep[0].as_ref().expect("exporter rep");
        let backlog = [(0, 0, 2.0), (1, 0, 2.0), (0, 1, 4.0)];
        {
            let mut q = rep.q.lock();
            for (conn, req, x) in backlog {
                let (conn, req, ts) = (ConnectionId(conn), RequestId(req), ts(x));
                q.push_back(Msg::Ctrl(None, CtrlMsg::ImportRequest { conn, req, ts }));
                metrics.queue_depth.add(1);
            }
        }
        rep.task.get().expect("bound").schedule();
        let forwards = metrics.ctrl(CtrlClass::ForwardRequest);
        let deadline = Instant::now() + Duration::from_secs(10);
        while forwards.get() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = fabric.shutdown().unwrap();
        let c = &report.metrics.counters;
        assert_eq!(c.ctrl(CtrlClass::ForwardRequest), 3, "{c:?}");
        // The rep's one poll (the agent it woke may take its three
        // forwards in one poll too).
        assert!(c.poll_batch[Histogram::bucket_of(3)] >= 1, "{c:?}");
        let (.., trace) = &report.traces[0];
        let seen: Vec<Timestamp> = trace
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Request { x, .. } => Some(*x),
                _ => None,
            })
            .collect();
        assert_eq!(seen, [ts(2.0), ts(4.0)]);
    }

    /// Executor edge case: a rep crash armed on message count fires while
    /// the rep's messages sit queued in its mailbox (the crash check runs
    /// per-message inside a single poll burst, so by construction some of
    /// the fatal burst was "queued but not running" when the fault
    /// tripped). Journal-replay failover must still recover the session:
    /// every import completes and `failovers` records the restart.
    #[test]
    fn rep_crash_while_messages_queued_triggers_failover() {
        let (topo, exp_d, imp_a, imp_b) = fanout_topology();
        let opts = FabricOptions {
            import_timeout: Duration::from_secs(20),
            chaos: Some(ChaosConfig {
                seed: 11,
                max_delay: 0.0,
                duplicate_prob: 0.0,
                drop_prob: 0.0,
                retry_delay: 0.05,
                loss_prob: 0.0,
                crash: Some(CrashFault {
                    // Program 1's rep sees 2 ranks × 4 iterations of
                    // ImportCall traffic; dying after 3 leaves the rest
                    // of the burst pending in the mailbox.
                    target: CrashTarget::Rep(1),
                    after_msgs: 3,
                    restart_after: Some(0.05),
                }),
            }),
            ..FabricOptions::default()
        };
        let mut fabric = Fabric::new(topo, opts);
        let metrics = fabric.metrics();
        let mut exp = fabric.take_export(0, 0, 0);
        let data = LocalArray::from_fn(exp_d.owned(0), |r, c| (r * 3 + c) as f64);
        let mut threads = Vec::new();
        for (prog, rank, decomp) in [(1usize, 0usize, imp_a), (1, 1, imp_a), (2, 0, imp_b)] {
            let mut imp = fabric.take_import(prog, rank, 0);
            let owned = decomp.owned(rank);
            threads.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                for j in 1..=4 {
                    let m = imp.import(ts(j as f64), &mut dest).unwrap();
                    assert_eq!(m, Some(ts(j as f64)));
                }
            }));
        }
        for j in 1..=4 {
            exp.export(ts(j as f64), &data).unwrap();
        }
        for t in threads {
            t.join().unwrap();
        }
        assert!(
            metrics.failovers.get() >= 1,
            "rep crash must be recovered by journal replay"
        );
        fabric.shutdown().unwrap();
    }

    /// A rep that dies *without* a restart plan is taken over after
    /// `FAILOVER_DELAY`, every import completes, and the measured recovery
    /// stays within a ~1 s budget (recovery_ms histogram bucket 10 =
    /// 1024 ms).
    #[test]
    fn stalled_rep_fails_over_within_recovery_budget() {
        let (topo, exp_d, imp_a, imp_b) = fanout_topology();
        let opts = FabricOptions {
            import_timeout: Duration::from_secs(20),
            chaos: Some(ChaosConfig {
                seed: 5,
                max_delay: 0.0,
                duplicate_prob: 0.0,
                drop_prob: 0.0,
                retry_delay: 0.05,
                loss_prob: 0.0,
                crash: Some(CrashFault {
                    // The exporter program's rep goes silent after 3
                    // messages and never restarts on its own.
                    target: CrashTarget::Rep(0),
                    after_msgs: 3,
                    restart_after: None,
                }),
            }),
            ..FabricOptions::default()
        };
        let mut fabric = Fabric::new(topo, opts);
        let metrics = fabric.metrics();
        let mut exp = fabric.take_export(0, 0, 0);
        let data = LocalArray::from_fn(exp_d.owned(0), |r, c| (r * 2 + c) as f64);
        let mut threads = Vec::new();
        for (prog, rank, decomp) in [(1usize, 0usize, imp_a), (1, 1, imp_a), (2, 0, imp_b)] {
            let mut imp = fabric.take_import(prog, rank, 0);
            let owned = decomp.owned(rank);
            threads.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                for j in 1..=4 {
                    let m = imp.import(ts(j as f64), &mut dest).unwrap();
                    assert_eq!(m, Some(ts(j as f64)));
                }
            }));
        }
        for j in 1..=4 {
            exp.export(ts(j as f64), &data).unwrap();
        }
        for t in threads {
            t.join().unwrap();
        }
        let snap = metrics.snapshot();
        fabric.shutdown().unwrap();
        assert!(
            snap.counters.failovers >= 1,
            "the silent rep must be taken over: {snap:?}"
        );
        let recoveries: u64 = snap.counters.recovery_ms.iter().sum();
        assert!(recoveries >= 1, "recovery time must be observed: {snap:?}");
        let over_budget: u64 = snap.counters.recovery_ms[11..].iter().sum();
        assert_eq!(
            over_budget, 0,
            "recovery exceeded the 1024 ms budget: {snap:?}"
        );
    }

    /// Minimal 1-exporter-rank / 1-importer-rank topology for multi-
    /// session tests.
    fn pair_topology() -> (Topology, Decomposition, Decomposition) {
        let extent = Extent2::new(4, 4);
        let exp_d = Decomposition::row_block(extent, 1).expect("exporter decomp");
        let imp_d = Decomposition::row_block(extent, 1).expect("importer decomp");
        let tol = Tolerance::new(0.25).expect("tolerance");
        let topo = Topology {
            programs: vec![
                ProgramTopo {
                    name: "E".into(),
                    procs: 1,
                    exports: vec![ExportRegionTopo {
                        name: "r".into(),
                        decomp: exp_d,
                        conns: vec![ConnectionId(0)],
                    }],
                    imports: Vec::new(),
                },
                ProgramTopo {
                    name: "I".into(),
                    procs: 1,
                    exports: Vec::new(),
                    imports: vec![ImportRegionTopo {
                        name: "m".into(),
                        decomp: imp_d,
                        conn: ConnectionId(0),
                    }],
                },
            ],
            conns: vec![ConnTopo {
                id: ConnectionId(0),
                exporter_prog: 0,
                exporter_region: 0,
                importer_prog: 1,
                importer_region: 0,
                policy: MatchPolicy::RegL,
                tolerance: tol,
                plan: Arc::new(RedistPlan::build(exp_d, imp_d).expect("plan")),
            }],
        };
        (topo, exp_d, imp_d)
    }

    /// An armed fabric's first retry interval.
    fn base_timeout(fabric: &Fabric) -> Duration {
        let net = fabric.set.session_net(0);
        Duration::from_secs_f64(net.rel.as_ref().expect("armed").base_timeout)
    }

    /// Permanent loss only, under the first seed whose loss draws — the
    /// layer numbers them in send order — come out as `draws` says: each
    /// entry is a send's destination and message and whether that copy is
    /// lost.
    fn lossy(draws: &[(Endpoint, CtrlMsg, bool)]) -> ChaosConfig {
        let cfg = |seed| ChaosConfig {
            seed,
            max_delay: 0.0,
            duplicate_prob: 0.0,
            drop_prob: 0.0,
            retry_delay: 0.05,
            loss_prob: 0.5,
            crash: None,
        };
        (0..100_000)
            .map(cfg)
            .find(|c| {
                let mut nonces = 0..;
                draws
                    .iter()
                    .zip(&mut nonces)
                    .all(|((to, msg, lost), n)| c.lost(n, *to, msg) == *lost)
            })
            .expect("a seed with this loss pattern")
    }

    /// The pump needs no wake-up from senders: after sitting idle for
    /// three retry intervals it still retransmits a fresh registration on
    /// time. The one import's first `ForwardRequest` copy is lost and every
    /// other copy arrives, so the import completes one retry interval
    /// late — not at its timeout, as it would behind a pump that parks
    /// while nothing is pending.
    #[test]
    fn idle_pump_still_retransmits_a_fresh_registration_on_time() {
        let (topo, exp_d, imp_d) = pair_topology();
        let (conn, req, at) = (ConnectionId(0), RequestId(0), ts(1.0));
        let (rank, answer) = (couplink_proto::Rank(0), RepAnswer::Match(at));
        let resp = couplink_proto::ProcResponse::Match(at);
        let (exp_rep, imp_rep) = (Endpoint::Rep { prog: 0 }, Endpoint::Rep { prog: 1 });
        let agent = Endpoint::Proc { prog: 0, rank: 0 };
        let importer = Endpoint::Proc { prog: 1, rank: 0 };
        let forward = CtrlMsg::ForwardRequest { conn, req, ts: at };
        let import_call = CtrlMsg::ImportCall { conn, rank, ts: at };
        let response = CtrlMsg::Response {
            conn,
            req,
            rank,
            resp,
        };
        let opts = FabricOptions {
            import_timeout: Duration::from_secs(5),
            chaos: Some(lossy(&[
                (imp_rep, import_call, false),
                (exp_rep, CtrlMsg::ImportRequest { conn, req, ts: at }, false),
                (agent, forward, true),
                (agent, forward, false),
                (exp_rep, response, false),
                (imp_rep, CtrlMsg::Answer { conn, req, answer }, false),
                (importer, CtrlMsg::AnswerBcast { conn, req, answer }, false),
            ])),
            ..FabricOptions::default()
        };
        let mut fabric = Fabric::new(topo, opts);
        let base = base_timeout(&fabric);
        let mut exp = fabric.take_export(0, 0, 0);
        let mut imp = fabric.take_import(1, 0, 0);
        let data = LocalArray::from_fn(exp_d.owned(0), |r, c| (r + c) as f64);
        exp.export(at, &data).unwrap();
        std::thread::sleep(3 * base);
        let mut dest = LocalArray::zeros(imp_d.owned(0));
        let called = Instant::now();
        assert_eq!(imp.import(at, &mut dest).unwrap(), Some(at));
        let took = called.elapsed();
        let c = fabric.shutdown().unwrap().metrics.counters;
        assert!(c.retransmits >= 1, "{c:?}");
        assert!(c.ctrl(CtrlClass::ForwardRequest) >= 2, "{c:?}");
        assert!(took >= base, "retransmitted early: {took:?}");
        assert!(took < 4 * base, "retransmitted late: {took:?}");
    }

    /// The shutdown drain polls. With nothing pending an armed session
    /// stops at once; with a message whose first copy was lost it returns
    /// only after the retransmit is acked — one retry interval on, nowhere
    /// near `DRAIN_CAP`.
    #[test]
    fn armed_shutdown_returns_once_nothing_is_pending() {
        let (exp_rep, imp_rep) = (Endpoint::Rep { prog: 0 }, Endpoint::Rep { prog: 1 });
        let (conn, req, ts) = (ConnectionId(0), RequestId(0), ts(1.0));
        let request = CtrlMsg::ImportRequest { conn, req, ts };
        let forward = CtrlMsg::ForwardRequest { conn, req, ts };
        let agent = Endpoint::Proc { prog: 0, rank: 0 };
        let opts = FabricOptions {
            chaos: Some(lossy(&[
                (exp_rep, request, true),
                (exp_rep, request, false),
                (agent, forward, false),
            ])),
            ..FabricOptions::default()
        };

        let idle = Fabric::new(pair_topology().0, opts.clone());
        let base = base_timeout(&idle);
        let called = Instant::now();
        idle.shutdown().unwrap();
        let took = called.elapsed();
        assert!(took < base, "idle drain took {took:?}");

        let fabric = Fabric::new(pair_topology().0, opts);
        let net = fabric.set.session_net(0);
        net.send(SendKind::Origin, imp_rep, exp_rep, request)
            .unwrap();
        let rel = net.rel.as_ref().expect("armed");
        assert_eq!(rel.layer.lock().pending_len(), 1, "first copy lost");
        let called = Instant::now();
        let c = fabric.shutdown().unwrap().metrics.counters;
        let took = called.elapsed();
        assert_eq!(rel.layer.lock().pending_len(), 0);
        assert!(c.retransmits >= 1, "{c:?}");
        assert_eq!(c.ctrl(CtrlClass::ForwardRequest), 1, "{c:?}");
        assert!(took >= base * 9 / 10, "returned early: {took:?}");
        assert!(took < Duration::from_secs(2), "drain took {took:?}");
    }

    /// Executor edge case + shutdown-ordering oracle for the pool: a
    /// session that finishes early releases its runnables without starving
    /// its sibling (the sibling completes a longer run afterwards on the
    /// same two workers), per-session counters stay isolated (each
    /// session's `sends` reflects only its own imports), the run-queue
    /// depth HWM never exceeds the session's task count, and no task of a
    /// drained session is polled after `shutdown_session` returns.
    #[test]
    fn session_set_isolates_sessions_and_stops_polling_after_shutdown() {
        let mut set = SessionSet {
            exec: Executor::with_workers(2),
            sessions: Vec::new(),
        };
        let (t0, exp_d, imp_d) = pair_topology();
        let (t1, _, _) = pair_topology();
        let s0 = set.add_session(t0, FabricOptions::default());
        let s1 = set.add_session(t1, FabricOptions::default());

        let drive = |set: &mut SessionSet, sid: usize, iters: usize| {
            let mut exp = set.take_export(sid, 0, 0, 0);
            let mut imp = set.take_import(sid, 1, 0, 0);
            let owned = imp_d.owned(0);
            let importer = std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                for j in 1..=iters {
                    let m = imp.import(ts(j as f64), &mut dest).unwrap();
                    assert_eq!(m, Some(ts(j as f64)));
                }
            });
            let data = LocalArray::from_fn(exp_d.owned(0), |r, c| (r + c) as f64);
            for j in 1..=iters {
                exp.export(ts(j as f64), &data).unwrap();
            }
            importer.join().unwrap();
        };

        // Session 1 finishes early...
        drive(&mut set, s1, 3);
        let m1 = set.session_metrics(s1);
        let task_budget = session_task_count(set.topology(s1), &FabricOptions::default());
        let r1 = set.shutdown_session(s1).unwrap();
        assert_eq!(r1.stats[0][0].sends, 3, "session 1 served its own imports");
        assert!(
            r1.metrics.counters.runq_depth_hwm <= task_budget as u64,
            "runq HWM {} must be bounded by the session's {} tasks",
            r1.metrics.counters.runq_depth_hwm,
            task_budget
        );
        let frozen = m1.tasks_polled.get();
        assert!(frozen > 0, "session 1's tasks ran at all");

        // ...and its sibling keeps the (released) pool to itself.
        drive(&mut set, s0, 8);
        let r0 = set.shutdown_session(s0).unwrap();
        assert_eq!(r0.stats[0][0].sends, 8, "session 0 unaffected by sibling");

        // No task of the drained session was polled after its shutdown.
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(
            m1.tasks_polled.get(),
            frozen,
            "session 1 polled after shutdown_session drained it"
        );
        set.shutdown().unwrap();
    }
    /// A 2 → 2 lock-step pair: the rank that completes a collective runs
    /// the control chain itself, so over 2 000 imports most polls are of
    /// tasks the polling thread woke, and cross-worker steals — several per
    /// import when every push went to the task's home shard — fall below
    /// one per import.
    #[test]
    fn lockstep_pair_chains_instead_of_stealing() {
        let d = Decomposition::row_block(Extent2::new(8, 8), 2).expect("decomp");
        let tol = Tolerance::new(0.25).expect("tolerance");
        let topo = Topology::pair(d, d, MatchPolicy::RegL, tol).expect("pair");
        let mut fabric = Fabric::new(topo, FabricOptions::default());
        let steps = 2_000;
        let mut threads = Vec::new();
        for rank in 0..2 {
            let mut exp = fabric.take_export(0, rank, 0);
            let mut imp = fabric.take_import(1, rank, 0);
            let owned = d.owned(rank);
            threads.push(std::thread::spawn(move || {
                let data = LocalArray::from_fn(owned, |r, c| (r * 8 + c) as f64);
                for j in 1..=steps {
                    exp.export(ts(j as f64), &data).unwrap();
                }
            }));
            threads.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                for j in 1..=steps {
                    let m = imp.import(ts(j as f64), &mut dest).unwrap();
                    assert_eq!(m, Some(ts(j as f64)));
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let c = fabric.shutdown().unwrap().metrics.counters;
        assert_eq!(c.import_calls, 2 * steps);
        assert!(c.worker_steal < c.import_calls, "{c:?}");
        assert!(2 * c.tasks_chained >= c.tasks_polled, "{c:?}");
    }

    /// A thread about to wait for a contended fabric lock publishes the
    /// tasks it was keeping first: while this test holds the mutex, the
    /// task pocketed by the blocked poll is run by the other worker.
    #[test]
    fn timed_lock_publishes_run_next_before_it_waits() {
        use crate::threaded::executor::tests::{spawn_fn, wait_for};
        let exec = Executor::with_workers(2);
        let session = exec.add_session();
        let metrics = Arc::new(EngineMetrics::new());
        let polls = Arc::new(AtomicU64::new(0));
        let polls2 = polls.clone();
        let pocketed = spawn_fn(&exec, session, &metrics, move || {
            polls2.fetch_add(1, Ordering::SeqCst);
            Poll::idle()
        });
        let gate = Arc::new(Mutex::new(()));
        let armed = Arc::new(AtomicBool::new(false));
        let blocker = {
            let (gate, armed, metrics) = (gate.clone(), armed.clone(), metrics.clone());
            spawn_fn(&exec, session, &metrics.clone(), move || {
                if armed.load(Ordering::SeqCst) {
                    pocketed.schedule();
                    drop(timed_lock(&gate, &metrics));
                }
                Poll::idle()
            })
        };
        let held = gate.lock();
        armed.store(true, Ordering::SeqCst);
        blocker.schedule();
        // The blocker cannot return before `held` drops, so this poll can
        // only come from the other worker, off the shard queue.
        wait_for(|| polls.load(Ordering::SeqCst) == 2);
        assert_eq!(metrics.tasks_chained.get(), 0);
        drop(held);
        wait_for(|| metrics.lock_wait_ns.get() > 0);
    }

    /// An injected agent crash under a helping `import()` is still a
    /// `ProcessCrash`: whichever thread polls the agent — the importing
    /// one, when the chain stays on it, or a worker — the executor contains
    /// the panic, the application thread survives, and recording the crash
    /// wakes its `import()`, which returns the error long before the
    /// (default, 30 s) timeout.
    #[test]
    fn agent_panic_under_a_helping_import_is_a_process_crash() {
        let (topo, _, imp_d) = pair_topology();
        let opts = FabricOptions {
            chaos: Some(ChaosConfig {
                seed: 1,
                max_delay: 0.0,
                duplicate_prob: 0.0,
                drop_prob: 0.0,
                retry_delay: 0.05,
                loss_prob: 0.0,
                crash: Some(CrashFault {
                    target: CrashTarget::Agent { prog: 0, rank: 0 },
                    after_msgs: 0,
                    restart_after: None,
                }),
            }),
            ..FabricOptions::default()
        };
        let mut fabric = Fabric::new(topo, opts);
        let mut imp = fabric.take_import(1, 0, 0);
        let mut dest = LocalArray::zeros(imp_d.owned(0));
        let called = Instant::now();
        let got = imp.import(ts(1.0), &mut dest);
        assert!(
            matches!(&got, Err(ThreadedError::ProcessCrash(d)) if d.contains("agent 0.0")),
            "{got:?}"
        );
        assert!(
            called.elapsed() < Duration::from_secs(1),
            "import sat out its timeout"
        );
        assert!(matches!(
            fabric.shutdown(),
            Err(ThreadedError::ProcessCrash(_))
        ));
    }
}
