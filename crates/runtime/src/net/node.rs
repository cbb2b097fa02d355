//! The `couplink-node` child process: one coupled *program* as its own OS
//! process, connected to its peers over sockets.
//!
//! Lifecycle (driven entirely by the parent orchestrator, see
//! [`super::bootstrap`]):
//!
//! 1. dial the parent, send `HELLO{version, token, prog}`;
//! 2. receive the `PLAN`, rebuild the validated
//!    [`Topology`](crate::engine::Topology) from the embedded configuration
//!    text (all processes derive the topology through the same code path,
//!    so shapes and connection ids can never disagree);
//! 3. open the durable write-ahead journal when the plan names a
//!    `wal_dir`, build a *partial* fabric session hosting only this
//!    program (with a `RemoteLinks` implementation that serializes
//!    foreign-bound traffic onto the mesh), and — on a restart — replay
//!    the journal into the session *before any live frame can arrive*;
//! 4. bind a mesh listener, report it (`LISTENING`), receive the `PEERS`
//!    table, and form the full mesh (node *i* dials every *j < i* and
//!    accepts from every *j > i* — each pair shares exactly one socket);
//!    send `READY`, wait for `GO`;
//! 5. run the application threads (exports with a deterministic cell
//!    fill, imports with optional value verification); exports are paced
//!    by a finite buffer ([`NODE_BUFFER_CAPACITY`], raised to cover the
//!    schedule's tail by [`NodePlan::export_capacity`](super::NodePlan::export_capacity)),
//!    so an exporter stalls until its importers' requests free space; a
//!    restarted node resumes each export schedule after the journaled
//!    prefix;
//! 6. send `APP_DONE` but **keep serving fabric traffic** — peers may
//!    still need this node's reps and stores for their own imports;
//! 7. on `DRAIN`, run the staged session shutdown (pump → relay → reps →
//!    agents → importers), prune the journal (a cleanly drained session
//!    never needs replaying), send the `REPORT`, exit.
//!
//! # Link failure: fail fast, or reconnect
//!
//! Without durability in the plan, a mesh EOF *before* this node finished
//! its own application work means a peer died: the session is failed fast
//! (blocked `import`/`export` calls surface
//! [`ThreadedError::ProcessCrash`](crate::threaded::ThreadedError::ProcessCrash)
//! instead of hanging). A mesh EOF *after* `APP_DONE` is the normal
//! consequence of a peer draining first and is ignored — that asymmetry is
//! what lets the coordinated drain tolerate peers closing their sockets in
//! any order.
//!
//! With a `wal_dir` (or an armed link-sever fault) the node instead
//! *reconnects*: the link's EOF-observer fully closes the socket (so both
//! sides agree it is dead), then the **higher-indexed** side re-dials with
//! backoff — mirroring the boot direction — while the lower-indexed side
//! re-accepts on its still-live mesh listener. The replacement writer
//! replays salvaged payload pieces (control and acks are *dropped*: the
//! reliability pump retransmits sequenced control, and a retransmitted
//! message re-triggers its ack), and `net_reconnects` is metered on each
//! side that re-established a link. An *orderly* close is told apart from a
//! drop by the bare `MESH_BYE` frame a draining node writes ahead of its
//! half-close: an EOF after it never re-dials, even when it outruns this
//! node's own `DRAIN`.
//!
//! # Durability discipline
//!
//! Every sequenced delivery is journaled *before* its ack can escape (the
//! fabric appends in `admit`), and `SocketLinks::send` fsyncs the
//! journal before any control or ack frame is queued on a writer — an
//! acked message must survive a crash, because the sender will never
//! retransmit it. Payload pieces are neither sequenced nor journaled:
//! they are regenerated deterministically by export replay and deduped by
//! the receiving importer.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use couplink_layout::{LocalArray, Rect, SharedArray};
use couplink_metrics::EngineMetrics;
use couplink_proto::wire::{self as wire, Frame};
use couplink_proto::{ConnectionId, CtrlMsg, Rank, RequestId};
use couplink_time::ts;
use parking_lot::Mutex;

use crate::engine::{Endpoint, WalRecord, WireMeta};
use crate::threaded::fabric::{ExportAccess, Net, RemoteLinks, WalHandle};
use crate::threaded::{Fabric, FabricOptions};

use super::codec::{self, NodeFault, NodeReport};
use super::link::{
    frame_kind, Addr, BufPool, Conn, FrameReader, LinkWriter, Listener, SocketBackend,
};
use super::wal::FileWal;

/// Objects each export port of a node may buffer before `export()` waits
/// for the importer's requests to free space (raised per plan by
/// [`NodePlan::export_capacity`](super::NodePlan::export_capacity) where a
/// schedule's tail needs more). Chosen by the capacity sweep in
/// EXPERIMENTS.md: the smallest value within the spread of the best
/// `socket_ctrl` throughput (4 is faster on `socket_bulk` but slower on
/// `socket_ctrl`; 16 and 32 add memory and no throughput).
pub const NODE_BUFFER_CAPACITY: usize = 8;

/// How long the child waits on any single bootstrap step before giving up.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);
/// Absolute lifetime backstop: if the parent never collects us, die
/// instead of leaking a process into the test harness.
const WATCHDOG: Duration = Duration::from_secs(600);

/// Re-dial schedule for a broken mesh link: 25 ms doubling to 1 s, ~9.6 s
/// total — comfortably inside the reliability pump's retransmit window, so
/// no sequenced message gives up while the link is down.
const RECONNECT_ATTEMPTS: u32 = 14;
const RECONNECT_FIRST: Duration = Duration::from_millis(25);
const RECONNECT_CAP: Duration = Duration::from_secs(1);

/// Parsed command line of the `couplink-node` binary.
#[derive(Debug)]
pub struct NodeArgs {
    /// Parent bootstrap address (`uds:...` or `tcp:...`).
    pub connect: String,
    /// This node's program index.
    pub prog: usize,
    /// Shared session token, echoed in every handshake.
    pub token: String,
    /// Program index to *claim* in the hello, when different from `prog`
    /// — only used by the bootstrap-rejection tests.
    pub claim: Option<usize>,
}

/// The deterministic cell fill exporters write and importers verify:
/// recoverable from the matched timestamp alone, and distinct per cell.
fn cell_value(t: f64, row: usize, col: usize, grid_cols: usize) -> f64 {
    t * 1e6 + (row * grid_cols + col) as f64
}

fn ep_prog(ep: Endpoint) -> usize {
    let (Endpoint::Rep { prog } | Endpoint::Proc { prog, .. }) = ep;
    prog
}

/// One peer's sending state: the live writer, or a stash of frames sent
/// while no writer is installed (boot, journal replay, or a reconnect in
/// flight) — flushed in order when one is.
#[derive(Default)]
struct SlotState {
    writer: Option<LinkWriter>,
    pending: Vec<Vec<u8>>,
}

/// [`RemoteLinks`] over the socket mesh: serializes each foreign-bound
/// message into a frame and queues it on the destination program's writer.
/// Pieces are serialized straight out of the shared store (no extra copy
/// of the payload on the send side beyond the wire buffer itself).
///
/// Writer slots are mutexed so a reconnect can swap a dead writer for a
/// fresh one underneath concurrent senders.
struct SocketLinks {
    /// Sending state per program (the self slot stays empty).
    slots: Vec<Mutex<SlotState>>,
    /// Importing program of each connection, for piece routing.
    conn_importer: Vec<usize>,
    /// Set once the session exists; frames sent before that are counted
    /// nowhere (none are — traffic starts after `GO` or journal replay).
    metrics: OnceLock<Arc<EngineMetrics>>,
    /// Frame buffers recycled between the payload encoder and the writer
    /// threads (`net_frames`/`net_bytes` are metered by the writers when
    /// bytes reach the socket, not here at enqueue).
    pool: Arc<BufPool>,
    /// Synced before any control or ack frame escapes: an acked delivery
    /// must already be durable, because the sender never retransmits an
    /// acked message.
    wal: Option<WalHandle>,
}

impl SocketLinks {
    fn new(
        n: usize,
        conn_importer: Vec<usize>,
        wal: Option<WalHandle>,
        pool: Arc<BufPool>,
    ) -> SocketLinks {
        SocketLinks {
            slots: (0..n).map(|_| Mutex::new(SlotState::default())).collect(),
            conn_importer,
            metrics: OnceLock::new(),
            pool,
            wal,
        }
    }

    fn send(&self, prog: usize, frame: Vec<u8>) {
        if let Some(wal) = &self.wal {
            if matches!(
                frame_kind(&frame),
                Some(codec::KIND_CTRL) | Some(codec::KIND_ACK)
            ) {
                wal.sync();
            }
        }
        let Some(slot) = self.slots.get(prog) else {
            return;
        };
        let mut st = slot.lock();
        match &st.writer {
            // A dead writer keeps the frame in its salvage; the swap
            // decides what to replay.
            Some(w) => {
                w.send(frame);
            }
            None => st.pending.push(frame),
        }
    }

    /// Installs a fresh writer for `prog`: retires any previous writer —
    /// replaying its salvaged payload pieces, dropping salvaged control
    /// and acks (the reliability pump retransmits sequenced control, and a
    /// retransmitted message re-triggers its ack; pieces are the only
    /// frames nobody retransmits) — then flushes the pending stash.
    fn install_writer(&self, prog: usize, writer: LinkWriter) {
        let mut st = self.slots[prog].lock();
        if let Some(old) = st.writer.take() {
            for f in old.retire() {
                if frame_kind(&f) == Some(wire::KIND_PAYLOAD) {
                    writer.send(f);
                }
            }
        }
        for f in st.pending.drain(..) {
            writer.send(f);
        }
        st.writer = Some(writer);
    }

    /// Flushes the data plane for the counter snapshot: waits (bounded)
    /// until every writer has drained its queue — so every frame that will
    /// ever be tx-metered has been — then says `MESH_BYE` and half-closes
    /// each link, so peers observe an *orderly* EOF after the last real
    /// frame and never mistake it for a drop. The bound covers the
    /// pathological case of a peer that stopped reading (stall fault): its
    /// link is cut mid-stream, which such a run cannot tell apart from the
    /// fault itself.
    fn quiesce(&self, deadline: Duration) {
        let start = Instant::now();
        loop {
            let busy = self.slots.iter().any(|s| {
                let st = s.lock();
                !st.pending.is_empty() || st.writer.as_ref().is_some_and(|w| !w.idle())
            });
            if !busy || start.elapsed() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let bye = codec::encode_bare(codec::KIND_MESH_BYE);
        for s in &self.slots {
            if let Some(w) = &s.lock().writer {
                w.close_orderly(&bye);
            }
        }
    }
}

impl RemoteLinks for SocketLinks {
    fn send_ctrl(&self, to: Endpoint, meta: Option<WireMeta>, msg: CtrlMsg) {
        self.send(ep_prog(to), codec::encode_ctrl_env(to, meta.as_ref(), &msg));
    }

    fn send_ack(&self, sender: Endpoint, acker: Endpoint, seq: u64) {
        self.send(ep_prog(sender), codec::encode_ack_env(sender, acker, seq));
    }

    fn send_piece(
        &self,
        conn: ConnectionId,
        dst: usize,
        req: RequestId,
        rect: Rect,
        payload: &SharedArray,
    ) {
        let data = payload.as_slice();
        // Header + ids + two rects + length prefix, then the data bytes.
        let est = wire::HEADER_LEN + 8 + 8 + 2 * 32 + 8 + 8 * data.len();
        let frame = wire::encode_payload_with(
            self.pool.take(est),
            conn,
            Rank(dst as u32),
            req,
            codec::wire_rect(rect),
            codec::wire_rect(payload.owned()),
            data,
        );
        self.send(self.conn_importer[conn.0 as usize], frame);
    }
}

/// Injects one inbound mesh frame into the local session. The body is
/// borrowed straight from the reader's receive buffer — only the payload
/// decode copies, and that copy *is* the importer-side array. Returns a
/// fatal description when the frame is structurally wrong for this layer.
fn dispatch(kind: u8, body: &[u8], net: &Net, drop_answers: Option<u32>) -> Result<(), String> {
    match kind {
        codec::KIND_CTRL => {
            let (to, meta, msg) =
                codec::decode_ctrl_env(body).map_err(|e| format!("ctrl envelope: {e}"))?;
            if let (Some(dropped), CtrlMsg::Answer { conn, .. }) = (drop_answers, &msg) {
                if conn.0 == dropped {
                    // Injected codec bug: the collective answer vanishes
                    // between socket and fabric. The liveness oracle must
                    // notice the wedged imports.
                    return Ok(());
                }
            }
            net.deliver_ctrl(to, meta, msg);
            Ok(())
        }
        codec::KIND_ACK => {
            let (sender, acker, seq) =
                codec::decode_ack_env(body).map_err(|e| format!("ack envelope: {e}"))?;
            net.apply_remote_ack(sender, acker, seq);
            Ok(())
        }
        wire::KIND_PAYLOAD => {
            let p = wire::decode_payload(body).map_err(|e| format!("payload: {e}"))?;
            let rect = codec::rect_from(p.rect);
            let payload = SharedArray::from_parts(codec::rect_from(p.owned), p.data)
                .ok_or("payload data disagrees with its owned rect")?;
            net.deliver_remote_piece(p.conn, p.dst.0 as usize, p.req, rect, payload);
            Ok(())
        }
        k => Err(format!("unexpected mesh frame kind {k}")),
    }
}

/// Everything a mesh reader (or the reconnect accept loop) needs about
/// this node, shared by all link threads.
struct MeshCtx {
    me: usize,
    n: usize,
    token: String,
    net: Arc<Net>,
    metrics: Arc<EngineMetrics>,
    links: Arc<SocketLinks>,
    apps_done: Arc<AtomicBool>,
    /// Set at the coordinated drain: from then on sockets close in
    /// arbitrary order and every EOF is a normal teardown.
    draining: Arc<AtomicBool>,
    drop_answers: Option<u32>,
    stall: bool,
    /// Peer listener addresses for re-dial; `None` preserves the
    /// historical fail-fast on any mid-run EOF.
    peers: Option<Vec<Addr>>,
}

/// Re-establishes the link to a lower-indexed peer: backoff dial, fresh
/// mesh hello, writer swap (salvage replay inside), reconnect metered.
/// Returns the new connection for the caller to keep reading.
fn reconnect_dial(ctx: &MeshCtx, addr: &Addr, peer: usize) -> Result<Conn, String> {
    let mut conn =
        Conn::dial_with_backoff(addr, RECONNECT_ATTEMPTS, RECONNECT_FIRST, RECONNECT_CAP)
            .map_err(|e| e.to_string())?;
    conn.write_all(&codec::encode_hello(
        codec::KIND_MESH_HELLO,
        &ctx.token,
        ctx.me,
    ))
    .map_err(|e| format!("mesh hello: {e}"))?;
    let wconn = conn.try_clone().map_err(|e| format!("mesh clone: {e}"))?;
    ctx.links.install_writer(
        peer,
        LinkWriter::spawn_with(
            wconn,
            format!("{}-{peer}", ctx.me),
            None,
            Some(Arc::clone(&ctx.metrics)),
            Some(Arc::clone(&ctx.links.pool)),
        ),
    );
    ctx.metrics.net_reconnects.inc();
    Ok(conn)
}

fn mesh_reader_loop(mut reader: FrameReader, peer: usize, ctx: Arc<MeshCtx>) {
    if ctx.stall {
        // Injected malfunction: the socket stays open, inbound traffic is
        // never processed. Peers must hit their import timeout, not hang.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    let metrics = Arc::clone(&ctx.metrics);
    let mut reject = || metrics.net_codec_rejects.inc();
    loop {
        // Set by the peer's `MESH_BYE`: the EOF that follows is its orderly
        // teardown, whatever this node's own drain state says.
        let mut orderly = false;
        let down = loop {
            match reader.next_slot(&mut reject) {
                // Unmetered on both sides, like the hello that opened the
                // link, so the tx/rx sums still conserve.
                Ok(Some(slot)) if slot.kind == codec::KIND_MESH_BYE => orderly = true,
                Ok(Some(slot)) => {
                    // Receive-side mirror of the writer's tx meters; mesh
                    // hellos are excluded on both sides, so on a clean run
                    // the merged rx sums equal the merged tx sums.
                    metrics.net_rx_frames.inc();
                    metrics
                        .net_rx_bytes
                        .add((wire::HEADER_LEN + slot.body.len()) as u64);
                    metrics.net_rx_buf.set(reader.buffered_hwm() as u64);
                    // The reader polls what the frame wakes (rep → agents
                    // → answer, or importer → the application's wake-up)
                    // before its next blocking `read`, instead of handing
                    // each task to a pool worker.
                    let body = reader.body(&slot);
                    let dispatched = ctx
                        .net
                        .run_woken(|| dispatch(slot.kind, body, &ctx.net, ctx.drop_answers));
                    if let Err(detail) = dispatched {
                        ctx.net.fail(format!("link to program {peer}: {detail}"));
                        return;
                    }
                }
                Ok(None) => break format!("peer program {peer} disconnected"),
                Err(e) => break format!("link to program {peer} failed: {e}"),
            }
        };
        if ctx.draining.load(Ordering::Acquire) {
            // Coordinated teardown: sockets close in arbitrary order.
            return;
        }
        let Some(peers) = &ctx.peers else {
            if ctx.apps_done.load(Ordering::Acquire) {
                // Normal drain asymmetry: someone finished and closed first.
                return;
            }
            ctx.net.fail(down);
            return;
        };
        if orderly {
            // The peer read its `DRAIN` before this node's main thread
            // stored `draining`: a clean close that must not re-dial the
            // peer's still-live accept loop (and meter a reconnect).
            return;
        }
        // Reconnect is armed: the link matters until the coordinated
        // drain even if our own apps are done — a restarted peer needs
        // every survivor to rejoin its mesh before it can serve anyone.
        // Whichever direction actually broke, make sure the peer observes
        // a dead link too — reconnect needs both sides to abandon it.
        reader.conn().shutdown();
        if peer > ctx.me {
            // The higher-indexed side owns the re-dial (mirroring boot);
            // our accept loop installs the new link and spawns a fresh
            // reader thread. This one's job is over.
            return;
        }
        match reconnect_dial(&ctx, &peers[peer], peer) {
            Ok(conn) => reader = FrameReader::new(conn),
            Err(e) => {
                // A failed re-dial during the teardown race (the peer
                // exited because the session is draining) is not an error.
                if !ctx.draining.load(Ordering::Acquire) {
                    ctx.net.fail(format!("{down} (reconnect failed: {e})"));
                }
                return;
            }
        }
    }
}

/// Keeps the mesh listener alive after boot, re-accepting higher-indexed
/// peers whose link died (or who were restarted). Invalid hellos are
/// dropped, not fatal — a reconnecting mesh must tolerate strays.
fn accept_loop(listener: Listener, ctx: Arc<MeshCtx>) {
    loop {
        let Ok(c) = listener.accept() else { return };
        if c.set_read_timeout(Some(BOOT_TIMEOUT)).is_err() {
            continue;
        }
        let mut r = FrameReader::new(c);
        let Ok(hello) = read_expected(&mut r, codec::KIND_MESH_HELLO, "mesh hello") else {
            continue;
        };
        let Ok((version, token, from)) = codec::decode_hello(&hello.body) else {
            continue;
        };
        if version != codec::RT_VERSION || token != ctx.token || from <= ctx.me || from >= ctx.n {
            r.conn().shutdown();
            continue;
        }
        if r.conn().set_read_timeout(None).is_err() {
            continue;
        }
        let Ok(wconn) = r.conn().try_clone() else {
            continue;
        };
        ctx.links.install_writer(
            from,
            LinkWriter::spawn_with(
                wconn,
                format!("{}-{from}", ctx.me),
                None,
                Some(Arc::clone(&ctx.metrics)),
                Some(Arc::clone(&ctx.links.pool)),
            ),
        );
        ctx.metrics.net_reconnects.inc();
        let ctx2 = Arc::clone(&ctx);
        if std::thread::Builder::new()
            .name(format!("couplink-net-rd-{}-{from}-r", ctx.me))
            .spawn(move || mesh_reader_loop(r, from, ctx2))
            .is_err()
        {
            return;
        }
    }
}

fn read_expected(reader: &mut FrameReader, kind: u8, what: &str) -> Result<Frame, String> {
    let mut reject = || {};
    match reader.next(&mut reject) {
        Ok(Some(f)) if f.kind == kind => Ok(f),
        Ok(Some(f)) if f.kind == codec::KIND_FATAL => Err(format!(
            "parent/peer reported fatal: {}",
            codec::decode_fatal(&f.body).unwrap_or_else(|_| "<garbled>".into())
        )),
        Ok(Some(f)) => Err(format!("expected {what}, got frame kind {}", f.kind)),
        Ok(None) => Err(format!("connection closed while waiting for {what}")),
        Err(e) => Err(format!("reading {what}: {e}")),
    }
}

/// Runs the child process to completion; returns the process exit code.
pub fn node_main(args: NodeArgs) -> i32 {
    match run_node(&args) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("couplink-node[{}]: {e}", args.prog);
            3
        }
    }
}

fn run_node(args: &NodeArgs) -> Result<(), String> {
    std::thread::Builder::new()
        .name("couplink-node-watchdog".into())
        .spawn(|| {
            std::thread::sleep(WATCHDOG);
            eprintln!("couplink-node: watchdog expired, aborting");
            std::process::exit(9);
        })
        .map_err(|e| format!("spawning watchdog: {e}"))?;

    let me = args.prog;
    let parent_addr = Addr::parse(&args.connect)?;
    let backend = match parent_addr {
        Addr::Uds(_) => SocketBackend::Uds,
        Addr::Tcp(_) => SocketBackend::Tcp,
    };
    let mut parent_wr = Conn::dial(&parent_addr).map_err(|e| format!("dialing parent: {e}"))?;
    parent_wr
        .set_read_timeout(Some(BOOT_TIMEOUT))
        .map_err(|e| format!("parent socket: {e}"))?;
    let mut parent_rd = FrameReader::new(
        parent_wr
            .try_clone()
            .map_err(|e| format!("cloning parent socket: {e}"))?,
    );

    let claim = args.claim.unwrap_or(me);
    parent_wr
        .write_all(&codec::encode_hello(codec::KIND_HELLO, &args.token, claim))
        .map_err(|e| format!("sending hello: {e}"))?;

    let plan_frame = read_expected(&mut parent_rd, codec::KIND_PLAN, "plan")?;
    let plan = codec::decode_plan(&plan_frame.body).map_err(|e| format!("plan: {e}"))?;
    let topo = plan.topology()?;
    let n = topo.programs.len();
    if me >= n {
        return Err(format!("program index {me} out of range ({n} programs)"));
    }

    // --- durable journal ---
    // Opened before the session exists: replay and truncation meter into
    // the session's instrumentation, which is therefore pre-created and
    // handed to the fabric below.
    let metrics = Arc::new(EngineMetrics::new());
    let recovery_start = Instant::now();
    let mut recovered: Vec<WalRecord> = Vec::new();
    let wal_handle = match &plan.wal_dir {
        None => None,
        Some(dir) => {
            match FileWal::open(
                Path::new(dir),
                &format!("node-{me}"),
                FileWal::SEGMENT_BYTES,
                Arc::clone(&metrics),
            ) {
                Ok((fw, recs)) => {
                    recovered = recs;
                    Some(WalHandle::new(fw))
                }
                Err(e) => {
                    // The journal cannot be trusted; tell the parent why
                    // before dying so the run fails with the cause, not a
                    // silent child exit.
                    let _ = parent_wr.write_all(&codec::encode_fatal(&e.to_string()));
                    return Err(format!("opening WAL: {e}"));
                }
            }
        }
    };

    // --- fabric session ---
    // Built *before* the mesh so a restarted node can replay its journal
    // into the session while no live frame can possibly arrive.
    let pool = BufPool::new(Some(Arc::clone(&metrics)));
    let links = Arc::new(SocketLinks::new(
        n,
        topo.conns.iter().map(|c| c.importer_prog).collect(),
        wal_handle.clone(),
        Arc::clone(&pool),
    ));
    let opts = FabricOptions {
        buddy_help: plan.buddy_help,
        import_timeout: Duration::from_secs_f64(plan.import_timeout_s),
        // Paced: the node's export and import loops are separate threads,
        // so a stalled `export()` waits only for a peer's requests, never
        // for this process's own program order.
        buffer_capacity: Some(plan.export_capacity(&topo, me)),
        traces: plan
            .traces
            .iter()
            .filter(|&&(p, _, _)| p == me)
            .map(|&(p, r, c)| (p, r, ConnectionId(c)))
            .collect(),
        chaos: plan.chaos,
        drop_buddy_help: false,
        hierarchical: plan.hierarchical,
        wal: wal_handle.clone(),
    };
    let mut fabric = Fabric::partial(
        topo.clone(),
        opts,
        me,
        links.clone(),
        Some(Arc::clone(&metrics)),
    );
    let _ = links.metrics.set(Arc::clone(&metrics));
    let net = fabric.net();

    let grid_cols = plan.grid.1;

    // Export handles are taken up front: journal replay re-drives them,
    // and the application threads then resume after the replayed prefix.
    let mut export_handles: HashMap<(usize, usize), ExportAccess> = HashMap::new();
    for spec in &plan.exports {
        let Some(prog) = topo.program_idx(&spec.program) else {
            return Err(format!("plan exports unknown program {}", spec.program));
        };
        if prog != me {
            continue;
        }
        for rank in 0..topo.programs[me].procs {
            export_handles.insert(
                (rank, spec.region),
                fabric.take_export(me, rank, spec.region),
            );
        }
    }

    // --- journal replay (restart only) ---
    // Records are re-driven in file order: journaled deliveries go into
    // the mailboxes (the fabric suppresses re-sending sequenced traffic
    // and journaling while replaying), journaled exports regenerate their
    // deterministic fill and re-drive the export path (pieces re-sent to
    // the mesh are deduped by the importer). Per-region counts feed the
    // application threads' resume points.
    let mut resumed: HashMap<(usize, usize), usize> = HashMap::new();
    if plan.restart {
        net.begin_replay();
        for rec in &recovered {
            match rec {
                WalRecord::Delivered { ep, meta, msg } => {
                    net.deliver_ctrl(*ep, Some(*meta), *msg);
                }
                WalRecord::AppExport { ep, region, ts } => {
                    let Endpoint::Proc { prog, rank } = *ep else {
                        continue;
                    };
                    if prog != me {
                        continue;
                    }
                    let key = (rank, *region as usize);
                    if let Some(h) = export_handles.get_mut(&key) {
                        let owned = topo.programs[me].exports[key.1].decomp.owned(rank);
                        let data = LocalArray::from_fn(owned, |row, col| {
                            cell_value(ts.value(), row, col, grid_cols)
                        });
                        h.export(*ts, &data)
                            .map_err(|e| format!("replaying export: {e}"))?;
                        *resumed.entry(key).or_insert(0) += 1;
                    }
                }
            }
        }
        // Wait for the injected records to drain through the tasks, then
        // re-enable live journaling and sending.
        for _ in 0..600 {
            if net.mailboxes_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(50));
        net.end_replay();
        metrics
            .recovery_ms
            .observe(recovery_start.elapsed().as_millis() as u64);
    }

    // --- mesh listener ---
    // Mesh listener lives next to the parent's bootstrap socket (UDS) or
    // on another ephemeral loopback port (TCP).
    let mesh_dir = match &parent_addr {
        Addr::Uds(path) => path
            .parent()
            .ok_or("parent socket path has no directory")?
            .to_path_buf(),
        Addr::Tcp(_) => std::env::temp_dir(),
    };
    if plan.restart && backend == SocketBackend::Uds {
        // The previous incarnation was SIGKILLed: its socket file is still
        // bound to a dead listener and must go before we can rebind.
        let _ = std::fs::remove_file(mesh_dir.join(format!("mesh-{me}.sock")));
    }
    let listener = Listener::bind(backend, &mesh_dir, &format!("mesh-{me}"))
        .map_err(|e| format!("binding mesh listener: {e}"))?;
    let listen_addr = listener.addr().map_err(|e| format!("mesh address: {e}"))?;
    parent_wr
        .write_all(&codec::encode_listening(&listen_addr.to_string()))
        .map_err(|e| format!("sending listening: {e}"))?;

    let peers_frame = read_expected(&mut parent_rd, codec::KIND_PEERS, "peer table")?;
    let peers = codec::decode_peers(&peers_frame.body).map_err(|e| format!("peers: {e}"))?;
    if peers.len() != n {
        return Err(format!(
            "peer table has {} entries for {n} programs",
            peers.len()
        ));
    }

    // Sever fault, armed only on the writing side's boot-time links — a
    // reconnect-installed replacement writer never severs again.
    let sever = match plan.fault {
        Some(NodeFault::SeverLink {
            prog,
            peer,
            after_tx,
        }) if prog == me => Some((peer, after_tx)),
        _ => None,
    };
    let boot_writer = |peer: usize, conn: Conn| {
        let sev = sever.and_then(|(p, after)| (p == peer).then_some(after));
        LinkWriter::spawn_with(
            conn,
            format!("{me}-{peer}"),
            sev,
            Some(Arc::clone(&metrics)),
            Some(Arc::clone(&pool)),
        )
    };

    // Form the mesh: dial the lower-indexed programs (their listeners are
    // guaranteed bound — the parent saw their LISTENING before
    // broadcasting PEERS), accept from the higher-indexed ones.
    let mut readers: Vec<Option<FrameReader>> = (0..n).map(|_| None).collect();
    for (j, addr) in peers.iter().enumerate().take(me) {
        let mut c =
            Conn::dial(&Addr::parse(addr)?).map_err(|e| format!("dialing program {j}: {e}"))?;
        c.write_all(&codec::encode_hello(
            codec::KIND_MESH_HELLO,
            &args.token,
            me,
        ))
        .map_err(|e| format!("mesh hello to {j}: {e}"))?;
        links.install_writer(
            j,
            boot_writer(j, c.try_clone().map_err(|e| format!("mesh clone: {e}"))?),
        );
        readers[j] = Some(FrameReader::new(c));
    }
    for _ in me + 1..n {
        let c = listener.accept().map_err(|e| format!("mesh accept: {e}"))?;
        c.set_read_timeout(Some(BOOT_TIMEOUT))
            .map_err(|e| format!("mesh socket: {e}"))?;
        let mut r = FrameReader::new(c);
        let hello = read_expected(&mut r, codec::KIND_MESH_HELLO, "mesh hello")?;
        let (version, token, from) =
            codec::decode_hello(&hello.body).map_err(|e| format!("mesh hello: {e}"))?;
        if version != codec::RT_VERSION {
            return Err(format!("mesh peer speaks version {version}"));
        }
        if token != args.token {
            return Err("mesh peer presented a wrong token".into());
        }
        if from <= me || from >= n || readers[from].is_some() {
            return Err(format!("mesh peer claims invalid program {from}"));
        }
        r.conn()
            .set_read_timeout(None)
            .map_err(|e| format!("mesh socket: {e}"))?;
        links.install_writer(
            from,
            boot_writer(
                from,
                r.conn()
                    .try_clone()
                    .map_err(|e| format!("mesh clone: {e}"))?,
            ),
        );
        readers[from] = Some(r);
    }

    let apps_done = Arc::new(AtomicBool::new(false));
    let draining = Arc::new(AtomicBool::new(false));
    let stall = matches!(plan.fault, Some(NodeFault::StallMeshReader { prog }) if prog == me);
    let drop_answers = match plan.fault {
        Some(NodeFault::DropAnswers { conn }) => Some(conn),
        _ => None,
    };
    // Reconnect is armed by durability (the kill-and-restart runs) or an
    // explicit sever fault anywhere in the mesh; otherwise mid-run link
    // death keeps its historical fail-fast meaning.
    let reconnect =
        plan.wal_dir.is_some() || matches!(plan.fault, Some(NodeFault::SeverLink { .. }));
    let ctx = Arc::new(MeshCtx {
        me,
        n,
        token: args.token.clone(),
        net: Arc::clone(&net),
        metrics: Arc::clone(&metrics),
        links: Arc::clone(&links),
        apps_done: Arc::clone(&apps_done),
        draining: Arc::clone(&draining),
        drop_answers,
        stall,
        peers: if reconnect {
            Some(
                peers
                    .iter()
                    .map(|a| Addr::parse(a))
                    .collect::<Result<Vec<_>, _>>()?,
            )
        } else {
            None
        },
    });
    let mut reader_threads = Vec::new();
    for (peer, slot) in readers.iter_mut().enumerate() {
        let Some(reader) = slot.take() else { continue };
        let ctx = Arc::clone(&ctx);
        reader_threads.push(
            std::thread::Builder::new()
                .name(format!("couplink-net-rd-{me}-{peer}"))
                .spawn(move || mesh_reader_loop(reader, peer, ctx))
                .map_err(|e| format!("spawning mesh reader: {e}"))?,
        );
    }
    if reconnect {
        // The listener outlives boot: higher-indexed peers re-dial here
        // after a link death or their own restart.
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name(format!("couplink-net-accept-{me}"))
            .spawn(move || accept_loop(listener, ctx))
            .map_err(|e| format!("spawning accept loop: {e}"))?;
    }

    parent_wr
        .write_all(&codec::encode_bare(codec::KIND_READY))
        .map_err(|e| format!("sending ready: {e}"))?;
    read_expected(&mut parent_rd, codec::KIND_GO, "go")?;

    // --- application threads ---
    let scale = plan.time_scale;
    let mut exp_threads = Vec::new();
    for spec in &plan.exports {
        if topo.program_idx(&spec.program) != Some(me) {
            continue;
        }
        for rank in 0..topo.programs[me].procs {
            let mut h = export_handles
                .remove(&(rank, spec.region))
                .ok_or_else(|| format!("export region {} specified twice", spec.region))?;
            let done = resumed.get(&(rank, spec.region)).copied().unwrap_or(0);
            let owned = topo.programs[me].exports[spec.region].decomp.owned(rank);
            let (t0, dt, count) = (spec.t0, spec.dt, spec.count);
            let compute = spec.compute.get(rank).copied().unwrap_or(0.0);
            let abort_after = match plan.fault {
                Some(NodeFault::AbortAfterExports {
                    prog: p,
                    rank: r,
                    after,
                }) if p == me && r == rank => Some(after),
                _ => None,
            };
            exp_threads.push((
                rank,
                std::thread::spawn(move || -> Result<(), String> {
                    // `done` exports were replayed from the journal; the
                    // schedule resumes after them.
                    for k in done..count {
                        if compute > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(compute * scale));
                        }
                        let t = t0 + k as f64 * dt;
                        let data = LocalArray::from_fn(owned, |row, col| {
                            cell_value(t, row, col, grid_cols)
                        });
                        h.export(ts(t), &data).map_err(|e| e.to_string())?;
                        if abort_after == Some(k + 1) {
                            // Injected malfunction: die mid-run with the
                            // sockets cut, exactly like a crashed peer.
                            std::process::exit(17);
                        }
                    }
                    Ok(())
                }),
            ));
        }
    }
    let mut imp_threads = Vec::new();
    for spec in &plan.imports {
        let Some(prog) = topo.program_idx(&spec.program) else {
            return Err(format!("plan imports unknown program {}", spec.program));
        };
        if prog != me {
            continue;
        }
        for rank in 0..topo.programs[me].procs {
            let mut h = fabric.take_import(me, rank, spec.region);
            let owned = topo.programs[me].imports[spec.region].decomp.owned(rank);
            let (t0, dt, count, compute, startup) =
                (spec.t0, spec.dt, spec.count, spec.compute, spec.startup);
            let verify = plan.verify_values;
            let region = spec.region;
            imp_threads.push((
                region,
                rank,
                std::thread::spawn(move || -> (Vec<Option<f64>>, Option<String>) {
                    std::thread::sleep(Duration::from_secs_f64(startup * scale));
                    let mut got = Vec::with_capacity(count);
                    let mut dest = LocalArray::zeros(owned);
                    for k in 0..count {
                        if compute > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(compute * scale));
                        }
                        match h.import(ts(t0 + k as f64 * dt), &mut dest) {
                            Err(e) => return (got, Some(e.to_string())),
                            Ok(None) => got.push(None),
                            Ok(Some(m)) => {
                                if verify {
                                    if let Some(err) =
                                        verify_cells(&dest, owned, m.value(), grid_cols)
                                    {
                                        return (got, Some(err));
                                    }
                                }
                                got.push(Some(m.value()));
                            }
                        }
                    }
                    (got, None)
                }),
            ));
        }
    }

    let mut export_errors = Vec::new();
    for (rank, t) in exp_threads {
        if let Err(e) = t.join().map_err(|_| "exporter thread panicked")? {
            export_errors.push((me, rank, e));
        }
    }
    let mut imports_done = Vec::new();
    let mut matches = Vec::new();
    for (region, rank, t) in imp_threads {
        let (got, err) = t.join().map_err(|_| "importer thread panicked")?;
        imports_done.push((me, rank, got.len() as u64, err));
        if rank == 0 {
            let conn = topo.programs[me].imports[region].conn;
            matches.push((conn.0, got));
        }
    }

    // From here on a peer EOF is expected (someone drains first) — the
    // fabric must keep serving peers that are still importing from us.
    apps_done.store(true, Ordering::Release);
    parent_wr
        .write_all(&codec::encode_bare(codec::KIND_APP_DONE))
        .map_err(|e| format!("sending app-done: {e}"))?;

    let drain_early = matches!(plan.fault, Some(NodeFault::DrainEarly { prog }) if prog == me);
    if !drain_early {
        read_expected(&mut parent_rd, codec::KIND_DRAIN, "drain")?;
    }
    draining.store(true, Ordering::Release);

    let shutdown = fabric.shutdown();
    let (stats, traces, shutdown_error) = match shutdown {
        Ok(rep) => (
            rep.stats
                .into_iter()
                .enumerate()
                .map(|(c, per_rank)| (c as u32, per_rank))
                .collect(),
            rep.traces
                .into_iter()
                .map(|(p, r, c, t)| (p, r, c.0, t))
                .collect(),
            None,
        ),
        Err(e) => (Vec::new(), Vec::new(), Some(e.to_string())),
    };
    if shutdown_error.is_none() {
        if let Some(w) = &wal_handle {
            // A cleanly drained session never needs replaying again:
            // everything is acked *and* consumed, so sealed segments go.
            w.sync();
            w.prune();
        }
    }
    // Flush the data plane before the counter snapshot: the quiesce lets
    // every writer drain (so every tx frame is metered), then half-closes
    // the links; joining the readers waits for the peers' symmetric
    // half-close, so every frame a peer wrote has been rx-metered here.
    // On a clean run the merged snapshots then satisfy exact tx/rx
    // conservation. A stalled reader fault never reaches EOF — its node
    // skips the join (the snapshot is already as complete as that run can
    // make it); crashed peers produce EOF/reset when the OS closes them.
    links.quiesce(Duration::from_secs(5));
    if !stall {
        for t in reader_threads {
            let _ = t.join();
        }
    }
    let report = NodeReport {
        prog: me,
        stats,
        traces,
        matches,
        imports_done,
        export_errors,
        shutdown_error,
        counters: metrics.snapshot().counters,
    };
    parent_wr
        .write_all(&codec::encode_report(&report))
        .map_err(|e| format!("sending report: {e}"))?;
    Ok(())
}

fn verify_cells(dest: &LocalArray, owned: Rect, m: f64, grid_cols: usize) -> Option<String> {
    for row in owned.row0..owned.row0 + owned.rows {
        for col in owned.col0..owned.col0 + owned.cols {
            let want = cell_value(m, row, col, grid_cols);
            let got = dest.get(row, col);
            if got != want {
                return Some(format!(
                    "data corruption at ({row},{col}) for D@{m}: got {got}, want {want}"
                ));
            }
        }
    }
    None
}
