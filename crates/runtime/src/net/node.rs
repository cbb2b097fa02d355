//! The `couplink-node` child process: one coupled *program* as its own OS
//! process, connected to its peers over sockets.
//!
//! # Joining a session
//!
//! Boot, a restart and a mesh reconnect join through the same frames in
//! the same order, and through one code path per side: the parent's hello
//! check and `Session::join` ([`super::bootstrap`]); here `admit` (every
//! inbound mesh link) and `dial` (every outbound one). Both sides wait for
//! frames through `expect_frame`, whose errors name the phase.
//!
//! | # | Frame | From → to | Boot | Restart | Reconnect |
//! |---|-------|-----------|------|---------|-----------|
//! | 1 | `HELLO{version, token, prog}` | node → parent | any program not yet joined | the killed program only | — |
//! | 2 | `PLAN` | parent → node | `restart` clear | `restart` set | — |
//! | 3 | `LISTENING{addr}` | node → parent | collected | read, not used | — |
//! | 4 | `PEERS{addr × n}` | parent → node | the addresses step 3 collected | the table boot collected | the node's own copy |
//! | 5 | `MESH_HELLO{version, token, i}` | node *i* → node *j < i* | every node dials each lower index | it dials each lower index; higher survivors re-dial it | the higher-indexed end re-dials |
//! | 6 | `READY` | node → parent | after step 5 | after step 5 | — |
//! | 7 | `GO` | parent → node | to all n | to the node | — |
//!
//! Only the peer table's source and the side that dials differ. A bad
//! hello (version, token, an index out of range or not open) gets `FATAL`
//! from the parent; a node closes such a mesh link, fatally at boot.
//!
//! Between steps 2 and 3 the node rebuilds the validated
//! [`Topology`](crate::engine::Topology) from the plan's configuration text
//! (one code path in every process, so shapes and connection ids cannot
//! disagree), opens its write-ahead journal when the plan names a
//! `wal_dir`, and builds a *partial* fabric hosting only this program; a
//! restarted node replays its journal into it *before any live frame can
//! arrive* and rebinds the address its peers re-dial. After `GO` it:
//!
//! 1. runs the application threads ([`drive`](fn@crate::threaded::drive)),
//!    its exporters paced by a finite buffer ([`export_capacity`]) until
//!    their importers' requests free space; a restarted node resumes each
//!    export schedule after the journaled prefix;
//! 2. sends `APP_DONE` but **keeps serving fabric traffic** — peers may
//!    still need this node's reps and stores for their own imports;
//! 3. on `DRAIN`, runs the staged session shutdown (drain → relay → reps →
//!    agents → importers), prunes the journal, sends the `REPORT`, exits.
//!
//! # Link failure: fail fast, or reconnect
//!
//! Without durability in the plan, a mesh EOF *before* this node finished
//! its own application work means a peer died: the session is failed fast
//! (blocked `import`/`export` calls surface
//! [`ThreadedError::ProcessCrash`](crate::threaded::ThreadedError::ProcessCrash)
//! instead of hanging). A mesh EOF *after* `APP_DONE` is the normal
//! consequence of a peer draining first and is ignored.
//!
//! With a `wal_dir` (or an armed link-sever fault) a dead link is re-formed
//! instead (step 5): both sides close the socket, the higher-indexed side
//! re-dials, and each side whose writer is replaced meters
//! `net_reconnects`. The new writer replays salvaged payload pieces only;
//! then each side resends the sequenced control still pending toward the
//! peer ([`Reliability::reform`](crate::engine::Reliability::reform)), and
//! each resend re-triggers its ack. A bare `MESH_BYE` ahead of a draining node's half-close tells
//! an orderly close from a drop: an EOF after it never re-dials.
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

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use couplink_layout::{Rect, SharedArray};
use couplink_metrics::EngineMetrics;
use couplink_proto::wire::{self, UncheckedSlot, WireError};
use couplink_proto::{ConnectionId, CtrlMsg, Rank, RequestId};
use parking_lot::Mutex;

use crate::engine::{ConnTopo, Endpoint, RunSpec, WalRecord, WireMeta};
use crate::threaded::fabric::{Net, RemoteLinks, WalHandle};
use crate::threaded::{drive, Apps, DriveOptions, Fabric};

use super::bootstrap::{check_hello, expect_frame, BootstrapError};
use super::codec::{self, NodeFault, NodeReport};
use super::link::{self, Addr, Conn, FrameReader, LinkWriter, Listener, SocketBackend, TxFrame};
use super::wal::FileWal;

/// Objects each export port of a node may buffer before `export()` waits
/// for the importer's requests to free space (raised per plan by
/// [`export_capacity`] where a schedule's tail needs more). Chosen by the
/// capacity sweep in EXPERIMENTS.md: the smallest value within the spread
/// of the best `socket_ctrl` throughput (4 is faster on `socket_bulk` but
/// slower on `socket_ctrl`; 16 and 32 add memory and no throughput).
pub const NODE_BUFFER_CAPACITY: usize = 8;

/// The per-connection export buffer capacity of the node hosting program
/// `prog` of `spec`: [`NODE_BUFFER_CAPACITY`], or one more than the
/// longest tail of exports at or above a connection's last region's lower
/// bound `x_last − tol` (all of them without a request). Nothing frees a
/// port after its last request, so no export may wait for one.
pub fn export_capacity(spec: &RunSpec, prog: usize) -> usize {
    let tail = |ct: &ConnTopo| {
        let exporter = Ok((prog, ct.exporter_region));
        let exp = spec
            .exports
            .iter()
            .find(|e| spec.export_region(e) == exporter);
        let Some(exp) = exp else { return 0 };
        let importer = Ok((ct.importer_prog, ct.importer_region));
        let last = spec
            .imports
            .iter()
            .find(|i| spec.import_region(i) == importer);
        let last = last.filter(|i| i.count > 0);
        let last_lo = last.map(|i| i.t0 + (i.count - 1) as f64 * i.dt - ct.tolerance.value());
        (0..exp.count)
            .filter(|&k| last_lo.is_none_or(|lo| exp.t0 + k as f64 * exp.dt >= lo))
            .count()
    };
    let conns = spec.topology.conns.iter();
    let longest = conns.filter(|ct| ct.exporter_prog == prog).map(tail).max();
    NODE_BUFFER_CAPACITY.max(longest.unwrap_or(0) + 1)
}

/// How long the child waits on any single bootstrap step before giving up.
const BOOT_TIMEOUT: Duration = Duration::from_secs(120);
/// Absolute lifetime backstop: if the parent never collects us, die
/// instead of leaking a process into the test harness.
const WATCHDOG: Duration = Duration::from_secs(600);

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
    pending: Vec<TxFrame>,
}

/// [`RemoteLinks`] over the socket mesh: serializes each foreign-bound
/// message into a frame and pushes it on the destination program's link,
/// which the sending thread writes at once when the link is idle (a mesh
/// reader's dispatch, when it returns) and the link's writer thread
/// otherwise. A piece that is the exporter's whole block is sent by
/// reference: a 100-byte head and a clone of the buffered array, whose
/// bytes go to `sendmsg` or `writev` straight out of the exporter's shared
/// store — the send side copies no payload byte in user space, and its one
/// pass over them is the checksum. A piece that is part of a block is
/// packed into an array of its own first, so the wire carries only the
/// plan's rectangle.
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
    /// Synced before any control or ack frame escapes: an acked delivery
    /// must already be durable, because the sender never retransmits an
    /// acked message.
    wal: Option<WalHandle>,
}

impl SocketLinks {
    fn new(n: usize, conn_importer: Vec<usize>, wal: Option<WalHandle>) -> SocketLinks {
        SocketLinks {
            slots: (0..n).map(|_| Mutex::new(SlotState::default())).collect(),
            conn_importer,
            metrics: OnceLock::new(),
            wal,
        }
    }

    fn send(&self, prog: usize, frame: TxFrame) {
        if let Some(wal) = &self.wal {
            if matches!(frame.kind(), Some(codec::KIND_CTRL) | Some(codec::KIND_ACK)) {
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
                w.push(frame);
            }
            None => st.pending.push(frame),
        }
    }

    /// Installs a fresh writer for `prog`: retires any previous writer —
    /// replaying its salvaged payload pieces, dropping salvaged control
    /// and acks (the caller's re-form resends sequenced control, and a
    /// resent message re-triggers its ack; pieces are the only frames
    /// nobody resends) — then flushes the pending stash. Returns whether a
    /// writer was replaced (the link was re-formed).
    fn install_writer(&self, prog: usize, writer: LinkWriter) -> bool {
        let mut st = self.slots[prog].lock();
        let old = st.writer.take();
        let replaced = old.is_some();
        for f in old.into_iter().flat_map(LinkWriter::retire) {
            if f.kind() == Some(wire::KIND_PAYLOAD) {
                writer.push(f);
            }
        }
        for f in st.pending.drain(..) {
            writer.push(f);
        }
        st.writer = Some(writer);
        replaced
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
        let frame = codec::encode_ctrl_env(to, meta.as_ref(), &msg);
        self.send(ep_prog(to), TxFrame::Frame(frame));
    }

    fn send_ack(&self, sender: Endpoint, acker: Endpoint, seq: u64) {
        let frame = codec::encode_ack_env(sender, acker, seq);
        self.send(ep_prog(sender), TxFrame::Frame(frame));
    }

    fn send_piece(
        &self,
        conn: ConnectionId,
        dst: usize,
        req: RequestId,
        rect: Rect,
        payload: &SharedArray,
    ) {
        // A piece that is part of the exporter's block travels as just
        // its rectangle, packed by one copy; a whole block goes as it is.
        // Either way the values sent span exactly `rect`.
        let payload = if rect == payload.owned() {
            payload.clone()
        } else {
            payload.pack(&rect)
        };
        let (dst, rect) = (Rank(dst as u32), codec::wire_rect(rect));
        let data = payload.as_slice();
        #[cfg(target_endian = "little")]
        let frame = TxFrame::Piece {
            head: wire::encode_payload_head(
                Vec::with_capacity(wire::PAYLOAD_HEAD_LEN),
                conn,
                dst,
                req,
                rect,
                rect,
                data,
            ),
            data: payload,
        };
        // The values' memory bytes are not their wire bytes: copy them.
        #[cfg(not(target_endian = "little"))]
        let frame = TxFrame::Frame(wire::encode_payload(conn, dst, req, rect, rect, data));
        self.send(self.conn_importer[conn.0 as usize], frame);
    }
}

/// One inbound mesh frame whose checksum held: a payload, already decoded
/// by the copy that checked it, or any other frame's body, borrowed
/// straight from the reader's receive buffer.
enum Inbound<'a> {
    Piece(wire::PayloadFrame),
    Body(u8, &'a [u8]),
}

/// Checks a received frame against its header's checksum before any byte
/// of it is used. A payload is checked inside the one copy that decodes it
/// into a fresh allocation, which becomes the importer-side shared array
/// as it is; any other frame is checked whole. A mismatch is
/// [`WireError::BadChecksum`], whatever the body says; an intact payload
/// whose shape is wrong is `decode_payload`'s typed error.
fn check(raw: UncheckedSlot, body: &[u8]) -> Result<Inbound<'_>, WireError> {
    if raw.slot.kind == wire::KIND_PAYLOAD {
        return wire::decode_payload_checked(body, raw.crc).map(Inbound::Piece);
    }
    let slot = raw.verify(body)?;
    Ok(Inbound::Body(slot.kind, body))
}

/// Injects one checked inbound mesh frame into the local session; the
/// importer's `copy_into` is a payload's other copy on this side. Returns
/// a fatal description when the frame is structurally wrong for this
/// layer.
fn dispatch(frame: Inbound<'_>, net: &Net, drop_answers: Option<u32>) -> Result<(), String> {
    match frame {
        Inbound::Piece(p) => {
            let rect = codec::rect_from(p.rect);
            let payload = SharedArray::from_parts(codec::rect_from(p.owned), p.data)
                .ok_or("payload data disagrees with its owned rect")?;
            net.deliver_remote_piece(p.conn, p.dst.0 as usize, p.req, rect, payload);
            Ok(())
        }
        Inbound::Body(codec::KIND_CTRL, body) => {
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
        Inbound::Body(codec::KIND_ACK, body) => {
            let (sender, acker, seq) =
                codec::decode_ack_env(body).map_err(|e| format!("ack envelope: {e}"))?;
            net.apply_remote_ack(sender, acker, seq);
            Ok(())
        }
        Inbound::Body(k, _) => Err(format!("unexpected mesh frame kind {k}")),
    }
}

/// Everything a mesh link needs about this node, shared by the threads
/// that form, read and re-form links. Built before the mesh forms: boot
/// and reconnect dial and admit through it alike.
struct MeshCtx {
    me: usize,
    n: usize,
    token: String,
    net: Arc<Net>,
    metrics: Arc<EngineMetrics>,
    links: Arc<SocketLinks>,
    apps_done: AtomicBool,
    /// Set at the coordinated drain: from then on sockets close in
    /// arbitrary order and every EOF is a normal teardown.
    draining: AtomicBool,
    drop_answers: Option<u32>,
    stall: bool,
    /// Every program's mesh listener, from the `PEERS` table.
    peers: Vec<Addr>,
    /// Whether a link that dies before the drain is re-formed; without it
    /// any mid-run EOF keeps its historical fail-fast meaning.
    reconnect: bool,
    /// The sever fault, `(peer, after_tx)`: taken by the first writer
    /// installed for that peer, so a re-formed link never severs again.
    sever: Mutex<Option<(usize, u64)>>,
}

impl MeshCtx {
    /// Starts a writer on a clone of `conn` and installs it for `peer`; a
    /// writer that replaces an earlier one re-forms the link: it meters a
    /// reconnect and resends the control this side still owes the peer,
    /// whose only copies the old writer took with it.
    fn install(&self, peer: usize, conn: &Conn) -> std::io::Result<()> {
        let sever = self.sever.lock().take_if(|(p, _)| *p == peer);
        let writer = LinkWriter::spawn_with(
            conn.try_clone()?,
            format!("{}-{peer}", self.me),
            sever.map(|(_, after)| after),
            Some(Arc::clone(&self.metrics)),
        );
        if self.links.install_writer(peer, writer) {
            self.metrics.net_reconnects.inc();
            self.net.reform(|_, to| ep_prog(to) == peer);
        }
        Ok(())
    }
}

/// Forms the link to a lower-indexed `peer`, at boot and on every re-dial:
/// dials its listener (backing off while the peer is mid-restart), says
/// `MESH_HELLO`, installs the writer (salvage replay inside). Returns the
/// reader for the caller to keep reading.
fn dial(ctx: &MeshCtx, peer: usize) -> std::io::Result<FrameReader> {
    let mut conn = Conn::dial(&ctx.peers[peer])?;
    conn.write_all(&codec::encode_hello(
        codec::KIND_MESH_HELLO,
        &ctx.token,
        ctx.me,
    ))?;
    ctx.install(peer, &conn)?;
    Ok(FrameReader::new(conn))
}

/// Admits one inbound link, at boot and on every re-accept: reads its
/// `MESH_HELLO`, checks it with the parent's [`check_hello`] — the claimed
/// program must lie above this node's and, at `boot`, not be linked yet
/// (later, a second link from one peer is its re-dial) — and installs the
/// writer. A refused link gets no writer and is closed.
fn admit(ctx: &MeshCtx, conn: Conn, boot: bool) -> Result<(usize, FrameReader), BootstrapError> {
    conn.set_read_timeout(Some(BOOT_TIMEOUT))?;
    let mut reader = FrameReader::new(conn);
    let hello = expect_frame(&mut reader, codec::KIND_MESH_HELLO, "mesh hello")?;
    let unlinked = |p: usize| !boot || ctx.links.slots[p].lock().writer.is_none();
    let above = ctx.me + 1..ctx.n;
    let from = check_hello(&hello, &ctx.token, above, unlinked, "mesh hello")?;
    reader.conn().set_read_timeout(None)?;
    ctx.install(from, reader.conn())?;
    Ok((from, reader))
}

/// Reads the link to `peer` until it ends for good, re-dialling it when it
/// breaks and reconnect is armed. Returns the `read` syscalls it made.
fn mesh_reader_loop(mut reader: FrameReader, peer: usize, ctx: Arc<MeshCtx>) -> u64 {
    if ctx.stall {
        // Injected malfunction: the socket stays open, inbound traffic is
        // never processed. Peers must hit their import timeout, not hang.
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    let metrics = Arc::clone(&ctx.metrics);
    // The reads of links already re-dialled.
    let mut reads = 0;
    'links: loop {
        // Set by the peer's `MESH_BYE`: the EOF that follows is its orderly
        // teardown, whatever this node's own drain state says.
        let mut orderly = false;
        let down = loop {
            match reader.next_unchecked() {
                Ok(Some(raw)) => {
                    let len = raw.slot.body.len();
                    let body = reader.body(&raw.slot);
                    let frame = match check(raw, body) {
                        Ok(frame) => frame,
                        // A corrupt body leaves the framing intact: skip
                        // it, unmetered but for the reject.
                        Err(WireError::BadChecksum) => {
                            metrics.net_codec_rejects.inc();
                            continue;
                        }
                        Err(e) => {
                            ctx.net
                                .fail(format!("link to program {peer}: payload: {e}"));
                            break 'links;
                        }
                    };
                    // Unmetered on both sides, like the hello that opened
                    // the link, so the tx/rx sums still conserve.
                    if matches!(frame, Inbound::Body(codec::KIND_MESH_BYE, _)) {
                        orderly = true;
                        continue;
                    }
                    // Receive-side mirror of the writer's tx meters; mesh
                    // hellos are excluded on both sides, so on a clean run
                    // the merged rx sums equal the merged tx sums.
                    metrics.net_rx_frames.inc();
                    metrics.net_rx_bytes.add((wire::HEADER_LEN + len) as u64);
                    metrics.net_rx_buf.set(reader.buffered_hwm() as u64);
                    // The reader polls what the frame wakes (rep → agents
                    // → answer, or importer → the application's wake-up)
                    // before its next blocking `read`, instead of handing
                    // each task to a pool worker; the frames those tasks
                    // send leave together, one `sendmsg` per link, when
                    // the dispatch returns.
                    let dispatched = link::corked(|| {
                        ctx.net
                            .run_woken(|| dispatch(frame, &ctx.net, ctx.drop_answers))
                    });
                    if let Err(detail) = dispatched {
                        ctx.net.fail(format!("link to program {peer}: {detail}"));
                        break 'links;
                    }
                }
                Ok(None) => break format!("peer program {peer} disconnected"),
                Err(e) => break format!("link to program {peer} failed: {e}"),
            }
        };
        if ctx.draining.load(Ordering::Acquire) {
            // Coordinated teardown: sockets close in arbitrary order.
            break 'links;
        }
        if !ctx.reconnect {
            if ctx.apps_done.load(Ordering::Acquire) {
                // Normal drain asymmetry: someone finished and closed first.
                break 'links;
            }
            ctx.net.fail(down);
            break 'links;
        }
        if orderly {
            // The peer read its `DRAIN` before this node's main thread
            // stored `draining`: a clean close that must not re-dial the
            // peer's still-live accept loop (and meter a reconnect).
            break 'links;
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
            break 'links;
        }
        match dial(&ctx, peer) {
            Ok(fresh) => reads += std::mem::replace(&mut reader, fresh).reads(),
            Err(e) => {
                // A failed re-dial during the teardown race (the peer
                // exited because the session is draining) is not an error.
                if !ctx.draining.load(Ordering::Acquire) {
                    ctx.net.fail(format!("{down} (reconnect failed: {e})"));
                }
                break 'links;
            }
        }
    }
    reads + reader.reads()
}

/// Keeps the mesh listener alive after boot, re-admitting higher-indexed
/// peers whose link died (or who were restarted). Each connection is
/// admitted on a thread of its own, which goes on to read the link: a
/// stray that never says hello holds up only that thread, never the next
/// peer's re-dial. Refused connections are dropped, not fatal — a
/// reconnecting mesh must tolerate strays.
fn accept_loop(listener: Listener, ctx: Arc<MeshCtx>) {
    while let Ok(conn) = listener.accept() {
        let ctx = Arc::clone(&ctx);
        let spawned = std::thread::Builder::new()
            .name(format!("couplink-net-rd-{}-r", ctx.me))
            .spawn(move || {
                if let Ok((from, reader)) = admit(&ctx, conn, false) {
                    mesh_reader_loop(reader, from, ctx);
                }
            });
        if spawned.is_err() {
            return;
        }
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

    let plan = expect_frame(&mut parent_rd, codec::KIND_PLAN, "plan").map_err(|e| e.to_string())?;
    let plan = codec::decode_plan(&plan).map_err(|e| format!("plan: {e}"))?;
    let topo = plan.topology()?;
    let n = topo.programs.len();
    if me >= n {
        return Err(format!("program index {me} out of range ({n} programs)"));
    }
    let mut spec = plan.run_spec(topo)?;
    // Paced: the node's export and import loops are separate threads, so a
    // stalled `export()` waits only for a peer's requests, never for this
    // process's own program order.
    spec.knobs.buffer_capacity = Some(export_capacity(&spec, me));
    spec.knobs.traces.retain(|&(p, _, _)| p == me);
    let topo = &spec.topology;

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
    let links = Arc::new(SocketLinks::new(
        n,
        topo.conns.iter().map(|c| c.importer_prog).collect(),
        wal_handle.clone(),
    ));
    let mut fabric = Fabric::partial(
        topo.clone(),
        spec.knobs.clone(),
        wal_handle.clone(),
        me,
        links.clone(),
        Some(Arc::clone(&metrics)),
    );
    let _ = links.metrics.set(Arc::clone(&metrics));
    let net = fabric.net();

    // The application's handles are taken up front: journal replay
    // re-drives the exports, and the application threads then resume
    // after the replayed prefix. Each exporting rank comes with the one
    // field it refills for every export.
    let mut apps = Apps::take(&spec, &mut fabric, |p| p == me)?;

    // --- journal replay (restart only) ---
    // Records are re-driven in file order: journaled deliveries go into
    // the mailboxes (the fabric suppresses re-sending sequenced traffic
    // and journaling while replaying), journaled exports regenerate their
    // deterministic fill and re-drive the export path (pieces re-sent to
    // the mesh are deduped by the importer), and the application threads
    // resume after them.
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
                    apps.replay((prog, rank, *region as usize), *ts)
                        .map_err(|e| format!("replaying export: {e}"))?;
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

    let peers =
        expect_frame(&mut parent_rd, codec::KIND_PEERS, "peers").map_err(|e| e.to_string())?;
    let peers = codec::decode_peers(&peers).map_err(|e| format!("peers: {e}"))?;
    if peers.len() != n {
        return Err(format!(
            "peer table has {} entries for {n} programs",
            peers.len()
        ));
    }

    let ctx = Arc::new(MeshCtx {
        me,
        n,
        token: args.token.clone(),
        net: Arc::clone(&net),
        metrics: Arc::clone(&metrics),
        links: Arc::clone(&links),
        apps_done: AtomicBool::new(false),
        draining: AtomicBool::new(false),
        drop_answers: match plan.fault {
            Some(NodeFault::DropAnswers { conn }) => Some(conn),
            _ => None,
        },
        stall: matches!(plan.fault, Some(NodeFault::StallMeshReader { prog }) if prog == me),
        peers: peers
            .iter()
            .map(|a| Addr::parse(a))
            .collect::<Result<_, _>>()?,
        // Reconnect is armed by durability (the kill-and-restart runs) or
        // an explicit sever fault anywhere in the mesh; otherwise mid-run
        // link death keeps its historical fail-fast meaning.
        reconnect: plan.wal_dir.is_some()
            || matches!(plan.fault, Some(NodeFault::SeverLink { .. })),
        sever: Mutex::new(match plan.fault {
            Some(NodeFault::SeverLink {
                prog,
                peer,
                after_tx,
            }) if prog == me => Some((peer, after_tx)),
            _ => None,
        }),
    });

    // Form the mesh: dial the lower-indexed programs (their listeners are
    // guaranteed bound — the parent saw their LISTENING before
    // broadcasting PEERS), accept from the higher-indexed ones, then read
    // each link on a thread of its own.
    let mut mesh = Vec::with_capacity(n);
    for peer in 0..me {
        let reader = dial(&ctx, peer).map_err(|e| format!("dialing program {peer}: {e}"))?;
        mesh.push((peer, reader));
    }
    for _ in me + 1..n {
        let conn = listener.accept().map_err(|e| format!("mesh accept: {e}"))?;
        mesh.push(admit(&ctx, conn, true).map_err(|e| e.to_string())?);
    }
    let mut reader_threads = Vec::new();
    for (peer, reader) in mesh {
        let ctx = Arc::clone(&ctx);
        reader_threads.push(
            std::thread::Builder::new()
                .name(format!("couplink-net-rd-{me}-{peer}"))
                .spawn(move || mesh_reader_loop(reader, peer, ctx))
                .map_err(|e| format!("spawning mesh reader: {e}"))?,
        );
    }
    if ctx.reconnect {
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
    expect_frame(&mut parent_rd, codec::KIND_GO, "go").map_err(|e| e.to_string())?;

    // --- application threads ---
    let opts = DriveOptions {
        time_scale: plan.time_scale,
        verify: plan.verify_values,
        abort_after: match plan.fault {
            Some(NodeFault::AbortAfterExports { prog, rank, after }) => Some((prog, rank, after)),
            _ => None,
        },
    };
    let Ok(ran) = drive(&spec, apps, opts) else {
        // Injected malfunction: die mid-run with the sockets cut, exactly
        // like a crashed peer, dropping nothing on the way out.
        std::process::exit(17);
    };
    let mut matches = Vec::new();
    let mut imports_done = Vec::new();
    for i in ran.imports {
        if i.rank == 0 {
            matches.push((
                i.conn.0,
                i.got.iter().map(|m| m.map(|t| t.value())).collect(),
            ));
        }
        imports_done.push((i.prog, i.rank, i.got.len() as u64, i.error));
    }

    // From here on a peer EOF is expected (someone drains first) — the
    // fabric must keep serving peers that are still importing from us.
    ctx.apps_done.store(true, Ordering::Release);
    parent_wr
        .write_all(&codec::encode_bare(codec::KIND_APP_DONE))
        .map_err(|e| format!("sending app-done: {e}"))?;

    let drain_early = matches!(plan.fault, Some(NodeFault::DrainEarly { prog }) if prog == me);
    if !drain_early {
        expect_frame(&mut parent_rd, codec::KIND_DRAIN, "drain").map_err(|e| e.to_string())?;
    }
    ctx.draining.store(true, Ordering::Release);

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
    if !ctx.stall {
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
        export_errors: ran.export_errors,
        shutdown_error,
        counters: metrics.snapshot().counters,
    };
    parent_wr
        .write_all(&codec::encode_report(&report))
        .map_err(|e| format!("sending report: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Knobs, MemWal, Topology};
    use crate::threaded::drive::{cell_value, fill_cells};
    use couplink_layout::{Decomposition, Extent2, LocalArray};
    use couplink_time::{ts, MatchPolicy, Tolerance};
    use std::io::Read;
    use std::os::unix::net::UnixStream;

    const TOKEN: &str = "tok";

    /// Program 1 of a three-program mesh (so peers 0 and 1 are at or below
    /// it, 2 above, 3 outside) over a partial fabric with nothing running,
    /// already draining so a link that closes ends quietly; `wal` arms the
    /// reliability layer. The fabric is returned to outlive the test.
    fn mesh_ctx(wal: Option<WalHandle>) -> (Arc<MeshCtx>, Fabric) {
        let d = Decomposition::row_block(Extent2::new(4, 4), 1).expect("decomp");
        let tol = Tolerance::new(0.5).expect("tol");
        let topo = Topology::pair(d, d, MatchPolicy::RegL, tol).expect("topo");
        node_ctx(topo, 1, 3, wal, Knobs::default())
    }

    /// Program `me` of an `n`-program mesh running `topo` (its connection 0
    /// imported by program 1) over a partial fabric, already draining so
    /// a link that closes ends quietly. The fabric is returned to outlive
    /// the test.
    fn node_ctx(
        topo: Topology,
        me: usize,
        n: usize,
        wal: Option<WalHandle>,
        knobs: Knobs,
    ) -> (Arc<MeshCtx>, Fabric) {
        let links = Arc::new(SocketLinks::new(n, vec![1], None));
        let metrics = Arc::new(EngineMetrics::new());
        let fabric = Fabric::partial(topo, knobs, wal, me, links.clone(), Some(metrics.clone()));
        let ctx = MeshCtx {
            me,
            n,
            token: TOKEN.into(),
            net: fabric.net(),
            metrics,
            links,
            apps_done: AtomicBool::new(false),
            draining: AtomicBool::new(true),
            drop_answers: None,
            stall: false,
            peers: Vec::new(),
            reconnect: false,
            sever: Mutex::new(None),
        };
        (Arc::new(ctx), fabric)
    }

    /// A mesh hello as a peer would send it, at any version.
    fn mesh_hello(version: u32, token: &str, prog: u32) -> Vec<u8> {
        wire::frame(codec::KIND_MESH_HELLO, &(version, token.to_string(), prog))
    }

    /// Feeds `bytes` (then EOF) to `admit` over a socket pair; an error
    /// comes back as its `Debug` text.
    fn admit_bytes(ctx: &MeshCtx, bytes: &[u8], boot: bool) -> Result<usize, String> {
        let (mut peer, mine) = UnixStream::pair().expect("pair");
        peer.write_all(bytes).expect("write");
        drop(peer);
        let admitted = admit(ctx, Conn::Uds(mine), boot);
        admitted.map(|(from, _)| from).map_err(|e| format!("{e:?}"))
    }

    fn writers(ctx: &MeshCtx) -> usize {
        let slots = ctx.links.slots.iter();
        slots.filter(|s| s.lock().writer.is_some()).count()
    }

    #[test]
    fn admission_refuses_bad_hellos_and_installs_one_writer_for_a_good_one() {
        let (ctx, _fabric) = mesh_ctx(None);
        let v = codec::RT_VERSION;
        let parent_hello = codec::encode_hello(codec::KIND_HELLO, TOKEN, 2);
        let (mesh, parent) = (codec::KIND_MESH_HELLO, codec::KIND_HELLO);
        for (bytes, want) in [
            (
                mesh_hello(v - 1, TOKEN, 2),
                format!("VersionSkew {{ got: {} }}", v - 1),
            ),
            (mesh_hello(v, "other", 2), "BadToken".into()),
            (mesh_hello(v, TOKEN, 0), "BadProgram { got: 0 }".into()),
            (mesh_hello(v, TOKEN, 1), "BadProgram { got: 1 }".into()),
            (mesh_hello(v, TOKEN, 3), "BadProgram { got: 3 }".into()),
            (
                parent_hello,
                format!("Wire(\"expected frame kind {mesh} during mesh hello, got {parent}\")"),
            ),
            (
                Vec::new(),
                r#"Wire("connection closed during mesh hello")"#.into(),
            ),
        ] {
            for boot in [true, false] {
                assert_eq!(admit_bytes(&ctx, &bytes, boot), Err(want.clone()));
                assert_eq!(writers(&ctx), 0, "{want} installed a writer");
            }
        }
        let good = mesh_hello(v, TOKEN, 2);
        assert_eq!(admit_bytes(&ctx, &good, true), Ok(2));
        assert_eq!(writers(&ctx), 1);
        // At boot a second link from the same peer is a duplicate...
        let duplicate = admit_bytes(&ctx, &good, true);
        assert_eq!(duplicate, Err("DuplicateProgram { prog: 2 }".into()));
        assert_eq!(writers(&ctx), 1);
        assert_eq!(ctx.metrics.net_reconnects.get(), 0);
        // ...after boot it is the re-dial: it replaces the link and meters.
        assert_eq!(admit_bytes(&ctx, &good, false), Ok(2));
        assert_eq!(writers(&ctx), 1);
        assert_eq!(ctx.metrics.net_reconnects.get(), 1);
    }

    /// A connection that never says hello must not hold up the next
    /// peer's re-dial: each hello is read off the accept thread.
    #[test]
    fn a_silent_stray_does_not_hold_up_a_redial() {
        let (ctx, _fabric) = mesh_ctx(None);
        let dir = std::env::temp_dir();
        let name = format!("couplink-mesh-stray-{}", std::process::id());
        let listener = Listener::bind(SocketBackend::Uds, &dir, &name).expect("bind");
        let addr = listener.addr().expect("addr");
        let accepting = Arc::clone(&ctx);
        std::thread::spawn(move || accept_loop(listener, accepting));
        let _stray = Conn::dial(&addr).expect("stray");
        let start = Instant::now();
        let mut peer = Conn::dial(&addr).expect("peer");
        let hello = mesh_hello(codec::RT_VERSION, TOKEN, 2);
        peer.write_all(&hello).expect("hello");
        while writers(&ctx) == 0 && start.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let took = start.elapsed();
        let _ = std::fs::remove_file(dir.join(format!("{name}.sock")));
        assert_eq!(writers(&ctx), 1, "no writer after {took:?}");
    }

    /// One 4 × 4 piece: its shared array, and the frame `encode_payload`
    /// builds for it (conn 0 to importer rank 0, request 3).
    fn piece() -> (SharedArray, Vec<u8>) {
        let owned = Rect::new(0, 0, 4, 4);
        let data = LocalArray::from_fn(owned, |r, c| cell_value(2.0, r, c, 4));
        let array = SharedArray::copy_from(&data);
        let r = codec::wire_rect(owned);
        let frame = wire::encode_payload(
            ConnectionId(0),
            Rank(0),
            RequestId(3),
            r,
            r,
            data.as_slice(),
        );
        (array, frame)
    }

    /// A by-reference piece outlives a severed writer: it lands in the
    /// salvage as it was queued, and the writer installed next replays it
    /// byte-identically to the one-buffer encoding.
    #[test]
    fn a_severed_writer_salvages_a_piece_and_its_successor_replays_it_byte_identically() {
        let links = SocketLinks::new(2, vec![0], None);
        let (mine, old_peer) = UnixStream::pair().expect("pair");
        links.install_writer(
            0,
            LinkWriter::spawn_with(Conn::Uds(mine), "sever".into(), Some(0), None),
        );
        let (array, want) = piece();
        links.send_piece(ConnectionId(0), 0, RequestId(3), array.owned(), &array);
        let mut seen = Vec::new();
        (&old_peer).read_to_end(&mut seen).expect("read");
        assert!(seen.is_empty(), "severed before its first frame");

        let (mine, mut peer) = UnixStream::pair().expect("pair");
        assert!(links.install_writer(0, LinkWriter::spawn(Conn::Uds(mine), "fresh".into())));
        peer.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut got = vec![0; want.len()];
        peer.read_exact(&mut got).expect("the replayed piece");
        assert_eq!(got, want);
    }

    /// A piece whose values changed after its head was built fails the
    /// receive checksum: the reader skips it, meters one codec reject and
    /// dispatches — the one way into the importer's mailbox — only the
    /// intact piece behind it.
    #[test]
    fn a_piece_with_a_flipped_value_bit_is_skipped_and_never_delivered() {
        let (ctx, _fabric) = mesh_ctx(None);
        let (array, _) = piece();
        let r = codec::wire_rect(array.owned());
        let ids = (ConnectionId(0), Rank(0), RequestId(3));
        let head =
            || wire::encode_payload_head(Vec::new(), ids.0, ids.1, ids.2, r, r, array.as_slice());
        let mut flipped =
            LocalArray::from_fn(array.owned(), |row, col| cell_value(2.0, row, col, 4));
        let v = flipped.get(2, 1);
        flipped.set(2, 1, f64::from_bits(v.to_bits() ^ 1 << 17));
        let flipped = SharedArray::copy_from(&flipped);

        let (mine, theirs) = UnixStream::pair().expect("pair");
        let w = LinkWriter::spawn(Conn::Uds(theirs), "flip".into());
        assert!(w.push(TxFrame::Piece {
            head: head(),
            data: flipped
        }));
        assert!(w.push(TxFrame::Piece {
            head: head(),
            data: array
        }));
        assert!(w.retire().is_empty());
        // Draining: the EOF after the two pieces ends the loop quietly.
        mesh_reader_loop(FrameReader::new(Conn::Uds(mine)), 0, Arc::clone(&ctx));
        assert_eq!(ctx.metrics.net_codec_rejects.get(), 1);
        assert_eq!(ctx.metrics.net_rx_frames.get(), 1, "only the intact piece");
    }

    /// The collective answer to [`import_behind`]'s request: `D@2.0`
    /// matched, addressed to program 1's rep.
    fn answer_frame() -> Vec<u8> {
        let answer = CtrlMsg::Answer {
            conn: ConnectionId(0),
            req: RequestId(0),
            answer: couplink_proto::RepAnswer::Match(ts(2.0)),
        };
        codec::encode_ctrl_env(Endpoint::Rep { prog: 1 }, None, &answer)
    }

    /// The exporter's side of one import of `D@2.0` on [`mesh_ctx`]'s
    /// program 1, scripted: program 1's application imports while `frames`,
    /// then an intact piece and the answer, arrive on a link from program
    /// 0 read by [`mesh_reader_loop`]. Returns what the import returned and
    /// the array it filled.
    fn import_behind(ctx: &Arc<MeshCtx>, fabric: &mut Fabric, frames: Vec<TxFrame>) -> LocalArray {
        let (array, _) = piece();
        let mut imp = fabric.take_import(1, 0, 0);
        let importing = std::thread::spawn(move || {
            let mut dest = LocalArray::zeros(Rect::new(0, 0, 4, 4));
            let got = imp.import(ts(2.0), &mut dest).map_err(|e| e.to_string());
            (got, dest)
        });
        // The application's request is owed to program 0 (no writer yet).
        let start = Instant::now();
        while ctx.links.slots[0].lock().pending.is_empty() {
            assert!(start.elapsed() < Duration::from_secs(5), "no request");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (conn, req) = (ConnectionId(0), RequestId(0));
        let r = codec::wire_rect(array.owned());
        let head =
            wire::encode_payload_head(Vec::new(), conn, Rank(0), req, r, r, array.as_slice());
        let (mine, theirs) = UnixStream::pair().expect("pair");
        let w = LinkWriter::spawn(Conn::Uds(theirs), "script".into());
        for frame in frames.into_iter().chain([
            TxFrame::Piece { head, data: array },
            TxFrame::Frame(answer_frame()),
        ]) {
            assert!(w.push(frame));
        }
        assert!(w.retire().is_empty());
        // Draining: the EOF after the last frame ends the loop quietly.
        mesh_reader_loop(FrameReader::new(Conn::Uds(mine)), 0, Arc::clone(ctx));
        let (got, dest) = importing.join().expect("importer");
        assert_eq!(
            got,
            Ok(Some(ts(2.0))),
            "the link failed or the import wedged"
        );
        dest
    }

    /// One flipped bit in a payload — in its prefix's owned rectangle, in
    /// its values, or in its header's checksum — is one codec reject: the
    /// piece is never delivered (the import that follows lands the intact
    /// piece's values, where a delivered corrupt one would have been kept
    /// and the intact one dropped as its duplicate), the link does not
    /// fail, the frame after it is delivered, and the rejected frame adds
    /// nothing to the rx meters.
    #[test]
    fn a_payload_with_one_flipped_bit_anywhere_is_one_reject_and_the_next_frame_lands() {
        let (array, intact) = piece();
        let owned_rows = wire::HEADER_LEN + 4 + 4 + 8 + 32 + 16;
        for (what, byte, bit) in [
            ("prefix owned.rows", owned_rows, 0),
            ("value (2, 1)", wire::PAYLOAD_HEAD_LEN + 8 * 9 + 2, 1),
            ("header checksum", 8, 5),
        ] {
            let (ctx, mut fabric) = mesh_ctx(None);
            let mut bad = intact.clone();
            bad[byte] ^= 1 << bit;
            let dest = import_behind(&ctx, &mut fabric, vec![TxFrame::Frame(bad)]);
            assert_eq!(dest.as_slice(), array.as_slice(), "{what}: values");
            let m = &ctx.metrics;
            assert_eq!(m.net_codec_rejects.get(), 1, "{what}: rejects");
            assert_eq!(m.net_rx_frames.get(), 2, "{what}: the piece and the answer");
            let rx_bytes = (intact.len() + answer_frame().len()) as u64;
            assert_eq!(m.net_rx_bytes.get(), rx_bytes, "{what}: rx bytes");
        }
    }

    /// `fill_cells` refills one array in place, at two timestamps in turn,
    /// with exactly `cell_value`'s bits in every cell of an interior block.
    #[test]
    fn fill_cells_refills_in_place_with_cell_values_bits() {
        let (grid_cols, owned) = (300, Rect::new(7, 13, 5, 257));
        let mut data = LocalArray::zeros(owned);
        for t in [1.5, 1e-3 + 12_345.0] {
            fill_cells(&mut data, t, grid_cols);
            let want = LocalArray::from_fn(owned, |row, col| cell_value(t, row, col, grid_cols));
            let bits =
                |a: &LocalArray| a.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&data), bits(&want), "at t = {t}");
        }
    }

    /// A rows → columns plan over UDS: two 2-rank programs on an 8 × 8
    /// grid, so each piece is a 4 × 4 quarter of the exporter's 4 × 8
    /// block. The wire carries each piece's rectangle and no more: the
    /// payload bytes program 0 writes are one head plus 8 bytes per
    /// transferred cell, per piece — what `bytes_transferred` counts plus
    /// the heads — and every import lands the exported values. A tap
    /// between the programs tells payload frames from control.
    #[test]
    fn a_piece_inside_its_block_puts_only_its_rectangle_on_the_wire() {
        let grid = Extent2::new(8, 8);
        let rows = Decomposition::row_block(grid, 2).expect("rows");
        let cols = Decomposition::col_block(grid, 2).expect("cols");
        let tol = Tolerance::new(0.25).expect("tol");
        let topo = Topology::pair(rows, cols, MatchPolicy::RegL, tol).expect("topo");
        let (exp, mut exp_fabric) = node_ctx(topo.clone(), 0, 2, None, Knobs::default());
        let (imp, mut imp_fabric) = node_ctx(topo, 1, 2, None, Knobs::default());
        let pair = || {
            let (a, b) = UnixStream::pair().expect("pair");
            (Conn::Uds(a), Conn::Uds(b))
        };
        let ((exp_tx, tap_rx), (tap_tx, imp_rx), (imp_tx, exp_rx)) = (pair(), pair(), pair());
        exp.install(1, &exp_tx).expect("exporter writer");
        imp.install(0, &imp_tx).expect("importer writer");
        let readers = [(exp_rx, 1, &exp), (imp_rx, 0, &imp)].map(|(conn, peer, ctx)| {
            let ctx = Arc::clone(ctx);
            std::thread::spawn(move || mesh_reader_loop(FrameReader::new(conn), peer, ctx))
        });
        // The tap: every frame program 0 writes, tallied by kind and
        // passed on to program 1 unchanged.
        let tap = std::thread::spawn(move || {
            let (mut reader, mut out) = (FrameReader::new(tap_rx), tap_tx);
            let (mut payload, mut other) = ((0u64, 0u64), 0u64);
            while let Some(f) = reader.next(&mut || panic!("corrupt")).expect("tap") {
                let bytes = wire::encode_frame(f.kind, &f.body);
                match f.kind {
                    wire::KIND_PAYLOAD => payload = (payload.0 + 1, payload.1 + bytes.len() as u64),
                    codec::KIND_MESH_BYE => {}
                    _ => other += bytes.len() as u64,
                }
                out.write_all(&bytes).expect("forward");
            }
            out.shutdown_write();
            (payload, other)
        });

        const STEPS: usize = 3;
        let field = |t: f64, r: Rect| LocalArray::from_fn(r, |row, col| cell_value(t, row, col, 8));
        for rank in 0..2 {
            let mut h = exp_fabric.take_export(0, rank, 0);
            for j in 0..STEPS {
                h.export(ts(j as f64), &field(j as f64, rows.owned(rank)))
                    .expect("export");
            }
        }
        let importers: Vec<_> = (0..2)
            .map(|rank| {
                let mut h = imp_fabric.take_import(1, rank, 0);
                let owned = cols.owned(rank);
                std::thread::spawn(move || {
                    let mut dest = LocalArray::zeros(owned);
                    for j in 0..STEPS {
                        let got = h.import(ts(j as f64), &mut dest).expect("import");
                        assert_eq!(got, Some(ts(j as f64)));
                        assert_eq!(dest, field(j as f64, owned), "rank {rank} step {j}");
                    }
                })
            })
            .collect();
        for t in importers {
            t.join().expect("importer");
        }
        exp.links.quiesce(Duration::from_secs(5));
        imp.links.quiesce(Duration::from_secs(5));
        let ((pieces, payload_bytes), ctrl_bytes) = tap.join().expect("tap");
        for t in readers {
            t.join().expect("reader");
        }

        let m = &exp.metrics;
        assert_eq!(
            pieces,
            4 * STEPS as u64,
            "one piece per (exporter, importer) rank pair"
        );
        let cells = 4 * STEPS as u64 * 16;
        assert_eq!(m.bytes_transferred.get(), 8 * cells);
        let want = pieces * wire::PAYLOAD_HEAD_LEN as u64 + 8 * cells;
        assert_eq!(payload_bytes, want, "payload bytes on the wire");
        assert_eq!(
            m.net_bytes.get() - ctrl_bytes,
            want,
            "net_bytes minus control"
        );
        assert_eq!(
            payload_bytes,
            m.bytes_transferred.get() + pieces * wire::PAYLOAD_HEAD_LEN as u64
        );
    }

    /// Thread hand-offs and the exporter's syscalls per import, on
    /// `socket_ctrl`'s shape: a 2 → 2-rank pair of row blocks on a 16 × 64
    /// grid (4 KiB pieces), exporters paced like a node's, two UDS links,
    /// 2 000 imports. A link found idle is written by the thread that
    /// sends, so hardly an import wakes a writer thread: 0.000–0.004 per
    /// import in 100 runs under load, 2.000 when every frame goes through
    /// the writer thread. The exporter's mesh reader sends its two pieces
    /// and its answer corked, in one `sendmsg`: 1.00–1.49 syscalls per
    /// import under load (pieces an `export()` sends go uncorked), 3.000
    /// without the cork.
    #[test]
    fn an_import_over_idle_links_wakes_no_writer_and_costs_the_exporter_one_syscall() {
        const STEPS: usize = 2_000;
        const WAKES_PER_IMPORT: f64 = 0.1;
        const EXPORTER_SYSCALLS_PER_IMPORT: f64 = 2.0;
        let grid = Extent2::new(16, 64);
        let rows = Decomposition::row_block(grid, 2).expect("rows");
        let tol = Tolerance::new(0.25).expect("tol");
        let topo = Topology::pair(rows, rows, MatchPolicy::RegL, tol).expect("topo");
        let knobs = Knobs {
            buffer_capacity: Some(NODE_BUFFER_CAPACITY),
            ..Knobs::default()
        };
        let (exp, mut exp_fabric) = node_ctx(topo.clone(), 0, 2, None, knobs.clone());
        let (imp, mut imp_fabric) = node_ctx(topo, 1, 2, None, knobs);
        let pair = || {
            let (a, b) = UnixStream::pair().expect("pair");
            (Conn::Uds(a), Conn::Uds(b))
        };
        let ((exp_tx, imp_rx), (imp_tx, exp_rx)) = (pair(), pair());
        exp.install(1, &exp_tx).expect("exporter writer");
        imp.install(0, &imp_tx).expect("importer writer");
        let readers = [(exp_rx, 1, &exp), (imp_rx, 0, &imp)].map(|(conn, peer, ctx)| {
            let ctx = Arc::clone(ctx);
            std::thread::spawn(move || mesh_reader_loop(FrameReader::new(conn), peer, ctx))
        });
        let field =
            |t: f64, r: Rect| LocalArray::from_fn(r, |row, col| cell_value(t, row, col, 64));
        let mut apps = Vec::new();
        for rank in 0..2 {
            let mut h = exp_fabric.take_export(0, rank, 0);
            let owned = rows.owned(rank);
            apps.push(std::thread::spawn(move || {
                let mut data = LocalArray::zeros(owned);
                for j in 0..STEPS {
                    fill_cells(&mut data, j as f64, 64);
                    h.export(ts(j as f64), &data).expect("export");
                }
            }));
            let mut h = imp_fabric.take_import(1, rank, 0);
            apps.push(std::thread::spawn(move || {
                let mut dest = LocalArray::zeros(owned);
                for j in 0..STEPS {
                    let got = h.import(ts(j as f64), &mut dest).expect("import");
                    assert_eq!(got, Some(ts(j as f64)));
                }
                assert_eq!(dest, field((STEPS - 1) as f64, owned), "rank {rank}");
            }));
        }
        for t in apps {
            t.join().expect("application thread");
        }
        let wakes = |ctx: &MeshCtx, peer: usize| {
            let slot = ctx.links.slots[peer].lock();
            slot.writer.as_ref().expect("writer").wakes()
        };
        let wakes = (wakes(&exp, 1), wakes(&imp, 0));
        exp.links.quiesce(Duration::from_secs(5));
        imp.links.quiesce(Duration::from_secs(5));
        let reads = readers.map(|t| t.join().expect("reader"));
        let per_import = |n: u64| n as f64 / STEPS as f64;
        let syscalls = per_import(exp.metrics.net_syscalls.get());
        println!(
            "per import: writer wake-ups {:.3} + {:.3}, exporter syscalls {syscalls:.3}, \
             mesh reads {:.3} + {:.3}",
            per_import(wakes.0),
            per_import(wakes.1),
            per_import(reads[0]),
            per_import(reads[1]),
        );
        let wakes = per_import(wakes.0 + wakes.1);
        assert!(
            wakes <= WAKES_PER_IMPORT,
            "{wakes:.3} writer wake-ups per import, ceiling {WAKES_PER_IMPORT}"
        );
        assert!(
            syscalls <= EXPORTER_SYSCALLS_PER_IMPORT,
            "{syscalls:.3} exporter syscalls per import, ceiling {EXPORTER_SYSCALLS_PER_IMPORT}"
        );
    }

    /// A re-installed writer resends what the severed one took with it:
    /// program 1's rep sends one `ImportRequest` to program 0 over a writer
    /// that severs before its first frame, so the peer sees only EOF. Once
    /// a fresh writer is installed the peer receives the request exactly
    /// once and acks it, and nothing is pending within 1 s — in a session
    /// with no timer that could resend it.
    #[test]
    fn a_reinstalled_writer_resends_the_control_the_severed_one_lost() {
        let (ctx, _fabric) = mesh_ctx(Some(WalHandle::new(MemWal::new())));
        let (imp_rep, exp_rep) = (Endpoint::Rep { prog: 1 }, Endpoint::Rep { prog: 0 });
        *ctx.sever.lock() = Some((0, 0));
        let (mine, old_peer) = UnixStream::pair().expect("pair");
        ctx.install(0, &Conn::Uds(mine)).expect("first writer");
        let (conn, rank, at) = (ConnectionId(0), Rank(0), ts(1.0));
        let call = CtrlMsg::ImportCall { conn, rank, ts: at };
        ctx.net.deliver_ctrl(imp_rep, None, call);
        let mut reject = || {};
        let mut old = FrameReader::new(Conn::Uds(old_peer));
        assert!(old.next(&mut reject).expect("read").is_none(), "severed");
        assert_eq!(ctx.net.pending_len(), 1, "the request is owed");

        let (mine, peer) = UnixStream::pair().expect("pair");
        let reader = FrameReader::new(Conn::Uds(mine.try_clone().expect("clone")));
        ctx.install(0, &Conn::Uds(mine)).expect("second writer");
        let reading = Arc::clone(&ctx);
        let reader = std::thread::spawn(move || mesh_reader_loop(reader, 0, reading));
        peer.set_read_timeout(Some(Duration::from_secs(1)))
            .expect("timeout");
        let mut peer_tx = peer.try_clone().expect("clone");
        let mut peer = FrameReader::new(Conn::Uds(peer));
        let frame = peer.next(&mut reject).expect("read").expect("the resend");
        assert_eq!(frame.kind, codec::KIND_CTRL);
        let (to, meta, msg) = codec::decode_ctrl_env(&frame.body).expect("ctrl");
        let request = CtrlMsg::ImportRequest {
            conn,
            req: RequestId(0),
            ts: at,
        };
        assert_eq!((to, msg), (exp_rep, request));
        let seq = meta.expect("sequenced").seq;
        let ack = codec::encode_ack_env(imp_rep, exp_rep, seq);
        peer_tx.write_all(&ack).expect("ack");
        let start = Instant::now();
        while ctx.net.pending_len() > 0 && start.elapsed() < Duration::from_secs(1) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            ctx.net.pending_len(),
            0,
            "not acked after {:?}",
            start.elapsed()
        );
        assert_eq!(ctx.metrics.net_reconnects.get(), 1);

        ctx.links.quiesce(Duration::from_secs(1));
        let rest: Vec<u8> = std::iter::from_fn(|| peer.next(&mut reject).expect("read"))
            .map(|f| f.kind)
            .collect();
        assert_eq!(rest, [codec::KIND_MESH_BYE], "the request came once");
        drop(peer_tx);
        drop(peer);
        reader.join().expect("reader");
    }
}
