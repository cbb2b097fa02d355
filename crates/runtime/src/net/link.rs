//! Socket plumbing shared by the orchestrator and the node binary: address
//! parsing, the UDS/TCP listener and stream pair, a writer thread that
//! drains a frame queue into a socket, and a framing reader that feeds a
//! [`FrameDecoder`] and skips checksum-corrupt frames (metering them)
//! while treating structural corruption as fatal.
//!
//! Both backends speak exactly the same bytes — the backend choice is
//! invisible above this module.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

#[cfg(target_endian = "little")]
use couplink_layout::SharedArray;
use couplink_metrics::EngineMetrics;
use couplink_proto::wire::{Frame, FrameDecoder, FrameSlot, WireError};
use parking_lot::Mutex;

/// Which OS transport carries the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketBackend {
    /// Unix-domain stream sockets (loopback-only, path-addressed).
    Uds,
    /// TCP on 127.0.0.1 (the cross-host shape, exercised on loopback).
    Tcp,
}

impl std::str::FromStr for SocketBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "uds" => Ok(SocketBackend::Uds),
            "tcp" => Ok(SocketBackend::Tcp),
            other => Err(format!("unknown socket backend {other:?} (uds|tcp)")),
        }
    }
}

/// A transport-tagged address, printed as `uds:<path>` or `tcp:<ip:port>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A Unix-domain socket path.
    Uds(PathBuf),
    /// A TCP host:port.
    Tcp(String),
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Uds(p) => write!(f, "uds:{}", p.display()),
            Addr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

impl Addr {
    /// Parses the `uds:`/`tcp:` form produced by `Display`.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(path) = s.strip_prefix("uds:") {
            Ok(Addr::Uds(PathBuf::from(path)))
        } else if let Some(hostport) = s.strip_prefix("tcp:") {
            Ok(Addr::Tcp(hostport.to_string()))
        } else {
            Err(format!("address {s:?} has no uds:/tcp: prefix"))
        }
    }
}

/// A bound listener on either backend.
pub enum Listener {
    /// Unix-domain, remembering its path for `addr()`.
    Uds(UnixListener, PathBuf),
    /// TCP on an ephemeral loopback port.
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a listener: a `<name>.sock` under `dir` for UDS, an
    /// ephemeral `127.0.0.1` port for TCP.
    pub fn bind(backend: SocketBackend, dir: &Path, name: &str) -> io::Result<Listener> {
        match backend {
            SocketBackend::Uds => {
                let path = dir.join(format!("{name}.sock"));
                Ok(Listener::Uds(UnixListener::bind(&path)?, path))
            }
            SocketBackend::Tcp => Ok(Listener::Tcp(TcpListener::bind("127.0.0.1:0")?)),
        }
    }

    /// The dialable address of this listener.
    pub fn addr(&self) -> io::Result<Addr> {
        match self {
            Listener::Uds(_, path) => Ok(Addr::Uds(path.clone())),
            Listener::Tcp(l) => Ok(Addr::Tcp(l.local_addr()?.to_string())),
        }
    }

    /// Accepts one connection (blocking, honoring `set_nonblocking`).
    pub fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Uds(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Conn::Uds(s))
            }
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }
        }
    }

    /// Switches the listener between blocking and polling accepts.
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Uds(l, _) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }
}

/// [`Conn::dial`]'s schedule: 25 ms doubling to 1 s, ~9.6 s in all. No
/// sequenced message gives up while a mesh link is being re-dialled: it
/// stays pending, and is resent once the new link is installed.
const DIAL_ATTEMPTS: u32 = 14;
const DIAL_FIRST: Duration = Duration::from_millis(25);
const DIAL_CAP: Duration = Duration::from_secs(1);

/// A connected stream on either backend.
pub enum Conn {
    /// Unix-domain stream.
    Uds(UnixStream),
    /// TCP stream (`TCP_NODELAY` set — control frames are tiny and
    /// latency-critical).
    Tcp(TcpStream),
}

impl Conn {
    /// One dial attempt, no retries.
    fn dial_once(addr: &Addr) -> io::Result<Conn> {
        match addr {
            Addr::Uds(path) => UnixStream::connect(path).map(Conn::Uds),
            Addr::Tcp(hostport) => TcpStream::connect(hostport.as_str()).and_then(|s| {
                s.set_nodelay(true)?;
                Ok(Conn::Tcp(s))
            }),
        }
    }

    /// Dials an address, retrying with exponential backoff: up to
    /// `DIAL_ATTEMPTS` tries, sleeping `DIAL_FIRST` after the first
    /// failure and doubling up to `DIAL_CAP`. A bootstrap dial finds its
    /// listener already bound and connects at once; a mesh re-dial may find
    /// its peer mid-restart, so the schedule stretches into seconds instead
    /// of hammering a dead socket.
    pub fn dial(addr: &Addr) -> io::Result<Conn> {
        let mut delay = DIAL_FIRST;
        for _ in 1..DIAL_ATTEMPTS {
            if let Ok(c) = Conn::dial_once(addr) {
                return Ok(c);
            }
            std::thread::sleep(delay);
            delay = (delay * 2).min(DIAL_CAP);
        }
        Conn::dial_once(addr)
    }

    /// Clones the descriptor so reads and writes can live on different
    /// threads.
    pub fn try_clone(&self) -> io::Result<Conn> {
        match self {
            Conn::Uds(s) => s.try_clone().map(Conn::Uds),
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
        }
    }

    /// Bounds blocking reads (`None` blocks forever).
    pub fn set_read_timeout(&self, d: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.set_read_timeout(d),
            Conn::Tcp(s) => s.set_read_timeout(d),
        }
    }

    /// Shuts down both directions (best effort).
    pub fn shutdown(&self) {
        let _ = match self {
            Conn::Uds(s) => s.shutdown(std::net::Shutdown::Both),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    /// Half-closes the write side (best effort): bytes already written are
    /// flushed, then the peer reads EOF. Reads on this connection keep
    /// working — this is the link-sever fault shape, not a full teardown.
    pub fn shutdown_write(&self) {
        let _ = match self {
            Conn::Uds(s) => s.shutdown(std::net::Shutdown::Write),
            Conn::Tcp(s) => s.shutdown(std::net::Shutdown::Write),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => s.write_vectored(bufs),
            Conn::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Uds(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Upper bound on shelved buffers per size class — enough to cover a full
/// writer burst without letting a transient payload spike pin memory.
const POOL_PER_CLASS: usize = 32;
/// One shelf per power-of-two capacity class, `2^0 ..= 2^32`. Anything
/// larger is simply not shelved (`MAX_BODY` caps real frames far below).
const POOL_CLASSES: usize = 33;

/// A size-classed frame-buffer pool: take a buffer sized for the frame
/// about to be encoded, put the allocation back once its bytes are on the
/// wire.
///
/// Nothing in the runtime uses it any more: a payload piece goes to the
/// writer by reference ([`TxFrame::Piece`]) and control frames are a few
/// dozen bytes. It stays, with its `net_pool_hits` / `net_pool_misses`
/// counters, only because the benchmark package's layer microbenchmarks
/// name it.
///
/// Classes are powers of two. `take(cap)` pops from `ceil(log2(cap))` and
/// on a miss allocates the whole class (`1 << class` bytes), so the buffer
/// `put` later shelves under `floor(log2(capacity))` lands exactly where
/// the next same-sized `take` looks — and a recycled buffer is always
/// large enough for the request it serves.
pub struct BufPool {
    shelves: Mutex<Vec<Vec<Vec<u8>>>>,
    metrics: Option<Arc<EngineMetrics>>,
}

impl BufPool {
    /// An empty pool; `metrics`, when present, meters
    /// `net_pool_hits`/`net_pool_misses` on every `take`.
    pub fn new(metrics: Option<Arc<EngineMetrics>>) -> Arc<BufPool> {
        Arc::new(BufPool {
            shelves: Mutex::new(vec![Vec::new(); POOL_CLASSES]),
            metrics,
        })
    }

    /// An empty buffer with capacity at least `cap`: recycled when the
    /// class has one shelved, freshly allocated otherwise.
    pub fn take(&self, cap: usize) -> Vec<u8> {
        let class = cap.max(1).next_power_of_two().trailing_zeros() as usize;
        let hit = if class < POOL_CLASSES {
            self.shelves.lock()[class].pop()
        } else {
            None
        };
        if let Some(m) = &self.metrics {
            if hit.is_some() {
                m.net_pool_hits.inc();
            } else {
                m.net_pool_misses.inc();
            }
        }
        hit.unwrap_or_else(|| {
            // Oversize requests (no class) are never shelved; size them exactly.
            Vec::with_capacity(if class < POOL_CLASSES {
                1 << class
            } else {
                cap
            })
        })
    }

    /// Shelves an allocation for reuse (dropped when its class is full).
    pub fn put(&self, mut buf: Vec<u8>) {
        let cap = buf.capacity();
        if cap == 0 {
            return;
        }
        let class = (usize::BITS - 1 - cap.leading_zeros()) as usize;
        if class >= POOL_CLASSES {
            return;
        }
        let mut shelves = self.shelves.lock();
        if shelves[class].len() < POOL_PER_CLASS {
            buf.clear();
            shelves[class].push(buf);
        }
    }
}

/// The frame kind byte of an already-encoded frame (header offset 3), or
/// `None` if the buffer is impossibly short. Reconnect logic uses this to
/// decide which salvaged frames are worth replaying on the fresh link.
pub fn frame_kind(frame: &[u8]) -> Option<u8> {
    frame.get(3).copied()
}

/// One frame queued on a [`LinkWriter`]: encoded bytes, or a payload piece
/// sent by reference.
#[derive(Debug, Clone)]
pub enum TxFrame {
    /// A complete encoded frame.
    Frame(Vec<u8>),
    /// A payload frame in two parts: its head
    /// ([`encode_payload_head`](couplink_proto::wire::encode_payload_head))
    /// and the buffered array whose bytes follow it on the wire, read
    /// straight out of the exporter's shared buffer by `writev`.
    #[cfg(target_endian = "little")]
    Piece {
        /// Frame header and payload prefix.
        head: Vec<u8>,
        /// The values, sent as their in-memory bytes.
        data: SharedArray,
    },
}

impl TxFrame {
    /// The frame's bytes in wire order: the head (all of a whole frame),
    /// then the shared values (empty for a whole frame).
    pub fn parts(&self) -> [&[u8]; 2] {
        match self {
            TxFrame::Frame(f) => [f, &[]],
            #[cfg(target_endian = "little")]
            TxFrame::Piece { head, data } => {
                [head, couplink_proto::wire::f64_bytes(data.as_slice())]
            }
        }
    }

    /// The frame's length on the wire.
    fn len(&self) -> usize {
        self.parts().iter().map(|p| p.len()).sum()
    }

    /// The frame kind byte ([`frame_kind`] of the head).
    pub fn kind(&self) -> Option<u8> {
        frame_kind(self.parts()[0])
    }
}

/// The sending half of a link: encoded frames are queued on a channel and
/// drained by a dedicated writer thread, so fabric tasks never block on a
/// full socket buffer.
///
/// A write error stops the writer but does not lose its queue: the failed
/// frame and everything still enqueued are moved into a *salvage* buffer,
/// `is_dead` flips, and later sends land in the salvage directly. The
/// reconnect path calls [`LinkWriter::retire`] to collect the salvage and
/// replay what matters on the replacement writer; a run without reconnect
/// support just drops the handle (the peer's reader owns failure
/// reporting, exactly as before).
pub struct LinkWriter {
    tx: mpsc::Sender<TxFrame>,
    dead: Arc<AtomicBool>,
    salvage: Arc<Mutex<Vec<TxFrame>>>,
    /// Frames enqueued but not yet written or salvaged — zero means every
    /// accepted frame has reached the socket (and been metered).
    depth: Arc<AtomicU64>,
    /// A control clone of the socket, so teardown can half-close the link
    /// without joining a (possibly blocked) writer thread.
    ctl: Option<Conn>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Writer burst caps: one `write_vectored` covers at most this many frames
/// / bytes. The caps bound syscall assembly cost and the latency of the
/// frame at the back of a burst; a queue that runs dry flushes immediately
/// regardless, so low-load latency is unchanged.
const BURST_FRAMES: usize = 64;
const BURST_BYTES: usize = 1 << 20;

/// Writes `frames` with as few syscalls as possible: one `write_vectored`
/// covering the remaining burst — a by-reference piece is two iovecs, its
/// head and its shared values — re-issued after partial writes. Meters
/// `net_syscalls` per syscall and `net_frames`/`net_bytes` per frame as it
/// is fully written. On failure returns the count of frames fully written
/// — the next frame may have been *partially* written, which is fine: the
/// caller kills the link and salvages from that frame on.
fn write_batch(
    out: &mut impl Write,
    frames: &[TxFrame],
    metrics: Option<&EngineMetrics>,
) -> Result<(), usize> {
    let mut idx = 0;
    // Bytes of `frames[idx]` already written.
    let mut off = 0;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2 * frames.len());
    while idx < frames.len() {
        slices.clear();
        let mut skip = off;
        for part in frames[idx..].iter().flat_map(TxFrame::parts) {
            let cut = skip.min(part.len());
            skip -= cut;
            if cut < part.len() {
                slices.push(IoSlice::new(&part[cut..]));
            }
        }
        let n = match out.write_vectored(&slices) {
            Ok(0) => return Err(idx),
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(idx),
        };
        if let Some(m) = metrics {
            m.net_syscalls.inc();
        }
        let mut left = n;
        while left > 0 {
            let rem = frames[idx].len() - off;
            if left >= rem {
                left -= rem;
                off = 0;
                idx += 1;
                if let Some(m) = metrics {
                    m.net_frames.inc();
                    m.net_bytes.add(frames[idx - 1].len() as u64);
                }
            } else {
                off += left;
                left = 0;
            }
        }
    }
    if let Some(m) = metrics {
        if frames.len() > 1 {
            m.net_writev_frames.add(frames.len() as u64);
        }
    }
    Ok(())
}

impl LinkWriter {
    /// Spawns the writer thread over (a clone of) `conn`.
    pub fn spawn(conn: Conn, label: String) -> LinkWriter {
        LinkWriter::spawn_with(conn, label, None, None)
    }

    /// Full-control spawn: an optional sever fault (after `sever_after`
    /// frames have been written the writer half-closes the socket and
    /// dies, salvaging its remaining queue — the deliberate mid-run link
    /// sever the reconnect tests inject) and optional tx metering
    /// (`net_syscalls`/`net_writev_frames`/`net_frames`/`net_bytes`,
    /// counted when bytes actually reach the socket — not at enqueue).
    pub fn spawn_with(
        mut conn: Conn,
        label: String,
        sever_after: Option<u64>,
        metrics: Option<Arc<EngineMetrics>>,
    ) -> LinkWriter {
        let ctl = conn.try_clone().ok();
        let (tx, rx) = mpsc::channel::<TxFrame>();
        let dead = Arc::new(AtomicBool::new(false));
        let salvage = Arc::new(Mutex::new(Vec::new()));
        let depth = Arc::new(AtomicU64::new(0));
        let (t_dead, t_salvage, t_depth) =
            (Arc::clone(&dead), Arc::clone(&salvage), Arc::clone(&depth));
        let thread = std::thread::Builder::new()
            .name(format!("couplink-net-wr-{label}"))
            .spawn(move || {
                let mut written = 0u64;
                let mut batch: Vec<TxFrame> = Vec::new();
                while let Ok(first) = rx.recv() {
                    // Burst-drain: everything already queued goes into one
                    // vectored write. An empty queue flushes immediately.
                    let mut bytes = first.len();
                    batch.push(first);
                    while batch.len() < BURST_FRAMES && bytes < BURST_BYTES {
                        match rx.try_recv() {
                            Ok(f) => {
                                bytes += f.len();
                                batch.push(f);
                            }
                            Err(_) => break,
                        }
                    }
                    // Sever fault: exactly `sever_after` frames reach the
                    // wire, even when the limit lands mid-burst.
                    let allowed = match sever_after {
                        Some(s) => (s.saturating_sub(written)).min(batch.len() as u64) as usize,
                        None => batch.len(),
                    };
                    let severed = allowed < batch.len();
                    let (done, failed) =
                        match write_batch(&mut conn, &batch[..allowed], metrics.as_deref()) {
                            Ok(()) => (allowed, false),
                            Err(done) => (done, true),
                        };
                    written += done as u64;
                    t_depth.fetch_sub(done as u64, AtomicOrdering::Release);
                    let rest = batch.split_off(done);
                    batch.clear();
                    if failed || severed {
                        if severed && !failed {
                            // FIN flushes everything already written; the
                            // unsent frames go to the salvage like a
                            // failure.
                            conn.shutdown_write();
                        }
                        t_depth.fetch_sub(rest.len() as u64, AtomicOrdering::Release);
                        t_salvage.lock().extend(rest);
                        t_dead.store(true, AtomicOrdering::Release);
                        // Keep salvaging until every sender hangs up so
                        // nothing queued behind the failure is lost.
                        while let Ok(f) = rx.recv() {
                            t_depth.fetch_sub(1, AtomicOrdering::Release);
                            t_salvage.lock().push(f);
                        }
                        return;
                    }
                }
                let _ = conn.flush();
            })
            .expect("spawning writer thread");
        LinkWriter {
            tx,
            dead,
            salvage,
            depth,
            ctl,
            thread: Some(thread),
        }
    }

    /// Queues one already-encoded frame. Returns `false` if the writer is
    /// dead — the frame went to the salvage, not the socket.
    pub fn send(&self, frame: Vec<u8>) -> bool {
        self.push(TxFrame::Frame(frame))
    }

    /// Queues one frame, whole or by reference; [`LinkWriter::send`]'s
    /// contract.
    pub fn push(&self, frame: TxFrame) -> bool {
        if self.dead.load(AtomicOrdering::Acquire) {
            self.salvage.lock().push(frame);
            return false;
        }
        self.depth.fetch_add(1, AtomicOrdering::Release);
        if self.tx.send(frame).is_err() {
            self.depth.fetch_sub(1, AtomicOrdering::Release);
            return false;
        }
        true
    }

    /// Whether the writer thread has died on a write error or sever.
    pub fn is_dead(&self) -> bool {
        self.dead.load(AtomicOrdering::Acquire)
    }

    /// Whether every accepted frame has been written (and tx-metered) or
    /// salvaged — the teardown quiesce polls this before half-closing.
    pub fn idle(&self) -> bool {
        self.depth.load(AtomicOrdering::Acquire) == 0
    }

    /// Half-closes the link's write direction from outside the writer
    /// thread (which may be blocked on a peer that stopped reading): the
    /// peer observes EOF after everything already written.
    pub fn half_close(&self) {
        if let Some(c) = &self.ctl {
            c.shutdown_write();
        }
    }

    /// Ends the link in an orderly way: `bye` goes straight to the socket
    /// ahead of the half-close — unmetered, like the hello that opened the
    /// link — so the peer can tell this EOF from a drop. A writer that is
    /// dead or still holds queued frames (a peer that stopped reading) may
    /// be mid-frame and only half-closes.
    pub(crate) fn close_orderly(&self, bye: &[u8]) {
        if let Some(c) = &self.ctl {
            if self.idle() && !self.is_dead() {
                let _ = c.try_clone().and_then(|mut w| w.write_all(bye));
            }
        }
        self.half_close();
    }

    /// Tears the writer down and returns every unwritten frame in send
    /// order: hangs up the queue, joins the thread (so the salvage is
    /// complete), and drains the salvage buffer.
    pub fn retire(mut self) -> Vec<TxFrame> {
        drop(self.tx);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        std::mem::take(&mut *self.salvage.lock())
    }
}

/// A transport-layer failure above the frame codec.
#[derive(Debug)]
pub enum NetError {
    /// Socket I/O failed.
    Io(io::Error),
    /// The byte stream is structurally corrupt (bad magic/version/length)
    /// — the framing is unrecoverable, the link must be dropped.
    Wire(WireError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket i/o: {e}"),
            NetError::Wire(e) => write!(f, "wire framing: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

/// How much a frame reader asks the socket for per `read` syscall.
const READ_CHUNK: usize = 64 * 1024;

/// The receiving half of a link: reads socket bytes straight into a
/// [`FrameDecoder`] (no intermediate stack buffer) and yields frames as
/// zero-copy slots over the decoder's compacting buffer.
pub struct FrameReader {
    conn: Conn,
    dec: FrameDecoder,
}

impl FrameReader {
    /// Wraps a connected stream.
    pub fn new(conn: Conn) -> FrameReader {
        FrameReader {
            conn,
            dec: FrameDecoder::new(),
        }
    }

    /// The underlying connection (for shutdown/timeout control).
    pub fn conn(&self) -> &Conn {
        &self.conn
    }

    /// Peak bytes the receive buffer ever held (the `net_rx_buf` gauge).
    pub fn buffered_hwm(&self) -> usize {
        self.dec.buffered_hwm()
    }

    /// Returns the next frame as a [`FrameSlot`] over the internal buffer
    /// (resolve it with [`FrameReader::body`] — no per-frame copy), or
    /// `Ok(None)` on a clean EOF. A frame whose checksum fails is
    /// *skipped* — `reject` is called once per skip (the caller meters
    /// `net_codec_rejects`) and reading continues, because a corrupt body
    /// leaves the stream framing intact. Structural errors (bad magic, bad
    /// version, oversized length) poison the decoder and surface as
    /// [`NetError::Wire`].
    pub fn next_slot(&mut self, reject: &mut dyn FnMut()) -> Result<Option<FrameSlot>, NetError> {
        loop {
            match self.dec.poll_frame() {
                Ok(Some(slot)) => return Ok(Some(slot)),
                Ok(None) => {}
                Err(WireError::BadChecksum) => {
                    reject();
                    continue;
                }
                Err(e) => return Err(NetError::Wire(e)),
            }
            match self.dec.read_from(&mut self.conn, READ_CHUNK) {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// The body bytes of a slot returned by [`FrameReader::next_slot`].
    pub fn body(&self, slot: &FrameSlot) -> &[u8] {
        self.dec.body(slot)
    }

    /// [`FrameReader::next_slot`] materialized into an owned [`Frame`] —
    /// the convenience API for bootstrap and replay paths.
    pub fn next(&mut self, reject: &mut dyn FnMut()) -> Result<Option<Frame>, NetError> {
        match self.next_slot(reject)? {
            Some(slot) => Ok(Some(Frame {
                kind: slot.kind,
                body: self.dec.body(&slot).to_vec(),
            })),
            None => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_proto::wire::{self as wire};

    #[test]
    fn reader_skips_checksum_corruption_and_keeps_framing() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut w = a;
        let good1 = wire::encode_frame(wire::KIND_RUNTIME_BASE, b"first");
        let mut corrupt = wire::encode_frame(wire::KIND_RUNTIME_BASE, b"second");
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x40; // flip a body bit: checksum must catch it
        let good2 = wire::encode_frame(wire::KIND_RUNTIME_BASE, b"third");
        w.write_all(&good1).unwrap();
        w.write_all(&corrupt).unwrap();
        w.write_all(&good2).unwrap();
        drop(w);

        let mut rejects = 0usize;
        let mut r = FrameReader::new(Conn::Uds(b));
        let mut reject = || rejects += 1;
        let f1 = r.next(&mut reject).unwrap().unwrap();
        assert_eq!(f1.body, b"first");
        let f2 = r.next(&mut reject).unwrap().unwrap();
        assert_eq!(f2.body, b"third", "corrupt frame skipped, stream resynced");
        assert!(r.next(&mut reject).unwrap().is_none(), "clean EOF");
        assert_eq!(rejects, 1, "exactly one metered codec reject");
    }

    #[test]
    fn reader_reports_structural_corruption_as_fatal() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut w = a;
        w.write_all(b"\xff\xff garbage that is not a frame header")
            .unwrap();
        drop(w);
        let mut r = FrameReader::new(Conn::Uds(b));
        let mut reject = || {};
        match r.next(&mut reject) {
            Err(NetError::Wire(WireError::BadMagic { .. })) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn severing_writer_flushes_then_salvages() {
        let (a, b) = UnixStream::pair().unwrap();
        let w = LinkWriter::spawn_with(Conn::Uds(a), "sever-test".into(), Some(2), None);
        let f = |body: &[u8]| wire::encode_frame(wire::KIND_RUNTIME_BASE, body);
        w.send(f(b"one"));
        w.send(f(b"two"));
        w.send(f(b"three")); // the third write triggers the sever
        let mut r = FrameReader::new(Conn::Uds(b));
        let mut reject = || {};
        assert_eq!(r.next(&mut reject).unwrap().unwrap().body, b"one");
        assert_eq!(r.next(&mut reject).unwrap().unwrap().body, b"two");
        assert!(
            r.next(&mut reject).unwrap().is_none(),
            "half-close: pre-sever frames flushed, then EOF"
        );
        let salvage = w.retire();
        assert_eq!(salvage.len(), 1, "the unsent frame was salvaged");
        assert_eq!(salvage[0].kind(), Some(wire::KIND_RUNTIME_BASE));
    }

    #[test]
    fn dead_writer_sends_land_in_salvage() {
        let (a, b) = UnixStream::pair().unwrap();
        let w = LinkWriter::spawn_with(Conn::Uds(a), "dead-test".into(), Some(0), None);
        let f = wire::encode_frame(wire::KIND_RUNTIME_BASE, b"x");
        w.send(f.clone()); // triggers the immediate sever
        let mut r = FrameReader::new(Conn::Uds(b));
        let mut reject = || {};
        assert!(r.next(&mut reject).unwrap().is_none());
        // Wait for the dead flag, then confirm post-death sends salvage.
        for _ in 0..200 {
            if w.is_dead() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(w.is_dead());
        assert!(!w.send(f.clone()), "send on a dead writer reports failure");
        assert_eq!(w.retire().len(), 2);
    }

    /// Carver et al.'s coalescing, counted: frames queued while the writer
    /// is blocked leave in one vectored burst. A 4 MiB frame (past the
    /// socket buffers and `BURST_BYTES`, so it goes alone) blocks the
    /// writer until the reader starts; the 32 small frames queued behind it
    /// meanwhile go out together, so `net_writev_frames` reads 32. A
    /// per-frame writer reads 0.
    #[test]
    fn frames_queued_behind_a_blocked_write_leave_in_one_burst() {
        const SMALL: usize = 32;
        let (a, b) = UnixStream::pair().unwrap();
        let metrics = Arc::new(EngineMetrics::new());
        let w = LinkWriter::spawn_with(
            Conn::Uds(a),
            "burst-test".into(),
            None,
            Some(metrics.clone()),
        );
        w.send(wire::encode_frame(
            wire::KIND_RUNTIME_BASE,
            &vec![7; 4 << 20],
        ));
        for i in 0..SMALL {
            w.send(wire::encode_frame(
                wire::KIND_RUNTIME_BASE,
                &[i as u8; 1024],
            ));
        }
        let mut r = FrameReader::new(Conn::Uds(b));
        let mut reject = || {};
        assert_eq!(r.next(&mut reject).unwrap().unwrap().body.len(), 4 << 20);
        for i in 0..SMALL {
            assert_eq!(r.next(&mut reject).unwrap().unwrap().body, [i as u8; 1024]);
        }
        assert!(w.retire().is_empty());
        assert_eq!(metrics.net_frames.get(), SMALL as u64 + 1);
        assert_eq!(metrics.net_writev_frames.get(), SMALL as u64);
    }

    /// A sink that takes at most `k` bytes per call, across iovecs.
    struct Trickle {
        k: usize,
        got: Vec<u8>,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let before = self.got.len();
            for b in bufs {
                let room = self.k - (self.got.len() - before);
                self.got.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.got.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Partial writes resume exactly where they stopped, whether the cut
    /// lands inside a head, on the head/values boundary or inside the
    /// shared values: for every per-call limit from one byte to past the
    /// head, a control frame, a by-reference piece and another control
    /// frame come out as their encoded bytes, each metered once.
    #[test]
    fn partial_writes_resume_inside_and_between_the_parts_of_a_piece() {
        use couplink_layout::{LocalArray, Rect};
        use couplink_proto::{ConnectionId, Rank, RequestId};
        let owned = Rect::new(0, 0, 3, 5);
        let array = SharedArray::copy_from(&LocalArray::from_fn(owned, |r, c| (r * 5 + c) as f64));
        let r = wire::WireRect {
            row0: 0,
            col0: 0,
            rows: 3,
            cols: 5,
        };
        let ids = (ConnectionId(1), Rank(0), RequestId(4));
        let head =
            wire::encode_payload_head(Vec::new(), ids.0, ids.1, ids.2, r, r, array.as_slice());
        let whole = wire::encode_payload(ids.0, ids.1, ids.2, r, r, array.as_slice());
        let ctrl = |b: &[u8]| wire::encode_frame(wire::KIND_RUNTIME_BASE, b);
        let frames = [
            TxFrame::Frame(ctrl(b"before")),
            TxFrame::Piece { head, data: array },
            TxFrame::Frame(ctrl(b"after")),
        ];
        let want = [ctrl(b"before"), whole, ctrl(b"after")].concat();
        for k in 1..=wire::PAYLOAD_HEAD_LEN + 16 {
            let metrics = EngineMetrics::new();
            let mut sink = Trickle { k, got: Vec::new() };
            assert_eq!(write_batch(&mut sink, &frames, Some(&metrics)), Ok(()));
            assert_eq!(sink.got, want, "{k} bytes per call");
            assert_eq!(metrics.net_frames.get(), 3);
            assert_eq!(metrics.net_bytes.get(), want.len() as u64);
            assert_eq!(metrics.net_syscalls.get(), want.len().div_ceil(k) as u64);
        }
    }

    #[test]
    fn addr_roundtrip() {
        for text in ["uds:/tmp/x/boot.sock", "tcp:127.0.0.1:4510"] {
            assert_eq!(Addr::parse(text).unwrap().to_string(), text);
        }
        assert!(Addr::parse("ipc:nope").is_err());
    }
}
