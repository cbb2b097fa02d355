//! Socket plumbing shared by the orchestrator and the node binary: address
//! parsing, the UDS/TCP listener and stream pair, a link writer whose
//! frames the sending thread writes when the link is idle and a writer
//! thread drains when it is not, and a framing reader that feeds a
//! [`FrameDecoder`] and skips checksum-corrupt frames (metering them)
//! while treating structural corruption as fatal — or hands a frame over
//! with its checksum still to check, for a mesh reader that checks a
//! payload inside the copy that decodes it.
//!
//! Both backends speak exactly the same bytes — the backend choice is
//! invisible above this module.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Duration;

#[cfg(target_endian = "little")]
use couplink_layout::SharedArray;
use couplink_metrics::EngineMetrics;
use couplink_proto::wire::{Frame, FrameDecoder, FrameSlot, UncheckedSlot, WireError};
use parking_lot::{Condvar, Mutex};

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
        (&*self).write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        (&*self).write_vectored(bufs)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&*self).flush()
    }
}

/// Writes through a shared reference, as `&UnixStream` and `&TcpStream`
/// do: a link's writers share one descriptor.
impl Write for &Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => (&*s).write(buf),
            Conn::Tcp(s) => (&*s).write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Uds(s) => (&*s).write_vectored(bufs),
            Conn::Tcp(s) => (&*s).write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
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

/// The sending half of a link: one queue of frames under a mutex, written
/// by whichever thread finds the socket free, and a writer thread kept for
/// the backlog.
///
/// A sender that finds the link idle — nobody writing, nothing queued —
/// and a frame of at most 64 KiB writes it itself with one `sendmsg` that
/// never blocks. What the socket does not take stays queued
/// with its offset, and the writer thread, woken only if it is parked,
/// finishes it with blocking `writev` bursts; every large frame and every
/// frame that arrives behind a backlog goes the same way. A mesh reader's
/// dispatch runs corked: frames for a link it sends on queue behind its
/// own and leave in one `sendmsg` when the dispatch returns. Each link has
/// one queue, so every frame leaves in push order, whoever writes it.
///
/// A write error stops the writer but does not lose the queue: the failed
/// frame and everything still queued move into a *salvage* buffer,
/// `is_dead` flips, and later sends land in the salvage directly. The
/// reconnect path calls [`LinkWriter::retire`] to collect the salvage and
/// replay what matters on the replacement writer; a run without reconnect
/// support just drops the handle (the peer's reader owns failure
/// reporting). Dropping the handle lets the writer thread finish the queue
/// and exit.
pub struct LinkWriter {
    link: Arc<Link>,
    thread: Option<std::thread::JoinHandle<()>>,
}

/// Who may write to a link's socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// Nobody: the queue is empty and the next sender writes itself.
    Idle,
    /// The writer thread, draining a backlog with blocking writes.
    Thread,
    /// A mesh reader's dispatch ([`corked`]), which writes the queue when
    /// it returns.
    Cork(ThreadId),
}

/// One link's send side, shared by its [`LinkWriter`], its writer thread
/// and any reader that corks it.
struct Link {
    state: Mutex<TxState>,
    /// Signalled when the writer thread has work: a backlog, or the
    /// handle's end.
    work: Condvar,
    /// The socket every writer writes to. It stays in blocking mode: only
    /// a direct write asks not to block, per call.
    conn: Conn,
    metrics: Option<Arc<EngineMetrics>>,
}

struct TxState {
    queue: VecDeque<TxFrame>,
    /// Bytes of `queue[0]` already on the wire.
    off: usize,
    owner: Owner,
    /// The writer thread waits on `work`.
    parked: bool,
    /// The handle is gone: the writer thread finishes the queue and exits.
    closing: bool,
    /// A write failed or the link was severed: frames go to `salvage`.
    dead: bool,
    salvage: Vec<TxFrame>,
    /// Frames the sever fault still lets onto the wire (`None`: no fault).
    sever_left: Option<u64>,
    /// Writer-thread wake-ups a send paid for.
    wakes: u64,
}

/// Writer burst caps: one `writev` covers at most this many frames / bytes.
/// The caps bound syscall assembly cost and the latency of the frame at
/// the back of a burst; a queue that runs dry flushes immediately
/// regardless, so low-load latency is unchanged.
const BURST_FRAMES: usize = 64;
const BURST_BYTES: usize = 1 << 20;

/// The most a sender writes itself, in one `sendmsg`: the fabric's
/// `LIGHT_PIECE`, the largest piece a mesh reader's dispatch sends inline.
/// A larger frame goes to the writer thread, which may block on it.
const DIRECT_BYTES: usize = 64 << 10;

/// Writes `frames`, the first from byte `off`, with as few syscalls as
/// possible: one `write_vectored` covering the remaining burst — a
/// by-reference piece is two iovecs, its head and its shared values —
/// re-issued after partial writes. Meters `net_syscalls` per syscall and
/// `net_frames`/`net_bytes` per frame as it is fully written. On failure
/// returns the count of frames fully written — the next frame may have
/// been *partially* written, which is fine: the caller kills the link and
/// salvages from that frame on.
fn write_batch(
    out: &mut impl Write,
    frames: &[TxFrame],
    mut off: usize,
    metrics: Option<&EngineMetrics>,
) -> Result<(), usize> {
    let mut idx = 0;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(2 * frames.len());
    while idx < frames.len() {
        iovecs(&frames[idx..], off, &mut slices);
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
            if left < rem {
                off += left;
                break;
            }
            left -= rem;
            off = 0;
            meter_frame(metrics, &frames[idx]);
            idx += 1;
        }
    }
    if let Some(m) = metrics {
        if frames.len() > 1 {
            m.net_writev_frames.add(frames.len() as u64);
        }
    }
    Ok(())
}

/// Fills `out` with the iovecs of `frames`, skipping the first `off` bytes.
fn iovecs<'a>(
    frames: impl IntoIterator<Item = &'a TxFrame>,
    off: usize,
    out: &mut Vec<IoSlice<'a>>,
) {
    out.clear();
    let mut skip = off;
    for part in frames.into_iter().flat_map(TxFrame::parts) {
        let cut = skip.min(part.len());
        skip -= cut;
        if cut < part.len() {
            out.push(IoSlice::new(&part[cut..]));
        }
    }
}

/// Counts one frame fully written.
fn meter_frame(metrics: Option<&EngineMetrics>, frame: &TxFrame) {
    if let Some(m) = metrics {
        m.net_frames.inc();
        m.net_bytes.add(frame.len() as u64);
    }
}

/// One `sendmsg(2)` of `bufs` that does not block (`MSG_DONTWAIT`) and
/// raises no `SIGPIPE` (`MSG_NOSIGNAL`). Setting `O_NONBLOCK` instead would
/// change the open file description that the reader's clone shares, and
/// with it every blocking `read` and `writev` on the link; the flag makes
/// just this call non-blocking. Works on UDS and TCP alike.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn send_nowait(conn: &Conn, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
    use std::os::fd::AsRawFd;
    /// `struct msghdr` of 64-bit Linux: the name and control fields are
    /// unused; `IoSlice` is ABI-compatible with `struct iovec`.
    #[repr(C)]
    struct MsgHdr {
        name: *mut u8,
        namelen: u32,
        iov: *const IoSlice<'static>,
        iovlen: usize,
        control: *mut u8,
        controllen: usize,
        flags: i32,
    }
    extern "C" {
        fn sendmsg(fd: i32, msg: *const MsgHdr, flags: i32) -> isize;
    }
    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_NOSIGNAL: i32 = 0x4000;
    let fd = match conn {
        Conn::Uds(s) => s.as_raw_fd(),
        Conn::Tcp(s) => s.as_raw_fd(),
    };
    let msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: bufs.as_ptr().cast(),
        iovlen: bufs.len(),
        control: std::ptr::null_mut(),
        controllen: 0,
        flags: 0,
    };
    // SAFETY: `fd` is the open socket `conn` owns for the whole call; `msg`
    // is a `struct msghdr` of this target's layout (checked by the cfg
    // above) with no name and no control data, whose `iovlen` iovecs are
    // `bufs`, live and readable for the call; `sendmsg` only reads them.
    let n = unsafe { sendmsg(fd, &msg, MSG_DONTWAIT | MSG_NOSIGNAL) };
    if n < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(n as usize)
    }
}

/// Where `sendmsg` is not declared, the socket takes nothing from a
/// sender, and the writer thread writes every frame.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn send_nowait(_: &Conn, _: &[IoSlice<'_>]) -> io::Result<usize> {
    Err(io::ErrorKind::WouldBlock.into())
}

thread_local! {
    /// The links this thread holds corked, and whether it is running
    /// [`corked`] at all.
    static CORKED: RefCell<(bool, Vec<Arc<Link>>)> = const { RefCell::new((false, Vec::new())) };
}

/// Runs `f` with every idle link it sends on corked: its frames, and any
/// other thread's frames for that link, queue until `f` returns, and then
/// leave in one non-blocking `sendmsg` per link. A mesh reader's dispatch
/// runs this way, so an exporter's pieces and its answer leave together.
pub(crate) fn corked<R>(f: impl FnOnce() -> R) -> R {
    /// Flushes on the way out, a panic included, so no link stays corked.
    struct Uncork;
    impl Drop for Uncork {
        fn drop(&mut self) {
            CORKED.with(|c| {
                let mut c = c.borrow_mut();
                c.0 = false;
                for link in c.1.drain(..) {
                    link.uncork();
                }
            });
        }
    }
    CORKED.with(|c| c.borrow_mut().0 = true);
    let _uncork = Uncork;
    f()
}

impl Link {
    /// Writes from the head of the queue with one `send` (production:
    /// [`send_nowait`]): at most [`DIRECT_BYTES`], [`BURST_FRAMES`] frames
    /// and what the sever fault still allows. Whatever the socket does not
    /// take stays queued, with its offset, for the writer thread — so does
    /// a failed write, which the thread's blocking write then meets and
    /// salvages.
    fn write_now(
        &self,
        st: &mut TxState,
        send: impl Fn(&Conn, &[IoSlice<'_>]) -> io::Result<usize>,
    ) {
        let cap = st
            .sever_left
            .map_or(BURST_FRAMES, |s| s.min(BURST_FRAMES as u64) as usize);
        let (mut frames, mut bytes) = (0, 0);
        for f in st.queue.iter().take(cap) {
            bytes += f.len();
            if bytes - st.off > DIRECT_BYTES {
                break;
            }
            frames += 1;
        }
        if frames > 0 {
            let sent = {
                let mut slices = Vec::with_capacity(2 * frames);
                iovecs(st.queue.iter().take(frames), st.off, &mut slices);
                loop {
                    match send(&self.conn, &slices) {
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        r => break r.unwrap_or(0),
                    }
                }
            };
            let metrics = self.metrics.as_deref();
            if sent > 0 {
                if let Some(m) = metrics {
                    m.net_syscalls.inc();
                }
            }
            let (mut left, mut done) = (sent, 0u64);
            while let Some(f) = st.queue.front() {
                let rem = f.len() - st.off;
                if left < rem {
                    st.off += left;
                    break;
                }
                left -= rem;
                st.off = 0;
                meter_frame(metrics, f);
                st.queue.pop_front();
                done += 1;
            }
            if let Some(s) = &mut st.sever_left {
                *s -= done;
            }
            if let Some(m) = metrics {
                if frames > 1 {
                    m.net_writev_frames.add(done);
                }
            }
        }
        if st.queue.is_empty() {
            st.owner = Owner::Idle;
        } else {
            st.owner = Owner::Thread;
            if st.parked {
                st.parked = false;
                st.wakes += 1;
                self.work.notify_one();
            }
        }
    }

    /// Ends this thread's cork: writes what queued behind it. A cork the
    /// writer thread took over at a retire is not this thread's any more.
    fn uncork(&self) {
        let mut st = self.state.lock();
        if st.owner == Owner::Cork(std::thread::current().id()) {
            self.write_now(&mut st, send_nowait);
        }
    }

    /// The writer thread: parks until the link is handed to it, then
    /// drains the queue in blocking bursts until it runs dry; once the
    /// handle is gone, it finishes the queue — taking it over from a
    /// reader's cork, so a retire never waits on a reader — and exits. A
    /// failed write or the sever fault kills the link: the unsent frames
    /// move to the salvage, in send order.
    fn drain(&self) {
        let metrics = self.metrics.as_deref();
        let mut batch: Vec<TxFrame> = Vec::new();
        let mut st = self.state.lock();
        loop {
            if st.owner != Owner::Thread {
                if !st.closing {
                    st.parked = true;
                    self.work.wait(&mut st);
                    continue;
                }
                if st.queue.is_empty() {
                    return;
                }
                st.owner = Owner::Thread;
            }
            if st.queue.is_empty() {
                st.owner = Owner::Idle;
                continue;
            }
            let off = std::mem::take(&mut st.off);
            let mut bytes = 0;
            while batch.len() < BURST_FRAMES && bytes < BURST_BYTES {
                let Some(f) = st.queue.pop_front() else { break };
                bytes += f.len();
                batch.push(f);
            }
            // Sever fault: exactly `sever_after` frames reach the wire,
            // even when the limit lands mid-burst.
            let allowed = st
                .sever_left
                .map_or(batch.len(), |s| s.min(batch.len() as u64) as usize);
            drop(st);
            let written = write_batch(&mut &self.conn, &batch[..allowed], off, metrics);
            st = self.state.lock();
            let done = written.err().unwrap_or(allowed);
            if let Some(s) = &mut st.sever_left {
                *s -= done as u64;
            }
            if written.is_err() || allowed < batch.len() {
                if written.is_ok() {
                    // FIN flushes everything already written; the unsent
                    // frames go to the salvage like a failure.
                    self.conn.shutdown_write();
                }
                let queued = std::mem::take(&mut st.queue);
                st.salvage.extend(batch.drain(done..));
                st.salvage.extend(queued);
                st.off = 0;
                st.owner = Owner::Idle;
                st.dead = true;
                return;
            }
            batch.clear();
        }
    }
}

impl LinkWriter {
    /// Spawns the writer thread over `conn`.
    pub fn spawn(conn: Conn, label: String) -> LinkWriter {
        LinkWriter::spawn_with(conn, label, None, None)
    }

    /// Full-control spawn: an optional sever fault (after `sever_after`
    /// frames have been written, by whichever thread, the writer thread
    /// half-closes the socket and the link dies, salvaging its remaining
    /// queue — the deliberate mid-run link sever the reconnect tests
    /// inject) and optional tx metering
    /// (`net_syscalls`/`net_writev_frames`/`net_frames`/`net_bytes`,
    /// counted where bytes reach the socket, whichever thread writes them
    /// — not at enqueue).
    pub fn spawn_with(
        conn: Conn,
        label: String,
        sever_after: Option<u64>,
        metrics: Option<Arc<EngineMetrics>>,
    ) -> LinkWriter {
        let link = Arc::new(Link {
            state: Mutex::new(TxState {
                queue: VecDeque::new(),
                off: 0,
                owner: Owner::Idle,
                parked: false,
                closing: false,
                dead: false,
                salvage: Vec::new(),
                sever_left: sever_after,
                wakes: 0,
            }),
            work: Condvar::new(),
            conn,
            metrics,
        });
        let draining = Arc::clone(&link);
        let thread = std::thread::Builder::new()
            .name(format!("couplink-net-wr-{label}"))
            .spawn(move || draining.drain())
            .expect("spawning writer thread");
        LinkWriter {
            link,
            thread: Some(thread),
        }
    }

    /// Sends one already-encoded frame. Returns `false` if the link is
    /// dead — the frame went to the salvage, not the socket.
    pub fn send(&self, frame: Vec<u8>) -> bool {
        self.push(TxFrame::Frame(frame))
    }

    /// Sends one frame, whole or by reference; [`LinkWriter::send`]'s
    /// contract. An idle link is written at once, or corked under a mesh
    /// reader's dispatch; a busy one queues the frame behind its backlog.
    pub fn push(&self, frame: TxFrame) -> bool {
        let mut st = self.link.state.lock();
        if st.dead {
            st.salvage.push(frame);
            return false;
        }
        st.queue.push_back(frame);
        if st.owner == Owner::Idle {
            let cork = CORKED.with(|c| {
                let mut c = c.borrow_mut();
                if c.0 {
                    c.1.push(Arc::clone(&self.link));
                }
                c.0
            });
            if cork {
                st.owner = Owner::Cork(std::thread::current().id());
            } else {
                self.link.write_now(&mut st, send_nowait);
            }
        }
        true
    }

    /// Whether the link has died on a write error or sever.
    pub fn is_dead(&self) -> bool {
        self.link.state.lock().dead
    }

    /// Whether every accepted frame has been written (and tx-metered) or
    /// salvaged — the teardown quiesce polls this before half-closing.
    pub fn idle(&self) -> bool {
        self.link.state.lock().owner == Owner::Idle
    }

    /// Sends that had to wake the parked writer thread.
    pub fn wakes(&self) -> u64 {
        self.link.state.lock().wakes
    }

    /// Half-closes the link's write direction without waiting for the
    /// writer thread (which may be blocked on a peer that stopped
    /// reading): the peer observes EOF after everything already written.
    pub fn half_close(&self) {
        self.link.conn.shutdown_write();
    }

    /// Ends the link in an orderly way: `bye` goes straight to the socket
    /// ahead of the half-close — unmetered, like the hello that opened the
    /// link — so the peer can tell this EOF from a drop. A link that is
    /// dead or still holds queued frames (a peer that stopped reading) may
    /// be mid-frame and only half-closes.
    pub(crate) fn close_orderly(&self, bye: &[u8]) {
        if self.idle() && !self.is_dead() {
            let _ = (&self.link.conn).write_all(bye);
        }
        self.half_close();
    }

    /// Tears the writer down and returns every unwritten frame in send
    /// order: the writer thread finishes the queue (or salvages it on a
    /// dead link) and is joined, so the salvage is complete.
    pub fn retire(mut self) -> Vec<TxFrame> {
        self.close();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        std::mem::take(&mut self.link.state.lock().salvage)
    }

    /// Tells the writer thread the handle is gone.
    fn close(&self) {
        let mut st = self.link.state.lock();
        st.closing = true;
        if st.parked {
            st.parked = false;
            self.link.work.notify_one();
        }
    }
}

impl Drop for LinkWriter {
    fn drop(&mut self) {
        self.close();
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
    /// `read` syscalls made.
    reads: u64,
}

impl FrameReader {
    /// Wraps a connected stream.
    pub fn new(conn: Conn) -> FrameReader {
        FrameReader {
            conn,
            dec: FrameDecoder::new(),
            reads: 0,
        }
    }

    /// The underlying connection (for shutdown/timeout control).
    pub fn conn(&self) -> &Conn {
        &self.conn
    }

    /// The `read` syscalls this reader has made.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Peak bytes the receive buffer ever held (the `net_rx_buf` gauge).
    pub fn buffered_hwm(&self) -> usize {
        self.dec.buffered_hwm()
    }

    /// Returns the next frame as a [`FrameSlot`] over the internal buffer
    /// (resolve it with [`FrameReader::body`] — no per-frame copy), its
    /// body's checksum verified, or `Ok(None)` on a clean EOF. A frame
    /// whose checksum fails is *skipped* — `reject` is called once per skip
    /// (the caller meters `net_codec_rejects`) and reading continues,
    /// because a corrupt body leaves the stream framing intact. Structural
    /// errors (bad magic, bad version, oversized length) poison the decoder
    /// and surface as [`NetError::Wire`].
    pub fn next_slot(&mut self, reject: &mut dyn FnMut()) -> Result<Option<FrameSlot>, NetError> {
        while let Some(raw) = self.next_unchecked()? {
            let body = self.dec.body(&raw.slot);
            match raw.verify(body) {
                Ok(slot) => return Ok(Some(slot)),
                Err(_) => reject(),
            }
        }
        Ok(None)
    }

    /// [`FrameReader::next_slot`] before the checksum: the next frame with
    /// the checksum its header carries, which the caller must check before
    /// it uses a byte of the body — a mesh reader checks a payload inside
    /// the copy that decodes it (`wire::decode_payload_checked`) and any
    /// other frame by [`UncheckedSlot::verify`]. `Ok(None)` and the errors
    /// are `next_slot`'s; no frame is skipped here.
    pub fn next_unchecked(&mut self) -> Result<Option<UncheckedSlot>, NetError> {
        loop {
            if let Some(raw) = self.dec.poll_unchecked().map_err(NetError::Wire)? {
                return Ok(Some(raw));
            }
            self.reads += 1;
            match self.dec.read_from(&mut self.conn, READ_CHUNK) {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// The body bytes of a slot returned by [`FrameReader::next_slot`], or
    /// of one inside a [`FrameReader::next_unchecked`] result.
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
    use std::time::Instant;

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

    /// A sever that lands inside a corked batch: the flush writes the
    /// frames the fault still allows, the writer thread severs the link,
    /// and the rest of the batch goes to the salvage in send order.
    #[test]
    fn a_sever_inside_a_corked_batch_writes_its_prefix_and_salvages_the_rest() {
        let (a, b) = UnixStream::pair().unwrap();
        let w = LinkWriter::spawn_with(Conn::Uds(a), "cork-sever".into(), Some(2), None);
        let f = |body: &[u8]| wire::encode_frame(wire::KIND_RUNTIME_BASE, body);
        assert!(w.send(f(b"zero")));
        corked(|| {
            for body in [&b"one"[..], b"two", b"three"] {
                assert!(w.send(f(body)), "queued behind the cork");
            }
        });
        let mut r = FrameReader::new(Conn::Uds(b));
        let mut reject = || {};
        assert_eq!(r.next(&mut reject).unwrap().unwrap().body, b"zero");
        assert_eq!(r.next(&mut reject).unwrap().unwrap().body, b"one");
        assert!(r.next(&mut reject).unwrap().is_none(), "severed after two");
        let salvage = w.retire();
        let salvaged: Vec<_> = salvage.iter().map(|t| t.parts()[0].to_vec()).collect();
        assert_eq!(salvaged, [f(b"two"), f(b"three")]);
    }

    /// No pusher blocks on a full link, and order holds. Two writers share
    /// one UDS pair and neither end reads: on each side two threads,
    /// standing in for mesh readers, push small frames — one of them in
    /// corked pairs — until both socket buffers are full and both links
    /// hold a backlog. No push takes `PUSH_BOUND`: a sender that found its
    /// link idle wrote without blocking, one that found it busy only
    /// queued. Once both ends read, every frame arrives exactly once,
    /// intact, in its thread's push order.
    #[test]
    fn on_a_full_link_no_push_blocks_and_every_frame_lands_once_in_order() {
        // Per thread; ~2 MiB a side, far past a UDS socket buffer.
        const FRAMES: u32 = 1_500;
        const PUSH_BOUND: Duration = Duration::from_secs(1);
        /// Frame `seq` of thread `t`: 5 to 2 004 bytes that name it.
        fn frame(t: u8, seq: u32) -> Vec<u8> {
            let mut body = vec![t];
            body.extend(seq.to_le_bytes());
            let len = (seq as usize * 7_919) % 2_000;
            body.extend((0..len).map(|i| (i as u32 ^ seq) as u8));
            wire::encode_frame(wire::KIND_RUNTIME_BASE, &body)
        }
        let (a, b) = UnixStream::pair().unwrap();
        let clone = |s: &UnixStream| s.try_clone().unwrap();
        let (read_a, read_b, close_a, close_b) = (clone(&a), clone(&b), clone(&a), clone(&b));
        let writers = [a, b].map(|s| Arc::new(LinkWriter::spawn(Conn::Uds(s), "full".into())));
        let mut pushers = Vec::new();
        for (side, w) in writers.iter().enumerate() {
            for corking in [false, true] {
                let (w, t) = (Arc::clone(w), 2 * side as u8 + corking as u8);
                pushers.push(std::thread::spawn(move || {
                    let mut slowest = Duration::ZERO;
                    let mut seq = 0;
                    while seq < FRAMES {
                        let start = Instant::now();
                        if corking {
                            corked(|| {
                                assert!(w.send(frame(t, seq)));
                                assert!(w.send(frame(t, seq + 1)));
                            });
                            seq += 2;
                        } else {
                            assert!(w.send(frame(t, seq)));
                            seq += 1;
                        }
                        slowest = slowest.max(start.elapsed());
                    }
                    slowest
                }));
            }
        }
        for p in pushers {
            let slowest = p.join().unwrap();
            assert!(slowest < PUSH_BOUND, "a push took {slowest:?}");
        }
        for w in &writers {
            assert!(!w.idle(), "the socket buffer is full: a backlog waits");
        }
        // Writer `a` is read at `b`, by threads 0 and 1; `b` at `a`, by 2
        // and 3.
        let readers = [(read_b, 0u8), (read_a, 2)].map(|(s, first)| {
            std::thread::spawn(move || {
                let mut r = FrameReader::new(Conn::Uds(s));
                let mut next = [0u32; 2];
                let mut reject = || panic!("corrupt frame");
                while let Some(f) = r.next(&mut reject).unwrap() {
                    let t = f.body[0];
                    let seq = u32::from_le_bytes(f.body[1..5].try_into().unwrap());
                    let i = (t - first) as usize;
                    assert_eq!(seq, next[i], "thread {t}'s frames out of order");
                    assert_eq!(wire::encode_frame(f.kind, &f.body), frame(t, seq));
                    next[i] += 1;
                }
                next
            })
        });
        for (w, s) in writers.into_iter().zip([close_a, close_b]) {
            let w = Arc::into_inner(w).expect("pushers are done");
            assert!(w.retire().is_empty(), "every frame written");
            s.shutdown(std::net::Shutdown::Write).unwrap();
        }
        for r in readers {
            assert_eq!(r.join().unwrap(), [FRAMES; 2], "each frame once");
        }
    }

    /// A direct write the socket takes only part of leaves the rest of the
    /// frame, with its offset, to the writer thread, and later frames queue
    /// behind it: wherever the cut lands — inside a by-reference piece's
    /// head, on its head/values boundary or inside its values — the peer
    /// reads every frame byte-identical, each tx-metered once.
    #[test]
    fn a_frame_a_direct_write_cut_short_arrives_byte_identical() {
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
        let piece = TxFrame::Piece { head, data: array };
        let behind = wire::encode_frame(wire::KIND_RUNTIME_BASE, b"behind");
        for cut in [1, wire::PAYLOAD_HEAD_LEN, wire::PAYLOAD_HEAD_LEN + 9] {
            let (a, b) = UnixStream::pair().unwrap();
            let metrics = Arc::new(EngineMetrics::new());
            let w = LinkWriter::spawn_with(Conn::Uds(a), "cut".into(), None, Some(metrics.clone()));
            // The socket takes the first `cut` bytes.
            let send_some = |conn: &Conn, bufs: &[IoSlice<'_>]| {
                let (mut left, mut some) = (cut, Vec::new());
                for b in bufs {
                    let n = b.len().min(left);
                    some.push(IoSlice::new(&b[..n]));
                    left -= n;
                }
                send_nowait(conn, &some)
            };
            {
                let mut st = w.link.state.lock();
                st.queue.push_back(piece.clone());
                w.link.write_now(&mut st, send_some);
                assert_eq!(
                    (st.owner, st.off),
                    (Owner::Thread, cut),
                    "left to the thread"
                );
            }
            assert!(w.send(behind.clone()));
            assert!(w.retire().is_empty());
            let mut got = Vec::new();
            (&b).read_to_end(&mut got).unwrap();
            assert_eq!(got, [&whole[..], &behind].concat(), "cut after {cut} bytes");
            assert_eq!(metrics.net_frames.get(), 2);
            assert_eq!(metrics.net_bytes.get(), got.len() as u64);
        }
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
            assert_eq!(write_batch(&mut sink, &frames, 0, Some(&metrics)), Ok(()));
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
