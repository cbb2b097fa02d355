//! Parent-side orchestration of a socket session: spawn one
//! `couplink-node` process per program, walk them through the handshake,
//! run the coordinated drain, and merge their reports into one
//! session-wide view.
//!
//! The handshake is deliberately sequential and fail-fast: any child that
//! presents the wrong protocol version, a wrong token, an out-of-range
//! program index, or a program index already claimed gets a `FATAL` frame
//! and the whole bootstrap aborts with a typed error — a half-connected
//! mesh is never allowed to start. Once `GO` is out, the parent only
//! *observes*: per-child reader threads translate frames and EOFs into
//! events, and the two-phase wait (everyone app-done or dead, then drain,
//! then everyone reported or dead) tolerates children dying at any point.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use couplink_metrics::CounterSnapshot;
use couplink_proto::{ConnectionId, ExportStats, Trace};
use couplink_time::{ts, Timestamp};

use super::codec::{self, NodePlan, NodeReport};
use super::link::{Conn, FrameReader, Listener, SocketBackend};

/// Knobs for [`run_plan`].
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Socket flavour for bootstrap and mesh links alike.
    pub backend: SocketBackend,
    /// Path to the `couplink-node` binary.
    pub node_bin: PathBuf,
    /// Wall-clock budget for the whole session, handshake included.
    pub deadline: Duration,
    /// Test hook: spawn program `.0` claiming to be program `.1`, to
    /// exercise the duplicate/bad-claim rejection path.
    pub misclaim: Option<(usize, usize)>,
    /// Give every node a file-backed write-ahead journal under the
    /// session directory (implied by `kill_restart`). Besides durability
    /// this arms mesh-link reconnect in the nodes.
    pub durable: bool,
    /// Chaos: SIGKILL one node at its `APP_DONE` and restart it from its
    /// journal.
    pub kill_restart: Option<KillSpec>,
}

/// Kill-and-restart chaos, driven by the parent: the victim is SIGKILLed
/// the moment it announces `APP_DONE` (journal populated, session still
/// live — its peers may still need its stores), then respawned with
/// `restart` set so it replays the journal, rebinds its mesh address, and
/// rejoins as its peers re-dial.
#[derive(Debug, Clone, Copy)]
pub struct KillSpec {
    /// Program to kill and restart.
    pub prog: usize,
    /// Flip a byte in its journal before the restart: the reopened WAL
    /// must be rejected as corrupt, failing the whole run loudly.
    pub corrupt_wal: bool,
}

impl NetOptions {
    /// Options with the given node binary, UDS backend, and a 120 s deadline.
    pub fn new(node_bin: PathBuf) -> NetOptions {
        NetOptions {
            backend: SocketBackend::Uds,
            node_bin,
            deadline: Duration::from_secs(120),
            misclaim: None,
            durable: false,
            kill_restart: None,
        }
    }
}

/// Why a socket session could not be bootstrapped or collected.
#[derive(Debug)]
pub enum BootstrapError {
    /// The plan's embedded configuration failed to validate.
    Plan(String),
    /// Socket or filesystem failure on the parent side.
    Io(io::Error),
    /// A child process could not be spawned.
    Spawn(String),
    /// The deadline expired during the named phase.
    Timeout(&'static str),
    /// A frame from a child failed to decode.
    Wire(String),
    /// A child spoke the wrong runtime protocol version.
    VersionSkew {
        /// The version the child announced.
        got: u32,
    },
    /// A child presented the wrong session token.
    BadToken,
    /// A child claimed a program index outside the topology.
    BadProgram {
        /// The claimed index.
        got: usize,
    },
    /// Two children claimed the same program index.
    DuplicateProgram {
        /// The doubly-claimed index.
        prog: usize,
    },
}

impl std::fmt::Display for BootstrapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BootstrapError::Plan(e) => write!(f, "bad plan: {e}"),
            BootstrapError::Io(e) => write!(f, "bootstrap i/o: {e}"),
            BootstrapError::Spawn(e) => write!(f, "spawning node: {e}"),
            BootstrapError::Timeout(phase) => write!(f, "bootstrap timed out during {phase}"),
            BootstrapError::Wire(e) => write!(f, "bad frame from node: {e}"),
            BootstrapError::VersionSkew { got } => {
                write!(
                    f,
                    "node speaks protocol version {got}, want {}",
                    codec::RT_VERSION
                )
            }
            BootstrapError::BadToken => write!(f, "node presented a wrong session token"),
            BootstrapError::BadProgram { got } => {
                write!(f, "node claimed out-of-range program {got}")
            }
            BootstrapError::DuplicateProgram { prog } => {
                write!(f, "two nodes claimed program {prog}")
            }
        }
    }
}

impl std::error::Error for BootstrapError {}

impl From<io::Error> for BootstrapError {
    fn from(e: io::Error) -> Self {
        BootstrapError::Io(e)
    }
}

/// The merged outcome of a socket session — the cross-process analogue of
/// the threaded fabric's `FabricReport`, plus the application-level
/// outcomes the node processes observed.
#[derive(Debug)]
pub struct NetReport {
    /// Per-connection exporter statistics (per exporting rank), indexed by
    /// connection id.
    pub stats: Vec<Vec<ExportStats>>,
    /// Armed traces, `(program, rank, connection, trace)`.
    pub traces: Vec<(usize, usize, ConnectionId, Trace)>,
    /// Rank-0 matched timestamps per connection, indexed by connection id.
    pub matches: Vec<Vec<Option<Timestamp>>>,
    /// Per importer rank: `(prog, rank, imports completed, error)`.
    pub imports_done: Vec<(usize, usize, u64, Option<String>)>,
    /// Exporter thread failures: `(prog, rank, error)`.
    pub export_errors: Vec<(usize, usize, String)>,
    /// Fabric drain failures per program.
    pub shutdown_errors: Vec<(usize, String)>,
    /// Programs that exited without delivering a report.
    pub crashed: Vec<usize>,
    /// Session-wide counters: field-wise sum of the per-process snapshots
    /// (high-water marks take the max).
    pub counters: CounterSnapshot,
    /// The raw per-process snapshots, indexed by program (crashed
    /// programs report zeros).
    pub process_counters: Vec<CounterSnapshot>,
}

/// What a per-child reader thread distilled from the child's frames.
enum Event {
    AppDone,
    Report(Box<NodeReport>),
    Gone,
}

/// Kills and reaps every still-tracked child on drop, so no error path
/// can leak node processes into the test harness.
struct Children(Vec<Option<std::process::Child>>);

impl Drop for Children {
    fn drop(&mut self) {
        for child in self.0.iter_mut().flatten() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

static SESSION_SEQ: AtomicU64 = AtomicU64::new(0);

/// First wait of [`poll_until`]'s back-off.
const POLL_FIRST_WAIT: Duration = Duration::from_micros(50);
/// Longest wait of [`poll_until`]'s back-off.
const POLL_MAX_WAIT: Duration = Duration::from_millis(5);

/// Calls `attempt` until it yields a value or `deadline` has passed
/// (`None`), sleeping between calls: [`POLL_FIRST_WAIT`] at first, doubling
/// up to [`POLL_MAX_WAIT`]. The one way the orchestrator waits for
/// something std can only poll — a non-blocking `accept`, a child's exit.
/// What it waits for is a process a few milliseconds from ready, so a
/// fixed 5 ms sleep was most of a session's set-up; backing off keeps a
/// session that is slow to come up from being polled hot.
fn poll_until<T>(deadline: Instant, mut attempt: impl FnMut() -> Option<T>) -> Option<T> {
    let mut wait = POLL_FIRST_WAIT;
    loop {
        if let Some(v) = attempt() {
            return Some(v);
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        std::thread::sleep(wait.min(left));
        wait = (wait * 2).min(POLL_MAX_WAIT);
    }
}

/// Accepts the next connection on the (non-blocking) bootstrap listener,
/// or times out in `phase` at `deadline`.
fn accept_by(
    listener: &Listener,
    deadline: Instant,
    phase: &'static str,
) -> Result<Conn, BootstrapError> {
    let accepted = poll_until(deadline, || match listener.accept() {
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
        other => Some(other),
    });
    Ok(accepted.ok_or(BootstrapError::Timeout(phase))??)
}

/// Reads a connecting child's `HELLO` and admits it as the program it
/// claims — or answers `FATAL` and refuses: a protocol version other than
/// [`codec::RT_VERSION`] (PLAN and REPORT layouts are only defined within
/// one version), a wrong session token, a program index outside the
/// topology or already holding a writer in `joined`.
fn admit_hello(
    conn: Conn,
    token: &str,
    joined: &[Option<Conn>],
) -> Result<(usize, Conn, FrameReader), BootstrapError> {
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    let writer = conn.try_clone()?;
    let mut reader = FrameReader::new(conn);
    let body = read_frame(&mut reader, codec::KIND_HELLO, "hello")?;
    let (version, peer_token, prog) =
        codec::decode_hello(&body).map_err(|e| BootstrapError::Wire(format!("hello: {e}")))?;
    let refuse = |mut writer: Conn, reason: &str, why: BootstrapError| {
        let _ = writer.write_all(&codec::encode_fatal(reason));
        Err(why)
    };
    if version != codec::RT_VERSION {
        let skew = BootstrapError::VersionSkew { got: version };
        return refuse(writer, "protocol version mismatch", skew);
    }
    if peer_token != token {
        return refuse(writer, "bad session token", BootstrapError::BadToken);
    }
    if prog >= joined.len() {
        let bad = BootstrapError::BadProgram { got: prog };
        return refuse(writer, "program index out of range", bad);
    }
    if joined[prog].is_some() {
        let dup = BootstrapError::DuplicateProgram { prog };
        return refuse(writer, "program index already claimed", dup);
    }
    Ok((prog, writer, reader))
}

fn read_frame(
    reader: &mut FrameReader,
    want: u8,
    phase: &'static str,
) -> Result<Vec<u8>, BootstrapError> {
    let mut reject = || {};
    match reader.next(&mut reject) {
        Ok(Some(f)) if f.kind == want => Ok(f.body),
        Ok(Some(f)) if f.kind == codec::KIND_FATAL => Err(BootstrapError::Wire(format!(
            "node reported fatal during {phase}: {}",
            codec::decode_fatal(&f.body).unwrap_or_else(|_| "<garbled>".into())
        ))),
        Ok(Some(f)) => Err(BootstrapError::Wire(format!(
            "expected frame kind {want} during {phase}, got {}",
            f.kind
        ))),
        Ok(None) => Err(BootstrapError::Wire(format!(
            "node closed its socket during {phase}"
        ))),
        Err(super::link::NetError::Io(e))
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
        {
            Err(BootstrapError::Timeout(phase))
        }
        Err(e) => Err(BootstrapError::Wire(format!("during {phase}: {e}"))),
    }
}

/// Runs one socket session end to end: spawn, handshake, go, drain,
/// merge. Returns the merged report, or a typed error if the session
/// could not even be brought up (post-`GO` failures are *data* — they
/// surface inside the report, not as `Err`).
pub fn run_plan(plan: &NodePlan, opts: &NetOptions) -> Result<NetReport, BootstrapError> {
    let topo = plan.topology().map_err(BootstrapError::Plan)?;
    let n = topo.programs.len();
    let deadline = Instant::now() + opts.deadline;

    if let Some(kill) = &opts.kill_restart {
        if kill.prog >= n {
            return Err(BootstrapError::Plan(format!(
                "kill-restart names out-of-range program {}",
                kill.prog
            )));
        }
        if matches!(opts.backend, SocketBackend::Tcp) {
            // A restarted node must rebind its original mesh address for
            // the peers' re-dial to find it; only the deterministic UDS
            // socket paths make that possible.
            return Err(BootstrapError::Plan(
                "kill-restart chaos requires the uds backend".into(),
            ));
        }
    }

    let dir = std::env::temp_dir().join(format!(
        "couplink-{}-{}",
        std::process::id(),
        SESSION_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir)?;
    let _cleanup = DirCleanup(dir.clone());

    // Durability rewrites the plan: every node gets a file-backed journal
    // under the session directory (per-node file names, shared dir).
    let mut plan = plan.clone();
    if (opts.durable || opts.kill_restart.is_some()) && plan.wal_dir.is_none() {
        let d = dir.join("wal");
        std::fs::create_dir_all(&d)?;
        plan.wal_dir = Some(d.to_string_lossy().into_owned());
    }
    let plan = &plan;
    let wal_dir = plan.wal_dir.clone().map(PathBuf::from);

    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos();
    let token = format!("{:x}-{:x}", nanos, std::process::id());

    let listener = Listener::bind(opts.backend, &dir, "boot")?;
    listener.set_nonblocking(true)?;
    let boot_addr = listener.addr()?.to_string();

    // Spawn every program as its own process.
    let mut children = Children(Vec::new());
    for prog in 0..n {
        let claim = match opts.misclaim {
            Some((spawned, claimed)) if spawned == prog => Some(claimed),
            _ => None,
        };
        children
            .0
            .push(Some(spawn_node(opts, &boot_addr, &token, prog, claim)?));
    }

    // Accept + hello: map sockets to program indices, rejecting anything
    // that should not join this session.
    let mut writers: Vec<Option<Conn>> = (0..n).map(|_| None).collect();
    let mut readers: Vec<Option<FrameReader>> = (0..n).map(|_| None).collect();
    let mut joined = 0usize;
    while joined < n {
        let conn = accept_by(&listener, deadline, "accept")?;
        let (prog, writer, reader) = admit_hello(conn, &token, &writers)?;
        writers[prog] = Some(writer);
        readers[prog] = Some(reader);
        joined += 1;
    }
    let mut writers: Vec<Conn> = writers.into_iter().map(Option::unwrap).collect();
    let mut readers: Vec<FrameReader> = readers.into_iter().map(Option::unwrap).collect();

    // PLAN → LISTENING → PEERS → READY → GO.
    let plan_frame = codec::encode_plan(plan);
    for w in &mut writers {
        w.write_all(&plan_frame)?;
    }
    let mut mesh_addrs = Vec::with_capacity(n);
    for r in &mut readers {
        let body = read_frame(r, codec::KIND_LISTENING, "listening")?;
        mesh_addrs.push(
            codec::decode_listening(&body)
                .map_err(|e| BootstrapError::Wire(format!("listening: {e}")))?,
        );
    }
    let peers_frame = codec::encode_peers(&mesh_addrs);
    for w in &mut writers {
        w.write_all(&peers_frame)?;
    }
    for r in &mut readers {
        read_frame(r, codec::KIND_READY, "ready")?;
    }
    for w in &mut writers {
        w.write_all(&codec::encode_bare(codec::KIND_GO))?;
    }

    // From here on children own the pace; the parent just watches. One
    // reader thread per child turns its frames into events.
    let (tx, rx) = mpsc::channel::<(usize, Event)>();
    let mut reader_threads = Vec::new();
    for (prog, reader) in readers.into_iter().enumerate() {
        reader.conn().set_read_timeout(None)?;
        let tx = tx.clone();
        reader_threads.push(
            std::thread::Builder::new()
                .name(format!("couplink-boot-rd-{prog}"))
                .spawn(move || reader_loop(prog, reader, tx))
                .map_err(|e| BootstrapError::Spawn(format!("reader thread: {e}")))?,
        );
    }

    // Phase 1: every program finishes its application work or dies. The
    // kill-restart chaos hooks in here: the victim's APP_DONE triggers the
    // SIGKILL + respawn instead of marking it done — the *restarted*
    // incarnation's APP_DONE is the one that counts.
    let mut pending_kill = opts.kill_restart;
    let mut expect_gone = vec![0usize; n];
    let mut app_done = vec![false; n];
    let mut gone = vec![false; n];
    let mut reports: Vec<Option<NodeReport>> = (0..n).map(|_| None).collect();
    let settled = |app_done: &[bool], gone: &[bool], reports: &[Option<NodeReport>]| {
        (0..n).all(|p| app_done[p] || gone[p] || reports[p].is_some())
    };
    while !settled(&app_done, &gone, &reports) {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(BootstrapError::Timeout("application phase"));
        }
        match rx.recv_timeout(remaining) {
            Ok((p, Event::AppDone)) => {
                if matches!(pending_kill, Some(k) if k.prog == p) {
                    let kill = pending_kill.take().unwrap();
                    // The old incarnation's reader will see EOF and report
                    // it dead; that death is expected, not a crash.
                    expect_gone[p] += 1;
                    reader_threads.push(restart_node(
                        &kill,
                        wal_dir.as_deref(),
                        plan,
                        opts,
                        &boot_addr,
                        &token,
                        &listener,
                        &mesh_addrs,
                        deadline,
                        &mut children,
                        &mut writers,
                        &tx,
                    )?);
                } else {
                    app_done[p] = true;
                }
            }
            Ok((p, Event::Report(rep))) => reports[p] = Some(*rep),
            Ok((p, Event::Gone)) => {
                if expect_gone[p] > 0 {
                    expect_gone[p] -= 1;
                } else {
                    gone[p] = true;
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(BootstrapError::Timeout("application phase"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    // Coordinated drain: tell the survivors to shut their fabric down.
    // Write errors are expected here — a child may have drained early or
    // died since its last event.
    for (p, w) in writers.iter_mut().enumerate() {
        if !gone[p] && reports[p].is_none() {
            let _ = w.write_all(&codec::encode_bare(codec::KIND_DRAIN));
        }
    }

    // Phase 2: every program reports or dies.
    while !(0..n).all(|p| gone[p] || reports[p].is_some()) {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(BootstrapError::Timeout("drain phase"));
        }
        match rx.recv_timeout(remaining) {
            Ok((p, Event::Report(rep))) => reports[p] = Some(*rep),
            Ok((p, Event::Gone)) => {
                if expect_gone[p] > 0 {
                    expect_gone[p] -= 1;
                } else {
                    gone[p] = true;
                }
            }
            Ok((_, Event::AppDone)) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(BootstrapError::Timeout("drain phase"))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    drop(tx);
    drop(writers);
    for t in reader_threads {
        let _ = t.join();
    }

    // Reap within the deadline; anything still alive gets killed by the
    // guard below.
    for child in children.0.iter_mut() {
        let Some(c) = child.as_mut() else { continue };
        let exited = poll_until(deadline, || c.try_wait().transpose());
        if matches!(exited, Some(Ok(_))) {
            child.take();
        }
    }
    drop(children);

    Ok(merge(topo.conns.len(), reports))
}

fn spawn_node(
    opts: &NetOptions,
    boot_addr: &str,
    token: &str,
    prog: usize,
    claim: Option<usize>,
) -> Result<std::process::Child, BootstrapError> {
    let mut cmd = std::process::Command::new(&opts.node_bin);
    cmd.arg("--connect")
        .arg(boot_addr)
        .arg("--prog")
        .arg(prog.to_string())
        .arg("--token")
        .arg(token);
    if let Some(c) = claim {
        cmd.arg("--claim").arg(c.to_string());
    }
    cmd.spawn()
        .map_err(|e| BootstrapError::Spawn(format!("{}: {e}", opts.node_bin.display())))
}

/// Body of a per-child reader thread: translate the child's frames and
/// its EOF into events for the phase loops.
fn reader_loop(prog: usize, mut reader: FrameReader, tx: mpsc::Sender<(usize, Event)>) {
    let mut reject = || {};
    loop {
        match reader.next(&mut reject) {
            Ok(Some(f)) if f.kind == codec::KIND_APP_DONE => {
                let _ = tx.send((prog, Event::AppDone));
            }
            Ok(Some(f)) if f.kind == codec::KIND_REPORT => match codec::decode_report(&f.body) {
                Ok(rep) => {
                    let _ = tx.send((prog, Event::Report(Box::new(rep))));
                }
                Err(_) => {
                    let _ = tx.send((prog, Event::Gone));
                    return;
                }
            },
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => {
                let _ = tx.send((prog, Event::Gone));
                return;
            }
        }
    }
}

/// SIGKILLs the victim and brings up a replacement incarnation: respawn,
/// then the same handshake the boot gave it — but with `restart` set in
/// its plan, so it replays its journal before touching the mesh, unlinks
/// its stale socket, and rebinds its original address for the peers'
/// re-dial to find. Blocks the phase loop for the handshake's duration
/// (children are autonomous post-`GO`; only the event queue waits).
#[allow(clippy::too_many_arguments)]
fn restart_node(
    kill: &KillSpec,
    wal_dir: Option<&Path>,
    plan: &NodePlan,
    opts: &NetOptions,
    boot_addr: &str,
    token: &str,
    listener: &Listener,
    mesh_addrs: &[String],
    deadline: Instant,
    children: &mut Children,
    writers: &mut [Conn],
    tx: &mpsc::Sender<(usize, Event)>,
) -> Result<std::thread::JoinHandle<()>, BootstrapError> {
    let prog = kill.prog;
    if let Some(mut c) = children.0[prog].take() {
        let _ = c.kill();
        let _ = c.wait();
    }
    if kill.corrupt_wal {
        let dir = wal_dir.ok_or_else(|| {
            BootstrapError::Plan("corrupt_wal chaos without a journal directory".into())
        })?;
        corrupt_wal(dir, prog)?;
    }

    children.0[prog] = Some(spawn_node(opts, boot_addr, token, prog, None)?);
    let conn = accept_by(listener, deadline, "restart accept")?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = conn.try_clone()?;
    let mut reader = FrameReader::new(conn);
    let body = read_frame(&mut reader, codec::KIND_HELLO, "restart hello")?;
    let (version, peer_token, claimed) = codec::decode_hello(&body)
        .map_err(|e| BootstrapError::Wire(format!("restart hello: {e}")))?;
    if version != codec::RT_VERSION || peer_token != token || claimed != prog {
        let _ = writer.write_all(&codec::encode_fatal("bad restart hello"));
        return Err(BootstrapError::Wire(
            "restarted node presented a bad hello".into(),
        ));
    }
    let mut rp = plan.clone();
    rp.restart = true;
    writer.write_all(&codec::encode_plan(&rp))?;
    // The node reports its (re-bound, unchanged) mesh address; peers
    // re-dial the original one, so it is only read to advance the
    // handshake — and to surface a FATAL if the journal was unreadable.
    let body = read_frame(&mut reader, codec::KIND_LISTENING, "restart listening")?;
    codec::decode_listening(&body)
        .map_err(|e| BootstrapError::Wire(format!("restart listening: {e}")))?;
    writer.write_all(&codec::encode_peers(mesh_addrs))?;
    read_frame(&mut reader, codec::KIND_READY, "restart ready")?;
    writer.write_all(&codec::encode_bare(codec::KIND_GO))?;
    reader.conn().set_read_timeout(None)?;
    writers[prog] = writer;
    let tx = tx.clone();
    std::thread::Builder::new()
        .name(format!("couplink-boot-rd-{prog}-r"))
        .spawn(move || reader_loop(prog, reader, tx))
        .map_err(|e| BootstrapError::Spawn(format!("reader thread: {e}")))
}

/// Flips one byte early in the oldest journal segment of `prog`: a
/// mid-file record stops checksumming, which the reopened WAL must report
/// as corruption — never silently skip or truncate.
fn corrupt_wal(wal_dir: &Path, prog: usize) -> Result<(), BootstrapError> {
    let prefix = format!("node-{prog}.");
    let mut segs: Vec<PathBuf> = std::fs::read_dir(wal_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with(&prefix) && f.ends_with(".wal"))
        })
        .collect();
    segs.sort();
    let Some(path) = segs.first() else {
        return Err(BootstrapError::Io(io::Error::other(
            "no journal segment to corrupt",
        )));
    };
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(BootstrapError::Io(io::Error::other(
            "journal segment is empty",
        )));
    }
    // First body byte of the first record (the frame header is 12 bytes) —
    // guaranteed mid-file as long as the journal holds more than one
    // record, so truncation is never a legal response.
    let at = 12.min(bytes.len() - 1);
    bytes[at] ^= 0x40;
    std::fs::write(path, &bytes)?;
    Ok(())
}

fn merge(conns: usize, reports: Vec<Option<NodeReport>>) -> NetReport {
    let mut out = NetReport {
        stats: (0..conns).map(|_| Vec::new()).collect(),
        traces: Vec::new(),
        matches: (0..conns).map(|_| Vec::new()).collect(),
        imports_done: Vec::new(),
        export_errors: Vec::new(),
        shutdown_errors: Vec::new(),
        crashed: Vec::new(),
        counters: CounterSnapshot::default(),
        process_counters: Vec::with_capacity(reports.len()),
    };
    for (prog, slot) in reports.into_iter().enumerate() {
        let Some(rep) = slot else {
            out.crashed.push(prog);
            out.process_counters.push(CounterSnapshot::default());
            continue;
        };
        for (conn, per_rank) in rep.stats {
            let c = conn as usize;
            if c < conns && !per_rank.is_empty() {
                out.stats[c] = per_rank;
            }
        }
        for (p, r, c, t) in rep.traces {
            out.traces.push((p, r, ConnectionId(c), t));
        }
        for (conn, got) in rep.matches {
            let c = conn as usize;
            if c < conns {
                out.matches[c] = got.into_iter().map(|m| m.map(ts)).collect();
            }
        }
        out.imports_done.extend(rep.imports_done);
        out.export_errors.extend(rep.export_errors);
        if let Some(e) = rep.shutdown_error {
            out.shutdown_errors.push((prog, e));
        }
        out.counters.merge_process(&rep.counters);
        out.process_counters.push(rep.counters);
    }
    out
}

/// Removes the session's socket directory on drop — sockets are unlinked
/// even when bootstrap errors out halfway.
struct DirCleanup(PathBuf);

impl Drop for DirCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A map from program name to index, handy for plan construction.
pub fn program_indices(plan: &NodePlan) -> Result<HashMap<String, usize>, BootstrapError> {
    let topo = plan.topology().map_err(BootstrapError::Plan)?;
    Ok(topo
        .programs
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), i))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use couplink_proto::wire::{self, BodyWriter};

    #[test]
    fn poll_until_returns_as_soon_as_the_attempt_succeeds() {
        let mut calls = 0;
        let start = Instant::now();
        let got = poll_until(start + Duration::from_secs(30), || {
            calls += 1;
            (calls == 4).then_some("up")
        });
        assert_eq!(got, Some("up"));
        assert_eq!(calls, 4, "not called again once it held");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "no wait for the deadline"
        );
        // An attempt that holds at once is never slept on, even past the
        // deadline: the check comes first.
        assert_eq!(poll_until(start, || Some(1)), Some(1));
    }

    #[test]
    fn poll_until_times_out_at_the_deadline_and_not_before() {
        let budget = Duration::from_millis(20);
        let start = Instant::now();
        let got: Option<()> = poll_until(start + budget, || None);
        assert_eq!(got, None);
        assert!(start.elapsed() >= budget, "gave up early");
    }

    /// The back-off starts short: the old fixed 5 ms sleep made one call in
    /// the first 2 ms, a first wait of at most 100 µs makes several.
    #[test]
    fn poll_until_starts_with_a_short_wait() {
        assert!(POLL_FIRST_WAIT <= Duration::from_micros(100));
        assert_eq!(POLL_MAX_WAIT, Duration::from_millis(5));
        let early_calls = || {
            let start = Instant::now();
            let mut early = 0;
            let _: Option<()> = poll_until(start + Duration::from_millis(10), || {
                if start.elapsed() < Duration::from_millis(2) {
                    early += 1;
                }
                None
            });
            early
        };
        // A busy machine only ever makes a sleep longer, so one quick
        // round in twenty shows the schedule; a 5 ms first wait never
        // produces one.
        let best = (0..20).map(|_| early_calls()).find(|&n| n >= 3);
        assert!(best.is_some(), "never 3 calls inside the first 2 ms");
    }

    /// A listener nobody dials times out with the phase it was given; one
    /// that is dialled hands over the connection.
    #[test]
    fn accept_by_times_out_with_its_phase_or_accepts() {
        let dir = std::env::temp_dir();
        let name = format!("couplink-accept-{}", std::process::id());
        let listener = Listener::bind(SocketBackend::Uds, &dir, &name).expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let soon = || Instant::now() + Duration::from_millis(10);
        let verdict = accept_by(&listener, soon(), "restart accept").err();
        assert!(
            matches!(verdict, Some(BootstrapError::Timeout("restart accept"))),
            "{verdict:?}"
        );
        let _dialled = Conn::dial(&listener.addr().expect("addr")).expect("dial");
        assert!(accept_by(&listener, soon(), "accept").is_ok());
        let _ = std::fs::remove_file(dir.join(format!("{name}.sock")));
    }

    /// Dials a fresh listener with one `HELLO` announcing `version`;
    /// returns the parent's verdict and the frame the child got back.
    fn hello_with_version(version: u32) -> (Result<usize, BootstrapError>, Option<(u8, String)>) {
        let dir = std::env::temp_dir();
        let name = format!("couplink-hello-{}-{version}", std::process::id());
        let listener = Listener::bind(SocketBackend::Uds, &dir, &name).expect("bind");
        let addr = listener.addr().expect("addr");
        let child = std::thread::spawn(move || {
            let mut conn = Conn::dial(&addr).expect("dial");
            let mut hello = BodyWriter::new();
            hello.u32(version);
            hello.str("tok");
            hello.u32(1);
            let frame = wire::encode_frame(codec::KIND_HELLO, &hello.into_body());
            conn.write_all(&frame).expect("send hello");
            conn.set_read_timeout(Some(Duration::from_secs(5)))
                .expect("timeout");
            let reply = FrameReader::new(conn).next(&mut || {}).ok().flatten();
            reply.map(|f| (f.kind, codec::decode_fatal(&f.body).unwrap_or_default()))
        });
        let conn = listener.accept().expect("accept");
        let verdict = admit_hello(conn, "tok", &[None, None]).map(|(prog, ..)| prog);
        let reply = child.join().expect("child thread");
        let _ = std::fs::remove_file(dir.join(format!("{name}.sock")));
        (verdict, reply)
    }

    /// PLAN and REPORT bytes changed with `RT_VERSION` 2, so a node built
    /// at version 1 must be turned away at `HELLO`, with a `FATAL` telling
    /// it why — before any frame whose layout it would misread.
    #[test]
    fn hello_with_the_old_rt_version_is_refused_with_fatal() {
        assert_eq!(codec::RT_VERSION, 2, "bump this test with the version");
        let (verdict, reply) = hello_with_version(codec::RT_VERSION - 1);
        assert!(
            matches!(verdict, Err(BootstrapError::VersionSkew { got: 1 })),
            "{verdict:?}"
        );
        assert_eq!(
            reply,
            Some((codec::KIND_FATAL, "protocol version mismatch".into()))
        );

        let (verdict, reply) = hello_with_version(codec::RT_VERSION);
        assert!(matches!(verdict, Ok(1)), "{verdict:?}");
        assert_eq!(reply, None, "an admitted child hears nothing until PLAN");
    }
}
