//! Parent-side orchestration of a socket session: spawn one
//! `couplink-node` process per program, walk them through the handshake,
//! run the coordinated drain, and merge their reports into one
//! session-wide view.
//!
//! Every process joins the same way, at boot and at a kill-restart: one
//! hello check (`check_hello`, which a node's mesh admission shares) and
//! one `PLAN → LISTENING → PEERS → READY → GO` walk (`Session::join`), for
//! all n programs at boot and for the replacement alone at a restart. The
//! handshake is deliberately sequential and fail-fast: any child that
//! presents the wrong protocol version, a wrong session token, an
//! out-of-range program index, or a program index that is not open gets a
//! `FATAL` frame and the whole bootstrap aborts with a typed error — a
//! half-connected mesh is never allowed to start. Once `GO` is out, the
//! parent only *observes*: per-child reader threads translate frames and
//! EOFs into events, and one event loop (everyone app-done or dead, then
//! drain, then everyone reported or dead) tolerates children dying at any
//! point.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use couplink_metrics::CounterSnapshot;
use couplink_proto::{ConnectionId, ExportStats, Trace};
use couplink_time::{ts, Timestamp};

use super::codec::{self, NodePlan, NodeReport};
use super::link::{Conn, FrameReader, Listener, NetError, SocketBackend};

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
    /// A handshake frame was out of order, undecodable or a `FATAL`, or
    /// the connection closed mid-handshake.
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
            BootstrapError::Wire(e) => write!(f, "handshake: {e}"),
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

/// Waits for the next handshake frame and returns its body if it is of
/// kind `want`. Anything else fails `phase` with a typed error: a frame of
/// another kind (out of order), a `FATAL` (its text is kept), EOF, a read
/// timeout, or a stream that lost its framing (an oversized header among
/// them). Both ends of every handshake, parent and node, wait through it.
pub(super) fn expect_frame(
    reader: &mut FrameReader,
    want: u8,
    phase: &'static str,
) -> Result<Vec<u8>, BootstrapError> {
    let why = match reader.next(&mut || {}) {
        Ok(Some(f)) if f.kind == want => return Ok(f.body),
        Ok(Some(f)) if f.kind == codec::KIND_FATAL => {
            let text = codec::decode_fatal(&f.body).unwrap_or_else(|_| "<garbled>".into());
            format!("fatal during {phase}: {text}")
        }
        Ok(Some(f)) => format!("expected frame kind {want} during {phase}, got {}", f.kind),
        Ok(None) => format!("connection closed during {phase}"),
        Err(NetError::Io(e))
            if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
        {
            return Err(BootstrapError::Timeout(phase))
        }
        Err(e) => format!("during {phase}: {e}"),
    };
    Err(BootstrapError::Wire(why))
}

/// Checks a hello body — this build's protocol version (PLAN and REPORT
/// layouts are only defined within one [`codec::RT_VERSION`]), the session
/// token, a program index inside `range` and `open` — and returns the
/// program it claims. The parent admits children and a node admits mesh
/// peers through it alike.
pub(super) fn check_hello(
    body: &[u8],
    token: &str,
    range: std::ops::Range<usize>,
    open: impl Fn(usize) -> bool,
    phase: &'static str,
) -> Result<usize, BootstrapError> {
    let (version, peer_token, prog) =
        codec::decode_hello(body).map_err(|e| BootstrapError::Wire(format!("{phase}: {e}")))?;
    if version != codec::RT_VERSION {
        Err(BootstrapError::VersionSkew { got: version })
    } else if peer_token != token {
        Err(BootstrapError::BadToken)
    } else if !range.contains(&prog) {
        Err(BootstrapError::BadProgram { got: prog })
    } else if !open(prog) {
        Err(BootstrapError::DuplicateProgram { prog })
    } else {
        Ok(prog)
    }
}

/// Reads a connecting child's `HELLO` and admits it as the program it
/// claims — or answers `FATAL` and refuses it: see [`check_hello`]; the
/// open programs are, at boot, those not yet joined and, at a restart, the
/// killed one alone.
fn admit_hello(
    conn: Conn,
    token: &str,
    open: &[bool],
    phase: &'static str,
) -> Result<Joining, BootstrapError> {
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = conn.try_clone()?;
    let mut reader = FrameReader::new(conn);
    let body = expect_frame(&mut reader, codec::KIND_HELLO, phase)?;
    let why = match check_hello(&body, token, 0..open.len(), |p| open[p], phase) {
        Ok(prog) => return Ok((prog, writer, reader)),
        Err(why) => why,
    };
    let reason = match why {
        BootstrapError::VersionSkew { .. } => "protocol version mismatch",
        BootstrapError::BadToken => "bad session token",
        BootstrapError::BadProgram { .. } => "program index out of range",
        BootstrapError::DuplicateProgram { .. } => "program index already claimed",
        _ => "undecodable hello",
    };
    let _ = writer.write_all(&codec::encode_fatal(reason));
    Err(why)
}

/// An admitted child: its program, and its socket's two halves.
type Joining = (usize, Conn, FrameReader);

/// The phase a join's errors name: the boot `step`, or the restart.
fn phase(restart: bool, step: &'static str) -> &'static str {
    if restart {
        "restart"
    } else {
        step
    }
}

/// The parent's hold on a session: what boot sets up and a restart reuses.
struct Session<'a> {
    opts: &'a NetOptions,
    plan: &'a NodePlan,
    token: String,
    listener: Listener,
    boot_addr: String,
    deadline: Instant,
    children: Children,
    /// Each program's socket, once it has joined.
    writers: Vec<Option<Conn>>,
    /// The mesh addresses boot collected; a restart hands them out again.
    mesh_addrs: Vec<String>,
    events: mpsc::Sender<(usize, Event)>,
    reader_threads: Vec<std::thread::JoinHandle<()>>,
}

impl<'a> Session<'a> {
    /// Binds the bootstrap listener under `dir` for `n` programs; the
    /// receiver gets every joined child's events.
    fn new(
        opts: &'a NetOptions,
        plan: &'a NodePlan,
        dir: &Path,
        n: usize,
    ) -> Result<(Self, mpsc::Receiver<(usize, Event)>), BootstrapError> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap_or_default()
            .as_nanos();
        let listener = Listener::bind(opts.backend, dir, "boot")?;
        listener.set_nonblocking(true)?;
        let (events, rx) = mpsc::channel();
        let session = Session {
            opts,
            plan,
            token: format!("{:x}-{:x}", nanos, std::process::id()),
            boot_addr: listener.addr()?.to_string(),
            listener,
            deadline: Instant::now() + opts.deadline,
            children: Children((0..n).map(|_| None).collect()),
            writers: (0..n).map(|_| None).collect(),
            mesh_addrs: Vec::new(),
            events,
            reader_threads: Vec::new(),
        };
        Ok((session, rx))
    }

    /// Accepts the next child and admits it through its hello as one of
    /// the programs `open` marks.
    fn admit(&self, open: &[bool], restart: bool) -> Result<Joining, BootstrapError> {
        let conn = accept_by(&self.listener, self.deadline, phase(restart, "accept"))?;
        admit_hello(conn, &self.token, open, phase(restart, "hello"))
    }

    /// PLAN → LISTENING → PEERS → READY → GO, each frame to every joining
    /// child before the next, then one reader thread per child. Boot joins
    /// all n programs; a restart joins the replacement alone, with
    /// `restart` set in its plan and the peer table boot collected (the
    /// node rebinds the address its peers re-dial, so its LISTENING only
    /// advances the handshake — or carries a FATAL from its journal).
    fn join(&mut self, mut joining: Vec<Joining>, restart: bool) -> Result<(), BootstrapError> {
        let (listening, ready) = (phase(restart, "listening"), phase(restart, "ready"));
        // Program order: at boot the LISTENING addresses, in the order they
        // are read, are the peer table.
        joining.sort_unstable_by_key(|&(prog, ..)| prog);
        let mut plan = self.plan.clone();
        plan.restart = restart;
        let plan_frame = codec::encode_plan(&plan);
        for (_, w, _) in &mut joining {
            w.write_all(&plan_frame)?;
        }
        let mut addrs = Vec::with_capacity(joining.len());
        for (_, _, r) in &mut joining {
            let body = expect_frame(r, codec::KIND_LISTENING, listening)?;
            let addr = codec::decode_listening(&body);
            addrs.push(addr.map_err(|e| BootstrapError::Wire(format!("{listening}: {e}")))?);
        }
        if !restart {
            self.mesh_addrs = addrs;
        }
        let peers_frame = codec::encode_peers(&self.mesh_addrs);
        for (_, w, _) in &mut joining {
            w.write_all(&peers_frame)?;
        }
        for (_, _, r) in &mut joining {
            expect_frame(r, codec::KIND_READY, ready)?;
        }
        let go = codec::encode_bare(codec::KIND_GO);
        for (_, w, _) in &mut joining {
            w.write_all(&go)?;
        }
        // From here on the child owns the pace; its reader thread turns
        // its frames into events.
        for (prog, w, reader) in joining {
            reader.conn().set_read_timeout(None)?;
            let tx = self.events.clone();
            self.reader_threads.push(
                std::thread::Builder::new()
                    .name(format!("couplink-boot-rd-{prog}"))
                    .spawn(move || reader_loop(prog, reader, tx))
                    .map_err(|e| BootstrapError::Spawn(format!("reader thread: {e}")))?,
            );
            self.writers[prog] = Some(w);
        }
        Ok(())
    }

    /// SIGKILLs the victim and brings up a replacement incarnation through
    /// the admission and join boot used, with only the victim's program
    /// open: it replays its journal before touching the mesh, unlinks its
    /// stale socket, and rebinds its original address for the peers'
    /// re-dial to find. Blocks the event loop for the handshake's duration
    /// (children are autonomous post-`GO`; only the event queue waits).
    fn restart(&mut self, kill: KillSpec) -> Result<(), BootstrapError> {
        let prog = kill.prog;
        if let Some(mut c) = self.children.0[prog].take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        if kill.corrupt_wal {
            let dir = self.plan.wal_dir.as_deref().ok_or_else(|| {
                BootstrapError::Plan("corrupt_wal chaos without a journal directory".into())
            })?;
            corrupt_wal(Path::new(dir), prog)?;
        }
        let child = spawn_node(self.opts, &self.boot_addr, &self.token, prog, None)?;
        self.children.0[prog] = Some(child);
        let open: Vec<bool> = (0..self.writers.len()).map(|p| p == prog).collect();
        let joined = self.admit(&open, true)?;
        self.join(vec![joined], true)
    }
}

/// Runs one socket session end to end: spawn, handshake, go, drain,
/// merge. Returns the merged report, or a typed error if the session
/// could not even be brought up (post-`GO` failures are *data* — they
/// surface inside the report, not as `Err`).
pub fn run_plan(plan: &NodePlan, opts: &NetOptions) -> Result<NetReport, BootstrapError> {
    let topo = plan.topology().map_err(BootstrapError::Plan)?;
    let n = topo.programs.len();

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

    let (mut s, rx) = Session::new(opts, &plan, &dir, n)?;

    // Spawn every program as its own process, admit each through its
    // hello (rejecting anything that should not join this session), then
    // join them all.
    for prog in 0..n {
        let claim = opts.misclaim.and_then(|(p, c)| (p == prog).then_some(c));
        s.children.0[prog] = Some(spawn_node(opts, &s.boot_addr, &s.token, prog, claim)?);
    }
    let mut open = vec![true; n];
    let mut joining = Vec::with_capacity(n);
    while joining.len() < n {
        let joined = s.admit(&open, false)?;
        open[joined.0] = false;
        joining.push(joined);
    }
    s.join(joining, false)?;

    // The parent now only watches, until every program has reported or
    // died. Once each is app-done or dead, the survivors are told to
    // drain. The kill-restart chaos hooks in before that: the victim's
    // APP_DONE triggers the SIGKILL + restart instead of marking it done —
    // the *restarted* incarnation's APP_DONE is the one that counts.
    let mut pending_kill = opts.kill_restart;
    let mut expect_gone = vec![0usize; n];
    let mut app_done = vec![false; n];
    let mut gone = vec![false; n];
    let mut reports: Vec<Option<NodeReport>> = (0..n).map(|_| None).collect();
    let mut draining = false;
    loop {
        let over = |p: usize| gone[p] || reports[p].is_some();
        if !draining && (0..n).all(|p| app_done[p] || over(p)) {
            // Write errors are expected here — a child may have drained
            // early or died since its last event.
            let live = s.writers.iter_mut().enumerate().filter(|(p, _)| !over(*p));
            for w in live.filter_map(|(_, w)| w.as_mut()) {
                let _ = w.write_all(&codec::encode_bare(codec::KIND_DRAIN));
            }
            draining = true;
        }
        if draining && (0..n).all(over) {
            break;
        }
        let phase = ["application phase", "drain phase"][draining as usize];
        let remaining = s.deadline.saturating_duration_since(Instant::now());
        // The session holds a sender, so the queue never disconnects.
        let (p, event) = rx
            .recv_timeout(remaining)
            .map_err(|_| BootstrapError::Timeout(phase))?;
        match event {
            Event::AppDone if !draining && pending_kill.is_some_and(|k| k.prog == p) => {
                // The old incarnation's reader will see EOF and report it
                // dead; that death is expected, not a crash.
                expect_gone[p] += 1;
                s.restart(pending_kill.take().unwrap())?;
            }
            Event::AppDone => app_done[p] = true,
            Event::Report(rep) => reports[p] = Some(*rep),
            Event::Gone if expect_gone[p] > 0 => expect_gone[p] -= 1,
            Event::Gone => gone[p] = true,
        }
    }
    drop(s.events);
    drop(s.writers);
    for t in s.reader_threads {
        let _ = t.join();
    }

    // Reap within the deadline; anything still alive gets killed by the
    // guard below.
    for child in s.children.0.iter_mut() {
        let Some(c) = child.as_mut() else { continue };
        let exited = poll_until(s.deadline, || c.try_wait().transpose());
        if matches!(exited, Some(Ok(_))) {
            child.take();
        }
    }
    drop(s.children);

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
/// its EOF into events for the event loop.
fn reader_loop(prog: usize, mut reader: FrameReader, tx: mpsc::Sender<(usize, Event)>) {
    loop {
        let event = match reader.next(&mut || {}) {
            Ok(Some(f)) if f.kind == codec::KIND_APP_DONE => Event::AppDone,
            Ok(Some(f)) if f.kind == codec::KIND_REPORT => match codec::decode_report(&f.body) {
                Ok(rep) => Event::Report(Box::new(rep)),
                Err(_) => Event::Gone,
            },
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => Event::Gone,
        };
        let gone = matches!(event, Event::Gone);
        if tx.send((prog, event)).is_err() || gone {
            return;
        }
    }
}

/// Flips one byte early in the oldest journal segment of `prog`: a
/// mid-file record stops checksumming, which the reopened WAL must report
/// as corruption — never silently skip or truncate.
fn corrupt_wal(wal_dir: &Path, prog: usize) -> Result<(), BootstrapError> {
    let prefix = format!("node-{prog}.");
    let segs: Vec<PathBuf> = std::fs::read_dir(wal_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|f| f.to_str())
                .is_some_and(|f| f.starts_with(&prefix) && f.ends_with(".wal"))
        })
        .collect();
    let oldest = segs.iter().min();
    let path = oldest.ok_or_else(|| io::Error::other("no journal segment to corrupt"))?;
    let mut bytes = std::fs::read(path)?;
    if bytes.is_empty() {
        return Err(io::Error::other("journal segment is empty").into());
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

#[cfg(test)]
mod tests {
    use super::super::link::Addr;
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
        let verdict = admit_hello(conn, "tok", &[true, true], "hello").map(|(prog, ..)| prog);
        let reply = child.join().expect("child thread");
        let _ = std::fs::remove_file(dir.join(format!("{name}.sock")));
        (verdict, reply)
    }

    /// PLAN bytes changed with `RT_VERSION` 4 (the chaos plan carries one
    /// link-break probability where it carried drop-with-retry and
    /// permanent loss), so a node built at version 3 must be turned away
    /// at `HELLO`, with a `FATAL` telling it why — before any frame whose
    /// layout it would misread.
    #[test]
    fn hello_with_the_old_rt_version_is_refused_with_fatal() {
        assert_eq!(codec::RT_VERSION, 4, "bump this test with the version");
        let (verdict, reply) = hello_with_version(codec::RT_VERSION - 1);
        assert!(
            matches!(verdict, Err(BootstrapError::VersionSkew { got: 3 })),
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

    /// A plan with nothing to run: the scripted nodes below never parse it.
    fn empty_plan() -> NodePlan {
        NodePlan {
            config_text: String::new(),
            grid: (1, 1),
            exports: Vec::new(),
            imports: Vec::new(),
            buddy_help: false,
            import_timeout_s: 1.0,
            time_scale: 1.0,
            verify_values: false,
            traces: Vec::new(),
            chaos: None,
            fault: None,
            hierarchical: false,
            wal_dir: None,
            restart: false,
        }
    }

    /// A fresh session directory, removed when the guard drops.
    fn session_dir() -> DirCleanup {
        let dir = std::env::temp_dir().join(format!(
            "couplink-script-{}-{}",
            std::process::id(),
            SESSION_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("session dir");
        DirCleanup(dir)
    }

    /// One step of a scripted node: write these bytes, or read one frame.
    enum Step {
        Send(Vec<u8>),
        Read,
    }

    /// A scripted node on a thread of its own: dials `addr`, says `HELLO`
    /// claiming `prog`, plays `script`, and hangs up. Returns the frames it
    /// read; a read that fails ends the script.
    fn scripted_node(
        addr: Addr,
        token: String,
        prog: usize,
        script: Vec<Step>,
    ) -> std::thread::JoinHandle<Vec<wire::Frame>> {
        std::thread::spawn(move || {
            let mut conn = Conn::dial(&addr).expect("dial");
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            let mut reader = FrameReader::new(conn.try_clone().expect("clone"));
            let hello = codec::encode_hello(codec::KIND_HELLO, &token, prog);
            conn.write_all(&hello).expect("hello");
            let mut read = Vec::new();
            for step in script {
                match step {
                    Step::Send(bytes) => {
                        let _ = conn.write_all(&bytes);
                    }
                    Step::Read => match reader.next(&mut || {}) {
                        Ok(Some(f)) => read.push(f),
                        _ => break,
                    },
                }
            }
            read
        })
    }

    /// Boots a one-program session whose node follows `script` after its
    /// hello and the PLAN it reads; returns how the join ended, how long
    /// it took, and the frame kinds the node read.
    fn join_scripted(after_plan: Vec<Step>) -> (Result<(), BootstrapError>, Duration, Vec<u8>) {
        let dir = session_dir();
        let opts = NetOptions::new(PathBuf::from("true"));
        let plan = empty_plan();
        let (mut s, _events) = Session::new(&opts, &plan, &dir.0, 1).expect("session");
        let mut script = vec![Step::Read];
        script.extend(after_plan);
        let addr = s.listener.addr().expect("addr");
        let node = scripted_node(addr, s.token.clone(), 0, script);
        let start = Instant::now();
        let got = s.admit(&[true], false).and_then(|j| s.join(vec![j], false));
        let took = start.elapsed();
        drop(s);
        (got, took, kinds(node.join().expect("node thread")))
    }

    fn kinds(frames: Vec<wire::Frame>) -> Vec<u8> {
        frames.into_iter().map(|f| f.kind).collect()
    }

    /// The wire error a hostile join ended with, checked to have come well
    /// inside the 30 s read timeout.
    fn wire_error(script: Vec<Step>) -> (String, Vec<u8>) {
        let (got, took, read) = join_scripted(script);
        assert!(took < Duration::from_secs(5), "took {took:?}");
        match got {
            Err(BootstrapError::Wire(e)) => (e, read),
            other => panic!("expected a wire error, got {other:?}"),
        }
    }

    #[test]
    fn a_well_behaved_node_joins_and_hears_every_frame_in_order() {
        let (got, _, read) = join_scripted(vec![
            Step::Send(codec::encode_listening("uds:/mesh-0.sock")),
            Step::Read,
            Step::Send(codec::encode_bare(codec::KIND_READY)),
            Step::Read,
        ]);
        assert!(got.is_ok(), "{got:?}");
        let order = [codec::KIND_PLAN, codec::KIND_PEERS, codec::KIND_GO];
        assert_eq!(read, order);
    }

    /// Children are admitted in whatever order they dial, but the peer
    /// table is indexed by program: program 1 joining first must not put
    /// its address in slot 0.
    #[test]
    fn the_peer_table_is_in_program_order_whatever_order_children_join() {
        let dir = session_dir();
        let opts = NetOptions::new(PathBuf::from("true"));
        let plan = empty_plan();
        let (mut s, _events) = Session::new(&opts, &plan, &dir.0, 2).expect("session");
        let addr = s.listener.addr().expect("addr");
        let mut nodes = Vec::new();
        let mut joining = Vec::new();
        let mut open = vec![true; 2];
        for prog in [1, 0] {
            let script = vec![
                Step::Read,
                Step::Send(codec::encode_listening(&format!("uds:/mesh-{prog}.sock"))),
                Step::Read,
                Step::Send(codec::encode_bare(codec::KIND_READY)),
                Step::Read,
            ];
            nodes.push(scripted_node(addr.clone(), s.token.clone(), prog, script));
            let joined = s.admit(&open, false).expect("admit");
            assert_eq!(joined.0, prog);
            open[prog] = false;
            joining.push(joined);
        }
        s.join(joining, false).expect("join");
        drop(s);
        let table = vec!["uds:/mesh-0.sock".to_string(), "uds:/mesh-1.sock".into()];
        for node in nodes {
            let read = node.join().expect("node thread");
            assert_eq!(read[1].kind, codec::KIND_PEERS);
            assert_eq!(codec::decode_peers(&read[1].body).expect("peers"), table);
        }
    }

    #[test]
    fn ready_before_listening_fails_the_listening_phase() {
        let (e, read) = wire_error(vec![
            Step::Send(codec::encode_bare(codec::KIND_READY)),
            Step::Read,
        ]);
        let want = format!(
            "expected frame kind {} during listening, got {}",
            codec::KIND_LISTENING,
            codec::KIND_READY
        );
        assert_eq!(e, want);
        assert_eq!(read, [codec::KIND_PLAN], "no PEERS after a bad LISTENING");
    }

    #[test]
    fn a_fatal_frame_surfaces_its_text_and_phase() {
        let fatal = codec::encode_fatal("opening WAL: journal is corrupt");
        let (e, _) = wire_error(vec![Step::Send(fatal), Step::Read]);
        assert_eq!(e, "fatal during listening: opening WAL: journal is corrupt");
    }

    #[test]
    fn a_header_declaring_a_body_over_max_body_is_refused() {
        let mut frame = codec::encode_bare(codec::KIND_LISTENING);
        frame[4..8].copy_from_slice(&(wire::MAX_BODY + 1).to_le_bytes());
        let (e, _) = wire_error(vec![Step::Send(frame), Step::Read]);
        let oversize = wire::WireError::Oversize {
            len: wire::MAX_BODY + 1,
        };
        assert_eq!(e, format!("during listening: wire framing: {oversize}"));
    }

    #[test]
    fn eof_mid_handshake_fails_the_phase_it_cut() {
        let (e, read) = wire_error(vec![
            Step::Send(codec::encode_listening("uds:/mesh-0.sock")),
            Step::Read,
        ]);
        assert_eq!(e, "connection closed during ready");
        assert_eq!(read, [codec::KIND_PLAN, codec::KIND_PEERS]);
    }

    /// At a restart only the killed program is open: a replacement that
    /// claims a program another live process holds is a duplicate, and
    /// hears `FATAL` before any PLAN.
    #[test]
    fn a_restart_hello_claiming_another_program_is_refused() {
        let dir = session_dir();
        let opts = NetOptions::new(PathBuf::from("true"));
        let plan = empty_plan();
        let (mut s, _events) = Session::new(&opts, &plan, &dir.0, 2).expect("session");
        let addr = s.listener.addr().expect("addr");
        let node = scripted_node(addr, s.token.clone(), 1, vec![Step::Read]);
        let start = Instant::now();
        let kill = KillSpec {
            prog: 0,
            corrupt_wal: false,
        };
        let got = s.restart(kill);
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(
            matches!(got, Err(BootstrapError::DuplicateProgram { prog: 1 })),
            "{got:?}"
        );
        drop(s);
        assert_eq!(
            kinds(node.join().expect("node thread")),
            [codec::KIND_FATAL]
        );
    }
}
