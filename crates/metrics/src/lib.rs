//! Engine-wide instrumentation for the couplink runtimes.
//!
//! The paper's argument is quantitative: buddy-help pays off exactly when
//! the memcpy cost skipped on PENDING processes exceeds the control-message
//! overhead (Figures 4, 7–8, Equations 1–2). This crate gives the engine
//! first-class, *allocation-free* counters so every run can report that
//! trade-off directly instead of via ad-hoc stdout:
//!
//! * [`Counter`] — a relaxed atomic event counter;
//! * [`Gauge`] — a level with a high-water mark (queue depths, buffered
//!   objects);
//! * [`Histogram`] — fixed power-of-two buckets, atomically updated;
//! * [`PhaseTimes`] — per-phase accumulated **virtual** seconds (the
//!   discrete-event runtime) and **wall** seconds (the threaded fabric),
//!   with a span-style guard ([`PhaseTimes::wall_span`]) for the latter;
//! * [`EngineMetrics`] — one instance per run, shared by every node and
//!   transport of a runtime; declared, with its [`CounterSnapshot`], by the
//!   one `counters!` table below (adding a counter is adding a row).
//!
//! All hot-path operations are single atomic RMWs — no locks, no
//! allocation. A run ends with [`EngineMetrics::snapshot`]: the
//! [`CounterSnapshot`] half is bit-identical across two DES runs of one
//! topology (a gated assertion in the bench harness), the
//! [`TimingSnapshot`] half carries wall-clock readings that legally vary.
//!
//! The [`json`] module provides the minimal JSON emitter/parser behind the
//! schema-versioned `BENCH_couplink.json` benchmark report (the build
//! environment has no registry access, so serde is a no-op shim here).

#![warn(missing_docs)]

pub mod json;

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonically increasing event counter (relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A level gauge with a high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    current: AtomicU64,
    hwm: AtomicU64,
}

impl Gauge {
    /// Sets the level, raising the high-water mark if exceeded.
    pub fn set(&self, level: u64) {
        self.current.store(level, Ordering::Relaxed);
        self.hwm.fetch_max(level, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    pub fn add(&self, n: u64) {
        let level = self.current.fetch_add(n, Ordering::Relaxed) + n;
        self.hwm.fetch_max(level, Ordering::Relaxed);
    }

    /// Lowers the level by `n` (saturating).
    pub fn sub(&self, n: u64) {
        let lower = |cur: u64| Some(cur.saturating_sub(n));
        let _ = self
            .current
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, lower);
    }

    /// Current level.
    pub fn level(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    /// Highest level ever set.
    pub fn high_water_mark(&self) -> u64 {
        self.hwm.load(Ordering::Relaxed)
    }
}

/// Number of buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed-bucket histogram over `u64` samples: bucket `i < 15` holds
/// samples in `[2^(i-1)+1 … 2^i]` (bucket 0 holds zeros and ones), the last
/// bucket everything larger. Atomic, allocation-free.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// The bucket index a sample falls in.
    pub fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            // Smallest i with value <= 2^i, capped at the overflow bucket.
            let bits = u64::BITS - (value - 1).leading_zeros();
            (bits as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn observe(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-bucket counts.
    pub fn counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }
}

/// Row flag `inert`: meters the reliability / recovery machinery itself,
/// so it must read 0 on a run configured without faults.
pub const INERT: u8 = 1;
/// Row flag `exact`: fixed by the match decisions alone, so fault-free
/// runs of one scenario agree on it whatever the transport.
pub const EXACT: u8 = 2;
/// Row flag `retired`: nothing writes the row any more, so it reads 0; it
/// stays in the table only while frozen formats name it (the benchmark's
/// per-layer rows, the REPORT frame's counter JSON).
pub const RETIRED: u8 = 4;

/// The control-message classes, one row each: doc, variant, stable name,
/// row flags (0, [`INERT`] or [`EXACT`]).
macro_rules! ctrl_classes {
    ($($(#[$doc:meta])* $class:ident = $name:literal [$flags:expr],)*) => {
        /// Control-message classes, mirroring the protocol's wire messages:
        /// the runtimes map their `CtrlMsg` variants onto these to count
        /// traffic per class without this crate depending on that layer.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum CtrlClass {
            $($(#[$doc])* $class,)*
        }

        impl CtrlClass {
            /// All classes, in declaration (`class as usize`) and wire order.
            pub const ALL: [CtrlClass; 8] = [$(CtrlClass::$class,)*];

            /// Stable snake_case name (snapshot / JSON key suffix).
            pub fn as_str(self) -> &'static str {
                match self {
                    $(CtrlClass::$class => $name,)*
                }
            }

            /// The class's counter name in `fields()` and the JSON encoding.
            fn key(self) -> String {
                format!("ctrl_{}", self.as_str())
            }

            fn flags(self) -> u8 {
                match self {
                    $(CtrlClass::$class => $flags,)*
                }
            }
        }
    };
}

// One import call / request / decided answer / per-rank forward or broadcast
// per import is exact; `Response` updates and `BuddyHelp` depend on response
// timing; acks exist only once reliability is armed.
ctrl_classes! {
    /// A process's collective `import` call reaching its own rep.
    ImportCall = "import_call" [EXACT],
    /// The importer rep's aggregated request to the exporter rep.
    ImportRequest = "import_request" [EXACT],
    /// The exporter rep forwarding a request to every process.
    ForwardRequest = "forward_request" [EXACT],
    /// A process's reply (MATCH / NO MATCH / PENDING) to its rep.
    Response = "response" [0],
    /// The exporter rep's final-answer notification to PENDING processes.
    BuddyHelp = "buddy_help" [0],
    /// The exporter rep's collective answer to the importer rep.
    Answer = "answer" [EXACT],
    /// The importer rep broadcasting the answer to its processes.
    AnswerBcast = "answer_bcast" [EXACT],
    /// A reliability-layer acknowledgement of a sequenced message.
    Ack = "ack" [INERT],
}

/// Engine phases whose time is accounted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Inside an `export` call (memcpy + bookkeeping).
    Export,
    /// Inside an `import` call (waiting for the collective answer + data).
    Import,
    /// Control-message latency.
    Ctrl,
    /// Matched-data transfer.
    Transfer,
}

impl Phase {
    /// All phases, in declaration (`phase as usize`) and snapshot field order.
    pub const ALL: [Phase; 4] = [Phase::Export, Phase::Import, Phase::Ctrl, Phase::Transfer];

    /// Stable snake_case name (snapshot / JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Export => "export",
            Phase::Import => "import",
            Phase::Ctrl => "ctrl",
            Phase::Transfer => "transfer",
        }
    }
}

/// Atomically accumulated `f64` seconds (bit-cast CAS loop).
#[derive(Debug, Default)]
struct AtomicSeconds(AtomicU64);

impl AtomicSeconds {
    fn add(&self, secs: f64) {
        let sum = |cur: u64| Some((f64::from_bits(cur) + secs).to_bits());
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, sum);
    }

    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Per-phase time accounting: virtual seconds (charged by the
/// discrete-event runtime's cost model) and wall seconds (measured by the
/// threaded fabric).
#[derive(Debug, Default)]
pub struct PhaseTimes {
    virtual_s: [AtomicSeconds; Phase::ALL.len()],
    wall_s: [AtomicSeconds; Phase::ALL.len()],
}

/// Span-style guard: measures wall time from creation to drop and adds it
/// to one phase's wall accumulator.
#[derive(Debug)]
pub struct WallSpan<'a> {
    times: &'a PhaseTimes,
    phase: Phase,
    start: Instant,
}

impl Drop for WallSpan<'_> {
    fn drop(&mut self) {
        self.times
            .add_wall(self.phase, self.start.elapsed().as_secs_f64());
    }
}

impl PhaseTimes {
    /// Charges virtual seconds to a phase.
    pub fn add_virtual(&self, phase: Phase, secs: f64) {
        self.virtual_s[phase as usize].add(secs);
    }

    /// Charges wall seconds to a phase.
    pub fn add_wall(&self, phase: Phase, secs: f64) {
        self.wall_s[phase as usize].add(secs);
    }

    /// Opens a span that charges its wall duration to `phase` on drop.
    pub fn wall_span(&self, phase: Phase) -> WallSpan<'_> {
        WallSpan {
            times: self,
            phase,
            start: Instant::now(),
        }
    }

    /// Accumulated virtual seconds of a phase.
    pub fn virtual_seconds(&self, phase: Phase) -> f64 {
        self.virtual_s[phase as usize].get()
    }

    /// Accumulated wall seconds of a phase.
    pub fn wall_seconds(&self, phase: Phase) -> f64 {
        self.wall_s[phase as usize].get()
    }
}

/// The live per-class counter array (indexed like [`CtrlClass::ALL`]).
pub type PerClass = [Counter; CtrlClass::ALL.len()];

/// A table row's kind — its live metric, and with it what the row snapshots
/// to: a `Counter` as a `u64` of the same name, a `Gauge` as its high-water
/// mark under the name after `=>`, `PerClass` as the `ctrl_<class>` scalars,
/// a `Histogram` as its bucket array (JSON only, not in `fields()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    PerClass,
    Histogram,
}

/// Per kind: the snapshot field type, and the read of the live metric.
macro_rules! kind {
    (PerClass) => {
        [u64; CtrlClass::ALL.len()]
    };
    (Histogram) => {
        [u64; HISTOGRAM_BUCKETS]
    };
    ($scalar:ident) => {
        u64
    };
    (Counter $live:expr) => {
        $live.get()
    };
    (Gauge $live:expr) => {
        $live.high_water_mark()
    };
    (PerClass $live:expr) => {
        std::array::from_fn(|i| $live[i].get())
    };
    (Histogram $live:expr) => {
        $live.counts()
    };
}

/// A snapshot value as a run of `u64` cells, so that merging, `fields()`
/// and the JSON codec are loops over rows.
trait Cells {
    fn cells(&self) -> &[u64];
    fn cells_mut(&mut self) -> &mut [u64];
}

impl Cells for u64 {
    fn cells(&self) -> &[u64] {
        std::slice::from_ref(self)
    }
    fn cells_mut(&mut self) -> &mut [u64] {
        std::slice::from_mut(self)
    }
}

impl<const N: usize> Cells for [u64; N] {
    fn cells(&self) -> &[u64] {
        self
    }
    fn cells_mut(&mut self) -> &mut [u64] {
        self
    }
}

/// One snapshot row as the generic code sees it: `(name, kind, flags, cells)`.
type Row<C> = (&'static str, Kind, u8, C);

/// The one table of engine metrics. A row reads
/// `/// doc` `live_name: Kind [=> snapshot_name] [[FLAG, ..]],` and yields a
/// plain field of [`EngineMetrics`], a field of [`CounterSnapshot`], its read
/// in `snapshot()`, and its entry in the row lists that `merge_process`,
/// `fields()`, `flagged()` and the JSON codec loop over — in row order, which
/// is therefore the order of every committed report. Live fields of one kind
/// also sit in memory in row order, so moving a hot gauge changes which
/// atomics share its cache line (`bench e2e` `ctrl_small` shows a few percent).
macro_rules! counters {
    ($($(#[$doc:meta])* $live:ident: $kind:ident $(=> $snap:ident)? $([$($flag:ident),*])?,)*) => {
        counters!(@emit $({ $(#[$doc])* $live $kind [$($snap)? $live] [$($($flag)*)?] })*);
    };
    (@emit $({
        $(#[$doc:meta])* $live:ident $kind:ident [$snap:ident $($_live:ident)?] [$($flag:ident)*]
    })*) => {
        /// One run's worth of engine instrumentation, shared (via `Arc`) by
        /// every node and transport of a runtime.
        #[derive(Debug, Default)]
        pub struct EngineMetrics {
            $($(#[$doc])* pub $live: $kind,)*
            /// Per-phase virtual/wall time.
            pub phases: PhaseTimes,
        }

        /// The deterministic half of a run's metrics: two DES runs of one
        /// topology must agree exactly, and `Eq` makes that a one-liner.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $snap: kind!($kind),)*
        }

        impl EngineMetrics {
            /// Fresh, zeroed metrics for one run.
            pub fn new() -> Self {
                Self::default()
            }

            /// Counter for one control-message class.
            pub fn ctrl(&self, class: CtrlClass) -> &Counter {
                &self.ctrl_sent[class as usize]
            }

            /// Snapshots every metric.
            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    counters: CounterSnapshot { $($snap: kind!($kind self.$live),)* },
                    timing: TimingSnapshot {
                        virtual_s: Phase::ALL.map(|p| self.phases.virtual_seconds(p)),
                        wall_s: Phase::ALL.map(|p| self.phases.wall_seconds(p)),
                    },
                }
            }
        }

        impl CounterSnapshot {
            fn rows(&self) -> Vec<Row<&[u64]>> {
                vec![$((stringify!($snap), Kind::$kind, 0 $(| $flag)*, self.$snap.cells()),)*]
            }

            fn rows_mut(&mut self) -> Vec<Row<&mut [u64]>> {
                vec![$((stringify!($snap), Kind::$kind, 0 $(| $flag)*, self.$snap.cells_mut()),)*]
            }
        }

        /// The rows' live field names, in row order.
        #[cfg(test)]
        const LIVE_NAMES: &[&str] = &[$(stringify!($live),)*];
    };
}

counters! {
    /// Export calls that paid the framework-buffer memcpy.
    memcpy_paid: Counter,
    /// Export calls whose memcpy was skipped (the buddy-help saving).
    memcpy_skipped: Counter,
    /// Bytes copied into framework buffers (the paid memcpys).
    bytes_buffered: Counter,
    /// Data bytes moved to importers.
    bytes_transferred: Counter,
    /// Control messages sent, by class (indexed like [`CtrlClass::ALL`]);
    /// origin sends only, tree relay hops are metered in `ctrl_relay`.
    ctrl_sent: PerClass,
    /// Matched-object transfers emitted by exporting processes.
    transfers: Counter [EXACT],
    /// Export calls entered (paid + skipped).
    export_calls: Counter [EXACT],
    /// Collective import calls entered.
    import_calls: Counter [EXACT],
    /// Export attempts stalled on a full bounded buffer.
    buffer_stalls: Counter,
    /// Sequenced control messages re-sent when their link re-formed
    /// (`Reliability::reform`: one per resend).
    retransmits: Counter [INERT],
    /// Link failures detected: one per re-form of a broken link, a
    /// recovered rep's links or a re-installed socket, whether it resends
    /// or abandons what was pending.
    timeouts: Counter [INERT],
    /// Rep-role recoveries: successor takeovers and crash restarts.
    failovers: Counter [INERT],
    /// Buddy-help announcements abandoned by the reliability layer — each
    /// one a skip opportunity degraded to conservative buffering.
    degraded_buffers: Counter [INERT],
    /// Physical payload buffers allocated by the threaded data plane: with
    /// zero-copy sharing one per buffered object whose region's spare
    /// could not take the copy, so at most `memcpy_paid` (0 on the DES,
    /// which models copies without materializing them).
    payload_allocs: Counter,
    /// Control messages re-sent by a relay rank to its distribution-tree
    /// subtree, never double-counted in `ctrl_sent` (0 in flat mode).
    ctrl_relay: Counter,
    /// Coalesced collective frames sent, origin + relay: an answer broadcast
    /// or one match's buddy-help folded into one tree-routed message (0 in
    /// flat mode).
    ctrl_coalesced: Counter,
    /// Wire frames sent by the socket transport (0 on DES/threaded).
    net_frames: Counter,
    /// Bytes written to sockets, headers included (0 on DES/threaded).
    net_bytes: Counter,
    /// Peer connections re-established after a drop (0 on DES/threaded).
    net_reconnects: Counter [INERT],
    /// Inbound frames the wire codec rejected — truncated, version-skewed
    /// or checksum-failed (0 on DES/threaded and on any uncorrupted wire).
    net_codec_rejects: Counter [INERT],
    /// Write syscalls issued by the socket tx path (0 on DES/threaded); one
    /// vectored syscall can carry many frames (`bench e2e` reports the
    /// ratio as `net.syscalls_per_frame`).
    net_syscalls: Counter,
    /// Frames that shared their vectored write syscall with at least one
    /// other frame (0 on DES/threaded).
    net_writev_frames: Counter,
    /// `BufPool` takes served from a shelved allocation. No runtime path
    /// takes from the pool (a piece is sent by reference), so 0 on every
    /// runtime; only the benchmark's layer replay meters it.
    net_pool_hits: Counter,
    /// `BufPool` takes that allocated afresh; 0 on every runtime, like
    /// `net_pool_hits`.
    net_pool_misses: Counter,
    /// Wire frames received and dispatched by the socket transport
    /// (0 on DES/threaded). Clean runs conserve: Σ rx == Σ tx.
    net_rx_frames: Counter,
    /// Bytes received off sockets as dispatched frames, headers included
    /// (0 on DES/threaded). Clean runs conserve: Σ rx == Σ tx.
    net_rx_bytes: Counter,
    /// Records appended to a durable write-ahead journal (0 with the
    /// in-memory backend, i.e. on DES/threaded and on clean socket runs).
    wal_appends: Counter,
    /// Bytes appended to a durable write-ahead journal, framing included.
    wal_bytes: Counter,
    /// Records replayed from a write-ahead journal on restart.
    wal_replayed: Counter [INERT],
    /// Torn-tail truncations on opening a write-ahead journal (at most one
    /// per open: a crash mid-append leaves one partial record).
    wal_truncated: Counter [INERT],
    /// Wall nanoseconds threads spent waiting on *contended* hot-path locks
    /// (threaded fabric only; informational, never gated).
    lock_wait_ns: Counter,
    /// Task polls executed by the threaded executor (0 on DES).
    tasks_polled: Counter,
    /// Always 0: tasks a pool worker stole from another worker's run-queue
    /// shard, when the executor had one shard per worker. Its one run
    /// queue has nothing to steal from; `tasks_polled - tasks_chained`
    /// counts the polls taken off it.
    worker_steal: Counter [RETIRED],
    /// Task polls a thread took from its own run-next list — tasks it had
    /// made runnable itself — instead of from the run queue (threaded
    /// executor only; 0 on DES).
    tasks_chained: Counter,
    /// Objects held in framework buffers; the snapshot keeps the peak.
    buffered_objects: Gauge => buffered_hwm,
    /// Pending messages/events per node queue (the DES event queue; the
    /// fabric's rep/agent mailboxes); the snapshot keeps the peak.
    queue_depth: Gauge => queue_depth_hwm,
    /// Tasks sitting in the executor's run queues; the peak is
    /// bounded by the live task count (at most once queued; 0 on DES).
    runq_depth: Gauge => runq_depth_hwm,
    /// Depth of the k-ary distribution tree, identical in every process,
    /// so the max-merge keeps it (0 in flat fan-out mode).
    tree_depth: Gauge => tree_depth,
    /// Bytes buffered in a socket receive ring awaiting a complete frame;
    /// the snapshot keeps the peak — the rx memory bound (0 on DES/threaded).
    net_rx_buf: Gauge => net_rx_buf_hwm,
    /// Buffered-object count observed at each export call.
    occupancy: Histogram,
    /// Time-to-recovery samples in milliseconds (crash → rep role
    /// re-established), virtual on the DES, wall on the fabric.
    recovery_ms: Histogram,
    /// Messages drained per executor task poll (threaded executor only;
    /// empty on DES).
    poll_batch: Histogram,
}

impl CounterSnapshot {
    /// Control messages of one class.
    pub fn ctrl(&self, class: CtrlClass) -> u64 {
        self.ctrl_sent[class as usize]
    }

    /// Folds another **process's** snapshot into this one — the socket
    /// runtime's orchestrator sums the per-process reports into the
    /// session-wide view. Flow counters add (each message/byte/frame is
    /// metered by exactly one process), histograms add bucket-wise, and
    /// high-water marks take the per-process maximum (a peak is local to
    /// one pool, not a flow).
    pub fn merge_process(&mut self, other: &CounterSnapshot) {
        for ((_, kind, _, mine), (.., theirs)) in self.rows_mut().into_iter().zip(other.rows()) {
            let peak = kind == Kind::Gauge;
            for (m, &t) in mine.iter_mut().zip(theirs) {
                *m = if peak { (*m).max(t) } else { *m + t };
            }
        }
    }

    /// Every scalar as `(name, value, flags)`, in table order.
    fn scalars(&self) -> Vec<(String, u64, u8)> {
        let mut out = Vec::new();
        for (name, kind, flags, cells) in self.rows() {
            match kind {
                Kind::Counter | Kind::Gauge => out.push((name.to_string(), cells[0], flags)),
                Kind::PerClass => {
                    let classes = CtrlClass::ALL.iter().zip(cells);
                    out.extend(classes.map(|(c, &v)| (c.key(), v, c.flags())));
                }
                Kind::Histogram => {}
            }
        }
        out
    }

    /// Every scalar metric as `(name, value)`, in stable order — the
    /// regression gate and the JSON encoding both iterate this, so the two
    /// can never drift apart.
    pub fn fields(&self) -> Vec<(String, u64)> {
        let scalars = self.scalars().into_iter();
        scalars.map(|(name, value, _)| (name, value)).collect()
    }

    /// The [`fields`](Self::fields) names of the rows (and control classes)
    /// carrying `flag` — [`INERT`], [`EXACT`] or [`RETIRED`].
    pub fn flagged(flag: u8) -> Vec<String> {
        let scalars = Self::default().scalars().into_iter();
        let flagged = scalars.filter(|&(_, _, flags)| flags & flag != 0);
        flagged.map(|(name, ..)| name).collect()
    }

    /// Encodes the snapshot as a JSON object (scalars via [`Self::fields`],
    /// then one bucket array per histogram).
    pub fn to_json(&self) -> json::Value {
        let scalars = self.fields().into_iter();
        let mut obj: Vec<_> = scalars.map(|(k, v)| (k, json::Value::from(v))).collect();
        for (name, kind, _, cells) in self.rows() {
            if kind == Kind::Histogram {
                let buckets = cells.iter().map(|&c| json::Value::from(c));
                obj.push((name.to_string(), json::Value::Array(buckets.collect())));
            }
        }
        json::Value::Object(obj)
    }

    /// Decodes a snapshot from the JSON produced by [`Self::to_json`].
    pub fn from_json(v: &json::Value) -> Result<Self, String> {
        let bad = |name: &str| format!("counter snapshot: missing/invalid field {name}");
        let field = |name: &str| {
            v.get(name)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| bad(name))
        };
        let mut out = Self::default();
        for (name, kind, _, cells) in out.rows_mut() {
            match kind {
                Kind::Counter | Kind::Gauge => cells[0] = field(name)?,
                Kind::PerClass => {
                    for (cell, class) in cells.iter_mut().zip(CtrlClass::ALL) {
                        *cell = field(&class.key())?;
                    }
                }
                Kind::Histogram => {
                    let arr = v.get(name).and_then(json::Value::as_array);
                    let arr = arr
                        .filter(|a| a.len() == cells.len())
                        .ok_or_else(|| bad(name))?;
                    for (cell, bucket) in cells.iter_mut().zip(arr) {
                        *cell = bucket.as_u64().ok_or_else(|| bad(name))?;
                    }
                }
            }
        }
        Ok(out)
    }
}

/// The timing half of a run's metrics: per-phase virtual seconds
/// (deterministic on the DES) and wall seconds (never deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSnapshot {
    /// Virtual seconds per phase (indexed like [`Phase::ALL`]).
    pub virtual_s: [f64; Phase::ALL.len()],
    /// Wall seconds per phase (indexed like [`Phase::ALL`]).
    pub wall_s: [f64; Phase::ALL.len()],
}

impl TimingSnapshot {
    /// Virtual seconds of one phase.
    pub fn virtual_seconds(&self, phase: Phase) -> f64 {
        self.virtual_s[phase as usize]
    }

    /// Wall seconds of one phase.
    pub fn wall_seconds(&self, phase: Phase) -> f64 {
        self.wall_s[phase as usize]
    }
}

/// A complete end-of-run metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Deterministic event counts.
    pub counters: CounterSnapshot,
    /// Phase timings (virtual deterministic, wall not).
    pub timing: TimingSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::default();
        g.add(3);
        g.add(4);
        g.sub(5);
        assert_eq!(g.level(), 2);
        assert_eq!(g.high_water_mark(), 7);
        g.set(1);
        assert_eq!(g.level(), 1);
        assert_eq!(g.high_water_mark(), 7);
        g.sub(10);
        assert_eq!(g.level(), 0, "sub saturates");
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        assert_eq!(Histogram::bucket_of(1 << 40), HISTOGRAM_BUCKETS - 1);
        let h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(16);
        let counts = h.counts();
        assert_eq!(counts[0], 2);
        assert_eq!(counts[4], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn phase_times_accumulate() {
        let m = EngineMetrics::new();
        m.phases.add_virtual(Phase::Export, 1.5);
        m.phases.add_virtual(Phase::Export, 0.25);
        m.phases.add_wall(Phase::Ctrl, 0.5);
        {
            let _span = m.phases.wall_span(Phase::Import);
        }
        let snap = m.snapshot();
        assert_eq!(snap.timing.virtual_seconds(Phase::Export), 1.75);
        assert_eq!(snap.timing.wall_seconds(Phase::Ctrl), 0.5);
        assert!(snap.timing.wall_seconds(Phase::Import) >= 0.0);
    }

    #[test]
    fn live_metrics_snapshot_into_their_rows() {
        let m = EngineMetrics::new();
        m.memcpy_paid.add(7);
        m.ctrl(CtrlClass::BuddyHelp).add(2);
        m.ctrl(CtrlClass::Ack).add(9);
        m.buffered_objects.add(5);
        m.buffered_objects.sub(4);
        m.tree_depth.set(3);
        m.recovery_ms.observe(120);
        let snap = m.snapshot().counters;
        let mut want = CounterSnapshot {
            memcpy_paid: 7,
            buffered_hwm: 5,
            tree_depth: 3,
            ..Default::default()
        };
        want.ctrl_sent[CtrlClass::BuddyHelp as usize] = 2;
        want.ctrl_sent[CtrlClass::Ack as usize] = 9;
        want.recovery_ms[Histogram::bucket_of(120)] = 1;
        assert_eq!(snap, want);
        assert_eq!(snap.ctrl(CtrlClass::Ack), 9);
    }

    /// A snapshot whose every cell of every row holds a distinct value
    /// above `base`.
    fn distinct(base: u64) -> CounterSnapshot {
        let mut snap = CounterSnapshot::default();
        let mut next = base;
        for (.., cells) in snap.rows_mut() {
            for cell in cells {
                next += 1;
                *cell = next;
            }
        }
        snap
    }

    #[test]
    fn every_row_roundtrips_through_json_text() {
        let snap = distinct(100);
        let text = json::emit(&snap.to_json());
        let parsed = json::parse(&text).expect("valid JSON");
        assert_eq!(CounterSnapshot::from_json(&parsed), Ok(snap));
    }

    /// The committed smoke baseline flattens a snapshot as `fields()` and
    /// then the histogram buckets: its key order is the committed order.
    #[test]
    fn field_names_are_unique_and_in_the_committed_order() {
        let names: Vec<String> = distinct(0).fields().into_iter().map(|f| f.0).collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate field name");
        let baseline = include_str!("../../../baselines/BENCH_baseline_smoke.json");
        let baseline = json::parse(baseline).expect("baseline parses");
        let scenario = &baseline
            .get("scenarios")
            .and_then(json::Value::as_array)
            .unwrap()[0];
        let committed = scenario
            .get("counters")
            .and_then(json::Value::as_object)
            .unwrap();
        let committed: Vec<&str> = committed.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, committed[..names.len()]);
        for (name, kind, ..) in distinct(0).rows() {
            let bucket0 = format!("{name}_b00");
            assert_eq!(
                kind == Kind::Histogram,
                committed.contains(&bucket0.as_str())
            );
        }
    }

    #[test]
    fn merge_adds_flows_and_buckets_and_keeps_the_larger_peak() {
        let (small, large) = (distinct(0), distinct(1000));
        for (mut acc, other) in [(small.clone(), &large), (large.clone(), &small)] {
            acc.merge_process(other);
            let rows = acc.rows().into_iter().zip(small.rows()).zip(large.rows());
            for (((name, kind, _, got), (.., a)), (.., b)) in rows {
                for ((got, a), b) in got.iter().zip(a).zip(b) {
                    let want = if kind == Kind::Gauge { *b } else { a + b };
                    assert_eq!(*got, want, "{name}");
                }
            }
        }
    }

    #[test]
    fn flags_name_the_gated_rows() {
        let inert = CounterSnapshot::flagged(INERT);
        let exact = CounterSnapshot::flagged(EXACT);
        for name in ["retransmits", "ctrl_ack", "wal_truncated"] {
            assert!(inert.iter().any(|n| n == name), "{name} must be inert");
        }
        for name in ["import_calls", "transfers", "ctrl_answer_bcast"] {
            assert!(exact.iter().any(|n| n == name), "{name} must be exact");
        }
        assert!(
            !inert.iter().any(|n| exact.contains(n)),
            "a row is one or the other"
        );
        assert!(!exact
            .iter()
            .any(|n| n == "ctrl_response" || n == "ctrl_buddy_help"));
    }

    /// Dropping or mistyping any one key of the encoding is an `Err` that
    /// names the row, never a default-filled snapshot.
    #[test]
    fn a_missing_or_mistyped_field_is_an_error() {
        let json::Value::Object(good) = distinct(7).to_json() else {
            panic!("snapshot encodes as an object");
        };
        for i in 0..good.len() {
            let key = good[i].0.clone();
            let mut missing = good.clone();
            missing.remove(i);
            let mut mistyped = good.clone();
            mistyped[i].1 = json::Value::from("seven");
            let mut bad = vec![missing, mistyped];
            if let json::Value::Array(buckets) = &good[i].1 {
                let mut short = good.clone();
                short[i].1 = json::Value::Array(buckets[1..].to_vec());
                let mut holed = good.clone();
                let mut cells = buckets.clone();
                cells[3] = json::Value::Number(-1.5);
                holed[i].1 = json::Value::Array(cells);
                bad.extend([short, holed]);
            }
            for obj in bad {
                let err = CounterSnapshot::from_json(&json::Value::Object(obj)).unwrap_err();
                assert!(err.contains(&key), "{err} should name {key}");
            }
        }
    }

    /// EXPERIMENTS.md documents every counter: a row added to the table
    /// without a line there fails here.
    #[test]
    fn every_row_is_documented_in_experiments_md() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let mentions = |name: &str| {
            let forms = [
                format!("`{name}`"),
                format!(".{name}`"),
                format!("{name}_b*`"),
            ];
            forms.iter().any(|form| doc.contains(form))
        };
        for (name, kind, ..) in distinct(0).rows() {
            if kind == Kind::PerClass {
                for class in CtrlClass::ALL {
                    assert!(
                        mentions(class.as_str()) || mentions(&class.key()),
                        "{class:?}"
                    );
                }
            } else {
                assert!(mentions(name), "{name} is not documented");
            }
        }
    }

    /// The documentation names only files that exist: every back-ticked
    /// token of DESIGN.md, EXPERIMENTS.md and README.md that starts with a
    /// source directory and ends in a file name with an extension (a
    /// trailing `:line` aside) is a path from the repository root.
    #[test]
    fn documented_paths_exist() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let dirs = [
            "crates/",
            "tests/",
            "examples/",
            "baselines/",
            "shims/",
            "bench/",
        ];
        for doc in ["DESIGN.md", "EXPERIMENTS.md", "README.md"] {
            let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
            // Every second piece of a split on '`' is a back-ticked span.
            for span in text.split('`').skip(1).step_by(2) {
                let token = span.split([' ', ':']).next().unwrap_or(span);
                let file = token.rsplit('/').next().unwrap_or(token);
                if dirs.iter().any(|d| token.starts_with(d)) && file.contains('.') {
                    assert!(root.join(token).exists(), "{doc} names `{token}`");
                }
            }
        }
    }

    /// A counter that nobody writes is not a measurement: every row is
    /// mutated (`.row.inc(`, `.add(`, `.sub(`, `.set(`, `.observe(`; the
    /// per-class array through `.ctrl(class)`) somewhere in the other
    /// crates' sources — except a [`RETIRED`] row, which nothing may
    /// write.
    #[test]
    fn every_row_has_a_writer() {
        fn read_sources(dir: &std::path::Path, out: &mut String) {
            for entry in std::fs::read_dir(dir).expect("readable source dir") {
                let path = entry.expect("dir entry").path();
                if path.is_dir() {
                    read_sources(&path, out);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    // Without whitespace: rustfmt breaks long method chains.
                    let text = std::fs::read_to_string(&path).expect("utf-8 source");
                    out.extend(text.split_whitespace());
                }
            }
        }
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let mut code = String::new();
        for entry in std::fs::read_dir(crates).expect("crates dir") {
            let krate = entry.expect("dir entry").path();
            if !krate.ends_with("metrics") {
                read_sources(&krate.join("src"), &mut code);
            }
        }
        let writes = [".inc(", ".add(", ".sub(", ".set(", ".observe("];
        for (live, (_, kind, flags, _)) in LIVE_NAMES.iter().zip(distinct(0).rows()) {
            let access = match kind {
                Kind::PerClass => ".ctrl(".to_string(),
                _ => format!(".{live}"),
            };
            let written = code.match_indices(&access).any(|(at, _)| {
                let rest = &code[at + access.len()..];
                let rest = match kind {
                    Kind::PerClass => rest.split_once(')').map_or("", |(_, after)| after),
                    _ => rest,
                };
                writes.iter().any(|w| rest.starts_with(w))
            });
            if flags & RETIRED != 0 {
                assert!(!written, "{live} is retired but written");
            } else {
                assert!(written, "{live} has no writer outside crates/metrics");
            }
        }
    }

    #[test]
    fn identical_runs_snapshot_identically() {
        let run = || {
            let m = EngineMetrics::new();
            for i in 0..100u64 {
                m.export_calls.inc();
                if i % 3 == 0 {
                    m.memcpy_skipped.inc();
                } else {
                    m.memcpy_paid.inc();
                    m.bytes_buffered.add(4096);
                }
                m.buffered_objects.add(1);
                m.occupancy.observe(m.buffered_objects.level());
                if i % 10 == 9 {
                    m.buffered_objects.sub(8);
                }
            }
            m.snapshot().counters
        };
        assert_eq!(run(), run());
    }
}
