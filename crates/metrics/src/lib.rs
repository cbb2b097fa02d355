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
//!   transport of either runtime.
//!
//! All hot-path operations are single atomic RMWs — no locks, no
//! allocation. A run ends with [`EngineMetrics::snapshot`], yielding a
//! [`MetricsSnapshot`] whose [`CounterSnapshot`] half is **deterministic on
//! the discrete-event runtime**: two DES runs of the same topology must
//! produce bit-identical counter snapshots (a gated assertion in the bench
//! harness), while the [`TimingSnapshot`] half carries wall-clock readings
//! that legally vary.
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
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

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
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge {
            current: AtomicU64::new(0),
            hwm: AtomicU64::new(0),
        }
    }

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
        let mut cur = self.current.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.current.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
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
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

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

/// Control-message classes, mirroring the protocol's wire messages. The
/// runtimes map their `CtrlMsg` variants onto these to count traffic per
/// class without this crate depending on the protocol layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlClass {
    /// A process's collective `import` call reaching its own rep.
    ImportCall,
    /// The importer rep's aggregated request to the exporter rep.
    ImportRequest,
    /// The exporter rep forwarding a request to every process.
    ForwardRequest,
    /// A process's reply (MATCH / NO MATCH / PENDING) to its rep.
    Response,
    /// The exporter rep's final-answer notification to PENDING processes.
    BuddyHelp,
    /// The exporter rep's collective answer to the importer rep.
    Answer,
    /// The importer rep broadcasting the answer to its processes.
    AnswerBcast,
    /// A reliability-layer acknowledgement of a sequenced message.
    Ack,
    /// A liveness heartbeat from a rep to its member processes.
    Heartbeat,
}

impl CtrlClass {
    /// All classes, in wire-protocol order (also the snapshot field order).
    pub const ALL: [CtrlClass; 9] = [
        CtrlClass::ImportCall,
        CtrlClass::ImportRequest,
        CtrlClass::ForwardRequest,
        CtrlClass::Response,
        CtrlClass::BuddyHelp,
        CtrlClass::Answer,
        CtrlClass::AnswerBcast,
        CtrlClass::Ack,
        CtrlClass::Heartbeat,
    ];

    /// Stable snake_case name (snapshot / JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            CtrlClass::ImportCall => "import_call",
            CtrlClass::ImportRequest => "import_request",
            CtrlClass::ForwardRequest => "forward_request",
            CtrlClass::Response => "response",
            CtrlClass::BuddyHelp => "buddy_help",
            CtrlClass::Answer => "answer",
            CtrlClass::AnswerBcast => "answer_bcast",
            CtrlClass::Ack => "ack",
            CtrlClass::Heartbeat => "heartbeat",
        }
    }
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
    /// All phases, in snapshot field order.
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
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + secs).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
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
    fn idx(phase: Phase) -> usize {
        Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("phase listed in ALL")
    }

    /// Charges virtual seconds to a phase.
    pub fn add_virtual(&self, phase: Phase, secs: f64) {
        self.virtual_s[Self::idx(phase)].add(secs);
    }

    /// Charges wall seconds to a phase.
    pub fn add_wall(&self, phase: Phase, secs: f64) {
        self.wall_s[Self::idx(phase)].add(secs);
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
        self.virtual_s[Self::idx(phase)].get()
    }

    /// Accumulated wall seconds of a phase.
    pub fn wall_seconds(&self, phase: Phase) -> f64 {
        self.wall_s[Self::idx(phase)].get()
    }
}

/// One run's worth of engine instrumentation, shared (via `Arc`) by every
/// node and transport of a runtime.
#[derive(Debug, Default)]
pub struct EngineMetrics {
    /// Export calls that paid the framework-buffer memcpy.
    pub memcpy_paid: Counter,
    /// Export calls whose memcpy was skipped (the buddy-help saving).
    pub memcpy_skipped: Counter,
    /// Bytes copied into framework buffers (the paid memcpys).
    pub bytes_buffered: Counter,
    /// Data bytes moved to importers.
    pub bytes_transferred: Counter,
    /// Control messages sent, by class (indexed like [`CtrlClass::ALL`]).
    pub ctrl_sent: [Counter; CtrlClass::ALL.len()],
    /// Matched-object transfers emitted by exporting processes.
    pub transfers: Counter,
    /// Export calls entered (paid + skipped).
    pub export_calls: Counter,
    /// Collective import calls entered.
    pub import_calls: Counter,
    /// Export attempts stalled on a full bounded buffer.
    pub buffer_stalls: Counter,
    /// Sequenced control messages re-sent after an ack deadline expired.
    pub retransmits: Counter,
    /// Reliability deadlines that expired (each triggers a retransmit or,
    /// for expendable traffic, abandonment).
    pub timeouts: Counter,
    /// Rep-role recoveries: successor takeovers and crash restarts.
    pub failovers: Counter,
    /// Buddy-help announcements abandoned by the reliability layer — each
    /// one a skip opportunity degraded to conservative buffering.
    pub degraded_buffers: Counter,
    /// Physical payload buffers allocated by the threaded data plane. With
    /// zero-copy sharing this equals `memcpy_paid` (one allocation per
    /// buffered object, shared across connections, pieces and retransmits);
    /// the DES models copies without materializing them, so it stays 0 there.
    pub payload_allocs: Counter,
    /// Coalesced control-plane flushes: channel pushes that combined two or
    /// more rep fan-out messages for one destination. Threaded fabric only.
    pub ctrl_batches: Counter,
    /// Control messages re-sent by a relay rank to its distribution-tree
    /// subtree (hierarchical fan-out only; 0 in flat mode). Relay hops are
    /// *not* double-counted in `ctrl_sent` — that array meters origin sends.
    pub ctrl_relay: Counter,
    /// Coalesced collective frames sent (origin + relay): one frame folding
    /// an answer broadcast or the buddy-help announcements for one match
    /// into a single tree-routed message (0 in flat mode).
    pub ctrl_coalesced: Counter,
    /// Standalone heartbeats suppressed because data or control traffic
    /// already traversed the link inside the heartbeat window (piggybacked
    /// liveness; threaded fabric only).
    pub hb_suppressed: Counter,
    /// Wire frames sent by the socket transport (0 on DES/threaded).
    pub net_frames: Counter,
    /// Bytes written to sockets, headers included (0 on DES/threaded).
    pub net_bytes: Counter,
    /// Peer connections re-established after a drop (0 on DES/threaded).
    pub net_reconnects: Counter,
    /// Inbound frames rejected by the wire codec — truncated, version-
    /// skewed or checksum-failed (0 on DES/threaded, and 0 on any socket
    /// run with an uncorrupted wire).
    pub net_codec_rejects: Counter,
    /// Write syscalls issued by the socket tx path (0 on DES/threaded).
    /// With vectored coalescing one syscall can carry many frames, so
    /// `net_syscalls / net_frames` is the frames-per-write figure the
    /// `bench net` gate reads.
    pub net_syscalls: Counter,
    /// Frames written as part of a multi-frame vectored burst (frames that
    /// shared their write syscall with at least one other frame; 0 on
    /// DES/threaded).
    pub net_writev_frames: Counter,
    /// Tx frame buffers recycled from the writer-thread pool instead of
    /// freshly allocated (0 on DES/threaded).
    pub net_pool_hits: Counter,
    /// Tx frame-buffer requests the pool could not serve — a fresh
    /// allocation (0 on DES/threaded).
    pub net_pool_misses: Counter,
    /// Wire frames received and dispatched by the socket transport
    /// (0 on DES/threaded). Clean runs conserve: Σ rx == Σ tx.
    pub net_rx_frames: Counter,
    /// Bytes received off sockets as dispatched frames, headers included
    /// (0 on DES/threaded). Clean runs conserve: Σ rx == Σ tx.
    pub net_rx_bytes: Counter,
    /// Records appended to a durable write-ahead journal (0 with the
    /// in-memory backend, i.e. on DES/threaded and on clean socket runs).
    pub wal_appends: Counter,
    /// Bytes appended to a durable write-ahead journal, framing included.
    pub wal_bytes: Counter,
    /// Records replayed from a write-ahead journal on restart.
    pub wal_replayed: Counter,
    /// Torn-tail truncations performed when opening a write-ahead journal
    /// (at most one per open; a crash mid-append leaves one partial record).
    pub wal_truncated: Counter,
    /// Nanoseconds threads spent waiting on *contended* hot-path locks
    /// (uncontended acquisitions are not timed). Wall-clock, threaded
    /// fabric only; informational, never gated.
    pub lock_wait_ns: Counter,
    /// Time-to-recovery samples in milliseconds (crash → rep role
    /// re-established), virtual on the DES, wall on the fabric.
    pub recovery_ms: Histogram,
    /// Task polls executed by the threaded session executor (0 on DES).
    pub tasks_polled: Counter,
    /// Tasks a pool worker stole from another worker's run-queue shard
    /// (threaded session executor only; 0 on DES).
    pub worker_steal: Counter,
    /// Objects currently held in framework buffers, with high-water mark.
    pub buffered_objects: Gauge,
    /// Tasks currently sitting in the session executor's run queues, with
    /// high-water mark. The executor's at-most-once-queued invariant bounds
    /// the HWM by the live task count (0 on DES).
    pub runq_depth: Gauge,
    /// Messages drained per executor task poll (threaded session executor
    /// only; empty on DES).
    pub poll_batch: Histogram,
    /// Depth of the k-ary distribution tree (relay hops from a rep to its
    /// farthest rank), as a level gauge; 0 in flat fan-out mode.
    pub tree_depth: Gauge,
    /// Bytes buffered in a socket receive ring awaiting a complete frame,
    /// with high-water mark — the rx memory bound (0 on DES/threaded).
    pub net_rx_buf: Gauge,
    /// Pending messages/events per node queue, with high-water mark (the
    /// DES event queue; the fabric's rep/agent mailboxes).
    pub queue_depth: Gauge,
    /// Buffered-object count observed at each export call.
    pub occupancy: Histogram,
    /// Per-phase virtual/wall time.
    pub phases: PhaseTimes,
}

impl EngineMetrics {
    /// Fresh, zeroed metrics for one run.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter for one control-message class.
    pub fn ctrl(&self, class: CtrlClass) -> &Counter {
        let idx = CtrlClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class listed in ALL");
        &self.ctrl_sent[idx]
    }

    /// Snapshots every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: CounterSnapshot {
                memcpy_paid: self.memcpy_paid.get(),
                memcpy_skipped: self.memcpy_skipped.get(),
                bytes_buffered: self.bytes_buffered.get(),
                bytes_transferred: self.bytes_transferred.get(),
                ctrl_sent: std::array::from_fn(|i| self.ctrl_sent[i].get()),
                transfers: self.transfers.get(),
                export_calls: self.export_calls.get(),
                import_calls: self.import_calls.get(),
                buffer_stalls: self.buffer_stalls.get(),
                retransmits: self.retransmits.get(),
                timeouts: self.timeouts.get(),
                failovers: self.failovers.get(),
                degraded_buffers: self.degraded_buffers.get(),
                payload_allocs: self.payload_allocs.get(),
                ctrl_batches: self.ctrl_batches.get(),
                ctrl_relay: self.ctrl_relay.get(),
                ctrl_coalesced: self.ctrl_coalesced.get(),
                hb_suppressed: self.hb_suppressed.get(),
                net_frames: self.net_frames.get(),
                net_bytes: self.net_bytes.get(),
                net_reconnects: self.net_reconnects.get(),
                net_codec_rejects: self.net_codec_rejects.get(),
                net_syscalls: self.net_syscalls.get(),
                net_writev_frames: self.net_writev_frames.get(),
                net_pool_hits: self.net_pool_hits.get(),
                net_pool_misses: self.net_pool_misses.get(),
                net_rx_frames: self.net_rx_frames.get(),
                net_rx_bytes: self.net_rx_bytes.get(),
                wal_appends: self.wal_appends.get(),
                wal_bytes: self.wal_bytes.get(),
                wal_replayed: self.wal_replayed.get(),
                wal_truncated: self.wal_truncated.get(),
                lock_wait_ns: self.lock_wait_ns.get(),
                tasks_polled: self.tasks_polled.get(),
                worker_steal: self.worker_steal.get(),
                buffered_hwm: self.buffered_objects.high_water_mark(),
                queue_depth_hwm: self.queue_depth.high_water_mark(),
                runq_depth_hwm: self.runq_depth.high_water_mark(),
                tree_depth: self.tree_depth.high_water_mark(),
                net_rx_buf_hwm: self.net_rx_buf.high_water_mark(),
                occupancy: self.occupancy.counts(),
                recovery_ms: self.recovery_ms.counts(),
                poll_batch: self.poll_batch.counts(),
            },
            timing: TimingSnapshot {
                virtual_s: std::array::from_fn(|i| self.phases.virtual_seconds(Phase::ALL[i])),
                wall_s: std::array::from_fn(|i| self.phases.wall_seconds(Phase::ALL[i])),
            },
        }
    }
}

/// The deterministic half of a run's metrics. On the discrete-event runtime
/// two runs of the same topology must produce **identical** values — this
/// type is `Eq` precisely so that assertion is a one-liner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Export calls that paid the memcpy.
    pub memcpy_paid: u64,
    /// Export calls that skipped it.
    pub memcpy_skipped: u64,
    /// Bytes copied into framework buffers.
    pub bytes_buffered: u64,
    /// Data bytes moved to importers.
    pub bytes_transferred: u64,
    /// Control messages by class (indexed like [`CtrlClass::ALL`]).
    pub ctrl_sent: [u64; CtrlClass::ALL.len()],
    /// Matched-object transfers emitted.
    pub transfers: u64,
    /// Export calls entered.
    pub export_calls: u64,
    /// Collective import calls entered.
    pub import_calls: u64,
    /// Export attempts stalled on a full buffer.
    pub buffer_stalls: u64,
    /// Sequenced messages re-sent after a deadline expired.
    pub retransmits: u64,
    /// Reliability deadlines that expired.
    pub timeouts: u64,
    /// Rep-role recoveries (takeovers + restarts).
    pub failovers: u64,
    /// Buddy-help announcements degraded to conservative buffering.
    pub degraded_buffers: u64,
    /// Physical payload buffers allocated (threaded data plane; 0 on DES).
    pub payload_allocs: u64,
    /// Coalesced rep fan-out flushes (threaded fabric; 0 on DES).
    pub ctrl_batches: u64,
    /// Tree relay hops re-sent by relay ranks (0 in flat fan-out mode).
    pub ctrl_relay: u64,
    /// Coalesced collective frames sent, origin + relay (0 in flat mode).
    pub ctrl_coalesced: u64,
    /// Standalone heartbeats suppressed by piggybacked liveness.
    pub hb_suppressed: u64,
    /// Wire frames sent by the socket transport (0 off the socket runtime).
    pub net_frames: u64,
    /// Bytes written to sockets (0 off the socket runtime).
    pub net_bytes: u64,
    /// Peer connections re-established (0 off the socket runtime).
    pub net_reconnects: u64,
    /// Inbound frames the wire codec rejected (0 off the socket runtime).
    pub net_codec_rejects: u64,
    /// Write syscalls issued by the socket tx path (0 off the socket
    /// runtime); one vectored syscall may carry many frames.
    pub net_syscalls: u64,
    /// Frames that shared a vectored write syscall with at least one
    /// other frame (0 off the socket runtime).
    pub net_writev_frames: u64,
    /// Tx frame buffers recycled from the pool (0 off the socket runtime).
    pub net_pool_hits: u64,
    /// Tx buffer requests served by a fresh allocation instead of the
    /// pool (0 off the socket runtime).
    pub net_pool_misses: u64,
    /// Wire frames received and dispatched (0 off the socket runtime).
    pub net_rx_frames: u64,
    /// Bytes received as dispatched frames, headers included (0 off the
    /// socket runtime).
    pub net_rx_bytes: u64,
    /// Records appended to a durable WAL (0 with the in-memory backend).
    pub wal_appends: u64,
    /// Bytes appended to a durable WAL, framing included.
    pub wal_bytes: u64,
    /// Records replayed from a WAL on restart (0 on clean runs).
    pub wal_replayed: u64,
    /// Torn-tail truncations on WAL open (0 on clean runs).
    pub wal_truncated: u64,
    /// Nanoseconds spent waiting on contended hot-path locks (0 on DES).
    pub lock_wait_ns: u64,
    /// Session-executor task polls (threaded fabric; 0 on DES).
    pub tasks_polled: u64,
    /// Cross-shard task steals by pool workers (threaded fabric; 0 on DES).
    pub worker_steal: u64,
    /// High-water mark of buffered objects.
    pub buffered_hwm: u64,
    /// High-water mark of node queue depth.
    pub queue_depth_hwm: u64,
    /// High-water mark of the session executor's run-queue depth (threaded
    /// fabric; 0 on DES). Bounded by the live task count.
    pub runq_depth_hwm: u64,
    /// Depth of the k-ary distribution tree (0 in flat fan-out mode).
    pub tree_depth: u64,
    /// High-water mark of bytes parked in a socket receive ring awaiting
    /// a complete frame (0 off the socket runtime).
    pub net_rx_buf_hwm: u64,
    /// Occupancy histogram bucket counts.
    pub occupancy: [u64; HISTOGRAM_BUCKETS],
    /// Time-to-recovery histogram bucket counts (milliseconds).
    pub recovery_ms: [u64; HISTOGRAM_BUCKETS],
    /// Messages-per-executor-poll histogram bucket counts.
    pub poll_batch: [u64; HISTOGRAM_BUCKETS],
}

impl CounterSnapshot {
    /// Total control messages across all classes.
    pub fn ctrl_total(&self) -> u64 {
        self.ctrl_sent.iter().sum()
    }

    /// Control messages of one class.
    pub fn ctrl(&self, class: CtrlClass) -> u64 {
        let idx = CtrlClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("class listed in ALL");
        self.ctrl_sent[idx]
    }

    /// Folds another **process's** snapshot into this one — the socket
    /// runtime's orchestrator sums the per-process reports into the
    /// session-wide view. Flow counters add (each message/byte/frame is
    /// metered by exactly one process), histograms add bucket-wise, and
    /// high-water marks take the per-process maximum (a peak is a local
    /// property of one pool, not a flow).
    ///
    /// The exhaustive destructure means adding a counter without deciding
    /// its merge rule is a compile error, not a silently-wrong report.
    pub fn merge_process(&mut self, other: &CounterSnapshot) {
        let CounterSnapshot {
            memcpy_paid,
            memcpy_skipped,
            bytes_buffered,
            bytes_transferred,
            ctrl_sent,
            transfers,
            export_calls,
            import_calls,
            buffer_stalls,
            retransmits,
            timeouts,
            failovers,
            degraded_buffers,
            payload_allocs,
            ctrl_batches,
            ctrl_relay,
            ctrl_coalesced,
            hb_suppressed,
            net_frames,
            net_bytes,
            net_reconnects,
            net_codec_rejects,
            net_syscalls,
            net_writev_frames,
            net_pool_hits,
            net_pool_misses,
            net_rx_frames,
            net_rx_bytes,
            wal_appends,
            wal_bytes,
            wal_replayed,
            wal_truncated,
            lock_wait_ns,
            tasks_polled,
            worker_steal,
            buffered_hwm,
            queue_depth_hwm,
            runq_depth_hwm,
            tree_depth,
            net_rx_buf_hwm,
            occupancy,
            recovery_ms,
            poll_batch,
        } = other;
        self.memcpy_paid += memcpy_paid;
        self.memcpy_skipped += memcpy_skipped;
        self.bytes_buffered += bytes_buffered;
        self.bytes_transferred += bytes_transferred;
        for (mine, theirs) in self.ctrl_sent.iter_mut().zip(ctrl_sent) {
            *mine += theirs;
        }
        self.transfers += transfers;
        self.export_calls += export_calls;
        self.import_calls += import_calls;
        self.buffer_stalls += buffer_stalls;
        self.retransmits += retransmits;
        self.timeouts += timeouts;
        self.failovers += failovers;
        self.degraded_buffers += degraded_buffers;
        self.payload_allocs += payload_allocs;
        self.ctrl_batches += ctrl_batches;
        self.ctrl_relay += ctrl_relay;
        self.ctrl_coalesced += ctrl_coalesced;
        self.hb_suppressed += hb_suppressed;
        self.net_frames += net_frames;
        self.net_bytes += net_bytes;
        self.net_reconnects += net_reconnects;
        self.net_codec_rejects += net_codec_rejects;
        self.net_syscalls += net_syscalls;
        self.net_writev_frames += net_writev_frames;
        self.net_pool_hits += net_pool_hits;
        self.net_pool_misses += net_pool_misses;
        self.net_rx_frames += net_rx_frames;
        self.net_rx_bytes += net_rx_bytes;
        self.wal_appends += wal_appends;
        self.wal_bytes += wal_bytes;
        self.wal_replayed += wal_replayed;
        self.wal_truncated += wal_truncated;
        self.lock_wait_ns += lock_wait_ns;
        self.tasks_polled += tasks_polled;
        self.worker_steal += worker_steal;
        self.buffered_hwm = self.buffered_hwm.max(*buffered_hwm);
        self.queue_depth_hwm = self.queue_depth_hwm.max(*queue_depth_hwm);
        self.runq_depth_hwm = self.runq_depth_hwm.max(*runq_depth_hwm);
        // Every process builds the same tree, so the depth is a shared
        // property — max keeps it stable under per-process merging.
        self.tree_depth = self.tree_depth.max(*tree_depth);
        self.net_rx_buf_hwm = self.net_rx_buf_hwm.max(*net_rx_buf_hwm);
        for (mine, theirs) in self.occupancy.iter_mut().zip(occupancy) {
            *mine += theirs;
        }
        for (mine, theirs) in self.recovery_ms.iter_mut().zip(recovery_ms) {
            *mine += theirs;
        }
        for (mine, theirs) in self.poll_batch.iter_mut().zip(poll_batch) {
            *mine += theirs;
        }
    }

    /// Every scalar metric as `(name, value)`, in stable order — the
    /// regression gate and the JSON encoding both iterate this, so the two
    /// can never drift apart.
    pub fn fields(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("memcpy_paid".to_string(), self.memcpy_paid),
            ("memcpy_skipped".to_string(), self.memcpy_skipped),
            ("bytes_buffered".to_string(), self.bytes_buffered),
            ("bytes_transferred".to_string(), self.bytes_transferred),
        ];
        for (i, class) in CtrlClass::ALL.iter().enumerate() {
            out.push((format!("ctrl_{}", class.as_str()), self.ctrl_sent[i]));
        }
        out.extend([
            ("transfers".to_string(), self.transfers),
            ("export_calls".to_string(), self.export_calls),
            ("import_calls".to_string(), self.import_calls),
            ("buffer_stalls".to_string(), self.buffer_stalls),
            ("retransmits".to_string(), self.retransmits),
            ("timeouts".to_string(), self.timeouts),
            ("failovers".to_string(), self.failovers),
            ("degraded_buffers".to_string(), self.degraded_buffers),
            ("payload_allocs".to_string(), self.payload_allocs),
            ("ctrl_batches".to_string(), self.ctrl_batches),
            ("ctrl_relay".to_string(), self.ctrl_relay),
            ("ctrl_coalesced".to_string(), self.ctrl_coalesced),
            ("hb_suppressed".to_string(), self.hb_suppressed),
            ("net_frames".to_string(), self.net_frames),
            ("net_bytes".to_string(), self.net_bytes),
            ("net_reconnects".to_string(), self.net_reconnects),
            ("net_codec_rejects".to_string(), self.net_codec_rejects),
            ("net_syscalls".to_string(), self.net_syscalls),
            ("net_writev_frames".to_string(), self.net_writev_frames),
            ("net_pool_hits".to_string(), self.net_pool_hits),
            ("net_pool_misses".to_string(), self.net_pool_misses),
            ("net_rx_frames".to_string(), self.net_rx_frames),
            ("net_rx_bytes".to_string(), self.net_rx_bytes),
            ("wal_appends".to_string(), self.wal_appends),
            ("wal_bytes".to_string(), self.wal_bytes),
            ("wal_replayed".to_string(), self.wal_replayed),
            ("wal_truncated".to_string(), self.wal_truncated),
            ("lock_wait_ns".to_string(), self.lock_wait_ns),
            ("tasks_polled".to_string(), self.tasks_polled),
            ("worker_steal".to_string(), self.worker_steal),
            ("buffered_hwm".to_string(), self.buffered_hwm),
            ("queue_depth_hwm".to_string(), self.queue_depth_hwm),
            ("runq_depth_hwm".to_string(), self.runq_depth_hwm),
            ("tree_depth".to_string(), self.tree_depth),
            ("net_rx_buf_hwm".to_string(), self.net_rx_buf_hwm),
        ]);
        out
    }

    /// Encodes the snapshot as a JSON object (scalars via [`Self::fields`],
    /// plus the occupancy bucket array).
    pub fn to_json(&self) -> json::Value {
        let mut obj: Vec<(String, json::Value)> = self
            .fields()
            .into_iter()
            .map(|(k, v)| (k, json::Value::from(v)))
            .collect();
        for (name, buckets) in [
            ("occupancy", &self.occupancy),
            ("recovery_ms", &self.recovery_ms),
            ("poll_batch", &self.poll_batch),
        ] {
            obj.push((
                name.to_string(),
                json::Value::Array(buckets.iter().map(|&c| json::Value::from(c)).collect()),
            ));
        }
        json::Value::Object(obj)
    }

    /// Decodes a snapshot from the JSON produced by [`Self::to_json`].
    pub fn from_json(v: &json::Value) -> Result<Self, String> {
        let field = |name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(json::Value::as_u64)
                .ok_or_else(|| format!("counter snapshot: missing/invalid field {name}"))
        };
        let mut ctrl_sent = [0u64; CtrlClass::ALL.len()];
        for (i, class) in CtrlClass::ALL.iter().enumerate() {
            ctrl_sent[i] = field(&format!("ctrl_{}", class.as_str()))?;
        }
        let histogram = |name: &str| -> Result<[u64; HISTOGRAM_BUCKETS], String> {
            let arr = v
                .get(name)
                .and_then(json::Value::as_array)
                .ok_or_else(|| format!("counter snapshot: missing {name} array"))?;
            if arr.len() != HISTOGRAM_BUCKETS {
                return Err(format!(
                    "counter snapshot: {name} has {} buckets, expected {HISTOGRAM_BUCKETS}",
                    arr.len()
                ));
            }
            let mut out = [0u64; HISTOGRAM_BUCKETS];
            for (i, b) in arr.iter().enumerate() {
                out[i] = b
                    .as_u64()
                    .ok_or_else(|| format!("counter snapshot: {name}[{i}] not a count"))?;
            }
            Ok(out)
        };
        let occupancy = histogram("occupancy")?;
        let recovery_ms = histogram("recovery_ms")?;
        let poll_batch = histogram("poll_batch")?;
        Ok(CounterSnapshot {
            memcpy_paid: field("memcpy_paid")?,
            memcpy_skipped: field("memcpy_skipped")?,
            bytes_buffered: field("bytes_buffered")?,
            bytes_transferred: field("bytes_transferred")?,
            ctrl_sent,
            transfers: field("transfers")?,
            export_calls: field("export_calls")?,
            import_calls: field("import_calls")?,
            buffer_stalls: field("buffer_stalls")?,
            retransmits: field("retransmits")?,
            timeouts: field("timeouts")?,
            failovers: field("failovers")?,
            degraded_buffers: field("degraded_buffers")?,
            payload_allocs: field("payload_allocs")?,
            ctrl_batches: field("ctrl_batches")?,
            ctrl_relay: field("ctrl_relay")?,
            ctrl_coalesced: field("ctrl_coalesced")?,
            hb_suppressed: field("hb_suppressed")?,
            net_frames: field("net_frames")?,
            net_bytes: field("net_bytes")?,
            net_reconnects: field("net_reconnects")?,
            net_codec_rejects: field("net_codec_rejects")?,
            net_syscalls: field("net_syscalls")?,
            net_writev_frames: field("net_writev_frames")?,
            net_pool_hits: field("net_pool_hits")?,
            net_pool_misses: field("net_pool_misses")?,
            net_rx_frames: field("net_rx_frames")?,
            net_rx_bytes: field("net_rx_bytes")?,
            wal_appends: field("wal_appends")?,
            wal_bytes: field("wal_bytes")?,
            wal_replayed: field("wal_replayed")?,
            wal_truncated: field("wal_truncated")?,
            lock_wait_ns: field("lock_wait_ns")?,
            tasks_polled: field("tasks_polled")?,
            worker_steal: field("worker_steal")?,
            buffered_hwm: field("buffered_hwm")?,
            queue_depth_hwm: field("queue_depth_hwm")?,
            runq_depth_hwm: field("runq_depth_hwm")?,
            tree_depth: field("tree_depth")?,
            net_rx_buf_hwm: field("net_rx_buf_hwm")?,
            occupancy,
            recovery_ms,
            poll_batch,
        })
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
        self.virtual_s[Phase::ALL.iter().position(|&p| p == phase).expect("phase")]
    }

    /// Wall seconds of one phase.
    pub fn wall_seconds(&self, phase: Phase) -> f64 {
        self.wall_s[Phase::ALL.iter().position(|&p| p == phase).expect("phase")]
    }

    /// Encodes as `{"virtual": {phase: s}, "wall": {phase: s}}`.
    pub fn to_json(&self) -> json::Value {
        let encode = |vals: &[f64]| {
            json::Value::Object(
                Phase::ALL
                    .iter()
                    .zip(vals)
                    .map(|(p, &s)| (p.as_str().to_string(), json::Value::Number(s)))
                    .collect(),
            )
        };
        json::Value::Object(vec![
            ("virtual".to_string(), encode(&self.virtual_s)),
            ("wall".to_string(), encode(&self.wall_s)),
        ])
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
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::new();
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
        let h = Histogram::new();
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
    fn snapshot_roundtrips_through_json() {
        let m = EngineMetrics::new();
        m.memcpy_paid.add(7);
        m.memcpy_skipped.add(3);
        m.export_calls.add(10);
        m.bytes_buffered.add(1024);
        m.ctrl(CtrlClass::BuddyHelp).add(2);
        m.ctrl(CtrlClass::Ack).add(9);
        m.retransmits.add(3);
        m.timeouts.add(4);
        m.failovers.inc();
        m.degraded_buffers.add(2);
        m.recovery_ms.observe(120);
        m.tasks_polled.add(41);
        m.worker_steal.inc();
        m.buffered_objects.add(5);
        m.runq_depth.add(6);
        m.occupancy.observe(4);
        m.poll_batch.observe(3);
        let snap = m.snapshot().counters;
        let parsed = json::parse(&json::emit(&snap.to_json())).expect("valid JSON");
        assert_eq!(CounterSnapshot::from_json(&parsed).expect("decodes"), snap);
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
