//! The event-driven session executor behind the threaded fabric.
//!
//! Instead of one OS thread per rep and per agent, a fixed **worker pool**
//! polls node tasks pulled from **sharded run queues**. Each rep, agent,
//! importer and retransmit pump is a state machine implementing [`Task`];
//! a mailbox push (or an expired timer) marks the task runnable and a
//! worker drains it. Timers — rep heartbeats, crash-restart sleeps, the
//! retransmit pump's next deadline — unify into one per-shard timer heap
//! driven by the same condvar next-deadline machinery the PR 5 pump used.
//!
//! The scheduling core is a per-task atomic state machine:
//!
//! ```text
//!   Idle --schedule--> Queued --pop--> Running --poll done--> Idle
//!                         ^               | schedule while running
//!                         +-- RunningDirty <-+   (re-queued after poll)
//! ```
//!
//! The CAS transitions guarantee two invariants the rest of the fabric
//! leans on: a task is **never polled concurrently** (only the worker that
//! moved it `Queued → Running` may poll it), and a task sits in a run
//! queue **at most once** — which bounds the `runq_depth` high-water mark
//! by the live task count no matter how many messages land in mailboxes.
//!
//! Fairness: each shard keeps one FIFO per *session* and round-robins
//! across sessions, so one chatty session cannot starve its siblings on a
//! shared pool.
//!
//! Workers own one shard each and steal from the others when their own
//! runs dry (metered as `worker_steal`). A panicking poll is contained
//! with `catch_unwind`, reported through the task's panic sink (the
//! fabric surfaces it as `ThreadedError::ProcessCrash`), and the task is
//! retired — exactly the containment the per-thread loops had.

use couplink_metrics::EngineMetrics;
use parking_lot::{Condvar, Mutex};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Index of a session multiplexed on one executor.
pub(crate) type SessionId = usize;

// Task states (the atomic state machine above).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;
const DEAD: u8 = 4;

/// How to size and schedule the worker pool.
#[derive(Debug, Clone, Default)]
pub struct ExecutorOptions {
    /// Worker (and run-queue shard) count; `None` uses
    /// [`std::thread::available_parallelism`].
    pub workers: Option<usize>,
}

/// What one task poll did and when it wants to run again.
pub(crate) struct Poll {
    /// Messages the poll drained (observed into the `poll_batch`
    /// histogram).
    pub msgs: u64,
    /// The task finished; never poll it again.
    pub done: bool,
    /// Replaces the task's timer: poll again at this instant (`None`
    /// cancels any pending timer).
    pub deadline: Option<Instant>,
    /// The task knows it left work behind (e.g. a capped mailbox drain):
    /// re-queue immediately instead of going idle.
    pub more: bool,
}

impl Poll {
    /// A quiescent outcome: nothing drained, no timer, not done.
    pub fn idle() -> Self {
        Poll {
            msgs: 0,
            done: false,
            deadline: None,
            more: false,
        }
    }
}

/// A polled state machine (rep, agent, importer, retransmit pump).
pub(crate) trait Task: Send {
    /// Drains whatever is runnable right now. `now` is the poll instant —
    /// tasks compare their own deadlines (heartbeat due, crash restart)
    /// against it rather than re-reading the clock.
    fn poll(&mut self, now: Instant) -> Poll;
}

/// Where a contained task panic is reported (the fabric's error slot).
pub(crate) type PanicSink = Arc<dyn Fn(String) + Send + Sync>;

struct TaskEntry {
    state: AtomicU8,
    /// Timer generation: a heap entry is live only while its generation
    /// matches, so re-arming or cancelling is one `fetch_add`.
    timer_gen: AtomicU64,
    session: SessionId,
    /// Home shard (timers live here; the owning worker polls it first).
    shard: usize,
    metrics: Arc<EngineMetrics>,
    panic_sink: PanicSink,
    task: Mutex<Box<dyn Task>>,
}

/// A handle for scheduling one spawned task (what mailboxes hold).
#[derive(Clone)]
pub(crate) struct TaskHandle {
    exec: Arc<ExecInner>,
    entry: Arc<TaskEntry>,
}

impl TaskHandle {
    /// Marks the task runnable (no-op if already queued, dirty or done).
    pub fn schedule(&self) {
        self.exec.schedule(&self.entry);
    }

    /// Whether the task has finished (or was retired by a panic).
    pub fn is_done(&self) -> bool {
        self.entry.state.load(Ordering::Acquire) == DEAD
    }
}

struct TimerEntry {
    at: Instant,
    gen: u64,
    /// Global tie-breaker so the heap order is total.
    seq: u64,
    task: Arc<TaskEntry>,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One worker's slice of the run queues plus its timer heap.
struct ShardQueues {
    /// One FIFO per session (grown by `add_session`); round-robin cursor
    /// below picks the next session to serve.
    sessions: Vec<VecDeque<Arc<TaskEntry>>>,
    queued: usize,
    cursor: usize,
    timers: BinaryHeap<Reverse<TimerEntry>>,
}

struct Shard {
    q: Mutex<ShardQueues>,
    cv: Condvar,
}

struct ExecInner {
    shards: Vec<Shard>,
    stop: AtomicBool,
    timer_seq: AtomicU64,
    /// Task counter feeding home-shard assignment (round-robin).
    next_task: AtomicU64,
    done_lock: Mutex<()>,
    done_cv: Condvar,
}

impl ExecInner {
    fn schedule(self: &Arc<Self>, entry: &Arc<TaskEntry>) {
        loop {
            let cur = entry.state.load(Ordering::Acquire);
            match cur {
                IDLE => {
                    if entry
                        .state
                        .compare_exchange_weak(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.push(entry.clone());
                        return;
                    }
                }
                RUNNING => {
                    if entry
                        .state
                        .compare_exchange_weak(
                            RUNNING,
                            RUNNING_DIRTY,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        )
                        .is_ok()
                    {
                        return;
                    }
                }
                // Already queued / dirty / retired: nothing to do.
                _ => return,
            }
        }
    }

    /// Pushes an already-`Queued` task onto its home shard.
    fn push(&self, entry: Arc<TaskEntry>) {
        let shard = &self.shards[entry.shard];
        entry.metrics.runq_depth.add(1);
        let mut q = shard.q.lock();
        q.sessions[entry.session].push_back(entry);
        q.queued += 1;
        drop(q);
        shard.cv.notify_one();
    }

    /// Replaces a task's timer (generation bump invalidates older heap
    /// entries lazily).
    fn set_timer(&self, entry: &Arc<TaskEntry>, at: Instant) {
        let gen = entry.timer_gen.fetch_add(1, Ordering::AcqRel) + 1;
        let seq = self.timer_seq.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[entry.shard];
        let mut q = shard.q.lock();
        q.timers.push(Reverse(TimerEntry {
            at,
            gen,
            seq,
            task: entry.clone(),
        }));
        drop(q);
        // The home worker may be sleeping toward a later deadline.
        shard.cv.notify_one();
    }

    fn cancel_timer(&self, entry: &TaskEntry) {
        entry.timer_gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Pops the next runnable task honoring session fairness; transitions
    /// it `Queued → Running`.
    fn pop_from(&self, q: &mut ShardQueues) -> Option<Arc<TaskEntry>> {
        if q.queued == 0 {
            return None;
        }
        let n = q.sessions.len();
        for i in 0..n {
            let s = (q.cursor + i) % n;
            if let Some(entry) = q.sessions[s].pop_front() {
                q.cursor = (s + 1) % n;
                q.queued -= 1;
                entry.metrics.runq_depth.sub(1);
                entry.state.store(RUNNING, Ordering::Release);
                return Some(entry);
            }
        }
        None
    }

    /// Fires every due (and still-live) timer on one shard, marking their
    /// tasks runnable.
    fn fire_timers(self: &Arc<Self>, shard: usize, now: Instant) {
        let due: Vec<Arc<TaskEntry>> = {
            let mut q = self.shards[shard].q.lock();
            let mut out = Vec::new();
            while let Some(Reverse(top)) = q.timers.peek() {
                if top.at > now {
                    break;
                }
                let Reverse(t) = q.timers.pop().expect("peeked entry");
                if t.gen == t.task.timer_gen.load(Ordering::Acquire)
                    && t.task.state.load(Ordering::Acquire) != DEAD
                {
                    out.push(t.task);
                }
            }
            out
        };
        for entry in due {
            self.schedule(&entry);
        }
    }

    /// Polls one task and applies its outcome to the state machine.
    fn run(self: &Arc<Self>, entry: Arc<TaskEntry>) {
        entry.metrics.tasks_polled.inc();
        let now = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| entry.task.lock().poll(now)));
        match outcome {
            Err(p) => {
                (entry.panic_sink)(panic_detail(p));
                self.cancel_timer(&entry);
                entry.state.store(DEAD, Ordering::Release);
                self.notify_done();
            }
            Ok(poll) => {
                entry.metrics.poll_batch.observe(poll.msgs);
                if poll.done {
                    self.cancel_timer(&entry);
                    entry.state.store(DEAD, Ordering::Release);
                    self.notify_done();
                    return;
                }
                match poll.deadline {
                    Some(at) => self.set_timer(&entry, at),
                    None => self.cancel_timer(&entry),
                }
                if poll.more {
                    entry.state.store(QUEUED, Ordering::Release);
                    self.push(entry);
                } else if entry
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A schedule landed mid-poll (RunningDirty): re-queue so
                    // the message that raced with the drain is seen.
                    entry.state.store(QUEUED, Ordering::Release);
                    self.push(entry);
                }
            }
        }
    }

    fn notify_done(&self) {
        let _g = self.done_lock.lock();
        self.done_cv.notify_all();
    }
}

/// Best-effort text of a caught panic payload.
fn panic_detail(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".into())
}

fn worker_loop(inner: Arc<ExecInner>, me: usize) {
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        inner.fire_timers(me, Instant::now());
        let local = {
            let mut q = inner.shards[me].q.lock();
            inner.pop_from(&mut q)
        };
        if let Some(entry) = local {
            inner.run(entry);
            continue;
        }
        // Own shard dry: steal one task from a sibling before sleeping.
        let mut stolen = None;
        for other in (0..inner.shards.len()).filter(|&s| s != me) {
            let mut q = inner.shards[other].q.lock();
            if let Some(entry) = inner.pop_from(&mut q) {
                drop(q);
                entry.metrics.worker_steal.inc();
                stolen = Some(entry);
                break;
            }
        }
        if let Some(entry) = stolen {
            inner.run(entry);
            continue;
        }
        // Nothing runnable anywhere: sleep until this shard's next timer
        // (or until a push/timer/stop notifies). Checked under the shard
        // lock so a concurrent push cannot slip between check and wait.
        let shard = &inner.shards[me];
        let mut q = shard.q.lock();
        if q.queued > 0 || inner.stop.load(Ordering::Acquire) {
            continue;
        }
        match q.timers.peek().map(|Reverse(t)| t.at) {
            Some(at) => {
                shard.cv.wait_until(&mut q, at);
            }
            None => shard.cv.wait(&mut q),
        }
    }
}

/// The worker pool plus its sharded run queues. One per [`SessionSet`]
/// (and therefore per single-session `Fabric`).
///
/// [`SessionSet`]: crate::threaded::SessionSet
pub(crate) struct Executor {
    inner: Arc<ExecInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    pub fn new(opts: &ExecutorOptions) -> Self {
        let workers = opts
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(1);
        let inner = Arc::new(ExecInner {
            shards: (0..workers)
                .map(|_| Shard {
                    q: Mutex::new(ShardQueues {
                        sessions: Vec::new(),
                        queued: 0,
                        cursor: 0,
                        timers: BinaryHeap::new(),
                    }),
                    cv: Condvar::new(),
                })
                .collect(),
            stop: AtomicBool::new(false),
            timer_seq: AtomicU64::new(0),
            next_task: AtomicU64::new(0),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("couplink-worker-{w}"))
                    .spawn(move || worker_loop(inner, w))
                    .expect("spawning pool worker")
            })
            .collect();
        Executor {
            inner,
            workers: handles,
        }
    }

    /// Worker (== shard) count.
    pub fn workers(&self) -> usize {
        self.inner.shards.len()
    }

    /// Registers one more session's fairness queue on every shard.
    pub fn add_session(&self) -> SessionId {
        let mut id = 0;
        for shard in &self.inner.shards {
            let mut q = shard.q.lock();
            q.sessions.push(VecDeque::new());
            id = q.sessions.len() - 1;
        }
        id
    }

    /// Spawns a task (home shard assigned round-robin) and schedules its
    /// first poll so it can arm initial timers.
    pub fn spawn(
        &self,
        session: SessionId,
        metrics: Arc<EngineMetrics>,
        panic_sink: PanicSink,
        task: Box<dyn Task>,
    ) -> TaskHandle {
        let shard =
            self.inner.next_task.fetch_add(1, Ordering::Relaxed) as usize % self.inner.shards.len();
        let entry = Arc::new(TaskEntry {
            state: AtomicU8::new(IDLE),
            timer_gen: AtomicU64::new(0),
            session,
            shard,
            metrics,
            panic_sink,
            task: Mutex::new(task),
        });
        let handle = TaskHandle {
            exec: self.inner.clone(),
            entry,
        };
        handle.schedule();
        handle
    }

    /// Blocks until every listed task has finished.
    pub fn wait_done(&self, tasks: &[TaskHandle]) {
        let mut g = self.inner.done_lock.lock();
        while !tasks.iter().all(TaskHandle::is_done) {
            // Timed as a belt against a missed notify; correctness comes
            // from the DEAD check, not the wakeup.
            self.inner
                .done_cv
                .wait_for(&mut g, Duration::from_millis(50));
        }
    }

    /// Stops and joins the pool. Queued-but-unpolled tasks are abandoned —
    /// callers drain their sessions first.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::Release);
        for shard in &self.inner.shards {
            let _g = shard.q.lock();
            shard.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn sink() -> PanicSink {
        Arc::new(|_| {})
    }

    struct CountTask {
        polls: Arc<AtomicUsize>,
        done_after: usize,
        sleep: Duration,
    }

    impl Task for CountTask {
        fn poll(&mut self, _now: Instant) -> Poll {
            if !self.sleep.is_zero() {
                std::thread::sleep(self.sleep);
            }
            let n = self.polls.fetch_add(1, Ordering::SeqCst) + 1;
            Poll {
                msgs: 1,
                done: n >= self.done_after,
                deadline: None,
                more: false,
            }
        }
    }

    /// A task is queued at most once no matter how many schedules race:
    /// the run-queue depth HWM stays bounded by the task count.
    #[test]
    fn runq_depth_hwm_bounded_by_task_count() {
        let exec = Executor::new(&ExecutorOptions { workers: Some(2) });
        let session = exec.add_session();
        let metrics = Arc::new(EngineMetrics::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<TaskHandle> = (0..4)
            .map(|_| {
                exec.spawn(
                    session,
                    metrics.clone(),
                    sink(),
                    Box::new(CountTask {
                        polls: polls.clone(),
                        done_after: usize::MAX,
                        sleep: Duration::ZERO,
                    }),
                )
            })
            .collect();
        let mut schedulers = Vec::new();
        for t in &tasks {
            for _ in 0..3 {
                let t = t.clone();
                schedulers.push(std::thread::spawn(move || {
                    for _ in 0..500 {
                        t.schedule();
                    }
                }));
            }
        }
        for s in schedulers {
            s.join().unwrap();
        }
        assert!(
            metrics.runq_depth.high_water_mark() <= tasks.len() as u64,
            "HWM {} exceeds task count {}",
            metrics.runq_depth.high_water_mark(),
            tasks.len()
        );
        assert!(metrics.tasks_polled.get() > 0);
    }

    /// A finished task is never polled again and `wait_done` observes it.
    #[test]
    fn done_task_is_retired() {
        let exec = Executor::new(&ExecutorOptions { workers: Some(1) });
        let session = exec.add_session();
        let metrics = Arc::new(EngineMetrics::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let t = exec.spawn(
            session,
            metrics,
            sink(),
            Box::new(CountTask {
                polls: polls.clone(),
                done_after: 1,
                sleep: Duration::ZERO,
            }),
        );
        exec.wait_done(std::slice::from_ref(&t));
        let after = polls.load(Ordering::SeqCst);
        assert_eq!(after, 1);
        for _ in 0..10 {
            t.schedule();
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(polls.load(Ordering::SeqCst), after, "retired task polled");
    }

    struct TimerTask {
        polls: Arc<AtomicUsize>,
        interval: Duration,
    }

    impl Task for TimerTask {
        fn poll(&mut self, now: Instant) -> Poll {
            self.polls.fetch_add(1, Ordering::SeqCst);
            Poll {
                msgs: 0,
                done: false,
                deadline: Some(now + self.interval),
                more: false,
            }
        }
    }

    /// A task that only arms timers is re-polled by the timer wheel with
    /// no external schedules.
    #[test]
    fn timer_wheel_repolls_without_schedules() {
        let exec = Executor::new(&ExecutorOptions { workers: Some(1) });
        let session = exec.add_session();
        let metrics = Arc::new(EngineMetrics::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let _t = exec.spawn(
            session,
            metrics,
            sink(),
            Box::new(TimerTask {
                polls: polls.clone(),
                interval: Duration::from_millis(10),
            }),
        );
        std::thread::sleep(Duration::from_millis(120));
        let n = polls.load(Ordering::SeqCst);
        assert!(n >= 4, "timer should have fired repeatedly, saw {n} polls");
    }

    /// An idle worker steals queued tasks from a busy sibling's shard.
    #[test]
    fn idle_worker_steals_from_busy_shard() {
        let exec = Executor::new(&ExecutorOptions { workers: Some(2) });
        let session = exec.add_session();
        let metrics = Arc::new(EngineMetrics::new());
        let polls = Arc::new(AtomicUsize::new(0));
        // Home shards alternate 0,1,0,1: the long sleeper occupies one
        // worker while short tasks homed behind it wait — the other worker
        // must steal them.
        let mut tasks = Vec::new();
        for i in 0..6 {
            let sleep = if i == 0 {
                Duration::from_millis(150)
            } else {
                Duration::ZERO
            };
            tasks.push(exec.spawn(
                session,
                metrics.clone(),
                sink(),
                Box::new(CountTask {
                    polls: polls.clone(),
                    done_after: 1,
                    sleep,
                }),
            ));
        }
        exec.wait_done(&tasks);
        assert_eq!(polls.load(Ordering::SeqCst), 6);
        assert!(
            metrics.worker_steal.get() >= 1,
            "expected at least one steal, saw {}",
            metrics.worker_steal.get()
        );
    }

    /// A panicking poll is contained: reported to the sink, task retired,
    /// pool still serves other tasks.
    #[test]
    fn panicking_task_is_contained() {
        struct PanicTask;
        impl Task for PanicTask {
            fn poll(&mut self, _now: Instant) -> Poll {
                panic!("injected poll panic");
            }
        }
        let exec = Executor::new(&ExecutorOptions { workers: Some(1) });
        let session = exec.add_session();
        let metrics = Arc::new(EngineMetrics::new());
        let caught = Arc::new(Mutex::new(None));
        let sink: PanicSink = {
            let caught = caught.clone();
            Arc::new(move |detail| {
                *caught.lock() = Some(detail);
            })
        };
        let bad = exec.spawn(session, metrics.clone(), sink, Box::new(PanicTask));
        exec.wait_done(std::slice::from_ref(&bad));
        assert_eq!(caught.lock().as_deref(), Some("injected poll panic"));
        let polls = Arc::new(AtomicUsize::new(0));
        let ok = exec.spawn(
            session,
            metrics,
            Arc::new(|_| {}),
            Box::new(CountTask {
                polls: polls.clone(),
                done_after: 1,
                sleep: Duration::ZERO,
            }),
        );
        exec.wait_done(std::slice::from_ref(&ok));
        assert_eq!(polls.load(Ordering::SeqCst), 1);
    }
}
