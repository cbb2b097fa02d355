//! The event-driven executor behind the threaded fabric: one worker pool
//! per [`Fabric`](super::Fabric).
//!
//! Instead of one OS thread per rep and per agent, a fixed **worker pool**
//! polls node tasks. Each rep, agent and importer is a state machine
//! implementing `Task`; a mailbox push (or an expired
//! timer) marks the task runnable. **The thread that made it runnable
//! polls it itself** when it can — a worker, or an application thread or
//! socket reader inside `Helper::help` — from a short thread-local
//! run-next list, at its next top-level point: never nested inside another
//! poll, never under a lock. The **sharded run queues** hold the rest:
//! overflow, tasks that call themselves heavy, and whatever a thread that
//! cannot run tasks (an `export()`, the chaos relay, `shutdown`) wakes;
//! only those cost a lock and a wake-up. Timers — a crashed rep's recovery
//! instant — share one per-shard timer heap.
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
//! leans on: a task is **never polled concurrently** (only the thread that
//! moved it `Queued → Running` may poll it), and a task sits in a run
//! queue or run-next list **at most once** — which bounds the `runq_depth`
//! high-water mark by the live task count no matter how many messages land
//! in mailboxes.
//!
//! Workers own one shard each and steal from the others when their own
//! runs dry (metered as `worker_steal`); a push wakes the home worker if it
//! is parked and a parked sibling otherwise, unless a wake-up is already in
//! flight. A panicking poll is contained with `catch_unwind`, reported
//! through the task's panic sink (the fabric surfaces it as
//! `ThreadedError::ProcessCrash`), and the task is retired — exactly the
//! containment the per-thread loops had.

use couplink_metrics::EngineMetrics;
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// Task states (the atomic state machine above).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;
const DEAD: u8 = 4;

/// Most tasks a thread keeps in its run-next list; a wider fan-out (a rep
/// forwarding to 128 ranks) overflows to the shard queues and the other
/// workers.
const RUN_NEXT_CAP: usize = 4;

/// Most polls a thread takes from its run-next list before it goes back to
/// the shard queues (the fabric's `REP_BATCH`): two tasks feeding each
/// other cannot keep a worker from its timers and its shard queue, nor
/// hold an `import()` for ever.
const CHAIN_BUDGET: usize = 64;

/// What this thread made runnable and will poll itself, and the executor
/// it may poll for (`None`: it cannot run tasks, so everything it wakes
/// goes to the shard queues).
struct RunNext {
    exec: Option<Arc<ExecInner>>,
    list: VecDeque<Arc<TaskEntry>>,
}

thread_local! {
    static RUN_NEXT: RefCell<RunNext> = const {
        RefCell::new(RunNext { exec: None, list: VecDeque::new() })
    };
}

/// While alive, this thread keeps what it wakes on `exec`; dropping it
/// publishes whatever the thread did not get to poll.
struct Scope;

impl Scope {
    fn open(exec: &Arc<ExecInner>) -> Scope {
        let prev = RUN_NEXT.with(|rn| rn.borrow_mut().exec.replace(exec.clone()));
        debug_assert!(prev.is_none(), "run-next scopes do not nest");
        Scope
    }
}

impl Drop for Scope {
    fn drop(&mut self) {
        publish_run_next();
        RUN_NEXT.with(|rn| rn.borrow_mut().exec = None);
    }
}

/// Moves this thread's run-next list to the shard queues, waking a worker
/// for each task. Called before the thread blocks: it never parks holding
/// runnable tasks only it can reach.
pub(crate) fn publish_run_next() {
    while let Some((exec, entry)) = RUN_NEXT.with(|rn| {
        let mut rn = rn.borrow_mut();
        let entry = rn.list.pop_front()?;
        Some((rn.exec.clone()?, entry))
    }) {
        exec.push(entry);
    }
}

/// Takes the oldest task off this thread's run-next list (`Queued →
/// Running`, like a shard pop).
fn take_run_next() -> Option<Arc<TaskEntry>> {
    let entry = RUN_NEXT.with(|rn| rn.borrow_mut().list.pop_front())?;
    entry.metrics.tasks_chained.inc();
    entry.state.store(RUNNING, Ordering::Release);
    Some(entry)
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

/// A polled state machine (rep, agent, importer).
pub(crate) trait Task: Send {
    /// Drains whatever is runnable right now. `now` is the poll instant —
    /// tasks compare their own deadlines (a crashed rep's recovery instant)
    /// against it rather than re-reading the clock.
    fn poll(&mut self, now: Instant) -> Poll;

    /// Whether one poll can cost more than handing the task to another
    /// thread (it moves a large payload). A heavy task is never kept on a
    /// run-next list: a second thread running it in parallel beats the
    /// waking thread running it later.
    fn heavy(&self) -> bool {
        false
    }
}

/// Where a contained task panic is reported (the fabric's error slot).
pub(crate) type PanicSink = Arc<dyn Fn(String) + Send + Sync>;

struct TaskEntry {
    state: AtomicU8,
    /// Timer generation: a heap entry is live only while its generation
    /// matches, so re-arming or cancelling is one `fetch_add`.
    timer_gen: AtomicU64,
    /// [`Task::heavy`], read once at spawn.
    heavy: bool,
    /// Home shard (timers live here; the owning worker polls it first).
    shard: usize,
    metrics: Arc<EngineMetrics>,
    panic_sink: PanicSink,
    /// `None` once the task is dead: a finished task drops its state, and
    /// with it the mailbox and routing table it holds, so nothing of a
    /// shut-down fabric stays alive through it.
    task: Mutex<Option<Box<dyn Task>>>,
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

/// Lets a thread outside the pool poll the executor's tasks: an
/// application thread in `import()`, a socket node's mesh reader.
#[derive(Clone)]
pub(crate) struct Helper(Arc<ExecInner>);

impl Helper {
    /// For a thread about to block anyway (on an import's answer, on its
    /// socket's next `read`): runs `f`, then polls here — outside `f` and
    /// any lock it took — what `f` woke and what those polls wake in turn,
    /// up to [`CHAIN_BUDGET`] polls. The rest is published before this
    /// returns.
    pub fn help<R>(&self, f: impl FnOnce() -> R) -> R {
        let _scope = Scope::open(&self.0);
        let out = f();
        for _ in 0..CHAIN_BUDGET {
            let Some(entry) = take_run_next() else { break };
            self.0.run(entry);
        }
        out
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
    runq: VecDeque<Arc<TaskEntry>>,
    timers: BinaryHeap<Reverse<TimerEntry>>,
}

struct Shard {
    q: Mutex<ShardQueues>,
    cv: Condvar,
    /// Tasks in `q.runq`; written under `q`, read without it by a
    /// sibling deciding whether it may park.
    queued: AtomicUsize,
    /// The shard's worker is in (or committed to) `cv.wait`; written by
    /// that worker under `q`.
    parked: AtomicBool,
}

struct ExecInner {
    shards: Vec<Shard>,
    stop: AtomicBool,
    /// A worker was notified for a light task and has not run yet.
    waking: AtomicBool,
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
                        self.enqueue(entry.clone());
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

    /// Hands an already-`Queued` task to whoever polls it next: this
    /// thread, if it runs this executor's tasks, has room and the task's
    /// polls are light — no lock, no wake-up; its home shard otherwise.
    fn enqueue(&self, entry: Arc<TaskEntry>) {
        let overflow = RUN_NEXT.with(|rn| {
            let mut rn = rn.borrow_mut();
            let mine = rn.exec.as_ref().is_some_and(|e| std::ptr::eq(&**e, self));
            if mine && !entry.heavy && rn.list.len() < RUN_NEXT_CAP {
                rn.list.push_back(entry);
                None
            } else {
                Some(entry)
            }
        });
        if let Some(entry) = overflow {
            self.push(entry);
        }
    }

    /// Pushes an already-`Queued` task onto its home shard and wakes a
    /// worker for it: the home worker if parked, else one parked sibling
    /// to steal it — a busy home worker may be a long poll away from its
    /// queue. At most one wake-up is in flight: while a woken worker has
    /// not yet run, a second light task shares its wake-up (it drains both
    /// in less time than a second one costs the pusher — an `export()`,
    /// which is then not preempted twice); a heavy task always gets its
    /// own, parallelism being the point of queueing it.
    fn push(&self, entry: Arc<TaskEntry>) {
        let (home, heavy) = (entry.shard, entry.heavy);
        let shard = &self.shards[home];
        entry.metrics.runq_depth.add(1);
        let mut q = shard.q.lock();
        q.runq.push_back(entry);
        shard.queued.fetch_add(1, Ordering::SeqCst);
        drop(q);
        let n = self.shards.len();
        let Some(target) = (0..n)
            .map(|i| &self.shards[(home + i) % n])
            .find(|s| s.parked.load(Ordering::SeqCst))
        else {
            return;
        };
        // A worker holds its lock from raising `parked` until it waits, and
        // lowers it — and `waking` — under the lock again: seen raised from
        // under the lock, the worker is waiting and will lower both.
        let wake = {
            let _parking = target.q.lock();
            target.parked.load(Ordering::SeqCst)
                && (heavy || !self.waking.swap(true, Ordering::SeqCst))
        };
        if wake {
            target.cv.notify_one();
        }
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
        let parked = shard.parked.load(Ordering::SeqCst);
        drop(q);
        if parked {
            // The home worker is sleeping toward a later deadline.
            shard.cv.notify_one();
        }
    }

    fn cancel_timer(&self, entry: &TaskEntry) {
        entry.timer_gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Pops a shard's oldest runnable task; transitions it `Queued →
    /// Running`.
    fn pop_from(&self, shard: &Shard) -> Option<Arc<TaskEntry>> {
        if shard.queued.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let entry = shard.q.lock().runq.pop_front()?;
        shard.queued.fetch_sub(1, Ordering::SeqCst);
        entry.metrics.runq_depth.sub(1);
        entry.state.store(RUNNING, Ordering::Release);
        Some(entry)
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
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut task = entry.task.lock();
            // Only a live task is ever queued; a dead one stays dead.
            task.as_mut().map_or(
                Poll {
                    done: true,
                    ..Poll::idle()
                },
                |t| t.poll(now),
            )
        }));
        match outcome {
            Err(p) => {
                (entry.panic_sink)(panic_detail(p));
                self.retire(&entry);
            }
            Ok(poll) => {
                entry.metrics.poll_batch.observe(poll.msgs);
                if poll.done {
                    self.retire(&entry);
                    return;
                }
                match poll.deadline {
                    Some(at) => self.set_timer(&entry, at),
                    None => self.cancel_timer(&entry),
                }
                if poll.more {
                    entry.state.store(QUEUED, Ordering::Release);
                    self.enqueue(entry);
                } else if entry
                    .state
                    .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    // A schedule landed mid-poll (RunningDirty): re-queue so
                    // the message that raced with the drain is seen.
                    entry.state.store(QUEUED, Ordering::Release);
                    self.enqueue(entry);
                }
            }
        }
    }

    /// Marks a finished (or panicked) task dead and drops its state,
    /// outside its lock: the task may hold the last handles on other
    /// tasks.
    fn retire(&self, entry: &TaskEntry) {
        self.cancel_timer(entry);
        let task = entry.task.lock().take();
        drop(task);
        entry.state.store(DEAD, Ordering::Release);
        self.notify_done();
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
    let _scope = Scope::open(&inner);
    let shard = &inner.shards[me];
    let siblings = || (0..inner.shards.len()).filter(|&s| s != me);
    let mut chained = 0;
    loop {
        if inner.stop.load(Ordering::Acquire) {
            return;
        }
        inner.fire_timers(me, Instant::now());
        // What this thread woke comes first: the chain rep → agent → rep
        // → importer stays on one warm thread.
        if chained < CHAIN_BUDGET {
            if let Some(entry) = take_run_next() {
                chained += 1;
                inner.run(entry);
                continue;
            }
        }
        // List empty or budget spent: publish the rest, take the shard's
        // oldest task.
        publish_run_next();
        chained = 0;
        if let Some(entry) = inner.pop_from(shard) {
            inner.run(entry);
            continue;
        }
        // Own shard dry: steal one task from a sibling before sleeping.
        if let Some(entry) = siblings().find_map(|s| inner.pop_from(&inner.shards[s])) {
            entry.metrics.worker_steal.inc();
            inner.run(entry);
            continue;
        }
        // Nothing runnable anywhere: sleep until this shard's next timer
        // (or until a push/timer/stop notifies). The own queue is checked
        // under the shard lock, so a push to it cannot slip between check
        // and wait; a push to a sibling's shard either is seen by the
        // re-check below or sees `parked` (both `SeqCst`) and notifies.
        let mut q = shard.q.lock();
        if shard.queued.load(Ordering::SeqCst) > 0 || inner.stop.load(Ordering::Acquire) {
            continue;
        }
        shard.parked.store(true, Ordering::SeqCst);
        if siblings().all(|s| inner.shards[s].queued.load(Ordering::SeqCst) == 0) {
            match q.timers.peek().map(|Reverse(t)| t.at) {
                Some(at) => {
                    shard.cv.wait_until(&mut q, at);
                }
                None => shard.cv.wait(&mut q),
            }
        }
        shard.parked.store(false, Ordering::SeqCst);
        inner.waking.store(false, Ordering::SeqCst);
    }
}

/// The worker pool plus its sharded run queues. One per
/// [`Fabric`](crate::threaded::Fabric).
pub(crate) struct Executor {
    inner: Arc<ExecInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// One worker (and run-queue shard) per available core.
    pub fn new() -> Self {
        Self::with_workers(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    pub(crate) fn with_workers(workers: usize) -> Self {
        let inner = Arc::new(ExecInner {
            shards: (0..workers)
                .map(|_| Shard {
                    q: Mutex::new(ShardQueues {
                        runq: VecDeque::new(),
                        timers: BinaryHeap::new(),
                    }),
                    cv: Condvar::new(),
                    queued: AtomicUsize::new(0),
                    parked: AtomicBool::new(false),
                })
                .collect(),
            stop: AtomicBool::new(false),
            waking: AtomicBool::new(false),
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

    /// A handle for threads outside the pool to run what they wake.
    pub fn helper(&self) -> Helper {
        Helper(self.inner.clone())
    }

    /// Spawns a task (home shard assigned round-robin) and schedules its
    /// first poll so it can arm initial timers.
    pub fn spawn(
        &self,
        metrics: Arc<EngineMetrics>,
        panic_sink: PanicSink,
        task: Box<dyn Task>,
    ) -> TaskHandle {
        let shard =
            self.inner.next_task.fetch_add(1, Ordering::Relaxed) as usize % self.inner.shards.len();
        let entry = Arc::new(TaskEntry {
            state: AtomicU8::new(IDLE),
            timer_gen: AtomicU64::new(0),
            heavy: task.heavy(),
            shard,
            metrics,
            panic_sink,
            task: Mutex::new(Some(task)),
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
    /// the fabric drains its tasks first.
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
pub(crate) mod tests {
    use super::*;

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
        let exec = Executor::with_workers(2);
        let metrics = Arc::new(EngineMetrics::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<TaskHandle> = (0..4)
            .map(|_| {
                exec.spawn(
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
        let exec = Executor::with_workers(1);
        let metrics = Arc::new(EngineMetrics::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let t = exec.spawn(
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
        let exec = Executor::with_workers(1);
        let metrics = Arc::new(EngineMetrics::new());
        let polls = Arc::new(AtomicUsize::new(0));
        let _t = exec.spawn(
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
        let exec = Executor::with_workers(2);
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
        let exec = Executor::with_workers(1);
        let metrics = Arc::new(EngineMetrics::new());
        let caught = Arc::new(Mutex::new(None));
        let sink: PanicSink = {
            let caught = caught.clone();
            Arc::new(move |detail| {
                *caught.lock() = Some(detail);
            })
        };
        let bad = exec.spawn(metrics.clone(), sink, Box::new(PanicTask));
        exec.wait_done(std::slice::from_ref(&bad));
        assert_eq!(caught.lock().as_deref(), Some("injected poll panic"));
        let polls = Arc::new(AtomicUsize::new(0));
        let ok = exec.spawn(
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
    /// A task from a closure, for tests that script their polls.
    struct FnTask<F>(F);

    impl<F: FnMut() -> Poll + Send> Task for FnTask<F> {
        fn poll(&mut self, _now: Instant) -> Poll {
            (self.0)()
        }
    }

    /// A scripted task that declares itself heavy.
    struct HeavyTask<F>(F);

    impl<F: FnMut() -> Poll + Send> Task for HeavyTask<F> {
        fn poll(&mut self, _now: Instant) -> Poll {
            (self.0)()
        }

        fn heavy(&self) -> bool {
            true
        }
    }

    pub(crate) fn spawn_fn(
        exec: &Executor,
        metrics: &Arc<EngineMetrics>,
        f: impl FnMut() -> Poll + Send + 'static,
    ) -> TaskHandle {
        let h = exec.spawn(metrics.clone(), sink(), Box::new(FnTask(f)));
        // Every task is polled once at spawn; tests start from idle.
        wait_for(|| metrics.tasks_polled.get() > 0 && h.entry.state.load(Ordering::SeqCst) == IDLE);
        h
    }

    /// Spins (politely) until `cond` holds; panics after 5 s.
    pub(crate) fn wait_for(cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "condition not reached in 5 s");
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn worker_index() -> Option<usize> {
        let name = std::thread::current().name()?.to_owned();
        name.strip_prefix("couplink-worker-")?.parse().ok()
    }

    /// A task made runnable from inside a worker's poll is polled next by
    /// the same thread and never enters a shard queue: every poll of it
    /// after the spawn-time one is a chained one, and none was stolen.
    #[test]
    fn task_woken_inside_a_poll_runs_next_on_the_same_thread() {
        let exec = Executor::with_workers(2);
        let (ma, mb) = (
            Arc::new(EngineMetrics::new()),
            Arc::new(EngineMetrics::new()),
        );
        let threads = Arc::new(Mutex::new(Vec::new()));
        let b = {
            let threads = threads.clone();
            spawn_fn(&exec, &mb, move || {
                threads.lock().push(("b", std::thread::current().id()));
                Poll::idle()
            })
        };
        let go = Arc::new(AtomicBool::new(false));
        let a = {
            let (threads, go) = (threads.clone(), go.clone());
            spawn_fn(&exec, &ma, move || {
                if go.load(Ordering::SeqCst) {
                    threads.lock().push(("a", std::thread::current().id()));
                    b.schedule();
                }
                Poll::idle()
            })
        };
        threads.lock().clear();
        let stolen_at_spawn = mb.worker_steal.get();
        go.store(true, Ordering::SeqCst);
        for round in 1..=50 {
            a.schedule();
            wait_for(|| mb.tasks_polled.get() == 1 + round);
        }
        let seen = threads.lock().clone();
        assert_eq!(seen.len(), 100);
        for pair in seen.chunks(2) {
            assert_eq!((pair[0].0, pair[1].0), ("a", "b"), "b runs right after a");
            assert_eq!(pair[0].1, pair[1].1, "on the thread that woke it");
        }
        assert_eq!(mb.tasks_chained.get(), 50);
        assert_eq!(mb.tasks_polled.get(), 51, "50 chained + the spawn-time pop");
        assert_eq!(mb.worker_steal.get(), stolen_at_spawn);
        assert_eq!(mb.runq_depth.high_water_mark(), 1, "queued at spawn only");
    }

    /// Never nested: a poll that wakes a second task while holding a mutex
    /// the second task's poll needs completes — the second poll starts
    /// after the first returned. And a thread with no scope open (an
    /// `export()`, the chaos relay) still goes through the shard queue.
    #[test]
    fn woken_task_is_not_polled_inside_the_waking_poll() {
        let exec = Executor::with_workers(1);
        let (ma, mb) = (
            Arc::new(EngineMetrics::new()),
            Arc::new(EngineMetrics::new()),
        );
        let shared = Arc::new(std::sync::Mutex::new(0u32));
        let b = {
            let shared = shared.clone();
            spawn_fn(&exec, &mb, move || {
                *shared.try_lock().expect("the waking poll has returned") += 1;
                Poll::idle()
            })
        };
        let b2 = b.clone();
        let a = spawn_fn(&exec, &ma, move || {
            let _held = shared.lock().expect("not poisoned");
            b2.schedule();
            Poll::idle()
        });
        // a's spawn-time poll woke b under the lock already.
        drop(a);
        wait_for(|| mb.tasks_polled.get() == 2);
        assert_eq!(mb.tasks_chained.get(), 1);
        // Foreign thread: no scope, so the shard queue and a worker.
        b.schedule();
        wait_for(|| mb.tasks_polled.get() == 3);
        assert_eq!(mb.tasks_chained.get(), 1);
    }

    /// The list is short: a poll that wakes six tasks keeps four and
    /// publishes two, which the other worker runs while the waking poll is
    /// still going on.
    #[test]
    fn run_next_overflow_is_published_to_another_worker() {
        let exec = Executor::with_workers(2);
        let (ma, mt) = (
            Arc::new(EngineMetrics::new()),
            Arc::new(EngineMetrics::new()),
        );
        let polled = Arc::new(AtomicUsize::new(0));
        let targets: Vec<TaskHandle> = (0..6)
            .map(|_| {
                let polled = polled.clone();
                spawn_fn(&exec, &mt, move || {
                    polled.fetch_add(1, Ordering::SeqCst);
                    Poll::idle()
                })
            })
            .collect();
        wait_for(|| polled.load(Ordering::SeqCst) == 6);
        let go = Arc::new(AtomicBool::new(false));
        let overflow_ran_meanwhile = Arc::new(AtomicBool::new(false));
        let a = {
            let (go, polled, ok) = (go.clone(), polled.clone(), overflow_ran_meanwhile.clone());
            spawn_fn(&exec, &ma, move || {
                if go.load(Ordering::SeqCst) {
                    targets.iter().for_each(TaskHandle::schedule);
                    // This worker is held here: whatever is polled now was
                    // published and picked up by the other one.
                    let deadline = Instant::now() + Duration::from_secs(5);
                    while polled.load(Ordering::SeqCst) < 8 && Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    ok.store(polled.load(Ordering::SeqCst) == 8, Ordering::SeqCst);
                }
                Poll::idle()
            })
        };
        go.store(true, Ordering::SeqCst);
        a.schedule();
        wait_for(|| polled.load(Ordering::SeqCst) == 12);
        assert!(overflow_ran_meanwhile.load(Ordering::SeqCst));
        assert_eq!(mt.tasks_chained.get(), RUN_NEXT_CAP as u64);
    }

    /// The poll budget: a task that re-queues itself for ever on a
    /// one-worker pool still lets a task waiting in the shard queue have
    /// its turn, and one poll in `CHAIN_BUDGET + 1` comes off the queue.
    #[test]
    fn chain_budget_returns_the_worker_to_its_shard_queue() {
        let exec = Executor::with_workers(1);
        let (ml, mq) = (
            Arc::new(EngineMetrics::new()),
            Arc::new(EngineMetrics::new()),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let looper = exec.spawn(
            ml.clone(),
            sink(),
            Box::new(FnTask(move || Poll {
                msgs: 1,
                done: stop2.load(Ordering::SeqCst),
                deadline: None,
                more: true,
            })),
        );
        wait_for(|| ml.tasks_polled.get() > 4 * CHAIN_BUDGET as u64);
        let q = spawn_fn(&exec, &mq, Poll::idle);
        q.schedule();
        wait_for(|| mq.tasks_polled.get() == 2);
        stop.store(true, Ordering::SeqCst);
        exec.wait_done(std::slice::from_ref(&looper));
        let (polled, chained) = (ml.tasks_polled.get(), ml.tasks_chained.get());
        assert!(chained > 0 && polled - chained >= polled / (CHAIN_BUDGET as u64 + 1));
    }

    /// A push wakes a worker that can run the task: with the home worker
    /// held inside a poll and its sibling parked, a task homed on the busy
    /// shard is stolen by the sibling at once — not left beside an idle
    /// worker until the home worker comes back.
    #[test]
    fn push_to_a_busy_home_shard_wakes_the_parked_sibling() {
        let exec = Executor::with_workers(2);
        let mh = Arc::new(EngineMetrics::new());
        let mt = [
            Arc::new(EngineMetrics::new()),
            Arc::new(EngineMetrics::new()),
        ];
        // Home shards go round-robin: target 0 on shard 0, target 1 on 1.
        let targets = [
            spawn_fn(&exec, &mt[0], Poll::idle),
            spawn_fn(&exec, &mt[1], Poll::idle),
        ];
        let (held_tx, held_rx) = std::sync::mpsc::channel::<usize>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let go = Arc::new(AtomicBool::new(false));
        let go2 = go.clone();
        let holder = spawn_fn(&exec, &mh, move || {
            if go2.load(Ordering::SeqCst) {
                held_tx
                    .send(worker_index().expect("a pool worker"))
                    .unwrap();
                let _ = release_rx.recv_timeout(Duration::from_secs(5));
            }
            Poll::idle()
        });
        go.store(true, Ordering::SeqCst);
        holder.schedule();
        let busy = held_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("holder polled");
        let idle = 1 - busy;
        wait_for(|| exec.inner.shards[idle].parked.load(Ordering::SeqCst));
        let stolen_before = mt[busy].worker_steal.get();
        let t0 = Instant::now();
        targets[busy].schedule();
        wait_for(|| mt[busy].tasks_polled.get() == 2);
        let took = t0.elapsed();
        let stolen = mt[busy].worker_steal.get() - stolen_before;
        assert_eq!(stolen, 1, "the sibling stole it");
        assert!(mh.tasks_polled.get() == 2 && holder.entry.state.load(Ordering::SeqCst) == RUNNING);
        assert!(
            took < Duration::from_millis(100),
            "waited {took:?} beside an idle worker"
        );
        release_tx.send(()).unwrap();
    }

    /// A panicking task polled on a helping application thread is reported
    /// through its panic sink and retired; the thread survives and goes on
    /// to poll the rest of what it woke.
    #[test]
    fn panic_on_a_helping_thread_is_contained() {
        let exec = Executor::with_workers(1);
        let metrics = Arc::new(EngineMetrics::new());
        let caught = Arc::new(Mutex::new(None));
        let armed = Arc::new(AtomicBool::new(false));
        let bad = {
            let (caught, armed) = (caught.clone(), armed.clone());
            let sink: PanicSink = Arc::new(move |detail| *caught.lock() = Some(detail));
            let task = FnTask(move || {
                assert!(!armed.load(Ordering::SeqCst), "injected poll panic");
                Poll::idle()
            });
            exec.spawn(metrics.clone(), sink, Box::new(task))
        };
        let me = std::thread::current().id();
        let after = Arc::new(Mutex::new(None));
        let after2 = after.clone();
        let good = spawn_fn(&exec, &metrics, move || {
            *after2.lock() = Some(std::thread::current().id());
            Poll::idle()
        });
        wait_for(|| bad.entry.state.load(Ordering::SeqCst) == IDLE);
        armed.store(true, Ordering::SeqCst);
        *after.lock() = None;
        let out = exec.helper().help(|| {
            bad.schedule();
            good.schedule();
            7
        });
        assert_eq!(out, 7);
        assert!(caught
            .lock()
            .as_deref()
            .is_some_and(|d| d.contains("injected poll panic")));
        assert!(bad.is_done());
        assert_eq!(*after.lock(), Some(me), "polled here, after the panic");
    }

    /// A heavy task is never kept on a run-next list: woken from inside a
    /// worker's poll next to a light one, the light one is chained and the
    /// heavy one goes through the shard queue.
    #[test]
    fn heavy_task_is_queued_not_chained() {
        let exec = Executor::with_workers(1);
        let (mw, ml, mh) = (
            Arc::new(EngineMetrics::new()),
            Arc::new(EngineMetrics::new()),
            Arc::new(EngineMetrics::new()),
        );
        let light = spawn_fn(&exec, &ml, Poll::idle);
        let heavy = exec.spawn(mh.clone(), sink(), Box::new(HeavyTask(Poll::idle)));
        wait_for(|| mh.tasks_polled.get() == 1 && heavy.entry.state.load(Ordering::SeqCst) == IDLE);
        let go = Arc::new(AtomicBool::new(false));
        let go2 = go.clone();
        let waker = spawn_fn(&exec, &mw, move || {
            if go2.load(Ordering::SeqCst) {
                heavy.schedule();
                light.schedule();
            }
            Poll::idle()
        });
        go.store(true, Ordering::SeqCst);
        waker.schedule();
        wait_for(|| ml.tasks_polled.get() == 2 && mh.tasks_polled.get() == 2);
        assert_eq!((ml.tasks_chained.get(), mh.tasks_chained.get()), (1, 0));
    }

    /// At most one wake-up is in flight for light tasks. Both workers are
    /// held inside polls, so only this test touches `parked` and `waking`:
    /// shard 0 is marked parked by hand and a test thread parks on shard
    /// 1's condvar in its worker's stead. A light push for shard 0 claims
    /// the wake-up; a light push for shard 1 then sends none (the stand-in
    /// times out); a heavy push for shard 1 sends its own.
    #[test]
    fn light_pushes_share_a_wake_up_and_a_heavy_push_gets_its_own() {
        let exec = Executor::with_workers(2);
        let m = Arc::new(EngineMetrics::new());
        // Home shards go round-robin: 0, 1, 0, 1.
        let light = [
            spawn_fn(&exec, &m, Poll::idle),
            spawn_fn(&exec, &m, Poll::idle),
        ];
        let _filler = spawn_fn(&exec, &m, Poll::idle);
        let heavy = exec.spawn(m.clone(), sink(), Box::new(HeavyTask(Poll::idle)));
        assert_eq!(
            (
                light[0].entry.shard,
                light[1].entry.shard,
                heavy.entry.shard
            ),
            (0, 1, 1)
        );
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        let release = Arc::new(AtomicBool::new(false));
        let go = Arc::new(AtomicBool::new(false));
        let holders: Vec<TaskHandle> = (0..2)
            .map(|_| {
                let (held_tx, release, go) = (held_tx.clone(), release.clone(), go.clone());
                spawn_fn(&exec, &m, move || {
                    if go.load(Ordering::SeqCst) {
                        held_tx.send(()).unwrap();
                        while !release.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    Poll::idle()
                })
            })
            .collect();
        go.store(true, Ordering::SeqCst);
        for h in &holders {
            h.schedule();
            held_rx
                .recv_timeout(Duration::from_secs(5))
                .expect("a worker is held");
        }
        let inner = exec.inner.clone();
        inner.waking.store(false, Ordering::SeqCst);
        inner.shards[0].parked.store(true, Ordering::SeqCst);
        let (woken_tx, woken_rx) = std::sync::mpsc::channel::<bool>();
        let stand_in = {
            let inner = inner.clone();
            std::thread::spawn(move || {
                for _ in 0..2 {
                    let shard = &inner.shards[1];
                    let mut q = shard.q.lock();
                    shard.parked.store(true, Ordering::SeqCst);
                    let timed_out = shard
                        .cv
                        .wait_for(&mut q, Duration::from_millis(300))
                        .timed_out();
                    shard.parked.store(false, Ordering::SeqCst);
                    drop(q);
                    woken_tx.send(!timed_out).unwrap();
                }
            })
        };
        let parked_on_shard_1 = || {
            wait_for(|| inner.shards[1].parked.load(Ordering::SeqCst));
            drop(inner.shards[1].q.lock());
        };
        parked_on_shard_1();
        light[0].schedule();
        assert!(
            inner.waking.load(Ordering::SeqCst),
            "shard 0's wake-up is in flight"
        );
        light[1].schedule();
        assert!(
            !woken_rx.recv().unwrap(),
            "the second light push sent no wake-up"
        );
        parked_on_shard_1();
        heavy.schedule();
        assert!(
            woken_rx.recv().unwrap(),
            "a heavy push always sends its own"
        );
        stand_in.join().unwrap();
        inner.shards[0].parked.store(false, Ordering::SeqCst);
        release.store(true, Ordering::SeqCst);
        // The released workers find the three pushed tasks in their queues.
        wait_for(|| m.runq_depth.level() == 0);
    }
}
