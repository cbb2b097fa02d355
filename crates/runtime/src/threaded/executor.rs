//! The event-driven executor behind the threaded fabric: one worker pool
//! per [`Fabric`](super::Fabric).
//!
//! Instead of one OS thread per rep and per agent, a fixed **worker pool**
//! polls node tasks. Each rep, agent and importer is a state machine
//! implementing `Task`; a mailbox push marks the task runnable. **The
//! thread that made it runnable polls it itself** when it can — a worker,
//! or an application thread or socket reader inside `Helper::help` — from
//! a short thread-local run-next list, at its next top-level point: never
//! nested inside another poll, never under a lock. The **run queue** holds
//! the rest: overflow, tasks that call themselves heavy, and whatever a
//! thread that cannot run tasks (an `export()`, the chaos relay,
//! `shutdown`) wakes; only those cost a lock and a wake-up. The executor
//! reads no clock: a crashed rep's recovery instant is the chaos relay's.
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
//! moved it `Queued → Running` may poll it), and a task sits in the run
//! queue or a run-next list **at most once** — which bounds the
//! `runq_depth` high-water mark by the live task count no matter how many
//! messages land in mailboxes.
//!
//! Workers share the one run queue and sleep on its condvar; a push wakes
//! an idle worker unless a wake-up is already in flight. A panicking poll
//! is contained with `catch_unwind`, reported through the task's panic
//! sink (the fabric surfaces it as `ThreadedError::ProcessCrash`), and the
//! task is retired — exactly the containment the per-thread loops had.

use couplink_metrics::EngineMetrics;
use parking_lot::{Condvar, Mutex};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

// Task states (the atomic state machine above).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;
const DEAD: u8 = 4;

/// Most tasks a thread keeps in its run-next list; a wider fan-out (a rep
/// forwarding to 128 ranks) overflows to the run queue and the other
/// workers.
const RUN_NEXT_CAP: usize = 4;

/// Most polls a thread takes from its run-next list before it goes back to
/// the run queue (the fabric's `REP_BATCH`): two tasks feeding each other
/// cannot keep a worker from the run queue, nor hold an `import()` for
/// ever.
const CHAIN_BUDGET: usize = 64;

/// What this thread made runnable and will poll itself, and the executor
/// it may poll for (`None`: it cannot run tasks, so everything it wakes
/// goes to the run queue).
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

/// Moves this thread's run-next list to the run queue, waking a worker
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
/// Running`, like a run-queue pop).
fn take_run_next() -> Option<Arc<TaskEntry>> {
    let entry = RUN_NEXT.with(|rn| rn.borrow_mut().list.pop_front())?;
    entry.metrics.tasks_chained.inc();
    entry.state.store(RUNNING, Ordering::Release);
    Some(entry)
}

/// What one task poll did.
pub(crate) struct Poll {
    /// Messages the poll drained (observed into the `poll_batch`
    /// histogram).
    pub msgs: u64,
    /// The task finished; never poll it again.
    pub done: bool,
    /// The task knows it left work behind (e.g. a capped mailbox drain):
    /// re-queue immediately instead of going idle.
    pub more: bool,
}

impl Poll {
    /// A quiescent outcome: nothing drained, not done.
    pub fn idle() -> Self {
        Poll {
            msgs: 0,
            done: false,
            more: false,
        }
    }
}

/// A polled state machine (rep, agent, importer).
pub(crate) trait Task: Send {
    /// Drains whatever is runnable right now.
    fn poll(&mut self) -> Poll;

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
    /// [`Task::heavy`], read once at spawn.
    heavy: bool,
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

/// The run queue and everything a wake-up decision reads, under one lock.
#[derive(Default)]
struct RunQueue {
    tasks: VecDeque<Arc<TaskEntry>>,
    /// Workers waiting on the condvar.
    idle: usize,
    /// A worker was notified for a light task and has not run yet.
    waking: bool,
    /// The pool is shutting down: workers return instead of waiting.
    stop: bool,
}

struct ExecInner {
    queue: Mutex<RunQueue>,
    cv: Condvar,
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
    /// polls are light — no lock, no wake-up; the run queue otherwise.
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

    /// Pushes an already-`Queued` task onto the run queue and wakes an
    /// idle worker for it. At most one wake-up is in flight: while a woken
    /// worker has not yet run, a second light task shares its wake-up (it
    /// drains both in less time than a second one costs the pusher — an
    /// `export()`, which is then not preempted twice); a heavy task always
    /// gets its own, parallelism being the point of queueing it.
    fn push(&self, entry: Arc<TaskEntry>) {
        let heavy = entry.heavy;
        entry.metrics.runq_depth.add(1);
        let mut q = self.queue.lock();
        q.tasks.push_back(entry);
        let wake = q.idle > 0 && (heavy || !std::mem::replace(&mut q.waking, true));
        drop(q);
        if wake {
            self.cv.notify_one();
        }
    }

    /// Takes the oldest queued task (`Queued → Running`), waiting while
    /// there is none; `None` once the pool stops.
    fn pop(&self) -> Option<Arc<TaskEntry>> {
        let mut q = self.queue.lock();
        loop {
            if q.stop {
                return None;
            }
            if let Some(entry) = q.tasks.pop_front() {
                drop(q);
                entry.metrics.runq_depth.sub(1);
                entry.state.store(RUNNING, Ordering::Release);
                return Some(entry);
            }
            q.idle += 1;
            self.cv.wait(&mut q);
            q.idle -= 1;
            q.waking = false;
        }
    }

    /// Polls one task and applies its outcome to the state machine.
    fn run(self: &Arc<Self>, entry: Arc<TaskEntry>) {
        entry.metrics.tasks_polled.inc();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut task = entry.task.lock();
            // Only a live task is ever queued; a dead one stays dead.
            task.as_mut().map_or(
                Poll {
                    done: true,
                    ..Poll::idle()
                },
                |t| t.poll(),
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
                } else if poll.more
                    || entry
                        .state
                        .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                        .is_err()
                {
                    // Work left behind, or a schedule landed mid-poll
                    // (RunningDirty): re-queue so the message that raced
                    // with the drain is seen.
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
        let task = entry.task.lock().take();
        drop(task);
        entry.state.store(DEAD, Ordering::Release);
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

fn worker_loop(inner: Arc<ExecInner>) {
    let _scope = Scope::open(&inner);
    let mut chained = 0;
    loop {
        // What this thread woke comes first: the chain rep → agent → rep
        // → importer stays on one warm thread.
        if chained < CHAIN_BUDGET {
            if let Some(entry) = take_run_next() {
                chained += 1;
                inner.run(entry);
                continue;
            }
        }
        // List empty or budget spent: publish the rest, take the queue's
        // oldest task.
        publish_run_next();
        chained = 0;
        let Some(entry) = inner.pop() else { return };
        inner.run(entry);
    }
}

/// The worker pool plus its run queue. One per
/// [`Fabric`](crate::threaded::Fabric).
pub(crate) struct Executor {
    inner: Arc<ExecInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// One worker per available core.
    pub fn new() -> Self {
        Self::with_workers(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    pub(crate) fn with_workers(workers: usize) -> Self {
        let inner = Arc::new(ExecInner {
            queue: Mutex::new(RunQueue::default()),
            cv: Condvar::new(),
            done_lock: Mutex::new(()),
            done_cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|w| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("couplink-worker-{w}"))
                    .spawn(move || worker_loop(inner))
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

    /// Spawns a task and schedules its first poll.
    pub fn spawn(
        &self,
        metrics: Arc<EngineMetrics>,
        panic_sink: PanicSink,
        task: Box<dyn Task>,
    ) -> TaskHandle {
        let entry = Arc::new(TaskEntry {
            state: AtomicU8::new(IDLE),
            heavy: task.heavy(),
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
        // `retire` marks a task dead before it takes this lock to notify,
        // so a check under the lock cannot miss the wake-up.
        while !tasks.iter().all(TaskHandle::is_done) {
            self.inner.done_cv.wait(&mut g);
        }
    }

    /// Stops and joins the pool. Queued-but-unpolled tasks are abandoned —
    /// the fabric drains its tasks first.
    pub fn shutdown(&mut self) {
        self.inner.queue.lock().stop = true;
        self.inner.cv.notify_all();
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
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::time::{Duration, Instant};

    fn sink() -> PanicSink {
        Arc::new(|_| {})
    }

    struct CountTask {
        polls: Arc<AtomicUsize>,
        done_after: usize,
        sleep: Duration,
    }

    impl Task for CountTask {
        fn poll(&mut self) -> Poll {
            if !self.sleep.is_zero() {
                std::thread::sleep(self.sleep);
            }
            let n = self.polls.fetch_add(1, Ordering::SeqCst) + 1;
            Poll {
                msgs: 1,
                done: n >= self.done_after,
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

    /// An idle worker takes a queued task beside a busy one: with one
    /// worker held inside a poll, tasks spawned behind it are all polled
    /// by the other before the held poll returns.
    #[test]
    fn idle_worker_takes_a_task_beside_a_busy_one() {
        let exec = Executor::with_workers(2);
        let metrics = Arc::new(EngineMetrics::new());
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = exec.spawn(
            metrics.clone(),
            sink(),
            Box::new(FnTask(move || {
                held_tx.send(()).unwrap();
                let _ = release_rx.recv_timeout(Duration::from_secs(5));
                Poll {
                    done: true,
                    ..Poll::idle()
                }
            })),
        );
        held_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("holder polled");
        let polls = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<TaskHandle> = (0..5)
            .map(|_| {
                let task = CountTask {
                    polls: polls.clone(),
                    done_after: 1,
                    sleep: Duration::ZERO,
                };
                exec.spawn(metrics.clone(), sink(), Box::new(task))
            })
            .collect();
        exec.wait_done(&tasks);
        assert_eq!(polls.load(Ordering::SeqCst), 5);
        assert!(!holder.is_done(), "the holder is still held");
        release_tx.send(()).unwrap();
        exec.wait_done(std::slice::from_ref(&holder));
    }

    /// A panicking poll is contained: reported to the sink, task retired,
    /// pool still serves other tasks.
    #[test]
    fn panicking_task_is_contained() {
        struct PanicTask;
        impl Task for PanicTask {
            fn poll(&mut self) -> Poll {
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
        fn poll(&mut self) -> Poll {
            (self.0)()
        }
    }

    /// A scripted task that declares itself heavy.
    struct HeavyTask<F>(F);

    impl<F: FnMut() -> Poll + Send> Task for HeavyTask<F> {
        fn poll(&mut self) -> Poll {
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

    /// A task made runnable from inside a worker's poll is polled next by
    /// the same thread and never enters the run queue: every poll of it
    /// after the spawn-time one is a chained one.
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
        assert_eq!(mb.runq_depth.high_water_mark(), 1, "queued at spawn only");
    }

    /// Never nested: a poll that wakes a second task while holding a mutex
    /// the second task's poll needs completes — the second poll starts
    /// after the first returned. And a thread with no scope open (an
    /// `export()`, the chaos relay) still goes through the run queue.
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
        // Foreign thread: no scope, so the run queue and a worker.
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
    /// one-worker pool still lets a task waiting in the run queue have its
    /// turn, and one poll in `CHAIN_BUDGET + 1` comes off the queue.
    #[test]
    fn chain_budget_returns_the_worker_to_the_run_queue() {
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

    /// A push wakes a parked worker: with one worker held inside a poll
    /// and the other parked, a task scheduled from outside the pool is
    /// polled at once — not left in the queue until the held worker comes
    /// back.
    #[test]
    fn push_wakes_a_parked_worker() {
        let exec = Executor::with_workers(2);
        let (mh, mt) = (
            Arc::new(EngineMetrics::new()),
            Arc::new(EngineMetrics::new()),
        );
        let target = spawn_fn(&exec, &mt, Poll::idle);
        let (held_tx, held_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let go = Arc::new(AtomicBool::new(false));
        let go2 = go.clone();
        let holder = spawn_fn(&exec, &mh, move || {
            if go2.load(Ordering::SeqCst) {
                held_tx.send(()).unwrap();
                let _ = release_rx.recv_timeout(Duration::from_secs(5));
            }
            Poll::idle()
        });
        go.store(true, Ordering::SeqCst);
        holder.schedule();
        held_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("holder polled");
        wait_for(|| exec.inner.queue.lock().idle == 1);
        let t0 = Instant::now();
        target.schedule();
        wait_for(|| mt.tasks_polled.get() == 2);
        let took = t0.elapsed();
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
    /// heavy one goes through the run queue.
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
    /// held inside polls, so only this test touches the queue's wake-up
    /// state: it counts one idle worker by hand that is not on the condvar
    /// and a test thread waits on the condvar in a worker's stead. A light
    /// push claims the wake-up (which reaches nobody); with the stand-in
    /// waiting, a second light push then sends none (the stand-in times
    /// out), and a heavy push sends its own.
    #[test]
    fn light_pushes_share_a_wake_up_and_a_heavy_push_gets_its_own() {
        let exec = Executor::with_workers(2);
        let m = Arc::new(EngineMetrics::new());
        let light = [
            spawn_fn(&exec, &m, Poll::idle),
            spawn_fn(&exec, &m, Poll::idle),
        ];
        let heavy = exec.spawn(m.clone(), sink(), Box::new(HeavyTask(Poll::idle)));
        wait_for(|| heavy.entry.state.load(Ordering::SeqCst) == IDLE);
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
        {
            let mut q = inner.queue.lock();
            assert_eq!((q.idle, q.waking), (0, false), "both workers are held");
            q.idle = 1;
        }
        light[0].schedule();
        assert!(inner.queue.lock().waking, "a wake-up is in flight");
        let (woken_tx, woken_rx) = std::sync::mpsc::channel::<bool>();
        let stand_in = {
            let inner = inner.clone();
            std::thread::spawn(move || {
                for _ in 0..2 {
                    let mut q = inner.queue.lock();
                    q.idle += 1;
                    let timed_out = inner
                        .cv
                        .wait_for(&mut q, Duration::from_millis(300))
                        .timed_out();
                    q.idle -= 1;
                    drop(q);
                    woken_tx.send(!timed_out).unwrap();
                }
            })
        };
        let stand_in_waits = || wait_for(|| inner.queue.lock().idle == 2);
        stand_in_waits();
        light[1].schedule();
        assert!(
            !woken_rx.recv().unwrap(),
            "the second light push sent no wake-up"
        );
        stand_in_waits();
        heavy.schedule();
        assert!(
            woken_rx.recv().unwrap(),
            "a heavy push always sends its own"
        );
        stand_in.join().unwrap();
        {
            let mut q = inner.queue.lock();
            q.idle = 0;
            q.waking = false;
        }
        release.store(true, Ordering::SeqCst);
        // The released workers find the three pushed tasks in the queue.
        wait_for(|| m.runq_depth.level() == 0);
    }
}
