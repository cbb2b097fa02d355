//! The credit window that keeps every workload a closed loop.
//!
//! Exporter driver threads may lead the importers' completed-import count by
//! at most `window` coupling steps. The gate blocks on a `Mutex` + `Condvar`
//! and never spins or yields: on a two-core box a yielding gate made
//! throughput swing 2x run to run, a blocking one stays within 20 %.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

#[derive(Debug)]
struct State {
    /// Imports completed, per importer rank.
    done: Vec<u64>,
    /// A driver failed: release everyone so the rep can end.
    aborted: bool,
}

#[derive(Debug)]
pub struct CreditGate {
    state: Mutex<State>,
    cv: Condvar,
    window: u64,
    waited_ns: AtomicU64,
}

impl CreditGate {
    pub fn new(importers: usize, window: u64) -> Self {
        assert!(
            importers > 0 && window > 0,
            "a gate needs importers and credit"
        );
        CreditGate {
            state: Mutex::new(State {
                done: vec![0; importers],
                aborted: false,
            }),
            cv: Condvar::new(),
            window,
            waited_ns: AtomicU64::new(0),
        }
    }

    /// Blocks until coupling step `step` (0-based) is within the window:
    /// `step <= min(done) + window`. Step `s + 1` has to be enterable while
    /// import `s` is outstanding, because a `REGL`/`REG` request is only
    /// decided by the first export at or past it. Returns `false` if the
    /// rep was aborted.
    pub fn enter(&self, step: u64) -> bool {
        let mut st = self.state.lock().expect("gate mutex: a driver panicked");
        let mut blocked_since = None;
        loop {
            if st.aborted {
                return false;
            }
            let slowest = st.done.iter().copied().min().unwrap_or(0);
            if step <= slowest + self.window {
                break;
            }
            blocked_since.get_or_insert_with(Instant::now);
            st = self.cv.wait(st).expect("gate mutex: a driver panicked");
        }
        if let Some(t0) = blocked_since {
            self.waited_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        true
    }

    /// Importer rank `importer` completed one more import.
    pub fn complete(&self, importer: usize) {
        let mut st = self.state.lock().expect("gate mutex: a driver panicked");
        st.done[importer] += 1;
        drop(st);
        self.cv.notify_all();
    }

    pub fn abort(&self) {
        self.state
            .lock()
            .expect("gate mutex: a driver panicked")
            .aborted = true;
        self.cv.notify_all();
    }

    /// Total time exporter drivers spent blocked here.
    pub fn waited_s(&self) -> f64 {
        self.waited_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    /// One exporter, one importer, `window` credits: the exporter's lead
    /// over the completed count, observed at every entry, never exceeds the
    /// window, and the run finishes (no deadlock) — at `window == 1` too.
    fn lockstep(window: u64, steps: u64) -> u64 {
        let gate = Arc::new(CreditGate::new(1, window));
        let completed = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel::<u64>();
        let exporter = {
            let (gate, completed) = (Arc::clone(&gate), Arc::clone(&completed));
            std::thread::spawn(move || {
                let mut max_lead = 0;
                for step in 0..steps + 1 {
                    assert!(gate.enter(step));
                    max_lead = max_lead.max(step - completed.load(Ordering::SeqCst));
                    tx.send(step).expect("importer alive");
                }
                max_lead
            })
        };
        // Import `s` completes only once the exporter has entered step
        // `s + 1` — the REGL decision rule the gate has to accommodate.
        for step in 0..steps {
            loop {
                let entered = rx.recv().expect("exporter alive");
                if entered > step {
                    break;
                }
            }
            completed.fetch_add(1, Ordering::SeqCst);
            gate.complete(0);
        }
        exporter.join().expect("exporter thread")
    }

    #[test]
    fn never_exceeds_window_and_never_deadlocks() {
        assert_eq!(lockstep(1, 200), 1);
        assert!(lockstep(4, 200) <= 4);
    }

    #[test]
    fn slowest_importer_sets_the_credit() {
        let gate = Arc::new(CreditGate::new(2, 1));
        gate.complete(0);
        gate.complete(0);
        assert!(gate.enter(1));
        let g = Arc::clone(&gate);
        let blocked = std::thread::spawn(move || g.enter(2));
        // Rank 1 has completed nothing: step 2 stays shut until it does.
        gate.complete(1);
        assert!(blocked.join().expect("waiter"));
        assert!(gate.waited_s() >= 0.0);
    }

    #[test]
    fn abort_releases_waiters() {
        let gate = Arc::new(CreditGate::new(1, 1));
        let g = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g.enter(10));
        gate.abort();
        assert!(!waiter.join().expect("waiter"));
    }
}
