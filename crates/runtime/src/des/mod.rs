//! A minimal deterministic discrete-event core.

pub mod topo;

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual time in seconds (finite, totally ordered).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTime(pub f64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Advances by `dt` seconds.
    pub fn after(self, dt: f64) -> SimTime {
        debug_assert!(dt.is_finite() && dt >= 0.0, "non-negative finite delay");
        SimTime(self.0 + dt)
    }
}

impl Eq for SimTime {}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("sim times are finite")
    }
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; ties broken by insertion order so the
        // simulation is fully deterministic.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic event queue: events at equal times pop in insertion order.
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` `delay` seconds from now.
    pub fn schedule(&mut self, delay: f64, event: E) {
        self.schedule_at(self.now.after(delay), event);
    }

    /// Schedules `event` at the absolute time `at` (must not be in the past).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// The event queue *is* the simulator's clock: reading it yields the time
/// of the last popped event, in virtual seconds.
impl<E> crate::engine::Clock for EventQueue<E> {
    fn now(&self) -> f64 {
        EventQueue::now(self).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime(5.0));
        assert_eq!(q.now(), SimTime(5.0));
        // Relative scheduling is from the new now.
        q.schedule(1.0, ());
        let (at, _) = q.pop().unwrap();
        assert_eq!(at, SimTime(6.0));
    }

    #[test]
    fn sim_time_ordering() {
        assert!(SimTime(1.0) < SimTime(2.0));
        assert_eq!(SimTime(1.5).after(0.5), SimTime(2.0));
    }
}
