//! A minimal deterministic discrete-event core.

pub mod topo;

use std::cmp::{Ordering, Reverse};
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

/// A deterministic event queue: events at equal times pop in insertion order.
///
/// The heap holds only 24-byte keys `(time bits, insertion seq, slot)`; the
/// events wait in a slab whose slots are reused as they pop. For finite,
/// non-negative times the order of the IEEE-754 bit patterns is the order of
/// the times, so the integer key sorts exactly like `(time, seq)`.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    slots: Vec<Option<E>>,
    free: Vec<u32>,
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
            slots: Vec::new(),
            free: Vec::new(),
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

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// If `at` is not finite or lies before [`EventQueue::now`]: the integer
    /// key would misorder such a time silently.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at.0.is_finite(), "sim time {} is not finite", at.0);
        assert!(
            at.0 >= self.now.0,
            "scheduling into the past: {} < {}",
            at.0,
            self.now.0
        );
        // `-0.0` has the sign bit set: store it as `+0.0`.
        let bits = if at.0 == 0.0 { 0 } else { at.0.to_bits() };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                u32::try_from(self.slots.len() - 1).expect("under 2^32 pending events")
            }
        };
        self.heap.push(Reverse((bits, self.seq, slot)));
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((bits, _, slot)) = self.heap.pop()?;
        let event = self.slots[slot as usize]
            .take()
            .expect("a keyed slot is full");
        self.free.push(slot);
        self.now = SimTime(f64::from_bits(bits));
        Some((self.now, event))
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of `schedule`, `schedule_at` and `pop`, with
        /// few distinct delays (many equal times) and pops between pushes
        /// (slots reused over and over), pop exactly like a stable sort of
        /// the pending events by time.
        #[test]
        fn pops_match_a_stable_sort_by_time(
            ops in proptest::collection::vec((0u8..3, 0u8..4), 1..300),
        ) {
            let mut q = EventQueue::new();
            // The model: pending (time, id) in insertion order.
            let mut model: Vec<(f64, usize)> = Vec::new();
            let mut next_id = 0;
            // `min_by` keeps the first of equal minima: insertion order.
            let model_pop = |model: &mut Vec<(f64, usize)>| {
                let first = (0..model.len()).min_by(|&a, &b| model[a].0.total_cmp(&model[b].0));
                first.map(|i| model.remove(i))
            };
            for (op, d) in ops {
                let delay = f64::from(d) * 0.25;
                match op {
                    0 => q.schedule(delay, next_id),
                    1 => q.schedule_at(SimTime(q.now().0 + delay), next_id),
                    _ => {
                        let got = q.pop().map(|(at, id)| (at.0, id));
                        prop_assert_eq!(got, model_pop(&mut model));
                        continue;
                    }
                }
                model.push((q.now().0 + delay, next_id));
                next_id += 1;
                prop_assert_eq!(q.len(), model.len());
            }
            while let Some(want) = model_pop(&mut model) {
                prop_assert_eq!(q.pop().map(|(at, id)| (at.0, id)), Some(want));
            }
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn nan_time_panics() {
        EventQueue::new().schedule_at(SimTime(f64::NAN), ());
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn infinite_time_panics() {
        EventQueue::new().schedule_at(SimTime(f64::INFINITY), ());
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn time_before_now_panics() {
        let mut q = EventQueue::new();
        q.schedule(2.0, ());
        q.pop();
        q.schedule_at(SimTime(1.0), ());
    }

    #[test]
    fn negative_zero_orders_as_zero() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(0.0), 1);
        q.schedule_at(SimTime(-0.0), 2);
        q.schedule_at(SimTime(1e-300), 3);
        let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            popped,
            [(SimTime(0.0), 1), (SimTime(0.0), 2), (SimTime(1e-300), 3)]
        );
        assert!(popped[1].0 .0.is_sign_positive(), "stored as +0.0");
    }
}
