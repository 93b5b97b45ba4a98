//! A deterministic discrete-event queue.
//!
//! The scheduler frontend is a classic event-driven simulator: the things
//! that happen are *arrivals* (a transaction is offered to a bank queue),
//! *completions* (a bank finishes serving a transaction) and background
//! offers and completions (scrub, March test, calibration), and each one
//! is processed at an exact simulated timestamp. Determinism is
//! non-negotiable here — the whole `stt-ctrl` test strategy leans on
//! bit-identical replay — so the queue breaks timestamp ties by insertion
//! sequence number: two events at the same instant always pop in the order
//! they were scheduled, independent of heap internals or float quirks.
//!
//! Storage is index-based: entries live in one flat `Vec` used as an
//! implicit binary min-heap (parent/child navigation is index arithmetic,
//! sift operations swap in place), so there is no per-event box and — once
//! the frontend has reserved the run's worst-case event count up front —
//! scheduling and popping never allocate.

use std::cmp::Ordering;

/// One scheduled entry: a timestamp, a tie-breaking sequence number and the
/// payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    time_ns: f64,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// Min-heap priority: earliest timestamp first, ties by insertion order.
    fn before(&self, other: &Self) -> bool {
        match self.time_ns.total_cmp(&other.time_ns) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => self.seq < other.seq,
        }
    }
}

/// A min-heap of timestamped events with deterministic tie-breaking.
///
/// # Examples
///
/// ```
/// use stt_ctrl::sched::EventQueue;
///
/// let mut queue = EventQueue::new();
/// queue.schedule(25.0, "late");
/// queue.schedule(10.0, "early");
/// queue.schedule(10.0, "early-but-second");
/// assert_eq!(queue.pop(), Some((10.0, "early")));
/// assert_eq!(queue.pop(), Some((10.0, "early-but-second")));
/// assert_eq!(queue.pop(), Some((25.0, "late")));
/// assert_eq!(queue.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventQueue<E> {
    /// Implicit binary heap: `heap[0]` is the earliest event, children of
    /// index `i` sit at `2i + 1` and `2i + 2`.
    heap: Vec<Scheduled<E>>,
    seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty event queue.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: Vec::new(),
            seq: 0,
        }
    }

    /// An empty event queue with room for `capacity` pending events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: Vec::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `event` at `time_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `time_ns` is NaN — a NaN timestamp would silently corrupt
    /// the heap order.
    pub fn schedule(&mut self, time_ns: f64, event: E) {
        assert!(!time_ns.is_nan(), "event timestamps must be numbers");
        self.heap.push(Scheduled {
            time_ns,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        self.sift_up(self.heap.len() - 1);
    }

    /// The timestamp of the earliest pending event.
    #[must_use]
    pub fn next_time(&self) -> Option<f64> {
        self.heap.first().map(|entry| entry.time_ns)
    }

    /// Removes and returns the earliest pending event (ties in scheduling
    /// order).
    pub fn pop(&mut self) -> Option<(f64, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let entry = self.heap.pop().expect("heap checked non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((entry.time_ns, entry.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].before(&self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let (left, right) = (2 * i + 1, 2 * i + 2);
            let mut smallest = i;
            if left < n && self.heap[left].before(&self.heap[smallest]) {
                smallest = left;
            }
            if right < n && self.heap[right].before(&self.heap[smallest]) {
                smallest = right;
            }
            if smallest == i {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut queue = EventQueue::new();
        for &t in &[5.0, 1.0, 3.0, 2.0, 4.0] {
            queue.schedule(t, t as u64);
        }
        let mut popped = Vec::new();
        while let Some((t, e)) = queue.pop() {
            assert_eq!(t as u64, e);
            popped.push(t);
        }
        assert_eq!(popped, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn ties_pop_in_scheduling_order() {
        let mut queue = EventQueue::new();
        for label in 0..100u64 {
            queue.schedule(7.0, label);
        }
        let order: Vec<u64> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn next_time_peeks_without_removing() {
        let mut queue = EventQueue::new();
        assert_eq!(queue.next_time(), None);
        queue.schedule(2.5, ());
        assert_eq!(queue.next_time(), Some(2.5));
        assert_eq!(queue.len(), 1);
        assert!(!queue.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut queue = EventQueue::with_capacity(8);
        queue.schedule(10.0, 10u64);
        queue.schedule(30.0, 30);
        assert_eq!(queue.pop(), Some((10.0, 10)));
        queue.schedule(20.0, 20);
        queue.schedule(5.0, 5);
        assert_eq!(queue.pop(), Some((5.0, 5)));
        assert_eq!(queue.pop(), Some((20.0, 20)));
        assert_eq!(queue.pop(), Some((30.0, 30)));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn reserved_queue_does_not_regrow_within_capacity() {
        let mut queue = EventQueue::with_capacity(64);
        let cap = queue.heap.capacity();
        for round in 0..10 {
            for i in 0..64u64 {
                queue.schedule((i % 7) as f64, round * 64 + i);
            }
            while queue.pop().is_some() {}
        }
        assert_eq!(queue.heap.capacity(), cap);
    }

    #[test]
    #[should_panic(expected = "timestamps must be numbers")]
    fn nan_timestamps_are_rejected() {
        EventQueue::new().schedule(f64::NAN, ());
    }
}
