//! Deterministic discrete-event queues.
//!
//! The scheduler frontend is a classic event-driven simulator: the things
//! that happen are *arrivals* (a transaction is offered to a bank queue),
//! *completions* (a bank finishes serving a transaction) and background
//! offers and completions (scrub, March test, calibration), and each one
//! is processed at an exact simulated timestamp. Determinism is
//! non-negotiable here — the whole `stt-ctrl` test strategy leans on
//! bit-identical replay — so every queue breaks timestamp ties by insertion
//! sequence number: two events at the same instant always pop in the order
//! they were scheduled, independent of queue internals or float quirks.
//!
//! One key type, `EventKey`, defines that order for both containers:
//!
//! * [`EventQueue`] — a general min-heap for loops with no bound on how
//!   many events are pending (the frontend's general loop, whose retry
//!   re-offers can pile up one per free queue slot). Entries live in one
//!   flat `Vec` used as an implicit binary heap, so there is no per-event
//!   box and — once the frontend has reserved the run's worst-case event
//!   count up front — scheduling and popping never allocate.
//! * `SlotCalendar` — a fixed-slot calendar for loops that never have
//!   more than one pending event per *source* (the FCFS fast path and the
//!   chip's channel loop: one slot for the arrival stream, one per bank).
//!   Scheduling is a store and popping a linear scan for the minimum key,
//!   which beats a heap's sift at the handful of slots those loops use.
//!
//! Both assign sequence numbers at `schedule`, so the same schedule/pop
//! interleaving pops the same `(time, event)` sequence from either.

/// The order every event queue pops in: earliest time first, ties by
/// insertion sequence.
///
/// Packed into one `u128` so a single integer compare decides the order:
/// the high 64 bits hold the timestamp's bits remapped so that unsigned
/// order equals [`f64::total_cmp`] order (negative times, `-0.0` before
/// `0.0`), the low 64 bits hold the sequence number. NaN is rejected at
/// construction, so no real key reaches [`EventKey::IDLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct EventKey(u128);

impl EventKey {
    /// Sorts after every real key: an empty calendar slot.
    pub(crate) const IDLE: Self = Self(u128::MAX);

    /// The key of the event scheduled `seq`-th at `time_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `time_ns` is NaN — a NaN timestamp would silently corrupt
    /// the pop order.
    pub(crate) fn new(time_ns: f64, seq: u64) -> Self {
        assert!(!time_ns.is_nan(), "event timestamps must be numbers");
        let time_key = flip_negative(time_ns.to_bits()) ^ SIGN_BIT;
        Self((u128::from(time_key) << 64) | u128::from(seq))
    }

    /// The timestamp this key was built from, bit for bit.
    pub(crate) fn time_ns(self) -> f64 {
        f64::from_bits(flip_negative((self.0 >> 64) as u64 ^ SIGN_BIT))
    }
}

const SIGN_BIT: u64 = 1 << 63;

/// Flips the magnitude bits of a negative float's bit pattern, leaving
/// positive ones alone. Read as signed integers the results then order
/// like [`f64::total_cmp`]; flipping the sign bit afterwards makes that
/// the unsigned order. The sign bit selects the flip and is kept, so the
/// map is its own inverse.
fn flip_negative(bits: u64) -> u64 {
    bits ^ (((bits as i64 >> 63) as u64) >> 1)
}

/// One heap entry: its order key and the payload.
#[derive(Debug, Clone)]
struct Scheduled<E> {
    key: EventKey,
    event: E,
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
        self.heap.push(Scheduled {
            key: EventKey::new(time_ns, self.seq),
            event,
        });
        self.seq += 1;
        self.sift_up(self.heap.len() - 1);
    }

    /// The timestamp of the earliest pending event.
    #[must_use]
    pub fn next_time(&self) -> Option<f64> {
        self.heap.first().map(|entry| entry.key.time_ns())
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
        Some((entry.key.time_ns(), entry.event))
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
            if self.heap[i].key < self.heap[parent].key {
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
            if left < n && self.heap[left].key < self.heap[smallest].key {
                smallest = left;
            }
            if right < n && self.heap[right].key < self.heap[smallest].key {
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

/// A fixed-slot event calendar: at most one pending event per slot, popped
/// in [`EventKey`] order.
///
/// For an event loop whose sources each have at most one event in flight
/// — one slot per source — this replaces a heap: `schedule` stores the
/// key in the source's slot and `pop` scans the slots for the minimum.
/// Sequence numbers are assigned per `schedule` exactly as
/// [`EventQueue::schedule`] assigns them, so both containers pop the same
/// sequence for the same calls.
#[derive(Debug, Clone)]
pub(crate) struct SlotCalendar<E> {
    /// Each slot's pending key, [`EventKey::IDLE`] when empty.
    keys: Vec<EventKey>,
    events: Vec<Option<E>>,
    seq: u64,
}

impl<E: Copy> SlotCalendar<E> {
    /// An empty calendar of `slots` slots.
    pub(crate) fn new(slots: usize) -> Self {
        Self {
            keys: vec![EventKey::IDLE; slots],
            events: vec![None; slots],
            seq: 0,
        }
    }

    /// Appends an empty slot and returns its index.
    pub(crate) fn add_slot(&mut self) -> usize {
        self.keys.push(EventKey::IDLE);
        self.events.push(None);
        self.keys.len() - 1
    }

    /// Schedules `event` at `time_ns` in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` already holds a pending event (its source broke the
    /// one-event-in-flight contract), or if `time_ns` is NaN.
    pub(crate) fn schedule(&mut self, slot: usize, time_ns: f64, event: E) {
        assert!(
            self.keys[slot] == EventKey::IDLE,
            "calendar slot {slot} already holds a pending event"
        );
        self.keys[slot] = EventKey::new(time_ns, self.seq);
        self.events[slot] = Some(event);
        self.seq += 1;
    }

    /// Removes and returns the earliest pending event with its slot (ties
    /// in scheduling order).
    pub(crate) fn pop(&mut self) -> Option<(f64, usize, E)> {
        let mut slot = 0;
        let mut best = EventKey::IDLE;
        for (i, &key) in self.keys.iter().enumerate() {
            if key < best {
                slot = i;
                best = key;
            }
        }
        if best == EventKey::IDLE {
            return None;
        }
        self.keys[slot] = EventKey::IDLE;
        let event = self.events[slot]
            .take()
            .expect("a keyed slot holds its event");
        Some((best.time_ns(), slot, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Awkward instants: signed zeros, negatives, infinities, subnormals.
    const SPECIAL_TIMES: [f64; 10] = [
        -0.0,
        0.0,
        -3.5,
        2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
        5e-324,
        -1e300,
    ];

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

    #[test]
    fn keys_order_like_total_cmp_and_round_trip() {
        for &a in &SPECIAL_TIMES {
            assert_eq!(EventKey::new(a, 0).time_ns().to_bits(), a.to_bits());
            for &b in &SPECIAL_TIMES {
                assert_eq!(
                    EventKey::new(a, 7).cmp(&EventKey::new(b, 7)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
            assert!(EventKey::new(a, 1) < EventKey::new(a, 2));
            assert!(EventKey::new(a, u64::MAX) < EventKey::IDLE);
        }
    }

    #[test]
    fn calendar_pops_by_time_then_schedule_order() {
        let mut calendar = SlotCalendar::new(3);
        calendar.schedule(2, 5.0, 'a');
        calendar.schedule(0, 5.0, 'b');
        calendar.schedule(1, 1.0, 'c');
        assert_eq!(calendar.pop(), Some((1.0, 1, 'c')));
        calendar.schedule(1, 5.0, 'd');
        assert_eq!(calendar.pop(), Some((5.0, 2, 'a')));
        assert_eq!(calendar.pop(), Some((5.0, 0, 'b')));
        assert_eq!(calendar.pop(), Some((5.0, 1, 'd')));
        assert_eq!(calendar.pop(), None);
    }

    #[test]
    #[should_panic(expected = "already holds a pending event")]
    fn scheduling_onto_an_occupied_slot_panics() {
        let mut calendar = SlotCalendar::new(2);
        calendar.schedule(1, 3.0, ());
        calendar.schedule(1, 4.0, ());
    }

    const SLOTS: usize = 5;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The calendar pops exactly what the heap pops under any
        /// interleaving of schedules, pops and slot additions that keeps
        /// at most one pending event per slot — ties, signed zeros and
        /// negative instants included.
        #[test]
        fn calendar_pops_exactly_what_the_heap_pops(
            choices in proptest::collection::vec(0u64..u64::MAX, 1..300)
        ) {
            let mut heap = EventQueue::new();
            // Starts with one slot and grows on demand, as a chip channel
            // does when more of its banks are busy at once than before.
            let mut calendar = SlotCalendar::new(1);
            let mut slots = 1;
            let mut occupied = [false; SLOTS];
            let (mut from_heap, mut from_calendar) = (Vec::new(), Vec::new());
            for (label, &choice) in choices.iter().enumerate() {
                let slot = (choice >> 8) as usize % SLOTS;
                while slots <= slot {
                    prop_assert_eq!(calendar.add_slot(), slots);
                    slots += 1;
                }
                if choice % 3 == 0 || occupied[slot] {
                    let popped = calendar.pop();
                    if let Some((_, slot, _)) = popped {
                        occupied[slot] = false;
                    }
                    from_calendar.push(popped.map(|(time, _, event)| (time.to_bits(), event)));
                    from_heap.push(heap.pop().map(|(time, event)| (time.to_bits(), event)));
                    continue;
                }
                // A palette of awkward instants, or a coarse grid in
                // [-125, 125] that ties often.
                let time = if (choice >> 4) & 1 == 1 {
                    SPECIAL_TIMES[(choice >> 16) as usize % SPECIAL_TIMES.len()]
                } else {
                    ((choice >> 20) % 2001) as f64 / 8.0 - 125.0
                };
                heap.schedule(time, label);
                calendar.schedule(slot, time, label);
                occupied[slot] = true;
            }
            while let Some((time, event)) = heap.pop() {
                from_heap.push(Some((time.to_bits(), event)));
            }
            while let Some((time, _, event)) = calendar.pop() {
                from_calendar.push(Some((time.to_bits(), event)));
            }
            prop_assert_eq!(from_heap, from_calendar);
        }
    }
}
