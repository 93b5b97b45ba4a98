//! Scheduling policies: which waiting transaction a bank serves next.
//!
//! Every policy chooses among the queue's *eligible* entries (see
//! [`BankQueue::eligible`]), so per-address ordering is preserved no matter
//! how aggressive the reordering is. Three policies cover the classic
//! controller trade-offs:
//!
//! * [`Policy::Fcfs`] — strict admission order. With an unbounded queue
//!   this reproduces serial replay bit-for-bit (the frontend's anchor
//!   property).
//! * [`Policy::ReadPriority`] — reads jump ahead of writes, the standard
//!   latency play for read-mostly traffic; queued writes are *drained* in
//!   batch once they pile past a high-water mark (hysteresis: drain runs
//!   until the write queue empties), so writes cannot starve.
//! * [`Policy::OldestFirst`] — serve the eligible entry with the earliest
//!   *original arrival*. Under retrying admission a transaction can re-enter
//!   the queue long after it first arrived; oldest-first is the
//!   anti-starvation answer, bounding how far behind its peers a retried
//!   transaction can fall.
//!
//! A policy orders demand transactions only. Whether a lane serves demand
//! at all, or a March, scrub or calibration operation, is decided by rank:
//! [`PriorityClass`] derives `Ord`, and a background source starts only on
//! an idle lane with no higher class waiting.

use serde::{Deserialize, Serialize};

use super::queue::BankQueue;

/// The traffic classes a bank lane arbitrates between, in rank order.
///
/// Demand traffic is the host's reads and writes; test traffic is the
/// March harness's lowered operations (see
/// [`MarchConfig`](crate::sched::MarchConfig)); background traffic is the
/// scrub daemon's word re-reads (see
/// [`ScrubConfig`](crate::reliability::ScrubConfig)) and the calibration
/// daemon's checks (see [`CalibConfig`](crate::calib::CalibConfig)). The
/// ordering is strict and the derived `Ord` encodes it (`Demand < Test <
/// Background`): a source starts an operation only on an idle lane with
/// no higher-ranked work waiting, so every built-in [`Policy`] is
/// work-conserving for demand, test work runs in demand-idle gaps, and
/// background work runs only when neither demand nor test work waits. An
/// in-progress operation of any class finishes (the service stage is not
/// interruptible, like a real array access).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PriorityClass {
    /// Host reads and writes.
    Demand,
    /// Manufacturing-test traffic (March operations).
    Test,
    /// Best-effort maintenance traffic (scrub, calibration).
    Background,
}

/// How a bank picks the next transaction to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// First come, first served (admission order).
    Fcfs,
    /// Serve reads before writes; drain writes in batch above a high-water
    /// mark.
    ReadPriority {
        /// Queued-write count that triggers a write drain.
        write_high_water: usize,
    },
    /// Serve the eligible entry with the earliest original arrival time.
    OldestFirst,
}

impl Policy {
    /// Short machine-readable name for table/CSV rows.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Policy::Fcfs => "fcfs",
            Policy::ReadPriority { .. } => "read-priority",
            Policy::OldestFirst => "oldest-first",
        }
    }

    /// Picks the index of the queue entry to serve next, or `None` when the
    /// queue is empty. Always returns an *eligible* index.
    pub(crate) fn choose(&self, queue: &mut BankQueue) -> Option<usize> {
        if queue.is_empty() {
            return None;
        }
        match *self {
            // The head of the queue is always eligible.
            Policy::Fcfs => Some(0),
            Policy::OldestFirst => queue.eligible().min_by(|&a, &b| {
                let (qa, qb) = (queue.entry(a), queue.entry(b));
                qa.arrival_ns
                    .total_cmp(&qb.arrival_ns)
                    .then(qa.trace_index.cmp(&qb.trace_index))
            }),
            Policy::ReadPriority { write_high_water } => {
                let writes = queue.queued_writes();
                if writes >= write_high_water.max(1) {
                    queue.draining = true;
                } else if writes == 0 {
                    queue.draining = false;
                }
                let want_read = !queue.draining;
                queue
                    .eligible()
                    .find(|&i| queue.entry(i).txn.op.is_read() == want_read)
                    .or(Some(0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::queue::Queued;
    use crate::txn::Transaction;
    use stt_array::Address;

    fn queued(trace_index: usize, arrival_ns: f64, txn: Transaction) -> Queued {
        Queued {
            txn,
            trace_index,
            arrival_ns,
            admit_ns: arrival_ns,
        }
    }

    fn queue_of(entries: Vec<Queued>) -> BankQueue {
        let mut queue = BankQueue::new(64);
        for entry in entries {
            queue.admit(entry);
        }
        queue
    }

    #[test]
    fn fcfs_serves_the_head() {
        let mut queue = queue_of(vec![
            queued(0, 0.0, Transaction::write(0, Address::new(0, 0), true)),
            queued(1, 1.0, Transaction::read(0, Address::new(0, 1))),
        ]);
        assert_eq!(Policy::Fcfs.choose(&mut queue), Some(0));
        assert_eq!(Policy::Fcfs.choose(&mut BankQueue::new(4)), None);
    }

    #[test]
    fn read_priority_jumps_reads_over_older_writes() {
        let mut queue = queue_of(vec![
            queued(0, 0.0, Transaction::write(0, Address::new(0, 0), true)),
            queued(1, 1.0, Transaction::read(0, Address::new(0, 1))),
        ]);
        let policy = Policy::ReadPriority {
            write_high_water: 8,
        };
        assert_eq!(policy.choose(&mut queue), Some(1));
    }

    #[test]
    fn read_priority_respects_same_address_ordering() {
        let hot = Address::new(0, 0);
        let mut queue = queue_of(vec![
            queued(0, 0.0, Transaction::write(0, hot, true)),
            queued(1, 1.0, Transaction::read(0, hot)),
        ]);
        let policy = Policy::ReadPriority {
            write_high_water: 8,
        };
        // The read targets the written cell, so the write must go first.
        assert_eq!(policy.choose(&mut queue), Some(0));
    }

    #[test]
    fn read_priority_drains_writes_above_high_water_until_empty() {
        let policy = Policy::ReadPriority {
            write_high_water: 2,
        };
        let mut queue = queue_of(vec![
            queued(0, 0.0, Transaction::write(0, Address::new(0, 0), true)),
            queued(1, 1.0, Transaction::read(0, Address::new(9, 9))),
            queued(2, 2.0, Transaction::write(0, Address::new(0, 1), false)),
        ]);
        // Two queued writes hit the mark: drain mode picks the oldest write.
        assert_eq!(policy.choose(&mut queue), Some(0));
        queue.take(0);
        // Hysteresis: still draining with one write left.
        assert_eq!(policy.choose(&mut queue), Some(1));
        queue.take(1);
        // Writes empty: back to read priority.
        assert!(policy.choose(&mut queue).is_some());
        assert!(!queue.draining);
    }

    #[test]
    fn oldest_first_picks_earliest_arrival_not_queue_position() {
        // A retried admission sits at the tail with an old arrival stamp.
        let mut queue = queue_of(vec![
            queued(5, 50.0, Transaction::read(0, Address::new(0, 0))),
            queued(6, 60.0, Transaction::read(0, Address::new(0, 1))),
            queued(1, 10.0, Transaction::read(0, Address::new(0, 2))),
        ]);
        assert_eq!(Policy::OldestFirst.choose(&mut queue), Some(2));
    }

    #[test]
    fn priority_classes_rank_demand_then_test_then_background() {
        assert!(PriorityClass::Demand < PriorityClass::Test);
        assert!(PriorityClass::Test < PriorityClass::Background);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Policy::Fcfs.name(), "fcfs");
        assert_eq!(
            Policy::ReadPriority {
                write_high_water: 4
            }
            .name(),
            "read-priority"
        );
        assert_eq!(Policy::OldestFirst.name(), "oldest-first");
    }
}
