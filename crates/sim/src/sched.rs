//! Event-driven actor scheduling for the timing simulators.
//!
//! The seed simulators advanced time with an O(N) linear scan per step:
//! pick the actor with the smallest local clock by `min_by_key`, plus a
//! second O(N) "is everyone done" scan. [`Scheduler`] replaces both: a
//! binary min-heap keyed on `(now_ps, actor_index)` makes each pick
//! O(log N), and [`DoneTracker`] counts retirements so the completion
//! check is O(1). The group loop behind every `throughput` entry point
//! (the §VI-D controlled run included) and `FabricSim::run` share this
//! core.
//!
//! # Tie-breaking
//!
//! The seed scan used `Iterator::min_by_key`, which returns the *first*
//! minimal element — the lowest-indexed actor among those tied on
//! `now_ps`. The heap key includes the actor index as the secondary sort,
//! so equal-time pops come out lowest-index-first too, and an event-driven
//! run reproduces the seed schedule step for step (tested against the
//! linear-scan oracle in `throughput.rs`'s test module).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A binary min-heap of actors keyed on `(now_ps, actor_index)`.
///
/// Actors are plain indices into whatever collection the caller owns; the
/// scheduler only orders them. Every actor appears at most once: pop an
/// actor, advance it, then either [`push`](Scheduler::push) it back with
/// its new clock or drop it to retire it from scheduling.
#[derive(Clone, Debug, Default)]
pub struct Scheduler {
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Scheduler {
    /// Creates an empty scheduler with room for `actors` entries.
    #[must_use]
    pub fn with_capacity(actors: usize) -> Self {
        Scheduler {
            heap: BinaryHeap::with_capacity(actors),
        }
    }

    /// Enqueues `actor` at local time `now_ps`.
    pub fn push(&mut self, now_ps: u64, actor: usize) {
        self.heap.push(Reverse((now_ps, actor)));
    }

    /// Removes and returns the earliest actor (ties broken by lowest
    /// index), or `None` when no actors remain.
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop().map(|Reverse(pair)| pair)
    }
}

/// Counts finished actors so "are we done" is O(1) instead of a per-step
/// scan over every actor's progress.
#[derive(Clone, Copy, Debug)]
pub struct DoneTracker {
    total: usize,
    done: usize,
}

impl DoneTracker {
    /// Tracks `total` actors, none finished yet.
    #[must_use]
    pub fn new(total: usize) -> Self {
        DoneTracker { total, done: 0 }
    }

    /// Records one actor crossing its finish line. Call exactly once per
    /// actor (the caller detects the crossing edge).
    pub fn mark_done(&mut self) {
        self.done += 1;
        debug_assert!(self.done <= self.total, "more retirements than actors");
    }

    /// True once every actor has finished.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.done >= self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut s = Scheduler::with_capacity(3);
        s.push(300, 0);
        s.push(100, 1);
        s.push(200, 2);
        assert_eq!(s.pop(), Some((100, 1)));
        assert_eq!(s.pop(), Some((200, 2)));
        assert_eq!(s.pop(), Some((300, 0)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn ties_break_lowest_index_first() {
        // The seed linear scan (`min_by_key`) picks the first minimal
        // element; the heap must agree on every tie.
        let mut s = Scheduler::with_capacity(4);
        for actor in [3usize, 1, 2, 0] {
            s.push(500, actor);
        }
        for expect in 0..4 {
            assert_eq!(s.pop(), Some((500, expect)));
        }
    }

    #[test]
    fn reinsertion_keeps_ordering() {
        let mut s = Scheduler::with_capacity(2);
        s.push(10, 0);
        s.push(20, 1);
        let (t, a) = s.pop().unwrap();
        assert_eq!((t, a), (10, 0));
        s.push(35, a); // actor 0 advanced past actor 1
        assert_eq!(s.pop(), Some((20, 1)));
        assert_eq!(s.pop(), Some((35, 0)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn done_tracker_counts_to_total() {
        let mut d = DoneTracker::new(3);
        assert!(!d.all_done());
        d.mark_done();
        d.mark_done();
        assert!(!d.all_done());
        d.mark_done();
        assert!(d.all_done());
    }

    #[test]
    fn zero_actors_start_done() {
        assert!(DoneTracker::new(0).all_done());
        assert_eq!(Scheduler::with_capacity(0).pop(), None);
        assert_eq!(Scheduler::default().pop(), None);
    }
}
