//! The eviction buffer and EvictSeq protocol (§IV-A).
//!
//! Race: the home cache selects a reference at the same moment the remote
//! cache evicts it — the arriving DIFF would point at a missing line. The
//! paper's fix: the remote cache holds a copy of every *unacknowledged*
//! eviction in a small buffer. Each eviction gets a sequence number
//! (*EvictSeq*) that is piggy-backed on the next memory request; the home
//! cache echoes the last EvictSeq it has processed in its responses, which
//! tells the remote cache which buffer entries are safe to drop. This works
//! "even with an out-of-order link transport such as Intel's QPI".
//!
//! [`crate::CableLink`]'s fault path is the only user: it buffers every
//! clean remote eviction and resolves a fill reference to an empty remote
//! slot from here.

use cable_cache::LineId;
use cable_common::{Address, LineData};
use std::collections::VecDeque;
use std::fmt;

/// Entries the remote's eviction buffer holds in fault mode. When it is
/// full the oldest unacknowledged eviction is dropped; a reference to it
/// then fails at the receiver and is resent raw.
pub(crate) const EVICT_BUFFER_CAPACITY: usize = 64;

/// One buffered eviction awaiting home-side acknowledgement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct BufferedEviction {
    /// Sequence number assigned at eviction time.
    pub seq: u64,
    /// Line-aligned address of the evicted line.
    pub addr: Address,
    /// The slot it occupied (references arriving in flight name this slot).
    pub line_id: LineId,
    /// The evicted payload.
    pub data: LineData,
}

/// The remote cache's eviction buffer.
#[derive(Clone)]
pub(crate) struct EvictionBuffer {
    entries: VecDeque<BufferedEviction>,
    capacity: usize,
    next_seq: u64,
    overflows: u64,
    acked_up_to: u64,
}

impl EvictionBuffer {
    /// Creates a buffer holding at most `capacity` unacknowledged evictions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer must hold at least one eviction");
        EvictionBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            // Sequence numbers start at 1 so that an echoed EvictSeq of 0
            // unambiguously means "nothing acknowledged yet".
            next_seq: 1,
            overflows: 0,
            acked_up_to: 0,
        }
    }

    /// Records an eviction, returning its EvictSeq (to be embedded in the
    /// next memory request).
    ///
    /// If the buffer is full the oldest entry is dropped and counted as an
    /// overflow — in hardware this case is prevented by back-pressuring
    /// evictions until an acknowledgement arrives.
    pub(crate) fn insert(&mut self, addr: Address, line_id: LineId, data: LineData) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.overflows += 1;
        }
        self.entries.push_back(BufferedEviction {
            seq,
            addr: addr.line_aligned(),
            line_id,
            data,
        });
        seq
    }

    /// Processes the home cache's echoed EvictSeq: every eviction with
    /// `seq <= acked` is safe to drop (the home cache will no longer emit
    /// references to those lines).
    ///
    /// The acknowledged watermark is monotone: a stale or duplicated ack
    /// (an out-of-order link may reorder responses) can never regress it,
    /// and future sequences are clamped to what has actually been issued.
    pub(crate) fn acknowledge(&mut self, acked: u64) {
        let acked = acked.min(self.next_seq - 1);
        if acked <= self.acked_up_to {
            return;
        }
        self.acked_up_to = acked;
        while self.entries.front().is_some_and(|e| e.seq <= acked) {
            self.entries.pop_front();
        }
    }

    /// The highest EvictSeq the home cache has acknowledged (0 = none).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn acked_up_to(&self) -> u64 {
        self.acked_up_to
    }

    /// Configured capacity in entries.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resolves a stale reference by slot: an in-flight DIFF may name a
    /// remote slot whose line was just evicted; the buffered copy is used
    /// for decompression instead.
    #[must_use]
    pub(crate) fn lookup_by_line_id(&self, line_id: LineId) -> Option<&BufferedEviction> {
        // Newest entry wins if the slot was recycled multiple times.
        self.entries.iter().rev().find(|e| e.line_id == line_id)
    }

    /// Iterates the buffered evictions, oldest first.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = &BufferedEviction> {
        self.entries.iter()
    }

    /// Resolves a buffered eviction by address.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn lookup_by_addr(&self, addr: Address) -> Option<&BufferedEviction> {
        let addr = addr.line_aligned();
        self.entries.iter().rev().find(|e| e.addr == addr)
    }

    /// The EvictSeq that will be assigned to the next eviction.
    #[must_use]
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Unacknowledged evictions currently held.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no evictions are pending acknowledgement.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evictions dropped because the buffer was full.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn overflows(&self) -> u64 {
        self.overflows
    }
}

impl fmt::Debug for EvictionBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EvictionBuffer({}/{} pending, next seq {}, {} overflows)",
            self.entries.len(),
            self.capacity,
            self.next_seq,
            self.overflows
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn line(v: u32) -> LineData {
        LineData::splat_word(v)
    }

    #[test]
    fn sequence_numbers_are_monotone() {
        let mut buf = EvictionBuffer::new(4);
        let s0 = buf.insert(Address::new(0), LineId::new(0, 0), line(1));
        let s1 = buf.insert(Address::new(64), LineId::new(1, 0), line(2));
        assert_eq!(s0, 1, "sequences start at 1 (0 = nothing acked)");
        assert_eq!(s1, s0 + 1);
        assert_eq!(buf.next_seq(), 3);
    }

    #[test]
    fn acknowledge_drops_prefix() {
        let mut buf = EvictionBuffer::new(8);
        let seqs: Vec<u64> = (0..4)
            .map(|i| {
                buf.insert(
                    Address::new(i * 64),
                    LineId::new(i as u32, 0),
                    line(i as u32),
                )
            })
            .collect();
        buf.acknowledge(seqs[1]);
        assert_eq!(buf.len(), 2);
        assert!(buf.lookup_by_addr(Address::new(0)).is_none());
        assert!(buf.lookup_by_addr(Address::new(128)).is_some());
    }

    #[test]
    fn race_scenario_resolves_from_buffer() {
        // 1. Remote evicts line X from slot (3, 1) — buffered, not yet acked.
        // 2. An in-flight response references slot (3, 1).
        // 3. The remote resolves the reference from the buffer.
        let mut buf = EvictionBuffer::new(8);
        let slot = LineId::new(3, 1);
        let payload = line(0xdead);
        buf.insert(Address::new(0x1000), slot, payload);
        let hit = buf.lookup_by_line_id(slot).expect("buffered");
        assert_eq!(hit.data, payload);
        // 4. Home acknowledges; the entry can go.
        buf.acknowledge(hit.seq);
        assert!(buf.lookup_by_line_id(slot).is_none());
    }

    #[test]
    fn recycled_slot_returns_newest() {
        let mut buf = EvictionBuffer::new(8);
        let slot = LineId::new(0, 0);
        buf.insert(Address::new(0), slot, line(1));
        buf.insert(Address::new(64), slot, line(2));
        assert_eq!(buf.lookup_by_line_id(slot).unwrap().data, line(2));
    }

    #[test]
    fn overflow_drops_oldest() {
        let mut buf = EvictionBuffer::new(2);
        buf.insert(Address::new(0), LineId::new(0, 0), line(1));
        buf.insert(Address::new(64), LineId::new(1, 0), line(2));
        buf.insert(Address::new(128), LineId::new(2, 0), line(3));
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.overflows(), 1);
        assert!(buf.lookup_by_addr(Address::new(0)).is_none());
    }

    #[test]
    fn out_of_order_ack_is_safe() {
        // Acknowledging a seq below the front is a no-op (duplicate ack on
        // an out-of-order link).
        let mut buf = EvictionBuffer::new(4);
        let s0 = buf.insert(Address::new(0), LineId::new(0, 0), line(1));
        buf.acknowledge(s0);
        buf.acknowledge(s0); // duplicate
        let s1 = buf.insert(Address::new(64), LineId::new(1, 0), line(2));
        buf.acknowledge(s0); // stale ack must not drop s1
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.lookup_by_addr(Address::new(64)).unwrap().seq, s1);
    }

    #[test]
    fn ack_watermark_is_monotone_and_clamped() {
        let mut buf = EvictionBuffer::new(4);
        let s0 = buf.insert(Address::new(0), LineId::new(0, 0), line(1));
        let s1 = buf.insert(Address::new(64), LineId::new(1, 0), line(2));
        buf.acknowledge(s1);
        assert_eq!(buf.acked_up_to(), s1);
        // A stale (reordered) ack cannot regress the watermark.
        buf.acknowledge(s0);
        assert_eq!(buf.acked_up_to(), s1);
        // A corrupt ack from the future is clamped to issued sequences.
        buf.acknowledge(u64::MAX);
        assert_eq!(buf.acked_up_to(), s1);
        let s2 = buf.insert(Address::new(128), LineId::new(2, 0), line(3));
        assert_eq!(
            buf.len(),
            1,
            "future-ack clamp must not pre-drop new entries"
        );
        buf.acknowledge(s2);
        assert!(buf.is_empty());
    }

    #[test]
    fn overflow_counting_at_capacity_is_exact() {
        let mut buf = EvictionBuffer::new(3);
        for i in 0..10u64 {
            buf.insert(
                Address::new(i * 64),
                LineId::new(i as u32, 0),
                line(i as u32),
            );
        }
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.overflows(), 7);
        assert_eq!(buf.capacity(), 3);
        // The survivors are the newest three, oldest first.
        let seqs: Vec<u64> = buf.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![8, 9, 10]);
    }

    proptest! {
        #[test]
        fn prop_ack_watermark_never_regresses(
            acks in proptest::collection::vec(0u64..100, 1..50),
        ) {
            let mut buf = EvictionBuffer::new(8);
            for i in 0..40u64 {
                buf.insert(Address::new(i * 64), LineId::new(i as u32, 0), line(0));
            }
            let mut high = 0;
            for a in acks {
                buf.acknowledge(a);
                prop_assert!(buf.acked_up_to() >= high);
                high = buf.acked_up_to();
                prop_assert!(high < buf.next_seq());
            }
        }

        #[test]
        fn prop_len_never_exceeds_capacity(
            inserts in 1usize..100,
            capacity in 1usize..16,
        ) {
            let mut buf = EvictionBuffer::new(capacity);
            for i in 0..inserts {
                buf.insert(Address::new(i as u64 * 64), LineId::new(i as u32, 0), line(i as u32));
                prop_assert!(buf.len() <= capacity);
            }
        }

        #[test]
        fn prop_ack_all_empties(inserts in 1usize..50) {
            let mut buf = EvictionBuffer::new(64);
            let mut last = 0;
            for i in 0..inserts {
                last = buf.insert(Address::new(i as u64 * 64), LineId::new(0, 0), line(0));
            }
            buf.acknowledge(last);
            prop_assert!(buf.is_empty());
        }
    }
}
