//! The signature hash table (§III-B).
//!
//! A "standard key-value data structure that maps *signatures* to *LineID*",
//! used to find reference candidates. It is a plain SRAM, not a CAM: each
//! entry (bucket) holds a small number of LineIDs (two by default) with FIFO
//! replacement, and the table is "inherently inexact" — hash collisions
//! simply surface as false-positive candidates that the ranking step filters
//! out (Fig. 7).
//!
//! Sizing follows §IV-D: a *full-sized* table has as many entries as the
//! home cache has lines; Fig. 21 scales this from 2× down to 1/2048× —
//! "scaling downward, a table with half as many entries can retain
//! signatures of the most recent half".

use crate::signature::Signature;
use cable_common::Divisor;
use std::fmt;

/// Sentinel for an empty slot (no real packed LineID reaches u32::MAX —
/// LineIDs are at most 18 bits in every paper configuration).
const EMPTY: u32 = u32::MAX;

/// A signature → LineID hash table with fixed-depth buckets.
///
/// LineIDs are stored packed (see `cable_cache::LineId::pack`); the table
/// does not interpret them.
///
/// # Examples
///
/// ```
/// use cable_core::hash_table::SignatureTable;
/// use cable_core::signature::SignatureExtractor;
/// use cable_common::LineData;
///
/// let ex = SignatureExtractor::new(1);
/// let mut table = SignatureTable::new(1024, 2);
/// let line = LineData::splat_word(0xabcd_1234);
/// let sig = ex.insert_signatures(&line)[0];
/// table.insert(sig, 42);
/// assert_eq!(table.lookup(sig), &[42]);
/// table.remove(sig, 42);
/// assert!(table.lookup(sig).is_empty());
/// ```
pub struct SignatureTable {
    /// Bucket count; a signature's bucket is `sig % entries`.
    entries: Divisor,
    depth: usize,
    /// Flat bucket storage: `entries * depth` slots; within a bucket, slot 0
    /// is the oldest (FIFO order).
    slots: Vec<u32>,
    inserted: u64,
    evicted: u64,
}

impl Clone for SignatureTable {
    fn clone(&self) -> Self {
        SignatureTable {
            entries: self.entries,
            depth: self.depth,
            slots: self.slots.clone(),
            inserted: self.inserted,
            evicted: self.evicted,
        }
    }

    /// Reuses this table's bucket storage (see `SetAssocCache::clone_from`).
    fn clone_from(&mut self, source: &Self) {
        let SignatureTable {
            entries,
            depth,
            slots,
            inserted,
            evicted,
        } = self;
        *entries = source.entries;
        *depth = source.depth;
        slots.clone_from(&source.slots);
        *inserted = source.inserted;
        *evicted = source.evicted;
    }
}

impl SignatureTable {
    /// Creates a table with `entries` buckets of `depth` LineIDs each.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or above `u32::MAX`, or if `depth` is
    /// zero.
    #[must_use]
    pub fn new(entries: u64, depth: usize) -> Self {
        assert!(entries > 0, "table must have at least one entry");
        assert!(depth > 0, "buckets must hold at least one LineID");
        let entries = u32::try_from(entries).expect("at most u32::MAX buckets");
        SignatureTable {
            entries: Divisor::new(entries),
            depth,
            slots: vec![EMPTY; entries as usize * depth],
            inserted: 0,
            evicted: 0,
        }
    }

    /// Number of buckets.
    #[must_use]
    pub fn entries(&self) -> u64 {
        u64::from(self.entries.get())
    }

    /// LineIDs per bucket.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Index of the bucket `sig` maps to, in [`SignatureTable::iter_buckets`]
    /// order.
    #[must_use]
    pub fn bucket_of(&self, sig: Signature) -> usize {
        self.entries.remainder(sig.as_u32()) as usize
    }

    fn bucket_range(&self, sig: Signature) -> std::ops::Range<usize> {
        let idx = self.bucket_of(sig);
        idx * self.depth..(idx + 1) * self.depth
    }

    /// Inserts `lid` under `sig` (FIFO within the bucket). Re-inserting a
    /// LineID already present refreshes its position instead of duplicating.
    pub fn insert(&mut self, sig: Signature, lid: u32) {
        debug_assert_ne!(lid, EMPTY, "LineID collides with the empty sentinel");
        let range = self.bucket_range(sig);
        let bucket = &mut self.slots[range];
        // Refresh an existing occurrence: move it to the newest position of
        // the valid prefix (entries always precede EMPTY slots).
        if let Some(pos) = bucket.iter().position(|&s| s == lid) {
            let len = bucket
                .iter()
                .position(|&s| s == EMPTY)
                .unwrap_or(bucket.len());
            bucket[pos..len].rotate_left(1);
            return;
        }
        if bucket[0] != EMPTY && bucket.iter().all(|&s| s != EMPTY) {
            self.evicted += 1;
        }
        // Shift left (dropping the oldest if full) and append.
        if let Some(pos) = bucket.iter().position(|&s| s == EMPTY) {
            bucket[pos] = lid;
        } else {
            bucket.rotate_left(1);
            *bucket.last_mut().expect("depth > 0") = lid;
        }
        self.inserted += 1;
    }

    /// Returns the LineIDs currently stored under `sig`, oldest first.
    #[must_use]
    pub fn lookup(&self, sig: Signature) -> &[u32] {
        let range = self.bucket_range(sig);
        let bucket = &self.slots[range];
        let len = bucket
            .iter()
            .position(|&s| s == EMPTY)
            .unwrap_or(self.depth);
        &bucket[..len]
    }

    /// Removes `lid` from the bucket of `sig`, if present (the
    /// desynchronization path of §III-F).
    pub fn remove(&mut self, sig: Signature, lid: u32) {
        let depth = self.depth;
        let range = self.bucket_range(sig);
        let bucket = &mut self.slots[range];
        if let Some(pos) = bucket.iter().position(|&s| s == lid) {
            // Compact: shift the survivors left, pad with EMPTY.
            for i in pos..depth - 1 {
                bucket[i] = bucket[i + 1];
            }
            bucket[depth - 1] = EMPTY;
        }
    }

    /// Issues the bucket reads for `sigs` back-to-back, so the (random,
    /// usually cold) bucket cache lines are fetched with their misses
    /// overlapping before a per-signature insert/remove walk serializes on
    /// them. Pure cache warming: no observable effect on table state.
    pub fn warm(&self, sigs: &[Signature]) {
        let mut touched = 0;
        for &sig in sigs {
            touched |= self.slots[self.bucket_range(sig).start];
        }
        std::hint::black_box(touched);
    }

    /// Inserts `lid` under every signature in `sigs` (bucket semantics of
    /// [`SignatureTable::insert`]), warming the target buckets first.
    pub fn insert_all(&mut self, sigs: &[Signature], lid: u32) {
        self.warm(sigs);
        for &sig in sigs {
            self.insert(sig, lid);
        }
    }

    /// Removes every occurrence of `lid` across the buckets of `sigs`,
    /// warming the target buckets first.
    pub fn remove_all(&mut self, sigs: &[Signature], lid: u32) {
        self.warm(sigs);
        for &sig in sigs {
            self.remove(sig, lid);
        }
    }

    /// Retains only the LineIDs for which `keep` returns true, compacting
    /// each bucket in place (FIFO order preserved). Returns the number of
    /// entries scrubbed — the resync path of `audit_and_resync` uses this to
    /// purge signatures left dangling by lost eviction notices.
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) -> usize {
        let mut scrubbed = 0;
        for bucket in self.slots.chunks_mut(self.depth) {
            let mut write = 0;
            for read in 0..bucket.len() {
                let lid = bucket[read];
                if lid == EMPTY {
                    break;
                }
                if keep(lid) {
                    bucket[write] = lid;
                    write += 1;
                } else {
                    scrubbed += 1;
                }
            }
            for slot in bucket[write..].iter_mut() {
                *slot = EMPTY;
            }
        }
        scrubbed
    }

    /// Iterates the occupied prefix of every bucket (invariant checks).
    pub fn iter_buckets(&self) -> impl Iterator<Item = &[u32]> {
        self.slots.chunks(self.depth).map(|bucket| {
            let len = bucket
                .iter()
                .position(|&s| s == EMPTY)
                .unwrap_or(self.depth);
            &bucket[..len]
        })
    }

    /// Total valid LineIDs stored (for tests and occupancy studies).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|&&s| s != EMPTY).count()
    }

    /// `(inserted, evicted)` counters since construction.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.inserted, self.evicted)
    }

    /// Storage cost in bits given the LineID width — the Table III area
    /// input (`entries × depth × lid_bits`).
    #[must_use]
    pub fn storage_bits(&self, lid_bits: u32) -> u64 {
        self.entries() * self.depth as u64 * u64::from(lid_bits)
    }
}

impl fmt::Debug for SignatureTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SignatureTable({} entries x {} deep, {} occupied)",
            self.entries(),
            self.depth,
            self.occupancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureExtractor;
    use cable_common::LineData;
    use proptest::prelude::*;

    fn sig_of(word: u32) -> Signature {
        // Force the word non-trivial so a signature always exists.
        let word = (word & 0x7fff_ffff) | 0x0100_0000;
        let ex = SignatureExtractor::new(0xcab1e);
        ex.search_signatures(&LineData::splat_word(word))[0]
    }

    #[test]
    fn insert_lookup_remove() {
        let mut t = SignatureTable::new(64, 2);
        let s = sig_of(0x1111_1111);
        t.insert(s, 7);
        assert_eq!(t.lookup(s), &[7]);
        t.insert(s, 9);
        assert_eq!(t.lookup(s), &[7, 9]);
        t.remove(s, 7);
        assert_eq!(t.lookup(s), &[9]);
        t.remove(s, 9);
        assert!(t.lookup(s).is_empty());
    }

    #[test]
    fn fifo_eviction_at_depth() {
        let mut t = SignatureTable::new(64, 2);
        let s = sig_of(0x2222_2222);
        t.insert(s, 1);
        t.insert(s, 2);
        t.insert(s, 3); // evicts 1
        assert_eq!(t.lookup(s), &[2, 3]);
        assert_eq!(t.stats(), (3, 1));
    }

    #[test]
    fn reinsert_refreshes_position() {
        let mut t = SignatureTable::new(64, 2);
        let s = sig_of(0x3333_3333);
        t.insert(s, 1);
        t.insert(s, 2);
        t.insert(s, 1); // refresh: 1 becomes newest
        assert_eq!(t.lookup(s), &[2, 1]);
        t.insert(s, 4); // evicts 2, not 1
        assert_eq!(t.lookup(s), &[1, 4]);
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut t = SignatureTable::new(64, 2);
        let s = sig_of(0x4444_4444);
        t.insert(s, 5);
        t.remove(s, 99);
        assert_eq!(t.lookup(s), &[5]);
    }

    #[test]
    fn colliding_signatures_share_buckets() {
        // With a single entry, everything collides — the table must still
        // behave (collisions are false positives, not errors).
        let mut t = SignatureTable::new(1, 2);
        let a = sig_of(0x5555_5555);
        let b = sig_of(0x6666_6666);
        t.insert(a, 1);
        t.insert(b, 2);
        assert_eq!(t.lookup(a), &[1, 2]);
        assert_eq!(t.lookup(b), &[1, 2]);
    }

    #[test]
    fn storage_bits_matches_geometry() {
        // Full-sized table for a 16MB home cache, 2-deep, 18-bit HomeLIDs:
        // §IV-D says ~3.5% of the data cache. Full-sized = as many LineID
        // slots as cache lines, i.e. lines/2 two-deep buckets.
        let lines = (16u64 << 20) / 64;
        let t = SignatureTable::new(lines / 2, 2);
        let overhead = t.storage_bits(18) as f64 / ((16u64 << 20) * 8) as f64;
        assert!((overhead - 0.035).abs() < 0.005, "overhead {overhead}");
    }

    #[test]
    fn retain_scrubs_and_compacts() {
        let mut t = SignatureTable::new(1, 3);
        let s = sig_of(0x7777_7777);
        t.insert(s, 1);
        t.insert(s, 2);
        t.insert(s, 3);
        let scrubbed = t.retain(|lid| lid != 2);
        assert_eq!(scrubbed, 1);
        assert_eq!(t.lookup(s), &[1, 3], "survivors compacted, order kept");
        assert_eq!(t.retain(|_| true), 0);
        assert_eq!(t.retain(|_| false), 2);
        assert_eq!(t.occupancy(), 0);
    }

    /// `n` signatures of distinct words: H3 spreads their raw values.
    fn sigs(n: usize) -> Vec<Signature> {
        (0..n as u32)
            .map(|i| sig_of(i.wrapping_mul(0x9e37_79b9)))
            .collect()
    }

    #[test]
    fn bucket_choice_is_signature_mod_entries() {
        for entries in [1u64, 2, 3, 7, 12, 64, 1000, 4097] {
            let t = SignatureTable::new(entries, 3);
            for sig in sigs(300) {
                let want = (u64::from(sig.as_u32()) % entries) as usize * 3;
                assert_eq!(t.bucket_range(sig), want..want + 3, "{entries} entries");
            }
        }
    }

    #[test]
    fn signatures_in_one_bucket_collide_on_a_table_not_a_power_of_two() {
        // Depth 3: three signatures with equal `sig % 3` share one bucket.
        let mut t = SignatureTable::new(3, 3);
        let all = sigs(64);
        let same: Vec<Signature> = all
            .iter()
            .copied()
            .filter(|s| s.as_u32() % 3 == all[0].as_u32() % 3)
            .take(3)
            .collect();
        assert_eq!(same.len(), 3);
        for (lid, &sig) in same.iter().enumerate() {
            t.insert(sig, lid as u32);
        }
        for &sig in &same {
            assert_eq!(t.lookup(sig), &[0, 1, 2]);
        }
        assert_eq!(t.occupancy(), 3);
    }

    proptest! {
        #[test]
        fn prop_bucket_matches_modulo(entries in 1u64..5000, word in any::<u32>()) {
            let t = SignatureTable::new(entries, 3);
            let sig = sig_of(word);
            let want = (u64::from(sig.as_u32()) % entries) as usize * 3;
            prop_assert_eq!(t.bucket_range(sig), want..want + 3);
        }

        #[test]
        fn prop_lookup_never_exceeds_depth(
            ops in proptest::collection::vec((any::<u32>(), 0u32..1000), 1..200),
            depth in 1usize..4,
        ) {
            let mut t = SignatureTable::new(16, depth);
            for (word, lid) in ops {
                let s = sig_of(word | 0x0100_0000); // keep non-trivial
                t.insert(s, lid);
                prop_assert!(t.lookup(s).len() <= depth);
                prop_assert!(t.lookup(s).contains(&lid));
            }
        }

        #[test]
        fn prop_remove_then_absent(word in any::<u32>(), lid in 0u32..1000) {
            let mut t = SignatureTable::new(8, 2);
            let s = sig_of(word | 0x0100_0000);
            t.insert(s, lid);
            t.remove(s, lid);
            prop_assert!(!t.lookup(s).contains(&lid));
        }
    }
}
