//! An LRU set-associative cache with MESI-lite coherence states.

use crate::geometry::{CacheGeometry, LineId};
use cable_common::{Address, LineData};
use std::fmt;

/// Coherence state of a cached line.
///
/// CABLE only uses lines in `Shared` state as compression references: lines
/// in `Exclusive`/`Modified` can be changed silently, which would corrupt
/// decompression (§II-A "Challenge: Synchronization").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum CoherenceState {
    /// Not present / invalidated.
    #[default]
    Invalid,
    /// Clean, possibly present in both caches — usable as a reference.
    Shared,
    /// Clean but writable; may transition to Modified silently.
    Exclusive,
    /// Dirty; never usable as a reference.
    Modified,
}

impl CoherenceState {
    /// True for states that CABLE may use as dictionary references.
    #[must_use]
    pub fn is_reference_safe(self) -> bool {
        self == CoherenceState::Shared
    }
}

/// A line evicted (or invalidated) from a cache, with everything the CABLE
/// synchronization path needs: its address (to recompute signatures), data,
/// state, and the LineID slot it occupied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvictedLine {
    /// Line-aligned address of the victim.
    pub addr: Address,
    /// Victim payload.
    pub data: LineData,
    /// Coherence state at eviction time.
    pub state: CoherenceState,
    /// The slot the victim occupied.
    pub line_id: LineId,
}

/// Result of inserting a line: where it landed and what it displaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Slot the new line occupies.
    pub line_id: LineId,
    /// The displaced valid line, if any.
    pub evicted: Option<EvictedLine>,
}

/// `Copy`, so restoring a snapshot (`Vec::clone_from`) is one memcpy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Slot {
    tag: u64,
    state: CoherenceState,
    data: LineData,
    last_use: u64,
}

/// An LRU set-associative cache of 64-byte lines.
///
/// Beyond ordinary lookup/insert, it exposes the two operations CABLE's
/// hardware depends on:
///
/// - [`SetAssocCache::read_by_id`]: a data-array read by `index + way`
///   *without* a tag check, as the search pipeline performs (§III-C);
/// - [`SetAssocCache::victim_way`]: the replacement-way info that remote
///   caches embed in their requests (§II-C).
///
/// # Examples
///
/// ```
/// use cable_cache::{CacheGeometry, CoherenceState, SetAssocCache};
/// use cable_common::{Address, LineData};
///
/// let mut cache = SetAssocCache::new(CacheGeometry::new(64 << 10, 4));
/// let addr = Address::new(0x1000);
/// cache.insert(addr, LineData::splat_word(1), CoherenceState::Shared);
/// let lid = cache.lookup(addr).unwrap();
/// assert_eq!(cache.read_by_id(lid), Some(LineData::splat_word(1)));
/// ```
pub struct SetAssocCache {
    geometry: CacheGeometry,
    slots: Vec<Slot>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Clone for SetAssocCache {
    fn clone(&self) -> Self {
        SetAssocCache {
            geometry: self.geometry,
            slots: self.slots.clone(),
            clock: self.clock,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Copies `source` into this cache's existing slot array, so restoring
    /// a snapshot of the same geometry reuses memory that is already
    /// mapped instead of allocating a fresh array.
    fn clone_from(&mut self, source: &Self) {
        let SetAssocCache {
            geometry,
            slots,
            clock,
            hits,
            misses,
        } = self;
        *geometry = source.geometry;
        slots.clone_from(&source.slots);
        *clock = source.clock;
        *hits = source.hits;
        *misses = source.misses;
    }
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            slots: vec![Slot::default(); geometry.lines() as usize],
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    #[must_use]
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    fn slot_pos(&self, index: u32, way: u8) -> usize {
        index as usize * self.geometry.ways() as usize + way as usize
    }

    /// Touches every slot of `addr`'s set so the set's (random, usually
    /// cold) cache lines are fetched with overlapping misses before a
    /// subsequent lookup/insert walk serializes on them. Pure cache
    /// warming: LRU order, statistics, and contents are untouched.
    pub fn warm(&self, addr: Address) {
        let index = self.geometry.index_of(addr) as u32;
        let mut touched = 0u64;
        for way in 0..self.geometry.ways() as u8 {
            touched ^= self.slots[self.slot_pos(index, way)].tag;
        }
        std::hint::black_box(touched);
    }

    fn slot(&self, lid: LineId) -> &Slot {
        &self.slots[self.slot_pos(lid.index(), lid.way())]
    }

    fn slot_mut(&mut self, lid: LineId) -> &mut Slot {
        let pos = self.slot_pos(lid.index(), lid.way());
        &mut self.slots[pos]
    }

    /// Looks up `addr` without touching LRU state or hit/miss counters.
    #[must_use]
    pub fn lookup(&self, addr: Address) -> Option<LineId> {
        let index = self.geometry.index_of(addr) as u32;
        let tag = self.geometry.tag_of(addr);
        (0..self.geometry.ways() as u8).find_map(|way| {
            let slot = &self.slots[self.slot_pos(index, way)];
            (slot.state != CoherenceState::Invalid && slot.tag == tag)
                .then(|| LineId::new(index, way))
        })
    }

    /// Looks up `addr`, updating LRU order and hit/miss statistics.
    pub fn access(&mut self, addr: Address) -> Option<LineId> {
        self.clock += 1;
        match self.lookup(addr) {
            Some(lid) => {
                self.hits += 1;
                let clock = self.clock;
                self.slot_mut(lid).last_use = clock;
                Some(lid)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Returns the way that would be replaced next in the set holding `addr`
    /// — the replacement-way hint a remote cache embeds in its request.
    #[must_use]
    pub fn victim_way(&self, addr: Address) -> u8 {
        let index = self.geometry.index_of(addr) as u32;
        // Prefer an invalid way; otherwise least recently used.
        let mut best_way = 0u8;
        let mut best_use = u64::MAX;
        for way in 0..self.geometry.ways() as u8 {
            let slot = &self.slots[self.slot_pos(index, way)];
            if slot.state == CoherenceState::Invalid {
                return way;
            }
            if slot.last_use < best_use {
                best_use = slot.last_use;
                best_way = way;
            }
        }
        best_way
    }

    /// Inserts a line, evicting the LRU victim if the set is full.
    ///
    /// If `addr` is already present its data and state are updated in place
    /// (no eviction).
    pub fn insert(
        &mut self,
        addr: Address,
        data: LineData,
        state: CoherenceState,
    ) -> InsertOutcome {
        self.insert_at_way(addr, data, state, None)
    }

    /// Inserts a line into an explicit way, modelling the remote cache
    /// honouring its own advertised replacement way.
    ///
    /// # Panics
    ///
    /// Panics if `way` is out of range for the geometry.
    pub fn insert_at_way(
        &mut self,
        addr: Address,
        data: LineData,
        state: CoherenceState,
        way: Option<u8>,
    ) -> InsertOutcome {
        self.clock += 1;
        let index = self.geometry.index_of(addr) as u32;
        let tag = self.geometry.tag_of(addr);

        // Update in place on a tag match.
        if let Some(lid) = self.lookup(addr) {
            let clock = self.clock;
            let slot = self.slot_mut(lid);
            slot.data = data;
            slot.state = state;
            slot.last_use = clock;
            return InsertOutcome {
                line_id: lid,
                evicted: None,
            };
        }

        let way = match way {
            Some(w) => {
                assert!(
                    u32::from(w) < self.geometry.ways(),
                    "way {w} out of range for {}-way cache",
                    self.geometry.ways()
                );
                w
            }
            None => self.victim_way(addr),
        };
        let lid = LineId::new(index, way);
        let sets = self.geometry.sets();
        let clock = self.clock;
        let slot = self.slot_mut(lid);
        let evicted = (slot.state != CoherenceState::Invalid).then(|| EvictedLine {
            addr: Address::from_line_number(slot.tag * sets + u64::from(index)),
            data: slot.data,
            state: slot.state,
            line_id: lid,
        });
        *slot = Slot {
            tag,
            state,
            data,
            last_use: clock,
        };
        InsertOutcome {
            line_id: lid,
            evicted,
        }
    }

    /// Reads the data array by `index + way` **without a tag check**, as the
    /// CABLE search pipeline does for reference candidates (§III-C).
    ///
    /// Returns `None` only if the slot is invalid.
    #[must_use]
    pub fn read_by_id(&self, lid: LineId) -> Option<LineData> {
        let slot = self.slot(lid);
        (slot.state != CoherenceState::Invalid).then_some(slot.data)
    }

    /// Returns the coherence state of a slot.
    #[must_use]
    pub fn state_by_id(&self, lid: LineId) -> CoherenceState {
        self.slot(lid).state
    }

    /// Reconstructs the line-aligned address stored in a slot, if valid.
    #[must_use]
    pub fn addr_by_id(&self, lid: LineId) -> Option<Address> {
        let slot = self.slot(lid);
        (slot.state != CoherenceState::Invalid).then(|| {
            Address::from_line_number(slot.tag * self.geometry.sets() + u64::from(lid.index()))
        })
    }

    /// Invalidates `addr` if present, returning the removed line.
    pub fn invalidate(&mut self, addr: Address) -> Option<EvictedLine> {
        let lid = self.lookup(addr)?;
        let sets = self.geometry.sets();
        let slot = self.slot_mut(lid);
        let evicted = EvictedLine {
            addr: Address::from_line_number(slot.tag * sets + u64::from(lid.index())),
            data: slot.data,
            state: slot.state,
            line_id: lid,
        };
        *slot = Slot::default();
        Some(evicted)
    }

    /// Updates the coherence state of a present line (e.g. a Shared →
    /// Modified upgrade, which must also desynchronize CABLE's tables).
    ///
    /// Returns the previous state, or `None` if `addr` is absent.
    pub fn set_state(&mut self, addr: Address, state: CoherenceState) -> Option<CoherenceState> {
        let lid = self.lookup(addr)?;
        let slot = self.slot_mut(lid);
        let old = slot.state;
        slot.state = state;
        Some(old)
    }

    /// Overwrites the data of a present line and marks it Modified.
    ///
    /// Returns `false` if `addr` is absent.
    pub fn write(&mut self, addr: Address, data: LineData) -> bool {
        match self.lookup(addr) {
            Some(lid) => {
                self.clock += 1;
                let clock = self.clock;
                let slot = self.slot_mut(lid);
                slot.data = data;
                slot.state = CoherenceState::Modified;
                slot.last_use = clock;
                true
            }
            None => false,
        }
    }

    /// Iterates over all valid lines as `(LineId, Address, state)`.
    pub fn iter_valid(&self) -> impl Iterator<Item = (LineId, Address, CoherenceState)> + '_ {
        let ways = self.geometry.ways() as usize;
        let sets = self.geometry.sets();
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(pos, slot)| {
                if slot.state == CoherenceState::Invalid {
                    return None;
                }
                let lid = LineId::new((pos / ways) as u32, (pos % ways) as u8);
                let addr = Address::from_line_number(slot.tag * sets + u64::from(lid.index()));
                Some((lid, addr, slot.state))
            })
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state != CoherenceState::Invalid)
            .count()
    }

    /// `(hits, misses)` recorded by [`SetAssocCache::access`].
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clears hit/miss statistics (e.g. after cache warm-up).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

impl fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SetAssocCache({:?}, {} valid lines)",
            self.geometry,
            self.valid_lines()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets, 2 ways = 8 lines.
        SetAssocCache::new(CacheGeometry::new(4 * 2 * 64, 2))
    }

    fn addr_for(index: u64, tag: u64, sets: u64) -> Address {
        Address::from_line_number(tag * sets + index)
    }

    #[test]
    fn insert_then_lookup_hits() {
        let mut c = small_cache();
        let a = Address::new(0x40);
        c.insert(a, LineData::splat_word(1), CoherenceState::Shared);
        assert!(c.lookup(a).is_some());
        assert!(c.lookup(Address::new(0x80)).is_none());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        let sets = c.geometry().sets();
        let a = addr_for(0, 1, sets);
        let b = addr_for(0, 2, sets);
        let d = addr_for(0, 3, sets);
        c.insert(a, LineData::splat_word(1), CoherenceState::Shared);
        c.insert(b, LineData::splat_word(2), CoherenceState::Shared);
        // Touch `a` so `b` becomes the LRU victim.
        assert!(c.access(a).is_some());
        let outcome = c.insert(d, LineData::splat_word(3), CoherenceState::Shared);
        let evicted = outcome.evicted.expect("set was full");
        assert_eq!(evicted.addr, b);
        assert_eq!(evicted.data, LineData::splat_word(2));
        assert!(c.lookup(a).is_some());
        assert!(c.lookup(b).is_none());
    }

    #[test]
    fn victim_way_prefers_invalid_slots() {
        let mut c = small_cache();
        let sets = c.geometry().sets();
        let a = addr_for(1, 1, sets);
        assert_eq!(c.victim_way(a), 0);
        c.insert(a, LineData::zeroed(), CoherenceState::Shared);
        assert_eq!(c.victim_way(addr_for(1, 2, sets)), 1);
    }

    #[test]
    fn insert_at_way_places_exactly() {
        let mut c = small_cache();
        let sets = c.geometry().sets();
        let a = addr_for(2, 5, sets);
        let outcome = c.insert_at_way(a, LineData::splat_word(9), CoherenceState::Shared, Some(1));
        assert_eq!(outcome.line_id, LineId::new(2, 1));
        assert_eq!(
            c.read_by_id(LineId::new(2, 1)),
            Some(LineData::splat_word(9))
        );
        assert_eq!(c.read_by_id(LineId::new(2, 0)), None);
    }

    #[test]
    fn update_in_place_does_not_evict() {
        let mut c = small_cache();
        let a = Address::new(0x100);
        let first = c.insert(a, LineData::splat_word(1), CoherenceState::Shared);
        let second = c.insert(a, LineData::splat_word(2), CoherenceState::Modified);
        assert_eq!(first.line_id, second.line_id);
        assert!(second.evicted.is_none());
        assert_eq!(c.read_by_id(first.line_id), Some(LineData::splat_word(2)));
        assert_eq!(c.state_by_id(first.line_id), CoherenceState::Modified);
    }

    #[test]
    fn invalidate_removes_and_reports() {
        let mut c = small_cache();
        let a = Address::new(0x140);
        c.insert(a, LineData::splat_word(3), CoherenceState::Exclusive);
        let evicted = c.invalidate(a).expect("line was present");
        assert_eq!(evicted.addr, a.line_aligned());
        assert_eq!(evicted.state, CoherenceState::Exclusive);
        assert!(c.lookup(a).is_none());
        assert!(c.invalidate(a).is_none());
    }

    #[test]
    fn addr_by_id_reconstructs_address() {
        let mut c = small_cache();
        let sets = c.geometry().sets();
        let a = addr_for(3, 7, sets);
        let outcome = c.insert(a, LineData::zeroed(), CoherenceState::Shared);
        assert_eq!(c.addr_by_id(outcome.line_id), Some(a));
    }

    #[test]
    fn state_transitions() {
        let mut c = small_cache();
        let a = Address::new(0x200);
        c.insert(a, LineData::zeroed(), CoherenceState::Shared);
        assert_eq!(
            c.set_state(a, CoherenceState::Modified),
            Some(CoherenceState::Shared)
        );
        assert!(!CoherenceState::Modified.is_reference_safe());
        assert!(CoherenceState::Shared.is_reference_safe());
    }

    #[test]
    fn write_marks_modified() {
        let mut c = small_cache();
        let a = Address::new(0x240);
        assert!(!c.write(a, LineData::zeroed()));
        c.insert(a, LineData::zeroed(), CoherenceState::Shared);
        assert!(c.write(a, LineData::splat_word(8)));
        let lid = c.lookup(a).unwrap();
        assert_eq!(c.state_by_id(lid), CoherenceState::Modified);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = small_cache();
        let a = Address::new(0x280);
        assert!(c.access(a).is_none());
        c.insert(a, LineData::zeroed(), CoherenceState::Shared);
        assert!(c.access(a).is_some());
        assert_eq!(c.stats(), (1, 1));
        c.reset_stats();
        assert_eq!(c.stats(), (0, 0));
    }

    #[test]
    fn iter_valid_enumerates_everything() {
        let mut c = small_cache();
        let sets = c.geometry().sets();
        for tag in 0..2u64 {
            for index in 0..sets {
                c.insert(
                    addr_for(index, tag, sets),
                    LineData::zeroed(),
                    CoherenceState::Shared,
                );
            }
        }
        assert_eq!(c.iter_valid().count(), 8);
        assert_eq!(c.valid_lines(), 8);
    }

    /// Every field of two caches, compared by exhaustive destructuring.
    fn assert_same(a: &SetAssocCache, b: &SetAssocCache) {
        let SetAssocCache {
            geometry,
            slots,
            clock,
            hits,
            misses,
        } = a;
        assert!(*geometry == b.geometry);
        assert!(*slots == b.slots);
        assert_eq!((*clock, *hits, *misses), (b.clock, b.hits, b.misses));
    }

    fn filled(geometry: CacheGeometry, lines: u64) -> SetAssocCache {
        let mut c = SetAssocCache::new(geometry);
        for n in 0..lines {
            let a = Address::from_line_number(n * 7);
            c.access(a);
            c.insert(a, LineData::splat_word(n as u32), CoherenceState::Shared);
        }
        c
    }

    #[test]
    fn clone_from_across_geometries_equals_a_fresh_clone() {
        let small = filled(CacheGeometry::new(4 * 2 * 64, 2), 20);
        let large = filled(CacheGeometry::new(64 * 4 * 64, 4), 300);
        for (src, dst) in [(&small, &large), (&large, &small), (&large, &large)] {
            let mut restored = dst.clone();
            restored.clone_from(src);
            assert_same(&restored, &src.clone());
            assert_same(&restored, src);
        }
    }
}
