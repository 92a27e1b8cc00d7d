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

/// The tag-array entry of one slot: everything a set walk (lookup,
/// victim choice) reads, kept apart from the line data so a 16-way walk
/// reads 16 × 24 bytes instead of 16 slots of tag and line together.
/// `Copy`, so restoring a snapshot (`Vec::clone_from`) is one memcpy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Tag {
    tag: u64,
    last_use: u64,
    state: CoherenceState,
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
/// Like the hardware it models, the cache keeps a tag array and a data
/// array: set walks read only tags, and the data array is touched only by
/// data reads, fills, writes and evictions.
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
    /// Tag array, `index * ways + way`.
    tags: Vec<Tag>,
    /// Data array, same layout. The data of an invalid slot is stale and
    /// never read. Elements keep `LineData`'s natural alignment on
    /// purpose: 64-byte-aligned elements doubled perfbench's peak RSS
    /// through glibc's aligned-allocation path.
    data: Vec<LineData>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Clone for SetAssocCache {
    fn clone(&self) -> Self {
        SetAssocCache {
            geometry: self.geometry,
            tags: self.tags.clone(),
            data: self.data.clone(),
            clock: self.clock,
            hits: self.hits,
            misses: self.misses,
        }
    }

    /// Copies `source` into this cache's existing tag and data arrays, so
    /// restoring a snapshot of the same geometry reuses memory that is
    /// already mapped instead of allocating fresh arrays.
    fn clone_from(&mut self, source: &Self) {
        let SetAssocCache {
            geometry,
            tags,
            data,
            clock,
            hits,
            misses,
        } = self;
        *geometry = source.geometry;
        tags.clone_from(&source.tags);
        data.clone_from(&source.data);
        *clock = source.clock;
        *hits = source.hits;
        *misses = source.misses;
    }
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    #[must_use]
    pub fn new(geometry: CacheGeometry) -> Self {
        let lines = geometry.lines() as usize;
        SetAssocCache {
            geometry,
            tags: vec![Tag::default(); lines],
            data: vec![LineData::zeroed(); lines],
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

    fn slot_pos(&self, lid: LineId) -> usize {
        lid.index() as usize * self.geometry.ways() as usize + lid.way() as usize
    }

    /// The tag entries of `index`'s set, way 0 first.
    fn set_tags(&self, index: u32) -> &[Tag] {
        let ways = self.geometry.ways() as usize;
        let base = index as usize * ways;
        &self.tags[base..base + ways]
    }

    fn tag(&self, lid: LineId) -> &Tag {
        &self.tags[self.slot_pos(lid)]
    }

    fn tag_mut(&mut self, lid: LineId) -> &mut Tag {
        let pos = self.slot_pos(lid);
        &mut self.tags[pos]
    }

    /// The line address held by a slot with tag `tag` in set `index`.
    fn addr_of(&self, tag: u64, index: u32) -> Address {
        Address::from_line_number((tag << self.geometry.index_bits()) | u64::from(index))
    }

    /// Touches every tag of `addr`'s set so the set's (random, usually
    /// cold) cache lines are fetched with overlapping misses before a
    /// subsequent lookup/insert walk serializes on them. Pure cache
    /// warming: LRU order, statistics, and contents are untouched.
    pub fn warm(&self, addr: Address) {
        let touched = self
            .set_tags(self.geometry.index_of(addr) as u32)
            .iter()
            .fold(0, |acc, t| acc ^ t.tag);
        std::hint::black_box(touched);
    }

    /// Looks up `addr` without touching LRU state or hit/miss counters.
    #[must_use]
    pub fn lookup(&self, addr: Address) -> Option<LineId> {
        let index = self.geometry.index_of(addr) as u32;
        let tag = self.geometry.tag_of(addr);
        self.set_tags(index)
            .iter()
            .position(|t| t.state != CoherenceState::Invalid && t.tag == tag)
            .map(|way| LineId::new(index, way as u8))
    }

    /// Looks up `addr`, updating LRU order and hit/miss statistics.
    pub fn access(&mut self, addr: Address) -> Option<LineId> {
        self.clock += 1;
        match self.lookup(addr) {
            Some(lid) => {
                self.hits += 1;
                let clock = self.clock;
                self.tag_mut(lid).last_use = clock;
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
        // Prefer an invalid way; otherwise least recently used.
        let mut best_way = 0u8;
        let mut best_use = u64::MAX;
        for (way, t) in self
            .set_tags(self.geometry.index_of(addr) as u32)
            .iter()
            .enumerate()
        {
            if t.state == CoherenceState::Invalid {
                return way as u8;
            }
            if t.last_use < best_use {
                best_use = t.last_use;
                best_way = way as u8;
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
        let (lid, evicted) = if let Some(lid) = self.lookup(addr) {
            (lid, None)
        } else {
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
            let old = *self.tag(lid);
            let evicted = (old.state != CoherenceState::Invalid).then(|| EvictedLine {
                addr: self.addr_of(old.tag, index),
                data: self.data[self.slot_pos(lid)],
                state: old.state,
                line_id: lid,
            });
            (lid, evicted)
        };
        let pos = self.slot_pos(lid);
        self.tags[pos] = Tag {
            tag,
            last_use: self.clock,
            state,
        };
        self.data[pos] = data;
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
        let pos = self.slot_pos(lid);
        (self.tags[pos].state != CoherenceState::Invalid).then(|| self.data[pos])
    }

    /// Returns the coherence state of a slot.
    #[must_use]
    pub fn state_by_id(&self, lid: LineId) -> CoherenceState {
        self.tag(lid).state
    }

    /// Reconstructs the line-aligned address stored in a slot, if valid.
    #[must_use]
    pub fn addr_by_id(&self, lid: LineId) -> Option<Address> {
        let t = self.tag(lid);
        (t.state != CoherenceState::Invalid).then(|| self.addr_of(t.tag, lid.index()))
    }

    /// Invalidates `addr` if present, returning the removed line.
    pub fn invalidate(&mut self, addr: Address) -> Option<EvictedLine> {
        let lid = self.lookup(addr)?;
        let pos = self.slot_pos(lid);
        let evicted = EvictedLine {
            addr: addr.line_aligned(),
            data: self.data[pos],
            state: self.tags[pos].state,
            line_id: lid,
        };
        self.tags[pos] = Tag::default();
        Some(evicted)
    }

    /// Updates the coherence state of a present line (e.g. a Shared →
    /// Modified upgrade, which must also desynchronize CABLE's tables).
    ///
    /// Returns the previous state, or `None` if `addr` is absent.
    pub fn set_state(&mut self, addr: Address, state: CoherenceState) -> Option<CoherenceState> {
        let lid = self.lookup(addr)?;
        self.set_state_by_id(lid, state)
    }

    /// [`Self::set_state`] on the slot a lookup or access already found,
    /// without walking the tag set again.
    ///
    /// Returns the previous state, or `None` (changing nothing) if the
    /// slot is invalid.
    pub fn set_state_by_id(
        &mut self,
        lid: LineId,
        state: CoherenceState,
    ) -> Option<CoherenceState> {
        let tag = self.tag_mut(lid);
        (tag.state != CoherenceState::Invalid).then(|| std::mem::replace(&mut tag.state, state))
    }

    /// Overwrites the data of a present line and marks it Modified (the
    /// same update as an [`Self::insert`] of `addr` in that state).
    ///
    /// Returns `false` if `addr` is absent.
    pub fn write(&mut self, addr: Address, data: LineData) -> bool {
        self.lookup(addr)
            .is_some_and(|lid| self.write_by_id(lid, data))
    }

    /// [`Self::write`] on the slot a lookup or access already found,
    /// without walking the tag set again.
    ///
    /// Returns `false` (changing nothing) if the slot is invalid.
    pub fn write_by_id(&mut self, lid: LineId, data: LineData) -> bool {
        let pos = self.slot_pos(lid);
        if self.tags[pos].state == CoherenceState::Invalid {
            return false;
        }
        self.clock += 1;
        self.tags[pos].state = CoherenceState::Modified;
        self.tags[pos].last_use = self.clock;
        self.data[pos] = data;
        true
    }

    /// Iterates over all valid lines as `(LineId, Address, state)`.
    pub fn iter_valid(&self) -> impl Iterator<Item = (LineId, Address, CoherenceState)> + '_ {
        self.tags
            .chunks_exact(self.geometry.ways() as usize)
            .zip(0u32..)
            .flat_map(move |(set, index)| {
                set.iter()
                    .enumerate()
                    .filter(|(_, t)| t.state != CoherenceState::Invalid)
                    .map(move |(way, t)| {
                        (
                            LineId::new(index, way as u8),
                            self.addr_of(t.tag, index),
                            t.state,
                        )
                    })
            })
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn valid_lines(&self) -> usize {
        self.tags
            .iter()
            .filter(|t| t.state != CoherenceState::Invalid)
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
            tags,
            data,
            clock,
            hits,
            misses,
        } = a;
        assert!(*geometry == b.geometry);
        assert!(*tags == b.tags);
        assert!(*data == b.data);
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

    /// The array-of-slots cache this one replaced: tag, state, LRU stamp
    /// and data in one slot, every walk over whole slots. It is the oracle
    /// the tag/data split is checked against.
    mod model {
        use super::*;

        #[derive(Clone, Copy, Default)]
        struct Slot {
            tag: u64,
            state: CoherenceState,
            data: LineData,
            last_use: u64,
        }

        pub struct SlotCache {
            geometry: CacheGeometry,
            slots: Vec<Slot>,
            clock: u64,
            hits: u64,
            misses: u64,
        }

        impl SlotCache {
            pub fn new(geometry: CacheGeometry) -> Self {
                SlotCache {
                    geometry,
                    slots: vec![Slot::default(); geometry.lines() as usize],
                    clock: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            fn pos(&self, lid: LineId) -> usize {
                lid.index() as usize * self.geometry.ways() as usize + lid.way() as usize
            }

            fn addr(&self, tag: u64, index: u32) -> Address {
                Address::from_line_number(tag * self.geometry.sets() + u64::from(index))
            }

            pub fn lookup(&self, addr: Address) -> Option<LineId> {
                let index = (addr.line_number() % self.geometry.sets()) as u32;
                let tag = addr.line_number() / self.geometry.sets();
                (0..self.geometry.ways() as u8).find_map(|way| {
                    let slot = &self.slots[self.pos(LineId::new(index, way))];
                    (slot.state != CoherenceState::Invalid && slot.tag == tag)
                        .then(|| LineId::new(index, way))
                })
            }

            pub fn access(&mut self, addr: Address) -> Option<LineId> {
                self.clock += 1;
                let lid = self.lookup(addr);
                match lid {
                    Some(lid) => {
                        self.hits += 1;
                        let pos = self.pos(lid);
                        self.slots[pos].last_use = self.clock;
                    }
                    None => self.misses += 1,
                }
                lid
            }

            pub fn victim_way(&self, addr: Address) -> u8 {
                let index = (addr.line_number() % self.geometry.sets()) as u32;
                let mut best_way = 0u8;
                let mut best_use = u64::MAX;
                for way in 0..self.geometry.ways() as u8 {
                    let slot = &self.slots[self.pos(LineId::new(index, way))];
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

            pub fn insert_at_way(
                &mut self,
                addr: Address,
                data: LineData,
                state: CoherenceState,
                way: Option<u8>,
            ) -> InsertOutcome {
                self.clock += 1;
                let index = (addr.line_number() % self.geometry.sets()) as u32;
                let tag = addr.line_number() / self.geometry.sets();
                if let Some(lid) = self.lookup(addr) {
                    let pos = self.pos(lid);
                    let slot = &mut self.slots[pos];
                    slot.data = data;
                    slot.state = state;
                    slot.last_use = self.clock;
                    return InsertOutcome {
                        line_id: lid,
                        evicted: None,
                    };
                }
                let way = way.unwrap_or_else(|| self.victim_way(addr));
                let lid = LineId::new(index, way);
                let pos = self.pos(lid);
                let old = self.slots[pos];
                let evicted = (old.state != CoherenceState::Invalid).then(|| EvictedLine {
                    addr: self.addr(old.tag, index),
                    data: old.data,
                    state: old.state,
                    line_id: lid,
                });
                self.slots[pos] = Slot {
                    tag,
                    state,
                    data,
                    last_use: self.clock,
                };
                InsertOutcome {
                    line_id: lid,
                    evicted,
                }
            }

            pub fn read_by_id(&self, lid: LineId) -> Option<LineData> {
                let slot = &self.slots[self.pos(lid)];
                (slot.state != CoherenceState::Invalid).then_some(slot.data)
            }

            pub fn state_by_id(&self, lid: LineId) -> CoherenceState {
                self.slots[self.pos(lid)].state
            }

            pub fn addr_by_id(&self, lid: LineId) -> Option<Address> {
                let slot = &self.slots[self.pos(lid)];
                (slot.state != CoherenceState::Invalid).then(|| self.addr(slot.tag, lid.index()))
            }

            pub fn invalidate(&mut self, addr: Address) -> Option<EvictedLine> {
                let lid = self.lookup(addr)?;
                let pos = self.pos(lid);
                let slot = self.slots[pos];
                self.slots[pos] = Slot::default();
                Some(EvictedLine {
                    addr: self.addr(slot.tag, lid.index()),
                    data: slot.data,
                    state: slot.state,
                    line_id: lid,
                })
            }

            pub fn set_state(
                &mut self,
                addr: Address,
                state: CoherenceState,
            ) -> Option<CoherenceState> {
                let lid = self.lookup(addr)?;
                let pos = self.pos(lid);
                Some(std::mem::replace(&mut self.slots[pos].state, state))
            }

            pub fn set_state_by_id(
                &mut self,
                lid: LineId,
                state: CoherenceState,
            ) -> Option<CoherenceState> {
                let pos = self.pos(lid);
                let slot = &mut self.slots[pos];
                (slot.state != CoherenceState::Invalid)
                    .then(|| std::mem::replace(&mut slot.state, state))
            }

            pub fn write(&mut self, addr: Address, data: LineData) -> bool {
                let Some(lid) = self.lookup(addr) else {
                    return false;
                };
                self.clock += 1;
                let pos = self.pos(lid);
                let slot = &mut self.slots[pos];
                slot.data = data;
                slot.state = CoherenceState::Modified;
                slot.last_use = self.clock;
                true
            }

            pub fn write_by_id(&mut self, lid: LineId, data: LineData) -> bool {
                let pos = self.pos(lid);
                if self.slots[pos].state == CoherenceState::Invalid {
                    return false;
                }
                self.clock += 1;
                let slot = &mut self.slots[pos];
                slot.data = data;
                slot.state = CoherenceState::Modified;
                slot.last_use = self.clock;
                true
            }

            pub fn iter_valid(&self) -> Vec<(LineId, Address, CoherenceState)> {
                let ways = self.geometry.ways() as usize;
                let mut out = Vec::new();
                for (pos, slot) in self.slots.iter().enumerate() {
                    if slot.state != CoherenceState::Invalid {
                        let lid = LineId::new((pos / ways) as u32, (pos % ways) as u8);
                        out.push((lid, self.addr(slot.tag, lid.index()), slot.state));
                    }
                }
                out
            }

            pub fn stats(&self) -> (u64, u64) {
                (self.hits, self.misses)
            }
        }
    }

    mod model_check {
        use super::model::SlotCache;
        use super::*;
        use proptest::prelude::*;

        const STATES: [CoherenceState; 4] = [
            CoherenceState::Invalid,
            CoherenceState::Shared,
            CoherenceState::Exclusive,
            CoherenceState::Modified,
        ];

        /// Every observable of the two caches, over every slot and every
        /// address of a universe three times the capacity.
        fn assert_agree(c: &SetAssocCache, m: &SlotCache, universe: u64) {
            let g = *c.geometry();
            for n in 0..universe {
                let a = Address::from_line_number(n);
                assert_eq!(c.lookup(a), m.lookup(a), "lookup line {n}");
                assert_eq!(c.victim_way(a), m.victim_way(a), "victim way line {n}");
            }
            for index in 0..g.sets() as u32 {
                for way in 0..g.ways() as u8 {
                    let lid = LineId::new(index, way);
                    assert_eq!(c.read_by_id(lid), m.read_by_id(lid), "{lid:?} data");
                    assert_eq!(c.state_by_id(lid), m.state_by_id(lid), "{lid:?} state");
                    assert_eq!(c.addr_by_id(lid), m.addr_by_id(lid), "{lid:?} addr");
                }
            }
            assert_eq!(c.iter_valid().collect::<Vec<_>>(), m.iter_valid());
            assert_eq!(c.valid_lines(), m.iter_valid().len());
            assert_eq!(c.stats(), m.stats());
        }

        /// Drives both caches with one random op sequence: `(op, line,
        /// word, extra)`, where `extra` picks a state or a way.
        fn run(geometry: CacheGeometry, ops: &[(u8, u16, u32, u8)]) {
            let universe = geometry.lines() * 3;
            let mut cache = SetAssocCache::new(geometry);
            let mut model = SlotCache::new(geometry);
            for &(op, line, word, extra) in ops {
                let a = Address::from_line_number(u64::from(line) % universe);
                let data = LineData::splat_word(word);
                let state = STATES[1 + usize::from(extra) % 3];
                let lid = LineId::new(
                    (u64::from(line) % geometry.sets()) as u32,
                    (u32::from(extra) % geometry.ways()) as u8,
                );
                match op % 8 {
                    0 => assert_eq!(
                        cache.insert(a, data, state),
                        model.insert_at_way(a, data, state, None)
                    ),
                    1 => {
                        let way = Some((u32::from(extra) % geometry.ways()) as u8);
                        assert_eq!(
                            cache.insert_at_way(a, data, state, way),
                            model.insert_at_way(a, data, state, way)
                        );
                    }
                    2 => assert_eq!(cache.access(a), model.access(a)),
                    3 => assert_eq!(cache.write(a, data), model.write(a, data)),
                    4 => assert_eq!(
                        cache.set_state(a, STATES[usize::from(extra) % 4]),
                        model.set_state(a, STATES[usize::from(extra) % 4])
                    ),
                    5 => assert_eq!(cache.invalidate(a), model.invalidate(a)),
                    6 => {
                        let state = STATES[usize::from(extra / 16) % 4];
                        assert_eq!(
                            cache.set_state_by_id(lid, state),
                            model.set_state_by_id(lid, state)
                        );
                    }
                    _ => assert_eq!(cache.write_by_id(lid, data), model.write_by_id(lid, data)),
                }
                assert_agree(&cache, &model, universe);
            }
        }

        fn ops() -> impl Strategy<Value = Vec<(u8, u16, u32, u8)>> {
            proptest::collection::vec((any::<u8>(), any::<u16>(), 0u32..8, any::<u8>()), 1..160)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn prop_twelve_ways_four_sets(ops in ops()) {
                run(CacheGeometry::new(12 * 4 * 64, 12), &ops);
            }

            #[test]
            fn prop_two_ways_eight_sets(ops in ops()) {
                run(CacheGeometry::new(2 * 8 * 64, 2), &ops);
            }

            #[test]
            fn prop_three_ways_one_set(ops in ops()) {
                run(CacheGeometry::new(3 * 64, 3), &ops);
            }

            #[test]
            fn prop_direct_mapped(ops in ops()) {
                run(CacheGeometry::new(16 * 64, 1), &ops);
            }
        }
    }
}
