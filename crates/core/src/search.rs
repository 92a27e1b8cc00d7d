//! The reference search pipeline (§III-C, Fig. 8).
//!
//! Given a requested line, the pipeline:
//!
//! 1. extracts all non-trivial signatures (up to 16);
//! 2. looks each up in the hash table, yielding up to `16 × depth` LineIDs;
//! 3. **pre-ranks** candidates by duplication count — "when references are
//!    very similar to the requested data, different signatures often map to
//!    the same LineIDs", so duplicated LineIDs "are prioritized as they are
//!    more likely to contain more similarities" — and keeps the top
//!    `data_access_count` (6 by default);
//! 4. reads those candidates from the data array (no tag check), dropping
//!    any that are not reference-safe (non-Shared) or cover no word;
//! 5. computes a 16-bit coverage bit vector (CBV) per candidate and greedily
//!    selects up to three references that maximize combined coverage,
//!    dropping references made redundant by later picks (the paper's
//!    `1100/0110/0011` example). On the request path each pick is
//!    translated through the Way-Map Table as it is made; a pick not
//!    provably resident in the remote cache is dropped and the pick is
//!    repeated, so only chosen references pay for a WMT lookup.

use crate::hash_table::SignatureTable;
use crate::signature::{SignatureBuf, SignatureExtractor};
use crate::wmt::WayMapTable;
use cable_cache::{LineId, SetAssocCache};
use cable_common::LineData;

/// A selected compression reference.
#[derive(Clone, Debug)]
pub struct Reference {
    /// Location in the searching cache (HomeLIDs on the request path,
    /// RemoteLIDs on the write-back path).
    pub local_lid: LineId,
    /// Pointer transmitted on the wire: the RemoteLID from the WMT on the
    /// request path, or the searching cache's own LineID on write-back
    /// (§III-G: "it simply sends its own LineIDs").
    pub wire_lid: LineId,
    /// Reference payload (identical in both caches for Shared lines).
    pub data: LineData,
    /// Coverage bit vector against the requested line.
    pub cbv: u16,
}

/// Instrumentation of one search (drives the energy model and Fig. 22).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Signatures extracted from the requested line.
    pub signatures: usize,
    /// LineIDs returned by the hash table (before pre-ranking).
    pub candidates: usize,
    /// Data-array reads performed (post-pre-rank candidates).
    pub data_reads: usize,
    /// References selected.
    pub selected: usize,
}

/// Minimum dedup-table size; keeps the load factor low even for tiny
/// searches so linear probes stay short.
const DEDUP_MIN_SLOTS: usize = 64;

#[derive(Clone, Copy, Default)]
struct DedupSlot {
    gen: u32,
    packed: u32,
    idx: u32,
}

/// Open-addressed `packed LineId -> counts index` map with generation
/// stamps: clearing between searches is a counter bump, not a memset.
#[derive(Clone, Debug, Default)]
struct DedupTable {
    slots: Vec<DedupSlot>,
    generation: u32,
}

impl std::fmt::Debug for DedupSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DedupSlot").finish_non_exhaustive()
    }
}

impl DedupTable {
    /// Starts a new search that will insert at most `max_entries` distinct
    /// keys. Sized to ≤50% load so probes terminate and stay short.
    fn begin(&mut self, max_entries: usize) {
        let wanted = (max_entries * 2).next_power_of_two().max(DEDUP_MIN_SLOTS);
        if self.slots.len() < wanted {
            self.slots.clear();
            self.slots.resize(wanted, DedupSlot::default());
            self.generation = 0;
        }
        if self.generation == u32::MAX {
            self.slots.fill(DedupSlot::default());
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Returns the stored index for `packed` if it was inserted this
    /// generation, otherwise records `idx` for it and returns `None`.
    fn get_or_insert(&mut self, packed: u32, idx: u32) -> Option<u32> {
        let mask = self.slots.len() - 1;
        // Fibonacci hashing spreads the low-entropy packed LineIds across
        // the power-of-two table.
        let mut i = (u64::from(packed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let s = self.slots[i];
            if s.gen != self.generation {
                self.slots[i] = DedupSlot {
                    gen: self.generation,
                    packed,
                    idx,
                };
                return None;
            }
            if s.packed == packed {
                return Some(s.idx);
            }
            i = (i + 1) & mask;
        }
    }
}

/// Reusable buffers for the search pipeline.
///
/// One instance per link endpoint turns every per-search allocation
/// (signature list, candidate counts, reference list, selection
/// bookkeeping) into a buffer reuse. `search_references_into` leaves the
/// chosen references in [`SearchScratch::selected`].
#[derive(Debug, Default)]
pub struct SearchScratch {
    sigs: SignatureBuf,
    /// (packed LineId, duplication count, first-seen order).
    counts: Vec<(u32, usize, usize)>,
    dedup: DedupTable,
    candidates: Vec<Reference>,
    selected: Vec<Reference>,
    sel_idx: Vec<usize>,
    keep: Vec<bool>,
    /// Gather buffer for the batched data-array read phase (one slot per
    /// pre-ranked candidate).
    datas: Vec<(LineId, Option<LineData>)>,
    /// Gather buffer for the hash-table bucket read phase (flat
    /// concatenation of every looked-up bucket).
    bucket_buf: Vec<u32>,
}

impl SearchScratch {
    /// Creates an empty scratch; buffers grow to steady-state sizes during
    /// the first few searches and are reused afterwards.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// References selected by the most recent `search_references_into`.
    #[must_use]
    pub fn selected(&self) -> &[Reference] {
        &self.selected
    }

    /// Empties the selection; used by callers whose compression policy
    /// skips the search entirely (so stale selections cannot leak into
    /// `selected()`).
    pub fn clear_selected(&mut self) {
        self.selected.clear();
    }
}

/// A copy that keeps each buffer's capacity, not only its length, so a
/// clone of a used scratch (a restored thread's link) searches without
/// growing its buffers again, on whichever host thread runs it.
impl Clone for SearchScratch {
    fn clone(&self) -> Self {
        SearchScratch {
            sigs: self.sigs,
            counts: clone_with_capacity(&self.counts),
            dedup: self.dedup.clone(),
            candidates: clone_with_capacity(&self.candidates),
            selected: clone_with_capacity(&self.selected),
            sel_idx: clone_with_capacity(&self.sel_idx),
            keep: clone_with_capacity(&self.keep),
            datas: clone_with_capacity(&self.datas),
            bucket_buf: clone_with_capacity(&self.bucket_buf),
        }
    }
}

/// A copy of `v` with `v`'s capacity.
fn clone_with_capacity<T: Clone>(v: &Vec<T>) -> Vec<T> {
    let mut copy = Vec::with_capacity(v.capacity());
    copy.extend_from_slice(v);
    copy
}

/// Runs the search pipeline against `cache` (the searching side's own
/// cache). `wmt` translates to wire pointers on the request path; pass
/// `None` on the write-back path, where the searcher's own LineIDs go on
/// the wire.
///
/// Allocation-free variant: results land in `scratch.selected()`.
#[allow(clippy::too_many_arguments)]
pub fn search_references_into(
    line: &LineData,
    extractor: &SignatureExtractor,
    table: &SignatureTable,
    cache: &SetAssocCache,
    wmt: Option<&WayMapTable>,
    data_access_count: usize,
    max_refs: usize,
    scratch: &mut SearchScratch,
) -> SearchStats {
    let mut stats = SearchStats::default();
    let SearchScratch {
        sigs,
        counts,
        dedup,
        candidates,
        selected,
        sel_idx,
        keep,
        datas,
        bucket_buf,
    } = scratch;

    // 1-2. Signatures -> candidate LineIDs, deduplicated by LineId. Each
    // signature's bucket is an independent random read of a multi-megabyte
    // table, so a tight gather loop copies all buckets into a flat scratch
    // first (the misses overlap in the memory pipeline) and the dedup pass
    // runs out of the warm buffer. Candidate order is the bucket
    // concatenation order either way.
    extractor.search_signatures_into(line, sigs);
    stats.signatures = sigs.len();
    counts.clear();
    dedup.begin(sigs.len() * table.depth());
    bucket_buf.clear();
    for &sig in sigs.as_slice() {
        bucket_buf.extend_from_slice(table.lookup(sig));
    }
    for &packed in bucket_buf.iter() {
        stats.candidates += 1;
        match dedup.get_or_insert(packed, counts.len() as u32) {
            Some(idx) => counts[idx as usize].1 += 1,
            None => counts.push((packed, 1, counts.len())),
        }
    }

    // 3. Pre-rank by duplication count (stable on first-seen order).
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.cmp(&b.2)));
    counts.truncate(data_access_count);

    // 4. Data-array reads + CBV construction. The reads land on random
    // lines of a multi-megabyte array (usually cold), so the gather phase
    // issues them back-to-back with no intervening control flow: the
    // misses overlap in the memory pipeline instead of serializing behind
    // each candidate's filter branches. Outcome and accounting are
    // identical to reading inside the filter loop — every pre-ranked
    // candidate is read exactly once either way.
    let geometry = *cache.geometry();
    candidates.clear();
    datas.clear();
    datas.extend(counts.iter().map(|&(packed, _, _)| {
        let lid = LineId::unpack(u64::from(packed), &geometry);
        (lid, cache.read_by_id(lid))
    }));
    for &(lid, ref data) in datas.iter() {
        stats.data_reads += 1;
        let Some(data) = *data else {
            continue; // stale table entry
        };
        if !cache.state_by_id(lid).is_reference_safe() {
            continue; // dirty/exclusive lines are never references (§II-C)
        }
        let cbv = line.coverage_vector(&data);
        if cbv == 0 {
            continue; // pure hash collision (Fig. 7)
        }
        candidates.push(Reference {
            local_lid: lid,
            wire_lid: lid,
            data,
            cbv,
        });
    }

    // 5. Greedy max-coverage selection with redundancy pruning; the WMT
    // translates each pick (a miss means the line is not guaranteed
    // present remotely, §III-D).
    let translate = |lid| wmt.map_or(Some(lid), |wmt| wmt.remote_lid_of(lid));
    select_indices(candidates, max_refs, translate, sel_idx, keep);
    selected.clear();
    selected.extend(sel_idx.iter().map(|&i| candidates[i].clone()));
    stats.selected = selected.len();
    stats
}

/// Core of the greedy CBV set-cover, operating on candidate indices so the
/// hot path never clones losing candidates. Leaves the kept indices (in
/// selection order) in `sel_idx`; `keep` is selection-local scratch.
///
/// Each pick's wire pointer comes from `translate` when it is made. A pick
/// that does not translate is dropped for good (its CBV is zeroed, so it
/// never wins again) and the pick is repeated. That selects exactly what
/// translating every candidate first and selecting among the survivors
/// would: dropping a candidate does not reorder the others, so each
/// repeated pick is the first maximum among the survivors, and pruning
/// sees the same selected set.
fn select_indices(
    candidates: &mut [Reference],
    max_refs: usize,
    mut translate: impl FnMut(LineId) -> Option<LineId>,
    sel_idx: &mut Vec<usize>,
    keep: &mut Vec<bool>,
) {
    sel_idx.clear();
    let mut covered: u16 = 0;
    while sel_idx.len() < max_refs {
        // First maximum wins ties: candidates arrive in pre-rank order.
        let mut best: Option<usize> = None;
        let mut best_gain = 0;
        for (i, c) in candidates.iter().enumerate() {
            if sel_idx.contains(&i) {
                continue;
            }
            let gain = (c.cbv & !covered).count_ones();
            if gain > best_gain {
                best_gain = gain;
                best = Some(i);
            }
        }
        let Some(i) = best else { break };
        let c = &mut candidates[i];
        match translate(c.local_lid) {
            Some(wire_lid) => {
                c.wire_lid = wire_lid;
                covered |= c.cbv;
                sel_idx.push(i);
            }
            None => c.cbv = 0,
        }
    }
    // Redundancy pruning: remove references whose coverage is subsumed.
    keep.clear();
    keep.resize(sel_idx.len(), true);
    for i in 0..sel_idx.len() {
        let others: u16 = sel_idx
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i && keep[j])
            .fold(0, |acc, (_, &s)| acc | candidates[s].cbv);
        if candidates[sel_idx[i]].cbv & !others == 0 {
            keep[i] = false;
        }
    }
    let mut j = 0;
    sel_idx.retain(|_| {
        let k = keep[j];
        j += 1;
        k
    });
}

/// Greedy CBV set-cover: repeatedly take the candidate adding the most new
/// coverage, then drop any selected reference whose bits are fully covered
/// by the others (the paper drops `0110` once `1100` and `0011` are in).
#[cfg(test)]
fn select_by_coverage(candidates: &[Reference], max_refs: usize) -> Vec<Reference> {
    let mut candidates = candidates.to_vec();
    let mut sel_idx = Vec::new();
    let mut keep = Vec::new();
    select_indices(&mut candidates, max_refs, Some, &mut sel_idx, &mut keep);
    sel_idx.into_iter().map(|i| candidates[i].clone()).collect()
}

/// The eager order the search used before lazy translation: translate
/// every candidate, drop the misses, then select among the survivors.
/// Returns `(candidate index, wire LineID)` per selected reference; the
/// oracle the lazy [`select_indices`] is checked against.
#[cfg(test)]
fn select_eager(
    candidates: &[Reference],
    max_refs: usize,
    translate: impl Fn(LineId) -> Option<LineId>,
) -> Vec<(usize, LineId)> {
    let mut origin = Vec::new();
    let mut wire = Vec::new();
    let mut survivors = Vec::new();
    for (i, c) in candidates.iter().enumerate() {
        if let Some(wire_lid) = translate(c.local_lid) {
            origin.push(i);
            wire.push(wire_lid);
            survivors.push(c.clone());
        }
    }
    let mut sel_idx = Vec::new();
    let mut keep = Vec::new();
    select_indices(&mut survivors, max_refs, Some, &mut sel_idx, &mut keep);
    sel_idx.into_iter().map(|i| (origin[i], wire[i])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_cache::{CacheGeometry, CoherenceState};
    use cable_common::Address;

    /// One search through a fresh scratch.
    fn search_references(
        line: &LineData,
        extractor: &SignatureExtractor,
        table: &SignatureTable,
        cache: &SetAssocCache,
        wmt: Option<&WayMapTable>,
        data_access_count: usize,
        max_refs: usize,
    ) -> (Vec<Reference>, SearchStats) {
        let mut scratch = SearchScratch::new();
        let stats = search_references_into(
            line,
            extractor,
            table,
            cache,
            wmt,
            data_access_count,
            max_refs,
            &mut scratch,
        );
        (scratch.selected, stats)
    }

    fn make_ref(cbv: u16) -> Reference {
        Reference {
            local_lid: LineId::new(0, 0),
            wire_lid: LineId::new(0, 0),
            data: LineData::zeroed(),
            cbv,
        }
    }

    #[test]
    fn paper_cbv_example() {
        // CBVs 1100 and 0110 combine to 1110 (coverage 3); adding 0011
        // should drop 0110 and keep {1100, 0011} with coverage 4 (§III-C).
        let candidates = vec![make_ref(0b1100), make_ref(0b0110), make_ref(0b0011)];
        let selected = select_by_coverage(&candidates, 3);
        let cbvs: Vec<u16> = selected.iter().map(|r| r.cbv).collect();
        assert_eq!(cbvs, vec![0b1100, 0b0011]);
    }

    #[test]
    fn coverage_capped_at_max_refs() {
        let candidates = vec![
            make_ref(0b0001),
            make_ref(0b0010),
            make_ref(0b0100),
            make_ref(0b1000),
        ];
        let selected = select_by_coverage(&candidates, 3);
        assert_eq!(selected.len(), 3);
    }

    #[test]
    fn zero_contribution_candidates_skipped() {
        let candidates = vec![make_ref(0b1111), make_ref(0b0011)];
        let selected = select_by_coverage(&candidates, 3);
        assert_eq!(selected.len(), 1);
        assert_eq!(selected[0].cbv, 0b1111);
    }

    fn setup() -> (SignatureExtractor, SignatureTable, SetAssocCache) {
        let geometry = CacheGeometry::new(64 << 10, 4);
        (
            SignatureExtractor::new(1),
            SignatureTable::new(geometry.lines(), 2),
            SetAssocCache::new(geometry),
        )
    }

    fn install(
        cache: &mut SetAssocCache,
        table: &mut SignatureTable,
        ex: &SignatureExtractor,
        addr: u64,
        line: LineData,
        state: CoherenceState,
    ) -> LineId {
        let outcome = cache.insert(Address::new(addr), line, state);
        let packed = outcome.line_id.pack(cache.geometry()) as u32;
        for sig in ex.insert_signatures(&line) {
            table.insert(sig, packed);
        }
        outcome.line_id
    }

    #[test]
    fn end_to_end_finds_similar_line() {
        let (ex, mut table, mut cache) = setup();
        let reference =
            LineData::from_words(core::array::from_fn(|i| 0x0400_0000 + (i as u32) * 0x1111));
        let lid = install(
            &mut cache,
            &mut table,
            &ex,
            0x1000,
            reference,
            CoherenceState::Shared,
        );

        let mut target = reference;
        target.set_word(3, 0x0999_9999);
        let (refs, stats) = search_references(&target, &ex, &table, &cache, None, 6, 3);
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].local_lid, lid);
        assert_eq!(refs[0].cbv.count_ones(), 15);
        assert!(stats.signatures >= 14);
        assert!(stats.data_reads >= 1);
    }

    #[test]
    fn a_clone_keeps_the_buffer_capacities_of_a_used_scratch() {
        // A search over sixteen similar lines grows the buffers, a search
        // that finds nothing shortens them; the clone must keep the room
        // the first search made.
        let (ex, mut table, mut cache) = setup();
        let base = LineData::from_words(core::array::from_fn(|i| 0x0400_0000 + i as u32));
        for i in 0..16u32 {
            let mut line = base;
            line.set_word(i as usize, 0x0777_0000 + i);
            let addr = 0x1000 + u64::from(i) * 64;
            install(
                &mut cache,
                &mut table,
                &ex,
                addr,
                line,
                CoherenceState::Shared,
            );
        }
        let mut scratch = SearchScratch::new();
        for line in [base, LineData::splat_word(0x0123_4567)] {
            search_references_into(&line, &ex, &table, &cache, None, 6, 3, &mut scratch);
        }
        let capacities = |s: &SearchScratch| {
            [
                s.counts.capacity(),
                s.dedup.slots.capacity(),
                s.candidates.capacity(),
                s.selected.capacity(),
                s.sel_idx.capacity(),
                s.keep.capacity(),
                s.datas.capacity(),
                s.bucket_buf.capacity(),
            ]
        };
        let (used, copy) = (capacities(&scratch), capacities(&scratch.clone()));
        assert!(used.iter().all(|&c| c > 0), "{used:?}");
        assert!(
            scratch.candidates.len() < used[2],
            "the second search found less"
        );
        assert!(
            copy.iter().zip(used).all(|(&c, u)| c >= u),
            "{copy:?} < {used:?}"
        );
    }

    #[test]
    fn dirty_lines_never_selected() {
        let (ex, mut table, mut cache) = setup();
        let line = LineData::from_words(core::array::from_fn(|i| 0x0500_0000 + i as u32));
        install(
            &mut cache,
            &mut table,
            &ex,
            0x2000,
            line,
            CoherenceState::Modified,
        );
        let (refs, _) = search_references(&line, &ex, &table, &cache, None, 6, 3);
        assert!(refs.is_empty());
    }

    #[test]
    fn wmt_filters_lines_absent_remotely() {
        let (ex, mut table, mut cache) = setup();
        let home_geom = *cache.geometry();
        let remote_geom = CacheGeometry::new(16 << 10, 4);
        let mut wmt = WayMapTable::new(home_geom, remote_geom);

        let line = LineData::from_words(core::array::from_fn(|i| 0x0600_0000 + i as u32));
        let lid = install(
            &mut cache,
            &mut table,
            &ex,
            0x3000,
            line,
            CoherenceState::Shared,
        );

        // Absent from the WMT: no references.
        let (refs, _) = search_references(&line, &ex, &table, &cache, Some(&wmt), 6, 3);
        assert!(refs.is_empty());

        // Map it and search again.
        let rlid = LineId::new(lid.index() % remote_geom.sets() as u32, 0);
        wmt.update(rlid, lid);
        let (refs, _) = search_references(&line, &ex, &table, &cache, Some(&wmt), 6, 3);
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].wire_lid, rlid);
        assert_eq!(refs[0].local_lid, lid);
    }

    #[test]
    fn pre_rank_prefers_duplicated_lineids() {
        let (ex, mut table, mut cache) = setup();
        // `near` shares many words with the target (many signatures -> same
        // LineID); `far` shares exactly one word.
        let target =
            LineData::from_words(core::array::from_fn(|i| 0x0700_0000 + (i as u32) * 0x101));
        let mut near = target;
        near.set_word(0, 0x0123_4567);
        let mut far = LineData::from_words(core::array::from_fn(|i| 0x0800_0000 + i as u32));
        far.set_word(5, target.word(5));

        // Insert `far` first so only pre-ranking (not order) can explain the
        // outcome; index all search signatures to simulate a long-lived
        // table.
        for (addr, line) in [(0x9000u64, far), (0x4000, near)] {
            let outcome = cache.insert(Address::new(addr), line, CoherenceState::Shared);
            let packed = outcome.line_id.pack(cache.geometry()) as u32;
            for sig in ex.search_signatures(&line) {
                table.insert(sig, packed);
            }
        }
        // Only one data access allowed: pre-rank must pick `near`.
        let (refs, _) = search_references(&target, &ex, &table, &cache, None, 1, 3);
        assert_eq!(refs.len(), 1);
        assert_eq!(refs[0].data, near);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn cover(refs: &[Reference]) -> u16 {
            refs.iter().fold(0, |acc, r| acc | r.cbv)
        }

        proptest! {
            /// Greedy selection never does worse than the single best
            /// candidate, never exceeds max_refs, and never keeps a
            /// reference whose coverage is subsumed by the others.
            #[test]
            fn prop_selection_quality(
                cbvs in proptest::collection::vec(1u16.., 1..12),
                max_refs in 1usize..=3,
            ) {
                let candidates: Vec<Reference> = cbvs.iter().map(|&c| make_ref(c)).collect();
                let selected = select_by_coverage(&candidates, max_refs);
                prop_assert!(selected.len() <= max_refs);
                let combined = cover(&selected);
                let best_single = cbvs.iter().map(|c| c.count_ones()).max().unwrap_or(0);
                prop_assert!(combined.count_ones() >= best_single.min(
                    // With max_refs >= 1 the best single candidate is
                    // always achievable.
                    16
                ));
                for (i, r) in selected.iter().enumerate() {
                    let others: u16 = selected
                        .iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .fold(0, |acc, (_, o)| acc | o.cbv);
                    prop_assert!(r.cbv & !others != 0, "kept a subsumed reference");
                }
            }

            /// Translating each pick as it is made selects the same
            /// candidates, with the same wire LineIDs, as translating every
            /// candidate first and selecting among the survivors. Bit `i`
            /// of `misses` makes candidate `i` a WMT miss.
            #[test]
            fn prop_lazy_translation_matches_eager(
                cbvs in proptest::collection::vec(1u16.., 1..16),
                misses in any::<u16>(),
                max_refs in 1usize..=3,
            ) {
                let candidates: Vec<Reference> = cbvs
                    .iter()
                    .enumerate()
                    .map(|(i, &cbv)| Reference {
                        local_lid: LineId::new(i as u32, 0),
                        ..make_ref(cbv)
                    })
                    .collect();
                let translate = |lid: LineId| {
                    ((misses >> lid.index()) & 1 == 0).then(|| LineId::new(lid.index() + 100, 7))
                };
                let want = select_eager(&candidates, max_refs, translate);

                let mut lazy = candidates.clone();
                let mut sel_idx = Vec::new();
                let mut keep = Vec::new();
                let mut lookups = 0;
                select_indices(
                    &mut lazy,
                    max_refs,
                    |lid| {
                        lookups += 1;
                        translate(lid)
                    },
                    &mut sel_idx,
                    &mut keep,
                );
                let got: Vec<(usize, LineId)> =
                    sel_idx.iter().map(|&i| (i, lazy[i].wire_lid)).collect();
                prop_assert_eq!(got, want);
                prop_assert!(lookups <= candidates.len());
            }
        }
    }

    #[test]
    fn stale_table_entries_ignored() {
        let (ex, mut table, mut cache) = setup();
        let line = LineData::from_words(core::array::from_fn(|i| 0x0a00_0000 + i as u32));
        let lid = install(
            &mut cache,
            &mut table,
            &ex,
            0x5000,
            line,
            CoherenceState::Shared,
        );
        // Invalidate the cache line but leave the table entry dangling.
        cache.invalidate(Address::new(0x5000));
        let (refs, stats) = search_references(&line, &ex, &table, &cache, None, 6, 3);
        assert!(refs.is_empty());
        assert!(stats.data_reads >= 1, "the stale read still costs energy");
        let _ = lid;
    }
}
