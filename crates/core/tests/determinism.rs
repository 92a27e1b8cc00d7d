//! Determinism regression: a search through a reused scratch must select
//! exactly what a search through a fresh one selects.
//!
//! The scratch-based entry point (`search_references_into`) reuses buffers
//! across calls — signature buffer, open-addressed dedup table with
//! generation stamps, candidate and selection vectors. Any state leaking
//! from one search into the next would silently change reference
//! selections and every downstream figure. This test replays a seeded
//! workload through a fresh scratch per query and through a single
//! scratch reused for every query, and demands bit-identical outcomes.

use cable_cache::{CacheGeometry, CoherenceState, SetAssocCache};
use cable_common::{Address, LineData, SplitMix64};
use cable_core::hash_table::SignatureTable;
use cable_core::search::{search_references_into, Reference, SearchScratch, SearchStats};
use cable_core::signature::SignatureExtractor;

/// The search as a one-shot call: a fresh scratch per query, results
/// returned by value.
fn search_references(
    line: &LineData,
    extractor: &SignatureExtractor,
    table: &SignatureTable,
    cache: &SetAssocCache,
    data_access_count: usize,
    max_refs: usize,
) -> (Vec<Reference>, SearchStats) {
    let mut scratch = SearchScratch::new();
    let stats = search_references_into(
        line,
        extractor,
        table,
        cache,
        None,
        data_access_count,
        max_refs,
        &mut scratch,
    );
    (scratch.selected().to_vec(), stats)
}

/// Builds a populated cache + signature table from a seeded stream of
/// near-duplicate lines, mirroring how a CABLE endpoint's dictionary looks
/// mid-run (duplicated LineIds, stale entries, dirty lines).
fn populate(seed: u64) -> (SignatureExtractor, SignatureTable, SetAssocCache) {
    let geometry = CacheGeometry::new(64 << 10, 4);
    let extractor = SignatureExtractor::new(0xcab1e);
    let mut table = SignatureTable::new(geometry.lines(), 2);
    let mut cache = SetAssocCache::new(geometry);
    let mut rng = SplitMix64::new(seed);

    let bases: Vec<LineData> = (0..6)
        .map(|b| {
            LineData::from_words(core::array::from_fn(|i| {
                0x0400_0000 ^ (b << 10) ^ ((i as u32) * 0x0111)
            }))
        })
        .collect();

    for n in 0..600u64 {
        let mut line = bases[rng.next_bounded(6) as usize];
        for _ in 0..rng.next_bounded(4) {
            line.set_word(rng.next_bounded(16) as usize, rng.next_u32());
        }
        // A mix of Shared (reference-safe) and Modified (never selectable).
        let state = if rng.next_bounded(5) == 0 {
            CoherenceState::Modified
        } else {
            CoherenceState::Shared
        };
        let outcome = cache.insert(Address::from_line_number(n * 7), line, state);
        let packed = outcome.line_id.pack(cache.geometry()) as u32;
        for sig in extractor.insert_signatures_n(&line, 2) {
            table.insert(sig, packed);
        }
        // Occasionally invalidate to leave stale table entries behind.
        if rng.next_bounded(13) == 0 {
            cache.invalidate(Address::from_line_number(n * 7));
        }
    }
    (extractor, table, cache)
}

fn query_lines(seed: u64, count: usize) -> Vec<LineData> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let base = rng.next_bounded(6) as u32;
            let mut line = LineData::from_words(core::array::from_fn(|i| {
                0x0400_0000 ^ (base << 10) ^ ((i as u32) * 0x0111)
            }));
            for _ in 0..rng.next_bounded(5) {
                line.set_word(rng.next_bounded(16) as usize, rng.next_u32());
            }
            line
        })
        .collect()
}

#[test]
fn scratch_reuse_matches_vec_api() {
    let (extractor, table, cache) = populate(42);
    let queries = query_lines(4242, 400);

    // One scratch reused across all queries: generation stamps and buffer
    // clears must fully isolate consecutive searches.
    let mut scratch = SearchScratch::new();
    let mut selected_any = 0usize;

    for (max_refs, data_access_count) in [(3usize, 6usize), (1, 6), (3, 2), (2, 16)] {
        for line in &queries {
            let (vec_refs, vec_stats) = search_references(
                line,
                &extractor,
                &table,
                &cache,
                data_access_count,
                max_refs,
            );
            let into_stats = search_references_into(
                line,
                &extractor,
                &table,
                &cache,
                None,
                data_access_count,
                max_refs,
                &mut scratch,
            );

            assert_eq!(vec_stats, into_stats, "stats diverged");
            let into_refs = scratch.selected();
            assert_eq!(vec_refs.len(), into_refs.len(), "selection count diverged");
            for (a, b) in vec_refs.iter().zip(into_refs) {
                assert_eq!(a.local_lid, b.local_lid);
                assert_eq!(a.wire_lid, b.wire_lid);
                assert_eq!(a.data, b.data);
                assert_eq!(a.cbv, b.cbv);
            }
            selected_any += into_refs.len();
        }
    }
    // The workload must actually exercise the pipeline, not vacuously pass.
    assert!(
        selected_any > 200,
        "only {selected_any} references selected"
    );
}
