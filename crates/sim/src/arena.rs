//! Warm-state reuse for the throughput sweeps.
//!
//! A figure sweep evaluates the same `(workload, scheme)` pair at many
//! thread counts and instruction budgets, and the warmed microarchitectural
//! state — caches, compression dictionaries, generator position — depends
//! on *none* of the swept parameters (a thread count only scales the shared
//! wire and DRAM bandwidth). The seed harness nevertheless rebuilt and
//! re-warmed the eight [`ThreadSim`]s from scratch at every sweep point,
//! and at the quick instruction budgets warm-up is the large majority of
//! all simulated accesses.
//!
//! [`SimArena`] warms a group once per `(workload, scheme, warm budget,
//! config)` key and keeps the warmed group as a snapshot. At every sweep
//! point [`crate::throughput::run_group_arena`] restores the snapshot in
//! place into one working group the arena owns (`ThreadSim::clone_from`
//! copies every cache, dictionary and RNG into the working group's
//! existing storage), so later calls reuse memory that is already mapped
//! instead of cloning ~60 MB of modelled cache into fresh allocations.
//! Only [`SimArena::warmed_group`] hands out clones. A restore is
//! bit-identical to re-running warm-up, so sweep results do not change —
//! this is covered by the arena tests in `throughput.rs`'s test module
//! and by the byte-identical figure-JSON acceptance check.
//!
//! On a miss the snapshot is built by `build_warmed_group`, which builds
//! and warms the eight threads on up to one host thread per available
//! core. The snapshot does not depend on the core count: each thread
//! warms alone on its own unconstrained wire and DRAM, reading only its
//! own generator, caches and link, with its fault seed derived from its
//! instance. The restore's copy stays on the calling thread. The measured
//! run on the working group then makes its threads' functional halves on
//! every core too (`throughput::run_group_core`); restores copy the
//! snapshot's state but keep the working links' scratch buffers, which
//! carry nothing from one transfer to the next.

use crate::config::SystemConfig;
use crate::thread::{Scheme, ThreadSim};
use crate::throughput::build_warmed_group;
use cable_trace::WorkloadProfile;
use std::mem::discriminant;

/// How many warmed groups an arena retains. A group of eight threads owns
/// tens of megabytes of modelled cache, so the arena is a small LRU rather
/// than an unbounded map; sweeps iterate schemes in the outer loop, so a
/// handful of slots already gives full reuse.
const MAX_ENTRIES: usize = 4;

struct ArenaEntry {
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    warm_accesses: u64,
    config: SystemConfig,
    group: Vec<ThreadSim>,
}

/// A cache of warmed [`ThreadSim`] groups keyed on
/// `(workload, scheme, warm budget, system config)`.
///
/// # Examples
///
/// ```
/// use cable_sim::{SimArena, Scheme, SystemConfig};
/// use cable_sim::throughput::run_group_arena;
///
/// let cfg = SystemConfig::paper_defaults();
/// let p = cable_trace::by_name("gcc").unwrap();
/// let mut arena = SimArena::new();
/// // The second call reuses the snapshot instead of re-warming.
/// let a = run_group_arena(&mut arena, p, Scheme::Uncompressed, 256, 2_000, 1_000, &cfg);
/// let b = run_group_arena(&mut arena, p, Scheme::Uncompressed, 512, 2_000, 1_000, &cfg);
/// assert_eq!(a.group_instructions, b.group_instructions);
/// ```
#[derive(Default)]
pub struct SimArena {
    entries: Vec<ArenaEntry>,
    /// The group [`SimArena::restore`] copies snapshots into.
    work: Vec<ThreadSim>,
    hits: u64,
    misses: u64,
}

impl SimArena {
    /// Creates an empty arena.
    #[must_use]
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Returns a freshly-restored warmed group for the key, constructing
    /// and warming it on first use. The returned group is the caller's to
    /// mutate; the snapshot inside the arena is untouched.
    pub fn warmed_group(
        &mut self,
        profile: &'static WorkloadProfile,
        scheme: Scheme,
        warm_accesses: u64,
        config: &SystemConfig,
    ) -> Vec<ThreadSim> {
        let pos = self.snapshot(profile, scheme, warm_accesses, config);
        self.entries[pos].group.clone()
    }

    /// Restores the warmed group for the key into the arena's working
    /// group, in place, and returns it; the snapshot is untouched. The
    /// working group is overwritten by the next restore.
    pub(crate) fn restore(
        &mut self,
        profile: &'static WorkloadProfile,
        scheme: Scheme,
        warm_accesses: u64,
        config: &SystemConfig,
    ) -> &mut [ThreadSim] {
        let pos = self.snapshot(profile, scheme, warm_accesses, config);
        let snap = &self.entries[pos].group;
        // A link of the other family cannot be restored in place; dropping
        // the old group first lets its storage serve the fresh clones
        // instead of adding one link to peak memory.
        let same_family = |w: &ThreadSim| discriminant(w.link()) == discriminant(snap[0].link());
        if !self.work.first().is_none_or(same_family) {
            self.work.clear();
        }
        self.work.clone_from(snap);
        &mut self.work
    }

    /// Position of the key's snapshot, warming a new one on a miss; the
    /// entry becomes most-recently-used.
    fn snapshot(
        &mut self,
        profile: &'static WorkloadProfile,
        scheme: Scheme,
        warm_accesses: u64,
        config: &SystemConfig,
    ) -> usize {
        let key = |e: &ArenaEntry| {
            std::ptr::eq(e.profile, profile)
                && e.scheme == scheme
                && e.warm_accesses == warm_accesses
                && e.config == *config
        };
        if let Some(pos) = self.entries.iter().position(key) {
            self.hits += 1;
            // Move to the back: most-recently-used.
            let entry = self.entries.remove(pos);
            self.entries.push(entry);
        } else {
            self.misses += 1;
            let group = build_warmed_group(profile, scheme, warm_accesses, config);
            if self.entries.len() >= MAX_ENTRIES {
                self.entries.remove(0); // least-recently-used
            }
            self.entries.push(ArenaEntry {
                profile,
                scheme,
                warm_accesses,
                config: *config,
                group,
            });
        }
        self.entries.len() - 1
    }

    /// `(snapshot restores, warm-up runs)` served so far.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_compress::EngineKind;
    use cable_trace::by_name;

    #[test]
    fn snapshot_restore_matches_fresh_warm() {
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("gcc").unwrap();
        let mut arena = SimArena::new();
        let restored = arena.warmed_group(p, Scheme::Cable(EngineKind::Lbe), 1_000, &cfg);
        let fresh = build_warmed_group(p, Scheme::Cable(EngineKind::Lbe), 1_000, &cfg);
        // Drive both groups identically and compare observable state.
        for (a, b) in restored.iter().zip(&fresh) {
            assert_eq!(a.now_ps(), b.now_ps());
            assert_eq!(a.retired(), b.retired());
            assert_eq!(a.link().stats(), b.link().stats());
        }
    }

    #[test]
    fn second_lookup_is_a_hit_and_is_independent() {
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("povray").unwrap();
        let mut arena = SimArena::new();
        let mut first = arena.warmed_group(p, Scheme::Uncompressed, 500, &cfg);
        // Mutate the handed-out copy; the snapshot must be unaffected.
        let mut wire = crate::SharedLink::new(1e12, 0);
        let mut dram = crate::DramModel::from_config(&cfg);
        first[0].step(&mut wire, &mut dram);
        let second = arena.warmed_group(p, Scheme::Uncompressed, 500, &cfg);
        assert_eq!(second[0].retired(), 0, "snapshot stays pristine");
        assert_eq!(arena.stats(), (1, 1));
    }

    #[test]
    fn distinct_keys_miss() {
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("gcc").unwrap();
        let mut arena = SimArena::new();
        arena.warmed_group(p, Scheme::Uncompressed, 200, &cfg);
        arena.warmed_group(p, Scheme::Uncompressed, 300, &cfg); // warm differs
        arena.warmed_group(p, Scheme::Cable(EngineKind::Lbe), 200, &cfg); // scheme differs
        assert_eq!(arena.stats(), (0, 3));
    }

    #[test]
    fn lru_evicts_oldest_entry() {
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("gcc").unwrap();
        let mut arena = SimArena::new();
        for warm in 0..=MAX_ENTRIES as u64 {
            arena.warmed_group(p, Scheme::Uncompressed, warm, &cfg);
        }
        // warm=0 was evicted; warm=MAX_ENTRIES still resident.
        arena.warmed_group(p, Scheme::Uncompressed, MAX_ENTRIES as u64, &cfg);
        assert_eq!(arena.stats(), (1, MAX_ENTRIES as u64 + 1));
        arena.warmed_group(p, Scheme::Uncompressed, 0, &cfg);
        assert_eq!(arena.stats(), (1, MAX_ENTRIES as u64 + 2));
    }
}
