//! Study runners: trace replay through compressed links.

use cable_compress::EngineKind;
use cable_core::{BaselineKind, BatchAccess, Link, LinkStats, Transfer};
use cable_sim::{CompressedLink, Scheme};
use cable_trace::{MixSpec, WorkloadGen, WorkloadProfile};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Parameters of a compression-ratio study.
#[derive(Clone, Copy, Debug)]
pub struct StudyConfig {
    /// Warm-up accesses (caches and dictionaries fill; not measured).
    pub warmup_accesses: u64,
    /// Measured accesses.
    pub accesses: u64,
    /// Home (L4) capacity in bytes.
    pub home_bytes: u64,
    /// Home associativity.
    pub home_ways: u32,
    /// Remote (LLC) capacity in bytes.
    pub remote_bytes: u64,
    /// Remote associativity.
    pub remote_ways: u32,
    /// Link width in bits.
    pub link_width_bits: u32,
}

impl StudyConfig {
    /// §VI-A single-program configuration: 1 MB LLC share, 4 MB L4 share.
    #[must_use]
    pub fn paper_defaults() -> Self {
        StudyConfig {
            warmup_accesses: 60_000,
            accesses: 120_000,
            home_bytes: 4 << 20,
            home_ways: 16,
            remote_bytes: 1 << 20,
            remote_ways: 8,
            link_width_bits: 16,
        }
    }

    /// Quick variant for smoke tests.
    #[must_use]
    pub fn quick() -> Self {
        StudyConfig {
            warmup_accesses: 5_000,
            accesses: 10_000,
            ..Self::paper_defaults()
        }
    }

    /// Builds `scheme`'s link at this configuration's cache geometry and
    /// link width.
    #[must_use]
    pub fn build_link(&self, scheme: Scheme) -> CompressedLink {
        self.build_link_scaled(scheme, 1)
    }

    /// Builds a link with caches scaled for `programs` co-scheduled
    /// programs (each keeps its per-program 1 MB LLC / 4 MB L4 share, as in
    /// the paper's multiprogram methodology).
    fn build_link_scaled(&self, scheme: Scheme, programs: u64) -> CompressedLink {
        CompressedLink::build(
            scheme,
            cable_cache::CacheGeometry::new(self.home_bytes * programs, self.home_ways),
            cable_cache::CacheGeometry::new(self.remote_bytes * programs, self.remote_ways),
            self.link_width_bits,
        )
    }
}

/// The scheme line-up of Figs. 11–12, left to right.
#[must_use]
pub fn default_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Baseline(BaselineKind::Bdi),
        Scheme::Baseline(BaselineKind::Cpack),
        Scheme::Baseline(BaselineKind::Cpack128),
        Scheme::Baseline(BaselineKind::Lbe256),
        Scheme::Baseline(BaselineKind::Gzip),
        Scheme::Cable(EngineKind::Lbe),
    ]
}

/// Accesses pushed through [`Link::request_batch`] per call in [`drive`].
/// Large enough to amortize per-access dispatch, small enough that the
/// staging buffers stay cache-resident.
const DRIVE_BATCH: usize = 64;

/// Replays `accesses` accesses through `link`, taking them round-robin
/// from `gens` starting at `gens[0]` on every call: a read is a
/// [`Link::request`], a write a [`Link::request_exclusive`] followed by a
/// [`Link::remote_store`] of the generator's store data.
pub fn drive(link: &mut dyn Link, gens: &mut [WorkloadGen], accesses: u64) {
    let mut batch: Vec<BatchAccess> = Vec::with_capacity(DRIVE_BATCH);
    let mut xfers: Vec<Transfer> = Vec::with_capacity(DRIVE_BATCH);
    let mut turn = (0..gens.len()).cycle();
    let mut left = accesses;
    while left > 0 {
        let n = left.min(DRIVE_BATCH as u64);
        batch.clear();
        for _ in 0..n {
            let gen = &mut gens[turn.next().expect("at least one generator")];
            let access = gen.next_access();
            let memory = gen.content(access.addr);
            batch.push(if access.is_write {
                BatchAccess::write(access.addr, memory, gen.store_data(access.addr))
            } else {
                BatchAccess::read(access.addr, memory)
            });
        }
        xfers.clear();
        link.request_batch(&batch, &mut xfers);
        left -= n;
    }
}

/// One study's measurement: [`drive`]s `cfg.warmup_accesses`, resets the
/// link's statistics, drives `cfg.accesses` and returns what they cost.
pub fn measure(link: &mut dyn Link, gens: &mut [WorkloadGen], cfg: &StudyConfig) -> LinkStats {
    drive(link, gens, cfg.warmup_accesses);
    link.reset_stats();
    drive(link, gens, cfg.accesses);
    *link.stats()
}

/// Replays one benchmark through one scheme's link; returns measured
/// (post-warm-up) statistics.
#[must_use]
pub fn compression_study(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    cfg: &StudyConfig,
) -> LinkStats {
    let mut link = cfg.build_link(scheme);
    measure(&mut *link, &mut [WorkloadGen::new(profile, 0)], cfg)
}

/// SPECrate-style cooperative multiprogram (Fig. 15): `copies` instances
/// of the same benchmark interleave round-robin on one shared link.
#[must_use]
pub fn multi4_study(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    copies: usize,
    cfg: &StudyConfig,
) -> LinkStats {
    let mut link = cfg.build_link_scaled(scheme, copies as u64);
    let mut gens: Vec<WorkloadGen> = (0..copies)
        .map(|i| WorkloadGen::new(profile, i as u64))
        .collect();
    measure(&mut *link, &mut gens, cfg)
}

/// The generators of a Fig. 16 mix, one per member in mix order, each in
/// its own address space.
fn mix_gens(mix: &MixSpec) -> Vec<WorkloadGen> {
    mix.members
        .iter()
        .enumerate()
        .map(|(i, name)| {
            WorkloadGen::new(cable_trace::by_name(name).expect("known member"), i as u64)
        })
        .collect()
}

/// Destructive multiprogram mix (Fig. 16): four different benchmarks
/// interleave on one shared link. Returns per-member measured stats in mix
/// order (members are distinguished by their disjoint address spaces).
#[must_use]
pub fn mix_study(mix: &MixSpec, scheme: Scheme, cfg: &StudyConfig) -> Vec<(String, LinkStats)> {
    let mut link = cfg.build_link_scaled(scheme, mix.members.len() as u64);
    let mut gens = mix_gens(mix);
    drive(&mut *link, &mut gens, cfg.warmup_accesses);
    link.reset_stats();

    // Measure each member separately: snapshot the shared link stats
    // around each member's turn in the round-robin.
    let mut per_member: Vec<LinkStats> = vec![LinkStats::default(); gens.len()];
    let turns = cfg.accesses / gens.len() as u64;
    for _ in 0..turns {
        for (i, gen) in gens.iter_mut().enumerate() {
            let before = *link.stats();
            drive(&mut *link, std::slice::from_mut(gen), 1);
            per_member[i].accumulate(&link.stats().since(&before));
        }
    }
    mix.members
        .iter()
        .zip(per_member)
        .map(|(name, stats)| ((*name).to_string(), stats))
        .collect()
}

/// Worker count for [`parallel_map`]: the machine's available parallelism.
/// A figure sweep can enqueue dozens of multi-second studies; a bounded
/// pool keeps memory proportional to the core count instead of the item
/// count (each in-flight study owns multi-megabyte caches) and avoids
/// oversubscribing the scheduler with one OS thread per item.
fn worker_count(items: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(items)
}

/// Runs `f` over the items on a bounded worker pool and returns results in
/// input order. Workers claim items through a shared atomic cursor, so the
/// pool needs no queues or channels; results are deterministic (identical
/// to a sequential map) regardless of which worker runs which item.
///
/// # Panics
///
/// Propagates a panic from `f`.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }

    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("unpoisoned")
                    .take()
                    .expect("claimed once");
                let r = f(item);
                *results[i].lock().expect("unpoisoned") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("unpoisoned")
                .expect("worker completed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_trace::by_name;

    #[test]
    fn cable_beats_cpack_on_template_heavy_workload() {
        let cfg = StudyConfig::quick();
        let p = by_name("dealII").unwrap();
        let cable = compression_study(p, Scheme::Cable(EngineKind::Lbe), &cfg);
        let cpack = compression_study(p, Scheme::Baseline(BaselineKind::Cpack), &cfg);
        assert!(
            cable.compression_ratio() > cpack.compression_ratio(),
            "CABLE {} vs CPACK {}",
            cable.compression_ratio(),
            cpack.compression_ratio()
        );
    }

    #[test]
    fn zero_dominant_workload_saturates() {
        let cfg = StudyConfig::quick();
        let p = by_name("libquantum").unwrap();
        let cable = compression_study(p, Scheme::Cable(EngineKind::Lbe), &cfg);
        assert!(
            cable.compression_ratio() > 10.0,
            "{}",
            cable.compression_ratio()
        );
    }

    #[test]
    fn multi4_study_runs_all_instances() {
        let cfg = StudyConfig::quick();
        let p = by_name("gcc").unwrap();
        let stats = multi4_study(p, Scheme::Cable(EngineKind::Lbe), 4, &cfg);
        assert!(stats.fills > 0);
    }

    #[test]
    fn mix_study_reports_each_member() {
        let cfg = StudyConfig::quick();
        let mix = cable_trace::mix_table()[0];
        let rows = mix_study(&mix, Scheme::Baseline(BaselineKind::Gzip), &cfg);
        assert_eq!(rows.len(), 4);
        for (name, stats) in rows {
            assert!(stats.fills > 0, "{name} produced no fills");
        }
    }

    #[test]
    fn mix_members_sum_to_the_shared_link_measurement() {
        // Every field of the per-member reduction, `home_hits` included,
        // must add up to what the shared link counts over the same
        // accesses. Small caches make the remote evict, so fills hit the
        // home and lines are written back.
        let cfg = StudyConfig {
            home_bytes: 256 << 10,
            remote_bytes: 32 << 10,
            ..StudyConfig::quick()
        };
        let mix = cable_trace::mix_table()[0];
        let scheme = Scheme::Cable(EngineKind::Lbe);
        let members = mix.members.len() as u64;
        let mut sum = LinkStats::default();
        for (_, stats) in mix_study(&mix, scheme, &cfg) {
            sum.accumulate(&stats);
        }
        let whole = StudyConfig {
            accesses: cfg.accesses / members * members,
            ..cfg
        };
        let mut link = cfg.build_link_scaled(scheme, members);
        let shared = measure(&mut *link, &mut mix_gens(&mix), &whole);
        assert!(shared.home_hits > 0 && shared.writebacks > 0, "{shared:?}");
        assert_eq!(sum, shared);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(vec![3u64, 1, 2], |x| x * 10);
        assert_eq!(out, vec![30, 10, 20]);
    }

    #[test]
    fn parallel_map_handles_more_items_than_workers() {
        // Far more items than any realistic core count: every item must be
        // claimed exactly once and land in its input slot.
        let items: Vec<u64> = (0..257).collect();
        let out = parallel_map(items.clone(), |x| x + 1);
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_and_single() {
        assert_eq!(parallel_map(Vec::<u64>::new(), |x| x), Vec::<u64>::new());
        assert_eq!(parallel_map(vec![7u64], |x| x * 2), vec![14]);
    }
}
