//! Study runners: trace replay through compressed links.

use cable_compress::EngineKind;
use cable_core::{BaselineKind, BatchAccess, LinkStats, Transfer};
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

    pub(crate) fn build_link(&self, scheme: Scheme) -> CompressedLink {
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

/// Accesses pushed through [`cable_core::Link::request_batch`] per call in
/// [`drive`]. Large enough to amortize per-call dispatch, small enough that
/// the staging buffers stay cache-resident.
const DRIVE_BATCH: usize = 64;

pub(crate) fn drive(link: &mut CompressedLink, gen: &mut WorkloadGen, accesses: u64) {
    let mut batch: Vec<BatchAccess> = Vec::with_capacity(DRIVE_BATCH);
    let mut xfers: Vec<Transfer> = Vec::with_capacity(DRIVE_BATCH);
    let mut left = accesses;
    while left > 0 {
        let n = left.min(DRIVE_BATCH as u64);
        batch.clear();
        for _ in 0..n {
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

/// Replays one benchmark through one scheme's link; returns measured
/// (post-warm-up) statistics.
#[must_use]
pub fn compression_study(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    cfg: &StudyConfig,
) -> LinkStats {
    let mut link = cfg.build_link(scheme);
    let mut gen = WorkloadGen::new(profile, 0);
    drive(&mut link, &mut gen, cfg.warmup_accesses);
    link.reset_stats();
    drive(&mut link, &mut gen, cfg.accesses);
    *link.stats()
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
    run_interleaved(&mut link, &mut gens, cfg.warmup_accesses);
    link.reset_stats();
    run_interleaved(&mut link, &mut gens, cfg.accesses);
    *link.stats()
}

/// Destructive multiprogram mix (Fig. 16): four different benchmarks
/// interleave on one shared link. Returns per-member measured stats in mix
/// order (members are distinguished by their disjoint address spaces).
#[must_use]
pub fn mix_study(mix: &MixSpec, scheme: Scheme, cfg: &StudyConfig) -> Vec<(String, LinkStats)> {
    let mut link = cfg.build_link_scaled(scheme, mix.members.len() as u64);
    let mut gens: Vec<WorkloadGen> = mix
        .members
        .iter()
        .enumerate()
        .map(|(i, name)| {
            WorkloadGen::new(cable_trace::by_name(name).expect("known member"), i as u64)
        })
        .collect();
    run_interleaved(&mut link, &mut gens, cfg.warmup_accesses);
    link.reset_stats();

    // Measure each member separately: snapshot the shared link stats
    // around each member's turn in the round-robin.
    let mut per_member: Vec<LinkStats> = vec![LinkStats::default(); gens.len()];
    let turns = cfg.accesses / gens.len() as u64;
    for _ in 0..turns {
        for (i, gen) in gens.iter_mut().enumerate() {
            let before = *link.stats();
            drive_one(&mut link, gen);
            per_member[i] = add_delta(per_member[i], link.stats(), &before);
        }
    }
    mix.members
        .iter()
        .zip(per_member)
        .map(|(name, stats)| ((*name).to_string(), stats))
        .collect()
}

fn run_interleaved(link: &mut CompressedLink, gens: &mut [WorkloadGen], total: u64) {
    let n = gens.len() as u64;
    for i in 0..total {
        let gen = &mut gens[(i % n) as usize];
        drive_one(link, gen);
    }
}

fn drive_one(link: &mut CompressedLink, gen: &mut WorkloadGen) {
    let access = gen.next_access();
    let memory = gen.content(access.addr);
    if access.is_write {
        link.request_exclusive(access.addr, memory);
        let data = gen.store_data(access.addr);
        link.remote_store(access.addr, data);
    } else {
        link.request(access.addr, memory);
    }
}

fn add_delta(mut acc: LinkStats, after: &LinkStats, before: &LinkStats) -> LinkStats {
    acc.fills += after.fills - before.fills;
    acc.remote_hits += after.remote_hits - before.remote_hits;
    acc.writebacks += after.writebacks - before.writebacks;
    acc.uncompressed_bits += after.uncompressed_bits - before.uncompressed_bits;
    acc.payload_bits += after.payload_bits - before.payload_bits;
    acc.wire_bits += after.wire_bits - before.wire_bits;
    acc.wire_bits_packed += after.wire_bits_packed - before.wire_bits_packed;
    acc.raw_transfers += after.raw_transfers - before.raw_transfers;
    acc.unseeded_transfers += after.unseeded_transfers - before.unseeded_transfers;
    acc.diff_transfers += after.diff_transfers - before.diff_transfers;
    acc.refs_sent += after.refs_sent - before.refs_sent;
    acc.data_array_reads += after.data_array_reads - before.data_array_reads;
    acc.compression_ops += after.compression_ops - before.compression_ops;
    acc.bit_toggles += after.bit_toggles - before.bit_toggles;
    acc.flits += after.flits - before.flits;
    acc
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
