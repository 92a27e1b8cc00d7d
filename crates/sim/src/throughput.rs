//! Throughput studies (Fig. 14).
//!
//! §VI-A methodology: "to account for statistical multiplexing of bandwidth
//! that a purely static bandwidth partitioning model does not capture, we
//! split the threads into groups of eight and allow them to share bandwidth
//! competitively within a group. The evaluated memory system is
//! quad-channel (76.8GB/s total)."
//!
//! We simulate one representative group of eight threads sharing
//! `total / (threads / 8)` of the link (and the proportional DRAM share),
//! then scale: system throughput = group throughput × group count.
//!
//! The group loop is event-driven: a [`Scheduler`] min-heap picks the
//! earliest thread in O(log N) and a [`DoneTracker`] makes the completion
//! check O(1), replacing the seed's two O(N) scans per step. The seed
//! linear-scan loop survives as the test-only `run_group_warmed_linear`,
//! the reference implementation this module's equivalence tests compare
//! against. [`run_group_arena`] additionally reuses warmed groups across
//! sweep points via a [`SimArena`].

use crate::arena::SimArena;
use crate::config::SystemConfig;
use crate::resources::{DramModel, SharedLink};
use crate::sched::{DoneTracker, Scheduler};
use crate::thread::{Scheme, ThreadSim};
use cable_telemetry::{Event, Telemetry};
use cable_trace::WorkloadProfile;

/// Threads that share bandwidth competitively (§VI-A).
pub const GROUP_SIZE: usize = 8;

/// Quad-channel link bandwidth in bytes per second (4 × 19.2 GB/s).
pub const TOTAL_LINK_BYTES_PER_SEC: f64 = 4.0 * 19.2e9;

/// Result of one group simulation.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputResult {
    /// Total threads the system is modelled at.
    pub threads: usize,
    /// Instructions retired by the simulated group.
    pub group_instructions: u64,
    /// Simulated time (the slowest thread's completion).
    pub elapsed_ps: u64,
}

impl ThroughputResult {
    /// Group instructions per second.
    #[must_use]
    pub fn group_ips(&self) -> f64 {
        self.group_instructions as f64 / (self.elapsed_ps as f64 * 1e-12)
    }

    /// System throughput: group IPS × number of groups.
    #[must_use]
    pub fn system_ips(&self) -> f64 {
        self.group_ips() * (self.threads / GROUP_SIZE) as f64
    }
}

/// Builds the group-share wire and DRAM for a `threads`-thread system.
///
/// # Panics
///
/// Panics if `threads` is not a positive multiple of [`GROUP_SIZE`].
fn group_resources(threads: usize, config: &SystemConfig) -> (SharedLink, DramModel) {
    assert!(
        threads >= GROUP_SIZE && threads.is_multiple_of(GROUP_SIZE),
        "thread count must be a positive multiple of {GROUP_SIZE}"
    );
    let groups = (threads / GROUP_SIZE) as f64;
    let wire = SharedLink::new(TOTAL_LINK_BYTES_PER_SEC / groups, config.link_setup_ps);
    // DRAM behind the buffers: "4 MCs per chip/buffer" across 4 channels
    // (Table IV) gives DRAM 204.8 GB/s aggregate — 2.7x the link, so the
    // off-chip link is the system bottleneck, as in the paper.
    let mut dram_cfg = *config;
    dram_cfg.dram_bus_bytes_per_sec = 16.0 * config.dram_bus_bytes_per_sec / groups;
    let dram = DramModel::from_config(&dram_cfg);
    (wire, dram)
}

fn build_warmed_group(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    warm_accesses: u64,
    config: &SystemConfig,
) -> Vec<ThreadSim> {
    (0..GROUP_SIZE)
        .map(|i| {
            let mut t = ThreadSim::new(profile, i as u64, scheme, *config);
            t.warm(warm_accesses);
            t
        })
        .collect()
}

fn summarize(threads: usize, group: &[ThreadSim]) -> ThroughputResult {
    let group_instructions: u64 = group.iter().map(ThreadSim::retired).sum();
    let elapsed_ps = group
        .iter()
        .map(ThreadSim::now_ps)
        .max()
        .expect("non-empty");
    ThroughputResult {
        threads,
        group_instructions,
        elapsed_ps,
    }
}

/// Event-driven group loop: advance the earliest thread until every thread
/// reaches its target ("kept running until all have finished ... to
/// sustain loads" — finished threads keep running, so every pop is pushed
/// back; only the done-count decides termination).
pub(crate) fn run_group_core(
    group: &mut [ThreadSim],
    wire: &mut SharedLink,
    dram: &mut DramModel,
    instructions_per_thread: u64,
) {
    let mut sched = Scheduler::with_capacity(group.len());
    let mut done = DoneTracker::new(group.len());
    for (i, t) in group.iter().enumerate() {
        if t.retired() >= instructions_per_thread {
            done.mark_done();
        }
        sched.push(t.now_ps(), i);
    }
    while !done.all_done() {
        let (_, idx) = sched.pop().expect("undone threads remain scheduled");
        let t = &mut group[idx];
        if t.telemetry().is_enabled() {
            // Stamped at pop time: the heap yields non-decreasing wake times.
            t.telemetry()
                .record_at(t.now_ps(), Event::SchedWake { actor: idx as u32 });
        }
        let before = t.retired();
        t.step(wire, dram);
        if before < instructions_per_thread && t.retired() >= instructions_per_thread {
            done.mark_done();
        }
        sched.push(t.now_ps(), idx);
    }
}

/// Simulates one group of eight `profile` threads under `scheme` in a
/// `threads`-thread system, each retiring at least
/// `instructions_per_thread` ("each program is run for at least \[N\]
/// instructions but is kept running until all have finished", §VI-A).
///
/// # Panics
///
/// Panics if `threads` is not a positive multiple of [`GROUP_SIZE`].
#[must_use]
pub fn run_group(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    threads: usize,
    instructions_per_thread: u64,
    config: &SystemConfig,
) -> ThroughputResult {
    run_group_warmed(
        profile,
        scheme,
        threads,
        20_000,
        instructions_per_thread,
        config,
    )
}

/// [`run_group`] with an explicit per-thread warm-up access count (caches
/// and dictionaries fill without affecting measured time).
#[must_use]
pub fn run_group_warmed(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    threads: usize,
    warm_accesses: u64,
    instructions_per_thread: u64,
    config: &SystemConfig,
) -> ThroughputResult {
    let (mut wire, mut dram) = group_resources(threads, config);
    let mut group = build_warmed_group(profile, scheme, warm_accesses, config);
    run_group_core(&mut group, &mut wire, &mut dram, instructions_per_thread);
    summarize(threads, &group)
}

/// [`run_group_warmed`] drawing the warmed group from `arena` so the
/// warm-up cost is paid once per `(workload, scheme, warm, config)` key
/// instead of at every sweep point. Bit-identical to [`run_group_warmed`].
#[must_use]
pub fn run_group_arena(
    arena: &mut SimArena,
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    threads: usize,
    warm_accesses: u64,
    instructions_per_thread: u64,
    config: &SystemConfig,
) -> ThroughputResult {
    let (mut wire, mut dram) = group_resources(threads, config);
    let mut group = arena.warmed_group(profile, scheme, warm_accesses, config);
    run_group_core(&mut group, &mut wire, &mut dram, instructions_per_thread);
    summarize(threads, &group)
}

/// [`run_group_warmed`] with a [`Telemetry`] handle attached to every
/// thread, the shared wire, and the DRAM channel *after* warm-up — warm
/// traffic is neither counted nor traced, so the trace window covers
/// exactly the measured region. Timing and statistics are identical to
/// [`run_group_warmed`] whether the handle is enabled or not.
#[must_use]
pub fn run_group_telemetry(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    threads: usize,
    warm_accesses: u64,
    instructions_per_thread: u64,
    config: &SystemConfig,
    tel: &Telemetry,
) -> ThroughputResult {
    let (mut wire, mut dram) = group_resources(threads, config);
    let mut group = build_warmed_group(profile, scheme, warm_accesses, config);
    for t in &mut group {
        t.set_telemetry(tel.clone());
    }
    wire.set_telemetry(tel.clone());
    dram.set_telemetry(tel.clone());
    let t0 = group.iter().map(ThreadSim::now_ps).min().unwrap_or(0);
    tel.record_at(t0, Event::Phase { name: "measure" });
    run_group_core(&mut group, &mut wire, &mut dram, instructions_per_thread);
    summarize(threads, &group)
}

/// The seed linear-scan implementation of [`run_group_warmed`], kept
/// verbatim as the reference the event-driven scheduler is tested against.
/// O(steps × N) per run versus the heap's O(steps × log N).
#[cfg(test)]
fn run_group_warmed_linear(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    threads: usize,
    warm_accesses: u64,
    instructions_per_thread: u64,
    config: &SystemConfig,
) -> ThroughputResult {
    let (mut wire, mut dram) = group_resources(threads, config);
    let mut group = build_warmed_group(profile, scheme, warm_accesses, config);

    loop {
        let all_done = group.iter().all(|t| t.retired() >= instructions_per_thread);
        if all_done {
            break;
        }
        let next = group
            .iter_mut()
            .min_by_key(|t| t.now_ps())
            .expect("group is non-empty");
        next.step(&mut wire, &mut dram);
    }

    summarize(threads, &group)
}

/// Throughput speedup of `scheme` over the uncompressed system at the same
/// thread count (one Fig. 14 bar).
#[must_use]
pub fn speedup(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    threads: usize,
    instructions_per_thread: u64,
    config: &SystemConfig,
) -> f64 {
    let base = run_group(
        profile,
        Scheme::Uncompressed,
        threads,
        instructions_per_thread,
        config,
    );
    let comp = run_group(profile, scheme, threads, instructions_per_thread, config);
    comp.system_ips() / base.system_ips()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_compress::EngineKind;
    use cable_core::BaselineKind;
    use cable_trace::{by_name, ALL_WORKLOADS};

    fn all_schemes() -> Vec<Scheme> {
        let mut schemes = vec![Scheme::Uncompressed];
        schemes.extend(BaselineKind::ALL.iter().map(|&k| Scheme::Baseline(k)));
        schemes.extend(EngineKind::ALL.iter().map(|&k| Scheme::Cable(k)));
        schemes
    }

    #[test]
    fn run_group_heap_matches_linear_scan_everywhere() {
        // The heap scheduler must reproduce the seed `min_by_key` schedule
        // step for step, including lowest-index-first tie-breaking on equal
        // `now_ps`. Small budgets keep the full cross product fast while
        // still forcing thousands of scheduling decisions (and plenty of
        // now_ps ties right after warm-up, when all eight threads sit at
        // t=0).
        let cfg = SystemConfig::paper_defaults();
        for profile in ALL_WORKLOADS {
            for scheme in all_schemes() {
                let heap = run_group_warmed(profile, scheme, 256, 64, 96, &cfg);
                let linear = run_group_warmed_linear(profile, scheme, 256, 64, 96, &cfg);
                assert_eq!(
                    heap.group_instructions, linear.group_instructions,
                    "{}/{scheme:?}: instruction totals diverge",
                    profile.name
                );
                assert_eq!(
                    heap.elapsed_ps, linear.elapsed_ps,
                    "{}/{scheme:?}: elapsed time diverges",
                    profile.name
                );
                assert_eq!(heap.threads, linear.threads);
            }
        }
    }

    #[test]
    fn arena_restore_matches_linear_scan_across_a_sweep() {
        // The SimArena path stacks snapshot/restore on top of the heap
        // scheduler; both must still agree with the seed implementation at
        // every sweep point, with warm-up paid only once per scheme.
        let cfg = SystemConfig::paper_defaults();
        let profile = &ALL_WORKLOADS[0];
        let mut arena = SimArena::new();
        for scheme in [
            Scheme::Uncompressed,
            Scheme::Cable(EngineKind::Lbe),
            Scheme::Baseline(BaselineKind::Cpack),
        ] {
            for threads in [256, 512, 2048] {
                let arena_r = run_group_arena(&mut arena, profile, scheme, threads, 200, 150, &cfg);
                let linear = run_group_warmed_linear(profile, scheme, threads, 200, 150, &cfg);
                assert_eq!(arena_r.group_instructions, linear.group_instructions);
                assert_eq!(arena_r.elapsed_ps, linear.elapsed_ps);
            }
        }
        let (hits, misses) = arena.stats();
        assert_eq!(
            (hits, misses),
            (6, 3),
            "one warm-up per scheme, rest restored"
        );
    }

    #[test]
    fn memory_bound_speedup_at_high_thread_count() {
        // Fig. 14a: memory-intensive workloads gain large speedups at 2048
        // threads (bandwidth per group is tiny, compression multiplies it).
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("mcf").unwrap();
        let s = speedup(p, Scheme::Cable(EngineKind::Lbe), 2048, 20_000, &cfg);
        assert!(s > 1.5, "mcf speedup {s}");
    }

    #[test]
    fn compute_bound_gains_little() {
        // Fig. 14a: povray/gobmk "generally do not benefit despite achieving
        // high compression ratios".
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("povray").unwrap();
        let s = speedup(p, Scheme::Cable(EngineKind::Lbe), 2048, 20_000, &cfg);
        assert!(s < 1.5, "povray speedup {s}");
    }

    #[test]
    fn speedup_grows_with_thread_count() {
        // Fig. 14b: at 256 threads bandwidth is not oversubscribed; the
        // benefit appears at high counts.
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("lbm").unwrap();
        let low = speedup(p, Scheme::Cable(EngineKind::Lbe), 256, 15_000, &cfg);
        let high = speedup(p, Scheme::Cable(EngineKind::Lbe), 2048, 15_000, &cfg);
        assert!(
            high > low * 1.1,
            "speedup should grow: 256t {low}, 2048t {high}"
        );
    }

    #[test]
    fn group_accounting() {
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("gcc").unwrap();
        let r = run_group(p, Scheme::Uncompressed, 256, 5_000, &cfg);
        assert!(r.group_instructions >= 8 * 5_000);
        assert!(r.system_ips() > r.group_ips());
        assert_eq!(r.threads, 256);
    }

    #[test]
    fn zero_instruction_target_is_a_no_op() {
        // Every thread starts past a zero target; neither loop may step.
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("gcc").unwrap();
        let a = run_group_warmed(p, Scheme::Uncompressed, 256, 100, 0, &cfg);
        let b = run_group_warmed_linear(p, Scheme::Uncompressed, 256, 100, 0, &cfg);
        assert_eq!(a.group_instructions, 0);
        assert_eq!(a.group_instructions, b.group_instructions);
        assert_eq!(a.elapsed_ps, b.elapsed_ps);
    }

    #[test]
    fn arena_path_matches_direct_path() {
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("mcf").unwrap();
        let mut arena = SimArena::new();
        for threads in [256, 1024] {
            let a = run_group_arena(
                &mut arena,
                p,
                Scheme::Cable(EngineKind::Lbe),
                threads,
                1_000,
                800,
                &cfg,
            );
            let d = run_group_warmed(p, Scheme::Cable(EngineKind::Lbe), threads, 1_000, 800, &cfg);
            assert_eq!(a.group_instructions, d.group_instructions);
            assert_eq!(a.elapsed_ps, d.elapsed_ps);
        }
        assert_eq!(
            arena.stats(),
            (1, 1),
            "second thread count reuses warm state"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_thread_count_rejected() {
        let cfg = SystemConfig::paper_defaults();
        let _ = run_group(by_name("gcc").unwrap(), Scheme::Uncompressed, 12, 100, &cfg);
    }
}
