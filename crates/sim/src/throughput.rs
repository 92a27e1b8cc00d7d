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
//! Every group run goes through one event-driven loop: a `Scheduler`
//! min-heap picks the earliest thread in O(log N) and a `DoneTracker` makes
//! the completion check O(1), replacing the seed's two O(N) scans per step.
//! A thread's step is a functional half (generator, private caches, link),
//! which no other thread and no clock affects, and a timing half on the
//! shared wire and DRAM. Uncontrolled runs, traced or not, make each
//! thread's functional halves ahead of the loop, in bounded buffers filled
//! on every host core, and the loop applies their timing halves in heap
//! order; a traced thread's link events wait in its own log until its
//! timing half stamps them into the trace.
//! The seed linear-scan loop survives as the test-only
//! `run_group_warmed_linear`, the reference implementation this module's
//! equivalence tests compare against. [`run_group_arena`] additionally
//! reuses warmed groups across sweep points via a [`SimArena`], and
//! [`run_group_controlled`] is the same run with the §VI-D on/off
//! controller observing every thread's link.

use crate::adaptive::OnOffController;
use crate::arena::SimArena;
use crate::config::SystemConfig;
use crate::resources::{DramModel, SharedLink};
use crate::sched::{DoneTracker, Scheduler};
use crate::thread::{Scheme, StepTrace, ThreadSim};
use cable_telemetry::{Event, Telemetry};
use cable_trace::WorkloadProfile;
use std::collections::VecDeque;
use std::mem;
use std::sync::mpsc;

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

/// Builds the group-share wire and DRAM for a `threads`-thread system;
/// the third value is the wire's bandwidth in bytes per second.
///
/// # Panics
///
/// Panics if `threads` is not a positive multiple of [`GROUP_SIZE`].
fn group_resources(threads: usize, config: &SystemConfig) -> (SharedLink, DramModel, f64) {
    assert!(
        threads >= GROUP_SIZE && threads.is_multiple_of(GROUP_SIZE),
        "thread count must be a positive multiple of {GROUP_SIZE}"
    );
    let groups = (threads / GROUP_SIZE) as f64;
    let wire_bytes_per_sec = TOTAL_LINK_BYTES_PER_SEC / groups;
    let wire = SharedLink::new(wire_bytes_per_sec, config.link_setup_ps);
    // DRAM behind the buffers: "4 MCs per chip/buffer" across 4 channels
    // (Table IV) gives DRAM 204.8 GB/s aggregate — 2.7x the link, so the
    // off-chip link is the system bottleneck, as in the paper.
    let mut dram_cfg = *config;
    dram_cfg.dram_bus_bytes_per_sec = 16.0 * config.dram_bus_bytes_per_sec / groups;
    let dram = DramModel::from_config(&dram_cfg);
    (wire, dram, wire_bytes_per_sec)
}

/// Host threads a group run may use: one per available core (the `_on`
/// functions clamp it to one per thread of the group).
fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builds the group's eight threads (instances 0–7) and warms each one,
/// on up to one host thread per available core.
pub(crate) fn build_warmed_group(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    warm_accesses: u64,
    config: &SystemConfig,
) -> Vec<ThreadSim> {
    build_warmed_group_on(profile, scheme, warm_accesses, config, host_workers())
}

/// [`build_warmed_group`] on `workers` host threads (clamped to
/// `1..=GROUP_SIZE`), each building and warming one contiguous chunk of
/// instances; the calling thread takes the first chunk. The result does
/// not depend on `workers`: a thread's warm-up runs on its own
/// unconstrained wire and DRAM and reads only its own generator, caches
/// and link, and its fault seed is derived from its instance.
fn build_warmed_group_on(
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    warm_accesses: u64,
    config: &SystemConfig,
    workers: usize,
) -> Vec<ThreadSim> {
    let warm_chunk = &|instances: std::ops::Range<usize>| -> Vec<ThreadSim> {
        instances
            .map(|i| {
                let mut t = ThreadSim::new(profile, i as u64, scheme, *config);
                t.warm(warm_accesses);
                t
            })
            .collect()
    };
    let chunk = GROUP_SIZE.div_ceil(workers.clamp(1, GROUP_SIZE));
    let mut chunks = (0..GROUP_SIZE)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(GROUP_SIZE));
    let first = chunks.next().expect("a group has threads");
    std::thread::scope(|scope| {
        let rest: Vec<_> = chunks
            .map(|instances| scope.spawn(move || warm_chunk(instances)))
            .collect();
        let mut group = warm_chunk(first);
        for worker in rest {
            group.extend(worker.join().expect("warm-up worker panicked"));
        }
        group
    })
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

/// Step records a thread's functional half runs ahead of the group loop
/// per top-up: enough to spread a top-up's host threads over many steps,
/// few enough (8 × 1024 × 40 bytes) that the buffers stay small.
const LOOKAHEAD: usize = 1024;

/// Link events a traced thread's log is reserved for per buffered step
/// record. A full buffer of mcf, gcc, dealII or lbm steps at 2048 threads
/// logs at most 1.4 events per record under CABLE+LBE with faults at 1e-3
/// and 0.5 under CPACK; a link retrying far more often grows its log.
const LINK_EVENTS_PER_STEP: usize = 2;

/// Event-driven group loop: advance the earliest thread until every thread
/// reaches its target ("kept running until all have finished ... to
/// sustain loads" — finished threads keep running, so every pop is pushed
/// back; only the done-count decides termination). `ctls[i]`, when
/// present, observes thread `i`'s link after each of its steps (the §VI-D
/// controller); callers without controllers pass an empty slice.
///
/// Uncontrolled runs, traced or not, buffer each thread's functional
/// halves ahead of the loop, on every host core (see
/// [`run_group_core_on`]); a traced thread's link events wait in its own
/// log until the timing half stamps them (see [`ThreadSim::set_telemetry`]).
/// A controller reads the clock and acts on the link between steps, so
/// what a functional half does depends on the timing halves before it:
/// controlled runs look no step ahead.
pub(crate) fn run_group_core(
    group: &mut [ThreadSim],
    ctls: &mut [OnOffController],
    wire: &mut SharedLink,
    dram: &mut DramModel,
    instructions_per_thread: u64,
) {
    let lookahead = if ctls.is_empty() { LOOKAHEAD } else { 0 };
    run_group_core_on(
        group,
        ctls,
        wire,
        dram,
        instructions_per_thread,
        host_workers(),
        lookahead,
    );
}

/// [`run_group_core`] looking up to `lookahead` steps ahead on `workers`
/// host threads.
///
/// A thread's functional half ([`ThreadSim::step_functional`]) reads only
/// that thread's generator, caches and link, never the clock or the shared
/// wire and DRAM, so it can run before the loop reaches the step. When the
/// loop pops a thread below its target whose buffer is empty, every
/// unfinished thread's buffer is topped up to `lookahead` records, one
/// contiguous chunk of threads per host thread: the calling thread fills
/// the first chunk, and one worker per other chunk, spawned once for the
/// whole run, fills its own. The loop then applies buffered records
/// ([`ThreadSim::apply_step_timing`]) in the order it would have stepped.
/// No record is made past a thread's target, so a thread only steps past
/// it inline, as the fused loop does, and every thread ends in the fused
/// loop's state whatever `workers` and `lookahead` are.
fn run_group_core_on(
    group: &mut [ThreadSim],
    ctls: &mut [OnOffController],
    wire: &mut SharedLink,
    dram: &mut DramModel,
    instructions_per_thread: u64,
    workers: usize,
    lookahead: usize,
) {
    let mut sched = Scheduler::with_capacity(group.len());
    let mut done = DoneTracker::new(group.len());
    for (i, t) in group.iter().enumerate() {
        if t.retired() >= instructions_per_thread {
            done.mark_done();
        }
        sched.push(t.now_ps(), i);
    }
    // Allocated here, once, so that the workers allocate no buffer.
    let mut ahead: Vec<VecDeque<StepTrace>> = group
        .iter()
        .map(|t| {
            t.reserve_link_events(lookahead * LINK_EVENTS_PER_STEP);
            VecDeque::with_capacity(lookahead)
        })
        .collect();
    let chunk_len = if lookahead == 0 {
        group.len()
    } else {
        group.len().div_ceil(workers.clamp(1, group.len()))
    };
    std::thread::scope(|scope| {
        let mut chunks: Vec<Chunk<'_>> = group
            .chunks_mut(chunk_len)
            .zip(ahead.chunks_mut(chunk_len))
            .collect();
        let crew: Vec<_> = (1..chunks.len())
            .map(|_| {
                let (to_worker, work) = mpsc::sync_channel::<Chunk<'_>>(1);
                let (to_caller, filled) = mpsc::sync_channel::<Chunk<'_>>(1);
                let worker = scope.spawn(move || {
                    for mut chunk in work {
                        fill(&mut chunk, instructions_per_thread, lookahead);
                        if to_caller.send(chunk).is_err() {
                            break;
                        }
                    }
                });
                (to_worker, filled, worker)
            })
            .collect();
        while !done.all_done() {
            let (_, idx) = sched.pop().expect("undone threads remain scheduled");
            let (k, i) = (idx / chunk_len, idx % chunk_len);
            let before = chunks[k].0[i].retired();
            if lookahead > 0 && before < instructions_per_thread && chunks[k].1[i].is_empty() {
                for ((to_worker, _, _), chunk) in crew.iter().zip(&mut chunks[1..]) {
                    let handed = (mem::take(&mut chunk.0), mem::take(&mut chunk.1));
                    to_worker.send(handed).expect("workers outlive the loop");
                }
                fill(&mut chunks[0], instructions_per_thread, lookahead);
                for ((_, filled, _), chunk) in crew.iter().zip(&mut chunks[1..]) {
                    *chunk = filled.recv().expect("a top-up worker panicked");
                }
            }
            let (threads, buffers) = &mut chunks[k];
            let t = &mut threads[i];
            if t.telemetry().is_enabled() {
                // Stamped at pop time: the heap yields non-decreasing wake times.
                t.telemetry()
                    .record_at(t.now_ps(), Event::SchedWake { actor: idx as u32 });
            }
            match buffers[i].pop_front() {
                Some(trace) => t.apply_step_timing(&trace, wire, dram),
                None => t.step(wire, dram),
            }
            if let Some(c) = ctls.get_mut(idx) {
                c.observe(t.now_ps(), t.link_mut());
            }
            if before < instructions_per_thread && t.retired() >= instructions_per_thread {
                done.mark_done();
            }
            sched.push(t.now_ps(), idx);
        }
        // Join each worker's thread, not only its closure as the scope
        // would: an exiting thread still holds its malloc arena, and a
        // thread spawned next (say, the next group's warm-up) that finds
        // the arena taken starts a new one instead of reusing its memory.
        for (to_worker, _, worker) in crew {
            drop(to_worker);
            worker.join().expect("a top-up worker panicked");
        }
    });
}

/// A contiguous chunk of a group's threads and their record buffers.
type Chunk<'a> = (&'a mut [ThreadSim], &'a mut [VecDeque<StepTrace>]);

/// Runs each thread of `chunk` functionally ahead until its buffer holds
/// `lookahead` records or its records reach `instructions_per_thread`.
fn fill(chunk: &mut Chunk<'_>, instructions_per_thread: u64, lookahead: usize) {
    for (t, buffer) in chunk.0.iter_mut().zip(chunk.1.iter_mut()) {
        let mut retired = t.retired() + buffer.iter().map(StepTrace::instructions).sum::<u64>();
        while retired < instructions_per_thread && buffer.len() < lookahead {
            let trace = t.step_functional();
            retired += trace.instructions();
            buffer.push_back(trace);
        }
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
    let (mut wire, mut dram, _) = group_resources(threads, config);
    let mut group = build_warmed_group(profile, scheme, warm_accesses, config);
    run_group_core(
        &mut group,
        &mut [],
        &mut wire,
        &mut dram,
        instructions_per_thread,
    );
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
    let (mut wire, mut dram, _) = group_resources(threads, config);
    let group = arena.restore(profile, scheme, warm_accesses, config);
    run_group_core(
        group,
        &mut [],
        &mut wire,
        &mut dram,
        instructions_per_thread,
    );
    summarize(threads, group)
}

/// [`run_group_arena`] with the paper's §VI-D [`OnOffController`] (1 ms
/// period, 80%/90% thresholds) observing every thread's link, each sized
/// to one thread's share of the group's wire.
#[must_use]
pub fn run_group_controlled(
    arena: &mut SimArena,
    profile: &'static WorkloadProfile,
    scheme: Scheme,
    threads: usize,
    warm_accesses: u64,
    instructions_per_thread: u64,
    config: &SystemConfig,
) -> ThroughputResult {
    let (mut wire, mut dram, wire_bytes_per_sec) = group_resources(threads, config);
    let share = wire_bytes_per_sec / GROUP_SIZE as f64;
    let mut ctls = vec![OnOffController::new(share); GROUP_SIZE];
    let group = arena.restore(profile, scheme, warm_accesses, config);
    run_group_core(
        group,
        &mut ctls,
        &mut wire,
        &mut dram,
        instructions_per_thread,
    );
    summarize(threads, group)
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
    let (mut wire, mut dram, _) = group_resources(threads, config);
    let mut group = build_warmed_group(profile, scheme, warm_accesses, config);
    for t in &mut group {
        t.set_telemetry(tel.clone());
    }
    wire.set_telemetry(tel.clone());
    dram.set_telemetry(tel.clone());
    let t0 = group.iter().map(ThreadSim::now_ps).min().unwrap_or(0);
    tel.record_at(t0, Event::Phase { name: "measure" });
    run_group_core(
        &mut group,
        &mut [],
        &mut wire,
        &mut dram,
        instructions_per_thread,
    );
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
    let (mut wire, mut dram, _) = group_resources(threads, config);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thread::ThreadCounts;
    use cable_compress::EngineKind;
    use cable_core::{BaselineKind, FaultStats, LinkStats};
    use cable_telemetry::{JsonlSink, TracerConfig};
    use cable_trace::{by_name, ALL_WORKLOADS};
    use std::io::{self, Write};
    use std::sync::{Arc, Mutex};

    /// Throughput speedup of `scheme` over the uncompressed system at the
    /// same thread count (one Fig. 14 bar).
    fn speedup(
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
    fn warm_up_on_any_worker_count_matches_a_serial_build() {
        // One worker, an uneven split (3 + 3 + 2) and one worker per
        // thread must each build the group a serial loop builds, and the
        // threads must then run on identically. The faulted config covers
        // the per-instance fault seeds.
        let p = by_name("mcf").unwrap();
        let paper = SystemConfig::paper_defaults();
        let faulted = SystemConfig {
            fault: Some(cable_core::FaultConfig::with_rate(0x5eed, 1e-3)),
            ..paper
        };
        let lbe = Scheme::Cable(EngineKind::Lbe);
        let cases = [
            (Scheme::Uncompressed, paper),
            (Scheme::Baseline(BaselineKind::Cpack), paper),
            (lbe, paper),
            (lbe, faulted),
        ];
        let state = |t: &ThreadSim| {
            (
                t.now_ps(),
                t.retired(),
                *t.counts(),
                *t.link().stats(),
                t.link().fault_stats().copied(),
            )
        };
        for (scheme, cfg) in cases {
            let serial: Vec<ThreadSim> = (0..GROUP_SIZE)
                .map(|i| {
                    let mut t = ThreadSim::new(p, i as u64, scheme, cfg);
                    t.warm(1_000);
                    t
                })
                .collect();
            for workers in [1, 2, 3, 8] {
                let mut group = build_warmed_group_on(p, scheme, 1_000, &cfg, workers);
                let mut reference = serial.clone();
                for (i, (a, b)) in group.iter_mut().zip(&mut reference).enumerate() {
                    let at = format!("{scheme} {cfg:?}, {workers} workers, thread {i}");
                    assert_eq!(state(a), state(b), "after warm-up: {at}");
                    for t in [&mut *a, &mut *b] {
                        let (mut wire, mut dram, _) = group_resources(2048, &cfg);
                        for _ in 0..500 {
                            t.step(&mut wire, &mut dram);
                        }
                    }
                    assert_eq!(state(a), state(b), "after 500 steps: {at}");
                }
            }
        }
    }

    /// The scheme and configuration pairs the lookahead tests cover:
    /// both baseline links, CABLE+LBE, and CABLE+LBE with faults.
    fn lookahead_cases() -> [(Scheme, SystemConfig); 4] {
        let paper = SystemConfig::paper_defaults();
        let faulted = SystemConfig {
            fault: Some(cable_core::FaultConfig::with_rate(0x5eed, 1e-3)),
            ..paper
        };
        let lbe = Scheme::Cable(EngineKind::Lbe);
        [
            (Scheme::Uncompressed, paper),
            (Scheme::Baseline(BaselineKind::Cpack), paper),
            (lbe, paper),
            (lbe, faulted),
        ]
    }

    /// `(lookahead, instructions per thread)`: one record, an odd count
    /// and the production buffer, each budget spanning several top-ups.
    const LOOKAHEAD_BUDGETS: [(usize, u64); 3] = [(1, 400), (7, 1_000), (LOOKAHEAD, 8_000)];

    type ThreadState = (u64, u64, ThreadCounts, LinkStats, Option<FaultStats>);

    fn thread_state(t: &ThreadSim) -> ThreadState {
        (
            t.now_ps(),
            t.retired(),
            *t.counts(),
            *t.link().stats(),
            t.link().fault_stats().copied(),
        )
    }

    /// The state a group run leaves: the wire and DRAM, every thread at
    /// the end, and every thread after stepping on alone for 200 steps,
    /// so a functional half run past the target (generator, caches) shows.
    type RunState = ((u64, u64, u64), Vec<ThreadState>, Vec<ThreadState>);

    /// Runs a copy of `warmed` for `budget` instructions per thread,
    /// looking `lookahead` steps ahead on `workers` host threads, with
    /// `tel` attached to the threads, the wire and the DRAM.
    fn run_ahead(
        warmed: &[ThreadSim],
        cfg: &SystemConfig,
        budget: u64,
        workers: usize,
        lookahead: usize,
        tel: &Telemetry,
    ) -> RunState {
        let mut group = warmed.to_vec();
        let (mut wire, mut dram, _) = group_resources(2048, cfg);
        for t in &mut group {
            t.set_telemetry(tel.clone());
        }
        wire.set_telemetry(tel.clone());
        dram.set_telemetry(tel.clone());
        run_group_core_on(
            &mut group,
            &mut [],
            &mut wire,
            &mut dram,
            budget,
            workers,
            lookahead,
        );
        let shared = (wire.bits_sent(), wire.busy_ps_total(), dram.accesses());
        let at_end: Vec<_> = group.iter().map(thread_state).collect();
        for t in &mut group {
            t.set_telemetry(Telemetry::disabled());
            let (mut wire, mut dram, _) = group_resources(2048, cfg);
            for _ in 0..200 {
                t.step(&mut wire, &mut dram);
            }
        }
        let stepped_on: Vec<_> = group.iter().map(thread_state).collect();
        (shared, at_end, stepped_on)
    }

    #[test]
    fn lookahead_on_any_worker_count_matches_the_fused_loop() {
        // The group loop looking ahead must leave every thread, the wire
        // and the DRAM as the fused loop (lookahead 0) does, on one
        // worker, an uneven split and one worker per thread.
        let p = by_name("mcf").unwrap();
        let off = Telemetry::disabled();
        for (scheme, cfg) in lookahead_cases() {
            let warmed = build_warmed_group(p, scheme, 1_000, &cfg);
            for (lookahead, budget) in LOOKAHEAD_BUDGETS {
                let fused = run_ahead(&warmed, &cfg, budget, 1, 0, &off);
                let fewest_steps = fused.1.iter().map(|s| s.2.l1).min().unwrap();
                assert!(
                    fewest_steps > 2 * lookahead as u64,
                    "{scheme}: {budget} instructions take {fewest_steps} steps"
                );
                for workers in [1, 2, 3, 8] {
                    let ahead = run_ahead(&warmed, &cfg, budget, workers, lookahead, &off);
                    let at = format!("{scheme} {cfg:?}, {workers} workers, lookahead {lookahead}");
                    assert_eq!(ahead.0, fused.0, "wire and DRAM: {at}");
                    assert_eq!(ahead.1, fused.1, "threads at the end: {at}");
                    assert_eq!(ahead.2, fused.2, "threads stepped on: {at}");
                }
            }
        }
    }

    /// A clonable in-memory writer for a streaming sink.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `(events, dropped, length, FNV-1a)` of the fused loop's streamed
    /// trace for each of [`lookahead_cases`] and [`LOOKAHEAD_BUDGETS`],
    /// recorded before link events were deferred, when the fused step
    /// stamped them on the shared telemetry clock.
    const FUSED_TRACES: [[(u64, u64, usize, u64); 3]; 4] = [
        [
            (3_794, 0, 447_442, 11_239_353_043_334_743_182),
            (9_231, 0, 1_075_592, 6_841_496_522_040_283_462),
            (73_656, 0, 8_645_829, 6_000_969_960_061_496_549),
        ],
        [
            (3_794, 0, 447_186, 12_761_545_073_641_641_457),
            (9_231, 0, 1_075_364, 2_878_380_121_599_507_289),
            (73_656, 0, 8_631_542, 17_884_394_621_006_047_662),
        ],
        [
            (4_788, 0, 558_815, 4_137_273_001_001_608_320),
            (11_632, 0, 1_348_085, 2_387_164_293_924_914_973),
            (93_194, 0, 10_860_705, 17_528_775_576_060_906_348),
        ],
        [
            (5_168, 0, 599_244, 614_623_396_819_490_344),
            (12_546, 0, 1_447_248, 3_223_614_356_778_701_437),
            (99_820, 0, 11_585_424, 16_069_795_504_559_067_490),
        ],
    ];

    #[test]
    fn traced_lookahead_on_any_worker_count_matches_the_fused_loop() {
        // Traced, the run looking ahead must also stream the fused loop's
        // trace byte for byte and end with its metrics: each functional
        // half logs its link events, and its timing half stamps and orders
        // them among the wire and DRAM events. The fused traces are pinned
        // too, so a stamp that both loops get wrong shows. After 3,000
        // warm-up accesses the L2s are full, so fills spill dirty victims,
        // and small rings drain the stream often.
        let p = by_name("mcf").unwrap();
        let traced = |warmed: &[ThreadSim], cfg: &SystemConfig, budget, workers, lookahead| {
            let buf = Buf::default();
            let sink = JsonlSink::streaming(buf.clone()).expect("header");
            let mut tracer = TracerConfig::with_capacity(48);
            tracer.drain_threshold = Some(160);
            let tel = Telemetry::streaming(tracer, Box::new(sink));
            let state = run_ahead(warmed, cfg, budget, workers, lookahead, &tel);
            let counts = tel.finish_stream().expect("finish");
            let bytes = mem::take(&mut *buf.0.lock().unwrap());
            (state, counts, tel.snapshot(), bytes)
        };
        for ((scheme, cfg), pins) in lookahead_cases().into_iter().zip(FUSED_TRACES) {
            let warmed = build_warmed_group(p, scheme, 3_000, &cfg);
            for ((lookahead, budget), pin) in LOOKAHEAD_BUDGETS.into_iter().zip(pins) {
                let fused = traced(&warmed, &cfg, budget, 1, 0);
                let (events, dropped) = fused.1;
                let got = (events, dropped, fused.3.len(), fnv1a(&fused.3));
                assert_eq!(got, pin, "{scheme} {cfg:?}, {budget} instructions");
                for workers in [1, 2, 3, 8] {
                    let ahead = traced(&warmed, &cfg, budget, workers, lookahead);
                    let at = format!("{scheme} {cfg:?}, {workers} workers, lookahead {lookahead}");
                    assert_eq!(ahead.0, fused.0, "simulated state: {at}");
                    assert_eq!(ahead.1, fused.1, "events and dropped: {at}");
                    assert_eq!(ahead.2, fused.2, "metrics: {at}");
                    assert!(ahead.3 == fused.3, "streamed bytes differ: {at}");
                }
            }
        }
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
        // The arena's working group is restored in place call after call,
        // switching link families (Uncompressed/CPACK are baseline links,
        // CABLE+LBE is not) and evicting LRU snapshots once the two warm
        // budgets exceed the arena's capacity. Every call must still equal
        // a from-scratch run.
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("mcf").unwrap();
        let mut arena = SimArena::new();
        let order = [
            Scheme::Uncompressed,
            Scheme::Baseline(BaselineKind::Cpack),
            Scheme::Cable(EngineKind::Lbe),
            Scheme::Uncompressed,
            Scheme::Cable(EngineKind::Lbe),
        ];
        for warm in [200, 500] {
            for threads in [256, 2048] {
                for scheme in order {
                    let a = run_group_arena(&mut arena, p, scheme, threads, warm, 300, &cfg);
                    let d = run_group_warmed(p, scheme, threads, warm, 300, &cfg);
                    assert_eq!(
                        (a.group_instructions, a.elapsed_ps),
                        (d.group_instructions, d.elapsed_ps),
                        "{scheme} at {threads} threads, warm {warm}"
                    );
                }
            }
        }
        assert_eq!(
            arena.stats(),
            (14, 6),
            "one warm-up per (scheme, warm) key, every other call restored"
        );
    }

    #[test]
    fn group_loop_runs_the_controllers() {
        // The paper controllers never close a 1 ms window in the figure
        // runs, so a dropped hook would not move `adaptive_throughput`;
        // 10 µs windows on a lightly loaded group must switch compression
        // off.
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("povray").unwrap();
        let (mut wire, mut dram, wire_bytes_per_sec) = group_resources(256, &cfg);
        let mut group = build_warmed_group(p, Scheme::Cable(EngineKind::Lbe), 2_000, &cfg);
        let share = wire_bytes_per_sec / GROUP_SIZE as f64;
        let mut ctls = vec![OnOffController::with_period(share, 10_000_000); GROUP_SIZE];
        run_group_core(&mut group, &mut ctls, &mut wire, &mut dram, 20_000);
        let toggles: u64 = ctls.iter().map(OnOffController::toggles).sum();
        let r = summarize(256, &group);
        assert!(toggles > 0, "no controller switched in {} ps", r.elapsed_ps);
    }

    #[test]
    fn paper_controllers_leave_the_quick_saturated_group_unchanged() {
        // At 2048 threads the quick budget (2,000 instructions) ends before
        // the first 1 ms sample window, so the controlled run is the plain
        // run: the zero rows of `adaptive_throughput.json`.
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("mcf").unwrap();
        let lbe = Scheme::Cable(EngineKind::Lbe);
        let mut arena = SimArena::new();
        let plain = run_group_arena(&mut arena, p, lbe, 2048, 2_000, 2_000, &cfg);
        let controlled = run_group_controlled(&mut arena, p, lbe, 2048, 2_000, 2_000, &cfg);
        assert_eq!(
            (plain.threads, plain.group_instructions, plain.elapsed_ps),
            (
                controlled.threads,
                controlled.group_instructions,
                controlled.elapsed_ps
            )
        );
        assert!(
            controlled.elapsed_ps < crate::adaptive::SAMPLE_PERIOD_PS,
            "{controlled:?}"
        );
    }

    #[test]
    #[should_panic(expected = "multiple of 8")]
    fn bad_thread_count_rejected() {
        let cfg = SystemConfig::paper_defaults();
        let _ = run_group(by_name("gcc").unwrap(), Scheme::Uncompressed, 12, 100, &cfg);
    }
}
