//! Event-driven `run` ⇔ seed `run_linear` determinism.
//!
//! The production `run` of [`FabricSim`] must be *bit-identical* to the
//! seed straight-line oracle `run_linear` —
//! results, per-pipeline `LinkStats`, shared-resource busy time, DRAM
//! access counts, fault-mode frames, and degradation ladders. These
//! property tests compare the two over randomized topologies, schemes,
//! bandwidths, and fault schedules.

use crate::{
    CompressedLink, DegradeLevel, DegradePolicy, FabricResult, FabricSim, NumaSim, Scheme,
    SystemConfig, ThreadSim,
};
use cable_common::SplitMix64;
use cable_compress::EngineKind;
use cable_core::{BaselineKind, FaultConfig, LinkStats};
use cable_trace::{by_name, WorkloadProfile, ALL_WORKLOADS};
use proptest::prelude::*;

/// A scaled-down Table IV: small geometries force LLC/L4 evictions and
/// dirty write-backs (the trickiest replay paths — zero-bit wire calls
/// included) within a few thousand accesses, and keep a fabric cheap
/// enough to build twice per case.
fn small_config() -> SystemConfig {
    SystemConfig {
        l1_bytes: 4 << 10,
        l1_ways: 2,
        l2_bytes: 16 << 10,
        l2_ways: 4,
        llc_bytes: 16 << 10,
        llc_ways: 4,
        l4_bytes: 64 << 10,
        l4_ways: 8,
        ..SystemConfig::paper_defaults()
    }
}

fn scheme_for(pick: u64) -> Scheme {
    match pick % 4 {
        0 => Scheme::Uncompressed,
        1 => Scheme::Baseline(BaselineKind::Cpack),
        2 => Scheme::Cable(EngineKind::Lbe),
        _ => Scheme::Cable(EngineKind::Cpack128),
    }
}

fn profile_for(pick: u64) -> &'static WorkloadProfile {
    &ALL_WORKLOADS[(pick % ALL_WORKLOADS.len() as u64) as usize]
}

/// Everything observable about a finished fabric run, flattened for one
/// `assert_eq!`.
#[derive(Debug, PartialEq)]
struct FabricDigest {
    instructions: u64,
    elapsed_ps: u64,
    accesses: u64,
    coherence: LinkStats,
    pipelines: Vec<LinkStats>,
    locals: Vec<LinkStats>,
    fingerprint: Vec<u64>,
    fault: Option<String>,
    degradation: Option<String>,
    degrade_levels: Vec<DegradeLevel>,
    /// Per-hop wire occupancy and fault frames ([`FabricSim::hop_stats`]),
    /// one row per mesh wire in triangular order.
    hops: Vec<String>,
}

fn digest(sim: &FabricSim, r: FabricResult) -> FabricDigest {
    FabricDigest {
        instructions: r.instructions,
        elapsed_ps: r.elapsed_ps,
        accesses: sim.total_accesses(),
        coherence: sim.coherence_stats(),
        pipelines: sim.pipeline_stats(),
        locals: sim.local_link_stats(),
        fingerprint: sim.timing_fingerprint(),
        fault: sim.fault_stats().map(|fs| format!("{fs:?}")),
        degradation: sim.degradation_stats().map(|d| format!("{d:?}")),
        degrade_levels: sim.degrade_levels(),
        hops: sim.hop_stats().iter().map(|h| format!("{h:?}")).collect(),
    }
}

fn run_fabric_case(cfg: &SystemConfig, seed: u64, instructions: u64) {
    let mut rng = SplitMix64::new(seed);
    let profile = profile_for(rng.next_u64());
    let scheme = scheme_for(rng.next_u64());
    let nodes = 2 + (rng.next_bounded(4) as usize); // 2..=5
    let ptp = 19.2e9 / (1 << rng.next_bounded(5)) as f64;

    let build = || FabricSim::with_config(profile, scheme, nodes, ptp, cfg);

    let oracle = {
        let mut sim = build();
        let r = sim.run(instructions);
        digest(&sim, r)
    };
    let linear = {
        let mut sim = build();
        let r = sim.run_linear(instructions);
        digest(&sim, r)
    };
    assert_eq!(
        oracle, linear,
        "{}/{scheme:?}/{nodes}n: event vs linear oracle",
        profile.name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn prop_fabric_run_matches_linear(seed in any::<u64>()) {
        run_fabric_case(&small_config(), seed, 4_000);
    }

    #[test]
    fn prop_fabric_run_matches_linear_under_fault_injection(seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let cfg = SystemConfig {
            fault: Some(FaultConfig::with_rate(rng.next_u64(), 2e-3)),
            ..small_config()
        };
        run_fabric_case(&cfg, rng.next_u64(), 3_000);
    }

    #[test]
    fn prop_fabric_run_matches_linear_under_mesh_faults(seed in any::<u64>()) {
        // The mesh-only fault override arms the directional coherence
        // pipelines with per-(hop, direction) seeds, so per-hop fault
        // frames and wire counters must match bit for bit, whether the
        // schedule covers the whole mesh or is pinned to one wire.
        let mut rng = SplitMix64::new(seed);
        let pinned = (rng.next_bounded(2) == 0).then_some(0u32);
        let cfg = SystemConfig {
            mesh_fault: Some(FaultConfig::with_rate(rng.next_u64(), 5e-3)),
            mesh_fault_hop: pinned,
            ..small_config()
        };
        run_fabric_case(&cfg, rng.next_u64(), 3_000);
    }

    #[test]
    fn prop_fabric_run_matches_linear_with_degradation(seed in any::<u64>()) {
        // The closed fault loop is purely functional (op-count windows,
        // never sim time), so ladder transitions and scheduled resyncs
        // must match bit for bit.
        let mut rng = SplitMix64::new(seed);
        let cfg = SystemConfig {
            fault: Some(FaultConfig::with_rate(rng.next_u64(), 5e-3)),
            degrade: Some(DegradePolicy {
                window_ops: 64,
                resync_interval_ops: 256,
                ..DegradePolicy::paper_defaults()
            }),
            ..small_config()
        };
        run_fabric_case(&cfg, rng.next_u64(), 3_000);
    }
}

#[test]
fn fabric_paper_config_run_matches_linear() {
    // One full-geometry spot check (the proptest sweep uses the small
    // config to afford many cases).
    let mut a = FabricSim::new(
        by_name("mcf").unwrap(),
        Scheme::Cable(EngineKind::Lbe),
        4,
        3e8,
    );
    let ra = a.run(6_000);
    let mut b = FabricSim::new(
        by_name("mcf").unwrap(),
        Scheme::Cable(EngineKind::Lbe),
        4,
        3e8,
    );
    let rb = b.run_linear(6_000);
    assert_eq!(digest(&a, ra), digest(&b, rb));
}

#[test]
fn sim_types_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<FabricSim>();
    assert_send::<NumaSim>();
    assert_send::<ThreadSim>();
    assert_send::<CompressedLink>();
}

#[test]
fn fabric_heap_matches_linear_scan() {
    // FabricSim's loop differs from run_group's: finished chips drop out
    // of scheduling instead of running on. Same seeds → same FabricResult.
    for profile in [&ALL_WORKLOADS[1], &ALL_WORKLOADS[5]] {
        for scheme in [Scheme::Uncompressed, Scheme::Cable(EngineKind::Lbe)] {
            for nodes in [2usize, 4] {
                let mut heap = FabricSim::new(profile, scheme, nodes, 12.8e9);
                let mut linear = FabricSim::new(profile, scheme, nodes, 12.8e9);
                let h = heap.run(400);
                let l = linear.run_linear(400);
                assert_eq!(
                    h.instructions, l.instructions,
                    "{}/{scheme:?}/{nodes} nodes: instruction totals diverge",
                    profile.name
                );
                assert_eq!(
                    h.elapsed_ps, l.elapsed_ps,
                    "{}/{scheme:?}/{nodes} nodes: elapsed time diverges",
                    profile.name
                );
            }
        }
    }
}
