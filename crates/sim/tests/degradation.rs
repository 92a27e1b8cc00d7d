//! Closed fault loop: the degradation ladder must be monotone under
//! rising fault rates, re-arm after quiet windows, and recover fully
//! (compression re-enabled, `Compressed` rung) once a fault burst ends —
//! on a single link and fabric-wide.

use cable_cache::CacheGeometry;
use cable_common::{Address, LineData};
use cable_compress::EngineKind;
use cable_core::FaultConfig;
use cable_sim::{
    CompressedLink, DegradeLadder, DegradeLevel, DegradePolicy, FabricSim, Scheme, SystemConfig,
};
use cable_trace::by_name;
use proptest::prelude::*;

fn test_link() -> CompressedLink {
    CompressedLink::build(
        Scheme::Cable(EngineKind::Lbe),
        CacheGeometry::new(64 << 10, 8),
        CacheGeometry::new(16 << 10, 4),
        16,
    )
}

/// Drives `ops` fills through the link, noting each against the
/// ladder; returns the deepest rung it reached.
fn drive(
    link: &mut CompressedLink,
    ladder: &mut DegradeLadder,
    ops: u64,
    salt: u64,
) -> DegradeLevel {
    let mut deepest = ladder.level();
    for i in 0..ops {
        link.request(
            Address::from_line_number(salt.wrapping_add(i * 3) % 4096),
            LineData::splat_word(((i % 7) as u32) * 0x0101_0101),
        );
        ladder.note_op(link);
        deepest = deepest.max(ladder.level());
    }
    deepest
}

/// Small geometries so a few thousand instructions produce plenty of
/// pipeline traffic (same scaling trick as the run-equivalence suite).
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

/// A policy that samples often enough for short test runs.
fn quick_policy() -> DegradePolicy {
    DegradePolicy {
        window_ops: 64,
        resync_interval_ops: 256,
        ..DegradePolicy::paper_defaults()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Rising fault rates may only push the ladder deeper: a lossless
    /// schedule never demotes, and the deepest rung reached is monotone
    /// in the rate for any seed.
    #[test]
    fn prop_ladder_is_monotone_under_rising_fault_rates(seed in any::<u64>()) {
        let mut deepest_by_rate = Vec::new();
        for rate in [0.0, 5e-3, 3e-2] {
            let mut link = test_link();
            link.enable_fault_injection(if rate == 0.0 {
                FaultConfig::lossless(seed)
            } else {
                FaultConfig::with_rate(seed, rate)
            });
            let mut ladder = DegradeLadder::new(DegradePolicy::paper_defaults(), 16);
            deepest_by_rate.push(drive(&mut link, &mut ladder, 2_048, 0));
        }
        prop_assert_eq!(deepest_by_rate[0], DegradeLevel::Compressed);
        prop_assert!(deepest_by_rate[0] <= deepest_by_rate[1]);
        prop_assert!(deepest_by_rate[1] <= deepest_by_rate[2]);
    }

    /// After a burst ends the quiet-window streak must climb the ladder
    /// all the way back: `Compressed` rung, compression re-enabled,
    /// reliable mode off.
    #[test]
    fn prop_quiet_windows_rearm_after_bursts(seed in any::<u64>()) {
        let mut link = test_link();
        link.enable_fault_injection(FaultConfig::with_rate(seed, 2e-2));
        let mut ladder = DegradeLadder::new(DegradePolicy::paper_defaults(), 16);
        drive(&mut link, &mut ladder, 1_536, 0);
        prop_assert!(ladder.degradation_stats().demotions >= 1, "burst must demote");
        link.disable_fault_injection();
        drive(&mut link, &mut ladder, 2_048, 9_999);
        prop_assert_eq!(ladder.level(), DegradeLevel::Compressed);
        prop_assert!(ladder.degradation_stats().promotions >= 1);
        prop_assert!(link.compression_enabled(), "compression re-enabled");
        prop_assert!(!link.reliable_mode());
    }
}

#[test]
fn fabric_burst_degrades_and_recovers() {
    // The BENCH_degrade storyline as a test: healthy pre-phase, 1e-2
    // burst, recovery phase — the fabric's ladders must step down
    // during the burst and fully re-arm after it.
    let cfg = SystemConfig {
        degrade: Some(quick_policy()),
        ..small_config()
    };
    let mut sim = FabricSim::with_config(
        by_name("mcf").unwrap(),
        Scheme::Cable(EngineKind::Lbe),
        3,
        19.2e9,
        &cfg,
    );
    sim.run(2_000);
    let pre = sim.degradation_stats().expect("ladders armed");
    assert_eq!(pre.demotions, 0, "no faults, no demotions");
    assert!(sim
        .degrade_levels()
        .iter()
        .all(|&l| l == DegradeLevel::Compressed));

    sim.set_fault_injection(Some(FaultConfig::with_rate(0xB00, 1e-2)));
    sim.run(8_000);
    let burst = sim.degradation_stats().expect("ladders armed");
    assert!(burst.demotions > 0, "dense NACKs must step the ladder down");
    let fs = sim.fault_stats().expect("fault mode");
    assert!(fs.nacks > 0);

    sim.set_fault_injection(None);
    sim.run(22_000);
    let post = sim.degradation_stats().expect("ladders armed");
    assert!(post.promotions >= 1, "quiet windows must re-arm");
    assert!(
        sim.degrade_levels()
            .iter()
            .all(|&l| l == DegradeLevel::Compressed),
        "every pipeline must recover to the healthy rung: {:?}",
        sim.degrade_levels()
    );
    assert!(
        post.scheduled_resyncs > 0,
        "resync cadence fires over the run"
    );
}

#[test]
fn fabric_resync_cost_reaches_the_wires() {
    // Two identical fault-free fabrics, one with scheduled resyncs at a
    // very aggressive cadence: its wires must be busier (the repair
    // traffic is charged) while functional results stay equal.
    let base_cfg = small_config();
    let degrade_cfg = SystemConfig {
        degrade: Some(DegradePolicy {
            window_ops: 64,
            resync_interval_ops: 32,
            ..DegradePolicy::paper_defaults()
        }),
        ..base_cfg
    };
    let run = |cfg: &SystemConfig| {
        let mut sim = FabricSim::with_config(
            by_name("gcc").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            2,
            19.2e9,
            cfg,
        );
        let r = sim.run(5_000);
        (
            sim.coherence_stats(),
            sim.degradation_stats(),
            r.elapsed_ps,
            sim.timing_fingerprint(),
        )
    };
    let (base_stats, base_deg, _, base_fp) = run(&base_cfg);
    let (deg_stats, deg_deg, _, deg_fp) = run(&degrade_cfg);
    assert!(base_deg.is_none());
    let deg = deg_deg.expect("ladders armed");
    assert!(deg.scheduled_resyncs > 0);
    assert!(deg.resync_cost_bits >= deg.scheduled_resyncs * 2 * 16);
    // Functional compression outcomes are identical (a fault-free resync
    // repairs nothing and the ladder never moves)...
    assert_eq!(base_stats.fills, deg_stats.fills);
    assert_eq!(base_stats.wire_bits, deg_stats.wire_bits);
    assert_eq!(deg.demotions, 0);
    // ...but the charged wires diverge the timing fingerprints.
    assert_ne!(base_fp, deg_fp, "resync traffic must cost wire time");
}
