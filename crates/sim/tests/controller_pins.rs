//! Exact outcomes of the two controllers `cable-sim` runs, pinned so a
//! restructuring of either one cannot move a decision:
//!
//! - the closed fault loop: a degrade-armed 3-chip mcf fabric under a
//!   fault rate that walks the ladder, traced through an enabled
//!   telemetry handle (its ladder stats, rungs, timing fingerprint, fault
//!   frames and the values of every `degrade.demote`/`degrade.promote`
//!   marker);
//! - the §VI-D hysteresis: one povray thread under the paper's 1 ms
//!   `OnOffController` (its toggles, final decision, elapsed time and
//!   wire bits).
//!
//! Both runs are small enough for the quick test step.

use cable_compress::EngineKind;
use cable_core::FaultConfig;
use cable_sim::{
    DegradePolicy, DramModel, FabricSim, OnOffController, Scheme, SharedLink, SystemConfig,
    ThreadSim,
};
use cable_telemetry::{Event, Telemetry};
use cable_trace::by_name;

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    })
}

#[test]
fn degrade_armed_fabric_is_pinned() {
    let cfg = SystemConfig {
        l1_bytes: 4 << 10,
        l1_ways: 2,
        l2_bytes: 16 << 10,
        l2_ways: 4,
        llc_bytes: 16 << 10,
        llc_ways: 4,
        l4_bytes: 64 << 10,
        l4_ways: 8,
        fault: Some(FaultConfig::with_rate(0xB00, 1e-2)),
        degrade: Some(DegradePolicy {
            window_ops: 64,
            resync_interval_ops: 256,
            ..DegradePolicy::paper_defaults()
        }),
        ..SystemConfig::paper_defaults()
    };
    let mut sim = FabricSim::with_config(
        by_name("mcf").unwrap(),
        Scheme::Cable(EngineKind::Lbe),
        3,
        19.2e9,
        &cfg,
    );
    let tel = Telemetry::enabled();
    sim.set_telemetry(tel.clone());
    sim.run(6_000);

    let markers: Vec<String> = tel
        .events()
        .iter()
        .filter_map(|te| match te.event {
            Event::Marker {
                name: name @ ("degrade.demote" | "degrade.promote"),
                value,
            } => Some(format!("{}{value}", &name[8..9])),
            _ => None,
        })
        .collect();
    let deg = sim.degradation_stats().expect("ladder armed");
    assert_eq!(
        markers.len() as u64,
        deg.demotions + deg.promotions,
        "every transition left a marker"
    );
    assert_eq!(
        format!("{deg:?}"),
        "DegradationStats { windows: 75, demotions: 35, promotions: 18, \
         windows_compressed: 9, windows_raw_only: 26, windows_link_off: 40, \
         scheduled_resyncs: 17, resync_repairs: 114, resync_cost_bits: 2464 }"
    );
    assert_eq!(
        format!("{:?}", sim.degrade_levels()),
        "[LinkOff, LinkOff, LinkOff, LinkOff, RawOnly, LinkOff, LinkOff, LinkOff, LinkOff]"
    );
    let fp = sim.timing_fingerprint();
    assert_eq!((fp.len(), fnv1a(fp)), (30, 0x6566_6d18_112e_461a));
    assert_eq!(
        format!("{:?}", sim.fault_stats()),
        "Some(FaultStats { frames_sent: 59886, injected_frames: 59455, \
         injected_bit_flips: 304930, injected_truncations: 12136, dropped_notices: 402, \
         delayed_notices: 109, nacks: 59455, fallback_raw: 275, retransmitted_bits: 33920720, \
         escalations: 1706, reliable_frames: 2532, evict_buffer_hits: 0, resyncs: 17, \
         resync_repairs: 114 })"
    );
    // `d`/`p` for a demotion/promotion, then the rung it moved to.
    assert_eq!(
        markers.join(" "),
        "d1 d1 d1 d1 d1 d1 d1 d1 d2 d2 d2 d1 d2 d2 d2 d2 d2 d2 p1 p1 p1 p1 p1 p1 p1 d2 d2 p1 \
         d2 p1 d2 d2 d2 d2 d2 d2 p1 p1 p1 p1 p1 p1 p1 d2 d2 d2 p1 d2 d2 p1 d2 d2 d2"
    );
}

#[test]
fn paper_hysteresis_on_one_thread_is_pinned() {
    let cfg = SystemConfig::paper_defaults();
    let mut thread = ThreadSim::new(
        by_name("povray").unwrap(),
        0,
        Scheme::Cable(EngineKind::Lbe),
        cfg,
    );
    let mut wire = SharedLink::from_config(&cfg);
    let mut dram = DramModel::from_config(&cfg);
    let mut ctl = OnOffController::new(cfg.link_bytes_per_sec());
    for _ in 0..250_000 {
        thread.step(&mut wire, &mut dram);
        let now = thread.now_ps();
        ctl.observe(now, thread.link_mut());
    }
    assert_eq!(
        (
            ctl.toggles(),
            ctl.enabled(),
            thread.now_ps(),
            thread.link().stats().wire_bits
        ),
        (1, false, 2_247_927_062, 410_208)
    );
}
