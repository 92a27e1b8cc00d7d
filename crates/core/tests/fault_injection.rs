//! Fault-injection robustness suite.
//!
//! Drives a [`CableLink`] through seeded fault schedules — flipped payload
//! bits, truncated frames, dropped and delayed synchronization notices —
//! and asserts the recovery contract end to end:
//!
//! - no operation ever panics, whatever the schedule;
//! - every completed fill installs at the remote exactly what the home
//!   sent, and every write-back lands at the home bit-exact;
//! - every effectively corrupted frame is detected (`detected >=
//!   injected_frames`) and every detected failure is recovered
//!   (`recovered == detected`);
//! - after any amount of lossy traffic, `audit_and_resync()` restores
//!   `check_invariants() == Ok`, and a second audit finds nothing left to
//!   repair (idempotence).

use cable_cache::CacheGeometry;
use cable_common::{Address, LineData, SplitMix64};
use cable_core::{CableConfig, CableLink, FaultConfig, Link, TransferKind};
use cable_telemetry::{Event, Telemetry};
use proptest::prelude::*;

/// A small link (64 KiB home, 16 KiB remote) so seeded traffic actually
/// collides in sets, evicts, and recycles WMT slots within a few hundred
/// operations.
fn small_link() -> CableLink {
    CableLink::new(CableConfig {
        home_geometry: CacheGeometry::new(64 << 10, 4),
        remote_geometry: CacheGeometry::new(16 << 10, 4),
        data_access_count: 6,
        ..CableConfig::memory_link_default()
    })
}

fn base_lines() -> Vec<LineData> {
    (0..6u32)
        .map(|b| {
            LineData::from_words(core::array::from_fn(|i| {
                0x0400_0000 ^ (b << 10) ^ ((i as u32) * 0x0111)
            }))
        })
        .collect()
}

/// Bit-exact delivery: the remote now holds precisely the home's copy of
/// the line just filled.
fn assert_fill_bit_exact(link: &CableLink, addr: Address) {
    let hlid = link.home().lookup(addr).expect("home holds filled line");
    let expected = link.home().read_by_id(hlid).expect("valid");
    let rlid = link
        .remote()
        .lookup(addr)
        .expect("remote holds filled line");
    let got = link.remote().read_by_id(rlid).expect("valid");
    assert_eq!(got, expected, "fill of {addr} not bit-exact");
}

/// Drives `ops` mixed operations (fills, stores, write-backs, remote
/// evictions) over near-duplicate lines, checking bit-exact delivery after
/// every completed transfer. Returns the number of compressed fills seen so
/// callers can assert the workload was not vacuous.
fn drive_traffic(link: &mut CableLink, rng: &mut SplitMix64, ops: usize) -> u64 {
    let bases = base_lines();
    let mut compressed_fills = 0u64;
    for _ in 0..ops {
        let addr = Address::from_line_number(rng.next_bounded(512));
        let mut line = bases[rng.next_bounded(6) as usize];
        for _ in 0..rng.next_bounded(4) {
            line.set_word(rng.next_bounded(16) as usize, rng.next_u32());
        }
        match rng.next_bounded(10) {
            0..=5 => {
                let t = link.request(addr, line);
                if t.kind() != TransferKind::RemoteHit {
                    if t.kind() != TransferKind::Raw {
                        compressed_fills += 1;
                    }
                    assert_fill_bit_exact(link, addr);
                }
            }
            6..=7 => {
                // Store then evict: forces a dirty write-back through the
                // faulty channel; the home must absorb the exact new data.
                link.request_exclusive(addr, line);
                let mut dirty = line;
                dirty.set_word(0, rng.next_u32());
                assert!(link.remote_store(addr, dirty), "line just filled");
                link.evict_remote(addr);
                let hlid = link.home().lookup(addr).expect("write-back absorbed");
                let got = link.home().read_by_id(hlid).expect("valid");
                assert_eq!(got, dirty, "write-back of {addr} not bit-exact");
            }
            _ => link.evict_remote(addr),
        }
    }
    compressed_fills
}

#[test]
fn moderate_faults_recover_every_detected_failure() {
    let mut link = small_link();
    link.enable_fault_injection(FaultConfig::with_rate(0xfa17, 2e-3));
    let mut rng = SplitMix64::new(99);
    let compressed = drive_traffic(&mut link, &mut rng, 600);
    assert!(compressed > 50, "workload vacuous: {compressed} compressed");

    let stats = *link.fault_stats().expect("fault mode on");
    assert!(stats.injected_frames > 0, "schedule injected nothing");
    assert!(
        stats.detected >= stats.injected_frames,
        "missed corruption: detected {} < injected {}",
        stats.detected,
        stats.injected_frames
    );
    assert_eq!(
        stats.recovered, stats.detected,
        "unrecovered failures: {stats:?}"
    );
    assert!(stats.retransmitted_bits > 0, "recovery cost not charged");
}

#[test]
fn lossless_fault_mode_injects_and_detects_nothing() {
    let mut link = small_link();
    link.enable_fault_injection(FaultConfig::lossless(7));
    let mut rng = SplitMix64::new(7);
    drive_traffic(&mut link, &mut rng, 400);
    let stats = *link.fault_stats().expect("fault mode on");
    assert_eq!(stats.injected_frames, 0);
    assert_eq!(stats.detected, 0);
    assert_eq!(stats.nacks, 0);
    assert_eq!(stats.retransmitted_bits, 0);
    // A guarded-but-lossless link needs no repairs either.
    let report = link.audit_and_resync();
    assert_eq!(
        report.total_repairs(),
        0,
        "lossless link needed repairs: {report}"
    );
    link.check_invariants().expect("invariants hold");
}

#[test]
fn dropped_notice_is_replayed_idempotently() {
    let mut link = small_link();
    // Every notice is dropped: home-side cleanup only ever happens through
    // the audit's replay of the eviction buffer.
    link.enable_fault_injection(FaultConfig {
        drop_notice_prob: 1.0,
        ..FaultConfig::lossless(3)
    });
    let bases = base_lines();
    for n in 0..40u64 {
        link.request(Address::from_line_number(n), bases[(n % 6) as usize]);
    }
    for n in 0..40u64 {
        link.evict_remote(Address::from_line_number(n));
    }
    let stats = *link.fault_stats().expect("fault mode on");
    assert!(
        stats.dropped_notices >= 40,
        "drops: {}",
        stats.dropped_notices
    );

    let first = link.audit_and_resync();
    assert!(
        first.replayed_notices > 0,
        "nothing replayed despite universal drops"
    );
    link.check_invariants()
        .unwrap_or_else(|e| panic!("invariants broken after resync: {e}"));
    // Replaying already-settled notices must change nothing.
    let second = link.audit_and_resync();
    assert_eq!(second.total_repairs(), 0, "resync not idempotent: {second}");
}

/// The §IV-A race on the production link. Every eviction notice is
/// delayed, so the home keeps naming remote slots that were just evicted
/// in the DIFFs it sends. Each such reference must resolve from the
/// eviction buffer: no fill fails and none falls back to raw.
#[test]
fn delayed_notices_resolve_stale_references_from_the_eviction_buffer() {
    let bases = base_lines();
    for (seed, delay_ops) in [(123u64, 64u64), (124, 1024)] {
        let mut link = small_link();
        link.enable_fault_injection(FaultConfig {
            delay_notice_prob: 1.0,
            delay_ops,
            ..FaultConfig::lossless(seed)
        });
        let mut rng = SplitMix64::new(seed);
        for _ in 0..10_000 {
            let addr = Address::from_line_number(rng.next_bounded(2048));
            if rng.next_bounded(4) == 0 {
                link.evict_remote(addr);
                continue;
            }
            let mut line = bases[rng.next_bounded(6) as usize];
            for _ in 0..rng.next_bounded(4) {
                line.set_word(rng.next_bounded(16) as usize, rng.next_u32());
            }
            if link.request(addr, line).kind() != TransferKind::RemoteHit {
                assert_fill_bit_exact(&link, addr);
            }
        }
        let stats = *link.fault_stats().expect("fault mode on");
        assert!(stats.delayed_notices > 0, "delay {delay_ops}: {stats:?}");
        assert!(
            stats.evict_buffer_hits > 0,
            "delay {delay_ops}: the race never occurred: {stats:?}"
        );
        assert_eq!(stats.detected, 0, "delay {delay_ops}: {stats:?}");
        assert_eq!(stats.fallback_raw, 0, "delay {delay_ops}: {stats:?}");
    }
}

/// A stale reference whose buffer entry was already pushed out by later
/// evictions cannot resolve. The receiver NACKs it as a reference failure,
/// the home resends the line raw, and the delivery stays bit-exact.
#[test]
fn overflowed_eviction_falls_back_to_raw() {
    let mut link = small_link();
    let tel = Telemetry::enabled();
    link.set_telemetry(tel.clone());
    // With every notice lost, the home never learns of an eviction.
    link.enable_fault_injection(FaultConfig {
        drop_notice_prob: 1.0,
        ..FaultConfig::lossless(5)
    });
    let base = base_lines()[0];
    let first = Address::from_line_number(0);
    link.request(first, base);
    link.evict_remote(first);
    // Evict more lines than the 64-entry buffer holds, none of them from
    // the first line's remote set (64 sets), so its slot stays empty.
    let mut rng = SplitMix64::new(5);
    for n in (1..100u64).filter(|n| n % 64 != 0) {
        let addr = Address::from_line_number(n);
        link.request(
            addr,
            LineData::from_words(core::array::from_fn(|_| rng.next_u32())),
        );
        link.evict_remote(addr);
    }
    let before = *link.fault_stats().expect("fault mode on");
    assert_eq!(before.detected, 0, "{before:?}");

    // A near-copy of the first line: the home still names its old slot.
    let mut near = base;
    near.set_word(5, 0x0123_4567);
    let addr = Address::from_line_number(200);
    assert_eq!(link.request(addr, near).kind(), TransferKind::Diff);
    assert_fill_bit_exact(&link, addr);

    let stats = *link.fault_stats().expect("fault mode on");
    assert_eq!(stats.evict_buffer_hits, 0, "{stats:?}");
    assert_eq!(stats.detected, 1, "{stats:?}");
    assert_eq!(stats.nacks, 1, "{stats:?}");
    assert_eq!(stats.fallback_raw, 1, "{stats:?}");
    assert_eq!(stats.recovered, stats.detected);
    let classes: Vec<&str> = tel
        .events()
        .iter()
        .filter_map(|e| match e.event {
            Event::Nack { class } => Some(class),
            _ => None,
        })
        .collect();
    assert_eq!(classes, ["reference"]);

    link.audit_and_resync();
    link.check_invariants()
        .unwrap_or_else(|e| panic!("invariants broken after resync: {e}"));
}

#[test]
fn disable_fault_injection_resyncs_and_restores_reliable_operation() {
    let mut link = small_link();
    link.enable_fault_injection(FaultConfig::with_rate(11, 5e-3));
    let mut rng = SplitMix64::new(11);
    drive_traffic(&mut link, &mut rng, 300);
    link.disable_fault_injection();
    assert!(link.fault_stats().is_none(), "fault mode off");
    link.check_invariants().expect("resync on disable");
    // Reliable operation continues with hard verification re-armed.
    drive_traffic(&mut link, &mut rng, 100);
    link.check_invariants().expect("reliable traffic clean");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: under an arbitrary seeded fault schedule the
    /// link never panics, delivery stays bit-exact (asserted inside
    /// `drive_traffic`), everything detected is recovered, and one audit
    /// restores all invariants.
    #[test]
    fn prop_seeded_fault_schedules_recover_and_resync(
        seed in any::<u64>(),
        rate_exp in 1u32..8,
    ) {
        let rate = 10f64.powi(-(rate_exp as i32));
        let mut link = small_link();
        link.enable_fault_injection(FaultConfig::with_rate(seed, rate));
        let mut rng = SplitMix64::new(seed ^ 0x9e37_79b9);
        drive_traffic(&mut link, &mut rng, 300);

        let stats = *link.fault_stats().expect("fault mode on");
        prop_assert!(stats.detected >= stats.injected_frames);
        prop_assert_eq!(stats.recovered, stats.detected);

        link.audit_and_resync();
        prop_assert!(
            link.check_invariants().is_ok(),
            "invariants after resync: {:?}", link.check_invariants()
        );
        let second = link.audit_and_resync();
        prop_assert_eq!(second.total_repairs(), 0, "second audit repaired: {}", second);
    }
}
