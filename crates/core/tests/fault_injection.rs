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
                    // Bit-exact delivery: the remote now holds precisely the
                    // home's copy of the line.
                    let hlid = link.home().lookup(addr).expect("home holds filled line");
                    let expected = link.home().read_by_id(hlid).expect("valid");
                    let rlid = link
                        .remote()
                        .lookup(addr)
                        .expect("remote holds filled line");
                    let got = link.remote().read_by_id(rlid).expect("valid");
                    assert_eq!(got, expected, "fill of {addr} not bit-exact");
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
    assert!(report.is_clean(), "lossless link needed repairs: {report}");
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
    assert!(second.is_clean(), "resync not idempotent: {second}");
}

#[test]
fn disable_fault_injection_resyncs_and_restores_reliable_operation() {
    let mut link = small_link();
    link.enable_fault_injection(FaultConfig::with_rate(11, 5e-3));
    let mut rng = SplitMix64::new(11);
    drive_traffic(&mut link, &mut rng, 300);
    link.disable_fault_injection();
    assert!(!link.fault_injection_enabled());
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
        prop_assert!(second.is_clean(), "second audit repaired: {}", second);
    }
}
