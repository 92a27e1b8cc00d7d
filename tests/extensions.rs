//! Integration tests for the paper's §IV extensions through the facade:
//! the out-of-order-link eviction race (§IV-A), the non-inclusive mode
//! (§IV-C) and the pooled super-WMT (§IV-D).

use cable::cache::CacheGeometry;
use cable::common::{Address, LineData};
use cable::core::ooo::{OooLink, Resolution};
use cable::core::{CableConfig, CableLink, Link, SuperWmt, TransferKind};
use cable::trace::WorkloadGen;
use cable_cache::LineId;

#[test]
fn non_inclusive_link_handles_real_workload_traffic() {
    let p = cable::trace::by_name("omnetpp").unwrap();
    let mut cfg = CableConfig::non_inclusive();
    cfg.data_access_count = 6;
    let mut link = CableLink::new(cfg);
    let mut gen = WorkloadGen::new(p, 0);
    for _ in 0..20_000 {
        let a = gen.next_access();
        let m = gen.content(a.addr);
        if a.is_write {
            link.request_exclusive(a.addr, m);
            let d = gen.store_data(a.addr);
            link.remote_store(a.addr, d);
        } else {
            link.request(a.addr, m);
        }
    }
    let s = link.stats();
    assert!(s.fills > 1_000);
    // Fill-path DIFFs still work; the hierarchy just loses write-back refs.
    assert!(s.diff_transfers > 0, "fills must still find references");
    assert!(s.compression_ratio() > 1.0);
}

#[test]
fn non_inclusive_compression_is_close_to_inclusive_on_reads() {
    // §IV-C: "non-inclusiveness is fundamentally not a problem" for the
    // request path; only write-backs lose references.
    let p = cable::trace::by_name("dealII").unwrap();
    let run = |cfg: CableConfig| {
        let mut link = CableLink::new(cfg);
        let mut gen = WorkloadGen::new(p, 0);
        for _ in 0..25_000 {
            let a = gen.next_access();
            let m = gen.content(a.addr);
            link.request(a.addr, m); // read-only stream
        }
        link.stats().compression_ratio()
    };
    let inclusive = run(CableConfig::memory_link_default());
    let non_inclusive = run(CableConfig::non_inclusive());
    assert!(
        non_inclusive > inclusive * 0.9,
        "non-inclusive {non_inclusive:.2} vs inclusive {inclusive:.2}"
    );
}

#[test]
fn ooo_race_monte_carlo() {
    // Randomized §IV-A schedule: sends, evictions and out-of-order
    // deliveries interleave; with a sufficiently large eviction buffer no
    // reference is ever lost.
    use cable::common::SplitMix64;
    let mut l = OooLink::new(CacheGeometry::new(16 << 10, 4), 512);
    let mut rng = SplitMix64::new(123);
    let mut resident: Vec<(Address, LineData, LineId)> = Vec::new();
    for i in 0..400u64 {
        match rng.next_bounded(4) {
            0 => {
                // Install a fresh reference line; prune anything the fill
                // displaced (its copy moved to the eviction buffer).
                let addr = Address::from_line_number(i * 7 + 1);
                let data = LineData::from_words(core::array::from_fn(|k| {
                    0x0400_0000 + (i as u32) * 64 + k as u32
                }));
                let (lid, displaced) = l.install(addr, data);
                if let Some(victim) = displaced {
                    resident.retain(|(a, _, _)| *a != victim);
                }
                resident.push((addr, data, lid));
            }
            1 if !resident.is_empty() => {
                // Send a response referencing a (possibly stale) line.
                let (_, data, lid) = resident[rng.next_bounded(resident.len() as u64) as usize];
                let mut target = data;
                target.set_word(3, rng.next_u32() | 0x0100_0000);
                l.send(
                    Address::from_line_number(100_000 + i),
                    target,
                    &[(lid, data)],
                );
            }
            2 if !resident.is_empty() => {
                // Evict a reference while responses may be in flight.
                let idx = rng.next_bounded(resident.len() as u64) as usize;
                let (addr, _, _) = resident.swap_remove(idx);
                l.evict_remote(addr);
            }
            _ => {
                // Deliver a random in-flight response out of order.
                if l.in_flight() > 0 {
                    let idx = rng.next_bounded(l.in_flight() as u64) as usize;
                    let (res, data) = l.deliver(idx).unwrap();
                    assert_ne!(res, Resolution::Lost, "step {i}");
                    assert!(data.is_some());
                }
            }
        }
    }
    // Drain the queue.
    while l.in_flight() > 0 {
        let (res, _) = l.deliver(0).unwrap();
        assert_ne!(res, Resolution::Lost);
    }
    let (_, from_buffer, lost) = l.resolution_counts();
    assert_eq!(lost, 0);
    assert!(from_buffer > 0, "the race must actually have occurred");
}

#[test]
fn super_wmt_serves_a_four_chip_fabric() {
    // Six PTP links of a fully connected 4-chip system (§V-B) sharing one
    // pooled WMT sized at a quarter of the aggregate.
    let geom = CacheGeometry::new(1 << 20, 8);
    let capacity = (geom.lines() as usize * 6) / 4;
    let mut pool = SuperWmt::new(capacity - capacity % 4, 4, geom, geom);
    let mut rng = cable::common::SplitMix64::new(9);
    // Populate all six links, then check that recent mappings resolve.
    let mut recent = Vec::new();
    for i in 0..50_000u64 {
        let link = rng.next_bounded(6) as u8;
        let index = rng.next_bounded(geom.sets()) as u32;
        let home = LineId::new(index, rng.next_bounded(8) as u8);
        let remote = LineId::new(index, rng.next_bounded(8) as u8);
        pool.update(link, remote, home);
        if i >= 49_000 {
            recent.push((link, home, remote));
        }
    }
    let resolved = recent
        .iter()
        .filter(|(link, home, _)| pool.remote_lid_of(*link, *home).is_some())
        .count();
    assert!(
        resolved as f64 > 0.9 * recent.len() as f64,
        "only {resolved}/{} recent mappings resolved",
        recent.len()
    );
    let (_, _, evictions) = pool.stats();
    assert!(evictions > 0, "competitive sharing must evict");
}

#[test]
fn compression_toggle_is_visible_through_the_stack() {
    // §VI-D control knob: raw transfers while disabled.
    let mut link = CableLink::new(CableConfig::memory_link_default());
    link.set_compression_enabled(false);
    let t = link.request(Address::new(0x40), LineData::zeroed());
    assert_eq!(t.kind(), TransferKind::Raw);
    link.set_compression_enabled(true);
    let t = link.request(Address::new(0x80), LineData::zeroed());
    assert_eq!(t.kind(), TransferKind::Unseeded);
}
