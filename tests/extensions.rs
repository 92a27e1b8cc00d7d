//! Integration tests for the paper's extensions through the facade: the
//! non-inclusive mode (§IV-C) and the compression on/off knob (§VI-D). The
//! §IV-A eviction race is covered on `CableLink` by cable-core's
//! `fault_injection` suite.

use cable::common::{Address, LineData};
use cable::core::{CableConfig, CableLink, Link, TransferKind};
use cable::trace::WorkloadGen;

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
