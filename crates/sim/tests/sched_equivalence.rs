//! Busy-time accounting of the two shared resources the event
//! scheduler is built on: the FCFS off-chip link and the DRAM model.
//! The heap-versus-linear-scan equivalence tests live next to their
//! oracles: `src/run_equivalence.rs` for the fabric loop,
//! `src/throughput.rs` for the group loop (`run_group`).

use cable_sim::{DramModel, SharedLink, SystemConfig};

#[test]
fn shared_link_busy_time_accounting_is_pinned() {
    // 19.2 GB/s ⇒ 1e12 / (19.2e9 · 8) ps per bit; setup latency is added
    // to the returned completion time but does not occupy the wire.
    let mut link = SharedLink::new(19.2e9, 20_000);
    assert_eq!(link.transfer(0, 1_536), 10_000 + 20_000);
    assert_eq!(link.busy_until(), 10_000);
    // Issued mid-flight: queues FCFS behind the first transfer.
    assert_eq!(link.transfer(5_000, 1_536), 20_000 + 20_000);
    // Issued after an idle gap: starts at its own now_ps, the gap is not
    // counted as busy time.
    assert_eq!(link.transfer(100_000, 768), 105_000 + 20_000);
    assert_eq!(link.busy_until(), 105_000);
    assert_eq!(link.bits_sent(), 3_840);
    assert_eq!(link.busy_ps_total(), 25_000);
}

#[test]
fn dram_busy_time_accounting_is_pinned() {
    // Paper defaults: 20 ns controller, 11.25 ns ACT = CAS, 5 ns burst at
    // 12.8 GB/s, banks = line_number mod dram_banks.
    let cfg = SystemConfig::paper_defaults();
    let mut dram = DramModel::from_config(&cfg);
    let a = |n: u64| cable_common::Address::from_line_number(n);
    // Cold bank: 20_000 + 2·11_250 + 5_000.
    assert_eq!(dram.access(0, a(0)), 47_500);
    // Different bank, same instant: ACT+CAS overlap, the shared data bus
    // serializes the bursts — exactly one burst later.
    assert_eq!(dram.access(0, a(1)), 52_500);
    // Same bank as the first access: waits out burst + precharge
    // (bank free at 47_500 + 11_250), then pays ACT+CAS and queues its
    // burst behind the bus.
    assert_eq!(dram.access(0, a(cfg.dram_banks as u64)), 86_250);
    assert_eq!(dram.accesses(), 3);
}
