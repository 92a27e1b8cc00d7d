//! Shared timing resources: the off-chip link and the DRAM channel.
//!
//! Both are occupancy models: a request occupies the resource for a
//! data-dependent duration, queueing FCFS behind earlier requests. This is
//! the level of modelling the paper's PriME-based methodology uses for
//! bandwidth contention.

use crate::config::SystemConfig;
use cable_common::Address;
use cable_telemetry::{hop_metric_id, Counter, Event, Histogram, Telemetry, HOP_DEPTH_EDGES};
use std::collections::VecDeque;

/// Hop-keyed wire metrics (`mesh.hop.{N}.*`), resolved once when a link
/// has both a hop id and an enabled telemetry handle.
#[derive(Clone, Debug, Default)]
struct HopWireTelemetry {
    bits: Counter,
    busy_ps: Counter,
    transfers: Counter,
    depth: Histogram,
}

impl HopWireTelemetry {
    fn new(tel: &Telemetry, hop: u32) -> Self {
        HopWireTelemetry {
            bits: tel.counter(hop_metric_id(hop, "bits")),
            busy_ps: tel.counter(hop_metric_id(hop, "busy_ps")),
            transfers: tel.counter(hop_metric_id(hop, "transfers")),
            depth: tel.histogram(hop_metric_id(hop, "depth"), HOP_DEPTH_EDGES),
        }
    }
}

/// A serialized, FCFS off-chip link with a configurable bandwidth share.
///
/// Throughput studies give each group of eight threads a share of the
/// quad-channel bandwidth (§VI-A); single-threaded studies use the full
/// 19.2 GB/s channel.
#[derive(Clone, Debug)]
pub struct SharedLink {
    ps_per_bit: f64,
    setup_ps: u64,
    busy_until_ps: u64,
    bits_sent: u64,
    busy_ps_total: u64,
    /// Transfers that actually moved bits (`wire_bits > 0`), telemetry
    /// or not — `FabricSim::hop_stats` reads this directly.
    transfers: u64,
    tel: Telemetry,
    /// Mesh-hop id, when this link models one point-to-point mesh wire.
    /// Set by `FabricSim`; hop links trace [`Event::MeshHop`] slices
    /// (with queue depth) instead of [`Event::LinkBusy`].
    hop: Option<u32>,
    /// Resolved hop metric handles, present only when a hop id is set
    /// AND telemetry is enabled.
    hop_tel: Option<HopWireTelemetry>,
    /// Completion times of in-flight transfers, maintained only while a
    /// hop id is set AND telemetry is enabled (queue-depth observation).
    pending: VecDeque<u64>,
}

impl SharedLink {
    /// Creates a link with `bytes_per_sec` of bandwidth and a fixed setup
    /// latency per transfer.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is not positive.
    #[must_use]
    pub fn new(bytes_per_sec: f64, setup_ps: u64) -> Self {
        assert!(bytes_per_sec > 0.0, "link bandwidth must be positive");
        SharedLink {
            ps_per_bit: 1e12 / (bytes_per_sec * 8.0),
            setup_ps,
            busy_until_ps: 0,
            bits_sent: 0,
            busy_ps_total: 0,
            transfers: 0,
            tel: Telemetry::disabled(),
            hop: None,
            hop_tel: None,
            pending: VecDeque::new(),
        }
    }

    /// Attaches a [`Telemetry`] handle; every subsequent occupancy interval
    /// is recorded as an [`Event::LinkBusy`] stamped at its own start time.
    /// Timing is unaffected (disabled handles cost one branch).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
        self.rebuild_hop_tel();
    }

    /// Marks this link as mesh hop `hop`. Occupancy intervals are then
    /// traced as [`Event::MeshHop`] carrying the instantaneous queue
    /// depth, and the wire's bits / busy time / transfers / queue depths
    /// publish under the hop-keyed metric ids (`mesh.hop.{hop}.*`), so
    /// per-hop contention is visible in `cable report`'s mesh lane and
    /// hop table. Timing is unchanged.
    pub fn set_hop(&mut self, hop: u32) {
        self.hop = Some(hop);
        self.rebuild_hop_tel();
    }

    fn rebuild_hop_tel(&mut self) {
        self.hop_tel = match self.hop {
            Some(hop) if self.tel.is_enabled() => Some(HopWireTelemetry::new(&self.tel, hop)),
            _ => None,
        };
    }

    /// Full-channel link from the Table IV configuration.
    #[must_use]
    pub fn from_config(config: &SystemConfig) -> Self {
        SharedLink::new(config.link_bytes_per_sec(), config.link_setup_ps)
    }

    /// Occupies the link for `wire_bits` starting no earlier than `now_ps`.
    /// Returns the completion time (including setup latency).
    pub fn transfer(&mut self, now_ps: u64, wire_bits: u64) -> u64 {
        let start = now_ps.max(self.busy_until_ps);
        let duration = (wire_bits as f64 * self.ps_per_bit) as u64;
        self.busy_until_ps = start + duration;
        self.bits_sent += wire_bits;
        self.busy_ps_total += duration;
        if wire_bits > 0 {
            self.transfers += 1;
            match self.hop {
                Some(hop) if self.tel.is_enabled() => {
                    // Queue depth observed at arrival: transfers still in
                    // flight when this one was issued.
                    while self.pending.front().is_some_and(|&done| done <= now_ps) {
                        self.pending.pop_front();
                    }
                    let depth = self.pending.len() as u32;
                    self.tel.record_at(
                        start,
                        Event::MeshHop {
                            hop,
                            depth,
                            start_ps: start,
                            dur_ps: duration,
                        },
                    );
                    self.pending.push_back(self.busy_until_ps);
                    if let Some(ht) = &self.hop_tel {
                        ht.bits.add(wire_bits);
                        ht.busy_ps.add(duration);
                        ht.transfers.inc();
                        ht.depth.record(u64::from(depth));
                    }
                }
                Some(_) => {}
                None => self.tel.record_at(
                    start,
                    Event::LinkBusy {
                        start_ps: start,
                        dur_ps: duration,
                    },
                ),
            }
        }
        self.busy_until_ps + self.setup_ps
    }

    /// Total bits transferred.
    #[must_use]
    pub fn bits_sent(&self) -> u64 {
        self.bits_sent
    }

    /// Transfers that moved at least one bit.
    #[must_use]
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Link utilization over `elapsed_ps` of simulated time.
    #[must_use]
    pub fn utilization(&self, elapsed_ps: u64) -> f64 {
        if elapsed_ps == 0 {
            0.0
        } else {
            (self.busy_ps_total as f64 / elapsed_ps as f64).min(1.0)
        }
    }

    /// The time the link becomes free.
    #[must_use]
    pub fn busy_until(&self) -> u64 {
        self.busy_until_ps
    }

    /// Pure serialization time for `bits` at this link's bandwidth,
    /// excluding setup latency and queueing. Applies the same `f64 ->
    /// u64` truncation as [`SharedLink::transfer`], so latency-span
    /// arithmetic built on differences of this value is exact.
    #[must_use]
    pub fn serialize_ps(&self, bits: u64) -> u64 {
        (bits as f64 * self.ps_per_bit) as u64
    }

    /// Cumulative busy time in picoseconds (utilization sampling).
    #[must_use]
    pub fn busy_ps_total(&self) -> u64 {
        self.busy_ps_total
    }
}

/// An FCFS, closed-page DDR3 channel with banked parallelism.
///
/// Closed-page policy: every access pays activate (tRCD) + CAS (CL) before
/// data, then precharge (tRP) occupies the bank. The shared data bus
/// serializes 64-byte bursts at 12.8 GB/s.
#[derive(Clone, Debug)]
pub struct DramModel {
    timing_step_ps: u64,
    burst_ps: u64,
    /// Fixed controller/PHY overhead per access (queue arbitration,
    /// command scheduling, return path) — 20 ns.
    controller_ps: u64,
    bank_busy_until: Vec<u64>,
    bus_busy_until: u64,
    accesses: u64,
    tel: Telemetry,
}

impl DramModel {
    /// Creates a channel from the Table IV configuration.
    #[must_use]
    pub fn from_config(config: &SystemConfig) -> Self {
        DramModel {
            timing_step_ps: config.dram_timing_step_ps,
            burst_ps: (64.0 / config.dram_bus_bytes_per_sec * 1e12) as u64,
            controller_ps: 20_000,
            bank_busy_until: vec![0; config.dram_banks],
            bus_busy_until: 0,
            accesses: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attaches a [`Telemetry`] handle; every subsequent access is recorded
    /// as an [`Event::DramBusy`] covering its bank occupancy. Timing is
    /// unaffected.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Performs one 64-byte access at `now_ps`; returns data-ready time.
    pub fn access(&mut self, now_ps: u64, addr: Address) -> u64 {
        self.accesses += 1;
        let bank = (addr.line_number() % self.bank_busy_until.len() as u64) as usize;
        // Controller/PHY overhead, then closed page: ACT + CAS before data.
        let start = (now_ps + self.controller_ps).max(self.bank_busy_until[bank]);
        let data_ready = start + 2 * self.timing_step_ps;
        // Data bus burst serializes across banks.
        let bus_start = data_ready.max(self.bus_busy_until);
        self.bus_busy_until = bus_start + self.burst_ps;
        // Precharge occupies the bank afterwards.
        self.bank_busy_until[bank] = bus_start + self.burst_ps + self.timing_step_ps;
        self.tel.record_at(
            start,
            Event::DramBusy {
                start_ps: start,
                dur_ps: self.bank_busy_until[bank] - start,
            },
        );
        bus_start + self.burst_ps
    }

    /// Total accesses serviced.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_serializes_transfers() {
        let mut link = SharedLink::new(19.2e9, 20_000);
        // 528 bits at 19.2 GB/s = 3437 ps + 20 ns setup.
        let first = link.transfer(0, 528);
        assert_eq!(first, 3_437 + 20_000);
        // A transfer issued at t=0 queues behind the first.
        let second = link.transfer(0, 528);
        assert_eq!(second, 2 * 3_437 + 20_000);
        assert_eq!(link.bits_sent(), 1056);
    }

    #[test]
    fn narrower_share_is_slower() {
        let mut full = SharedLink::new(19.2e9, 0);
        let mut eighth = SharedLink::new(19.2e9 / 8.0, 0);
        assert!(eighth.transfer(0, 512) > full.transfer(0, 512));
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut link = SharedLink::new(19.2e9, 0);
        link.transfer(0, 19_200); // 1e12 * 19200/(19.2e9*8) = 125000 ps
        assert!((link.utilization(250_000) - 0.5).abs() < 0.01);
        assert_eq!(link.utilization(0), 0.0);
    }

    #[test]
    fn hop_links_trace_mesh_slices_with_queue_depth() {
        let mut link = SharedLink::new(19.2e9, 0);
        let tel = Telemetry::enabled();
        link.set_telemetry(tel.clone());
        link.set_hop(7);
        let plain_done = {
            let mut plain = SharedLink::new(19.2e9, 0);
            plain.transfer(0, 528);
            plain.transfer(0, 528);
            plain.transfer(10_000, 528)
        };
        link.transfer(0, 528);
        link.transfer(0, 528); // queues behind the first: depth 1
        let done = link.transfer(10_000, 528); // both expired by now: depth 0
        assert_eq!(done, plain_done, "hop tagging must not change timing");
        let depths: Vec<(u32, u32)> = tel
            .events()
            .iter()
            .filter_map(|te| match te.event {
                Event::MeshHop { hop, depth, .. } => Some((hop, depth)),
                _ => None,
            })
            .collect();
        assert_eq!(depths, vec![(7, 0), (7, 1), (7, 0)]);
        assert!(
            !tel.events()
                .iter()
                .any(|te| matches!(te.event, Event::LinkBusy { .. })),
            "hop links must not double-trace as link_busy"
        );
    }

    #[test]
    fn hop_links_publish_hop_keyed_metrics() {
        let mut link = SharedLink::new(19.2e9, 0);
        let tel = Telemetry::enabled();
        // Order-independent: hop may be tagged before telemetry attaches.
        link.set_hop(5);
        link.set_telemetry(tel.clone());
        link.transfer(0, 528);
        link.transfer(0, 528); // queues: depth 1
        let snap = tel.snapshot();
        assert_eq!(snap.counter(hop_metric_id(5, "bits")), Some(1_056));
        assert_eq!(snap.counter(hop_metric_id(5, "transfers")), Some(2));
        assert_eq!(
            snap.counter(hop_metric_id(5, "busy_ps")),
            Some(link.busy_ps_total())
        );
        assert_eq!(link.transfers(), 2);
        // Untagged links publish nothing hop-keyed.
        let mut plain = SharedLink::new(19.2e9, 0);
        let tel2 = Telemetry::enabled();
        plain.set_telemetry(tel2.clone());
        plain.transfer(0, 528);
        assert!(tel2
            .snapshot()
            .metrics
            .iter()
            .all(|m| !format!("{m:?}").contains("mesh.hop.")));
    }

    #[test]
    fn dram_bank_parallelism() {
        let cfg = SystemConfig::paper_defaults();
        let mut dram = DramModel::from_config(&cfg);
        // Two accesses to different banks overlap their ACT+CAS, differing
        // only by the bus burst; two to the same bank serialize further.
        let a = dram.access(0, Address::from_line_number(0));
        let b = dram.access(0, Address::from_line_number(1));
        assert_eq!(b - a, 5_000); // one 64B burst at 12.8 GB/s
        let mut dram2 = DramModel::from_config(&cfg);
        let a2 = dram2.access(0, Address::from_line_number(0));
        let b2 = dram2.access(0, Address::from_line_number(16)); // same bank
        assert!(b2 - a2 > 5_000);
    }

    #[test]
    fn dram_latency_is_tens_of_ns() {
        let cfg = SystemConfig::paper_defaults();
        let mut dram = DramModel::from_config(&cfg);
        let done = dram.access(0, Address::from_line_number(3));
        // controller (20 ns) + ACT + CAS (22.5 ns) + burst (5 ns).
        assert_eq!(done, 47_500);
        assert_eq!(dram.accesses(), 1);
    }
}
