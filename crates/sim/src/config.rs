//! System configuration (Table IV).

use crate::adaptive::DegradePolicy;
use cable_core::FaultConfig;

/// Picoseconds per core cycle at 2.0 GHz.
pub const CORE_CYCLE_PS: u64 = 500;

/// The Table IV system configuration, in model units.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SystemConfig {
    /// Core frequency in GHz (2.0).
    pub core_ghz: f64,
    /// L1: 32 KB per-core private, 4-way, single-cycle.
    pub l1_bytes: u64,
    /// L1 associativity.
    pub l1_ways: u32,
    /// L1 hit latency in core cycles.
    pub l1_latency_cy: u64,
    /// L2: 128 KB per-core private, 8-way, 4-cycle.
    pub l2_bytes: u64,
    /// L2 associativity.
    pub l2_ways: u32,
    /// L2 hit latency in core cycles.
    pub l2_latency_cy: u64,
    /// LLC: 1 MB per-core share, 8-way, 30-cycle.
    pub llc_bytes: u64,
    /// LLC associativity.
    pub llc_ways: u32,
    /// LLC hit latency in core cycles.
    pub llc_latency_cy: u64,
    /// DRAM buffer (L4): 4 MB per-core share, 16-way, 30-cycle.
    pub l4_bytes: u64,
    /// L4 associativity.
    pub l4_ways: u32,
    /// L4 hit latency in core cycles.
    pub l4_latency_cy: u64,
    /// Off-chip link width in bits (16).
    pub link_width_bits: u32,
    /// Off-chip link frequency in GHz (9.6 → 19.2 GB/s).
    pub link_ghz: f64,
    /// Off-chip link setup latency in picoseconds (20 ns).
    pub link_setup_ps: u64,
    /// DRAM link: 64-bit @ 1.6 GHz (12.8 GB/s).
    pub dram_bus_bytes_per_sec: f64,
    /// DDR3-1600 9-9-9 sub-timings: one timing step (tRCD = CL = tRP) in
    /// picoseconds (9 × 1.25 ns).
    pub dram_timing_step_ps: u64,
    /// Banks visible to the FCFS controller (two ranks × eight banks).
    pub dram_banks: usize,
    /// Fault injection on the off-chip link (`None` = reliable wires).
    /// When set, every CABLE link in the system runs with CRC-guarded
    /// frames and NACK/retry recovery; retransmissions consume shared-link
    /// bandwidth like any other wire bits.
    pub fault: Option<FaultConfig>,
    /// Closed-loop degradation policy (`None` = no ladder). When set,
    /// every CABLE `FabricSim` pipeline gets its own
    /// [`DegradeLadder`](crate::DegradeLadder) stepping the
    /// `Compressed → RawOnly → LinkOff` ladder on its NACK-window
    /// observables and firing scheduled resyncs whose wire cost is
    /// charged to link busy time.
    pub degrade: Option<DegradePolicy>,
    /// Fault injection on the mesh (PTP) coherence pipelines. When set it
    /// *overrides* `fault` on those pipelines: each remote `(requester,
    /// home)` pipeline is armed with a schedule decorrelated per hop and
    /// per direction from this master seed, so `cable report --hops` can
    /// localize a lossy wire. Chip-local pipelines are unaffected.
    pub mesh_fault: Option<FaultConfig>,
    /// Restricts `mesh_fault` to the single mesh wire with this
    /// triangular pair index (`None` = every wire) — the
    /// asymmetric-fault localization scenario.
    pub mesh_fault_hop: Option<u32>,
}

impl SystemConfig {
    /// Table IV verbatim.
    #[must_use]
    pub fn paper_defaults() -> Self {
        SystemConfig {
            core_ghz: 2.0,
            l1_bytes: 32 << 10,
            l1_ways: 4,
            l1_latency_cy: 1,
            l2_bytes: 128 << 10,
            l2_ways: 8,
            l2_latency_cy: 4,
            llc_bytes: 1 << 20,
            llc_ways: 8,
            llc_latency_cy: 30,
            l4_bytes: 4 << 20,
            l4_ways: 16,
            l4_latency_cy: 30,
            link_width_bits: 16,
            link_ghz: 9.6,
            link_setup_ps: 20_000,
            dram_bus_bytes_per_sec: 12.8e9,
            dram_timing_step_ps: 11_250,
            dram_banks: 16,
            fault: None,
            degrade: None,
            mesh_fault: None,
            mesh_fault_hop: None,
        }
    }

    /// Off-chip link bandwidth in bytes per second (19.2 GB/s default).
    #[must_use]
    pub fn link_bytes_per_sec(&self) -> f64 {
        f64::from(self.link_width_bits) / 8.0 * self.link_ghz * 1e9
    }

    /// Converts core cycles to picoseconds.
    #[must_use]
    pub fn cycles_to_ps(&self, cycles: u64) -> u64 {
        (cycles as f64 * 1000.0 / self.core_ghz) as u64
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Compression latencies of Table IV, in core cycles
/// `(compress, decompress)`. CABLE's compress side includes the 16-cycle
/// worst-case search (§IV-D: 48 cycles end to end).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressionLatency {
    /// No compression.
    None,
    /// CPACK: 8/8.
    Cpack,
    /// gzip (LZSS): 64/32.
    Gzip,
    /// CABLE: 32/16.
    Cable,
}

impl CompressionLatency {
    /// `(compress, decompress)` cycles.
    #[must_use]
    pub fn cycles(self) -> (u64, u64) {
        match self {
            CompressionLatency::None => (0, 0),
            CompressionLatency::Cpack => (8, 8),
            CompressionLatency::Gzip => (64, 32),
            CompressionLatency::Cable => (32, 16),
        }
    }

    /// Total added latency per transfer in core cycles.
    #[must_use]
    pub fn total_cycles(self) -> u64 {
        let (c, d) = self.cycles();
        c + d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_bandwidth_is_19_2_gbps() {
        let cfg = SystemConfig::paper_defaults();
        assert!((cfg.link_bytes_per_sec() - 19.2e9).abs() < 1e6);
    }

    #[test]
    fn cycle_conversion() {
        let cfg = SystemConfig::paper_defaults();
        assert_eq!(cfg.cycles_to_ps(1), CORE_CYCLE_PS);
        assert_eq!(cfg.cycles_to_ps(48), 24_000); // CABLE's 48cy = 24ns
    }

    #[test]
    fn cable_end_to_end_latency_is_48_cycles() {
        assert_eq!(CompressionLatency::Cable.total_cycles(), 48);
        assert_eq!(CompressionLatency::Cpack.total_cycles(), 16);
        assert_eq!(CompressionLatency::Gzip.total_cycles(), 96);
        assert_eq!(CompressionLatency::None.total_cycles(), 0);
    }

    #[test]
    fn ddr3_1600_timings() {
        let cfg = SystemConfig::paper_defaults();
        // 9 cycles at 1.25 ns = 11.25 ns.
        assert_eq!(cfg.dram_timing_step_ps, 11_250);
        assert_eq!(cfg.dram_banks, 16);
    }
}
