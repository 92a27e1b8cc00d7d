//! Activity-to-energy accounting (Fig. 18).

use crate::params::EnergyParams;
use std::fmt;

/// Activity counts collected from a simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ActivityCounts {
    /// L1 accesses.
    pub l1_accesses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// LLC accesses (including CABLE's search/decode data-array reads —
    /// pass those separately in `search_reads` to split the bars).
    pub llc_accesses: u64,
    /// DRAM-buffer (L4) accesses.
    pub buffer_accesses: u64,
    /// DRAM accesses (64-byte granules).
    pub dram_accesses: u64,
    /// Bytes actually moved across the off-chip link (post-compression).
    pub link_bytes: u64,
    /// Compression engine invocations.
    pub compressions: u64,
    /// Decompression engine invocations.
    pub decompressions: u64,
    /// Extra data-array reads performed by the CABLE search/decode path
    /// (the Fig. 18 "COMPRESSION SRAM" component).
    pub search_reads: u64,
    /// NACK control flits sent on the return path (fault mode only; fed
    /// from `FaultStats::nacks`, zero on reliable links).
    pub nack_flits: u64,
    /// Bytes of `link_bytes` that were retransmissions — NACK-triggered
    /// retries and escalations (`FaultStats::retransmitted_bits / 8`).
    /// These bytes are *included* in `link_bytes`; the model splits their
    /// energy into the fault-recovery component instead of the link's.
    pub retransmitted_bytes: u64,
    /// Simulated wall-clock seconds (for static energy).
    pub runtime_s: f64,
}

/// The Fig. 18 energy components, in joules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// SRAM static (leakage) energy of L1/L2/LLC/buffer.
    pub sram_static: f64,
    /// SRAM dynamic energy of the ordinary cache traffic.
    pub sram_dynamic: f64,
    /// DRAM access energy.
    pub dram: f64,
    /// Off-chip link transfer energy.
    pub link: f64,
    /// Compression/decompression engine energy.
    pub engine: f64,
    /// Extra cache reads for search/decode ("COMPRESSION SRAM").
    pub compression_sram: f64,
    /// Fault-recovery overhead: NACK return flits plus retransmitted link
    /// traffic (zero on reliable links, so fault-free breakdowns are
    /// unchanged by this component's existence).
    pub fault_recovery: f64,
}

impl EnergyBreakdown {
    /// Total memory-subsystem energy.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.sram_static
            + self.sram_dynamic
            + self.dram
            + self.link
            + self.engine
            + self.compression_sram
            + self.fault_recovery
    }

    /// This breakdown's total normalized to `baseline`'s total.
    #[must_use]
    pub fn normalized_to(&self, baseline: &EnergyBreakdown) -> f64 {
        let b = baseline.total();
        if b == 0.0 {
            1.0
        } else {
            self.total() / b
        }
    }
}

impl fmt::Display for EnergyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "static {:.2e} J, dynamic {:.2e} J, dram {:.2e} J, link {:.2e} J, engine {:.2e} J, comp-sram {:.2e} J, fault {:.2e} J",
            self.sram_static, self.sram_dynamic, self.dram, self.link, self.engine, self.compression_sram, self.fault_recovery
        )
    }
}

/// Maps activity counts to energy with a parameter set.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyModel {
    params: EnergyParams,
}

impl EnergyModel {
    /// Creates a model with the paper's defaults.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The parameter set in use.
    #[must_use]
    pub fn params(&self) -> &EnergyParams {
        &self.params
    }

    /// Computes the Fig. 18 breakdown for one run.
    #[must_use]
    pub fn breakdown(&self, counts: &ActivityCounts) -> EnergyBreakdown {
        let p = &self.params;
        let sram_static =
            counts.runtime_s * (p.l1_static_w + p.l2_static_w + p.llc_static_w + p.buffer_static_w);
        let sram_dynamic = counts.l1_accesses as f64 * p.l1_dynamic_j
            + counts.l2_accesses as f64 * p.l2_dynamic_j
            + counts.llc_accesses as f64 * p.llc_dynamic_j
            + counts.buffer_accesses as f64 * p.buffer_dynamic_j;
        // Retransmitted bytes ride inside `link_bytes`; carve their energy
        // out of the link component so fault recovery is priced separately
        // without double counting.
        let first_tx_bytes = counts.link_bytes.saturating_sub(counts.retransmitted_bytes);
        EnergyBreakdown {
            sram_static,
            sram_dynamic,
            dram: counts.dram_accesses as f64 * p.dram_access_j,
            link: first_tx_bytes as f64 * p.link_j_per_64b / 64.0,
            engine: counts.compressions as f64 * p.compress_j
                + counts.decompressions as f64 * p.decompress_j,
            compression_sram: counts.search_reads as f64 * p.llc_dynamic_j,
            fault_recovery: counts.retransmitted_bytes as f64 * p.link_j_per_64b / 64.0
                + counts.nack_flits as f64 * p.nack_flit_j,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn memory_bound_counts(link_bytes: u64) -> ActivityCounts {
        ActivityCounts {
            l1_accesses: 1_000_000,
            l2_accesses: 300_000,
            llc_accesses: 150_000,
            buffer_accesses: 100_000,
            dram_accesses: 40_000,
            link_bytes,
            compressions: 0,
            decompressions: 0,
            search_reads: 0,
            nack_flits: 0,
            retransmitted_bytes: 0,
            runtime_s: 1e-3,
        }
    }

    #[test]
    fn link_share_is_significant_uncompressed() {
        // §VI-D: "link energy accounts for roughly 20% of memory subsystem
        // energy" for memory-bound workloads.
        let model = EnergyModel::new();
        let counts = memory_bound_counts(100_000 * 64);
        let e = model.breakdown(&counts);
        let share = e.link / e.total();
        assert!((0.1..0.6).contains(&share), "link share {share}");
    }

    #[test]
    fn compression_saves_net_energy() {
        // 8x link compression with CABLE's engine/search overhead must come
        // out ahead: link energy dwarfs compression energy (Table II).
        let model = EnergyModel::new();
        let baseline = model.breakdown(&memory_bound_counts(100_000 * 64));
        let mut compressed = memory_bound_counts(100_000 * 8);
        compressed.compressions = 200_000;
        compressed.decompressions = 100_000;
        compressed.search_reads = 900_000;
        let cable = model.breakdown(&compressed);
        let norm = cable.normalized_to(&baseline);
        assert!(norm < 1.0, "normalized {norm}");
        assert!(norm > 0.5, "savings implausibly large: {norm}");
    }

    #[test]
    fn static_energy_scales_with_runtime() {
        let model = EnergyModel::new();
        let mut counts = memory_bound_counts(0);
        let e1 = model.breakdown(&counts);
        counts.runtime_s *= 2.0;
        let e2 = model.breakdown(&counts);
        assert!((e2.sram_static / e1.sram_static - 2.0).abs() < 1e-9);
        assert_eq!(e1.sram_dynamic, e2.sram_dynamic);
    }

    #[test]
    fn breakdown_total_sums_components() {
        let model = EnergyModel::new();
        let e = model.breakdown(&memory_bound_counts(1024));
        let sum = e.sram_static
            + e.sram_dynamic
            + e.dram
            + e.link
            + e.engine
            + e.compression_sram
            + e.fault_recovery;
        assert!((e.total() - sum).abs() < 1e-18);
    }

    #[test]
    fn fault_recovery_is_carved_out_of_link_energy_not_added() {
        // Retransmitted bytes already sit inside link_bytes, so pricing
        // them separately must leave the link + fault total equal to the
        // reliable link bill for the same traffic, plus only the NACK
        // flits' return-path energy.
        let model = EnergyModel::new();
        let reliable = model.breakdown(&memory_bound_counts(100_000 * 64));
        let mut faulty_counts = memory_bound_counts(100_000 * 64);
        faulty_counts.retransmitted_bytes = 5_000 * 64;
        faulty_counts.nack_flits = 5_000;
        let faulty = model.breakdown(&faulty_counts);
        assert!(faulty.fault_recovery > 0.0);
        assert!(faulty.link < reliable.link);
        let wire_total = faulty.link + faulty.fault_recovery
            - faulty_counts.nack_flits as f64 * model.params().nack_flit_j;
        assert!((wire_total - reliable.link).abs() < reliable.link * 1e-12);
        // NACK flits are small: far below the retransmissions they answer.
        let nack_j = faulty_counts.nack_flits as f64 * model.params().nack_flit_j;
        assert!(nack_j < faulty.fault_recovery / 10.0);
    }

    #[test]
    fn zero_fault_counts_change_nothing() {
        // Fault-free runs must produce bit-identical breakdowns whether or
        // not the fault fields exist — the Fig. 18 regression guard.
        let model = EnergyModel::new();
        let e = model.breakdown(&memory_bound_counts(4096));
        assert_eq!(e.fault_recovery, 0.0);
        assert_eq!(e.link, 4096.0 * model.params().link_j_per_64b / 64.0);
    }
}
