//! Energy parameters (Tables II & V).

/// Energy and power constants of the paper's model.
///
/// Dynamic energies are per access; static powers are per component.
/// Sources: CACTI 5.3 at 32 nm for SRAM, the Micron DDR3 power calculator
/// for DRAM, and prior-work estimates for the I/O link (§VI-A).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyParams {
    /// L1 static power, watts (Table V: 7.0 mW).
    pub l1_static_w: f64,
    /// L1 dynamic energy per access, joules (61.0 pJ).
    pub l1_dynamic_j: f64,
    /// L2 static power, watts (20.0 mW).
    pub l2_static_w: f64,
    /// L2 dynamic energy per access, joules (32.0 pJ).
    pub l2_dynamic_j: f64,
    /// LLC static power, watts (169.7 mW).
    pub llc_static_w: f64,
    /// LLC dynamic energy per access, joules (92.1 pJ).
    pub llc_dynamic_j: f64,
    /// DRAM-buffer (L4) static power, watts (22.0 mW).
    pub buffer_static_w: f64,
    /// DRAM-buffer dynamic energy per access, joules (149.4 pJ).
    pub buffer_dynamic_j: f64,
    /// CABLE+LBE compression energy per operation, joules (1000 pJ).
    pub compress_j: f64,
    /// CABLE+LBE decompression energy per operation, joules (200 pJ).
    pub decompress_j: f64,
    /// Off-chip I/O link energy per 64-byte transfer, joules (25 nJ,
    /// §VI-A: "50% of DRAM access energy" and ~30 nJ per prior work).
    pub link_j_per_64b: f64,
    /// DRAM access energy, joules (50.6 nJ, Table II).
    pub dram_access_j: f64,
    /// Energy of one NACK control flit on the return path, joules. A NACK
    /// is one 16-bit flit against the link's 512-bit reference transfer, so
    /// the default scales `link_j_per_64b` by 16/512 (~0.78 nJ).
    pub nack_flit_j: f64,
}

impl EnergyParams {
    /// The paper's Table II/V values.
    #[must_use]
    pub fn paper_defaults() -> Self {
        EnergyParams {
            l1_static_w: 7.0e-3,
            l1_dynamic_j: 61.0e-12,
            l2_static_w: 20.0e-3,
            l2_dynamic_j: 32.0e-12,
            llc_static_w: 169.7e-3,
            llc_dynamic_j: 92.1e-12,
            buffer_static_w: 22.0e-3,
            buffer_dynamic_j: 149.4e-12,
            compress_j: 1000.0e-12,
            decompress_j: 200.0e-12,
            link_j_per_64b: 25.0e-9,
            dram_access_j: 50.6e-9,
            nack_flit_j: 25.0e-9 * 16.0 / 512.0,
        }
    }

    /// Table II's scale claim: an off-chip transfer costs hundreds of times
    /// an on-chip compression or cache access.
    #[cfg(test)]
    #[must_use]
    pub fn link_to_compression_scale(&self) -> f64 {
        // Table II compares a 15 nJ link event to a 50 pJ CPACK op (300x);
        // with this model's CABLE+LBE numbers the same ratio is link /
        // compress.
        self.link_j_per_64b / self.compress_j
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Table II verbatim, for the `table02` harness: `(operation, joules,
/// scale)` relative to one CPACK compression.
pub const TABLE_II_ROWS: [(&str, f64, u32); 4] = [
    ("CPACK Compression", 50e-12, 1),
    ("Cache access (1MB slice)", 100e-12, 2),
    ("Off-chip IO link", 15e-9, 300),
    ("DRAM access", 50.6e-9, 1000),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_scales_are_consistent() {
        let base = TABLE_II_ROWS[0].1;
        for (name, joules, scale) in TABLE_II_ROWS {
            let actual = joules / base;
            let stated = f64::from(scale);
            assert!(
                (actual / stated - 1.0).abs() < 0.05,
                "{name}: {actual} vs stated {stated}"
            );
        }
    }

    #[test]
    fn link_dwarfs_compression() {
        // The §IV-D energy argument: worst-case CABLE request energy
        // (~1.6 nJ) is about a tenth of one link transfer.
        let p = EnergyParams::paper_defaults();
        let worst_case_cable = 9.0 * 100e-12 + p.compress_j // search reads + compress
            + p.decompress_j;
        assert!(worst_case_cable < p.link_j_per_64b / 5.0);
        assert!(p.link_to_compression_scale() > 20.0);
    }
}
