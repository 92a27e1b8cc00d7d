//! CABLE endpoint configuration.

use cable_cache::CacheGeometry;
use cable_compress::EngineKind;

/// Configuration of one CABLE-compressed link (a home/remote cache pair).
///
/// Defaults follow §VI-A: a 16-bit link, LBE engine, 2-deep hash tables
/// ("half-sized" at the home buffer, "full-sized" on chip for the memory
/// link; "quarter-sized" for the coherence link), up to three references,
/// and a data-access count of 6 for the compression studies.
///
/// This is a passive configuration record; it is validated when a
/// [`crate::CableLink`] is constructed from it.
#[derive(Clone, Debug)]
pub struct CableConfig {
    /// Geometry of the home (larger) cache, e.g. the off-chip L4 buffer.
    pub home_geometry: CacheGeometry,
    /// Geometry of the remote (smaller) cache, e.g. the on-chip LLC.
    pub remote_geometry: CacheGeometry,
    /// Delegated compression engine (Fig. 20; LBE is the paper's best).
    pub engine: EngineKind,
    /// Home hash-table entries as a fraction of a full-sized table
    /// (full-sized = one entry per home-cache line, §IV-D).
    pub home_table_scale: f64,
    /// Remote hash-table entries as a fraction of a full-sized table
    /// (full-sized = one entry per remote-cache line).
    pub remote_table_scale: f64,
    /// LineIDs per hash-table bucket (2 by default, §III-B).
    pub bucket_depth: usize,
    /// Signatures inserted per synchronized line (2 by default; "keeping
    /// hash collision low is one reason only two signatures are inserted",
    /// §III-B — ablatable).
    pub insert_signature_count: usize,
    /// Reference candidates read from the data array after pre-ranking
    /// (6 in §VI-B, 16 elsewhere; swept in Fig. 22).
    pub data_access_count: usize,
    /// Maximum references per DIFF (3, encoded in the 2-bit count field).
    pub max_refs: usize,
    /// Physical link width in bits (16 by default; swept in Fig. 23).
    pub link_width_bits: u32,
    /// Unseeded-fallback threshold: if compressing without references
    /// reaches this ratio, skip the reference search result (§III-E's
    /// "certain threshold (ie., 16×)").
    pub unseeded_threshold_ratio: f64,
    /// Seed for the H3 signature functions (both ends must agree).
    pub signature_seed: u64,
    /// Decompress and verify every transfer against the original line.
    pub verify_decompression: bool,
    /// Inclusive hierarchy (the paper's baseline assumption). When false,
    /// the §IV-C non-inclusive extension applies: home evictions do not
    /// back-invalidate remote copies (the home merely loses the ability to
    /// reference them), and write-back compression falls back to the
    /// non-dictionary path ("solutions include disabling write-back
    /// compression, or compressing write-backs with a non-dictionary
    /// algorithm").
    pub inclusive: bool,
}

impl CableConfig {
    /// The §VI-A off-chip memory-link configuration for one thread's share:
    /// 1 MB LLC (remote) backed by a 4 MB DRAM-buffer slice (home),
    /// half-sized home table, full-sized remote table, LBE engine,
    /// 6 data accesses.
    #[must_use]
    pub fn memory_link_default() -> Self {
        CableConfig {
            home_geometry: CacheGeometry::new(4 << 20, 16),
            remote_geometry: CacheGeometry::new(1 << 20, 8),
            engine: EngineKind::Lbe,
            home_table_scale: 0.5,
            remote_table_scale: 1.0,
            bucket_depth: 2,
            insert_signature_count: 2,
            data_access_count: 6,
            max_refs: 3,
            link_width_bits: 16,
            unseeded_threshold_ratio: 16.0,
            signature_seed: 0xcab1e,
            verify_decompression: true,
            inclusive: true,
        }
    }

    /// The §VI-A coherence-link configuration between two chips of a
    /// multi-chip CMP: quarter-sized hash tables, full-sized WMT.
    #[must_use]
    pub fn coherence_link_default() -> Self {
        CableConfig {
            home_table_scale: 0.25,
            remote_table_scale: 0.25,
            ..Self::memory_link_default()
        }
    }

    /// The §IV-C non-inclusive configuration (Haswell-EP-style home agents
    /// that track sharers in directories without holding the data).
    #[must_use]
    pub fn non_inclusive() -> Self {
        CableConfig {
            inclusive: false,
            ..Self::memory_link_default()
        }
    }

    /// Replaces the engine (builder-style).
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the link width (Fig. 23 sweep).
    #[must_use]
    pub fn with_link_width(mut self, bits: u32) -> Self {
        self.link_width_bits = bits;
        self
    }

    /// Replaces the cache geometries (Fig. 19 sweeps).
    #[must_use]
    pub fn with_geometries(mut self, home: CacheGeometry, remote: CacheGeometry) -> Self {
        self.home_geometry = home;
        self.remote_geometry = remote;
        self
    }

    /// Home hash-table bucket count implied by the scale. A *full-sized*
    /// table has as many LineID slots as the cache has lines (§IV-D: "3.5%
    /// the size of the data cache — 16MB cache, 18-bit HomeLIDs"), so the
    /// bucket count is `lines × scale / depth`.
    #[must_use]
    pub fn home_table_entries(&self) -> u64 {
        scaled_entries(
            self.home_geometry.lines(),
            self.home_table_scale,
            self.bucket_depth,
        )
    }

    /// Remote hash-table bucket count implied by the scale.
    #[must_use]
    pub fn remote_table_entries(&self) -> u64 {
        scaled_entries(
            self.remote_geometry.lines(),
            self.remote_table_scale,
            self.bucket_depth,
        )
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.home_geometry.size_bytes() <= self.remote_geometry.size_bytes() {
            return Err("home cache must be larger than remote cache".into());
        }
        if self.home_geometry.sets() < self.remote_geometry.sets() {
            return Err("home cache must have at least as many sets as remote".into());
        }
        if self.home_table_scale <= 0.0 || self.remote_table_scale <= 0.0 {
            return Err("hash-table scales must be positive".into());
        }
        if self.bucket_depth == 0 {
            return Err("bucket depth must be positive".into());
        }
        if !(1..=16).contains(&self.insert_signature_count) {
            return Err("insert-signature count must be 1..=16".into());
        }
        if self.data_access_count == 0 {
            return Err("data access count must be positive".into());
        }
        if !(1..=3).contains(&self.max_refs) {
            return Err("max_refs must be 1..=3 (2-bit count field)".into());
        }
        if self.link_width_bits == 0 || self.link_width_bits > 512 {
            return Err("link width must be 1..=512 bits".into());
        }
        Ok(())
    }
}

impl Default for CableConfig {
    fn default() -> Self {
        Self::memory_link_default()
    }
}

fn scaled_entries(lines: u64, scale: f64, depth: usize) -> u64 {
    ((lines as f64 * scale / depth as f64).round() as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        CableConfig::memory_link_default().validate().unwrap();
        CableConfig::coherence_link_default().validate().unwrap();
    }

    #[test]
    fn table_entry_scaling() {
        let mut cfg = CableConfig::memory_link_default();
        // 4MB home cache = 65536 lines; half-sized = 32768 LineID slots,
        // i.e. 16384 two-deep buckets.
        assert_eq!(cfg.home_table_entries(), 16_384);
        // 1MB remote = 16384 lines; full-sized = 8192 two-deep buckets.
        assert_eq!(cfg.remote_table_entries(), 8_192);
        // Fig. 21's extreme 1/2048 scale still yields a usable table.
        cfg.home_table_scale = 1.0 / 2048.0;
        assert_eq!(cfg.home_table_entries(), 16);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let cfg = CableConfig::memory_link_default();
        assert!(cfg
            .clone()
            .with_geometries(
                CacheGeometry::new(1 << 20, 8),
                CacheGeometry::new(4 << 20, 16)
            )
            .validate()
            .is_err());
        assert!(cfg.clone().with_link_width(0).validate().is_err());
        let mut bad = cfg.clone();
        bad.max_refs = 4;
        assert!(bad.validate().is_err());
        let mut bad = cfg;
        bad.data_access_count = 0;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn builders_compose() {
        let cfg = CableConfig::memory_link_default()
            .with_engine(cable_compress::EngineKind::Oracle)
            .with_link_width(64);
        assert_eq!(cfg.engine, cable_compress::EngineKind::Oracle);
        assert_eq!(cfg.link_width_bits, 64);
        cfg.validate().unwrap();
    }
}
