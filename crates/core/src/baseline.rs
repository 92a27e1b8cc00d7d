//! Baseline link compressors (§VI-A).
//!
//! The paper compares CABLE against three classes of link compression:
//! non-dictionary (CPACK, BDI), small-dictionary (CPACK128, LBE256) and
//! big-dictionary (gzip). [`BaselineLink`] drives any of them over the same
//! home/remote cache pair and traffic as [`crate::CableLink`], so Figs.
//! 11–16 compare identical request streams.
//!
//! Streaming engines share one dictionary across *all* traffic on the link
//! — which is exactly what makes gzip strong single-threaded and weak under
//! multiprogrammed interleaving (Fig. 16's dictionary pollution).

use crate::link::{
    account_toggles, Direction, Link, LinkStats, LinkTelemetry, Transfer, TransferKind,
};
use cable_cache::{CacheGeometry, CoherenceState, SetAssocCache};
use cable_common::{Address, LineData, LINE_BYTES};
use cable_compress::{Bdi, Compressor, Cpack, Decompressor, Encoded, Lbe, Lzss};
use cable_telemetry::{Event, Telemetry};
use std::fmt;

/// Selects a baseline compression scheme.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BaselineKind {
    /// No compression: every line costs 512 wire bits.
    Uncompressed,
    /// Base-Delta-Immediate (non-dictionary).
    Bdi,
    /// Per-line CPACK (non-dictionary).
    Cpack,
    /// Streaming CPACK with a 128-byte FIFO dictionary.
    Cpack128,
    /// Streaming LBE with a 256-byte window.
    Lbe256,
    /// LZSS with a 32 KB sliding window ("gzip").
    Gzip,
}

impl BaselineKind {
    /// All compressing baselines in the order of Fig. 12's legend.
    pub const ALL: [BaselineKind; 5] = [
        BaselineKind::Bdi,
        BaselineKind::Cpack,
        BaselineKind::Cpack128,
        BaselineKind::Lbe256,
        BaselineKind::Gzip,
    ];

    /// Figure label for this scheme.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            BaselineKind::Uncompressed => "Uncompressed",
            BaselineKind::Bdi => "BDI",
            BaselineKind::Cpack => "CPACK",
            BaselineKind::Cpack128 => "CPACK128",
            BaselineKind::Lbe256 => "LBE256",
            BaselineKind::Gzip => "gzip",
        }
    }

    fn build(self) -> Option<(Box<dyn Compressor + Send>, Box<dyn Decompressor + Send>)> {
        match self {
            BaselineKind::Uncompressed => None,
            BaselineKind::Bdi => Some((Box::new(Bdi::new()), Box::new(Bdi::new()))),
            BaselineKind::Cpack => Some((Box::new(Cpack::per_line()), Box::new(Cpack::per_line()))),
            BaselineKind::Cpack128 => Some((
                Box::new(Cpack::streaming(128)),
                Box::new(Cpack::streaming(128)),
            )),
            BaselineKind::Lbe256 => {
                Some((Box::new(Lbe::streaming(256)), Box::new(Lbe::streaming(256))))
            }
            BaselineKind::Gzip => {
                Some((Box::new(Lzss::new(32 << 10)), Box::new(Lzss::new(32 << 10))))
            }
        }
    }
}

impl fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A baseline-compressed link over an inclusive home/remote cache pair.
///
/// The traffic model (remote hits, fills, dirty-victim write-backs,
/// back-invalidations) matches [`crate::CableLink`] so compression ratios
/// are directly comparable.
///
/// # Examples
///
/// ```
/// use cable_core::baseline::{BaselineKind, BaselineLink};
/// use cable_core::Link;
/// use cable_cache::CacheGeometry;
/// use cable_common::{Address, LineData};
///
/// let mut link = BaselineLink::new(
///     BaselineKind::Cpack,
///     CacheGeometry::new(4 << 20, 16),
///     CacheGeometry::new(1 << 20, 8),
///     16,
/// );
/// let t = link.request(Address::new(0), LineData::zeroed());
/// assert!(t.wire_bits() < 512); // zero lines compress well even for CPACK
/// ```
///
/// Like `CableLink`, a clone deep-copies the caches and any streaming
/// dictionary state, so warmed links can be snapshotted and resumed, and
/// `clone_from` restores a snapshot into the existing cache storage.
pub struct BaselineLink {
    kind: BaselineKind,
    home: SetAssocCache,
    remote: SetAssocCache,
    engines: Option<(Box<dyn Compressor + Send>, Box<dyn Decompressor + Send>)>,
    link_width_bits: u32,
    stats: LinkStats,
    last_flit: u64,
    tel: LinkTelemetry,
    /// The buffer every send codes its payload into. It carries nothing
    /// from one send to the next, but a clone or a restore copies the
    /// source's grown storage, so that the first sends after it do not
    /// grow the buffer again on whichever host thread runs them.
    payload: Encoded,
}

impl Clone for BaselineLink {
    fn clone(&self) -> Self {
        BaselineLink {
            kind: self.kind,
            home: self.home.clone(),
            remote: self.remote.clone(),
            engines: self.engines.clone(),
            link_width_bits: self.link_width_bits,
            stats: self.stats,
            last_flit: self.last_flit,
            tel: self.tel.clone(),
            payload: self.payload.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let BaselineLink {
            kind,
            home,
            remote,
            engines,
            link_width_bits,
            stats,
            last_flit,
            tel,
            payload,
        } = self;
        *kind = source.kind;
        home.clone_from(&source.home);
        remote.clone_from(&source.remote);
        engines.clone_from(&source.engines);
        *link_width_bits = source.link_width_bits;
        *stats = source.stats;
        *last_flit = source.last_flit;
        tel.clone_from(&source.tel);
        payload.clone_from(&source.payload);
    }
}

impl BaselineLink {
    /// Builds a baseline link.
    ///
    /// # Panics
    ///
    /// Panics if the home cache is not larger than the remote cache or the
    /// link width is zero.
    #[must_use]
    pub fn new(
        kind: BaselineKind,
        home: CacheGeometry,
        remote: CacheGeometry,
        link_width_bits: u32,
    ) -> Self {
        assert!(
            home.size_bytes() > remote.size_bytes(),
            "home cache must be larger than remote cache"
        );
        assert!(link_width_bits > 0, "link width must be positive");
        BaselineLink {
            engines: kind.build(),
            kind,
            home: SetAssocCache::new(home),
            remote: SetAssocCache::new(remote),
            link_width_bits,
            stats: LinkStats::default(),
            last_flit: 0,
            tel: LinkTelemetry::default(),
            payload: Encoded::default(),
        }
    }

    fn request_in_state(
        &mut self,
        addr: Address,
        memory: LineData,
        grant: CoherenceState,
    ) -> Transfer {
        let addr = addr.line_aligned();
        if let Some(lid) = self.remote.access(addr) {
            self.stats.remote_hits += 1;
            self.tel.remote_hits.inc();
            if grant != CoherenceState::Shared {
                self.remote.set_state_by_id(lid, CoherenceState::Modified);
                self.home.set_state(addr, CoherenceState::Modified);
            }
            return transfer_remote_hit();
        }
        self.stats.fills += 1;

        let home_lid = self.home.access(addr);
        let home_hit = home_lid.is_some();
        let line = if let Some(lid) = home_lid {
            self.stats.home_hits += 1;
            self.home.read_by_id(lid).expect("valid")
        } else {
            let outcome = self.home.insert(addr, memory, CoherenceState::Shared);
            if let Some(victim) = outcome.evicted {
                // Inclusion: back-invalidate; recall dirty remote data raw.
                if let Some(rv) = self.remote.invalidate(victim.addr) {
                    if rv.state == CoherenceState::Modified {
                        self.stats.writebacks += 1;
                        self.send(&rv.data, Direction::WriteBack);
                    }
                }
            }
            memory
        };

        let mut transfer = self.send(&line, Direction::Fill);
        transfer.set_home_hit(home_hit);

        let outcome = self.remote.insert(addr, line, grant);
        if let Some(victim) = outcome.evicted {
            if victim.state == CoherenceState::Modified {
                self.stats.writebacks += 1;
                self.send_writeback_to_home(victim.addr, victim.data);
            }
        }
        transfer
    }

    /// Write-back of a dirty line; see [`crate::CableLink::writeback`].
    pub fn writeback(&mut self, addr: Address, data: LineData) -> Transfer {
        let addr = addr.line_aligned();
        self.stats.writebacks += 1;
        let t = self.send_writeback_to_home(addr, data);
        self.remote.invalidate(addr);
        t
    }

    fn send_writeback_to_home(&mut self, addr: Address, data: LineData) -> Transfer {
        let t = self.send(&data, Direction::WriteBack);
        let outcome = self.home.insert(addr, data, CoherenceState::Modified);
        if let Some(victim) = outcome.evicted {
            if let Some(rv) = self.remote.invalidate(victim.addr) {
                if rv.state == CoherenceState::Modified {
                    self.stats.writebacks += 1;
                    self.send(&rv.data, Direction::WriteBack);
                }
            }
        }
        t
    }

    /// Compresses and "transmits" one line, verifying the decode end.
    ///
    /// Baseline payloads are flag-less: the schemes of §VI-A transmit the
    /// compressed stream directly (mode is carried out of band), so a raw
    /// fallback costs exactly 512 bits.
    fn send(&mut self, line: &LineData, direction: Direction) -> Transfer {
        let compressed = match &mut self.engines {
            None => false,
            Some((enc, dec)) => {
                enc.compress_into(line, &mut self.payload);
                self.stats.compression_ops += 2; // compress + decompress
                let back = dec
                    .decompress(&self.payload)
                    .expect("baseline payload round-trips");
                assert_eq!(back, *line, "{} round-trip mismatch", self.kind);
                self.payload.len_bits() < LINE_BYTES * 8
            }
        };
        // The payload is accounted where it already lives: the encoder's
        // bitstream, or the raw line itself.
        let (bytes, payload_bits, kind) = if compressed {
            let e = &self.payload;
            (e.as_bytes(), e.len_bits(), TransferKind::Unseeded)
        } else {
            (&line.as_bytes()[..], LINE_BYTES * 8, TransferKind::Raw)
        };

        let width = u64::from(self.link_width_bits);
        let wire_bits = cable_common::div_ceil(payload_bits as u64, width) * width;
        self.stats.uncompressed_bits += (LINE_BYTES * 8) as u64;
        self.stats.payload_bits += payload_bits as u64;
        self.stats.wire_bits += wire_bits;
        self.stats.wire_bits_packed += 6 + 8 * cable_common::div_ceil(payload_bits as u64, 8);
        match kind {
            TransferKind::Raw => self.stats.raw_transfers += 1,
            _ => self.stats.unseeded_transfers += 1,
        }
        account_toggles(
            &mut self.stats,
            &mut self.last_flit,
            self.link_width_bits,
            bytes,
            payload_bits,
        );
        if self.tel.handle.is_enabled() {
            self.tel.count_encode(kind);
            self.tel.wire_bits.add(wire_bits);
            self.tel.payload_bits.record(payload_bits as u64);
            self.tel.handle.record(Event::Encode {
                kind: kind.label(),
                direction: direction.label(),
                payload_bits: payload_bits as u32,
                wire_bits: wire_bits as u32,
                refs: 0,
            });
        }
        transfer_of(kind, direction, payload_bits, wire_bits)
    }
}

impl Link for BaselineLink {
    fn request(&mut self, addr: Address, memory: LineData) -> Transfer {
        self.request_in_state(addr, memory, CoherenceState::Shared)
    }

    fn request_exclusive(&mut self, addr: Address, memory: LineData) -> Transfer {
        self.request_in_state(addr, memory, CoherenceState::Exclusive)
    }

    fn remote_store(&mut self, addr: Address, data: LineData) -> bool {
        let addr = addr.line_aligned();
        if !self.remote.write(addr, data) {
            return false;
        }
        self.home.set_state(addr, CoherenceState::Modified);
        true
    }

    fn stats(&self) -> &LinkStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
    }

    fn warm(&self, addr: Address) {
        self.home.warm(addr);
        self.remote.warm(addr);
    }

    fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = LinkTelemetry::new(tel);
    }
}

impl fmt::Debug for BaselineLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BaselineLink({}, ratio {:.2})",
            self.kind,
            self.stats.compression_ratio()
        )
    }
}

// Transfer's fields are private to cable-core::link; construct via helpers.
fn transfer_remote_hit() -> Transfer {
    Transfer::new_internal(TransferKind::RemoteHit, Direction::Fill, 0, 0, 0)
}

fn transfer_of(
    kind: TransferKind,
    direction: Direction,
    payload_bits: usize,
    wire_bits: u64,
) -> Transfer {
    Transfer::new_internal(kind, direction, payload_bits, wire_bits, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_common::SplitMix64;
    use proptest::prelude::*;

    fn link(kind: BaselineKind) -> BaselineLink {
        BaselineLink::new(
            kind,
            CacheGeometry::new(256 << 10, 8),
            CacheGeometry::new(64 << 10, 8),
            16,
        )
    }

    #[test]
    fn uncompressed_costs_full_line() {
        let mut l = link(BaselineKind::Uncompressed);
        let t = l.request(Address::new(0), LineData::splat_word(1));
        assert_eq!(t.payload_bits(), 512);
        assert_eq!(t.wire_bits(), 512); // exactly 32 flits of 16 bits
    }

    #[test]
    fn remote_hits_cost_nothing() {
        let mut l = link(BaselineKind::Cpack);
        l.request(Address::new(0), LineData::zeroed());
        let t = l.request(Address::new(0), LineData::zeroed());
        assert_eq!(t.kind(), TransferKind::RemoteHit);
        assert_eq!(t.wire_bits(), 0);
        assert_eq!(l.stats().remote_hits, 1);
    }

    #[test]
    fn all_schemes_handle_random_traffic() {
        let mut rng = SplitMix64::new(7);
        for kind in BaselineKind::ALL {
            let mut l = link(kind);
            let mut rng2 = SplitMix64::new(11);
            for i in 0..200u64 {
                let addr = Address::from_line_number(rng.next_bounded(4096));
                let mut words = [0u32; 16];
                for w in &mut words {
                    *w = if rng2.next_bool(0.5) {
                        0
                    } else {
                        rng2.next_u32()
                    };
                }
                let line = LineData::from_words(words);
                if i % 7 == 0 {
                    l.request_exclusive(addr, line);
                    l.remote_store(addr, line);
                } else {
                    l.request(addr, line);
                }
            }
            assert!(l.stats().wire_bits > 0, "{kind} produced no traffic");
            assert!(
                l.stats().compression_ratio() >= 0.9,
                "{kind} ratio {}",
                l.stats().compression_ratio()
            );
        }
    }

    #[test]
    fn gzip_beats_cpack_on_repetitive_streams() {
        let mut gzip = link(BaselineKind::Gzip);
        let mut cpack = link(BaselineKind::Cpack);
        let mut rng = SplitMix64::new(3);
        // A stream with heavy inter-line redundancy: lines repeat with
        // small mutations.
        let mut base = [0u32; 16];
        for w in &mut base {
            *w = rng.next_u32();
        }
        for i in 0..200u64 {
            let mut words = base;
            words[(i % 16) as usize] ^= 0xff;
            let line = LineData::from_words(words);
            let addr = Address::from_line_number(i * 17); // always miss
            gzip.request(addr, line);
            cpack.request(addr, line);
        }
        assert!(
            gzip.stats().compression_ratio() > cpack.stats().compression_ratio(),
            "gzip {} vs cpack {}",
            gzip.stats().compression_ratio(),
            cpack.stats().compression_ratio()
        );
    }

    /// A baseline takes every default of the [`Link`] trait: the fault,
    /// reliability and compression knobs change nothing it reports.
    #[test]
    fn baseline_keeps_the_link_defaults() {
        let mut baseline = link(BaselineKind::Cpack);
        let l: &mut dyn Link = &mut baseline;
        l.set_compression_enabled(false);
        assert!(l.compression_enabled());
        l.enable_fault_injection(crate::FaultConfig::with_rate(7, 1e-2));
        l.set_reliable_mode(true);
        for i in 0..64 {
            l.request(Address::from_line_number(i), LineData::splat_word(i as u32));
        }
        assert!(l.fault_stats().is_none());
        assert_eq!(l.retransmitted_wire_bits(), 0);
        assert!(!l.reliable_mode());
        assert_eq!(l.audit_and_resync(), crate::ResyncReport::default());
    }

    #[test]
    fn dirty_victims_write_back() {
        let mut l = link(BaselineKind::Cpack);
        let sets = l.remote.geometry().sets();
        let a = Address::from_line_number(0);
        l.request(a, LineData::zeroed());
        l.remote_store(a, LineData::splat_word(5));
        // Evict `a` by filling its set.
        for t in 1..=8u64 {
            l.request(Address::from_line_number(t * sets), LineData::zeroed());
        }
        assert!(l.stats().writebacks >= 1);
    }

    /// Per-flit oracle for the toggle counters, one bit at a time: flit
    /// values are the next `width` stream bits MSB-first, the final flit
    /// zero-padded, and each flit is XORed with the previous one.
    fn oracle_toggles(bytes: &[u8], len_bits: usize, width: u32, last: &mut u64) -> (u64, u64) {
        let width = width.min(64) as usize;
        let bit = |i: usize| u64::from(bytes[i / 8] >> (7 - i % 8) & 1);
        let (mut toggles, mut flits) = (0, 0);
        for start in (0..len_bits).step_by(width) {
            let flit = (start..start + width)
                .fold(0u64, |f, i| f << 1 | if i < len_bits { bit(i) } else { 0 });
            toggles += u64::from((flit ^ *last).count_ones());
            flits += 1;
            *last = flit;
        }
        (toggles, flits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every baseline accounts exactly the oracle's toggles and flits
        /// for the payload it sends: the encoder's stream when it beats 512
        /// bits, the raw line otherwise. Widths 8, 16 and 64 take the lane
        /// kernel; 12 keeps the scalar path covered.
        #[test]
        fn prop_toggles_match_per_flit_oracle(
            (refs, line) in crate::test_lines::family_case(),
            seed in any::<u64>(),
        ) {
            let mut rng = SplitMix64::new(seed);
            let mut stream = refs;
            stream.push(line);
            stream.extend((0..4).map(|_| LineData::from_words(core::array::from_fn(|_| rng.next_u32()))));
            let kinds = std::iter::once(BaselineKind::Uncompressed).chain(BaselineKind::ALL);
            for kind in kinds {
                for width in [8, 16, 64, 12] {
                    let mut l = BaselineLink::new(
                        kind,
                        CacheGeometry::new(256 << 10, 8),
                        CacheGeometry::new(64 << 10, 8),
                        width,
                    );
                    // A twin encoder sees the same lines in the same order,
                    // so streaming dictionaries stay in step with the link's.
                    let mut twin = kind.build().map(|(enc, _)| enc);
                    let (mut toggles, mut flits, mut last) = (0, 0, 0);
                    for (n, line) in stream.iter().enumerate() {
                        // A fresh line number per line: every request is one fill.
                        l.request(Address::from_line_number(n as u64), *line);
                        let encoded = twin
                            .as_mut()
                            .map(|enc| enc.compress(line))
                            .filter(|e| e.len_bits() < LINE_BYTES * 8);
                        let (bytes, bits) = match &encoded {
                            Some(e) => (e.as_bytes(), e.len_bits()),
                            None => (&line.as_bytes()[..], LINE_BYTES * 8),
                        };
                        let (t, f) = oracle_toggles(bytes, bits, width, &mut last);
                        toggles += t;
                        flits += f;
                    }
                    prop_assert_eq!(l.stats().bit_toggles, toggles, "{} at width {}", kind, width);
                    prop_assert_eq!(l.stats().flits, flits, "{} at width {}", kind, width);
                }
            }
        }
    }
}
