//! LZSS with a 32 KB sliding window — the paper's "gzip" baseline.
//!
//! The paper evaluates gzip "with a 32KB dictionary (max configurable size)"
//! as the big-dictionary representative, with latency/power modelled after
//! IBM's LZ77 ASIC (§VI-A). We implement the same algorithmic family:
//! byte-granularity LZ77 over a 32 KB sliding window shared across the whole
//! link stream, with hash-chain match finding. The shared window is what
//! makes gzip strong single-threaded and *vulnerable to dictionary
//! pollution* when multiple programs interleave on one link (Fig. 16).
//!
//! Token format (MSB-first):
//!
//! - `1` + 8-bit literal byte
//! - `0` + 15-bit distance−1 + 8-bit length−3 (match of 3..=258 bytes)
//!
//! Matches may overlap the current position (classic LZ77 run semantics).
//!
//! [`Lzss::seeded`] is the CABLE+gzip configuration of Fig. 20: a per-call
//! window seeded with the reference lines.

use crate::{Compressor, DecodeError, Decompressor, Encoded, SeededCompressor};
use cable_common::{BitReader, BitWriter, LineData, LINE_BYTES};
use std::collections::HashMap;
use std::collections::VecDeque;

const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const DIST_BITS: u32 = 15;
const LEN_BITS: u32 = 8;
const MAX_CHAIN: usize = 32;

/// The LZSS compressor/decompressor.
///
/// # Examples
///
/// ```
/// use cable_compress::{Compressor, Decompressor, Lzss};
/// use cable_common::LineData;
///
/// let mut enc = Lzss::new(32 << 10);
/// let mut dec = Lzss::new(32 << 10);
/// let line = LineData::from_words(core::array::from_fn(|i| 0xabc0 + i as u32));
/// let first = enc.compress(&line);
/// let second = enc.compress(&line); // now fully in the window
/// assert!(second.len_bits() < first.len_bits() / 4);
/// assert_eq!(dec.decompress(&first).unwrap(), line);
/// assert_eq!(dec.decompress(&second).unwrap(), line);
/// ```
#[derive(Clone, Debug)]
pub struct Lzss {
    window_bytes: usize,
    /// Ring buffer holding the last `ring_len` bytes of the stream.
    ring: Vec<u8>,
    /// Total bytes ever appended; `pos % ring_len` is the write cursor.
    pos: u64,
    /// 3-byte hash -> recent absolute positions (encoder side only).
    chains: HashMap<u32, VecDeque<u64>>,
}

impl Lzss {
    /// Creates an LZSS codec with the given sliding-window size
    /// (`new(32 << 10)` matches the paper's gzip configuration).
    ///
    /// # Panics
    ///
    /// Panics if `window_bytes` is zero or exceeds `1 << 15` (the distance
    /// field width).
    #[must_use]
    pub fn new(window_bytes: usize) -> Self {
        assert!(
            window_bytes > 0 && window_bytes <= 1 << DIST_BITS,
            "window must be in 1..=32768 bytes"
        );
        let ring_len = (2 * window_bytes).next_power_of_two();
        Lzss {
            window_bytes,
            ring: vec![0; ring_len],
            pos: 0,
            chains: HashMap::new(),
        }
    }

    /// CABLE-seeded LZSS: per-call window sized for three reference lines.
    #[must_use]
    pub fn seeded() -> Self {
        Lzss::new(4 * LINE_BYTES)
    }

    /// The sliding-window size in bytes.
    #[must_use]
    pub fn window_bytes(&self) -> usize {
        self.window_bytes
    }

    fn byte_at(&self, abs: u64) -> u8 {
        self.ring[(abs % self.ring.len() as u64) as usize]
    }

    fn hash3(&self, abs: u64) -> Option<u32> {
        if abs + 2 >= self.pos {
            return None;
        }
        let h = u32::from(self.byte_at(abs))
            | u32::from(self.byte_at(abs + 1)) << 8
            | u32::from(self.byte_at(abs + 2)) << 16;
        Some(h.wrapping_mul(0x9e37_79b1) >> 12)
    }

    fn push_byte(&mut self, b: u8) {
        let idx = (self.pos % self.ring.len() as u64) as usize;
        self.ring[idx] = b;
        self.pos += 1;
        // Index the 3-gram that just became complete.
        if self.pos >= 3 {
            let start = self.pos - 3;
            if let Some(h) = self.hash3(start) {
                let chain = self.chains.entry(h).or_default();
                chain.push_back(start);
                if chain.len() > 4 * MAX_CHAIN {
                    chain.drain(..2 * MAX_CHAIN);
                }
            }
        }
    }

    fn seed(&mut self, refs: &[LineData]) {
        for r in refs {
            for &b in r.as_bytes() {
                self.push_byte(b);
            }
        }
    }

    /// Finds the longest match for `remaining` (the not-yet-coded suffix of
    /// the current line) against the window. Returns `(distance, len)`.
    fn best_match(&self, remaining: &[u8]) -> Option<(u64, usize)> {
        if remaining.len() < MIN_MATCH || self.pos < MIN_MATCH as u64 {
            return None;
        }
        let h = {
            let r = remaining;
            let h = u32::from(r[0]) | u32::from(r[1]) << 8 | u32::from(r[2]) << 16;
            h.wrapping_mul(0x9e37_79b1) >> 12
        };
        let oldest = self.pos.saturating_sub(self.window_bytes as u64);
        let max_len = remaining.len().min(MAX_MATCH);
        let mut best: Option<(u64, usize)> = None;
        if let Some(chain) = self.chains.get(&h) {
            for &start in chain.iter().rev().take(MAX_CHAIN) {
                if start < oldest {
                    continue;
                }
                // Compare: positions >= self.pos refer to bytes of
                // `remaining` that a decoder will have produced by then
                // (overlapping match).
                let mut len = 0;
                while len < max_len {
                    let src = start + len as u64;
                    let byte = if src < self.pos {
                        // Ring validity: src is within the last window.
                        self.byte_at(src)
                    } else {
                        remaining[(src - self.pos) as usize]
                    };
                    if byte != remaining[len] {
                        break;
                    }
                    len += 1;
                }
                if len >= MIN_MATCH && best.is_none_or(|(_, l)| len > l) {
                    best = Some((self.pos - start, len));
                    if len == max_len {
                        break;
                    }
                }
            }
        }
        best
    }

    fn encode_line(&mut self, line: &LineData, out: &mut BitWriter) {
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < LINE_BYTES {
            match self.best_match(&bytes[i..]) {
                Some((dist, len)) => {
                    out.write_bit(false);
                    out.write_bits(dist - 1, DIST_BITS);
                    out.write_bits((len - MIN_MATCH) as u64, LEN_BITS);
                    for &b in &bytes[i..i + len] {
                        self.push_byte(b);
                    }
                    i += len;
                }
                None => {
                    out.write_bit(true);
                    out.write_bits(u64::from(bytes[i]), 8);
                    self.push_byte(bytes[i]);
                    i += 1;
                }
            }
        }
    }

    fn decode_line(&mut self, r: &mut BitReader<'_>) -> Result<LineData, DecodeError> {
        let mut line = [0u8; LINE_BYTES];
        let mut i = 0;
        while i < LINE_BYTES {
            let literal = r
                .read_bit()
                .ok_or_else(|| DecodeError::new("truncated token flag"))?;
            if literal {
                let b = r
                    .read_bits(8)
                    .ok_or_else(|| DecodeError::new("truncated literal"))?
                    as u8;
                line[i] = b;
                self.push_byte(b);
                i += 1;
            } else {
                let dist = r
                    .read_bits(DIST_BITS)
                    .ok_or_else(|| DecodeError::new("truncated distance"))?
                    + 1;
                let len = r
                    .read_bits(LEN_BITS)
                    .ok_or_else(|| DecodeError::new("truncated length"))?
                    as usize
                    + MIN_MATCH;
                if dist > self.pos || i + len > LINE_BYTES {
                    return Err(DecodeError::new("match out of range"));
                }
                for _ in 0..len {
                    let b = self.byte_at(self.pos - dist);
                    line[i] = b;
                    self.push_byte(b);
                    i += 1;
                }
            }
        }
        Ok(LineData::from_bytes(line))
    }
}

impl Compressor for Lzss {
    fn name(&self) -> &'static str {
        "gzip"
    }

    fn compress_into(&mut self, line: &LineData, out: &mut Encoded) {
        self.encode_line(line, out.restart());
    }

    fn clone_box(&self) -> Box<dyn Compressor + Send> {
        Box::new(self.clone())
    }
}

impl Decompressor for Lzss {
    fn decompress(&mut self, payload: &Encoded) -> Result<LineData, DecodeError> {
        let mut r = payload.reader();
        self.decode_line(&mut r)
    }

    fn clone_box(&self) -> Box<dyn Decompressor + Send> {
        Box::new(self.clone())
    }
}

impl SeededCompressor for Lzss {
    fn name(&self) -> &'static str {
        "gzip"
    }

    fn compress_seeded_into(&self, refs: &[LineData], line: &LineData, out: &mut BitWriter) {
        let mut scratch = Lzss::new(self.window_bytes);
        scratch.seed(refs);
        scratch.encode_line(line, out);
    }

    fn decompress_seeded_from(
        &self,
        refs: &[LineData],
        r: &mut BitReader<'_>,
    ) -> Result<LineData, DecodeError> {
        let mut scratch = Lzss::new(self.window_bytes);
        scratch.seed(refs);
        scratch.decode_line(r)
    }

    fn clone_box(&self) -> Box<dyn SeededCompressor + Send + Sync> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_common::SplitMix64;
    use proptest::prelude::*;

    #[test]
    fn zero_line_compresses_via_overlap_run() {
        let mut enc = Lzss::new(32 << 10);
        let mut dec = Lzss::new(32 << 10);
        let payload = enc.compress(&LineData::zeroed());
        // 3 literal zeros (matches need 3 bytes of history) followed by one
        // overlapping run of 61: 3 * 9 + 24 bits.
        assert_eq!(payload.len_bits(), 51);
        assert_eq!(dec.decompress(&payload).unwrap(), LineData::zeroed());
    }

    #[test]
    fn second_occurrence_is_single_match() {
        let mut enc = Lzss::new(32 << 10);
        let mut dec = Lzss::new(32 << 10);
        let mut rng = SplitMix64::new(1);
        let mut words = [0u32; 16];
        for w in &mut words {
            *w = rng.next_u32();
        }
        let line = LineData::from_words(words);
        let first = enc.compress(&line);
        let second = enc.compress(&line);
        assert_eq!(second.len_bits(), 24, "one 64-byte match token");
        assert_eq!(dec.decompress(&first).unwrap(), line);
        assert_eq!(dec.decompress(&second).unwrap(), line);
    }

    #[test]
    fn window_forgets_distant_history() {
        let mut enc = Lzss::new(256);
        let mut dec = Lzss::new(256);
        let mut rng = SplitMix64::new(2);
        let mk = |rng: &mut SplitMix64| {
            let mut words = [0u32; 16];
            for w in &mut words {
                *w = rng.next_u32();
            }
            LineData::from_words(words)
        };
        let first = mk(&mut rng);
        let p = enc.compress(&first);
        dec.decompress(&p).unwrap();
        for _ in 0..8 {
            let l = mk(&mut rng);
            let p = enc.compress(&l);
            dec.decompress(&p).unwrap();
        }
        let again = enc.compress(&first);
        assert!(again.len_bits() > 100, "match must be outside the window");
        assert_eq!(dec.decompress(&again).unwrap(), first);
    }

    #[test]
    fn byte_shifted_copy_still_matches() {
        // gzip works at byte granularity: a 1-byte shift is still one match,
        // which word-aligned schemes (CPACK/LBE) cannot express.
        let engine = Lzss::seeded();
        let mut base = [0u8; 64];
        let mut rng = SplitMix64::new(3);
        for b in &mut base {
            *b = rng.next_u32() as u8;
        }
        let reference = LineData::from_bytes(base);
        let mut shifted = [0u8; 64];
        shifted[1..].copy_from_slice(&base[..63]);
        shifted[0] = 0x55;
        let target = LineData::from_bytes(shifted);
        let payload = engine.compress_seeded(&[reference], &target);
        assert!(payload.len_bits() <= 9 + 24);
        assert_eq!(
            engine.decompress_seeded(&[reference], &payload).unwrap(),
            target
        );
    }

    #[test]
    fn corrupt_distance_is_decode_error() {
        let mut w = BitWriter::new();
        w.write_bit(false);
        w.write_bits(30_000, DIST_BITS);
        w.write_bits(0, LEN_BITS);
        let mut dec = Lzss::new(32 << 10);
        assert!(dec.decompress(&Encoded::new(w)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_stream_round_trip(
            lines in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 64), 1..12)
        ) {
            let mut enc = Lzss::new(1 << 12);
            let mut dec = Lzss::new(1 << 12);
            for bytes in lines {
                let mut arr = [0u8; 64];
                arr.copy_from_slice(&bytes);
                let line = LineData::from_bytes(arr);
                let payload = enc.compress(&line);
                prop_assert_eq!(dec.decompress(&payload).unwrap(), line);
            }
        }

        #[test]
        fn prop_low_entropy_stream_round_trip(
            lines in proptest::collection::vec(proptest::collection::vec(0u8..4, 64), 1..12)
        ) {
            let mut enc = Lzss::new(1 << 12);
            let mut dec = Lzss::new(1 << 12);
            for bytes in lines {
                let mut arr = [0u8; 64];
                arr.copy_from_slice(&bytes);
                let line = LineData::from_bytes(arr);
                let payload = enc.compress(&line);
                prop_assert_eq!(dec.decompress(&payload).unwrap(), line);
            }
        }

        #[test]
        fn prop_seeded_round_trip(
            target in proptest::collection::vec(any::<u8>(), 64),
            reference in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let engine = Lzss::seeded();
            let mut t = [0u8; 64];
            t.copy_from_slice(&target);
            let mut r = [0u8; 64];
            r.copy_from_slice(&reference);
            let line = LineData::from_bytes(t);
            let refs = [LineData::from_bytes(r)];
            let payload = engine.compress_seeded(&refs, &line);
            prop_assert_eq!(engine.decompress_seeded(&refs, &payload).unwrap(), line);
        }
    }
}
