//! C-PACK: pattern-based word compression with a FIFO dictionary.
//!
//! Implements the cache-compression algorithm of Chen et al. (TVLSI 2010)
//! used by the paper in three configurations:
//!
//! - **CPACK** ([`Cpack::per_line`]): the dictionary is reset for every line
//!   (the paper's "non-dictionary" classification — no state is carried
//!   across lines).
//! - **CPACK128** ([`Cpack::streaming`] with 128 bytes): the dictionary
//!   persists across the link stream with FIFO replacement (§VI-A).
//! - **CABLE+CPACK128** ([`Cpack::seeded`]): a temporary dictionary is built
//!   from CABLE's reference lines before compressing (§III-E).
//!
//! Each 32-bit word is encoded with one of six prefix codes:
//!
//! | pattern | meaning | payload |
//! |---|---|---|
//! | `00` zzzz | all-zero word | — |
//! | `01` xxxx | no match | 32-bit literal |
//! | `10` mmmm | full dictionary match | index |
//! | `1100` mmxx | high 16 bits match | index + 16 bits |
//! | `1101` zzzx | only low byte non-zero | 8 bits |
//! | `1110` mmmx | high 24 bits match | index + 8 bits |
//!
//! Unmatched and partially matched words are pushed into the FIFO
//! dictionary, on both the encoder and decoder, keeping them in lockstep.
//!
//! # Vectorized dictionary probe
//!
//! The per-word encoder cost is dominated by the dictionary scan, which
//! classifies every entry against three patterns (`mmmm`, `mmmx`, `mmxx`).
//! The lane probe computes all three match masks for the whole
//! dictionary in one pass ([`cable_common::lanes::cpack_match_masks`]) and
//! picks the first match of each class with `trailing_zeros`. The masks are
//! one `u64` each, so dictionaries beyond 64 entries take the original
//! branchy scan instead; the unit tests hold the two probes identical on
//! every dictionary that fits a movemask.

use crate::{Compressor, DecodeError, Decompressor, Encoded, SeededCompressor};
use cable_common::{bits_for, lanes, BitReader, BitWriter, LineData, WORDS_PER_LINE, WORD_BYTES};
use std::collections::{HashMap, VecDeque};

const CODE_ZZZZ: u64 = 0b00;
const CODE_XXXX: u64 = 0b01;
const CODE_MMMM: u64 = 0b10;
const CODE_MMXX: u64 = 0b1100;
const CODE_ZZZX: u64 = 0b1101;
const CODE_MMMX: u64 = 0b1110;

/// The C-PACK compressor/decompressor.
///
/// One instance is one side of a link; construct a second, identically
/// configured instance for the peer.
///
/// # Examples
///
/// ```
/// use cable_compress::{Compressor, Decompressor, Cpack};
/// use cable_common::LineData;
///
/// let mut enc = Cpack::streaming(128); // CPACK128
/// let mut dec = Cpack::streaming(128);
/// let a = LineData::splat_word(0x0a0b_0c0d);
/// let first = enc.compress(&a);
/// assert_eq!(dec.decompress(&first).unwrap(), a);
/// // The second occurrence compresses much better: the dictionary persists.
/// let second = enc.compress(&a);
/// assert!(second.len_bits() < first.len_bits());
/// assert_eq!(dec.decompress(&second).unwrap(), a);
/// ```
#[derive(Clone, Debug)]
pub struct Cpack {
    persist: bool,
    /// The link's FIFO dictionary (reset per line unless `persist`).
    dict: Dict<Vec<u32>>,
}

/// Largest seeded dictionary buffer kept on the stack: room for a 32-word
/// (CPACK128) dictionary plus the 16 pushes one line can make.
const SEEDED_STACK_WORDS: usize = 64;

impl Cpack {
    fn with_capacity(capacity_words: usize, persist: bool) -> Self {
        Cpack {
            persist,
            dict: Dict::new(vec![0; 2 * capacity_words], capacity_words),
        }
    }

    /// Classic per-line CPACK: 16-word (64-byte) dictionary, reset per line.
    #[must_use]
    pub fn per_line() -> Self {
        Cpack::with_capacity(WORDS_PER_LINE, false)
    }

    /// Streaming CPACK with a `dict_bytes` FIFO dictionary that persists
    /// across lines (`streaming(128)` is the paper's CPACK128).
    ///
    /// # Panics
    ///
    /// Panics if `dict_bytes` is not a positive multiple of 4.
    #[must_use]
    pub fn streaming(dict_bytes: usize) -> Self {
        assert!(
            dict_bytes > 0 && dict_bytes.is_multiple_of(WORD_BYTES),
            "dictionary must be a positive multiple of 4 bytes"
        );
        Cpack::with_capacity(dict_bytes / WORD_BYTES, true)
    }

    /// CABLE-seeded CPACK: a per-call temporary dictionary sized for three
    /// 64-byte references plus in-line insertions (128-byte index space, as
    /// CABLE+CPACK128 in Fig. 20).
    #[must_use]
    pub fn seeded() -> Self {
        Cpack::with_capacity(32, false)
    }

    /// Dictionary capacity in 32-bit words.
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.dict.cap
    }

    /// The temporary dictionary of one seeded call, without cloning the
    /// engine: the FIFO state after pushing every reference word (the last
    /// `capacity_words` of them), in `stack` when the dictionary and one
    /// line's pushes fit, else in `heap`.
    fn seeded_dict<'a>(
        &self,
        refs: &[LineData],
        stack: &'a mut [u32; SEEDED_STACK_WORDS],
        heap: &'a mut Vec<u32>,
    ) -> Dict<&'a mut [u32]> {
        let cap = self.dict.cap;
        let len = cap + WORDS_PER_LINE;
        let buf: &mut [u32] = if len <= SEEDED_STACK_WORDS {
            &mut stack[..len]
        } else {
            heap.resize(len, 0);
            heap
        };
        let total = refs.len() * WORDS_PER_LINE;
        let kept = total.min(cap);
        let tail = refs.iter().flat_map(LineData::words).skip(total - kept);
        for (slot, w) in buf.iter_mut().zip(tail) {
            *slot = w;
        }
        let mut dict = Dict::new(buf, cap);
        dict.end = kept;
        dict
    }
}

/// C-PACK's FIFO dictionary: at most `cap` words, oldest first, stored as
/// the window `buf[start..end]`. A push appends at `end` and, at capacity,
/// advances `start`, so indices stay FIFO positions without shifting the
/// words. Only when `end` reaches the end of `buf` does the window move
/// back to the front: one `copy_within` per `buf.len() - cap` pushes.
#[derive(Clone, Debug)]
struct Dict<B> {
    buf: B,
    start: usize,
    end: usize,
    cap: usize,
}

impl<B: AsRef<[u32]> + AsMut<[u32]>> Dict<B> {
    /// An empty dictionary of `cap` words over `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` has no room beyond `cap` words.
    fn new(buf: B, cap: usize) -> Self {
        assert!(buf.as_ref().len() > cap, "dictionary buffer too small");
        Dict {
            buf,
            start: 0,
            end: 0,
            cap,
        }
    }

    fn words(&self) -> &[u32] {
        &self.buf.as_ref()[self.start..self.end]
    }

    fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    fn push(&mut self, word: u32) {
        let buf = self.buf.as_mut();
        if self.end == buf.len() {
            buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        buf[self.end] = word;
        self.end += 1;
        if self.end - self.start > self.cap {
            self.start += 1;
        }
    }

    fn index_bits(&self) -> u32 {
        bits_for(self.cap as u64).max(1)
    }

    fn encode_line(&mut self, line: &LineData, out: &mut BitWriter) {
        let b = self.index_bits();
        for word in line.words() {
            self.encode_word(word, b, out);
        }
    }

    /// Encodes one word with `b`-bit dictionary indices, pushing partial
    /// matches and literals into the dictionary. Each code goes out as one
    /// `write_bits` call (code and fields packed MSB-first).
    #[inline]
    fn encode_word(&mut self, word: u32, b: u32, out: &mut BitWriter) {
        if word == 0 {
            out.write_bits(CODE_ZZZZ, 2);
            return;
        }
        if word & 0xffff_ff00 == 0 {
            out.write_bits(CODE_ZZZX << 8 | u64::from(word & 0xff), 12);
            return;
        }
        // The dictionary mutates word-by-word (partial matches and
        // literals are pushed), so the probe is per word — but it
        // classifies the whole dictionary in one pass when it fits a
        // 64-lane movemask.
        let dict = self.words();
        let probe = if dict.len() <= 64 {
            probe_lanes(dict, word)
        } else {
            probe_scalar(dict, word)
        };
        match probe {
            Probe::Full(i) => {
                out.write_bits(CODE_MMMM << b | i as u64, 2 + b);
            }
            Probe::Hi24(i) => {
                out.write_bits(
                    (CODE_MMMX << b | i as u64) << 8 | u64::from(word & 0xff),
                    12 + b,
                );
                self.push(word);
            }
            Probe::Hi16(i) => {
                out.write_bits(
                    (CODE_MMXX << b | i as u64) << 16 | u64::from(word & 0xffff),
                    20 + b,
                );
                self.push(word);
            }
            Probe::Miss => {
                out.write_bits(CODE_XXXX << 32 | u64::from(word), 34);
                self.push(word);
            }
        }
    }

    fn entry(&self, idx: usize) -> Result<u32, DecodeError> {
        self.words()
            .get(idx)
            .copied()
            .ok_or_else(|| DecodeError::new(format!("bad dict index {idx}")))
    }

    fn decode_line(&mut self, r: &mut BitReader<'_>) -> Result<LineData, DecodeError> {
        let b = self.index_bits();
        let mut line = LineData::zeroed();
        for i in 0..WORDS_PER_LINE {
            let c2 = r
                .read_bits(2)
                .ok_or_else(|| DecodeError::new("truncated code"))?;
            let word = match c2 {
                CODE_ZZZZ => 0,
                CODE_XXXX => {
                    let w = r
                        .read_bits(32)
                        .ok_or_else(|| DecodeError::new("truncated literal"))?
                        as u32;
                    self.push(w);
                    w
                }
                CODE_MMMM => {
                    let idx = r
                        .read_bits(b)
                        .ok_or_else(|| DecodeError::new("truncated index"))?
                        as usize;
                    self.entry(idx)?
                }
                _ => {
                    // Extended 4-bit code.
                    let ext = r
                        .read_bits(2)
                        .ok_or_else(|| DecodeError::new("truncated extended code"))?;
                    let c4 = (c2 << 2) | ext;
                    match c4 {
                        CODE_ZZZX => r
                            .read_bits(8)
                            .ok_or_else(|| DecodeError::new("truncated zzzx byte"))?
                            as u32,
                        CODE_MMMX | CODE_MMXX => {
                            let idx = r
                                .read_bits(b)
                                .ok_or_else(|| DecodeError::new("truncated index"))?
                                as usize;
                            let base = self.entry(idx)?;
                            let w = if c4 == CODE_MMMX {
                                let low = r
                                    .read_bits(8)
                                    .ok_or_else(|| DecodeError::new("truncated mmmx byte"))?
                                    as u32;
                                (base & 0xffff_ff00) | low
                            } else {
                                let low = r
                                    .read_bits(16)
                                    .ok_or_else(|| DecodeError::new("truncated mmxx half"))?
                                    as u32;
                                (base & 0xffff_0000) | low
                            };
                            self.push(w);
                            w
                        }
                        other => return Err(DecodeError::new(format!("unknown code {other:04b}"))),
                    }
                } // c2 is two bits; all four values are covered above.
            };
            line.set_word(i, word);
        }
        Ok(line)
    }
}

/// Outcome of one dictionary probe: the first match of the best pattern
/// class, in C-PACK's fixed priority order (full, high-24, high-16).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Probe {
    Full(usize),
    Hi24(usize),
    Hi16(usize),
    Miss,
}

/// Early-exit linear scan: the probe for dictionaries beyond 64 entries,
/// and the oracle [`probe_lanes`] is tested against.
fn probe_scalar(dict: &[u32], word: u32) -> Probe {
    let mut hi24 = None;
    let mut hi16 = None;
    for (i, &d) in dict.iter().enumerate() {
        if d == word {
            return Probe::Full(i);
        }
        if hi24.is_none() && d & 0xffff_ff00 == word & 0xffff_ff00 {
            hi24 = Some(i);
        }
        if hi16.is_none() && d & 0xffff_0000 == word & 0xffff_0000 {
            hi16 = Some(i);
        }
    }
    match (hi24, hi16) {
        (Some(i), _) => Probe::Hi24(i),
        (None, Some(i)) => Probe::Hi16(i),
        (None, None) => Probe::Miss,
    }
}

/// Lane-parallel probe: one sweep computes the full/hi24/hi16 match masks
/// for the whole dictionary, then each class's first index is a
/// `trailing_zeros`. Equivalent to [`probe_scalar`]: when a full match
/// exists both return its first index, and otherwise the scalar scan ran
/// to completion, so its first-seen partial indices equal the mask ones.
fn probe_lanes(dict: &[u32], word: u32) -> Probe {
    let (full, hi24, hi16) = lanes::cpack_match_masks(dict, word);
    if full != 0 {
        Probe::Full(full.trailing_zeros() as usize)
    } else if hi24 != 0 {
        Probe::Hi24(hi24.trailing_zeros() as usize)
    } else if hi16 != 0 {
        Probe::Hi16(hi16.trailing_zeros() as usize)
    } else {
        Probe::Miss
    }
}

impl Default for Cpack {
    fn default() -> Self {
        Cpack::per_line()
    }
}

impl Compressor for Cpack {
    fn name(&self) -> &'static str {
        if self.persist {
            "CPACK128"
        } else {
            "CPACK"
        }
    }

    fn compress(&mut self, line: &LineData) -> Encoded {
        if !self.persist {
            self.dict.clear();
        }
        let mut out = BitWriter::new();
        self.dict.encode_line(line, &mut out);
        Encoded::new(out)
    }

    fn clone_box(&self) -> Box<dyn Compressor + Send> {
        Box::new(self.clone())
    }
}

impl Decompressor for Cpack {
    fn decompress(&mut self, payload: &Encoded) -> Result<LineData, DecodeError> {
        if !self.persist {
            self.dict.clear();
        }
        let mut r = payload.reader();
        self.dict.decode_line(&mut r)
    }

    fn clone_box(&self) -> Box<dyn Decompressor + Send> {
        Box::new(self.clone())
    }
}

impl SeededCompressor for Cpack {
    fn name(&self) -> &'static str {
        "CPACK128"
    }

    fn compress_seeded_into(&self, refs: &[LineData], line: &LineData, out: &mut BitWriter) {
        let mut stack = [0u32; SEEDED_STACK_WORDS];
        let mut heap = Vec::new();
        self.seeded_dict(refs, &mut stack, &mut heap)
            .encode_line(line, out);
    }

    fn decompress_seeded_from(
        &self,
        refs: &[LineData],
        r: &mut BitReader<'_>,
    ) -> Result<LineData, DecodeError> {
        let mut stack = [0u32; SEEDED_STACK_WORDS];
        let mut heap = Vec::new();
        self.seeded_dict(refs, &mut stack, &mut heap).decode_line(r)
    }

    fn clone_box(&self) -> Box<dyn SeededCompressor + Send + Sync> {
        Box::new(self.clone())
    }
}

/// The "ideal" configurable-dictionary model behind Fig. 3.
///
/// Fig. 3 profiles CPACK "modified with configurable dictionary size minus
/// symbol overheads" over dictionaries from tens of bytes to megabytes. A
/// linear dictionary scan is infeasible at that size (that is precisely the
/// paper's "finding similarity" challenge), so this model indexes the
/// sliding window with hash maps and charges per-word costs:
///
/// - zero word: 2 bits
/// - full match: 2 bits + `pointer_bits`
/// - high-24/high-16 partial match: 4 bits + `pointer_bits` + 8/16 bits
/// - literal: 2 + 32 bits
///
/// With `pointer_bits = 0` it reproduces the `Ideal` curve (no pointer
/// overhead); with `pointer_bits = log2(window words)` it reproduces
/// `Ideal With Pointer`.
#[derive(Debug, Clone)]
pub struct IdealDictionary {
    capacity_words: usize,
    fifo: VecDeque<u32>,
    full: HashMap<u32, usize>,
    hi24: HashMap<u32, usize>,
    hi16: HashMap<u32, usize>,
}

impl IdealDictionary {
    /// Creates a sliding-window dictionary of `dict_bytes` capacity.
    ///
    /// # Panics
    ///
    /// Panics if `dict_bytes` is not a positive multiple of 4.
    #[must_use]
    pub fn new(dict_bytes: u64) -> Self {
        assert!(
            dict_bytes > 0 && dict_bytes.is_multiple_of(WORD_BYTES as u64),
            "dictionary must be a positive multiple of 4 bytes"
        );
        IdealDictionary {
            capacity_words: (dict_bytes / WORD_BYTES as u64) as usize,
            fifo: VecDeque::new(),
            full: HashMap::new(),
            hi24: HashMap::new(),
            hi16: HashMap::new(),
        }
    }

    /// Pointer width that a real encoder would need for this window.
    #[must_use]
    pub fn pointer_bits(&self) -> u32 {
        bits_for(self.capacity_words as u64).max(1)
    }

    fn remove_counts(map: &mut HashMap<u32, usize>, key: u32) {
        if let Some(n) = map.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                map.remove(&key);
            }
        }
    }

    fn push(&mut self, word: u32) {
        if self.fifo.len() == self.capacity_words {
            let old = self.fifo.pop_front().expect("non-empty at capacity");
            Self::remove_counts(&mut self.full, old);
            Self::remove_counts(&mut self.hi24, old >> 8);
            Self::remove_counts(&mut self.hi16, old >> 16);
        }
        self.fifo.push_back(word);
        *self.full.entry(word).or_insert(0) += 1;
        *self.hi24.entry(word >> 8).or_insert(0) += 1;
        *self.hi16.entry(word >> 16).or_insert(0) += 1;
    }

    /// Returns the compressed size in bits of `line` under the given pointer
    /// cost, then slides the line into the window.
    pub fn cost_bits_and_update(&mut self, line: &LineData, pointer_bits: u32) -> usize {
        let mut bits = 0usize;
        for word in line.words() {
            if word == 0 {
                bits += 2;
            } else if word & 0xffff_ff00 == 0 {
                bits += 12;
            } else if self.full.contains_key(&word) {
                bits += 2 + pointer_bits as usize;
            } else if self.hi24.contains_key(&(word >> 8)) {
                bits += 12 + pointer_bits as usize;
            } else if self.hi16.contains_key(&(word >> 16)) {
                bits += 20 + pointer_bits as usize;
            } else {
                bits += 34;
            }
            self.push(word);
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_common::SplitMix64;
    use proptest::prelude::*;

    fn round_trip_per_line(line: LineData) {
        let mut enc = Cpack::per_line();
        let mut dec = Cpack::per_line();
        let payload = enc.compress(&line);
        assert_eq!(dec.decompress(&payload).unwrap(), line);
    }

    #[test]
    fn zero_line_is_32_bits() {
        let mut enc = Cpack::per_line();
        // 16 words x 2-bit zzzz codes.
        assert_eq!(enc.compress(&LineData::zeroed()).len_bits(), 32);
    }

    #[test]
    fn repeated_word_uses_dictionary() {
        let mut enc = Cpack::per_line();
        let payload = enc.compress(&LineData::splat_word(0xdead_beef));
        // First word is a 34-bit literal, remaining 15 are 2+4-bit matches.
        assert_eq!(payload.len_bits(), 34 + 15 * 6);
        round_trip_per_line(LineData::splat_word(0xdead_beef));
    }

    #[test]
    fn zzzx_words() {
        let line = LineData::from_words([0x7f; 16]);
        let mut enc = Cpack::per_line();
        assert_eq!(enc.compress(&line).len_bits(), 16 * 12);
        round_trip_per_line(line);
    }

    #[test]
    fn partial_matches_round_trip() {
        // Words sharing high 24 bits and high 16 bits.
        let line = LineData::from_words([
            0x1234_5600,
            0x1234_5678,
            0x1234_56ff,
            0x1234_0000,
            0x1234_abcd,
            0xaaaa_bbbb,
            0xaaaa_cccc,
            0,
            0,
            1,
            2,
            3,
            0x1234_5678,
            0x7fff_ffff,
            0x8000_0000,
            0xffff_ffff,
        ]);
        round_trip_per_line(line);
    }

    #[test]
    fn per_line_resets_dictionary() {
        let mut enc = Cpack::per_line();
        let line = LineData::splat_word(0x0102_0304);
        let a = enc.compress(&line);
        let b = enc.compress(&line);
        assert_eq!(a.len_bits(), b.len_bits(), "per-line CPACK keeps no state");
    }

    #[test]
    fn streaming_dictionary_persists() {
        let mut enc = Cpack::streaming(128);
        let mut dec = Cpack::streaming(128);
        let line = LineData::splat_word(0x0102_0304);
        let a = enc.compress(&line);
        let b = enc.compress(&line);
        assert!(b.len_bits() < a.len_bits());
        assert_eq!(dec.decompress(&a).unwrap(), line);
        assert_eq!(dec.decompress(&b).unwrap(), line);
    }

    #[test]
    fn streaming_fifo_evicts() {
        let mut enc = Cpack::streaming(8); // 2-word dictionary
        let mut dec = Cpack::streaming(8);
        let mut rng = SplitMix64::new(1);
        for _ in 0..50 {
            let mut words = [0u32; 16];
            for w in &mut words {
                *w = rng.next_u32() | 0x0001_0000; // avoid zzzz/zzzx
            }
            let line = LineData::from_words(words);
            let payload = enc.compress(&line);
            assert_eq!(dec.decompress(&payload).unwrap(), line);
        }
    }

    #[test]
    fn seeded_references_shrink_payload() {
        let reference = LineData::from_words([
            0x1111_0001,
            0x2222_0002,
            0x3333_0003,
            0x4444_0004,
            0x5555_0005,
            0x6666_0006,
            0x7777_0007,
            0x8888_0008,
            0x9999_0009,
            0xaaaa_000a,
            0xbbbb_000b,
            0xcccc_000c,
            0xdddd_000d,
            0xeeee_000e,
            0xffff_000f,
            0x1212_0010,
        ]);
        let mut target = reference;
        target.set_word(3, 0x4444_9999);
        let engine = Cpack::seeded();
        let seeded = engine.compress_seeded(&[reference], &target);
        let unseeded = engine.compress_seeded(&[], &target);
        assert!(seeded.len_bits() < unseeded.len_bits());
        assert_eq!(
            engine.decompress_seeded(&[reference], &seeded).unwrap(),
            target
        );
    }

    #[test]
    fn truncated_payload_reports_error() {
        let mut enc = Cpack::per_line();
        let payload = enc.compress(&LineData::splat_word(0x0102_0304));
        let truncated = Encoded::new({
            let mut w = BitWriter::new();
            let mut r = payload.reader();
            for _ in 0..payload.len_bits() / 2 {
                w.write_bit(r.read_bit().unwrap());
            }
            w
        });
        let mut dec = Cpack::per_line();
        assert!(dec.decompress(&truncated).is_err());
    }

    #[test]
    fn ideal_dictionary_costs() {
        let mut ideal = IdealDictionary::new(64);
        let line = LineData::splat_word(0x0102_0304);
        // First pass: first word literal (34), then 15 free-pointer matches.
        let first = ideal.cost_bits_and_update(&line, 0);
        assert_eq!(first, 34 + 15 * 2);
        // Second pass: everything matches.
        let second = ideal.cost_bits_and_update(&line, 0);
        assert_eq!(second, 16 * 2);
        // Pointer overhead makes matches cost more.
        let mut with_ptr = IdealDictionary::new(64);
        with_ptr.cost_bits_and_update(&line, 4);
        let second_ptr = with_ptr.cost_bits_and_update(&line, 4);
        assert_eq!(second_ptr, 16 * 6);
    }

    #[test]
    fn ideal_dictionary_window_evicts() {
        let mut ideal = IdealDictionary::new(64); // one line worth of words
        let a = LineData::splat_word(0x0101_0101);
        let b = LineData::splat_word(0x0202_0202);
        ideal.cost_bits_and_update(&a, 0);
        ideal.cost_bits_and_update(&b, 0); // pushes `a` fully out
        let third = ideal.cost_bits_and_update(&a, 0);
        assert_eq!(third, 34 + 15 * 2, "a must have been evicted");
    }

    /// Encodes `line` word by word, checking before each word that the lane
    /// probe and the scalar probe classify it identically against the
    /// dictionary as it stands.
    fn assert_probes_agree<B: AsRef<[u32]> + AsMut<[u32]>>(dict: &mut Dict<B>, line: &LineData) {
        let b = dict.index_bits();
        let mut out = BitWriter::new();
        for word in line.words() {
            assert!(dict.words().len() <= 64);
            assert_eq!(
                probe_lanes(dict.words(), word),
                probe_scalar(dict.words(), word)
            );
            dict.encode_word(word, b, &mut out);
        }
    }

    /// The seeded call as it was first written: clone the engine, push
    /// every reference word through its FIFO, then encode. The oracle for
    /// the clone-free [`Cpack::seeded_dict`].
    fn seeded_by_pushes(engine: &Cpack, refs: &[LineData], line: &LineData) -> BitWriter {
        let mut scratch = engine.clone();
        scratch.dict.clear();
        for w in refs.iter().flat_map(LineData::words) {
            scratch.dict.push(w);
        }
        let mut out = BitWriter::new();
        scratch.dict.encode_line(line, &mut out);
        out
    }

    proptest! {
        #[test]
        fn prop_per_line_round_trip(words in proptest::array::uniform16(any::<u32>())) {
            round_trip_per_line(LineData::from_words(words));
        }

        #[test]
        fn prop_streaming_round_trip(
            lines in proptest::collection::vec(proptest::array::uniform16(any::<u32>()), 1..20),
            dict_bytes in prop_oneof![Just(128usize), Just(512)],
        ) {
            // The 128-entry dictionary outgrows the movemask and takes the
            // scalar probe.
            let mut enc = Cpack::streaming(dict_bytes);
            let mut dec = Cpack::streaming(dict_bytes);
            for words in lines {
                let line = LineData::from_words(words);
                let payload = enc.compress(&line);
                prop_assert_eq!(dec.decompress(&payload).unwrap(), line);
            }
        }

        #[test]
        fn prop_seeded_round_trip(
            target in proptest::array::uniform16(any::<u32>()),
            r0 in proptest::array::uniform16(any::<u32>()),
            r1 in proptest::array::uniform16(any::<u32>()),
        ) {
            let engine = Cpack::seeded();
            let refs = [LineData::from_words(r0), LineData::from_words(r1)];
            let line = LineData::from_words(target);
            let payload = engine.compress_seeded(&refs, &line);
            prop_assert_eq!(engine.decompress_seeded(&refs, &payload).unwrap(), line);
        }

        #[test]
        fn prop_payload_never_exceeds_worst_case(words in proptest::array::uniform16(any::<u32>())) {
            // Worst case: 16 literals at 34 bits.
            let mut enc = Cpack::per_line();
            let payload = enc.compress(&LineData::from_words(words));
            prop_assert!(payload.len_bits() <= 16 * 34);
        }

        /// Lane probe vs scalar probe on every seeded dictionary state. The
        /// word pool shares high bytes so every pattern class fires; the
        /// adversarial families add all-zero, all-miss and clashy lines.
        #[test]
        fn prop_seeded_matches_scalar_oracle(
            (refs, line) in prop_oneof![
                (
                    (
                        proptest::array::uniform16(prop_oneof![
                            Just(0x1234_5600u32), Just(0x1234_0000u32), any::<u32>(),
                        ]),
                        proptest::array::uniform16(any::<u32>()),
                    )
                        .prop_map(|(r0, r1)| vec![LineData::from_words(r0), LineData::from_words(r1)]),
                    proptest::array::uniform16(prop_oneof![
                        Just(0u32), Just(0x7fu32), Just(0x1234_5600u32), Just(0x1234_0042u32),
                        Just(0x1234_5678u32), any::<u32>(),
                    ])
                    .prop_map(LineData::from_words),
                ),
                crate::test_lines::family_case(),
            ],
        ) {
            let engine = Cpack::seeded();
            let mut stack = [0u32; SEEDED_STACK_WORDS];
            let mut heap = Vec::new();
            assert_probes_agree(&mut engine.seeded_dict(&refs, &mut stack, &mut heap), &line);
        }

        /// Streaming equivalence: the probes agree on every dictionary state
        /// a line sequence builds.
        #[test]
        fn prop_streaming_matches_scalar_oracle(
            lines in proptest::collection::vec(
                proptest::array::uniform16(prop_oneof![
                    Just(0x1234_5600u32), Just(0x1234_0042u32), 0u32..16, any::<u32>(),
                ]),
                1..16,
            )
        ) {
            let mut engine = Cpack::streaming(128);
            for words in lines {
                assert_probes_agree(&mut engine.dict, &LineData::from_words(words));
            }
        }

        /// The windowed FIFO holds exactly the last `cap` words pushed,
        /// oldest first, whatever the slack of its buffer.
        #[test]
        fn prop_dict_is_a_fifo(
            cap in 1usize..40,
            slack in 1usize..20,
            pushes in proptest::collection::vec(any::<u32>(), 0..200),
        ) {
            let mut dict = Dict::new(vec![0; cap + slack], cap);
            let mut model = VecDeque::new();
            for w in pushes {
                dict.push(w);
                model.push_back(w);
                if model.len() > cap {
                    model.pop_front();
                }
                prop_assert_eq!(dict.words(), model.make_contiguous());
            }
        }

        /// The clone-free seeded dictionary encodes exactly as cloning the
        /// engine and pushing every reference word did, for zero to four
        /// references (four overflow the 32-word dictionary), on the stack
        /// (CPACK128) and on the heap (a 64-word dictionary); the payload
        /// decodes back to the line.
        #[test]
        fn prop_seeded_matches_pushing_every_reference_word(
            refs in proptest::collection::vec(
                proptest::array::uniform16(prop_oneof![
                    Just(0x1234_5600u32), Just(0x1234_0000u32), 0u32..256, any::<u32>(),
                ]),
                0..5,
            ),
            target in proptest::array::uniform16(prop_oneof![
                Just(0x1234_5678u32), Just(0x1234_0042u32), 0u32..256, any::<u32>(),
            ]),
            big in any::<bool>(),
        ) {
            let engine = if big { Cpack::streaming(256) } else { Cpack::seeded() };
            let refs: Vec<LineData> = refs.into_iter().map(LineData::from_words).collect();
            let line = LineData::from_words(target);
            let payload = engine.compress_seeded(&refs, &line);
            prop_assert_eq!(&payload, &Encoded::new(seeded_by_pushes(&engine, &refs, &line)));
            prop_assert_eq!(engine.decompress_seeded(&refs, &payload).unwrap(), line);
        }
    }
}
