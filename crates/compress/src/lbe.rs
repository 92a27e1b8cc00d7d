//! LBE: word-aligned LZ with run-length copies.
//!
//! LBE comes from the authors' MORC compressed cache (MICRO 2015). The
//! property this paper leans on is that "LBE can copy large aligned data
//! blocks with lower overheads" than CPACK (§VI-E, Fig. 20 discussion): one
//! copy command can cover a run of many 32-bit words, so a near-duplicate
//! reference line compresses to a handful of bits. We implement it as a
//! 32-bit-word-aligned LZ coder over a FIFO window:
//!
//! | code | meaning | payload |
//! |---|---|---|
//! | `00` | zero-word run | 4-bit run length − 1 |
//! | `01` | window copy | offset (log2 window) + 4-bit run length − 1 |
//! | `10` | literal word | flag + 8-bit small value or 32-bit word |
//! | `11` | self-repeat run | 1-bit distance (1 or 2) + 4-bit run length − 1 |
//!
//! The small-literal flag covers narrow integers cheaply (11 bits), and the
//! distance-2 repeat covers a repeated 64-bit value (the `ABAB…` word
//! pattern of BDI's "repeat" class) without a window.
//!
//! Configurations: [`Lbe::streaming`] with 256 bytes is the paper's LBE256
//! baseline; [`Lbe::seeded`] is CABLE+LBE, the paper's best engine, where
//! the window holds the (up to three) reference lines.
//!
//! The window is frozen while a line is coded and the line's words are
//! appended afterwards, keeping encoder and decoder in lockstep without
//! intra-line offset shifts (intra-line redundancy is covered by the zero
//! and repeat runs).
//!
//! # Vectorized encode path
//!
//! This is the hottest codec in the workspace (every CABLE fill runs it at
//! least twice), so the encoder works on whole lines at once: zero and
//! repeat runs come from 16-bit line masks (`trailing_ones` instead of
//! per-word compare loops), and the window match search broadcasts the
//! anchor word across the whole window with [`cable_common::lanes::eq_mask`]
//! and walks only the set bits. Seeded calls build their window in a stack
//! buffer — no engine clone, no allocation. The movemask is one `u64`, so
//! windows beyond 64 words (LBE512 and up) take the original per-word
//! encoder instead; the unit tests hold the two bit-identical on the wire
//! for every window that fits a movemask.

use crate::{Compressor, DecodeError, Decompressor, Encoded, SeededCompressor};
use cable_common::{bits_for, lanes, BitReader, BitWriter, LineData, WORDS_PER_LINE, WORD_BYTES};

const CODE_ZERO_RUN: u64 = 0b00;
const CODE_COPY: u64 = 0b01;
const CODE_LITERAL: u64 = 0b10;
const CODE_REPEAT: u64 = 0b11;
const RUN_BITS: u32 = 4;

/// Largest window the lane kernels handle (the movemask is one `u64`); it
/// also bounds the stack-allocated seeded window. Streaming windows beyond
/// 64 words (LBE512 and up) take the scalar path.
const LANE_WINDOW_WORDS: usize = 64;

/// The LBE compressor/decompressor.
///
/// # Examples
///
/// ```
/// use cable_compress::{Lbe, SeededCompressor};
/// use cable_common::LineData;
///
/// let engine = Lbe::seeded();
/// let reference = LineData::from_words(core::array::from_fn(|i| 0x1000 + i as u32));
/// let mut target = reference;
/// target.set_word(9, 0xffff);
/// let payload = engine.compress_seeded(&[reference], &target);
/// // One copy + one literal + one copy: far below the 512-bit raw size.
/// assert!(payload.len_bits() < 100);
/// assert_eq!(engine.decompress_seeded(&[reference], &payload).unwrap(), target);
/// ```
#[derive(Clone, Debug)]
pub struct Lbe {
    capacity_words: usize,
    persist: bool,
    window: Vec<u32>,
}

impl Lbe {
    /// Streaming LBE with a `window_bytes` FIFO window persisting across
    /// lines (`streaming(256)` is the paper's LBE256).
    ///
    /// # Panics
    ///
    /// Panics if `window_bytes` is not a positive multiple of 4.
    #[must_use]
    pub fn streaming(window_bytes: usize) -> Self {
        assert!(
            window_bytes > 0 && window_bytes.is_multiple_of(WORD_BYTES),
            "window must be a positive multiple of 4 bytes"
        );
        Lbe {
            capacity_words: window_bytes / WORD_BYTES,
            persist: true,
            window: Vec::new(),
        }
    }

    /// CABLE-seeded LBE: per-call window sized for three reference lines.
    #[must_use]
    pub fn seeded() -> Self {
        Lbe {
            capacity_words: 3 * WORDS_PER_LINE,
            persist: false,
            window: Vec::new(),
        }
    }

    /// Window capacity in 32-bit words.
    #[must_use]
    pub fn capacity_words(&self) -> usize {
        self.capacity_words
    }

    fn offset_bits(&self) -> u32 {
        bits_for(self.capacity_words as u64).max(1)
    }

    /// Appends a line to the FIFO window, evicting the oldest words. One
    /// `extend` + one `drain` instead of 16 pop/push pairs; the result is
    /// the same "last `capacity_words` words" suffix.
    fn push_line(&mut self, line: &LineData) {
        self.window.extend(line.words());
        let excess = self.window.len().saturating_sub(self.capacity_words);
        if excess > 0 {
            self.window.drain(..excess);
        }
    }

    /// Builds the seeded window (the FIFO suffix of the concatenated
    /// reference words) without cloning the engine: in `stack` when the
    /// references fit, spilling to `heap` for oversized calls.
    fn seeded_window<'a>(
        &self,
        refs: &[LineData],
        stack: &'a mut [u32; LANE_WINDOW_WORDS],
        heap: &'a mut Vec<u32>,
    ) -> &'a [u32] {
        let total = refs.len() * WORDS_PER_LINE;
        let skip = total - total.min(self.capacity_words);
        let all: &mut [u32] = if total <= LANE_WINDOW_WORDS {
            &mut stack[..total]
        } else {
            heap.resize(total, 0);
            heap
        };
        for (slot, r) in all.chunks_exact_mut(WORDS_PER_LINE).zip(refs) {
            slot.copy_from_slice(&r.to_words());
        }
        &all[skip..]
    }
}

/// Encodes one line against a frozen window, dispatching to the lane
/// kernels when the window fits a movemask.
fn encode_words(win: &[u32], ob: u32, words: &[u32; WORDS_PER_LINE], out: &mut BitWriter) {
    if win.len() <= LANE_WINDOW_WORDS {
        encode_words_lanes(win, ob, words, out);
    } else {
        encode_words_scalar(win, ob, words, out);
    }
}

/// Whole-line masks for the intra-line codes: bit `i` of `z` marks a zero
/// word, of `r1`/`r2` a word equal to its distance-1/-2 predecessor.
fn zero_repeat_masks(words: &[u32; WORDS_PER_LINE]) -> (u32, u32, u32) {
    let mut z = 0u32;
    let mut r1 = 0u32;
    let mut r2 = 0u32;
    for (i, &w) in words.iter().enumerate() {
        z |= u32::from(w == 0) << i;
    }
    for i in 1..WORDS_PER_LINE {
        r1 |= u32::from(words[i] == words[i - 1]) << i;
    }
    for i in 2..WORDS_PER_LINE {
        r2 |= u32::from(words[i] == words[i - 2]) << i;
    }
    (z, r1, r2)
}

/// Lane-parallel encoder: run lengths fall out of the precomputed masks as
/// `trailing_ones`, and the copy search only visits window slots whose
/// movemask bit is set. Bit-identical to [`encode_words_scalar`].
fn encode_words_lanes(win: &[u32], ob: u32, words: &[u32; WORDS_PER_LINE], out: &mut BitWriter) {
    let (z, r1, r2) = zero_repeat_masks(words);
    let mut i = 0;
    while i < WORDS_PER_LINE {
        // Zero run: cheapest coverage. The scalar cap of 16 words is the
        // line length, so `trailing_ones` needs no extra clamp.
        if z >> i & 1 == 1 {
            let len = (z >> i).trailing_ones() as usize;
            emit_zero_run(len, out);
            i += len;
            continue;
        }
        // Self-repeat runs; distance 1 wins ties, as in the scalar loop.
        let l1 = (r1 >> i).trailing_ones() as usize;
        let l2 = (r2 >> i).trailing_ones() as usize;
        let (rep_len, rep_dist) = if l2 > l1 { (l2, 2) } else { (l1, 1) };
        let max_len = WORDS_PER_LINE - i;
        // A copy can never beat a repeat that already reaches the end of
        // the line (copy_len <= max_len and repeats win ties), so skip the
        // window search entirely — the emitted code is unchanged.
        let copy = if rep_len >= max_len {
            None
        } else {
            best_copy_lanes(win, words, i)
        };
        let copy_len = copy.map_or(0, |(_, l)| l);
        if rep_len >= copy_len && rep_len > 0 {
            emit_repeat(rep_dist, rep_len, out);
            i += rep_len;
        } else if let Some((offset, len)) = copy {
            emit_copy(offset, ob, len, out);
            i += len;
        } else {
            emit_literal(words[i], out);
            i += 1;
        }
    }
}

/// Per-word encoder: the original loop, kept verbatim as the specification
/// the lane kernels are tested against and as the path for windows beyond
/// 64 words.
fn encode_words_scalar(win: &[u32], ob: u32, words: &[u32; WORDS_PER_LINE], out: &mut BitWriter) {
    let mut i = 0;
    while i < WORDS_PER_LINE {
        // Zero run: cheapest coverage.
        if words[i] == 0 {
            let mut len = 1;
            while i + len < WORDS_PER_LINE && words[i + len] == 0 && len < (1 << RUN_BITS) {
                len += 1;
            }
            emit_zero_run(len, out);
            i += len;
            continue;
        }
        // Self-repeat run at distance 1 or 2 (periodic word patterns).
        let mut rep_len = 0;
        let mut rep_dist = 1;
        for dist in [1usize, 2] {
            if i >= dist {
                let mut len = 0;
                while i + len < WORDS_PER_LINE
                    && words[i + len] == words[i + len - dist]
                    && len < (1 << RUN_BITS)
                {
                    len += 1;
                }
                if len > rep_len {
                    rep_len = len;
                    rep_dist = dist;
                }
            }
        }
        // Window copy.
        let copy = best_copy_scalar(win, words, i);
        let copy_len = copy.map_or(0, |(_, l)| l);
        if rep_len >= copy_len && rep_len > 0 {
            emit_repeat(rep_dist, rep_len, out);
            i += rep_len;
        } else if let Some((offset, len)) = copy {
            emit_copy(offset, ob, len, out);
            i += len;
        } else {
            emit_literal(words[i], out);
            i += 1;
        }
    }
}

// Each code goes out as one `write_bits` call: the 2-bit code and its
// fields packed MSB-first into a single value.

fn emit_zero_run(len: usize, out: &mut BitWriter) {
    out.write_bits(CODE_ZERO_RUN << RUN_BITS | (len as u64 - 1), 2 + RUN_BITS);
}

fn emit_repeat(dist: usize, len: usize, out: &mut BitWriter) {
    let code = (CODE_REPEAT << 1 | u64::from(dist == 2)) << RUN_BITS;
    out.write_bits(code | (len as u64 - 1), 3 + RUN_BITS);
}

fn emit_copy(offset: usize, ob: u32, len: usize, out: &mut BitWriter) {
    let code = (CODE_COPY << ob | offset as u64) << RUN_BITS;
    out.write_bits(code | (len as u64 - 1), 2 + ob + RUN_BITS);
}

fn emit_literal(word: u32, out: &mut BitWriter) {
    if word <= 0xff {
        out.write_bits((CODE_LITERAL << 1) << 8 | u64::from(word), 11);
    } else {
        out.write_bits((CODE_LITERAL << 1 | 1) << 32 | u64::from(word), 35);
    }
}

/// Longest window match for `words[i..]` via broadcast-compare: one
/// [`lanes::eq_mask`] finds every anchor position, then only those are
/// extended. First strictly-longest match wins, exactly as in the scalar
/// scan, and the walk stops early once a match reaches the end of the line
/// (no later candidate can be strictly longer).
fn best_copy_lanes(win: &[u32], words: &[u32; WORDS_PER_LINE], i: usize) -> Option<(usize, usize)> {
    let mut anchors = lanes::eq_mask(win, words[i]);
    let max_len = WORDS_PER_LINE - i;
    let mut best: Option<(usize, usize)> = None;
    while anchors != 0 {
        let j = anchors.trailing_zeros() as usize;
        anchors &= anchors - 1;
        let limit = max_len.min(win.len() - j);
        let mut len = 1;
        while len < limit && win[j + len] == words[i + len] {
            len += 1;
        }
        if best.is_none_or(|(_, l)| len > l) {
            best = Some((j, len));
        }
        if len == max_len {
            break;
        }
    }
    best
}

/// Linear window scan: [`encode_words_scalar`]'s copy search.
fn best_copy_scalar(
    win: &[u32],
    words: &[u32; WORDS_PER_LINE],
    i: usize,
) -> Option<(usize, usize)> {
    let max_len = WORDS_PER_LINE - i;
    let mut best: Option<(usize, usize)> = None;
    for j in 0..win.len() {
        if win[j] != words[i] {
            continue;
        }
        let mut len = 1;
        while len < max_len && j + len < win.len() && win[j + len] == words[i + len] {
            len += 1;
        }
        if best.is_none_or(|(_, l)| len > l) {
            best = Some((j, len));
        }
    }
    best
}

/// Decodes one line against a frozen window. Each code's fields come in
/// one read after the 2-bit code (a wide literal's low 24 bits in one
/// more).
fn decode_words(win: &[u32], ob: u32, r: &mut BitReader<'_>) -> Result<LineData, DecodeError> {
    let run_len = |fields: u64| (fields & ((1 << RUN_BITS) - 1)) as usize + 1;
    let mut words = [0u32; WORDS_PER_LINE];
    let mut i = 0;
    while i < WORDS_PER_LINE {
        let code = r
            .read_bits(2)
            .ok_or_else(|| DecodeError::new("truncated code"))?;
        let field_bits = match code {
            CODE_ZERO_RUN => RUN_BITS,
            CODE_REPEAT => 1 + RUN_BITS,
            CODE_COPY => ob + RUN_BITS,
            // Literal: the wide flag and the first 8 value bits.
            _ => 9,
        };
        let fields = r
            .read_bits(field_bits)
            .ok_or_else(|| DecodeError::new("truncated code fields"))?;
        match code {
            CODE_ZERO_RUN => {
                let len = run_len(fields);
                if i + len > WORDS_PER_LINE {
                    return Err(DecodeError::new("zero run overflows line"));
                }
                i += len; // words are already zero
            }
            CODE_REPEAT => {
                let dist = if fields >> RUN_BITS == 1 { 2 } else { 1 };
                if i < dist {
                    return Err(DecodeError::new("repeat before line start"));
                }
                let len = run_len(fields);
                if i + len > WORDS_PER_LINE {
                    return Err(DecodeError::new("repeat run overflows line"));
                }
                for k in 0..len {
                    words[i + k] = words[i + k - dist];
                }
                i += len;
            }
            CODE_COPY => {
                let offset = (fields >> RUN_BITS) as usize;
                let len = run_len(fields);
                if i + len > WORDS_PER_LINE || offset + len > win.len() {
                    return Err(DecodeError::new("copy out of range"));
                }
                words[i..i + len].copy_from_slice(&win[offset..offset + len]);
                i += len;
            }
            _ => {
                let head = fields as u32 & 0xff;
                words[i] = if fields >> 8 == 1 {
                    let low = r
                        .read_bits(24)
                        .ok_or_else(|| DecodeError::new("truncated literal"))?;
                    head << 24 | low as u32
                } else {
                    head
                };
                i += 1;
            }
        }
    }
    Ok(LineData::from_words(words))
}

impl Compressor for Lbe {
    fn name(&self) -> &'static str {
        "LBE256"
    }

    fn compress_into(&mut self, line: &LineData, out: &mut Encoded) {
        encode_words(
            &self.window,
            self.offset_bits(),
            &line.to_words(),
            out.restart(),
        );
        if self.persist {
            self.push_line(line);
        }
    }

    fn clone_box(&self) -> Box<dyn Compressor + Send> {
        Box::new(self.clone())
    }
}

impl Decompressor for Lbe {
    fn decompress(&mut self, payload: &Encoded) -> Result<LineData, DecodeError> {
        let mut r = payload.reader();
        let line = decode_words(&self.window, self.offset_bits(), &mut r)?;
        if self.persist {
            self.push_line(&line);
        }
        Ok(line)
    }

    fn clone_box(&self) -> Box<dyn Decompressor + Send> {
        Box::new(self.clone())
    }
}

impl SeededCompressor for Lbe {
    fn name(&self) -> &'static str {
        "LBE"
    }

    fn compress_seeded_into(&self, refs: &[LineData], line: &LineData, out: &mut BitWriter) {
        let mut stack = [0u32; LANE_WINDOW_WORDS];
        let mut heap = Vec::new();
        let win = self.seeded_window(refs, &mut stack, &mut heap);
        encode_words(win, self.offset_bits(), &line.to_words(), out);
    }

    fn decompress_seeded_from(
        &self,
        refs: &[LineData],
        r: &mut BitReader<'_>,
    ) -> Result<LineData, DecodeError> {
        let mut stack = [0u32; LANE_WINDOW_WORDS];
        let mut heap = Vec::new();
        let win = self.seeded_window(refs, &mut stack, &mut heap);
        decode_words(win, self.offset_bits(), r)
    }

    fn clone_box(&self) -> Box<dyn SeededCompressor + Send + Sync> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_line_is_one_run() {
        let engine = Lbe::seeded();
        let payload = engine.compress_seeded(&[], &LineData::zeroed());
        assert_eq!(payload.len_bits(), 6); // one 00-code zero run of 16
        assert_eq!(
            engine.decompress_seeded(&[], &payload).unwrap(),
            LineData::zeroed()
        );
    }

    #[test]
    fn splat_line_uses_repeat_run() {
        let engine = Lbe::seeded();
        let line = LineData::splat_word(0xdead_beef);
        let payload = engine.compress_seeded(&[], &line);
        // wide literal (35) + distance-1 repeat run of 15 (7).
        assert_eq!(payload.len_bits(), 42);
        assert_eq!(engine.decompress_seeded(&[], &payload).unwrap(), line);
    }

    #[test]
    fn exact_duplicate_is_one_copy() {
        let engine = Lbe::seeded();
        let reference = LineData::from_words(core::array::from_fn(|i| 0x100 + i as u32));
        let payload = engine.compress_seeded(&[reference], &reference);
        // One copy command: 2 + 6 + 4 bits.
        assert_eq!(payload.len_bits(), 12);
        assert_eq!(
            engine.decompress_seeded(&[reference], &payload).unwrap(),
            reference
        );
    }

    #[test]
    fn single_word_edit_costs_one_literal() {
        let engine = Lbe::seeded();
        let reference = LineData::from_words(core::array::from_fn(|i| 0x100 + i as u32));
        let mut target = reference;
        target.set_word(7, 0x9999_9999);
        let payload = engine.compress_seeded(&[reference], &target);
        // copy(7) + wide literal + copy(8) = 12 + 35 + 12.
        assert_eq!(payload.len_bits(), 59);
        assert_eq!(
            engine.decompress_seeded(&[reference], &payload).unwrap(),
            target
        );
    }

    #[test]
    fn copies_span_multiple_references() {
        let engine = Lbe::seeded();
        let r0 = LineData::from_words(core::array::from_fn(|i| 0x100 + i as u32));
        let r1 = LineData::from_words(core::array::from_fn(|i| 0x200 + i as u32));
        let r2 = LineData::from_words(core::array::from_fn(|i| 0x300 + i as u32));
        // Target stitched from halves of r1 and r2.
        let mut words = [0u32; 16];
        for i in 0..8 {
            words[i] = 0x200 + i as u32;
            words[8 + i] = 0x308 + i as u32;
        }
        let target = LineData::from_words(words);
        let refs = [r0, r1, r2];
        let payload = engine.compress_seeded(&refs, &target);
        assert_eq!(payload.len_bits(), 24); // two copies
        assert_eq!(engine.decompress_seeded(&refs, &payload).unwrap(), target);
    }

    #[test]
    fn streaming_window_learns_across_lines() {
        let mut enc = Lbe::streaming(256);
        let mut dec = Lbe::streaming(256);
        let line = LineData::from_words(core::array::from_fn(|i| 0xaaaa_0000 + i as u32));
        let first = enc.compress(&line);
        let second = enc.compress(&line);
        assert!(second.len_bits() < first.len_bits());
        assert_eq!(second.len_bits(), 12);
        assert_eq!(dec.decompress(&first).unwrap(), line);
        assert_eq!(dec.decompress(&second).unwrap(), line);
    }

    #[test]
    fn streaming_window_evicts_old_lines() {
        let mut enc = Lbe::streaming(256); // 4-line window
        let mut dec = Lbe::streaming(256);
        let mk = |tag: u32| LineData::from_words(core::array::from_fn(|i| (tag << 16) + i as u32));
        let first = mk(1);
        let p1 = enc.compress(&first);
        assert_eq!(dec.decompress(&p1).unwrap(), first);
        // Push 4 more distinct lines: `first` falls out of the 64-word FIFO.
        for t in 2..=5 {
            let l = mk(t);
            let p = enc.compress(&l);
            dec.decompress(&p).unwrap();
        }
        let again = enc.compress(&first);
        assert!(again.len_bits() > 12, "window must have evicted the line");
    }

    #[test]
    fn repeat_at_start_is_decode_error() {
        let mut w = BitWriter::new();
        w.write_bits(CODE_REPEAT, 2);
        w.write_bit(false); // distance 1
        w.write_bits(3, RUN_BITS);
        let engine = Lbe::seeded();
        assert!(engine.decompress_seeded(&[], &Encoded::new(w)).is_err());
    }

    #[test]
    fn repeated_u64_uses_distance_two() {
        // A repeated 64-bit value is the ABAB word pattern: two wide
        // literals + one distance-2 run.
        let mut words = [0u32; 16];
        for (i, w) in words.iter_mut().enumerate() {
            *w = if i % 2 == 0 { 0xaaaa_0001 } else { 0xbbbb_0002 };
        }
        let line = LineData::from_words(words);
        let engine = Lbe::seeded();
        let payload = engine.compress_seeded(&[], &line);
        assert_eq!(payload.len_bits(), 35 + 35 + 7);
        assert_eq!(engine.decompress_seeded(&[], &payload).unwrap(), line);
    }

    #[test]
    fn small_integers_use_short_literals() {
        let line = LineData::from_words(core::array::from_fn(|i| (i as u32 * 7 + 1) % 251));
        let engine = Lbe::seeded();
        let payload = engine.compress_seeded(&[], &line);
        // All words < 256: 16 x 11-bit literals (no runs in this sequence).
        assert!(payload.len_bits() <= 16 * 11);
        assert_eq!(engine.decompress_seeded(&[], &payload).unwrap(), line);
    }

    #[test]
    fn copy_out_of_range_is_decode_error() {
        let mut w = BitWriter::new();
        w.write_bits(CODE_COPY, 2);
        w.write_bits(10, 6);
        w.write_bits(0, RUN_BITS);
        let engine = Lbe::seeded();
        assert!(engine.decompress_seeded(&[], &Encoded::new(w)).is_err());
    }

    /// Runs both encoders on one window that fits a movemask; they must
    /// emit byte-identical wire bits, not just round-trip-equal ones.
    fn assert_kernels_agree(win: &[u32], ob: u32, line: &LineData) {
        assert!(win.len() <= LANE_WINDOW_WORDS);
        let (mut fast, mut slow) = (BitWriter::new(), BitWriter::new());
        encode_words_lanes(win, ob, &line.to_words(), &mut fast);
        encode_words_scalar(win, ob, &line.to_words(), &mut slow);
        assert_eq!(fast.len_bits(), slow.len_bits());
        assert_eq!(fast.as_slice(), slow.as_slice());
    }

    /// Lines whose word alphabet is tiny, so zero runs, repeats, and window
    /// copies all fire and fight over every position.
    fn clashy_line() -> impl Strategy<Value = LineData> {
        proptest::array::uniform16(prop_oneof![
            Just(0u32),
            Just(1),
            Just(2),
            Just(0xdead_beef),
            any::<u32>(),
        ])
        .prop_map(LineData::from_words)
    }

    proptest! {
        #[test]
        fn prop_seeded_round_trip(
            target in proptest::array::uniform16(any::<u32>()),
            r0 in proptest::array::uniform16(any::<u32>()),
            r1 in proptest::array::uniform16(any::<u32>()),
            r2 in proptest::array::uniform16(any::<u32>()),
        ) {
            let engine = Lbe::seeded();
            let refs = [LineData::from_words(r0), LineData::from_words(r1), LineData::from_words(r2)];
            let line = LineData::from_words(target);
            let payload = engine.compress_seeded(&refs, &line);
            prop_assert_eq!(engine.decompress_seeded(&refs, &payload).unwrap(), line);
        }

        #[test]
        fn prop_streaming_round_trip(
            lines in proptest::collection::vec(proptest::array::uniform16(0u32..8), 1..24),
            window_bytes in prop_oneof![Just(256usize), Just(1024)],
        ) {
            // Small word alphabet maximizes window matches; the 256-word
            // window outgrows the movemask and takes the per-word encoder.
            let mut enc = Lbe::streaming(window_bytes);
            let mut dec = Lbe::streaming(window_bytes);
            for words in lines {
                let line = LineData::from_words(words);
                let payload = enc.compress(&line);
                prop_assert_eq!(dec.decompress(&payload).unwrap(), line);
            }
        }

        #[test]
        fn prop_never_worse_than_all_literals(target in proptest::array::uniform16(any::<u32>())) {
            let engine = Lbe::seeded();
            let line = LineData::from_words(target);
            let payload = engine.compress_seeded(&[], &line);
            prop_assert!(payload.len_bits() <= 16 * 35);
        }

        /// Lane encoder vs the per-word oracle on seeded windows, over
        /// clashy lines and the adversarial families.
        #[test]
        fn prop_seeded_matches_scalar_oracle(
            (refs, target) in prop_oneof![
                (proptest::collection::vec(clashy_line(), 0..=3), clashy_line()),
                crate::test_lines::family_case(),
            ],
        ) {
            let engine = Lbe::seeded();
            let mut stack = [0u32; LANE_WINDOW_WORDS];
            let mut heap = Vec::new();
            let win = engine.seeded_window(&refs, &mut stack, &mut heap);
            assert_kernels_agree(win, engine.offset_bits(), &target);
        }

        /// Streaming equivalence: the two encoders agree on every window
        /// the line sequence builds.
        #[test]
        fn prop_streaming_matches_scalar_oracle(
            lines in proptest::collection::vec(proptest::array::uniform16(0u32..6), 1..20)
        ) {
            let mut engine = Lbe::streaming(256);
            for words in lines {
                let line = LineData::from_words(words);
                assert_kernels_agree(&engine.window, engine.offset_bits(), &line);
                engine.compress(&line);
            }
        }
    }
}
