//! The ORACLE engine: an upper bound on seeded compression (Fig. 20).
//!
//! "CABLE+ORACLE has the same reference cache lines as the other schemes but
//! can compress any data patterns such as byte shifts and unaligned
//! duplicates, resulting in significantly higher compression ratios"
//! (§VI-E). We realize that bound with an exhaustive byte-granularity LZ
//! over the reference bytes plus the already-emitted target prefix: every
//! byte shift, unaligned duplicate, and overlapping run the references can
//! express is found (no hash heuristics, no alignment restriction, no
//! minimum-match pruning beyond profitability).
//!
//! The oracle emits whichever of two codings is smaller, prefixed by one
//! mode bit:
//!
//! - **byte-granular LZ**: `1` + 8-bit literal, or `0` + 8-bit offset +
//!   6-bit length−2 over the space `refs ‖ target-prefix` (≤ 256 bytes for
//!   three references, so every position is reachable);
//! - **word-granular LBE** (the aligned coding): whatever [`crate::Lbe`]
//!   produces for the same references.
//!
//! Taking the minimum makes the oracle a true upper bound: never worse
//! than the word-aligned engine, and far better whenever byte shifts or
//! unaligned duplicates exist.

use crate::{DecodeError, Lbe, SeededCompressor};
use cable_common::{BitReader, BitWriter, LineData, LINE_BYTES};

const MIN_MATCH: usize = 2;
const OFF_BITS: u32 = 8;
const LEN_BITS: u32 = 6;
const MAX_MATCH: usize = (1 << LEN_BITS) - 1 + MIN_MATCH;
const MAX_REFS: usize = 3;

/// The ORACLE seeded compressor.
///
/// # Examples
///
/// ```
/// use cable_compress::{Oracle, SeededCompressor};
/// use cable_common::LineData;
///
/// // A 1-byte-shifted copy is unmatchable for word-aligned engines but a
/// // single token for the oracle.
/// let engine = Oracle::new();
/// let reference = LineData::from_bytes(core::array::from_fn(|i| i as u8));
/// let mut shifted = [0u8; 64];
/// shifted[1..].copy_from_slice(&reference.as_bytes()[..63]);
/// let target = LineData::from_bytes(shifted);
/// let payload = engine.compress_seeded(&[reference], &target);
/// assert!(payload.len_bits() <= 9 + 15 + 15);
/// assert_eq!(engine.decompress_seeded(&[reference], &payload).unwrap(), target);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Oracle;

impl Oracle {
    /// Creates the oracle engine (stateless).
    #[must_use]
    pub fn new() -> Self {
        Oracle
    }

    fn space(refs: &[LineData]) -> Vec<u8> {
        let mut space = Vec::with_capacity(MAX_REFS * LINE_BYTES + LINE_BYTES);
        for r in refs.iter().take(MAX_REFS) {
            space.extend_from_slice(r.as_bytes());
        }
        space
    }

    /// The byte-granular coding on its own (without the mode bit).
    fn compress_bytes(refs: &[LineData], line: &LineData) -> BitWriter {
        let mut space = Self::space(refs);
        let bytes = line.as_bytes();
        let mut out = BitWriter::new();
        let mut i = 0;
        while i < LINE_BYTES {
            let remaining = &bytes[i..];
            let max_len = remaining.len().min(MAX_MATCH);
            let mut best: Option<(usize, usize)> = None;
            for start in 0..space.len() {
                let mut len = 0;
                while len < max_len {
                    let src = start + len;
                    let byte = if src < space.len() {
                        space[src]
                    } else {
                        remaining[src - space.len()]
                    };
                    if byte != remaining[len] {
                        break;
                    }
                    len += 1;
                }
                if len >= MIN_MATCH && best.is_none_or(|(_, l)| len > l) {
                    best = Some((start, len));
                    if len == max_len {
                        break;
                    }
                }
            }
            match best {
                Some((start, len)) => {
                    out.write_bit(false);
                    out.write_bits(start as u64, OFF_BITS);
                    out.write_bits((len - MIN_MATCH) as u64, LEN_BITS);
                    space.extend_from_slice(&remaining[..len]);
                    i += len;
                }
                None => {
                    out.write_bit(true);
                    out.write_bits(u64::from(bytes[i]), 8);
                    space.push(bytes[i]);
                    i += 1;
                }
            }
        }
        out
    }

    fn decompress_bytes(refs: &[LineData], r: &mut BitReader<'_>) -> Result<LineData, DecodeError> {
        let mut space = Self::space(refs);
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
                space.push(b);
                i += 1;
            } else {
                let start = r
                    .read_bits(OFF_BITS)
                    .ok_or_else(|| DecodeError::new("truncated offset"))?
                    as usize;
                let len = r
                    .read_bits(LEN_BITS)
                    .ok_or_else(|| DecodeError::new("truncated length"))?
                    as usize
                    + MIN_MATCH;
                if start >= space.len() || i + len > LINE_BYTES {
                    return Err(DecodeError::new("copy out of range"));
                }
                for k in 0..len {
                    // Overlapping copies read bytes produced earlier in this
                    // same token.
                    let b = space[start + k];
                    line[i + k] = b;
                    space.push(b);
                }
                i += len;
            }
        }
        Ok(LineData::from_bytes(line))
    }
}

impl SeededCompressor for Oracle {
    fn name(&self) -> &'static str {
        "ORACLE"
    }

    fn compress_seeded_into(&self, refs: &[LineData], line: &LineData, out: &mut BitWriter) {
        assert!(
            refs.len() <= MAX_REFS,
            "oracle supports at most {MAX_REFS} references"
        );
        let byte_coding = Self::compress_bytes(refs, line);
        let mut word_coding = BitWriter::new();
        Lbe::seeded().compress_seeded_into(refs, line, &mut word_coding);
        let word_mode = byte_coding.len_bits() > word_coding.len_bits();
        let coding = if word_mode {
            &word_coding
        } else {
            &byte_coding
        };
        out.write_bit(word_mode);
        out.append_bits(coding.as_slice(), coding.len_bits());
    }

    fn decompress_seeded_from(
        &self,
        refs: &[LineData],
        r: &mut BitReader<'_>,
    ) -> Result<LineData, DecodeError> {
        let word_mode = r
            .read_bit()
            .ok_or_else(|| DecodeError::new("missing oracle mode bit"))?;
        if word_mode {
            Lbe::seeded().decompress_seeded_from(refs, r)
        } else {
            Self::decompress_bytes(refs, r)
        }
    }

    fn clone_box(&self) -> Box<dyn SeededCompressor + Send + Sync> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoded;
    use proptest::prelude::*;

    #[test]
    fn exact_duplicate_is_one_token() {
        let engine = Oracle::new();
        let reference = LineData::from_bytes(core::array::from_fn(|i| (i * 7) as u8));
        let payload = engine.compress_seeded(&[reference], &reference);
        // mode bit + LBE's 12-bit exact copy beats the 15-bit byte token.
        assert_eq!(payload.len_bits(), 13);
        assert_eq!(
            engine.decompress_seeded(&[reference], &payload).unwrap(),
            reference
        );
    }

    #[test]
    fn unaligned_duplicate_matches() {
        // Target = bytes 5..69 of the two references concatenated: an
        // unaligned cross-reference span.
        let r0 = LineData::from_bytes(core::array::from_fn(|i| i as u8));
        let r1 = LineData::from_bytes(core::array::from_fn(|i| (100 + i) as u8));
        let mut cat = Vec::new();
        cat.extend_from_slice(r0.as_bytes());
        cat.extend_from_slice(r1.as_bytes());
        let mut t = [0u8; 64];
        t.copy_from_slice(&cat[5..69]);
        let target = LineData::from_bytes(t);
        let engine = Oracle::new();
        let payload = engine.compress_seeded(&[r0, r1], &target);
        assert_eq!(
            payload.len_bits(),
            16,
            "mode bit + one 64-byte unaligned copy"
        );
        assert_eq!(
            engine.decompress_seeded(&[r0, r1], &payload).unwrap(),
            target
        );
    }

    #[test]
    fn zero_line_without_refs_uses_overlap_run() {
        let engine = Oracle::new();
        let payload = engine.compress_seeded(&[], &LineData::zeroed());
        // mode bit + LBE's 6-bit zero run wins over the byte coding.
        assert_eq!(payload.len_bits(), 7);
        assert_eq!(
            engine.decompress_seeded(&[], &payload).unwrap(),
            LineData::zeroed()
        );
    }

    #[test]
    fn oracle_beats_word_aligned_engines_on_shifts() {
        use crate::{Lbe, SeededCompressor as _};
        let mut rng = cable_common::SplitMix64::new(9);
        let mut base = [0u8; 64];
        for b in &mut base {
            *b = rng.next_u32() as u8;
        }
        let reference = LineData::from_bytes(base);
        let mut shifted = [0u8; 64];
        shifted[1..].copy_from_slice(&base[..63]);
        shifted[0] = 0x7;
        let target = LineData::from_bytes(shifted);
        let oracle = Oracle::new().compress_seeded(&[reference], &target);
        let lbe = Lbe::seeded().compress_seeded(&[reference], &target);
        assert!(
            oracle.len_bits() * 4 < lbe.len_bits(),
            "oracle {} vs lbe {}",
            oracle.len_bits(),
            lbe.len_bits()
        );
    }

    #[test]
    #[should_panic(expected = "at most 3 references")]
    fn too_many_refs_rejected() {
        let refs = [LineData::zeroed(); 4];
        let _ = Oracle::new().compress_seeded(&refs, &LineData::zeroed());
    }

    #[test]
    fn corrupt_offset_is_decode_error() {
        let mut w = BitWriter::new();
        w.write_bit(false);
        w.write_bits(200, OFF_BITS);
        w.write_bits(0, LEN_BITS);
        let engine = Oracle::new();
        assert!(engine.decompress_seeded(&[], &Encoded::new(w)).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_round_trip(
            target in proptest::collection::vec(any::<u8>(), 64),
            r0 in proptest::collection::vec(any::<u8>(), 64),
            r1 in proptest::collection::vec(any::<u8>(), 64),
            r2 in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let engine = Oracle::new();
            let to_line = |v: &[u8]| {
                let mut a = [0u8; 64];
                a.copy_from_slice(v);
                LineData::from_bytes(a)
            };
            let refs = [to_line(&r0), to_line(&r1), to_line(&r2)];
            let line = to_line(&target);
            let payload = engine.compress_seeded(&refs, &line);
            prop_assert_eq!(engine.decompress_seeded(&refs, &payload).unwrap(), line);
        }

        #[test]
        fn prop_oracle_never_exceeds_all_literals(
            target in proptest::collection::vec(any::<u8>(), 64),
        ) {
            let mut a = [0u8; 64];
            a.copy_from_slice(&target);
            let line = LineData::from_bytes(a);
            let payload = Oracle::new().compress_seeded(&[], &line);
            prop_assert!(payload.len_bits() <= 64 * 9);
        }
    }
}
