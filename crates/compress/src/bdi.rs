//! Base-Delta-Immediate (BDI) compression.
//!
//! Implements Pekhimenko et al. (PACT 2012), one of the paper's
//! "non-dictionary" baselines. A line is compressed when its values cluster
//! around a single base (deltas fit a narrow width) and/or around zero
//! (immediates). Each line is encoded independently — BDI keeps no state
//! across lines, which is why the paper classes it as non-dictionary.
//!
//! The encoder materializes each segment width once into a stack buffer and
//! probes all six base+delta encodings against those shared arrays — one
//! pass per width instead of a fresh heap-allocated segment vector per
//! candidate encoding. The unit tests check it against the original
//! allocating probe.

use crate::{Compressor, DecodeError, Decompressor, Encoded};
use cable_common::{BitWriter, LineData, LINE_BYTES};

/// The eight BDI encodings, in evaluation order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Encoding {
    Zeros,
    Repeat,
    Base8Delta1,
    Base8Delta2,
    Base8Delta4,
    Base4Delta1,
    Base4Delta2,
    Base2Delta1,
    Uncompressed,
}

impl Encoding {
    fn tag(self) -> u64 {
        match self {
            Encoding::Zeros => 0,
            Encoding::Repeat => 1,
            Encoding::Base8Delta1 => 2,
            Encoding::Base8Delta2 => 3,
            Encoding::Base8Delta4 => 4,
            Encoding::Base4Delta1 => 5,
            Encoding::Base4Delta2 => 6,
            Encoding::Base2Delta1 => 7,
            Encoding::Uncompressed => 8,
        }
    }

    fn from_tag(tag: u64) -> Option<Self> {
        Some(match tag {
            0 => Encoding::Zeros,
            1 => Encoding::Repeat,
            2 => Encoding::Base8Delta1,
            3 => Encoding::Base8Delta2,
            4 => Encoding::Base8Delta4,
            5 => Encoding::Base4Delta1,
            6 => Encoding::Base4Delta2,
            7 => Encoding::Base2Delta1,
            8 => Encoding::Uncompressed,
            _ => return None,
        })
    }

    fn base_delta(self) -> Option<(usize, usize)> {
        match self {
            Encoding::Base8Delta1 => Some((8, 1)),
            Encoding::Base8Delta2 => Some((8, 2)),
            Encoding::Base8Delta4 => Some((8, 4)),
            Encoding::Base4Delta1 => Some((4, 1)),
            Encoding::Base4Delta2 => Some((4, 2)),
            Encoding::Base2Delta1 => Some((2, 1)),
            _ => None,
        }
    }
}

const TAG_BITS: u32 = 4;

/// Candidate base+delta encodings in evaluation order (smallest compressed
/// size first among the likely winners, matching the original scan).
const DELTA_ORDER: [Encoding; 6] = [
    Encoding::Base8Delta1,
    Encoding::Base4Delta1,
    Encoding::Base8Delta2,
    Encoding::Base4Delta2,
    Encoding::Base2Delta1,
    Encoding::Base8Delta4,
];

/// Fills `buf` with the line's `size`-byte little-endian segments and
/// returns the filled prefix.
fn segments_into<'a>(line: &LineData, size: usize, buf: &'a mut [u64; 32]) -> &'a [u64] {
    let n = LINE_BYTES / size;
    for (i, slot) in buf[..n].iter_mut().enumerate() {
        let mut v = 0u64;
        for (k, &b) in line.as_bytes()[i * size..(i + 1) * size].iter().enumerate() {
            v |= u64::from(b) << (8 * k);
        }
        *slot = v;
    }
    &buf[..n]
}

/// True if every segment is reachable from the zero base or the first
/// non-near-zero base with `delta_bytes`-byte deltas (the BDI feasibility
/// test).
fn delta_encoding_ok(segs: &[u64], delta_bytes: usize, base_bytes: usize) -> (bool, u64) {
    let base = segs
        .iter()
        .copied()
        .find(|&s| !delta_fits(s, 0, delta_bytes, base_bytes))
        .unwrap_or(0);
    let ok = segs.iter().all(|&s| {
        delta_fits(s, 0, delta_bytes, base_bytes) || delta_fits(s, base, delta_bytes, base_bytes)
    });
    (ok, base)
}

fn delta_fits(value: u64, base: u64, delta_bytes: usize, base_bytes: usize) -> bool {
    let shift = 64 - 8 * base_bytes as u32;
    // Sign-extend within the segment width, then check the delta range.
    let v = ((value << shift) as i64) >> shift;
    let b = ((base << shift) as i64) >> shift;
    let delta = v.wrapping_sub(b);
    let half = 1i64 << (8 * delta_bytes - 1);
    (-half..half).contains(&delta)
}

/// The BDI compressor.
///
/// # Examples
///
/// ```
/// use cable_compress::{Bdi, Compressor, Decompressor};
/// use cable_common::LineData;
///
/// let mut bdi = Bdi::new();
/// // Values near a common 8-byte base compress with 1-byte deltas.
/// let mut line = LineData::zeroed();
/// for i in 0..8 {
///     let v: u64 = 0x7000_0000_0000_0000 + i * 3;
///     line.as_bytes_mut()[i as usize * 8..][..8].copy_from_slice(&v.to_le_bytes());
/// }
/// let payload = bdi.compress(&line);
/// assert!(payload.len_bits() < 200);
/// assert_eq!(Bdi::new().decompress(&payload).unwrap(), line);
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Bdi;

impl Bdi {
    /// Creates a BDI codec (stateless).
    #[must_use]
    pub fn new() -> Self {
        Bdi
    }

    /// Batched encoding probe: the 8-byte segments are exactly the line's
    /// `u64` lane blocks, and the 4-/2-byte widths are materialized once
    /// into stack buffers shared by every candidate encoding.
    fn pick_encoding(line: &LineData) -> Encoding {
        if line.is_zero() {
            return Encoding::Zeros;
        }
        let lanes8 = line.as_lanes();
        if lanes8.iter().all(|&s| s == lanes8[0]) {
            return Encoding::Repeat;
        }
        let mut buf4 = [0u64; 32];
        let mut buf2 = [0u64; 32];
        let segs4 = segments_into(line, 4, &mut buf4);
        let segs2 = segments_into(line, 2, &mut buf2);
        for enc in DELTA_ORDER {
            let (base_bytes, delta_bytes) = enc.base_delta().expect("delta encodings only");
            let segs: &[u64] = match base_bytes {
                8 => &lanes8,
                4 => segs4,
                _ => segs2,
            };
            if delta_encoding_ok(segs, delta_bytes, base_bytes).0 {
                return enc;
            }
        }
        Encoding::Uncompressed
    }

    /// Serializes `line` under the chosen encoding, using a stack segment
    /// buffer (no per-line allocation).
    fn emit(line: &LineData, enc: Encoding, out: &mut BitWriter) {
        out.write_bits(enc.tag(), TAG_BITS);
        match enc {
            Encoding::Zeros => {}
            Encoding::Repeat => out.write_bits(line.as_lanes()[0], 64),
            Encoding::Uncompressed => out.write_bytes(line.as_bytes()),
            _ => {
                let (base_bytes, delta_bytes) = enc.base_delta().expect("delta encoding");
                let mut buf = [0u64; 32];
                let segs = segments_into(line, base_bytes, &mut buf);
                let (_, base) = delta_encoding_ok(segs, delta_bytes, base_bytes);
                out.write_bits(base, 8 * base_bytes as u32);
                for &s in segs {
                    if delta_fits(s, 0, delta_bytes, base_bytes) {
                        out.write_bit(false); // zero base
                        out.write_bits(s & mask(delta_bytes), 8 * delta_bytes as u32);
                    } else {
                        out.write_bit(true); // arbitrary base
                        let delta = s.wrapping_sub(base);
                        out.write_bits(delta & mask(delta_bytes), 8 * delta_bytes as u32);
                    }
                }
            }
        }
    }

    /// Compressed size in bits for `line` (without round-tripping).
    #[cfg(test)]
    #[must_use]
    pub fn compressed_bits(line: &LineData) -> usize {
        let enc = Self::pick_encoding(line);
        match enc {
            Encoding::Zeros => TAG_BITS as usize,
            Encoding::Repeat => TAG_BITS as usize + 64,
            Encoding::Uncompressed => TAG_BITS as usize + LINE_BYTES * 8,
            _ => {
                let (base_bytes, delta_bytes) = enc.base_delta().expect("delta encoding");
                let n = LINE_BYTES / base_bytes;
                TAG_BITS as usize + base_bytes * 8 + n * (1 + delta_bytes * 8)
            }
        }
    }
}

impl Compressor for Bdi {
    fn name(&self) -> &'static str {
        "BDI"
    }

    fn compress_into(&mut self, line: &LineData, out: &mut Encoded) {
        Bdi::emit(line, Bdi::pick_encoding(line), out.restart());
    }

    fn clone_box(&self) -> Box<dyn Compressor + Send> {
        Box::new(*self)
    }
}

fn mask(bytes: usize) -> u64 {
    if bytes >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * bytes)) - 1
    }
}

fn sign_extend(value: u64, bytes: usize) -> u64 {
    let shift = 64 - 8 * bytes as u32;
    (((value << shift) as i64) >> shift) as u64
}

impl Decompressor for Bdi {
    fn decompress(&mut self, payload: &Encoded) -> Result<LineData, DecodeError> {
        let mut r = payload.reader();
        let tag = r
            .read_bits(TAG_BITS)
            .ok_or_else(|| DecodeError::new("missing tag"))?;
        let enc = Encoding::from_tag(tag)
            .ok_or_else(|| DecodeError::new(format!("unknown BDI tag {tag}")))?;
        let mut line = LineData::zeroed();
        match enc {
            Encoding::Zeros => {}
            Encoding::Repeat => {
                let v = r
                    .read_bits(64)
                    .ok_or_else(|| DecodeError::new("truncated repeat value"))?;
                for i in 0..8 {
                    line.as_bytes_mut()[i * 8..][..8].copy_from_slice(&v.to_le_bytes());
                }
            }
            Encoding::Uncompressed => {
                for i in 0..LINE_BYTES {
                    line.as_bytes_mut()[i] = r
                        .read_bits(8)
                        .ok_or_else(|| DecodeError::new("truncated raw line"))?
                        as u8;
                }
            }
            _ => {
                let (base_bytes, delta_bytes) = enc.base_delta().expect("delta encoding");
                let base = r
                    .read_bits(8 * base_bytes as u32)
                    .ok_or_else(|| DecodeError::new("truncated base"))?;
                let n = LINE_BYTES / base_bytes;
                for i in 0..n {
                    let use_base = r
                        .read_bit()
                        .ok_or_else(|| DecodeError::new("truncated base flag"))?;
                    let delta = r
                        .read_bits(8 * delta_bytes as u32)
                        .ok_or_else(|| DecodeError::new("truncated delta"))?;
                    let delta = sign_extend(delta, delta_bytes);
                    let value = if use_base {
                        base.wrapping_add(delta)
                    } else {
                        delta
                    } & mask(base_bytes);
                    line.as_bytes_mut()[i * base_bytes..][..base_bytes]
                        .copy_from_slice(&value.to_le_bytes()[..base_bytes]);
                }
            }
        }
        Ok(line)
    }

    fn clone_box(&self) -> Box<dyn Decompressor + Send> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn segments(line: &LineData, size: usize) -> Vec<u64> {
        line.as_bytes()
            .chunks(size)
            .map(|chunk| {
                let mut v = 0u64;
                for (i, &b) in chunk.iter().enumerate() {
                    v |= u64::from(b) << (8 * i);
                }
                v
            })
            .collect()
    }

    /// Scalar oracle for [`Bdi::pick_encoding`]: the original per-encoding
    /// scan with one fresh segment vector per candidate.
    fn pick_encoding_scalar(line: &LineData) -> Encoding {
        if line.is_zero() {
            return Encoding::Zeros;
        }
        let segs8 = segments(line, 8);
        if segs8.iter().all(|&s| s == segs8[0]) {
            return Encoding::Repeat;
        }
        for enc in DELTA_ORDER {
            let (base_bytes, delta_bytes) = enc.base_delta().expect("delta encodings only");
            let segs = segments(line, base_bytes);
            // One arbitrary base (first segment not near zero) + zero base.
            if delta_encoding_ok(&segs, delta_bytes, base_bytes).0 {
                return enc;
            }
        }
        Encoding::Uncompressed
    }

    fn round_trip(line: LineData) -> usize {
        let payload = Bdi::new().compress(&line);
        assert_eq!(Bdi::new().decompress(&payload).unwrap(), line);
        payload.len_bits()
    }

    #[test]
    fn zero_line_is_tag_only() {
        assert_eq!(round_trip(LineData::zeroed()), 4);
    }

    #[test]
    fn repeated_value_compresses_to_one_base() {
        let mut line = LineData::zeroed();
        for i in 0..8 {
            line.as_bytes_mut()[i * 8..][..8]
                .copy_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        }
        assert_eq!(round_trip(line), 4 + 64);
    }

    #[test]
    fn base8_delta1_pointer_array() {
        // Pointer-like values clustered around one heap base.
        let mut line = LineData::zeroed();
        for i in 0..8u64 {
            let v = 0x0000_7fff_a000_0000u64 + i * 16;
            line.as_bytes_mut()[i as usize * 8..][..8].copy_from_slice(&v.to_le_bytes());
        }
        // tag + 8B base + 8 * (1 flag + 1B delta) = 4 + 64 + 72 = 140 bits.
        assert_eq!(round_trip(line), 140);
    }

    #[test]
    fn small_integers_use_zero_base() {
        let line = LineData::from_words([3, 0, 5, 0, 120, 0, 9, 0, 1, 0, 2, 0, 4, 0, 8, 0]);
        // Fits base8-delta1 with the zero base only.
        assert!(round_trip(line) <= 140);
    }

    #[test]
    fn random_line_falls_back_to_uncompressed() {
        let mut rng = cable_common::SplitMix64::new(5);
        let mut words = [0u32; 16];
        for w in &mut words {
            *w = rng.next_u32();
        }
        let bits = round_trip(LineData::from_words(words));
        assert_eq!(bits, 4 + 512);
    }

    #[test]
    fn negative_deltas_handled() {
        let mut line = LineData::zeroed();
        let base = 0x4000_0000_0000_0000u64;
        // Deltas relative to the first (base-selecting) segment stay within
        // a signed byte, so base8-delta1 applies.
        for (i, delta) in [0i64, -3, 7, 100, -100, 120, -120, 1].iter().enumerate() {
            let v = base.wrapping_add(*delta as u64);
            line.as_bytes_mut()[i * 8..][..8].copy_from_slice(&v.to_le_bytes());
        }
        assert_eq!(round_trip(line), 140);
    }

    #[test]
    fn compressed_bits_matches_actual_payload() {
        let cases = [
            LineData::zeroed(),
            LineData::splat_word(7),
            LineData::from_words([
                0x1000, 0x1001, 0x1002, 0x1003, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
            ]),
        ];
        for line in cases {
            assert_eq!(
                Bdi::compressed_bits(&line),
                Bdi::new().compress(&line).len_bits()
            );
        }
    }

    #[test]
    fn bad_tag_is_an_error() {
        let mut w = BitWriter::new();
        w.write_bits(0xf, 4);
        assert!(Bdi::new().decompress(&Encoded::new(w)).is_err());
    }

    proptest! {
        #[test]
        fn prop_round_trip(bytes in proptest::collection::vec(any::<u8>(), 64)) {
            let mut arr = [0u8; 64];
            arr.copy_from_slice(&bytes);
            round_trip(LineData::from_bytes(arr));
        }

        #[test]
        fn prop_size_formula_consistent(bytes in proptest::collection::vec(any::<u8>(), 64)) {
            let mut arr = [0u8; 64];
            arr.copy_from_slice(&bytes);
            let line = LineData::from_bytes(arr);
            prop_assert_eq!(
                Bdi::compressed_bits(&line),
                Bdi::new().compress(&line).len_bits()
            );
        }

        /// Batched probe vs scalar oracle: the same encoding, so the same
        /// payload bytes. Narrow byte values keep the delta encodings in
        /// play.
        #[test]
        fn prop_matches_scalar_oracle(
            bytes in proptest::collection::vec(prop_oneof![Just(0u8), 0u8..4, any::<u8>()], 64)
        ) {
            let mut arr = [0u8; 64];
            arr.copy_from_slice(&bytes);
            let line = LineData::from_bytes(arr);
            prop_assert_eq!(Bdi::pick_encoding(&line), pick_encoding_scalar(&line));
        }
    }
}
