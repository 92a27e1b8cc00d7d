//! Zero-content encoding — the simplest link compressor lineage.
//!
//! The paper's related work spans "simple zero-encoders" (Villa et al.'s
//! dynamic zero compression; Dusser et al.'s zero-content augmented caches)
//! up to full LZ engines. This is that lower end: each 32-bit word gets a
//! 1-bit zero flag; non-zero words follow verbatim. It is useful as the
//! floor of the engine spectrum in ablations — any dictionary scheme should
//! beat it everywhere except pure zero streams.
//!
//! Format: 16 flag bits (bit `i` set = word `i` is zero, MSB-first), then
//! the non-zero words in order.

use crate::{Compressor, DecodeError, Decompressor, Encoded};
use cable_common::{BitWriter, LineData, WORDS_PER_LINE};

/// The zero-content encoder (stateless).
///
/// # Examples
///
/// ```
/// use cable_compress::{Compressor, Decompressor, zce::Zce};
/// use cable_common::LineData;
///
/// let mut z = Zce::new();
/// let payload = z.compress(&LineData::zeroed());
/// assert_eq!(payload.len_bits(), 16); // flags only
/// assert_eq!(Zce::new().decompress(&payload).unwrap(), LineData::zeroed());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Zce;

impl Zce {
    /// Creates the encoder.
    #[must_use]
    pub fn new() -> Self {
        Zce
    }
}

impl Compressor for Zce {
    fn name(&self) -> &'static str {
        "ZCE"
    }

    fn compress(&mut self, line: &LineData) -> Encoded {
        let mut out = BitWriter::new();
        for word in line.words() {
            out.write_bit(word == 0);
        }
        for word in line.words() {
            if word != 0 {
                out.write_bits(u64::from(word), 32);
            }
        }
        Encoded::new(out)
    }

    fn clone_box(&self) -> Box<dyn Compressor + Send> {
        Box::new(*self)
    }
}

impl Decompressor for Zce {
    fn decompress(&mut self, payload: &Encoded) -> Result<LineData, DecodeError> {
        let mut r = payload.reader();
        let mut zero = [false; WORDS_PER_LINE];
        for z in &mut zero {
            *z = r
                .read_bit()
                .ok_or_else(|| DecodeError::new("truncated flags"))?;
        }
        let mut line = LineData::zeroed();
        for (i, &is_zero) in zero.iter().enumerate() {
            if !is_zero {
                let w = r
                    .read_bits(32)
                    .ok_or_else(|| DecodeError::new("truncated word"))?
                    as u32;
                if w == 0 {
                    return Err(DecodeError::new("zero word encoded as literal"));
                }
                line.set_word(i, w);
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

    fn round_trip(line: LineData) -> usize {
        let payload = Zce::new().compress(&line);
        assert_eq!(Zce::new().decompress(&payload).unwrap(), line);
        payload.len_bits()
    }

    #[test]
    fn zero_line_is_flags_only() {
        assert_eq!(round_trip(LineData::zeroed()), 16);
    }

    #[test]
    fn dense_line_pays_flag_overhead() {
        assert_eq!(round_trip(LineData::splat_word(7)), 16 + 16 * 32);
    }

    #[test]
    fn half_zero_line() {
        let mut line = LineData::zeroed();
        for i in (0..16).step_by(2) {
            line.set_word(i, 0x1234_0000 + i as u32);
        }
        assert_eq!(round_trip(line), 16 + 8 * 32);
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut w = BitWriter::new();
        w.write_bits(0, 16); // claims 16 non-zero words, provides none
        assert!(Zce::new().decompress(&Encoded::new(w)).is_err());
    }

    proptest! {
        #[test]
        fn prop_round_trip(words in proptest::array::uniform16(any::<u32>())) {
            round_trip(LineData::from_words(words));
        }

        #[test]
        fn prop_size_formula(words in proptest::array::uniform16(prop_oneof![Just(0u32), any::<u32>()])) {
            let line = LineData::from_words(words);
            let nonzero = words.iter().filter(|&&w| w != 0).count();
            prop_assert_eq!(round_trip(line), 16 + nonzero * 32);
        }
    }
}
