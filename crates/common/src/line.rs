//! The 64-byte cache line that every cache and compressor operates on.

use std::fmt;

/// Bytes in one cache line. CABLE assumes 64-byte lines throughout (§III-C).
pub const LINE_BYTES: usize = 64;
/// Bytes per 32-bit word.
pub const WORD_BYTES: usize = 4;
/// 32-bit words in one cache line (16 for 64-byte lines).
pub const WORDS_PER_LINE: usize = LINE_BYTES / WORD_BYTES;

/// A 64-byte cache line payload.
///
/// `LineData` is the unit of transfer across the compressed off-chip link and
/// the unit of storage in every modelled cache. Words are accessed in
/// little-endian order, matching the x86 systems the paper evaluates.
///
/// # Examples
///
/// ```
/// use cable_common::LineData;
///
/// let line = LineData::from_words([7; 16]);
/// assert_eq!(line.word(0), 7);
/// assert_eq!(line.as_bytes()[0], 7);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineData([u8; LINE_BYTES]);

impl LineData {
    /// Creates an all-zero line.
    #[must_use]
    pub fn zeroed() -> Self {
        LineData([0; LINE_BYTES])
    }

    /// Creates a line from raw bytes.
    #[must_use]
    pub fn from_bytes(bytes: [u8; LINE_BYTES]) -> Self {
        LineData(bytes)
    }

    /// Creates a line from 16 little-endian 32-bit words.
    #[must_use]
    pub fn from_words(words: [u32; WORDS_PER_LINE]) -> Self {
        let mut bytes = [0u8; LINE_BYTES];
        for (i, w) in words.iter().enumerate() {
            bytes[i * WORD_BYTES..(i + 1) * WORD_BYTES].copy_from_slice(&w.to_le_bytes());
        }
        LineData(bytes)
    }

    /// Creates a line by repeating one 32-bit word 16 times.
    #[must_use]
    pub fn splat_word(word: u32) -> Self {
        Self::from_words([word; WORDS_PER_LINE])
    }

    /// Returns the raw bytes of the line.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; LINE_BYTES] {
        &self.0
    }

    /// Returns the raw bytes of the line mutably.
    pub fn as_bytes_mut(&mut self) -> &mut [u8; LINE_BYTES] {
        &mut self.0
    }

    /// Reads the `i`-th little-endian 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    #[must_use]
    pub fn word(&self, i: usize) -> u32 {
        let b = &self.0[i * WORD_BYTES..(i + 1) * WORD_BYTES];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Writes the `i`-th little-endian 32-bit word.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 16`.
    pub fn set_word(&mut self, i: usize, value: u32) {
        self.0[i * WORD_BYTES..(i + 1) * WORD_BYTES].copy_from_slice(&value.to_le_bytes());
    }

    /// Iterates over the 16 words of the line.
    pub fn words(&self) -> impl Iterator<Item = u32> + '_ {
        (0..WORDS_PER_LINE).map(move |i| self.word(i))
    }

    /// Returns all 16 words as an array.
    #[must_use]
    pub fn to_words(&self) -> [u32; WORDS_PER_LINE] {
        let mut out = [0u32; WORDS_PER_LINE];
        for (i, w) in out.iter_mut().enumerate() {
            *w = self.word(i);
        }
        out
    }

    /// Returns the line as eight little-endian `u64` lane blocks: word `2k`
    /// occupies the low 32-bit lane of block `k`, word `2k + 1` the high
    /// lane. This is the layout the [`crate::lanes`] SWAR kernels operate on.
    #[must_use]
    pub fn as_lanes(&self) -> [u64; LINE_BYTES / 8] {
        let mut out = [0u64; LINE_BYTES / 8];
        for (k, block) in out.iter_mut().enumerate() {
            let b = &self.0[k * 8..(k + 1) * 8];
            *block = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        }
        out
    }

    /// True if every byte of the line is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&b| b == 0)
    }

    /// Counts the 32-bit words of `self` that exactly equal the corresponding
    /// word of `other` (the "coverage" metric of §III-C, before combining).
    #[must_use]
    pub fn matching_words(&self, other: &LineData) -> u32 {
        self.coverage_vector(other).count_ones()
    }

    /// Computes the 16-bit coverage bit vector (CBV) of `candidate` against
    /// `self`: bit `i` is set when word `i` matches exactly (§III-C).
    ///
    /// The comparison runs over `u64` lane blocks via
    /// [`crate::lanes::line_eq_mask`]; the unit tests check it against the
    /// per-word loop.
    #[must_use]
    pub fn coverage_vector(&self, candidate: &LineData) -> u16 {
        crate::lanes::line_eq_mask(&self.as_lanes(), &candidate.as_lanes())
    }
}

impl Default for LineData {
    fn default() -> Self {
        Self::zeroed()
    }
}

impl From<[u8; LINE_BYTES]> for LineData {
    fn from(bytes: [u8; LINE_BYTES]) -> Self {
        LineData(bytes)
    }
}

impl From<LineData> for [u8; LINE_BYTES] {
    fn from(line: LineData) -> Self {
        line.0
    }
}

impl AsRef<[u8]> for LineData {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LineData[")?;
        for (i, w) in self.words().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{w:08x}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for LineData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_round_trip() {
        let mut line = LineData::zeroed();
        for i in 0..WORDS_PER_LINE {
            line.set_word(i, (i as u32) * 0x0101_0101);
        }
        for i in 0..WORDS_PER_LINE {
            assert_eq!(line.word(i), (i as u32) * 0x0101_0101);
        }
        assert_eq!(line.to_words()[5], 5 * 0x0101_0101);
    }

    #[test]
    fn little_endian_layout() {
        let mut line = LineData::zeroed();
        line.set_word(0, 0x0403_0201);
        assert_eq!(&line.as_bytes()[..4], &[1, 2, 3, 4]);
    }

    #[test]
    fn zero_detection() {
        assert!(LineData::zeroed().is_zero());
        let mut line = LineData::zeroed();
        line.as_bytes_mut()[63] = 1;
        assert!(!line.is_zero());
    }

    #[test]
    fn coverage_vector_marks_matching_words() {
        let a = LineData::from_words([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]);
        let mut b = a;
        b.set_word(0, 99);
        b.set_word(15, 99);
        let cbv = a.coverage_vector(&b);
        assert_eq!(cbv, 0b0111_1111_1111_1110);
        assert_eq!(a.matching_words(&b), 14);
    }

    #[test]
    fn coverage_vector_of_self_is_full() {
        let a = LineData::splat_word(0xdead_beef);
        assert_eq!(a.coverage_vector(&a), 0xffff);
    }

    #[test]
    fn as_lanes_packs_words_little_endian() {
        let mut line = LineData::zeroed();
        line.set_word(0, 0x1111_2222);
        line.set_word(1, 0x3333_4444);
        let lanes = line.as_lanes();
        assert_eq!(lanes[0], 0x3333_4444_1111_2222);
        assert_eq!(lanes[1], 0);
    }

    /// Scalar oracle for [`LineData::coverage_vector`]: the per-word
    /// comparison loop the lane kernel is verified against.
    fn coverage_vector_scalar(a: &LineData, b: &LineData) -> u16 {
        let mut cbv = 0u16;
        for i in 0..WORDS_PER_LINE {
            if a.word(i) == b.word(i) {
                cbv |= 1 << i;
            }
        }
        cbv
    }

    #[test]
    fn coverage_vector_matches_scalar_oracle() {
        let mut rng = crate::SplitMix64::new(99);
        for _ in 0..256 {
            let mut a = [0u32; WORDS_PER_LINE];
            let mut b = [0u32; WORDS_PER_LINE];
            for i in 0..WORDS_PER_LINE {
                // Bias toward collisions so matching words actually occur.
                a[i] = rng.next_u32() & 0x8000_0003;
                b[i] = rng.next_u32() & 0x8000_0003;
            }
            let (a, b) = (LineData::from_words(a), LineData::from_words(b));
            assert_eq!(a.coverage_vector(&b), coverage_vector_scalar(&a, &b));
        }
    }

    #[test]
    fn debug_shows_all_words() {
        let line = LineData::splat_word(0xa);
        let s = format!("{line:?}");
        assert_eq!(s.matches("0000000a").count(), 16);
    }
}
