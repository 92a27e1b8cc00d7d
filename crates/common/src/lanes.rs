//! SWAR (SIMD-within-a-register) kernels over 32-bit lanes.
//!
//! The encode hot path processes whole 64-byte lines at once by packing two
//! consecutive 32-bit words into each `u64` and operating on all lanes per
//! step, with movemask-style bit tricks turning per-word branches into bit
//! masks. These kernels are the shared substrate: the DIFF coverage vector,
//! the LBE copy search, and the CPACK dictionary probe all reduce to "which
//! lanes of this block equal that broadcast word?".
//!
//! Everything here is plain integer arithmetic — portable stable Rust, no
//! `unsafe`, no `std::simd` — chosen so the compiler can keep the whole
//! comparison in registers. Every caller keeps its scalar loop as an oracle
//! (in its unit tests, or as the fallback for inputs wider than one
//! movemask); the kernels must be *bit-identical* to those loops, and the
//! oracle proptests enforce it on encoded wire bytes.

/// Low bit of each 32-bit lane of a `u64`.
const LANE_LO: u64 = 0x0000_0001_0000_0001;
/// High (sign) bit of each 32-bit lane.
const LANE_HI: u64 = 0x8000_0000_8000_0000;
/// All bits of each lane except the sign bit.
const LANE_LOW31: u64 = 0x7fff_ffff_7fff_ffff;

/// Packs two 32-bit words into one `u64` block, `lo` in the low lane.
///
/// [`crate::LineData::as_lanes`] uses the same layout: word `2k` sits in the
/// low lane of block `k`, so lane masks line up with word indices.
#[inline]
#[must_use]
pub fn pack2(lo: u32, hi: u32) -> u64 {
    u64::from(lo) | u64::from(hi) << 32
}

/// Broadcasts a 32-bit word into both lanes of a `u64` block.
#[inline]
#[must_use]
pub fn broadcast(word: u32) -> u64 {
    u64::from(word) * LANE_LO
}

/// Movemask for zero lanes: returns a 2-bit mask with bit 0 set iff the low
/// 32-bit lane of `x` is zero and bit 1 set iff the high lane is zero.
///
/// Classic carryless zero test: `(x & LOW31) + LOW31` sets a lane's sign bit
/// iff any of its low 31 bits is set (the per-lane sums peak at
/// `2 * 0x7fff_ffff < 2^32`, so no carry crosses the lane boundary), and
/// OR-ing `x` back in folds the sign bit itself into the test.
#[inline]
#[must_use]
pub fn zero_lane_mask(x: u64) -> u64 {
    let nonzero = (((x & LANE_LOW31) + LANE_LOW31) | x) & LANE_HI;
    let zero = nonzero ^ LANE_HI;
    (zero >> 31 | zero >> 62) & 0b11
}

/// Equality movemask: bit `i` of the result is set iff `words[i] == needle`.
///
/// Compares two words per step via broadcast-XOR and [`zero_lane_mask`].
/// This is the lane-parallel replacement for the linear window/dictionary
/// scans in the LBE and CPACK encoders.
///
/// # Panics
///
/// Panics (in debug builds) if `words` has more than 64 elements.
#[must_use]
pub fn eq_mask(words: &[u32], needle: u32) -> u64 {
    debug_assert!(words.len() <= 64, "eq_mask input exceeds 64 lanes");
    let bb = broadcast(needle);
    let mut mask = 0u64;
    let mut pos = 0;
    let mut chunks = words.chunks_exact(2);
    for pair in chunks.by_ref() {
        mask |= zero_lane_mask(pack2(pair[0], pair[1]) ^ bb) << pos;
        pos += 2;
    }
    if let [last] = chunks.remainder() {
        mask |= u64::from(*last == needle) << pos;
    }
    mask
}

/// One-pass CPACK dictionary probe: returns `(full, hi24, hi16)` masks where
/// bit `i` reports whether `dict[i]` matches `word` exactly, in its upper 24
/// bits (`mmmx`), or in its upper 16 bits (`mmxx`).
///
/// A single sweep over the dictionary computes all three pattern classes at
/// once, so the encoder picks the best code with three `trailing_zeros`
/// instead of a branchy per-entry scan.
///
/// # Panics
///
/// Panics (in debug builds) if `dict` has more than 64 entries.
#[must_use]
pub fn cpack_match_masks(dict: &[u32], word: u32) -> (u64, u64, u64) {
    debug_assert!(dict.len() <= 64, "cpack_match_masks dict exceeds 64 lanes");
    const HI24: u64 = 0xffff_ff00_ffff_ff00;
    const HI16: u64 = 0xffff_0000_ffff_0000;
    let bb = broadcast(word);
    let (mut full, mut hi24, mut hi16) = (0u64, 0u64, 0u64);
    let mut pos = 0;
    let mut chunks = dict.chunks_exact(2);
    for pair in chunks.by_ref() {
        let x = pack2(pair[0], pair[1]) ^ bb;
        full |= zero_lane_mask(x) << pos;
        hi24 |= zero_lane_mask(x & HI24) << pos;
        hi16 |= zero_lane_mask(x & HI16) << pos;
        pos += 2;
    }
    if let [last] = chunks.remainder() {
        let x = last ^ word;
        full |= u64::from(x == 0) << pos;
        hi24 |= u64::from(x & 0xffff_ff00 == 0) << pos;
        hi16 |= u64::from(x & 0xffff_0000 == 0) << pos;
    }
    (full, hi24, hi16)
}

/// Whole-line equality movemask over two lines given as `[u64; 8]` lane
/// blocks: bit `i` of the result is set iff word `i` of `a` equals word `i`
/// of `b`.
///
/// This is the DIFF coverage vector (CBV) computed eight blocks at a time —
/// the exception mask falls out as the complement.
#[inline]
#[must_use]
pub fn line_eq_mask(a: &[u64; 8], b: &[u64; 8]) -> u16 {
    let mut mask = 0u16;
    for k in 0..8 {
        mask |= (zero_lane_mask(a[k] ^ b[k]) as u16) << (2 * k);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_lane_mask_all_cases() {
        assert_eq!(zero_lane_mask(0), 0b11);
        assert_eq!(zero_lane_mask(pack2(1, 0)), 0b10);
        assert_eq!(zero_lane_mask(pack2(0, 1)), 0b01);
        assert_eq!(zero_lane_mask(pack2(7, 9)), 0b00);
        // Sign-bit-only lanes must count as nonzero.
        assert_eq!(zero_lane_mask(pack2(0x8000_0000, 0)), 0b10);
        assert_eq!(zero_lane_mask(pack2(0, 0x8000_0000)), 0b01);
        assert_eq!(zero_lane_mask(u64::MAX), 0b00);
    }

    #[test]
    fn eq_mask_matches_scalar_scan() {
        let words = [3u32, 0, 3, 7, 0xffff_ffff, 3, 2];
        let mask = eq_mask(&words, 3);
        let expect = words
            .iter()
            .enumerate()
            .filter(|&(_, &w)| w == 3)
            .fold(0u64, |m, (i, _)| m | 1 << i);
        assert_eq!(mask, expect);
        assert_eq!(eq_mask(&[], 3), 0);
        assert_eq!(eq_mask(&[3], 3), 1);
    }

    #[test]
    fn cpack_masks_classify_patterns() {
        let dict = [0x1234_5678u32, 0x1234_5600, 0x1234_0000, 0xdead_beef];
        let (full, hi24, hi16) = cpack_match_masks(&dict, 0x1234_5678);
        assert_eq!(full, 0b0001);
        assert_eq!(hi24, 0b0011); // upper-24 match includes the exact match
        assert_eq!(hi16, 0b0111); // upper-16 match includes both of the above
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prop_zero_lane_mask(lo in any::<u32>(), hi in any::<u32>()) {
                let expect = u64::from(lo == 0) | u64::from(hi == 0) << 1;
                prop_assert_eq!(zero_lane_mask(pack2(lo, hi)), expect);
            }

            #[test]
            fn prop_eq_mask(
                words in proptest::collection::vec(any::<u32>(), 0..64),
                needle in prop_oneof![any::<u32>(), Just(0u32), Just(7u32)],
            ) {
                let expect = words
                    .iter()
                    .enumerate()
                    .filter(|&(_, &w)| w == needle)
                    .fold(0u64, |m, (i, _)| m | 1 << i);
                prop_assert_eq!(eq_mask(&words, needle), expect);
            }

            #[test]
            fn prop_cpack_masks(
                dict in proptest::collection::vec(any::<u32>(), 0..64),
                word in any::<u32>(),
            ) {
                let (full, hi24, hi16) = cpack_match_masks(&dict, word);
                for (i, &d) in dict.iter().enumerate() {
                    prop_assert_eq!(full >> i & 1 == 1, d == word);
                    prop_assert_eq!(
                        hi24 >> i & 1 == 1,
                        d & 0xffff_ff00 == word & 0xffff_ff00
                    );
                    prop_assert_eq!(
                        hi16 >> i & 1 == 1,
                        d & 0xffff_0000 == word & 0xffff_0000
                    );
                }
            }
        }
    }
}
