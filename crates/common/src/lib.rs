//! Shared primitives for the CABLE workspace.
//!
//! This crate holds the small, dependency-free vocabulary types used by every
//! other crate in the reproduction of *CABLE: A CAche-Based Link Encoder for
//! Bandwidth-Starved Manycores* (MICRO 2018):
//!
//! - [`LineData`]: a 64-byte cache line with 32-bit word accessors, the unit
//!   every compressor and cache in the workspace operates on.
//! - [`Address`]: a physical byte address newtype with line/page arithmetic.
//! - [`bits`]: a bit-granular writer/reader pair used by the compression
//!   codecs, which must account for payloads that are not byte-aligned.
//! - [`SplitMix64`]: a tiny deterministic RNG used where a full `rand`
//!   dependency would be overkill (e.g. H3 matrix generation).
//! - [`lanes`]: SWAR kernels (broadcast-compare, movemask) that the encode
//!   hot path uses to process whole lines lane-parallel. Each caller's
//!   scalar loop lives on in its unit tests as the oracle.
//!
//! # Examples
//!
//! ```
//! use cable_common::LineData;
//!
//! let mut line = LineData::zeroed();
//! line.set_word(3, 0xdead_beef);
//! assert_eq!(line.word(3), 0xdead_beef);
//! assert_eq!(line.words().filter(|&w| w == 0).count(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod bits;
pub mod crc;
pub mod lanes;
pub mod line;
pub mod rng;

pub use addr::{Address, PAGE_BYTES};
pub use bits::{BitReader, BitWriter};
pub use crc::{crc32, Crc32};
pub use line::{LineData, LINE_BYTES, WORDS_PER_LINE, WORD_BYTES};
pub use rng::SplitMix64;

/// Computes `ceil(numer / denom)` for unsigned integers.
///
/// Used throughout the workspace for flit counts (how many link beats a
/// payload of `n` bits occupies on a `w`-bit link) and for table sizing.
///
/// # Examples
///
/// ```
/// assert_eq!(cable_common::div_ceil(33, 16), 3);
/// assert_eq!(cable_common::div_ceil(32, 16), 2);
/// assert_eq!(cable_common::div_ceil(0, 16), 0);
/// ```
///
/// # Panics
///
/// Panics if `denom` is zero.
#[must_use]
pub fn div_ceil(numer: u64, denom: u64) -> u64 {
    assert!(denom != 0, "div_ceil by zero");
    numer / denom + u64::from(!numer.is_multiple_of(denom))
}

/// Number of bits needed to represent values in `0..n` (i.e. `ceil(log2 n)`).
///
/// By convention `bits_for(0)` and `bits_for(1)` are `0`: a set with at most
/// one element needs no bits to index.
///
/// # Examples
///
/// ```
/// assert_eq!(cable_common::bits_for(1), 0);
/// assert_eq!(cable_common::bits_for(2), 1);
/// assert_eq!(cable_common::bits_for(8192), 13);
/// assert_eq!(cable_common::bits_for(8193), 14);
/// ```
#[must_use]
pub fn bits_for(n: u64) -> u32 {
    if n <= 1 {
        0
    } else {
        64 - (n - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn div_ceil_rounds_up() {
        assert_eq!(div_ceil(1, 16), 1);
        assert_eq!(div_ceil(16, 16), 1);
        assert_eq!(div_ceil(17, 16), 2);
        assert_eq!(div_ceil(512, 16), 32);
    }

    #[test]
    #[should_panic(expected = "div_ceil by zero")]
    fn div_ceil_zero_denominator_panics() {
        let _ = div_ceil(1, 0);
    }

    #[test]
    fn bits_for_powers_of_two() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(2), 1);
        assert_eq!(bits_for(4), 2);
        assert_eq!(bits_for(1 << 17), 17);
        // 17-bit LineIDs for a 1M-line cache with 8 ways: 2^17 lines.
        assert_eq!(bits_for((8 << 20) / 64), 17);
    }
}
