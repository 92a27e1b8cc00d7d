//! The H3 universal hash family.
//!
//! CABLE's Verilog implementation computes signatures with H3 (Carter &
//! Wegman 1979; Ramakrishna et al. 1997), "a simple yet high performance
//! hash function" (§IV-D). H3 hashes an n-bit input by XOR-ing together one
//! pre-chosen random mask per set input bit — in hardware, one XOR tree per
//! output bit; here, four byte-indexed table lookups, tested against the
//! per-set-bit loop.

use cable_common::SplitMix64;
use std::fmt;

/// An H3 hash function over 32-bit inputs.
///
/// # Examples
///
/// ```
/// use cable_core::h3::H3;
///
/// let h = H3::new(0xcab1e, 16);
/// assert_eq!(h.hash(0xdead_beef), h.hash(0xdead_beef)); // deterministic
/// assert!(h.hash(0x1234) < (1 << 16));
/// ```
#[derive(Clone)]
pub struct H3 {
    /// Byte-indexed lookup tables: `tables[b][v]` is the XOR of the masks
    /// selected by byte value `v` at byte position `b`. H3 is linear over
    /// XOR, so four table reads replace the per-set-bit mask loop on the
    /// hot signature path — with bit-identical output.
    tables: Box<[[u64; 256]; 4]>,
    out_bits: u32,
}

impl H3 {
    /// Creates an H3 function with `out_bits` output bits from a seed.
    ///
    /// Equal seeds produce identical functions, which is how the two ends of
    /// a CABLE link agree on signatures without communicating.
    ///
    /// # Panics
    ///
    /// Panics if `out_bits` is 0 or greater than 64.
    #[must_use]
    pub fn new(seed: u64, out_bits: u32) -> Self {
        assert!((1..=64).contains(&out_bits), "out_bits must be in 1..=64");
        let mut rng = SplitMix64::new(seed);
        let mask = if out_bits == 64 {
            u64::MAX
        } else {
            (1u64 << out_bits) - 1
        };
        let mut masks = [0u64; 32];
        for m in &mut masks {
            *m = rng.next_u64() & mask;
        }
        let mut tables = Box::new([[0u64; 256]; 4]);
        for (byte, table) in tables.iter_mut().enumerate() {
            for v in 1usize..256 {
                // Incremental build: drop the lowest set bit, XOR its mask.
                let low = v.trailing_zeros() as usize;
                table[v] = table[v & (v - 1)] ^ masks[byte * 8 + low];
            }
        }
        H3 { tables, out_bits }
    }

    /// Output width in bits.
    #[must_use]
    pub fn out_bits(&self) -> u32 {
        self.out_bits
    }

    /// Hashes a 32-bit word: XOR of the masks selected by its set bits,
    /// computed one byte at a time from the precomputed tables.
    #[must_use]
    pub fn hash(&self, x: u32) -> u64 {
        self.tables[0][(x & 0xff) as usize]
            ^ self.tables[1][((x >> 8) & 0xff) as usize]
            ^ self.tables[2][((x >> 16) & 0xff) as usize]
            ^ self.tables[3][(x >> 24) as usize]
    }

    /// Hashes all 16 words of a line in one pass.
    ///
    /// Each output is four independent table lookups XOR-ed together, so
    /// iterating the whole line in one loop lets the sixteen hashes pipeline
    /// (no per-call overhead, loads from the four tables interleave). Output
    /// `i` is bit-identical to `hash(words[i])`.
    #[must_use]
    pub fn hash_line(&self, words: &[u32; 16]) -> [u64; 16] {
        let [t0, t1, t2, t3] = &*self.tables;
        let mut out = [0u64; 16];
        for (o, &x) in out.iter_mut().zip(words.iter()) {
            *o = t0[(x & 0xff) as usize]
                ^ t1[((x >> 8) & 0xff) as usize]
                ^ t2[((x >> 16) & 0xff) as usize]
                ^ t3[(x >> 24) as usize];
        }
        out
    }
}

impl fmt::Debug for H3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H3({} output bits)", self.out_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference implementation: the per-set-bit mask loop the hardware's
    /// XOR trees correspond to, with the 32 masks drawn afresh from the
    /// seed. The specification `hash` is tested against.
    fn hash_reference(seed: u64, out_bits: u32, x: u32) -> u64 {
        let mut rng = SplitMix64::new(seed);
        let masks: [u64; 32] = core::array::from_fn(|_| rng.next_u64());
        let mut acc = 0u64;
        let mut bits = x;
        while bits != 0 {
            acc ^= masks[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        acc & (u64::MAX >> (64 - out_bits))
    }

    #[test]
    fn zero_hashes_to_zero() {
        // XOR of no masks — the identity of the H3 family.
        assert_eq!(H3::new(1, 32).hash(0), 0);
    }

    #[test]
    fn same_seed_same_function() {
        let a = H3::new(42, 20);
        let b = H3::new(42, 20);
        for x in [1u32, 0xffff_ffff, 0x8000_0001, 12345] {
            assert_eq!(a.hash(x), b.hash(x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = H3::new(1, 32);
        let b = H3::new(2, 32);
        let diffs = (1u32..100).filter(|&x| a.hash(x) != b.hash(x)).count();
        assert!(diffs > 90);
    }

    #[test]
    fn linearity_over_xor() {
        // H3 is linear: h(a ^ b) == h(a) ^ h(b).
        let h = H3::new(7, 32);
        for (a, b) in [(3u32, 5u32), (0xdead, 0xbeef), (1 << 31, 1)] {
            assert_eq!(h.hash(a ^ b), h.hash(a) ^ h.hash(b));
        }
    }

    #[test]
    fn output_distribution_is_roughly_uniform() {
        let h = H3::new(11, 8);
        let mut counts = [0u32; 256];
        for x in 0u32..65_536 {
            counts[h.hash(x) as usize] += 1;
        }
        let (min, max) = counts
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &c| (lo.min(c), hi.max(c)));
        // Perfectly linear functions give exactly uniform buckets over the
        // full input space; allow slack for the truncated sample.
        assert!(min > 100 && max < 500, "min {min} max {max}");
    }

    proptest! {
        #[test]
        fn prop_output_in_range(x in any::<u32>(), bits in 1u32..=63) {
            let h = H3::new(9, bits);
            prop_assert!(h.hash(x) < (1u64 << bits));
        }

        #[test]
        fn prop_linear(a in any::<u32>(), b in any::<u32>()) {
            let h = H3::new(13, 24);
            prop_assert_eq!(h.hash(a ^ b), h.hash(a) ^ h.hash(b));
        }

        #[test]
        fn prop_hash_line_matches_hash(words in proptest::array::uniform16(any::<u32>())) {
            let h = H3::new(0xcab1e, 32);
            let hashes = h.hash_line(&words);
            for (i, &w) in words.iter().enumerate() {
                prop_assert_eq!(hashes[i], h.hash(w));
            }
        }

        #[test]
        fn prop_table_matches_mask_loop(x in any::<u32>(), seed in any::<u64>(), bits in 1u32..=64) {
            // The byte tables must reproduce the per-set-bit specification
            // exactly, or signatures (and every downstream figure) drift.
            let h = H3::new(seed, bits);
            prop_assert_eq!(h.hash(x), hash_reference(seed, bits, x));
        }
    }
}
