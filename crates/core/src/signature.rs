//! Signature extraction (§III-A).
//!
//! A signature is a "succinct and unique representation of a cache line"
//! (Table I): a 32-bit H3 hash of a sampled 32-bit word. Two mechanisms make
//! the sampling cache-aware:
//!
//! - **Trivial-word skipping**: a word with 24 or more leading zeros *or
//!   ones* carries little identity (zeros are abundant, small constants are
//!   common), so the sampling offset moves forward past it (Fig. 6).
//! - **Word-granularity shifting**: offsets advance by four bytes, not one,
//!   because "data objects in many programming languages such as C++ are
//!   aligned to 32-bit or 64-bit boundaries" (§III-A).
//!
//! Two signatures per line are *inserted* into the hash table when caches
//! synchronize (keeping collisions low); **all** non-trivial signatures are
//! used when *searching* (§III-B).

use crate::h3::H3;
use cable_common::{LineData, WORDS_PER_LINE};
use std::fmt;

/// Number of signatures inserted into the hash table per synchronized line.
pub const INSERT_SIGNATURES: usize = 2;

/// Default insertion sampling offsets (word indices), before trivial-word
/// forwarding. Spreading them across the line (Fig. 5) makes the two
/// inserted signatures likely to survive localized edits.
pub const DEFAULT_INSERT_OFFSETS: [usize; INSERT_SIGNATURES] = [0, 8];

/// A 32-bit line signature.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signature(u32);

impl Signature {
    /// The raw 32-bit signature value.
    #[must_use]
    pub fn as_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({:#010x})", self.0)
    }
}

/// A fixed-capacity signature buffer: a line yields at most
/// [`WORDS_PER_LINE`] distinct signatures, so extraction can fill a
/// caller-owned buffer instead of allocating a `Vec` per line — the hot
/// encode path runs one extraction per fill plus several per
/// synchronization event.
#[derive(Clone, Copy)]
pub struct SignatureBuf {
    sigs: [Signature; WORDS_PER_LINE],
    len: usize,
}

impl Default for SignatureBuf {
    fn default() -> Self {
        SignatureBuf {
            sigs: [Signature(0); WORDS_PER_LINE],
            len: 0,
        }
    }
}

impl SignatureBuf {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Signatures currently held.
    #[must_use]
    pub fn as_slice(&self) -> &[Signature] {
        &self.sigs[..self.len]
    }

    /// Number of signatures held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no signature is held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the buffer (capacity is fixed; nothing is freed).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends `sig` unless already present (extraction dedup semantics).
    /// The linear scan is over at most 16 entries.
    fn push_dedup(&mut self, sig: Signature) {
        if !self.as_slice().contains(&sig) {
            self.sigs[self.len] = sig;
            self.len += 1;
        }
    }
}

impl fmt::Debug for SignatureBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

/// Returns true for *trivial* words: 24 or more leading zeros or leading
/// ones (Fig. 6). Trivial words are skipped during signature sampling.
///
/// # Examples
///
/// ```
/// use cable_core::signature::is_trivial_word;
///
/// assert!(is_trivial_word(0));          // zero
/// assert!(is_trivial_word(0xff));       // small constant
/// assert!(is_trivial_word(0xffff_ffff)); // -1
/// assert!(is_trivial_word(0xffff_ff80)); // small negative
/// assert!(!is_trivial_word(0x0000_0100)); // 23 leading zeros
/// assert!(!is_trivial_word(0xdead_beef));
/// ```
#[must_use]
pub fn is_trivial_word(word: u32) -> bool {
    word.leading_zeros() >= 24 || word.leading_ones() >= 24
}

/// Movemask of the line's non-trivial words: bit `i` is set iff word `i`
/// is *not* trivial.
///
/// The per-word test is branchless: a word is trivial exactly when it lies
/// in `[0, 0xff]` or `[0xffff_ff00, 0xffff_ffff]`, i.e. when
/// `word.wrapping_add(0x100)` lands in `[0x100, 0x1ff]` ∪ `[0, 0xff]` =
/// `[0, 0x1ff]`, which one mask test detects. Sixteen independent lanes,
/// no data-dependent branches — the compiler vectorizes the loop freely.
#[must_use]
pub fn nontrivial_mask(line: &LineData) -> u16 {
    let words = line.to_words();
    let mut mask = 0u16;
    for (i, &w) in words.iter().enumerate() {
        mask |= u16::from(w.wrapping_add(0x100) & 0xffff_fe00 != 0) << i;
    }
    mask
}

/// The signature extractor: an H3 function plus the sampling policy.
///
/// Both ends of a link construct extractors from the same seed so their
/// hash tables agree on what a line's signatures are.
#[derive(Clone, Debug)]
pub struct SignatureExtractor {
    h3: H3,
}

impl SignatureExtractor {
    /// Creates an extractor; equal seeds yield identical extractors.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SignatureExtractor {
            h3: H3::new(seed, 32),
        }
    }

    fn sign(&self, word: u32) -> Signature {
        Signature(self.h3.hash(word) as u32)
    }

    /// Extracts the signatures *inserted* at synchronization time: for each
    /// default offset, the first non-trivial word at or after it (wrapping
    /// not needed — the scan stops at the line end). Duplicate signatures
    /// are dropped. Returns an empty vector for lines of only trivial words
    /// (such lines are never useful references).
    #[must_use]
    pub fn insert_signatures(&self, line: &LineData) -> Vec<Signature> {
        self.insert_signatures_n(line, INSERT_SIGNATURES)
    }

    /// [`SignatureExtractor::insert_signatures`] with a configurable
    /// signature count (the §III-B "two signatures per cache line" design
    /// choice, exposed for ablation). Offsets are spread evenly across the
    /// line.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or greater than 16.
    #[must_use]
    pub fn insert_signatures_n(&self, line: &LineData, count: usize) -> Vec<Signature> {
        let mut buf = SignatureBuf::new();
        self.insert_signatures_into(line, count, &mut buf);
        buf.as_slice().to_vec()
    }

    /// Allocation-free form of [`SignatureExtractor::insert_signatures_n`]:
    /// clears `out` and fills it with the insert signatures.
    ///
    /// Mask-driven: one [`nontrivial_mask`] computes all sixteen triviality
    /// tests at once, and each offset's forwarding scan is a
    /// `trailing_zeros` on the shifted mask.
    ///
    /// # Panics
    ///
    /// Panics if `count` is 0 or greater than 16.
    pub fn insert_signatures_into(&self, line: &LineData, count: usize, out: &mut SignatureBuf) {
        assert!(
            (1..=WORDS_PER_LINE).contains(&count),
            "insert-signature count must be 1..=16"
        );
        out.clear();
        let mask = nontrivial_mask(line);
        if mask == 0 {
            return;
        }
        let words = line.to_words();
        for k in 0..count {
            let offset = k * WORDS_PER_LINE / count;
            let rest = mask >> offset;
            if rest != 0 {
                let i = offset + rest.trailing_zeros() as usize;
                out.push_dedup(self.sign(words[i]));
            }
        }
    }

    /// Extracts **all** distinct non-trivial signatures for searching: "all
    /// potential signatures are extracted and checked" (Fig. 5), up to 16
    /// per line, "often much less due to zeroes, and potentially non-unique
    /// signatures" (§III-C).
    #[must_use]
    pub fn search_signatures(&self, line: &LineData) -> Vec<Signature> {
        let mut buf = SignatureBuf::new();
        self.search_signatures_into(line, &mut buf);
        buf.as_slice().to_vec()
    }

    /// Allocation-free form of [`SignatureExtractor::search_signatures`]:
    /// clears `out` and fills it with all distinct non-trivial signatures.
    ///
    /// Mask-driven: the branchless [`nontrivial_mask`] replaces sixteen
    /// data-dependent triviality branches, and when most words survive, the
    /// whole line is hashed in one [`H3::hash_line`] pass instead of sixteen
    /// separate calls.
    pub fn search_signatures_into(&self, line: &LineData, out: &mut SignatureBuf) {
        out.clear();
        let mut mask = nontrivial_mask(line);
        if mask == 0 {
            return;
        }
        let words = line.to_words();
        if mask.count_ones() >= 8 {
            let hashes = self.h3.hash_line(&words);
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                out.push_dedup(Signature(hashes[i] as u32));
            }
        } else {
            while mask != 0 {
                let i = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                out.push_dedup(self.sign(words[i]));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn extractor() -> SignatureExtractor {
        SignatureExtractor::new(0xcab1e)
    }

    /// Scalar oracle for [`SignatureExtractor::insert_signatures_into`]:
    /// the per-word forwarding scan.
    fn insert_signatures_scalar(
        ex: &SignatureExtractor,
        line: &LineData,
        count: usize,
        out: &mut SignatureBuf,
    ) {
        out.clear();
        for k in 0..count {
            let offset = k * WORDS_PER_LINE / count;
            let found = (offset..WORDS_PER_LINE)
                .map(|i| line.word(i))
                .find(|&w| !is_trivial_word(w));
            if let Some(word) = found {
                out.push_dedup(ex.sign(word));
            }
        }
    }

    /// Scalar oracle for [`SignatureExtractor::search_signatures_into`]:
    /// the per-word loop.
    fn search_signatures_scalar(ex: &SignatureExtractor, line: &LineData, out: &mut SignatureBuf) {
        out.clear();
        for word in line.words() {
            if !is_trivial_word(word) {
                out.push_dedup(ex.sign(word));
            }
        }
    }

    #[test]
    fn trivial_word_boundaries() {
        assert!(is_trivial_word(0x0000_00ff)); // exactly 24 leading zeros
        assert!(!is_trivial_word(0x0000_0100)); // 23 leading zeros
        assert!(is_trivial_word(0xffff_ff00)); // exactly 24 leading ones
        assert!(!is_trivial_word(0xfffe_ffff)); // 15 leading ones
    }

    #[test]
    fn zero_line_has_no_signatures() {
        let line = LineData::zeroed();
        assert!(extractor().insert_signatures(&line).is_empty());
        assert!(extractor().search_signatures(&line).is_empty());
    }

    #[test]
    fn offsets_skip_trivial_words() {
        // Words 0..3 trivial, word 3 is the first interesting one.
        let mut line = LineData::zeroed();
        line.set_word(0, 1);
        line.set_word(1, 0xffff_ffff);
        line.set_word(3, 0xdead_beef);
        line.set_word(8, 0xcafe_f00d);
        let sigs = extractor().insert_signatures(&line);
        let all = extractor().search_signatures(&line);
        assert_eq!(sigs.len(), 2);
        // First insert offset forwarded from 0 to word 3.
        assert_eq!(sigs[0], all[0]);
        assert_eq!(all.len(), 2); // only two non-trivial words exist
    }

    #[test]
    fn duplicate_words_deduplicate_signatures() {
        let line = LineData::splat_word(0x1234_5678);
        let all = extractor().search_signatures(&line);
        assert_eq!(all.len(), 1);
        let ins = extractor().insert_signatures(&line);
        assert_eq!(ins.len(), 1);
    }

    #[test]
    fn similar_lines_share_signatures() {
        // Two lines that differ in a couple of words still share most
        // signatures — the property the whole search rests on.
        let a = LineData::from_words(core::array::from_fn(|i| 0x4000_0000 + (i as u32) * 0x111));
        let mut b = a;
        b.set_word(5, 0x7777_7777);
        let sa = extractor().search_signatures(&a);
        let sb = extractor().search_signatures(&b);
        let shared = sa.iter().filter(|s| sb.contains(s)).count();
        assert!(shared >= 14, "shared {shared}");
    }

    #[test]
    fn insert_signatures_are_subset_of_search() {
        let line = LineData::from_words([
            0,
            0x1111_2222,
            0,
            0x3333_4444,
            5,
            0xffff_fff0,
            0x5555_6666,
            0,
            0x7777_8888,
            0,
            0,
            1,
            0x9999_aaaa,
            2,
            0xbbbb_cccc,
            0,
        ]);
        let ins = extractor().insert_signatures(&line);
        let all = extractor().search_signatures(&line);
        assert!(ins.iter().all(|s| all.contains(s)));
        assert_eq!(ins.len(), 2);
    }

    #[test]
    fn same_seed_extractors_agree() {
        let a = SignatureExtractor::new(5);
        let b = SignatureExtractor::new(5);
        let line = LineData::splat_word(0x8765_4321);
        assert_eq!(a.search_signatures(&line), b.search_signatures(&line));
    }

    #[test]
    fn buffer_api_matches_vec_api() {
        let ex = extractor();
        let line = LineData::from_words([
            0,
            0x1111_2222,
            0,
            0x3333_4444,
            5,
            0xffff_fff0,
            0x5555_6666,
            0,
            0x7777_8888,
            0,
            0,
            1,
            0x9999_aaaa,
            2,
            0xbbbb_cccc,
            0,
        ]);
        let mut buf = SignatureBuf::new();
        ex.search_signatures_into(&line, &mut buf);
        assert_eq!(buf.as_slice(), ex.search_signatures(&line).as_slice());
        for count in [1, 2, 4, 16] {
            ex.insert_signatures_into(&line, count, &mut buf);
            assert_eq!(
                buf.as_slice(),
                ex.insert_signatures_n(&line, count).as_slice()
            );
        }
        buf.clear();
        assert!(buf.is_empty());
    }

    proptest! {
        #[test]
        fn prop_at_most_16_search_signatures(words in proptest::array::uniform16(any::<u32>())) {
            let line = LineData::from_words(words);
            let sigs = extractor().search_signatures(&line);
            prop_assert!(sigs.len() <= WORDS_PER_LINE);
            // Dedup holds.
            let mut sorted: Vec<_> = sigs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), sigs.len());
        }

        #[test]
        fn prop_insert_at_most_two(words in proptest::array::uniform16(any::<u32>())) {
            let line = LineData::from_words(words);
            prop_assert!(extractor().insert_signatures(&line).len() <= INSERT_SIGNATURES);
        }

        /// The branchless mask must agree with `is_trivial_word` on every
        /// word, including the boundary values.
        #[test]
        fn prop_nontrivial_mask_matches_predicate(
            words in proptest::array::uniform16(prop_oneof![
                Just(0u32), Just(0xffu32), Just(0x100u32), Just(0xffff_ff00u32),
                Just(0xffff_feffu32), Just(0xffff_ffffu32), any::<u32>(),
            ])
        ) {
            let line = LineData::from_words(words);
            let mask = nontrivial_mask(&line);
            for (i, &w) in words.iter().enumerate() {
                prop_assert_eq!(mask >> i & 1 == 1, !is_trivial_word(w));
            }
        }

        /// Mask-driven extraction vs the scalar oracle: identical signature
        /// sequences (order included) for both insert and search paths, on
        /// mixed-triviality lines and the adversarial families.
        #[test]
        fn prop_extraction_matches_scalar_oracle(
            line in prop_oneof![
                proptest::array::uniform16(prop_oneof![
                    Just(0u32), Just(1u32), Just(0xffff_ffffu32),
                    Just(0xdead_beefu32), any::<u32>(),
                ])
                .prop_map(LineData::from_words),
                crate::test_lines::family_case().prop_map(|(_, line)| line),
            ],
            count in 1usize..=16,
        ) {
            let ex = extractor();
            let (mut fast, mut slow) = (SignatureBuf::new(), SignatureBuf::new());
            ex.search_signatures_into(&line, &mut fast);
            search_signatures_scalar(&ex, &line, &mut slow);
            prop_assert_eq!(fast.as_slice(), slow.as_slice());
            ex.insert_signatures_into(&line, count, &mut fast);
            insert_signatures_scalar(&ex, &line, count, &mut slow);
            prop_assert_eq!(fast.as_slice(), slow.as_slice());
        }
    }
}
