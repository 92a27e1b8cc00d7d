//! Deterministic memory-content synthesis.
//!
//! Every line's content is a pure function of `(profile, instance seed,
//! address)`: re-reading an address always yields the same bytes, two
//! instances of the same benchmark see the same bytes (unless the profile
//! sets `content_diverges`, like namd), and different benchmarks see
//! unrelated bytes. Class selection (zero / repeat / template / pointer /
//! small-value / random) is rolled per line from the profile's fractions.

use crate::profile::WorkloadProfile;
use cable_common::{Address, LineData, SplitMix64, WORDS_PER_LINE};

/// Which synthesis class a line belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ContentClass {
    /// All zeros.
    Zero,
    /// One 64-bit value repeated eight times.
    Repeat,
    /// Near-duplicate of a template object.
    Template,
    /// Pointer array sharing high bits with its region.
    Pointer,
    /// Small (trivial) integer values.
    SmallValue,
    /// Incompressible random bytes.
    Random,
}

/// Synthesizes line content for one program instance.
///
/// # Examples
///
/// ```
/// use cable_trace::{by_name, ContentSynthesizer};
/// use cable_common::Address;
///
/// let p = by_name("gcc").unwrap();
/// let a = ContentSynthesizer::new(p, 0);
/// let b = ContentSynthesizer::new(p, 1);
/// // Content is a pure function of the address...
/// assert_eq!(a.line(Address::new(0x40)), a.line(Address::new(0x40)));
/// // ...and gcc instances share content (SPECrate-style similarity).
/// assert_eq!(a.line(Address::new(0x40)), b.line(Address::new(0x40)));
/// ```
#[derive(Clone, Debug)]
pub struct ContentSynthesizer {
    profile: &'static WorkloadProfile,
    seed: u64,
}

fn name_seed(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl ContentSynthesizer {
    /// Creates a synthesizer for `instance` of the benchmark. Instances
    /// share content unless the profile diverges.
    #[must_use]
    pub fn new(profile: &'static WorkloadProfile, instance: u64) -> Self {
        let mut seed = name_seed(profile.name);
        if profile.content_diverges {
            seed ^= instance.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        ContentSynthesizer { profile, seed }
    }

    /// The profile driving this synthesizer.
    #[must_use]
    pub fn profile(&self) -> &'static WorkloadProfile {
        self.profile
    }

    fn line_rng(&self, addr: Address) -> SplitMix64 {
        // Content keys off the line number *within* the instance's address
        // space window so instances see the same stream of classes.
        SplitMix64::new(
            self.seed ^ (addr.line_number() & 0x3fff_ffff).wrapping_mul(0x2545_f491_4f6c_dd1d),
        )
    }

    /// The class rolled for this address.
    #[must_use]
    pub fn class_of(&self, addr: Address) -> ContentClass {
        let p = self.profile;
        let mut rng = self.line_rng(addr);
        let roll = rng.next_f64();
        let mut acc = p.zero_line_frac;
        if roll < acc {
            return ContentClass::Zero;
        }
        acc += p.repeat_line_frac;
        if roll < acc {
            return ContentClass::Repeat;
        }
        acc += p.template_frac;
        if roll < acc {
            return ContentClass::Template;
        }
        acc += p.pointer_frac;
        if roll < acc {
            return ContentClass::Pointer;
        }
        acc += p.small_value_frac;
        if roll < acc {
            return ContentClass::SmallValue;
        }
        ContentClass::Random
    }

    /// Synthesizes the content of the line at `addr`.
    #[must_use]
    pub fn line(&self, addr: Address) -> LineData {
        let mut rng = self.line_rng(addr);
        let _class_roll = rng.next_f64(); // consumed identically to class_of
        match self.class_of(addr) {
            ContentClass::Zero => LineData::zeroed(),
            ContentClass::Repeat => self.repeat_line(&mut rng),
            ContentClass::Template => self.template_instance(addr, &mut rng),
            ContentClass::Pointer => self.pointer_line(addr, &mut rng),
            ContentClass::SmallValue => self.small_value_line(addr, &mut rng),
            ContentClass::Random => self.random_line(&mut rng),
        }
    }

    fn repeat_line(&self, rng: &mut SplitMix64) -> LineData {
        // Values come from a small per-benchmark pool so repeats also
        // recur across lines.
        let pool_idx = rng.next_bounded(8);
        let mut vrng = SplitMix64::new(self.seed ^ 0xbeef ^ pool_idx);
        let value = vrng.next_u64() | 0x0101_0101_0101_0101; // non-trivial
        let mut line = LineData::zeroed();
        for i in 0..8 {
            line.as_bytes_mut()[i * 8..][..8].copy_from_slice(&value.to_le_bytes());
        }
        line
    }

    /// The pristine template object `id` (deterministic per benchmark).
    #[must_use]
    pub fn template(&self, id: u32) -> LineData {
        let p = self.profile;
        let mut trng = SplitMix64::new(self.seed ^ 0x7e3b ^ u64::from(id));
        let mut words = [0u32; WORDS_PER_LINE];
        // A shared "vtable/base pointer" field pattern: templates of the
        // same benchmark share some high bits, giving CPACK partial
        // matches while exact words stay template-specific.
        let base = 0x1000_0000 | ((trng.next_u32() & 0x00ff_ff00) << 4);
        for (i, w) in words.iter_mut().enumerate() {
            *w = if trng.next_bool(p.zero_word_frac) {
                0
            } else if i % 4 == 0 {
                base | (trng.next_u32() & 0xfff)
            } else {
                // Object payload: structured, non-trivial.
                0x0200_0000 | (trng.next_u32() & 0x3fff_ffff) | 0x0100_0000
            };
        }
        LineData::from_words(words)
    }

    fn template_instance(&self, addr: Address, rng: &mut SplitMix64) -> LineData {
        let p = self.profile;
        // Object similarity is allocation-site-local: each 256 KB region
        // draws from a contiguous window of the global template set, which
        // fixes the reuse distance of near-duplicates in the miss stream.
        let region = addr.line_number() >> 12;
        let pool = u64::from(p.templates_per_region.clamp(1, p.template_count));
        let mut rrng = SplitMix64::new(self.seed ^ 0x9e01 ^ region);
        let base = rrng.next_bounded(u64::from(p.template_count));
        let id = ((base + rng.next_bounded(pool)) % u64::from(p.template_count)) as u32;
        let mut line = self.template(id);
        // Copies of an object differ in a handful of *fields*: mutations hit
        // fixed per-template hot slots with values from small per-slot pools
        // (instance counters, enum fields, small pointers) — so two
        // instances often differ in 0–2 words and sometimes agree exactly.
        let mutations = rng.next_bounded(u64::from(p.max_mutations) + 1);
        for _ in 0..mutations {
            let mut srng =
                SplitMix64::new(self.seed ^ 0x5107 ^ (u64::from(id) << 8) ^ rng.next_bounded(4));
            let slot = srng.next_bounded(WORDS_PER_LINE as u64) as usize;
            let pool_entry = rng.next_bounded(8);
            let mut vrng = SplitMix64::new(
                self.seed ^ 0xf1e1d ^ (u64::from(id) << 16) ^ ((slot as u64) << 8) ^ pool_entry,
            );
            line.set_word(
                slot,
                0x0300_0000 | (vrng.next_u32() & 0x00ef_ffff) | 0x0010_0000,
            );
        }
        // Occasionally byte-shift the instance (hurts word-aligned
        // schemes; gzip/ORACLE still match).
        if rng.next_bool(p.byte_shift_frac) {
            let shift = 1 + rng.next_bounded(3) as usize;
            let bytes = *line.as_bytes();
            let mut shifted = [0u8; 64];
            for (i, b) in shifted.iter_mut().enumerate() {
                *b = bytes[(i + 64 - shift) % 64];
            }
            line = LineData::from_bytes(shifted);
        }
        line
    }

    fn pointer_line(&self, addr: Address, rng: &mut SplitMix64) -> LineData {
        // Lines in the same 256 KB region share a heap base and point into
        // a small pool of live objects: classic pointer-array similarity
        // (many exact word repeats across neighbouring lines). The region
        // is large enough that same-variant siblings are usually still
        // LLC-resident when a new line of the region is fetched.
        let region = addr.line_number() >> 12;
        let mut brng = SplitMix64::new(self.seed ^ 0xb45e ^ region);
        let base = 0x7f00_0000u32 | (brng.next_u32() & 0x00ff_f000);
        let mut targets = [0u32; 32];
        for t in &mut targets {
            *t = base | (brng.next_u32() & 0xff8);
        }
        // Each pointer line is one of eight positional variants of the
        // region's live-object table (arrays are scanned at different
        // offsets): nearby variants are word-shifted copies, and equal
        // variants are exact duplicates — both patterns real pointer-dense
        // heaps exhibit.
        let variant = rng.next_bounded(8);
        let mut words = [0u32; WORDS_PER_LINE];
        for (i, w) in words.iter_mut().enumerate() {
            let k = (variant as usize + i) % 32;
            *w = if i % 2 == 0 {
                targets[k]
            } else {
                (k as u32 * 17) & 0xff // small metadata, variant-determined
            };
        }
        LineData::from_words(words)
    }

    fn small_value_line(&self, addr: Address, rng: &mut SplitMix64) -> LineData {
        // Small-integer arrays (counters, flags, indices) draw from a small
        // per-region value pool, so whole lines recur nearly verbatim.
        // These words are *trivial* (§III-A), so CABLE cannot index them —
        // byte-granular gzip is the scheme that profits here.
        let region = addr.line_number() >> 12;
        let mut prng = SplitMix64::new(self.seed ^ 0x5a11 ^ region);
        let mut pool = [0u32; 8];
        for v in &mut pool {
            *v = prng.next_bounded(256) as u32;
        }
        let variant = rng.next_bounded(4) as usize;
        let mut words = [0u32; WORDS_PER_LINE];
        for (i, w) in words.iter_mut().enumerate() {
            *w = pool[(variant + i) % 8];
        }
        LineData::from_words(words)
    }

    fn random_line(&self, rng: &mut SplitMix64) -> LineData {
        // High-entropy payload data still has magnitude structure: FP
        // values of similar exponent share their top bytes (CPACK's mmxx
        // pattern exists in real traces; nothing is pure white noise).
        let mut erng = SplitMix64::new(self.seed ^ 0xe4b0 ^ rng.next_bounded(4));
        let hi = erng.next_u32() & 0xffff_0000;
        let mut words = [0u32; WORDS_PER_LINE];
        for w in &mut words {
            *w = hi | (rng.next_u32() & 0xffff);
        }
        LineData::from_words(words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;

    fn synth(name: &str) -> ContentSynthesizer {
        ContentSynthesizer::new(by_name(name).unwrap(), 0)
    }

    #[test]
    fn content_is_pure() {
        let s = synth("gcc");
        for n in 0..200u64 {
            let a = Address::from_line_number(n);
            assert_eq!(s.line(a), s.line(a));
        }
    }

    #[test]
    fn class_distribution_matches_profile() {
        let s = synth("mcf");
        let p = by_name("mcf").unwrap();
        let total = 20_000u64;
        let zeros = (0..total)
            .filter(|&n| s.class_of(Address::from_line_number(n)) == ContentClass::Zero)
            .count() as f64
            / total as f64;
        assert!(
            (zeros - p.zero_line_frac).abs() < 0.02,
            "zero fraction {zeros} vs profile {}",
            p.zero_line_frac
        );
    }

    #[test]
    fn class_of_agrees_with_line() {
        let s = synth("dealII");
        for n in 0..500u64 {
            let a = Address::from_line_number(n);
            let line = s.line(a);
            match s.class_of(a) {
                ContentClass::Zero => assert!(line.is_zero()),
                ContentClass::Repeat => {
                    let w0 = u64::from(line.word(0)) | u64::from(line.word(1)) << 32;
                    for i in 0..8 {
                        let w = u64::from(line.word(2 * i)) | u64::from(line.word(2 * i + 1)) << 32;
                        assert_eq!(w, w0);
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn template_instances_are_similar() {
        // Two template-class lines of the same template share most words.
        let s = synth("lbm"); // 32 templates: recurrence is frequent
        let template_lines: Vec<LineData> = (0..4000u64)
            .map(Address::from_line_number)
            .filter(|&a| s.class_of(a) == ContentClass::Template)
            .map(|a| s.line(a))
            .collect();
        assert!(template_lines.len() > 500);
        // With 32 templates, many pairs must match in >= 12 words.
        let mut best = 0;
        for i in 1..200.min(template_lines.len()) {
            best = best.max(
                template_lines[0]
                    .coverage_vector(&template_lines[i])
                    .count_ones(),
            );
        }
        assert!(best >= 12, "best pair match {best} words");
    }

    #[test]
    fn instances_share_content_unless_diverging() {
        let gcc0 = ContentSynthesizer::new(by_name("gcc").unwrap(), 0);
        let gcc1 = ContentSynthesizer::new(by_name("gcc").unwrap(), 3);
        let namd0 = ContentSynthesizer::new(by_name("namd").unwrap(), 0);
        let namd1 = ContentSynthesizer::new(by_name("namd").unwrap(), 3);
        let a = Address::from_line_number(77);
        assert_eq!(gcc0.line(a), gcc1.line(a));
        assert_ne!(namd0.line(a), namd1.line(a));
    }

    #[test]
    fn different_benchmarks_differ() {
        let a = Address::from_line_number(123);
        assert_ne!(synth("gcc").line(a), synth("bzip2").line(a));
    }

    #[test]
    fn pointer_lines_share_region_base() {
        let s = synth("omnetpp");
        let mut ptr_lines: Vec<(u64, LineData)> = Vec::new();
        for n in 0..2000u64 {
            let a = Address::from_line_number(n);
            if s.class_of(a) == ContentClass::Pointer {
                ptr_lines.push((n >> 12, s.line(a)));
            }
        }
        // Two pointer lines of the same region share word-0 high bits.
        let mut checked = false;
        for i in 0..ptr_lines.len() {
            for j in i + 1..ptr_lines.len() {
                if ptr_lines[i].0 == ptr_lines[j].0 {
                    assert_eq!(
                        ptr_lines[i].1.word(0) & 0xffff_f000,
                        ptr_lines[j].1.word(0) & 0xffff_f000
                    );
                    checked = true;
                }
            }
        }
        assert!(checked, "no same-region pointer pairs found");
    }
}
