//! Adversarial line families for the oracle proptests: all-zero lines,
//! all-exception lines and clashy lines, each against three
//! `0x04xx_xxxx` reference lines.

use cable_common::{LineData, SplitMix64};
use proptest::prelude::*;

/// Three reference lines whose words all have the high byte `0x04`.
fn ref_lines(rng: &mut SplitMix64) -> [LineData; 3] {
    core::array::from_fn(|_| {
        LineData::from_words(core::array::from_fn(|i| {
            0x0400_0000 ^ ((i as u32) * 0x0101) ^ (rng.next_u32() & 0x0000_ffff)
        }))
    })
}

/// A line sharing no word and no CPACK high-byte class with the
/// references: every word is `0xa5xx_xxxx`, non-trivial, and becomes an
/// exception or literal.
fn all_exception_line(rng: &mut SplitMix64) -> LineData {
    LineData::from_words(core::array::from_fn(|_| {
        0xa500_0000 | (rng.next_u32() & 0x00ff_ffff)
    }))
}

/// A line whose words collide with `base` often enough to exercise zero
/// runs, repeats, copies and literals in one encode.
fn clashy_line(rng: &mut SplitMix64, base: &LineData) -> LineData {
    LineData::from_words(core::array::from_fn(|i| match rng.next_bounded(4) {
        0 => 0,
        1 => base.word(i),
        2 => base.word(rng.next_bounded(16) as usize),
        _ => rng.next_u32(),
    }))
}

/// `(refs, line)` drawn from one seed: three `0x04xx_xxxx` references and
/// a line that is all-zero, all-exception, or clashy against one of them.
pub(crate) fn family_case() -> impl Strategy<Value = (Vec<LineData>, LineData)> {
    any::<u64>().prop_map(|seed| {
        let mut rng = SplitMix64::new(seed);
        let refs = ref_lines(&mut rng);
        let line = match rng.next_bounded(3) {
            0 => LineData::zeroed(),
            1 => all_exception_line(&mut rng),
            _ => {
                let base = refs[rng.next_bounded(3) as usize];
                clashy_line(&mut rng, &base)
            }
        };
        (refs.to_vec(), line)
    })
}
