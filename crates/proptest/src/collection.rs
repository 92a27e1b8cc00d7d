//! Collection strategies: `proptest::collection::vec`.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// A length requirement for [`vec()`]: a fixed size or a size range.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    lo: usize,
    hi_exclusive: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange {
            lo: n,
            hi_exclusive: n + 1,
        }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec size range");
        SizeRange {
            lo: r.start,
            hi_exclusive: r.end,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec size range");
        SizeRange {
            lo: *r.start(),
            hi_exclusive: *r.end() + 1,
        }
    }
}

/// Strategy for `Vec<S::Value>` with a random length in the size range.
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Generates vectors whose elements come from `element` and whose length
/// satisfies `size` (a `usize`, `lo..hi`, or `lo..=hi`).
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.hi_exclusive - self.size.lo) as u64;
        let len = self.size.lo + rng.next_below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }
}
