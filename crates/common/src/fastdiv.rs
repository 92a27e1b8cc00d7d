//! Division and remainder by a run-time constant without a divide
//! instruction.
//!
//! Cache models divide by the same few numbers on every access: the way
//! count when a packed LineID is split into `index + way`, the bucket count
//! when a signature picks its hash-table bucket. A 64-bit hardware divide
//! costs tens of cycles; [`Divisor`] precomputes a 64-bit reciprocal once
//! and then divides any `u32` with one widening multiply, exactly, for
//! every divisor in `1..=u32::MAX` — powers of two take the same path.
//!
//! The reciprocal is `m = ⌊(2^64 − 1) / d⌋` and the quotient is
//! `⌊m · (n + 1) / 2^64⌋`. Writing `m·d = 2^64 − 1 − e` with `0 ≤ e < d`,
//! that product is `n/d + (1 − (n+1)(1+e)/2^64)/d`. Since
//! `(n+1)(1+e) ≤ 2^32 · 2^32`, the correction lies in `[0, 1/d]`, which
//! never carries `n/d` past the next integer: the floor is `⌊n / d⌋`.

/// A `u32` divisor with its precomputed reciprocal.
///
/// # Examples
///
/// ```
/// use cable_common::Divisor;
///
/// let twelve = Divisor::new(12);
/// assert_eq!(twelve.quotient(100), 8);
/// assert_eq!(twelve.remainder(100), 4);
/// assert_eq!(Divisor::new(1).quotient(u32::MAX), u32::MAX);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Divisor {
    d: u32,
    m: u64,
}

impl Divisor {
    /// Precomputes the reciprocal of `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero.
    #[must_use]
    pub fn new(d: u32) -> Self {
        assert!(d != 0, "division by zero");
        Divisor {
            d,
            m: u64::MAX / u64::from(d),
        }
    }

    /// The divisor itself.
    #[must_use]
    pub fn get(self) -> u32 {
        self.d
    }

    /// `n / d`.
    #[inline]
    #[must_use]
    pub fn quotient(self, n: u32) -> u32 {
        ((u128::from(self.m) * u128::from(u64::from(n) + 1)) >> 64) as u32
    }

    /// `n % d`.
    #[inline]
    #[must_use]
    pub fn remainder(self, n: u32) -> u32 {
        n - self.quotient(n) * self.d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 1, every power of two, every `2^k ± 1`, `u32::MAX`, and a few
    /// cache-shaped counts (12 ways, 3 buckets).
    fn edge_divisors() -> Vec<u32> {
        let mut ds = vec![1, 3, 12, u32::MAX];
        for k in 1..32 {
            let p = 1u32 << k;
            ds.extend([p - 1, p, p + 1]);
        }
        ds
    }

    #[test]
    fn edge_numerators_on_edge_divisors() {
        for d in edge_divisors() {
            let div = Divisor::new(d);
            for n in [0, 1, d - 1, d, d.wrapping_add(1), u32::MAX - 1, u32::MAX] {
                assert_eq!(div.quotient(n), n / d, "{n} / {d}");
                assert_eq!(div.remainder(n), n % d, "{n} % {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn zero_rejected() {
        let _ = Divisor::new(0);
    }

    proptest! {
        #[test]
        fn prop_matches_hardware_division(n in any::<u32>(), d in 1u32..) {
            let div = Divisor::new(d);
            prop_assert_eq!(div.quotient(n), n / d);
            prop_assert_eq!(div.remainder(n), n % d);
        }

        #[test]
        fn prop_matches_on_edge_divisors(n in any::<u32>(), pick in any::<usize>()) {
            let ds = edge_divisors();
            let d = ds[pick % ds.len()];
            let div = Divisor::new(d);
            prop_assert_eq!(div.quotient(n), n / d);
            prop_assert_eq!(div.remainder(n), n % d);
        }
    }
}
