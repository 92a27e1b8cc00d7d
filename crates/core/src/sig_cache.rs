//! Per-line insert-signature cache.
//!
//! When a line becomes Shared, both endpoints index its insert signatures
//! (2 by default) in their hash tables. Every event that later removes the
//! line — home eviction, remote victim, upgrade to Modified, write-back —
//! must delete exactly those signatures again, and the original
//! implementation recomputed them by re-running H3 over the full 64-byte
//! line each time. This cache remembers the signatures per resident
//! LineId, turning removal into two array reads.
//!
//! Correctness note: an entry is written at the single point where a line's
//! signatures enter the hash tables (the Shared-grant block) and consumed
//! by [`InsertSigCache::take`] when they leave. A cache miss (possible for
//! links constructed around pre-populated tables, or after an explicit
//! [`InsertSigCache::clear`]) simply signals the caller to fall back to
//! recomputation, so behavior is identical either way.

use crate::signature::{Signature, SignatureBuf};

/// Sentinel in `lens` marking an absent entry.
const ABSENT: u8 = u8::MAX;

/// Direct-mapped cache of each resident line's insert signatures, keyed by
/// packed LineId. Storage is one flat slab (`lines × stride` signatures
/// plus one length byte per line), allocated once at link construction.
#[derive(Debug)]
pub struct InsertSigCache {
    sigs: Vec<Signature>,
    lens: Vec<u8>,
    stride: usize,
}

impl Clone for InsertSigCache {
    fn clone(&self) -> Self {
        InsertSigCache {
            sigs: self.sigs.clone(),
            lens: self.lens.clone(),
            stride: self.stride,
        }
    }

    /// Reuses this cache's slab (see `SetAssocCache::clone_from`).
    fn clone_from(&mut self, source: &Self) {
        let InsertSigCache { sigs, lens, stride } = self;
        sigs.clone_from(&source.sigs);
        lens.clone_from(&source.lens);
        *stride = source.stride;
    }
}

impl InsertSigCache {
    /// Creates an empty cache for `lines` LineIds holding up to `stride`
    /// signatures each (`stride` = the link's `insert_signature_count`).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0 or does not fit the length byte.
    #[must_use]
    pub fn new(lines: usize, stride: usize) -> Self {
        assert!(stride >= 1 && stride < usize::from(ABSENT));
        InsertSigCache {
            sigs: vec![Signature::default(); lines * stride],
            lens: vec![ABSENT; lines],
            stride,
        }
    }

    /// Records `sigs` as the insert signatures of the line at `packed`,
    /// replacing any previous entry.
    ///
    /// # Panics
    ///
    /// Panics if `sigs` is longer than the stride or `packed` is out of
    /// range.
    pub fn set(&mut self, packed: u32, sigs: &[Signature]) {
        let lid = packed as usize;
        assert!(sigs.len() <= self.stride);
        let base = lid * self.stride;
        self.sigs[base..base + sigs.len()].copy_from_slice(sigs);
        self.lens[lid] = sigs.len() as u8;
    }

    /// Moves the cached signatures of the line at `packed` into `out` and
    /// clears the entry. Returns false (leaving `out` empty) on a miss, in
    /// which case the caller recomputes from line data.
    pub fn take(&mut self, packed: u32, out: &mut SignatureBuf) -> bool {
        out.clear();
        let lid = packed as usize;
        let len = self.lens[lid];
        if len == ABSENT {
            return false;
        }
        let base = lid * self.stride;
        for &sig in &self.sigs[base..base + usize::from(len)] {
            out.push(sig);
        }
        self.lens[lid] = ABSENT;
        true
    }

    /// Drops the entry for `packed`, if any.
    pub fn clear(&mut self, packed: u32) {
        self.lens[packed as usize] = ABSENT;
    }

    /// Number of lines with a live entry (diagnostics).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.lens.iter().filter(|&&l| l != ABSENT).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::SignatureExtractor;
    use cable_common::LineData;

    fn sigs_of(line: &LineData) -> SignatureBuf {
        let mut buf = SignatureBuf::new();
        SignatureExtractor::new(7).insert_signatures_into(line, 2, &mut buf);
        buf
    }

    #[test]
    fn set_take_roundtrip() {
        let line = LineData::from_words(core::array::from_fn(|i| 0x0400_0000 + i as u32));
        let stored = sigs_of(&line);
        let mut cache = InsertSigCache::new(8, 2);
        cache.set(3, stored.as_slice());
        assert_eq!(cache.occupancy(), 1);

        let mut out = SignatureBuf::new();
        assert!(cache.take(3, &mut out));
        assert_eq!(out.as_slice(), stored.as_slice());
        // Entry is consumed.
        assert!(!cache.take(3, &mut out));
        assert!(out.is_empty());
        assert_eq!(cache.occupancy(), 0);
    }

    #[test]
    fn miss_leaves_out_empty() {
        let mut cache = InsertSigCache::new(4, 2);
        let mut out = sigs_of(&LineData::from_words(core::array::from_fn(|i| {
            0x0500_0000 + i as u32
        })));
        assert!(!out.is_empty());
        assert!(!cache.take(2, &mut out));
        assert!(out.is_empty());
    }

    #[test]
    fn set_overwrites_and_clear_drops() {
        let a = LineData::from_words(core::array::from_fn(|i| 0x0600_0000 + i as u32 * 3));
        let b = LineData::from_words(core::array::from_fn(|i| 0x0700_0000 + i as u32 * 5));
        let mut cache = InsertSigCache::new(4, 2);
        cache.set(1, sigs_of(&a).as_slice());
        cache.set(1, sigs_of(&b).as_slice());
        let mut out = SignatureBuf::new();
        assert!(cache.take(1, &mut out));
        assert_eq!(out.as_slice(), sigs_of(&b).as_slice());

        cache.set(1, sigs_of(&a).as_slice());
        cache.clear(1);
        assert!(!cache.take(1, &mut out));
    }
}
