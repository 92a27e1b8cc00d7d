//! The Way-Map Table (WMT, §III-D).
//!
//! Cache tags could serve as reference pointers, but at ~40 bits they are
//! expensive. The WMT lets the home cache translate a *HomeLID* into the
//! much shorter *RemoteLID* (17–18 bits): it "mirrors the layout of the
//! remote cache such that a tag hit in the WMT indicates the index and way
//! of the remote cache", while the entries themselves are *normalized*
//! HomeLIDs (`alias + home way`, where alias is the home index minus the
//! remote index bits) — 4 bits per entry in the paper's off-chip
//! configuration.
//!
//! The WMT also gives the home cache precise knowledge of remote residency:
//! when a fill displaces a remote way, the overwritten WMT entry names the
//! home line whose signatures must be invalidated (§III-F), and for
//! write-back compression it translates the remote cache's own LineIDs back
//! into HomeLIDs (§III-G).

use cable_cache::{CacheGeometry, LineId};
use std::fmt;

/// A normalized HomeLID as stored in a WMT entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Normalized {
    alias: u32,
    home_way: u8,
}

/// The Way-Map Table of one home cache tracking one remote cache.
///
/// # Examples
///
/// ```
/// use cable_cache::{CacheGeometry, LineId};
/// use cable_core::wmt::WayMapTable;
///
/// let home = CacheGeometry::new(16 << 20, 8);
/// let remote = CacheGeometry::new(8 << 20, 8);
/// let mut wmt = WayMapTable::new(home, remote);
/// assert_eq!(wmt.entry_bits(), 4); // 1 alias bit + 3 way bits (§IV-D)
///
/// // A line homed at (set 20000, way 5) installed remotely at (set 3616, way 2):
/// let home_lid = LineId::new(20_000, 5);
/// let remote_lid = LineId::new(20_000 % 16_384, 2);
/// wmt.update(remote_lid, home_lid);
/// assert_eq!(wmt.remote_lid_of(home_lid), Some(remote_lid));
/// assert_eq!(wmt.home_lid_of(remote_lid), Some(home_lid));
/// ```
pub struct WayMapTable {
    home: CacheGeometry,
    remote: CacheGeometry,
    entries: Vec<Option<Normalized>>,
}

impl Clone for WayMapTable {
    fn clone(&self) -> Self {
        WayMapTable {
            home: self.home,
            remote: self.remote,
            entries: self.entries.clone(),
        }
    }

    /// Reuses this table's entry storage (see `SetAssocCache::clone_from`).
    fn clone_from(&mut self, source: &Self) {
        let WayMapTable {
            home,
            remote,
            entries,
        } = self;
        *home = source.home;
        *remote = source.remote;
        entries.clone_from(&source.entries);
    }
}

impl WayMapTable {
    /// Creates an empty WMT for a `home` cache tracking a `remote` cache.
    ///
    /// # Panics
    ///
    /// Panics if the home cache has fewer sets than the remote cache (the
    /// alias construction requires `home_sets >= remote_sets`).
    #[must_use]
    pub fn new(home: CacheGeometry, remote: CacheGeometry) -> Self {
        assert!(
            home.sets() >= remote.sets(),
            "home cache must have at least as many sets as the remote cache"
        );
        WayMapTable {
            home,
            remote,
            entries: vec![None; (remote.sets() * u64::from(remote.ways())) as usize],
        }
    }

    /// The remote geometry this WMT mirrors.
    #[must_use]
    pub fn remote_geometry(&self) -> &CacheGeometry {
        &self.remote
    }

    fn slot(&self, remote_lid: LineId) -> usize {
        remote_lid.index() as usize * self.remote.ways() as usize + remote_lid.way() as usize
    }

    /// Splits a HomeLID into its remote set index (the low
    /// `remote.index_bits()` bits of the home index) and its normalized
    /// entry (the alias above them, plus the home way).
    fn normalize(&self, home_lid: LineId) -> (u64, Normalized) {
        let index = u64::from(home_lid.index());
        (
            index & (self.remote.sets() - 1),
            Normalized {
                alias: (index >> self.remote.index_bits()) as u32,
                home_way: home_lid.way(),
            },
        )
    }

    fn denormalize(&self, remote_index: u64, n: Normalized) -> LineId {
        let home_index = (u64::from(n.alias) << self.remote.index_bits()) | remote_index;
        LineId::new(home_index as u32, n.home_way)
    }

    /// Records that the remote slot `remote_lid` now holds the line homed at
    /// `home_lid`. Returns the HomeLID of the line the slot previously
    /// tracked, if any — the displaced line whose hash-table signatures must
    /// be invalidated (§III-F).
    ///
    /// # Panics
    ///
    /// Panics if `home_lid` does not map to `remote_lid`'s set (home and
    /// remote indices of the same address always agree in their low bits).
    pub fn update(&mut self, remote_lid: LineId, home_lid: LineId) -> Option<LineId> {
        let (remote_index, normalized) = self.normalize(home_lid);
        assert_eq!(
            remote_index,
            u64::from(remote_lid.index()),
            "home line {home_lid:?} cannot reside in remote set {}",
            remote_lid.index()
        );
        let slot = self.slot(remote_lid);
        let old = self.entries[slot];
        self.entries[slot] = Some(normalized);
        old.map(|n| self.denormalize(remote_index, n))
    }

    /// Clears the WMT entry for `remote_lid` (snoop invalidation or
    /// back-invalidation), returning the HomeLID it tracked.
    pub fn invalidate(&mut self, remote_lid: LineId) -> Option<LineId> {
        let slot = self.slot(remote_lid);
        self.entries[slot]
            .take()
            .map(|n| self.denormalize(u64::from(remote_lid.index()), n))
    }

    /// The §III-D lookup: is the line at `home_lid` present in the remote
    /// cache, and at which RemoteLID? "If not found, the line is not
    /// guaranteed to exist in the remote cache."
    #[must_use]
    pub fn remote_lid_of(&self, home_lid: LineId) -> Option<LineId> {
        let (remote_index, normalized) = self.normalize(home_lid);
        let ways = self.remote.ways() as usize;
        let base = remote_index as usize * ways;
        self.entries[base..base + ways]
            .iter()
            .position(|&e| e == Some(normalized))
            .map(|way| LineId::new(remote_index as u32, way as u8))
    }

    /// The §III-G reverse translation for write-back compression: the
    /// HomeLID stored for a remote slot.
    #[must_use]
    pub fn home_lid_of(&self, remote_lid: LineId) -> Option<LineId> {
        let n = self.entries[self.slot(remote_lid)]?;
        Some(self.denormalize(u64::from(remote_lid.index()), n))
    }

    /// Iterates every valid mapping as `(remote_lid, home_lid)` pairs — the
    /// resync audit walks this to find mappings that outlived their lines.
    pub fn iter_mapped(&self) -> impl Iterator<Item = (LineId, LineId)> + '_ {
        self.entries
            .chunks_exact(self.remote.ways() as usize)
            .enumerate()
            .flat_map(move |(index, set)| {
                set.iter().enumerate().filter_map(move |(way, e)| {
                    e.map(|n| {
                        let remote_lid = LineId::new(index as u32, way as u8);
                        (remote_lid, self.denormalize(index as u64, n))
                    })
                })
            })
    }

    /// Bits per WMT entry: `alias + home way` (§IV-D: 4 bits for the
    /// off-chip configuration).
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        let alias_bits = self.home.index_bits() - self.remote.index_bits();
        alias_bits + self.home.way_bits()
    }

    /// Total WMT storage in bits (the Table III area input).
    #[must_use]
    pub fn storage_bits(&self) -> u64 {
        self.entries.len() as u64 * u64::from(self.entry_bits())
    }

    /// Number of valid entries (tests and occupancy studies).
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

impl fmt::Debug for WayMapTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "WayMapTable({} entries x {} bits, {} valid)",
            self.entries.len(),
            self.entry_bits(),
            self.occupancy()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn paper_wmt() -> WayMapTable {
        WayMapTable::new(
            CacheGeometry::new(16 << 20, 8),
            CacheGeometry::new(8 << 20, 8),
        )
    }

    #[test]
    fn paper_entry_width_and_overhead() {
        let wmt = paper_wmt();
        assert_eq!(wmt.entry_bits(), 4);
        // §IV-D: "the storage overhead is 0.4% at the home cache".
        let overhead = wmt.storage_bits() as f64 / ((16u64 << 20) * 8) as f64;
        assert!((overhead - 0.004).abs() < 0.0005, "overhead {overhead}");
    }

    #[test]
    fn update_lookup_round_trip() {
        let mut wmt = paper_wmt();
        let home_lid = LineId::new(30_000, 7);
        let remote_lid = LineId::new(30_000 % 16_384, 1);
        assert_eq!(wmt.update(remote_lid, home_lid), None);
        assert_eq!(wmt.remote_lid_of(home_lid), Some(remote_lid));
        assert_eq!(wmt.home_lid_of(remote_lid), Some(home_lid));
    }

    #[test]
    fn displacement_returns_previous_home_lid() {
        let mut wmt = paper_wmt();
        let remote_lid = LineId::new(100, 3);
        let first = LineId::new(100, 2); // alias 0
        let second = LineId::new(100 + 16_384, 5); // alias 1, same remote set
        wmt.update(remote_lid, first);
        let displaced = wmt.update(remote_lid, second);
        assert_eq!(displaced, Some(first));
        assert_eq!(wmt.remote_lid_of(first), None, "displaced line unmapped");
        assert_eq!(wmt.remote_lid_of(second), Some(remote_lid));
    }

    #[test]
    fn invalidate_clears_entry() {
        let mut wmt = paper_wmt();
        let remote_lid = LineId::new(5, 0);
        let home_lid = LineId::new(5, 4);
        wmt.update(remote_lid, home_lid);
        assert_eq!(wmt.invalidate(remote_lid), Some(home_lid));
        assert_eq!(wmt.remote_lid_of(home_lid), None);
        assert_eq!(wmt.invalidate(remote_lid), None);
        assert_eq!(wmt.occupancy(), 0);
    }

    #[test]
    fn miss_is_not_guaranteed_present() {
        let wmt = paper_wmt();
        assert_eq!(wmt.remote_lid_of(LineId::new(1234, 0)), None);
        assert_eq!(wmt.home_lid_of(LineId::new(1234, 0)), None);
    }

    #[test]
    #[should_panic(expected = "cannot reside")]
    fn mismatched_set_rejected() {
        let mut wmt = paper_wmt();
        // Home index 5 can only live in remote set 5.
        wmt.update(LineId::new(6, 0), LineId::new(5, 0));
    }

    #[test]
    fn multichip_wmt_width() {
        // Coherence use case: equal-size LLCs on two chips (§IV-D's 0.58%
        // per-WMT figure uses an 8MB LLC pair: 0 alias bits + 3 way bits).
        let llc = CacheGeometry::new(8 << 20, 8);
        let wmt = WayMapTable::new(llc, llc);
        assert_eq!(wmt.entry_bits(), 3);
        let overhead = wmt.storage_bits() as f64 / ((8u64 << 20) * 8) as f64;
        assert!(overhead < 0.006, "overhead {overhead}");
    }

    #[test]
    fn iter_mapped_enumerates_valid_pairs() {
        let mut wmt = paper_wmt();
        let pairs = [
            (LineId::new(10, 0), LineId::new(10, 3)),
            (LineId::new(20, 5), LineId::new(20 + 16_384, 1)),
        ];
        for &(rlid, hlid) in &pairs {
            wmt.update(rlid, hlid);
        }
        let mut seen: Vec<(LineId, LineId)> = wmt.iter_mapped().collect();
        seen.sort_by_key(|(r, _)| (r.index(), r.way()));
        assert_eq!(seen, pairs);
    }

    proptest! {
        #[test]
        fn prop_round_trip(
            home_index in 0u32..32_768,
            home_way in 0u8..8,
            remote_way in 0u8..8,
        ) {
            let mut wmt = paper_wmt();
            let home_lid = LineId::new(home_index, home_way);
            let remote_lid = LineId::new(home_index % 16_384, remote_way);
            wmt.update(remote_lid, home_lid);
            prop_assert_eq!(wmt.remote_lid_of(home_lid), Some(remote_lid));
            prop_assert_eq!(wmt.home_lid_of(remote_lid), Some(home_lid));
        }
    }
}
