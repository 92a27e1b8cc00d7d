//! Set-associative cache models for the CABLE reproduction.
//!
//! CABLE compresses the link between two *coherent caches*: a large **home**
//! cache (e.g. an off-chip L4 / DRAM buffer, or a remote chip's LLC) and a
//! smaller **remote** cache (e.g. the on-chip LLC) that the home cache is
//! inclusive of (§II-C). This crate provides:
//!
//! - [`CacheGeometry`]: capacity/associativity arithmetic, index and LineID
//!   bit widths.
//! - [`LineId`]: the `index + way` coordinate CABLE uses as a compression
//!   pointer (17–18 bits instead of a 40-bit tag, §III-D).
//! - [`SetAssocCache`]: an LRU set-associative cache with MESI-lite states,
//!   replacement-way reporting (the UltraSPARC T1/T2-style request hint the
//!   paper relies on, §II-C) and tag-check-free data-array reads (the search
//!   pipeline reads candidates "directly without tag checks", §III-C).
//!
//! The link models in `cable-core` each hold their own home and remote
//! [`SetAssocCache`] and keep inclusion themselves, since every scheme
//! reacts to an eviction differently (CABLE's hash tables and Way-Map
//! Table, a baseline's plain back-invalidation).
//!
//! # Examples
//!
//! ```
//! use cable_cache::{CacheGeometry, CoherenceState, SetAssocCache};
//! use cable_common::{Address, LineData};
//!
//! let mut llc = SetAssocCache::new(CacheGeometry::new(1 << 20, 8));
//! let addr = Address::new(0x4000);
//! let outcome = llc.insert(addr, LineData::splat_word(7), CoherenceState::Shared);
//! assert!(outcome.evicted.is_none());
//! assert_eq!(llc.lookup(addr), Some(outcome.line_id));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod geometry;
pub mod set_assoc;

pub use geometry::{CacheGeometry, LineId};
pub use set_assoc::{CoherenceState, EvictedLine, InsertOutcome, SetAssocCache};
