//! # CABLE: a CAche-Based Link Encoder for bandwidth-starved manycores
//!
//! This is the facade crate of a full reproduction of *CABLE* (Nguyen, Fuchs,
//! Wentzlaff — MICRO 2018). It re-exports every sub-crate of the workspace so
//! downstream users can depend on a single crate:
//!
//! - [`common`]: 64-byte [`common::LineData`], addresses, bitstreams.
//! - [`cache`]: set-associative caches, LineIDs and coherence states.
//! - [`compress`]: CPACK, BDI, LBE, LZSS ("gzip"), Oracle engines.
//! - [`core`]: the CABLE framework — signatures, hash table, Way-Map Table,
//!   search pipeline, DIFF codec, and the compressed link endpoints.
//! - [`sim`]: a manycore timing simulator (cores, links, DRAM, NUMA).
//! - [`trace`]: synthetic SPEC2006-like workload generators.
//! - [`energy`]: the paper's energy model and bit-toggle accounting.
//!
//! # Quickstart
//!
//! ```
//! use cable::core::{CableConfig, CableLink, Link};
//! use cable::common::LineData;
//!
//! // A home cache (e.g. off-chip L4) talking to a remote cache (on-chip LLC)
//! // over a 16-bit link, exactly the §VI-A memory-link configuration.
//! let mut link = CableLink::new(CableConfig::memory_link_default());
//!
//! // First transfer of a line: nothing similar is cached yet.
//! let a = LineData::from_words([0x1000, 0x2000, 0x3000, 0x4000,
//!                               5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16]);
//! let addr = cable::common::Address::new(0x4000);
//! let first = link.request(addr, a);
//!
//! // A similar line later compresses as a DIFF against the first one.
//! let mut b = a;
//! b.set_word(4, 0x99);
//! let second = link.request(cable::common::Address::new(0x8040), b);
//! assert!(second.wire_bits() <= first.wire_bits());
//! ```

#![forbid(unsafe_code)]

pub use cable_cache as cache;
pub use cable_common as common;
pub use cable_compress as compress;
pub use cable_core as core;
pub use cable_energy as energy;
pub use cable_sim as sim;
pub use cable_trace as trace;
