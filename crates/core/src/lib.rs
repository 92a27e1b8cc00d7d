//! The CABLE framework: cache-contents-as-dictionary link compression.
//!
//! This crate is the primary contribution of the reproduced paper, *CABLE:
//! A CAche-Based Link Encoder for Bandwidth-Starved Manycores* (MICRO
//! 2018). CABLE compresses a point-to-point link between two coherent
//! caches by re-purposing the data already stored in them as a massive,
//! scalable compression dictionary:
//!
//! 1. [`signature`] — 32-bit H3 signatures sampled from non-trivial words
//!    (§III-A), via [`h3`];
//! 2. [`hash_table`] — the signature → LineID search index (§III-B);
//! 3. [`search`] — pre-ranking and CBV greedy reference selection (§III-C);
//! 4. [`wmt`] — the Way-Map Table that shrinks reference pointers to 17–18
//!    bits (§III-D);
//! 5. [`codec`] — payload framing and flit-quantized wire accounting
//!    (§III-E);
//! 6. [`link`] — the [`Link`] interface every scheme implements and the
//!    [`CableLink`] endpoints tying it together, including synchronization
//!    (§III-F) and write-back compression (§III-G);
//! 7. [`channel`] — deterministic fault injection, CRC-guarded frames, and
//!    the NACK/retry recovery statistics. In fault mode a crate-private
//!    eviction buffer keeps each evicted remote line until the home
//!    acknowledges its EvictSeq, so a DIFF naming a just-evicted reference
//!    still decodes (§IV-A);
//! 8. [`baseline`] — the CPACK/BDI/CPACK128/LBE256/gzip comparison links;
//! 9. [`area`] — the Table III analytic area model.
//!
//! # Quickstart
//!
//! ```
//! use cable_core::{CableConfig, CableLink, Link};
//! use cable_common::{Address, LineData};
//!
//! let mut link = CableLink::new(CableConfig::memory_link_default());
//!
//! // First touch of a line: transferred in full, becomes dictionary state.
//! let a = LineData::from_words(core::array::from_fn(|i| 0x0400_0000 + 64 * i as u32));
//! link.request(Address::new(0x0000), a);
//!
//! // A similar line elsewhere now compresses as a DIFF + reference pointer.
//! let mut b = a;
//! b.set_word(7, 0x1234_5678);
//! let t = link.request(Address::new(0x9000), b);
//! assert!(t.wire_bits() < 513);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod baseline;
pub mod channel;
pub mod codec;
pub mod config;
mod evict_buffer;
pub mod h3;
pub mod hash_table;
pub mod link;
pub mod search;
pub mod signature;
pub mod wmt;

// The adversarial line families are shared with cable-compress's oracle
// tests; test-only items do not cross crates, so the file is included.
#[cfg(test)]
#[path = "../../compress/src/test_lines.rs"]
mod test_lines;

pub use baseline::{BaselineKind, BaselineLink};
pub use cable_compress::{DecodeError, DecodeErrorKind};
pub use channel::{FaultConfig, FaultStats, FaultyChannel, NoticeFate, ResyncReport, Transmission};
pub use config::CableConfig;
pub use link::{
    BatchAccess, BatchOp, CableLink, Direction, Link, LinkStats, Transfer, TransferKind,
};
pub use search::{Reference, SearchScratch};
pub use signature::{Signature, SignatureBuf, SignatureExtractor};
pub use wmt::WayMapTable;
