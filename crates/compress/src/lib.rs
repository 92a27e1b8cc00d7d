//! Compression engines for the CABLE reproduction.
//!
//! CABLE is a *framework*, not an algorithm: "the actual compression
//! operation is delegated to existing compression algorithms such as CPACK,
//! LBE, or LZ77/gzip" (§II-B). This crate implements every engine the paper
//! evaluates:
//!
//! | Engine | Class (§VI-A) | Module |
//! |---|---|---|
//! | [`Cpack`] (per-line, 16×32b dict) | non-dictionary | [`cpack`] |
//! | [`Bdi`] | non-dictionary | [`bdi`] |
//! | [`Cpack`] streaming 128 B ("CPACK128") | small dictionary | [`cpack`] |
//! | [`Lbe`] streaming 256 B ("LBE256") | small dictionary | [`lbe`] |
//! | [`Lzss`] 32 KB window ("gzip") | big dictionary | [`lzss`] |
//! | [`Oracle`] | upper bound (Fig. 20) | [`oracle`] |
//!
//! Two usage modes exist:
//!
//! - **Streaming** ([`Compressor`]/[`Decompressor`]): the engine keeps a
//!   dictionary across lines of a link stream. Encoder and decoder are
//!   separate instances kept in lockstep, exactly like the two ends of a
//!   physical link.
//! - **Seeded** ([`SeededCompressor`]): CABLE "builds a temporary dictionary
//!   using the references to compress the requested data" (§III-E). Each
//!   call is independent; the dictionary is seeded from up to three 64-byte
//!   reference lines.
//!
//! All engines produce bit-exact payloads (via [`cable_common::BitWriter`])
//! and round-trip losslessly; compression ratios are measured on real
//! payload bits, not estimates.
//!
//! # Examples
//!
//! ```
//! use cable_compress::{Compressor, Decompressor, Cpack};
//! use cable_common::LineData;
//!
//! let mut enc = Cpack::per_line();
//! let mut dec = Cpack::per_line();
//! let line = LineData::splat_word(0xdead_beef);
//! let payload = enc.compress(&line);
//! assert!(payload.len_bits() < 512);
//! assert_eq!(dec.decompress(&payload).unwrap(), line);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod bdi;
pub mod cpack;
pub mod lbe;
pub mod lzss;
pub mod oracle;

#[cfg(test)]
mod test_lines;

pub use bdi::Bdi;
pub use cpack::{Cpack, IdealDictionary};
pub use lbe::Lbe;
pub use lzss::Lzss;
pub use oracle::Oracle;

use cable_common::{BitReader, BitWriter, LineData, LINE_BYTES};
use std::error::Error;
use std::fmt;

/// A compressed line payload: a bitstream plus its exact bit length.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Encoded {
    bits: BitWriter,
}

impl Encoded {
    /// Wraps a finished bitstream.
    #[must_use]
    pub fn new(bits: BitWriter) -> Self {
        Encoded { bits }
    }

    /// Empties the payload for a new coding, keeping its storage, and
    /// returns the writer to code into.
    pub(crate) fn restart(&mut self) -> &mut BitWriter {
        self.bits.clear();
        &mut self.bits
    }

    /// Exact payload size in bits.
    #[must_use]
    pub fn len_bits(&self) -> usize {
        self.bits.len_bits()
    }

    /// Backing bytes (final byte zero-padded).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        self.bits.as_slice()
    }

    /// A reader over the payload bits, in place.
    #[must_use]
    pub fn reader(&self) -> BitReader<'_> {
        self.bits.reader()
    }

    /// Compression ratio versus a raw 64-byte line
    /// (`uncompressed_size / compressed_size`, §VI-A).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        (LINE_BYTES * 8) as f64 / self.len_bits().max(1) as f64
    }
}

/// Broad classification of a [`DecodeError`]: what was wrong with the
/// bits themselves. Missing or stale references and a decoded line that
/// fails its end-to-end check are the receiver's to classify, not the
/// decoder's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeErrorKind {
    /// The payload ended before the decoder finished.
    Truncated,
    /// The payload parsed but encoded an impossible construct
    /// (out-of-range offset, over-long copy, unknown code).
    Malformed,
    /// A frame-level CRC over the wire bits failed.
    BadFrameCrc,
}

/// Error returned when a payload cannot be decoded.
///
/// In hardware this would be a protocol violation; in this model it
/// indicates either corruption or encoder/decoder dictionary divergence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError {
    kind: DecodeErrorKind,
    detail: String,
}

impl DecodeError {
    /// Creates an error with a human-readable detail message, classified as
    /// [`DecodeErrorKind::Malformed`].
    #[must_use]
    pub fn new(detail: impl Into<String>) -> Self {
        Self::with_kind(DecodeErrorKind::Malformed, detail)
    }

    /// Creates an error with an explicit classification.
    #[must_use]
    pub fn with_kind(kind: DecodeErrorKind, detail: impl Into<String>) -> Self {
        DecodeError {
            kind,
            detail: detail.into(),
        }
    }

    /// The broad failure classification.
    #[must_use]
    pub fn kind(&self) -> DecodeErrorKind {
        self.kind
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "payload decode failed: {}", self.detail)
    }
}

impl Error for DecodeError {}

/// A streaming line compressor: one end of a compressed link.
///
/// Implementations may keep dictionary state across calls; the matching
/// [`Decompressor`] instance must observe the same sequence of lines to stay
/// in lockstep.
pub trait Compressor {
    /// Short engine name as used in the paper's figures (e.g. `"CPACK128"`).
    fn name(&self) -> &'static str;

    /// Compresses one 64-byte line into `out`, replacing its payload and
    /// reusing its storage, and updates any streaming dictionary. A caller
    /// that keeps `out` allocates nothing once it has grown.
    fn compress_into(&mut self, line: &LineData, out: &mut Encoded);

    /// Compresses one 64-byte line into a payload of its own
    /// ([`Compressor::compress_into`]).
    fn compress(&mut self, line: &LineData) -> Encoded {
        let mut out = Encoded::default();
        self.compress_into(line, &mut out);
        out
    }

    /// Boxed deep copy including any streaming-dictionary state, so a
    /// warmed link can be snapshotted and resumed bit-identically.
    fn clone_box(&self) -> Box<dyn Compressor + Send>;
}

impl Clone for Box<dyn Compressor + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A streaming line decompressor: the other end of the link.
pub trait Decompressor {
    /// Decodes one payload, updating any streaming dictionary.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload is malformed or truncated.
    fn decompress(&mut self, payload: &Encoded) -> Result<LineData, DecodeError>;

    /// Boxed deep copy including any streaming-dictionary state.
    fn clone_box(&self) -> Box<dyn Decompressor + Send>;
}

impl Clone for Box<dyn Decompressor + Send> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// A stateless engine that compresses one line against a temporary
/// dictionary seeded from reference lines (CABLE's §III-E mode).
///
/// Engines implement the streaming pair
/// [`SeededCompressor::compress_seeded_into`] /
/// [`SeededCompressor::decompress_seeded_from`], which append to and read
/// from a frame in place; the [`Encoded`]-valued pair wraps them.
pub trait SeededCompressor {
    /// Short engine name (e.g. `CABLE+LBE` reports `"LBE"` here).
    fn name(&self) -> &'static str;

    /// Appends the coding of `line` against a dictionary built from `refs`
    /// (up to three 64-byte reference lines; may be empty for the unseeded
    /// fallback) to `out`.
    fn compress_seeded_into(&self, refs: &[LineData], line: &LineData, out: &mut BitWriter);

    /// Decodes one line from `r`'s current position, given the refs the
    /// encoder used; reads exactly the bits
    /// [`SeededCompressor::compress_seeded_into`] appended.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the coding is malformed or truncated.
    fn decompress_seeded_from(
        &self,
        refs: &[LineData],
        r: &mut BitReader<'_>,
    ) -> Result<LineData, DecodeError>;

    /// Compresses `line` against `refs` into a payload of its own.
    fn compress_seeded(&self, refs: &[LineData], line: &LineData) -> Encoded {
        let mut out = BitWriter::new();
        self.compress_seeded_into(refs, line, &mut out);
        Encoded::new(out)
    }

    /// Inverse of [`SeededCompressor::compress_seeded`] given identical refs.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload is malformed or truncated.
    fn decompress_seeded(
        &self,
        refs: &[LineData],
        payload: &Encoded,
    ) -> Result<LineData, DecodeError> {
        let mut r = payload.reader();
        self.decompress_seeded_from(refs, &mut r)
    }

    /// Boxed deep copy (seeded engines hold only configuration, but links
    /// snapshot them uniformly with the streaming engines).
    fn clone_box(&self) -> Box<dyn SeededCompressor + Send + Sync>;
}

impl Clone for Box<dyn SeededCompressor + Send + Sync> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Engine selection for CABLE's delegated compression step (Fig. 20).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum EngineKind {
    /// CPACK with a 128-byte temporary dictionary.
    Cpack128,
    /// LBE — the paper's best-performing engine (default).
    #[default]
    Lbe,
    /// LZSS ("gzip") seeded from the references.
    Lzss,
    /// Byte-granular oracle (upper bound).
    Oracle,
}

impl EngineKind {
    /// All engine kinds, in the order of Fig. 20.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Cpack128,
        EngineKind::Lbe,
        EngineKind::Lzss,
        EngineKind::Oracle,
    ];

    /// Instantiates the engine behind a trait object.
    #[must_use]
    pub fn build(self) -> Box<dyn SeededCompressor + Send + Sync> {
        match self {
            EngineKind::Cpack128 => Box::new(Cpack::seeded()),
            EngineKind::Lbe => Box::new(Lbe::seeded()),
            EngineKind::Lzss => Box::new(Lzss::seeded()),
            EngineKind::Oracle => Box::new(Oracle::new()),
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            EngineKind::Cpack128 => "CPACK128",
            EngineKind::Lbe => "LBE",
            EngineKind::Lzss => "gzip",
            EngineKind::Oracle => "ORACLE",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoded_ratio() {
        let mut bits = BitWriter::new();
        bits.write_bits(0, 32);
        let enc = Encoded::new(bits);
        assert_eq!(enc.len_bits(), 32);
        assert!((enc.ratio() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn decode_error_displays_detail() {
        let err = DecodeError::new("truncated");
        assert_eq!(err.to_string(), "payload decode failed: truncated");
    }

    #[test]
    fn engine_kinds_build_and_round_trip_unseeded() {
        for kind in EngineKind::ALL {
            let engine = kind.build();
            let line = LineData::splat_word(0x1234_5678);
            let payload = engine.compress_seeded(&[], &line);
            let back = engine.decompress_seeded(&[], &payload).unwrap();
            assert_eq!(back, line, "{kind} failed unseeded round trip");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        fn random_line() -> impl Strategy<Value = LineData> {
            proptest::array::uniform16(any::<u32>()).prop_map(LineData::from_words)
        }

        fn writer_of(bits: &[bool]) -> BitWriter {
            let mut w = BitWriter::new();
            for &b in bits {
                w.write_bit(b);
            }
            w
        }

        proptest! {
            /// For every engine, coding into a frame after an arbitrary
            /// prefix appends exactly the standalone payload's bits, and
            /// decoding from that offset returns the line and stops where
            /// the coding ends (an arbitrary suffix stays unread).
            #[test]
            fn prop_in_frame_coding_matches_the_standalone_payload(
                (refs, line) in prop_oneof![
                    (proptest::collection::vec(random_line(), 0..=3), random_line()),
                    crate::test_lines::family_case(),
                ],
                prefix in proptest::collection::vec(any::<bool>(), 0..80),
                suffix in proptest::collection::vec(any::<bool>(), 0..40),
            ) {
                for kind in EngineKind::ALL {
                    let engine = kind.build();
                    let mut framed = writer_of(&prefix);
                    engine.compress_seeded_into(&refs, &line, &mut framed);
                    let alone = engine.compress_seeded(&refs, &line);
                    let mut expect = writer_of(&prefix);
                    expect.append_bits(alone.as_bytes(), alone.len_bits());
                    prop_assert_eq!(&framed, &expect, "{}", kind);

                    let sw = writer_of(&suffix);
                    framed.append_bits(sw.as_slice(), sw.len_bits());
                    let mut r = BitReader::new(framed.as_slice(), framed.len_bits());
                    for &b in &prefix {
                        prop_assert_eq!(r.read_bit(), Some(b));
                    }
                    let back = engine.decompress_seeded_from(&refs, &mut r);
                    prop_assert_eq!(back, Ok(line), "{}", kind);
                    prop_assert_eq!(r.remaining_bits(), suffix.len(), "{}", kind);
                }
            }
        }
    }

    #[test]
    fn engine_kind_display_matches_paper_labels() {
        let labels: Vec<String> = EngineKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(labels, ["CPACK128", "LBE", "gzip", "ORACLE"]);
    }
}
