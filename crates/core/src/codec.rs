//! Payload framing and wire accounting (§III-E).
//!
//! "Payload overheads are minimal: a 1-bit flag is needed to denote whether
//! the data is compressed or uncompressed, 2 bits to specify the number of
//! references, which are followed by the RemoteLIDs and the variable-length
//! DIFF. The DIFF length is not needed because the decompressed data length
//! is fixed."
//!
//! Wire accounting quantizes payloads to link flits: on the default 16-bit
//! link a payload occupies `ceil(bits / 16)` beats, capping compression at
//! 32× (§VI-B footnote). The alternative *packed transport* of Fig. 23 adds
//! a 6-bit length field per transaction but shares flits between
//! transactions, removing the padding loss on wide links.

use crate::DecodeError;
use cable_common::{crc32, div_ceil, BitReader, BitWriter, Crc32, LineData, LINE_BYTES};
use cable_compress::{DecodeErrorKind, Encoded};

/// Integrity metadata appended to each guarded wire frame: a 32-bit
/// end-to-end CRC of the decoded line plus a 32-bit CRC of the frame bits
/// themselves. Only present when the link models an unreliable channel;
/// reliable-link accounting is unchanged.
pub const GUARD_BITS: usize = 64;

/// CRC-32 over the first `len_bits` bits of `bytes`: the bit length (as 8
/// little-endian bytes) is folded in first so truncations that land on a
/// byte boundary still change the checksum. Bits past `len_bits` in the
/// last byte read as zero, so a received frame is checked in place,
/// whatever follows the covered bits.
fn crc32_bits(bytes: &[u8], len_bits: usize) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&(len_bits as u64).to_le_bytes());
    let (whole, tail) = (len_bits / 8, len_bits % 8);
    crc.update(&bytes[..whole]);
    if tail > 0 {
        crc.update(&[bytes[whole] & !(0xff >> tail)]);
    }
    crc.finish()
}

/// A parsed incoming payload.
#[derive(Clone, Debug)]
pub enum ParsedPayload {
    /// Uncompressed 64-byte line.
    Raw(LineData),
    /// Compressed: packed wire LineIDs of the references plus the DIFF.
    Compressed {
        /// Packed RemoteLIDs (empty for the unseeded fallback).
        ref_lids: Vec<u64>,
        /// The variable-length DIFF bitstream.
        diff: Encoded,
    },
}

/// The head of a payload, read in place by [`PayloadCodec::read_head`]:
/// the reader is left at the start of the raw line or the DIFF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PayloadHead {
    /// Uncompressed: the 512 raw line bits follow.
    Raw,
    /// Compressed: the DIFF follows.
    Compressed {
        /// Packed RemoteLIDs; the first `count` are valid.
        lids: [u64; 3],
        /// Number of references (0 for the unseeded fallback).
        count: usize,
    },
}

/// Frames and parses CABLE payloads for a link of a given width.
#[derive(Clone, Copy, Debug)]
pub struct PayloadCodec {
    lid_bits: u32,
    link_width_bits: u32,
}

impl PayloadCodec {
    /// Creates a codec transmitting `lid_bits`-wide reference pointers over
    /// a `link_width_bits`-wide link.
    ///
    /// # Panics
    ///
    /// Panics if either width is zero or `lid_bits > 32`.
    #[must_use]
    pub fn new(lid_bits: u32, link_width_bits: u32) -> Self {
        assert!(lid_bits > 0 && lid_bits <= 32, "lid_bits must be 1..=32");
        assert!(link_width_bits > 0, "link width must be positive");
        PayloadCodec {
            lid_bits,
            link_width_bits,
        }
    }

    /// Reference-pointer width in bits.
    #[must_use]
    pub fn lid_bits(&self) -> u32 {
        self.lid_bits
    }

    /// Link width in bits.
    #[must_use]
    pub fn link_width_bits(&self) -> u32 {
        self.link_width_bits
    }

    /// Frames a compressed payload (`flag=1`, 2-bit count, RemoteLIDs,
    /// DIFF).
    ///
    /// # Panics
    ///
    /// Panics if more than 3 references are supplied or a packed LineID
    /// does not fit `lid_bits`.
    #[must_use]
    pub fn encode_compressed(&self, ref_lids: &[u64], diff: &Encoded) -> BitWriter {
        let mut w = BitWriter::new();
        self.write_compressed_head(ref_lids, &mut w);
        w.append_bits(diff.as_bytes(), diff.len_bits());
        w
    }

    /// Appends the head of a compressed payload (`flag=1`, 2-bit count,
    /// RemoteLIDs) to `out`; the engine then appends the DIFF after it.
    ///
    /// # Panics
    ///
    /// Panics if more than 3 references are supplied or a packed LineID
    /// does not fit `lid_bits`.
    pub fn write_compressed_head(&self, ref_lids: &[u64], out: &mut BitWriter) {
        assert!(ref_lids.len() <= 3, "at most 3 references (2-bit count)");
        // The flag bit, then the 2-bit count.
        out.write_bits(0b100 | ref_lids.len() as u64, 3);
        for &lid in ref_lids {
            assert!(
                lid < 1u64 << self.lid_bits,
                "packed LineID {lid} exceeds {} bits",
                self.lid_bits
            );
            out.write_bits(lid, self.lid_bits);
        }
    }

    /// Frames an uncompressed payload (`flag=0`, 512 raw bits).
    #[must_use]
    pub fn encode_raw(&self, line: &LineData) -> BitWriter {
        let mut w = BitWriter::new();
        self.write_raw(line, &mut w);
        w
    }

    /// Appends an uncompressed payload (`flag=0`, 512 raw bits) to `out`.
    pub fn write_raw(&self, line: &LineData, out: &mut BitWriter) {
        out.write_bit(false);
        out.write_bytes(line.as_bytes());
    }

    /// Reads a payload's head from `r`, leaving `r` at the raw line or the
    /// DIFF.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeErrorKind::Truncated`] if the head is cut short.
    pub fn read_head(&self, r: &mut BitReader<'_>) -> Result<PayloadHead, DecodeError> {
        let truncated = |what: &str| DecodeError::with_kind(DecodeErrorKind::Truncated, what);
        if !r.read_bit().ok_or_else(|| truncated("empty payload"))? {
            return Ok(PayloadHead::Raw);
        }
        let count = r
            .read_bits(2)
            .ok_or_else(|| truncated("truncated reference count"))? as usize;
        let mut lids = [0u64; 3];
        for lid in &mut lids[..count] {
            *lid = r
                .read_bits(self.lid_bits)
                .ok_or_else(|| truncated("truncated RemoteLID"))?;
        }
        Ok(PayloadHead::Compressed { lids, count })
    }

    /// Parses a payload produced by the encode methods.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the payload is truncated.
    pub fn parse(&self, bytes: &[u8], len_bits: usize) -> Result<ParsedPayload, DecodeError> {
        let truncated = |what: &str| DecodeError::with_kind(DecodeErrorKind::Truncated, what);
        let mut r = BitReader::try_new(bytes, len_bits)
            .ok_or_else(|| truncated("payload length exceeds delivered bytes"))?;
        match self.read_head(&mut r)? {
            PayloadHead::Raw => {
                let mut raw = [0u8; LINE_BYTES];
                // MSB-first stream order is big-endian byte order within
                // each 64-bit chunk.
                for chunk in raw.chunks_exact_mut(8) {
                    let v = r
                        .read_bits(64)
                        .ok_or_else(|| truncated("truncated raw line"))?;
                    chunk.copy_from_slice(&v.to_be_bytes());
                }
                Ok(ParsedPayload::Raw(LineData::from_bytes(raw)))
            }
            PayloadHead::Compressed { lids, count } => {
                let mut diff = BitWriter::new();
                diff.append_from_reader(&mut r);
                Ok(ParsedPayload::Compressed {
                    ref_lids: lids[..count].to_vec(),
                    diff: Encoded::new(diff),
                })
            }
        }
    }

    /// Wraps an already-framed payload (from [`PayloadCodec::encode_compressed`]
    /// or [`PayloadCodec::encode_raw`]) in a guarded wire frame:
    ///
    /// ```text
    /// payload bits ‖ line CRC-32 ‖ frame CRC-32
    /// ```
    ///
    /// The line CRC covers the 64 decoded bytes end-to-end (it catches
    /// reference divergence the frame CRC cannot see); the frame CRC covers
    /// the payload bits, the line CRC, and the frame's bit length.
    #[must_use]
    pub fn encode_guarded(&self, payload: &BitWriter, line: &LineData) -> BitWriter {
        let mut w = payload.clone();
        w.write_bits(u64::from(crc32(line.as_bytes())), 32);
        let frame_crc = crc32_bits(w.as_slice(), w.len_bits());
        w.write_bits(u64::from(frame_crc), 32);
        w
    }

    /// Verifies and unwraps a guarded frame, returning the parsed payload
    /// and the sender's end-to-end line CRC (to be checked against the
    /// decoded line).
    ///
    /// Never panics on arbitrary input: any truncation, length overrun, or
    /// corruption surfaces as a typed [`DecodeError`].
    ///
    /// # Errors
    ///
    /// [`DecodeErrorKind::Truncated`] if the frame is shorter than its
    /// mandatory fields or claims more bits than `bytes` holds;
    /// [`DecodeErrorKind::BadFrameCrc`] if the frame checksum fails; any
    /// [`PayloadCodec::parse`] error for a malformed (but checksum-valid)
    /// payload.
    pub fn parse_guarded(
        &self,
        bytes: &[u8],
        len_bits: usize,
    ) -> Result<(ParsedPayload, u32), DecodeError> {
        if len_bits <= GUARD_BITS {
            return Err(DecodeError::with_kind(
                DecodeErrorKind::Truncated,
                format!("guarded frame of {len_bits} bits lacks payload"),
            ));
        }
        if BitReader::try_new(bytes, len_bits).is_none() {
            return Err(DecodeError::with_kind(
                DecodeErrorKind::Truncated,
                "frame length exceeds delivered bytes",
            ));
        }
        // The two CRCs close the frame; everything is read in place.
        let crc_at = |bit: usize| {
            let mut r = BitReader::new(&bytes[bit / 8..], bit % 8 + 32);
            r.read_bits((bit % 8) as u32);
            r.read_bits(32).expect("sized by construction") as u32
        };
        let (payload_bits, body_bits) = (len_bits - GUARD_BITS, len_bits - 32);
        let line_crc = crc_at(payload_bits);
        if crc32_bits(bytes, body_bits) != crc_at(body_bits) {
            return Err(DecodeError::with_kind(
                DecodeErrorKind::BadFrameCrc,
                "frame CRC mismatch",
            ));
        }
        let parsed = self.parse(bytes, payload_bits)?;
        Ok((parsed, line_crc))
    }

    /// Wire cost in bits of a payload on this link: flit-quantized
    /// (`ceil(bits / width) * width`).
    #[must_use]
    pub fn wire_bits(&self, payload_bits: usize) -> u64 {
        div_ceil(payload_bits as u64, u64::from(self.link_width_bits))
            * u64::from(self.link_width_bits)
    }

    /// Wire cost under the packed transport of Fig. 23: a 6-bit
    /// length-in-bytes field is added and transactions share flits, so the
    /// cost is exact (byte-padded) rather than flit-padded.
    #[must_use]
    pub fn wire_bits_packed(&self, payload_bits: usize) -> u64 {
        6 + 8 * div_ceil(payload_bits as u64, 8)
    }

    /// Header bits of a compressed payload with `n_refs` references
    /// (everything except the DIFF itself).
    #[must_use]
    pub fn compressed_header_bits(&self, n_refs: usize) -> usize {
        1 + 2 + n_refs * self.lid_bits as usize
    }

    /// Payload bits of a raw (uncompressed) transfer.
    #[must_use]
    pub fn raw_payload_bits(&self) -> usize {
        1 + LINE_BYTES * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn codec() -> PayloadCodec {
        PayloadCodec::new(17, 16)
    }

    fn diff_of_bits(bits: &[bool]) -> Encoded {
        let mut w = BitWriter::new();
        for &b in bits {
            w.write_bit(b);
        }
        Encoded::new(w)
    }

    #[test]
    fn raw_round_trip() {
        let c = codec();
        let line = LineData::splat_word(0xabcd_ef01);
        let w = c.encode_raw(&line);
        assert_eq!(w.len_bits(), 513);
        match c.parse(w.as_slice(), w.len_bits()).unwrap() {
            ParsedPayload::Raw(back) => assert_eq!(back, line),
            other => panic!("expected raw, got {other:?}"),
        }
    }

    #[test]
    fn compressed_round_trip() {
        let c = codec();
        let diff = diff_of_bits(&[true, false, true, true, false]);
        let lids = [3u64, 0x1ffff, 42];
        let w = c.encode_compressed(&lids, &diff);
        assert_eq!(w.len_bits(), 1 + 2 + 3 * 17 + 5);
        match c.parse(w.as_slice(), w.len_bits()).unwrap() {
            ParsedPayload::Compressed { ref_lids, diff: d } => {
                assert_eq!(ref_lids, lids);
                assert_eq!(d.len_bits(), 5);
                assert_eq!(d, diff);
            }
            other => panic!("expected compressed, got {other:?}"),
        }
    }

    #[test]
    fn unseeded_payload_has_no_lids() {
        let c = codec();
        let diff = diff_of_bits(&[true; 30]);
        let w = c.encode_compressed(&[], &diff);
        assert_eq!(w.len_bits(), 33);
        match c.parse(w.as_slice(), w.len_bits()).unwrap() {
            ParsedPayload::Compressed { ref_lids, diff: d } => {
                assert!(ref_lids.is_empty());
                assert_eq!(d.len_bits(), 30);
            }
            other => panic!("expected compressed, got {other:?}"),
        }
    }

    #[test]
    fn wire_quantization_caps_compression_at_32x() {
        let c = codec();
        // Even a 1-bit payload costs one 16-bit flit: 512/16 = 32x max.
        assert_eq!(c.wire_bits(1), 16);
        assert_eq!(c.wire_bits(16), 16);
        assert_eq!(c.wire_bits(17), 32);
        assert_eq!(c.wire_bits(513), 528);
        assert_eq!((LINE_BYTES * 8) as u64 / c.wire_bits(1), 32);
    }

    #[test]
    fn packed_transport_avoids_flit_padding() {
        let wide = PayloadCodec::new(17, 64);
        // A 33-bit payload wastes 31 bits on a 64-bit link...
        assert_eq!(wide.wire_bits(33), 64);
        // ...but only the 6-bit header + byte padding when packed.
        assert_eq!(wide.wire_bits_packed(33), 6 + 40);
    }

    #[test]
    fn empty_payload_is_error() {
        assert!(codec().parse(&[], 0).is_err());
    }

    #[test]
    fn truncated_lid_is_error() {
        let c = codec();
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bits(2, 2); // claims 2 refs, provides none
        assert!(c.parse(w.as_slice(), w.len_bits()).is_err());
    }

    #[test]
    #[should_panic(expected = "at most 3 references")]
    fn too_many_refs_panics() {
        let c = codec();
        let diff = diff_of_bits(&[]);
        let _ = c.encode_compressed(&[0, 1, 2, 3], &diff);
    }

    #[test]
    fn guarded_round_trip_preserves_payload_and_line_crc() {
        let c = codec();
        let line = LineData::splat_word(0x0bad_cafe);
        let framed = c.encode_guarded(&c.encode_raw(&line), &line);
        assert_eq!(framed.len_bits(), 513 + GUARD_BITS);
        let (parsed, line_crc) = c
            .parse_guarded(framed.as_slice(), framed.len_bits())
            .unwrap();
        assert_eq!(line_crc, crc32(line.as_bytes()));
        match parsed {
            ParsedPayload::Raw(back) => assert_eq!(back, line),
            other => panic!("expected raw, got {other:?}"),
        }
    }

    #[test]
    fn guarded_frame_too_short_is_truncated() {
        let c = codec();
        let err = c.parse_guarded(&[0u8; 8], GUARD_BITS).unwrap_err();
        assert_eq!(err.kind(), cable_compress::DecodeErrorKind::Truncated);
        let err = c.parse_guarded(&[0u8; 2], 200).unwrap_err();
        assert_eq!(err.kind(), cable_compress::DecodeErrorKind::Truncated);
    }

    #[test]
    fn parse_is_fallible_on_oversized_length_claim() {
        // A length claim beyond the delivered bytes must error, not panic.
        let err = codec().parse(&[0x00], 600).unwrap_err();
        assert_eq!(err.kind(), cable_compress::DecodeErrorKind::Truncated);
    }

    proptest! {
        #[test]
        fn prop_compressed_round_trip(
            lids in proptest::collection::vec(0u64..(1 << 17), 0..4),
            bits in proptest::collection::vec(any::<bool>(), 0..600),
        ) {
            let c = codec();
            let diff = diff_of_bits(&bits);
            let w = c.encode_compressed(&lids, &diff);
            prop_assert_eq!(
                w.len_bits(),
                c.compressed_header_bits(lids.len()) + bits.len()
            );
            match c.parse(w.as_slice(), w.len_bits()).unwrap() {
                ParsedPayload::Compressed { ref_lids, diff: d } => {
                    prop_assert_eq!(ref_lids, lids);
                    prop_assert_eq!(d.len_bits(), bits.len());
                }
                _ => prop_assert!(false, "expected compressed"),
            }
        }

        /// `read_head` returns the head the encoder wrote and leaves the
        /// reader exactly at the DIFF (or the raw line).
        #[test]
        fn prop_read_head_stops_at_the_payload_body(
            lids in proptest::collection::vec(0u64..(1 << 17), 0..4),
            bits in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let c = codec();
            let w = c.encode_compressed(&lids, &diff_of_bits(&bits));
            let mut r = w.reader();
            let PayloadHead::Compressed { lids: got, count } = c.read_head(&mut r).unwrap() else {
                panic!("compressed payload read as raw");
            };
            prop_assert_eq!(&got[..count], &lids[..]);
            prop_assert_eq!(r.remaining_bits(), bits.len());
            let raw = c.encode_raw(&LineData::splat_word(bits.len() as u32));
            let mut r = raw.reader();
            prop_assert_eq!(c.read_head(&mut r), Ok(PayloadHead::Raw));
            prop_assert_eq!(r.remaining_bits(), LINE_BYTES * 8);
        }

        /// Any single-bit corruption of a guarded frame is detected: the
        /// flip lands in the payload, the line CRC, or the frame CRC, and
        /// in every case the frame checksum no longer matches.
        #[test]
        fn prop_guarded_detects_any_single_bit_flip(
            lids in proptest::collection::vec(0u64..(1 << 17), 0..4),
            bits in proptest::collection::vec(any::<bool>(), 0..200),
            flip_seed in any::<u64>(),
        ) {
            let c = codec();
            let line = LineData::splat_word(0x5a5a_5a5a);
            let framed = c.encode_guarded(&c.encode_compressed(&lids, &diff_of_bits(&bits)), &line);
            let flip_at = (flip_seed % framed.len_bits() as u64) as usize;
            let mut corrupted = framed.as_slice().to_vec();
            corrupted[flip_at / 8] ^= 0x80 >> (flip_at % 8);
            prop_assert!(c.parse_guarded(&corrupted, framed.len_bits()).is_err());
        }

        /// Guarded frames of every payload length (so every bit offset of
        /// the CRC fields within a byte) round-trip, and bits past the
        /// frame in its last byte are ignored. The frame CRC is pinned to
        /// its definition: the CRC of the bit length and the zero-padded
        /// body (payload ‖ line CRC), rebuilt here one bit at a time.
        #[test]
        fn prop_guarded_round_trip_at_every_length(
            lids in proptest::collection::vec(0u64..(1 << 17), 0..4),
            bits in proptest::collection::vec(any::<bool>(), 0..200),
        ) {
            let c = codec();
            let line = LineData::splat_word(bits.len() as u32);
            let payload = c.encode_compressed(&lids, &diff_of_bits(&bits));
            let framed = c.encode_guarded(&payload, &line);
            let body_bits = payload.len_bits() + 32;
            let mut body = vec![0u8; body_bits.div_ceil(8)];
            let mut r = framed.reader();
            for i in 0..body_bits {
                if r.read_bit().unwrap() {
                    body[i / 8] |= 0x80 >> (i % 8);
                }
            }
            let mut crc = Crc32::new();
            crc.update(&(body_bits as u64).to_le_bytes());
            crc.update(&body);
            prop_assert_eq!(r.read_bits(32), Some(u64::from(crc.finish())));

            let mut bytes = framed.as_slice().to_vec();
            let tail = framed.len_bits() % 8;
            if tail > 0 {
                *bytes.last_mut().unwrap() |= 0xff >> tail;
            }
            let (parsed, line_crc) = c.parse_guarded(&bytes, framed.len_bits()).unwrap();
            prop_assert_eq!(line_crc, crc32(line.as_bytes()));
            let ParsedPayload::Compressed { ref_lids, diff } = parsed else {
                panic!("compressed payload parsed as raw");
            };
            prop_assert_eq!(ref_lids, lids);
            prop_assert_eq!(diff, diff_of_bits(&bits));
        }

        /// Truncating a guarded frame anywhere is detected.
        #[test]
        fn prop_guarded_detects_truncation(
            bits in proptest::collection::vec(any::<bool>(), 0..200),
            cut_seed in any::<u64>(),
        ) {
            let c = codec();
            let line = LineData::splat_word(7);
            let framed = c.encode_guarded(&c.encode_compressed(&[], &diff_of_bits(&bits)), &line);
            let cut = 1 + (cut_seed % (framed.len_bits() as u64 - 1)) as usize;
            prop_assert!(c.parse_guarded(framed.as_slice(), cut).is_err());
        }

        /// A seeded LBE or CPACK diff of an adversarial line survives the
        /// full fault-mode framing (payload header + line CRC + frame CRC):
        /// it parses back, decodes to the exact line, and the line CRC
        /// covers the decoded bytes.
        #[test]
        fn prop_seeded_diff_survives_guarded_frame(
            (refs, line) in crate::test_lines::family_case(),
        ) {
            use cable_compress::{Cpack, Lbe, SeededCompressor};
            let c = PayloadCodec::new(10, 16);
            let engines: [&dyn SeededCompressor; 2] = [&Lbe::seeded(), &Cpack::seeded()];
            for engine in engines {
                let diff = engine.compress_seeded(&refs, &line);
                let framed = c.encode_compressed(&[0, 1, 2], &diff);
                let guarded = c.encode_guarded(&framed, &line);
                let (parsed, line_crc) = c
                    .parse_guarded(guarded.as_slice(), guarded.len_bits())
                    .expect("self-produced frame verifies");
                let ParsedPayload::Compressed { ref_lids, diff } = parsed else {
                    panic!("{}: compressed payload parsed as raw", engine.name());
                };
                prop_assert_eq!(ref_lids, vec![0, 1, 2]);
                prop_assert_eq!(engine.decompress_seeded(&refs, &diff).unwrap(), line);
                prop_assert_eq!(line_crc, crc32(line.as_bytes()));
            }
        }

        /// Random byte soup never panics the parser — it errors or parses.
        #[test]
        fn prop_byte_soup_never_panics(
            soup in proptest::collection::vec(any::<u8>(), 0..96),
            len_bits in 0usize..800,
        ) {
            let c = codec();
            let _ = c.parse(&soup, len_bits);
            let _ = c.parse_guarded(&soup, len_bits);
        }

        #[test]
        fn prop_wire_bits_monotone(a in 0usize..2000, b in 0usize..2000, width in 1u32..129) {
            let c = PayloadCodec::new(17, width);
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(c.wire_bits(lo) <= c.wire_bits(hi));
            prop_assert!(c.wire_bits(hi) >= hi as u64);
            prop_assert!(c.wire_bits(hi) < hi as u64 + u64::from(width));
        }
    }
}
