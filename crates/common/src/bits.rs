//! Bit-granular serialization for compressed payloads.
//!
//! CABLE payloads are not byte-aligned: a CPACK `zzzz` code is 2 bits, a
//! RemoteLID is 17 bits, the compressed/uncompressed flag is a single bit
//! (§III-E). [`BitWriter`] and [`BitReader`] provide an MSB-first bitstream
//! so codecs can measure and round-trip payloads at bit precision.
//!
//! Both work a machine word at a time. The writer keeps a copy of the
//! 8-byte word it is filling, ORs each field into it and stores the whole
//! word back big-endian (a store, never a load from the buffer, so
//! consecutive writes do not wait on each other, and storage past the
//! written bits never needs clearing). A read is one 8-byte window,
//! byte-wise only within the last 7 bytes of the buffer, plus a ninth
//! byte when a field straddles the window (more than 56 bits at an
//! unaligned position).

use std::fmt;

/// Loads up to 8 bytes of `bytes` starting at `at`, big-endian, zero
/// filling past the end of the slice.
#[inline]
fn load_be(bytes: &[u8], at: usize) -> u64 {
    match bytes.get(at..at + 8) {
        Some(w) => u64::from_be_bytes(w.try_into().expect("8-byte window")),
        None => bytes
            .get(at..)
            .unwrap_or(&[])
            .iter()
            .enumerate()
            .fold(0, |w, (i, &b)| w | u64::from(b) << (56 - 8 * i)),
    }
}

/// An append-only, MSB-first bit sink.
///
/// # Examples
///
/// ```
/// use cable_common::{BitReader, BitWriter};
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xdead_beef, 32);
/// let len = w.len_bits();
/// let mut r = BitReader::new(w.as_slice(), len);
/// assert_eq!(r.read_bits(3), Some(0b101));
/// assert_eq!(r.read_bits(32), Some(0xdead_beef));
/// assert_eq!(r.read_bits(1), None);
/// ```
#[derive(Clone, Default)]
pub struct BitWriter {
    /// Storage. It runs past the written bytes (slack for whole-word
    /// stores, kept across [`BitWriter::clear`]); what lies past
    /// `len_bits` is never read back as written bits.
    bytes: Vec<u8>,
    /// Number of bits written.
    len_bits: usize,
    /// Byte index of the word being filled: `len_bits - 8 * word_at` is
    /// always below 64.
    word_at: usize,
    /// That word's written bits, zero past `len_bits`; it is stored whole
    /// at `bytes[word_at..word_at + 8]` after each write.
    word: u64,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the writer, keeping its storage for reuse.
    pub fn clear(&mut self) {
        self.len_bits = 0;
        self.word_at = 0;
        self.word = 0;
    }

    /// Stores the current word, growing the storage if needed.
    #[inline]
    fn store_word(&mut self) {
        if self.bytes.len() < self.word_at + 8 {
            self.grow(self.word_at + 8);
        }
        let slot = self.bytes[self.word_at..]
            .first_chunk_mut::<8>()
            .expect("storage grown past the word");
        *slot = self.word.to_be_bytes();
    }

    /// Extends the storage to at least `len` bytes, doubling it.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, len: usize) {
        let len = len.max(2 * self.bytes.len()).max(32);
        self.bytes.resize(len, 0);
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count == 0 {
            return;
        }
        // Mask to the low `count` bits so stray high bits cannot leak in.
        let value = value & (u64::MAX >> (64 - count));
        let free = 64 - (self.len_bits - 8 * self.word_at) as u32;
        self.len_bits += count as usize;
        if count < free {
            self.word |= value << (free - count);
        } else {
            // Fill the current word; the rest starts the next one.
            let rest = count - free;
            self.word |= value >> rest;
            self.store_word();
            self.word_at += 8;
            self.word = value.checked_shl(64 - rest).unwrap_or(0);
        }
        self.store_word();
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends the first `len_bits` bits of `bytes` (an MSB-first bitstream,
    /// e.g. another writer's backing store).
    ///
    /// # Panics
    ///
    /// Panics if `len_bits` exceeds the capacity of `bytes`.
    pub fn append_bits(&mut self, bytes: &[u8], len_bits: usize) {
        let mut r = BitReader::new(bytes, len_bits);
        self.append_from_reader(&mut r);
    }

    /// Drains every remaining bit of `r` into this writer, 64 bits per step.
    pub fn append_from_reader(&mut self, r: &mut BitReader<'_>) {
        loop {
            let take = r.remaining_bits().min(64) as u32;
            if take == 0 {
                return;
            }
            let chunk = r.read_bits(take).expect("sized by remaining_bits");
            self.write_bits(chunk, take);
        }
    }

    /// Appends whole bytes (8 bits each).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        if self.len_bits.is_multiple_of(8) {
            // Aligned bytes copy in; the word being filled restarts,
            // empty, at the new end.
            let at = self.len_bits / 8;
            let end = at + bytes.len();
            if self.bytes.len() < end {
                self.grow(end);
            }
            self.bytes[at..end].copy_from_slice(bytes);
            self.len_bits += bytes.len() * 8;
            self.word_at = end;
            self.word = 0;
        } else {
            let mut chunks = bytes.chunks_exact(8);
            for chunk in &mut chunks {
                self.write_bits(load_be(chunk, 0), 64);
            }
            for &b in chunks.remainder() {
                self.write_bits(u64::from(b), 8);
            }
        }
    }

    /// Total number of bits written.
    #[must_use]
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// True if no bits have been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// The written bytes, `⌈len_bits / 8⌉` of them; the last byte is
    /// zero-padded in its low bits.
    #[must_use]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len_bits.div_ceil(8)]
    }

    /// A reader over the written bits. It reads the storage in place,
    /// slack included, so reads near the end still take whole words.
    #[must_use]
    pub fn reader(&self) -> BitReader<'_> {
        BitReader::new(&self.bytes, self.len_bits)
    }

    /// Consumes the writer, returning the written bytes (as
    /// [`BitWriter::as_slice`]).
    #[must_use]
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.bytes.truncate(self.len_bits.div_ceil(8));
        self.bytes
    }
}

/// Writers are equal when they hold the same bits, whatever their storage.
impl PartialEq for BitWriter {
    fn eq(&self, other: &Self) -> bool {
        self.len_bits == other.len_bits && self.as_slice() == other.as_slice()
    }
}

impl Eq for BitWriter {}

impl fmt::Debug for BitWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitWriter({} bits)", self.len_bits)
    }
}

/// An MSB-first bit source over a byte slice.
///
/// See [`BitWriter`] for a round-trip example.
#[derive(Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    len_bits: usize,
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes` containing `len_bits` valid bits.
    ///
    /// # Panics
    ///
    /// Panics if `len_bits` exceeds the capacity of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8], len_bits: usize) -> Self {
        Self::try_new(bytes, len_bits).unwrap_or_else(|| {
            panic!(
                "len_bits {} exceeds byte capacity {}",
                len_bits,
                bytes.len() * 8
            )
        })
    }

    /// Fallible variant of [`BitReader::new`] for untrusted wire input:
    /// returns `None` instead of panicking when `len_bits` exceeds the
    /// capacity of `bytes`.
    #[must_use]
    pub fn try_new(bytes: &'a [u8], len_bits: usize) -> Option<Self> {
        if len_bits.div_ceil(8) > bytes.len() {
            return None;
        }
        Some(BitReader {
            bytes,
            len_bits,
            pos: 0,
        })
    }

    /// Reads `count` bits, MSB first. Returns `None` if fewer than `count`
    /// bits remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Option<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if count as usize > self.remaining_bits() {
            return None;
        }
        if count == 0 {
            return Some(0);
        }
        let at = self.pos / 8;
        let offset = (self.pos % 8) as u32;
        let mut window = load_be(self.bytes, at) << offset;
        if offset + count > 64 {
            // The field straddles the 8-byte window: its last bits come
            // from the ninth byte.
            window |= u64::from(self.bytes[at + 8]) >> (8 - offset);
        }
        self.pos += count as usize;
        Some(window >> (64 - count))
    }

    /// Reads a single bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read_bits(1).map(|b| b == 1)
    }

    /// Number of unread bits.
    #[must_use]
    pub fn remaining_bits(&self) -> usize {
        self.len_bits - self.pos
    }
}

impl fmt::Debug for BitReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitReader({}/{} bits)", self.pos, self.len_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_round_trip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.len_bits(), 9);
        let mut r = BitReader::new(w.as_slice(), w.len_bits());
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
        assert_eq!(r.read_bit(), None);
    }

    #[test]
    fn multi_bit_fields_round_trip() {
        let mut w = BitWriter::new();
        w.write_bits(0x1ffff, 17); // a RemoteLID-sized field
        w.write_bits(0, 2);
        w.write_bits(u64::MAX, 64);
        let mut r = BitReader::new(w.as_slice(), w.len_bits());
        assert_eq!(r.read_bits(17), Some(0x1ffff));
        assert_eq!(r.read_bits(2), Some(0));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn write_bytes_matches_write_bits() {
        let mut a = BitWriter::new();
        a.write_bytes(&[0xab, 0xcd]);
        let mut b = BitWriter::new();
        b.write_bits(0xabcd, 16);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn append_bits_matches_bit_by_bit_copy() {
        let mut src = BitWriter::new();
        src.write_bits(0b1_0110, 5);
        src.write_bits(0xdead_beef_cafe_f00d, 64);
        src.write_bits(0x3, 7);
        // Reference: copy one bit at a time into a misaligned destination.
        let mut slow = BitWriter::new();
        slow.write_bits(0b101, 3);
        let mut r = BitReader::new(src.as_slice(), src.len_bits());
        while let Some(bit) = r.read_bit() {
            slow.write_bit(bit);
        }
        let mut fast = BitWriter::new();
        fast.write_bits(0b101, 3);
        fast.append_bits(src.as_slice(), src.len_bits());
        assert_eq!(fast.as_slice(), slow.as_slice());
        assert_eq!(fast.len_bits(), slow.len_bits());
    }

    #[test]
    fn append_from_reader_respects_position() {
        let mut src = BitWriter::new();
        src.write_bits(0xffff, 16);
        src.write_bits(0b0101, 4);
        let mut r = BitReader::new(src.as_slice(), src.len_bits());
        r.read_bits(16).unwrap();
        let mut w = BitWriter::new();
        w.append_from_reader(&mut r);
        assert_eq!(w.len_bits(), 4);
        assert_eq!(w.as_slice(), &[0b0101_0000]);
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    fn reader_rejects_overrun_reads() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let mut r = BitReader::new(w.as_slice(), 2);
        assert_eq!(r.read_bits(3), None);
        assert_eq!(r.read_bits(2), Some(0b11));
    }

    #[test]
    #[should_panic(expected = "exceeds byte capacity")]
    fn reader_len_validation() {
        let _ = BitReader::new(&[0u8], 9);
    }

    #[test]
    fn clear_keeps_storage_and_equal_bits_compare_equal() {
        let mut reused = BitWriter::new();
        reused.write_bits(u64::MAX, 64);
        reused.write_bits(u64::MAX, 64);
        reused.clear();
        assert!(reused.is_empty());
        assert_eq!(reused.as_slice(), &[] as &[u8]);
        reused.write_bits(0b1, 1);
        let mut fresh = BitWriter::new();
        fresh.write_bit(true);
        assert_eq!(reused, fresh);
        assert_eq!(reused.as_slice(), &[0x80]);
        fresh.write_bit(false);
        assert_ne!(reused, fresh);
    }

    #[test]
    fn try_new_rejects_overrun_without_panicking() {
        assert!(BitReader::try_new(&[0u8], 9).is_none());
        let mut r = BitReader::try_new(&[0b1010_0000], 3).expect("in range");
        assert_eq!(r.read_bits(3), Some(0b101));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// One writer operation, applied both to a [`BitWriter`] and to
        /// the `Vec<bool>` model it is checked against.
        #[derive(Clone, Debug)]
        enum Op {
            Bits(u64, u32),
            Bit(bool),
            Bytes(Vec<u8>),
            /// Append a whole source stream via `append_bits`.
            Append(Vec<bool>),
            /// Skip `n` bits of a source stream, then drain the rest via
            /// `append_from_reader`.
            Drain(Vec<bool>, usize),
            Clear,
        }

        fn op() -> impl Strategy<Value = Op> {
            let source = || proptest::collection::vec(any::<bool>(), 0..160);
            prop_oneof![
                (any::<u64>(), 0u32..=64).prop_map(|(v, c)| Op::Bits(v, c)),
                (any::<u64>(), 57u32..=64).prop_map(|(v, c)| Op::Bits(v, c)),
                any::<bool>().prop_map(Op::Bit),
                proptest::collection::vec(any::<u8>(), 0..20).prop_map(Op::Bytes),
                source().prop_map(Op::Append),
                (source(), 0usize..160).prop_map(|(b, n)| {
                    let n = n.min(b.len());
                    Op::Drain(b, n)
                }),
                Just(Op::Clear),
            ]
        }

        fn writer_of(bits: &[bool]) -> BitWriter {
            let mut w = BitWriter::new();
            for &b in bits {
                w.write_bit(b);
            }
            w
        }

        /// The model's bits packed MSB-first, final byte zero-padded.
        fn packed(model: &[bool]) -> Vec<u8> {
            let mut out = vec![0u8; model.len().div_ceil(8)];
            for (i, &b) in model.iter().enumerate() {
                out[i / 8] |= u8::from(b) << (7 - i % 8);
            }
            out
        }

        fn model_value(model: &[bool]) -> u64 {
            model.iter().fold(0, |v, &b| v << 1 | u64::from(b))
        }

        fn apply(op: &Op, w: &mut BitWriter, model: &mut Vec<bool>) {
            match op {
                Op::Bits(v, c) => {
                    w.write_bits(*v, *c);
                    model.extend((0..*c).rev().map(|i| v >> i & 1 == 1));
                }
                Op::Bit(b) => {
                    w.write_bit(*b);
                    model.push(*b);
                }
                Op::Bytes(bytes) => {
                    w.write_bytes(bytes);
                    model.extend(
                        bytes
                            .iter()
                            .flat_map(|&x| (0..8).rev().map(move |i| x >> i & 1 == 1)),
                    );
                }
                Op::Append(src) => {
                    let sw = writer_of(src);
                    w.append_bits(sw.as_slice(), sw.len_bits());
                    model.extend_from_slice(src);
                }
                Op::Drain(src, skip) => {
                    let sw = writer_of(src);
                    let mut r = BitReader::new(sw.as_slice(), sw.len_bits());
                    for _ in 0..*skip {
                        r.read_bit().expect("skip within source");
                    }
                    w.append_from_reader(&mut r);
                    assert_eq!(r.remaining_bits(), 0);
                    model.extend_from_slice(&src[*skip..]);
                }
                Op::Clear => {
                    w.clear();
                    model.clear();
                }
            }
        }

        proptest! {
            /// Any sequence of writer operations, `clear()` and reuse
            /// included, leaves exactly the model's bits: same length,
            /// same packed bytes, zero padding; and every read of 0–64
            /// bits at every offset (the last 7 bytes included) returns
            /// the model's bits, or `None` past the end.
            #[test]
            fn prop_writer_and_reader_match_bool_model(
                ops in proptest::collection::vec(op(), 0..24)
            ) {
                let mut w = BitWriter::new();
                let mut model = Vec::new();
                for op in &ops {
                    apply(op, &mut w, &mut model);
                    prop_assert_eq!(w.len_bits(), model.len());
                }
                prop_assert_eq!(w.is_empty(), model.is_empty());
                prop_assert_eq!(w.as_slice(), &packed(&model)[..]);
                // Equal bits compare equal whatever the history.
                prop_assert_eq!(&w, &writer_of(&model));
                // Over the trimmed bytes (the tail path) and in place.
                for mut base in [BitReader::new(w.as_slice(), w.len_bits()), w.reader()] {
                    for pos in 0..=model.len() {
                        for count in 0..=64u32 {
                            let end = pos + count as usize;
                            let expect =
                                (end <= model.len()).then(|| model_value(&model[pos..end]));
                            prop_assert_eq!(
                                base.clone().read_bits(count),
                                expect,
                                "pos {} count {}",
                                pos,
                                count
                            );
                        }
                        if pos < model.len() {
                            prop_assert_eq!(base.read_bit(), Some(model[pos]));
                        }
                    }
                }
                prop_assert_eq!(w.into_bytes(), packed(&model));
            }

            /// `try_new` accepts exactly the lengths the bytes can hold.
            #[test]
            fn prop_try_new_rejects_oversize_length(
                bytes in proptest::collection::vec(any::<u8>(), 0..16),
                over in 1usize..64,
            ) {
                let cap = bytes.len() * 8;
                prop_assert!(BitReader::try_new(&bytes, cap).is_some());
                prop_assert!(BitReader::try_new(&bytes, cap + over).is_none());
                prop_assert!(BitReader::try_new(&bytes, usize::MAX).is_none());
            }

            /// Any sequence of (value, width) fields written MSB-first reads
            /// back identically — the invariant every codec rests on.
            #[test]
            fn prop_field_sequences_round_trip(
                fields in proptest::collection::vec((any::<u64>(), 1u32..=64), 0..64)
            ) {
                let mut w = BitWriter::new();
                for &(value, width) in &fields {
                    w.write_bits(value, width);
                }
                let total: usize = fields.iter().map(|&(_, wd)| wd as usize).sum();
                prop_assert_eq!(w.len_bits(), total);
                let mut r = BitReader::new(w.as_slice(), w.len_bits());
                for &(value, width) in &fields {
                    let mask = if width == 64 { u64::MAX } else { (1u64 << width) - 1 };
                    prop_assert_eq!(r.read_bits(width), Some(value & mask));
                }
                prop_assert_eq!(r.remaining_bits(), 0);
            }

            /// The final byte's unused low bits are always zero (padding is
            /// deterministic, so payload bytes are comparable).
            #[test]
            fn prop_padding_is_zero(bits in proptest::collection::vec(any::<bool>(), 1..64)) {
                let mut w = BitWriter::new();
                for &b in &bits {
                    w.write_bit(b);
                }
                let last = *w.as_slice().last().unwrap();
                let used = w.len_bits() % 8;
                if used != 0 {
                    prop_assert_eq!(last & ((1u8 << (8 - used)) - 1), 0);
                }
            }
        }
    }
}
