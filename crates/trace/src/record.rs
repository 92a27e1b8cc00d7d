//! Trace capture and replay.
//!
//! The paper evaluates with recorded SimPoint traces; this module gives the
//! library the same workflow for *any* trace source: capture a stream of
//! line-granular memory accesses (with the 64-byte content observed at each
//! access) into a compact binary format, and replay it later through any
//! compressed link. Downstream users can record traces from their own
//! simulators or pin tools and evaluate CABLE on real workloads.
//!
//! Format (little-endian):
//!
//! ```text
//! magic  "CBTR"            4 bytes
//! version u16              currently 1
//! count   u64              number of records
//! record: addr u64 | flags u8 (bit0 = write) | 64 data bytes
//! ```
//!
//! The data of a read record is the memory content of the line; the data of
//! a write record is the value stored.

use crate::gen::Access;
use cable_common::{Address, LineData, LINE_BYTES};
use std::error::Error;
use std::fmt;

const MAGIC: &[u8; 4] = b"CBTR";
const VERSION: u16 = 1;
const HEADER_BYTES: usize = 4 + 2 + 8;
const RECORD_BYTES: usize = 8 + 1 + LINE_BYTES;

/// One captured access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Line-aligned address.
    pub addr: Address,
    /// True for stores.
    pub is_write: bool,
    /// Memory content (reads) or stored value (writes).
    pub data: LineData,
}

/// Error returned when a trace cannot be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFormatError {
    detail: String,
}

impl TraceFormatError {
    fn new(detail: impl Into<String>) -> Self {
        TraceFormatError {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for TraceFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace format error: {}", self.detail)
    }
}

impl Error for TraceFormatError {}

/// Accumulates records into the binary trace format.
///
/// # Examples
///
/// ```
/// use cable_trace::record::{TraceReader, TraceRecord, TraceWriter};
/// use cable_common::{Address, LineData};
///
/// let mut w = TraceWriter::new();
/// w.push(TraceRecord {
///     addr: Address::new(0x40),
///     is_write: false,
///     data: LineData::splat_word(7),
/// });
/// let bytes = w.finish();
/// let records: Vec<_> = TraceReader::new(bytes)?.collect::<Result<_, _>>()?;
/// assert_eq!(records.len(), 1);
/// assert_eq!(records[0].data, LineData::splat_word(7));
/// # Ok::<(), cable_trace::record::TraceFormatError>(())
/// ```
#[derive(Debug, Default)]
pub struct TraceWriter {
    body: Vec<u8>,
    count: u64,
}

impl TraceWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record.
    pub fn push(&mut self, record: TraceRecord) {
        self.body
            .extend_from_slice(&record.addr.line_aligned().as_u64().to_le_bytes());
        self.body.push(u8::from(record.is_write));
        self.body.extend_from_slice(record.data.as_bytes());
        self.count += 1;
    }

    /// Records pushed so far.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.count
    }

    /// True if nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finalizes the trace: header plus body.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + self.body.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.body);
        out
    }
}

/// Iterates the records of a binary trace.
#[derive(Debug)]
pub struct TraceReader {
    bytes: Vec<u8>,
    pos: usize,
    remaining: u64,
}

impl TraceReader {
    /// Parses the header and positions the reader at the first record.
    ///
    /// # Errors
    ///
    /// Returns [`TraceFormatError`] on a bad magic, unsupported version, or
    /// a truncated body.
    pub fn new(bytes: impl Into<Vec<u8>>) -> Result<Self, TraceFormatError> {
        let bytes = bytes.into();
        if bytes.len() < HEADER_BYTES {
            return Err(TraceFormatError::new("truncated header"));
        }
        let magic = &bytes[0..4];
        if magic != MAGIC {
            return Err(TraceFormatError::new(format!("bad magic {magic:02x?}")));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(TraceFormatError::new(format!(
                "unsupported version {version}"
            )));
        }
        let count = u64::from_le_bytes(bytes[6..14].try_into().unwrap());
        let body_len = (bytes.len() - HEADER_BYTES) as u64;
        let need = count
            .checked_mul(RECORD_BYTES as u64)
            .ok_or_else(|| TraceFormatError::new(format!("record count {count} overflows")))?;
        if body_len < need {
            return Err(TraceFormatError::new(format!(
                "body holds {body_len} bytes, need {need}"
            )));
        }
        Ok(TraceReader {
            bytes,
            pos: HEADER_BYTES,
            remaining: count,
        })
    }

    /// Records left to read.
    #[must_use]
    pub fn remaining(&self) -> u64 {
        self.remaining
    }
}

impl Iterator for TraceReader {
    type Item = Result<TraceRecord, TraceFormatError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let rec = &self.bytes[self.pos..self.pos + RECORD_BYTES];
        self.pos += RECORD_BYTES;
        let addr = Address::new(u64::from_le_bytes(rec[0..8].try_into().unwrap()));
        let flags = rec[8];
        if flags > 1 {
            return Some(Err(TraceFormatError::new(format!(
                "unknown flags {flags:#x}"
            ))));
        }
        let mut data = [0u8; LINE_BYTES];
        data.copy_from_slice(&rec[9..9 + LINE_BYTES]);
        Some(Ok(TraceRecord {
            addr,
            is_write: flags & 1 == 1,
            data: LineData::from_bytes(data),
        }))
    }
}

/// Captures `accesses` accesses of a synthetic benchmark into a trace
/// (useful for building portable regression inputs).
#[must_use]
pub fn record_synthetic(gen: &mut crate::WorkloadGen, accesses: u64) -> Vec<u8> {
    let mut w = TraceWriter::new();
    for _ in 0..accesses {
        let Access { addr, is_write, .. } = gen.next_access();
        let data = if is_write {
            gen.store_data(addr)
        } else {
            gen.content(addr)
        };
        w.push(TraceRecord {
            addr,
            is_write,
            data,
        });
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_name;
    use crate::WorkloadGen;

    #[test]
    fn round_trip() {
        let mut w = TraceWriter::new();
        for i in 0..100u64 {
            w.push(TraceRecord {
                addr: Address::from_line_number(i * 3),
                is_write: i % 4 == 0,
                data: LineData::splat_word(i as u32),
            });
        }
        assert_eq!(w.len(), 100);
        let bytes = w.finish();
        let reader = TraceReader::new(bytes).unwrap();
        assert_eq!(reader.remaining(), 100);
        let records: Vec<TraceRecord> = reader.map(|r| r.unwrap()).collect();
        assert_eq!(records.len(), 100);
        assert_eq!(records[3].addr, Address::from_line_number(9));
        assert!(records[4].is_write);
        assert_eq!(records[7].data, LineData::splat_word(7));
    }

    #[test]
    fn bad_magic_rejected() {
        let err =
            TraceReader::new(b"NOPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00".to_vec()).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn truncated_body_rejected() {
        let mut w = TraceWriter::new();
        w.push(TraceRecord {
            addr: Address::new(0),
            is_write: false,
            data: LineData::zeroed(),
        });
        let full = w.finish();
        let truncated = full[0..full.len() - 10].to_vec();
        assert!(TraceReader::new(truncated).is_err());
    }

    #[test]
    fn overflowing_record_count_rejected() {
        // count * 73 wraps to 71 bytes, so a wrapping size check would
        // accept this 200-byte body and the reader would slice past it.
        let count: u64 = u64::MAX / RECORD_BYTES as u64 + 1;
        let mut bytes = Vec::from(*MAGIC);
        bytes.extend_from_slice(&VERSION.to_le_bytes());
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.resize(HEADER_BYTES + 200, 0);
        let err = TraceReader::new(bytes).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut w = TraceWriter::new();
        w.push(TraceRecord {
            addr: Address::new(0),
            is_write: false,
            data: LineData::zeroed(),
        });
        let mut bytes = w.finish();
        bytes[4] = 9; // version
        assert!(TraceReader::new(bytes).is_err());
    }

    #[test]
    fn synthetic_capture_matches_generator() {
        let p = by_name("gcc").unwrap();
        let trace = record_synthetic(&mut WorkloadGen::new(p, 0), 500);
        let records: Vec<TraceRecord> = TraceReader::new(trace)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(records.len(), 500);
        // Replaying the generator independently yields the same stream.
        let mut gen = WorkloadGen::new(p, 0);
        for r in &records {
            let a = gen.next_access();
            assert_eq!(a.addr.line_aligned(), r.addr);
            assert_eq!(a.is_write, r.is_write);
            let expected = if a.is_write {
                gen.store_data(a.addr)
            } else {
                gen.content(a.addr)
            };
            assert_eq!(expected, r.data);
        }
    }

    #[test]
    fn addresses_are_line_aligned_on_capture() {
        let mut w = TraceWriter::new();
        w.push(TraceRecord {
            addr: Address::new(0x47), // unaligned
            is_write: false,
            data: LineData::zeroed(),
        });
        let records: Vec<TraceRecord> = TraceReader::new(w.finish())
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(records[0].addr, Address::new(0x40));
    }

    proptest::proptest! {
        /// `TraceReader::new` and iteration return on any input: arbitrary
        /// bytes, and bodies behind a valid header whose record count may
        /// be small, truncating or overflowing.
        #[test]
        fn reader_returns_on_arbitrary_bytes(
            framed in proptest::prelude::any::<bool>(),
            count_seed in proptest::prelude::any::<u64>(),
            body in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..600),
        ) {
            let bytes = if framed {
                let count = if count_seed % 4 == 0 { count_seed } else { count_seed % 9 };
                let mut b = Vec::from(*MAGIC);
                b.extend_from_slice(&VERSION.to_le_bytes());
                b.extend_from_slice(&count.to_le_bytes());
                b.extend_from_slice(&body);
                b
            } else {
                body
            };
            if let Ok(reader) = TraceReader::new(bytes) {
                reader.for_each(drop);
            }
        }
    }
}
