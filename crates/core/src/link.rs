//! The CABLE link endpoints: compression, transmission, synchronization.
//!
//! [`Link`] is the request/statistics interface every link-compression
//! scheme implements. [`CableLink`] models one compressed point-to-point link between a home
//! cache and a remote cache it is inclusive of (Fig. 4): the request path
//! (§III-C/E), the Way-Map Table pointer reduction (§III-D), hash-table
//! synchronization (§III-F), and write-back compression (§III-G).
//!
//! Every DIFF is *actually decoded* at the receiver (when
//! `verify_decompression` is on, the default; every frame under fault
//! injection) and checked against the original line — compression ratios
//! come from real, losslessly round-tripped payload bits.

use crate::channel::{
    FaultConfig, FaultState, FaultStats, Notice, NoticeFate, PendingNotice, ResyncReport,
};
use crate::codec::{PayloadCodec, PayloadHead};
use crate::config::CableConfig;
use crate::hash_table::SignatureTable;
use crate::search::{search_references_into, Reference, SearchScratch, SearchStats};
use crate::signature::{SignatureBuf, SignatureExtractor};
use crate::wmt::WayMapTable;
use cable_cache::{CoherenceState, EvictedLine, LineId, SetAssocCache};
use cable_common::{crc32, Address, BitReader, BitWriter, LineData, LINE_BYTES};
use cable_compress::SeededCompressor;
use cable_telemetry::{hop_metric_id, Counter, Event, Histogram, Telemetry};
use std::fmt;

/// How a line crossed the link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferKind {
    /// Serviced by the remote cache; no link traffic.
    RemoteHit,
    /// Sent uncompressed (compression would not have helped).
    Raw,
    /// Compressed without references (the §III-E fallback; no RemoteLIDs).
    Unseeded,
    /// Compressed as a DIFF against 1–3 references.
    Diff,
}

impl TransferKind {
    /// Stable lowercase label (telemetry event/metric vocabulary).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TransferKind::RemoteHit => "remote_hit",
            TransferKind::Raw => "raw",
            TransferKind::Unseeded => "unseeded",
            TransferKind::Diff => "diff",
        }
    }
}

/// Direction of a transfer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// Home → remote (a fill responding to a request).
    Fill,
    /// Remote → home (a dirty write-back).
    WriteBack,
}

impl Direction {
    /// Stable lowercase label (telemetry event/metric vocabulary).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Direction::Fill => "fill",
            Direction::WriteBack => "writeback",
        }
    }
}

/// Histogram edges for framed payload sizes in bits (a raw frame is 513).
const PAYLOAD_BITS_EDGES: &[u64] = &[32, 64, 128, 256, 512];
/// Histogram edges for hash-table candidate counts per search.
const SEARCH_CANDIDATE_EDGES: &[u64] = &[1, 2, 4, 8, 16, 32];

/// Metric handles resolved once per link, so instrumented hot paths cost
/// one relaxed atomic op per update — or one `None` branch when the
/// attached [`Telemetry`] is disabled (the default). Cloning shares the
/// sink, matching `CableLink`'s clone-for-warm-reuse semantics.
#[derive(Clone, Default)]
pub(crate) struct LinkTelemetry {
    pub(crate) handle: Telemetry,
    pub(crate) remote_hits: Counter,
    pub(crate) encode_raw: Counter,
    pub(crate) encode_unseeded: Counter,
    pub(crate) encode_diff: Counter,
    pub(crate) wire_bits: Counter,
    pub(crate) payload_bits: Histogram,
    search_candidates: Histogram,
    nacks: Counter,
    fallback_raw: Counter,
    escalations: Counter,
    retransmitted_bits: Counter,
    evict_buffer_hits: Counter,
    resyncs: Counter,
    reliable_frames: Counter,
    /// Hop-scoped fault counters (`mesh.hop.{N}.*`), resolved by
    /// [`LinkTelemetry::set_wire_hop`] when the link rides a known mesh
    /// wire; no-op handles otherwise.
    hop_faults: Counter,
    hop_nacks: Counter,
    hop_retransmitted_bits: Counter,
}

impl LinkTelemetry {
    pub(crate) fn new(handle: Telemetry) -> Self {
        LinkTelemetry {
            remote_hits: handle.counter("link.remote_hits"),
            encode_raw: handle.counter("link.encode.raw"),
            encode_unseeded: handle.counter("link.encode.unseeded"),
            encode_diff: handle.counter("link.encode.diff"),
            wire_bits: handle.counter("link.wire_bits"),
            payload_bits: handle.histogram("link.payload_bits", PAYLOAD_BITS_EDGES),
            search_candidates: handle.histogram("link.search.candidates", SEARCH_CANDIDATE_EDGES),
            nacks: handle.counter("link.fault.nacks"),
            fallback_raw: handle.counter("link.fault.fallback_raw"),
            escalations: handle.counter("link.fault.escalations"),
            retransmitted_bits: handle.counter("link.fault.retransmitted_bits"),
            evict_buffer_hits: handle.counter("link.fault.evict_buffer_hits"),
            resyncs: handle.counter("link.fault.resyncs"),
            reliable_frames: handle.counter("link.fault.reliable_frames"),
            hop_faults: Counter::default(),
            hop_nacks: Counter::default(),
            hop_retransmitted_bits: Counter::default(),
            handle,
        }
    }

    /// Resolves the hop-scoped fault counters once the owning mesh wire
    /// is known, so this link's injected faults, NACKs, and
    /// retransmissions are also charged to `mesh.hop.{hop}.*`.
    pub(crate) fn set_wire_hop(&mut self, hop: u32) {
        self.hop_faults = self.handle.counter(hop_metric_id(hop, "faults"));
        self.hop_nacks = self.handle.counter(hop_metric_id(hop, "nacks"));
        self.hop_retransmitted_bits = self
            .handle
            .counter(hop_metric_id(hop, "retransmitted_bits"));
    }

    /// Counts one encode outcome into the kind-specific counter.
    #[inline]
    pub(crate) fn count_encode(&self, kind: TransferKind) {
        match kind {
            TransferKind::Raw => self.encode_raw.inc(),
            TransferKind::Unseeded => self.encode_unseeded.inc(),
            TransferKind::Diff => self.encode_diff.inc(),
            TransferKind::RemoteHit => {}
        }
    }
}

/// Result of one link operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Transfer {
    kind: TransferKind,
    direction: Direction,
    payload_bits: usize,
    wire_bits: u64,
    refs: usize,
    home_hit: bool,
}

impl Transfer {
    fn remote_hit() -> Self {
        Transfer {
            kind: TransferKind::RemoteHit,
            direction: Direction::Fill,
            payload_bits: 0,
            wire_bits: 0,
            refs: 0,
            home_hit: true,
        }
    }

    /// Crate-internal constructor for sibling link models (baselines).
    pub(crate) fn new_internal(
        kind: TransferKind,
        direction: Direction,
        payload_bits: usize,
        wire_bits: u64,
        refs: usize,
    ) -> Self {
        Transfer {
            kind,
            direction,
            payload_bits,
            wire_bits,
            refs,
            home_hit: true,
        }
    }

    /// Crate-internal setter for sibling link models.
    pub(crate) fn set_home_hit(&mut self, home_hit: bool) {
        self.home_hit = home_hit;
    }

    /// Whether the home cache already held the line (false means backing
    /// memory — DRAM behind the L4 — had to be accessed first, §V-A).
    #[must_use]
    pub fn home_hit(&self) -> bool {
        self.home_hit
    }

    /// How the line crossed the link.
    #[must_use]
    pub fn kind(&self) -> TransferKind {
        self.kind
    }

    /// Fill or write-back.
    #[must_use]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Exact framed payload size in bits (before flit quantization).
    #[must_use]
    pub fn payload_bits(&self) -> usize {
        self.payload_bits
    }

    /// Flit-quantized cost on the wire in bits.
    #[must_use]
    pub fn wire_bits(&self) -> u64 {
        self.wire_bits
    }

    /// Number of references named in the payload.
    #[must_use]
    pub fn refs(&self) -> usize {
        self.refs
    }

    /// Compression ratio of this transfer versus a raw line on the wire.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        (LINE_BYTES * 8) as f64 / self.wire_bits.max(1) as f64
    }
}

/// What one element of a [`Link::request_batch`] slice does on the link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    /// Shared read — [`Link::request`].
    Read,
    /// Read-for-ownership only — [`Link::request_exclusive`]; the
    /// store lands later (e.g. after an L2 fill, as in the thread model).
    Exclusive,
    /// Read-for-ownership immediately followed by
    /// [`Link::remote_store`] of the carried data — the trace-replay
    /// write idiom.
    Write(LineData),
}

/// One access in a batched request stream.
///
/// A slice of these is pushed through [`Link::request_batch`] in one call,
/// amortizing per-access dispatch: through a `dyn Link` (the sim's
/// `CompressedLink`), one virtual call per batch instead of per access.
#[derive(Clone, Copy, Debug)]
pub struct BatchAccess {
    /// Line address.
    pub addr: Address,
    /// Backing-memory content, used if the access misses everywhere.
    pub memory: LineData,
    /// Read, ownership, or write semantics for this element.
    pub op: BatchOp,
}

impl BatchAccess {
    /// A shared read of `addr`.
    #[must_use]
    pub fn read(addr: Address, memory: LineData) -> Self {
        BatchAccess {
            addr,
            memory,
            op: BatchOp::Read,
        }
    }

    /// A read-for-ownership of `addr` (store applied later by the caller).
    #[must_use]
    pub fn exclusive(addr: Address, memory: LineData) -> Self {
        BatchAccess {
            addr,
            memory,
            op: BatchOp::Exclusive,
        }
    }

    /// A write: ownership then an immediate store of `store`.
    #[must_use]
    pub fn write(addr: Address, memory: LineData, store: LineData) -> Self {
        BatchAccess {
            addr,
            memory,
            op: BatchOp::Write(store),
        }
    }
}

/// One compressed link between a home cache and the remote cache it is
/// inclusive of (§II-C, Fig. 4) — the interface CABLE ([`CableLink`]) and
/// every baseline ([`crate::BaselineLink`]) share, so simulators drive any
/// scheme over the same request stream.
///
/// An implementor supplies the request paths, its statistics, telemetry
/// and the [`Link::warm`] prefetch hook. The knobs of CABLE's §VI-D
/// control and fault model default to what a baseline models: reliable
/// wires, always compressing. Setting them is then a no-op,
/// [`Link::compression_enabled`] is `true`, [`Link::reliable_mode`] is
/// `false`, [`Link::fault_stats`] is `None` and
/// [`Link::audit_and_resync`] repairs nothing.
///
/// # Examples
///
/// ```
/// use cable_cache::CacheGeometry;
/// use cable_common::{Address, LineData};
/// use cable_core::{BaselineKind, BaselineLink, CableConfig, CableLink, Link};
///
/// let (home, remote) = (CacheGeometry::new(4 << 20, 16), CacheGeometry::new(1 << 20, 8));
/// let mut links: Vec<Box<dyn Link>> = vec![
///     Box::new(CableLink::new(CableConfig::memory_link_default())),
///     Box::new(BaselineLink::new(BaselineKind::Cpack, home, remote, 16)),
/// ];
/// for link in &mut links {
///     link.request(Address::new(0x40), LineData::zeroed());
///     assert_eq!(link.stats().fills, 1);
/// }
/// ```
pub trait Link {
    /// Services a read request for `addr`. `memory` supplies the line's
    /// content if it has to be fetched from backing memory (home miss).
    ///
    /// Returns the resulting transfer; a remote-cache hit costs no traffic.
    fn request(&mut self, addr: Address, memory: LineData) -> Transfer;

    /// Services a write-intent request (read-for-ownership): the line is
    /// installed Exclusive in the remote cache.
    fn request_exclusive(&mut self, addr: Address, memory: LineData) -> Transfer;

    /// Remote store to a resident line (an upgrade to Modified).
    ///
    /// Returns `false` if the line is not resident remotely (callers should
    /// issue [`Link::request_exclusive`] first).
    fn remote_store(&mut self, addr: Address, data: LineData) -> bool;

    /// Cumulative statistics.
    #[must_use]
    fn stats(&self) -> &LinkStats;

    /// Clears statistics (e.g. after warm-up).
    fn reset_stats(&mut self);

    /// Attaches a [`Telemetry`] handle: metric handles are resolved once
    /// here, and trace events flow into the handle's shared sink from then
    /// on. Every scheme publishes the same metric vocabulary
    /// (`link.encode.*`, `link.wire_bits`, …), so schemes compare side by
    /// side in exported telemetry.
    fn set_telemetry(&mut self, tel: Telemetry);

    /// Touches the home and remote tag sets of the line-aligned `addr`
    /// without changing any state, so a later access finds them in the
    /// host's cache. [`Link::request_batch`] calls it one element ahead.
    fn warm(&self, addr: Address);

    /// Services a slice of accesses in one call, appending one [`Transfer`]
    /// per element to `transfers`.
    ///
    /// Each element behaves exactly like the corresponding sequence of
    /// [`Link::request`] / [`Link::request_exclusive`] /
    /// [`Link::remote_store`] calls, in slice order — stats, telemetry
    /// and wire output are bit-identical to the per-call loop. The batch
    /// form exists to amortize per-access call overhead on the encode hot
    /// path: through a `dyn Link` it costs one virtual call per batch, and
    /// the per-element calls inside are static.
    fn request_batch(&mut self, batch: &[BatchAccess], transfers: &mut Vec<Transfer>) {
        transfers.reserve(batch.len());
        for (i, a) in batch.iter().enumerate() {
            // Software pipelining: touch the next access's home/remote sets
            // before servicing this one, so the next element's (random,
            // usually cold) tag-array lines are fetched while this element
            // computes. Pure cache warming — element semantics unchanged.
            if let Some(next) = batch.get(i + 1) {
                self.warm(next.addr.line_aligned());
            }
            let t = match a.op {
                BatchOp::Read => self.request(a.addr, a.memory),
                BatchOp::Exclusive => self.request_exclusive(a.addr, a.memory),
                BatchOp::Write(store) => {
                    let t = self.request_exclusive(a.addr, a.memory);
                    self.remote_store(a.addr, store);
                    t
                }
            };
            transfers.push(t);
        }
    }

    /// Enables/disables compression (the §VI-D on/off control knob).
    fn set_compression_enabled(&mut self, _enabled: bool) {}

    /// Whether compression is currently enabled.
    #[must_use]
    fn compression_enabled(&self) -> bool {
        true
    }

    /// Routes all subsequent wire traffic through a deterministic
    /// [`FaultyChannel`](crate::FaultyChannel).
    fn enable_fault_injection(&mut self, _cfg: FaultConfig) {}

    /// Returns the link to reliable-channel operation.
    fn disable_fault_injection(&mut self) {}

    /// Tags this link as one directional pipeline of mesh wire `hop`, so
    /// its fault-protocol counters also publish under `mesh.hop.{hop}.*`.
    /// Purely observational.
    fn set_wire_hop(&mut self, _hop: u32) {}

    /// Switches the escalated reliable delivery mode (the degradation
    /// ladder's `LinkOff` rung).
    fn set_reliable_mode(&mut self, _reliable: bool) {}

    /// Whether escalated reliable delivery is active.
    #[must_use]
    fn reliable_mode(&self) -> bool {
        false
    }

    /// Fault-injection counters, if fault injection is enabled.
    #[must_use]
    fn fault_stats(&self) -> Option<&FaultStats> {
        None
    }

    /// Bits the fault-recovery protocol retransmitted so far (0 on a
    /// reliable link). These bits are already included in
    /// [`LinkStats::wire_bits`]; the latency attribution reads deltas of
    /// this counter to split the retry penalty out of plain wire
    /// serialization.
    #[must_use]
    fn retransmitted_wire_bits(&self) -> u64 {
        self.fault_stats().map_or(0, |fs| fs.retransmitted_bits)
    }

    /// Audits home/remote synchronization after a period of lossy operation
    /// and repairs every divergence it finds.
    fn audit_and_resync(&mut self) -> ResyncReport {
        ResyncReport::default()
    }
}

/// Cumulative link statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Fills serviced over the link (remote misses).
    pub fills: u64,
    /// Requests absorbed by the remote cache (no traffic).
    pub remote_hits: u64,
    /// Write-backs sent over the link.
    pub writebacks: u64,
    /// Home-cache hits among fills.
    pub home_hits: u64,
    /// Transfers sent raw.
    pub raw_transfers: u64,
    /// Transfers sent with the unseeded fallback.
    pub unseeded_transfers: u64,
    /// Transfers sent as reference DIFFs.
    pub diff_transfers: u64,
    /// Total references named across all DIFFs.
    pub refs_sent: u64,
    /// Raw data equivalent: `512 × transfers`.
    pub uncompressed_bits: u64,
    /// Exact framed payload bits.
    pub payload_bits: u64,
    /// Flit-quantized wire bits.
    pub wire_bits: u64,
    /// Wire bits under the packed transport of Fig. 23.
    pub wire_bits_packed: u64,
    /// Data-array reads for search candidates and decode references.
    pub data_array_reads: u64,
    /// Compression/decompression engine invocations.
    pub compression_ops: u64,
    /// Bit transitions observed on the link (toggle energy, §VI-D).
    pub bit_toggles: u64,
    /// Link flits transmitted.
    pub flits: u64,
}

impl LinkStats {
    /// Overall compression ratio: `uncompressed_size / compressed_size`
    /// measured on flit-quantized wire traffic (§VI-A).
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        if self.wire_bits == 0 {
            1.0
        } else {
            self.uncompressed_bits as f64 / self.wire_bits as f64
        }
    }

    /// Folds `other` into `self`, field by field — the reduction the
    /// multi-link views (a NUMA study, a fabric's coherence pipelines)
    /// use. `other` is destructured exhaustively, so a new field does not
    /// compile until it is summed here.
    pub fn accumulate(&mut self, other: &LinkStats) {
        let LinkStats {
            fills,
            remote_hits,
            writebacks,
            home_hits,
            raw_transfers,
            unseeded_transfers,
            diff_transfers,
            refs_sent,
            uncompressed_bits,
            payload_bits,
            wire_bits,
            wire_bits_packed,
            data_array_reads,
            compression_ops,
            bit_toggles,
            flits,
        } = *other;
        self.fills += fills;
        self.remote_hits += remote_hits;
        self.writebacks += writebacks;
        self.home_hits += home_hits;
        self.raw_transfers += raw_transfers;
        self.unseeded_transfers += unseeded_transfers;
        self.diff_transfers += diff_transfers;
        self.refs_sent += refs_sent;
        self.uncompressed_bits += uncompressed_bits;
        self.payload_bits += payload_bits;
        self.wire_bits += wire_bits;
        self.wire_bits_packed += wire_bits_packed;
        self.data_array_reads += data_array_reads;
        self.compression_ops += compression_ops;
        self.bit_toggles += bit_toggles;
        self.flits += flits;
    }

    /// What was counted between the snapshot `before` and `self`, field by
    /// field — the per-member reduction of a link shared by several
    /// programs. The result is a full struct literal, so a new field does
    /// not compile until it is differenced here.
    ///
    /// # Panics
    ///
    /// Panics on overflow (debug builds) if `before` is not an earlier
    /// snapshot of the same counters.
    #[must_use]
    pub fn since(&self, before: &LinkStats) -> LinkStats {
        LinkStats {
            fills: self.fills - before.fills,
            remote_hits: self.remote_hits - before.remote_hits,
            writebacks: self.writebacks - before.writebacks,
            home_hits: self.home_hits - before.home_hits,
            raw_transfers: self.raw_transfers - before.raw_transfers,
            unseeded_transfers: self.unseeded_transfers - before.unseeded_transfers,
            diff_transfers: self.diff_transfers - before.diff_transfers,
            refs_sent: self.refs_sent - before.refs_sent,
            uncompressed_bits: self.uncompressed_bits - before.uncompressed_bits,
            payload_bits: self.payload_bits - before.payload_bits,
            wire_bits: self.wire_bits - before.wire_bits,
            wire_bits_packed: self.wire_bits_packed - before.wire_bits_packed,
            data_array_reads: self.data_array_reads - before.data_array_reads,
            compression_ops: self.compression_ops - before.compression_ops,
            bit_toggles: self.bit_toggles - before.bit_toggles,
            flits: self.flits - before.flits,
        }
    }
}

/// Charges one payload's flits to the toggle counters of a link
/// `link_width_bits` wide: `stats.bit_toggles` and `stats.flits` advance,
/// and `last_flit` carries the final flit into the next payload's first
/// XOR. Links wider than 64 bits are accounted in 64-bit sub-words.
///
/// `bytes` is an MSB-first bitstream's backing store as [`BitWriter`]
/// keeps it: `⌈len_bits / 8⌉` bytes, the final one zero-padded. Both link
/// types account through here, [`CableLink`] and
/// [`crate::BaselineLink`] alike, so toggle energy (§VI-D) is counted
/// identically for every scheme.
pub(crate) fn account_toggles(
    stats: &mut LinkStats,
    last_flit: &mut u64,
    link_width_bits: u32,
    bytes: &[u8],
    len_bits: usize,
) {
    let width = link_width_bits.min(64);
    // Byte-aligned flits (every shipped config) take the lane path:
    // consecutive-flit XORs are byte-aligned stream self-XORs, so the
    // whole payload is charged in 64-bit popcount chunks instead of one
    // BitReader call per flit.
    let (toggles, flits) = if width.is_multiple_of(8) {
        toggles_lanes(bytes, len_bits, width, last_flit)
    } else {
        toggles_scalar(bytes, len_bits, width, last_flit)
    };
    stats.bit_toggles += toggles;
    stats.flits += flits;
}

/// Per-flit BitReader loop: the path for link widths that are not a whole
/// number of bytes, and the oracle the lane path is tested against.
/// Returns `(toggles, flits)`.
fn toggles_scalar(bytes: &[u8], len_bits: usize, width: u32, last_flit: &mut u64) -> (u64, u64) {
    let mut reader = cable_common::BitReader::new(bytes, len_bits);
    let (mut toggles, mut flits) = (0, 0);
    loop {
        let take = reader.remaining_bits().min(width as usize);
        if take == 0 {
            return (toggles, flits);
        }
        let flit = reader.read_bits(take as u32).expect("sized read") << (width as usize - take);
        toggles += u64::from((flit ^ *last_flit).count_ones());
        flits += 1;
        *last_flit = flit;
    }
}

/// Lane path: flit `i` XOR flit `i-1` compares stream byte `k` with byte
/// `k - width/8`, and the final flit's zero padding matches the
/// BitWriter's zeroed tail bits, so the toggle count is one shifted
/// self-XOR popcount over the zero-padded payload bytes. Returns
/// `(toggles, flits)`.
fn toggles_lanes(bytes: &[u8], len_bits: usize, width: u32, last_flit: &mut u64) -> (u64, u64) {
    if len_bits == 0 {
        return (0, 0);
    }
    let wb = (width / 8) as usize;
    let flits = len_bits.div_ceil(width as usize);
    let padded_len = flits * wb;
    debug_assert!(bytes.len() <= padded_len);
    // 8 zero-padded payload bytes starting at `k`, big-endian (stream
    // order), matching the MSB-first flit values of the scalar loop.
    let load8 = |k: usize| -> u64 {
        let mut b = [0u8; 8];
        if k < bytes.len() {
            let n = (bytes.len() - k).min(8);
            b[..n].copy_from_slice(&bytes[k..k + n]);
        }
        u64::from_be_bytes(b)
    };
    let flit_shift = 8 * (8 - wb as u32);
    let first = load8(0) >> flit_shift;
    let mut toggles = u64::from((first ^ *last_flit).count_ones());
    let mut k = wb;
    while k < padded_len {
        let valid = (padded_len - k).min(8);
        let mut x = load8(k) ^ load8(k - wb);
        if valid < 8 {
            // Mask the overshoot: positions past the padded end would
            // otherwise compare real last-flit bytes against zeros.
            x &= u64::MAX << (8 * (8 - valid));
        }
        toggles += u64::from(x.count_ones());
        k += 8;
    }
    *last_flit = load8(padded_len - wb) >> flit_shift;
    (toggles, flits as u64)
}

/// One CABLE-compressed link between a home cache and a remote cache.
///
/// # Examples
///
/// ```
/// use cable_core::{CableConfig, CableLink, Link};
/// use cable_common::{Address, LineData};
///
/// let mut link = CableLink::new(CableConfig::memory_link_default());
/// let line = LineData::from_words(core::array::from_fn(|i| 0x0400_0000 + i as u32));
/// let t = link.request(Address::new(0x40), line);
/// assert!(t.wire_bits() > 0);
/// // The same address now hits in the remote cache: no traffic.
/// let again = link.request(Address::new(0x40), line);
/// assert_eq!(again.wire_bits(), 0);
/// ```
///
/// Links are `Clone`: a clone deep-copies every cache, table and engine, so
/// a warmed link can be snapshotted and both copies evolve independently
/// and bit-identically (the basis of `cable-sim`'s warm-state reuse).
/// `clone_from` restores a snapshot into an existing link, reusing its
/// cache and table storage.
pub struct CableLink {
    config: CableConfig,
    extractor: SignatureExtractor,
    home: SetAssocCache,
    remote: SetAssocCache,
    home_table: SignatureTable,
    remote_table: SignatureTable,
    wmt: WayMapTable,
    engine: Box<dyn SeededCompressor + Send + Sync>,
    codec: PayloadCodec,
    compression_enabled: bool,
    stats: LinkStats,
    last_flit: u64,
    /// Reusable search buffers and payload frames (taken out with
    /// `mem::take` for the duration of a compression, then put back).
    scratch: LinkScratch,
    /// Fault-injection state; `None` (the default) models a reliable link
    /// with zero accounting overhead.
    fault: Option<Box<FaultState>>,
    /// Escalated reliable mode (the degradation ladder's `LinkOff` rung):
    /// while set, fault-mode deliveries bypass the lossy channel entirely
    /// and pay one acknowledgement flit per frame instead.
    reliable_mode: bool,
    /// Resolved-once telemetry handles; disabled (free) by default.
    tel: LinkTelemetry,
    /// The mesh wire (hop) this link rides, when it is one directional
    /// pipeline of a mesh pair; fault counters then also publish under
    /// `mesh.hop.{N}.*`. Persists across [`Link::set_telemetry`].
    wire_hop: Option<u32>,
}

impl Clone for CableLink {
    fn clone(&self) -> Self {
        CableLink {
            config: self.config.clone(),
            extractor: self.extractor.clone(),
            home: self.home.clone(),
            remote: self.remote.clone(),
            home_table: self.home_table.clone(),
            remote_table: self.remote_table.clone(),
            wmt: self.wmt.clone(),
            engine: self.engine.clone(),
            codec: self.codec,
            compression_enabled: self.compression_enabled,
            stats: self.stats,
            last_flit: self.last_flit,
            scratch: self.scratch.clone(),
            fault: self.fault.clone(),
            reliable_mode: self.reliable_mode,
            tel: self.tel.clone(),
            wire_hop: self.wire_hop,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        let CableLink {
            config,
            extractor,
            home,
            remote,
            home_table,
            remote_table,
            wmt,
            engine,
            codec,
            compression_enabled,
            stats,
            last_flit,
            scratch,
            fault,
            reliable_mode,
            tel,
            wire_hop,
        } = self;
        config.clone_from(&source.config);
        extractor.clone_from(&source.extractor);
        home.clone_from(&source.home);
        remote.clone_from(&source.remote);
        home_table.clone_from(&source.home_table);
        remote_table.clone_from(&source.remote_table);
        wmt.clone_from(&source.wmt);
        engine.clone_from(&source.engine);
        *codec = source.codec;
        *compression_enabled = source.compression_enabled;
        *stats = source.stats;
        *last_flit = source.last_flit;
        scratch.clone_from(&source.scratch);
        fault.clone_from(&source.fault);
        *reliable_mode = source.reliable_mode;
        tel.clone_from(&source.tel);
        *wire_hop = source.wire_hop;
    }
}

/// A link's reusable per-transfer buffers: the search scratch and the two
/// frames the §III-E policy writes each candidate payload into once. They
/// carry nothing from one transfer to the next, so a restore
/// (`clone_from`) keeps the destination's grown buffers.
#[derive(Default)]
struct LinkScratch {
    search: SearchScratch,
    /// `[unseeded or raw, DIFF]`.
    frames: [BitWriter; 2],
}

impl Clone for LinkScratch {
    fn clone(&self) -> Self {
        LinkScratch {
            search: self.search.clone(),
            frames: self.frames.clone(),
        }
    }

    fn clone_from(&mut self, _: &Self) {}
}

impl LinkScratch {
    /// The frame [`CableLink::compress_with`] left a `kind` payload in.
    fn frame(&self, kind: TransferKind) -> &BitWriter {
        &self.frames[usize::from(kind == TransferKind::Diff)]
    }
}

/// How a detected delivery failure should be retried.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FailureClass {
    /// Wire corruption: retransmitting the same frame may succeed.
    Transient,
    /// Missing/stale reference or diverged decode: only a raw
    /// retransmission can deliver the line.
    Reference,
}

/// What the receiver may lean on beyond its own caches and WMT.
enum Receiver<'a> {
    /// A reliable link: every reference the frame names must resolve, and
    /// to the sender's copy, or the model is broken.
    FaultFree(&'a [Reference]),
    /// Fault injection: a fill may resolve a reference from the §IV-A
    /// eviction buffer, and a stale or missing one fails the frame.
    Faulty(&'a mut FaultState),
}

impl CableLink {
    /// Builds a link from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails.
    #[must_use]
    pub fn new(config: CableConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid CableConfig: {e}");
        }
        let codec = PayloadCodec::new(
            config.remote_geometry.line_id_bits(),
            config.link_width_bits,
        );
        CableLink {
            extractor: SignatureExtractor::new(config.signature_seed),
            home: SetAssocCache::new(config.home_geometry),
            remote: SetAssocCache::new(config.remote_geometry),
            home_table: SignatureTable::new(config.home_table_entries(), config.bucket_depth),
            remote_table: SignatureTable::new(config.remote_table_entries(), config.bucket_depth),
            wmt: WayMapTable::new(config.home_geometry, config.remote_geometry),
            engine: config.engine.build(),
            codec,
            compression_enabled: true,
            stats: LinkStats::default(),
            last_flit: 0,
            scratch: LinkScratch::default(),
            fault: None,
            reliable_mode: false,
            tel: LinkTelemetry::default(),
            wire_hop: None,
            config,
        }
    }

    /// The link configuration.
    #[must_use]
    pub fn config(&self) -> &CableConfig {
        &self.config
    }

    /// The home (larger) cache.
    #[must_use]
    pub fn home(&self) -> &SetAssocCache {
        &self.home
    }

    /// The remote (smaller) cache.
    #[must_use]
    pub fn remote(&self) -> &SetAssocCache {
        &self.remote
    }

    /// The home cache's Way-Map Table.
    #[must_use]
    pub fn wmt(&self) -> &WayMapTable {
        &self.wmt
    }

    fn request_in_state(
        &mut self,
        addr: Address,
        memory: LineData,
        grant: CoherenceState,
    ) -> Transfer {
        self.tick_notices();
        let addr = addr.line_aligned();
        if self.remote.access(addr).is_some() {
            self.stats.remote_hits += 1;
            self.tel.remote_hits.inc();
            if grant != CoherenceState::Shared {
                // Upgrade on a store hit.
                self.upgrade(addr);
            }
            return Transfer::remote_hit();
        }
        self.stats.fills += 1;

        // Home lookup / memory fill (§V-A: on a miss, fetch then compress
        // as if it was a hit).
        let home = self.home.access(addr);
        let home_hit = home.is_some();
        let (home_lid, line) = if let Some(lid) = home {
            self.stats.home_hits += 1;
            if grant == CoherenceState::Shared {
                // Sending in the shared state re-shares the home copy (its
                // data is authoritative even after an absorbed write-back),
                // which is what makes the signature insert below legal.
                self.home.set_state_by_id(lid, CoherenceState::Shared);
            }
            (lid, self.home.read_by_id(lid).expect("valid"))
        } else {
            let outcome = self.home.insert(addr, memory, CoherenceState::Shared);
            if let Some(victim) = outcome.evicted.clone() {
                self.on_home_eviction(&victim);
            }
            (outcome.line_id, memory)
        };

        // Compress while the line is still only in the home cache.
        let mut transfer = self.transmit(&line, Direction::Fill);
        transfer.home_hit = home_hit;

        // Install at the remote's advertised victim way and synchronize.
        let victim_way = self.remote.victim_way(addr);
        let outcome = self
            .remote
            .insert_at_way(addr, line, grant, Some(victim_way));
        let remote_lid = outcome.line_id;
        let dirty_victim = outcome.evicted.and_then(|victim| {
            self.on_remote_victim(&victim);
            (victim.state == CoherenceState::Modified).then_some(victim)
        });

        // WMT update: the displaced entry names the home line whose
        // signatures must be invalidated (§III-F).
        if let Some(displaced_home) = self.wmt.update(remote_lid, home_lid) {
            self.remove_home_signatures(displaced_home);
        }

        // Only shared grants enter the hash tables.
        if grant == CoherenceState::Shared {
            let home_packed = home_lid.pack(self.home.geometry()) as u32;
            let remote_packed = remote_lid.pack(self.remote.geometry()) as u32;
            let sigs = self.insert_signatures(&line);
            self.home_table.insert_all(sigs.as_slice(), home_packed);
            self.remote_table.insert_all(sigs.as_slice(), remote_packed);
        }

        // A dirty victim writes back over the same link (compressed), now
        // that the tables are consistent.
        if let Some(victim) = dirty_victim {
            self.writeback(victim.addr, victim.data);
        }

        transfer
    }

    fn upgrade(&mut self, addr: Address) {
        if let Some(remote_lid) = self.remote.lookup(addr) {
            if let Some(old) = self.remote.read_by_id(remote_lid) {
                let packed = remote_lid.pack(self.remote.geometry()) as u32;
                let sigs = self.insert_signatures(&old);
                self.remote_table.remove_all(sigs.as_slice(), packed);
            }
            self.remote
                .set_state_by_id(remote_lid, CoherenceState::Modified);
        }
        // The home-side half travels as a notice; on a faulty channel it can
        // be lost or arrive late, leaving the home free to emit stale
        // references until the NACK path or a resync catches up.
        if let Some(mut fs) = self.fault.take() {
            self.send_notice(Notice::Upgrade { addr }, &mut fs);
            self.fault = Some(fs);
        } else if let Some(home_lid) = self.home.lookup(addr) {
            self.remove_home_signatures(home_lid);
            self.home
                .set_state_by_id(home_lid, CoherenceState::Modified);
        }
    }

    /// Write-back of a dirty line from the remote to the home cache
    /// (§III-G). The remote searches *its own* hash table and transmits its
    /// own LineIDs; the home cache translates them back through the WMT.
    pub fn writeback(&mut self, addr: Address, data: LineData) -> Transfer {
        self.tick_notices();
        let addr = addr.line_aligned();
        self.stats.writebacks += 1;

        let transfer = self.transmit(&data, Direction::WriteBack);
        // The home copy's old content is stale: drop its signatures, then
        // absorb the new data as Modified (dirty lines are never inserted),
        // in the slot the lookup found or in a new one.
        if let Some(home_lid) = self.home.lookup(addr) {
            self.remove_home_signatures(home_lid);
            self.home.write_by_id(home_lid, data);
        } else if let Some(victim) = self
            .home
            .insert(addr, data, CoherenceState::Modified)
            .evicted
        {
            self.on_home_eviction(&victim);
        }
        // The remote's copy transitions out of Modified (write-through of
        // the eviction path clears it entirely; a cleaning write-back would
        // re-share it — we model the eviction flavour). A Shared copy also
        // leaves the remote table.
        if let Some(victim) = self.remote.invalidate(addr) {
            if victim.state == CoherenceState::Shared {
                self.on_remote_victim(&victim);
            }
            self.wmt.invalidate(victim.line_id);
        }
        transfer
    }

    /// Evicts `addr` from the remote cache (capacity or snoop), keeping the
    /// tables synchronized. Dirty lines are written back first.
    pub fn evict_remote(&mut self, addr: Address) {
        self.tick_notices();
        let addr = addr.line_aligned();
        let Some(remote_lid) = self.remote.lookup(addr) else {
            return;
        };
        if self.remote.state_by_id(remote_lid) == CoherenceState::Modified {
            let data = self.remote.read_by_id(remote_lid).expect("valid");
            self.writeback(addr, data);
            return;
        }
        if let Some(victim) = self.remote.invalidate(addr) {
            self.on_remote_victim(&victim);
            if let Some(mut fs) = self.fault.take() {
                // §IV-A: buffer the evicted copy (in-flight references may
                // still name this slot) and tell the home side via a lossy
                // notice; the home-side cleanup happens when (if) it lands.
                let seq = fs.evict_buffer.insert(addr, victim.line_id, victim.data);
                self.send_notice(
                    Notice::Eviction {
                        seq,
                        remote_lid: victim.line_id,
                        addr,
                    },
                    &mut fs,
                );
                self.fault = Some(fs);
                return;
            }
        }
        if let Some(displaced_home) = self.wmt.invalidate(remote_lid) {
            self.remove_home_signatures(displaced_home);
        }
    }

    // ---- fault injection and recovery --------------------------------

    /// Advances the fault-mode operation clock and delivers any delayed
    /// notices that have come due. A no-op on a reliable link.
    fn tick_notices(&mut self) {
        let Some(mut fs) = self.fault.take() else {
            return;
        };
        fs.op += 1;
        while fs.pending.front().is_some_and(|p| p.due_op <= fs.op) {
            let pending = fs.pending.pop_front().expect("front checked");
            self.apply_notice(pending.notice, &mut fs);
        }
        self.fault = Some(fs);
    }

    /// Pushes a synchronization notice through the lossy channel. In
    /// escalated reliable mode the notice is applied directly — without
    /// drawing a fate from the channel, so the fault schedule seen by
    /// later lossy traffic is unperturbed.
    fn send_notice(&mut self, notice: Notice, fs: &mut FaultState) {
        if self.reliable_mode {
            self.apply_notice(notice, fs);
            return;
        }
        match fs.channel.notice_fate() {
            NoticeFate::Deliver => self.apply_notice(notice, fs),
            NoticeFate::Drop => self.tel.handle.record(Event::NoticeDropped),
            NoticeFate::Delay => {
                let due_op = fs.op + fs.channel.config().delay_ops;
                fs.pending.push_back(PendingNotice { due_op, notice });
                self.tel.handle.record(Event::NoticeDelayed);
            }
        }
    }

    /// Applies a notice on the home side. Every arm is idempotent and
    /// address-guarded so that a delayed or replayed notice whose slot has
    /// since been recycled cannot damage live state.
    fn apply_notice(&mut self, notice: Notice, fs: &mut FaultState) {
        match notice {
            Notice::Eviction {
                seq,
                remote_lid,
                addr,
            } => {
                if let Some(home_lid) = self.wmt.home_lid_of(remote_lid) {
                    // Purge only if the mapping still names the evicted line
                    // (home slot holds `addr`) and the remote slot was not
                    // refilled with the same address in the meantime.
                    if self.home.addr_by_id(home_lid) == Some(addr)
                        && self.remote.addr_by_id(remote_lid) != Some(addr)
                    {
                        self.wmt.invalidate(remote_lid);
                        self.remove_home_signatures(home_lid);
                    }
                }
                // The echoed acknowledgement is cumulative: the buffer only
                // drops entries once every earlier EvictSeq also landed.
                let acked = fs.record_processed(seq);
                fs.evict_buffer.acknowledge(acked);
            }
            Notice::Upgrade { addr } => {
                if let Some(home_lid) = self.home.lookup(addr) {
                    self.remove_home_signatures(home_lid);
                    self.home
                        .set_state_by_id(home_lid, CoherenceState::Modified);
                }
            }
        }
    }

    /// Transmits a guarded frame, whose first transmission is already
    /// accounted, over the faulty channel until the receiver holds the
    /// exact line: CRC-guarded decode, NACK on failure, bounded
    /// retransmission of the compressed frame, raw fallback, and — past the
    /// raw budget — a reliable escalation. Retransmitted bits are charged
    /// to [`LinkStats`] (degrading the compression ratio and, via
    /// `cable-sim`, link busy-time) but not to `uncompressed_bits`.
    fn deliver_with_recovery(
        &mut self,
        framed: BitWriter,
        kind: TransferKind,
        line: &LineData,
        direction: Direction,
        fs: &mut FaultState,
    ) {
        let cfg = *fs.channel.config();
        let mut current = framed;
        let mut current_kind = kind;
        let mut compressed_attempts = 0u32;
        let mut raw_attempts = 0u32;
        let mut first = true;
        loop {
            let flips_before = fs.channel.stats().injected_bit_flips;
            let tx = fs.channel.transmit(current.as_slice(), current.len_bits());
            if tx.corrupted {
                self.tel.hop_faults.inc();
                self.tel.handle.record(Event::FaultInjected {
                    bit_flips: (fs.channel.stats().injected_bit_flips - flips_before) as u32,
                    truncated: tx.len_bits < current.len_bits(),
                });
            }
            if !first {
                self.account_retransmission(&current, fs);
            }
            first = false;
            let received = self
                .codec
                .parse_guarded(&tx.bytes, tx.len_bits)
                .map_err(|_| FailureClass::Transient)
                .and_then(|(payload, line_crc)| {
                    self.receive(payload, direction, line, Receiver::Faulty(fs))?;
                    // `receive` matched the decoded line against `line`, so
                    // this is the decoded line's end-to-end check.
                    if crc32(line.as_bytes()) == line_crc {
                        Ok(())
                    } else {
                        Err(FailureClass::Reference)
                    }
                });
            match received {
                Ok(()) => break,
                Err(class) => {
                    fs.channel.stats_mut().nacks += 1;
                    // The NACK costs one control flit on the return path.
                    self.stats.wire_bits += u64::from(self.config.link_width_bits);
                    self.stats.flits += 1;
                    self.tel.nacks.inc();
                    self.tel.hop_nacks.inc();
                    self.tel.handle.record(Event::Nack {
                        class: match class {
                            FailureClass::Transient => "transient",
                            FailureClass::Reference => "reference",
                        },
                    });
                    if current_kind == TransferKind::Raw {
                        raw_attempts += 1;
                        if raw_attempts > cfg.raw_retries {
                            // Graceful degradation floor: hand the line to
                            // the (expensive, ECC-grade) reliable path so
                            // delivery stays bit-exact no matter the fault
                            // rate.
                            fs.channel.stats_mut().escalations += 1;
                            self.tel.escalations.inc();
                            self.tel.handle.record(Event::Escalation);
                            break;
                        }
                    } else if class == FailureClass::Transient
                        && compressed_attempts < cfg.compressed_retries
                    {
                        compressed_attempts += 1;
                    } else {
                        // Stale reference or retry budget exhausted: the
                        // home retransmits the line raw (§III-F's fallback).
                        current = self
                            .codec
                            .encode_guarded(&self.codec.encode_raw(line), line);
                        current_kind = TransferKind::Raw;
                        fs.channel.stats_mut().fallback_raw += 1;
                        self.tel.fallback_raw.inc();
                        self.tel.handle.record(Event::FallbackRaw);
                    }
                }
            }
        }
    }

    /// Wire accounting for one retransmission: payload/wire/toggle counters
    /// advance (the flits really cross the link) but `uncompressed_bits`
    /// does not — retransmissions are pure overhead in the ratio.
    fn account_retransmission(&mut self, frame: &BitWriter, fs: &mut FaultState) {
        let payload_bits = frame.len_bits();
        let wire_bits = self.codec.wire_bits(payload_bits);
        self.stats.payload_bits += payload_bits as u64;
        self.stats.wire_bits += wire_bits;
        self.stats.wire_bits_packed += self.codec.wire_bits_packed(payload_bits);
        self.account_toggles(frame);
        fs.channel.stats_mut().retransmitted_bits += wire_bits;
        self.tel.retransmitted_bits.add(wire_bits);
        self.tel.hop_retransmitted_bits.add(wire_bits);
        self.tel.handle.record(Event::Retransmit { wire_bits });
    }

    // ---- synchronization helpers -------------------------------------

    /// The insert signatures of `line`: the set a Shared fill indexes and
    /// the matching removal deletes. Removals recompute it from the line in
    /// hand, which is exact because a slot's data changes only after its
    /// signatures have been removed (invariant 4 of
    /// [`CableLink::check_invariants`]).
    fn insert_signatures(&self, line: &LineData) -> SignatureBuf {
        let mut sigs = SignatureBuf::new();
        self.extractor
            .insert_signatures_into(line, self.config.insert_signature_count, &mut sigs);
        sigs
    }

    fn remove_home_signatures(&mut self, home_lid: LineId) {
        if let Some(data) = self.home.read_by_id(home_lid) {
            let packed = home_lid.pack(self.home.geometry()) as u32;
            let sigs = self.insert_signatures(&data);
            self.home_table.remove_all(sigs.as_slice(), packed);
        }
    }

    fn on_remote_victim(&mut self, victim: &EvictedLine) {
        let packed = victim.line_id.pack(self.remote.geometry()) as u32;
        let sigs = self.insert_signatures(&victim.data);
        self.remote_table.remove_all(sigs.as_slice(), packed);
    }

    fn on_home_eviction(&mut self, victim: &EvictedLine) {
        // The home line is gone: drop its signatures.
        let packed = victim.line_id.pack(self.home.geometry()) as u32;
        let sigs = self.insert_signatures(&victim.data);
        self.home_table.remove_all(sigs.as_slice(), packed);
        if !self.config.inclusive {
            // §IV-C: the remote copy stays; the home merely loses the
            // ability to name it as a reference (stale WMT entry cleared).
            if let Some(remote_lid) = self.wmt.remote_lid_of(victim.line_id) {
                self.wmt.invalidate(remote_lid);
            }
            return;
        }
        // Inclusion: back-invalidate any remote copy.
        if let Some(remote_victim) = self.remote.invalidate(victim.addr) {
            self.on_remote_victim(&remote_victim);
            self.wmt.invalidate(remote_victim.line_id);
            if remote_victim.state == CoherenceState::Modified {
                // The back-invalidation recalls dirty data past the home
                // cache; account the raw write-back traffic.
                self.stats.writebacks += 1;
                let payload = self.codec.encode_raw(&remote_victim.data);
                self.account(&payload, TransferKind::Raw, 0, Direction::WriteBack);
            }
        }
    }

    // ---- compression path ---------------------------------------------

    /// Sends `line` across the link in `direction`: compresses it
    /// ([`CableLink::compress_with`]), accounts the chosen frame, and
    /// delivers it. A reliable link decodes each DIFF at the receiver.
    /// Under fault injection the frame gains its CRC guards and goes over
    /// the escalated reliable path or through fault recovery.
    fn transmit(&mut self, line: &LineData, direction: Direction) -> Transfer {
        let mut scratch = std::mem::take(&mut self.scratch);
        let kind = self.compress_with(line, direction, &mut scratch);
        let payload = scratch.frame(kind);
        let refs = if kind == TransferKind::Diff {
            scratch.search.selected()
        } else {
            &[]
        };
        let transfer = match self.fault.take() {
            None => {
                let transfer = self.account(payload, kind, refs.len(), direction);
                if kind == TransferKind::Diff && self.config.verify_decompression {
                    self.receive(payload.reader(), direction, line, Receiver::FaultFree(refs))
                        .expect("a reliable link delivers every DIFF bit-exact");
                }
                transfer
            }
            Some(mut fs) => {
                let framed = self.codec.encode_guarded(payload, line);
                let transfer = self.account(&framed, kind, refs.len(), direction);
                if self.reliable_mode {
                    // `LinkOff`: the guarded frame (the receiver hardware is
                    // unchanged) bypasses the lossy channel and pays one
                    // acknowledgement flit on the return path instead of
                    // risking a NACK round. The channel's fault schedule is
                    // not advanced, so toggling reliable mode never perturbs
                    // the RNG stream later lossy deliveries see.
                    self.stats.wire_bits += u64::from(self.config.link_width_bits);
                    self.stats.flits += 1;
                    fs.channel.stats_mut().reliable_frames += 1;
                    self.tel.reliable_frames.inc();
                } else {
                    self.deliver_with_recovery(framed, kind, line, direction, &mut fs);
                }
                self.fault = Some(fs);
                transfer
            }
        };
        self.scratch = scratch;
        transfer
    }

    /// Shared compression policy (§III-E): search, frame the unseeded
    /// fallback and the DIFF, and pick raw/unseeded/DIFF by total payload
    /// size (unseeded wins outright above the threshold ratio). Each
    /// candidate is written once, head then engine output, into
    /// `scratch.frames`; the returned kind names the frame that holds the
    /// chosen payload ([`LinkScratch::frame`]).
    ///
    /// On a `Diff` outcome the selected references are left in
    /// `scratch.search.selected()`; for every other outcome the payload
    /// names no references.
    ///
    /// A fill searches the home table and names WMT-translated wire
    /// pointers. A write-back searches the remote table over the remote's
    /// own LineIDs (§III-G); in the §IV-C non-inclusive mode the remote
    /// cannot assume its lines exist at home, so write-backs search nothing.
    fn compress_with(
        &mut self,
        line: &LineData,
        direction: Direction,
        scratch: &mut LinkScratch,
    ) -> TransferKind {
        let raw_bits = self.codec.raw_payload_bits();
        let LinkScratch {
            search,
            frames: [unseeded, diff],
        } = scratch;
        let raw = |frame: &mut BitWriter| {
            frame.clear();
            self.codec.write_raw(line, frame);
            TransferKind::Raw
        };
        if !self.compression_enabled {
            search.clear_selected();
            return raw(unseeded);
        }

        let sstats = match direction {
            Direction::Fill => search_references_into(
                line,
                &self.extractor,
                &self.home_table,
                &self.home,
                Some(&self.wmt),
                self.config.data_access_count,
                self.config.max_refs,
                search,
            ),
            Direction::WriteBack if self.config.inclusive => search_references_into(
                line,
                &self.extractor,
                &self.remote_table,
                &self.remote,
                None,
                self.config.data_access_count,
                self.config.max_refs,
                search,
            ),
            Direction::WriteBack => {
                search.clear_selected();
                SearchStats::default()
            }
        };
        self.stats.data_array_reads += sstats.data_reads as u64;
        if self.tel.handle.is_enabled() && self.compression_enabled {
            self.tel.search_candidates.record(sstats.candidates as u64);
            self.tel.handle.record(Event::Search {
                candidates: sstats.candidates as u32,
                data_reads: sstats.data_reads as u32,
                selected: search.selected().len() as u8,
            });
        }

        // Unseeded fallback, computed concurrently with the search (§III-E).
        unseeded.clear();
        self.codec.write_compressed_head(&[], unseeded);
        self.engine.compress_seeded_into(&[], line, unseeded);
        self.stats.compression_ops += 1;
        let unseeded_total = unseeded.len_bits();
        let unseeded_bits = unseeded_total - self.codec.compressed_header_bits(0);

        let threshold_bits =
            ((LINE_BYTES * 8) as f64 / self.config.unseeded_threshold_ratio) as usize;
        let refs = search.selected();
        if unseeded_bits <= threshold_bits || refs.is_empty() {
            return if unseeded_total < raw_bits {
                TransferKind::Unseeded
            } else {
                raw(unseeded)
            };
        }

        // max_refs is validated to 1..=3 (2-bit wire count field), so the
        // reference payloads fit fixed stack arrays.
        let nrefs = refs.len();
        debug_assert!(nrefs <= 3);
        let mut ref_datas = [LineData::zeroed(); 3];
        let mut wire_lids = [0u64; 3];
        for ((data, lid), r) in ref_datas.iter_mut().zip(&mut wire_lids).zip(refs) {
            *data = r.data;
            *lid = r.wire_lid.pack(self.remote.geometry());
        }
        diff.clear();
        self.codec.write_compressed_head(&wire_lids[..nrefs], diff);
        self.engine
            .compress_seeded_into(&ref_datas[..nrefs], line, diff);
        self.stats.compression_ops += 1;
        let diff_total = diff.len_bits();

        if diff_total < unseeded_total && diff_total < raw_bits {
            self.tel.handle.record(Event::DiffSize {
                bits: (diff_total - self.codec.compressed_header_bits(nrefs)) as u32,
            });
            TransferKind::Diff
        } else if unseeded_total < raw_bits {
            TransferKind::Unseeded
        } else {
            raw(unseeded)
        }
    }

    fn account(
        &mut self,
        payload: &BitWriter,
        kind: TransferKind,
        refs: usize,
        direction: Direction,
    ) -> Transfer {
        let payload_bits = payload.len_bits();
        let wire_bits = self.codec.wire_bits(payload_bits);
        self.stats.uncompressed_bits += (LINE_BYTES * 8) as u64;
        self.stats.payload_bits += payload_bits as u64;
        self.stats.wire_bits += wire_bits;
        self.stats.wire_bits_packed += self.codec.wire_bits_packed(payload_bits);
        match kind {
            TransferKind::Raw => self.stats.raw_transfers += 1,
            TransferKind::Unseeded => self.stats.unseeded_transfers += 1,
            TransferKind::Diff => {
                self.stats.diff_transfers += 1;
                self.stats.refs_sent += refs as u64;
            }
            TransferKind::RemoteHit => {}
        }
        self.account_toggles(payload);
        if self.tel.handle.is_enabled() {
            self.tel.count_encode(kind);
            self.tel.wire_bits.add(wire_bits);
            self.tel.payload_bits.record(payload_bits as u64);
            self.tel.handle.record(Event::Encode {
                kind: kind.label(),
                direction: direction.label(),
                payload_bits: payload_bits as u32,
                wire_bits: wire_bits as u32,
                refs: refs as u8,
            });
        }
        Transfer {
            kind,
            direction,
            payload_bits,
            wire_bits,
            refs,
            home_hit: true,
        }
    }

    /// Counts bit transitions flit-by-flit on the (unscrambled) link.
    fn account_toggles(&mut self, payload: &BitWriter) {
        account_toggles(
            &mut self.stats,
            &mut self.last_flit,
            self.config.link_width_bits,
            payload.as_slice(),
            payload.len_bits(),
        );
    }

    // ---- receiver -------------------------------------------------------

    /// The receiver (§III-E, §III-G), reading `frame` in place: the head,
    /// then each packed RemoteLID resolved from receiver-local state, then
    /// the raw line or the DIFF decoded against those references. A fill
    /// resolves from the remote cache (falling back to the eviction buffer
    /// under fault injection); a write-back translates through the WMT and
    /// reads the home cache. The frame must end with the line, and the line
    /// must equal `expected`.
    ///
    /// Each decoded frame costs one compression op and each resolved
    /// reference one data-array read.
    ///
    /// # Panics
    ///
    /// On a fault-free link, if the frame names other references than the
    /// sender chose or a resolved reference differs from the sender's copy.
    fn receive(
        &mut self,
        mut frame: BitReader<'_>,
        direction: Direction,
        expected: &LineData,
        mut receiver: Receiver<'_>,
    ) -> Result<(), FailureClass> {
        let head = self
            .codec
            .read_head(&mut frame)
            .map_err(|_| FailureClass::Transient)?;
        let decoded = match head {
            PayloadHead::Raw => {
                let line = self
                    .codec
                    .read_raw(&mut frame)
                    .map_err(|_| FailureClass::Transient)?;
                self.stats.compression_ops += 1;
                line
            }
            PayloadHead::Compressed { lids, count } => {
                self.stats.compression_ops += 1;
                if let Receiver::FaultFree(sent) = receiver {
                    assert_eq!(count, sent.len(), "reference count survives framing");
                }
                let remote_geometry = *self.remote.geometry();
                let mut refs = [LineData::zeroed(); 3];
                for (i, (slot, &lid)) in refs.iter_mut().zip(&lids[..count]).enumerate() {
                    if lid >= remote_geometry.lines() {
                        // A corrupted pointer outside the LineID space.
                        return Err(FailureClass::Transient);
                    }
                    let rlid = LineId::unpack(lid, &remote_geometry);
                    let resolved = match direction {
                        Direction::Fill => self.remote.read_by_id(rlid),
                        Direction::WriteBack => self
                            .wmt
                            .home_lid_of(rlid)
                            .and_then(|home_lid| self.home.read_by_id(home_lid)),
                    };
                    *slot = match (resolved, &mut receiver) {
                        (Some(data), Receiver::FaultFree(sent)) => {
                            assert_eq!(
                                lid,
                                sent[i].wire_lid.pack(&remote_geometry),
                                "reference pointer survives framing"
                            );
                            assert_eq!(
                                data, sent[i].data,
                                "home and remote disagree on reference content"
                            );
                            data
                        }
                        (Some(data), Receiver::Faulty(_)) => data,
                        // §IV-A: an in-flight reference to a just-evicted
                        // slot resolves from the eviction buffer.
                        (None, Receiver::Faulty(fs)) if direction == Direction::Fill => {
                            let entry = fs
                                .evict_buffer
                                .lookup_by_line_id(rlid)
                                .ok_or(FailureClass::Reference)?;
                            fs.channel.stats_mut().evict_buffer_hits += 1;
                            self.tel.evict_buffer_hits.inc();
                            self.tel.handle.record(Event::EvictBufferHit);
                            entry.data
                        }
                        (None, _) => return Err(FailureClass::Reference),
                    };
                    self.stats.data_array_reads += 1;
                }
                self.engine
                    .decompress_seeded_from(&refs[..count], &mut frame)
                    .map_err(|_| FailureClass::Transient)?
            }
        };
        if frame.remaining_bits() != 0 {
            return Err(FailureClass::Transient);
        }
        if decoded != *expected {
            // Decoded cleanly but to the wrong content: a stale or diverged
            // reference slipped past slot validity.
            return Err(FailureClass::Reference);
        }
        Ok(())
    }
}

impl Link for CableLink {
    fn request(&mut self, addr: Address, memory: LineData) -> Transfer {
        self.request_in_state(addr, memory, CoherenceState::Shared)
    }

    /// The line is still compressed on the wire, but is *not* entered into
    /// the hash tables ("only cache lines sent in the 'shared'
    /// state are incorporated into the hash table", §III-F).
    fn request_exclusive(&mut self, addr: Address, memory: LineData) -> Transfer {
        self.request_in_state(addr, memory, CoherenceState::Exclusive)
    }

    /// The upgrade desynchronizes the line's signatures on both ends
    /// (§III-F's "upgrade request (from shared to dirty)").
    fn remote_store(&mut self, addr: Address, data: LineData) -> bool {
        let addr = addr.line_aligned();
        if self.remote.lookup(addr).is_none() {
            return false;
        }
        self.upgrade(addr);
        self.remote.write(addr, data);
        true
    }

    fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// Also clears fault counters when fault injection is enabled (the fault schedule itself continues
    /// uninterrupted).
    fn reset_stats(&mut self) {
        self.stats = LinkStats::default();
        if let Some(fs) = &mut self.fault {
            fs.channel.reset_stats();
        }
    }

    fn warm(&self, addr: Address) {
        self.home.warm(addr);
        self.remote.warm(addr);
    }

    /// Attaching a disabled handle (the default state) reduces every
    /// instrumentation point to a single branch, and the simulation outcome
    /// is identical either way (property-tested in `cable-sim`).
    fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = LinkTelemetry::new(tel);
        if let Some(hop) = self.wire_hop {
            self.tel.set_wire_hop(hop);
        }
    }

    /// Actual transitions mark a trace phase boundary, so `cable report`
    /// splits its per-phase stats at each controller decision.
    fn set_compression_enabled(&mut self, enabled: bool) {
        if enabled != self.compression_enabled {
            self.tel.handle.record(Event::Phase {
                name: if enabled {
                    "compression_on"
                } else {
                    "compression_off"
                },
            });
        }
        self.compression_enabled = enabled;
    }

    fn compression_enabled(&self) -> bool {
        self.compression_enabled
    }

    /// Frames gain CRC guards
    /// ([`crate::codec::GUARD_BITS`] extra bits each), corrupted deliveries
    /// are NACKed and retransmitted (degrading to raw past the retry
    /// budget), and eviction/upgrade notices become lossy messages backed by
    /// the §IV-A eviction buffer.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    fn enable_fault_injection(&mut self, cfg: FaultConfig) {
        if self.fault.is_none() {
            self.tel.handle.record(Event::Phase { name: "fault_on" });
        }
        self.fault = Some(Box::new(FaultState::new(cfg)));
    }

    /// Pending synchronization debt is settled first via
    /// [`Link::audit_and_resync`] so the tables are left consistent.
    fn disable_fault_injection(&mut self) {
        if self.fault.is_some() {
            self.audit_and_resync();
            self.tel.handle.record(Event::Phase { name: "fault_off" });
        }
        self.fault = None;
    }

    /// Injected faults, NACKs, and retransmitted bits are additionally
    /// charged to the hop-keyed counters, which is what lets
    /// `cable report --hops` localize a faulty wire.
    fn set_wire_hop(&mut self, hop: u32) {
        self.wire_hop = Some(hop);
        self.tel.set_wire_hop(hop);
    }

    /// While set, fault-mode frames skip the
    /// lossy channel and pay one acknowledgement flit each, and
    /// synchronization notices are applied directly instead of being
    /// subjected to drop/delay fates. Without fault injection armed this
    /// is a pure marker: delivery is already reliable. Transitions mark a
    /// trace phase boundary like the compression knob.
    fn set_reliable_mode(&mut self, reliable: bool) {
        if reliable != self.reliable_mode {
            self.tel.handle.record(Event::Phase {
                name: if reliable {
                    "reliable_on"
                } else {
                    "reliable_off"
                },
            });
        }
        self.reliable_mode = reliable;
    }

    fn reliable_mode(&self) -> bool {
        self.reliable_mode
    }

    fn fault_stats(&self) -> Option<&FaultStats> {
        self.fault.as_ref().map(|fs| fs.channel.stats())
    }

    /// Delayed notices are flushed, buffered evictions replayed
    /// (idempotently), stale WMT mappings purged or restored, missed
    /// upgrades replayed, and both hash tables scrubbed of dangling entries.
    ///
    /// Postcondition: [`CableLink::check_invariants`] returns `Ok` — the
    /// property test in `tests/fault_injection.rs` drives arbitrary seeded
    /// fault schedules and asserts exactly that.
    fn audit_and_resync(&mut self) -> ResyncReport {
        let mut report = ResyncReport::default();
        if let Some(mut fs) = self.fault.take() {
            // 1. Flush delayed notices in order.
            while let Some(pending) = fs.pending.pop_front() {
                self.apply_notice(pending.notice, &mut fs);
                report.replayed_notices += 1;
            }
            // 2. Replay every still-buffered eviction; apply_notice's
            // address guards make re-application of an already-delivered
            // notice a no-op.
            let buffered: Vec<(u64, LineId, Address)> = fs
                .evict_buffer
                .iter()
                .map(|e| (e.seq, e.line_id, e.addr))
                .collect();
            for (seq, remote_lid, addr) in buffered {
                self.apply_notice(
                    Notice::Eviction {
                        seq,
                        remote_lid,
                        addr,
                    },
                    &mut fs,
                );
                report.replayed_notices += 1;
            }
            // All synchronization debt is now settled; drain the buffer
            // even across sequence gaps left by overflow-dropped entries.
            let top = fs.evict_buffer.next_seq() - 1;
            fs.force_processed_up_to(top);
            fs.evict_buffer.acknowledge(top);
            fs.channel.stats_mut().resyncs += 1;
            self.fault = Some(fs);
        }
        // 3. Purge WMT mappings that outlived their lines (a lost eviction
        // notice leaves the mapping pointing at an empty or re-tagged
        // slot).
        let stale: Vec<(LineId, LineId, bool)> = self
            .wmt
            .iter_mapped()
            .filter_map(|(rlid, hlid)| {
                let raddr = self.remote.addr_by_id(rlid);
                let haddr = self.home.addr_by_id(hlid);
                (haddr.is_none() || raddr != haddr).then_some((
                    rlid,
                    hlid,
                    raddr.is_none() && haddr.is_some(),
                ))
            })
            .collect();
        for (rlid, hlid, scrub_home) in stale {
            self.wmt.invalidate(rlid);
            report.purged_wmt += 1;
            if scrub_home {
                // The mapping still named the evicted line's home copy:
                // finish the lost notice's cleanup.
                self.remove_home_signatures(hlid);
            }
        }
        // 4. Remote lines: restore lost mappings, replay missed upgrades,
        // purge diverged shared copies.
        let remote_lines: Vec<(LineId, Address, CoherenceState)> =
            self.remote.iter_valid().collect();
        for (rlid, addr, state) in remote_lines {
            if self.remote.addr_by_id(rlid) != Some(addr) {
                // Gone since the snapshot (e.g. a back-invalidation from a
                // write-back this loop issued).
                continue;
            }
            let home_lid = match self.wmt.home_lid_of(rlid) {
                Some(h) => h,
                None if !self.config.inclusive => continue,
                None => {
                    if let Some(h) = self.home.lookup(addr) {
                        self.wmt.update(rlid, h);
                        report.restored_wmt += 1;
                        h
                    } else {
                        // No home backing at all: recover dirty data via a
                        // write-back, drop clean copies.
                        report.invalidated_remote += 1;
                        if state == CoherenceState::Modified {
                            let data = self.remote.read_by_id(rlid).expect("valid");
                            self.writeback(addr, data);
                        } else if let Some(victim) = self.remote.invalidate(addr) {
                            self.on_remote_victim(&victim);
                        }
                        continue;
                    }
                }
            };
            if !self.config.inclusive {
                continue;
            }
            match state {
                CoherenceState::Modified
                    if self.home.state_by_id(home_lid) == CoherenceState::Shared =>
                {
                    // A lost upgrade notice: the home still advertises the
                    // stale shared copy. Replay the home-side upgrade.
                    self.remove_home_signatures(home_lid);
                    self.home.set_state(addr, CoherenceState::Modified);
                    report.replayed_upgrades += 1;
                }
                CoherenceState::Shared => {
                    let rd = self.remote.read_by_id(rlid).expect("valid");
                    let hd = self.home.read_by_id(home_lid).expect("valid");
                    if rd != hd {
                        // Diverged shared content (defensive; delivery is
                        // bit-exact, so this indicates external tampering):
                        // drop the remote copy.
                        self.wmt.invalidate(rlid);
                        if let Some(victim) = self.remote.invalidate(addr) {
                            self.on_remote_victim(&victim);
                        }
                        report.divergence_purges += 1;
                    }
                }
                _ => {}
            }
        }
        // 5. Scrub both hash tables: every entry must name a valid Shared
        // line on its own side.
        let home_geometry = *self.home.geometry();
        let home = &self.home;
        report.scrubbed_home_sigs = self.home_table.retain(|packed| {
            let lid = LineId::unpack(u64::from(packed), &home_geometry);
            home.read_by_id(lid).is_some() && home.state_by_id(lid) == CoherenceState::Shared
        }) as u64;
        let remote_geometry = *self.remote.geometry();
        let remote = &self.remote;
        report.scrubbed_remote_sigs = self.remote_table.retain(|packed| {
            let lid = LineId::unpack(u64::from(packed), &remote_geometry);
            remote.read_by_id(lid).is_some() && remote.state_by_id(lid) == CoherenceState::Shared
        }) as u64;
        if let Some(fs) = &mut self.fault {
            fs.channel.stats_mut().resync_repairs += report.total_repairs();
        }
        self.tel.resyncs.inc();
        self.tel.handle.record(Event::Resync {
            repairs: report.total_repairs(),
        });
        report
    }
}

impl CableLink {
    /// Verifies the cross-structure synchronization invariants that §III-F
    /// maintains. Intended for tests and debugging; cost is linear in the
    /// cache sizes.
    ///
    /// Checked invariants:
    ///
    /// 1. every valid remote line has a WMT entry naming a home slot that
    ///    (in inclusive mode) holds the same address and content;
    /// 2. every home hash-table LineID points at a *currently valid, Shared*
    ///    home line — desynchronized entries must have been removed;
    /// 3. every remote hash-table LineID points at a valid, Shared remote
    ///    line;
    /// 4. on either side, every hash-table LineID sits in the bucket of one
    ///    of the insert signatures of the line that slot holds now — so
    ///    recomputing those signatures from the line finds every entry a
    ///    removal must delete.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        // 1. Remote residency tracked by the WMT. In the §IV-C
        // non-inclusive mode a remote copy may legitimately outlive its WMT
        // entry (the home evicted the line and dropped the mapping), so
        // only the inclusive hierarchy requires full coverage.
        for (remote_lid, addr, state) in self.remote.iter_valid() {
            let home_lid = match self.wmt.home_lid_of(remote_lid) {
                Some(lid) => lid,
                None if !self.config.inclusive => continue,
                None => return Err(format!("remote {remote_lid:?} ({addr}) missing from WMT")),
            };
            if self.config.inclusive {
                let home_addr = self.home.addr_by_id(home_lid).ok_or_else(|| {
                    format!("WMT maps {remote_lid:?} to invalid home slot {home_lid:?}")
                })?;
                if home_addr != addr {
                    return Err(format!(
                        "WMT maps {remote_lid:?} ({addr}) to home slot holding {home_addr}"
                    ));
                }
                if state == CoherenceState::Shared {
                    let rd = self.remote.read_by_id(remote_lid).expect("valid");
                    let hd = self.home.read_by_id(home_lid).expect("valid");
                    if rd != hd {
                        return Err(format!(
                            "shared line {addr} differs between home and remote"
                        ));
                    }
                }
            }
        }
        // 2-4. Hash tables only reference valid Shared lines, each from a
        // bucket of that line's own insert signatures.
        let check_table =
            |table: &SignatureTable, cache: &SetAssocCache, side: &str| -> Result<(), String> {
                let geometry = *cache.geometry();
                for (bucket, entries) in table.iter_buckets().enumerate() {
                    for &packed in entries {
                        let lid = LineId::unpack(u64::from(packed), &geometry);
                        let Some(data) = cache.read_by_id(lid) else {
                            return Err(format!("{side} table references invalid slot {lid:?}"));
                        };
                        if cache.state_by_id(lid) != CoherenceState::Shared {
                            return Err(format!("{side} table references non-Shared slot {lid:?}"));
                        }
                        if !self
                            .insert_signatures(&data)
                            .as_slice()
                            .iter()
                            .any(|&s| table.bucket_of(s) == bucket)
                        {
                            return Err(format!(
                                "{side} table bucket {bucket} holds {lid:?}, \
                                 which none of its line's insert signatures map to"
                            ));
                        }
                    }
                }
                Ok(())
            };
        check_table(&self.home_table, &self.home, "home")?;
        check_table(&self.remote_table, &self.remote, "remote")?;
        Ok(())
    }
}

impl fmt::Debug for CableLink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CableLink(home {:?}, remote {:?}, ratio {:.2})",
            self.home.geometry(),
            self.remote.geometry(),
            self.stats.compression_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_cache::CacheGeometry;
    use cable_common::SplitMix64;
    use cable_compress::EngineKind;
    use proptest::prelude::*;

    fn small_link() -> CableLink {
        // Small caches so evictions and displacements happen quickly.
        let mut cfg = CableConfig::memory_link_default().with_geometries(
            CacheGeometry::new(64 << 10, 8),
            CacheGeometry::new(16 << 10, 4),
        );
        cfg.data_access_count = 6;
        CableLink::new(cfg)
    }

    fn interesting_line(tag: u32) -> LineData {
        LineData::from_words(core::array::from_fn(|i| {
            0x0400_0000 ^ (tag << 8) ^ ((i as u32) * 0x0101)
        }))
    }

    #[test]
    fn similar_line_compresses_as_diff() {
        let mut link = small_link();
        let a = interesting_line(1);
        link.request(Address::new(0x0000), a);
        let mut b = a;
        b.set_word(3, 0x0999_9999);
        let t = link.request(Address::new(0x5000), b);
        assert_eq!(t.kind(), TransferKind::Diff);
        assert_eq!(t.refs(), 1);
        // Header (1+2+14-bit RemoteLID for a 16KB 4-way cache) + small DIFF.
        assert!(t.payload_bits() < 120, "payload {}", t.payload_bits());
        assert!(t.ratio() > 4.0);
    }

    #[test]
    fn zero_line_takes_unseeded_fast_path() {
        let mut link = small_link();
        let t = link.request(Address::new(0x40), LineData::zeroed());
        assert_eq!(t.kind(), TransferKind::Unseeded);
        assert_eq!(t.refs(), 0);
        // 1 flag + 2-bit count + 6-bit LBE zero run = 9 bits -> one flit.
        assert_eq!(t.payload_bits(), 9);
        assert_eq!(t.wire_bits(), 16);
    }

    #[test]
    fn incompressible_line_goes_raw() {
        let mut link = small_link();
        let mut rng = SplitMix64::new(1);
        let mut words = [0u32; 16];
        for w in &mut words {
            *w = rng.next_u32();
        }
        let t = link.request(Address::new(0x40), LineData::from_words(words));
        assert_eq!(t.kind(), TransferKind::Raw);
        assert_eq!(t.payload_bits(), 513);
    }

    #[test]
    fn remote_hit_is_free() {
        let mut link = small_link();
        link.request(Address::new(0x80), interesting_line(2));
        let t = link.request(Address::new(0x80), interesting_line(2));
        assert_eq!(t.kind(), TransferKind::RemoteHit);
        assert_eq!(link.stats().remote_hits, 1);
        assert_eq!(link.stats().fills, 1);
    }

    #[test]
    fn exclusive_grants_stay_out_of_dictionary() {
        let mut link = small_link();
        let a = interesting_line(3);
        link.request_exclusive(Address::new(0x0000), a);
        // A similar line cannot reference the exclusive one.
        let mut b = a;
        b.set_word(0, 0x0555_5555);
        let t = link.request(Address::new(0x7000), b);
        assert_ne!(t.kind(), TransferKind::Diff);
    }

    #[test]
    fn upgrade_desynchronizes_references() {
        let mut link = small_link();
        let a = interesting_line(4);
        link.request(Address::new(0x0000), a);
        // Dirty the line: it must no longer serve as a reference.
        assert!(link.remote_store(Address::new(0x0000), LineData::splat_word(9)));
        let mut b = a;
        b.set_word(1, 0x0666_6666);
        let t = link.request(Address::new(0x7100), b);
        assert_ne!(t.kind(), TransferKind::Diff);
    }

    #[test]
    fn writeback_compresses_against_remote_dictionary() {
        let mut link = small_link();
        let a = interesting_line(5);
        // Two shared siblings of the future dirty data.
        link.request(Address::new(0x0000), a);
        link.request(Address::new(0x2040), {
            let mut l = a;
            l.set_word(15, 0x0123_0000);
            l
        });
        // Dirty a third line whose content is near the shared ones.
        let addr = Address::new(0x4080);
        let mut dirty = a;
        dirty.set_word(2, 0x0777_7777);
        link.request(addr, dirty);
        assert!(link.remote_store(addr, dirty));
        let t = link.writeback(addr, dirty);
        assert_eq!(t.direction(), Direction::WriteBack);
        assert_eq!(t.kind(), TransferKind::Diff);
        assert!(t.wire_bits() < 513);
        // The home copy absorbed the data.
        let home_lid = link.home().lookup(addr).expect("present at home");
        assert_eq!(link.home().read_by_id(home_lid), Some(dirty));
    }

    #[test]
    fn reshared_line_is_indexed_by_its_new_data_only() {
        // Shared fill, store, write-back, then a home hit that re-shares
        // the absorbed data: each step must leave every table entry in a
        // bucket of its line's current insert signatures (invariant 4).
        let mut link = small_link();
        let addr = Address::new(0x0000);
        let old = interesting_line(8);
        let new = interesting_line(9);
        link.request(addr, old);
        link.check_invariants().expect("after shared fill");
        assert!(link.remote_store(addr, new));
        link.writeback(addr, new);
        link.check_invariants().expect("after write-back");
        link.request(addr, old);
        assert_eq!(link.stats().home_hits, 1);
        link.check_invariants().expect("after re-share");
    }

    #[test]
    fn writeback_of_a_shared_line_drops_its_remote_signatures() {
        // Writing back a line the remote holds Shared invalidates the
        // remote copy, so its remote-table entries must go with it.
        let mut link = small_link();
        let addr = Address::new(0x0000);
        let line = interesting_line(10);
        link.request(addr, line);
        link.writeback(addr, line);
        assert!(link.remote().lookup(addr).is_none());
        link.check_invariants()
            .expect("after write-back of a Shared line");
    }

    #[test]
    fn compression_disable_forces_raw() {
        let mut link = small_link();
        link.set_compression_enabled(false);
        let t = link.request(Address::new(0x40), LineData::zeroed());
        assert_eq!(t.kind(), TransferKind::Raw);
        link.set_compression_enabled(true);
        let t = link.request(Address::new(0x80), LineData::zeroed());
        assert_eq!(t.kind(), TransferKind::Unseeded);
    }

    #[test]
    fn reliable_mode_bypasses_the_lossy_channel() {
        // An aggressive schedule that corrupts nearly every frame: in
        // reliable mode not one fault fires, every frame is counted as a
        // reliable delivery, and each pays exactly one extra ack flit.
        let mut cfg = FaultConfig::lossless(7);
        cfg.bit_flip_per_bit = 0.05;
        cfg.truncate_prob = 0.5;
        cfg.drop_notice_prob = 0.5;
        let mut link = small_link();
        link.enable_fault_injection(cfg);
        link.set_reliable_mode(true);
        assert!(link.reliable_mode());
        for i in 0..24u64 {
            link.request(
                Address::from_line_number(i * 3),
                interesting_line((i % 4) as u32),
            );
        }
        let fs = *link.fault_stats().expect("fault mode");
        assert_eq!(fs.injected_frames, 0);
        assert_eq!(fs.nacks, 0);
        assert_eq!(fs.dropped_notices, 0);
        // Nothing crossed the lossy channel; every delivery took the
        // reliable path.
        assert_eq!(fs.frames_sent, 0);
        assert!(fs.reliable_frames >= 24);
        // One link-width ack per frame, on top of the guarded payloads.
        let s = *link.stats();
        assert_eq!(s.flits * 16, s.wire_bits);
        // Dropping back re-exposes the lossy channel.
        link.set_reliable_mode(false);
        for i in 0..24u64 {
            link.request(
                Address::from_line_number(512 + i * 3),
                interesting_line((i % 4) as u32),
            );
        }
        let fs = *link.fault_stats().expect("fault mode");
        assert!(fs.injected_frames > 0, "lossy channel resumed");
    }

    #[test]
    fn reliable_mode_preserves_the_fault_schedule() {
        // A reliable-mode window must not advance the channel RNG: a run
        // that warms its dictionaries through the reliable path sees the
        // same fault schedule afterwards as a run that did the same
        // warming before arming faults at all (both enter the lossy phase
        // with identical dictionaries and a fresh channel RNG).
        let cfg = FaultConfig::with_rate(0xDECA7, 5e-3);
        let run = |warm_in_reliable_mode: bool| {
            let mut link = small_link();
            let warm = |link: &mut CableLink| {
                for i in 0..16u64 {
                    link.request(
                        Address::from_line_number(1024 + i),
                        interesting_line((i % 3) as u32),
                    );
                }
            };
            if warm_in_reliable_mode {
                link.enable_fault_injection(cfg);
                link.set_reliable_mode(true);
                warm(&mut link);
                link.set_reliable_mode(false);
            } else {
                warm(&mut link);
                link.enable_fault_injection(cfg);
            }
            for i in 0..64u64 {
                link.request(
                    Address::from_line_number(i * 5),
                    interesting_line((i % 4) as u32),
                );
            }
            let fs = link.fault_stats().expect("fault mode");
            (
                fs.injected_frames,
                fs.injected_bit_flips,
                fs.injected_truncations,
                fs.nacks,
            )
        };
        let lossy_only = run(false);
        assert!(lossy_only.0 > 0, "schedule must actually fire");
        assert_eq!(run(true), lossy_only);
    }

    #[test]
    fn stats_account_every_fill() {
        let mut link = small_link();
        // Four content classes over 32 addresses: plenty of similarity.
        for i in 0..32u64 {
            link.request(
                Address::from_line_number(i * 3),
                interesting_line((i % 4) as u32),
            );
        }
        let s = link.stats();
        assert_eq!(s.fills, 32);
        assert_eq!(
            s.raw_transfers + s.unseeded_transfers + s.diff_transfers,
            32 + s.writebacks
        );
        assert_eq!(s.uncompressed_bits, 512 * (32 + s.writebacks));
        assert!(s.wire_bits >= s.payload_bits);
        assert!(s.compression_ratio() > 1.0);
    }

    #[test]
    fn evict_remote_keeps_tables_consistent() {
        let mut link = small_link();
        let a = interesting_line(6);
        link.request(Address::new(0x0000), a);
        link.evict_remote(Address::new(0x0000));
        assert!(link.remote().lookup(Address::new(0x0000)).is_none());
        // The evicted line can no longer be referenced (its WMT entry is
        // gone); a similar request must still verify cleanly.
        let mut b = a;
        b.set_word(1, 0x0888_8888);
        let t = link.request(Address::new(0x7200), b);
        assert_ne!(t.kind(), TransferKind::Diff);
    }

    #[test]
    fn dirty_evict_remote_writes_back() {
        let mut link = small_link();
        let addr = Address::new(0x100);
        link.request(addr, interesting_line(7));
        link.remote_store(addr, LineData::splat_word(3));
        link.evict_remote(addr);
        assert_eq!(link.stats().writebacks, 1);
        assert!(link.remote().lookup(addr).is_none());
    }

    #[test]
    fn all_engines_survive_mixed_traffic() {
        for engine in EngineKind::ALL {
            let mut cfg = CableConfig::memory_link_default()
                .with_geometries(
                    CacheGeometry::new(64 << 10, 8),
                    CacheGeometry::new(16 << 10, 4),
                )
                .with_engine(engine);
            cfg.data_access_count = 6;
            let mut link = CableLink::new(cfg);
            drive_random_traffic(&mut link, 400, 0xe500 + engine as u64);
            assert!(link.stats().compression_ratio() > 0.9);
        }
    }

    /// Random mixed traffic with heavy redundancy: every decoded transfer
    /// is verified internally, so survival is a correctness statement about
    /// the whole synchronization protocol.
    fn drive_random_traffic(link: &mut CableLink, ops: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut base_lines: Vec<LineData> = (0..8).map(|i| interesting_line(i * 31)).collect();
        for _ in 0..ops {
            let addr = Address::from_line_number(rng.next_bounded(2048));
            let mut line = base_lines[rng.next_bounded(8) as usize];
            // Mutate a couple of words to create near-duplicates.
            for _ in 0..rng.next_bounded(3) {
                line.set_word(rng.next_bounded(16) as usize, rng.next_u32());
            }
            match rng.next_bounded(10) {
                0..=5 => {
                    link.request(addr, line);
                }
                6..=7 => {
                    link.request_exclusive(addr, line);
                    link.remote_store(addr, line);
                }
                8 => {
                    link.evict_remote(addr);
                }
                _ => {
                    // Occasionally refresh a base line.
                    base_lines[rng.next_bounded(8) as usize] = line;
                }
            }
        }
    }

    #[test]
    fn synchronization_stress() {
        let mut link = small_link();
        drive_random_traffic(&mut link, 3000, 42);
        let s = link.stats();
        assert!(s.fills > 500);
        assert!(s.diff_transfers > 0, "redundant traffic must yield DIFFs");
        assert!(s.compression_ratio() > 1.0);
        link.check_invariants().expect("invariants after stress");
    }

    #[test]
    fn invariants_hold_throughout_random_traffic() {
        // The strongest synchronization statement: after every batch of
        // mixed operations the WMT, both hash tables and both caches agree.
        let mut link = small_link();
        for round in 0..30u64 {
            drive_random_traffic(&mut link, 100, 1000 + round);
            link.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }

    #[test]
    fn invariants_hold_in_non_inclusive_mode() {
        let mut cfg = CableConfig::non_inclusive().with_geometries(
            CacheGeometry::new(32 << 10, 8),
            CacheGeometry::new(16 << 10, 4),
        );
        cfg.data_access_count = 6;
        let mut link = CableLink::new(cfg);
        for round in 0..20u64 {
            drive_random_traffic(&mut link, 100, 2000 + round);
            link.check_invariants()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_random_traffic_always_verifies(seed in any::<u64>()) {
            let mut link = small_link();
            drive_random_traffic(&mut link, 300, seed);
            // All internal decode assertions passed; wire accounting sane.
            prop_assert!(link.stats().wire_bits >= link.stats().payload_bits);
        }

        #[test]
        fn prop_non_inclusive_traffic_always_verifies(seed in any::<u64>()) {
            let mut cfg = CableConfig::non_inclusive().with_geometries(
                CacheGeometry::new(64 << 10, 8),
                CacheGeometry::new(16 << 10, 4),
            );
            cfg.data_access_count = 6;
            let mut link = CableLink::new(cfg);
            drive_random_traffic(&mut link, 300, seed);
            prop_assert!(link.stats().wire_bits >= link.stats().payload_bits);
        }

        #[test]
        fn prop_toggle_lanes_match_scalar_oracle(seed in any::<u64>()) {
            // The lane toggle counter must match the flit-by-flit BitReader
            // walk exactly: toggles, flit count, and the carried last_flit
            // (which chains into the next payload's first XOR).
            let mut rng = SplitMix64::new(seed);
            for width in [8u32, 16, 24, 32, 40, 48, 56, 64] {
                let (mut lanes_last, mut scalar_last) = (0u64, 0u64);
                for _ in 0..8 {
                    let mut payload = BitWriter::new();
                    let bits = rng.next_bounded(600) as u32;
                    let mut left = bits;
                    while left > 0 {
                        let take = left.min(1 + (rng.next_bounded(64) as u32).min(63));
                        payload.write_bits(rng.next_u64() >> (64 - take), take);
                        left -= take;
                    }
                    let (bytes, len) = (payload.as_slice(), payload.len_bits());
                    prop_assert_eq!(
                        toggles_lanes(bytes, len, width, &mut lanes_last),
                        toggles_scalar(bytes, len, width, &mut scalar_last),
                        "(toggles, flits) diverged at width {}", width
                    );
                    prop_assert_eq!(lanes_last, scalar_last);
                }
            }
        }
    }

    fn non_inclusive_link() -> CableLink {
        let mut cfg = CableConfig::non_inclusive().with_geometries(
            CacheGeometry::new(64 << 10, 8),
            CacheGeometry::new(16 << 10, 4),
        );
        cfg.data_access_count = 6;
        CableLink::new(cfg)
    }

    #[test]
    fn non_inclusive_home_eviction_keeps_remote_copy() {
        // A 16-way remote set absorbs all nine conflicting lines while the
        // 8-way home set must evict — isolating the §IV-C behaviour.
        let mut cfg = CableConfig::non_inclusive().with_geometries(
            CacheGeometry::new(64 << 10, 8),
            CacheGeometry::new(16 << 10, 16),
        );
        cfg.data_access_count = 6;
        let mut link = CableLink::new(cfg);
        let sets = link.home().geometry().sets();
        let a = Address::from_line_number(0);
        link.request(a, interesting_line(1));
        // Overflow the home set holding `a` (8 ways).
        for t in 1..=8u64 {
            link.request(
                Address::from_line_number(t * sets),
                interesting_line(t as u32),
            );
        }
        assert!(
            link.home().lookup(a).is_none(),
            "home must have evicted the line"
        );
        // §IV-C: the remote copy survives the home eviction...
        assert!(link.remote().lookup(a).is_some());
        // ...and still services requests for free.
        let t = link.request(a, interesting_line(1));
        assert_eq!(t.kind(), TransferKind::RemoteHit);
    }

    #[test]
    fn inclusive_home_eviction_removes_remote_copy() {
        let mut link = small_link();
        let sets = link.home().geometry().sets();
        let a = Address::from_line_number(0);
        link.request(a, interesting_line(1));
        for t in 1..=8u64 {
            link.request(
                Address::from_line_number(t * sets),
                interesting_line(t as u32),
            );
        }
        assert!(link.home().lookup(a).is_none());
        assert!(
            link.remote().lookup(a).is_none(),
            "inclusion back-invalidates"
        );
    }

    #[test]
    fn non_inclusive_writebacks_never_use_references() {
        let mut link = non_inclusive_link();
        // Build up shared siblings that WOULD be references inclusively.
        let a = interesting_line(5);
        link.request(Address::new(0x0000), a);
        link.request(Address::new(0x2040), a);
        let addr = Address::new(0x4080);
        let mut dirty = a;
        dirty.set_word(2, 0x0777_7777);
        link.request(addr, dirty);
        assert!(link.remote_store(addr, dirty));
        let t = link.writeback(addr, dirty);
        assert_ne!(
            t.kind(),
            TransferKind::Diff,
            "§IV-C write-backs take the non-dictionary path"
        );
    }

    #[test]
    fn non_inclusive_stress_with_home_pressure() {
        // A home cache barely larger than the remote forces constant home
        // evictions while remote copies persist: the stale-reference
        // cleanup (WMT invalidation on home eviction) is what keeps every
        // transfer verifiable.
        let mut cfg = CableConfig::non_inclusive().with_geometries(
            CacheGeometry::new(32 << 10, 8),
            CacheGeometry::new(16 << 10, 4),
        );
        cfg.data_access_count = 6;
        let mut link = CableLink::new(cfg);
        drive_random_traffic(&mut link, 3000, 77);
        assert!(link.stats().fills > 500);
    }
}
