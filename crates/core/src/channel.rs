//! Deterministic fault injection for the CABLE link.
//!
//! CABLE's correctness rests on the home and remote endpoints staying in
//! lockstep (§III-F): a flipped payload bit yields a wrong reconstructed
//! line, a lost eviction notice leaves the home cache free to emit
//! references to lines the remote no longer holds. This module models an
//! *unreliable* interconnect so the recovery machinery in
//! [`CableLink`](crate::CableLink) can be exercised and measured:
//!
//! - [`FaultyChannel`] corrupts wire frames (bit flips, truncation) and
//!   drops or delays synchronization notices, driven by a seeded
//!   [`SplitMix64`] so every fault schedule is reproducible;
//! - [`FaultStats`] counts what was injected and what the protocol did
//!   about it (detections, NACKs, raw fallbacks, retransmitted bits);
//! - [`ResyncReport`] summarizes what `audit_and_resync()` had to repair.
//!
//! Control messages (NACKs and EvictSeq acknowledgements) are modeled as
//! reliable — real links protect them with heavy ECC precisely because they
//! are tiny; only data frames and eviction/upgrade notices take faults.
//!
//! # Examples
//!
//! ```
//! use cable_core::{FaultConfig, FaultyChannel};
//!
//! let mut channel = FaultyChannel::new(FaultConfig::with_rate(7, 0.05));
//! let frame = [0xabu8; 16];
//! let tx = channel.transmit(&frame, 128);
//! assert!(tx.len_bits <= 128);
//! // Same seed, same schedule: fault injection is fully deterministic.
//! let mut again = FaultyChannel::new(FaultConfig::with_rate(7, 0.05));
//! assert_eq!(again.transmit(&frame, 128).bytes, tx.bytes);
//! ```

use crate::evict_buffer::{EvictionBuffer, EVICT_BUFFER_CAPACITY};
use cable_cache::LineId;
use cable_common::{div_ceil, Address, SplitMix64};
use std::collections::{BTreeSet, VecDeque};
use std::fmt;

/// Fault-injection parameters for one link. `Copy` so it can ride inside
/// simulator configs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// RNG seed; the entire fault schedule is a pure function of it.
    pub seed: u64,
    /// Per-bit probability that a transmitted frame bit is flipped.
    pub bit_flip_per_bit: f64,
    /// Per-frame probability that the frame is cut short at a random bit.
    pub truncate_prob: f64,
    /// Per-notice probability that an eviction/upgrade notice is lost.
    pub drop_notice_prob: f64,
    /// Per-notice probability that a notice is delayed by [`FaultConfig::delay_ops`].
    pub delay_notice_prob: f64,
    /// How many link operations a delayed notice lags behind.
    pub delay_ops: u64,
    /// Retransmissions of the *same compressed frame* before degrading to raw.
    pub compressed_retries: u32,
    /// Raw retransmissions before escalating to the reliable path.
    pub raw_retries: u32,
}

impl FaultConfig {
    /// A schedule with no faults: frames pass untouched, notices always
    /// deliver. Useful as the guarded-but-lossless baseline of a sweep.
    #[must_use]
    pub fn lossless(seed: u64) -> Self {
        FaultConfig {
            seed,
            bit_flip_per_bit: 0.0,
            truncate_prob: 0.0,
            drop_notice_prob: 0.0,
            delay_notice_prob: 0.0,
            delay_ops: 16,
            compressed_retries: 2,
            raw_retries: 32,
        }
    }

    /// A schedule scaled from a single per-bit flip rate: frame truncation,
    /// notice loss and notice delay scale proportionally (clamped), which is
    /// how the `BENCH_fault` degradation sweep parameterizes severity.
    #[must_use]
    pub fn with_rate(seed: u64, bit_flip_per_bit: f64) -> Self {
        FaultConfig {
            bit_flip_per_bit,
            truncate_prob: (bit_flip_per_bit * 20.0).min(0.5),
            drop_notice_prob: (bit_flip_per_bit * 50.0).min(0.5),
            delay_notice_prob: (bit_flip_per_bit * 25.0).min(0.25),
            ..Self::lossless(seed)
        }
    }

    /// Validates probability ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("bit_flip_per_bit", self.bit_flip_per_bit),
            ("truncate_prob", self.truncate_prob),
            ("drop_notice_prob", self.drop_notice_prob),
            ("delay_notice_prob", self.delay_notice_prob),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} = {p} is not a probability"));
            }
        }
        Ok(())
    }
}

/// Counters for injected faults and the protocol's responses.
///
/// The key invariant the quick suite asserts: `nacks >= injected_frames`
/// (every effectively corrupted frame fails its CRC; stale references add
/// detections of their own). Every NACKed failure is repaired by
/// retransmission or, past the retry budget, by the reliable escalation
/// path — no delivery is ever wrong.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames pushed through the channel, including retransmissions.
    pub frames_sent: u64,
    /// Frames that were effectively corrupted (at least one bit changed).
    pub injected_frames: u64,
    /// Individual bit flips injected.
    pub injected_bit_flips: u64,
    /// Frame truncations injected.
    pub injected_truncations: u64,
    /// Eviction/upgrade notices dropped by the channel.
    pub dropped_notices: u64,
    /// Notices delayed by the channel.
    pub delayed_notices: u64,
    /// Decode failures detected at the receiver (CRC, parse, stale refs),
    /// each answered by one NACK control message to the transmitter. The
    /// protocol always delivers in the end (retransmit, raw fallback or
    /// reliable escalation), so every NACKed failure is also repaired.
    pub nacks: u64,
    /// Transfers that degraded to a raw retransmission.
    pub fallback_raw: u64,
    /// Wire bits spent beyond each transfer's first transmission.
    pub retransmitted_bits: u64,
    /// Deliveries that exhausted the raw retry budget and escalated to the
    /// reliable path.
    pub escalations: u64,
    /// Frames delivered over the escalated reliable path while the link was
    /// held in reliable mode (the degradation ladder's `LinkOff` rung);
    /// these bypass the lossy channel entirely.
    pub reliable_frames: u64,
    /// Stale fill references resolved from the eviction buffer (§IV-A).
    pub evict_buffer_hits: u64,
    /// `audit_and_resync()` invocations.
    pub resyncs: u64,
    /// Individual repairs performed across all resyncs.
    pub resync_repairs: u64,
}

impl FaultStats {
    /// Folds `other` into `self`, field by field — the reduction
    /// aggregate views (a whole fabric, the two directions of one mesh
    /// wire) use to sum per-pipeline stats.
    pub fn accumulate(&mut self, other: &FaultStats) {
        self.frames_sent += other.frames_sent;
        self.injected_frames += other.injected_frames;
        self.injected_bit_flips += other.injected_bit_flips;
        self.injected_truncations += other.injected_truncations;
        self.dropped_notices += other.dropped_notices;
        self.delayed_notices += other.delayed_notices;
        self.nacks += other.nacks;
        self.fallback_raw += other.fallback_raw;
        self.retransmitted_bits += other.retransmitted_bits;
        self.escalations += other.escalations;
        self.reliable_frames += other.reliable_frames;
        self.evict_buffer_hits += other.evict_buffer_hits;
        self.resyncs += other.resyncs;
        self.resync_repairs += other.resync_repairs;
    }
}

/// The outcome of pushing one frame through a [`FaultyChannel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transmission {
    /// Delivered frame bytes (possibly corrupted/truncated).
    pub bytes: Vec<u8>,
    /// Delivered frame length in bits (shortened by truncation).
    pub len_bits: usize,
    /// Whether the channel changed anything.
    pub corrupted: bool,
}

/// What the channel did with a synchronization notice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NoticeFate {
    /// Delivered in order.
    Deliver,
    /// Lost; the receiver will never see it.
    Drop,
    /// Delivered late, after [`FaultConfig::delay_ops`] link operations.
    Delay,
}

/// A deterministic lossy channel: flips bits, truncates frames, and loses
/// or delays notices according to a seeded schedule.
#[derive(Clone, Debug)]
pub struct FaultyChannel {
    cfg: FaultConfig,
    rng: SplitMix64,
    stats: FaultStats,
}

impl FaultyChannel {
    /// Creates a channel with the given fault schedule.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.validate()` fails.
    #[must_use]
    pub fn new(cfg: FaultConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid FaultConfig: {e}");
        }
        FaultyChannel {
            cfg,
            rng: SplitMix64::new(cfg.seed),
            stats: FaultStats::default(),
        }
    }

    /// The configured fault schedule.
    #[must_use]
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Injection and recovery counters so far.
    #[must_use]
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Mutable access for the link's recovery protocol to record
    /// detections, NACKs and repairs.
    pub(crate) fn stats_mut(&mut self) -> &mut FaultStats {
        &mut self.stats
    }

    /// Clears the counters (the RNG stream continues where it was).
    pub fn reset_stats(&mut self) {
        self.stats = FaultStats::default();
    }

    /// Pushes a frame of `len_bits` bits through the channel, applying
    /// truncation and bit flips per the schedule.
    ///
    /// # Panics
    ///
    /// Panics if `len_bits` exceeds the capacity of `bytes`.
    pub fn transmit(&mut self, bytes: &[u8], len_bits: usize) -> Transmission {
        assert!(
            len_bits <= bytes.len() * 8,
            "frame length exceeds provided bytes"
        );
        self.stats.frames_sent += 1;
        let mut len = len_bits;
        let mut out = bytes[..div_ceil(len_bits as u64, 8) as usize].to_vec();
        let mut corrupted = false;
        if len > 1 && self.cfg.truncate_prob > 0.0 && self.rng.next_bool(self.cfg.truncate_prob) {
            len = 1 + self.rng.next_bounded(len as u64 - 1) as usize;
            out.truncate(div_ceil(len as u64, 8) as usize);
            let used = len % 8;
            if used != 0 {
                // Keep the canonical zero padding in the final byte.
                let last = out.last_mut().expect("len > 0");
                *last &= 0xff << (8 - used);
            }
            self.stats.injected_truncations += 1;
            corrupted = true;
        }
        if self.cfg.bit_flip_per_bit > 0.0 {
            for i in 0..len {
                if self.rng.next_bool(self.cfg.bit_flip_per_bit) {
                    out[i / 8] ^= 0x80 >> (i % 8);
                    self.stats.injected_bit_flips += 1;
                    corrupted = true;
                }
            }
        }
        if corrupted {
            self.stats.injected_frames += 1;
        }
        Transmission {
            bytes: out,
            len_bits: len,
            corrupted,
        }
    }

    /// Decides the fate of one synchronization notice.
    pub fn notice_fate(&mut self) -> NoticeFate {
        if self.cfg.drop_notice_prob > 0.0 && self.rng.next_bool(self.cfg.drop_notice_prob) {
            self.stats.dropped_notices += 1;
            return NoticeFate::Drop;
        }
        if self.cfg.delay_notice_prob > 0.0 && self.rng.next_bool(self.cfg.delay_notice_prob) {
            self.stats.delayed_notices += 1;
            return NoticeFate::Delay;
        }
        NoticeFate::Deliver
    }
}

/// What `audit_and_resync()` found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResyncReport {
    /// Delayed or buffered notices replayed to the home side.
    pub replayed_notices: u64,
    /// Stale WMT mappings purged (remote slot empty or re-tagged).
    pub purged_wmt: u64,
    /// WMT mappings restored for remote lines the home still holds.
    pub restored_wmt: u64,
    /// Remote lines invalidated because the home no longer holds them.
    pub invalidated_remote: u64,
    /// Missed upgrade notices replayed on the home side.
    pub replayed_upgrades: u64,
    /// Shared lines purged because home and remote contents diverged.
    pub divergence_purges: u64,
    /// Dangling home hash-table entries scrubbed.
    pub scrubbed_home_sigs: u64,
    /// Dangling remote hash-table entries scrubbed.
    pub scrubbed_remote_sigs: u64,
}

impl ResyncReport {
    /// Total repairs across all categories (replays of already-applied
    /// notices are idempotent no-ops and still counted as replays).
    #[must_use]
    pub fn total_repairs(&self) -> u64 {
        self.purged_wmt
            + self.restored_wmt
            + self.invalidated_remote
            + self.replayed_upgrades
            + self.divergence_purges
            + self.scrubbed_home_sigs
            + self.scrubbed_remote_sigs
    }
}

impl fmt::Display for ResyncReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resync: {} replayed, {} wmt purged, {} wmt restored, {} remote invalidated, \
             {} upgrades replayed, {} divergences purged, {}+{} sigs scrubbed",
            self.replayed_notices,
            self.purged_wmt,
            self.restored_wmt,
            self.invalidated_remote,
            self.replayed_upgrades,
            self.divergence_purges,
            self.scrubbed_home_sigs,
            self.scrubbed_remote_sigs,
        )
    }
}

/// A synchronization message the home side must eventually observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Notice {
    /// The remote cleanly evicted `remote_lid` (held `addr`); EvictSeq `seq`.
    Eviction {
        /// Sequence number from the eviction buffer.
        seq: u64,
        /// The vacated remote slot.
        remote_lid: LineId,
        /// The address the slot held.
        addr: Address,
    },
    /// The remote upgraded `addr` from Shared to Modified.
    Upgrade {
        /// The upgraded address.
        addr: Address,
    },
}

/// A delayed notice waiting for its due operation count.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingNotice {
    pub due_op: u64,
    pub notice: Notice,
}

/// Per-link fault-mode state: the lossy channel, the §IV-A eviction buffer,
/// delayed notices, and cumulative-acknowledgement tracking.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    pub channel: FaultyChannel,
    pub evict_buffer: EvictionBuffer,
    pub pending: VecDeque<PendingNotice>,
    /// Link operations observed (drives delayed-notice delivery).
    pub op: u64,
    /// EvictSeqs processed out of order, above the contiguous watermark.
    processed: BTreeSet<u64>,
    /// Highest EvictSeq with every predecessor also processed.
    contiguous: u64,
}

impl FaultState {
    pub fn new(cfg: FaultConfig) -> Self {
        FaultState {
            channel: FaultyChannel::new(cfg),
            evict_buffer: EvictionBuffer::new(EVICT_BUFFER_CAPACITY),
            pending: VecDeque::new(),
            op: 0,
            processed: BTreeSet::new(),
            contiguous: 0,
        }
    }

    /// Records that the home side processed EvictSeq `seq` and returns the
    /// new *cumulative* acknowledgement watermark: the buffer may only drop
    /// entries whose every predecessor was also processed, otherwise a
    /// dropped notice's entry would be discarded before it can be replayed.
    pub fn record_processed(&mut self, seq: u64) -> u64 {
        if seq > self.contiguous {
            self.processed.insert(seq);
        }
        while self.processed.remove(&(self.contiguous + 1)) {
            self.contiguous += 1;
        }
        self.contiguous
    }

    /// Forces the processed watermark up to `seq` — the resync audit calls
    /// this after replaying every buffered eviction, closing sequence gaps
    /// left by notices whose buffer entries were dropped on overflow.
    pub fn force_processed_up_to(&mut self, seq: u64) {
        self.contiguous = self.contiguous.max(seq);
        let contiguous = self.contiguous;
        self.processed.retain(|&s| s > contiguous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_channel_passes_frames_untouched() {
        let mut ch = FaultyChannel::new(FaultConfig::lossless(1));
        let frame = [0x5a; 9];
        let tx = ch.transmit(&frame, 68);
        assert!(!tx.corrupted);
        assert_eq!(tx.len_bits, 68);
        assert_eq!(tx.bytes, frame);
        assert_eq!(ch.stats().injected_frames, 0);
        assert_eq!(ch.stats().frames_sent, 1);
        assert_eq!(ch.notice_fate(), NoticeFate::Deliver);
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let cfg = FaultConfig::with_rate(99, 0.02);
        let frame: Vec<u8> = (0..64u16).map(|i| i as u8).collect();
        let run = |mut ch: FaultyChannel| {
            let mut log = Vec::new();
            for _ in 0..50 {
                let tx = ch.transmit(&frame, 512);
                log.push((tx.bytes, tx.len_bits));
                log.push((vec![ch.notice_fate() as u8], 0));
            }
            log
        };
        assert_eq!(run(FaultyChannel::new(cfg)), run(FaultyChannel::new(cfg)));
        let other = FaultConfig::with_rate(100, 0.02);
        assert_ne!(run(FaultyChannel::new(cfg)), run(FaultyChannel::new(other)));
    }

    #[test]
    fn heavy_flip_rate_corrupts_and_counts() {
        let mut ch = FaultyChannel::new(FaultConfig {
            bit_flip_per_bit: 0.5,
            ..FaultConfig::lossless(3)
        });
        let tx = ch.transmit(&[0u8; 64], 512);
        assert!(tx.corrupted);
        assert_eq!(
            u64::from(tx.bytes.iter().map(|b| b.count_ones()).sum::<u32>()),
            ch.stats().injected_bit_flips
        );
        assert_eq!(ch.stats().injected_frames, 1);
    }

    #[test]
    fn truncation_shortens_and_zeroes_padding() {
        let mut ch = FaultyChannel::new(FaultConfig {
            truncate_prob: 1.0,
            ..FaultConfig::lossless(4)
        });
        for _ in 0..100 {
            let tx = ch.transmit(&[0xff; 8], 64);
            assert!(tx.corrupted);
            assert!((1..64).contains(&tx.len_bits));
            assert_eq!(tx.bytes.len(), tx.len_bits.div_ceil(8));
            let used = tx.len_bits % 8;
            if used != 0 {
                assert_eq!(tx.bytes.last().unwrap() & (0xff >> used), 0);
            }
        }
        assert_eq!(ch.stats().injected_truncations, 100);
    }

    #[test]
    fn cumulative_ack_waits_for_gaps() {
        let mut fs = FaultState::new(FaultConfig::lossless(1));
        assert_eq!(fs.record_processed(2), 0, "gap at 1 blocks the watermark");
        assert_eq!(fs.record_processed(3), 0);
        assert_eq!(fs.record_processed(1), 3, "filling the gap releases all");
        assert_eq!(fs.record_processed(1), 3, "re-processing is idempotent");
        assert_eq!(fs.record_processed(5), 3);
        assert_eq!(fs.record_processed(4), 5);
    }

    #[test]
    fn with_rate_scales_and_validates() {
        let cfg = FaultConfig::with_rate(1, 1e-3);
        assert!(cfg.validate().is_ok());
        assert!(cfg.drop_notice_prob > cfg.bit_flip_per_bit);
        let saturated = FaultConfig::with_rate(1, 0.5);
        assert!(
            saturated.validate().is_ok(),
            "clamps keep probabilities legal"
        );
        assert!(FaultConfig {
            bit_flip_per_bit: 1.5,
            ..FaultConfig::lossless(0)
        }
        .validate()
        .is_err());
    }
}
