//! The two link controllers of `cable-sim`, one per job.
//!
//! [`OnOffController`] is the on/off compression control of §VI-D: "We
//! tried a simple on/off compression control scheme where, when sampled
//! with a 1ms period, compression is turned off when effective bandwidth
//! usage is below 80% and turned on when it is over 90%." This nullifies
//! the single-threaded latency penalty while costing only ~2.3% throughput
//! at high thread counts.
//!
//! *Effective bandwidth usage* is demand measured in uncompressed-equivalent
//! bytes against the link's raw capacity. Measuring the *wire* instead
//! would be self-defeating: successful compression empties the wire, the
//! controller would switch off, the raw traffic would saturate, and the
//! system would oscillate — precisely what the demand metric avoids.
//!
//! # The degradation ladder
//!
//! [`DegradeLadder`] closes the fault loop: per sample window (counted in
//! *link operations*, never sim time, so decisions do not depend on link
//! bandwidth or scheduling) it inspects its link's NACK-window
//! observables and steps a ladder
//!
//! ```text
//! Compressed ──demote──▶ RawOnly ──demote──▶ LinkOff (reliable mode)
//!      ◀──promote (quiet)──      ◀──promote (quiet)──
//! ```
//!
//! demoting one rung when NACK density or retry cost exceeds the policy
//! thresholds and re-arming one rung per quiet window. Every transition
//! is emitted as a telemetry marker and counted in [`DegradationStats`].
//! The ladder also schedules periodic `audit_and_resync` repairs, whose
//! wire cost callers charge to link busy time.

use crate::thread::CompressedLink;
use cable_telemetry::{Counter, Event, Gauge, Telemetry};

/// The §VI-D sampling period (1 ms in picoseconds).
pub(crate) const SAMPLE_PERIOD_PS: u64 = 1_000_000_000;
/// §VI-D turns compression off below this effective bandwidth usage...
const OFF_BELOW: f64 = 0.8;
/// ...and back on above this one.
const ON_ABOVE: f64 = 0.9;

/// One rung of the degradation ladder, healthiest first.
///
/// The ordinal order is meaningful: `Compressed < RawOnly < LinkOff`,
/// and the ladder only ever moves one rung at a time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradeLevel {
    /// Healthy: the link compresses.
    #[default]
    Compressed = 0,
    /// Sustained fault pressure: compression forced off so every frame is
    /// raw (cheap to retry, immune to reference staleness).
    RawOnly = 1,
    /// Severe fault pressure: the lossy channel is bypassed entirely via
    /// the link's escalated reliable mode (one ack flit per frame).
    LinkOff = 2,
}

impl DegradeLevel {
    /// The next rung down (towards `LinkOff`); saturates.
    #[must_use]
    pub fn demoted(self) -> Self {
        match self {
            DegradeLevel::Compressed => DegradeLevel::RawOnly,
            DegradeLevel::RawOnly | DegradeLevel::LinkOff => DegradeLevel::LinkOff,
        }
    }

    /// The next rung up (towards `Compressed`); saturates.
    #[must_use]
    pub fn promoted(self) -> Self {
        match self {
            DegradeLevel::LinkOff => DegradeLevel::RawOnly,
            DegradeLevel::RawOnly | DegradeLevel::Compressed => DegradeLevel::Compressed,
        }
    }
}

/// Thresholds and cadences for the closed-loop degradation state machine.
///
/// All windows are counted in *link operations* (fills, write-backs,
/// remote hits — anything that calls `note_op`), never in simulated time:
/// the ladder must make identical decisions under the event-driven and
/// the linear scheduler, at every link bandwidth, and operation counts
/// are the only clock they share exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegradePolicy {
    /// Sample window length in link operations.
    pub window_ops: u32,
    /// Demote when the window's NACKs per 1000 operations exceed this.
    pub demote_nacks_per_1k: u64,
    /// Demote when the window's retransmitted bits exceed this fraction
    /// (in permille) of the window's total wire bits.
    pub demote_retry_permille: u64,
    /// Consecutive NACK-free windows required before re-arming one rung.
    pub quiet_windows: u32,
    /// Scheduled `audit_and_resync` cadence in link operations
    /// (0 disables scheduled resync).
    pub resync_interval_ops: u64,
}

impl DegradePolicy {
    /// Defaults matched to the repo's fault sweeps: 256-op windows, demote
    /// at >50 NACKs per 1k ops or >10% retry overhead, re-arm after two
    /// quiet windows, resync every 1024 operations.
    #[must_use]
    pub fn paper_defaults() -> Self {
        DegradePolicy {
            window_ops: 256,
            demote_nacks_per_1k: 50,
            demote_retry_permille: 100,
            quiet_windows: 2,
            resync_interval_ops: 1024,
        }
    }

    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.window_ops == 0 {
            return Err("window_ops must be positive".into());
        }
        if self.quiet_windows == 0 {
            return Err("quiet_windows must be positive".into());
        }
        Ok(())
    }
}

/// Counters describing everything the degradation state machine did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DegradationStats {
    /// Sample windows evaluated.
    pub windows: u64,
    /// Rungs stepped down (towards `LinkOff`).
    pub demotions: u64,
    /// Rungs re-armed (towards `Compressed`).
    pub promotions: u64,
    /// Windows spent at each rung (counted at the level the window ran
    /// at, before any transition it triggered).
    pub windows_compressed: u64,
    /// Windows spent forced raw.
    pub windows_raw_only: u64,
    /// Windows spent in escalated reliable mode.
    pub windows_link_off: u64,
    /// Scheduled `audit_and_resync` events fired.
    pub scheduled_resyncs: u64,
    /// Repairs those resyncs performed (see `ResyncReport::total_repairs`).
    pub resync_repairs: u64,
    /// Wire bits charged for scheduled resync traffic.
    pub resync_cost_bits: u64,
}

impl DegradationStats {
    /// Adds `other` into `self` (for fabric-wide aggregation).
    pub fn accumulate(&mut self, other: &DegradationStats) {
        self.windows += other.windows;
        self.demotions += other.demotions;
        self.promotions += other.promotions;
        self.windows_compressed += other.windows_compressed;
        self.windows_raw_only += other.windows_raw_only;
        self.windows_link_off += other.windows_link_off;
        self.scheduled_resyncs += other.scheduled_resyncs;
        self.resync_repairs += other.resync_repairs;
        self.resync_cost_bits += other.resync_cost_bits;
    }
}

/// The §VI-D hysteresis controller for one link pipeline.
#[derive(Clone, Debug)]
pub struct OnOffController {
    period_ps: u64,
    capacity_bits_per_sec: f64,
    window_start_ps: u64,
    window_start_demand_bits: u64,
    enabled: bool,
    toggles: u64,
    /// Window baselines for the observability deltas (wire traffic and
    /// NACK count at the previous sample boundary).
    window_start_wire_bits: u64,
    window_start_nacks: u64,
    tel_usage: Gauge,
    tel_ratio: Gauge,
    tel_nacks: Gauge,
    tel_enabled: Gauge,
    tel_windows: Counter,
    tel_toggles: Counter,
}

impl OnOffController {
    /// Creates the paper's controller (1 ms period, 80%/90% thresholds)
    /// for a link with `capacity_bytes_per_sec` of raw bandwidth available
    /// to this pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not positive.
    #[must_use]
    pub fn new(capacity_bytes_per_sec: f64) -> Self {
        assert!(capacity_bytes_per_sec > 0.0, "capacity must be positive");
        OnOffController {
            period_ps: SAMPLE_PERIOD_PS,
            capacity_bits_per_sec: capacity_bytes_per_sec * 8.0,
            window_start_ps: 0,
            window_start_demand_bits: 0,
            enabled: true,
            toggles: 0,
            window_start_wire_bits: 0,
            window_start_nacks: 0,
            tel_usage: Gauge::default(),
            tel_ratio: Gauge::default(),
            tel_nacks: Gauge::default(),
            tel_enabled: Gauge::default(),
            tel_windows: Counter::default(),
            tel_toggles: Counter::default(),
        }
    }

    /// The paper's controller sampling every `period_ps` instead of every
    /// 1 ms, so short test runs close windows.
    #[cfg(test)]
    pub(crate) fn with_period(capacity_bytes_per_sec: f64, period_ps: u64) -> Self {
        assert!(period_ps > 0, "period must be positive");
        OnOffController {
            period_ps,
            ..Self::new(capacity_bytes_per_sec)
        }
    }

    /// Wires the controller's per-window observables through `tel`'s
    /// metrics registry. Pure observation: the decision logic and its
    /// outcomes are bit-identical with telemetry on or off.
    ///
    /// Published at each sample boundary:
    /// - `adaptive.usage_permille` (gauge) — effective bandwidth usage,
    ///   the quantity the hysteresis thresholds compare against;
    /// - `adaptive.window_ratio_permille` (gauge) — the window's
    ///   compression ratio (uncompressed-equivalent bits over wire
    ///   bits), 1000 = no compression benefit;
    /// - `adaptive.window_nacks` (gauge) — NACKs observed this window;
    /// - `adaptive.compression_enabled` (gauge) — the decision, 0/1;
    /// - `adaptive.windows` / `adaptive.toggles` (counters).
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel_usage = tel.gauge("adaptive.usage_permille");
        self.tel_ratio = tel.gauge("adaptive.window_ratio_permille");
        self.tel_nacks = tel.gauge("adaptive.window_nacks");
        self.tel_enabled = tel.gauge("adaptive.compression_enabled");
        self.tel_windows = tel.counter("adaptive.windows");
        self.tel_toggles = tel.counter("adaptive.toggles");
        self.tel_enabled.set(u64::from(self.enabled));
    }

    /// Whether compression is currently enabled.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Number of on/off transitions so far.
    #[must_use]
    pub fn toggles(&self) -> u64 {
        self.toggles
    }

    /// Samples the link's demand at `now_ps`; on a period boundary applies
    /// the hysteresis policy to `link`.
    pub fn observe(&mut self, now_ps: u64, link: &mut CompressedLink) {
        if now_ps < self.window_start_ps + self.period_ps {
            return;
        }
        let elapsed_s = (now_ps - self.window_start_ps) as f64 * 1e-12;
        let demand_delta = link
            .stats()
            .uncompressed_bits
            .saturating_sub(self.window_start_demand_bits);
        let usage = demand_delta as f64 / (self.capacity_bits_per_sec * elapsed_s);
        let next = if usage < OFF_BELOW {
            false
        } else if usage > ON_ABOVE {
            true
        } else {
            self.enabled
        };
        if next != self.enabled {
            self.enabled = next;
            self.toggles += 1;
            link.set_compression_enabled(next);
            self.tel_toggles.inc();
        }
        // Observability: publish the window's view before resetting the
        // baselines. One saturating_sub + stores per millisecond-scale
        // window; the decision above never reads these.
        let wire_delta = link
            .stats()
            .wire_bits
            .saturating_sub(self.window_start_wire_bits);
        let nacks_now = link.fault_stats().map_or(0, |fs| fs.nacks);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        self.tel_usage.set((usage.max(0.0) * 1000.0) as u64);
        self.tel_ratio
            .set((demand_delta * 1000).checked_div(wire_delta).unwrap_or(0));
        self.tel_nacks
            .set(nacks_now.saturating_sub(self.window_start_nacks));
        self.tel_enabled.set(u64::from(self.enabled));
        self.tel_windows.inc();
        self.window_start_ps = now_ps;
        self.window_start_demand_bits = link.stats().uncompressed_bits;
        self.window_start_wire_bits = link.stats().wire_bits;
        self.window_start_nacks = nacks_now;
    }
}

/// The closed-loop degradation ladder for one link pipeline.
#[derive(Clone, Debug)]
pub struct DegradeLadder {
    policy: DegradePolicy,
    /// Link width for pricing resync traffic.
    link_width_bits: u32,
    level: DegradeLevel,
    /// Consecutive NACK-free fault windows.
    quiet_streak: u32,
    /// Link operations seen so far (the fault-window and resync clock —
    /// never sim time, see [`DegradePolicy`]).
    ops: u64,
    /// Fault-window baselines (values at the previous window boundary).
    window_nacks: u64,
    window_retrans_bits: u64,
    window_wire_bits: u64,
    stats: DegradationStats,
    tel: Telemetry,
    tel_demotions: Counter,
    tel_promotions: Counter,
}

impl DegradeLadder {
    /// A ladder at [`DegradeLevel::Compressed`] for a fresh link.
    /// `link_width_bits` prices scheduled-resync wire traffic (control
    /// flits are one link width each).
    ///
    /// # Panics
    ///
    /// Panics if `policy.validate()` fails or the link width is zero.
    #[must_use]
    pub fn new(policy: DegradePolicy, link_width_bits: u32) -> Self {
        if let Err(e) = policy.validate() {
            panic!("invalid DegradePolicy: {e}");
        }
        assert!(link_width_bits > 0, "link width must be positive");
        DegradeLadder {
            policy,
            link_width_bits,
            level: DegradeLevel::Compressed,
            quiet_streak: 0,
            ops: 0,
            window_nacks: 0,
            window_retrans_bits: 0,
            window_wire_bits: 0,
            stats: DegradationStats::default(),
            tel: Telemetry::default(),
            tel_demotions: Counter::default(),
            tel_promotions: Counter::default(),
        }
    }

    /// Publishes the ladder through `tel`. Pure observation: decisions
    /// are bit-identical with telemetry on or off.
    ///
    /// - `adaptive.demotions` / `adaptive.promotions` (counters);
    /// - `degrade.demote` / `degrade.promote` trace markers carrying the
    ///   new rung as their value.
    ///
    /// The rung gauge, `adaptive.degrade_level`, is the worst rung over
    /// every ladder of a fabric, so `FabricSim` publishes it.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
        self.tel_demotions = tel.counter("adaptive.demotions");
        self.tel_promotions = tel.counter("adaptive.promotions");
    }

    /// The current rung.
    #[must_use]
    pub fn level(&self) -> DegradeLevel {
        self.level
    }

    /// Everything the ladder did so far.
    #[must_use]
    pub fn degradation_stats(&self) -> DegradationStats {
        self.stats
    }

    /// Notes one link operation (fill, write-back or remote hit): closes a
    /// fault window every `window_ops` operations (stepping the ladder if
    /// its thresholds say so) and fires a scheduled `audit_and_resync`
    /// every `resync_interval_ops`.
    ///
    /// Returns the wire cost in bits of a scheduled resync when one fired
    /// on this operation (at most one per call) so the caller can charge
    /// it to link busy time; `None` otherwise. Purely functional: decision
    /// state never reads the simulation clock.
    pub fn note_op(&mut self, link: &mut CompressedLink) -> Option<u64> {
        self.ops += 1;
        if self.ops.is_multiple_of(u64::from(self.policy.window_ops)) {
            self.sample_fault_window(link);
        }
        // A zero interval never fires: no positive count is a multiple
        // of zero.
        self.ops
            .is_multiple_of(self.policy.resync_interval_ops)
            .then(|| self.scheduled_resync(link))
    }

    /// Closes one fault window: demote one rung when NACK density or
    /// retry cost exceeds the thresholds, re-arm one rung after enough
    /// consecutive quiet windows.
    fn sample_fault_window(&mut self, link: &mut CompressedLink) {
        self.stats.windows += 1;
        match self.level {
            DegradeLevel::Compressed => self.stats.windows_compressed += 1,
            DegradeLevel::RawOnly => self.stats.windows_raw_only += 1,
            DegradeLevel::LinkOff => self.stats.windows_link_off += 1,
        }
        let (nacks, retrans) = link
            .fault_stats()
            .map_or((0, 0), |fs| (fs.nacks, fs.retransmitted_bits));
        let wire = link.stats().wire_bits;
        let nacks_delta = nacks.saturating_sub(self.window_nacks);
        let retrans_delta = retrans.saturating_sub(self.window_retrans_bits);
        let wire_delta = wire.saturating_sub(self.window_wire_bits);
        self.window_nacks = nacks;
        self.window_retrans_bits = retrans;
        self.window_wire_bits = wire;

        let policy = self.policy;
        let nacks_per_1k = nacks_delta * 1000 / u64::from(policy.window_ops);
        let retry_permille = retrans_delta * 1000 / wire_delta.max(1);
        if nacks_per_1k > policy.demote_nacks_per_1k
            || retry_permille > policy.demote_retry_permille
        {
            self.quiet_streak = 0;
            self.step(self.level.demoted(), link);
        } else if nacks_delta == 0 {
            self.quiet_streak += 1;
            if self.quiet_streak >= policy.quiet_windows {
                self.quiet_streak = 0;
                self.step(self.level.promoted(), link);
            }
        } else {
            self.quiet_streak = 0;
        }
    }

    /// Moves the ladder to `next` (a no-op at either end), applying the
    /// rung to the link and emitting the transition marker.
    fn step(&mut self, next: DegradeLevel, link: &mut CompressedLink) {
        if next == self.level {
            return;
        }
        let (name, counter) = if next > self.level {
            self.stats.demotions += 1;
            ("degrade.demote", &self.tel_demotions)
        } else {
            self.stats.promotions += 1;
            ("degrade.promote", &self.tel_promotions)
        };
        counter.inc();
        self.tel.record(Event::Marker {
            name,
            value: next as u64,
        });
        self.level = next;
        link.set_compression_enabled(next == DegradeLevel::Compressed);
        link.set_reliable_mode(next == DegradeLevel::LinkOff);
    }

    /// Fires one scheduled audit-and-resync and prices its wire traffic:
    /// a request/acknowledge control-flit pair plus one flit per replayed
    /// notice and per repair actually performed.
    fn scheduled_resync(&mut self, link: &mut CompressedLink) -> u64 {
        let report = link.audit_and_resync();
        let repairs = report.total_repairs();
        let cost_bits = (2 + report.replayed_notices + repairs) * u64::from(self.link_width_bits);
        self.stats.scheduled_resyncs += 1;
        self.stats.resync_repairs += repairs;
        self.stats.resync_cost_bits += cost_bits;
        cost_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::resources::{DramModel, SharedLink};
    use crate::thread::{Scheme, ThreadSim};
    use cable_compress::EngineKind;
    use cable_trace::by_name;

    #[test]
    fn idle_link_disables_compression() {
        // A compute-bound thread on a full-bandwidth link: demand is far
        // below capacity, so the controller switches compression off and
        // the latency penalty disappears.
        let cfg = SystemConfig::paper_defaults();
        let mut thread = ThreadSim::new(
            by_name("povray").unwrap(),
            0,
            Scheme::Cable(EngineKind::Lbe),
            cfg,
        );
        let mut wire = SharedLink::from_config(&cfg);
        let mut dram = DramModel::from_config(&cfg);
        let mut ctl = OnOffController::with_period(19.2e9, 1_000_000);
        for _ in 0..20_000 {
            thread.step(&mut wire, &mut dram);
            let now = thread.now_ps();
            ctl.observe(now, thread.link_mut());
        }
        assert!(!ctl.enabled(), "low demand must switch compression off");
        assert!(ctl.toggles() >= 1);
        assert!(thread.link().stats().raw_transfers > 0);
    }

    #[test]
    fn starved_link_keeps_compression_on() {
        // A memory-bound thread whose raw demand dwarfs a tiny bandwidth
        // share: effective usage stays above 90% even while compression
        // keeps the physical wire comfortable — no oscillation.
        let cfg = SystemConfig::paper_defaults();
        let share = 19.2e9 / 256.0;
        let mut thread = ThreadSim::new(
            by_name("mcf").unwrap(),
            0,
            Scheme::Cable(EngineKind::Lbe),
            cfg,
        );
        let mut wire = SharedLink::new(share, cfg.link_setup_ps);
        let mut dram = DramModel::from_config(&cfg);
        let mut ctl = OnOffController::with_period(share, 1_000_000);
        for _ in 0..20_000 {
            thread.step(&mut wire, &mut dram);
            let now = thread.now_ps();
            ctl.observe(now, thread.link_mut());
        }
        assert!(ctl.enabled(), "saturating demand must keep compression on");
        assert_eq!(ctl.toggles(), 0, "no oscillation under saturation");
    }

    #[test]
    fn hysteresis_band_holds_state() {
        // Demand between the thresholds must not change the decision: feed
        // a window whose uncompressed-equivalent demand is ~85% of capacity.
        let cfg = SystemConfig::paper_defaults();
        let mut thread = ThreadSim::new(
            by_name("gcc").unwrap(),
            0,
            Scheme::Cable(EngineKind::Lbe),
            cfg,
        );
        let mut wire = SharedLink::from_config(&cfg);
        let mut dram = DramModel::from_config(&cfg);
        // One fill is ~512 demand bits; pick the capacity so the measured
        // demand lands inside the band.
        for _ in 0..2_000 {
            thread.step(&mut wire, &mut dram);
        }
        let demand_bits = thread.link().stats().uncompressed_bits as f64;
        let elapsed_s = thread.now_ps() as f64 * 1e-12;
        let capacity = demand_bits / elapsed_s / 8.0 / 0.85; // usage = 85%
        let mut ctl = OnOffController::with_period(capacity, thread.now_ps().max(1));
        let now = thread.now_ps() + 1;
        ctl.observe(now, thread.link_mut());
        assert!(ctl.enabled(), "in-band demand keeps the current state");
        assert_eq!(ctl.toggles(), 0);
    }

    #[test]
    fn telemetry_observation_is_pure() {
        // Two identical runs, one observed through the registry: the
        // controller's decisions must match bit for bit, and the
        // observed run must publish its window metrics.
        let run = |tel: Option<&Telemetry>| {
            let cfg = SystemConfig::paper_defaults();
            let mut thread = ThreadSim::new(
                by_name("povray").unwrap(),
                0,
                Scheme::Cable(EngineKind::Lbe),
                cfg,
            );
            let mut wire = SharedLink::from_config(&cfg);
            let mut dram = DramModel::from_config(&cfg);
            let mut ctl = OnOffController::with_period(19.2e9, 1_000_000);
            if let Some(tel) = tel {
                ctl.set_telemetry(tel);
            }
            for _ in 0..10_000 {
                thread.step(&mut wire, &mut dram);
                let now = thread.now_ps();
                ctl.observe(now, thread.link_mut());
            }
            (
                ctl.enabled(),
                ctl.toggles(),
                thread.link().stats().wire_bits,
            )
        };
        let tel = Telemetry::enabled();
        let plain = run(None);
        let observed = run(Some(&tel));
        assert_eq!(plain, observed, "observation must not change outcomes");
        let snap = tel.snapshot();
        assert!(snap.counter("adaptive.windows").unwrap() > 0);
        assert_eq!(
            snap.gauge("adaptive.compression_enabled").unwrap(),
            u64::from(observed.0)
        );
        assert_eq!(snap.counter("adaptive.toggles").unwrap(), observed.1);
        assert!(snap.gauge("adaptive.window_ratio_permille").is_some());
        assert!(snap.gauge("adaptive.window_nacks").is_some());
        assert!(snap.gauge("adaptive.usage_permille").is_some());
    }

    #[test]
    fn controller_validates_parameters() {
        let r = std::panic::catch_unwind(|| OnOffController::new(0.0));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| OnOffController::with_period(1e9, 0));
        assert!(r.is_err());
    }

    fn degrade_link() -> CompressedLink {
        CompressedLink::build(
            Scheme::Cable(EngineKind::Lbe),
            cable_cache::CacheGeometry::new(64 << 10, 8),
            cable_cache::CacheGeometry::new(16 << 10, 4),
            16,
        )
    }

    fn drive(link: &mut CompressedLink, ladder: &mut DegradeLadder, ops: u64, salt: u64) -> u64 {
        use cable_common::{Address, LineData};
        let mut resync_bits = 0;
        for i in 0..ops {
            link.request(
                Address::from_line_number(salt.wrapping_add(i * 3) % 4096),
                LineData::splat_word(((i % 7) as u32) * 0x0101_0101),
            );
            resync_bits += ladder.note_op(link).unwrap_or(0);
        }
        resync_bits
    }

    #[test]
    fn ladder_demotes_under_nack_pressure() {
        use cable_core::FaultConfig;
        let mut link = degrade_link();
        link.enable_fault_injection(FaultConfig::with_rate(11, 2e-2));
        let mut ladder = DegradeLadder::new(DegradePolicy::paper_defaults(), 16);
        assert_eq!(ladder.level(), DegradeLevel::Compressed);
        drive(&mut link, &mut ladder, 2_048, 0);
        let deg = ladder.degradation_stats();
        assert!(deg.windows >= 8);
        assert!(deg.demotions >= 2, "dense NACKs must walk the ladder down");
        assert!(
            deg.windows_raw_only + deg.windows_link_off > 0,
            "time must be spent on a degraded rung"
        );
        // At LinkOff no NACK can fire, so once reached the streak logic
        // promotes back out — the ladder oscillates rather than latching.
        assert!(link.fault_stats().unwrap().reliable_frames > 0);
    }

    #[test]
    fn lossless_schedule_never_demotes() {
        use cable_core::FaultConfig;
        let mut link = degrade_link();
        link.enable_fault_injection(FaultConfig::lossless(3));
        let mut ladder = DegradeLadder::new(DegradePolicy::paper_defaults(), 16);
        drive(&mut link, &mut ladder, 2_048, 0);
        let deg = ladder.degradation_stats();
        assert_eq!(deg.demotions, 0);
        assert_eq!(ladder.level(), DegradeLevel::Compressed);
        assert_eq!(deg.windows, deg.windows_compressed);
        assert!(link.compression_enabled());
    }

    #[test]
    fn quiet_windows_rearm_the_ladder() {
        use cable_core::FaultConfig;
        let mut link = degrade_link();
        link.enable_fault_injection(FaultConfig::with_rate(17, 2e-2));
        let mut ladder = DegradeLadder::new(DegradePolicy::paper_defaults(), 16);
        drive(&mut link, &mut ladder, 1_536, 0);
        assert!(
            ladder.degradation_stats().demotions >= 1,
            "burst must demote"
        );
        // Burst over: the channel becomes lossless and the quiet-window
        // streak must climb the ladder all the way back up.
        link.disable_fault_injection();
        link.enable_fault_injection(FaultConfig::lossless(17));
        drive(&mut link, &mut ladder, 4_096, 9999);
        assert_eq!(ladder.level(), DegradeLevel::Compressed, "full re-arm");
        assert!(ladder.degradation_stats().promotions >= 1);
        assert!(link.compression_enabled(), "compression re-enabled");
        assert!(!link.reliable_mode());
    }

    #[test]
    fn scheduled_resyncs_fire_and_are_priced() {
        use cable_core::FaultConfig;
        let mut link = degrade_link();
        link.enable_fault_injection(FaultConfig::with_rate(5, 1e-3));
        let mut ladder = DegradeLadder::new(DegradePolicy::paper_defaults(), 16);
        let resync_bits = drive(&mut link, &mut ladder, 4_096, 0);
        let deg = ladder.degradation_stats();
        // 4096 ops / 1024-op cadence = 4 scheduled resyncs.
        assert_eq!(deg.scheduled_resyncs, 4);
        assert_eq!(deg.resync_cost_bits, resync_bits);
        // Each resync costs at least its request/ack flit pair.
        assert!(resync_bits >= deg.scheduled_resyncs * 2 * 16);
        // A zero cadence disables scheduled resync.
        let mut ladder = DegradeLadder::new(
            DegradePolicy {
                resync_interval_ops: 0,
                ..DegradePolicy::paper_defaults()
            },
            16,
        );
        assert_eq!(drive(&mut link, &mut ladder, 2_048, 0), 0);
        assert_eq!(ladder.degradation_stats().scheduled_resyncs, 0);
    }

    #[test]
    fn degradation_decisions_ignore_telemetry() {
        use cable_core::FaultConfig;
        let run = |tel: Option<&Telemetry>| {
            let mut link = degrade_link();
            link.enable_fault_injection(FaultConfig::with_rate(23, 1e-2));
            let mut ladder = DegradeLadder::new(DegradePolicy::paper_defaults(), 16);
            if let Some(tel) = tel {
                ladder.set_telemetry(tel);
            }
            drive(&mut link, &mut ladder, 2_048, 0);
            (ladder.level(), ladder.degradation_stats(), *link.stats())
        };
        let tel = Telemetry::enabled();
        let plain = run(None);
        let observed = run(Some(&tel));
        assert_eq!(plain, observed, "observation must not change the ladder");
        let snap = tel.snapshot();
        assert_eq!(
            snap.counter("adaptive.demotions").unwrap(),
            observed.1.demotions
        );
        assert_eq!(
            snap.counter("adaptive.promotions").unwrap(),
            observed.1.promotions
        );
        // The rung gauge is the fabric's worst rung, published by
        // `FabricSim` (pinned in `fabric::tests`), never by one ladder.
        assert_eq!(snap.gauge("adaptive.degrade_level"), None);
        // Every transition left a marker in the trace.
        let markers = tel
            .events()
            .iter()
            .filter(|te| {
                matches!(
                    te.event,
                    cable_telemetry::Event::Marker {
                        name: "degrade.demote",
                        ..
                    } | cable_telemetry::Event::Marker {
                        name: "degrade.promote",
                        ..
                    }
                )
            })
            .count() as u64;
        assert_eq!(markers, observed.1.demotions + observed.1.promotions);
    }

    #[test]
    fn degrade_policy_validates() {
        assert!(DegradePolicy::paper_defaults().validate().is_ok());
        let mut p = DegradePolicy::paper_defaults();
        p.window_ops = 0;
        assert!(p.validate().is_err());
        let mut p = DegradePolicy::paper_defaults();
        p.quiet_windows = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn disabled_compression_sends_raw() {
        let cfg = SystemConfig::paper_defaults();
        let mut thread = ThreadSim::new(
            by_name("mcf").unwrap(),
            0,
            Scheme::Cable(EngineKind::Lbe),
            cfg,
        );
        thread.link_mut().set_compression_enabled(false);
        let mut wire = SharedLink::from_config(&cfg);
        let mut dram = DramModel::from_config(&cfg);
        for _ in 0..500 {
            thread.step(&mut wire, &mut dram);
        }
        let s = thread.link().stats();
        assert_eq!(s.unseeded_transfers + s.diff_transfers, 0);
    }
}
