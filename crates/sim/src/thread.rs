//! One hardware thread: core + private L1/L2 + compressed LLC↔L4 link.
//!
//! [`ThreadSim`] advances an in-order thread (1 CPI for non-memory
//! instructions, Table IV) through its private L1 and L2, the per-thread
//! LLC share, and the compressed off-chip link to the L4 buffer and DRAM.
//! Shared resources ([`crate::resources::SharedLink`],
//! [`crate::resources::DramModel`]) are passed into [`ThreadSim::step`] so
//! groups of threads contend for bandwidth (§VI-A's throughput
//! methodology).
//!
//! A step has a functional half, which reads only the thread's own state,
//! and a timing half, which alone touches the clock and the shared
//! resources; a `StepTrace` carries what the second needs from the
//! first. With telemetry attached, the link records its events into a
//! log of the thread's own, stamped relative to the step's start, and the
//! timing half replays them into the shared trace at their simulated
//! time. So the group loop in [`crate::throughput`] can run the functional
//! halves ahead of the timing halves, traced or not.

use crate::config::{CompressionLatency, SystemConfig};
use crate::hier::{fill_l2_l1, DirtyVictim};
use crate::resources::{DramModel, SharedLink};
use cable_cache::{CacheGeometry, SetAssocCache};
use cable_common::{Address, LineData};
use cable_compress::EngineKind;
use cable_core::{
    BaselineKind, BaselineLink, BatchAccess, CableConfig, CableLink, FaultConfig, Link, Transfer,
    TransferKind,
};
use cable_energy::ActivityCounts;
use cable_telemetry::{LatencyRecorder, StageSpans, Telemetry};
use cable_trace::{WorkloadGen, WorkloadProfile};
use std::fmt;
use std::ops::{Deref, DerefMut};

/// A link-compression scheme under evaluation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scheme {
    /// No compression.
    Uncompressed,
    /// One of the baseline algorithms.
    Baseline(BaselineKind),
    /// CABLE with the given delegated engine.
    Cable(EngineKind),
}

impl Scheme {
    /// Figure label.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Scheme::Uncompressed => "Uncompressed".into(),
            Scheme::Baseline(k) => k.label().into(),
            Scheme::Cable(e) => format!("CABLE+{e}"),
        }
    }

    /// Table IV compression latency class for this scheme.
    #[must_use]
    pub fn latency(&self) -> CompressionLatency {
        match self {
            Scheme::Uncompressed => CompressionLatency::None,
            Scheme::Baseline(BaselineKind::Gzip) => CompressionLatency::Gzip,
            Scheme::Baseline(BaselineKind::Uncompressed) => CompressionLatency::None,
            Scheme::Baseline(_) => CompressionLatency::Cpack,
            Scheme::Cable(_) => CompressionLatency::Cable,
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A compressed (or uncompressed) LLC↔L4 link of either family.
///
/// Every [`Link`] method is reached through `Deref<Target = dyn Link>`.
/// The link stays a two-variant enum rather than a `Box<dyn Link>` so that
/// `clone_from` can restore a snapshot into the existing link's storage
/// (see [`crate::SimArena`]).
pub enum CompressedLink {
    /// CABLE endpoints.
    Cable(Box<CableLink>),
    /// A baseline streaming compressor.
    Baseline(Box<BaselineLink>),
}

impl Clone for CompressedLink {
    fn clone(&self) -> Self {
        match self {
            CompressedLink::Cable(l) => CompressedLink::Cable(l.clone()),
            CompressedLink::Baseline(l) => CompressedLink::Baseline(l.clone()),
        }
    }

    /// Restores in place when both links are of one family; a link of the
    /// other family is replaced by a fresh clone.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (CompressedLink::Cable(l), CompressedLink::Cable(s)) => l.clone_from(s),
            (CompressedLink::Baseline(l), CompressedLink::Baseline(s)) => l.clone_from(s),
            (this, source) => *this = source.clone(),
        }
    }
}

impl CompressedLink {
    /// Builds the link for `scheme` over the given geometries.
    #[must_use]
    pub fn build(
        scheme: Scheme,
        home: CacheGeometry,
        remote: CacheGeometry,
        link_width_bits: u32,
    ) -> Self {
        let kind = match scheme {
            Scheme::Uncompressed => BaselineKind::Uncompressed,
            Scheme::Baseline(kind) => kind,
            Scheme::Cable(engine) => {
                let mut cfg = CableConfig::memory_link_default()
                    .with_geometries(home, remote)
                    .with_engine(engine)
                    .with_link_width(link_width_bits);
                cfg.data_access_count = 16; // §VI-A: sixteen outside §VI-B
                return CompressedLink::Cable(Box::new(CableLink::new(cfg)));
            }
        };
        let link = BaselineLink::new(kind, home, remote, link_width_bits);
        CompressedLink::Baseline(Box::new(link))
    }
}

impl Deref for CompressedLink {
    type Target = dyn Link;

    fn deref(&self) -> &Self::Target {
        match self {
            CompressedLink::Cable(l) => &**l,
            CompressedLink::Baseline(l) => &**l,
        }
    }
}

impl DerefMut for CompressedLink {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            CompressedLink::Cable(l) => &mut **l,
            CompressedLink::Baseline(l) => &mut **l,
        }
    }
}

/// Per-thread activity counters feeding the energy model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadCounts {
    /// L1 accesses.
    pub l1: u64,
    /// L2 accesses.
    pub l2: u64,
    /// LLC accesses.
    pub llc: u64,
    /// L4 accesses.
    pub l4: u64,
    /// DRAM accesses.
    pub dram: u64,
}

/// How far down the hierarchy an access went before it was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Level {
    /// Private L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// LLC hit: the link's remote cache held the line.
    Llc,
    /// Off-chip, served by the L4 (the link's home cache).
    L4,
    /// Off-chip, missed the L4 too and read DRAM.
    Dram,
}

impl Level {
    /// Where a link transfer was served.
    fn reached(transfer: Transfer) -> Self {
        if transfer.kind() == TransferKind::RemoteHit {
            Level::Llc
        } else if transfer.home_hit() {
            Level::L4
        } else {
            Level::Dram
        }
    }
}

/// The timing-relevant record of one functional step of a [`ThreadSim`]
/// ([`ThreadSim::step_functional`]), replayed against the shared wire and
/// DRAM by [`ThreadSim::apply_step_timing`]. 40 bytes: the group loop
/// buffers up to a thousand of these per thread.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepTrace {
    /// The accessed line (its DRAM bank when the fill reads DRAM).
    addr: Address,
    /// The spilled dirty L2 victim, when its request went off-chip.
    spill_addr: Address,
    /// Wire bits of the fill, internal write-backs included.
    fill_bits: u32,
    /// Of `fill_bits`, the fault-recovery retransmissions.
    retry_bits: u32,
    /// Wire bits of the spill's read-for-ownership.
    spill_bits: u32,
    /// Compute instructions before the access.
    gap: u16,
    /// Codec cycles charged to the fill.
    fill_codec_cy: u16,
    /// Codec cycles charged to the spill.
    spill_codec_cy: u16,
    /// Link events the fill logged (see [`ThreadSim::set_telemetry`]).
    fill_events: u16,
    /// Link events the spill logged.
    spill_events: u16,
    /// Where the access was served.
    fill: Level,
    /// Where a dirty L2 victim's spill was served, if the fill made one.
    spill: Option<Level>,
}

impl StepTrace {
    /// Instructions the step retires: the compute gap and the access.
    pub(crate) fn instructions(&self) -> u64 {
        u64::from(self.gap) + 1
    }
}

/// A per-step count narrowed to a [`StepTrace`] field.
fn narrow<T: TryFrom<u64>>(n: u64) -> T {
    T::try_from(n).unwrap_or_else(|_| panic!("{n} overflows a step record field"))
}

/// One simulated in-order hardware thread.
///
/// `Clone` deep-copies the whole microarchitectural state — caches, link
/// dictionaries, generator RNG, clocks — so a warmed thread can be
/// snapshotted once and restored at every sweep point
/// (see [`crate::SimArena`]). `clone_from` restores a snapshot into an
/// existing thread, reusing its cache and link storage.
pub struct ThreadSim {
    gen: WorkloadGen,
    l1: SetAssocCache,
    l2: SetAssocCache,
    link: CompressedLink,
    config: SystemConfig,
    scheme: Scheme,
    latency: CompressionLatency,
    now_ps: u64,
    retired: u64,
    counts: ThreadCounts,
    tel: Telemetry,
    /// The link's handle: a deferred handle on `tel`, whose log the
    /// timing half replays into `tel`'s tracer. Its clock, the offset
    /// logged events carry, is 0 except during a fill's link request.
    link_tel: Telemetry,
    /// Per-stage latency histograms (`lat.{scheme}.measure.{stage}`),
    /// resolved once when an enabled telemetry handle attaches. `None`
    /// keeps the uninstrumented hot path span-free.
    lat: Option<LatencyRecorder>,
    /// Reusable transfer buffer for [`Link::request_batch`] — the
    /// step loop issues its link requests through the batch entry point.
    xfers: Vec<Transfer>,
}

/// `Clone` gives the copy's link a log of its own: a clone of a traced
/// thread shares the telemetry but must not replay the source's events.
impl Clone for ThreadSim {
    fn clone(&self) -> Self {
        let mut t = ThreadSim {
            gen: self.gen.clone(),
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            link: self.link.clone(),
            config: self.config,
            scheme: self.scheme,
            latency: self.latency,
            now_ps: self.now_ps,
            retired: self.retired,
            counts: self.counts,
            tel: self.tel.clone(),
            link_tel: Telemetry::disabled(),
            lat: self.lat.clone(),
            xfers: self.xfers.clone(),
        };
        t.attach_link_log();
        t
    }

    fn clone_from(&mut self, source: &Self) {
        let ThreadSim {
            gen,
            l1,
            l2,
            link,
            config,
            scheme,
            latency,
            now_ps,
            retired,
            counts,
            tel,
            link_tel: _,
            lat,
            xfers,
        } = self;
        gen.clone_from(&source.gen);
        l1.clone_from(&source.l1);
        l2.clone_from(&source.l2);
        link.clone_from(&source.link);
        *config = source.config;
        *scheme = source.scheme;
        *latency = source.latency;
        *now_ps = source.now_ps;
        *retired = source.retired;
        *counts = source.counts;
        tel.clone_from(&source.tel);
        lat.clone_from(&source.lat);
        xfers.clone_from(&source.xfers);
        self.attach_link_log();
    }
}

impl ThreadSim {
    /// Creates thread `instance` of `profile` under `scheme`, with the
    /// Table IV hierarchy (per-thread LLC/L4 shares).
    #[must_use]
    pub fn new(
        profile: &'static WorkloadProfile,
        instance: u64,
        scheme: Scheme,
        config: SystemConfig,
    ) -> Self {
        let home = CacheGeometry::new(config.l4_bytes, config.l4_ways);
        let remote = CacheGeometry::new(config.llc_bytes, config.llc_ways);
        let mut link = CompressedLink::build(scheme, home, remote, config.link_width_bits);
        if let Some(fault) = config.fault {
            // Per-thread links share one schedule shape but decorrelate by
            // instance, keeping multi-thread runs deterministic.
            link.enable_fault_injection(FaultConfig {
                seed: fault.seed ^ instance.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ..fault
            });
        }
        ThreadSim {
            gen: WorkloadGen::new(profile, instance),
            l1: SetAssocCache::new(CacheGeometry::new(config.l1_bytes, config.l1_ways)),
            l2: SetAssocCache::new(CacheGeometry::new(config.l2_bytes, config.l2_ways)),
            link,
            scheme,
            latency: scheme.latency(),
            config,
            now_ps: 0,
            retired: 0,
            counts: ThreadCounts::default(),
            tel: Telemetry::disabled(),
            link_tel: Telemetry::disabled(),
            lat: None,
            xfers: Vec::with_capacity(1),
        }
    }

    /// Attaches a [`Telemetry`] handle. The link records through a
    /// deferred handle on it ([`Telemetry::deferred`]): its metrics go to
    /// `tel`'s registry at once, and its events into a log of this thread's
    /// own, stamped relative to the step's start. Each step's timing half
    /// replays them into `tel`'s trace at the thread's simulated time: the
    /// fill's at the clock plus the compute gap and L1 + L2 + LLC, the
    /// spill's at the fill's arrival (or, on-chip, at the fill's request).
    /// Events the link records between steps (a §VI-D controller acting on
    /// it) reach the trace at the start of the next [`ThreadSim::step`],
    /// stamped with the thread's clock.
    ///
    /// Attach *after* [`ThreadSim::warm`] so warm-up traffic is not traced.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.lat = tel
            .is_enabled()
            .then(|| LatencyRecorder::new(&tel, &self.scheme.label(), "measure"));
        self.tel = tel;
        self.attach_link_log();
    }

    /// Gives the link a new deferred handle on the thread's telemetry.
    fn attach_link_log(&mut self) {
        self.link_tel = self.tel.deferred();
        self.link.set_telemetry(self.link_tel.clone());
    }

    /// Makes the link's event log able to hold `events` events without
    /// growing, so that a thread that runs functional halves ahead need
    /// not allocate.
    pub(crate) fn reserve_link_events(&self, events: usize) {
        self.link_tel.reserve_deferred(events);
    }

    /// The thread's telemetry handle (disabled unless attached).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.tel
    }

    /// Current local time in picoseconds.
    #[must_use]
    pub fn now_ps(&self) -> u64 {
        self.now_ps
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// The thread's link (for stats inspection).
    #[must_use]
    pub fn link(&self) -> &CompressedLink {
        &self.link
    }

    /// Mutable link access (adaptive compression control).
    pub fn link_mut(&mut self) -> &mut CompressedLink {
        &mut self.link
    }

    /// Per-level access counters.
    #[must_use]
    pub fn counts(&self) -> &ThreadCounts {
        &self.counts
    }

    /// Warms the caches and compression dictionaries by running `accesses`
    /// memory accesses with timing discarded afterwards — the simulation
    /// equivalent of the paper's uncounted 100M-instruction warm-up phases.
    pub fn warm(&mut self, accesses: u64) {
        let mut wire = SharedLink::new(1e15, 0); // effectively unconstrained
        let mut dram = DramModel::from_config(&self.config);
        for _ in 0..accesses {
            self.step(&mut wire, &mut dram);
        }
        self.now_ps = 0;
        self.retired = 0;
        self.counts = ThreadCounts::default();
        self.link.reset_stats();
    }

    /// Advances the thread by one memory access (plus its preceding
    /// compute instructions), contending on the shared link and DRAM: its
    /// two halves, `step_functional` and `apply_step_timing`, back to
    /// back. Link events logged since the last step (a controller acting
    /// on the link) go into the trace first, at the thread's clock.
    pub fn step(&mut self, wire: &mut SharedLink, dram: &mut DramModel) {
        self.link_tel.replay_deferred(usize::MAX, self.now_ps);
        let trace = self.step_functional();
        self.apply_step_timing(&trace, wire, dram);
    }

    /// The functional half of [`ThreadSim::step`]: the generator, the
    /// private L1/L2, the link request and the L2 fill with its dirty
    /// victim's spill, each a part. Reads no clock and touches no shared
    /// resource, so a thread can run it ahead of the group loop; the
    /// returned record is everything [`ThreadSim::apply_step_timing`]
    /// needs, the count of each part's logged link events included.
    pub(crate) fn step_functional(&mut self) -> StepTrace {
        let (mut trace, victim) = self.fill_functional();
        if let Some(v) = victim {
            let logged = self.link_tel.deferred_recorded();
            self.spill_dirty_to_llc(&mut trace, v);
            trace.spill_events = narrow(self.link_tel.deferred_recorded() - logged);
        }
        trace
    }

    /// The timing half of [`ThreadSim::step`]: replays `trace` against the
    /// thread's clock, its counters and the shared wire and DRAM, and the
    /// link events of its parts into the trace, each part's before its
    /// DRAM and wire events.
    pub(crate) fn apply_step_timing(
        &mut self,
        trace: &StepTrace,
        wire: &mut SharedLink,
        dram: &mut DramModel,
    ) {
        let spill_events_ps = self.apply_fill_timing(trace, wire, dram);
        self.apply_spill_timing(trace, spill_events_ps, wire, dram);
    }

    /// The fill's functional part: the access through L1, L2 and, on an
    /// L2 miss, the link, then the fill of L2 and L1. Returns the record
    /// and the dirty L2 victim the fill displaced. With telemetry on, the
    /// link's events are logged at the latencies known before the request:
    /// the compute gap, then L1 + L2 + LLC.
    fn fill_functional(&mut self) -> (StepTrace, Option<DirtyVictim>) {
        let access = self.gen.next_access();
        let mut trace = StepTrace {
            addr: access.addr,
            spill_addr: Address::default(),
            fill_bits: 0,
            retry_bits: 0,
            spill_bits: 0,
            gap: u16::try_from(access.compute_gap).expect("compute gaps are at most 10,000"),
            fill_codec_cy: 0,
            spill_codec_cy: 0,
            fill_events: 0,
            spill_events: 0,
            fill: Level::L1,
            spill: None,
        };
        if self.l1.access(access.addr).is_some() {
            if access.is_write {
                let data = self.gen.store_data(access.addr);
                self.l1.write(access.addr, data);
            }
            return (trace, None);
        }
        let line = if let Some(lid) = self.l2.access(access.addr) {
            trace.fill = Level::L2;
            self.l2.read_by_id(lid).expect("valid")
        } else {
            if self.link_tel.is_enabled() {
                let c = &self.config;
                let offset_ps = c.cycles_to_ps(u64::from(access.compute_gap))
                    + c.cycles_to_ps(c.l1_latency_cy)
                    + c.cycles_to_ps(c.l2_latency_cy)
                    + c.cycles_to_ps(c.llc_latency_cy);
                self.link_tel.set_now_ps(offset_ps);
            }
            let logged = self.link_tel.deferred_recorded();
            let line = self.fetch_from_llc(&mut trace, access.is_write);
            trace.fill_events = narrow(self.link_tel.deferred_recorded() - logged);
            self.link_tel.set_now_ps(0);
            line
        };
        let store = access.is_write.then(|| self.gen.store_data(access.addr));
        let victim = fill_l2_l1(&mut self.l1, &mut self.l2, access.addr, line, store);
        (trace, victim)
    }

    /// Requests an L2 miss's line through the link (one-element batch: the
    /// timing model serializes accesses on the shared wire, so the step
    /// cannot coalesce further, but it still enters the link through the
    /// batch path) and records how far it went and what it put on the
    /// wire, internal dirty write-backs included.
    fn fetch_from_llc(&mut self, trace: &mut StepTrace, is_write: bool) -> LineData {
        let addr = trace.addr;
        let memory = self.gen.content(addr);
        let bits_before = self.link.stats().wire_bits;
        let retry_before = self.link.retransmitted_wire_bits();
        let access = if is_write {
            BatchAccess::exclusive(addr, memory)
        } else {
            BatchAccess::read(addr, memory)
        };
        self.xfers.clear();
        self.link.request_batch(&[access], &mut self.xfers);
        let transfer = self.xfers[0];
        trace.fill = Level::reached(transfer);
        if trace.fill != Level::Llc {
            trace.fill_codec_cy = self.compression_cycles(transfer.kind());
            trace.fill_bits = narrow(self.link.stats().wire_bits - bits_before);
            trace.retry_bits = narrow(self.link.retransmitted_wire_bits() - retry_before);
        }
        memory
    }

    /// The spill's functional part: writes a dirty L2 victim into the LLC.
    /// A store hit is a silent upgrade with no link traffic now (the link
    /// compresses the eventual write-back when the LLC evicts it); a miss
    /// reads the line for ownership through the link first.
    fn spill_dirty_to_llc(&mut self, trace: &mut StepTrace, victim: DirtyVictim) {
        let DirtyVictim { addr, data } = victim;
        trace.spill = Some(Level::Llc);
        if self.link.remote_store(addr, data) {
            return;
        }
        let bits_before = self.link.stats().wire_bits;
        let transfer = self.link.request_exclusive(addr, data);
        if transfer.kind() != TransferKind::RemoteHit {
            trace.spill = Some(Level::reached(transfer));
            trace.spill_addr = addr;
            trace.spill_codec_cy = self.compression_cycles(transfer.kind());
            trace.spill_bits = narrow(self.link.stats().wire_bits - bits_before);
        }
        self.link.remote_store(addr, data);
    }

    /// The fill's timing part: the fill's link events go into the trace
    /// at the step's start plus their offsets, then the thread waits
    /// through the compute gap and each level's latency, and an off-chip
    /// fill through L4, DRAM, the codec and the shared wire. Returns the
    /// clock the spill's link events stamp at: the fill's arrival when it
    /// went off-chip, otherwise the clock at which its link request (LLC)
    /// or its access (L1, L2) issued.
    fn apply_fill_timing(
        &mut self,
        trace: &StepTrace,
        wire: &mut SharedLink,
        dram: &mut DramModel,
    ) -> u64 {
        self.link_tel
            .replay_deferred(usize::from(trace.fill_events), self.now_ps);
        let c = &self.config;
        self.retired += trace.instructions();
        self.now_ps += c.cycles_to_ps(u64::from(trace.gap));
        let issue_ps = self.now_ps;
        let mut spans = StageSpans::default();
        for (level, latency_cy, count) in [
            (Level::L1, c.l1_latency_cy, &mut self.counts.l1),
            (Level::L2, c.l2_latency_cy, &mut self.counts.l2),
            (Level::Llc, c.llc_latency_cy, &mut self.counts.llc),
        ] {
            *count += 1;
            let ps = c.cycles_to_ps(latency_cy);
            self.now_ps += ps;
            spans.hier += ps;
            if trace.fill == level {
                break;
            }
        }
        if trace.fill > Level::Llc {
            self.counts.l4 += 1;
            let l4_ps = c.cycles_to_ps(c.l4_latency_cy);
            spans.hier += l4_ps;
            let mut ready = self.now_ps + l4_ps;
            let dram_in = ready;
            if trace.fill == Level::Dram {
                self.counts.dram += 1;
                ready = dram.access(ready, trace.addr);
            }
            spans.dram = ready - dram_in;
            spans.codec = c.cycles_to_ps(u64::from(trace.fill_codec_cy));
            ready += spans.codec;
            let bits = u64::from(trace.fill_bits);
            let wire_in = ready;
            spans.queue = wire.busy_until().saturating_sub(wire_in);
            ready = wire.transfer(ready, bits);
            if self.lat.is_some() {
                // The retry span is the marginal serialization cost of the
                // retransmitted bits; deltas of the truncating
                // serialize_ps keep every span u64-exact, so the stage
                // sums reproduce the end-to-end total without rounding
                // slop.
                let clean_bits = bits - u64::from(trace.retry_bits);
                spans.retry = wire.serialize_ps(bits) - wire.serialize_ps(clean_bits);
                spans.wire = ready - wire_in - spans.queue - spans.retry;
            }
            self.now_ps = ready;
        }
        if let Some(lat) = &self.lat {
            lat.record(&spans);
        }
        if trace.fill >= Level::Llc {
            self.now_ps
        } else {
            issue_ps
        }
    }

    /// The spill's timing part: its link events go into the trace at
    /// `events_ps`. Write-backs overlap execution: the store buffer hides
    /// them, so the thread does not stall on the transfer, but an off-chip
    /// spill consumes DRAM and wire time.
    fn apply_spill_timing(
        &mut self,
        trace: &StepTrace,
        events_ps: u64,
        wire: &mut SharedLink,
        dram: &mut DramModel,
    ) {
        self.link_tel
            .replay_deferred(usize::from(trace.spill_events), events_ps);
        let Some(level) = trace.spill else {
            return;
        };
        let c = &self.config;
        self.counts.llc += 1;
        if level > Level::Llc {
            self.counts.l4 += 1;
            let mut ready = self.now_ps + c.cycles_to_ps(c.l4_latency_cy);
            if level == Level::Dram {
                self.counts.dram += 1;
                ready = dram.access(ready, trace.spill_addr);
            }
            ready += c.cycles_to_ps(u64::from(trace.spill_codec_cy));
            wire.transfer(ready, u64::from(trace.spill_bits));
        }
    }

    /// Compression cycles charged for one transfer: nothing while the
    /// §VI-D controller has compression off; only the compression side for
    /// a raw fallback (the attempt happens before the outcome is known,
    /// but the receiver skips decompression); both sides otherwise.
    fn compression_cycles(&self, kind: TransferKind) -> u16 {
        if !self.link.compression_enabled() {
            return 0;
        }
        let (comp, decomp) = self.latency.cycles();
        let cycles = match kind {
            TransferKind::Raw => comp,
            TransferKind::RemoteHit => 0,
            _ => comp + decomp,
        };
        narrow(cycles)
    }

    /// Activity counts for the energy model. In fault mode the recovery
    /// traffic (NACK flits, retransmitted bytes) is reported so the model
    /// can price it separately; on reliable links those fields stay zero.
    #[must_use]
    pub fn activity(&self) -> ActivityCounts {
        let ls = self.link.stats();
        let fs = self.link.fault_stats().copied().unwrap_or_default();
        ActivityCounts {
            l1_accesses: self.counts.l1,
            l2_accesses: self.counts.l2,
            llc_accesses: self.counts.llc,
            buffer_accesses: self.counts.l4,
            dram_accesses: self.counts.dram,
            link_bytes: ls.wire_bits / 8,
            compressions: ls.compression_ops,
            decompressions: ls.diff_transfers + ls.unseeded_transfers,
            search_reads: ls.data_array_reads,
            nack_flits: fs.nacks,
            retransmitted_bytes: fs.retransmitted_bits / 8,
            runtime_s: self.now_ps as f64 * 1e-12,
        }
    }
}

impl fmt::Debug for ThreadSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ThreadSim({} @ {} ps, {} retired)",
            self.gen.profile().name,
            self.now_ps,
            self.retired
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{DramModel, SharedLink};
    use cable_core::BatchOp;
    use cable_trace::by_name;
    use proptest::prelude::*;
    use proptest::{array, collection};

    fn run(scheme: Scheme, name: &str, steps: usize) -> ThreadSim {
        let cfg = SystemConfig::paper_defaults();
        let mut t = ThreadSim::new(by_name(name).unwrap(), 0, scheme, cfg);
        let mut wire = SharedLink::from_config(&cfg);
        let mut dram = DramModel::from_config(&cfg);
        for _ in 0..steps {
            t.step(&mut wire, &mut dram);
        }
        t
    }

    #[test]
    fn clone_from_a_snapshot_replays_like_a_fresh_clone() {
        // A thread that has run on, restored in place from a snapshot,
        // must evolve exactly like a fresh clone of that snapshot — within
        // one link family and across families.
        const N: usize = 1_500;
        let cfg = SystemConfig::paper_defaults();
        let p = by_name("mcf").unwrap();
        let steps = |t: &mut ThreadSim| {
            let mut wire = SharedLink::from_config(&cfg);
            let mut dram = DramModel::from_config(&cfg);
            for _ in 0..N {
                t.step(&mut wire, &mut dram);
            }
        };
        let lbe = Scheme::Cable(EngineKind::Lbe);
        let cpack = Scheme::Baseline(BaselineKind::Cpack);
        for (snap_scheme, work_scheme) in [
            (lbe, lbe),
            (cpack, Scheme::Uncompressed),
            (lbe, Scheme::Uncompressed),
            (Scheme::Uncompressed, lbe),
        ] {
            let mut snapshot = ThreadSim::new(p, 1, snap_scheme, cfg);
            snapshot.warm(500);
            let mut work = ThreadSim::new(p, 2, work_scheme, cfg);
            steps(&mut work);
            work.clone_from(&snapshot);
            let mut fresh = snapshot.clone();
            steps(&mut work);
            steps(&mut fresh);
            let label = format!("{work_scheme} restored from {snap_scheme}");
            assert_eq!(work.now_ps(), fresh.now_ps(), "{label}");
            assert_eq!(work.retired(), fresh.retired(), "{label}");
            assert_eq!(work.counts(), fresh.counts(), "{label}");
            assert_eq!(work.link().stats(), fresh.link().stats(), "{label}");
        }
    }

    #[test]
    fn a_step_record_stays_40_bytes() {
        // The group loop buffers a thousand records per thread.
        assert_eq!(std::mem::size_of::<StepTrace>(), 40);
    }

    #[test]
    fn link_events_between_steps_reach_the_trace_at_the_next_step() {
        // A controller switching compression off between two steps makes
        // the link log a phase mark; the next step puts it into the trace
        // first, stamped with the thread's clock.
        let cfg = SystemConfig::paper_defaults();
        let lbe = Scheme::Cable(EngineKind::Lbe);
        let mut t = ThreadSim::new(by_name("mcf").unwrap(), 0, lbe, cfg);
        let tel = Telemetry::enabled();
        t.set_telemetry(tel.clone());
        let mut wire = SharedLink::from_config(&cfg);
        let mut dram = DramModel::from_config(&cfg);
        for _ in 0..100 {
            t.step(&mut wire, &mut dram);
        }
        let (now, traced) = (t.now_ps(), tel.events().len());
        t.link_mut().set_compression_enabled(false);
        assert_eq!(tel.events().len(), traced, "logged, not yet traced");
        t.step(&mut wire, &mut dram);
        let mark = tel.events()[traced];
        let off = cable_telemetry::Event::Phase {
            name: "compression_off",
        };
        assert_eq!(
            (mark.seq, mark.now_ps, mark.event),
            (traced as u64, now, off)
        );
    }

    #[test]
    fn time_and_instructions_advance() {
        let t = run(Scheme::Uncompressed, "gcc", 2000);
        assert!(t.now_ps() > 0);
        assert!(t.retired() >= 2000);
        assert!(t.counts().l1 == 2000);
        assert!(t.counts().l2 > 0, "some L1 misses must occur");
        assert!(t.counts().llc > 0);
    }

    #[test]
    fn compression_reduces_wire_traffic() {
        let base = run(Scheme::Uncompressed, "mcf", 3000);
        let cable = run(Scheme::Cable(EngineKind::Lbe), "mcf", 3000);
        let b = base.link().stats();
        let c = cable.link().stats();
        assert!(b.fills > 100);
        assert!(
            c.wire_bits * 2 < b.wire_bits,
            "CABLE {} vs uncompressed {}",
            c.wire_bits,
            b.wire_bits
        );
    }

    #[test]
    fn memory_bound_thread_spends_time_off_chip() {
        let lbm = run(Scheme::Uncompressed, "lbm", 2000);
        let povray = run(Scheme::Uncompressed, "povray", 2000);
        // lbm (memory-bound) has far lower IPC than povray (compute-bound).
        let ipc_lbm = lbm.retired() as f64 / (lbm.now_ps() as f64 / 500.0);
        let ipc_povray = povray.retired() as f64 / (povray.now_ps() as f64 / 500.0);
        assert!(
            ipc_povray > 2.0 * ipc_lbm,
            "povray {ipc_povray} vs lbm {ipc_lbm}"
        );
    }

    #[test]
    fn dram_touched_only_on_home_misses() {
        let t = run(Scheme::Uncompressed, "gcc", 2000);
        assert!(t.counts().dram <= t.counts().l4);
    }

    #[test]
    fn activity_counts_are_consistent() {
        let t = run(Scheme::Cable(EngineKind::Lbe), "gcc", 1500);
        let a = t.activity();
        assert_eq!(a.l1_accesses, 1500);
        assert!(a.runtime_s > 0.0);
        assert!(a.link_bytes > 0);
        assert!(a.compressions > 0);
    }

    #[test]
    fn writes_produce_writeback_traffic() {
        // mcf touches enough distinct lines in 40k accesses to overflow the
        // 16K-line LLC, evicting dirty lines that must write back.
        let t = run(Scheme::Cable(EngineKind::Lbe), "mcf", 40_000);
        assert!(t.link().stats().writebacks > 0);
    }

    #[test]
    fn warm_resets_measurement_but_keeps_state() {
        let cfg = SystemConfig::paper_defaults();
        // povray revisits its hot set, so warmth is observable in fills.
        let mut t = ThreadSim::new(
            by_name("povray").unwrap(),
            0,
            Scheme::Cable(EngineKind::Lbe),
            cfg,
        );
        t.warm(5_000);
        assert_eq!(t.now_ps(), 0);
        assert_eq!(t.retired(), 0);
        assert_eq!(t.link().stats().fills, 0);
        // The caches stayed warm: the first measured steps hit far more
        // often than a cold thread's.
        let mut wire = SharedLink::from_config(&cfg);
        let mut dram = DramModel::from_config(&cfg);
        for _ in 0..500 {
            t.step(&mut wire, &mut dram);
        }
        let warm_fills = t.link().stats().fills;
        let mut cold = ThreadSim::new(
            by_name("povray").unwrap(),
            0,
            Scheme::Cable(EngineKind::Lbe),
            cfg,
        );
        let mut wire2 = SharedLink::from_config(&cfg);
        let mut dram2 = DramModel::from_config(&cfg);
        for _ in 0..500 {
            cold.step(&mut wire2, &mut dram2);
        }
        let cold_fills = cold.link().stats().fills;
        assert!(
            warm_fills < cold_fills,
            "warm {warm_fills} vs cold {cold_fills}"
        );
    }

    #[test]
    fn compression_latency_shows_in_fill_time() {
        // Two identical threads, one with CABLE's 48-cycle latency, one
        // uncompressed: on a bandwidth-rich link the uncompressed thread
        // must not be slower.
        let cfg = SystemConfig::paper_defaults();
        let mut a = ThreadSim::new(by_name("povray").unwrap(), 0, Scheme::Uncompressed, cfg);
        let mut b = ThreadSim::new(
            by_name("povray").unwrap(),
            0,
            Scheme::Cable(EngineKind::Lbe),
            cfg,
        );
        let mut wa = SharedLink::from_config(&cfg);
        let mut da = DramModel::from_config(&cfg);
        let mut wb = SharedLink::from_config(&cfg);
        let mut db = DramModel::from_config(&cfg);
        while a.retired() < 50_000 {
            a.step(&mut wa, &mut da);
        }
        while b.retired() < 50_000 {
            b.step(&mut wb, &mut db);
        }
        assert!(a.now_ps() <= b.now_ps());
    }

    #[test]
    fn fault_injection_prices_retransmissions_into_wire_time() {
        // Same workload, same scheme, one reliable link and one faulty one:
        // retransmitted bits land in LinkStats::wire_bits, so the faulty
        // thread puts strictly more bits on the shared link and (it being
        // the bottleneck resource) finishes no earlier.
        let reliable_cfg = SystemConfig::paper_defaults();
        let faulty_cfg = SystemConfig {
            fault: Some(cable_core::FaultConfig::with_rate(0xfa17, 5e-3)),
            ..reliable_cfg
        };
        let run_with = |cfg: SystemConfig| {
            let mut t = ThreadSim::new(
                by_name("mcf").unwrap(),
                0,
                Scheme::Cable(EngineKind::Lbe),
                cfg,
            );
            let mut wire = SharedLink::from_config(&cfg);
            let mut dram = DramModel::from_config(&cfg);
            for _ in 0..3000 {
                t.step(&mut wire, &mut dram);
            }
            t
        };
        let reliable = run_with(reliable_cfg);
        let faulty = run_with(faulty_cfg);
        assert!(reliable.link().fault_stats().is_none());
        let fstats = faulty.link().fault_stats().expect("fault mode armed");
        assert!(fstats.injected_frames > 0, "no faults injected");
        assert!(fstats.retransmitted_bits > 0);
        assert!(
            faulty.link().stats().wire_bits > reliable.link().stats().wire_bits,
            "retransmissions must show up as wire traffic"
        );
        assert!(
            faulty.now_ps() >= reliable.now_ps(),
            "faulty {} ps vs reliable {} ps",
            faulty.now_ps(),
            reliable.now_ps()
        );
        // The energy feed: recovery traffic lands in the activity counts of
        // the faulty thread only, mirroring FaultStats exactly.
        let fa = faulty.activity();
        assert_eq!(fa.nack_flits, fstats.nacks);
        assert_eq!(fa.retransmitted_bytes, fstats.retransmitted_bits / 8);
        assert!(fa.retransmitted_bytes <= fa.link_bytes);
        let ra = reliable.activity();
        assert_eq!(ra.nack_flits, 0);
        assert_eq!(ra.retransmitted_bytes, 0);
    }

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::Uncompressed.label(), "Uncompressed");
        assert_eq!(Scheme::Baseline(BaselineKind::Gzip).label(), "gzip");
        assert_eq!(Scheme::Cable(EngineKind::Lbe).label(), "CABLE+LBE");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `request_batch` is the per-call loop it documents, for every
        /// scheme: a batch and the matching `request` / `request_exclusive`
        /// + `remote_store` calls, run on two clones of one warmed link,
        /// give equal transfers and equal statistics, and CABLE's
        /// synchronization invariants hold after the batch. Small caches
        /// and a 256-line address range keep hits, evictions and dirty
        /// write-backs in every case.
        #[test]
        fn prop_request_batch_matches_the_per_call_loop(
            (refs, line) in crate::test_lines::family_case(),
            random in collection::vec(array::uniform16(prop_oneof![Just(0u32), any::<u32>()]), 1..6),
            ops in collection::vec((0u8..3, 0u64..256, any::<u32>(), any::<u32>()), 1..80),
        ) {
            let mut pool = refs;
            pool.push(line);
            pool.extend(random.into_iter().map(LineData::from_words));
            let pick = |i: u32| pool[i as usize % pool.len()];
            let batch: Vec<BatchAccess> = ops
                .iter()
                .map(|&(op, line_no, memory, store)| {
                    let addr = Address::from_line_number(line_no);
                    match op {
                        0 => BatchAccess::read(addr, pick(memory)),
                        1 => BatchAccess::exclusive(addr, pick(memory)),
                        _ => BatchAccess::write(addr, pick(memory), pick(store)),
                    }
                })
                .collect();
            let schemes = std::iter::once(Scheme::Uncompressed)
                .chain(BaselineKind::ALL.map(Scheme::Baseline))
                .chain(EngineKind::ALL.map(Scheme::Cable));
            for scheme in schemes {
                let mut warmed = CompressedLink::build(
                    scheme,
                    CacheGeometry::new(8 << 10, 4),
                    CacheGeometry::new(2 << 10, 2),
                    16,
                );
                warmed.request_batch(&batch, &mut Vec::new());
                let (mut batched, mut looped) = (warmed.clone(), warmed);
                let mut via_batch = Vec::new();
                batched.request_batch(&batch, &mut via_batch);
                let via_loop: Vec<Transfer> = batch
                    .iter()
                    .map(|a| match a.op {
                        BatchOp::Read => looped.request(a.addr, a.memory),
                        BatchOp::Exclusive => looped.request_exclusive(a.addr, a.memory),
                        BatchOp::Write(store) => {
                            let t = looped.request_exclusive(a.addr, a.memory);
                            looped.remote_store(a.addr, store);
                            t
                        }
                    })
                    .collect();
                prop_assert_eq!(&via_batch, &via_loop, "{}", scheme);
                prop_assert_eq!(batched.stats(), looped.stats(), "{}", scheme);
                if let CompressedLink::Cable(l) = &batched {
                    prop_assert_eq!(l.check_invariants(), Ok(()), "{}", scheme);
                }
            }
        }
    }
}
