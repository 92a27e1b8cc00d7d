//! Multi-chip coherence-link compression (Fig. 13, §V-B).
//!
//! A NUMA system with round-robin page interleaving: every access whose
//! page is homed on another chip crosses a point-to-point coherence link,
//! and each link pair has its own CABLE pipeline and WMT ("one WMT per
//! link-pair for small configurations", §IV-D). Single-threaded SPEC2006
//! benchmarks gauge "a system with memory load balancing by interleaving
//! pages across nodes" — compression ratios come out slightly lower than
//! the memory link "due to more dirty line transfers".

use crate::adaptive::{DegradationStats, DegradeLevel, OnOffController};
use crate::config::SystemConfig;
use crate::sched::Scheduler;
use crate::thread::{CompressedLink, Scheme};
use cable_cache::CacheGeometry;
use cable_common::Address;
use cable_core::{FaultConfig, FaultStats, LinkStats};
use cable_telemetry::{LatencyRecorder, StageSpans, Telemetry};
use cable_trace::{WorkloadGen, WorkloadProfile};

/// Simulated time charged per access by the NUMA study's coarse clock
/// (1 ns — roughly one LLC-miss initiation interval). The study stays
/// functional; the clock only spreads trace timestamps so `cable
/// report` timelines and phase windows are meaningful.
pub const NUMA_OP_PITCH_PS: u64 = 1_000;

/// A NUMA compression study over one benchmark.
pub struct NumaSim {
    gen: WorkloadGen,
    nodes: usize,
    scheme: Scheme,
    /// One compressed link per remote node (index 0 = node 1, …).
    links: Vec<CompressedLink>,
    /// One degradation controller per link; unarmed (policy-less, free)
    /// unless [`NumaSim::with_config`] saw `config.degrade`.
    controllers: Vec<OnOffController>,
    local_accesses: u64,
    remote_accesses: u64,
    /// Coarse operation clock: advances [`NUMA_OP_PITCH_PS`] per access.
    now_ps: u64,
    tel: Telemetry,
    /// Per-remote-op latency probe. The study is functional, so every
    /// remote access charges one coarse [`NUMA_OP_PITCH_PS`] hierarchy
    /// span — the percentile tables still gain the access *counts* per
    /// scheme.
    lat: Option<LatencyRecorder>,
}

impl NumaSim {
    /// Creates a `nodes`-chip system running `profile` on node 0 under
    /// `scheme` on every coherence link.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2`.
    #[must_use]
    pub fn new(profile: &'static WorkloadProfile, scheme: Scheme, nodes: usize) -> Self {
        assert!(nodes >= 2, "NUMA needs at least two nodes");
        // Each link-pair has a full-sized WMT mirroring the requester's
        // whole LLC (§VI-A: "the WMTs are full-sized"), so each link's
        // remote cache is modelled at the full 1 MB LLC geometry; the
        // page-interleaved address split keeps the per-link contents
        // disjoint.
        let remote = CacheGeometry::new(1 << 20, 8);
        let home = CacheGeometry::new(4 << 20, 16);
        let links: Vec<CompressedLink> = (1..nodes)
            .map(|_| CompressedLink::build(scheme, home, remote, 16))
            .collect();
        let controllers = (0..links.len())
            .map(|_| OnOffController::new(SystemConfig::paper_defaults().link_bytes_per_sec()))
            .collect();
        NumaSim {
            gen: WorkloadGen::new(profile, 0),
            nodes,
            scheme,
            links,
            controllers,
            local_accesses: 0,
            remote_accesses: 0,
            now_ps: 0,
            tel: Telemetry::disabled(),
            lat: None,
        }
    }

    /// [`NumaSim::new`] with the fault/degradation knobs of a
    /// [`SystemConfig`]: `config.fault` arms fault injection on every
    /// coherence link with per-link decorrelated seeds (closing the gap
    /// where the NUMA pair path ran fault-blind), and `config.degrade`
    /// arms the closed-loop degradation ladder on each link's controller.
    /// The NUMA study stays functional, so scheduled-resync work is
    /// counted in [`DegradationStats`] but charges no busy time. The cache
    /// geometries remain this study's own (full-sized WMT mirrors, see
    /// [`NumaSim::new`]), not `config`'s.
    #[must_use]
    pub fn with_config(
        profile: &'static WorkloadProfile,
        scheme: Scheme,
        nodes: usize,
        config: &SystemConfig,
    ) -> Self {
        let mut sim = Self::new(profile, scheme, nodes);
        if let Some(fault) = config.fault {
            for (i, link) in sim.links.iter_mut().enumerate() {
                let instance = i as u64;
                link.enable_fault_injection(FaultConfig {
                    seed: fault.seed ^ instance.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    ..fault
                });
            }
        }
        if let Some(policy) = config.degrade {
            for ctl in &mut sim.controllers {
                ctl.arm_degradation(policy, config.link_width_bits);
            }
        }
        sim
    }

    /// Attaches a [`Telemetry`] handle to every coherence link and syncs
    /// the handle's clock to this study's coarse operation clock, so
    /// link events stamp at a monotone simulated time instead of zero.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        tel.set_now_ps(self.now_ps);
        for link in &mut self.links {
            link.set_telemetry(tel.clone());
        }
        for ctl in &mut self.controllers {
            ctl.set_telemetry(&tel);
        }
        self.lat = tel
            .is_enabled()
            .then(|| LatencyRecorder::new(&tel, &self.scheme.label(), "measure"));
        self.tel = tel;
    }

    /// The coarse operation clock, in picoseconds.
    #[must_use]
    pub fn now_ps(&self) -> u64 {
        self.now_ps
    }

    /// Which node homes `addr` (round-robin page allocation, Table IV).
    #[must_use]
    pub fn home_node(&self, addr: Address) -> usize {
        (addr.page_number() % self.nodes as u64) as usize
    }

    /// Runs `accesses` memory accesses, compressing all cross-chip traffic.
    ///
    /// This study is functional, not timed — it measures what the link
    /// compresses, not when — but it now sits on the shared
    /// [`Scheduler`](crate::Scheduler) event core like every other
    /// multi-actor loop: the generator is an actor enqueued at its next
    /// operation time (one [`NUMA_OP_PITCH_PS`] per access), so the report
    /// timelines see the same event-driven clock discipline as the timed
    /// simulators. The seed straight-line loop is kept verbatim as the
    /// test-only `run_linear`, the equivalence oracle.
    pub fn run(&mut self, accesses: u64) {
        let mut sched = Scheduler::with_capacity(1);
        let mut remaining = accesses;
        if remaining > 0 {
            sched.push(self.now_ps + NUMA_OP_PITCH_PS, 0);
        }
        while let Some((t, actor)) = sched.pop() {
            self.now_ps = t;
            self.tel.set_now_ps(self.now_ps);
            remaining -= 1;
            if remaining > 0 {
                sched.push(self.now_ps + NUMA_OP_PITCH_PS, actor);
            }
            let access = self.gen.next_access();
            let node = self.home_node(access.addr);
            if node == 0 {
                self.local_accesses += 1;
                continue;
            }
            self.remote_accesses += 1;
            let link = &mut self.links[node - 1];
            let memory = self.gen.content(access.addr);
            if access.is_write {
                link.request_exclusive(access.addr, memory);
                link.remote_store(access.addr, self.gen.store_data(access.addr));
            } else {
                link.request(access.addr, memory);
            }
            if let Some(lat) = &self.lat {
                lat.record(&StageSpans {
                    hier: NUMA_OP_PITCH_PS,
                    ..StageSpans::default()
                });
            }
            self.controllers[node - 1].note_op(link);
        }
    }

    /// The seed O(accesses) straight-line loop, kept verbatim as the
    /// equivalence oracle for [`NumaSim::run`].
    #[cfg(test)]
    pub(crate) fn run_linear(&mut self, accesses: u64) {
        for _ in 0..accesses {
            let access = self.gen.next_access();
            self.now_ps += NUMA_OP_PITCH_PS;
            self.tel.set_now_ps(self.now_ps);
            let node = self.home_node(access.addr);
            if node == 0 {
                self.local_accesses += 1;
                continue;
            }
            self.remote_accesses += 1;
            let link = &mut self.links[node - 1];
            let memory = self.gen.content(access.addr);
            if access.is_write {
                link.request_exclusive(access.addr, memory);
                let data = self.gen.store_data(access.addr);
                link.remote_store(access.addr, data);
            } else {
                link.request(access.addr, memory);
            }
            if let Some(lat) = &self.lat {
                lat.record(&StageSpans {
                    hier: NUMA_OP_PITCH_PS,
                    ..StageSpans::default()
                });
            }
            self.controllers[node - 1].note_op(&mut self.links[node - 1]);
        }
    }

    /// Aggregated statistics across all coherence links.
    #[must_use]
    pub fn combined_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for link in &self.links {
            let s = link.stats();
            total.fills += s.fills;
            total.remote_hits += s.remote_hits;
            total.writebacks += s.writebacks;
            total.home_hits += s.home_hits;
            total.raw_transfers += s.raw_transfers;
            total.unseeded_transfers += s.unseeded_transfers;
            total.diff_transfers += s.diff_transfers;
            total.refs_sent += s.refs_sent;
            total.uncompressed_bits += s.uncompressed_bits;
            total.payload_bits += s.payload_bits;
            total.wire_bits += s.wire_bits;
            total.wire_bits_packed += s.wire_bits_packed;
            total.data_array_reads += s.data_array_reads;
            total.compression_ops += s.compression_ops;
            total.bit_toggles += s.bit_toggles;
            total.flits += s.flits;
        }
        total
    }

    /// `(local, remote)` access counts.
    #[must_use]
    pub fn access_split(&self) -> (u64, u64) {
        (self.local_accesses, self.remote_accesses)
    }

    /// Aggregated fault-injection statistics across every coherence link,
    /// when [`NumaSim::with_config`] armed them.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        let mut total: Option<FaultStats> = None;
        for link in &self.links {
            if let Some(fs) = link.fault_stats() {
                let t = total.get_or_insert_with(FaultStats::default);
                t.frames_sent += fs.frames_sent;
                t.injected_frames += fs.injected_frames;
                t.injected_bit_flips += fs.injected_bit_flips;
                t.injected_truncations += fs.injected_truncations;
                t.dropped_notices += fs.dropped_notices;
                t.delayed_notices += fs.delayed_notices;
                t.detected += fs.detected;
                t.recovered += fs.recovered;
                t.nacks += fs.nacks;
                t.fallback_raw += fs.fallback_raw;
                t.retransmitted_bits += fs.retransmitted_bits;
                t.escalations += fs.escalations;
                t.evict_buffer_hits += fs.evict_buffer_hits;
                t.resyncs += fs.resyncs;
                t.resync_repairs += fs.resync_repairs;
                t.reliable_frames += fs.reliable_frames;
            }
        }
        total
    }

    /// Aggregated degradation-controller statistics across every link,
    /// when [`NumaSim::with_config`] armed a policy.
    #[must_use]
    pub fn degradation_stats(&self) -> Option<DegradationStats> {
        let mut total: Option<DegradationStats> = None;
        for ctl in &self.controllers {
            if ctl.degradation_armed() {
                total
                    .get_or_insert_with(DegradationStats::default)
                    .accumulate(&ctl.degradation_stats());
            }
        }
        total
    }

    /// Current ladder rung of each link's controller (index 0 = the link
    /// to node 1); all `Compressed` when no policy is armed.
    #[must_use]
    pub fn degrade_levels(&self) -> Vec<DegradeLevel> {
        self.controllers
            .iter()
            .map(OnOffController::level)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_compress::EngineKind;
    use cable_core::BaselineKind;
    use cable_trace::by_name;

    #[test]
    fn page_interleave_splits_traffic() {
        let mut sim = NumaSim::new(by_name("gcc").unwrap(), Scheme::Cable(EngineKind::Lbe), 4);
        sim.run(20_000);
        let (local, remote) = sim.access_split();
        let frac = remote as f64 / (local + remote) as f64;
        // 3 of 4 nodes are remote.
        assert!((frac - 0.75).abs() < 0.05, "remote fraction {frac}");
    }

    #[test]
    fn coherence_compression_beats_cpack() {
        // The Fig. 13 headline: CABLE+LBE well above CPACK. libquantum's
        // zero/repeat-dominant traffic shows the gap even in a short run.
        let p = by_name("libquantum").unwrap();
        let mut cable = NumaSim::new(p, Scheme::Cable(EngineKind::Lbe), 4);
        let mut cpack = NumaSim::new(p, Scheme::Baseline(BaselineKind::Cpack), 4);
        cable.run(30_000);
        cpack.run(30_000);
        let rc = cable.combined_stats().compression_ratio();
        let rp = cpack.combined_stats().compression_ratio();
        assert!(rc > rp, "CABLE {rc} vs CPACK {rp}");
    }

    #[test]
    fn writebacks_appear_in_coherence_traffic() {
        // mcf touches enough distinct lines to overflow each link's 16K-line
        // remote share, evicting dirty lines that must write back.
        let mut sim = NumaSim::new(by_name("mcf").unwrap(), Scheme::Cable(EngineKind::Lbe), 4);
        sim.run(100_000);
        assert!(sim.combined_stats().writebacks > 0);
    }

    #[test]
    fn node_count_has_small_effect_on_ratio() {
        // §VI-E "NUMA Count": ratios largely unaffected from 2 to 8 nodes.
        let p = by_name("gcc").unwrap();
        let mut ratios = Vec::new();
        for nodes in [2usize, 4, 8] {
            let mut sim = NumaSim::new(p, Scheme::Cable(EngineKind::Lbe), nodes);
            sim.run(30_000);
            ratios.push(sim.combined_stats().compression_ratio());
        }
        let min = ratios.iter().cloned().fold(f64::MAX, f64::min);
        let max = ratios.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.6, "ratios vary too much: {ratios:?}");
    }

    #[test]
    fn coarse_clock_stamps_trace_events_monotonically() {
        use cable_telemetry::Telemetry;
        let mut sim = NumaSim::new(by_name("gcc").unwrap(), Scheme::Cable(EngineKind::Lbe), 4);
        let tel = Telemetry::enabled();
        sim.set_telemetry(tel.clone());
        sim.run(2_000);
        assert_eq!(sim.now_ps(), 2_000 * NUMA_OP_PITCH_PS);
        let events = tel.events();
        assert!(!events.is_empty(), "remote traffic must trace events");
        assert!(
            events.iter().all(|te| te.now_ps > 0),
            "no event may stamp at clock zero once the study is running"
        );
        assert!(
            events.windows(2).all(|w| w[0].now_ps <= w[1].now_ps),
            "stamps must be monotone in trace order"
        );
    }

    #[test]
    #[should_panic(expected = "at least two nodes")]
    fn single_node_rejected() {
        let _ = NumaSim::new(by_name("gcc").unwrap(), Scheme::Uncompressed, 1);
    }
}
