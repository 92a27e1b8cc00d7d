//! Timed multi-chip fabric (§V-B).
//!
//! "In a four-chip system, for instance, the system is fully-connected
//! where each chip has three PTP links directly connecting it to the other
//! three chips for a total of six PTP links and CABLE pipelines."
//!
//! [`FabricSim`] runs one thread per chip over a NUMA address space with
//! round-robin page interleaving. Accesses homed on the local chip go to
//! local memory; accesses homed remotely cross the compressed
//! point-to-point link of the (requester, home) pair, contending with the
//! reverse-direction traffic of the same physical link. This extends the
//! compression-only [`crate::NumaSim`] with latency and bandwidth, letting
//! the coherence use case be studied end to end.
//!
//! # Functional/timing split
//!
//! A chip's step is decomposed into two halves:
//!
//! - `ChipNode::step_functional` touches only *chip-private* state (the
//!   workload generator, the private L1/L2, and this chip's directional
//!   compression pipelines — each `(requester, home)` pipeline is driven
//!   by exactly one requester) and records a `StepTrace` of the step's
//!   timing-relevant facts;
//! - `FabricSim::apply_step_timing` replays a trace against the *shared*
//!   timing resources (PTP wires, local wires, DRAM channels) and the
//!   chip's clock, in exactly the operation order of the original fused
//!   step.
//!
//! No functional decision ever reads `now_ps`, so a chip's caches and
//! pipelines see the same access stream at every link bandwidth. While the
//! functional half runs, pipeline events stamp at the chip's
//! contention-free `fn_clock`; `FabricSim::step_chip` resyncs it to the
//! true clock after each replay.

use crate::adaptive::{DegradationStats, DegradeLevel, OnOffController};
use crate::config::{CompressionLatency, SystemConfig};
use crate::hier::fill_l2_l1;
use crate::resources::{DramModel, SharedLink};
use crate::sched::Scheduler;
use crate::thread::{CompressedLink, Scheme};
use cable_cache::{CacheGeometry, SetAssocCache};
use cable_common::Address;
use cable_core::{FaultConfig, FaultStats, LinkStats, TransferKind};
use cable_telemetry::{
    latency_hop_metric_id, Histogram, LatencyRecorder, LatencyStage, StageSpans, Telemetry,
    LATENCY_EDGES,
};
use cable_trace::{WorkloadGen, WorkloadProfile};
use std::fmt;

/// Triangular index of the unordered chip pair `(a, b)` over the
/// `nodes * (nodes - 1) / 2` PTP mesh wires — the hop id used by per-hop
/// telemetry, [`HopStats`], and `--mesh-fault-hop`.
#[must_use]
pub fn wire_pair_index(nodes: usize, a: usize, b: usize) -> usize {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    lo * nodes - lo * (lo + 1) / 2 + (hi - lo - 1)
}

/// Decorrelates the master mesh-fault schedule for one directional
/// pipeline: every `(hop, direction)` lane gets its own seed, derived
/// purely from the master seed, so a wire's fault history never depends
/// on which other pipelines are armed. The multiplier is
/// distinct from the node-keyed one in [`FabricSim::set_fault_injection`]
/// so mesh and plain schedules never collide.
fn mesh_fault_config(fault: FaultConfig, hop: usize, requester: usize, home: usize) -> FaultConfig {
    let dir = u64::from(requester > home);
    let lane = 2 * hop as u64 + dir + 1;
    FaultConfig {
        seed: fault.seed ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03),
        ..fault
    }
}

/// The fault schedule a `(requester, home)` pipeline should run under the
/// given config: the mesh override on matched mesh pipelines, else the
/// plain node-decorrelated schedule, else `None`.
fn pipeline_fault_config(
    nodes: usize,
    requester: usize,
    home: usize,
    config: &SystemConfig,
) -> Option<FaultConfig> {
    if requester != home {
        if let Some(mf) = config.mesh_fault {
            let hop = wire_pair_index(nodes, requester, home);
            if config.mesh_fault_hop.is_none_or(|t| t as usize == hop) {
                return Some(mesh_fault_config(mf, hop, requester, home));
            }
        }
    }
    config.fault.map(|f| {
        let instance = (requester * nodes + home) as u64;
        FaultConfig {
            seed: f.seed ^ instance.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..f
        }
    })
}

/// Result of a fabric run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FabricResult {
    /// Total instructions retired across all chips.
    pub instructions: u64,
    /// Completion time of the slowest chip, picoseconds.
    pub elapsed_ps: u64,
}

impl FabricResult {
    /// Aggregate instructions per second.
    #[must_use]
    pub fn ips(&self) -> f64 {
        self.instructions as f64 / (self.elapsed_ps as f64 * 1e-12)
    }
}

/// Per-wire rollup of one PTP mesh hop: the shared wire's occupancy
/// counters plus the fault counters of the two directional pipelines
/// riding it. Rows come back in triangular hop order from
/// [`FabricSim::hop_stats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HopStats {
    /// Triangular pair index of the wire ([`wire_pair_index`]).
    pub hop: u32,
    /// The unordered chip pair `(lo, hi)` the wire connects.
    pub chips: (usize, usize),
    /// Wire bits that crossed the hop (retransmissions included).
    pub bits_sent: u64,
    /// Total picoseconds the wire spent busy.
    pub busy_ps: u64,
    /// Non-empty transfers the wire carried.
    pub transfers: u64,
    /// Summed fault counters of the two directional pipelines, when
    /// fault injection armed at least one of them.
    pub fault: Option<FaultStats>,
}

/// The timing-relevant record of one functional step, replayed against the
/// shared resources by [`FabricSim::apply_step_timing`].
#[derive(Clone, Copy, Debug)]
struct StepTrace {
    /// Compute-gap time preceding the access.
    gap_ps: u64,
    /// Fixed hit/miss latency the chip waits through (L1, +L2, +LLC for
    /// the levels actually traversed).
    wait_ps: u64,
    /// Present when the access missed through to the home node and blocks
    /// on L4/DRAM plus a wire transfer.
    blocking: Option<BlockingTrace>,
    /// Present when the fill displaced a dirty L2 victim whose write-back
    /// consumed wire bandwidth (silent upgrades don't).
    writeback: Option<WritebackTrace>,
    /// Scheduled-resync wire charges incurred by this step's pipeline
    /// operations (slot 0: the miss-path pipeline, slot 1: the victim
    /// write-back pipeline — one step can touch at most two).
    resyncs: [Option<ResyncTrace>; 2],
}

#[derive(Clone, Copy, Debug)]
struct BlockingTrace {
    home: usize,
    addr: Address,
    home_hit: bool,
    delta_bits: u64,
    /// Bits of `delta_bits` that were fault-recovery retransmissions —
    /// the replay splits their serialization time into the retry span.
    retry_bits: u64,
}

#[derive(Clone, Copy, Debug)]
struct WritebackTrace {
    home: usize,
    delta_bits: u64,
}

/// One scheduled `audit_and_resync` fired by the degradation controller:
/// its repair traffic is replayed onto the `(chip, home)` wire so recovery
/// has an honest bandwidth cost.
#[derive(Clone, Copy, Debug)]
struct ResyncTrace {
    home: usize,
    cost_bits: u64,
}

/// One chip: its workload, private hierarchy, and every compression
/// pipeline it drives (the directional `(self, home)` pipelines plus the
/// local memory path in the self slot).
struct ChipNode {
    gen: WorkloadGen,
    l1: SetAssocCache,
    l2: SetAssocCache,
    /// True timing clock, advanced only by [`FabricSim::apply_step_timing`].
    now_ps: u64,
    retired: u64,
    /// Memory accesses simulated (one per step).
    accesses: u64,
    /// Stamp clock for functional-phase telemetry: synced to `now_ps`
    /// after every step's timing replay, advanced contention-free by the
    /// functional phase in between.
    fn_clock: u64,
    /// `links[home]`: the compression pipeline toward `home`;
    /// `links[self]` is the local memory path.
    links: Vec<CompressedLink>,
    /// `controllers[home]`: the closed-loop degradation controller of the
    /// matching pipeline. Empty unless `config.degrade` armed a policy —
    /// chip-private state, so ladder decisions and scheduled resyncs are
    /// part of the functional half.
    controllers: Vec<OnOffController>,
}

impl ChipNode {
    /// Runs the functional half of one step: generator, private L1/L2,
    /// compression pipeline(s). Touches no shared timing state; returns
    /// the [`StepTrace`] for replay. `tel` stamps pipeline events at the
    /// chip's contention-free stamp clock.
    fn step_functional(
        &mut self,
        nodes: usize,
        config: &SystemConfig,
        latency: CompressionLatency,
        tel: &Telemetry,
    ) -> StepTrace {
        let c = config;
        let access = self.gen.next_access();
        self.retired += u64::from(access.compute_gap) + 1;
        self.accesses += 1;
        let gap_ps = c.cycles_to_ps(u64::from(access.compute_gap));
        self.fn_clock += gap_ps;
        tel.set_now_ps(self.fn_clock);

        // Private L1/L2.
        let mut wait_ps = c.cycles_to_ps(c.l1_latency_cy);
        if self.l1.access(access.addr).is_some() {
            if access.is_write {
                let data = self.gen.store_data(access.addr);
                self.l1.write(access.addr, data);
            }
            self.fn_clock += wait_ps;
            return StepTrace {
                gap_ps,
                wait_ps,
                blocking: None,
                writeback: None,
                resyncs: [None, None],
            };
        }
        wait_ps += c.cycles_to_ps(c.l2_latency_cy);
        if self.l2.access(access.addr).is_some() {
            let (writeback, fill_resync) = self.fill_upper(nodes, access.addr, access.is_write);
            self.fn_clock += wait_ps;
            return StepTrace {
                gap_ps,
                wait_ps,
                blocking: None,
                writeback,
                resyncs: [None, fill_resync],
            };
        }

        // LLC level: local or remote home.
        let home = (access.addr.page_number() % nodes as u64) as usize;
        let memory = self.gen.content(access.addr);
        wait_ps += c.cycles_to_ps(c.llc_latency_cy);

        let (t, delta_bits, retry_bits) = {
            let pipeline = &mut self.links[home];
            let before = pipeline.stats().wire_bits;
            let retry_before = pipeline.retransmitted_wire_bits();
            let t = if access.is_write {
                let t = pipeline.request_exclusive(access.addr, memory);
                let data = self.gen.store_data(access.addr);
                pipeline.remote_store(access.addr, data);
                t
            } else {
                pipeline.request(access.addr, memory)
            };
            (
                t,
                pipeline.stats().wire_bits - before,
                pipeline.retransmitted_wire_bits() - retry_before,
            )
        };
        let miss_resync = self.note_pipeline_op(home);
        if t.kind() == TransferKind::RemoteHit {
            let (writeback, fill_resync) = self.fill_upper(nodes, access.addr, access.is_write);
            self.fn_clock += wait_ps;
            return StepTrace {
                gap_ps,
                wait_ps,
                blocking: None,
                writeback,
                resyncs: [miss_resync, fill_resync],
            };
        }

        let blocking = Some(BlockingTrace {
            home,
            addr: access.addr,
            home_hit: t.home_hit(),
            delta_bits,
            retry_bits,
        });
        let (writeback, fill_resync) = self.fill_upper(nodes, access.addr, access.is_write);
        // Contention-free stamp advance: the fixed latencies, without the
        // DRAM/wire queueing only the replay knows.
        self.fn_clock +=
            wait_ps + c.cycles_to_ps(c.l4_latency_cy) + c.cycles_to_ps(latency.total_cycles());
        StepTrace {
            gap_ps,
            wait_ps,
            blocking,
            writeback,
            resyncs: [miss_resync, fill_resync],
        }
    }

    /// Notes one pipeline operation against that pipeline's degradation
    /// controller (a no-op unless a policy armed controllers). Returns the
    /// wire charge of a scheduled resync when one fired.
    fn note_pipeline_op(&mut self, home: usize) -> Option<ResyncTrace> {
        let ctl = self.controllers.get_mut(home)?;
        let cost_bits = ctl.note_op(&mut self.links[home])?;
        Some(ResyncTrace { home, cost_bits })
    }

    /// Functional half of the fill path: fills L2/L1, applies the store,
    /// and pushes any dirty L2 victim through the home pipeline. Returns
    /// the wire-bandwidth record of a non-silent write-back. Like the
    /// thread model's spill, write-backs overlap execution (the store
    /// buffer hides them), so only the wire's bandwidth is consumed — at
    /// replay time, via the returned trace.
    fn fill_upper(
        &mut self,
        nodes: usize,
        addr: Address,
        is_write: bool,
    ) -> (Option<WritebackTrace>, Option<ResyncTrace>) {
        let line = self.gen.content(addr);
        let store = is_write.then(|| self.gen.store_data(addr));
        let Some(victim) = fill_l2_l1(&mut self.l1, &mut self.l2, addr, line, store) else {
            return (None, None);
        };
        let home = (victim.addr.page_number() % nodes as u64) as usize;
        let pipeline = &mut self.links[home];
        // Resident at the home: silent upgrade, the link compresses the
        // eventual write-back on home-side eviction.
        if pipeline.remote_store(victim.addr, victim.data) {
            return (None, self.note_pipeline_op(home));
        }
        // Read-for-ownership through the link, then store. The wire call
        // is replayed even for zero delta bits — `SharedLink::transfer`
        // observably raises `busy_until` on idle links.
        let before = pipeline.stats().wire_bits;
        pipeline.request_exclusive(victim.addr, victim.data);
        pipeline.remote_store(victim.addr, victim.data);
        let delta_bits = pipeline.stats().wire_bits - before;
        (
            Some(WritebackTrace { home, delta_bits }),
            self.note_pipeline_op(home),
        )
    }

    fn set_link_telemetry(&mut self, tel: &Telemetry) {
        for l in &mut self.links {
            l.set_telemetry(tel.clone());
        }
        for c in &mut self.controllers {
            c.set_telemetry(tel);
        }
    }
}

/// Per-access latency probes, resolved once when an enabled telemetry
/// handle attaches. Recording happens exclusively inside
/// [`FabricSim::apply_step_timing`], the only clock-advancing code, so
/// every sample sees the final queueing state of its access.
struct FabricLatency {
    /// Fabric-wide per-stage histograms (`lat.{scheme}.measure.{stage}`).
    access: LatencyRecorder,
    /// Per mesh wire, hop-keyed queue and wire span histograms
    /// (`lat.{scheme}.measure.h{hop}.{queue,wire}`), triangular order.
    hops: Vec<(Histogram, Histogram)>,
}

/// A fully-connected multi-chip CMP with compressed coherence links.
pub struct FabricSim {
    nodes: usize,
    chips: Vec<ChipNode>,
    /// Per unordered chip pair: the shared physical PTP wire.
    wires: Vec<SharedLink>,
    local_wires: Vec<SharedLink>,
    drams: Vec<DramModel>,
    config: SystemConfig,
    scheme: Scheme,
    latency: CompressionLatency,
    /// PTP link bandwidth in bytes/s.
    ptp_bytes_per_sec: f64,
    tel: Telemetry,
    lat: Option<FabricLatency>,
}

impl FabricSim {
    /// Creates a `nodes`-chip fabric running one `profile` thread per chip
    /// under `scheme`, with `ptp_bytes_per_sec` of bandwidth per PTP link
    /// (QPI-class links are ~19.2 GB/s; scale down to model oversubscribed
    /// systems), using the Table IV configuration.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or the bandwidth is not positive.
    #[must_use]
    pub fn new(
        profile: &'static WorkloadProfile,
        scheme: Scheme,
        nodes: usize,
        ptp_bytes_per_sec: f64,
    ) -> Self {
        Self::with_config(
            profile,
            scheme,
            nodes,
            ptp_bytes_per_sec,
            &SystemConfig::paper_defaults(),
        )
    }

    /// [`FabricSim::new`] with an explicit [`SystemConfig`] — smaller cache
    /// geometries make 10k-endpoint meshes affordable, and `config.fault`
    /// arms fault injection on every CABLE pipeline with per-pipeline
    /// decorrelated seeds (same schedule-splitting idiom as
    /// [`crate::ThreadSim`]). `config.mesh_fault` arms (and overrides
    /// `fault` on) the mesh coherence pipelines only, optionally pinned to
    /// a single wire by `config.mesh_fault_hop`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes < 2` or the bandwidth is not positive.
    #[must_use]
    pub fn with_config(
        profile: &'static WorkloadProfile,
        scheme: Scheme,
        nodes: usize,
        ptp_bytes_per_sec: f64,
        config: &SystemConfig,
    ) -> Self {
        assert!(nodes >= 2, "a fabric needs at least two chips");
        assert!(ptp_bytes_per_sec > 0.0, "PTP bandwidth must be positive");
        let config = *config;
        let remote = CacheGeometry::new(config.llc_bytes, config.llc_ways);
        let home = CacheGeometry::new(config.l4_bytes, config.l4_ways);
        let chips = (0..nodes)
            .map(|i| {
                let links = (0..nodes)
                    .map(|h| {
                        let mut link =
                            CompressedLink::build(scheme, home, remote, config.link_width_bits);
                        if h != i {
                            // Tag the pipeline with the mesh wire it rides
                            // so its fault counters publish hop-keyed
                            // metric ids (purely observational).
                            link.set_wire_hop(wire_pair_index(nodes, i, h) as u32);
                        }
                        if let Some(f) = pipeline_fault_config(nodes, i, h, &config) {
                            link.enable_fault_injection(f);
                        }
                        link
                    })
                    .collect();
                // One closed-loop controller per pipeline (local path
                // included) when a degradation policy is armed.
                let controllers = config
                    .degrade
                    .map(|policy| {
                        (0..nodes)
                            .map(|_| {
                                let mut ctl = OnOffController::new(config.link_bytes_per_sec());
                                ctl.arm_degradation(policy, config.link_width_bits);
                                ctl
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                ChipNode {
                    gen: WorkloadGen::new(profile, i as u64),
                    l1: SetAssocCache::new(CacheGeometry::new(config.l1_bytes, config.l1_ways)),
                    l2: SetAssocCache::new(CacheGeometry::new(config.l2_bytes, config.l2_ways)),
                    now_ps: 0,
                    retired: 0,
                    accesses: 0,
                    fn_clock: 0,
                    links,
                    controllers,
                }
            })
            .collect();
        let wires = (0..nodes * (nodes - 1) / 2)
            .map(|_| SharedLink::new(ptp_bytes_per_sec, config.link_setup_ps))
            .collect();
        let local_wires = (0..nodes)
            .map(|_| SharedLink::from_config(&config))
            .collect();
        let drams = (0..nodes)
            .map(|_| DramModel::from_config(&config))
            .collect();
        FabricSim {
            nodes,
            chips,
            wires,
            local_wires,
            drams,
            config,
            scheme,
            latency: scheme.latency(),
            ptp_bytes_per_sec,
            tel: Telemetry::disabled(),
            lat: None,
        }
    }

    /// Attaches a [`Telemetry`] handle to every coherence pipeline, local
    /// link, PTP wire, and DRAM channel in the fabric. The stepping chip
    /// advances the handle's sim-time clock, so events carry the clock of
    /// whichever chip generated them.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        for chip in &mut self.chips {
            chip.set_link_telemetry(&tel);
        }
        for (hop, w) in self.wires.iter_mut().enumerate() {
            // PTP mesh wires carry a hop id (their triangular pair
            // index), so their occupancy traces as per-hop mesh slices
            // with queue depth rather than generic link-busy intervals.
            w.set_hop(hop as u32);
            w.set_telemetry(tel.clone());
        }
        for w in &mut self.local_wires {
            w.set_telemetry(tel.clone());
        }
        for d in &mut self.drams {
            d.set_telemetry(tel.clone());
        }
        self.lat = tel.is_enabled().then(|| {
            let label = self.scheme.label();
            FabricLatency {
                access: LatencyRecorder::new(&tel, &label, "measure"),
                hops: (0..self.wires.len())
                    .map(|h| {
                        let id = |stage| latency_hop_metric_id(&label, "measure", h as u32, stage);
                        (
                            tel.histogram(id(LatencyStage::Queue), LATENCY_EDGES),
                            tel.histogram(id(LatencyStage::Wire), LATENCY_EDGES),
                        )
                    })
                    .collect(),
            }
        });
        self.tel = tel;
    }

    /// Number of chips in the fabric.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    fn wire_index(&self, a: usize, b: usize) -> usize {
        wire_pair_index(self.nodes, a, b)
    }

    /// The home chip of an address (round-robin page allocation).
    #[must_use]
    pub fn home_node(&self, addr: cable_common::Address) -> usize {
        (addr.page_number() % self.nodes as u64) as usize
    }

    /// Runs until every chip retires `instructions_per_chip`.
    ///
    /// Time advances event-driven: a min-heap keyed on `(now_ps, chip)`
    /// always yields the chip with the earliest local clock (ties broken
    /// lowest-index-first, matching the seed linear scan); a chip that
    /// reaches its target is simply not re-queued, so there is no per-step
    /// all-done scan.
    pub fn run(&mut self, instructions_per_chip: u64) -> FabricResult {
        let mut sched = Scheduler::with_capacity(self.nodes);
        for (i, chip) in self.chips.iter().enumerate() {
            if chip.retired < instructions_per_chip {
                sched.push(chip.now_ps, i);
            }
        }
        while let Some((_, idx)) = sched.pop() {
            self.step_chip(idx);
            let chip = &self.chips[idx];
            if chip.retired < instructions_per_chip {
                sched.push(chip.now_ps, idx);
            }
        }
        self.result()
    }

    /// The seed O(N)-scan scheduler, kept verbatim as the equivalence
    /// oracle for [`FabricSim::run`]: the `run_equivalence` tests drive it.
    #[cfg(test)]
    pub(crate) fn run_linear(&mut self, instructions_per_chip: u64) -> FabricResult {
        loop {
            let idx = (0..self.nodes)
                .filter(|&i| self.chips[i].retired < instructions_per_chip)
                .min_by_key(|&i| self.chips[i].now_ps);
            let Some(idx) = idx else { break };
            self.step_chip(idx);
        }
        self.result()
    }

    fn result(&self) -> FabricResult {
        FabricResult {
            instructions: self.chips.iter().map(|c| c.retired).sum(),
            elapsed_ps: self.chips.iter().map(|c| c.now_ps).max().unwrap_or(0),
        }
    }

    /// One fused step: functional half, then its timing replay, then the
    /// stamp clock resynced to the true clock.
    fn step_chip(&mut self, idx: usize) {
        let trace =
            self.chips[idx].step_functional(self.nodes, &self.config, self.latency, &self.tel);
        self.apply_step_timing(idx, &trace);
        let chip = &mut self.chips[idx];
        chip.fn_clock = chip.now_ps;
    }

    /// Replays one [`StepTrace`] against the shared timing resources, in
    /// exactly the operation order of the original fused step: clock
    /// advance, then L4 + DRAM + compression latency + wire for a blocking
    /// miss, then the (non-blocking) victim write-back's wire occupancy at
    /// the step's final clock.
    fn apply_step_timing(&mut self, idx: usize, trace: &StepTrace) {
        let c = &self.config;
        self.chips[idx].now_ps += trace.gap_ps + trace.wait_ps;
        if let Some(b) = &trace.blocking {
            let l4_ps = c.cycles_to_ps(c.l4_latency_cy);
            let mut ready = self.chips[idx].now_ps + l4_ps;
            let dram_in = ready;
            if !b.home_hit {
                ready = self.drams[b.home].access(ready, b.addr);
            }
            let dram_ps = ready - dram_in;
            let codec_ps = c.cycles_to_ps(self.latency.total_cycles());
            ready += codec_ps;
            let wire_in = ready;
            let hop = (b.home != idx).then(|| self.wire_index(idx, b.home));
            // Read the queue depth and serialization constants while the
            // wire borrow is live, then drop it before touching the probes.
            let (queue_ps, ser_full, ser_clean, done) = {
                let wire = match hop {
                    Some(w) => &mut self.wires[w],
                    None => &mut self.local_wires[idx],
                };
                let queue_ps = wire.busy_until().saturating_sub(wire_in);
                let done = wire.transfer(ready, b.delta_bits);
                (
                    queue_ps,
                    wire.serialize_ps(b.delta_bits),
                    wire.serialize_ps(b.delta_bits - b.retry_bits),
                    done,
                )
            };
            if let Some(lat) = &self.lat {
                let retry_ps = ser_full - ser_clean;
                let wire_ps = done - wire_in - queue_ps - retry_ps;
                lat.access.record(&StageSpans {
                    hier: trace.wait_ps + l4_ps,
                    codec: codec_ps,
                    queue: queue_ps,
                    wire: wire_ps,
                    retry: retry_ps,
                    dram: dram_ps,
                });
                if let Some(w) = hop {
                    lat.hops[w].0.record(queue_ps);
                    lat.hops[w].1.record(wire_ps);
                }
            }
            self.chips[idx].now_ps = done;
        } else if let Some(lat) = &self.lat {
            // Locally-satisfied step: the whole access is hierarchy time.
            lat.access.record(&StageSpans {
                hier: trace.wait_ps,
                ..StageSpans::default()
            });
        }
        if let Some(wb) = &trace.writeback {
            let now = self.chips[idx].now_ps;
            if wb.home == idx {
                self.local_wires[idx].transfer(now, wb.delta_bits);
            } else {
                let w = self.wire_index(idx, wb.home);
                self.wires[w].transfer(now, wb.delta_bits);
            }
        }
        // Scheduled-resync repair traffic occupies the same wire the
        // pipeline runs on, at the step's final clock: recovery is honest
        // bandwidth the figures can see, but (like write-backs) it does
        // not block the requester.
        for rs in trace.resyncs.iter().flatten() {
            let now = self.chips[idx].now_ps;
            let cost_ps = if rs.home == idx {
                let cost = self.local_wires[idx].serialize_ps(rs.cost_bits);
                self.local_wires[idx].transfer(now, rs.cost_bits);
                cost
            } else {
                let w = self.wire_index(idx, rs.home);
                let cost = self.wires[w].serialize_ps(rs.cost_bits);
                self.wires[w].transfer(now, rs.cost_bits);
                cost
            };
            // Resync repair is charged as a standalone retry-only sample:
            // it never blocks the requester, but it is honest recovery
            // latency the percentile tables must not hide.
            if let Some(lat) = &self.lat {
                lat.access.record(&StageSpans {
                    retry: cost_ps,
                    ..StageSpans::default()
                });
            }
        }
    }

    /// Aggregated statistics across the coherence pipelines only (the PTP
    /// traffic of Fig. 13's use case).
    #[must_use]
    pub fn coherence_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for (i, chip) in self.chips.iter().enumerate() {
            for (home, p) in chip.links.iter().enumerate() {
                if home == i {
                    continue;
                }
                let s = p.stats();
                total.fills += s.fills;
                total.remote_hits += s.remote_hits;
                total.writebacks += s.writebacks;
                total.uncompressed_bits += s.uncompressed_bits;
                total.wire_bits += s.wire_bits;
                total.payload_bits += s.payload_bits;
                total.raw_transfers += s.raw_transfers;
                total.unseeded_transfers += s.unseeded_transfers;
                total.diff_transfers += s.diff_transfers;
            }
        }
        total
    }

    /// Aggregated fault-injection statistics across every CABLE pipeline
    /// (coherence and local), when `config.fault` armed them.
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        let mut total: Option<FaultStats> = None;
        for chip in &self.chips {
            for l in &chip.links {
                if let Some(fs) = l.fault_stats() {
                    total.get_or_insert_with(FaultStats::default).accumulate(fs);
                }
            }
        }
        total
    }

    /// Per-wire rollup of every PTP mesh hop in triangular hop order:
    /// wire occupancy from the shared link, fault counters summed over the
    /// two directional pipelines riding the wire. The localization surface
    /// of `cable report --hops` and the run-equivalence digests.
    #[must_use]
    pub fn hop_stats(&self) -> Vec<HopStats> {
        let mut out = Vec::with_capacity(self.wires.len());
        for lo in 0..self.nodes {
            for hi in lo + 1..self.nodes {
                let hop = wire_pair_index(self.nodes, lo, hi);
                let mut fault: Option<FaultStats> = None;
                for (req, home) in [(lo, hi), (hi, lo)] {
                    if let Some(fs) = self.chips[req].links[home].fault_stats() {
                        fault.get_or_insert_with(FaultStats::default).accumulate(fs);
                    }
                }
                let w = &self.wires[hop];
                out.push(HopStats {
                    hop: hop as u32,
                    chips: (lo, hi),
                    bits_sent: w.bits_sent(),
                    busy_ps: w.busy_ps_total(),
                    transfers: w.transfers(),
                    fault,
                });
            }
        }
        out
    }

    /// Aggregated degradation-controller statistics across every pipeline,
    /// when `config.degrade` armed controllers.
    #[must_use]
    pub fn degradation_stats(&self) -> Option<DegradationStats> {
        let mut total: Option<DegradationStats> = None;
        for chip in &self.chips {
            for ctl in &chip.controllers {
                total
                    .get_or_insert_with(DegradationStats::default)
                    .accumulate(&ctl.degradation_stats());
            }
        }
        total
    }

    /// Current ladder rung of every degradation controller, chip-major
    /// (`nodes * nodes` entries, the local path in the diagonal slot);
    /// empty when no policy is armed. `iter().max()` gives the fabric's
    /// worst rung.
    #[must_use]
    pub fn degrade_levels(&self) -> Vec<DegradeLevel> {
        self.chips
            .iter()
            .flat_map(|chip| chip.controllers.iter().map(OnOffController::level))
            .collect()
    }

    /// Arms (`Some`) or disarms (`None`) fault injection on every CABLE
    /// pipeline mid-run — the burst half of the degradation benchmark.
    /// Arming decorrelates per-pipeline seeds exactly like
    /// [`FabricSim::with_config`]; disarming settles synchronization debt
    /// first (see `Link::disable_fault_injection`).
    pub fn set_fault_injection(&mut self, fault: Option<FaultConfig>) {
        self.config.fault = fault;
        // Re-derive every pipeline's schedule: mesh override first, then
        // the plain schedule, else disarm.
        for (i, chip) in self.chips.iter_mut().enumerate() {
            for (h, link) in chip.links.iter_mut().enumerate() {
                match pipeline_fault_config(self.nodes, i, h, &self.config) {
                    Some(f) => link.enable_fault_injection(f),
                    None => link.disable_fault_injection(),
                }
            }
        }
    }

    /// A digest of every shared timing resource plus per-chip clocks and
    /// access counts — two runs are timing-equivalent iff their
    /// fingerprints match. Used by the run-equivalence tests.
    #[must_use]
    pub fn timing_fingerprint(&self) -> Vec<u64> {
        let mut fp = Vec::with_capacity(self.nodes * 3 + self.wires.len() * 2);
        for chip in &self.chips {
            fp.push(chip.now_ps);
            fp.push(chip.retired);
            fp.push(chip.accesses);
        }
        for w in self.wires.iter().chain(&self.local_wires) {
            fp.push(w.bits_sent());
            fp.push(w.busy_ps_total());
            fp.push(w.busy_until());
        }
        for d in &self.drams {
            fp.push(d.accesses());
        }
        fp
    }

    /// Memory accesses simulated so far, across all chips (one access per
    /// scheduler step — the numerator of simulated-accesses/sec).
    #[must_use]
    pub fn total_accesses(&self) -> u64 {
        self.chips.iter().map(|c| c.accesses).sum()
    }

    /// Per-link stats of every coherence pipeline, in `(requester, home)`
    /// row-major order (requester != home) — the byte-identity surface of
    /// the run-equivalence tests.
    #[cfg(test)]
    pub fn pipeline_stats(&self) -> Vec<LinkStats> {
        let mut out = Vec::with_capacity(self.nodes * (self.nodes - 1));
        for (i, chip) in self.chips.iter().enumerate() {
            for (home, p) in chip.links.iter().enumerate() {
                if home != i {
                    out.push(*p.stats());
                }
            }
        }
        out
    }

    /// Stats of each chip's local memory link.
    #[cfg(test)]
    pub fn local_link_stats(&self) -> Vec<LinkStats> {
        self.chips
            .iter()
            .enumerate()
            .map(|(i, chip)| *chip.links[i].stats())
            .collect()
    }

    /// The configured PTP bandwidth in bytes per second.
    #[must_use]
    pub fn ptp_bytes_per_sec(&self) -> f64 {
        self.ptp_bytes_per_sec
    }
}

impl fmt::Debug for FabricSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FabricSim({} chips, {:.1} GB/s PTP, ratio {:.2})",
            self.nodes,
            self.ptp_bytes_per_sec / 1e9,
            self.coherence_stats().compression_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cable_compress::EngineKind;
    use cable_trace::by_name;

    #[test]
    fn wire_index_is_a_bijection_over_pairs() {
        let f = FabricSim::new(by_name("gcc").unwrap(), Scheme::Uncompressed, 4, 19.2e9);
        let mut seen = std::collections::HashSet::new();
        for a in 0..4 {
            for b in 0..4 {
                if a != b {
                    let w = f.wire_index(a, b);
                    assert_eq!(w, f.wire_index(b, a), "symmetric");
                    seen.insert(w);
                    assert!(w < 6);
                }
            }
        }
        assert_eq!(seen.len(), 6, "six PTP links in a 4-chip system (§V-B)");
    }

    #[test]
    fn fabric_advances_and_compresses() {
        let mut f = FabricSim::new(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            19.2e9,
        );
        let r = f.run(10_000);
        assert!(r.instructions >= 4 * 10_000);
        assert!(r.elapsed_ps > 0);
        let s = f.coherence_stats();
        assert!(s.fills > 100, "page interleave must create PTP traffic");
        assert!(s.compression_ratio() > 1.0);
    }

    #[test]
    fn compression_speeds_up_a_starved_fabric() {
        // With scarce PTP bandwidth, CABLE's coherence compression buys
        // throughput — the §V-B motivation.
        let scarce = 19.2e9 / 64.0;
        let mut base = FabricSim::new(by_name("mcf").unwrap(), Scheme::Uncompressed, 4, scarce);
        let mut cable = FabricSim::new(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            scarce,
        );
        let rb = base.run(15_000);
        let rc = cable.run(15_000);
        let speedup = rc.ips() / rb.ips();
        assert!(speedup > 1.3, "speedup {speedup}");
    }

    #[test]
    fn traced_fabric_emits_per_hop_mesh_slices() {
        let mut f = FabricSim::new(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            19.2e9,
        );
        let tel = Telemetry::enabled();
        f.set_telemetry(tel.clone());
        f.run(5_000);
        let hops: std::collections::HashSet<u32> = tel
            .events()
            .iter()
            .filter_map(|te| match te.event {
                cable_telemetry::Event::MeshHop { hop, .. } => Some(hop),
                _ => None,
            })
            .collect();
        assert!(!hops.is_empty(), "PTP traffic must trace mesh-hop slices");
        assert!(
            hops.iter().all(|&h| h < 6),
            "hop ids index the six PTP wires of a 4-chip mesh: {hops:?}"
        );
    }

    #[test]
    fn local_traffic_stays_off_the_ptp_links() {
        // A 2-chip fabric where one chip only touches its local pages
        // generates no coherence traffic from that chip... the generator
        // interleaves pages, so instead check conservation: every fill went
        // through exactly one pipeline.
        let mut f = FabricSim::new(
            by_name("gcc").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            2,
            19.2e9,
        );
        f.run(5_000);
        let coherence = f.coherence_stats();
        let local: u64 = f.local_link_stats().iter().map(|s| s.fills).sum();
        assert!(coherence.fills > 0);
        assert!(local > 0);
    }

    #[test]
    fn mesh_faults_arm_only_the_selected_wire() {
        let cfg = SystemConfig {
            mesh_fault: Some(cable_core::FaultConfig::with_rate(0xfab, 1e-2)),
            mesh_fault_hop: Some(2),
            ..SystemConfig::paper_defaults()
        };
        let mut f = FabricSim::with_config(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            19.2e9,
            &cfg,
        );
        f.run(20_000);
        let hops = f.hop_stats();
        assert_eq!(hops.len(), 6, "six wires in a 4-chip mesh");
        assert!(
            hops.iter().enumerate().all(|(i, h)| h.hop as usize == i),
            "rows come back in triangular hop order"
        );
        for h in &hops {
            assert!(h.bits_sent > 0, "page interleave exercises every wire");
            if h.hop == 2 {
                assert_eq!(h.chips, (0, 3));
                let fs = h.fault.expect("the armed wire reports fault stats");
                assert!(fs.injected_frames > 0, "rate 1e-2 must corrupt frames");
                assert_eq!(fs.recovered, fs.detected);
            } else {
                assert!(h.fault.is_none(), "only hop 2 is armed: {h:?}");
            }
        }
    }

    #[test]
    fn mesh_fault_direction_seeds_decorrelate() {
        // Both directional pipelines of the armed wire run *different*
        // fault schedules: identical per-direction injected counters would
        // mean the lanes share a seed.
        let cfg = SystemConfig {
            mesh_fault: Some(cable_core::FaultConfig::with_rate(0xfab, 1e-2)),
            mesh_fault_hop: None,
            ..SystemConfig::paper_defaults()
        };
        let mut f = FabricSim::with_config(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            19.2e9,
            &cfg,
        );
        f.run(20_000);
        let seeds: std::collections::HashSet<u64> = (0..4)
            .flat_map(|i| (0..4).filter(move |&h| h != i).map(move |h| (i, h)))
            .map(|(i, h)| pipeline_fault_config(4, i, h, &cfg).unwrap().seed)
            .collect();
        assert_eq!(
            seeds.len(),
            12,
            "every (hop, direction) lane gets its own seed"
        );
        let total = f.fault_stats().expect("mesh arming feeds fault_stats");
        assert!(total.injected_frames > 0);
        // Local pipelines stay unarmed under a mesh-only schedule.
        for (i, chip) in f.chips.iter().enumerate() {
            assert!(chip.links[i].fault_stats().is_none());
        }
    }

    #[test]
    fn with_config_arms_decorrelated_fault_injection() {
        let cfg = SystemConfig {
            fault: Some(cable_core::FaultConfig::with_rate(0xfab, 1e-3)),
            ..SystemConfig::paper_defaults()
        };
        let mut f = FabricSim::with_config(
            by_name("mcf").unwrap(),
            Scheme::Cable(EngineKind::Lbe),
            4,
            19.2e9,
            &cfg,
        );
        f.run(20_000);
        let fs = f.fault_stats().expect("fault mode must be armed");
        assert!(fs.injected_bit_flips > 0, "rate 1e-3 must flip bits");
        assert_eq!(fs.recovered, fs.detected);
    }
}
