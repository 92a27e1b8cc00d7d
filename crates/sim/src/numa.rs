//! Multi-chip coherence-link compression (Fig. 13, §V-B).
//!
//! A NUMA system with round-robin page interleaving: every access whose
//! page is homed on another chip crosses a point-to-point coherence link,
//! and each link pair has its own CABLE pipeline and WMT ("one WMT per
//! link-pair for small configurations", §IV-D). Single-threaded SPEC2006
//! benchmarks gauge "a system with memory load balancing by interleaving
//! pages across nodes" — compression ratios come out slightly lower than
//! the memory link "due to more dirty line transfers".
//!
//! The study is functional: it measures what the links compress, not
//! when. [`crate::FabricSim`] adds timing, faults and the degradation
//! ladder on the same page-interleaved address space.

use crate::thread::{CompressedLink, Scheme};
use cable_cache::CacheGeometry;
use cable_common::Address;
use cable_core::LinkStats;
use cable_trace::{WorkloadGen, WorkloadProfile};

/// Which of `nodes` chips homes `addr` (round-robin page allocation,
/// Table IV).
pub(crate) fn home_node(addr: Address, nodes: usize) -> usize {
    (addr.page_number() % nodes as u64) as usize
}

/// A NUMA compression study over one benchmark.
pub struct NumaSim {
    gen: WorkloadGen,
    nodes: usize,
    /// One compressed link per remote node (index 0 = node 1, …).
    links: Vec<CompressedLink>,
    local_accesses: u64,
    remote_accesses: u64,
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
        NumaSim {
            gen: WorkloadGen::new(profile, 0),
            nodes,
            links: (1..nodes)
                .map(|_| CompressedLink::build(scheme, home, remote, 16))
                .collect(),
            local_accesses: 0,
            remote_accesses: 0,
        }
    }

    /// Runs `accesses` memory accesses, compressing all cross-chip traffic.
    pub fn run(&mut self, accesses: u64) {
        for _ in 0..accesses {
            let access = self.gen.next_access();
            let node = home_node(access.addr, self.nodes);
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
        }
    }

    /// Aggregated statistics across all coherence links.
    #[must_use]
    pub fn combined_stats(&self) -> LinkStats {
        let mut total = LinkStats::default();
        for link in &self.links {
            total.accumulate(link.stats());
        }
        total
    }

    /// `(local, remote)` access counts.
    #[must_use]
    pub fn access_split(&self) -> (u64, u64) {
        (self.local_accesses, self.remote_accesses)
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
    #[should_panic(expected = "at least two nodes")]
    fn single_node_rejected() {
        let _ = NumaSim::new(by_name("gcc").unwrap(), Scheme::Uncompressed, 1);
    }
}
