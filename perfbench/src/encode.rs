//! `encode-dealII`: one CABLE+LBE link at the §VI-A geometry, driven
//! through `CompressedLink::request_batch` by a closed loop with one caller.

use crate::passes::{self, PassOut, Passes};
use crate::report::{Digest, Metric};
use cable_cache::CacheGeometry;
use cable_compress::EngineKind;
use cable_core::{BatchAccess, LinkStats, Transfer};
use cable_sim::{CompressedLink, Scheme};
use cable_trace::WorkloadGen;
use std::time::{Duration, Instant};

/// Template-heavy: almost every fill runs the full §III-C search, the LBE
/// DIFF and the verify-decode.
pub const PROFILE: &str = "dealII";

/// Accesses per `request_batch` call.
pub const BATCH: usize = 64;

/// Run shape.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Warm-up accesses before statistics start (part of set-up).
    pub warm: u64,
    /// Timed windows per pass.
    pub windows: usize,
    /// Accesses per window.
    pub per_window: u64,
}

pub const FULL: Size = Size {
    warm: 60_000,
    windows: 320,
    per_window: 1_024,
};

/// §VI-A: 4 MB home L4, 1 MB remote LLC, 16-bit link.
pub fn home() -> CacheGeometry {
    CacheGeometry::new(4 << 20, 16)
}

pub fn build_link() -> CompressedLink {
    CompressedLink::build(
        Scheme::Cable(EngineKind::Lbe),
        home(),
        CacheGeometry::new(1 << 20, 8),
        16,
    )
}

/// Distinct input streams: the seed selects instance `seed % INSTANCES`.
/// Instance `i` starts ~20k accesses into the shared sequence per index,
/// and building it replays that prefix, so the range stays small.
pub const INSTANCES: u64 = 16;

/// The input stream of `seed`, built once per run; every pass replays a
/// clone of it.
pub fn generator(seed: u64) -> WorkloadGen {
    WorkloadGen::new(
        cable_trace::by_name(PROFILE).expect("dealII profile exists"),
        seed % INSTANCES,
    )
}

/// Builds batches from the trace and pushes them through the link.
#[derive(Default)]
pub struct Feeder {
    pub batch: Vec<BatchAccess>,
    pub xfers: Vec<Transfer>,
    /// Instructions the replayed accesses stand for (compute gap + 1 each).
    pub instructions: u64,
}

impl Feeder {
    /// Generates the next `n` accesses into the batch.
    pub fn fill(&mut self, gen: &mut WorkloadGen, n: usize) {
        self.batch.clear();
        for _ in 0..n {
            let a = gen.next_access();
            self.instructions += u64::from(a.compute_gap) + 1;
            let memory = gen.content(a.addr);
            self.batch.push(if a.is_write {
                BatchAccess::write(a.addr, memory, gen.store_data(a.addr))
            } else {
                BatchAccess::read(a.addr, memory)
            });
        }
    }

    /// Sends the batch.
    pub fn send(&mut self, link: &mut CompressedLink) {
        self.xfers.clear();
        link.request_batch(&self.batch, &mut self.xfers);
    }

    pub fn drive(&mut self, link: &mut CompressedLink, gen: &mut WorkloadGen, accesses: u64) {
        let mut left = accesses;
        while left > 0 {
            let n = left.min(BATCH as u64) as usize;
            self.fill(gen, n);
            self.send(link);
            left -= n as u64;
        }
    }
}

/// Builds and warms a link on a copy of `input`; statistics start after
/// warm-up.
pub fn warmed(input: &WorkloadGen, size: Size) -> (CompressedLink, WorkloadGen) {
    let (mut link, mut gen) = (build_link(), input.clone());
    Feeder::default().drive(&mut link, &mut gen, size.warm);
    link.reset_stats();
    (link, gen)
}

pub fn digest_stats(d: &mut Digest, s: &LinkStats) {
    for v in [
        s.fills,
        s.remote_hits,
        s.writebacks,
        s.home_hits,
        s.raw_transfers,
        s.unseeded_transfers,
        s.diff_transfers,
        s.refs_sent,
        s.uncompressed_bits,
        s.payload_bits,
        s.wire_bits,
        s.wire_bits_packed,
        s.data_array_reads,
        s.compression_ops,
        s.bit_toggles,
        s.flits,
    ] {
        d.add(v);
    }
}

/// What an untraced run of the workload produced.
pub struct Outcome {
    pub passes: Passes,
    pub stats: LinkStats,
    pub accesses: u64,
}

pub fn run(seed: u64, size: Size, budget: Duration) -> Outcome {
    let input = generator(seed);
    let mut stats = LinkStats::default();
    let passes = passes::run(1, size.windows, budget, || {
        let t = Instant::now();
        let (mut link, mut gen) = warmed(&input, size);
        let setup_s = passes::secs(t);
        let mut feeder = Feeder::default();
        let window_s = (0..size.windows)
            .map(|_| {
                let t = Instant::now();
                feeder.drive(&mut link, &mut gen, size.per_window);
                passes::secs(t)
            })
            .collect();
        stats = *link.stats();
        let mut digest = Digest::default();
        digest_stats(&mut digest, &stats);
        digest.add(feeder.instructions);
        PassOut {
            setup_s: vec![setup_s],
            window_s,
            digest,
        }
    });
    Outcome {
        passes,
        stats,
        accesses: size.windows as u64 * size.per_window,
    }
}

/// The workload's own end-to-end metrics.
pub fn metrics(o: &Outcome) -> Vec<Metric> {
    vec![
        Metric::new(
            "accesses_per_s",
            "acc/s",
            o.accesses as f64 / o.passes.floor.host_s(),
        ),
        Metric::new("setup_s", "s", o.passes.floor.setup_s()),
        Metric::new("compression_ratio", "x", o.stats.compression_ratio()),
    ]
}

/// Output checks beyond determinism: every access is either a remote hit
/// or a fill, and the link compresses.
pub fn check(o: &Outcome) -> Result<(), String> {
    let s = &o.stats;
    if s.fills + s.remote_hits != o.accesses {
        return Err(format!(
            "{} fills + {} remote hits != {} accesses",
            s.fills, s.remote_hits, o.accesses
        ));
    }
    if s.compression_ratio() <= 1.0 {
        return Err(format!("compression ratio {}", s.compression_ratio()));
    }
    Ok(())
}
