//! `starved-mcf`: the Fig. 14 bandwidth group. Eight mcf threads in a
//! 2048-thread system share 1/256 of the 76.8 GB/s link (0.3 GB/s), under
//! Uncompressed, CPACK and CABLE+LBE — timed `run_group_arena` calls, one
//! window per scheme. `SimArena` fixes the thread instances at 0–7, so this
//! workload takes no seed.

use crate::passes::{self, PassOut, Passes};
use crate::report::{Digest, Metric};
use cable_compress::EngineKind;
use cable_core::BaselineKind;
use cable_sim::{run_group_arena, Scheme, SimArena, SystemConfig, ThroughputResult};
use cable_trace::WorkloadProfile;
use std::time::{Duration, Instant};

pub const PROFILE: &str = "mcf";

/// System thread count: per-group bandwidth is 1/256 of the link.
pub const THREADS: usize = 2048;

/// The schemes, with their metric-name labels. Uncompressed skips the codec
/// and is the control for optimisations of the core simulator.
pub const SCHEMES: [(Scheme, &str); 3] = [
    (Scheme::Uncompressed, "uncompressed"),
    (Scheme::Baseline(BaselineKind::Cpack), "cpack"),
    (Scheme::Cable(EngineKind::Lbe), "cable-lbe"),
];

/// Run shape.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    /// Warm-up accesses per thread (the `run_group` default).
    pub warm: u64,
    /// Instructions per thread per call.
    pub instructions: u64,
    /// Rounds per pass. A round calls every scheme once, in turn; each call
    /// replays the same warmed state, so a scheme's window time in a pass
    /// is its fastest round. Short interleaved calls give every scheme
    /// samples inside the host's brief fast periods.
    pub rounds: usize,
}

pub const FULL: Size = Size {
    warm: 20_000,
    instructions: 30_000,
    rounds: 3,
};

pub fn profile() -> &'static WorkloadProfile {
    cable_trace::by_name(PROFILE).expect("mcf profile exists")
}

/// Table IV configuration.
pub fn config() -> SystemConfig {
    SystemConfig::paper_defaults()
}

/// Warms every scheme's group into a fresh arena; returns the set-up time
/// of each scheme.
pub fn warm_arena(arena: &mut SimArena, size: Size) -> [f64; 3] {
    let cfg = config();
    SCHEMES.map(|(scheme, _)| {
        let t = Instant::now();
        drop(arena.warmed_group(profile(), scheme, size.warm, &cfg));
        passes::secs(t)
    })
}

pub fn call(arena: &mut SimArena, scheme: Scheme, size: Size) -> ThroughputResult {
    run_group_arena(
        arena,
        profile(),
        scheme,
        THREADS,
        size.warm,
        size.instructions,
        &config(),
    )
}

pub fn digest_result(d: &mut Digest, r: &ThroughputResult) {
    d.add(r.threads as u64);
    d.add(r.group_instructions);
    d.add(r.elapsed_ps);
}

pub struct Outcome {
    pub passes: Passes,
    /// One result per scheme, in [`SCHEMES`] order.
    pub results: Vec<ThroughputResult>,
    pub size: Size,
}

/// One pass after set-up: `size.rounds` rounds over the schemes. Returns
/// each scheme's fastest call and its result, which every round repeats.
pub fn rounds(arena: &mut SimArena, size: Size) -> (Vec<f64>, Vec<ThroughputResult>) {
    let mut window_s = vec![f64::INFINITY; SCHEMES.len()];
    let mut results: Vec<ThroughputResult> = Vec::new();
    for round in 0..size.rounds {
        for (i, (scheme, label)) in SCHEMES.into_iter().enumerate() {
            let t = Instant::now();
            let r = call(arena, scheme, size);
            window_s[i] = window_s[i].min(passes::secs(t));
            if round == 0 {
                results.push(r);
            } else {
                assert_eq!(
                    (r.group_instructions, r.elapsed_ps),
                    (results[i].group_instructions, results[i].elapsed_ps),
                    "{label}: a replay of the same warmed state diverged"
                );
            }
        }
    }
    (window_s, results)
}

pub fn run(size: Size, budget: Duration) -> Outcome {
    let mut results = Vec::new();
    // Set-up parts: each scheme's warm-up.
    let passes = passes::run(SCHEMES.len(), SCHEMES.len(), budget, || {
        let mut arena = SimArena::new();
        let setup_s = warm_arena(&mut arena, size).to_vec();
        let (window_s, r) = rounds(&mut arena, size);
        results = r;
        let mut digest = Digest::default();
        for r in &results {
            digest_result(&mut digest, r);
        }
        PassOut {
            setup_s,
            window_s,
            digest,
        }
    });
    Outcome {
        passes,
        results,
        size,
    }
}

/// Group IPS of CABLE+LBE ÷ Uncompressed (simulated).
pub fn sim_speedup(results: &[ThroughputResult]) -> f64 {
    results[2].group_ips() / results[0].group_ips()
}

pub fn metrics(o: &Outcome) -> Vec<Metric> {
    let instructions: u64 = o.results.iter().map(|r| r.group_instructions).sum();
    vec![
        Metric::new(
            "instructions_per_s",
            "instr/s",
            instructions as f64 / o.passes.floor.host_s(),
        ),
        Metric::new("setup_s", "s", o.passes.floor.setup_s()),
        Metric::new("sim_speedup", "x", sim_speedup(&o.results)),
    ]
}

/// Every thread retires its budget, and on the starved link both
/// compressors beat Uncompressed (the paper's Fig. 14 regime).
pub fn check(o: &Outcome) -> Result<(), String> {
    let target = o.size.instructions * cable_sim::GROUP_SIZE as u64;
    if let Some(r) = o
        .results
        .iter()
        .find(|r| r.group_instructions < target || r.elapsed_ps == 0)
    {
        return Err(format!("group retired too little: {r:?}"));
    }
    let ips: Vec<f64> = o.results.iter().map(ThroughputResult::group_ips).collect();
    if !(ips[1] > ips[0] && ips[2] > ips[0]) {
        return Err(format!("no speedup on the starved link: {ips:?}"));
    }
    Ok(())
}
