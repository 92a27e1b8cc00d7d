//! Simulated and count-based benchmark artifacts (`perf_smoke`).
//!
//! Each builder in [`PERF_BENCHES`] runs one deterministic study and
//! returns a `BENCH_<name>` figure: CABLE under rising link fault rates,
//! the closed-loop degradation ladder, the telemetry registry's view of
//! the encode workload, and the per-stage access-latency attribution.
//! `cargo run --release -p cable-bench --bin perf_smoke` writes them all
//! to the current directory. No column is wall-clock, so a second run
//! reproduces every figure exactly; host-time throughput lives in the
//! separate `perfbench` package.

use crate::figs::is_quick;
use crate::report::FigureResult;
use crate::runner::{default_schemes, drive, StudyConfig};
use cable_compress::EngineKind;
use cable_core::{BaselineKind, FaultConfig};
use cable_sim::{FabricSim, Scheme, SystemConfig};
use cable_telemetry::{Report, Telemetry, LATENCY_METRIC_PREFIX};
use cable_trace::WorkloadGen;

/// Every `perf_smoke` artifact builder, in emission order. Each result is
/// written as `<id>.json`.
pub const PERF_BENCHES: &[fn() -> FigureResult<'static>] = &[
    run_fault_bench,
    run_degrade_bench,
    run_telemetry_bench,
    run_latency_bench,
];

/// Owned column labels for a [`FigureResult`].
fn columns(names: &[&str]) -> Vec<String> {
    names.iter().map(|c| (*c).to_string()).collect()
}

/// Per-chip cache geometry of the degradation and latency fabrics: scaled
/// far below Table IV so short runs force LLC/L4 evictions and dirty
/// write-backs across the coherence pipelines.
fn mesh_bench_config() -> SystemConfig {
    SystemConfig {
        l1_bytes: 4 << 10,
        l1_ways: 2,
        l2_bytes: 8 << 10,
        l2_ways: 4,
        llc_bytes: 8 << 10,
        llc_ways: 4,
        l4_bytes: 16 << 10,
        l4_ways: 8,
        ..SystemConfig::paper_defaults()
    }
}

/// Identifier of the emitted fault-degradation JSON result
/// (`BENCH_fault.json`).
pub const FAULT_BENCH_ID: &str = "BENCH_fault";

/// Columns of the emitted fault-degradation figure, in order.
pub const FAULT_BENCH_COLUMNS: &[&str] = &[
    "compression_ratio",
    "injected_frames",
    "detected",
    "recovered",
    "fallback_raw",
    "retransmitted_bits",
    "escalations",
];

/// Seed of the fault-degradation sweep's schedules.
pub const FAULT_BENCH_SEED: u64 = 0x000c_ab1e_fa17;

/// Per-bit flip rates swept by [`run_fault_bench`] (each rate also scales
/// truncation and notice loss, see `FaultConfig::with_rate`).
pub const FAULT_BENCH_RATES: &[f64] = &[1e-4, 1e-3, 1e-2];

/// Workloads swept by [`run_fault_bench`]: dealII (template-heavy — long
/// reference chains make reference faults expensive) and mcf (memory-bound
/// pointer chasing — many unseeded transfers, the other fault exposure).
pub const FAULT_BENCH_WORKLOADS: &[&str] = &["dealII", "mcf"];

/// Measures how CABLE degrades as link fault rates rise, once per
/// [`FAULT_BENCH_WORKLOADS`] entry: one fault-free row
/// (`<workload>/off`, no guard bits — the reliable operating point), one
/// CRC-guarded but lossless row, then [`FAULT_BENCH_RATES`]. Reports the
/// achieved compression ratio and the recovery counters; the quick suite
/// asserts `detected >= injected_frames` and `recovered == detected` on
/// every row. Honors `CABLE_QUICK`.
///
/// # Panics
///
/// Panics if a benchmark workload is missing from the profile table.
#[must_use]
pub fn run_fault_bench() -> FigureResult<'static> {
    let cfg = if is_quick() {
        StudyConfig::quick()
    } else {
        StudyConfig::paper_defaults()
    };
    let mut rows = Vec::new();
    for workload in FAULT_BENCH_WORKLOADS {
        let profile = cable_trace::by_name(workload).expect("benchmark workload exists");
        let mut points: Vec<(String, Option<FaultConfig>)> = vec![
            (format!("{workload}/off"), None),
            (
                format!("{workload}/lossless"),
                Some(FaultConfig::lossless(FAULT_BENCH_SEED)),
            ),
        ];
        points.extend(FAULT_BENCH_RATES.iter().map(|&rate| {
            (
                format!("{workload}/{rate:.0e}"),
                Some(FaultConfig::with_rate(FAULT_BENCH_SEED, rate)),
            )
        }));
        rows.extend(points.into_iter().map(|(label, fault)| {
            let mut link = cfg.build_link(Scheme::Cable(EngineKind::Lbe));
            if let Some(fault_cfg) = fault {
                link.enable_fault_injection(fault_cfg);
            }
            let mut gen = WorkloadGen::new(profile, 0);
            drive(&mut link, &mut gen, cfg.warmup_accesses);
            link.reset_stats();
            drive(&mut link, &mut gen, cfg.accesses);
            let fs = link.fault_stats().copied().unwrap_or_default();
            (
                label,
                vec![
                    link.stats().compression_ratio(),
                    fs.injected_frames as f64,
                    fs.detected as f64,
                    fs.recovered as f64,
                    fs.fallback_raw as f64,
                    fs.retransmitted_bits as f64,
                    fs.escalations as f64,
                ],
            )
        }));
    }
    FigureResult {
        id: FAULT_BENCH_ID,
        title: "CABLE degradation vs link fault rate (CRC guard + NACK/retry)",
        columns: columns(FAULT_BENCH_COLUMNS),
        rows,
    }
}

/// Identifier of the emitted closed-loop degradation JSON result
/// (`BENCH_degrade.json`).
pub const DEGRADE_BENCH_ID: &str = "BENCH_degrade";

/// The workload the degradation sweep replays. mcf is memory-bound, so
/// nearly every step crosses a coherence pipeline — the traffic the
/// controllers sample.
pub const DEGRADE_BENCH_WORKLOAD: &str = "mcf";

/// Columns of the emitted degradation figure, in order. Every column is a
/// *simulated* quantity (no wall-clock), so the whole figure is
/// deterministic and the committed `BENCH_degrade.json` is an exact golden.
pub const DEGRADE_BENCH_COLUMNS: &[&str] = &[
    "accesses_per_sec",
    "wire_bits_per_access",
    "nacks",
    "reliable_frames",
    "demotions",
    "promotions",
    "worst_level",
    "scheduled_resyncs",
    "resync_cost_bits",
];

/// Per-bit flip rates of the steady-state fault-rate x policy sweep.
pub const DEGRADE_BENCH_RATES: &[f64] = &[1e-4, 1e-3, 1e-2];

/// Flip rate of the burst storyline phases (the ISSUE's 1e-3 burst).
pub const DEGRADE_BENCH_BURST_RATE: f64 = 1e-3;

/// Fabric size of the degradation sweep.
pub const DEGRADE_BENCH_NODES: usize = 3;

/// The ladder policy the sweep arms: paper thresholds, but sampling every
/// 64 ops (and resyncing every 256) so short benchmark runs cross many
/// windows per pipeline.
fn degrade_bench_policy() -> cable_sim::DegradePolicy {
    cable_sim::DegradePolicy {
        window_ops: 64,
        resync_interval_ops: 256,
        ..cable_sim::DegradePolicy::paper_defaults()
    }
}

/// Cumulative simulated counters at a phase boundary; rows report deltas
/// between consecutive snapshots.
#[derive(Clone, Copy, Default)]
struct DegradeSnap {
    accesses: u64,
    elapsed_ps: u64,
    wire_bits: u64,
    nacks: u64,
    reliable_frames: u64,
    demotions: u64,
    promotions: u64,
    scheduled_resyncs: u64,
    resync_cost_bits: u64,
}

fn degrade_snap(sim: &FabricSim, elapsed_ps: u64) -> DegradeSnap {
    let fs = sim.fault_stats().unwrap_or_default();
    let deg = sim.degradation_stats().unwrap_or_default();
    DegradeSnap {
        accesses: sim.total_accesses(),
        elapsed_ps,
        wire_bits: sim.coherence_stats().wire_bits,
        nacks: fs.nacks,
        reliable_frames: fs.reliable_frames,
        demotions: deg.demotions,
        promotions: deg.promotions,
        scheduled_resyncs: deg.scheduled_resyncs,
        resync_cost_bits: deg.resync_cost_bits,
    }
}

/// One figure row from the delta between two snapshots plus the deepest
/// rung any pipeline sits at when the phase ends.
fn degrade_row(cur: &DegradeSnap, prev: &DegradeSnap, worst: cable_sim::DegradeLevel) -> Vec<f64> {
    let d_accesses = cur.accesses - prev.accesses;
    let d_secs = ((cur.elapsed_ps - prev.elapsed_ps) as f64 * 1e-12).max(1e-18);
    vec![
        d_accesses as f64 / d_secs,
        (cur.wire_bits - prev.wire_bits) as f64 / (d_accesses as f64).max(1.0),
        cur.nacks.saturating_sub(prev.nacks) as f64,
        cur.reliable_frames.saturating_sub(prev.reliable_frames) as f64,
        (cur.demotions - prev.demotions) as f64,
        (cur.promotions - prev.promotions) as f64,
        worst as u64 as f64,
        (cur.scheduled_resyncs - prev.scheduled_resyncs) as f64,
        (cur.resync_cost_bits - prev.resync_cost_bits) as f64,
    ]
}

fn worst_level(sim: &FabricSim) -> cable_sim::DegradeLevel {
    sim.degrade_levels()
        .into_iter()
        .max()
        .unwrap_or(cable_sim::DegradeLevel::Compressed)
}

/// Closed-loop degradation sweep: steady-state fault-rate x policy grid
/// (`ladder/<rate>` with the acting controller armed vs `fixed/<rate>`
/// without one), two mesh-path rows (`mesh/1e-3` whole-mesh,
/// `mesh/pinned` a 1e-2 storm on one wire — the `cable report --hops`
/// localization scenario), then the burst storyline on a single fabric —
/// `burst/pre` (healthy), `burst/1e-3` (fault injection armed mid-run),
/// `burst/recovered` (injection disarmed, quiet windows re-arm the
/// ladder). The final `CABLE+LBE` row repeats the recovered phase under
/// the scheme's own label.
///
/// All columns are simulated quantities, so the figure is bit-stable; the
/// bench itself asserts the behavior the figure claims: simulated
/// throughput degrades monotonically as the fault rate rises, the ladder
/// steps down during the burst, and fully re-arms afterwards. Honors
/// `CABLE_QUICK`.
///
/// # Panics
///
/// Panics if the benchmark workload is missing from the profile table, if
/// throughput fails to degrade monotonically, or if the burst fails to
/// step the ladder down (or recovery fails to re-arm it).
#[must_use]
pub fn run_degrade_bench() -> FigureResult<'static> {
    let profile = cable_trace::by_name(DEGRADE_BENCH_WORKLOAD).expect("benchmark workload exists");
    let ptp = 19.2e9;
    let base_cfg = mesh_bench_config();
    let steady_instrs = if is_quick() { 3_000 } else { 10_000 };
    let (pre_end, burst_end, post_end) = if is_quick() {
        (1_500, 5_500, 16_000)
    } else {
        (4_000, 12_000, 36_000)
    };
    let mut rows = Vec::new();

    // Steady-state grid: each rate once with the acting ladder, once with
    // the controller absent (the pre-change fixed pipeline).
    for policy_on in [true, false] {
        let family = if policy_on { "ladder" } else { "fixed" };
        let mut prev_rate_tp = f64::INFINITY;
        for &rate in DEGRADE_BENCH_RATES {
            let cfg = SystemConfig {
                fault: Some(FaultConfig::with_rate(FAULT_BENCH_SEED, rate)),
                degrade: policy_on.then(degrade_bench_policy),
                ..base_cfg
            };
            let mut sim = FabricSim::with_config(
                profile,
                Scheme::Cable(EngineKind::Lbe),
                DEGRADE_BENCH_NODES,
                ptp,
                &cfg,
            );
            let r = sim.run(steady_instrs);
            let snap = degrade_snap(&sim, r.elapsed_ps);
            let row = degrade_row(&snap, &DegradeSnap::default(), worst_level(&sim));
            assert!(
                row[0] <= prev_rate_tp,
                "{family}: simulated throughput must degrade monotonically \
                 as the fault rate rises ({} > {prev_rate_tp})",
                row[0]
            );
            prev_rate_tp = row[0];
            rows.push((format!("{family}/{rate:.0e}"), row));
        }
    }

    // Mesh-path faults fold into the same acting ladder: one row with the
    // whole mesh lossy at the burst rate, one with a 1e-2 storm pinned to
    // a single wire (the localization scenario `cable report --hops`
    // renders). The per-hop rollup must keep the faults on the armed
    // wires while the controllers absorb them.
    for (label, rate, hop) in [("mesh/1e-3", 1e-3, None), ("mesh/pinned", 1e-2, Some(0u32))] {
        let cfg = SystemConfig {
            mesh_fault: Some(FaultConfig::with_rate(FAULT_BENCH_SEED, rate)),
            mesh_fault_hop: hop,
            degrade: Some(degrade_bench_policy()),
            ..base_cfg
        };
        let mut sim = FabricSim::with_config(
            profile,
            Scheme::Cable(EngineKind::Lbe),
            DEGRADE_BENCH_NODES,
            ptp,
            &cfg,
        );
        let r = sim.run(steady_instrs);
        let hops = sim.hop_stats();
        match hop {
            Some(h) => assert!(
                hops.iter().all(|s| (s.hop == h) == s.fault.is_some()),
                "pinned mesh faults must stay on wire {h}: {hops:?}"
            ),
            None => assert!(
                hops.iter().all(|s| s.fault.is_some()),
                "a whole-mesh schedule arms every wire: {hops:?}"
            ),
        }
        let mesh_nacks: u64 = hops.iter().filter_map(|s| s.fault).map(|f| f.nacks).sum();
        assert!(mesh_nacks > 0, "{label}: mesh faults must surface NACKs");
        let snap = degrade_snap(&sim, r.elapsed_ps);
        let row = degrade_row(&snap, &DegradeSnap::default(), worst_level(&sim));
        rows.push((label.to_string(), row));
    }

    // Burst storyline: healthy -> 1e-3 burst -> recovery, one fabric.
    let cfg = SystemConfig {
        degrade: Some(degrade_bench_policy()),
        ..base_cfg
    };
    let mut sim = FabricSim::with_config(
        profile,
        Scheme::Cable(EngineKind::Lbe),
        DEGRADE_BENCH_NODES,
        ptp,
        &cfg,
    );
    let phase = |sim: &mut FabricSim, end: u64| {
        let r = sim.run(end);
        (degrade_snap(sim, r.elapsed_ps), worst_level(sim))
    };
    let pre = phase(&mut sim, pre_end);
    sim.set_fault_injection(Some(FaultConfig::with_rate(
        FAULT_BENCH_SEED,
        DEGRADE_BENCH_BURST_RATE,
    )));
    let burst = phase(&mut sim, burst_end);
    sim.set_fault_injection(None);
    let post = phase(&mut sim, post_end);
    let levels = sim.degrade_levels();
    assert_eq!(pre.0.demotions, 0, "healthy pre-phase must not demote");
    assert!(
        burst.0.demotions > pre.0.demotions,
        "the 1e-3 burst must step the ladder down"
    );
    assert!(burst.0.nacks > 0, "the burst must produce NACKs");
    assert!(
        post.0.promotions > burst.0.promotions,
        "quiet windows must re-arm the ladder"
    );
    assert!(
        levels
            .iter()
            .all(|&l| l == cable_sim::DegradeLevel::Compressed),
        "every pipeline must fully re-arm after the burst: {levels:?}"
    );
    assert!(post.0.scheduled_resyncs > 0, "resync cadence must fire");

    rows.push((
        "burst/pre".to_string(),
        degrade_row(&pre.0, &DegradeSnap::default(), pre.1),
    ));
    rows.push((
        format!("burst/{DEGRADE_BENCH_BURST_RATE:.0e}"),
        degrade_row(&burst.0, &pre.0, burst.1),
    ));
    rows.push((
        "burst/recovered".to_string(),
        degrade_row(&post.0, &burst.0, post.1),
    ));
    // The summary row: recovered steady state under the scheme label.
    rows.push((
        Scheme::Cable(EngineKind::Lbe).label().to_string(),
        degrade_row(&post.0, &burst.0, post.1),
    ));

    FigureResult {
        id: DEGRADE_BENCH_ID,
        title: "Closed-loop degradation: fault-rate x policy sweep and 1e-3 burst recovery",
        columns: columns(DEGRADE_BENCH_COLUMNS),
        rows,
    }
}

/// Identifier of the emitted telemetry JSON result
/// (`BENCH_telemetry.json`).
pub const TELEMETRY_BENCH_ID: &str = "BENCH_telemetry";

/// The workload the telemetry benchmark replays. dealII is template-heavy:
/// nearly every fill runs a full signature search with live candidates.
pub const TELEMETRY_BENCH_WORKLOAD: &str = "dealII";

/// Columns of the emitted telemetry figure, in order. All values come from
/// the telemetry registry and tracer — not from `LinkStats` — so the bench
/// doubles as an end-to-end check that the instrumentation counts real
/// traffic.
pub const TELEMETRY_BENCH_COLUMNS: &[&str] = &[
    "encode_transfers",
    "remote_hits",
    "wire_bits",
    "payload_samples",
    "trace_events",
    "dropped_events",
];

/// Replays the encode workload through every default scheme with an
/// *enabled* [`Telemetry`] handle attached (after warm-up) and reports the
/// registry's view of the run: encode transfers by the `link.encode.*`
/// counters, remote hits, wire bits, payload histogram samples, and the
/// tracer's retained/dropped event counts. Every column is a count, so the
/// figure is deterministic. Honors `CABLE_QUICK`.
///
/// # Panics
///
/// Panics if the benchmark workload is missing from the profile table.
#[must_use]
pub fn run_telemetry_bench() -> FigureResult<'static> {
    let cfg = if is_quick() {
        StudyConfig::quick()
    } else {
        StudyConfig::paper_defaults()
    };
    let profile =
        cable_trace::by_name(TELEMETRY_BENCH_WORKLOAD).expect("benchmark workload exists");
    let rows = default_schemes()
        .into_iter()
        .map(|scheme| {
            let tel = Telemetry::enabled();
            let mut link = cfg.build_link(scheme);
            let mut gen = WorkloadGen::new(profile, 0);
            drive(&mut link, &mut gen, cfg.warmup_accesses);
            link.reset_stats();
            link.set_telemetry(tel.clone());
            drive(&mut link, &mut gen, cfg.accesses);
            let snap = tel.snapshot();
            let encode_transfers = snap.counter("link.encode.raw").unwrap_or(0)
                + snap.counter("link.encode.unseeded").unwrap_or(0)
                + snap.counter("link.encode.diff").unwrap_or(0);
            let payload_samples = snap.histogram("link.payload_bits").map_or(0, |(n, _)| n);
            (
                scheme.label().to_string(),
                vec![
                    encode_transfers as f64,
                    snap.counter("link.remote_hits").unwrap_or(0) as f64,
                    snap.counter("link.wire_bits").unwrap_or(0) as f64,
                    payload_samples as f64,
                    tel.events().len() as f64,
                    tel.dropped_events() as f64,
                ],
            )
        })
        .collect();
    FigureResult {
        id: TELEMETRY_BENCH_ID,
        title: "Telemetry registry view of the encode workload (per scheme)",
        columns: columns(TELEMETRY_BENCH_COLUMNS),
        rows,
    }
}

/// Identifier of the emitted latency-attribution JSON result
/// (`BENCH_latency.json`).
pub const LATENCY_BENCH_ID: &str = "BENCH_latency";

/// The workload the latency benchmark simulates (shared with the
/// degradation figure: mcf's miss-heavy stream keeps every stage busy).
pub const LATENCY_BENCH_WORKLOAD: &str = "mcf";

/// Chips in the latency benchmark's fabric.
pub const LATENCY_BENCH_NODES: usize = 4;

/// Columns of the emitted latency figure, in order. Every value is a
/// *simulated* picosecond quantity read from the `lat.*` streaming
/// histograms — zero wall-clock jitter, so the committed
/// `BENCH_latency.json` is an exact golden.
pub const LATENCY_BENCH_COLUMNS: &[&str] = &[
    "samples",
    "total_p50_ps",
    "total_p90_ps",
    "total_p99_ps",
    "total_p999_ps",
    "queue_p99_ps",
    "retry_p99_ps",
    "dram_p99_ps",
];

/// The full percentile-table state of one run's `lat.*` histograms,
/// sorted by id: `(id, count, sum, p50, p90, p99, p999)` per histogram.
type LatTable = Vec<(String, u64, u64, u64, u64, u64, u64)>;

/// Runs the latency fabric once and returns its latency-table state.
fn latency_fabric_table(scheme: Scheme, cfg: &SystemConfig) -> LatTable {
    let profile = cable_trace::by_name(LATENCY_BENCH_WORKLOAD).expect("benchmark workload exists");
    let instrs = if is_quick() { 1_500 } else { 6_000 };
    let mut sim = FabricSim::with_config(profile, scheme, LATENCY_BENCH_NODES, 19.2e9, cfg);
    let tel = Telemetry::enabled();
    sim.set_telemetry(tel.clone());
    sim.run(instrs);
    let rep = Report::from_telemetry(&tel);
    let mut table: LatTable = rep
        .histograms
        .iter()
        .filter(|h| h.id.starts_with(LATENCY_METRIC_PREFIX))
        .map(|h| (h.id.clone(), h.count, h.sum, h.p50, h.p90, h.p99, h.p999))
        .collect();
    table.sort();
    table
}

/// Looks one stage's row up in a latency table.
fn lat_stage<'a>(
    table: &'a LatTable,
    label: &str,
    stage: &str,
) -> &'a (String, u64, u64, u64, u64, u64, u64) {
    let id = format!("{LATENCY_METRIC_PREFIX}{label}.measure.{stage}");
    table
        .iter()
        .find(|r| r.0 == id)
        .unwrap_or_else(|| panic!("no {id} histogram in {table:?}"))
}

/// Builds one figure row from a run's latency table and asserts the
/// attribution invariant on it: per-stage counts equal the total count
/// and stage sums add up to the total sum exactly.
fn latency_row(table: &LatTable, label: &str) -> Vec<f64> {
    let total = lat_stage(table, label, "total");
    let mut span_sum = 0u64;
    for stage in ["hier", "codec", "queue", "wire", "retry", "dram"] {
        let s = lat_stage(table, label, stage);
        assert_eq!(s.1, total.1, "{label}/{stage}: count diverges from total");
        span_sum += s.2;
    }
    assert_eq!(
        span_sum, total.2,
        "{label}: stage spans must sum to the end-to-end total exactly"
    );
    assert!(total.1 > 0, "{label}: no latency samples");
    vec![
        total.1 as f64,
        total.3 as f64,
        total.4 as f64,
        total.5 as f64,
        total.6 as f64,
        lat_stage(table, label, "queue").5 as f64,
        lat_stage(table, label, "retry").5 as f64,
        lat_stage(table, label, "dram").5 as f64,
    ]
}

/// Simulates the latency-attribution fabric per scheme (plus one faulted
/// CABLE row) and reports per-stage percentile columns. All columns are
/// simulated quantities. Honors `CABLE_QUICK`.
///
/// # Panics
///
/// Panics if the workload is missing, a stage histogram is absent, the
/// exact-sum attribution invariant breaks, or the faulted row charges no
/// retry time.
#[must_use]
pub fn run_latency_bench() -> FigureResult<'static> {
    let cfg = mesh_bench_config();
    let mut rows = Vec::new();
    for scheme in [
        Scheme::Uncompressed,
        Scheme::Baseline(BaselineKind::Cpack),
        Scheme::Cable(EngineKind::Lbe),
    ] {
        let table = latency_fabric_table(scheme, &cfg);
        let label = scheme.label();
        rows.push((label.clone(), latency_row(&table, &label)));
    }

    // One faulted row: retry/resync penalties must show up in the retry
    // stage without breaking the decomposition.
    let faulted_cfg = SystemConfig {
        fault: Some(FaultConfig::with_rate(FAULT_BENCH_SEED, 5e-3)),
        ..cfg
    };
    let label = Scheme::Cable(EngineKind::Lbe).label();
    let table = latency_fabric_table(Scheme::Cable(EngineKind::Lbe), &faulted_cfg);
    let row = latency_row(&table, &label);
    assert!(
        lat_stage(&table, &label, "retry").2 > 0,
        "faulted run must charge retry time"
    );
    rows.push((format!("{label}/faulted"), row));

    FigureResult {
        id: LATENCY_BENCH_ID,
        title: "End-to-end access-latency attribution (simulated ps percentiles)",
        columns: columns(LATENCY_BENCH_COLUMNS),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_match_schema() {
        assert_eq!(FAULT_BENCH_COLUMNS[0], "compression_ratio");
        assert_eq!(FAULT_BENCH_COLUMNS.len(), 7);
        assert_eq!(DEGRADE_BENCH_COLUMNS[0], "accesses_per_sec");
        assert_eq!(DEGRADE_BENCH_COLUMNS.len(), 9);
        assert_eq!(DEGRADE_BENCH_RATES, &[1e-4, 1e-3, 1e-2]);
        assert!((DEGRADE_BENCH_BURST_RATE - 1e-3).abs() < f64::EPSILON);
        assert_eq!(FAULT_BENCH_WORKLOADS, &["dealII", "mcf"]);
        assert_eq!(TELEMETRY_BENCH_COLUMNS[0], "encode_transfers");
        assert_eq!(TELEMETRY_BENCH_COLUMNS.len(), 6);
    }
}
