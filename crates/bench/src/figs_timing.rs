//! Timing, throughput, energy and table computations (Figs. 14/17/18,
//! Tables II–V, the adaptive-control study).

use crate::figs::scaled;
use crate::report::{geomean, mean, FigureResult};
use crate::runner::parallel_map;
use cable_compress::EngineKind;
use cable_core::area::{home_side_area, paper_offchip_config, remote_side_area, SEARCH_LOGIC_ROWS};
use cable_core::BaselineKind;
use cable_energy::{EnergyModel, EnergyParams, TABLE_II_ROWS};
use cable_sim::{
    run_group, run_group_arena, run_group_controlled, run_single_warmed, DramModel,
    OnOffController, Scheme, SharedLink, SimArena, SystemConfig, ThreadSim,
};
use cable_trace::{WorkloadProfile, ALL_WORKLOADS};

// ---------------------------------------------------------------- Fig. 14

/// Fig. 14a: per-benchmark throughput speedup at 2048 threads for CPACK,
/// gzip and CABLE+LBE over the uncompressed system.
#[must_use]
pub fn fig14a() -> FigureResult<'static> {
    let cfg = SystemConfig::paper_defaults();
    let instrs = scaled(25_000);
    let schemes = [
        ("CPACK".to_string(), Scheme::Baseline(BaselineKind::Cpack)),
        ("gzip".to_string(), Scheme::Baseline(BaselineKind::Gzip)),
        ("CABLE+LBE".to_string(), Scheme::Cable(EngineKind::Lbe)),
    ];
    let jobs: Vec<&'static WorkloadProfile> = ALL_WORKLOADS.iter().collect();
    let results: Vec<Vec<f64>> = parallel_map(jobs, |p| {
        let base = run_group(p, Scheme::Uncompressed, 2048, instrs, &cfg).system_ips();
        schemes
            .iter()
            .map(|(_, s)| run_group(p, *s, 2048, instrs, &cfg).system_ips() / base)
            .collect()
    });
    let columns: Vec<String> = schemes.iter().map(|(n, _)| n.clone()).collect();
    let mut rows: Vec<(String, Vec<f64>)> = ALL_WORKLOADS
        .iter()
        .zip(results)
        .map(|(p, r)| (p.name.to_string(), r))
        .collect();
    let avg: Vec<f64> = (0..columns.len())
        .map(|c| geomean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN".into(), avg));
    FigureResult {
        id: "fig14a",
        title: "Fig. 14a: throughput speedup at 2048 threads",
        columns,
        rows,
    }
}

/// Fig. 14b: average speedup across thread counts.
#[must_use]
pub fn fig14b() -> FigureResult<'static> {
    let cfg = SystemConfig::paper_defaults();
    let instrs = scaled(20_000);
    let counts = [256usize, 512, 1024, 2048];
    let schemes = [
        ("CPACK".to_string(), Scheme::Baseline(BaselineKind::Cpack)),
        ("gzip".to_string(), Scheme::Baseline(BaselineKind::Gzip)),
        ("CABLE+LBE".to_string(), Scheme::Cable(EngineKind::Lbe)),
    ];
    // A representative cross-section keeps the sweep tractable.
    let subset = [
        "mcf",
        "lbm",
        "libquantum",
        "gcc",
        "omnetpp",
        "dealII",
        "povray",
        "gamess",
    ];
    let workloads: Vec<&'static WorkloadProfile> = subset
        .iter()
        .map(|n| cable_trace::by_name(n).expect("known benchmark"))
        .collect();
    // Workloads form the outer (parallel) loop so each job owns a local
    // SimArena: the group is warmed once per scheme and the snapshot is
    // restored at every thread count, instead of re-warming at all
    // counts × schemes sweep points. The speedup matrix is reassembled in
    // the original (count, scheme) row order below.
    let per_workload: Vec<Vec<Vec<f64>>> = parallel_map(workloads.clone(), |p| {
        let mut arena = SimArena::new();
        counts
            .iter()
            .map(|&threads| {
                let base = run_group_arena(
                    &mut arena,
                    p,
                    Scheme::Uncompressed,
                    threads,
                    20_000,
                    instrs,
                    &cfg,
                )
                .system_ips();
                schemes
                    .iter()
                    .map(|(_, s)| {
                        run_group_arena(&mut arena, p, *s, threads, 20_000, instrs, &cfg)
                            .system_ips()
                            / base
                    })
                    .collect()
            })
            .collect()
    });
    let rows = counts
        .iter()
        .enumerate()
        .map(|(ci, &threads)| {
            let per_scheme: Vec<f64> = (0..schemes.len())
                .map(|si| {
                    let speedups: Vec<f64> = per_workload.iter().map(|w| w[ci][si]).collect();
                    geomean(&speedups)
                })
                .collect();
            (format!("{threads} threads"), per_scheme)
        })
        .collect();
    FigureResult {
        id: "fig14b",
        title: "Fig. 14b: average throughput speedup vs thread count",
        columns: schemes.iter().map(|(n, _)| n.clone()).collect(),
        rows,
    }
}

// ---------------------------------------------------------------- Fig. 17

/// Fig. 17: single-threaded performance degradation from compression
/// latency (Table IV latencies; CABLE ≈ 5% average, ≤10% worst in the
/// paper).
#[must_use]
pub fn fig17() -> FigureResult<'static> {
    let cfg = SystemConfig::paper_defaults();
    let warmup = scaled(300_000);
    let instrs = scaled(200_000);
    let schemes = [
        ("CPACK".to_string(), Scheme::Baseline(BaselineKind::Cpack)),
        ("gzip".to_string(), Scheme::Baseline(BaselineKind::Gzip)),
        ("CABLE+LBE".to_string(), Scheme::Cable(EngineKind::Lbe)),
    ];
    let jobs: Vec<&'static WorkloadProfile> = ALL_WORKLOADS.iter().collect();
    let results: Vec<Vec<f64>> = parallel_map(jobs, |p| {
        let base = run_single_warmed(p, Scheme::Uncompressed, warmup, instrs, &cfg);
        schemes
            .iter()
            .map(|(_, s)| {
                let r = run_single_warmed(p, *s, warmup, instrs, &cfg);
                (r.slowdown_vs(&base) - 1.0) * 100.0 // % degradation
            })
            .collect()
    });
    let columns: Vec<String> = schemes.iter().map(|(n, _)| n.clone()).collect();
    let mut rows: Vec<(String, Vec<f64>)> = ALL_WORKLOADS
        .iter()
        .zip(results)
        .map(|(p, r)| (p.name.to_string(), r))
        .collect();
    let avg: Vec<f64> = (0..columns.len())
        .map(|c| mean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN".into(), avg));
    FigureResult {
        id: "fig17",
        title: "Fig. 17: single-threaded degradation from compression latency (%)",
        columns,
        rows,
    }
}

// ---------------------------------------------------------------- Fig. 18

/// Fig. 18: normalized memory-subsystem energy, uncompressed baseline vs
/// CABLE+LBE (per benchmark plus the component breakdown of the mean).
#[must_use]
pub fn fig18() -> FigureResult<'static> {
    let cfg = SystemConfig::paper_defaults();
    let warmup = scaled(150_000);
    let instrs = scaled(150_000);
    let model = EnergyModel::new();
    let jobs: Vec<&'static WorkloadProfile> = ALL_WORKLOADS.iter().collect();
    let results: Vec<Vec<f64>> = parallel_map(jobs, |p| {
        let base = run_single_warmed(p, Scheme::Uncompressed, warmup, instrs, &cfg);
        let cable = run_single_warmed(p, Scheme::Cable(EngineKind::Lbe), warmup, instrs, &cfg);
        let eb = model.breakdown(&base.activity);
        let ec = model.breakdown(&cable.activity);
        vec![
            ec.normalized_to(&eb),
            eb.link / eb.total(),
            ec.link / ec.total(),
            (ec.engine + ec.compression_sram) / ec.total(),
        ]
    });
    let columns = vec![
        "CABLE/base".into(),
        "base link share".into(),
        "CABLE link share".into(),
        "CABLE comp share".into(),
    ];
    let mut rows: Vec<(String, Vec<f64>)> = ALL_WORKLOADS
        .iter()
        .zip(results)
        .map(|(p, r)| (p.name.to_string(), r))
        .collect();
    let avg: Vec<f64> = (0..columns.len())
        .map(|c| mean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN".into(), avg));
    FigureResult {
        id: "fig18",
        title: "Fig. 18: normalized memory-subsystem energy (CABLE vs baseline)",
        columns,
        rows,
    }
}

// ------------------------------------------------------------- Adaptive

/// §VI-D adaptive on/off control: the single-threaded latency penalty with
/// and without the controller.
#[must_use]
pub fn adaptive() -> FigureResult<'static> {
    let cfg = SystemConfig::paper_defaults();
    let warmup = scaled(200_000);
    let instrs = scaled(200_000);
    let subset = ["gcc", "omnetpp", "dealII", "povray", "gamess", "hmmer"];
    let workloads: Vec<&'static WorkloadProfile> = subset
        .iter()
        .map(|n| cable_trace::by_name(n).expect("known benchmark"))
        .collect();
    let results: Vec<Vec<f64>> = parallel_map(workloads.clone(), |p| {
        let base = run_single_warmed(p, Scheme::Uncompressed, warmup, instrs, &cfg);
        let plain = run_single_warmed(p, Scheme::Cable(EngineKind::Lbe), warmup, instrs, &cfg);
        let controlled = run_single_adaptive(p, warmup, instrs, &cfg);
        vec![
            (plain.slowdown_vs(&base) - 1.0) * 100.0,
            (controlled / base.elapsed_ps as f64 - 1.0) * 100.0,
        ]
    });
    let mut rows: Vec<(String, Vec<f64>)> = workloads
        .iter()
        .zip(results)
        .map(|(p, r)| (p.name.to_string(), r))
        .collect();
    let avg: Vec<f64> = (0..2)
        .map(|c| mean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN".into(), avg));
    FigureResult {
        id: "adaptive",
        title: "On/off control: single-thread slowdown (%) without and with the controller",
        columns: vec!["always-on".into(), "controlled".into()],
        rows,
    }
}

/// §VI-D's other half: at high thread counts the saturated link keeps
/// compression on, so the controller costs almost no throughput (the paper
/// measures an average 2.3% decrease).
#[must_use]
pub fn adaptive_throughput() -> FigureResult<'static> {
    let cfg = SystemConfig::paper_defaults();
    let instrs = scaled(20_000);
    let subset = ["mcf", "lbm", "omnetpp", "gcc"];
    let workloads: Vec<&'static WorkloadProfile> = subset
        .iter()
        .map(|n| cable_trace::by_name(n).expect("known benchmark"))
        .collect();
    let (lbe, warm) = (Scheme::Cable(EngineKind::Lbe), scaled(20_000));
    let results: Vec<Vec<f64>> = parallel_map(workloads.clone(), |p| {
        // One arena per workload: the plain run warms the group, the
        // controlled run restores the snapshot instead of re-warming.
        let mut arena = SimArena::new();
        let plain = run_group_arena(&mut arena, p, lbe, 2048, warm, instrs, &cfg);
        let controlled = run_group_controlled(&mut arena, p, lbe, 2048, warm, instrs, &cfg);
        vec![controlled.system_ips() / plain.system_ips() - 1.0]
    });
    let mut rows: Vec<(String, Vec<f64>)> = workloads
        .iter()
        .zip(results)
        .map(|(p, r)| (p.name.to_string(), vec![r[0] * 100.0]))
        .collect();
    let avg = mean(&rows.iter().map(|(_, r)| r[0]).collect::<Vec<_>>());
    rows.push(("MEAN".into(), vec![avg]));
    FigureResult {
        id: "adaptive_throughput",
        title: "On/off control at 2048 threads: throughput change (%) vs always-on",
        columns: vec!["delta %".into()],
        rows,
    }
}

/// Single-threaded CABLE run with the §VI-D controller; returns measured
/// elapsed picoseconds.
fn run_single_adaptive(
    profile: &'static WorkloadProfile,
    warmup: u64,
    instructions: u64,
    config: &SystemConfig,
) -> f64 {
    let mut thread = ThreadSim::new(profile, 0, Scheme::Cable(EngineKind::Lbe), *config);
    let mut wire = SharedLink::from_config(config);
    let mut dram = DramModel::from_config(config);
    let mut ctl = OnOffController::new(config.link_bytes_per_sec());
    while thread.retired() < warmup {
        thread.step(&mut wire, &mut dram);
        let now = thread.now_ps();
        ctl.observe(now, thread.link_mut());
    }
    let t0 = thread.now_ps();
    while thread.retired() < warmup + instructions {
        thread.step(&mut wire, &mut dram);
        let now = thread.now_ps();
        ctl.observe(now, thread.link_mut());
    }
    (thread.now_ps() - t0) as f64
}

// ---------------------------------------------------------------- Tables

/// Table II: energy scale of operations.
#[must_use]
pub fn table02() -> FigureResult<'static> {
    let rows = TABLE_II_ROWS
        .iter()
        .map(|&(name, joules, scale)| (name.to_string(), vec![joules * 1e12, f64::from(scale)]))
        .collect();
    FigureResult {
        id: "table02",
        title: "Table II: energy of operations (pJ, scale vs CPACK)",
        columns: vec!["pJ".into(), "scale".into()],
        rows,
    }
}

/// Table III: CABLE area overheads (SRAM structures analytically, search
/// logic from the paper's 32 nm synthesis).
#[must_use]
pub fn table03() -> FigureResult<'static> {
    let offchip = paper_offchip_config();
    let home = home_side_area(&offchip);
    let remote = remote_side_area(&offchip);
    // Multi-chip: equal 8MB LLC pairs, quarter-sized tables, one WMT per
    // link-pair (x3 in a 4-chip system).
    let mut multichip = cable_core::CableConfig::coherence_link_default().with_geometries(
        cable_cache::CacheGeometry::new(16 << 20, 8),
        cable_cache::CacheGeometry::new(8 << 20, 8),
    );
    multichip.home_table_scale = 0.25;
    multichip.remote_table_scale = 0.25;
    let mc = home_side_area(&multichip);

    let mut rows = vec![
        (
            "Hash table %".to_string(),
            vec![
                home.hash_table_fraction * 100.0,
                remote.hash_table_fraction * 100.0,
                mc.hash_table_fraction * 100.0,
            ],
        ),
        (
            "Way-map table %".to_string(),
            vec![
                home.wmt_fraction * 100.0,
                0.0,
                mc.wmt_fraction * 3.0 * 100.0,
            ],
        ),
        (
            "RemoteLID bits".to_string(),
            vec![
                f64::from(home.remote_lid_bits),
                f64::from(remote.remote_lid_bits),
                f64::from(mc.remote_lid_bits),
            ],
        ),
    ];
    for &(name, area, per_l2, per_tile) in &SEARCH_LOGIC_ROWS {
        rows.push((
            format!("logic: {name}"),
            vec![f64::from(area), per_l2, per_tile],
        ));
    }
    FigureResult {
        id: "table03",
        title: "Table III: area overheads (buffer / on-chip / multi-chip; logic rows: cells, %L2, %tile)",
        columns: vec!["buffer".into(), "on-chip".into(), "multi-chip".into()],
        rows,
    }
}

/// Table IV: system configuration echo.
#[must_use]
pub fn table04() -> FigureResult<'static> {
    let c = SystemConfig::paper_defaults();
    let rows = vec![
        ("core GHz".to_string(), vec![c.core_ghz]),
        (
            "L1 KB / ways / cycles".to_string(),
            vec![
                (c.l1_bytes >> 10) as f64,
                f64::from(c.l1_ways),
                c.l1_latency_cy as f64,
            ],
        ),
        (
            "L2 KB / ways / cycles".to_string(),
            vec![
                (c.l2_bytes >> 10) as f64,
                f64::from(c.l2_ways),
                c.l2_latency_cy as f64,
            ],
        ),
        (
            "LLC KB / ways / cycles".to_string(),
            vec![
                (c.llc_bytes >> 10) as f64,
                f64::from(c.llc_ways),
                c.llc_latency_cy as f64,
            ],
        ),
        (
            "L4 KB / ways / cycles".to_string(),
            vec![
                (c.l4_bytes >> 10) as f64,
                f64::from(c.l4_ways),
                c.l4_latency_cy as f64,
            ],
        ),
        (
            "link bits / GHz / GB/s".to_string(),
            vec![
                f64::from(c.link_width_bits),
                c.link_ghz,
                c.link_bytes_per_sec() / 1e9,
            ],
        ),
        (
            "comp cycles CPACK/gzip/CABLE".to_string(),
            vec![16.0, 96.0, 48.0],
        ),
    ];
    FigureResult {
        id: "table04",
        title: "Table IV: default system configuration",
        columns: vec!["a".into(), "b".into(), "c".into()],
        rows,
    }
}

/// Table V: energy simulation parameters echo.
#[must_use]
pub fn table05() -> FigureResult<'static> {
    let p = EnergyParams::paper_defaults();
    let rows = vec![
        (
            "L1 static mW / dyn pJ".to_string(),
            vec![p.l1_static_w * 1e3, p.l1_dynamic_j * 1e12],
        ),
        (
            "L2 static mW / dyn pJ".to_string(),
            vec![p.l2_static_w * 1e3, p.l2_dynamic_j * 1e12],
        ),
        (
            "LLC static mW / dyn pJ".to_string(),
            vec![p.llc_static_w * 1e3, p.llc_dynamic_j * 1e12],
        ),
        (
            "L4 static mW / dyn pJ".to_string(),
            vec![p.buffer_static_w * 1e3, p.buffer_dynamic_j * 1e12],
        ),
        (
            "CABLE+LBE comp/decomp pJ".to_string(),
            vec![p.compress_j * 1e12, p.decompress_j * 1e12],
        ),
        (
            "link nJ per 64B / DRAM nJ".to_string(),
            vec![p.link_j_per_64b * 1e9, p.dram_access_j * 1e9],
        ),
    ];
    FigureResult {
        id: "table05",
        title: "Table V: energy simulation parameters",
        columns: vec!["x".into(), "y".into()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_have_expected_shapes() {
        assert_eq!(table02().rows.len(), 4);
        let t3 = table03();
        assert_eq!(t3.rows.len(), 7);
        // Buffer hash table ~1.76%, WMT ~0.4% (§IV-D).
        assert!((t3.rows[0].1[0] - 1.76).abs() < 0.1);
        assert!((t3.rows[1].1[0] - 0.4).abs() < 0.05);
        assert_eq!(table04().rows.len(), 7);
        assert_eq!(table05().rows.len(), 6);
    }
}
