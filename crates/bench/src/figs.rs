//! Per-figure/table computations.
//!
//! Every public function regenerates one table or figure of the paper and
//! returns a [`FigureResult`] ready for printing and JSON capture. The
//! binaries in `src/bin/` are thin wrappers; `all_figures` runs the lot.
//!
//! Set `CABLE_QUICK=1` to shrink every study by ~10x (smoke-test mode).

use crate::report::{geomean, FigureResult};
use crate::runner::{compression_study, mix_study, multi4_study, parallel_map, StudyConfig};
use cable_compress::{EngineKind, IdealDictionary};
use cable_core::{BaselineKind, Link, LinkStats};
use cable_sim::{NumaSim, Scheme};
use cable_trace::{WorkloadGen, WorkloadProfile, ALL_WORKLOADS};

/// True when `CABLE_QUICK` is set: all studies shrink by roughly 10x.
#[must_use]
pub fn is_quick() -> bool {
    std::env::var("CABLE_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn scaled(n: u64) -> u64 {
    if is_quick() {
        (n / 10).max(1_000)
    } else {
        n
    }
}

/// The study configuration used by the compression figures.
#[must_use]
pub fn study_config() -> StudyConfig {
    let mut cfg = StudyConfig::paper_defaults();
    cfg.warmup_accesses = scaled(60_000);
    cfg.accesses = scaled(120_000);
    cfg
}

fn scheme_columns() -> Vec<(String, Scheme)> {
    vec![
        ("BDI".into(), Scheme::Baseline(BaselineKind::Bdi)),
        ("CPACK".into(), Scheme::Baseline(BaselineKind::Cpack)),
        ("CPACK128".into(), Scheme::Baseline(BaselineKind::Cpack128)),
        ("LBE256".into(), Scheme::Baseline(BaselineKind::Lbe256)),
        ("gzip".into(), Scheme::Baseline(BaselineKind::Gzip)),
        ("CABLE+LBE".into(), Scheme::Cable(EngineKind::Lbe)),
    ]
}

// ---------------------------------------------------------------- Fig. 3

/// Fig. 3: compression ratio of the ideal configurable-dictionary model
/// against dictionary size, with and without pointer overhead.
#[must_use]
pub fn fig03() -> FigureResult<'static> {
    let sizes: &[u64] = &[
        64,
        256,
        1 << 10,
        4 << 10,
        32 << 10,
        256 << 10,
        1 << 20,
        4 << 20,
        16 << 20,
    ];
    let lines_per_benchmark = scaled(40_000);
    let workloads = cable_trace::non_trivial();

    let rows: Vec<(String, Vec<f64>)> = sizes
        .iter()
        .map(|&dict_bytes| {
            let per_wl: Vec<(f64, f64)> = parallel_map(workloads.clone(), |p| {
                let gen = WorkloadGen::new(p, 0);
                let mut ideal = IdealDictionary::new(dict_bytes);
                let mut with_ptr = IdealDictionary::new(dict_bytes);
                let ptr_bits = with_ptr.pointer_bits();
                let (mut bits_free, mut bits_ptr) = (0usize, 0usize);
                for n in 0..lines_per_benchmark {
                    let line = gen.content(cable_common::Address::from_line_number(n));
                    bits_free += ideal.cost_bits_and_update(&line, 0);
                    bits_ptr += with_ptr.cost_bits_and_update(&line, ptr_bits);
                }
                let raw = (lines_per_benchmark * 512) as f64;
                (raw / bits_free as f64, raw / bits_ptr as f64)
            });
            let ideal: Vec<f64> = per_wl.iter().map(|r| r.0).collect();
            let with_ptr: Vec<f64> = per_wl.iter().map(|r| r.1).collect();
            (
                format!("{dict_bytes}B"),
                vec![geomean(&ideal), geomean(&with_ptr)],
            )
        })
        .collect();

    FigureResult {
        id: "fig03",
        title: "Fig. 3: ideal dictionary scaling, with/without pointer overhead",
        columns: vec!["Ideal".into(), "Ideal+Pointer".into()],
        rows,
    }
}

// ------------------------------------------------------------ Figs. 11/12

/// Raw per-benchmark ratios for every scheme (the Fig. 12 data; Fig. 11 is
/// the same data normalized to CPACK).
#[must_use]
pub fn fig12() -> FigureResult<'static> {
    let cfg = study_config();
    let schemes = scheme_columns();
    let jobs: Vec<&'static WorkloadProfile> = ALL_WORKLOADS.iter().collect();
    let results: Vec<Vec<f64>> = parallel_map(jobs, |p| {
        schemes
            .iter()
            .map(|(_, s)| compression_study(p, *s, &cfg).compression_ratio())
            .collect()
    });
    let mut rows: Vec<(String, Vec<f64>)> = ALL_WORKLOADS
        .iter()
        .zip(results)
        .map(|(p, r)| (p.name.to_string(), r))
        .collect();
    // Averages: all workloads and the non-trivial subset (footnote 5 says
    // the findings hold either way).
    let columns: Vec<String> = schemes.iter().map(|(n, _)| n.clone()).collect();
    let avg_all: Vec<f64> = (0..columns.len())
        .map(|c| geomean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    let nt: Vec<usize> = ALL_WORKLOADS
        .iter()
        .enumerate()
        .filter(|(_, p)| !p.zero_dominant)
        .map(|(i, _)| i)
        .collect();
    let avg_nt: Vec<f64> = (0..columns.len())
        .map(|c| geomean(&nt.iter().map(|&i| rows[i].1[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN(all)".into(), avg_all));
    rows.push(("MEAN(non-trivial)".into(), avg_nt));
    FigureResult {
        id: "fig12",
        title: "Fig. 12: off-chip link compression (raw ratios)",
        columns,
        rows,
    }
}

/// Fig. 11: the Fig. 12 data normalized to CPACK.
#[must_use]
pub fn fig11_from(fig12: &FigureResult<'_>) -> FigureResult<'static> {
    let cpack_col = fig12
        .columns
        .iter()
        .position(|c| c == "CPACK")
        .expect("CPACK column present");
    let rows = fig12
        .rows
        .iter()
        .map(|(label, values)| {
            let base = values[cpack_col].max(1e-9);
            (label.clone(), values.iter().map(|v| v / base).collect())
        })
        .collect();
    FigureResult {
        id: "fig11",
        title: "Fig. 11: off-chip link compression (normalized to CPACK)",
        columns: fig12.columns.clone(),
        rows,
    }
}

// ---------------------------------------------------------------- Fig. 13

/// Fig. 13: coherence-link compression in a 4-chip CMP with round-robin
/// page interleaving.
#[must_use]
pub fn fig13() -> FigureResult<'static> {
    let accesses = scaled(150_000);
    let schemes = scheme_columns();
    let jobs: Vec<&'static WorkloadProfile> = ALL_WORKLOADS.iter().collect();
    let results: Vec<Vec<f64>> = parallel_map(jobs, |p| {
        schemes
            .iter()
            .map(|(_, s)| {
                let mut sim = NumaSim::new(p, *s, 4);
                sim.run(accesses);
                sim.combined_stats().compression_ratio()
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
        .map(|c| geomean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN(all)".into(), avg));
    FigureResult {
        id: "fig13",
        title: "Fig. 13: 4-chip CMP coherence-link compression",
        columns,
        rows,
    }
}

// ---------------------------------------------------------------- Fig. 15

/// Fig. 15: compression running a program alone (Single) vs replicated
/// four times SPECrate-style (Multi4), for gzip and CABLE.
#[must_use]
pub fn fig15() -> FigureResult<'static> {
    let cfg = study_config();
    let workloads = cable_trace::non_trivial();
    let results: Vec<Vec<f64>> = parallel_map(workloads.clone(), |p| {
        let gzip = Scheme::Baseline(BaselineKind::Gzip);
        let cable = Scheme::Cable(EngineKind::Lbe);
        vec![
            compression_study(p, gzip, &cfg).compression_ratio(),
            multi4_study(p, gzip, 4, &cfg).compression_ratio(),
            compression_study(p, cable, &cfg).compression_ratio(),
            multi4_study(p, cable, 4, &cfg).compression_ratio(),
        ]
    });
    let columns = vec![
        "gzip-Single".into(),
        "gzip-Multi4".into(),
        "CABLE-Single".into(),
        "CABLE-Multi4".into(),
    ];
    let mut rows: Vec<(String, Vec<f64>)> = workloads
        .iter()
        .zip(results)
        .map(|(p, r)| (p.name.to_string(), r))
        .collect();
    let avg: Vec<f64> = (0..4)
        .map(|c| geomean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN".into(), avg));
    FigureResult {
        id: "fig15",
        title: "Fig. 15: Single vs Multi4 (cooperative multiprogram)",
        columns,
        rows,
    }
}

// ---------------------------------------------------------------- Fig. 16

/// Fig. 16: destructive multiprogram mixes — per-mix compression relative
/// to each member's single-program compression (geomean over members).
#[must_use]
pub fn fig16() -> FigureResult<'static> {
    let cfg = study_config();
    let mixes = cable_trace::mix_table();
    let gzip = Scheme::Baseline(BaselineKind::Gzip);
    let cable = Scheme::Cable(EngineKind::Lbe);

    let jobs: Vec<cable_trace::MixSpec> = mixes.to_vec();
    let results: Vec<Vec<f64>> = parallel_map(jobs, |mix| {
        [gzip, cable]
            .iter()
            .map(|scheme| {
                let in_mix = mix_study(&mix, *scheme, &cfg);
                let rel: Vec<f64> = in_mix
                    .iter()
                    .map(|(name, stats)| {
                        let single = compression_study(
                            cable_trace::by_name(name).expect("known member"),
                            *scheme,
                            &cfg,
                        );
                        stats.compression_ratio() / single.compression_ratio().max(1e-9)
                    })
                    .collect();
                geomean(&rel)
            })
            .collect()
    });
    let mut rows: Vec<(String, Vec<f64>)> = mixes
        .iter()
        .zip(results)
        .map(|(m, r)| (m.name.to_string(), r))
        .collect();
    let avg: Vec<f64> = (0..2)
        .map(|c| geomean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN".into(), avg));
    FigureResult {
        id: "fig16",
        title: "Fig. 16: mix compression relative to single-program (dictionary pollution)",
        columns: vec!["gzip".into(), "CABLE+LBE".into()],
        rows,
    }
}

// ---------------------------------------------------------------- Fig. 19

/// Fig. 19a: compression across LLC sizes at a fixed 1:2 LLC:L4 ratio.
#[must_use]
pub fn fig19a() -> FigureResult<'static> {
    let llc_sizes: &[u64] = &[128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20];
    let workloads = cable_trace::non_trivial();
    let schemes = [
        ("CPACK".to_string(), Scheme::Baseline(BaselineKind::Cpack)),
        ("gzip".to_string(), Scheme::Baseline(BaselineKind::Gzip)),
        ("CABLE+LBE".to_string(), Scheme::Cable(EngineKind::Lbe)),
    ];
    let rows = llc_sizes
        .iter()
        .map(|&llc| {
            let mut cfg = study_config();
            cfg.remote_bytes = llc;
            cfg.home_bytes = llc * 2;
            let values: Vec<f64> = schemes
                .iter()
                .map(|(_, s)| {
                    let per: Vec<f64> = parallel_map(workloads.clone(), |p| {
                        compression_study(p, *s, &cfg).compression_ratio()
                    });
                    geomean(&per)
                })
                .collect();
            (format!("LLC {}KB", llc >> 10), values)
        })
        .collect();
    FigureResult {
        id: "fig19a",
        title: "Fig. 19a: memory-link compression across cache sizes (1:2 L4)",
        columns: schemes.iter().map(|(n, _)| n.clone()).collect(),
        rows,
    }
}

/// Fig. 19b: compression across LLC:L4 ratios with the LLC fixed at 1 MB.
#[must_use]
pub fn fig19b() -> FigureResult<'static> {
    let ratios: &[u64] = &[2, 4, 8];
    let workloads = cable_trace::non_trivial();
    let rows = ratios
        .iter()
        .map(|&ratio| {
            let mut cfg = study_config();
            cfg.remote_bytes = 1 << 20;
            cfg.home_bytes = (1 << 20) * ratio;
            let per: Vec<f64> = parallel_map(workloads.clone(), |p| {
                compression_study(p, Scheme::Cable(EngineKind::Lbe), &cfg).compression_ratio()
            });
            (format!("1:{ratio}"), vec![geomean(&per)])
        })
        .collect();
    FigureResult {
        id: "fig19b",
        title: "Fig. 19b: compression across LLC:L4 ratios (LLC = 1MB)",
        columns: vec!["CABLE+LBE".into()],
        rows,
    }
}

// ---------------------------------------------------------------- Fig. 20

/// Fig. 20: CABLE paired with different delegated engines.
#[must_use]
pub fn fig20() -> FigureResult<'static> {
    let cfg = study_config();
    let workloads = cable_trace::non_trivial();
    let engines = EngineKind::ALL;
    let results: Vec<Vec<f64>> = parallel_map(workloads.clone(), |p| {
        engines
            .iter()
            .map(|e| compression_study(p, Scheme::Cable(*e), &cfg).compression_ratio())
            .collect()
    });
    let columns: Vec<String> = engines.iter().map(|e| format!("CABLE+{e}")).collect();
    let mut rows: Vec<(String, Vec<f64>)> = workloads
        .iter()
        .zip(results)
        .map(|(p, r)| (p.name.to_string(), r))
        .collect();
    let avg: Vec<f64> = (0..columns.len())
        .map(|c| geomean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN".into(), avg));
    FigureResult {
        id: "fig20",
        title: "Fig. 20: CABLE with different compression engines",
        columns,
        rows,
    }
}

// ---------------------------------------------------------------- Fig. 21

/// Fig. 21: hash-table size sensitivity, relative to a 2x-sized table.
#[must_use]
pub fn fig21() -> FigureResult<'static> {
    let scales: &[(&str, f64)] = &[
        ("2x", 2.0),
        ("1x", 1.0),
        ("1/2x", 0.5),
        ("1/8x", 1.0 / 8.0),
        ("1/32x", 1.0 / 32.0),
        ("1/128x", 1.0 / 128.0),
        ("1/512x", 1.0 / 512.0),
        ("1/2048x", 1.0 / 2048.0),
    ];
    let workloads = cable_trace::non_trivial();
    let cfg = study_config();
    let per_scale: Vec<f64> = scales
        .iter()
        .map(|&(_, scale)| {
            let per: Vec<f64> = parallel_map(workloads.clone(), |p| {
                run_cable_with(p, &cfg, |c| {
                    c.home_table_scale = scale;
                    c.remote_table_scale = scale;
                })
            });
            geomean(&per)
        })
        .collect();
    let baseline = per_scale[0];
    let rows = scales
        .iter()
        .zip(&per_scale)
        .map(|(&(label, _), &v)| (label.to_string(), vec![v, v / baseline]))
        .collect();
    FigureResult {
        id: "fig21",
        title: "Fig. 21: hash-table size sensitivity (relative to 2x table)",
        columns: vec!["ratio".into(), "vs 2x".into()],
        rows,
    }
}

// ---------------------------------------------------------------- Fig. 22

/// Fig. 22: data-access-count sensitivity, relative to 64 accesses.
#[must_use]
pub fn fig22() -> FigureResult<'static> {
    let counts: &[usize] = &[1, 2, 4, 6, 8, 16, 32, 64];
    let workloads = cable_trace::non_trivial();
    let cfg = study_config();
    let per_count: Vec<f64> = counts
        .iter()
        .map(|&count| {
            let per: Vec<f64> = parallel_map(workloads.clone(), |p| {
                run_cable_with(p, &cfg, |c| c.data_access_count = count)
            });
            geomean(&per)
        })
        .collect();
    let baseline = *per_count.last().expect("non-empty");
    let rows = counts
        .iter()
        .zip(&per_count)
        .map(|(&count, &v)| (format!("{count} accesses"), vec![v, v / baseline]))
        .collect();
    FigureResult {
        id: "fig22",
        title: "Fig. 22: data-access-count sensitivity (relative to 64)",
        columns: vec!["ratio".into(), "vs 64".into()],
        rows,
    }
}

/// Runs CABLE+LBE with a customized [`cable_core::CableConfig`].
fn run_cable_with(
    profile: &'static WorkloadProfile,
    study: &StudyConfig,
    customize: impl FnOnce(&mut cable_core::CableConfig),
) -> f64 {
    use cable_cache::CacheGeometry;
    let mut cfg = cable_core::CableConfig::memory_link_default().with_geometries(
        CacheGeometry::new(study.home_bytes, study.home_ways),
        CacheGeometry::new(study.remote_bytes, study.remote_ways),
    );
    customize(&mut cfg);
    let mut link = cable_core::CableLink::new(cfg);
    let mut gen = WorkloadGen::new(profile, 0);
    for _ in 0..study.warmup_accesses {
        let a = gen.next_access();
        let m = gen.content(a.addr);
        if a.is_write {
            link.request_exclusive(a.addr, m);
            let d = gen.store_data(a.addr);
            link.remote_store(a.addr, d);
        } else {
            link.request(a.addr, m);
        }
    }
    link.reset_stats();
    for _ in 0..study.accesses {
        let a = gen.next_access();
        let m = gen.content(a.addr);
        if a.is_write {
            link.request_exclusive(a.addr, m);
            let d = gen.store_data(a.addr);
            link.remote_store(a.addr, d);
        } else {
            link.request(a.addr, m);
        }
    }
    link.stats().compression_ratio()
}

// ---------------------------------------------------------------- Fig. 23

/// Fig. 23: compression at other link widths, plus the packed 64-bit
/// transport ("all workloads" per the caption).
#[must_use]
pub fn fig23() -> FigureResult<'static> {
    let widths: &[u32] = &[16, 32, 64];
    let workloads: Vec<&'static WorkloadProfile> = ALL_WORKLOADS.iter().collect();
    let mut rows: Vec<(String, Vec<f64>)> = widths
        .iter()
        .map(|&w| {
            let mut cfg = study_config();
            cfg.link_width_bits = w;
            let stats: Vec<LinkStats> = parallel_map(workloads.clone(), |p| {
                compression_study(p, Scheme::Cable(EngineKind::Lbe), &cfg)
            });
            let ratios: Vec<f64> = stats.iter().map(LinkStats::compression_ratio).collect();
            (format!("{w}-bit"), vec![geomean(&ratios)])
        })
        .collect();
    // Packed transport at 64-bit: byte-padded payload + 6-bit length field.
    let mut cfg = study_config();
    cfg.link_width_bits = 64;
    let packed: Vec<f64> = parallel_map(workloads, |p| {
        let s = compression_study(p, Scheme::Cable(EngineKind::Lbe), &cfg);
        s.uncompressed_bits as f64 / s.wire_bits_packed.max(1) as f64
    });
    rows.push(("64-bit Packed".into(), vec![geomean(&packed)]));
    FigureResult {
        id: "fig23",
        title: "Fig. 23: compression at other link widths",
        columns: vec!["CABLE+LBE".into()],
        rows,
    }
}

// ------------------------------------------------------------ Bit toggles

/// §VI-D bit-toggle study: toggle rate of CABLE and CPACK versus the
/// uncompressed link (the paper reports 30.2% average reduction for CABLE,
/// 16.9 points better than CPACK).
#[must_use]
pub fn toggles() -> FigureResult<'static> {
    let cfg = study_config();
    let workloads: Vec<&'static WorkloadProfile> = ALL_WORKLOADS.iter().collect();
    let results: Vec<Vec<f64>> = parallel_map(workloads.clone(), |p| {
        let base = compression_study(p, Scheme::Uncompressed, &cfg);
        let cpack = compression_study(p, Scheme::Baseline(BaselineKind::Cpack), &cfg);
        let cable = compression_study(p, Scheme::Cable(EngineKind::Lbe), &cfg);
        // Toggles per *logical line transferred* — compression reduces both
        // flits and transitions.
        let per_line =
            |s: &LinkStats| s.bit_toggles as f64 / (s.fills + s.writebacks).max(1) as f64;
        let b = per_line(&base);
        vec![1.0 - per_line(&cable) / b, 1.0 - per_line(&cpack) / b]
    });
    let mut rows: Vec<(String, Vec<f64>)> = workloads
        .iter()
        .zip(results)
        .map(|(p, r)| (p.name.to_string(), r))
        .collect();
    let avg: Vec<f64> = (0..2)
        .map(|c| crate::report::mean(&rows.iter().map(|(_, r)| r[c]).collect::<Vec<_>>()))
        .collect();
    rows.push(("MEAN".into(), avg));
    FigureResult {
        id: "toggles",
        title: "Bit-toggle reduction vs uncompressed link (fraction)",
        columns: vec!["CABLE+LBE".into(), "CPACK".into()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_flag_parses() {
        // Without the env var set, studies run at full size.
        if std::env::var("CABLE_QUICK").is_err() {
            assert!(!is_quick());
        }
    }

    #[test]
    fn fig11_normalizes_to_cpack() {
        let fake = FigureResult {
            id: "fig12",
            title: "t",
            columns: vec!["BDI".into(), "CPACK".into(), "CABLE+LBE".into()],
            rows: vec![("x".into(), vec![2.0, 4.0, 8.0])],
        };
        let f11 = fig11_from(&fake);
        assert_eq!(f11.rows[0].1, vec![0.5, 1.0, 2.0]);
    }
}
