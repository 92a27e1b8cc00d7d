//! Ablation harness for CABLE's design choices (DESIGN.md "ablation
//! hooks"). Not a paper figure — it quantifies the decisions the paper
//! states without sweeping:
//!
//! - hash-table bucket depth (2 LineIDs per entry, §III-B);
//! - signatures inserted per line (2, §III-B);
//! - maximum references per DIFF (3, §III-C/E);
//! - the unseeded-fallback threshold (16x, §III-E).
//!
//! `CABLE_QUICK=1` shrinks the study.

use cable_bench::figs::is_quick;
use cable_bench::runner::parallel_map;
use cable_bench::{geomean, print_table, save_json, FigureResult};
use cable_core::{CableConfig, CableLink, Link};
use cable_trace::{WorkloadGen, WorkloadProfile};

fn scaled(n: u64) -> u64 {
    if is_quick() {
        (n / 10).max(1_000)
    } else {
        n
    }
}

fn run_with(profile: &'static WorkloadProfile, customize: impl Fn(&mut CableConfig)) -> f64 {
    let mut cfg = CableConfig::memory_link_default();
    customize(&mut cfg);
    let mut link = CableLink::new(cfg);
    let mut gen = WorkloadGen::new(profile, 0);
    let warmup = scaled(40_000);
    let measure = scaled(80_000);
    for phase in 0..2u32 {
        let n = if phase == 0 { warmup } else { measure };
        if phase == 1 {
            link.reset_stats();
        }
        for _ in 0..n {
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
    }
    link.stats().compression_ratio()
}

type Knob = Box<dyn Fn(&mut CableConfig) + Sync>;

fn sweep(label_values: &[(String, Knob)]) -> Vec<(String, Vec<f64>)> {
    let workloads = cable_trace::non_trivial();
    label_values
        .iter()
        .map(|(label, customize)| {
            let per: Vec<f64> =
                parallel_map(workloads.clone(), |p| run_with(p, customize.as_ref()));
            (label.clone(), vec![geomean(&per)])
        })
        .collect()
}

fn main() {
    // Bucket depth.
    let depths: Vec<(String, Knob)> = [1usize, 2, 4]
        .into_iter()
        .map(|d| -> (String, Knob) {
            (
                format!("depth {d}"),
                Box::new(move |c: &mut CableConfig| c.bucket_depth = d),
            )
        })
        .collect();
    let mut rows = sweep(&depths);

    // Insert-signature count.
    let sigs: Vec<(String, Knob)> = [1usize, 2, 4, 8]
        .into_iter()
        .map(|n| -> (String, Knob) {
            (
                format!("{n} insert sigs"),
                Box::new(move |c: &mut CableConfig| c.insert_signature_count = n),
            )
        })
        .collect();
    rows.extend(sweep(&sigs));

    // Max references.
    let refs: Vec<(String, Knob)> = [1usize, 2, 3]
        .into_iter()
        .map(|n| -> (String, Knob) {
            (
                format!("max {n} refs"),
                Box::new(move |c: &mut CableConfig| c.max_refs = n),
            )
        })
        .collect();
    rows.extend(sweep(&refs));

    // Unseeded threshold.
    let thresholds: Vec<(String, Knob)> = [4.0f64, 16.0, 64.0]
        .into_iter()
        .map(|t| -> (String, Knob) {
            (
                format!("unseeded >= {t}x"),
                Box::new(move |c: &mut CableConfig| c.unseeded_threshold_ratio = t),
            )
        })
        .collect();
    rows.extend(sweep(&thresholds));

    let result = FigureResult {
        id: "ablate",
        title: "Ablations of CABLE's stated design choices (geomean ratio, non-trivial set)",
        columns: vec!["ratio".into()],
        rows,
    };
    print_table(result.title, &result.columns, &result.rows);
    save_json(&result);
}
