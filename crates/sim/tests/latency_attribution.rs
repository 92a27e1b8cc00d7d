//! Latency-attribution invariants.
//!
//! Every simulated access is stamped with an end-to-end latency
//! decomposed into stage spans (hierarchy, codec, queue, wire, retry,
//! DRAM). The decomposition must be *exact*: for every scheme × fault
//! mode, the per-stage histogram sums add up to the `total` histogram
//! sum with no rounding slop, and every stage histogram carries exactly
//! one sample per recorded access. The same invariant must hold on the
//! timed fabric, including its per-hop spans and resync repair samples.

use std::collections::BTreeMap;

use cable_compress::EngineKind;
use cable_core::{BaselineKind, FaultConfig};
use cable_sim::{run_single_telemetry, FabricSim, Scheme, SystemConfig};
use cable_telemetry::{
    parse_latency_metric, LatencyStage, MetricValue, Telemetry, LATENCY_SPAN_STAGES,
};
use cable_trace::by_name;
use proptest::prelude::*;

/// Every scheme the simulators accept.
fn all_schemes() -> Vec<Scheme> {
    let mut v = vec![Scheme::Uncompressed];
    v.extend(BaselineKind::ALL.iter().map(|&k| Scheme::Baseline(k)));
    v.extend(EngineKind::ALL.iter().map(|&e| Scheme::Cable(e)));
    v
}

/// Collects `(count, sum)` per stage for every non-hop latency histogram
/// in `tel`'s registry, grouped by `(scheme, phase)`.
type StageTotals = BTreeMap<(String, String), BTreeMap<LatencyStage, (u64, u64)>>;

fn stage_totals(tel: &Telemetry) -> StageTotals {
    let mut grouped: StageTotals = BTreeMap::new();
    for m in &tel.snapshot().metrics {
        let MetricValue::Histogram { id, count, sum, .. } = m else {
            continue;
        };
        let Some(key) = parse_latency_metric(id) else {
            continue;
        };
        if key.hop.is_some() {
            continue;
        }
        grouped
            .entry((key.scheme.to_string(), key.phase.to_string()))
            .or_default()
            .insert(key.stage, (*count, *sum));
    }
    grouped
}

/// Asserts the exact-sum invariant over every `(scheme, phase)` group in
/// `tel`, and returns the number of groups checked.
fn assert_exact_decomposition(tel: &Telemetry, ctx: &str) -> usize {
    let grouped = stage_totals(tel);
    for ((scheme, phase), stages) in &grouped {
        let (total_count, total_sum) = stages
            .get(&LatencyStage::Total)
            .unwrap_or_else(|| panic!("{ctx}: {scheme}/{phase} has no total histogram"));
        let mut span_sum = 0u64;
        for stage in LATENCY_SPAN_STAGES {
            let (count, sum) = stages
                .get(&stage)
                .unwrap_or_else(|| panic!("{ctx}: {scheme}/{phase} missing {stage:?}"));
            assert_eq!(
                count, total_count,
                "{ctx}: {scheme}/{phase} {stage:?} count diverges from total"
            );
            span_sum += sum;
        }
        assert_eq!(
            span_sum, *total_sum,
            "{ctx}: {scheme}/{phase} stage spans must sum to the end-to-end \
             total exactly (no rounding slop)"
        );
    }
    grouped.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Single-thread path: for every scheme × fault mode, stage spans sum
    /// exactly to the end-to-end total and stage counts match the sample
    /// count, for any fault seed.
    #[test]
    fn prop_stage_spans_sum_exactly_to_total(seed in any::<u64>()) {
        let profile = by_name("mcf").expect("workload");
        for scheme in all_schemes() {
            for fault in [None, Some(FaultConfig::with_rate(seed | 1, 5e-3))] {
                let cfg = SystemConfig {
                    fault,
                    ..SystemConfig::paper_defaults()
                };
                let tel = Telemetry::enabled();
                let r = run_single_telemetry(profile, scheme, 200, 600, &cfg, &tel);
                prop_assert!(r.instructions > 0);
                let groups = assert_exact_decomposition(
                    &tel,
                    &format!("single/{scheme:?}/fault={}", fault.is_some()),
                );
                prop_assert_eq!(groups, 1, "one (scheme, phase) group expected");
                let totals = stage_totals(&tel);
                let stages = totals.values().next().unwrap();
                prop_assert!(
                    stages[&LatencyStage::Total].0 > 0,
                    "{:?}: no latency samples recorded",
                    scheme
                );
            }
        }
    }
}

#[test]
fn fabric_decomposition_is_exact_under_faults_and_resyncs() {
    // The fabric adds the shared-wire queue, per-hop spans, and the
    // resync repair path's standalone retry samples; the exact-sum
    // invariant must survive all of them.
    let cfg = SystemConfig {
        fault: Some(FaultConfig::with_rate(0xfa17, 5e-3)),
        l1_bytes: 4 << 10,
        l1_ways: 2,
        l2_bytes: 16 << 10,
        l2_ways: 4,
        llc_bytes: 16 << 10,
        llc_ways: 4,
        l4_bytes: 64 << 10,
        l4_ways: 8,
        ..SystemConfig::paper_defaults()
    };
    let mut sim = FabricSim::with_config(
        by_name("mcf").unwrap(),
        Scheme::Cable(EngineKind::Lbe),
        4,
        19.2e9,
        &cfg,
    );
    let tel = Telemetry::enabled();
    sim.set_telemetry(tel.clone());
    sim.run(3_000);
    assert_eq!(assert_exact_decomposition(&tel, "fabric"), 1);

    // Hop-keyed queue/wire histograms exist for the mesh wires and hold
    // a subset of the fabric-wide samples (remote blocking misses only).
    let snapshot = tel.snapshot();
    let hop_count: u64 = snapshot
        .metrics
        .iter()
        .filter_map(|m| match m {
            MetricValue::Histogram { id, count, .. } => parse_latency_metric(id)
                .filter(|k| k.hop.is_some() && k.stage == LatencyStage::Queue)
                .map(|_| *count),
            _ => None,
        })
        .sum();
    assert!(hop_count > 0, "mesh traffic must land in hop histograms");
    let totals = stage_totals(&tel);
    let total = totals.values().next().unwrap()[&LatencyStage::Total].0;
    assert!(
        hop_count <= total,
        "hop samples ({hop_count}) cannot exceed fabric-wide samples ({total})"
    );
}
