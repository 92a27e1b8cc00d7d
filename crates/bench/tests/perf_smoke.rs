//! Quick-mode smoke tests for the `perf_smoke` artifacts.
//!
//! Gated on `CABLE_QUICK=1` so CI exercises every builder (full run,
//! JSON emission, schema) without paying the full measurement cost in
//! every local `cargo test`. All four full-size figures are pinned byte
//! for byte by `bench_goldens.rs`.

use cable_bench::perf::{
    run_degrade_bench, run_fault_bench, run_latency_bench, run_telemetry_bench,
    DEGRADE_BENCH_COLUMNS, DEGRADE_BENCH_ID, DEGRADE_BENCH_RATES, FAULT_BENCH_COLUMNS,
    FAULT_BENCH_ID, FAULT_BENCH_RATES, FAULT_BENCH_WORKLOADS, LATENCY_BENCH_COLUMNS,
    LATENCY_BENCH_ID, TELEMETRY_BENCH_COLUMNS, TELEMETRY_BENCH_ID,
};
use cable_bench::report::load_json;
use cable_bench::runner::default_schemes;
use cable_bench::FigureResult;

fn quick() -> bool {
    std::env::var("CABLE_QUICK").is_ok_and(|v| v == "1")
}

/// The emitted JSON parses back with the same schema and values.
fn assert_json_roundtrips(result: &FigureResult<'_>, id: &str, columns: &[&str]) {
    let loaded = load_json(&result.to_json()).expect("emitted JSON parses");
    assert_eq!(loaded.id, id);
    assert_eq!(loaded.columns, columns);
    for (label, values) in &result.rows {
        for (col, v) in columns.iter().zip(values) {
            let got = loaded
                .value(label, col)
                .unwrap_or_else(|| panic!("{label}/{col} missing after roundtrip"));
            assert!(
                (got - v).abs() <= v.abs() * 1e-9,
                "{label}/{col}: {got} != {v}"
            );
        }
    }
}

#[test]
fn fault_bench_detects_and_recovers_everything() {
    if !quick() {
        eprintln!("skipping: set CABLE_QUICK=1 to run the fault-injection benchmark");
        return;
    }

    let result = run_fault_bench();
    assert_eq!(result.id, FAULT_BENCH_ID);
    assert_eq!(result.columns, FAULT_BENCH_COLUMNS);
    let rows_per_workload = 2 + FAULT_BENCH_RATES.len();
    assert_eq!(
        result.rows.len(),
        FAULT_BENCH_WORKLOADS.len() * rows_per_workload,
        "per workload: off + lossless + one row per swept rate"
    );

    for (label, values) in &result.rows {
        assert_eq!(values.len(), FAULT_BENCH_COLUMNS.len(), "{label}: columns");
        let (ratio, injected, detected) = (values[0], values[1], values[2]);
        // Heavy fault rates may legitimately push the ratio below 1.0
        // (retransmissions dominate); it must only stay positive/finite.
        assert!(ratio.is_finite() && ratio > 0.0, "{label}: ratio {ratio}");
        // The recovery contract, on every row of the sweep: nothing slips
        // past the CRC.
        assert!(
            detected >= injected,
            "{label}: detected {detected} < injected {injected}"
        );
    }

    for (w, workload) in FAULT_BENCH_WORKLOADS.iter().enumerate() {
        let block = &result.rows[w * rows_per_workload..(w + 1) * rows_per_workload];

        // The fault-free row must stay exactly fault-free; the harshest
        // swept rate must actually exercise the recovery machinery.
        let (off_label, off) = &block[0];
        assert_eq!(off_label, &format!("{workload}/off"));
        assert!(off[0] > 1.0, "{workload}: reliable row must compress");
        assert_eq!(off[1], 0.0, "{workload}: reliable row injected frames");
        assert_eq!(off[5], 0.0, "{workload}: reliable row retransmitted bits");
        assert_eq!(block[1].0, format!("{workload}/lossless"));
        assert!(
            block[1].1[0] > 1.0,
            "{workload}: guarded-lossless row must compress"
        );
        let (_, harshest) = block.last().expect("at least one swept rate");
        assert!(
            harshest[1] > 0.0,
            "{workload}: harshest rate injected nothing"
        );
        assert!(
            harshest[5] > 0.0,
            "{workload}: harshest rate retransmitted nothing"
        );

        // Degradation is graceful: the guarded-lossless ratio stays within
        // the guard overhead of the reliable row, and rising fault rates
        // never *improve* the ratio.
        let ratios: Vec<f64> = block.iter().map(|(_, v)| v[0]).collect();
        assert!(
            ratios[1] <= ratios[0],
            "{workload}: guard bits cannot improve the ratio: {ratios:?}"
        );
        assert!(
            ratios.last().expect("rows") <= &ratios[1],
            "{workload}: heavy faults cannot beat lossless: {ratios:?}"
        );
    }

    assert_json_roundtrips(&result, FAULT_BENCH_ID, FAULT_BENCH_COLUMNS);
}

#[test]
fn degrade_bench_steps_down_and_recovers() {
    if !quick() {
        eprintln!("skipping: set CABLE_QUICK=1 to run the degradation benchmark");
        return;
    }

    // run_degrade_bench asserts the hard claims itself before returning a
    // single row: monotone throughput degradation per policy family, ladder
    // step-down during the burst, and full re-arm after it. This test pins
    // the figure schema and the storyline's observable shape.
    let result = run_degrade_bench();
    assert_eq!(result.id, DEGRADE_BENCH_ID);
    assert_eq!(result.columns, DEGRADE_BENCH_COLUMNS);
    let steady = 2 * DEGRADE_BENCH_RATES.len();
    assert_eq!(
        result.rows.len(),
        steady + 6,
        "ladder+fixed grid, two mesh rows, three burst phases, one summary row"
    );

    let col = |label: &str, name: &str| -> f64 {
        let (_, values) = result
            .rows
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("missing row {label}"));
        let idx = DEGRADE_BENCH_COLUMNS
            .iter()
            .position(|c| *c == name)
            .unwrap_or_else(|| panic!("missing column {name}"));
        values[idx]
    };

    // All columns are simulated quantities; every row must be well-formed.
    for (label, values) in &result.rows {
        assert_eq!(values.len(), DEGRADE_BENCH_COLUMNS.len(), "{label}: cols");
        assert!(values[0].is_finite() && values[0] > 0.0, "{label}: rate");
        assert!(values.iter().all(|v| v.is_finite() && *v >= 0.0), "{label}");
    }

    // The burst storyline: clean before, degraded during, re-armed after.
    assert_eq!(col("burst/pre", "demotions"), 0.0, "pre-burst demoted");
    assert_eq!(col("burst/pre", "worst_level"), 0.0, "pre-burst rung");
    assert!(col("burst/1e-3", "demotions") > 0.0, "burst never demoted");
    assert!(col("burst/1e-3", "nacks") > 0.0, "burst saw no NACKs");
    assert!(col("burst/1e-3", "worst_level") > 0.0, "burst stayed clean");
    assert!(
        col("burst/recovered", "promotions") > 0.0,
        "recovery never promoted"
    );
    assert_eq!(
        col("burst/recovered", "worst_level"),
        0.0,
        "recovery must fully re-arm the ladder"
    );
    assert!(
        col("burst/recovered", "scheduled_resyncs") > 0.0,
        "scheduled resync cadence never fired"
    );

    // The summary row is the recovered steady state.
    assert_eq!(
        col("CABLE+LBE", "accesses_per_sec"),
        col("burst/recovered", "accesses_per_sec"),
        "summary row must mirror the recovered phase"
    );

    assert_json_roundtrips(&result, DEGRADE_BENCH_ID, DEGRADE_BENCH_COLUMNS);
}

#[test]
fn latency_bench_attributes_stages_and_roundtrips_schema() {
    if !quick() {
        eprintln!("skipping: set CABLE_QUICK=1 to run the latency benchmark");
        return;
    }

    // run_latency_bench asserts the hard claims itself: exact per-stage
    // decomposition on every row and retry time on the faulted row. This
    // test pins the figure schema and the simulated-determinism contract.
    let result = run_latency_bench();
    assert_eq!(result.id, LATENCY_BENCH_ID);
    assert_eq!(result.columns, LATENCY_BENCH_COLUMNS);
    assert_eq!(
        result.rows.len(),
        4,
        "three healthy schemes plus one faulted CABLE row"
    );

    for (label, values) in &result.rows {
        assert_eq!(values.len(), LATENCY_BENCH_COLUMNS.len(), "{label}: cols");
        let (samples, p50, p90, p99, p999) =
            (values[0], values[1], values[2], values[3], values[4]);
        assert!(samples > 0.0 && samples.fract() == 0.0, "{label}: samples");
        assert!(p50 > 0.0, "{label}: total p50 must be positive");
        // Percentiles are monotone in rank by construction.
        assert!(
            p50 <= p90 && p90 <= p99 && p99 <= p999,
            "{label}: percentile ranks out of order: {values:?}"
        );
        assert!(
            values
                .iter()
                .all(|v| v.is_finite() && *v >= 0.0 && v.fract() == 0.0),
            "{label}: every column is an exact simulated ps integer"
        );
    }

    // The faulted row must charge retry time the healthy row does not.
    let retry_idx = LATENCY_BENCH_COLUMNS
        .iter()
        .position(|c| *c == "retry_p99_ps")
        .expect("retry column");
    let row = |label: &str| {
        &result
            .rows
            .iter()
            .find(|(l, _)| l == label)
            .unwrap_or_else(|| panic!("missing row {label}"))
            .1
    };
    assert_eq!(
        row("CABLE+LBE")[retry_idx],
        0.0,
        "healthy run must charge no retry time"
    );

    // Determinism: every column is simulated, so a second run reproduces
    // the figure exactly.
    let again = run_latency_bench();
    assert_eq!(result.rows, again.rows, "latency figure must be exact");

    assert_json_roundtrips(&result, LATENCY_BENCH_ID, LATENCY_BENCH_COLUMNS);
}

#[test]
fn telemetry_bench_counts_real_traffic_and_roundtrips_schema() {
    if !quick() {
        eprintln!("skipping: set CABLE_QUICK=1 to run the telemetry benchmark");
        return;
    }

    let result = run_telemetry_bench();
    assert_eq!(result.id, TELEMETRY_BENCH_ID);
    assert_eq!(result.columns, TELEMETRY_BENCH_COLUMNS);
    assert_eq!(
        result.rows.len(),
        default_schemes().len(),
        "one row per scheme"
    );

    for (label, values) in &result.rows {
        assert_eq!(
            values.len(),
            TELEMETRY_BENCH_COLUMNS.len(),
            "{label}: column count"
        );
        let (encodes, wire_bits, payload_samples, events, dropped) =
            (values[0], values[2], values[3], values[4], values[5]);
        // The registry must have seen the measured traffic: every scheme
        // moves wire bits, and every off-chip transfer records exactly one
        // encode count and one payload histogram sample.
        assert!(encodes > 0.0, "{label}: no encode transfers counted");
        assert!(wire_bits > 0.0, "{label}: no wire bits counted");
        assert_eq!(
            payload_samples, encodes,
            "{label}: one payload sample per encode"
        );
        // The tracer retained a bounded window; dropped is the overflow.
        assert!(events > 0.0, "{label}: no trace events retained");
        assert!(dropped >= 0.0, "{label}: negative drop count");
    }

    // Determinism: every column is a count, so a second run must
    // reproduce the whole figure exactly.
    let again = run_telemetry_bench();
    assert_eq!(
        result.rows, again.rows,
        "telemetry figure must be deterministic"
    );

    assert_json_roundtrips(&result, TELEMETRY_BENCH_ID, TELEMETRY_BENCH_COLUMNS);
}
