//! The deterministic `perf_smoke` artifacts are exact goldens.
//!
//! `BENCH_degrade.json` and `BENCH_latency.json` at the repository root
//! hold only simulated quantities, so a full-size rerun must reproduce
//! them byte for byte: no tolerance, because there is no noise. When a
//! change moves them on purpose, regenerate both with
//! `cargo run --release -p cable-bench --bin perf_smoke` from the root and
//! commit the diff. Skipped under `CABLE_QUICK=1`, whose shrunken runs
//! write different figures.

use cable_bench::perf::{run_degrade_bench, run_latency_bench};
use cable_bench::FigureResult;
use std::path::Path;

fn quick() -> bool {
    std::env::var("CABLE_QUICK").is_ok_and(|v| v == "1")
}

/// Asserts that `result` serializes to exactly the committed `<id>.json`.
fn assert_matches_golden(result: &FigureResult<'_>) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("{}.json", result.id));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let fresh = result.to_json();
    let first_diff = golden
        .lines()
        .zip(fresh.lines())
        .enumerate()
        .find(|(_, (want, got))| want != got)
        .map(|(n, (want, got))| {
            format!("line {}:\n  committed: {want}\n  fresh:     {got}", n + 1)
        });
    assert!(
        fresh == golden,
        "{} ({} bytes) differs from a fresh run ({} bytes) at {}",
        path.display(),
        golden.len(),
        fresh.len(),
        first_diff.unwrap_or_else(|| "its end".to_string())
    );
}

#[test]
fn degrade_bench_matches_committed_golden() {
    if quick() {
        eprintln!("skipping: the golden is the full-size figure; unset CABLE_QUICK");
        return;
    }
    assert_matches_golden(&run_degrade_bench());
}

#[test]
fn latency_bench_matches_committed_golden() {
    if quick() {
        eprintln!("skipping: the golden is the full-size figure; unset CABLE_QUICK");
        return;
    }
    assert_matches_golden(&run_latency_bench());
}
