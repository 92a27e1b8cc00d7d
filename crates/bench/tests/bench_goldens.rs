//! The deterministic artifacts at the repository root are exact goldens.
//!
//! `BENCH_fault.json`, `BENCH_degrade.json`, `BENCH_telemetry.json` and
//! `BENCH_latency.json` hold only simulated quantities and counts, so a
//! full-size rerun must reproduce them byte for byte: no tolerance, because
//! there is no noise. When a change moves them on purpose, regenerate all
//! four with `cargo run --release -p cable-bench --bin perf_smoke` from the
//! root and commit the diff. Skipped under `CABLE_QUICK=1`, whose shrunken
//! runs write different figures.
//!
//! `EXPERIMENTS.md` must be exactly what the committed `results/*.json`
//! render to, so a change that moves a figure JSON moves its verdict in the
//! same diff. This check reads committed files only and always runs;
//! regenerate with `cargo run --release -p cable-bench --bin experiments_md`
//! from the root.

use cable_bench::experiments::experiments_md;
use cable_bench::perf::{
    run_degrade_bench, run_fault_bench, run_latency_bench, run_telemetry_bench,
};
use cable_bench::FigureResult;
use std::path::{Path, PathBuf};

fn quick() -> bool {
    std::env::var("CABLE_QUICK").is_ok_and(|v| v == "1")
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Asserts that `result` serializes to exactly the committed `<id>.json`.
fn assert_matches_golden(result: &FigureResult<'_>) {
    assert_same_text(
        &repo_root().join(format!("{}.json", result.id)),
        &result.to_json(),
    );
}

/// Asserts that the committed file at `path` is exactly `fresh`, naming the
/// first line that differs.
fn assert_same_text(path: &Path, fresh: &str) {
    let golden = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
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
fn fault_bench_matches_committed_golden() {
    if quick() {
        eprintln!("skipping: the golden is the full-size figure; unset CABLE_QUICK");
        return;
    }
    assert_matches_golden(&run_fault_bench());
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

#[test]
fn telemetry_bench_matches_committed_golden() {
    if quick() {
        eprintln!("skipping: the golden is the full-size figure; unset CABLE_QUICK");
        return;
    }
    assert_matches_golden(&run_telemetry_bench());
}

#[test]
fn experiments_md_matches_committed_results() {
    let root = repo_root();
    assert_same_text(
        &root.join("EXPERIMENTS.md"),
        &experiments_md(&root.join("results")),
    );
}
