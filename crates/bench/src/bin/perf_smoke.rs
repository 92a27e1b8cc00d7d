//! Simulated and count-based benchmark artifacts.
//!
//! ```sh
//! cargo run --release -p cable-bench --bin perf_smoke
//! ```
//!
//! Runs every builder of `cable_bench::perf::PERF_BENCHES`: CABLE over
//! rising link fault rates (dealII and mcf), the closed-loop degradation
//! storyline (fault-rate x policy sweep plus the 1e-3 burst/recovery
//! phases), the encode workload with telemetry enabled, and the per-stage
//! access-latency attribution fabric. Prints each table and writes
//! `BENCH_fault.json`, `BENCH_degrade.json`, `BENCH_telemetry.json`, and
//! `BENCH_latency.json` in the current directory. `CABLE_QUICK=1` shrinks
//! the runs for CI.

use cable_bench::perf::PERF_BENCHES;
use cable_bench::print_table;

fn main() {
    for run in PERF_BENCHES {
        let result = run();
        print_table(result.title, &result.columns, &result.rows);
        let path = format!("{}.json", result.id);
        match std::fs::write(&path, result.to_json()) {
            Ok(()) => println!("\nwrote {path}\n"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
