//! Shared harness for regenerating every table and figure of the paper.
//!
//! Each `src/bin/figNN.rs` binary drives the runners in this crate and
//! prints the same rows/series the paper reports. The flow mirrors §VI-A:
//! per-benchmark synthetic traces are replayed through a compressed
//! LLC↔L4 link (or the coherence links for Fig. 13), with a warm-up phase
//! before measurement.
//!
//! Run them with `cargo run --release -p cable-bench --bin fig12` (release
//! strongly recommended — the studies replay hundreds of thousands of
//! compressed transfers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod figs;
pub mod figs_timing;
pub mod perf;
pub mod report;
pub mod runner;

pub use report::{geomean, mean, print_series, print_table, save_json, FigureResult};
pub use runner::{
    compression_study, default_schemes, mix_study, multi4_study, parallel_map, StudyConfig,
};
