//! Generates `EXPERIMENTS.md` from `results/*.json`.
//!
//! Run `all_figures` first (full size), then this binary: it pairs every
//! table/figure's measured headline numbers with the paper's published
//! values and the reproduction verdict.

use cable_bench::experiments::experiments_md;
use std::fs;
use std::path::Path;

fn main() {
    let out = experiments_md(Path::new("results"));
    fs::write("EXPERIMENTS.md", &out).expect("write EXPERIMENTS.md");
    println!("{out}");
    println!("wrote EXPERIMENTS.md");
}
