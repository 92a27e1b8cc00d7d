//! Host benchmark of the CABLE workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <encode-dealII|starved-mcf|telemetry-mcf> --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics untraced
//! (`--trace 0`), the per-layer metrics traced (`--trace 1`). See
//! `perfbench/README.md` for the metrics and the pass-floor estimator.

mod encode;
mod floor;
mod group;
mod layers;
mod passes;
mod report;
mod telem;

use report::{end_to_end, host_fields, peak_rss_mb, Metric};
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["encode-dealII", "starved-mcf", "telemetry-mcf"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds {seconds} must be positive"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One run's verdict and numbers.
pub struct Run {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed.
    pub errors: Vec<String>,
    /// Run shape, for the provenance line.
    pub shape: Vec<(&'static str, String)>,
}

impl Run {
    fn from_passes(p: &passes::Passes, metrics: Vec<Metric>, check: Result<(), String>) -> Self {
        Run {
            metrics,
            attempted: p.attempted,
            failed: p.failed,
            errors: check.err().into_iter().collect(),
            shape: vec![
                ("passes", p.floor.passes().to_string()),
                ("windows_per_pass", p.floor.windows().to_string()),
                ("samples_per_window", p.floor.passes().to_string()),
            ],
        }
    }
}

/// The untraced run of `workload`: its own end-to-end metrics.
fn untraced(workload: &str, seed: u64, budget: Duration) -> Run {
    match workload {
        "encode-dealII" => {
            let o = encode::run(seed, encode::FULL, budget);
            Run::from_passes(&o.passes, encode::metrics(&o), encode::check(&o))
        }
        "starved-mcf" => {
            let o = group::run(group::FULL, budget);
            Run::from_passes(&o.passes, group::metrics(&o), group::check(&o))
        }
        "telemetry-mcf" => {
            let o = telem::run(telem::FULL, budget);
            Run::from_passes(&o.passes, telem::metrics(&o), telem::check(&o))
        }
        _ => unreachable!("workload names are checked when parsed"),
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut run = if args.trace {
        layers::traced(args.seed, budget)
    } else {
        let mut run = untraced(&args.workload, args.seed, budget);
        run.metrics
            .push(Metric::new("peak_rss_mb", "MiB", peak_rss_mb()));
        run.metrics = end_to_end(&run.metrics);
        run
    };
    if run.attempted == run.failed {
        eprintln!("perfbench: every pass failed");
        std::process::exit(1);
    }
    for e in &run.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let mut fields = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
    ];
    fields.append(&mut run.shape);
    fields.extend(host_fields());
    println!("{}", report::provenance_line(&fields));
    println!(
        "{}",
        report::result_line(
            run.errors.is_empty() && run.failed == 0,
            run.attempted,
            run.failed,
            &run.metrics
        )
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(v.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "starved-mcf",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("starved-mcf", 7, 12.0, true)
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "encode-dealII", "--trace", "2"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
    }

    /// Every workload at a small size: the minimum number of passes, each
    /// repeating the first pass's deterministic outputs, and every output
    /// check passing.
    #[test]
    fn smoke_run_passes_repeat_their_outputs() {
        let none = Duration::ZERO;
        let e = encode::run(
            1,
            encode::Size {
                warm: 2_000,
                windows: 4,
                per_window: 256,
            },
            none,
        );
        let g = group::run(
            group::Size {
                warm: 500,
                instructions: 2_000,
                rounds: 2,
            },
            none,
        );
        let t = telem::run(
            telem::Size {
                warm: 500,
                instructions: 2_000,
            },
            none,
        );
        for p in [&e.passes, &g.passes, &t.passes] {
            assert_eq!((p.failed, p.floor.passes()), (0, passes::MIN_PASSES));
        }
        encode::check(&e).unwrap();
        telem::check(&t).unwrap();
        let all = [encode::metrics(&e), group::metrics(&g), telem::metrics(&t)].concat();
        assert!(
            all.iter().all(|m| m.value.is_finite() && m.value > 0.0),
            "{all:?}"
        );
    }

    #[test]
    fn benchmark_json_lists_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        for (name, unit) in report::END_TO_END {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        for name in layers::PER_LAYER.iter().map(|(n, _)| *n) {
            assert!(text.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
    }
}
