//! Runs a workload's passes under the time budget and gates their outputs.

use crate::floor::PassFloor;
use crate::report::Digest;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// What one pass measured.
pub struct PassOut {
    /// Host seconds to build and warm the system, per set-up part.
    pub setup_s: Vec<f64>,
    /// Host seconds of each measured window.
    pub window_s: Vec<f64>,
    /// Digest of the pass's deterministic outputs.
    pub digest: Digest,
}

/// Fewest passes a run makes, whatever its budget.
pub const MIN_PASSES: usize = 3;

/// The outcome of a run of passes.
pub struct Passes {
    pub floor: PassFloor,
    /// Digest of the first good pass; every other pass must match it.
    pub digest: Option<Digest>,
    /// Timed windows attempted.
    pub attempted: u64,
    /// Windows of passes that panicked or diverged from the first pass.
    pub failed: u64,
}

/// Makes passes of `setup_parts` set-up parts and `windows` windows while
/// the next one is expected to end within `budget` (at least
/// [`MIN_PASSES`]). A pass that panics or whose digest differs from the
/// first good pass counts all its windows as failed and is left out of the
/// floor.
pub fn run(
    setup_parts: usize,
    windows: usize,
    budget: Duration,
    mut pass: impl FnMut() -> PassOut,
) -> Passes {
    let start = Instant::now();
    let mut longest = Duration::ZERO;
    let mut out = Passes {
        floor: PassFloor::new(setup_parts, windows),
        digest: None,
        attempted: 0,
        failed: 0,
    };
    let mut made = 0;
    while made < MIN_PASSES || start.elapsed() + longest <= budget {
        made += 1;
        let began = Instant::now();
        out.attempted += windows as u64;
        let good = match catch_unwind(AssertUnwindSafe(&mut pass)) {
            Ok(p) if *out.digest.get_or_insert(p.digest) == p.digest => {
                eprintln!(
                    "pass {made}: set-up {:.4} s, measured {:.4} s",
                    p.setup_s.iter().sum::<f64>(),
                    p.window_s.iter().sum::<f64>()
                );
                out.floor.record(&p.setup_s, &p.window_s);
                true
            }
            Ok(p) => {
                eprintln!(
                    "pass {made}: digest {:016x} diverged from {:016x}",
                    p.digest.value(),
                    out.digest.map_or(0, Digest::value)
                );
                false
            }
            Err(_) => {
                eprintln!("pass {made}: panicked");
                false
            }
        };
        if !good {
            out.failed += windows as u64;
        }
        longest = longest.max(began.elapsed());
    }
    out
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
