//! The pass-floor host-time estimator.
//!
//! A run makes several *passes*. Each pass rebuilds and warms the system
//! (one set-up sample, timed in one or more *parts*) and then replays the
//! same deterministic measured phase, timed in fixed *windows*. Every
//! window does identical work in every pass and host noise only ever adds
//! time, so the run's host time is the sum over windows of the fastest
//! time that window took in any pass; set-up time is the same sum over its
//! parts. Whole-machine slow periods (seconds long, ~60% speed on a shared
//! host) drop out; a window the program itself makes slow stays slow in
//! every pass and is kept. Short windows and parts drop out more of them.

/// Per-window and per-set-up-part minima over the passes recorded so far.
#[derive(Clone, Debug)]
pub struct PassFloor {
    window_min_s: Vec<f64>,
    setup_min_s: Vec<f64>,
    passes: usize,
}

/// Folds `sample` into `min`, element by element.
fn fold_min(min: &mut [f64], sample: &[f64]) {
    assert_eq!(
        sample.len(),
        min.len(),
        "every pass must time the same windows and set-up parts"
    );
    for (m, &t) in min.iter_mut().zip(sample) {
        *m = m.min(t);
    }
}

impl PassFloor {
    /// An estimator over `setup_parts` set-up parts and `windows` windows
    /// per pass.
    pub fn new(setup_parts: usize, windows: usize) -> Self {
        assert!(
            setup_parts > 0 && windows > 0,
            "a pass needs a set-up part and a window"
        );
        PassFloor {
            window_min_s: vec![f64::INFINITY; windows],
            setup_min_s: vec![f64::INFINITY; setup_parts],
            passes: 0,
        }
    }

    /// Folds in one pass: the time of each set-up part and of each window.
    pub fn record(&mut self, setup_s: &[f64], window_s: &[f64]) {
        fold_min(&mut self.window_min_s, window_s);
        fold_min(&mut self.setup_min_s, setup_s);
        self.passes += 1;
    }

    /// Passes recorded.
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Windows per pass.
    pub fn windows(&self) -> usize {
        self.window_min_s.len()
    }

    /// Host time of the measured phase: Σ over windows of the per-window
    /// minimum across passes.
    pub fn host_s(&self) -> f64 {
        self.window_min_s.iter().sum()
    }

    /// Host time of the windows in `range` (e.g. one scheme's calls).
    pub fn host_s_of(&self, range: std::ops::Range<usize>) -> f64 {
        self.window_min_s[range].iter().sum()
    }

    /// Set-up time: Σ over parts of the per-part minimum across passes.
    pub fn setup_s(&self) -> f64 {
        self.setup_min_s.iter().sum()
    }

    /// Set-up time of the parts in `range` (e.g. one scheme's warm-up).
    pub fn setup_s_of(&self, range: std::ops::Range<usize>) -> f64 {
        self.setup_min_s[range].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten windows of 10 ms each, with a little per-pass jitter.
    fn clean_pass(pass: usize) -> Vec<f64> {
        (0..10)
            .map(|w| 0.010 * (1.0 + 0.002 * ((pass * 7 + w * 3) % 5) as f64))
            .collect()
    }

    fn floor_of(passes: &[Vec<f64>]) -> PassFloor {
        let mut f = PassFloor::new(1, passes[0].len());
        for p in passes {
            f.record(&[0.05], p);
        }
        f
    }

    #[test]
    fn a_slow_stretch_in_one_pass_leaves_the_rate_unchanged() {
        let clean: Vec<Vec<f64>> = (0..5).map(clean_pass).collect();
        let mut slowed = clean.clone();
        // A whole-machine slow period at 60% speed over four windows.
        for t in &mut slowed[2][3..7] {
            *t /= 0.6;
        }
        let (a, b) = (floor_of(&clean).host_s(), floor_of(&slowed).host_s());
        assert!((a - b).abs() < 1e-15, "{a} vs {b}");
    }

    #[test]
    fn a_uniformly_slower_pass_set_moves_the_rate_by_the_same_share() {
        let base: Vec<Vec<f64>> = (0..5).map(clean_pass).collect();
        let slower: Vec<Vec<f64>> = base
            .iter()
            .map(|p| p.iter().map(|t| t * 1.1).collect())
            .collect();
        let ratio = floor_of(&slower).host_s() / floor_of(&base).host_s();
        assert!((ratio - 1.1).abs() < 1e-12, "ratio {ratio}");
    }

    #[test]
    fn setup_is_the_sum_of_per_part_minima() {
        let mut f = PassFloor::new(2, 1);
        for s in [[0.09, 0.02], [0.06, 0.05], [0.11, 0.03]] {
            f.record(&s, &[1.0]);
        }
        assert_eq!(f.setup_s_of(0..1), 0.06);
        assert_eq!(f.setup_s_of(1..2), 0.02);
        assert!((f.setup_s() - 0.08).abs() < 1e-15);
        assert_eq!(f.passes(), 3);
        assert_eq!(f.host_s_of(0..1), 1.0);
    }

    #[test]
    #[should_panic(expected = "same windows")]
    fn a_pass_with_other_windows_is_rejected() {
        PassFloor::new(1, 2).record(&[0.1], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "set-up parts")]
    fn a_pass_with_other_setup_parts_is_rejected() {
        PassFloor::new(2, 1).record(&[0.1], &[1.0]);
    }
}
