//! Metric names, the result line, and run provenance.

use std::fmt::Write as _;

/// One reported number.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// The end-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order. Every
/// untraced run reports all of them; a workload that does not exercise a
/// metric reports it as [`NOT_EXERCISED`].
pub const END_TO_END: [(&str, &str); 8] = [
    ("accesses_per_s", "acc/s"),
    ("instructions_per_s", "instr/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("compression_ratio", "x"),
    ("sim_speedup", "x"),
    ("sim_p99_ps", "sim_ps"),
    ("report_mb_per_s", "MB/s"),
];

/// The value of an end-to-end metric a workload does not exercise: the
/// neutral ratio, constant, so it never moves.
pub const NOT_EXERCISED: f64 = 1.0;

/// Checks the metric-name grammar: starts with a letter or digit, at most
/// 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Completes a workload's own end-to-end metrics into the full
/// [`END_TO_END`] set, in table order.
pub fn end_to_end(own: &[Metric]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            own.iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, NOT_EXERCISED))
        })
        .collect()
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`.
///
/// # Panics
///
/// Panics on an invalid metric name, a duplicate, or a non-finite value —
/// each is a bug in the benchmark, not in the measured program.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "duplicate metric {}",
            m.name
        );
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        if i > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

/// Where and how a run was made; printed on the line before the result.
pub fn provenance_line(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "'")))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// Host facts recorded with every result.
pub fn host_fields() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    vec![("nproc", nproc.to_string()), ("cpu", cpu), ("rustc", rustc)]
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over 64-bit words: the digest each pass's deterministic outputs
/// fold into.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn add_str(&mut self, s: &str) {
        for chunk in s.as_bytes().chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(w));
        }
        self.add(s.len() as u64);
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in ["setup_s", "sim.ns_per_instr.cable-lbe", "0x", "a.b-c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "plus+",
            "x/y",
            &"a".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(END_TO_END.iter().all(|(n, _)| valid_name(n)));
    }

    #[test]
    fn result_line_has_exactly_the_schema_keys() {
        let line = result_line(
            true,
            3,
            0,
            &end_to_end(&[Metric::new("setup_s", "s", 0.25)]),
        );
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"sim_speedup\": {\"value\": 1.0, \"unit\": \"x\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_refused() {
        let _ = result_line(true, 1, 0, &[Metric::new("x", "s", f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_are_refused() {
        let m = Metric::new("x", "s", 1.0);
        let _ = result_line(true, 1, 0, &[m.clone(), m]);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.add(1);
        a.add(2);
        b.add(2);
        b.add(1);
        assert_ne!(a, b);
    }
}
