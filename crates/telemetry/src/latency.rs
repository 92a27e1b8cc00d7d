//! End-to-end access-latency attribution: stage taxonomy, log-bucketed
//! histogram edges, and (scheme, phase, stage)-keyed metric ids.
//!
//! Every simulated memory access decomposes into six stage spans — cache
//! hierarchy time, codec time, link queue wait, wire serialization,
//! retry/resync penalty, and DRAM service — that sum *exactly* to the
//! end-to-end total. Each stage (and the total) streams into a registry
//! histogram with HDR-style fixed-relative-precision buckets.
//!
//! Ids follow `lat.{scheme}.{phase}.{stage}`, with an optional `h{N}`
//! segment before the stage for hop-keyed wire spans
//! (`lat.{scheme}.{phase}.h{N}.{stage}`). Scheme labels are only known at
//! runtime, so ids are interned exactly like hop ids.

use crate::registry::{intern_id, Histogram};
use crate::Telemetry;

/// Common prefix of every latency metric id.
pub const LATENCY_METRIC_PREFIX: &str = "lat.";

/// One stage of the end-to-end decomposition (plus the total itself).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LatencyStage {
    /// L1/L2/LLC/L4 hierarchy time (everything on-chip before the link).
    Hier,
    /// Encode + decode codec time charged by the compression scheme.
    Codec,
    /// Wait behind earlier transfers already occupying the shared wire.
    Queue,
    /// Wire serialization of the access's own (first-attempt) bits.
    Wire,
    /// Retransmission and resync penalty (fault-mode repair traffic).
    Retry,
    /// DRAM service time at the home node.
    Dram,
    /// The end-to-end total; always the exact sum of the six spans.
    Total,
}

/// The six span stages, in decomposition order (excludes `Total`).
pub const LATENCY_SPAN_STAGES: [LatencyStage; 6] = [
    LatencyStage::Hier,
    LatencyStage::Codec,
    LatencyStage::Queue,
    LatencyStage::Wire,
    LatencyStage::Retry,
    LatencyStage::Dram,
];

/// Every stage including the total, in render order.
pub const LATENCY_ALL_STAGES: [LatencyStage; 7] = [
    LatencyStage::Hier,
    LatencyStage::Codec,
    LatencyStage::Queue,
    LatencyStage::Wire,
    LatencyStage::Retry,
    LatencyStage::Dram,
    LatencyStage::Total,
];

impl LatencyStage {
    /// The id segment / table label of this stage.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LatencyStage::Hier => "hier",
            LatencyStage::Codec => "codec",
            LatencyStage::Queue => "queue",
            LatencyStage::Wire => "wire",
            LatencyStage::Retry => "retry",
            LatencyStage::Dram => "dram",
            LatencyStage::Total => "total",
        }
    }

    /// Inverse of [`LatencyStage::as_str`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        LATENCY_ALL_STAGES
            .into_iter()
            .find(|stage| stage.as_str() == s)
    }
}

/// Number of latency histogram bucket edges: a zero edge (so zero-valued
/// spans resolve to percentile 0, not the first finite bucket), four
/// edges per octave from 2^4 ps through 2^43, and a final 2^44 ps
/// (~17.6 s) edge; values above it land in the overflow bucket.
pub const LATENCY_EDGE_COUNT: usize = 2 + 4 * 40;

const fn build_latency_edges() -> [u64; LATENCY_EDGE_COUNT] {
    let mut edges = [0u64; LATENCY_EDGE_COUNT];
    let mut i = 1;
    let mut k = 4u32;
    while k < 44 {
        let base = 1u64 << k;
        let mut j = 0u64;
        while j < 4 {
            edges[i] = base + (base / 4) * j;
            i += 1;
            j += 1;
        }
        k += 1;
    }
    edges[i] = 1u64 << 44;
    edges
}

static LATENCY_EDGES_ARRAY: [u64; LATENCY_EDGE_COUNT] = build_latency_edges();

/// Bucket edges of every latency histogram: log-spaced with four
/// sub-buckets per octave, so every percentile is reported with a fixed
/// <= 25% relative precision across the whole 16 ps .. 17.6 s range.
pub static LATENCY_EDGES: &[u64] = &LATENCY_EDGES_ARRAY;

/// Id segments come from free-form scheme labels; dots would break the
/// `lat.{scheme}.{phase}.{stage}` grammar, so they intern as dashes.
fn sanitize(segment: &str) -> String {
    segment.replace('.', "-")
}

/// Interns and returns the `'static` metric id
/// `lat.{scheme}.{phase}.{stage}`.
#[must_use]
pub fn latency_metric_id(scheme: &str, phase: &str, stage: LatencyStage) -> &'static str {
    intern_id(format!(
        "{LATENCY_METRIC_PREFIX}{}.{}.{}",
        sanitize(scheme),
        sanitize(phase),
        stage.as_str()
    ))
}

/// Interns and returns the `'static` hop-keyed metric id
/// `lat.{scheme}.{phase}.h{hop}.{stage}`.
#[must_use]
pub fn latency_hop_metric_id(
    scheme: &str,
    phase: &str,
    hop: u32,
    stage: LatencyStage,
) -> &'static str {
    intern_id(format!(
        "{LATENCY_METRIC_PREFIX}{}.{}.h{hop}.{}",
        sanitize(scheme),
        sanitize(phase),
        stage.as_str()
    ))
}

/// A parsed latency metric id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyKey<'a> {
    /// Scheme label segment (dots sanitized to dashes at intern time).
    pub scheme: &'a str,
    /// Phase name segment.
    pub phase: &'a str,
    /// Mesh wire index for hop-keyed ids.
    pub hop: Option<u32>,
    /// The stage the histogram tracks.
    pub stage: LatencyStage,
}

/// Inverse of `latency_metric_id` / [`latency_hop_metric_id`]; `None`
/// when `id` is not a latency metric.
#[must_use]
pub fn parse_latency_metric(id: &str) -> Option<LatencyKey<'_>> {
    let rest = id.strip_prefix(LATENCY_METRIC_PREFIX)?;
    let parts: Vec<&str> = rest.split('.').collect();
    let (scheme, phase, hop, stage) = match parts.as_slice() {
        [scheme, phase, stage] => (*scheme, *phase, None, *stage),
        [scheme, phase, hop, stage] => {
            let n: u32 = hop.strip_prefix('h')?.parse().ok()?;
            (*scheme, *phase, Some(n), *stage)
        }
        _ => return None,
    };
    if scheme.is_empty() || phase.is_empty() {
        return None;
    }
    Some(LatencyKey {
        scheme,
        phase,
        hop,
        stage: LatencyStage::parse(stage)?,
    })
}

/// One access's stage spans, in picoseconds. The end-to-end latency is
/// [`StageSpans::total`] — the exact `u64` sum, by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSpans {
    /// Cache hierarchy time.
    pub hier: u64,
    /// Codec (encode + decode) time.
    pub codec: u64,
    /// Link queue wait.
    pub queue: u64,
    /// Wire serialization of first-attempt bits.
    pub wire: u64,
    /// Retransmission / resync penalty.
    pub retry: u64,
    /// DRAM service time.
    pub dram: u64,
}

impl StageSpans {
    /// The end-to-end latency: the exact sum of the six spans.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.hier + self.codec + self.queue + self.wire + self.retry + self.dram
    }

    fn get(&self, stage: LatencyStage) -> u64 {
        match stage {
            LatencyStage::Hier => self.hier,
            LatencyStage::Codec => self.codec,
            LatencyStage::Queue => self.queue,
            LatencyStage::Wire => self.wire,
            LatencyStage::Retry => self.retry,
            LatencyStage::Dram => self.dram,
            LatencyStage::Total => self.total(),
        }
    }
}

/// Resolved histogram handles of one (scheme, phase) key: one per stage
/// plus the total. Zero-valued spans are recorded too, so every stage
/// histogram carries exactly one sample per access and the per-stage sums
/// add up to the total sum with no slop.
#[derive(Clone, Debug)]
pub struct LatencyRecorder {
    hists: [Histogram; LATENCY_ALL_STAGES.len()],
}

impl LatencyRecorder {
    /// Resolves the seven stage histograms of `(scheme, phase)` against
    /// `tel` (no-op handles when telemetry is disabled).
    #[must_use]
    pub fn new(tel: &Telemetry, scheme: &str, phase: &str) -> Self {
        LatencyRecorder {
            hists: LATENCY_ALL_STAGES
                .map(|stage| tel.histogram(latency_metric_id(scheme, phase, stage), LATENCY_EDGES)),
        }
    }

    /// Records one access: every span stage (zeros included) plus the
    /// exact total.
    pub fn record(&self, spans: &StageSpans) {
        for (stage, hist) in LATENCY_ALL_STAGES.iter().zip(&self.hists) {
            hist.record(spans.get(*stage));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_are_strictly_increasing_from_zero() {
        assert_eq!(LATENCY_EDGES.len(), LATENCY_EDGE_COUNT);
        assert_eq!(LATENCY_EDGES[0], 0);
        assert_eq!(LATENCY_EDGES[1], 16);
        assert_eq!(*LATENCY_EDGES.last().unwrap(), 1 << 44);
        assert!(LATENCY_EDGES.windows(2).all(|w| w[0] < w[1]));
        // Fixed relative precision: bucket width <= 25% of the lower edge
        // over the whole finite range.
        for w in LATENCY_EDGES[1..].windows(2) {
            assert!(w[1] - w[0] <= w[0] / 4 + 1, "{w:?}");
        }
    }

    #[test]
    fn ids_round_trip_through_the_parser() {
        for stage in LATENCY_ALL_STAGES {
            let id = latency_metric_id("CABLE+LBE", "measure", stage);
            assert_eq!(
                parse_latency_metric(id),
                Some(LatencyKey {
                    scheme: "CABLE+LBE",
                    phase: "measure",
                    hop: None,
                    stage,
                })
            );
            let hid = latency_hop_metric_id("gzip", "measure", 3, stage);
            assert_eq!(
                parse_latency_metric(hid),
                Some(LatencyKey {
                    scheme: "gzip",
                    phase: "measure",
                    hop: Some(3),
                    stage,
                })
            );
        }
    }

    #[test]
    fn interning_returns_the_same_pointer() {
        let a = latency_metric_id("gzip", "measure", LatencyStage::Total);
        let b = latency_metric_id("gzip", "measure", LatencyStage::Total);
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn dotted_scheme_labels_sanitize_into_the_grammar() {
        let id = latency_metric_id("v1.2", "measure", LatencyStage::Wire);
        assert_eq!(id, "lat.v1-2.measure.wire");
        assert_eq!(
            parse_latency_metric(id).unwrap().scheme,
            "v1-2",
            "sanitized label parses back as one segment"
        );
    }

    #[test]
    fn malformed_ids_do_not_parse() {
        assert_eq!(parse_latency_metric("link.wire_bits"), None);
        assert_eq!(parse_latency_metric("lat.a.b"), None);
        assert_eq!(parse_latency_metric("lat.a.b.nope"), None);
        assert_eq!(parse_latency_metric("lat.a.b.h3.nope"), None);
        assert_eq!(parse_latency_metric("lat.a.b.hx.wire"), None);
        assert_eq!(parse_latency_metric("lat.a.b.c.d.total"), None);
        assert_eq!(parse_latency_metric("lat..measure.total"), None);
    }

    #[test]
    fn spans_sum_exactly_and_recorder_samples_every_stage() {
        let spans = StageSpans {
            hier: 1,
            codec: 2,
            queue: 3,
            wire: 4,
            retry: 0,
            dram: 600,
        };
        assert_eq!(spans.total(), 610);

        let tel = Telemetry::enabled();
        let rec = LatencyRecorder::new(&tel, "CABLE+LBE", "measure");
        rec.record(&spans);
        rec.record(&StageSpans::default());
        let snap = tel.snapshot();
        let mut stage_sum = 0;
        for stage in LATENCY_SPAN_STAGES {
            let id = latency_metric_id("CABLE+LBE", "measure", stage);
            let (count, sum) = snap.histogram(id).expect("stage histogram registered");
            assert_eq!(count, 2, "{stage:?}: zero spans are recorded too");
            stage_sum += sum;
        }
        let total_id = latency_metric_id("CABLE+LBE", "measure", LatencyStage::Total);
        assert_eq!(snap.histogram(total_id), Some((2, stage_sum)));
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let tel = Telemetry::disabled();
        let rec = LatencyRecorder::new(&tel, "gzip", "measure");
        rec.record(&StageSpans {
            hier: 9,
            ..StageSpans::default()
        });
        assert!(tel.snapshot().metrics.is_empty());
    }
}
