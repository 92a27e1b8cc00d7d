//! The `cable report` analysis layer.
//!
//! Consumes a JSONL trace (classic or streaming layout — the consumer is
//! order-agnostic; a live handle is read through its own JSONL export)
//! and aggregates it into the per-phase view the paper's evaluation
//! reasons about: link / DRAM / mesh-hop utilization timelines, the
//! encode-kind mix, NACK and retransmission rates, and histogram
//! percentiles (p50/p90/p99/p999) —
//! including the per-stage access-latency tables and the machine-checkable
//! SLO gates ([`SloSpec`]) built on them. Renders as human-readable
//! tables ([`Report::render_text`]) and as a machine-readable JSON
//! artifact ([`Report::to_json`], integer-only so two runs byte-match).
//!
//! Phases come from [`crate::Event::Phase`] boundary events: the timeline
//! between consecutive phase events is one phase; events before the
//! first boundary form a synthetic `(pre)` phase, and a trace with no
//! boundaries gets a single `(all)` phase.

use crate::event::LaneKind;
use crate::hop::parse_hop_metric;
use crate::json::{self, Value};
use crate::latency::{
    parse_latency_metric, LatencyStage, LATENCY_ALL_STAGES, LATENCY_METRIC_PREFIX,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Buckets per phase-utilization timeline.
pub const TIMELINE_BUCKETS: usize = 20;

/// Default entry count for the "hottest / faultiest wires" summaries
/// ([`Report::render_hops`]; override with `cable report --hops --top K`).
pub const DEFAULT_HOP_TOP: usize = 3;

/// The reported percentiles in column order: label and rank in permille.
const PERCENTILES: [(&str, u64); 4] = [("p50", 500), ("p90", 900), ("p99", 990), ("p999", 999)];

/// One reported percentile column (`p50` ... `p999`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Percentile {
    /// The median.
    P50,
    /// The 90th percentile.
    P90,
    /// The 99th percentile.
    P99,
    /// The 99.9th percentile.
    P999,
}

impl Percentile {
    /// Every column, in `PERCENTILES` order.
    const ALL: [Percentile; 4] = [
        Percentile::P50,
        Percentile::P90,
        Percentile::P99,
        Percentile::P999,
    ];

    /// The column label (`p50` ... `p999`).
    fn label(self) -> &'static str {
        PERCENTILES[self as usize].0
    }
}

/// Encode-outcome mix of one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EncodeMix {
    /// RAW transfers.
    pub raw: u64,
    /// UNSEEDED transfers.
    pub unseeded: u64,
    /// DIFF transfers.
    pub diff: u64,
    /// Remote hits (no wire traffic).
    pub remote_hit: u64,
}

impl EncodeMix {
    /// Transfers that crossed the wire (everything but remote hits).
    #[must_use]
    pub fn encodes(&self) -> u64 {
        self.raw + self.unseeded + self.diff
    }
}

/// One occupancy lane (link, DRAM, or mesh) of one phase.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lane {
    /// Busy picoseconds clipped to the phase span.
    pub busy_ps: u64,
    /// Per-bucket occupancy in permille of the bucket span
    /// ([`TIMELINE_BUCKETS`] entries; empty for a zero-width phase).
    /// Values above 1000 mean parallel occupancy (overlapping DRAM
    /// banks, multiple mesh hops).
    pub util_permille: Vec<u64>,
}

/// Aggregates of one phase of the trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseReport {
    /// Phase name (from the boundary event, or `(pre)` / `(all)`).
    pub name: String,
    /// Phase start, picoseconds.
    pub start_ps: u64,
    /// Phase end, picoseconds.
    pub end_ps: u64,
    /// Encode-outcome mix.
    pub encodes: EncodeMix,
    /// Receiver NACKs.
    pub nacks: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Raw fallbacks.
    pub fallback_raw: u64,
    /// Reliable-path escalations.
    pub escalations: u64,
    /// Shared off-chip link occupancy.
    pub link: Lane,
    /// DRAM bank + bus occupancy.
    pub dram: Lane,
    /// Mesh-hop PTP wire occupancy.
    pub mesh: Lane,
}

impl PhaseReport {
    /// NACKs per thousand wire-crossing encodes, rounded to nearest
    /// (integer so the JSON artifact stays byte-deterministic).
    #[must_use]
    pub fn nacks_per_1k_encodes(&self) -> u64 {
        let encodes = self.encodes.encodes();
        (self.nacks * 1000 + encodes / 2)
            .checked_div(encodes)
            .unwrap_or(0)
    }

    fn lane(&self, kind: LaneKind) -> &Lane {
        match kind {
            LaneKind::Link => &self.link,
            LaneKind::Dram => &self.dram,
            LaneKind::Mesh => &self.mesh,
        }
    }
}

/// Percentile summary of one histogram metric.
///
/// Percentiles resolve to the upper edge of the bucket containing the
/// target rank; samples in the overflow bucket saturate to the last
/// edge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramReport {
    /// Metric id.
    pub id: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// 50th percentile (bucket upper edge).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
}

impl HistogramReport {
    /// The percentile columns, in [`PERCENTILES`] order.
    fn percentiles(&self) -> [u64; 4] {
        [self.p50, self.p90, self.p99, self.p999]
    }
}

/// Per-hop (mesh wire) breakdown of one trace: where on the mesh the
/// bits, the queueing, and the faults actually landed. Built from the
/// hop-stamped [`crate::Event::MeshHop`] slices plus the hop-keyed registry
/// metrics (`mesh.hop.{N}.*`), so counts survive even when the event
/// ring dropped slices.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HopReport {
    /// Mesh wire (hop) index — the triangular pair index of the two
    /// chips the wire connects.
    pub hop: u64,
    /// Busy picoseconds clipped to the trace span (from events).
    pub busy_ps: u64,
    /// Busy time in permille of the whole trace span.
    pub busy_permille: u64,
    /// Transfers carried (from the `mesh.hop.{N}.transfers` counter when
    /// present, else the number of hop slices seen).
    pub transfers: u64,
    /// Wire bits carried (`mesh.hop.{N}.bits`), retransmissions
    /// included — faults charge the owning hop.
    pub bits: u64,
    /// Median queue depth on arrival (`mesh.hop.{N}.depth` histogram
    /// when present, else event depths).
    pub depth_p50: u64,
    /// 99th-percentile queue depth on arrival.
    pub depth_p99: u64,
    /// Receiver NACKs charged to this hop (`mesh.hop.{N}.nacks`).
    pub nacks: u64,
    /// Frames the fault injector corrupted on this hop
    /// (`mesh.hop.{N}.faults`).
    pub faults: u64,
    /// Bits retransmitted over this hop (`mesh.hop.{N}.retransmitted_bits`).
    pub retransmitted_bits: u64,
    /// Occupancy heatmap: permille per 1/[`TIMELINE_BUCKETS`] of the
    /// whole trace span (empty for a zero-width span).
    pub util_permille: Vec<u64>,
}

/// The aggregated analysis of one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Earliest timestamp seen (event stamps and busy-interval starts).
    pub span_start_ps: u64,
    /// Latest timestamp seen (event stamps and busy-interval ends).
    pub span_end_ps: u64,
    /// Event lines analyzed.
    pub events: u64,
    /// Events dropped by the tracer before export.
    pub dropped_events: u64,
    /// Malformed trace lines skipped by [`Report::from_jsonl`] (never
    /// more than a permille of the trace — the parser fails outright
    /// above that).
    pub malformed_lines: u64,
    /// Per-phase aggregates, in trace order.
    pub phases: Vec<PhaseReport>,
    /// Per-hop mesh wire breakdown, hop-sorted (empty for meshless
    /// traces).
    pub hops: Vec<HopReport>,
    /// Percentile summaries, one per histogram metric, id-sorted.
    pub histograms: Vec<HistogramReport>,
    /// Counter metrics, id-sorted.
    pub counters: Vec<(String, u64)>,
    /// Gauge metrics, id-sorted.
    pub gauges: Vec<(String, u64)>,
}

impl Report {
    /// Parses and aggregates a JSONL trace (classic or streaming
    /// layout).
    ///
    /// Malformed lines (bad JSON, missing schema fields, unknown types)
    /// are counted into [`Report::malformed_lines`] and skipped, so a
    /// truncated tail or an interleaved foreign line does not discard an
    /// otherwise healthy trace.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending line number when
    /// more than one per thousand non-blank lines are malformed — above
    /// that the trace is treated as corrupt rather than merely frayed.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut trace = Trace::default();
        let mut lines = 0u64;
        let mut malformed = 0u64;
        let mut first_error: Option<String> = None;
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            lines += 1;
            if let Err(e) = json::parse(line).and_then(|val| trace.apply(&val)) {
                malformed += 1;
                if first_error.is_none() {
                    first_error = Some(format!("line {}: {e}", lineno + 1));
                }
            }
        }
        if malformed * 1000 > lines {
            let first = first_error.unwrap_or_default();
            return Err(format!(
                "{first} ({malformed} of {lines} lines malformed, above the 1\u{2030} tolerance)"
            ));
        }
        let mut report = trace.aggregate();
        report.malformed_lines = malformed;
        Ok(report)
    }

    /// Renders the report as human-readable tables.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace span {} .. {} ps  ({} events, {} dropped)",
            self.span_start_ps, self.span_end_ps, self.events, self.dropped_events
        );
        let _ = writeln!(
            out,
            "\n{:12} {:>12} {:>12} {:>8} {:>9} {:>7} {:>8} {:>8}",
            "phase", "start_ps", "end_ps", "raw", "unseeded", "diff", "rem_hit", "nack/1k"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:12} {:>12} {:>12} {:>8} {:>9} {:>7} {:>8} {:>8}",
                p.name,
                p.start_ps,
                p.end_ps,
                p.encodes.raw,
                p.encodes.unseeded,
                p.encodes.diff,
                p.encodes.remote_hit,
                p.nacks_per_1k_encodes()
            );
        }
        let _ = write!(
            out,
            "\n{:12} {:>6} {:>11} {:>8}",
            "phase", "nacks", "retransmits", "fallback"
        );
        for kind in LaneKind::ALL {
            let _ = write!(out, " {:>12}", format!("{}_busy", kind.label()));
        }
        out.push('\n');
        for p in &self.phases {
            let _ = write!(
                out,
                "{:12} {:>6} {:>11} {:>8}",
                p.name, p.nacks, p.retransmits, p.fallback_raw
            );
            for kind in LaneKind::ALL {
                let _ = write!(out, " {:>9} ps", p.lane(kind).busy_ps);
            }
            out.push('\n');
        }
        for p in &self.phases {
            for kind in LaneKind::ALL {
                let lane = p.lane(kind);
                if lane.busy_ps == 0 {
                    continue;
                }
                let _ = writeln!(
                    out,
                    "\n{} / {} utilization (permille per 1/{} of the phase):",
                    p.name,
                    kind.label(),
                    TIMELINE_BUCKETS
                );
                let _ = writeln!(out, "  {}", spark_line(&lane.util_permille));
            }
        }
        out.push_str(&self.render_hops(DEFAULT_HOP_TOP));
        let generic: Vec<&HistogramReport> = self
            .histograms
            .iter()
            .filter(|h| !h.id.starts_with(LATENCY_METRIC_PREFIX))
            .collect();
        if !generic.is_empty() {
            let head = format!("\n{:28} {:>10}", "histogram", "count");
            push_percentile_row(&mut out, head, PERCENTILES.map(|(label, _)| label), 10);
            for h in generic {
                let head = format!("{:28} {:>10}", h.id, h.count);
                push_percentile_row(&mut out, head, h.percentiles(), 10);
            }
        }
        out.push_str(&self.render_latency());
        out
    }

    /// Renders the per-stage access-latency percentile tables, one table
    /// per `(scheme, phase)` the trace recorded latency histograms for.
    /// Stages appear in pipeline order (`LATENCY_ALL_STAGES`);
    /// hop-keyed latency histograms stay out of the text render (they
    /// remain in the JSON artifact and the diff). Empty string when the
    /// trace carries no latency metrics.
    #[must_use]
    pub fn render_latency(&self) -> String {
        let mut groups: BTreeMap<(String, String), BTreeMap<LatencyStage, &HistogramReport>> =
            BTreeMap::new();
        for h in &self.histograms {
            let Some(key) = parse_latency_metric(&h.id) else {
                continue;
            };
            if key.hop.is_some() {
                continue;
            }
            groups
                .entry((key.scheme.to_string(), key.phase.to_string()))
                .or_default()
                .insert(key.stage, h);
        }
        let mut out = String::new();
        for ((scheme, phase), stages) in &groups {
            let _ = writeln!(
                out,
                "\nlatency percentiles (ps) \u{2014} {scheme} / {phase}:"
            );
            let head = format!("  {:8} {:>10}", "stage", "count");
            push_percentile_row(&mut out, head, PERCENTILES.map(|(label, _)| label), 12);
            for stage in LATENCY_ALL_STAGES {
                let Some(h) = stages.get(&stage) else {
                    continue;
                };
                let head = format!("  {:8} {:>10}", stage.as_str(), h.count);
                push_percentile_row(&mut out, head, h.percentiles(), 12);
            }
        }
        out
    }

    /// Renders the per-hop mesh wire table — hop id, busy time, busy
    /// permille of the span, transfers, wire bits, queue-depth p50/p99,
    /// fault counts, and an occupancy heatmap — plus top-`top` "hottest
    /// wires" / "faultiest wires" summaries (`cable report --hops`).
    /// Returns an empty string when the trace carries no mesh hops.
    #[must_use]
    pub fn render_hops(&self, top: usize) -> String {
        use std::cmp::Reverse;
        if self.hops.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "\n{:>4} {:>12} {:>8} {:>10} {:>14} {:>6} {:>6} {:>6} {:>7} {:>13}  heatmap",
            "hop",
            "busy_ps",
            "busy_pm",
            "transfers",
            "bits",
            "d_p50",
            "d_p99",
            "nacks",
            "faults",
            "retrans_bits"
        );
        for h in &self.hops {
            let _ = writeln!(
                out,
                "{:>4} {:>12} {:>8} {:>10} {:>14} {:>6} {:>6} {:>6} {:>7} {:>13}  {}",
                h.hop,
                h.busy_ps,
                h.busy_permille,
                h.transfers,
                h.bits,
                h.depth_p50,
                h.depth_p99,
                h.nacks,
                h.faults,
                h.retransmitted_bits,
                spark_line(&h.util_permille)
            );
        }
        let mut hottest: Vec<&HopReport> = self.hops.iter().collect();
        hottest.sort_by_key(|h| (Reverse(h.busy_permille), Reverse(h.busy_ps), h.hop));
        let line = hottest
            .iter()
            .take(top)
            .map(|h| format!("hop {} ({} permille)", h.hop, h.busy_permille))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "hottest wires:   {line}");
        let mut faultiest: Vec<&HopReport> = self
            .hops
            .iter()
            .filter(|h| h.faults + h.nacks + h.retransmitted_bits > 0)
            .collect();
        faultiest.sort_by_key(|h| (Reverse(h.faults), Reverse(h.nacks), h.hop));
        let line = if faultiest.is_empty() {
            "(none)".to_string()
        } else {
            faultiest
                .iter()
                .take(top)
                .map(|h| format!("hop {} ({} faults, {} nacks)", h.hop, h.faults, h.nacks))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(out, "faultiest wires: {line}");
        out
    }

    /// Serializes the report as a single-line, integer-only JSON object
    /// (the machine-readable artifact `cable report` writes).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"type\":\"cable_report\",\"version\":1");
        let _ = write!(
            out,
            ",\"span_start_ps\":{},\"span_end_ps\":{},\"events\":{},\"dropped_events\":{},\"malformed_lines\":{}",
            self.span_start_ps, self.span_end_ps, self.events, self.dropped_events, self.malformed_lines
        );
        out.push_str(",\"phases\":[");
        push_joined(&mut out, &self.phases, |out, p| {
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"start_ps\":{},\"end_ps\":{}",
                json::escape(&p.name),
                p.start_ps,
                p.end_ps
            );
            let _ = write!(
                out,
                ",\"encodes\":{{\"raw\":{},\"unseeded\":{},\"diff\":{},\"remote_hit\":{}}}",
                p.encodes.raw, p.encodes.unseeded, p.encodes.diff, p.encodes.remote_hit
            );
            let _ = write!(
                out,
                ",\"nacks\":{},\"retransmits\":{},\"fallback_raw\":{},\"escalations\":{},\"nacks_per_1k_encodes\":{}",
                p.nacks,
                p.retransmits,
                p.fallback_raw,
                p.escalations,
                p.nacks_per_1k_encodes()
            );
            for kind in LaneKind::ALL {
                let (label, lane) = (kind.label(), p.lane(kind));
                let _ = write!(
                    out,
                    ",\"{label}_busy_ps\":{},\"{label}_util_permille\":{}",
                    lane.busy_ps,
                    json::int_array(&lane.util_permille)
                );
            }
            out.push('}');
        });
        out.push_str("],\"hops\":[");
        push_joined(&mut out, &self.hops, |out, h| {
            let _ = write!(
                out,
                "{{\"hop\":{},\"busy_ps\":{},\"busy_permille\":{},\"transfers\":{},\"bits\":{},\"depth_p50\":{},\"depth_p99\":{},\"nacks\":{},\"faults\":{},\"retransmitted_bits\":{},\"util_permille\":{}}}",
                h.hop,
                h.busy_ps,
                h.busy_permille,
                h.transfers,
                h.bits,
                h.depth_p50,
                h.depth_p99,
                h.nacks,
                h.faults,
                h.retransmitted_bits,
                json::int_array(&h.util_permille)
            );
        });
        out.push_str("],\"histograms\":[");
        push_joined(&mut out, &self.histograms, |out, h| {
            let _ = write!(
                out,
                "{{\"id\":\"{}\",\"count\":{},\"sum\":{}",
                json::escape(&h.id),
                h.count,
                h.sum
            );
            for ((label, _), value) in PERCENTILES.iter().zip(h.percentiles()) {
                let _ = write!(out, ",\"{label}\":{value}");
            }
            out.push('}');
        });
        out.push(']');
        for (key, pairs) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            let _ = write!(out, ",\"{key}\":{{");
            push_joined(&mut out, pairs, |out, (id, value)| {
                let _ = write!(out, "\"{}\":{value}", json::escape(id));
            });
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Parses a `cable_report` JSON artifact (the output of
    /// [`Report::to_json`]) back into a [`Report`] — the inverse the
    /// `cable report --diff` workflow needs to compare two runs.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or on an object that is not a
    /// `cable_report` artifact.
    pub fn from_report_json(text: &str) -> Result<Self, String> {
        let val = json::parse(text.trim())?;
        if val.get("type").and_then(Value::as_str) != Some("cable_report") {
            return Err("not a cable_report artifact (run `cable report` first)".into());
        }
        let u = |key: &str| val.get(key).and_then(Value::as_u64).unwrap_or(0);
        let mut report = Report {
            span_start_ps: u("span_start_ps"),
            span_end_ps: u("span_end_ps"),
            events: u("events"),
            dropped_events: u("dropped_events"),
            malformed_lines: u("malformed_lines"),
            ..Report::default()
        };
        if let Some(Value::Arr(phases)) = val.get("phases") {
            for p in phases {
                let pu = |key: &str| p.get(key).and_then(Value::as_u64).unwrap_or(0);
                let eu = |key: &str| {
                    p.get("encodes")
                        .and_then(|e| e.get(key))
                        .and_then(Value::as_u64)
                        .unwrap_or(0)
                };
                let lane = |kind: LaneKind| Lane {
                    busy_ps: pu(&format!("{}_busy_ps", kind.label())),
                    util_permille: p
                        .get(&format!("{}_util_permille", kind.label()))
                        .and_then(Value::as_u64_array)
                        .unwrap_or_default(),
                };
                report.phases.push(PhaseReport {
                    name: p
                        .get("name")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    start_ps: pu("start_ps"),
                    end_ps: pu("end_ps"),
                    encodes: EncodeMix {
                        raw: eu("raw"),
                        unseeded: eu("unseeded"),
                        diff: eu("diff"),
                        remote_hit: eu("remote_hit"),
                    },
                    nacks: pu("nacks"),
                    retransmits: pu("retransmits"),
                    fallback_raw: pu("fallback_raw"),
                    escalations: pu("escalations"),
                    link: lane(LaneKind::Link),
                    dram: lane(LaneKind::Dram),
                    mesh: lane(LaneKind::Mesh),
                });
            }
        }
        if let Some(Value::Arr(hops)) = val.get("hops") {
            for h in hops {
                let hu = |key: &str| h.get(key).and_then(Value::as_u64).unwrap_or(0);
                report.hops.push(HopReport {
                    hop: hu("hop"),
                    busy_ps: hu("busy_ps"),
                    busy_permille: hu("busy_permille"),
                    transfers: hu("transfers"),
                    bits: hu("bits"),
                    depth_p50: hu("depth_p50"),
                    depth_p99: hu("depth_p99"),
                    nacks: hu("nacks"),
                    faults: hu("faults"),
                    retransmitted_bits: hu("retransmitted_bits"),
                    util_permille: h
                        .get("util_permille")
                        .and_then(Value::as_u64_array)
                        .unwrap_or_default(),
                });
            }
        }
        if let Some(Value::Arr(hists)) = val.get("histograms") {
            for h in hists {
                let hu = |key: &str| h.get(key).and_then(Value::as_u64).unwrap_or(0);
                let [p50, p90, p99, p999] = PERCENTILES.map(|(label, _)| hu(label));
                report.histograms.push(HistogramReport {
                    id: h
                        .get("id")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_string(),
                    count: hu("count"),
                    sum: hu("sum"),
                    p50,
                    p90,
                    p99,
                    p999,
                });
            }
        }
        for (key, out) in [
            ("counters", &mut report.counters),
            ("gauges", &mut report.gauges),
        ] {
            if let Some(Value::Obj(pairs)) = val.get(key) {
                for (id, v) in pairs {
                    out.push((id.to_string(), v.as_u64().unwrap_or(0)));
                }
            }
        }
        Ok(report)
    }
}

/// Whether a compared row's underlying metric exists in both artifacts
/// or only one of them (a hop, histogram, counter, or gauge id missing
/// from the other side).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RowPresence {
    /// The metric exists in both reports.
    Both,
    /// Only the baseline report carries the metric (`removed`).
    OnlyA,
    /// Only the candidate report carries the metric (`added`).
    OnlyB,
}

/// One compared field of a [`ReportDiff`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffRow {
    /// Field name (`encodes.raw`, `hist.link.payload_bits.p99`, a
    /// counter id, ...).
    pub field: String,
    /// Value in the first (baseline) report.
    pub a: u64,
    /// Value in the second (candidate) report.
    pub b: u64,
    /// Whether the underlying metric exists in both artifacts.
    pub presence: RowPresence,
}

impl DiffRow {
    /// Relative drift `|b - a| / a` in permille. A field that appears
    /// from zero reports [`u64::MAX`] (infinite drift); equal values
    /// report 0.
    #[must_use]
    pub fn delta_permille(&self) -> u64 {
        if self.a == self.b {
            return 0;
        }
        (self.a.abs_diff(self.b))
            .saturating_mul(1000)
            .checked_div(self.a)
            .unwrap_or(u64::MAX)
    }
}

/// Field-by-field comparison of two [`Report`]s (see [`diff_reports`]).
#[derive(Clone, Debug)]
pub struct ReportDiff {
    /// Largest tolerated [`DiffRow::delta_permille`] before a row counts
    /// as a breach.
    pub threshold_permille: u64,
    /// All compared rows where either side is nonzero, in a stable
    /// order: phase totals, per-hop mesh rows, histogram percentiles,
    /// counters, gauges.
    pub rows: Vec<DiffRow>,
}

impl ReportDiff {
    /// Rows whose drift exceeds the threshold.
    #[must_use]
    pub fn breaches(&self) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.delta_permille() > self.threshold_permille)
            .collect()
    }

    /// Renders the delta table; breached rows are flagged with `!`, and
    /// rows whose metric exists in only one artifact read `added` /
    /// `removed` in the delta column.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:34} {:>14} {:>14} {:>9}", "field", "a", "b", "delta");
        for r in &self.rows {
            let delta = r.delta_permille();
            let rendered = match r.presence {
                RowPresence::OnlyA => "removed".to_string(),
                RowPresence::OnlyB => "added".to_string(),
                RowPresence::Both if delta == u64::MAX => "+inf".to_string(),
                RowPresence::Both => format!("{delta}\u{2030}"),
            };
            let _ = writeln!(
                out,
                "{:34} {:>14} {:>14} {:>9}{}",
                r.field,
                r.a,
                r.b,
                rendered,
                if delta > self.threshold_permille {
                    "  !"
                } else {
                    ""
                }
            );
        }
        out
    }
}

/// A compared field: its row name and how to read it.
type Field<T> = (&'static str, fn(&T) -> u64);

/// Pairs two id-keyed lists by id: the union of both sides' ids in id
/// order, each with its first entry on either side.
fn pair_by_id<'r, T, K: Ord + Copy>(
    a: &'r [T],
    b: &'r [T],
    key: impl Fn(&'r T) -> K,
) -> Vec<(K, Option<&'r T>, Option<&'r T>)> {
    let mut ids: Vec<K> = a.iter().chain(b).map(&key).collect();
    ids.sort_unstable();
    ids.dedup();
    let find = |side: &'r [T], id: K| side.iter().find(|&x| key(x) == id);
    ids.into_iter()
        .map(|id| (id, find(a, id), find(b, id)))
        .collect()
}

/// Compares two reports field by field: phase-aggregated encode mix and
/// fault counts, lane busy time, per-histogram count and percentiles,
/// and every counter and gauge (matched by id, union of both sides).
/// Rows where both sides are zero AND the metric exists in both
/// artifacts are elided; one-sided rows always survive so an
/// added/removed metric never disappears from the drift table.
#[must_use]
pub fn diff_reports(a: &Report, b: &Report, threshold_permille: u64) -> ReportDiff {
    let mut rows = Vec::new();
    let mut push = |field: String, va: u64, vb: u64, presence: RowPresence| {
        if va != 0 || vb != 0 || presence != RowPresence::Both {
            rows.push(DiffRow {
                field,
                a: va,
                b: vb,
                presence,
            });
        }
    };
    let presence_of = |in_a: bool, in_b: bool| match (in_a, in_b) {
        (true, false) => RowPresence::OnlyA,
        (false, true) => RowPresence::OnlyB,
        _ => RowPresence::Both,
    };

    // Phase totals: the encode mix and fault counts, then lane busy time.
    let phase_fields: [Field<PhaseReport>; 8] = [
        ("encodes.raw", |p| p.encodes.raw),
        ("encodes.unseeded", |p| p.encodes.unseeded),
        ("encodes.diff", |p| p.encodes.diff),
        ("encodes.remote_hit", |p| p.encodes.remote_hit),
        ("nacks", |p| p.nacks),
        ("retransmits", |p| p.retransmits),
        ("fallback_raw", |p| p.fallback_raw),
        ("escalations", |p| p.escalations),
    ];
    let total = |r: &Report, get: &dyn Fn(&PhaseReport) -> u64| {
        r.phases.iter().map(get).fold(0, u64::saturating_add)
    };
    for (field, get) in phase_fields {
        push(
            field.to_string(),
            total(a, &get),
            total(b, &get),
            RowPresence::Both,
        );
    }
    for kind in LaneKind::ALL {
        let get = |p: &PhaseReport| p.lane(kind).busy_ps;
        let field = format!("{}_busy_ps", kind.label());
        push(field, total(a, &get), total(b, &get), RowPresence::Both);
    }

    // Per-hop mesh drift, union of both sides in hop order.
    let hop_fields: [Field<HopReport>; 5] = [
        ("busy_ps", |h| h.busy_ps),
        ("bits", |h| h.bits),
        ("nacks", |h| h.nacks),
        ("faults", |h| h.faults),
        ("retransmitted_bits", |h| h.retransmitted_bits),
    ];
    for (hop, ha, hb) in pair_by_id(&a.hops, &b.hops, |h| h.hop) {
        let presence = presence_of(ha.is_some(), hb.is_some());
        for (part, get) in hop_fields {
            let (va, vb) = (ha.map_or(0, get), hb.map_or(0, get));
            push(format!("hop.{hop}.{part}"), va, vb, presence);
        }
    }

    // Histograms by id, union of both sides in id order.
    for (id, ha, hb) in pair_by_id(&a.histograms, &b.histograms, |h| h.id.as_str()) {
        let presence = presence_of(ha.is_some(), hb.is_some());
        let count = |h: Option<&HistogramReport>| h.map_or(0, |h| h.count);
        push(format!("hist.{id}.count"), count(ha), count(hb), presence);
        let pcts = |h: Option<&HistogramReport>| h.map_or([0; 4], HistogramReport::percentiles);
        for (((label, _), va), vb) in PERCENTILES.iter().zip(pcts(ha)).zip(pcts(hb)) {
            push(format!("hist.{id}.{label}"), va, vb, presence);
        }
    }

    // Counters and gauges by id, union of both sides in id order.
    for (label, pa, pb) in [
        ("counter", &a.counters, &b.counters),
        ("gauge", &a.gauges, &b.gauges),
    ] {
        for (id, va, vb) in pair_by_id(pa, pb, |(id, _)| id.as_str()) {
            let presence = presence_of(va.is_some(), vb.is_some());
            let value = |v: Option<&(String, u64)>| v.map_or(0, |(_, v)| *v);
            push(format!("{label}.{id}"), value(va), value(vb), presence);
        }
    }

    ReportDiff {
        threshold_permille,
        rows,
    }
}

/// One machine-checkable latency SLO gate: `stage.pXX<=limit_ps`
/// (e.g. `total.p99<=1_200_000_ps`), evaluated against the non-hop
/// latency histograms of a [`Report`] (`cable report --slo ...`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SloSpec {
    /// Latency stage the gate applies to.
    pub stage: LatencyStage,
    /// Percentile column the gate reads.
    pub percentile: Percentile,
    /// Largest tolerated percentile value, picoseconds.
    pub limit_ps: u64,
}

impl SloSpec {
    /// Parses `stage.pXX<=N`: stage is a latency stage name (`total`,
    /// `hier`, `codec`, `queue`, `wire`, `retry`, `dram`), pXX one of
    /// `p50`/`p90`/`p99`/`p999`, and N a picosecond bound that may use
    /// `_` digit separators and an optional `ps` / `_ps` suffix.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed part of the spec.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let (lhs, rhs) = spec
            .split_once("<=")
            .ok_or_else(|| format!("SLO `{spec}` must look like `total.p99<=1_200_000_ps`"))?;
        let (stage_s, pct_s) = lhs
            .trim()
            .split_once('.')
            .ok_or_else(|| format!("SLO field `{lhs}` must be `<stage>.<percentile>`"))?;
        let stage = LatencyStage::parse(stage_s)
            .ok_or_else(|| format!("unknown latency stage `{stage_s}`"))?;
        let percentile = Percentile::ALL
            .into_iter()
            .find(|p| p.label() == pct_s)
            .ok_or_else(|| format!("unknown percentile `{pct_s}` (use p50, p90, p99, or p999)"))?;
        let digits: String = rhs
            .trim()
            .strip_suffix("ps")
            .unwrap_or(rhs.trim())
            .chars()
            .filter(|c| *c != '_')
            .collect();
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(format!("bad SLO bound `{rhs}` (picosecond integer)"));
        }
        let limit_ps = digits
            .parse::<u64>()
            .map_err(|e| format!("bad SLO bound `{rhs}`: {e}"))?;
        Ok(SloSpec {
            stage,
            percentile,
            limit_ps,
        })
    }

    /// Evaluates the gate against every non-hop latency histogram of the
    /// matching stage (one per `(scheme, phase)` the trace recorded) and
    /// returns the offending `(metric id, observed value)` pairs — empty
    /// means the SLO holds.
    ///
    /// # Errors
    ///
    /// When the report carries no latency histogram for the stage: a
    /// gate that can never fire is a misconfiguration, not a pass.
    pub fn check(&self, report: &Report) -> Result<Vec<(String, u64)>, String> {
        let mut matched = 0u64;
        let mut breaches = Vec::new();
        for h in &report.histograms {
            let Some(key) = parse_latency_metric(&h.id) else {
                continue;
            };
            if key.hop.is_some() || key.stage != self.stage {
                continue;
            }
            matched += 1;
            let value = h.percentiles()[self.percentile as usize];
            if value > self.limit_ps {
                breaches.push((h.id.clone(), value));
            }
        }
        if matched == 0 {
            return Err(format!(
                "no latency histograms for stage `{}` in the report (was the run traced with telemetry?)",
                self.stage.as_str()
            ));
        }
        Ok(breaches)
    }
}

impl std::fmt::Display for SloSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}.{}<={}_ps",
            self.stage.as_str(),
            self.percentile.label(),
            self.limit_ps
        )
    }
}

/// Appends `items` separated by commas, each written by `item`.
fn push_joined<T>(out: &mut String, items: &[T], mut item: impl FnMut(&mut String, &T)) {
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
}

/// Appends one line of a percentile table: `head`, then one cell per
/// [`PERCENTILES`] column, right-aligned to `width`.
fn push_percentile_row<T: std::fmt::Display>(
    out: &mut String,
    head: String,
    cells: [T; 4],
    width: usize,
) {
    out.push_str(&head);
    for cell in cells {
        let _ = write!(out, " {cell:>width$}");
    }
    out.push('\n');
}

/// Renders a permille timeline as a compact digit strip (`.` 0, `9`
/// ≥900, `+` above 1000 — parallel occupancy).
fn spark_line(permille: &[u64]) -> String {
    permille
        .iter()
        .map(|&v| {
            if v == 0 {
                '.'
            } else if v > 1000 {
                '+'
            } else {
                char::from_digit((v / 100).min(9) as u32, 10).unwrap_or('?')
            }
        })
        .collect()
}

/// [`TIMELINE_BUCKETS`] equal buckets over one window of simulated time,
/// accumulating the busy picoseconds that fall into each.
#[derive(Clone, Copy)]
struct Timeline {
    /// Bucket `b` spans `[edges[b], edges[b + 1])`.
    edges: [u64; TIMELINE_BUCKETS + 1],
    busy: [u64; TIMELINE_BUCKETS],
}

impl Timeline {
    fn new(start_ps: u64, end_ps: u64) -> Self {
        let width = u128::from(end_ps - start_ps);
        Timeline {
            edges: std::array::from_fn(|b| {
                start_ps + (width * b as u128 / TIMELINE_BUCKETS as u128) as u64
            }),
            busy: [0; TIMELINE_BUCKETS],
        }
    }

    /// Adds the busy interval `[lo, hi)`, clipped to each bucket.
    fn add(&mut self, lo: u64, hi: u64) {
        // Buckets that end at or before `lo` get nothing.
        let first = self.edges[1..].partition_point(|&end| end <= lo);
        for b in first..TIMELINE_BUCKETS {
            if self.edges[b] >= hi {
                break;
            }
            let (b_lo, b_hi) = (lo.max(self.edges[b]), hi.min(self.edges[b + 1]));
            if b_hi > b_lo {
                self.busy[b] = self.busy[b].saturating_add(b_hi - b_lo);
            }
        }
    }

    /// Busy picoseconds in the window, and busy time per bucket in
    /// permille of the bucket width (empty for a zero-width window).
    fn lane(&self) -> Lane {
        let util_permille = if self.edges[0] == self.edges[TIMELINE_BUCKETS] {
            Vec::new()
        } else {
            (0..TIMELINE_BUCKETS)
                .map(|b| {
                    (self.busy[b].saturating_mul(1000))
                        .checked_div(self.edges[b + 1] - self.edges[b])
                        .unwrap_or(0)
                })
                .collect()
        };
        Lane {
            busy_ps: self.busy.iter().copied().fold(0, u64::saturating_add),
            util_permille,
        }
    }
}

/// A busy interval on one lane, as read from the trace.
struct Busy {
    lane: LaneKind,
    /// `(hop, queue depth)` for mesh-hop slices, `None` otherwise.
    hop: Option<(u64, u64)>,
    start_ps: u64,
    end_ps: u64,
}

/// An instant event the phase tables count.
#[derive(Clone, Copy)]
enum Tally {
    Raw,
    Unseeded,
    Diff,
    RemoteHit,
    Nack,
    Retransmit,
    FallbackRaw,
    Escalation,
}

#[derive(Clone, Debug)]
struct HistData {
    id: String,
    edges: Vec<u64>,
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

/// What [`Report::from_jsonl`] keeps of a trace while reading it: the
/// event count and span, the samples aggregation reads (busy intervals,
/// counted instants and phase marks, each with its stamp), and the
/// metric lines.
#[derive(Default)]
struct Trace {
    events: u64,
    /// `(earliest, latest)` over event stamps and busy-interval extents.
    span: Option<(u64, u64)>,
    busy: Vec<Busy>,
    tallies: Vec<(u64, Tally)>,
    marks: Vec<(u64, String)>,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    hists: Vec<HistData>,
    dropped: u64,
}

impl Trace {
    fn widen(&mut self, lo: u64, hi: u64) {
        let (start, end) = self.span.get_or_insert((lo, hi));
        *start = (*start).min(lo);
        *end = (*end).max(hi);
    }

    /// Applies one parsed trace line. Errors are bare messages; the
    /// caller prefixes the line number.
    fn apply(&mut self, val: &Value<'_>) -> Result<(), String> {
        let ty = val
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| "missing \"type\"".to_string())?;
        let u = |key: &str| val.get(key).and_then(Value::as_u64);
        let id = |what: &str| {
            val.get("id")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("{what} without id"))
        };
        match ty {
            "meta" | "summary" => {
                if let Some(d) = u("dropped_events") {
                    self.dropped = d;
                }
            }
            "counter" => self
                .counters
                .push((id("counter")?, u("value").unwrap_or(0))),
            "gauge" => self.gauges.push((id("gauge")?, u("value").unwrap_or(0))),
            "histogram" => {
                let id = id("histogram")?;
                let array = |key: &str| {
                    val.get(key)
                        .and_then(Value::as_u64_array)
                        .ok_or_else(|| format!("histogram without {key}"))
                };
                let edges = array("edges")?;
                let buckets = array("buckets")?;
                self.hists.push(HistData {
                    id,
                    edges,
                    buckets,
                    count: u("count").unwrap_or(0),
                    sum: u("sum").unwrap_or(0),
                });
            }
            "event" => {
                let name = val
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| "event without name".to_string())?;
                let now_ps = u("now_ps").ok_or_else(|| "event without now_ps".to_string())?;
                self.events += 1;
                self.widen(now_ps, now_ps);
                if let Some(lane) = LaneKind::from_event_name(name) {
                    let start_ps = u("start_ps").unwrap_or(now_ps);
                    let end_ps = start_ps.saturating_add(u("dur_ps").unwrap_or(0));
                    self.widen(start_ps, end_ps);
                    // Mesh-hop slices carry the wire id and the queue
                    // depth on arrival as event args.
                    let hop = (lane == LaneKind::Mesh)
                        .then(|| (u("hop").unwrap_or(0), u("depth").unwrap_or(0)));
                    self.busy.push(Busy {
                        lane,
                        hop,
                        start_ps,
                        end_ps,
                    });
                    return Ok(());
                }
                let tally = match name {
                    "encode" => match val.get("kind").and_then(Value::as_str) {
                        Some("raw") => Tally::Raw,
                        Some("unseeded") => Tally::Unseeded,
                        Some("diff") => Tally::Diff,
                        _ => Tally::RemoteHit,
                    },
                    "nack" => Tally::Nack,
                    "retransmit" => Tally::Retransmit,
                    "fallback_raw" => Tally::FallbackRaw,
                    "escalation" => Tally::Escalation,
                    "phase" => {
                        let phase = val.get("phase").and_then(Value::as_str).unwrap_or("");
                        self.marks.push((now_ps, phase.to_string()));
                        return Ok(());
                    }
                    _ => return Ok(()),
                };
                self.tallies.push((now_ps, tally));
            }
            other => return Err(format!("unknown line type `{other}`")),
        }
        Ok(())
    }

    fn aggregate(self) -> Report {
        let Trace {
            events,
            span,
            busy,
            tallies,
            marks,
            mut counters,
            mut gauges,
            hists,
            dropped,
        } = self;
        let (span_start, span_end) = span.unwrap_or((0, 0));
        let mut phases = phase_windows(marks, span_start, span_end);

        // Counted instants land in the phase whose half-open window holds
        // their stamp; stamps at or past the last phase's start (including
        // the very end of the span) land in the last phase.
        let last = phases.len() - 1;
        for (now_ps, tally) in tallies {
            let idx = if now_ps >= phases[last].start_ps {
                last
            } else {
                match phases
                    .iter()
                    .position(|p| now_ps >= p.start_ps && now_ps < p.end_ps)
                {
                    Some(i) => i,
                    None => continue,
                }
            };
            let p = &mut phases[idx];
            match tally {
                Tally::Raw => p.encodes.raw += 1,
                Tally::Unseeded => p.encodes.unseeded += 1,
                Tally::Diff => p.encodes.diff += 1,
                Tally::RemoteHit => p.encodes.remote_hit += 1,
                Tally::Nack => p.nacks += 1,
                Tally::Retransmit => p.retransmits += 1,
                Tally::FallbackRaw => p.fallback_raw += 1,
                Tally::Escalation => p.escalations += 1,
            }
        }

        // One walk over the busy intervals: each is clipped into its lane's
        // timeline (indexed by `LaneKind`) in every phase, and a mesh-hop
        // slice also into its hop's heatmap over the whole span.
        struct HopAcc {
            slices: u64,
            depths: Vec<u64>,
            timeline: Timeline,
        }
        let mut lanes: Vec<[Timeline; 3]> = phases
            .iter()
            .map(|p| [Timeline::new(p.start_ps, p.end_ps); 3])
            .collect();
        let mut hop_accs: BTreeMap<u64, HopAcc> = BTreeMap::new();
        for b in &busy {
            let (lo, hi) = (b.start_ps, b.end_ps);
            for timelines in &mut lanes {
                timelines[b.lane as usize].add(lo, hi);
            }
            if let Some((hop, depth)) = b.hop {
                let acc = hop_accs.entry(hop).or_insert_with(|| HopAcc {
                    slices: 0,
                    depths: Vec::new(),
                    timeline: Timeline::new(span_start, span_end),
                });
                acc.slices += 1;
                acc.depths.push(depth);
                acc.timeline.add(lo, hi);
            }
        }
        for (p, [link, dram, mesh]) in phases.iter_mut().zip(lanes) {
            (p.link, p.dram, p.mesh) = (link.lane(), dram.lane(), mesh.lane());
        }

        // Per-hop mesh breakdown. Busy time, queue depths and the heatmap
        // come from the hop-stamped slices; bits, transfers and fault
        // counts come from the hop-keyed registry counters
        // (`mesh.hop.{N}.*`), which stay exact even when the event ring
        // dropped slices.
        const HOP_COUNTERS: [&str; 5] =
            ["bits", "transfers", "nacks", "faults", "retransmitted_bits"];
        let mut hop_counts: BTreeMap<u64, [u64; 5]> = BTreeMap::new();
        for (id, value) in &counters {
            let Some((hop, suffix)) = parse_hop_metric(id) else {
                continue;
            };
            if let Some(slot) = HOP_COUNTERS.iter().position(|s| *s == suffix) {
                hop_counts.entry(u64::from(hop)).or_default()[slot] += *value;
            }
        }
        let mut hop_ids: Vec<u64> = hop_accs.keys().chain(hop_counts.keys()).copied().collect();
        hop_ids.sort_unstable();
        hop_ids.dedup();
        let span_width = span_end - span_start;
        let mut hops = Vec::new();
        for hop in hop_ids {
            let counts = hop_counts.get(&hop).copied().unwrap_or_default();
            let (util, slices, event_p50, event_p99) = match hop_accs.get_mut(&hop) {
                Some(acc) => {
                    acc.depths.sort_unstable();
                    let rank = |q: u64| {
                        let n = acc.depths.len() as u64;
                        acc.depths[((n * q).div_ceil(100).max(1) - 1) as usize]
                    };
                    (acc.timeline.lane(), acc.slices, rank(50), rank(99))
                }
                None => (Lane::default(), 0, 0, 0),
            };
            if util.busy_ps == 0 && slices == 0 && counts.iter().all(|&c| c == 0) {
                // An armed but idle wire: registered counters exist at zero
                // and no slices were traced. Elide the row.
                continue;
            }
            let depth_id = format!("mesh.hop.{hop}.depth");
            let (depth_p50, depth_p99) = match hists.iter().find(|h| h.id == depth_id) {
                Some(h) => (percentile(h, 500), percentile(h, 990)),
                None => (event_p50, event_p99),
            };
            let [bits, transfers, nacks, faults, retransmitted_bits] = counts;
            hops.push(HopReport {
                hop,
                busy_ps: util.busy_ps,
                busy_permille: (util.busy_ps.saturating_mul(1000))
                    .checked_div(span_width)
                    .unwrap_or(0),
                transfers: if transfers > 0 { transfers } else { slices },
                bits,
                depth_p50,
                depth_p99,
                nacks,
                faults,
                retransmitted_bits,
                util_permille: util.util_permille,
            });
        }

        counters.sort();
        gauges.sort();
        let mut histograms: Vec<HistogramReport> = hists
            .into_iter()
            .map(|h| {
                let [p50, p90, p99, p999] = PERCENTILES.map(|(_, rank)| percentile(&h, rank));
                HistogramReport {
                    p50,
                    p90,
                    p99,
                    p999,
                    id: h.id,
                    count: h.count,
                    sum: h.sum,
                }
            })
            .collect();
        histograms.sort_by(|a, b| a.id.cmp(&b.id));

        Report {
            span_start_ps: span_start,
            span_end_ps: span_end,
            events,
            dropped_events: dropped,
            malformed_lines: 0,
            phases,
            hops,
            histograms,
            counters,
            gauges,
        }
    }
}

/// The phase windows of a trace: `(all)` when it has no phase marks,
/// else a `(pre)` phase before the first mark (when the span starts
/// earlier) and one phase from each mark to the next.
fn phase_windows(
    mut marks: Vec<(u64, String)>,
    span_start: u64,
    span_end: u64,
) -> Vec<PhaseReport> {
    let phase = |name: &str, start_ps: u64, end_ps: u64| PhaseReport {
        name: name.to_string(),
        start_ps,
        end_ps,
        ..PhaseReport::default()
    };
    marks.sort_by_key(|(ps, _)| *ps);
    let Some(&(first, _)) = marks.first() else {
        return vec![phase("(all)", span_start, span_end)];
    };
    let mut phases = Vec::new();
    if span_start < first {
        phases.push(phase("(pre)", span_start, first));
    }
    for (i, (start, name)) in marks.iter().enumerate() {
        let end = marks.get(i + 1).map_or(span_end, |(ps, _)| *ps);
        phases.push(phase(name, *start, end.max(*start)));
    }
    phases
}

/// The smallest bucket upper edge whose cumulative count reaches the
/// `q`-permille rank (500 = median, 990 = p99, 999 = p99.9). Permille
/// granularity is what the p999 column needs; overflow-bucket hits
/// saturate to the last edge, and an empty histogram reports 0.
fn percentile(h: &HistData, q_permille: u64) -> u64 {
    if h.count == 0 || h.edges.is_empty() {
        return 0;
    }
    // At most `count`, so the narrowing is exact.
    let target = (u128::from(h.count) * u128::from(q_permille)).div_ceil(1000) as u64;
    let mut cum = 0u64;
    for (i, &b) in h.buckets.iter().enumerate() {
        cum = cum.saturating_add(b);
        if cum >= target {
            return h
                .edges
                .get(i)
                .copied()
                .unwrap_or(*h.edges.last().expect("non-empty"));
        }
    }
    *h.edges.last().expect("non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::Telemetry;
    use proptest::prelude::*;

    /// Pieces of `stage.pXX<=N_ps` specs, plus a few that break them.
    const SLO_FRAGMENTS: &[&str] = &[
        "total",
        "dram",
        "x",
        ".",
        "p99",
        "p999",
        "p4",
        "<=",
        "<",
        "=",
        "1_200",
        "0",
        "_",
        "ps",
        "_ps",
        " ",
        "18446744073709551616",
        "\u{e9}",
    ];

    /// The report of `tel`'s trace, read back through its JSONL export.
    fn report(tel: &Telemetry) -> Report {
        Report::from_jsonl(&tel.export_jsonl()).expect("trace parses")
    }

    fn sample_tel() -> Telemetry {
        let tel = Telemetry::enabled();
        tel.record(Event::Phase { name: "measure" });
        tel.set_now_ps(1_000);
        tel.record(Event::Encode {
            kind: "diff",
            direction: "fill",
            payload_bits: 100,
            wire_bits: 128,
            refs: 1,
        });
        tel.record_at(
            1_000,
            Event::LinkBusy {
                start_ps: 1_000,
                dur_ps: 500,
            },
        );
        tel.set_now_ps(2_000);
        tel.record(Event::Encode {
            kind: "raw",
            direction: "fill",
            payload_bits: 512,
            wire_bits: 528,
            refs: 0,
        });
        tel.set_now_ps(2_500);
        tel.record(Event::Nack { class: "transient" });
        tel.histogram("lat", &[10, 100]).record(5);
        tel.histogram("lat", &[10, 100]).record(50);
        tel.histogram("lat", &[10, 100]).record(500);
        tel
    }

    /// Length of the string value the linear-parse tests carry. A parse
    /// that rescans the rest of the line for every character needs tens
    /// of seconds for it in a debug build; a linear one, milliseconds.
    const LONG_STRING: usize = 1 << 20;

    #[test]
    fn from_jsonl_is_linear_in_line_length() {
        let pad = "x".repeat(LONG_STRING);
        let line = format!("{{\"type\":\"meta\",\"pad\":\"{pad}\"}}");
        let t = std::time::Instant::now();
        let rep = Report::from_jsonl(&line).expect("one long meta line parses");
        let elapsed = t.elapsed();
        assert!(elapsed.as_secs() < 2, "1 MiB line took {elapsed:?}");
        assert_eq!(rep.malformed_lines, 0);
    }

    #[test]
    fn from_report_json_is_linear_in_string_length() {
        let name = "x".repeat(LONG_STRING);
        let text = format!(
            "{{\"type\":\"cable_report\",\"version\":1,\"phases\":[{{\"name\":\"{name}\"}}]}}"
        );
        let t = std::time::Instant::now();
        let rep = Report::from_report_json(&text).expect("artifact parses");
        let elapsed = t.elapsed();
        assert!(elapsed.as_secs() < 2, "1 MiB phase name took {elapsed:?}");
        assert_eq!(rep.phases[0].name, name);
    }

    #[test]
    fn report_aggregates_the_sample_trace() {
        let r = report(&sample_tel());
        assert_eq!((r.span_start_ps, r.span_end_ps), (0, 2_500));
        assert_eq!(r.events, 5);
        assert_eq!(r.phases.len(), 1);
        let p = &r.phases[0];
        assert_eq!(p.name, "measure");
        assert_eq!((p.encodes.raw, p.encodes.diff), (1, 1));
        assert_eq!(p.nacks, 1);
        assert_eq!(p.nacks_per_1k_encodes(), 500);
        assert_eq!(p.link.busy_ps, 500);
        // [1000, 1500) fully covers buckets 8..12 of the 20-bucket grid.
        let expect: Vec<u64> = (0..TIMELINE_BUCKETS as u64)
            .map(|b| u64::from((8..12).contains(&b)) * 1000)
            .collect();
        assert_eq!(p.link.util_permille, expect);
        assert_eq!(p.dram.busy_ps, 0);
        let h = &r.histograms[0];
        assert_eq!((h.count, h.sum), (3, 555));
        assert_eq!((h.p50, h.p90, h.p99), (100, 100, 100));
    }

    #[test]
    fn report_json_is_valid_and_deterministic() {
        let r = report(&sample_tel());
        let a = r.to_json();
        json::parse(&a).expect("report JSON parses");
        assert!(a.starts_with("{\"type\":\"cable_report\",\"version\":1"));
        assert!(a.contains("\"nacks_per_1k_encodes\":500"));
        assert!(a.contains("\"p99\":100"));
        let b = report(&sample_tel()).to_json();
        assert_eq!(a, b, "same trace must serialize identically");
    }

    #[test]
    fn percentiles_walk_the_cdf() {
        let h = HistData {
            id: "h".into(),
            edges: vec![10, 20, 40],
            buckets: vec![50, 30, 15, 5],
            count: 100,
            sum: 0,
        };
        assert_eq!(percentile(&h, 500), 10);
        assert_eq!(percentile(&h, 900), 40);
        assert_eq!(percentile(&h, 990), 40, "overflow saturates to last edge");
        assert_eq!(percentile(&h, 999), 40);
        assert_eq!(percentile(&h, 800), 20);
        let empty = HistData {
            id: "e".into(),
            edges: vec![1],
            buckets: vec![0, 0],
            count: 0,
            sum: 0,
        };
        assert_eq!(percentile(&empty, 500), 0);
    }

    #[test]
    fn traces_without_phase_markers_get_one_phase() {
        let tel = Telemetry::enabled();
        tel.set_now_ps(10);
        tel.record(Event::FallbackRaw);
        tel.set_now_ps(20);
        tel.record(Event::Escalation);
        let r = report(&tel);
        assert_eq!(r.phases.len(), 1);
        assert_eq!(r.phases[0].name, "(all)");
        assert_eq!(r.phases[0].fallback_raw, 1);
        assert_eq!(r.phases[0].escalations, 1);
    }

    #[test]
    fn events_before_the_first_marker_form_a_pre_phase() {
        let tel = Telemetry::enabled();
        tel.set_now_ps(5);
        tel.record(Event::Nack { class: "transient" });
        tel.set_now_ps(100);
        tel.record(Event::Phase { name: "measure" });
        tel.set_now_ps(200);
        tel.record(Event::Nack { class: "reference" });
        let r = report(&tel);
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].name, "(pre)");
        assert_eq!(r.phases[0].nacks, 1);
        assert_eq!(r.phases[1].name, "measure");
        assert_eq!(r.phases[1].nacks, 1);
    }

    #[test]
    fn busy_intervals_split_at_phase_boundaries() {
        let tel = Telemetry::enabled();
        tel.set_now_ps(100);
        tel.record(Event::Phase { name: "warm" });
        tel.set_now_ps(1_000);
        tel.record(Event::Phase { name: "measure" });
        // Link [50, 550) spans (pre) and warm; DRAM [900, 1200) spans
        // warm and measure; the mesh slice lies inside measure.
        tel.record_at(
            50,
            Event::LinkBusy {
                start_ps: 50,
                dur_ps: 500,
            },
        );
        tel.record_at(
            900,
            Event::DramBusy {
                start_ps: 900,
                dur_ps: 300,
            },
        );
        tel.record_at(
            1_100,
            Event::MeshHop {
                hop: 1,
                depth: 0,
                start_ps: 1_100,
                dur_ps: 900,
            },
        );
        let r = report(&tel);
        assert_eq!((r.span_start_ps, r.span_end_ps), (50, 2_000));
        let names: Vec<&str> = r.phases.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["(pre)", "warm", "measure"]);
        let busy: Vec<[u64; 3]> = r
            .phases
            .iter()
            .map(|p| [p.link.busy_ps, p.dram.busy_ps, p.mesh.busy_ps])
            .collect();
        assert_eq!(busy, [[50, 0, 0], [450, 100, 0], [0, 200, 900]]);
        // Runs of equal permille values, e.g. `[(0, 2), (1000, 18)]`.
        let runs = |parts: &[(u64, usize)]| -> Vec<u64> {
            parts
                .iter()
                .flat_map(|&(v, n)| std::iter::repeat_n(v, n))
                .collect()
        };
        let (pre, warm, measure) = (&r.phases[0], &r.phases[1], &r.phases[2]);
        assert_eq!(pre.link.util_permille, runs(&[(1000, 20)]));
        assert_eq!(warm.link.util_permille, runs(&[(1000, 10), (0, 10)]));
        // Warm buckets are 45 ps wide; [900, 910) covers 10 of bucket 17.
        assert_eq!(
            warm.dram.util_permille,
            runs(&[(0, 17), (222, 1), (1000, 2)])
        );
        assert_eq!(measure.dram.util_permille, runs(&[(1000, 4), (0, 16)]));
        assert_eq!(measure.mesh.util_permille, runs(&[(0, 2), (1000, 18)]));
        assert_eq!(measure.link.util_permille, runs(&[(0, 20)]));
        // The hop heatmap spans the whole trace: 20 buckets of 97.5 ps.
        let h = &r.hops[0];
        assert_eq!((h.hop, h.busy_ps, h.busy_permille), (1, 900, 461));
        assert_eq!(h.util_permille, runs(&[(0, 10), (226, 1), (1000, 9)]));
    }

    #[test]
    fn render_text_mentions_every_phase_and_histogram() {
        let r = report(&sample_tel());
        let text = r.render_text();
        assert!(text.contains("measure"));
        assert!(text.contains("lat"));
        assert!(text.contains("p99"));
        assert!(text.contains("trace span 0 .. 2500 ps"));
    }

    #[test]
    fn report_json_round_trips_through_the_parser() {
        let r = report(&sample_tel());
        let parsed = Report::from_report_json(&r.to_json()).expect("artifact parses");
        assert_eq!(r, parsed, "to_json -> from_report_json must be lossless");
        assert!(Report::from_report_json("{\"type\":\"other\"}")
            .unwrap_err()
            .contains("not a cable_report"));
        assert!(Report::from_report_json("nonsense").is_err());
    }

    #[test]
    fn identical_reports_diff_clean() {
        let r = report(&sample_tel());
        let diff = diff_reports(&r, &r, 0);
        assert!(!diff.rows.is_empty());
        assert!(diff.breaches().is_empty(), "no drift between equal runs");
        assert!(diff.rows.iter().all(|row| row.delta_permille() == 0));
    }

    #[test]
    fn drifted_fields_breach_the_threshold() {
        let a = report(&sample_tel());
        let mut b = a.clone();
        b.phases[0].nacks *= 3; // 2000 permille drift
        b.phases[0].encodes.raw += 1; // raw: 1 -> 2, 1000 permille drift
        let diff = diff_reports(&a, &b, 1500);
        let breached: Vec<&str> = diff.breaches().iter().map(|r| r.field.as_str()).collect();
        assert_eq!(
            breached,
            ["nacks"],
            "only the drift above 1500 permille breaches"
        );
        let text = diff.render_text();
        assert!(text.contains("nacks"));
        assert!(text
            .lines()
            .any(|l| l.contains("nacks") && l.ends_with('!')));
        // A field appearing from zero is infinite drift: always a breach.
        let mut c = a.clone();
        c.phases[0].escalations = 7;
        let diff = diff_reports(&a, &c, u64::MAX - 1);
        assert_eq!(diff.breaches().len(), 1);
        assert!(diff.render_text().contains("+inf"));
    }

    fn mesh_tel() -> Telemetry {
        use crate::hop::{hop_metric_id, HOP_DEPTH_EDGES};
        let tel = Telemetry::enabled();
        tel.record_at(
            0,
            Event::MeshHop {
                hop: 0,
                depth: 0,
                start_ps: 0,
                dur_ps: 400,
            },
        );
        tel.record_at(
            100,
            Event::MeshHop {
                hop: 2,
                depth: 1,
                start_ps: 100,
                dur_ps: 800,
            },
        );
        tel.record_at(
            500,
            Event::MeshHop {
                hop: 2,
                depth: 3,
                start_ps: 500,
                dur_ps: 500,
            },
        );
        tel.counter(hop_metric_id(0, "bits")).add(512);
        tel.counter(hop_metric_id(2, "bits")).add(2048);
        tel.counter(hop_metric_id(2, "transfers")).add(2);
        tel.counter(hop_metric_id(2, "nacks")).add(3);
        tel.counter(hop_metric_id(2, "faults")).add(2);
        tel.counter(hop_metric_id(2, "retransmitted_bits")).add(256);
        tel.histogram(hop_metric_id(2, "depth"), HOP_DEPTH_EDGES)
            .record(1);
        tel.histogram(hop_metric_id(2, "depth"), HOP_DEPTH_EDGES)
            .record(3);
        tel
    }

    #[test]
    fn hop_breakdown_merges_events_and_counters() {
        let r = report(&mesh_tel());
        assert_eq!((r.span_start_ps, r.span_end_ps), (0, 1000));
        assert_eq!(r.hops.len(), 2);
        let h0 = &r.hops[0];
        assert_eq!((h0.hop, h0.busy_ps, h0.busy_permille), (0, 400, 400));
        // No transfers counter for hop 0: falls back to the slice count.
        assert_eq!((h0.transfers, h0.bits), (1, 512));
        // No depth histogram for hop 0: falls back to event depths.
        assert_eq!((h0.depth_p50, h0.depth_p99), (0, 0));
        let h2 = &r.hops[1];
        assert_eq!((h2.hop, h2.busy_ps, h2.busy_permille), (2, 1300, 1300));
        assert_eq!((h2.transfers, h2.bits), (2, 2048));
        assert_eq!((h2.depth_p50, h2.depth_p99), (1, 4));
        assert_eq!((h2.nacks, h2.faults, h2.retransmitted_bits), (3, 2, 256));
        assert_eq!(h2.util_permille.len(), TIMELINE_BUCKETS);
        assert!(h2.util_permille.iter().any(|&v| v > 1000), "depth overlap");
    }

    #[test]
    fn hop_table_renders_and_ranks_wires() {
        let r = report(&mesh_tel());
        let text = r.render_hops(2);
        assert!(text.contains("heatmap"), "{text}");
        assert!(text.contains("hop 2 (1300 permille)"), "{text}");
        assert!(
            text.contains("faultiest wires: hop 2 (2 faults, 3 nacks)"),
            "{text}"
        );
        // The full text report embeds the same table.
        assert!(r.render_text().contains("hottest wires:"));
        // Meshless traces render no hop section.
        assert!(report(&sample_tel()).render_hops(3).is_empty());
    }

    #[test]
    fn hop_reports_round_trip_through_json() {
        let r = report(&mesh_tel());
        json::parse(&r.to_json()).expect("report JSON parses");
        let parsed = Report::from_report_json(&r.to_json()).expect("artifact parses");
        assert_eq!(r, parsed, "hops must survive to_json -> from_report_json");
        assert_eq!(parsed.hops.len(), 2);
    }

    #[test]
    fn diff_reports_include_per_hop_rows() {
        let a = report(&mesh_tel());
        let mut b = a.clone();
        b.hops[1].faults *= 10; // 2 -> 20, 9000 permille drift
        let diff = diff_reports(&a, &b, 1000);
        assert!(diff.rows.iter().any(|r| r.field == "hop.0.busy_ps"));
        let breached: Vec<&str> = diff.breaches().iter().map(|r| r.field.as_str()).collect();
        assert_eq!(breached, ["hop.2.faults"]);
    }

    #[test]
    fn malformed_lines_are_reported_with_numbers() {
        let err = Report::from_jsonl("{\"type\":\"meta\"}\nnot json").unwrap_err();
        assert!(err.starts_with("line 2:"), "{err}");
        assert!(err.contains("1 of 2 lines malformed"), "{err}");
        let err = Report::from_jsonl("{\"no_type\":1}").unwrap_err();
        assert!(err.contains("missing \"type\""), "{err}");
    }

    #[test]
    fn extreme_values_in_a_trace_do_not_overflow() {
        // Stamps, durations and counts near u64::MAX, and more
        // overlapping busy time than a u64 holds, saturate instead of
        // overflowing.
        let max = u64::MAX;
        let mut text = format!(
            "{{\"type\":\"event\",\"name\":\"link_busy\",\"now_ps\":0,\"start_ps\":{max},\"dur_ps\":{max}}}\n\
             {{\"type\":\"histogram\",\"id\":\"h\",\"edges\":[1],\"buckets\":[{max},{max}],\"count\":{max},\"sum\":0}}\n"
        );
        for _ in 0..64 {
            let _ = writeln!(
                text,
                "{{\"type\":\"event\",\"name\":\"mesh_hop\",\"now_ps\":0,\"dur_ps\":{max},\"hop\":1}}"
            );
        }
        let r = Report::from_jsonl(&text).expect("trace parses");
        assert_eq!((r.span_start_ps, r.span_end_ps), (0, max));
        assert_eq!(r.phases[0].mesh.busy_ps, max);
        assert_eq!(r.hops[0].busy_ps, max);
        assert_eq!(r.histograms[0].p999, 1);
        let mut b = r.clone();
        b.phases.push(r.phases[0].clone());
        let diff = diff_reports(&r, &b, 0);
        let mesh = diff.rows.iter().find(|row| row.field == "mesh_busy_ps");
        assert_eq!(mesh.map(|row| row.b), Some(max));
        json::parse(&r.to_json()).expect("report JSON parses");
        assert!(!r.render_text().is_empty());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = Report::from_jsonl(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let err = Report::from_report_json(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let deep_obj = "{\"a\":".repeat(200_000);
        let err = Report::from_report_json(&deep_obj).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    proptest! {
        #[test]
        fn report_readers_return_on_arbitrary_bytes(text in json::tests::arbitrary_text()) {
            let _ = Report::from_jsonl(&text);
            let _ = Report::from_report_json(&text);
        }

        #[test]
        fn report_readers_return_on_json_like_text(text in json::tests::json_like_text()) {
            let _ = Report::from_jsonl(&text);
            let _ = Report::from_report_json(&text);
        }

        #[test]
        fn slo_parse_returns_on_arbitrary_bytes(text in json::tests::arbitrary_text()) {
            let _ = SloSpec::parse(&text);
        }

        /// Near-miss specs built from SLO fragments reach every branch of
        /// the parser, including an out-of-range bound.
        #[test]
        fn slo_parse_returns_on_slo_like_text(
            picks in proptest::collection::vec(0..SLO_FRAGMENTS.len(), 0..12),
        ) {
            let text: String = picks.iter().map(|&i| SLO_FRAGMENTS[i]).collect();
            let _ = SloSpec::parse(&text);
        }
    }

    #[test]
    fn rare_malformed_lines_are_skipped_and_counted() {
        // 1 bad line in 1000 good ones sits inside the 1‰ tolerance: the
        // trace still parses, the drop is counted, and the count survives
        // the artifact round trip.
        let mut text = String::new();
        for i in 0..1000 {
            let _ = writeln!(
                text,
                "{{\"type\":\"counter\",\"id\":\"c{i}\",\"value\":{i}}}"
            );
        }
        text.push_str("garbage line\n");
        let r = Report::from_jsonl(&text).expect("within the permille tolerance");
        assert_eq!(r.malformed_lines, 1);
        assert_eq!(r.counters.len(), 1000);
        let round = Report::from_report_json(&r.to_json()).expect("artifact parses");
        assert_eq!(round.malformed_lines, 1);
        // Two bad lines in 1002 is above the tolerance: hard failure
        // naming the first offender.
        text.push_str("more garbage\n");
        let err = Report::from_jsonl(&text).unwrap_err();
        assert!(err.starts_with("line 1001:"), "{err}");
        assert!(err.contains("2 of 1002 lines malformed"), "{err}");
    }

    #[test]
    fn diff_renders_one_sided_rows_as_added_or_removed() {
        let a = report(&mesh_tel());
        let mut b = a.clone();
        // Candidate drops hop 0 entirely and grows a counter the
        // baseline never registered (at zero, so value elision would
        // have hidden it before presence tracking).
        b.hops.retain(|h| h.hop != 0);
        b.counters.push(("mesh.hop.9.faults".to_string(), 0));
        let diff = diff_reports(&a, &b, 1000);
        let removed = diff
            .rows
            .iter()
            .find(|r| r.field == "hop.0.busy_ps")
            .expect("dropped hop still listed");
        assert_eq!(removed.presence, RowPresence::OnlyA);
        let added = diff
            .rows
            .iter()
            .find(|r| r.field == "counter.mesh.hop.9.faults")
            .expect("zero-valued one-sided counter still listed");
        assert_eq!(added.presence, RowPresence::OnlyB);
        let text = diff.render_text();
        let removed_line = text
            .lines()
            .find(|l| l.starts_with("hop.0.busy_ps"))
            .expect("row rendered");
        assert!(removed_line.contains("removed"), "{removed_line}");
        let added_line = text
            .lines()
            .find(|l| l.contains("mesh.hop.9.faults"))
            .expect("row rendered");
        assert!(added_line.contains("added"), "{added_line}");
    }

    fn latency_tel() -> Telemetry {
        use crate::latency::{LatencyRecorder, StageSpans};
        let tel = Telemetry::enabled();
        let rec = LatencyRecorder::new(&tel, "CABLE+LBE", "measure");
        for i in 0..100u64 {
            rec.record(&StageSpans {
                hier: 300,
                codec: 120,
                queue: 40 * i,
                wire: 500,
                retry: 0,
                dram: if i % 4 == 0 { 30_000 } else { 0 },
            });
        }
        tel
    }

    #[test]
    fn latency_tables_render_per_stage_rows() {
        let r = report(&latency_tel());
        let text = r.render_text();
        assert!(
            text.contains("latency percentiles (ps) \u{2014} CABLE+LBE / measure:"),
            "{text}"
        );
        for stage in LATENCY_ALL_STAGES {
            let line = text
                .lines()
                .find(|l| l.trim_start().starts_with(stage.as_str()))
                .unwrap_or_else(|| panic!("stage {} missing:\n{text}", stage.as_str()));
            assert!(line.contains("100"), "count column present: {line}");
        }
        // Latency ids stay out of the generic histogram table.
        assert!(!text.contains("\nlat.CABLE+LBE"), "{text}");
        // The JSON artifact still carries them, with a p999 column.
        let parsed = Report::from_report_json(&r.to_json()).expect("artifact parses");
        assert_eq!(r, parsed);
        assert!(parsed
            .histograms
            .iter()
            .any(|h| h.id.starts_with("lat.") && h.p999 >= h.p99));
    }

    #[test]
    fn slo_specs_parse_and_gate_percentiles() {
        let spec = SloSpec::parse("total.p99<=1_200_000_ps").expect("parses");
        assert_eq!(spec.stage, LatencyStage::Total);
        assert_eq!(spec.percentile, Percentile::P99);
        assert_eq!(spec.limit_ps, 1_200_000);
        assert_eq!(spec.to_string(), "total.p99<=1200000_ps");
        assert_eq!(SloSpec::parse("queue.p50<=500").unwrap().limit_ps, 500);
        assert!(SloSpec::parse("bogus.p99<=1").is_err());
        assert!(SloSpec::parse("total.p42<=1").is_err());
        assert!(SloSpec::parse("total.p99<=abc").is_err());
        assert!(SloSpec::parse("total.p99").is_err());

        let r = report(&latency_tel());
        let generous = SloSpec::parse("total.p99<=100_000_000_ps").unwrap();
        assert!(generous.check(&r).expect("stage matched").is_empty());
        let tight = SloSpec::parse("total.p99<=1_000_ps").unwrap();
        let breaches = tight.check(&r).expect("stage matched");
        assert_eq!(breaches.len(), 1);
        assert!(breaches[0].0.starts_with("lat.CABLE+LBE.measure.total"));
        assert!(breaches[0].1 > 1_000);
        // A gate over a stage the trace never recorded is an error, not
        // a silent pass.
        let empty = Report::default();
        assert!(SloSpec::parse("total.p99<=1")
            .unwrap()
            .check(&empty)
            .is_err());
    }
}
