//! Byte goldens of the trace exporters and of `cable report` on real runs.
//!
//! A fixed, seeded `run_group_telemetry` call on the mcf group (CABLE+LBE,
//! fault injection on, so the fault track carries NACK, retransmit and
//! injected-fault events) is traced twice:
//!
//! - streamed through a small-ring [`JsonlSink`] tracer, so the run drains
//!   many times, both on a full ring and on the drain threshold;
//! - ring-only with small rings, so every track evicts, then exported as a
//!   Chrome trace from the retained window.
//!
//! A longer-warmed run of the same group pins where the spills of dirty
//! L2 victims land in the stream, and so do longer-warmed runs of the
//! group under the two baseline links (CPACK; Uncompressed with fault
//! injection configured), streamed and ring-only.
//!
//! A small 4-chip `FabricSim` run with mesh faults pinned to one wire is
//! streamed the same way, so its trace carries hop-stamped slices and
//! per-hop fault counters.
//!
//! Each output is pinned by its byte length and its FNV-1a hash, and so
//! is the `cable report` analysis of each streamed trace: the JSON
//! artifact, the text tables and (for the fabric) the per-hop table. The
//! exporters, the tracer's drain and the report's aggregation may change
//! how they work; these bytes may not.

use cable_compress::EngineKind;
use cable_core::{BaselineKind, FaultConfig};
use cable_sim::throughput::run_group_telemetry;
use cable_sim::{FabricSim, Scheme, SystemConfig};
use cable_telemetry::{chrome_trace, JsonlSink, Report, Telemetry, TracerConfig, DEFAULT_HOP_TOP};
use cable_trace::by_name;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

/// A clonable in-memory writer: the tracer owns the sink, the test keeps
/// a clone to read what it wrote.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl Write for Buf {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(length, FNV-1a)` of a rendered output.
fn pin(text: &str) -> (usize, u64) {
    (text.len(), fnv1a(text.as_bytes()))
}

/// A streaming handle over a small ring that drains often, and the
/// buffer it writes to.
fn streaming_tel() -> (Telemetry, Buf) {
    let buf = Buf::default();
    let sink = JsonlSink::streaming(buf.clone()).expect("header");
    let mut cfg = TracerConfig::with_capacity(48);
    cfg.drain_threshold = Some(160);
    (Telemetry::streaming(cfg, Box::new(sink)), buf)
}

fn traced_group(tel: &Telemetry) {
    let mut cfg = SystemConfig::paper_defaults();
    cfg.fault = Some(FaultConfig::with_rate(0x90_1d, 2e-3));
    let profile = by_name("mcf").expect("workload");
    let r = run_group_telemetry(
        profile,
        Scheme::Cable(EngineKind::Lbe),
        64,
        200,
        400,
        &cfg,
        tel,
    );
    assert!(r.group_instructions > 0);
}

#[test]
fn streamed_jsonl_bytes_are_pinned() {
    let (tel, buf) = streaming_tel();
    traced_group(&tel);
    let (events, dropped) = tel.finish_stream().expect("finish");
    let bytes = buf.0.lock().unwrap().clone();
    let got = (events, dropped, bytes.len(), fnv1a(&bytes));
    assert_eq!(got, (5_957, 0, 677_832, 15_593_026_346_561_844_424));

    // The report over the same trace: the measure phase, link and DRAM
    // lanes, and the NACK / retransmit / fallback columns.
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    let report = Report::from_jsonl(&text).expect("the streamed trace parses");
    let p = &report.phases[0];
    assert!(p.nacks > 0 && p.retransmits > 0 && p.fallback_raw > 0);
    assert!(p.link.busy_ps > 0 && p.dram.busy_ps > 0);
    assert_eq!(pin(&report.to_json()), (2_019, 989_437_987_759_529_217));
    assert_eq!(
        pin(&report.render_text()),
        (1_450, 12_296_654_555_191_919_981)
    );
}

/// The group above after 3,000 warm-up accesses, so its L2s are full and
/// fills displace dirty victims. A victim's spill runs after its fill
/// arrives: its link events (an upgrade's dropped or delayed notices, a
/// read-for-ownership's encodes) follow the fill's DRAM and wire events
/// and stamp at the arrival. The pin was recorded from the fused step
/// before it was split into functional and timing halves.
#[test]
fn streamed_spills_behind_fills_are_pinned() {
    let mut cfg = SystemConfig::paper_defaults();
    cfg.fault = Some(FaultConfig::with_rate(0x90_1d, 2e-3));
    let (tel, buf) = streaming_tel();
    let r = run_group_telemetry(
        by_name("mcf").expect("workload"),
        Scheme::Cable(EngineKind::Lbe),
        64,
        3_000,
        1_500,
        &cfg,
        &tel,
    );
    assert_eq!((r.group_instructions, r.elapsed_ps), (12_411, 46_597_340));
    let (events, dropped) = tel.finish_stream().expect("finish");
    let bytes = buf.0.lock().unwrap().clone();
    assert_eq!(
        (events, dropped, bytes.len(), fnv1a(&bytes)),
        (20_845, 0, 2_362_644, 6_869_402_198_409_188_210)
    );
}

/// The longer-warmed mcf group under `scheme` with `tel` attached.
fn warm_baseline_group(scheme: Scheme, cfg: &SystemConfig, tel: &Telemetry) -> (u64, u64) {
    let r = run_group_telemetry(
        by_name("mcf").expect("workload"),
        scheme,
        64,
        3_000,
        1_500,
        cfg,
        tel,
    );
    (r.group_instructions, r.elapsed_ps)
}

/// `(events, dropped, length, FNV-1a)` of the longer-warmed mcf group
/// under `scheme`, streamed.
fn streamed_baseline_group(scheme: Scheme, cfg: &SystemConfig) -> (u64, u64, usize, u64) {
    let (tel, buf) = streaming_tel();
    warm_baseline_group(scheme, cfg, &tel);
    let (events, dropped) = tel.finish_stream().expect("finish");
    let bytes = buf.0.lock().unwrap().clone();
    (events, dropped, bytes.len(), fnv1a(&bytes))
}

/// `BaselineLink`'s encode events ride the same stream as CABLE's.
#[test]
fn streamed_cpack_group_is_pinned() {
    let cpack = Scheme::Baseline(BaselineKind::Cpack);
    assert_eq!(
        streamed_baseline_group(cpack, &SystemConfig::paper_defaults()),
        (13_959, 0, 1_604_638, 2_355_329_256_937_898_182)
    );
}

/// Fault injection is configured, but a baseline link injects no faults:
/// the fault track stays empty and the rest of the stream is pinned.
#[test]
fn streamed_uncompressed_group_with_faults_is_pinned() {
    let mut cfg = SystemConfig::paper_defaults();
    cfg.fault = Some(FaultConfig::with_rate(0x90_1d, 2e-3));
    assert_eq!(
        streamed_baseline_group(Scheme::Uncompressed, &cfg),
        (14_019, 0, 1_602_628, 3_354_200_216_692_512_120)
    );
}

/// Ring-only, the CPACK group's tracer evicts on every track; the retained
/// window is pinned through the JSONL export.
#[test]
fn ring_only_cpack_jsonl_bytes_are_pinned() {
    let tel = Telemetry::with_config(TracerConfig::with_capacity(96));
    let cpack = Scheme::Baseline(BaselineKind::Cpack);
    let run = warm_baseline_group(cpack, &SystemConfig::paper_defaults(), &tel);
    let text = tel.export_jsonl();
    let got = (
        run,
        tel.events().len(),
        tel.dropped_events(),
        text.len(),
        fnv1a(text.as_bytes()),
    );
    assert_eq!(
        got,
        (
            (12_371, 39_721_126),
            385,
            13_574,
            60_406,
            17_946_891_037_758_023_895
        )
    );
}

#[test]
fn streamed_fabric_report_is_pinned() {
    let cfg = SystemConfig {
        mesh_fault: Some(FaultConfig::with_rate(0x3e5, 1e-2)),
        mesh_fault_hop: Some(2),
        ..SystemConfig::paper_defaults()
    };
    let profile = by_name("mcf").expect("workload");
    let mut fabric =
        FabricSim::with_config(profile, Scheme::Cable(EngineKind::Lbe), 4, 2.4e9, &cfg);
    let (tel, buf) = streaming_tel();
    fabric.set_telemetry(tel.clone());
    fabric.run(1_500);
    let (events, dropped) = tel.finish_stream().expect("finish");
    let bytes = buf.0.lock().unwrap().clone();
    assert_eq!(
        (events, dropped, bytes.len(), fnv1a(&bytes)),
        (13_422, 0, 1_577_054, 1_136_875_991_491_167_563)
    );

    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    let report = Report::from_jsonl(&text).expect("the streamed trace parses");
    assert!(report.hops.iter().any(|h| h.faults > 0));
    assert_eq!(pin(&report.to_json()), (6_085, 12_271_417_362_769_592_110));
    assert_eq!(
        pin(&report.render_hops(DEFAULT_HOP_TOP)),
        (943, 14_981_066_646_060_703_850)
    );
}

#[test]
fn ring_only_chrome_trace_bytes_are_pinned() {
    let tel = Telemetry::with_config(TracerConfig::with_capacity(96));
    traced_group(&tel);
    let text = chrome_trace(&tel);
    let got = (
        tel.events().len(),
        tel.dropped_events(),
        text.len(),
        fnv1a(text.as_bytes()),
    );
    assert_eq!(got, (481, 5_476, 59_772, 9_331_949_702_574_508_727));
}
