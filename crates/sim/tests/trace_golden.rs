//! Byte goldens of the trace exporters on a real group run.
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
//! Each output is pinned by its byte length and its FNV-1a hash. The
//! exporters and the tracer's drain may change how they work; these bytes
//! may not.

use cable_compress::EngineKind;
use cable_core::FaultConfig;
use cable_sim::throughput::run_group_telemetry;
use cable_sim::{Scheme, SystemConfig};
use cable_telemetry::{chrome_trace, JsonlSink, Telemetry, TracerConfig};
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
    let buf = Buf::default();
    let sink = JsonlSink::streaming(buf.clone()).expect("header");
    let mut cfg = TracerConfig::with_capacity(48);
    cfg.drain_threshold = Some(160);
    let tel = Telemetry::streaming(cfg, Box::new(sink));
    traced_group(&tel);
    let (events, dropped) = tel.finish_stream().expect("finish");
    let bytes = buf.0.lock().unwrap().clone();
    let got = (events, dropped, bytes.len(), fnv1a(&bytes));
    assert_eq!(got, (5_957, 0, 677_832, 15_593_026_346_561_844_424));
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
