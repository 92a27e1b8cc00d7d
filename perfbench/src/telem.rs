//! `telemetry-mcf`: the `cable trace --stream` + `cable report` user path.
//! The CABLE+LBE group of `starved-mcf` runs through `run_group_telemetry`
//! with a streaming `JsonlSink` writing JSONL into memory; then
//! `Report::from_jsonl` and `to_json` read that JSONL back.

use crate::group;
use crate::passes::{self, PassOut, Passes};
use crate::report::{Digest, Metric};
use cable_compress::EngineKind;
use cable_sim::{run_group_telemetry, Scheme, ThroughputResult};
use cable_telemetry::{HistogramReport, JsonlSink, Report, Telemetry, TracerConfig};
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const SCHEME: Scheme = Scheme::Cable(EngineKind::Lbe);

/// The stage spans of `lat.*`, which sum exactly to `total`.
pub const STAGES: [&str; 6] = ["hier", "codec", "queue", "wire", "retry", "dram"];

/// Streaming ring capacity per track and drain threshold, as `cable trace
/// --stream` sets them: memory stays bounded however long the run.
const TRACK_CAPACITY: usize = 1 << 10;
const DRAIN_THRESHOLD: usize = 2 * TRACK_CAPACITY;

/// Run shape.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub warm: u64,
    /// Instructions per thread of the streamed call: long enough that its
    /// measured phase outweighs the warm-up inside the call.
    pub instructions: u64,
}

pub const FULL: Size = Size {
    warm: 20_000,
    instructions: 30_000,
};

/// The JSONL destination: an in-memory buffer shared with the sink, kept
/// between streams so that later streams write into memory already
/// allocated. Writing to memory rather than a file keeps the host's
/// filesystem and page-cache writeback out of the measurement; the JSONL
/// bytes, and the code that formats them, are the same.
#[derive(Clone, Default)]
pub struct TraceBuf(Arc<Mutex<Vec<u8>>>);

impl Write for TraceBuf {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.lock().extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl TraceBuf {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<u8>> {
        self.0
            .lock()
            .expect("the trace buffer lock is never poisoned")
    }

    /// Takes the streamed JSONL out of the buffer.
    pub fn take_text(&self) -> String {
        String::from_utf8(std::mem::take(&mut *self.lock())).expect("JSONL is UTF-8")
    }

    /// Hands a taken text's allocation back, emptied, for the next stream.
    pub fn recycle(&self, text: String) {
        let mut bytes = text.into_bytes();
        bytes.clear();
        *self.lock() = bytes;
    }
}

pub fn call(size: Size, instructions: u64, tel: &Telemetry) -> ThroughputResult {
    run_group_telemetry(
        group::profile(),
        SCHEME,
        group::THREADS,
        size.warm,
        instructions,
        &group::config(),
        tel,
    )
}

/// One streamed trace: the group result, events written and dropped.
pub struct Streamed {
    pub result: ThroughputResult,
    pub events: u64,
    pub dropped: u64,
}

/// Runs the traced group, streaming its JSONL into `buf` (emptied first).
pub fn stream(size: Size, buf: &TraceBuf) -> Streamed {
    buf.lock().clear();
    let sink =
        JsonlSink::streaming(io::BufWriter::new(buf.clone())).expect("write the trace header");
    let mut tcfg = TracerConfig::with_capacity(TRACK_CAPACITY);
    tcfg.drain_threshold = Some(DRAIN_THRESHOLD);
    let tel = Telemetry::streaming(tcfg, Box::new(sink));
    let result = call(size, size.instructions, &tel);
    let (events, dropped) = tel.finish_stream().expect("finish the trace");
    Streamed {
        result,
        events,
        dropped,
    }
}

/// Parses a streamed trace into a report and renders its JSON.
pub fn report(text: &str) -> (Report, String) {
    let rep = Report::from_jsonl(text).expect("the streamed trace parses");
    let json = rep.to_json();
    (rep, json)
}

/// The `lat.<scheme>.measure.<stage>` histogram of a report.
pub fn lat<'a>(rep: &'a Report, stage: &str) -> &'a HistogramReport {
    let id = format!("lat.{}.measure.{stage}", SCHEME.label());
    rep.histograms
        .iter()
        .find(|h| h.id == id)
        .unwrap_or_else(|| panic!("no {id} histogram"))
}

/// The exact-sum check: every stage has the total's sample count and the
/// stage sums add up to the total sum.
pub fn exact_sum(rep: &Report) -> Result<(), String> {
    let total = lat(rep, "total");
    let mut sum = 0;
    for stage in STAGES {
        let h = lat(rep, stage);
        if h.count != total.count {
            return Err(format!(
                "{stage}: {} samples, total {}",
                h.count, total.count
            ));
        }
        sum += h.sum;
    }
    if sum != total.sum || total.count == 0 {
        return Err(format!("stage spans sum to {sum}, total {}", total.sum));
    }
    Ok(())
}

/// Folds the full `lat.*` table into a digest.
pub fn digest_lat(d: &mut Digest, rep: &Report) {
    for h in rep.histograms.iter().filter(|h| h.id.starts_with("lat.")) {
        d.add_str(&h.id);
        for v in [h.count, h.sum, h.p50, h.p90, h.p99, h.p999] {
            d.add(v);
        }
    }
}

/// What the last pass produced.
pub struct Traced {
    pub streamed: Streamed,
    pub report: Report,
    pub jsonl_bytes: u64,
    pub exact_sum: Result<(), String>,
}

pub struct Outcome {
    pub passes: Passes,
    pub last: Traced,
}

/// Windows per pass: the traced group call, then the report's two steps
/// (`from_jsonl`, `to_json`), each timed on its own so that each is a
/// shorter window.
pub const WINDOWS: usize = 3;

/// Rounds per pass. A round times one zero-instruction call (the set-up
/// sample) and then one streamed call; the pass keeps the fastest of each.
/// Both calls are short next to the report, so rounds give the stream
/// window several samples per pass, each beside a set-up sample.
pub const ROUNDS: usize = 3;

pub fn run(size: Size, budget: Duration) -> Outcome {
    let buf = TraceBuf::default();
    let mut last = None;
    let passes = passes::run(1, WINDOWS, budget, || {
        let (mut setup_s, mut stream_s) = (f64::INFINITY, f64::INFINITY);
        let mut digest = Digest::default();
        let mut streamed = None;
        for _ in 0..ROUNDS {
            // `run_group_telemetry` warms inside the call: a
            // zero-instruction call is a set-up sample.
            let t = Instant::now();
            let _ = call(size, 0, &Telemetry::disabled());
            setup_s = setup_s.min(passes::secs(t));
            let t = Instant::now();
            let s = stream(size, &buf);
            stream_s = stream_s.min(passes::secs(t));
            group::digest_result(&mut digest, &s.result);
            digest.add(s.events);
            digest.add(s.dropped);
            streamed = Some(s);
        }
        let text = buf.take_text();
        let t = Instant::now();
        let report = Report::from_jsonl(&text).expect("the streamed trace parses");
        let parse_s = passes::secs(t);
        let t = Instant::now();
        drop(report.to_json());
        let json_s = passes::secs(t);
        let jsonl_bytes = text.len() as u64;
        buf.recycle(text);
        let exact_sum = exact_sum(&report);
        digest.add(jsonl_bytes);
        digest.add(u64::from(exact_sum.is_ok()));
        digest_lat(&mut digest, &report);
        last = Some(Traced {
            streamed: streamed.expect("a pass makes at least one round"),
            report,
            jsonl_bytes,
            exact_sum,
        });
        PassOut {
            setup_s: vec![setup_s],
            window_s: vec![stream_s, parse_s, json_s],
            digest,
        }
    });
    Outcome {
        passes,
        last: last.expect("at least one pass ran"),
    }
}

/// `instructions_per_s` divides by the whole stream window, the call's own
/// warm-up included: subtracting the set-up floor would add that floor's
/// noise to a shorter time.
pub fn metrics(o: &Outcome) -> Vec<Metric> {
    let (f, o) = (&o.passes.floor, &o.last);
    vec![
        Metric::new(
            "instructions_per_s",
            "instr/s",
            o.streamed.result.group_instructions as f64 / f.host_s_of(0..1),
        ),
        Metric::new("setup_s", "s", f.setup_s()),
        Metric::new("sim_p99_ps", "sim_ps", lat(&o.report, "total").p99 as f64),
        Metric::new(
            "report_mb_per_s",
            "MB/s",
            o.jsonl_bytes as f64 / 1e6 / f.host_s_of(1..WINDOWS),
        ),
    ]
}

/// The trace is complete (nothing dropped, every event parsed) and the
/// latency spans sum exactly.
pub fn check(o: &Outcome) -> Result<(), String> {
    let o = &o.last;
    o.exact_sum.clone()?;
    if o.streamed.dropped > 0 {
        return Err(format!("{} events dropped", o.streamed.dropped));
    }
    if o.report.events != o.streamed.events || o.report.malformed_lines > 0 {
        return Err(format!(
            "report read {} events ({} malformed), stream wrote {}",
            o.report.events, o.report.malformed_lines, o.streamed.events
        ));
    }
    Ok(())
}
