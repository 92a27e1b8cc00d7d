//! Exporters: JSONL and Chrome `trace_event` JSON, streaming or in-memory.
//!
//! Both formats are hand-rolled (the workspace takes no external crates)
//! and fully deterministic: metrics are id-sorted by the registry, events
//! keep tracer order, and timestamps derive from the simulated clock via
//! integer math — two seeded runs byte-match.
//!
//! The incremental writers ([`JsonlSink`], [`ChromeTraceSink`]) implement
//! [`EventSink`] over any [`io::Write`], so a streaming
//! [`Tracer`](crate::Tracer) can drain a run of any length to disk in
//! bounded memory. The classic String exporters ([`jsonl`],
//! [`chrome_trace`]) are thin wrappers driving the same sinks over an
//! in-memory buffer — byte-identical by construction, kept for tests and
//! small traces.

use crate::event::{Event, TraceEvent, TRACKS};
use crate::registry::{MetricValue, Snapshot};
use crate::sink::EventSink;
use crate::{json, Telemetry};
use std::io::{self, Write};

/// An incremental JSONL writer over any [`io::Write`].
///
/// Line shapes (identical to the classic [`jsonl`] exporter):
///
/// ```text
/// {"type":"meta","version":1,"events":N,"dropped_events":N}
/// {"type":"meta","version":1,"streaming":true}
/// {"type":"counter","id":"...","value":N}
/// {"type":"gauge","id":"...","value":N}
/// {"type":"histogram","id":"...","edges":[..],"buckets":[..],"count":N,"sum":N}
/// {"type":"event","name":"...","track":"...","now_ps":N,"seq":N, ...args}
/// {"type":"summary","events":N,"dropped_events":N}
/// ```
///
/// A streaming trace opens with the `"streaming":true` meta line (event
/// and drop totals are unknown up front), interleaves event lines as the
/// tracer drains, and closes with the metric lines plus a `summary` line
/// carrying the final totals. Consumers ([`crate::report`]) are
/// order-agnostic, so both layouts parse identically.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    w: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `w`; nothing is written until the first `write_*` call.
    pub fn new(w: W) -> Self {
        JsonlSink { w }
    }

    /// Creates a streaming sink: writes the `"streaming":true` meta
    /// header immediately.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn streaming(w: W) -> io::Result<Self> {
        let mut sink = JsonlSink::new(w);
        writeln!(
            sink.w,
            "{{\"type\":\"meta\",\"version\":1,\"streaming\":true}}"
        )?;
        Ok(sink)
    }

    /// Writes the classic meta line with known totals.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn write_meta(&mut self, events: u64, dropped: u64) -> io::Result<()> {
        writeln!(
            self.w,
            "{{\"type\":\"meta\",\"version\":1,\"events\":{events},\"dropped_events\":{dropped}}}"
        )
    }

    /// Writes one metric line.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn write_metric(&mut self, metric: &MetricValue) -> io::Result<()> {
        match metric {
            MetricValue::Counter { id, value } => writeln!(
                self.w,
                "{{\"type\":\"counter\",\"id\":\"{}\",\"value\":{value}}}",
                json::escape(id)
            ),
            MetricValue::Gauge { id, value } => writeln!(
                self.w,
                "{{\"type\":\"gauge\",\"id\":\"{}\",\"value\":{value}}}",
                json::escape(id)
            ),
            MetricValue::Histogram {
                id,
                edges,
                buckets,
                count,
                sum,
            } => writeln!(
                self.w,
                "{{\"type\":\"histogram\",\"id\":\"{}\",\"edges\":{},\"buckets\":{},\"count\":{count},\"sum\":{sum}}}",
                json::escape(id),
                json::int_array(edges),
                json::int_array(buckets)
            ),
        }
    }

    /// Writes the trailing summary line of a streaming trace.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn write_summary(&mut self, events: u64, dropped: u64) -> io::Result<()> {
        writeln!(
            self.w,
            "{{\"type\":\"summary\",\"events\":{events},\"dropped_events\":{dropped}}}"
        )
    }

    /// Consumes the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn write_event(&mut self, te: &TraceEvent) -> io::Result<()> {
        let args = te.event.args_json();
        let sep = if args.is_empty() { "" } else { "," };
        writeln!(
            self.w,
            "{{\"type\":\"event\",\"name\":\"{}\",\"track\":\"{}\",\"now_ps\":{},\"seq\":{}{sep}{args}}}",
            te.event.name(),
            te.event.track(),
            te.now_ps,
            te.seq
        )
    }

    fn finish(&mut self, snapshot: &Snapshot, events_total: u64, dropped: u64) -> io::Result<()> {
        for metric in &snapshot.metrics {
            self.write_metric(metric)?;
        }
        self.write_summary(events_total, dropped)?;
        self.w.flush()
    }
}

/// An incremental Chrome `trace_event` writer over any [`io::Write`].
///
/// The JSON object header and per-track `thread_name` metadata are
/// written at construction; each drained event appends one element to
/// `traceEvents`; [`EventSink::finish`] closes the array and object.
/// Busy intervals ([`Event::LinkBusy`], [`Event::DramBusy`],
/// [`Event::MeshHop`]) become complete (`"ph":"X"`) duration events
/// anchored at their own start time; everything else becomes a
/// thread-scoped instant (`"ph":"i"`).
#[derive(Debug)]
pub struct ChromeTraceSink<W: Write> {
    w: W,
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wraps `w` and writes the header plus track metadata.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn new(w: W) -> io::Result<Self> {
        let mut sink = ChromeTraceSink { w };
        write!(sink.w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        for (tid, track) in TRACKS.iter().enumerate() {
            write!(
                sink.w,
                "{}{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{track}\"}}}}",
                if tid == 0 { "" } else { "," },
                tid + 1
            )?;
        }
        Ok(sink)
    }

    /// Closes the `traceEvents` array and the JSON object, then flushes.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn close(&mut self) -> io::Result<()> {
        write!(self.w, "]}}")?;
        self.w.flush()
    }

    /// Consumes the sink, returning the underlying writer (call
    /// [`Self::close`] first).
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> EventSink for ChromeTraceSink<W> {
    fn write_event(&mut self, te: &TraceEvent) -> io::Result<()> {
        let args = te.event.args_json();
        let args = if args.is_empty() {
            format!("\"seq\":{}", te.seq)
        } else {
            format!("\"seq\":{},{args}", te.seq)
        };
        let tid = te.event.track_index() + 1;
        match te.event {
            Event::LinkBusy { start_ps, dur_ps }
            | Event::DramBusy { start_ps, dur_ps }
            | Event::MeshHop {
                start_ps, dur_ps, ..
            } => {
                write!(
                    self.w,
                    ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                    te.event.name(),
                    ps_to_us(start_ps),
                    ps_to_us(dur_ps)
                )
            }
            _ => {
                write!(
                    self.w,
                    ",{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"args\":{{{args}}}}}",
                    te.event.name(),
                    ps_to_us(te.now_ps)
                )
            }
        }
    }

    fn finish(
        &mut self,
        _snapshot: &Snapshot,
        _events_total: u64,
        _dropped: u64,
    ) -> io::Result<()> {
        self.close()
    }
}

/// Exports `tel` as JSONL: one meta line, one line per metric, then one
/// line per trace event (oldest first). A thin wrapper over
/// [`JsonlSink`] writing to memory — see that type for the line shapes.
#[must_use]
pub fn jsonl(tel: &Telemetry) -> String {
    let events = tel.events();
    let mut sink = JsonlSink::new(Vec::new());
    sink.write_meta(events.len() as u64, tel.dropped_events())
        .expect("in-memory writes cannot fail");
    for metric in &tel.snapshot().metrics {
        sink.write_metric(metric)
            .expect("in-memory writes cannot fail");
    }
    for te in &events {
        sink.write_event(te).expect("in-memory writes cannot fail");
    }
    String::from_utf8(sink.into_inner()).expect("exporter writes UTF-8")
}

/// Formats picoseconds as Chrome-trace microseconds (`ps / 1e6`) using
/// integer math so the output is deterministic and exact.
fn ps_to_us(ps: u64) -> String {
    let whole = ps / 1_000_000;
    let frac = ps % 1_000_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        let digits = format!("{frac:06}");
        format!("{whole}.{}", digits.trim_end_matches('0'))
    }
}

/// Exports the trace as a Chrome `trace_event` JSON object, viewable in
/// `about://tracing` or <https://ui.perfetto.dev>. A thin wrapper over
/// [`ChromeTraceSink`] writing to memory.
#[must_use]
pub fn chrome_trace(tel: &Telemetry) -> String {
    let mut sink = ChromeTraceSink::new(Vec::new()).expect("in-memory writes cannot fail");
    for te in &tel.events() {
        sink.write_event(te).expect("in-memory writes cannot fail");
    }
    sink.close().expect("in-memory writes cannot fail");
    String::from_utf8(sink.into_inner()).expect("exporter writes UTF-8")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn sample() -> Telemetry {
        let tel = Telemetry::enabled();
        tel.counter("encode.diff").add(3);
        tel.gauge("clock").set(42);
        tel.histogram("wire_bits", &[128, 256, 512]).record(130);
        tel.set_now_ps(1_000);
        tel.record(Event::Encode {
            kind: "diff",
            direction: "fill",
            payload_bits: 100,
            wire_bits: 128,
            refs: 1,
        });
        tel.record_at(
            2_500_000,
            Event::LinkBusy {
                start_ps: 2_500_000,
                dur_ps: 500_000,
            },
        );
        tel.set_now_ps(3_000_000);
        tel.record(Event::FallbackRaw);
        tel
    }

    #[test]
    fn jsonl_lines_all_parse() {
        let text = jsonl(&sample());
        json::validate_jsonl(&text).expect("every line parses");
        assert!(text.starts_with("{\"type\":\"meta\""));
        assert!(text.contains("\"type\":\"counter\",\"id\":\"encode.diff\",\"value\":3"));
        assert!(text.contains("\"type\":\"histogram\",\"id\":\"wire_bits\""));
        assert!(text.contains("\"type\":\"event\",\"name\":\"fallback_raw\""));
        assert_eq!(text.lines().count(), 1 + 3 + 3);
    }

    #[test]
    fn chrome_trace_parses_and_maps_phases() {
        let text = chrome_trace(&sample());
        json::parse(&text).expect("chrome trace parses");
        assert!(text.contains("\"displayTimeUnit\":\"ns\""));
        assert!(text.contains("\"ph\":\"X\""), "busy interval is a duration");
        assert!(text.contains("\"ph\":\"i\""), "outcomes are instants");
        assert!(text.contains("\"name\":\"thread_name\""));
        assert!(text.contains("\"ts\":2.5,\"dur\":0.5"));
    }

    #[test]
    fn empty_telemetry_exports_are_valid() {
        let tel = Telemetry::enabled();
        json::validate_jsonl(&jsonl(&tel)).expect("empty jsonl");
        json::parse(&chrome_trace(&tel)).expect("empty chrome trace");
        let off = Telemetry::disabled();
        json::validate_jsonl(&jsonl(&off)).expect("disabled jsonl");
        json::parse(&chrome_trace(&off)).expect("disabled trace");
    }

    #[test]
    fn ps_to_us_is_exact_integer_math() {
        assert_eq!(ps_to_us(0), "0");
        assert_eq!(ps_to_us(1_000_000), "1");
        assert_eq!(ps_to_us(1_500_000), "1.5");
        assert_eq!(ps_to_us(1_000_001), "1.000001");
        assert_eq!(ps_to_us(123), "0.000123");
    }

    #[test]
    fn sink_driven_export_matches_string_export_byte_for_byte() {
        // The String exporters are documented as thin wrappers; prove the
        // contract by hand-driving both sinks in the classic order.
        let tel = sample();
        let events = tel.events();

        let mut sink = JsonlSink::new(Vec::new());
        sink.write_meta(events.len() as u64, tel.dropped_events())
            .unwrap();
        for m in &tel.snapshot().metrics {
            sink.write_metric(m).unwrap();
        }
        for te in &events {
            sink.write_event(te).unwrap();
        }
        assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), jsonl(&tel));

        let mut sink = ChromeTraceSink::new(Vec::new()).unwrap();
        for te in &events {
            sink.write_event(te).unwrap();
        }
        sink.close().unwrap();
        assert_eq!(
            String::from_utf8(sink.into_inner()).unwrap(),
            chrome_trace(&tel)
        );
    }

    #[test]
    fn mesh_hop_renders_as_a_duration_on_its_own_track() {
        let tel = Telemetry::enabled();
        tel.record_at(
            1_000_000,
            Event::MeshHop {
                hop: 3,
                depth: 2,
                start_ps: 1_000_000,
                dur_ps: 250_000,
            },
        );
        let text = chrome_trace(&tel);
        json::parse(&text).expect("chrome trace parses");
        assert!(text.contains("\"name\":\"mesh_hop\""));
        assert!(text.contains("\"ts\":1,\"dur\":0.25"));
        assert!(text.contains("\"hop\":3,\"depth\":2"));
        let mesh_tid = TRACKS.iter().position(|t| *t == "mesh").unwrap() + 1;
        assert!(text.contains(&format!("\"ph\":\"X\",\"pid\":1,\"tid\":{mesh_tid}")));
    }

    #[test]
    fn streaming_jsonl_layout_is_valid_and_carries_totals() {
        let tel = sample();
        let mut sink = JsonlSink::streaming(Vec::new()).unwrap();
        for te in &tel.events() {
            sink.write_event(te).unwrap();
        }
        EventSink::finish(&mut sink, &tel.snapshot(), 3, 0).unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        json::validate_jsonl(&text).expect("streaming jsonl parses");
        assert!(text.starts_with("{\"type\":\"meta\",\"version\":1,\"streaming\":true}"));
        assert!(text.ends_with("{\"type\":\"summary\",\"events\":3,\"dropped_events\":0}\n"));
        assert!(text.contains("\"type\":\"counter\",\"id\":\"encode.diff\",\"value\":3"));
    }
}
