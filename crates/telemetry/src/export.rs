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
//!
//! Neither sink goes through `fmt` per event. Each builds a line in one
//! reused buffer from static text, [`Event::write_args`] and the integer
//! writer in [`json`], then hands the finished line to its writer in one
//! `write_all`.

use crate::event::{Event, TraceEvent, TRACKS};
use crate::registry::{MetricValue, Snapshot};
use crate::sink::EventSink;
use crate::{json, Telemetry};
use std::io::{self, Write};

/// An incremental JSONL writer over any [`io::Write`].
///
/// Line shapes (identical to [`crate::Telemetry::export_jsonl`]):
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
/// carrying the final totals. Consumers ([`crate::Report::from_jsonl`]) are
/// order-agnostic, so both layouts parse identically.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    w: W,
    /// The line being built, reused from line to line; each finished line
    /// goes to `w` in one `write_all`.
    line: Vec<u8>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `w`; nothing is written until the first `write_*` call.
    pub fn new(w: W) -> Self {
        JsonlSink {
            w,
            line: Vec::with_capacity(256),
        }
    }

    /// Creates a streaming sink: writes the `"streaming":true` meta
    /// header immediately.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn streaming(w: W) -> io::Result<Self> {
        let mut sink = JsonlSink::new(w);
        sink.start("{\"type\":\"meta\",\"version\":1,\"streaming\":true");
        sink.end_line()?;
        Ok(sink)
    }

    /// Empties the line buffer and starts a line with `head`.
    fn start(&mut self, head: &str) -> &mut Vec<u8> {
        self.line.clear();
        put(&mut self.line, head);
        &mut self.line
    }

    /// Closes the line's object and hands the line to the writer.
    fn end_line(&mut self) -> io::Result<()> {
        put(&mut self.line, "}\n");
        self.w.write_all(&self.line)
    }

    /// Writes the classic meta line with known totals.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn write_meta(&mut self, events: u64, dropped: u64) -> io::Result<()> {
        self.write_totals(
            "{\"type\":\"meta\",\"version\":1,\"events\":",
            events,
            dropped,
        )
    }

    /// Writes one metric line.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn write_metric(&mut self, metric: &MetricValue) -> io::Result<()> {
        let (kind, id) = match metric {
            MetricValue::Counter { id, .. } => ("counter", id),
            MetricValue::Gauge { id, .. } => ("gauge", id),
            MetricValue::Histogram { id, .. } => ("histogram", id),
        };
        let line = self.start("{\"type\":\"");
        put(line, kind);
        put(line, "\",\"id\":\"");
        put(line, &json::escape(id));
        match metric {
            MetricValue::Counter { value, .. } | MetricValue::Gauge { value, .. } => {
                put(line, "\",\"value\":");
                json::write_u64(line, *value);
            }
            MetricValue::Histogram {
                edges,
                buckets,
                count,
                sum,
                ..
            } => {
                put(line, "\",\"edges\":");
                json::write_int_array(line, edges);
                put(line, ",\"buckets\":");
                json::write_int_array(line, buckets);
                put(line, ",\"count\":");
                json::write_u64(line, *count);
                put(line, ",\"sum\":");
                json::write_u64(line, *sum);
            }
        }
        self.end_line()
    }

    /// Writes the trailing summary line of a streaming trace.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn write_summary(&mut self, events: u64, dropped: u64) -> io::Result<()> {
        self.write_totals("{\"type\":\"summary\",\"events\":", events, dropped)
    }

    /// A meta or summary line: `head`, the event total, the drop total.
    fn write_totals(&mut self, head: &str, events: u64, dropped: u64) -> io::Result<()> {
        let line = self.start(head);
        json::write_u64(line, events);
        put(line, ",\"dropped_events\":");
        json::write_u64(line, dropped);
        self.end_line()
    }

    /// Consumes the sink, returning the underlying writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> EventSink for JsonlSink<W> {
    fn write_event(&mut self, te: &TraceEvent) -> io::Result<()> {
        let line = self.start("{\"type\":\"event\",\"name\":\"");
        put(line, te.event.name());
        put(line, "\",\"track\":\"");
        put(line, te.event.track());
        put(line, "\",\"now_ps\":");
        json::write_u64(line, te.now_ps);
        put(line, ",\"seq\":");
        json::write_u64(line, te.seq);
        push_args(line, &te.event);
        self.end_line()
    }

    fn finish(&mut self, snapshot: &Snapshot, events_total: u64, dropped: u64) -> io::Result<()> {
        for metric in &snapshot.metrics {
            self.write_metric(metric)?;
        }
        self.write_summary(events_total, dropped)?;
        self.w.flush()
    }
}

/// Appends `s` to a line buffer.
fn put(line: &mut Vec<u8>, s: &str) {
    line.extend_from_slice(s.as_bytes());
}

/// Appends `,` and the event's arguments, or nothing for an event without
/// arguments. Both sinks place the arguments after a `seq` member.
fn push_args(line: &mut Vec<u8>, event: &Event) {
    line.push(b',');
    let start = line.len();
    event.write_args(line);
    if line.len() == start {
        line.pop();
    }
}

/// Appends picoseconds as Chrome-trace microseconds (`ps / 1e6`): the
/// whole part, then the six-digit fraction without its trailing zeros.
/// Integer math, so the output is deterministic and exact.
fn write_ps_as_us(line: &mut Vec<u8>, ps: u64) {
    json::write_u64(line, ps / 1_000_000);
    let mut frac = ps % 1_000_000;
    if frac != 0 {
        let mut digits = *b".000000";
        for d in digits[1..].iter_mut().rev() {
            *d = b'0' + (frac % 10) as u8;
            frac /= 10;
        }
        let end = digits
            .iter()
            .rposition(|&d| d != b'0')
            .expect("a nonzero digit")
            + 1;
        line.extend_from_slice(&digits[..end]);
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
    /// The element being built, reused as in [`JsonlSink`].
    line: Vec<u8>,
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wraps `w` and writes the header plus track metadata.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn new(w: W) -> io::Result<Self> {
        let mut sink = ChromeTraceSink {
            w,
            line: Vec::with_capacity(256),
        };
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
        let busy = match te.event {
            Event::LinkBusy { start_ps, dur_ps }
            | Event::DramBusy { start_ps, dur_ps }
            | Event::MeshHop {
                start_ps, dur_ps, ..
            } => Some((start_ps, dur_ps)),
            _ => None,
        };
        let line = &mut self.line;
        line.clear();
        put(
            line,
            if busy.is_some() {
                ",{\"ph\":\"X\",\"pid\":1,\"tid\":"
            } else {
                ",{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":"
            },
        );
        json::write_u64(line, te.event.track_index() as u64 + 1);
        put(line, ",\"name\":\"");
        put(line, te.event.name());
        put(line, "\",\"ts\":");
        match busy {
            Some((start_ps, dur_ps)) => {
                write_ps_as_us(line, start_ps);
                put(line, ",\"dur\":");
                write_ps_as_us(line, dur_ps);
            }
            None => write_ps_as_us(line, te.now_ps),
        }
        put(line, ",\"args\":{\"seq\":");
        json::write_u64(line, te.seq);
        push_args(line, &te.event);
        put(line, "}}");
        self.w.write_all(line)
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

/// Exports the trace as a Chrome `trace_event` JSON object, viewable in
/// `about://tracing` or <https://ui.perfetto.dev>. A thin wrapper over
/// the streaming Chrome-trace sink writing to memory.
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
    use crate::event::tests::every_variant;
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

    fn us(ps: u64) -> String {
        let mut out = Vec::new();
        write_ps_as_us(&mut out, ps);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn ps_to_us_is_exact_integer_math() {
        assert_eq!(us(0), "0");
        assert_eq!(us(1_000_000), "1");
        assert_eq!(us(1_500_000), "1.5");
        assert_eq!(us(1_000_001), "1.000001");
        assert_eq!(us(123), "0.000123");
        assert_eq!(us(u64::MAX), "18446744073709.551615");
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

    /// The `format!` writers the byte writers replaced, kept as their
    /// oracle.
    mod oracle {
        use super::*;

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

        pub fn jsonl_line(te: &TraceEvent) -> String {
            let args = te.event.args_json();
            let sep = if args.is_empty() { "" } else { "," };
            format!(
                "{{\"type\":\"event\",\"name\":\"{}\",\"track\":\"{}\",\"now_ps\":{},\"seq\":{}{sep}{args}}}\n",
                te.event.name(),
                te.event.track(),
                te.now_ps,
                te.seq
            )
        }

        pub fn chrome_line(te: &TraceEvent) -> String {
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
                } => format!(
                    ",{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
                    te.event.name(),
                    ps_to_us(start_ps),
                    ps_to_us(dur_ps)
                ),
                _ => format!(
                    ",{{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{},\"args\":{{{args}}}}}",
                    te.event.name(),
                    ps_to_us(te.now_ps)
                ),
            }
        }

        pub fn metric_line(metric: &MetricValue) -> String {
            match metric {
                MetricValue::Counter { id, value } => format!(
                    "{{\"type\":\"counter\",\"id\":\"{}\",\"value\":{value}}}\n",
                    json::escape(id)
                ),
                MetricValue::Gauge { id, value } => format!(
                    "{{\"type\":\"gauge\",\"id\":\"{}\",\"value\":{value}}}\n",
                    json::escape(id)
                ),
                MetricValue::Histogram {
                    id,
                    edges,
                    buckets,
                    count,
                    sum,
                } => {
                    let ints = |v: &[u64]| {
                        let v: Vec<String> = v.iter().map(u64::to_string).collect();
                        format!("[{}]", v.join(","))
                    };
                    format!(
                        "{{\"type\":\"histogram\",\"id\":\"{}\",\"edges\":{},\"buckets\":{},\"count\":{count},\"sum\":{sum}}}\n",
                        json::escape(id),
                        ints(edges),
                        ints(buckets)
                    )
                }
            }
        }
    }

    /// A field value: the digit-count edges, the type limits, or anything.
    fn field() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            Just(9u64),
            Just(10u64),
            Just(99u64),
            Just(100u64),
            Just(999_999u64),
            Just(1_000_000u64),
            Just(1_000_001u64),
            Just(u64::from(u8::MAX)),
            Just(u64::from(u32::MAX)),
            Just(u64::MAX),
            0u64..1_000_000_000,
            any::<u64>(),
        ]
    }

    const NAMES: [&str; 4] = ["diff", "writeback", "measure", ""];

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn byte_writers_match_the_format_oracle(
            v in (field(), field(), field(), field()),
            now_ps in field(),
            seq in field(),
            pick in (0usize..4, 0usize..4),
        ) {
            let names = [NAMES[pick.0], NAMES[pick.1]];
            let events = every_variant([v.0, v.1, v.2, v.3], names);
            for event in events {
                let te = TraceEvent { now_ps, seq, event };
                let mut args = Vec::new();
                event.write_args(&mut args);
                prop_assert_eq!(String::from_utf8(args).unwrap(), event.args_json());

                let mut jsonl = JsonlSink::new(Vec::new());
                jsonl.write_event(&te).unwrap();
                jsonl.write_event(&te).unwrap();
                let line = oracle::jsonl_line(&te);
                prop_assert_eq!(String::from_utf8(jsonl.into_inner()).unwrap(), line.repeat(2));

                let mut chrome = ChromeTraceSink::new(Vec::new()).unwrap();
                let header = chrome.w.len();
                chrome.write_event(&te).unwrap();
                let text = String::from_utf8(chrome.into_inner()).unwrap();
                prop_assert_eq!(&text[header..], oracle::chrome_line(&te));
            }

            let edges = [v.0, v.1, v.2];
            let metrics = [
                MetricValue::Counter { id: "encode.diff", value: v.0 },
                MetricValue::Gauge { id: "clock", value: v.1 },
                MetricValue::Histogram {
                    id: "lat.cable-lbe.measure.total",
                    edges: edges[..pick.0].to_vec(),
                    buckets: [v.3, v.2, v.1, v.0][..=pick.0].to_vec(),
                    count: seq,
                    sum: now_ps,
                },
            ];
            let mut sink = JsonlSink::new(Vec::new());
            sink.write_meta(v.0, v.1).unwrap();
            for m in &metrics {
                sink.write_metric(m).unwrap();
            }
            sink.write_summary(v.2, v.3).unwrap();
            let mut want = format!(
                "{{\"type\":\"meta\",\"version\":1,\"events\":{},\"dropped_events\":{}}}\n",
                v.0, v.1
            );
            for m in &metrics {
                want.push_str(&oracle::metric_line(m));
            }
            want.push_str(&format!(
                "{{\"type\":\"summary\",\"events\":{},\"dropped_events\":{}}}\n",
                v.2, v.3
            ));
            prop_assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), want);
        }
    }
}
