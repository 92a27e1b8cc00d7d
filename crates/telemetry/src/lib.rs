//! Unified telemetry for the CABLE stack: metrics, sim-time tracing, export.
//!
//! CABLE's value claims are statistical — compression ratio, search hit
//! depth, NACK/retry rates, link busy time — yet each subsystem used to
//! keep its own ad-hoc counter struct with no way to collect, correlate,
//! or export them. This crate is the shared instrumentation substrate:
//!
//! - a typed metrics registry: [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket [`Histogram`]s keyed by `&'static str` ids. Handles are
//!   resolved once and then cost one atomic op per update, cheap enough
//!   for the allocation-free encode hot path;
//! - a tracer: a bounded ring buffer of structured [`Event`]s stamped
//!   with *simulated* time (`now_ps`), never wallclock, so traces are
//!   deterministic across runs;
//! - exporters: a metrics snapshot + trace as JSONL ([`JsonlSink`]), and
//!   a Chrome `trace_event` JSON viewable in `about://tracing` / Perfetto
//!   ([`chrome_trace`]);
//! - [`Report`] — the `cable report` analysis of a JSONL trace;
//! - [`json`] — the workspace's one JSON parser, which `cable report`,
//!   the CLI's export self-checks and the figure loader all read through.
//!
//! # The `Telemetry` handle
//!
//! Everything hangs off a cloneable [`Telemetry`] handle. The default
//! (disabled) handle holds no allocation and every operation on it is a
//! single branch on `None` — instrumented hot paths stay allocation-free
//! and the simulation outcome is bit-identical with telemetry on or off
//! (property-tested in `cable-sim`). Clones share the same sink, so one
//! handle threaded through a link, its channel, and the timing simulator
//! aggregates into one registry and one trace.
//!
//! # Examples
//!
//! ```
//! use cable_telemetry::{Event, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! let diffs = tel.counter("encode.diff");
//! diffs.add(3);
//! tel.set_now_ps(1_500);
//! tel.record(Event::Marker { name: "warmup.done", value: 0 });
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("encode.diff"), Some(3));
//! assert_eq!(tel.events().len(), 1);
//!
//! // Disabled telemetry accepts the same calls for free.
//! let off = Telemetry::disabled();
//! off.counter("encode.diff").add(1);
//! assert!(off.snapshot().metrics.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod hop;
pub mod json;
mod latency;
mod registry;
mod report;
mod sink;
mod tracer;

pub use event::Event;
pub use export::{chrome_trace, JsonlSink};
pub use hop::{hop_metric_id, HOP_DEPTH_EDGES};
pub use latency::{
    latency_hop_metric_id, parse_latency_metric, LatencyRecorder, LatencyStage, StageSpans,
    LATENCY_EDGES, LATENCY_METRIC_PREFIX, LATENCY_SPAN_STAGES,
};
pub use registry::{Counter, Gauge, Histogram, MetricValue};
pub use report::{diff_reports, HistogramReport, Percentile, Report, SloSpec, DEFAULT_HOP_TOP};
pub use tracer::TracerConfig;

use event::TraceEvent;
use export::jsonl;
use registry::{Registry, Snapshot};
use sink::EventSink;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tracer::Tracer;

/// Shared state behind an enabled [`Telemetry`] handle.
struct Inner {
    registry: Registry,
    tracer: Tracer,
    /// The current simulated time in picoseconds; event stamps read this.
    now_ps: AtomicU64,
}

/// A cloneable telemetry handle: either a no-op (disabled, the default) or
/// a shared registry + tracer.
///
/// All methods take `&self`; the handle is `Send + Sync` so it can ride
/// inside links and simulators that cross threads (`cable-bench`'s
/// `parallel_map`). Cloning an enabled handle shares the sink; cloning a
/// disabled handle is free.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The no-op handle: every operation is a branch on `None`.
    #[must_use]
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with the default trace capacity.
    #[must_use]
    pub fn enabled() -> Self {
        Self::with_config(TracerConfig::default())
    }

    /// An enabled handle with an explicit tracer configuration.
    #[must_use]
    pub fn with_config(cfg: TracerConfig) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::new(),
                tracer: Tracer::new(cfg),
                now_ps: AtomicU64::new(0),
            })),
        }
    }

    /// An enabled handle in streaming mode: the tracer owns `sink` and
    /// drains buffered events into it instead of dropping them. Call
    /// [`Self::finish_stream`] at the end
    /// of the run to flush the tail, write the metrics snapshot, and
    /// surface any I/O error.
    #[must_use]
    pub fn streaming(cfg: TracerConfig, sink: Box<dyn EventSink>) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                registry: Registry::new(),
                tracer: Tracer::with_sink(cfg, sink),
                now_ps: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this handle collects anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Resolves (registering on first use) the counter named `id`.
    /// Returns a handle costing one atomic add per update — resolve once
    /// and cache it on hot paths.
    #[must_use]
    pub fn counter(&self, id: &'static str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(id),
            None => Counter::noop(),
        }
    }

    /// Resolves (registering on first use) the gauge named `id`.
    #[must_use]
    pub fn gauge(&self, id: &'static str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(id),
            None => Gauge::noop(),
        }
    }

    /// Resolves (registering on first use) a fixed-bucket histogram named
    /// `id` with the given upper-inclusive bucket edges (values above the
    /// last edge land in an implicit overflow bucket).
    #[must_use]
    pub fn histogram(&self, id: &'static str, edges: &'static [u64]) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(id, edges),
            None => Histogram::noop(),
        }
    }

    /// One-shot counter add without caching the handle (cold paths only).
    pub fn count(&self, id: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.counter(id).add(n);
        }
    }

    /// Sets the simulated clock that stamps subsequently recorded events.
    /// Timing simulators call this as their actors advance; pure link
    /// drivers may leave it at zero (stamps then stay constant, which
    /// still satisfies the monotonicity contract).
    pub fn set_now_ps(&self, now_ps: u64) {
        if let Some(inner) = &self.inner {
            inner.now_ps.store(now_ps, Ordering::Relaxed);
        }
    }

    /// The current simulated clock.
    #[must_use]
    pub fn now_ps(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.now_ps.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Records `event` stamped with the current simulated clock. Bounded:
    /// once the ring is full the oldest event is dropped (and counted).
    pub fn record(&self, event: Event) {
        if let Some(inner) = &self.inner {
            inner
                .tracer
                .push(inner.now_ps.load(Ordering::Relaxed), event);
        }
    }

    /// Records `event` with an explicit timestamp (busy-interval events
    /// whose start precedes the current clock).
    pub fn record_at(&self, now_ps: u64, event: Event) {
        if let Some(inner) = &self.inner {
            inner.tracer.push(now_ps, event);
        }
    }

    /// A deterministic snapshot of every registered metric, sorted by id.
    /// Disabled handles return an empty snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// The buffered trace events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(inner) => inner.tracer.events(),
            None => Vec::new(),
        }
    }

    /// Events dropped because the ring buffer was full.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.tracer.dropped(),
            None => 0,
        }
    }

    /// Ends a streaming export: drains the remaining events, hands the
    /// sink the final metrics snapshot, and releases it. Returns
    /// `(events_total, dropped)`. A no-op `Ok((0, 0))` on disabled or
    /// non-streaming handles.
    ///
    /// # Errors
    ///
    /// Surfaces the first I/O error encountered by any drain or by the
    /// sink's finish.
    pub fn finish_stream(&self) -> io::Result<(u64, u64)> {
        match &self.inner {
            Some(inner) => inner.tracer.finish(&inner.registry.snapshot()),
            None => Ok((0, 0)),
        }
    }

    /// Exports the metrics snapshot plus trace as JSONL (the classic
    /// layout of [`JsonlSink`]).
    #[must_use]
    pub fn export_jsonl(&self) -> String {
        jsonl(self)
    }

    /// Exports the trace as a Chrome `trace_event` JSON object (see
    /// [`export::chrome_trace`]).
    #[must_use]
    pub fn export_chrome_trace(&self) -> String {
        chrome_trace(self)
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            Some(inner) => write!(
                f,
                "Telemetry(enabled, {} events, now {} ps)",
                inner.tracer.len(),
                inner.now_ps.load(Ordering::Relaxed)
            ),
            None => write!(f, "Telemetry(disabled)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert_and_free() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.counter("x").add(5);
        tel.gauge("g").set(9);
        tel.histogram("h", &[1, 2, 4]).record(3);
        tel.set_now_ps(123);
        tel.record(Event::FallbackRaw);
        assert_eq!(tel.now_ps(), 0);
        assert!(tel.snapshot().metrics.is_empty());
        assert!(tel.events().is_empty());
        assert_eq!(tel.dropped_events(), 0);
    }

    #[test]
    fn clones_share_the_sink() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.counter("shared").add(2);
        tel.counter("shared").inc();
        assert_eq!(tel.snapshot().counter("shared"), Some(3));
        clone.set_now_ps(77);
        tel.record(Event::EvictBufferHit);
        let events = clone.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].now_ps, 77);
    }

    #[test]
    fn events_are_stamped_with_the_sim_clock() {
        let tel = Telemetry::enabled();
        tel.set_now_ps(10);
        tel.record(Event::Marker {
            name: "a",
            value: 1,
        });
        tel.set_now_ps(25);
        tel.record(Event::Marker {
            name: "b",
            value: 2,
        });
        tel.record_at(
            12,
            Event::LinkBusy {
                start_ps: 12,
                dur_ps: 3,
            },
        );
        let seqs: Vec<u64> = tel.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "sequence numbers are dense");
        let stamps: Vec<u64> = tel.events().iter().map(|e| e.now_ps).collect();
        assert_eq!(stamps, vec![10, 25, 12]);
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
        let d = format!("{:?}", Telemetry::default());
        assert!(d.contains("disabled"));
    }
}
