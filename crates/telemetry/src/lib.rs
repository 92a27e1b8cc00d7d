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
//! # Deferred handles
//!
//! A handle made by [`Telemetry::deferred`] shares its parent's registry
//! but records each event into a log of its own, with its own clock,
//! instead of into the shared tracer. A simulator that runs a thread's
//! functional work ahead of its timing gives the thread's link such a
//! handle: the link's events wait in the log, stamped with an offset from
//! a time only the timing knows, until [`Telemetry::replay_deferred`]
//! moves them into the parent's tracer at that time. Metric updates are
//! commutative atomics, so they go straight to the shared registry from
//! whichever host thread runs the work.
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
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tracer::Tracer;

/// Shared state behind an enabled [`Telemetry`] handle.
struct Inner {
    registry: Registry,
    tracer: Tracer,
    /// The current simulated time in picoseconds; event stamps read this.
    now_ps: AtomicU64,
}

/// The log behind a deferred handle ([`Telemetry::deferred`]).
struct Deferred {
    /// The handle whose registry takes this one's metrics and whose
    /// tracer takes its replayed events.
    parent: Arc<Inner>,
    /// This handle's clock: the offset the next recorded event carries.
    offset_ps: AtomicU64,
    /// Events ever recorded into the log.
    recorded: AtomicU64,
    /// `(offset_ps, event)`, oldest first.
    log: Mutex<VecDeque<(u64, Event)>>,
}

/// Where an enabled handle records its events.
#[derive(Clone)]
enum Target {
    /// The shared tracer, stamped with the shared clock.
    Shared(Arc<Inner>),
    /// A log of its own, until [`Telemetry::replay_deferred`].
    Deferred(Arc<Deferred>),
}

/// A cloneable telemetry handle: either a no-op (disabled, the default) or
/// a shared registry + tracer, which a deferred handle
/// ([`Telemetry::deferred`]) reaches through a log of its own.
///
/// All methods take `&self`; the handle is `Send + Sync` so it can ride
/// inside links and simulators that cross threads (`cable-bench`'s
/// `parallel_map`). Cloning an enabled handle shares the sink; cloning a
/// disabled handle is free.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Target>,
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
            inner: Some(Target::Shared(Arc::new(Inner {
                registry: Registry::new(),
                tracer: Tracer::new(cfg),
                now_ps: AtomicU64::new(0),
            }))),
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
            inner: Some(Target::Shared(Arc::new(Inner {
                registry: Registry::new(),
                tracer: Tracer::with_sink(cfg, sink),
                now_ps: AtomicU64::new(0),
            }))),
        }
    }

    /// A handle on this handle's registry that records events into a new
    /// log of its own instead of the shared tracer, stamped with a clock
    /// of its own ([`Self::set_now_ps`] on it sets only that clock).
    /// [`Self::replay_deferred`] moves the logged events into the tracer.
    /// Clones of the returned handle share its log. A disabled handle's
    /// deferred handle is disabled.
    #[must_use]
    pub fn deferred(&self) -> Self {
        let Some(parent) = self.core() else {
            return Telemetry::disabled();
        };
        Telemetry {
            inner: Some(Target::Deferred(Arc::new(Deferred {
                parent: Arc::clone(parent),
                offset_ps: AtomicU64::new(0),
                recorded: AtomicU64::new(0),
                log: Mutex::new(VecDeque::new()),
            }))),
        }
    }

    /// Events ever recorded into a deferred handle's log (zero for any
    /// other handle). The difference over a stretch of work counts the
    /// events that work logged.
    #[must_use]
    pub fn deferred_recorded(&self) -> u64 {
        match &self.inner {
            Some(Target::Deferred(d)) => d.recorded.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Makes a deferred handle's log able to hold `events` events without
    /// growing (a no-op on any other handle), so that the thread that
    /// allocates the log need not be the one that records into it.
    pub fn reserve_deferred(&self, events: usize) {
        if let Some(Target::Deferred(d)) = &self.inner {
            let mut log = d.log.lock().expect("deferred log poisoned");
            let len = log.len();
            log.reserve(events.saturating_sub(len));
        }
    }

    /// Moves up to the `n` oldest events of a deferred handle's log into
    /// the parent's tracer, in the order they were recorded, each stamped
    /// `base_ps` plus the offset it was recorded with; the tracer is locked
    /// once for them all. A no-op on any other handle.
    pub fn replay_deferred(&self, n: usize, base_ps: u64) {
        if n == 0 {
            return;
        }
        if let Some(Target::Deferred(d)) = &self.inner {
            let mut log = d.log.lock().expect("deferred log poisoned");
            let n = n.min(log.len());
            if n > 0 {
                let events = log.drain(..n).map(|(offset, e)| (base_ps + offset, e));
                d.parent.tracer.push_all(events);
            }
        }
    }

    /// Whether this handle collects anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The registry and tracer this handle's metrics and reads go to.
    fn core(&self) -> Option<&Arc<Inner>> {
        match &self.inner {
            Some(Target::Shared(inner)) => Some(inner),
            Some(Target::Deferred(d)) => Some(&d.parent),
            None => None,
        }
    }

    /// Resolves (registering on first use) the counter named `id`.
    /// Returns a handle costing one atomic add per update — resolve once
    /// and cache it on hot paths.
    #[must_use]
    pub fn counter(&self, id: &'static str) -> Counter {
        match self.core() {
            Some(inner) => inner.registry.counter(id),
            None => Counter::noop(),
        }
    }

    /// Resolves (registering on first use) the gauge named `id`.
    #[must_use]
    pub fn gauge(&self, id: &'static str) -> Gauge {
        match self.core() {
            Some(inner) => inner.registry.gauge(id),
            None => Gauge::noop(),
        }
    }

    /// Resolves (registering on first use) a fixed-bucket histogram named
    /// `id` with the given upper-inclusive bucket edges (values above the
    /// last edge land in an implicit overflow bucket).
    #[must_use]
    pub fn histogram(&self, id: &'static str, edges: &'static [u64]) -> Histogram {
        match self.core() {
            Some(inner) => inner.registry.histogram(id, edges),
            None => Histogram::noop(),
        }
    }

    /// One-shot counter add without caching the handle (cold paths only).
    pub fn count(&self, id: &'static str, n: u64) {
        if let Some(inner) = self.core() {
            inner.registry.counter(id).add(n);
        }
    }

    /// Sets the simulated clock that stamps subsequently recorded events.
    /// Timing simulators call this as their actors advance; pure link
    /// drivers may leave it at zero (stamps then stay constant, which
    /// still satisfies the monotonicity contract). On a deferred handle it
    /// sets that handle's own clock, the offset its events are logged with.
    pub fn set_now_ps(&self, now_ps: u64) {
        match &self.inner {
            Some(Target::Shared(inner)) => inner.now_ps.store(now_ps, Ordering::Relaxed),
            Some(Target::Deferred(d)) => d.offset_ps.store(now_ps, Ordering::Relaxed),
            None => {}
        }
    }

    /// The current simulated clock (a deferred handle's own clock).
    #[must_use]
    pub fn now_ps(&self) -> u64 {
        match &self.inner {
            Some(Target::Shared(inner)) => inner.now_ps.load(Ordering::Relaxed),
            Some(Target::Deferred(d)) => d.offset_ps.load(Ordering::Relaxed),
            None => 0,
        }
    }

    /// Records `event` stamped with the current simulated clock. Bounded:
    /// once the ring is full the oldest event is dropped (and counted).
    /// A deferred handle logs it with its own clock instead.
    pub fn record(&self, event: Event) {
        self.record_at(self.now_ps(), event);
    }

    /// Records `event` with an explicit timestamp (busy-interval events
    /// whose start precedes the current clock); a deferred handle logs it
    /// with `now_ps` as its offset.
    pub fn record_at(&self, now_ps: u64, event: Event) {
        match &self.inner {
            Some(Target::Shared(inner)) => inner.tracer.push(now_ps, event),
            Some(Target::Deferred(d)) => {
                d.log
                    .lock()
                    .expect("deferred log poisoned")
                    .push_back((now_ps, event));
                d.recorded.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
    }

    /// A deterministic snapshot of every registered metric, sorted by id.
    /// Disabled handles return an empty snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        match self.core() {
            Some(inner) => inner.registry.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// The buffered trace events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        match self.core() {
            Some(inner) => inner.tracer.events(),
            None => Vec::new(),
        }
    }

    /// Events dropped because the ring buffer was full.
    #[must_use]
    pub fn dropped_events(&self) -> u64 {
        match self.core() {
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
        match self.core() {
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
            Some(Target::Shared(inner)) => write!(
                f,
                "Telemetry(enabled, {} events, now {} ps)",
                inner.tracer.len(),
                inner.now_ps.load(Ordering::Relaxed)
            ),
            Some(Target::Deferred(d)) => write!(
                f,
                "Telemetry(deferred, {} logged, now {} ps)",
                d.log.lock().expect("deferred log poisoned").len(),
                d.offset_ps.load(Ordering::Relaxed)
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
    fn deferred_handles_share_the_registry_and_replay_in_order() {
        let tel = Telemetry::enabled();
        let link = tel.deferred();
        let other = tel.deferred();
        link.counter("shared").add(2);
        tel.counter("shared").inc();
        assert_eq!(tel.snapshot().counter("shared"), Some(3));
        link.set_now_ps(5);
        link.record(Event::FallbackRaw);
        other.record(Event::Escalation);
        link.record_at(
            7,
            Event::Marker {
                name: "m",
                value: 1,
            },
        );
        assert_eq!(tel.now_ps(), 0, "the shared clock is untouched");
        assert!(tel.events().is_empty(), "nothing reaches the tracer");
        assert_eq!(
            (link.deferred_recorded(), other.deferred_recorded()),
            (2, 1)
        );
        assert_eq!(tel.deferred_recorded(), 0);
        tel.record_at(1, Event::EvictBufferHit);
        link.replay_deferred(1, 100);
        link.replay_deferred(0, 150);
        link.replay_deferred(usize::MAX, 200);
        link.replay_deferred(usize::MAX, 300);
        let got: Vec<(u64, u64, Event)> = tel
            .events()
            .iter()
            .map(|e| (e.seq, e.now_ps, e.event))
            .collect();
        let marker = Event::Marker {
            name: "m",
            value: 1,
        };
        assert_eq!(
            got,
            vec![
                (0, 1, Event::EvictBufferHit),
                (1, 105, Event::FallbackRaw),
                (2, 207, marker),
            ]
        );
        assert_eq!(link.deferred_recorded(), 2, "a replay does not record");
        assert!(!Telemetry::disabled().deferred().is_enabled());
        assert!(format!("{other:?}").contains("deferred, 1 logged"));
    }

    #[test]
    fn default_is_disabled() {
        assert!(!Telemetry::default().is_enabled());
        let d = format!("{:?}", Telemetry::default());
        assert!(d.contains("disabled"));
    }
}
