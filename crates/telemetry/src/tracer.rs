//! The bounded sim-time event tracer.
//!
//! One fixed-capacity ring buffer per exporter track (see
//! [`crate::event::TRACKS`]): pushes past a track's capacity
//! evict that track's oldest event and count it as dropped, so a long
//! run keeps the *most recent* window of activity per track at a bounded
//! memory cost — a chatty track (encode outcomes) can no longer evict a
//! quiet one (resyncs, markers). Events carry a globally dense sequence
//! number, letting consumers detect the eviction horizon: with a single
//! active track, `events[0].seq == dropped + drained`.
//!
//! In streaming mode the tracer owns an [`EventSink`] and *drains*
//! instead of dropping: when the buffered total crosses the configured
//! threshold (or any ring would evict), every buffered event is written
//! to the sink in sequence order and the rings empty. A run of any
//! length then holds O(ring) memory while the sink sees every event.

use crate::event::{Event, TraceEvent, TRACKS};
use crate::registry::Snapshot;
use crate::sink::EventSink;
use std::collections::VecDeque;
use std::io;
use std::sync::Mutex;

/// Number of per-track rings (one per [`TRACKS`] entry).
pub const NUM_TRACKS: usize = TRACKS.len();

/// Tracer sizing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracerConfig {
    /// Default per-track ring capacity; pushes beyond it evict that
    /// track's oldest event (or trigger a drain in streaming mode).
    pub capacity: usize,
    /// Per-track capacity overrides, indexed by position in
    /// [`TRACKS`]. `None` falls back to `capacity`.
    pub track_capacities: [Option<usize>; NUM_TRACKS],
    /// Streaming mode: drain every buffered event to the sink once the
    /// buffered total reaches this count (bounded flush chunks). `None`
    /// drains only when a ring fills or on an explicit drain.
    pub drain_threshold: Option<usize>,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            capacity: 1 << 16,
            track_capacities: [None; NUM_TRACKS],
            drain_threshold: None,
        }
    }
}

impl TracerConfig {
    /// A config with a uniform per-track `capacity` and no overrides.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        TracerConfig {
            capacity,
            ..TracerConfig::default()
        }
    }

    fn capacity_of(&self, track: usize) -> usize {
        self.track_capacities[track].unwrap_or(self.capacity)
    }
}

struct Shared {
    rings: Vec<VecDeque<TraceEvent>>,
    seq: u64,
    dropped: u64,
    drained: u64,
    buffered: usize,
    sink: Option<Box<dyn EventSink>>,
    sink_error: Option<io::Error>,
}

impl Shared {
    /// Writes every buffered event to the sink in sequence order and
    /// empties the rings. Latches the first I/O error and stops writing
    /// (subsequent events are silently discarded — the stream is already
    /// broken and the error surfaces at `finish`).
    fn drain(&mut self) -> usize {
        let Some(sink) = self.sink.as_mut() else {
            return 0;
        };
        let mut batch: Vec<TraceEvent> = self.rings.iter().flatten().copied().collect();
        batch.sort_unstable_by_key(|te| te.seq);
        for ring in &mut self.rings {
            ring.clear();
        }
        self.buffered = 0;
        self.drained += batch.len() as u64;
        if self.sink_error.is_none() {
            for te in &batch {
                if let Err(e) = sink.write_event(te) {
                    self.sink_error = Some(e);
                    break;
                }
            }
        }
        batch.len()
    }
}

/// A bounded, thread-safe trace buffer with optional streaming drain.
pub struct Tracer {
    cfg: TracerConfig,
    shared: Mutex<Shared>,
}

impl Tracer {
    /// Creates an empty tracer with no sink (ring-only mode).
    ///
    /// # Panics
    ///
    /// Panics if any effective track capacity is zero.
    #[must_use]
    pub fn new(cfg: TracerConfig) -> Self {
        Self::build(cfg, None)
    }

    /// Creates a streaming tracer owning `sink`: instead of dropping on
    /// a full ring, the tracer drains every buffered event to the sink
    /// (also whenever the buffered total reaches
    /// [`TracerConfig::drain_threshold`]).
    ///
    /// # Panics
    ///
    /// Panics if any effective track capacity is zero.
    #[must_use]
    pub fn with_sink(cfg: TracerConfig, sink: Box<dyn EventSink>) -> Self {
        Self::build(cfg, Some(sink))
    }

    fn build(cfg: TracerConfig, sink: Option<Box<dyn EventSink>>) -> Self {
        let rings = (0..NUM_TRACKS)
            .map(|t| {
                let cap = cfg.capacity_of(t);
                assert!(cap > 0, "tracer capacity must be at least 1");
                VecDeque::with_capacity(cap.min(1 << 12))
            })
            .collect();
        Tracer {
            cfg,
            shared: Mutex::new(Shared {
                rings,
                seq: 0,
                dropped: 0,
                drained: 0,
                buffered: 0,
                sink,
                sink_error: None,
            }),
        }
    }

    /// Appends `event` stamped `now_ps`. When the event's track ring is
    /// full: streaming tracers drain everything to the sink; ring-only
    /// tracers evict that track's oldest event and count it as dropped.
    pub fn push(&self, now_ps: u64, event: Event) {
        let track = event.track_index();
        let cap = self.cfg.capacity_of(track);
        let mut s = self.shared.lock().expect("tracer poisoned");
        if s.rings[track].len() == cap {
            if s.sink.is_some() {
                s.drain();
            } else {
                s.rings[track].pop_front();
                s.dropped += 1;
                s.buffered -= 1;
            }
        }
        let seq = s.seq;
        s.seq += 1;
        s.rings[track].push_back(TraceEvent { now_ps, seq, event });
        s.buffered += 1;
        if let Some(threshold) = self.cfg.drain_threshold {
            if s.buffered >= threshold && s.sink.is_some() {
                s.drain();
            }
        }
    }

    /// Buffered (not yet drained) events, merged across tracks in
    /// sequence order — oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let s = self.shared.lock().expect("tracer poisoned");
        let mut out: Vec<TraceEvent> = s.rings.iter().flatten().copied().collect();
        out.sort_unstable_by_key(|te| te.seq);
        out
    }

    /// Events evicted unwritten so far (ring-only mode; streaming
    /// tracers drain instead of dropping).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.shared.lock().expect("tracer poisoned").dropped
    }

    /// Events written to the sink so far.
    #[cfg(test)]
    #[must_use]
    pub fn drained(&self) -> u64 {
        self.shared.lock().expect("tracer poisoned").drained
    }

    /// Total events ever recorded (buffered + drained + dropped).
    #[cfg(test)]
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.shared.lock().expect("tracer poisoned").seq
    }

    /// Forces a drain of every buffered event to the sink; returns how
    /// many were written. No-op (returns 0) without a sink.
    pub fn drain(&self) -> usize {
        self.shared.lock().expect("tracer poisoned").drain()
    }

    /// Drains the remaining events, hands `snapshot` to the sink's
    /// [`EventSink::finish`], and releases the sink. Returns
    /// `(events_total, dropped)` as reported to the sink. Subsequent
    /// pushes fall back to ring-only behavior.
    ///
    /// # Errors
    ///
    /// Surfaces the first I/O error latched during any drain, or the
    /// error from `finish` itself.
    pub fn finish(&self, snapshot: &Snapshot) -> io::Result<(u64, u64)> {
        let mut s = self.shared.lock().expect("tracer poisoned");
        s.drain();
        let (total, dropped) = (s.seq, s.dropped);
        let sink = s.sink.take();
        if let Some(e) = s.sink_error.take() {
            return Err(e);
        }
        if let Some(mut sink) = sink {
            sink.finish(snapshot, total, dropped)?;
        }
        Ok((total, dropped))
    }

    /// Buffered event count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.lock().expect("tracer poisoned").buffered
    }

    /// Whether no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.shared.lock().expect("tracer poisoned");
        write!(
            f,
            "Tracer({} buffered, {} dropped, {} drained{})",
            s.buffered,
            s.dropped,
            s.drained,
            if s.sink.is_some() { ", streaming" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::JsonlSink;
    use crate::sink::SharedBuf;

    #[test]
    fn ring_keeps_the_newest_window() {
        let t = Tracer::new(TracerConfig::with_capacity(3));
        for i in 0..5u64 {
            t.push(
                i * 10,
                Event::Marker {
                    name: "m",
                    value: i,
                },
            );
        }
        let events = t.events();
        assert_eq!(events.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(events[0].seq, 2, "first retained seq equals drop count");
        assert_eq!(events[0].now_ps, 20);
        assert_eq!(events[2].now_ps, 40);
    }

    #[test]
    fn empty_tracer_reports_empty() {
        let t = Tracer::new(TracerConfig::default());
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.drained(), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_capacity_rejected() {
        let _ = Tracer::new(TracerConfig::with_capacity(0));
    }

    #[test]
    fn tracks_drop_independently() {
        // A chatty track must not evict a quiet one: markers survive a
        // flood of fault events.
        let t = Tracer::new(TracerConfig::with_capacity(4));
        t.push(
            0,
            Event::Marker {
                name: "keep",
                value: 7,
            },
        );
        for i in 0..20u64 {
            t.push(i, Event::FallbackRaw);
        }
        assert_eq!(t.dropped(), 16, "only the fault track evicted");
        let events = t.events();
        assert!(
            matches!(events[0].event, Event::Marker { value: 7, .. }),
            "quiet track retained its event: {:?}",
            events[0]
        );
        assert_eq!(events.len(), 5);
    }

    #[test]
    fn per_track_capacity_overrides_apply() {
        let mut cfg = TracerConfig::with_capacity(8);
        let fault = Event::FallbackRaw.track_index();
        cfg.track_capacities[fault] = Some(2);
        let t = Tracer::new(cfg);
        for i in 0..6u64 {
            t.push(i, Event::FallbackRaw);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 4);
    }

    #[test]
    fn events_merge_across_tracks_in_seq_order() {
        let t = Tracer::new(TracerConfig::default());
        t.push(5, Event::FallbackRaw);
        t.push(
            6,
            Event::Marker {
                name: "m",
                value: 0,
            },
        );
        t.push(7, Event::EvictBufferHit);
        let seqs: Vec<u64> = t.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn streaming_drains_instead_of_dropping() {
        let buf = SharedBuf::new();
        let t = Tracer::with_sink(
            TracerConfig::with_capacity(4),
            Box::new(JsonlSink::new(buf.clone())),
        );
        for i in 0..20u64 {
            t.push(i, Event::FallbackRaw);
        }
        assert_eq!(t.dropped(), 0, "streaming mode never drops");
        assert!(t.drained() >= 16, "full rings drained to the sink");
        assert!(t.len() <= 4, "memory stays bounded by the ring");
        assert_eq!(t.recorded(), 20);
        let text = buf.text();
        assert!(text.contains("\"seq\":0"), "first event reached the sink");
    }

    #[test]
    fn drain_threshold_flushes_in_bounded_chunks() {
        let buf = SharedBuf::new();
        let cfg = TracerConfig {
            capacity: 1 << 10,
            drain_threshold: Some(3),
            ..TracerConfig::default()
        };
        let t = Tracer::with_sink(cfg, Box::new(JsonlSink::new(buf.clone())));
        for i in 0..7u64 {
            t.push(i, Event::EvictBufferHit);
        }
        assert_eq!(t.drained(), 6, "two threshold drains of three");
        assert_eq!(t.len(), 1);
        let snap = Snapshot::default();
        let (total, dropped) = t.finish(&snap).expect("finish succeeds");
        assert_eq!((total, dropped), (7, 0));
        assert_eq!(t.drained(), 7);
        let text = buf.text();
        assert_eq!(text.matches("\"type\":\"event\"").count(), 7);
        assert!(text.ends_with("{\"type\":\"summary\",\"events\":7,\"dropped_events\":0}\n"));
    }

    #[test]
    fn drop_accounting_survives_drains() {
        // The eviction-horizon invariant across mixed drains and drops:
        // the first retained event's seq equals dropped + drained.
        let buf = SharedBuf::new();
        let t = Tracer::with_sink(
            TracerConfig::with_capacity(4),
            Box::new(JsonlSink::new(buf.clone())),
        );
        for i in 0..11u64 {
            t.push(i, Event::FallbackRaw);
        }
        let events = t.events();
        assert_eq!(
            events[0].seq,
            t.dropped() + t.drained(),
            "eviction horizon: {} dropped, {} drained",
            t.dropped(),
            t.drained()
        );
        // Explicit drain empties the rings; the next push continues the
        // dense sequence.
        t.drain();
        t.push(99, Event::FallbackRaw);
        assert_eq!(t.events()[0].seq, t.dropped() + t.drained());
        assert_eq!(t.recorded(), 12);
    }
}
