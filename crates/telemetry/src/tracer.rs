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
//! to the sink in sequence order and the rings empty. Each ring is in
//! sequence order already, so both the drain and [`Tracer::events`] merge
//! the ring fronts instead of collecting and sorting. A run of any
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
    /// `TRACKS`. `None` falls back to `capacity`.
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
    /// Appends `event` stamped `now_ps` (see [`Tracer::push`]).
    fn push(&mut self, cfg: &TracerConfig, now_ps: u64, event: Event) {
        let track = event.track_index();
        if self.rings[track].len() == cfg.capacity_of(track) {
            if self.sink.is_some() {
                self.drain();
            } else {
                self.rings[track].pop_front();
                self.dropped += 1;
                self.buffered -= 1;
            }
        }
        let seq = self.seq;
        self.seq += 1;
        self.rings[track].push_back(TraceEvent { now_ps, seq, event });
        self.buffered += 1;
        if let Some(threshold) = cfg.drain_threshold {
            if self.buffered >= threshold && self.sink.is_some() {
                self.drain();
            }
        }
    }

    /// Writes every buffered event to the sink in sequence order and
    /// empties the rings. Latches the first I/O error and stops writing
    /// (subsequent events are silently discarded — the stream is already
    /// broken and the error surfaces at `finish`).
    fn drain(&mut self) -> usize {
        let Some(sink) = self.sink.as_mut() else {
            return 0;
        };
        if self.sink_error.is_none() {
            for te in merged(&self.rings) {
                if let Err(e) = sink.write_event(te) {
                    self.sink_error = Some(e);
                    break;
                }
            }
        }
        for ring in &mut self.rings {
            ring.clear();
        }
        let n = std::mem::take(&mut self.buffered);
        self.drained += n as u64;
        n
    }
}

/// The events of every ring, oldest first. Each ring is already in `seq`
/// order, so this merges the ring fronts rather than sorting.
fn merged(rings: &[VecDeque<TraceEvent>]) -> Merge<'_> {
    Merge {
        rings,
        next: [0; NUM_TRACKS],
        heads: std::array::from_fn(|t| head_seq(&rings[t], 0)),
        left: rings.iter().map(VecDeque::len).sum(),
    }
}

/// The `seq` of `ring[i]`, or `u64::MAX` past the ring's end.
fn head_seq(ring: &VecDeque<TraceEvent>, i: usize) -> u64 {
    ring.get(i).map_or(u64::MAX, |te| te.seq)
}

/// The merge state of [`merged`]: per ring, the index of its next event
/// and that event's `seq` (`u64::MAX` once the ring is spent).
struct Merge<'a> {
    rings: &'a [VecDeque<TraceEvent>],
    next: [usize; NUM_TRACKS],
    heads: [u64; NUM_TRACKS],
    left: usize,
}

impl<'a> Iterator for Merge<'a> {
    type Item = &'a TraceEvent;

    fn next(&mut self) -> Option<&'a TraceEvent> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let mut t = 0;
        for (i, &head) in self.heads.iter().enumerate().skip(1) {
            if head < self.heads[t] {
                t = i;
            }
        }
        let ring = &self.rings[t];
        let te = &ring[self.next[t]];
        self.next[t] += 1;
        self.heads[t] = head_seq(ring, self.next[t]);
        Some(te)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
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
        let mut s = self.shared.lock().expect("tracer poisoned");
        s.push(&self.cfg, now_ps, event);
    }

    /// [`Tracer::push`] of each `(now_ps, event)` in order, under one
    /// lock: the same rings, drains and drops as pushing them one by one.
    pub fn push_all(&self, events: impl IntoIterator<Item = (u64, Event)>) {
        let mut s = self.shared.lock().expect("tracer poisoned");
        for (now_ps, event) in events {
            s.push(&self.cfg, now_ps, event);
        }
    }

    /// Buffered (not yet drained) events, merged across tracks in
    /// sequence order — oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        let s = self.shared.lock().expect("tracer poisoned");
        merged(&s.rings).copied().collect()
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
    use crate::sink::tests::SharedBuf;
    use proptest::prelude::*;
    use std::sync::Arc;

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
        assert_eq!(t.len(), 0);
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
        t.shared.lock().unwrap().drain();
        t.push(99, Event::FallbackRaw);
        assert_eq!(t.events()[0].seq, t.dropped() + t.drained());
        assert_eq!(t.recorded(), 12);
    }

    /// A sink that keeps the events it is handed.
    #[derive(Clone, Default)]
    struct Seen(Arc<Mutex<Vec<TraceEvent>>>);

    impl EventSink for Seen {
        fn write_event(&mut self, te: &TraceEvent) -> io::Result<()> {
            self.0.lock().unwrap().push(*te);
            Ok(())
        }

        fn finish(&mut self, _: &Snapshot, _: u64, _: u64) -> io::Result<()> {
            Ok(())
        }
    }

    /// An event on track `track`, tagged with `i`.
    fn on_track(track: usize, i: u64) -> Event {
        let event = match track {
            0 => Event::DiffSize { bits: i as u32 },
            1 => Event::Resync { repairs: i },
            2 => Event::SchedWake { actor: i as u32 },
            3 => Event::LinkBusy {
                start_ps: i,
                dur_ps: 1,
            },
            4 => Event::DramBusy {
                start_ps: i,
                dur_ps: 1,
            },
            5 => Event::MeshHop {
                hop: 0,
                depth: 0,
                start_ps: i,
                dur_ps: 1,
            },
            _ => Event::Marker {
                name: "m",
                value: i,
            },
        };
        assert_eq!(event.track_index(), track);
        event
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn merge_drain_streams_every_event_in_seq_order(
            caps in proptest::collection::vec(1usize..9, NUM_TRACKS),
            threshold in 0usize..24,
            mix in proptest::collection::vec(0usize..NUM_TRACKS, 0..300),
        ) {
            let mut cfg = TracerConfig::with_capacity(1);
            for (cap, c) in cfg.track_capacities.iter_mut().zip(&caps) {
                *cap = Some(*c);
            }
            let ring_only = Tracer::new(cfg);
            cfg.drain_threshold = (threshold > 0).then_some(threshold);
            let seen = Seen::default();
            let streamed = Tracer::with_sink(cfg, Box::new(seen.clone()));
            let big = Tracer::new(TracerConfig::with_capacity(mix.len().max(1)));
            for (i, &track) in mix.iter().enumerate() {
                let event = on_track(track, i as u64);
                for t in [&streamed, &ring_only, &big] {
                    t.push(i as u64 * 10, event);
                }
                let buffered = streamed.events();
                if let Some(first) = buffered.first() {
                    prop_assert_eq!(first.seq, streamed.dropped() + streamed.drained());
                }
                let mut so_far = seen.0.lock().unwrap().clone();
                so_far.extend(buffered);
                prop_assert_eq!(so_far, big.events());
            }
            streamed.finish(&Snapshot::default()).unwrap();
            let got = seen.0.lock().unwrap().clone();
            prop_assert!(got.windows(2).all(|w| w[0].seq < w[1].seq));
            prop_assert_eq!(streamed.dropped(), 0);
            prop_assert_eq!(streamed.drained(), mix.len() as u64);
            let all = big.events();
            prop_assert_eq!(&got, &all);

            // Ring-only, each track keeps its newest `cap` events.
            let mut left = [0usize; NUM_TRACKS];
            for &t in &mix {
                left[t] += 1;
            }
            let kept: Vec<TraceEvent> = all
                .into_iter()
                .filter(|te| {
                    let t = te.event.track_index();
                    left[t] -= 1;
                    left[t] < caps[t]
                })
                .collect();
            prop_assert_eq!(ring_only.dropped(), (mix.len() - kept.len()) as u64);
            prop_assert_eq!(ring_only.events(), kept);
        }
    }
}
