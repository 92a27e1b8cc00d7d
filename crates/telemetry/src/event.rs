//! Structured trace events.
//!
//! Events are plain data — no references into the emitting subsystem — so
//! the tracer can buffer them without lifetimes and the exporters can
//! serialize them without callbacks. Category strings are `&'static str`
//! to keep event construction allocation-free.

use crate::json;

/// One structured occurrence inside the CABLE stack.
///
/// Variants mirror the things the paper's evaluation reasons about:
/// per-line encode outcomes, search pipeline depth, recovery-protocol
/// actions, resync sweeps, scheduler activity, and shared-resource busy
/// intervals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// One line crossed the link (or hit remotely).
    Encode {
        /// Outcome: `"remote_hit"`, `"raw"`, `"unseeded"`, or `"diff"`.
        kind: &'static str,
        /// `"fill"` or `"writeback"`.
        direction: &'static str,
        /// Exact framed payload bits.
        payload_bits: u32,
        /// Flit-quantized wire bits.
        wire_bits: u32,
        /// References named in the payload.
        refs: u8,
    },
    /// One signature search ran (§III-C pipeline depth).
    Search {
        /// Hash-table candidates before pre-ranking.
        candidates: u32,
        /// Data-array reads performed (post-pre-rank).
        data_reads: u32,
        /// References selected.
        selected: u8,
    },
    /// A DIFF payload was built against references.
    DiffSize {
        /// The DIFF body size in bits (before framing).
        bits: u32,
    },
    /// The receiver NACKed a delivery.
    Nack {
        /// Failure class: `"transient"` or `"reference"`.
        class: &'static str,
    },
    /// A delivery degraded to a raw retransmission.
    FallbackRaw,
    /// A delivery exhausted the raw budget and escalated to the reliable
    /// path.
    Escalation,
    /// One retransmission crossed the wire.
    Retransmit {
        /// Flit-quantized wire bits of the retransmitted frame.
        wire_bits: u64,
    },
    /// The channel corrupted a frame in flight.
    FaultInjected {
        /// Bits flipped in this frame.
        bit_flips: u32,
        /// Whether the frame was truncated.
        truncated: bool,
    },
    /// The channel dropped a synchronization notice.
    NoticeDropped,
    /// The channel delayed a synchronization notice.
    NoticeDelayed,
    /// `audit_and_resync()` completed.
    Resync {
        /// Total repairs performed.
        repairs: u64,
    },
    /// A stale fill reference resolved from the §IV-A eviction buffer.
    EvictBufferHit,
    /// The event-driven scheduler woke an actor.
    SchedWake {
        /// Actor index within its group.
        actor: u32,
    },
    /// The shared off-chip link was occupied.
    LinkBusy {
        /// Interval start, picoseconds.
        start_ps: u64,
        /// Interval duration, picoseconds.
        dur_ps: u64,
    },
    /// A DRAM access occupied bank + bus.
    DramBusy {
        /// Interval start, picoseconds.
        start_ps: u64,
        /// Interval duration, picoseconds.
        dur_ps: u64,
    },
    /// A transfer occupied one mesh-hop PTP wire (per-hop contention).
    MeshHop {
        /// Hop (unordered chip-pair wire) index within the fabric.
        hop: u32,
        /// Transfers still queued ahead when this one arrived.
        depth: u32,
        /// Interval start, picoseconds.
        start_ps: u64,
        /// Interval duration, picoseconds.
        dur_ps: u64,
    },
    /// A named phase boundary (`cable report` groups its timelines
    /// between consecutive phase events).
    Phase {
        /// Phase name, e.g. `"measure"` or `"compression_off"`.
        name: &'static str,
    },
    /// A free-form named marker.
    Marker {
        /// Marker name.
        name: &'static str,
        /// Attached value.
        value: u64,
    },
}

/// Exporter tracks (Chrome-trace thread names), one per [`Event::track`]
/// value. Ring capacities in [`crate::TracerConfig`] are indexed by
/// position in this table.
pub const TRACKS: [&str; 7] = ["encode", "fault", "sched", "link", "dram", "mesh", "marker"];

/// The three occupancy lanes a busy interval can land on. This is the
/// single source of truth tying each lane to its event name
/// ([`LaneKind::event_name`]) and report label ([`LaneKind::label`]) —
/// the report parser dispatches through [`LaneKind::from_event_name`]
/// instead of matching lane strings ad hoc. The declaration order is
/// [`LaneKind::ALL`]'s, so `lane as usize` indexes per-lane arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneKind {
    /// The shared off-chip link ([`Event::LinkBusy`]).
    Link,
    /// A DRAM bank + bus ([`Event::DramBusy`]).
    Dram,
    /// A mesh-hop PTP wire ([`Event::MeshHop`]).
    Mesh,
}

impl LaneKind {
    /// Every lane, in report/rendering order.
    pub const ALL: [LaneKind; 3] = [LaneKind::Link, LaneKind::Dram, LaneKind::Mesh];

    /// Stable lowercase label used in report tables and artifact keys
    /// (`{label}_busy_ps`, `{label}_util_permille`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LaneKind::Link => "link",
            LaneKind::Dram => "dram",
            LaneKind::Mesh => "mesh",
        }
    }

    /// The [`Event::name`] of this lane's busy-interval event.
    #[must_use]
    pub fn event_name(self) -> &'static str {
        match self {
            LaneKind::Link => "link_busy",
            LaneKind::Dram => "dram_busy",
            LaneKind::Mesh => "mesh_hop",
        }
    }

    /// Inverse of [`LaneKind::event_name`]: the lane whose busy event is
    /// named `name`, if any.
    #[must_use]
    pub fn from_event_name(name: &str) -> Option<LaneKind> {
        LaneKind::ALL.into_iter().find(|l| l.event_name() == name)
    }

    /// The lane a live [`Event`] occupies (`None` for non-busy events).
    #[cfg(test)]
    #[must_use]
    pub fn of_event(event: &Event) -> Option<LaneKind> {
        match event {
            Event::LinkBusy { .. } => Some(LaneKind::Link),
            Event::DramBusy { .. } => Some(LaneKind::Dram),
            Event::MeshHop { .. } => Some(LaneKind::Mesh),
            _ => None,
        }
    }
}

impl Event {
    /// Stable name used by the exporters.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Event::Encode { .. } => "encode",
            Event::Search { .. } => "search",
            Event::DiffSize { .. } => "diff_size",
            Event::Nack { .. } => "nack",
            Event::FallbackRaw => "fallback_raw",
            Event::Escalation => "escalation",
            Event::Retransmit { .. } => "retransmit",
            Event::FaultInjected { .. } => "fault_injected",
            Event::NoticeDropped => "notice_dropped",
            Event::NoticeDelayed => "notice_delayed",
            Event::Resync { .. } => "resync",
            Event::EvictBufferHit => "evict_buffer_hit",
            Event::SchedWake { .. } => "sched_wake",
            Event::LinkBusy { .. } => "link_busy",
            Event::DramBusy { .. } => "dram_busy",
            Event::MeshHop { .. } => "mesh_hop",
            Event::Phase { .. } => "phase",
            Event::Marker { .. } => "marker",
        }
    }

    /// The Chrome-trace track (thread name) this event renders on.
    #[must_use]
    pub fn track(&self) -> &'static str {
        TRACKS[self.track_index()]
    }

    /// The event's position in `TRACKS` (per-track ring selection).
    #[must_use]
    pub fn track_index(&self) -> usize {
        match self {
            Event::Encode { .. } | Event::Search { .. } | Event::DiffSize { .. } => 0,
            Event::Nack { .. }
            | Event::FallbackRaw
            | Event::Escalation
            | Event::Retransmit { .. }
            | Event::FaultInjected { .. }
            | Event::NoticeDropped
            | Event::NoticeDelayed
            | Event::Resync { .. }
            | Event::EvictBufferHit => 1,
            Event::SchedWake { .. } => 2,
            Event::LinkBusy { .. } => 3,
            Event::DramBusy { .. } => 4,
            Event::MeshHop { .. } => 5,
            Event::Phase { .. } | Event::Marker { .. } => 6,
        }
    }

    /// Appends the event's arguments to `out` as a JSON object body (no
    /// surrounding braces; nothing for an event without arguments), built
    /// from static keys and integer values only.
    pub fn write_args(&self, out: &mut Vec<u8>) {
        let mut m = Members { out, first: true };
        match *self {
            Event::Encode {
                kind,
                direction,
                payload_bits,
                wire_bits,
                refs,
            } => {
                m.str("kind", kind);
                m.str("direction", direction);
                m.int("payload_bits", payload_bits.into());
                m.int("wire_bits", wire_bits.into());
                m.int("refs", refs.into());
            }
            Event::Search {
                candidates,
                data_reads,
                selected,
            } => {
                m.int("candidates", candidates.into());
                m.int("data_reads", data_reads.into());
                m.int("selected", selected.into());
            }
            Event::DiffSize { bits } => m.int("bits", bits.into()),
            Event::Nack { class } => m.str("class", class),
            Event::FallbackRaw
            | Event::Escalation
            | Event::NoticeDropped
            | Event::NoticeDelayed
            | Event::EvictBufferHit => {}
            Event::Retransmit { wire_bits } => m.int("wire_bits", wire_bits),
            Event::FaultInjected {
                bit_flips,
                truncated,
            } => {
                m.int("bit_flips", bit_flips.into());
                m.bool("truncated", truncated);
            }
            Event::Resync { repairs } => m.int("repairs", repairs),
            Event::SchedWake { actor } => m.int("actor", actor.into()),
            Event::LinkBusy { start_ps, dur_ps } | Event::DramBusy { start_ps, dur_ps } => {
                m.int("start_ps", start_ps);
                m.int("dur_ps", dur_ps);
            }
            Event::MeshHop {
                hop,
                depth,
                start_ps,
                dur_ps,
            } => {
                m.int("hop", hop.into());
                m.int("depth", depth.into());
                m.int("start_ps", start_ps);
                m.int("dur_ps", dur_ps);
            }
            Event::Phase { name } => m.str("phase", name),
            Event::Marker { name, value } => {
                m.str("name", name);
                m.int("value", value);
            }
        }
    }

    /// The `format!` rendering of [`Event::write_args`], kept as its
    /// oracle.
    #[cfg(test)]
    #[must_use]
    pub fn args_json(&self) -> String {
        match *self {
            Event::Encode {
                kind,
                direction,
                payload_bits,
                wire_bits,
                refs,
            } => format!(
                "\"kind\":\"{kind}\",\"direction\":\"{direction}\",\"payload_bits\":{payload_bits},\"wire_bits\":{wire_bits},\"refs\":{refs}"
            ),
            Event::Search {
                candidates,
                data_reads,
                selected,
            } => format!(
                "\"candidates\":{candidates},\"data_reads\":{data_reads},\"selected\":{selected}"
            ),
            Event::DiffSize { bits } => format!("\"bits\":{bits}"),
            Event::Nack { class } => format!("\"class\":\"{class}\""),
            Event::FallbackRaw
            | Event::Escalation
            | Event::NoticeDropped
            | Event::NoticeDelayed
            | Event::EvictBufferHit => String::new(),
            Event::Retransmit { wire_bits } => format!("\"wire_bits\":{wire_bits}"),
            Event::FaultInjected {
                bit_flips,
                truncated,
            } => format!("\"bit_flips\":{bit_flips},\"truncated\":{truncated}"),
            Event::Resync { repairs } => format!("\"repairs\":{repairs}"),
            Event::SchedWake { actor } => format!("\"actor\":{actor}"),
            Event::LinkBusy { start_ps, dur_ps } | Event::DramBusy { start_ps, dur_ps } => {
                format!("\"start_ps\":{start_ps},\"dur_ps\":{dur_ps}")
            }
            Event::MeshHop {
                hop,
                depth,
                start_ps,
                dur_ps,
            } => format!(
                "\"hop\":{hop},\"depth\":{depth},\"start_ps\":{start_ps},\"dur_ps\":{dur_ps}"
            ),
            Event::Phase { name } => format!("\"phase\":\"{name}\""),
            Event::Marker { name, value } => format!("\"name\":\"{name}\",\"value\":{value}"),
        }
    }
}

/// Appends comma-separated `"key":value` members to a byte buffer. Keys
/// and string values are static identifiers that need no escaping.
struct Members<'a> {
    out: &'a mut Vec<u8>,
    first: bool,
}

impl Members<'_> {
    fn key(&mut self, key: &str) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        self.out.push(b'"');
        self.out.extend_from_slice(key.as_bytes());
        self.out.extend_from_slice(b"\":");
    }

    fn int(&mut self, key: &str, v: u64) {
        self.key(key);
        json::write_u64(self.out, v);
    }

    fn bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out
            .extend_from_slice(if v { b"true" } else { b"false" });
    }

    fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        self.out.push(b'"');
        self.out.extend_from_slice(v.as_bytes());
        self.out.push(b'"');
    }
}

/// An [`Event`] stamped with simulated time and a dense sequence number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated timestamp in picoseconds (never wallclock).
    pub now_ps: u64,
    /// Dense per-tracer sequence number (survives ring-buffer drops: the
    /// first retained event's `seq` equals the drop count).
    pub seq: u64,
    /// The event payload.
    pub event: Event,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Every [`Event`] variant, its fields drawn from `v` (truncated to
    /// each field's width) and `names`.
    pub(crate) fn every_variant(v: [u64; 4], names: [&'static str; 2]) -> Vec<Event> {
        let [a, b, c, d] = v;
        vec![
            Event::Encode {
                kind: names[0],
                direction: names[1],
                payload_bits: a as u32,
                wire_bits: b as u32,
                refs: c as u8,
            },
            Event::Search {
                candidates: a as u32,
                data_reads: b as u32,
                selected: c as u8,
            },
            Event::DiffSize { bits: a as u32 },
            Event::Nack { class: names[0] },
            Event::FallbackRaw,
            Event::Escalation,
            Event::Retransmit { wire_bits: a },
            Event::FaultInjected {
                bit_flips: a as u32,
                truncated: b % 2 == 1,
            },
            Event::NoticeDropped,
            Event::NoticeDelayed,
            Event::Resync { repairs: a },
            Event::EvictBufferHit,
            Event::SchedWake { actor: a as u32 },
            Event::LinkBusy {
                start_ps: a,
                dur_ps: b,
            },
            Event::DramBusy {
                start_ps: a,
                dur_ps: b,
            },
            Event::MeshHop {
                hop: a as u32,
                depth: b as u32,
                start_ps: c,
                dur_ps: d,
            },
            Event::Phase { name: names[1] },
            Event::Marker {
                name: names[0],
                value: d,
            },
        ]
    }

    /// The string match `track` was before it became an index into
    /// [`TRACKS`].
    fn track_name_oracle(event: &Event) -> &'static str {
        match event {
            Event::Encode { .. } | Event::Search { .. } | Event::DiffSize { .. } => "encode",
            Event::Nack { .. }
            | Event::FallbackRaw
            | Event::Escalation
            | Event::Retransmit { .. }
            | Event::FaultInjected { .. }
            | Event::NoticeDropped
            | Event::NoticeDelayed
            | Event::Resync { .. }
            | Event::EvictBufferHit => "fault",
            Event::SchedWake { .. } => "sched",
            Event::LinkBusy { .. } => "link",
            Event::DramBusy { .. } => "dram",
            Event::MeshHop { .. } => "mesh",
            Event::Phase { .. } | Event::Marker { .. } => "marker",
        }
    }

    #[test]
    fn names_and_tracks_are_stable() {
        assert_eq!(Event::FallbackRaw.name(), "fallback_raw");
        assert_eq!(Event::FallbackRaw.track(), "fault");
        assert_eq!(
            Event::LinkBusy {
                start_ps: 0,
                dur_ps: 1
            }
            .track(),
            "link"
        );
        assert_eq!(Event::SchedWake { actor: 3 }.name(), "sched_wake");
        assert_eq!(
            Event::MeshHop {
                hop: 2,
                depth: 1,
                start_ps: 0,
                dur_ps: 5
            }
            .track(),
            "mesh"
        );
        assert_eq!(Event::Phase { name: "measure" }.track(), "marker");
    }

    #[test]
    fn lane_kinds_round_trip_event_names() {
        for lane in LaneKind::ALL {
            assert_eq!(LaneKind::from_event_name(lane.event_name()), Some(lane));
        }
        assert_eq!(LaneKind::from_event_name("encode"), None);
        let busy = Event::LinkBusy {
            start_ps: 0,
            dur_ps: 1,
        };
        assert_eq!(LaneKind::of_event(&busy), Some(LaneKind::Link));
        assert_eq!(busy.name(), LaneKind::Link.event_name());
        let mesh = Event::MeshHop {
            hop: 1,
            depth: 0,
            start_ps: 0,
            dur_ps: 1,
        };
        assert_eq!(LaneKind::of_event(&mesh), Some(LaneKind::Mesh));
        assert_eq!(mesh.name(), LaneKind::Mesh.event_name());
        let dram = Event::DramBusy {
            start_ps: 0,
            dur_ps: 1,
        };
        assert_eq!(LaneKind::of_event(&dram), Some(LaneKind::Dram));
        assert_eq!(dram.name(), LaneKind::Dram.event_name());
        assert_eq!(LaneKind::of_event(&Event::FallbackRaw), None);
        assert_eq!(LaneKind::Mesh.label(), "mesh");
    }

    #[test]
    fn track_index_covers_every_variant() {
        for (i, track) in TRACKS.iter().enumerate() {
            assert_eq!(TRACKS.iter().position(|t| t == track), Some(i));
        }
        assert_eq!(Event::FallbackRaw.track_index(), 1);
        assert_eq!(
            Event::MeshHop {
                hop: 0,
                depth: 0,
                start_ps: 0,
                dur_ps: 0
            }
            .track_index(),
            5
        );
        assert_eq!(Event::Phase { name: "p" }.track_index(), 6);
        let events = every_variant([1, 2, 3, 4], ["a", "b"]);
        assert_eq!(events.len(), 18, "one event per variant");
        let mut names: Vec<&str> = events.iter().map(Event::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 18, "no variant listed twice");
        for event in &events {
            let want = track_name_oracle(event);
            assert_eq!(
                TRACKS.iter().position(|t| *t == want),
                Some(event.track_index()),
                "{event:?}"
            );
            assert_eq!(event.track(), want);
        }
    }

    #[test]
    fn phase_args_avoid_the_name_key() {
        // The exporter's event lines already carry a "name" key (the event
        // name), so phase labels ride under "phase" to stay unambiguous.
        let body = Event::Phase { name: "measure" }.args_json();
        assert_eq!(body, "\"phase\":\"measure\"");
    }

    #[test]
    fn args_are_json_object_bodies() {
        let body = Event::Encode {
            kind: "diff",
            direction: "fill",
            payload_bits: 100,
            wire_bits: 112,
            refs: 2,
        }
        .args_json();
        assert!(body.contains("\"kind\":\"diff\""));
        assert!(body.contains("\"refs\":2"));
        assert!(!body.starts_with('{'));
        assert_eq!(Event::Escalation.args_json(), "");
        let wrapped = format!("{{{}}}", body);
        crate::json::parse(&wrapped).expect("args body forms a valid object");
    }
}
