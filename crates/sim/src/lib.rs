//! Manycore timing-simulator substrate for the CABLE reproduction.
//!
//! A PriME-level (in-order cores, latency/bandwidth queueing) model of the
//! Table IV system:
//!
//! - [`config`]: the Table IV configuration and compression latencies;
//! - [`resources`]: the FCFS off-chip link and closed-page DDR3 channel;
//! - [`thread`]: one in-order thread with private L1/L2 and a compressed
//!   LLC↔L4 link ([`thread::CompressedLink`] holds CABLE or a baseline and
//!   derefs to their shared [`cable_core::Link`] interface);
//! - [`single`]: single-threaded latency/energy studies (Figs. 17–18);
//! - [`throughput`]: the group-of-eight bandwidth-sharing methodology of
//!   the Fig. 14 throughput studies;
//! - [`numa`]: multi-chip coherence-link compression (Fig. 13);
//! - [`adaptive`]: the §VI-D on/off compression controller;
//! - [`sched`]: the event-driven [`Scheduler`]/[`DoneTracker`] core shared
//!   by every multi-actor timing loop;
//! - [`arena`]: the [`SimArena`] warm-state cache that amortises group
//!   warm-up across sweep points.
//!
//! # Examples
//!
//! ```
//! use cable_sim::{run_single, Scheme, SystemConfig};
//! use cable_compress::EngineKind;
//!
//! let cfg = SystemConfig::paper_defaults();
//! let profile = cable_trace::by_name("gcc").unwrap();
//! let r = run_single(profile, Scheme::Cable(EngineKind::Lbe), 20_000, &cfg);
//! assert!(r.ipc() > 0.0);
//! assert!(r.link.compression_ratio() > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod arena;
pub mod config;
pub mod fabric;
mod hier;
pub mod numa;
pub mod resources;
#[cfg(test)]
mod run_equivalence;
// The adversarial line families are shared with cable-compress's oracle
// tests; test-only items do not cross crates, so the file is included.
pub mod sched;
pub mod single;
#[cfg(test)]
#[path = "../../compress/src/test_lines.rs"]
mod test_lines;
pub mod thread;
pub mod throughput;

pub use adaptive::{DegradationStats, DegradeLevel, DegradePolicy, OnOffController};
pub use arena::SimArena;
pub use config::{CompressionLatency, SystemConfig};
pub use fabric::{wire_pair_index, FabricResult, FabricSim, HopStats};
pub use numa::NumaSim;
pub use resources::{DramModel, SharedLink};
pub use sched::{DoneTracker, Scheduler};
pub use single::{run_single, run_single_telemetry, run_single_warmed, SingleResult};
pub use thread::{CompressedLink, Scheme, ThreadSim};
pub use throughput::{
    run_group, run_group_arena, run_group_telemetry, speedup, ThroughputResult, GROUP_SIZE,
};
