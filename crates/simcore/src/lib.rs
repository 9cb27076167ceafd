//! # simcore — deterministic discrete-event simulation core
//!
//! This crate is the foundation of the *Sizing Router Buffers* (SIGCOMM 2004)
//! reproduction. It provides the three ingredients every discrete-event
//! network simulator needs, with reproducibility as the primary design goal:
//!
//! * [`SimTime`] / [`SimDuration`] — an integer-nanosecond simulation clock.
//!   Integer time makes event ordering exact: there is no floating-point
//!   drift, and a simulation re-run with the same seed produces bit-identical
//!   results on every platform.
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   deterministic FIFO tie-breaking for events scheduled at the same instant.
//! * [`Rng`] and the [`dist`] module — a self-contained pseudo-random number
//!   generator (xoshiro256++ seeded through SplitMix64) plus the
//!   distributions used by the paper's workloads (uniform, exponential,
//!   Pareto). We deliberately do **not** depend on the `rand` crate in
//!   library code so that results cannot silently change underneath us when
//!   `rand` revs its algorithms.
//!
//! The actual network semantics (links, queues, TCP) live in the `netsim` and
//! `tcpsim` crates; `simcore` knows nothing about packets.

#![deny(missing_docs)]
// The kernel half of the determinism contract (DESIGN.md §7): no `unsafe`
// (so no `static mut`), and no panics in library code — a panic tears down
// the sweep cell and its packet log. Tests may assert with them (clippy.toml).
#![forbid(unsafe_code)]
#![deny(
    clippy::expect_used,
    clippy::unwrap_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod digest;
pub mod dist;
pub mod event;
pub mod json;
pub mod metrics;
pub mod prof;
pub mod rng;
pub mod sched;
pub mod time;
pub mod trace;
pub mod traceviz;
pub mod wheel;

pub use digest::Fnv1a;
pub use dist::{Exponential, Pareto, Uniform};
pub use event::EventQueue;
pub use metrics::Registry;
pub use prof::Profile;
pub use rng::Rng;
pub use sched::{Scheduler, SchedulerKind};
pub use time::{SimDuration, SimTime};
pub use trace::{Ring, TracePoint, TraceSink};
pub use traceviz::TraceBuilder;
pub use wheel::TimerWheel;
