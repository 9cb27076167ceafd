//! # sizing-router-buffers
//!
//! Umbrella crate for the reproduction of *Sizing Router Buffers*
//! (Appenzeller, Keslassy, McKeown — SIGCOMM 2004). It re-exports the whole
//! workspace so that examples and downstream users need a single dependency:
//!
//! * [`simcore`] — deterministic discrete-event engine (time, events, RNG).
//! * [`netsim`] — packet network substrate: links, drop-tail/RED queues,
//!   routing, monitors.
//! * [`tcpsim`] — TCP endpoint state machines: one sender with Reno,
//!   NewReno and SACK recovery, and the congestion-control zoo (Reno,
//!   NewReno, CUBIC, DCTCP, SACK) as one enum, `tcpsim::cc::CcKind`.
//! * [`traffic`] — workload generators (long-lived flows, Poisson short
//!   flows, Harpoon-like sessions, UDP).
//! * [`stats`] — measurement toolkit (histograms, Gaussian fits, FCT records).
//! * [`theory`] — the paper's analytical models (rule-of-thumb, `BDP/√n`,
//!   short-flow effective-bandwidth bound).
//! * [`buffersizing`] — the high-level experiment API and one module per
//!   paper figure/table.
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! paper-vs-measured comparison of every artifact.

#![warn(missing_docs)]

pub use buffersizing;
pub use netsim;
pub use simcore;
pub use stats;
pub use tcpsim;
pub use theory;
pub use traffic;

/// Convenience prelude pulling in the most commonly used items.
pub mod prelude {
    pub use buffersizing::prelude::*;
    pub use simcore::{SimDuration, SimTime};
}
