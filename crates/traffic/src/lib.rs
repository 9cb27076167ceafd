//! # traffic — workload generators for the buffer-sizing experiments
//!
//! Installs the paper's workloads onto a `netsim` topology:
//!
//! * [`bulk`] — `n` long-lived (infinite) TCP flows with randomized start
//!   times, the §3/§5.1.1 workload;
//! * [`shortflow`] — short TCP flows arriving as a Poisson process with
//!   fixed, chosen-from-a-set, or Pareto-distributed lengths (§4/§5.1.2);
//! * [`sessions`] — a Harpoon-like closed-loop session workload
//!   (think-time → heavy-tailed transfer → think-time …), the production-
//!   traffic stand-in for the Figure 11 experiment;
//! * [`udp`] — constant-bit-rate and Poisson UDP sources, the paper's
//!   "traffic that does not react to congestion" (§4).
//!
//! All generators return [`FlowHandle`]s so experiment code can read flow
//! state back (cwnd for the window-sum figures, FCT records for AFCT).


#![warn(missing_docs)]
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

pub mod bulk;
pub mod sessions;
pub mod shortflow;
pub mod udp;
pub mod workload;

pub use bulk::BulkWorkload;
pub use sessions::{SessionSource, SessionWorkload};
pub use shortflow::{arrival_rate_for_load, FlowLengthDist, ShortFlowWorkload};
pub use udp::{CbrSource, PoissonUdpSource, UdpSink};
pub use workload::FlowHandle;
