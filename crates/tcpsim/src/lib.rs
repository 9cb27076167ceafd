//! # tcpsim — TCP endpoint state machines
//!
//! A from-scratch TCP implementation for the *Sizing Router Buffers*
//! (SIGCOMM 2004) reproduction, modeled on ns-2's `Agent/TCP` +
//! `Agent/TCPSink` pair (the simulator the paper itself used):
//!
//! * **Segment-counted**: windows, sequence numbers and buffers are counted
//!   in MSS-sized segments ("*we will count window size in packets for
//!   simplicity of presentation*" — §2). Each data segment is one wire
//!   packet of `data_size` bytes; ACKs are 40 bytes.
//! * **Congestion control**: slow start, congestion avoidance, fast
//!   retransmit and fast recovery, with a pluggable algorithm zoo —
//!   [`cc::Reno`], [`cc::NewReno`], [`cc::Cubic`], [`cc::Dctcp`] and
//!   [`cc::Sack`] (see [`cc`] for the comparison table). Each names the
//!   loss recovery the one sender runs for it: Reno, NewReno or SACK
//!   scoreboard recovery ([`sender`]). Timeout recovery with exponential
//!   RTO backoff (Jacobson/Karn, [`rtt`]), and an opt-in ECN path
//!   (`TcpConfig::with_ecn`): ECT-capable data, receiver CE→ECE echo,
//!   sender CWR, and the DCTCP mark-fraction estimator.
//! * **Pure state machines**: [`sender::TcpSender`] and
//!   [`receiver::TcpReceiver`] know nothing about the network — they consume
//!   events and return actions, so every corner case is unit-testable
//!   without a simulator. [`agent::TcpSource`] / [`agent::TcpSink`] adapt
//!   them to `netsim`'s [`Agent`](netsim::Agent) API.
//!
//! What is deliberately *not* modeled (as in ns-2 and the paper): the 3-way
//! handshake, byte-granularity sequence space, and window scaling's
//! interaction with rwnd (the receiver window is a constant segment cap,
//! which is exactly the paper's "maximum window size of TCP" in §4).
//! ECN is strictly opt-in: with `cfg.ecn` off, data is sent Not-ECT, ACKs
//! never carry ECE, and every simulation artifact is byte-identical to
//! builds that predate ECN support.


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

pub mod agent;
pub mod cc;
pub mod config;
pub mod receiver;
pub mod rtt;
pub mod sender;
pub mod seq;
pub mod span;
pub mod table;

pub use agent::{FlowRecord, TcpSink, TcpSource};
pub use cc::{CcState, CongestionControl, Cubic, Dctcp, NewReno, Reno, Sack};
pub use config::TcpConfig;
pub use receiver::TcpReceiver;
pub use rtt::RttEstimator;
pub use sender::{AckInfo, SackSender, SenderState, TcpAction, TcpSender};
pub use span::{SpanDetector, SpanKind, SpanLog, SpanRecord};
pub use table::{FlowSlot, FlowTable, SharedFlowTable};
