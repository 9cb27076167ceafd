//! # theory — the analytical models of *Sizing Router Buffers*
//!
//! Pure functions implementing every model the paper uses, so experiments
//! can print "model" and "measured" side by side:
//!
//! * [`rule_of_thumb`] — §2: the classic `B = RTT̄ × C` for a single (or
//!   synchronized) long-lived TCP flow, plus the exact utilization of an
//!   under/over-buffered single flow.
//! * [`sqrt_n`] — §3: the headline `B = RTT̄ × C / √n` result for `n`
//!   desynchronized long-lived flows, derived from the CLT Gaussian model of
//!   the aggregate congestion window.
//! * [`short_flows`] — §4: the slow-start burst model and the effective
//!   bandwidth / M/G/1 bound `P(Q ≥ b) = exp(−b·2(1−ρ)/ρ·E[X]/E[X²])`,
//!   which is independent of line rate, RTT and flow count.
//! * [`loss`] — §5.1.1: the loss-rate approximation `ℓ ≈ 0.76/W²`.
//! * [`queueing`] — M/M/1 and M/D/1 reference formulas (simulator
//!   validation + the §4 smoothed-arrivals limit).

#![deny(missing_docs)]
pub mod loss;
pub mod queueing;
pub mod rule_of_thumb;
pub mod short_flows;
pub mod sqrt_n;

pub use loss::{loss_rate_for_window, window_for_loss_rate};
pub use queueing::{md1_mean_in_system, md1_mean_waiting, mm1_mean_in_system, mm1_mean_waiting};
pub use rule_of_thumb::{bdp_packets, rule_of_thumb_buffer, single_flow_utilization};
pub use short_flows::{slow_start_bursts, BurstModel};
pub use sqrt_n::{GaussianWindowModel, SqrtNRule};
