//! # buffersizing — the *Sizing Router Buffers* experiment library
//!
//! This is the top-level crate of the reproduction: it ties the simulator
//! (`netsim` + `tcpsim`), the workloads (`traffic`), the measurements
//! (`stats`) and the analytical models (`theory`) into declarative,
//! reproducible experiments — one module per figure/table of the paper.
//!
//! ## Quick start
//!
//! ```
//! use buffersizing::prelude::*;
//!
//! // 50 long-lived TCP flows over a 50 Mb/s bottleneck, buffer = BDP/sqrt(n).
//! let mut sc = LongFlowScenario::quick(50, 50_000_000);
//! let bdp = sc.bdp_packets();
//! sc.buffer_pkts = (bdp / (50f64).sqrt()).round() as usize;
//! let result = sc.run();
//! assert!(result.utilization > 0.9);
//! ```
//!
//! ## Experiment index (see DESIGN.md for the full mapping)
//!
//! | paper artifact | module |
//! |---|---|
//! | Fig. 3–5 (single-flow dynamics) | [`figures::single_flow`] |
//! | Fig. 6 (window-sum vs Gaussian) | [`figures::window_dist`] |
//! | Fig. 7 (min buffer vs n) | [`figures::min_buffer`] |
//! | Fig. 8 (short-flow buffer) | [`figures::short_flow_buffer`] |
//! | Fig. 9 (AFCT small vs large buffers) | [`figures::afct_comparison`] |
//! | Fig. 10 (GSR utilization table) | [`figures::gsr_table`] |
//! | Fig. 11 (production network) | [`figures::production`] |


#![warn(missing_docs)]
pub mod exec;
pub mod explain;
pub mod figures;
pub mod json;
pub mod manifest;
pub mod probe_cache;
pub mod report;
pub mod runner;
pub mod search;
pub mod sync;
pub mod traceexport;

pub use exec::Executor;
pub use json::Json;
pub use manifest::RunManifest;
pub use runner::{
    LongFlowResult, LongFlowScenario, MixScenario, Run, ShortFlowResult, ShortFlowScenario,
    TracedRun,
};
pub use search::{min_buffer_for, min_buffer_for_par, SearchResult};
pub use sync::{pairwise_correlation, SyncReport};

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::exec::Executor;
    pub use crate::figures;
    pub use crate::runner::{
        LongFlowResult, LongFlowScenario, MixScenario, ShortFlowResult, ShortFlowScenario,
    };
    pub use crate::search::{min_buffer_for, min_buffer_for_par};
    pub use crate::sync::pairwise_correlation;
    pub use simcore::{SimDuration, SimTime};
    pub use tcpsim::TcpConfig;
    pub use theory::{
        bdp_packets, rule_of_thumb_buffer, single_flow_utilization, BurstModel,
        GaussianWindowModel, SqrtNRule,
    };
}
