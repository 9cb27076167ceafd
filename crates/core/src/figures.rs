//! One module per paper artifact. Each exposes a config struct with
//! `full()` (paper-scale) and `quick()` (seconds-scale smoke) constructors,
//! a `run()` returning plain data, and a `render()`/printing helper used by
//! the `bench` crate's `repro` entries.

pub mod afct_comparison;
pub mod cca_sweep;
pub mod gsr_table;
pub mod min_buffer;
pub mod production;
pub mod short_flow_buffer;
pub mod single_flow;
pub mod window_dist;
