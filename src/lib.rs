//! # hyvec — umbrella crate for the DATE 2013 hybrid-voltage cache reproduction
//!
//! This facade re-exports the workspace crates so downstream users (and
//! the workspace-level integration tests and examples under `tests/`
//! and `examples/`) can reach the whole stack through one dependency.
//!
//! Layering, bottom to top:
//!
//! * [`sram`] — bitcells, failure model, yield math
//! * [`edc`] — SECDED / DECTED code families
//! * [`cachemodel`] — CACTI-style energy / delay / area models
//! * [`mediabench`] — synthetic MediaBench-like trace generators
//! * [`cachesim`] — functional + timing + power cache simulator
//! * [`core`] — the paper's architecture, methodology, experiments,
//!   and the typed report/render/sweep pipeline
//! * `bench` — the `hyvec` CLI front-end (a thin shell over
//!   [`core::sweep`]) and its `trace` subcommand

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub use hyvec_bench as bench;
pub use hyvec_cachemodel as cachemodel;
pub use hyvec_cachesim as cachesim;
pub use hyvec_core as core;
pub use hyvec_edc as edc;
pub use hyvec_mediabench as mediabench;
pub use hyvec_sram as sram;
