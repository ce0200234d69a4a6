//! # hyvec-bench — figure/table regeneration and micro-benchmarks
//!
//! The `hyvec` binary (`src/bin/hyvec.rs`) regenerates every artifact
//! of the paper's evaluation, one command per artifact family
//! (`hyvec fig3`, `hyvec soft-errors`, `hyvec ablations`, ...) or all
//! of them at once (`hyvec run-all`). Its experiment commands are
//! thin shells over the [`cli`] module: experiments are selected from
//! the standard registry, run by the core sweep engine, and rendered
//! by the shared text/JSON/CSV backends (`--format`). The `benches/`
//! directory holds Criterion micro-benchmarks of the substrates (EDC
//! throughput, simulator speed, yield math, trace generation).
//!
//! The [`hotpath`], [`multicore`], and [`tracebench`] modules are
//! in-process bench harnesses with JSON artifacts of their own
//! (`BENCH_hotpath.json`, `BENCH_multicore.json`, `BENCH_trace.json`),
//! all written by `hyvec run-all`. The [`tracecmd`] module implements
//! the `hyvec trace` subcommand (generate/encode/decode/info/replay
//! over trace files).

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cli;
pub mod hotpath;
pub mod multicore;
pub mod tracebench;
pub mod tracecmd;

// The render helpers live next to the sweep engine; re-exported here
// to keep the seed's public API.
pub use hyvec_core::sweep::{breakdown_header, breakdown_row, pct};

#[cfg(test)]
mod tests {
    use super::*;
    use hyvec_cachesim::EnergyBreakdown;

    #[test]
    fn rows_render() {
        let b = EnergyBreakdown {
            l1_dynamic_pj: 0.5,
            l1_leakage_pj: 0.3,
            edc_pj: 0.01,
            other_pj: 0.19,
        };
        let row = breakdown_row("baseline", &b);
        assert!(row.contains("baseline"));
        assert!(row.contains("1.000"));
        assert!(breakdown_header().contains("L1 dyn"));
        assert_eq!(pct(0.423), "42.3%");
    }
}
