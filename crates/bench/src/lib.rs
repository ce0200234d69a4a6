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
