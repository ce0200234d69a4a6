//! # hyvec-bench — the `hyvec` command-line front-end
//!
//! The `hyvec` binary (`src/bin/hyvec.rs`) regenerates every artifact
//! of the paper's evaluation, one command per artifact family
//! (`hyvec fig3`, `hyvec soft-errors`, `hyvec ablations`, ...) or all
//! of them at once (`hyvec run-all`). Its experiment commands are
//! thin shells over the [`cli`] module: experiments are selected from
//! the standard registry, run by the core sweep engine, and rendered
//! by the shared text/JSON/CSV backends (`--format`). The [`tracecmd`]
//! module implements the `hyvec trace` subcommand
//! (generate/encode/decode/info/replay over trace files).
//!
//! Performance is measured outside this crate, by the benchmark
//! package under the repository's `benches/` directory.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cli;
pub mod tracecmd;
