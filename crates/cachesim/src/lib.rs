//! # hyvec-cachesim — hybrid-voltage cache and processor simulator
//!
//! The MPSim/Wattch stand-in of the reproduction: a trace-driven
//! simulator of the paper's evaluation platform — a simple single-core
//! in-order processor with split 8KB L1 caches whose ways are built
//! from heterogeneous bitcells and per-mode EDC protection.
//!
//! Components:
//!
//! * [`config`] — way/cache/system configuration types (cell type,
//!   per-mode protection, ULE-way gating);
//! * [`cache`] — a bit-accurate functional set-associative cache:
//!   words are stored as real EDC codewords, hard faults are stuck-at
//!   bits applied on every read, soft errors can be injected, and the
//!   decode path counts corrections, detections and silent
//!   corruptions;
//! * [`faults`] — Monte-Carlo fault-map sampling from a bit-failure
//!   probability;
//! * [`hierarchy`] — the composable memory hierarchy below the L1s:
//!   the [`hierarchy::MemoryLevel`] trait, a write-allocate unified
//!   [`hierarchy::L2Cache`] (one L2 shared by every core, or a private
//!   L2 per core, optionally MESI-coherent), and the terminal
//!   [`hierarchy::MainMemory`] model;
//! * [`engine`] — the one in-order core timing model (1 IPC base,
//!   miss stalls, EDC fill latency) driving both L1s from any
//!   [`hyvec_mediabench::TraceSource`], the single-core machine that
//!   prices each of its misses on the spot, and the fluent
//!   [`engine::SystemBuilder`] assembling either machine;
//! * [`multicore`] — the multi-core shape on top of the same core:
//!   N of them in a canonical round-robin interleaving over a shared
//!   L2/memory chain or per-core private L2s (optionally
//!   MESI-coherent), each core running an epoch at a time, optionally
//!   across threads, and logging its misses for a deterministic merge
//!   ([`SystemBuilder::build_multi`](engine::SystemBuilder::build_multi));
//! * [`power`] — Wattch-style event-based energy accounting on top of
//!   the [`hyvec_cachemodel`] arrays, producing the EPI breakdowns of
//!   the paper's Figures 3 and 4.
//!
//! # Example
//!
//! ```
//! use hyvec_cachesim::config::{Mode, SystemConfig};
//! use hyvec_cachesim::engine::System;
//! use hyvec_mediabench::Benchmark;
//!
//! // An all-6T baseline-style cache running a small workload at HP.
//! let config = SystemConfig::uniform_6t();
//! let mut system = System::new(config);
//! let report = system.run(Benchmark::AdpcmC.trace(20_000, 1), Mode::Hp);
//! assert_eq!(report.stats.instructions, 20_000);
//! assert!(report.energy.total_pj() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod engine;
pub mod faults;
pub mod hierarchy;
#[cfg(test)]
mod interleave;
pub mod multicore;
pub mod power;
pub mod stats;

pub use cache::HybridCache;
pub use config::{
    Behaviour, CacheConfig, ConfigError, L2Config, MemoryConfig, Mesi, Mode, SystemConfig,
    Topology, WaySpec,
};
pub use engine::{RunReport, SimOptions, System, SystemBuilder};
pub use hierarchy::{AccessRequest, HitDepth, L2Cache, MainMemory, MemoryLevel};
pub use multicore::{MultiCoreReport, MultiCoreSystem, EPOCH_INSTRUCTIONS};
pub use power::EnergyBreakdown;
pub use stats::{CacheStats, RunStats};
