//! # hyvec-core — the hybrid-voltage EDC cache architecture
//!
//! This crate is the reproduction of the primary contribution of
//! *"Efficient Cache Architectures for Reliable Hybrid Voltage
//! Operation Using EDC Codes"* (Maric, Abella, Valero — DATE 2013): a
//! single-Vcc-domain L1 cache whose ways mix bitcell types, where the
//! energy-hungry 10T ULE ways of the prior hybrid design (Maric et
//! al., CF 2011) are replaced by smaller 8T cells protected with EDC
//! codes, keeping the same yield and reliability guarantees.
//!
//! The two scenarios of the paper:
//!
//! * **Scenario A** — baseline `6T+10T`, no coding. Proposal:
//!   `6T + 8T+SECDED`, SECDED active only at ULE mode.
//! * **Scenario B** — baseline `6T+SECDED + 10T+SECDED` (soft-error
//!   protection everywhere). Proposal: `6T+SECDED + 8T+DECTED`,
//!   DECTED active only at ULE mode (SECDED suffices at HP).
//!
//! Key entry points:
//!
//! * [`methodology::design_ule_way`] — the iterative sizing loop of
//!   the paper's Fig. 2, built on the Chen-style failure model and the
//!   yield equations (1)–(2);
//! * [`architecture::Architecture`] — turns a scenario + design point
//!   into a simulatable [`hyvec_cachesim::SystemConfig`];
//! * [`experiments`] — regenerates every figure and table of the
//!   paper's evaluation, plus this reproduction's ablations. The table
//!   [`experiments::ARTIFACTS`] holds one row per artifact: its name,
//!   scenarios, description, and the function that computes its
//!   report tables;
//! * [`registry`] + [`sweep`] — the open experiment registry (one
//!   [`experiments::Experiment`] per artifact × scenario cell of the
//!   table, plus any custom ones) and the parallel sweep runner that
//!   enumerates jobs from it;
//! * [`report`] + [`render`] — the typed result documents every
//!   experiment produces, and the text/JSON/CSV backends.
//!
//! # Quickstart
//!
//! ```
//! use hyvec_core::architecture::{Architecture, DesignPoint, Scenario};
//! use hyvec_cachesim::{Mode, System};
//! use hyvec_mediabench::Benchmark;
//!
//! // Build the paper's proposed design for scenario A and run a
//! // SmallBench workload at ULE mode.
//! let arch = Architecture::build(Scenario::A, DesignPoint::Proposal)?;
//! let mut system = System::new(arch.config.clone());
//! let report = system.run(Benchmark::AdpcmC.trace(10_000, 1), Mode::Ule);
//! assert!(report.epi_pj() > 0.0);
//! # Ok::<(), hyvec_core::architecture::ArchitectureError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod architecture;
pub mod experiments;
pub mod methodology;
pub mod registry;
pub mod render;
pub mod report;
pub mod seed;
pub mod sweep;

pub use architecture::{Architecture, DesignPoint, Scenario};
pub use experiments::Experiment;
pub use methodology::{MethodologyInputs, UleWayDesign};
pub use registry::Registry;
pub use render::{Format, Render};
pub use report::{Report, Section, Table};
pub use sweep::SweepBuilder;
