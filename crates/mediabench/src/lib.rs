//! # hyvec-mediabench — synthetic MediaBench-like workloads
//!
//! The paper evaluates on MediaBench (Lee et al., MICRO 1997), split
//! into two classes:
//!
//! * **SmallBench** — `adpcm_c`, `adpcm_d`, `epic_c`, `epic_d`:
//!   workloads whose data fits in very small caches (~1KB); used at
//!   ULE mode, where only the 1KB ULE way is powered;
//! * **BigBench** — `g721_c`, `g721_d`, `gsm_c`, `gsm_d`, `mpeg2_c`,
//!   `mpeg2_d`: larger working sets; used at HP mode with all 8 ways.
//!
//! The original benchmark binaries are not reproducible here, so each
//! program is modeled as a deterministic synthetic trace generator
//! with the structural properties the evaluation depends on: code
//! footprint, data working-set size and access pattern (state tables,
//! circular sample buffers, strided block walks), data-access ratio
//! and write fraction. What the paper's results need from the
//! workloads is exactly (a) SmallBench hitting well in 1KB, (b)
//! BigBench hitting well in 8KB, and (c) similar cache access
//! frequency across benchmarks — all of which hold by construction
//! and are asserted in the test suite.
//!
//! # Example
//!
//! ```
//! use hyvec_mediabench::{Benchmark, BenchClass};
//!
//! let trace: Vec<_> = Benchmark::AdpcmC.trace(1000, 42).collect();
//! assert_eq!(trace.len(), 1000);
//! assert_eq!(Benchmark::AdpcmC.class(), BenchClass::SmallBench);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod interleave;
#[cfg(test)]
mod reference;
pub mod replay;
pub mod spec;
pub mod trace;
pub mod zoo;

pub use binfmt::{BinaryReplay, BinfmtError, EncodeStats, TraceSummary, TraceWriter};
pub use interleave::{multiprogram_sources, per_core_seed, rebased, Rebased, CORE_ADDRESS_STRIDE};
pub use replay::{Replay, ReplayError};
pub use spec::{BenchClass, Pattern, Region, WorkloadSpec};
pub use trace::{DataAccess, Trace, TraceEntry, TraceSource};
pub use zoo::{Workload, ZooTrace};

use std::fmt;

/// The ten MediaBench programs used in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    AdpcmC,
    AdpcmD,
    EpicC,
    EpicD,
    G721C,
    G721D,
    GsmC,
    GsmD,
    Mpeg2C,
    Mpeg2D,
}

impl Benchmark {
    /// All ten benchmarks, SmallBench first.
    pub const ALL: [Benchmark; 10] = [
        Benchmark::AdpcmC,
        Benchmark::AdpcmD,
        Benchmark::EpicC,
        Benchmark::EpicD,
        Benchmark::G721C,
        Benchmark::G721D,
        Benchmark::GsmC,
        Benchmark::GsmD,
        Benchmark::Mpeg2C,
        Benchmark::Mpeg2D,
    ];

    /// The four SmallBench programs (run at ULE mode in the paper).
    pub const SMALL: [Benchmark; 4] = [
        Benchmark::AdpcmC,
        Benchmark::AdpcmD,
        Benchmark::EpicC,
        Benchmark::EpicD,
    ];

    /// The six BigBench programs (run at HP mode in the paper).
    pub const BIG: [Benchmark; 6] = [
        Benchmark::G721C,
        Benchmark::G721D,
        Benchmark::GsmC,
        Benchmark::GsmD,
        Benchmark::Mpeg2C,
        Benchmark::Mpeg2D,
    ];

    /// The benchmark's cache-requirement class.
    pub fn class(self) -> BenchClass {
        if Benchmark::SMALL.contains(&self) {
            BenchClass::SmallBench
        } else {
            BenchClass::BigBench
        }
    }

    /// The MediaBench-style name, e.g. `"adpcm_c"`.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::AdpcmC => "adpcm_c",
            Benchmark::AdpcmD => "adpcm_d",
            Benchmark::EpicC => "epic_c",
            Benchmark::EpicD => "epic_d",
            Benchmark::G721C => "g721_c",
            Benchmark::G721D => "g721_d",
            Benchmark::GsmC => "gsm_c",
            Benchmark::GsmD => "gsm_d",
            Benchmark::Mpeg2C => "mpeg2_c",
            Benchmark::Mpeg2D => "mpeg2_d",
        }
    }

    /// The structural workload specification of the program.
    pub fn spec(self) -> WorkloadSpec {
        spec::spec_for(self)
    }

    /// A deterministic trace of `instructions` entries with the given
    /// seed. Equal `(self, seed)` always produce identical traces.
    pub fn trace(self, instructions: u64, seed: u64) -> Trace {
        Trace::new(self.spec(), instructions, seed)
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad`, not `write_str`, so width/alignment specifiers work
        // in tabular output.
        f.pad(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn class_partition_matches_paper() {
        for b in Benchmark::SMALL {
            assert_eq!(b.class(), BenchClass::SmallBench);
        }
        for b in Benchmark::BIG {
            assert_eq!(b.class(), BenchClass::BigBench);
        }
        assert_eq!(Benchmark::ALL.len(), 10);
        let names: HashSet<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn traces_are_deterministic() {
        for b in [Benchmark::AdpcmC, Benchmark::Mpeg2D] {
            let t1: Vec<_> = b.trace(5000, 7).collect();
            let t2: Vec<_> = b.trace(5000, 7).collect();
            assert_eq!(t1, t2, "{b} trace not deterministic");
            let t3: Vec<_> = b.trace(5000, 8).collect();
            assert_ne!(t1, t3, "{b} trace ignores seed");
        }
    }

    fn lines_touched(b: Benchmark, n: u64) -> (usize, usize) {
        let mut code = HashSet::new();
        let mut data = HashSet::new();
        for e in b.trace(n, 1) {
            code.insert(e.pc / 32);
            if let Some(a) = e.access {
                data.insert(a.addr / 32);
            }
        }
        (code.len(), data.len())
    }

    #[test]
    fn smallbench_fits_in_one_kb() {
        // The defining property of SmallBench (paper Sec. IV-A.1):
        // workload fits very small caches (~1KB = 32 lines of 32B).
        for b in Benchmark::SMALL {
            let (code, data) = lines_touched(b, 100_000);
            assert!(data <= 32, "{b}: SmallBench data WS too big: {data} lines");
            assert!(code <= 32, "{b}: SmallBench code WS too big: {code} lines");
        }
    }

    #[test]
    fn bigbench_exceeds_one_kb_but_mostly_fits_8kb() {
        for b in Benchmark::BIG {
            let (code, data) = lines_touched(b, 200_000);
            let total = code + data;
            assert!(
                total > 48,
                "{b}: BigBench should exceed ~1.5KB footprint: {total} lines"
            );
            // "their workloads fit pretty well in cache" (8KB I + 8KB D).
            assert!(
                data <= 1024,
                "{b}: BigBench data WS unreasonably large: {data} lines"
            );
        }
    }

    #[test]
    fn access_ratio_is_realistic() {
        for b in Benchmark::ALL {
            let n = 50_000;
            let accesses = b.trace(n, 3).filter(|e| e.access.is_some()).count() as f64;
            let ratio = accesses / n as f64;
            assert!(
                ratio > 0.15 && ratio < 0.55,
                "{b}: data-access ratio {ratio} out of realistic range"
            );
        }
    }

    #[test]
    fn writes_are_a_minority_of_accesses() {
        for b in Benchmark::ALL {
            let mut reads = 0u64;
            let mut writes = 0u64;
            for e in b.trace(50_000, 9) {
                if let Some(a) = e.access {
                    if a.is_write {
                        writes += 1;
                    } else {
                        reads += 1;
                    }
                }
            }
            assert!(writes > 0, "{b}: no writes at all");
            assert!(writes < reads, "{b}: writes must be a minority");
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Benchmark::G721C.to_string(), "g721_c");
    }
}
