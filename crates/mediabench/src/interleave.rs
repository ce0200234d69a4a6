//! Round-robin interleaving of independent trace sources: the
//! multi-program workloads of the multi-core engine.
//!
//! A multi-core run executes N programs at once, one per core. This
//! module turns N independent [`TraceSource`]s into a single stream of
//! `(core, entry)` pairs by round-robin at instruction granularity:
//! one entry from core 0, one from core 1, ..., wrapping around, with
//! exhausted sources dropping out of the rotation until every source
//! is drained. The interleaving is a pure function of the sources, so
//! multi-core runs inherit the determinism of the underlying
//! generators.
//!
//! Per-core trace seeds are derived with [`per_core_seed`], which
//! mixes the core index into a sweep's base seed so cores running the
//! same benchmark still fetch decorrelated streams; [`rebased`]
//! relocates each program into a private address window
//! ([`CORE_ADDRESS_STRIDE`] apart) so co-scheduled programs present a
//! shared hierarchy with the disjoint working sets of a real
//! multi-programmed machine.
//!
//! # Example
//!
//! ```
//! use hyvec_mediabench::{per_core_seed, Benchmark, Interleave};
//!
//! let sources = vec![
//!     Benchmark::GsmC.trace(2, per_core_seed(1, 0)),
//!     Benchmark::Mpeg2C.trace(2, per_core_seed(1, 1)),
//! ];
//! let cores: Vec<usize> = Interleave::new(sources).map(|(c, _)| c).collect();
//! assert_eq!(cores, [0, 1, 0, 1]);
//! ```

use crate::replay::{Replay, ReplayError};
use crate::trace::{TraceEntry, TraceSource};
use std::error::Error;
use std::fmt;

/// Address distance between the private windows of adjacent cores in
/// a multi-program interleave: 1GB, clear of the whole synthetic
/// program image (code at [`crate::spec::CODE_BASE`], data at
/// [`crate::spec::DATA_BASE`] — both below 1GB), while keeping
/// per-core tags distinct in the L1s' 26-bit tag field for up to 64
/// cores.
pub const CORE_ADDRESS_STRIDE: u64 = 1 << 30;

/// A trace source relocated into a private address window.
///
/// The synthetic generators lay every program out at the same virtual
/// base, so two cores running *any* two benchmarks would share cache
/// lines in a common hierarchy. A multi-program workload runs each
/// program in its own physical window instead: `Rebased` shifts every
/// fetch and data address by the core's offset, turning co-scheduled
/// programs into the disjoint working sets a shared L2 actually sees.
#[derive(Debug, Clone)]
pub struct Rebased<S> {
    source: S,
    offset: u64,
}

impl<S: TraceSource> TraceSource for Rebased<S> {
    fn next_entry(&mut self) -> Option<TraceEntry> {
        self.source.next_entry().map(|mut entry| {
            entry.pc += self.offset;
            if let Some(access) = &mut entry.access {
                access.addr += self.offset;
            }
            entry
        })
    }
}

/// Relocates `source` into `core`'s private address window
/// (`core * `[`CORE_ADDRESS_STRIDE`]).
pub fn rebased<S: TraceSource>(source: S, core: usize) -> Rebased<S> {
    Rebased {
        source,
        offset: core as u64 * CORE_ADDRESS_STRIDE,
    }
}

/// Derives the trace seed of one core from a run's base seed.
///
/// The multiplier is the 64-bit golden-ratio constant, so adjacent
/// core indices land in unrelated parts of the seed space (two cores
/// running the same benchmark must not replay the same stream), while
/// the mapping stays a pure function of `(base_seed, core)`.
pub fn per_core_seed(base_seed: u64, core: usize) -> u64 {
    base_seed ^ (core as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A round-robin interleaver over N independent trace sources,
/// yielding `(core, entry)` pairs until every source is drained.
#[derive(Debug, Clone)]
pub struct Interleave<S> {
    sources: Vec<S>,
    done: Vec<bool>,
    cursor: usize,
    exhausted: usize,
}

impl<S: TraceSource> Interleave<S> {
    /// Interleaves `sources` round-robin, core 0 first.
    pub fn new(sources: Vec<S>) -> Interleave<S> {
        let n = sources.len();
        Interleave {
            sources,
            done: vec![false; n],
            cursor: 0,
            exhausted: 0,
        }
    }

    /// Number of interleaved sources (cores).
    pub fn width(&self) -> usize {
        self.sources.len()
    }
}

impl<S: TraceSource> Iterator for Interleave<S> {
    type Item = (usize, TraceEntry);

    fn next(&mut self) -> Option<(usize, TraceEntry)> {
        while self.exhausted < self.sources.len() {
            let core = self.cursor;
            self.cursor = (self.cursor + 1) % self.sources.len();
            if self.done[core] {
                continue;
            }
            match self.sources[core].next_entry() {
                Some(entry) => return Some((core, entry)),
                None => {
                    self.done[core] = true;
                    self.exhausted += 1;
                }
            }
        }
        None
    }
}

/// Builds the multi-program trace sources for `benchmarks` (one per
/// core): synthetic traces of `instructions` entries each, seeded per
/// core via [`per_core_seed`] and relocated into disjoint address
/// windows via [`rebased`].
pub fn multiprogram_sources(
    benchmarks: &[crate::Benchmark],
    instructions: u64,
    base_seed: u64,
) -> Vec<Rebased<crate::Trace>> {
    benchmarks
        .iter()
        .enumerate()
        .map(|(core, b)| rebased(b.trace(instructions, per_core_seed(base_seed, core)), core))
        .collect()
}

/// Interleaves `benchmarks` (one per core) round-robin — the
/// [`multiprogram_sources`] behind a single `(core, entry)` stream.
pub fn interleave_benchmarks(
    benchmarks: &[crate::Benchmark],
    instructions: u64,
    base_seed: u64,
) -> Interleave<Rebased<crate::Trace>> {
    Interleave::new(multiprogram_sources(benchmarks, instructions, base_seed))
}

/// Why a multi-program replay could not be interleaved: one of the
/// sources failed to parse. The simulation never starts — a malformed
/// line surfaces here as a typed error instead of truncating one
/// core's stream mid-run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterleaveError {
    /// Index of the offending source (the core it was destined for).
    pub source: usize,
    /// What was wrong with it.
    pub error: ReplayError,
}

impl fmt::Display for InterleaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace source {}: {}", self.source, self.error)
    }
}

impl Error for InterleaveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.error)
    }
}

/// Parses one replay text per core and interleaves them round-robin.
///
/// Parsing is eager (as in [`Replay::from_text`]), so every format
/// error in every source is surfaced before any entry is yielded.
///
/// # Errors
///
/// Returns an [`InterleaveError`] naming the first source that failed
/// to parse and the underlying [`ReplayError`].
pub fn interleave_replay_texts<'a>(
    texts: impl IntoIterator<Item = &'a str>,
) -> Result<Interleave<Replay>, InterleaveError> {
    let sources = texts
        .into_iter()
        .enumerate()
        .map(|(source, text)| {
            Replay::from_text(text).map_err(|error| InterleaveError { source, error })
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Interleave::new(sources))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::write_trace;
    use crate::Benchmark;

    #[test]
    fn round_robin_rotates_and_drains() {
        let texts = ["10\n14\n18\n", "20\n", "30\n34\n"];
        let tagged: Vec<(usize, u64)> = interleave_replay_texts(texts)
            .expect("well-formed sources")
            .map(|(core, e)| (core, e.pc))
            .collect();
        // Full first round, then source 1 drops out, then source 2.
        assert_eq!(
            tagged,
            [
                (0, 0x10),
                (1, 0x20),
                (2, 0x30),
                (0, 0x14),
                (2, 0x34),
                (0, 0x18),
            ]
        );
    }

    #[test]
    fn empty_width_yields_nothing() {
        let mut empty: Interleave<crate::Trace> = Interleave::new(Vec::new());
        assert_eq!(empty.width(), 0);
        assert_eq!(empty.next(), None);
    }

    #[test]
    fn per_core_seeds_decorrelate_identical_programs() {
        // Two cores running the same benchmark from the same base
        // seed must not fetch identical streams.
        let a: Vec<_> = Benchmark::GsmC.trace(1_000, per_core_seed(7, 0)).collect();
        let b: Vec<_> = Benchmark::GsmC.trace(1_000, per_core_seed(7, 1)).collect();
        assert_ne!(a, b);
        // ...but the derivation is deterministic.
        assert_eq!(per_core_seed(7, 3), per_core_seed(7, 3));
        assert_ne!(per_core_seed(7, 3), per_core_seed(8, 3));
    }

    #[test]
    fn interleaved_benchmarks_cover_every_core() {
        let benches = [Benchmark::AdpcmC, Benchmark::GsmC, Benchmark::Mpeg2D];
        let mut counts = [0u64; 3];
        for (core, _) in interleave_benchmarks(&benches, 100, 5) {
            counts[core] += 1;
        }
        assert_eq!(counts, [100, 100, 100]);
    }

    #[test]
    fn rebasing_gives_each_core_a_private_window() {
        let benches = [Benchmark::GsmC, Benchmark::GsmC];
        for (core, entry) in interleave_benchmarks(&benches, 2_000, 3) {
            let window = core as u64 * CORE_ADDRESS_STRIDE;
            assert!(
                entry.pc >= window && entry.pc < window + CORE_ADDRESS_STRIDE,
                "core {core}: pc {:#x} outside its window",
                entry.pc
            );
            if let Some(a) = entry.access {
                assert!(
                    a.addr >= window && a.addr < window + CORE_ADDRESS_STRIDE,
                    "core {core}: addr {:#x} outside its window",
                    a.addr
                );
            }
        }
        // Core 0's window is untouched: rebasing by zero is identity.
        let plain: Vec<_> = Benchmark::GsmC.trace(100, per_core_seed(3, 0)).collect();
        let mut source = multiprogram_sources(&benches, 100, 3).remove(0);
        let mut based = Vec::new();
        while let Some(entry) = source.next_entry() {
            based.push(entry);
        }
        assert_eq!(plain, based);
    }

    #[test]
    fn malformed_source_is_a_typed_error_not_a_truncation() {
        // Source 1 of 3 carries a malformed line: the interleaver must
        // refuse to start, naming the source and the line.
        let good = write_trace(Benchmark::AdpcmC.trace(50, 1));
        let bad = format!("{good}not-a-line x\n");
        let texts = [good.as_str(), bad.as_str(), good.as_str()];
        let err = interleave_replay_texts(texts).expect_err("must surface the parse error");
        assert_eq!(err.source, 1);
        match &err.error {
            ReplayError::Malformed { line, .. } => assert_eq!(*line, 51),
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert!(err.to_string().contains("trace source 1"));
        use std::error::Error as _;
        assert!(err.source().is_some(), "the ReplayError must be chained");
    }
}
