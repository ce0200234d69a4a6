//! The multi-program workloads of the multi-core engine.
//!
//! A multi-core run executes N programs at once, one trace source per
//! core; the engine interleaves them round-robin at instruction
//! granularity. Per-core trace seeds are derived with
//! [`per_core_seed`], which mixes the core index into a sweep's base
//! seed so cores running the same benchmark still fetch decorrelated
//! streams; [`rebased`] relocates each program into a private address
//! window ([`CORE_ADDRESS_STRIDE`] apart) so co-scheduled programs
//! present a shared hierarchy with the disjoint working sets of a
//! real multi-programmed machine. [`multiprogram_sources`] does both.
//!
//! # Example
//!
//! ```
//! use hyvec_mediabench::{multiprogram_sources, Benchmark, TraceSource, CORE_ADDRESS_STRIDE};
//!
//! let mut sources = multiprogram_sources(&[Benchmark::GsmC, Benchmark::Mpeg2C], 2, 1);
//! let mut core1_pcs = Vec::new();
//! while let Some(entry) = sources[1].next_entry() {
//!     core1_pcs.push(entry.pc);
//! }
//! assert_eq!(core1_pcs.len(), 2);
//! assert!(core1_pcs.iter().all(|&pc| pc >= CORE_ADDRESS_STRIDE));
//! ```

use crate::trace::{TraceEntry, TraceSource};

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Benchmark;

    /// Every entry of `source`, in order.
    fn drain(mut source: impl TraceSource) -> Vec<TraceEntry> {
        let mut entries = Vec::new();
        while let Some(entry) = source.next_entry() {
            entries.push(entry);
        }
        entries
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
        let counts: Vec<usize> = multiprogram_sources(&benches, 100, 5)
            .into_iter()
            .map(|source| drain(source).len())
            .collect();
        assert_eq!(counts, [100, 100, 100]);
    }

    #[test]
    fn rebasing_gives_each_core_a_private_window() {
        let benches = [Benchmark::GsmC, Benchmark::GsmC];
        for (core, source) in multiprogram_sources(&benches, 2_000, 3)
            .into_iter()
            .enumerate()
        {
            let window = core as u64 * CORE_ADDRESS_STRIDE;
            for entry in drain(source) {
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
        }
        // Core 0's window is untouched: rebasing by zero is identity.
        let plain: Vec<_> = Benchmark::GsmC.trace(100, per_core_seed(3, 0)).collect();
        let based = drain(multiprogram_sources(&benches, 100, 3).remove(0));
        assert_eq!(plain, based);
    }
}
