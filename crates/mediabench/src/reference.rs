//! The trace generator as it was before its hot paths lost their
//! divisions, retained as the oracle for [`crate::trace::Trace`].
//!
//! This copy converts every Bernoulli draw to `f64` before it
//! compares, scans `f64` cumulative weights to pick a region and wraps
//! every cursor with `%`. The production generator must draw the same
//! RNG stream and yield the same entries for every spec, including
//! the ill-formed specs that make both panic. The tests in
//! `trace.rs` check it entry for entry; nothing outside tests
//! compiles this module.

use crate::spec::{Pattern, WorkloadSpec};
use crate::trace::{DataAccess, TraceEntry};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Iterator over a synthetic instruction trace.
///
/// The generator models a hot inner loop fetched sequentially (with
/// wraparound) that occasionally bursts into cold helper code, and a
/// weighted mix of data regions each walked by its own pattern
/// cursor. Identical `(spec, instructions, seed)` yield identical
/// traces.
#[derive(Debug, Clone)]
pub struct Trace {
    spec: WorkloadSpec,
    remaining: u64,
    rng: SmallRng,
    /// Byte offset of the next fetch within the hot loop.
    hot_offset: u64,
    /// Remaining instructions of a cold-code burst (0 = in hot loop).
    cold_burst: u32,
    /// Byte offset of the next cold fetch.
    cold_offset: u64,
    /// Per-region pattern state: (cursor, current block base).
    cursors: Vec<(u64, u64)>,
    /// Cumulative region weights for selection.
    cumweights: Vec<f64>,
}

impl Trace {
    /// Creates a trace of `instructions` entries from `spec` with a
    /// deterministic `seed`.
    pub fn new(spec: WorkloadSpec, instructions: u64, seed: u64) -> Self {
        let mut acc = 0.0;
        let cumweights = spec
            .regions
            .iter()
            .map(|r| {
                acc += r.weight;
                acc
            })
            .collect();
        let cursors = vec![(0u64, u64::MAX); spec.regions.len()];
        Trace {
            remaining: instructions,
            rng: SmallRng::seed_from_u64(seed ^ 0x5DEE_CE66_D1CE_5EED),
            hot_offset: 0,
            cold_burst: 0,
            cold_offset: 0,
            cursors,
            cumweights,
            spec,
        }
    }

    fn next_pc(&mut self) -> u64 {
        let base = self.spec.code_base();
        if self.cold_burst > 0 {
            // Walking helper code.
            self.cold_burst -= 1;
            let cold_len = self.spec.code_bytes - self.spec.hot_code_bytes;
            let pc = base + self.spec.hot_code_bytes + (self.cold_offset % cold_len.max(4));
            self.cold_offset = self.cold_offset.wrapping_add(4);
            return pc;
        }
        let cold_len = self
            .spec
            .code_bytes
            .saturating_sub(self.spec.hot_code_bytes);
        if cold_len >= 4 && self.rng.gen::<f64>() < self.spec.helper_prob {
            // Enter a helper burst at a random cold entry point.
            self.cold_burst = self.rng.gen_range(8..=24);
            let entries = cold_len / 4;
            self.cold_offset = self.rng.gen_range(0..entries) * 4;
            return self.next_pc();
        }
        let pc = base + self.hot_offset;
        self.hot_offset = (self.hot_offset + 4) % self.spec.hot_code_bytes;
        pc
    }

    fn next_access(&mut self) -> DataAccess {
        // Select a region by cumulative weight.
        let x: f64 = self.rng.gen();
        let idx = self
            .cumweights
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.spec.regions.len() - 1);
        let region = self.spec.regions[idx];
        let (cursor, block_base) = &mut self.cursors[idx];
        let (addr, size) = match region.pattern {
            Pattern::Sequential { stride } => {
                let a = region.base + *cursor;
                *cursor = (*cursor + stride) % region.size;
                (a, stride.clamp(1, 4) as u8)
            }
            Pattern::Random => {
                let words = region.size / 4;
                let a = region.base + self.rng.gen_range(0..words) * 4;
                (a, 4)
            }
            Pattern::BlockRandom { block, stride } => {
                if *block_base == u64::MAX || *cursor >= block {
                    let blocks = region.size / block;
                    *block_base = self.rng.gen_range(0..blocks) * block;
                    *cursor = 0;
                }
                let a = region.base + *block_base + *cursor;
                *cursor += stride;
                (a, stride.clamp(1, 4) as u8)
            }
        };
        let is_write = self.rng.gen::<f64>() < self.spec.write_fraction;
        DataAccess {
            addr,
            size,
            is_write,
        }
    }
}

impl Iterator for Trace {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let pc = self.next_pc();
        let access = if self.rng.gen::<f64>() < self.spec.access_ratio {
            Some(self.next_access())
        } else {
            None
        };
        Some(TraceEntry { pc, access })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Trace {}
