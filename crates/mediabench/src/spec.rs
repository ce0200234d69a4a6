//! Structural workload specifications: code footprint, data regions
//! and access-pattern parameters for each modeled benchmark.

use crate::Benchmark;

/// Cache-requirement class of a benchmark (paper Sec. IV-A.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchClass {
    /// Fits very small caches (~1KB); run at ULE mode.
    SmallBench,
    /// Needs larger cache space; run at HP mode.
    BigBench,
}

/// Data-region access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Circular walk advancing `stride` bytes per access (sample
    /// streams, state vectors).
    Sequential {
        /// Bytes advanced per access.
        stride: u64,
    },
    /// Uniformly random word accesses (lookup tables).
    Random,
    /// Pick a random aligned block, walk it with `stride`, then pick
    /// another (image tiles, DCT blocks, motion-search windows).
    BlockRandom {
        /// Block size in bytes (must divide the region size).
        block: u64,
        /// Bytes advanced per access inside the block.
        stride: u64,
    },
}

/// One data region of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Base virtual address (32-byte aligned).
    pub base: u64,
    /// Region size in bytes.
    pub size: u64,
    /// How accesses walk the region.
    pub pattern: Pattern,
    /// Fraction of all data accesses landing in this region.
    pub weight: f64,
}

/// The full structural spec of a synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// MediaBench-style program name.
    pub name: &'static str,
    /// SmallBench or BigBench.
    pub class: BenchClass,
    /// Total instruction footprint, bytes (4-byte instructions).
    pub code_bytes: u64,
    /// Bytes of the hot inner loop (sequentially refetched).
    pub hot_code_bytes: u64,
    /// Per-instruction probability of a burst into cold helper code.
    pub helper_prob: f64,
    /// Fraction of instructions performing a data access.
    pub access_ratio: f64,
    /// Fraction of data accesses that are writes.
    pub write_fraction: f64,
    /// The data regions, weights summing to 1.
    pub regions: Vec<Region>,
}

impl WorkloadSpec {
    /// Total data working-set size, bytes.
    pub fn data_bytes(&self) -> u64 {
        self.regions.iter().map(|r| r.size).sum()
    }

    /// Base address of the code segment.
    pub fn code_base(&self) -> u64 {
        CODE_BASE
    }
}

/// All code lives here; 4-byte instructions.
pub const CODE_BASE: u64 = 0x1000_0000;
/// Data regions are laid out upward from here.
pub const DATA_BASE: u64 = 0x2000_0000;

fn layout(regions: Vec<(u64, Pattern, f64)>) -> Vec<Region> {
    let mut base = DATA_BASE;
    let mut out = Vec::with_capacity(regions.len());
    for (size, pattern, weight) in regions {
        // hyvec-lint: allow(no-panic, "region tables are compile-time constants in this module; misalignment is a spec-table typo")
        assert!(size % 32 == 0, "region sizes must be line-aligned");
        out.push(Region {
            base,
            size,
            pattern,
            weight,
        });
        // Separate regions by a guard gap, keeping 32-byte alignment.
        base += size + 0x100;
    }
    let total: f64 = out.iter().map(|r| r.weight).sum();
    // hyvec-lint: allow(no-panic, "region tables are compile-time constants in this module; a bad weight sum is a spec-table typo")
    assert!((total - 1.0).abs() < 1e-9, "region weights must sum to 1");
    out
}

/// Builds the spec for `bench`. Region sizes follow the working-set
/// structure of the original programs scaled to the paper's setting:
/// SmallBench total footprints stay within ~1KB of data and ~1KB of
/// code; BigBench spans several KB.
pub fn spec_for(bench: Benchmark) -> WorkloadSpec {
    use Pattern::*;
    match bench {
        // ADPCM: byte-stream codec with a tiny predictor state.
        Benchmark::AdpcmC => WorkloadSpec {
            name: "adpcm_c",
            class: BenchClass::SmallBench,
            code_bytes: 512,
            hot_code_bytes: 352,
            helper_prob: 0.004,
            access_ratio: 0.30,
            write_fraction: 0.25,
            regions: layout(vec![
                (96, Sequential { stride: 4 }, 0.30),  // predictor state
                (448, Sequential { stride: 1 }, 0.45), // input samples
                (384, Sequential { stride: 4 }, 0.25), // packed output
            ]),
        },
        Benchmark::AdpcmD => WorkloadSpec {
            name: "adpcm_d",
            class: BenchClass::SmallBench,
            code_bytes: 480,
            hot_code_bytes: 320,
            helper_prob: 0.004,
            access_ratio: 0.28,
            write_fraction: 0.30,
            regions: layout(vec![
                (96, Sequential { stride: 4 }, 0.30),  // predictor state
                (384, Sequential { stride: 4 }, 0.30), // packed input
                (448, Sequential { stride: 1 }, 0.40), // decoded samples
            ]),
        },
        // EPIC: wavelet image codec on small tiles plus Huffman tables.
        Benchmark::EpicC => WorkloadSpec {
            name: "epic_c",
            class: BenchClass::SmallBench,
            code_bytes: 896,
            hot_code_bytes: 512,
            helper_prob: 0.006,
            access_ratio: 0.34,
            write_fraction: 0.30,
            regions: layout(vec![
                (
                    576,
                    BlockRandom {
                        block: 64,
                        stride: 8,
                    },
                    0.55,
                ), // image tile
                (256, Random, 0.30),                  // huffman table
                (96, Sequential { stride: 4 }, 0.15), // bitstream out
            ]),
        },
        Benchmark::EpicD => WorkloadSpec {
            name: "epic_d",
            class: BenchClass::SmallBench,
            code_bytes: 832,
            hot_code_bytes: 480,
            helper_prob: 0.006,
            access_ratio: 0.32,
            write_fraction: 0.33,
            regions: layout(vec![
                (96, Sequential { stride: 4 }, 0.15), // bitstream in
                (256, Random, 0.30),                  // huffman table
                (
                    576,
                    BlockRandom {
                        block: 64,
                        stride: 8,
                    },
                    0.55,
                ), // reconstructed tile
            ]),
        },
        // G.721: table-driven speech codec.
        Benchmark::G721C => WorkloadSpec {
            name: "g721_c",
            class: BenchClass::BigBench,
            code_bytes: 1536,
            hot_code_bytes: 960,
            helper_prob: 0.010,
            access_ratio: 0.36,
            write_fraction: 0.22,
            regions: layout(vec![
                (2048, Random, 0.45),                   // quantizer tables
                (512, Sequential { stride: 4 }, 0.35),  // adaptive state
                (1024, Sequential { stride: 2 }, 0.20), // sample buffers
            ]),
        },
        Benchmark::G721D => WorkloadSpec {
            name: "g721_d",
            class: BenchClass::BigBench,
            code_bytes: 1472,
            hot_code_bytes: 928,
            helper_prob: 0.010,
            access_ratio: 0.35,
            write_fraction: 0.24,
            regions: layout(vec![
                (2048, Random, 0.45),
                (512, Sequential { stride: 4 }, 0.35),
                (1024, Sequential { stride: 2 }, 0.20),
            ]),
        },
        // GSM 06.10: frame-based LPC codec with LTP search.
        Benchmark::GsmC => WorkloadSpec {
            name: "gsm_c",
            class: BenchClass::BigBench,
            code_bytes: 2560,
            hot_code_bytes: 1280,
            helper_prob: 0.012,
            access_ratio: 0.38,
            write_fraction: 0.20,
            regions: layout(vec![
                (
                    4096,
                    BlockRandom {
                        block: 256,
                        stride: 2,
                    },
                    0.50,
                ), // speech frames + LTP window
                (1024, Random, 0.30),                  // codec tables
                (512, Sequential { stride: 4 }, 0.20), // filter state
            ]),
        },
        Benchmark::GsmD => WorkloadSpec {
            name: "gsm_d",
            class: BenchClass::BigBench,
            code_bytes: 2432,
            hot_code_bytes: 1216,
            helper_prob: 0.012,
            access_ratio: 0.36,
            write_fraction: 0.24,
            regions: layout(vec![
                (
                    4096,
                    BlockRandom {
                        block: 256,
                        stride: 2,
                    },
                    0.50,
                ),
                (1024, Random, 0.30),
                (512, Sequential { stride: 4 }, 0.20),
            ]),
        },
        // MPEG-2: block DCT + motion compensation over frame buffers.
        Benchmark::Mpeg2C => WorkloadSpec {
            name: "mpeg2_c",
            class: BenchClass::BigBench,
            code_bytes: 4096,
            hot_code_bytes: 1792,
            helper_prob: 0.015,
            access_ratio: 0.40,
            write_fraction: 0.22,
            regions: layout(vec![
                (
                    8192,
                    BlockRandom {
                        block: 1024,
                        stride: 8,
                    },
                    0.45,
                ), // frame / motion window
                (2048, Random, 0.25),                  // quant + zigzag tables
                (512, Sequential { stride: 4 }, 0.30), // DCT block buffer
            ]),
        },
        Benchmark::Mpeg2D => WorkloadSpec {
            name: "mpeg2_d",
            class: BenchClass::BigBench,
            code_bytes: 3840,
            hot_code_bytes: 1664,
            helper_prob: 0.015,
            access_ratio: 0.38,
            write_fraction: 0.26,
            regions: layout(vec![
                (
                    8192,
                    BlockRandom {
                        block: 1024,
                        stride: 8,
                    },
                    0.45,
                ),
                (2048, Random, 0.25),
                (512, Sequential { stride: 4 }, 0.30),
            ]),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_are_well_formed() {
        for b in Benchmark::ALL {
            let s = b.spec();
            assert_eq!(s.name, b.name());
            assert_eq!(s.class, b.class());
            assert!(s.hot_code_bytes > 0, "{b}: empty hot loop");
            assert!(s.hot_code_bytes <= s.code_bytes, "{b}");
            assert!(s.code_bytes % 4 == 0 && s.hot_code_bytes % 4 == 0, "{b}");
            assert!(s.access_ratio > 0.0 && s.access_ratio < 1.0, "{b}");
            assert!(s.write_fraction > 0.0 && s.write_fraction < 1.0, "{b}");
            let w: f64 = s.regions.iter().map(|r| r.weight).sum();
            assert!((w - 1.0).abs() < 1e-9, "{b}: weights sum to {w}");
            for r in &s.regions {
                assert_eq!(r.base % 32, 0, "{b}: region base unaligned");
                assert!(r.size > 0, "{b}: empty region");
                match r.pattern {
                    Pattern::Random => assert!(r.size >= 4, "{b}: random region under a word"),
                    Pattern::BlockRandom { block, stride } => {
                        assert!(block > 0 && block <= r.size, "{b}: block outside region");
                        assert!(r.size % block == 0, "{b}: block does not tile region");
                        assert!(stride > 0 && stride <= block, "{b}: bad block stride");
                    }
                    Pattern::Sequential { .. } => {}
                }
            }
        }
    }

    #[test]
    fn working_set_sizes_match_classes() {
        for b in Benchmark::SMALL {
            let s = b.spec();
            assert!(
                s.data_bytes() <= 1024,
                "{b}: SmallBench data {}B exceeds 1KB",
                s.data_bytes()
            );
            assert!(s.code_bytes <= 1024, "{b}: SmallBench code too large");
        }
        for b in Benchmark::BIG {
            let s = b.spec();
            assert!(
                s.data_bytes() >= 2048,
                "{b}: BigBench data {}B suspiciously small",
                s.data_bytes()
            );
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        for b in Benchmark::ALL {
            let s = b.spec();
            for (i, a) in s.regions.iter().enumerate() {
                for bgn in s.regions.iter().skip(i + 1) {
                    let a_end = a.base + a.size;
                    let b_end = bgn.base + bgn.size;
                    assert!(
                        a_end <= bgn.base || b_end <= a.base,
                        "{b}: overlapping regions"
                    );
                }
            }
        }
    }

    #[test]
    fn code_and_data_are_disjoint() {
        for b in Benchmark::ALL {
            let s = b.spec();
            assert!(s.code_base() + s.code_bytes <= DATA_BASE);
        }
    }
}
