//! The deterministic trace generator: turns a [`WorkloadSpec`] into a
//! stream of fetched instructions with optional data accesses.

use crate::spec::{Pattern, Region, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Anything that can feed the simulation engine executed
/// instructions, one [`TraceEntry`] at a time.
///
/// The engine (`hyvec_cachesim::System::run`) is generic over this
/// trait, so the synthetic generator ([`Trace`]), a recorded file
/// replayed through [`crate::replay::Replay`], and any plain iterator
/// of entries are interchangeable inputs. Every
/// `Iterator<Item = TraceEntry>` is a `TraceSource` via the blanket
/// implementation below.
pub trait TraceSource {
    /// The next executed instruction, or `None` at end of trace.
    fn next_entry(&mut self) -> Option<TraceEntry>;
}

impl<I: Iterator<Item = TraceEntry>> TraceSource for I {
    // Inline places a copy beside each engine loop that pulls from `I`.
    // One shared copy can land in the codegen unit of another loop over
    // the same iterator and cost that loop its inlined `next`.
    #[inline]
    fn next_entry(&mut self) -> Option<TraceEntry> {
        self.next()
    }
}

/// One data memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DataAccess {
    /// Byte address of the access.
    pub addr: u64,
    /// Access width in bytes (1–8).
    pub size: u8,
    /// `true` for a store, `false` for a load.
    pub is_write: bool,
}

/// One executed instruction: a fetch plus an optional data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceEntry {
    /// Program counter of the fetched instruction.
    pub pc: u64,
    /// The data access performed by the instruction, if any.
    pub access: Option<DataAccess>,
}

/// A probability as an integer threshold on the 53-bit draws behind
/// `rng.gen::<f64>()`.
///
/// That draw is `(next_u64() >> 11) as f64 * 2^-53`, exact for every
/// 53-bit `k`, so `k * 2^-53 < p` holds exactly when
/// `k < ceil(p * 2^53)`. Scaling by a power of two is exact too, and
/// the saturating cast sends `p <= 0` and NaN to 0 (never) and `p >= 1`
/// past every draw (always). The integer compare therefore gives the
/// float compare's answer on the same RNG stream.
#[derive(Debug, Clone, Copy)]
struct Threshold(u64);

impl Threshold {
    fn new(p: f64) -> Threshold {
        Threshold((p * (1u64 << 53) as f64).ceil() as u64)
    }

    /// Whether the 53-bit draw `k` falls below the probability.
    fn admits(self, k: u64) -> bool {
        k < self.0
    }
}

/// `x % len`, dividing only once `x` has reached `len`.
fn wrap(x: u64, len: u64) -> u64 {
    if x < len {
        x
    } else {
        x % len
    }
}

/// One data region and the state of its walk.
#[derive(Debug, Clone)]
struct Walk {
    region: Region,
    /// The cumulative weight up to this region: a pick draw it admits
    /// (and no earlier region's does) selects the region.
    pick: Threshold,
    /// Offset of the next access: in the region, or in the current
    /// block for `BlockRandom`.
    cursor: u64,
    /// Offset of the current `BlockRandom` block (`u64::MAX` before
    /// the first).
    block_base: u64,
}

/// Iterator over a synthetic instruction trace.
///
/// The generator models a hot inner loop fetched sequentially (with
/// wraparound) that occasionally bursts into cold helper code, and a
/// weighted mix of data regions each walked by its own pattern
/// cursor. Identical `(spec, instructions, seed)` yield identical
/// traces.
#[derive(Debug, Clone)]
pub struct Trace {
    remaining: u64,
    rng: SmallRng,
    code_base: u64,
    /// Bytes of the hot loop, then of the cold helper code after it.
    hot_bytes: u64,
    cold_bytes: u64,
    /// Chances of a helper burst and of a data access per instruction,
    /// and of a store per access.
    helper: Threshold,
    access: Threshold,
    write: Threshold,
    /// Byte offset of the next fetch within the hot loop.
    hot_offset: u64,
    /// Remaining instructions of a cold-code burst (0 = in hot loop).
    cold_burst: u32,
    /// Byte offset of the next cold fetch, before it wraps.
    cold_offset: u64,
    /// One walk per region, in spec order.
    walks: Vec<Walk>,
}

impl Trace {
    /// Creates a trace of `instructions` entries from `spec` with a
    /// deterministic `seed`.
    ///
    /// # Panics
    ///
    /// `new` accepts any spec, but the trace panics, mid-stream, at the
    /// first draw that needs a value an ill-formed spec cannot give:
    ///
    /// * `hot_code_bytes` is 0: the first hot-loop fetch divides by
    ///   zero;
    /// * a [`Pattern::Random`] region is smaller than 4 bytes: its
    ///   first access draws from an empty range;
    /// * a [`Pattern::BlockRandom`] `block` is 0 (its first access
    ///   divides by zero) or larger than the region (its first access
    ///   draws from an empty range);
    /// * a [`Pattern::Sequential`] region is empty (its first access
    ///   divides by zero), or `regions` is empty while
    ///   `access_ratio > 0` (the first access finds no region).
    pub fn new(spec: WorkloadSpec, instructions: u64, seed: u64) -> Self {
        let mut acc = 0.0;
        let walks = spec
            .regions
            .iter()
            .map(|&region| {
                acc += region.weight;
                Walk {
                    region,
                    pick: Threshold::new(acc),
                    cursor: 0,
                    block_base: u64::MAX,
                }
            })
            .collect();
        Trace {
            remaining: instructions,
            rng: SmallRng::seed_from_u64(seed ^ 0x5DEE_CE66_D1CE_5EED),
            code_base: spec.code_base(),
            hot_bytes: spec.hot_code_bytes,
            cold_bytes: spec.code_bytes.saturating_sub(spec.hot_code_bytes),
            helper: Threshold::new(spec.helper_prob),
            access: Threshold::new(spec.access_ratio),
            write: Threshold::new(spec.write_fraction),
            hot_offset: 0,
            cold_burst: 0,
            cold_offset: 0,
            walks,
        }
    }

    /// The 53 random bits behind one `rng.gen::<f64>()`.
    fn draw(&mut self) -> u64 {
        self.rng.next_u64() >> 11
    }

    fn next_pc(&mut self) -> u64 {
        if self.cold_burst == 0 && self.cold_bytes >= 4 && self.helper.admits(self.draw()) {
            // Enter a helper burst at a random cold entry point.
            self.cold_burst = self.rng.gen_range(8..=24);
            self.cold_offset = self.rng.gen_range(0..self.cold_bytes / 4) * 4;
        }
        if self.cold_burst > 0 {
            // Walking helper code.
            self.cold_burst -= 1;
            let pc = self.code_base + self.hot_bytes + wrap(self.cold_offset, self.cold_bytes);
            self.cold_offset = self.cold_offset.wrapping_add(4);
            return pc;
        }
        let pc = self.code_base + self.hot_offset;
        self.hot_offset = wrap(self.hot_offset + 4, self.hot_bytes);
        pc
    }

    fn next_access(&mut self) -> DataAccess {
        // Select a region by cumulative weight; a draw no threshold
        // admits (weights summing below 1) falls to the last region.
        let k = self.draw();
        let idx = self
            .walks
            .iter()
            .position(|w| w.pick.admits(k))
            .unwrap_or(self.walks.len() - 1);
        let walk = &mut self.walks[idx];
        let region = walk.region;
        let (addr, size) = match region.pattern {
            Pattern::Sequential { stride } => {
                let a = region.base + walk.cursor;
                walk.cursor = wrap(walk.cursor + stride, region.size);
                (a, stride.clamp(1, 4) as u8)
            }
            Pattern::Random => {
                let words = region.size / 4;
                let a = region.base + self.rng.gen_range(0..words) * 4;
                (a, 4)
            }
            Pattern::BlockRandom { block, stride } => {
                if walk.block_base == u64::MAX || walk.cursor >= block {
                    let blocks = region.size / block;
                    walk.block_base = self.rng.gen_range(0..blocks) * block;
                    walk.cursor = 0;
                }
                let a = region.base + walk.block_base + walk.cursor;
                walk.cursor += stride;
                (a, stride.clamp(1, 4) as u8)
            }
        };
        let is_write = self.write.admits(self.draw());
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
        let access = if self.access.admits(self.draw()) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use crate::spec::{BenchClass, DATA_BASE};
    use crate::Benchmark;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn length_is_exact() {
        let t = Benchmark::GsmC.trace(12_345, 0);
        assert_eq!(t.len(), 12_345);
        assert_eq!(t.count(), 12_345);
    }

    #[test]
    fn pcs_stay_inside_the_code_segment() {
        let spec = Benchmark::Mpeg2C.spec();
        let lo = spec.code_base();
        let hi = lo + spec.code_bytes;
        for e in Benchmark::Mpeg2C.trace(50_000, 11) {
            assert!(e.pc >= lo && e.pc < hi, "pc {:#x} out of code", e.pc);
            assert_eq!(e.pc % 4, 0, "unaligned pc");
        }
    }

    #[test]
    fn data_addresses_stay_inside_declared_regions() {
        for b in [Benchmark::AdpcmC, Benchmark::G721D, Benchmark::Mpeg2D] {
            let spec = b.spec();
            for e in b.trace(50_000, 5) {
                if let Some(a) = e.access {
                    let inside = spec
                        .regions
                        .iter()
                        .any(|r| a.addr >= r.base && a.addr < r.base + r.size);
                    assert!(inside, "{b}: addr {:#x} outside all regions", a.addr);
                }
            }
        }
    }

    #[test]
    fn hot_loop_dominates_fetches() {
        let spec = Benchmark::AdpcmC.spec();
        let hot_end = spec.code_base() + spec.hot_code_bytes;
        let n = 100_000u64;
        let hot = Benchmark::AdpcmC
            .trace(n, 3)
            .filter(|e| e.pc < hot_end)
            .count() as f64;
        assert!(
            hot / n as f64 > 0.85,
            "hot-loop fraction too low: {}",
            hot / n as f64
        );
    }

    #[test]
    fn all_regions_get_visited() {
        let spec = Benchmark::EpicC.spec();
        let mut hit = vec![false; spec.regions.len()];
        for e in Benchmark::EpicC.trace(20_000, 1) {
            if let Some(a) = e.access {
                for (i, r) in spec.regions.iter().enumerate() {
                    if a.addr >= r.base && a.addr < r.base + r.size {
                        hit[i] = true;
                    }
                }
            }
        }
        assert!(hit.iter().all(|&h| h), "unvisited regions: {hit:?}");
    }

    #[test]
    fn block_random_walks_blocks_sequentially() {
        // Consecutive accesses to a BlockRandom region inside one block
        // advance by the stride.
        let spec = Benchmark::Mpeg2C.spec();
        let region = spec.regions[0];
        let (block, stride) = match region.pattern {
            Pattern::BlockRandom { block, stride } => (block, stride),
            other => panic!("expected BlockRandom, got {other:?}"),
        };
        let addrs: Vec<u64> = Benchmark::Mpeg2C
            .trace(200_000, 9)
            .filter_map(|e| e.access)
            .map(|a| a.addr)
            .filter(|&a| a >= region.base && a < region.base + region.size)
            .collect();
        assert!(addrs.len() > 100);
        let mut sequential_pairs = 0usize;
        for w in addrs.windows(2) {
            if w[1] == w[0] + stride && (w[0] - region.base) % block != block - stride {
                sequential_pairs += 1;
            }
        }
        assert!(
            sequential_pairs * 2 > addrs.len(),
            "block walks not sequential: {sequential_pairs}/{}",
            addrs.len()
        );
    }

    #[test]
    fn size_hint_is_exact() {
        let mut t = Benchmark::AdpcmD.trace(10, 0);
        assert_eq!(t.size_hint(), (10, Some(10)));
        t.next();
        assert_eq!(t.size_hint(), (9, Some(9)));
    }

    /// Runs `trace` to its end: the entries it yielded and, if it
    /// panicked, the panic message.
    fn drain(trace: impl Iterator<Item = TraceEntry>) -> (Vec<TraceEntry>, Option<String>) {
        let mut entries = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            for entry in trace {
                entries.push(entry);
            }
        }));
        let message = outcome.err().map(|payload| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default()
        });
        (entries, message)
    }

    /// Checks the generator against the reference, entry for entry and
    /// panic for panic; returns the panic message, if any.
    fn matches_reference(spec: &WorkloadSpec, instructions: u64, seed: u64) -> Option<String> {
        let (got, got_panic) = drain(Trace::new(spec.clone(), instructions, seed));
        let (want, want_panic) = drain(reference::Trace::new(spec.clone(), instructions, seed));
        let at = format!("{} ({instructions} entries, seed {seed})", spec.name);
        if let Some(i) = got.iter().zip(&want).position(|(g, w)| g != w) {
            panic!(
                "{at}: entry {i} is {:?}, the reference's {:?}",
                got[i], want[i]
            );
        }
        assert_eq!(got.len(), want.len(), "{at}: entry count");
        assert_eq!(got_panic, want_panic, "{at}: panic");
        got_panic
    }

    #[test]
    fn every_benchmark_matches_the_reference() {
        for b in Benchmark::ALL {
            let spec = b.spec();
            for seed in [0, 1, 11, u64::MAX] {
                for instructions in [0, 1, 17, 20_000] {
                    assert_eq!(matches_reference(&spec, instructions, seed), None);
                }
            }
        }
    }

    /// FNV-1a over 64-bit words: per entry its pc, then 0 for no
    /// access, or 1, the address and `size << 1 | is_write`.
    fn digest(entries: impl Iterator<Item = TraceEntry>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |w: u64| h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
        for e in entries {
            eat(e.pc);
            match e.access {
                None => eat(0),
                Some(a) => {
                    eat(1);
                    eat(a.addr);
                    eat((u64::from(a.size) << 1) | u64::from(a.is_write));
                }
            }
        }
        h
    }

    /// Digests of each program's first 100k entries at seeds 1 and 11,
    /// recorded from the generator before its divisions came out.
    const PINNED: [(Benchmark, [u64; 2]); 10] = [
        (
            Benchmark::AdpcmC,
            [0x4499_2cd6_314b_ea38, 0xc9f6_f63d_8843_7439],
        ),
        (
            Benchmark::AdpcmD,
            [0x10d7_76a2_01a7_4ef1, 0xccaa_2345_ff21_65f0],
        ),
        (
            Benchmark::EpicC,
            [0x8166_5362_5f15_a7a9, 0x52c7_1f32_5d5a_5ee1],
        ),
        (
            Benchmark::EpicD,
            [0x368e_1461_74f8_d55e, 0xc826_b029_4f38_197a],
        ),
        (
            Benchmark::G721C,
            [0x1441_4026_63b2_399f, 0xd38d_8597_39ec_ddc4],
        ),
        (
            Benchmark::G721D,
            [0xd60e_3bd9_f050_2a49, 0x1691_67d6_0e24_61ef],
        ),
        (
            Benchmark::GsmC,
            [0xba34_b05c_ed7e_d07b, 0xcabb_8939_4b90_02f0],
        ),
        (
            Benchmark::GsmD,
            [0xf405_c46d_3837_dbf7, 0xffcc_b0e8_7f64_d2b1],
        ),
        (
            Benchmark::Mpeg2C,
            [0xc448_0366_ef22_dcae, 0xffbf_820a_15e2_b06e],
        ),
        (
            Benchmark::Mpeg2D,
            [0xa33d_0784_4af4_832d, 0x2864_0ec7_c377_9a76],
        ),
    ];

    #[test]
    fn first_100k_entries_match_pinned_digests() {
        for (b, digests) in PINNED {
            for (seed, want) in [1, 11].into_iter().zip(digests) {
                assert_eq!(digest(b.trace(100_000, seed)), want, "{b} at seed {seed}");
            }
        }
    }

    /// A hand-built spec: a 256-byte hot loop in `code_bytes` of code,
    /// and `regions` (size, pattern, weight) laid out from `DATA_BASE`.
    fn corner(
        name: &'static str,
        code_bytes: u64,
        regions: &[(u64, Pattern, f64)],
    ) -> WorkloadSpec {
        let mut base = DATA_BASE;
        let regions = regions
            .iter()
            .map(|&(size, pattern, weight)| {
                let region = Region {
                    base,
                    size,
                    pattern,
                    weight,
                };
                base += size + 0x100;
                region
            })
            .collect();
        WorkloadSpec {
            name,
            class: BenchClass::SmallBench,
            code_bytes,
            hot_code_bytes: 256,
            helper_prob: 0.01,
            access_ratio: 0.4,
            write_fraction: 0.3,
            regions,
        }
    }

    #[test]
    fn corner_specs_match_the_reference() {
        use Pattern::*;
        let base = corner(
            "mixed",
            512,
            &[
                (256, Sequential { stride: 4 }, 0.3),
                (128, Random, 0.3),
                (
                    512,
                    BlockRandom {
                        block: 64,
                        stride: 8,
                    },
                    0.4,
                ),
            ],
        );
        let specs = [
            // No cold code, so no helper draw.
            WorkloadSpec {
                name: "no cold code",
                code_bytes: 256,
                ..base.clone()
            },
            // Cold code that is not a whole number of instructions.
            WorkloadSpec {
                name: "ragged cold code",
                code_bytes: 262,
                ..base.clone()
            },
            WorkloadSpec {
                name: "never a helper",
                helper_prob: 0.0,
                ..base.clone()
            },
            WorkloadSpec {
                name: "always a helper",
                helper_prob: 1.0,
                ..base.clone()
            },
            WorkloadSpec {
                name: "never an access",
                access_ratio: 0.0,
                ..base.clone()
            },
            WorkloadSpec {
                name: "always an access",
                access_ratio: 1.0,
                ..base.clone()
            },
            // Weights summing below 1: the rest falls to the last region.
            corner(
                "short weights",
                512,
                &[(256, Sequential { stride: 4 }, 0.2), (128, Random, 0.3)],
            ),
            // Strides larger than their regions wrap by remainder.
            corner(
                "long strides",
                512,
                &[
                    (96, Sequential { stride: 100 }, 0.5),
                    (64, Sequential { stride: 200 }, 0.5),
                ],
            ),
            corner(
                "one block",
                512,
                &[(
                    64,
                    BlockRandom {
                        block: 64,
                        stride: 8,
                    },
                    1.0,
                )],
            ),
            base,
        ];
        for spec in &specs {
            for seed in [1, 11] {
                assert_eq!(matches_reference(spec, 5_000, seed), None);
            }
        }
    }

    #[test]
    fn ill_formed_specs_panic_mid_stream_as_the_reference_does() {
        use Pattern::*;
        let sequential = [(256, Sequential { stride: 4 }, 1.0)];
        let cases = [
            (
                WorkloadSpec {
                    hot_code_bytes: 0,
                    ..corner("no hot loop", 512, &sequential)
                },
                "divisor of zero",
            ),
            (
                corner("random region under 4 bytes", 512, &[(2, Random, 1.0)]),
                "empty range",
            ),
            (
                corner(
                    "block of 0 bytes",
                    512,
                    &[(
                        256,
                        BlockRandom {
                            block: 0,
                            stride: 8,
                        },
                        1.0,
                    )],
                ),
                "divide by zero",
            ),
            (
                corner(
                    "block past its region",
                    512,
                    &[(
                        64,
                        BlockRandom {
                            block: 128,
                            stride: 8,
                        },
                        1.0,
                    )],
                ),
                "empty range",
            ),
            (
                corner(
                    "empty sequential region",
                    512,
                    &[(0, Sequential { stride: 4 }, 1.0)],
                ),
                "divisor of zero",
            ),
            // An overflow in debug builds, an out-of-bounds index in release.
            (corner("no regions", 512, &[]), ""),
        ];
        for (spec, message) in &cases {
            let panic = matches_reference(spec, 1_000, 1);
            assert!(
                panic.as_deref().is_some_and(|m| m.contains(message)),
                "{}: {panic:?}",
                spec.name
            );
        }
    }

    #[test]
    fn thresholds_give_the_float_compare() {
        // `next_u64() >> 11` is always below DRAWS.
        const DRAWS: u64 = 1 << 53;
        let unit = 1.0 / DRAWS as f64;
        for p in [0.0, unit, 0.25, 0.3, 0.875, 1.0, 1.5, f64::NAN] {
            let t = Threshold::new(p);
            let near = [t.0.checked_sub(1), Some(t.0), t.0.checked_add(1)];
            for k in near.into_iter().flatten().chain([0, DRAWS - 1]) {
                if k < DRAWS {
                    assert_eq!(t.admits(k), k as f64 * unit < p, "p = {p}, k = {k}");
                }
            }
        }
    }
}
