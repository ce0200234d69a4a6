//! The in-order core timing model driving both L1 caches.
//!
//! The paper's platform is deliberately simple: one in-order core
//! (resembling the Intel wide-operating-range IA-32 part), split 8KB
//! L1s, ~20-cycle memory. The timing model is correspondingly simple:
//!
//! * one base cycle per instruction (scalar, in-order);
//! * a miss in either L1 stalls for the fill latency the chain below
//!   reports plus the EDC pipeline latency of the fill path (encode
//!   before write);
//! * an EDC *correction* event costs one recovery bubble, and a
//!   sub-word store into an EDC-protected DL1 word one
//!   read-modify-write bubble;
//! * hits are EDC-latency-free: at 200ns ULE cycles the syndrome
//!   logic fits comfortably in the existing pipeline slack, matching
//!   the paper's "negligible (around 3%)" execution-time overhead,
//!   which stems from the fill/correction path.
//!
//! # Counted, then priced
//!
//! Every term of that model is a count times a constant, so time is
//! priced like energy: the loop keeps only counts that no EDC code and
//! no memory latency changes, and one function prices them. The loop
//! counts, per core, its instructions, its L1 lookups whose EDC
//! corrected bits, and its DL1 pieces of sub-word stores (below the
//! 4-byte word); and per L1 and chain, the fill latency the chain
//! reported and the fills memory served. Each L1 counts its own misses.
//! [`RunReport::priced_by`] then derives the timing fields of
//! [`RunStats`] from those counts, each L1's EDC latency `E`
//! ([`CachePower::edc_latency_cycles`](crate::power::CachePower::edc_latency_cycles))
//! and the memory latency `L` ([`PowerModel::memory_latency`]):
//!
//! ```text
//! rmw     = DL1 sub-word pieces if E(DL1) > 0, else 0
//! stall_X = below_X + L * memory fills_X + misses_X * E(X)   X = IL1, DL1
//! cycles  = instructions + corrections + rmw + stall_IL1 + stall_DL1
//! edc_stall_cycles = corrections + rmw + misses_IL1 * E(IL1) + misses_DL1 * E(DL1)
//! ```
//!
//! `il1_stall_cycles` and `dl1_stall_cycles` are the two stalls, and
//! `seconds` is `cycles` at the operating point's cycle time.
//! `below_X` is the latency the chain reported for the L1's fills less
//! the machine's `L` for each fill memory served: the L2 lookups on
//! the way. So a fault-free loop adds no cycles per instruction, and a
//! report re-priced under a power model with other codes or another
//! memory latency is that machine's report. Only a run with soft
//! errors on sums an instruction's cycles in the loop, from the same
//! counts, because its upset draws integrate them.
//!
//! Both engines model that core once, as the crate-private `Core`:
//! [`System`] drives one, and [`MultiCoreSystem`] one per core. One
//! instruction is two phases: the L1 front (`Core::front_entry`),
//! which never observes the chain below, and the chain phase
//! (`apply_fill`), which never observes the L1s. `Core::execute` runs
//! the front and hands each miss to a closure, and that closure is all
//! the two engines differ in: [`System`] prices the miss on the spot
//! against every chain, and the multi-core engine logs it for its
//! epoch merge. One pass of the
//! front can therefore price its misses against several chains at
//! once: [`System::run_chains`] returns the K reports that K separate
//! runs over those chains would, and [`System::run`] is the K = 1
//! instance of the same loop over the system's own chain. Soft-error
//! injection ties a single-core run to one chain, since its exposure
//! includes fill stalls.

use crate::cache::{HybridCache, WordSlot};
use crate::config::{
    CacheConfig, ConfigError, L2Config, MemoryConfig, Mode, SystemConfig, Topology,
};
use crate::hierarchy::{AccessOutcome, AccessRequest, HitDepth, L2Cache, MainMemory, MemoryLevel};
use crate::multicore::{ChainRecipe, MultiCoreSystem, MAX_CORES};
use crate::power::{EnergyBreakdown, PowerModel};
use crate::stats::RunStats;
use hyvec_cachemodel::{OperatingPoint, TechnologyParams};
use hyvec_mediabench::{per_core_seed, TraceEntry, TraceSource};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Default seed of the soft-error RNG (historical constant of
/// `System::new`; [`SystemBuilder::seu`] overrides it). The
/// multi-core engine derives per-core streams from the same seed.
pub(crate) const DEFAULT_SEU_SEED: u64 = 0x5E0_E44;

/// Per-core timing constants hoisted out of the instruction loop
/// (identical across the cores of a [`MultiCoreSystem`], which share
/// one configuration).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CoreTiming {
    /// EDC pipeline latency charged on IL1 fills, cycles.
    pub il1_edc_latency: u32,
    /// EDC pipeline latency charged on DL1 fills, cycles.
    pub dl1_edc_latency: u32,
    /// DL1 line size, for splitting line-crossing data accesses.
    pub dl1_line_bytes: u64,
}

/// Which L1 a chain-bound fill request belongs to (decides the EDC
/// latency charged on top of the composed fill latency and which
/// stall counter absorbs it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReqKind {
    /// An IL1 fetch miss.
    Il1,
    /// A DL1 miss.
    Dl1,
}

/// One chain-bound fill request issued by the L1 front phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChainRequest {
    /// The request as the chain below sees it (a store miss
    /// write-allocates).
    pub access: AccessRequest,
    /// Which L1 missed.
    pub kind: ReqKind,
}

/// What a core counts whatever chain is below it and whatever codes
/// its L1s use: the core's share of the counts a run is priced from
/// (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CoreCounts {
    /// Instructions executed.
    instructions: u64,
    /// L1 lookups whose EDC corrected bits: one recovery bubble each.
    corrections: u64,
    /// DL1 pieces of stores narrower than a word: one
    /// read-modify-write bubble each when the DL1 has an EDC latency.
    subword_stores: u64,
}

impl CoreCounts {
    /// The bubbles of the run so far: one per correction and, when
    /// `rmw`, one per sub-word store piece.
    fn bubbles(&self, rmw: bool) -> u64 {
        self.corrections + if rmw { self.subword_stores } else { 0 }
    }
}

/// The one in-order core of both engines: an IL1/DL1 pair, its
/// soft-error stream, and the counts of a run that no chain below
/// decides. [`System`] drives one; a [`MultiCoreSystem`] drives one per
/// core. The two differ only in the closure they hand
/// [`Core::execute`].
#[derive(Debug)]
pub(crate) struct Core {
    pub il1: HybridCache,
    pub dl1: HybridCache,
    /// The soft-error stream. [`Core::start`] leaves it alone: the
    /// single-core stream persists across runs, while the multi-core
    /// engine re-seeds each core's at the start of every run.
    pub rng: SmallRng,
    /// The run's counts so far.
    counts: CoreCounts,
}

impl Core {
    /// A core over the empty `il1` and `dl1`, its soft-error stream
    /// seeded with `seed`.
    pub(crate) fn new(il1: HybridCache, dl1: HybridCache, seed: u64) -> Core {
        Core {
            il1,
            dl1,
            rng: SmallRng::seed_from_u64(seed),
            counts: CoreCounts::default(),
        }
    }

    /// The start of a run: both L1s flushed and reset into `mode`, the
    /// counts zeroed. The soft-error stream is left alone.
    pub(crate) fn start(&mut self, mode: Mode) {
        self.il1.set_mode(mode);
        self.dl1.set_mode(mode);
        self.il1.reset_stats();
        self.dl1.reset_stats();
        self.counts = CoreCounts::default();
    }

    /// The constants of a run at `mode` under `power`: the core's
    /// timing, and its expected upsets per cycle at `seu_rate` upsets
    /// per stored bit per cycle, over every bit [`ule_exposure_bits`]
    /// counts.
    pub(crate) fn constants(
        &self,
        power: &PowerModel,
        mode: Mode,
        seu_rate: f64,
    ) -> (CoreTiming, f64) {
        let (il1, dl1) = (self.il1.config(), self.dl1.config());
        let timing = CoreTiming {
            il1_edc_latency: power.il1.edc_latency_cycles(mode),
            dl1_edc_latency: power.dl1.edc_latency_cycles(mode),
            dl1_line_bytes: dl1.line_bytes,
        };
        (timing, seu_rate * ule_exposure_bits(il1, dl1) as f64)
    }

    /// One instruction: its L1 front ([`Core::front_entry`]), with
    /// every miss handed to `miss` in program order; then, with soft
    /// errors on, one soft-error draw at `seu` expected upsets per
    /// cycle, over the instruction's core-local cycles plus the stall
    /// cycles `miss` returned.
    ///
    /// The engines differ on purpose, each in its `miss`: [`System`]
    /// resolves each miss on the spot against every chain and returns
    /// the first chain's stall, so its exposure includes fill stalls;
    /// the multi-core engine logs each miss for its epoch merge and
    /// returns 0, so its exposure stays core-local and a core draws its
    /// upsets before its misses reach the chain, on whichever thread
    /// runs it.
    #[inline]
    pub(crate) fn execute(
        &mut self,
        entry: TraceEntry,
        timing: CoreTiming,
        seu: f64,
        mut miss: impl FnMut(ChainRequest) -> u64,
    ) {
        let rmw = timing.dl1_edc_latency > 0;
        let before = self.counts.bubbles(rmw);
        let mut stalls = 0;
        self.front_entry(timing.dl1_line_bytes, entry, |req| stalls += miss(req));
        if seu > 0.0 {
            // The base cycle, the instruction's bubbles and its stalls.
            let cycles = 1 + self.counts.bubbles(rmw) - before + stalls;
            self.inject_seu(seu, cycles);
        }
    }

    /// The timing model of the core, L1 side: counts the instruction,
    /// drives IL1/DL1 and counts each lookup whose EDC corrected bits
    /// and each sub-word store piece. A data access makes one DL1
    /// lookup per line it touches (of `dl1_line_bytes`), each counted
    /// on its own; a zero-size access still makes one.
    ///
    /// Every L1 miss goes to `miss` in program order (IL1 fetch first,
    /// then DL1 lines), and [`apply_fill`] counts it once the chain
    /// outcome is known.
    ///
    /// The L1s never observe the chain and the chain never observes the
    /// L1s, so *when* a miss is resolved moves only when a counter is
    /// incremented, never by how much, and one pass of the L1s can feed
    /// any number of chains.
    #[inline]
    fn front_entry(
        &mut self,
        dl1_line_bytes: u64,
        entry: TraceEntry,
        mut miss: impl FnMut(ChainRequest),
    ) {
        self.counts.instructions += 1;

        let fetch = self.il1.access(entry.pc, false);
        if !fetch.hit {
            let access = AccessRequest::read(entry.pc);
            let kind = ReqKind::Il1;
            miss(ChainRequest { access, kind });
        }
        if fetch.corrected > 0 {
            self.counts.corrections += 1;
        }

        if let Some(access) = entry.access {
            debug_assert!(
                access.size <= 8,
                "DataAccess size {} exceeds the documented 1-8 byte range",
                access.size
            );
            // `CacheConfig::validate` guarantees power-of-two lines.
            let line = dl1_line_bytes;
            let (mut addr, mut remaining) = (access.addr, u64::from(access.size));
            loop {
                // The bytes of this line the access touches.
                let size = remaining.min(line - (addr & (line - 1)));
                let data = self.dl1.access(addr, access.is_write);
                if !data.hit {
                    let access = AccessRequest {
                        addr,
                        is_write: access.is_write,
                    };
                    let kind = ReqKind::Dl1;
                    miss(ChainRequest { access, kind });
                }
                if data.corrected > 0 {
                    self.counts.corrections += 1;
                }
                // A sub-word store into an EDC-protected word needs a
                // read-modify-write to regenerate the check bits; the
                // price decides whether the DL1's code charges it.
                self.counts.subword_stores += u64::from(access.is_write && size < 4);
                remaining -= size;
                if remaining == 0 {
                    break;
                }
                addr = addr.wrapping_add(size);
            }
        }
    }

    /// One soft-error draw for one instruction: `cycles` of exposure at
    /// `seu` expected upsets per cycle. An upset flips one random ULE
    /// bit of the IL1 or the DL1.
    fn inject_seu(&mut self, seu: f64, cycles: u64) {
        if self.rng.gen::<f64>() < seu * cycles as f64 {
            if self.rng.gen::<bool>() {
                inject_random_seu(&mut self.il1, &mut self.rng);
            } else {
                inject_random_seu(&mut self.dl1, &mut self.rng);
            }
        }
    }

    /// The run report of this core over the chain behind `tally`: the
    /// core's counts and L1 counters plus the tally, priced by `power`
    /// at `mode`'s operating point.
    pub(crate) fn report(&self, tally: &ChainTally, power: &PowerModel, mode: Mode) -> RunReport {
        let stats = RunStats {
            instructions: self.counts.instructions,
            il1: *self.il1.stats(),
            dl1: *self.dl1.stats(),
            memory_accesses: tally.memory_fills.iter().sum(),
            below_corrected: tally.below_corrected,
            below_detected: tally.below_detected,
            ..RunStats::default()
        };
        // The fill latency no memory latency prices, modulo 2^64: a
        // custom chain may serve a memory fill faster than the
        // machine's memory latency, and the price adds it back exactly.
        let latency = u64::from(power.memory_latency);
        let below = std::array::from_fn(|l1| {
            let memory = tally.memory_fills[l1].wrapping_mul(latency);
            tally.fill_cycles[l1].wrapping_sub(memory)
        });
        let counts = TimingCounts {
            core: self.counts,
            below,
            memory_fills: tally.memory_fills,
        };
        RunReport::priced(
            stats,
            counts,
            tally.below_pj,
            mode,
            power,
            mode.operating_point(),
        )
    }
}

/// What one chain charges one core over a run, per L1 (`[IL1, DL1]`)
/// where it says so: the fill latency the chain reported, the fills
/// memory served, the EDC events below the L1s, and the energy spent
/// there. A core's report over a chain is its own counts plus this
/// tally, priced ([`Core::report`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChainTally {
    /// Per L1, the latency the chain reported for its fills, cycles.
    fill_cycles: [u64; 2],
    /// Per L1, its fills satisfied at [`HitDepth::Memory`].
    memory_fills: [u64; 2],
    /// EDC corrections the chain reported.
    below_corrected: u64,
    /// Detected uncorrectable EDC events the chain reported.
    below_detected: u64,
    /// Dynamic energy spent below the L1s, pJ (zero for the default
    /// energy-free flat memory); becomes [`RunReport::below_pj`].
    below_pj: f64,
}

/// The chain phase of one request on one chain: counts the composed
/// fill outcome into the issuing core's `tally`, and returns the stall
/// the core pays (the fill latency plus the missing L1's EDC
/// pipeline), which the single-core engine's soft errors integrate.
/// Counterpart of [`Core::front_entry`]; see there.
///
/// The memory fills of both L1s make a core's *demand* memory traffic
/// (`RunStats::memory_accesses`). The multi-core engine reports that
/// figure per core, since the shared chain cannot attribute writebacks
/// to cores; [`System`] replaces it with the chain's own count, which
/// also includes writebacks.
pub(crate) fn apply_fill(
    timing: CoreTiming,
    kind: ReqKind,
    fill: AccessOutcome,
    tally: &mut ChainTally,
) -> u64 {
    tally.below_pj += fill.energy_pj;
    tally.below_corrected += u64::from(fill.corrected);
    tally.below_detected += u64::from(fill.detected);
    let (l1, edc_latency) = match kind {
        ReqKind::Il1 => (0, timing.il1_edc_latency),
        ReqKind::Dl1 => (1, timing.dl1_edc_latency),
    };
    tally.fill_cycles[l1] += u64::from(fill.latency_cycles);
    tally.memory_fills[l1] += u64::from(fill.depth == HitDepth::Memory);
    u64::from(fill.latency_cycles + edc_latency)
}

/// Stored bits of one core exposed to soft errors: every bit (data and
/// tag, payload and check) of the ULE ways of its IL1 and DL1.
fn ule_exposure_bits(il1: &CacheConfig, dl1: &CacheConfig) -> u64 {
    [il1, dl1]
        .iter()
        .map(|c| {
            c.ways
                .iter()
                .filter(|w| w.ule_enabled)
                .map(|w| {
                    c.sets()
                        * (c.words_per_line()
                            * (u64::from(c.word_bits) + w.stored_check_bits() as u64)
                            + u64::from(c.tag_bits)
                            + w.stored_check_bits() as u64)
                })
                .sum::<u64>()
        })
        .sum()
}

/// Flips one uniformly random stored bit among the ULE-way words of
/// one cache (data and tag, payload and check bits alike).
fn inject_random_seu(cache: &mut HybridCache, rng: &mut SmallRng) {
    let config = cache.config().clone();
    let ule_ways: Vec<usize> = config
        .ways
        .iter()
        .enumerate()
        .filter(|(_, w)| w.ule_enabled)
        .map(|(i, _)| i)
        .collect();
    if ule_ways.is_empty() {
        return;
    }
    let way = ule_ways[rng.gen_range(0..ule_ways.len())];
    let set = rng.gen_range(0..config.sets());
    let slot = rng.gen_range(0..=config.words_per_line());
    let spec = config.ways[way];
    let bits = if slot == config.words_per_line() {
        config.tag_bits as usize + spec.stored_check_bits()
    } else {
        config.word_bits as usize + spec.stored_check_bits()
    };
    let bit = rng.gen_range(0..bits) as u32;
    cache.inject_soft_error(WordSlot { way, set, slot }, bit);
}

/// The counts a run's timing is priced from that its [`RunStats`]
/// leaves out (see the module docs): the core's, and per L1
/// (`[IL1, DL1]`) its fills' latency below the memory and its fills
/// memory served. They stay out of every counter list and every
/// rendered report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct TimingCounts {
    core: CoreCounts,
    /// Per L1, the fill latency the chain reported less the machine's
    /// memory latency for each fill memory served, modulo 2^64.
    below: [u64; 2],
    /// Per L1, the fills memory served.
    memory_fills: [u64; 2],
}

/// Result of one simulation run: its counters, and their price under
/// one power model at one operating point.
///
/// The counters decide the price and not the other way round, so a
/// report can be re-priced under another machine's power model and
/// operating point ([`RunReport::priced_by`]). Every report, from any
/// engine, is priced by the one function behind that method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Timing and event statistics.
    pub stats: RunStats,
    /// Energy breakdown over the whole run. The energy spent below the
    /// L1s ([`RunReport::below_pj`]) is folded into `other_pj`, so the
    /// paper's breakdown categories stay stable whatever hierarchy is
    /// configured.
    pub energy: EnergyBreakdown,
    /// Dynamic energy the chain below the L1s (L2, memory) reported,
    /// pJ: the part of `energy.other_pj` no L1 power model prices.
    pub below_pj: f64,
    /// The mode the run executed in.
    pub mode: Mode,
    /// Wall-clock execution time in seconds at the operating point's
    /// frequency.
    pub seconds: f64,
    /// The counts `stats`' timing fields are priced from.
    counts: TimingCounts,
}

impl RunReport {
    /// Energy per instruction, pJ.
    pub fn epi_pj(&self) -> f64 {
        self.energy.epi_pj(self.stats.instructions)
    }

    /// This run's counts priced by `power` at `op`: bit for bit the
    /// report a run of `power`'s machine at `op` returns, when its
    /// configuration shares this run's
    /// [`SystemConfig::behaviour`] key at [`RunReport::mode`], both
    /// machines run fault-free with soft errors off, and their chains
    /// differ at most in the memory latency. Cycles, stalls and
    /// `seconds` are re-priced with `power`'s EDC and memory latencies,
    /// energy with its arrays.
    pub fn priced_by(&self, power: &PowerModel, op: OperatingPoint) -> RunReport {
        RunReport::priced(self.stats, self.counts, self.below_pj, self.mode, power, op)
    }

    /// The one pricing function: the timing fields of `stats` from
    /// `counts` and `power`'s latencies at `mode` (see the module
    /// docs), then the energy at `op`, plus the `below_pj` the chain
    /// below the L1s spent.
    fn priced(
        mut stats: RunStats,
        counts: TimingCounts,
        below_pj: f64,
        mode: Mode,
        power: &PowerModel,
        op: OperatingPoint,
    ) -> RunReport {
        let edc = [&power.il1, &power.dl1].map(|l1| u64::from(l1.edc_latency_cycles(mode)));
        let misses = [stats.il1.misses, stats.dl1.misses];
        let memory_latency = u64::from(power.memory_latency);
        let stalls: [u64; 2] = std::array::from_fn(|l1| {
            let memory = counts.memory_fills[l1] * memory_latency;
            counts.below[l1].wrapping_add(memory) + misses[l1] * edc[l1]
        });
        let bubbles = counts.core.bubbles(edc[1] > 0);
        stats.il1_stall_cycles = stalls[0];
        stats.dl1_stall_cycles = stalls[1];
        stats.edc_stall_cycles = bubbles + misses[0] * edc[0] + misses[1] * edc[1];
        stats.cycles = stats.instructions + bubbles + stalls[0] + stalls[1];
        let mut energy = power.breakdown_at(&stats, mode, op);
        if below_pj > 0.0 {
            energy.other_pj += below_pj;
        }
        RunReport {
            stats,
            energy,
            below_pj,
            mode,
            seconds: stats.cycles as f64 * op.cycle_s(),
            counts,
        }
    }
}

/// The simulated system: core + IL1 + DL1 + the [`MemoryLevel`] chain
/// below them + power model.
#[derive(Debug)]
pub struct System {
    core: Core,
    power: PowerModel,
    /// Soft-error injection: expected upsets per stored bit per cycle
    /// (0 disables). Real rates are ~1e-17/bit/s; experiments
    /// accelerate this by many orders of magnitude to observe events
    /// in feasible simulations.
    seu_rate_per_bit_cycle: f64,
    /// The memory hierarchy beneath both L1s, called once per L1 miss.
    below: Box<dyn MemoryLevel>,
}

/// How a machine is simulated, as opposed to what it models: the
/// options change wall time only, never a counter, so they stay out of
/// every fingerprint. [`SystemBuilder::options`] is their one route
/// into a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Route every L1 access through the full EDC slow path even while
    /// fault-free ([`HybridCache::set_force_slow_path`]).
    pub force_slow_path: bool,
    /// Threads that run the L1 fronts of the multi-core engine
    /// ([`MultiCoreSystem::set_sim_threads`]); 1 runs them inline on
    /// the calling thread, 0 counts as 1.
    pub sim_threads: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            force_slow_path: false,
            sim_threads: 1,
        }
    }
}

/// Fluent, validating constructor for [`System`]: pick the L1s, an
/// optional unified L2, the memory model, soft-error injection and the
/// [`SimOptions`], then [`build`](SystemBuilder::build).
///
/// ```
/// use hyvec_cachesim::config::{L2Config, MemoryConfig, SystemConfig};
/// use hyvec_cachesim::engine::System;
///
/// let l1s = SystemConfig::uniform_6t();
/// let system = System::builder()
///     .il1(l1s.il1.clone())
///     .dl1(l1s.dl1.clone())
///     .l2(L2Config::unified(64))
///     .memory(MemoryConfig::with_latency(80))
///     .seu(1e-9, 7)
///     .build()
///     .expect("valid configuration");
/// # let _ = system;
/// ```
///
/// A builder seeded from a legacy [`SystemConfig`]
/// ([`SystemBuilder::config`]) with no further calls builds a system
/// byte-identical to `System::new(config)`.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    il1: Option<CacheConfig>,
    dl1: Option<CacheConfig>,
    l2: Option<L2Config>,
    memory: MemoryConfig,
    tech: TechnologyParams,
    uncore_ten_t_sizing: f64,
    seu: Option<(f64, u64)>,
    topology: Topology,
    options: SimOptions,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            il1: None,
            dl1: None,
            l2: None,
            memory: MemoryConfig::default(),
            tech: TechnologyParams::nm32(),
            uncore_ten_t_sizing: 2.65,
            seu: None,
            topology: Topology::SharedL2,
            options: SimOptions::default(),
        }
    }
}

impl SystemBuilder {
    /// Seeds the L1s, memory latency, technology and uncore sizing
    /// from a legacy [`SystemConfig`] (the pre-builder configuration
    /// shape). Later calls override individual pieces.
    pub fn config(mut self, config: SystemConfig) -> SystemBuilder {
        self.il1 = Some(config.il1);
        self.dl1 = Some(config.dl1);
        self.memory.latency = config.memory_latency;
        self.tech = config.tech;
        self.uncore_ten_t_sizing = config.uncore_ten_t_sizing;
        self
    }

    /// Sets the instruction-L1 configuration.
    pub fn il1(mut self, config: CacheConfig) -> SystemBuilder {
        self.il1 = Some(config);
        self
    }

    /// Sets the data-L1 configuration.
    pub fn dl1(mut self, config: CacheConfig) -> SystemBuilder {
        self.dl1 = Some(config);
        self
    }

    /// Inserts a unified L2 between the L1s and main memory.
    pub fn l2(mut self, config: L2Config) -> SystemBuilder {
        self.l2 = Some(config);
        self
    }

    /// Sets the main-memory model (latency + per-access energy).
    pub fn memory(mut self, config: MemoryConfig) -> SystemBuilder {
        self.memory = config;
        self
    }

    /// Enables runtime soft-error injection at `rate` expected upsets
    /// per stored bit per cycle, with a deterministic RNG `seed`.
    pub fn seu(mut self, rate: f64, seed: u64) -> SystemBuilder {
        self.seu = Some((rate, seed));
        self
    }

    /// Selects the L2 arrangement of a multi-core build
    /// ([`SystemBuilder::build_multi`]): the default shared L2, or a
    /// private L2 per core with an optional MESI coherence policy.
    /// Ignored by the single-core [`SystemBuilder::build`].
    pub fn topology(mut self, topology: Topology) -> SystemBuilder {
        self.topology = topology;
        self
    }

    /// Sets how the machine is simulated: the forced slow path lands
    /// on every L1 the build creates, and the thread count on the
    /// multi-core engine of [`SystemBuilder::build_multi`]. Counters
    /// are bit-identical under any options.
    pub fn options(mut self, options: SimOptions) -> SystemBuilder {
        self.options = options;
        self
    }

    /// Validates every configured piece and assembles the system (in
    /// HP mode, caches empty).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: a missing L1
    /// ([`ConfigError::MissingCache`]), an invalid L1/L2 geometry, or
    /// an invalid soft-error rate ([`ConfigError::InvalidSeuRate`]).
    pub fn build(self) -> Result<System, ConfigError> {
        let (config, (rate, seed)) = self.validate()?;
        Ok(System {
            core: self.core(&config, seed)?,
            power: PowerModel::new(&config),
            seu_rate_per_bit_cycle: rate,
            below: chain_below(self.l2, self.memory),
        })
    }

    /// Validates the L2 and assembles the chain [`build`](SystemBuilder::build)
    /// puts below the L1s — an L2 over main memory, or bare memory —
    /// on its own, for [`System::run_chains`].
    ///
    /// # Errors
    ///
    /// Returns the L2's geometry error, if any.
    pub fn build_chain(&self) -> Result<Box<dyn MemoryLevel>, ConfigError> {
        if let Some(l2) = &self.l2 {
            l2.validate()?;
        }
        Ok(chain_below(self.l2.clone(), self.memory))
    }

    /// Validates everything but the topology and the L1 geometries,
    /// which [`SystemBuilder::core`] checks, and returns the machine's
    /// configuration with its soft-error rate and seed.
    fn validate(&self) -> Result<(SystemConfig, (f64, u64)), ConfigError> {
        let il1 = self
            .il1
            .clone()
            .ok_or(ConfigError::MissingCache { cache: "il1" })?;
        let dl1 = self
            .dl1
            .clone()
            .ok_or(ConfigError::MissingCache { cache: "dl1" })?;
        if let Some(l2) = &self.l2 {
            l2.validate()?;
        }
        let (rate, seed) = self.seu.unwrap_or((0.0, DEFAULT_SEU_SEED));
        if !rate.is_finite() || rate < 0.0 {
            return Err(ConfigError::InvalidSeuRate);
        }
        let config = SystemConfig {
            il1,
            dl1,
            memory_latency: self.memory.latency,
            tech: self.tech,
            uncore_ten_t_sizing: self.uncore_ten_t_sizing,
        };
        Ok((config, (rate, seed)))
    }

    /// One core over empty HP-mode L1s of `config`, with the slow path
    /// forced when the options ask for it, its soft-error stream seeded
    /// with `seed`: the one constructor of every core of both builds.
    fn core(&self, config: &SystemConfig, seed: u64) -> Result<Core, ConfigError> {
        let l1 = |l1_config: &CacheConfig| -> Result<HybridCache, ConfigError> {
            let mut cache = HybridCache::try_new(l1_config.clone(), Mode::Hp)?;
            cache.set_force_slow_path(self.options.force_slow_path);
            Ok(cache)
        };
        Ok(Core::new(l1(&config.il1)?, l1(&config.dl1)?, seed))
    }

    /// Validates the configuration and assembles a `cores`-core
    /// machine: `cores` private split-L1 front ends (all built from
    /// the same IL1/DL1 configuration) over the configured
    /// [`Topology`] — **one** shared L2/memory chain by default, or a
    /// private L2 per core (optionally MESI-coherent) over one shared
    /// memory. The machine keeps this chain's recipe and builds its
    /// chains fresh for every run, also narrower ones of the same
    /// shape for [`MultiCoreSystem::run_widths`]. See
    /// [`MultiCoreSystem`] for the execution model.
    ///
    /// # Errors
    ///
    /// Everything [`SystemBuilder::build`] rejects, plus
    /// [`ConfigError::NoCores`] when `cores` is zero,
    /// [`ConfigError::TooManyCores`] when it exceeds
    /// [`MAX_CORES`] (both checked before
    /// anything else), and [`ConfigError::MissingCache`] (`"l2"`) when a
    /// private-L2 topology is requested without an L2 geometry.
    pub fn build_multi(self, cores: usize) -> Result<MultiCoreSystem, ConfigError> {
        if cores == 0 {
            return Err(ConfigError::NoCores);
        }
        if cores > MAX_CORES {
            return Err(ConfigError::TooManyCores { cores });
        }
        let (config, (rate, seed)) = self.validate()?;
        let cores = (0..cores)
            .map(|core| self.core(&config, per_core_seed(seed, core)))
            .collect::<Result<Vec<_>, _>>()?;
        let recipe = match self.topology {
            Topology::SharedL2 => ChainRecipe::Shared {
                l2: self.l2,
                memory: self.memory,
            },
            Topology::PrivateL2 { coherence } => ChainRecipe::Private {
                l2: self.l2.ok_or(ConfigError::MissingCache { cache: "l2" })?,
                coherence,
                memory: self.memory,
            },
        };
        Ok(MultiCoreSystem::new(
            cores,
            recipe,
            PowerModel::new(&config),
            (rate, seed),
            self.options.sim_threads,
        ))
    }
}

/// The chain a single-core machine puts below its L1s: `l2` over main
/// memory, or bare memory (`l2` already validated).
pub(crate) fn chain_below(l2: Option<L2Config>, memory: MemoryConfig) -> Box<dyn MemoryLevel> {
    let memory = MainMemory::new(memory);
    match l2 {
        Some(l2) => Box::new(L2Cache::new(l2, memory)),
        None => Box::new(memory),
    }
}

impl System {
    /// Starts a [`SystemBuilder`] with nothing configured.
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Builds a system in HP mode from a legacy [`SystemConfig`]
    /// (flat memory, no L2) — the historical constructor, now a shim
    /// over [`System::builder`].
    ///
    /// # Panics
    ///
    /// Panics if a cache configuration is invalid; use
    /// `System::builder().config(config).build()` to handle the
    /// [`ConfigError`] instead.
    pub fn new(config: SystemConfig) -> Self {
        match System::builder().config(config).build() {
            Ok(system) => system,
            // hyvec-lint: allow(no-panic, "documented panicking shim; System::builder().build() is the fallible path")
            Err(e) => panic!("invalid cache config: {e}"),
        }
    }

    /// The instruction cache (e.g. for fault injection).
    pub fn il1_mut(&mut self) -> &mut HybridCache {
        &mut self.core.il1
    }

    /// The data cache (e.g. for fault injection).
    pub fn dl1_mut(&mut self) -> &mut HybridCache {
        &mut self.core.dl1
    }

    /// Replaces the memory hierarchy beneath the L1s with a custom
    /// [`MemoryLevel`] chain (a prefetcher, an ECC memory model, a
    /// NUMA stack, ...). The engine charges whatever composed
    /// latency/energy/EDC events the chain reports on each L1 miss.
    pub fn set_hierarchy(&mut self, below: Box<dyn MemoryLevel>) {
        self.below = below;
    }

    /// The power model.
    pub fn power(&self) -> &PowerModel {
        &self.power
    }

    /// Runs `trace` to completion at `mode`, returning timing and
    /// energy. Any [`TraceSource`] feeds the engine — the synthetic
    /// generator, a [`hyvec_mediabench::Replay`] file, or a plain
    /// iterator of entries. Caches are flushed on entry (the mode
    /// transition) and statistics are reset; installed fault maps
    /// persist. The report is priced at `mode`'s operating point; a
    /// voltage/frequency sweep re-prices it at each of its own
    /// ([`RunReport::priced_by`]).
    pub fn run<T>(&mut self, trace: T, mode: Mode) -> RunReport
    where
        T: TraceSource,
    {
        let rate = self.seu_rate_per_bit_cycle;
        let [report] = self
            .core
            .price(&self.power, rate, trace, mode, [self.below.as_mut()]);
        report
    }

    /// Runs `trace` once through the L1s at `mode` and prices every
    /// miss against each of `chains` instead of the system's own
    /// chain: report `j` is exactly what [`run`](System::run) returns
    /// on this system with `chains[j]` installed
    /// ([`set_hierarchy`](System::set_hierarchy)). The L1s never
    /// observe the chain, so the `K` chains share one L1 pass; each
    /// chain is flushed and reset on entry, as in `run`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::SeuAcrossChains`] when soft-error injection is on
    /// and `K > 1`: a single-core run's SEU exposure integrates fill
    /// stalls, so each chain would draw different upsets into the one
    /// pair of L1s.
    pub fn run_chains<T, const K: usize>(
        &mut self,
        trace: T,
        mode: Mode,
        chains: &mut [Box<dyn MemoryLevel>; K],
    ) -> Result<[RunReport; K], ConfigError>
    where
        T: TraceSource,
    {
        let rate = self.seu_rate_per_bit_cycle;
        if K > 1 && rate > 0.0 {
            return Err(ConfigError::SeuAcrossChains { chains: K });
        }
        let chains = chains
            .each_mut()
            .map(|chain| -> &mut dyn MemoryLevel { chain.as_mut() });
        Ok(self.core.price(&self.power, rate, trace, mode, chains))
    }
}

impl Core {
    /// The single-core loop: one pass of `trace` through this core at
    /// `mode`, each miss priced on the spot against every one of
    /// `chains`, and one report per chain, priced by `power`. Soft
    /// errors at `seu_rate` integrate the first chain's total cycles,
    /// which is why [`System::run_chains`] refuses `K > 1` with
    /// injection on.
    fn price<T: TraceSource, const K: usize>(
        &mut self,
        power: &PowerModel,
        seu_rate: f64,
        mut trace: T,
        mode: Mode,
        mut chains: [&mut dyn MemoryLevel; K],
    ) -> [RunReport; K] {
        self.start(mode);
        for chain in chains.iter_mut() {
            chain.flush();
            chain.reset_stats();
        }
        let (timing, seu) = self.constants(power, mode, seu_rate);
        let mut tallies = [ChainTally::default(); K];
        while let Some(entry) = trace.next_entry() {
            self.execute(entry, timing, seu, |req| {
                let stalls: [u64; K] = std::array::from_fn(|j| {
                    let fill = chains[j].access(req.access);
                    apply_fill(timing, req.kind, fill, &mut tallies[j])
                });
                stalls.first().map_or(0, |&stall| stall)
            });
        }

        std::array::from_fn(|j| {
            let mut report = self.report(&tallies[j], power, mode);
            // The single-core report keeps the historical
            // chain-reported memory count (demand fills *plus* buffered
            // writebacks), discarding the loop's demand-only tally —
            // and stays zero for custom chains that expose no "memory"
            // level. Neither count enters the energy.
            report.stats.memory_accesses = 0;
            for (name, level) in chains[j].chain_stats() {
                match name {
                    "l2" => report.stats.l2 = Some(level),
                    "memory" => report.stats.memory_accesses = level.accesses,
                    _ => {}
                }
            }
            report
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaySpec;
    use hyvec_edc::Protection;
    use hyvec_mediabench::Benchmark;
    use hyvec_sram::CellKind;

    fn baseline_a() -> SystemConfig {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram10T,
            2.65,
            Protection::None,
            Protection::None,
        ));
        SystemConfig::with_ways(ways, 20)
    }

    fn proposal_a() -> SystemConfig {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        SystemConfig::with_ways(ways, 20)
    }

    #[test]
    fn trace_runs_to_completion() {
        let mut sys = System::new(baseline_a());
        let report = sys.run(Benchmark::G721C.trace(30_000, 1), Mode::Hp);
        assert_eq!(report.stats.instructions, 30_000);
        assert!(report.stats.cycles >= 30_000);
        assert!(report.stats.cpi() >= 1.0);
        assert!(report.epi_pj() > 0.0);
        assert!(report.seconds > 0.0);
    }

    #[test]
    fn bigbench_hits_well_at_hp() {
        // "their workloads fit pretty well in cache" — Sec. IV-B.1.
        let mut sys = System::new(baseline_a());
        for b in Benchmark::BIG {
            let report = sys.run(b.trace(60_000, 2), Mode::Hp);
            assert!(
                report.stats.il1.hit_ratio() > 0.95,
                "{b}: IL1 hit ratio {}",
                report.stats.il1.hit_ratio()
            );
            assert!(
                report.stats.dl1.hit_ratio() > 0.85,
                "{b}: DL1 hit ratio {}",
                report.stats.dl1.hit_ratio()
            );
        }
    }

    #[test]
    fn smallbench_hits_well_at_ule() {
        // SmallBench fits the single 1KB ULE way — Sec. IV-A.1.
        let mut sys = System::new(proposal_a());
        for b in Benchmark::SMALL {
            let report = sys.run(b.trace(60_000, 3), Mode::Ule);
            assert!(
                report.stats.il1.hit_ratio() > 0.95,
                "{b}: IL1 hit ratio {}",
                report.stats.il1.hit_ratio()
            );
            assert!(
                report.stats.dl1.hit_ratio() > 0.90,
                "{b}: DL1 hit ratio {}",
                report.stats.dl1.hit_ratio()
            );
        }
    }

    #[test]
    fn ule_mode_runs_slower_in_wall_clock() {
        let mut sys = System::new(proposal_a());
        let hp = sys.run(Benchmark::AdpcmC.trace(20_000, 1), Mode::Hp);
        let ule = sys.run(Benchmark::AdpcmC.trace(20_000, 1), Mode::Ule);
        // 1GHz vs 5MHz: wall clock ~200x slower even with similar CPI.
        assert!(ule.seconds > 50.0 * hp.seconds);
    }

    #[test]
    fn edc_latency_shows_up_in_proposal_at_ule() {
        let mut base = System::new(baseline_a());
        let mut prop = System::new(proposal_a());
        let b = base.run(Benchmark::EpicC.trace(50_000, 4), Mode::Ule);
        let p = prop.run(Benchmark::EpicC.trace(50_000, 4), Mode::Ule);
        assert_eq!(b.stats.edc_stall_cycles, 0, "baseline A has no EDC");
        assert!(p.stats.edc_stall_cycles > 0, "proposal A pays EDC fills");
        assert!(p.stats.cycles > b.stats.cycles);
        // ...but the overhead is small (paper: ~3%).
        let overhead = p.stats.cycles as f64 / b.stats.cycles as f64 - 1.0;
        assert!(overhead < 0.10, "EDC overhead too large: {overhead}");
    }

    #[test]
    fn proposal_epi_lower_at_hp() {
        let mut base = System::new(baseline_a());
        let mut prop = System::new(proposal_a());
        let b = base.run(Benchmark::GsmC.trace(50_000, 5), Mode::Hp);
        let p = prop.run(Benchmark::GsmC.trace(50_000, 5), Mode::Hp);
        assert!(
            p.epi_pj() < b.epi_pj(),
            "proposal {} vs baseline {}",
            p.epi_pj(),
            b.epi_pj()
        );
    }

    /// `config`'s machine with soft errors at `rate`, drawn from `seed`.
    fn seu_machine(config: SystemConfig, rate: f64, seed: u64) -> System {
        System::builder()
            .config(config)
            .seu(rate, seed)
            .build()
            .expect("valid machine")
    }

    #[test]
    fn soft_errors_are_corrected_by_secded_but_corrupt_unprotected() {
        // Accelerated SEU rate so a 50k-instruction run sees many
        // upsets.
        let rate = 2e-8;
        let mut prop = seu_machine(proposal_a(), rate, 77);
        let p = prop.run(Benchmark::AdpcmC.trace(50_000, 7), Mode::Ule);
        assert!(
            p.stats.corrected() > 0,
            "accelerated SEUs should trigger corrections"
        );
        assert_eq!(
            p.stats.silent_corruptions(),
            0,
            "SECDED must absorb single upsets"
        );

        let mut base = seu_machine(baseline_a(), rate, 77);
        let b = base.run(Benchmark::AdpcmC.trace(50_000, 7), Mode::Ule);
        assert!(
            b.stats.silent_corruptions() > 0,
            "the unprotected baseline must corrupt under the same rate"
        );
    }

    #[test]
    fn single_core_seu_draws_are_pinned_across_runs() {
        // The single-core engine integrates each instruction's total
        // cycles, fill stalls included, and draws from one stream that
        // persists across runs: the second run continues where the
        // first one's draws left off. Exact figures of both runs.
        let mut sys = seu_machine(proposal_a(), 2e-8, 77);
        let runs = [
            (Benchmark::AdpcmC, 7, (8810, 0, 0, 73_138)),
            (Benchmark::EpicC, 8, (2527, 0, 0, 79_659)),
        ];
        for (bench, seed, expected) in runs {
            let s = sys.run(bench.trace(50_000, seed), Mode::Ule).stats;
            let got = (
                s.corrected(),
                s.detected(),
                s.silent_corruptions(),
                s.cycles,
            );
            assert_eq!(got, expected, "{bench} seed {seed}");
        }
    }

    #[test]
    fn zero_rate_means_no_injection() {
        let mut sys = seu_machine(proposal_a(), 0.0, 1);
        let r = sys.run(Benchmark::EpicC.trace(20_000, 1), Mode::Ule);
        assert_eq!(r.stats.corrected(), 0);
        assert_eq!(r.stats.silent_corruptions(), 0);
    }

    #[test]
    fn line_crossing_accesses_are_charged_per_touched_line() {
        // The synthetic generators never emit line-crossing accesses,
        // but replayed traces can: pin the chosen behavior — the
        // access is split and each touched line is charged its own
        // DL1 access (and fill, on a miss).
        use hyvec_mediabench::{DataAccess, TraceEntry};
        let cfg = SystemConfig::uniform_6t();
        let line = cfg.dl1.line_bytes;
        let mut sys = System::new(cfg);
        let entry = |addr, size| TraceEntry {
            pc: 0x1000_0000,
            access: Some(DataAccess {
                addr,
                size,
                is_write: false,
            }),
        };
        // Non-crossing control: one lookup, one line filled.
        let r = sys.run(vec![entry(0x2000_0000 + line - 4, 4)].into_iter(), Mode::Hp);
        assert_eq!(r.stats.dl1.accesses, 1);
        assert_eq!(r.stats.dl1.fills, 1);
        // Crossing: two lookups, both lines filled, both stalls paid.
        let r = sys.run(vec![entry(0x2000_0000 + line - 2, 4)].into_iter(), Mode::Hp);
        assert_eq!(r.stats.dl1.accesses, 2, "crossing access charged per line");
        assert_eq!(r.stats.dl1.fills, 2, "both lines are filled");
        assert_eq!(r.stats.memory_accesses, 3, "IL1 fill + two DL1 fills");
    }

    /// A proposal-A machine with `line`-byte DL1 lines.
    fn one_access_machine(line: u64) -> System {
        let mut cfg = proposal_a();
        cfg.dl1.line_bytes = line;
        System::new(cfg)
    }

    /// Runs one data access at `0x2000_0000 + addr` on `sys`. Every run
    /// starts cold.
    fn run_one_access(
        sys: &mut System,
        addr: u64,
        size: u8,
        is_write: bool,
        mode: Mode,
    ) -> RunStats {
        use hyvec_mediabench::{DataAccess, TraceEntry};
        let access = DataAccess {
            addr: 0x2000_0000 + addr,
            size,
            is_write,
        };
        let entry = TraceEntry {
            pc: 0x1000_0000,
            access: Some(access),
        };
        sys.run(vec![entry].into_iter(), mode).stats
    }

    #[test]
    fn split_pieces_cover_the_access_exactly() {
        // The pieces an access splits into at DL1 line boundaries: one
        // lookup per piece, and the bytes each piece covers pinned by
        // the read-modify-write bubble a store into the protected ULE
        // way pays per piece of less than a word. (addr, size, line,
        // lookups, bubbles): 4 bytes at 30 split 2 + 2, 8 at 31 split
        // 1 + 7, aligned and boundary-ending accesses stay whole, 8 at 3
        // over one-word lines split 1 + 4 + 3, and an empty store is
        // one piece that still reads its word.
        let cases = [
            (30, 4, 32, 2, 2),
            (31, 8, 32, 2, 1),
            (28, 4, 32, 1, 0),
            (24, 8, 32, 1, 0),
            (3, 8, 4, 3, 2),
            (5, 0, 32, 1, 1),
        ];
        for (addr, size, line, lookups, bubbles) in cases {
            let mut sys = one_access_machine(line);
            let load = run_one_access(&mut sys, addr, size, false, Mode::Ule);
            let store = run_one_access(&mut sys, addr, size, true, Mode::Ule);
            let what = format!("line {line}, addr {addr}, size {size}");
            assert_eq!(load.dl1.accesses, lookups, "{what}");
            assert_eq!(store.dl1.accesses, lookups, "{what}");
            assert_eq!(
                store.edc_stall_cycles - load.edc_stall_cycles,
                bubbles,
                "{what}"
            );
        }
    }

    #[test]
    fn single_line_shortcut_matches_the_splitter() {
        // An access within one line — every access the synthetic
        // generators emit — goes once round the splitting loop: one DL1
        // lookup and, on a cold DL1, one fill. Every access of up to 8
        // bytes, at every offset of three lines, on one-word and 32-byte
        // lines: one lookup and one cold fill per line it touches. A
        // zero-size access still makes one.
        for line in [4, 32] {
            let mut sys = one_access_machine(line);
            for addr in 0..3 * line {
                for size in 0u8..=8 {
                    let last = addr + u64::from(size.max(1)) - 1;
                    let lines = last / line - addr / line + 1;
                    let dl1 = run_one_access(&mut sys, addr, size, false, Mode::Hp).dl1;
                    assert_eq!(
                        (dl1.accesses, dl1.fills),
                        (lines, lines),
                        "line {line}, addr {addr}, size {size}"
                    );
                }
            }
        }
    }

    #[test]
    fn builder_without_l1s_is_rejected() {
        use crate::config::ConfigError;
        assert_eq!(
            System::builder().build().unwrap_err(),
            ConfigError::MissingCache { cache: "il1" }
        );
        let cfg = SystemConfig::uniform_6t();
        assert_eq!(
            System::builder().il1(cfg.il1).build().unwrap_err(),
            ConfigError::MissingCache { cache: "dl1" }
        );
    }

    #[test]
    fn options_reach_every_l1_and_the_multi_core_engine() {
        let builder = || System::builder().config(proposal_a());
        let forced = SimOptions {
            force_slow_path: true,
            sim_threads: 3,
        };
        let plain = builder().build().expect("valid");
        assert!(plain.core.il1.fast_path_ready() && plain.core.dl1.fast_path_ready());
        let slow = builder().options(forced).build().expect("valid");
        assert!(!slow.core.il1.fast_path_ready() && !slow.core.dl1.fast_path_ready());

        let mut multi = builder().options(forced).build_multi(3).expect("3 cores");
        assert_eq!(multi.sim_threads(), 3);
        for core in 0..multi.cores() {
            let (il1, dl1) = multi.core_mut(core);
            assert!(
                !il1.fast_path_ready() && !dl1.fast_path_ready(),
                "core {core}"
            );
        }
        let mut plain = builder().build_multi(2).expect("2 cores");
        assert_eq!(plain.sim_threads(), 1);
        assert!(plain.core_mut(1).0.fast_path_ready());
    }

    #[test]
    fn builder_rejects_bad_seu_and_l2() {
        use crate::config::{ConfigError, L2Config};
        let cfg = SystemConfig::uniform_6t();
        let base = System::builder().config(cfg);
        assert_eq!(
            base.clone().seu(-1.0, 3).build().unwrap_err(),
            ConfigError::InvalidSeuRate
        );
        assert_eq!(
            base.clone().seu(f64::NAN, 3).build().unwrap_err(),
            ConfigError::InvalidSeuRate
        );
        let mut l2 = L2Config::unified(32);
        l2.ways = 0;
        assert_eq!(base.l2(l2).build().unwrap_err(), ConfigError::NoWays);
    }

    #[test]
    fn builder_rejects_zero_byte_lines() {
        use crate::config::{ConfigError, L2Config};
        let zero_lines = ConfigError::LineNotPowerOfTwo { line_bytes: 0 };
        let base = System::builder().config(SystemConfig::uniform_6t());
        let mut il1 = SystemConfig::uniform_6t().il1;
        (il1.size_bytes, il1.line_bytes) = (0, 0);
        assert_eq!(base.clone().il1(il1).build().unwrap_err(), zero_lines);
        let mut l2 = L2Config::unified(32);
        (l2.size_bytes, l2.line_bytes) = (0, 0);
        assert_eq!(base.l2(l2).build().unwrap_err(), zero_lines);
    }

    #[test]
    fn l2_reduces_miss_stalls_behind_slow_memory() {
        use crate::config::{L2Config, MemoryConfig};
        let cfg = baseline_a();
        let flat = System::builder()
            .config(cfg.clone())
            .memory(MemoryConfig::with_latency(80))
            .build()
            .expect("flat system");
        let mut flat = flat;
        let mut with_l2 = System::builder()
            .config(cfg)
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(64))
            .build()
            .expect("L2 system");
        let f = flat.run(Benchmark::Mpeg2C.trace(40_000, 2), Mode::Hp);
        let l = with_l2.run(Benchmark::Mpeg2C.trace(40_000, 2), Mode::Hp);
        // Same L1 behavior, so the same misses descend...
        assert_eq!(f.stats.il1, l.stats.il1);
        assert_eq!(f.stats.dl1, l.stats.dl1);
        // ...but the L2 absorbs part of each one's latency.
        let l2_stats = l.stats.l2.expect("L2 stats recorded");
        assert!(l2_stats.accesses > 0, "misses must reach the L2");
        assert!(l2_stats.hits > 0, "the L2 must absorb some misses");
        assert!(l.stats.cycles < f.stats.cycles);
        assert!(l.stats.memory_accesses < f.stats.memory_accesses);
        assert!(f.stats.l2.is_none(), "flat system reports no L2");
    }

    #[test]
    fn proposal_epi_much_lower_at_ule() {
        let mut base = System::new(baseline_a());
        let mut prop = System::new(proposal_a());
        let b = base.run(Benchmark::AdpcmD.trace(50_000, 6), Mode::Ule);
        let p = prop.run(Benchmark::AdpcmD.trace(50_000, 6), Mode::Ule);
        let saving = 1.0 - p.epi_pj() / b.epi_pj();
        assert!(saving > 0.20, "ULE saving too small: {saving}");
    }
}
