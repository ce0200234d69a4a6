//! The multi-core engine: N private split-L1 front ends over a
//! shared-L2 or private-L2 topology, simulated an epoch at a time.
//!
//! The paper's evaluation is single-core, but the composable
//! [`MemoryLevel`] chain was built so
//! new platform shapes could be assembled on top of it. This module
//! adds the baseline shape every cache-reliability study assumes —
//! several in-order cores, each with its own IL1/DL1 pair (the same
//! hybrid-way, bit-accurate caches the single-core engine drives),
//! missing into **one** shared L2/memory chain — plus the
//! [`Topology::PrivateL2`](crate::config::Topology) variant: a
//! private L2 per core over one shared memory, optionally kept
//! MESI-coherent (see [`L2Cache`]).
//!
//! # Execution model
//!
//! The canonical order is a round-robin interleaving of the N
//! independent [`TraceSource`]s at instruction granularity: one
//! instruction per core per round, core 0 first; cores whose trace
//! ends drop out of the rotation. Each core keeps its own cycle
//! count — cores execute concurrently, so per-core time is what IPC
//! means here — while *contention* appears architecturally: the
//! cores' miss streams interleave in the shared L2, evicting each
//! other's lines.
//! Every run builds its chain fresh from the machine's recipe, and a
//! run may price the same L1 pass against several chains of
//! different widths (see [One front pass, many
//! chains](#one-front-pass-many-chains)).
//!
//! # Epoch simulation
//!
//! An L1 hit or miss depends only on the issuing core's own address
//! stream, never on the chain below, and the chain never observes the
//! L1s. So a run need not switch cores on every instruction to follow
//! the canonical order. It proceeds in epochs of
//! [`EPOCH_INSTRUCTIONS`] rounds:
//!
//! 1. each core's L1 front runs a whole epoch of its own trace
//!    (`front_entry`). It logs only its chain-bound fill requests,
//!    each tagged with its round, and sums its core-local cycles;
//! 2. one merge pass replays the logged requests against the chain
//!    (or every chain, see below) in canonical (round, core, program)
//!    order (`apply_fill`), charging fill stalls and energy.
//!
//! Each core's summed core-local cycles join its tallies once, at the
//! end of the run. A core pulls entries from its source directly and
//! never polls it again after its first `None`, since
//! [`TraceSource`] is not fused.
//!
//! This is the one loop at every simulation-thread count
//! ([`SimOptions::sim_threads`](crate::engine::SimOptions), passed to
//! [`SystemBuilder::options`](crate::engine::SystemBuilder::options),
//! or [`set_sim_threads`](MultiCoreSystem::set_sim_threads)). At one
//! thread the fronts run inline on the calling thread, one core after
//! another. Above one, that many scoped worker threads share out the
//! cores of each epoch, and the calling thread merges at the epoch
//! barrier while they wait for the next epoch. The merge visits every
//! chain in exactly the round-robin order, so counters are
//! **bit-identical** to an instruction-interleaved reference loop
//! (kept as test code in this module) at any core count and invariant
//! across `--sim-threads 1/2/8` (pinned by this module's proptests,
//! the `epoch_merge` suite and the determinism suite).
//!
//! # One front pass, many chains
//!
//! Since the L1s never observe the chain, one pass of the fronts can
//! feed several chains. [`run_widths`](MultiCoreSystem::run_widths)
//! prices the N fronts against K chains of the machine's shape, built
//! fresh from its builder's recipe, chain `j` taking the misses of
//! cores `0..w_j` only: the canonical order restricted to those cores
//! is the `w_j`-core machine's own order, and a core's stream, SEU
//! draws and exposure do not depend on how many cores run beside it.
//! Report `j` therefore equals a standalone `w_j`-core run, with soft
//! errors on or off, and a core-count sweep costs one pass of its
//! widest machine's L1s. [`run`](MultiCoreSystem::run) is the K = 1
//! instance at full width: the loop exists once, generic over K.
//!
//! Soft-error draws come from *per-core* RNG streams seeded with
//! [`per_core_seed`], and exposure integrates each instruction's
//! core-local cycles (base + bubbles, excluding chain fill stalls),
//! so injection happens inside the core's front pass and lands
//! identically at any thread count.
//!
//! Bandwidth arbitration (queueing at the shared L2 port) is *not*
//! modeled; the contention cost is the architectural one above. Nor
//! is idle-tail leakage: a core that drains its trace early is
//! treated as gated off until the makespan (its energy integrates
//! over its own active cycles only — see
//! [`MultiCoreReport::total_energy_pj`]).
//!
//! # Example
//!
//! ```
//! use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig};
//! use hyvec_cachesim::engine::System;
//! use hyvec_mediabench::Benchmark;
//!
//! let l1s = SystemConfig::uniform_6t();
//! let mut system = System::builder()
//!     .il1(l1s.il1.clone())
//!     .dl1(l1s.dl1.clone())
//!     .l2(L2Config::unified(64))
//!     .memory(MemoryConfig::with_latency(80))
//!     .build_multi(2)
//!     .expect("valid configuration");
//! system.set_sim_threads(2); // fronts on 2 workers; same counters as 1
//! let traces = vec![
//!     Benchmark::GsmC.trace(5_000, 1),
//!     Benchmark::Mpeg2C.trace(5_000, 2),
//! ];
//! let report = system.run(traces, Mode::Hp);
//! assert_eq!(report.per_core.len(), 2);
//! assert_eq!(report.instructions(), 10_000);
//! assert!(report.l2.expect("shared L2").accesses > 0);
//! ```

use crate::cache::HybridCache;
use crate::config::{CacheConfig, ConfigError, L2Config, MemoryConfig, Mesi, Mode};
use crate::engine::{
    apply_fill, chain_below, front_entry, maybe_inject_seu, ule_exposure_bits, ChainRequest,
    ChainTally, CoreTiming, RunReport,
};
use crate::hierarchy::{AccessOutcome, AccessRequest, L2Cache, MainMemory, MemoryLevel};
use crate::power::PowerModel;
use crate::stats::{CacheStats, RunStats};
use hyvec_cachemodel::OperatingPoint;
use hyvec_mediabench::{per_core_seed, TraceEntry, TraceSource};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

/// Rounds of one epoch: the instructions each core's L1 front runs
/// between two merges.
///
/// Large enough that a core keeps its L1 arrays and generator state
/// hot in the host's caches for ~4k bit-accurate instructions, and
/// that per-epoch coordination (one lock per core, plus two barrier
/// waits above one thread) amortizes to noise; small enough that the
/// request logs stay cache-resident. Results do not depend on this
/// value — the merge replays the canonical order exactly at any epoch
/// length.
pub const EPOCH_INSTRUCTIONS: usize = 4096;

/// The chain below the L1s of a multi-core machine: one shared chain
/// (the default topology), or a private L2 per core.
#[derive(Debug)]
pub(crate) enum MultiChain {
    /// One L2/memory chain shared by every core.
    Shared(Box<dyn MemoryLevel>),
    /// A private L2 per core over one shared memory
    /// ([`crate::config::Topology::PrivateL2`]).
    Private(Box<L2Cache<MainMemory>>),
}

impl MultiChain {
    /// One request from `core`'s L1s: the one place a request is
    /// routed by topology.
    fn access_from(&mut self, core: usize, req: AccessRequest) -> AccessOutcome {
        match self {
            MultiChain::Shared(chain) => chain.access(req),
            MultiChain::Private(l2s) => l2s.access_from(core, req),
        }
    }

    fn as_dyn(&self) -> &dyn MemoryLevel {
        match self {
            MultiChain::Shared(chain) => chain.as_ref(),
            MultiChain::Private(l2s) => l2s.as_ref(),
        }
    }
}

/// How a machine's chain is assembled for a given core count: the
/// [`SystemBuilder`](crate::engine::SystemBuilder) topology, L2 and
/// memory, already validated.
#[derive(Debug, Clone)]
pub(crate) enum ChainRecipe {
    /// One chain shared by every core: `l2` over memory, or bare
    /// memory.
    Shared {
        l2: Option<L2Config>,
        memory: MemoryConfig,
    },
    /// A private `l2` per core over one shared memory.
    Private {
        l2: L2Config,
        coherence: Option<Mesi>,
        memory: MemoryConfig,
    },
}

impl ChainRecipe {
    /// The chain below `cores` cores (`cores` ≥ 1).
    fn build(&self, cores: usize) -> MultiChain {
        match self {
            ChainRecipe::Shared { l2, memory } => {
                MultiChain::Shared(chain_below(l2.clone(), *memory))
            }
            ChainRecipe::Private {
                l2,
                coherence,
                memory,
            } => MultiChain::Private(Box::new(L2Cache::private(
                l2.clone(),
                cores,
                *coherence,
                MainMemory::new(*memory),
            ))),
        }
    }
}

/// Result of one multi-core run: per-core reports plus the merged
/// counters of the chain below the L1s.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCoreReport {
    /// One [`RunReport`] per core, in core order. Per-core
    /// `stats.memory_accesses` counts the core's *demand* fills that
    /// reached memory; buffered writebacks are only attributable to
    /// the shared chain and appear in [`MultiCoreReport::memory`].
    pub per_core: Vec<RunReport>,
    /// Counters of the L2 level, when the chain has one: the shared
    /// L2, or the aggregate over all private L2s (including their
    /// coherence `invalidations`/`interventions`).
    pub l2: Option<CacheStats>,
    /// Counters of the shared memory level (demand fills plus
    /// writebacks from every core).
    pub memory: CacheStats,
    /// The mode the run executed in.
    pub mode: Mode,
}

impl MultiCoreReport {
    /// Instructions executed across all cores.
    pub fn instructions(&self) -> u64 {
        self.per_core.iter().map(|r| r.stats.instructions).sum()
    }

    /// Total energy across all cores (each core's L1s + its share of
    /// the hierarchy below), pJ.
    ///
    /// Each core's energy integrates over its *own active window*
    /// (its cycle count): a core that drains its trace before the
    /// makespan is treated as gated off — the same gated-Vdd
    /// machinery the paper's HP ways use at ULE — so it leaks nothing
    /// while the stragglers finish. Idle-tail leakage of an
    /// *ungated* finished core is deliberately not modeled.
    pub fn total_energy_pj(&self) -> f64 {
        self.per_core.iter().map(|r| r.energy.total_pj()).sum()
    }

    /// Energy per instruction over the whole machine, pJ (see
    /// [`MultiCoreReport::total_energy_pj`] for the active-window
    /// energy semantics).
    pub fn epi_pj(&self) -> f64 {
        let instructions = self.instructions();
        if instructions == 0 {
            0.0
        } else {
            self.total_energy_pj() / instructions as f64
        }
    }

    /// Hit ratio of the L2 level (0 when the chain has none).
    pub fn l2_hit_ratio(&self) -> f64 {
        self.l2.map_or(0.0, |l2| l2.hit_ratio())
    }

    /// Cycles of the slowest core: the wall-clock length of the run,
    /// since cores execute concurrently.
    pub fn makespan_cycles(&self) -> u64 {
        self.per_core
            .iter()
            .map(|r| r.stats.cycles)
            .max()
            .unwrap_or(0)
    }
}

/// Everything one core owns during a run: its L1 front end, its
/// trace, its SEU stream, its core-local counters, and the epoch log
/// the merge replays. Wrapped in a `Mutex` purely as a thread-safe
/// cell: see [`lock`].
#[derive(Debug)]
struct CoreWork<T> {
    il1: HybridCache,
    dl1: HybridCache,
    source: T,
    /// Set at the source's first `None`; a drained source is never
    /// polled again, since [`TraceSource`] is not fused.
    drained: bool,
    rng: SmallRng,
    /// The chain-independent counters of [`front_entry`].
    front: RunStats,
    /// Core-local cycles so far (base + bubbles, no fill stalls); they
    /// join every lane's tally once, at the end of the run.
    local_cycles: u64,
    /// This epoch's chain-bound requests in program order, each with
    /// its round: the issuing instruction's index in the epoch.
    requests: Vec<(usize, ChainRequest)>,
}

impl<T: TraceSource> CoreWork<T> {
    /// The front phase of one epoch: drive the L1s through up to
    /// [`EPOCH_INSTRUCTIONS`] entries, log chain-bound requests with
    /// their round, sum core-local cycles and draw SEUs from the core's
    /// own stream over them.
    fn run_epoch(&mut self, timing: CoreTiming, seu_rate: f64, ule_bits: u64) {
        self.requests.clear();
        for round in 0..EPOCH_INSTRUCTIONS {
            let Some(entry) = self.next_entry() else {
                break;
            };
            let requests = &mut self.requests;
            let local = front_entry(
                &mut self.il1,
                &mut self.dl1,
                timing,
                &mut self.front,
                entry,
                |req| requests.push((round, req)),
            );
            self.local_cycles += local;
            maybe_inject_seu(
                &mut self.il1,
                &mut self.dl1,
                &mut self.rng,
                seu_rate,
                ule_bits,
                local,
            );
        }
    }

    /// The core's next trace entry; `None` for good once its source has
    /// returned `None`.
    fn next_entry(&mut self) -> Option<TraceEntry> {
        if self.drained {
            return None;
        }
        let entry = self.source.next_entry();
        self.drained = entry.is_none();
        entry
    }
}

/// The multi-core machine: N private front ends (core + IL1 + DL1)
/// over one shared [`MemoryLevel`] chain or per-core private L2s.
///
/// Built by [`SystemBuilder::build_multi`](crate::engine::SystemBuilder::build_multi);
/// a 1-core instance reproduces [`System`](crate::engine::System) runs
/// counter-for-counter (asserted in the test suite).
#[derive(Debug)]
pub struct MultiCoreSystem {
    /// Per-core `(il1, dl1)` pairs.
    fronts: Vec<(HybridCache, HybridCache)>,
    /// The shape of the chain below the L1s (shared, or private L2s
    /// per core). Every run builds its chains fresh from it, which is
    /// the state a flushed chain returns to.
    recipe: ChainRecipe,
    /// One power model (all cores share a configuration).
    power: PowerModel,
    /// Soft-error injection, as in [`System`](crate::engine::System);
    /// an upset lands in the caches of the core whose entry triggered
    /// it (the one accruing the exposure cycles).
    seu_rate_per_bit_cycle: f64,
    /// Base seed of the per-core SEU streams (see [`per_core_seed`]);
    /// streams are re-derived at the start of every run, so warm
    /// re-runs are reproducible.
    seu_seed: u64,
    /// Worker threads that run the L1 fronts of each epoch; 1 = inline
    /// on the calling thread.
    sim_threads: usize,
}

/// One chain of a multi-core run and its width: the chain serves the
/// misses of cores `0..width` only.
type Lane = (MultiChain, usize);

/// Lane `j`'s fill for a request from `core`, or `None` when the lane's
/// width leaves the core out: the one place the width rule is applied.
fn lane_fill<const K: usize>(
    lanes: &mut [Lane; K],
    j: usize,
    core: usize,
    req: AccessRequest,
) -> Option<AccessOutcome> {
    let (chain, width) = &mut lanes[j];
    (core < *width).then(|| chain.access_from(core, req))
}

impl MultiCoreSystem {
    /// Assembles the machine from parts the builder validated.
    pub(crate) fn new(
        fronts: Vec<(HybridCache, HybridCache)>,
        recipe: ChainRecipe,
        power: PowerModel,
        seu_rate_per_bit_cycle: f64,
        seu_seed: u64,
        sim_threads: usize,
    ) -> Self {
        MultiCoreSystem {
            fronts,
            recipe,
            power,
            seu_rate_per_bit_cycle,
            seu_seed,
            sim_threads: sim_threads.max(1),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.fronts.len()
    }

    /// Threads the next run will drive the L1 fronts on (1 = inline on
    /// the calling thread).
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// Sets how many threads run the L1 fronts of each epoch (clamped
    /// to at least 1). Counters are bit-identical at any value; only
    /// wall time changes. New instances start with the
    /// [`SimOptions::sim_threads`](crate::engine::SimOptions) of their
    /// builder (1 by default).
    pub fn set_sim_threads(&mut self, threads: usize) {
        self.sim_threads = threads.max(1);
    }

    /// One core's caches, for fault injection (`core` panics when out
    /// of range).
    pub fn core_mut(&mut self, core: usize) -> (&mut HybridCache, &mut HybridCache) {
        let (il1, dl1) = &mut self.fronts[core];
        (il1, dl1)
    }

    /// Runs one trace per core to completion at `mode`, with the
    /// counters of the canonical round-robin order (core 0 first). With
    /// [`set_sim_threads`](MultiCoreSystem::set_sim_threads) above 1
    /// the L1 fronts run on worker threads; counters are bit-identical
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the core count.
    pub fn run<T>(&mut self, sources: Vec<T>, mode: Mode) -> MultiCoreReport
    where
        T: TraceSource + Send,
    {
        self.run_at(sources, mode, mode.operating_point())
    }

    /// Like [`run`](MultiCoreSystem::run) but at an explicit operating
    /// point (the DVS-sweep entry point).
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the core count.
    pub fn run_at<T>(&mut self, sources: Vec<T>, mode: Mode, op: OperatingPoint) -> MultiCoreReport
    where
        T: TraceSource + Send,
    {
        let [report] = self.price(sources, mode, op, [self.cores()]);
        report
    }

    /// Runs the cores' traces once through their L1s at `mode` and
    /// prices the misses against `K` chains of this machine's shape
    /// (its [`SystemBuilder`](crate::engine::SystemBuilder) topology,
    /// L2 and memory), chain `j` built for and serving only cores
    /// `0..widths[j]`. Report `j` is exactly what
    /// [`run`](MultiCoreSystem::run) returns on a `widths[j]`-core
    /// machine from the same builder given the first `widths[j]`
    /// sources: the canonical round-robin order restricted to those
    /// cores is that machine's order, and every core's L1s, SEU stream
    /// and exposure (core-local cycles) are independent of the chain
    /// and of the other cores. So one L1 pass serves a whole
    /// core-count sweep, soft errors on or off.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ChainWidth`] when a width is zero or exceeds the
    /// core count.
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the core count.
    pub fn run_widths<T, const K: usize>(
        &mut self,
        sources: Vec<T>,
        mode: Mode,
        widths: [usize; K],
    ) -> Result<[MultiCoreReport; K], ConfigError>
    where
        T: TraceSource + Send,
    {
        let cores = self.cores();
        if let Some(&width) = widths.iter().find(|&&w| w == 0 || w > cores) {
            return Err(ConfigError::ChainWidth { width, cores });
        }
        Ok(self.price(sources, mode, mode.operating_point(), widths))
    }

    /// The one IL1/DL1 configuration every front end shares.
    ///
    /// The cores of a [`MultiCoreSystem`] are homogeneous by
    /// construction (`build_multi` clones one configuration), and the
    /// run paths rely on that: one [`CoreTiming`], one SEU exposure
    /// figure. This helper is the single place that reads core 0's
    /// configs on behalf of all cores, and debug-asserts the
    /// invariant instead of silently assuming it.
    fn shared_core_config(&self) -> (&CacheConfig, &CacheConfig) {
        let (il1, dl1) = &self.fronts[0];
        debug_assert!(
            self.fronts
                .iter()
                .all(|(i, d)| i.config() == il1.config() && d.config() == dl1.config()),
            "multi-core fronts must share one IL1/DL1 configuration"
        );
        (il1.config(), dl1.config())
    }

    /// Per-core SEU streams for one run, derived fresh from the base
    /// seed so warm re-runs reproduce.
    fn core_rngs(&self) -> Vec<SmallRng> {
        (0..self.fronts.len())
            .map(|core| SmallRng::seed_from_u64(per_core_seed(self.seu_seed, core)))
            .collect()
    }

    /// The one multi-core run: a mode transition, one epoch-by-epoch
    /// pass of the L1 fronts over `sources` whose misses are priced
    /// against every lane in canonical round-robin order, and one
    /// report per lane.
    fn price<T, const K: usize>(
        &mut self,
        sources: Vec<T>,
        mode: Mode,
        op: OperatingPoint,
        widths: [usize; K],
    ) -> [MultiCoreReport; K]
    where
        T: TraceSource + Send,
    {
        let (mut lanes, timing, ule_bits) = self.transition(sources.len(), mode, widths);
        let (front, tallies) = self.epochs(sources, timing, ule_bits, &mut lanes);
        self.reports(&lanes, &front, &tallies, mode, op)
    }

    /// The start of every run: every L1 flushed and reset into `mode`,
    /// one fresh chain per width, and the run's timing and SEU
    /// exposure constants.
    fn transition<const K: usize>(
        &mut self,
        sources: usize,
        mode: Mode,
        widths: [usize; K],
    ) -> ([Lane; K], CoreTiming, u64) {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): one trace source per core")
        assert_eq!(
            sources,
            self.fronts.len(),
            "need exactly one trace source per core"
        );
        for (il1, dl1) in &mut self.fronts {
            il1.set_mode(mode);
            dl1.set_mode(mode);
            il1.reset_stats();
            dl1.reset_stats();
        }
        let lanes = widths.map(|width| (self.recipe.build(width), width));
        let (il1, dl1) = self.shared_core_config();
        let timing = CoreTiming::new(&self.power, mode, dl1);
        (lanes, timing, ule_exposure_bits(il1, dl1))
    }

    /// One report per lane from each core's `front` counters and its
    /// `tallies`, priced at `op`.
    fn reports<const K: usize>(
        &self,
        lanes: &[Lane; K],
        front: &[RunStats],
        tallies: &[[ChainTally; K]],
        mode: Mode,
        op: OperatingPoint,
    ) -> [MultiCoreReport; K] {
        std::array::from_fn(|j| {
            let (chain, width) = &lanes[j];
            let chain = chain.as_dyn().chain_stats();
            let level = |name| chain.iter().find(|(n, _)| *n == name).map(|(_, s)| *s);
            let per_core = (0..*width)
                .map(|core| {
                    let (il1, dl1) = &self.fronts[core];
                    tallies[core][j].report(&front[core], (il1, dl1), &self.power, mode, op)
                })
                .collect();
            MultiCoreReport {
                per_core,
                l2: level("l2"),
                memory: level("memory").unwrap_or_default(),
                mode,
            }
        })
    }

    /// The one run loop: an epoch of every core's L1 front — inline
    /// on the calling thread at one simulation thread, on scoped worker
    /// threads above that — then a merge of its logs against the lanes,
    /// until every source is drained. Returns each core's front
    /// counters and its tally per lane.
    fn epochs<T, const K: usize>(
        &mut self,
        sources: Vec<T>,
        timing: CoreTiming,
        ule_bits: u64,
        lanes: &mut [Lane; K],
    ) -> (Vec<RunStats>, Vec<[ChainTally; K]>)
    where
        T: TraceSource + Send,
    {
        let rate = self.seu_rate_per_bit_cycle;
        let n = self.fronts.len();
        let threads = self.sim_threads.min(n);
        let rngs = self.core_rngs();
        let works: Vec<Mutex<CoreWork<T>>> = std::mem::take(&mut self.fronts)
            .into_iter()
            .zip(sources)
            .zip(rngs)
            .map(|(((il1, dl1), source), rng)| {
                Mutex::new(CoreWork {
                    il1,
                    dl1,
                    source,
                    drained: false,
                    rng,
                    front: RunStats::default(),
                    local_cycles: 0,
                    requests: Vec::new(),
                })
            })
            .collect();
        let mut tallies = vec![[ChainTally::default(); K]; n];

        if threads <= 1 {
            merge_epochs(&works, lanes, &mut tallies, timing, || {
                for work in &works {
                    lock(work).run_epoch(timing, rate, ule_bits);
                }
            });
        } else {
            let works = &works;
            // Barrier A releases the workers into an epoch; barrier B
            // tells the coordinator the front phase is over. Workers
            // then block at the next A while the coordinator merges.
            let barrier = &Barrier::new(threads + 1);
            let next_core = &AtomicUsize::new(0);
            let stop = &AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(move || loop {
                        barrier.wait(); // A
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        while let Some(work) = works.get(next_core.fetch_add(1, Ordering::Relaxed))
                        {
                            lock(work).run_epoch(timing, rate, ule_bits);
                        }
                        barrier.wait(); // B
                    });
                }
                // Dropped last, on return or unwind alike: the workers
                // parked at the next barrier observe `stop` and exit, so
                // a panic in the merge propagates out of the scope
                // instead of deadlocking it.
                let _release = ReleaseWorkers { barrier, stop };
                merge_epochs(works, lanes, &mut tallies, timing, || {
                    next_core.store(0, Ordering::Relaxed);
                    barrier.wait(); // A: workers start the epoch
                    barrier.wait(); // B: workers are done, parked before next A
                });
            });
        }

        let mut front = Vec::with_capacity(n);
        for (work, tallies) in works.into_iter().zip(&mut tallies) {
            let work = work
                .into_inner()
                // hyvec-lint: allow(no-panic, "poisoned only if a worker panicked, which the scope already propagated")
                .expect("a worker thread panicked");
            for tally in tallies.iter_mut() {
                tally.stats.cycles += work.local_cycles;
            }
            self.fronts.push((work.il1, work.dl1));
            front.push(work.front);
        }
        (front, tallies)
    }
}

/// One core's work, locked. The front phase and the merge never
/// overlap, so the lock is uncontended.
fn lock<T>(work: &Mutex<CoreWork<T>>) -> MutexGuard<'_, CoreWork<T>> {
    work.lock()
        // hyvec-lint: allow(no-panic, "poisoned only if a worker thread panicked; propagating is the only sane option")
        .expect("a worker thread panicked")
}

/// The loop of a run: `fronts` runs one epoch of every core's L1
/// front, then the merge replays the epoch's logged requests against
/// the lanes in canonical (round, core, program) order, charging each
/// fill and its stall to the issuing core's tally on every lane whose
/// width takes the core in — until every source is drained.
fn merge_epochs<T, const K: usize>(
    works: &[Mutex<CoreWork<T>>],
    lanes: &mut [Lane; K],
    tallies: &mut [[ChainTally; K]],
    timing: CoreTiming,
    mut fronts: impl FnMut(),
) {
    let mut order: Vec<(usize, usize, ChainRequest)> = Vec::new();
    loop {
        fronts();
        order.clear();
        let mut drained = true;
        for (core, work) in works.iter().enumerate() {
            let work = lock(work);
            drained &= work.drained;
            order.extend(work.requests.iter().map(|&(round, req)| (round, core, req)));
        }
        // Stable, so each round keeps core order and then program order.
        order.sort_by_key(|&(round, _, _)| round);
        for &(_, core, req) in &order {
            for (j, tally) in tallies[core].iter_mut().enumerate() {
                if let Some(fill) = lane_fill(lanes, j, core, req.access) {
                    tally.stats.cycles += apply_fill(timing, req.kind, fill, tally);
                }
            }
        }
        if drained {
            break;
        }
    }
}

/// The coordinator's last act: set `stop` and pass the final barrier A.
struct ReleaseWorkers<'a> {
    barrier: &'a Barrier,
    stop: &'a AtomicBool,
}

impl Drop for ReleaseWorkers<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.barrier.wait(); // final A: workers observe `stop` and exit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, L2Config, MemoryConfig, Mesi, SystemConfig, Topology};
    use crate::engine::{step, System};
    use crate::interleave::round_robin;
    use hyvec_mediabench::{Benchmark, TraceEntry};
    use proptest::prelude::*;

    fn builder() -> crate::engine::SystemBuilder {
        System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(16))
    }

    /// The reference the one loop is pinned against: the canonical
    /// round-robin order followed instruction by instruction
    /// ([`round_robin`]), each miss resolved on the spot ([`step`])
    /// against every lane whose width takes the core in. Same start and
    /// reports as [`MultiCoreSystem::run_widths`].
    fn reference<T: TraceSource, const K: usize>(
        sys: &mut MultiCoreSystem,
        sources: Vec<T>,
        mode: Mode,
        widths: [usize; K],
    ) -> [MultiCoreReport; K] {
        let (mut lanes, timing, ule_bits) = sys.transition(sources.len(), mode, widths);
        let rate = sys.seu_rate_per_bit_cycle;
        let mut rngs = sys.core_rngs();
        let mut front = vec![RunStats::default(); sys.cores()];
        let mut tallies = vec![[ChainTally::default(); K]; sys.cores()];
        for (core, entry) in round_robin(sources) {
            let (il1, dl1) = &mut sys.fronts[core];
            let (local, _) = step(
                il1,
                dl1,
                timing,
                &mut front[core],
                &mut tallies[core],
                entry,
                |j, req| lane_fill(&mut lanes, j, core, req),
            );
            // Exposure integrates core-local cycles from the core's own
            // stream, as in the one loop.
            maybe_inject_seu(il1, dl1, &mut rngs[core], rate, ule_bits, local);
        }
        sys.reports(&lanes, &front, &tallies, mode, mode.operating_point())
    }

    /// The chain below the cores of a proptest machine.
    #[derive(Debug, Clone, Copy)]
    enum Below {
        SharedL2,
        Memory,
        IncoherentL2s,
        MesiL2s,
    }

    /// A `cores`-core machine over `below`, soft errors on or off.
    fn machine(cores: usize, below: Below, seu: bool) -> MultiCoreSystem {
        let mut builder = System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(40));
        let private = |coherence| Topology::PrivateL2 { coherence };
        builder = match below {
            Below::SharedL2 => builder.l2(L2Config::unified(16)),
            Below::Memory => builder,
            Below::IncoherentL2s => builder.l2(L2Config::unified(16)).topology(private(None)),
            Below::MesiL2s => builder
                .l2(L2Config::unified(16))
                .topology(private(Some(Mesi::default()))),
        };
        if seu {
            builder = builder.seu(5e-8, 17);
        }
        builder.build_multi(cores).expect("valid configuration")
    }

    /// One trace per core, of unequal lengths, over one shared address
    /// space (so the cores' lines meet in a shared L2 and in MESI).
    fn traces(lengths: &[usize], seed: u64) -> Vec<hyvec_mediabench::Trace> {
        lengths
            .iter()
            .enumerate()
            .map(|(core, &len)| {
                let program = Benchmark::BIG[core % Benchmark::BIG.len()];
                program.trace(len as u64, per_core_seed(seed, core))
            })
            .collect()
    }

    proptest! {
        /// The one loop prices every lane exactly as the reference
        /// does: at 1, 2 and 8 simulation threads, soft errors on and
        /// off, over a shared L2, bare memory and private L2s with and
        /// without coherence, with unequal trace lengths and a
        /// narrower lane beside the full-width one.
        #[test]
        fn one_loop_matches_the_reference(
            cores in 1usize..5,
            threads in prop::sample::select(vec![1usize, 2, 8]),
            below in prop::sample::select(vec![
                Below::SharedL2,
                Below::Memory,
                Below::IncoherentL2s,
                Below::MesiL2s,
            ]),
            seu: bool,
            hp: bool,
            narrow in 1usize..5,
            base in 50usize..600,
            seed in 0u64..1_000,
        ) {
            let mode = if hp { Mode::Hp } else { Mode::Ule };
            let lengths: Vec<usize> = (0..cores).map(|core| base + 211 * core).collect();
            let widths = [narrow.min(cores), cores];
            let expected = reference(&mut machine(cores, below, seu), traces(&lengths, seed), mode, widths);
            let mut sys = machine(cores, below, seu);
            sys.set_sim_threads(threads);
            let got = sys.run_widths(traces(&lengths, seed), mode, widths).expect("widths fit");
            prop_assert_eq!(got, expected, "{} threads, {:?}, seu {}", threads, below, seu);
        }
    }

    /// A trace that panics when polled again after it returned `None`:
    /// [`TraceSource`] is not fused, so the loop must not do that.
    struct Unfused {
        trace: hyvec_mediabench::Trace,
        drained: bool,
    }

    impl TraceSource for Unfused {
        fn next_entry(&mut self) -> Option<TraceEntry> {
            assert!(!self.drained, "a drained source was polled again");
            let entry = self.trace.next_entry();
            self.drained = entry.is_none();
            entry
        }
    }

    #[test]
    fn drained_sources_are_never_polled_again() {
        // Unequal lengths, one an exact multiple of the epoch: that
        // core drains on the first poll of an epoch of its own.
        let lengths = [2 * EPOCH_INSTRUCTIONS, 700, EPOCH_INSTRUCTIONS + 333];
        let unfused = || -> Vec<Unfused> {
            traces(&lengths, 4)
                .into_iter()
                .map(|trace| Unfused {
                    trace,
                    drained: false,
                })
                .collect()
        };
        let build = || machine(3, Below::SharedL2, true);
        let expected = reference(&mut build(), unfused(), Mode::Ule, [2, 3]);
        for threads in [1, 2] {
            let mut sys = build();
            sys.set_sim_threads(threads);
            assert_eq!(
                sys.run(unfused(), Mode::Ule),
                expected[1],
                "{threads} threads"
            );
            let got = sys.run_widths(unfused(), Mode::Ule, [2, 3]);
            assert_eq!(got.expect("widths fit"), expected, "{threads} threads");
        }
    }

    #[test]
    fn zero_cores_is_rejected() {
        assert_eq!(builder().build_multi(0).unwrap_err(), ConfigError::NoCores);
    }

    #[test]
    fn private_topology_needs_an_l2_geometry() {
        let err = System::builder()
            .config(SystemConfig::uniform_6t())
            .topology(Topology::PrivateL2 { coherence: None })
            .build_multi(2)
            .unwrap_err();
        assert_eq!(err, ConfigError::MissingCache { cache: "l2" });
    }

    #[test]
    fn one_core_matches_the_single_core_engine() {
        // The multi-core engine with one core must reproduce System
        // counter-for-counter: same caches, same chain, same timing.
        let mut single = builder().build().expect("single");
        let mut multi = builder().build_multi(1).expect("multi");
        let trace = || Benchmark::Mpeg2C.trace(20_000, 3);
        let s = single.run(trace(), Mode::Hp);
        let m = multi.run(vec![trace()], Mode::Hp);
        let core = &m.per_core[0];
        assert_eq!(core.stats.instructions, s.stats.instructions);
        assert_eq!(core.stats.cycles, s.stats.cycles);
        assert_eq!(core.stats.il1, s.stats.il1);
        assert_eq!(core.stats.dl1, s.stats.dl1);
        assert_eq!(core.stats.il1_stall_cycles, s.stats.il1_stall_cycles);
        assert_eq!(core.stats.dl1_stall_cycles, s.stats.dl1_stall_cycles);
        assert_eq!(m.l2, s.stats.l2);
        assert_eq!(m.memory.accesses, s.stats.memory_accesses);
        assert_eq!(core.seconds, s.seconds);
        // Energy matches except the per-core report keeps its demand
        // memory count rather than the chain's total.
        assert!((core.energy.total_pj() - s.energy.total_pj()).abs() < 1e-9);
    }

    #[test]
    fn interleaved_runs_are_deterministic() {
        let sources = || {
            (0..4)
                .map(|i| Benchmark::BIG[i].trace(5_000, i as u64 + 1))
                .collect::<Vec<_>>()
        };
        let mut a = builder().build_multi(4).expect("4 cores");
        let mut b = builder().build_multi(4).expect("4 cores");
        let ra = a.run(sources(), Mode::Hp);
        let rb = b.run(sources(), Mode::Hp);
        assert_eq!(ra, rb, "same sources must give identical reports");
        // And re-running the same warm system matches too (run resets
        // all state).
        let ra2 = a.run(sources(), Mode::Hp);
        assert_eq!(ra, ra2);
    }

    #[test]
    fn threaded_epochs_match_the_serial_reference() {
        // The flagship invariant: the one loop is bit-identical to the
        // instruction-interleaved reference at every thread count,
        // including with soft errors active and unequal trace lengths
        // that span two epochs (cores drain mid-epoch). The proptests
        // above sweep the grid; this is the fast deterministic anchor.
        let build = || {
            System::builder()
                .config(SystemConfig::uniform_6t())
                .memory(MemoryConfig::with_latency(80))
                .l2(L2Config::unified(16))
                .seu(5e-8, 11)
                .build_multi(3)
                .expect("3 cores")
        };
        let sources = || {
            vec![
                Benchmark::AdpcmC.trace(4_100, 1),
                Benchmark::GsmC.trace(1_300, 2),
                Benchmark::Mpeg2C.trace(2_600, 3),
            ]
        };
        let [expected] = reference(&mut build(), sources(), Mode::Ule, [3]);
        for threads in [1, 2, 8] {
            let mut sys = build();
            sys.set_sim_threads(threads);
            assert_eq!(sys.sim_threads(), threads);
            let r = sys.run(sources(), Mode::Ule);
            assert_eq!(
                r, expected,
                "sim-threads {threads} must match the reference"
            );
        }
    }

    #[test]
    fn cores_contend_for_the_shared_l2() {
        // The same L1-overflowing program on 4 cores (each in its
        // private address window) behind one small shared L2 must see
        // a lower L2 hit ratio and more memory traffic per
        // instruction than it does alone: the cores' disjoint working
        // sets evict each other's lines.
        use hyvec_mediabench::multiprogram_sources;
        let mut one = builder().build_multi(1).expect("1 core");
        let mut four = builder().build_multi(4).expect("4 cores");
        let n = 20_000u64;
        let r1 = one.run(multiprogram_sources(&[Benchmark::Mpeg2C], n, 1), Mode::Hp);
        let r4 = four.run(
            multiprogram_sources(&[Benchmark::Mpeg2C; 4], n, 1),
            Mode::Hp,
        );
        let traffic =
            |mem: &CacheStats, instructions: u64| mem.accesses as f64 / instructions as f64;
        assert!(
            traffic(&r4.memory, r4.instructions()) > traffic(&r1.memory, r1.instructions()),
            "shared-L2 contention must raise per-instruction memory traffic: {} vs {}",
            traffic(&r4.memory, r4.instructions()),
            traffic(&r1.memory, r1.instructions())
        );
        assert!(
            r4.l2_hit_ratio() < r1.l2_hit_ratio(),
            "contention must depress the shared-L2 hit ratio: {} vs {}",
            r4.l2_hit_ratio(),
            r1.l2_hit_ratio()
        );
        assert_eq!(r4.per_core.len(), 4);
        assert!(r4.makespan_cycles() >= r4.per_core.iter().map(|r| r.stats.cycles).max().unwrap());
        // Per-core demand memory fills never exceed the chain's total
        // (the chain additionally absorbs writebacks).
        let demand: u64 = r4.per_core.iter().map(|r| r.stats.memory_accesses).sum();
        assert!(demand <= r4.memory.accesses);
        assert!(demand > 0);
    }

    #[test]
    fn private_l2_mesi_topology_counts_coherence_traffic() {
        // Two cores running decorrelated streams over the SAME
        // address space (no rebasing — a shared-memory program, not a
        // multi-programmed one): MESI must record interventions and
        // invalidations, and the report surfaces them through the
        // aggregate l2 counters.
        let mut sys = System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(16))
            .topology(Topology::PrivateL2 {
                coherence: Some(Mesi::default()),
            })
            .build_multi(2)
            .expect("2 cores, private MESI L2s");
        let sources = vec![
            Benchmark::Mpeg2C.trace(20_000, 1),
            Benchmark::Mpeg2C.trace(20_000, 2),
        ];
        let r = sys.run(sources, Mode::Hp);
        let l2 = r.l2.expect("private L2s still report an l2 level");
        assert!(
            l2.interventions > 0,
            "shared lines must be supplied cache-to-cache"
        );
        assert!(l2.invalidations > 0, "writes must invalidate peer copies");
        // Interventions are satisfied at the L2 layer: memory sees
        // fewer reads than the L2s recorded misses.
        assert!(r.memory.accesses < l2.misses + l2.writebacks);
    }

    /// The MESI sweep's shape (32 cores of one program at
    /// `per_core_seed`, a 16 KB private MESI L2 each, an 80-cycle
    /// memory, widths 2, 8 and 32) at a tier-1 size, every chain count
    /// pinned. At 20k instructions per core each width also hits in
    /// its L2s, so write upgrades are pinned beside the misses' snoops.
    #[test]
    fn mesi_sweep_chain_counts_are_pinned() {
        let mut sys = builder()
            .topology(Topology::PrivateL2 {
                coherence: Some(Mesi::default()),
            })
            .build_multi(32)
            .expect("32 cores, private MESI L2s");
        let sources: Vec<_> = (0..32)
            .map(|core| Benchmark::Mpeg2C.trace(20_000, per_core_seed(1, core)))
            .collect();
        let widths = [2, 8, 32];
        let reports = sys
            .run_widths(sources, Mode::Hp, widths)
            .expect("widths fit");
        // The L2s' accesses, writes, hits, misses (= fills),
        // writebacks, invalidations and interventions.
        let l2 = |c: [u64; 7]| CacheStats {
            accesses: c[0],
            writes: c[1],
            hits: c[2],
            misses: c[3],
            fills: c[3],
            writebacks: c[4],
            invalidations: c[5],
            interventions: c[6],
            ..CacheStats::default()
        };
        // Memory's accesses (= hits) and writes.
        let memory = |accesses, writes| CacheStats {
            accesses,
            writes,
            hits: accesses,
            ..CacheStats::default()
        };
        let expected = [
            (l2([1137, 178, 173, 964, 86, 104, 500]), memory(550, 86)),
            (
                l2([4868, 838, 302, 4566, 603, 2292, 4102]),
                memory(1067, 603),
            ),
            (
                l2([18864, 3307, 44, 18820, 2532, 13210, 18356]),
                memory(2996, 2532),
            ),
        ];
        for ((report, width), (l2, memory)) in reports.iter().zip(widths).zip(expected) {
            assert_eq!(report.per_core.len(), width);
            assert_eq!(report.l2, Some(l2), "l2 at width {width}");
            assert_eq!(report.memory, memory, "memory at width {width}");
        }
    }

    #[test]
    fn incoherent_private_l2s_isolate_the_cores() {
        // Multi-programmed (disjoint windows) on private L2s: no
        // coherence traffic at all, with or without MESI.
        use hyvec_mediabench::multiprogram_sources;
        let mut sys = System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(16))
            .topology(Topology::PrivateL2 { coherence: None })
            .build_multi(2)
            .expect("2 cores, incoherent private L2s");
        let r = sys.run(
            multiprogram_sources(&[Benchmark::GsmC, Benchmark::Mpeg2C], 10_000, 5),
            Mode::Hp,
        );
        let l2 = r.l2.expect("aggregate private-L2 counters");
        assert_eq!(l2.interventions, 0);
        assert_eq!(l2.invalidations, 0);
        assert!(l2.accesses > 0);
    }

    #[test]
    fn unequal_trace_lengths_drain_round_robin() {
        let mut sys = builder().build_multi(2).expect("2 cores");
        let short = Benchmark::AdpcmC.trace(1_000, 1);
        let long = Benchmark::AdpcmD.trace(3_000, 2);
        let r = sys.run(vec![short, long], Mode::Hp);
        assert_eq!(r.per_core[0].stats.instructions, 1_000);
        assert_eq!(r.per_core[1].stats.instructions, 3_000);
    }

    #[test]
    fn soft_errors_reach_multi_core_caches() {
        let mut sys = System::builder()
            .config(SystemConfig::uniform_6t())
            .seu(5e-8, 11)
            .build_multi(2)
            .expect("2 cores with SEU");
        let sources = vec![
            Benchmark::AdpcmC.trace(30_000, 1),
            Benchmark::AdpcmD.trace(30_000, 2),
        ];
        let r = sys.run(sources, Mode::Ule);
        let corrupted: u64 = r
            .per_core
            .iter()
            .map(|c| c.stats.silent_corruptions())
            .sum();
        assert!(
            corrupted > 0,
            "unprotected 6T ULE ways must corrupt under accelerated SEUs"
        );
    }
}
