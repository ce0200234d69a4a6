//! The multi-core engine: N private split-L1 front ends over a
//! shared-L2 or private-L2 topology, simulated an epoch at a time.
//!
//! The paper's evaluation is single-core, but the composable
//! [`MemoryLevel`] chain was built so
//! new platform shapes could be assembled on top of it. This module
//! adds the baseline shape every cache-reliability study assumes —
//! several in-order cores, each with its own IL1/DL1 pair (the same
//! core model over the same hybrid-way, bit-accurate caches that the
//! single-core engine drives), missing into **one** shared L2/memory
//! chain — plus the
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
//! 1. each core runs a whole epoch of its own trace through the one
//!    in-order core model both engines share (`Core::execute`). The
//!    closure it hands each miss logs the chain-bound fill request,
//!    tagged with its round, and charges no stall;
//! 2. one merge pass replays the logged requests against the chain
//!    (or every chain, see below) in canonical (round, core, program)
//!    order (`apply_fill`), counting each fill's latency, its depth
//!    and its energy into the issuing core's tally on each chain.
//!
//! A core's report over a chain is its own counts plus its tally
//! there, priced (`Core::report`, as in the single-core engine). A core pulls entries from its source directly
//! and never polls it again after its first `None`, since
//! [`TraceSource`] is not fused.
//!
//! This is the one loop at every simulation-thread count
//! ([`SimOptions::sim_threads`](crate::engine::SimOptions), passed to
//! [`SystemBuilder::options`](crate::engine::SystemBuilder::options),
//! or [`set_sim_threads`](MultiCoreSystem::set_sim_threads)). Each
//! epoch's front phase is one fork-join: the cores wait in one queue,
//! which the calling thread drains together with
//! `min(sim_threads, cores) - 1` helper threads scoped to the epoch
//! (none at one thread), each taking the next core and running its
//! whole epoch. Once the queue is empty and the helpers have joined,
//! the calling thread merges. A panic in any core's front, say from
//! its trace source, reaches the caller once the epoch's threads have
//! joined. The merge visits every chain in exactly the round-robin
//! order, so counters are **bit-identical** to an
//! instruction-interleaved reference loop (kept as test code in this
//! module) at any core count and invariant across `--sim-threads
//! 1/2/8` (pinned by this module's proptests, the `epoch_merge` suite
//! and the determinism suite).
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
//! Soft-error draws come from *per-core* RNG streams, re-seeded with
//! [`per_core_seed`] at the start of every run. Since a logged miss
//! charges no stall, exposure integrates each instruction's core-local
//! cycles (base + bubbles, excluding chain fill stalls), so injection
//! happens inside the core's front pass and lands identically at any
//! thread count. (The single-core engine's closure returns the fill
//! stall instead, and its exposure includes it.)
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
//! system.set_sim_threads(2); // fronts on 2 threads; same counters as 1
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
use crate::config::{ConfigError, L2Config, MemoryConfig, Mesi, Mode};
use crate::engine::{
    apply_fill, chain_below, ChainRequest, ChainTally, Core, CoreTiming, RunReport,
};
use crate::hierarchy::{AccessOutcome, AccessRequest, L2Cache, MainMemory, MemoryLevel};
use crate::power::PowerModel;
use crate::stats::CacheStats;
use hyvec_mediabench::{per_core_seed, TraceSource};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Mutex, PoisonError};

/// Rounds of one epoch: the instructions each core's L1 front runs
/// between two merges.
///
/// Large enough that a core keeps its L1 arrays and generator state
/// hot in the host's caches for ~4k bit-accurate instructions, and
/// that per-epoch coordination (one queue lock per core, plus
/// spawning and joining the helper threads above one thread)
/// amortizes to noise; small enough that the request logs stay
/// cache-resident. Results do not depend on this value — the merge
/// replays the canonical order exactly at any epoch length.
pub const EPOCH_INSTRUCTIONS: usize = 4096;

/// The most cores [`SystemBuilder::build_multi`](crate::engine::SystemBuilder::build_multi)
/// builds: each is an L1 pair, and each epoch of a run may start a
/// helper thread per core. 16 times the widest machine `run-all` runs.
pub const MAX_CORES: usize = 1024;

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

/// One core of the machine with the epoch state the merge reads beside
/// it: whether its source is drained, and its epoch's request log.
///
/// Aligned as [`Padded`] is, for the same reason: a core's counters
/// and L1 state are written on every instruction.
#[derive(Debug)]
#[repr(align(128))]
struct Slot {
    core: Core,
    /// Set at the source's first `None`; a drained source is never
    /// polled again, since [`TraceSource`] is not fused.
    drained: bool,
    /// This epoch's chain-bound requests in program order, each with
    /// its round: the issuing instruction's index in the epoch.
    requests: Vec<(usize, ChainRequest)>,
}

impl Slot {
    /// The front phase of one epoch: drive the core through up to
    /// [`EPOCH_INSTRUCTIONS`] entries of `source`, logging each miss
    /// with its round for the merge. A logged miss stalls the core by
    /// nothing yet, so the core's soft errors at `seu` expected upsets
    /// per cycle integrate its core-local cycles only.
    fn run_epoch<T: TraceSource>(&mut self, source: &mut T, timing: CoreTiming, seu: f64) {
        self.requests.clear();
        for round in 0..EPOCH_INSTRUCTIONS {
            let entry = if self.drained {
                None
            } else {
                source.next_entry()
            };
            let Some(entry) = entry else {
                self.drained = true;
                break;
            };
            let requests = &mut self.requests;
            self.core.execute(entry, timing, seu, |req| {
                requests.push((round, req));
                0
            });
        }
    }
}

/// A trace source on cache lines of its own. Two threads running
/// neighbouring cores write their sources on every instruction, and
/// sources packed side by side would share lines, which the threads
/// would then pass back and forth. 128 bytes, as x86-64 prefetchers
/// fetch lines in aligned pairs.
#[repr(align(128))]
struct Padded<T>(T);

/// The multi-core machine: N private front ends (core + IL1 + DL1)
/// over one shared [`MemoryLevel`] chain or per-core private L2s.
///
/// Built by [`SystemBuilder::build_multi`](crate::engine::SystemBuilder::build_multi);
/// a 1-core instance reproduces [`System`](crate::engine::System) runs
/// counter-for-counter (asserted in the test suite).
#[derive(Debug)]
pub struct MultiCoreSystem {
    /// The cores, in core order.
    slots: Vec<Slot>,
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
    /// Core `i` draws its soft errors from a stream seeded with
    /// [`per_core_seed`]`(seu_seed, i)` at the start of every run, so
    /// warm re-runs reproduce.
    seu_seed: u64,
    /// Threads that run the L1 fronts of each epoch, the calling thread
    /// included; 1 = the calling thread alone.
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
    /// Assembles the machine from parts the builder validated, the
    /// soft-error rate and seed among them.
    pub(crate) fn new(
        cores: Vec<Core>,
        recipe: ChainRecipe,
        power: PowerModel,
        (seu_rate_per_bit_cycle, seu_seed): (f64, u64),
        sim_threads: usize,
    ) -> Self {
        let slots = cores
            .into_iter()
            .map(|core| Slot {
                core,
                drained: false,
                requests: Vec::new(),
            })
            .collect();
        MultiCoreSystem {
            slots,
            recipe,
            power,
            seu_rate_per_bit_cycle,
            seu_seed,
            sim_threads: sim_threads.max(1),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.slots.len()
    }

    /// Threads the next run will drive the L1 fronts on, the calling
    /// thread included (1 = the calling thread alone).
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
        let core = &mut self.slots[core].core;
        (&mut core.il1, &mut core.dl1)
    }

    /// Runs one trace per core to completion at `mode`, with the
    /// counters of the canonical round-robin order (core 0 first). With
    /// [`set_sim_threads`](MultiCoreSystem::set_sim_threads) above 1,
    /// helper threads share each epoch's L1 fronts with the calling
    /// thread; counters are bit-identical either way. To price the run
    /// at another operating point, re-price each per-core report
    /// ([`RunReport::priced_by`]).
    ///
    /// # Panics
    ///
    /// Panics if `sources.len()` differs from the core count, or if a
    /// source panics.
    pub fn run<T>(&mut self, sources: Vec<T>, mode: Mode) -> MultiCoreReport
    where
        T: TraceSource + Send,
    {
        let [report] = self.price(sources, mode, [self.cores()]);
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
    /// Panics if `sources.len()` differs from the core count, or if a
    /// source panics.
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
        Ok(self.price(sources, mode, widths))
    }

    /// Core 0, whose IL1/DL1 configuration every core shares.
    ///
    /// The cores of a [`MultiCoreSystem`] are homogeneous by
    /// construction (`build_multi` builds each from one configuration),
    /// and the run paths rely on that: one [`CoreTiming`], one SEU
    /// exposure figure. This helper is the single place that reads core
    /// 0 on behalf of all cores, and debug-asserts the invariant
    /// instead of silently assuming it.
    fn shared_core(&self) -> &Core {
        let core = &self.slots[0].core;
        let (il1, dl1) = (core.il1.config(), core.dl1.config());
        debug_assert!(
            self.slots
                .iter()
                .all(|slot| slot.core.il1.config() == il1 && slot.core.dl1.config() == dl1),
            "multi-core fronts must share one IL1/DL1 configuration"
        );
        core
    }

    /// The one multi-core run: a mode transition, one epoch-by-epoch
    /// pass of the L1 fronts over `sources` whose misses are priced
    /// against every lane in canonical round-robin order, and one
    /// report per lane.
    fn price<T, const K: usize>(
        &mut self,
        sources: Vec<T>,
        mode: Mode,
        widths: [usize; K],
    ) -> [MultiCoreReport; K]
    where
        T: TraceSource + Send,
    {
        let (mut lanes, timing, seu) = self.transition(sources.len(), mode, widths);
        let tallies = self.epochs(sources, timing, seu, &mut lanes);
        self.reports(&lanes, &tallies, mode)
    }

    /// The start of every run: every core started in `mode` with its
    /// soft-error stream re-seeded, one fresh chain per width, and the
    /// run's timing and soft-error constants ([`Core::constants`]).
    fn transition<const K: usize>(
        &mut self,
        sources: usize,
        mode: Mode,
        widths: [usize; K],
    ) -> ([Lane; K], CoreTiming, f64) {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics): one trace source per core")
        assert_eq!(
            sources,
            self.slots.len(),
            "need exactly one trace source per core"
        );
        for (i, slot) in self.slots.iter_mut().enumerate() {
            slot.core.start(mode);
            slot.core.rng = SmallRng::seed_from_u64(per_core_seed(self.seu_seed, i));
            slot.drained = false;
        }
        let lanes = widths.map(|width| (self.recipe.build(width), width));
        let rate = self.seu_rate_per_bit_cycle;
        let (timing, seu) = self.shared_core().constants(&self.power, mode, rate);
        (lanes, timing, seu)
    }

    /// One report per lane from each core's front counters and its
    /// `tallies`, priced at `mode`'s operating point.
    fn reports<const K: usize>(
        &self,
        lanes: &[Lane; K],
        tallies: &[[ChainTally; K]],
        mode: Mode,
    ) -> [MultiCoreReport; K] {
        std::array::from_fn(|j| {
            let (chain, width) = &lanes[j];
            let chain = chain.as_dyn().chain_stats();
            let level = |name| chain.iter().find(|(n, _)| *n == name).map(|(_, s)| *s);
            let per_core = self.slots[..*width]
                .iter()
                .zip(tallies)
                .map(|(slot, tallies)| slot.core.report(&tallies[j], &self.power, mode))
                .collect();
            MultiCoreReport {
                per_core,
                l2: level("l2"),
                memory: level("memory").unwrap_or_default(),
                mode,
            }
        })
    }

    /// The one run loop, one fork-join per epoch: the calling thread
    /// and `min(sim_threads, cores) - 1` scoped helpers drain one queue
    /// of cores, each running its core's epoch; then [`merge`] replays
    /// the epoch's logs against the lanes. Ends once every source is
    /// drained, returning each core's tally per lane.
    fn epochs<T, const K: usize>(
        &mut self,
        sources: Vec<T>,
        timing: CoreTiming,
        seu: f64,
        lanes: &mut [Lane; K],
    ) -> Vec<[ChainTally; K]>
    where
        T: TraceSource + Send,
    {
        let mut sources: Vec<Padded<T>> = sources.into_iter().map(Padded).collect();
        let helpers = self.sim_threads.min(self.slots.len()) - 1;
        let mut tallies = vec![[ChainTally::default(); K]; self.slots.len()];
        let mut order = Vec::new();
        loop {
            let queue = Mutex::new(self.slots.iter_mut().zip(&mut sources));
            // The lock is held only to take the next core, which leaves
            // the queue valid at every step, and never while a core
            // runs: a poisoned lock still holds a sound queue.
            let drain = || loop {
                let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((slot, source)) = next else { break };
                slot.run_epoch(&mut source.0, timing, seu);
            };
            std::thread::scope(|scope| {
                for _ in 0..helpers {
                    scope.spawn(drain);
                }
                drain();
            });
            if merge(&self.slots, lanes, &mut tallies, timing, &mut order) {
                return tallies;
            }
        }
    }
}

/// The merge of one epoch: replays every core's logged requests
/// against the lanes in canonical (round, core, program) order,
/// counting each fill into the issuing core's tally on every lane
/// whose width takes the core in. `order` is the sort
/// buffer, reused across epochs. Returns whether every source is
/// drained.
fn merge<const K: usize>(
    slots: &[Slot],
    lanes: &mut [Lane; K],
    tallies: &mut [[ChainTally; K]],
    timing: CoreTiming,
    order: &mut Vec<(usize, usize, ChainRequest)>,
) -> bool {
    order.clear();
    for (i, slot) in slots.iter().enumerate() {
        order.extend(slot.requests.iter().map(|&(round, req)| (round, i, req)));
    }
    // Stable, so each round keeps core order and then program order.
    order.sort_by_key(|&(round, _, _)| round);
    for &(_, core, req) in order.iter() {
        for (j, tally) in tallies[core].iter_mut().enumerate() {
            if let Some(fill) = lane_fill(lanes, j, core, req.access) {
                apply_fill(timing, req.kind, fill, tally);
            }
        }
    }
    slots.iter().all(|slot| slot.drained)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, L2Config, MemoryConfig, Mesi, SystemConfig, Topology};
    use crate::engine::System;
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
    /// ([`round_robin`]), each miss resolved on the spot against every
    /// lane whose width takes the core in. Same start and reports as
    /// [`MultiCoreSystem::run_widths`].
    fn reference<T: TraceSource, const K: usize>(
        sys: &mut MultiCoreSystem,
        sources: Vec<T>,
        mode: Mode,
        widths: [usize; K],
    ) -> [MultiCoreReport; K] {
        let (mut lanes, timing, seu) = sys.transition(sources.len(), mode, widths);
        let mut tallies = vec![[ChainTally::default(); K]; sys.cores()];
        for (i, entry) in round_robin(sources) {
            let tallies = &mut tallies[i];
            // Returning no stall keeps exposure core-local, as in the
            // one loop.
            sys.slots[i].core.execute(entry, timing, seu, |req| {
                for (j, tally) in tallies.iter_mut().enumerate() {
                    if let Some(fill) = lane_fill(&mut lanes, j, i, req.access) {
                        apply_fill(timing, req.kind, fill, tally);
                    }
                }
                0
            });
        }
        sys.reports(&lanes, &tallies, mode)
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

    /// A trace that panics when asked for its entry number `at`, if
    /// it has one.
    struct Panicking {
        trace: hyvec_mediabench::Trace,
        at: Option<usize>,
        polled: usize,
    }

    impl TraceSource for Panicking {
        fn next_entry(&mut self) -> Option<TraceEntry> {
            assert_ne!(Some(self.polled), self.at, "injected trace failure");
            self.polled += 1;
            self.trace.next_entry()
        }
    }

    #[test]
    fn a_panicking_source_fails_the_run_instead_of_hanging_it() {
        // Mid-epoch, after one merge, on whichever thread runs the core.
        let at = EPOCH_INSTRUCTIONS + 100;
        for threads in [1, 2, 8] {
            for panicking in 0..3 {
                let sources: Vec<Panicking> = traces(&[3 * EPOCH_INSTRUCTIONS; 3], 5)
                    .into_iter()
                    .enumerate()
                    .map(|(core, trace)| Panicking {
                        trace,
                        at: (core == panicking).then_some(at),
                        polled: 0,
                    })
                    .collect();
                let mut sys = machine(3, Below::SharedL2, false);
                sys.set_sim_threads(threads);
                // On a thread of its own, so a hang fails the test
                // instead of stalling the suite.
                let (done, outcome) = std::sync::mpsc::channel();
                std::thread::spawn(move || {
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        sys.run(sources, Mode::Hp)
                    }));
                    done.send(run.is_err())
                });
                assert_eq!(
                    outcome.recv_timeout(std::time::Duration::from_secs(60)),
                    Ok(true),
                    "core {panicking} panicking at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn zero_cores_is_rejected() {
        assert_eq!(builder().build_multi(0).unwrap_err(), ConfigError::NoCores);
    }

    #[test]
    fn core_counts_above_the_cap_are_rejected_before_any_core_is_built() {
        // A builder without L1s builds no core at any count, and the
        // cap is checked before the L1s are.
        let cores = MAX_CORES + 1;
        assert_eq!(
            System::builder().build_multi(cores).unwrap_err(),
            ConfigError::TooManyCores { cores }
        );
        assert_eq!(
            System::builder().build_multi(MAX_CORES).unwrap_err(),
            ConfigError::MissingCache { cache: "il1" }
        );
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
    fn one_core_matches_the_single_core_engine_at_ule_with_faults() {
        // The same stuck-at faults in both machines' protected L1s, and
        // two chains priced from one pass on each side: both engines'
        // closures drive the core on the armed slow path. Soft errors
        // stay off, since the two engines draw them from different
        // streams by design.
        use crate::config::WaySpec;
        use crate::faults::sample_faults;
        use hyvec_edc::Protection;
        use hyvec_sram::CellKind;
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        let builder = || builder().config(SystemConfig::with_ways(ways.clone(), 80));
        let mut single = builder().build().expect("single");
        let mut multi = builder().build_multi(1).expect("multi");
        // One stuck-at map in both machines: the same draws from the
        // same seed.
        let mut pf_by_way = [0.0; 8];
        pf_by_way[7] = 2e-3;
        let mut rng = SmallRng::seed_from_u64(9);
        sample_faults(single.dl1_mut(), &pf_by_way, &mut rng);
        sample_faults(single.il1_mut(), &pf_by_way, &mut rng);
        let mut rng = SmallRng::seed_from_u64(9);
        let (il1, dl1) = multi.core_mut(0);
        sample_faults(dl1, &pf_by_way, &mut rng);
        sample_faults(il1, &pf_by_way, &mut rng);

        let trace = || Benchmark::Mpeg2C.trace(20_000, 3);
        let mut chains = [(); 2].map(|_| builder().build_chain().expect("valid chain"));
        let singles = single
            .run_chains(trace(), Mode::Ule, &mut chains)
            .expect("no soft errors");
        let multis = multi
            .run_widths(vec![trace()], Mode::Ule, [1, 1])
            .expect("widths fit");
        for (s, m) in singles.iter().zip(&multis) {
            let core = &m.per_core[0];
            let counts = |r: &RunReport| {
                let t = &r.stats;
                (t.corrected(), t.detected(), t.silent_corruptions())
            };
            assert_eq!(core.stats.instructions, s.stats.instructions);
            assert_eq!(core.stats.cycles, s.stats.cycles);
            assert_eq!(core.stats.il1, s.stats.il1);
            assert_eq!(core.stats.dl1, s.stats.dl1);
            assert_eq!(core.stats.il1_stall_cycles, s.stats.il1_stall_cycles);
            assert_eq!(core.stats.dl1_stall_cycles, s.stats.dl1_stall_cycles);
            assert_eq!(core.stats.edc_stall_cycles, s.stats.edc_stall_cycles);
            assert_eq!(counts(core), counts(s));
            assert_eq!(m.l2, s.stats.l2);
            assert_eq!(m.memory.accesses, s.stats.memory_accesses);
            assert_eq!(core.seconds, s.seconds);
            assert!((core.energy.total_pj() - s.energy.total_pj()).abs() < 1e-9);
        }
        let s = &singles[0].stats;
        assert!(s.corrected() > 0, "the stuck bits must be read");
        assert!(s.edc_stall_cycles > 0, "ULE fills pay their EDC latency");
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
