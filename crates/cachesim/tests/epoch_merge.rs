//! Thread-count invariance of the multi-core engine: a run with its
//! L1 fronts split across 2 or 8 threads must be **bit-identical** to
//! the same run with the fronts inline on one thread — same per-core
//! counters, same chain counters, same energy — for every core count,
//! topology and SEU setting, with cores that drain at different
//! rounds.
//!
//! This is the contract that makes `--sim-threads` a pure wall-time
//! knob: `hyvec run-all` output stays byte-identical at any value
//! (the render-format byte-identity itself is pinned by the
//! workspace-level determinism suite; these properties pin the
//! underlying reports). That the one loop follows the canonical
//! round-robin order at all is pinned against an instruction-
//! interleaved reference by the unit tests of `multicore.rs`.

use hyvec_cachesim::config::{L2Config, MemoryConfig, Mesi, Mode, SystemConfig, Topology};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::MultiCoreSystem;
use hyvec_mediabench::{per_core_seed, Benchmark};
use proptest::prelude::*;

/// A `cores`-core machine; without `l2` the shared chain is bare main
/// memory (private-L2 topologies need the L2).
fn build(cores: usize, topology: Topology, seu: bool, l2: bool) -> MultiCoreSystem {
    let l1s = SystemConfig::uniform_6t();
    let mut builder = System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .memory(MemoryConfig::with_latency(40))
        .topology(topology);
    if l2 {
        builder = builder.l2(L2Config::unified(16));
    }
    if seu {
        builder = builder.seu(5e-8, 17);
    }
    builder.build_multi(cores).expect("valid configuration")
}

/// Per-core traces of deliberately unequal lengths (so cores drain at
/// different rounds and the round-robin drop-out order is exercised),
/// over a shared address space to keep private-L2 coherence busy.
fn sources(cores: usize, base_len: usize, seed: u64) -> Vec<impl hyvec_mediabench::TraceSource> {
    (0..cores)
        .map(|core| {
            let len = base_len + 97 * core + (seed as usize % 63);
            Benchmark::BIG[core % Benchmark::BIG.len()].trace(len as u64, per_core_seed(seed, core))
        })
        .collect()
}

proptest! {
    /// Counters are invariant across `--sim-threads` on the shared
    /// topology, with an L2 or over bare memory, fault-free and with
    /// accelerated soft errors active.
    #[test]
    fn shared_chain_counters_are_thread_count_invariant(
        cores_sel in prop::sample::select(vec![1usize, 2, 4, 8]),
        threads in prop::sample::select(vec![2usize, 8]),
        base_len in 300usize..900,
        seed in 0u64..500,
        seu: bool,
        mode_sel: bool,
        l2: bool,
    ) {
        let mode = if mode_sel { Mode::Hp } else { Mode::Ule };
        let mut inline = build(cores_sel, Topology::SharedL2, seu, l2);
        inline.set_sim_threads(1);
        let one = inline.run(sources(cores_sel, base_len, seed), mode);
        let mut parallel = build(cores_sel, Topology::SharedL2, seu, l2);
        parallel.set_sim_threads(threads);
        let threaded = parallel.run(sources(cores_sel, base_len, seed), mode);
        prop_assert_eq!(
            one, threaded,
            "sim-threads {} diverged from 1 on {} cores (seu {}, l2 {})",
            threads, cores_sel, seu, l2
        );
    }

    /// Same invariance over private L2s, MESI-coherent or not: the
    /// merge also replays coherence probes in canonical order.
    #[test]
    fn private_l2_counters_are_thread_count_invariant(
        cores_sel in prop::sample::select(vec![2usize, 4, 8]),
        threads in prop::sample::select(vec![2usize, 8]),
        base_len in 300usize..900,
        seed in 0u64..500,
        coherent: bool,
    ) {
        let topology = Topology::PrivateL2 {
            coherence: coherent.then(Mesi::default),
        };
        let mut inline = build(cores_sel, topology, false, true);
        inline.set_sim_threads(1);
        let one = inline.run(sources(cores_sel, base_len, seed), Mode::Hp);
        let mut parallel = build(cores_sel, topology, false, true);
        parallel.set_sim_threads(threads);
        let threaded = parallel.run(sources(cores_sel, base_len, seed), Mode::Hp);
        prop_assert_eq!(
            one, threaded,
            "sim-threads {} diverged from 1 on {} private L2s (coherent {})",
            threads, cores_sel, coherent
        );
    }

    /// Warm re-runs reproduce under threading too: the per-core SEU
    /// streams are re-derived from the stored seed every run, so the
    /// same system re-running the same sources gives the same report.
    #[test]
    fn warm_threaded_reruns_reproduce(
        threads in prop::sample::select(vec![2usize, 8]),
        seed in 0u64..200,
    ) {
        let mut sys = build(4, Topology::SharedL2, true, true);
        sys.set_sim_threads(threads);
        let first = sys.run(sources(4, 400, seed), Mode::Ule);
        let second = sys.run(sources(4, 400, seed), Mode::Ule);
        prop_assert_eq!(first, second, "warm threaded re-run diverged");
    }
}

/// A 64-core spot check at both ends of the sim-threads range — the
/// widest machine the ablation sweeps, run short to stay cheap.
#[test]
fn sixty_four_cores_stay_deterministic() {
    let sources = || sources(64, 120, 9);
    let mut inline = build(64, Topology::SharedL2, false, true);
    inline.set_sim_threads(1);
    let one = inline.run(sources(), Mode::Hp);
    let mut parallel = build(64, Topology::SharedL2, false, true);
    parallel.set_sim_threads(8);
    let threaded = parallel.run(sources(), Mode::Hp);
    assert_eq!(one, threaded, "64-core epoch merge diverged");
    assert_eq!(one.per_core.len(), 64);
}

/// An SEU-active threaded run actually injects: the invariance tests
/// above would pass vacuously if the accelerated rate never fired.
#[test]
fn threaded_seu_runs_actually_inject() {
    let mut sys = build(2, Topology::SharedL2, true, true);
    sys.set_sim_threads(2);
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
    assert!(corrupted > 0, "accelerated SEUs must land under threading");
}
