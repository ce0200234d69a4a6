//! One L1 pass, many chains: pricing a trace against K chains at once
//! must give exactly the K reports that K separate runs give.
//!
//! * `System::run_chains` against K independent `System::run`s on
//!   fresh machines with the same L1s and fault maps: every `RunStats`
//!   field, the energy bits and `seconds`, over random L2 geometries
//!   and memory latencies, sampled stuck-at faults, and the forced
//!   slow path on and off.
//! * `MultiCoreSystem::run_widths` against standalone machines of each
//!   width from the same builder: shared and private-MESI topologies,
//!   soft errors on and off, unequal trace lengths, and 1, 2 or 8
//!   simulation threads.
//! * The typed errors: single-core soft errors with K > 1, and chain
//!   widths outside the machine.

use hyvec_cachesim::config::{
    ConfigError, L2Config, MemoryConfig, Mesi, Mode, SystemConfig, Topology, WaySpec,
};
use hyvec_cachesim::engine::{RunReport, SimOptions, System, SystemBuilder};
use hyvec_cachesim::faults::sample_faults;
use hyvec_cachesim::hierarchy::MemoryLevel;
use hyvec_edc::Protection;
use hyvec_mediabench::{per_core_seed, Benchmark, TraceSource};
use hyvec_sram::CellKind;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Scenario-A proposal L1s (unprotected HP ways, a ULE way with SECDED
/// at ULE mode), so sampled stuck bits are corrected, detected or slip
/// through, and ULE-mode fills pay an EDC latency.
fn protected_l1s() -> SystemConfig {
    let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
    ways.push(WaySpec::ule_way(
        CellKind::Sram8T,
        1.8,
        Protection::None,
        Protection::Secded,
    ));
    SystemConfig::with_ways(ways, 20)
}

/// The chain recipe of one case: an optional L2 of `l2_kb` KB with a
/// `l2_latency`-cycle lookup, over a `memory_latency`-cycle memory.
#[derive(Debug, Clone, Copy)]
struct ChainSpec {
    l2_kb: Option<u64>,
    l2_latency: u32,
    memory_latency: u32,
}

impl ChainSpec {
    fn apply(self, mut builder: SystemBuilder) -> SystemBuilder {
        if let Some(kb) = self.l2_kb {
            let mut l2 = L2Config::unified(kb);
            l2.hit_latency = self.l2_latency;
            builder = builder.l2(l2);
        }
        builder.memory(MemoryConfig::with_latency(self.memory_latency))
    }
}

fn chain_spec(rng_pick: (u64, u64, u64)) -> ChainSpec {
    let (l2_sel, l2_latency, memory_latency) = rng_pick;
    ChainSpec {
        l2_kb: [None, Some(2), Some(8), Some(32)][l2_sel as usize % 4],
        l2_latency: l2_latency as u32,
        memory_latency: memory_latency as u32,
    }
}

/// A single-core machine over `spec`, its L1s carrying the stuck bits
/// drawn from `fault_seed` at probability `pf` per ULE-way bit.
fn single(spec: ChainSpec, force_slow_path: bool, pf: f64, fault_seed: u64) -> System {
    let options = SimOptions {
        force_slow_path,
        sim_threads: 1,
    };
    let builder = System::builder().config(protected_l1s()).options(options);
    let mut system = spec.apply(builder).build().expect("valid configuration");
    let mut pf_by_way = [0.0; 8];
    pf_by_way[7] = pf;
    let mut rng = SmallRng::seed_from_u64(fault_seed);
    sample_faults(system.dl1_mut(), &pf_by_way, &mut rng);
    sample_faults(system.il1_mut(), &pf_by_way, &mut rng);
    system
}

/// Every field of two reports, with the floating-point figures
/// compared bit for bit.
fn same_report(a: &RunReport, b: &RunReport) -> bool {
    let bits = |r: &RunReport| {
        let e = r.energy;
        [
            e.l1_dynamic_pj,
            e.l1_leakage_pj,
            e.edc_pj,
            e.other_pj,
            r.below_pj,
            r.seconds,
        ]
        .map(f64::to_bits)
    };
    a.stats == b.stats && a.mode == b.mode && bits(a) == bits(b)
}

proptest! {
    /// Three chains priced from one pass equal three separate runs.
    #[test]
    fn single_core_chains_match_separate_runs(
        picks in prop::collection::vec((0u64..4, 0u64..12, 1u64..120), 3),
        force_slow_path: bool,
        faulty: bool,
        ule: bool,
        len in 300u64..2000,
        seed in 0u64..1000,
    ) {
        let specs = [chain_spec(picks[0]), chain_spec(picks[1]), chain_spec(picks[2])];
        let mode = if ule { Mode::Ule } else { Mode::Hp };
        let pf = if faulty { 2e-3 } else { 0.0 };
        let bench = Benchmark::ALL[seed as usize % Benchmark::ALL.len()];
        let trace = || bench.trace(len, seed);

        let mut shared = single(specs[0], force_slow_path, pf, seed);
        let mut chains = specs.map(|spec| {
            spec.apply(System::builder()).build_chain().expect("valid chain")
        });
        let priced = shared.run_chains(trace(), mode, &mut chains).expect("no soft errors");
        for (spec, report) in specs.iter().zip(&priced) {
            let alone = single(*spec, force_slow_path, pf, seed).run(trace(), mode);
            prop_assert!(
                same_report(report, &alone),
                "{:?} (slow {}, pf {}, {:?}): {:?} != {:?}",
                spec, force_slow_path, pf, mode, report, alone
            );
        }
        // A second pass over the same chains (each flushed and reset on
        // entry, as `run` does) reproduces the first.
        let again = shared.run_chains(trace(), mode, &mut chains).expect("no soft errors");
        for (a, b) in priced.iter().zip(&again) {
            prop_assert!(same_report(a, b), "re-priced run diverged");
        }
    }
}

/// The K = 1 instance is `run` itself, soft errors included: one chain
/// with injection on is allowed and matches the system's own chain.
#[test]
fn one_chain_with_soft_errors_matches_run() {
    let build = || {
        System::builder()
            .config(protected_l1s())
            .l2(L2Config::unified(8))
            .seu(2e-8, 5)
            .build()
            .expect("valid configuration")
    };
    let trace = || Benchmark::AdpcmC.trace(20_000, 3);
    let mut chains = [System::builder()
        .l2(L2Config::unified(8))
        .build_chain()
        .expect("valid chain")];
    let [priced] = build()
        .run_chains(trace(), Mode::Ule, &mut chains)
        .expect("one chain is fine with soft errors");
    let alone = build().run(trace(), Mode::Ule);
    assert!(same_report(&priced, &alone));
    assert!(alone.stats.corrected() > 0, "the upsets must actually land");
}

#[test]
fn single_core_soft_errors_refuse_shared_chains() {
    let mut system = System::builder()
        .config(protected_l1s())
        .seu(2e-8, 5)
        .build()
        .expect("valid configuration");
    let chain = || System::builder().build_chain().expect("valid chain");
    let mut chains: [Box<dyn MemoryLevel>; 2] = [chain(), chain()];
    let err = system
        .run_chains(Benchmark::AdpcmC.trace(100, 1), Mode::Ule, &mut chains)
        .unwrap_err();
    assert_eq!(err, ConfigError::SeuAcrossChains { chains: 2 });
}

#[test]
fn widths_outside_the_machine_are_refused() {
    let mut machine = System::builder()
        .config(SystemConfig::uniform_6t())
        .build_multi(4)
        .expect("4 cores");
    let sources = || {
        (0..4)
            .map(|c| Benchmark::GsmC.trace(50, c))
            .collect::<Vec<_>>()
    };
    for width in [0, 5] {
        let err = machine
            .run_widths(sources(), Mode::Hp, [2, width])
            .unwrap_err();
        assert_eq!(err, ConfigError::ChainWidth { width, cores: 4 });
    }
}

/// The builder of the width cases: `cores`-agnostic, so the wide
/// machine and every standalone one come from the same recipe.
fn multi_builder(topology: Topology, seu: bool, threads: usize) -> SystemBuilder {
    let mut builder = System::builder()
        .config(SystemConfig::uniform_6t())
        .l2(L2Config::unified(4))
        .memory(MemoryConfig::with_latency(40))
        .topology(topology)
        .options(SimOptions {
            force_slow_path: false,
            sim_threads: threads,
        });
    if seu {
        builder = builder.seu(5e-8, 17);
    }
    builder
}

/// Per-core traces of unequal lengths over one shared address space
/// (cores drain in different rounds and private L2s share lines).
fn width_sources(cores: usize, base_len: u64, seed: u64) -> Vec<impl TraceSource + Send> {
    (0..cores)
        .map(|core| {
            let len = base_len + 61 * core as u64 + seed % 37;
            Benchmark::BIG[core % Benchmark::BIG.len()].trace(len, per_core_seed(seed, core))
        })
        .collect()
}

proptest! {
    /// Three widths priced from one pass of the widest machine's fronts
    /// equal three standalone machines of those widths.
    #[test]
    fn widths_match_standalone_machines(
        cores in 1usize..7,
        narrow in prop::collection::vec(1usize..7, 2),
        threads in prop::sample::select(vec![1usize, 2, 8]),
        private: bool,
        seu: bool,
        ule: bool,
        base_len in 200u64..700,
        seed in 0u64..500,
    ) {
        let topology = if private {
            Topology::PrivateL2 { coherence: Some(Mesi::default()) }
        } else {
            Topology::SharedL2
        };
        let mode = if ule { Mode::Ule } else { Mode::Hp };
        // Unsorted, possibly repeated widths, all within the machine.
        let widths = [narrow[0].min(cores), cores, narrow[1].min(cores)];
        let mut wide = multi_builder(topology, seu, threads)
            .build_multi(cores)
            .expect("valid machine");
        let priced = wide
            .run_widths(width_sources(cores, base_len, seed), mode, widths)
            .expect("widths fit");
        for (width, report) in widths.iter().zip(&priced) {
            let mut alone = multi_builder(topology, seu, 1)
                .build_multi(*width)
                .expect("valid machine");
            let mut sources = width_sources(cores, base_len, seed);
            sources.truncate(*width);
            let reference = alone.run(sources, mode);
            prop_assert_eq!(
                report, &reference,
                "width {} of {} (threads {}, private {}, seu {}, {:?})",
                width, cores, threads, private, seu, mode
            );
        }
    }
}

/// The ablation shapes at full width: 1..64 cores over one shared L2,
/// and 2/8/32 private MESI L2s, each from one pass of the widest
/// machine, equal the standalone machines (short traces, threaded).
#[test]
fn ablation_widths_match_standalone_machines() {
    let shapes = [
        (Topology::SharedL2, vec![1usize, 2, 4, 8, 16, 32, 64]),
        (
            Topology::PrivateL2 {
                coherence: Some(Mesi::default()),
            },
            vec![2, 8, 32],
        ),
    ];
    for (topology, widths) in shapes {
        let cores = widths[widths.len() - 1];
        let mut wide = multi_builder(topology, false, 2)
            .build_multi(cores)
            .expect("valid machine");
        let widths3 = [widths[0], widths[widths.len() / 2], cores];
        let priced = wide
            .run_widths(width_sources(cores, 40, 3), Mode::Hp, widths3)
            .expect("widths fit");
        for (width, report) in widths3.iter().zip(&priced) {
            let mut sources = width_sources(cores, 40, 3);
            sources.truncate(*width);
            let reference = multi_builder(topology, false, 1)
                .build_multi(*width)
                .expect("valid machine")
                .run(sources, Mode::Hp);
            assert_eq!(report, &reference, "{topology:?} width {width}");
        }
    }
}
