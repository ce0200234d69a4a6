//! Integration tests of the composable memory hierarchy: miss-path
//! latency composition through the `MemoryLevel` chain, and the
//! `SystemBuilder` / legacy `SystemConfig` equivalence contract.

use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig, WaySpec};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::hierarchy::{AccessRequest, HitDepth, L2Cache, MainMemory, MemoryLevel};
use hyvec_edc::Protection;
use hyvec_mediabench::{Benchmark, TraceEntry};
use hyvec_sram::CellKind;

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

fn l2_chain(hit_latency: u32, memory_latency: u32) -> L2Cache {
    L2Cache::new(
        L2Config::unified(32).with_hit_latency(hit_latency),
        Box::new(MainMemory::new(MemoryConfig::with_latency(memory_latency))),
    )
}

#[test]
fn miss_path_latency_composes_level_by_level() {
    let mut chain = l2_chain(6, 50);

    // L1 miss -> L2 miss -> memory: lookup + full memory latency.
    let cold = chain.access(AccessRequest::read(0x4000));
    assert_eq!(cold.latency_cycles, 6 + 50);
    assert_eq!(cold.depth, HitDepth::Memory);

    // L1 miss -> L2 hit: the lookup latency alone.
    let warm = chain.access(AccessRequest::read(0x4004));
    assert_eq!(warm.latency_cycles, 6);
    assert_eq!(warm.depth, HitDepth::L2);
}

#[test]
fn engine_charges_the_composed_miss_latency() {
    // One instruction whose fetch misses everywhere: the stall must be
    // exactly the L2 lookup plus the memory latency (no EDC on the
    // 6T fetch path of scenario-A HP mode).
    let cfg = SystemConfig::uniform_6t();
    let mut flat = System::builder()
        .config(cfg.clone())
        .memory(MemoryConfig::with_latency(40))
        .build()
        .expect("flat");
    let mut stacked = System::builder()
        .config(cfg)
        .memory(MemoryConfig::with_latency(40))
        .l2(L2Config::unified(32).with_hit_latency(7))
        .build()
        .expect("stacked");

    let one_fetch = vec![TraceEntry {
        pc: 0x100,
        access: None,
    }];
    let f = flat.run(one_fetch.clone().into_iter(), Mode::Hp);
    let s = stacked.run(one_fetch.into_iter(), Mode::Hp);
    assert_eq!(f.stats.il1_stall_cycles, 40);
    assert_eq!(s.stats.il1_stall_cycles, 40 + 7, "L2 lookup adds to a miss");
    assert_eq!(s.stats.l2.expect("l2 stats").misses, 1);
    assert_eq!(s.stats.memory_accesses, 1);
}

#[test]
fn no_l2_builder_reproduces_the_legacy_system_exactly() {
    // The SystemBuilder compatibility contract: with the same L1s and
    // a flat memory, the builder-made system and the historical
    // System::new(SystemConfig) produce the same RunReport bit for
    // bit on identical traces and seeds.
    let config = proposal_a();
    let mut legacy = System::new(config.clone());
    let mut built = System::builder().config(config).build().expect("builder");
    for (b, mode, seed) in [
        (Benchmark::AdpcmC, Mode::Ule, 7),
        (Benchmark::GsmC, Mode::Hp, 11),
        (Benchmark::Mpeg2D, Mode::Hp, 3),
    ] {
        let l = legacy.run(b.trace(30_000, seed), mode);
        let r = built.run(b.trace(30_000, seed), mode);
        assert_eq!(l, r, "{b}: builder diverged from System::new");
    }
}

#[test]
fn l2_run_exercises_the_memory_level_path() {
    // An L2-enabled run demonstrably routes misses through the new
    // hierarchy: the L2 sees every L1 miss, memory traffic shrinks,
    // and the stall/energy breakdown moves.
    let config = proposal_a();
    let mut flat = System::builder()
        .config(config.clone())
        .memory(MemoryConfig::with_latency(80))
        .build()
        .expect("flat");
    let mut stacked = System::builder()
        .config(config.clone())
        .memory(MemoryConfig::with_latency(80))
        .l2(L2Config::unified(64))
        .build()
        .expect("stacked");
    let mut free_l2 = L2Config::unified(64);
    free_l2.read_energy_pj = 0.0;
    free_l2.write_energy_pj = 0.0;
    let mut stacked_free = System::builder()
        .config(config)
        .memory(MemoryConfig::with_latency(80))
        .l2(free_l2)
        .build()
        .expect("stacked, energy-free L2");

    let f = flat.run(Benchmark::Mpeg2C.trace(60_000, 5), Mode::Hp);
    let s = stacked.run(Benchmark::Mpeg2C.trace(60_000, 5), Mode::Hp);
    let s0 = stacked_free.run(Benchmark::Mpeg2C.trace(60_000, 5), Mode::Hp);

    // Identical L1 behavior (the hierarchy only changes the miss
    // path), so the same miss stream descends.
    assert_eq!(f.stats.il1, s.stats.il1);
    assert_eq!(f.stats.dl1, s.stats.dl1);
    let l2 = s.stats.l2.expect("L2 stats recorded");
    assert_eq!(
        l2.accesses,
        s.stats.il1.misses + s.stats.dl1.misses,
        "every L1 miss must reach the L2"
    );
    assert!(l2.hits > 0, "the L2 must absorb part of the stream");
    assert!(s.stats.memory_accesses < f.stats.memory_accesses);
    assert!(s.stats.cycles < f.stats.cycles, "the L2 must hide latency");
    // Against a timing-identical L2 with free accesses, the configured
    // access energy must surface in the `other` component (where the
    // engine folds below-L1 energy).
    assert_eq!(s.stats, s0.stats, "energy model must not change timing");
    assert!(
        s.energy.other_pj > s0.energy.other_pj,
        "L2 access energy lands in the `other` component"
    );
    assert!(f.stats.l2.is_none());
}

#[test]
fn l2_contents_do_not_survive_a_mode_switch() {
    let mut system = System::builder()
        .config(proposal_a())
        .l2(L2Config::unified(32))
        .build()
        .expect("system");
    system.run(Benchmark::AdpcmC.trace(20_000, 1), Mode::Hp);
    let r = system.run(Benchmark::AdpcmC.trace(20_000, 1), Mode::Ule);
    let l2 = r.stats.l2.expect("l2 stats");
    assert!(
        l2.misses > 0,
        "the flush on entry to a run must cold-start the L2"
    );
}

#[test]
fn custom_level_edc_events_surface_in_the_report() {
    // A user-defined MemoryLevel (here: an ECC-protected memory that
    // corrects one bit on every read) must see its corrected/detected
    // counts land in the run statistics, not get dropped.
    use hyvec_cachesim::hierarchy::AccessOutcome;
    use hyvec_cachesim::CacheStats;

    #[derive(Debug)]
    struct EccMemory(MainMemory);

    impl MemoryLevel for EccMemory {
        fn access(&mut self, req: AccessRequest) -> AccessOutcome {
            AccessOutcome {
                corrected: 1,
                ..self.0.access(req)
            }
        }
        fn flush(&mut self) {
            self.0.flush();
        }
        fn reset_stats(&mut self) {
            self.0.reset_stats();
        }
        fn chain_stats(&self) -> Vec<(&'static str, CacheStats)> {
            self.0.chain_stats()
        }
    }

    // A custom terminal level composes under an L2Cache through the
    // same trait, and the L2 propagates its events upward.
    let mut chain = L2Cache::new(
        L2Config::unified(32),
        Box::new(EccMemory(MainMemory::new(MemoryConfig::with_latency(20)))),
    );
    let out = chain.access(AccessRequest::read(0x100));
    assert_eq!(out.corrected, 1, "L2 must propagate below-level events");

    // Installed under the engine, the events land in RunStats.
    let mut system = System::new(proposal_a());
    system.set_hierarchy(Box::new(EccMemory(MainMemory::new(
        MemoryConfig::with_latency(20),
    ))));
    let r = system.run(Benchmark::Mpeg2C.trace(10_000, 1), Mode::Hp);
    let misses = r.stats.il1.misses + r.stats.dl1.misses;
    assert!(misses > 0);
    assert_eq!(
        r.stats.below_corrected, misses,
        "one correction per miss must surface"
    );
    assert_eq!(
        r.stats.corrected(),
        r.stats.il1.corrected + r.stats.dl1.corrected + misses,
        "the aggregate must include below-L1 events"
    );
}

#[test]
fn replayed_traces_drive_the_engine_identically() {
    // TraceSource interchangeability: the synthetic generator and its
    // file-format round trip produce the same simulation.
    use hyvec_mediabench::replay::{write_trace, Replay};
    let mut system = System::builder()
        .config(proposal_a())
        .l2(L2Config::unified(32))
        .build()
        .expect("system");
    let text = write_trace(Benchmark::EpicC.trace(20_000, 9));
    let generated = system.run(Benchmark::EpicC.trace(20_000, 9), Mode::Ule);
    let replayed = system.run(Replay::from_text(&text).expect("parses"), Mode::Ule);
    assert_eq!(generated, replayed);
}
