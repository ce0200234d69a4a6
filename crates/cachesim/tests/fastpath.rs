//! Fast-path equivalence properties: any trace replayed through an
//! engine whose L1s are armed onto the slow path (the full EDC
//! decode/verify machinery, with no faults actually present) must
//! produce results bit-identical to the fault-free fast path — same
//! `RunStats`, same energy totals, same derived report figures.
//!
//! This is the contract that makes the tiered dispatch a pure
//! optimization: `hyvec run-all` output stays byte-identical because
//! every fault-free experiment silently moved to the fast path.

use hyvec_cachesim::cache::{HybridCache, StuckBits, WordSlot};
use hyvec_cachesim::config::{CacheConfig, L2Config, MemoryConfig, Mode, SystemConfig, WaySpec};
use hyvec_cachesim::engine::System;
use hyvec_cachesim::MultiCoreSystem;
use hyvec_edc::Protection;
use hyvec_mediabench::{Benchmark, DataAccess, TraceEntry};
use hyvec_sram::CellKind;
use proptest::prelude::*;

fn build(with_l2: bool, seu: bool) -> System {
    let l1s = SystemConfig::uniform_6t();
    let mut builder = System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .memory(MemoryConfig::with_latency(40));
    if with_l2 {
        builder = builder.l2(L2Config::unified(16));
    }
    if seu {
        builder = builder.seu(2e-8, 11);
    }
    builder.build().expect("valid configuration")
}

fn force_slow(sys: &mut System) {
    sys.il1_mut().set_force_slow_path(true);
    sys.dl1_mut().set_force_slow_path(true);
}

fn multi(with_l2: bool, cores: usize) -> MultiCoreSystem {
    let l1s = SystemConfig::uniform_6t();
    let mut builder = System::builder()
        .il1(l1s.il1)
        .dl1(l1s.dl1)
        .memory(MemoryConfig::with_latency(40));
    if with_l2 {
        builder = builder.l2(L2Config::unified(16));
    }
    builder.build_multi(cores).expect("valid configuration")
}

/// The plain all-6T L1, or a Scenario-B-like one (SECDED HP ways, a
/// SECDED/DECTED ULE way) whose codes correct some stuck bits and
/// detect others.
fn transition_cache(protected: bool) -> HybridCache {
    let config = if protected {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::Secded); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.9,
            Protection::Secded,
            Protection::Dected,
        ));
        CacheConfig::l1_8kb(ways)
    } else {
        SystemConfig::uniform_6t().il1
    };
    HybridCache::new(config, Mode::Hp)
}

/// Drives a cache and its forced-slow twin through one drawn
/// operation, asserting equal outcomes. `(kind, a, b, flag)`:
///
/// * 0-7: access one of 20 lines over two sets (10 per set, more than
///   the ways), at a word offset from `b`, storing when `flag`;
/// * 8 and 15: access the last address again;
/// * 9: switch to HP (`flag`) or ULE mode;
/// * 10: arm stuck bits on one way's tag (`flag`) or data word, in the
///   last address's set;
/// * 11: arm stuck bits on every way's tag in that set, so the next
///   access to its line misses on the slow path and refills the line
///   into a second way: duplicate plain tags once disarmed;
/// * 12: disarm one armed word; 13: disarm them all;
/// * 14: inject a soft error into one way of that set.
fn transition_step(
    (kind, a, b, flag): (u8, u64, u64, bool),
    caches: &mut [HybridCache; 2],
    armed: &mut Vec<WordSlot>,
    last_addr: &mut u64,
) -> Result<(), TestCaseError> {
    let config = caches[0].config().clone();
    let (sets, line, words) = (config.sets(), config.line_bytes, config.words_per_line());
    let ways = config.ways.len();
    let set = *last_addr / line % sets;
    let slot = |way: usize, tag: bool| WordSlot {
        way,
        set,
        slot: if tag { words } else { b % words },
    };
    let mask = (1u64 << (a % 24)) | (1u64 << (b % 24));
    let faults = StuckBits {
        mask,
        value: (a ^ b.rotate_left(7)) & mask,
    };
    match kind {
        0..=8 | 15 => {
            if kind < 8 {
                let (tag, set) = (a % 10, a / 10 % 2);
                *last_addr = (tag * sets + set) * line + b % words * 4;
            }
            let addr = *last_addr;
            let [fast, slow] = caches;
            let (f, s) = (fast.access(addr, flag), slow.access(addr, flag));
            prop_assert_eq!(f, s, "access {:#x} diverged", addr);
        }
        9 => {
            let mode = if flag { Mode::Hp } else { Mode::Ule };
            let [fast, slow] = caches;
            prop_assert_eq!(fast.set_mode(mode), slow.set_mode(mode));
        }
        10 | 11 => {
            let targets: Vec<WordSlot> = if kind == 10 {
                vec![slot(a as usize % ways, flag)]
            } else {
                (0..ways).map(|w| slot(w, true)).collect()
            };
            for &target in &targets {
                for c in caches.iter_mut() {
                    c.set_stuck_bits(target, faults);
                }
            }
            armed.extend(targets);
        }
        12 | 13 => {
            let n = if kind == 12 {
                armed.len().min(1)
            } else {
                armed.len()
            };
            for _ in 0..n {
                let target = armed.swap_remove(a as usize % armed.len());
                for c in caches.iter_mut() {
                    c.set_stuck_bits(target, StuckBits::default());
                }
            }
        }
        _ => {
            let target = slot(a as usize % ways, flag);
            for c in caches.iter_mut() {
                c.inject_soft_error(target, (b % 26) as u32);
            }
        }
    }
    Ok(())
}

proptest! {
    /// One cache and its forced-slow twin agree access for access while
    /// the cache moves between tiers mid-stream: stuck bits armed and
    /// disarmed (a tag fault makes the slow path refill a resident line
    /// into a second way, leaving duplicate plain tags for the fast
    /// scan and the same-line memo to resolve), soft errors, mode
    /// switches, and reads and writes that repeat lines.
    #[test]
    fn fast_path_matches_slow_twin_across_tier_transitions(
        ops in prop::collection::vec((0u8..16, 0u64..1 << 20, 0u64..1 << 20, any::<bool>()), 1..300),
        protected: bool,
    ) {
        let mut caches = [transition_cache(protected), transition_cache(protected)];
        caches[1].set_force_slow_path(true);
        let mut armed = Vec::new();
        let mut last_addr = 0;
        for &op in &ops {
            transition_step(op, &mut caches, &mut armed, &mut last_addr)?;
        }
        prop_assert_eq!(caches[0].stats(), caches[1].stats());
    }
}

/// Arms stuck-at bits on word 0 of the first two ways of sets 0-3 of
/// the unprotected 6T DL1, which delivers them silently: the costliest
/// decode outcome, and an armed fault map that keeps the DL1 off its
/// fast path in both runs.
fn arm_stuck_bits(sys: &mut System) {
    for set in 0..4 {
        for way in 0..2 {
            sys.dl1_mut().set_stuck_bits(
                WordSlot { way, set, slot: 0 },
                StuckBits {
                    mask: 1 << set,
                    value: 0,
                },
            );
        }
    }
}

proptest! {
    /// Arbitrary synthetic traces — including line-crossing and
    /// sub-word accesses — replay identically on both tiers, with and
    /// without an L2 in the chain, and with and without stuck bits
    /// armed on the DL1 (the fault-map-armed path must equal the
    /// forced one, which decodes every word).
    #[test]
    fn forced_slow_replay_matches_fast_path(
        ops in prop::collection::vec(
            (0u64..0x20000, 1u8..=8, any::<bool>(), any::<bool>()),
            1..400,
        ),
        mode_sel: bool,
        with_l2: bool,
        stuck: bool,
    ) {
        let mode = if mode_sel { Mode::Hp } else { Mode::Ule };
        let trace = || {
            ops.clone().into_iter().map(|(a, size, is_write, has_data)| TraceEntry {
                pc: 0x40_0000 + (a & !3),
                access: has_data.then_some(DataAccess {
                    addr: 0x80_0000 + a,
                    size,
                    is_write,
                }),
            })
        };
        let mut fast = build(with_l2, false);
        let mut slow = build(with_l2, false);
        if stuck {
            arm_stuck_bits(&mut fast);
            arm_stuck_bits(&mut slow);
        }
        force_slow(&mut slow);
        let rf = fast.run(trace(), mode);
        let rs = slow.run(trace(), mode);
        prop_assert_eq!(rf, rs, "fast and armed-slow runs diverged");
    }

    /// The generated MediaBench-style traces agree too, across
    /// benchmarks and seeds (energy totals included).
    #[test]
    fn benchmark_replay_matches_fast_path(
        bench_idx in 0usize..Benchmark::BIG.len(),
        seed in 0u64..1000,
        with_l2: bool,
    ) {
        let b = Benchmark::BIG[bench_idx];
        let mut fast = build(with_l2, false);
        let mut slow = build(with_l2, false);
        force_slow(&mut slow);
        let rf = fast.run(b.trace(8_000, seed), Mode::Hp);
        let rs = slow.run(b.trace(8_000, seed), Mode::Hp);
        prop_assert_eq!(rf.stats, rs.stats);
        prop_assert_eq!(rf.energy, rs.energy);
        prop_assert_eq!(rf.seconds, rs.seconds);
        prop_assert_eq!(rf.epi_pj(), rs.epi_pj());
    }
}

#[test]
fn multicore_forced_slow_matches_fast_path() {
    let sources = || {
        vec![
            Benchmark::GsmC.trace(6_000, 1),
            Benchmark::Mpeg2C.trace(6_000, 2),
        ]
    };
    let mut fast = multi(true, 2);
    let mut slow = multi(true, 2);
    for core in 0..2 {
        let (il1, dl1) = slow.core_mut(core);
        il1.set_force_slow_path(true);
        dl1.set_force_slow_path(true);
    }
    let rf = fast.run(sources(), Mode::Hp);
    let rs = slow.run(sources(), Mode::Hp);
    assert_eq!(rf, rs, "multi-core fast and armed-slow runs diverged");
}

#[test]
fn seu_runs_disengage_the_fast_path_by_themselves() {
    // With an accelerated soft-error rate the caches stop being
    // fault-free mid-run; forcing the slow path must then change
    // nothing at all (the injected upsets land identically because
    // the RNG stream only advances per retired instruction).
    let mut fast = build(false, true);
    let mut slow = build(false, true);
    force_slow(&mut slow);
    let rf = fast.run(Benchmark::AdpcmC.trace(30_000, 7), Mode::Ule);
    let rs = slow.run(Benchmark::AdpcmC.trace(30_000, 7), Mode::Ule);
    assert_eq!(rf, rs);
    assert!(
        rf.stats.silent_corruptions() > 0,
        "accelerated SEUs on the unprotected 6T way must corrupt"
    );
}
