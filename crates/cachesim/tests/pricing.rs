//! One simulation, many power models: the contract of
//! `SystemConfig::behaviour` and `RunReport::priced_by`.
//!
//! Each case builds two configs over one random way split, so they
//! share a behaviour key, and draws everything else for each side on
//! its own: the per-mode codes of both way groups, cell kinds,
//! sizings, the uncore sizing and the memory latency. Both run one
//! trace at a random mode, over a 4KB L2 or a flat memory, with the
//! forced slow path on either side.
//!
//! * (a) Equal keys count equal events: the two runs, priced by one
//!   power model at one operating point, are one report.
//! * (b) Each machine's report, re-priced under the other machine's
//!   power model, is the other machine's own report, bit for bit:
//!   every `RunStats` field (cycles and stalls priced with the other
//!   codes and memory latency), every energy figure and `seconds`, at
//!   the mode's operating point and at a random one. The memory
//!   charges energy per access, so the below-L1 energy a report
//!   carries is exercised.
//! * (c) Changing one way's ULE gating changes the ULE key; changing
//!   its code at either mode, or its gating at HP, where every way is
//!   on, does not.

use hyvec_cachemodel::OperatingPoint;
use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig, WaySpec};
use hyvec_cachesim::engine::{RunReport, SimOptions, System};
use hyvec_edc::Protection;
use hyvec_mediabench::Benchmark;
use hyvec_sram::{CellKind, SizedCell};
use proptest::prelude::*;

const PROTECTIONS: [Protection; 3] = [Protection::None, Protection::Secded, Protection::Dected];
const CELLS: [CellKind; 3] = [CellKind::Sram6T, CellKind::Sram8T, CellKind::Sram10T];

/// One side of a case: each way group's code in each mode, and what
/// prices the counters.
#[derive(Debug, Clone, Copy)]
struct Side {
    /// HP-way protection at `[HP, ULE]`.
    hp_protection: [Protection; 2],
    /// ULE-way protection at `[HP, ULE]`.
    ule_protection: [Protection; 2],
    hp_cell: SizedCell,
    ule_cell: SizedCell,
    uncore_sizing: f64,
    memory_latency: u32,
}

/// The side of `(four protection indices, (HP-way cell kind, its
/// sizing, ULE-way cell kind, its sizing), uncore sizing, memory
/// latency)`.
fn side(
    protections: &[usize],
    cells: (usize, f64, usize, f64),
    uncore_sizing: f64,
    memory_latency: u32,
) -> Side {
    let p = |i: usize| PROTECTIONS[protections[i]];
    let (hp_kind, hp_sizing, ule_kind, ule_sizing) = cells;
    Side {
        hp_protection: [p(0), p(1)],
        ule_protection: [p(2), p(3)],
        hp_cell: SizedCell::new(CELLS[hp_kind], hp_sizing),
        ule_cell: SizedCell::new(CELLS[ule_kind], ule_sizing),
        uncore_sizing,
        memory_latency,
    }
}

/// Both 8-way L1s of `side`, with their last `ule_ways` ways
/// ULE-enabled.
fn config(ule_ways: usize, side: Side) -> SystemConfig {
    let way = |cell, ule_enabled, [protection_hp, protection_ule]: [Protection; 2]| WaySpec {
        cell,
        ule_enabled,
        protection_hp,
        protection_ule,
    };
    let mut ways = vec![way(side.hp_cell, false, side.hp_protection); 8 - ule_ways];
    ways.resize(8, way(side.ule_cell, true, side.ule_protection));
    let mut config = SystemConfig::with_ways(ways, side.memory_latency);
    config.uncore_ten_t_sizing = side.uncore_sizing;
    config
}

/// A machine of `config` over a memory of `config`'s latency that
/// charges `memory_pj` per access, behind a 4KB L2 when `l2`.
fn machine(config: &SystemConfig, l2: bool, memory_pj: f64, force_slow_path: bool) -> System {
    let builder = System::builder()
        .config(config.clone())
        .memory(MemoryConfig {
            latency: config.memory_latency,
            access_energy_pj: memory_pj,
        })
        .options(SimOptions {
            force_slow_path,
            sim_threads: 1,
        });
    let builder = if l2 {
        builder.l2(L2Config::unified(4))
    } else {
        builder
    };
    builder.build().expect("valid configuration")
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
    #[test]
    fn equal_keys_price_one_run_under_either_machine(
        ule_ways in 1usize..9,
        protections in (prop::collection::vec(0usize..3, 4), prop::collection::vec(0usize..3, 4)),
        latencies in (1u32..60, 1u32..60),
        cells_a in (0usize..3, 1.0f64..3.0, 0usize..3, 1.0f64..3.0),
        cells_b in (0usize..3, 1.0f64..3.0, 0usize..3, 1.0f64..3.0),
        uncore in (1.0f64..4.0, 1.0f64..4.0),
        ops in (0.3f64..1.2, 1.0e6f64..2.0e9, 0.3f64..1.2, 1.0e6f64..2.0e9),
        slow in (any::<bool>(), any::<bool>()),
        ule: bool,
        l2: bool,
        memory_pj in 0.5f64..40.0,
        len in 300u64..1500,
        seed in 0u64..1000,
    ) {
        let side_a = side(&protections.0, cells_a, uncore.0, latencies.0);
        let side_b = side(&protections.1, cells_b, uncore.1, latencies.1);
        let (a, b) = (config(ule_ways, side_a), config(ule_ways, side_b));
        let mode = if ule { Mode::Ule } else { Mode::Hp };
        // Codes, cells, sizings, the uncore and the memory latency
        // never enter the key.
        prop_assert_eq!(a.behaviour(mode), b.behaviour(mode), "{:?} / {:?}", side_a, side_b);

        let bench = Benchmark::ALL[seed as usize % Benchmark::ALL.len()];
        let mut machine_a = machine(&a, l2, memory_pj, slow.0);
        let mut machine_b = machine(&b, l2, memory_pj, slow.1);
        let ra = machine_a.run(bench.trace(len, seed), mode);
        let rb = machine_b.run(bench.trace(len, seed), mode);
        let (power_a, power_b) = (machine_a.power(), machine_b.power());
        let (op_a, op_b) = (OperatingPoint::new(ops.0, ops.1), OperatingPoint::new(ops.2, ops.3));

        // (a) One key, one set of events: under one price, one report.
        prop_assert_eq!(ra.priced_by(power_a, op_a), rb.priced_by(power_a, op_a));
        prop_assert_eq!(ra.priced_by(power_b, op_b), rb.priced_by(power_b, op_b));

        // (b) Either run priced by the other machine is its run.
        prop_assert!(rb.below_pj > 0.0, "the chain must spend energy");
        let own = mode.operating_point();
        for (from, to, power_to) in [(&ra, &rb, power_b), (&rb, &ra, power_a)] {
            let priced = from.priced_by(power_to, own);
            prop_assert!(same_report(&priced, to), "{:?} != {:?}", priced, to);
        }
        let a_as_b = ra.priced_by(power_b, op_b);
        let b_own = rb.priced_by(power_b, op_b);
        prop_assert!(same_report(&a_as_b, &b_own), "{:?} != {:?}", a_as_b, b_own);
        let b_as_a = rb.priced_by(power_a, op_a);
        let a_own = ra.priced_by(power_a, op_a);
        prop_assert!(same_report(&b_as_a, &a_own), "{:?} != {:?}", b_as_a, a_own);
    }

    #[test]
    fn the_active_mode_gating_is_in_the_key_and_codes_are_not(
        ule_ways in 1usize..9,
        protections in prop::collection::vec(0usize..3, 4),
        cells in (0usize..3, 1.0f64..3.0, 0usize..3, 1.0f64..3.0),
        way in 0usize..8,
        dl1: bool,
        step in 1usize..3,
        ule: bool,
    ) {
        let base = config(ule_ways, side(&protections, cells, 2.65, 20));
        let mode = if ule { Mode::Ule } else { Mode::Hp };
        let key = |config: &SystemConfig| config.behaviour(mode);
        let changed = |edit: &dyn Fn(&mut WaySpec)| {
            let mut config = base.clone();
            let cache = if dl1 { &mut config.dl1 } else { &mut config.il1 };
            edit(&mut cache.ways[way]);
            config
        };
        let recoded = |m: Mode| {
            move |w: &mut WaySpec| {
                let slot = match m {
                    Mode::Hp => &mut w.protection_hp,
                    Mode::Ule => &mut w.protection_ule,
                };
                let index = PROTECTIONS.iter().position(|q| q == slot).unwrap_or(0);
                *slot = PROTECTIONS[(index + step) % PROTECTIONS.len()];
            }
        };
        let flip_gating = |w: &mut WaySpec| w.ule_enabled = !w.ule_enabled;

        // (c) The gating at ULE is in the key...
        if mode == Mode::Ule {
            prop_assert_ne!(key(&changed(&flip_gating)), key(&base));
        }
        // ...and a way's code at either mode, and the gating at HP,
        // where every way is on, are not.
        for m in [Mode::Hp, Mode::Ule] {
            prop_assert_eq!(key(&changed(&recoded(m))), key(&base));
        }
        if mode == Mode::Hp {
            prop_assert_eq!(key(&changed(&flip_gating)), key(&base));
        }
    }
}
