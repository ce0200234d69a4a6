//! One simulation, many power models: the contract of
//! `SystemConfig::behaviour` and `RunReport::priced_by`.
//!
//! Each case builds two configs over random way splits, per-mode
//! protections, cell kinds, sizings, uncore sizings, modes and
//! operating points. The second config differs from the first only in
//! what prices the counters, or also in its memory latency.
//!
//! * (a) When the two configs share a behaviour key, their machines
//!   count the same `RunStats` on one trace, with the forced slow path
//!   on either side.
//! * (b) Then each machine's report, re-priced under the other
//!   machine's power model and operating point, is the other machine's
//!   own report, bit for bit. The chain is an L2 over a memory that
//!   charges energy per access, so the below-L1 energy a report
//!   carries is exercised.
//! * (c) Changing one way's protection, or its ULE gating, for the
//!   active mode changes the key; the same change for the other mode
//!   does not.

use hyvec_cachemodel::OperatingPoint;
use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig, WaySpec};
use hyvec_cachesim::engine::{RunReport, SimOptions, System};
use hyvec_edc::Protection;
use hyvec_mediabench::Benchmark;
use hyvec_sram::{CellKind, SizedCell};
use proptest::prelude::*;

const PROTECTIONS: [Protection; 3] = [Protection::None, Protection::Secded, Protection::Dected];
const CELLS: [CellKind; 3] = [CellKind::Sram6T, CellKind::Sram8T, CellKind::Sram10T];

/// What two configs of a case share unless the second is perturbed:
/// the split of each 8-way L1 into HP and ULE ways, each group's
/// protection in each mode, and the memory latency.
#[derive(Debug, Clone, Copy)]
struct Shape {
    ule_ways: usize,
    /// HP-way protection at `[HP, ULE]`.
    hp_protection: [Protection; 2],
    /// ULE-way protection at `[HP, ULE]`.
    ule_protection: [Protection; 2],
    memory_latency: u32,
}

/// What only prices the counters: each group's cell and sizing, and
/// the uncore's 10T sizing.
#[derive(Debug, Clone, Copy)]
struct Pricing {
    hp_cell: SizedCell,
    ule_cell: SizedCell,
    uncore_sizing: f64,
}

/// The pricing of `(HP-way cell kind, its sizing, ULE-way cell kind,
/// its sizing)` over an uncore of `uncore_sizing`.
fn pricing(cells: (usize, f64, usize, f64), uncore_sizing: f64) -> Pricing {
    let (hp_kind, hp_sizing, ule_kind, ule_sizing) = cells;
    Pricing {
        hp_cell: SizedCell::new(CELLS[hp_kind], hp_sizing),
        ule_cell: SizedCell::new(CELLS[ule_kind], ule_sizing),
        uncore_sizing,
    }
}

fn config(shape: Shape, pricing: Pricing) -> SystemConfig {
    let way = |cell, ule_enabled, [protection_hp, protection_ule]: [Protection; 2]| WaySpec {
        cell,
        ule_enabled,
        protection_hp,
        protection_ule,
    };
    let mut ways = vec![way(pricing.hp_cell, false, shape.hp_protection); 8 - shape.ule_ways];
    ways.resize(8, way(pricing.ule_cell, true, shape.ule_protection));
    let mut config = SystemConfig::with_ways(ways, shape.memory_latency);
    config.uncore_ten_t_sizing = pricing.uncore_sizing;
    config
}

/// A machine of `config` over a 4KB L2 and a memory of `config`'s
/// latency that charges `memory_pj` per access.
fn machine(config: &SystemConfig, memory_pj: f64, force_slow_path: bool) -> System {
    System::builder()
        .config(config.clone())
        .l2(L2Config::unified(4))
        .memory(MemoryConfig {
            latency: config.memory_latency,
            access_energy_pj: memory_pj,
        })
        .options(SimOptions {
            force_slow_path,
            sim_threads: 1,
        })
        .build()
        .expect("valid configuration")
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
        protections in prop::collection::vec(0usize..3, 4),
        memory_latency in 1u32..60,
        cells_a in (0usize..3, 1.0f64..3.0, 0usize..3, 1.0f64..3.0),
        cells_b in (0usize..3, 1.0f64..3.0, 0usize..3, 1.0f64..3.0),
        uncore in (1.0f64..4.0, 1.0f64..4.0),
        extra_latency in prop::sample::select(vec![0u32, 0, 0, 7]),
        ops in (0.3f64..1.2, 1.0e6f64..2.0e9, 0.3f64..1.2, 1.0e6f64..2.0e9),
        slow in (any::<bool>(), any::<bool>()),
        ule: bool,
        memory_pj in 0.5f64..40.0,
        len in 300u64..1500,
        seed in 0u64..1000,
    ) {
        let p = |i: usize| PROTECTIONS[protections[i]];
        let shape = Shape {
            ule_ways,
            hp_protection: [p(0), p(1)],
            ule_protection: [p(2), p(3)],
            memory_latency,
        };
        let shape_b = Shape { memory_latency: memory_latency + extra_latency, ..shape };
        let a = config(shape, pricing(cells_a, uncore.0));
        let b = config(shape_b, pricing(cells_b, uncore.1));
        let mode = if ule { Mode::Ule } else { Mode::Hp };
        let shared = a.behaviour(mode) == b.behaviour(mode);
        // Cells, sizings and the uncore never enter the key.
        if extra_latency == 0 {
            prop_assert!(shared, "{:?} at {:?}", shape, mode);
        }
        if shared {
            let (op_a, op_b) = (OperatingPoint::new(ops.0, ops.1), OperatingPoint::new(ops.2, ops.3));
            let bench = Benchmark::ALL[seed as usize % Benchmark::ALL.len()];
            let mut machine_a = machine(&a, memory_pj, slow.0);
            let mut machine_b = machine(&b, memory_pj, slow.1);
            let ra = machine_a.run(bench.trace(len, seed), mode).priced_by(machine_a.power(), op_a);
            let rb = machine_b.run(bench.trace(len, seed), mode).priced_by(machine_b.power(), op_b);
            // (a) One key, one set of counters.
            prop_assert_eq!(ra.stats, rb.stats, "{:?} at {:?}", shape, mode);
            // (b) Either run priced by the other machine is its run.
            prop_assert!(rb.below_pj > 0.0, "the chain must spend energy");
            let a_as_b = ra.priced_by(machine_b.power(), op_b);
            let b_as_a = rb.priced_by(machine_a.power(), op_a);
            prop_assert!(same_report(&a_as_b, &rb), "{:?} != {:?}", a_as_b, rb);
            prop_assert!(same_report(&b_as_a, &ra), "{:?} != {:?}", b_as_a, ra);
        }
    }

    #[test]
    fn the_active_mode_gating_and_protection_are_in_the_key(
        ule_ways in 1usize..9,
        protections in prop::collection::vec(0usize..3, 4),
        cells in (0usize..3, 1.0f64..3.0, 0usize..3, 1.0f64..3.0),
        way in 0usize..8,
        dl1: bool,
        step in 1usize..3,
        ule: bool,
    ) {
        let p = |i: usize| PROTECTIONS[protections[i]];
        let shape = Shape {
            ule_ways,
            hp_protection: [p(0), p(1)],
            ule_protection: [p(2), p(3)],
            memory_latency: 20,
        };
        let base = config(shape, pricing(cells, 2.65));
        let (mode, other) = if ule { (Mode::Ule, Mode::Hp) } else { (Mode::Hp, Mode::Ule) };
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

        // (c) The active mode's protection and gating are in the key...
        prop_assert_ne!(key(&changed(&recoded(mode))), key(&base));
        if mode == Mode::Ule {
            prop_assert_ne!(key(&changed(&flip_gating)), key(&base));
        }
        // ...and the other mode's protection, and the gating at HP,
        // where every way is on, are not.
        prop_assert_eq!(key(&changed(&recoded(other))), key(&base));
        if mode == Mode::Hp {
            prop_assert_eq!(key(&changed(&flip_gating)), key(&base));
        }
    }
}
