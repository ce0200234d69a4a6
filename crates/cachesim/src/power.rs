//! Wattch-style event-based power accounting.
//!
//! The paper plugs its extended CACTI models into MPSim with Wattch-like
//! accounting: each microarchitectural event is charged the per-event
//! energy of the structures it touches, and leakage integrates over
//! elapsed time. This module does the same on top of
//! [`hyvec_cachemodel`]:
//!
//! * every cache lookup reads the tag and data arrays of all *enabled*
//!   ways in parallel (the L1 organization the paper's energy argument
//!   assumes — the oversized ULE way is paid for on every HP access);
//! * check-bit columns are only precharged when their code is active
//!   in the current mode ("SECDED is simply turned off" at HP);
//! * EDC encoders/decoders are charged per protected word moved;
//! * gated-off ways leak nothing (gated-Vdd, Powell et al.);
//! * all non-L1 SRAM arrays (register file, TLBs) are built from
//!   ULE-sized 10T cells "so they operate properly at any voltage
//!   level", exactly as in the paper, and the remaining core logic is
//!   a fixed switched-capacitance per instruction.
//!
//! Energy spent *below* the L1s (an optional unified L2, main-memory
//! accesses — see [`crate::hierarchy`]) is accumulated by the engine
//! from each level's [`AccessOutcome`](crate::hierarchy::AccessOutcome),
//! kept on the report ([`RunReport::below_pj`](crate::engine::RunReport::below_pj))
//! and folded into [`EnergyBreakdown::other_pj`], so the paper's
//! Figure 3/4 component categories stay stable whatever hierarchy is
//! configured.

use crate::config::{CacheConfig, Mode, SystemConfig};
use crate::stats::{CacheStats, RunStats};
use hyvec_cachemodel::{EdcCircuit, OperatingPoint, SramArray, TechnologyParams};
use hyvec_edc::Protection;
use hyvec_sram::{CellKind, SizedCell};

/// Energy-per-instruction breakdown, pJ, in the categories of the
/// paper's Figures 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// L1 (IL1+DL1) dynamic energy.
    pub l1_dynamic_pj: f64,
    /// L1 leakage energy.
    pub l1_leakage_pj: f64,
    /// EDC encoder/decoder energy (dynamic + leakage).
    pub edc_pj: f64,
    /// Everything else: register file, TLBs, core logic (dynamic and
    /// leakage).
    pub other_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy, pJ.
    pub fn total_pj(&self) -> f64 {
        self.l1_dynamic_pj + self.l1_leakage_pj + self.edc_pj + self.other_pj
    }

    /// Energy per instruction, pJ.
    pub fn epi_pj(&self, instructions: u64) -> f64 {
        if instructions == 0 {
            0.0
        } else {
            self.total_pj() / instructions as f64
        }
    }

    /// Component-wise scaling (for normalization in the figures).
    pub fn scaled(&self, factor: f64) -> EnergyBreakdown {
        EnergyBreakdown {
            l1_dynamic_pj: self.l1_dynamic_pj * factor,
            l1_leakage_pj: self.l1_leakage_pj * factor,
            edc_pj: self.edc_pj * factor,
            other_pj: self.other_pj * factor,
        }
    }

    /// The breakdown as `(machine key, display name, value)` triples,
    /// in the canonical Figure 3/4 column order. Structured emission
    /// for the report layer: a new component added here flows into
    /// every renderer without touching per-artifact formatting code.
    pub fn components(&self) -> [(&'static str, &'static str, f64); 4] {
        [
            ("l1_dynamic_pj", "L1 dyn", self.l1_dynamic_pj),
            ("l1_leakage_pj", "L1 leak", self.l1_leakage_pj),
            ("edc_pj", "EDC", self.edc_pj),
            ("other_pj", "other", self.other_pj),
        ]
    }
}

/// Per-way array models for one cache.
#[derive(Debug)]
struct WayPower {
    /// Full data array (all stored columns) — leakage and area.
    data_full: SramArray,
    /// Full tag array.
    tag_full: SramArray,
    /// Dynamic-energy arrays per mode (only active columns switch).
    data_dyn: [SramArray; 2],
    tag_dyn: [SramArray; 2],
    /// EDC circuits per mode: (data word, tag word).
    edc: [(EdcCircuit, EdcCircuit); 2],
    ule_enabled: bool,
}

fn mode_index(mode: Mode) -> usize {
    match mode {
        Mode::Hp => 0,
        Mode::Ule => 1,
    }
}

/// Power model of one cache built from its configuration.
#[derive(Debug)]
pub struct CachePower {
    ways: Vec<WayPower>,
    words_per_line: u64,
}

impl CachePower {
    /// Builds array models for every way of `config`.
    pub fn new(config: &CacheConfig, tech: TechnologyParams) -> Self {
        let sets = config.sets();
        let words = config.words_per_line();
        // Fold data words so the physical array lands near 64 rows.
        let ways = config
            .ways
            .iter()
            .map(|spec| {
                let stored_word = config.word_bits as usize + spec.stored_check_bits();
                let stored_tag = config.tag_bits as usize + spec.stored_check_bits();
                let data_words = sets * words;
                let build_data = |active_bits: usize| {
                    SramArray::for_bits(
                        spec.cell,
                        data_words * active_bits as u64,
                        active_bits as u32,
                        64,
                        tech,
                    )
                };
                let build_tag = |active_bits: usize| {
                    SramArray::for_bits(
                        spec.cell,
                        sets * active_bits as u64,
                        active_bits as u32,
                        64,
                        tech,
                    )
                };
                // Check-bit columns are precharge-gated only in the
                // all-or-nothing case ("SECDED is simply turned off",
                // scenario A at HP). When any code is active, the full
                // stored word is read and the decoder uses its subset
                // (scenario B reads the 13 DECTED columns at HP even
                // though only SECDED decodes them).
                let active = |mode: Mode| {
                    if spec.protection(mode) == Protection::None {
                        (config.word_bits as usize, config.tag_bits as usize)
                    } else {
                        (
                            config.word_bits as usize + spec.stored_check_bits(),
                            config.tag_bits as usize + spec.stored_check_bits(),
                        )
                    }
                };
                let (hp_word, hp_tag) = active(Mode::Hp);
                let (ule_word, ule_tag) = active(Mode::Ule);
                // The codes come from the process-wide registry the
                // caches share, so a power model builds no code table.
                let edc_for = |p: Protection, bits: usize| {
                    // hyvec-lint: allow(no-panic, "widths come from a config that passed CacheConfig::validate, which checks codec support")
                    let code = p.build(bits).expect("supported width");
                    EdcCircuit::for_code(code, tech)
                };
                WayPower {
                    data_full: build_data(stored_word),
                    tag_full: build_tag(stored_tag),
                    data_dyn: [build_data(hp_word), build_data(ule_word)],
                    tag_dyn: [build_tag(hp_tag), build_tag(ule_tag)],
                    edc: [
                        (
                            edc_for(spec.protection_hp, config.word_bits as usize),
                            edc_for(spec.protection_hp, config.tag_bits as usize),
                        ),
                        (
                            edc_for(spec.protection_ule, config.word_bits as usize),
                            edc_for(spec.protection_ule, config.tag_bits as usize),
                        ),
                    ],
                    ule_enabled: spec.ule_enabled,
                }
            })
            .collect();
        CachePower {
            ways,
            words_per_line: words,
        }
    }

    fn enabled(&self, mode: Mode) -> impl Iterator<Item = &WayPower> {
        self.ways
            .iter()
            .filter(move |w| mode == Mode::Hp || w.ule_enabled)
    }

    /// The mean of `energy` over the ways enabled at `mode` (0 when
    /// none is): the cost of an event that lands in one of them.
    fn per_way_mean_pj(&self, mode: Mode, energy: impl Fn(&WayPower) -> f64) -> f64 {
        let (sum, n) = self
            .enabled(mode)
            .map(energy)
            .fold((0.0, 0u32), |(s, n), e| (s + e, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / f64::from(n)
        }
    }

    /// Dynamic energy of one lookup (tag + data read in all enabled
    /// ways), pJ.
    pub fn lookup_energy_pj(&self, mode: Mode, vdd: f64) -> f64 {
        let m = mode_index(mode);
        self.enabled(mode)
            .map(|w| w.data_dyn[m].read_energy_pj(vdd) + w.tag_dyn[m].read_energy_pj(vdd))
            .sum()
    }

    /// Average dynamic energy of writing one data word into one
    /// enabled way, pJ.
    pub fn word_write_energy_pj(&self, mode: Mode, vdd: f64) -> f64 {
        let m = mode_index(mode);
        self.per_way_mean_pj(mode, |w| w.data_dyn[m].write_energy_pj(vdd))
    }

    /// Average dynamic energy of writing one tag, pJ.
    pub fn tag_write_energy_pj(&self, mode: Mode, vdd: f64) -> f64 {
        let m = mode_index(mode);
        self.per_way_mean_pj(mode, |w| w.tag_dyn[m].write_energy_pj(vdd))
    }

    /// Average single-way word read (victim readout on writeback), pJ.
    fn word_read_one_way_pj(&self, mode: Mode, vdd: f64) -> f64 {
        let m = mode_index(mode);
        self.per_way_mean_pj(mode, |w| w.data_dyn[m].read_energy_pj(vdd))
    }

    /// EDC energy charged per lookup: tag decode in every enabled
    /// protected way plus one data-word decode (the hit way), pJ.
    pub fn edc_lookup_energy_pj(&self, mode: Mode, vdd: f64) -> f64 {
        let m = mode_index(mode);
        let tag_decodes: f64 = self
            .enabled(mode)
            .map(|w| w.edc[m].1.decode_energy_pj(vdd))
            .sum();
        tag_decodes + self.edc_word_decode_energy_pj(mode, vdd)
    }

    /// EDC energy per decoded data word outside a lookup (victim
    /// readout on writeback), pJ.
    pub fn edc_word_decode_energy_pj(&self, mode: Mode, vdd: f64) -> f64 {
        let m = mode_index(mode);
        self.per_way_mean_pj(mode, |w| w.edc[m].0.decode_energy_pj(vdd))
    }

    /// EDC energy per encoded data word (store or fill), pJ.
    pub fn edc_encode_energy_pj(&self, mode: Mode, vdd: f64) -> f64 {
        let m = mode_index(mode);
        self.per_way_mean_pj(mode, |w| w.edc[m].0.encode_energy_pj(vdd))
    }

    /// Leakage power of the cache at `mode`, watts. Gated ways are off
    /// at ULE.
    pub fn leakage_w(&self, mode: Mode, vdd: f64) -> f64 {
        self.enabled(mode)
            .map(|w| w.data_full.leakage_w(vdd) + w.tag_full.leakage_w(vdd))
            .sum()
    }

    /// Leakage of the EDC circuits (always powered with their way), W.
    pub fn edc_leakage_w(&self, mode: Mode, vdd: f64) -> f64 {
        let m = mode_index(mode);
        self.enabled(mode)
            .map(|w| w.edc[m].0.leakage_w(vdd) + w.edc[m].1.leakage_w(vdd))
            .sum()
    }

    /// Total macro area of the cache (all ways, data + tag), µm².
    pub fn area_um2(&self) -> f64 {
        self.ways
            .iter()
            .map(|w| {
                w.data_full.area_um2()
                    + w.tag_full.area_um2()
                    + w.edc[0].0.area_um2().max(w.edc[1].0.area_um2())
                    + w.edc[0].1.area_um2().max(w.edc[1].1.area_um2())
            })
            .sum()
    }

    /// Maximum EDC pipeline latency among enabled ways at `mode`,
    /// cycles.
    pub fn edc_latency_cycles(&self, mode: Mode) -> u32 {
        let m = mode_index(mode);
        self.enabled(mode)
            .map(|w| w.edc[m].0.latency_cycles())
            .max()
            .unwrap_or(0)
    }

    /// Energy of all cache events recorded in `stats`, split into
    /// (array dynamic, edc dynamic), pJ.
    pub fn dynamic_energy_pj(&self, stats: &CacheStats, mode: Mode, vdd: f64) -> (f64, f64) {
        let lookups = stats.accesses as f64;
        let store_words = (stats.writes.min(stats.accesses)) as f64;
        let fill_words = (stats.fills * self.words_per_line) as f64;
        let writeback_words = (stats.writebacks * self.words_per_line) as f64;

        let array = lookups * self.lookup_energy_pj(mode, vdd)
            + store_words * self.word_write_energy_pj(mode, vdd)
            + fill_words * self.word_write_energy_pj(mode, vdd)
            + stats.fills as f64 * self.tag_write_energy_pj(mode, vdd)
            + writeback_words * self.word_read_one_way_pj(mode, vdd);
        let edc = lookups * self.edc_lookup_energy_pj(mode, vdd)
            + (store_words + fill_words) * self.edc_encode_energy_pj(mode, vdd)
            + writeback_words * self.edc_word_decode_energy_pj(mode, vdd);
        (array, edc)
    }
}

/// Non-L1 structures: register file, TLBs (10T cells per the paper)
/// and the core's combinational logic.
#[derive(Debug)]
pub struct UncorePower {
    rf: SramArray,
    itlb: SramArray,
    dtlb: SramArray,
    /// Switched capacitance of core logic per instruction, fF.
    core_cap_ff: f64,
    /// Core logic leakage at 1.0V, watts.
    core_leak_w_nominal: f64,
}

impl UncorePower {
    /// Builds the uncore with all SRAM arrays in 10T cells sized
    /// `ten_t_sizing` (the ULE-way sizing, so they work at any Vcc).
    pub fn new(ten_t_sizing: f64, tech: TechnologyParams) -> Self {
        let cell = SizedCell::new(CellKind::Sram10T, ten_t_sizing);
        UncorePower {
            // 32 x 32-bit architectural registers.
            rf: SramArray::new(cell, 32, 32, 32, tech),
            // 16-entry, 32-bit TLB entries (VPN + PPN for a small
            // physical space).
            itlb: SramArray::new(cell, 16, 32, 32, tech),
            dtlb: SramArray::new(cell, 16, 32, 32, tech),
            core_cap_ff: 250.0,
            core_leak_w_nominal: 0.8e-4,
        }
    }

    /// Dynamic energy per instruction (2 RF reads + 1 RF write + ITLB
    /// read + core logic), plus one DTLB read per data access, pJ.
    pub fn dynamic_energy_pj(&self, instructions: u64, data_accesses: u64, vdd: f64) -> f64 {
        let per_instr = 2.0 * self.rf.read_energy_pj(vdd)
            + self.rf.write_energy_pj(vdd)
            + self.itlb.read_energy_pj(vdd)
            + self.core_cap_ff * vdd * vdd / 1000.0;
        let per_access = self.dtlb.read_energy_pj(vdd);
        instructions as f64 * per_instr + data_accesses as f64 * per_access
    }

    /// Uncore leakage power, watts.
    pub fn leakage_w(&self, vdd: f64) -> f64 {
        let arrays = self.rf.leakage_w(vdd) + self.itlb.leakage_w(vdd) + self.dtlb.leakage_w(vdd);
        let core = self.core_leak_w_nominal * (6.5 * (vdd - 1.0)).exp() * vdd;
        arrays + core
    }
}

/// Full-system power model, and the constants a run's cycles are
/// priced with: each L1's EDC latency
/// ([`CachePower::edc_latency_cycles`]) and the memory latency.
#[derive(Debug)]
pub struct PowerModel {
    /// IL1 array models.
    pub il1: CachePower,
    /// DL1 array models.
    pub dl1: CachePower,
    /// Non-L1 structures.
    pub uncore: UncorePower,
    /// Main-memory latency, cycles
    /// ([`SystemConfig::memory_latency`]): the price of every L1 fill
    /// that memory serves.
    pub memory_latency: u32,
}

impl PowerModel {
    /// Builds the power model for `config`. The uncore 10T sizing
    /// comes from the configuration so baseline and proposal always
    /// share the same uncore.
    pub fn new(config: &SystemConfig) -> Self {
        PowerModel {
            il1: CachePower::new(&config.il1, config.tech),
            dl1: CachePower::new(&config.dl1, config.tech),
            uncore: UncorePower::new(config.uncore_ten_t_sizing, config.tech),
            memory_latency: config.memory_latency,
        }
    }

    /// Computes the energy breakdown of a finished run at `mode`'s
    /// default operating point.
    pub fn breakdown(&self, stats: &RunStats, mode: Mode) -> EnergyBreakdown {
        self.breakdown_at(stats, mode, mode.operating_point())
    }

    /// Computes the energy breakdown at an explicit operating point
    /// (for DVS sweeps: `mode` selects which ways/codes are active,
    /// `op` sets the voltage and frequency).
    pub fn breakdown_at(
        &self,
        stats: &RunStats,
        mode: Mode,
        op: OperatingPoint,
    ) -> EnergyBreakdown {
        let vdd = op.vdd;
        let seconds = stats.cycles as f64 * op.cycle_s();

        let (il1_dyn, il1_edc) = self.il1.dynamic_energy_pj(&stats.il1, mode, vdd);
        let (dl1_dyn, dl1_edc) = self.dl1.dynamic_energy_pj(&stats.dl1, mode, vdd);
        let l1_leak_w = self.il1.leakage_w(mode, vdd) + self.dl1.leakage_w(mode, vdd);
        let edc_leak_w = self.il1.edc_leakage_w(mode, vdd) + self.dl1.edc_leakage_w(mode, vdd);
        let uncore_dyn = self
            .uncore
            .dynamic_energy_pj(stats.instructions, stats.dl1.accesses, vdd);
        let uncore_leak_w = self.uncore.leakage_w(vdd);

        EnergyBreakdown {
            l1_dynamic_pj: il1_dyn + dl1_dyn,
            l1_leakage_pj: l1_leak_w * seconds * 1e12,
            edc_pj: il1_edc + dl1_edc + edc_leak_w * seconds * 1e12,
            other_pj: uncore_dyn + uncore_leak_w * seconds * 1e12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WaySpec;
    use hyvec_edc::Protection;

    fn proposal_a_config() -> SystemConfig {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram8T,
            1.8,
            Protection::None,
            Protection::Secded,
        ));
        SystemConfig::with_ways(ways, 20)
    }

    fn baseline_a_config() -> SystemConfig {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec::ule_way(
            CellKind::Sram10T,
            2.65,
            Protection::None,
            Protection::None,
        ));
        SystemConfig::with_ways(ways, 20)
    }

    #[test]
    fn ule_lookup_cheaper_than_hp_lookup() {
        let pm = PowerModel::new(&baseline_a_config());
        let hp = pm.il1.lookup_energy_pj(Mode::Hp, 1.0);
        let ule = pm.il1.lookup_energy_pj(Mode::Ule, 0.35);
        assert!(ule < hp * 0.2, "ULE lookup {ule} vs HP {hp}");
    }

    #[test]
    fn proposal_lookup_cheaper_than_baseline_both_modes() {
        let base = PowerModel::new(&baseline_a_config());
        let prop = PowerModel::new(&proposal_a_config());
        // HP: 8T way (SECDED off) vs sized-up 10T way.
        assert!(
            prop.il1.lookup_energy_pj(Mode::Hp, 1.0) < base.il1.lookup_energy_pj(Mode::Hp, 1.0)
        );
        // ULE: 8T+SECDED vs 10T.
        assert!(
            prop.il1.lookup_energy_pj(Mode::Ule, 0.35) < base.il1.lookup_energy_pj(Mode::Ule, 0.35)
        );
    }

    #[test]
    fn gated_ways_do_not_leak_at_ule() {
        // In a uniform all-6T cache, gating 7 of 8 ways cuts leakage
        // by exactly 8x.
        let pm = PowerModel::new(&SystemConfig::uniform_6t());
        let hp_leak = pm.il1.leakage_w(Mode::Hp, 0.35);
        let ule_leak = pm.il1.leakage_w(Mode::Ule, 0.35);
        assert!(
            (hp_leak / ule_leak - 8.0).abs() < 1e-9,
            "{ule_leak} vs {hp_leak}"
        );
        // In the hybrid baseline the sized-up 10T way dominates
        // leakage, so gating removes less — but still a strict
        // reduction.
        let pm = PowerModel::new(&baseline_a_config());
        assert!(pm.il1.leakage_w(Mode::Ule, 0.35) < pm.il1.leakage_w(Mode::Hp, 0.35));
    }

    #[test]
    fn edc_energy_nonzero_only_when_active() {
        let pm = PowerModel::new(&proposal_a_config());
        assert_eq!(pm.il1.edc_lookup_energy_pj(Mode::Hp, 1.0), 0.0);
        assert!(pm.il1.edc_lookup_energy_pj(Mode::Ule, 0.35) > 0.0);
        assert_eq!(pm.il1.edc_latency_cycles(Mode::Hp), 0);
        assert_eq!(pm.il1.edc_latency_cycles(Mode::Ule), 1);
    }

    #[test]
    fn proposal_area_smaller_than_baseline() {
        // "Our architecture is proven to largely outperform existing
        //  solutions in terms of energy and area."
        let base = PowerModel::new(&baseline_a_config());
        let prop = PowerModel::new(&proposal_a_config());
        assert!(prop.il1.area_um2() < base.il1.area_um2());
    }

    #[test]
    fn breakdown_accumulates_events() {
        let pm = PowerModel::new(&proposal_a_config());
        let mut stats = RunStats {
            instructions: 1000,
            cycles: 1200,
            ..Default::default()
        };
        stats.il1.accesses = 1000;
        stats.il1.hits = 990;
        stats.il1.misses = 10;
        stats.il1.fills = 10;
        stats.dl1.accesses = 300;
        stats.dl1.writes = 90;
        stats.dl1.hits = 295;
        stats.dl1.misses = 5;
        stats.dl1.fills = 5;
        let hp = pm.breakdown(&stats, Mode::Hp);
        assert!(hp.l1_dynamic_pj > 0.0);
        assert!(hp.l1_leakage_pj > 0.0);
        assert!(hp.other_pj > 0.0);
        assert!(hp.total_pj() > 0.0);
        assert!(hp.epi_pj(1000) > 0.0);
        // Dynamic dominates at HP.
        assert!(hp.l1_dynamic_pj > hp.l1_leakage_pj);
        // Leakage share rises steeply at ULE (200ns cycles).
        let ule = pm.breakdown(&stats, Mode::Ule);
        assert!(
            ule.l1_leakage_pj / ule.l1_dynamic_pj > hp.l1_leakage_pj / hp.l1_dynamic_pj,
            "leakage share must grow at ULE"
        );
    }

    #[test]
    fn breakdown_scaling() {
        let b = EnergyBreakdown {
            l1_dynamic_pj: 2.0,
            l1_leakage_pj: 1.0,
            edc_pj: 0.5,
            other_pj: 0.5,
        };
        assert_eq!(b.total_pj(), 4.0);
        assert_eq!(b.scaled(0.5).total_pj(), 2.0);
        assert_eq!(b.epi_pj(4), 1.0);
        assert_eq!(b.epi_pj(0), 0.0);
    }
}
