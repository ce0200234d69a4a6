//! The design methodology of the paper's Figure 2: sizing the ULE-way
//! bitcells so the EDC-protected 8T design matches the yield of the
//! 10T baseline.
//!
//! Steps (scenario A wording; scenario B is analogous with SECDED
//! present in the baseline and DECTED in the proposal):
//!
//! 1. size 6T cells for the HP-mode failure-rate target (derived from
//!    the cache yield target via elementary probability);
//! 2. size 10T cells to match that same `Pf` at the ULE voltage, and
//!    compute the baseline cache yield `Y10T` (Eq. (2));
//! 3. starting from minimum-size 8T cells, compute `Pf8T` (Chen-style
//!    analysis), the EDC-protected word survival probability (Eq. (1))
//!    and the cache yield `Y`; while `Y < Y10T`, grow the transistors
//!    by the minimal manufacturable step and repeat.

use crate::architecture::{DesignPoint, Scenario};
use hyvec_cachemodel::OperatingPoint;
use hyvec_cachesim::config::{CacheConfig, WaySpec};
use hyvec_edc::Protection;
use hyvec_sram::cell::{CellKind, SizedCell};
use hyvec_sram::failure::{FailureModel, SizingError, SIZING_STEP};
use hyvec_sram::yield_model::{cache_yield, required_pf, word_ok_probability};

/// Inputs to the sizing methodology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MethodologyInputs {
    /// Target manufacturing yield (paper example: 0.99).
    pub target_yield: f64,
    /// Bits over which the failure-rate anchor is computed (the
    /// paper's example computes `Pf = 1.22e-6` over 8192 bits).
    pub anchor_bits: u64,
    /// HP supply voltage (1.0 V).
    pub hp_vdd: f64,
    /// ULE supply voltage (0.35 V).
    pub ule_vdd: f64,
    /// Data words per ULE way (`DW`): 256 for the 8KB 7+1 geometry
    /// ([`CacheConfig::data_words_per_way`]).
    pub data_words: u64,
    /// Tag words per ULE way (`TW`): 32
    /// ([`CacheConfig::tag_words_per_way`]).
    pub tag_words: u64,
    /// Data word width (32).
    pub word_bits: u32,
    /// Tag width (26).
    pub tag_bits: u32,
}

impl Default for MethodologyInputs {
    /// The paper's inputs, over a way of its 8KB 7+1 L1.
    fn default() -> Self {
        let l1 = l1_8kb_geometry(8);
        MethodologyInputs {
            target_yield: 0.99,
            anchor_bits: 8192,
            hp_vdd: OperatingPoint::hp().vdd,
            ule_vdd: OperatingPoint::ule().vdd,
            data_words: l1.data_words_per_way(),
            tag_words: l1.tag_words_per_way(),
            word_bits: l1.word_bits,
            tag_bits: l1.tag_bits,
        }
    }
}

impl MethodologyInputs {
    /// These inputs over a way of `l1`: its data and tag words per way.
    pub(crate) fn over_way_of(self, l1: &CacheConfig) -> MethodologyInputs {
        MethodologyInputs {
            data_words: l1.data_words_per_way(),
            tag_words: l1.tag_words_per_way(),
            ..self
        }
    }
}

/// The geometry of the paper's 8KB L1 ([`CacheConfig::l1_8kb`]) split
/// into `ways` ways, whatever the ways hold.
pub(crate) fn l1_8kb_geometry(ways: usize) -> CacheConfig {
    CacheConfig::l1_8kb(vec![WaySpec::hp_way(1.0, Protection::None); ways])
}

/// The outcome of the Fig. 2 methodology for one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UleWayDesign {
    /// The scenario designed for.
    pub scenario: Scenario,
    /// The hard-failure-rate anchor (`Pf`, the paper's 1.22e-6).
    pub pf_target: f64,
    /// 6T sizing meeting the anchor at HP voltage.
    pub sizing_6t: f64,
    /// 10T sizing matching the anchor at ULE voltage.
    pub sizing_10t: f64,
    /// Achieved 10T bit-failure rate at ULE voltage.
    pub pf_10t: f64,
    /// Baseline ULE-way yield (`Y10T` / `Y10T+SECDED`).
    pub yield_baseline: f64,
    /// Final 8T sizing from the iterative loop.
    pub sizing_8t: f64,
    /// Achieved 8T bit-failure rate at ULE voltage.
    pub pf_8t: f64,
    /// Proposal ULE-way yield with EDC (must be >= baseline).
    pub yield_proposal: f64,
    /// Iterations of the sizing loop (step 5 of Fig. 2).
    pub iterations: u32,
}

/// Yield of a ULE way (Eq. (2)) whose words have `pf` faulty-bit rate
/// and tolerate `tol` hard faults under protection `prot`.
fn way_yield(inputs: &MethodologyInputs, pf: f64, prot: Protection, tol: u32) -> f64 {
    let k = prot.check_bits() as u32;
    let p_data = word_ok_probability(pf, inputs.word_bits + k, tol);
    let p_tag = word_ok_probability(pf, inputs.tag_bits + k, tol);
    cache_yield(p_data, inputs.data_words, p_tag, inputs.tag_words)
}

/// Runs the full Fig. 2 methodology for `scenario`.
///
/// # Errors
///
/// Returns [`SizingError`] when a cell family cannot reach the target
/// at the requested voltage (e.g. 6T at 350mV).
pub fn design_ule_way(
    scenario: Scenario,
    model: &FailureModel,
    inputs: &MethodologyInputs,
) -> Result<UleWayDesign, SizingError> {
    let (_, baseline_prot) = scenario.ule_way(DesignPoint::Baseline);
    let (_, proposal_prot) = scenario.ule_way(DesignPoint::Proposal);

    // Anchor: the Pf giving the target yield over the anchor bits
    // ("elementary probability calculations"). Step 1 of Fig. 2 sizes
    // the 10T cells "to match the same hard bit failure rate (Pf) as
    // 6T bitcells at HP mode" in both scenarios.
    let pf_target = required_pf(inputs.target_yield, inputs.anchor_bits);

    // Step 0: 6T sized for the anchor at HP voltage.
    let sizing_6t = model.sizing_for_pf(CellKind::Sram6T, inputs.hp_vdd, pf_target)?;

    // Step 1: 10T sized to match the same Pf at ULE voltage.
    let sizing_10t = model.sizing_for_pf(CellKind::Sram10T, inputs.ule_vdd, pf_target)?;
    let pf_10t = model.pf(
        &SizedCell::new(CellKind::Sram10T, sizing_10t),
        inputs.ule_vdd,
    );

    // Step 2: baseline yields, "calculated analogously" (paper,
    // Sec. III-C), one per reliability capability of the baseline:
    //
    // * *functional* yield — the word can be read correctly in the
    //   absence of soft errors. An unprotected word tolerates 0 hard
    //   faults; a SECDED word tolerates 1 (the code corrects it); a
    //   DECTED word tolerates 2.
    // * *soft-error-covered* yield (scenario B only) — the word can
    //   additionally absorb one runtime soft error: the code must
    //   keep one correction in reserve, so the tolerable hard-fault
    //   count drops by one. This is exactly why the paper's proposal
    //   needs DECTED: with one hard fault present, DECTED still "can
    //   correct both a soft error and a hard faulty bit in the same
    //   word".
    let func_tol = |p: Protection| p.max_correctable() as u32;
    let soft_tol = |p: Protection| p.max_correctable().saturating_sub(1) as u32;
    let yield_baseline = way_yield(inputs, pf_10t, baseline_prot, func_tol(baseline_prot));
    let yield_baseline_soft = match baseline_prot {
        Protection::None => None,
        p => Some(way_yield(inputs, pf_10t, p, soft_tol(p))),
    };

    // Steps 1–6 of Fig. 2: iterate 8T sizing until the EDC-protected
    // design matches the baseline on every criterion.
    let mut sizing_8t = 1.0f64;
    let mut iterations = 0u32;
    let (pf_8t, yield_proposal) = loop {
        let pf = model.pf(&SizedCell::new(CellKind::Sram8T, sizing_8t), inputs.ule_vdd);
        let y_func = way_yield(inputs, pf, proposal_prot, func_tol(proposal_prot));
        let y_soft = way_yield(inputs, pf, proposal_prot, soft_tol(proposal_prot));
        iterations += 1;
        let soft_ok = match yield_baseline_soft {
            None => true,
            Some(base) => y_soft >= base,
        };
        if y_func >= yield_baseline && soft_ok {
            break (pf, y_func);
        }
        sizing_8t += SIZING_STEP;
        // hyvec-lint: allow(no-panic, "divergence guard on the paper's Fig. 2 fixed-point loop; hitting it means the failure model is broken, and silently looping forever would be worse")
        assert!(
            iterations < 10_000,
            "sizing loop failed to converge (scenario {scenario:?})"
        );
    };

    Ok(UleWayDesign {
        scenario,
        pf_target,
        sizing_6t,
        sizing_10t,
        pf_10t,
        yield_baseline,
        sizing_8t,
        pf_8t,
        yield_proposal,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(scenario: Scenario) -> UleWayDesign {
        design_ule_way(
            scenario,
            &FailureModel::default(),
            &MethodologyInputs::default(),
        )
        .expect("default methodology must converge")
    }

    #[test]
    fn anchor_matches_paper_example() {
        let d = design(Scenario::A);
        assert!(
            (d.pf_target - 1.2268e-6).abs() < 1e-9,
            "Pf anchor {} != 1.22e-6",
            d.pf_target
        );
    }

    #[test]
    fn six_t_stays_near_minimum_at_hp() {
        // The failure model is calibrated so minimum-size 6T lands at
        // the anchor at 1V.
        let d = design(Scenario::A);
        assert!(d.sizing_6t <= 1.1, "6T sizing {}", d.sizing_6t);
    }

    #[test]
    fn ten_t_needs_heavy_upsizing_at_nst() {
        let d = design(Scenario::A);
        assert!(
            d.sizing_10t > 2.0 && d.sizing_10t < 4.0,
            "10T sizing {} out of expected range",
            d.sizing_10t
        );
        assert!(d.pf_10t <= d.pf_target * 1.001);
    }

    #[test]
    fn eight_t_plus_edc_is_smaller_than_10t() {
        // The core claim: EDC lets the 8T cells stay much smaller
        // than the 10T cells while matching yield.
        for s in [Scenario::A, Scenario::B] {
            let d = design(s);
            assert!(
                d.sizing_8t < d.sizing_10t,
                "{s:?}: 8T {} must be below 10T {}",
                d.sizing_8t,
                d.sizing_10t
            );
            // And the relaxed (word-level) target lets pf_8t be orders
            // of magnitude above pf_10t.
            assert!(d.pf_8t > 10.0 * d.pf_10t, "{s:?}");
        }
    }

    #[test]
    fn proposal_yield_matches_or_beats_baseline() {
        for s in [Scenario::A, Scenario::B] {
            let d = design(s);
            assert!(
                d.yield_proposal >= d.yield_baseline,
                "{s:?}: yields {} vs {}",
                d.yield_proposal,
                d.yield_baseline
            );
            assert!(d.yield_baseline > 0.98, "{s:?}: baseline yield sane");
        }
    }

    #[test]
    fn loop_terminates_in_few_iterations() {
        for s in [Scenario::A, Scenario::B] {
            let d = design(s);
            assert!(
                d.iterations >= 2 && d.iterations < 200,
                "{s:?}: {} iterations",
                d.iterations
            );
        }
    }

    #[test]
    fn minimality_one_step_down_fails() {
        // The returned 8T sizing is the first that meets the yield:
        // one step below must miss it.
        let model = FailureModel::default();
        let inputs = MethodologyInputs::default();
        for s in [Scenario::A, Scenario::B] {
            let d = design(s);
            if d.sizing_8t > 1.0 {
                let pf_under = model.pf(
                    &SizedCell::new(CellKind::Sram8T, d.sizing_8t - SIZING_STEP),
                    inputs.ule_vdd,
                );
                let (_, prot) = s.ule_way(DesignPoint::Proposal);
                let y_under = super::way_yield(&inputs, pf_under, prot, 1);
                assert!(y_under < d.yield_baseline, "{s:?} not minimal");
            }
        }
    }

    #[test]
    fn scenario_b_needs_slightly_bigger_8t() {
        // DECTED words are longer (45/39 bits), so scenario B's 8T
        // sizing is >= scenario A's.
        let a = design(Scenario::A);
        let b = design(Scenario::B);
        assert!(b.sizing_8t >= a.sizing_8t);
        // 10T sizing is the same anchor in both scenarios.
        assert_eq!(a.sizing_10t, b.sizing_10t);
    }

    #[test]
    fn six_t_cannot_be_sized_for_nst() {
        // The premise of way gating: no 6T sizing works at 350mV.
        let err = design_ule_way(
            Scenario::A,
            &FailureModel::default(),
            &MethodologyInputs {
                // Try to run the methodology with ULE voltage below
                // the 6T limit but also below 10T/8T limits? No: 6T is
                // sized at hp_vdd. Instead check the model directly.
                ..MethodologyInputs::default()
            },
        );
        assert!(err.is_ok());
        let direct = FailureModel::default().sizing_for_pf(CellKind::Sram6T, 0.35, 1e-6);
        assert!(direct.is_err());
    }

    #[test]
    fn tighter_yield_targets_need_bigger_cells() {
        let model = FailureModel::default();
        let loose = design_ule_way(
            Scenario::A,
            &model,
            &MethodologyInputs {
                target_yield: 0.95,
                ..MethodologyInputs::default()
            },
        )
        .unwrap();
        let tight = design_ule_way(
            Scenario::A,
            &model,
            &MethodologyInputs {
                target_yield: 0.999,
                ..MethodologyInputs::default()
            },
        )
        .unwrap();
        assert!(tight.sizing_10t > loose.sizing_10t);
        assert!(tight.sizing_8t >= loose.sizing_8t);
    }
}
