//! Hard-failure probability of SRAM bitcells as a function of supply
//! voltage and transistor sizing.
//!
//! The paper sizes its cells using the importance-sampling analysis of
//! Chen et al. (ICCAD 2007), which estimates the probability that
//! process variation (dominated by random dopant fluctuation of the
//! threshold voltage) makes a cell unreadable/unwritable at a given
//! supply. That toolchain is not available, so this module provides an
//! analytic model with the same interface and the same structural
//! behaviour:
//!
//! * each cell family has a *half-failure voltage* `v_half` — the supply
//!   at which half of minimum-size cells fail — reflecting its intrinsic
//!   topology robustness (ST-10T < 8T << 6T), and a voltage-equivalent
//!   variability spread `sigma_v`;
//! * the hard-failure probability of a cell sized by factor `s` at
//!   supply `v` is the Gaussian tail
//!   `Pf = Q( s * (v - v_half) / sigma_v )` — upsizing narrows the
//!   spread linearly because `sigma_Vt ~ A_vt / sqrt(W*L)` (Pelgrom) and
//!   both dimensions grow with `s`.
//!
//! The default constants are calibrated so a minimum-size 6T at 1.0V
//! lands at the paper's anchor `Pf ~ 1.22e-6` (99% yield for the 8K-bit
//! example of Sec. III-C).

use crate::cell::{CellKind, SizedCell};
use crate::gauss::{q, q_inv};
use std::error::Error;
use std::fmt;

/// Reliability parameters of one cell family (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityParams {
    /// Supply voltage at which a minimum-size cell fails with
    /// probability 1/2.
    pub v_half: f64,
    /// Voltage-equivalent sigma of the failure margin at minimum size.
    pub sigma_v: f64,
}

/// Smallest transistor-sizing increment manufacturable at the target
/// node; the methodology of Fig. 2 increases sizes "by the minimal
/// amount possible for the targeted technology".
pub const SIZING_STEP: f64 = 0.05;

/// Error returned when a sizing request cannot be met.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizingError {
    /// The supply is at or below the cell family's half-failure voltage:
    /// no amount of upsizing reaches the target failure rate.
    VoltageTooLow {
        /// The requested operating voltage.
        vdd: f64,
        /// The cell family's half-failure voltage.
        v_half: f64,
    },
    /// The target failure probability is not in `(0, 1)`.
    InvalidTarget {
        /// The requested failure probability.
        target_pf: f64,
    },
}

impl fmt::Display for SizingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SizingError::VoltageTooLow { vdd, v_half } => write!(
                f,
                "supply {vdd} V is at or below the cell's half-failure voltage {v_half} V"
            ),
            SizingError::InvalidTarget { target_pf } => {
                write!(f, "target failure probability {target_pf} not in (0, 1)")
            }
        }
    }
}

impl Error for SizingError {}

/// The failure model: per-family reliability parameters plus the
/// Gaussian-tail evaluation.
///
/// # Example
///
/// ```
/// use hyvec_sram::{CellKind, FailureModel, SizedCell};
///
/// let model = FailureModel::default();
/// // A minimum-size 6T at nominal voltage is near the paper's anchor.
/// let pf = model.pf(&SizedCell::new(CellKind::Sram6T, 1.0), 1.0);
/// assert!(pf > 1e-7 && pf < 1e-5);
/// // The same cell at 350 mV is hopeless — that is why HP ways are
/// // turned off at ULE mode.
/// assert!(model.pf(&SizedCell::new(CellKind::Sram6T, 1.0), 0.35) > 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FailureModel {
    p6t: ReliabilityParams,
    p8t: ReliabilityParams,
    p10t: ReliabilityParams,
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel {
            p6t: ReliabilityParams {
                v_half: 0.60,
                sigma_v: 0.085,
            },
            p8t: ReliabilityParams {
                v_half: 0.28,
                sigma_v: 0.034,
            },
            p10t: ReliabilityParams {
                v_half: 0.245,
                sigma_v: 0.058,
            },
        }
    }
}

impl FailureModel {
    /// Creates the default 32nm model (see module docs for calibration).
    pub fn new() -> Self {
        FailureModel::default()
    }

    /// The reliability parameters of `kind`.
    pub fn params(&self, kind: CellKind) -> ReliabilityParams {
        match kind {
            CellKind::Sram6T => self.p6t,
            CellKind::Sram8T => self.p8t,
            CellKind::Sram10T => self.p10t,
        }
    }

    /// Hard-failure probability of `cell` operated at `vdd` volts.
    pub fn pf(&self, cell: &SizedCell, vdd: f64) -> f64 {
        let p = self.params(cell.kind());
        let z = cell.sizing() * (vdd - p.v_half) / p.sigma_v;
        q(z)
    }

    /// The minimum sizing factor (quantized up to [`SIZING_STEP`], and
    /// at least 1.0) for `kind` to reach `target_pf` at `vdd` volts.
    ///
    /// This is the closed-form inverse of [`pf`](FailureModel::pf); the
    /// iterative loop of the paper's Fig. 2 methodology converges to the
    /// same value and is implemented in `hyvec-core`.
    ///
    /// # Errors
    ///
    /// * [`SizingError::VoltageTooLow`] if `vdd <= v_half` for the
    ///   family — no sizing can help below the topology's limit;
    /// * [`SizingError::InvalidTarget`] if `target_pf` is not in (0,1).
    pub fn sizing_for_pf(
        &self,
        kind: CellKind,
        vdd: f64,
        target_pf: f64,
    ) -> Result<f64, SizingError> {
        if !(target_pf > 0.0 && target_pf < 1.0) {
            return Err(SizingError::InvalidTarget { target_pf });
        }
        let p = self.params(kind);
        if vdd <= p.v_half {
            return Err(SizingError::VoltageTooLow {
                vdd,
                v_half: p.v_half,
            });
        }
        let z_needed = q_inv(target_pf);
        let raw = z_needed * p.sigma_v / (vdd - p.v_half);
        Ok(quantize_sizing(raw))
    }
}

/// Rounds a sizing factor up to the next manufacturable step, with a
/// floor at the minimum size 1.0.
pub fn quantize_sizing(raw: f64) -> f64 {
    let clamped = raw.max(1.0);
    let steps = (clamped / SIZING_STEP).ceil();
    let quantized = steps * SIZING_STEP;
    // Guard against floating-point residue (e.g. 1.0000000000000002).
    (quantized * 1e9).round() / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_t_anchor_near_paper_value() {
        let model = FailureModel::default();
        let pf = model.pf(&SizedCell::new(CellKind::Sram6T, 1.0), 1.0);
        // The paper's Sec. III-C example: Pf = 1.22e-6.
        assert!(
            pf > 0.5e-6 && pf < 3e-6,
            "6T @1V min size should be near 1.22e-6, got {pf}"
        );
    }

    #[test]
    fn pf_monotone_in_voltage_and_sizing() {
        let model = FailureModel::default();
        for kind in CellKind::ALL {
            let mut prev = 1.0f64;
            for mv in (300..=1000).step_by(50) {
                let v = mv as f64 / 1000.0;
                let pf = model.pf(&SizedCell::new(kind, 1.0), v);
                assert!(pf <= prev, "{kind} pf not decreasing in V");
                prev = pf;
            }
            // Above every family's half-failure voltage, upsizing
            // tightens the margin distribution and reduces pf. (Below
            // v_half the margin is negative and upsizing makes failure
            // *more* certain — which is correct, and why HP ways are
            // gated off at ULE mode rather than upsized.)
            let lo = model.pf(&SizedCell::new(kind, 2.0), 0.8);
            let hi = model.pf(&SizedCell::new(kind, 1.0), 0.8);
            assert!(lo < hi, "{kind} upsizing must reduce pf above v_half");
        }
    }

    #[test]
    fn robustness_ordering_at_nst() {
        let model = FailureModel::default();
        // At the paper's 350mV ULE point: 6T unusable, 8T and 10T
        // marginal at minimum size (hence the sizing methodology).
        let v = 0.35;
        let pf6 = model.pf(&SizedCell::new(CellKind::Sram6T, 1.0), v);
        let pf8 = model.pf(&SizedCell::new(CellKind::Sram8T, 1.0), v);
        let pf10 = model.pf(&SizedCell::new(CellKind::Sram10T, 1.0), v);
        assert!(pf6 > 0.9, "6T must be unusable at NST, pf={pf6}");
        assert!(pf8 < 0.5 && pf8 > 1e-4, "8T must be marginal: {pf8}");
        assert!(pf10 < 0.5 && pf10 > 1e-4, "10T must be marginal: {pf10}");
        // The ST-10T's topology advantage is its lower operating
        // limit: deeper into sub-threshold it clearly beats the 8T
        // (and its v_half is strictly lower).
        let deep = 0.30;
        let pf8_deep = model.pf(&SizedCell::new(CellKind::Sram8T, 1.0), deep);
        let pf10_deep = model.pf(&SizedCell::new(CellKind::Sram10T, 1.0), deep);
        assert!(pf10_deep < pf8_deep, "10T must beat 8T deep in NST");
        assert!(model.params(CellKind::Sram10T).v_half < model.params(CellKind::Sram8T).v_half);
    }

    #[test]
    fn high_voltage_makes_8t_and_10t_bulletproof() {
        // "both 8T and 10T cells are more reliable (by some orders of
        //  magnitude) than 6T ones at high voltage" — paper Sec. III-B.
        let model = FailureModel::default();
        let pf6 = model.pf(&SizedCell::new(CellKind::Sram6T, 1.0), 1.0);
        let pf8 = model.pf(&SizedCell::new(CellKind::Sram8T, 1.0), 1.0);
        let pf10 = model.pf(&SizedCell::new(CellKind::Sram10T, 1.0), 1.0);
        assert!(pf8 < pf6 * 1e-3);
        assert!(pf10 < pf6 * 1e-3);
    }

    #[test]
    fn sizing_for_pf_inverts_pf() {
        let model = FailureModel::default();
        for (kind, vdd) in [
            (CellKind::Sram10T, 0.35),
            (CellKind::Sram8T, 0.35),
            (CellKind::Sram6T, 1.0),
        ] {
            for target in [1e-3, 1e-6, 1e-9] {
                let s = model.sizing_for_pf(kind, vdd, target).unwrap();
                let achieved = model.pf(&SizedCell::new(kind, s), vdd);
                assert!(
                    achieved <= target * 1.0001,
                    "{kind} at {vdd}V: sizing {s} gives {achieved} > {target}"
                );
                // One step smaller must miss the target (minimality),
                // unless we are already at the floor.
                if s > 1.0 + 1e-9 {
                    let under = model.pf(&SizedCell::new(kind, s - SIZING_STEP), vdd);
                    assert!(
                        under > target,
                        "{kind}: sizing not minimal ({s} vs target {target})"
                    );
                }
            }
        }
    }

    #[test]
    fn sizing_fails_below_v_half() {
        let model = FailureModel::default();
        let err = model
            .sizing_for_pf(CellKind::Sram6T, 0.35, 1e-6)
            .unwrap_err();
        assert!(matches!(err, SizingError::VoltageTooLow { .. }));
        assert!(err.to_string().contains("half-failure"));
    }

    #[test]
    fn sizing_rejects_invalid_targets() {
        let model = FailureModel::default();
        for bad in [0.0, 1.0, -0.5, 2.0] {
            assert!(matches!(
                model.sizing_for_pf(CellKind::Sram10T, 0.35, bad),
                Err(SizingError::InvalidTarget { .. })
            ));
        }
    }

    #[test]
    fn quantize_sizing_behaviour() {
        assert_eq!(quantize_sizing(0.3), 1.0);
        assert_eq!(quantize_sizing(1.0), 1.0);
        assert_eq!(quantize_sizing(1.01), 1.05);
        assert_eq!(quantize_sizing(2.1499), 2.15);
    }

    #[test]
    fn ten_t_needs_substantial_upsizing_at_nst() {
        // The core premise of the paper: matching the 6T HP failure
        // rate at 350mV forces the 10T cell well above minimum size,
        // which is what the 8T+EDC design then avoids paying.
        let model = FailureModel::default();
        let target = 1.22e-6;
        let s10 = model
            .sizing_for_pf(CellKind::Sram10T, 0.35, target)
            .unwrap();
        assert!(s10 > 1.5, "10T sizing at NST too small: {s10}");
        let s8 = model.sizing_for_pf(CellKind::Sram8T, 0.35, 1e-3).unwrap();
        assert!(s8 < s10, "relaxed-target 8T must stay smaller than 10T");
    }
}
