//! Scenario and design-point definitions, and the mapping from the
//! methodology outputs to a simulatable system configuration.

use crate::methodology::{design_ule_way, MethodologyInputs, UleWayDesign};
use hyvec_cachesim::config::{ConfigError, SystemConfig, WaySpec};
use hyvec_edc::Protection;
use hyvec_sram::cell::CellKind;
use hyvec_sram::failure::{FailureModel, SizingError};
use std::error::Error;
use std::fmt;

/// The paper's two evaluation scenarios.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scenario {
    /// Baseline has no coding: `6T+10T` vs `6T+8T+SECDED`.
    A,
    /// Baseline is SECDED-protected everywhere:
    /// `6T+SECDED+10T+SECDED` vs `6T+SECDED+8T+DECTED`.
    B,
}

impl Scenario {
    /// Both scenarios.
    pub const ALL: [Scenario; 2] = [Scenario::A, Scenario::B];

    /// Protection of the HP (6T) ways in this scenario. The ULE ways
    /// carry it at HP too.
    pub fn hp_way_protection(self) -> Protection {
        match self {
            Scenario::A => Protection::None,
            Scenario::B => Protection::Secded,
        }
    }

    /// The ULE way of `point` in this scenario: its cell and its code
    /// at ULE. This is the paper's design space, written once:
    ///
    /// | | baseline | proposal |
    /// |---|---|---|
    /// | A | 10T | 8T+SECDED |
    /// | B | 10T+SECDED | 8T+DECTED |
    pub(crate) fn ule_way(self, point: DesignPoint) -> (CellKind, Protection) {
        match (self, point) {
            (Scenario::A, DesignPoint::Baseline) => (CellKind::Sram10T, Protection::None),
            (Scenario::A, DesignPoint::Proposal) => (CellKind::Sram8T, Protection::Secded),
            (Scenario::B, DesignPoint::Baseline) => (CellKind::Sram10T, Protection::Secded),
            (Scenario::B, DesignPoint::Proposal) => (CellKind::Sram8T, Protection::Dected),
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scenario::A => f.write_str("A"),
            Scenario::B => f.write_str("B"),
        }
    }
}

/// Baseline (prior-art 10T ULE ways) or the paper's proposal (8T+EDC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignPoint {
    /// The Maric et al. CF'11 hybrid design with 10T ULE ways.
    Baseline,
    /// The proposed 8T+EDC ULE ways.
    Proposal,
}

impl DesignPoint {
    /// Both design points.
    pub const ALL: [DesignPoint; 2] = [DesignPoint::Baseline, DesignPoint::Proposal];
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DesignPoint::Baseline => f.write_str("baseline"),
            DesignPoint::Proposal => f.write_str("proposal"),
        }
    }
}

/// Why an [`Architecture`] could not be built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArchitectureError {
    /// The methodology cannot size the cells.
    Sizing(SizingError),
    /// The way split gives an invalid L1 geometry: its 8 KB of 32-byte
    /// lines must divide into a power-of-two number of sets.
    Geometry(ConfigError),
}

impl fmt::Display for ArchitectureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchitectureError::Sizing(e) => e.fmt(f),
            ArchitectureError::Geometry(e) => write!(f, "invalid L1 geometry: {e}"),
        }
    }
}

impl Error for ArchitectureError {}

impl From<SizingError> for ArchitectureError {
    fn from(e: SizingError) -> Self {
        ArchitectureError::Sizing(e)
    }
}

impl From<ConfigError> for ArchitectureError {
    fn from(e: ConfigError) -> Self {
        ArchitectureError::Geometry(e)
    }
}

/// A fully sized, simulatable cache architecture.
#[derive(Debug, Clone)]
pub struct Architecture {
    /// The scenario this architecture belongs to.
    pub scenario: Scenario,
    /// Baseline or proposal.
    pub point: DesignPoint,
    /// The sizing-methodology outputs used.
    pub design: UleWayDesign,
    /// The simulator configuration (IL1 + DL1, 7+1 ways, 20-cycle
    /// memory).
    pub config: SystemConfig,
}

impl Architecture {
    /// Builds the architecture for `(scenario, point)` with default
    /// models and the paper's geometry (8KB, 8-way, 7+1, 32B lines).
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::Sizing`] if the methodology cannot
    /// size the cells (impossible with the default inputs).
    pub fn build(scenario: Scenario, point: DesignPoint) -> Result<Self, ArchitectureError> {
        Architecture::build_with(
            scenario,
            point,
            &FailureModel::default(),
            &MethodologyInputs::default(),
            7,
            1,
            20,
        )
    }

    /// [`Architecture::build`] for the paper's pinned
    /// (scenario, design-point) matrix, where sizing is statically
    /// known to converge — the single documented-infallible entry the
    /// experiment suite uses instead of scattering `expect` calls.
    ///
    /// # Panics
    ///
    /// Panics if the default methodology fails to size the cells,
    /// which the tier-1 tests prove impossible for every
    /// (scenario, point) pair.
    pub fn build_pinned(scenario: Scenario, point: DesignPoint) -> Self {
        Architecture::build(scenario, point)
            // hyvec-lint: allow(no-panic, "the paper's pinned scenario matrix always sizes with default inputs; every tier-1 run exercises all four pairs")
            .expect("default methodology sizes the paper's pinned configurations")
    }

    /// Builds with explicit models, way split (`hp_ways` + `ule_ways`)
    /// and memory latency — used by the ablation experiments.
    ///
    /// # Errors
    ///
    /// Returns [`ArchitectureError::Sizing`] if the methodology cannot
    /// size the cells at the requested voltages, and
    /// [`ArchitectureError::Geometry`] if the split's way count does not
    /// divide the 8 KB of 32-byte lines into a power-of-two number of
    /// sets (a 2+1 split, say).
    ///
    /// # Panics
    ///
    /// Panics if `ule_ways == 0`.
    pub fn build_with(
        scenario: Scenario,
        point: DesignPoint,
        model: &FailureModel,
        inputs: &MethodologyInputs,
        hp_ways: usize,
        ule_ways: usize,
        memory_latency: u32,
    ) -> Result<Self, ArchitectureError> {
        // hyvec-lint: allow(no-panic, "documented precondition: a hybrid cache without ULE ways is a caller bug, not a sizing failure")
        assert!(ule_ways > 0, "hybrid operation requires ULE ways");
        // Way counts change the per-way word counts: recompute the
        // methodology over the actual ULE-way geometry.
        let total_ways = hp_ways + ule_ways;
        let sets = 8 * 1024 / 32 / total_ways as u64;
        let line_words = 32 * 8 / 32;
        let inputs = MethodologyInputs {
            data_words: sets * line_words,
            tag_words: sets,
            ..*inputs
        };
        let design = design_ule_way(scenario, model, &inputs)?;

        let hp_prot = scenario.hp_way_protection();
        let (cell, ule_prot) = scenario.ule_way(point);
        let sizing = match cell {
            CellKind::Sram6T => design.sizing_6t,
            CellKind::Sram8T => design.sizing_8t,
            CellKind::Sram10T => design.sizing_10t,
        };
        let mut ways = vec![WaySpec::hp_way(design.sizing_6t, hp_prot); hp_ways];
        let ule_way = WaySpec::ule_way(cell, sizing, hp_prot, ule_prot);
        ways.resize(total_ways, ule_way);

        let mut config = SystemConfig::with_ways(ways, memory_latency);
        // The uncore's always-on 10T arrays share the ULE-way sizing
        // in baseline and proposal alike.
        config.uncore_ten_t_sizing = design.sizing_10t;
        config.il1.validate()?;
        config.dl1.validate()?;

        Ok(Architecture {
            scenario,
            point,
            design,
            config,
        })
    }

    /// The L1s' first ULE way (both L1s are built from one way list).
    pub(crate) fn ule_way(&self) -> &WaySpec {
        let way = self.config.dl1.ways.iter().find(|w| w.ule_enabled);
        // hyvec-lint: allow(no-panic, "the config passed CacheConfig::validate, whose NoUleWay check guarantees an ULE way")
        way.expect("ULE way exists")
    }

    /// Human-readable composition string, e.g. `"6T+8T+SECDED"`.
    pub fn composition(&self) -> String {
        let hp = match self.scenario.hp_way_protection() {
            Protection::None => "6T".to_string(),
            p => format!("6T+{p}"),
        };
        let ule_way = self.ule_way();
        let cell = ule_way.cell.kind().short_name();
        let ule = match ule_way.protection_ule {
            Protection::None => cell.to_string(),
            p => format!("{cell}+{p}"),
        };
        format!("{hp} + {ule}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyvec_cachesim::config::Mode;

    #[test]
    fn all_four_architectures_build() {
        for s in Scenario::ALL {
            for p in DesignPoint::ALL {
                let arch = Architecture::build(s, p).expect("build");
                arch.config.il1.validate().expect("built configs are valid");
                assert_eq!(arch.config.il1.ways.len(), 8);
                assert_eq!(arch.config.il1.sets(), 32);
                let ule_ways = arch
                    .config
                    .il1
                    .ways
                    .iter()
                    .filter(|w| w.ule_enabled)
                    .count();
                assert_eq!(ule_ways, 1, "{s}/{p}: 7+1 split");
            }
        }
    }

    #[test]
    fn compositions_match_paper_nomenclature() {
        let name = |s, p| Architecture::build(s, p).unwrap().composition();
        assert_eq!(name(Scenario::A, DesignPoint::Baseline), "6T + 10T");
        assert_eq!(name(Scenario::A, DesignPoint::Proposal), "6T + 8T+SECDED");
        assert_eq!(
            name(Scenario::B, DesignPoint::Baseline),
            "6T+SECDED + 10T+SECDED"
        );
        assert_eq!(
            name(Scenario::B, DesignPoint::Proposal),
            "6T+SECDED + 8T+DECTED"
        );
    }

    #[test]
    fn proposal_ule_way_uses_8t_with_stronger_code_at_ule() {
        let arch = Architecture::build(Scenario::B, DesignPoint::Proposal).unwrap();
        let ule = arch.config.il1.ways.iter().find(|w| w.ule_enabled).unwrap();
        assert_eq!(ule.cell.kind(), CellKind::Sram8T);
        assert_eq!(ule.protection(Mode::Hp), Protection::Secded);
        assert_eq!(ule.protection(Mode::Ule), Protection::Dected);
        assert_eq!(ule.stored_check_bits(), 13);
    }

    #[test]
    fn six_plus_two_variant_builds() {
        let arch = Architecture::build_with(
            Scenario::A,
            DesignPoint::Proposal,
            &FailureModel::default(),
            &MethodologyInputs::default(),
            6,
            2,
            20,
        )
        .unwrap();
        assert_eq!(arch.config.il1.ways.len(), 8);
        assert_eq!(
            arch.config
                .il1
                .ways
                .iter()
                .filter(|w| w.ule_enabled)
                .count(),
            2
        );
        arch.config.il1.validate().expect("built configs are valid");
    }

    #[test]
    fn a_split_without_power_of_two_sets_is_a_typed_error() {
        let err = Architecture::build_with(
            Scenario::A,
            DesignPoint::Proposal,
            &FailureModel::default(),
            &MethodologyInputs::default(),
            2,
            1,
            20,
        )
        .unwrap_err();
        assert_eq!(
            err,
            ArchitectureError::Geometry(ConfigError::SizeNotDivisible {
                size_bytes: 8 * 1024,
                line_bytes: 32,
                ways: 3,
            })
        );
        assert!(err.to_string().contains("3 ways"), "{err}");
    }

    #[test]
    fn scenario_display() {
        assert_eq!(Scenario::A.to_string(), "A");
        assert_eq!(DesignPoint::Proposal.to_string(), "proposal");
    }
}
