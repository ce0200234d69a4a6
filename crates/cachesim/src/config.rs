//! Configuration types for the hybrid cache and the simulated system.

use std::error::Error;
use std::fmt;

use hyvec_cachemodel::{OperatingPoint, TechnologyParams};
use hyvec_edc::Protection;
use hyvec_sram::{CellKind, SizedCell};

/// Why a [`CacheConfig`] is not a valid hybrid-cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The way list is empty.
    NoWays,
    /// `size_bytes` does not divide into whole lines per way.
    SizeNotDivisible {
        /// Configured capacity.
        size_bytes: u64,
        /// Configured line size.
        line_bytes: u64,
        /// Configured associativity.
        ways: usize,
    },
    /// The set count is not a power of two (the index function
    /// requires it).
    SetsNotPowerOfTwo {
        /// The offending set count.
        sets: u64,
    },
    /// The line size is not a power of two.
    LineNotPowerOfTwo {
        /// The offending line size.
        line_bytes: u64,
    },
    /// The line is too large for the geometry's 64-bit arithmetic: its
    /// bits, or its bytes times the way count, overflow a `u64`.
    LineTooLarge {
        /// The offending line size.
        line_bytes: u64,
    },
    /// The line does not hold a whole number of protected words.
    LineNotWholeWords {
        /// Configured line size in bits.
        line_bits: u64,
        /// Configured protected-word width.
        word_bits: u32,
    },
    /// The tag is 64 bits or wider. Tags are compared masked to
    /// `tag_bits`, and a full 64-bit mask would leave no value free to
    /// mark an invalid line. An [`L2Config`] of one set of one-byte
    /// lines has 64-bit tags too: each is the whole address.
    TagTooWide {
        /// The offending tag width in bits.
        tag_bits: u32,
    },
    /// No way is ULE-enabled, so the cache cannot operate at ULE mode.
    NoUleWay,
    /// A [`SystemBuilder`](crate::engine::SystemBuilder) was asked to
    /// build without one of the mandatory L1 configurations.
    MissingCache {
        /// Which cache is missing (`"il1"` or `"dl1"`).
        cache: &'static str,
    },
    /// The configured soft-error rate is negative or not finite.
    InvalidSeuRate,
    /// A multi-core build was requested with zero cores.
    NoCores,
    /// A multi-core run asked for a chain wider than the machine or of
    /// zero width ([`MultiCoreSystem::run_widths`](crate::MultiCoreSystem::run_widths)).
    ChainWidth {
        /// The offending width.
        width: usize,
        /// The machine's core count.
        cores: usize,
    },
    /// A single-core run with soft-error injection on was asked to
    /// price more than one chain
    /// ([`System::run_chains`](crate::engine::System::run_chains)):
    /// its SEU exposure includes each chain's fill stalls, so the
    /// chains cannot share one pass of the L1s.
    SeuAcrossChains {
        /// How many chains were asked for.
        chains: usize,
    },
    /// A way's EDC family cannot protect the configured word or tag
    /// width, so its codec could not be constructed.
    UnsupportedWidth {
        /// The protection family that was asked for.
        protection: Protection,
        /// The offending word/tag width in bits.
        data_bits: u32,
        /// The widest word the family supports.
        max_data_bits: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoWays => write!(f, "cache needs at least one way"),
            ConfigError::SizeNotDivisible {
                size_bytes,
                line_bytes,
                ways,
            } => write!(
                f,
                "size must divide into lines and ways \
                 ({size_bytes}B / {line_bytes}B lines / {ways} ways)"
            ),
            ConfigError::SetsNotPowerOfTwo { sets } => {
                write!(f, "sets must be a power of two (got {sets})")
            }
            ConfigError::LineNotPowerOfTwo { line_bytes } => {
                write!(f, "line size must be a power of two (got {line_bytes}B)")
            }
            ConfigError::LineTooLarge { line_bytes } => {
                write!(f, "line size {line_bytes}B overflows 64-bit geometry")
            }
            ConfigError::LineNotWholeWords {
                line_bits,
                word_bits,
            } => write!(
                f,
                "line must hold whole words ({line_bits} line bits, {word_bits}-bit words)"
            ),
            ConfigError::TagTooWide { tag_bits } => {
                write!(f, "tags must be at most 63 bits (got {tag_bits})")
            }
            ConfigError::NoUleWay => {
                write!(f, "at least one ULE way required for hybrid operation")
            }
            ConfigError::MissingCache { cache } => {
                write!(f, "system builder needs an {cache} configuration")
            }
            ConfigError::InvalidSeuRate => {
                write!(f, "soft-error rate must be finite and >= 0")
            }
            ConfigError::NoCores => {
                write!(f, "a multi-core system needs at least one core")
            }
            ConfigError::ChainWidth { width, cores } => {
                write!(f, "chain width {width} outside 1..={cores} cores")
            }
            ConfigError::SeuAcrossChains { chains } => write!(
                f,
                "soft-error injection prices one chain per single-core run (got {chains})"
            ),
            ConfigError::UnsupportedWidth {
                protection,
                data_bits,
                max_data_bits,
            } => write!(
                f,
                "{protection} cannot protect {data_bits}-bit words \
                 (supports 1..={max_data_bits})"
            ),
        }
    }
}

impl Error for ConfigError {}

/// The two operating modes of the paper's platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// High-performance: high Vcc, all cache ways enabled.
    Hp,
    /// Ultra-low-energy: NST Vcc, only the ULE ways enabled (HP ways
    /// gated off via gated-Vdd).
    Ule,
}

impl Mode {
    /// The default operating point of the mode (1V/1GHz or 350mV/5MHz).
    pub fn operating_point(self) -> OperatingPoint {
        match self {
            Mode::Hp => OperatingPoint::hp(),
            Mode::Ule => OperatingPoint::ule(),
        }
    }
}

/// Static description of one cache way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaySpec {
    /// The bitcell implementing the way.
    pub cell: SizedCell,
    /// Whether the way stays powered at ULE mode (ULE way) or is gated
    /// off (HP way).
    pub ule_enabled: bool,
    /// Protection applied at HP mode.
    pub protection_hp: Protection,
    /// Protection applied at ULE mode.
    pub protection_ule: Protection,
}

impl WaySpec {
    /// An HP way: 6T cells, gated at ULE, with `protection` in both
    /// modes (HP ways never operate at ULE).
    pub fn hp_way(sizing: f64, protection: Protection) -> Self {
        WaySpec {
            cell: SizedCell::new(CellKind::Sram6T, sizing),
            ule_enabled: false,
            protection_hp: protection,
            protection_ule: protection,
        }
    }

    /// A ULE way of the given cell with per-mode protection.
    pub fn ule_way(
        kind: CellKind,
        sizing: f64,
        protection_hp: Protection,
        protection_ule: Protection,
    ) -> Self {
        WaySpec {
            cell: SizedCell::new(kind, sizing),
            ule_enabled: true,
            protection_hp,
            protection_ule,
        }
    }

    /// Protection active in `mode`.
    pub fn protection(&self, mode: Mode) -> Protection {
        match mode {
            Mode::Hp => self.protection_hp,
            Mode::Ule => self.protection_ule,
        }
    }

    /// Check bits that must be *stored* per word: the maximum over the
    /// two modes (a DECTED-at-ULE way stores 13 check-bit columns even
    /// when only SECDED is active at HP).
    pub fn stored_check_bits(&self) -> usize {
        self.protection_hp
            .check_bits()
            .max(self.protection_ule.check_bits())
    }

    /// Whether the way participates in lookups at `mode`.
    pub fn enabled(&self, mode: Mode) -> bool {
        match mode {
            Mode::Hp => true,
            Mode::Ule => self.ule_enabled,
        }
    }
}

/// Geometry and composition of one L1 cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes (data payload, excluding check bits).
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// The ways, in lookup order.
    pub ways: Vec<WaySpec>,
    /// Protected data-word width, bits (32 in the paper).
    pub word_bits: u32,
    /// Tag width, bits (26 in the paper).
    pub tag_bits: u32,
}

impl CacheConfig {
    /// An 8KB, 32B-line cache with the given ways (the paper's L1
    /// geometry when 8 ways are supplied).
    pub fn l1_8kb(ways: Vec<WaySpec>) -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            line_bytes: 32,
            ways,
            word_bits: 32,
            tag_bits: 26,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.ways.len() as u64
    }

    /// 32-bit words per line.
    pub fn words_per_line(&self) -> u64 {
        self.line_bytes * 8 / u64::from(self.word_bits)
    }

    /// Data words per way (`DW` of the paper's Eq. (2), per way).
    pub fn data_words_per_way(&self) -> u64 {
        self.sets() * self.words_per_line()
    }

    /// Tag words per way (`TW` of the paper's Eq. (2), per way).
    pub fn tag_words_per_way(&self) -> u64 {
        self.sets()
    }

    /// The part of [`SystemConfig::behaviour`] this cache contributes:
    /// its geometry and each way's `(enabled, protection)` at `mode`.
    fn behaviour(&self, mode: Mode) -> CacheBehaviour {
        CacheBehaviour {
            size_bytes: self.size_bytes,
            line_bytes: self.line_bytes,
            word_bits: self.word_bits,
            tag_bits: self.tag_bits,
            ways: self
                .ways
                .iter()
                .map(|w| (w.enabled(mode), w.protection(mode)))
                .collect(),
        }
    }

    /// Validates the geometry, reporting the first violated invariant.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ways.is_empty() {
            return Err(ConfigError::NoWays);
        }
        // Before anything divides by the line size: this also rejects
        // a zero-byte line.
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::LineNotPowerOfTwo {
                line_bytes: self.line_bytes,
            });
        }
        let line_too_large = ConfigError::LineTooLarge {
            line_bytes: self.line_bytes,
        };
        let line_bits = self.line_bytes.checked_mul(8).ok_or(line_too_large)?;
        let set_bytes = self
            .line_bytes
            .checked_mul(self.ways.len() as u64)
            .ok_or(line_too_large)?;
        if !self.size_bytes.is_multiple_of(set_bytes) {
            return Err(ConfigError::SizeNotDivisible {
                size_bytes: self.size_bytes,
                line_bytes: self.line_bytes,
                ways: self.ways.len(),
            });
        }
        if !self.sets().is_power_of_two() {
            return Err(ConfigError::SetsNotPowerOfTwo { sets: self.sets() });
        }
        if !line_bits.is_multiple_of(u64::from(self.word_bits)) {
            return Err(ConfigError::LineNotWholeWords {
                line_bits,
                word_bits: self.word_bits,
            });
        }
        // `Protection::None` alone would accept 64, but the cache
        // reserves the all-ones plain tag for invalid lines.
        if self.tag_bits >= 64 {
            return Err(ConfigError::TagTooWide {
                tag_bits: self.tag_bits,
            });
        }
        if !self.ways.iter().any(|w| w.ule_enabled) {
            return Err(ConfigError::NoUleWay);
        }
        // Every way must be able to build its word and tag codecs:
        // checking here is what lets the cache constructor treat codec
        // construction as infallible.
        for spec in &self.ways {
            for protection in [spec.protection_hp, spec.protection_ule] {
                for data_bits in [self.word_bits, self.tag_bits] {
                    if !protection.supports(data_bits as usize) {
                        return Err(ConfigError::UnsupportedWidth {
                            protection,
                            data_bits,
                            max_data_bits: protection.max_data_bits(),
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Geometry and timing of the optional unified L2 behind both L1s
/// (simulated by [`crate::hierarchy::L2Cache`]); under a private-L2
/// [`Topology`], the geometry of each core's L2.
///
/// The L2 is a timing/energy model, not a bit-accurate store: the
/// paper's EDC machinery lives in the L1 ways, so the L2 carries no
/// protection state of its own.
#[derive(Debug, Clone, PartialEq)]
pub struct L2Config {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Lookup latency charged on every L2 access, cycles.
    pub hit_latency: u32,
    /// Dynamic energy per L2 read access, pJ.
    pub read_energy_pj: f64,
    /// Dynamic energy per L2 line write (fill or store), pJ.
    pub write_energy_pj: f64,
}

impl L2Config {
    /// A unified `size_kb`-KB L2 with 32B lines (matching the L1s),
    /// 8 ways, and latency/energy defaults that grow gently with
    /// capacity (one extra lookup cycle per size doubling past 16KB,
    /// CACTI-flavored per-access energy).
    ///
    /// # Panics
    ///
    /// Panics if `size_kb` is zero (a zero-capacity L2 is expressed by
    /// omitting the L2 level entirely).
    pub fn unified(size_kb: u64) -> Self {
        // hyvec-lint: allow(no-panic, "documented precondition (# Panics); `.max(1).ilog2()` below would silently mis-size otherwise")
        assert!(size_kb > 0, "L2 capacity must be positive");
        let doublings = (size_kb / 16).max(1).ilog2();
        let read_energy_pj = 4.0 + 0.02 * size_kb as f64;
        L2Config {
            size_bytes: size_kb * 1024,
            line_bytes: 32,
            ways: 8,
            hit_latency: 4 + doublings,
            read_energy_pj,
            write_energy_pj: 1.25 * read_energy_pj,
        }
    }

    /// The same configuration with an explicit lookup latency.
    pub fn with_hit_latency(mut self, cycles: u32) -> Self {
        self.hit_latency = cycles;
        self
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.ways as u64
    }

    /// Validates the geometry, reporting the first violated invariant
    /// (the hybrid-specific ULE-way rule does not apply to the L2).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ways == 0 {
            return Err(ConfigError::NoWays);
        }
        // Before anything divides by the line size: this also rejects
        // a zero-byte line.
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::LineNotPowerOfTwo {
                line_bytes: self.line_bytes,
            });
        }
        let line_too_large = ConfigError::LineTooLarge {
            line_bytes: self.line_bytes,
        };
        let set_bytes = self
            .line_bytes
            .checked_mul(self.ways as u64)
            .ok_or(line_too_large)?;
        if !self.size_bytes.is_multiple_of(set_bytes) {
            return Err(ConfigError::SizeNotDivisible {
                size_bytes: self.size_bytes,
                line_bytes: self.line_bytes,
                ways: self.ways,
            });
        }
        if !self.sets().is_power_of_two() {
            return Err(ConfigError::SetsNotPowerOfTwo { sets: self.sets() });
        }
        if self.sets() * self.line_bytes == 1 {
            // One set of one-byte lines tags each line with its whole
            // address, leaving no tag free to mark an invalid line.
            return Err(ConfigError::TagTooWide { tag_bits: 64 });
        }
        Ok(())
    }
}

/// The terminal main-memory model behind the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Access latency in cycles (paper: ~20 behind the L1s).
    pub latency: u32,
    /// Dynamic energy per access, pJ. The default is 0 — the paper's
    /// EPI accounting stops at the L1s, and keeping the default free
    /// keeps legacy [`SystemConfig`] runs byte-identical.
    pub access_energy_pj: f64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            latency: 20,
            access_energy_pj: 0.0,
        }
    }
}

impl MemoryConfig {
    /// A flat memory with the given latency and no energy model.
    pub fn with_latency(latency: u32) -> Self {
        MemoryConfig {
            latency,
            ..MemoryConfig::default()
        }
    }
}

/// MESI coherence parameters for a private-L2 topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mesi {
    /// Extra cycles a request pays when a peer L2 supplies the line
    /// (a cache-to-cache intervention) instead of main memory.
    pub intervention_latency: u32,
}

impl Default for Mesi {
    fn default() -> Self {
        Mesi {
            intervention_latency: 6,
        }
    }
}

/// The L2 arrangement of a multi-core build
/// ([`crate::engine::SystemBuilder::build_multi`]).
///
/// Both topologies simulate their L2 with one model,
/// [`L2Cache`](crate::hierarchy::L2Cache). The default,
/// [`Topology::SharedL2`], is the paper's shape: N private split-L1
/// front ends over one shared L2 (or straight to memory when no L2 is
/// configured). [`Topology::PrivateL2`] gives every core its own L2 of
/// the configured geometry over one shared memory; with `coherence`
/// set, each miss and each write upgrade snoops the peers' lines of
/// its set, which keeps the L2s MESI-coherent and counts
/// invalidations and interventions, and with `coherence: None` the
/// private L2s are incoherent (disjoint working sets assumed, every
/// miss fills from memory).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Topology {
    /// One L2 (or flat memory) shared by every core.
    #[default]
    SharedL2,
    /// A private L2 per core over one shared memory.
    PrivateL2 {
        /// MESI coherence between the private L2s, or `None` for
        /// incoherent private caches.
        coherence: Option<Mesi>,
    },
}

/// Configuration of the full simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Instruction L1.
    pub il1: CacheConfig,
    /// Data L1.
    pub dl1: CacheConfig,
    /// Main-memory latency in cycles (paper: ~20).
    pub memory_latency: u32,
    /// Technology constants for the power model.
    pub tech: TechnologyParams,
    /// Sizing of the 10T cells used by the non-L1 SRAM arrays (RF,
    /// TLBs), which must work at any voltage. Shared by baseline and
    /// proposal so the uncore never skews a comparison.
    pub uncore_ten_t_sizing: f64,
}

impl SystemConfig {
    /// A uniform all-6T 7+1 system used as a neutral default in tests
    /// and examples (one 6T way marked ULE-enabled; not a realistic
    /// ULE design, but a valid cache).
    pub fn uniform_6t() -> Self {
        let mut ways = vec![WaySpec::hp_way(1.0, Protection::None); 7];
        ways.push(WaySpec {
            cell: SizedCell::new(CellKind::Sram6T, 1.0),
            ule_enabled: true,
            protection_hp: Protection::None,
            protection_ule: Protection::None,
        });
        SystemConfig {
            il1: CacheConfig::l1_8kb(ways.clone()),
            dl1: CacheConfig::l1_8kb(ways),
            memory_latency: 20,
            tech: TechnologyParams::nm32(),
            uncore_ten_t_sizing: 2.65,
        }
    }

    /// Builds a system from identical IL1/DL1 way lists.
    pub fn with_ways(ways: Vec<WaySpec>, memory_latency: u32) -> Self {
        SystemConfig {
            il1: CacheConfig::l1_8kb(ways.clone()),
            dl1: CacheConfig::l1_8kb(ways),
            memory_latency,
            tech: TechnologyParams::nm32(),
            uncore_ten_t_sizing: 2.65,
        }
    }

    /// Everything of this configuration a fault-free run at `mode` can
    /// observe: each L1's size, line size, word and tag bits, each of
    /// its ways' `(enabled, protection)` at `mode`, and the memory
    /// latency.
    ///
    /// The contract: two configurations with equal keys, no installed
    /// faults and soft errors off give identical
    /// [`RunStats`](crate::stats::RunStats) at `mode` on any trace, over
    /// their own chain or any one given to
    /// [`System::run_chains`](crate::engine::System::run_chains). What
    /// the key leaves out (cells, sizings, `tech`, the uncore sizing)
    /// only prices the counters, so one machine's report re-priced
    /// under the other's power model
    /// ([`RunReport::priced_by`](crate::engine::RunReport::priced_by))
    /// is the other's report. The EDC latency a fill pays depends only
    /// on the active code: 1 cycle when it has check bits, 0 otherwise
    /// ([`hyvec_cachemodel::EdcCircuit::for_code`]).
    pub fn behaviour(&self, mode: Mode) -> Behaviour {
        Behaviour {
            il1: self.il1.behaviour(mode),
            dl1: self.dl1.behaviour(mode),
            memory_latency: self.memory_latency,
        }
    }
}

/// The key of [`SystemConfig::behaviour`]: configurations with equal
/// keys count the same events at its mode while fault-free.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Behaviour {
    il1: CacheBehaviour,
    dl1: CacheBehaviour,
    memory_latency: u32,
}

/// One L1's share of a [`Behaviour`] key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheBehaviour {
    size_bytes: u64,
    line_bytes: u64,
    word_bits: u32,
    tag_bits: u32,
    /// Each way's `(enabled, protection)` at the key's mode, in way
    /// order.
    ways: Vec<(bool, Protection)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let cfg = SystemConfig::uniform_6t();
        cfg.il1.validate().expect("paper geometry is valid");
        assert_eq!(cfg.il1.sets(), 32);
        assert_eq!(cfg.il1.words_per_line(), 8);
        assert_eq!(cfg.il1.data_words_per_way(), 256);
        assert_eq!(cfg.il1.tag_words_per_way(), 32);
    }

    #[test]
    fn way_spec_mode_logic() {
        let hp = WaySpec::hp_way(1.0, Protection::None);
        assert!(hp.enabled(Mode::Hp));
        assert!(!hp.enabled(Mode::Ule));
        let ule = WaySpec::ule_way(CellKind::Sram8T, 1.8, Protection::None, Protection::Secded);
        assert!(ule.enabled(Mode::Hp));
        assert!(ule.enabled(Mode::Ule));
        assert_eq!(ule.protection(Mode::Hp), Protection::None);
        assert_eq!(ule.protection(Mode::Ule), Protection::Secded);
        assert_eq!(ule.stored_check_bits(), 7);
        let b = WaySpec::ule_way(
            CellKind::Sram8T,
            1.9,
            Protection::Secded,
            Protection::Dected,
        );
        assert_eq!(b.stored_check_bits(), 13);
    }

    #[test]
    fn mode_operating_points() {
        assert_eq!(Mode::Hp.operating_point().vdd, 1.0);
        assert_eq!(Mode::Ule.operating_point().vdd, 0.35);
    }

    #[test]
    fn validate_requires_ule_way() {
        let cfg = CacheConfig::l1_8kb(vec![WaySpec::hp_way(1.0, Protection::None); 8]);
        assert_eq!(cfg.validate(), Err(ConfigError::NoUleWay));
    }

    #[test]
    fn validate_reports_each_geometry_violation() {
        let valid = SystemConfig::uniform_6t().il1;

        let mut no_ways = valid.clone();
        no_ways.ways.clear();
        assert_eq!(no_ways.validate(), Err(ConfigError::NoWays));

        let mut odd_size = valid.clone();
        odd_size.size_bytes = 8 * 1024 + 32;
        assert_eq!(
            odd_size.validate(),
            Err(ConfigError::SizeNotDivisible {
                size_bytes: 8 * 1024 + 32,
                line_bytes: 32,
                ways: 8,
            })
        );

        let mut zero_lines = valid.clone();
        zero_lines.size_bytes = 0;
        zero_lines.line_bytes = 0;
        assert_eq!(
            zero_lines.validate(),
            Err(ConfigError::LineNotPowerOfTwo { line_bytes: 0 })
        );

        // Lines whose bytes across the ways, or whose bits, overflow.
        let mut huge_line = valid.clone();
        huge_line.line_bytes = 1 << 62;
        assert_eq!(
            huge_line.validate(),
            Err(ConfigError::LineTooLarge {
                line_bytes: 1 << 62
            })
        );
        huge_line.ways.truncate(1);
        huge_line.line_bytes = 1 << 61;
        huge_line.size_bytes = 1 << 61;
        assert_eq!(
            huge_line.validate(),
            Err(ConfigError::LineTooLarge {
                line_bytes: 1 << 61
            })
        );

        let mut three_words = valid.clone();
        three_words.word_bits = 48;
        assert_eq!(
            three_words.validate(),
            Err(ConfigError::LineNotWholeWords {
                line_bits: 256,
                word_bits: 48,
            })
        );
        // The error message keeps the historical assertion wording.
        assert!(ConfigError::NoUleWay
            .to_string()
            .contains("ULE way required"));
    }

    #[test]
    fn l2_config_defaults_scale_with_capacity() {
        let small = L2Config::unified(16);
        let big = L2Config::unified(128);
        small.validate().expect("16KB default is valid");
        big.validate().expect("128KB default is valid");
        assert_eq!(small.sets(), 64);
        assert!(big.hit_latency > small.hit_latency);
        assert!(big.read_energy_pj > small.read_energy_pj);
        assert!(small.write_energy_pj > small.read_energy_pj);
        assert_eq!(small.with_hit_latency(9).hit_latency, 9);
    }

    #[test]
    fn l2_config_rejects_bad_geometry() {
        let mut cfg = L2Config::unified(32);
        cfg.ways = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoWays));
        let mut cfg = L2Config::unified(32);
        cfg.size_bytes += 32;
        assert!(matches!(
            cfg.validate(),
            Err(ConfigError::SizeNotDivisible { .. })
        ));
        let mut cfg = L2Config::unified(32);
        cfg.line_bytes = 24;
        cfg.size_bytes = 24 * 8 * 128;
        assert!(cfg.validate().is_err());
        cfg.line_bytes = 0;
        cfg.size_bytes = 0;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::LineNotPowerOfTwo { line_bytes: 0 })
        );
        cfg.line_bytes = 1;
        cfg.size_bytes = 8;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::TagTooWide { tag_bits: 64 })
        );
        cfg.size_bytes = 16;
        cfg.validate()
            .expect("two sets of one-byte lines leave a free tag");
        cfg.ways = 2;
        cfg.line_bytes = 1 << 63;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::LineTooLarge {
                line_bytes: 1 << 63
            })
        );
    }

    #[test]
    fn memory_config_default_is_the_paper_latency() {
        let m = MemoryConfig::default();
        assert_eq!(m.latency, 20);
        assert_eq!(m.access_energy_pj, 0.0);
        assert_eq!(MemoryConfig::with_latency(80).latency, 80);
    }

    #[test]
    fn builder_error_messages_render() {
        assert!(ConfigError::MissingCache { cache: "il1" }
            .to_string()
            .contains("il1"));
        assert!(ConfigError::InvalidSeuRate.to_string().contains("finite"));
    }
}
