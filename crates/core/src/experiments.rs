//! Regeneration of every figure and table in the paper's evaluation
//! (Sec. IV), plus this reproduction's ablations.
//!
//! Each artifact is one row of [`ARTIFACTS`]: its name, its
//! scenarios, its description, and the function that turns one of
//! the free functions below into report tables. The registry and the
//! `hyvec` CLI read everything else from that table.
//!
//! | Function | Paper artifact |
//! |---|---|
//! | [`fig3_hp_epi`] | Fig. 3 — normalized average EPI at HP mode |
//! | [`fig4_ule_epi`] | Fig. 4 — normalized EPI breakdowns at ULE mode |
//! | [`methodology_table`] | Sec. III-C — sizing/yield methodology |
//! | [`ule_performance`] | Sec. IV-B.2 — execution-time overhead |
//! | [`area_comparison`] | Sec. I/V — area claims |
//! | [`reliability`] | "same reliability levels" claim |
//! | [`ablation_ways`] | 7+1 vs 6+2 (Sec. IV-A) |
//! | [`ablation_memory_latency`] | memory-latency insensitivity (Sec. IV-A) |
//! | [`ablation_granularity`] | word-granularity protection choice |
//! | [`ablation_l2`] | unified-L2 sweep over the open memory hierarchy |
//! | [`ablation_cores`] | multi-core scaling behind a fixed shared L2 |
//! | [`ablation_cores_mesi`] | private MESI-coherent L2s per core |
//!
//! # One simulation per behaviour
//!
//! Baseline against proposal, 7+1 ways against 6+2, the ULE-voltage
//! sweep and the memory-latency sweep change codes, cells, sizings,
//! operating points and the memory latency. In a fault-free run those
//! only price the counters, time as well as energy. So
//! [`fig3_hp_epi`], [`fig4_ule_epi`], [`ule_performance`],
//! [`ablation_ways`], [`ablation_voltage`], [`ablation_memory_latency`]
//! and [`ablation_l2`] hand their design points to one helper. It
//! simulates one machine per distinct [`SystemConfig::behaviour`] key
//! at the run's mode (a geometry and its enabled ways), each L1 pass
//! priced against every chain the experiment puts below the L1s (its
//! own memory, or the L2 sweep's four hierarchies), and re-prices that
//! machine's runs under each design point's power model and operating
//! point ([`RunReport::priced_by`]).
//! At HP every design point of one way split behaves alike, and so do
//! both splits; at ULE the baseline and proposal of one split behave
//! alike, at every supply of the voltage sweep. The experiments that
//! install stuck bits or soft errors ([`reliability`],
//! [`soft_error_study`]) and those that run several cores or the zoo's
//! replayed traces ([`ablation_cores`], [`ablation_workloads`]) build
//! their own machines.

use crate::architecture::{Architecture, DesignPoint, Scenario};
use crate::methodology::{design_ule_way, MethodologyInputs, UleWayDesign};
use hyvec_cachemodel::OperatingPoint;
use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig};
use hyvec_cachesim::engine::{RunReport, SimOptions, System, SystemBuilder};
use hyvec_cachesim::faults::sample_faults;
use hyvec_cachesim::hierarchy::{L2Cache, MainMemory, MemoryLevel};
use hyvec_cachesim::power::{EnergyBreakdown, PowerModel};
use hyvec_cachesim::HybridCache;
use hyvec_edc::Protection;
use hyvec_mediabench::Benchmark;
use hyvec_sram::failure::FailureModel;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Shared run parameters for the simulated experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentParams {
    /// Instructions simulated per benchmark.
    pub instructions: u64,
    /// Trace seed (same seed for baseline and proposal, so the input
    /// is identical across design points).
    pub seed: u64,
}

impl Default for ExperimentParams {
    fn default() -> Self {
        ExperimentParams {
            instructions: 100_000,
            seed: 1,
        }
    }
}

impl ExperimentParams {
    /// The same parameters with a different seed (used by the sweep to
    /// hand each [`Experiment`] its derived private seed).
    pub fn with_seed(self, seed: u64) -> ExperimentParams {
        ExperimentParams { seed, ..self }
    }

    /// Parses an instruction budget from user input: the one parser
    /// behind `--instructions` on every `hyvec` command, `hyvec serve
    /// --instructions` and the daemon's `instructions=` query. Zero is
    /// rejected: a run of no instructions has no per-instruction
    /// figures, so every EPI cell of its report would be NaN.
    pub fn parse_instructions(value: &str) -> Result<u64, String> {
        match value.parse::<u64>().map_err(|e| e.to_string())? {
            0 => Err("must be at least 1".to_string()),
            n => Ok(n),
        }
    }

    /// The canonical field encoding hashed by
    /// [`ExperimentParams::fingerprint`]: `name=value` pairs joined
    /// with `;`, fields in fixed lexical order. Keying on field
    /// *names* (not positions) keeps the fingerprint stable across
    /// struct-field reorderings, and any future field must be
    /// appended here under its own name (changing the encoding of
    /// existing fields would silently invalidate every
    /// content-addressed cache entry keyed on it).
    pub fn canonical_encoding(&self) -> String {
        format!("instructions={};seed={}", self.instructions, self.seed)
    }

    /// A stable 64-bit fingerprint of the parameters: FNV-1a over
    /// [`ExperimentParams::canonical_encoding`]. This is the
    /// parameter half of the `hyvec serve` content-addressed cache
    /// key (combined there with the experiment id and a config
    /// revision); it must never depend on process, run, or
    /// field-declaration order.
    pub fn fingerprint(&self) -> u64 {
        crate::seed::fnv1a(&self.canonical_encoding())
    }
}

/// The single-core machine for `config`, simulated under `options`.
fn machine(config: &SystemConfig, options: SimOptions) -> System {
    System::builder()
        .config(config.clone())
        .options(options)
        .build()
        // hyvec-lint: allow(no-panic, "every experiment builds from a validated architecture; exercised by every run-all")
        .expect("valid cache configuration")
}

/// One design point of a fault-free experiment: its machine, and the
/// operating point that machine's runs are priced at.
type Point<'a> = (&'a SystemConfig, OperatingPoint);

/// `archs` as design points priced at `op`.
fn points_at(archs: &[Architecture], op: OperatingPoint) -> Vec<Point<'_>> {
    archs.iter().map(|arch| (&arch.config, op)).collect()
}

/// For each of `configs`, the index of the first config that shares
/// its [`SystemConfig::behaviour`] key at `mode`: the machine
/// [`price_points`] simulates in its place.
fn shared_machines<'a>(
    configs: impl IntoIterator<Item = &'a SystemConfig>,
    mode: Mode,
) -> Vec<usize> {
    let keys: Vec<_> = configs.into_iter().map(|c| c.behaviour(mode)).collect();
    keys.iter()
        .enumerate()
        .map(|(p, key)| keys[..p].iter().position(|k| k == key).unwrap_or(p))
        .collect()
}

/// The chain [`machine`] puts below `config`'s L1s (a flat memory of
/// its latency), for [`price_points`] callers that price one chain.
fn own_memory(config: &SystemConfig) -> [Box<dyn MemoryLevel>; 1] {
    [Box::new(MainMemory::new(MemoryConfig::with_latency(
        config.memory_latency,
    )))]
}

/// Runs `benchmarks`, in order, at `mode` under every design point of
/// `points`, each L1 pass priced against the `K` chains `chains` builds
/// for the simulated config: `runs[p][j][i]` is benchmark `i` of point
/// `p` over chain `j`, bit for bit what point `p`'s own machine returns
/// ([`System::run_chains`], priced at `p`'s operating point).
///
/// Points that share a machine ([`shared_machines`]) are simulated
/// once: the others re-price its runs under their own power model
/// ([`RunReport::priced_by`]). The behaviour key's contract makes that
/// exact, because [`machine`] installs no faults and no soft errors.
fn price_points<const K: usize>(
    points: &[Point],
    benchmarks: &[Benchmark],
    mode: Mode,
    params: ExperimentParams,
    options: SimOptions,
    chains: impl Fn(&SystemConfig) -> [Box<dyn MemoryLevel>; K],
) -> Vec<[Vec<RunReport>; K]> {
    let machines = shared_machines(points.iter().map(|(config, _)| *config), mode);
    let mut runs: Vec<[Vec<RunReport>; K]> = Vec::with_capacity(points.len());
    for (p, &(config, op)) in points.iter().enumerate() {
        let priced = |runs: &[Vec<RunReport>; K], power: &PowerModel| {
            runs.each_ref()
                .map(|chain| chain.iter().map(|r| r.priced_by(power, op)).collect())
        };
        let point = if machines[p] == p {
            let mut system = machine(config, options);
            let mut chains = chains(config);
            let mut simulated: [Vec<RunReport>; K] = std::array::from_fn(|_| Vec::new());
            for b in benchmarks {
                let reports = system
                    .run_chains(b.trace(params.instructions, params.seed), mode, &mut chains)
                    // hyvec-lint: allow(no-panic, "machine() never enables soft errors, the only run_chains error")
                    .expect("soft errors are off");
                for (chain, report) in simulated.iter_mut().zip(reports) {
                    chain.push(report);
                }
            }
            priced(&simulated, system.power())
        } else {
            priced(&runs[machines[p]], &PowerModel::new(config))
        };
        runs.push(point);
    }
    runs
}

/// The summed energy breakdown and instructions of `runs`.
fn suite(runs: &[RunReport]) -> (EnergyBreakdown, u64) {
    let mut total = EnergyBreakdown::default();
    let mut instructions = 0;
    for r in runs {
        total.l1_dynamic_pj += r.energy.l1_dynamic_pj;
        total.l1_leakage_pj += r.energy.l1_leakage_pj;
        total.edc_pj += r.energy.edc_pj;
        total.other_pj += r.energy.other_pj;
        instructions += r.stats.instructions;
    }
    (total, instructions)
}

/// The proposal's EPI saving over the baseline, each summed over its
/// runs of one suite.
fn epi_saving(baseline: &[RunReport], proposal: &[RunReport]) -> f64 {
    let (be, bi) = suite(baseline);
    let (pe, pi) = suite(proposal);
    1.0 - pe.epi_pj(pi) / be.epi_pj(bi)
}

/// The paper's two pinned design points of `scenario`, baseline first.
fn pinned_pair(scenario: Scenario) -> [Architecture; 2] {
    DesignPoint::ALL.map(|point| Architecture::build_pinned(scenario, point))
}

/// `benchmarks` at `mode` under [`pinned_pair`] (Figures 3 and 4 and
/// the execution-time overhead): `runs[0]` is the baseline's.
fn pinned_runs(
    scenario: Scenario,
    benchmarks: &[Benchmark],
    mode: Mode,
    params: ExperimentParams,
    options: SimOptions,
) -> Vec<[Vec<RunReport>; 1]> {
    let archs = pinned_pair(scenario);
    let points = points_at(&archs, mode.operating_point());
    price_points(&points, benchmarks, mode, params, options, own_memory)
}

// ---------------------------------------------------------------------
// E1: Figure 3 — HP mode EPI
// ---------------------------------------------------------------------

/// One scenario's Figure 3 data: average EPI at HP mode, normalized to
/// the baseline total.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Result {
    /// The scenario.
    pub scenario: Scenario,
    /// Baseline breakdown, normalized so its total is 1.0.
    pub baseline: EnergyBreakdown,
    /// Proposal breakdown, normalized to the baseline total.
    pub proposal: EnergyBreakdown,
    /// Average EPI saving (paper: ~14% for A, ~12% for B).
    pub saving: f64,
    /// Per-benchmark normalized proposal EPI (paper: "all benchmarks
    /// show minor differences to the average").
    pub per_benchmark: Vec<(Benchmark, f64)>,
}

/// Regenerates Figure 3 for `scenario` (BigBench at HP mode).
pub fn fig3_hp_epi(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Fig3Result {
    let runs = pinned_runs(scenario, &Benchmark::BIG, Mode::Hp, params, options);
    let ([base], [prop]) = (&runs[0], &runs[1]);
    let (be, bi) = suite(base);
    let (pe, pi) = suite(prop);
    let base_epi = be.epi_pj(bi);
    let prop_epi = pe.epi_pj(pi);
    let per_benchmark = Benchmark::BIG
        .iter()
        .zip(base.iter().zip(prop))
        .map(|(b, (base, prop))| (*b, prop.epi_pj() / base.epi_pj()))
        .collect();
    Fig3Result {
        scenario,
        baseline: be.scaled(1.0 / (base_epi * bi as f64)),
        proposal: pe.scaled(1.0 / (base_epi * pi as f64)),
        saving: 1.0 - prop_epi / base_epi,
        per_benchmark,
    }
}

// ---------------------------------------------------------------------
// E2: Figure 4 — ULE mode EPI breakdowns
// ---------------------------------------------------------------------

/// One benchmark row of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Baseline breakdown normalized to total 1.0.
    pub baseline: EnergyBreakdown,
    /// Proposal breakdown normalized to the baseline total.
    pub proposal: EnergyBreakdown,
    /// EPI saving for this benchmark.
    pub saving: f64,
}

/// One scenario's Figure 4 data.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// The scenario.
    pub scenario: Scenario,
    /// Per-benchmark rows (SmallBench).
    pub rows: Vec<Fig4Row>,
    /// Average saving (paper: ~42% for A, ~39% for B).
    pub avg_saving: f64,
}

/// Regenerates Figure 4 for `scenario` (SmallBench at ULE mode).
pub fn fig4_ule_epi(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Fig4Result {
    let runs = pinned_runs(scenario, &Benchmark::SMALL, Mode::Ule, params, options);
    let ([base], [prop]) = (&runs[0], &runs[1]);
    let mut rows = Vec::new();
    let mut savings = 0.0;
    for ((b, br), pr) in Benchmark::SMALL.into_iter().zip(base).zip(prop) {
        let base_total = br.energy.total_pj();
        let saving = 1.0 - pr.energy.total_pj() / base_total;
        savings += saving;
        rows.push(Fig4Row {
            benchmark: b,
            baseline: br.energy.scaled(1.0 / base_total),
            proposal: pr.energy.scaled(1.0 / base_total),
            saving,
        });
    }
    Fig4Result {
        scenario,
        avg_saving: savings / rows.len() as f64,
        rows,
    }
}

// ---------------------------------------------------------------------
// E3: methodology table
// ---------------------------------------------------------------------

/// The sizing/yield table of Sec. III-C for both scenarios.
pub fn methodology_table() -> Vec<UleWayDesign> {
    Scenario::ALL.map(default_design).to_vec()
}

/// `scenario`'s Sec. III-C design under the default failure model and
/// methodology inputs.
fn default_design(scenario: Scenario) -> UleWayDesign {
    design_ule_way(
        scenario,
        &FailureModel::default(),
        &MethodologyInputs::default(),
    )
    // hyvec-lint: allow(no-panic, "default inputs converge for both scenarios; pinned by tier-1 methodology tests")
    .expect("default methodology converges")
}

// ---------------------------------------------------------------------
// E4: ULE execution-time overhead
// ---------------------------------------------------------------------

/// Execution-time overhead of the proposal at ULE mode for one
/// benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Baseline cycles.
    pub baseline_cycles: u64,
    /// Proposal cycles.
    pub proposal_cycles: u64,
    /// Relative execution-time increase (paper: up to ~3%).
    pub overhead: f64,
}

/// Measures the ULE-mode execution-time overhead of the proposal
/// (SmallBench).
pub fn ule_performance(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Vec<PerfRow> {
    let runs = pinned_runs(scenario, &Benchmark::SMALL, Mode::Ule, params, options);
    let ([base], [prop]) = (&runs[0], &runs[1]);
    Benchmark::SMALL
        .into_iter()
        .zip(base.iter().zip(prop))
        .map(|(b, (br, pr))| PerfRow {
            benchmark: b,
            baseline_cycles: br.stats.cycles,
            proposal_cycles: pr.stats.cycles,
            overhead: pr.stats.cycles as f64 / br.stats.cycles as f64 - 1.0,
        })
        .collect()
}

// ---------------------------------------------------------------------
// E5: area comparison
// ---------------------------------------------------------------------

/// Area comparison between baseline and proposal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaResult {
    /// The scenario.
    pub scenario: Scenario,
    /// Baseline L1 area (IL1 + DL1), µm².
    pub baseline_um2: f64,
    /// Proposal L1 area, µm².
    pub proposal_um2: f64,
    /// Relative area saving.
    pub saving: f64,
    /// Area of the ULE way alone, baseline vs proposal, µm² (where
    /// the replacement actually happens).
    pub ule_way_baseline_um2: f64,
    /// Proposal ULE way area (including check-bit columns and EDC
    /// logic), µm².
    pub ule_way_proposal_um2: f64,
}

/// Computes the L1 area comparison for `scenario`: each L1 pair's
/// macro area from its power model, and each ULE way's cell area alone,
/// summed over the stored bits of the built DL1's ULE way (its data and
/// tag words, each with the way's stored check bits).
pub fn area_comparison(scenario: Scenario) -> AreaResult {
    let [baseline, proposal] = pinned_pair(scenario);
    let l1_area = |arch: &Architecture| {
        let pm = PowerModel::new(&arch.config);
        pm.il1.area_um2() + pm.dl1.area_um2()
    };
    let ule_way_area = |arch: &Architecture| {
        let dl1 = &arch.config.dl1;
        let way = arch.ule_way();
        let check = way.stored_check_bits() as u64;
        let bits = dl1.data_words_per_way() * (u64::from(dl1.word_bits) + check)
            + dl1.tag_words_per_way() * (u64::from(dl1.tag_bits) + check);
        bits as f64 * way.cell.area_um2()
    };
    let (b_area, p_area) = (l1_area(&baseline), l1_area(&proposal));

    AreaResult {
        scenario,
        baseline_um2: b_area,
        proposal_um2: p_area,
        saving: 1.0 - p_area / b_area,
        ule_way_baseline_um2: ule_way_area(&baseline),
        ule_way_proposal_um2: ule_way_area(&proposal),
    }
}

// ---------------------------------------------------------------------
// E6: reliability equivalence
// ---------------------------------------------------------------------

/// Reliability comparison: analytic yields, Monte-Carlo yields over
/// sampled fault maps, and functional fault-injection runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityResult {
    /// The scenario.
    pub scenario: Scenario,
    /// Analytic baseline yield (Eq. (2)).
    pub analytic_baseline: f64,
    /// Analytic proposal yield.
    pub analytic_proposal: f64,
    /// Monte-Carlo proposal yield over sampled dies (fraction of dies
    /// where every ULE-way word stays within the EDC budget).
    pub mc_proposal: f64,
    /// Dies sampled.
    pub dies: u32,
    /// Silent corruptions observed running SmallBench on a *faulty*
    /// proposal die (must be 0 — EDC corrects them).
    pub proposal_silent: u64,
    /// EDC corrections observed in that run (should be > 0 when
    /// faults landed in live words).
    pub proposal_corrected: u64,
    /// Silent corruptions observed on a strawman die with the same
    /// faulty 8T cells but *no* EDC (must be > 0: this is what the
    /// paper's methodology prevents).
    pub strawman_silent: u64,
}

/// Runs the reliability experiment for `scenario`: the design's
/// analytic yields; a Monte-Carlo yield over `dies` fault maps of the
/// proposal's ULE way, each of whose words, stored with the check bits
/// of the way's ULE code in the scenario table, may hold one hard
/// fault; and SmallBench at ULE on one faulty proposal die and on a
/// strawman with the same faults and no EDC.
pub fn reliability(
    scenario: Scenario,
    dies: u32,
    params: ExperimentParams,
    options: SimOptions,
) -> ReliabilityResult {
    let proposal = Architecture::build_pinned(scenario, DesignPoint::Proposal);
    let design = proposal.design;
    let inputs = MethodologyInputs::default();

    // Monte-Carlo: sample fault maps of the proposal ULE way and
    // check the per-word fault budget.
    let (_, prot) = scenario.ule_way(DesignPoint::Proposal);
    let k = prot.check_bits() as u32;
    let mut rng = SmallRng::seed_from_u64(params.seed ^ 0xFA17_5EED);
    let mut good = 0u32;
    for _ in 0..dies {
        let mut die_ok = true;
        // Data words then tag words, Bernoulli per bit.
        for _ in 0..inputs.data_words {
            if sample_word_faults(&mut rng, inputs.word_bits + k, design.pf_8t) > 1 {
                die_ok = false;
                break;
            }
        }
        if die_ok {
            for _ in 0..inputs.tag_words {
                if sample_word_faults(&mut rng, inputs.tag_bits + k, design.pf_8t) > 1 {
                    die_ok = false;
                    break;
                }
            }
        }
        if die_ok {
            good += 1;
        }
    }

    // Functional: run a faulty proposal die and a no-EDC strawman.
    // The design failure rate may yield only a couple of faulty bits
    // per die; use a demonstration rate high enough that several
    // faults land in live words while staying within the one-per-word
    // budget with high probability.
    let pf_demo = design.pf_8t.max(1.5e-3);
    let fault_seed = params.seed ^ 0xD1E5_A171;
    let faulty = |config: &SystemConfig| {
        let machine = System::builder().config(config.clone());
        faulty_small_bench(machine, pf_demo, fault_seed, params, options)
    };
    let proposal_run = faulty(&proposal.config);
    // Strawman: identical 8T sizing and fault map, but no EDC.
    let mut strawman = proposal.config.clone();
    for way in strawman.il1.ways.iter_mut().chain(&mut strawman.dl1.ways) {
        way.protection_hp = Protection::None;
        way.protection_ule = Protection::None;
    }

    ReliabilityResult {
        scenario,
        analytic_baseline: design.yield_baseline,
        analytic_proposal: design.yield_proposal,
        mc_proposal: f64::from(good) / f64::from(dies),
        dies,
        proposal_silent: proposal_run.silent,
        proposal_corrected: proposal_run.corrected,
        strawman_silent: faulty(&strawman).silent,
    }
}

/// Error counts of one faulty machine, summed over SmallBench.
#[derive(Default)]
struct FaultyRun {
    corrected: u64,
    detected: u64,
    silent: u64,
}

/// Runs SmallBench at ULE on `machine`, built under `options`, with
/// stuck-at faults at `pf` in each L1's ULE ways, sampled into the DL1
/// and then the IL1 from one RNG seeded with `fault_seed`.
fn faulty_small_bench(
    machine: SystemBuilder,
    pf: f64,
    fault_seed: u64,
    params: ExperimentParams,
    options: SimOptions,
) -> FaultyRun {
    let mut system = machine
        .options(options)
        .build()
        // hyvec-lint: allow(no-panic, "pinned architectures and a finite positive SEU rate; exercised by every run-all")
        .expect("valid faulty machine");
    // `sample_faults` skips the HP ways, so one rate per way puts
    // faults in the ULE ways alone.
    let mut rng = SmallRng::seed_from_u64(fault_seed);
    let mut sample = |cache: &mut HybridCache| {
        let pf_by_way = vec![pf; cache.config().ways.len()];
        sample_faults(cache, &pf_by_way, &mut rng);
    };
    sample(system.dl1_mut());
    sample(system.il1_mut());
    let mut run = FaultyRun::default();
    for b in Benchmark::SMALL {
        let stats = system
            .run(b.trace(params.instructions, params.seed), Mode::Ule)
            .stats;
        run.corrected += stats.corrected();
        run.detected += stats.detected();
        run.silent += stats.silent_corruptions();
    }
    run
}

// ---------------------------------------------------------------------
// A4: ULE-voltage sweep (DVS study)
// ---------------------------------------------------------------------

/// Proposal-vs-baseline comparison at one ULE voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageRow {
    /// ULE supply voltage, volts.
    pub ule_vdd: f64,
    /// 10T sizing at this voltage.
    pub sizing_10t: f64,
    /// 8T sizing at this voltage.
    pub sizing_8t: f64,
    /// ULE-mode EPI saving of the proposal.
    pub ule_saving: f64,
}

/// ULE supplies swept by the voltage ablation, volts.
const ABLATION_VOLTAGES: [f64; 4] = [0.32, 0.35, 0.40, 0.45];

/// The voltage ablation's design points: for each ULE supply of
/// [`ABLATION_VOLTAGES`] the methodology can size, the supply, its
/// operating point, and the baseline and proposal sized for it.
fn voltage_points(scenario: Scenario) -> Vec<(f64, OperatingPoint, [Architecture; 2])> {
    ABLATION_VOLTAGES
        .iter()
        .filter_map(|&vdd| {
            let inputs = MethodologyInputs {
                ule_vdd: vdd,
                ..MethodologyInputs::default()
            };
            let model = FailureModel::default();
            let build =
                |point| Architecture::build_with(scenario, point, &model, &inputs, 7, 1, 20).ok();
            let archs = [build(DesignPoint::Baseline)?, build(DesignPoint::Proposal)?];
            // Keep the ULE operating point's frequency at its supply
            // and scale roughly with the voltage headroom (a simple
            // DVS curve).
            let ule = Mode::Ule.operating_point();
            let freq = ule.freq_hz * (vdd / ule.vdd).powi(3);
            Some((vdd, OperatingPoint::new(vdd, freq), archs))
        })
        .collect()
}

/// Sweeps the ULE supply voltage, re-running the sizing methodology
/// and the ULE evaluation at each point. Frequency is scaled with the
/// cell-delay model so each point stays timing-feasible.
///
/// The voltage changes the cells' sizings and the operating point,
/// and the design point the cell and the code, never what the L1s do,
/// so every design point shares one simulation, priced at every
/// supply.
///
/// The paper fixes 350mV ("our architecture is not limited to any
/// particular Vcc level"); this sweep substantiates that sentence.
pub fn ablation_voltage(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Vec<VoltageRow> {
    let sweep = voltage_points(scenario);
    let points: Vec<Point> = sweep
        .iter()
        .flat_map(|(_, op, archs)| points_at(archs, *op))
        .collect();
    let runs = price_points(
        &points,
        &Benchmark::SMALL,
        Mode::Ule,
        params,
        options,
        own_memory,
    );
    let energy =
        |[runs]: &[Vec<RunReport>; 1]| runs.iter().map(|r| r.energy.total_pj()).sum::<f64>();
    sweep
        .iter()
        .zip(runs.chunks(2))
        .map(|((vdd, _, [baseline, proposal]), pair)| VoltageRow {
            ule_vdd: *vdd,
            sizing_10t: baseline.design.sizing_10t,
            sizing_8t: proposal.design.sizing_8t,
            ule_saving: 1.0 - energy(&pair[1]) / energy(&pair[0]),
        })
        .collect()
}

// ---------------------------------------------------------------------
// E7: soft errors on top of hard faults (why scenario B needs DECTED)
// ---------------------------------------------------------------------

/// Outcome of the combined hard-fault + soft-error experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftErrorResult {
    /// Corrections by the SECDED design (baseline-B-style protection
    /// on the same faulty 8T cells).
    pub secded_corrected: u64,
    /// Detected-but-uncorrectable events under SECDED (hard fault +
    /// soft error in one word: reliability lost).
    pub secded_detected: u64,
    /// Corrections by the DECTED proposal.
    pub dected_corrected: u64,
    /// Detected-but-uncorrectable events under DECTED (three errors
    /// in one word, such as two hard faults plus a soft error). Far
    /// fewer than under SECDED, but not always 0: the study's
    /// hard-fault rate is well above the design rate.
    pub dected_detected: u64,
    /// Silent corruptions under either design (must be 0: both codes
    /// at least detect).
    pub silent: u64,
}

/// Demonstrates the scenario-B argument functionally: with hard faults
/// *and* accelerated soft errors, SECDED-protected words containing a
/// hard fault degrade to detection-only, while DECTED corrects most of
/// them. Both remain silent-corruption-free.
///
/// The hard faults are injected at `max(pf_8t, 2e-3)` in the ULE way,
/// about 67x scenario B's design rate, so that a short run meets
/// several faulty bits. At that rate a DECTED word can carry two hard
/// faults plus a soft error, so DECTED's uncorrectable count is small
/// but not always 0.
pub fn soft_error_study(
    params: ExperimentParams,
    seu_rate: f64,
    options: SimOptions,
) -> SoftErrorResult {
    let proposal = Architecture::build_pinned(Scenario::B, DesignPoint::Proposal);
    // Hard faults at a rate that guarantees several faulty bits.
    let pf = proposal.design.pf_8t.max(2e-3);
    let run = |prot: Protection| {
        let mut config = proposal.config.clone();
        for way in config.il1.ways.iter_mut().chain(&mut config.dl1.ways) {
            if way.ule_enabled {
                way.protection_ule = prot;
            }
        }
        let machine = System::builder()
            .config(config)
            .seu(seu_rate, params.seed ^ 0xABCD);
        faulty_small_bench(machine, pf, params.seed ^ 0x050F_7E44, params, options)
    };
    let (secded, dected) = (run(Protection::Secded), run(Protection::Dected));
    SoftErrorResult {
        secded_corrected: secded.corrected,
        secded_detected: secded.detected,
        dected_corrected: dected.corrected,
        dected_detected: dected.detected,
        silent: secded.silent + dected.silent,
    }
}

fn sample_word_faults<R: rand::Rng>(rng: &mut R, bits: u32, pf: f64) -> u32 {
    let mut n = 0;
    for _ in 0..bits {
        if rng.gen::<f64>() < pf {
            n += 1;
        }
    }
    n
}

// ---------------------------------------------------------------------
// A1: way-split ablation (7+1 vs 6+2)
// ---------------------------------------------------------------------

/// Savings of the proposal for one way split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaySplitRow {
    /// HP (6T) ways.
    pub hp_ways: usize,
    /// ULE ways.
    pub ule_ways: usize,
    /// HP-mode EPI saving.
    pub hp_saving: f64,
    /// ULE-mode EPI saving.
    pub ule_saving: f64,
}

/// The way splits of the way-split ablation, `(HP ways, ULE ways)`.
const WAY_SPLITS: [(usize, usize); 2] = [(7, 1), (6, 2)];

/// The way-split ablation's design points: the baseline and proposal
/// of each split of [`WAY_SPLITS`], in that order.
fn way_split_points(scenario: Scenario) -> Vec<Architecture> {
    WAY_SPLITS
        .iter()
        .flat_map(|&(hp, ule)| {
            DesignPoint::ALL.map(|point| {
                Architecture::build_with(
                    scenario,
                    point,
                    &FailureModel::default(),
                    &MethodologyInputs::default(),
                    hp,
                    ule,
                    20,
                )
                // hyvec-lint: allow(no-panic, "every way split in the ablation range sizes with default models; the sweep itself is the regression test")
                .expect("ablation arch")
            })
        })
        .collect()
}

/// Compares 7+1 against 6+2 (paper: "did not provide further
/// insights"). At HP every way of either split is on, so the four
/// design points share one simulation of BigBench; at ULE each split's
/// baseline and proposal share one simulation of SmallBench.
pub fn ablation_ways(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Vec<WaySplitRow> {
    let archs = way_split_points(scenario);
    let savings = |mode: Mode, benchmarks: &[Benchmark]| -> Vec<f64> {
        let points = points_at(&archs, mode.operating_point());
        price_points(&points, benchmarks, mode, params, options, own_memory)
            .chunks(2)
            .map(|pair| epi_saving(&pair[0][0], &pair[1][0]))
            .collect()
    };
    let hp = savings(Mode::Hp, &Benchmark::BIG);
    let ule = savings(Mode::Ule, &Benchmark::SMALL);
    WAY_SPLITS
        .iter()
        .zip(hp.into_iter().zip(ule))
        .map(
            |(&(hp_ways, ule_ways), (hp_saving, ule_saving))| WaySplitRow {
                hp_ways,
                ule_ways,
                hp_saving,
                ule_saving,
            },
        )
        .collect()
}

// ---------------------------------------------------------------------
// A2: memory-latency ablation
// ---------------------------------------------------------------------

/// Savings of the proposal for one memory latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemLatRow {
    /// Memory latency in cycles.
    pub latency: u32,
    /// HP-mode EPI saving.
    pub hp_saving: f64,
}

/// Memory latencies swept by the memory-latency ablation, cycles.
const MEMLAT_LATENCIES: [u32; 4] = [10, 20, 40, 80];

/// The memory-latency ablation's design points: the 7+1 baseline and
/// proposal at each latency of [`MEMLAT_LATENCIES`], in that order.
/// The latency only reaches the memory, so the two are sized once.
fn memlat_points(scenario: Scenario) -> Vec<Architecture> {
    let pair = DesignPoint::ALL.map(|point| {
        Architecture::build_with(
            scenario,
            point,
            &FailureModel::default(),
            &MethodologyInputs::default(),
            7,
            1,
            MEMLAT_LATENCIES[0],
        )
        // hyvec-lint: allow(no-panic, "the 7+1 split sizes with default models at any latency (the latency only reaches the memory); the sweep itself is the regression test")
        .expect("ablation arch")
    });
    MEMLAT_LATENCIES
        .iter()
        .flat_map(|&memory_latency| {
            pair.iter().map(move |arch| Architecture {
                config: SystemConfig {
                    memory_latency,
                    ..arch.config.clone()
                },
                ..arch.clone()
            })
        })
        .collect()
}

/// Sweeps the memory latency (paper: "other memory latencies do not
/// change the trends"). The latency only prices the fills memory
/// serves, and at HP the baseline's and proposal's L1s behave alike,
/// so one L1 pass per benchmark over one flat memory is priced at all
/// four latencies under both power models.
pub fn ablation_memory_latency(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Vec<MemLatRow> {
    let archs = memlat_points(scenario);
    let points = points_at(&archs, Mode::Hp.operating_point());
    let runs = price_points(
        &points,
        &Benchmark::BIG,
        Mode::Hp,
        params,
        options,
        own_memory,
    );
    MEMLAT_LATENCIES
        .iter()
        .zip(runs.chunks(2))
        .map(|(&latency, pair)| MemLatRow {
            latency,
            hp_saving: epi_saving(&pair[0][0], &pair[1][0]),
        })
        .collect()
}

// ---------------------------------------------------------------------
// A5: L2 ablation (the memory hierarchy opened by `MemoryLevel`)
// ---------------------------------------------------------------------

/// One L2 design point of the L2 ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct L2Row {
    /// L2 capacity in KB (0 = no L2: the paper's flat platform).
    pub size_kb: u64,
    /// L2 lookup latency, cycles (0 when no L2 is configured).
    pub hit_latency: u32,
    /// Cycles per instruction over BigBench.
    pub cpi: f64,
    /// Energy per instruction, pJ (L2 access energy included).
    pub epi_pj: f64,
    /// L2 hit ratio (0 when no L2 is configured).
    pub l2_hit_ratio: f64,
    /// Cycles stalled on IL1 misses.
    pub il1_stall_cycles: u64,
    /// Cycles stalled on DL1 misses.
    pub dl1_stall_cycles: u64,
    /// Requests that reached main memory.
    pub memory_accesses: u64,
}

/// Memory latency of the L2 ablation, cycles. The paper's ~20-cycle
/// flat memory leaves an L2 little to hide; a slow (embedded-DRAM
/// class) backing store is where a second level earns its area.
pub const ABLATION_L2_MEMORY_LATENCY: u32 = 80;

/// The design point the hierarchy ablations start from: the pinned
/// 7+1 proposal of `scenario` behind an
/// [`ABLATION_L2_MEMORY_LATENCY`]-cycle memory.
fn slow_memory_arch(scenario: Scenario) -> Architecture {
    Architecture::build_with(
        scenario,
        DesignPoint::Proposal,
        &FailureModel::default(),
        &MethodologyInputs::default(),
        7,
        1,
        ABLATION_L2_MEMORY_LATENCY,
    )
    // hyvec-lint: allow(no-panic, "the pinned 7+1 proposal sizing converges with default models; exercised by every run-all")
    .expect("proposal architecture")
}

/// The machine of [`slow_memory_arch`], simulated under `options`.
fn slow_memory_proposal(scenario: Scenario, options: SimOptions) -> SystemBuilder {
    System::builder()
        .config(slow_memory_arch(scenario).config)
        .memory(MemoryConfig::with_latency(ABLATION_L2_MEMORY_LATENCY))
        .options(options)
}

/// L2 capacities swept by the L2 ablation, KB (`None`: no L2).
const ABLATION_L2_SIZES_KB: [Option<u64>; 4] = [None, Some(16), Some(64), Some(256)];

/// Sweeps a unified L2 (none, then growing capacities at their default
/// latencies) under the proposal design point, running BigBench at HP
/// mode behind a slow memory ([`ABLATION_L2_MEMORY_LATENCY`]). Every
/// row but the first routes L1 misses through the composable
/// [`hyvec_cachesim::hierarchy::MemoryLevel`] chain
/// (`L1s -> L2Cache -> MainMemory`); one L1 pass per benchmark is
/// priced against all four chains.
pub fn ablation_l2(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Vec<L2Row> {
    let arch = slow_memory_arch(scenario);
    let points = [(&arch.config, Mode::Hp.operating_point())];
    let chains = |_: &SystemConfig| {
        ABLATION_L2_SIZES_KB.map(|size_kb| -> Box<dyn MemoryLevel> {
            let memory = MainMemory::new(MemoryConfig::with_latency(ABLATION_L2_MEMORY_LATENCY));
            match size_kb {
                Some(kb) => Box::new(L2Cache::new(L2Config::unified(kb), memory)),
                None => Box::new(memory),
            }
        })
    };
    let runs = price_points(&points, &Benchmark::BIG, Mode::Hp, params, options, chains);
    ABLATION_L2_SIZES_KB
        .iter()
        .zip(&runs[0])
        .map(|(&size_kb, runs)| {
            let mut instructions = 0u64;
            let mut cycles = 0u64;
            let mut energy_pj = 0.0;
            let mut row = L2Row {
                size_kb: size_kb.unwrap_or(0),
                hit_latency: size_kb.map_or(0, |kb| L2Config::unified(kb).hit_latency),
                cpi: 0.0,
                epi_pj: 0.0,
                l2_hit_ratio: 0.0,
                il1_stall_cycles: 0,
                dl1_stall_cycles: 0,
                memory_accesses: 0,
            };
            let mut l2_hits = 0u64;
            let mut l2_accesses = 0u64;
            for r in runs {
                instructions += r.stats.instructions;
                cycles += r.stats.cycles;
                energy_pj += r.energy.total_pj();
                row.il1_stall_cycles += r.stats.il1_stall_cycles;
                row.dl1_stall_cycles += r.stats.dl1_stall_cycles;
                row.memory_accesses += r.stats.memory_accesses;
                if let Some(l2) = r.stats.l2 {
                    l2_hits += l2.hits;
                    l2_accesses += l2.accesses;
                }
            }
            row.cpi = cycles as f64 / instructions as f64;
            row.epi_pj = energy_pj / instructions as f64;
            if l2_accesses > 0 {
                row.l2_hit_ratio = l2_hits as f64 / l2_accesses as f64;
            }
            row
        })
        .collect()
}

// ---------------------------------------------------------------------
// A6: core-count ablation (multi-core over the shared L2)
// ---------------------------------------------------------------------

/// One core-count design point of the multi-core ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct CoresRow {
    /// Number of cores sharing the L2.
    pub cores: usize,
    /// Energy per instruction over the whole machine, pJ.
    pub epi_pj: f64,
    /// Hit ratio of the shared L2.
    pub l2_hit_ratio: f64,
    /// Requests that reached main memory (demand fills + writebacks
    /// from every core).
    pub memory_accesses: u64,
    /// Machine-wide memory accesses per 1000 executed instructions.
    pub memory_per_kilo_instructions: f64,
    /// Demand memory fills of core 0 per 1000 of *its* instructions —
    /// the contention-induced traffic figure. Core 0 runs the same
    /// program with the same stream at every core count, so any rise
    /// is purely the other cores evicting its shared-L2 lines.
    pub core0_memory_per_kilo: f64,
    /// Per-core `(benchmark, IPC)`, in core order.
    pub per_core_ipc: Vec<(Benchmark, f64)>,
}

/// Shared-L2 capacity of the core-count ablation, KB. Fixed across
/// core counts so contention — not capacity — is the swept variable,
/// and deliberately small (one program's working set fits, the
/// 8-program mix is ~4x over) so the sweep traverses the whole regime
/// from private-cache comfort to full thrash.
pub const ABLATION_CORES_L2_KB: u64 = 16;

/// Core counts swept by the multi-core ablation. The 16/32/64 entries
/// are where splitting the L1 fronts across threads pays for itself;
/// the report is byte-identical at every `--sim-threads` value
/// regardless.
pub const ABLATION_CORES_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Core counts swept by the private-L2 MESI topology scenario of the
/// multi-core ablation (a subset — each miss and write upgrade snoops
/// every peer's lines of its set, so a chain request costs O(cores),
/// and three points already show the trend).
pub const ABLATION_CORES_MESI_COUNTS: [usize; 3] = [2, 8, 32];

/// The multi-program mix of the core-count ablation: core `i` runs
/// program `i mod 6`. BigBench reordered so the L1-overflowing MPEG-2
/// programs come first — every core count then actually re-references
/// the shared L2, making its hit ratio a meaningful contention signal
/// from the 1-core row on.
pub const ABLATION_CORES_PROGRAMS: [Benchmark; 6] = [
    Benchmark::Mpeg2C,
    Benchmark::Mpeg2D,
    Benchmark::GsmC,
    Benchmark::GsmD,
    Benchmark::G721C,
    Benchmark::G721D,
];

/// Sweeps the core count ([`ABLATION_CORES_COUNTS`] private split-L1
/// front ends behind one fixed [`ABLATION_CORES_L2_KB`]-KB shared L2
/// and a slow memory) under the proposal design point. Core `i` runs
/// [`ABLATION_CORES_PROGRAMS`]`[i mod 6]` at HP mode in its own
/// address window ([`hyvec_mediabench::multiprogram_sources`]),
/// round-robin interleaved at instruction granularity by the
/// multi-core engine
/// ([`hyvec_cachesim::multicore::MultiCoreSystem`]). Core `i`'s stream
/// does not depend on the core count, so one pass of the widest
/// machine's fronts is priced against one chain per core count
/// ([`MultiCoreSystem::run_widths`](hyvec_cachesim::MultiCoreSystem::run_widths)).
pub fn ablation_cores(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Vec<CoresRow> {
    use hyvec_mediabench::multiprogram_sources;

    let widest = widest(&ABLATION_CORES_COUNTS);
    let mut system = slow_memory_proposal(scenario, options)
        .l2(L2Config::unified(ABLATION_CORES_L2_KB))
        .build_multi(widest)
        // hyvec-lint: allow(no-panic, "builder inputs are the validated paper geometry plus L2Config::unified presets; exercised by every run-all")
        .expect("valid multi-core hierarchy");
    let benchmarks: Vec<Benchmark> = (0..widest)
        .map(|i| ABLATION_CORES_PROGRAMS[i % ABLATION_CORES_PROGRAMS.len()])
        .collect();
    let sources = multiprogram_sources(&benchmarks, params.instructions, params.seed);
    system
        .run_widths(sources, Mode::Hp, ABLATION_CORES_COUNTS)
        // hyvec-lint: allow(no-panic, "every swept count fits the widest machine")
        .expect("every width fits")
        .iter()
        .map(|report| {
            let instructions = report.instructions();
            let core0 = &report.per_core[0].stats;
            CoresRow {
                cores: report.per_core.len(),
                epi_pj: report.epi_pj(),
                l2_hit_ratio: report.l2_hit_ratio(),
                memory_accesses: report.memory.accesses,
                memory_per_kilo_instructions: 1000.0 * report.memory.accesses as f64
                    / instructions as f64,
                core0_memory_per_kilo: 1000.0 * core0.memory_accesses as f64
                    / core0.instructions as f64,
                per_core_ipc: benchmarks
                    .iter()
                    .zip(&report.per_core)
                    .map(|(b, r)| (*b, r.stats.instructions as f64 / r.stats.cycles as f64))
                    .collect(),
            }
        })
        .collect()
}

/// The largest of a sweep's core counts.
fn widest(counts: &[usize]) -> usize {
    counts.iter().copied().max().unwrap_or(1)
}

/// One core count of the private-L2 MESI topology scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CoresTopologyRow {
    /// Number of cores, each with a private MESI-coherent L2.
    pub cores: usize,
    /// Energy per instruction over the whole machine, pJ.
    pub epi_pj: f64,
    /// Aggregate hit ratio over all private L2s.
    pub l2_hit_ratio: f64,
    /// Machine-wide memory accesses per 1000 executed instructions.
    pub memory_per_kilo_instructions: f64,
    /// Peer lines invalidated by write upgrades, per 1000 executed
    /// instructions.
    pub invalidations_per_kilo: f64,
    /// Misses supplied cache-to-cache by a peer L2 instead of memory,
    /// per 1000 executed instructions.
    pub interventions_per_kilo: f64,
}

/// Sweeps [`ABLATION_CORES_MESI_COUNTS`] cores over the
/// [`Topology::PrivateL2`](hyvec_cachesim::config::Topology) shape:
/// each core owns a private [`ABLATION_CORES_L2_KB`]-KB MESI-coherent
/// L2 over the one shared memory. Unlike the shared-L2 sweep, the
/// cores run decorrelated streams of the *same* program over the
/// *same* address space (no per-core rebasing — the closest a
/// trace-driven model gets to a multi-threaded program), so lines
/// genuinely migrate: write upgrades invalidate peer copies and misses
/// are supplied cache-to-cache.
pub fn ablation_cores_mesi(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Vec<CoresTopologyRow> {
    use hyvec_cachesim::config::{Mesi, Topology};
    use hyvec_mediabench::per_core_seed;

    let widest = widest(&ABLATION_CORES_MESI_COUNTS);
    let mut system = slow_memory_proposal(scenario, options)
        .l2(L2Config::unified(ABLATION_CORES_L2_KB))
        .topology(Topology::PrivateL2 {
            coherence: Some(Mesi::default()),
        })
        .build_multi(widest)
        // hyvec-lint: allow(no-panic, "builder inputs are the validated paper geometry plus L2Config::unified presets; exercised by every run-all")
        .expect("valid private-L2 MESI machine");
    let sources: Vec<_> = (0..widest)
        .map(|core| {
            ABLATION_CORES_PROGRAMS[0].trace(params.instructions, per_core_seed(params.seed, core))
        })
        .collect();
    system
        .run_widths(sources, Mode::Hp, ABLATION_CORES_MESI_COUNTS)
        // hyvec-lint: allow(no-panic, "every swept count fits the widest machine")
        .expect("every width fits")
        .iter()
        .map(|report| {
            let instructions = report.instructions();
            let kilo = |count: u64| 1000.0 * count as f64 / instructions as f64;
            // hyvec-lint: allow(no-panic, "the private topology always reports an aggregate l2 level")
            let l2 = report.l2.expect("private L2s report an l2 level");
            CoresTopologyRow {
                cores: report.per_core.len(),
                epi_pj: report.epi_pj(),
                l2_hit_ratio: report.l2_hit_ratio(),
                memory_per_kilo_instructions: kilo(report.memory.accesses),
                invalidations_per_kilo: kilo(l2.invalidations),
                interventions_per_kilo: kilo(l2.interventions),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// A3: protection-granularity ablation
// ---------------------------------------------------------------------

/// Yield/overhead consequences of protecting at a different word
/// granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GranularityRow {
    /// Protected word width, bits.
    pub word_bits: u32,
    /// Check-bit storage overhead (check bits / data bits).
    pub storage_overhead: f64,
    /// 8T sizing required to match the baseline yield at this
    /// granularity.
    pub sizing_8t: f64,
    /// Relative ULE-way bit count (data + check bits, normalized to
    /// the 32-bit-word design).
    pub relative_bits: f64,
}

/// Analyzes SECDED protection at 8/16/32-bit word granularity for
/// scenario A. Finer words tolerate more total faults (higher
/// correctable density) but pay more check-bit overhead.
pub fn ablation_granularity() -> Vec<GranularityRow> {
    let model = FailureModel::default();
    let base_inputs = MethodologyInputs::default();
    let check = Protection::Secded.check_bits() as u32;
    // The ULE way's stored bits (data and tag words, each with its
    // check bits) at the inputs' word geometry.
    let stored_bits = |inputs: &MethodologyInputs| {
        (inputs.data_words * u64::from(inputs.word_bits + check)
            + inputs.tag_words * u64::from(inputs.tag_bits + check)) as f64
    };
    let reference_bits = stored_bits(&base_inputs);
    [8u32, 16, 32]
        .iter()
        .map(|&wb| {
            let inputs = MethodologyInputs {
                word_bits: wb,
                data_words: base_inputs.data_words * u64::from(base_inputs.word_bits)
                    / u64::from(wb),
                ..base_inputs
            };
            let design =
                // hyvec-lint: allow(no-panic, "every granularity point converges with the default failure model; the sweep itself is the regression test")
                design_ule_way(Scenario::A, &model, &inputs).expect("granularity methodology");
            GranularityRow {
                word_bits: wb,
                storage_overhead: f64::from(check) / f64::from(wb),
                sizing_8t: design.sizing_8t,
                relative_bits: stored_bits(&inputs) / reference_bits,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// The Experiment trait and the table of artifacts
// ---------------------------------------------------------------------

use crate::report::{Cell, Column, Table};

/// Monte-Carlo dies sampled by the reliability experiment. One
/// setting for every entry point (sweep, `hyvec reliability`, the
/// daemon), so the section stays byte-stable across them; call
/// [`reliability`] directly for a tighter custom estimate.
pub const RELIABILITY_DIES: u32 = 100;

/// Accelerated soft-error rate used by the sweep's soft-error job.
pub const SOFT_ERROR_RATE: f64 = 3e-8;

/// One artifact × scenario cell of an evaluation matrix, behind a
/// uniform interface: a stable id and a run method that computes the
/// cell's report tables.
///
/// [`Registry::standard`](crate::registry::Registry::standard) holds
/// one per cell of [`ARTIFACTS`]; a custom experiment implements this
/// trait and registers beside them. The sweep engine
/// ([`crate::sweep`]) only ever sees this trait: it derives each
/// job's seed from the id, and files the returned tables under a
/// section labelled with that id and seed.
pub trait Experiment: Send + Sync {
    /// Stable `"artifact/scenario"` identifier (e.g. `"fig3/A"`).
    /// Doubles as the seed-derivation key ([`crate::seed`]): renaming
    /// an experiment is the only way to change its RNG stream.
    fn id(&self) -> &str;

    /// One-line human description of what the experiment regenerates,
    /// surfaced by the machine-readable registry index
    /// ([`crate::registry::Registry::index_json`], i.e. `hyvec list
    /// --format json` and the serve daemon's `GET /experiments`).
    /// Purely informational: never hashed, never part of the report.
    fn description(&self) -> &str {
        ""
    }

    /// Computes the experiment's tables with `params.seed` as its
    /// private trace/RNG seed (the sweep derives it from its base
    /// seed and [`Experiment::id`]).
    ///
    /// Every machine the experiment assembles must be built under
    /// `options` ([`SystemBuilder::options`]). They change wall time
    /// only, so the tables must come out byte-identical under any
    /// options.
    fn run(&self, params: ExperimentParams, options: SimOptions) -> Vec<Table>;
}

/// The normalized-EPI breakdown matrix of Figures 3 and 4, columns
/// driven by [`EnergyBreakdown::components`] so new energy components
/// flow into every renderer automatically.
fn breakdown_table(rows: &[(&str, &EnergyBreakdown)]) -> Table {
    let mut t = Table::new("epi")
        .with_header()
        .column(Column::new("design").left(24));
    for (key, header, _) in rows[0].1.components() {
        t.push_column(Column::new(key).header(header).right(8).prefix(" "));
    }
    t.push_column(Column::new("total_pj").header("total").right(8).prefix(" "));
    for (label, b) in rows {
        let mut cells = vec![Cell::str(*label)];
        for (key, _, value) in b.components() {
            // The EDC adder is an order of magnitude below the array
            // energies; one extra decimal keeps it legible.
            let precision = if key == "edc_pj" { 4 } else { 3 };
            cells.push(Cell::float(value, precision));
        }
        cells.push(Cell::float(b.total_pj(), 3));
        t.push_row(cells);
    }
    t
}

impl Fig3Result {
    /// The result as report tables: the breakdown matrix and saving
    /// line the text report shows, plus the per-benchmark normalized
    /// EPI as a text-hidden table so JSON/CSV carry the full figure.
    pub fn tables(&self) -> Vec<Table> {
        let epi = breakdown_table(&[("baseline", &self.baseline), ("proposal", &self.proposal)]);
        let mut saving = Table::new("saving")
            .row_suffix(" (paper: ~14% A / ~12% B)")
            .column(Column::new("saving").prefix("HP EPI saving: "));
        saving.push_row(vec![Cell::percent(self.saving)]);
        let mut per_benchmark = Table::new("per_benchmark")
            .hidden_in_text()
            .column(Column::new("benchmark"))
            .column(Column::new("normalized_epi"));
        for (b, ratio) in &self.per_benchmark {
            per_benchmark.push_row(vec![Cell::str(b.to_string()), Cell::float(*ratio, 3)]);
        }
        vec![epi, saving, per_benchmark]
    }
}

impl Fig4Result {
    /// The result as report tables (per-benchmark savings + average).
    pub fn tables(&self) -> Vec<Table> {
        let mut savings = Table::new("savings")
            .column(Column::new("benchmark").left(10))
            .column(Column::new("saving").prefix(" saving "));
        for row in &self.rows {
            savings.push_row(vec![
                Cell::str(row.benchmark.to_string()),
                Cell::percent(row.saving),
            ]);
        }
        let mut average = Table::new("average")
            .row_suffix(" (paper: ~42% A / ~39% B)")
            .column(Column::new("avg_saving").prefix("average ULE saving: "));
        average.push_row(vec![Cell::percent(self.avg_saving)]);
        // The actual content of Figure 4 — per-benchmark normalized
        // EPI breakdowns — never appeared in the text sweep report;
        // carry it for the structured formats.
        let mut breakdowns = Table::new("breakdowns")
            .hidden_in_text()
            .column(Column::new("benchmark"))
            .column(Column::new("design"));
        for (key, _, _) in EnergyBreakdown::default().components() {
            breakdowns.push_column(Column::new(key));
        }
        breakdowns.push_column(Column::new("total_pj"));
        for row in &self.rows {
            for (design, b) in [("baseline", &row.baseline), ("proposal", &row.proposal)] {
                let mut cells = vec![Cell::str(row.benchmark.to_string()), Cell::str(design)];
                for (_, _, value) in b.components() {
                    cells.push(Cell::float(value, 4));
                }
                cells.push(Cell::float(b.total_pj(), 4));
                breakdowns.push_row(cells);
            }
        }
        vec![savings, average, breakdowns]
    }
}

fn methodology_tables(d: &UleWayDesign) -> Vec<Table> {
    let mut sizing = Table::new("sizing")
        .column(Column::new("pf_target").prefix("Pf target "))
        .column(Column::new("sizing_6t").prefix("; sizings: 6T x"))
        .column(Column::new("sizing_10t").prefix(", 10T x"))
        .column(Column::new("sizing_8t").prefix(", 8T x"));
    sizing.push_row(vec![
        Cell::sci(d.pf_target, 3),
        Cell::float(d.sizing_6t, 2),
        Cell::float(d.sizing_10t, 2),
        Cell::float(d.sizing_8t, 2),
    ]);
    let mut yields = Table::new("yield")
        .row_suffix(" sizing iterations")
        .column(Column::new("yield_baseline").prefix("yield "))
        .column(Column::new("yield_proposal").prefix(" (baseline) -> "))
        .column(Column::new("iterations").prefix(" (proposal), "));
    yields.push_row(vec![
        Cell::float(d.yield_baseline, 6),
        Cell::float(d.yield_proposal, 6),
        Cell::int(d.iterations),
    ]);
    vec![sizing, yields]
}

fn performance_tables(rows: &[PerfRow]) -> Vec<Table> {
    let avg = rows.iter().map(|r| r.overhead).sum::<f64>() / rows.len() as f64;
    let mut cycles = Table::new("cycles")
        .row_suffix(")")
        .column(Column::new("benchmark").left(10))
        .column(Column::new("baseline_cycles").right(10).prefix(" "))
        .column(Column::new("proposal_cycles").right(10).prefix(" -> "))
        .column(Column::new("overhead").prefix(" cycles ("));
    for r in rows {
        cycles.push_row(vec![
            Cell::str(r.benchmark.to_string()),
            Cell::int(r.baseline_cycles as i64),
            Cell::int(r.proposal_cycles as i64),
            Cell::percent(r.overhead),
        ]);
    }
    let mut average = Table::new("average")
        .row_suffix(" (paper: ~3%)")
        .column(Column::new("avg_overhead").prefix("average overhead: "));
    average.push_row(vec![Cell::percent(avg)]);
    vec![cycles, average]
}

impl AreaResult {
    /// The result as report tables (L1 totals + ULE-way close-up).
    pub fn tables(&self) -> Vec<Table> {
        let mut l1 = Table::new("l1")
            .row_suffix(")")
            .column(Column::new("baseline_um2").prefix("L1 (IL1+DL1): "))
            .column(Column::new("proposal_um2").prefix(" -> "))
            .column(Column::new("saving").prefix(" um2 (saving "));
        l1.push_row(vec![
            Cell::float(self.baseline_um2, 0),
            Cell::float(self.proposal_um2, 0),
            Cell::percent(self.saving),
        ]);
        let mut ule = Table::new("ule_way")
            .row_suffix(" um2")
            .column(Column::new("baseline_um2").prefix("ULE way alone: "))
            .column(Column::new("proposal_um2").prefix(" -> "));
        ule.push_row(vec![
            Cell::float(self.ule_way_baseline_um2, 0),
            Cell::float(self.ule_way_proposal_um2, 0),
        ]);
        vec![l1, ule]
    }
}

impl ReliabilityResult {
    /// The result as report tables (yields + fault-injection counts).
    pub fn tables(&self) -> Vec<Table> {
        let mut yields = Table::new("yield")
            .column(Column::new("analytic_baseline").prefix("analytic yield: "))
            .column(Column::new("analytic_proposal").prefix(" (baseline) / "))
            .column(Column::new("dies").prefix(" (proposal); MC over "))
            .column(Column::new("mc_proposal").prefix(" dies: "));
        yields.push_row(vec![
            Cell::float(self.analytic_baseline, 6),
            Cell::float(self.analytic_proposal, 6),
            Cell::int(self.dies),
            Cell::float(self.mc_proposal, 3),
        ]);
        let mut faults = Table::new("fault_injection")
            .column(Column::new("corrected").prefix("fault injection: corrected "))
            .column(Column::new("silent").prefix(", silent "))
            .column(Column::new("strawman_silent").prefix(" (must be 0), strawman silent "));
        faults.push_row(vec![
            Cell::int(self.proposal_corrected as i64),
            Cell::int(self.proposal_silent as i64),
            Cell::int(self.strawman_silent as i64),
        ]);
        vec![yields, faults]
    }
}

impl SoftErrorResult {
    /// The result as report tables (per-code counts + silent total).
    pub fn tables(&self) -> Vec<Table> {
        let mut secded = Table::new("secded")
            .column(Column::new("corrected").prefix("SECDED: corrected "))
            .column(Column::new("detected").prefix(", uncorrectable "));
        secded.push_row(vec![
            Cell::int(self.secded_corrected as i64),
            Cell::int(self.secded_detected as i64),
        ]);
        let mut dected = Table::new("dected")
            .column(Column::new("corrected").prefix("DECTED: corrected "))
            .column(Column::new("detected").prefix(", uncorrectable "));
        dected.push_row(vec![
            Cell::int(self.dected_corrected as i64),
            Cell::int(self.dected_detected as i64),
        ]);
        let mut silent = Table::new("silent")
            .row_suffix(" (must be 0)")
            .column(Column::new("silent").prefix("silent under either: "));
        silent.push_row(vec![Cell::int(self.silent as i64)]);
        vec![secded, dected, silent]
    }
}

fn ways_table(rows: &[WaySplitRow]) -> Table {
    let mut t = Table::new("splits")
        .column(Column::new("hp_ways"))
        .column(Column::new("ule_ways").prefix("+"))
        .column(Column::new("hp_saving").prefix(": HP "))
        .column(Column::new("ule_saving").prefix(", ULE "));
    for r in rows {
        t.push_row(vec![
            Cell::int(r.hp_ways as i64),
            Cell::int(r.ule_ways as i64),
            Cell::percent(r.hp_saving),
            Cell::percent(r.ule_saving),
        ]);
    }
    t
}

fn memlat_table(rows: &[MemLatRow]) -> Table {
    let mut t = Table::new("latency")
        .column(Column::new("latency").right(3))
        .column(Column::new("hp_saving").prefix(" cycles: HP "));
    for r in rows {
        t.push_row(vec![Cell::int(r.latency), Cell::percent(r.hp_saving)]);
    }
    t
}

fn l2_tables(rows: &[L2Row]) -> Vec<Table> {
    let mut points = Table::new("points")
        .column(Column::new("size_kb").right(4))
        .column(Column::new("hit_latency").right(2).prefix(" KB (hit "))
        .column(Column::new("cpi").prefix(" cyc): CPI "))
        .column(Column::new("epi_pj").prefix(", EPI "))
        .column(Column::new("l2_hit_ratio").prefix(" pJ, L2 hits "));
    for r in rows {
        points.push_row(vec![
            Cell::int(r.size_kb),
            Cell::int(r.hit_latency),
            Cell::float(r.cpi, 3),
            Cell::float(r.epi_pj, 2),
            Cell::percent(r.l2_hit_ratio),
        ]);
    }
    let mut stalls = Table::new("stalls")
        .column(Column::new("size_kb").right(4))
        .column(Column::new("il1_stall_cycles").right(8).prefix(" KB: IL1 "))
        .column(Column::new("dl1_stall_cycles").right(8).prefix(", DL1 "))
        .column(
            Column::new("memory_accesses")
                .right(6)
                .prefix(" stall cycles, memory accesses "),
        );
    for r in rows {
        stalls.push_row(vec![
            Cell::int(r.size_kb),
            Cell::int(r.il1_stall_cycles),
            Cell::int(r.dl1_stall_cycles),
            Cell::int(r.memory_accesses),
        ]);
    }
    vec![points, stalls]
}

fn cores_tables(rows: &[CoresRow]) -> Vec<Table> {
    let mut scaling = Table::new("scaling")
        .row_suffix(" per 1k instr")
        .column(Column::new("cores").right(1))
        .column(Column::new("epi_pj").prefix(" cores: EPI "))
        .column(Column::new("l2_hit_ratio").prefix(" pJ, L2 hits "))
        .column(Column::new("memory_accesses").right(6).prefix(", memory "))
        .column(Column::new("memory_per_kilo_instructions").prefix(" ("))
        .column(Column::new("core0_memory_per_kilo").prefix(" per 1k), core-0 demand "));
    for r in rows {
        scaling.push_row(vec![
            Cell::int(r.cores as i64),
            Cell::float(r.epi_pj, 2),
            Cell::percent(r.l2_hit_ratio),
            Cell::int(r.memory_accesses),
            Cell::float(r.memory_per_kilo_instructions, 2),
            Cell::float(r.core0_memory_per_kilo, 2),
        ]);
    }
    let mut per_core = Table::new("per_core")
        .column(Column::new("cores").right(1))
        .column(Column::new("core").right(1).prefix("-core run, core "))
        .column(Column::new("benchmark").left(7).prefix(": "))
        .column(Column::new("ipc").prefix(" IPC "));
    // Per-core rows only up to 8 cores: the 16/32/64 design points are
    // summarized by the scaling table (their per-core listing would be
    // 112 rows of the same 6 programs repeating).
    for r in rows.iter().filter(|r| r.cores <= 8) {
        for (core, (benchmark, ipc)) in r.per_core_ipc.iter().enumerate() {
            per_core.push_row(vec![
                Cell::int(r.cores as i64),
                Cell::int(core as i64),
                Cell::str(benchmark.to_string()),
                Cell::float(*ipc, 3),
            ]);
        }
    }
    vec![scaling, per_core]
}

fn cores_mesi_table(rows: &[CoresTopologyRow]) -> Table {
    let mut t = Table::new("private_l2_mesi")
        .row_suffix(" per 1k instr")
        .column(Column::new("cores").right(1))
        .column(Column::new("epi_pj").prefix(" cores: EPI "))
        .column(Column::new("l2_hit_ratio").prefix(" pJ, L2 hits "))
        .column(Column::new("memory_per_kilo_instructions").prefix(", memory "))
        .column(Column::new("invalidations_per_kilo").prefix(", invalidations "))
        .column(Column::new("interventions_per_kilo").prefix(", interventions "));
    for r in rows {
        t.push_row(vec![
            Cell::int(r.cores as i64),
            Cell::float(r.epi_pj, 2),
            Cell::percent(r.l2_hit_ratio),
            Cell::float(r.memory_per_kilo_instructions, 2),
            Cell::float(r.invalidations_per_kilo, 2),
            Cell::float(r.interventions_per_kilo, 2),
        ]);
    }
    t
}

fn voltage_table(rows: &[VoltageRow]) -> Table {
    let mut t = Table::new("voltage")
        .column(Column::new("ule_vdd_mv"))
        .column(Column::new("sizing_10t").prefix(" mV: 10T x"))
        .column(Column::new("sizing_8t").prefix(", 8T x"))
        .column(Column::new("ule_saving").prefix(", ULE saving "));
    for r in rows {
        t.push_row(vec![
            Cell::float(r.ule_vdd * 1000.0, 0),
            Cell::float(r.sizing_10t, 2),
            Cell::float(r.sizing_8t, 2),
            Cell::percent(r.ule_saving),
        ]);
    }
    t
}

fn granularity_table(rows: &[GranularityRow]) -> Table {
    let mut t = Table::new("granularity")
        .column(Column::new("word_bits").right(2))
        .column(Column::new("storage_overhead").prefix("-bit words: overhead "))
        .column(Column::new("sizing_8t").prefix(", 8T x"))
        .column(Column::new("relative_bits").prefix(", bits x"));
    for r in rows {
        t.push_row(vec![
            Cell::int(r.word_bits),
            Cell::percent(r.storage_overhead),
            Cell::float(r.sizing_8t, 2),
            Cell::float(r.relative_bits, 3),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// A8: workload-zoo ablation (the streaming trace layer end to end)
// ---------------------------------------------------------------------

/// One workload of the zoo ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadZooRow {
    /// Short workload name (`zipf`, `ptrchase`, ...).
    pub workload: &'static str,
    /// Cycles per instruction.
    pub cpi: f64,
    /// Energy per instruction, pJ.
    pub epi_pj: f64,
    /// DL1 hit ratio.
    pub dl1_hit_ratio: f64,
    /// L2 hit ratio.
    pub l2_hit_ratio: f64,
    /// Memory accesses per 1000 executed instructions.
    pub memory_per_kilo: f64,
}

/// Runs every [`Workload`](hyvec_mediabench::zoo::Workload) of the zoo
/// on the proposal machine (hybrid L1, 16KB L2, slow memory) at HP
/// mode. Each trace is routed through the binary encoding — generator
/// → [`hyvec_mediabench::TraceWriter`] →
/// [`hyvec_mediabench::BinaryReplay`] → `System::run` — so every
/// `run-all` exercises the streaming trace layer end to end, not just
/// its unit tests.
pub fn ablation_workloads(
    scenario: Scenario,
    params: ExperimentParams,
    options: SimOptions,
) -> Vec<WorkloadZooRow> {
    use hyvec_mediabench::binfmt::{encode_entries, BinaryReplay, DEFAULT_CHUNK_ENTRIES};
    use hyvec_mediabench::zoo::Workload;

    let proposal = slow_memory_proposal(scenario, options);

    Workload::ALL
        .iter()
        .map(|&w| {
            let mut system = proposal
                .clone()
                .l2(L2Config::unified(16))
                .build()
                // hyvec-lint: allow(no-panic, "builder inputs are the validated paper geometry plus L2Config::unified presets; exercised by every run-all")
                .expect("valid hierarchy");

            let (bytes, _) = encode_entries(
                w.trace(params.instructions, params.seed),
                DEFAULT_CHUNK_ENTRIES,
            );
            let mut reader = BinaryReplay::from_bytes(bytes)
                // hyvec-lint: allow(no-panic, "the header was just written by TraceWriter; exercised by every run-all")
                .expect("freshly encoded trace has a valid header");
            let r = system.run(&mut reader, Mode::Hp);
            // hyvec-lint: allow(no-panic, "an in-memory trace just produced by the encoder cannot be truncated; exercised by every run-all")
            assert!(reader.error().is_none(), "freshly encoded trace corrupt");

            let l2 = r.stats.l2.unwrap_or_default();
            WorkloadZooRow {
                workload: w.name(),
                cpi: r.stats.cycles as f64 / r.stats.instructions as f64,
                epi_pj: r.epi_pj(),
                dl1_hit_ratio: r.stats.dl1.hit_ratio(),
                l2_hit_ratio: if l2.accesses > 0 {
                    l2.hits as f64 / l2.accesses as f64
                } else {
                    0.0
                },
                memory_per_kilo: r.stats.memory_accesses as f64 * 1000.0
                    / r.stats.instructions as f64,
            }
        })
        .collect()
}

fn workloads_table(rows: &[WorkloadZooRow]) -> Table {
    let mut t = Table::new("workloads")
        .column(Column::new("workload").right(8))
        .column(Column::new("cpi").prefix(": CPI "))
        .column(Column::new("epi_pj").prefix(", EPI "))
        .column(Column::new("dl1_hit").prefix(" pJ, DL1 "))
        .column(Column::new("l2_hit").prefix(", L2 "))
        .column(Column::new("mem_per_ki").prefix(", mem/ki "));
    for r in rows {
        t.push_row(vec![
            Cell::str(r.workload),
            Cell::float(r.cpi, 3),
            Cell::float(r.epi_pj, 2),
            Cell::percent(r.dl1_hit_ratio),
            Cell::percent(r.l2_hit_ratio),
            Cell::float(r.memory_per_kilo, 2),
        ]);
    }
    t
}

/// One artifact of the standard evaluation matrix: a row of
/// [`ARTIFACTS`].
#[derive(Debug)]
pub struct Artifact {
    /// The artifact family: the part of each experiment id before the
    /// `/`, and the `hyvec` command that runs it, unless it is an
    /// `ablation-*` (`hyvec ablations` runs those).
    pub name: &'static str,
    /// The scenarios the artifact is evaluated for, one experiment
    /// (`"name/scenario"`) each, in report order.
    pub scenarios: &'static [Scenario],
    /// The one-line description of each of its experiments
    /// ([`Experiment::description`]).
    pub description: &'static str,
    /// Computes one scenario's tables ([`Experiment::run`]).
    pub run: fn(Scenario, ExperimentParams, SimOptions) -> Vec<Table>,
}

/// The standard evaluation matrix, one row per artifact in report
/// order: the paper's artifacts, then this reproduction's ablations.
/// [`Registry::standard`](crate::registry::Registry::standard)
/// registers an experiment for each artifact and scenario (26 in
/// all), and the `hyvec` CLI derives its experiment commands from the
/// names, so adding an artifact is adding a row.
pub static ARTIFACTS: &[Artifact] = &[
    Artifact {
        name: "methodology",
        scenarios: &Scenario::ALL,
        description: "Sec. III-C sizing/yield methodology table (iterative ULE-way design loop)",
        run: |s, _, _| methodology_tables(&default_design(s)),
    },
    Artifact {
        name: "fig3",
        scenarios: &Scenario::ALL,
        description: "Figure 3: HP-mode EPI breakdowns, baseline vs proposal (BigBench)",
        run: |s, p, o| fig3_hp_epi(s, p, o).tables(),
    },
    Artifact {
        name: "fig4",
        scenarios: &Scenario::ALL,
        description: "Figure 4: ULE-mode EPI breakdowns, baseline vs proposal (SmallBench)",
        run: |s, p, o| fig4_ule_epi(s, p, o).tables(),
    },
    Artifact {
        name: "performance",
        scenarios: &Scenario::ALL,
        description: "Sec. IV-B.2 ULE execution-time overhead vs the baseline",
        run: |s, p, o| performance_tables(&ule_performance(s, p, o)),
    },
    Artifact {
        name: "area",
        scenarios: &Scenario::ALL,
        description: "L1 area comparison across cell mixes and EDC check bits",
        run: |s, _, _| area_comparison(s).tables(),
    },
    Artifact {
        name: "reliability",
        scenarios: &Scenario::ALL,
        description: "Way yields plus seeded fault-injection outcomes over simulated dies",
        run: |s, p, o| reliability(s, RELIABILITY_DIES, p, o).tables(),
    },
    Artifact {
        name: "soft-errors",
        scenarios: &[Scenario::B],
        description: "Hard faults plus accelerated soft errors: DECTED vs SECDED (scenario B)",
        run: |_, p, o| soft_error_study(p, SOFT_ERROR_RATE, o).tables(),
    },
    Artifact {
        name: "ablation-ways",
        scenarios: &Scenario::ALL,
        description: "Ablation: 7+1 vs 6+2 way split between cell types",
        run: |s, p, o| vec![ways_table(&ablation_ways(s, p, o))],
    },
    Artifact {
        name: "ablation-memlat",
        scenarios: &Scenario::ALL,
        description: "Ablation: main-memory latency sensitivity of the EPI saving",
        run: |s, p, o| vec![memlat_table(&ablation_memory_latency(s, p, o))],
    },
    Artifact {
        name: "ablation-voltage",
        scenarios: &Scenario::ALL,
        description: "Ablation: ULE supply-voltage sweep of energy and reliability",
        run: |s, p, o| vec![voltage_table(&ablation_voltage(s, p, o))],
    },
    Artifact {
        name: "ablation-l2",
        scenarios: &Scenario::ALL,
        description:
            "Ablation: none/16/64/256KB L2 sizes behind the hybrid L1 (EPI, stalls, traffic)",
        run: |s, p, o| l2_tables(&ablation_l2(s, p, o)),
    },
    Artifact {
        name: "ablation-cores",
        scenarios: &Scenario::ALL,
        description:
            "Ablation: 1-64 cores over a shared L2 plus private MESI L2s (EPI, IPC, coherence traffic)",
        run: |s, p, o| {
            let mut tables = cores_tables(&ablation_cores(s, p, o));
            tables.push(cores_mesi_table(&ablation_cores_mesi(s, p, o)));
            tables
        },
    },
    Artifact {
        name: "ablation-workloads",
        scenarios: &Scenario::ALL,
        description: "Ablation: workload zoo (zipf/ptrchase/stencil/webburst) replayed via the binary trace stream",
        run: |s, p, o| vec![workloads_table(&ablation_workloads(s, p, o))],
    },
    Artifact {
        name: "ablation-granularity",
        scenarios: &[Scenario::A],
        description: "Ablation: EDC protection granularity (word width vs storage overhead)",
        run: |_, _, _| vec![granularity_table(&ablation_granularity())],
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methodology::l1_8kb_geometry;

    fn quick() -> ExperimentParams {
        ExperimentParams {
            instructions: 20_000,
            seed: 7,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_name_keyed() {
        // The canonical encoding is `name=value` in fixed lexical
        // order, so the fingerprint survives struct-field reorderings
        // (field *names*, not positions, are what is hashed).
        let p = ExperimentParams {
            seed: 1,
            instructions: 100_000,
        };
        assert_eq!(p.canonical_encoding(), "instructions=100000;seed=1");
        assert_eq!(
            p.fingerprint(),
            crate::seed::fnv1a("instructions=100000;seed=1")
        );
        // Pinned across runs and releases: changing the encoding
        // silently invalidates every content-addressed cache entry
        // keyed on it, so a change must be a deliberate act that
        // fails this test.
        assert_eq!(ExperimentParams::default().fingerprint(), p.fingerprint());
        assert_eq!(p.fingerprint(), 0x5A7E_E7A9_E60F_4C48);
    }

    #[test]
    fn fingerprint_covers_every_field() {
        let p = ExperimentParams::default();
        assert_ne!(p.fingerprint(), p.with_seed(2).fingerprint());
        let more = ExperimentParams {
            instructions: p.instructions + 1,
            ..p
        };
        assert_ne!(p.fingerprint(), more.fingerprint());
    }

    /// Single-core L1 passes [`price_points`] makes for `archs` running
    /// `benchmarks` at `mode`: one per benchmark per distinct machine.
    fn passes(archs: &[Architecture], mode: Mode, benchmarks: &[Benchmark]) -> usize {
        let machines = shared_machines(archs.iter().map(|a| &a.config), mode);
        let distinct = machines.iter().enumerate().filter(|&(p, &m)| p == m);
        distinct.count() * benchmarks.len()
    }

    #[test]
    fn fault_free_experiments_simulate_each_behaviour_once() {
        // Work counts per scenario, at any instruction budget; the
        // comments give the passes of one machine per design point.
        for s in Scenario::ALL {
            let pinned = pinned_pair(s);
            // fig3 (12): baseline and proposal alike at HP.
            assert_eq!(passes(&pinned, Mode::Hp, &Benchmark::BIG), 6, "{s}");
            // fig4 and performance (8 each): the ULE ways' codes only
            // price the counts, so baseline and proposal are alike.
            assert_eq!(passes(&pinned, Mode::Ule, &Benchmark::SMALL), 4, "{s}");
            // ablation-ways (40): one HP machine for both splits, and
            // one ULE machine per split.
            let ways = way_split_points(s);
            assert_eq!(ways.len(), 4);
            assert_eq!(passes(&ways, Mode::Hp, &Benchmark::BIG), 6, "{s}");
            assert_eq!(passes(&ways, Mode::Ule, &Benchmark::SMALL), 8, "{s}");
            // ablation-voltage (32): one machine for every supply.
            let voltage: Vec<Architecture> = voltage_points(s)
                .into_iter()
                .flat_map(|(_, _, archs)| archs)
                .collect();
            assert_eq!(voltage.len(), 8, "{s}: every supply sizes");
            assert_eq!(passes(&voltage, Mode::Ule, &Benchmark::SMALL), 4, "{s}");
            // ablation-memlat (48): one HP machine over one flat memory
            // for all four latencies.
            let memlat = memlat_points(s);
            assert_eq!(memlat.len(), 8);
            assert_eq!(passes(&memlat, Mode::Hp, &Benchmark::BIG), 6, "{s}");
        }
    }

    #[test]
    fn way_splits_size_over_the_built_dl1_words() {
        // The methodology sizes each split's cells over the words of
        // one way of the DL1 the split builds.
        let model = FailureModel::default();
        for s in Scenario::ALL {
            let splits = WAY_SPLITS.iter().flat_map(|&split| [split; 2]);
            for (arch, (hp, ule)) in way_split_points(s).iter().zip(splits) {
                let dl1 = &arch.config.dl1;
                assert_eq!(dl1.ways.len(), hp + ule, "{s}");
                let inputs = MethodologyInputs::default().over_way_of(&l1_8kb_geometry(hp + ule));
                assert_eq!(
                    inputs.data_words,
                    dl1.data_words_per_way(),
                    "{s} {hp}+{ule}"
                );
                assert_eq!(inputs.tag_words, dl1.tag_words_per_way(), "{s} {hp}+{ule}");
                let design = design_ule_way(s, &model, &inputs).expect("sizes");
                assert_eq!(arch.design, design, "{s} {hp}+{ule}");
            }
        }
    }

    #[test]
    fn shared_machines_report_what_each_point_runs_alone() {
        // The voltage sweep: two machines for eight design points, each
        // priced at its own supply and frequency.
        let params = ExperimentParams {
            instructions: 3_000,
            seed: 3,
        };
        let options = SimOptions::default();
        let sweep = voltage_points(Scenario::B);
        let points: Vec<Point> = sweep
            .iter()
            .flat_map(|(_, op, archs)| points_at(archs, *op))
            .collect();
        let runs = price_points(
            &points,
            &Benchmark::SMALL,
            Mode::Ule,
            params,
            options,
            own_memory,
        );
        for ((config, op), [runs]) in points.iter().zip(&runs) {
            let mut alone = machine(config, options);
            for (b, report) in Benchmark::SMALL.iter().zip(runs) {
                let trace = b.trace(params.instructions, params.seed);
                let run = alone.run(trace, Mode::Ule).priced_by(alone.power(), *op);
                assert_eq!(*report, run, "{b}");
            }
        }
    }

    #[test]
    fn fig3_proposal_saves_energy_at_hp() {
        for s in Scenario::ALL {
            let r = fig3_hp_epi(s, quick(), SimOptions::default());
            assert!(
                r.saving > 0.05 && r.saving < 0.30,
                "scenario {s}: HP saving {} out of band",
                r.saving
            );
            // Normalized baseline sums to 1.
            assert!((r.baseline.total_pj() - 1.0).abs() < 1e-9);
            assert!((r.proposal.total_pj() - (1.0 - r.saving)).abs() < 1e-6);
            // Benchmarks differ only mildly from the average.
            for (b, ratio) in &r.per_benchmark {
                assert!(
                    (ratio - (1.0 - r.saving)).abs() < 0.08,
                    "{s}/{b}: per-benchmark ratio {ratio} far from avg"
                );
            }
        }
    }

    #[test]
    fn fig4_proposal_saves_big_at_ule() {
        for s in Scenario::ALL {
            let r = fig4_ule_epi(s, quick(), SimOptions::default());
            assert!(
                r.avg_saving > 0.25 && r.avg_saving < 0.60,
                "scenario {s}: ULE saving {} out of band",
                r.avg_saving
            );
            assert_eq!(r.rows.len(), 4);
            for row in &r.rows {
                assert!((row.baseline.total_pj() - 1.0).abs() < 1e-9);
                assert!(row.saving > 0.15, "{s}/{}: {}", row.benchmark, row.saving);
            }
        }
    }

    #[test]
    fn scenario_a_saves_more_than_b_at_hp() {
        // Paper: 14% (A) vs 12% (B) — B's DECTED check bits dilute the
        // benefit.
        let a = fig3_hp_epi(Scenario::A, quick(), SimOptions::default());
        let b = fig3_hp_epi(Scenario::B, quick(), SimOptions::default());
        assert!(
            a.saving > b.saving,
            "A {} should beat B {}",
            a.saving,
            b.saving
        );
    }

    #[test]
    fn performance_overhead_is_small() {
        for s in Scenario::ALL {
            for row in ule_performance(s, quick(), SimOptions::default()) {
                assert!(
                    row.overhead >= 0.0 && row.overhead < 0.08,
                    "{s}/{}: overhead {}",
                    row.benchmark,
                    row.overhead
                );
            }
        }
    }

    #[test]
    fn area_improves() {
        for s in Scenario::ALL {
            let r = area_comparison(s);
            assert!(r.saving > 0.0, "{s}: no area saving: {:?}", r);
            assert!(r.ule_way_proposal_um2 < r.ule_way_baseline_um2, "{s}");
        }
    }

    #[test]
    fn reliability_proposal_never_corrupts_silently() {
        let r = reliability(Scenario::A, 50, quick(), SimOptions::default());
        assert_eq!(r.proposal_silent, 0, "EDC must prevent silent corruption");
        assert!(
            r.strawman_silent > 0,
            "no-EDC strawman must corrupt: the faults are real"
        );
        assert!(
            r.proposal_corrected > 0,
            "faults should trigger corrections"
        );
        assert!(r.mc_proposal >= r.analytic_baseline - 0.15);
    }

    #[test]
    fn soft_error_study_shows_dected_advantage() {
        let r = soft_error_study(
            ExperimentParams {
                instructions: 40_000,
                seed: 5,
            },
            3e-8,
            SimOptions::default(),
        );
        assert_eq!(r.silent, 0, "both codes must never corrupt silently");
        assert!(
            r.secded_detected > r.dected_detected,
            "SECDED must lose correction on hard+soft words: {r:?}"
        );
        assert!(r.dected_corrected > 0);
    }

    #[test]
    fn voltage_sweep_preserves_the_win() {
        let rows = ablation_voltage(Scenario::A, quick(), SimOptions::default());
        assert!(rows.len() >= 3, "most voltages must be feasible");
        for r in &rows {
            assert!(
                r.ule_saving > 0.10,
                "saving collapsed at {} V: {}",
                r.ule_vdd,
                r.ule_saving
            );
            assert!(r.sizing_8t < r.sizing_10t, "8T must stay smaller");
        }
        // Lower voltage -> bigger cells (both families).
        assert!(rows.first().unwrap().sizing_10t > rows.last().unwrap().sizing_10t);
    }

    #[test]
    fn l2_ablation_exercises_the_hierarchy() {
        let rows = ablation_l2(Scenario::A, quick(), SimOptions::default());
        assert_eq!(rows.len(), 4);
        let flat = rows[0];
        assert_eq!(flat.size_kb, 0);
        assert_eq!(flat.l2_hit_ratio, 0.0, "no L2 -> no L2 hits");
        assert!(flat.memory_accesses > 0);
        // The 16KB point has the lowest lookup latency: the clearest
        // win over the flat platform (at the short test instruction
        // budget, compulsory misses still dominate the miss stream,
        // so the hit ratio is modest but the latency hiding is real).
        let l2 = rows[1];
        assert!(
            l2.l2_hit_ratio > 0.05,
            "the L2 must absorb part of the miss stream: {}",
            l2.l2_hit_ratio
        );
        assert!(l2.cpi < flat.cpi, "the L2 must hide memory latency");
        assert!(
            l2.il1_stall_cycles + l2.dl1_stall_cycles
                < flat.il1_stall_cycles + flat.dl1_stall_cycles,
            "stall breakdown must shrink with the L2"
        );
        assert!(
            l2.memory_accesses < flat.memory_accesses,
            "the L2 must filter memory traffic"
        );
        // Capacity monotonicity: more L2 never hits less.
        for pair in rows[1..].windows(2) {
            assert!(pair[1].l2_hit_ratio >= pair[0].l2_hit_ratio);
        }
    }

    #[test]
    fn cores_ablation_exposes_contention() {
        let rows = ablation_cores(Scenario::A, quick(), SimOptions::default());
        assert_eq!(rows.len(), ABLATION_CORES_COUNTS.len());
        assert_eq!(
            rows.iter().map(|r| r.cores).collect::<Vec<_>>(),
            ABLATION_CORES_COUNTS
        );
        for r in &rows {
            assert_eq!(r.per_core_ipc.len(), r.cores);
            for (b, ipc) in &r.per_core_ipc {
                assert!(
                    *ipc > 0.0 && *ipc <= 1.0,
                    "{}-core {b}: IPC {ipc} out of range",
                    r.cores
                );
            }
            assert!(r.epi_pj > 0.0);
            assert!(r.memory_accesses > 0);
        }
        // Contention: core 0 runs the identical stream at every core
        // count, so its demand traffic rises (and the shared L2's hit
        // ratio falls) purely because the other cores evict its lines.
        let one = &rows[0];
        let eight = &rows[3];
        assert!(
            eight.core0_memory_per_kilo > one.core0_memory_per_kilo,
            "contention must raise core 0's demand memory traffic: {} vs {}",
            eight.core0_memory_per_kilo,
            one.core0_memory_per_kilo
        );
        assert!(
            eight.l2_hit_ratio < one.l2_hit_ratio,
            "contention must depress the shared-L2 hit ratio: {} vs {}",
            eight.l2_hit_ratio,
            one.l2_hit_ratio
        );
        // And core 0 (same program, same stream) can only slow down
        // when seven other programs contend for its L2 lines.
        assert!(eight.per_core_ipc[0].1 <= one.per_core_ipc[0].1);
    }

    #[test]
    fn cores_mesi_ablation_counts_coherence_traffic() {
        let rows = ablation_cores_mesi(Scenario::A, quick(), SimOptions::default());
        assert_eq!(
            rows.iter().map(|r| r.cores).collect::<Vec<_>>(),
            ABLATION_CORES_MESI_COUNTS
        );
        for r in &rows {
            assert!(r.epi_pj > 0.0);
            assert!(r.l2_hit_ratio > 0.0);
            // Same program over the same address space on every core:
            // writes must upgrade against peer copies and misses must
            // be supplied cache-to-cache.
            assert!(
                r.invalidations_per_kilo > 0.0,
                "{}-core MESI run recorded no invalidations",
                r.cores
            );
            assert!(
                r.interventions_per_kilo > 0.0,
                "{}-core MESI run recorded no interventions",
                r.cores
            );
        }
    }

    #[test]
    fn granularity_tradeoff_shape() {
        let rows = ablation_granularity();
        assert_eq!(rows.len(), 3);
        // Overhead decreases with word size.
        assert!(rows[0].storage_overhead > rows[1].storage_overhead);
        assert!(rows[1].storage_overhead > rows[2].storage_overhead);
        // Finer granularity tolerates more faults, so sizing can only
        // shrink (or stay) as words get smaller.
        assert!(rows[0].sizing_8t <= rows[2].sizing_8t);
    }
}
