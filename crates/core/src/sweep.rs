//! Parallel batch experiment runner: the whole evaluation in one call.
//!
//! The paper's evaluation is a matrix — artifact (figure, table,
//! ablation) × scenario — that the seed regenerated one binary at a
//! time. This module enumerates that matrix from the experiment
//! [`Registry`] (every cell is an [`Experiment`] implementation),
//! selects a subset with [`SweepBuilder`], and fans the selected jobs
//! across worker threads with [`par_map`], a dependency-free
//! scoped-thread work queue (the build environment has no registry
//! access, so no rayon). The result is a typed [`Report`] that the
//! [`crate::render`] backends turn into text, JSON, or CSV.
//!
//! # Determinism
//!
//! Each job owns a private RNG seed derived from the sweep's base seed
//! and the job's stable id via [`crate::seed::derive_seed`]; the job
//! runs with it as `params.seed`, and the sweep files the tables it
//! returns under a [`Section`] labelled with that id and seed. Seeds
//! therefore do not depend on worker count, scheduling order, or the
//! position of a job in the matrix — two sweeps with the same base
//! seed produce byte-identical reports in every output format, and a
//! parallel sweep matches a serial one exactly. This invariant is
//! enforced by the workspace's `tests/determinism.rs`. Wall-clock
//! timings are deliberately kept *outside* the report (in
//! [`SweepOutcome::timings`]) so a caller can measure a sweep without
//! breaking that contract; the benchmark package under the
//! repository's `benches/` reads them for its per-job figures. The
//! same contract is what lets the simulator's fault-free fast path
//! (see `hyvec_cachesim::cache::HybridCache`) speed these jobs up
//! without changing a byte of their sections.
//!
//! # Example
//!
//! ```
//! use hyvec_core::experiments::ExperimentParams;
//! use hyvec_core::sweep::SweepBuilder;
//!
//! let params = ExperimentParams { instructions: 2_000, seed: 1 };
//! let outcome = SweepBuilder::new()
//!     .params(params)
//!     .artifacts(["fig3"])
//!     .jobs(2)
//!     .run();
//! assert_eq!(outcome.report.sections.len(), 2); // fig3/A, fig3/B
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

use crate::architecture::Scenario;
use crate::experiments::{Experiment, ExperimentParams};
use crate::registry::Registry;
use crate::report::{Report, Section, SWEEP_TITLE};
use crate::seed::derive_seed;
use hyvec_cachesim::engine::SimOptions;

// ---------------------------------------------------------------------
// Job matrix
// ---------------------------------------------------------------------

/// A scheduled job: which experiment to run and the private seed it
/// runs with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepJob {
    /// Stable experiment id (also the seed-derivation key).
    pub label: String,
    /// Run parameters with the job's derived private seed.
    pub params: ExperimentParams,
}

/// Enumerates the full standard evaluation matrix in canonical report
/// order, with per-job derived seeds.
pub fn full_matrix(params: ExperimentParams) -> Vec<SweepJob> {
    matrix_for(&Registry::standard(), params)
}

/// Enumerates `registry`'s experiments as seeded jobs.
pub fn matrix_for(registry: &Registry, params: ExperimentParams) -> Vec<SweepJob> {
    registry
        .ids()
        .into_iter()
        .map(|id| SweepJob {
            label: id.to_string(),
            params: params.with_seed(derive_seed(params.seed, id)),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Parallel executor
// ---------------------------------------------------------------------

/// Applies `f` to every item on up to `jobs` scoped worker threads,
/// returning results in input order. A panicking worker propagates its
/// panic to the caller when the scope joins.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n.max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = f(&items[i]);
                // hyvec-lint: allow(no-panic, "a poisoned slot means a sibling worker already panicked; propagating the abort is the only sound option")
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                // hyvec-lint: allow(no-panic, "a poisoned slot means a worker already panicked; propagating the abort is the only sound option")
                .expect("result slot poisoned")
                // hyvec-lint: allow(no-panic, "the scoped threads are joined above, and the work loop fills every index < n exactly once")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Default worker count: one per available core.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

// ---------------------------------------------------------------------
// Sweep selection and execution
// ---------------------------------------------------------------------

/// Matches `text` against a shell-style glob pattern (`*` = any run of
/// characters, `?` = any single character; everything else literal).
pub fn glob_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('*') => rec(&p[1..], t) || (!t.is_empty() && rec(p, &t[1..])),
            Some('?') => !t.is_empty() && rec(&p[1..], &t[1..]),
            Some(&c) => t.first() == Some(&c) && rec(&p[1..], &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    rec(&p, &t)
}

/// Wall-clock timing of one executed job (kept outside the report so
/// rendered output stays a pure function of the seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobTiming {
    /// The job's experiment id.
    pub label: String,
    /// Wall time of the job, nanoseconds.
    pub wall_nanos: u128,
}

impl JobTiming {
    /// Wall time in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.wall_nanos as f64 / 1e6
    }
}

/// Everything a sweep run produces: the deterministic typed report
/// plus the (non-deterministic) wall-clock timings.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The merged report, sections in canonical order.
    pub report: Report,
    /// Per-job wall time, in the same order as the sections
    /// (canonical registry order, independent of which worker ran
    /// which job).
    pub timings: Vec<JobTiming>,
    /// Elapsed wall time of the whole sweep, nanoseconds: what the
    /// caller waited. Under parallel execution this is *less* than
    /// [`SweepOutcome::summed_job_wall_nanos`].
    pub elapsed_wall_nanos: u128,
}

impl SweepOutcome {
    /// Sum of the per-job wall times, nanoseconds: the total compute
    /// spent, as opposed to the elapsed time the sweep occupied.
    pub fn summed_job_wall_nanos(&self) -> u128 {
        self.timings.iter().map(|t| t.wall_nanos).sum()
    }
}

/// Selects and runs a subset of the evaluation matrix.
///
/// All filters intersect: an experiment runs if its artifact passes
/// [`SweepBuilder::artifacts`] (when set), its scenario passes
/// [`SweepBuilder::scenarios`] (when set), and its full id matches at
/// least one [`SweepBuilder::filter`] glob (when any are given).
/// Seeds are derived per experiment id, so a job's section is
/// byte-identical whether it runs in a full sweep or a filtered one.
#[derive(Debug, Clone)]
pub struct SweepBuilder {
    params: ExperimentParams,
    jobs: usize,
    artifacts: Option<Vec<String>>,
    scenarios: Option<Vec<Scenario>>,
    globs: Vec<String>,
    options: SimOptions,
}

impl Default for SweepBuilder {
    fn default() -> Self {
        SweepBuilder::new()
    }
}

impl SweepBuilder {
    /// A sweep of everything, with default parameters, on one worker
    /// per core.
    pub fn new() -> SweepBuilder {
        SweepBuilder {
            params: ExperimentParams::default(),
            jobs: default_jobs(),
            artifacts: None,
            scenarios: None,
            globs: Vec::new(),
            options: SimOptions::default(),
        }
    }

    /// Sets the run parameters (instruction budget + base seed).
    pub fn params(mut self, params: ExperimentParams) -> SweepBuilder {
        self.params = params;
        self
    }

    /// Sets the worker-thread count (values ≥ 1; the executor also
    /// never spawns more workers than jobs).
    pub fn jobs(mut self, jobs: usize) -> SweepBuilder {
        self.jobs = jobs.max(1);
        self
    }

    /// Restricts the sweep to the given artifact families (the part of
    /// the id before `/`, e.g. `"fig3"`, `"ablation-ways"`).
    pub fn artifacts<I, S>(mut self, artifacts: I) -> SweepBuilder
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.artifacts = Some(artifacts.into_iter().map(Into::into).collect());
        self
    }

    /// Restricts the sweep to the given scenarios (the part of the id
    /// after `/`).
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> SweepBuilder {
        self.scenarios = Some(scenarios.into_iter().collect());
        self
    }

    /// Adds a glob filter over full experiment ids (e.g.
    /// `"ablation-*"`, `"*/B"`). Multiple filters union.
    pub fn filter(mut self, glob: impl Into<String>) -> SweepBuilder {
        self.globs.push(glob.into());
        self
    }

    /// Routes every cache the sweep's experiments construct through
    /// the full EDC slow path, even while fault-free (the
    /// `--force-slow-path` diagnostic knob). Sets
    /// [`SimOptions::force_slow_path`], which [`Experiment::run`]
    /// passes to the builder of every machine. The report is
    /// byte-identical either way — the fast path is a pure
    /// optimization — so this exists to exercise and time the decode
    /// path on the standard matrix.
    pub fn force_slow_path(mut self, force: bool) -> SweepBuilder {
        self.options.force_slow_path = force;
        self
    }

    /// Sets how many threads run the L1 fronts of each multi-core
    /// simulation (the `--sim-threads` CLI knob; values ≥ 1, default 1
    /// = inline on the job's own thread). Orthogonal to
    /// [`SweepBuilder::jobs`], which parallelizes *across*
    /// experiments: `sim_threads` parallelizes the cores *within* one
    /// multi-core simulation. Sets [`SimOptions::sim_threads`], which
    /// [`Experiment::run`] passes to the builder of every machine. The
    /// report is byte-identical at every value — the epoch merge
    /// replays the canonical core order — so this only changes wall
    /// time.
    pub fn sim_threads(mut self, threads: usize) -> SweepBuilder {
        self.options.sim_threads = threads.max(1);
        self
    }

    /// Whether the experiment id passes every configured filter.
    pub fn selects(&self, id: &str) -> bool {
        let (artifact, scenario) = id.split_once('/').unwrap_or((id, ""));
        if let Some(artifacts) = &self.artifacts {
            if !artifacts.iter().any(|a| a == artifact) {
                return false;
            }
        }
        if let Some(scenarios) = &self.scenarios {
            if !scenarios.iter().any(|s| s.to_string() == scenario) {
                return false;
            }
        }
        if !self.globs.is_empty() && !self.globs.iter().any(|g| glob_match(g, id)) {
            return false;
        }
        true
    }

    /// Runs the selected subset of the standard registry.
    pub fn run(&self) -> SweepOutcome {
        self.run_with(&Registry::standard())
    }

    /// Runs the selected subset of `registry` on up to the configured
    /// number of worker threads and returns the merged report plus
    /// per-job timings. Every job gets this sweep's [`SimOptions`] as
    /// an argument, so concurrent sweeps never see each other's.
    pub fn run_with(&self, registry: &Registry) -> SweepOutcome {
        let sweep_start = Instant::now();
        let selected: Vec<(&dyn Experiment, u64)> = registry
            .iter()
            .filter(|e| self.selects(e.id()))
            .map(|e| (e, derive_seed(self.params.seed, e.id())))
            .collect();
        // `par_map` returns results in input order, so the job array
        // (like the report sections) is in canonical registry order no
        // matter how the workers interleaved.
        let results: Vec<(Section, JobTiming)> =
            par_map(&selected, self.jobs, |&(experiment, seed)| {
                let start = Instant::now();
                let mut section = Section::new(experiment.id(), seed);
                section.extend(experiment.run(self.params.with_seed(seed), self.options));
                let timing = JobTiming {
                    label: experiment.id().to_string(),
                    wall_nanos: start.elapsed().as_nanos(),
                };
                (section, timing)
            });
        let mut report = Report::new(SWEEP_TITLE, self.params.instructions, self.params.seed);
        let mut timings = Vec::with_capacity(results.len());
        for (section, timing) in results {
            report.sections.push(section);
            timings.push(timing);
        }
        SweepOutcome {
            report,
            timings,
            elapsed_wall_nanos: sweep_start.elapsed().as_nanos(),
        }
    }
}

/// Runs every job of the standard evaluation matrix on up to `jobs`
/// worker threads and returns the assembled report.
pub fn run_all(params: ExperimentParams, jobs: usize) -> Report {
    SweepBuilder::new().params(params).jobs(jobs).run().report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_artifact_for_every_scenario() {
        let jobs = full_matrix(ExperimentParams::default());
        assert_eq!(jobs.len(), 26);
        for s in Scenario::ALL {
            for prefix in [
                "methodology",
                "fig3",
                "fig4",
                "performance",
                "area",
                "reliability",
                "ablation-ways",
                "ablation-memlat",
                "ablation-voltage",
                "ablation-l2",
                "ablation-cores",
                "ablation-workloads",
            ] {
                let label = format!("{prefix}/{s}");
                assert!(
                    jobs.iter().any(|j| j.label == label),
                    "matrix is missing {label}"
                );
            }
        }
        assert!(jobs.iter().any(|j| j.label == "soft-errors/B"));
        assert!(jobs.iter().any(|j| j.label == "ablation-granularity/A"));
    }

    #[test]
    fn labels_are_unique_and_seeds_differ() {
        let jobs = full_matrix(ExperimentParams::default());
        let mut labels: Vec<_> = jobs.iter().map(|j| j.label.clone()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), jobs.len(), "duplicate job labels");
        let mut seeds: Vec<_> = jobs.iter().map(|j| j.params.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), jobs.len(), "derived seeds collide");
    }

    #[test]
    fn glob_matching_covers_the_cli_patterns() {
        assert!(glob_match("*", "fig3/A"));
        assert!(glob_match("fig3/*", "fig3/A"));
        assert!(glob_match("*/B", "fig3/B"));
        assert!(!glob_match("*/B", "fig3/A"));
        assert!(glob_match("ablation-*", "ablation-ways/A"));
        assert!(glob_match("fig?/A", "fig3/A"));
        assert!(!glob_match("fig?/A", "fig34/A"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn builder_filters_intersect() {
        let b = SweepBuilder::new()
            .artifacts(["fig3", "fig4"])
            .scenarios([Scenario::A]);
        assert!(b.selects("fig3/A"));
        assert!(!b.selects("fig3/B"));
        assert!(!b.selects("area/A"));
        let g = SweepBuilder::new().filter("ablation-*").filter("fig3/A");
        assert!(g.selects("fig3/A"));
        assert!(g.selects("ablation-voltage/B"));
        assert!(!g.selects("fig4/A"));
    }

    #[test]
    fn filtered_sections_match_the_full_sweep() {
        let params = ExperimentParams {
            instructions: 2_000,
            seed: 11,
        };
        let full = run_all(params, 2);
        let fig3 = SweepBuilder::new()
            .params(params)
            .jobs(1)
            .artifacts(["fig3"])
            .run();
        assert_eq!(fig3.report.sections.len(), 2);
        for section in &fig3.report.sections {
            let from_full = full
                .sections
                .iter()
                .find(|s| s.label == section.label)
                .expect("full sweep has the section");
            assert_eq!(from_full, section, "filtering changed {}", section.label);
        }
        assert_eq!(fig3.timings.len(), 2);
        assert_eq!(fig3.timings[0].label, fig3.report.sections[0].label);
    }

    #[test]
    fn timings_cover_every_job() {
        let outcome = SweepBuilder::new()
            .params(ExperimentParams {
                instructions: 1_000,
                seed: 3,
            })
            .artifacts(["area", "methodology"])
            .jobs(2)
            .run();
        let labels: Vec<_> = outcome.timings.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(
            labels,
            ["methodology/A", "methodology/B", "area/A", "area/B"]
        );
        // Both time axes are explicit: elapsed (what the caller
        // waited) and the per-job sum (total compute).
        assert!(outcome.elapsed_wall_nanos > 0);
        assert_eq!(
            outcome.summed_job_wall_nanos(),
            outcome.timings.iter().map(|t| t.wall_nanos).sum::<u128>()
        );
    }

    #[test]
    fn job_timings_are_in_canonical_order_under_any_worker_count() {
        let params = ExperimentParams {
            instructions: 1_000,
            seed: 5,
        };
        let labels = |jobs: usize| {
            SweepBuilder::new()
                .params(params)
                .artifacts(["methodology", "area", "fig3"])
                .jobs(jobs)
                .run()
                .timings
                .iter()
                .map(|t| t.label.clone())
                .collect::<Vec<_>>()
        };
        let serial = labels(1);
        for jobs in [2, 8] {
            assert_eq!(
                serial,
                labels(jobs),
                "worker count {jobs} reordered the job array"
            );
        }
        // And the order matches the report sections themselves.
        let outcome = SweepBuilder::new()
            .params(params)
            .artifacts(["methodology", "area", "fig3"])
            .jobs(4)
            .run();
        let sections: Vec<_> = outcome
            .report
            .sections
            .iter()
            .map(|s| s.label.clone())
            .collect();
        assert_eq!(serial, sections);
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..97).collect();
        let doubled = par_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        // Degenerate worker counts.
        assert_eq!(par_map(&items, 1, |&x| x + 1)[96], 97);
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(&empty, 4, |&x| x).is_empty());
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let counters: Vec<AtomicU32> = (0..50).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..50).collect();
        par_map(&items, 6, |&i| counters[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "item {i} ran a wrong number of times"
            );
        }
    }
}
