//! Regression tests for the sweep engine's determinism contract:
//! reports are a pure function of (base seed, instruction count), and
//! worker count is not observable in the output.
//!
//! Each distinct sweep runs once per test binary and is shared by
//! every test that compares against it ([`full`], [`cores`]); only
//! the sweeps a test exists to vary (a fresh repeat, another seed,
//! the forced slow path) run inside the test.

use std::fmt::Debug;
use std::sync::OnceLock;

use hyvec_core::experiments::ExperimentParams;
use hyvec_core::report::Report;
use hyvec_core::seed::derive_seed;
use hyvec_core::sweep::{full_matrix, run_all, SweepBuilder};

fn quick() -> ExperimentParams {
    ExperimentParams {
        instructions: 2_000,
        seed: 0xD47E_2013,
    }
}

/// The report `slots[i]` caches for `keys[i]`, computed by `sweep` on
/// first use.
fn once<K: PartialEq + Debug>(
    slots: &'static [OnceLock<Report>],
    keys: &[K],
    key: K,
    sweep: impl FnOnce() -> Report,
) -> &'static Report {
    let i = keys
        .iter()
        .position(|k| *k == key)
        .unwrap_or_else(|| panic!("no cached sweep for {key:?}"));
    slots[i].get_or_init(sweep)
}

/// The full matrix at the base seed on `jobs` workers.
fn full(jobs: usize) -> &'static Report {
    static SLOTS: [OnceLock<Report>; 4] = [const { OnceLock::new() }; 4];
    once(&SLOTS, &[1, 2, 4, 8], jobs, || run_all(quick(), jobs))
}

/// The two ablation-cores sections (up to 64 cores, shared and
/// private-L2 MESI topologies) on `jobs` workers, each multi-core run
/// with its L1 fronts on `sim_threads` threads.
fn cores(jobs: usize, sim_threads: usize) -> &'static Report {
    static SLOTS: [OnceLock<Report>; 5] = [const { OnceLock::new() }; 5];
    let keys = [(1, 1), (2, 1), (4, 1), (2, 2), (2, 8)];
    once(&SLOTS, &keys, (jobs, sim_threads), || {
        SweepBuilder::new()
            .params(quick())
            .jobs(jobs)
            .sim_threads(sim_threads)
            .filter("ablation-cores/*")
            .run()
            .report
    })
}

#[test]
fn same_seed_gives_byte_identical_reports() {
    let first = full(1);
    let second = run_all(quick(), 1);
    assert_eq!(
        first.render(),
        second.render(),
        "two sweeps with the same base seed must render identically"
    );
}

#[test]
fn parallel_sweep_matches_serial_sweep() {
    let serial = full(1);
    for jobs in [2, 8] {
        let parallel = full(jobs);
        assert_eq!(
            serial.render(),
            parallel.render(),
            "worker count {jobs} changed the report"
        );
    }
}

#[test]
fn different_base_seeds_give_different_reports() {
    let a = full(4);
    let b = run_all(
        ExperimentParams {
            seed: quick().seed + 1,
            ..quick()
        },
        4,
    );
    assert_ne!(
        a.render(),
        b.render(),
        "the base seed must actually reach the experiments"
    );
}

#[test]
fn report_sections_follow_canonical_matrix_order() {
    let report = full(4);
    let labels: Vec<_> = report.sections.iter().map(|s| s.label.clone()).collect();
    let expected: Vec<_> = full_matrix(quick()).into_iter().map(|j| j.label).collect();
    assert_eq!(labels, expected, "sections must keep matrix order");
}

#[test]
fn section_seeds_use_the_shared_derivation() {
    // The report records each job's private seed; it must come from
    // the shared hyvec_core::seed derivation of (base seed, label) —
    // not from some scheduler-dependent source.
    let report = full(2);
    for section in &report.sections {
        assert_eq!(
            section.seed,
            derive_seed(quick().seed, &section.label),
            "section {} carries a foreign seed",
            section.label
        );
    }
}

#[test]
fn multi_core_interleaved_runs_are_jobs_invariant() {
    // The ablation-cores sections simulate up to 8 round-robin
    // interleaved cores over one shared L2; their output must be
    // bit-reproducible whether the sweep runs serially or fanned
    // across workers.
    use hyvec_core::render::{render, Format};
    let serial = cores(1, 1);
    assert_eq!(serial.sections.len(), 2, "ablation-cores/A and /B");
    for jobs in [2, 4] {
        let parallel = cores(jobs, 1);
        for format in [Format::Text, Format::Json, Format::Csv] {
            assert_eq!(
                render(serial, format),
                render(parallel, format),
                "worker count {jobs} changed the multi-core {format} output"
            );
        }
    }
}

#[test]
fn sim_threads_are_invariant_across_all_render_formats() {
    // How many threads run the L1 fronts must be invisible in the
    // output: the ablation-cores sections (up to 64 cores, shared and
    // private-L2 MESI topologies) rendered in every format must come
    // out byte-identical with the fronts inline on one thread and
    // split across 2 or 8.
    use hyvec_core::render::{render, Format};
    let inline = cores(2, 1);
    for sim_threads in [2, 8] {
        let threaded = cores(2, sim_threads);
        for format in [Format::Text, Format::Json, Format::Csv] {
            assert_eq!(
                render(inline, format),
                render(threaded, format),
                "--sim-threads {sim_threads} changed the {format} output"
            );
        }
    }
}

#[test]
fn multi_core_engine_is_bit_reproducible() {
    // Below the sweep layer: two identical 4-core interleaved runs
    // must produce identical per-core and chain statistics.
    use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode, SystemConfig};
    use hyvec_cachesim::engine::System;
    use hyvec_mediabench::{multiprogram_sources, Benchmark};
    let build = || {
        System::builder()
            .config(SystemConfig::uniform_6t())
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(16))
            .build_multi(4)
            .expect("4-core system")
    };
    let benches = [
        Benchmark::Mpeg2C,
        Benchmark::Mpeg2D,
        Benchmark::GsmC,
        Benchmark::GsmD,
    ];
    let run = || build().run(multiprogram_sources(&benches, 10_000, 42), Mode::Hp);
    assert_eq!(run(), run(), "4-core interleaved run must be reproducible");
}

#[test]
fn forced_slow_path_matches_fast_path_counters() {
    // `hyvec run-all --force-slow-path` routes every access through
    // the full EDC decode path; the fast path is a pure optimization,
    // so every rendered format must come out byte-identical.
    use hyvec_core::render::{render, Format};
    let fast = full(2);
    let slow = SweepBuilder::new()
        .params(quick())
        .jobs(2)
        .force_slow_path(true)
        .run()
        .report;
    for format in [Format::Text, Format::Json, Format::Csv] {
        assert_eq!(
            render(fast, format),
            render(&slow, format),
            "--force-slow-path changed the {format} output"
        );
    }
}

#[test]
fn structured_formats_are_jobs_invariant_too() {
    // The determinism contract extends beyond the text renderer: the
    // JSON and CSV outputs must also be independent of worker count.
    use hyvec_core::render::{render, Format};
    let serial = full(1);
    let parallel = full(4);
    for format in [Format::Json, Format::Csv] {
        assert_eq!(
            render(serial, format),
            render(parallel, format),
            "worker count changed the {format} output"
        );
    }
}
