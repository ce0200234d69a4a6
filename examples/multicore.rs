//! Multi-core simulation through the composable API: four private
//! split-L1 front ends contending for one shared L2, driven by a
//! round-robin interleave of four MediaBench programs — then the same
//! machine rebuilt with private MESI-coherent L2s per core to show
//! the topology enum and its coherence counters.
//!
//! This is the downstream-adopter view of `build_multi`, the
//! `topology` builder knob, and the `hyvec_mediabench` interleave
//! module: each core runs its program in a private address window (as
//! a multi-programmed machine would), the cores' miss streams
//! interleave in the shared L2, and the contention shows up as a
//! depressed L2 hit ratio and extra memory traffic relative to the
//! same program running alone. The first run splits the L1 fronts
//! across two threads (`set_sim_threads`) — the report is
//! bit-identical to running them inline on one thread, demonstrated
//! here by asserting it against a one-thread re-run. The solo
//! reference comes from the same pass of the four L1 fronts
//! (`run_widths`): a second chain that takes only core 0's misses
//! prices the first program alone.
//!
//! ```text
//! cargo run --example multicore --release
//! ```

use hyvec_cachesim::config::{L2Config, MemoryConfig, Mesi, Mode, Topology};
use hyvec_cachesim::engine::System;
use hyvec_core::{Architecture, DesignPoint, Scenario};
use hyvec_mediabench::{multiprogram_sources, per_core_seed, Benchmark};

fn main() {
    let arch = Architecture::build(Scenario::A, DesignPoint::Proposal).expect("architecture");
    let programs = [
        Benchmark::Mpeg2C,
        Benchmark::Mpeg2D,
        Benchmark::GsmC,
        Benchmark::GsmD,
    ];
    let n = 100_000;

    let builder = || {
        System::builder()
            .config(arch.config.clone())
            .memory(MemoryConfig::with_latency(80))
            .l2(L2Config::unified(16))
    };

    // Four cores running four programs over one shared L2 — their L1
    // fronts on two threads, and asserted bit-identical to the same
    // run with the fronts inline on one thread.
    let mut machine = builder().build_multi(4).expect("4-core system");
    machine.set_sim_threads(2);
    let report = machine.run(multiprogram_sources(&programs, n, 1), Mode::Hp);
    machine.set_sim_threads(1);
    let inline = machine.run(multiprogram_sources(&programs, n, 1), Mode::Hp);
    assert_eq!(report, inline, "the thread count must not change a counter");

    // Reference: the first program alone on a single core, priced from
    // the same pass of the four L1 fronts by a chain of width 1 — equal
    // to a 1-core machine of its own.
    let [solo, all_four] = machine
        .run_widths(multiprogram_sources(&programs, n, 1), Mode::Hp, [1, 4])
        .expect("both widths fit the machine");
    assert_eq!(all_four, report, "the full-width chain is the 4-core run");
    let mut alone = builder().build_multi(1).expect("1-core system");
    let standalone = alone.run(multiprogram_sources(&programs[..1], n, 1), Mode::Hp);
    assert_eq!(solo, standalone, "a width-1 chain is a 1-core machine");

    println!("4 cores over one shared 16KB L2, 80-cycle memory, HP mode:");
    for (core, (program, run)) in programs.iter().zip(&report.per_core).enumerate() {
        println!(
            "  core {core}: {program:<7}  IPC {:.3}, demand memory fills {:>4}",
            run.stats.instructions as f64 / run.stats.cycles as f64,
            run.stats.memory_accesses,
        );
    }
    println!(
        "  machine: EPI {:.2} pJ, makespan {} cycles",
        report.epi_pj(),
        report.makespan_cycles()
    );
    println!(
        "  shared L2 hit ratio: {:.1}% alone -> {:.1}% contended",
        100.0 * solo.l2_hit_ratio(),
        100.0 * report.l2_hit_ratio()
    );
    println!(
        "  memory accesses per 1k instructions: {:.2} alone -> {:.2} contended",
        1000.0 * solo.memory.accesses as f64 / solo.instructions() as f64,
        1000.0 * report.memory.accesses as f64 / report.instructions() as f64
    );
    assert!(
        report.l2_hit_ratio() < solo.l2_hit_ratio(),
        "contention must depress the shared-L2 hit ratio"
    );

    // Topology swap: the same cores, but each owns a private
    // MESI-coherent 16KB L2 over the one memory. To give the protocol
    // something to do, every core now runs a decorrelated stream of
    // the SAME program over the SAME address space (no private
    // windows) — the closest a trace-driven model gets to a
    // multi-threaded program — so written lines migrate between the
    // private L2s.
    let mut mesi = builder()
        .topology(Topology::PrivateL2 {
            coherence: Some(Mesi::default()),
        })
        .build_multi(4)
        .expect("4-core private-L2 MESI system");
    let shared_heap: Vec<_> = (0..4)
        .map(|core| Benchmark::Mpeg2C.trace(n, per_core_seed(1, core)))
        .collect();
    let coherent = mesi.run(shared_heap, Mode::Hp);
    let l2 = coherent.l2.expect("aggregate private-L2 counters");
    println!("\n4 cores with private MESI-coherent 16KB L2s, same run length:");
    println!(
        "  aggregate L2: hit ratio {:.1}%, {} invalidations, {} interventions",
        100.0 * coherent.l2_hit_ratio(),
        l2.invalidations,
        l2.interventions
    );
    println!(
        "  per 1k instructions: {:.2} invalidations, {:.2} cache-to-cache supplies",
        1000.0 * l2.invalidations as f64 / coherent.instructions() as f64,
        1000.0 * l2.interventions as f64 / coherent.instructions() as f64
    );
    assert!(
        l2.invalidations > 0 && l2.interventions > 0,
        "a shared address space must generate coherence traffic"
    );
}
