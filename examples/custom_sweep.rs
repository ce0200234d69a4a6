//! Custom sweeps through the typed results API: register your own
//! experiment next to the paper's, filter the matrix with the
//! builder, and consume one schema for everything.
//!
//! This is the downstream-adopter view of the `Experiment` trait:
//! instead of parsing per-artifact text, you get a `Report` document
//! (sections → tables → typed cells) that renders to aligned text,
//! JSON, or CSV from the same data.
//!
//! ```text
//! cargo run --example custom_sweep --release
//! ```

use hyvec_cachesim::{Mode, SimOptions, System};
use hyvec_core::experiments::{Experiment, ExperimentParams};
use hyvec_core::registry::Registry;
use hyvec_core::render::{render, Format};
use hyvec_core::report::{Cell, Column, Table};
use hyvec_core::{Architecture, DesignPoint, Scenario};
use hyvec_mediabench::Benchmark;

/// A workload the paper never ran: mpeg2 decode at ULE mode, reported
/// as cache hit ratios. Registering it puts it in the same sweep,
/// seed-derivation and rendering pipeline as the paper's artifacts:
/// `run` receives the job's derived seed as `params.seed` and returns
/// its tables, which the sweep files under a section labelled with
/// the id and that seed.
struct UleHitRatios;

impl Experiment for UleHitRatios {
    fn id(&self) -> &str {
        "ule-hit-ratios/A"
    }

    fn run(&self, params: ExperimentParams, options: SimOptions) -> Vec<Table> {
        let arch = Architecture::build(Scenario::A, DesignPoint::Proposal).expect("arch");
        // Building through the sweep's options lets `--force-slow-path`
        // and `--sim-threads` reach this machine like any other.
        let mut sys = System::builder()
            .config(arch.config)
            .options(options)
            .build()
            .expect("valid config");
        let run = sys.run(
            Benchmark::Mpeg2D.trace(params.instructions, params.seed),
            Mode::Ule,
        );
        let mut table = Table::new("hit_ratios")
            .with_header()
            .column(Column::new("cache").left(6))
            .column(Column::new("hit_ratio").header("hits").right(8).prefix(" "))
            .column(
                Column::new("accesses")
                    .header("accesses")
                    .right(10)
                    .prefix(" "),
            );
        for (name, stats) in [("il1", run.stats.il1), ("dl1", run.stats.dl1)] {
            table.push_row(vec![
                Cell::str(name),
                Cell::percent(stats.hit_ratio()),
                Cell::int(stats.accesses as i64),
            ]);
        }
        vec![table]
    }
}

fn main() {
    let params = ExperimentParams {
        instructions: 20_000,
        seed: 42,
    };

    // The paper's registry plus one custom experiment.
    let mut registry = Registry::standard();
    registry.register(Box::new(UleHitRatios));
    println!(
        "registry holds {} experiments; last id: {}",
        registry.len(),
        registry.ids().last().unwrap()
    );

    // Filter the matrix: scenario A energy artifacts + the custom one.
    let outcome = hyvec_core::SweepBuilder::new()
        .params(params)
        .scenarios([Scenario::A])
        .filter("fig*/A")
        .filter("ule-hit-ratios/*")
        .jobs(2)
        .run_with(&registry);

    println!("\n--- text ---\n{}", render(&outcome.report, Format::Text));
    println!("--- json (first lines) ---");
    for line in render(&outcome.report, Format::Json).lines().take(12) {
        println!("{line}");
    }
    println!("\n--- per-job wall time ---");
    for t in &outcome.timings {
        println!("{:<20} {:>9.3} ms", t.label, t.wall_ms());
    }
}
