//! `hyvec` — unified command-line front-end for every experiment.
//!
//! ```text
//! hyvec <command> [--instructions N] [--seed S] [--jobs J]
//!                 [--sim-threads T] [--format text|json|csv]
//!                 [--filter GLOB] [--force-slow-path]
//!
//! commands:
//!   run-all       the full evaluation matrix, fanned across cores
//!                 with deterministic per-job seeds (the one entry
//!                 point that regenerates every table and figure)
//!   list          print the experiment ids the registry knows
//!   fig3          Figure 3: HP-mode EPI (scenarios A and B)
//!   fig4          Figure 4: ULE-mode EPI breakdowns
//!   methodology   Sec. III-C sizing/yield table
//!   performance   Sec. IV-B.2 execution-time overhead
//!   area          L1 area comparison
//!   reliability   yields + fault injection
//!   soft-errors   hard faults + soft errors (DECTED vs SECDED)
//!   ablations     way split, memory latency, voltage, L2, cores,
//!                 workload zoo, granularity
//!   all           alias of run-all
//!   serve         long-running HTTP daemon serving any experiment on
//!                 demand from a content-addressed result cache
//!                 (own flags: --addr, --threads, --warm, --cache-mb;
//!                 see the README "Serving" section)
//!   trace         generate, transcode, inspect, and replay trace
//!                 files (gen|encode|decode|info|replay; see the
//!                 README "Traces & workloads" section)
//! ```
//!
//! Every command is a filtered view of the same registry-driven sweep,
//! so a job's output is byte-identical whether it is produced by its
//! single-artifact command, by `run-all`, serially or in parallel.
//! `--filter` narrows any command by glob over experiment ids
//! (e.g. `--filter 'fig*/A'`); `--format` selects the render backend.
//! `--force-slow-path` routes every simulated access through the full
//! EDC decode path even while fault-free — a diagnostic knob; the
//! rendered report is byte-identical with or without it.
//! `--sim-threads` sets the worker-thread count of the epoch-parallel
//! multi-core engine (default 1 = the serial reference loop); like
//! `--jobs` and `--force-slow-path` it never changes a single byte of
//! the rendered report, only wall time. Both flags land in the sweep's
//! one `SimOptions` value, which every experiment passes to the
//! builder of each machine it assembles (`SystemBuilder::options`).
//!
//! The experiment commands, `run-all` included, print the report to
//! stdout and write no file; wall time is measured by the benchmark
//! package under the repository's `benches/` directory.

use std::process::ExitCode;

use hyvec_bench::cli::{parse_flags, sweep_for, CliOptions, FLAGS_USAGE};
use hyvec_core::registry::Registry;
use hyvec_core::render::{csv_field as escape_csv, render, Format};

/// Artifact families of each named command; `None` = the full matrix.
fn command_artifacts(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "run-all" | "all" => &[],
        "methodology" => &["methodology"],
        "fig3" => &["fig3"],
        "fig4" => &["fig4"],
        "performance" => &["performance"],
        "area" => &["area"],
        "reliability" => &["reliability"],
        "soft-errors" => &["soft-errors"],
        "ablations" => &[
            "ablation-ways",
            "ablation-memlat",
            "ablation-voltage",
            "ablation-l2",
            "ablation-cores",
            "ablation-workloads",
            "ablation-granularity",
        ],
        _ => return None,
    })
}

fn usage() -> String {
    format!(
        "usage: hyvec <run-all|list|serve|trace|fig3|fig4|methodology|performance|area\
         |reliability|soft-errors|ablations|all> {FLAGS_USAGE}\n\
         \x20      hyvec serve {}\n\
         \x20      hyvec {}",
        hyvec_serve::SERVE_USAGE,
        hyvec_bench::tracecmd::TRACE_USAGE
    )
}

/// `hyvec list`: the registered experiment ids, optionally filtered.
/// `--format json` emits the machine-readable registry index — the
/// byte-identical document the serve daemon answers on
/// `GET /experiments`; `--format csv` the same index as one row per
/// experiment.
fn list(options: &CliOptions) -> ExitCode {
    let registry = Registry::standard();
    match options.format {
        Format::Text => {
            let builder = sweep_for(options, &[]);
            for id in registry.ids() {
                if builder.selects(id) {
                    println!("{id}");
                }
            }
        }
        Format::Json => print!("{}", registry.index_json()),
        Format::Csv => {
            println!("id,artifact,scenario,description");
            for e in registry.iter() {
                let id = e.id();
                let (artifact, scenario) = id.split_once('/').unwrap_or((id, ""));
                println!(
                    "{},{},{},{}",
                    escape_csv(id),
                    escape_csv(artifact),
                    escape_csv(scenario),
                    escape_csv(e.description())
                );
            }
        }
    }
    ExitCode::SUCCESS
}

/// `hyvec serve`: bind, optionally warm, then serve until shutdown.
fn serve(args: impl Iterator<Item = String>) -> ExitCode {
    let config = match hyvec_serve::ServeConfig::from_args(args) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("{e}\nusage: hyvec serve {}", hyvec_serve::SERVE_USAGE);
            return ExitCode::FAILURE;
        }
    };
    let warm = config.warm;
    let warm_params = config.warm_params;
    let server = match hyvec_serve::SweepServer::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // The resolved address goes to stdout first (and flushed by the
    // newline) so scripts can bind port 0 and scrape the real port
    // before the (possibly long) warm pass runs.
    println!("hyvec serve listening on {}", server.local_addr());
    if warm {
        eprintln!(
            "warming cache: full registry matrix at {} instructions, seed {}",
            warm_params.instructions, warm_params.seed
        );
    }
    server.run();
    eprintln!("hyvec serve: shut down cleanly");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // hyvec-lint: allow(determinism, "CLI argument intake in the runner binary; everything downstream is (artifact, scenario, seed)-keyed")
    let mut args = std::env::args().skip(1);
    let command = match args.next() {
        Some(c) => c,
        None => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if command == "serve" {
        return serve(args);
    }
    if command == "trace" {
        return match hyvec_bench::tracecmd::run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}\n{}", usage());
                ExitCode::FAILURE
            }
        };
    }
    let options = match parse_flags(args) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if command == "list" {
        return list(&options);
    }
    let Some(artifacts) = command_artifacts(&command) else {
        eprintln!("unknown command {command}\n{}", usage());
        return ExitCode::FAILURE;
    };
    let report = sweep_for(&options, artifacts).run().report;
    print!("{}", render(&report, options.format));
    ExitCode::SUCCESS
}
