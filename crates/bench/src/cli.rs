//! Command-line plumbing of the `hyvec` front-end.
//!
//! Every experiment command runs the same pipeline: parse the common
//! flags, select experiments from the standard
//! [`Registry`](hyvec_core::registry::Registry) with a
//! [`SweepBuilder`], run, and hand the typed report to the requested
//! [`Format`] backend. A job's output is therefore byte-identical
//! whether it is produced by a single-artifact `hyvec` command or by
//! `hyvec run-all`, serially or in parallel.

use hyvec_core::experiments::ExperimentParams;
use hyvec_core::render::Format;
use hyvec_core::sweep::{default_jobs, SweepBuilder};

/// Options shared by every experiment command.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Run parameters (instruction budget + base seed).
    pub params: ExperimentParams,
    /// Worker threads; defaults to the core count.
    pub jobs: usize,
    /// Output format.
    pub format: Format,
    /// Glob filters over experiment ids (`--filter`, repeatable).
    pub globs: Vec<String>,
    /// Where to write the per-job wall-time artifact (`--bench-out`).
    /// Honored by every entry point; `hyvec run-all` additionally
    /// defaults it to `BENCH_sweep.json`.
    pub bench_out: Option<String>,
    /// Route every access through the full EDC slow path
    /// (`--force-slow-path`). Purely diagnostic: the report is
    /// byte-identical with or without it.
    pub force_slow_path: bool,
    /// Worker threads of the epoch-parallel multi-core engine
    /// (`--sim-threads`; default 1 = the serial reference loop).
    /// Orthogonal to `--jobs`, which parallelizes across experiments;
    /// the report is byte-identical at every value.
    pub sim_threads: usize,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            params: ExperimentParams::default(),
            jobs: default_jobs(),
            format: Format::Text,
            globs: Vec::new(),
            bench_out: None,
            force_slow_path: false,
            sim_threads: 1,
        }
    }
}

/// The flag summary shared by every usage string.
pub const FLAGS_USAGE: &str = "[--instructions N] [--seed S] [--jobs J] [--sim-threads T] [--format text|json|csv] [--filter GLOB] [--force-slow-path]";

/// Parses the common flags from an argument iterator (after any
/// subcommand has been consumed).
pub fn parse_flags(args: impl Iterator<Item = String>) -> Result<CliOptions, String> {
    let mut args = args.peekable();
    let mut options = CliOptions::default();
    while let Some(flag) = args.next() {
        // Boolean flags take no value.
        if flag == "--force-slow-path" {
            options.force_slow_path = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--instructions" | "-n" => {
                options.params.instructions = value
                    .parse()
                    .map_err(|e| format!("bad --instructions: {e}"))?;
            }
            "--seed" | "-s" => {
                options.params.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--jobs" | "-j" => {
                options.jobs = value.parse().map_err(|e| format!("bad --jobs: {e}"))?;
                if options.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--sim-threads" => {
                options.sim_threads = value
                    .parse()
                    .map_err(|e| format!("bad --sim-threads: {e}"))?;
                if options.sim_threads == 0 {
                    return Err("--sim-threads must be at least 1".to_string());
                }
            }
            "--format" | "-f" => {
                options.format = value.parse()?;
            }
            "--filter" => {
                options.globs.push(value);
            }
            "--bench-out" => {
                options.bench_out = Some(value);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(options)
}

/// Builds the sweep for `options`, restricted to `artifacts` (empty =
/// everything).
pub fn sweep_for(options: &CliOptions, artifacts: &[&str]) -> SweepBuilder {
    let mut builder = SweepBuilder::new()
        .params(options.params)
        .jobs(options.jobs)
        .force_slow_path(options.force_slow_path)
        .sim_threads(options.sim_threads);
    if !artifacts.is_empty() {
        builder = builder.artifacts(artifacts.iter().copied());
    }
    for glob in &options.globs {
        builder = builder.filter(glob.clone());
    }
    builder
}

/// Writes the per-job wall-time artifact of `outcome` to `path`.
pub fn write_bench(outcome: &hyvec_core::sweep::SweepOutcome, path: &str) -> Result<(), String> {
    std::fs::write(path, outcome.bench_json()).map_err(|e| format!("could not write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_flags(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags_parse() {
        let d = parse(&[]).unwrap();
        assert_eq!(d.format, Format::Text);
        assert_eq!(d.params.instructions, 100_000);
        let o = parse(&[
            "--instructions",
            "5000",
            "--seed",
            "9",
            "--jobs",
            "2",
            "--format",
            "json",
            "--filter",
            "fig3/*",
            "--filter",
            "area/*",
        ])
        .unwrap();
        assert_eq!(o.params.instructions, 5000);
        assert_eq!(o.params.seed, 9);
        assert_eq!(o.jobs, 2);
        assert_eq!(o.format, Format::Json);
        assert_eq!(o.globs, vec!["fig3/*", "area/*"]);
    }

    #[test]
    fn force_slow_path_is_a_bare_flag() {
        assert!(!parse(&[]).unwrap().force_slow_path);
        // Takes no value, anywhere in the argument list.
        let o = parse(&["--force-slow-path", "--jobs", "2"]).unwrap();
        assert!(o.force_slow_path);
        assert_eq!(o.jobs, 2);
        let o = parse(&["--jobs", "2", "--force-slow-path"]).unwrap();
        assert!(o.force_slow_path);
    }

    #[test]
    fn sim_threads_parses_and_rejects_zero() {
        assert_eq!(parse(&[]).unwrap().sim_threads, 1);
        let o = parse(&["--sim-threads", "8", "--jobs", "2"]).unwrap();
        assert_eq!(o.sim_threads, 8);
        assert_eq!(o.jobs, 2);
        assert!(parse(&["--sim-threads", "0"]).is_err());
        assert!(parse(&["--sim-threads"]).is_err());
    }

    #[test]
    fn bad_flags_are_reported() {
        assert!(parse(&["--jobs", "0"]).is_err());
        assert!(parse(&["--format", "yaml"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--wat", "1"]).is_err());
    }

    #[test]
    fn sweep_for_applies_artifact_and_glob_filters() {
        let mut options = CliOptions::default();
        options.globs.push("*/A".to_string());
        let builder = sweep_for(&options, &["fig3", "fig4"]);
        assert!(builder.selects("fig3/A"));
        assert!(!builder.selects("fig3/B"));
        assert!(!builder.selects("area/A"));
        let unrestricted = sweep_for(&CliOptions::default(), &[]);
        assert!(unrestricted.selects("soft-errors/B"));
    }
}
