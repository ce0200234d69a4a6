//! Command-line plumbing of the `hyvec` front-end.
//!
//! The experiment commands derive from the table of artifacts
//! ([`ARTIFACTS`], see [`experiment_commands`]). Every one runs the
//! same pipeline: parse the common flags, select experiments from the
//! standard [`Registry`] with a [`SweepBuilder`], run, and hand the
//! typed report to the requested [`Format`] backend. A job's output
//! is therefore byte-identical whether it is produced by a
//! single-artifact `hyvec` command or by `hyvec run-all`, serially or
//! in parallel.

use hyvec_core::experiments::{ExperimentParams, ARTIFACTS};
use hyvec_core::registry::Registry;
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
    /// Route every access through the full EDC slow path
    /// (`--force-slow-path`). Purely diagnostic: the report is
    /// byte-identical with or without it.
    pub force_slow_path: bool,
    /// Threads that run the L1 fronts of each multi-core simulation
    /// (`--sim-threads`; default 1 = inline on the job's own thread).
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
                options.params.instructions = ExperimentParams::parse_instructions(&value)
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
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(options)
}

/// The experiment commands: `run-all` and `all` (the full matrix),
/// each artifact of [`ARTIFACTS`] not named `ablation-*`, and
/// `ablations` (every `ablation-*` artifact).
pub fn experiment_commands() -> Vec<&'static str> {
    let mut commands = vec!["run-all", "all"];
    commands.extend(ARTIFACTS.iter().map(|a| a.name).filter(|n| !is_ablation(n)));
    commands.push("ablations");
    commands
}

/// Artifact families of each experiment command (empty = the full
/// matrix); `None` when `command` is not an experiment command.
pub fn command_artifacts(command: &str) -> Option<Vec<&'static str>> {
    let names = ARTIFACTS.iter().map(|a| a.name);
    match command {
        "run-all" | "all" => Some(Vec::new()),
        "ablations" => Some(names.filter(|n| is_ablation(n)).collect()),
        _ => names
            .filter(|&n| n == command && !is_ablation(n))
            .map(|n| vec![n])
            .next(),
    }
}

/// Whether artifact `name` runs under `hyvec ablations`.
fn is_ablation(name: &str) -> bool {
    name.starts_with("ablation-")
}

/// The sweep experiment command `command` runs over `artifacts`, or an
/// error when its `--filter` globs leave it no experiment of the
/// standard registry: a mistyped filter must not pass for an empty
/// report.
pub fn command_sweep(
    command: &str,
    options: &CliOptions,
    artifacts: &[&str],
) -> Result<SweepBuilder, String> {
    let builder = sweep_for(options, artifacts);
    if Registry::standard()
        .ids()
        .into_iter()
        .any(|id| builder.selects(id))
    {
        return Ok(builder);
    }
    let filters: Vec<String> = options
        .globs
        .iter()
        .map(|glob| format!("--filter '{glob}'"))
        .collect();
    Err(format!(
        "no experiment of `hyvec {command}` matches {}; `hyvec list` prints the experiment ids",
        filters.join(" ")
    ))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliOptions, String> {
        parse_flags(args.iter().map(|s| s.to_string()))
    }

    /// The sweep `hyvec <command> <args>` runs, or why it runs none.
    fn sweep(command: &str, args: &[&str]) -> Result<SweepBuilder, String> {
        let artifacts = command_artifacts(command).ok_or("unknown command")?;
        command_sweep(command, &parse(args)?, &artifacts)
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
        assert!(parse(&["--instructions", "0"]).is_err());
        assert!(parse(&["--bench-out", "x"]).is_err());
        // Filters that leave a command no experiment.
        let err = sweep("run-all", &["--filter", "nonesuch"]).unwrap_err();
        assert!(err.contains("--filter 'nonesuch'") && err.contains("hyvec list"));
        let err = sweep("ablations", &["--filter", "fig3/*"]).unwrap_err();
        assert!(err.contains("hyvec ablations") && err.contains("--filter 'fig3/*'"));
    }

    #[test]
    fn filters_that_select_something_pass() {
        assert!(sweep("run-all", &[]).is_ok());
        assert!(sweep("ablations", &["--filter", "ablation-cores/*"]).is_ok());
        assert!(sweep("fig3", &["--filter", "nonesuch", "--filter", "*/A"]).is_ok());
    }

    #[test]
    fn commands_derive_from_the_artifact_table() {
        let mut commands = experiment_commands();
        commands.sort_unstable();
        let mut expected = [
            "run-all",
            "all",
            "methodology",
            "fig3",
            "fig4",
            "performance",
            "area",
            "reliability",
            "soft-errors",
            "ablations",
        ];
        expected.sort_unstable();
        assert_eq!(commands, expected);
        assert!(command_artifacts("ablation-ways").is_none());
        assert!(command_artifacts("list").is_none());
        // Besides run-all and all, exactly one command runs each
        // experiment of the standard registry; run-all runs them all.
        let everything = sweep("run-all", &[]).unwrap();
        for id in Registry::standard().ids() {
            assert!(everything.selects(id), "run-all skips {id}");
            let runners: Vec<&str> = experiment_commands()
                .into_iter()
                .filter(|&c| c != "run-all" && c != "all")
                .filter(|c| sweep(c, &[]).unwrap().selects(id))
                .collect();
            assert_eq!(runners.len(), 1, "{id} runs under {runners:?}");
        }
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
