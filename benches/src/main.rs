//! The hyvec benchmark: one command, four workloads, end-to-end
//! metrics from an untraced run and per-layer metrics from a traced
//! one.
//!
//! ```text
//! cargo run --release --offline --manifest-path benches/Cargo.toml -- \
//!     --workload runall|replay_hp|replay_ule_faulty|serve_mix \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! Every layer is driven from outside through the crates' public
//! functions; the benchmark never touches the process-global
//! force-slow-path or sim-threads knobs. Progress and a `detail:` line
//! (run metadata, raw timing distributions and deterministic counters)
//! go before the last line of standard output, which is one JSON
//! object: `{"correct": .., "attempted": .., "failed": .., "metrics":
//! {..}}`. `--smoke` shrinks every input for a quick check.
//!
//! With `--trace 0` the metrics are [`END_TO_END`]: `wall_s` is the
//! median time of one unit of the workload (a sweep with its renders,
//! a replay, a batch of requests) and `setup_s` the median set-up,
//! both scaled to a reference host speed by [`util::HostClock`];
//! `rss_mb` is the median resident set size right after a unit.
//!
//! With `--trace 1` the metrics are [`PER_LAYER`]. The layer suite
//! ([`layers::suite`]) times every layer on its own; the workload then
//! replaces the figures of the layers it exercises with those of its
//! own traced run, and adds `trace.coverage_share` (the share of its
//! end-to-end time the per-layer times account for) and
//! `trace.overhead_s` (traced minus untraced time per unit).
//!
//! Every operation is checked: run-all renders and replay counters
//! against digests pinned per seed (or an in-run oracle for other
//! seeds), daemon responses against direct renders.

mod layers;
mod pinned;
mod replay;
mod runall;
mod serve;
mod util;

use util::{Detail, Metrics};

/// End-to-end metrics every workload reports from its untraced run.
pub const END_TO_END: [&str; 3] = ["setup_s", "wall_s", "rss_mb"];

/// The artifact families of the standard registry, each a
/// `sweep.job_s.<artifact>` metric.
pub const ARTIFACTS: [&str; 14] = [
    "methodology",
    "fig3",
    "fig4",
    "performance",
    "area",
    "reliability",
    "soft-errors",
    "ablation-ways",
    "ablation-memlat",
    "ablation-voltage",
    "ablation-l2",
    "ablation-cores",
    "ablation-workloads",
    "ablation-granularity",
];

/// Per-layer metrics every workload reports from its traced run (plus
/// one `sweep.job_s.<artifact>` per [`ARTIFACTS`] entry).
pub const PER_LAYER: [&str; 39] = [
    "mediabench.gen_ns_per_entry",
    "mediabench.gen_share",
    "binfmt.decode_ns_per_entry",
    "binfmt.entries_decoded",
    "cache.hit_ns_fast",
    "cache.miss_ns_fast",
    "cache.access_ns_slow",
    "cache.accesses",
    "cache.misses",
    "cache.fills",
    "cache.writebacks",
    "edc.secded_encode_ns",
    "edc.secded_decode_ns",
    "edc.dected_encode_ns",
    "edc.dected_decode_ns",
    "edc.corrected",
    "edc.detected",
    "edc.silent",
    "hierarchy.ns_per_request",
    "hierarchy.requests",
    "hierarchy.l2_hits",
    "hierarchy.memory_accesses",
    "engine.ns_per_instr",
    "engine.front_ns_per_instr",
    "multicore.serial_ns_per_instr",
    "multicore.threaded_ns_per_instr",
    "sweep.worker_idle_s",
    "render.text_ms",
    "render.json_ms",
    "render.csv_ms",
    "serve.compute_ms",
    "serve.cache_lookup_ns",
    "http.parse_ns",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.coalesced",
    "serve.hit_ratio",
    "trace.coverage_share",
    "trace.overhead_s",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The full 26-job sweep, rendered in all three formats.
    RunAll,
    /// A MediaBench mix replayed from `HYVT` bytes, HP mode,
    /// fault-free.
    ReplayHp,
    /// The same bytes in ULE mode with stuck-at faults in the ULE way.
    ReplayUleFaulty,
    /// Closed-loop `/report` traffic against an in-process daemon.
    ServeMix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("runall", Workload::RunAll),
        ("replay_hp", Workload::ReplayHp),
        ("replay_ule_faulty", Workload::ReplayUleFaulty),
        ("serve_mix", Workload::ServeMix),
    ];

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        Workload::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map_or("?", |&(n, _)| n)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

impl Config {
    fn parse(args: impl Iterator<Item = String>) -> Result<Config, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 20.0;
        let mut trace = false;
        let mut smoke = false;
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".to_string());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".to_string()),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Config {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
            smoke,
        })
    }

    /// `full` normally, `smoke` under `--smoke`.
    pub fn pick<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What one workload run hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, replays, requests) and how many of
    /// them produced wrong output.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub detail: Detail,
}

impl Outcome {
    /// Counts one checked operation, failing it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }
}

fn main() {
    let config = match Config::parse(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}{}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace),
        if config.smoke { " (smoke)" } else { "" }
    );
    let result = match config.workload {
        Workload::RunAll => runall::run(&config),
        Workload::ReplayHp | Workload::ReplayUleFaulty => replay::run(&config),
        Workload::ServeMix => serve::run(&config),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };

    let names: Vec<String> = if config.trace {
        PER_LAYER
            .iter()
            .map(|s| s.to_string())
            .chain(ARTIFACTS.iter().map(|a| format!("sweep.job_s.{a}")))
            .collect()
    } else {
        END_TO_END.iter().map(|s| s.to_string()).collect()
    };
    let mut metrics = Metrics::default();
    for name in &names {
        match outcome.metrics.get_with_unit(name) {
            Some((value, unit)) => metrics.set(name.clone(), value, unit),
            None => {
                eprintln!("perfbench: metric {name} was not measured");
                std::process::exit(1);
            }
        }
    }

    let d = &mut outcome.detail;
    d.text("workload", config.workload.name());
    d.num("seed", config.seed);
    d.num("seconds", config.seconds);
    d.num("trace", u8::from(config.trace));
    d.text("smoke", if config.smoke { "yes" } else { "no" });
    d.num("nproc", util::nproc());
    d.text("profile", util::profile());
    d.text("commit", &util::commit());
    println!("detail: {}", outcome.detail.json());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.json()
    );
}
