//! `runall`: the full 26-job matrix through `SweepBuilder`, in process,
//! rendered as text, json and csv. No `BENCH_*.json` is written.

use hyvec_core::architecture::{Architecture, DesignPoint, Scenario};
use hyvec_core::experiments::ExperimentParams;
use hyvec_core::registry::Registry;
use hyvec_core::render::{render, Format};
use hyvec_core::sweep::{matrix_for, SweepBuilder, SweepOutcome};

use crate::layers;
use crate::replay::Regime;
use crate::util::{median, nproc, repeat_for, timed, Fnv, HostClock, Metrics};
use crate::{Config, Outcome, ARTIFACTS};

const FORMATS: [Format; 3] = [Format::Text, Format::Json, Format::Csv];

/// One sweep and its three renders.
pub struct Rendered {
    pub outcome: SweepOutcome,
    pub jobs: usize,
    /// FNV-1a of the text, json and csv bytes.
    pub digests: [u64; 3],
    pub bytes: [usize; 3],
    /// Seconds each render took.
    pub render_s: [f64; 3],
}

/// The sweep every run-all repetition executes: `min(2, nproc)`
/// workers, the serial multi-core loop, the fast path left on.
pub fn plan(params: ExperimentParams) -> SweepBuilder {
    SweepBuilder::new()
        .params(params)
        .jobs(nproc().min(2))
        .sim_threads(1)
}

pub fn sweep_and_render(plan: &SweepBuilder) -> Rendered {
    let outcome = plan.run();
    let mut rendered = Rendered {
        outcome,
        jobs: nproc().min(2),
        digests: [0; 3],
        bytes: [0; 3],
        render_s: [0.0; 3],
    };
    for (i, format) in FORMATS.into_iter().enumerate() {
        let (t, s) = timed(|| render(&rendered.outcome.report, format));
        rendered.digests[i] = Fnv::default().bytes(s.as_bytes()).finish();
        rendered.bytes[i] = s.len();
        rendered.render_s[i] = t;
    }
    rendered
}

/// Per-artifact job time (both scenarios summed), worker idle time
/// and render times of one sweep.
pub fn set_layer_metrics(m: &mut Metrics, r: &Rendered) {
    for artifact in ARTIFACTS {
        let nanos: u128 = r
            .outcome
            .timings
            .iter()
            .filter(|t| t.label.split('/').next() == Some(artifact))
            .map(|t| t.wall_nanos)
            .sum();
        m.set(format!("sweep.job_s.{artifact}"), nanos as f64 * 1e-9, "s");
    }
    let elapsed = r.outcome.elapsed_wall_nanos as f64 * 1e-9;
    let summed = r.outcome.summed_job_wall_nanos() as f64 * 1e-9;
    m.set("sweep.worker_idle_s", r.jobs as f64 * elapsed - summed, "s");
    for (name, t) in ["text", "json", "csv"].into_iter().zip(r.render_s) {
        m.set(format!("render.{name}_ms"), t * 1e3, "ms");
    }
}

/// Set-up: size the four (scenario, design point) architectures and
/// lay out the seeded job matrix.
fn setup(params: ExperimentParams) -> Result<(), String> {
    for scenario in Scenario::ALL {
        for point in DesignPoint::ALL {
            Architecture::build(scenario, point).map_err(|e| format!("sizing: {e}"))?;
        }
    }
    if matrix_for(&Registry::standard(), params).len() != 26 {
        return Err("the standard matrix is not 26 jobs".to_string());
    }
    Ok(())
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let params = ExperimentParams {
        instructions: cfg.pick(100_000, 5_000),
        seed: cfg.seed,
    };
    let mut out = Outcome::default();
    let mut clock = HostClock::new();
    clock.setup(|| setup(params))?;
    let plan = plan(params);

    let untraced_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let reps = repeat_for(
        untraced_seconds,
        cfg.pick(3, 1),
        &mut clock,
        |clock| clock.resample_setup(|| setup(params)).map(drop),
        |_| sweep_and_render(&plan),
    )?;

    // The gate: every repetition renders the pinned bytes for this
    // seed, or, for an unpinned seed, those of a serial sweep.
    let pinned = if cfg.smoke {
        None
    } else {
        crate::pinned::runall(cfg.seed)
    };
    let expected = match pinned {
        Some(d) => d,
        None => sweep_and_render(&plan.clone().jobs(1)).digests,
    };
    for (_, r) in &reps {
        for (i, name) in ["text", "json", "csv"].into_iter().enumerate() {
            let ok = r.digests[i] == expected[i];
            out.check(ok, &format!("run-all {name} render differs"));
        }
    }
    let walls: Vec<f64> = reps.iter().map(|(t, _)| *t).collect();

    let first = &reps.first().ok_or("no sweep ran")?.1;
    let d = &mut out.detail;
    clock.record(d, &walls);
    d.num("instructions", params.instructions);
    d.num("jobs", first.jobs);
    d.num("sections", first.outcome.report.sections.len());
    d.text("gate", if pinned.is_some() { "pinned" } else { "oracle" });
    for (i, name) in ["text", "json", "csv"].into_iter().enumerate() {
        d.num(format!("bytes.{name}"), first.bytes[i]);
        d.text(
            format!("digest.{name}"),
            &format!("{:016x}", first.digests[i]),
        );
    }
    d.num(
        "summed_job_s",
        median(
            &reps
                .iter()
                .map(|(_, r)| r.outcome.summed_job_wall_nanos() as f64 * 1e-9)
                .collect::<Vec<_>>(),
        ),
    );

    if !cfg.trace {
        clock.set_end_to_end(&mut out.metrics, &walls);
        return Ok(out);
    }

    // Traced: the same sweeps, keeping the per-job and per-render spans.
    let traced = repeat_for(
        cfg.seconds / 2.0,
        cfg.pick(3, 1),
        &mut clock,
        |_| Ok(()),
        |_| sweep_and_render(&plan),
    )?;
    for (_, r) in &traced {
        out.check(r.digests == expected, "traced run-all render differs");
    }
    // The repetition with the median wall time stands for the run.
    let mut by_wall: Vec<&(f64, Rendered)> = traced.iter().collect();
    by_wall.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (t_mid, mid) = by_wall[by_wall.len() / 2];

    layers::suite(cfg, Regime::Hp, &mut out)?;
    let m = &mut out.metrics;
    set_layer_metrics(m, mid);
    let summed = mid.outcome.summed_job_wall_nanos() as f64 * 1e-9;
    let render: f64 = mid.render_s.iter().sum();
    m.set(
        "trace.coverage_share",
        (summed / mid.jobs as f64 + render) / t_mid,
        "ratio",
    );
    m.set(
        "trace.overhead_s",
        (t_mid - median(&walls)) * clock.speed(),
        "s",
    );
    Ok(out)
}
