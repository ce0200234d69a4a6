//! The layer suite: every layer timed on its own through its public
//! functions, on inputs derived from the seed.
//!
//! A traced run calls [`suite`] first and then overwrites the figures
//! of the layers its own workload exercises with what its traced run
//! measured; the suite's figures stand for the layers it does not.

use std::hint::black_box;

use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode};
use hyvec_cachesim::{HybridCache, RunStats, System};
use hyvec_core::experiments::ExperimentParams;
use hyvec_edc::{DectedCode, EdcCode, HsiaoCode};
use hyvec_mediabench::{multiprogram_sources, Benchmark, TraceEntry};
use hyvec_serve::http::read_request;
use hyvec_serve::{report_fingerprint, RenderSet, ResultCache};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::replay::{self, Regime};
use crate::runall;
use crate::serve;
use crate::util::{median, mix, ns_per_op, timed, Metrics};
use crate::{Config, Outcome};

/// Runs every layer probe, writing each per-layer metric into
/// `out.metrics` and each probe's own check into `out`.
pub fn suite(cfg: &Config, regime: Regime, out: &mut Outcome) -> Result<(), String> {
    trace_and_engine(cfg, regime, out)?;
    cache(cfg, out)?;
    edc(cfg, out)?;
    multicore(cfg, out)?;
    sweep(cfg, out);
    serving(cfg, out)?;
    Ok(())
}

/// The L1, EDC-event and chain counters of one run.
pub fn set_run_counts(m: &mut Metrics, stats: &RunStats) {
    let (i, d) = (&stats.il1, &stats.dl1);
    m.set("cache.accesses", (i.accesses + d.accesses) as f64, "count");
    m.set("cache.misses", (i.misses + d.misses) as f64, "count");
    m.set("cache.fills", (i.fills + d.fills) as f64, "count");
    m.set(
        "cache.writebacks",
        (i.writebacks + d.writebacks) as f64,
        "count",
    );
    m.set("edc.corrected", stats.corrected() as f64, "count");
    m.set("edc.detected", stats.detected() as f64, "count");
    m.set("edc.silent", stats.silent_corruptions() as f64, "count");
}

/// Generator, decoder and engine on a sample of the replay mix, in the
/// workload's regime.
fn trace_and_engine(cfg: &Config, regime: Regime, out: &mut Outcome) -> Result<(), String> {
    let per_program = cfg.pick(125_000, 5_000);
    let n = per_program * replay::MIX.len() as u64;
    let samples = cfg.pick(3, 1);

    let gen_ns = ns_per_op(samples, n, || {
        let mut acc = 0u64;
        for e in replay::mix_trace(cfg.seed, per_program) {
            acc ^= e.pc;
        }
        black_box(acc);
    });
    let entries: Vec<TraceEntry> = replay::mix_trace(cfg.seed, per_program).collect();
    let bytes = replay::encode(entries.iter().copied())?;
    let decoded: Vec<TraceEntry> = replay::reader(&bytes)?.collect();
    out.check(decoded == entries, "HYVT round trip changed the trace");
    drop(decoded);
    let decode_ns = ns_per_op(samples, n, || {
        let mut acc = 0u64;
        for e in replay::reader(&bytes).expect("decoded above") {
            acc ^= e.pc;
        }
        black_box(acc);
    });

    let arch = replay::architecture()?;
    let mode = regime.mode();
    let mut stock = replay::machine(&arch, regime, cfg.seed)?;
    let mut stock_stats = None;
    let engine_ns = ns_per_op(samples, n, || {
        stock_stats = Some(stock.run(entries.iter().copied(), mode).stats);
    });
    // The engine again with its chain timed: the front end is the
    // engine minus the chain, median over the samples.
    let mut traced = replay::machine(&arch, regime, cfg.seed)?;
    let spans = replay::install_timed_chain(&mut traced);
    let mut fronts = Vec::new();
    let mut chains = Vec::new();
    let mut traced_stats = None;
    for _ in 0..samples {
        let (t, report) = timed(|| traced.run(entries.iter().copied(), mode));
        fronts.push(t * 1e9 - spans.nanos.get() as f64);
        chains.push(spans.nanos.get() as f64);
        traced_stats = Some(report.stats);
    }
    out.check(
        traced_stats.is_some() && traced_stats == stock_stats,
        "a timed chain changed the run's counters",
    );
    let stats = traced_stats.ok_or("no traced run")?;
    let chain_ns = median(&chains);

    let m = &mut out.metrics;
    m.set("mediabench.gen_ns_per_entry", gen_ns, "ns");
    m.set(
        "mediabench.gen_share",
        gen_ns / (gen_ns + engine_ns),
        "ratio",
    );
    m.set("binfmt.decode_ns_per_entry", decode_ns, "ns");
    m.set("binfmt.entries_decoded", n as f64, "count");
    m.set("engine.ns_per_instr", engine_ns, "ns");
    m.set(
        "engine.front_ns_per_instr",
        median(&fronts) / n as f64,
        "ns",
    );
    let requests = spans.requests.get();
    m.set(
        "hierarchy.ns_per_request",
        chain_ns / requests.max(1) as f64,
        "ns",
    );
    m.set("hierarchy.requests", requests as f64, "count");
    m.set("hierarchy.l2_hits", spans.l2_hits.get() as f64, "count");
    m.set(
        "hierarchy.memory_accesses",
        spans.memory.get() as f64,
        "count",
    );
    set_run_counts(m, &stats);
    Ok(())
}

/// `HybridCache::access` on the Scenario-B proposal DL1: fast-path
/// hits and misses in HP mode, and slow-path hits in ULE mode with
/// stuck-at faults in the ULE way.
fn cache(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    const BASE: u64 = 0x2000_0000;
    let arch = replay::architecture()?;
    let dl1 = arch.config.dl1.clone();
    let new_cache = |mode| HybridCache::try_new(dl1.clone(), mode).map_err(|e| e.to_string());
    let samples = cfg.pick(3, 1);
    let passes = cfg.pick(500, 10);

    // Hits: a 4 KB working set, loaded once, walked word by word.
    let mut hp = new_cache(Mode::Hp)?;
    let hot: Vec<u64> = (0..1024).map(|i| BASE + 4 * i).collect();
    for &a in &hot {
        hp.access(a, false);
    }
    let misses_before = hp.stats().misses;
    let hit_ns = ns_per_op(samples, passes * hot.len() as u64, || {
        for _ in 0..passes {
            for &a in &hot {
                black_box(hp.access(a, false));
            }
        }
    });
    out.check(hp.stats().misses == misses_before, "hit probe missed");
    out.check(hp.is_fault_free(), "hit probe left the fast path");

    // Misses: one load per line over a range no pass revisits.
    let mut cold = new_cache(Mode::Hp)?;
    let lines = passes * 256;
    let mut next = BASE;
    let miss_ns = ns_per_op(samples, lines, || {
        for _ in 0..lines {
            black_box(cold.access(next, false));
            next += 32;
        }
    });
    out.check(cold.stats().hits == 0, "miss probe hit");

    // Slow path: a working set that fits the one enabled ULE way.
    let mut ule = new_cache(Mode::Ule)?;
    let mut rng = SmallRng::seed_from_u64(mix(cfg.seed, 0xca5e));
    let faulty_bits = replay::inject_ule_faults(&mut ule, &mut rng);
    let small: Vec<u64> = (0..128).map(|i| BASE + 4 * i).collect();
    for &a in &small {
        ule.access(a, false);
    }
    let slow_passes = passes * 8;
    let slow_ns = ns_per_op(samples, slow_passes * small.len() as u64, || {
        for _ in 0..slow_passes {
            for &a in &small {
                black_box(ule.access(a, false));
            }
        }
    });
    out.check(
        faulty_bits > 0 && !ule.is_fault_free(),
        "slow-path probe has no faults",
    );

    let m = &mut out.metrics;
    m.set("cache.hit_ns_fast", hit_ns, "ns");
    m.set("cache.miss_ns_fast", miss_ns, "ns");
    m.set("cache.access_ns_slow", slow_ns, "ns");
    Ok(())
}

/// Encode and decode of the 32-bit SECDED and DECTED codecs; one
/// codeword in eight carries a single-bit error.
fn edc(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let n = cfg.pick(1_000_000, 20_000);
    let data: Vec<u64> = (0..n).map(|i| mix(cfg.seed, i) & 0xffff_ffff).collect();
    let secded = HsiaoCode::new(32).map_err(|e| e.to_string())?;
    let dected = DectedCode::new(32).map_err(|e| e.to_string())?;
    let (enc, dec) = codec(cfg, &secded, &data, out);
    out.metrics.set("edc.secded_encode_ns", enc, "ns");
    out.metrics.set("edc.secded_decode_ns", dec, "ns");
    let (enc, dec) = codec(cfg, &dected, &data, out);
    out.metrics.set("edc.dected_encode_ns", enc, "ns");
    out.metrics.set("edc.dected_decode_ns", dec, "ns");
    Ok(())
}

fn codec<C: EdcCode>(cfg: &Config, code: &C, data: &[u64], out: &mut Outcome) -> (f64, f64) {
    let n = data.len() as u64;
    let samples = cfg.pick(3, 1);
    let encode_ns = ns_per_op(samples, n, || {
        for &d in data {
            black_box(code.encode(black_box(d)));
        }
    });
    let words: Vec<u64> = data
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            let w = code.encode(d);
            if i % 8 == 0 {
                w ^ (1 << (i % code.total_bits()))
            } else {
                w
            }
        })
        .collect();
    let decode_ns = ns_per_op(samples, n, || {
        for &w in &words {
            black_box(code.decode(black_box(w)));
        }
    });
    let ok = words
        .iter()
        .zip(data)
        .all(|(&w, &d)| code.decode(w).data() == Some(d));
    out.check(ok, "EDC decode did not recover the data");
    (encode_ns, decode_ns)
}

/// `MultiCoreSystem::run` with 8 cores over a 16 KB shared L2, on the
/// serial loop and on the epoch engine with 2 threads.
fn multicore(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    const CORES: usize = 8;
    let per_core = cfg.pick(25_000, 2_000);
    let programs: Vec<Benchmark> = (0..CORES).map(|i| Benchmark::BIG[i % 6]).collect();
    let arch = replay::architecture()?;
    let build = || {
        System::builder()
            .config(arch.config.clone())
            .memory(MemoryConfig::with_latency(replay::MEMORY_LATENCY))
            .l2(L2Config::unified(replay::L2_KB))
            .build_multi(CORES)
            .map_err(|e| e.to_string())
    };
    let n = per_core * CORES as u64;
    let mut serial = build()?;
    let mut threaded = build()?;
    threaded.set_sim_threads(2);
    let mut reports = (None, None);
    let serial_ns = ns_per_op(cfg.pick(3, 1), n, || {
        let sources = multiprogram_sources(&programs, per_core, cfg.seed);
        reports.0 = Some(serial.run(sources, Mode::Hp));
    });
    let threaded_ns = ns_per_op(cfg.pick(3, 1), n, || {
        let sources = multiprogram_sources(&programs, per_core, cfg.seed);
        reports.1 = Some(threaded.run(sources, Mode::Hp));
    });
    out.check(
        reports.0.is_some() && reports.0 == reports.1,
        "epoch engine differs from the serial loop",
    );
    out.metrics
        .set("multicore.serial_ns_per_instr", serial_ns, "ns");
    out.metrics
        .set("multicore.threaded_ns_per_instr", threaded_ns, "ns");
    Ok(())
}

/// The whole matrix through `SweepBuilder` at a reduced budget, then
/// `render` in every format.
fn sweep(cfg: &Config, out: &mut Outcome) {
    let params = ExperimentParams {
        instructions: cfg.pick(10_000, 2_000),
        seed: cfg.seed,
    };
    let rendered = runall::sweep_and_render(&runall::plan(params));
    runall::set_layer_metrics(&mut out.metrics, &rendered);
}

/// `read_request`, a `ResultCache` hit, and a cold compute of one
/// cheap experiment.
fn serving(cfg: &Config, out: &mut Outcome) -> Result<(), String> {
    let n = cfg.pick(100_000, 2_000);
    let samples = cfg.pick(3, 1);
    let request: &[u8] = b"GET /report/fig4/A?seed=7&instructions=20000&format=json HTTP/1.1\r\n\
        Host: 127.0.0.1\r\nIf-None-Match: \"0123456789abcdef-json\"\r\n\r\n";
    let parsed = read_request(&mut { request }).map_err(|e| format!("parse: {e}"))?;
    out.check(
        parsed.path == "/report/fig4/A" && parsed.query.len() == 3,
        "request parsed wrongly",
    );
    let parse_ns = ns_per_op(samples, n, || {
        for _ in 0..n {
            let mut r = black_box(request);
            let _ = black_box(read_request(&mut r));
        }
    });

    let params = ExperimentParams {
        instructions: cfg.pick(20_000, 2_000),
        seed: cfg.seed,
    };
    let id = "fig4/A";
    let computes: Vec<(f64, RenderSet)> = (0..samples)
        .map(|_| timed(|| serve::direct_render(id, params)))
        .collect();
    let compute_ms = median(&computes.iter().map(|(t, _)| t * 1e3).collect::<Vec<_>>());
    let set = computes
        .into_iter()
        .next()
        .map(|(_, s)| s)
        .ok_or("no compute ran")?;

    let cache = ResultCache::new(64 << 20);
    let key = report_fingerprint(id, params);
    cache.get_or_compute(key, || set.clone());
    let lookup_ns = ns_per_op(samples, n, || {
        for _ in 0..n {
            black_box(cache.get_or_compute(key, || set.clone()));
        }
    });
    let c = cache.counters();
    out.check(c.misses == 1 && c.coalesced == 0, "cache probe missed");

    let m = &mut out.metrics;
    m.set("http.parse_ns", parse_ns, "ns");
    m.set("serve.compute_ms", compute_ms, "ms");
    m.set("serve.cache_lookup_ns", lookup_ns, "ns");
    serve::set_cache_counts(m, c.hits, c.misses, c.coalesced);
    Ok(())
}
