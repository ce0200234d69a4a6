//! `replay_hp` and `replay_ule_faulty`: a MediaBench mix, encoded once
//! as `HYVT` bytes, replayed with `BinaryReplay` through
//! `System::run` on the Scenario-B proposal L1s over a 16 KB L2 and
//! 80-cycle memory.
//!
//! In HP mode the caches are fault-free, so every L1 access takes the
//! plain-compare fast path. In ULE mode only the EDC-protected ULE way
//! is on, stuck-at faults are sampled into it, and every access
//! decodes through SECDED/DECTED while the chain absorbs the misses.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use hyvec_cachesim::config::{L2Config, MemoryConfig, Mode};
use hyvec_cachesim::faults::sample_faults;
use hyvec_cachesim::hierarchy::{
    AccessOutcome, AccessRequest, HitDepth, L2Cache, MainMemory, MemoryLevel,
};
use hyvec_cachesim::{CacheStats, HybridCache, RunStats, System};
use hyvec_core::architecture::{Architecture, DesignPoint, Scenario};
use hyvec_mediabench::{Benchmark, BinaryReplay, TraceEntry, TraceWriter};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::util::{median, mix, repeat_for, timed, Fnv, HostClock};
use crate::{layers, Config, Outcome, Workload};

/// The replayed programs, back to back, each with its own derived seed.
pub const MIX: [Benchmark; 8] = [
    Benchmark::Mpeg2C,
    Benchmark::Mpeg2D,
    Benchmark::GsmC,
    Benchmark::GsmD,
    Benchmark::AdpcmC,
    Benchmark::AdpcmD,
    Benchmark::G721C,
    Benchmark::G721D,
];

/// Unified L2 below the L1s, KB.
pub const L2_KB: u64 = 16;
/// Main-memory latency, cycles.
pub const MEMORY_LATENCY: u32 = 80;
/// Stuck-at bit-failure probability sampled into the ULE way (the
/// reliability experiment's demonstration rate).
pub const ULE_FAULT_RATE: f64 = 1.5e-3;

/// Which regime the replay machine runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// HP mode, fault-free: the L1 fast path.
    Hp,
    /// ULE mode with stuck-at faults in the ULE way: the EDC slow path.
    UleFaulty,
}

impl Regime {
    pub fn of(workload: Workload) -> Regime {
        if workload == Workload::ReplayUleFaulty {
            Regime::UleFaulty
        } else {
            Regime::Hp
        }
    }

    pub fn mode(self) -> Mode {
        match self {
            Regime::Hp => Mode::Hp,
            Regime::UleFaulty => Mode::Ule,
        }
    }
}

/// The mix as one entry stream: `per_program` entries of each program.
pub fn mix_trace(seed: u64, per_program: u64) -> impl Iterator<Item = TraceEntry> {
    MIX.into_iter()
        .enumerate()
        .flat_map(move |(i, b)| b.trace(per_program, mix(seed, i as u64)))
}

/// Encodes `entries` as `HYVT` bytes.
pub fn encode(entries: impl Iterator<Item = TraceEntry>) -> Result<Vec<u8>, String> {
    let mut writer = TraceWriter::new(Vec::new());
    for entry in entries {
        writer.push(entry).map_err(|e| format!("encode: {e}"))?;
    }
    let (bytes, _) = writer.finish().map_err(|e| format!("encode: {e}"))?;
    Ok(bytes)
}

/// A `BinaryReplay` over `bytes`.
pub fn reader(bytes: &[u8]) -> Result<BinaryReplay<&[u8]>, String> {
    BinaryReplay::from_reader(bytes).map_err(|e| format!("replay: {e}"))
}

/// Sizes the Scenario-B proposal (the methodology's sizing step).
pub fn architecture() -> Result<Architecture, String> {
    Architecture::build(Scenario::B, DesignPoint::Proposal).map_err(|e| format!("sizing: {e}"))
}

/// The replay machine. In the ULE-faulty regime stuck-at faults are
/// sampled into the ULE way of both L1s from `seed`.
pub fn machine(arch: &Architecture, regime: Regime, seed: u64) -> Result<System, String> {
    let mut system = System::builder()
        .config(arch.config.clone())
        .memory(MemoryConfig::with_latency(MEMORY_LATENCY))
        .l2(L2Config::unified(L2_KB))
        .build()
        .map_err(|e| format!("machine: {e}"))?;
    if regime == Regime::UleFaulty {
        let mut rng = SmallRng::seed_from_u64(mix(seed, 0xfa17));
        inject_ule_faults(system.dl1_mut(), &mut rng);
        inject_ule_faults(system.il1_mut(), &mut rng);
    }
    Ok(system)
}

/// Samples stuck-at faults at [`ULE_FAULT_RATE`] into the ULE-enabled
/// ways of `cache`; returns the faulty bit count.
pub fn inject_ule_faults(cache: &mut HybridCache, rng: &mut SmallRng) -> u64 {
    let pf: Vec<f64> = cache
        .config()
        .ways
        .iter()
        .map(|w| if w.ule_enabled { ULE_FAULT_RATE } else { 0.0 })
        .collect();
    sample_faults(cache, &pf, rng)
}

/// Digest of every counter of a run: the replay correctness gate.
pub fn stats_digest(stats: &RunStats) -> u64 {
    let cache = |fnv: Fnv, c: &CacheStats| c.counters().iter().fold(fnv, |f, &(_, v)| f.word(v));
    let mut fnv = stats
        .counters()
        .iter()
        .fold(Fnv::default(), |f, &(_, v)| f.word(v));
    fnv = cache(fnv, &stats.il1);
    fnv = cache(fnv, &stats.dl1);
    fnv = cache(fnv, &stats.l2.unwrap_or_default());
    fnv.word(stats.memory_accesses).finish()
}

/// Counters a `Timed` chain collects: time spent below the L1s and
/// requests by the depth that satisfied them.
#[derive(Debug, Default)]
pub struct ChainSpans {
    pub nanos: Cell<u64>,
    pub requests: Cell<u64>,
    pub l2_hits: Cell<u64>,
    pub memory: Cell<u64>,
}

/// A `MemoryLevel` wrapper that times every request into the chain
/// beneath it.
#[derive(Debug)]
struct Timed<M> {
    inner: M,
    spans: Rc<ChainSpans>,
}

impl<M: MemoryLevel> MemoryLevel for Timed<M> {
    fn access(&mut self, req: AccessRequest) -> AccessOutcome {
        let start = Instant::now();
        let outcome = self.inner.access(req);
        let s = &self.spans;
        s.nanos
            .set(s.nanos.get() + start.elapsed().as_nanos() as u64);
        s.requests.set(s.requests.get() + 1);
        match outcome.depth {
            HitDepth::L2 => s.l2_hits.set(s.l2_hits.get() + 1),
            HitDepth::Memory => s.memory.set(s.memory.get() + 1),
            HitDepth::L1 => {}
        }
        outcome
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        let s = &self.spans;
        for c in [&s.nanos, &s.requests, &s.l2_hits, &s.memory] {
            c.set(0);
        }
    }

    fn chain_stats(&self) -> Vec<(&'static str, CacheStats)> {
        self.inner.chain_stats()
    }
}

/// Replaces `system`'s chain with the same L2 + memory wrapped in a
/// timing level, and returns the spans it fills.
pub fn install_timed_chain(system: &mut System) -> Rc<ChainSpans> {
    let spans = Rc::new(ChainSpans::default());
    let chain = L2Cache::new(
        L2Config::unified(L2_KB),
        MainMemory::new(MemoryConfig::with_latency(MEMORY_LATENCY)),
    );
    system.set_hierarchy(Box::new(Timed {
        inner: chain,
        spans: Rc::clone(&spans),
    }));
    spans
}

/// An entry source that pulls a chunk at a time from `inner`, timing
/// each pull: the decode span, at one clock pair per 4096 entries.
struct TimedSource<I> {
    inner: I,
    buf: Vec<TraceEntry>,
    pos: usize,
    nanos: u64,
}

impl<I: Iterator<Item = TraceEntry>> Iterator for TimedSource<I> {
    type Item = TraceEntry;

    fn next(&mut self) -> Option<TraceEntry> {
        if self.pos == self.buf.len() {
            let start = Instant::now();
            self.buf.clear();
            self.buf.extend(self.inner.by_ref().take(4096));
            self.nanos += start.elapsed().as_nanos() as u64;
            self.pos = 0;
        }
        let entry = self.buf.get(self.pos).copied();
        self.pos += 1;
        entry
    }
}

/// Everything set-up produces.
struct Prepared {
    bytes: Vec<u8>,
    entries: u64,
    system: System,
    arch: Architecture,
}

fn prepare(regime: Regime, seed: u64, per_program: u64) -> Result<Prepared, String> {
    let arch = architecture()?;
    let bytes = encode(mix_trace(seed, per_program))?;
    let system = machine(&arch, regime, seed)?;
    Ok(Prepared {
        bytes,
        entries: per_program * MIX.len() as u64,
        system,
        arch,
    })
}

/// One replay of the whole trace; `Err` if the bytes did not decode to
/// exactly `entries` entries.
fn replay_once(
    system: &mut System,
    bytes: &[u8],
    entries: u64,
    mode: Mode,
) -> Result<RunStats, String> {
    let mut source = reader(bytes)?;
    let report = system.run(&mut source, mode);
    if let Some(e) = source.error() {
        return Err(format!("replay: {e}"));
    }
    if source.entries_read() != entries || report.stats.instructions != entries {
        return Err(format!(
            "replay: {} of {entries} entries",
            source.entries_read()
        ));
    }
    Ok(report.stats)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let regime = Regime::of(cfg.workload);
    let mode = regime.mode();
    let per_program = cfg.pick(1_250_000, 25_000);
    let mut out = Outcome::default();

    let mut clock = HostClock::new();
    let Prepared {
        bytes,
        entries,
        mut system,
        arch,
    } = clock.setup(|| prepare(regime, cfg.seed, per_program))?;

    // The gate: every replay's counters equal the pinned digest for
    // this seed, or, for an unpinned seed, those of the same programs
    // simulated straight from the generators.
    let pinned = if cfg.smoke {
        None
    } else {
        crate::pinned::replay(regime, cfg.seed)
    };
    let expected = match pinned {
        Some(d) => d,
        None => {
            let mut oracle = machine(&arch, regime, cfg.seed)?;
            stats_digest(&oracle.run(mix_trace(cfg.seed, per_program), mode).stats)
        }
    };

    let untraced_seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let reps = repeat_for(
        untraced_seconds,
        cfg.pick(3, 1),
        &mut clock,
        |clock| {
            clock
                .resample_setup(|| prepare(regime, cfg.seed, per_program))
                .map(drop)
        },
        |_| replay_once(&mut system, &bytes, entries, mode),
    )?;
    let mut walls = Vec::new();
    let mut last = None;
    for (t, stats) in reps {
        let stats = stats?;
        out.check(
            stats_digest(&stats) == expected,
            "replay counters differ from the gate",
        );
        walls.push(t);
        last = Some(stats);
    }
    let stats = last.ok_or("no replay ran")?;
    let raw_wall = median(&walls);

    let d = &mut out.detail;
    clock.record(d, &walls);
    d.num("instructions", entries);
    d.num("trace_bytes", bytes.len());
    d.text("digest", &format!("{:016x}", stats_digest(&stats)));
    d.text("gate", if pinned.is_some() { "pinned" } else { "oracle" });
    d.num("sim_minstr_per_s", entries as f64 / raw_wall / 1e6);
    for (key, value) in stats.counters() {
        d.num(format!("run.{key}"), value);
    }
    d.num("run.il1_misses", stats.il1.misses);
    d.num("run.dl1_misses", stats.dl1.misses);
    d.num("run.corrected", stats.corrected());
    d.num(
        "run.faulty_bits",
        system.dl1_mut().fault_bit_count() + system.il1_mut().fault_bit_count(),
    );

    if !cfg.trace {
        clock.set_end_to_end(&mut out.metrics, &walls);
        return Ok(out);
    }

    // Traced: the same replay with a timed chain and a timed source.
    let mut traced = machine(&arch, regime, cfg.seed)?;
    let spans = install_timed_chain(&mut traced);
    let mut traced_walls = Vec::new();
    let mut decode_nanos = Vec::new();
    let mut chain_nanos = Vec::new();
    for _ in 0..cfg.pick(3, 1) {
        let mut source = TimedSource {
            inner: reader(&bytes)?,
            buf: Vec::with_capacity(4096),
            pos: 0,
            nanos: 0,
        };
        let (t, report) = timed(|| traced.run(&mut source, mode));
        out.check(
            stats_digest(&report.stats) == expected,
            "traced replay counters differ from the gate",
        );
        traced_walls.push(t);
        decode_nanos.push(source.nanos as f64);
        chain_nanos.push(spans.nanos.get() as f64);
    }
    // The decoder alone, over the same bytes.
    let decode_s = median(
        &(0..cfg.pick(3, 1))
            .map(|_| {
                timed(|| {
                    let mut acc = 0u64;
                    for e in reader(&bytes).expect("decoded above") {
                        acc ^= e.pc;
                    }
                    black_box(acc)
                })
                .0
            })
            .collect::<Vec<_>>(),
    );

    layers::suite(cfg, regime, &mut out)?;
    let m = &mut out.metrics;
    let n = entries as f64;
    m.set("binfmt.decode_ns_per_entry", decode_s * 1e9 / n, "ns");
    m.set("binfmt.entries_decoded", n, "count");
    layers::set_run_counts(m, &stats);
    let requests = spans.requests.get();
    m.set("hierarchy.requests", requests as f64, "count");
    m.set("hierarchy.l2_hits", spans.l2_hits.get() as f64, "count");
    m.set(
        "hierarchy.memory_accesses",
        spans.memory.get() as f64,
        "count",
    );
    m.set(
        "hierarchy.ns_per_request",
        median(&chain_nanos) / requests.max(1) as f64,
        "ns",
    );
    // Coverage: the decoder and the engine, each timed on its own,
    // against the untraced replay.
    let engine_ns = m.get("engine.ns_per_instr").unwrap_or(0.0);
    m.set(
        "trace.coverage_share",
        (decode_s + engine_ns * n * 1e-9) / raw_wall,
        "ratio",
    );
    m.set(
        "trace.overhead_s",
        (median(&traced_walls) - raw_wall) * clock.speed(),
        "s",
    );
    out.detail
        .num("traced.decode_span_s", median(&decode_nanos) * 1e-9);
    out.detail
        .num("traced.chain_span_s", median(&chain_nanos) * 1e-9);
    out.detail.num("traced.wall_s", median(&traced_walls));
    Ok(out)
}
